//! Seeded KV request histories for the `triad-kv` crash sweep and the
//! triad-report `kv-zipf`/`kv-uniform` rows.
//!
//! A [`KvSpec`] plus a seed fully determines a history
//! ([`generate_history`]: one SplitMix64 stream, Zipf or uniform keys
//! over one keyspace, a configurable put/get/delete/scan mix). Put
//! payloads come from [`value_bytes`], so a history is reproducible
//! from its seed alone. The service's request schedules
//! ([`crate::service::generate_requests`]) come from the same
//! generator loop on a stream of their own.

use triad_sim::rng::SplitMix64;

use crate::service::Request;
use crate::zipf::Zipf;

/// Operation weights of a generated history (relative, not percent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvMix {
    /// Weight of `put`.
    pub put: u32,
    /// Weight of `get`.
    pub get: u32,
    /// Weight of `delete`.
    pub delete: u32,
    /// Weight of `scan`.
    pub scan: u32,
}

impl KvMix {
    /// The crash-suite default: update-heavy so most ops hit the log.
    pub fn balanced() -> Self {
        KvMix {
            put: 5,
            get: 4,
            delete: 2,
            scan: 1,
        }
    }

    /// The report mix: read-leaning, YCSB-B-flavoured.
    pub fn read_heavy() -> Self {
        KvMix {
            put: 4,
            get: 9,
            delete: 2,
            scan: 1,
        }
    }

    fn total(&self) -> u32 {
        self.put + self.get + self.delete + self.scan
    }
}

/// Everything that determines a KV history.
#[derive(Debug, Clone, PartialEq)]
pub struct KvSpec {
    /// Requests in the history.
    pub ops: u64,
    /// Distinct keys.
    pub keyspace: usize,
    /// Zipf skew for key choice; `None` = uniform.
    pub zipf_s: Option<f64>,
    /// Inclusive (min, max) value length in bytes.
    pub value_len: (usize, usize),
    /// Operation weights.
    pub mix: KvMix,
}

impl KvSpec {
    /// The crash-sweep history: short, a dozen hot keys, multi-block
    /// values and all four request kinds, so sweeping every persist
    /// boundary under four schemes stays fast.
    pub fn small(ops: u64) -> Self {
        KvSpec {
            ops,
            keyspace: 12,
            zipf_s: Some(0.9),
            value_len: (1, 100),
            mix: KvMix::balanced(),
        }
    }

    /// [`KvSpec::small`] with uniform instead of Zipf keys.
    pub fn small_uniform(ops: u64) -> Self {
        KvSpec {
            zipf_s: None,
            ..KvSpec::small(ops)
        }
    }

    /// The triad-report `kv-zipf` row: Zipf(0.99) keys.
    pub fn report_zipf(ops: u64) -> Self {
        KvSpec {
            ops,
            keyspace: 256,
            zipf_s: Some(0.99),
            value_len: (8, 256),
            mix: KvMix::read_heavy(),
        }
    }

    /// The triad-report `kv-uniform` row.
    pub fn report_uniform(ops: u64) -> Self {
        KvSpec {
            zipf_s: None,
            ..KvSpec::report_zipf(ops)
        }
    }
}

/// The deterministic value payload for a put's `(tag, len)`.
pub fn value_bytes(tag: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    SplitMix64::new(tag ^ len as u64).fill_bytes(&mut out);
    out
}

/// Generates the seeded request history for `spec`.
pub fn generate_history(spec: &KvSpec, seed: u64) -> Vec<Request> {
    generate(spec, seed, 0x6b76_6f70_7321)
}

/// The one request generator: `spec.ops` requests drawn from the
/// SplitMix64 stream `(seed, salt)`. Each request takes a key, then a
/// kind by `spec.mix` weight, then, for a put, a length and a value
/// tag.
///
/// Always inlined: in a caller whose spec has no Zipf skew, such as
/// [`crate::service::generate_requests`], the Zipf branch then folds
/// away, and a release binary that only generates uniform requests
/// does not link libm for `Zipf::new`'s `powf` (about 0.3 MiB of
/// resident set).
#[inline(always)]
pub(crate) fn generate(spec: &KvSpec, seed: u64, salt: u64) -> Vec<Request> {
    let mut rng = SplitMix64::stream(seed, salt);
    let zipf = spec.zipf_s.map(|s| Zipf::new(spec.keyspace, s));
    let total = spec.mix.total().max(1) as u64;
    (0..spec.ops)
        .map(|_| {
            let key = match &zipf {
                Some(z) => z.sample(&mut rng) as u64,
                None => rng.below(spec.keyspace.max(1) as u64),
            };
            let r = rng.below(total) as u32;
            if r < spec.mix.put {
                let len =
                    rng.gen_range_inclusive(spec.value_len.0 as u64..=spec.value_len.1 as u64);
                Request::Put {
                    key,
                    value: value_bytes(rng.next_u64(), len as usize),
                }
            } else if r < spec.mix.put + spec.mix.get {
                Request::Get { key }
            } else if r < spec.mix.put + spec.mix.get + spec.mix.delete {
                Request::Delete { key }
            } else {
                Request::Scan
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_generation_is_deterministic_and_mixed() {
        let spec = KvSpec::small(64);
        let a = generate_history(&spec, 7);
        assert_eq!(a, generate_history(&spec, 7));
        assert_ne!(a, generate_history(&spec, 8), "different seeds must differ");
        let puts = a
            .iter()
            .filter(|r| matches!(r, Request::Put { .. }))
            .count();
        let scans = a.iter().filter(|r| matches!(r, Request::Scan)).count();
        assert!(puts > 0 && scans > 0, "mix must produce both kinds");
    }

    #[test]
    fn value_bytes_depend_on_tag_and_len() {
        assert_eq!(value_bytes(1, 10), value_bytes(1, 10));
        assert_ne!(value_bytes(1, 10), value_bytes(2, 10));
        assert_eq!(value_bytes(1, 0).len(), 0);
    }
}
