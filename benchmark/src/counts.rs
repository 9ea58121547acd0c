//! Snapshots of every layer's simulated counters, read from outside
//! through the public stat surfaces, and their deltas.
//!
//! A snapshot flattens each engine's `stat_registry()` (counters
//! verbatim, each histogram as `<name>.count` and `<name>.sum`), adds
//! the BMT node writes `SecureStats` keeps outside the registry, and,
//! for a service, the merged `KvStats` (under `kv.`) and `GroupStats`
//! (under `service.`).

use std::collections::BTreeMap;

use triad_core::SecureMemory;
use triad_sim::stats::{StatRegister, StatRegistry};
use triad_workloads::service::KvService;

/// Named simulated counts, ordered so two snapshots compare exactly.
pub type Counts = BTreeMap<String, u64>;

/// Adds `other` into `acc`, name by name.
pub fn add(acc: &mut Counts, other: &Counts) {
    for (k, v) in other {
        *acc.entry(k.clone()).or_insert(0) += v;
    }
}

/// `after - before`, name by name (counters only grow; a name missing
/// from `before` counts from zero).
pub fn delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// `acc - other`, name by name.
pub fn subtract(acc: &mut Counts, other: &Counts) {
    for (k, v) in other {
        if let Some(a) = acc.get_mut(k) {
            *a = a.saturating_sub(*v);
        }
    }
}

fn flatten(reg: &StatRegistry, out: &mut Counts) {
    for (k, v) in reg.counters() {
        *out.entry(k.to_string()).or_insert(0) += v;
    }
    for (k, h) in reg.histograms() {
        *out.entry(format!("{k}.count")).or_insert(0) += h.count();
        *out.entry(format!("{k}.sum")).or_insert(0) += u64::try_from(h.sum()).unwrap_or(u64::MAX);
    }
}

/// One engine's counters.
pub fn engine(mem: &SecureMemory) -> Counts {
    let mut out = Counts::new();
    flatten(&mem.stat_registry(), &mut out);
    let s = mem.stats();
    out.insert(
        "secure.node_writes".into(),
        s.node_writes_persist + s.node_writes_evict,
    );
    out
}

/// The store counters of every shard, under `kv.`.
pub fn kv(svc: &KvService) -> Counts {
    let mut reg = StatRegistry::new();
    svc.merged_kv_stats().register(&mut reg.scope("kv"));
    let mut out = Counts::new();
    flatten(&reg, &mut out);
    out
}

/// Every layer of a service: all shard engines, the stores and the
/// group-commit front-end.
pub fn service(svc: &KvService) -> Counts {
    let mut out = kv(svc);
    for i in 0..svc.shard_count() {
        if let Some(mem) = svc.shard_mem(i) {
            add(&mut out, &engine(mem));
        }
    }
    let g = svc.merged_group_stats();
    for (name, v) in [
        ("service.flushes", g.flushes),
        ("service.ops", g.ops),
        ("service.log_records", g.log_records),
        ("service.commit_markers", g.commit_markers),
        ("service.shed", g.shed),
    ] {
        out.insert(name.into(), v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_subtract_are_name_wise() {
        let before: Counts = [("a".to_string(), 1), ("b".to_string(), 5)].into();
        let after: Counts = [
            ("a".to_string(), 4),
            ("b".to_string(), 5),
            ("c".to_string(), 2),
        ]
        .into();
        let mut d = delta(&after, &before);
        assert_eq!(
            d,
            [
                ("a".to_string(), 3),
                ("b".to_string(), 0),
                ("c".to_string(), 2)
            ]
            .into()
        );
        subtract(&mut d, &[("a".to_string(), 1)].into());
        assert_eq!(d["a"], 2);
        add(&mut d, &[("z".to_string(), 7)].into());
        assert_eq!(d["z"], 7);
    }
}
