//! Simulated-system configuration.
//!
//! [`SystemConfig::isca19`] reproduces Table 1 of the paper exactly;
//! smaller presets exist for unit tests and property tests, where a
//! 16 GB memory with multi-megabyte caches would be needlessly slow.

use crate::time::Duration;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `ways * sets * 64`.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Access (hit) latency.
    pub latency: Duration,
}

impl CacheConfig {
    /// Creates a cache configuration with a hit latency in CPU cycles.
    pub const fn new(size_bytes: usize, ways: usize, latency_cycles: u64) -> Self {
        CacheConfig {
            size_bytes,
            ways,
            latency: Duration::from_cpu_cycles(latency_cycles),
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the size is not an exact multiple of `ways * 64`.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / crate::addr::BLOCK_BYTES;
        assert!(
            lines > 0 && lines.is_multiple_of(self.ways),
            "cache size {} not divisible into {} ways of 64B lines",
            self.size_bytes,
            self.ways
        );
        lines / self.ways
    }
}

/// PCM main-memory timing and organisation (Table 1, middle section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Independent channels (each with its own bus and banks).
    pub channels: usize,
    /// Array read latency (row activation to data): 60 ns for PCM.
    pub read_latency: Duration,
    /// Array write latency: 150 ns for PCM.
    pub write_latency: Duration,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Row-buffer size in bytes.
    pub row_buffer_bytes: u64,
    /// Data-bus transfer time per 64 B block (tBURST): 5 ns.
    pub burst: Duration,
    /// Row-buffer hit latency (tCL): 12.5 ns → 12500 ps.
    pub t_cl: Duration,
    /// Entries in the ADR-protected write-pending queue.
    pub wpq_entries: usize,
}

/// Encryption-counter organisation (§2.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CounterMode {
    /// One 64 B block per 4 KiB page: 64-bit major + 64 × 7-bit minor
    /// counters. Space-efficient and cache-friendly; the paper's (and
    /// the literature's) default.
    #[default]
    Split,
    /// SGX-style monolithic 64-bit counters, eight per 64 B block:
    /// 8× the metadata footprint, correspondingly worse counter-cache
    /// hit rates. Kept as an ablation.
    Monolithic,
}

impl std::fmt::Display for CounterMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CounterMode::Split => write!(f, "split"),
            CounterMode::Monolithic => write!(f, "monolithic"),
        }
    }
}

/// Security-engine configuration (Table 1, bottom section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityConfig {
    /// Counter cache geometry (128 KB, 8-way).
    pub counter_cache: CacheConfig,
    /// Merkle-tree cache geometry (128 KB, 8-way).
    pub mt_cache: CacheConfig,
    /// Merkle-tree arity (8 children per node: 8 × 8 B MACs in 64 B).
    pub bmt_arity: usize,
    /// Encryption-counter organisation.
    pub counter_mode: CounterMode,
    /// Latency of one AES pad generation / one 64B→8B MAC computation.
    pub hash_latency: Duration,
    /// Latency to check/update one on-chip persistent register.
    pub persistent_register_latency: Duration,
}

/// Core-model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Base CPI for non-memory instructions (out-of-order cores hide
    /// most ILP; 0.5–1.0 is typical for SPEC on a 4-wide OOO core).
    pub base_cpi_ps: u64,
}

/// The complete simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Core model.
    pub core: CoreConfig,
    /// Private L1 data cache (32 KB, 2-way, 2 cycles).
    pub l1: CacheConfig,
    /// Private L2 (512 KB, 8-way, 20 cycles).
    pub l2: CacheConfig,
    /// Shared L3 (8 MB, 64-way, 32 cycles).
    pub l3: CacheConfig,
    /// Main memory.
    pub mem: MemConfig,
    /// Security engine.
    pub security: SecurityConfig,
    /// Fraction of the physical space that is the persistent region,
    /// in eighths (`2` = 2/8 = 25 %, matching 4 GB of 16 GB). §3.3.1
    /// requires the ratio be a whole number of eighths so no BMT root
    /// MAC covers both region kinds.
    pub persistent_eighths: u8,
}

impl SystemConfig {
    /// The exact configuration of Table 1 of the ISCA'19 paper:
    /// 8 cores at 1 GHz, 32 KB/512 KB/8 MB caches, 16 GB PCM with
    /// 60 ns reads and 150 ns writes, 128 KB counter and Merkle-tree
    /// caches, 8-ary BMT, and the last 4 GB as the persistent region.
    pub fn isca19() -> Self {
        SystemConfig {
            cores: 8,
            core: CoreConfig {
                base_cpi_ps: 500, // 0.5 CPI at 1 GHz
            },
            l1: CacheConfig::new(32 << 10, 2, 2),
            l2: CacheConfig::new(512 << 10, 8, 20),
            l3: CacheConfig::new(8 << 20, 64, 32),
            mem: MemConfig {
                capacity_bytes: 16 << 30,
                channels: 1,
                read_latency: Duration::from_ns(60),
                write_latency: Duration::from_ns(150),
                ranks: 2,
                banks_per_rank: 8,
                row_buffer_bytes: 1 << 10,
                burst: Duration::from_ns(5),
                t_cl: Duration::from_ps(12_500),
                wpq_entries: 64,
            },
            security: SecurityConfig {
                counter_cache: CacheConfig::new(128 << 10, 8, 3),
                mt_cache: CacheConfig::new(128 << 10, 8, 3),
                bmt_arity: 8,
                counter_mode: CounterMode::Split,
                hash_latency: Duration::from_ns(14),
                persistent_register_latency: Duration::from_ns(1),
            },
            persistent_eighths: 2,
        }
    }

    /// A small configuration for unit/property tests: 4 MiB memory,
    /// kilobyte-scale caches, same ratios and policies as `isca19`.
    pub fn tiny() -> Self {
        SystemConfig {
            cores: 2,
            core: CoreConfig { base_cpi_ps: 500 },
            l1: CacheConfig::new(2 << 10, 2, 2),
            l2: CacheConfig::new(8 << 10, 4, 20),
            l3: CacheConfig::new(32 << 10, 8, 32),
            mem: MemConfig {
                capacity_bytes: 4 << 20,
                channels: 1,
                read_latency: Duration::from_ns(60),
                write_latency: Duration::from_ns(150),
                ranks: 1,
                banks_per_rank: 4,
                row_buffer_bytes: 1 << 10,
                burst: Duration::from_ns(5),
                t_cl: Duration::from_ps(12_500),
                wpq_entries: 16,
            },
            security: SecurityConfig {
                counter_cache: CacheConfig::new(4 << 10, 4, 3),
                mt_cache: CacheConfig::new(4 << 10, 4, 3),
                bmt_arity: 8,
                counter_mode: CounterMode::Split,
                hash_latency: Duration::from_ns(14),
                persistent_register_latency: Duration::from_ns(1),
            },
            persistent_eighths: 2,
        }
    }

    /// Size of the persistent region in bytes.
    pub fn persistent_bytes(&self) -> u64 {
        self.mem.capacity_bytes / 8 * self.persistent_eighths as u64
    }

    /// Checks internal consistency (cache geometries divide evenly,
    /// persistent ratio is a legal number of eighths, capacity is a
    /// whole number of 4 KiB pages).
    pub fn validate(&self) -> Result<(), String> {
        if self.persistent_eighths > 8 {
            return Err(format!(
                "persistent_eighths must be 0..=8, got {}",
                self.persistent_eighths
            ));
        }
        if !self.mem.capacity_bytes.is_multiple_of(8 * 4096) {
            return Err("capacity must be a multiple of 8 pages".to_string());
        }
        for (name, c) in [
            ("l1", &self.l1),
            ("l2", &self.l2),
            ("l3", &self.l3),
            ("counter_cache", &self.security.counter_cache),
            ("mt_cache", &self.security.mt_cache),
        ] {
            let lines = c.size_bytes / crate::addr::BLOCK_BYTES;
            if lines == 0 || !lines.is_multiple_of(c.ways) {
                return Err(format!("{name}: bad geometry {c:?}"));
            }
        }
        if !self.security.bmt_arity.is_power_of_two() || self.security.bmt_arity < 2 {
            return Err("bmt_arity must be a power of two >= 2".to_string());
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::isca19()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca19_matches_table1() {
        let c = SystemConfig::isca19();
        assert_eq!(c.cores, 8);
        assert_eq!(c.l1.size_bytes, 32 << 10);
        assert_eq!(c.l1.ways, 2);
        assert_eq!(c.l2.size_bytes, 512 << 10);
        assert_eq!(c.l3.size_bytes, 8 << 20);
        assert_eq!(c.l3.ways, 64);
        assert_eq!(c.mem.capacity_bytes, 16 << 30);
        assert_eq!(c.mem.read_latency, Duration::from_ns(60));
        assert_eq!(c.mem.write_latency, Duration::from_ns(150));
        assert_eq!(c.security.counter_cache.size_bytes, 128 << 10);
        assert_eq!(c.security.bmt_arity, 8);
        assert_eq!(c.persistent_bytes(), 4 << 30);
        c.validate().expect("Table 1 config must validate");
    }

    #[test]
    fn tiny_validates() {
        SystemConfig::tiny().validate().unwrap();
    }

    #[test]
    fn sets_computation() {
        let c = CacheConfig::new(32 << 10, 2, 2);
        assert_eq!(c.sets(), 256);
    }

    #[test]
    fn bad_ratio_rejected() {
        let mut c = SystemConfig::tiny();
        c.persistent_eighths = 9;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_cache_geometry_rejected() {
        let mut c = SystemConfig::tiny();
        c.l1.ways = 3; // 32 lines not divisible by 3
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_arity_rejected() {
        let mut c = SystemConfig::tiny();
        c.security.bmt_arity = 6;
        assert!(c.validate().is_err());
    }
}
