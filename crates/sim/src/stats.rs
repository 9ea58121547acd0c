//! Statistics: named counters, log-bucketed latency histograms, and
//! the hierarchical [`StatRegistry`] every component registers into
//! via [`StatRegister`]. A registry displays as an ordered, diffable
//! `name value` report.

use std::collections::BTreeMap;
use std::fmt;

/// A power-of-two-bucketed histogram for latency-style samples.
///
/// Buckets hold values in `[2^(i-1), 2^i)` (bucket 0 holds zero);
/// percentile queries return the (upper-bound) bucket edge, which is
/// exact enough for latency reporting across the simulator's
/// nanosecond-to-millisecond range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = 64 - value.leading_zeros().min(63) as usize;
        // value 0 → bucket 0 handled by min above? map explicitly:
        let bucket = if value == 0 { 0 } else { bucket.min(63) };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of all samples (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample seen (zero when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bucket edge containing the `p`-th percentile
    /// (`0.0 < p <= 100.0`); zero when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        self.max
    }

    /// Median bucket edge ([`Histogram::percentile`] at 50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile bucket edge.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile bucket edge.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A hierarchical collection of counters and latency histograms.
///
/// Components contribute through a [`Scope`] handle that prefixes
/// every name with a dotted path (`mem.wpq_residency_ns`), so the
/// displayed report groups by component automatically. Identical names
/// accumulate: counters sum, histograms merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl StatRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scope writing names under `prefix.` (an empty prefix writes
    /// bare names).
    pub fn scope<'a>(&'a mut self, prefix: &str) -> Scope<'a> {
        Scope {
            reg: self,
            prefix: prefix.to_string(),
        }
    }

    /// Reads a counter; zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a histogram by full dotted name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another registry: shared counters sum, shared histograms
    /// merge.
    pub fn merge(&mut self, other: &StatRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

impl fmt::Display for StatRegistry {
    /// One `name value` line per counter and per histogram summary
    /// (`name.count/.min/.max/.mean/.p50/.p95/.p99`), name-sorted, so
    /// two reports over the same stats are line-for-line diffable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut lines = self.counters.clone();
        for (k, h) in &self.histograms {
            for (suffix, v) in [
                ("count", h.count()),
                ("min", h.min()),
                ("max", h.max()),
                ("mean", h.mean().round() as u64),
                ("p50", h.p50()),
                ("p95", h.p95()),
                ("p99", h.p99()),
            ] {
                lines.insert(format!("{k}.{suffix}"), v);
            }
        }
        if lines.is_empty() {
            return write!(f, "(no stats)");
        }
        for (k, v) in &lines {
            writeln!(f, "{k:<48} {v}")?;
        }
        Ok(())
    }
}

/// A write handle into a [`StatRegistry`] under a dotted path prefix.
pub struct Scope<'a> {
    reg: &'a mut StatRegistry,
    prefix: String,
}

impl Scope<'_> {
    fn path(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.prefix)
        }
    }

    /// A nested scope (`mem` → `mem.wpq`).
    pub fn scope(&mut self, name: &str) -> Scope<'_> {
        let prefix = self.path(name);
        Scope {
            reg: self.reg,
            prefix,
        }
    }

    /// Sets counter `name` (replacing any previous value).
    pub fn set(&mut self, name: &str, value: u64) {
        self.reg.counters.insert(self.path(name), value);
    }

    /// Adds `delta` to counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.reg.counters.entry(self.path(name)).or_insert(0) += delta;
    }

    /// Records one sample into histogram `name`.
    pub fn record(&mut self, name: &str, sample: u64) {
        self.reg
            .histograms
            .entry(self.path(name))
            .or_default()
            .record(sample);
    }

    /// Merges a component-held histogram into histogram `name`.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        self.reg
            .histograms
            .entry(self.path(name))
            .or_default()
            .merge(h);
    }
}

/// Implemented by every simulator component that exposes statistics:
/// the component writes its counters and histograms into the scope the
/// harness hands it (e.g. the scope `"l3"` for the shared cache).
pub trait StatRegister {
    /// Contributes this component's statistics into `scope`.
    fn register(&self, scope: &mut Scope<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        for v in [1u64, 2, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1107);
        assert!((h.mean() - 221.4).abs() < 0.01);
        // Median bucket upper edge covers the value 4.
        let p50 = h.p50();
        assert!((4..=8).contains(&p50), "p50 = {p50}");
        assert!(h.percentile(100.0) >= 1000);
        assert!(h.p95() >= h.p50());
        assert!(h.p99() >= h.p95());
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(1.0) <= 1);
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1000);
        assert!(a.percentile(100.0) >= 1000);
        // Merging an empty histogram must not disturb min.
        a.merge(&Histogram::new());
        assert_eq!(a.min(), 10);
    }

    #[test]
    fn registry_scopes_nest_and_accumulate() {
        let mut reg = StatRegistry::new();
        {
            let mut mem = reg.scope("mem");
            mem.add("writes", 2);
            mem.add("writes", 3);
            let mut wpq = mem.scope("wpq");
            wpq.record("residency_ns", 100);
            wpq.record("residency_ns", 200);
        }
        {
            let mut root = reg.scope("");
            root.set("boot_count", 1);
        }
        assert_eq!(reg.counter("mem.writes"), 5);
        assert_eq!(reg.counter("boot_count"), 1);
        assert_eq!(reg.counter("absent"), 0);
        let h = reg.histogram("mem.wpq.residency_ns").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 100);
    }

    #[test]
    fn registry_merge_sums_and_merges() {
        let mut a = StatRegistry::new();
        a.scope("x").add("c", 1);
        a.scope("x").record("h", 10);
        let mut b = StatRegistry::new();
        b.scope("x").add("c", 2);
        b.scope("x").record("h", 20);
        a.merge(&b);
        assert_eq!(a.counter("x.c"), 3);
        assert_eq!(a.histogram("x.h").unwrap().count(), 2);
    }

    #[test]
    fn registry_display_is_stable() {
        assert_eq!(StatRegistry::new().to_string(), "(no stats)");
        // Insertion order must not leak into the report: the same
        // stats registered in any order render byte-identically,
        // name-sorted, histograms expanded in place.
        let mut a = StatRegistry::new();
        a.scope("z").add("last", 3);
        a.scope("core").record("latency_ns", 5);
        a.scope("core").record("latency_ns", 7);
        a.scope("a").add("first", 1);
        let mut b = StatRegistry::new();
        b.scope("a").add("first", 1);
        b.scope("core").record("latency_ns", 7);
        b.scope("z").add("last", 3);
        b.scope("core").record("latency_ns", 5);
        let rendered = a.to_string();
        assert_eq!(rendered, b.to_string());
        let lines: Vec<(&str, u64)> = rendered
            .lines()
            .map(|l| {
                let (k, v) = l.split_once(' ').unwrap();
                (k, v.trim().parse().unwrap())
            })
            .collect();
        let names: Vec<&str> = lines.iter().map(|(k, _)| *k).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "display must be name-sorted");
        let value = |name| lines.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        assert_eq!(value("a.first"), Some(1));
        assert_eq!(value("core.latency_ns.count"), Some(2));
        assert_eq!(value("core.latency_ns.min"), Some(5));
        assert_eq!(value("core.latency_ns.max"), Some(7));
        assert_eq!(value("core.latency_ns.mean"), Some(6));
        assert_eq!(value("core.latency_ns.p99"), Some(8));
        assert_eq!(names.len(), 9, "two counters and seven histogram lines");
    }

    #[test]
    fn component_registration_via_trait() {
        struct Demo {
            hits: u64,
            lat: Histogram,
        }
        impl StatRegister for Demo {
            fn register(&self, scope: &mut Scope<'_>) {
                scope.set("hits", self.hits);
                scope.histogram("lat_ns", &self.lat);
            }
        }
        let mut lat = Histogram::new();
        lat.record(42);
        let d = Demo { hits: 9, lat };
        let mut reg = StatRegistry::new();
        d.register(&mut reg.scope("demo"));
        assert_eq!(reg.counter("demo.hits"), 9);
        assert_eq!(reg.histogram("demo.lat_ns").unwrap().count(), 1);
    }
}
