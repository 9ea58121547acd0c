//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, host start and end (ns since the tracer
//! was created), the span that was open when it began (its parent) and
//! the batch it served. Spans are kept in memory and written out as
//! JSON lines when the run ends. A disabled tracer records nothing, so
//! untraced rounds pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `service.submit`.
    pub name: &'static str,
    /// Host ns since the tracer's origin.
    pub start_ns: u64,
    /// Host ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The submit batch this span served, if any.
    pub batch: Option<u64>,
}

/// Handle of an open span (`None` when tracing was off at `begin`).
#[must_use = "pass the handle to Tracer::end"]
pub struct Open(Option<usize>);

/// Count, total and self host time of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed duration minus the time covered by direct children (ns).
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, batch: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`]. Spans must close in
    /// reverse order of opening.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = now;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host durations (µs) of every closed span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per-name totals; self time is a span's duration minus the time
    /// its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"batch\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.batch),
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(text.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        let s = tr.begin("a", None);
        tr.end(s);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        let root = tr.begin("root", None);
        let child = tr.begin("child", Some(3));
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(child);
        tr.end(root);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].batch, Some(3));
        let totals = tr.totals();
        let (r, c) = (totals["root"], totals["child"]);
        assert_eq!(c.self_ns, c.total_ns, "a leaf's self time is its duration");
        assert_eq!(r.self_ns, r.total_ns - c.total_ns);
        assert!(c.total_ns >= 2_000_000);
    }
}
