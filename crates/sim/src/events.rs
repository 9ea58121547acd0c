//! Structured event tracing: an opt-in JSON-lines sink for
//! machine-readable simulator events.
//!
//! Components hold an `Option<SharedEventSink>` that defaults to
//! `None`, so tracing costs nothing unless a harness wires a sink in.
//! Every record is stamped with simulated [`Time`] only — never wall
//! clock — so traces are bit-reproducible across runs and machines.
//!
//! One record per line:
//!
//! ```json
//! {"t_ps":77500,"event":"wpq_enqueue","addr":64,"occupancy":1}
//! ```
//!
//! Field order is the order the emitter passed, making the stream
//! diffable between runs.

use crate::time::Time;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A single typed field value in an event record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An unsigned integer field.
    U64(u64),
    /// A boolean field.
    Bool(bool),
    /// A string field (JSON-escaped on output).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Appends `s` to `out` as a JSON string literal: quoted, with `"`,
/// `\` and every control character escaped.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON-lines event sink wrapping any [`Write`] destination.
///
/// IO failures latch the [`EventSink::failed`] flag and silence the
/// sink instead of panicking: tracing is diagnostics, not simulation
/// state, and must never abort a run.
pub struct EventSink {
    writer: Box<dyn Write + Send>,
    emitted: u64,
    failed: bool,
}

impl fmt::Debug for EventSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventSink")
            .field("emitted", &self.emitted)
            .field("failed", &self.failed)
            .finish()
    }
}

impl EventSink {
    /// Wraps a writer (a file, a `Vec<u8>`, ...).
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        EventSink {
            writer,
            emitted: 0,
            failed: false,
        }
    }

    /// A shared, reference-counted sink handle that several components
    /// can emit into — `Send`, so a sink can accompany a shard engine
    /// onto a worker thread.
    pub fn shared(writer: Box<dyn Write + Send>) -> SharedEventSink {
        Arc::new(Mutex::new(EventSink::new(writer)))
    }

    /// Number of records successfully written so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether an IO error has silenced the sink.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Emits one record at simulated time `t` with the given fields,
    /// in the order given. `t_ps` and `event` always lead.
    pub fn emit(&mut self, t: Time, event: &str, fields: &[(&str, Value)]) {
        if self.failed {
            return;
        }
        let mut line = String::with_capacity(64);
        line.push_str("{\"t_ps\":");
        line.push_str(&t.as_ps().to_string());
        line.push_str(",\"event\":");
        write_json_str(&mut line, event);
        for (name, value) in fields {
            line.push(',');
            write_json_str(&mut line, name);
            line.push(':');
            match value {
                Value::U64(v) => line.push_str(&v.to_string()),
                Value::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
                Value::Str(s) => write_json_str(&mut line, s),
            }
        }
        line.push('}');
        line.push('\n');
        if self.writer.write_all(line.as_bytes()).is_err() {
            self.failed = true;
            return;
        }
        self.emitted += 1;
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) {
        if self.writer.flush().is_err() {
            self.failed = true;
        }
    }
}

/// Canonical names of cross-layer trace events. Emitters and trace
/// consumers share this vocabulary instead of scattering string
/// literals; the KV layer (`triad-kv`) is the first client. Every KV
/// mutation is a group commit (`put` and `delete` are groups of one),
/// so each one that writes anything emits [`kind::KV_TXN_COMMIT`] and
/// then [`kind::KV_GROUP_COMMIT`].
pub mod kind {
    /// A KV transaction's commit marker persisted (fields: `seq`,
    /// `writes`).
    pub const KV_TXN_COMMIT: &str = "kv_txn_commit";
    /// A group commit flushed: one commit marker covering a whole
    /// batch of key mutations, one for a single put or delete
    /// (fields: `seq`, `ops`, `writes`).
    pub const KV_GROUP_COMMIT: &str = "kv_group_commit";
    /// A KV store replayed its write-ahead log at open (fields:
    /// `records_scanned`, `txns_applied`, `torn_tail`).
    pub const KV_REPLAY: &str = "kv_replay";
}

/// The handle components store: cheap to clone, absent by default.
/// `Arc<Mutex<..>>` (not `Rc<RefCell<..>>`) so an engine that holds a
/// sink stays `Send` and can live on a shard worker thread; emitters
/// on one shard never contend because each shard owns its own sink.
pub type SharedEventSink = Arc<Mutex<EventSink>>;

/// Emits into an optional shared sink; no-op when tracing is off. A
/// poisoned sink mutex (a panicking emitter elsewhere) silences the
/// sink rather than propagating the panic: tracing is diagnostics,
/// not simulation state.
pub fn emit(sink: &Option<SharedEventSink>, t: Time, event: &str, fields: &[(&str, Value)]) {
    if let Some(s) = sink {
        if let Ok(mut sink) = s.lock() {
            sink.emit(t, event, fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    /// A Vec-backed writer we can inspect after the sink is dropped.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture() -> (SharedEventSink, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = EventSink::shared(Box::new(SharedBuf(buf.clone())));
        (sink, buf)
    }

    #[test]
    fn emits_json_lines_in_field_order() {
        let (sink, buf) = capture();
        emit(
            &Some(sink.clone()),
            Time::from_ps(77_500),
            "wpq_enqueue",
            &[("addr", 64u64.into()), ("occupancy", 1u64.into())],
        );
        emit(
            &Some(sink.clone()),
            Time::from_ps(80_000),
            "crash",
            &[("injected", true.into()), ("phase", "run".into())],
        );
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text,
            "{\"t_ps\":77500,\"event\":\"wpq_enqueue\",\"addr\":64,\"occupancy\":1}\n\
             {\"t_ps\":80000,\"event\":\"crash\",\"injected\":true,\"phase\":\"run\"}\n"
        );
        assert_eq!(sink.lock().unwrap().emitted(), 2);
        assert!(!sink.lock().unwrap().failed());
    }

    #[test]
    fn escapes_strings() {
        let (sink, buf) = capture();
        sink.lock()
            .unwrap()
            .emit(Time::ZERO, "note", &[("msg", "a\"b\\c\nd\te\u{1}".into())]);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text,
            "{\"t_ps\":0,\"event\":\"note\",\"msg\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}\n"
        );
    }

    #[test]
    fn shared_sinks_are_send() {
        // The sharded serving layer moves engines (which hold an
        // optional sink) onto worker threads; the handle must be Send.
        fn assert_send<T: Send>() {}
        assert_send::<SharedEventSink>();
        assert_send::<Option<SharedEventSink>>();
    }

    #[test]
    fn none_sink_is_a_noop() {
        // Must not panic or allocate a record anywhere.
        emit(&None, Time::ZERO, "ignored", &[("x", 1u64.into())]);
    }

    #[test]
    fn io_errors_latch_failed_instead_of_panicking() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("boom"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("boom"))
            }
        }
        let mut sink = EventSink::new(Box::new(Broken));
        sink.emit(Time::ZERO, "e", &[]);
        assert!(sink.failed());
        assert_eq!(sink.emitted(), 0);
        // Further emits are silently dropped.
        sink.emit(Time::ZERO, "e", &[]);
        assert_eq!(sink.emitted(), 0);
    }
}
