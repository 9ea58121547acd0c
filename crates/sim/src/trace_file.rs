//! A plain-text trace interchange format, so workloads can be
//! recorded once and replayed (or traces captured from other
//! simulators can be fed in).
//!
//! Format — one operation per line, `#` comments, blank lines ignored:
//!
//! ```text
//! # triad-trace v1
//! L 0x1a40 12     # load,             gap = 12 instructions
//! S 0x1a80 3      # store
//! P 0x2000 0      # store + clwb + sfence (persistent store)
//! F 0x2000 0      # clwb + sfence (flush)
//! # triad-trace end ops=4
//! ```
//!
//! The header and the `end ops=N` footer are mandatory for
//! [`read_trace`]: a file that lost its tail (interrupted copy,
//! truncated download) would otherwise *silently* replay as a shorter
//! workload and skew every downstream statistic.

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::addr::PhysAddr;
use crate::trace::{MemOp, OpKind, TraceSource};

/// Errors from parsing a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (1-based line number and content).
    Parse {
        /// Line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// The file does not start with the `# triad-trace v1` header.
    MissingHeader,
    /// The `# triad-trace end ops=N` footer is absent: the file lost
    /// its tail and an unknown number of operations with it.
    Truncated {
        /// Operations successfully parsed before the stream ended.
        found: u64,
    },
    /// The footer's declared operation count disagrees with the body.
    CountMismatch {
        /// Count declared by the footer.
        declared: u64,
        /// Operations actually present.
        found: u64,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceFileError::Parse { line, text } => {
                write!(f, "malformed trace line {line}: {text:?}")
            }
            TraceFileError::MissingHeader => {
                write!(f, "not a triad trace: missing `# triad-trace v1` header")
            }
            TraceFileError::Truncated { found } => {
                write!(
                    f,
                    "truncated trace: no `# triad-trace end` footer after {found} ops"
                )
            }
            TraceFileError::CountMismatch { declared, found } => {
                write!(
                    f,
                    "corrupt trace: footer declares {declared} ops but {found} present"
                )
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

const HEADER: &str = "# triad-trace v1";
const FOOTER_PREFIX: &str = "# triad-trace end ops=";

fn kind_letter(kind: OpKind) -> char {
    match kind {
        OpKind::Load => 'L',
        OpKind::Store => 'S',
        OpKind::PersistentStore => 'P',
        OpKind::Flush => 'F',
    }
}

fn parse_kind(c: &str) -> Option<OpKind> {
    match c {
        "L" => Some(OpKind::Load),
        "S" => Some(OpKind::Store),
        "P" => Some(OpKind::PersistentStore),
        "F" => Some(OpKind::Flush),
        _ => None,
    }
}

/// Writes `ops` to `w` in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_trace<W: Write>(mut w: W, ops: &[MemOp]) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for op in ops {
        writeln!(w, "{} {:#x} {}", kind_letter(op.kind), op.addr.0, op.gap)?;
    }
    // The footer carries the op count so a reader can tell a complete
    // file from one that lost its tail.
    writeln!(w, "{FOOTER_PREFIX}{}", ops.len())?;
    Ok(())
}

/// Records up to `limit` operations from `source` into `w`.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn record<W: Write>(source: &mut dyn TraceSource, limit: u64, w: W) -> io::Result<u64> {
    let mut ops = Vec::new();
    while (ops.len() as u64) < limit {
        match source.next_op() {
            Some(op) => ops.push(op),
            None => break,
        }
    }
    write_trace(w, &ops)?;
    Ok(ops.len() as u64)
}

fn parse_line(line: &str, number: usize) -> Result<Option<MemOp>, TraceFileError> {
    let text = line.trim();
    if text.is_empty() || text.starts_with('#') {
        return Ok(None);
    }
    let err = || TraceFileError::Parse {
        line: number,
        text: text.to_string(),
    };
    let mut parts = text.split_whitespace();
    let kind = parts.next().and_then(parse_kind).ok_or_else(err)?;
    let addr_txt = parts.next().ok_or_else(err)?;
    let addr = if let Some(hex) = addr_txt.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|_| err())?
    } else {
        addr_txt.parse().map_err(|_| err())?
    };
    let gap = match parts.next() {
        None => 0,
        Some(g) => g.parse().map_err(|_| err())?,
    };
    if parts.next().is_some() {
        return Err(err());
    }
    Ok(Some(MemOp {
        addr: PhysAddr(addr),
        kind,
        gap,
    }))
}

/// Parses a complete v1 trace, verifying header and footer.
///
/// # Errors
///
/// Returns [`TraceFileError`] on I/O failure, malformed lines, a
/// missing `# triad-trace v1` header, a missing `# triad-trace end`
/// footer (truncation), or a footer count that disagrees with the
/// body (corruption).
pub fn read_trace<R: BufRead>(r: R) -> Result<Vec<MemOp>, TraceFileError> {
    let mut ops = Vec::new();
    let mut saw_header = false;
    let mut declared: Option<u64> = None;
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let text = line.trim();
        if !saw_header {
            // The header must be the first non-blank line; anything
            // else means this is not (or no longer) a v1 trace file.
            if text.is_empty() {
                continue;
            }
            if text != HEADER {
                return Err(TraceFileError::MissingHeader);
            }
            saw_header = true;
            continue;
        }
        if declared.is_some() {
            // Nothing but blanks/comments may follow the footer.
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            return Err(TraceFileError::Parse {
                line: i + 1,
                text: text.to_string(),
            });
        }
        if let Some(count_txt) = text.strip_prefix(FOOTER_PREFIX) {
            let count = count_txt
                .trim()
                .parse()
                .map_err(|_| TraceFileError::Parse {
                    line: i + 1,
                    text: text.to_string(),
                })?;
            declared = Some(count);
            continue;
        }
        if let Some(op) = parse_line(&line, i + 1)? {
            ops.push(op);
        }
    }
    if !saw_header {
        return Err(TraceFileError::MissingHeader);
    }
    match declared {
        None => Err(TraceFileError::Truncated {
            found: ops.len() as u64,
        }),
        Some(declared) if declared != ops.len() as u64 => Err(TraceFileError::CountMismatch {
            declared,
            found: ops.len() as u64,
        }),
        Some(_) => Ok(ops),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecTrace;

    fn sample_ops() -> Vec<MemOp> {
        vec![
            MemOp::load(PhysAddr(0x1a40), 12),
            MemOp::store(PhysAddr(0x1a80), 3),
            MemOp::persist(PhysAddr(0x2000), 0),
            MemOp {
                addr: PhysAddr(0x2000),
                kind: OpKind::Flush,
                gap: 7,
            },
        ]
    }

    #[test]
    fn round_trip_through_text() {
        let ops = sample_ops();
        let mut buf = Vec::new();
        write_trace(&mut buf, &ops).unwrap();
        let parsed = read_trace(buf.as_slice()).unwrap();
        assert_eq!(parsed, ops);
    }

    #[test]
    fn comments_blank_lines_and_decimal_addresses_accepted() {
        let text =
            "# triad-trace v1\n\nL 4096 2\n  # indented comment\nS 0x40\n# triad-trace end ops=2\n";
        let ops = read_trace(text.as_bytes()).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].addr, PhysAddr(4096));
        assert_eq!(ops[1].gap, 0, "missing gap defaults to zero");
    }

    #[test]
    fn malformed_lines_are_rejected_with_location() {
        for bad in ["X 0x40 1", "L", "L zzz 1", "L 0x40 1 extra"] {
            let text = format!("# triad-trace v1\nL 0x0 0\n{bad}\n");
            match read_trace(text.as_bytes()) {
                Err(TraceFileError::Parse { line, .. }) => assert_eq!(line, 3, "{bad}"),
                other => panic!("{bad}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_trace_is_rejected() {
        // Regression: a trace that lost its tail used to parse as a
        // *shorter valid trace* — every downstream statistic silently
        // ran a different workload. The footer now makes the loss
        // detectable.
        let ops = sample_ops();
        let mut buf = Vec::new();
        write_trace(&mut buf, &ops).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Drop the footer and the last op, as an interrupted copy would.
        let cut: Vec<&str> = text.lines().collect();
        let truncated = cut[..cut.len() - 2].join("\n");
        match read_trace(truncated.as_bytes()) {
            Err(TraceFileError::Truncated { found }) => {
                assert_eq!(found, ops.len() as u64 - 1);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn footer_count_mismatch_is_rejected() {
        // A tampered or mid-body-truncated file whose footer survived.
        let text = "# triad-trace v1\nL 0x40 1\n# triad-trace end ops=3\n";
        match read_trace(text.as_bytes()) {
            Err(TraceFileError::CountMismatch { declared, found }) => {
                assert_eq!((declared, found), (3, 1));
            }
            other => panic!("expected CountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_header_is_rejected() {
        for text in ["L 0x40 1\n", "# not a trace\nL 0x40 1\n", ""] {
            match read_trace(text.as_bytes()) {
                Err(TraceFileError::MissingHeader) => {}
                other => panic!("{text:?}: expected MissingHeader, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_after_footer_is_rejected() {
        let text = "# triad-trace v1\nL 0x40 1\n# triad-trace end ops=1\nS 0x80 0\n";
        match read_trace(text.as_bytes()) {
            Err(TraceFileError::Parse { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected Parse, got {other:?}"),
        }
        // Trailing comments/blanks after the footer stay legal.
        let ok = "# triad-trace v1\nL 0x40 1\n# triad-trace end ops=1\n\n# eof\n";
        assert_eq!(read_trace(ok.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn corrupt_footer_count_is_a_parse_error() {
        let text = "# triad-trace v1\n# triad-trace end ops=zz\n";
        match read_trace(text.as_bytes()) {
            Err(TraceFileError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn record_caps_at_limit() {
        let mut src = VecTrace::new("src", sample_ops());
        let mut buf = Vec::new();
        let n = record(&mut src, 2, &mut buf).unwrap();
        assert_eq!(n, 2);
        assert_eq!(read_trace(buf.as_slice()).unwrap().len(), 2);
    }

    #[test]
    fn io_error_display() {
        let e = TraceFileError::from(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        let p = TraceFileError::Parse {
            line: 3,
            text: "junk".into(),
        };
        assert!(p.to_string().contains("line 3"));
    }
}
