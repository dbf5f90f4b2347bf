//! Event-level access traces: the JSONL/CSV interchange format and the
//! compiler that lowers a stream of `open`/`read`/`write`/`delete` events
//! into the job-level [`Trace`] the cluster simulator replays.
//!
//! The SWIM-style [`crate::generator`] synthesizes workloads from the
//! paper's *published statistics*; an [`EventTrace`] instead captures an
//! explicit access log — either parsed from a file (one event per line,
//! with timestamps, byte counts and client ids, in the spirit of HDFS
//! audit logs) or produced by the [`crate::synth`] generators. Both
//! serializations round-trip losslessly:
//!
//! * **JSONL** — one JSON object per line:
//!   `{"at_ms":120000,"client":3,"op":"read","path":"/d/x","bytes":1048576}`
//! * **CSV** — a `at_ms,client,op,path,bytes` header followed by one row
//!   per event (paths containing `,`, `"` or newlines are rejected at
//!   write time rather than quoted, keeping the parser trivial).
//!
//! [`EventTrace::compile`] turns the event stream into a [`Trace`]:
//! `write` of a fresh path ingests a dataset, `open`/`read` become
//! whole-file MapReduce jobs (the simulator's access model), and `delete`
//! schedules the dataset's removal. The compiler validates the stream —
//! reads of unknown or deleted paths, double writes, and zero-byte files
//! are reported with the offending event index — so malformed traces fail
//! before a simulation starts, not midway through one.

use crate::bins::SizeBin;
use crate::trace::{DeleteSpec, FileSpec, JobSpec, Trace, TraceKind};
use octo_common::{ByteSize, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The operation recorded by one trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceOp {
    /// A client opened the file for reading. Compiled identically to
    /// [`TraceOp::Read`]: HDFS-style audit logs record `open` rather than
    /// per-byte reads, and the simulator models whole-file access anyway.
    Open,
    /// A client read the file.
    Read,
    /// A client wrote (created) the file; `bytes` is its final size.
    Write,
    /// A client deleted the file.
    Delete,
}

impl TraceOp {
    /// The lower-case wire name used by both serializations.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOp::Open => "open",
            TraceOp::Read => "read",
            TraceOp::Write => "write",
            TraceOp::Delete => "delete",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<TraceOp> {
        match s {
            "open" => Some(TraceOp::Open),
            "read" => Some(TraceOp::Read),
            "write" => Some(TraceOp::Write),
            "delete" => Some(TraceOp::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One access-log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event happened (milliseconds on the simulation clock).
    pub at: SimTime,
    /// Issuing client id (informational: compiled jobs are scheduled by
    /// the simulator's own slot model, but the id survives round-trips and
    /// lets generators express per-client structure).
    pub client: u32,
    /// What happened.
    pub op: TraceOp,
    /// DFS path the operation touched.
    pub path: String,
    /// Bytes involved: the file size for `write`, the bytes read for
    /// `open`/`read` (informational), zero for `delete`.
    pub bytes: ByteSize,
}

/// Why a trace failed to parse or compile.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A serialized line was malformed. `line` is 1-based.
    Parse {
        /// 1-based line number in the input text.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// The event stream was structurally invalid. `event` indexes the
    /// trace's event list in time order.
    Compile {
        /// Index of the offending event (after the time sort).
        event: usize,
        /// What rule it broke.
        msg: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse { line, msg } => write!(f, "trace parse error at line {line}: {msg}"),
            TraceError::Compile { event, msg } => {
                write!(f, "trace compile error at event {event}: {msg}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The JSONL wire representation of one event (field order fixed by this
/// struct, so serialization is byte-stable).
#[derive(Debug, Serialize, Deserialize)]
struct WireEvent {
    at_ms: u64,
    client: u32,
    op: String,
    path: String,
    bytes: u64,
}

impl WireEvent {
    fn from_event(e: &TraceEvent) -> WireEvent {
        WireEvent {
            at_ms: e.at.as_millis(),
            client: e.client,
            op: e.op.as_str().to_string(),
            path: e.path.clone(),
            bytes: e.bytes.as_bytes(),
        }
    }

    fn into_event(self, line: usize) -> Result<TraceEvent, TraceError> {
        let op = TraceOp::parse(&self.op).ok_or_else(|| TraceError::Parse {
            line,
            msg: format!("unknown op {:?}", self.op),
        })?;
        if self.path.is_empty() {
            return Err(TraceError::Parse {
                line,
                msg: "empty path".to_string(),
            });
        }
        Ok(TraceEvent {
            at: SimTime::from_millis(self.at_ms),
            client: self.client,
            op,
            path: self.path,
            bytes: ByteSize::from_bytes(self.bytes),
        })
    }
}

/// Output bytes of a compiled read-job as a fraction of its input (the
/// simulator models MapReduce jobs, which always write something).
const OUTPUT_RATIO: f64 = 0.2;

/// Whether compiled job outputs are durable (stay in the DFS) or temporary
/// (deleted by the simulator after its output TTL).
const DURABLE_OUTPUTS: bool = false;

/// Floor for compiled output sizes, so tiny inputs still produce a
/// representable output block.
const MIN_OUTPUT: ByteSize = ByteSize::kb(64);

/// A named, replayable access log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventTrace {
    /// Workload name used in reports (e.g. `"diurnal"`, `"fb-audit-0412"`).
    pub name: String,
    /// The events. Need not be pre-sorted; every consumer applies a stable
    /// sort by timestamp first, so same-instant events keep file order.
    pub events: Vec<TraceEvent>,
}

impl EventTrace {
    /// Builds a trace from a name and events.
    pub fn new(name: impl Into<String>, events: Vec<TraceEvent>) -> Self {
        EventTrace {
            name: name.into(),
            events,
        }
    }

    /// The events in a stable time order (ties keep their original order).
    fn sorted_events(&self) -> Vec<TraceEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at);
        events
    }

    // ------------------------------------------------------------- JSONL

    /// Serializes to JSONL: one compact JSON object per line, in stable
    /// time order. `from_jsonl` reproduces the trace exactly.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.sorted_events() {
            out.push_str(
                &serde_json::to_string(&WireEvent::from_event(&e)).expect("wire event serializes"),
            );
            out.push('\n');
        }
        out
    }

    /// Parses JSONL text. Blank lines and `#`-prefixed comment lines are
    /// skipped; anything else must be a full event object.
    pub fn from_jsonl(name: impl Into<String>, text: &str) -> Result<EventTrace, TraceError> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let wire: WireEvent = serde_json::from_str(trimmed).map_err(|e| TraceError::Parse {
                line: line_no,
                msg: e.to_string(),
            })?;
            events.push(wire.into_event(line_no)?);
        }
        Ok(EventTrace::new(name, events))
    }

    // --------------------------------------------------------------- CSV

    /// The CSV header line.
    pub const CSV_HEADER: &'static str = "at_ms,client,op,path,bytes";

    /// Serializes to CSV (header + one row per event, stable time order).
    /// Fails if any path contains a comma, quote, or newline — the format
    /// deliberately has no quoting rules.
    pub fn to_csv(&self) -> Result<String, TraceError> {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for (i, e) in self.sorted_events().iter().enumerate() {
            if e.path.contains([',', '"', '\n', '\r']) {
                return Err(TraceError::Compile {
                    event: i,
                    msg: format!("path {:?} cannot be represented in CSV", e.path),
                });
            }
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                e.at.as_millis(),
                e.client,
                e.op.as_str(),
                e.path,
                e.bytes.as_bytes()
            ));
        }
        Ok(out)
    }

    /// Parses CSV text produced by [`EventTrace::to_csv`] (or hand-written
    /// in the same shape). The header is required; blank lines and
    /// `#`-comments are skipped.
    pub fn from_csv(name: impl Into<String>, text: &str) -> Result<EventTrace, TraceError> {
        let mut events = Vec::new();
        let mut saw_header = false;
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if !saw_header {
                if trimmed != Self::CSV_HEADER {
                    return Err(TraceError::Parse {
                        line: line_no,
                        msg: format!("expected header {:?}", Self::CSV_HEADER),
                    });
                }
                saw_header = true;
                continue;
            }
            let fields: Vec<&str> = trimmed.split(',').collect();
            if fields.len() != 5 {
                return Err(TraceError::Parse {
                    line: line_no,
                    msg: format!("expected 5 fields, found {}", fields.len()),
                });
            }
            let parse_u64 = |s: &str, what: &str| -> Result<u64, TraceError> {
                s.parse::<u64>().map_err(|_| TraceError::Parse {
                    line: line_no,
                    msg: format!("invalid {what} {s:?}"),
                })
            };
            let client = fields[1].parse::<u32>().map_err(|_| TraceError::Parse {
                line: line_no,
                msg: format!("invalid client id {:?}", fields[1]),
            })?;
            let wire = WireEvent {
                at_ms: parse_u64(fields[0], "timestamp")?,
                client,
                op: fields[2].to_string(),
                path: fields[3].to_string(),
                bytes: parse_u64(fields[4], "byte count")?,
            };
            events.push(wire.into_event(line_no)?);
        }
        if !saw_header {
            return Err(TraceError::Parse {
                line: 1,
                msg: "missing CSV header".to_string(),
            });
        }
        Ok(EventTrace::new(name, events))
    }

    // ----------------------------------------------------------- compile

    /// Lowers the event stream into the job-level [`Trace`] the cluster
    /// simulator replays.
    ///
    /// Rules (violations return [`TraceError::Compile`] with the index of
    /// the offending event in time order):
    ///
    /// * `write` of a path with no live file ingests a dataset of that
    ///   size at the event's timestamp; writing a path that is still live
    ///   is an error (the DFS has no overwrite), but write → delete →
    ///   write re-creates the path as a fresh dataset.
    /// * `open`/`read` of a live path becomes a whole-file job submitted
    ///   at the event's timestamp; reading a path never written, or after
    ///   its deletion, is an error.
    /// * `delete` of a live path schedules its removal; deleting an
    ///   unknown path is an error.
    /// * zero-byte writes are rejected (every DFS file holds ≥ 1 block).
    ///
    /// Each job writes a temporary output of a fifth of its input size, at
    /// least 64 KiB.
    pub fn compile(&self) -> Result<Trace, TraceError> {
        let events = self.sorted_events();
        let mut files: Vec<FileSpec> = Vec::new();
        let mut jobs: Vec<JobSpec> = Vec::new();
        let mut deletes: Vec<DeleteSpec> = Vec::new();
        let mut live: HashMap<&str, usize> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            match e.op {
                TraceOp::Write => {
                    if live.contains_key(e.path.as_str()) {
                        return Err(TraceError::Compile {
                            event: i,
                            msg: format!("write to live path {:?} (no overwrite)", e.path),
                        });
                    }
                    if e.bytes.is_zero() {
                        return Err(TraceError::Compile {
                            event: i,
                            msg: format!("zero-byte write to {:?}", e.path),
                        });
                    }
                    live.insert(e.path.as_str(), files.len());
                    files.push(FileSpec {
                        path: e.path.clone(),
                        size: e.bytes,
                        created: e.at,
                        bin: SizeBin::of(e.bytes),
                    });
                }
                TraceOp::Open | TraceOp::Read => {
                    let Some(&input) = live.get(e.path.as_str()) else {
                        return Err(TraceError::Compile {
                            event: i,
                            msg: format!("{} of unknown or deleted path {:?}", e.op, e.path),
                        });
                    };
                    let spec = &files[input];
                    let out =
                        ByteSize::from_bytes((spec.size.as_bytes() as f64 * OUTPUT_RATIO) as u64)
                            .max(MIN_OUTPUT);
                    jobs.push(JobSpec {
                        submit: e.at,
                        input,
                        output_size: out,
                        output_durable: DURABLE_OUTPUTS,
                        bin: spec.bin,
                    });
                }
                TraceOp::Delete => {
                    let Some(input) = live.remove(e.path.as_str()) else {
                        return Err(TraceError::Compile {
                            event: i,
                            msg: format!("delete of unknown path {:?}", e.path),
                        });
                    };
                    deletes.push(DeleteSpec {
                        at: e.at,
                        file: input,
                    });
                }
            }
        }
        jobs.sort_by_key(|j| (j.submit, j.input));
        // Seed the trace with a digest of the name so two differently-named
        // but otherwise identical traces still compare unequal.
        let seed = self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Ok(Trace {
            kind: TraceKind::Synthetic,
            seed,
            files,
            jobs,
            deletes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_s: u64, client: u32, op: TraceOp, path: &str, bytes: ByteSize) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_secs(at_s),
            client,
            op,
            path: path.to_string(),
            bytes,
        }
    }

    fn sample() -> EventTrace {
        EventTrace::new(
            "sample",
            vec![
                ev(0, 0, TraceOp::Write, "/d/a", ByteSize::mb(64)),
                ev(5, 1, TraceOp::Write, "/d/b", ByteSize::mb(256)),
                ev(60, 2, TraceOp::Read, "/d/a", ByteSize::mb(64)),
                ev(90, 0, TraceOp::Open, "/d/b", ByteSize::mb(256)),
                ev(120, 1, TraceOp::Delete, "/d/a", ByteSize::ZERO),
            ],
        )
    }

    #[test]
    fn jsonl_round_trips() {
        let t = sample();
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 5);
        let back = EventTrace::from_jsonl("sample", &text).unwrap();
        assert_eq!(back, t);
        // And serialization is a fixed point.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn csv_round_trips() {
        let t = sample();
        let text = t.to_csv().unwrap();
        assert!(text.starts_with(EventTrace::CSV_HEADER));
        let back = EventTrace::from_csv("sample", &text).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_csv().unwrap(), text);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# an audit log\n\n{\"at_ms\":1000,\"client\":0,\"op\":\"write\",\"path\":\"/x\",\"bytes\":1024}\n";
        let t = EventTrace::from_jsonl("x", text).unwrap();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].op, TraceOp::Write);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad_op = "{\"at_ms\":1,\"client\":0,\"op\":\"chmod\",\"path\":\"/x\",\"bytes\":1}";
        let err = EventTrace::from_jsonl("x", &format!("# c\n{bad_op}\n")).unwrap_err();
        assert_eq!(
            err,
            TraceError::Parse {
                line: 2,
                msg: "unknown op \"chmod\"".to_string()
            }
        );

        let err = EventTrace::from_jsonl("x", "not json\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }));

        let err = EventTrace::from_csv("x", "at_ms,client,op\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err}");

        let csv = format!("{}\n1,0,read\n", EventTrace::CSV_HEADER);
        let err = EventTrace::from_csv("x", &csv).unwrap_err();
        assert_eq!(
            err,
            TraceError::Parse {
                line: 2,
                msg: "expected 5 fields, found 3".to_string()
            }
        );

        let csv = format!("{}\nxyz,0,read,/x,1\n", EventTrace::CSV_HEADER);
        let err = EventTrace::from_csv("x", &csv).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }));
    }

    #[test]
    fn csv_rejects_unrepresentable_paths() {
        let t = EventTrace::new("x", vec![ev(0, 0, TraceOp::Write, "/a,b", ByteSize::mb(1))]);
        assert!(t.to_csv().is_err());
    }

    #[test]
    fn compile_builds_files_jobs_and_deletes() {
        let trace = sample().compile().unwrap();
        assert_eq!(trace.kind, TraceKind::Synthetic);
        assert_eq!(trace.files.len(), 2);
        assert_eq!(trace.jobs.len(), 2);
        assert_eq!(trace.deletes.len(), 1);
        assert_eq!(trace.files[0].path, "/d/a");
        assert_eq!(trace.jobs[0].input, 0);
        assert_eq!(trace.jobs[1].input, 1);
        assert_eq!(trace.deletes[0].file, 0);
        assert_eq!(trace.deletes[0].at, SimTime::from_secs(120));
        // Outputs respect ratio and floor.
        assert_eq!(
            trace.jobs[0].output_size,
            ByteSize::from_bytes((64 * ByteSize::MB) / 5)
        );
    }

    #[test]
    fn compile_rejects_invalid_streams() {
        let dup = EventTrace::new(
            "x",
            vec![
                ev(0, 0, TraceOp::Write, "/a", ByteSize::mb(1)),
                ev(1, 0, TraceOp::Write, "/a", ByteSize::mb(2)),
            ],
        );
        assert!(matches!(
            dup.compile(),
            Err(TraceError::Compile { event: 1, .. })
        ));

        let unknown = EventTrace::new("x", vec![ev(0, 0, TraceOp::Read, "/a", ByteSize::mb(1))]);
        assert!(unknown.compile().is_err());

        let after_delete = EventTrace::new(
            "x",
            vec![
                ev(0, 0, TraceOp::Write, "/a", ByteSize::mb(1)),
                ev(1, 0, TraceOp::Delete, "/a", ByteSize::ZERO),
                ev(2, 0, TraceOp::Read, "/a", ByteSize::mb(1)),
            ],
        );
        assert!(matches!(
            after_delete.compile(),
            Err(TraceError::Compile { event: 2, .. })
        ));

        let zero = EventTrace::new("x", vec![ev(0, 0, TraceOp::Write, "/a", ByteSize::ZERO)]);
        assert!(zero.compile().is_err());
    }

    #[test]
    fn write_after_delete_recreates_the_path() {
        let t = EventTrace::new(
            "x",
            vec![
                ev(0, 0, TraceOp::Write, "/a", ByteSize::mb(1)),
                ev(10, 0, TraceOp::Delete, "/a", ByteSize::ZERO),
                ev(20, 0, TraceOp::Write, "/a", ByteSize::mb(2)),
                ev(30, 0, TraceOp::Read, "/a", ByteSize::mb(2)),
            ],
        );
        let trace = t.compile().unwrap();
        assert_eq!(trace.files.len(), 2);
        assert_eq!(trace.jobs[0].input, 1, "read binds to the re-created file");
    }

    #[test]
    fn unsorted_events_are_stably_ordered() {
        let t = EventTrace::new(
            "x",
            vec![
                ev(60, 0, TraceOp::Read, "/a", ByteSize::mb(1)),
                ev(0, 0, TraceOp::Write, "/a", ByteSize::mb(1)),
            ],
        );
        let trace = t.compile().unwrap();
        assert_eq!(trace.files.len(), 1);
        assert_eq!(trace.jobs.len(), 1);
    }

    #[test]
    fn traces_with_different_names_differ() {
        let a = sample().compile().unwrap();
        let mut renamed = sample();
        renamed.name = "other".to_string();
        let b = renamed.compile().unwrap();
        assert_ne!(a, b);
        assert_eq!(a.files, b.files);
    }
}
