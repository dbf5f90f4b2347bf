//! Trace-compiler edge cases: degenerate inputs that must either compile
//! to something sensible (empty traces, out-of-order timestamps,
//! duplicate client ids) or fail with a precise, line- or event-numbered
//! error (delete-before-open, malformed rows). These pin the *error
//! surface* of the interchange formats, not just the happy path the
//! round-trip proptests cover.

use octo_common::{ByteSize, SimTime};
use octo_workload::{EventTrace, TraceError, TraceEvent, TraceOp};

fn ev(at_ms: u64, client: u32, op: TraceOp, path: &str, bytes: u64) -> TraceEvent {
    TraceEvent {
        at: SimTime::from_millis(at_ms),
        client,
        op,
        path: path.to_string(),
        bytes: ByteSize::from_bytes(bytes),
    }
}

// ---------------------------------------------------------------- empty

#[test]
fn empty_trace_compiles_to_an_empty_schedule() {
    let t = EventTrace::new("empty", Vec::new());
    let trace = t.compile().unwrap();
    assert!(trace.files.is_empty());
    assert!(trace.jobs.is_empty());
    assert!(trace.deletes.is_empty());
}

#[test]
fn empty_jsonl_text_parses_to_zero_events() {
    let t = EventTrace::from_jsonl("empty", "").unwrap();
    assert!(t.events.is_empty());
    // Comments and blank lines alone are also an empty trace.
    let t = EventTrace::from_jsonl("empty", "# nothing here\n\n   \n").unwrap();
    assert!(t.events.is_empty());
    assert_eq!(t.to_jsonl(), "");
}

#[test]
fn csv_without_header_is_a_line_one_error() {
    let err = EventTrace::from_csv("empty", "").unwrap_err();
    assert_eq!(
        err,
        TraceError::Parse {
            line: 1,
            msg: "missing CSV header".to_string()
        }
    );
    // A header alone is a valid empty trace.
    let t = EventTrace::from_csv("empty", "at_ms,client,op,path,bytes\n").unwrap();
    assert!(t.events.is_empty());
}

// ------------------------------------------------------- out of order

#[test]
fn out_of_order_timestamps_compile_in_time_order() {
    // The read appears *before* the write in the file but after it in
    // time: the compiler's stable time sort must fix this up.
    let text = "\
{\"at_ms\":60000,\"client\":1,\"op\":\"read\",\"path\":\"/d/a\",\"bytes\":1048576}
{\"at_ms\":0,\"client\":0,\"op\":\"write\",\"path\":\"/d/a\",\"bytes\":1048576}
";
    let t = EventTrace::from_jsonl("ooo", text).unwrap();
    let trace = t.compile().unwrap();
    assert_eq!(trace.files.len(), 1);
    assert_eq!(trace.jobs.len(), 1);
    assert_eq!(trace.jobs[0].submit, SimTime::from_secs(60));
}

#[test]
fn same_instant_events_keep_file_order() {
    // Write and read at the same millisecond: the stable sort keeps file
    // order, so write-then-read works and read-then-write is an error
    // blaming the read's position in time order.
    let ok = EventTrace::new(
        "tie",
        vec![
            ev(5_000, 0, TraceOp::Write, "/d/x", 1 << 20),
            ev(5_000, 1, TraceOp::Read, "/d/x", 1 << 20),
        ],
    );
    assert_eq!(ok.compile().unwrap().jobs.len(), 1);

    let bad = EventTrace::new(
        "tie",
        vec![
            ev(5_000, 1, TraceOp::Read, "/d/x", 1 << 20),
            ev(5_000, 0, TraceOp::Write, "/d/x", 1 << 20),
        ],
    );
    match bad.compile().unwrap_err() {
        TraceError::Compile { event, msg } => {
            assert_eq!(event, 0, "the read is first in stable time order");
            assert!(msg.contains("unknown or deleted"), "{msg}");
        }
        other => panic!("expected a compile error, got {other}"),
    }
}

// -------------------------------------------------- delete before open

#[test]
fn delete_before_open_is_an_event_numbered_error() {
    let t = EventTrace::new(
        "del",
        vec![
            ev(0, 0, TraceOp::Write, "/d/a", 1 << 20),
            ev(10_000, 0, TraceOp::Delete, "/d/a", 0),
            ev(20_000, 1, TraceOp::Open, "/d/a", 1 << 20),
        ],
    );
    match t.compile().unwrap_err() {
        TraceError::Compile { event, msg } => {
            assert_eq!(event, 2);
            assert!(msg.contains("/d/a"), "{msg}");
        }
        other => panic!("expected a compile error, got {other}"),
    }
}

#[test]
fn delete_of_never_written_path_is_an_error() {
    let t = EventTrace::new("del", vec![ev(0, 0, TraceOp::Delete, "/ghost", 0)]);
    match t.compile().unwrap_err() {
        TraceError::Compile { event, msg } => {
            assert_eq!(event, 0);
            assert!(msg.contains("unknown path"), "{msg}");
        }
        other => panic!("expected a compile error, got {other}"),
    }
}

// ------------------------------------------------- duplicate client ids

#[test]
fn duplicate_client_ids_are_legal_and_round_trip() {
    // Client ids are informational: many events from one client (and the
    // same id reused across overlapping paths) must compile and survive
    // both serializations unchanged.
    let t = EventTrace::new(
        "dup",
        vec![
            ev(0, 7, TraceOp::Write, "/d/a", 1 << 20),
            ev(1_000, 7, TraceOp::Write, "/d/b", 1 << 21),
            ev(2_000, 7, TraceOp::Read, "/d/a", 1 << 20),
            ev(3_000, 7, TraceOp::Read, "/d/b", 1 << 21),
            ev(4_000, 7, TraceOp::Read, "/d/a", 1 << 20),
        ],
    );
    let trace = t.compile().unwrap();
    assert_eq!(trace.files.len(), 2);
    assert_eq!(trace.jobs.len(), 3);
    let jsonl = EventTrace::from_jsonl("dup", &t.to_jsonl()).unwrap();
    assert_eq!(jsonl, t);
    let csv = EventTrace::from_csv("dup", &t.to_csv().unwrap()).unwrap();
    assert_eq!(csv, t);
}

// ------------------------------------------------ line-numbered errors

#[test]
fn malformed_rows_carry_their_line_numbers() {
    // Comments and blank lines count toward line numbers: the bad row
    // below is physical line 4.
    let jsonl = "\
# audit log
{\"at_ms\":0,\"client\":0,\"op\":\"write\",\"path\":\"/a\",\"bytes\":1024}

{\"at_ms\":1,\"client\":0,\"op\":\"read\",\"path\":\"/a\"
";
    let err = EventTrace::from_jsonl("bad", jsonl).unwrap_err();
    assert!(
        matches!(err, TraceError::Parse { line: 4, .. }),
        "wrong location: {err}"
    );

    let csv = "\
at_ms,client,op,path,bytes
0,0,write,/a,1024
# half-way comment
oops,0,read,/a,1024
";
    let err = EventTrace::from_csv("bad", csv).unwrap_err();
    assert_eq!(
        err,
        TraceError::Parse {
            line: 4,
            msg: "invalid timestamp \"oops\"".to_string()
        }
    );

    // Negative byte counts cannot be represented: u64 parse fails with
    // the line of the offending row.
    let csv = "at_ms,client,op,path,bytes\n0,0,write,/a,-5\n";
    let err = EventTrace::from_csv("bad", csv).unwrap_err();
    assert!(
        matches!(err, TraceError::Parse { line: 2, .. }),
        "wrong location: {err}"
    );

    // Unknown ops are rejected with the line, not silently skipped.
    let jsonl = "{\"at_ms\":0,\"client\":0,\"op\":\"truncate\",\"path\":\"/a\",\"bytes\":1}\n";
    let err = EventTrace::from_jsonl("bad", jsonl).unwrap_err();
    assert_eq!(
        err,
        TraceError::Parse {
            line: 1,
            msg: "unknown op \"truncate\"".to_string()
        }
    );
}
