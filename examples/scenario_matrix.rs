//! Sweep a policy × workload × fault grid with the scenario-matrix
//! harness and render the comparison artifacts.
//!
//! Run with: `cargo run --release --example scenario_matrix`
//!
//! The grid below covers four policies over three workload shapes — the
//! paper's Facebook workload plus two trace-driven ones (a Zipf
//! heavy-tailed trace and a bursty trace, both synthesized as event logs
//! and compiled down to job streams) — under a healthy cluster and a
//! crash-heavy fault schedule. The sweep runs once serially and once on a
//! worker pool; both must produce byte-identical JSON (every cell is an
//! independent deterministic simulation), and the timing comparison is
//! printed so the parallel speedup is visible in the run log on
//! multi-core machines.
//!
//! Artifacts land in the working directory: `scenario_matrix.json` (the
//! aggregated `RunSummary` grid) and `scenario_matrix.md` (the rendered
//! policy-vs-workload tables).

use octopuspp::cluster::Scenario;
use octopuspp::experiments::{run_matrix, ExpSettings, FaultPlan, MatrixSpec, MatrixWorkload};
use octopuspp::workload::{synthesize, FaultConfig, FaultSchedule, SynthConfig, TraceKind};
use std::time::Instant;

fn main() {
    let settings = ExpSettings::quick(7);

    // Workload axis: one generated (FB statistics), two trace-driven. The
    // event traces round-trip through their JSONL serialization first to
    // make the point that a file on disk is an equally good source.
    let zipf = synthesize(&SynthConfig::heavy_tailed(), settings.seed);
    let zipf = octopuspp::workload::EventTrace::from_jsonl("zipf", &zipf.to_jsonl())
        .expect("own serialization parses");
    let bursty = synthesize(&SynthConfig::bursty(), settings.seed ^ 0xB);

    let spec = MatrixSpec {
        scenarios: vec![
            Scenario::OctopusFs,
            Scenario::policy_pair("lru", "osa"),
            Scenario::policy_pair("exd", "exd"),
            Scenario::policy_pair("xgb", "xgb"),
        ],
        workloads: vec![
            MatrixWorkload::from_trace("FB", settings.trace(TraceKind::Facebook)),
            MatrixWorkload::from_events(&zipf).expect("zipf trace compiles"),
            MatrixWorkload::from_events(&bursty).expect("bursty trace compiles"),
        ],
        faults: vec![
            FaultPlan::none(),
            FaultPlan::new(
                "mtbf30m",
                FaultSchedule::generate(&FaultConfig::default(), 4, settings.seed ^ 0xFA),
            ),
        ],
    };

    // At least 4 workers so the fan-out path runs even on small machines;
    // the speedup it buys is bounded by the cores actually available.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(4);
    println!(
        "sweeping {} policies x {} workloads x {} fault plans = {} cells",
        spec.scenarios.len(),
        spec.workloads.len(),
        spec.faults.len(),
        spec.cells()
    );

    let t0 = Instant::now();
    let serial = run_matrix(&spec, &settings, 1);
    let serial_secs = t0.elapsed().as_secs_f64();
    println!("serial   (1 thread ): {serial_secs:6.2}s");

    let t0 = Instant::now();
    let parallel = run_matrix(&spec, &settings, threads);
    let parallel_secs = t0.elapsed().as_secs_f64();
    println!("parallel ({threads} threads): {parallel_secs:6.2}s");
    println!(
        "speedup: {:.2}x with {} worker threads on {} available core(s)",
        serial_secs / parallel_secs.max(1e-9),
        threads,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "matrix artifacts must not depend on the worker count"
    );
    println!("serial and parallel sweeps produced byte-identical JSON");

    std::fs::write("scenario_matrix.json", serial.to_json()).expect("write JSON artifact");
    std::fs::write("scenario_matrix.md", serial.render_markdown()).expect("write markdown");
    println!("wrote scenario_matrix.json and scenario_matrix.md\n");
    print!("{}", serial.render_markdown());
}
