//! The matrix harness's core guarantee: the aggregated artifact is
//! byte-identical no matter how many worker threads ran the sweep, because
//! every cell is an independent deterministic simulation and results land
//! in grid-order slots.

use octo_cluster::Scenario;
use octo_common::SimDuration;
use octo_experiments::{run_matrix, ExpSettings, FaultPlan, MatrixSpec, MatrixWorkload};
use octo_workload::{synthesize, FaultConfig, FaultSchedule, SynthConfig, TraceKind};

fn spec(settings: &ExpSettings) -> MatrixSpec {
    let shrink = |mut cfg: SynthConfig| {
        cfg.files = 10;
        cfg.reads = 24;
        cfg.duration = SimDuration::from_mins(30);
        cfg
    };
    let zipf = synthesize(&shrink(SynthConfig::heavy_tailed()), settings.seed);
    let bursty = synthesize(&shrink(SynthConfig::bursty()), settings.seed ^ 1);
    MatrixSpec {
        scenarios: vec![Scenario::OctopusFs, Scenario::policy_pair("lru", "osa")],
        workloads: vec![
            MatrixWorkload::from_trace("FB", settings.trace(TraceKind::Facebook)),
            MatrixWorkload::from_events(&zipf).unwrap(),
            MatrixWorkload::from_events(&bursty).unwrap(),
        ],
        faults: vec![
            FaultPlan::none(),
            FaultPlan::new(
                "mtbf30m",
                FaultSchedule::generate(&FaultConfig::default(), 4, settings.seed ^ 0xF),
            ),
        ],
    }
}

#[test]
fn matrix_json_is_byte_identical_across_thread_counts() {
    let settings = ExpSettings::quick(11);
    let spec = spec(&settings);
    assert_eq!(spec.cells(), 12);

    let serial = run_matrix(&spec, &settings, 1);
    let json = serial.to_json();
    let md = serial.render_markdown();
    for threads in [2, 4, 7] {
        let parallel = run_matrix(&spec, &settings, threads);
        assert_eq!(
            parallel.to_json(),
            json,
            "JSON artifact diverged at {threads} threads"
        );
        assert_eq!(
            parallel.render_markdown(),
            md,
            "markdown report diverged at {threads} threads"
        );
    }

    // The faulted plane actually exercised the fault machinery.
    let faulted = serial
        .cell("LRU-OSA", "FB", "mtbf30m")
        .expect("cell exists");
    let healthy = serial.cell("LRU-OSA", "FB", "none").expect("cell exists");
    assert_ne!(
        faulted.summary, healthy.summary,
        "fault schedule must change the run"
    );
}

#[test]
fn matrix_cells_reproduce_standalone_runs() {
    // A cell is not a new code path: the same settings fed straight into
    // run_trace must produce the identical summary.
    let settings = ExpSettings::quick(11);
    let spec = spec(&settings);
    let report = run_matrix(&spec, &settings, 3);

    let trace = settings.trace(TraceKind::Facebook);
    let standalone =
        octo_cluster::run_trace(settings.sim(Scenario::policy_pair("lru", "osa")), &trace);
    let cell = report.cell("LRU-OSA", "FB", "none").expect("cell exists");
    assert_eq!(
        cell.summary,
        octo_metrics::RunSummary::from_report(&standalone)
    );
}
