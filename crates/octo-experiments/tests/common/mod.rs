//! Shared helpers for the end-to-end determinism tests. The transcript and
//! digest implementation lives in the library (`octo_experiments::digest`)
//! so the `repair_throughput` bench can assert the same digests; tests
//! reach it through this re-export.

pub use octo_experiments::digest::report_digest;

use octo_cluster::{Scenario, SimConfig};
use octo_common::SimDuration;
use octo_dfs::DfsConfig;
use octo_experiments::ExpSettings;
use octo_workload::{generate, FaultConfig, FaultSchedule, Trace, TraceKind, WorkloadConfig};

/// Figure 13's largest cluster: 88 workers with the FB trace's data scaled
/// 8x, LRU-OSA, under a generated crash plan. The trace keeps the paper's
/// arrival rate over a short window (1/24 of the 6 h submission window
/// and of its jobs), so a debug-build run takes seconds. At this size the
/// flow model's flows fall into many small components that share no
/// resource, a shape the 4- and 8-worker quick runs never reach.
#[allow(dead_code)] // determinism.rs shares this module but pins quick runs only
pub fn fig13_fault_input(epoch_threads: usize) -> (Trace, SimConfig) {
    const WORKERS: u32 = 88;
    const WINDOW_DIVISOR: u32 = 24;
    let settings = ExpSettings::full(3);
    let base = settings.workload(TraceKind::Facebook);
    let workload = WorkloadConfig {
        jobs: base.jobs / WINDOW_DIVISOR as usize,
        duration: SimDuration::from_millis(base.duration.as_millis() / u64::from(WINDOW_DIVISOR)),
        data_scale: 8.0,
        ..base
    };
    let sim = settings.sim(Scenario::policy_pair("lru", "osa"));
    let cfg = SimConfig {
        dfs: DfsConfig {
            workers: WORKERS,
            ..sim.dfs.clone()
        },
        faults: FaultSchedule::generate(&FaultConfig::default(), WORKERS, 3),
        epoch_threads,
        ..sim
    };
    (generate(&workload, 3), cfg)
}

/// The quick FB XGB-XGB run at a 50% activation gate, so that the upgrade
/// model serves (at the default 5% gate it never activates on the quick
/// trace).
#[allow(dead_code)] // determinism.rs shares this module but pins other runs
pub fn xgb_serving_quick_report(epoch_threads: usize) -> octo_cluster::RunReport {
    let settings = ExpSettings::quick(3);
    let trace = settings.trace(TraceKind::Facebook);
    let mut cfg = settings.sim(Scenario::policy_pair("xgb", "xgb"));
    cfg.learner.activation_error = 0.5;
    cfg.epoch_threads = epoch_threads;
    octo_cluster::run_trace(cfg, &trace)
}
