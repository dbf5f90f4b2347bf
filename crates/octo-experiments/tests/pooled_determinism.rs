//! The parallel epoch engine against the golden end-to-end digests.
//!
//! The fixtures in `tests/fixtures/golden_digests.json` were captured from
//! single-threaded runs that predate the epoch engine. These tests replay
//! the same pinned scenarios with the per-shard epoch fan-out at 1, 4, and
//! 16 worker threads and require the canonical-transcript digest to match
//! the fixture bit for bit: thread count must never influence a single
//! policy decision, transfer, or repair. (1 thread runs the same scans
//! inline; 16 gives every shard its own worker.)

mod common;

use common::report_digest;
use octo_cluster::{run_trace, Scenario};
use octo_experiments::ExpSettings;
use octo_policies::PolicyRole;
use octo_workload::{FaultConfig, FaultSchedule, TraceKind};
use std::collections::BTreeMap;

/// Parses the flat `{"name": digest, ...}` fixture (see golden_fixtures.rs
/// for why this is hand-rolled).
fn fixture() -> BTreeMap<String, u64> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_digests.json"
    );
    let text = std::fs::read_to_string(path).expect("fixture file exists");
    text.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            let (name, value) = line.split_once(':')?;
            let digest: u64 = value.trim().parse().ok()?;
            Some((name.trim().trim_matches('"').to_string(), digest))
        })
        .collect()
}

const THREAD_SWEEP: [usize; 3] = [1, 4, 16];

fn check_at_every_width(name: &str, run: impl Fn(usize) -> u64) {
    let golden = fixture();
    let want = *golden
        .get(name)
        .unwrap_or_else(|| panic!("fixture {name:?} missing from golden_digests.json"));
    for threads in THREAD_SWEEP {
        let digest = run(threads);
        assert_eq!(
            digest, want,
            "{name}: transcript diverged from the serial golden digest at \
             {threads} epoch threads"
        );
    }
}

#[test]
fn lru_osa_quick_digest_is_thread_count_invariant() {
    check_at_every_width("lru_osa_quick", |threads| {
        let settings = ExpSettings::quick(3);
        let trace = settings.trace(TraceKind::Facebook);
        let mut cfg = settings.sim(Scenario::policy_pair("lru", "osa"));
        cfg.epoch_threads = threads;
        report_digest(&run_trace(cfg, &trace))
    });
}

#[test]
fn lru_osa_fault_digest_is_thread_count_invariant() {
    check_at_every_width("lru_osa_fault", |threads| {
        let settings = ExpSettings::quick(3);
        let trace = settings.trace(TraceKind::Facebook);
        let mut cfg = settings.sim(Scenario::policy_pair("lru", "osa"));
        cfg.faults = FaultSchedule::generate(&FaultConfig::default(), cfg.dfs.workers, 3);
        cfg.epoch_threads = threads;
        report_digest(&run_trace(cfg, &trace))
    });
}

/// Erasure-coded repair epochs interleave stripe rebuilds with
/// re-replication; the per-shard fan-out must keep that interleaving —
/// and therefore the whole transcript — identical at any width.
#[test]
fn lru_osa_ec42_fault_digest_is_thread_count_invariant() {
    check_at_every_width("lru_osa_ec42_fault", |threads| {
        let settings = ExpSettings::quick(3);
        let trace = settings.trace(TraceKind::Facebook);
        let mut cfg = settings.sim_erasure(Scenario::policy_pair("lru", "osa"), 4, 2);
        cfg.tiering.start_threshold = 0.30;
        cfg.tiering.stop_threshold = 0.25;
        cfg.faults = FaultSchedule::generate(&FaultConfig::default(), cfg.dfs.workers, 3);
        cfg.epoch_threads = threads;
        report_digest(&run_trace(cfg, &trace))
    });
}

/// The block cache is only touched from the serial event loop, so enabling
/// it must not perturb determinism: the cache-enabled transcript (which
/// includes the gated cache counter section) pins to its own golden digest
/// at every epoch-thread width.
#[test]
fn lru_osa_cache_quick_digest_is_thread_count_invariant() {
    check_at_every_width("lru_osa_cache_quick", |threads| {
        let settings = ExpSettings::quick(3);
        let trace = settings.trace(TraceKind::Facebook);
        let mut cfg = settings.sim_cached(Scenario::policy_pair("lru", "osa"));
        cfg.epoch_threads = threads;
        report_digest(&run_trace(cfg, &trace))
    });
}

/// The watermark family's exhaustive eviction scan runs through
/// `scan_phases`; the merge must reproduce the pinned victim order — and
/// with it the whole transcript — at any shard fan-out.
#[test]
fn watermark_osa_quick_digest_is_thread_count_invariant() {
    check_at_every_width("watermark_osa_quick", |threads| {
        let settings = ExpSettings::quick(3);
        let trace = settings.trace(TraceKind::Facebook);
        let mut cfg = settings.sim(Scenario::policy_pair("watermark", "osa"));
        cfg.epoch_threads = threads;
        report_digest(&run_trace(cfg, &trace))
    });
}

/// Figure 13 scale: 88 workers under a crash plan.
#[test]
fn lru_osa_fig13_fault_digest_is_thread_count_invariant() {
    check_at_every_width("lru_osa_fig13_fault", |threads| {
        let (trace, cfg) = common::fig13_fault_input(threads);
        report_digest(&run_trace(cfg, &trace))
    });
}

#[test]
fn xgb_xgb_quick_digest_is_thread_count_invariant() {
    check_at_every_width("xgb_xgb_quick", |threads| {
        let settings = ExpSettings::quick(3);
        let trace = settings.trace(TraceKind::Facebook);
        let mut cfg = settings.sim(Scenario::policy_pair("xgb", "xgb"));
        cfg.epoch_threads = threads;
        report_digest(&run_trace(cfg, &trace))
    });
}

/// The serving upgrade model plans its batch inside the upgrade epoch:
/// its picks, and with them the transcript, must not move with the width.
#[test]
fn xgb_xgb_serving_quick_digest_is_thread_count_invariant() {
    check_at_every_width("xgb_xgb_serving_quick", |threads| {
        report_digest(&common::xgb_serving_quick_report(threads))
    });
}

/// The learners' counters ride beside the transcript: they must not move
/// with the thread count either, and must add up.
#[test]
fn xgb_xgb_quick_learner_counters_are_thread_count_invariant() {
    let run = |threads| {
        let settings = ExpSettings::quick(3);
        let trace = settings.trace(TraceKind::Facebook);
        let mut cfg = settings.sim(Scenario::policy_pair("xgb", "xgb"));
        cfg.epoch_threads = threads;
        run_trace(cfg, &trace).learners
    };
    let serial = run(1);
    let roles: Vec<_> = serial.iter().map(|l| (l.role, l.policy.as_str())).collect();
    assert_eq!(
        roles,
        [(PolicyRole::Downgrade, "xgb"), (PolicyRole::Upgrade, "xgb")]
    );
    for l in &serial {
        let c = &l.counters;
        assert_eq!(c.made + c.too_young, c.offered, "{:?}", l.role);
        assert!(c.predictions_served <= c.predictions_asked, "{:?}", l.role);
        assert!(c.positive <= c.made, "{:?}", l.role);
        assert!(
            c.made > 0 && c.boosts + c.fits > 0,
            "{:?} never trained",
            l.role
        );
    }
    for threads in [4, 16] {
        assert_eq!(
            run(threads),
            serial,
            "learner counters at {threads} threads"
        );
    }
}
