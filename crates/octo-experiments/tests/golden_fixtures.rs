//! Golden end-to-end digests, stored as a fixture file.
//!
//! `tests/fixtures/golden_digests.json` holds the canonical-transcript
//! digests of the pinned runs, each captured *before* the refactor it
//! guards: the quick runs before the sharded-table refactor of the DFS
//! core, the Figure 13-scale fault run before the flow model switched to
//! component-local rate recompute. The runs replay the whole stack — workload
//! generation, ingestion, policy decisions (including the XGB predictors
//! trained from sampled ticks), transfer scheduling, and fault repair — so
//! a refactor that changes any ordering or accounting moves at least one
//! of these numbers. Keeping them in a fixture (rather than inline
//! constants) makes the baseline explicit and diffable.

mod common;

use common::report_digest;
use octo_cluster::{run_trace, Scenario};
use octo_experiments::ExpSettings;
use octo_workload::{FaultConfig, FaultSchedule, TraceKind};
use std::collections::BTreeMap;

/// Parses the flat `{"name": digest, ...}` fixture. Hand-rolled: the
/// workspace's offline `serde_json` shim models maps as pair sequences, so
/// a JSON object cannot deserialize into a `BTreeMap` through it.
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

fn check(name: &str, digest: u64) {
    let golden = fixture();
    let want = *golden
        .get(name)
        .unwrap_or_else(|| panic!("fixture {name:?} missing from golden_digests.json"));
    assert_eq!(
        digest, want,
        "{name}: run transcript diverged from the pre-refactor golden digest"
    );
}

#[test]
fn lru_osa_quick_run_matches_golden_fixture() {
    let settings = ExpSettings::quick(3);
    let trace = settings.trace(TraceKind::Facebook);
    let report = run_trace(settings.sim(Scenario::policy_pair("lru", "osa")), &trace);
    check("lru_osa_quick", report_digest(&report));
}

#[test]
fn lru_osa_fault_run_matches_golden_fixture() {
    let settings = ExpSettings::quick(3);
    let trace = settings.trace(TraceKind::Facebook);
    let mut cfg = settings.sim(Scenario::policy_pair("lru", "osa"));
    cfg.faults = FaultSchedule::generate(&FaultConfig::default(), cfg.dfs.workers, 3);
    let report = run_trace(cfg, &trace);
    check("lru_osa_fault", report_digest(&report));
}

/// The pinned EC(4,2) fault run: 8 workers (a stripe needs k+m = 6
/// distinct nodes) with per-node capacities halved, and downgrade
/// thresholds low enough that the LRU policy actively pushes cold files
/// into the erasure-coded HDD tier. Its own baseline, not comparable to
/// the 4-worker `lru_osa_fault` digest.
fn ec42_fault_config(settings: &ExpSettings) -> octo_cluster::SimConfig {
    let mut cfg = settings.sim_erasure(Scenario::policy_pair("lru", "osa"), 4, 2);
    cfg.tiering.start_threshold = 0.30;
    cfg.tiering.stop_threshold = 0.25;
    cfg.faults = FaultSchedule::generate(&FaultConfig::default(), cfg.dfs.workers, 3);
    cfg
}

/// The run must show actual erasure-coding activity — stripes rebuilt by
/// reconstruction repair — or the digest would pin a vacuous
/// configuration.
#[test]
fn lru_osa_ec42_fault_run_matches_golden_fixture() {
    let settings = ExpSettings::quick(3);
    let trace = settings.trace(TraceKind::Facebook);
    let report = run_trace(ec42_fault_config(&settings), &trace);
    assert!(
        report.faults.stripes_rebuilt > 0,
        "pinned EC run never reconstructed a shard"
    );
    check("lru_osa_ec42_fault", report_digest(&report));
}

/// Survivability: on identical hardware, under the identical pinned fault
/// schedule and tiering pressure, the erasure-coded cold tier must not
/// lose files that 3-way replication keeps. (The schedule caps concurrent
/// downtime at 2 nodes — exactly EC(4,2)'s tolerance — so cold data can
/// only be lost to accumulated disk losses outpacing repair, which both
/// modes face.)
#[test]
fn ec42_loses_no_more_files_than_replication3() {
    let settings = ExpSettings::quick(3);
    let trace = settings.trace(TraceKind::Facebook);

    let ec = ec42_fault_config(&settings);
    let mut rep = ec.clone();
    *rep.dfs.redundancy.get_mut(octo_common::StorageTier::Hdd) =
        octo_dfs::RedundancyMode::Replicated(3);

    let ec_report = run_trace(ec, &trace);
    let rep_report = run_trace(rep, &trace);
    assert!(
        ec_report.faults.lost_files <= rep_report.faults.lost_files,
        "EC(4,2) lost {} files where replication-3 lost {}",
        ec_report.faults.lost_files,
        rep_report.faults.lost_files
    );
}

/// The pinned cache-enabled run. The vacuity guards require the quick
/// workload to actually exercise every interesting cache path — both hit
/// levels, misses, evictions, and admission rejects — so the digest pins a
/// cache that is genuinely working, not an idle bystander. Its own
/// baseline, never compared against the cache-off `lru_osa_quick` digest.
#[test]
fn lru_osa_cache_quick_run_matches_golden_fixture() {
    let settings = ExpSettings::quick(3);
    let trace = settings.trace(TraceKind::Facebook);
    let report = run_trace(
        settings.sim_cached(Scenario::policy_pair("lru", "osa")),
        &trace,
    );
    let c = &report.cache;
    assert!(c.l1_hits > 0, "pinned cache run never hit L1");
    assert!(c.l2_hits > 0, "pinned cache run never hit L2");
    assert!(c.misses > 0, "pinned cache run never missed");
    assert!(c.l2_evictions > 0, "pinned cache run never evicted");
    assert!(c.admission_rejects > 0, "admission filter never fired");
    assert!(c.block_hit_ratio() > 0.0 && c.byte_hit_ratio() > 0.0);
    check("lru_osa_cache_quick", report_digest(&report));
}

/// The vacuity guard of the policy-pair runs: the pair must have moved
/// bytes in both directions — files promoted and files demoted — so a
/// digest pins both policies at work, not a pair that never fired.
fn assert_moved_both_ways(report: &octo_cluster::RunReport, name: &str) {
    let up: u64 = octo_common::StorageTier::ALL
        .iter()
        .map(|&t| report.movement.upgraded_to.get(t).as_bytes())
        .sum();
    let down: u64 = octo_common::StorageTier::ALL
        .iter()
        .map(|&t| report.movement.downgraded_to.get(t).as_bytes())
        .sum();
    assert!(up > 0, "pinned {name} run never promoted a file");
    assert!(down > 0, "pinned {name} run never demoted a file");
}

/// One quick FB run of a policy pair, checked against its fixture.
fn check_quick_pair(down: &str, up: &str) {
    let settings = ExpSettings::quick(3);
    let trace = settings.trace(TraceKind::Facebook);
    let report = run_trace(settings.sim(Scenario::policy_pair(down, up)), &trace);
    let name = format!("{down}_{up}_quick");
    assert_moved_both_ways(&report, &name);
    check(&name, report_digest(&report));
}

/// The pinned heat-score watermark run: hot files promoted, cold-band
/// files demoted, so the digest pins working watermark machinery.
#[test]
fn watermark_osa_quick_run_matches_golden_fixture() {
    check_quick_pair("watermark", "osa");
}

/// The tournament pairs no other fixture covers. Each pins its downgrade
/// order and its upgrade admission rule end to end.
#[test]
fn lfu_osa_quick_run_matches_golden_fixture() {
    check_quick_pair("lfu", "osa");
}

#[test]
fn lrfu_lrfu_quick_run_matches_golden_fixture() {
    check_quick_pair("lrfu", "lrfu");
}

#[test]
fn exd_exd_quick_run_matches_golden_fixture() {
    check_quick_pair("exd", "exd");
}

#[test]
fn watermark_watermark_quick_run_matches_golden_fixture() {
    check_quick_pair("watermark", "watermark");
}

/// Like `xgb_xgb_quick`, this run never activates its upgrade model: the
/// upgrade learner is asked no prediction, so the digest pins the hybrid
/// upgrade's warm-up admission (hot-band files on access) only. The batch
/// the serving model plans is pinned by the unit pins in
/// `octo-policies/tests/xgb_sampling_determinism.rs`.
#[test]
fn hybrid_hybrid_quick_run_matches_golden_fixture() {
    check_quick_pair("hybrid", "hybrid");
}

#[test]
fn xgb_xgb_quick_run_matches_golden_fixture() {
    let settings = ExpSettings::quick(3);
    let trace = settings.trace(TraceKind::Facebook);
    let report = run_trace(settings.sim(Scenario::policy_pair("xgb", "xgb")), &trace);
    check("xgb_xgb_quick", report_digest(&report));
}

/// The pinned XGB run whose upgrade model serves. At the default 5%
/// activation gate the quick upgrade learner never activates, so
/// `xgb_xgb_quick` pins only the warm-up admission; a 50% gate lets the
/// model serve, so this digest pins the learned upgrade batch end to end:
/// its MRU candidate window, its probability threshold and the files
/// sampled for training each tick. The guards require served upgrade
/// predictions and bytes promoted to memory.
#[test]
fn xgb_xgb_serving_quick_run_matches_golden_fixture() {
    let report = common::xgb_serving_quick_report(1);
    let served: u64 = report
        .learners
        .iter()
        .filter(|l| l.role == octo_policies::PolicyRole::Upgrade)
        .map(|l| l.counters.predictions_served)
        .sum();
    assert!(
        served > 0,
        "pinned serving run never served an upgrade prediction"
    );
    let to_memory = report
        .movement
        .upgraded_to
        .get(octo_common::StorageTier::Memory);
    assert!(
        to_memory.as_bytes() > 0,
        "pinned serving run never promoted a byte to memory"
    );
    check("xgb_xgb_serving_quick", report_digest(&report));
}

/// The pinned Figure 13-scale fault run (see `common::fig13_fault_input`).
/// The vacuity guards require crashes, completed repairs and remote task
/// reads, so the digest covers failover, repair transfers and cross-node
/// read flows, not only local disk reads.
#[test]
fn lru_osa_fig13_fault_run_matches_golden_fixture() {
    let (trace, cfg) = common::fig13_fault_input(1);
    let report = run_trace(cfg, &trace);
    assert!(report.faults.crashes > 0, "pinned fig13 run never crashed");
    assert!(
        report.faults.repairs_completed > 0,
        "pinned fig13 run never completed a repair"
    );
    assert!(
        report.jobs.iter().flat_map(|j| &j.tasks).any(|t| t.remote),
        "pinned fig13 run never read a block across the network"
    );
    check("lru_osa_fig13_fault", report_digest(&report));
}
