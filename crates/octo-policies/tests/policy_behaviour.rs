//! Behavioural tests: each policy's selection logic against a live
//! `TieredDfs`, and the engine loop's threshold semantics (Algorithm 1).

use octo_access::LearnerConfig;
use octo_common::{ByteSize, FileId, PerTier, SimDuration, SimTime, StorageTier};
use octo_dfs::{DfsConfig, TieredDfs};
use octo_policies::{
    downgrade_policy, effective_utilization, upgrade_policy, DowngradePolicy, TieringConfig,
    TieringEngine,
};

const MEM: StorageTier = StorageTier::Memory;

/// A small cluster whose memory tier fits ~8 blocks per node.
fn small_dfs() -> TieredDfs {
    TieredDfs::new(DfsConfig {
        workers: 3,
        replication: 3,
        tier_capacity: PerTier::from_fn(|t| match t {
            StorageTier::Memory => ByteSize::gb(1),
            StorageTier::Ssd => ByteSize::gb(16),
            StorageTier::Hdd => ByteSize::gb(100),
        }),
        ..DfsConfig::default()
    })
    .expect("valid config")
}

fn put(dfs: &mut TieredDfs, name: &str, mb: u64, now: SimTime) -> FileId {
    let plan = dfs
        .create_file(&format!("/t/{name}"), ByteSize::mb(mb), now)
        .unwrap();
    dfs.commit_file(plan.file, now).unwrap();
    plan.file
}

fn mk_down(name: &str) -> Box<dyn DowngradePolicy> {
    downgrade_policy(
        name,
        &TieringConfig::default(),
        &LearnerConfig::default(),
        7,
    )
    .unwrap()
}

/// An engine running `name` with thresholds that start a run on any
/// non-empty memory tier and stop it after the first move: each run plans
/// exactly the policy's first pick.
fn first_pick_engine(name: &str) -> TieringEngine {
    let cfg = TieringConfig {
        start_threshold: 0.0,
        stop_threshold: 1.0,
        ..TieringConfig::default()
    };
    let policy = downgrade_policy(name, &cfg, &LearnerConfig::default(), 7);
    TieringEngine::new(Some(policy.expect("registered policy")), None)
}

/// One Algorithm 1 run through `engine`: the victim it planned. The move
/// is cancelled again, so probes can repeat on the same state.
fn first_pick(engine: &mut TieringEngine, dfs: &mut TieredDfs, now: SimTime) -> FileId {
    let planned = engine.run_downgrade(dfs, MEM, now);
    assert_eq!(planned.len(), 1, "the thresholds plan exactly one victim");
    let file = dfs.transfer(planned[0]).expect("in flight").file;
    dfs.cancel_transfer(planned[0])
        .expect("planned in this run");
    file
}

/// Creates three files and touches them so that recency and frequency
/// disagree: `a` old but frequent, `b` recent but rare, `c` old and rare.
fn recency_frequency_setup(dfs: &mut TieredDfs) -> (FileId, FileId, FileId) {
    let a = put(dfs, "a", 100, SimTime::from_secs(0));
    let b = put(dfs, "b", 100, SimTime::from_secs(0));
    let c = put(dfs, "c", 100, SimTime::from_secs(0));
    for s in [10u64, 20, 30, 40] {
        dfs.record_access(a, SimTime::from_secs(s)).unwrap();
    }
    dfs.record_access(c, SimTime::from_secs(50)).unwrap();
    dfs.record_access(b, SimTime::from_secs(5000)).unwrap();
    (a, b, c)
}

#[test]
fn lru_picks_least_recently_used() {
    let mut dfs = small_dfs();
    let (a, _b, _c) = recency_frequency_setup(&mut dfs);
    let pick = first_pick(
        &mut first_pick_engine("lru"),
        &mut dfs,
        SimTime::from_secs(6000),
    );
    assert_eq!(pick, a, "a's last access (t=40) is oldest");
}

#[test]
fn lfu_picks_least_frequently_used() {
    let mut dfs = small_dfs();
    let (_a, _b, c) = recency_frequency_setup(&mut dfs);
    let pick = first_pick(
        &mut first_pick_engine("lfu"),
        &mut dfs,
        SimTime::from_secs(6000),
    );
    // b and c both have 1 access; tie broken by recency (older first) -> c.
    assert_eq!(pick, c);
}

#[test]
fn lrfu_balances_recency_and_frequency() {
    let mut dfs = small_dfs();
    let mut engine = first_pick_engine("lrfu");
    let a = put(&mut dfs, "a", 100, SimTime::ZERO);
    let b = put(&mut dfs, "b", 100, SimTime::ZERO);
    engine.notify_created(&dfs, a, SimTime::ZERO);
    engine.notify_created(&dfs, b, SimTime::ZERO);
    // a: 5 accesses in quick succession recently; b: 1 access slightly later.
    for s in [100u64, 110, 120, 130, 140] {
        dfs.record_access(a, SimTime::from_secs(s)).unwrap();
        engine.notify_accessed(&dfs, a, SimTime::from_secs(s));
    }
    dfs.record_access(b, SimTime::from_secs(200)).unwrap();
    engine.notify_accessed(&dfs, b, SimTime::from_secs(200));
    let pick = first_pick(&mut engine, &mut dfs, SimTime::from_secs(300));
    assert_eq!(
        pick, b,
        "burst-accessed file outweighs a single later access"
    );
}

#[test]
fn life_evicts_largest_new_file_when_no_old_ones() {
    let mut dfs = small_dfs();
    let _small = put(&mut dfs, "small", 10, SimTime::ZERO);
    let big = put(&mut dfs, "big", 300, SimTime::ZERO);
    // Both recently used (within the 9h window).
    let pick = first_pick(
        &mut first_pick_engine("life"),
        &mut dfs,
        SimTime::from_secs(100),
    );
    assert_eq!(pick, big);
}

#[test]
fn life_and_lfuf_prefer_files_outside_window() {
    let mut dfs = small_dfs();
    let old = put(&mut dfs, "old", 10, SimTime::ZERO);
    let new = put(&mut dfs, "new", 300, SimTime::ZERO);
    // `old` accessed once long ago; `new` accessed recently and often.
    dfs.record_access(old, SimTime::from_secs(10)).unwrap();
    let late = SimTime::from_secs(10 * 3600);
    for s in 0..3 {
        dfs.record_access(new, late + SimDuration::from_secs(s))
            .unwrap();
    }
    let now = late + SimDuration::from_mins(5);
    for name in ["life", "lfu-f"] {
        let pick = first_pick(&mut first_pick_engine(name), &mut dfs, now);
        assert_eq!(pick, old, "{name} must evict from P_old first");
    }
}

#[test]
fn xgb_downgrade_falls_back_to_lru_before_activation() {
    let mut dfs = small_dfs();
    let (a, _b, _c) = recency_frequency_setup(&mut dfs);
    let pick = first_pick(
        &mut first_pick_engine("xgb"),
        &mut dfs,
        SimTime::from_secs(6000),
    );
    assert_eq!(pick, a, "inactive model means LRU ordering");
}

#[test]
fn engine_downgrades_until_stop_threshold() {
    let mut dfs = small_dfs();
    // Fill memory past 90%: 3 nodes × 1GB memory at the 95% per-device fill
    // limit hold 8 × 120MB blocks each, i.e. 24 files ≈ 93.75% of 3GB.
    let mut files = Vec::new();
    for i in 0..30 {
        files.push(put(&mut dfs, &format!("f{i}"), 120, SimTime::from_secs(i)));
    }
    let before = effective_utilization(&dfs, MEM);
    assert!(
        before > 0.90,
        "memory should be past the start threshold: {before}"
    );

    let mut engine = TieringEngine::new(Some(mk_down("lru")), None);
    let now = SimTime::from_secs(100);
    let planned = engine.run_downgrade(&mut dfs, MEM, now);
    assert!(!planned.is_empty(), "something must be scheduled");

    // Effective utilization already reflects the planned moves.
    let eff = effective_utilization(&dfs, MEM);
    assert!(eff < 0.90, "effective utilization after planning: {eff}");
    assert!(eff > 0.70, "should not over-evict: {eff}");

    // Completing the transfers makes the real utilization match.
    for id in planned {
        dfs.complete_transfer(id).unwrap();
    }
    let real = dfs.tier_utilization(MEM);
    assert!(real < 0.90, "real utilization after completion: {real}");

    // A second invocation is a no-op now.
    let again = engine.run_downgrade(&mut dfs, MEM, now);
    assert!(again.is_empty());
}

/// Both thresholds are strict: a run starts only *above* the start
/// threshold and stops only once the tier is *below* the stop threshold,
/// so a tier sitting exactly on either threshold does not change state.
#[test]
fn engine_thresholds_are_strict() {
    let mut dfs = small_dfs();
    for i in 0..6 {
        put(&mut dfs, &format!("f{i}"), 100, SimTime::from_secs(i));
    }
    let now = SimTime::from_secs(100);
    let lru = |start_threshold: f64, stop_threshold: f64| {
        let cfg = TieringConfig {
            start_threshold,
            stop_threshold,
            ..TieringConfig::default()
        };
        TieringEngine::new(
            downgrade_policy("lru", &cfg, &LearnerConfig::default(), 7),
            None,
        )
    };
    let at = effective_utilization(&dfs, MEM);
    assert!(
        lru(at, 0.0).run_downgrade(&mut dfs, MEM, now).is_empty(),
        "a tier exactly at the start threshold starts no run"
    );

    // The utilization a run leaves behind after its first victim.
    let first = lru(0.0, 1.0).run_downgrade(&mut dfs, MEM, now);
    assert_eq!(first.len(), 1);
    let after_one = effective_utilization(&dfs, MEM);
    dfs.cancel_transfer(first[0]).expect("planned in this run");
    assert_eq!(effective_utilization(&dfs, MEM), at);
    let planned = lru(0.0, after_one).run_downgrade(&mut dfs, MEM, now);
    assert_eq!(
        planned.len(),
        2,
        "a tier exactly at the stop threshold takes one more victim"
    );
}

#[test]
fn engine_without_policies_does_nothing() {
    let mut dfs = small_dfs();
    for i in 0..28 {
        put(&mut dfs, &format!("f{i}"), 100, SimTime::from_secs(i));
    }
    let mut engine = TieringEngine::disabled();
    assert!(engine
        .run_downgrade(&mut dfs, MEM, SimTime::from_secs(99))
        .is_empty());
    assert!(engine
        .run_upgrade(&mut dfs, None, SimTime::from_secs(99))
        .is_empty());
    assert_eq!(engine.describe(), "down=none up=none");
}

#[test]
fn osa_upgrades_accessed_file_once() {
    let mut dfs = small_dfs();
    // Force initial placement to HDD so there is something to upgrade.
    dfs.placement_mut()
        .restrict_initial_tiers(&[StorageTier::Hdd]);
    let f = put(&mut dfs, "f", 100, SimTime::ZERO);
    let now = SimTime::from_secs(10);
    dfs.record_access(f, now).unwrap();

    let learner = LearnerConfig::default();
    let cfg = TieringConfig::default();
    let mut engine = TieringEngine::new(None, upgrade_policy("osa", &cfg, &learner, 1));
    let planned = engine.run_upgrade(&mut dfs, Some(f), now);
    assert_eq!(planned.len(), 1);
    dfs.complete_transfer(planned[0]).unwrap();
    assert!(dfs.file_fully_on_tier(f, MEM));

    // Already in memory: nothing more to do.
    let again = engine.run_upgrade(&mut dfs, Some(f), now);
    assert!(again.is_empty());
    // Periodic invocation without an access never triggers OSA.
    assert!(engine.run_upgrade(&mut dfs, None, now).is_empty());
}

#[test]
fn lrfu_upgrade_needs_weight_above_threshold() {
    let mut dfs = small_dfs();
    dfs.placement_mut()
        .restrict_initial_tiers(&[StorageTier::Hdd]);
    let f = put(&mut dfs, "f", 100, SimTime::ZERO);
    let learner = LearnerConfig::default();
    let cfg = TieringConfig::default();
    let mut engine = TieringEngine::new(None, upgrade_policy("lrfu", &cfg, &learner, 1));

    // One access: weight 1 < 3 -> no upgrade.
    let t1 = SimTime::from_secs(10);
    dfs.record_access(f, t1).unwrap();
    engine.notify_accessed(&dfs, f, t1);
    assert!(engine.run_upgrade(&mut dfs, Some(f), t1).is_empty());

    // Several rapid accesses push the weight past 3.
    for s in 11..16 {
        let t = SimTime::from_secs(s);
        dfs.record_access(f, t).unwrap();
        engine.notify_accessed(&dfs, f, t);
    }
    let planned = engine.run_upgrade(&mut dfs, Some(f), SimTime::from_secs(16));
    assert_eq!(planned.len(), 1, "weight should now exceed the threshold");
}
