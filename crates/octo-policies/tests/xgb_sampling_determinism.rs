//! Pinned victim paths of the model-ranked downgrade policies.
//!
//! `sample_files` feeds the periodic tick's (mostly negative) training
//! points to the predictor by drawing uniform ranks over the committed
//! files in ascending-id order. The XGB digest below covers both the model
//! state that sampling produced (raw prediction bits per file) and the
//! victim sequence a downgrade invocation selects with that model — so any
//! change to *which* files the tick samples, or to the rank→file mapping
//! (the namespace deliberately contains deleted-file holes), moves this
//! number. Captured from the pre-shard full-scan `sample_files`
//! implementation; the index-sampling rewrite must reproduce it
//! bit-for-bit.
//!
//! The hybrid pin covers the other model-ranked window: watermark order
//! picks the candidates, the live predictor picks the victim among them.

use octo_access::LearnerConfig;
use octo_common::{ByteSize, FileId, PerTier, SimTime, StorageTier};
use octo_dfs::{DfsConfig, EpochPool, TieredDfs};
use octo_gbt::GbtParams;
use octo_policies::{
    DowngradePolicy, HybridDowngrade, TieringConfig, TieringEngine, WatermarkDowngrade,
    XgbDowngrade,
};
use std::fmt::Write as _;

const MEM: StorageTier = StorageTier::Memory;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn small_dfs() -> TieredDfs {
    TieredDfs::new(DfsConfig {
        workers: 3,
        replication: 1,
        tier_capacity: PerTier::from_fn(|t| match t {
            StorageTier::Memory => ByteSize::gb(1),
            StorageTier::Ssd => ByteSize::gb(16),
            StorageTier::Hdd => ByteSize::gb(100),
        }),
        ..DfsConfig::default()
    })
    .expect("valid config")
}

/// A learner light enough to activate from a few ticks of samples.
fn quick_learner() -> LearnerConfig {
    LearnerConfig {
        min_points: 30,
        buffer_max: 500,
        gbt: GbtParams {
            rounds: 5,
            max_depth: 4,
            ..GbtParams::default()
        },
        ..LearnerConfig::default()
    }
}

/// Aggressive thresholds so one invocation schedules a long sequence.
fn overfull_cfg() -> TieringConfig {
    TieringConfig {
        start_threshold: 0.50,
        stop_threshold: 0.20,
        ..TieringConfig::default()
    }
}

/// When the pinned downgrade invocation runs.
const NOW: SimTime = SimTime::from_secs(24_500);

/// Fills `dfs` and feeds `policy` the lifecycle events, returning the live
/// files ascending by id.
///
/// 36 files, then every fifth-ish one deleted so the committed-file set
/// has holes: rank-to-file selection over a dense id space and over a
/// holey one must agree for the XGB digest to hold. A scrambled but
/// deterministic cold history follows, plus a handful of files re-touched
/// late so the tick windows see both labels, then three monitor ticks,
/// each drawing `sample_files_per_tick` ranks from the committed set and
/// training on the outcome.
fn populate(dfs: &mut TieredDfs, policy: &mut dyn DowngradePolicy) -> Vec<FileId> {
    let mut files = Vec::new();
    for i in 0..36u64 {
        let now = SimTime::from_secs(i);
        let plan = dfs
            .create_file(&format!("/t/f{i}"), ByteSize::mb(90), now)
            .unwrap();
        dfs.commit_file(plan.file, now).unwrap();
        policy.on_file_created(dfs, plan.file, now);
        files.push(plan.file);
    }
    for i in [4u64, 9, 14, 19, 24, 29] {
        dfs.delete_file(FileId(i)).unwrap();
        policy.on_file_deleted(FileId(i), SimTime::from_secs(36));
    }
    files.retain(|f| dfs.file_meta(*f).is_some());
    for &f in &files {
        let i = f.raw() as usize;
        for r in 0..(i * 7) % 3 + 1 {
            let t = SimTime::from_secs(1_000 + ((i * 37 + r * 211) % 500) as u64);
            dfs.record_access(f, t).unwrap();
            policy.on_file_accessed(dfs, f, t);
        }
    }
    for &f in &files {
        if f.raw() % 5 == 0 {
            let t = SimTime::from_secs(23_400);
            dfs.record_access(f, t).unwrap();
            policy.on_file_accessed(dfs, f, t);
        }
    }
    for t in [22_000u64, 23_000, 24_000] {
        policy.on_tick(dfs, SimTime::from_secs(t));
    }
    files
}

/// One Algorithm 1 invocation through the engine on `pool`: the victims
/// in order.
fn victims(dfs: &mut TieredDfs, policy: Box<dyn DowngradePolicy>, pool: &EpochPool) -> Vec<u64> {
    let mut engine = TieringEngine::new(Some(policy), None);
    let planned = engine.run_downgrade_pooled(dfs, MEM, NOW, pool);
    planned
        .iter()
        .map(|id| dfs.transfer(*id).expect("in flight").file.raw())
        .collect()
}

#[test]
fn xgb_tick_sampling_and_victims_are_pinned() {
    let mut dfs = small_dfs();
    let mut policy = XgbDowngrade::new(overfull_cfg(), quick_learner(), 7);
    let files = populate(&mut dfs, &mut policy);
    // Open the activation gate (the warm-up protocol needs a longer run):
    // what matters here is that victim selection consults the model the
    // sampled points trained.
    policy.predictor_mut().learner_mut().force_activate();
    assert!(
        policy.predictor().learner().is_active(),
        "the sampled ticks must have trained a model"
    );

    // Planning moves replicas but never touches access statistics, so the
    // prediction lines can be taken before the engine takes the policy.
    let mut predictions = String::new();
    for &f in &files {
        let p = dfs
            .file_stats(f)
            .and_then(|s| policy.predictor().predict_raw(s, NOW))
            .expect("live committed files predict");
        writeln!(predictions, "f{}={:016x}", f.raw(), p.to_bits()).unwrap();
    }
    let victims = victims(&mut dfs, Box::new(policy), &EpochPool::serial());
    assert!(!victims.is_empty(), "the overfull tier must schedule moves");

    let transcript = format!("victims={victims:?}\n{predictions}");
    let digest = fnv1a(transcript.as_bytes());
    assert_eq!(
        digest, 13_400_109_349_010_546_678,
        "XGB sampling/victim transcript diverged from the pinned \
         full-scan baseline (victims={victims:?})",
    );
}

#[test]
fn hybrid_active_model_victims_are_pinned_at_every_width() {
    // An activation error above 1 opens the gate as soon as the first
    // model has scored a quarter of its (short) evaluation window.
    let learner = LearnerConfig {
        activation_error: 1.5,
        eval_window: 8,
        ..quick_learner()
    };
    let run = |mut policy: Box<dyn DowngradePolicy>, threads: usize| {
        let mut dfs = small_dfs();
        populate(&mut dfs, &mut *policy);
        victims(&mut dfs, policy, &EpochPool::new(threads))
    };
    // The vacuity guard: during warm-up the hybrid order *is* the
    // watermark order, so a pin equal to it would not cover the model.
    let watermark = run(Box::new(WatermarkDowngrade::new(overfull_cfg())), 1);
    let pinned: &[u64] = &[
        6, 7, 8, 21, 22, 20, 1, 2, 3, 16, 17, 18, 28, 0, 5, 15, 11, 12,
    ];
    assert_ne!(watermark, pinned, "the live model must reorder the window");
    for threads in [1usize, 2, 4, 16] {
        let hybrid = run(
            Box::new(HybridDowngrade::new(overfull_cfg(), learner.clone(), 7)),
            threads,
        );
        assert_eq!(
            hybrid, pinned,
            "hybrid victims diverged at {threads} threads"
        );
    }
}
