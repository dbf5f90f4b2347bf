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
//!
//! The upgrade pin covers Algorithm 2 with the model serving: each run
//! scores the MRU candidate window once per pick, so it pins the planned
//! files of several runs, with model refreshes between them, plus the
//! prediction bits the first run starts from.

use octo_access::LearnerConfig;
use octo_common::{ByteSize, FileId, PerTier, SimDuration, SimTime, StorageTier};
use octo_dfs::{DfsConfig, DowngradeTarget, EpochPool, TieredDfs};
use octo_gbt::GbtParams;
use octo_policies::{
    DowngradePolicy, HybridDowngrade, OsaUpgrade, TieringConfig, TieringEngine, UpgradePolicy,
    WatermarkDowngrade, XgbDowngrade, XgbUpgrade,
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

/// The lifecycle callbacks `populate` drives. Downgrade and upgrade
/// policies declare the same four under different traits.
trait Lifecycle {
    fn created(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime);
    fn deleted(&mut self, file: FileId, now: SimTime);
    fn accessed(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime);
    fn tick(&mut self, dfs: &TieredDfs, now: SimTime);
}

impl Lifecycle for dyn DowngradePolicy {
    fn created(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.on_file_created(dfs, file, now);
    }
    fn deleted(&mut self, file: FileId, now: SimTime) {
        self.on_file_deleted(file, now);
    }
    fn accessed(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.on_file_accessed(dfs, file, now);
    }
    fn tick(&mut self, dfs: &TieredDfs, now: SimTime) {
        self.on_tick(dfs, now);
    }
}

impl Lifecycle for dyn UpgradePolicy {
    fn created(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.on_file_created(dfs, file, now);
    }
    fn deleted(&mut self, file: FileId, now: SimTime) {
        self.on_file_deleted(file, now);
    }
    fn accessed(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.on_file_accessed(dfs, file, now);
    }
    fn tick(&mut self, dfs: &TieredDfs, now: SimTime) {
        self.on_tick(dfs, now);
    }
}

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
fn populate(dfs: &mut TieredDfs, policy: &mut (impl Lifecycle + ?Sized)) -> Vec<FileId> {
    let mut files = Vec::new();
    for i in 0..36u64 {
        let now = SimTime::from_secs(i);
        let plan = dfs
            .create_file(&format!("/t/f{i}"), ByteSize::mb(90), now)
            .unwrap();
        dfs.commit_file(plan.file, now).unwrap();
        policy.created(dfs, plan.file, now);
        files.push(plan.file);
    }
    for i in [4u64, 9, 14, 19, 24, 29] {
        dfs.delete_file(FileId(i)).unwrap();
        policy.deleted(FileId(i), SimTime::from_secs(36));
    }
    files.retain(|f| dfs.file_meta(*f).is_some());
    for &f in &files {
        let i = f.raw() as usize;
        for r in 0..(i * 7) % 3 + 1 {
            let t = SimTime::from_secs(1_000 + ((i * 37 + r * 211) % 500) as u64);
            dfs.record_access(f, t).unwrap();
            policy.accessed(dfs, f, t);
        }
    }
    for &f in &files {
        if f.raw() % 5 == 0 {
            let t = SimTime::from_secs(23_400);
            dfs.record_access(f, t).unwrap();
            policy.accessed(dfs, f, t);
        }
    }
    for t in [22_000u64, 23_000, 24_000] {
        policy.tick(dfs, SimTime::from_secs(t));
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
    let files = populate(&mut dfs, &mut policy as &mut dyn DowngradePolicy);
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

/// Moves every even-numbered file from memory to SSD, so Algorithm 2 has
/// both candidates and free memory to upgrade them into.
fn free_memory(dfs: &mut TieredDfs, files: &[FileId]) {
    for &f in files.iter().filter(|f| f.raw() % 2 == 0) {
        if dfs.file_fully_on_tier(f, MEM) {
            let id = dfs
                .plan_downgrade(f, MEM, DowngradeTarget::Tier(StorageTier::Ssd))
                .unwrap();
            dfs.complete_transfer(id).unwrap();
        }
    }
}

/// Three Algorithm 2 runs through the engine, at `NOW`, an hour later and
/// six hours later, each one after the files `touch` names were read again
/// (so the model refreshes between runs): the planned files of every run,
/// in order. By the last run every file scores differently than in the
/// first, so a score kept from an earlier run would change its picks.
fn upgrade_runs(
    dfs: &mut TieredDfs,
    policy: Box<dyn UpgradePolicy>,
    touch: &[[u64; 2]; 3],
) -> Vec<Vec<u64>> {
    let mut engine = TieringEngine::new(None, Some(policy));
    let mut runs = Vec::new();
    for (k, pair) in touch.iter().enumerate() {
        let now = NOW + SimDuration::from_mins([0, 60, 360][k]);
        for &raw in pair {
            dfs.record_access(FileId(raw), now).unwrap();
            engine.notify_accessed(dfs, FileId(raw), now);
        }
        let planned = engine.run_upgrade(dfs, Some(FileId(pair[0])), now);
        runs.push(
            planned
                .iter()
                .map(|id| dfs.transfer(*id).expect("in flight").file.raw())
                .collect(),
        );
    }
    runs
}

#[test]
fn xgb_upgrade_active_model_picks_are_pinned() {
    let touch = [[31u64, 2], [17, 33], [8, 26]];
    let mut dfs = small_dfs();
    // A 400 MB batch limit spreads the picks over all three runs.
    let cfg = TieringConfig {
        xgb_upgrade_limit: ByteSize::mb(400),
        ..TieringConfig::default()
    };
    let mut policy = XgbUpgrade::new(cfg, quick_learner(), 7);
    let files = populate(&mut dfs, &mut policy as &mut dyn UpgradePolicy);
    free_memory(&mut dfs, &files);
    policy.predictor_mut().learner_mut().force_activate();
    assert!(
        policy.predictor().learner().is_active(),
        "the sampled ticks must have trained a model"
    );
    let mut predictions = String::new();
    for &f in &files {
        let p = dfs
            .file_stats(f)
            .and_then(|s| policy.predictor().predict_raw(s, NOW))
            .expect("live committed files predict");
        writeln!(predictions, "f{}={:016x}", f.raw(), p.to_bits()).unwrap();
    }
    let runs = upgrade_runs(&mut dfs, Box::new(policy), &touch);

    // The vacuity guard: on-access upgrades plan exactly the files just
    // read, so a pin equal to OSA's would not cover the model.
    let mut osa_dfs = small_dfs();
    let osa_files = populate(&mut osa_dfs, &mut OsaUpgrade as &mut dyn UpgradePolicy);
    free_memory(&mut osa_dfs, &osa_files);
    let osa_runs = upgrade_runs(&mut osa_dfs, Box::new(OsaUpgrade), &touch);

    let pinned: &[&[u64]] = &[
        &[12, 26, 34, 6, 33],
        &[8, 18, 16, 28, 32],
        &[10, 35, 20, 0, 30],
    ];
    assert_eq!(runs, pinned, "XGB upgrade picks diverged");
    assert_ne!(runs, osa_runs, "the serving model must pick beyond OSA");
    assert_eq!(
        fnv1a(predictions.as_bytes()),
        11_323_033_784_145_035_932,
        "upgrade model prediction bits diverged"
    );
}
