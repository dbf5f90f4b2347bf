//! Determinism regression: the exact victim sequences Algorithm 1 produces
//! on a synthetic overfull memory tier are pinned per policy.
//!
//! The incremental tier accounting / recency-index refactor must keep the
//! decision path bit-identical: same victims, in the same order, with the
//! same deterministic `FileId` tie-breaks, at every epoch-pool width.
//! These sequences were captured from the original full-scan
//! implementation; any divergence means the index-based selection no
//! longer matches the scan semantics.

use octo_access::LearnerConfig;
use octo_common::{ByteSize, FileId, PerTier, SimTime, StorageTier};
use octo_dfs::{DfsConfig, EpochPool, TieredDfs};
use octo_policies::{downgrade_policy, TieringConfig, TieringEngine};

const MEM: StorageTier = StorageTier::Memory;

/// A small cluster whose memory tier fits ~8 blocks per node.
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

/// Builds an overfull memory tier with a scrambled-but-deterministic access
/// history: 30 files, every third accessed "recently", sizes alternating so
/// LIFE's largest-of-P_new arm is exercised too.
fn fill_scrambled(dfs: &mut TieredDfs, engine: &mut TieringEngine) -> Vec<FileId> {
    let mut files = Vec::new();
    for i in 0..30u64 {
        let mb = if i % 4 == 0 { 126 } else { 120 };
        let now = SimTime::from_secs(i);
        let plan = dfs
            .create_file(&format!("/t/f{i}"), ByteSize::mb(mb), now)
            .unwrap();
        dfs.commit_file(plan.file, now).unwrap();
        engine.notify_created(dfs, plan.file, now);
        files.push(plan.file);
    }
    for (i, &f) in files.iter().enumerate() {
        let reps = (i * 7) % 3 + 1; // 1..=3 accesses
        for r in 0..reps {
            let t = SimTime::from_secs(1_000 + ((i * 37 + r * 211) % 500) as u64);
            dfs.record_access(f, t).unwrap();
            engine.notify_accessed(dfs, f, t);
        }
    }
    files
}

/// Runs one full downgrade invocation through the given pool and returns
/// the victims in order.
fn victim_sequence(policy: &str, pool: &EpochPool) -> Vec<u64> {
    let mut dfs = small_dfs();
    // Aggressive thresholds so one invocation schedules a long sequence.
    let cfg = TieringConfig {
        start_threshold: 0.50,
        stop_threshold: 0.20,
        ..TieringConfig::default()
    };
    let learner = LearnerConfig::default();
    let mut engine = TieringEngine::new(
        Some(downgrade_policy(policy, &cfg, &learner, 7).unwrap()),
        None,
    );
    fill_scrambled(&mut dfs, &mut engine);
    let now = SimTime::from_secs(4_000);
    let planned = engine.run_downgrade_pooled(&mut dfs, MEM, now, pool);
    assert!(!planned.is_empty(), "{policy}: nothing scheduled");
    planned
        .iter()
        .map(|id| dfs.transfer(*id).expect("in flight").file.raw())
        .collect()
}

#[test]
fn victim_sequences_are_pinned_per_policy() {
    let expected: &[(&str, &[u64])] = &[
        (
            "lru",
            &[
                0, 22, 17, 15, 10, 5, 3, 20, 18, 13, 8, 6, 1, 21, 16, 11, 9, 4,
            ],
        ),
        (
            "lfu",
            &[
                0, 15, 3, 18, 6, 21, 9, 12, 22, 10, 13, 1, 16, 4, 19, 7, 17, 5,
            ],
        ),
        (
            "lrfu",
            &[
                0, 15, 3, 18, 6, 21, 9, 12, 22, 10, 1, 16, 13, 4, 19, 7, 17, 5,
            ],
        ),
        (
            "life",
            &[0, 4, 8, 12, 16, 20, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15],
        ),
        (
            "lfu-f",
            &[
                0, 15, 3, 18, 6, 21, 9, 12, 22, 10, 13, 1, 16, 4, 19, 7, 17, 5,
            ],
        ),
        (
            "exd",
            &[
                0, 15, 3, 18, 6, 21, 9, 12, 22, 10, 1, 13, 16, 4, 19, 7, 17, 5,
            ],
        ),
        (
            "xgb",
            &[
                0, 22, 17, 15, 10, 5, 3, 20, 18, 13, 8, 6, 1, 21, 16, 11, 9, 4,
            ],
        ),
        // The watermark family schedules 16 victims, not 18: the hottest
        // residents sit in the hot band and are exempt, so the run ends
        // when the eligible set drains. The hybrid matches the plain
        // watermark here because the predictor is still warming up.
        (
            "watermark",
            &[0, 15, 3, 18, 6, 21, 9, 12, 22, 10, 13, 1, 16, 4, 19, 7],
        ),
        (
            "hybrid",
            &[0, 15, 3, 18, 6, 21, 9, 12, 22, 10, 13, 1, 16, 4, 19, 7],
        ),
    ];
    let want: Vec<(&str, Vec<u64>)> = expected
        .iter()
        .map(|(policy, seq)| (*policy, seq.to_vec()))
        .collect();
    for threads in [1usize, 2, 4, 16] {
        let pool = EpochPool::new(threads);
        let got: Vec<(&str, Vec<u64>)> = expected
            .iter()
            .map(|(policy, _)| (*policy, victim_sequence(policy, &pool)))
            .collect();
        assert_eq!(
            got, want,
            "victim orders diverged from the pinned scan-era sequences at {threads} threads"
        );
    }
}
