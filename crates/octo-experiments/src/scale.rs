//! Million-file scale harness: commit/access/epoch cycles against a large
//! namespace.
//!
//! This is the workload the sharded DFS core was built for: ingest
//! `files` one-block files until the memory tier sits just over the
//! downgrade threshold, then run `epochs` monitor epochs, each of which
//!
//! 1. records a batch of uniform-random accesses resolved through the
//!    committed-file rank index (no candidate `Vec` is ever built),
//! 2. ticks the XGB policy (training-sample draws against the same index),
//! 3. upgrades a batch of recently-downgraded files back into memory
//!    (pushing utilization over the start threshold again), and
//! 4. runs one Algorithm-1 downgrade epoch and applies every transfer.
//!
//! The report carries ingest/access throughput, per-epoch latencies, and
//! a peak-RSS proxy — the numbers `BENCH_scale.json` tracks across PRs.
//! Everything is deterministic for a fixed config.

use octo_common::{ByteSize, DetRng, PerTier, SimTime, StorageTier};
use octo_dfs::{DfsConfig, EpochPool, TieredDfs};
use octo_policies::{downgrade_policy, TieringConfig, TieringEngine};
use std::time::Instant;

/// Parameters of a scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Number of one-block files to ingest.
    pub files: u64,
    /// Number of monitor epochs to drive after ingest.
    pub epochs: u32,
    /// Uniform-random accesses recorded per epoch.
    pub accesses_per_epoch: u64,
    /// Files moved back up into memory per epoch (keeps the downgrade
    /// trigger firing at steady state).
    pub upgrades_per_epoch: u64,
    /// Seed for the access stream and the policy's sampling RNG.
    pub seed: u64,
    /// Worker threads for the per-shard epoch fan-out; 1 scans the shards
    /// inline. The [`ScaleReport::digest`] is identical at every value.
    pub threads: usize,
}

impl ScaleConfig {
    /// The quick configuration CI runs: one million files, 50 epochs.
    pub fn quick() -> Self {
        ScaleConfig {
            files: 1_000_000,
            epochs: 50,
            accesses_per_epoch: 10_000,
            upgrades_per_epoch: 4_000,
            seed: 42,
            threads: 1,
        }
    }

    /// The full configuration: ten million files, 100 epochs.
    pub fn full() -> Self {
        ScaleConfig {
            files: 10_000_000,
            epochs: 100,
            accesses_per_epoch: 20_000,
            upgrades_per_epoch: 8_000,
            seed: 42,
            threads: 1,
        }
    }

    /// The same run at a different epoch fan-out width.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// What a scale run measured.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Files ingested.
    pub files: u64,
    /// Epochs driven.
    pub epochs: u32,
    /// Wall time of the ingest phase in seconds.
    pub ingest_secs: f64,
    /// Ingest throughput (create + commit) in files/second.
    pub ingest_files_per_sec: f64,
    /// Accesses recorded across all epochs.
    pub accesses: u64,
    /// Access+notify throughput in accesses/second.
    pub accesses_per_sec: f64,
    /// Wall time of each full epoch (tick + upgrades + downgrade) in ms.
    pub epoch_ms: Vec<f64>,
    /// Transfers scheduled and applied across all epochs.
    pub moves: u64,
    /// `VmHWM` from `/proc/self/status` in kB — a peak-RSS proxy
    /// (0 where unavailable).
    pub peak_rss_kb: u64,
    /// The DFS's own estimate of per-file statistics bookkeeping bytes.
    pub stats_memory_bytes: usize,
    /// Epoch fan-out width the run used.
    pub threads: usize,
    /// FNV-1a digest over every downgrade decision of the run: per epoch,
    /// the epoch index, the number of planned transfers, and each victim's
    /// file id in planned order. Runs differing only in `threads` must
    /// produce the same digest — the bench sweep asserts it.
    pub digest: u64,
}

impl ScaleReport {
    /// Mean epoch latency in milliseconds.
    pub fn mean_epoch_ms(&self) -> f64 {
        self.epoch_ms.iter().sum::<f64>() / self.epoch_ms.len().max(1) as f64
    }

    /// Worst epoch latency in milliseconds.
    pub fn max_epoch_ms(&self) -> f64 {
        self.epoch_ms.iter().copied().fold(0.0, f64::max)
    }
}

/// One FNV-1a step folding a `u64` into the digest byte by byte.
fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Peak resident set size in kB (`VmHWM`), or 0 when the platform has no
/// procfs.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

/// A cluster whose memory tier ends ingest at ~92% (above the 90% start
/// threshold), with every file a single 1 MB block.
fn scale_dfs(files: u64) -> TieredDfs {
    let workers = 16u64;
    let mem_per_node = ByteSize::mb((files.div_ceil(workers) * 100).div_ceil(92) + 8);
    TieredDfs::new(DfsConfig {
        workers: workers as u32,
        replication: 1,
        block_size: ByteSize::mb(1),
        tier_capacity: PerTier::from_fn(|t| match t {
            StorageTier::Memory => mem_per_node,
            StorageTier::Ssd => ByteSize::mb(files.div_ceil(workers) * 2 + 64),
            StorageTier::Hdd => ByteSize::gb(256),
        }),
        ..DfsConfig::default()
    })
    .expect("valid scale config")
}

/// Runs the scale workload and reports throughput and epoch latencies.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let mut dfs = scale_dfs(cfg.files);
    // Keep the trigger re-armable at steady state: each epoch's upgrades
    // must push utilization back over `start_threshold`.
    let tiering = TieringConfig {
        start_threshold: 0.90,
        stop_threshold: 0.895,
        ..TieringConfig::default()
    };
    let mut engine = TieringEngine::new(
        Some(downgrade_policy("xgb", &tiering, &Default::default(), cfg.seed).expect("xgb exists")),
        None,
    );
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let pool = EpochPool::new(cfg.threads);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;

    // ------------------------------------------------------------ ingest
    let t0 = Instant::now();
    for i in 0..cfg.files {
        let now = SimTime::from_millis(i);
        let plan = dfs
            .create_file(&format!("/scale/f{i}"), ByteSize::mb(1), now)
            .expect("tiers sized to hold the namespace");
        dfs.commit_file(plan.file, now).expect("fresh file");
        engine.notify_created(&dfs, plan.file, now);
    }
    let ingest_secs = t0.elapsed().as_secs_f64();
    assert!(
        dfs.tier_utilization(StorageTier::Memory) > 0.90,
        "ingest must overfill the memory tier"
    );

    // ------------------------------------------------------------ epochs
    let mut epoch_ms = Vec::with_capacity(cfg.epochs as usize);
    let mut moves = 0u64;
    let mut accesses = 0u64;
    let mut access_secs = 0.0f64;
    for epoch in 0..cfg.epochs {
        let now = SimTime::from_millis(cfg.files + u64::from(epoch) * 60_000);

        // 1. A batch of uniform-random accesses over the committed files,
        //    resolved rank -> file through the Fenwick index.
        let ta = Instant::now();
        let committed = dfs.committed_file_count();
        for _ in 0..cfg.accesses_per_epoch {
            let f = dfs
                .nth_committed_file(rng.index(committed))
                .expect("rank below committed count");
            dfs.record_access(f, now).expect("committed file");
            engine.notify_accessed(&dfs, f, now);
        }
        access_secs += ta.elapsed().as_secs_f64();
        accesses += cfg.accesses_per_epoch;

        let te = Instant::now();
        // 2. The periodic tick: training-sample draws against the index.
        engine.tick(&dfs, now);

        // 3. Refill memory from the fastest lower tier so the downgrade
        //    trigger fires again (the first epoch skips this: ingest
        //    already overfilled memory and the SSD is still empty).
        let refill: Vec<_> = dfs
            .files_on_tier(StorageTier::Ssd)
            .filter(|f| !dfs.file_on_tier(*f, StorageTier::Memory))
            .take(cfg.upgrades_per_epoch as usize)
            .collect();
        for f in refill {
            if let Ok(id) = dfs.plan_upgrade(f, StorageTier::Memory) {
                dfs.complete_transfer(id).expect("planned upgrade");
                moves += 1;
            }
        }

        // 4. One Algorithm-1 downgrade epoch, transfers applied inline.
        let planned = engine.run_downgrade_pooled(&mut dfs, StorageTier::Memory, now, &pool);
        moves += planned.len() as u64;
        digest = fnv1a_u64(digest, u64::from(epoch));
        digest = fnv1a_u64(digest, planned.len() as u64);
        for id in planned {
            let t = dfs.complete_transfer(id).expect("planned downgrade");
            digest = fnv1a_u64(digest, t.file.raw());
        }
        epoch_ms.push(te.elapsed().as_secs_f64() * 1e3);
    }

    ScaleReport {
        files: cfg.files,
        epochs: cfg.epochs,
        ingest_secs,
        ingest_files_per_sec: cfg.files as f64 / ingest_secs.max(1e-9),
        accesses,
        accesses_per_sec: accesses as f64 / access_secs.max(1e-9),
        epoch_ms,
        moves,
        peak_rss_kb: peak_rss_kb(),
        stats_memory_bytes: dfs.stats_memory_bytes(),
        threads: cfg.threads,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_moves_data_every_phase() {
        let report = run_scale(&ScaleConfig {
            files: 20_000,
            epochs: 4,
            accesses_per_epoch: 500,
            upgrades_per_epoch: 150,
            seed: 7,
            threads: 1,
        });
        assert_eq!(report.files, 20_000);
        assert_eq!(report.epoch_ms.len(), 4);
        assert!(report.moves > 0, "epochs must schedule transfers");
        assert!(report.ingest_files_per_sec > 0.0);
        assert!(report.mean_epoch_ms() >= 0.0);
        assert!(report.stats_memory_bytes > 0);
    }

    #[test]
    fn scale_digest_is_thread_count_invariant() {
        let base = ScaleConfig {
            files: 20_000,
            epochs: 4,
            accesses_per_epoch: 500,
            upgrades_per_epoch: 150,
            seed: 7,
            threads: 1,
        };
        let serial = run_scale(&base);
        assert_ne!(serial.digest, 0xcbf2_9ce4_8422_2325, "digest never mixed");
        for threads in [4usize, 16] {
            let pooled = run_scale(&base.clone().with_threads(threads));
            assert_eq!(
                pooled.digest, serial.digest,
                "scale run digest diverged at {threads} threads"
            );
            assert_eq!(pooled.moves, serial.moves);
        }
    }
}
