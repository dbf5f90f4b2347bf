//! Classic eviction policies: LRU and LFU (paper Table 1).

use crate::framework::{DowngradePolicy, TieringConfig, UpgradePolicy};
use crate::parallel::{
    exhaustive_phase, shard_budget, victim_hint, Candidate, PhasePlan, ScanBatch,
};
use octo_common::{FileId, SimTime, StorageTier};
use octo_dfs::{EpochPool, TieredDfs};

/// The time a file counts as "last used": its last access, or its creation
/// for never-accessed files.
pub(crate) fn last_used(dfs: &TieredDfs, file: FileId) -> SimTime {
    dfs.file_stats(file)
        .map(|s| s.last_access().unwrap_or(s.created))
        .unwrap_or(SimTime::ZERO)
}

pub(crate) fn access_count(dfs: &TieredDfs, file: FileId) -> u64 {
    dfs.file_stats(file).map_or(0, |s| s.total_accesses)
}

/// The least-frequently-used order: ascending (access count, last use, id).
pub(crate) fn lfu_key(dfs: &TieredDfs, file: FileId) -> [u64; 3] {
    [
        access_count(dfs, file),
        last_used(dfs, file).as_millis(),
        file.raw(),
    ]
}

/// One shard's slice of the LRU candidate stream: the first `budget`
/// movable entries of the shard's recency walk (resumed after `after`),
/// keyed by the walk order itself. Leaves a resume cursor when the budget
/// truncates the walk — the merge driver refills from it, so the budget
/// affects batch boundaries, never the victim sequence.
fn lru_scan_shard(
    dfs: &TieredDfs,
    shard: usize,
    tier: StorageTier,
    after: Option<(SimTime, FileId)>,
    budget: usize,
) -> ScanBatch {
    let mut candidates = Vec::new();
    for (t, f) in dfs.shard_tier_recency_iter_after(shard, tier, after) {
        if !dfs.is_movable(f) {
            continue;
        }
        candidates.push(Candidate::keyed([t.as_millis(), f.raw(), 0], f));
        if candidates.len() == budget {
            return ScanBatch {
                candidates,
                resume: Some((t, f)),
            };
        }
    }
    ScanBatch {
        candidates,
        resume: None,
    }
}

/// Least Recently Used: downgrade the file used least recently.
#[derive(Debug, Clone)]
pub struct LruDowngrade {
    cfg: TieringConfig,
}

impl LruDowngrade {
    /// LRU with the given thresholds.
    pub fn new(cfg: TieringConfig) -> Self {
        LruDowngrade { cfg }
    }
}

impl DowngradePolicy for LruDowngrade {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn tiering(&self) -> &TieringConfig {
        &self.cfg
    }

    fn scan_phases(
        &self,
        pool: &EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        _now: SimTime,
    ) -> Vec<PhasePlan> {
        // Victim order == walk order, so shards scan with a budget and the
        // driver refills on demand (window 1: strict LRU priority).
        let budget = shard_budget(victim_hint(dfs, tier, self.cfg.stop_threshold), 1);
        let shards = pool.scan_shards(dfs, |v| {
            lru_scan_shard(v.dfs(), v.shard(), tier, None, budget)
        });
        vec![PhasePlan { window: 1, shards }]
    }

    fn rescan_shard(
        &self,
        dfs: &TieredDfs,
        tier: StorageTier,
        _now: SimTime,
        shard: usize,
        resume: (SimTime, FileId),
        budget: usize,
    ) -> ScanBatch {
        lru_scan_shard(dfs, shard, tier, Some(resume), budget)
    }
}

/// Least Frequently Used: downgrade the file with the fewest accesses.
#[derive(Debug, Clone)]
pub struct LfuDowngrade {
    cfg: TieringConfig,
}

impl LfuDowngrade {
    /// LFU with the given thresholds.
    pub fn new(cfg: TieringConfig) -> Self {
        LfuDowngrade { cfg }
    }
}

impl DowngradePolicy for LfuDowngrade {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn tiering(&self) -> &TieringConfig {
        &self.cfg
    }

    fn scan_phases(
        &self,
        pool: &EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        _now: SimTime,
    ) -> Vec<PhasePlan> {
        // Frequency has no maintained index, so the scan is exhaustive.
        vec![exhaustive_phase(pool, dfs, tier, 1, |dfs, f| {
            Some(Candidate::keyed(lfu_key(dfs, f), f))
        })]
    }
}

/// On Single Access: upgrade a file into memory when it is read and not
/// already there (paper Table 2): it admits every accessed file. Upgrades
/// from HDD to SSD are not allowed — the target is always the memory tier.
#[derive(Debug, Clone)]
pub struct OsaUpgrade;

impl UpgradePolicy for OsaUpgrade {
    fn name(&self) -> &'static str {
        "osa"
    }

    fn admits(&self, _dfs: &TieredDfs, _file: FileId, _now: SimTime) -> bool {
        true
    }
}
