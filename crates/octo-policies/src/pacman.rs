//! PACMan's eviction policies: LIFE and LFU-F (paper Table 1, \[5\]).
//!
//! Both partition the candidate files into `P_old` (not used within a time
//! window, default 9 h) and `P_new` (the rest):
//!
//! * **LIFE** (minimizes average job completion time): evict the LFU file
//!   from `P_old`; if `P_old` is empty, evict the *largest* file of `P_new`
//!   — large files contribute least to the all-or-nothing wave-width of
//!   small jobs.
//! * **LFU-F** (maximizes cluster efficiency): evict the LFU file from
//!   `P_old`; if empty, the LFU file from `P_new`.
//!
//! Because the per-tier recency index is ordered by last use, `P_old` is a
//! *prefix* of the index walk and `P_new` the remaining suffix, so one
//! pass over each shard's slice classifies it into both.

use crate::classic::{access_count, last_used};
use crate::framework::{effective_utilization, DowngradePolicy, TieringConfig};
use crate::parallel::{Candidate, PhasePlan, ScanBatch};
use octo_common::{ByteSize, FileId, SimDuration, SimTime, StorageTier};
use octo_dfs::{EpochPool, ShardEpochPlan, TieredDfs};

fn file_size(dfs: &TieredDfs, f: FileId) -> ByteSize {
    dfs.file_meta(f).map_or(ByteSize::ZERO, |m| m.size)
}

/// The scan shared by LIFE and LFU-F. Old/new membership is frozen
/// within a run (`now` and the index's last-use times do not move), so
/// each shard classifies its recency slice once into a `P_old` and a
/// `P_new` batch; the driver exhausts the merged `P_old` phase before
/// touching `P_new`. `P_old` goes least frequently used first; `new_key`
/// is the ascending `P_new` order (descending components
/// bitwise-complemented).
fn pacman_scan_phases(
    pool: &EpochPool,
    dfs: &TieredDfs,
    tier: StorageTier,
    now: SimTime,
    window: SimDuration,
    new_key: impl Fn(&TieredDfs, FileId) -> [u64; 3] + Sync,
) -> Vec<PhasePlan> {
    let pairs = pool.scan_shards(dfs, |v| {
        let dfs = v.dfs();
        let mut old = Vec::new();
        let mut new = Vec::new();
        for (last, f) in v.tier_recency_iter(tier) {
            if !dfs.is_movable(f) {
                continue;
            }
            if now.duration_since(last) > window {
                let key = [access_count(dfs, f), last.as_millis(), f.raw()];
                old.push(Candidate::keyed(key, f));
            } else {
                new.push(Candidate::keyed(new_key(dfs, f), f));
            }
        }
        (ScanBatch::sorted(old), ScanBatch::sorted(new))
    });
    let (old, new) = pairs
        .into_iter()
        .map(|p| {
            let (o, n) = p.items;
            (
                ShardEpochPlan {
                    shard: p.shard,
                    items: o,
                },
                ShardEpochPlan {
                    shard: p.shard,
                    items: n,
                },
            )
        })
        .unzip();
    vec![
        PhasePlan {
            window: 1,
            shards: old,
        },
        PhasePlan {
            window: 1,
            shards: new,
        },
    ]
}

/// PACMan LIFE.
#[derive(Debug, Clone)]
pub struct LifeDowngrade {
    cfg: TieringConfig,
}

impl LifeDowngrade {
    /// LIFE with the window from the config.
    pub fn new(cfg: TieringConfig) -> Self {
        LifeDowngrade { cfg }
    }
}

impl DowngradePolicy for LifeDowngrade {
    fn name(&self) -> &'static str {
        "life"
    }

    fn start_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) > self.cfg.start_threshold
    }

    fn stop_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) < self.cfg.stop_threshold
    }

    fn scan_phases(
        &self,
        pool: &EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
    ) -> Vec<PhasePlan> {
        // P_new: the largest file first, ties on ascending id.
        pacman_scan_phases(pool, dfs, tier, now, self.cfg.pacman_window, |dfs, f| {
            [!file_size(dfs, f).as_bytes(), f.raw(), 0]
        })
    }
}

/// PACMan LFU-F.
#[derive(Debug, Clone)]
pub struct LfuFDowngrade {
    cfg: TieringConfig,
}

impl LfuFDowngrade {
    /// LFU-F with the window from the config.
    pub fn new(cfg: TieringConfig) -> Self {
        LfuFDowngrade { cfg }
    }
}

impl DowngradePolicy for LfuFDowngrade {
    fn name(&self) -> &'static str {
        "lfu-f"
    }

    fn start_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) > self.cfg.start_threshold
    }

    fn stop_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) < self.cfg.stop_threshold
    }

    fn scan_phases(
        &self,
        pool: &EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
    ) -> Vec<PhasePlan> {
        // P_new: the LFU file first, the same key as P_old.
        pacman_scan_phases(pool, dfs, tier, now, self.cfg.pacman_window, |dfs, f| {
            [access_count(dfs, f), last_used(dfs, f).as_millis(), f.raw()]
        })
    }
}
