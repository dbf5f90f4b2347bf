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

use crate::classic::{access_count, lfu_key};
use crate::framework::{DowngradePolicy, TieringConfig};
use crate::parallel::{Candidate, PhasePlan, ScanBatch};
use octo_common::{FileId, SimDuration, SimTime, StorageTier};
use octo_dfs::{EpochPool, ShardEpochPlan, TieredDfs};

/// LIFE / LFU-F old-file window (§5.2, e.g. 9 hours).
const PACMAN_WINDOW: SimDuration = SimDuration::from_hours(9);

/// LIFE's `P_new` order: the largest file first, ties on ascending id.
fn largest_first(dfs: &TieredDfs, f: FileId) -> [u64; 3] {
    let size = dfs.file_meta(f).map_or(0, |m| m.size.as_bytes());
    [!size, f.raw(), 0]
}

/// PACMan LIFE or LFU-F: the two differ only in the `P_new` order.
#[derive(Debug, Clone)]
pub struct PacmanDowngrade {
    cfg: TieringConfig,
    name: &'static str,
    /// The ascending `P_new` order (descending components
    /// bitwise-complemented).
    new_key: fn(&TieredDfs, FileId) -> [u64; 3],
}

impl PacmanDowngrade {
    /// LIFE, with the window from the config: `P_new` evicts the largest
    /// file first.
    pub fn life(cfg: TieringConfig) -> Self {
        PacmanDowngrade {
            cfg,
            name: "life",
            new_key: largest_first,
        }
    }

    /// LFU-F, with the window from the config: `P_new` evicts the least
    /// frequently used file first, the same order as `P_old`.
    pub fn lfu_f(cfg: TieringConfig) -> Self {
        PacmanDowngrade {
            cfg,
            name: "lfu-f",
            new_key: lfu_key,
        }
    }
}

impl DowngradePolicy for PacmanDowngrade {
    fn name(&self) -> &'static str {
        self.name
    }

    fn tiering(&self) -> &TieringConfig {
        &self.cfg
    }

    /// Old/new membership is frozen within a run (`now` and the index's
    /// last-use times do not move), so each shard classifies its recency
    /// slice once into a `P_old` and a `P_new` batch; the driver exhausts
    /// the merged `P_old` phase before touching `P_new`. `P_old` goes
    /// least frequently used first.
    fn scan_phases(
        &self,
        pool: &EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
    ) -> Vec<PhasePlan> {
        let pairs = pool.scan_shards(dfs, |v| {
            let dfs = v.dfs();
            let mut old = Vec::new();
            let mut new = Vec::new();
            for (last, f) in v.tier_recency_iter(tier) {
                if !dfs.is_movable(f) {
                    continue;
                }
                if now.duration_since(last) > PACMAN_WINDOW {
                    let key = [access_count(dfs, f), last.as_millis(), f.raw()];
                    old.push(Candidate::keyed(key, f));
                } else {
                    new.push(Candidate::keyed((self.new_key)(dfs, f), f));
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
}
