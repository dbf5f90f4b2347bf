//! Parallel epoch fan-out: a fixed-size worker pool over the shard space,
//! shard-local read views, and the per-shard result type the merge phase
//! consumes.
//!
//! The DFS core is partitioned into [`SHARD_COUNT`] shards whose ordered
//! indexes individually preserve the global iteration orders
//! ([`crate::shard`]). That makes an epoch's read-heavy work — policy
//! candidate evaluation, weight/stats decay at selection time, repair
//! candidate filtering — *embarrassingly parallel*: each shard can be
//! scanned by a different worker thread with nothing but `&TieredDfs`,
//! and the per-shard results are then merged **in shard order** with the
//! order-preserving [`MergeAsc`]/[`MergeDesc`] merges, so the merged
//! output is byte-identical at any thread count.
//!
//! The split/merge contract every parallel epoch path follows:
//!
//! 1. **Scan (parallel, read-only).** [`EpochPool::scan_shards`] runs one
//!    closure per shard over a [`ShardView`] and collects one
//!    [`ShardEpochPlan`] per shard, always returned in ascending shard
//!    order regardless of which worker finished first.
//! 2. **Merge + commit (serial, deterministic).** The caller k-way merges
//!    the per-shard plans back into the global order and applies mutations
//!    (`plan_downgrade`, `plan_repair`, …) one at a time. Because a file
//!    lives in exactly one shard and each shard's slice is already in the
//!    global key order, the merge reproduces the single-threaded iteration
//!    order bit for bit — thread scheduling can only change *when* a slice
//!    is produced, never *what* it contains or where it lands.
//!
//! Worked example — the downgrade split in `octo-policies` scans each
//! shard's LRU slice in parallel, then consumes the merged stream
//! serially:
//!
//! ```
//! use octo_dfs::{EpochPool, ShardEpochPlan, TieredDfs, DfsConfig};
//! use octo_dfs::shard::MergeAsc;
//! use octo_common::StorageTier;
//!
//! let dfs = TieredDfs::new(DfsConfig::default()).unwrap();
//! let pool = EpochPool::new(4);
//! // Scan: one worker per shard, read-only, shard-ordered results.
//! let plans: Vec<ShardEpochPlan<Vec<_>>> = pool.scan_shards(&dfs, |view| {
//!     view.tier_recency_iter(StorageTier::Memory).collect()
//! });
//! // Merge: per-shard slices are each (last_used, file)-ascending, so the
//! // k-way merge is exactly the global LRU order a serial walk produces.
//! let merged: Vec<_> =
//!     MergeAsc::new(plans.iter().map(|p| p.items.iter().copied())).collect();
//! assert_eq!(merged, dfs.tier_recency_iter(StorageTier::Memory).collect::<Vec<_>>());
//! ```
//!
//! [`SHARD_COUNT`]: crate::shard::SHARD_COUNT
//! [`MergeAsc`]: crate::shard::MergeAsc
//! [`MergeDesc`]: crate::shard::MergeDesc

use crate::dfs::TieredDfs;
use crate::shard::SHARD_COUNT;
use octo_common::{FileId, SimTime, StorageTier};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-size worker pool for epoch fan-outs.
///
/// The pool's *size* (worker-thread count) is fixed at construction; the
/// workers themselves are spawned inside a [`std::thread::scope`] per
/// fan-out so they may borrow the DFS directly — the same pattern the
/// scenario-matrix runner proved out. Spawn cost is tens of microseconds
/// per worker, noise against a multi-millisecond epoch; in exchange the
/// pool needs no `unsafe`, no channels, and no `'static` bounds.
///
/// A pool of one thread runs every scan inline on the calling thread, in
/// shard order — the serial path is the degenerate case, not a separate
/// code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochPool {
    threads: usize,
}

impl Default for EpochPool {
    fn default() -> Self {
        EpochPool::serial()
    }
}

impl EpochPool {
    /// A pool of `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        EpochPool {
            threads: threads.max(1),
        }
    }

    /// The single-threaded pool: fan-outs run inline, in shard order.
    pub fn serial() -> Self {
        EpochPool { threads: 1 }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when fan-outs run inline on the calling thread.
    fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Runs `scan` once per shard — read-only, possibly concurrently — and
    /// returns the per-shard results **in ascending shard order**,
    /// independent of thread interleaving.
    ///
    /// Workers pull shard indices from a shared counter, so an uneven
    /// shard (one holding most of a tier's residents) does not serialize
    /// the rest of the fan-out behind it.
    pub fn scan_shards<T, F>(&self, dfs: &TieredDfs, scan: F) -> Vec<ShardEpochPlan<T>>
    where
        T: Send,
        F: Fn(ShardView<'_>) -> T + Sync,
    {
        if self.is_serial() {
            return (0..SHARD_COUNT)
                .map(|shard| ShardEpochPlan {
                    shard,
                    items: scan(ShardView { dfs, shard }),
                })
                .collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..SHARD_COUNT).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(SHARD_COUNT) {
                scope.spawn(|| loop {
                    let shard = next.fetch_add(1, Ordering::Relaxed);
                    if shard >= SHARD_COUNT {
                        break;
                    }
                    let out = scan(ShardView { dfs, shard });
                    *slots[shard].lock().expect("scan slot lock") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(shard, slot)| ShardEpochPlan {
                shard,
                items: slot
                    .into_inner()
                    .expect("scan slot lock")
                    .expect("every shard scanned"),
            })
            .collect()
    }
}

/// A read-only view of one shard's slice of the DFS: the shard-scoped
/// iterators a scan worker consumes, plus the global per-file tables
/// (stats, metadata, movability) that are safely shared because the scan
/// phase takes no locks and performs no mutation.
#[derive(Clone, Copy)]
pub struct ShardView<'a> {
    dfs: &'a TieredDfs,
    shard: usize,
}

impl<'a> ShardView<'a> {
    /// The shard this view covers.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The whole DFS, for per-file lookups (`file_stats`, `file_meta`,
    /// `is_movable`, …) that are dense-arena reads rather than shard
    /// iterations.
    pub fn dfs(&self) -> &'a TieredDfs {
        self.dfs
    }

    /// This shard's slice of the per-tier LRU ordering, `(last_used,
    /// file)` ascending — one leg of the global
    /// [`TieredDfs::tier_recency_iter`] merge.
    pub fn tier_recency_iter(
        &self,
        tier: StorageTier,
    ) -> impl Iterator<Item = (SimTime, FileId)> + 'a {
        self.dfs.shard_tier_recency_iter(self.shard, tier)
    }

    /// Like [`ShardView::tier_recency_iter`], resuming strictly after a
    /// previously-returned entry (an O(log n) range seek).
    pub fn tier_recency_iter_after(
        &self,
        tier: StorageTier,
        after: Option<(SimTime, FileId)>,
    ) -> impl Iterator<Item = (SimTime, FileId)> + 'a {
        self.dfs
            .shard_tier_recency_iter_after(self.shard, tier, after)
    }

    /// This shard's files with at least one replica on `tier`, ascending
    /// by id — one leg of the global [`TieredDfs::files_on_tier`] merge.
    pub fn files_on_tier(&self, tier: StorageTier) -> impl Iterator<Item = FileId> + 'a {
        self.dfs.shard_files_on_tier(self.shard, tier)
    }

    /// This shard's under-replicated files as `(file, deficient blocks)`,
    /// ascending by id — one leg of the degraded-set merge behind
    /// [`TieredDfs::under_redundant_files`].
    pub fn degraded_files(&self) -> impl Iterator<Item = (FileId, u32)> + 'a {
        self.dfs.shard_degraded_files(self.shard)
    }
}

/// One shard's result from an epoch fan-out: the payload a scan closure
/// produced for that shard, tagged with the shard index. The scan always
/// returns these in ascending shard order, so a k-way merge over
/// `plans.iter().map(|p| p.items...)` consumes shard legs in exactly the
/// order the global merged iterators do.
#[derive(Debug, Clone)]
pub struct ShardEpochPlan<T> {
    /// Which shard `items` covers.
    pub shard: usize,
    /// What the scan produced for this shard.
    pub items: T,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfsConfig;
    use octo_common::ByteSize;

    fn dfs_with_files(n: u64) -> TieredDfs {
        let mut dfs = TieredDfs::new(DfsConfig::default()).expect("default config");
        for i in 0..n {
            let t = SimTime::from_millis(i);
            let plan = dfs
                .create_file(&format!("/f{i}"), ByteSize::mb(1), t)
                .expect("room");
            dfs.commit_file(plan.file, t).expect("fresh");
        }
        dfs
    }

    #[test]
    fn scan_results_arrive_in_shard_order_at_any_thread_count() {
        let dfs = dfs_with_files(100);
        let serial = EpochPool::serial().scan_shards(&dfs, |v| {
            v.tier_recency_iter(StorageTier::Memory).collect::<Vec<_>>()
        });
        for threads in [2, 4, 16, 32] {
            let parallel = EpochPool::new(threads).scan_shards(&dfs, |v| {
                v.tier_recency_iter(StorageTier::Memory).collect::<Vec<_>>()
            });
            assert_eq!(parallel.len(), SHARD_COUNT);
            for (s, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(a.shard, s);
                assert_eq!(b.shard, s);
                assert_eq!(a.items, b.items, "shard {s} differs at {threads} threads");
            }
        }
    }

    #[test]
    fn merged_shard_views_reproduce_global_iterators() {
        use crate::shard::MergeAsc;
        let dfs = dfs_with_files(64);
        let plans = EpochPool::new(3).scan_shards(&dfs, |v| {
            v.files_on_tier(StorageTier::Memory).collect::<Vec<_>>()
        });
        let merged: Vec<FileId> =
            MergeAsc::new(plans.iter().map(|p| p.items.iter().copied())).collect();
        let global: Vec<FileId> = dfs.files_on_tier(StorageTier::Memory).collect();
        assert_eq!(merged, global);
    }

    #[test]
    fn pool_clamps_to_one_thread() {
        assert!(EpochPool::new(0).is_serial());
        assert_eq!(EpochPool::new(0).threads(), 1);
        assert_eq!(EpochPool::default(), EpochPool::serial());
    }
}
