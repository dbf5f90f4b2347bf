//! Transfer bookkeeping for the Replication Manager / Monitor (Figure 3).
//!
//! A [`Transfer`] is the unit the upgrade/downgrade policies schedule: all
//! block-level actions needed to move (or drop, or copy) one file's replicas
//! with respect to a tier. The DFS facade creates transfers two-phase —
//! space is reserved and source replicas flagged at *plan* time, and the
//! world is mutated at *completion* time — so the compute layer can overlap
//! transfer I/O with everything else.

use octo_common::{BlockId, ByteSize, FileId, NodeId, PerTier, StorageTier};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of an in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TransferId(pub u64);

impl std::fmt::Display for TransferId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xfer-{}", self.0)
    }
}

/// Why a transfer exists (drives which statistics it feeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferKind {
    /// Replica moving to a higher tier (or a cache copy being created).
    Upgrade,
    /// Replica moving to a lower tier (or being dropped).
    Downgrade,
    /// Re-replication of an under-replicated block (Replication Monitor
    /// repair after a node crash or disk loss).
    Repair,
}

/// One block-level action within a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockAction {
    /// Move the replica at `from` to `to`. Bytes cross devices (and the
    /// network when nodes differ).
    Move {
        /// Source replica location.
        from: (NodeId, StorageTier),
        /// Destination (space is reserved there while in flight).
        to: (NodeId, StorageTier),
    },
    /// Create an additional replica at `to`, reading from `from` (which
    /// stays). HDFS-cache style caching.
    Copy {
        /// Replica to read from.
        from: (NodeId, StorageTier),
        /// Destination of the new copy.
        to: (NodeId, StorageTier),
    },
    /// Delete the replica at `from`. No data moves.
    Drop {
        /// Replica to delete.
        from: (NodeId, StorageTier),
    },
    /// Write shard `index` of the block's erasure-coding stripe to `to`,
    /// reading the block from the replica at `from` (which a companion
    /// [`BlockAction::Drop`] removes once the stripe is complete). The
    /// transfer size is one shard, so striping a block into EC(k, m)
    /// moves `(k + m) / k` of its bytes instead of a full extra copy.
    EcWrite {
        /// Replica the encoder reads from.
        from: (NodeId, StorageTier),
        /// Destination device of the shard.
        to: (NodeId, StorageTier),
        /// Shard index: `0..k` data, `k..k+m` parity.
        index: u8,
    },
    /// Reconstruct the missing shard `index` of a stripe onto `to` from
    /// the `k` surviving shards (`from` is the reference survivor the flow
    /// model charges; the fan-in from the other `k - 1` shards runs in
    /// parallel across their devices).
    EcRebuild {
        /// The surviving shard anchoring the reconstruction read.
        from: (NodeId, StorageTier),
        /// Destination device of the rebuilt shard.
        to: (NodeId, StorageTier),
        /// Shard index being rebuilt.
        index: u8,
    },
    /// De-stripe: decode the whole block from its stripe (anchored at the
    /// shard `from`) and materialize a full replica at `to`. Completion
    /// deletes the stripe — upgrades out of an EC tier go back to
    /// replicated form.
    Unstripe {
        /// The shard anchoring the decode read.
        from: (NodeId, StorageTier),
        /// Destination of the reconstructed replica.
        to: (NodeId, StorageTier),
    },
}

impl BlockAction {
    /// Bytes that must cross devices for this action (zero for drops).
    pub fn moves_bytes(&self) -> bool {
        !matches!(self, BlockAction::Drop { .. })
    }

    /// The destination, if the action lands data somewhere.
    pub fn destination(&self) -> Option<(NodeId, StorageTier)> {
        match self {
            BlockAction::Move { to, .. }
            | BlockAction::Copy { to, .. }
            | BlockAction::EcWrite { to, .. }
            | BlockAction::EcRebuild { to, .. }
            | BlockAction::Unstripe { to, .. } => Some(*to),
            BlockAction::Drop { .. } => None,
        }
    }

    /// The source location the action reads from or removes.
    pub fn source(&self) -> (NodeId, StorageTier) {
        match self {
            BlockAction::Move { from, .. }
            | BlockAction::Copy { from, .. }
            | BlockAction::Drop { from }
            | BlockAction::EcWrite { from, .. }
            | BlockAction::EcRebuild { from, .. }
            | BlockAction::Unstripe { from, .. } => *from,
        }
    }
}

/// One block's part of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockTransfer {
    /// Block being acted on.
    pub block: BlockId,
    /// Size of that block.
    pub size: ByteSize,
    /// What happens to it.
    pub action: BlockAction,
}

/// A scheduled file-granularity replica transfer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Transfer {
    /// This transfer's id.
    pub id: TransferId,
    /// File whose replicas move.
    pub file: FileId,
    /// Upgrade or downgrade.
    pub kind: TransferKind,
    /// Per-block actions.
    pub blocks: Vec<BlockTransfer>,
}

impl Transfer {
    /// Total bytes that must physically move (drops excluded).
    pub fn bytes_moving(&self) -> ByteSize {
        self.blocks
            .iter()
            .filter(|b| b.action.moves_bytes())
            .map(|b| b.size)
            .sum()
    }
}

/// Cumulative movement statistics (feeds Table 4 and the efficiency
/// analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MovementStats {
    /// Bytes landed on each tier by upgrades.
    pub upgraded_to: PerTier<ByteSize>,
    /// Bytes landed on each tier by downgrades.
    pub downgraded_to: PerTier<ByteSize>,
    /// Bytes of replicas deleted from each tier.
    pub dropped_from: PerTier<ByteSize>,
    /// Bytes landed on each tier by repair re-replication.
    pub repaired_to: PerTier<ByteSize>,
    /// Bytes of erasure-coded shards rebuilt onto each tier by stripe
    /// reconstruction repair (disjoint from `repaired_to`).
    pub reconstructed_to: PerTier<ByteSize>,
    /// Completed transfer count.
    pub transfers_completed: u64,
    /// Cancelled transfer count.
    pub transfers_cancelled: u64,
    /// Completed repair-transfer count (also included in
    /// `transfers_completed`).
    pub repairs_completed: u64,
}

impl MovementStats {
    /// Total bytes re-replicated by repair transfers across all tiers.
    pub fn bytes_re_replicated(&self) -> ByteSize {
        self.repaired_to.iter().map(|(_, v)| *v).sum()
    }

    /// Total bytes of EC shards rebuilt by reconstruction repair.
    pub fn bytes_reconstructed(&self) -> ByteSize {
        self.reconstructed_to.iter().map(|(_, v)| *v).sum()
    }
}

/// Table of in-flight transfers.
///
/// Besides the transfers themselves the table incrementally maintains the
/// per-tier *pending* byte counters the tiering policies consult on every
/// decision: bytes scheduled to leave a tier (Move/Drop sources) and bytes
/// reserved to land on one (Move/Copy destinations). Counters are bumped at
/// plan time and settled at completion/cancellation, so reading them is
/// O(1) instead of a namespace scan.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TransferTable {
    next_id: u64,
    active: HashMap<TransferId, Transfer>,
    stats: MovementStats,
    /// Bytes scheduled to move off or be dropped from each tier.
    pending_outgoing: PerTier<ByteSize>,
    /// Bytes reserved to land on each tier by in-flight transfers.
    pending_incoming: PerTier<ByteSize>,
}

impl TransferTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a transfer, assigning its id.
    pub fn insert(
        &mut self,
        file: FileId,
        kind: TransferKind,
        blocks: Vec<BlockTransfer>,
    ) -> TransferId {
        let id = TransferId(self.next_id);
        self.next_id += 1;
        for bt in &blocks {
            match bt.action {
                BlockAction::Move { from, to } => {
                    *self.pending_outgoing.get_mut(from.1) += bt.size;
                    *self.pending_incoming.get_mut(to.1) += bt.size;
                }
                BlockAction::Copy { to, .. }
                | BlockAction::EcWrite { to, .. }
                | BlockAction::EcRebuild { to, .. }
                | BlockAction::Unstripe { to, .. } => {
                    *self.pending_incoming.get_mut(to.1) += bt.size;
                }
                BlockAction::Drop { from } => {
                    *self.pending_outgoing.get_mut(from.1) += bt.size;
                }
            }
        }
        self.active.insert(
            id,
            Transfer {
                id,
                file,
                kind,
                blocks,
            },
        );
        id
    }

    /// Settles the pending counters of a transfer leaving the table.
    fn release_pending(&mut self, t: &Transfer) {
        for bt in &t.blocks {
            match bt.action {
                BlockAction::Move { from, to } => {
                    let out = self.pending_outgoing.get_mut(from.1);
                    *out = out.saturating_sub(bt.size);
                    let inc = self.pending_incoming.get_mut(to.1);
                    *inc = inc.saturating_sub(bt.size);
                }
                BlockAction::Copy { to, .. }
                | BlockAction::EcWrite { to, .. }
                | BlockAction::EcRebuild { to, .. }
                | BlockAction::Unstripe { to, .. } => {
                    let inc = self.pending_incoming.get_mut(to.1);
                    *inc = inc.saturating_sub(bt.size);
                }
                BlockAction::Drop { from } => {
                    let out = self.pending_outgoing.get_mut(from.1);
                    *out = out.saturating_sub(bt.size);
                }
            }
        }
    }

    /// Bytes currently scheduled to move off or be dropped from `tier`.
    pub fn pending_outgoing(&self, tier: StorageTier) -> ByteSize {
        *self.pending_outgoing.get(tier)
    }

    /// Bytes currently reserved to land on `tier` by in-flight transfers.
    pub fn pending_incoming(&self, tier: StorageTier) -> ByteSize {
        *self.pending_incoming.get(tier)
    }

    /// The in-flight transfer with this id.
    pub fn get(&self, id: TransferId) -> Option<&Transfer> {
        self.active.get(&id)
    }

    /// Removes a transfer at completion, recording its statistics.
    pub fn complete(&mut self, id: TransferId) -> Option<Transfer> {
        let t = self.active.remove(&id)?;
        self.release_pending(&t);
        self.stats.transfers_completed += 1;
        if t.kind == TransferKind::Repair {
            self.stats.repairs_completed += 1;
        }
        for b in &t.blocks {
            match b.action {
                BlockAction::Move { to, .. }
                | BlockAction::Copy { to, .. }
                | BlockAction::EcWrite { to, .. }
                | BlockAction::Unstripe { to, .. } => {
                    let bucket = match t.kind {
                        TransferKind::Upgrade => self.stats.upgraded_to.get_mut(to.1),
                        TransferKind::Downgrade => self.stats.downgraded_to.get_mut(to.1),
                        TransferKind::Repair => self.stats.repaired_to.get_mut(to.1),
                    };
                    *bucket += b.size;
                }
                BlockAction::EcRebuild { to, .. } => {
                    *self.stats.reconstructed_to.get_mut(to.1) += b.size;
                }
                BlockAction::Drop { from } => {
                    *self.stats.dropped_from.get_mut(from.1) += b.size;
                }
            }
        }
        Some(t)
    }

    /// Ids of in-flight transfers with any block action whose source or
    /// destination sits on `node`, ascending — the transfers a node crash
    /// must cancel.
    pub fn ids_touching_node(&self, node: NodeId) -> Vec<TransferId> {
        let mut ids: Vec<TransferId> = self
            .active
            .values()
            .filter(|t| {
                t.blocks.iter().any(|bt| {
                    bt.action.source().0 == node
                        || bt.action.destination().is_some_and(|d| d.0 == node)
                })
            })
            .map(|t| t.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Ids of in-flight transfers touching the device `(node, tier)`,
    /// ascending — the transfers a disk loss must cancel.
    pub fn ids_touching_device(&self, node: NodeId, tier: StorageTier) -> Vec<TransferId> {
        let dev = (node, tier);
        let mut ids: Vec<TransferId> = self
            .active
            .values()
            .filter(|t| {
                t.blocks
                    .iter()
                    .any(|bt| bt.action.source() == dev || bt.action.destination() == Some(dev))
            })
            .map(|t| t.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Removes a transfer that was cancelled.
    pub fn cancel(&mut self, id: TransferId) -> Option<Transfer> {
        let t = self.active.remove(&id)?;
        self.release_pending(&t);
        self.stats.transfers_cancelled += 1;
        Some(t)
    }

    /// Number of in-flight transfers.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Cumulative movement statistics.
    pub fn stats(&self) -> &MovementStats {
        &self.stats
    }
}

/// The self-healing half of the Replication Monitor: schedules
/// re-replication of under-replicated files *and* reconstruction of
/// degraded erasure-coded stripes, bounded by one shared per-epoch byte
/// budget so repair traffic cannot starve the tiering policies. The two
/// repair flavors interleave deterministically: candidates come from the
/// same degraded set in ascending file id, and each file's plan is whatever
/// its blocks need (replica copies, shard rebuilds, or both).
///
/// Each epoch walks the DFS's incrementally-maintained degraded set in
/// ascending file id (deterministic) and plans one repair transfer per
/// file via [`crate::TieredDfs::plan_repair`] until the budget is spent.
/// The budget is a soft bound at file granularity: the transfer that
/// crosses it is still scheduled whole, so one oversized file cannot stall
/// repair forever.
///
/// Repair is protection-first and never trims: a dead replica whose node
/// recovers after the re-replication landed leaves the block with more
/// live replicas than the target. The excess stays visible in
/// `replication_report` (excess-replica pruning, as HDFS does it, is
/// future work).
#[derive(Debug, Clone, Copy)]
pub struct RepairPlanner {
    /// Byte budget per planning epoch.
    pub bandwidth_per_epoch: ByteSize,
}

impl RepairPlanner {
    /// A planner with the given per-epoch repair bandwidth.
    pub fn new(bandwidth_per_epoch: ByteSize) -> Self {
        RepairPlanner {
            bandwidth_per_epoch,
        }
    }

    /// Plans one epoch of repairs, returning the transfers scheduled.
    /// Files that cannot be repaired right now (a transfer already in
    /// flight, no live source, no placement) are skipped and retried on a
    /// later epoch.
    ///
    /// The candidate collection fans out over `pool`: each worker filters
    /// one shard's slice of the degraded set, the slices are merged back in
    /// shard order (ascending file id, the order of
    /// [`crate::TieredDfs::under_redundant_files`]), and the budget loop
    /// then runs serially. Byte-identical at any thread count.
    pub fn plan_epoch(
        &self,
        dfs: &mut crate::TieredDfs,
        pool: &crate::epoch::EpochPool,
    ) -> Vec<TransferId> {
        let shards = pool.scan_shards(dfs, |view| {
            view.dfs()
                .shard_under_redundant_files(view.shard())
                .collect::<Vec<FileId>>()
        });
        let candidates =
            crate::shard::MergeAsc::new(shards.iter().map(|p| p.items.iter().copied()));
        let mut budget = self.bandwidth_per_epoch;
        let mut planned = Vec::new();
        for file in candidates {
            if budget.is_zero() {
                break;
            }
            if let Ok(id) = dfs.plan_repair(file) {
                let bytes = dfs
                    .transfer(id)
                    .map(|t| t.bytes_moving())
                    .unwrap_or(ByteSize::ZERO);
                budget = budget.saturating_sub(bytes);
                planned.push(id);
            }
        }
        planned
    }
}

/// Replication monitor checks: blocks whose live replica count differs from
/// the target. Returns `(block, observed, target)` triples.
pub fn replication_report(
    blocks: impl Iterator<Item = (BlockId, usize)>,
    target: usize,
) -> Vec<(BlockId, usize, usize)> {
    blocks
        .filter(|(_, n)| *n != target)
        .map(|(b, n)| (b, n, target))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEM: StorageTier = StorageTier::Memory;
    const SSD: StorageTier = StorageTier::Ssd;

    fn mv(block: u64, size_mb: u64) -> BlockTransfer {
        BlockTransfer {
            block: BlockId(block),
            size: ByteSize::mb(size_mb),
            action: BlockAction::Move {
                from: (NodeId(0), MEM),
                to: (NodeId(0), SSD),
            },
        }
    }

    #[test]
    fn transfer_byte_accounting() {
        let t = Transfer {
            id: TransferId(0),
            file: FileId(0),
            kind: TransferKind::Downgrade,
            blocks: vec![
                mv(0, 128),
                BlockTransfer {
                    block: BlockId(1),
                    size: ByteSize::mb(64),
                    action: BlockAction::Drop {
                        from: (NodeId(1), MEM),
                    },
                },
            ],
        };
        assert_eq!(t.bytes_moving(), ByteSize::mb(128), "drops move nothing");
    }

    #[test]
    fn stats_accumulate_by_kind_and_tier() {
        let mut table = TransferTable::new();
        let id = table.insert(FileId(0), TransferKind::Downgrade, vec![mv(0, 128)]);
        assert_eq!(table.in_flight(), 1);
        table.complete(id).unwrap();
        assert_eq!(table.in_flight(), 0);
        assert_eq!(*table.stats().downgraded_to.get(SSD), ByteSize::mb(128));
        assert_eq!(*table.stats().upgraded_to.get(SSD), ByteSize::ZERO);
        assert_eq!(table.stats().transfers_completed, 1);

        let up = table.insert(
            FileId(1),
            TransferKind::Upgrade,
            vec![BlockTransfer {
                block: BlockId(2),
                size: ByteSize::mb(256),
                action: BlockAction::Copy {
                    from: (NodeId(0), StorageTier::Hdd),
                    to: (NodeId(0), MEM),
                },
            }],
        );
        table.complete(up).unwrap();
        assert_eq!(*table.stats().upgraded_to.get(MEM), ByteSize::mb(256));
    }

    #[test]
    fn pending_counters_track_plan_complete_cancel() {
        let mut table = TransferTable::new();
        let id = table.insert(
            FileId(0),
            TransferKind::Downgrade,
            vec![
                mv(0, 128), // MEM -> SSD
                BlockTransfer {
                    block: BlockId(1),
                    size: ByteSize::mb(64),
                    action: BlockAction::Drop {
                        from: (NodeId(1), MEM),
                    },
                },
                BlockTransfer {
                    block: BlockId(2),
                    size: ByteSize::mb(32),
                    action: BlockAction::Copy {
                        from: (NodeId(0), StorageTier::Hdd),
                        to: (NodeId(1), SSD),
                    },
                },
            ],
        );
        assert_eq!(table.pending_outgoing(MEM), ByteSize::mb(192), "move+drop");
        assert_eq!(table.pending_incoming(SSD), ByteSize::mb(160), "move+copy");
        assert_eq!(table.pending_outgoing(SSD), ByteSize::ZERO);
        assert_eq!(table.pending_incoming(MEM), ByteSize::ZERO);

        table.complete(id).unwrap();
        assert_eq!(table.pending_outgoing(MEM), ByteSize::ZERO);
        assert_eq!(table.pending_incoming(SSD), ByteSize::ZERO);

        let id2 = table.insert(FileId(1), TransferKind::Downgrade, vec![mv(3, 10)]);
        assert_eq!(table.pending_outgoing(MEM), ByteSize::mb(10));
        table.cancel(id2).unwrap();
        assert_eq!(table.pending_outgoing(MEM), ByteSize::ZERO);
        assert_eq!(table.pending_incoming(SSD), ByteSize::ZERO);
    }

    #[test]
    fn cancel_counts_separately() {
        let mut table = TransferTable::new();
        let id = table.insert(FileId(0), TransferKind::Upgrade, vec![mv(0, 10)]);
        table.cancel(id).unwrap();
        assert_eq!(table.stats().transfers_cancelled, 1);
        assert_eq!(table.stats().transfers_completed, 0);
        assert_eq!(*table.stats().upgraded_to.get(SSD), ByteSize::ZERO);
        assert!(table.complete(id).is_none());
    }

    #[test]
    fn action_accessors() {
        let a = BlockAction::Move {
            from: (NodeId(0), MEM),
            to: (NodeId(1), SSD),
        };
        assert!(a.moves_bytes());
        assert_eq!(a.destination(), Some((NodeId(1), SSD)));
        assert_eq!(a.source(), (NodeId(0), MEM));
        let d = BlockAction::Drop {
            from: (NodeId(2), MEM),
        };
        assert!(!d.moves_bytes());
        assert_eq!(d.destination(), None);
    }

    #[test]
    fn replication_report_flags_deviations() {
        let blocks = vec![
            (BlockId(0), 3usize),
            (BlockId(1), 2),
            (BlockId(2), 4),
            (BlockId(3), 3),
        ];
        let report = replication_report(blocks.into_iter(), 3);
        assert_eq!(report, vec![(BlockId(1), 2, 3), (BlockId(2), 4, 3)]);
    }
}
