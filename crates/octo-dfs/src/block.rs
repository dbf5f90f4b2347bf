//! The Block Manager: block → replica locations (Figure 3).
//!
//! Besides the per-block replica lists, the manager maintains an inverted
//! index `tier → files with at least one block replica on that tier`, which
//! is what downgrade policies enumerate when a tier fills up. Replicas that
//! are the *source* of an in-flight move are flagged `moving`: they remain
//! readable but cannot be selected for another transfer. Replicas hosted by
//! a crashed node are flagged `dead`: the bytes survive on disk but are
//! unreadable until the node recovers.
//!
//! The manager also tracks under-replication incrementally for the
//! Replication Monitor: every replica change refreshes the owning block's
//! deficiency (`live replicas < target`), and the per-shard `degraded`
//! maps hold the files with at least one deficient block — so "what needs
//! repair?" is a set walk, not a namespace scan.
//!
//! All per-file indexes are partitioned into [`SHARD_COUNT`] shards keyed
//! by [`shard_of`]`(file)` (see [`crate::shard`]): the per-tier inverted
//! index and the degraded map live per shard and are k-way merged on
//! iteration (same global order as the old single trees, bit for bit),
//! while per-file replica counts are dense per-shard arrays — an O(1)
//! lookup with no hashing. Aggregates that must answer in O(1)
//! (`fully_replicated`) are maintained globally at update time.

use crate::ec::{ShardLoc, Stripe, StripeManager};
use crate::shard::{shard_of, shard_slot, MergeAsc, SHARD_COUNT};
use octo_common::{BlockId, ByteSize, FileId, NodeId, OctoError, PerTier, Result, StorageTier};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One stored copy of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Replica {
    /// Node hosting the copy.
    pub node: NodeId,
    /// Tier of the device holding the copy.
    pub tier: StorageTier,
    /// True while this copy is the source of an in-flight transfer.
    pub moving: bool,
    /// True while the hosting node is down: the copy is unreadable and does
    /// not count toward the live replication factor.
    pub dead: bool,
}

/// Metadata of a single block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockInfo {
    /// This block's id.
    pub id: BlockId,
    /// Owning file.
    pub file: FileId,
    /// Position within the file (0-based).
    pub index: u32,
    /// Actual bytes in this block (the last block of a file may be short).
    pub size: ByteSize,
    replicas: Vec<Replica>,
    /// True while `live_replicas() < target` (maintained by the manager).
    deficient: bool,
}

impl BlockInfo {
    /// All replicas of this block, dead ones included.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// The replica on `(node, tier)`, if present.
    pub fn replica_at(&self, node: NodeId, tier: StorageTier) -> Option<&Replica> {
        self.replicas
            .iter()
            .find(|r| r.node == node && r.tier == tier)
    }

    /// The first live, non-moving replica on `tier`, if any.
    pub fn replica_on_tier(&self, tier: StorageTier) -> Option<&Replica> {
        self.replicas
            .iter()
            .find(|r| r.tier == tier && !r.moving && !r.dead)
    }

    /// Number of live (readable, possibly moving) replicas.
    pub fn live_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| !r.dead).count()
    }

    /// True when the block has no readable copy right now (it may still be
    /// recoverable if a dead replica's node comes back).
    pub fn is_unavailable(&self) -> bool {
        self.live_replicas() == 0
    }

    /// Nodes already holding a copy, dead ones included (placement must
    /// avoid them all: a recovering node would otherwise end up with two
    /// copies of the same block).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.replicas.iter().map(|r| r.node)
    }
}

/// One shard's slice of the per-file indexes: all bookkeeping for file
/// `f` lives in shard `shard_of(f)` and nowhere else.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct FileIndexShard {
    /// `tier -> files (of this shard) with >= 1 block replica on it`
    /// (ascending by id). Dead replicas count: the bytes still occupy the
    /// device.
    files_on_tier: PerTier<BTreeSet<FileId>>,
    /// Per-file per-tier replica counts, dense by [`shard_slot`]. Absent
    /// slots and all-zero rows mean "no replicas anywhere".
    tier_counts: Vec<PerTier<u32>>,
    /// `file -> number of blocks with live replicas < target`. Keys are
    /// the under-replicated files the Replication Monitor walks.
    degraded: BTreeMap<FileId, u32>,
}

/// The cluster-wide block catalog.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockManager {
    /// Dense block arena: slot `id` holds block `id`, deletions leave a
    /// hole. Ids are never reused.
    blocks: Vec<Option<BlockInfo>>,
    /// Number of live blocks (maintained, not scanned).
    live_blocks: usize,
    /// Per-file indexes, partitioned by `shard_of(file)`.
    shards: Vec<FileIndexShard>,
    /// Number of files with at least one deficient block, across all
    /// shards — the O(1) answer behind `fully_replicated`.
    degraded_total: usize,
    /// Live replicas per block must reach this target; 0 disables tracking.
    target: u32,
    /// Tiers of replicas a fault destroyed, per still-deficient block:
    /// repair prefers re-creating the copy on the tier it was lost from.
    /// Entries are dropped once the block is back at full replication.
    lost_tiers: HashMap<BlockId, Vec<StorageTier>>,
    /// Erasure-coding stripe metadata for blocks downgraded into an
    /// EC-configured tier. A striped block's deficiency is stripe-based
    /// (`live shards < k + m`) instead of replica-based, but feeds the
    /// same per-shard degraded maps — replication and reconstruction
    /// repair share one candidate walk.
    stripes: StripeManager,
}

impl Default for BlockManager {
    fn default() -> Self {
        BlockManager {
            blocks: Vec::new(),
            live_blocks: 0,
            shards: (0..SHARD_COUNT)
                .map(|_| FileIndexShard::default())
                .collect(),
            degraded_total: 0,
            target: 0,
            lost_tiers: HashMap::new(),
            stripes: StripeManager::new(),
        }
    }
}

impl BlockManager {
    /// An empty catalog with under-replication tracking disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty catalog flagging blocks with fewer than `target` live
    /// replicas as deficient.
    pub fn with_target(target: u32) -> Self {
        BlockManager {
            target,
            ..Self::default()
        }
    }

    /// Registers a new block (initially replica-less) and returns its id.
    pub fn create_block(&mut self, file: FileId, index: u32, size: ByteSize) -> BlockId {
        let id = BlockId(self.blocks.len() as u64);
        self.blocks.push(Some(BlockInfo {
            id,
            file,
            index,
            size,
            replicas: Vec::new(),
            deficient: false,
        }));
        self.live_blocks += 1;
        self.refresh_deficiency(id);
        id
    }

    /// Metadata of a live block.
    pub fn block(&self, id: BlockId) -> &BlockInfo {
        self.blocks[id.index()]
            .as_ref()
            .expect("block id refers to a deleted block")
    }

    fn block_mut(&mut self, id: BlockId) -> &mut BlockInfo {
        self.blocks[id.index()]
            .as_mut()
            .expect("block id refers to a deleted block")
    }

    /// Counts one more deficient block against `file` in its shard's
    /// degraded map (and the global file count on a 0 -> 1 transition).
    fn degrade_file(&mut self, file: FileId) {
        let n = self.shards[shard_of(file)]
            .degraded
            .entry(file)
            .or_insert(0);
        if *n == 0 {
            self.degraded_total += 1;
        }
        *n += 1;
    }

    /// Removes one deficient-block count from `file`, dropping it from the
    /// degraded map (and the global file count) at zero.
    fn undegrade_file(&mut self, file: FileId) {
        let shard = &mut self.shards[shard_of(file)];
        let n = shard
            .degraded
            .get_mut(&file)
            .expect("deficient block tracked");
        *n -= 1;
        if *n == 0 {
            shard.degraded.remove(&file);
            self.degraded_total -= 1;
        }
    }

    /// Re-evaluates one block's deficiency after a replica or shard change
    /// and keeps the per-file degraded index in sync. Striped blocks are
    /// deficient while any of their `k + m` shards is not live; everything
    /// else uses the live-replica target. O(replicas + shards) per call.
    fn refresh_deficiency(&mut self, block: BlockId) {
        if self.target == 0 {
            return;
        }
        let (file, was, now) = {
            let b = self.block(block);
            let now = match self.stripes.get(block) {
                Some(s) => !s.is_fully_redundant(),
                None => b.live_replicas() < self.target as usize,
            };
            (b.file, b.deficient, now)
        };
        if was == now {
            return;
        }
        self.block_mut(block).deficient = now;
        if now {
            self.degrade_file(file);
        } else {
            self.undegrade_file(file);
            // Fully replicated again: the loss record served its purpose.
            self.lost_tiers.remove(&block);
        }
    }

    /// Drops a deleted block's contribution to the degraded index.
    fn forget_deficiency(&mut self, file: FileId, was_deficient: bool) {
        if was_deficient {
            self.undegrade_file(file);
        }
    }

    fn bump_tier_count(&mut self, file: FileId, tier: StorageTier, delta: i32) {
        let shard = &mut self.shards[shard_of(file)];
        let slot = shard_slot(file);
        if slot >= shard.tier_counts.len() {
            shard.tier_counts.resize_with(slot + 1, PerTier::default);
        }
        let c = shard.tier_counts[slot].get_mut(tier);
        if delta > 0 {
            *c += delta as u32;
            if *c == delta as u32 {
                shard.files_on_tier.get_mut(tier).insert(file);
            }
        } else {
            debug_assert!(*c >= (-delta) as u32, "tier count underflow");
            *c = c.saturating_sub((-delta) as u32);
            if *c == 0 {
                shard.files_on_tier.get_mut(tier).remove(&file);
            }
        }
    }

    /// Adds a replica of `block` on `(node, tier)`.
    ///
    /// Fails if that exact device already holds a copy. Distinct *nodes* for
    /// fault tolerance are a placement concern, not enforced here: an HDFS
    /// cache copy deliberately lands on the node that already stores the
    /// disk replica (Figure 1a).
    pub fn add_replica(&mut self, block: BlockId, node: NodeId, tier: StorageTier) -> Result<()> {
        let file = {
            let b = self.block_mut(block);
            if b.replicas.iter().any(|r| r.node == node && r.tier == tier) {
                return Err(OctoError::InvalidState(format!(
                    "{node}/{tier} already holds a replica of {block}"
                )));
            }
            b.replicas.push(Replica {
                node,
                tier,
                moving: false,
                dead: false,
            });
            b.file
        };
        self.bump_tier_count(file, tier, 1);
        self.refresh_deficiency(block);
        Ok(())
    }

    /// Removes the replica of `block` at `(node, tier)`.
    pub fn remove_replica(
        &mut self,
        block: BlockId,
        node: NodeId,
        tier: StorageTier,
    ) -> Result<()> {
        let file = {
            let b = self.block_mut(block);
            let before = b.replicas.len();
            b.replicas.retain(|r| !(r.node == node && r.tier == tier));
            if b.replicas.len() == before {
                return Err(OctoError::NotFound(format!(
                    "no replica of {block} at {node}/{tier}"
                )));
            }
            b.file
        };
        self.bump_tier_count(file, tier, -1);
        self.refresh_deficiency(block);
        Ok(())
    }

    /// Relocates the replica at `(from_node, from_tier)` to
    /// `(to_node, to_tier)` and clears its moving flag (transfer landed).
    pub fn relocate_replica(
        &mut self,
        block: BlockId,
        from: (NodeId, StorageTier),
        to: (NodeId, StorageTier),
    ) -> Result<()> {
        let file = {
            let b = self.block_mut(block);
            // The destination node must not already hold a different copy.
            if to.0 != from.0 && b.replicas.iter().any(|r| r.node == to.0) {
                return Err(OctoError::InvalidState(format!(
                    "{} already holds a replica of {block}",
                    to.0
                )));
            }
            let r = b
                .replicas
                .iter_mut()
                .find(|r| r.node == from.0 && r.tier == from.1)
                .ok_or_else(|| {
                    OctoError::NotFound(format!("no replica of {block} at {}/{}", from.0, from.1))
                })?;
            r.node = to.0;
            r.tier = to.1;
            r.moving = false;
            b.file
        };
        self.bump_tier_count(file, from.1, -1);
        self.bump_tier_count(file, to.1, 1);
        Ok(())
    }

    /// Flags or clears the moving state of a replica.
    pub fn set_moving(
        &mut self,
        block: BlockId,
        node: NodeId,
        tier: StorageTier,
        moving: bool,
    ) -> Result<()> {
        let b = self.block_mut(block);
        let r = b
            .replicas
            .iter_mut()
            .find(|r| r.node == node && r.tier == tier)
            .ok_or_else(|| {
                OctoError::NotFound(format!("no replica of {block} at {node}/{tier}"))
            })?;
        r.moving = moving;
        Ok(())
    }

    /// Flags or clears the dead state of the replica at `(node, tier)`
    /// (node crashed / recovered). Space accounting is untouched: the bytes
    /// still occupy the device.
    pub fn set_dead(
        &mut self,
        block: BlockId,
        node: NodeId,
        tier: StorageTier,
        dead: bool,
    ) -> Result<()> {
        let b = self.block_mut(block);
        let r = b
            .replicas
            .iter_mut()
            .find(|r| r.node == node && r.tier == tier)
            .ok_or_else(|| {
                OctoError::NotFound(format!("no replica of {block} at {node}/{tier}"))
            })?;
        r.dead = dead;
        self.refresh_deficiency(block);
        Ok(())
    }

    /// Records that a fault destroyed a replica of `block` on `tier`, so
    /// repair can prefer re-creating it there. Only deficient blocks are
    /// recorded: losing a *surplus* replica (repair landed, then the dead
    /// node came back) needs no repair, and an entry for it would never be
    /// cleaned up by the deficient→healthy transition.
    pub fn note_lost_tier(&mut self, block: BlockId, tier: StorageTier) {
        if self.stripes.get(block).is_some() {
            // Striped blocks repair by rebuilding shards toward the
            // stripe's home tier, not by re-creating replicas.
            return;
        }
        if self.target > 0 && (self.block(block).live_replicas() as u32) < self.target {
            self.lost_tiers.entry(block).or_default().push(tier);
        }
    }

    /// Tiers this block lost replicas from (empty once fully replicated).
    pub fn lost_tiers(&self, block: BlockId) -> &[StorageTier] {
        self.lost_tiers.get(&block).map_or(&[], |v| v.as_slice())
    }

    // ------------------------------------------------------------------
    // Erasure-coding stripes
    // ------------------------------------------------------------------

    /// The stripe protecting `block`, if it was striped into an EC tier.
    pub fn stripe(&self, block: BlockId) -> Option<&Stripe> {
        self.stripes.get(block)
    }

    /// The stripe catalog (diagnostics, tests, repair statistics).
    pub fn stripes(&self) -> &StripeManager {
        &self.stripes
    }

    /// Creates the (initially shard-less) stripe for `block` if absent —
    /// the first landing shard write of a striping downgrade calls this.
    pub fn ensure_stripe(
        &mut self,
        block: BlockId,
        home: StorageTier,
        k: u8,
        m: u8,
        shard_size: ByteSize,
    ) {
        if self.stripes.get(block).is_none() {
            let file = self.block(block).file;
            self.stripes.insert(Stripe {
                block,
                file,
                home,
                k,
                m,
                shard_size,
                shards: Vec::new(),
            });
            self.refresh_deficiency(block);
        }
    }

    /// Adds (or supersedes) shard `loc.index` of `block`'s stripe, keeping
    /// the shard list ascending by index. When an earlier shard with the
    /// same index exists — a rebuild landing while the dead original waits
    /// for its node to return — the old shard is replaced and handed back
    /// so the caller can free its space.
    pub fn add_shard(&mut self, block: BlockId, loc: ShardLoc) -> Result<Option<ShardLoc>> {
        let (file, replaced) = {
            let s = self
                .stripes
                .get_mut(block)
                .ok_or_else(|| OctoError::NotFound(format!("{block} has no stripe")))?;
            if loc.index as usize >= s.total() {
                return Err(OctoError::InvalidArgument(format!(
                    "shard index {} out of range for EC({},{})",
                    loc.index, s.k, s.m
                )));
            }
            if s.shards
                .iter()
                .any(|sh| sh.node == loc.node && sh.index != loc.index)
            {
                return Err(OctoError::InvalidState(format!(
                    "{} already holds a shard of {block}",
                    loc.node
                )));
            }
            let file = s.file;
            let replaced = s
                .shards
                .iter()
                .position(|sh| sh.index == loc.index)
                .map(|p| s.shards.remove(p));
            let at = s
                .shards
                .iter()
                .position(|sh| sh.index > loc.index)
                .unwrap_or(s.shards.len());
            s.shards.insert(at, loc);
            (file, replaced)
        };
        if let Some(old) = replaced {
            self.bump_tier_count(file, old.tier, -1);
        }
        self.bump_tier_count(file, loc.tier, 1);
        self.refresh_deficiency(block);
        Ok(replaced)
    }

    /// Permanently removes the shard at `(node, index)` (device loss, or
    /// dropping a superseded copy on node recovery), returning it so the
    /// caller frees its space.
    pub fn remove_shard(&mut self, block: BlockId, node: NodeId, index: u8) -> Result<ShardLoc> {
        let (file, loc) = {
            let s = self
                .stripes
                .get_mut(block)
                .ok_or_else(|| OctoError::NotFound(format!("{block} has no stripe")))?;
            let pos = s
                .shards
                .iter()
                .position(|sh| sh.node == node && sh.index == index)
                .ok_or_else(|| {
                    OctoError::NotFound(format!("no shard {index} of {block} on {node}"))
                })?;
            (s.file, s.shards.remove(pos))
        };
        self.bump_tier_count(file, loc.tier, -1);
        self.refresh_deficiency(block);
        Ok(loc)
    }

    /// Flags or clears the dead state of the shard at `(node, index)`
    /// (node crashed / recovered). Space accounting is untouched: the
    /// bytes still occupy the device.
    pub fn set_shard_dead(
        &mut self,
        block: BlockId,
        node: NodeId,
        index: u8,
        dead: bool,
    ) -> Result<()> {
        let s = self
            .stripes
            .get_mut(block)
            .ok_or_else(|| OctoError::NotFound(format!("{block} has no stripe")))?;
        let sh = s
            .shards
            .iter_mut()
            .find(|sh| sh.node == node && sh.index == index)
            .ok_or_else(|| OctoError::NotFound(format!("no shard {index} of {block} on {node}")))?;
        sh.dead = dead;
        self.refresh_deficiency(block);
        Ok(())
    }

    /// Removes `block`'s whole stripe (de-striping on upgrade, or file
    /// deletion), returning it so the caller frees the shard space.
    /// Deficiency tracking reverts to the live-replica target.
    pub fn take_stripe(&mut self, block: BlockId) -> Option<Stripe> {
        let s = self.stripes.remove(block)?;
        for sh in &s.shards {
            self.bump_tier_count(s.file, sh.tier, -1);
        }
        self.refresh_deficiency(block);
        Some(s)
    }

    /// Every `(block, index, tier, dead)` stripe shard hosted by `node`,
    /// ascending by block id then index — the fault path's shard analog of
    /// [`BlockManager::replicas_on_node`].
    pub fn shards_on_node(&self, node: NodeId) -> Vec<(BlockId, u8, StorageTier, bool)> {
        self.stripes
            .iter()
            .flat_map(|s| {
                s.shards
                    .iter()
                    .filter(|sh| sh.node == node)
                    .map(|sh| (s.block, sh.index, sh.tier, sh.dead))
            })
            .collect()
    }

    /// True when the data of `block` is gone for good: no replica exists
    /// and no stripe retains at least `k` shards (dead ones included — a
    /// recovering node can still bring those back).
    pub fn block_is_lost(&self, block: BlockId) -> bool {
        self.block(block).replicas().is_empty()
            && self.stripes.get(block).is_none_or(|s| s.is_lost())
    }

    /// Cumulative count of stripe shard rebuilds completed by repair.
    pub fn stripes_rebuilt(&self) -> u64 {
        self.stripes.stripes_rebuilt()
    }

    /// Records one completed stripe shard rebuild.
    pub fn note_stripe_rebuilt(&mut self) {
        self.stripes.note_rebuilt();
    }

    /// Every `(block, tier, moving, dead)` replica hosted by `node`, in
    /// block-id order. A full catalog scan — fault events are rare enough
    /// that an extra per-node index is not worth its upkeep.
    pub fn replicas_on_node(&self, node: NodeId) -> Vec<(BlockId, StorageTier, bool, bool)> {
        self.blocks
            .iter()
            .flatten()
            .flat_map(|b| {
                b.replicas
                    .iter()
                    .filter(|r| r.node == node)
                    .map(|r| (b.id, r.tier, r.moving, r.dead))
            })
            .collect()
    }

    /// Files with at least one block whose live replica count is below the
    /// target, ascending by id. Incrementally maintained: no scan — a
    /// k-way merge over the per-shard degraded maps.
    pub fn degraded_files(&self) -> impl Iterator<Item = FileId> + '_ {
        MergeAsc::new(self.shards.iter().map(|s| s.degraded.keys().copied()))
    }

    /// True when no block anywhere is under-replicated. O(1): a globally
    /// maintained count over the per-shard degraded maps.
    pub fn fully_replicated(&self) -> bool {
        self.degraded_total == 0
    }

    /// Number of files with at least one under-replicated block. O(1).
    pub fn degraded_file_count(&self) -> usize {
        self.degraded_total
    }

    /// Deletes a block entirely, returning the replicas whose space must be
    /// freed.
    pub fn delete_block(&mut self, block: BlockId) -> Vec<Replica> {
        let info = self.blocks[block.index()]
            .take()
            .expect("deleting a dead block");
        self.live_blocks -= 1;
        self.forget_deficiency(info.file, info.deficient);
        self.lost_tiers.remove(&block);
        // Deleting a still-striped block (callers normally `take_stripe`
        // first to free the shard space) must not leak index entries.
        if let Some(s) = self.stripes.remove(block) {
            for sh in &s.shards {
                self.bump_tier_count(s.file, sh.tier, -1);
            }
        }
        for r in &info.replicas {
            self.bump_tier_count(info.file, r.tier, -1);
        }
        // The dense per-shard count rows simply return to all-zero; no
        // per-file entry needs dropping.
        info.replicas
    }

    /// True if `file` has at least one block replica on `tier`. O(1): a
    /// dense per-shard array lookup, no tree or hash probe.
    pub fn file_on_tier(&self, file: FileId, tier: StorageTier) -> bool {
        self.file_tier_count(file, tier) > 0
    }

    /// Number of block replicas `file` has on `tier`. O(1).
    pub fn file_tier_count(&self, file: FileId, tier: StorageTier) -> u32 {
        self.shards[shard_of(file)]
            .tier_counts
            .get(shard_slot(file))
            .map_or(0, |c| *c.get(tier))
    }

    /// Files with at least one block replica on `tier`, ascending by id: a
    /// k-way merge over the per-shard inverted indexes.
    pub fn files_on_tier(&self, tier: StorageTier) -> impl Iterator<Item = FileId> + '_ {
        MergeAsc::new(
            self.shards
                .iter()
                .map(move |s| s.files_on_tier.get(tier).iter().copied()),
        )
    }

    /// The number of index shards (diagnostics and property tests).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's slice of the per-tier inverted index, ascending by id
    /// (property tests cross-check shard placement and per-shard order).
    pub fn shard_files_on_tier(
        &self,
        shard: usize,
        tier: StorageTier,
    ) -> impl Iterator<Item = FileId> + '_ {
        self.shards[shard].files_on_tier.get(tier).iter().copied()
    }

    /// One shard's slice of the degraded map as `(file, deficient blocks)`,
    /// ascending by id.
    pub fn shard_degraded_files(&self, shard: usize) -> impl Iterator<Item = (FileId, u32)> + '_ {
        self.shards[shard].degraded.iter().map(|(f, n)| (*f, *n))
    }

    /// Number of live blocks. O(1): a maintained counter.
    pub fn live_blocks(&self) -> usize {
        self.live_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEM: StorageTier = StorageTier::Memory;
    const SSD: StorageTier = StorageTier::Ssd;
    const HDD: StorageTier = StorageTier::Hdd;

    #[test]
    fn replica_lifecycle_updates_tier_index() {
        let mut bm = BlockManager::new();
        let f = FileId(0);
        let b = bm.create_block(f, 0, ByteSize::mb(128));
        bm.add_replica(b, NodeId(0), MEM).unwrap();
        bm.add_replica(b, NodeId(1), SSD).unwrap();
        assert!(bm.file_on_tier(f, MEM));
        assert!(bm.file_on_tier(f, SSD));
        assert!(!bm.file_on_tier(f, HDD));
        assert_eq!(bm.file_tier_count(f, MEM), 1);

        bm.remove_replica(b, NodeId(0), MEM).unwrap();
        assert!(!bm.file_on_tier(f, MEM));
        assert_eq!(bm.files_on_tier(SSD).collect::<Vec<_>>(), vec![f]);
    }

    #[test]
    fn duplicate_device_rejected_but_cache_colocation_allowed() {
        let mut bm = BlockManager::new();
        let b = bm.create_block(FileId(0), 0, ByteSize::mb(128));
        bm.add_replica(b, NodeId(0), HDD).unwrap();
        // A cache copy on the same node, different tier, is legal.
        bm.add_replica(b, NodeId(0), MEM).unwrap();
        // The same device twice is not.
        let err = bm.add_replica(b, NodeId(0), MEM).unwrap_err();
        assert_eq!(err.kind(), "invalid_state");
    }

    #[test]
    fn relocate_moves_between_tiers() {
        let mut bm = BlockManager::new();
        let f = FileId(3);
        let b = bm.create_block(f, 0, ByteSize::mb(64));
        bm.add_replica(b, NodeId(0), MEM).unwrap();
        bm.set_moving(b, NodeId(0), MEM, true).unwrap();
        assert!(
            bm.block(b).replica_on_tier(MEM).is_none(),
            "moving replicas hidden"
        );

        bm.relocate_replica(b, (NodeId(0), MEM), (NodeId(0), SSD))
            .unwrap();
        assert!(!bm.file_on_tier(f, MEM));
        assert!(bm.file_on_tier(f, SSD));
        let r = bm.block(b).replica_at(NodeId(0), SSD).unwrap();
        assert!(!r.moving, "landing clears the moving flag");
    }

    #[test]
    fn relocate_rejects_node_collision() {
        let mut bm = BlockManager::new();
        let b = bm.create_block(FileId(0), 0, ByteSize::mb(64));
        bm.add_replica(b, NodeId(0), MEM).unwrap();
        bm.add_replica(b, NodeId(1), HDD).unwrap();
        let err = bm
            .relocate_replica(b, (NodeId(0), MEM), (NodeId(1), SSD))
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_state");
    }

    #[test]
    fn multi_block_file_counts() {
        let mut bm = BlockManager::new();
        let f = FileId(9);
        let b0 = bm.create_block(f, 0, ByteSize::mb(128));
        let b1 = bm.create_block(f, 1, ByteSize::mb(40));
        bm.add_replica(b0, NodeId(0), MEM).unwrap();
        bm.add_replica(b1, NodeId(1), MEM).unwrap();
        assert_eq!(bm.file_tier_count(f, MEM), 2);
        bm.remove_replica(b0, NodeId(0), MEM).unwrap();
        // Still on the tier through the second block.
        assert!(bm.file_on_tier(f, MEM));
        bm.remove_replica(b1, NodeId(1), MEM).unwrap();
        assert!(!bm.file_on_tier(f, MEM));
    }

    #[test]
    fn delete_block_returns_replicas_to_free() {
        let mut bm = BlockManager::new();
        let f = FileId(1);
        let b = bm.create_block(f, 0, ByteSize::mb(128));
        bm.add_replica(b, NodeId(0), MEM).unwrap();
        bm.add_replica(b, NodeId(2), HDD).unwrap();
        let freed = bm.delete_block(b);
        assert_eq!(freed.len(), 2);
        assert!(!bm.file_on_tier(f, MEM));
        assert_eq!(bm.live_blocks(), 0);
    }

    #[test]
    fn dead_flags_hide_replicas_and_track_deficiency() {
        let mut bm = BlockManager::with_target(2);
        let f = FileId(0);
        let b = bm.create_block(f, 0, ByteSize::mb(128));
        assert_eq!(
            bm.degraded_files().collect::<Vec<_>>(),
            vec![f],
            "a replica-less block is deficient"
        );
        bm.add_replica(b, NodeId(0), MEM).unwrap();
        bm.add_replica(b, NodeId(1), HDD).unwrap();
        assert!(bm.fully_replicated());

        bm.set_dead(b, NodeId(1), HDD, true).unwrap();
        assert!(bm.block(b).replica_on_tier(HDD).is_none(), "dead is hidden");
        assert_eq!(bm.block(b).live_replicas(), 1);
        assert_eq!(bm.degraded_files().collect::<Vec<_>>(), vec![f]);
        assert!(bm.file_on_tier(f, HDD), "dead bytes still occupy the tier");

        bm.set_dead(b, NodeId(1), HDD, false).unwrap();
        assert!(bm.fully_replicated());
        assert!(bm.block(b).replica_on_tier(HDD).is_some());
    }

    #[test]
    fn replicas_on_node_scans_the_catalog() {
        let mut bm = BlockManager::with_target(2);
        let b0 = bm.create_block(FileId(0), 0, ByteSize::mb(1));
        let b1 = bm.create_block(FileId(1), 0, ByteSize::mb(1));
        bm.add_replica(b0, NodeId(0), MEM).unwrap();
        bm.add_replica(b0, NodeId(1), HDD).unwrap();
        bm.add_replica(b1, NodeId(1), SSD).unwrap();
        let on_1 = bm.replicas_on_node(NodeId(1));
        assert_eq!(on_1, vec![(b0, HDD, false, false), (b1, SSD, false, false)]);
        assert_eq!(bm.replicas_on_node(NodeId(2)), vec![]);
    }

    #[test]
    fn delete_block_clears_deficiency() {
        let mut bm = BlockManager::with_target(3);
        let f = FileId(4);
        let b = bm.create_block(f, 0, ByteSize::mb(1));
        bm.add_replica(b, NodeId(0), MEM).unwrap();
        assert!(!bm.fully_replicated());
        bm.delete_block(b);
        assert!(bm.fully_replicated(), "deleted blocks stop counting");
    }

    #[test]
    fn stripe_lifecycle_feeds_degraded_set_and_tier_index() {
        let mut bm = BlockManager::with_target(3);
        let f = FileId(0);
        let b = bm.create_block(f, 0, ByteSize::mb(128));
        bm.add_replica(b, NodeId(0), SSD).unwrap();
        assert!(!bm.fully_replicated(), "1 < 3 live replicas");

        // Striping: once the stripe exists, deficiency is shard-based.
        bm.ensure_stripe(b, HDD, 2, 1, ByteSize::mb(64));
        assert!(!bm.fully_replicated(), "no shards landed yet");
        for i in 0..3u8 {
            bm.add_shard(
                b,
                ShardLoc {
                    node: NodeId(i as u32 + 1),
                    tier: HDD,
                    index: i,
                    dead: false,
                },
            )
            .unwrap();
        }
        assert!(bm.fully_replicated(), "k+m live shards despite one replica");
        assert_eq!(bm.file_tier_count(f, HDD), 3);

        // Kill a shard, then lose it for good.
        bm.set_shard_dead(b, NodeId(1), 0, true).unwrap();
        assert!(!bm.fully_replicated());
        bm.remove_shard(b, NodeId(1), 0).unwrap();
        assert_eq!(bm.file_tier_count(f, HDD), 2);
        assert!(!bm.block_is_lost(b), "k shards remain");
        bm.remove_replica(b, NodeId(0), SSD).unwrap();
        assert!(!bm.block_is_lost(b), "still k shards, no replica needed");
        bm.remove_shard(b, NodeId(2), 1).unwrap();
        assert!(bm.block_is_lost(b), "fewer than k shards, no replica");

        // De-striping clears the tier index and reverts to replica
        // tracking (0 < 3 live replicas: deficient).
        let s = bm.take_stripe(b).unwrap();
        assert_eq!(s.shards.len(), 1);
        assert_eq!(bm.file_tier_count(f, HDD), 0);
        assert!(!bm.fully_replicated());
    }

    #[test]
    fn shard_rebuild_supersedes_and_scans_by_node() {
        let mut bm = BlockManager::with_target(1);
        let b = bm.create_block(FileId(0), 0, ByteSize::mb(64));
        bm.ensure_stripe(b, HDD, 2, 1, ByteSize::mb(32));
        for i in 0..3u8 {
            bm.add_shard(
                b,
                ShardLoc {
                    node: NodeId(i as u32),
                    tier: HDD,
                    index: i,
                    dead: false,
                },
            )
            .unwrap();
        }
        // Two shards of one stripe on the same node is a placement bug.
        let err = bm
            .add_shard(
                b,
                ShardLoc {
                    node: NodeId(0),
                    tier: HDD,
                    index: 1,
                    dead: false,
                },
            )
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_state");

        // A rebuild of index 1 on a fresh node supersedes the original.
        bm.set_shard_dead(b, NodeId(1), 1, true).unwrap();
        let replaced = bm
            .add_shard(
                b,
                ShardLoc {
                    node: NodeId(3),
                    tier: HDD,
                    index: 1,
                    dead: false,
                },
            )
            .unwrap()
            .expect("old shard handed back");
        assert_eq!((replaced.node, replaced.dead), (NodeId(1), true));
        assert!(bm.stripe(b).unwrap().is_fully_redundant());

        assert_eq!(bm.shards_on_node(NodeId(3)), vec![(b, 1, HDD, false)]);
        assert_eq!(bm.shards_on_node(NodeId(1)), vec![]);
    }

    #[test]
    fn files_on_tier_is_sorted() {
        let mut bm = BlockManager::new();
        for id in [5u64, 1, 3] {
            let b = bm.create_block(FileId(id), 0, ByteSize::mb(1));
            bm.add_replica(b, NodeId(0), HDD).unwrap();
        }
        let files: Vec<_> = bm.files_on_tier(HDD).collect();
        assert_eq!(files, vec![FileId(1), FileId(3), FileId(5)]);
    }
}
