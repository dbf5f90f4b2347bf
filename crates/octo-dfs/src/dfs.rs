//! The tiered DFS facade: the Master of Figure 3.
//!
//! [`TieredDfs`] owns the namespace, file table, block manager, node manager,
//! statistics registry, placement policy and transfer table, and exposes the
//! operations the compute layer and the tiering policies drive:
//!
//! * file lifecycle — [`TieredDfs::create_file`] / [`TieredDfs::commit_file`]
//!   / [`TieredDfs::delete_file`] / [`TieredDfs::record_access`];
//! * replica movement — [`TieredDfs::plan_downgrade`],
//!   [`TieredDfs::plan_upgrade`], [`TieredDfs::plan_cache_copy`],
//!   [`TieredDfs::plan_drop_replicas`], completed or cancelled by
//!   [`TieredDfs::complete_transfer`] / [`TieredDfs::cancel_transfer`];
//! * introspection — tier utilization, per-file statistics, movement stats.
//!
//! Transfers are two-phase: planning reserves destination space and flags
//! source replicas as moving (they stay readable but cannot be re-selected);
//! completion relocates metadata and settles the space accounting. A file
//! has at most one transfer in flight, and cannot be deleted while one is.

use crate::block::{BlockInfo, BlockManager};
use crate::config::DfsConfig;
use crate::files::{FileMeta, FileState, FileTable};
use crate::namespace::{Entry, Namespace};
use crate::node::NodeManager;
use crate::placement::PlacementPolicy;
use crate::recency::RecencyIndex;
use crate::replication::{
    BlockAction, BlockTransfer, MovementStats, Transfer, TransferId, TransferKind, TransferTable,
};
use crate::stats::{AccessStats, StatsRegistry, ACCESS_HISTORY};
use octo_common::{BlockId, ByteSize, FileId, NodeId, OctoError, Result, SimTime, StorageTier};

/// Where a downgrade should land (§5.3: normally the placement policy picks
/// the tier; `Delete` reproduces plain cache eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DowngradeTarget {
    /// Let the multi-objective placement policy pick among all lower tiers.
    Auto,
    /// Force a specific lower tier.
    Tier(StorageTier),
    /// Delete the replica instead of moving it.
    Delete,
}

/// What a node crash or disk loss did to the DFS (input for the simulator,
/// which must cancel the I/O flows of the cancelled transfers and fail the
/// reads that were being served by the node).
#[derive(Debug, Clone, Default)]
pub struct NodeFailure {
    /// In-flight transfers cancelled because an action touched the node.
    pub cancelled_transfers: Vec<TransferId>,
    /// Replicas destroyed for good (memory contents, or the lost device).
    pub lost_replicas: u64,
    /// Bytes those destroyed replicas held.
    pub lost_bytes: ByteSize,
    /// Disk replicas marked dead (offline until the node recovers).
    pub offlined_replicas: u64,
    /// Erasure-coded stripe shards marked dead (offline until the node
    /// recovers).
    pub offlined_shards: u64,
    /// Erasure-coded stripe shards destroyed for good (device loss).
    pub lost_shards: u64,
}

/// The replica layout chosen for one new block.
#[derive(Debug, Clone)]
pub struct BlockWrite {
    /// The new block.
    pub block: BlockId,
    /// Bytes in this block.
    pub size: ByteSize,
    /// Chosen `(node, tier)` for each replica.
    pub replicas: Vec<(NodeId, StorageTier)>,
}

/// Result of [`TieredDfs::create_file`]: what the client pipeline must write.
#[derive(Debug, Clone)]
pub struct WritePlan {
    /// The new file.
    pub file: FileId,
    /// Per-block replica layouts.
    pub blocks: Vec<BlockWrite>,
}

/// The tiered distributed file system.
#[derive(Debug)]
pub struct TieredDfs {
    config: DfsConfig,
    ns: Namespace,
    files: FileTable,
    blocks: BlockManager,
    nodes: NodeManager,
    stats: StatsRegistry,
    recency: RecencyIndex,
    placement: PlacementPolicy,
    transfers: TransferTable,
}

impl TieredDfs {
    /// Builds a DFS over the configured cluster with default placement.
    pub fn new(config: DfsConfig) -> Result<Self> {
        config.validate()?;
        Ok(TieredDfs {
            nodes: NodeManager::new(&config),
            stats: StatsRegistry::with_heat(ACCESS_HISTORY, config.heat),
            recency: RecencyIndex::new(),
            ns: Namespace::new(),
            files: FileTable::new(),
            blocks: BlockManager::with_target(config.replication),
            placement: PlacementPolicy::new(),
            transfers: TransferTable::new(),
            config,
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// The heat-score parameters the statistics registry folds under
    /// (policies use these to decay stored heats to "now").
    pub fn heat_config(&self) -> &crate::stats::HeatConfig {
        self.stats.heat_config()
    }

    /// Mutable access to the placement policy (e.g. to restrict initial
    /// tiers for the HDFS baseline scenarios).
    pub fn placement_mut(&mut self) -> &mut PlacementPolicy {
        &mut self.placement
    }

    // ------------------------------------------------------------------
    // File lifecycle
    // ------------------------------------------------------------------

    /// Creates a file of `size` at `path` and chooses replica placements for
    /// each of its blocks. Destination space is reserved; the file becomes
    /// readable after [`TieredDfs::commit_file`].
    pub fn create_file(&mut self, path: &str, size: ByteSize, now: SimTime) -> Result<WritePlan> {
        let file = self.files.insert(path, size, now);
        if let Err(e) = self.ns.create_file(path, file) {
            self.files.remove(file);
            return Err(e);
        }

        let n_blocks = size.blocks_of(self.config.block_size);
        let mut plan_blocks = Vec::with_capacity(n_blocks as usize);
        let mut remaining = size;
        let mut rollback_ok = true;
        for index in 0..n_blocks {
            let bsize = remaining
                .min(self.config.block_size)
                .max(ByteSize::from_bytes(1));
            remaining = remaining.saturating_sub(self.config.block_size);
            let placements =
                self.placement
                    .place_new_block(&self.nodes, bsize, self.config.replication);
            if placements.is_empty() {
                rollback_ok = false;
                break;
            }
            let block = self.blocks.create_block(file, index as u32, bsize);
            for &(node, tier) in &placements {
                self.nodes
                    .reserve(node, tier, bsize)
                    .expect("placement verified capacity");
                self.blocks
                    .add_replica(block, node, tier)
                    .expect("placement picked distinct nodes");
            }
            self.files
                .get_mut(file)
                .expect("file just inserted")
                .blocks
                .push(block);
            plan_blocks.push(BlockWrite {
                block,
                size: bsize,
                replicas: placements,
            });
        }

        if !rollback_ok {
            // Cluster out of space: undo everything.
            for bw in &plan_blocks {
                for &(node, tier) in &bw.replicas {
                    self.nodes.release_reserved(node, tier, bw.size);
                }
                self.blocks.delete_block(bw.block);
            }
            self.ns.delete(path, false).expect("file path just created");
            self.files.remove(file);
            return Err(OctoError::OutOfCapacity(format!(
                "no tier can hold a block of {path:?}"
            )));
        }

        Ok(WritePlan {
            file,
            blocks: plan_blocks,
        })
    }

    /// Marks a file fully written: settles reservations, makes it readable,
    /// and starts tracking its access statistics.
    pub fn commit_file(&mut self, file: FileId, now: SimTime) -> Result<()> {
        let meta = self
            .files
            .get(file)
            .ok_or_else(|| OctoError::NotFound(format!("{file}")))?;
        if meta.state != FileState::Writing {
            return Err(OctoError::InvalidState(format!("{file} already committed")));
        }
        let size = meta.size;
        for &b in &meta.blocks {
            let info = self.blocks.block(b);
            let bsize = info.size;
            for r in info.replicas() {
                self.nodes.commit_reserved(r.node, r.tier, bsize);
            }
        }
        self.files.set_complete(file);
        self.stats.on_create(file, size, now);
        self.recency.insert(file, now);
        for tier in StorageTier::ALL {
            if self.blocks.file_on_tier(file, tier) {
                self.recency.set_resident(file, tier, true);
            }
        }
        Ok(())
    }

    /// Records a read access to a committed file.
    pub fn record_access(&mut self, file: FileId, now: SimTime) -> Result<()> {
        let meta = self
            .files
            .get(file)
            .ok_or_else(|| OctoError::NotFound(format!("{file}")))?;
        if meta.state != FileState::Complete {
            return Err(OctoError::InvalidState(format!("{file} is still writing")));
        }
        self.stats.on_access(file, now);
        self.recency.touch(file, now);
        Ok(())
    }

    /// Deletes a committed file, freeing all replica space. Fails while a
    /// transfer is in flight for it.
    pub fn delete_file(&mut self, file: FileId) -> Result<ByteSize> {
        let meta = self
            .files
            .get(file)
            .ok_or_else(|| OctoError::NotFound(format!("{file}")))?;
        if meta.in_flight > 0 {
            return Err(OctoError::InvalidState(format!(
                "{file} has transfers in flight"
            )));
        }
        if meta.state != FileState::Complete {
            return Err(OctoError::InvalidState(format!("{file} is still writing")));
        }
        let mut freed = ByteSize::ZERO;
        for &b in &meta.blocks {
            let size = self.blocks.block(b).size;
            if let Some(s) = self.blocks.take_stripe(b) {
                for sh in &s.shards {
                    self.nodes.free_used(sh.node, sh.tier, s.shard_size);
                    freed += s.shard_size;
                }
            }
            for replica in self.blocks.delete_block(b) {
                self.nodes.free_used(replica.node, replica.tier, size);
                freed += size;
            }
        }
        self.ns.delete(&meta.path, false)?;
        self.files.remove(file);
        self.stats.on_delete(file);
        self.recency.remove(file);
        Ok(freed)
    }

    // ------------------------------------------------------------------
    // Replica movement (the Replication Manager's verbs)
    // ------------------------------------------------------------------

    fn movable_file(&self, file: FileId) -> Result<&FileMeta> {
        let meta = self
            .files
            .get(file)
            .ok_or_else(|| OctoError::NotFound(format!("{file}")))?;
        if meta.state != FileState::Complete {
            return Err(OctoError::InvalidState(format!("{file} is still writing")));
        }
        if meta.in_flight > 0 {
            return Err(OctoError::InvalidState(format!(
                "{file} already has a transfer in flight"
            )));
        }
        Ok(meta)
    }

    /// True if the policy may schedule a transfer for `file` right now.
    pub fn is_movable(&self, file: FileId) -> bool {
        self.movable_file(file).is_ok()
    }

    /// The `i`-th block of a live file, if both exist. Lets the planning
    /// loops walk a file's blocks without cloning the block list while
    /// they mutate reservation state.
    fn nth_block(&self, file: FileId, i: usize) -> Option<BlockId> {
        self.files.get(file).and_then(|m| m.blocks.get(i).copied())
    }

    fn finish_plan(
        &mut self,
        file: FileId,
        kind: TransferKind,
        actions: Vec<BlockTransfer>,
    ) -> TransferId {
        for bt in &actions {
            match bt.action {
                BlockAction::Move { from, .. } | BlockAction::Drop { from } => {
                    self.blocks
                        .set_moving(bt.block, from.0, from.1, true)
                        .expect("source replica exists");
                }
                // EC actions read from a replica that a companion Drop
                // already flagged, or from stripe shards (which have no
                // moving flag — the file-level in-flight guard serializes
                // transfers per file).
                BlockAction::Copy { .. }
                | BlockAction::EcWrite { .. }
                | BlockAction::EcRebuild { .. }
                | BlockAction::Unstripe { .. } => {}
            }
        }
        self.files.get_mut(file).expect("validated").in_flight += 1;
        self.transfers.insert(file, kind, actions)
    }

    fn rollback_reservations(&mut self, actions: &[BlockTransfer]) {
        for bt in actions {
            if let Some((node, tier)) = bt.action.destination() {
                self.nodes.release_reserved(node, tier, bt.size);
            }
        }
    }

    /// Plans striping one block into EC(k, m) on `ec_tier`: places the
    /// `k + m` shards on distinct live nodes (home tier first, spilling to
    /// lower tiers when full) and reserves their space. Appends the shard
    /// writes plus a drop of the source replica to `actions`; on placement
    /// failure everything reserved for this block is rolled back and
    /// `false` returned so the caller can fall back.
    fn try_plan_stripe(
        &mut self,
        block: BlockId,
        src: (NodeId, StorageTier),
        ec_tier: StorageTier,
        actions: &mut Vec<BlockTransfer>,
    ) -> bool {
        let (k, m) = self
            .config
            .erasure_for(ec_tier)
            .expect("caller checked the tier is EC-configured");
        let size = self.blocks.block(block).size;
        let ssize = crate::ec::shard_size(size, k);
        let mut exclude: Vec<NodeId> = Vec::new();
        let mut shards: Vec<BlockTransfer> = Vec::new();
        for index in 0..(k + m) {
            let placed = std::iter::once(ec_tier)
                .chain(ec_tier.tiers_below())
                .find_map(|t| self.placement.place_shard(&self.nodes, ssize, t, &exclude));
            let Some(to) = placed else {
                self.rollback_reservations(&shards);
                return false;
            };
            self.nodes
                .reserve(to.0, to.1, ssize)
                .expect("place_shard verified capacity");
            exclude.push(to.0);
            shards.push(BlockTransfer {
                block,
                size: ssize,
                action: BlockAction::EcWrite {
                    from: src,
                    to,
                    index,
                },
            });
        }
        actions.append(&mut shards);
        actions.push(BlockTransfer {
            block,
            size,
            action: BlockAction::Drop { from: src },
        });
        true
    }

    /// Plans moving `file`'s replicas *off* `from_tier` (§5). Each block
    /// replica on that tier is moved to the placement-chosen lower tier, or
    /// deleted when `target` is [`DowngradeTarget::Delete`] or no lower tier
    /// has room. Replicated destination tiers are preferred; when only an
    /// `Erasure`-configured tier remains (the cold-archive case) the block
    /// is striped into `k + m` shards there instead of moved whole, and a
    /// block whose stripe already exists simply drops the source replica —
    /// the stripe keeps protecting the data.
    pub fn plan_downgrade(
        &mut self,
        file: FileId,
        from_tier: StorageTier,
        target: DowngradeTarget,
    ) -> Result<TransferId> {
        self.movable_file(file)?;
        let mut actions: Vec<BlockTransfer> = Vec::new();
        let mut i = 0;
        while let Some(b) = self.nth_block(file, i) {
            i += 1;
            let info = self.blocks.block(b);
            let Some(rep) = info.replica_on_tier(from_tier) else {
                continue;
            };
            let src = (rep.node, from_tier);
            let size = info.size;
            let action = match target {
                DowngradeTarget::Delete => BlockAction::Drop { from: src },
                DowngradeTarget::Auto | DowngradeTarget::Tier(_) => {
                    let allowed: Vec<StorageTier> = match target {
                        DowngradeTarget::Tier(t) => {
                            if !from_tier.is_higher_than(t) {
                                self.rollback_reservations(&actions);
                                return Err(OctoError::InvalidArgument(format!(
                                    "{t} is not below {from_tier}"
                                )));
                            }
                            vec![t]
                        }
                        _ => from_tier.tiers_below().collect(),
                    };
                    if self.blocks.stripe(b).is_some_and(|s| s.is_readable()) {
                        // Already erasure-coded below: the replica leaving
                        // `from_tier` needs no new home.
                        BlockAction::Drop { from: src }
                    } else {
                        let replicated: Vec<StorageTier> = allowed
                            .iter()
                            .copied()
                            .filter(|t| self.config.erasure_for(*t).is_none())
                            .collect();
                        let ec_tier = allowed
                            .iter()
                            .copied()
                            .find(|t| self.config.erasure_for(*t).is_some());
                        match self
                            .placement
                            .place_move(&self.nodes, info, &replicated, src.0)
                        {
                            Some(to) => {
                                self.nodes
                                    .reserve(to.0, to.1, size)
                                    .expect("place_move verified capacity");
                                BlockAction::Move { from: src, to }
                            }
                            None => {
                                let striped = ec_tier.is_some_and(|t| {
                                    self.blocks.stripe(b).is_none()
                                        && self.try_plan_stripe(b, src, t, &mut actions)
                                });
                                if striped {
                                    // try_plan_stripe appended the shard
                                    // writes and the source drop itself.
                                    continue;
                                }
                                // Nothing below has room: evict, don't stall.
                                BlockAction::Drop { from: src }
                            }
                        }
                    }
                }
            };
            actions.push(BlockTransfer {
                block: b,
                size,
                action,
            });
        }
        if actions.is_empty() {
            return Err(OctoError::NotFound(format!(
                "{file} has no movable replica on {from_tier}"
            )));
        }
        Ok(self.finish_plan(file, TransferKind::Downgrade, actions))
    }

    /// Plans moving `file` *onto* `to_tier` (§6): for every block lacking a
    /// replica there, its lowest-tier replica is moved up — or, for a block
    /// that lives only as an erasure-coded stripe, the stripe is decoded
    /// into a fresh replica on `to_tier` (the stripe is deleted at
    /// completion; the repair planner then re-replicates the block up to
    /// the target). All-or-nothing: if any block cannot be placed, the
    /// whole plan is abandoned.
    pub fn plan_upgrade(&mut self, file: FileId, to_tier: StorageTier) -> Result<TransferId> {
        self.movable_file(file)?;
        let mut actions: Vec<BlockTransfer> = Vec::new();
        let mut fully_present = true;
        let mut i = 0;
        while let Some(b) = self.nth_block(file, i) {
            i += 1;
            let info = self.blocks.block(b);
            if info.replica_on_tier(to_tier).is_some() {
                continue;
            }
            fully_present = false;
            // Move the slowest copy up; replicas at or above the target stay.
            let src = info
                .replicas()
                .iter()
                .filter(|r| !r.moving && !r.dead && to_tier.is_higher_than(r.tier))
                .min_by_key(|r| (r.tier.rank(), r.node))
                .copied();
            let size = info.size;
            let Some(src) = src else {
                // No whole replica below — decode the stripe if it can
                // still serve reads (>= k live shards).
                let anchor = self
                    .blocks
                    .stripe(b)
                    .filter(|s| s.is_readable())
                    .and_then(|s| {
                        s.shards
                            .iter()
                            .filter(|sh| !sh.dead)
                            .max_by_key(|sh| (sh.tier.rank(), std::cmp::Reverse(sh.node)))
                            .map(|sh| (sh.node, sh.tier))
                    });
                let Some(anchor) = anchor else {
                    self.rollback_reservations(&actions);
                    return Err(OctoError::InvalidState(format!(
                        "{b} has no movable replica below {to_tier}"
                    )));
                };
                let info = self.blocks.block(b);
                let Some(to) = self
                    .placement
                    .place_move(&self.nodes, info, &[to_tier], anchor.0)
                else {
                    self.rollback_reservations(&actions);
                    return Err(OctoError::OutOfCapacity(format!(
                        "{to_tier} cannot hold {b} ({size})"
                    )));
                };
                self.nodes
                    .reserve(to.0, to.1, size)
                    .expect("place_move verified capacity");
                actions.push(BlockTransfer {
                    block: b,
                    size,
                    action: BlockAction::Unstripe { from: anchor, to },
                });
                continue;
            };
            let Some(to) = self
                .placement
                .place_move(&self.nodes, info, &[to_tier], src.node)
            else {
                self.rollback_reservations(&actions);
                return Err(OctoError::OutOfCapacity(format!(
                    "{to_tier} cannot hold {b} ({size})"
                )));
            };
            self.nodes
                .reserve(to.0, to.1, size)
                .expect("place_move verified capacity");
            actions.push(BlockTransfer {
                block: b,
                size,
                action: BlockAction::Move {
                    from: (src.node, src.tier),
                    to,
                },
            });
        }
        if fully_present {
            return Err(OctoError::AlreadyExists(format!(
                "{file} is already fully on {to_tier}"
            )));
        }
        if actions.is_empty() {
            return Err(OctoError::InvalidState(format!(
                "{file} has no movable replicas below {to_tier}"
            )));
        }
        Ok(self.finish_plan(file, TransferKind::Upgrade, actions))
    }

    /// Plans HDFS-cache style caching: an *additional* replica of every
    /// block on `tier`, leaving existing replicas in place. All-or-nothing.
    pub fn plan_cache_copy(&mut self, file: FileId, tier: StorageTier) -> Result<TransferId> {
        self.movable_file(file)?;
        let mut actions: Vec<BlockTransfer> = Vec::new();
        let mut fully_present = true;
        let mut i = 0;
        while let Some(b) = self.nth_block(file, i) {
            i += 1;
            let info = self.blocks.block(b);
            if info.replica_on_tier(tier).is_some() {
                continue;
            }
            fully_present = false;
            // Read from the fastest live copy.
            let src = info
                .replicas()
                .iter()
                .filter(|r| !r.moving && !r.dead && r.tier != tier)
                .max_by_key(|r| (r.tier.rank(), std::cmp::Reverse(r.node)))
                .copied();
            let Some(src) = src else {
                self.rollback_reservations(&actions);
                return Err(OctoError::InvalidState(format!("{b} has no live replica")));
            };
            let size = info.size;
            let Some(to) = self.placement.place_copy(&self.nodes, info, tier) else {
                self.rollback_reservations(&actions);
                return Err(OctoError::OutOfCapacity(format!(
                    "{tier} cannot hold a copy of {b}"
                )));
            };
            self.nodes
                .reserve(to.0, to.1, size)
                .expect("place_copy verified capacity");
            actions.push(BlockTransfer {
                block: b,
                size,
                action: BlockAction::Copy {
                    from: (src.node, src.tier),
                    to,
                },
            });
        }
        if fully_present {
            return Err(OctoError::AlreadyExists(format!(
                "{file} is already fully on {tier}"
            )));
        }
        Ok(self.finish_plan(file, TransferKind::Upgrade, actions))
    }

    /// Plans deleting every replica of `file` on `tier` (cache eviction —
    /// no data moves).
    pub fn plan_drop_replicas(&mut self, file: FileId, tier: StorageTier) -> Result<TransferId> {
        self.movable_file(file)?;
        let mut actions = Vec::new();
        let mut i = 0;
        while let Some(b) = self.nth_block(file, i) {
            i += 1;
            let info = self.blocks.block(b);
            if let Some(rep) = info.replica_on_tier(tier) {
                actions.push(BlockTransfer {
                    block: b,
                    size: info.size,
                    action: BlockAction::Drop {
                        from: (rep.node, tier),
                    },
                });
            }
        }
        if actions.is_empty() {
            return Err(OctoError::NotFound(format!(
                "{file} has no movable replica on {tier}"
            )));
        }
        Ok(self.finish_plan(file, TransferKind::Downgrade, actions))
    }

    /// Applies a finished transfer: relocates/creates/drops replicas and
    /// settles the space accounting.
    pub fn complete_transfer(&mut self, id: TransferId) -> Result<Transfer> {
        let t = self
            .transfers
            .complete(id)
            .ok_or_else(|| OctoError::NotFound(format!("{id}")))?;
        for bt in &t.blocks {
            match bt.action {
                BlockAction::Move { from, to } => {
                    self.blocks.relocate_replica(bt.block, from, to)?;
                    self.nodes.commit_reserved(to.0, to.1, bt.size);
                    self.nodes.free_used(from.0, from.1, bt.size);
                }
                BlockAction::Copy { to, .. } => {
                    self.blocks.add_replica(bt.block, to.0, to.1)?;
                    self.nodes.commit_reserved(to.0, to.1, bt.size);
                }
                BlockAction::Drop { from } => {
                    self.blocks.remove_replica(bt.block, from.0, from.1)?;
                    self.nodes.free_used(from.0, from.1, bt.size);
                }
                BlockAction::EcWrite { to, index, .. } => {
                    let (k, m) = self
                        .config
                        .erasure_for(to.1)
                        .expect("EcWrite planned against an EC tier");
                    self.blocks.ensure_stripe(bt.block, to.1, k, m, bt.size);
                    let replaced = self.blocks.add_shard(
                        bt.block,
                        crate::ec::ShardLoc {
                            node: to.0,
                            tier: to.1,
                            index,
                            dead: false,
                        },
                    )?;
                    self.nodes.commit_reserved(to.0, to.1, bt.size);
                    if let Some(old) = replaced {
                        self.nodes.free_used(old.node, old.tier, bt.size);
                    }
                }
                BlockAction::EcRebuild { to, index, .. } => {
                    let replaced = self.blocks.add_shard(
                        bt.block,
                        crate::ec::ShardLoc {
                            node: to.0,
                            tier: to.1,
                            index,
                            dead: false,
                        },
                    )?;
                    self.nodes.commit_reserved(to.0, to.1, bt.size);
                    if let Some(old) = replaced {
                        self.nodes.free_used(old.node, old.tier, bt.size);
                    }
                    self.blocks.note_stripe_rebuilt();
                }
                BlockAction::Unstripe { to, .. } => {
                    self.blocks.add_replica(bt.block, to.0, to.1)?;
                    self.nodes.commit_reserved(to.0, to.1, bt.size);
                    let s = self
                        .blocks
                        .take_stripe(bt.block)
                        .expect("Unstripe planned against a striped block");
                    for sh in &s.shards {
                        self.nodes.free_used(sh.node, sh.tier, s.shard_size);
                    }
                }
            }
        }
        let meta = self
            .files
            .get_mut(t.file)
            .expect("files with transfers in flight cannot be deleted");
        meta.in_flight -= 1;
        // Replicas changed tiers: re-sync the file's recency-index residency.
        for tier in StorageTier::ALL {
            self.recency
                .set_resident(t.file, tier, self.blocks.file_on_tier(t.file, tier));
        }
        Ok(t)
    }

    /// Abandons an in-flight transfer: releases reservations and unflags
    /// source replicas.
    pub fn cancel_transfer(&mut self, id: TransferId) -> Result<()> {
        let t = self
            .transfers
            .cancel(id)
            .ok_or_else(|| OctoError::NotFound(format!("{id}")))?;
        for bt in &t.blocks {
            if let Some((node, tier)) = bt.action.destination() {
                self.nodes.release_reserved(node, tier, bt.size);
            }
            match bt.action {
                BlockAction::Move { from, .. } | BlockAction::Drop { from } => {
                    self.blocks
                        .set_moving(bt.block, from.0, from.1, false)
                        .expect("source replica exists");
                }
                BlockAction::Copy { .. }
                | BlockAction::EcWrite { .. }
                | BlockAction::EcRebuild { .. }
                | BlockAction::Unstripe { .. } => {}
            }
        }
        self.files
            .get_mut(t.file)
            .expect("in-flight file exists")
            .in_flight -= 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault handling (node crashes, recoveries, disk losses) and repair
    // ------------------------------------------------------------------

    /// Recomputes a committed file's recency-index residency on `tier`
    /// after replicas were destroyed.
    fn resync_residency(&mut self, file: FileId, tier: StorageTier) {
        if self
            .files
            .get(file)
            .is_some_and(|m| m.state == FileState::Complete)
        {
            self.recency
                .set_resident(file, tier, self.blocks.file_on_tier(file, tier));
        }
    }

    /// Releases the space a destroyed replica held: reservations for files
    /// still being written, used bytes otherwise.
    fn free_destroyed(&mut self, file: FileId, at: (NodeId, StorageTier), size: ByteSize) {
        let writing = self
            .files
            .get(file)
            .is_some_and(|m| m.state == FileState::Writing);
        if writing {
            self.nodes.release_reserved(at.0, at.1, size);
        } else {
            self.nodes.free_used(at.0, at.1, size);
        }
    }

    /// Takes `node` down. In-flight transfers touching the node are
    /// cancelled (reservations released, moving flags cleared), its
    /// memory-tier replicas are destroyed — DRAM does not survive a crash —
    /// and its disk-tier replicas are marked dead: unreadable, excluded
    /// from the live replication factor, but restored by
    /// [`TieredDfs::recover_node`]. All incremental state (tier accounting,
    /// pending-byte counters, recency indexes, degraded set) stays
    /// consistent.
    pub fn fail_node(&mut self, node: NodeId) -> Result<NodeFailure> {
        if !self.nodes.is_alive(node) {
            return Err(OctoError::InvalidState(format!("{node} is already down")));
        }
        let mut failure = NodeFailure {
            cancelled_transfers: self.transfers.ids_touching_node(node),
            ..NodeFailure::default()
        };
        for &id in &failure.cancelled_transfers {
            self.cancel_transfer(id).expect("listed transfer in flight");
        }
        for (block, tier, moving, dead) in self.blocks.replicas_on_node(node) {
            debug_assert!(!moving, "transfers touching the node were cancelled");
            debug_assert!(!dead, "the node was up until now");
            let info = self.blocks.block(block);
            let (file, size) = (info.file, info.size);
            if tier == StorageTier::Memory {
                self.blocks
                    .remove_replica(block, node, tier)
                    .expect("replica listed by the scan");
                self.blocks.note_lost_tier(block, tier);
                self.free_destroyed(file, (node, tier), size);
                self.resync_residency(file, tier);
                failure.lost_replicas += 1;
                failure.lost_bytes += size;
            } else {
                self.blocks
                    .set_dead(block, node, tier, true)
                    .expect("replica listed by the scan");
                failure.offlined_replicas += 1;
            }
        }
        // Stripe shards never live in memory (validation bars EC there), so
        // a crash only takes them offline — like disk replicas.
        for (block, index, tier, dead) in self.blocks.shards_on_node(node) {
            debug_assert!(!dead, "the node was up until now");
            debug_assert!(tier != StorageTier::Memory, "no EC on the memory tier");
            self.blocks
                .set_shard_dead(block, node, index, true)
                .expect("shard listed by the scan");
            failure.offlined_shards += 1;
        }
        self.nodes.set_alive(node, false);
        Ok(failure)
    }

    /// Brings `node` back up: its dead disk replicas become readable again
    /// and count toward the live replication factor. Returns how many
    /// replicas came back. (Memory replicas destroyed by the crash stay
    /// gone — re-replicating them is the repair planner's job.)
    pub fn recover_node(&mut self, node: NodeId) -> Result<u64> {
        if self.nodes.is_alive(node) {
            return Err(OctoError::InvalidState(format!("{node} is already up")));
        }
        self.nodes.set_alive(node, true);
        let mut restored = 0;
        for (block, tier, _moving, dead) in self.blocks.replicas_on_node(node) {
            if dead {
                self.blocks
                    .set_dead(block, node, tier, false)
                    .expect("replica listed by the scan");
                restored += 1;
            }
        }
        // Dead shards come back too. A shard a completed rebuild superseded
        // while the node was down is no longer listed (the rebuild removed
        // it and freed its space), so no duplicate can revive.
        for (block, index, _tier, dead) in self.blocks.shards_on_node(node) {
            if dead {
                self.blocks
                    .set_shard_dead(block, node, index, false)
                    .expect("shard listed by the scan");
                restored += 1;
            }
        }
        Ok(restored)
    }

    /// Permanently destroys the contents of the device `(node, tier)`: the
    /// node stays up, the device comes back empty (a replaced disk).
    /// Transfers touching the device are cancelled; replicas on it are
    /// removed and their space freed. Blocks whose last replica lived there
    /// are lost for good.
    pub fn lose_device(&mut self, node: NodeId, tier: StorageTier) -> Result<NodeFailure> {
        let mut failure = NodeFailure {
            cancelled_transfers: self.transfers.ids_touching_device(node, tier),
            ..NodeFailure::default()
        };
        for &id in &failure.cancelled_transfers {
            self.cancel_transfer(id).expect("listed transfer in flight");
        }
        for (block, rtier, moving, _dead) in self.blocks.replicas_on_node(node) {
            if rtier != tier {
                continue;
            }
            debug_assert!(!moving, "transfers touching the device were cancelled");
            let info = self.blocks.block(block);
            let (file, size) = (info.file, info.size);
            self.blocks
                .remove_replica(block, node, tier)
                .expect("replica listed by the scan");
            self.blocks.note_lost_tier(block, tier);
            self.free_destroyed(file, (node, tier), size);
            self.resync_residency(file, tier);
            failure.lost_replicas += 1;
            failure.lost_bytes += size;
        }
        for (block, index, stier, _dead) in self.blocks.shards_on_node(node) {
            if stier != tier {
                continue;
            }
            let (file, ssize) = {
                let s = self.blocks.stripe(block).expect("shard listed by the scan");
                (s.file, s.shard_size)
            };
            self.blocks
                .remove_shard(block, node, index)
                .expect("shard listed by the scan");
            self.free_destroyed(file, (node, tier), ssize);
            self.resync_residency(file, tier);
            failure.lost_shards += 1;
            failure.lost_bytes += ssize;
        }
        Ok(failure)
    }

    /// Plans re-replication of `file`'s under-replicated blocks: for every
    /// block with fewer live replicas than the configured factor, copies
    /// from the fastest live replica onto fresh nodes. Tier-aware: each
    /// missing copy preferably lands on the tier where a dead replica sits
    /// (re-creating what the crash took offline), falling back to the
    /// source's tier, spilling to lower tiers when full. Partial repair is
    /// allowed — blocks that cannot be repaired right now are skipped and
    /// picked up by a later epoch.
    ///
    /// Striped blocks repair by *reconstruction* instead: every stripe
    /// index lacking a live shard gets an [`BlockAction::EcRebuild`] onto a
    /// fresh node (home tier first, spilling down), provided at least `k`
    /// shards survive to decode from. Both repair flavors ride the same
    /// transfer and share the planner's byte budget, so replication and EC
    /// repairs interleave deterministically.
    pub fn plan_repair(&mut self, file: FileId) -> Result<TransferId> {
        self.movable_file(file)?;
        let target = self.config.replication as usize;
        let mut actions: Vec<BlockTransfer> = Vec::new();
        let mut i = 0;
        while let Some(b) = self.nth_block(file, i) {
            i += 1;
            if self.blocks.stripe(b).is_some() {
                self.plan_stripe_rebuilds(b, &mut actions);
                continue;
            }
            let info = self.blocks.block(b);
            let live = info.live_replicas();
            if live >= target {
                continue;
            }
            // Read from the fastest live copy; none ⇒ the block is
            // unavailable (recoverable only if its node comes back).
            let Some(src) = info
                .replicas()
                .iter()
                .filter(|r| !r.moving && !r.dead)
                .max_by_key(|r| (r.tier.rank(), std::cmp::Reverse(r.node)))
                .copied()
            else {
                continue;
            };
            // What was lost, fastest loss first: tiers of dead replicas
            // (offline, may return) then tiers faults destroyed outright.
            let mut lost: Vec<StorageTier> = info
                .replicas()
                .iter()
                .filter(|r| r.dead)
                .map(|r| r.tier)
                .collect();
            lost.extend_from_slice(self.blocks.lost_tiers(b));
            let size = info.size;
            // Repair copies planned for this block must land on distinct
            // nodes, but they only materialize at completion: exclude the
            // in-plan destinations by hand.
            let mut extra_exclude: Vec<NodeId> = Vec::new();
            for k in 0..(target - live) {
                let preferred = lost.get(k).copied().unwrap_or(src.tier);
                let info = self.blocks.block(b);
                let placed = std::iter::once(preferred)
                    .chain(preferred.tiers_below())
                    .find_map(|t| {
                        self.placement
                            .place_repair(&self.nodes, info, t, &extra_exclude)
                    });
                let Some(to) = placed else {
                    continue;
                };
                self.nodes
                    .reserve(to.0, to.1, size)
                    .expect("place_repair verified capacity");
                extra_exclude.push(to.0);
                actions.push(BlockTransfer {
                    block: b,
                    size,
                    action: BlockAction::Copy {
                        from: (src.node, src.tier),
                        to,
                    },
                });
            }
        }
        if actions.is_empty() {
            return Err(OctoError::NotFound(format!(
                "{file} has nothing repairable right now"
            )));
        }
        Ok(self.finish_plan(file, TransferKind::Repair, actions))
    }

    /// Appends reconstruction rebuilds for every missing shard of `block`'s
    /// stripe (no-op when the stripe is healthy, or unreadable — fewer than
    /// `k` survivors cannot decode anything).
    fn plan_stripe_rebuilds(&mut self, block: BlockId, actions: &mut Vec<BlockTransfer>) {
        let Some((home, ssize, missing, anchor, mut exclude)) =
            self.blocks.stripe(block).and_then(|s| {
                if s.is_fully_redundant() || !s.is_readable() {
                    return None;
                }
                let anchor = s
                    .shards
                    .iter()
                    .filter(|sh| !sh.dead)
                    .max_by_key(|sh| (sh.tier.rank(), std::cmp::Reverse(sh.node)))?;
                Some((
                    s.home,
                    s.shard_size,
                    s.missing_indices(),
                    (anchor.node, anchor.tier),
                    s.nodes().collect::<Vec<NodeId>>(),
                ))
            })
        else {
            return;
        };
        for index in missing {
            let placed = std::iter::once(home)
                .chain(home.tiers_below())
                .find_map(|t| self.placement.place_shard(&self.nodes, ssize, t, &exclude));
            let Some(to) = placed else {
                continue;
            };
            self.nodes
                .reserve(to.0, to.1, ssize)
                .expect("place_shard verified capacity");
            exclude.push(to.0);
            actions.push(BlockTransfer {
                block,
                size: ssize,
                action: BlockAction::EcRebuild {
                    from: anchor,
                    to,
                    index,
                },
            });
        }
    }

    /// Committed files with at least one under-*redundant* block, ascending
    /// by id, as `(file, min live redundancy units over its blocks,
    /// target)`. A block is under-redundant when its live replica count is
    /// below the target — or, for a striped block, when any of its `k + m`
    /// shards is not live. A degraded-but-reconstructable EC file (at most
    /// `m` shards lost per stripe) shows up here, **not** in
    /// [`TieredDfs::lost_files`]. Walks the incrementally-maintained
    /// degraded set — no namespace scan — so the Replication Monitor, the
    /// repair planner, and the tests all share one source of truth.
    ///
    /// The middle element counts live replicas for replicated blocks and
    /// live shards for striped ones (whose per-block target is `k + m`, not
    /// the returned replication target).
    pub fn under_redundant_files(&self) -> impl Iterator<Item = (FileId, usize, usize)> + '_ {
        let target = self.config.replication as usize;
        self.blocks.degraded_files().filter_map(move |f| {
            let meta = self.files.get(f)?;
            if meta.state != FileState::Complete {
                return None;
            }
            let min_live = meta
                .blocks
                .iter()
                .map(|b| match self.blocks.stripe(*b) {
                    Some(s) => s.live(),
                    None => self.blocks.block(*b).live_replicas(),
                })
                .min()
                .unwrap_or(0);
            Some((f, min_live, target))
        })
    }

    /// True while some committed file is under-redundant.
    pub fn has_under_redundant(&self) -> bool {
        self.under_redundant_files().next().is_some()
    }

    /// Outstanding repair debt: the bytes the repair pipeline still has to
    /// write to bring every committed file back to full redundancy. For a
    /// replicated block each missing replica owes the whole block; for a
    /// striped block each dead shard owes one shard. Zero exactly when the
    /// degraded set is quiet, so a quiesced run reports no debt.
    pub fn repair_debt_bytes(&self) -> ByteSize {
        let target = self.config.replication as usize;
        let mut debt = ByteSize::ZERO;
        for f in self.blocks.degraded_files() {
            let Some(meta) = self.files.get(f) else {
                continue;
            };
            if meta.state != FileState::Complete {
                continue;
            }
            for b in &meta.blocks {
                match self.blocks.stripe(*b) {
                    Some(s) => {
                        let missing = s.total().saturating_sub(s.live()) as u64;
                        debt += s.shard_size * missing;
                    }
                    None => {
                        let block = self.blocks.block(*b);
                        let missing = target.saturating_sub(block.live_replicas()) as u64;
                        debt += block.size * missing;
                    }
                }
            }
        }
        debt
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The file at `path`, if it is a file.
    pub fn file_id(&self, path: &str) -> Result<FileId> {
        match self.ns.lookup(path)? {
            Entry::File(id) => Ok(id),
            Entry::Dir => Err(OctoError::InvalidArgument(format!(
                "{path:?} is a directory"
            ))),
        }
    }

    /// Metadata of a live file.
    pub fn file_meta(&self, file: FileId) -> Option<&FileMeta> {
        self.files.get(file)
    }

    /// Access statistics of a live, committed file.
    pub fn file_stats(&self, file: FileId) -> Option<&AccessStats> {
        self.stats.get(file)
    }

    /// Block metadata.
    pub fn block_info(&self, block: BlockId) -> &BlockInfo {
        self.blocks.block(block)
    }

    /// Files with at least one block replica on `tier`, ascending by id.
    /// Borrows the block manager's per-tier resident set — no allocation.
    pub fn files_on_tier(&self, tier: StorageTier) -> impl Iterator<Item = FileId> + '_ {
        self.blocks.files_on_tier(tier)
    }

    /// Committed files with at least one block replica on `tier`, least
    /// recently used first (ties ascending by id). An index range-walk:
    /// each step is O(1) amortized, no sorting, no allocation.
    pub fn tier_recency_iter(
        &self,
        tier: StorageTier,
    ) -> impl Iterator<Item = (SimTime, FileId)> + '_ {
        self.recency.tier_iter(tier)
    }

    /// Like [`TieredDfs::tier_recency_iter`], resuming strictly after
    /// `after` (an entry a previous walk returned): an O(log n) seek into
    /// the index instead of a re-walk of the consumed prefix.
    pub fn tier_recency_iter_after(
        &self,
        tier: StorageTier,
        after: Option<(SimTime, FileId)>,
    ) -> impl Iterator<Item = (SimTime, FileId)> + '_ {
        self.recency.tier_iter_after(tier, after)
    }

    /// All committed files, most recently used first (ties ascending by
    /// id) — the MRU ordering the upgrade policies walk.
    pub fn mru_recency_iter(&self) -> impl Iterator<Item = (SimTime, FileId)> + '_ {
        self.recency.mru_iter()
    }

    /// The incrementally-maintained recency index (diagnostics/tests).
    pub fn recency(&self) -> &RecencyIndex {
        &self.recency
    }

    // ------------------------------------------------------------------
    // Shard-scoped views (parallel epoch engine)
    //
    // Each iterator below is one shard's leg of the corresponding global
    // merged iterator: merging all legs in shard order with the
    // order-preserving k-way merges reproduces the global order exactly,
    // which is what lets an epoch scan the shards concurrently and commit
    // serially with byte-identical results (see [`crate::epoch`]).
    // ------------------------------------------------------------------

    /// The number of shards the per-file bookkeeping is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.blocks.shard_count()
    }

    /// One shard's slice of the per-tier LRU ordering, `(last_used, file)`
    /// ascending — the shard leg of [`TieredDfs::tier_recency_iter`].
    pub fn shard_tier_recency_iter(
        &self,
        shard: usize,
        tier: StorageTier,
    ) -> impl Iterator<Item = (SimTime, FileId)> + '_ {
        self.recency.shard_tier_iter(shard, tier)
    }

    /// Like [`TieredDfs::shard_tier_recency_iter`], resuming strictly
    /// after `after` — the shard leg of
    /// [`TieredDfs::tier_recency_iter_after`].
    pub fn shard_tier_recency_iter_after(
        &self,
        shard: usize,
        tier: StorageTier,
        after: Option<(SimTime, FileId)>,
    ) -> impl Iterator<Item = (SimTime, FileId)> + '_ {
        self.recency.shard_tier_iter_after(shard, tier, after)
    }

    /// One shard's files with a replica on `tier`, ascending by id — the
    /// shard leg of [`TieredDfs::files_on_tier`].
    pub fn shard_files_on_tier(
        &self,
        shard: usize,
        tier: StorageTier,
    ) -> impl Iterator<Item = FileId> + '_ {
        self.blocks.shard_files_on_tier(shard, tier)
    }

    /// One shard's slice of the degraded map as `(file, deficient
    /// blocks)`, ascending by id.
    pub fn shard_degraded_files(&self, shard: usize) -> impl Iterator<Item = (FileId, u32)> + '_ {
        self.blocks.shard_degraded_files(shard)
    }

    /// One shard's committed under-redundant files, ascending by id — the
    /// shard leg of the candidate list
    /// [`TieredDfs::under_redundant_files`] yields, with the same
    /// committed-state filter applied.
    pub fn shard_under_redundant_files(&self, shard: usize) -> impl Iterator<Item = FileId> + '_ {
        self.blocks
            .shard_degraded_files(shard)
            .filter_map(|(f, _)| {
                let meta = self.files.get(f)?;
                (meta.state == FileState::Complete).then_some(f)
            })
    }

    /// Bytes currently scheduled to move off or be dropped from `tier`.
    /// Maintained incrementally at transfer plan/complete/cancel time: O(1).
    pub fn pending_outgoing(&self, tier: StorageTier) -> ByteSize {
        self.transfers.pending_outgoing(tier)
    }

    /// Bytes currently reserved to land on `tier` by in-flight transfers.
    /// Maintained incrementally at transfer plan/complete/cancel time: O(1).
    pub fn pending_incoming(&self, tier: StorageTier) -> ByteSize {
        self.transfers.pending_incoming(tier)
    }

    /// True if `file` has at least one block replica on `tier`.
    pub fn file_on_tier(&self, file: FileId, tier: StorageTier) -> bool {
        self.blocks.file_on_tier(file, tier)
    }

    /// True if *every* block of `file` has a replica on `tier` (the
    /// all-or-nothing property the metrics care about).
    pub fn file_fully_on_tier(&self, file: FileId, tier: StorageTier) -> bool {
        let Some(meta) = self.files.get(file) else {
            return false;
        };
        !meta.blocks.is_empty()
            && meta
                .blocks
                .iter()
                .all(|b| self.blocks.block(*b).replica_on_tier(tier).is_some())
    }

    /// Cluster-wide committed/capacity utilization of a tier.
    pub fn tier_utilization(&self, tier: StorageTier) -> f64 {
        self.nodes.tier_utilization(tier)
    }

    /// Cluster-wide `(committed, capacity)` bytes of a tier.
    pub fn tier_usage(&self, tier: StorageTier) -> (ByteSize, ByteSize) {
        self.nodes.tier_usage(tier)
    }

    /// The node manager (device-level introspection).
    pub fn nodes(&self) -> &NodeManager {
        &self.nodes
    }

    /// The block manager (shard-level introspection for diagnostics and
    /// the property-test oracles).
    pub fn blocks(&self) -> &BlockManager {
        &self.blocks
    }

    /// Registers an I/O stream starting against a device (load balancing
    /// input).
    pub fn io_started(&mut self, node: NodeId, tier: StorageTier) {
        self.nodes.io_started(node, tier);
    }

    /// Registers an I/O stream finishing.
    pub fn io_finished(&mut self, node: NodeId, tier: StorageTier) {
        self.nodes.io_finished(node, tier);
    }

    /// Cumulative replica-movement statistics.
    pub fn movement_stats(&self) -> &MovementStats {
        self.transfers.stats()
    }

    /// An in-flight transfer.
    pub fn transfer(&self, id: TransferId) -> Option<&Transfer> {
        self.transfers.get(id)
    }

    /// Number of transfers in flight.
    pub fn transfers_in_flight(&self) -> usize {
        self.transfers.in_flight()
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.ns.file_count()
    }

    /// Number of committed live files. O(1): the file table maintains a
    /// counter alongside its committed-file rank index.
    pub fn committed_file_count(&self) -> usize {
        self.files.committed_len()
    }

    /// The `rank`-th committed live file in ascending id order, for
    /// `rank < committed_file_count()`. O(log files): a rank-select
    /// against the file table's Fenwick index, returning exactly what
    /// indexing a `Vec` of all committed files at `rank` would — the ML
    /// policies' training-sample ticks draw uniform ranks here instead of
    /// materializing that `Vec` every epoch.
    pub fn nth_committed_file(&self, rank: usize) -> Option<FileId> {
        self.files.nth_committed(rank)
    }

    /// Live files in id order.
    pub fn iter_files(&self) -> impl Iterator<Item = &FileMeta> {
        self.files.iter()
    }

    /// Files with at least one block whose data is gone: no replica at all
    /// *and* no stripe retaining at least `k` shards (dead replicas and
    /// shards count as recoverable — their nodes may come back), ascending
    /// by id. An EC file that lost up to `m` shards per stripe is degraded
    /// but reconstructable, so it appears in
    /// [`TieredDfs::under_redundant_files`] — never here. Walks the
    /// incrementally-maintained degraded set — every lost block is
    /// deficient — instead of scanning the namespace.
    pub fn lost_files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.blocks.degraded_files().filter(move |f| {
            self.files
                .get(*f)
                .is_some_and(|m| m.blocks.iter().any(|b| self.blocks.block_is_lost(*b)))
        })
    }

    /// Replication monitor report: blocks whose *live* replica count
    /// deviates from the configured factor (only meaningful for committed
    /// files) — replicas on crashed nodes do not count, so the per-block
    /// view agrees with [`TieredDfs::under_redundant_files`]. Lazy: the
    /// monitor tick streams the deviations without materializing a fresh
    /// `Vec` per invocation.
    pub fn replication_report(&self) -> impl Iterator<Item = (BlockId, usize, usize)> + '_ {
        let target = self.config.replication as usize;
        self.files
            .iter()
            .filter(|meta| meta.state == FileState::Complete)
            .flat_map(move |meta| {
                meta.blocks
                    .iter()
                    .map(move |&b| (b, self.blocks.block(b).live_replicas(), target))
            })
            .filter(|&(_, n, target)| n != target)
    }

    /// Approximate bytes of per-file statistics bookkeeping (§7.7).
    pub fn stats_memory_bytes(&self) -> usize {
        self.stats.approx_memory_bytes()
    }
}
