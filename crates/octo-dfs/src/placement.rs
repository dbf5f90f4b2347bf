//! The multi-objective data placement policy (§5.3 / OctopusFS §4).
//!
//! Placement scores every feasible `(node, tier)` candidate by a weighted
//! combination of the four objectives of the OctopusFS formulation:
//!
//! 1. **Fault tolerance** — hard constraint: replicas of a block live on
//!    distinct nodes.
//! 2. **Throughput maximization** — faster tiers score higher (ordinal by
//!    tier rank).
//! 3. **Data balancing** — emptier devices score higher.
//! 4. **Load balancing** — devices with fewer active I/O streams score
//!    higher.
//!
//! A *tier-diversity* penalty discourages stacking replicas of one block on
//! the same tier, which reproduces OctopusFS's observed behaviour: while
//! memory has room a block gets one replica on each of memory/SSD/HDD, and
//! after memory fills the replicas spread over SSD and HDD (§3.1). A
//! *locality* bonus steers replica moves toward the node that already holds
//! the source copy, so tier moves stay on-node (no network) when possible.
//!
//! The policy keeps a table with one cell per `(node, tier)`: the device's
//! committed bytes, its admission limit (`capacity × fill_limit`) and its
//! score before the per-block terms, plus each node's liveness. The table
//! is allocated on the first placement. Before each placement it re-reads
//! only the nodes whose [`NodeManager`] change counter moved, and all of
//! them when the manager is not the one it last read. Every entry point
//! picks through one scan of the table: the fit test, the score (the cell's
//! base, minus the diversity penalty, plus the locality bonus) and the
//! `> best + 1e-12` rule are the ones a scan of the devices themselves
//! would apply, in the same order and with the same floating-point
//! operations, so every choice is bit-identical to reading the devices.

use crate::block::BlockInfo;
use crate::node::{Device, NodeManager};
use octo_common::{ByteSize, NodeId, StorageTier};
use serde::{Deserialize, Serialize};

/// Objective weights for [`PlacementPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementWeights {
    /// Weight of the tier-speed objective.
    pub throughput: f64,
    /// Weight of the free-space objective.
    pub data_balance: f64,
    /// Weight of the idle-device objective.
    pub load_balance: f64,
    /// Penalty per replica of the same block already on a tier.
    pub tier_diversity_penalty: f64,
    /// Bonus for placing on the preferred (source) node.
    pub locality_bonus: f64,
}

impl Default for PlacementWeights {
    fn default() -> Self {
        PlacementWeights {
            throughput: 1.0,
            data_balance: 0.35,
            load_balance: 0.15,
            tier_diversity_penalty: 1.2,
            locality_bonus: 0.3,
        }
    }
}

/// What placement reads of one device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Cell {
    committed: ByteSize,
    /// Placement never commits a device beyond this.
    limit: ByteSize,
    /// The score before the tier-diversity penalty and locality bonus.
    base: f64,
}

/// The devices of one [`NodeManager`] as placement reads them.
#[derive(Debug, Clone, Default)]
struct Table {
    /// `NodeManager::id` of the manager the cells were read from.
    manager: Option<u64>,
    /// Per node: its change counter when its cells were read.
    seen: Vec<u64>,
    alive: Vec<bool>,
    /// Per node, then tier: `cells[node * 3 + tier.index()]`.
    cells: Vec<Cell>,
}

/// One scan of the table for one block: the terms a candidate's score
/// adds to its cell's base, and the best candidate met so far.
struct Scan {
    size: ByteSize,
    /// `tier_diversity_penalty × uses` of each tier.
    penalty: [f64; 3],
    prefer_node: Option<NodeId>,
    locality_bonus: f64,
    best: Option<(NodeId, StorageTier)>,
    /// The best score plus `1e-12`: a later candidate must score above it.
    bar: f64,
}

impl Scan {
    fn new(
        weights: &PlacementWeights,
        size: ByteSize,
        tier_uses: &[u32; 3],
        prefer_node: Option<NodeId>,
    ) -> Scan {
        Scan {
            size,
            penalty: tier_uses.map(|uses| weights.tier_diversity_penalty * uses as f64),
            prefer_node,
            locality_bonus: weights.locality_bonus,
            best: None,
            bar: 0.0,
        }
    }

    /// Offers `(node, tier)`, whose cell is `cell`: skipped unless the
    /// block fits under the device's limit, taken when it is the first to
    /// fit or scores above the bar.
    #[inline]
    fn offer(&mut self, cell: &Cell, node: NodeId, tier: StorageTier) {
        if cell.committed + self.size > cell.limit {
            return;
        }
        let mut s = cell.base;
        s -= self.penalty[tier.index()];
        if self.prefer_node == Some(node) {
            s += self.locality_bonus;
        }
        if self.best.is_none() || s > self.bar {
            self.best = Some((node, tier));
            self.bar = s + 1e-12;
        }
    }
}

/// The pluggable placement policy.
#[derive(Debug, Clone)]
pub struct PlacementPolicy {
    weights: PlacementWeights,
    /// Devices are never filled beyond this fraction by placement.
    fill_limit: f64,
    /// When set, initial placement is restricted to these tiers (used by the
    /// paper's upgrade-only experiment, which forces all data onto HDD).
    allowed_initial_tiers: Vec<StorageTier>,
    table: Table,
}

impl PlacementPolicy {
    /// A policy with the given weights and fill limit.
    pub fn new(weights: PlacementWeights, fill_limit: f64) -> Self {
        PlacementPolicy {
            weights,
            fill_limit,
            allowed_initial_tiers: StorageTier::ALL.to_vec(),
            table: Table::default(),
        }
    }

    /// Restricts *initial* placement to `tiers` (replica moves may still
    /// target any tier). §7.4 forces initial placement to HDD this way.
    pub fn restrict_initial_tiers(&mut self, tiers: &[StorageTier]) {
        assert!(!tiers.is_empty(), "initial tier set cannot be empty");
        self.allowed_initial_tiers = tiers.to_vec();
    }

    /// The configured weights.
    pub fn weights(&self) -> &PlacementWeights {
        &self.weights
    }

    /// Reads one device into a cell.
    fn read_cell(&self, d: &Device, tier: StorageTier) -> Cell {
        let w = &self.weights;
        let tier_speed = tier.rank() as f64 / 2.0;
        Cell {
            committed: d.committed(),
            limit: ByteSize::from_bytes((d.capacity().as_bytes() as f64 * self.fill_limit) as u64),
            base: w.throughput * tier_speed
                + w.data_balance * (1.0 - d.utilization())
                + w.load_balance / (1.0 + d.active_io() as f64),
        }
    }

    /// Brings the table up to date with `nodes`: re-reads each node whose
    /// change counter moved, or every node when `nodes` is not the manager
    /// the table was read from.
    fn refresh(&mut self, nodes: &NodeManager) {
        if self.table.manager != Some(nodes.id()) {
            let n = nodes.len();
            self.table = Table {
                manager: Some(nodes.id()),
                // Counters start at 0 and only grow: `u64::MAX` is "unread".
                seen: vec![u64::MAX; n],
                alive: vec![false; n],
                cells: vec![Cell::default(); n * 3],
            };
        }
        for node in nodes.node_ids() {
            let i = node.index();
            let changes = nodes.changes(node);
            if self.table.seen[i] == changes {
                continue;
            }
            self.table.seen[i] = changes;
            self.table.alive[i] = nodes.is_alive(node);
            for tier in StorageTier::ALL {
                self.table.cells[i * 3 + tier.index()] =
                    self.read_cell(nodes.device(node, tier), tier);
            }
        }
    }

    /// Debug builds check that `cell`, the table's cell of `(node, tier)`,
    /// equals a fresh read of the device.
    fn debug_check(&self, nodes: &NodeManager, node: NodeId, tier: StorageTier, cell: &Cell) {
        debug_assert_eq!(
            *cell,
            self.read_cell(nodes.device(node, tier), tier),
            "placement cell of {node}/{tier} is stale: a mutation did not bump its counter"
        );
    }

    /// The cell of `(node, tier)`.
    fn cell(&self, nodes: &NodeManager, node: NodeId, tier: StorageTier) -> &Cell {
        let cell = &self.table.cells[node.index() * 3 + tier.index()];
        self.debug_check(nodes, node, tier, cell);
        cell
    }

    /// Whether the table holds `node` as alive.
    fn alive(&self, nodes: &NodeManager, node: NodeId) -> bool {
        let alive = self.table.alive[node.index()];
        debug_assert_eq!(alive, nodes.is_alive(node), "liveness of {node} is stale");
        alive
    }

    /// Picks the best feasible `(node, tier)` among `candidate_tiers`,
    /// excluding `exclude_nodes` (nodes already hosting this block) and
    /// applying the diversity penalty for `tier_uses`. Deterministic:
    /// ties break toward lower node id, then the earlier candidate tier.
    /// The table must be fresh (see [`PlacementPolicy::refresh`]).
    #[allow(clippy::too_many_arguments)]
    fn best_candidate(
        &self,
        nodes: &NodeManager,
        size: ByteSize,
        candidate_tiers: &[StorageTier],
        exclude_nodes: &[NodeId],
        tier_uses: &[u32; 3],
        prefer_node: Option<NodeId>,
        allow_preferred_excluded: bool,
    ) -> Option<(NodeId, StorageTier)> {
        let mut scan = Scan::new(&self.weights, size, tier_uses, prefer_node);
        let rows = self.table.cells.chunks_exact(3).zip(&self.table.alive);
        for (node, (row, &alive)) in nodes.node_ids().zip(rows) {
            debug_assert_eq!(alive, nodes.is_alive(node), "liveness of {node} is stale");
            if !alive {
                continue;
            }
            let excluded = exclude_nodes.contains(&node);
            if excluded && !(allow_preferred_excluded && prefer_node == Some(node)) {
                continue;
            }
            for &tier in candidate_tiers {
                let cell = &row[tier.index()];
                self.debug_check(nodes, node, tier, cell);
                scan.offer(cell, node, tier);
            }
        }
        scan.best
    }

    /// Chooses placements for `n_replicas` copies of a new block.
    ///
    /// Returns the chosen `(node, tier)` pairs, possibly fewer than
    /// requested when the cluster is nearly full (HDFS semantics: a write
    /// proceeds with fewer replicas rather than failing). An empty result
    /// means nothing fits anywhere.
    pub fn place_new_block(
        &mut self,
        nodes: &NodeManager,
        size: ByteSize,
        n_replicas: u32,
    ) -> Vec<(NodeId, StorageTier)> {
        self.refresh(nodes);
        let mut chosen: Vec<(NodeId, StorageTier)> = Vec::with_capacity(n_replicas as usize);
        let mut tier_uses = [0u32; 3];
        let mut exclude = Vec::new();
        for _ in 0..n_replicas {
            let Some((node, tier)) = self.best_candidate(
                nodes,
                size,
                &self.allowed_initial_tiers,
                &exclude,
                &tier_uses,
                None,
                false,
            ) else {
                break;
            };
            tier_uses[tier.index()] += 1;
            exclude.push(node);
            chosen.push((node, tier));
        }
        chosen
    }

    /// Chooses the destination for moving one replica of `block` onto one of
    /// `allowed_tiers`.
    ///
    /// `from_node` is the node currently holding the moving replica; it is
    /// preferred (locality) and remains eligible even though it hosts the
    /// block, because the source copy vacates. Other nodes hosting replicas
    /// are excluded.
    pub fn place_move(
        &mut self,
        nodes: &NodeManager,
        block: &BlockInfo,
        allowed_tiers: &[StorageTier],
        from_node: NodeId,
    ) -> Option<(NodeId, StorageTier)> {
        self.refresh(nodes);
        let exclude: Vec<NodeId> = block.nodes().collect();
        let mut tier_uses = [0u32; 3];
        for r in block.replicas() {
            tier_uses[r.tier.index()] += 1;
        }
        self.best_candidate(
            nodes,
            block.size,
            allowed_tiers,
            &exclude,
            &tier_uses,
            Some(from_node),
            true,
        )
    }

    /// Chooses the node for an *additional* copy of `block` on `tier`
    /// (HDFS-cache style caching). Prefers a node already holding a replica
    /// on a lower tier — caching co-locates the memory copy with the disk
    /// copy — but that node must not already hold a copy on `tier` itself.
    pub fn place_copy(
        &mut self,
        nodes: &NodeManager,
        block: &BlockInfo,
        tier: StorageTier,
    ) -> Option<(NodeId, StorageTier)> {
        self.refresh(nodes);
        let holders: Vec<NodeId> = block.nodes().collect();
        // First choice: co-locate with an existing lower-tier replica.
        let tier_uses = [0u32; 3];
        let mut scan = Scan::new(&self.weights, block.size, &tier_uses, None);
        for r in block.replicas() {
            if r.tier == tier || r.dead || !self.alive(nodes, r.node) {
                continue;
            }
            if block.replica_at(r.node, tier).is_some() {
                continue;
            }
            scan.offer(self.cell(nodes, r.node, tier), r.node, tier);
        }
        if scan.best.is_some() {
            return scan.best;
        }
        // Fallback: any node without a copy.
        self.best_candidate(
            nodes,
            block.size,
            &[tier],
            &holders,
            &tier_uses,
            None,
            false,
        )
    }

    /// Chooses the node for a *repair* copy of `block` on `tier`: a node
    /// not holding any copy (dead ones included — a recovering node must
    /// never find a duplicate of its own replica) and not in
    /// `extra_exclude` (destinations of sibling repair copies still in
    /// flight). Unlike a cache copy, fault tolerance wins over locality,
    /// so colocation is never tried.
    pub fn place_repair(
        &mut self,
        nodes: &NodeManager,
        block: &BlockInfo,
        tier: StorageTier,
        extra_exclude: &[NodeId],
    ) -> Option<(NodeId, StorageTier)> {
        self.refresh(nodes);
        let mut exclude: Vec<NodeId> = block.nodes().collect();
        exclude.extend_from_slice(extra_exclude);
        let mut tier_uses = [0u32; 3];
        for r in block.replicas() {
            tier_uses[r.tier.index()] += 1;
        }
        self.best_candidate(
            nodes,
            block.size,
            &[tier],
            &exclude,
            &tier_uses,
            None,
            false,
        )
    }

    /// Chooses the device for one erasure-coded shard on `tier`.
    ///
    /// Shards of a stripe must live on distinct nodes (the EC analogue of
    /// the replica fault-tolerance constraint), so callers accumulate every
    /// node already holding — or about to receive — a shard of the stripe
    /// into `exclude_nodes`. No tier-diversity penalty or locality bonus
    /// applies: all shards of a stripe belong on the stripe's home tier and
    /// spread by the data/load-balance objectives alone.
    pub fn place_shard(
        &mut self,
        nodes: &NodeManager,
        shard_size: ByteSize,
        tier: StorageTier,
        exclude_nodes: &[NodeId],
    ) -> Option<(NodeId, StorageTier)> {
        self.refresh(nodes);
        self.best_candidate(
            nodes,
            shard_size,
            &[tier],
            exclude_nodes,
            &[0u32; 3],
            None,
            false,
        )
    }
}

/// The placement scan before the table, kept test-only as the oracle the
/// table is checked against: every candidate re-reads and re-scores its
/// device.
#[cfg(test)]
mod reference {
    use super::*;

    fn fits(
        p: &PlacementPolicy,
        nodes: &NodeManager,
        node: NodeId,
        tier: StorageTier,
        size: ByteSize,
    ) -> bool {
        let d = nodes.device(node, tier);
        let limit = ByteSize::from_bytes((d.capacity().as_bytes() as f64 * p.fill_limit) as u64);
        d.committed() + size <= limit
    }

    fn score(
        p: &PlacementPolicy,
        nodes: &NodeManager,
        node: NodeId,
        tier: StorageTier,
        tier_uses: &[u32; 3],
        prefer_node: Option<NodeId>,
    ) -> f64 {
        let d = nodes.device(node, tier);
        let w = &p.weights;
        let tier_speed = tier.rank() as f64 / 2.0;
        let mut s = w.throughput * tier_speed
            + w.data_balance * (1.0 - d.utilization())
            + w.load_balance / (1.0 + d.active_io() as f64);
        s -= w.tier_diversity_penalty * tier_uses[tier.index()] as f64;
        if prefer_node == Some(node) {
            s += w.locality_bonus;
        }
        s
    }

    #[allow(clippy::too_many_arguments)]
    fn best_candidate(
        p: &PlacementPolicy,
        nodes: &NodeManager,
        size: ByteSize,
        candidate_tiers: &[StorageTier],
        exclude_nodes: &[NodeId],
        tier_uses: &[u32; 3],
        prefer_node: Option<NodeId>,
        allow_preferred_excluded: bool,
    ) -> Option<(NodeId, StorageTier)> {
        let mut best: Option<((NodeId, StorageTier), f64)> = None;
        for node in nodes.node_ids() {
            if !nodes.is_alive(node) {
                continue;
            }
            let excluded = exclude_nodes.contains(&node);
            if excluded && !(allow_preferred_excluded && prefer_node == Some(node)) {
                continue;
            }
            for &tier in candidate_tiers {
                if !fits(p, nodes, node, tier, size) {
                    continue;
                }
                let s = score(p, nodes, node, tier, tier_uses, prefer_node);
                let better = match &best {
                    Some((_, bs)) => s > *bs + 1e-12,
                    None => true,
                };
                if better {
                    best = Some(((node, tier), s));
                }
            }
        }
        best.map(|(c, _)| c)
    }

    pub(super) fn place_new_block(
        p: &PlacementPolicy,
        nodes: &NodeManager,
        size: ByteSize,
        n_replicas: u32,
    ) -> Vec<(NodeId, StorageTier)> {
        let mut chosen: Vec<(NodeId, StorageTier)> = Vec::with_capacity(n_replicas as usize);
        let mut tier_uses = [0u32; 3];
        let mut exclude = Vec::new();
        for _ in 0..n_replicas {
            let Some((node, tier)) = best_candidate(
                p,
                nodes,
                size,
                &p.allowed_initial_tiers,
                &exclude,
                &tier_uses,
                None,
                false,
            ) else {
                break;
            };
            tier_uses[tier.index()] += 1;
            exclude.push(node);
            chosen.push((node, tier));
        }
        chosen
    }

    pub(super) fn place_move(
        p: &PlacementPolicy,
        nodes: &NodeManager,
        block: &BlockInfo,
        allowed_tiers: &[StorageTier],
        from_node: NodeId,
    ) -> Option<(NodeId, StorageTier)> {
        let exclude: Vec<NodeId> = block.nodes().collect();
        let mut tier_uses = [0u32; 3];
        for r in block.replicas() {
            tier_uses[r.tier.index()] += 1;
        }
        best_candidate(
            p,
            nodes,
            block.size,
            allowed_tiers,
            &exclude,
            &tier_uses,
            Some(from_node),
            true,
        )
    }

    pub(super) fn place_copy(
        p: &PlacementPolicy,
        nodes: &NodeManager,
        block: &BlockInfo,
        tier: StorageTier,
    ) -> Option<(NodeId, StorageTier)> {
        let holders: Vec<NodeId> = block.nodes().collect();
        let mut best: Option<((NodeId, StorageTier), f64)> = None;
        let tier_uses = [0u32; 3];
        for r in block.replicas() {
            if r.tier == tier || r.dead || !nodes.is_alive(r.node) {
                continue;
            }
            if block.replica_at(r.node, tier).is_some() {
                continue;
            }
            if !fits(p, nodes, r.node, tier, block.size) {
                continue;
            }
            let s = score(p, nodes, r.node, tier, &tier_uses, None);
            if best.as_ref().is_none_or(|(_, bs)| s > *bs + 1e-12) {
                best = Some(((r.node, tier), s));
            }
        }
        if best.is_some() {
            return best.map(|(c, _)| c);
        }
        best_candidate(
            p,
            nodes,
            block.size,
            &[tier],
            &holders,
            &tier_uses,
            None,
            false,
        )
    }

    pub(super) fn place_repair(
        p: &PlacementPolicy,
        nodes: &NodeManager,
        block: &BlockInfo,
        tier: StorageTier,
        extra_exclude: &[NodeId],
    ) -> Option<(NodeId, StorageTier)> {
        let mut exclude: Vec<NodeId> = block.nodes().collect();
        exclude.extend_from_slice(extra_exclude);
        let mut tier_uses = [0u32; 3];
        for r in block.replicas() {
            tier_uses[r.tier.index()] += 1;
        }
        best_candidate(
            p,
            nodes,
            block.size,
            &[tier],
            &exclude,
            &tier_uses,
            None,
            false,
        )
    }

    pub(super) fn place_shard(
        p: &PlacementPolicy,
        nodes: &NodeManager,
        shard_size: ByteSize,
        tier: StorageTier,
        exclude_nodes: &[NodeId],
    ) -> Option<(NodeId, StorageTier)> {
        best_candidate(
            p,
            nodes,
            shard_size,
            &[tier],
            exclude_nodes,
            &[0u32; 3],
            None,
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockManager;
    use crate::config::DfsConfig;
    use octo_common::FileId;
    use proptest::prelude::*;

    fn small_cluster() -> (DfsConfig, NodeManager) {
        let config = DfsConfig {
            workers: 4,
            ..DfsConfig::default()
        };
        let nodes = NodeManager::new(&config);
        (config, nodes)
    }

    fn policy() -> PlacementPolicy {
        PlacementPolicy::new(PlacementWeights::default(), 0.95)
    }

    #[test]
    fn empty_cluster_places_one_replica_per_tier() {
        let (_, nodes) = small_cluster();
        let placed = policy().place_new_block(&nodes, ByteSize::mb(128), 3);
        assert_eq!(placed.len(), 3);
        let tiers: Vec<StorageTier> = placed.iter().map(|(_, t)| *t).collect();
        assert_eq!(
            tiers,
            vec![StorageTier::Memory, StorageTier::Ssd, StorageTier::Hdd],
            "OctopusFS spreads the three replicas over the three tiers"
        );
        // Fault tolerance: three distinct nodes.
        let mut ns: Vec<NodeId> = placed.iter().map(|(n, _)| *n).collect();
        ns.dedup();
        assert_eq!(ns.len(), 3);
    }

    #[test]
    fn full_memory_shifts_placement_to_disk_tiers() {
        let (_, mut nodes) = small_cluster();
        // Fill every node's memory beyond the fill limit.
        for n in 0..4 {
            nodes
                .reserve(
                    NodeId(n),
                    StorageTier::Memory,
                    ByteSize::from_mb_f64(3900.0),
                )
                .unwrap();
        }
        let placed = policy().place_new_block(&nodes, ByteSize::mb(128), 3);
        assert_eq!(placed.len(), 3);
        assert!(
            placed.iter().all(|(_, t)| *t != StorageTier::Memory),
            "memory above the fill limit must not receive replicas: {placed:?}"
        );
        // Replicas split across SSD and HDD (1+2 or 2+1).
        let ssd = placed
            .iter()
            .filter(|(_, t)| *t == StorageTier::Ssd)
            .count();
        assert!(ssd == 1 || ssd == 2);
    }

    #[test]
    fn data_balance_spreads_nodes() {
        let (_, mut nodes) = small_cluster();
        // Node 0's memory is much fuller than the others'.
        nodes
            .reserve(NodeId(0), StorageTier::Memory, ByteSize::gb(3))
            .unwrap();
        let placed = policy().place_new_block(&nodes, ByteSize::mb(128), 1);
        assert_eq!(placed.len(), 1);
        assert_ne!(
            placed[0].0,
            NodeId(0),
            "placement should avoid the full node"
        );
        assert_eq!(placed[0].1, StorageTier::Memory);
    }

    #[test]
    fn restricted_initial_tiers() {
        let (_, nodes) = small_cluster();
        let mut p = policy();
        p.restrict_initial_tiers(&[StorageTier::Hdd]);
        let placed = p.place_new_block(&nodes, ByteSize::mb(128), 3);
        assert_eq!(placed.len(), 3);
        assert!(placed.iter().all(|(_, t)| *t == StorageTier::Hdd));
    }

    #[test]
    fn degraded_replication_when_cluster_tiny() {
        let config = DfsConfig {
            workers: 2,
            ..DfsConfig::default()
        };
        let nodes = NodeManager::new(&config);
        // 3 replicas requested but only 2 nodes exist.
        let placed = policy().place_new_block(&nodes, ByteSize::mb(128), 3);
        assert_eq!(placed.len(), 2, "one replica per node maximum");
    }

    #[test]
    fn move_prefers_source_node() {
        let (_, nodes) = small_cluster();
        let mut bm = BlockManager::new();
        let b = bm.create_block(FileId(0), 0, ByteSize::mb(128));
        bm.add_replica(b, NodeId(2), StorageTier::Memory).unwrap();
        bm.add_replica(b, NodeId(1), StorageTier::Hdd).unwrap();
        let target = policy()
            .place_move(&nodes, bm.block(b), &[StorageTier::Ssd], NodeId(2))
            .expect("ssd has room");
        assert_eq!(target, (NodeId(2), StorageTier::Ssd), "on-node move wins");
    }

    #[test]
    fn move_avoids_nodes_with_other_replicas() {
        let config = DfsConfig {
            workers: 2,
            ..DfsConfig::default()
        };
        let nodes = NodeManager::new(&config);
        let mut bm = BlockManager::new();
        let b = bm.create_block(FileId(0), 0, ByteSize::mb(128));
        bm.add_replica(b, NodeId(0), StorageTier::Memory).unwrap();
        bm.add_replica(b, NodeId(1), StorageTier::Ssd).unwrap();
        // Moving the memory replica down: node 1 already has a copy, so the
        // only legal destination is node 0 itself.
        let target = policy()
            .place_move(
                &nodes,
                bm.block(b),
                &[StorageTier::Ssd, StorageTier::Hdd],
                NodeId(0),
            )
            .expect("node 0 has room");
        assert_eq!(target.0, NodeId(0));
    }

    #[test]
    fn copy_colocates_with_existing_replica() {
        let (_, nodes) = small_cluster();
        let mut bm = BlockManager::new();
        let b = bm.create_block(FileId(0), 0, ByteSize::mb(128));
        bm.add_replica(b, NodeId(3), StorageTier::Hdd).unwrap();
        let target = policy()
            .place_copy(&nodes, bm.block(b), StorageTier::Memory)
            .expect("memory has room");
        assert_eq!(
            target,
            (NodeId(3), StorageTier::Memory),
            "cache copy lands next to the disk copy"
        );
    }

    #[test]
    fn dead_nodes_never_receive_placements() {
        let (_, mut nodes) = small_cluster();
        nodes.set_alive(NodeId(0), false);
        nodes.set_alive(NodeId(1), false);
        let placed = policy().place_new_block(&nodes, ByteSize::mb(128), 3);
        assert_eq!(placed.len(), 2, "only two nodes alive");
        assert!(placed.iter().all(|(n, _)| n.index() >= 2), "{placed:?}");
    }

    #[test]
    fn repair_placement_avoids_all_holders_dead_included() {
        let (_, nodes) = small_cluster();
        let mut bm = BlockManager::new();
        let b = bm.create_block(FileId(0), 0, ByteSize::mb(128));
        bm.add_replica(b, NodeId(0), StorageTier::Hdd).unwrap();
        bm.set_dead(b, NodeId(0), StorageTier::Hdd, true).unwrap();
        bm.add_replica(b, NodeId(1), StorageTier::Ssd).unwrap();
        let target = policy()
            .place_repair(&nodes, bm.block(b), StorageTier::Hdd, &[])
            .expect("hdd has room");
        assert_eq!(target.1, StorageTier::Hdd);
        assert!(
            target.0 != NodeId(0) && target.0 != NodeId(1),
            "repair must land on a fresh node, got {target:?}"
        );
    }

    #[test]
    fn nothing_fits_returns_empty() {
        let config = DfsConfig {
            workers: 1,
            replication: 1,
            ..DfsConfig::default()
        };
        let mut nodes = NodeManager::new(&config);
        for t in StorageTier::ALL {
            let cap = nodes.device(NodeId(0), t).capacity();
            nodes.reserve(NodeId(0), t, cap).unwrap();
        }
        let placed = policy().place_new_block(&nodes, ByteSize::mb(128), 1);
        assert!(placed.is_empty());
    }

    /// The tiers whose bit is set in `mask`, in `StorageTier::ALL` order.
    fn tier_set(mask: u64) -> Vec<StorageTier> {
        StorageTier::ALL
            .into_iter()
            .filter(|t| mask >> t.index() & 1 == 1)
            .collect()
    }

    /// A block of `size` with up to three replicas on distinct devices,
    /// some dead, drawn from `bits`.
    fn random_block(workers: u32, size: ByteSize, bits: u64) -> BlockInfo {
        let mut bm = BlockManager::new();
        let b = bm.create_block(FileId(0), 0, size);
        let mut bits = bits;
        for _ in 0..=(bits % 3) {
            bits /= 3;
            let node = NodeId((bits % workers as u64) as u32);
            bits /= workers as u64;
            let tier = StorageTier::ALL[(bits % 3) as usize];
            bits /= 3;
            if bm.add_replica(b, node, tier).is_ok() && bits.is_multiple_of(4) {
                bm.set_dead(b, node, tier, true).unwrap();
            }
            bits /= 4;
        }
        bm.block(b).clone()
    }

    /// Up to three nodes drawn from `bits`.
    fn random_nodes(workers: u32, bits: u64) -> Vec<NodeId> {
        let mut bits = bits;
        let mut out = Vec::new();
        for _ in 0..(bits % 4) {
            bits /= 4;
            out.push(NodeId((bits % workers as u64) as u32));
            bits /= workers as u64;
        }
        out
    }

    /// Bytes that exactly fill `(node, tier)` to its admission limit, or
    /// overshoot it by one, or a round size.
    fn random_size(p: &PlacementPolicy, nodes: &NodeManager, pick: u64, node: NodeId) -> ByteSize {
        let tier = StorageTier::ALL[(pick % 3) as usize];
        let d = nodes.device(node, tier);
        let limit = (d.capacity().as_bytes() as f64 * p.fill_limit) as u64;
        let room = limit.saturating_sub(d.committed().as_bytes());
        match pick / 3 % 4 {
            0 => ByteSize::from_bytes(room.max(1)),
            1 => ByteSize::from_bytes(room + 1),
            _ => ByteSize::mb(1 + pick / 12 % 48),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every entry point answers exactly as the reference scan after
        /// any mix of device mutations, liveness changes and placements,
        /// on 1–40 nodes of equal capacity (so exact ties occur), with a
        /// second manager swapped in at times. The scan's own debug
        /// assertions check every cell it reads against the device.
        #[test]
        fn prop_table_scan_matches_the_reference(
            workers in 1u32..41,
            initial in 0u64..8,
            ops in proptest::collection::vec((0u8..15, 0u32..80, 0u64..1 << 40), 1..160),
        ) {
            let config = DfsConfig {
                workers,
                tier_capacity: octo_common::PerTier::from_fn(|t| match t {
                    StorageTier::Memory => ByteSize::mb(40),
                    StorageTier::Ssd => ByteSize::mb(120),
                    StorageTier::Hdd => ByteSize::mb(400),
                }),
                ..DfsConfig::default()
            };
            let mut p = policy();
            if initial > 0 {
                p.restrict_initial_tiers(&tier_set(initial));
            }
            let mut current = NodeManager::new(&config);
            let mut other = current.clone();
            for (kind, n, bits) in ops {
                // Half the ops hit nodes 0–2, so mutations meet placements
                // on the same devices.
                let node = NodeId(if n < 40 { n } else { n % 3 } % workers);
                let tier = StorageTier::ALL[(bits % 3) as usize];
                let d = current.device(node, tier).clone();
                let frac = |b: ByteSize| ByteSize::from_bytes(b.as_bytes() * (bits >> 2 & 3) / 3);
                match kind {
                    0 => {
                        let _ = current.reserve(node, tier, ByteSize::mb(1 + (bits >> 2) % 64));
                    }
                    1 => current.commit_reserved(node, tier, frac(d.reserved())),
                    2 => current.release_reserved(node, tier, frac(d.reserved())),
                    3 => current.free_used(node, tier, frac(d.used())),
                    4 => current.io_started(node, tier),
                    5 if d.active_io() > 0 => current.io_finished(node, tier),
                    6 => current.set_alive(node, bits >> 2 & 1 == 1),
                    7 => std::mem::swap(&mut current, &mut other),
                    8 | 9 => {
                        let size = random_size(&p, &current, bits, node);
                        let replicas = 1 + (bits >> 8) as u32 % 3;
                        let want = reference::place_new_block(&p, &current, size, replicas);
                        prop_assert_eq!(p.place_new_block(&current, size, replicas), want);
                    }
                    10 | 11 => {
                        let size = random_size(&p, &current, bits, node);
                        let block = random_block(workers, size, bits >> 8);
                        let allowed = tier_set(bits >> 4);
                        // The source is a holder (preferred although
                        // excluded) or any node.
                        let from = if kind == 10 {
                            block.replicas().first().map_or(node, |r| r.node)
                        } else {
                            node
                        };
                        let want = reference::place_move(&p, &current, &block, &allowed, from);
                        prop_assert_eq!(p.place_move(&current, &block, &allowed, from), want);
                    }
                    12 => {
                        let size = random_size(&p, &current, bits, node);
                        let block = random_block(workers, size, bits >> 8);
                        let want = reference::place_copy(&p, &current, &block, tier);
                        prop_assert_eq!(p.place_copy(&current, &block, tier), want);
                    }
                    13 => {
                        let size = random_size(&p, &current, bits, node);
                        let block = random_block(workers, size, bits >> 8);
                        let extra = random_nodes(workers, bits >> 24);
                        let want = reference::place_repair(&p, &current, &block, tier, &extra);
                        prop_assert_eq!(p.place_repair(&current, &block, tier, &extra), want);
                    }
                    14 => {
                        let size = random_size(&p, &current, bits, node);
                        let exclude = random_nodes(workers, bits >> 8);
                        let want = reference::place_shard(&p, &current, size, tier, &exclude);
                        prop_assert_eq!(p.place_shard(&current, size, tier, &exclude), want);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn a_clone_gets_a_fresh_id_and_is_read_afresh() {
        let (_, mut a) = small_cluster();
        let mut p = policy();
        let first = p.place_new_block(&a, ByteSize::mb(128), 1);
        let mut b = a.clone();
        assert_ne!(a.id(), b.id());
        // The same number of changes to node 0 on both, to different
        // effect: only the manager's id tells the table which it read.
        a.io_started(first[0].0, first[0].1);
        b.reserve(first[0].0, first[0].1, ByteSize::gb(3)).unwrap();
        assert_eq!(a.changes(first[0].0), b.changes(first[0].0));
        for nodes in [&a, &b, &a] {
            let want = reference::place_new_block(&p, nodes, ByteSize::mb(128), 3);
            assert_eq!(p.place_new_block(nodes, ByteSize::mb(128), 3), want);
        }
    }
}
