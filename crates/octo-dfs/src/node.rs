//! Worker nodes and their storage devices (the Node Manager of Figure 3).
//!
//! Space accounting distinguishes *used* bytes (replicas materialized on the
//! device) from *reserved* bytes (in-flight transfers that will land soon).
//! Placement and the downgrade trigger both work on `used + reserved`, so an
//! already-scheduled transfer can never oversubscribe its destination.
//!
//! Every node carries a change counter. Each call that can change one of
//! its devices (reserve, commit, release, free, `io_started`,
//! `io_finished`) or its liveness (`set_alive`) bumps it, so placement
//! re-reads a node only when its counter moved since the last read. A
//! manager also has a process-unique id, fresh for every clone, so a
//! placement table never mistakes one manager's devices for another's.

use crate::config::DfsConfig;
use octo_common::{ByteSize, NodeId, OctoError, PerTier, Result, StorageTier};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// One storage device: a tier's medium on one node.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Device {
    capacity: ByteSize,
    used: ByteSize,
    reserved: ByteSize,
    /// Number of I/O streams the compute layer currently runs against this
    /// device (load-balancing input for placement).
    active_io: u32,
}

impl Device {
    fn new(capacity: ByteSize) -> Self {
        Device {
            capacity,
            ..Device::default()
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes held by materialized replicas.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Bytes promised to in-flight transfers.
    pub fn reserved(&self) -> ByteSize {
        self.reserved
    }

    /// `used + reserved` — the number that matters for admission decisions.
    pub fn committed(&self) -> ByteSize {
        self.used + self.reserved
    }

    /// Fraction of capacity committed, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.committed().fraction_of(self.capacity)
    }

    /// Bytes still available for new commitments.
    pub fn free(&self) -> ByteSize {
        self.capacity.saturating_sub(self.committed())
    }

    /// Current I/O stream count.
    pub fn active_io(&self) -> u32 {
        self.active_io
    }
}

/// Hands out [`NodeManager`] ids. The id is only compared for equality and
/// publishes no other data, so `Relaxed` suffices.
static NEXT_MANAGER_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_manager_id() -> u64 {
    NEXT_MANAGER_ID.fetch_add(1, Ordering::Relaxed)
}

/// All workers' devices.
#[derive(Debug)]
pub struct NodeManager {
    nodes: Vec<PerTier<Device>>,
    /// Per-node liveness: dead nodes keep their space accounting (disk
    /// contents survive a crash) but accept no reservations and are
    /// skipped by placement.
    alive: Vec<bool>,
    /// Per-node change counter, bumped by every call that can change the
    /// node's devices or liveness.
    changes: Vec<u64>,
    /// Unique among the managers of this process, clones included.
    id: u64,
}

impl Clone for NodeManager {
    fn clone(&self) -> Self {
        NodeManager {
            nodes: self.nodes.clone(),
            alive: self.alive.clone(),
            changes: self.changes.clone(),
            id: fresh_manager_id(),
        }
    }
}

impl NodeManager {
    /// Builds the device inventory from the cluster config.
    pub fn new(config: &DfsConfig) -> Self {
        let nodes: Vec<PerTier<Device>> = (0..config.workers)
            .map(|_| PerTier::from_fn(|t| Device::new(*config.tier_capacity.get(t))))
            .collect();
        let alive = vec![true; nodes.len()];
        let changes = vec![0; nodes.len()];
        NodeManager {
            nodes,
            alive,
            changes,
            id: fresh_manager_id(),
        }
    }

    /// This manager's process-unique id.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// How many times `node`'s devices or liveness may have changed: equal
    /// counts mean nothing placement reads has changed in between.
    pub(crate) fn changes(&self, node: NodeId) -> u64 {
        self.changes[node.index()]
    }

    /// Number of worker nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no workers (never valid in practice).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Shared view of one device.
    pub fn device(&self, node: NodeId, tier: StorageTier) -> &Device {
        self.nodes[node.index()].get(tier)
    }

    /// The only way to a mutable device, so every mutation bumps the
    /// node's change counter.
    fn device_mut(&mut self, node: NodeId, tier: StorageTier) -> &mut Device {
        self.changes[node.index()] += 1;
        self.nodes[node.index()].get_mut(tier)
    }

    /// True while `node` is up. Dead nodes hold their data (minus memory)
    /// but serve nothing.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Number of nodes currently up.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Marks a node down. Idempotence is the caller's problem: the DFS
    /// facade rejects double-failures before touching accounting.
    pub fn set_alive(&mut self, node: NodeId, alive: bool) {
        self.changes[node.index()] += 1;
        self.alive[node.index()] = alive;
    }

    /// Reserves `bytes` on a device ahead of an incoming transfer.
    pub fn reserve(&mut self, node: NodeId, tier: StorageTier, bytes: ByteSize) -> Result<()> {
        if !self.is_alive(node) {
            return Err(OctoError::InvalidState(format!("{node} is down")));
        }
        let d = self.device_mut(node, tier);
        if d.free() < bytes {
            return Err(OctoError::OutOfCapacity(format!(
                "{node}/{tier}: need {bytes}, free {}",
                d.free()
            )));
        }
        d.reserved += bytes;
        Ok(())
    }

    /// Converts a prior reservation into used bytes (the transfer landed).
    pub fn commit_reserved(&mut self, node: NodeId, tier: StorageTier, bytes: ByteSize) {
        let d = self.device_mut(node, tier);
        debug_assert!(d.reserved >= bytes, "committing more than reserved");
        d.reserved = d.reserved.saturating_sub(bytes);
        d.used += bytes;
        debug_assert!(d.used + d.reserved <= d.capacity, "device oversubscribed");
    }

    /// Releases a reservation without materializing it (transfer cancelled).
    pub fn release_reserved(&mut self, node: NodeId, tier: StorageTier, bytes: ByteSize) {
        let d = self.device_mut(node, tier);
        debug_assert!(d.reserved >= bytes, "releasing more than reserved");
        d.reserved = d.reserved.saturating_sub(bytes);
    }

    /// Frees used bytes (replica deleted or moved away).
    pub fn free_used(&mut self, node: NodeId, tier: StorageTier, bytes: ByteSize) {
        let d = self.device_mut(node, tier);
        debug_assert!(d.used >= bytes, "freeing more than used");
        d.used = d.used.saturating_sub(bytes);
    }

    /// Registers an I/O stream starting against a device.
    pub fn io_started(&mut self, node: NodeId, tier: StorageTier) {
        self.device_mut(node, tier).active_io += 1;
    }

    /// Registers an I/O stream finishing.
    pub fn io_finished(&mut self, node: NodeId, tier: StorageTier) {
        let d = self.device_mut(node, tier);
        debug_assert!(d.active_io > 0, "io_finished without io_started");
        d.active_io = d.active_io.saturating_sub(1);
    }

    /// Cluster-wide `(committed, capacity)` for a tier.
    pub fn tier_usage(&self, tier: StorageTier) -> (ByteSize, ByteSize) {
        let mut committed = ByteSize::ZERO;
        let mut capacity = ByteSize::ZERO;
        for n in &self.nodes {
            let d = n.get(tier);
            committed += d.committed();
            capacity += d.capacity();
        }
        (committed, capacity)
    }

    /// Cluster-wide utilization fraction of a tier.
    pub fn tier_utilization(&self, tier: StorageTier) -> f64 {
        let (committed, capacity) = self.tier_usage(tier);
        committed.fraction_of(capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> NodeManager {
        NodeManager::new(&DfsConfig {
            workers: 3,
            ..DfsConfig::default()
        })
    }

    #[test]
    fn inventory_matches_config() {
        let m = mgr();
        assert_eq!(m.len(), 3);
        assert_eq!(
            m.device(NodeId(0), StorageTier::Memory).capacity(),
            ByteSize::gb(4)
        );
        let (used, cap) = m.tier_usage(StorageTier::Memory);
        assert_eq!(used, ByteSize::ZERO);
        assert_eq!(cap, ByteSize::gb(12));
    }

    #[test]
    fn reserve_commit_free_lifecycle() {
        let mut m = mgr();
        let n = NodeId(1);
        let t = StorageTier::Memory;
        m.reserve(n, t, ByteSize::gb(1)).unwrap();
        assert_eq!(m.device(n, t).reserved(), ByteSize::gb(1));
        assert_eq!(m.device(n, t).used(), ByteSize::ZERO);
        assert_eq!(m.device(n, t).free(), ByteSize::gb(3));

        m.commit_reserved(n, t, ByteSize::gb(1));
        assert_eq!(m.device(n, t).reserved(), ByteSize::ZERO);
        assert_eq!(m.device(n, t).used(), ByteSize::gb(1));

        m.free_used(n, t, ByteSize::gb(1));
        assert_eq!(m.device(n, t).used(), ByteSize::ZERO);
    }

    #[test]
    fn reservation_respects_capacity() {
        let mut m = mgr();
        let n = NodeId(0);
        let t = StorageTier::Memory;
        m.reserve(n, t, ByteSize::gb(4)).unwrap();
        let err = m.reserve(n, t, ByteSize::mb(1)).unwrap_err();
        assert_eq!(err.kind(), "out_of_capacity");
    }

    #[test]
    fn release_reverts_reservation() {
        let mut m = mgr();
        let n = NodeId(2);
        let t = StorageTier::Ssd;
        m.reserve(n, t, ByteSize::gb(2)).unwrap();
        m.release_reserved(n, t, ByteSize::gb(2));
        assert_eq!(m.device(n, t).free(), ByteSize::gb(64));
    }

    #[test]
    fn io_counters() {
        let mut m = mgr();
        let n = NodeId(0);
        m.io_started(n, StorageTier::Hdd);
        m.io_started(n, StorageTier::Hdd);
        assert_eq!(m.device(n, StorageTier::Hdd).active_io(), 2);
        m.io_finished(n, StorageTier::Hdd);
        assert_eq!(m.device(n, StorageTier::Hdd).active_io(), 1);
    }

    #[test]
    fn dead_nodes_reject_reservations() {
        let mut m = mgr();
        assert_eq!(m.alive_count(), 3);
        m.set_alive(NodeId(1), false);
        assert!(!m.is_alive(NodeId(1)));
        assert_eq!(m.alive_count(), 2);
        let err = m
            .reserve(NodeId(1), StorageTier::Ssd, ByteSize::mb(1))
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_state");
        m.set_alive(NodeId(1), true);
        m.reserve(NodeId(1), StorageTier::Ssd, ByteSize::mb(1))
            .unwrap();
    }

    #[test]
    fn tier_utilization_aggregates() {
        let mut m = mgr();
        // Fill one node's memory completely: cluster-wide = 1/3.
        m.reserve(NodeId(0), StorageTier::Memory, ByteSize::gb(4))
            .unwrap();
        m.commit_reserved(NodeId(0), StorageTier::Memory, ByteSize::gb(4));
        let u = m.tier_utilization(StorageTier::Memory);
        assert!((u - 1.0 / 3.0).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn every_mutation_bumps_only_its_nodes_counter() {
        let mut m = mgr();
        let (n, t) = (NodeId(1), StorageTier::Ssd);
        let steps: [&dyn Fn(&mut NodeManager); 7] = [
            &|m| m.reserve(n, t, ByteSize::gb(2)).unwrap(),
            &|m| m.commit_reserved(n, t, ByteSize::gb(1)),
            &|m| m.release_reserved(n, t, ByteSize::gb(1)),
            &|m| m.free_used(n, t, ByteSize::gb(1)),
            &|m| m.io_started(n, t),
            &|m| m.io_finished(n, t),
            &|m| m.set_alive(n, false),
        ];
        for (i, step) in steps.iter().enumerate() {
            let before = m.changes(n);
            step(&mut m);
            assert!(m.changes(n) > before, "step {i} did not bump");
        }
        assert_eq!(m.changes(NodeId(0)), 0);
        assert_eq!(m.changes(NodeId(2)), 0);
    }
}
