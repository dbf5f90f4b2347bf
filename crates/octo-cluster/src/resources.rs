//! Mapping from cluster hardware to flow-model resources.

use octo_common::{NodeId, StorageTier};
use octo_dfs::{nic_bandwidth_bps, tier_bandwidth_bps, DfsConfig};
use octo_simkit::{FlowModel, ResourceId};

/// Resource handles for every device and NIC in the cluster.
#[derive(Debug, Clone)]
pub struct ResourceMap {
    devices: Vec<[ResourceId; 3]>,
    nics: Vec<ResourceId>,
}

impl ResourceMap {
    /// Registers one resource per `(node, tier)` device and one per NIC.
    pub fn new(config: &DfsConfig, flows: &mut FlowModel) -> Self {
        let mut devices = Vec::with_capacity(config.workers as usize);
        let mut nics = Vec::with_capacity(config.workers as usize);
        for _ in 0..config.workers {
            let d = [
                flows.add_resource(tier_bandwidth_bps(StorageTier::Memory)),
                flows.add_resource(tier_bandwidth_bps(StorageTier::Ssd)),
                flows.add_resource(tier_bandwidth_bps(StorageTier::Hdd)),
            ];
            devices.push(d);
            nics.push(flows.add_resource(nic_bandwidth_bps()));
        }
        ResourceMap { devices, nics }
    }

    /// The resource of a storage device.
    pub fn device(&self, node: NodeId, tier: StorageTier) -> ResourceId {
        self.devices[node.index()][tier.index()]
    }

    /// The resource of a node's NIC.
    pub fn nic(&self, node: NodeId) -> ResourceId {
        self.nics[node.index()]
    }

    /// Path for reading `bytes` from `(src_node, tier)` into `dst_node`.
    pub fn read_path(&self, src: (NodeId, StorageTier), dst_node: NodeId) -> Vec<ResourceId> {
        if src.0 == dst_node {
            vec![self.device(src.0, src.1)]
        } else {
            vec![
                self.device(src.0, src.1),
                self.nic(src.0),
                self.nic(dst_node),
            ]
        }
    }

    /// Path for a replication pipeline writing one block to `replicas`:
    /// every destination device plus the NICs of all distinct nodes when the
    /// pipeline crosses the network (HDFS chain replication — the write
    /// rate is bottlenecked by the slowest element, §3.1).
    pub fn write_pipeline_path(&self, replicas: &[(NodeId, StorageTier)]) -> Vec<ResourceId> {
        let mut path: Vec<ResourceId> = replicas.iter().map(|(n, t)| self.device(*n, *t)).collect();
        let mut nodes: Vec<NodeId> = replicas.iter().map(|(n, _)| *n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.len() > 1 {
            for n in nodes {
                path.push(self.nic(n));
            }
        }
        path
    }

    /// Path for moving one block from `src` to `dst` (tier transfer).
    pub fn transfer_path(
        &self,
        src: (NodeId, StorageTier),
        dst: (NodeId, StorageTier),
    ) -> Vec<ResourceId> {
        let mut path = vec![self.device(src.0, src.1), self.device(dst.0, dst.1)];
        if src.0 != dst.0 {
            path.push(self.nic(src.0));
            path.push(self.nic(dst.0));
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> (ResourceMap, FlowModel) {
        let mut flows = FlowModel::new();
        let cfg = DfsConfig {
            workers: 3,
            ..DfsConfig::default()
        };
        (ResourceMap::new(&cfg, &mut flows), flows)
    }

    #[test]
    fn resources_are_distinct() {
        let (m, flows) = map();
        let mut all = Vec::new();
        for n in 0..3u32 {
            for t in StorageTier::ALL {
                all.push(m.device(NodeId(n), t));
            }
            all.push(m.nic(NodeId(n)));
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "every device/NIC gets its own resource");
        // 3 nodes × (3 devices + 1 nic) = 12 resources registered.
        assert!(flows.capacity(m.nic(NodeId(0))) > 0.0);
    }

    #[test]
    fn local_read_path_has_no_nic() {
        let (m, _) = map();
        let p = m.read_path((NodeId(1), StorageTier::Ssd), NodeId(1));
        assert_eq!(p, vec![m.device(NodeId(1), StorageTier::Ssd)]);
    }

    #[test]
    fn remote_read_crosses_both_nics() {
        let (m, _) = map();
        let p = m.read_path((NodeId(0), StorageTier::Hdd), NodeId(2));
        assert_eq!(p.len(), 3);
        assert!(p.contains(&m.nic(NodeId(0))));
        assert!(p.contains(&m.nic(NodeId(2))));
    }

    #[test]
    fn write_pipeline_includes_all_devices() {
        let (m, _) = map();
        let replicas = vec![
            (NodeId(0), StorageTier::Memory),
            (NodeId(1), StorageTier::Ssd),
            (NodeId(2), StorageTier::Hdd),
        ];
        let p = m.write_pipeline_path(&replicas);
        // 3 devices + 3 NICs.
        assert_eq!(p.len(), 6);
        // Single-node single-replica write: no NIC.
        let p1 = m.write_pipeline_path(&[(NodeId(0), StorageTier::Hdd)]);
        assert_eq!(p1.len(), 1);
    }

    #[test]
    fn transfer_path_local_vs_remote() {
        let (m, _) = map();
        let local = m.transfer_path(
            (NodeId(0), StorageTier::Memory),
            (NodeId(0), StorageTier::Ssd),
        );
        assert_eq!(local.len(), 2);
        let remote = m.transfer_path(
            (NodeId(0), StorageTier::Memory),
            (NodeId(1), StorageTier::Ssd),
        );
        assert_eq!(remote.len(), 4);
    }
}
