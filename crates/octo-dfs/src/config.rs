//! Cluster and file-system configuration.

use crate::stats::HeatConfig;
use octo_common::{ByteSize, OctoError, PerTier, Result, StorageTier};
use serde::{Deserialize, Serialize};

/// Per-device read/write bandwidth of each tier, in MB/s (binary MB),
/// indexed by [`StorageTier::index`]. Single-stream device throughputs,
/// consistent with the DFSIO throughputs of Figure 2: memory-backed
/// storage ~6 GB/s; SATA SSD ~500 MB/s; HDD ~130 MB/s sequential.
const TIER_BANDWIDTH_MBPS: [f64; 3] = [6000.0, 500.0, 130.0];

/// Per-node network interface bandwidth in MB/s (10 GbE, ~1.1 GB/s).
/// Remote reads and replication pipelines cross the NIC.
const NIC_BANDWIDTH_MBPS: f64 = 1100.0;

/// Bandwidth of one tier device in bytes/second.
pub fn tier_bandwidth_bps(tier: StorageTier) -> f64 {
    TIER_BANDWIDTH_MBPS[tier.index()] * ByteSize::MB as f64
}

/// NIC bandwidth in bytes/second.
pub fn nic_bandwidth_bps() -> f64 {
    NIC_BANDWIDTH_MBPS * ByteSize::MB as f64
}

/// How a tier protects block data against node and device loss.
///
/// The paper's engine replicates everywhere; production archives instead
/// erasure-code cold data at ~(k+m)/k byte overhead. The mode is *per tier*:
/// a block downgraded into an `Erasure`-configured tier is striped into
/// `k` data + `m` parity shards on distinct nodes (see [`crate::ec`]), and
/// de-striped again when upgraded back to a replicated tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RedundancyMode {
    /// Keep whole-block replicas; the factor is advisory (the global
    /// `replication` target still governs repair).
    Replicated(u32),
    /// Reed–Solomon erasure coding: any `k` of `k + m` shards reconstruct
    /// the block; up to `m` concurrent shard losses are survivable.
    Erasure { k: u8, m: u8 },
}

/// Static description of the cluster hardware and DFS parameters.
///
/// Defaults mirror the paper's testbed (§7): 11 workers, three tiers sized
/// 4 GB / 64 GB / 400 GB per node, 128 MB blocks and replication factor 3.
/// The device and NIC bandwidths are fixed (see [`tier_bandwidth_bps`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DfsConfig {
    /// Number of worker nodes storing blocks.
    pub workers: u32,
    /// File block size.
    pub block_size: ByteSize,
    /// Default number of replicas per block.
    pub replication: u32,
    /// Per-node capacity of each storage tier.
    pub tier_capacity: PerTier<ByteSize>,
    /// Per-tier redundancy mode. Defaults to `Replicated(replication)` on
    /// every tier, which is bit-identical to the pre-EC behavior; setting a
    /// cold tier to `Erasure { k, m }` makes downgrades into it stripe the
    /// block instead of moving a replica.
    pub redundancy: PerTier<RedundancyMode>,
    /// Parameters of the per-file decayed heat score the statistics
    /// registry maintains (input to the watermark policy family).
    pub heat: HeatConfig,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            workers: 11,
            block_size: ByteSize::mb(128),
            replication: 3,
            tier_capacity: PerTier::from_fn(|t| match t {
                StorageTier::Memory => ByteSize::gb(4),
                StorageTier::Ssd => ByteSize::gb(64),
                StorageTier::Hdd => ByteSize::gb(400),
            }),
            redundancy: PerTier::from_fn(|_| RedundancyMode::Replicated(3)),
            heat: HeatConfig::default(),
        }
    }
}

impl DfsConfig {
    /// Validates the configuration, returning the first problem found.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(OctoError::Config("workers must be >= 1".into()));
        }
        if self.block_size.is_zero() {
            return Err(OctoError::Config("block_size must be non-zero".into()));
        }
        if self.replication == 0 {
            return Err(OctoError::Config("replication must be >= 1".into()));
        }
        if self.replication > self.workers {
            return Err(OctoError::Config(format!(
                "replication {} exceeds worker count {}",
                self.replication, self.workers
            )));
        }
        for (tier, cap) in self.tier_capacity.iter() {
            if cap.is_zero() {
                return Err(OctoError::Config(format!("{tier} capacity is zero")));
            }
        }
        if self.heat.half_life.is_zero() {
            return Err(OctoError::Config("heat half_life must be non-zero".into()));
        }
        for (name, w) in [
            ("read_weight", self.heat.read_weight),
            ("write_weight", self.heat.write_weight),
        ] {
            if !(w.is_finite() && w >= 0.0) {
                return Err(OctoError::Config(format!(
                    "heat {name} must be finite and >= 0, got {w}"
                )));
            }
        }
        for (tier, mode) in self.redundancy.iter() {
            match *mode {
                RedundancyMode::Replicated(factor) => {
                    if factor == 0 {
                        return Err(OctoError::Config(format!(
                            "{tier} replication factor must be >= 1"
                        )));
                    }
                }
                RedundancyMode::Erasure { k, m } => {
                    if k == 0 || m == 0 {
                        return Err(OctoError::Config(format!(
                            "{tier} erasure coding needs k >= 1 and m >= 1"
                        )));
                    }
                    if k as u32 + m as u32 > self.workers {
                        return Err(OctoError::Config(format!(
                            "{tier} EC({k},{m}) needs {} distinct nodes but the \
                             cluster has {}",
                            k as u32 + m as u32,
                            self.workers
                        )));
                    }
                    if tier == StorageTier::Memory {
                        return Err(OctoError::Config(
                            "erasure coding on the memory tier is unsupported: \
                             crashes destroy DRAM shards faster than any m can \
                             cover"
                                .into(),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// `(k, m)` when `tier` is erasure-coded, `None` when it replicates.
    pub fn erasure_for(&self, tier: StorageTier) -> Option<(u8, u8)> {
        match *self.redundancy.get(tier) {
            RedundancyMode::Erasure { k, m } => Some((k, m)),
            RedundancyMode::Replicated(_) => None,
        }
    }

    /// Whether any tier is erasure-coded.
    pub fn has_erasure(&self) -> bool {
        StorageTier::ALL
            .iter()
            .any(|&t| self.erasure_for(t).is_some())
    }

    /// Total capacity of a tier across all workers.
    pub fn cluster_tier_capacity(&self, tier: StorageTier) -> ByteSize {
        *self.tier_capacity.get(tier) * self.workers as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = DfsConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.workers, 11);
        assert_eq!(c.block_size, ByteSize::mb(128));
        assert_eq!(c.replication, 3);
        assert_eq!(*c.tier_capacity.get(StorageTier::Memory), ByteSize::gb(4));
        // Aggregated memory: 44 GB — the paper's DFSIO curve bends at ~42 GB.
        assert_eq!(
            c.cluster_tier_capacity(StorageTier::Memory),
            ByteSize::gb(44)
        );
        assert_eq!(crate::stats::ACCESS_HISTORY, 12);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = |f: fn(&mut DfsConfig)| {
            let mut c = DfsConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.workers = 0));
        assert!(bad(|c| c.replication = 0));
        assert!(bad(|c| c.replication = 99));
        assert!(bad(|c| c.block_size = ByteSize::ZERO));
        assert!(bad(|c| c.heat.half_life = octo_common::SimDuration::ZERO));
        assert!(bad(|c| c.heat.read_weight = f64::NAN));
        assert!(bad(|c| c.heat.write_weight = -1.0));
        assert!(bad(
            |c| *c.tier_capacity.get_mut(StorageTier::Ssd) = ByteSize::ZERO
        ));
    }

    #[test]
    fn redundancy_validation() {
        let bad = |f: fn(&mut DfsConfig)| {
            let mut c = DfsConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        // Zero-sided codes and zero replication factors are rejected.
        assert!(bad(
            |c| *c.redundancy.get_mut(StorageTier::Hdd) = RedundancyMode::Erasure { k: 0, m: 2 }
        ));
        assert!(bad(
            |c| *c.redundancy.get_mut(StorageTier::Hdd) = RedundancyMode::Erasure { k: 4, m: 0 }
        ));
        assert!(bad(
            |c| *c.redundancy.get_mut(StorageTier::Ssd) = RedundancyMode::Replicated(0)
        ));
        // k + m must fit in the cluster.
        assert!(bad(|c| {
            c.workers = 5;
            *c.redundancy.get_mut(StorageTier::Hdd) = RedundancyMode::Erasure { k: 4, m: 2 };
        }));
        // Memory never erasure-codes.
        assert!(bad(
            |c| *c.redundancy.get_mut(StorageTier::Memory) = RedundancyMode::Erasure { k: 4, m: 2 }
        ));

        // EC(4,2) on the default 11-worker HDD tier is fine.
        let mut c = DfsConfig::default();
        *c.redundancy.get_mut(StorageTier::Hdd) = RedundancyMode::Erasure { k: 4, m: 2 };
        assert!(c.validate().is_ok());
        assert_eq!(c.erasure_for(StorageTier::Hdd), Some((4, 2)));
        assert_eq!(c.erasure_for(StorageTier::Ssd), None);
        assert!(c.has_erasure());
        assert!(!DfsConfig::default().has_erasure());
    }

    #[test]
    fn bandwidth_conversions() {
        assert_eq!(
            tier_bandwidth_bps(StorageTier::Hdd),
            130.0 * 1024.0 * 1024.0
        );
        assert_eq!(nic_bandwidth_bps(), 1100.0 * 1024.0 * 1024.0);
    }
}
