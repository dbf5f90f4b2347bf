//! Block-cache configuration.

use octo_common::{ByteSize, OctoError, Result, SimDuration};

use super::CacheLevel;

/// Fixed per-hit latency of an L1 lookup.
const L1_LATENCY: SimDuration = SimDuration::from_millis(1);

/// Fixed per-hit latency of an L2 lookup.
const L2_LATENCY: SimDuration = SimDuration::from_millis(5);

/// L1 service bandwidth in binary gigabytes per second.
const L1_GBPS: f64 = 12.0;

/// L2 service bandwidth in binary gigabytes per second.
const L2_GBPS: f64 = 2.0;

/// Configuration of the sharded L1 (memory) / L2 (SSD) block cache.
///
/// The default is **disabled** — a `ClusterSim` built with
/// `CacheConfig::default()` is bit-identical to one built before the cache
/// existed, which is what keeps every pre-cache golden digest byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Master switch. When false the simulator never constructs a cache
    /// and the read path is untouched.
    pub enabled: bool,
    /// Total L1 (memory) capacity in bytes, split evenly across shards.
    pub l1_capacity: ByteSize,
    /// Total L2 (SSD) capacity in *charged* bytes, split evenly across
    /// shards. With compression enabled a block charges
    /// `ceil(size × l2_compression_ratio)` against this budget.
    pub l2_capacity: ByteSize,
    /// Shard count; must be a power of two. Each shard owns its own LRU
    /// orders and frequency sketch, so one global hot key cannot serialize
    /// the whole cache (and invalidation walks stay bounded).
    pub shards: usize,
    /// TinyLFU-style admission control on L1: an insert (or an L2→L1
    /// promotion) only displaces the LRU victim when the candidate's
    /// sketched frequency is strictly higher. When false every insert is
    /// admitted (plain LRU).
    pub admission: bool,
    /// Counters per row of each shard's frequency sketch (rounded up to a
    /// power of two). Bigger widths mean fewer collisions per aging window.
    pub sketch_width: usize,
    /// Charged-byte multiplier for L2 residency, modelling transparent
    /// payload compression on the SSD level: `1.0` stores raw bytes,
    /// `0.6` models a 40 % compression saving. Charges always round up and
    /// never drop below one byte, so accounting stays conservative.
    pub l2_compression_ratio: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            l1_capacity: ByteSize::mb(512),
            l2_capacity: ByteSize::gb(4),
            shards: 8,
            admission: true,
            sketch_width: 1024,
            l2_compression_ratio: 1.0,
        }
    }
}

impl CacheConfig {
    /// An enabled cache with the given level capacities and the remaining
    /// knobs at their defaults.
    pub fn enabled(l1: ByteSize, l2: ByteSize) -> Self {
        CacheConfig {
            enabled: true,
            l1_capacity: l1,
            l2_capacity: l2,
            ..CacheConfig::default()
        }
    }

    /// Validates the configuration, returning the first problem found
    /// (same contract as `DfsConfig::validate`). Checked at simulator
    /// construction — *before* any cache charge is computed — so a
    /// non-finite or >1 compression ratio or a zero-byte per-shard
    /// capacity is rejected up front instead of silently mischarging L2.
    pub fn validate(&self) -> Result<()> {
        if self.shards < 1 || !self.shards.is_power_of_two() {
            return Err(OctoError::Config(format!(
                "cache shards must be a power of two, got {}",
                self.shards
            )));
        }
        if !(self.l2_compression_ratio.is_finite()
            && self.l2_compression_ratio > 0.0
            && self.l2_compression_ratio <= 1.0)
        {
            return Err(OctoError::Config(format!(
                "l2_compression_ratio must be in (0, 1], got {}",
                self.l2_compression_ratio
            )));
        }
        if self.sketch_width < 1 {
            return Err(OctoError::Config("sketch width must be non-zero".into()));
        }
        if self.enabled {
            // Capacities are split evenly across shards; a level whose
            // per-shard slice rounds to zero bytes could never admit a
            // block and would evict everything it touches.
            for (level, cap) in [("L1", self.l1_capacity), ("L2", self.l2_capacity)] {
                if cap.as_bytes() / self.shards as u64 == 0 {
                    return Err(OctoError::Config(format!(
                        "cache {level} capacity {} splits to zero bytes per \
                         shard across {} shards",
                        cap.as_bytes(),
                        self.shards
                    )));
                }
            }
        }
        Ok(())
    }

    /// The charged L2 residency of a `bytes`-byte payload: compression is
    /// an accounting model, so the charge rounds up and never reaches zero
    /// for a non-empty block.
    pub fn l2_charge(&self, bytes: ByteSize) -> ByteSize {
        let raw = bytes.as_bytes();
        if raw == 0 {
            return ByteSize::ZERO;
        }
        let charged = (raw as f64 * self.l2_compression_ratio).ceil() as u64;
        ByteSize::from_bytes(charged.max(1))
    }
}

impl CacheLevel {
    /// Service time of a `bytes`-byte hit at this level: fixed per-level
    /// latency plus the transfer at the level's bandwidth. This is what a
    /// hit costs *instead of* a flow through the cluster bandwidth model.
    pub fn service_time(self, bytes: ByteSize) -> SimDuration {
        let (latency, gbps) = match self {
            CacheLevel::L1 => (L1_LATENCY, L1_GBPS),
            CacheLevel::L2 => (L2_LATENCY, L2_GBPS),
        };
        latency + SimDuration::from_secs_f64(bytes.as_gb_f64() / gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert!(!CacheConfig::default().enabled);
        assert!(CacheConfig::default().validate().is_ok());
    }

    #[test]
    fn l2_charge_rounds_up_and_never_hits_zero() {
        let mut cfg = CacheConfig {
            l2_compression_ratio: 0.6,
            ..CacheConfig::default()
        };
        assert_eq!(
            cfg.l2_charge(ByteSize::from_bytes(10)),
            ByteSize::from_bytes(6)
        );
        assert_eq!(
            cfg.l2_charge(ByteSize::from_bytes(1)),
            ByteSize::from_bytes(1)
        );
        assert_eq!(cfg.l2_charge(ByteSize::ZERO), ByteSize::ZERO);
        cfg.l2_compression_ratio = 1.0;
        assert_eq!(cfg.l2_charge(ByteSize::mb(128)), ByteSize::mb(128));
    }

    #[test]
    fn service_time_is_latency_plus_transfer() {
        let t = CacheLevel::L1.service_time(ByteSize::gb(12));
        // 12 GB at 12 GB/s = 1 s, plus 1 ms latency.
        assert_eq!(t, SimDuration::from_millis(1001));
        let t2 = CacheLevel::L2.service_time(ByteSize::gb(2));
        assert_eq!(t2, SimDuration::from_millis(1005));
    }

    #[test]
    fn rejects_non_power_of_two_shards() {
        let cfg = CacheConfig {
            shards: 3,
            ..CacheConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_out_of_range_compression_ratios() {
        // Each of these would mischarge L2 (or divide by NaN) if allowed
        // through to `l2_charge`.
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = CacheConfig {
                l2_compression_ratio: bad,
                ..CacheConfig::default()
            };
            let err = cfg.validate().expect_err("ratio must be rejected");
            assert_eq!(err.kind(), "config", "ratio {bad} -> {err}");
        }
        // The boundary 1.0 (no compression) is valid.
        assert!(CacheConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_zero_byte_per_shard_capacities_when_enabled() {
        // 7 bytes over 8 shards rounds to zero per shard.
        let l1_starved = CacheConfig::enabled(ByteSize::from_bytes(7), ByteSize::gb(4));
        assert!(l1_starved.validate().is_err());
        let l2_starved = CacheConfig::enabled(ByteSize::mb(512), ByteSize::ZERO);
        assert!(l2_starved.validate().is_err());
        // A *disabled* cache never charges, so its capacities are not
        // constrained (the default must keep validating for every
        // pre-cache golden config).
        let disabled = CacheConfig {
            l1_capacity: ByteSize::ZERO,
            ..CacheConfig::default()
        };
        assert!(disabled.validate().is_ok());
    }

    #[test]
    fn rejects_zero_sketch_width() {
        let no_sketch = CacheConfig {
            sketch_width: 0,
            ..CacheConfig::default()
        };
        assert!(no_sketch.validate().is_err());
    }
}
