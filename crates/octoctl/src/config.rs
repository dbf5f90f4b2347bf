//! The `octoctl` JSON configuration file.
//!
//! One flat struct of primitives so the offline serde shim round-trips it
//! without attribute support; every field is required (run `octoctl init`
//! to generate a complete file). Paths derive from one base directory
//! using the conventional [`FsBackendConfig::under`] layout.

use octo_backend_fs::FsBackendConfig;
use octo_common::{ByteSize, OctoError, PerTier, Result, SimDuration, StorageTier};
use octo_dfs::HeatConfig;
use octo_policies::{PlanStrategy, PlannerConfig, TieringConfig};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Everything `octoctl` needs: where the tiers live, how big they are, and
/// how to score/throttle moves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OctoctlConfig {
    /// Base directory: tier roots `mem/`, `ssd/`, `hdd/` and `state/`
    /// (access stats, PID lock) live under it.
    pub base_dir: String,
    /// Declared capacity of the memory tier, bytes.
    pub mem_capacity_bytes: u64,
    /// Declared capacity of the SSD tier, bytes.
    pub ssd_capacity_bytes: u64,
    /// Declared capacity of the HDD tier, bytes.
    pub hdd_capacity_bytes: u64,
    /// Planner strategy name (`"watermark"`, `"hybrid"`, `"lru"`).
    pub strategy: String,
    /// Downgrades start above this utilization.
    pub start_threshold: f64,
    /// ... and stop below this one.
    pub stop_threshold: f64,
    /// Heat at or above which a file enters the hot band.
    pub watermark_hot: f64,
    /// Heat at or below which a file enters the cold band.
    pub watermark_cold: f64,
    /// Relative hysteresis width of the heat bands.
    pub watermark_hysteresis: f64,
    /// Heat half-life, milliseconds.
    pub heat_half_life_ms: u64,
    /// Heat added per read.
    pub heat_read_weight: f64,
    /// Heat granted at creation.
    pub heat_write_weight: f64,
    /// Cap on planned moves per cycle; `0` = unbounded.
    pub max_moves: u64,
    /// Copy bandwidth budget, bytes per second; `0` = unlimited.
    pub bandwidth_bytes_per_sec: u64,
    /// Daemon sleep between cycles, milliseconds.
    pub interval_ms: u64,
}

impl OctoctlConfig {
    /// A complete, working config rooted at `base` — what `octoctl init`
    /// writes. Capacities are deliberately tiny (a demo tree on a laptop),
    /// thresholds and heat parameters are the workspace defaults.
    pub fn example(base: &str) -> OctoctlConfig {
        let tiering = TieringConfig::default();
        let heat = HeatConfig::default();
        OctoctlConfig {
            base_dir: base.to_string(),
            mem_capacity_bytes: ByteSize::mb(8).as_bytes(),
            ssd_capacity_bytes: ByteSize::mb(32).as_bytes(),
            hdd_capacity_bytes: ByteSize::mb(128).as_bytes(),
            strategy: "watermark".to_string(),
            start_threshold: tiering.start_threshold,
            stop_threshold: tiering.stop_threshold,
            watermark_hot: tiering.watermark_hot,
            watermark_cold: tiering.watermark_cold,
            watermark_hysteresis: tiering.watermark_hysteresis,
            heat_half_life_ms: heat.half_life.as_millis(),
            heat_read_weight: heat.read_weight,
            heat_write_weight: heat.write_weight,
            max_moves: 0,
            bandwidth_bytes_per_sec: 0,
            interval_ms: 1000,
        }
    }

    /// Loads and validates a config file.
    pub fn load(path: &Path) -> Result<OctoctlConfig> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| OctoError::Config(format!("reading config {}: {e}", path.display())))?;
        let cfg: OctoctlConfig = serde_json::from_str(&text)
            .map_err(|e| OctoError::Config(format!("parsing config {}: {e}", path.display())))?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Field-level validation, mirroring `DfsConfig::validate` style.
    pub fn validate(&self) -> Result<()> {
        if self.base_dir.is_empty() {
            return Err(OctoError::Config("base_dir must not be empty".into()));
        }
        if self.strategy_enum().is_none() {
            return Err(OctoError::Config(format!(
                "unknown strategy {:?} (expected watermark, hybrid or lru)",
                self.strategy
            )));
        }
        for (name, cap) in [
            ("mem_capacity_bytes", self.mem_capacity_bytes),
            ("ssd_capacity_bytes", self.ssd_capacity_bytes),
            ("hdd_capacity_bytes", self.hdd_capacity_bytes),
        ] {
            if cap == 0 {
                return Err(OctoError::Config(format!("{name} must be positive")));
            }
        }
        for (name, v) in [
            ("start_threshold", self.start_threshold),
            ("stop_threshold", self.stop_threshold),
        ] {
            if !(v.is_finite() && 0.0 < v && v <= 1.0) {
                return Err(OctoError::Config(format!(
                    "{name} must be in (0, 1], got {v}"
                )));
            }
        }
        if self.stop_threshold > self.start_threshold {
            return Err(OctoError::Config(format!(
                "stop_threshold ({}) must not exceed start_threshold ({})",
                self.stop_threshold, self.start_threshold
            )));
        }
        for (name, v) in [
            ("watermark_hot", self.watermark_hot),
            ("watermark_cold", self.watermark_cold),
            ("watermark_hysteresis", self.watermark_hysteresis),
            ("heat_read_weight", self.heat_read_weight),
            ("heat_write_weight", self.heat_write_weight),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(OctoError::Config(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        if self.heat_half_life_ms == 0 {
            return Err(OctoError::Config(
                "heat_half_life_ms must be positive".into(),
            ));
        }
        Ok(())
    }

    fn strategy_enum(&self) -> Option<PlanStrategy> {
        PlanStrategy::by_name(&self.strategy)
    }

    /// The backend this config describes.
    pub fn backend_config(&self) -> FsBackendConfig {
        let caps = PerTier::from_fn(|t| match t {
            StorageTier::Memory => ByteSize::from_bytes(self.mem_capacity_bytes),
            StorageTier::Ssd => ByteSize::from_bytes(self.ssd_capacity_bytes),
            StorageTier::Hdd => ByteSize::from_bytes(self.hdd_capacity_bytes),
        });
        let mut be = FsBackendConfig::under(Path::new(&self.base_dir), caps);
        be.heat = self.heat_config();
        be.bandwidth_bytes_per_sec = self.bandwidth_bytes_per_sec;
        be
    }

    /// The heat-fold parameters this config describes.
    pub fn heat_config(&self) -> HeatConfig {
        HeatConfig {
            half_life: SimDuration::from_millis(self.heat_half_life_ms),
            read_weight: self.heat_read_weight,
            write_weight: self.heat_write_weight,
        }
    }

    /// The planner parameters this config describes.
    pub fn planner_config(&self) -> PlannerConfig {
        let tiering = TieringConfig {
            start_threshold: self.start_threshold,
            stop_threshold: self.stop_threshold,
            watermark_hot: self.watermark_hot,
            watermark_cold: self.watermark_cold,
            watermark_hysteresis: self.watermark_hysteresis,
            ..TieringConfig::default()
        };
        PlannerConfig {
            tiering,
            strategy: self.strategy_enum().expect("validated strategy"),
            max_moves: self.max_moves as usize,
        }
    }

    /// Where the daemon's PID lock lives.
    pub fn lock_path(&self) -> PathBuf {
        Path::new(&self.base_dir).join("state").join("octoctl.pid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_round_trips_and_validates() {
        let cfg = OctoctlConfig::example("/tmp/octo-demo");
        cfg.validate().unwrap();
        let text = serde_json::to_string(&cfg).unwrap();
        let back: OctoctlConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.planner_config().strategy, PlanStrategy::Watermark);
        assert!(back.lock_path().ends_with("state/octoctl.pid"));
    }

    #[test]
    fn rejects_bad_fields() {
        let ok = OctoctlConfig::example("/tmp/x");
        for break_it in [
            (&|c: &mut OctoctlConfig| c.strategy = "xgb".into()) as &dyn Fn(&mut OctoctlConfig),
            &|c| c.mem_capacity_bytes = 0,
            &|c| c.start_threshold = f64::NAN,
            &|c| c.stop_threshold = 0.95, // above start
            &|c| c.watermark_hot = f64::INFINITY,
            &|c| c.heat_half_life_ms = 0,
            &|c| c.base_dir = String::new(),
        ] {
            let mut cfg = ok.clone();
            break_it(&mut cfg);
            assert_eq!(cfg.validate().unwrap_err().kind(), "config");
        }
    }
}
