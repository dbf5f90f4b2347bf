//! Feature extraction for file-access prediction (paper §4.1, Figure 4).
//!
//! For a file observed at a *reference time* `t_r`, the feature vector is
//! built from the file size and four kinds of time deltas over the accesses
//! known at `t_r`:
//!
//! 1. `t_r − last access` (recency),
//! 2. deltas between consecutive accesses, most recent pair first
//!    (`k − 1` slots; unused slots are *missing*),
//! 3. `oldest retained access − creation`,
//! 4. `t_r − creation`.
//!
//! All deltas are normalized by a maximum interval (30 days) and clamped
//! to `[0, 1]`; the size is normalized by a maximum file size (10 GB).
//! Missing entries are `NaN` — the GBT routes them through learned default
//! directions, so no imputation happens anywhere.

use octo_common::{ByteSize, SimDuration, SimTime};
use octo_dfs::{AccessStats, ACCESS_HISTORY};
use serde::{Deserialize, Serialize};

/// Normalization constant for time deltas.
const MAX_INTERVAL: SimDuration = SimDuration::from_hours(24 * 30);

/// Normalization constant for the size feature.
const MAX_FILE_SIZE: ByteSize = ByteSize::gb(10);

/// Configuration of the feature layout (the §7.6 ablations toggle these).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Number of retained access times `k` (paper default 12).
    pub k: usize,
    /// Include the file-size feature.
    pub use_size: bool,
    /// Include the two creation-time deltas.
    pub use_creation: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            k: ACCESS_HISTORY,
            use_size: true,
            use_creation: true,
        }
    }
}

impl FeatureConfig {
    /// Total number of features this layout produces.
    pub fn n_features(&self) -> usize {
        let mut n = 1; // t_r − last access
        n += self.k.saturating_sub(1); // consecutive deltas
        if self.use_size {
            n += 1;
        }
        if self.use_creation {
            n += 2; // oldest − creation, t_r − creation
        }
        n
    }

    /// Human-readable feature names, index-aligned with
    /// [`FeatureConfig::extract`] output (useful for importance reports).
    pub fn feature_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.n_features());
        if self.use_size {
            names.push("file_size".to_string());
        }
        names.push("ref_minus_last_access".to_string());
        for i in 1..self.k {
            names.push(format!("access_delta_{i}"));
        }
        if self.use_creation {
            names.push("oldest_access_minus_creation".to_string());
            names.push("ref_minus_creation".to_string());
        }
        names
    }

    /// Builds the feature vector of `stats` as seen at `reference`.
    ///
    /// Only accesses at or before `reference` contribute — later accesses
    /// belong to the "future" that training labels are drawn from. Returns
    /// `None` when the file did not exist at `reference`.
    pub fn extract(&self, stats: &AccessStats, reference: SimTime) -> Option<Vec<f32>> {
        if stats.created > reference {
            return None;
        }
        let past: Vec<SimTime> = stats.accesses().filter(|&a| a <= reference).collect();
        let mut out = Vec::with_capacity(self.n_features());

        if self.use_size {
            let max = MAX_FILE_SIZE.as_bytes() as f64;
            out.push(((stats.size.as_bytes() as f64 / max).min(1.0)) as f32);
        }

        // Recency.
        match past.last() {
            Some(&last) => out.push(norm_delta(reference.duration_since(last))),
            None => out.push(f32::NAN),
        }

        // Consecutive deltas, most recent pair first.
        for i in 0..self.k.saturating_sub(1) {
            if past.len() >= i + 2 {
                let newer = past[past.len() - 1 - i];
                let older = past[past.len() - 2 - i];
                out.push(norm_delta(newer.duration_since(older)));
            } else {
                out.push(f32::NAN);
            }
        }

        if self.use_creation {
            match past.first() {
                Some(&oldest) => out.push(norm_delta(oldest.duration_since(stats.created))),
                None => out.push(f32::NAN),
            }
            out.push(norm_delta(reference.duration_since(stats.created)));
        }

        debug_assert_eq!(out.len(), self.n_features());
        Some(out)
    }
}

/// A time delta over [`MAX_INTERVAL`], clamped to 1.
fn norm_delta(d: SimDuration) -> f32 {
    let max = MAX_INTERVAL.as_millis() as f64;
    ((d.as_millis() as f64 / max).min(1.0)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_common::FileId;
    use octo_dfs::StatsRegistry;

    /// Reconstructs the worked example of Figure 4: a 200 MB file created at
    /// 8:00 and accessed at 9:20, 9:50 and 11:10, seen at reference 11:30.
    fn figure4_stats() -> (StatsRegistry, FileId) {
        let mut reg = StatsRegistry::new(12);
        let f = FileId(0);
        let t = |h: u64, m: u64| SimTime::from_millis((h * 60 + m) * 60_000);
        reg.on_create(f, ByteSize::mb(200), t(8, 0));
        reg.on_access(f, t(9, 20));
        reg.on_access(f, t(9, 50));
        reg.on_access(f, t(11, 10));
        (reg, f)
    }

    #[test]
    fn figure4_deltas() {
        let (reg, f) = figure4_stats();
        let cfg = FeatureConfig::default();
        let reference = SimTime::from_millis((11 * 60 + 30) * 60_000);
        let x = cfg.extract(reg.get(f).unwrap(), reference).unwrap();
        assert_eq!(x.len(), 15); // 1 size + 1 recency + 11 deltas + 2 creation

        let max = MAX_INTERVAL.as_millis() as f32;
        let minutes = |m: f32| m * 60_000.0 / max;
        // size = 200MB / 10GB
        assert!((x[0] - 200.0 / 10240.0).abs() < 1e-6);
        // ref − last access = 11:30 − 11:10 = 20 min
        assert!((x[1] - minutes(20.0)).abs() < 1e-6);
        // most recent consecutive pair: 11:10 − 9:50 = 80 min
        assert!((x[2] - minutes(80.0)).abs() < 1e-6);
        // next: 9:50 − 9:20 = 30 min
        assert!((x[3] - minutes(30.0)).abs() < 1e-6);
        // remaining 9 consecutive slots missing
        for v in &x[4..13] {
            assert!(v.is_nan());
        }
        // oldest access − creation = 9:20 − 8:00 = 80 min
        assert!((x[13] - minutes(80.0)).abs() < 1e-6);
        // ref − creation = 11:30 − 8:00 = 210 min
        assert!((x[14] - minutes(210.0)).abs() < 1e-6);
    }

    #[test]
    fn accesses_after_reference_are_invisible() {
        let (reg, f) = figure4_stats();
        let cfg = FeatureConfig::default();
        // Reference before any access: recency and deltas missing, but the
        // creation deltas are defined.
        let reference = SimTime::from_millis(9 * 3_600_000);
        let x = cfg.extract(reg.get(f).unwrap(), reference).unwrap();
        assert!(x[1].is_nan(), "no access before ref");
        assert!(x[2].is_nan());
        assert!(x[13].is_nan());
        assert!(!x[14].is_nan(), "ref − creation always defined");
    }

    #[test]
    fn file_not_yet_created_yields_none() {
        let (reg, f) = figure4_stats();
        let cfg = FeatureConfig::default();
        assert!(cfg
            .extract(reg.get(f).unwrap(), SimTime::from_secs(60))
            .is_none());
    }

    #[test]
    fn ablation_layouts() {
        let base = FeatureConfig::default();
        assert_eq!(base.n_features(), 15);
        let no_size = FeatureConfig {
            use_size: false,
            ..base.clone()
        };
        assert_eq!(no_size.n_features(), 14);
        let no_creation = FeatureConfig {
            use_creation: false,
            ..base.clone()
        };
        assert_eq!(no_creation.n_features(), 13);
        let k6 = FeatureConfig {
            k: 6,
            ..base.clone()
        };
        assert_eq!(k6.n_features(), 9);
        let k18 = FeatureConfig { k: 18, ..base };
        assert_eq!(k18.n_features(), 21);
    }

    #[test]
    fn feature_names_align_with_layout() {
        let cfg = FeatureConfig::default();
        let names = cfg.feature_names();
        assert_eq!(names.len(), cfg.n_features());
        assert_eq!(names[0], "file_size");
        assert_eq!(names[1], "ref_minus_last_access");
        assert_eq!(names[14], "ref_minus_creation");
    }

    #[test]
    fn deltas_clamp_to_unit_interval() {
        let mut reg = StatsRegistry::new(12);
        let f = FileId(0);
        reg.on_create(f, ByteSize::gb(100), SimTime::ZERO); // over max size
        reg.on_access(f, SimTime::from_secs(1));
        let cfg = FeatureConfig::default();
        // Reference far beyond the max interval.
        let reference = SimTime::from_secs(3600 * 24 * 365);
        let x = cfg.extract(reg.get(f).unwrap(), reference).unwrap();
        for v in x.iter().filter(|v| !v.is_nan()) {
            assert!((0.0..=1.0).contains(v), "feature out of range: {v}");
        }
        assert_eq!(x[0], 1.0, "oversized file clamps to 1");
        assert_eq!(x[1], 1.0, "ancient access clamps to 1");
    }
}
