//! By-name policy construction, used by the experiment drivers.

use crate::classic::{LfuDowngrade, LruDowngrade, OsaUpgrade};
use crate::framework::{DowngradePolicy, TieringConfig, UpgradePolicy};
use crate::pacman::PacmanDowngrade;
use crate::watermark::{HybridDowngrade, WatermarkDowngrade, WatermarkUpgrade};
use crate::weights::{ExdUpgrade, LrfuUpgrade, WeightDowngrade};
use crate::xgb::{XgbDowngrade, XgbUpgrade};
use octo_access::LearnerConfig;

/// All downgrade policy names: the paper's Table 1 order, then the
/// watermark family (ROADMAP item 4).
pub const DOWNGRADE_NAMES: [&str; 9] = [
    "lru",
    "lfu",
    "lrfu",
    "life",
    "lfu-f",
    "exd",
    "xgb",
    "watermark",
    "hybrid",
];

/// All upgrade policy names: the paper's Table 2 order, then the
/// watermark family.
pub const UPGRADE_NAMES: [&str; 6] = ["osa", "lrfu", "exd", "xgb", "watermark", "hybrid"];

/// Builds a downgrade policy by name. `seed` feeds the XGB policy's
/// sampling stream; others ignore it.
pub fn downgrade_policy(
    name: &str,
    cfg: &TieringConfig,
    learner: &LearnerConfig,
    seed: u64,
) -> Option<Box<dyn DowngradePolicy>> {
    Some(match name {
        "lru" => Box::new(LruDowngrade::new(cfg.clone())),
        "lfu" => Box::new(LfuDowngrade::new(cfg.clone())),
        "lrfu" => Box::new(WeightDowngrade::lrfu(cfg.clone())),
        "life" => Box::new(PacmanDowngrade::life(cfg.clone())),
        "lfu-f" => Box::new(PacmanDowngrade::lfu_f(cfg.clone())),
        "exd" => Box::new(WeightDowngrade::exd(cfg.clone())),
        "xgb" => Box::new(XgbDowngrade::new(cfg.clone(), learner.clone(), seed)),
        "watermark" => Box::new(WatermarkDowngrade::new(cfg.clone())),
        "hybrid" => Box::new(HybridDowngrade::new(cfg.clone(), learner.clone(), seed)),
        _ => return None,
    })
}

/// Builds an upgrade policy by name.
pub fn upgrade_policy(
    name: &str,
    cfg: &TieringConfig,
    learner: &LearnerConfig,
    seed: u64,
) -> Option<Box<dyn UpgradePolicy>> {
    Some(match name {
        "osa" => Box::new(OsaUpgrade),
        "lrfu" => Box::new(LrfuUpgrade::new(cfg.clone())),
        "exd" => Box::new(ExdUpgrade::default()),
        "xgb" => Box::new(XgbUpgrade::new(cfg.clone(), learner.clone(), seed)),
        "watermark" => Box::new(WatermarkUpgrade::new(cfg.clone())),
        "hybrid" => Box::new(XgbUpgrade::hybrid(cfg.clone(), learner.clone(), seed)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_policy_is_constructible() {
        let cfg = TieringConfig::default();
        let learner = LearnerConfig::default();
        for name in DOWNGRADE_NAMES {
            let p = downgrade_policy(name, &cfg, &learner, 1).unwrap_or_else(|| {
                panic!("missing downgrade policy {name}");
            });
            assert_eq!(p.name(), name);
        }
        for name in UPGRADE_NAMES {
            let p = upgrade_policy(name, &cfg, &learner, 1).unwrap_or_else(|| {
                panic!("missing upgrade policy {name}");
            });
            assert_eq!(p.name(), name);
        }
        assert!(downgrade_policy("bogus", &cfg, &learner, 1).is_none());
        assert!(upgrade_policy("bogus", &cfg, &learner, 1).is_none());
    }
}
