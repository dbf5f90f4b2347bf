//! Automated tiered-storage management policies (paper §3.2, §5, §6).
//!
//! The [`framework`] module defines the policy traits and the
//! [`framework::TieringEngine`] that runs Algorithms 1 and 2 against a
//! [`octo_dfs::TieredDfs`]. The engine decides what every policy decides
//! alike (when a run starts and stops, where files go, which accessed file
//! is considered), so a policy supplies only its victim order, its
//! on-access admission rule, or its model. The remaining modules implement
//! all eleven policies of Tables 1 and 2, plus the watermark family:
//!
//! | Downgrade | Type | Upgrade | Type |
//! |-----------|------|---------|------|
//! | LRU       | [`LruDowngrade`] | OSA  | [`OsaUpgrade`] |
//! | LFU       | [`LfuDowngrade`] | LRFU | [`LrfuUpgrade`] |
//! | LRFU      | [`WeightDowngrade::lrfu`] | EXD  | [`ExdUpgrade`] |
//! | LIFE      | [`PacmanDowngrade::life`] | XGB  | [`XgbUpgrade::new`] |
//! | LFU-F     | [`PacmanDowngrade::lfu_f`] | Watermark | [`WatermarkUpgrade`] |
//! | EXD       | [`WeightDowngrade::exd`] | Hybrid    | [`XgbUpgrade::hybrid`] |
//! | XGB       | [`XgbDowngrade`] |      |             |
//! | Watermark | [`WatermarkDowngrade`] |    |             |
//! | Hybrid    | [`HybridDowngrade`] |    |             |
//!
//! The [`parallel`] module holds Algorithm 1's driver, used by
//! [`framework::TieringEngine::run_downgrade_pooled`] at every pool width:
//! per-shard candidate scans fan out over an [`octo_dfs::EpochPool`] and a
//! serial order-preserving merge commits victims, byte-identical at any
//! thread count.

pub mod classic;
pub mod framework;
pub mod pacman;
pub mod parallel;
pub mod plan;
pub mod registry;
pub mod watermark;
pub mod weights;
pub mod xgb;

pub use classic::{LfuDowngrade, LruDowngrade, OsaUpgrade};
pub use framework::{
    effective_utilization, DowngradePolicy, LearnerReport, PolicyRole, TieringConfig,
    TieringEngine, UpgradePolicy,
};
pub use pacman::PacmanDowngrade;
pub use parallel::{encode_f64, exhaustive_phase, Candidate, PhasePlan, ScanBatch};
pub use plan::{plan_moves, MovePlan, PlanStrategy, PlannedMove, PlannerConfig, TierPlanRow};
pub use registry::{downgrade_policy, upgrade_policy, DOWNGRADE_NAMES, UPGRADE_NAMES};
pub use watermark::{
    Band, BandTracker, HybridDowngrade, WatermarkDowngrade, WatermarkUpgrade, Watermarks,
};
pub use weights::{DecayKind, ExdUpgrade, LrfuUpgrade, WeightDowngrade, WeightTracker};
pub use xgb::{XgbDowngrade, XgbUpgrade, DOWNGRADE_WINDOW, UPGRADE_WINDOW};
