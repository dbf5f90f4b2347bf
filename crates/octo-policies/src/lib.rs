//! Automated tiered-storage management policies (paper §3.2, §5, §6).
//!
//! The [`framework`] module defines the four-decision-point policy traits
//! and the [`framework::TieringEngine`] that runs Algorithms 1 and 2 against
//! a [`octo_dfs::TieredDfs`]. The remaining modules implement all eleven
//! policies of Tables 1 and 2:
//!
//! | Downgrade | Module | Upgrade | Module |
//! |-----------|--------|---------|--------|
//! | LRU       | [`classic`] | OSA  | [`classic`] |
//! | LFU       | [`classic`] | LRFU | [`weights`] |
//! | LRFU      | [`weights`] | EXD  | [`weights`] |
//! | LIFE      | [`pacman`]  | XGB  | [`xgb`]     |
//! | LFU-F     | [`pacman`]  | Watermark | [`watermark`] |
//! | EXD       | [`weights`] | Hybrid    | [`watermark`] |
//! | XGB       | [`xgb`]     |      |             |
//! | Watermark | [`watermark`] |    |             |
//! | Hybrid    | [`watermark`] |    |             |
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
    TieringEngine, UpgradeChoice, UpgradePolicy,
};
pub use pacman::{LfuFDowngrade, LifeDowngrade};
pub use parallel::{encode_f64, exhaustive_phase, Candidate, PhasePlan, ScanBatch};
pub use plan::{plan_moves, MovePlan, PlanStrategy, PlannedMove, PlannerConfig, TierPlanRow};
pub use registry::{downgrade_policy, upgrade_policy, DOWNGRADE_NAMES, UPGRADE_NAMES};
pub use watermark::{
    Band, BandTracker, HybridDowngrade, HybridUpgrade, WatermarkDowngrade, WatermarkUpgrade,
    Watermarks,
};
pub use weights::{DecayKind, ExdDowngrade, ExdUpgrade, LrfuDowngrade, LrfuUpgrade, WeightTracker};
pub use xgb::{XgbDowngrade, XgbUpgrade, DOWNGRADE_WINDOW, UPGRADE_WINDOW};
