//! Gradient boosted decision trees, implemented from scratch.
//!
//! This crate reproduces the parts of XGBoost [Chen & Guestrin, KDD'16] that
//! the paper's tiered-storage policies rely on:
//!
//! * **Newton boosting** under a differentiable loss — each round fits a
//!   regression tree to the first/second-order gradients of the current
//!   predictions ([`objective`]).
//! * **Exact greedy split finding** with the regularized gain
//!   `½·(G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)) − γ` ([`trainer`]).
//! * **Sparsity-aware missing-value handling** — every split learns a
//!   default direction for rows whose feature is `NaN`, exactly like
//!   XGBoost's sparsity-aware algorithm. The file-access feature vectors of
//!   the paper are full of missing entries (files with fewer than `k`
//!   recorded accesses), so this is load-bearing.
//! * **Training continuation** — [`Gbt::train_continuation`] boosts
//!   additional rounds starting from the current model's margins, which is
//!   how the paper's *incremental learning* refreshes models with new file
//!   accesses without retraining from scratch. [`IncrementalBooster`] does
//!   it over a sliding window whose rows cache their sums of tree outputs,
//!   so a refresh costs only its new trees.
//!
//! The implementation is deterministic: identical data and parameters yield
//! an identical model, bit for bit. The kernels are laid out for speed
//! without changing a single addition or comparison: split search reads
//! each presorted feature list once and keeps one cut per run of equal
//! values, the partition moves rows without branching on their side, and
//! each tree is one array of 16-byte [`Node`]s that predictions walk four
//! trees at a time, adding outputs in tree order. The reference booster in
//! the unit tests checks all of it node for node and bit for bit.
//!
//! # Example
//!
//! ```
//! use octo_gbt::{Dataset, Gbt, GbtParams};
//!
//! // Label is 1 when the first feature exceeds 0.5; the second feature is
//! // noise and sometimes missing.
//! let mut data = Dataset::new(2);
//! for i in 0..32 {
//!     let x0 = i as f32 / 32.0;
//!     let x1 = if i % 5 == 0 { f32::NAN } else { (i % 7) as f32 };
//!     data.push_row(&[x0, x1], if x0 > 0.5 { 1.0 } else { 0.0 });
//! }
//!
//! let params = GbtParams { rounds: 20, max_depth: 3, ..GbtParams::default() };
//! let model = Gbt::train(&data, &params);
//! assert!(model.predict_proba(&[0.95, 2.0]) > 0.5);
//! assert!(model.predict_proba(&[0.05, f32::NAN]) < 0.5);
//! ```

pub mod booster;
pub mod dataset;
pub mod objective;
pub mod params;
#[cfg(test)]
mod reference;
pub mod trainer;
pub mod tree;

pub use booster::{Gbt, IncrementalBooster};
pub use dataset::Dataset;
pub use objective::{accuracy, logloss, sigmoid};
pub use params::GbtParams;
pub use tree::{Node, Tree};
