//! Online incremental learning with prequential evaluation (paper §4.2/§4.4).
//!
//! The learner follows the *test-then-train* protocol: every labelled point
//! first scores the current model (feeding a sliding accuracy window used
//! both for the activation gate and for the Figure 16/17 curves), then joins
//! a bounded training buffer. At every refresh interval the model is
//! boosted with `r` new trees from its current margins (training
//! continuation). Alternative modes reproduce the paper's baselines:
//! periodic full retraining, and a one-shot learner that never refreshes.
//!
//! Model and buffer live in one [`IncrementalBooster`]. Each buffered point
//! caches the sum of the current trees' outputs on it, computed once when
//! the point is scored, so a refresh costs only its new trees.

use crate::features::FeatureConfig;
use octo_common::{SimDuration, SimTime};
use octo_gbt::{Gbt, GbtParams, IncrementalBooster};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How the model is kept up to date over time (Figure 16 compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LearningMode {
    /// Boost additional trees from the current margins at every refresh
    /// (the paper's approach).
    Incremental,
    /// Discard and retrain from scratch on the current buffer at every
    /// refresh.
    Retrain,
    /// Train once at the first refresh, never update again.
    OneShot,
}

/// Configuration of an [`IncrementalLearner`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnerConfig {
    /// Feature layout.
    pub features: FeatureConfig,
    /// GBT hyper-parameters per training call (paper: d=20, r=10).
    pub gbt: GbtParams,
    /// Update strategy.
    pub mode: LearningMode,
    /// Minimum simulated time between refreshes.
    pub refresh_interval: SimDuration,
    /// Minimum buffered points before the first training happens.
    pub min_points: usize,
    /// Sliding training buffer size (older points fall out).
    pub buffer_max: usize,
    /// Prequential accuracy window length.
    pub eval_window: usize,
    /// The model starts serving predictions once its prequential error
    /// drops below this (paper §4.4, e.g. 0.01–0.05).
    pub activation_error: f64,
    /// Hard cap on ensemble size; a refresh that would exceed it compacts
    /// instead (retrains from scratch on the buffer).
    pub max_trees: usize,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            features: FeatureConfig::default(),
            gbt: GbtParams::paper_access_model(),
            mode: LearningMode::Incremental,
            refresh_interval: SimDuration::from_mins(10),
            min_points: 50,
            buffer_max: 4000,
            eval_window: 400,
            activation_error: 0.05,
            max_trees: 400,
        }
    }
}

/// An online classifier over file-access feature vectors.
#[derive(Debug, Clone)]
pub struct IncrementalLearner {
    cfg: LearnerConfig,
    booster: IncrementalBooster,
    recent_correct: VecDeque<bool>,
    activated: bool,
    last_refresh: Option<SimTime>,
    points_seen: u64,
    trainings: u64,
}

impl IncrementalLearner {
    /// A fresh learner with no model.
    pub fn new(cfg: LearnerConfig) -> Self {
        let booster = IncrementalBooster::new(cfg.features.n_features(), cfg.buffer_max);
        IncrementalLearner {
            cfg,
            booster,
            recent_correct: VecDeque::new(),
            activated: false,
            last_refresh: None,
            points_seen: 0,
            trainings: 0,
        }
    }

    /// The learner's configuration.
    pub fn config(&self) -> &LearnerConfig {
        &self.cfg
    }

    /// Feeds one labelled observation: tests the current model on it, then
    /// buffers it for training and refreshes the model if due.
    pub fn observe(&mut self, features: &[f32], label: bool, now: SimTime) {
        self.points_seen += 1;
        if let Some(p) = self
            .booster
            .observe(features, if label { 1.0 } else { 0.0 })
        {
            let correct = (p >= 0.5) == label;
            if self.recent_correct.len() == self.cfg.eval_window {
                self.recent_correct.pop_front();
            }
            self.recent_correct.push_back(correct);
            if !self.activated
                && self.recent_correct.len() >= self.cfg.eval_window / 4
                && self.prequential_error() < self.cfg.activation_error
            {
                self.activated = true;
            }
        }
        self.maybe_refresh(now);
    }

    fn maybe_refresh(&mut self, now: SimTime) {
        if self.booster.len() < self.cfg.min_points {
            return;
        }
        let due = match self.last_refresh {
            None => true,
            Some(t) => now.duration_since(t) >= self.cfg.refresh_interval,
        };
        if due {
            self.refresh(now);
        }
    }

    /// Forces a model update at `now` according to the learning mode.
    pub fn refresh(&mut self, now: SimTime) {
        if self.booster.is_empty() {
            return;
        }
        let rounds = self.cfg.gbt.rounds;
        match (self.cfg.mode, self.booster.model()) {
            (LearningMode::OneShot, Some(_)) => return, // never updates again
            (LearningMode::Incremental, Some(model))
                if model.n_trees() + rounds <= self.cfg.max_trees =>
            {
                self.booster.boost(rounds);
            }
            // A continuation past `max_trees` would be discarded, so compact
            // at once: retrain from scratch on the retained buffer.
            _ => self.booster.fit(&self.cfg.gbt),
        }
        self.trainings += 1;
        self.last_refresh = Some(now);
    }

    /// P(positive) for a feature vector, once the model is serving.
    /// `None` before activation (paper §4.4: the system falls back to its
    /// non-ML behaviour until the model is trusted).
    pub fn predict(&self, features: &[f32]) -> Option<f64> {
        if !self.activated {
            return None;
        }
        self.model().map(|m| m.predict_proba(features))
    }

    /// P(positive) regardless of the activation gate (used by offline
    /// evaluation such as the ROC experiments).
    pub fn predict_raw(&self, features: &[f32]) -> Option<f64> {
        self.model().map(|m| m.predict_proba(features))
    }

    /// Accuracy over the sliding prequential window (`None` until the model
    /// has scored anything).
    pub fn prequential_accuracy(&self) -> Option<f64> {
        if self.recent_correct.is_empty() {
            return None;
        }
        let hits = self.recent_correct.iter().filter(|c| **c).count();
        Some(hits as f64 / self.recent_correct.len() as f64)
    }

    fn prequential_error(&self) -> f64 {
        1.0 - self.prequential_accuracy().unwrap_or(0.0)
    }

    /// True once predictions are being served.
    pub fn is_active(&self) -> bool {
        self.activated
    }

    /// Forces the activation gate open (used by experiments that evaluate
    /// the raw model without the warm-up protocol).
    pub fn force_activate(&mut self) {
        if self.booster.model().is_some() {
            self.activated = true;
        }
    }

    /// The underlying model, if trained.
    pub fn model(&self) -> Option<&Gbt> {
        self.booster.model()
    }

    /// Observation count.
    pub fn points_seen(&self) -> u64 {
        self.points_seen
    }

    /// Completed training calls.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linearly separable stream: label = x0 > 0.5 with two noise dims.
    fn stream_point(i: u64) -> (Vec<f32>, bool) {
        let x0 = ((i * 37) % 100) as f32 / 100.0;
        let x1 = ((i * 17) % 100) as f32 / 100.0;
        let x2 = if i.is_multiple_of(7) {
            f32::NAN
        } else {
            ((i * 3) % 10) as f32
        };
        (vec![x0, x1, x2], x0 > 0.5)
    }

    fn quick_cfg(mode: LearningMode) -> LearnerConfig {
        LearnerConfig {
            // Recency plus the two creation deltas: 3 columns, the width of
            // the synthetic stream (the learner never extracts features).
            features: FeatureConfig {
                k: 1,
                use_size: false,
                ..FeatureConfig::default()
            },
            gbt: GbtParams {
                rounds: 5,
                max_depth: 3,
                ..GbtParams::default()
            },
            mode,
            refresh_interval: SimDuration::from_mins(5),
            min_points: 30,
            buffer_max: 500,
            eval_window: 60,
            activation_error: 0.2,
            max_trees: 40,
        }
    }

    fn learner(mode: LearningMode) -> IncrementalLearner {
        IncrementalLearner::new(quick_cfg(mode))
    }

    #[test]
    fn learns_and_activates() {
        let mut l = learner(LearningMode::Incremental);
        assert!(l.predict(&[0.9, 0.0, 0.0]).is_none(), "inactive at start");
        for i in 0..400 {
            let (x, y) = stream_point(i);
            l.observe(&x, y, SimTime::from_secs(i * 10));
        }
        assert!(l.is_active(), "separable stream must activate the model");
        assert!(l.prequential_accuracy().unwrap() > 0.85);
        assert!(l.predict(&[0.95, 0.1, 1.0]).unwrap() > 0.5);
        assert!(l.predict(&[0.05, 0.9, f32::NAN]).unwrap() < 0.5);
        assert!(l.trainings() >= 2, "periodic refreshes happened");
    }

    #[test]
    fn one_shot_never_retrains() {
        let mut l = learner(LearningMode::OneShot);
        for i in 0..400 {
            let (x, y) = stream_point(i);
            l.observe(&x, y, SimTime::from_secs(i * 10));
        }
        assert_eq!(l.trainings(), 1, "one-shot trains exactly once");
    }

    #[test]
    fn retrain_mode_rebuilds_each_refresh() {
        let mut l = learner(LearningMode::Retrain);
        for i in 0..400 {
            let (x, y) = stream_point(i);
            l.observe(&x, y, SimTime::from_secs(i * 10));
        }
        assert!(l.trainings() >= 2);
        // Fresh retrain keeps the ensemble at exactly `rounds` trees.
        assert_eq!(l.model().unwrap().n_trees(), 5);
    }

    #[test]
    fn incremental_adapts_to_concept_drift() {
        let mut l = learner(LearningMode::Incremental);
        for i in 0..300 {
            let (x, y) = stream_point(i);
            l.observe(&x, y, SimTime::from_secs(i * 10));
        }
        let acc_before = l.prequential_accuracy().unwrap();
        assert!(acc_before > 0.8);
        // Invert the concept: label = x0 < 0.5.
        for i in 300..900 {
            let (x, y) = stream_point(i);
            l.observe(&x, !y, SimTime::from_secs(i * 10));
        }
        assert!(
            l.prequential_accuracy().unwrap() > 0.7,
            "incremental learner must recover from drift: {:?}",
            l.prequential_accuracy()
        );
    }

    #[test]
    fn tree_cap_triggers_compaction() {
        // Five trees per refresh under a cap of 40: the ensemble grows to
        // exactly 40, and the refresh a continuation would take past the
        // cap retrains to 5 instead.
        let mut l = learner(LearningMode::Incremental);
        let mut sizes = Vec::new();
        for i in 0..2000 {
            let (x, y) = stream_point(i);
            let trainings = l.trainings();
            l.observe(&x, y, SimTime::from_secs(i * 10));
            if l.trainings() > trainings {
                sizes.push(l.model().unwrap().n_trees());
            }
        }
        let cycle: Vec<usize> = (1..=8).map(|k| 5 * k).collect();
        assert!(sizes.len() > 2 * cycle.len(), "{} refreshes", sizes.len());
        for (k, &n) in sizes.iter().enumerate() {
            assert_eq!(n, cycle[k % cycle.len()], "ensemble sizes {sizes:?}");
        }
    }

    #[test]
    fn needs_min_points_before_training() {
        let mut l = learner(LearningMode::Incremental);
        for i in 0..20 {
            let (x, y) = stream_point(i);
            l.observe(&x, y, SimTime::from_secs(i));
        }
        assert!(l.model().is_none(), "too few points to train");
        assert_eq!(l.points_seen(), 20);
    }

    #[test]
    fn force_activate_requires_model() {
        let mut l = learner(LearningMode::Incremental);
        l.force_activate();
        assert!(!l.is_active(), "nothing to activate yet");
        for i in 0..100 {
            let (x, y) = stream_point(i);
            l.observe(&x, y, SimTime::from_secs(i * 10));
        }
        l.force_activate();
        assert!(l.is_active());
    }
}
