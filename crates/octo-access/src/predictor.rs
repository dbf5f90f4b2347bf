//! The access predictor: glue between DFS file statistics and the online
//! learner (paper §4.2's training-point generation and §4.4's predictions).
//!
//! A predictor is parameterized by its forward-looking *class window* `w`:
//! the paper runs one with a small window (~30 min) for upgrades ("will this
//! file be read soon?") and one with a large window (~6 h) for downgrades
//! ("has this file gone cold?").
//!
//! Training points are generated while the system runs:
//!
//! * right after a file access — reference time `t_r = now − w`, features
//!   from accesses ≤ `t_r`, label 1 because the access just recorded falls
//!   inside `(t_r, now]` (guaranteed positive examples);
//! * periodically for a sample of files — same construction, label 0 or 1
//!   depending on whether the file was touched inside the window.
//!
//! A point can be made only for a file that existed at `t_r`; the
//! predictor counts the points it was offered and those it dropped for
//! that reason beside the learner's own counters
//! ([`AccessPredictor::counters`]).

use crate::features::FeatureConfig;
use crate::learner::{IncrementalLearner, LearnerConfig, LearnerCounters};
use octo_common::{SimDuration, SimTime};
use octo_dfs::AccessStats;

/// An online predictor of "will this file be accessed within `w`?".
#[derive(Debug, Clone)]
pub struct AccessPredictor {
    window: SimDuration,
    learner: IncrementalLearner,
    offered: u64,
    too_young: u64,
}

impl AccessPredictor {
    /// Builds a predictor with class window `window`.
    pub fn new(window: SimDuration, learner_cfg: LearnerConfig) -> Self {
        AccessPredictor {
            window,
            learner: IncrementalLearner::new(learner_cfg),
            offered: 0,
            too_young: 0,
        }
    }

    /// The class window `w`.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// The feature layout in use.
    pub fn features(&self) -> &FeatureConfig {
        &self.learner.config().features
    }

    /// The underlying learner (evaluation and diagnostics).
    pub fn learner(&self) -> &IncrementalLearner {
        &self.learner
    }

    /// Mutable access to the learner (experiments switch modes, force
    /// activation, etc.).
    pub fn learner_mut(&mut self) -> &mut IncrementalLearner {
        &mut self.learner
    }

    fn label_for(&self, stats: &AccessStats, reference: SimTime) -> bool {
        stats.accesses_since(reference) > 0
    }

    /// Generates one training point for `stats` as of `now` and feeds it to
    /// the learner. Returns whether a point could be generated (the file
    /// must have existed before `now − w`).
    pub fn observe_file(&mut self, stats: &AccessStats, now: SimTime) -> bool {
        self.offered += 1;
        let reference = now.saturating_sub(self.window);
        let Some(features) = self.features().extract(stats, reference) else {
            self.too_young += 1;
            return false;
        };
        let label = self.label_for(stats, reference);
        self.learner.observe(&features, label, now);
        true
    }

    /// Called right after an access to `stats` was recorded: generates the
    /// guaranteed-positive training point of §4.2.
    pub fn on_file_access(&mut self, stats: &AccessStats, now: SimTime) -> bool {
        debug_assert!(
            stats.last_access().is_some_and(|t| t <= now),
            "on_file_access before the access was recorded"
        );
        self.observe_file(stats, now)
    }

    /// P(access within `w` of `now`) for a file, once the model serves.
    /// A file created after `now` has no features and is not asked of the
    /// model; the others are asked before their features are extracted,
    /// so a refusal costs no extraction.
    pub fn predict(&self, stats: &AccessStats, now: SimTime) -> Option<f64> {
        if stats.created > now {
            return None;
        }
        self.learner.serve(|model| {
            let features = self.features().extract(stats, now)?;
            Some(model.predict_proba(&features))
        })
    }

    /// What this predictor and its learner did so far.
    pub fn counters(&self) -> LearnerCounters {
        LearnerCounters {
            offered: self.offered,
            too_young: self.too_young,
            ..self.learner.counters()
        }
    }

    /// Like [`AccessPredictor::predict`] but bypassing the activation gate
    /// (offline evaluation).
    pub fn predict_raw(&self, stats: &AccessStats, now: SimTime) -> Option<f64> {
        let features = self.features().extract(stats, now)?;
        self.learner.predict_raw(&features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::LearningMode;
    use octo_common::{ByteSize, FileId};
    use octo_dfs::StatsRegistry;
    use octo_gbt::GbtParams;

    fn cfg() -> LearnerConfig {
        LearnerConfig {
            features: FeatureConfig {
                k: 6,
                ..FeatureConfig::default()
            },
            gbt: GbtParams {
                rounds: 8,
                max_depth: 6,
                ..GbtParams::default()
            },
            mode: LearningMode::Incremental,
            refresh_interval: SimDuration::from_mins(10),
            min_points: 60,
            buffer_max: 2000,
            eval_window: 100,
            activation_error: 0.25,
            max_trees: 100,
        }
    }

    /// Simulates two file populations: "hot" files re-accessed every ~10
    /// minutes and "cold" files accessed once and abandoned. The predictor
    /// with a 30-minute window must learn to tell them apart.
    #[test]
    fn separates_hot_from_cold_files() {
        let mut reg = StatsRegistry::new(6);
        let mut pred = AccessPredictor::new(SimDuration::from_mins(30), cfg());

        let n_files = 40u64;
        for f in 0..n_files {
            reg.on_create(FileId(f), ByteSize::mb(64 + f), SimTime::ZERO);
        }
        // 4 hours of simulated accesses.
        for minute in (0..240u64).step_by(2) {
            let now = SimTime::from_millis(minute * 60_000);
            for f in 0..n_files {
                let hot = f % 2 == 0;
                let due = if hot {
                    minute % 10 == (f % 5) * 2
                } else {
                    minute == f % 3 // touched once near the start
                };
                if due && minute > 0 {
                    reg.on_access(FileId(f), now);
                    pred.on_file_access(reg.get(FileId(f)).unwrap(), now);
                }
            }
            // Periodic sampling keeps negatives flowing.
            if minute % 10 == 0 {
                for f in 0..n_files {
                    pred.observe_file(reg.get(FileId(f)).unwrap(), now);
                }
            }
        }

        assert!(pred.learner().is_active(), "model should be serving");
        let now = SimTime::from_millis(240 * 60_000);
        let hot_p = pred
            .predict(reg.get(FileId(0)).unwrap(), now)
            .expect("active");
        let cold_p = pred
            .predict(reg.get(FileId(1)).unwrap(), now)
            .expect("active");
        assert!(
            hot_p > cold_p,
            "hot file must outrank cold file: {hot_p} vs {cold_p}"
        );
        assert!(hot_p > 0.5, "hot file predicted re-accessed: {hot_p}");
        assert!(cold_p < 0.5, "cold file predicted cold: {cold_p}");
    }

    #[test]
    fn observe_requires_file_to_predate_reference() {
        let mut reg = StatsRegistry::new(6);
        let mut pred = AccessPredictor::new(SimDuration::from_mins(30), cfg());
        let f = FileId(0);
        reg.on_create(f, ByteSize::mb(1), SimTime::from_mins_helper(100));
        // now - w < created: no training point.
        assert!(!pred.observe_file(reg.get(f).unwrap(), SimTime::from_millis(110 * 60_000)));
        // Later it works.
        assert!(pred.observe_file(reg.get(f).unwrap(), SimTime::from_millis(200 * 60_000)));
    }

    #[test]
    fn counters_follow_a_scripted_stream() {
        let mins = |m: u64| SimTime::from_millis(m * 60_000);
        let cfg = LearnerConfig {
            gbt: GbtParams {
                rounds: 2,
                max_depth: 2,
                ..GbtParams::default()
            },
            min_points: 4,
            eval_window: 4,
            // Any error opens the gate at the first scored point.
            activation_error: 1.5,
            ..cfg()
        };
        let mut reg = StatsRegistry::new(6);
        let mut pred = AccessPredictor::new(SimDuration::from_mins(30), cfg);
        let (a, b) = (FileId(0), FileId(1));
        reg.on_create(a, ByteSize::mb(1), SimTime::ZERO);
        reg.on_create(b, ByteSize::mb(1), mins(100));

        // Asked before any model: not served.
        assert_eq!(pred.predict(reg.get(a).unwrap(), mins(5)), None);
        for i in 0..6 {
            let now = mins(40 + 10 * i);
            reg.on_access(a, now);
            // A positive point for `a`; `b` is younger than the window.
            assert!(pred.on_file_access(reg.get(a).unwrap(), now));
            assert!(!pred.observe_file(reg.get(b).unwrap(), now));
        }
        // The 4th point fits (70 min); the 5th is scored first and opens
        // the gate (80 min), then boosts; the 6th boosts.
        for _ in 0..3 {
            assert!(pred.predict(reg.get(a).unwrap(), mins(100)).is_some());
        }
        // A file that does not exist yet is never asked of the model.
        assert_eq!(pred.predict(reg.get(b).unwrap(), mins(95)), None);
        // `b` is old enough now and was never read: a negative point, and
        // a third boost.
        assert!(pred.observe_file(reg.get(b).unwrap(), mins(140)));

        assert_eq!(
            pred.counters(),
            LearnerCounters {
                offered: 13,
                made: 7,
                too_young: 6,
                positive: 6,
                predictions_asked: 4,
                predictions_served: 3,
                activated_at: Some(mins(80)),
                boosts: 3,
                fits: 1,
            }
        );
        assert_eq!(pred.learner().trainings(), 4);
        assert_eq!(pred.learner().model().map(|m| m.n_trees()), Some(8));
    }

    trait MinsHelper {
        fn from_mins_helper(m: u64) -> SimTime;
    }
    impl MinsHelper for SimTime {
        fn from_mins_helper(m: u64) -> SimTime {
            SimTime::from_millis(m * 60_000)
        }
    }
}
