//! Model studies (§7.6): ROC curves (Fig. 14), feature ablation (Fig. 15),
//! learning-mode comparison (Fig. 16), and workload-shift adaptation
//! (Fig. 17).
//!
//! These experiments evaluate the access predictor *offline*, replaying a
//! workload's access stream against a statistics registry — no cluster
//! simulation involved, exactly like the paper's out-of-sample protocol
//! (train on the first hours, test on the last).

use crate::settings::ExpSettings;
use octo_access::{roc_curve, AccessPredictor, FeatureConfig, LearningMode, RocCurve};
use octo_common::{ByteSize, DetRng, FileId, SimDuration, SimTime};
use octo_dfs::StatsRegistry;
use octo_workload::{Trace, TraceKind};

/// One event of the flattened access stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Create(usize, u64), // trace file idx, size bytes
    Access(usize),
}

/// Flattens a trace into a time-ordered (time, event) stream. `offset`
/// shifts all times (used to concatenate streams for Figure 17).
fn stream(trace: &Trace, offset: SimDuration, file_base: u64) -> Vec<(SimTime, Ev, u64)> {
    let mut events: Vec<(SimTime, Ev, u64)> = Vec::new();
    for (i, f) in trace.files.iter().enumerate() {
        events.push((
            f.created + offset,
            Ev::Create(i, f.size.as_bytes()),
            file_base,
        ));
    }
    for j in &trace.jobs {
        events.push((j.submit + offset, Ev::Access(j.input), file_base));
    }
    events.sort_by_key(|(t, e, _)| (*t, matches!(e, Ev::Access(_))));
    events
}

/// Replays `events` through a predictor. For every point the harness can
/// also record `(score, label)` pairs via `hook` (called with the event
/// time *before* the observation is fed to the learner — test-then-train).
fn replay(
    events: &[(SimTime, Ev, u64)],
    predictor: &mut AccessPredictor,
    registry: &mut StatsRegistry,
    sample_every: SimDuration,
    seed: u64,
    mut hook: impl FnMut(SimTime, f64, bool),
) {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut known: Vec<FileId> = Vec::new();
    let mut next_sample = SimTime::ZERO + sample_every;
    for &(t, ev, base) in events {
        // Periodic negative sampling, as §4.2 prescribes.
        while t >= next_sample {
            for _ in 0..16.min(known.len()) {
                let f = known[rng.index(known.len())];
                if let Some(stats) = registry.get(f) {
                    record_and_observe(predictor, stats, next_sample, &mut hook);
                }
            }
            next_sample += sample_every;
        }
        match ev {
            Ev::Create(i, size) => {
                let fid = FileId(base + i as u64);
                if registry.get(fid).is_none() {
                    registry.on_create(fid, ByteSize::from_bytes(size), t);
                    known.push(fid);
                }
            }
            Ev::Access(i) => {
                let fid = FileId(base + i as u64);
                if registry.get(fid).is_none() {
                    continue; // creation raced past the window edge
                }
                registry.on_access(fid, t);
                let stats = registry.get(fid).expect("tracked");
                record_and_observe(predictor, stats, t, &mut hook);
            }
        }
    }
}

fn record_and_observe(
    predictor: &mut AccessPredictor,
    stats: &octo_dfs::AccessStats,
    now: SimTime,
    hook: &mut impl FnMut(SimTime, f64, bool),
) {
    // Test-then-train: score the *reference-time* features with the current
    // model and pair that score with the realized label (accessed inside
    // the class window or not) — the same construction §4.4 uses to gate
    // model activation. Scoring features at `now` instead would pair a
    // forward-looking prediction with a backward-looking label.
    let reference = now.saturating_sub(predictor.window());
    if let Some(feats) = predictor.features().extract(stats, reference) {
        if let Some(score) = predictor.learner().predict_raw(&feats) {
            let label = stats.accesses_since(reference) > 0;
            hook(now, score, label);
        }
    }
    predictor.observe_file(stats, now);
}

/// Result of one ROC experiment.
#[derive(Debug, Clone)]
pub struct RocResult {
    /// Descriptive label ("FB downgrade", ...).
    pub label: String,
    /// The ROC curve over the held-out test hour.
    pub roc: RocCurve,
    /// Accuracy at the 0.5 discrimination threshold.
    pub accuracy: f64,
    /// Number of test points.
    pub test_points: usize,
}

/// Figure 14: trains a model incrementally on the first 5 hours of the
/// workload and evaluates ROC/AUC on the final hour.
pub fn roc_experiment(
    settings: &ExpSettings,
    kind: TraceKind,
    window: SimDuration,
    features: FeatureConfig,
    label: &str,
) -> RocResult {
    let trace = settings.trace(kind);
    let events = stream(&trace, SimDuration::ZERO, 0);
    let horizon = events.last().map(|(t, _, _)| *t).unwrap_or(SimTime::ZERO);
    // Test window: the last quarter of the stream (the paper holds out its
    // 6th hour; a quarter keeps the test set usable at quick scale too).
    let test_start = horizon.saturating_sub(SimDuration::from_millis(horizon.as_millis() / 4));

    // The registry keeps the layout's own `k` accesses, so every ablation
    // variant sees the history its features read.
    let mut registry = StatsRegistry::new(features.k);
    let mut predictor = AccessPredictor::new(window, settings.learner(features));
    let mut scores: Vec<(f64, bool)> = Vec::new();
    replay(
        &events,
        &mut predictor,
        &mut registry,
        SimDuration::from_mins(2),
        settings.seed ^ 0xE0C,
        |t, score, label| {
            if t >= test_start {
                scores.push((score, label));
            }
        },
    );
    let roc = roc_curve(&scores);
    let correct = scores.iter().filter(|(s, y)| (*s >= 0.5) == *y).count();
    RocResult {
        label: label.to_string(),
        roc,
        accuracy: if scores.is_empty() {
            0.0
        } else {
            correct as f64 / scores.len() as f64
        },
        test_points: scores.len(),
    }
}

/// Figure 15: the feature-ablation variants of the FB downgrade model.
pub fn ablation_variants() -> Vec<(&'static str, FeatureConfig)> {
    let base = FeatureConfig::default();
    vec![
        ("with 12 accesses (default)", base.clone()),
        (
            "without filesize",
            FeatureConfig {
                use_size: false,
                ..base.clone()
            },
        ),
        (
            "without creation",
            FeatureConfig {
                use_creation: false,
                ..base.clone()
            },
        ),
        (
            "with 6 accesses",
            FeatureConfig {
                k: 6,
                ..base.clone()
            },
        ),
        ("with 18 accesses", FeatureConfig { k: 18, ..base }),
    ]
}

/// An hourly prediction-accuracy curve (Figures 16 and 17).
#[derive(Debug, Clone)]
pub struct AccuracyTimeline {
    /// Curve label.
    pub label: String,
    /// `(hour index, accuracy %)` points.
    pub points: Vec<(u64, f64)>,
}

/// Figure 16: hourly accuracy of the three learning modes over one
/// workload, for the given class window.
pub fn learning_mode_timeline(
    settings: &ExpSettings,
    kind: TraceKind,
    window: SimDuration,
    mode: LearningMode,
    label: &str,
) -> AccuracyTimeline {
    let trace = settings.trace(kind);
    let events = stream(&trace, SimDuration::ZERO, 0);
    timeline_over(settings, &events, window, mode, label)
}

/// Figure 17: accuracy while alternating FB and CMU segments of
/// `switch_period` each, for `total_hours` of stream.
pub fn workload_shift_timeline(
    settings: &ExpSettings,
    switch_period: SimDuration,
    total: SimDuration,
    label: &str,
) -> AccuracyTimeline {
    let fb = settings.trace(TraceKind::Facebook);
    let cmu = settings.trace(TraceKind::Cmu);
    let mut events = Vec::new();
    let mut offset = SimDuration::ZERO;
    let mut use_fb = true;
    let mut file_base = 0u64;
    while offset < total {
        let t = if use_fb { &fb } else { &cmu };
        // Clip each segment to the switch period.
        let seg: Vec<_> = stream(t, offset, file_base)
            .into_iter()
            .filter(|(time, _, _)| time.duration_since(SimTime::ZERO + offset) < switch_period)
            .collect();
        events.extend(seg);
        // Ids index the registry's dense slab: space the segments by the
        // trace's file count, not by a fixed gap.
        file_base += t.files.len() as u64;
        offset += switch_period;
        use_fb = !use_fb;
    }
    events.sort_by_key(|(t, e, _)| (*t, matches!(e, Ev::Access(_))));
    timeline_over(
        settings,
        &events,
        octo_policies::DOWNGRADE_WINDOW,
        LearningMode::Incremental,
        label,
    )
}

fn timeline_over(
    settings: &ExpSettings,
    events: &[(SimTime, Ev, u64)],
    window: SimDuration,
    mode: LearningMode,
    label: &str,
) -> AccuracyTimeline {
    let mut learner_cfg = settings.learner(FeatureConfig::default());
    learner_cfg.mode = mode;
    let mut registry = StatsRegistry::new(learner_cfg.features.k);
    let mut predictor = AccessPredictor::new(window, learner_cfg);
    let mut hourly: Vec<(u64, u64)> = Vec::new(); // (correct, total) per hour
    replay(
        events,
        &mut predictor,
        &mut registry,
        SimDuration::from_mins(5),
        settings.seed ^ 0x717,
        |t, score, label| {
            let hour = (t.as_millis() / 3_600_000) as usize;
            if hourly.len() <= hour {
                hourly.resize(hour + 1, (0, 0));
            }
            hourly[hour].1 += 1;
            if (score >= 0.5) == label {
                hourly[hour].0 += 1;
            }
        },
    );
    AccuracyTimeline {
        label: label.to_string(),
        points: hourly
            .iter()
            .enumerate()
            .filter(|(_, (_, n))| *n > 0)
            .map(|(h, (c, n))| (h as u64 + 1, *c as f64 / *n as f64 * 100.0))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roc_beats_chance_on_fb_downgrade() {
        let settings = ExpSettings::quick(31);
        let r = roc_experiment(
            &settings,
            TraceKind::Facebook,
            settings.downgrade_window(),
            FeatureConfig::default(),
            "FB downgrade",
        );
        assert!(r.test_points > 30, "test points: {}", r.test_points);
        assert!(r.roc.auc > 0.6, "AUC {:.3} should beat chance", r.roc.auc);
    }

    #[test]
    fn ablation_has_five_variants() {
        let v = ablation_variants();
        assert_eq!(v.len(), 5);
        assert_eq!(v[0].1.n_features(), 15);
        assert_eq!(v[3].1.n_features(), 9);
    }

    /// Each ablation variant replays through a registry that keeps its own
    /// `k` accesses: with a 12-access history, "with 18 accesses" saw six
    /// all-NaN delta columns and trained the default's model.
    #[test]
    fn longer_history_variant_trains_its_own_model() {
        let settings = ExpSettings::quick(3);
        let run = |features: FeatureConfig| {
            roc_experiment(
                &settings,
                TraceKind::Facebook,
                settings.downgrade_window(),
                features,
                "FB downgrade",
            )
        };
        let default = run(FeatureConfig::default());
        let longer = run(FeatureConfig {
            k: 18,
            ..FeatureConfig::default()
        });
        assert!(
            (longer.roc.auc, longer.accuracy) != (default.roc.auc, default.accuracy),
            "k = 18 reproduced the default's AUC {} and accuracy {}",
            default.roc.auc,
            default.accuracy
        );
    }

    #[test]
    fn incremental_timeline_produces_hourly_points() {
        let settings = ExpSettings::quick(33);
        let tl = learning_mode_timeline(
            &settings,
            TraceKind::Facebook,
            octo_policies::UPGRADE_WINDOW,
            LearningMode::Incremental,
            "incremental",
        );
        assert!(!tl.points.is_empty());
        for (_, acc) in &tl.points {
            assert!((0.0..=100.0).contains(acc));
        }
    }

    #[test]
    fn workload_shift_runs() {
        let settings = ExpSettings::quick(35);
        let tl = workload_shift_timeline(
            &settings,
            SimDuration::from_hours(1),
            SimDuration::from_hours(3),
            "alternating 1h",
        );
        assert!(!tl.points.is_empty());
    }
}
