//! Booster refresh probe: a paper-shaped observation stream replayed
//! through `IncrementalLearner` with the paper's model settings — a
//! 4000-row sliding window, depth-20 trees and r = 10 rounds per refresh —
//! timing every refresh and every plain observation, written to
//! `BENCH_booster.json`.
//!
//! The stream imitates the §4.1 access features: a file-size column,
//! recency, up to eleven consecutive access deltas (missing when the file
//! has fewer accesses), and the two creation deltas, with a label that
//! mostly follows recency. The clock advances so that the learner refreshes
//! every `OBS_PER_REFRESH` observations; past `max_trees` a refresh
//! compacts. An observation that triggers a refresh counts as a refresh,
//! the rest as observations (each one scores the model, then buffers).
//!
//! The probe replays the stream twice and asserts that both replays end
//! with the same model digest. Timings are printed and recorded, never
//! gated. The committed JSON also records, under `parent`, the numbers this
//! same file measured on the commit before the incremental booster.
//!
//! ```text
//! OCTO_BENCH_MODE=quick cargo bench -p bench --bench booster_refresh
//! ```

use bench::banner;
use octo_access::{IncrementalLearner, LearnerConfig};
use octo_common::{DetRng, SimTime};
use octo_experiments::digest::fnv1a;
use std::time::Instant;

/// Observations between two refreshes.
const OBS_PER_REFRESH: u64 = 500;

fn quick_mode() -> bool {
    std::env::var("OCTO_BENCH_MODE").as_deref() == Ok("quick")
        || std::env::args().any(|a| a == "--quick")
}

/// One feature vector in the default 15-column layout, and its label.
fn observation(rng: &mut DetRng) -> (Vec<f32>, bool) {
    let mut x = vec![f32::NAN; 15];
    x[0] = [0.0064, 0.0125, 0.025, 0.1, 0.4][rng.index(5)];
    let accesses = rng.index(13);
    let recency = rng.exponential(0.02).min(1.0);
    if accesses > 0 {
        x[1] = recency as f32;
    }
    for slot in x
        .iter_mut()
        .skip(2)
        .take(accesses.saturating_sub(1).min(11))
    {
        *slot = rng.exponential(0.01).min(1.0) as f32;
    }
    let age = recency + rng.unit() * (1.0 - recency);
    if accesses > 0 {
        x[13] = (rng.unit() * (age - recency)) as f32;
    }
    x[14] = age as f32;
    let label = if rng.chance(0.1) {
        rng.chance(0.5)
    } else {
        accesses > 0 && recency < 0.01
    };
    (x, label)
}

struct Replay {
    observations: u64,
    refreshes: u64,
    refresh_ms: Vec<f64>,
    observe_us: Vec<f64>,
    digest: u64,
}

/// Feeds `n` observations of the seeded stream to a fresh learner.
fn replay(n: u64) -> Replay {
    let cfg = LearnerConfig::default();
    let step_ms = cfg.refresh_interval.as_millis() / OBS_PER_REFRESH;
    let mut learner = IncrementalLearner::new(cfg);
    let mut rng = DetRng::seed_from_u64(0xB0057);
    let mut refresh_ms = Vec::new();
    let mut observe_us = Vec::new();
    for k in 0..n {
        let (x, y) = observation(&mut rng);
        let now = SimTime::from_millis(step_ms * k);
        let trainings = learner.trainings();
        let start = Instant::now();
        learner.observe(std::hint::black_box(&x), y, now);
        let secs = start.elapsed().as_secs_f64();
        if learner.trainings() > trainings {
            refresh_ms.push(secs * 1e3);
        } else {
            observe_us.push(secs * 1e6);
        }
    }
    let model = learner.model().expect("the stream trains a model");
    let digest = fnv1a(format!("{model:?}").as_bytes());
    Replay {
        observations: n,
        refreshes: learner.trainings(),
        refresh_ms,
        observe_us,
        digest,
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

fn main() {
    let quick = quick_mode();
    banner(
        "Booster refresh: incremental learner on a paper-shaped stream",
        "§4.2-4.4: r = 10 trees of depth 20 per refresh over a 4000-row \
         sliding window, test-then-train on every labelled point",
    );
    let n = if quick { 12_000 } else { 48_000 };
    let first = replay(n);
    let second = replay(n);
    assert_eq!(
        first.digest, second.digest,
        "two replays of one stream must train the same model"
    );
    for (k, r) in [&first, &second].into_iter().enumerate() {
        println!(
            "replay {k}: {} observations, {} refreshes — refresh mean {:.2} ms \
             (max {:.2} ms), observe mean {:.2} us (max {:.2} us)",
            r.observations,
            r.refreshes,
            mean(&r.refresh_ms),
            max(&r.refresh_ms),
            mean(&r.observe_us),
            max(&r.observe_us),
        );
    }
    println!(
        "model digest {:#018x} identical in both replays",
        first.digest
    );

    // The second replay runs with warm caches and allocator; it is the one
    // recorded.
    let r = &second;
    let json = format!(
        "{{\n  \"bench\": \"booster_refresh\",\n  \"mode\": \"{}\",\n  \
         \"window\": 4000,\n  \"max_depth\": 20,\n  \"rounds\": 10,\n  \
         \"observations\": {},\n  \"refreshes\": {},\n  \
         \"mean_refresh_ms\": {:.3},\n  \"max_refresh_ms\": {:.3},\n  \
         \"mean_observe_us\": {:.3},\n  \"max_observe_us\": {:.3},\n  \
         \"model_digest\": {}\n}}\n",
        if quick { "quick" } else { "full" },
        r.observations,
        r.refreshes,
        mean(&r.refresh_ms),
        max(&r.refresh_ms),
        mean(&r.observe_us),
        max(&r.observe_us),
        r.digest,
    );
    let out = std::env::var("OCTO_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_booster.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_booster.json");
    println!("\nwrote {out}");
}
