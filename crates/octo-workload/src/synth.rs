//! Seed-deterministic synthetic access-trace generators.
//!
//! Where [`crate::generator`] reproduces the paper's two production
//! workloads statistically, this module manufactures *event-level* traces
//! ([`EventTrace`]) with controlled temporal and popularity structure, so
//! the scenario-matrix harness can sweep policy behaviour across workload
//! shapes the paper never measured:
//!
//! * [`AccessPattern::Diurnal`] — arrival intensity follows a sinusoidal
//!   day/night cycle (thinning of a uniform arrival stream), the shape of
//!   user-facing analytics clusters.
//! * [`AccessPattern::Bursty`] — an ON/OFF process: most reads land inside
//!   short bursts with exponential inter-burst gaps, the shape that makes
//!   recency-based policies shine.
//! * [`AccessPattern::HeavyTailed`] — Zipf(α) file popularity with
//!   uniform arrivals: a small hot set collects most accesses, the shape
//!   that rewards frequency-based policies.
//!
//! Every draw comes from a [`DetRng`] seeded explicitly, so a
//! `(config, seed)` pair pins the trace byte-for-byte — the matrix
//! harness relies on this to make whole sweeps reproducible.

use crate::events::{EventTrace, TraceEvent, TraceOp};
use octo_common::{ByteSize, DetRng, SimDuration, SimTime, ZipfSampler};
use serde::{Deserialize, Serialize};

/// The temporal/popularity structure of a synthetic trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Sinusoidal arrival intensity with the given cycle length;
    /// `peak_to_trough` is the ratio between the busiest and quietest
    /// instant (≥ 1).
    Diurnal {
        /// Length of one day/night cycle.
        period: SimDuration,
        /// Peak arrival rate divided by trough arrival rate.
        peak_to_trough: f64,
    },
    /// ON/OFF arrivals: `in_burst` of the reads land inside bursts of
    /// length `burst_len`, whose starts are exponentially spaced with the
    /// given mean gap; the rest arrive uniformly.
    Bursty {
        /// Mean gap between burst starts.
        mean_gap: SimDuration,
        /// Length of one burst window.
        burst_len: SimDuration,
        /// Fraction of reads that land inside a burst.
        in_burst: f64,
    },
    /// Uniform arrivals, Zipf(α)-skewed file popularity.
    HeavyTailed {
        /// Zipf skew of file popularity (production traces: 0.9–1.2).
        alpha: f64,
    },
}

impl AccessPattern {
    /// Short label for workload names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            AccessPattern::Diurnal { .. } => "diurnal",
            AccessPattern::Bursty { .. } => "bursty",
            AccessPattern::HeavyTailed { .. } => "zipf",
        }
    }
}

/// Fraction of files deleted shortly after their last read.
const DELETE_FRACTION: f64 = 0.1;

/// Generator parameters. The [`SynthConfig::diurnal`], [`SynthConfig::bursty`]
/// and [`SynthConfig::heavy_tailed`] presets are sized for quick-mode
/// simulation (a few hundred events over two simulated hours).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Trace name (becomes the workload label in matrix reports).
    pub name: String,
    /// Temporal/popularity structure.
    pub pattern: AccessPattern,
    /// Number of distinct datasets written at the start of the trace.
    pub files: usize,
    /// Number of read events.
    pub reads: usize,
    /// Number of distinct client ids events are attributed to.
    pub clients: u32,
    /// Trace length; all writes land in the first 5 % of it, reads in the
    /// remainder.
    pub duration: SimDuration,
    /// File sizes are log-uniform in `[min, max)`.
    pub file_size: (ByteSize, ByteSize),
}

impl SynthConfig {
    fn base(name: &str, pattern: AccessPattern) -> SynthConfig {
        SynthConfig {
            name: name.to_string(),
            pattern,
            files: 80,
            reads: 320,
            clients: 16,
            duration: SimDuration::from_hours(2),
            file_size: (ByteSize::mb(4), ByteSize::mb(384)),
        }
    }

    /// A day/night cycle compressed into the trace window.
    pub fn diurnal() -> SynthConfig {
        Self::base(
            "diurnal",
            AccessPattern::Diurnal {
                period: SimDuration::from_mins(40),
                peak_to_trough: 6.0,
            },
        )
    }

    /// Tight read bursts separated by quiet gaps.
    pub fn bursty() -> SynthConfig {
        Self::base(
            "bursty",
            AccessPattern::Bursty {
                mean_gap: SimDuration::from_mins(12),
                burst_len: SimDuration::from_mins(3),
                in_burst: 0.85,
            },
        )
    }

    /// Zipf-skewed popularity over a uniform arrival stream.
    pub fn heavy_tailed() -> SynthConfig {
        Self::base("zipf", AccessPattern::HeavyTailed { alpha: 1.1 })
    }

    /// Rescales the file-size range so the dataset's *expected* total size
    /// is `pressure × capacity`. Sweeping `pressure` across 1.0 moves the
    /// working set from fits-in-tier to over-committed, which is what
    /// separates eviction policies in a tournament. The log-uniform floor
    /// (64 KiB per file) puts a lower bound on how far down this can scale.
    pub fn with_tier_pressure(mut self, capacity: ByteSize, pressure: f64) -> SynthConfig {
        let lo = self.file_size.0.as_bytes().max(64 * 1024) as f64;
        let hi = (self.file_size.1.as_bytes() as f64).max(lo * 1.001);
        // Mean of log-uniform on [lo, hi): (hi - lo) / ln(hi / lo).
        let mean = (hi - lo) / (hi / lo).ln();
        let target = capacity.as_bytes() as f64 * pressure.max(1e-6);
        let scale = target / (mean * self.files.max(1) as f64);
        self.file_size = (
            ByteSize::from_bytes((lo * scale).max(64.0 * 1024.0) as u64),
            ByteSize::from_bytes((hi * scale).max(128.0 * 1024.0) as u64),
        );
        self
    }
}

/// A mix of synthetic parts merged into one trace: each part keeps its own
/// temporal/popularity structure, its own disjoint client-id range, and its
/// own path namespace (`/mix/<name>/p<i>/…`), so one trace can combine
/// diurnal, bursty and Zipf populations at million-client scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixConfig {
    /// Trace name (becomes the workload label in matrix reports).
    pub name: String,
    /// The component traces, merged in timestamp order.
    pub parts: Vec<SynthConfig>,
}

impl MixConfig {
    /// Total distinct client-id space across all parts (ids are disjoint).
    pub fn clients(&self) -> u64 {
        self.parts.iter().map(|p| p.clients as u64).sum()
    }

    /// The standing ≥ 1M-client tournament workload: diurnal + bursty +
    /// Zipf populations, 1.2M disjoint client ids, with enough reads per
    /// part that every structural property test has signal.
    pub fn million_clients() -> MixConfig {
        let part = |cfg: SynthConfig| SynthConfig {
            clients: 400_000,
            files: 96,
            reads: 480,
            ..cfg
        };
        MixConfig {
            name: "mix1m".to_string(),
            parts: vec![
                part(SynthConfig::diurnal()),
                part(SynthConfig::bursty()),
                part(SynthConfig::heavy_tailed()),
            ],
        }
    }
}

/// Generates each part with a seed derived from `(seed, part index)`,
/// offsets its client ids into a disjoint range, prefixes its paths, and
/// merges everything into one trace. Deterministic: the same `(mix, seed)`
/// pair yields the same trace byte-for-byte, and each part's events are
/// bit-identical to synthesizing that part alone (modulo id offset and
/// path prefix).
pub fn synthesize_mix(mix: &MixConfig, seed: u64) -> EventTrace {
    assert!(!mix.parts.is_empty(), "a mix needs at least one part");
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut client_base = 0u64;
    for (i, part) in mix.parts.iter().enumerate() {
        let part_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let base = u32::try_from(client_base).expect("mix client-id space exceeds u32");
        for mut e in synthesize(part, part_seed).events {
            e.client += base;
            e.path = format!("/mix/{}/p{}{}", mix.name, i, e.path);
            events.push(e);
        }
        client_base += part.clients as u64;
        u32::try_from(client_base).expect("mix client-id space exceeds u32");
    }
    // Stable sort: same-instant events keep part order, so the merge is a
    // pure function of the inputs.
    events.sort_by_key(|e| e.at);
    EventTrace::new(mix.name.clone(), events)
}

/// Log-uniform size in `[lo, hi)`.
fn sample_size(rng: &mut DetRng, lo: ByteSize, hi: ByteSize) -> ByteSize {
    let lo = lo.as_bytes().max(64 * 1024) as f64;
    let hi = (hi.as_bytes() as f64).max(lo * 1.001);
    ByteSize::from_bytes(rng.range_f64(lo.ln(), hi.ln()).exp() as u64)
}

/// Generates an event trace from `cfg` and `seed`. Deterministic: the same
/// `(cfg, seed)` pair yields the same trace byte-for-byte.
pub fn synthesize(cfg: &SynthConfig, seed: u64) -> EventTrace {
    assert!(cfg.files > 0, "need at least one file");
    assert!(cfg.clients > 0, "need at least one client");
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5EED_7124_CE00_0000);
    let mut events: Vec<TraceEvent> = Vec::with_capacity(cfg.files * 2 + cfg.reads);

    // Ingest: every dataset is written inside the first 5 % of the window.
    let ingest_window = (cfg.duration.as_millis() / 20).max(1);
    let mut sizes = Vec::with_capacity(cfg.files);
    for i in 0..cfg.files {
        let size = sample_size(&mut rng, cfg.file_size.0, cfg.file_size.1);
        sizes.push(size);
        events.push(TraceEvent {
            at: SimTime::from_millis(rng.below(ingest_window)),
            client: rng.below(cfg.clients as u64) as u32,
            op: TraceOp::Write,
            path: format!("/synth/{}/f{:04}", cfg.pattern.label(), i),
            bytes: size,
        });
    }
    let read_start = ingest_window;
    let read_span = cfg.duration.as_millis().saturating_sub(read_start).max(1);

    // Popularity: heavy-tailed patterns use their α; temporal patterns get
    // a mild skew so recency structure, not popularity, dominates.
    let alpha = match cfg.pattern {
        AccessPattern::HeavyTailed { alpha } => alpha,
        _ => 0.4,
    };
    let zipf = ZipfSampler::new(cfg.files, alpha);

    // Bursty traces precompute their burst windows first, so the window
    // layout is independent of how many reads land in each.
    let bursts: Vec<(u64, u64)> = match cfg.pattern {
        AccessPattern::Bursty {
            mean_gap,
            burst_len,
            ..
        } => {
            let mut windows = Vec::new();
            let mut t = read_start;
            loop {
                t += rng.exponential(mean_gap.as_millis() as f64).max(1000.0) as u64;
                if t >= read_start + read_span {
                    break;
                }
                windows.push((t, burst_len.as_millis().max(1)));
            }
            if windows.is_empty() {
                windows.push((read_start, read_span));
            }
            windows
        }
        _ => Vec::new(),
    };

    let mut last_read = vec![SimTime::ZERO; cfg.files];
    for _ in 0..cfg.reads {
        let at_ms = match cfg.pattern {
            AccessPattern::Diurnal {
                period,
                peak_to_trough,
            } => {
                // Thinning: accept a uniform draw with probability
                // proportional to the sinusoidal intensity, normalized so
                // the peak always accepts.
                let r = peak_to_trough.max(1.0);
                loop {
                    let t = read_start + rng.below(read_span);
                    let phase = t as f64 / period.as_millis().max(1) as f64 * std::f64::consts::TAU;
                    let w = (1.0 + r + (r - 1.0) * phase.sin()) / (2.0 * r);
                    if rng.chance(w) {
                        break t;
                    }
                }
            }
            AccessPattern::Bursty { in_burst, .. } => {
                if rng.chance(in_burst) {
                    let (start, len) = bursts[rng.index(bursts.len())];
                    (start + rng.below(len)).min(read_start + read_span - 1)
                } else {
                    read_start + rng.below(read_span)
                }
            }
            AccessPattern::HeavyTailed { .. } => read_start + rng.below(read_span),
        };
        let file = zipf.sample(&mut rng);
        let at = SimTime::from_millis(at_ms);
        last_read[file] = last_read[file].max(at);
        events.push(TraceEvent {
            at,
            client: rng.below(cfg.clients as u64) as u32,
            op: TraceOp::Read,
            path: format!("/synth/{}/f{:04}", cfg.pattern.label(), file),
            bytes: sizes[file],
        });
    }

    // A slice of the files is deleted shortly after their final read
    // (never-read files count their write as the final access).
    let n_delete = ((cfg.files as f64) * DELETE_FRACTION).round() as usize;
    for i in 0..n_delete.min(cfg.files) {
        // Spread deletions across the file set deterministically.
        let file = (i * cfg.files) / n_delete.max(1);
        let after = last_read[file].max(SimTime::from_millis(read_start));
        let gap = SimDuration::from_millis(rng.exponential(120_000.0).max(10_000.0) as u64);
        events.push(TraceEvent {
            at: after + gap,
            client: rng.below(cfg.clients as u64) as u32,
            op: TraceOp::Delete,
            path: format!("/synth/{}/f{:04}", cfg.pattern.label(), file),
            bytes: ByteSize::ZERO,
        });
    }

    events.sort_by_key(|e| e.at);
    EventTrace::new(cfg.name.clone(), events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        for cfg in [
            SynthConfig::diurnal(),
            SynthConfig::bursty(),
            SynthConfig::heavy_tailed(),
        ] {
            let a = synthesize(&cfg, 17);
            let b = synthesize(&cfg, 17);
            assert_eq!(a, b, "{} trace must be seed-deterministic", cfg.name);
            let c = synthesize(&cfg, 18);
            assert_ne!(a, c, "{} trace must vary with the seed", cfg.name);
        }
    }

    #[test]
    fn all_presets_compile_and_round_trip() {
        for cfg in [
            SynthConfig::diurnal(),
            SynthConfig::bursty(),
            SynthConfig::heavy_tailed(),
        ] {
            let t = synthesize(&cfg, 3);
            let trace = t.compile().expect("compiles");
            assert_eq!(trace.files.len(), cfg.files);
            assert!(trace.jobs.len() >= cfg.reads, "every read becomes a job");
            assert!(!trace.deletes.is_empty());
            let back = EventTrace::from_jsonl(&cfg.name, &t.to_jsonl()).unwrap();
            assert_eq!(back.to_jsonl(), t.to_jsonl());
        }
    }

    #[test]
    fn heavy_tail_is_heavier_than_diurnal() {
        let skew = |cfg: &SynthConfig| -> f64 {
            let t = synthesize(cfg, 5);
            let mut counts = std::collections::HashMap::<&str, usize>::new();
            for e in &t.events {
                if e.op == TraceOp::Read {
                    *counts.entry(e.path.as_str()).or_default() += 1;
                }
            }
            let mut v: Vec<usize> = counts.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            let top: usize = v.iter().take(v.len().div_ceil(10)).sum();
            top as f64 / v.iter().sum::<usize>() as f64
        };
        assert!(
            skew(&SynthConfig::heavy_tailed()) > skew(&SynthConfig::diurnal()),
            "zipf trace concentrates more reads in its top decile"
        );
    }

    #[test]
    fn bursty_reads_cluster() {
        // Measure the fraction of reads whose nearest-neighbour gap is
        // tiny; the bursty trace must clearly beat the diurnal one.
        let clustered = |cfg: &SynthConfig| -> f64 {
            let t = synthesize(cfg, 9);
            let mut reads: Vec<u64> = t
                .events
                .iter()
                .filter(|e| e.op == TraceOp::Read)
                .map(|e| e.at.as_millis())
                .collect();
            reads.sort_unstable();
            let close = reads.windows(2).filter(|w| w[1] - w[0] < 10_000).count();
            close as f64 / (reads.len() - 1) as f64
        };
        assert!(
            clustered(&SynthConfig::bursty()) > clustered(&SynthConfig::diurnal()) + 0.1,
            "bursty reads must cluster in time"
        );
    }

    #[test]
    fn diurnal_intensity_oscillates() {
        let cfg = SynthConfig::diurnal();
        let AccessPattern::Diurnal { period, .. } = cfg.pattern else {
            unreachable!()
        };
        let t = synthesize(&cfg, 21);
        // Bucket reads by phase within the cycle: the peak half-cycle must
        // collect well over half of them.
        let (mut peak, mut trough) = (0usize, 0usize);
        for e in &t.events {
            if e.op != TraceOp::Read {
                continue;
            }
            let phase = (e.at.as_millis() % period.as_millis()) as f64 / period.as_millis() as f64;
            if (0.0..0.5).contains(&phase) {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        let total = (peak + trough) as f64;
        assert!(
            peak as f64 / total > 0.6,
            "peak half-cycle holds {peak} of {total} reads"
        );
    }

    #[test]
    fn mix_is_deterministic_and_merges_disjoint_parts() {
        let mix = MixConfig::million_clients();
        let a = synthesize_mix(&mix, 11);
        assert_eq!(
            a,
            synthesize_mix(&mix, 11),
            "mix must be seed-deterministic"
        );
        assert_ne!(a, synthesize_mix(&mix, 12), "mix must vary with the seed");
        // Each part occupies its own path namespace and client-id range.
        for (i, part) in mix.parts.iter().enumerate() {
            let prefix = format!("/mix/{}/p{i}/", mix.name);
            let lo: u32 = mix.parts[..i].iter().map(|p| p.clients).sum();
            let hi = lo + part.clients;
            assert!(a
                .events
                .iter()
                .filter(|e| e.path.starts_with(&prefix))
                .all(|e| (lo..hi).contains(&e.client)));
        }
        assert!(
            mix.clients() >= 1_000_000,
            "the standing mix spans ≥ 1M client ids"
        );
    }

    #[test]
    fn tier_pressure_rescales_expected_dataset_size() {
        let capacity = ByteSize::gb(4);
        let cfg = SynthConfig::heavy_tailed().with_tier_pressure(capacity, 2.0);
        let t = synthesize(&cfg, 2);
        let total: u64 = t
            .events
            .iter()
            .filter(|e| e.op == TraceOp::Write)
            .map(|e| e.bytes.as_bytes())
            .sum();
        let target = capacity.as_bytes() as f64 * 2.0;
        let ratio = total as f64 / target;
        assert!(
            (0.5..2.0).contains(&ratio),
            "sampled dataset ({total} B) tracks the 2× pressure target ({target} B)"
        );
    }

    #[test]
    fn events_fit_in_the_window_with_slack() {
        let cfg = SynthConfig::bursty();
        let t = synthesize(&cfg, 1);
        let last = t.events.iter().map(|e| e.at).max().unwrap();
        // Deletions may trail past the nominal duration but stay bounded.
        assert!(last < SimTime::ZERO + cfg.duration + SimDuration::from_hours(1));
    }
}
