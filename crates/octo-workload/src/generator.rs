//! The SWIM-style statistical workload synthesizer (paper §7.1).
//!
//! The real FB and CMU traces are proprietary; this generator reproduces the
//! published statistics that drive policy behaviour:
//!
//! * **Job-size bin mix** — exactly the Table 3 "% of jobs" columns.
//! * **Skewed popularity** — per-bin Zipf assignment of job arrivals to
//!   distinct input datasets; a small fraction of files collects most
//!   accesses (Figure 5c).
//! * **Re-access temporal structure** — the FB workload exhibits *bursty*
//!   temporal locality (exponential re-access gaps ≈ 25 min), while CMU
//!   re-accesses are *semi-periodic with long gaps* (log-normal around
//!   ≈ 2 h). This is the property that makes LRU/LRFU shine on FB and
//!   struggle on CMU (§7.2).
//! * **Cold files** — durable job outputs that are never read again
//!   (≈ 23 % / 18 % of files for FB / CMU), plus a sprinkle of ingested-
//!   but-unused datasets; these pollute the memory tier and give downgrade
//!   policies something to get wrong.
//!
//! Every draw comes from a seeded [`DetRng`], so a `(kind, seed)` pair
//! pins the trace byte-for-byte.

use crate::bins::SizeBin;
use crate::trace::{FileSpec, JobSpec, Trace, TraceKind};
use octo_common::{ByteSize, DetRng, SimDuration, SimTime, ZipfSampler};
use serde::{Deserialize, Serialize};

/// Output bytes as a fraction of input bytes, `[lo, hi)` uniform.
const OUTPUT_RATIO: (f64, f64) = (0.10, 0.40);

/// Generator parameters. [`WorkloadConfig::facebook`] and
/// [`WorkloadConfig::cmu`] encode the paper's two workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Trace family (drives the re-access gap distribution).
    pub kind: TraceKind,
    /// Number of jobs (paper: FB 1000, CMU 800).
    pub jobs: usize,
    /// Length of the submission window (paper: 6 h).
    pub duration: SimDuration,
    /// Fraction of jobs per bin, Table 3's "% of Jobs" column.
    pub bin_job_fraction: [f64; 6],
    /// Mean number of accesses per distinct input file, per bin.
    pub reuse_factor: [f64; 6],
    /// Zipf skew of per-bin file popularity.
    pub popularity_alpha: f64,
    /// Mean re-access gap for the bursty component.
    pub burst_gap: SimDuration,
    /// Mean re-access gap for the periodic/long component.
    pub long_gap: SimDuration,
    /// Probability a re-access comes from the long-gap component.
    pub long_gap_fraction: f64,
    /// Probability a job's output is durable (stays in the DFS unread).
    pub durable_output_fraction: f64,
    /// Fraction of extra ingested datasets that no job ever reads.
    pub unused_input_fraction: f64,
    /// Multiplies every file/output size (the §7.5 scalability runs scale
    /// data proportionally with the cluster).
    pub data_scale: f64,
}

impl WorkloadConfig {
    /// The Facebook-derived workload (paper §7.1).
    pub fn facebook() -> Self {
        WorkloadConfig {
            kind: TraceKind::Facebook,
            jobs: 1000,
            duration: SimDuration::from_hours(6),
            bin_job_fraction: [0.744, 0.162, 0.040, 0.030, 0.016, 0.008],
            reuse_factor: [3.0, 2.6, 2.2, 2.2, 2.2, 2.2],
            popularity_alpha: 1.1,
            burst_gap: SimDuration::from_mins(25),
            long_gap: SimDuration::from_mins(110),
            long_gap_fraction: 0.2,
            durable_output_fraction: 0.11,
            unused_input_fraction: 0.05,
            data_scale: 1.0,
        }
    }

    /// The CMU OpenCloud-derived workload (paper §7.1).
    pub fn cmu() -> Self {
        WorkloadConfig {
            kind: TraceKind::Cmu,
            jobs: 800,
            duration: SimDuration::from_hours(6),
            bin_job_fraction: [0.634, 0.291, 0.009, 0.049, 0.015, 0.003],
            reuse_factor: [2.4, 2.2, 1.8, 2.0, 2.0, 1.8],
            popularity_alpha: 0.9,
            burst_gap: SimDuration::from_mins(35),
            long_gap: SimDuration::from_mins(120),
            long_gap_fraction: 0.75,
            durable_output_fraction: 0.10,
            unused_input_fraction: 0.04,
            data_scale: 1.0,
        }
    }

    /// Builds the config for a trace kind. [`TraceKind::Synthetic`] has no
    /// published statistics of its own (its workloads come from compiled
    /// event traces, not this generator), so it falls back to the Facebook
    /// parameter set with the kind relabelled.
    pub fn for_kind(kind: TraceKind) -> Self {
        match kind {
            TraceKind::Facebook => Self::facebook(),
            TraceKind::Cmu => Self::cmu(),
            TraceKind::Synthetic => WorkloadConfig {
                kind: TraceKind::Synthetic,
                ..Self::facebook()
            },
        }
    }
}

/// Samples a job/file size inside a bin, log-uniform so small sizes
/// dominate within wide bins (Figure 5's CDF shape).
fn sample_size_in_bin(bin: SizeBin, rng: &mut DetRng, scale: f64) -> ByteSize {
    let (lo, hi) = bin.range();
    let lo = (lo.as_bytes().max(64 * 1024)) as f64; // floor at 64 KB
    let hi = hi.as_bytes() as f64;
    let v = (rng.range_f64(lo.ln(), hi.ln())).exp();
    ByteSize::from_bytes(((v * scale).max(64.0 * 1024.0)) as u64)
}

/// One re-access gap drawn from the workload's mixture.
fn sample_gap(cfg: &WorkloadConfig, rng: &mut DetRng) -> SimDuration {
    if rng.chance(cfg.long_gap_fraction) {
        // Semi-periodic: log-normal centred near `long_gap` (σ keeps most
        // gaps within ±40 %).
        let mean = cfg.long_gap.as_millis() as f64;
        let mu = mean.ln() - 0.08; // e^{σ²/2} correction for σ=0.4
        SimDuration::from_millis(rng.log_normal(mu, 0.4).max(30_000.0) as u64)
    } else {
        let gap = rng.exponential(cfg.burst_gap.as_millis() as f64);
        SimDuration::from_millis(gap.max(15_000.0) as u64)
    }
}

/// Generates a full workload trace.
pub fn generate(cfg: &WorkloadConfig, seed: u64) -> Trace {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x0C70_9A55_D00D_F00D);
    let mut files: Vec<FileSpec> = Vec::new();
    let mut jobs: Vec<JobSpec> = Vec::new();

    for bin in SizeBin::ALL {
        let n_jobs_bin = ((cfg.jobs as f64) * cfg.bin_job_fraction[bin.index()]).round() as usize;
        if n_jobs_bin == 0 {
            continue;
        }
        let n_files_bin =
            ((n_jobs_bin as f64 / cfg.reuse_factor[bin.index()]).ceil() as usize).max(1);
        let zipf = ZipfSampler::new(n_files_bin, cfg.popularity_alpha);

        // Distribute the bin's job count over its files by Zipf mass,
        // guaranteeing every file at least one access.
        let mut counts = vec![1usize; n_files_bin];
        let mut assigned = n_files_bin.min(n_jobs_bin);
        while assigned < n_jobs_bin {
            counts[zipf.sample(&mut rng)] += 1;
            assigned += 1;
        }

        let mean_gap_ms = cfg.long_gap_fraction * cfg.long_gap.as_millis() as f64
            + (1.0 - cfg.long_gap_fraction) * cfg.burst_gap.as_millis() as f64;
        for (rank, &k) in counts.iter().enumerate() {
            let size = sample_size_in_bin(bin, &mut rng, cfg.data_scale);
            let file_idx = files.len();
            // Place the first access so the whole expected re-access chain
            // fits inside the window (popular files start earlier); later
            // accesses follow the gap mixture.
            // Hot files are re-accessed faster (the production traces show
            // up to 64 accesses within hours): shrink this file's gaps so
            // its expected chain fits in ~70% of the window.
            let gap_scale = if k > 1 {
                (cfg.duration.as_millis() as f64 * 0.70 / ((k - 1) as f64 * mean_gap_ms)).min(1.0)
            } else {
                1.0
            };
            let expected_chain = (k.saturating_sub(1)) as f64 * mean_gap_ms * gap_scale;
            let latest_start =
                (cfg.duration.as_millis() as f64 * 0.95 - expected_chain).max(1.0) as u64;
            let first = SimTime::from_millis(rng.below(latest_start.max(1)));
            let lead = SimDuration::from_millis(rng.exponential(600_000.0).max(5_000.0) as u64);
            files.push(FileSpec {
                path: format!(
                    "/data/{}/bin_{}/ds{:04}",
                    cfg.kind.label(),
                    bin.label(),
                    file_idx
                ),
                size,
                created: first.saturating_sub(lead),
                bin,
            });
            let mut t = first;
            for i in 0..k {
                if i > 0 {
                    let gap = sample_gap(cfg, &mut rng);
                    let scaled = ((gap.as_millis() as f64 * gap_scale).max(5_000.0)) as u64;
                    t += SimDuration::from_millis(scaled);
                    if t.duration_since(SimTime::ZERO) > cfg.duration {
                        break;
                    }
                }
                let out_ratio = rng.range_f64(OUTPUT_RATIO.0, OUTPUT_RATIO.1);
                jobs.push(JobSpec {
                    submit: t,
                    input: file_idx,
                    output_size: ByteSize::from_bytes((size.as_bytes() as f64 * out_ratio) as u64),
                    output_durable: rng.chance(cfg.durable_output_fraction),
                    bin,
                });
            }
            let _ = rank;
        }
    }

    // Ingested-but-never-read datasets (they only pollute storage).
    let n_unused = ((files.len() as f64) * cfg.unused_input_fraction).round() as usize;
    for i in 0..n_unused {
        let bin = SizeBin::ALL[rng.index(3)]; // unused data skews small
        let size = sample_size_in_bin(bin, &mut rng, cfg.data_scale);
        files.push(FileSpec {
            path: format!("/data/{}/unused/ds{:04}", cfg.kind.label(), i),
            size,
            created: SimTime::from_millis(rng.below(cfg.duration.as_millis().max(1))),
            bin,
        });
    }

    jobs.sort_by_key(|j| (j.submit, j.input));
    Trace {
        kind: cfg.kind,
        seed,
        files,
        jobs,
        deletes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let cfg = WorkloadConfig::facebook();
        let a = generate(&cfg, 42);
        let b = generate(&cfg, 42);
        assert_eq!(a, b);
        let c = generate(&cfg, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn fb_bin_mix_matches_table_3() {
        let cfg = WorkloadConfig::facebook();
        let trace = generate(&cfg, 7);
        let counts = trace.jobs_per_bin();
        let total: usize = counts.iter().sum();
        // Job totals drift slightly because per-file access chains can run
        // past the 6-hour window; the mix must stay close to Table 3.
        assert!(
            (total as i64 - 1000).unsigned_abs() < 150,
            "job count {total}"
        );
        for bin in SizeBin::ALL {
            let frac = counts[bin.index()] as f64 / total as f64;
            let target = cfg.bin_job_fraction[bin.index()];
            assert!(
                (frac - target).abs() < 0.06,
                "bin {bin}: {frac:.3} vs Table 3 {target:.3}"
            );
        }
    }

    #[test]
    fn cmu_bin_mix_matches_table_3() {
        let cfg = WorkloadConfig::cmu();
        let trace = generate(&cfg, 7);
        let counts = trace.jobs_per_bin();
        let total: usize = counts.iter().sum();
        assert!(
            (total as i64 - 800).unsigned_abs() < 120,
            "job count {total}"
        );
        let frac_a = counts[0] as f64 / total as f64;
        assert!((frac_a - 0.634).abs() < 0.06, "bin A fraction {frac_a}");
    }

    #[test]
    fn popularity_is_skewed() {
        let trace = generate(&WorkloadConfig::facebook(), 11);
        let mut counts = trace.access_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let accessed: Vec<u32> = counts.into_iter().filter(|c| *c > 0).collect();
        // A head of popular files and a long tail of single-access ones.
        assert!(accessed[0] >= 5, "most popular file: {}", accessed[0]);
        let singles = accessed.iter().filter(|c| **c == 1).count();
        assert!(
            singles as f64 / accessed.len() as f64 > 0.3,
            "long tail expected"
        );
    }

    #[test]
    fn total_bytes_in_paper_ballpark() {
        let trace = generate(&WorkloadConfig::facebook(), 3);
        let gb = trace.total_input_bytes().as_gb_f64();
        // The paper's FB workload holds 92 GB of files; the generator only
        // controls this statistically.
        assert!((40.0..170.0).contains(&gb), "total input {gb:.1} GB");
        let read_gb = trace.total_read_bytes().as_gb_f64();
        assert!(read_gb > gb, "re-accesses mean reads exceed dataset size");
    }

    #[test]
    fn files_created_before_first_access() {
        let trace = generate(&WorkloadConfig::cmu(), 9);
        for j in &trace.jobs {
            assert!(
                trace.files[j.input].created <= j.submit,
                "input must exist before the job runs"
            );
        }
    }

    #[test]
    fn submissions_are_sorted_and_within_window() {
        let cfg = WorkloadConfig::facebook();
        let trace = generate(&cfg, 5);
        for w in trace.jobs.windows(2) {
            assert!(w[0].submit <= w[1].submit);
        }
        let horizon = SimTime::ZERO + cfg.duration + cfg.duration; // generous
        assert!(trace.last_submit() < horizon);
    }

    #[test]
    fn fb_gaps_shorter_than_cmu_gaps() {
        // The property that separates the two workloads for LRU-style
        // policies: median re-access gap.
        let median_gap = |kind: TraceKind| -> f64 {
            let trace = generate(&WorkloadConfig::for_kind(kind), 21);
            let mut by_file: std::collections::HashMap<usize, Vec<SimTime>> = Default::default();
            for j in &trace.jobs {
                by_file.entry(j.input).or_default().push(j.submit);
            }
            let mut gaps: Vec<u64> = Vec::new();
            for times in by_file.values() {
                for w in times.windows(2) {
                    gaps.push(w[1].duration_since(w[0]).as_millis());
                }
            }
            gaps.sort_unstable();
            gaps[gaps.len() / 2] as f64
        };
        let fb = median_gap(TraceKind::Facebook);
        let cmu = median_gap(TraceKind::Cmu);
        assert!(
            cmu > fb * 1.5,
            "CMU median gap ({cmu}) must be much longer than FB ({fb})"
        );
    }

    #[test]
    fn durable_output_fraction_is_respected() {
        let trace = generate(&WorkloadConfig::facebook(), 13);
        let durable = trace.jobs.iter().filter(|j| j.output_durable).count();
        let frac = durable as f64 / trace.jobs.len() as f64;
        assert!((frac - 0.11).abs() < 0.05, "durable fraction {frac}");
    }

    #[test]
    fn data_scale_multiplies_sizes() {
        let mut cfg = WorkloadConfig::facebook();
        let base = generate(&cfg, 2).total_input_bytes().as_gb_f64();
        cfg.data_scale = 4.0;
        let scaled = generate(&cfg, 2).total_input_bytes().as_gb_f64();
        let ratio = scaled / base;
        assert!((3.5..4.5).contains(&ratio), "scale ratio {ratio}");
    }
}
