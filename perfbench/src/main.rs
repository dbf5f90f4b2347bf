//! Whole-run benchmark of the tiering system: two simulator workloads, the
//! policy epoch loop over a large namespace, and the `octoctl` daemon cycle
//! over a real directory tree. See `perfbench/README.md` for the workloads,
//! the metrics and what each layer is predicted to move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end set untraced, the per-layer set
//! traced). The exit code is non-zero when an output check failed.

mod daemon;
mod epoch;
mod sim;
mod spans;
mod timed;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("byte_hit_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A layer
/// the workload does not call reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("cluster.new_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.us_per_task", "us"),
    ("cluster.tasks", "count"),
    ("cluster.transfers", "count"),
    ("cluster.repairs", "count"),
    ("cluster.crashes", "count"),
    ("cluster.failed_reads", "count"),
    ("cluster.tasks_rerun", "count"),
    ("sim.jobs", "count"),
    ("sim.job_p50_s", "sim_s"),
    ("sim.read_p50_s", "sim_s"),
    ("sim.read_p99_s", "sim_s"),
    ("dfs.ingest.calls", "count"),
    ("dfs.ingest.busy_s", "s"),
    ("dfs.rank_lookup.busy_s", "s"),
    ("dfs.record_access.calls", "count"),
    ("dfs.record_access.busy_s", "s"),
    ("dfs.refill.busy_s", "s"),
    ("dfs.complete_transfer.calls", "count"),
    ("dfs.complete_transfer.busy_s", "s"),
    ("policies.notify.busy_s", "s"),
    ("policies.tick.busy_s", "s"),
    ("policies.downgrade.calls", "count"),
    ("policies.downgrade.busy_s", "s"),
    ("policies.downgrade.moves", "count"),
    ("policies.downgrade.us_per_move", "us"),
    ("policies.plan_moves.calls", "count"),
    ("policies.plan_moves.self_s", "s"),
    ("backend_fs.record_read.calls", "count"),
    ("backend_fs.record_read.busy_s", "s"),
    ("backend_fs.sidecar_bytes_per_record", "B"),
    ("backend_fs.clock.busy_s", "s"),
    ("backend_fs.list_files.calls", "count"),
    ("backend_fs.list_files.busy_s", "s"),
    ("backend_fs.list_files.files", "count"),
    ("backend_fs.tier_status.calls", "count"),
    ("backend_fs.tier_status.busy_s", "s"),
    ("backend_fs.copy_file.busy_s", "s"),
    ("backend_fs.copy_file.bytes", "B"),
    ("backend_fs.verify_copy.busy_s", "s"),
    ("backend_fs.verify_copy.bytes_per_moved_byte", "ratio"),
    ("backend_fs.delete_replica.calls", "count"),
    ("backend_fs.delete_replica.busy_s", "s"),
    ("octoctl.execute_plan.self_s", "s"),
    ("octoctl.moves.planned", "count"),
    ("octoctl.moves.moved", "count"),
    ("octoctl.moves.skipped", "count"),
    ("octoctl.moves.up", "count"),
    ("octoctl.moves.down", "count"),
    ("octoctl.record_p50_us", "us"),
    ("octoctl.record_p99_us", "us"),
    ("octoctl.cycle_p50_ms", "ms"),
    ("octoctl.move_mb_s", "MB/s"),
    ("bytes_moved_gb", "GB"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

const WORKLOADS: &[&str] = &[
    "sim_fb_xgb",
    "sim_fig13_lru",
    "epoch_scale_xgb",
    "daemon_fs",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let work_dir = PathBuf::from(value("--work-dir")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Output checks that failed; empty means every output was correct.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name, end-to-end and per-layer alike.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Decides how many passes a run makes over a single-input workload. The
/// first two passes always run, so every output is seen twice; later ones
/// run while the longest pass so far still fits in `--seconds`. In a
/// traced run, odd passes are traced and even ones are not, and at least
/// three run, so the tracing overhead compares the traced passes with
/// untraced passes after the first, from one process.
pub struct Schedule {
    start: Instant,
    seconds: f64,
    trace: bool,
    longest: f64,
    done: usize,
}

impl Schedule {
    pub fn new(args: &Args) -> Self {
        Schedule {
            start: Instant::now(),
            seconds: args.seconds,
            trace: args.trace,
            longest: 0.0,
            done: 0,
        }
    }

    /// The next pass to run, and whether it is traced; `None` when done.
    pub fn next(&mut self, last_pass_s: Option<f64>) -> Option<(usize, bool)> {
        if let Some(s) = last_pass_s {
            self.longest = self.longest.max(s);
            self.done += 1;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let min_passes = if self.trace { 3 } else { 2 };
        if self.done >= min_passes && elapsed + self.longest > self.seconds {
            return None;
        }
        Some((self.done, self.trace && self.done % 2 == 1))
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Traced minus untraced median pass time, leaving out the first pass,
/// which runs with cold caches.
pub fn trace_overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    median(traced) - median(&untraced[1..])
}

/// Median of each named per-layer value across traced passes.
pub fn median_by_name(passes: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut names: Vec<&'static str> = passes.iter().flat_map(|p| p.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let vals: Vec<f64> = passes
                .iter()
                .map(|p| p.get(n).copied().unwrap_or(0.0))
                .collect();
            (n, median(&vals))
        })
        .collect()
}

/// Derives the seed of input `index` from the run's seed (SplitMix64).
pub fn input_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes recorded spans to `<work-dir>/spans-<workload>.tsv`, replacing
/// the previous dump.
pub fn save_spans(args: &Args, spans: &[spans::Span], out: &mut Outcome) {
    let path = args.work_dir.join(format!("spans-{}.tsv", args.workload));
    if let Err(e) = spans::write_tsv(spans, &path) {
        out.problems
            .push(format!("writing {}: {e}", path.display()));
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "sim_fb_xgb" => sim::run(sim::SimWorkload::FbXgb, &args),
        "sim_fig13_lru" => sim::run(sim::SimWorkload::Fig13Lru, &args),
        "epoch_scale_xgb" => epoch::run(&args),
        "daemon_fs" => daemon::run(&args),
        _ => unreachable!("workload names are checked while parsing"),
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        out.set(
            "peak_rss_mb",
            octo_experiments::scale::peak_rss_kb() as f64 / 1024.0,
        );
    }
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                out.problems
                    .push(format!("end-to-end metric {name} was not measured"));
                f64::NAN
            }
        };
        if !value.is_finite() {
            out.problems
                .push(format!("metric {name} is not a finite number"));
        }
        println!("{:<46} {:>18} {unit}", name, json_number(value));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
