//! The two simulator workloads: `ClusterSim::new` and `ClusterSim::run`
//! over traces generated from the run's seed.

use crate::spans::{totals, Tracer};
use crate::{input_seed, median, Args, Outcome};
use octo_cluster::{ClusterSim, RunReport, Scenario, SimConfig};
use octo_common::{SimDuration, StorageTier};
use octo_dfs::DfsConfig;
use octo_experiments::{report_digest, ExpSettings};
use octo_metrics::{Cdf, RunSummary};
use octo_workload::{generate, FaultConfig, FaultSchedule, Trace, TraceKind, WorkloadConfig};
use std::time::Instant;

/// Simulator builds per input run; set-up time is their median.
const SETUPS: usize = 3;
/// Inputs an untraced run re-runs at least, to check they repeat.
const MIN_REPEATS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// The paper's FB trace on its 11-worker cluster under XGB-XGB.
    FbXgb,
    /// Figure 13's largest point (88 workers, data scaled 8x) under
    /// LRU-OSA with the policy tournament's crash plan.
    Fig13Lru,
}

impl SimWorkload {
    /// Traces per run, each from its own seed derived from the run's.
    fn inputs(self) -> u64 {
        match self {
            SimWorkload::FbXgb => 16,
            SimWorkload::Fig13Lru => 32,
        }
    }

    /// Each trace covers `1/window_divisor` of the paper's 6 h submission
    /// window with the same share of its jobs, so the arrival rate and the
    /// per-node load stay the paper's.
    fn window_divisor(self) -> u32 {
        match self {
            SimWorkload::FbXgb => 2,
            SimWorkload::Fig13Lru => 6,
        }
    }

    fn input(self, seed: u64) -> (Trace, SimConfig) {
        let settings = ExpSettings::full(seed);
        let base = settings.workload(TraceKind::Facebook);
        let div = self.window_divisor();
        let windowed = WorkloadConfig {
            jobs: base.jobs / div as usize,
            duration: SimDuration::from_millis(base.duration.as_millis() / u64::from(div)),
            ..base
        };
        match self {
            SimWorkload::FbXgb => (
                generate(&windowed, seed),
                settings.sim(Scenario::policy_pair("xgb", "xgb")),
            ),
            SimWorkload::Fig13Lru => {
                let factor = 8u32;
                let workers = 11 * factor;
                let wl = WorkloadConfig {
                    data_scale: f64::from(factor),
                    ..windowed
                };
                let sim = settings.sim(Scenario::policy_pair("lru", "osa"));
                let cfg = SimConfig {
                    dfs: DfsConfig {
                        workers,
                        ..sim.dfs.clone()
                    },
                    faults: FaultSchedule::generate(
                        &FaultConfig::default(),
                        workers,
                        seed ^ 0xFA17,
                    ),
                    ..sim
                };
                (generate(&wl, seed), cfg)
            }
        }
    }
}

/// Nearest-rank quantile, `NaN` (a failed metric) for no samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    Cdf::new(samples.to_vec()).quantile(q).unwrap_or(f64::NAN)
}

/// Pooled results over the run's traces.
#[derive(Default)]
struct Pooled {
    jobs: u64,
    failed_jobs: u64,
    tasks: u64,
    transfers: u64,
    repairs: u64,
    crashes: u64,
    failed_reads: u64,
    tasks_rerun: u64,
    bytes_moved: u64,
    job_secs: Vec<f64>,
    read_secs: Vec<f64>,
    bytes_read: u64,
    bytes_read_mem: u64,
}

impl Pooled {
    fn add(&mut self, r: &RunReport) {
        self.jobs += r.jobs.len() as u64;
        self.failed_jobs += r.faults.failed_jobs;
        self.transfers += r.movement.transfers_completed;
        self.repairs += r.faults.repairs_completed;
        self.crashes += r.faults.crashes;
        self.failed_reads += r.faults.failed_reads;
        self.tasks_rerun += r.faults.tasks_rerun;
        self.bytes_moved += RunSummary::from_report(r).bytes_moved;
        for j in &r.jobs {
            if !j.failed {
                self.job_secs.push(j.completion_secs());
            }
            for t in &j.tasks {
                self.tasks += 1;
                self.read_secs.push(t.read_secs);
                self.bytes_read += t.bytes.as_bytes();
                if t.read_tier == StorageTier::Memory {
                    self.bytes_read_mem += t.bytes.as_bytes();
                }
            }
        }
    }

    fn values(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sim.job_p50_s", quantile(&self.job_secs, 0.5)),
            ("sim.read_p50_s", quantile(&self.read_secs, 0.5)),
            ("sim.read_p99_s", quantile(&self.read_secs, 0.99)),
            (
                "byte_hit_ratio",
                self.bytes_read_mem as f64 / self.bytes_read.max(1) as f64,
            ),
            ("bytes_moved_gb", self.bytes_moved as f64 / 1e9),
        ]
    }
}

/// One build-and-run of one input.
struct InputRun {
    setup_s: f64,
    wall_s: f64,
    report: RunReport,
}

fn run_input(trace: &Trace, cfg: &SimConfig, tracer: &Tracer) -> InputRun {
    // Set-up is microseconds long: build the simulator several times and
    // keep the median, running the last one built.
    let mut builds = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let cfg = cfg.clone();
        let t = Instant::now();
        built = Some(tracer.span("cluster.new", || ClusterSim::new(cfg, trace)));
        builds.push(t.elapsed().as_secs_f64());
    }
    let sim = built.expect("built at least once");
    let t = Instant::now();
    let report = tracer.span("phase.measured", || {
        tracer.span("cluster.run", || sim.run())
    });
    InputRun {
        setup_s: median(&builds),
        wall_s: t.elapsed().as_secs_f64(),
        report,
    }
}

/// What must repeat bit for bit when an input runs again: the report
/// digest and the simulated values of that input alone.
fn fingerprint(report: &RunReport) -> (u64, Vec<u64>) {
    let mut one = Pooled::default();
    one.add(report);
    let values = one.values().iter().map(|(_, v)| v.to_bits()).collect();
    (report_digest(report), values)
}

/// Runs every input once (the reference outputs), every input once more
/// traced in a traced run, then re-runs inputs in order while the longest
/// one still fits in `--seconds`: at least [`MIN_REPEATS`] of them in an
/// untraced run, all of them in a traced run. Each re-run must repeat its
/// input's first outputs.
pub fn run(workload: SimWorkload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let inputs: Vec<(Trace, SimConfig)> = (0..workload.inputs())
        .map(|k| workload.input(input_seed(args.seed, k)))
        .collect();
    out.set("workload.generate_s", t0.elapsed().as_secs_f64());

    let start = Instant::now();
    let untraced = Tracer::new(false);
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut firsts = Vec::with_capacity(inputs.len());
    let mut pooled = Pooled::default();
    for (i, (trace, cfg)) in inputs.iter().enumerate() {
        let r = run_input(trace, cfg, &untraced);
        out.check(r.report.jobs.len() == trace.jobs.len(), || {
            format!(
                "input {i}: {} of {} trace jobs reported",
                r.report.jobs.len(),
                trace.jobs.len()
            )
        });
        firsts.push(fingerprint(&r.report));
        pooled.add(&r.report);
        setups[i].push(r.setup_s);
        walls[i].push(r.wall_s);
    }

    let mut traced_wall = None;
    if args.trace {
        let tracer = Tracer::new(true);
        let mut total = 0.0;
        for (i, (trace, cfg)) in inputs.iter().enumerate() {
            let r = run_input(trace, cfg, &tracer);
            out.check(fingerprint(&r.report) == firsts[i], || {
                format!("input {i}: the traced run's outputs differ from its first run")
            });
            total += r.wall_s;
        }
        traced_wall = Some(total);
        let spans = tracer.take();
        let tot = totals(&spans);
        let busy = |n: &str| tot.get(n).map_or(0.0, |t| t.busy_s);
        out.set("cluster.new_s", busy("cluster.new"));
        out.set("cluster.run_s", busy("cluster.run"));
        out.set(
            "cluster.us_per_task",
            busy("cluster.run") / pooled.tasks.max(1) as f64 * 1e6,
        );
        out.set(
            "trace.unattributed_s",
            tot.get("phase.measured").map_or(0.0, |t| t.self_s),
        );
        crate::save_spans(args, &spans, &mut out);
    }

    let longest = walls.iter().flatten().copied().fold(0.0, f64::max);
    // A traced run re-runs every input once more untraced, so the tracing
    // overhead compares warm runs with warm runs.
    let min_repeats = if args.trace {
        inputs.len()
    } else {
        MIN_REPEATS
    };
    let mut repeats = 0;
    while repeats < min_repeats || start.elapsed().as_secs_f64() + longest <= args.seconds {
        let i = repeats % inputs.len();
        let (trace, cfg) = &inputs[i];
        let r = run_input(trace, cfg, &untraced);
        out.check(fingerprint(&r.report) == firsts[i], || {
            format!("input {i}: a repeat's outputs differ from its first run")
        });
        setups[i].push(r.setup_s);
        walls[i].push(r.wall_s);
        repeats += 1;
    }

    let p = &pooled;
    out.attempted = p.jobs;
    out.failed = p.failed_jobs;
    out.check(p.jobs > 0 && p.tasks > 0, || "no jobs ran".into());
    if workload == SimWorkload::Fig13Lru {
        out.check(p.crashes >= 1, || "the crash plan crashed no node".into());
        out.check(p.repairs >= 1, || "no repair transfer completed".into());
    }
    for (name, v) in p.values() {
        out.set(name, v);
    }
    let sum_medians = |samples: &[Vec<f64>]| samples.iter().map(|s| median(s)).sum::<f64>();
    out.set("setup_s", sum_medians(&setups));
    let wall_s = sum_medians(&walls);
    out.set("wall_s", wall_s);
    if let Some(traced) = traced_wall {
        let warm: f64 = walls.iter().filter_map(|w| w.last()).sum();
        out.set("trace.overhead_s", traced - warm);
    }
    for (name, v) in [
        ("sim.jobs", p.jobs),
        ("cluster.tasks", p.tasks),
        ("cluster.transfers", p.transfers),
        ("cluster.repairs", p.repairs),
        ("cluster.crashes", p.crashes),
        ("cluster.failed_reads", p.failed_reads),
        ("cluster.tasks_rerun", p.tasks_rerun),
    ] {
        out.set(name, v as f64);
    }
    out.set("failed_ratio", p.failed_jobs as f64 / p.jobs.max(1) as f64);
    out
}
