//! `daemon_fs`: the `octoctl` daemon loop over a real directory tree.
//!
//! A pass builds a tree of seeded files under `mem/`, `ssd/` and `hdd/`
//! roots inside the work directory, opens an `FsBackend` on it, and runs
//! rounds of one closed-loop client:
//!
//! 1. the client writes new files into MEM and deletes its oldest ones
//!    (input, not timed); then the set-up is timed: a fresh
//!    `FsBackend::open` on the current tree, as every `octoctl` command
//!    opens one;
//! 2. a burst of Zipf reads goes through `record_read`; the popularity
//!    ranking rotates every round and the logical clock advances a fixed
//!    step per read;
//! 3. one `plan_moves` -> `execute_plan` cycle runs, called the way
//!    `octoctl daemon` calls them.
//!
//! Every backend call goes through [`TimedBackend`]. At the end of a pass,
//! every live file must sit on exactly one tier with the bytes the client
//! wrote.

use crate::spans::{totals, Tracer};
use crate::timed::TimedBackend;
use crate::{input_seed, median, median_by_name, Args, Outcome, Schedule};
use octo_backend_fs::{FsBackend, SidecarEntry, StatsSidecar};
use octo_common::{DetRng, SimTime, StorageTier, ZipfSampler};
use octo_dfs::backend::StorageBackend;
use octo_experiments::digest::fnv1a;
use octo_metrics::Cdf;
use octo_policies::plan_moves;
use octoctl::{execute_plan, OctoctlConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Files in the tree before the first round.
const FILES: usize = 10_000;
/// File sizes are uniform in `[MIN_BYTES, MAX_BYTES]`.
const MIN_BYTES: u64 = 4 * 1024;
const MAX_BYTES: u64 = 12 * 1024;
const ROUNDS: usize = 24;
const WRITES_PER_ROUND: usize = 16;
const DELETES_PER_ROUND: usize = 24;
const READS_PER_ROUND: usize = 128;
/// How far the popularity ranking rotates each round, in files.
const ROTATE_PER_ROUND: usize = 24;
const ZIPF_ALPHA: f64 = 1.1;
/// Logical clock at the first read and its step per read.
const CLOCK_START_MS: u64 = 10_000_000;
const CLOCK_STEP_MS: u64 = 5_000;

/// One file the client owns.
#[derive(Debug, Clone)]
struct ClientFile {
    path: String,
    size: u64,
    content_seed: u64,
}

fn content(f: &ClientFile) -> Vec<u8> {
    let mut x = f.content_seed | 1;
    (0..f.size)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

fn tier_path(base: &Path, tier: StorageTier, path: &str) -> PathBuf {
    base.join(tier.label().to_ascii_lowercase()).join(path)
}

fn write_file(base: &Path, tier: StorageTier, f: &ClientFile) {
    let p = tier_path(base, tier, &f.path);
    std::fs::create_dir_all(p.parent().expect("file paths have a parent"))
        .expect("creating a tree directory");
    std::fs::write(&p, content(f)).expect("writing a client file");
}

/// The seeded tree: initial files, their tiers, and the inherited sidecar.
struct Tree {
    cfg: OctoctlConfig,
    initial: Vec<(ClientFile, StorageTier)>,
    sidecar: StatsSidecar,
}

fn make_tree(base: &Path, seed: u64) -> Tree {
    let mut rng = DetRng::seed_from_u64(seed);
    let files: Vec<ClientFile> = (0..FILES)
        .map(|i| ClientFile {
            path: format!("d{:02}/f{i:05}.dat", i % 16),
            size: MIN_BYTES + rng.below(MAX_BYTES - MIN_BYTES + 1),
            content_seed: rng.below(u64::MAX),
        })
        .collect();
    let total: u64 = files.iter().map(|f| f.size).sum();
    // MEM holds the first files until it sits just over the 90% start
    // threshold; SSD takes the next 30% of the bytes at 60% of its
    // capacity; HDD holds the rest.
    let mem_cap = total / 25;
    let ssd_cap = total / 2;
    let mut cfg = OctoctlConfig::example(base.to_str().expect("work dir is UTF-8"));
    cfg.mem_capacity_bytes = mem_cap;
    cfg.ssd_capacity_bytes = ssd_cap;
    cfg.hdd_capacity_bytes = total * 2;
    let (mut mem, mut ssd) = (0u64, 0u64);
    let initial = files
        .into_iter()
        .map(|f| {
            let tier = if mem * 100 < mem_cap * 92 {
                mem += f.size;
                StorageTier::Memory
            } else if ssd * 10 < ssd_cap * 6 {
                ssd += f.size;
                StorageTier::Ssd
            } else {
                StorageTier::Hdd
            };
            (f, tier)
        })
        .collect();
    // The daemon inherits read history for every tenth file.
    let mut sidecar = StatsSidecar::default();
    for i in (0..FILES).step_by(10) {
        sidecar.entries.insert(
            format!("d{:02}/f{i:05}.dat", i % 16),
            SidecarEntry {
                reads: 1 + rng.below(4),
                last_access_ms: rng.below(CLOCK_START_MS),
            },
        );
    }
    Tree {
        cfg,
        initial,
        sidecar,
    }
}

/// What one pass measured and decided.
#[derive(Default)]
struct Pass {
    /// One timed `FsBackend::open` per round.
    setup_s: Vec<f64>,
    wall_s: f64,
    record_us: Vec<f64>,
    cycle_ms: Vec<f64>,
    exec_s: f64,
    /// FNV-1a of each cycle's `MovePlan::to_json()`.
    plan_hashes: Vec<u64>,
    records: u64,
    record_errors: u64,
    planned: u64,
    moved: u64,
    skipped: u64,
    interrupted: u64,
    up: u64,
    down: u64,
    bytes_moved: u64,
    read_bytes: u64,
    read_bytes_mem: u64,
    layers: BTreeMap<&'static str, f64>,
    spans: Vec<crate::spans::Span>,
    problems: Vec<String>,
}

fn one_pass(base: &Path, seed: u64, tracer: &Tracer) -> Pass {
    let _ = std::fs::remove_dir_all(base);
    let tree = make_tree(base, seed);
    for (f, tier) in &tree.initial {
        write_file(base, *tier, f);
    }
    let be_cfg = tree.cfg.backend_config();
    tree.sidecar
        .save(&be_cfg.sidecar_path())
        .expect("writing the inherited sidecar");
    let planner = tree.cfg.planner_config();
    // Flush the freshly written tree (and the previous pass's deletions)
    // so their writeback does not land inside the timed rounds.
    std::process::Command::new("sync")
        .status()
        .expect("running sync");

    let mut pass = Pass::default();
    let opened = FsBackend::open(be_cfg.clone()).expect("opening the backend");
    let mut backend = TimedBackend::new(opened, tracer);
    let cancel = AtomicBool::new(false);

    let mut rng = DetRng::seed_from_u64(seed ^ 0x00C1_1E17);
    let zipf = ZipfSampler::new(FILES + ROUNDS * WRITES_PER_ROUND, ZIPF_ALPHA);
    let mut live: Vec<ClientFile> = tree.initial.into_iter().map(|(f, _)| f).collect();
    let mut clock = CLOCK_START_MS;
    for round in 0..ROUNDS {
        // 1. Client writes and deletes (input, not timed).
        for i in 0..WRITES_PER_ROUND {
            let f = ClientFile {
                path: format!("new/r{round:03}/w{i:02}.dat"),
                size: MIN_BYTES + rng.below(MAX_BYTES - MIN_BYTES + 1),
                content_seed: rng.below(u64::MAX),
            };
            write_file(base, StorageTier::Memory, &f);
            live.push(f);
        }
        for f in live.drain(..DELETES_PER_ROUND) {
            for tier in StorageTier::ALL {
                let _ = std::fs::remove_file(tier_path(base, tier, &f.path));
            }
        }
        // Set-up: open the backend on the current tree and sidecar, as a
        // fresh `octoctl` command does. One open per round spreads the
        // samples over the pass, away from the tree's write-out.
        let t = Instant::now();
        let fresh = FsBackend::open(be_cfg.clone()).expect("opening the backend");
        pass.setup_s.push(t.elapsed().as_secs_f64());
        drop(fresh);
        // The reads of this round, on the ranking rotated for it.
        let offset = round * ROTATE_PER_ROUND;
        let burst: Vec<usize> = (0..READS_PER_ROUND)
            .map(|_| loop {
                let rank = zipf.sample(&mut rng);
                if rank < live.len() {
                    break (offset + rank) % live.len();
                }
            })
            .collect();
        for &i in &burst {
            pass.read_bytes += live[i].size;
            if tier_path(base, StorageTier::Memory, &live[i].path).is_file() {
                pass.read_bytes_mem += live[i].size;
            }
        }

        let t_round = Instant::now();
        let plan = tracer.span("phase.measured", || {
            // 2. The read burst.
            for &i in &burst {
                clock += CLOCK_STEP_MS;
                let t = Instant::now();
                let r = backend.record_read(&live[i].path, SimTime::from_millis(clock));
                pass.record_us.push(t.elapsed().as_secs_f64() * 1e6);
                pass.records += 1;
                if r.is_err() {
                    pass.record_errors += 1;
                }
            }
            // 3. One plan -> execute cycle, as `octoctl daemon` runs it.
            let t = Instant::now();
            let plan = tracer
                .span("policies.plan_moves", || plan_moves(&backend, &planner))
                .expect("planning over a healthy tree");
            if !plan.moves.is_empty() {
                let te = Instant::now();
                let report = tracer.span("octoctl.execute_plan", || {
                    execute_plan(&mut backend, &plan, &cancel)
                });
                pass.exec_s += te.elapsed().as_secs_f64();
                pass.moved += report.moved as u64;
                pass.skipped += report.skipped as u64;
                pass.interrupted += u64::from(report.interrupted);
                pass.bytes_moved += report.bytes_moved;
            }
            pass.cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
            plan
        });
        pass.wall_s += t_round.elapsed().as_secs_f64();
        pass.planned += plan.moves.len() as u64;
        for m in &plan.moves {
            if m.to == StorageTier::Memory.label() {
                pass.up += 1;
            } else {
                pass.down += 1;
            }
        }
        pass.plan_hashes.push(fnv1a(plan.to_json().as_bytes()));
    }

    if tracer.enabled() {
        pass.spans = tracer.take();
        pass.layers = layer_metrics(&pass.spans, &backend, &pass);
    }
    check_tree(base, &backend, &live, &mut pass.problems);
    let _ = std::fs::remove_dir_all(base);
    pass
}

/// Every live file on exactly one tier with the bytes the client wrote,
/// and nothing else in the tree.
fn check_tree(
    base: &Path,
    backend: &TimedBackend<'_, FsBackend>,
    live: &[ClientFile],
    problems: &mut Vec<String>,
) {
    for f in live {
        let on: Vec<StorageTier> = StorageTier::ALL
            .into_iter()
            .filter(|t| tier_path(base, *t, &f.path).is_file())
            .collect();
        if on.len() != 1 {
            problems.push(format!("{} is on {} tiers", f.path, on.len()));
            continue;
        }
        match std::fs::read(tier_path(base, on[0], &f.path)) {
            Ok(bytes) if bytes == content(f) => {}
            _ => problems.push(format!("{} does not hold the bytes written", f.path)),
        }
    }
    match backend.list_files() {
        Ok(files) if files.len() == live.len() => {}
        Ok(files) => problems.push(format!(
            "backend lists {} files, the client owns {}",
            files.len(),
            live.len()
        )),
        Err(e) => problems.push(format!("listing the tree: {e}")),
    }
}

fn layer_metrics(
    spans: &[crate::spans::Span],
    backend: &TimedBackend<'_, FsBackend>,
    pass: &Pass,
) -> BTreeMap<&'static str, f64> {
    let tot = totals(spans);
    let get = |n: &str| tot.get(n).copied().unwrap_or_default();
    let c = backend.counts();
    let mut m = BTreeMap::new();
    for (span, calls, busy) in [
        (
            "backend_fs.record_read",
            "backend_fs.record_read.calls",
            "backend_fs.record_read.busy_s",
        ),
        (
            "backend_fs.list_files",
            "backend_fs.list_files.calls",
            "backend_fs.list_files.busy_s",
        ),
        (
            "backend_fs.tier_status",
            "backend_fs.tier_status.calls",
            "backend_fs.tier_status.busy_s",
        ),
        (
            "backend_fs.delete_replica",
            "backend_fs.delete_replica.calls",
            "backend_fs.delete_replica.busy_s",
        ),
    ] {
        m.insert(calls, get(span).calls as f64);
        m.insert(busy, get(span).busy_s);
    }
    m.insert("backend_fs.clock.busy_s", get("backend_fs.clock").busy_s);
    m.insert(
        "backend_fs.copy_file.busy_s",
        get("backend_fs.copy_file").busy_s,
    );
    m.insert(
        "backend_fs.verify_copy.busy_s",
        get("backend_fs.verify_copy").busy_s,
    );
    m.insert("backend_fs.copy_file.bytes", c.bytes_copied as f64);
    m.insert(
        "backend_fs.sidecar_bytes_per_record",
        c.record_bytes_written as f64 / pass.records.max(1) as f64,
    );
    m.insert(
        "backend_fs.list_files.files",
        c.files_listed as f64 / get("backend_fs.list_files").calls.max(1) as f64,
    );
    m.insert(
        "backend_fs.verify_copy.bytes_per_moved_byte",
        c.verify_bytes_read as f64 / c.bytes_verified.max(1) as f64,
    );
    m.insert(
        "policies.plan_moves.calls",
        get("policies.plan_moves").calls as f64,
    );
    m.insert(
        "policies.plan_moves.self_s",
        get("policies.plan_moves").self_s,
    );
    m.insert(
        "octoctl.execute_plan.self_s",
        get("octoctl.execute_plan").self_s,
    );
    m.insert("trace.unattributed_s", get("phase.measured").self_s);
    m
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = input_seed(args.seed, 0);
    let base = args
        .work_dir
        .join(format!("daemon_fs-{}", std::process::id()));
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut schedule = Schedule::new(args);
    let mut last = None;
    while let Some((pass_no, trace)) = schedule.next(last) {
        let start = Instant::now();
        let tracer = Tracer::new(trace);
        let pass = one_pass(&base, seed, &tracer);
        for p in &pass.problems {
            out.problems.push(format!("pass {pass_no}: {p}"));
        }
        if let Some(first) = untraced.first() {
            out.check(first.plan_hashes == pass.plan_hashes, || {
                format!("pass {pass_no}: a cycle's plan JSON differs from pass 0")
            });
        }
        if trace {
            crate::save_spans(args, &pass.spans, &mut out);
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        last = Some(start.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&base);

    let first = untraced.first().expect("pass 0 is untraced");
    out.attempted = first.records + first.planned;
    out.failed = first.record_errors + first.skipped + first.interrupted;
    out.check(first.up > 0 && first.down > 0, || {
        format!(
            "moves must go both ways: {} up, {} down",
            first.up, first.down
        )
    });
    out.check(first.moved == first.planned, || {
        format!(
            "{} of {} planned moves completed",
            first.moved, first.planned
        )
    });
    let med = |f: fn(&Pass) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let wall_s = med(|p| p.wall_s);
    let opens: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    out.set("setup_s", median(&opens));
    out.set("wall_s", wall_s);
    out.set(
        "byte_hit_ratio",
        first.read_bytes_mem as f64 / first.read_bytes.max(1) as f64,
    );
    out.set("bytes_moved_gb", first.bytes_moved as f64 / 1e9);
    out.set(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    // Latencies pooled over every untraced pass.
    let records: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.record_us.iter().copied())
        .collect();
    let cycles: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.cycle_ms.iter().copied())
        .collect();
    let (records, cycles) = (Cdf::new(records), Cdf::new(cycles));
    let nan = f64::NAN;
    out.set(
        "octoctl.record_p50_us",
        records.quantile(0.5).unwrap_or(nan),
    );
    out.set(
        "octoctl.record_p99_us",
        records.quantile(0.99).unwrap_or(nan),
    );
    out.set("octoctl.cycle_p50_ms", cycles.quantile(0.5).unwrap_or(nan));
    out.set(
        "octoctl.move_mb_s",
        med(|p| p.bytes_moved as f64 / 1e6 / p.exec_s.max(1e-9)),
    );
    for (name, v) in [
        ("octoctl.moves.planned", first.planned),
        ("octoctl.moves.moved", first.moved),
        ("octoctl.moves.skipped", first.skipped),
        ("octoctl.moves.up", first.up),
        ("octoctl.moves.down", first.down),
    ] {
        out.set(name, v as f64);
    }
    if !traced.is_empty() {
        let layers: Vec<_> = traced.iter().map(|p| p.layers.clone()).collect();
        for (n, v) in median_by_name(&layers) {
            out.set(n, v);
        }
        let walls = |passes: &[Pass]| passes.iter().map(|p| p.wall_s).collect::<Vec<_>>();
        out.set(
            "trace.overhead_s",
            crate::trace_overhead(&walls(&traced), &walls(&untraced)),
        );
    }
    out
}
