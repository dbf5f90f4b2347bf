//! Plan-cycle probe for the local-directory backend: what one planning
//! cycle's observation of the tree costs, written to
//! `BENCH_plan_cycle.json`.
//!
//! The tree is laid out like perfbench's `daemon_fs` one: 16 directories
//! of small files, the memory tier just over the start threshold, about
//! 30% of the bytes on SSD and the rest on HDD, and inherited read
//! history for every tenth file. Every hundredth file also has a copy of
//! a different size on the tier below its own, as a crash between a
//! move's verify and delete can leave. Per tree size it reports the
//! medians, over a few repeats, of:
//!
//! * `list_files_ms`: one `list_files` on a freshly opened backend;
//! * `tier_status_us`: the three `tier_status` calls `plan_moves` makes
//!   right after that listing, together, in microseconds;
//! * `plan_moves_ms`: one `plan_moves` on another freshly opened backend,
//!   as each `octoctl daemon` cycle opens one.
//!
//! It asserts that a backend that has already listed and planned plans
//! exactly what a freshly opened one does, and that every tier row of the
//! plan equals the used bytes a fresh walk of that tier sums (a backend
//! that never listed walks the root). Timings are printed and recorded,
//! never gated. The committed JSON also records, under `parent`, the
//! numbers this same file measured on the commit before `tier_status`
//! answered from the listing, when each call walked its root again.
//!
//! ```text
//! OCTO_BENCH_MODE=quick cargo bench -p bench --bench plan_cycle
//! ```

use bench::banner;
use octo_backend_fs::{FsBackend, FsBackendConfig, SidecarEntry, StatsSidecar};
use octo_common::{ByteSize, DetRng, PerTier, StorageTier};
use octo_dfs::backend::StorageBackend;
use octo_policies::{plan_moves, PlannerConfig};
use std::path::Path;
use std::time::Instant;

/// Timed repeats per tree size; the median is reported.
const REPEATS: usize = 7;
/// File sizes are uniform in `[MIN_BYTES, MAX_BYTES]`.
const MIN_BYTES: u64 = 256;
const MAX_BYTES: u64 = 2048;

fn quick_mode() -> bool {
    std::env::var("OCTO_BENCH_MODE").as_deref() == Ok("quick")
        || std::env::args().any(|a| a == "--quick")
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn write_file(cfg: &FsBackendConfig, tier: StorageTier, path: &str, len: u64) {
    let full = cfg.roots.get(tier).join(path);
    std::fs::create_dir_all(full.parent().expect("tree paths have a parent"))
        .expect("creating a tree directory");
    std::fs::write(full, vec![0x5a; len as usize]).expect("writing a tree file");
}

/// Writes the tree and its inherited statistics under `base`.
fn make_tree(base: &Path, files: usize) -> FsBackendConfig {
    let _ = std::fs::remove_dir_all(base);
    let mut rng = DetRng::seed_from_u64(0x9_1A4C_1C1E ^ files as u64);
    let sizes: Vec<u64> = (0..files)
        .map(|_| MIN_BYTES + rng.below(MAX_BYTES - MIN_BYTES + 1))
        .collect();
    let total: u64 = sizes.iter().sum();
    let (mem_cap, ssd_cap) = (total / 25, total / 2);
    let capacities = PerTier::from_fn(|t| match t {
        StorageTier::Memory => ByteSize::from_bytes(mem_cap),
        StorageTier::Ssd => ByteSize::from_bytes(ssd_cap),
        StorageTier::Hdd => ByteSize::from_bytes(total * 2),
    });
    let cfg = FsBackendConfig::under(base, capacities);
    let (mut mem, mut ssd) = (0u64, 0u64);
    let mut inherited = StatsSidecar::default();
    for (i, &size) in sizes.iter().enumerate() {
        let path = format!("d{:02}/f{i:06}.dat", i % 16);
        let tier = if mem * 100 < mem_cap * 92 {
            mem += size;
            StorageTier::Memory
        } else if ssd * 10 < ssd_cap * 6 {
            ssd += size;
            StorageTier::Ssd
        } else {
            StorageTier::Hdd
        };
        write_file(&cfg, tier, &path, size);
        if i % 100 == 0 && tier != StorageTier::Hdd {
            let below = StorageTier::ALL[tier.index() + 1];
            write_file(&cfg, below, &path, size + 1);
        }
        if i % 10 == 0 {
            let entry = SidecarEntry {
                reads: 1 + rng.below(4),
                last_access_ms: rng.below(10_000_000),
            };
            inherited.entries.insert(path, entry);
        }
    }
    inherited
        .save(&cfg.sidecar_path())
        .expect("writing the inherited statistics");
    cfg
}

struct Point {
    files: usize,
    list_files_ms: f64,
    tier_status_us: f64,
    plan_moves_ms: f64,
    moves: usize,
}

fn measure(base: &Path, files: usize) -> Point {
    let cfg = make_tree(base, files);
    let planner = PlannerConfig::default();
    let open = || FsBackend::open(cfg.clone()).expect("opening the backend");
    let (mut list_ms, mut status_us, mut plan_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut listed = 0;
    for _ in 0..REPEATS {
        let be = open();
        let t = Instant::now();
        listed = std::hint::black_box(be.list_files().expect("listing the tree")).len();
        list_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for tier in StorageTier::ALL {
            std::hint::black_box(be.tier_status(tier).expect("probing a tier"));
        }
        status_us.push(t.elapsed().as_secs_f64() * 1e6);

        let be = open();
        let t = Instant::now();
        std::hint::black_box(plan_moves(&be, &planner).expect("planning the tree"));
        plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    assert_eq!(listed, files, "every tree file is listed once");

    // A backend that has listed and planned before plans what a fresh
    // one does, and its tier rows are what a fresh walk sums.
    let reused = open();
    reused.list_files().expect("listing the tree");
    plan_moves(&reused, &planner).expect("planning the tree");
    let plan = plan_moves(&reused, &planner).expect("planning the tree");
    assert!(
        plan == plan_moves(&open(), &planner).expect("planning the tree"),
        "a backend that listed before must plan what a fresh one does ({files} files)"
    );
    assert!(
        !plan.moves.is_empty(),
        "the memory tier is over its start threshold"
    );
    for (row, tier) in plan.tiers.iter().zip(StorageTier::ALL) {
        let walked = open().tier_status(tier).expect("walking a tier").used;
        assert_eq!(
            row.used_bytes,
            walked.as_bytes(),
            "{tier} row of the plan ({files} files)"
        );
    }

    Point {
        files,
        list_files_ms: median(list_ms),
        tier_status_us: median(status_us),
        plan_moves_ms: median(plan_ms),
        moves: plan.moves.len(),
    }
}

fn main() {
    let quick = quick_mode();
    banner(
        "Plan cycle: FsBackend list_files, tier_status and plan_moves",
        "§7.7: the framework's monitoring overhead stays small next to the \
         work it manages",
    );
    let sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let base = std::env::temp_dir().join(format!("octo-bench-plan-{}", std::process::id()));
    let mut points = Vec::new();
    for &files in sizes {
        let p = measure(&base, files);
        println!(
            "{:>7} files: list_files {:>8.2} ms, tier_status x3 {:>10.3} us, \
             plan_moves {:>8.2} ms, {} moves planned",
            p.files, p.list_files_ms, p.tier_status_us, p.plan_moves_ms, p.moves,
        );
        points.push(p);
    }
    let _ = std::fs::remove_dir_all(&base);
    println!("reused backends planned exactly what fresh ones did; tier rows matched fresh walks");

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"files\": {}, \"list_files_ms\": {:.3}, \"tier_status_us\": {:.3}, \
                 \"plan_moves_ms\": {:.3}, \"moves\": {}}}",
                p.files, p.list_files_ms, p.tier_status_us, p.plan_moves_ms, p.moves,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"plan_cycle\",\n  \"mode\": \"{}\",\n  \
         \"repeats\": {REPEATS},\n  \"points\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        rows.join(",\n"),
    );
    let out = std::env::var("OCTO_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan_cycle.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_plan_cycle.json");
    println!("\nwrote {out}");
}
