//! Record-throughput probe for the local-directory backend: how fast
//! `FsBackend` opens and records reads over a 1,000-file tree whose
//! inherited access statistics hold 10k, 100k or 1M entries (most of them
//! for files deleted long ago), written to `BENCH_backend.json`.
//!
//! For each size the probe saves the inherited statistics as the snapshot
//! three times, times three `FsBackend::open` calls, then records reads of
//! uniformly drawn tree files for a fixed wall-clock budget, timing each
//! `record_read` call alone. Per size it reports:
//!
//! * `save_ms`: the median of the three `StatsSidecar::save` calls, the
//!   snapshot rewrite a compaction pays;
//! * `open_ms`: the median open of the inherited statistics alone;
//! * `reopen_ms`: one open after the run, over whatever the recorded
//!   reads left on disk;
//! * `refresh_ms`: the median of three `FsBackend::refresh` calls by that
//!   reopened backend, each after the live one appended another 1,000
//!   records: the cost of catching up, as a daemon cycle does, instead of
//!   reopening;
//! * `records_per_s`: recorded reads over the time spent inside
//!   `record_read`;
//! * `written_bytes_per_record`: bytes the process wrote through syscalls
//!   during those calls (`wchar` in `/proc/self/io`), per read: appended
//!   log records plus the amortized snapshot rewrites;
//! * `log_bytes_per_record`: growth of `state/octostats.log` per read;
//! * `compactions`: how often the log shrank, i.e. was folded into the
//!   snapshot.
//!
//! It asserts that a backend reopened after the run lists exactly what
//! the live one does, and again after its refreshes. Timings are printed
//! and recorded, never gated. The committed JSON also records, under
//! `parent`, the numbers this same file measured on the commit before the
//! streaming save.
//!
//! ```text
//! OCTO_BENCH_MODE=quick cargo bench -p bench --bench backend_records
//! ```

use bench::banner;
use octo_backend_fs::{FsBackend, FsBackendConfig, SidecarEntry, StatsSidecar};
use octo_common::{ByteSize, DetRng, PerTier, SimTime, StorageTier};
use octo_dfs::backend::StorageBackend;
use std::path::Path;
use std::time::Instant;

/// Files in the tree.
const FILES: usize = 1_000;
/// Records the live backend appends before each timed refresh.
const REFRESH_RECORDS: usize = 1_000;

fn quick_mode() -> bool {
    std::env::var("OCTO_BENCH_MODE").as_deref() == Ok("quick")
        || std::env::args().any(|a| a == "--quick")
}

/// Bytes this process has written through syscalls so far.
fn bytes_written() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

fn tree_path(i: usize) -> String {
    format!("d{:02}/f{i:04}.dat", i % 32)
}

struct Point {
    entries: usize,
    save_ms: f64,
    open_ms: f64,
    reopen_ms: f64,
    refresh_ms: f64,
    records: u64,
    records_per_s: f64,
    written_bytes_per_record: f64,
    log_bytes_per_record: f64,
    compactions: u64,
}

fn measure(base: &Path, entries: usize, seconds: f64) -> Point {
    let _ = std::fs::remove_dir_all(base);
    let cfg = FsBackendConfig::under(base, PerTier::splat(ByteSize::gb(1)));
    for i in 0..FILES {
        let tier = StorageTier::ALL[i % 3];
        let full = cfg.roots.get(tier).join(tree_path(i));
        std::fs::create_dir_all(full.parent().expect("tree paths have a parent"))
            .expect("creating a tree directory");
        std::fs::write(full, [i as u8; 64]).expect("writing a tree file");
    }
    // The inherited history: every tree file, then files long gone.
    let mut rng = DetRng::seed_from_u64(0xBAC4_E5D0 ^ entries as u64);
    let mut inherited = StatsSidecar::default();
    for i in 0..entries {
        let path = if i < FILES {
            tree_path(i)
        } else {
            format!("gone/g{:03}/f{i:07}.dat", i % 997)
        };
        let entry = SidecarEntry {
            reads: 1 + rng.below(8),
            last_access_ms: rng.below(1_000_000_000),
        };
        inherited.entries.insert(path, entry);
    }
    let mut saves: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            inherited
                .save(&cfg.sidecar_path())
                .expect("writing the inherited statistics");
            t.elapsed().as_secs_f64()
        })
        .collect();
    saves.sort_by(f64::total_cmp);
    drop(inherited);

    let mut opens: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let be = FsBackend::open(cfg.clone()).expect("opening the backend");
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(be.clock());
            secs
        })
        .collect();
    opens.sort_by(f64::total_cmp);

    let log_path = cfg.state_dir.join("octostats.log");
    let log_len = || std::fs::metadata(&log_path).map_or(0, |m| m.len());
    let mut live = FsBackend::open(cfg.clone()).expect("opening the backend");
    let mut clock = 1_000_000_000u64;
    let (mut records, mut busy_s, mut appended, mut compactions) = (0u64, 0.0, 0u64, 0u64);
    let mut last_len = log_len();
    let written_before = bytes_written();
    let start = Instant::now();
    while records == 0 || start.elapsed().as_secs_f64() < seconds {
        let path = tree_path(rng.index(FILES));
        clock += 1_000;
        let t = Instant::now();
        live.record_read(std::hint::black_box(&path), SimTime::from_millis(clock))
            .expect("recording a read of a tree file");
        busy_s += t.elapsed().as_secs_f64();
        records += 1;
        // Untimed: the log only ever shrinks when it is compacted.
        let len = log_len();
        if len < last_len {
            compactions += 1;
        } else {
            appended += len - last_len;
        }
        last_len = len;
    }
    let written = bytes_written() - written_before;

    let t = Instant::now();
    let mut reopened = FsBackend::open(cfg.clone()).expect("reopening the backend");
    let reopen_ms = t.elapsed().as_secs_f64() * 1e3;
    let same_listing = |live: &FsBackend, other: &FsBackend, what: &str| {
        let now = live.list_files().expect("listing the live backend");
        assert_eq!(now.len(), FILES);
        assert!(
            other.list_files().expect("listing the other backend") == now,
            "a {what} backend must list exactly what the live one does ({entries} entries)"
        );
        assert_eq!(other.clock(), live.clock());
    };
    same_listing(&live, &reopened, "reopened");

    // Untimed: the live backend appends; timed: the reopened one catches
    // up. A compaction can land in at most one of the three windows, so the
    // median times a replay of the log's tail.
    let mut refreshes: Vec<f64> = (0..3)
        .map(|_| {
            for _ in 0..REFRESH_RECORDS {
                clock += 1_000;
                live.record_read(&tree_path(rng.index(FILES)), SimTime::from_millis(clock))
                    .expect("recording a read of a tree file");
            }
            let t = Instant::now();
            let done = reopened.refresh().expect("refreshing the backend");
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(done);
            secs
        })
        .collect();
    refreshes.sort_by(f64::total_cmp);
    same_listing(&live, &reopened, "refreshed");

    Point {
        entries,
        save_ms: saves[1] * 1e3,
        open_ms: opens[1] * 1e3,
        reopen_ms,
        refresh_ms: refreshes[1] * 1e3,
        records,
        records_per_s: records as f64 / busy_s,
        written_bytes_per_record: written as f64 / records as f64,
        log_bytes_per_record: appended as f64 / records as f64,
        compactions,
    }
}

fn main() {
    let quick = quick_mode();
    banner(
        "Backend record throughput: FsBackend open and record_read",
        "§7.7: per-file statistics are small and updated incrementally on \
         every access",
    );
    let (sizes, seconds): (&[usize], f64) = if quick {
        (&[10_000], 1.0)
    } else {
        (&[10_000, 100_000, 1_000_000], 2.0)
    };
    let base = std::env::temp_dir().join(format!("octo-bench-backend-{}", std::process::id()));
    let mut points = Vec::new();
    for &entries in sizes {
        let p = measure(&base, entries, seconds);
        println!(
            "{:>9} entries: save {:>8.2} ms, open {:>8.2} ms, reopen {:>8.2} ms, \
             refresh {:>6.3} ms, {:>7} records at {:>9.0} records/s, {:>10.1} B written \
             and {:>4.1} B logged per record, {} compactions",
            p.entries,
            p.save_ms,
            p.open_ms,
            p.reopen_ms,
            p.refresh_ms,
            p.records,
            p.records_per_s,
            p.written_bytes_per_record,
            p.log_bytes_per_record,
            p.compactions,
        );
        points.push(p);
    }
    let _ = std::fs::remove_dir_all(&base);
    println!("reopened and refreshed backends listed exactly what the live ones did");

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"entries\": {}, \"save_ms\": {:.3}, \"open_ms\": {:.3}, \
                 \"reopen_ms\": {:.3}, \"refresh_ms\": {:.3}, \"records\": {}, \
                 \"records_per_s\": {:.1}, \"written_bytes_per_record\": {:.1}, \
                 \"log_bytes_per_record\": {:.1}, \"compactions\": {}}}",
                p.entries,
                p.save_ms,
                p.open_ms,
                p.reopen_ms,
                p.refresh_ms,
                p.records,
                p.records_per_s,
                p.written_bytes_per_record,
                p.log_bytes_per_record,
                p.compactions,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"backend_records\",\n  \"mode\": \"{}\",\n  \
         \"files\": {FILES},\n  \"run_seconds\": {seconds:.1},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        rows.join(",\n"),
    );
    let out = std::env::var("OCTO_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_backend.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_backend.json");
    println!("\nwrote {out}");
}
