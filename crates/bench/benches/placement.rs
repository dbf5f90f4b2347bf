//! Placement probe: what choosing every new block's replicas costs during
//! ingest, written to `BENCH_placement.json`.
//!
//! Each shape creates and commits files through `TieredDfs`, so every
//! block goes through `PlacementPolicy::place_new_block`, and every commit
//! changes the devices the next placement reads:
//!
//! * `fig13_ingest`: 88 workers with the default devices and 3 replicas,
//!   as the Fig. 13 runs, taking 3,000 files of 64 MB to 3 GB (1 to 24
//!   blocks of 128 MB each);
//! * `scale_ingest`: `run_scale`'s cluster, 16 workers with 1 replica and
//!   1 MB blocks, taking 200,000 single-block files.
//!
//! Per shape it reports the median, over a few replays, of the whole
//! ingest's time, and that time per placed block. Every replay must choose
//! the same replicas: the probe folds each block's `(node, tier)` choices
//! into a digest and asserts that the replays agree. Timings are printed
//! and recorded, never gated. The committed JSON also records, under
//! `parent`, the numbers this same file measured on the commit before
//! placement kept a table of device scores; equal digests there mean the
//! same choices.
//!
//! ```text
//! OCTO_BENCH_MODE=quick cargo bench -p bench --bench placement
//! ```

use bench::banner;
use octo_common::{ByteSize, DetRng, PerTier, SimTime, StorageTier};
use octo_dfs::{DfsConfig, TieredDfs};
use std::time::Instant;

/// Timed replays per shape; the median is reported.
const REPLAYS: usize = 5;

fn quick_mode() -> bool {
    std::env::var("OCTO_BENCH_MODE").as_deref() == Ok("quick")
        || std::env::args().any(|a| a == "--quick")
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

struct Shape {
    name: &'static str,
    config: DfsConfig,
    /// Every file's size, in ingest order.
    sizes: Vec<ByteSize>,
}

fn fig13_ingest(files: usize) -> Shape {
    let mut rng = DetRng::seed_from_u64(0x0088_F113);
    let sizes = (0..files)
        .map(|_| ByteSize::mb(64 + rng.below(3 * 1024 - 64 + 1)))
        .collect();
    Shape {
        name: "fig13_ingest",
        config: DfsConfig {
            workers: 88,
            replication: 3,
            ..DfsConfig::default()
        },
        sizes,
    }
}

/// `run_scale`'s cluster: the memory tier ends ingest at about 92%.
fn scale_ingest(files: u64) -> Shape {
    let workers = 16u64;
    let mem_per_node = ByteSize::mb((files.div_ceil(workers) * 100).div_ceil(92) + 8);
    Shape {
        name: "scale_ingest",
        config: DfsConfig {
            workers: workers as u32,
            replication: 1,
            block_size: ByteSize::mb(1),
            tier_capacity: PerTier::from_fn(|t| match t {
                StorageTier::Memory => mem_per_node,
                StorageTier::Ssd => ByteSize::mb(files.div_ceil(workers) * 2 + 64),
                StorageTier::Hdd => ByteSize::gb(256),
            }),
            ..DfsConfig::default()
        },
        sizes: vec![ByteSize::mb(1); files as usize],
    }
}

/// One ingest: seconds taken, blocks placed, and the digest of every
/// block's replica choices.
fn ingest(shape: &Shape) -> (f64, u64, u64) {
    let mut dfs = TieredDfs::new(shape.config.clone()).expect("valid config");
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut blocks = 0u64;
    let t = Instant::now();
    for (i, &size) in shape.sizes.iter().enumerate() {
        let now = SimTime::from_millis(i as u64);
        let plan = dfs
            .create_file(&format!("/ingest/f{i}"), size, now)
            .expect("the cluster holds the whole ingest");
        dfs.commit_file(plan.file, now).expect("fresh file");
        for block in &plan.blocks {
            blocks += 1;
            for &(node, tier) in &block.replicas {
                fold(u64::from(node.0) << 8 | tier.index() as u64);
            }
            fold(u64::MAX);
        }
    }
    (t.elapsed().as_secs_f64(), blocks, digest)
}

struct Point {
    name: &'static str,
    files: usize,
    blocks: u64,
    ingest_ms: f64,
    us_per_block: f64,
    digest: u64,
}

fn measure(shape: &Shape) -> Point {
    let mut times = Vec::with_capacity(REPLAYS);
    let (_, blocks, digest) = ingest(shape);
    for _ in 0..REPLAYS {
        let (secs, b, d) = std::hint::black_box(ingest(shape));
        assert_eq!(
            (b, d),
            (blocks, digest),
            "{}: a replay chose different replicas",
            shape.name
        );
        times.push(secs);
    }
    let secs = median(times);
    Point {
        name: shape.name,
        files: shape.sizes.len(),
        blocks,
        ingest_ms: secs * 1e3,
        us_per_block: secs * 1e6 / blocks as f64,
        digest,
    }
}

fn main() {
    let quick = quick_mode();
    banner(
        "Placement: replica choice for every ingested block",
        "§5.3: OctopusFS placement scores each (node, tier) on tier speed, \
         free space, I/O load and tier diversity",
    );
    let shapes = if quick {
        [fig13_ingest(300), scale_ingest(20_000)]
    } else {
        [fig13_ingest(3_000), scale_ingest(200_000)]
    };
    let points: Vec<Point> = shapes.iter().map(measure).collect();
    for p in &points {
        println!(
            "{:<13} {:>7} files, {:>7} blocks: ingest {:>9.2} ms, {:>6.3} us/block, digest {:#018x}",
            p.name, p.files, p.blocks, p.ingest_ms, p.us_per_block, p.digest,
        );
    }
    println!("every replay chose the same replicas");

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"shape\": \"{}\", \"files\": {}, \"blocks\": {}, \"ingest_ms\": {:.3}, \
                 \"us_per_block\": {:.3}, \"digest\": \"{:#018x}\"}}",
                p.name, p.files, p.blocks, p.ingest_ms, p.us_per_block, p.digest,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"placement\",\n  \"mode\": \"{}\",\n  \
         \"replays\": {REPLAYS},\n  \"points\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        rows.join(",\n"),
    );
    let out = std::env::var("OCTO_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_placement.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_placement.json");
    println!("\nwrote {out}");
}
