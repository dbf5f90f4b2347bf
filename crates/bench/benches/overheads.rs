//! §7.7 system overheads: per-sample training cost, per-prediction cost,
//! model and statistics memory.
use criterion::{criterion_group, criterion_main, Criterion};
use octo_common::{ByteSize, FileId, SimTime};
use octo_dfs::StatsRegistry;
use octo_gbt::{Dataset, Gbt, GbtParams};

fn training_data(n: usize) -> Dataset {
    let mut d = Dataset::new(15);
    for i in 0..n {
        let mut row = [f32::NAN; 15];
        row[0] = (i % 100) as f32 / 100.0;
        row[1] = ((i * 7) % 50) as f32 / 50.0;
        row[2] = ((i * 13) % 30) as f32 / 30.0;
        if i % 3 == 0 {
            row[13] = 0.5;
            row[14] = 0.7;
        }
        d.push_row(&row, if row[1] > 0.5 { 1.0 } else { 0.0 });
    }
    d
}

/// Paper: adding one training sample averages 0.16 ms; a prediction 1.8 ns
/// (tree walks); the model is ~200 KB; per-file stats <= 956 B.
fn overheads(c: &mut Criterion) {
    let data = training_data(2000);
    let params = GbtParams::paper_access_model();
    let model = Gbt::train(&data, &params);
    println!(
        "model memory: {} bytes ({} trees) [paper ~200KB]",
        model.approx_memory_bytes(),
        model.n_trees()
    );
    let mut reg = StatsRegistry::new(12);
    for i in 0..1000u64 {
        reg.on_create(FileId(i), ByteSize::mb(64), SimTime::ZERO);
        for s in 0..12 {
            reg.on_access(FileId(i), SimTime::from_secs(s));
        }
    }
    println!(
        "per-file statistics: {} bytes [paper <=956B]",
        reg.approx_memory_bytes() / 1000
    );

    // Training cost per sample: one 10-round continuation on 2000 samples,
    // normalized offline by the reader (time / 2000).
    c.bench_function("train_continuation_2000_samples", |b| {
        b.iter(|| {
            let mut m = model.clone();
            m.train_continuation(&data, params.rounds);
            m
        })
    });
    c.bench_function("predict_single_row", |b| {
        let row = data.row(7);
        b.iter(|| model.predict_proba(std::hint::black_box(row)))
    });
    c.bench_function("stats_record_access", |b| {
        let mut i = 0u64;
        b.iter(|| {
            reg.on_access(FileId(i % 1000), SimTime::from_secs(20 + i));
            i += 1;
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = overheads
}
criterion_main!(benches);
