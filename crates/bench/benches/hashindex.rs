//! Criterion microbenchmarks: the two-level hash index.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use unikv_hashindex::TwoLevelHashIndex;

fn key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

fn bench_hashindex(c: &mut Criterion) {
    let mut g = c.benchmark_group("hashindex");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1200));
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));

    g.bench_function("insert_100k", |b| {
        b.iter_batched(
            || TwoLevelHashIndex::with_capacity(100_000, 2),
            |mut idx| {
                for i in 0..100_000u64 {
                    idx.insert(&key(i), (i % 8) as u32);
                }
                idx
            },
            BatchSize::LargeInput,
        );
    });

    let mut idx = TwoLevelHashIndex::with_capacity(100_000, 2);
    for i in 0..100_000u64 {
        idx.insert(&key(i), (i % 8) as u32);
    }
    let mut k = 0u64;
    g.bench_function("candidates_hit", |b| {
        b.iter(|| {
            k = (k.wrapping_mul(2862933555777941757).wrapping_add(3)) % 100_000;
            std::hint::black_box(idx.candidates(&key(k)).count())
        });
    });
    g.bench_function("candidates_miss", |b| {
        b.iter(|| std::hint::black_box(idx.candidates(b"missing!").count()));
    });
    g.bench_function("checkpoint_100k", |b| {
        b.iter(|| std::hint::black_box(idx.checkpoint().len()));
    });
    let snap = idx.checkpoint();
    g.bench_function("restore_100k", |b| {
        b.iter(|| std::hint::black_box(TwoLevelHashIndex::restore(&snap).unwrap().len()));
    });
    g.finish();
}

criterion_group!(benches, bench_hashindex);
criterion_main!(benches);
