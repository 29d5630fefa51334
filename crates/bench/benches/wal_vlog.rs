//! Criterion microbenchmarks: WAL appends and value-log append/read.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::collections::HashMap;
use std::path::Path;
use unikv_env::mem::MemEnv;
use unikv_env::Env;
use unikv_vlog::{read_value_record, vlog_file_name, ValueLog};
use unikv_wal::LogWriter;

fn bench_wal(c: &mut Criterion) {
    let env = MemEnv::new();
    let mut g = c.benchmark_group("wal");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1200));
    g.sample_size(20);
    for size in [100usize, 1024, 16 * 1024] {
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("append_{size}b"), |b| {
            let mut w = LogWriter::new(env.new_writable(Path::new("/wal")).unwrap());
            let payload = vec![7u8; size];
            b.iter(|| w.add_record(&payload).unwrap());
        });
    }
    g.finish();
}

fn bench_vlog(c: &mut Criterion) {
    let env = MemEnv::shared();
    let mut g = c.benchmark_group("vlog");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1200));
    g.sample_size(20);
    for size in [100usize, 1024] {
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("append_{size}b"), |b| {
            let mut vl = ValueLog::open(env.clone(), "/vl-a", 0, 64 << 20).unwrap();
            let payload = vec![9u8; size];
            b.iter(|| vl.append(&payload).unwrap());
        });
    }
    // Random reads over a populated log set, one open handle per log.
    let mut vl = ValueLog::open(env.clone(), "/vl-r", 0, 8 << 20).unwrap();
    let ptrs: Vec<_> = (0..50_000u32)
        .map(|i| vl.append(&i.to_le_bytes().repeat(64)).unwrap())
        .collect();
    vl.sync().unwrap();
    let files: HashMap<u64, _> = vl
        .log_numbers()
        .into_iter()
        .map(|n| {
            let path = Path::new("/vl-r").join(vlog_file_name(n));
            (n, env.new_random_access(&path).unwrap())
        })
        .collect();
    g.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    g.bench_function("read_256b", |b| {
        b.iter(|| {
            i = (i.wrapping_mul(48271).wrapping_add(11)) % ptrs.len();
            let p = &ptrs[i];
            let file = files[&p.log_number].as_ref();
            std::hint::black_box(read_value_record(file, p.offset, p.length).unwrap())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_wal, bench_vlog);
criterion_main!(benches);
