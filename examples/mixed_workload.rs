//! The paper's motivating scenario: a mixed read/write workload with
//! strong skew, run against UniKV (inline and background maintenance) and
//! a LevelDB-like baseline side by side. Prints throughput and the
//! engines' internal work counters so you can see *why* the numbers
//! differ (merges vs compactions, write amp, stalls).
//!
//! ```sh
//! cargo run --release --example mixed_workload [-- <num_keys> <num_ops> [--metrics] [--perf-sample N]]
//! ```
//!
//! With `--metrics`, each engine also prints its unified metrics report
//! after the load and mixed phases (reset between phases), and the run
//! fails if the report is missing any registered metric family — the CI
//! smoke check for the observability layer.
//!
//! With `--perf-sample N`, every Nth operation runs in a
//! `unikv_common::perf::profile` scope; the per-stage profiles are merged
//! per phase and a breakdown table (router / WAL / memtable / index probe
//! / block read / vlog fetch ...) is printed after each phase. The run
//! fails if the UniKV breakdown is missing a declared stage or never
//! exercised the stages every profiled op must touch — the CI smoke
//! check for the per-op profiler.

use std::sync::Arc;
use std::time::Instant;
use unikv::{PerfContext, PerfStage, UniKv, UniKvOptions};
use unikv_common::perf;
use unikv_env::fs::FsEnv;
use unikv_lsm::{Baseline, LsmDb, LsmOptions};
use unikv_workload::{format_key, make_value, MixedWorkload, Op};

fn main() -> unikv_common::Result<()> {
    let (mut positional, mut show_metrics, mut perf_sample) = (Vec::new(), false, 0u64);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--metrics" {
            show_metrics = true;
        } else if a == "--perf-sample" {
            perf_sample = args
                .next()
                .and_then(|n| n.parse().ok())
                .filter(|n| *n > 0)
                .unwrap_or(100);
        } else {
            positional.push(a);
        }
    }
    let num_keys: u64 = positional
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    let num_ops: u64 = positional
        .get(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    let value_size = 256usize;

    println!(
        "mixed 50/50 zipfian workload: {num_keys} keys, {num_ops} ops, {value_size}B values\n"
    );

    // --- UniKV ---
    let dir = std::env::temp_dir().join(format!("unikv-mixed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let env = Arc::new(FsEnv::new());
    let scaled_opts = UniKvOptions {
        write_buffer_size: 256 << 10,
        table_size: 256 << 10,
        unsorted_limit_bytes: 2 << 20,
        scan_merge_limit: 6,
        partition_size_limit: 8 << 20,
        ..Default::default()
    };
    let unikv = UniKv::open(env.clone(), dir.join("unikv"), scaled_opts.clone())?;
    let unikv_prof = std::cell::RefCell::new(PerfContext::default());
    run(
        "UniKV",
        num_keys,
        num_ops,
        value_size,
        perf_sample,
        |op, i| match op {
            Op::Read(k) => unikv.get(&k).map(|_| ()),
            Op::Update(k) => unikv.put(&k, &make_value(i, 1, value_size)),
            _ => Ok(()),
        },
        |phase, prof| {
            if show_metrics {
                dump_phase("UniKV", phase, &unikv.metrics_report());
                if phase == "load" {
                    unikv.reset_metrics(); // isolate the mixed-phase numbers
                }
            }
            if perf_sample > 0 {
                dump_perf("UniKV", phase, perf_sample, prof);
                unikv_prof.borrow_mut().merge(prof);
            }
        },
    )?;
    if show_metrics {
        check_report_complete(&unikv)?;
    }
    if perf_sample > 0 {
        check_perf_complete("UniKV", &unikv_prof.borrow());
    }
    println!(
        "  write amp {:.2}, partitions {}, index {:.1} KiB",
        unikv.write_amplification(),
        unikv.partition_count(),
        unikv.index_memory_bytes() as f64 / 1024.0
    );

    // --- UniKV with background maintenance ---
    // Same engine, but flush/merge/GC/split run on worker threads; writes
    // only brake when the backpressure thresholds trip.
    let bg_opts = UniKvOptions {
        background_jobs: 2,
        ..scaled_opts
    };
    let unikv_bg = UniKv::open(env.clone(), dir.join("unikv-bg"), bg_opts)?;
    run(
        "UniKV (bg)",
        num_keys,
        num_ops,
        value_size,
        perf_sample,
        |op, i| match op {
            Op::Read(k) => unikv_bg.get(&k).map(|_| ()),
            Op::Update(k) => unikv_bg.put(&k, &make_value(i, 1, value_size)),
            _ => Ok(()),
        },
        |phase, prof| {
            if show_metrics {
                dump_phase("UniKV (bg)", phase, &unikv_bg.metrics_report());
            }
            if perf_sample > 0 {
                dump_perf("UniKV (bg)", phase, perf_sample, prof);
            }
        },
    )?;
    unikv_bg.wait_for_background();
    if let Some(err) = unikv_bg.background_error() {
        eprintln!("  background maintenance failed: {err}");
    }
    let snap = unikv_bg.metrics_snapshot().counters;
    println!(
        "  write amp {:.2}, partitions {}, jobs {} done / {} failed",
        unikv_bg.write_amplification(),
        unikv_bg.partition_count(),
        snap["maint_jobs_completed"],
        snap["maint_jobs_failed"],
    );
    println!(
        "  stalls: {} slowdowns, {} stops, {:.1} ms stalled",
        snap["stall_slowdowns"],
        snap["stall_stops"],
        snap["stall_time_micros"] as f64 / 1000.0
    );
    // Exit health report: on a healthy run every counter here is zero —
    // anything else means maintenance hit (and survived) real faults.
    let health = unikv_bg.health_report();
    println!(
        "  health {:?}: {} retries, {} quarantines, {} transitions, {} ms degraded",
        health.state,
        snap["maint_job_retries"],
        snap["maint_jobs_quarantined"],
        snap["health_transitions"],
        snap["time_degraded_ms"]
    );

    // --- LevelDB-like baseline ---
    let mut lsm_opts = LsmOptions::baseline(Baseline::LevelDb);
    lsm_opts.write_buffer_size = 256 << 10;
    lsm_opts.table_size = 256 << 10;
    lsm_opts.base_level_bytes = 1 << 20;
    let leveldb = LsmDb::open(env, dir.join("leveldb"), lsm_opts)?;
    run(
        "LevelDB-like",
        num_keys,
        num_ops,
        value_size,
        perf_sample,
        |op, i| match op {
            Op::Read(k) => leveldb.get(&k).map(|_| ()),
            Op::Update(k) => leveldb.put(&k, &make_value(i, 1, value_size)),
            _ => Ok(()),
        },
        |phase, prof| {
            if show_metrics && phase == "mixed" {
                dump_phase("LevelDB-like", phase, &leveldb.metrics_report());
            }
            if perf_sample > 0 && phase == "mixed" {
                dump_perf("LevelDB-like", phase, perf_sample, prof);
            }
        },
    )?;
    println!(
        "  write amp {:.2}, compactions {}",
        leveldb.write_amplification(),
        leveldb.metrics_registry().snapshot().counters["compactions"]
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn run(
    name: &str,
    num_keys: u64,
    num_ops: u64,
    value_size: usize,
    perf_sample: u64,
    mut apply: impl FnMut(Op, u64) -> unikv_common::Result<()>,
    mut on_phase: impl FnMut(&str, &PerfContext),
) -> unikv_common::Result<()> {
    // Every `perf_sample`th op (when sampling) runs in a profiling scope;
    // the per-op profiles merge into one per-phase breakdown.
    let mut step = |op: Op, i: u64, prof: &mut PerfContext| {
        if perf_sample > 0 && i.is_multiple_of(perf_sample) {
            let (r, ctx) = perf::profile(|| apply(op, i));
            prof.merge(&ctx);
            r
        } else {
            apply(op, i)
        }
    };

    // Load phase.
    let mut prof = PerfContext::default();
    let start = Instant::now();
    for i in 0..num_keys {
        step(Op::Update(format_key(i)), i, &mut prof)?;
    }
    let load = start.elapsed().as_secs_f64();
    on_phase("load", &prof);

    // Mixed phase: 50% reads / 50% updates, zipfian.
    let mut prof = PerfContext::default();
    let mut w = MixedWorkload::new(0.5, num_keys, false, 42);
    let start = Instant::now();
    for i in 0..num_ops {
        step(w.next_op(), i, &mut prof)?;
    }
    let mixed = start.elapsed().as_secs_f64();
    on_phase("mixed", &prof);

    let load_mb = (num_keys as usize * value_size) as f64 / (1 << 20) as f64;
    println!(
        "{name:14} load {:8.1} kops/s ({:.1} MiB/s)   mixed 50/50 {:8.1} kops/s",
        num_keys as f64 / load / 1000.0,
        load_mb / load,
        num_ops as f64 / mixed / 1000.0
    );
    Ok(())
}

fn dump_phase(engine: &str, phase: &str, report: &str) {
    println!("---- {engine} metrics after {phase} phase ----");
    print!("{report}");
}

fn dump_perf(engine: &str, phase: &str, every: u64, prof: &PerfContext) {
    println!("---- {engine} per-op stage breakdown, {phase} phase (every {every}th op) ----");
    print!("{}", prof.render_table());
}

/// CI smoke check: the profiled UniKV run must render every declared
/// stage, and the stages every profiled op necessarily crosses (route,
/// memtable, WAL append for writes, plus the residual) must have fired.
fn check_perf_complete(engine: &str, prof: &PerfContext) {
    let table = prof.render_table();
    let mut missing: Vec<&str> = PerfStage::ALL
        .iter()
        .filter(|s| !table.contains(s.name()))
        .map(|s| s.name())
        .collect();
    for required in [
        PerfStage::Router,
        PerfStage::Memtable,
        PerfStage::WalAppend,
        PerfStage::Other,
    ] {
        if prof.stage_hits[required as usize] == 0 {
            missing.push(required.name());
        }
    }
    if prof.ops == 0 || !missing.is_empty() {
        eprintln!(
            "{engine} perf breakdown incomplete: {} profiled ops, missing or unhit stages {missing:?}",
            prof.ops
        );
        std::process::exit(1);
    }
}

/// CI smoke check: the machine report must contain a line for every
/// family registered in the database's registry.
fn check_report_complete(db: &UniKv) -> unikv_common::Result<()> {
    let report = db.metrics_report_machine();
    let mut missing = Vec::new();
    for family in db.metrics().registry.family_names() {
        if !report
            .lines()
            .any(|l| l.split('\t').nth(1) == Some(family.as_str()))
        {
            missing.push(family);
        }
    }
    if !missing.is_empty() {
        eprintln!("metrics report is missing families: {missing:?}");
        std::process::exit(1);
    }
    Ok(())
}
