//! Per-operation profiler tests: exact stage accounting in a
//! `perf::profile` scope under the manual metrics clock, and the overhead
//! guard — an unprofiled, listener-free run performs exactly the same
//! clock reads and writes zero journal bytes, i.e. behaves
//! byte-identically to a build without the profiler.

use unikv::{manual_step_clock, PerfContext, PerfStage, UniKv, UniKvOptions, WriteBatch};
use unikv_common::perf;
use unikv_env::fault::{FaultInjectionEnv, FaultOp, FaultPlan, FaultRule};
use unikv_env::mem::MemEnv;
use unikv_env::Env;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

fn value(i: u32, len: usize) -> Vec<u8> {
    let unit = format!("value-{i}-").into_bytes();
    let reps = len / unit.len() + 2;
    unit.repeat(reps)[..len].to_vec()
}

/// Overhead guard, clock half: with the step-1 manual clock every clock
/// read is observable. Unprofiled ops must read the clock exactly twice
/// each — the profiler hooks sprinkled through the read/write/WAL/table
/// paths must not add a single read when no profile is active.
#[test]
fn unprofiled_ops_read_clock_exactly_twice_each() {
    const PUTS: u64 = 40;
    const GETS: u64 = 25;
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::default()).unwrap();
    db.set_metrics_clock(Some(manual_step_clock(1)));
    for i in 0..PUTS as u32 {
        db.put(&key(i), &value(i, 32)).unwrap();
    }
    for i in 0..GETS as u32 {
        db.get(&key(i)).unwrap();
    }
    // Next read returns (reads so far + 1) * step.
    assert_eq!(
        db.metrics().registry.now_micros(),
        2 * (PUTS + GETS) + 1,
        "an unprofiled op read the clock more than twice"
    );
}

/// Overhead guard, on-disk half: the same seeded workload with and without
/// the journal produces identical user-visible results AND byte-identical
/// machine metrics reports (same clock reads, same counters),
/// and the journal-free run leaves no EVENTS bytes behind.
#[test]
fn no_listener_run_is_byte_identical_and_writes_no_journal() {
    let run = |journal: bool| {
        let env = MemEnv::shared();
        let opts = UniKvOptions {
            enable_event_journal: journal,
            ..UniKvOptions::small_for_tests()
        };
        let db = UniKv::open(env.clone(), "/db", opts).unwrap();
        db.set_metrics_clock(Some(manual_step_clock(3)));
        let mut rng: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = |m: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % m
        };
        let mut observed = Vec::new();
        for _ in 0..4000 {
            let k = key(next(400) as u32);
            match next(8) {
                0 => db.delete(&k).unwrap(),
                1..=5 => db.put(&k, &value(next(1000) as u32, 100)).unwrap(),
                _ => observed.push(db.get(&k).unwrap()),
            }
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        (observed, db.metrics_report_machine(), env)
    };

    let (res_off, report_off, env_off) = run(false);
    let (res_on, report_on, env_on) = run(true);
    assert_eq!(res_off, res_on, "journal changed user-visible results");
    assert_eq!(
        report_off, report_on,
        "journal perturbed the metrics clock or counters"
    );
    assert!(!env_off.file_exists(std::path::Path::new("/db/EVENTS")));
    assert!(!env_off.file_exists(std::path::Path::new("/db/EVENTS.old")));
    assert!(env_on.file_exists(std::path::Path::new("/db/EVENTS")));
}

/// Exact accounting: a profiled get's stage sum equals its total, which
/// equals the very sample its latency histogram recorded. Repeated
/// profiled ops stay exact — no state leaks between operations.
#[test]
fn profiled_get_stage_sums_match_histogram_total() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::default()).unwrap();
    db.set_metrics_clock(Some(manual_step_clock(5)));
    db.put(&key(1), &value(1, 64)).unwrap();

    let (v, ctx) = perf::profile(|| db.get(&key(1)));
    assert_eq!(v.unwrap(), Some(value(1, 64)));
    assert_eq!(ctx.ops, 1);
    // Memtable hit: t0, router mark, memtable mark, t1 — three steps of 5.
    assert_eq!(ctx.total_micros, 15);
    assert_eq!(ctx.stage_sum(), ctx.total_micros);
    assert_eq!(ctx.stage(PerfStage::Router), 5);
    assert_eq!(ctx.stage(PerfStage::Memtable), 5);
    assert_eq!(ctx.stage(PerfStage::Other), 5);
    let snap = db.metrics_snapshot();
    assert_eq!(snap.histograms["get_latency_us"].count, 1);
    assert_eq!(snap.histograms["get_latency_us"].sum, ctx.total_micros);

    // A second profiled op is just as exact (thread-local state fully
    // cleared by the first); the one-call wrapper is the same scope.
    let (_, ctx2) = db.get_profiled(&key(1)).unwrap();
    assert_eq!(ctx2, ctx);
}

/// Profiled writes attribute WAL append and memtable time; the stage sum
/// matches the put histogram sample exactly.
#[test]
fn profiled_put_stage_sums_match_histogram_total() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::default()).unwrap();
    db.set_metrics_clock(Some(manual_step_clock(5)));

    let (r, ctx) = perf::profile(|| db.put(&key(1), &value(1, 64)));
    r.unwrap();
    assert_eq!(ctx.ops, 1);
    // t0, router, wal_append, memtable, t1 — four steps of 5.
    assert_eq!(ctx.total_micros, 20);
    assert_eq!(ctx.stage_sum(), ctx.total_micros);
    assert_eq!(ctx.stage(PerfStage::Router), 5);
    assert_eq!(ctx.stage(PerfStage::WalAppend), 5);
    assert_eq!(ctx.stage(PerfStage::Memtable), 5);
    assert_eq!(ctx.stage(PerfStage::Other), 5);
    let snap = db.metrics_snapshot();
    assert_eq!(snap.histograms["put_latency_us"].count, 1);
    assert_eq!(snap.histograms["put_latency_us"].sum, ctx.total_micros);

    let (r, ctx) = perf::profile(|| db.delete(&key(1)));
    r.unwrap();
    assert_eq!(ctx.total_micros, ctx.stage_sum());
    assert_eq!(db.put_profiled(&key(2), &value(2, 64)).unwrap(), ctx);
}

/// The I/O counters in a profile reflect where the read actually went:
/// hash-index probes and one record read (a block read that is not a
/// cache lookup) for UnsortedStore hits, vlog fetches once a merge has
/// separated values into the value log.
#[test]
fn profiled_reads_count_probes_blocks_and_vlog_fetches() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap();
    for i in 0..40u32 {
        db.put(&key(i), &value(i, 200)).unwrap();
    }
    db.flush().unwrap();

    // UnsortedStore hit: resolved via the hash index and a table record.
    let (v, ctx) = perf::profile(|| db.get(&key(7)));
    assert_eq!(v.unwrap(), Some(value(7, 200)));
    assert!(ctx.hash_probes >= 1, "no hash probe counted: {ctx:?}");
    assert!(ctx.block_reads >= 1, "no block read counted: {ctx:?}");
    assert_eq!(ctx.record_reads, 1, "not one record read: {ctx:?}");
    assert_eq!(
        ctx.cache_hits + ctx.cache_misses + ctx.record_reads,
        ctx.block_reads
    );
    assert!(ctx.stage_hits[PerfStage::IndexProbe as usize] >= 1);
    assert!(ctx.stage_hits[PerfStage::BlockRead as usize] >= 1);

    // SortedStore + value log after the merge moves values out.
    db.compact_all().unwrap();
    let (v, ctx) = perf::profile(|| db.get(&key(7)));
    assert_eq!(v.unwrap(), Some(value(7, 200)));
    assert!(ctx.vlog_fetches >= 1, "no vlog fetch counted: {ctx:?}");
    assert!(ctx.stage_hits[PerfStage::VlogFetch as usize] >= 1);
    assert!(ctx.stage_hits[PerfStage::BoundarySearch as usize] >= 1);
    assert_eq!(ctx.stage_sum(), ctx.total_micros);

    // A miss still produces a consistent profile.
    let (v, ctx) = perf::profile(|| db.get(b"zzz-not-there"));
    assert_eq!(v.unwrap(), None);
    assert_eq!(ctx.stage_sum(), ctx.total_micros);
}

/// Scans and batches are profiled by the same scope: the stage sum equals
/// the total, which equals the call's own `scan_latency_us` /
/// `batch_latency_us` sample.
#[test]
fn profiled_scan_and_batch_match_their_histogram_samples() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap();
    for i in 0..40u32 {
        db.put(&key(i), &value(i, 200)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    db.set_metrics_clock(Some(manual_step_clock(3)));
    db.reset_metrics();

    // The scan reads SortedStore blocks and fetches separated values.
    let (items, ctx) = perf::profile(|| db.scan(&key(5), 10));
    assert_eq!(items.unwrap().len(), 10);
    assert_eq!(ctx.ops, 1);
    assert!(ctx.block_reads >= 1, "no block read counted: {ctx:?}");
    assert!(ctx.stage(PerfStage::BlockRead) > 0, "{ctx:?}");
    assert_eq!(ctx.stage_sum(), ctx.total_micros);
    let scans = &db.metrics_snapshot().histograms["scan_latency_us"];
    assert_eq!((scans.count, scans.sum), (1, ctx.total_micros));

    let mut batch = WriteBatch::new();
    for i in 100..110u32 {
        batch.put(key(i), value(i, 32));
    }
    batch.delete(key(3));
    let (r, ctx) = perf::profile(|| db.write_batch(&batch));
    r.unwrap();
    assert_eq!(ctx.ops, 1);
    assert!(ctx.total_micros > 0);
    assert_eq!(ctx.stage_sum(), ctx.total_micros);
    let batches = &db.metrics_snapshot().histograms["batch_latency_us"];
    assert_eq!((batches.count, batches.sum), (1, ctx.total_micros));
}

/// A batch runs the put path, so its profile shows the same stages: one
/// router step for all its ops, a WAL append, and one memtable step.
#[test]
fn profiled_batch_marks_the_put_stages_once() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::default()).unwrap();
    db.set_metrics_clock(Some(manual_step_clock(2)));
    let mut batch = WriteBatch::new();
    for i in 0..5u32 {
        batch.put(key(i), value(i, 48));
    }
    batch.delete(key(1));
    let (r, ctx) = perf::profile(|| db.write_batch(&batch));
    r.unwrap();
    assert_eq!(ctx.stage_hits[PerfStage::Router as usize], 1, "{ctx:?}");
    assert_eq!(ctx.stage_hits[PerfStage::WalAppend as usize], 1, "{ctx:?}");
    assert_eq!(ctx.stage_hits[PerfStage::Memtable as usize], 1, "{ctx:?}");
    assert_eq!(ctx.stage_sum(), ctx.total_micros);
}

/// Clock reads an unprofiled put makes, measured with the step-1 clock:
/// the probe's own read, then the put's.
fn clock_reads_of_one_put(db: &UniKv, i: u32) -> u64 {
    let before = db.metrics().registry.now_micros();
    db.put(&key(i), b"v").unwrap();
    db.metrics().registry.now_micros() - before - 1
}

/// An op that fails inside a scope — before its first clock read, or
/// after it — leaves the thread unarmed: the next unprofiled op reads the
/// clock exactly twice.
#[test]
fn failed_ops_in_a_scope_leave_the_thread_unarmed() {
    let env = FaultInjectionEnv::new(MemEnv::shared());
    let db = UniKv::open(env.clone(), "/db", UniKvOptions::default()).unwrap();
    for i in 0..20u32 {
        db.put(&key(i), &value(i, 64)).unwrap();
    }
    db.flush().unwrap();
    db.set_metrics_clock(Some(manual_step_clock(1)));

    let (r, ctx) = perf::profile(|| db.put(b"", b"v"));
    assert!(r.is_err(), "an empty key must be rejected");
    assert_eq!(ctx, PerfContext::default());
    assert_eq!(clock_reads_of_one_put(&db, 100), 2);

    // The get reaches the flushed table's record and the read fails.
    env.set_plan(FaultPlan::new(1).rule(FaultRule::fail_times(FaultOp::Read, 1).on_path(".sst")));
    let (r, _) = perf::profile(|| db.get(&key(7)));
    assert!(r.is_err(), "the injected read error must surface");
    assert_eq!(env.injected_faults(), 1);
    env.clear_plan();
    assert_eq!(clock_reads_of_one_put(&db, 101), 2);
    assert_eq!(db.get(&key(7)).unwrap(), Some(value(7, 64)));
}

/// A scope that runs no engine op returns the empty profile.
#[test]
fn scope_around_no_engine_op_is_empty() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::default()).unwrap();
    db.set_metrics_clock(Some(manual_step_clock(1)));
    let (n, ctx) = perf::profile(|| db.partition_count());
    assert_eq!(n, 1);
    assert_eq!(ctx, PerfContext::default());
    // Nor did the scope itself read the clock.
    assert_eq!(db.metrics().registry.now_micros(), 1);
}

/// The LSM baseline is profiled by the same scope with the same exactness
/// contract, so cross-engine breakdowns are comparable.
#[test]
fn lsm_baseline_profiles_with_exact_stage_sums() {
    use unikv_lsm::{Baseline, LsmDb, LsmOptions};
    let db = LsmDb::open(
        MemEnv::shared(),
        "/lsm",
        LsmOptions::baseline(Baseline::LevelDb),
    )
    .unwrap();
    db.metrics_registry().set_clock(Some(manual_step_clock(4)));

    let (r, ctx) = perf::profile(|| db.put(&key(1), &value(1, 64)));
    r.unwrap();
    assert_eq!(ctx.ops, 1);
    assert_eq!(ctx.total_micros, ctx.stage_sum());
    assert_eq!(ctx.stage(PerfStage::WalAppend), 4);
    assert_eq!(ctx.stage(PerfStage::Memtable), 4);

    let (v, ctx) = perf::profile(|| db.get(&key(1)));
    assert_eq!(v.unwrap(), Some(value(1, 64)));
    assert_eq!(ctx.total_micros, ctx.stage_sum());
    assert_eq!(ctx.stage(PerfStage::Memtable), 4);

    let (items, ctx) = perf::profile(|| db.scan(&key(0), 10));
    assert_eq!(items.unwrap().len(), 1);
    assert_eq!(ctx.ops, 1);
    assert_eq!(ctx.total_micros, ctx.stage_sum());
}

/// A failed LSM get records its `get_latency_us` sample, as UniKV's and
/// the hash store's failed gets do, and leaves the thread unarmed: the
/// next unprofiled get reads the clock exactly twice.
#[test]
fn lsm_failed_get_records_its_latency_and_leaves_the_thread_unarmed() {
    use unikv_lsm::{Baseline, LsmDb, LsmOptions};
    let env = FaultInjectionEnv::new(MemEnv::shared());
    let db = LsmDb::open(env.clone(), "/lsm", LsmOptions::baseline(Baseline::LevelDb)).unwrap();
    for i in 0..20u32 {
        db.put(&key(i), &value(i, 64)).unwrap();
    }
    db.flush().unwrap();
    let reg = db.metrics_registry();
    reg.set_clock(Some(manual_step_clock(1)));
    let samples = || reg.snapshot().histograms["get_latency_us"].count;
    let before = samples();

    env.set_plan(FaultPlan::new(1).rule(FaultRule::fail_times(FaultOp::Read, 1).on_path(".sst")));
    let (r, _) = perf::profile(|| db.get(&key(7)));
    assert!(r.is_err(), "the injected read error must surface");
    assert_eq!(env.injected_faults(), 1);
    env.clear_plan();
    assert_eq!(samples(), before + 1, "the failed get recorded no sample");

    let start = reg.now_micros();
    assert_eq!(db.get(&key(7)).unwrap(), Some(value(7, 64)));
    assert_eq!(reg.now_micros() - start - 1, 2);
}
