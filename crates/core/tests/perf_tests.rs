//! Per-operation profiler tests: exact stage accounting under the manual
//! metrics clock, and the overhead guard — an unprofiled, listener-free
//! run performs exactly the same clock reads and writes zero journal
//! bytes, i.e. behaves byte-identically to a build without the profiler.

use unikv::{manual_step_clock, PerfStage, UniKv, UniKvOptions};
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
/// machine metrics reports (same clock reads, same counters, same trace),
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

    let (v, ctx) = db.get_profiled(&key(1)).unwrap();
    assert_eq!(v, Some(value(1, 64)));
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
    // cleared by the first).
    let (_, ctx2) = db.get_profiled(&key(1)).unwrap();
    assert_eq!(ctx2.ops, 1);
    assert_eq!(ctx2.total_micros, 15);
    assert_eq!(ctx2.stage_sum(), ctx2.total_micros);
}

/// Profiled writes attribute WAL append and memtable time; the stage sum
/// matches the put histogram sample exactly.
#[test]
fn profiled_put_stage_sums_match_histogram_total() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::default()).unwrap();
    db.set_metrics_clock(Some(manual_step_clock(5)));

    let ctx = db.put_profiled(&key(1), &value(1, 64)).unwrap();
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

    let ctx = db.delete_profiled(&key(1)).unwrap();
    assert_eq!(ctx.total_micros, ctx.stage_sum());
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
    let (v, ctx) = db.get_profiled(&key(7)).unwrap();
    assert_eq!(v, Some(value(7, 200)));
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
    let (v, ctx) = db.get_profiled(&key(7)).unwrap();
    assert_eq!(v, Some(value(7, 200)));
    assert!(ctx.vlog_fetches >= 1, "no vlog fetch counted: {ctx:?}");
    assert!(ctx.stage_hits[PerfStage::VlogFetch as usize] >= 1);
    assert!(ctx.stage_hits[PerfStage::BoundarySearch as usize] >= 1);
    assert_eq!(ctx.stage_sum(), ctx.total_micros);

    // A miss still produces a consistent profile.
    let (v, ctx) = db.get_profiled(b"zzz-not-there").unwrap();
    assert_eq!(v, None);
    assert_eq!(ctx.stage_sum(), ctx.total_micros);
}

/// The LSM baseline exposes the same profiled API with the same exactness
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

    let ctx = db.put_profiled(&key(1), &value(1, 64)).unwrap();
    assert_eq!(ctx.ops, 1);
    assert_eq!(ctx.total_micros, ctx.stage_sum());
    assert_eq!(ctx.stage(PerfStage::WalAppend), 4);
    assert_eq!(ctx.stage(PerfStage::Memtable), 4);

    let (v, ctx) = db.get_profiled(&key(1)).unwrap();
    assert_eq!(v, Some(value(1, 64)));
    assert_eq!(ctx.total_micros, ctx.stage_sum());
    assert_eq!(ctx.stage(PerfStage::Memtable), 4);
}
