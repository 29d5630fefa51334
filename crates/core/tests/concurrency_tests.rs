//! Concurrency tests for the background maintenance subsystem:
//! multi-threaded writers/readers/scanners against live background
//! flush/merge/GC/split, read-your-writes, monotonic sequence numbers,
//! write-stall accounting, worker-failure quarantine with self-healing,
//! and clean recovery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use unikv::{HealthState, JobKind, UniKv, UniKvOptions, WriteBatch};
use unikv_common::rng::DetRng;
use unikv_env::fault::{FaultAction, FaultInjectionEnv, FaultOp, FaultPlan, FaultRule};
use unikv_env::mem::MemEnv;

fn bg_opts(jobs: usize) -> UniKvOptions {
    let mut opts = UniKvOptions::small_for_tests();
    opts.background_jobs = jobs;
    opts
}

fn counter(db: &UniKv, name: &str) -> u64 {
    db.metrics_snapshot().counters[name]
}

fn wkey(writer: usize, i: usize) -> Vec<u8> {
    format!("w{writer}k{i:06}").into_bytes()
}

fn wvalue(writer: usize, i: usize, version: usize) -> Vec<u8> {
    format!("w{writer}k{i:06}v{version:04}:{}", "x".repeat(48)).into_bytes()
}

/// N writers + M readers + a scanner + a sequence watcher, all racing
/// background maintenance. Each writer checks read-your-writes on its own
/// disjoint key space; the scanner checks ordering invariants; afterwards
/// the full contents are verified, then verified again after a clean
/// reopen in inline mode.
#[test]
fn stress_mixed_workload_with_background_maintenance() {
    const WRITERS: usize = 4;
    const KEYS_PER_WRITER: usize = 250;
    const ROUNDS: usize = 2;

    let env = MemEnv::shared();
    let db = Arc::new(UniKv::open(env.clone(), "/db", bg_opts(2)).unwrap());
    let done = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = DetRng::seed_from_u64(0xC0FFEE + w as u64);
            for version in 0..ROUNDS {
                for i in 0..KEYS_PER_WRITER {
                    let key = wkey(w, i);
                    db.put(&key, &wvalue(w, i, version)).unwrap();
                    // Read-your-writes: this thread owns the key, so the
                    // freshly written version must be visible regardless
                    // of which tier it currently lives in.
                    let got = db.get(&key).unwrap();
                    assert_eq!(got, Some(wvalue(w, i, version)), "RYW w{w} i{i}");
                    // Occasionally delete and re-insert to exercise
                    // tombstones racing flushes.
                    if rng.next_f64() < 0.05 {
                        db.delete(&key).unwrap();
                        assert_eq!(db.get(&key).unwrap(), None, "RYW-del w{w} i{i}");
                        db.put(&key, &wvalue(w, i, version)).unwrap();
                    }
                }
            }
        }));
    }

    // Readers: any visible value must be well-formed and belong to the
    // key it was read from.
    for r in 0..2 {
        let db = db.clone();
        let done = done.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = DetRng::seed_from_u64(0xBEEF + r as u64);
            while !done.load(Ordering::Relaxed) {
                let w = rng.u64_in(0..WRITERS as u64) as usize;
                let i = rng.u64_in(0..KEYS_PER_WRITER as u64) as usize;
                let key = wkey(w, i);
                if let Some(v) = db.get(&key).unwrap() {
                    assert!(
                        v.starts_with(String::from_utf8(key.clone()).unwrap().as_bytes()),
                        "value for {} does not match its key",
                        String::from_utf8_lossy(&key)
                    );
                }
            }
        }));
    }

    // Scanner: results must be strictly sorted and within range.
    {
        let db = db.clone();
        let done = done.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = DetRng::seed_from_u64(0xFACE);
            while !done.load(Ordering::Relaxed) {
                let w = rng.u64_in(0..WRITERS as u64) as usize;
                let from = wkey(w, rng.u64_in(0..KEYS_PER_WRITER as u64) as usize);
                let items = db.scan(&from, 25).unwrap();
                for pair in items.windows(2) {
                    assert!(pair[0].key < pair[1].key, "scan results out of order");
                }
                for item in &items {
                    assert!(item.key.as_slice() >= from.as_slice());
                }
            }
        }));
    }

    // Sequence watcher: the committed sequence number never goes back.
    {
        let db = db.clone();
        let done = done.clone();
        handles.push(std::thread::spawn(move || {
            let mut last = 0;
            while !done.load(Ordering::Relaxed) {
                let seq = db.last_sequence();
                assert!(seq >= last, "sequence went backwards: {seq} < {last}");
                last = seq;
            }
        }));
    }

    for h in handles.drain(..WRITERS) {
        h.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    db.wait_for_background();
    assert_eq!(db.background_error(), None);
    assert!(
        counter(&db, "maint_jobs_scheduled") > 0,
        "no background jobs ran"
    );
    assert!(counter(&db, "maint_jobs_completed") > 0);
    assert_eq!(counter(&db, "maint_jobs_failed"), 0);
    assert!(counter(&db, "flushes") > 0);

    let verify = |db: &UniKv| {
        for w in 0..WRITERS {
            for i in 0..KEYS_PER_WRITER {
                assert_eq!(
                    db.get(&wkey(w, i)).unwrap(),
                    Some(wvalue(w, i, ROUNDS - 1)),
                    "final value w{w} i{i}"
                );
            }
        }
    };
    verify(&db);

    // Clean recovery: drop (joins workers; queued jobs abandoned) and
    // reopen in inline mode — sealed WALs committed in the manifest are replayed.
    drop(Arc::try_unwrap(db).ok().expect("all clones joined"));
    let db = UniKv::open(env, "/db", UniKvOptions::small_for_tests()).unwrap();
    verify(&db);
}

/// With generous thresholds writes never stall; with a hard-stop
/// threshold of one sealed memtable the stall counters engage.
#[test]
fn stall_counters_track_thresholds() {
    // Thresholds far above what this workload can accumulate: no stalls.
    let mut opts = bg_opts(1);
    opts.slowdown_sealed_memtables = 100;
    opts.stop_sealed_memtables = 200;
    opts.slowdown_unsorted_tables = 1000;
    opts.stop_unsorted_tables = 2000;
    let db = UniKv::open(MemEnv::shared(), "/db", opts).unwrap();
    for i in 0..1500u32 {
        db.put(format!("k{i:06}").as_bytes(), &[7u8; 100]).unwrap();
    }
    db.wait_for_background();
    assert_eq!(db.background_error(), None);
    assert_eq!(counter(&db, "stall_slowdowns"), 0);
    assert_eq!(counter(&db, "stall_stops"), 0);
    assert_eq!(counter(&db, "stall_time_micros"), 0);
    drop(db);

    // One sealed memtable already hard-stops: with a single worker and
    // continuous ingest, writes must brake (and stall time accrues).
    let mut opts = bg_opts(1);
    opts.slowdown_sealed_memtables = 1;
    opts.stop_sealed_memtables = 1;
    let db = UniKv::open(MemEnv::shared(), "/db2", opts).unwrap();
    for i in 0..1500u32 {
        db.put(format!("k{i:06}").as_bytes(), &[7u8; 100]).unwrap();
    }
    db.wait_for_background();
    assert_eq!(db.background_error(), None);
    assert!(
        counter(&db, "stall_stops") > 0,
        "hard-stop threshold of 1 sealed memtable never engaged"
    );
    assert!(counter(&db, "stall_time_micros") > 0);
    // Every write still landed.
    for i in (0..1500u32).step_by(97) {
        assert_eq!(
            db.get(format!("k{i:06}").as_bytes()).unwrap(),
            Some(vec![7u8; 100])
        );
    }
}

/// A batch brakes against the partitions it writes, as a put does: while
/// one partition sits at its UnsortedStore slowdown threshold, a batch
/// that writes only another partition is not slowed, and a batch that
/// touches the indebted partition is.
#[test]
fn batch_brakes_only_against_the_partitions_it_writes() {
    let env = MemEnv::shared();
    let key = |i: u32| format!("k{i:06}").into_bytes();
    // Inline mode: split into at least two partitions, then merge every
    // UnsortedStore away, so no partition starts with debt.
    let db = UniKv::open(env.clone(), "/db", UniKvOptions::small_for_tests()).unwrap();
    for i in 0..3000u32 {
        db.put(&key(i), &[5u8; 100]).unwrap();
    }
    db.compact_all().unwrap();
    let metas = db.partition_metas();
    assert!(metas.len() >= 2, "no split: {} partition(s)", metas.len());
    drop(db);

    // Background mode where nothing drains the UnsortedStore debt: no
    // scan-triggered merge, a byte limit no flush reaches, and no split.
    let mut opts = bg_opts(1);
    opts.enable_scan_optimization = false;
    opts.unsorted_limit_bytes = 4 << 20;
    opts.partition_size_limit = 1 << 40;
    opts.slowdown_unsorted_tables = 2;
    opts.stop_unsorted_tables = 1000;
    opts.stall_sleep_micros = 1;
    let db = UniKv::open(env, "/db", opts).unwrap();
    let last_lo = metas.last().unwrap().lo.clone();
    let hi_key = |i: u32| [last_lo.as_slice(), format!("/{i:06}").as_bytes()].concat();
    for i in 0..300u32 {
        db.put(&hi_key(i), &[6u8; 100]).unwrap();
    }
    db.wait_for_background();
    assert_eq!(db.background_error(), None);
    let metas = db.partition_metas();
    let (first, last) = (&metas[0], metas.last().unwrap());
    assert!(last.unsorted.len() >= 2, "{} unsorted", last.unsorted.len());
    assert!(
        first.unsorted.is_empty(),
        "{} unsorted",
        first.unsorted.len()
    );

    let before = counter(&db, "stall_slowdowns");
    let mut batch = WriteBatch::new();
    batch.put(key(1), b"a".to_vec()).put(key(2), b"b".to_vec());
    db.write_batch(&batch).unwrap();
    assert_eq!(
        counter(&db, "stall_slowdowns"),
        before,
        "a batch that writes only a partition without debt was braked"
    );
    batch.put(hi_key(0), b"c".to_vec());
    db.write_batch(&batch).unwrap();
    assert_eq!(counter(&db, "stall_slowdowns"), before + 1);
    assert_eq!(db.get(&key(1)).unwrap(), Some(b"a".to_vec()));
    assert_eq!(db.get(&hi_key(0)).unwrap(), Some(b"c".to_vec()));
}

/// Foreground writes keep completing while merges run in the background
/// (the paper's pain point with inline compaction): no hard stops with
/// default thresholds, yet merges demonstrably happened.
#[test]
fn writes_proceed_while_merges_run() {
    let db = UniKv::open(MemEnv::shared(), "/db", bg_opts(2)).unwrap();
    for i in 0..4000u32 {
        db.put(format!("k{i:06}").as_bytes(), &[3u8; 120]).unwrap();
    }
    db.wait_for_background();
    assert_eq!(db.background_error(), None);
    assert!(counter(&db, "merges") > 0, "no merge ever ran");
    assert!(counter(&db, "flushes") > 0);
    for i in (0..4000u32).step_by(131) {
        assert_eq!(
            db.get(format!("k{i:06}").as_bytes()).unwrap(),
            Some(vec![3u8; 120])
        );
    }
}

/// Background flushes and merges build with the core lock released: while
/// the worker waits inside `flush:build` or `merge:build`, a get and a put
/// complete. The hook waits at most 5 s for the test's go, so a build that
/// held the lock would block the get until that wait timed out.
#[test]
fn background_builds_leave_the_core_lock_free() {
    for point in ["flush:build", "merge:build"] {
        let mut opts = bg_opts(1);
        opts.slowdown_unsorted_tables = 1000;
        opts.stop_unsorted_tables = 2000;
        let db = UniKv::open(MemEnv::shared(), "/db", opts).unwrap();
        let (hit_tx, hit_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel();
        let go_rx = Mutex::new(go_rx);
        let (armed, timed_out) = (AtomicBool::new(true), Arc::new(AtomicBool::new(false)));
        let timed_out_in_hook = timed_out.clone();
        db.sync_points().arm(Arc::new(move |name| {
            if name == point && armed.swap(false, Ordering::SeqCst) {
                let _ = hit_tx.send(());
                let go = go_rx.lock().unwrap().recv_timeout(Duration::from_secs(5));
                timed_out_in_hook.store(go.is_err(), Ordering::SeqCst);
            }
            Ok(())
        }));
        let mut i = 0u32;
        while hit_rx.try_recv().is_err() {
            assert!(i < 100_000, "{point} was never reached");
            db.put(format!("k{i:06}").as_bytes(), &[5u8; 100]).unwrap();
            i += 1;
        }
        assert_eq!(db.get(b"k000000").unwrap(), Some(vec![5u8; 100]));
        db.put(b"during", b"build").unwrap();
        go_tx.send(()).unwrap();
        db.wait_for_background();
        db.sync_points().disarm();
        assert_eq!(db.background_error(), None);
        assert!(
            !timed_out.load(Ordering::SeqCst),
            "{point}: the build held the core lock"
        );
        assert_eq!(db.get(b"during").unwrap(), Some(b"build".to_vec()));
    }
}

/// A background job failing permanently (outside the manifest commit step)
/// no longer poisons the database: the job is quarantined, the stuck
/// flush drives health to ReadOnly — writes fail fast with a typed
/// `Error::ReadOnly` while reads keep serving — and once the fault
/// clears, the quarantine probe re-runs the job and the database heals
/// itself without a reopen.
#[test]
fn worker_failure_quarantines_and_database_self_heals() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let db = UniKv::open(fault.clone(), "/db", bg_opts(1)).unwrap();

    // Every table append fails: a flush fails in its build, never at the
    // manifest commit (whose permanent failure would poison instead).
    let table_appends_fail = || {
        FaultPlan::new(1).rule(
            FaultRule::new(FaultOp::Append, FaultAction::Fail)
                .on_path(".sst")
                .sticky(),
        )
    };
    let flush_quarantined = |db: &UniKv| {
        db.health_report()
            .quarantined
            .iter()
            .any(|q| q.kind == JobKind::Flush)
    };
    let mut quarantined = false;
    let mut i = 0u32;
    'rounds: for _ in 0..50 {
        fault.clear_plan();
        // Write until a fresh background job is enqueued, then make every
        // table append fail while it (or its successor) is still in flight.
        let scheduled = counter(&db, "maint_jobs_scheduled");
        loop {
            match db.put(format!("k{i:06}").as_bytes(), &[9u8; 200]) {
                Err(e) if e.is_read_only() => {
                    // A flush already quarantined in an earlier round.
                    quarantined = true;
                    break 'rounds;
                }
                Err(e) => panic!("unexpected write error: {e}"),
                Ok(()) => {}
            }
            i += 1;
            if counter(&db, "maint_jobs_scheduled") > scheduled {
                break;
            }
        }
        fault.set_plan(table_appends_fail());
        db.wait_for_background();
        if flush_quarantined(&db) {
            quarantined = true;
            break 'rounds;
        }
    }
    assert!(quarantined, "background failures never quarantined a flush");

    // Quarantine, not poison: the injected failure is permanent but not a
    // commit-step failure, so the database stays alive.
    assert_eq!(db.background_error(), None);
    assert_eq!(counter(&db, "maint_jobs_failed"), 0);
    assert!(counter(&db, "maint_jobs_quarantined") >= 1);

    // A quarantined flush means sealed memtables cannot drain: ReadOnly.
    // Writes are rejected with the typed error while the fault persists...
    assert_eq!(db.health(), HealthState::ReadOnly);
    let err = db.put(b"after", b"x").unwrap_err();
    assert!(err.is_read_only(), "unexpected error: {err}");
    // ...but reads still serve whatever was committed.
    db.get(b"k000000").unwrap();
    db.scan(b"k", 10).unwrap();

    // Fault clears → the periodic quarantine probe re-runs the flush,
    // which now succeeds, and health recovers on its own.
    fault.clear_plan();
    let deadline = Instant::now() + Duration::from_secs(30);
    while db.health() != HealthState::Healthy && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        db.health(),
        HealthState::Healthy,
        "database did not self-heal"
    );
    assert!(db.health_report().quarantined.is_empty());
    db.put(b"after", b"x").unwrap();
    assert_eq!(db.get(b"after").unwrap(), Some(b"x".to_vec()));
}

/// Crash (power failure) with sealed memtables pending flush: with
/// synced writes, everything acknowledged is recovered by replaying the
/// sealed WALs recorded in the manifest.
#[test]
fn crash_with_sealed_memtables_recovers_from_sealed_wals() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    {
        let mut opts = bg_opts(1);
        opts.sync_writes = true;
        // Keep flushes slow to finish relative to ingest so sealed
        // memtables are routinely outstanding at crash time.
        opts.stop_sealed_memtables = 8;
        opts.slowdown_sealed_memtables = 8;
        let db = UniKv::open(fault.clone(), "/db", opts).unwrap();
        for i in 0..1200u32 {
            db.put(format!("k{i:06}").as_bytes(), &[5u8; 90]).unwrap();
        }
        // Drop joins the workers but does NOT flush: sealed memtables that
        // were still queued exist only in their (synced) sealed WALs.
        drop(db);
    }
    fault.crash().unwrap();
    let db = UniKv::open(fault.clone(), "/db", UniKvOptions::small_for_tests()).unwrap();
    for i in 0..1200u32 {
        assert_eq!(
            db.get(format!("k{i:06}").as_bytes()).unwrap(),
            Some(vec![5u8; 90]),
            "key {i} lost after crash"
        );
    }
}
