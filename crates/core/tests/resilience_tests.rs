//! Graceful-degradation suite: seeded transient storms against background
//! maintenance must drive the database through Degraded/ReadOnly — never
//! Poisoned — and the database must heal itself once the storm clears,
//! with zero lost acked writes and zero resurrected deletes (checked live
//! and again across a crash + paranoid reopen). A permanent failure of
//! the manifest commit step must still poison with a typed error.
//!
//! On failure, the failing fault plan (seed + injected fault events) is
//! written to `target/tmp/fault-suite/` so CI can upload it as an
//! artifact. Override the storm seed with `UNIKV_FAULT_SEED`.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unikv::meta::read_manifest;
use unikv::{HealthState, UniKv, UniKvOptions};
use unikv_env::fault::{FaultAction, FaultInjectionEnv, FaultOp, FaultPlan, FaultRule};
use unikv_env::mem::MemEnv;
use unikv_env::Env;
use unikv_workload::{format_key, make_value};

const OPS: u64 = 2600;
const KEY_SPACE: u64 = 1500;
const VALUE_LEN: usize = 120;

/// Last *acknowledged* state per key. `None` = acked delete.
type Model = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

fn opts(background_jobs: usize) -> UniKvOptions {
    UniKvOptions {
        sync_writes: true, // an acked op is a durable op
        background_jobs,
        ..UniKvOptions::small_for_tests()
    }
}

fn reopen_opts() -> UniKvOptions {
    UniKvOptions {
        paranoid_checks: true,
        ..opts(0)
    }
}

fn lcg(s: u64) -> u64 {
    s.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

fn seed_from_env(default: u64) -> u64 {
    std::env::var("UNIKV_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn counter(db: &UniKv, name: &str) -> u64 {
    db.metrics_snapshot().counters[name]
}

/// Persist the failing plan for CI artifact upload, then panic.
fn fail_with_plan(scenario: &str, seed: u64, fault: &FaultInjectionEnv, msg: String) -> ! {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fault-suite");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("failing-plan-{scenario}-{seed}.txt"));
    let body = format!(
        "scenario: {scenario}\nseed: {seed}\nfailure: {msg}\nfault events:\n{}\n",
        fault.fault_events().join("\n")
    );
    let _ = std::fs::write(&path, body);
    panic!("{msg} (fault plan saved to {})", path.display());
}

/// A seeded storm of *transient* faults: a bounded number of failures on
/// table/value-log appends (the first ENOSPC-tagged, exercising the
/// ReadOnly watchdog) and on syncs anywhere (WAL, build files,
/// manifest), after which every operation succeeds again.
fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rule(
            FaultRule::fail_times(FaultOp::Append, 2 + seed % 4)
                .on_path(".sst")
                .error_kind(std::io::ErrorKind::StorageFull),
        )
        .rule(FaultRule::fail_times(FaultOp::Append, 2 + (seed >> 4) % 4).on_path(".vlog"))
        .rule(FaultRule::fail_times(FaultOp::Sync, 2 + (seed >> 8) % 4))
}

/// Run the fixed workload, tolerating write failures (the storm). Acked
/// ops go into the model; failed ops mark their key *dirty* — the failed
/// attempt never reaches the memtable, so the live state still matches
/// the model, but its WAL bytes may survive a crash if a later sync
/// persists them, so crash-recovery checks must skip dirty keys.
/// Returns `(model, dirty, worst health observed)`.
fn run_storm_workload(db: &UniKv, seed: u64) -> (Model, HashSet<Vec<u8>>, HealthState) {
    let mut model = Model::new();
    let mut dirty: HashSet<Vec<u8>> = HashSet::new();
    let mut worst = HealthState::Healthy;
    let mut s = seed;
    for i in 0..OPS {
        s = lcg(s);
        let k = format_key(s % KEY_SPACE);
        let delete = s.is_multiple_of(11);
        let outcome = if delete {
            db.delete(&k)
        } else {
            db.put(&k, &make_value(i, seed, VALUE_LEN))
        };
        match outcome {
            Ok(()) => {
                let v = if delete {
                    None
                } else {
                    Some(make_value(i, seed, VALUE_LEN))
                };
                model.insert(k, v);
                dirty.remove(&format_key(s % KEY_SPACE));
            }
            Err(_) => {
                dirty.insert(k);
            }
        }
        let h = db.health();
        worst = worst.max(h);
        assert_ne!(
            h,
            HealthState::Poisoned,
            "transient storm poisoned the database at op {i}: {:?}",
            db.background_error()
        );
    }
    (model, dirty, worst)
}

/// Poll until the database reports Healthy (quarantine probes fire on
/// their own schedule, so this can take a few probe intervals).
fn wait_healthy(db: &UniKv, deadline: Duration) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if db.health() == HealthState::Healthy {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    db.health() == HealthState::Healthy
}

/// Strict live check: every acked op must be visible exactly as acked
/// (a failed op never reaches the memtable, so even dirty keys must
/// still show their last acked state while the database is live).
fn check_live(db: &UniKv, model: &Model) -> Result<(), String> {
    for (k, expect) in model {
        let got = db
            .get(k)
            .map_err(|e| format!("get {:?}: {e}", String::from_utf8_lossy(k)))?;
        if got.as_ref() != expect.as_ref() {
            return Err(format!(
                "key {} diverged live: got {:?}, expected {:?}",
                String::from_utf8_lossy(k),
                got.map(|v| v.len()),
                expect.as_ref().map(|v| v.len()),
            ));
        }
    }
    Ok(())
}

/// Crash-recovery check: like [`check_live`] but via a paranoid reopen,
/// skipping dirty keys (failed ops may leave replayable WAL bytes).
fn check_recovery(
    env: Arc<FaultInjectionEnv>,
    model: &Model,
    dirty: &HashSet<Vec<u8>>,
) -> Result<(), String> {
    let db = UniKv::open(env as Arc<dyn Env>, "/db", reopen_opts())
        .map_err(|e| format!("recovery open failed: {e}"))?;
    for (k, expect) in model {
        if dirty.contains(k) {
            continue;
        }
        let got = db
            .get(k)
            .map_err(|e| format!("get {:?}: {e}", String::from_utf8_lossy(k)))?;
        if got.as_ref() != expect.as_ref() {
            return Err(format!(
                "key {} diverged after recovery: got {:?}, expected {:?}",
                String::from_utf8_lossy(k),
                got.map(|v| v.len()),
                expect.as_ref().map(|v| v.len()),
            ));
        }
    }
    Ok(())
}

/// The acceptance scenario: a scripted transient storm on sync/append
/// during flush+merge+GC degrades the database (Degraded, and ReadOnly
/// via the ENOSPC-tagged rule) but never poisons it; once the storm
/// clears it returns to Healthy on its own, with zero lost acked writes
/// and zero resurrected deletes — live and across a crash.
#[test]
fn transient_storm_degrades_then_heals_with_no_lost_writes() {
    let seed = seed_from_env(0x570_12A1);
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let (model, dirty) = {
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", opts(2)).unwrap();
        fault.set_plan(storm_plan(seed));
        let (model, dirty, worst) = run_storm_workload(&db, seed);
        db.wait_for_background();
        assert_eq!(db.background_error(), None, "storm poisoned the database");
        assert!(
            counter(&db, "maint_job_retries") > 0,
            "storm never made a job retry (plan did not bite)"
        );
        assert!(
            worst >= HealthState::Degraded,
            "storm never degraded health"
        );
        // The storm is bounded (fail_times): quarantine probes and retries
        // must bring the database back to Healthy without intervention.
        if !wait_healthy(&db, Duration::from_secs(30)) {
            fail_with_plan(
                "transient-storm",
                seed,
                &fault,
                format!("database stuck in {:?} after storm cleared", db.health()),
            );
        }
        assert!(counter(&db, "health_transitions") >= 2);
        assert_eq!(
            counter(&db, "maint_jobs_failed"),
            0,
            "fatal failure counted"
        );
        // Writes work again, and every acked op is intact.
        db.put(b"post-storm", b"ok").unwrap();
        if let Err(msg) = check_live(&db, &model) {
            fail_with_plan("transient-storm", seed, &fault, msg);
        }
        (model, dirty)
    };
    fault.clear_plan();
    fault.crash().unwrap();
    if let Err(msg) = check_recovery(fault.clone(), &model, &dirty) {
        fail_with_plan("transient-storm", seed, &fault, msg);
    }
}

/// Crash while the storm is still raging (health Degraded/ReadOnly):
/// recovery must still satisfy the model for every acked op.
#[test]
fn crash_mid_storm_recovers_every_acked_write() {
    let seed = lcg(seed_from_env(0x570_12A2));
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let (model, dirty) = {
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", opts(2)).unwrap();
        // A longer storm than the workload, so faults are still armed
        // (and jobs still retrying) when the crash hits.
        fault.set_plan(
            FaultPlan::new(seed)
                .rule(FaultRule::fail_times(FaultOp::Append, 64).on_path(".sst"))
                .rule(FaultRule::fail_times(FaultOp::Sync, 8 + seed % 8)),
        );
        let (model, dirty, _) = run_storm_workload(&db, seed);
        (model, dirty)
        // Drop mid-storm: workers abandon queued/backoff jobs.
    };
    fault.clear_plan();
    fault.crash().unwrap();
    if let Err(msg) = check_recovery(fault.clone(), &model, &dirty) {
        fail_with_plan("crash-mid-storm", seed, &fault, msg);
    }
}

/// Sticky ENOSPC on table builds: the database must go ReadOnly (typed
/// write rejections, reads/scans still serving) and recover to Healthy
/// on its own once space "frees", losing nothing.
#[test]
fn storage_full_goes_read_only_then_recovers() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", opts(1)).unwrap();
    fault.set_plan(
        FaultPlan::new(1).rule(
            FaultRule::new(FaultOp::Append, FaultAction::Fail)
                .on_path(".sst")
                .sticky()
                .error_kind(std::io::ErrorKind::StorageFull),
        ),
    );

    // Ingest until the stuck flush turns the database read-only.
    let mut acked: Vec<u64> = Vec::new();
    let mut read_only_err = None;
    for i in 0..50_000u64 {
        match db.put(&format_key(i), &make_value(i, 7, VALUE_LEN)) {
            Ok(()) => acked.push(i),
            Err(e) => {
                assert!(e.is_read_only(), "expected ReadOnly rejection, got: {e}");
                read_only_err = Some(e);
                break;
            }
        }
    }
    let err = read_only_err.expect("ENOSPC flush never drove the database read-only");
    assert!(
        err.to_string().contains("read-only"),
        "untyped error: {err}"
    );
    assert_eq!(db.health(), HealthState::ReadOnly);
    // The engine settles health before it counts the retry (a counted
    // retry must never be seen while health still reads `Healthy`), so
    // the put can see `ReadOnly` a moment before the count lands.
    let end = Instant::now() + Duration::from_secs(10);
    while counter(&db, "maint_job_retries") == 0 && Instant::now() < end {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(counter(&db, "maint_job_retries") > 0);
    assert_eq!(db.background_error(), None, "ENOSPC must not poison");

    // Reads and scans keep serving under ReadOnly.
    let probe = acked[acked.len() / 2];
    assert_eq!(
        db.get(&format_key(probe)).unwrap(),
        Some(make_value(probe, 7, VALUE_LEN))
    );
    assert!(!db.scan(&format_key(0), 10).unwrap().is_empty());

    // Space frees → retries (or quarantine probes) succeed → Healthy.
    fault.clear_plan();
    assert!(
        wait_healthy(&db, Duration::from_secs(30)),
        "database stuck in {:?} after ENOSPC cleared",
        db.health()
    );
    db.put(b"post-enospc", b"ok").unwrap();
    for &i in &acked {
        assert_eq!(
            db.get(&format_key(i)).unwrap(),
            Some(make_value(i, 7, VALUE_LEN)),
            "acked key {i} lost across the ReadOnly episode"
        );
    }
}

/// Transient, torn manifest writes in background jobs, at least one of
/// them an append to the log: each job retries, and the next commit
/// rewrites the manifest as a fresh snapshot rather than appending after
/// the torn bytes. The database stays healthy, and after a crash it
/// reopens (strict manifest replay) to the model.
#[test]
fn transient_manifest_append_failure_retries_then_reopens_to_model() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    // Snapshot rewrites go through `MANIFEST.tmp`; appends hit the log.
    let torn_append =
        |f: &FaultInjectionEnv| f.fault_events().iter().any(|e| e.ends_with("/db/MANIFEST"));
    let mut model = Model::new();
    {
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", opts(1)).unwrap();
        let mut i = 0u64;
        let mut put = |db: &UniKv, model: &mut Model| {
            let (k, v) = (format_key(i % KEY_SPACE), make_value(i, 5, VALUE_LEN));
            db.put(&k, &v).unwrap();
            model.insert(k, Some(v));
            i += 1;
        };
        // Arm the fault only while the foreground is idle, so it lands on
        // a worker's commit: write until a job is queued, then wait.
        for _ in 0..200 {
            let scheduled = counter(&db, "maint_jobs_scheduled");
            while counter(&db, "maint_jobs_scheduled") == scheduled {
                put(&db, &mut model);
            }
            fault.set_plan(
                FaultPlan::new(9).rule(
                    FaultRule::new(FaultOp::Append, FaultAction::TornAppend)
                        .on_path("MANIFEST")
                        .error_kind(std::io::ErrorKind::Interrupted),
                ),
            );
            db.wait_for_background();
            fault.clear_plan();
            if torn_append(&fault) {
                break;
            }
        }
        assert!(torn_append(&fault), "no manifest append was torn");
        assert!(counter(&db, "maint_job_retries") >= 1, "no retry");
        assert!(wait_healthy(&db, Duration::from_secs(30)));
        assert_eq!(db.background_error(), None, "a transient failure poisoned");
        // The next commits must not append after the torn bytes: the log
        // still replays strictly.
        put(&db, &mut model);
        db.flush().unwrap();
        read_manifest(fault.as_ref(), std::path::Path::new("/db")).unwrap();
        // Keep committing after the retry: every later record must stay
        // readable past the torn bytes' old position.
        for _ in 0..400 {
            put(&db, &mut model);
        }
        db.wait_for_background();
        check_live(&db, &model).unwrap();
    }
    fault.crash().unwrap();
    check_recovery(fault.clone(), &model, &HashSet::new()).unwrap();
}

/// The preserved fail-stop path: a *permanent* failure of the manifest
/// append still poisons the database with a typed error.
#[test]
fn permanent_commit_failure_still_poisons() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", opts(1)).unwrap();

    let mut i = 0u64;
    let mut poisoned = false;
    'rounds: for _ in 0..50 {
        fault.clear_plan();
        // Write until a fresh background job is enqueued, then fail every
        // manifest append while it is (or its successor is) in flight.
        let scheduled = counter(&db, "maint_jobs_scheduled");
        loop {
            match db.put(&format_key(i), &make_value(i, 3, VALUE_LEN)) {
                Ok(()) => {}
                Err(_) => {
                    fault.clear_plan();
                    continue;
                }
            }
            i += 1;
            if counter(&db, "maint_jobs_scheduled") > scheduled {
                break;
            }
        }
        fault.set_plan(
            FaultPlan::new(2).rule(
                FaultRule::new(FaultOp::Append, FaultAction::Fail)
                    .on_path("MANIFEST")
                    .sticky(),
            ),
        );
        db.wait_for_background();
        if db.background_error().is_some() {
            poisoned = true;
            break 'rounds;
        }
    }
    assert!(
        poisoned,
        "permanent manifest-commit failures never poisoned"
    );
    fault.clear_plan();

    assert_eq!(db.health(), HealthState::Poisoned);
    assert!(counter(&db, "maint_jobs_failed") >= 1);
    let err = db.put(b"after", b"x").unwrap_err().to_string();
    assert!(err.contains("poisoned"), "unexpected error: {err}");
    let report = db.health_report();
    assert!(report.background_error.unwrap().contains("manifest"));
    // Reads still serve committed data.
    db.get(&format_key(0)).unwrap();
    db.scan(&format_key(0), 10).unwrap();
}

/// Satellite bugfix: dropping the database while a worker's job sits in a
/// long backoff must not wait out the backoff — shutdown interrupts it.
#[test]
fn shutdown_interrupts_backoff_and_joins_promptly() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let mut o = opts(1);
    o.maint_retry_base_ms = 600_000; // 10 minutes
    o.maint_retry_max_ms = 1_200_000;
    let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", o).unwrap();
    fault.set_plan(
        FaultPlan::new(3).rule(FaultRule::fail_times(FaultOp::Append, u64::MAX).on_path(".sst")),
    );
    // Ingest until the first flush fails transiently and parks in backoff.
    let mut i = 0u64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while counter(&db, "maint_job_retries") == 0 {
        assert!(Instant::now() < deadline, "flush never entered retry");
        match db.put(&format_key(i), &make_value(i, 5, VALUE_LEN)) {
            Ok(()) => i += 1,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let start = Instant::now();
    drop(db);
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "drop waited {:?} — shutdown did not interrupt the backoff",
        start.elapsed()
    );
}

/// The injectable maintenance clock: with hour-long backoffs, advancing
/// the clock manually lets the retry schedule elapse without sleeping.
#[test]
fn manual_clock_drives_retry_schedule_without_sleeping() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let mut o = opts(1);
    o.maint_retry_base_ms = 3_600_000; // 1 hour
    o.maint_retry_max_ms = 7_200_000;
    let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", o).unwrap();
    let clock = Arc::new(AtomicU64::new(0));
    let c = clock.clone();
    db.set_maintenance_clock(Some(Arc::new(move || c.load(Ordering::SeqCst))));

    // Exactly one transient failure: the first flush attempt fails, its
    // retry is scheduled ~an hour of scheduler time out.
    fault.set_plan(
        FaultPlan::new(4).rule(FaultRule::fail_times(FaultOp::Append, 1).on_path(".sst")),
    );
    let mut i = 0u64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while counter(&db, "maint_job_retries") == 0 {
        assert!(Instant::now() < deadline, "flush never entered retry");
        match db.put(&format_key(i), &make_value(i, 9, VALUE_LEN)) {
            Ok(()) => i += 1,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert_eq!(db.health(), HealthState::Degraded);

    // Jump the scheduler clock past the backoff deadline: the retry runs
    // (the fault already exhausted) and the database heals — in real
    // milliseconds, not scheduler hours.
    clock.store(8_000_000, Ordering::SeqCst);
    assert!(
        wait_healthy(&db, Duration::from_secs(30)),
        "retry never ran after the clock advanced (health {:?})",
        db.health()
    );
    assert!(counter(&db, "flushes") > 0);
    assert!(counter(&db, "time_degraded_ms") > 0);
    for j in 0..i {
        assert_eq!(
            db.get(&format_key(j)).unwrap(),
            Some(make_value(j, 9, VALUE_LEN))
        );
    }
}

/// A counted retry is published only after health has left `Healthy`:
/// an observer polling from another thread must never see
/// `maint_job_retries > 0` together with a `Healthy` state. The hour-long
/// backoff under a frozen scheduler clock keeps the job parked, so the
/// database cannot legitimately heal while the observer watches.
#[test]
fn retry_counter_never_runs_ahead_of_health() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let mut o = opts(1);
    o.maint_retry_base_ms = 3_600_000;
    o.maint_retry_max_ms = 7_200_000;
    let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", o).unwrap();
    db.set_maintenance_clock(Some(Arc::new(|| 0)));
    fault.set_plan(
        FaultPlan::new(4).rule(FaultRule::fail_times(FaultOp::Append, 1).on_path(".sst")),
    );
    let done = std::sync::atomic::AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(20);
    std::thread::scope(|s| {
        let observer = s.spawn(|| {
            let mut polls = 0u64;
            while !done.load(Ordering::Acquire) && Instant::now() < deadline {
                // Counter first, then health: with the counter published
                // last, a nonzero read implies health already moved.
                let retries = counter(&db, "maint_job_retries");
                let health = db.health();
                assert!(
                    retries == 0 || health != HealthState::Healthy,
                    "observed {retries} retries while Healthy after {polls} polls"
                );
                polls += 1;
            }
        });
        let mut i = 0u64;
        while counter(&db, "maint_job_retries") == 0 {
            assert!(Instant::now() < deadline, "flush never entered retry");
            match db.put(&format_key(i), &make_value(i, 9, VALUE_LEN)) {
                Ok(()) => i += 1,
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        done.store(true, Ordering::Release);
        observer.join().unwrap();
    });
    assert_eq!(db.health(), HealthState::Degraded);
}
