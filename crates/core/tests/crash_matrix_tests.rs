//! Crash-everywhere matrix: for every named sync point in the
//! flush/merge/GC/split commit sequences, run a fixed workload, force a
//! crash exactly there, reopen with `paranoid_checks`, and assert the
//! recovered database matches a model — no lost acked writes, no
//! resurrected deletes. Both the inline (`background_jobs = 0`) and the
//! background-worker mode are covered, plus seeded random crash points
//! under background jobs. The GC points are crashed a second time in a
//! triggered GC that keeps logs below the garbage ratio, a path
//! `force_gc` (every log a victim) never takes, and the merge points a
//! second time in a merge that a scan triggers. Every `*:commit` point
//! also gets an abort row without a crash: the running database must keep
//! serving exactly what the manifest last committed.
//!
//! On failure, the failing fault plan (seed, crash point, injected fault
//! events) is written to `target/tmp/fault-suite/` so CI can upload it
//! as an artifact. Override the random seed with `UNIKV_FAULT_SEED`.

mod gc_scenario;

use gc_scenario::Scenario;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use unikv::meta::{read_manifest, PartitionMeta};
use unikv::{verify_db, Event, EventKind, EventListener, UniKv, UniKvOptions, SYNC_POINTS};
use unikv_env::fault::{FaultAction, FaultInjectionEnv, FaultOp, FaultPlan, FaultRule};
use unikv_env::mem::MemEnv;
use unikv_env::Env;
use unikv_workload::{format_key, make_value};

const OPS: u64 = 2600;
const KEY_SPACE: u64 = 1500;
const VALUE_LEN: usize = 120;
/// Every this many ops the workload runs a short scan: a scan merges the
/// crowded partitions it reads.
const SCAN_EVERY: u64 = 25;

/// The effects every scenario must preserve across a crash.
type Model = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

/// A workload stopped by a failed op: the acked model and the key of the
/// write that was in flight (`None` when the failed op was a scan).
type Stopped = (Model, Option<Vec<u8>>);

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

/// The live entries of `model` a scan of up to `limit` items from `from`
/// must return.
fn model_scan(model: &Model, from: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    model
        .range(from.to_vec()..)
        .filter_map(|(k, v)| v.as_ref().map(|v| (k.clone(), v.clone())))
        .take(limit)
        .collect()
}

/// Run the fixed workload until the first error (the injected crash) or
/// completion. Every scan must match the acked model. Returns the acked
/// model, or where it stopped: after recovery the in-flight write's key
/// may hold either its old or its new state.
fn run_workload(db: &UniKv, seed: u64) -> Result<Model, Stopped> {
    let mut model = Model::new();
    let mut s = seed;
    for i in 0..OPS {
        s = lcg(s);
        if i % SCAN_EVERY == SCAN_EVERY - 1 {
            let from = format_key(s % KEY_SPACE);
            let limit = 1 + (s >> 32) as usize % 20;
            let Ok(items) = db.scan(&from, limit) else {
                return Err((model, None));
            };
            let got: Vec<_> = items.into_iter().map(|it| (it.key, it.value)).collect();
            assert!(
                got == model_scan(&model, &from, limit),
                "scan from {} diverged from the model at op {i}",
                String::from_utf8_lossy(&from)
            );
            continue;
        }
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
            }
            Err(_) => return Err((model, Some(k))),
        }
    }
    Ok(model)
}

/// Reopen after the crash and check the model. Returns a description of
/// the first divergence instead of panicking so the caller can attach
/// the fault plan.
fn check_recovery(
    env: Arc<FaultInjectionEnv>,
    model: &Model,
    in_flight: Option<&[u8]>,
) -> Result<(), String> {
    check_recovery_with(env, reopen_opts(), model, in_flight)
}

/// [`check_recovery`] reopening with `opts`.
fn check_recovery_with(
    env: Arc<FaultInjectionEnv>,
    opts: UniKvOptions,
    model: &Model,
    in_flight: Option<&[u8]>,
) -> Result<(), String> {
    let db = UniKv::open(env as Arc<dyn Env>, "/db", opts)
        .map_err(|e| format!("recovery open failed: {e}"))?;
    for (k, expect) in model {
        // The op interrupted by the crash was never acked: both its old
        // and its new state are legal. Everything acked must match.
        if in_flight == Some(k.as_slice()) {
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

/// Crash at `point` (first hit) in the given mode, then verify recovery.
fn crash_at_point(point: &'static str, background_jobs: usize) {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let fired = Arc::new(AtomicBool::new(false));
    let seed = 0xC0FFEE ^ background_jobs as u64;
    let (model, in_flight) = {
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", opts(background_jobs)).unwrap();
        let f = fired.clone();
        db.sync_points().arm(Arc::new(move |name| {
            if name == point && !f.swap(true, Ordering::SeqCst) {
                return Err(unikv_common::Error::internal(format!(
                    "injected crash at {name}"
                )));
            }
            Ok(())
        }));
        let (mut model, in_flight) = run_workload(&db, seed)
            .map(|model| (model, None))
            .unwrap_or_else(|stop| stop);
        if !fired.load(Ordering::SeqCst) {
            // The workload alone did not reach this operation: drive the
            // remaining structural ops explicitly (errors are the crash).
            let _ = db.flush();
            let _ = db.compact_all();
            let _ = db.force_gc();
            db.wait_for_background();
        }
        db.sync_points().disarm();
        // The abort also models a *transient* failure the engine survives:
        // keep writing and force one more commit, so any half-applied
        // in-memory mutation the aborted operation left behind would be
        // persisted — and caught by the recovery check. (Background mode
        // may be poisoned by the failed job; errors just mean nothing
        // further commits, which is the real-crash case already covered.)
        for i in 0..20u64 {
            let k = format_key(KEY_SPACE + i);
            let v = make_value(i, 99, VALUE_LEN);
            if db.put(&k, &v).is_ok() {
                model.insert(k, Some(v));
            }
        }
        let _ = db.flush();
        (model, in_flight)
    };
    fault.crash().unwrap();
    assert!(
        fired.load(Ordering::SeqCst),
        "sync point {point} never fired with background_jobs={background_jobs}"
    );
    if let Err(msg) = check_recovery(fault.clone(), &model, in_flight.as_deref()) {
        let scenario = format!("point-{}-bg{background_jobs}", point.replace(':', "-"));
        fail_with_plan(&scenario, seed, &fault, format!("[{point}] {msg}"));
    }
}

#[test]
fn crash_matrix_inline_mode_covers_every_sync_point() {
    // Inline flushes use the same seal-then-drain protocol as background
    // mode, so every point — including seal:* — fires in both modes.
    for point in SYNC_POINTS {
        crash_at_point(point, 0);
    }
}

#[test]
fn crash_matrix_background_mode_covers_every_sync_point() {
    for point in SYNC_POINTS {
        crash_at_point(point, 2);
    }
}

/// Abort safety in the running process, at `point`, one of the
/// `*:commit` sync points: drive puts until the point aborts its op once,
/// then stop writing and let background work settle. From the abort on,
/// every `*:commit` point fails, so no later commit can persist (and so
/// hide) a state the aborted op left half-applied in memory; writing on,
/// as [`crash_at_point`] does, would. The served metadata must then equal
/// what the manifest last committed, every acked key must read its acked
/// value, and the hash index must name only tables the served metadata
/// holds: an aborted flush takes its table's entries back out.
fn abort_at_commit_point(point: &'static str, background_jobs: usize) {
    let env = MemEnv::shared();
    let db = UniKv::open(env.clone(), "/db", opts(background_jobs)).unwrap();
    let fired = Arc::new(AtomicBool::new(false));
    let f = fired.clone();
    db.sync_points().arm(Arc::new(move |name| {
        if name == point && !f.swap(true, Ordering::SeqCst) {
            return Err(unikv_common::Error::internal(format!(
                "injected abort at {name}"
            )));
        }
        if f.load(Ordering::SeqCst) && name.ends_with(":commit") {
            return Err(unikv_common::Error::internal(format!(
                "{name} refused after the abort"
            )));
        }
        Ok(())
    }));
    let what = format!("{point}, background_jobs={background_jobs}");
    let mut model = BTreeMap::new();
    let mut in_flight = None;
    let mut s = 0xAB0 ^ background_jobs as u64;
    for i in 0..OPS {
        if fired.load(Ordering::SeqCst) {
            break;
        }
        s = lcg(s);
        let k = format_key(s % KEY_SPACE);
        let v = make_value(i, 7, VALUE_LEN);
        if db.put(&k, &v).is_err() {
            in_flight = Some(k);
            break;
        }
        model.insert(k, v);
    }
    if !fired.load(Ordering::SeqCst) {
        // Puts alone did not reach this op: drive the structural ops
        // explicitly (their errors are the abort).
        let _ = db.flush();
        let _ = db.compact_all();
        let _ = db.force_gc();
    }
    db.wait_for_background();
    assert!(
        fired.load(Ordering::SeqCst),
        "{what}: the point never fired"
    );

    let by_id = |mut metas: Vec<PartitionMeta>| {
        metas.sort_by_key(|m| m.id);
        metas
    };
    let served = by_id(db.partition_metas());
    let committed = read_manifest(env.as_ref(), Path::new("/db"))
        .unwrap()
        .unwrap()
        .meta
        .partitions;
    assert_eq!(
        served,
        by_id(committed),
        "{what}: the running database serves uncommitted state"
    );
    for (k, v) in &model {
        if in_flight.as_ref() != Some(k) {
            let key = String::from_utf8_lossy(k);
            assert_eq!(db.get(k).unwrap().as_ref(), Some(v), "{what}: get {key}");
        }
    }
    let tables: HashSet<u32> = served
        .iter()
        .flat_map(|m| &m.unsorted)
        .map(|t| t.number as u32)
        .collect();
    for k in model.keys() {
        for t in db.index_candidates(k) {
            assert!(
                tables.contains(&t),
                "{what}: the index names table {t} for {}, which no served partition holds",
                String::from_utf8_lossy(k)
            );
        }
    }
}

#[test]
fn aborted_commits_leave_the_served_state_as_committed() {
    for background_jobs in [0, 2] {
        for point in SYNC_POINTS.iter().filter(|p| p.ends_with(":commit")) {
            abort_at_commit_point(point, background_jobs);
        }
    }
}

/// Crash at GC sync point `point` (first hit) of the GC that
/// [`Scenario::trigger`] reaches through the normal trigger path, one
/// that keeps two own logs. Recovery must match the model, the scrub
/// must find no damage before or after the reopen, and the kept fresh log
/// must survive in every case.
fn crash_in_gc_that_keeps_logs(point: &'static str, background_jobs: usize) {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let fired = Arc::new(AtomicBool::new(false));
    let opts = UniKvOptions {
        sync_writes: true,
        ..gc_scenario::opts(background_jobs)
    };
    let (model, in_flight, fresh) = {
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", opts.clone()).unwrap();
        let mut s = Scenario::build(&db, fault.as_ref()).unwrap();
        let f = fired.clone();
        db.sync_points().arm(Arc::new(move |name| {
            if name == point && !f.swap(true, Ordering::SeqCst) {
                return Err(unikv_common::Error::internal(format!(
                    "injected crash at {name}"
                )));
            }
            Ok(())
        }));
        let _ = s.trigger(&db);
        db.sync_points().disarm();
        // As in `crash_at_point`: a later commit would persist anything
        // the aborted GC left half-applied in memory.
        for i in 0..20u64 {
            let k = format_key(10 * gc_scenario::KEYS + i);
            let v = make_value(i, 99, VALUE_LEN);
            if db.put(&k, &v).is_ok() {
                s.model.insert(k, v);
            }
        }
        let _ = db.flush();
        let model: Model = s.model.into_iter().map(|(k, v)| (k, Some(v))).collect();
        (model, s.in_flight, s.fresh)
    };
    fault.crash().unwrap();
    assert!(
        fired.load(Ordering::SeqCst),
        "sync point {point} never fired with background_jobs={background_jobs}"
    );
    let scenario = format!(
        "kept-log-gc-{}-bg{background_jobs}",
        point.replace(':', "-")
    );
    let fail = |msg: String| fail_with_plan(&scenario, 0, &fault, format!("[{point}] {msg}"));
    let scrub = |when: &str| {
        let report = verify_db(fault.clone() as Arc<dyn Env>, "/db").unwrap();
        if !report.is_clean() {
            fail(format!("scrub {when} reopen: {:?}", report.damage));
        }
    };
    scrub("before");
    let reopen = UniKvOptions {
        paranoid_checks: true,
        background_jobs: 0,
        ..opts
    };
    if let Err(msg) = check_recovery_with(fault.clone(), reopen, &model, in_flight.as_deref()) {
        fail(msg);
    }
    scrub("after");
    if !gc_scenario::logs(fault.as_ref(), 0).contains_key(&fresh) {
        fail(format!("fresh log {fresh} is gone"));
    }
}

#[test]
fn crash_matrix_covers_gc_that_keeps_logs() {
    for background_jobs in [0, 2] {
        for point in ["gc:begin", "gc:build", "gc:commit", "gc:cleanup"] {
            crash_in_gc_that_keeps_logs(point, background_jobs);
        }
    }
}

/// Crash at merge sync point `point` (first hit) of a merge that a scan
/// triggers: the partition holds `scan_merge_limit` flushed tables, below
/// the byte limit, so no flush merges it. Inline, the scan runs the merge
/// and returns its error; in background mode the scan schedules it.
fn crash_in_scan_triggered_merge(point: &'static str, background_jobs: usize) {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let fired = Arc::new(AtomicBool::new(false));
    let model = {
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", opts(background_jobs)).unwrap();
        let mut model = Model::new();
        for version in 0..db.options().scan_merge_limit as u64 {
            for i in 0..12 {
                let v = make_value(i, version, VALUE_LEN);
                db.put(&format_key(i), &v).unwrap();
                model.insert(format_key(i), Some(v));
            }
            db.flush().unwrap();
        }
        db.wait_for_background();
        assert_eq!(db.metrics().merges.value(), 0, "a flush merged");
        let f = fired.clone();
        db.sync_points().arm(Arc::new(move |name| {
            if name == point && !f.swap(true, Ordering::SeqCst) {
                return Err(unikv_common::Error::internal(format!(
                    "injected crash at {name}"
                )));
            }
            Ok(())
        }));
        if let Ok(items) = db.scan(b"", 100) {
            let got: Vec<_> = items.into_iter().map(|it| (it.key, it.value)).collect();
            assert_eq!(got, model_scan(&model, b"", 100), "[{point}] scan");
        }
        db.wait_for_background();
        db.sync_points().disarm();
        // As in `crash_at_point`: a later commit would persist anything
        // the aborted merge left half-applied in memory.
        for i in 0..20u64 {
            let k = format_key(KEY_SPACE + i);
            let v = make_value(i, 99, VALUE_LEN);
            if db.put(&k, &v).is_ok() {
                model.insert(k, Some(v));
            }
        }
        let _ = db.flush();
        model
    };
    fault.crash().unwrap();
    assert!(
        fired.load(Ordering::SeqCst),
        "sync point {point} never fired with background_jobs={background_jobs}"
    );
    if let Err(msg) = check_recovery(fault.clone(), &model, None) {
        let scenario = format!("scan-merge-{}-bg{background_jobs}", point.replace(':', "-"));
        fail_with_plan(&scenario, 0, &fault, format!("[{point}] {msg}"));
    }
}

#[test]
fn crash_matrix_covers_scan_triggered_merges() {
    for background_jobs in [0, 2] {
        for point in [
            "merge:begin",
            "merge:build",
            "merge:commit",
            "merge:cleanup",
        ] {
            crash_in_scan_triggered_merge(point, background_jobs);
        }
    }
}

/// Seeded random crash points under background jobs: fail the Nth sync()
/// according to a scripted fault plan, crash, and verify recovery. The
/// workload keeps writing through job failures until the engine refuses
/// further writes (poisoned) or the ops run out.
#[test]
fn crash_at_random_seeded_points_under_background_jobs() {
    let base_seed = seed_from_env(0x5EED_0001);
    for round in 0..4u64 {
        let seed = lcg(base_seed.wrapping_add(round));
        let fault = FaultInjectionEnv::new(MemEnv::shared());
        // Fail one seeded sync somewhere in the run; everything after it
        // in that file is volatile and must be discarded by crash().
        fault.set_plan(
            FaultPlan::new(seed)
                .rule(FaultRule::new(FaultOp::Sync, FaultAction::Fail).after(seed % 200)),
        );
        let (model, in_flight) = {
            let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", opts(2)).unwrap();
            let r = run_workload(&db, seed);
            db.wait_for_background();
            r.map(|model| (model, None)).unwrap_or_else(|stop| stop)
        };
        fault.clear_plan();
        fault.crash().unwrap();
        if let Err(msg) = check_recovery(fault.clone(), &model, in_flight.as_deref()) {
            fail_with_plan("random-sync-crash", seed, &fault, msg);
        }
    }
}

/// The event journal is advisory even under paranoid recovery: run with
/// the journal on (paranoid, so every event is synced through the fault
/// env), crash, tear the journal's tail with a half-written record, and
/// reopen with `paranoid_checks` + journal still enabled. The open must
/// succeed, every acked write must survive, and the journal must resume
/// with monotonic sequence numbers above the surviving prefix.
#[test]
fn crash_with_torn_event_journal_recovers_and_journal_resumes() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let seed = seed_from_env(0x10E5_CAFE);
    let journal_opts = || UniKvOptions {
        enable_event_journal: true,
        paranoid_checks: true,
        ..opts(0)
    };
    let model = {
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", journal_opts()).unwrap();
        let Ok(model) = run_workload(&db, seed) else {
            panic!("no faults armed, no op may fail");
        };
        db.flush().unwrap();
        model
    };
    fault.crash().unwrap();

    let path = std::path::Path::new("/db/EVENTS");
    let survived = unikv::read_events(fault.as_ref(), std::path::Path::new("/db"));
    assert!(
        !survived.is_empty(),
        "paranoid journal lost all synced events"
    );
    let max_survived = survived.last().unwrap().seq;
    let mut data = fault.read_to_vec(path).unwrap();
    data.extend_from_slice(b"{\"seq\":424242,\"at_us\":7,\"ki");
    let mut f = fault.new_writable(path).unwrap();
    f.append(&data).unwrap();
    f.flush().unwrap();
    f.sync().unwrap();
    drop(f);

    let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", journal_opts()).unwrap();
    for (k, expect) in &model {
        let got = db.get(k).unwrap();
        assert_eq!(
            got.as_ref(),
            expect.as_ref(),
            "key {} diverged after torn-journal recovery",
            String::from_utf8_lossy(k)
        );
    }
    // New events continue past the surviving prefix, torn record dropped.
    db.put(b"post-crash", b"v").unwrap();
    db.flush().unwrap();
    drop(db);
    let events = unikv::read_events(fault.as_ref(), std::path::Path::new("/db"));
    assert!(events.iter().all(|e| e.seq != 424_242), "torn event kept");
    assert!(
        events.last().unwrap().seq > max_survived,
        "journal did not resume after the torn tail"
    );
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq, "seq not monotonic: {w:?}");
    }
}

/// Records the cause of every merge start event.
#[derive(Default)]
struct MergeCauses(Mutex<Vec<Option<u64>>>);

impl EventListener for MergeCauses {
    fn on_event(&self, e: &Event) {
        if e.kind == EventKind::MergeStart {
            self.0.lock().unwrap().push(e.cause);
        }
    }
}

/// The matrix must exercise real structural work: with the workload above
/// every job kind runs at least once when no fault is armed, in both
/// modes, and scans trigger merges.
#[test]
fn workload_reaches_all_structural_operations() {
    for background_jobs in [0, 2] {
        let fault = FaultInjectionEnv::new(MemEnv::shared());
        let causes = Arc::new(MergeCauses::default());
        let mut o = opts(background_jobs);
        o.listeners.0.push(causes.clone());
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, "/db", o).unwrap();
        assert!(
            run_workload(&db, 0xC0FFEE).is_ok(),
            "no faults armed, no op may fail"
        );
        db.wait_for_background();
        // A merge that a flush tips carries the flush's finish event as
        // its cause; one that a scan starts has none. (So would one the
        // stall controller re-schedules, but no write hard-stops here.)
        let scan_merges = causes
            .0
            .lock()
            .unwrap()
            .iter()
            .filter(|c| c.is_none())
            .count();
        assert!(
            scan_merges > 0,
            "no scan triggered a merge with background_jobs={background_jobs}"
        );
        assert_eq!(db.metrics().stall_stops.value(), 0);
        db.flush().unwrap();
        db.compact_all().unwrap();
        db.force_gc().unwrap();
        db.wait_for_background();
        let stats = db.metrics_snapshot().counters;
        for counter in ["flushes", "merges", "gcs", "splits"] {
            assert!(
                stats[counter] > 0,
                "workload never triggered {counter} with background_jobs={background_jobs}: {stats:?}"
            );
        }
    }
}
