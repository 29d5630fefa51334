//! Log-granularity GC: a triggered GC rewrites only the value logs whose
//! own garbage ratio reached `gc_garbage_ratio`, plus every log inherited
//! from a split parent, and keeps every other log byte for byte.

mod gc_scenario;

use gc_scenario::{logs, opts, Scenario, KEYS, ROOT, VALUE_LEN};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use unikv::{UniKv, UniKvOptions};
use unikv_env::fault::{FaultAction, FaultInjectionEnv, FaultOp, FaultPlan, FaultRule};
use unikv_env::mem::MemEnv;
use unikv_env::Env;
use unikv_workload::{format_key, make_value};

/// Gets and a full scan return exactly the model.
fn check_model(db: &UniKv, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    for (k, v) in model {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v), "get {k:?}");
    }
    let scanned: Vec<(Vec<u8>, Vec<u8>)> = db
        .scan(b"", model.len() + 10)
        .unwrap()
        .into_iter()
        .map(|it| (it.key, it.value))
        .collect();
    let expect: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert!(scanned == expect, "scan diverged from the model");
}

/// The scenario's triggered GC deletes exactly the logs at or above the
/// ratio and leaves the others, fresh one included, byte for byte.
fn kept_logs_survive_a_triggered_gc(background_jobs: usize) {
    let env = MemEnv::shared();
    let opts = opts(background_jobs);
    let ratio = opts.gc_garbage_ratio;
    let db = UniKv::open(env.clone(), ROOT, opts.clone()).unwrap();
    let mut s = Scenario::build(&db, env.as_ref()).unwrap();
    let before = logs(env.as_ref(), 0);
    let garbage = s.garbage(&before);
    assert_eq!(garbage[&s.fresh], 0.0, "the fresh log is fully live");
    let victims: Vec<u64> = garbage
        .iter()
        .filter(|(_, &g)| g >= ratio)
        .map(|(&n, _)| n)
        .collect();
    assert_eq!(victims.len(), 2, "garbage per log: {garbage:?}");
    assert!(
        garbage.values().any(|&g| g > 0.0 && g < ratio),
        "the scenario must hold a kept log with some garbage: {garbage:?}"
    );

    assert_eq!(db.metrics().gcs.value(), 0);
    s.trigger(&db).unwrap();
    assert_eq!(db.metrics().gcs.value(), 1, "one GC ran");

    let after = logs(env.as_ref(), 0);
    for (n, bytes) in &before {
        if victims.contains(n) {
            assert!(!after.contains_key(n), "victim log {n} survived the GC");
        } else {
            assert!(
                after.get(n) == Some(bytes),
                "kept log {n} (garbage {:.2}) was rewritten or deleted",
                garbage[n]
            );
        }
    }
    // The rewritten values went to new logs; the partition is now below
    // the ratio, so the next trigger check does not fire again.
    let total: u64 = after.values().map(|b| b.len() as u64).sum();
    let dead = total - s.live_record_bytes();
    assert!(
        (dead as f64) < ratio * total as f64,
        "{dead} of {total} log bytes are still garbage"
    );
    db.flush().unwrap();
    db.wait_for_background();
    assert_eq!(db.metrics().gcs.value(), 1, "GC fired again");

    check_model(&db, &s.model);
    drop(db);
    let db = UniKv::open(env.clone(), ROOT, opts).unwrap();
    check_model(&db, &s.model);
    assert_eq!(logs(env.as_ref(), 0), after, "reopen changed the logs");
}

#[test]
fn triggered_gc_keeps_logs_below_the_ratio_inline() {
    kept_logs_survive_a_triggered_gc(0);
}

#[test]
fn triggered_gc_keeps_logs_below_the_ratio_in_background() {
    kept_logs_survive_a_triggered_gc(2);
}

/// The split scenario up to both children's first GC.
struct SplitRun {
    env: Arc<MemEnv>,
    db: UniKv,
    opts: UniKvOptions,
    model: BTreeMap<Vec<u8>, Vec<u8>>,
    /// The parent's logs, which both children inherit.
    parent_logs: BTreeMap<u64, Vec<u8>>,
    /// Per child: its own log that the second overwrite round made dead.
    dead: Vec<BTreeMap<u64, Vec<u8>>>,
    /// Per child: its own fully live log.
    fresh: Vec<BTreeMap<u64, Vec<u8>>>,
}

const CHILDREN: [u32; 2] = [1, 2];

/// Split the one partition, give each child a dead own log and then a
/// fresh fully live one (the inherited logs are all garbage), and let
/// the next flush run both children's GC.
fn split_and_gc() -> SplitRun {
    let env = MemEnv::shared();
    let opts = UniKvOptions {
        enable_partitioning: true,
        // The first trigger splits the one partition; the halves stay
        // below the limit.
        partition_size_limit: 24 << 10,
        ..opts(0)
    };
    let db = UniKv::open(env.clone(), ROOT, opts.clone()).unwrap();
    let mut model = BTreeMap::new();
    let mut round = |db: &UniKv, tag: u64| {
        for i in 0..KEYS {
            let (k, v) = (format_key(i), make_value(i, tag, VALUE_LEN));
            db.put(&k, &v).unwrap();
            model.insert(k, v);
        }
        db.compact_all().unwrap();
    };
    round(&db, 0);
    let parent_logs = logs(env.as_ref(), 0);
    db.flush().unwrap(); // post-flush triggers: split only
    assert_eq!(db.metrics().splits.value(), 1);
    assert_eq!(db.metrics().gcs.value(), 0);
    for pid in CHILDREN {
        assert!(logs(env.as_ref(), pid).is_empty(), "p{pid} owns no log yet");
    }
    round(&db, 1);
    let dead: Vec<BTreeMap<u64, Vec<u8>>> =
        CHILDREN.iter().map(|&p| logs(env.as_ref(), p)).collect();
    round(&db, 2);
    let fresh: Vec<BTreeMap<u64, Vec<u8>>> = CHILDREN
        .iter()
        .zip(&dead)
        .map(|(&p, dead)| {
            let mut l = logs(env.as_ref(), p);
            l.retain(|n, _| !dead.contains_key(n));
            l
        })
        .collect();
    db.flush().unwrap();
    assert_eq!(db.metrics().gcs.value(), 2, "both children GC");
    assert_eq!(db.metrics().splits.value(), 1);
    SplitRun {
        env,
        db,
        opts,
        model,
        parent_logs,
        dead,
        fresh,
    }
}

/// After a split, the children share the parent's logs until a GC moves
/// their values out. A triggered GC in a child always takes every
/// inherited log (the lazy value split) but keeps the child's own fresh
/// log; once both children have collected, the parent's logs are gone.
#[test]
fn triggered_gc_takes_every_inherited_log_and_keeps_fresh_own_logs() {
    let SplitRun {
        env,
        db,
        opts,
        model,
        parent_logs,
        dead,
        fresh,
    } = split_and_gc();
    for n in parent_logs.keys() {
        let path = Path::new(ROOT)
            .join("p0")
            .join(unikv_vlog::vlog_file_name(*n));
        assert!(!env.file_exists(&path), "inherited log {n} survived");
    }
    for (i, &pid) in CHILDREN.iter().enumerate() {
        let now = logs(env.as_ref(), pid);
        assert_eq!(fresh[i].len(), 1, "one fresh log in p{pid}");
        for (n, bytes) in &fresh[i] {
            assert!(
                now.get(n) == Some(bytes),
                "fresh log {n} of p{pid} rewritten"
            );
        }
        for n in dead[i].keys() {
            assert!(!now.contains_key(n), "dead log {n} of p{pid} survived");
        }
    }
    check_model(&db, &model);
    drop(db);
    let db = UniKv::open(env as Arc<dyn Env>, ROOT, opts).unwrap();
    check_model(&db, &model);
}

/// The children's first GC copies no value (every inherited and dead
/// value is overwritten), so it must open no new log: each child keeps
/// exactly its fresh log and no 0-byte log is left in any partition.
#[test]
fn gc_that_copies_nothing_leaves_no_empty_log() {
    let run = split_and_gc();
    for (i, &pid) in CHILDREN.iter().enumerate() {
        let now = logs(run.env.as_ref(), pid);
        for (n, bytes) in &now {
            assert!(!bytes.is_empty(), "p{pid} holds an empty log {n}");
        }
        assert_eq!(
            now.keys().collect::<Vec<_>>(),
            run.fresh[i].keys().collect::<Vec<_>>(),
            "p{pid} holds exactly its fresh log"
        );
    }
    check_model(&run.db, &run.model);
}

/// A partition whose SortedStore holds no pointer (every key deleted and
/// merged away) and inherits no log has only dead own logs: GC takes them
/// all as victims and drops them through the usual GC protocol, counted
/// and past `gc:commit`. If the manifest commit that drops them fails, the
/// logs must still be there, since the manifest still names them: a
/// paranoid reopen after a crash finds every log it lists.
#[test]
fn gc_without_pointers_deletes_logs_only_after_its_commit() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let env = fault.clone() as Arc<dyn Env>;
    {
        let db = UniKv::open(env.clone(), ROOT, opts(0)).unwrap();
        for i in 0..150 {
            db.put(&format_key(i), &make_value(i, 1, VALUE_LEN))
                .unwrap();
        }
        db.compact_all().unwrap();
        for i in 0..150 {
            db.delete(&format_key(i)).unwrap();
        }
        db.compact_all().unwrap();
        assert!(db.partition_metas()[0].sorted.is_empty());
        assert!(!logs(fault.as_ref(), 0).is_empty(), "no dead log to drop");
        fault.set_plan(
            FaultPlan::new(0)
                .rule(FaultRule::new(FaultOp::Sync, FaultAction::Fail).on_path("MANIFEST")),
        );
        assert!(db.force_gc().is_err(), "the failed commit went unnoticed");
        fault.clear_plan();
    }
    fault.crash().unwrap();
    let reopen = UniKvOptions {
        paranoid_checks: true,
        ..opts(0)
    };
    let db = UniKv::open(env.clone(), ROOT, reopen).unwrap();
    for i in 0..150 {
        assert_eq!(db.get(&format_key(i)).unwrap(), None, "key {i} resurrected");
    }
    let gcs = db.metrics().gcs.value();
    let committed = Arc::new(AtomicBool::new(false));
    let seen = committed.clone();
    db.sync_points().arm(Arc::new(move |name| {
        if name == "gc:commit" {
            seen.store(true, Ordering::SeqCst);
        }
        Ok(())
    }));
    db.force_gc().unwrap();
    db.sync_points().disarm();
    assert!(logs(fault.as_ref(), 0).is_empty(), "the dead logs survived");
    assert_eq!(db.metrics().gcs.value(), gcs + 1, "an uncounted GC");
    assert!(committed.load(Ordering::SeqCst), "the GC skipped gc:commit");
}

/// GC writes its SortedStore through the same value rule as merge and
/// split: with `enable_kv_separation` on, an inline SortedStore value is
/// appended to the new log. Such values exist only in a database whose
/// last merge ran with separation off; here separation is on, then off
/// (the overwrites stay inline), then on again for the GC.
#[test]
fn gc_separates_inline_sorted_store_values() {
    let env = MemEnv::shared() as Arc<dyn Env>;
    let with_separation = |enable_kv_separation| UniKvOptions {
        enable_kv_separation,
        ..opts(0)
    };
    let mut model = BTreeMap::new();
    for (round, separate) in [(0, true), (1, false)] {
        let db = UniKv::open(env.clone(), ROOT, with_separation(separate)).unwrap();
        for i in (0..KEYS).filter(|i| round == 0 || i % 2 == 0) {
            let value = make_value(i, round, VALUE_LEN);
            db.put(&format_key(i), &value).unwrap();
            model.insert(format_key(i), value);
        }
        db.compact_all().unwrap();
    }
    let db = UniKv::open(env.clone(), ROOT, with_separation(true)).unwrap();
    let pointed = db.partition_metas()[0].live_value_bytes;
    assert_eq!(
        pointed,
        (KEYS / 2) * VALUE_LEN as u64,
        "half the values are inline"
    );
    db.force_gc().unwrap();
    assert_eq!(
        db.partition_metas()[0].live_value_bytes,
        KEYS * VALUE_LEN as u64,
        "GC left inline values in the SortedStore"
    );
    check_model(&db, &model);
    drop(db);
    let report = unikv::verify_db(env, ROOT).unwrap();
    assert!(report.is_clean(), "{report:?}");
}

/// The logs a GC wrote before its commit aborted are named by no commit,
/// so the retire rule does not delete them. The next GC's commit names
/// them, as it names every log it does not copy, and the GC after it
/// deletes them: the partition's directory then holds exactly its named
/// logs again.
#[test]
fn logs_an_aborted_gc_wrote_are_deleted_by_later_gcs() {
    let env = MemEnv::shared();
    let db = UniKv::open(env.clone() as Arc<dyn Env>, ROOT, opts(0)).unwrap();
    for round in 0..3 {
        for i in 0..KEYS {
            db.put(&format_key(i), &make_value(i, round, VALUE_LEN))
                .unwrap();
        }
    }
    db.compact_all().unwrap();
    let id = db.partition_metas()[0].id;
    let named = |db: &UniKv| db.partition_metas()[0].own_logs.clone();
    let on_disk = || logs(env.as_ref(), id).into_keys().collect::<Vec<u64>>();
    let fired = Arc::new(AtomicBool::new(false));
    let armed = fired.clone();
    db.sync_points().arm(Arc::new(move |name| {
        if name == "gc:commit" && !armed.swap(true, Ordering::SeqCst) {
            return Err(unikv_common::Error::internal("abort at gc:commit"));
        }
        Ok(())
    }));
    assert!(db.force_gc().is_err(), "the GC did not abort");
    db.sync_points().disarm();
    let left: Vec<u64> = on_disk()
        .into_iter()
        .filter(|n| !named(&db).contains(n))
        .collect();
    assert!(!left.is_empty(), "the aborted GC wrote no log");
    db.force_gc().unwrap();
    db.force_gc().unwrap();
    assert_eq!(
        on_disk(),
        named(&db),
        "the aborted GC's logs {left:?} survived"
    );
}
