//! Corruption-recovery suite: flip bytes in every on-disk file type
//! (WAL, SSTable, value log, META, index checkpoint) and assert the
//! engine under `paranoid_checks` either refuses to open with
//! `Error::Corruption`, serves reads that are individually correct or
//! typed corruption errors — but **never** silently wrong values — or,
//! for redundant structures, recovers cleanly. The offline scrub
//! (`verify_db`) must localize the damage in every case.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use unikv::{verify_db, UniKv, UniKvOptions};
use unikv_env::fault::FaultInjectionEnv;
use unikv_env::mem::MemEnv;
use unikv_env::Env;
use unikv_workload::{format_key, make_value};

const ROOT: &str = "/db";

fn opts() -> UniKvOptions {
    UniKvOptions {
        sync_writes: true,
        ..UniKvOptions::small_for_tests()
    }
}

fn paranoid() -> UniKvOptions {
    UniKvOptions {
        paranoid_checks: true,
        ..opts()
    }
}

/// Build a database with tables, value logs, and a WAL holding writes
/// newer than any flush, then crash. Returns the acked model.
fn build_db(fault: &Arc<FaultInjectionEnv>) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut model = BTreeMap::new();
    {
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, opts()).unwrap();
        // Distinct keys: after compaction every value-log record is live,
        // so a byte flip anywhere in a vlog hits a reachable value.
        for i in 0..500u64 {
            let k = format_key(i);
            let v = make_value(i, 7, 80);
            db.put(&k, &v).unwrap();
            model.insert(k, v);
        }
        db.flush().unwrap();
        db.compact_all().unwrap(); // values move into the value logs
                                   // Writes after the compaction live only in the WAL + memtable.
        for i in 0..60u64 {
            let k = format_key(1000 + i);
            let v = make_value(i, 8, 40);
            db.put(&k, &v).unwrap();
            model.insert(k, v);
        }
    }
    fault.crash().unwrap();
    model
}

/// Every file under the partitions recorded in META whose name ends with
/// `suffix`, largest first (the interesting one to damage).
fn files_with_suffix(env: &Arc<FaultInjectionEnv>, suffix: &str) -> Vec<(PathBuf, u64)> {
    let root = std::path::Path::new(ROOT);
    let meta = unikv::meta::DbMeta::decode(&env.read_to_vec(&root.join("META")).unwrap()).unwrap();
    let mut out = Vec::new();
    for p in &meta.partitions {
        let dir = unikv::resolver::partition_dir(root, p.id);
        for name in env.list_dir(&dir).unwrap() {
            if name.to_string_lossy().ends_with(suffix) {
                let path = dir.join(name);
                let size = env.file_size(&path).unwrap();
                out.push((path, size));
            }
        }
    }
    out.sort_by_key(|(_, size)| std::cmp::Reverse(*size));
    out
}

/// After damage, reads must never produce a silently wrong value: each
/// key yields its model value or a typed corruption error. Returns the
/// number of corruption errors observed.
fn assert_no_silent_garbage(db: &UniKv, model: &BTreeMap<Vec<u8>, Vec<u8>>) -> u64 {
    let mut corrupt = 0;
    for (k, v) in model {
        match db.get(k) {
            Ok(Some(got)) => assert_eq!(
                &got,
                v,
                "silently wrong value for {}",
                String::from_utf8_lossy(k)
            ),
            Ok(None) => panic!("key {} silently vanished", String::from_utf8_lossy(k)),
            Err(e) => {
                assert!(e.is_corruption(), "expected typed corruption, got: {e}");
                corrupt += 1;
            }
        }
    }
    corrupt
}

#[test]
fn corrupt_meta_fails_open_with_typed_error() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    build_db(&fault);
    let meta = std::path::Path::new(ROOT).join("META");
    let size = fault.file_size(&meta).unwrap();
    fault.flip_byte(&meta, size / 2).unwrap();

    let report = verify_db(fault.clone() as Arc<dyn Env>, ROOT).unwrap();
    assert!(report.damage.iter().any(|d| d.kind == "META"), "{report:?}");

    let err = match UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, paranoid()) {
        Ok(_) => panic!("paranoid open must fail"),
        Err(e) => e,
    };
    assert!(err.is_corruption(), "got: {err}");
}

#[test]
fn corrupt_wal_middle_fails_paranoid_open() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    build_db(&fault);
    let (wal, size) = files_with_suffix(&fault, ".wal")
        .into_iter()
        .next()
        .expect("a WAL with unflushed writes");
    assert!(size > 0, "WAL should hold the post-compaction writes");
    // A third of the way in: records follow, so this is mid-log damage
    // (acked writes after it would be lost), not a torn tail.
    fault.flip_byte(&wal, size / 3).unwrap();

    let report = verify_db(fault.clone() as Arc<dyn Env>, ROOT).unwrap();
    assert!(report.damage.iter().any(|d| d.kind == "wal"), "{report:?}");

    let err = match UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, paranoid()) {
        Ok(_) => panic!("paranoid open must fail"),
        Err(e) => e,
    };
    assert!(err.is_corruption(), "got: {err}");
    assert!(err.to_string().contains("WAL"), "got: {err}");
}

#[test]
fn corrupt_sstable_is_detected_never_served() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let model = build_db(&fault);
    let (sst, size) = files_with_suffix(&fault, ".sst")
        .into_iter()
        .next()
        .expect("a committed table");
    fault.flip_byte(&sst, size / 2).unwrap();

    let report = verify_db(fault.clone() as Arc<dyn Env>, ROOT).unwrap();
    assert!(
        report.damage.iter().any(|d| d.kind == "sstable"),
        "{report:?}"
    );

    // Mid-file damage lands in a data block, which open-time footer/index
    // checks cannot see; the block CRC catches it at read time instead.
    match UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, paranoid()) {
        Err(e) => assert!(e.is_corruption(), "got: {e}"),
        Ok(db) => {
            let corrupt = assert_no_silent_garbage(&db, &model);
            assert!(corrupt > 0, "damaged table never read");
            let stats: BTreeMap<_, _> = db.stats().snapshot().into_iter().collect();
            assert_eq!(
                stats["corruptions_detected"], corrupt,
                "stats must count each surfaced corruption"
            );
        }
    }
}

#[test]
fn corrupt_vlog_value_is_detected_never_served() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let model = build_db(&fault);
    let (vlog, size) = files_with_suffix(&fault, ".vlog")
        .into_iter()
        .next()
        .expect("a value log after compaction");
    fault.flip_byte(&vlog, size / 2).unwrap();

    let report = verify_db(fault.clone() as Arc<dyn Env>, ROOT).unwrap();
    assert!(report.damage.iter().any(|d| d.kind == "vlog"), "{report:?}");

    match UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, paranoid()) {
        Err(e) => assert!(e.is_corruption(), "got: {e}"),
        Ok(db) => {
            let corrupt = assert_no_silent_garbage(&db, &model);
            assert!(corrupt > 0, "damaged value log never read");
        }
    }
}

/// A scan reads back-to-back value records with one read per run; a
/// flipped byte in a record inside such a run must fail the whole scan
/// with a typed corruption error, while point reads of every other key
/// stay correct.
#[test]
fn corrupt_vlog_value_inside_scan_run_fails_scan() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let model = build_db(&fault);
    let value = |i: u64| model[&format_key(i)].clone();
    let (vlog, data, at) = files_with_suffix(&fault, ".vlog")
        .into_iter()
        .find_map(|(path, _)| {
            let data = fault.read_to_vec(&path).unwrap();
            let target = value(250);
            let at = data.windows(target.len()).position(|w| w == target)?;
            Some((path, data, at))
        })
        .expect("key 250's value sits in a value log");
    // Keys 249..=251 are back to back in this log: one run for the scan.
    let record = unikv_vlog::record_size(value(250).len() as u32) as usize;
    let find = |i: u64| {
        let v = value(i);
        data.windows(v.len()).position(|w| w == v)
    };
    assert_eq!(find(249), Some(at - record));
    assert_eq!(find(251), Some(at + record));
    fault.flip_byte(&vlog, (at + 40) as u64).unwrap();

    let db = UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, opts()).unwrap();
    let err = db.scan(&format_key(245), 10).unwrap_err();
    assert!(err.is_corruption(), "expected typed corruption, got: {err}");
    for (k, v) in &model {
        if *k == format_key(250) {
            assert!(db.get(k).unwrap_err().is_corruption());
        } else {
            assert_eq!(&db.get(k).unwrap().expect("key present"), v);
        }
    }
}

#[test]
fn corrupt_index_checkpoint_recovers_cleanly() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let model = build_db(&fault);
    let (ckpt, size) = {
        // The checkpoint lives beside the tables in each partition dir.
        let found = files_with_suffix(&fault, "INDEX.ckpt");
        match found.into_iter().next() {
            Some(f) => f,
            None => return, // no checkpoint written at this scale: nothing to corrupt
        }
    };
    fault.flip_byte(&ckpt, size / 2).unwrap();

    let report = verify_db(fault.clone() as Arc<dyn Env>, ROOT).unwrap();
    assert!(
        report.damage.iter().any(|d| d.kind == "index-ckpt"),
        "{report:?}"
    );

    // The checkpoint is redundant (tables are the truth): recovery must
    // fall back to rebuilding the index and serve everything correctly.
    let db = UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, paranoid()).unwrap();
    assert_eq!(assert_no_silent_garbage(&db, &model), 0);
}

#[test]
fn missing_committed_table_fails_paranoid_open() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    build_db(&fault);
    let (sst, _) = files_with_suffix(&fault, ".sst")
        .into_iter()
        .next()
        .expect("a committed table");
    fault.delete_file(&sst).unwrap();

    let report = verify_db(fault.clone() as Arc<dyn Env>, ROOT).unwrap();
    assert!(
        report.damage.iter().any(|d| d.kind == "sstable"),
        "{report:?}"
    );

    let err = match UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, paranoid()) {
        Ok(_) => panic!("paranoid open must fail"),
        Err(e) => e,
    };
    assert!(err.is_corruption(), "got: {err}");

    // The default (non-paranoid) open defers detection, but reads still
    // surface errors rather than fabricated values.
    if let Ok(db) = UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, opts()) {
        for i in 0..300u64 {
            if let Ok(Some(v)) = db.get(&format_key(i)) {
                assert!(!v.is_empty());
            }
        }
    }
}
