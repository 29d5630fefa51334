//! Corruption-recovery suite: flip bytes in every on-disk file type
//! (WAL, SSTable, value log, MANIFEST) and assert the engine under
//! `paranoid_checks` either refuses to open with `Error::Corruption` or
//! serves reads that are individually correct or typed corruption errors
//! — but **never** silently wrong values. A torn final manifest record is
//! crash residue and reopens to the commit before it. The offline scrub
//! (`verify_db`) must localize the damage in every case.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use unikv::meta::{read_manifest, MANIFEST};
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

/// Every file under the partitions recorded in the manifest whose name
/// ends with `suffix`, largest first (the interesting one to damage).
fn files_with_suffix(env: &Arc<FaultInjectionEnv>, suffix: &str) -> Vec<(PathBuf, u64)> {
    let root = Path::new(ROOT);
    let meta = read_manifest(env.as_ref(), root).unwrap().unwrap().meta;
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

/// Byte offsets at which each record of the manifest log starts, and the
/// file length. Records of these tests fit one 32 KiB log block, so each
/// is one fragment: a 7-byte header (CRC, 2-byte length, type) and its
/// payload.
fn manifest_records(env: &FaultInjectionEnv) -> (Vec<u64>, u64) {
    let data = env.read_to_vec(&Path::new(ROOT).join(MANIFEST)).unwrap();
    assert!(data.len() < 32 << 10, "records must fit one log block");
    let mut starts = Vec::new();
    let mut pos = 0usize;
    while pos + 7 <= data.len() {
        starts.push(pos as u64);
        pos += 7 + u16::from_le_bytes([data[pos + 4], data[pos + 5]]) as usize;
    }
    assert_eq!(pos, data.len(), "manifest framing");
    (starts, data.len() as u64)
}

#[test]
fn corrupt_meta_fails_open_with_typed_error() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    build_db(&fault);
    // Damage the snapshot record that opens the manifest.
    let manifest = Path::new(ROOT).join(MANIFEST);
    let (starts, _) = manifest_records(&fault);
    assert!(starts.len() > 1, "edits follow the snapshot");
    fault.flip_byte(&manifest, starts[1] / 2).unwrap();

    let report = verify_db(fault.clone() as Arc<dyn Env>, ROOT).unwrap();
    assert!(
        report.damage.iter().any(|d| d.kind == "MANIFEST"),
        "{report:?}"
    );

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
            let stats = db.metrics_snapshot().counters;
            assert_eq!(
                stats["corruptions_detected"], corrupt,
                "each surfaced corruption must be counted"
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

/// Flush `n` distinct keys into one UnsortedStore table (no merge) and
/// return the model and that table's path. Its gets go through the
/// table's record directory.
fn build_unsorted_table(
    fault: &Arc<FaultInjectionEnv>,
    n: u64,
) -> (BTreeMap<Vec<u8>, Vec<u8>>, PathBuf) {
    let mut model = BTreeMap::new();
    let db = UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, opts()).unwrap();
    for i in 0..n {
        let (k, v) = (format_key(i), make_value(i, 3, 80));
        db.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    db.flush().unwrap();
    let stats = db.metrics_snapshot().counters;
    assert_eq!((stats["flushes"], stats["merges"]), (1, 0));
    drop(db);
    let (sst, _) = files_with_suffix(fault, ".sst")
        .into_iter()
        .next()
        .expect("the flushed table");
    (model, sst)
}

/// A flipped byte inside one UnsortedStore record fails exactly that
/// key's get with a typed corruption error (the record's own CRC); every
/// other key of the table, the same block's included, still reads its
/// value. The scrub flags the table.
#[test]
fn corrupt_unsorted_record_fails_only_its_get() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let (model, sst) = build_unsorted_table(&fault, 12);
    let victim = format_key(7);
    let data = fault.read_to_vec(&sst).unwrap();
    let at = data
        .windows(model[&victim].len())
        .position(|w| w == &model[&victim][..])
        .expect("the value sits in the table");
    fault.flip_byte(&sst, (at + 10) as u64).unwrap();

    let report = verify_db(fault.clone() as Arc<dyn Env>, ROOT).unwrap();
    assert_eq!(report.damage.len(), 1, "{report:?}");
    assert_eq!(
        (report.damage[0].kind, &report.damage[0].path),
        ("sstable", &sst)
    );

    let db = UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, opts()).unwrap();
    for (k, v) in &model {
        if *k == victim {
            let err = db.get(k).unwrap_err();
            assert!(err.is_corruption(), "expected typed corruption, got: {err}");
        } else {
            assert_eq!(&db.get(k).unwrap().expect("key present"), v);
        }
    }
}

/// A flipped byte in a table's record directory fails the table's open
/// (the directory block's CRC) with a typed error, so every get that
/// reaches the table fails typed and none is served wrong; the scrub
/// flags the table.
#[test]
fn corrupt_record_directory_fails_typed() {
    use unikv_sstable::format::{Footer, DIRECTORY_FOOTER_SIZE};
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let (model, sst) = build_unsorted_table(&fault, 12);
    let data = fault.read_to_vec(&sst).unwrap();
    let footer = Footer::decode(&data[data.len() - DIRECTORY_FOOTER_SIZE..]).unwrap();
    let dir = footer
        .directory_handle
        .expect("a hash-indexed table has a directory");
    fault.flip_byte(&sst, dir.offset + dir.size / 2).unwrap();

    let report = verify_db(fault.clone() as Arc<dyn Env>, ROOT).unwrap();
    assert_eq!(report.damage.len(), 1, "{report:?}");
    assert_eq!(
        (report.damage[0].kind, &report.damage[0].path),
        ("sstable", &sst)
    );

    match UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, opts()) {
        Err(e) => assert!(e.is_corruption(), "got: {e}"),
        Ok(db) => {
            let corrupt = assert_no_silent_garbage(&db, &model);
            assert_eq!(corrupt, model.len() as u64, "every key lives in the table");
        }
    }
}

/// A bit flip in an edit record with intact records after it cannot be
/// crash residue: open fails with a typed error in every mode, and the
/// scrub reports the manifest.
#[test]
fn corrupt_manifest_middle_record_fails_open() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    build_db(&fault);
    // Where the manifest last compacted depends on table sizes (a flush's
    // edit carries the new table's index entries). Commit small flushes
    // until a record sits between the first and the last one.
    {
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, opts()).unwrap();
        for i in 0..8u64 {
            if manifest_records(&fault).0.len() >= 3 {
                break;
            }
            db.put(&format_key(2000 + i), &make_value(i, 9, 40))
                .unwrap();
            db.flush().unwrap();
        }
    }
    fault.crash().unwrap();
    let manifest = Path::new(ROOT).join(MANIFEST);
    let (starts, len) = manifest_records(&fault);
    assert!(starts.len() >= 3, "snapshot, then edits: {starts:?}");
    let mid = starts.len() / 2;
    let end = starts.get(mid + 1).copied().unwrap_or(len);
    fault.flip_byte(&manifest, (starts[mid] + end) / 2).unwrap();

    let report = verify_db(fault.clone() as Arc<dyn Env>, ROOT).unwrap();
    assert_eq!(report.damage.len(), 1, "{report:?}");
    assert_eq!(report.damage[0].kind, "MANIFEST");
    assert_eq!(report.damage[0].path, manifest);

    for o in [opts(), paranoid()] {
        let err = match UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, o) {
            Ok(_) => panic!("open must fail"),
            Err(e) => e,
        };
        assert!(err.is_corruption(), "got: {err}");
        assert!(err.to_string().contains(MANIFEST), "got: {err}");
    }
}

/// A torn final record (a crash mid-append) is dropped: the database
/// reopens to the commit before it and serves that state exactly.
#[test]
fn torn_manifest_tail_reopens_to_previous_commit() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let mut model = BTreeMap::new();
    {
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, opts()).unwrap();
        for i in 0..300u64 {
            let (k, v) = (format_key(i), make_value(i, 1, 80));
            db.put(&k, &v).unwrap();
            model.insert(k, v);
        }
        db.flush().unwrap();
    }
    let root = Path::new(ROOT);
    {
        // The flush's install appends the last record. Stop it right after
        // that commit, before it deletes the flushed WAL: the state a crash
        // that tore the append would have left behind, bar the tear below.
        let db = UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, opts()).unwrap();
        db.put(b"late-key", b"late-value").unwrap();
        db.sync_points().arm(Arc::new(|name| match name {
            "flush:cleanup" => Err(unikv_common::Error::internal("stop before cleanup")),
            _ => Ok(()),
        }));
        assert!(db.flush().is_err());
    }
    let after = read_manifest(fault.as_ref(), root).unwrap().unwrap().meta;
    let manifest = root.join(MANIFEST);
    let data = fault.read_to_vec(&manifest).unwrap();
    let (starts, _) = manifest_records(&fault);
    let last = *starts.last().unwrap() as usize;
    assert!(last > 0);
    // Keep the last record's header and half its payload, as a crash
    // between two writes of the append would.
    let torn = last + 7 + (data.len() - last - 7) / 2;
    let mut w = fault.new_writable(&manifest).unwrap();
    w.append(&data[..torn]).unwrap();
    w.sync().unwrap();
    drop(w);
    let recovered = read_manifest(fault.as_ref(), root).unwrap().unwrap().meta;
    let tables =
        |m: &unikv::meta::DbMeta| -> usize { m.partitions.iter().map(|p| p.unsorted.len()).sum() };
    assert_eq!(
        tables(&recovered) + 1,
        tables(&after),
        "the flush was torn away"
    );
    assert_eq!(
        verify_db(fault.clone() as Arc<dyn Env>, ROOT)
            .unwrap()
            .damage
            .len(),
        0,
        "a torn tail is not damage"
    );

    let db = UniKv::open(fault.clone() as Arc<dyn Env>, ROOT, paranoid()).unwrap();
    assert_eq!(assert_no_silent_garbage(&db, &model), 0);
    // The sealed WAL the surviving commit names still holds the late write.
    assert_eq!(db.get(b"late-key").unwrap(), Some(b"late-value".to_vec()));
    drop(db);
    // The reopen wrote a fresh snapshot: no torn bytes remain.
    let (starts, len) = manifest_records(&fault);
    assert!(len > 0 && !starts.is_empty());
    assert!(verify_db(fault.clone() as Arc<dyn Env>, ROOT)
        .unwrap()
        .is_clean());
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
