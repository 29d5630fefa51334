//! The scan optimization is demand-driven: a scan or an iterator that
//! reads a partition holding `scan_merge_limit` UnsortedStore tables hands
//! it to the full merge into the SortedStore; a flush never checks the
//! table count. In background mode a backstop still merges a partition
//! that nobody scans once writers would start braking on its table count.
//!
//! Background mode runs the merge on a worker thread, so these tests wait
//! for the queue to drain before they look at the layout; they are part of
//! the CI flake sweep.

use std::collections::BTreeMap;
use std::path::Path;
use unikv::meta::read_manifest;
use unikv::{UniKv, UniKvOptions};
use unikv_env::mem::MemEnv;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

fn value(i: u32, version: u32, len: usize) -> Vec<u8> {
    let unit = format!("value-{i}-{version}-").into_bytes();
    let reps = len / unit.len() + 2;
    unit.repeat(reps)[..len].to_vec()
}

fn opts(background_jobs: usize) -> UniKvOptions {
    UniKvOptions {
        background_jobs,
        ..UniKvOptions::small_for_tests()
    }
}

/// UnsortedStore table count of every partition, as the manifest last
/// committed it.
fn unsorted_tables(env: &MemEnv) -> Vec<usize> {
    let meta = read_manifest(env, Path::new("/db")).unwrap().unwrap().meta;
    meta.partitions.iter().map(|p| p.unsorted.len()).collect()
}

fn merges(db: &UniKv) -> u64 {
    db.metrics().merges.value()
}

fn counter(db: &UniKv, name: &str) -> u64 {
    db.metrics_snapshot().counters[name]
}

/// Check a scan result against the model: the first `limit` live keys
/// from `from` below `end`.
fn check_scan(db: &UniKv, model: &Model, from: &[u8], end: Option<&[u8]>, limit: usize) {
    let got: Vec<(Vec<u8>, Vec<u8>)> = db
        .scan_range(from, end, limit)
        .unwrap()
        .into_iter()
        .map(|it| (it.key, it.value))
        .collect();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model
        .range(from.to_vec()..)
        .take_while(|(k, _)| end.is_none_or(|end| k.as_slice() < end))
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(got, want);
}

/// Overwrite `keys` with `version` and flush: one new UnsortedStore table
/// in every partition the keys touch (a dozen keys per partition stay well
/// below the memtable size, so no put flushes on its own).
fn write_table(db: &UniKv, model: &mut Model, keys: &[Vec<u8>], version: u32) {
    for (i, k) in keys.iter().enumerate() {
        let v = value(i as u32, version, 40);
        db.put(k, &v).unwrap();
        model.insert(k.clone(), v);
    }
    db.flush().unwrap();
}

#[test]
fn write_only_run_never_scan_merges() {
    for background_jobs in [0, 2] {
        // Writers never brake on the table count here, so the background
        // backstop stays out of the picture: only a flush could trigger.
        let o = UniKvOptions {
            slowdown_unsorted_tables: 1000,
            stop_unsorted_tables: 1000,
            ..opts(background_jobs)
        };
        let env = MemEnv::shared();
        let db = UniKv::open(env.clone(), "/db", o).unwrap();
        let limit = db.options().scan_merge_limit;
        // Below the byte limit, a crowded UnsortedStore stays unmerged.
        let mut model = Model::new();
        let keys: Vec<Vec<u8>> = (0..12).map(key).collect();
        for version in 0..limit as u32 {
            write_table(&db, &mut model, &keys, version);
        }
        db.wait_for_background();
        assert_eq!(unsorted_tables(&env), vec![limit]);
        assert_eq!(
            merges(&db),
            0,
            "a flush merged on the table count with background_jobs={background_jobs}"
        );
        // Only the byte limit merges a write-only run.
        for i in 0..3000u32 {
            db.put(&key(i % 800), &value(i, 0, 64)).unwrap();
        }
        db.flush().unwrap();
        db.wait_for_background();
        assert!(db.metrics().flushes.value() > 20);
        assert!(merges(&db) > 0);
    }
}

#[test]
fn scan_collapses_the_unsorted_store_it_reads() {
    for background_jobs in [0, 2] {
        let env = MemEnv::shared();
        let db = UniKv::open(env.clone(), "/db", opts(background_jobs)).unwrap();
        let mut model = Model::new();
        let keys: Vec<Vec<u8>> = (0..12).map(key).collect();
        let limit = db.options().scan_merge_limit;
        for version in 0..limit as u32 {
            write_table(&db, &mut model, &keys[version as usize..], version);
        }
        assert_eq!(unsorted_tables(&env), vec![limit]);
        let before = db.scan(b"", 100).unwrap();
        check_scan(&db, &model, b"", None, 100);
        db.wait_for_background();
        assert_eq!(unsorted_tables(&env), vec![0]);
        assert_eq!(merges(&db), 1);
        assert_eq!(db.scan(b"", 100).unwrap(), before);
        for (k, v) in &model {
            assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
        }
    }
}

/// A scan over a partition that holds `scan_merge_limit` flushed tables
/// merges the partition into the SortedStore: no UnsortedStore table and
/// no hash-index entry is left, and the scan returns the same items. The
/// merge puts the blocks it writes in the cache, so a repeated scan reads
/// no block from a file: none of an UnsortedStore table, none at all.
#[test]
fn scan_merges_a_crowded_partition_into_the_sorted_store() {
    for background_jobs in [0, 2] {
        let env = MemEnv::shared();
        let db = UniKv::open(env.clone(), "/db", opts(background_jobs)).unwrap();
        let mut model = Model::new();
        let keys: Vec<Vec<u8>> = (0..20).map(key).collect();
        let limit = db.options().scan_merge_limit;
        for version in 0..limit as u32 {
            write_table(&db, &mut model, &keys, version);
        }
        db.wait_for_background();
        assert_eq!(merges(&db), 0);
        assert_eq!(unsorted_tables(&env), vec![limit]);
        assert!(db.index_memory_bytes() > 0);
        let first = db.scan(b"", 100).unwrap();
        check_scan(&db, &model, b"", None, 100);
        db.wait_for_background();
        let what = format!("background_jobs={background_jobs}");
        assert_eq!(merges(&db), 1, "{what}");
        assert_eq!(unsorted_tables(&env), vec![0], "{what}");
        assert_eq!(db.index_memory_bytes(), 0, "{what}");
        let reads = counter(&db, "sst_block_reads");
        assert_eq!(db.scan(b"", 100).unwrap(), first, "{what}");
        assert_eq!(
            counter(&db, "sst_block_reads"),
            reads,
            "{what}: the repeated scan read a block from a file"
        );
    }
}

/// A scan merges only the partitions it read; an iterator reads them all.
#[test]
fn only_read_partitions_are_merged() {
    let env = MemEnv::shared();
    let mut model = Model::new();
    {
        // Lay out several partitions with empty UnsortedStores, inline.
        let db = UniKv::open(env.clone(), "/db", opts(0)).unwrap();
        for i in 0..3000u32 {
            let v = value(i, 0, 64);
            db.put(&key(i), &v).unwrap();
            model.insert(key(i), v);
        }
        db.compact_all().unwrap();
        db.flush().unwrap();
        db.compact_all().unwrap();
    }
    for background_jobs in [0, 2] {
        let db = UniKv::open(env.clone(), "/db", opts(background_jobs)).unwrap();
        let bounds = db.partition_boundaries();
        assert!(bounds.len() >= 3, "expected at least three partitions");
        let parts = bounds.len();
        let keys: Vec<Vec<u8>> = (0..10u8)
            .flat_map(|i| [key(i as u32), [bounds[1].as_slice(), &[b'-', i]].concat()])
            .collect();
        let limit = db.options().scan_merge_limit;
        for version in 1..=limit as u32 {
            write_table(&db, &mut model, &keys, version);
        }
        let mut want = vec![0; parts];
        want[..2].copy_from_slice(&[limit, limit]);
        assert_eq!(unsorted_tables(&env), want);

        // The scan ends at the first partition's upper bound.
        check_scan(&db, &model, b"", Some(&bounds[1]), 1000);
        db.wait_for_background();
        want[0] = 0;
        assert_eq!(unsorted_tables(&env), want);

        let mut it = db.iter().unwrap();
        db.wait_for_background();
        want[1] = 0;
        assert_eq!(unsorted_tables(&env), want);
        it.seek(b"").unwrap();
        let mut got = Model::new();
        while it.valid() {
            got.insert(it.key().to_vec(), it.value().to_vec());
            it.next().unwrap();
        }
        assert_eq!(got, model);
        check_scan(&db, &model, b"", None, 5000);
        assert_eq!(db.partition_count(), parts, "the fill must not split");

        // Back to empty UnsortedStores for the next mode.
        db.compact_all().unwrap();
    }
}

/// With no scans, the background backstop merges a partition's tables once
/// writers would start braking on their count, long before the byte limit
/// would: writers never hard-stop on the table count.
#[test]
fn background_backstop_keeps_write_only_runs_from_stopping() {
    let o = UniKvOptions {
        unsorted_limit_bytes: 64 * UniKvOptions::small_for_tests().write_buffer_size as u64,
        enable_partitioning: false,
        // Only the table count may stop a writer.
        stop_sealed_memtables: 1000,
        ..opts(2)
    };
    let db = UniKv::open(MemEnv::shared(), "/db", o).unwrap();
    let mut model = Model::new();
    for i in 0..1500u32 {
        let v = value(i, 1, 64);
        db.put(&key(i % 1000), &v).unwrap();
        model.insert(key(i % 1000), v);
    }
    db.wait_for_background();
    let stats = db.metrics();
    assert!(stats.flushes.value() >= 12);
    // 1500 puts stay far below the byte limit: every merge is the
    // backstop's.
    assert!(stats.merges.value() > 0, "the backstop never fired");
    assert_eq!(stats.stall_stops.value(), 0);
    for (k, v) in model.iter().step_by(37) {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
    }
}
