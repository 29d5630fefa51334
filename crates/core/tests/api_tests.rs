//! API-surface tests: write batches, bounded scans, and concurrent access.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use unikv::{UniKv, UniKvOptions, WriteBatch};
use unikv_env::fault::FaultInjectionEnv;
use unikv_env::mem::MemEnv;
use unikv_workload::{format_key, make_value};

fn open_small() -> UniKv {
    UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap()
}

#[test]
fn write_batch_applies_atomically_in_order() {
    let db = open_small();
    db.put(b"a", b"old").unwrap();
    let mut b = WriteBatch::new();
    b.put(b"a".to_vec(), b"new".to_vec())
        .put(b"b".to_vec(), b"1".to_vec())
        .delete(b"a".to_vec())
        .put(b"c".to_vec(), b"2".to_vec());
    db.write_batch(&b).unwrap();
    // Later ops in the batch shadow earlier ones.
    assert_eq!(db.get(b"a").unwrap(), None);
    assert_eq!(db.get(b"b").unwrap(), Some(b"1".to_vec()));
    assert_eq!(db.get(b"c").unwrap(), Some(b"2".to_vec()));
}

#[test]
fn empty_and_invalid_batches() {
    let db = open_small();
    db.write_batch(&WriteBatch::new()).unwrap();
    let mut bad = WriteBatch::new();
    bad.put(Vec::new(), b"x".to_vec());
    assert!(db.write_batch(&bad).is_err());
}

#[test]
fn write_batch_spans_partitions_and_survives_crash() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let opts = UniKvOptions {
        sync_writes: true,
        ..UniKvOptions::small_for_tests()
    };
    {
        let db = UniKv::open(fault.clone() as Arc<_>, "/db", opts.clone()).unwrap();
        // Force splits so later batches span multiple partitions.
        for i in 0..4_000u64 {
            db.put(&format_key(i), &make_value(i, 0, 100)).unwrap();
        }
        assert!(db.partition_count() >= 2);
        let mut b = WriteBatch::new();
        for i in (0..4_000u64).step_by(500) {
            b.put(format_key(i), make_value(i, 7, 64));
        }
        db.write_batch(&b).unwrap();
    }
    fault.crash().unwrap();
    let db = UniKv::open(fault as Arc<_>, "/db", opts).unwrap();
    for i in (0..4_000u64).step_by(500) {
        assert_eq!(
            db.get(&format_key(i)).unwrap(),
            Some(make_value(i, 7, 64)),
            "batched write to key {i} lost"
        );
    }
}

#[test]
fn batched_and_individual_writes_interleave() {
    let db = open_small();
    for round in 0..10u64 {
        let mut b = WriteBatch::new();
        for i in 0..50u64 {
            b.put(format_key(round * 50 + i), make_value(round, i, 80));
        }
        db.write_batch(&b).unwrap();
        db.put(&format_key(round), b"override").unwrap();
    }
    assert_eq!(db.get(&format_key(3)).unwrap(), Some(b"override".to_vec()));
    assert_eq!(db.scan(b"", 10_000).unwrap().len(), 500);
}

#[test]
fn scan_range_bounds() {
    let db = open_small();
    for i in 0..500u64 {
        db.put(&format_key(i), &make_value(i, 0, 40)).unwrap();
    }
    // Bounded below and above.
    let items = db
        .scan_range(&format_key(100), Some(&format_key(110)), 1000)
        .unwrap();
    assert_eq!(items.len(), 10);
    assert_eq!(items[0].key, format_key(100));
    assert_eq!(items[9].key, format_key(109));
    // Limit still applies inside the bound.
    let items = db
        .scan_range(&format_key(100), Some(&format_key(200)), 5)
        .unwrap();
    assert_eq!(items.len(), 5);
    // Inverted/empty ranges.
    assert!(db
        .scan_range(&format_key(10), Some(&format_key(10)), 10)
        .unwrap()
        .is_empty());
    assert!(db
        .scan_range(&format_key(20), Some(&format_key(10)), 10)
        .unwrap()
        .is_empty());
    // Unbounded equals scan().
    assert_eq!(
        db.scan_range(&format_key(490), None, 100).unwrap().len(),
        10
    );
}

#[test]
fn scan_range_across_partition_boundaries() {
    let db = open_small();
    for i in 0..4_000u64 {
        db.put(&format_key(i), &make_value(i, 0, 100)).unwrap();
    }
    assert!(db.partition_count() >= 2);
    let items = db
        .scan_range(&format_key(500), Some(&format_key(3_500)), 100_000)
        .unwrap();
    assert_eq!(items.len(), 3_000);
    assert!(items.windows(2).all(|w| w[0].key < w[1].key));
    // The upper bound ends the scan inside whichever partition holds it,
    // inner partitions included.
    for end in [50u64, 1_000, 2_000, 3_000] {
        let items = db
            .scan_range(&format_key(0), Some(&format_key(end)), 100_000)
            .unwrap();
        assert_eq!(items.len() as u64, end);
    }
}

#[test]
fn lsm_scan_range_matches() {
    use unikv_lsm::{Baseline, LsmDb, LsmOptions};
    let mut o = LsmOptions::baseline(Baseline::LevelDb);
    o.write_buffer_size = 8 << 10;
    o.table_size = 8 << 10;
    let db = LsmDb::open(MemEnv::shared(), "/l", o).unwrap();
    for i in 0..300u64 {
        db.put(&format_key(i), b"v").unwrap();
    }
    let items = db
        .scan_range(&format_key(50), Some(&format_key(60)), 100)
        .unwrap();
    assert_eq!(items.len(), 10);
    assert!(db
        .scan_range(&format_key(60), Some(&format_key(50)), 100)
        .unwrap()
        .is_empty());
}

#[test]
fn concurrent_readers_during_writes() {
    // UniKv is Sync: point reads and scans may run from many threads while
    // a writer mutates. Readers must always observe internally consistent
    // results (sorted scans, valid values).
    let db = Arc::new(open_small());
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                db.put(&format_key(i % 2_000), &make_value(i, 1, 64))
                    .unwrap();
                i += 1;
            }
            i
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut checked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = (r * 97 + checked) % 2_000;
                    let _ = db.get(&format_key(k)).unwrap();
                    if checked.is_multiple_of(50) {
                        let items = db.scan(&format_key(k), 20).unwrap();
                        assert!(items.windows(2).all(|w| w[0].key < w[1].key));
                    }
                    checked += 1;
                }
                checked
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(600));
    stop.store(true, Ordering::Relaxed);
    let written = writer.join().unwrap();
    let read: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(written > 0 && read > 0);
}
