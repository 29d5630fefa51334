//! Streaming-iterator tests: seek/next semantics, partition crossing,
//! snapshot stability under concurrent mutation, and agreement with
//! materialized scans and a reference model.

use std::collections::BTreeMap;
use unikv::{UniKv, UniKvOptions};
use unikv_env::mem::MemEnv;
use unikv_workload::{format_key, make_value};

fn loaded(n: u32, vs: usize) -> (UniKv, BTreeMap<Vec<u8>, Vec<u8>>) {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap();
    let mut model = BTreeMap::new();
    // Shuffled insert so tiers overlap; some deletes for tombstones.
    let mut s = 0x5a5au64;
    let mut order: Vec<u32> = (0..n).collect();
    for i in (1..order.len()).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    for i in order {
        let k = format_key(i as u64);
        let v = make_value(i as u64, 0, vs);
        db.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    for i in (0..n).step_by(13) {
        let k = format_key(i as u64);
        db.delete(&k).unwrap();
        model.remove(&k);
    }
    (db, model)
}

#[test]
fn iterator_matches_model_full_walk() {
    let (db, model) = loaded(2_000, 80);
    let mut it = db.iter().unwrap();
    it.seek(b"").unwrap();
    for (count, (k, v)) in model.iter().enumerate() {
        assert!(it.valid(), "iterator ended early at {count}");
        assert_eq!(it.key(), &k[..]);
        assert_eq!(it.value(), &v[..]);
        it.next().unwrap();
    }
    assert!(!it.valid(), "iterator has phantom entries");
}

#[test]
fn iterator_seek_matches_model_lower_bound() {
    let (db, model) = loaded(1_500, 60);
    for probe in [0u64, 1, 13, 500, 777, 1_499, 5_000] {
        let from = format_key(probe);
        let mut it = db.iter().unwrap();
        it.seek(&from).unwrap();
        match model.range(from.clone()..).next() {
            Some((k, v)) => {
                assert!(it.valid(), "probe {probe}");
                assert_eq!(it.key(), &k[..], "probe {probe}");
                assert_eq!(it.value(), &v[..], "probe {probe}");
            }
            None => assert!(!it.valid(), "probe {probe}"),
        }
    }
}

#[test]
fn iterator_crosses_partitions() {
    let (db, model) = loaded(4_000, 100);
    assert!(db.partition_count() >= 2, "need splits for this test");
    let mut it = db.iter().unwrap();
    it.seek(&format_key(0)).unwrap();
    let mut walked = 0usize;
    let mut prev: Option<Vec<u8>> = None;
    while it.valid() {
        if let Some(p) = &prev {
            assert!(p.as_slice() < it.key(), "ordering broke at {walked}");
        }
        prev = Some(it.key().to_vec());
        walked += 1;
        it.next().unwrap();
    }
    assert_eq!(walked, model.len());
}

#[test]
fn iterator_is_a_stable_snapshot() {
    let (db, mut model) = loaded(1_000, 60);
    // Empty the memtables, then put one entry for the iterator to start
    // on: a memtable cursor that starts past its memtable's end never moves
    // again, so only then do the writes below, newer than the snapshot,
    // reach the iterator.
    db.flush().unwrap();
    db.put(&format_key(0), b"zero").unwrap();
    model.insert(format_key(0), b"zero".to_vec());
    let mut it = db.iter().unwrap();
    it.seek(b"").unwrap();
    // Mutate heavily after iterator creation: delete every fifth key,
    // overwrite the rest, and force merges/GC/splits.
    for i in 0..1_000u64 {
        if i % 5 == 2 {
            db.delete(&format_key(i)).unwrap();
        } else {
            db.put(&format_key(i), b"MUTATED-AFTER-SNAPSHOT").unwrap();
        }
    }
    db.compact_all().unwrap();
    db.force_gc().unwrap();
    // The iterator still sees the pre-mutation state, deleted keys too.
    for (k, v) in &model {
        assert!(it.valid());
        assert_eq!(it.key(), &k[..]);
        assert_eq!(it.value(), &v[..], "snapshot leaked new data");
        it.next().unwrap();
    }
    assert!(!it.valid());
    // A fresh iterator sees the new state.
    let mut it = db.iter().unwrap();
    it.seek(&format_key(0)).unwrap();
    assert_eq!(it.value(), b"MUTATED-AFTER-SNAPSHOT");
    it.seek(&format_key(2)).unwrap();
    assert_eq!(it.key(), &format_key(3)[..]);
}

#[test]
fn iterator_agrees_with_materialized_scan() {
    let (db, _) = loaded(1_200, 70);
    let from = format_key(300);
    let items = db.scan(&from, 200).unwrap();
    let mut it = db.iter().unwrap();
    it.seek(&from).unwrap();
    for item in &items {
        assert!(it.valid());
        assert_eq!(it.key(), &item.key[..]);
        assert_eq!(it.value(), &item.value[..]);
        it.next().unwrap();
    }
}

#[test]
fn empty_database_iterator() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap();
    let mut it = db.iter().unwrap();
    it.seek(b"").unwrap();
    assert!(!it.valid());
    it.seek(b"anything").unwrap();
    assert!(!it.valid());
}

#[test]
fn lsm_iterator_basics() {
    use unikv_lsm::{Baseline, LsmDb, LsmOptions};
    let mut o = LsmOptions::baseline(Baseline::LevelDb);
    o.write_buffer_size = 8 << 10;
    o.table_size = 8 << 10;
    let db = LsmDb::open(MemEnv::shared(), "/l", o).unwrap();
    for i in 0..500u64 {
        db.put(&format_key(i), &make_value(i, 0, 50)).unwrap();
    }
    db.delete(&format_key(7)).unwrap();
    let walk = |db: &LsmDb| {
        let mut it = db.iter().unwrap();
        it.seek(&format_key(5), None).unwrap();
        let mut seen = Vec::new();
        while it.valid() && seen.len() < 5 {
            seen.push(it.key().to_vec());
            it.next(None).unwrap();
        }
        seen
    };
    let before = walk(&db);
    assert_eq!(
        before,
        vec![
            format_key(5),
            format_key(6),
            format_key(8), // 7 deleted
            format_key(9),
            format_key(10)
        ]
    );
    // Snapshot semantics: writes after iter() are invisible, deletes
    // (tombstones newer than the snapshot) included.
    let mut it = db.iter().unwrap();
    db.put(&format_key(9_999), b"new").unwrap();
    db.delete(&format_key(6)).unwrap();
    db.delete(&format_key(9)).unwrap();
    it.seek(&format_key(9_000), None).unwrap();
    assert!(!it.valid());
    it.seek(&format_key(5), None).unwrap();
    for k in &before {
        assert_eq!(it.key(), &k[..]);
        it.next(None).unwrap();
    }
    // A fresh iterator sees the deletes.
    assert_eq!(
        walk(&db)[..3],
        [format_key(5), format_key(8), format_key(10)]
    );
}
