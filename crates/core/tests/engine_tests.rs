//! End-to-end tests of the UniKV engine: correctness across flushes,
//! merges, GC, splits, scans, ablations, and recovery.

use std::collections::BTreeMap;
use std::sync::Arc;
use unikv::{UniKv, UniKvOptions, WriteBatch};
use unikv_env::fault::FaultInjectionEnv;
use unikv_env::mem::MemEnv;

fn open(env: Arc<MemEnv>, opts: UniKvOptions) -> UniKv {
    UniKv::open(env, "/db", opts).unwrap()
}

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

fn value(i: u32, len: usize) -> Vec<u8> {
    let unit = format!("value-{i}-").into_bytes();
    let reps = len / unit.len() + 2;
    unit.repeat(reps)[..len].to_vec()
}

#[test]
fn basic_put_get_delete() {
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    db.put(b"alpha", b"1").unwrap();
    db.put(b"beta", b"2").unwrap();
    assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
    assert_eq!(db.get(b"beta").unwrap(), Some(b"2".to_vec()));
    assert_eq!(db.get(b"gamma").unwrap(), None);
    db.delete(b"alpha").unwrap();
    assert_eq!(db.get(b"alpha").unwrap(), None);
    db.put(b"alpha", b"3").unwrap();
    assert_eq!(db.get(b"alpha").unwrap(), Some(b"3".to_vec()));
}

#[test]
fn empty_key_rejected() {
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    assert!(db.put(b"", b"v").is_err());
}

#[test]
fn model_check_random_workload() {
    // Mixed puts/deletes against a BTreeMap reference model, with sizes
    // chosen so flushes, scan merges, full merges, GC, and splits all fire.
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut rng: u64 = 0x853c_49e6_748f_ea9b;
    let mut next = |m: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % m
    };
    for _ in 0..6000 {
        let k = key(next(700) as u32);
        match next(10) {
            0 => {
                db.delete(&k).unwrap();
                model.remove(&k);
            }
            _ => {
                let v = value(next(1000) as u32, 32 + next(96) as usize);
                db.put(&k, &v).unwrap();
                model.insert(k, v);
            }
        }
    }
    // Engine exercised every mechanism.
    let stats = db.metrics();
    assert!(stats.flushes.value() > 0, "no flushes");
    assert!(stats.merges.value() > 0, "no merges");
    // (splits are exercised by split_produces_disjoint_partitions — this
    // workload's live set is intentionally smaller than the split limit)

    // Point lookups agree with the model.
    for i in 0..700u32 {
        let k = key(i);
        assert_eq!(db.get(&k).unwrap(), model.get(&k).cloned(), "key {i}");
    }
    // Scans agree with the model.
    for start in [0u32, 13, 350, 699] {
        let from = key(start);
        let got = db.scan(&from, 25).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> = model
            .range(from.clone()..)
            .take(25)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(got.len(), expect.len(), "scan from {start}");
        for (g, (ek, ev)) in got.iter().zip(&expect) {
            assert_eq!(&g.key, ek);
            assert_eq!(&g.value, ev);
        }
    }

    // Metrics invariants: the tier-resolution counters partition `reads`
    // exactly, and histogram sample counts equal op counts.
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counters["writes"], 6000);
    assert_eq!(snap.histograms["put_latency_us"].count, 6000);
    assert_eq!(snap.counters["reads"], 700);
    assert_eq!(snap.histograms["get_latency_us"].count, 700);
    assert_eq!(snap.counters["scans"], 4);
    assert_eq!(snap.histograms["scan_latency_us"].count, 4);
    assert_eq!(
        snap.counters["reads"],
        snap.counters["reads_hit_memtable"]
            + snap.counters["reads_hit_unsorted"]
            + snap.counters["reads_hit_sorted"]
            + snap.counters["reads_miss"]
    );
}

#[test]
fn values_survive_merge_into_sorted_store() {
    let env = MemEnv::shared();
    let db = open(env, UniKvOptions::small_for_tests());
    let n = 600u32;
    for i in 0..n {
        db.put(&key(i), &value(i, 64)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    assert!(db.metrics().merges.value() > 0);
    for i in 0..n {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 64)), "key {i}");
    }
}

#[test]
fn partial_kv_separation_stores_pointers() {
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    for i in 0..400u32 {
        db.put(&key(i), &value(i, 128)).unwrap();
    }
    db.compact_all().unwrap();
    // After merging, values live in logs: logical bytes include live
    // value bytes and reads still work.
    assert!(db.logical_bytes() > 0);
    for i in (0..400).step_by(37) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 128)));
    }
    // Scans resolve pointers (run fetch from the value logs).
    let items = db.scan(&key(0), 50).unwrap();
    assert_eq!(items.len(), 50);
    for (j, item) in items.iter().enumerate() {
        assert_eq!(item.key, key(j as u32));
        assert_eq!(item.value, value(j as u32, 128));
    }
}

#[test]
fn gc_reclaims_dead_values() {
    let env = MemEnv::shared();
    let db = open(env.clone(), UniKvOptions::small_for_tests());
    // Write the same keys repeatedly: old versions become garbage in logs.
    for round in 0..8u32 {
        for i in 0..200u32 {
            db.put(&key(i), &value(i * 31 + round, 100)).unwrap();
        }
        db.compact_all().unwrap();
    }
    let before = env.total_bytes();
    db.force_gc().unwrap();
    let after = env.total_bytes();
    assert!(db.metrics().gcs.value() > 0, "GC never ran");
    assert!(
        after < before,
        "GC did not reclaim space: {before} -> {after}"
    );
    for i in (0..200).step_by(17) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i * 31 + 7, 100)));
    }
}

#[test]
fn split_produces_disjoint_partitions() {
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    for i in 0..3000u32 {
        db.put(&key(i), &value(i, 64)).unwrap();
    }
    assert!(db.partition_count() >= 2, "expected at least one split");
    let bounds = db.partition_boundaries();
    // Boundaries strictly increasing, first is -infinity (empty).
    assert!(bounds[0].is_empty());
    for w in bounds.windows(2) {
        assert!(w[0] < w[1], "boundaries not increasing");
    }
    // All data still readable across partitions.
    for i in (0..3000).step_by(71) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 64)), "key {i}");
    }
    // A scan crossing a partition boundary is seamless and sorted.
    let boundary = bounds[1].clone();
    let start = std::str::from_utf8(&boundary[4..])
        .unwrap()
        .trim_start_matches('0')
        .parse::<u32>()
        .unwrap_or(0)
        .saturating_sub(5);
    let items = db.scan(&key(start), 10).unwrap();
    assert_eq!(items.len(), 10);
    for w in items.windows(2) {
        assert!(w[0].key < w[1].key);
    }
}

#[test]
fn recovery_from_clean_shutdown() {
    let env = MemEnv::shared();
    {
        let db = open(env.clone(), UniKvOptions::small_for_tests());
        for i in 0..1500u32 {
            db.put(&key(i), &value(i, 48)).unwrap();
        }
        db.delete(&key(3)).unwrap();
    }
    let db = open(env, UniKvOptions::small_for_tests());
    assert_eq!(db.get(&key(0)).unwrap(), Some(value(0, 48)));
    assert_eq!(db.get(&key(1499)).unwrap(), Some(value(1499, 48)));
    assert_eq!(db.get(&key(3)).unwrap(), None);
    // Writes continue with the recovered sequence.
    db.put(&key(3), b"back").unwrap();
    assert_eq!(db.get(&key(3)).unwrap(), Some(b"back".to_vec()));
}

#[test]
fn recovery_reopens_after_splits_and_gc() {
    let env = MemEnv::shared();
    {
        let db = open(env.clone(), UniKvOptions::small_for_tests());
        for round in 0..3u32 {
            for i in 0..1200u32 {
                db.put(&key(i), &value(i + round, 64)).unwrap();
            }
        }
        db.force_gc().unwrap();
        assert!(db.partition_count() >= 2);
    }
    let db = open(env, UniKvOptions::small_for_tests());
    assert!(db.partition_count() >= 2);
    for i in (0..1200).step_by(53) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i + 2, 64)), "key {i}");
    }
    let items = db.scan(&key(0), 30).unwrap();
    assert_eq!(items.len(), 30);
}

#[test]
fn crash_recovery_preserves_synced_writes() {
    let mem = MemEnv::shared();
    let fault = FaultInjectionEnv::new(mem);
    {
        let mut opts = UniKvOptions::small_for_tests();
        opts.sync_writes = true;
        let db = UniKv::open(fault.clone(), "/db", opts).unwrap();
        for i in 0..800u32 {
            db.put(&key(i), &value(i, 40)).unwrap();
        }
        // No clean shutdown: simulate power failure.
    }
    fault.crash().unwrap();
    let db = UniKv::open(fault.clone(), "/db", UniKvOptions::small_for_tests()).unwrap();
    for i in (0..800).step_by(29) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 40)), "key {i}");
    }
}

#[test]
fn crash_without_sync_loses_only_memtable_tail() {
    let mem = MemEnv::shared();
    let fault = FaultInjectionEnv::new(mem);
    {
        let db = UniKv::open(fault.clone(), "/db", UniKvOptions::small_for_tests()).unwrap();
        for i in 0..800u32 {
            db.put(&key(i), &value(i, 40)).unwrap();
        }
    }
    fault.crash().unwrap();
    let db = UniKv::open(fault.clone(), "/db", UniKvOptions::small_for_tests()).unwrap();
    // Everything that reached a flushed table (committed via the manifest) must be
    // present; only unsynced WAL tail may be missing. Count survivors.
    let mut survivors = 0;
    for i in 0..800u32 {
        if db.get(&key(i)).unwrap() == Some(value(i, 40)) {
            survivors += 1;
        }
    }
    // With a 4 KiB write buffer and ~50-byte entries, the unsynced tail is
    // at most one memtable worth (~80 entries).
    assert!(survivors >= 600, "too much data lost: {survivors}/800");
}

#[test]
fn ablation_no_hash_index_still_correct() {
    let mut opts = UniKvOptions::small_for_tests();
    opts.enable_hash_index = false;
    let db = open(MemEnv::shared(), opts);
    for i in 0..900u32 {
        db.put(&key(i), &value(i, 50)).unwrap();
    }
    for i in (0..900).step_by(41) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 50)));
    }
    assert_eq!(db.index_memory_bytes(), 0);
}

#[test]
fn ablation_no_kv_separation_still_correct() {
    let mut opts = UniKvOptions::small_for_tests();
    opts.enable_kv_separation = false;
    let db = open(MemEnv::shared(), opts);
    for i in 0..900u32 {
        db.put(&key(i), &value(i, 50)).unwrap();
    }
    db.compact_all().unwrap();
    for i in (0..900).step_by(41) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 50)));
    }
    let items = db.scan(&key(100), 20).unwrap();
    assert_eq!(items.len(), 20);
}

#[test]
fn ablation_no_partitioning_stays_single() {
    let mut opts = UniKvOptions::small_for_tests();
    opts.enable_partitioning = false;
    let db = open(MemEnv::shared(), opts);
    for i in 0..3000u32 {
        db.put(&key(i), &value(i, 64)).unwrap();
    }
    assert_eq!(db.partition_count(), 1);
    for i in (0..3000).step_by(97) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 64)));
    }
}

#[test]
fn ablation_no_scan_optimization_still_correct() {
    // The scan reads a partition holding `scan_merge_limit` UnsortedStore
    // tables: with the optimization on it merges the partition, off it
    // must not.
    for enabled in [true, false] {
        let mut opts = UniKvOptions::small_for_tests();
        opts.enable_scan_optimization = enabled;
        let limit = opts.scan_merge_limit;
        let db = open(MemEnv::shared(), opts);
        for i in 0..900u32 {
            db.put(&key(i), &value(i, 50)).unwrap();
        }
        db.compact_all().unwrap();
        for round in 0..limit {
            for i in (0..100u32).step_by(7) {
                db.put(&key(i), &value(i + round as u32, 50)).unwrap();
            }
            db.flush().unwrap();
        }
        let merges = db.metrics().merges.value();
        let items = db.scan(&key(50), 40).unwrap();
        assert_eq!(items.len(), 40);
        assert_eq!(items[0].key, key(50));
        assert_eq!(items[6].value, value(56 + limit as u32 - 1, 50));
        assert_eq!(db.metrics().merges.value(), merges + u64::from(enabled));
    }
}

#[test]
fn overwrites_return_newest_across_tiers() {
    // One key overwritten in every tier: SortedStore, UnsortedStore,
    // memtable — newest must always win.
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    db.put(b"pivot", b"oldest").unwrap();
    for i in 0..500u32 {
        db.put(&key(i), &value(i, 64)).unwrap();
    }
    db.compact_all().unwrap(); // "oldest" now in SortedStore
    db.put(b"pivot", b"middle").unwrap();
    db.flush().unwrap(); // "middle" now in UnsortedStore
    assert_eq!(db.get(b"pivot").unwrap(), Some(b"middle".to_vec()));
    db.put(b"pivot", b"newest").unwrap(); // memtable
    assert_eq!(db.get(b"pivot").unwrap(), Some(b"newest".to_vec()));
    // Scan sees the newest too.
    let items = db.scan(b"pivot", 1).unwrap();
    assert_eq!(items[0].value, b"newest".to_vec());
}

#[test]
fn deletes_shadow_sorted_store_values() {
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    for i in 0..300u32 {
        db.put(&key(i), &value(i, 64)).unwrap();
    }
    db.compact_all().unwrap();
    db.delete(&key(5)).unwrap();
    db.flush().unwrap(); // tombstone now in UnsortedStore
    assert_eq!(db.get(&key(5)).unwrap(), None);
    let items = db.scan(&key(4), 3).unwrap();
    assert_eq!(items[0].key, key(4));
    assert_eq!(items[1].key, key(6), "deleted key must not appear in scans");
    // After a full merge the tombstone and value are both gone.
    db.compact_all().unwrap();
    assert_eq!(db.get(&key(5)).unwrap(), None);
}

#[test]
fn scan_with_limit_zero_and_past_end() {
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    db.put(b"a", b"1").unwrap();
    assert!(db.scan(b"a", 0).unwrap().is_empty());
    assert!(db.scan(b"zzz", 10).unwrap().is_empty());
}

#[test]
fn large_values_roundtrip() {
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    let big = vec![0xabu8; 64 << 10]; // larger than write buffer
    db.put(b"big", &big).unwrap();
    assert_eq!(db.get(b"big").unwrap(), Some(big.clone()));
    db.compact_all().unwrap();
    assert_eq!(db.get(b"big").unwrap(), Some(big));
}

#[test]
fn index_memory_stays_bounded() {
    // The hash index only covers the UnsortedStore; merges reset it, so
    // its footprint is bounded by the unsorted limit, not the data size.
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    for i in 0..4000u32 {
        db.put(&key(i), &value(i, 64)).unwrap();
    }
    let idx_bytes = db.index_memory_bytes();
    let data_bytes = db.logical_bytes();
    assert!(
        (idx_bytes as f64) < 0.05 * data_bytes as f64,
        "index {idx_bytes} B too large vs data {data_bytes} B"
    );
}

#[test]
fn reopen_with_different_ablation_flags() {
    // Feature switches affect future behaviour only: a store built with
    // everything enabled must stay fully readable when reopened with
    // features disabled (and vice versa).
    let env = MemEnv::shared();
    {
        let db = open(env.clone(), UniKvOptions::small_for_tests());
        for i in 0..3000u32 {
            db.put(&key(i), &value(i, 64)).unwrap();
        }
        assert!(db.partition_count() >= 2);
    }
    let mut opts = UniKvOptions::small_for_tests();
    opts.enable_partitioning = false;
    opts.enable_hash_index = false;
    opts.enable_scan_optimization = false;
    let db = open(env.clone(), opts);
    assert!(db.partition_count() >= 2, "existing partitions preserved");
    for i in (0..3000).step_by(101) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 64)), "key {i}");
    }
    drop(db);
    // And back to full features.
    let db = open(env, UniKvOptions::small_for_tests());
    assert_eq!(db.scan(&key(0), 20).unwrap().len(), 20);
}

#[test]
fn gc_preserves_data_after_partition_splits() {
    // Lazy value split: children share parent logs until GC rewrites
    // them. Force that whole lifecycle and verify nothing is lost.
    let env = MemEnv::shared();
    let db = open(env.clone(), UniKvOptions::small_for_tests());
    let n = 3000u32;
    for i in 0..n {
        db.put(&key(i), &value(i, 80)).unwrap();
    }
    assert!(db.partition_count() >= 2);
    db.force_gc().unwrap(); // un-lazies every shared log
    for i in (0..n).step_by(73) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 80)), "key {i}");
    }
    // After GC, no partition may still reference another's logs; a second
    // GC pass must be a no-op for correctness.
    db.force_gc().unwrap();
    let items = db.scan(&key(0), n as usize).unwrap();
    assert_eq!(items.len(), n as usize);
}

#[test]
fn sequential_load_then_backward_probe() {
    // Sequential loads give UnsortedStore tables disjoint ranges — the
    // path where range pruning, not the hash index, resolves lookups.
    let db = open(MemEnv::shared(), UniKvOptions::small_for_tests());
    for i in 0..2000u32 {
        db.put(&key(i), &value(i, 64)).unwrap();
    }
    for i in (0..2000).rev().step_by(37) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 64)));
    }
}

/// `flush()` runs the merge and split triggers of every partition, also
/// when a split shifts the partitions after it. Each round puts less than
/// a write buffer into each end of the key space, so only `flush()`
/// flushes it, and the flushed tables make the partitions due.
#[test]
fn flush_leaves_no_partition_due_a_merge_or_split() {
    let opts = UniKvOptions {
        write_buffer_size: 64 << 10,
        unsorted_limit_bytes: 64 << 10,
        partition_size_limit: 128 << 10,
        ..UniKvOptions::small_for_tests()
    };
    let db = open(MemEnv::shared(), opts.clone());
    let due = |db: &UniKv| -> Vec<u32> {
        let metas = db.partition_metas();
        let due = metas.iter().filter(|m| {
            let unsorted: u64 = m.unsorted.iter().map(|t| t.size).sum();
            let sorted: u64 = m.sorted.iter().map(|t| t.size).sum();
            unsorted >= opts.unsorted_limit_bytes
                || unsorted + sorted + m.live_value_bytes > opts.partition_size_limit
        });
        due.map(|m| m.id).collect()
    };
    let mut i = 0u32;
    while db.partition_count() < 2 {
        db.put(format!("b{i:06}").as_bytes(), &value(i, 200))
            .unwrap();
        i += 1;
    }
    for round in 0..4u32 {
        for j in 0..150u32 {
            for prefix in ["a", "c"] {
                let k = format!("{prefix}{round}{j:05}");
                db.put(k.as_bytes(), &value(j, 200)).unwrap();
            }
        }
        let before = db.partition_count();
        db.flush().unwrap();
        let due = due(&db);
        assert!(
            due.is_empty(),
            "round {round} ({before} -> {} partitions): {due:?} still due after flush()",
            db.partition_count()
        );
    }
    assert!(db.partition_count() > 2, "no flush() split a partition");
}

/// A batch flushes every partition whose memtable it fills, also when an
/// inline split shifts the partitions after the one it splits. Each batch
/// puts more than a write buffer into each end of the key space.
#[test]
fn write_batch_flushes_every_partition_it_fills() {
    let opts = UniKvOptions {
        write_buffer_size: 16 << 10,
        partition_size_limit: 96 << 10,
        ..UniKvOptions::small_for_tests()
    };
    let db = open(MemEnv::shared(), opts);
    let mut i = 0u32;
    while db.partition_count() < 2 {
        db.put(format!("b{i:06}").as_bytes(), &value(i, 200))
            .unwrap();
        i += 1;
    }
    let flushes = |db: &UniKv| db.metrics_snapshot().counters["flushes"];
    let mut split = false;
    for round in 0..6u32 {
        let mut batch = WriteBatch::new();
        for j in 0..100u32 {
            for prefix in ["a", "c"] {
                batch.put(format!("{prefix}{round}{j:05}"), value(j, 200));
            }
        }
        let (before, parts) = (flushes(&db), db.partition_count());
        db.write_batch(&batch).unwrap();
        split |= db.partition_count() > parts;
        assert!(
            flushes(&db) - before >= 2,
            "round {round} ({parts} -> {} partitions): the batch flushed {} partitions",
            db.partition_count(),
            flushes(&db) - before
        );
    }
    assert!(split, "no batch split a partition");
}

/// Every file under the partition directories, and no other, is one the
/// served partitions name: each partition's tables and WALs in its own
/// directory, and each value log a partition names in its owner's
/// directory. A commit deletes exactly the files it stops naming, so this
/// holds after every step of a seeded run of puts, flushes, merges, GCs
/// and splits, and after a reopen, inline and, once the workers are idle,
/// in background mode.
#[test]
fn partition_directories_hold_exactly_the_named_files() {
    use std::collections::BTreeSet;
    use std::path::{Path, PathBuf};
    use unikv::resolver::partition_dir;
    use unikv_env::Env;
    use unikv_lsm::filenames::{table_file, wal_file};
    use unikv_vlog::vlog_file_name;

    let root = Path::new("/db");
    for background_jobs in [0, 2] {
        let env = MemEnv::shared();
        let opts = UniKvOptions {
            background_jobs,
            ..UniKvOptions::small_for_tests()
        };
        let check = |db: &UniKv, step: &str| {
            db.wait_for_background();
            let mut named = BTreeSet::new();
            for m in db.partition_metas() {
                let dir = partition_dir(root, m.id);
                named.extend(m.tables().map(|t| table_file(&dir, t.number)));
                named.extend(m.wals().map(|w| wal_file(&dir, w)));
                for log in m.logs() {
                    let dir = partition_dir(root, log.partition);
                    named.insert(dir.join(vlog_file_name(log.log_number)));
                }
            }
            let mut on_disk: BTreeSet<PathBuf> = BTreeSet::new();
            for name in env.list_dir(root).unwrap() {
                let name = name.to_str().unwrap();
                if name
                    .strip_prefix('p')
                    .is_some_and(|id| id.parse::<u32>().is_ok())
                {
                    let dir = root.join(name);
                    on_disk.extend(env.list_dir(&dir).unwrap().iter().map(|f| dir.join(f)));
                }
            }
            let stray: Vec<_> = on_disk.difference(&named).collect();
            let missing: Vec<_> = named.difference(&on_disk).collect();
            assert!(
                stray.is_empty() && missing.is_empty(),
                "mode {background_jobs}, after {step}: unnamed files {stray:?}, \
                 missing files {missing:?}"
            );
        };
        let mut db = open(env.clone(), opts.clone());
        let mut rng: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = |m: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % m
        };
        for round in 0..4u32 {
            for chunk in 0..4u32 {
                for _ in 0..600 {
                    let i = next(6000) as u32;
                    db.put(&key(i), &value(i + round, 64 + next(192) as usize))
                        .unwrap();
                }
                check(&db, &format!("round {round}, puts {chunk}"));
            }
            if round == 2 {
                // Every kind of op ran (the counters restart at the reopen),
                // and split children still share their parents' logs.
                let counters = db.metrics_snapshot().counters;
                for op in ["flushes", "merges", "gcs", "splits"] {
                    assert!(counters[op] > 0, "mode {background_jobs}: no {op} ran");
                }
                let metas = db.partition_metas();
                assert!(metas.iter().any(|m| !m.inherited_logs.is_empty()));
                // The memtables hold writes, so the reopen replays WALs.
                drop(db);
                db = open(env.clone(), opts.clone());
                check(&db, "reopen");
            }
            db.flush().unwrap();
            check(&db, &format!("round {round}, flush"));
            db.compact_all().unwrap();
            check(&db, &format!("round {round}, compact_all"));
            db.force_gc().unwrap();
            check(&db, &format!("round {round}, force_gc"));
        }
        assert!(
            db.partition_count() >= 8,
            "mode {background_jobs}: few splits"
        );
    }
}
