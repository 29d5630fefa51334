//! The block cache under engine traffic, in inline and background mode:
//! a hash probe reads one record and bypasses the cache, maintenance reads
//! do not evict other partitions' hot blocks, a full merge or GC puts the
//! blocks it writes in the cache in place of the replaced tables' blocks,
//! up to the cache's capacity, and an aborted flush, merge or GC install
//! leaves nothing in the cache and the committed state served. With the
//! cache off, the block a get reads has the size of its tier's blocks.
//!
//! Background mode flushes and merges on a worker thread, so these tests
//! wait for the queue to drain before they count; they are part of the CI
//! flake sweep.

mod gc_scenario;

use std::path::Path;
use std::sync::Arc;
use unikv::meta::read_manifest;
use unikv::{UniKv, UniKvOptions};
use unikv_env::mem::MemEnv;
use unikv_env::metrics::CountingEnv;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

fn value(i: u32, version: u32) -> Vec<u8> {
    format!("value-{i}-{version}-").repeat(4).into_bytes()
}

fn opts(background_jobs: usize) -> UniKvOptions {
    UniKvOptions {
        background_jobs,
        ..UniKvOptions::small_for_tests()
    }
}

fn counter(db: &UniKv, name: &str) -> u64 {
    db.metrics_snapshot().counters[name]
}

/// Bytes a table record adds to its user key and value: three varint32
/// lengths, the 8 B sequence/type tag and the inline-or-pointer tag.
const RECORD_FRAMING: u64 = 3 * 5 + 8 + 1;

/// Every get the UnsortedStore answers reads exactly one record from the
/// env: one `read_at` of the record's bytes plus its framing, never a
/// data block and never a cached block (records are not cached, and a
/// flush puts nothing in the cache). The read counts as a block read and
/// a record read, not as a cache lookup. Covers flush outputs, inline and
/// on a worker.
#[test]
fn hash_probes_read_one_record() {
    for background_jobs in [0, 2] {
        let env = CountingEnv::new(MemEnv::shared());
        let io = env.counters();
        let db = UniKv::open(env.clone(), "/db", opts(background_jobs)).unwrap();
        // One UnsortedStore table per flush, up to `scan_merge_limit`,
        // each below the memtable size and all below the merge trigger (a
        // scan would merge them).
        let limit = db.options().scan_merge_limit as u32;
        let per_table = db.options().write_buffer_size as u32 / 400;
        let keys: Vec<u32> = (0..limit * per_table).collect();
        for chunk in keys.chunks(per_table as usize) {
            for &i in chunk {
                db.put(&key(i), &record_value(i)).unwrap();
            }
            db.flush().unwrap();
        }
        db.wait_for_background();
        assert_eq!(counter(&db, "flushes"), limit as u64);
        assert_eq!(counter(&db, "merges"), 0);
        let lookups = counter(&db, "sst_cache_hits") + counter(&db, "sst_cache_misses");
        for &i in &keys {
            let (reads, bytes) = (io.random_reads(), io.bytes_read());
            let hits = counter(&db, "reads_hit_unsorted");
            let records = db
                .metrics_snapshot()
                .counters
                .get("sst_record_reads")
                .copied();
            assert_eq!(db.get(&key(i)).unwrap(), Some(record_value(i)));
            assert_eq!(counter(&db, "reads_hit_unsorted"), hits + 1);
            assert_eq!(
                io.random_reads(),
                reads + 1,
                "mode {background_jobs}: get of {i}"
            );
            let read = io.bytes_read() - bytes;
            let record = (key(i).len() + record_value(i).len()) as u64;
            assert!(
                record < read && read <= record + RECORD_FRAMING,
                "mode {background_jobs}: get of {i} read {read} B \
                 for a {record} B key and value"
            );
            assert_eq!(counter(&db, "sst_record_reads"), records.unwrap() + 1);
        }
        let now = counter(&db, "sst_cache_hits") + counter(&db, "sst_cache_misses");
        assert_eq!(now, lookups, "mode {background_jobs}: a get used the cache");
    }
}

/// A full merge in one partition reads all of that partition's tables
/// without filling the cache, and the blocks it writes enter on probation,
/// so the hot blocks of another partition stay cached. The cache holds a
/// few small blocks per shard, far less than the merge reads: under an LRU
/// that caches maintenance reads this fails.
#[test]
fn merge_leaves_other_partitions_hot_blocks_cached() {
    let small_cache = |background_jobs| UniKvOptions {
        block_size: 512,
        block_cache_bytes: 16 * 2048,
        ..opts(background_jobs)
    };
    let env = MemEnv::shared();
    {
        // Lay out several partitions with empty UnsortedStores, inline.
        let db = UniKv::open(env.clone(), "/db", small_cache(0)).unwrap();
        for i in 0..3000u32 {
            db.put(&key(i), &value(i, 0)).unwrap();
        }
        db.compact_all().unwrap();
    }
    for background_jobs in [0, 2] {
        let db = UniKv::open(env.clone(), "/db", small_cache(background_jobs)).unwrap();
        let bounds = db.partition_boundaries();
        assert!(bounds.len() >= 3, "expected at least three partitions");
        // Hot keys of the last partition, read twice: promoted.
        let hot: Vec<u32> = (2920..3000).step_by(20).collect();
        for _ in 0..2 {
            for &i in &hot {
                assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 0)));
            }
        }
        // Overwrite the first partition until a merge has run there.
        let merges = counter(&db, "merges");
        let mut version = 1;
        while counter(&db, "merges") == merges {
            for i in 0..200u32 {
                db.put(&key(i), &value(i, version)).unwrap();
            }
            db.wait_for_background();
            version += 1;
        }
        assert!(
            counter(&db, "sst_maint_block_reads") > 16,
            "the merge read little"
        );
        let reads = counter(&db, "sst_block_reads");
        for &i in &hot {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 0)));
        }
        assert_eq!(
            counter(&db, "sst_block_reads"),
            reads,
            "mode {background_jobs}: the merge evicted another partition's hot blocks"
        );
    }
}

/// A flush whose install fails at the commit point leaves nothing in the
/// cache: no block belongs to a table the manifest never named.
#[test]
fn aborted_flush_install_leaves_no_admitted_blocks() {
    for background_jobs in [0, 2] {
        let db = UniKv::open(MemEnv::shared(), "/db", opts(background_jobs)).unwrap();
        db.sync_points().arm(Arc::new(|name| match name {
            "flush:commit" => Err(unikv_common::Error::internal("injected at flush:commit")),
            _ => Ok(()),
        }));
        // Enough puts to fill one memtable: inline, the put that fills it
        // flushes and fails; in background mode a worker's flush fails.
        let n = db.options().write_buffer_size as u32 / 40;
        let mut failed = false;
        for i in 0..n {
            failed |= db.put(&key(i), &value(i, 0)).is_err();
        }
        failed |= db.flush().is_err();
        db.wait_for_background();
        assert!(failed || db.background_error().is_some() || counter(&db, "maint_jobs_failed") > 0);
        assert_eq!(counter(&db, "sst_block_reads"), 0, "nothing read a block");
        assert_eq!(
            db.block_cache_bytes(),
            0,
            "mode {background_jobs}: an aborted flush left blocks in the cache"
        );
        db.sync_points().disarm();
    }
}

/// Keys of the rewrite tests: one partition, below the split limit.
const KEYS: u32 = 400;

/// Every 10th key: the keys the merge tests overwrite. Enough distinct
/// keys that the UnsortedStore reaches its byte limit, and the full merge,
/// before it holds the table count at which background mode's backstop
/// schedules that merge.
fn hot(i: u32) -> bool {
    i.is_multiple_of(10)
}

/// A one-partition database whose SortedStore holds `KEYS` keys at
/// version 0 and whose UnsortedStore is empty.
fn sorted_store_db(env: Arc<MemEnv>, opts: UniKvOptions) -> UniKv {
    let db = UniKv::open(env, "/db", opts).unwrap();
    for i in 0..KEYS {
        db.put(&key(i), &value(i, 0)).unwrap();
    }
    db.compact_all().unwrap();
    db.wait_for_background();
    assert_eq!(db.partition_count(), 1);
    db
}

/// Get every key in `keys`, checking its value; the `sst_block_reads`
/// the gets added.
fn block_reads_of_gets(db: &UniKv, keys: &[(Vec<u8>, Vec<u8>)]) -> u64 {
    let reads = counter(db, "sst_block_reads");
    for (k, v) in keys {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v), "get {k:?}");
    }
    counter(db, "sst_block_reads") - reads
}

/// The keys `sorted_store_db` wrote that `hot` excludes, with their values.
fn untouched() -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..KEYS)
        .filter(|&i| !hot(i))
        .map(|i| (key(i), value(i, 0)))
        .collect()
}

/// Overwrite the hot keys round after round until a full merge has run
/// or `stop` holds; the puts' first error, if one failed.
fn overwrite_hot_keys(db: &UniKv, stop: impl Fn(&UniKv) -> bool) -> Option<unikv_common::Error> {
    let merges = counter(db, "merges");
    for version in 1.. {
        for i in (0..KEYS).filter(|&i| hot(i)) {
            if let Err(e) = db.put(&key(i), &value(i, version)) {
                return Some(e);
            }
        }
        db.wait_for_background();
        if counter(db, "merges") > merges || stop(db) {
            return None;
        }
        assert!(version < 1000, "no merge ran");
    }
    unreachable!()
}

/// A full merge writes the SortedStore under new table numbers and evicts
/// the tables it replaces. The blocks it writes go in the cache in their
/// place, so gets of keys the merge did not change read no block.
#[test]
fn merge_keeps_replaced_blocks_cached() {
    for background_jobs in [0, 2] {
        let db = sorted_store_db(MemEnv::shared(), opts(background_jobs));
        let keys = untouched();
        block_reads_of_gets(&db, &keys);
        assert_eq!(block_reads_of_gets(&db, &keys), 0, "the cache is warm");
        let admits = counter(&db, "sst_cache_admits");
        assert!(overwrite_hot_keys(&db, |_| false).is_none());
        assert!(counter(&db, "sst_cache_admits") > admits);
        assert_eq!(
            block_reads_of_gets(&db, &keys),
            0,
            "mode {background_jobs}: the merge left the SortedStore cold"
        );
    }
}

/// With a cache smaller than the SortedStore, a merge keeps and admits
/// no more bytes than the cache holds, and the values stay right.
#[test]
fn merge_admits_at_most_the_cache_capacity() {
    // The bytes one full merge admits; 128 B blocks, so that the smallest
    // valid cache (16 shards of two blocks) is below what the merge writes.
    let merge_admits = |background_jobs, block_cache_bytes| {
        let db = sorted_store_db(
            MemEnv::shared(),
            UniKvOptions {
                block_size: 128,
                block_cache_bytes,
                ..opts(background_jobs)
            },
        );
        let (admitted, gcs) = (counter(&db, "sst_cache_admit_bytes"), counter(&db, "gcs"));
        assert!(overwrite_hot_keys(&db, |_| false).is_none());
        assert_eq!(counter(&db, "gcs"), gcs, "a GC ran too");
        assert!(db.block_cache_bytes() <= block_cache_bytes);
        block_reads_of_gets(&db, &untouched());
        counter(&db, "sst_cache_admit_bytes") - admitted
    };
    for background_jobs in [0, 2] {
        let capacity = 16 * 256;
        let whole = merge_admits(background_jobs, 256 << 10);
        let capped = merge_admits(background_jobs, capacity);
        assert!(
            0 < capped && capped <= capacity as u64 && (capacity as u64) < whole,
            "mode {background_jobs}: admitted {capped} B of {whole} B"
        );
    }
}

/// GC rewrites the SortedStore with new pointers; the blocks it writes go
/// in the cache in place of the replaced tables' blocks, so gets of the
/// keys the scenario's rounds wrote read no block.
#[test]
fn gc_keeps_replaced_blocks_cached() {
    for background_jobs in [0, 2] {
        let env = MemEnv::shared();
        let db = UniKv::open(
            env.clone(),
            gc_scenario::ROOT,
            gc_scenario::opts(background_jobs),
        )
        .unwrap();
        let mut s = gc_scenario::Scenario::build(&db, env.as_ref()).unwrap();
        let keys: Vec<(Vec<u8>, Vec<u8>)> = s.model.clone().into_iter().collect();
        block_reads_of_gets(&db, &keys);
        assert_eq!(block_reads_of_gets(&db, &keys), 0, "the cache is warm");
        let admits = counter(&db, "sst_cache_admits");
        s.trigger(&db).unwrap();
        assert_eq!(counter(&db, "gcs"), 1, "one GC ran");
        assert!(counter(&db, "sst_cache_admits") > admits);
        assert_eq!(
            block_reads_of_gets(&db, &keys),
            0,
            "mode {background_jobs}: the GC left the SortedStore cold"
        );
    }
}

/// A merge or GC whose install fails at its commit point publishes
/// nothing: the running database serves the table and log sets a reopen
/// would read, the cache does not grow, and every get is served from the
/// committed tables, whose blocks the gets before the failure cached (a
/// block of the uncommitted output was never cached, so reading one
/// would miss).
#[test]
fn aborted_merge_install_leaves_no_admitted_blocks() {
    let install_failed = |db: &UniKv| {
        db.background_error().is_some()
            || [
                "maint_jobs_failed",
                "maint_job_retries",
                "maint_jobs_quarantined",
            ]
            .iter()
            .any(|name| counter(db, name) > 0)
    };
    for background_jobs in [0, 2] {
        for point in ["merge:commit", "gc:commit"] {
            let env = MemEnv::shared();
            let (db, keys) = if point == "merge:commit" {
                (
                    sorted_store_db(env.clone(), opts(background_jobs)),
                    untouched(),
                )
            } else {
                let db = UniKv::open(
                    env.clone(),
                    gc_scenario::ROOT,
                    gc_scenario::opts(background_jobs),
                )
                .unwrap();
                let s = gc_scenario::Scenario::build(&db, env.as_ref()).unwrap();
                (db, s.model.into_iter().collect())
            };
            block_reads_of_gets(&db, &keys);
            let (cached, admits) = (db.block_cache_bytes(), counter(&db, "sst_cache_admits"));
            db.sync_points().arm(Arc::new(move |name| {
                if name == point {
                    Err(unikv_common::Error::internal(format!("injected at {name}")))
                } else {
                    Ok(())
                }
            }));
            let failed = if point == "merge:commit" {
                overwrite_hot_keys(&db, install_failed).is_some()
            } else {
                gc_scenario::Scenario::default().trigger(&db).is_err()
            };
            db.wait_for_background();
            let what = format!("mode {background_jobs}, {point}");
            assert!(failed || install_failed(&db), "{what}: nothing failed");
            assert_eq!(counter(&db, "sst_cache_admits"), admits, "{what}");
            assert!(db.block_cache_bytes() <= cached, "{what}: the cache grew");
            let committed = read_manifest(env.as_ref(), Path::new("/db"))
                .unwrap()
                .unwrap()
                .meta
                .partitions;
            assert_eq!(
                db.partition_metas(),
                committed,
                "{what}: the running database serves uncommitted tables or logs"
            );
            let misses = counter(&db, "sst_cache_misses");
            block_reads_of_gets(&db, &keys);
            assert_eq!(
                counter(&db, "sst_cache_misses"),
                misses,
                "{what}: a get read a block of the uncommitted output"
            );
            db.sync_points().disarm();
        }
    }
}

/// Bytes one table entry adds to its user key and value: the 8 B
/// sequence/type tag, the inline-or-pointer tag, three varint32 lengths
/// and a restart-array slot.
const ENTRY_OVERHEAD: usize = 8 + 1 + 3 * 5 + 4;

/// A value about the size of a benchmark record's.
fn record_value(i: u32) -> Vec<u8> {
    format!("record-{i:08}-").repeat(16).into_bytes()
}

/// Get every key in `keys` with the block cache off and check that each
/// is answered by `tier` after reading exactly one data block of at most
/// `max_bytes`. Returns the largest block read.
fn assert_one_small_block_per_get(db: &UniKv, keys: &[u32], tier: &str, max_bytes: u64) -> u64 {
    let mut largest = 0;
    for &i in keys {
        let (reads, bytes) = (
            counter(db, "sst_block_reads"),
            counter(db, "sst_block_read_bytes"),
        );
        let hits = counter(db, tier);
        assert_eq!(db.get(&key(i)).unwrap(), Some(record_value(i)));
        assert_eq!(
            counter(db, tier),
            hits + 1,
            "get of {i} not answered by {tier}"
        );
        assert_eq!(counter(db, "sst_block_reads"), reads + 1, "get of {i}");
        let read = counter(db, "sst_block_read_bytes") - bytes;
        assert!(
            read <= max_bytes,
            "get of {i} ({tier}) read a {read} B block, bound {max_bytes} B"
        );
        largest = largest.max(read);
    }
    largest
}

/// A hash-index probe reads a point-read-sized block: the tables the
/// hash index points into (flush outputs) are written with
/// `block_size / 4` data blocks, while SortedStore tables keep
/// `block_size`. With the cache off, every get reads its block from the
/// file, so `sst_block_read_bytes` measures the block a probe costs.
#[test]
fn hash_probes_read_quarter_size_blocks() {
    let opts = UniKvOptions {
        block_cache_bytes: 0,
        ..UniKvOptions::default()
    };
    let block_size = opts.block_size;
    let db = UniKv::open(MemEnv::shared(), "/db", opts).unwrap();
    let keys: Vec<u32> = (0..400).collect();
    let record = key(0).len() + record_value(0).len() + ENTRY_OVERHEAD;
    let hash_bound = (block_size / 4 + record) as u64;
    // One UnsortedStore table per flush, up to `scan_merge_limit`.
    let limit = db.options().scan_merge_limit;
    for chunk in keys.chunks(keys.len().div_ceil(limit)) {
        for &i in chunk {
            db.put(&key(i), &record_value(i)).unwrap();
        }
        db.flush().unwrap();
    }
    assert_eq!(counter(&db, "flushes"), limit as u64);
    assert_eq!(counter(&db, "merges"), 0);
    assert_one_small_block_per_get(&db, &keys, "reads_hit_unsorted", hash_bound);

    // A scan reads the partition, which holds `limit` tables: it merges
    // them into the SortedStore, whose blocks hold keys and value pointers
    // (at most 31 B) at `block_size`, not at the hash tier's size.
    assert_eq!(db.scan(&key(0), 10).unwrap().len(), 10);
    assert_eq!(counter(&db, "merges"), 1);
    let sorted_bound = (block_size + key(0).len() + 31 + ENTRY_OVERHEAD) as u64;
    let largest = assert_one_small_block_per_get(&db, &keys, "reads_hit_sorted", sorted_bound);
    assert!(
        largest > hash_bound,
        "SortedStore blocks of {largest} B: written at the hash tier's size"
    );
}
