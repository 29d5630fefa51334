//! The block cache under engine traffic, in inline and background mode:
//! a flush admits its own blocks, maintenance neither fills the cache nor
//! evicts other partitions' hot blocks, and an aborted flush install
//! leaves no admitted block behind.
//!
//! Background mode flushes and merges on a worker thread, so these tests
//! wait for the queue to drain before they count; they are part of the CI
//! flake sweep.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use unikv::{UniKv, UniKvOptions};
use unikv_env::mem::MemEnv;

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

fn stat(db: &UniKv, name: &str) -> u64 {
    let stats = db.stats().snapshot();
    stats.into_iter().find(|(n, _)| *n == name).unwrap().1
}

/// The first get of every key of just-flushed tables is answered from
/// the blocks the flush admitted: no block is read from a file.
#[test]
fn first_get_after_flush_reads_no_block() {
    for background_jobs in [0, 2] {
        let db = UniKv::open(MemEnv::shared(), "/db", opts(background_jobs)).unwrap();
        // A few memtables, flushed by puts (on a worker in background
        // mode), well below both merge triggers.
        let n = db.options().write_buffer_size as u32 / 40;
        for i in 0..n {
            db.put(&key(i), &value(i, 0)).unwrap();
        }
        db.wait_for_background();
        let stats = db.stats();
        assert!(stats.flushes.load(Ordering::Relaxed) >= 1);
        assert_eq!(stats.merges.load(Ordering::Relaxed), 0);
        assert_eq!(stats.scan_merges.load(Ordering::Relaxed), 0);
        let reads = counter(&db, "sst_block_reads");
        for i in 0..n {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 0)));
        }
        assert!(
            counter(&db, "reads_hit_unsorted") > 0,
            "no get reached a table"
        );
        assert_eq!(
            counter(&db, "sst_block_reads"),
            reads,
            "mode {background_jobs}: a get of a flushed key read a block"
        );
    }
}

/// A full merge in one partition reads all of that partition's tables
/// without filling the cache, so the hot blocks of another partition stay
/// cached. The cache holds a few small blocks per shard, far less than the
/// merge reads: under an LRU that caches maintenance reads this fails.
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
        let merges = db.stats().merges.load(Ordering::Relaxed);
        let mut version = 1;
        while db.stats().merges.load(Ordering::Relaxed) == merges {
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

/// A flush whose install fails at the commit point evicts the blocks it
/// admitted: nothing in the cache belongs to a table the manifest never named.
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
        assert!(failed || db.background_error().is_some() || stat(&db, "maint_jobs_failed") > 0);
        assert_eq!(counter(&db, "sst_block_reads"), 0, "nothing read a block");
        assert_eq!(
            db.block_cache_bytes(),
            0,
            "mode {background_jobs}: an aborted flush left admitted blocks"
        );
        db.sync_points().disarm();
    }
}
