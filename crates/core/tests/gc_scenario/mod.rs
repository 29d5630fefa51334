//! A one-partition database whose value logs cover every case a
//! triggered GC tells apart, shared by `gc_tests` and the crash matrix.
//!
//! Four rounds of writes, each flushed and merged by `compact_all` (which
//! runs no GC trigger), leave one value log per round:
//!
//! | round | keys written      | its log's garbage afterwards |
//! |-------|-------------------|------------------------------|
//! | 0     | all               | 100% (all overwritten)       |
//! | 1     | all               | 75%                          |
//! | 2     | first 3/4         | 33%                          |
//! | 3     | first 1/4         | 0% (the fresh log)           |
//!
//! With the default `gc_garbage_ratio` of 0.5 the partition as a whole is
//! past the ratio, the logs of rounds 0 and 1 are victims, and the logs of
//! rounds 2 and 3 must be kept. [`Scenario::trigger`] then reaches GC the
//! way a workload does: puts fill the memtable, the flush runs the
//! post-flush triggers (inline) or schedules them (background mode).

#![allow(dead_code)] // each test file uses its own subset

use std::collections::BTreeMap;
use std::path::Path;
use unikv::{UniKv, UniKvOptions};
use unikv_common::Result;
use unikv_env::Env;
use unikv_vlog::{parse_vlog_file_name, record_size};
use unikv_workload::{format_key, make_value};

/// Keys the four rounds write.
pub const KEYS: u64 = 200;
/// Every value's length.
pub const VALUE_LEN: usize = 128;
/// The database root.
pub const ROOT: &str = "/db";

/// Options for the scenario: one partition (no split), a memtable that
/// no round fills, an UnsortedStore limit no flush reaches (so the
/// trigger runs GC and not a merge), and logs large enough that each
/// merge writes exactly one.
pub fn opts(background_jobs: usize) -> UniKvOptions {
    let write_buffer_size = 64 << 10;
    UniKvOptions {
        write_buffer_size,
        unsorted_limit_bytes: 16 * write_buffer_size as u64,
        max_log_size: 1 << 20,
        enable_partitioning: false,
        background_jobs,
        ..UniKvOptions::small_for_tests()
    }
}

/// The value logs in partition `pid`'s directory: number → file bytes.
pub fn logs(env: &dyn Env, pid: u32) -> BTreeMap<u64, Vec<u8>> {
    let dir = Path::new(ROOT).join(format!("p{pid}"));
    env.list_dir(&dir)
        .unwrap()
        .into_iter()
        .filter_map(|name| {
            let n = parse_vlog_file_name(name.to_str()?)?;
            Some((n, env.read_to_vec(&dir.join(&name)).unwrap()))
        })
        .collect()
}

/// What the scenario wrote, and where each live value sits.
#[derive(Default)]
pub struct Scenario {
    /// Every acked put.
    pub model: BTreeMap<Vec<u8>, Vec<u8>>,
    /// The log holding each merged key's live value.
    home: BTreeMap<Vec<u8>, u64>,
    /// The log the last round's merge wrote: fully live.
    pub fresh: u64,
    /// The key of the put that failed, if one did: after a crash it may
    /// hold either its old or its new state.
    pub in_flight: Option<Vec<u8>>,
    ops: u64,
}

impl Scenario {
    /// Run the four rounds in partition 0. Errors pass through, so a
    /// crash test can stop at an injected fault.
    pub fn build(db: &UniKv, env: &dyn Env) -> Result<Scenario> {
        let mut s = Scenario::default();
        for keys in [KEYS, KEYS, KEYS * 3 / 4, KEYS / 4] {
            let before = logs(env, 0);
            for i in 0..keys {
                s.put(db, i)?;
            }
            db.compact_all()?;
            let new: Vec<u64> = logs(env, 0)
                .into_keys()
                .filter(|n| !before.contains_key(n))
                .collect();
            assert_eq!(new.len(), 1, "a round's merge must write one log");
            s.fresh = new[0];
            for i in 0..keys {
                s.home.insert(format_key(i), s.fresh);
            }
        }
        Ok(s)
    }

    fn put(&mut self, db: &UniKv, i: u64) -> Result<()> {
        self.ops += 1;
        let (k, v) = (format_key(i), make_value(i, self.ops, VALUE_LEN));
        if let Err(e) = db.put(&k, &v) {
            self.in_flight = Some(k);
            return Err(e);
        }
        self.model.insert(k, v);
        Ok(())
    }

    /// Each log's garbage ratio as the model sees it: the log's bytes
    /// minus the records of the values whose newest version it holds.
    pub fn garbage(&self, logs: &BTreeMap<u64, Vec<u8>>) -> BTreeMap<u64, f64> {
        logs.iter()
            .map(|(&n, bytes)| {
                let live = self.home.values().filter(|&&h| h == n).count() as u64
                    * record_size(VALUE_LEN as u32);
                let size = bytes.len() as u64;
                (n, size.saturating_sub(live) as f64 / size.max(1) as f64)
            })
            .collect()
    }

    /// Bytes of the records the model's separated values need.
    pub fn live_record_bytes(&self) -> u64 {
        self.home.len() as u64 * record_size(VALUE_LEN as u32)
    }

    /// Put keys outside the rounds' range until the memtable fills, then
    /// wait for background work: the flush runs the GC trigger inline or
    /// schedules it. The new keys stay in the UnsortedStore, inline.
    pub fn trigger(&mut self, db: &UniKv) -> Result<()> {
        let count = |db: &UniKv| {
            let c = db.metrics_snapshot().counters;
            c["flushes"] + c["maint_jobs_scheduled"]
        };
        let before = count(db);
        let mut i = KEYS;
        while count(db) == before {
            self.put(db, i)?;
            i += 1;
            assert!(i < 100 * KEYS, "the memtable never filled");
        }
        db.wait_for_background();
        Ok(())
    }
}
