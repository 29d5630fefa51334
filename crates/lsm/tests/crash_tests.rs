//! Crash-consistency tests for the baseline LSM engine: the WAL + manifest
//! protocol must preserve synced writes through simulated power failures.

use std::sync::Arc;
use unikv_env::fault::FaultInjectionEnv;
use unikv_env::mem::MemEnv;
use unikv_lsm::{Baseline, CompactionPolicy, LsmDb, LsmOptions};

fn crash_opts() -> LsmOptions {
    LsmOptions {
        write_buffer_size: 4 << 10,
        table_size: 8 << 10,
        base_level_bytes: 16 << 10,
        l0_compaction_trigger: 2,
        sync_writes: true,
        ..Default::default()
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i}-").into_bytes().repeat(4)
}

#[test]
fn synced_writes_survive_crash() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    {
        let db = LsmDb::open(fault.clone() as Arc<_>, "/db", crash_opts()).unwrap();
        for i in 0..1_000u32 {
            db.put(&key(i), &value(i)).unwrap();
        }
        db.delete(&key(13)).unwrap();
    }
    fault.crash().unwrap();
    let db = LsmDb::open(fault as Arc<_>, "/db", crash_opts()).unwrap();
    for i in (0..1_000).step_by(37) {
        let expect = if i == 13 { None } else { Some(value(i)) };
        assert_eq!(db.get(&key(i)).unwrap(), expect, "key {i}");
    }
    let items = db.scan(b"", 2_000).unwrap();
    assert_eq!(items.len(), 999);
}

#[test]
fn crash_mid_unsynced_loses_bounded_tail() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let mut opts = crash_opts();
    opts.sync_writes = false;
    {
        let db = LsmDb::open(fault.clone() as Arc<_>, "/db", opts.clone()).unwrap();
        for i in 0..1_000u32 {
            db.put(&key(i), &value(i)).unwrap();
        }
    }
    fault.crash().unwrap();
    let db = LsmDb::open(fault as Arc<_>, "/db", opts).unwrap();
    let survivors = (0..1_000u32)
        .filter(|&i| db.get(&key(i)).unwrap() == Some(value(i)))
        .count();
    // Only the unsynced WAL tail (at most roughly one memtable) may vanish.
    assert!(survivors >= 800, "lost too much: {survivors}/1000");
}

#[test]
fn repeated_crashes_across_policies() {
    for policy in [CompactionPolicy::Leveled, CompactionPolicy::Fragmented] {
        let fault = FaultInjectionEnv::new(MemEnv::shared());
        let mut opts = crash_opts();
        opts.policy = policy;
        let mut written = 0u32;
        for round in 0..4 {
            {
                let db = LsmDb::open(fault.clone() as Arc<_>, "/db", opts.clone()).unwrap();
                // Prior rounds intact.
                for i in (0..written).step_by(53) {
                    assert_eq!(
                        db.get(&key(i)).unwrap(),
                        Some(value(i)),
                        "policy {policy:?} round {round} key {i}"
                    );
                }
                for i in written..written + 300 {
                    db.put(&key(i), &value(i)).unwrap();
                }
                written += 300;
            }
            fault.crash().unwrap();
        }
    }
}

#[test]
fn crash_right_after_compactions() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    {
        let db = LsmDb::open(fault.clone() as Arc<_>, "/db", crash_opts()).unwrap();
        for round in 0..3u32 {
            for i in 0..600u32 {
                db.put(&key(i), &format!("r{round}-{i}").into_bytes().repeat(3))
                    .unwrap();
            }
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        assert!(db.metrics_registry().snapshot().counters["compactions"] > 0);
    }
    fault.crash().unwrap();
    let db = LsmDb::open(fault as Arc<_>, "/db", crash_opts()).unwrap();
    for i in (0..600).step_by(29) {
        assert_eq!(
            db.get(&key(i)).unwrap(),
            Some(format!("r2-{i}").into_bytes().repeat(3)),
            "key {i}"
        );
    }
}

#[test]
fn baselines_all_recover() {
    for b in Baseline::all() {
        let fault = FaultInjectionEnv::new(MemEnv::shared());
        let mut opts = LsmOptions::baseline(b);
        opts.write_buffer_size = 4 << 10;
        opts.table_size = 8 << 10;
        opts.base_level_bytes = 16 << 10;
        opts.sync_writes = true;
        {
            let db = LsmDb::open(fault.clone() as Arc<_>, "/db", opts.clone()).unwrap();
            for i in 0..500u32 {
                db.put(&key(i), &value(i)).unwrap();
            }
        }
        fault.crash().unwrap();
        let db = LsmDb::open(fault as Arc<_>, "/db", opts).unwrap();
        for i in (0..500).step_by(61) {
            assert_eq!(
                db.get(&key(i)).unwrap(),
                Some(value(i)),
                "{} key {i}",
                b.name()
            );
        }
    }
}
