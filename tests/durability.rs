//! Crash-consistency matrix: crash the UniKV engine at many points in a
//! randomized workload and verify that recovery never loses synced data,
//! never resurrects deleted data, and always yields an internally
//! consistent store.

use std::collections::BTreeMap;
use std::sync::Arc;
use unikv::{UniKv, UniKvOptions};
use unikv_env::fault::FaultInjectionEnv;
use unikv_env::mem::MemEnv;
use unikv_workload::{format_key, make_value};

fn crash_opts() -> UniKvOptions {
    UniKvOptions {
        sync_writes: true, // every committed write must survive
        ..UniKvOptions::small_for_tests()
    }
}

/// With `sync_writes`, every acknowledged operation must survive a crash
/// at any point, across many crash positions.
#[test]
fn synced_writes_survive_crashes_at_many_points() {
    for crash_after in [50u64, 333, 1_000, 2_500, 4_999] {
        let fault = FaultInjectionEnv::new(MemEnv::shared());
        let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        {
            let db = UniKv::open(fault.clone() as Arc<_>, "/db", crash_opts()).unwrap();
            let mut s = crash_after; // varied seed per scenario
            for i in 0..crash_after {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let k = format_key(s % 400);
                if s % 13 == 0 {
                    db.delete(&k).unwrap();
                    model.insert(k, None);
                } else {
                    let v = make_value(i, 9, 60);
                    db.put(&k, &v).unwrap();
                    model.insert(k, Some(v));
                }
            }
        }
        fault.crash().unwrap();
        let db = UniKv::open(fault.clone() as Arc<_>, "/db", crash_opts()).unwrap();
        for (k, expect) in &model {
            assert_eq!(
                db.get(k).unwrap().as_ref(),
                expect.as_ref(),
                "crash_after={crash_after}, key={}",
                String::from_utf8_lossy(k)
            );
        }
        // Scans must agree with the surviving model too.
        let live: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter_map(|(k, v)| v.clone().map(|v| (k.clone(), v)))
            .collect();
        let scanned = db.scan(b"", live.len() + 10).unwrap();
        assert_eq!(scanned.len(), live.len(), "crash_after={crash_after}");
        for (got, (k, v)) in scanned.iter().zip(&live) {
            assert_eq!(&got.key, k);
            assert_eq!(&got.value, v);
        }
    }
}

/// Repeated crash → recover → write cycles must not corrupt the store.
#[test]
fn repeated_crash_cycles() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let mut expect: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for round in 0..6u64 {
        {
            let db = UniKv::open(fault.clone() as Arc<_>, "/db", crash_opts()).unwrap();
            // Everything from prior rounds must still be there.
            for (k, v) in &expect {
                assert_eq!(
                    db.get(k).unwrap().as_deref(),
                    Some(v.as_slice()),
                    "round {round}"
                );
            }
            for i in 0..400u64 {
                let k = format_key(round * 400 + i);
                let v = make_value(i, round, 80);
                db.put(&k, &v).unwrap();
                expect.insert(k, v);
            }
        }
        fault.crash().unwrap();
    }
    let db = UniKv::open(fault as Arc<_>, "/db", crash_opts()).unwrap();
    assert_eq!(db.scan(b"", 10_000).unwrap().len(), expect.len());
}

/// Injected write failures surface as errors and do not corrupt prior
/// state once the fault clears and the database is reopened.
#[test]
fn write_errors_do_not_corrupt() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    {
        let db = UniKv::open(fault.clone() as Arc<_>, "/db", crash_opts()).unwrap();
        for i in 0..500u64 {
            db.put(&format_key(i), &make_value(i, 0, 60)).unwrap();
        }
        fault.fail_after_appends(40);
        let mut saw_error = false;
        for i in 500..2_000u64 {
            if db.put(&format_key(i), &make_value(i, 0, 60)).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "injected failure should surface");
        fault.clear_failures();
    }
    fault.crash().unwrap();
    let db = UniKv::open(fault as Arc<_>, "/db", crash_opts()).unwrap();
    for i in 0..500u64 {
        assert_eq!(
            db.get(&format_key(i)).unwrap(),
            Some(make_value(i, 0, 60)),
            "pre-failure key {i} lost"
        );
    }
    // Store remains writable.
    db.put(b"recovered", b"yes").unwrap();
    assert_eq!(db.get(b"recovered").unwrap(), Some(b"yes".to_vec()));
}

/// Crashing right after heavy structural activity (merges, GC, splits)
/// loses nothing: the manifest commit protocol covers every transition.
#[test]
fn crash_after_structural_operations() {
    let fault = FaultInjectionEnv::new(MemEnv::shared());
    let n = 3_000u64;
    {
        let db = UniKv::open(fault.clone() as Arc<_>, "/db", crash_opts()).unwrap();
        for i in 0..n {
            db.put(&format_key(i), &make_value(i, 0, 120)).unwrap();
        }
        // Overwrite a third to build garbage, then force merge + GC.
        for i in 0..n / 3 {
            db.put(&format_key(i * 3), &make_value(i, 1, 120)).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        db.force_gc().unwrap();
        assert!(db.partition_count() >= 2, "want splits before the crash");
    }
    fault.crash().unwrap();
    let db = UniKv::open(fault as Arc<_>, "/db", crash_opts()).unwrap();
    for i in (0..n).step_by(97) {
        let expect = if i % 3 == 0 && i / 3 < n / 3 {
            make_value(i / 3, 1, 120)
        } else {
            make_value(i, 0, 120)
        };
        assert_eq!(db.get(&format_key(i)).unwrap(), Some(expect), "key {i}");
    }
}
