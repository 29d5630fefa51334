//! Recovery oracle for the manifest, in inline and background mode: after
//! flushes, a full merge and a scan-triggered one, a reopen must serve every
//! key as before the close and rebuild every hash-index candidate list
//! exactly, from the entries the manifest logged with each table. No
//! table block is read to rebuild the index.
//!
//! Background mode flushes and merges on a worker thread, so these tests
//! wait for the queue to drain before they look; they are part of the CI
//! flake sweep.

use unikv::{UniKv, UniKvOptions};
use unikv_env::mem::MemEnv;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

fn value(i: u32, round: u32) -> Vec<u8> {
    format!("value-{i}-{round}-").repeat(3).into_bytes()
}

fn opts(background_jobs: usize) -> UniKvOptions {
    UniKvOptions {
        background_jobs,
        ..UniKvOptions::small_for_tests()
    }
}

/// Round `round` writes keys `20 * round ..` (`n` of them) and flushes.
/// With `n = 40` it overwrites half of the previous round's keys, so keys
/// have versions in several UnsortedStore tables.
fn write_round(db: &UniKv, round: u32, n: u32) {
    for i in round * 20..round * 20 + n {
        db.put(&key(i), &value(i, round)).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_background();
}

/// Every key's value and hash-index candidates, plus candidates of keys
/// never written (false positives must survive too).
fn observe(db: &UniKv) -> Vec<(Option<Vec<u8>>, Vec<u32>)> {
    (0..260)
        .map(|i| (db.get(&key(i)).unwrap(), db.index_candidates(&key(i))))
        .collect()
}

#[test]
fn reopen_rebuilds_index_from_manifest_without_reading_tables() {
    for background_jobs in [0, 2] {
        let env = MemEnv::shared();
        let before = {
            let db = UniKv::open(env.clone(), "/db", opts(background_jobs)).unwrap();
            for round in 0..3 {
                write_round(&db, round, 40);
            }
            db.compact_all().unwrap();
            db.wait_for_background();
            for round in 3..6 {
                write_round(&db, round, 40);
            }
            // The scan reads a partition with three tables: it merges them
            // into the SortedStore.
            let merges = db.metrics().merges.value();
            assert!(!db.scan(b"", 500).unwrap().is_empty());
            db.wait_for_background();
            assert_eq!(db.metrics().merges.value(), merges + 1);
            // Two more tables after that merge, sharing keys, so the
            // reopened index holds candidate lists logged by two commits.
            write_round(&db, 6, 40);
            write_round(&db, 7, 40);
            assert_eq!(db.metrics().splits.value(), 0);
            let seen = observe(&db);
            assert!(
                seen.iter().filter(|(_, c)| c.len() >= 2).count() >= 10,
                "keys should have versions in the merged and the newer table"
            );
            seen
        };

        let db = UniKv::open(env, "/db", opts(background_jobs)).unwrap();
        assert_eq!(
            db.metrics_snapshot().counters["sst_block_reads"],
            0,
            "open read table blocks to rebuild the index (background_jobs={background_jobs})"
        );
        assert!(db.index_memory_bytes() > 0);
        assert_eq!(observe(&db), before, "background_jobs={background_jobs}");
    }
}

/// Options that change the index's geometry make the logged entries
/// unusable: open falls back to rebuilding from the tables' keys, and
/// every key still resolves.
#[test]
fn changed_index_geometry_rebuilds_from_tables() {
    let env = MemEnv::shared();
    {
        let db = UniKv::open(env.clone(), "/db", opts(0)).unwrap();
        for round in 0..3 {
            write_round(&db, round, 40);
        }
    }
    let db = UniKv::open(
        env,
        "/db",
        UniKvOptions {
            num_hashes: 3,
            ..opts(0)
        },
    )
    .unwrap();
    assert!(db.metrics_snapshot().counters["sst_block_reads"] > 0);
    for i in 0..80 {
        // Round r wrote keys 20r..20r+40: the last round to write i wins.
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, (i / 20).min(2))));
        assert!(!db.index_candidates(&key(i)).is_empty());
    }
}
