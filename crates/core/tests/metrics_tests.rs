//! Deterministic tests for the observability layer: with a manual metrics
//! clock every latency sample is an exact, scripted value, so bucket
//! counts and quantiles are asserted exactly — no tolerance windows — and
//! two identical runs must produce byte-identical machine reports.

use std::sync::Arc;
use unikv::{manual_step_clock, UniKv, UniKvOptions};
use unikv_env::mem::MemEnv;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

fn value(i: u32, len: usize) -> Vec<u8> {
    let unit = format!("value-{i}-").into_bytes();
    let reps = len / unit.len() + 2;
    unit.repeat(reps)[..len].to_vec()
}

/// Default (large-buffer) options: the scripted workloads below never
/// trigger a flush mid-write, so every op reads the clock exactly twice.
fn quiet_opts() -> UniKvOptions {
    UniKvOptions::default()
}

/// A scripted workload whose per-op clock reads are exactly two: with a
/// step-7 manual clock every get/put/scan observes a duration of exactly
/// 7 us, which lands in bucket [4,7] — so bucket counts AND quantiles are
/// exact.
#[test]
fn manual_clock_yields_exact_buckets_and_quantiles() {
    const STEP: u64 = 7;
    const PUTS: u64 = 40;
    const GETS: u64 = 25;
    const SCANS: u64 = 3;

    let db = UniKv::open(MemEnv::shared(), "/db", quiet_opts()).unwrap();
    db.set_metrics_clock(Some(manual_step_clock(STEP)));

    for i in 0..PUTS as u32 {
        db.put(&key(i), &value(i, 32)).unwrap();
    }
    for i in 0..GETS as u32 {
        db.get(&key(i % 50)).unwrap();
    }
    for _ in 0..SCANS {
        db.scan(b"user", 10).unwrap();
    }

    let snap = db.metrics_snapshot();
    let put = &snap.histograms["put_latency_us"];
    let get = &snap.histograms["get_latency_us"];
    let scan = &snap.histograms["scan_latency_us"];

    // Histogram sample counts equal op counts exactly.
    assert_eq!(put.count, PUTS);
    assert_eq!(get.count, GETS);
    assert_eq!(scan.count, SCANS);

    // Every duration is exactly STEP: one bucket holds everything.
    // bucket_index(7) = 3 (range [4,7]).
    assert_eq!(put.buckets[3], PUTS);
    assert_eq!(put.buckets.iter().sum::<u64>(), PUTS);
    assert_eq!(get.buckets[3], GETS);

    // Quantiles are exact, not approximate: upper bound of bucket 3 is 7
    // and the recorded max is 7.
    for h in [put, get, scan] {
        assert_eq!(h.quantile(0.50), STEP);
        assert_eq!(h.quantile(0.95), STEP);
        assert_eq!(h.quantile(0.99), STEP);
        assert_eq!(h.max, STEP);
        assert_eq!(h.sum, STEP * h.count);
    }

    // Tier accounting: every read is a memtable hit (nothing flushed).
    assert_eq!(snap.counters["reads"], GETS);
    assert_eq!(snap.counters["reads_hit_memtable"], GETS);
    assert_eq!(snap.counters["reads_miss"], 0);
    assert_eq!(snap.counters["writes"], PUTS);
    assert_eq!(snap.counters["scans"], SCANS);
    assert_eq!(snap.counters["scan_items"], SCANS * 10);
}

/// The same seeded workload run twice from scratch produces byte-identical
/// machine reports: the deterministic-metrics contract the test suite
/// locks down.
#[test]
fn two_runs_are_byte_identical() {
    let run = || -> String {
        let db = UniKv::open(MemEnv::shared(), "/db", quiet_opts()).unwrap();
        db.set_metrics_clock(Some(manual_step_clock(5)));
        for i in 0..60u32 {
            db.put(&key(i), &value(i, 48)).unwrap();
        }
        db.flush().unwrap();
        for i in 0..80u32 {
            db.get(&key(i)).unwrap(); // 60 hits + 20 misses
        }
        db.scan(b"user", 25).unwrap();
        db.metrics_report_machine()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "metrics must be reproducible across identical runs");
    assert!(a.contains("get_latency_us"));
    assert!(a.contains("flush_latency_us"));
}

/// Registry snapshot merge is associative and commutative — the property
/// that makes per-partition (or per-database) metrics foldable into one
/// report in any order.
#[test]
fn snapshot_merge_is_associative_across_databases() {
    let mk = |keys: std::ops::Range<u32>| {
        let db = UniKv::open(MemEnv::shared(), "/db", quiet_opts()).unwrap();
        db.set_metrics_clock(Some(manual_step_clock(3)));
        for i in keys.clone() {
            db.put(&key(i), b"v").unwrap();
        }
        for i in keys {
            db.get(&key(i)).unwrap();
        }
        db.metrics_snapshot()
    };
    let (a, b, c) = (mk(0..10), mk(10..25), mk(25..27));

    let mut ab_c = a.clone();
    ab_c.merge(&b);
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    assert_eq!(ab_c, a_bc);

    let mut ba = b.clone();
    ba.merge(&a);
    let mut ab = a.clone();
    ab.merge(&b);
    assert_eq!(ab, ba);

    assert_eq!(ab_c.counters["reads"], 27);
    assert_eq!(ab_c.histograms["get_latency_us"].count, 27);
}

/// `reset()` zeroes every family, but the families stay registered
/// (their names remain enumerable for reports).
#[test]
fn reset_empties_but_keeps_families() {
    let db = UniKv::open(MemEnv::shared(), "/db", quiet_opts()).unwrap();
    db.set_metrics_clock(Some(manual_step_clock(2)));
    for i in 0..20u32 {
        db.put(&key(i), b"v").unwrap();
    }
    db.get(&key(3)).unwrap();
    let families_before = db.metrics().registry.family_names();

    db.reset_metrics();

    let snap = db.metrics_snapshot();
    assert!(snap.counters.values().all(|v| *v == 0));
    assert!(snap.gauges.values().all(|v| *v == 0));
    assert!(snap.histograms.values().all(|h| h.is_empty()));
    assert_eq!(db.metrics().registry.family_names(), families_before);

    // Recording still works after a reset.
    db.put(&key(99), b"v").unwrap();
    assert_eq!(db.metrics_snapshot().counters["writes"], 1);
}

/// The overhead guard. The same seeded workload with metrics disabled
/// returns identical user-visible results, and the disabled registry
/// records nothing at all — counters (the engine's work counters too)
/// stay zero, histograms stay empty, and the clock reads as zero (the
/// disabled fast path never takes a timestamp).
#[test]
fn disabled_metrics_change_nothing_and_record_nothing() {
    let run = |enable: bool| {
        let opts = UniKvOptions {
            enable_metrics: enable,
            ..UniKvOptions::small_for_tests()
        };
        let db = UniKv::open(MemEnv::shared(), "/db", opts).unwrap();
        let mut rng: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = |m: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % m
        };
        let mut observed = Vec::new();
        for _ in 0..3000 {
            let k = key(next(300) as u32);
            match next(8) {
                0 => db.delete(&k).unwrap(),
                1..=4 => db.put(&k, &value(next(1000) as u32, 64)).unwrap(),
                5 => observed.push((k.clone(), db.get(&k).unwrap())),
                _ => observed.push((
                    k.clone(),
                    Some(
                        db.scan(&k, 5)
                            .unwrap()
                            .into_iter()
                            .flat_map(|it| it.key)
                            .collect(),
                    ),
                )),
            }
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        (observed, db)
    };

    let (enabled_results, enabled_db) = run(true);
    let (disabled_results, disabled_db) = run(false);

    // Identical user-visible behaviour.
    assert_eq!(enabled_results, disabled_results);

    // The enabled run recorded real work...
    let on = enabled_db.metrics_snapshot();
    assert!(on.counters["writes"] > 0);
    assert!(on.histograms["get_latency_us"].count > 0);
    assert!(on.counters["wal_records"] > 0);
    assert!(on.counters["flushes"] > 0);
    assert!(enabled_db.write_amplification() > 0.0);

    // ...the disabled run recorded nothing anywhere.
    let off = disabled_db.metrics_snapshot();
    assert!(off.counters.values().all(|v| *v == 0));
    assert!(off.gauges.values().all(|v| *v == 0));
    assert!(off.histograms.values().all(|h| h.is_empty()));
    assert_eq!(disabled_db.metrics().registry.now_micros(), 0);
    let stats = disabled_db.stats().snapshot();
    assert!(stats.iter().any(|(name, _)| name == "flushes"));
    assert!(stats.iter().all(|(_, v)| *v == 0), "{stats:?}");
    assert_eq!(disabled_db.write_amplification(), 0.0);
    // Families stay enumerable even when disabled, so reports keep their
    // shape across configurations.
    assert_eq!(
        enabled_db.metrics().registry.family_names(),
        disabled_db.metrics().registry.family_names()
    );
}

/// Histogram sample counts equal op counts even when the workload drives
/// real maintenance (flushes, merges, GC, splits) with background jobs
/// disabled — the acceptance invariant for the whole layer.
#[test]
fn histogram_counts_match_op_counts_under_maintenance() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap();
    let (mut puts, mut dels, mut gets, mut scans) = (0u64, 0u64, 0u64, 0u64);
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = |m: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % m
    };
    for _ in 0..10_000 {
        let k = key(next(1200) as u32);
        match next(10) {
            0 => {
                db.delete(&k).unwrap();
                dels += 1;
            }
            1..=6 => {
                db.put(&k, &value(next(1000) as u32, 120)).unwrap();
                puts += 1;
            }
            7..=8 => {
                db.get(&k).unwrap();
                gets += 1;
            }
            _ => {
                db.scan(&k, 4).unwrap();
                scans += 1;
            }
        }
    }
    db.force_gc().unwrap();

    let snap = db.metrics_snapshot();
    let stats = &snap.counters;

    assert_eq!(snap.histograms["put_latency_us"].count, puts + dels);
    assert_eq!(snap.counters["writes"], puts + dels);
    assert_eq!(snap.histograms["get_latency_us"].count, gets);
    assert_eq!(snap.counters["reads"], gets);
    assert_eq!(snap.histograms["scan_latency_us"].count, scans);
    assert_eq!(snap.counters["scans"], scans);

    // The tier-resolution counters partition `reads` exactly.
    assert_eq!(
        snap.counters["reads"],
        snap.counters["reads_hit_memtable"]
            + snap.counters["reads_hit_unsorted"]
            + snap.counters["reads_hit_sorted"]
            + snap.counters["reads_miss"]
    );
    // Vlog-resolved reads are a subset of sorted-tier hits.
    assert!(snap.counters["reads_vlog_resolved"] <= snap.counters["reads_hit_sorted"]);

    // Maintenance histograms agree with the engine's own work counters.
    assert_eq!(snap.histograms["flush_latency_us"].count, stats["flushes"]);
    assert_eq!(snap.histograms["merge_latency_us"].count, stats["merges"]);
    assert_eq!(snap.histograms["gc_latency_us"].count, stats["gcs"]);
    assert_eq!(snap.histograms["split_latency_us"].count, stats["splits"]);
    // This workload is sized to make every maintenance kind fire at least
    // once, so the assertions above are not vacuous.
    assert!(stats["flushes"] > 0);
    assert!(stats["merges"] > 0);
    assert!(stats["gcs"] > 0);
    assert!(stats["splits"] > 0);
}

/// KV separation surfaces in the tier counters: after a merge moves
/// values into the value log, point reads resolve through pointers and
/// count as vlog-resolved sorted hits.
#[test]
fn vlog_resolution_is_visible_in_tier_counters() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap();
    for i in 0..40u32 {
        db.put(&key(i), &value(i, 200)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    db.reset_metrics();

    for i in 0..40u32 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 200)));
    }
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counters["reads"], 40);
    assert_eq!(snap.counters["reads_hit_sorted"], 40);
    assert_eq!(snap.counters["reads_vlog_resolved"], 40);
    assert_eq!(snap.counters["reads_miss"], 0);
}

/// The machine report covers every registered family — the same check the
/// CI smoke run performs via `mixed_workload --metrics`.
#[test]
fn machine_report_covers_every_family() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap();
    for i in 0..50u32 {
        db.put(&key(i), &value(i, 64)).unwrap();
    }
    db.flush().unwrap();
    db.get(&key(1)).unwrap();
    db.scan(b"user", 5).unwrap();

    let report = db.metrics_report_machine();
    for family in db.metrics().registry.family_names() {
        assert!(
            report
                .lines()
                .any(|l| l.split('\t').nth(1) == Some(family.as_str())),
            "family {family} missing from machine report"
        );
    }
    // And the human report names the headline sections.
    let text = db.metrics_report();
    for needle in ["== counters ==", "== histograms (us) =="] {
        assert!(text.contains(needle), "report missing {needle}");
    }
}

/// Batch writes record one batch sample plus per-op write counts, and do
/// not pollute the put-latency histogram (its count keeps matching the
/// number of put/delete calls).
#[test]
fn write_batch_accounting() {
    let db = UniKv::open(MemEnv::shared(), "/db", quiet_opts()).unwrap();
    db.set_metrics_clock(Some(manual_step_clock(4)));
    let mut batch = unikv::WriteBatch::new();
    for i in 0..10u32 {
        batch.put(key(i), b"v".to_vec());
    }
    db.write_batch(&batch).unwrap();
    db.put(&key(100), b"v").unwrap();

    let snap = db.metrics_snapshot();
    assert_eq!(snap.counters["writes"], 11);
    assert_eq!(snap.counters["batch_ops"], 10);
    assert_eq!(snap.histograms["batch_latency_us"].count, 1);
    assert_eq!(snap.histograms["put_latency_us"].count, 1);
}

/// Metrics survive into reopened databases as fresh (zeroed) registries —
/// reopening must not double-count recovery work into user op families.
#[test]
fn reopen_starts_clean_and_counts_recovery_io_only_in_io_families() {
    let env: Arc<MemEnv> = MemEnv::shared();
    {
        let db = UniKv::open(env.clone(), "/db", UniKvOptions::small_for_tests()).unwrap();
        for i in 0..200u32 {
            db.put(&key(i), &value(i, 64)).unwrap();
        }
    }
    let db = UniKv::open(env, "/db", UniKvOptions::small_for_tests()).unwrap();
    let snap = db.metrics_snapshot();
    // No user ops yet: op families are zero...
    assert_eq!(snap.counters["reads"], 0);
    assert_eq!(snap.counters["writes"], 0);
    assert_eq!(snap.histograms["get_latency_us"].count, 0);
    // ...while recovery's internal work (WAL replay flush) legitimately
    // shows up in the flush histogram and I/O families.
    assert!(snap.histograms["flush_latency_us"].count > 0);
    assert!(snap.counters.contains_key("sst_block_reads"));
    assert_eq!(db.get(&key(5)).unwrap(), Some(value(5, 64)));
    assert_eq!(db.metrics_snapshot().counters["reads"], 1);
}

/// A work counter never runs ahead of the state it describes: when a
/// structural operation fails at its commit point, before the manifest commits,
/// none of its counters moves.
#[test]
fn failed_commits_leave_work_counters_unmoved() {
    type Op = fn(&UniKv) -> unikv_common::Result<()>;
    fn fill(db: &UniKv, round: u32) {
        for i in 0..12u32 {
            db.put(&key(i), &value(i + round, 40)).unwrap();
        }
    }
    let merge_counters: &[&str] = &["merges", "merge_bytes_read", "merge_bytes_written"];
    let cases: [(&str, &[&str], Op); 5] = [
        ("flush:commit", &["flushes", "bytes_flushed"], |db| {
            fill(db, 99);
            db.flush()
        }),
        ("merge:commit", merge_counters, |db| db.compact_all()),
        // A scan reads the partition's `scan_merge_limit` tables: it runs
        // the full merge.
        ("merge:commit", merge_counters, |db| {
            db.scan(b"", 100).map(|_| ())
        }),
        ("gc:commit", &["gcs", "gc_bytes_written"], |db| {
            db.force_gc()
        }),
        ("split:commit", &["splits", "split_bytes_written"], |db| {
            for i in 0..3000u32 {
                db.put(&key(i), &value(i, 64))?;
            }
            Ok(())
        }),
    ];
    for (point, counters, op) in cases {
        let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap();
        // A SortedStore for GC to rewrite, then `scan_merge_limit`
        // UnsortedStore tables for the merges.
        fill(&db, 0);
        db.compact_all().unwrap();
        for round in 1..=db.options().scan_merge_limit as u32 {
            fill(&db, round);
            db.flush().unwrap();
        }
        let before = db.metrics_snapshot().counters;
        let target = point;
        db.sync_points().arm(Arc::new(move |name| {
            if name == target {
                return Err(unikv_common::Error::internal(format!("injected at {name}")));
            }
            Ok(())
        }));
        assert!(op(&db).is_err(), "{point} never fired");
        let after = db.metrics_snapshot().counters;
        for c in counters {
            assert_eq!(after[*c], before[*c], "{c} moved on a failed {point}");
        }
    }
}

/// `stats().snapshot()` is a read of the registry: every name it lists is
/// a counter family of the same value, each listed once, on UniKV and on
/// the LSM baseline, and both engines name the work E11 and E4–E7 compare
/// alike.
#[test]
fn stats_snapshot_lists_registry_counters() {
    use unikv_lsm::{Baseline, LsmDb, LsmOptions};
    let uni = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap();
    let mut lsm_opts = LsmOptions::baseline(Baseline::LevelDb);
    lsm_opts.write_buffer_size = 16 << 10;
    let lsm = LsmDb::open(MemEnv::shared(), "/lsm", lsm_opts).unwrap();
    for i in 0..2000u32 {
        uni.put(&key(i % 700), &value(i, 64)).unwrap();
        lsm.put(&key(i % 700), &value(i, 64)).unwrap();
    }
    for i in 0..100u32 {
        uni.get(&key(i * 7)).unwrap();
        lsm.get(&key(i * 7)).unwrap();
    }
    let engines = [
        (
            "unikv",
            uni.stats().snapshot(),
            uni.metrics_snapshot().counters,
        ),
        (
            "lsm",
            lsm.stats().snapshot(),
            lsm.metrics_registry().snapshot().counters,
        ),
    ];
    for (engine, stats, counters) in engines {
        assert!(
            stats.windows(2).all(|w| w[0].0 < w[1].0),
            "{engine}: names not sorted and unique"
        );
        assert_eq!(stats.len(), counters.len(), "{engine}");
        for (name, v) in &stats {
            assert_eq!(counters.get(name), Some(v), "{engine}: {name}");
        }
        for name in [
            "user_bytes_written",
            "bytes_flushed",
            "tables_checked",
            "memtable_hits",
        ] {
            assert!(counters[name] > 0, "{engine}: {name} counted nothing");
        }
    }
    // UniKV's write amplification is its device-write families over the
    // user bytes.
    let c = uni.metrics_snapshot().counters;
    let device = [
        "bytes_flushed",
        "merge_bytes_written",
        "gc_bytes_written",
        "split_bytes_written",
    ];
    let device: u64 = device.iter().map(|n| c[*n]).sum();
    assert_eq!(
        uni.write_amplification(),
        device as f64 / c["user_bytes_written"] as f64
    );
}
