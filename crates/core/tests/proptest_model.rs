//! Property-based model checking: arbitrary operation sequences applied
//! to UniKV must match a `BTreeMap` reference model, across every
//! combination of ablation switches, including after a reopen.

use proptest::prelude::*;
use std::collections::BTreeMap;
use unikv::{UniKv, UniKvOptions};
use unikv_env::mem::MemEnv;

#[derive(Debug, Clone)]
enum ModelOp {
    Put(u16, u8),
    Delete(u16),
    Flush,
    Compact,
    Gc,
    Scan(u16, u8),
}

fn op_strategy() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        8 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| ModelOp::Put(k % 200, v)),
        2 => any::<u16>().prop_map(|k| ModelOp::Delete(k % 200)),
        1 => Just(ModelOp::Flush),
        1 => Just(ModelOp::Compact),
        1 => Just(ModelOp::Gc),
        1 => (any::<u16>(), any::<u8>()).prop_map(|(k, n)| ModelOp::Scan(k % 200, n)),
    ]
}

fn key(k: u16) -> Vec<u8> {
    format!("key{k:05}").into_bytes()
}

fn value(k: u16, v: u8) -> Vec<u8> {
    format!("value-{k}-{v}-")
        .into_bytes()
        .repeat(1 + v as usize % 4)
}

fn check(ops: &[ModelOp], opts: UniKvOptions) {
    let env = MemEnv::shared();
    let db = UniKv::open(env.clone(), "/db", opts.clone()).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let (mut mutations, mut scans) = (0u64, 0u64);
    for op in ops {
        match op {
            ModelOp::Put(k, v) => {
                db.put(&key(*k), &value(*k, *v)).unwrap();
                model.insert(key(*k), value(*k, *v));
                mutations += 1;
            }
            ModelOp::Delete(k) => {
                db.delete(&key(*k)).unwrap();
                model.remove(&key(*k));
                mutations += 1;
            }
            ModelOp::Flush => db.flush().unwrap(),
            ModelOp::Compact => db.compact_all().unwrap(),
            ModelOp::Gc => db.force_gc().unwrap(),
            ModelOp::Scan(k, n) => {
                // The same range three ways: an unbounded scan, a walk of
                // the streaming iterator, and a scan bounded above. The
                // bound swaps the count's nibbles, so small counts get far
                // bounds and large counts near ones: either can end it.
                let end = key(*k + u16::from(n.rotate_left(4)));
                let (from, n) = (key(*k), *n as usize);
                scans += 2;
                let expect = |upto: Option<&Vec<u8>>| -> Vec<(Vec<u8>, Vec<u8>)> {
                    model
                        .range(from.clone()..)
                        .take_while(|(a, _)| upto.is_none_or(|e| *a < e))
                        .take(n)
                        .map(|(a, b)| (a.clone(), b.clone()))
                        .collect()
                };
                let pairs = |items: Vec<unikv::ScanItem>| -> Vec<(Vec<u8>, Vec<u8>)> {
                    items.into_iter().map(|i| (i.key, i.value)).collect()
                };
                assert_eq!(pairs(db.scan(&from, n).unwrap()), expect(None));
                let mut walked = Vec::new();
                let mut it = db.iter().unwrap();
                it.seek(&from).unwrap();
                while it.valid() && walked.len() < n {
                    walked.push((it.key().to_vec(), it.value().to_vec()));
                    it.next().unwrap();
                }
                assert_eq!(walked, expect(None));
                let bounded = db.scan_range(&from, Some(&end), n).unwrap();
                assert_eq!(pairs(bounded), expect(Some(&end)));
            }
        }
    }
    // Counters must never regress: snapshot here, compare after the
    // read-only audit below (which may trigger no maintenance at all).
    let stats_before = db.metrics_snapshot().counters;

    // Final audit: every key agrees, reads and scans.
    for k in 0..200u16 {
        assert_eq!(
            db.get(&key(k)).unwrap(),
            model.get(&key(k)).cloned(),
            "key {k}"
        );
    }
    let all = db.scan(b"", 1000).unwrap();
    assert_eq!(all.len(), model.len());

    let stats_after = db.metrics_snapshot().counters;
    for (name, before) in &stats_before {
        assert!(
            stats_after[name] >= *before,
            "counter {name} regressed: {before} -> {}",
            stats_after[name]
        );
    }

    // Metrics invariants hold for every generated op sequence and every
    // ablation combination: tier counters partition `reads`, and
    // histogram counts equal op counts.
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counters["writes"], mutations);
    assert_eq!(snap.histograms["put_latency_us"].count, mutations);
    assert_eq!(snap.counters["reads"], 200);
    assert_eq!(snap.histograms["get_latency_us"].count, 200);
    assert_eq!(snap.counters["scans"], scans + 1);
    assert_eq!(snap.histograms["scan_latency_us"].count, scans + 1);
    assert_eq!(
        snap.counters["reads"],
        snap.counters["reads_hit_memtable"]
            + snap.counters["reads_hit_unsorted"]
            + snap.counters["reads_hit_sorted"]
            + snap.counters["reads_miss"]
    );

    // Reopen and audit again (recovery path).
    drop(db);
    let db = UniKv::open(env, "/db", opts).unwrap();
    for k in (0..200u16).step_by(7) {
        assert_eq!(
            db.get(&key(k)).unwrap(),
            model.get(&key(k)).cloned(),
            "post-reopen key {k}"
        );
    }
}

// Tiny thresholds so structural operations trigger within short sequences.
fn tiny_opts() -> UniKvOptions {
    UniKvOptions {
        write_buffer_size: 1 << 10,
        table_size: 2 << 10,
        unsorted_limit_bytes: 4 << 10,
        scan_merge_limit: 3,
        partition_size_limit: 16 << 10,
        max_log_size: 4 << 10,
        gc_min_bytes: 4 << 10,
        // The smallest cache whose 16 shards each hold two 4 KiB blocks.
        block_cache_bytes: 128 << 10,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case runs hundreds of engine ops
        ..ProptestConfig::default()
    })]

    #[test]
    fn prop_engine_matches_model(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        check(&ops, tiny_opts());
    }

    #[test]
    fn prop_engine_matches_model_under_ablations(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        no_hash in any::<bool>(),
        no_sep in any::<bool>(),
        no_part in any::<bool>(),
        no_scan_opt in any::<bool>(),
    ) {
        let mut opts = tiny_opts();
        opts.enable_hash_index = !no_hash;
        opts.enable_kv_separation = !no_sep;
        opts.enable_partitioning = !no_part;
        opts.enable_scan_optimization = !no_scan_opt;
        check(&ops, opts);
    }
}
