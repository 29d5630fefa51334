//! Executable checks of the paper's central claims at test scale. These
//! are the claims EXPERIMENTS.md reports at benchmark scale; here they are
//! asserted as invariants so regressions that break a *shape* fail CI.

use unikv::{UniKv, UniKvOptions};
use unikv_env::mem::MemEnv;
use unikv_hashstore::{HashStore, HashStoreOptions};
use unikv_lsm::{Baseline, LsmDb, LsmOptions};
use unikv_workload::{format_key, make_value};

fn load_unikv(opts: UniKvOptions, n: u64, vs: usize) -> UniKv {
    let db = UniKv::open(MemEnv::shared(), "/db", opts).unwrap();
    // Deterministic shuffle so UnsortedStore tables overlap.
    let mut order: Vec<u64> = (0..n).collect();
    let mut s = 0xabcdu64;
    for i in (1..order.len()).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    for i in order {
        db.put(&format_key(i), &make_value(i, 0, vs)).unwrap();
    }
    db
}

/// Claim (§Hash indexing): the two-level hash index resolves UnsortedStore
/// lookups with ~1 table probe; without it, lookups scan overlapping
/// tables.
#[test]
fn claim_hash_index_cuts_table_probes() {
    let probes_per_get = |enable: bool| {
        let mut opts = UniKvOptions::small_for_tests();
        opts.enable_hash_index = enable;
        opts.enable_scan_optimization = false; // keep tables overlapping
        opts.unsorted_limit_bytes = 64 << 20; // everything stays unsorted
        opts.enable_partitioning = false;
        let db = load_unikv(opts, 2_000, 100);
        let reads = 500u64;
        for i in 0..reads {
            let k = (i * 7919) % 2_000;
            assert!(db.get(&format_key(k)).unwrap().is_some());
        }
        db.metrics().tables_checked.value() as f64 / reads as f64
    };
    let with_index = probes_per_get(true);
    let without = probes_per_get(false);
    assert!(
        with_index < 1.6,
        "indexed lookups should touch ~1 table, got {with_index}"
    );
    assert!(
        without > with_index * 2.0,
        "unindexed ({without}) should probe far more tables than indexed ({with_index})"
    );
}

/// Claim (§Partial KV separation): merges do not rewrite already-separated
/// values, so merge write volume is far below the no-separation variant.
#[test]
fn claim_partial_separation_cuts_merge_writes() {
    let merge_bytes = |separate: bool| {
        let mut opts = UniKvOptions::small_for_tests();
        opts.enable_kv_separation = separate;
        opts.enable_partitioning = false;
        let db = load_unikv(opts, 1_500, 200);
        db.compact_all().unwrap();
        let before = db.metrics().merge_bytes_written.value();
        // Second batch of fresh keys, then merge again.
        for i in 1_500..2_250u64 {
            db.put(&format_key(i), &make_value(i, 1, 200)).unwrap();
        }
        db.compact_all().unwrap();
        db.metrics().merge_bytes_written.value() - before
    };
    let with_sep = merge_bytes(true);
    let without = merge_bytes(false);
    assert!(
        without as f64 > with_sep as f64 * 1.5,
        "no-separation merge ({without}B) should rewrite much more than \
         separation ({with_sep}B)"
    );
}

/// Claim (§Memory overhead): the hash index costs 8 B per resident entry
/// and a small fraction of the data it indexes.
#[test]
fn claim_index_memory_overhead_small() {
    let mut opts = UniKvOptions::small_for_tests();
    opts.enable_partitioning = false;
    let db = load_unikv(opts, 3_000, 200);
    let idx = db.index_memory_bytes() as f64;
    let data = db.logical_bytes() as f64;
    assert!(idx < 0.05 * data, "index {idx}B vs data {data}B");
}

/// Claim (§Motivation, Fig. 2a): with bounded memory, a hash store's read
/// cost grows linearly with data while the LSM's stays near-logarithmic.
#[test]
fn claim_hash_store_degrades_with_scale() {
    let env = MemEnv::shared();
    let hs = HashStore::create(
        env,
        "/hs",
        HashStoreOptions {
            num_buckets: 64,
            sync_writes: false,
        },
    )
    .unwrap();
    let mut probes_at = Vec::new();
    for (lo, hi) in [(0u64, 2_000u64), (2_000, 8_000)] {
        for i in lo..hi {
            hs.put(&format_key(i), b"v").unwrap();
        }
        let mut probes = 0;
        for i in 0..200 {
            probes += hs.get_traced(&format_key(i * (hi - 1) / 200)).unwrap().1;
        }
        probes_at.push(probes);
    }
    assert!(
        probes_at[1] > probes_at[0] * 2,
        "hash-store probe cost should grow with data: {probes_at:?}"
    );
    assert!(hs.scan(b"", 10).is_err(), "hash stores cannot scan");
}

/// Claim (§I/O cost): UniKV's write amplification on a random load is
/// below the leveled-LSM baseline's.
#[test]
fn claim_write_amp_below_leveled_lsm() {
    let n = 6_000u64;
    let vs = 128usize;
    let mut uopts = UniKvOptions::small_for_tests();
    uopts.write_buffer_size = 8 << 10;
    uopts.unsorted_limit_bytes = 64 << 10;
    uopts.partition_size_limit = 256 << 10;
    let uni = UniKv::open(MemEnv::shared(), "/u", uopts).unwrap();

    let mut lopts = LsmOptions::baseline(Baseline::LevelDb);
    lopts.write_buffer_size = 8 << 10;
    lopts.table_size = 8 << 10;
    lopts.base_level_bytes = 32 << 10;
    let lsm = LsmDb::open(MemEnv::shared(), "/l", lopts).unwrap();

    let mut s = 0x1234u64;
    let mut order: Vec<u64> = (0..n).collect();
    for i in (1..order.len()).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    for &i in &order {
        uni.put(&format_key(i), &make_value(i, 0, vs)).unwrap();
        lsm.put(&format_key(i), &make_value(i, 0, vs)).unwrap();
    }
    let uni_wa = uni.write_amplification();
    let lsm_wa = lsm.write_amplification();
    assert!(
        uni_wa < lsm_wa,
        "UniKV WA ({uni_wa:.2}) should undercut leveled LSM WA ({lsm_wa:.2})"
    );
}

/// Claim (§Dynamic range partitioning): partitions have disjoint ranges,
/// reads route to exactly one, and scans cross boundaries seamlessly.
#[test]
fn claim_partitioning_scales_out() {
    let db = load_unikv(UniKvOptions::small_for_tests(), 4_000, 128);
    assert!(db.partition_count() >= 2, "expected splits");
    let bounds = db.partition_boundaries();
    assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    let items = db.scan(&format_key(0), 3_000).unwrap();
    assert_eq!(items.len(), 3_000);
    assert!(items.windows(2).all(|w| w[0].key < w[1].key));
}

/// Claim (§Scan optimization): the scan-triggered merge (here the full
/// merge, in place of the paper's size-based merge) keeps scans efficient
/// while leaving results identical.
#[test]
fn claim_scan_merge_preserves_results() {
    let run = |opt: bool| {
        let mut opts = UniKvOptions::small_for_tests();
        opts.enable_scan_optimization = opt;
        let db = load_unikv(opts, 2_000, 100);
        db.scan(&format_key(500), 100).unwrap()
    };
    assert_eq!(run(true), run(false));
}
