//! The inline-mode layout oracle: a fixed seeded workload must leave the
//! exact same files, byte for byte, on every build. Changes that claim to
//! keep the on-disk format (refactors, faster checksum or hash kernels)
//! must leave [`LAYOUT_DIGEST`] as it is; a change that means to alter the
//! format updates it and says why.
//!
//! The same workload, run under the manual step clock, must also leave the
//! same machine metrics report and engine counters ([`REPORT_DIGEST`]).
//! Every clock reading taken inside an inline flush or merge lands in the
//! triggering put's latency sample, so a refactor that adds, drops or
//! moves a clock read changes this digest.
//!
//! The digest uses `unikv_common::hash`, not CRC32C, so a checksum kernel
//! that drifted would change the file bytes and be caught here rather than
//! cancelling itself out.

use std::path::Path;
use std::sync::Arc;
use unikv::{manual_step_clock, UniKv, UniKvOptions};
use unikv_common::hash::hash64;
use unikv_common::rng::DetRng;
use unikv_env::mem::MemEnv;
use unikv_env::Env;

/// Digest of the files [`run_workload`] leaves behind. Every CRC32C
/// kernel must reproduce it. Last re-recorded when a scan that reads a
/// crowded partition began to run the full merge in place of the
/// size-based merge: the scans' 87 one-table merges became full merges
/// into the SortedStore (52 → 95 merges), which write value logs and
/// SortedStore tables and log no hash-index entries.
const LAYOUT_DIGEST: u64 = 0xe67f_f7c2_9eb9_71c7;

/// Digest of `metrics_report_machine()` after [`run_workload`]. Last
/// re-recorded with [`LAYOUT_DIGEST`], for the same merges; the
/// `scan_merges` family went away with the size-based merge.
const REPORT_DIGEST: u64 = 0x8c28_550f_2b1f_7f86;

/// Partition directories are `p<id>`; ids stay far below this bound for
/// the workload below (the byte-count check catches a miss).
const MAX_PARTITION_DIRS: u32 = 256;

/// Puts, overwrites, deletes and short scans (which merge the crowded
/// partitions they read) over a seeded key stream, with explicit flushes,
/// full merges and GC passes between rounds, on the default inline mode
/// (no worker threads) with the event journal off. The metrics clock is
/// the manual step clock from right after open. Also returns the number
/// of merges the scans ran.
fn run_workload(env: Arc<MemEnv>) -> (UniKv, u64) {
    let opts = UniKvOptions::small_for_tests();
    assert_eq!(opts.background_jobs, 0, "the oracle runs inline");
    assert!(
        !opts.enable_event_journal,
        "the oracle runs without a journal"
    );
    let db = UniKv::open(env, "/db", opts).unwrap();
    db.set_metrics_clock(Some(manual_step_clock(1)));
    let mut rng = DetRng::seed_from_u64(0x1a70_u64);
    let mut scan_merges = 0;
    for round in 0..6u64 {
        for i in 0..1500 {
            let key = format!("user{:08}", rng.u64_in(0..2500)).into_bytes();
            if i % 50 == 49 {
                let merges = db.metrics().merges.value();
                db.scan(&key, rng.usize_in_incl(1..=30)).unwrap();
                scan_merges += db.metrics().merges.value() - merges;
            } else if rng.u64_in(0..10) == 0 {
                db.delete(&key).unwrap();
            } else {
                let len = rng.usize_in_incl(16..=160);
                let value: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                db.put(&key, &value).unwrap();
            }
        }
        match round % 3 {
            0 => db.flush().unwrap(),
            1 => db.compact_all().unwrap(),
            _ => db.force_gc().unwrap(),
        }
    }
    (db, scan_merges)
}

/// Hash every file under `root` (names relative to it, sorted) together
/// with its bytes. Returns the digest and the number of bytes covered.
fn digest_files(env: &MemEnv, root: &Path) -> (u64, u64) {
    let mut dirs = vec![root.to_path_buf()];
    dirs.extend((0..MAX_PARTITION_DIRS).map(|id| root.join(format!("p{id}"))));
    let mut files = Vec::new();
    for dir in &dirs {
        for name in env.list_dir(dir).unwrap() {
            let path = dir.join(name);
            if !env.file_exists(&path) {
                continue; // a partition directory, walked on its own
            }
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            files.push((rel, path));
        }
    }
    files.sort();
    let mut digest = 0u64;
    let mut bytes = 0u64;
    for (rel, path) in files {
        let data = env.read_to_vec(&path).unwrap();
        bytes += data.len() as u64;
        digest = hash64(rel.as_bytes(), digest);
        digest = hash64(&data, digest);
    }
    (digest, bytes)
}

#[test]
fn inline_layout_is_byte_identical() {
    let env = MemEnv::shared();
    let (db, scan_merges) = run_workload(env.clone());
    let counters = db.metrics_snapshot().counters;
    for name in ["flushes", "merges", "gcs", "splits"] {
        assert!(counters[name] > 0, "workload ran no {name}");
    }
    assert!(scan_merges > 0, "no scan triggered a merge");
    drop(db);
    let (digest, bytes) = digest_files(&env, Path::new("/db"));
    assert_eq!(
        bytes,
        env.total_bytes(),
        "a file lies outside the walked dirs"
    );
    assert_eq!(
        digest, LAYOUT_DIGEST,
        "inline-mode layout changed: digest {digest:#018x}"
    );
}

#[test]
fn inline_report_is_byte_identical() {
    let (db, _) = run_workload(MemEnv::shared());
    let report = db.metrics_report_machine();
    let digest = hash64(report.as_bytes(), 0);
    assert_eq!(
        digest, REPORT_DIGEST,
        "inline-mode metrics report changed: digest {digest:#018x}\n{report}"
    );
}
