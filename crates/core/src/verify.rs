//! Offline database scrub: walk every file the `MANIFEST` commits to
//! and verify it end to end, without opening (and thus mutating) the
//! database. Backs `dbtool verify` and the corruption-recovery tests.
//!
//! The scrub is read-only and keeps going after the first problem so one
//! pass reports *all* damaged files:
//!
//! * `MANIFEST` — strict replay of every record (framing CRCs): a torn
//!   final record is crash residue, damage with intact records after it
//!   is corruption.
//! * SSTables (both tiers) — existence, recorded size, and a full
//!   iteration so every data block's checksum is verified; a hash-indexed
//!   table's record directory is checked against its blocks (every record
//!   listed once, with its length, CRC and key fingerprint).
//! * WALs (active + sealed) — strict replay: a torn tail is normal crash
//!   residue, mid-log damage is corruption; every record must also decode
//!   as a write batch. A missing WAL file is *not* damage (a crash before
//!   the first synced append legitimately leaves none).
//! * Value logs (owned + inherited) — every record's framing and CRC.
//! * Live value bytes — per partition, the lengths of the SortedStore's
//!   value pointers must sum to the `live_value_bytes` the manifest
//!   records, which the GC trigger reads.
//! * Pointer targets — every SortedStore pointer must address a log its
//!   partition names: one of its `own_logs`, or for another partition's
//!   log one of its `inherited_logs`. A log no partition names is deleted
//!   as an orphan at the next open, so such a pointer would dangle.

use crate::batch::decode_batch_record;
use crate::meta::{read_manifest, LogRef, MANIFEST};
use crate::partition::table_options;
use crate::resolver::{partition_dir, vlog_path};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use unikv_common::ikey::extract_user_key;
use unikv_common::pointer::SeparatedValue;
use unikv_common::{Error, Result};
use unikv_env::Env;
use unikv_lsm::filenames;
use unikv_sstable::{Table, TableOptions};
use unikv_vlog::verify_vlog_file;
use unikv_wal::{LogReader, ReadOutcome};

/// One damaged file found by [`verify_db`].
#[derive(Debug, Clone)]
pub struct FileDamage {
    /// Path of the damaged file.
    pub path: PathBuf,
    /// File kind: `"MANIFEST"`, `"sstable"`, `"wal"` or `"vlog"`.
    pub kind: &'static str,
    /// Human-readable description of the damage.
    pub detail: String,
}

/// A partition whose recorded live value bytes disagree with the value
/// pointers its SortedStore holds, found by [`verify_db`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveBytesMismatch {
    /// The partition id.
    pub partition: u32,
    /// `PartitionMeta::live_value_bytes` as the manifest records it.
    pub recorded: u64,
    /// The sum of the SortedStore's value-pointer lengths.
    pub pointed: u64,
}

/// SortedStore pointers into a value log their partition does not name,
/// found by [`verify_db`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrayPointers {
    /// The partition whose SortedStore holds the pointers.
    pub partition: u32,
    /// The log they address.
    pub log: LogRef,
    /// How many of its pointers address it.
    pub pointers: u64,
}

/// Result of a full offline scrub.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Files examined (including the ones found damaged).
    pub files_checked: usize,
    /// Every damaged file, in scrub order.
    pub damage: Vec<FileDamage>,
    /// Every partition whose live value bytes disagree with its
    /// SortedStore's pointers. Partitions with a damaged SortedStore
    /// table are not checked.
    pub live_bytes: Vec<LiveBytesMismatch>,
    /// Every log a partition's SortedStore points into without the
    /// partition naming it. Partitions with a damaged SortedStore table
    /// are not checked.
    pub stray_pointers: Vec<StrayPointers>,
}

impl VerifyReport {
    /// True when no file shows damage and every partition's live value
    /// bytes and pointer targets agree with its metadata.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty() && self.live_bytes.is_empty() && self.stray_pointers.is_empty()
    }

    fn flag(&mut self, path: &Path, kind: &'static str, detail: impl Into<String>) {
        self.damage.push(FileDamage {
            path: path.to_path_buf(),
            kind,
            detail: detail.into(),
        });
    }
}

/// Per value log a table's pointers address: how many address it and the
/// sum of their lengths.
type PointedLogs = BTreeMap<LogRef, (u64, u64)>;

/// Open the table at `path` that a commit names: the file must exist at
/// the size the manifest recorded, and its footer and index block must
/// parse. Each of these findings is an [`Error::Corruption`]; an I/O
/// error passes through. The scrub and the paranoid open both check
/// committed tables through here.
pub(crate) fn open_committed_table(
    env: &Arc<dyn Env>,
    path: &Path,
    recorded_size: u64,
    opts: TableOptions,
) -> Result<Arc<Table>> {
    if !env.file_exists(path) {
        return Err(Error::corruption("file missing"));
    }
    let size = env.file_size(path)?;
    if size != recorded_size {
        return Err(Error::corruption(format!(
            "size {size} != recorded {recorded_size}"
        )));
    }
    Table::open(env.new_random_access(path)?, size, opts)
        .map_err(|e| Error::corruption(format!("unreadable: {e}")))
}

/// Read every entry of the committed table at `path`, which verifies the
/// checks of [`open_committed_table`] and each data block's checksum, and
/// check its record directory, if it has one, against the blocks. Adds
/// the table's value pointers to `pointed`.
fn verify_table(
    env: &Arc<dyn Env>,
    path: &Path,
    recorded_size: u64,
    pointed: &mut PointedLogs,
) -> Result<()> {
    let table = open_committed_table(env, path, recorded_size, table_options(None))?;
    let mut it = table.iter(true);
    it.seek_to_first()?;
    while it.valid() {
        if let SeparatedValue::Pointer(ptr) = SeparatedValue::decode(it.value())? {
            let log = LogRef {
                partition: ptr.partition,
                log_number: ptr.log_number,
            };
            let (pointers, bytes) = pointed.entry(log).or_default();
            *pointers += 1;
            *bytes += u64::from(ptr.length);
        }
        it.next()?;
    }
    table.verify_record_directory(extract_user_key)?;
    Ok(())
}

/// Strict-replay the WAL at `path`: torn tails truncate (normal), mid-log
/// damage errors, and every surviving record must decode as a batch.
fn verify_wal(env: &Arc<dyn Env>, path: &Path) -> Result<u64> {
    let mut reader = LogReader::new_strict(env.new_sequential(path)?);
    let mut buf = Vec::new();
    let mut records = 0u64;
    while reader.read_record(&mut buf)? == ReadOutcome::Record {
        decode_batch_record(&buf)
            .map_err(|e| Error::corruption(format!("record {records} undecodable: {e}")))?;
        records += 1;
    }
    Ok(records)
}

/// Scrub the database under `root` offline and report per-file damage.
///
/// Requires exclusive access to a *closed* database: unlike
/// [`crate::UniKv::open`], nothing is flushed, committed, or deleted.
/// Returns `Err` only for environment-level failures (e.g. the root or
/// `MANIFEST` cannot be read at all); verification findings land in the
/// report.
pub fn verify_db(env: Arc<dyn Env>, root: impl AsRef<Path>) -> Result<VerifyReport> {
    let root = root.as_ref();
    let mut report = VerifyReport::default();

    let manifest = root.join(MANIFEST);
    report.files_checked += 1;
    let meta = match read_manifest(env.as_ref(), root) {
        Ok(Some(state)) => state.meta,
        Ok(None) => {
            report.flag(&manifest, "MANIFEST", "missing (database never created?)");
            return Ok(report);
        }
        Err(e) if e.is_corruption() => {
            report.flag(&manifest, "MANIFEST", e.to_string());
            // Without the manifest there is no file inventory to scrub.
            return Ok(report);
        }
        Err(e) => return Err(e),
    };

    // Shared logs may be referenced by several partitions; scrub each once.
    let mut seen_vlogs: BTreeSet<LogRef> = BTreeSet::new();
    for p in &meta.partitions {
        let dir = partition_dir(root, p.id);
        // The SortedStore's pointers, checked unless one of its tables is
        // damaged.
        let (mut pointed, mut damaged) = (PointedLogs::new(), false);
        for (i, tmeta) in p.tables().enumerate() {
            let path = filenames::table_file(&dir, tmeta.number);
            report.files_checked += 1;
            let sorted = i >= p.unsorted.len();
            let mut unsorted = PointedLogs::new();
            let sink = if sorted { &mut pointed } else { &mut unsorted };
            if let Err(e) = verify_table(&env, &path, tmeta.size, sink) {
                report.flag(&path, "sstable", e.to_string());
                damaged |= sorted;
            }
        }
        if !damaged {
            let bytes = pointed.values().map(|&(_, bytes)| bytes).sum();
            if bytes != p.live_value_bytes {
                report.live_bytes.push(LiveBytesMismatch {
                    partition: p.id,
                    recorded: p.live_value_bytes,
                    pointed: bytes,
                });
            }
            for (&log, &(pointers, _)) in &pointed {
                if !p.names_log(&log) {
                    report.stray_pointers.push(StrayPointers {
                        partition: p.id,
                        log,
                        pointers,
                    });
                }
            }
        }
        for n in p.wals() {
            let path = filenames::wal_file(&dir, n);
            if !env.file_exists(&path) {
                continue; // crash before the first synced append
            }
            report.files_checked += 1;
            if let Err(e) = verify_wal(&env, &path) {
                report.flag(&path, "wal", e.to_string());
            }
        }
        for log in p.logs() {
            if !seen_vlogs.insert(log) {
                continue;
            }
            let path = vlog_path(root, log.partition, log.log_number);
            report.files_checked += 1;
            if !env.file_exists(&path) {
                report.flag(&path, "vlog", "file missing");
                continue;
            }
            if let Err(e) = verify_vlog_file(env.as_ref(), &path) {
                report.flag(&path, "vlog", e.to_string());
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::UniKv;
    use crate::options::UniKvOptions;
    use unikv_env::mem::MemEnv;

    fn build_db(env: &Arc<MemEnv>) -> usize {
        let db = UniKv::open(
            env.clone() as Arc<dyn Env>,
            "/db",
            UniKvOptions::small_for_tests(),
        )
        .unwrap();
        for i in 0..400u32 {
            db.put(format!("key{i:04}").as_bytes(), &[b'v'; 64])
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        400
    }

    #[test]
    fn clean_database_verifies_clean() {
        let env = MemEnv::shared();
        build_db(&env);
        let report = verify_db(env.clone() as Arc<dyn Env>, "/db").unwrap();
        assert!(report.is_clean(), "unexpected damage: {:?}", report.damage);
        assert!(report.files_checked > 3, "scrub saw {report:?}");
    }

    /// Merges, GCs and splits, inline and on worker threads, keep every
    /// partition's recorded live value bytes equal to the lengths of its
    /// SortedStore's pointers, and every key reads its last written value,
    /// by get and by a full scan, before and after a reopen: a pointer
    /// into a deleted log fails the reads, not only the scrub.
    #[test]
    fn live_value_bytes_match_after_merges_gc_and_split() {
        const ROUNDS: u32 = 6;
        let key = |i: u32| format!("key{i:05}").into_bytes();
        let value = |round: u32, i: u32| format!("{round}-{i}-").repeat(12).into_bytes();
        // Round `r` rewrites the keys `i` with `i % ROUNDS >= r`, so key `i`
        // keeps the value of round `i % ROUNDS` through the later merges,
        // GCs and splits.
        let check_reads = |db: &UniKv, when: &str| {
            let expected: Vec<(Vec<u8>, Vec<u8>)> =
                (0..1500).map(|i| (key(i), value(i % ROUNDS, i))).collect();
            for (k, v) in &expected {
                let got = db.get(k).unwrap_or_else(|e| panic!("{when}: get: {e}"));
                assert_eq!(got.as_ref(), Some(v), "{when}: get");
            }
            let scanned = db
                .scan(b"", usize::MAX)
                .unwrap_or_else(|e| panic!("{when}: scan: {e}"));
            let scanned: Vec<(Vec<u8>, Vec<u8>)> =
                scanned.into_iter().map(|it| (it.key, it.value)).collect();
            assert!(scanned == expected, "{when}: scan");
        };
        for background_jobs in [0, 2] {
            let env = MemEnv::shared();
            let opts = UniKvOptions {
                background_jobs,
                ..UniKvOptions::small_for_tests()
            };
            let open = || UniKv::open(env.clone() as Arc<dyn Env>, "/db", opts.clone()).unwrap();
            let db = open();
            for round in 0..ROUNDS {
                for i in (0..1500u32).filter(|i| i % ROUNDS >= round) {
                    db.put(&key(i), &value(round, i)).unwrap();
                }
            }
            db.wait_for_background();
            let counters = db.metrics_snapshot().counters;
            for op in ["merges", "gcs", "splits"] {
                assert!(counters[op] > 0, "mode {background_jobs}: no {op} ran");
            }
            check_reads(&db, &format!("mode {background_jobs}, before the reopen"));
            drop(db);
            let report = verify_db(env.clone() as Arc<dyn Env>, "/db").unwrap();
            assert!(report.is_clean(), "mode {background_jobs}: {report:?}");
            check_reads(
                &open(),
                &format!("mode {background_jobs}, after the reopen"),
            );
        }
    }

    /// Commit the manifest of the closed database at `root` again, with
    /// `edit` applied to its state.
    fn recommit(env: &Arc<MemEnv>, root: &Path, edit: impl FnOnce(&mut crate::meta::DbMeta)) {
        use crate::maintenance::SyncPoints;
        use crate::meta::{Header, ManifestWriter, PartitionView};
        use unikv_hashindex::TwoLevelHashIndex;

        let mut meta = read_manifest(env.as_ref(), root).unwrap().unwrap().meta;
        edit(&mut meta);
        let index = TwoLevelHashIndex::with_capacity(1, 1);
        let views: Vec<PartitionView> = meta
            .partitions
            .iter()
            .map(|p| PartitionView {
                meta: p,
                index: Some(&index),
                new_entries: &[],
            })
            .collect();
        let header = Header {
            last_sequence: meta.last_sequence,
            next_file: meta.next_file,
            next_partition: meta.next_partition,
        };
        ManifestWriter::new(root, None)
            .commit(env.as_ref(), &SyncPoints::default(), header, &views)
            .unwrap();
    }

    /// A manifest whose live value bytes disagree with the SortedStore is
    /// reported as a typed mismatch, and the files as undamaged.
    #[test]
    fn wrong_live_value_bytes_is_reported() {
        let env = MemEnv::shared();
        build_db(&env);
        let root = Path::new("/db");
        let meta = read_manifest(env.as_ref(), root).unwrap().unwrap().meta;
        let recorded = meta.partitions[0].live_value_bytes;
        assert!(recorded > 0, "the merge separated values");
        recommit(&env, root, |meta| meta.partitions[0].live_value_bytes += 1);

        let report = verify_db(env.clone() as Arc<dyn Env>, root).unwrap();
        assert!(report.damage.is_empty(), "damage: {:?}", report.damage);
        assert_eq!(
            report.live_bytes,
            vec![LiveBytesMismatch {
                partition: meta.partitions[0].id,
                recorded: recorded + 1,
                pointed: recorded,
            }]
        );
        assert!(!report.is_clean());
    }

    /// A split child whose manifest entry no longer names an inherited log
    /// its SortedStore still points into is reported, with the pointers
    /// into that log counted; the files stay undamaged.
    #[test]
    fn pointers_into_an_unnamed_log_are_reported() {
        let env = MemEnv::shared();
        let db = UniKv::open(
            env.clone() as Arc<dyn Env>,
            "/db",
            UniKvOptions::small_for_tests(),
        )
        .unwrap();
        for i in 0..3000u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'v'; 64])
                .unwrap();
        }
        drop(db);
        let root = Path::new("/db");
        let clean = verify_db(env.clone() as Arc<dyn Env>, root).unwrap();
        assert!(clean.is_clean(), "{clean:?}");
        let meta = read_manifest(env.as_ref(), root).unwrap().unwrap().meta;
        let (i, child) = meta
            .partitions
            .iter()
            .enumerate()
            .find(|(_, p)| !p.inherited_logs.is_empty())
            .expect("a split child still shares its parent's logs");
        let (id, dropped) = (child.id, child.inherited_logs[0]);
        recommit(&env, root, |meta| {
            meta.partitions[i].inherited_logs.remove(0);
        });

        let report = verify_db(env.clone() as Arc<dyn Env>, root).unwrap();
        assert!(report.damage.is_empty(), "damage: {:?}", report.damage);
        assert!(report.live_bytes.is_empty(), "{:?}", report.live_bytes);
        assert_eq!(report.stray_pointers.len(), 1, "{report:?}");
        let stray = &report.stray_pointers[0];
        assert_eq!((stray.partition, stray.log), (id, dropped));
        assert!(stray.pointers > 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn missing_meta_is_reported_not_fatal() {
        let env = MemEnv::shared();
        let report = verify_db(env.clone() as Arc<dyn Env>, "/nowhere").unwrap();
        assert_eq!(report.damage.len(), 1);
        assert_eq!(report.damage[0].kind, "MANIFEST");
    }

    #[test]
    fn flipped_sstable_byte_is_localized() {
        let env = MemEnv::shared();
        build_db(&env);
        // Find any committed table and damage the middle of it.
        let meta = read_manifest(env.as_ref(), Path::new("/db"))
            .unwrap()
            .unwrap()
            .meta;
        let p = &meta.partitions[0];
        let t = p.sorted.first().or(p.unsorted.first()).unwrap();
        let path = filenames::table_file(&partition_dir(Path::new("/db"), p.id), t.number);
        let mut data = env.read_to_vec(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        let mut w = env.new_writable(&path).unwrap();
        w.append(&data).unwrap();
        drop(w);

        let report = verify_db(env.clone() as Arc<dyn Env>, "/db").unwrap();
        assert_eq!(report.damage.len(), 1, "damage: {:?}", report.damage);
        assert_eq!(report.damage[0].kind, "sstable");
        assert_eq!(report.damage[0].path, path);
    }
}
