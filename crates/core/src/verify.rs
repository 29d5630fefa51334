//! Offline database scrub: walk every file the `META` snapshot commits to
//! and verify it end to end, without opening (and thus mutating) the
//! database. Backs `dbtool verify` and the corruption-recovery tests.
//!
//! The scrub is read-only and keeps going after the first problem so one
//! pass reports *all* damaged files:
//!
//! * `META` — decoded (embedded CRC).
//! * SSTables (both tiers) — existence, recorded size, and a full
//!   iteration so every data block's checksum is verified.
//! * WALs (active + sealed) — strict replay: a torn tail is normal crash
//!   residue, mid-log damage is corruption; every record must also decode
//!   as a write batch. A missing WAL file is *not* damage (a crash before
//!   the first synced append legitimately leaves none).
//! * Value logs (owned + inherited) — every record's framing and CRC.
//! * `INDEX.ckpt` — restore attempt (embedded CRC). Damage here is
//!   reported but recoverable: recovery rebuilds the index from tables.

use crate::batch::decode_batch_record;
use crate::meta::DbMeta;
use crate::partition::{decode_index_ckpt, table_options, INDEX_CKPT};
use crate::resolver::partition_dir;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use unikv_common::{Error, Result};
use unikv_env::Env;
use unikv_lsm::filenames;
use unikv_sstable::Table;
use unikv_vlog::{verify_vlog_file, vlog_file_name};
use unikv_wal::{LogReader, ReadOutcome};

/// One damaged file found by [`verify_db`].
#[derive(Debug, Clone)]
pub struct FileDamage {
    /// Path of the damaged file.
    pub path: PathBuf,
    /// File kind: `"META"`, `"sstable"`, `"wal"`, `"vlog"`, or
    /// `"index-ckpt"`.
    pub kind: &'static str,
    /// Human-readable description of the damage.
    pub detail: String,
}

/// Result of a full offline scrub.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Files examined (including the ones found damaged).
    pub files_checked: usize,
    /// Every damaged file, in scrub order.
    pub damage: Vec<FileDamage>,
}

impl VerifyReport {
    /// True when no file shows damage.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty()
    }

    fn flag(&mut self, path: &Path, kind: &'static str, detail: impl Into<String>) {
        self.damage.push(FileDamage {
            path: path.to_path_buf(),
            kind,
            detail: detail.into(),
        });
    }
}

/// Read every entry of the table at `path`, which verifies the footer,
/// the index block, and each data block's checksum. Also checks the file
/// size against the size `META` recorded at commit time.
fn verify_table(env: &Arc<dyn Env>, path: &Path, recorded_size: u64) -> Result<u64> {
    if !env.file_exists(path) {
        return Err(Error::corruption("file missing"));
    }
    let size = env.file_size(path)?;
    if size != recorded_size {
        return Err(Error::corruption(format!(
            "size {size} != recorded {recorded_size}"
        )));
    }
    let table = Table::open(env.new_random_access(path)?, size, table_options(None))?;
    let mut it = table.iter(true);
    it.seek_to_first()?;
    let mut entries = 0u64;
    while it.valid() {
        entries += 1;
        it.next()?;
    }
    Ok(entries)
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
/// `META` cannot be read at all); verification findings land in the
/// report.
pub fn verify_db(env: Arc<dyn Env>, root: impl AsRef<Path>) -> Result<VerifyReport> {
    let root = root.as_ref();
    let mut report = VerifyReport::default();

    let meta_path = root.join("META");
    report.files_checked += 1;
    if !env.file_exists(&meta_path) {
        report.flag(&meta_path, "META", "missing (database never created?)");
        return Ok(report);
    }
    let meta = match DbMeta::decode(&env.read_to_vec(&meta_path)?) {
        Ok(m) => m,
        Err(e) => {
            report.flag(&meta_path, "META", e.to_string());
            // Without META there is no file inventory to scrub against.
            return Ok(report);
        }
    };

    // Shared logs may be referenced by several partitions; scrub each once.
    let mut seen_vlogs: BTreeSet<(u32, u64)> = BTreeSet::new();
    for p in &meta.partitions {
        let dir = partition_dir(root, p.id);
        for tmeta in p.unsorted.iter().chain(&p.sorted) {
            let path = filenames::table_file(&dir, tmeta.number);
            report.files_checked += 1;
            if let Err(e) = verify_table(&env, &path, tmeta.size) {
                report.flag(&path, "sstable", e.to_string());
            }
        }
        for &n in p.sealed_wals.iter().chain([p.wal_number].iter()) {
            let path = filenames::wal_file(&dir, n);
            if !env.file_exists(&path) {
                continue; // crash before the first synced append
            }
            report.files_checked += 1;
            if let Err(e) = verify_wal(&env, &path) {
                report.flag(&path, "wal", e.to_string());
            }
        }
        for r in p
            .own_logs
            .iter()
            .map(|&n| (p.id, n))
            .chain(p.inherited_logs.iter().map(|l| (l.partition, l.log_number)))
        {
            if !seen_vlogs.insert(r) {
                continue;
            }
            let path = partition_dir(root, r.0).join(vlog_file_name(r.1));
            report.files_checked += 1;
            if !env.file_exists(&path) {
                report.flag(&path, "vlog", "file missing");
                continue;
            }
            if let Err(e) = verify_vlog_file(env.as_ref(), &path) {
                report.flag(&path, "vlog", e.to_string());
            }
        }
        let ckpt = dir.join(INDEX_CKPT);
        if env.file_exists(&ckpt) {
            report.files_checked += 1;
            if let Err(e) = env
                .read_to_vec(&ckpt)
                .and_then(|data| decode_index_ckpt(&data).map(|_| ()))
            {
                report.flag(&ckpt, "index-ckpt", e.to_string());
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

    #[test]
    fn missing_meta_is_reported_not_fatal() {
        let env = MemEnv::shared();
        let report = verify_db(env.clone() as Arc<dyn Env>, "/nowhere").unwrap();
        assert_eq!(report.damage.len(), 1);
        assert_eq!(report.damage[0].kind, "META");
    }

    #[test]
    fn flipped_sstable_byte_is_localized() {
        let env = MemEnv::shared();
        build_db(&env);
        // Find any committed table and damage the middle of it.
        let meta = DbMeta::decode(&env.read_to_vec(Path::new("/db/META")).unwrap()).unwrap();
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
