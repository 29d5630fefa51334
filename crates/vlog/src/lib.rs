#![warn(missing_docs)]

//! Value logs for partial KV separation (paper §Partial KV separation).
//!
//! Each partition owns a set of numbered, append-only log files. When keys
//! merge from the UnsortedStore into the SortedStore, their values are
//! appended here and the SortedStore keeps `<partition, logNumber, offset,
//! length>` pointers. GC rewrites the live values of selected logs into a
//! fresh log and deletes the old files.
//!
//! Record format: `varint32(len) | value | fixed32(masked crc of value)`.
//! The pointer's `offset` addresses the record start and `length` the value
//! payload, so a read can cross-check both framing and checksum.

use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use unikv_common::coding::{get_varint32, put_varint32, varint64_length};
use unikv_common::metrics::Counter;
use unikv_common::perf::{self, PerfStage};
use unikv_common::{crc32c, Error, Result, ValuePointer};
use unikv_env::{Env, RandomAccessFile, WritableFile};

/// File-name suffix for value logs.
pub const VLOG_SUFFIX: &str = "vlog";

/// Build the file name of log `number`.
pub fn vlog_file_name(number: u64) -> String {
    format!("{number:06}.{VLOG_SUFFIX}")
}

/// Parse a value-log file name back to its number.
pub fn parse_vlog_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(&format!(".{VLOG_SUFFIX}"))?;
    stem.parse().ok()
}

/// Bytes the record of a `len`-byte value occupies in its log:
/// `varint32(len) + len + 4`. The record of the next value appended to the
/// same log starts this many bytes after this one.
pub fn record_size(len: u32) -> u64 {
    (varint64_length(u64::from(len)) + len as usize + 4) as u64
}

/// Check the record that `data` holds (exactly [`record_size`] bytes as
/// read) against the pointer's `expected_len` and return where its value
/// lies in `data`: the length prefix must match, the record must be whole,
/// and the CRC must verify. Every read path goes through here, so
/// single-record and run reads apply identical checks.
fn decode_record(data: &[u8], expected_len: u32) -> Result<Range<usize>> {
    let (len, n) = get_varint32(data)?;
    if len != expected_len {
        return Err(Error::corruption(format!(
            "vlog length mismatch: pointer says {expected_len}, record says {len}"
        )));
    }
    let end = n + len as usize;
    if data.len() < end + 4 {
        return Err(Error::corruption("vlog record truncated"));
    }
    let stored = u32::from_le_bytes(data[end..end + 4].try_into().expect("4 bytes"));
    if crc32c::unmask(stored) != crc32c::value(&data[n..end]) {
        return Err(Error::corruption("vlog value crc mismatch"));
    }
    perf::count_vlog_fetch();
    Ok(n..end)
}

/// Read and verify one value record at `offset` in a log file, expecting a
/// value of `expected_len` bytes. Every single-value read goes through
/// here: the engine resolves pointers of any partition with it, a split
/// child's pointers into its parent's shared logs included.
pub fn read_value_record(
    file: &dyn RandomAccessFile,
    offset: u64,
    expected_len: u32,
) -> Result<Vec<u8>> {
    let mut data = file.read_at(offset, record_size(expected_len) as usize)?;
    let value = decode_record(&data, expected_len)?;
    data.truncate(value.end);
    data.drain(..value.start);
    perf::mark(PerfStage::VlogFetch);
    Ok(data)
}

/// Read a run of records that sit back to back in one log file — the
/// first at `offset`, then one per entry of `lengths`, each starting where
/// the previous record ends — with a single read, and hand each value to
/// `each` with its position in the run. Each record gets the checks of
/// [`read_value_record`]; a buffer cut short (a run past the end of the
/// file) is [`Error::Corruption`]. All or nothing: every record is
/// verified before the first value is handed out.
pub fn read_value_run(
    file: &dyn RandomAccessFile,
    offset: u64,
    lengths: impl Iterator<Item = u32> + Clone,
    mut each: impl FnMut(usize, &[u8]),
) -> Result<()> {
    let total: u64 = lengths.clone().map(record_size).sum();
    let data = file.read_at(offset, total as usize)?;
    let mut pos = 0usize;
    for len in lengths.clone() {
        let end = pos + record_size(len) as usize;
        let record = data
            .get(pos..end)
            .ok_or_else(|| Error::corruption("vlog run truncated"))?;
        decode_record(record, len)?;
        pos = end;
    }
    // A verified record is exactly `record_size(len)` bytes, so its length
    // prefix is the shortest encoding and the value starts right after it.
    let mut pos = 0usize;
    for (i, len) in lengths.enumerate() {
        let start = pos + varint64_length(u64::from(len));
        each(i, &data[start..start + len as usize]);
        pos += record_size(len) as usize;
    }
    perf::mark(PerfStage::VlogFetch);
    Ok(())
}

/// Walk every record in the value-log file at `path`, verifying framing
/// and checksums front to back (offline scrub; `dbtool verify`). Returns
/// the record count on success; the first damaged record yields
/// [`Error::Corruption`] naming its offset.
pub fn verify_vlog_file(env: &dyn Env, path: &Path) -> Result<u64> {
    let size = env.file_size(path)?;
    let file = env.new_random_access(path)?;
    let mut offset = 0u64;
    let mut records = 0u64;
    while offset < size {
        let header = file.read_at(offset, 5.min((size - offset) as usize))?;
        let (len, n) = get_varint32(&header).map_err(|_| {
            Error::corruption(format!("vlog record header unreadable at offset {offset}"))
        })?;
        let end = offset + n as u64 + u64::from(len) + 4;
        if end > size {
            return Err(Error::corruption(format!(
                "vlog record at offset {offset} overruns the file"
            )));
        }
        read_value_record(file.as_ref(), offset, len)
            .map_err(|e| Error::corruption(format!("vlog record at offset {offset}: {e}")))?;
        offset = end;
        records += 1;
    }
    Ok(records)
}

struct ActiveLog {
    number: u64,
    file: Box<dyn WritableFile>,
}

/// The set of value-log files belonging to one partition.
///
/// It only writes: values are read back with [`read_value_record`].
///
/// ```
/// use std::path::Path;
/// use unikv_env::{mem::MemEnv, Env};
/// use unikv_vlog::{read_value_record, vlog_file_name, ValueLog};
///
/// let env = MemEnv::shared();
/// let mut vlog = ValueLog::open(env.clone(), "/p0", 0, 1 << 20).unwrap();
/// let ptr = vlog.append(b"payload").unwrap();
/// vlog.sync().unwrap();
/// let path = Path::new("/p0").join(vlog_file_name(ptr.log_number));
/// let file = env.new_random_access(&path).unwrap();
/// let value = read_value_record(file.as_ref(), ptr.offset, ptr.length).unwrap();
/// assert_eq!(value, b"payload");
/// ```
pub struct ValueLog {
    env: Arc<dyn Env>,
    dir: PathBuf,
    partition: u32,
    max_log_size: u64,
    active: Option<ActiveLog>,
    next_number: u64,
    /// Size per sealed/active log file.
    sizes: HashMap<u64, u64>,
    metrics: Option<VlogMetrics>,
}

/// Registry-backed value-log counters, shared by every partition's log.
#[derive(Clone)]
pub struct VlogMetrics {
    /// Values appended.
    pub appends: Counter,
    /// Value payload bytes appended (excludes length prefix and CRC).
    pub append_bytes: Counter,
    /// Log-file rotations.
    pub rotations: Counter,
}

impl VlogMetrics {
    /// Register the value-log families in `registry`.
    pub fn new(registry: &unikv_common::metrics::MetricsRegistry) -> VlogMetrics {
        VlogMetrics {
            appends: registry.counter("vlog_appends"),
            append_bytes: registry.counter("vlog_append_bytes"),
            rotations: registry.counter("vlog_rotations"),
        }
    }
}

impl ValueLog {
    /// Open (or create) the value-log set in `dir`. Existing `*.vlog`
    /// files are discovered and become readable immediately.
    pub fn open(
        env: Arc<dyn Env>,
        dir: impl Into<PathBuf>,
        partition: u32,
        max_log_size: u64,
    ) -> Result<ValueLog> {
        let dir = dir.into();
        env.create_dir_all(&dir)?;
        let mut sizes = HashMap::new();
        let mut next_number = 1;
        for name in env.list_dir(&dir)? {
            if let Some(n) = name.to_str().and_then(parse_vlog_file_name) {
                sizes.insert(n, env.file_size(&dir.join(name))?);
                next_number = next_number.max(n + 1);
            }
        }
        Ok(ValueLog {
            env,
            dir,
            partition,
            max_log_size,
            active: None,
            next_number,
            sizes,
            metrics: None,
        })
    }

    /// Attach value-log counters (builder-style; tests skip it).
    pub fn set_metrics(&mut self, metrics: VlogMetrics) {
        self.metrics = Some(metrics);
    }

    fn log_path(&self, number: u64) -> PathBuf {
        self.dir.join(vlog_file_name(number))
    }

    /// Force subsequent appends into a brand-new log file; returns its
    /// number. Used by GC and by partition splits to segregate rewrites.
    pub fn rotate(&mut self) -> Result<u64> {
        if let Some(active) = &mut self.active {
            active.file.sync()?;
        }
        self.active = None;
        let number = self.next_number;
        self.next_number += 1;
        let file = self.env.new_writable(&self.log_path(number))?;
        self.sizes.insert(number, 0);
        self.active = Some(ActiveLog { number, file });
        if let Some(m) = &self.metrics {
            m.rotations.inc();
        }
        Ok(number)
    }

    /// Append `value`, returning its pointer. Rotates to a new log when the
    /// active one exceeds the size limit.
    pub fn append(&mut self, value: &[u8]) -> Result<ValuePointer> {
        let needs_rotation = match &self.active {
            None => true,
            Some(a) => a.file.len() >= self.max_log_size,
        };
        if needs_rotation {
            self.rotate()?;
        }
        let active = self.active.as_mut().expect("rotated above");
        let offset = active.file.len();
        let mut buf = Vec::with_capacity(record_size(value.len() as u32) as usize);
        put_varint32(&mut buf, value.len() as u32);
        buf.extend_from_slice(value);
        buf.extend_from_slice(&crc32c::mask(crc32c::value(value)).to_le_bytes());
        active.file.append(&buf)?;
        *self.sizes.get_mut(&active.number).expect("tracked") = active.file.len();
        if let Some(m) = &self.metrics {
            m.appends.inc();
            m.append_bytes.add(value.len() as u64);
        }
        Ok(ValuePointer {
            partition: self.partition,
            log_number: active.number,
            offset,
            length: value.len() as u32,
        })
    }

    /// Durably sync the active log.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(active) = &mut self.active {
            active.file.sync()?;
        }
        Ok(())
    }

    /// Numbers of all live logs, ascending.
    pub fn log_numbers(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.sizes.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Size of one log file.
    pub fn log_size(&self, number: u64) -> Option<u64> {
        self.sizes.get(&number).copied()
    }

    /// Total bytes across all logs.
    pub fn total_size(&self) -> u64 {
        self.sizes.values().sum()
    }

    /// Delete the given log files (post-GC). Deleting the active log seals
    /// it first. Missing files are an error.
    pub fn delete_logs(&mut self, numbers: &[u64]) -> Result<()> {
        for &n in numbers {
            if self.active.as_ref().is_some_and(|a| a.number == n) {
                self.active = None;
            }
            self.sizes.remove(&n);
            self.env.delete_file(&self.log_path(n))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_env::mem::MemEnv;

    fn new_vlog(env: &Arc<MemEnv>, max: u64) -> ValueLog {
        ValueLog::open(env.clone(), "/p0/vlog", 7, max).unwrap()
    }

    /// Read the value `ptr` addresses in the logs `new_vlog` writes.
    fn read(env: &Arc<MemEnv>, ptr: &ValuePointer) -> Result<Vec<u8>> {
        let path = Path::new("/p0/vlog").join(vlog_file_name(ptr.log_number));
        let file = env.new_random_access(&path)?;
        read_value_record(file.as_ref(), ptr.offset, ptr.length)
    }

    #[test]
    fn file_name_roundtrip() {
        assert_eq!(vlog_file_name(42), "000042.vlog");
        assert_eq!(parse_vlog_file_name("000042.vlog"), Some(42));
        assert_eq!(parse_vlog_file_name("junk"), None);
        assert_eq!(parse_vlog_file_name("x.vlog"), None);
    }

    #[test]
    fn append_read_roundtrip() {
        let env = MemEnv::shared();
        let mut vl = new_vlog(&env, 1 << 20);
        let values: Vec<Vec<u8>> = (0..100u32)
            .map(|i| format!("value-{i}").repeat(i as usize % 7 + 1).into_bytes())
            .collect();
        let ptrs: Vec<ValuePointer> = values.iter().map(|v| vl.append(v).unwrap()).collect();
        vl.sync().unwrap();
        for (v, p) in values.iter().zip(&ptrs) {
            assert_eq!(p.partition, 7);
            assert_eq!(&read(&env, p).unwrap(), v);
        }
    }

    #[test]
    fn rotation_bounds_log_size() {
        let env = MemEnv::shared();
        let mut vl = new_vlog(&env, 256);
        for _ in 0..100 {
            vl.append(&[9u8; 64]).unwrap();
        }
        let logs = vl.log_numbers();
        assert!(logs.len() > 10, "expected many rotated logs, got {logs:?}");
        for &n in &logs {
            // Each log holds at most ~(max + one record) bytes.
            assert!(vl.log_size(n).unwrap() <= 256 + 64 + 9);
        }
        assert_eq!(
            vl.total_size(),
            logs.iter().map(|&n| vl.log_size(n).unwrap()).sum::<u64>()
        );
    }

    #[test]
    fn delete_logs_removes_files() {
        let env = MemEnv::shared();
        let mut vl = new_vlog(&env, 64);
        let mut ptrs = Vec::new();
        for i in 0..20u8 {
            ptrs.push(vl.append(&[i; 32]).unwrap());
        }
        let logs = vl.log_numbers();
        let (victims, survivors) = logs.split_at(logs.len() / 2);
        vl.delete_logs(victims).unwrap();
        assert_eq!(vl.log_numbers(), survivors);
        // Pointers into deleted logs now fail; survivors still read.
        for p in &ptrs {
            let ok = read(&env, p).is_ok();
            assert_eq!(ok, survivors.contains(&p.log_number));
        }
    }

    #[test]
    fn reopen_recovers_existing_logs() {
        let env = MemEnv::shared();
        let (ptrs, values): (Vec<_>, Vec<_>) = {
            let mut vl = new_vlog(&env, 128);
            let values: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i; 40]).collect();
            let ptrs: Vec<_> = values.iter().map(|v| vl.append(v).unwrap()).collect();
            vl.sync().unwrap();
            (ptrs, values)
        };
        let mut vl2 = new_vlog(&env, 128);
        for (p, v) in ptrs.iter().zip(&values) {
            assert_eq!(&read(&env, p).unwrap(), v);
        }
        // New appends go to a fresh number beyond recovered ones.
        let before = vl2.log_numbers().len();
        let p = vl2.append(b"new").unwrap();
        assert!(vl2.log_numbers().len() == before + 1);
        assert_eq!(read(&env, &p).unwrap(), b"new");
    }

    #[test]
    fn corruption_detected() {
        let env = MemEnv::shared();
        let mut vl = new_vlog(&env, 1 << 20);
        let p = vl.append(b"precious").unwrap();
        vl.sync().unwrap();
        // Corrupt the payload byte under the pointer.
        let path = std::path::Path::new("/p0/vlog").join(vlog_file_name(p.log_number));
        let mut data = env.read_to_vec(&path).unwrap();
        data[p.offset as usize + 2] ^= 0x1;
        let mut w = env.new_writable(&path).unwrap();
        w.append(&data).unwrap();
        drop(w);
        assert!(read(&env, &p).unwrap_err().is_corruption());
        // Length mismatch also detected.
        let bad = ValuePointer {
            length: p.length + 1,
            ..p
        };
        assert!(read(&env, &bad).is_err());
    }

    #[test]
    fn verify_walks_clean_log_and_flags_damage() {
        let env = MemEnv::shared();
        let mut vl = new_vlog(&env, 1 << 20);
        let ptrs: Vec<ValuePointer> = (0..10u8).map(|i| vl.append(&[i; 20]).unwrap()).collect();
        vl.sync().unwrap();
        let path = std::path::Path::new("/p0/vlog").join(vlog_file_name(ptrs[0].log_number));
        assert_eq!(verify_vlog_file(env.as_ref(), &path).unwrap(), 10);

        // Flip one payload byte: verify must localize the damage.
        let mut data = env.read_to_vec(&path).unwrap();
        data[ptrs[4].offset as usize + 3] ^= 0x80;
        let mut w = env.new_writable(&path).unwrap();
        w.append(&data).unwrap();
        drop(w);
        let err = verify_vlog_file(env.as_ref(), &path).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        assert!(err.to_string().contains(&ptrs[4].offset.to_string()));

        // Truncate mid-record: overrun detected.
        let mut w = env.new_writable(&path).unwrap();
        w.append(&data[..ptrs[9].offset as usize + 2]).unwrap();
        drop(w);
        assert!(verify_vlog_file(env.as_ref(), &path)
            .unwrap_err()
            .is_corruption());
    }

    #[test]
    fn empty_value_roundtrip() {
        let env = MemEnv::shared();
        let mut vl = new_vlog(&env, 1 << 20);
        let p = vl.append(b"").unwrap();
        assert_eq!(read(&env, &p).unwrap(), Vec::<u8>::new());
    }
}
