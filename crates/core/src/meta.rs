//! Persistent database metadata: the partition index, per-partition file
//! inventories and the hash-index entries of every UnsortedStore table,
//! kept in one append-only edit log, `MANIFEST`, in the database root.
//!
//! As in the paper (and LevelDB), the manifest has WAL semantics. It uses
//! the WAL's record framing, so each record is CRC-checked and a torn
//! final record is dropped. The first record is a *snapshot* of the whole
//! state. Every later record is an *edit* appended by one commit (flush,
//! merge, GC, split, seal). An edit carries the header counters, the full
//! encoding of each partition the commit changed, the ids of removed
//! partitions, and the hash-index entries the commit added. The synced
//! append is the commit point of every structural change. Files created
//! before it lands are orphans that recovery deletes.
//!
//! Logging the index entries with the table list that names their table
//! means the two always commit together: recovery replays the entries of
//! the live tables and never reads a table to rebuild the index.
//!
//! Once the log outgrows `COMPACT_FACTOR` (4) times its snapshot record,
//! the next commit writes a fresh snapshot to a temporary file and renames
//! it over `MANIFEST`. So does the first commit after opening, and the
//! first after a failed append, whose torn bytes must not be followed by
//! more records.

use crate::maintenance::SyncPoints;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use unikv_common::coding::{
    get_length_prefixed_slice, get_varint32, get_varint64, put_length_prefixed_slice, put_varint32,
    put_varint64,
};
use unikv_common::{Error, Result};
use unikv_env::Env;
use unikv_hashindex::TwoLevelHashIndex;
use unikv_wal::{LogReader, LogWriter, ReadOutcome};

/// The manifest's file name in the database root. It must not end in a
/// data-file extension (`.wal`, `.sst`, `.vlog`).
pub const MANIFEST: &str = "MANIFEST";

/// The whole-snapshot file an earlier on-disk format kept instead of the
/// manifest. Opening a directory that holds only this file is an error.
const LEGACY_META: &str = "META";

/// A fresh snapshot replaces the log once the log exceeds this many times
/// the size of its snapshot record.
const COMPACT_FACTOR: u64 = 4;

/// Record kinds.
const SNAPSHOT: u8 = 1;
const EDIT: u8 = 2;

/// A logged hash-index entry: `(bucket, tag, table)`, as returned by
/// [`TwoLevelHashIndex::insert`] and fed to [`TwoLevelHashIndex::replay`].
pub type IndexEntry = (u32, u16, u32);

/// Metadata of one SSTable (in either tier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// File number within the partition directory.
    pub number: u64,
    /// File size in bytes.
    pub size: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
}

/// A reference to a value log owned by (possibly) another partition —
/// the lazy-split sharing mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogRef {
    /// Owning partition id (directory the file lives in).
    pub partition: u32,
    /// Log file number.
    pub log_number: u64,
}

/// Snapshot of one partition's state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionMeta {
    /// Partition id (names the directory `p<id>`).
    pub id: u32,
    /// Inclusive lower boundary of the key range (empty = -∞).
    pub lo: Vec<u8>,
    /// Exclusive upper boundary; `None` = +∞.
    pub hi: Option<Vec<u8>>,
    /// WAL file number currently receiving writes.
    pub wal_number: u64,
    /// UnsortedStore tables in flush order (oldest first).
    pub unsorted: Vec<TableMeta>,
    /// SortedStore run, ordered by key, non-overlapping.
    pub sorted: Vec<TableMeta>,
    /// Value logs owned by this partition.
    pub own_logs: Vec<u64>,
    /// Shared logs inherited from a split parent, still referenced by
    /// pointers in this partition's SortedStore.
    pub inherited_logs: Vec<LogRef>,
    /// Sum of live separated-value lengths in the SortedStore (GC trigger
    /// bookkeeping; recomputed at each merge). These are payload bytes,
    /// while log sizes count whole records (length prefix and CRC too):
    /// at 256 B values the two units are about 2.3% apart, so the
    /// partition-wide ratio in `gc_due` reads slightly more garbage than
    /// GC's per-log victim test, which sums record bytes. The split
    /// trigger (`Partition::logical_size`) also reads this field.
    pub live_value_bytes: u64,
    /// WAL numbers of sealed (immutable) memtables awaiting a background
    /// flush, oldest first. Recovery replays them before the active WAL.
    /// Empty in deterministic inline mode (`background_jobs = 0`).
    pub sealed_wals: Vec<u64>,
}

/// Whole-database state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbMeta {
    /// All partitions, ordered by `lo`.
    pub partitions: Vec<PartitionMeta>,
    /// Next partition id to allocate.
    pub next_partition: u32,
    /// Next file number to allocate (global across partitions).
    pub next_file: u64,
    /// Last committed sequence number covered by flushed data.
    pub last_sequence: u64,
}

impl Default for DbMeta {
    fn default() -> Self {
        DbMeta {
            partitions: vec![PartitionMeta {
                id: 0,
                ..Default::default()
            }],
            next_partition: 1,
            next_file: 1,
            last_sequence: 0,
        }
    }
}

/// Bounds-checked reader over an encoded record.
struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a [u8]) -> Self {
        Cursor { src, pos: 0 }
    }

    fn rest(&self) -> &'a [u8] {
        &self.src[self.pos..]
    }

    fn v32(&mut self) -> Result<u32> {
        let (v, n) = get_varint32(self.rest())?;
        self.pos += n;
        Ok(v)
    }

    fn v64(&mut self) -> Result<u64> {
        let (v, n) = get_varint64(self.rest())?;
        self.pos += n;
        Ok(v)
    }

    fn slice(&mut self) -> Result<Vec<u8>> {
        let (s, n) = get_length_prefixed_slice(self.rest())?;
        self.pos += n;
        Ok(s.to_vec())
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N]> {
        let b = self
            .rest()
            .get(..N)
            .ok_or_else(|| Error::corruption("manifest record truncated"))?;
        self.pos += N;
        Ok(b.try_into().expect("N bytes"))
    }

    fn table(&mut self) -> Result<TableMeta> {
        Ok(TableMeta {
            number: self.v64()?,
            size: self.v64()?,
            smallest: self.slice()?,
            largest: self.slice()?,
        })
    }

    /// A count-prefixed list of `item`s.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.v32()?;
        // Every item takes at least one byte: bound the reservation.
        let mut out = Vec::with_capacity((n as usize).min(self.rest().len()));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn partition(&mut self) -> Result<PartitionMeta> {
        let id = self.v32()?;
        let lo = self.slice()?;
        let hi = match self.bytes::<1>()?[0] {
            0 => None,
            1 => Some(self.slice()?),
            _ => return Err(Error::corruption("manifest bad hi flag")),
        };
        Ok(PartitionMeta {
            id,
            lo,
            hi,
            wal_number: self.v64()?,
            unsorted: self.list(Self::table)?,
            sorted: self.list(Self::table)?,
            own_logs: self.list(Self::v64)?,
            inherited_logs: self.list(|c| {
                Ok(LogRef {
                    partition: c.v32()?,
                    log_number: c.v64()?,
                })
            })?,
            live_value_bytes: self.v64()?,
            sealed_wals: self.list(Self::v64)?,
        })
    }

    /// Header counters and a list of partitions: the state section every
    /// record carries (all partitions in a snapshot, the changed ones in
    /// an edit).
    fn db_meta(&mut self) -> Result<DbMeta> {
        let last_sequence = self.v64()?;
        let next_file = self.v64()?;
        let next_partition = self.v32()?;
        Ok(DbMeta {
            partitions: self.list(Self::partition)?,
            next_partition,
            next_file,
            last_sequence,
        })
    }
}

fn encode_table(out: &mut Vec<u8>, t: &TableMeta) {
    put_varint64(out, t.number);
    put_varint64(out, t.size);
    put_length_prefixed_slice(out, &t.smallest);
    put_length_prefixed_slice(out, &t.largest);
}

fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut item: impl FnMut(&mut Vec<u8>, &T)) {
    put_varint32(out, items.len() as u32);
    for t in items {
        item(out, t);
    }
}

impl PartitionMeta {
    /// Every table the partition names: the UnsortedStore, then the
    /// SortedStore.
    pub fn tables(&self) -> impl Iterator<Item = &TableMeta> + Clone {
        self.unsorted.iter().chain(&self.sorted)
    }

    /// Every WAL the partition names: the sealed ones, oldest first, then
    /// the active one.
    pub fn wals(&self) -> impl Iterator<Item = u64> + '_ {
        self.sealed_wals.iter().copied().chain([self.wal_number])
    }

    /// Every value log the partition's pointers may address: its own logs,
    /// then the ones it inherited from a split parent.
    pub fn logs(&self) -> impl Iterator<Item = LogRef> + '_ {
        let own = self.own_logs.iter().map(|&log_number| LogRef {
            partition: self.id,
            log_number,
        });
        own.chain(self.inherited_logs.iter().copied())
    }

    /// True if `log` is one of [`PartitionMeta::logs`].
    pub fn names_log(&self, log: &LogRef) -> bool {
        self.logs().any(|l| l == *log)
    }

    /// Append this partition's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint32(out, self.id);
        put_length_prefixed_slice(out, &self.lo);
        match &self.hi {
            Some(hi) => {
                out.push(1);
                put_length_prefixed_slice(out, hi);
            }
            None => out.push(0),
        }
        put_varint64(out, self.wal_number);
        put_list(out, &self.unsorted, encode_table);
        put_list(out, &self.sorted, encode_table);
        put_list(out, &self.own_logs, |o, l| put_varint64(o, *l));
        put_list(out, &self.inherited_logs, |o, l| {
            put_varint32(o, l.partition);
            put_varint64(o, l.log_number);
        });
        put_varint64(out, self.live_value_bytes);
        put_list(out, &self.sealed_wals, |o, w| put_varint64(o, *w));
    }
}

/// The counters every record carries ahead of its partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub last_sequence: u64,
    pub next_file: u64,
    pub next_partition: u32,
}

impl Header {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint64(out, self.last_sequence);
        put_varint64(out, self.next_file);
        put_varint32(out, self.next_partition);
    }
}

/// Append the state section of a record: `header`, then the count and
/// the encodings of `parts`.
fn encode_state(out: &mut Vec<u8>, header: Header, parts: &[&[u8]]) {
    header.encode_into(out);
    put_varint32(out, parts.len() as u32);
    for p in parts {
        out.extend_from_slice(p);
    }
}

/// Append index entries grouped into runs of one partition and table:
/// `pid table count (bucket tag)*`. Runs keep log order.
fn encode_entries(out: &mut Vec<u8>, pid: u32, entries: &[IndexEntry]) {
    for run in entries.chunk_by(|a, b| a.2 == b.2) {
        put_varint32(out, pid);
        put_varint32(out, run[0].2);
        put_varint32(out, run.len() as u32);
        for &(bucket, tag, _) in run {
            put_varint32(out, bucket);
            out.extend_from_slice(&tag.to_le_bytes());
        }
    }
}

/// The database state recovered from the manifest.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Header counters and every partition as last committed.
    pub meta: DbMeta,
    /// Per partition id, the logged hash-index entries in log order. Some
    /// may name tables that are no longer live; recovery drops them.
    pub index_entries: HashMap<u32, Vec<IndexEntry>>,
    /// `(num_buckets, num_hashes)` of the index the entries were placed
    /// in, or `None` when the hash index was off. Entries are only usable
    /// by an index of the same geometry.
    pub index_geometry: Option<(u32, u32)>,
}

/// Decode one manifest record and apply it to `state` (`None` before the
/// first record, which must be a snapshot).
fn apply_record(state: &mut Option<Recovered>, rec: &[u8]) -> Result<()> {
    let mut c = Cursor::new(rec);
    let kind = c.bytes::<1>()?[0];
    match kind {
        SNAPSHOT => {
            let buckets = c.v32()?;
            let hashes = c.v32()?;
            *state = Some(Recovered {
                meta: DbMeta {
                    partitions: Vec::new(),
                    ..DbMeta::default()
                },
                index_entries: HashMap::new(),
                index_geometry: (buckets > 0).then_some((buckets, hashes)),
            });
        }
        EDIT if state.is_some() => {}
        EDIT => return Err(Error::corruption("manifest does not start with a snapshot")),
        _ => return Err(Error::corruption(format!("manifest record kind {kind}"))),
    }
    let st = state.as_mut().expect("set above");
    let delta = c.db_meta()?;
    st.meta.last_sequence = delta.last_sequence;
    st.meta.next_file = delta.next_file;
    st.meta.next_partition = delta.next_partition;
    for p in delta.partitions {
        match st.meta.partitions.iter_mut().find(|q| q.id == p.id) {
            Some(q) => *q = p,
            None => st.meta.partitions.push(p),
        }
    }
    for id in c.list(Cursor::v32)? {
        st.meta.partitions.retain(|p| p.id != id);
        st.index_entries.remove(&id);
    }
    while !c.rest().is_empty() {
        let pid = c.v32()?;
        let table = c.v32()?;
        let count = c.v32()?;
        let entries = st.index_entries.entry(pid).or_default();
        for _ in 0..count {
            let bucket = c.v32()?;
            let tag = u16::from_le_bytes(c.bytes::<2>()?);
            entries.push((bucket, tag, table));
        }
    }
    Ok(())
}

/// Replay the manifest under `root`. Returns `None` for a directory that
/// holds no database yet. A damaged record followed by intact ones, or a
/// directory in the pre-manifest format, is corruption; a torn final
/// record (a crash mid-append) is dropped.
pub fn read_manifest(env: &dyn Env, root: &Path) -> Result<Option<Recovered>> {
    let path = root.join(MANIFEST);
    if !env.file_exists(&path) {
        if env.file_exists(&root.join(LEGACY_META)) {
            return Err(Error::corruption(format!(
                "{} holds a {LEGACY_META} snapshot but no {MANIFEST}: written by an \
                 older on-disk format, which this version does not read",
                root.display()
            )));
        }
        return Ok(None);
    }
    let in_manifest = |e: Error| match e {
        Error::Corruption(msg) => Error::corruption(format!("{MANIFEST}: {msg}")),
        other => other,
    };
    let mut reader = LogReader::new_strict(env.new_sequential(&path)?);
    let mut state = None;
    let mut buf = Vec::new();
    while reader.read_record(&mut buf).map_err(in_manifest)? == ReadOutcome::Record {
        apply_record(&mut state, &buf).map_err(in_manifest)?;
    }
    let mut state =
        state.ok_or_else(|| Error::corruption(format!("{MANIFEST} holds no record")))?;
    state.meta.partitions.sort_by(|a, b| a.lo.cmp(&b.lo));
    Ok(Some(state))
}

/// What one commit persists of a partition.
pub(crate) struct PartitionView<'a> {
    /// The partition's metadata.
    pub meta: &'a PartitionMeta,
    /// Its hash index (walked for a snapshot); `None` when it indexes
    /// nothing.
    pub index: Option<&'a TwoLevelHashIndex>,
    /// Index entries added since the last commit, in insertion order.
    pub new_entries: &'a [IndexEntry],
}

/// Appends commits to the manifest and compacts it.
pub(crate) struct ManifestWriter {
    root: PathBuf,
    /// `(num_buckets, num_hashes)` written into snapshots; `None` when the
    /// hash index is off.
    geometry: Option<(u32, u32)>,
    /// The open log; `None` until the first commit, and after a failed
    /// one, so that the next commit writes a fresh snapshot.
    log: Option<LogWriter>,
    /// Each partition's encoding as last committed, by id.
    committed: BTreeMap<u32, Vec<u8>>,
    snapshot_bytes: u64,
    log_bytes: u64,
}

impl ManifestWriter {
    /// A writer whose first commit writes a snapshot.
    pub(crate) fn new(root: &Path, geometry: Option<(u32, u32)>) -> Self {
        ManifestWriter {
            root: root.to_path_buf(),
            geometry,
            log: None,
            committed: BTreeMap::new(),
            snapshot_bytes: 0,
            log_bytes: 0,
        }
    }

    /// Durably record the state `header` + `parts`: as one appended edit
    /// holding what changed since the last commit, or as a fresh snapshot
    /// when the log is due for compaction or the last commit failed.
    pub(crate) fn commit(
        &mut self,
        env: &dyn Env,
        sync: &SyncPoints,
        header: Header,
        parts: &[PartitionView],
    ) -> Result<()> {
        let encoded: Vec<(u32, Vec<u8>)> = parts
            .iter()
            .map(|p| {
                let mut out = Vec::new();
                p.meta.encode_into(&mut out);
                (p.meta.id, out)
            })
            .collect();
        if let Some(log) = self.log.as_mut() {
            let mut rec = vec![EDIT];
            let changed: Vec<&[u8]> = encoded
                .iter()
                .filter(|(id, enc)| self.committed.get(id) != Some(enc))
                .map(|(_, enc)| enc.as_slice())
                .collect();
            encode_state(&mut rec, header, &changed);
            let removed: Vec<u32> = self
                .committed
                .keys()
                .copied()
                .filter(|id| !encoded.iter().any(|(e, _)| e == id))
                .collect();
            put_list(&mut rec, &removed, |o, id| put_varint32(o, *id));
            for p in parts {
                encode_entries(&mut rec, p.meta.id, p.new_entries);
            }
            if self.log_bytes + rec.len() as u64 <= COMPACT_FACTOR * self.snapshot_bytes {
                if let Err(e) = log.add_record(&rec).and_then(|()| log.sync()) {
                    self.log = None;
                    return Err(e);
                }
                self.log_bytes += rec.len() as u64;
                self.committed = encoded.into_iter().collect();
                return Ok(());
            }
        }
        self.write_snapshot(env, sync, header, parts, encoded)
    }

    /// Write the whole state, with every live index entry, to a temporary
    /// file, sync it, and rename it over the manifest.
    fn write_snapshot(
        &mut self,
        env: &dyn Env,
        sync: &SyncPoints,
        header: Header,
        parts: &[PartitionView],
        encoded: Vec<(u32, Vec<u8>)>,
    ) -> Result<()> {
        self.log = None;
        let mut rec = vec![SNAPSHOT];
        let (buckets, hashes) = self.geometry.unwrap_or((0, 0));
        put_varint32(&mut rec, buckets);
        put_varint32(&mut rec, hashes);
        let all: Vec<&[u8]> = encoded.iter().map(|(_, enc)| enc.as_slice()).collect();
        encode_state(&mut rec, header, &all);
        put_varint32(&mut rec, 0); // no removed partitions
        if self.geometry.is_some() {
            for p in parts {
                if let Some(index) = p.index {
                    encode_entries(&mut rec, p.meta.id, &index.entries());
                }
            }
        }
        let tmp = self.root.join(format!("{MANIFEST}.tmp"));
        let mut log = LogWriter::new(env.new_writable(&tmp)?);
        log.add_record(&rec)?;
        log.sync()?;
        sync.hit("manifest:compact")?;
        env.rename(&tmp, &self.root.join(MANIFEST))?;
        self.log = Some(log);
        self.snapshot_bytes = rec.len() as u64;
        self.log_bytes = rec.len() as u64;
        self.committed = encoded.into_iter().collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use unikv_env::mem::MemEnv;

    /// The state section of a snapshot of `m`.
    fn encode(m: &DbMeta) -> Vec<u8> {
        let parts: Vec<Vec<u8>> = m
            .partitions
            .iter()
            .map(|p| {
                let mut out = Vec::new();
                p.encode_into(&mut out);
                out
            })
            .collect();
        let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        encode_state(&mut out, header(m), &parts);
        out
    }

    /// Parse a state section; truncated or trailing bytes are errors.
    fn decode(data: &[u8]) -> Result<DbMeta> {
        let mut c = Cursor::new(data);
        let meta = c.db_meta()?;
        if !c.rest().is_empty() {
            return Err(Error::corruption("trailing bytes"));
        }
        Ok(meta)
    }

    fn sample() -> DbMeta {
        DbMeta {
            partitions: vec![
                PartitionMeta {
                    id: 0,
                    lo: Vec::new(),
                    hi: Some(b"m".to_vec()),
                    wal_number: 12,
                    unsorted: vec![TableMeta {
                        number: 3,
                        size: 100,
                        smallest: b"a\0\0\0\0\0\0\0\x01".to_vec(),
                        largest: b"l\0\0\0\0\0\0\0\x01".to_vec(),
                    }],
                    sorted: vec![],
                    own_logs: vec![5, 6],
                    inherited_logs: vec![LogRef {
                        partition: 9,
                        log_number: 2,
                    }],
                    live_value_bytes: 4096,
                    sealed_wals: Vec::new(),
                },
                PartitionMeta {
                    id: 1,
                    lo: b"m".to_vec(),
                    hi: None,
                    wal_number: 13,
                    ..Default::default()
                },
            ],
            next_partition: 2,
            next_file: 20,
            last_sequence: 777,
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn default_is_single_open_partition() {
        let m = DbMeta::default();
        assert_eq!(m.partitions.len(), 1);
        assert!(m.partitions[0].lo.is_empty());
        assert!(m.partitions[0].hi.is_none());
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn sealed_wals_roundtrip_and_stay_optional() {
        let mut m = sample();
        let clean = encode(&m);
        m.partitions[0].sealed_wals = vec![41, 42];
        let sealed = encode(&m);
        assert!(sealed.len() > clean.len());
        assert_eq!(decode(&sealed).unwrap(), m);
        m.partitions[0].sealed_wals.clear();
        assert_eq!(
            encode(&m),
            clean,
            "empty sealed_wals must not change encoding"
        );
    }

    #[test]
    fn corruption_detected() {
        let enc = encode(&sample());
        for cut in [0, 1, 6, enc.len() / 2, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "truncated at {cut}");
        }
        assert!(decode(&[enc.as_slice(), &[0]].concat()).is_err());
        // The `hi` flag of partition 0 sits right after its empty `lo`.
        let mut bad = enc.clone();
        let flag = bad.iter().position(|&b| b == 1).unwrap();
        bad[flag] = 7;
        assert!(decode(&bad).is_err());
    }

    fn view<'a>(
        m: &'a DbMeta,
        index: &'a TwoLevelHashIndex,
        new: &'a [IndexEntry],
    ) -> Vec<PartitionView<'a>> {
        m.partitions
            .iter()
            .map(|meta| PartitionView {
                meta,
                index: Some(index),
                new_entries: if meta.id == 0 { new } else { &[] },
            })
            .collect()
    }

    fn header(m: &DbMeta) -> Header {
        Header {
            last_sequence: m.last_sequence,
            next_file: m.next_file,
            next_partition: m.next_partition,
        }
    }

    /// Snapshot, then edits that change one partition, add index entries
    /// and remove a partition: replay yields the last state and the
    /// entries in log order.
    #[test]
    fn manifest_replays_snapshot_then_edits() {
        let env = MemEnv::shared();
        let root = Path::new("/db");
        let sync = SyncPoints::default();
        let mut index = TwoLevelHashIndex::new(8, 2);
        let first = index.insert(b"a", 3);
        let mut m = sample();
        let mut w = ManifestWriter::new(root, Some((8, 2)));
        w.commit(env.as_ref(), &sync, header(&m), &view(&m, &index, &[]))
            .unwrap();
        let snapshot_len = env.file_size(&root.join(MANIFEST)).unwrap();

        m.partitions[0].unsorted.push(TableMeta {
            number: 21,
            size: 50,
            smallest: b"b".to_vec(),
            largest: b"c".to_vec(),
        });
        m.next_file = 22;
        let (b, tag) = index.insert(b"b", 21);
        w.commit(
            env.as_ref(),
            &sync,
            header(&m),
            &view(&m, &index, &[(b, tag, 21)]),
        )
        .unwrap();
        let removed = m.partitions.pop().unwrap();
        m.partitions[0].hi = None;
        w.commit(env.as_ref(), &sync, header(&m), &view(&m, &index, &[]))
            .unwrap();
        // A commit that changes nothing appends the header counters only.
        let len = env.file_size(&root.join(MANIFEST)).unwrap();
        w.commit(env.as_ref(), &sync, header(&m), &view(&m, &index, &[]))
            .unwrap();
        let grown = env.file_size(&root.join(MANIFEST)).unwrap() - len;
        assert!(grown <= 7 + 8, "an empty edit took {grown} bytes");
        assert!(len > snapshot_len);

        let got = read_manifest(env.as_ref(), root).unwrap().unwrap();
        assert_eq!(got.meta, m);
        assert_eq!(got.index_geometry, Some((8, 2)));
        assert_eq!(
            got.index_entries[&0],
            vec![(first.0, first.1, 3), (b, tag, 21)]
        );
        assert!(!got.index_entries.contains_key(&removed.id));
    }

    /// The log compacts into a fresh snapshot once it outgrows the last
    /// one; a failed append makes the next commit a snapshot too.
    #[test]
    fn manifest_compacts_and_never_appends_after_a_failure() {
        let env = MemEnv::shared();
        let root = Path::new("/db");
        let sync = SyncPoints::default();
        let index = TwoLevelHashIndex::new(8, 2);
        let mut m = sample();
        let mut w = ManifestWriter::new(root, Some((8, 2)));
        let mut sizes = Vec::new();
        for seq in 0..40 {
            m.last_sequence = seq;
            m.partitions[1].wal_number = 100 + seq;
            w.commit(env.as_ref(), &sync, header(&m), &view(&m, &index, &[]))
                .unwrap();
            sizes.push(env.file_size(&root.join(MANIFEST)).unwrap());
        }
        assert!(
            sizes.windows(2).any(|s| s[1] < s[0]),
            "the log never compacted: {sizes:?}"
        );
        assert!(*sizes.iter().max().unwrap() <= (COMPACT_FACTOR + 1) * sizes[0] + 64);
        assert_eq!(read_manifest(env.as_ref(), root).unwrap().unwrap().meta, m);

        // A hook failing the compaction leaves the old manifest in place
        // and the writer without a log: the next commit is a snapshot.
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let a = armed.clone();
        sync.arm(Arc::new(move |_| {
            if a.swap(false, std::sync::atomic::Ordering::SeqCst) {
                Err(Error::internal("injected"))
            } else {
                Ok(())
            }
        }));
        w.log = None;
        m.last_sequence = 1000;
        assert!(w
            .commit(env.as_ref(), &sync, header(&m), &view(&m, &index, &[]))
            .is_err());
        assert!(w.log.is_none());
        assert_eq!(
            read_manifest(env.as_ref(), root)
                .unwrap()
                .unwrap()
                .meta
                .last_sequence,
            39
        );
        w.commit(env.as_ref(), &sync, header(&m), &view(&m, &index, &[]))
            .unwrap();
        assert_eq!(read_manifest(env.as_ref(), root).unwrap().unwrap().meta, m);
    }

    #[test]
    fn legacy_meta_is_refused() {
        let env = MemEnv::shared();
        env.write_atomic(Path::new("/db/META"), &encode(&sample()))
            .unwrap();
        let err = read_manifest(env.as_ref(), Path::new("/db")).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(read_manifest(env.as_ref(), Path::new("/none"))
            .unwrap()
            .is_none());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            last_sequence in any::<u64>(),
            next_file in any::<u64>(),
            ids in proptest::collection::vec(any::<u32>(), 1..8),
            lo in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            let partitions: Vec<PartitionMeta> = ids
                .iter()
                .map(|&id| PartitionMeta { id, lo: lo.clone(), ..Default::default() })
                .collect();
            let m = DbMeta { partitions, next_partition: 99, next_file, last_sequence };
            prop_assert_eq!(decode(&encode(&m)).unwrap(), m);
        }
    }
}
