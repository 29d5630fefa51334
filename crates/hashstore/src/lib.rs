#![warn(missing_docs)]

//! SkimpyStash-like hash-indexed KV store — the motivation baseline.
//!
//! The paper's Fig. 2(a) motivates UniKV by showing that a pure
//! hash-indexed store (SkimpyStash) outperforms an LSM at small scale but
//! degrades below it as data grows, because a RAM-bounded index forces
//! bucket chains onto flash: each bucket keeps only a head pointer in
//! memory, records on the data log link to the previous record of the same
//! bucket, and a lookup walks the on-disk chain. Chain length grows
//! linearly with `keys / buckets`, so read cost grows with data size while
//! the LSM's stays logarithmic. Range scans are unsupported — the second
//! limitation the paper calls out.
//!
//! Record layout: `fixed64(prev_offset+1, 0 = none) | varint32(klen) |
//! varint32(vlen) | key | value`.

use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;
use unikv_common::coding::{get_varint32, put_varint32, try_decode_fixed64};
use unikv_common::hash::hash64;
use unikv_common::metrics::{EngineMetrics, MetricsRegistry, TraceOutcome};
use unikv_common::perf::{self, PerfStage};
use unikv_common::{Error, Result};
use unikv_env::{Env, RandomAccessFile, WritableFile};

/// Configuration for the hash store.
#[derive(Debug, Clone)]
pub struct HashStoreOptions {
    /// Number of in-memory bucket heads. This is the RAM budget: lookups
    /// read `~chain_length = keys / num_buckets` records from the log.
    pub num_buckets: usize,
    /// Sync appends to the log on every put.
    pub sync_writes: bool,
}

impl Default for HashStoreOptions {
    fn default() -> Self {
        HashStoreOptions {
            num_buckets: 1 << 16,
            sync_writes: false,
        }
    }
}

struct Inner {
    writer: Box<dyn WritableFile>,
    heads: Vec<u64>, // offset+1 of newest record per bucket; 0 = empty
    len: u64,
}

/// Append-only log + bucket-chain hash index.
///
/// ```
/// use unikv_hashstore::{HashStore, HashStoreOptions};
/// use unikv_env::mem::MemEnv;
///
/// let store = HashStore::create(MemEnv::shared(), "/hs", HashStoreOptions::default()).unwrap();
/// store.put(b"k", b"v").unwrap();
/// assert_eq!(store.get(b"k").unwrap(), Some(b"v".to_vec()));
/// assert!(store.scan(b"", 10).is_err()); // hash indexes cannot range-scan
/// ```
pub struct HashStore {
    env: Arc<dyn Env>,
    path: PathBuf,
    opts: HashStoreOptions,
    inner: Mutex<Inner>,
    reader: Mutex<Option<Arc<dyn RandomAccessFile>>>,
    metrics: Arc<MetricsRegistry>,
    eng: EngineMetrics,
}

impl HashStore {
    /// Create a fresh store whose data log lives at `dir/data.log`.
    pub fn create(
        env: Arc<dyn Env>,
        dir: impl Into<PathBuf>,
        opts: HashStoreOptions,
    ) -> Result<Self> {
        let dir = dir.into();
        env.create_dir_all(&dir)?;
        let path = dir.join("data.log");
        let writer = env.new_writable(&path)?;
        // Always-on registry: the baseline records the standard
        // cross-engine families.
        let metrics = MetricsRegistry::new(true);
        Ok(HashStore {
            env,
            path,
            inner: Mutex::new(Inner {
                writer,
                heads: vec![0; opts.num_buckets],
                len: 0,
            }),
            opts,
            reader: Mutex::new(None),
            eng: EngineMetrics::new(&metrics),
            metrics,
        })
    }

    /// Reopen an existing store, recovering from a crash: the longest
    /// valid prefix of the data log is kept (a torn tail from an
    /// interrupted append is truncated away) and the bucket heads are
    /// rebuilt by replaying it. Opening a directory without a data log
    /// creates a fresh store.
    pub fn open(
        env: Arc<dyn Env>,
        dir: impl Into<PathBuf>,
        opts: HashStoreOptions,
    ) -> Result<Self> {
        let dir = dir.into();
        let path = dir.join("data.log");
        if !env.file_exists(&path) {
            return Self::create(env, dir, opts);
        }
        let data = env.read_to_vec(&path)?;
        let mut heads = vec![0u64; opts.num_buckets];
        let mut len = 0u64;
        let mut pos = 0usize;
        while let Some((key, consumed, prev)) = parse_record(&data[pos..]) {
            // A valid back-pointer can only reference an earlier record.
            if prev > pos as u64 {
                break;
            }
            let b = (hash64(key, BUCKET_SEED) % heads.len() as u64) as usize;
            heads[b] = pos as u64 + 1;
            len += 1;
            pos += consumed;
        }
        // Rewrite the valid prefix so the torn bytes are gone for good
        // (`new_writable` truncates).
        let mut writer = env.new_writable(&path)?;
        writer.append(&data[..pos])?;
        writer.sync()?;
        let metrics = MetricsRegistry::new(true);
        Ok(HashStore {
            env,
            path,
            inner: Mutex::new(Inner { writer, heads, len }),
            opts,
            reader: Mutex::new(None),
            eng: EngineMetrics::new(&metrics),
            metrics,
        })
    }

    /// Insert or update `key`. The profiler hooks reuse the put's two
    /// histogram clock readings (see `unikv_common::perf`).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let t0 = self.metrics.now_micros();
        perf::begin_at(&self.metrics, t0);
        self.put_impl(key, value)?;
        let t1 = self.metrics.now_micros();
        perf::finish_at(t1);
        self.eng.writes.inc();
        self.eng.put_latency.record(t1.saturating_sub(t0));
        Ok(())
    }

    fn put_impl(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let b = (hash64(key, BUCKET_SEED) % inner.heads.len() as u64) as usize;
        let offset = inner.writer.len();
        let mut rec = Vec::with_capacity(8 + 10 + key.len() + value.len());
        rec.extend_from_slice(&inner.heads[b].to_le_bytes());
        put_varint32(&mut rec, key.len() as u32);
        put_varint32(&mut rec, value.len() as u32);
        rec.extend_from_slice(key);
        rec.extend_from_slice(value);
        inner.writer.append(&rec)?;
        perf::mark(PerfStage::WalAppend);
        if self.opts.sync_writes {
            inner.writer.sync()?;
            perf::mark(PerfStage::WalSync);
        }
        inner.heads[b] = offset + 1;
        inner.len += 1;
        Ok(())
    }

    fn reader(&self) -> Result<Arc<dyn RandomAccessFile>> {
        let mut guard = self.reader.lock();
        if let Some(r) = guard.as_ref() {
            return Ok(r.clone());
        }
        let r = self.env.new_random_access(&self.path)?;
        *guard = Some(r.clone());
        Ok(r)
    }

    /// Point lookup: walk the bucket's on-log chain newest-first. Returns
    /// the number of log records visited alongside the value, so the
    /// motivation experiment can report read amplification directly.
    pub fn get_traced(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, u64)> {
        let t0 = self.metrics.now_micros();
        perf::begin_at(&self.metrics, t0);
        let r = self.get_traced_impl(key);
        let t1 = self.metrics.now_micros();
        perf::finish_at(t1);
        self.eng.get_latency.record(t1.saturating_sub(t0));
        if let Ok((value, _)) = &r {
            // Single-tier store: a hit resolves in the hash-indexed tier
            // (the analogue of UniKV's UnsortedStore-hash outcome).
            self.eng.record_read(if value.is_some() {
                TraceOutcome::Unsorted
            } else {
                TraceOutcome::Miss
            });
        }
        r
    }

    fn get_traced_impl(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, u64)> {
        let head = {
            let mut inner = self.inner.lock();
            inner.writer.flush()?;
            let b = (hash64(key, BUCKET_SEED) % inner.heads.len() as u64) as usize;
            inner.heads[b]
        };
        perf::mark(PerfStage::IndexProbe);
        let reader = self.reader()?;
        let mut cursor = head;
        let mut visited = 0u64;
        while cursor != 0 {
            visited += 1;
            perf::count_hash_probes(1);
            let offset = cursor - 1;
            // Read a generous prefix: header + key; re-read if value needed.
            let header = reader.read_at(offset, 8 + 10 + key.len())?;
            let prev = try_decode_fixed64(&header)?;
            let (klen, n1) = get_varint32(&header[8..])?;
            let (vlen, n2) = get_varint32(&header[8 + n1..])?;
            let key_start = 8 + n1 + n2;
            if klen as usize == key.len() {
                let stored_key = reader.read_at(offset + key_start as u64, klen as usize)?;
                if stored_key == key {
                    let value =
                        reader.read_at(offset + key_start as u64 + klen as u64, vlen as usize)?;
                    if value.len() != vlen as usize {
                        return Err(Error::corruption("hashstore record truncated"));
                    }
                    return Ok(((!value.is_empty() || vlen == 0).then_some(value), visited));
                }
            }
            cursor = prev;
        }
        Ok((None, visited))
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_traced(key).map(|(v, _)| v)
    }

    /// Number of records appended (versions, not distinct keys).
    pub fn len(&self) -> u64 {
        self.inner.lock().len
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-memory index bytes (bucket heads).
    pub fn index_memory_bytes(&self) -> usize {
        self.opts.num_buckets * std::mem::size_of::<u64>()
    }

    /// The store's metrics registry (standard cross-engine families).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Human-readable metrics report.
    pub fn metrics_report(&self) -> String {
        self.metrics.render_text()
    }

    /// Range scans are not supported by hash indexing — this is the
    /// limitation the paper contrasts against the LSM design. Always errors.
    pub fn scan(&self, _from: &[u8], _limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Err(Error::invalid_argument(
            "hash-indexed store does not support range scans",
        ))
    }
}

const BUCKET_SEED: u64 = 0x7b1c_9e02_55aa_33cc;

/// Parse one record at the start of `data`. Returns the key, the total
/// encoded length, and the back-pointer — or `None` if `data` holds no
/// complete, well-formed record (a torn tail).
fn parse_record(data: &[u8]) -> Option<(&[u8], usize, u64)> {
    if data.len() < 8 {
        return None;
    }
    let prev = u64::from_le_bytes(data[..8].try_into().ok()?);
    let (klen, n1) = get_varint32(&data[8..]).ok()?;
    let (vlen, n2) = get_varint32(&data[8 + n1..]).ok()?;
    let start = 8 + n1 + n2;
    let total = start
        .checked_add(klen as usize)?
        .checked_add(vlen as usize)?;
    if data.len() < total {
        return None;
    }
    Some((&data[start..start + klen as usize], total, prev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_env::mem::MemEnv;

    fn store(buckets: usize) -> HashStore {
        HashStore::create(
            MemEnv::shared(),
            "/hs",
            HashStoreOptions {
                num_buckets: buckets,
                sync_writes: false,
            },
        )
        .unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store(64);
        for i in 0..500u32 {
            s.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        for i in 0..500u32 {
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        assert_eq!(s.get(b"absent").unwrap(), None);
        assert_eq!(s.len(), 500);
    }

    #[test]
    fn update_returns_newest() {
        let s = store(8);
        s.put(b"k", b"v1").unwrap();
        s.put(b"k", b"v2").unwrap();
        s.put(b"other", b"x").unwrap();
        s.put(b"k", b"v3").unwrap();
        assert_eq!(s.get(b"k").unwrap(), Some(b"v3".to_vec()));
    }

    #[test]
    fn chain_length_grows_with_data() {
        // The motivation claim: fixed memory -> read cost grows with scale.
        let s = store(16);
        let mut total_small = 0;
        for i in 0..160u32 {
            s.put(format!("key{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..160u32 {
            total_small += s.get_traced(format!("key{i}").as_bytes()).unwrap().1;
        }
        for i in 160..1600u32 {
            s.put(format!("key{i}").as_bytes(), b"v").unwrap();
        }
        let mut total_large = 0;
        for i in 0..160u32 {
            total_large += s.get_traced(format!("key{i}").as_bytes()).unwrap().1;
        }
        assert!(
            total_large > total_small * 3,
            "chains did not grow: {total_small} -> {total_large}"
        );
    }

    #[test]
    fn scan_unsupported() {
        let s = store(8);
        assert!(s.scan(b"a", 10).is_err());
    }

    #[test]
    fn empty_value() {
        let s = store(8);
        s.put(b"k", b"").unwrap();
        assert_eq!(s.get(b"k").unwrap(), Some(Vec::new()));
    }

    fn synced_opts(buckets: usize) -> HashStoreOptions {
        HashStoreOptions {
            num_buckets: buckets,
            sync_writes: true,
        }
    }

    #[test]
    fn open_rebuilds_heads_from_log() {
        let env = MemEnv::shared();
        {
            let s = HashStore::create(env.clone(), "/hs", synced_opts(16)).unwrap();
            for i in 0..200u32 {
                s.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            s.put(b"k7", b"newest").unwrap();
        }
        let s = HashStore::open(env, "/hs", synced_opts(16)).unwrap();
        assert_eq!(s.len(), 201);
        assert_eq!(s.get(b"k7").unwrap(), Some(b"newest".to_vec()));
        for i in 0..200u32 {
            if i == 7 {
                continue;
            }
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "key {i} lost across reopen"
            );
        }
        assert_eq!(s.get(b"absent").unwrap(), None);
    }

    #[test]
    fn open_truncates_torn_tail_and_keeps_writing() {
        let env = MemEnv::shared();
        {
            let s = HashStore::create(env.clone(), "/hs", synced_opts(8)).unwrap();
            for i in 0..50u32 {
                s.put(format!("k{i}").as_bytes(), b"v").unwrap();
            }
        }
        // Simulate a crash mid-append: half a record dangles off the end.
        let path = std::path::Path::new("/hs/data.log");
        let mut data = env.read_to_vec(path).unwrap();
        let valid = data.len();
        data.extend_from_slice(&7u64.to_le_bytes());
        data.extend_from_slice(&[4, 200]); // klen=4, then the file ends
        let mut w = env.new_writable(path).unwrap();
        w.append(&data).unwrap();
        drop(w);

        let s = HashStore::open(env.clone(), "/hs", synced_opts(8)).unwrap();
        assert_eq!(s.len(), 50, "torn tail must not count as a record");
        assert_eq!(env.file_size(path).unwrap(), valid as u64);
        for i in 0..50u32 {
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap(),
                Some(b"v".to_vec())
            );
        }
        // The log stays usable: chains append after the truncated point.
        s.put(b"after", b"crash").unwrap();
        assert_eq!(s.get(b"after").unwrap(), Some(b"crash".to_vec()));
        assert_eq!(s.get(b"k3").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn open_without_log_creates_fresh_store() {
        let env = MemEnv::shared();
        let s = HashStore::open(env, "/nowhere", synced_opts(8)).unwrap();
        assert!(s.is_empty());
        s.put(b"k", b"v").unwrap();
        assert_eq!(s.get(b"k").unwrap(), Some(b"v".to_vec()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use unikv_env::mem::MemEnv;

    proptest! {
        /// Arbitrary put sequences: the store answers every key with its
        /// newest written value, exactly like a HashMap model.
        #[test]
        fn prop_matches_hashmap_model(
            ops in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 1..10),
                 proptest::collection::vec(any::<u8>(), 0..40)), 1..200),
            buckets_pow in 1u32..8,
        ) {
            let store = HashStore::create(
                MemEnv::shared(),
                "/hs",
                HashStoreOptions {
                    num_buckets: 1 << buckets_pow,
                    sync_writes: false,
                },
            )
            .unwrap();
            let mut model = std::collections::HashMap::new();
            for (k, v) in &ops {
                store.put(k, v).unwrap();
                model.insert(k.clone(), v.clone());
            }
            for (k, expect) in &model {
                let got = store.get(k).unwrap();
                prop_assert_eq!(got.as_ref(), Some(expect));
            }
            prop_assert_eq!(store.get(b"\xffnever-written").unwrap(), None);
        }
    }
}
