//! The baseline LSM database: WAL + memtable + leveled/fragmented SSTables.
//!
//! Concurrency model: one mutex guards all structural state (memtable
//! handle, version, WAL); point reads and scans clone the `Arc`s they need
//! under the lock and then run lock-free. Flushes and compactions run
//! inline in the write path — the same total work as LevelDB's
//! single-threaded background compaction, scheduled synchronously so
//! experiments are deterministic.

use crate::compaction::{pick_compaction, range_is_bottommost, write_tables, DropPolicy};
use crate::filenames::{self, FileKind};
use crate::iter::{
    ConcatSource, InternalIterator, LiveIter, MemTableSource, MergingIterator, TableSource,
};
use crate::options::{CompactionPolicy, LsmOptions};
use crate::stats::EngineStats;
use crate::version::{apply_edit, FileMetaData, Version, VersionEdit};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use unikv_common::coding::{
    get_length_prefixed_slice, get_varint64, put_length_prefixed_slice, put_varint64,
};
use unikv_common::ikey::{
    compare_internal_keys, extract_seq_type, extract_user_key, make_internal_key, SequenceNumber,
    ValueType, MAX_SEQUENCE_NUMBER,
};
use unikv_common::metrics::{EngineMetrics, MetricsRegistry, TraceOutcome};
use unikv_common::perf::{self, PerfContext, PerfStage};
use unikv_common::{Error, Result};
use unikv_env::Env;
use unikv_memtable::{LookupResult, MemTable};
use unikv_sstable::{BlockCache, Table, TableBuilderOptions, TableOptions};
use unikv_wal::{LogReader, LogWriter, ReadOutcome};

/// One scan result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanItem {
    /// User key.
    pub key: Vec<u8>,
    /// Value.
    pub value: Vec<u8>,
}

/// Lazily-opened table handles, shared by reads and compactions.
pub(crate) struct TableCache {
    env: Arc<dyn Env>,
    dir: PathBuf,
    topts: TableOptions,
    map: Mutex<HashMap<u64, Arc<Table>>>,
}

impl TableCache {
    fn new(env: Arc<dyn Env>, dir: PathBuf, topts: TableOptions) -> Self {
        TableCache {
            env,
            dir,
            topts,
            map: Mutex::new(HashMap::new()),
        }
    }

    fn get(&self, number: u64) -> Result<Arc<Table>> {
        if let Some(t) = self.map.lock().get(&number) {
            return Ok(t.clone());
        }
        let path = filenames::table_file(&self.dir, number);
        let size = self.env.file_size(&path)?;
        let file = self.env.new_random_access(&path)?;
        let table = Table::open(file, size, self.topts.clone())?;
        self.map.lock().insert(number, table.clone());
        Ok(table)
    }

    fn evict(&self, number: u64) {
        if let Some(t) = self.map.lock().remove(&number) {
            t.evict_from_cache();
        }
    }
}

struct DbState {
    mem: Arc<MemTable>,
    version: Arc<Version>,
    wal: LogWriter,
    wal_number: u64,
    manifest: LogWriter,
    next_file: u64,
    last_seq: SequenceNumber,
    compaction_cursor: usize,
}

/// A baseline LSM database instance.
///
/// ```
/// use unikv_lsm::{Baseline, LsmDb, LsmOptions};
/// use unikv_env::mem::MemEnv;
///
/// let db = LsmDb::open(MemEnv::shared(), "/db", LsmOptions::baseline(Baseline::LevelDb)).unwrap();
/// db.put(b"k", b"v").unwrap();
/// assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
/// assert_eq!(db.scan(b"", 10).unwrap().len(), 1);
/// ```
pub struct LsmDb {
    env: Arc<dyn Env>,
    dir: PathBuf,
    opts: LsmOptions,
    state: Mutex<DbState>,
    tables: TableCache,
    stats: Arc<EngineStats>,
    metrics: Arc<MetricsRegistry>,
    eng: EngineMetrics,
}

impl LsmDb {
    /// Open (creating or recovering) a database in `dir`.
    pub fn open(env: Arc<dyn Env>, dir: impl Into<PathBuf>, opts: LsmOptions) -> Result<LsmDb> {
        let dir = dir.into();
        env.create_dir_all(&dir)?;
        let block_cache = if opts.block_cache_bytes > 0 {
            Some(BlockCache::new(opts.block_cache_bytes))
        } else {
            None
        };
        // Baselines report through the same standard metric families as
        // UniKV so cross-engine runs are directly comparable. No trace
        // ring: the baseline's hot path stays mutex-free outside `state`.
        let metrics = MetricsRegistry::new(true, 0);
        let eng = EngineMetrics::new(&metrics);
        let topts = TableOptions {
            cmp: compare_internal_keys,
            cache: block_cache,
            io: Some(unikv_sstable::TableIoMetrics::new(&metrics)),
        };
        let tables = TableCache::new(env.clone(), dir.clone(), topts);

        let current = filenames::current_file(&dir);
        let (version, mut next_file, mut last_seq, mut log_number, manifest_number);
        if env.file_exists(&current) {
            // Recover from the manifest named by CURRENT.
            let name = String::from_utf8(env.read_to_vec(&current)?)
                .map_err(|_| Error::corruption("CURRENT not utf-8"))?;
            let name = name.trim();
            manifest_number = match filenames::parse_file_name(name) {
                Some(FileKind::Manifest(n)) => n,
                _ => return Err(Error::corruption("CURRENT does not name a manifest")),
            };
            let mut v = Version::empty(opts.num_levels);
            next_file = 2;
            last_seq = 0;
            log_number = 0;
            let mut reader = LogReader::new(env.new_sequential(&dir.join(name))?);
            let mut buf = Vec::new();
            let leveled = opts.policy == CompactionPolicy::Leveled;
            while reader.read_record(&mut buf)? == ReadOutcome::Record {
                let edit = VersionEdit::decode(&buf)?;
                if let Some(n) = edit.log_number {
                    log_number = n;
                }
                if let Some(n) = edit.next_file_number {
                    next_file = next_file.max(n);
                }
                if let Some(n) = edit.last_sequence {
                    last_seq = last_seq.max(n);
                }
                v = apply_edit(&v, &edit, leveled);
            }
            version = v;
        } else {
            version = Version::empty(opts.num_levels);
            next_file = 2;
            last_seq = 0;
            log_number = 0;
            manifest_number = 1;
            // Create the initial manifest and point CURRENT at it.
            let mut m =
                LogWriter::new(env.new_writable(&filenames::manifest_file(&dir, manifest_number))?);
            let edit = VersionEdit {
                next_file_number: Some(next_file),
                ..Default::default()
            };
            m.add_record(&edit.encode())?;
            m.sync()?;
            env.write_atomic(
                &current,
                format!("MANIFEST-{manifest_number:06}").as_bytes(),
            )?;
        }

        // Reopen the manifest for appending: we re-create it with the full
        // current state (a "manifest rewrite"), which keeps recovery simple
        // and bounds manifest growth.
        let manifest_number = manifest_number + 1;
        let mut manifest =
            LogWriter::new(env.new_writable(&filenames::manifest_file(&dir, manifest_number))?);
        {
            let mut snapshot = VersionEdit {
                log_number: Some(log_number),
                next_file_number: Some(next_file),
                last_sequence: Some(last_seq),
                ..Default::default()
            };
            for (level, files) in version.levels.iter().enumerate() {
                for f in files {
                    snapshot.add_file(level as u32, f);
                }
            }
            manifest.add_record(&snapshot.encode())?;
            manifest.sync()?;
            env.write_atomic(
                &filenames::current_file(&dir),
                format!("MANIFEST-{manifest_number:06}").as_bytes(),
            )?;
        }

        let stats = Arc::new(EngineStats::default());
        let mem = Arc::new(MemTable::new());

        // Replay WALs newer than the manifest's log number.
        let mut wal_numbers: Vec<u64> = env
            .list_dir(&dir)?
            .iter()
            .filter_map(|n| n.to_str().and_then(filenames::parse_file_name))
            .filter_map(|k| match k {
                FileKind::Wal(n) if n >= log_number => Some(n),
                _ => None,
            })
            .collect();
        wal_numbers.sort_unstable();
        for n in &wal_numbers {
            let mut reader = LogReader::new(env.new_sequential(&filenames::wal_file(&dir, *n))?);
            let mut buf = Vec::new();
            while reader.read_record(&mut buf)? == ReadOutcome::Record {
                let (seq, t, key, value) = decode_wal_record(&buf)?;
                mem.add(seq, t, key, value);
                last_seq = last_seq.max(seq);
            }
        }

        // Fresh WAL for new writes.
        let wal_number = next_file;
        let next_file = next_file + 1;
        let wal = LogWriter::new(env.new_writable(&filenames::wal_file(&dir, wal_number))?);

        let db = LsmDb {
            env: env.clone(),
            dir: dir.clone(),
            opts,
            state: Mutex::new(DbState {
                mem,
                version,
                wal,
                wal_number,
                manifest,
                next_file,
                last_seq,
                compaction_cursor: 0,
            }),
            tables,
            stats,
            metrics,
            eng,
        };

        // Remove files that no version references (old WALs, orphan tables,
        // stale manifests).
        db.delete_obsolete_files(&wal_numbers, manifest_number)?;

        // If recovery replayed a large memtable, flush it now.
        {
            let mut st = db.state.lock();
            if st.mem.approximate_memory_usage() >= db.opts.write_buffer_size {
                db.flush_locked(&mut st)?;
                db.maybe_compact(&mut st, 2)?;
            }
        }
        Ok(db)
    }

    fn delete_obsolete_files(&self, live_wals: &[u64], live_manifest: u64) -> Result<()> {
        let st = self.state.lock();
        let live_tables: std::collections::HashSet<u64> = st
            .version
            .levels
            .iter()
            .flatten()
            .map(|f| f.number)
            .collect();
        let current_wal = st.wal_number;
        drop(st);
        for name in self.env.list_dir(&self.dir)? {
            let Some(kind) = name.to_str().and_then(filenames::parse_file_name) else {
                continue;
            };
            let dead = match kind {
                FileKind::Table(n) => !live_tables.contains(&n),
                FileKind::Wal(n) => n != current_wal && !live_wals.contains(&n),
                FileKind::Manifest(n) => n != live_manifest,
                FileKind::Current => false,
            };
            if dead {
                self.env.delete_file(&self.dir.join(name))?;
            }
        }
        Ok(())
    }

    /// Engine work counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The metrics registry (standard engine families + table I/O).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Human-readable metrics report.
    pub fn metrics_report(&self) -> String {
        self.metrics.render_text()
    }

    /// Options this database was opened with.
    pub fn options(&self) -> &LsmOptions {
        &self.opts
    }

    /// Last committed sequence number.
    pub fn last_sequence(&self) -> SequenceNumber {
        self.state.lock().last_seq
    }

    /// Per-level file summaries `(level, [(file, size, accesses)])` for the
    /// motivation skew experiment.
    #[allow(clippy::type_complexity)]
    pub fn version_summary(&self) -> Vec<(usize, Vec<(u64, u64, u64)>)> {
        let v = self.state.lock().version.clone();
        v.levels
            .iter()
            .enumerate()
            .map(|(l, files)| {
                (
                    l,
                    files
                        .iter()
                        .map(|f| {
                            (
                                f.number,
                                f.size,
                                f.accesses.load(std::sync::atomic::Ordering::Relaxed),
                            )
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Insert or update `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write_observed(key, value, ValueType::Value, false)
            .map(|_| ())
    }

    /// [`Self::put`] with per-stage profiling for this one operation.
    pub fn put_profiled(&self, key: &[u8], value: &[u8]) -> Result<PerfContext> {
        self.write_observed(key, value, ValueType::Value, true)
    }

    /// Delete `key` (writes a tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.write_observed(key, b"", ValueType::Deletion, false)
            .map(|_| ())
    }

    fn write_observed(
        &self,
        key: &[u8],
        value: &[u8],
        t: ValueType,
        profile: bool,
    ) -> Result<PerfContext> {
        let t0 = self.metrics.now_micros();
        if profile {
            perf::begin_at(self.metrics.clone(), t0);
        }
        if let Err(e) = self.write_impl(key, value, t) {
            if profile {
                perf::cancel();
            }
            return Err(e);
        }
        let t1 = self.metrics.now_micros();
        let ctx = if profile {
            perf::finish_at(t1)
        } else {
            PerfContext::default()
        };
        self.eng.writes.inc();
        self.eng.put_latency.record(t1.saturating_sub(t0));
        Ok(ctx)
    }

    fn write_impl(&self, key: &[u8], value: &[u8], t: ValueType) -> Result<()> {
        let mut st = self.state.lock();
        let seq = st.last_seq + 1;
        st.last_seq = seq;
        let record = encode_wal_record(seq, t, key, value);
        st.wal.add_record(&record)?;
        if self.opts.sync_writes {
            st.wal.sync()?;
        }
        st.mem.add(seq, t, key, value);
        perf::mark(PerfStage::Memtable);
        EngineStats::add(
            &self.stats.user_bytes_written,
            (key.len() + value.len()) as u64,
        );
        if st.mem.approximate_memory_usage() >= self.opts.write_buffer_size {
            self.flush_locked(&mut st)?;
            // At most two compactions per flush: paces compaction like a
            // lagging background thread (one L0→L1 plus one deeper move),
            // so upper levels retain recent data between flushes as they
            // do in LevelDB.
            self.maybe_compact(&mut st, 2)?;
        }
        Ok(())
    }

    /// Force the memtable to disk (no-op when empty).
    pub fn flush(&self) -> Result<()> {
        let mut st = self.state.lock();
        if st.mem.is_empty() {
            return Ok(());
        }
        self.flush_locked(&mut st)?;
        self.maybe_compact(&mut st, 2)
    }

    /// Run compactions until no trigger fires.
    pub fn compact_all(&self) -> Result<()> {
        let mut st = self.state.lock();
        self.maybe_compact(&mut st, 256)
    }

    fn alloc_file(st: &mut DbState) -> u64 {
        let n = st.next_file;
        st.next_file += 1;
        n
    }

    fn table_builder_opts(&self) -> TableBuilderOptions {
        TableBuilderOptions {
            block_size: self.opts.block_size,
            bloom_bits_per_key: self.opts.bloom_bits_per_key,
            filter_key: extract_user_key,
            ..Default::default()
        }
    }

    fn log_edit(&self, st: &mut DbState, edit: &VersionEdit) -> Result<()> {
        st.manifest.add_record(&edit.encode())?;
        st.manifest.sync()?;
        let leveled = self.opts.policy == CompactionPolicy::Leveled;
        st.version = apply_edit(&st.version, edit, leveled);
        Ok(())
    }

    fn flush_locked(&self, st: &mut DbState) -> Result<()> {
        // Seal the memtable, write it as L0 tables, switch WALs.
        let imm = std::mem::replace(&mut st.mem, Arc::new(MemTable::new()));
        if imm.is_empty() {
            return Ok(());
        }
        let t0 = self.metrics.now_micros();
        st.wal.sync()?;
        let old_wal = st.wal_number;
        let new_wal = Self::alloc_file(st);
        st.wal = LogWriter::new(
            self.env
                .new_writable(&filenames::wal_file(&self.dir, new_wal))?,
        );
        st.wal_number = new_wal;

        let mut iter = MemTableSource::new(imm);
        iter.seek_to_first()?;
        let mut flushed = 0u64;
        let stats = &self.stats;
        let mut alloc = |st: &mut DbState| Self::alloc_file(st);
        // Manual allocation closure workaround: collect numbers up front is
        // wrong (unknown count), so thread `st` through a RefCell-free path
        // by allocating from a local counter then committing below.
        let start = st.next_file;
        let mut used = 0u64;
        let mut alloc_fn = || {
            let n = start + used;
            used += 1;
            n
        };
        let _ = &mut alloc;
        let outputs = write_tables(
            self.env.as_ref(),
            &self.dir,
            &mut alloc_fn,
            &mut iter,
            &self.table_builder_opts(),
            self.opts.table_size,
            DropPolicy {
                dedup_user_keys: true,
                drop_tombstones: false,
            },
            |bytes| flushed += bytes,
        )?;
        st.next_file = start + used;

        EngineStats::add(&stats.bytes_flushed, flushed);
        EngineStats::add(&stats.flushes, 1);

        let mut edit = VersionEdit {
            log_number: Some(new_wal),
            next_file_number: Some(st.next_file),
            last_sequence: Some(st.last_seq),
            ..Default::default()
        };
        for f in &outputs {
            edit.add_file(0, f);
        }
        self.log_edit(st, &edit)?;
        self.env
            .delete_file(&filenames::wal_file(&self.dir, old_wal))?;
        self.eng
            .flush_latency
            .record(self.metrics.now_micros().saturating_sub(t0));
        Ok(())
    }

    fn maybe_compact(&self, st: &mut DbState, max_jobs: usize) -> Result<()> {
        // Run up to `max_jobs` compactions (bounded to avoid spins).
        for _ in 0..max_jobs.min(256) {
            let job = {
                let version = st.version.clone();
                let mut cursor = st.compaction_cursor;
                let job = pick_compaction(&version, &self.opts, &mut cursor);
                st.compaction_cursor = cursor;
                job
            };
            let Some(job) = job else {
                return Ok(());
            };
            self.run_compaction(st, job)?;
        }
        Ok(())
    }

    fn run_compaction(
        &self,
        st: &mut DbState,
        job: crate::compaction::CompactionJob,
    ) -> Result<()> {
        let t0 = self.metrics.now_micros();
        let output_level = job.level + 1;
        let input_bytes = job.input_bytes();
        let all_inputs: Vec<Arc<FileMetaData>> = job
            .inputs_lo
            .iter()
            .chain(&job.inputs_hi)
            .cloned()
            .collect();
        let (lo, hi) = {
            let mut lo = extract_user_key(&all_inputs[0].smallest).to_vec();
            let mut hi = extract_user_key(&all_inputs[0].largest).to_vec();
            for f in &all_inputs[1..] {
                let s = extract_user_key(&f.smallest);
                let l = extract_user_key(&f.largest);
                if s < lo.as_slice() {
                    lo = s.to_vec();
                }
                if l > hi.as_slice() {
                    hi = l.to_vec();
                }
            }
            (lo, hi)
        };
        let drop_tombstones = range_is_bottommost(&st.version, output_level, &lo, &hi)
            // With fragmented levels the output level itself may hold older
            // runs we are not merging; keep tombstones in that case.
            && (self.opts.policy == CompactionPolicy::Leveled
                || st.version.level_files(output_level) == 0);

        let mut children: Vec<Box<dyn InternalIterator>> = Vec::with_capacity(all_inputs.len());
        for f in &all_inputs {
            let table = self.tables.get(f.number)?;
            // Compaction reads do not fill the block cache (LevelDB's rule).
            children.push(Box::new(TableSource::new(&table, false)));
        }
        let mut merged = MergingIterator::new(children);
        merged.seek_to_first()?;

        let start = st.next_file;
        let mut used = 0u64;
        let mut alloc_fn = || {
            let n = start + used;
            used += 1;
            n
        };
        let mut written = 0u64;
        let outputs = write_tables(
            self.env.as_ref(),
            &self.dir,
            &mut alloc_fn,
            &mut merged,
            &self.table_builder_opts(),
            self.opts.table_size,
            DropPolicy {
                dedup_user_keys: true,
                drop_tombstones,
            },
            |bytes| written += bytes,
        )?;
        st.next_file = start + used;

        EngineStats::add(&self.stats.compaction_bytes_read, input_bytes);
        EngineStats::add(&self.stats.compaction_bytes_written, written);
        EngineStats::add(&self.stats.compactions, 1);

        let mut edit = VersionEdit {
            next_file_number: Some(st.next_file),
            ..Default::default()
        };
        for f in &job.inputs_lo {
            edit.delete_file(job.level as u32, f.number);
        }
        for f in &job.inputs_hi {
            edit.delete_file(output_level as u32, f.number);
        }
        for f in &outputs {
            edit.add_file(output_level as u32, f);
        }
        self.log_edit(st, &edit)?;

        for f in &all_inputs {
            self.tables.evict(f.number);
            self.env
                .delete_file(&filenames::table_file(&self.dir, f.number))?;
        }
        self.eng
            .merge_latency
            .record(self.metrics.now_micros().saturating_sub(t0));
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_observed(key, false).map(|(v, _)| v)
    }

    /// [`Self::get`] with per-stage profiling for this one operation.
    pub fn get_profiled(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, PerfContext)> {
        self.get_observed(key, true)
    }

    fn get_observed(&self, key: &[u8], profile: bool) -> Result<(Option<Vec<u8>>, PerfContext)> {
        let t0 = self.metrics.now_micros();
        if profile {
            perf::begin_at(self.metrics.clone(), t0);
        }
        let (value, outcome) = match self.get_impl(key) {
            Ok(r) => r,
            Err(e) => {
                if profile {
                    perf::cancel();
                }
                return Err(e);
            }
        };
        self.eng.record_read(outcome);
        let t1 = self.metrics.now_micros();
        let ctx = if profile {
            perf::finish_at(t1)
        } else {
            PerfContext::default()
        };
        self.eng.get_latency.record(t1.saturating_sub(t0));
        Ok((value, ctx))
    }

    /// Lookup body; returns the answer plus the tier that resolved it
    /// (the baseline has two tiers: memtable and sorted tables).
    fn get_impl(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, TraceOutcome)> {
        let (mem, version, snapshot) = {
            let st = self.state.lock();
            (st.mem.clone(), st.version.clone(), st.last_seq)
        };
        match mem.get(key, snapshot) {
            LookupResult::Value(v) => {
                EngineStats::add(&self.stats.memtable_hits, 1);
                perf::mark(PerfStage::Memtable);
                return Ok((Some(v.to_vec()), TraceOutcome::Memtable));
            }
            LookupResult::Deleted => {
                EngineStats::add(&self.stats.memtable_hits, 1);
                perf::mark(PerfStage::Memtable);
                return Ok((None, TraceOutcome::Memtable));
            }
            LookupResult::NotFound => {}
        }
        perf::mark(PerfStage::Memtable);
        let seek_key = make_internal_key(key, snapshot, ValueType::Value);
        let leveled = self.opts.policy == CompactionPolicy::Leveled;
        for (level, files) in version.levels.iter().enumerate() {
            if files.is_empty() {
                continue;
            }
            if level == 0 || !leveled {
                // Overlapping level: check files newest-first.
                for f in files {
                    if !f.may_contain_user_key(key) {
                        continue;
                    }
                    if let Some(found) = self.search_table(f, &seek_key, key)? {
                        return Ok((found, TraceOutcome::Sorted));
                    }
                }
            } else {
                // Sorted, non-overlapping level: at most one candidate file.
                let idx = files.partition_point(|f| extract_user_key(&f.largest) < key);
                if idx < files.len() && files[idx].may_contain_user_key(key) {
                    if let Some(found) = self.search_table(&files[idx], &seek_key, key)? {
                        return Ok((found, TraceOutcome::Sorted));
                    }
                }
            }
        }
        Ok((None, TraceOutcome::Miss))
    }

    /// Search one table for the newest visible version of `user_key`.
    /// Returns `Some(answer)` when the table resolves the key (value or
    /// tombstone), `None` to continue searching older tables.
    fn search_table(
        &self,
        meta: &Arc<FileMetaData>,
        seek_key: &[u8],
        user_key: &[u8],
    ) -> Result<Option<Option<Vec<u8>>>> {
        let table = self.tables.get(meta.number)?;
        if !table.may_contain(user_key) {
            EngineStats::add(&self.stats.bloom_skips, 1);
            return Ok(None);
        }
        EngineStats::add(&self.stats.tables_checked, 1);
        meta.record_access();
        let Some((ikey, value)) = table.get(seek_key, None)? else {
            return Ok(None);
        };
        if extract_user_key(&ikey) != user_key {
            return Ok(None);
        }
        match extract_seq_type(&ikey)?.1 {
            ValueType::Value => Ok(Some(Some(value))),
            ValueType::Deletion => Ok(Some(None)),
        }
    }

    /// Range scan: up to `limit` live entries with `key >= from`.
    pub fn scan(&self, from: &[u8], limit: usize) -> Result<Vec<ScanItem>> {
        self.scan_range(from, None, limit)
    }

    /// Range scan bounded above: `from <= key < end` (`None` = unbounded).
    pub fn scan_range(
        &self,
        from: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<ScanItem>> {
        if let Some(end) = end {
            if end <= from {
                return Ok(Vec::new());
            }
        }
        let t0 = self.metrics.now_micros();
        let mut iter = self.iter()?;
        iter.seek(from, end)?;
        let mut items = Vec::with_capacity(limit.min(1024));
        while iter.valid() && items.len() < limit {
            items.push(ScanItem {
                key: iter.key().to_vec(),
                value: iter.value().to_vec(),
            });
            iter.next(end)?;
        }
        self.eng.scans.inc();
        self.eng.scan_items.add(items.len() as u64);
        self.eng
            .scan_latency
            .record(self.metrics.now_micros().saturating_sub(t0));
        Ok(items)
    }

    /// Total SSTable bytes (space usage reporting).
    pub fn table_bytes(&self) -> u64 {
        self.state.lock().version.total_bytes()
    }

    /// A streaming iterator over the store (memtable + all tables) at the
    /// current sequence number. The iterator sees a consistent snapshot:
    /// tables it holds open stay readable even if compactions replace them
    /// afterwards.
    pub fn iter(&self) -> Result<LiveIter> {
        let (mem, version, snapshot) = {
            let st = self.state.lock();
            (st.mem.clone(), st.version.clone(), st.last_seq)
        };
        let leveled = self.opts.policy == CompactionPolicy::Leveled;
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        children.push(Box::new(MemTableSource::new(mem)));
        for (level, files) in version.levels.iter().enumerate() {
            if files.is_empty() {
                continue;
            }
            if level == 0 || !leveled {
                // Overlapping runs: one child per table.
                for f in files {
                    let table = self.tables.get(f.number)?;
                    children.push(Box::new(TableSource::new(&table, true)));
                }
            } else {
                // One sorted run: a concatenating child keeps seek cost at
                // one table per level.
                let mut run = Vec::with_capacity(files.len());
                for f in files {
                    run.push((f.largest.clone(), self.tables.get(f.number)?));
                }
                children.push(Box::new(ConcatSource::new(run, true)));
            }
        }
        Ok(LiveIter::new(MergingIterator::new(children), snapshot))
    }
}

/// Encode one write as a WAL record (shared with the UniKV engine).
pub fn encode_wal_record(seq: SequenceNumber, t: ValueType, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(key.len() + value.len() + 16);
    put_varint64(&mut rec, seq);
    rec.push(t as u8);
    put_length_prefixed_slice(&mut rec, key);
    put_length_prefixed_slice(&mut rec, value);
    rec
}

/// Decode a record produced by [`encode_wal_record`].
pub fn decode_wal_record(rec: &[u8]) -> Result<(SequenceNumber, ValueType, &[u8], &[u8])> {
    let (seq, n) = get_varint64(rec)?;
    if seq > MAX_SEQUENCE_NUMBER {
        return Err(Error::corruption("wal sequence overflow"));
    }
    let rest = &rec[n..];
    let (&tb, rest) = rest
        .split_first()
        .ok_or_else(|| Error::corruption("wal record truncated"))?;
    let t = ValueType::from_u8(tb)?;
    let (key, n) = get_length_prefixed_slice(rest)?;
    let (value, m) = get_length_prefixed_slice(&rest[n..])?;
    if n + m != rest.len() {
        return Err(Error::corruption("wal record trailing bytes"));
    }
    Ok((seq, t, key, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_env::mem::MemEnv;

    fn tiny_opts() -> LsmOptions {
        LsmOptions {
            write_buffer_size: 4 << 10,
            table_size: 4 << 10,
            base_level_bytes: 16 << 10,
            l0_compaction_trigger: 2,
            block_cache_bytes: 64 << 10,
            ..Default::default()
        }
    }

    fn open_mem(opts: LsmOptions) -> (Arc<MemEnv>, LsmDb) {
        let env = MemEnv::shared();
        let db = LsmDb::open(env.clone(), "/db", opts).unwrap();
        (env, db)
    }

    #[test]
    fn wal_record_roundtrip() {
        let rec = encode_wal_record(42, ValueType::Value, b"k", b"v");
        let (seq, t, k, v) = decode_wal_record(&rec).unwrap();
        assert_eq!((seq, t, k, v), (42, ValueType::Value, &b"k"[..], &b"v"[..]));
        assert!(decode_wal_record(&rec[..rec.len() - 1]).is_err());
    }

    #[test]
    fn put_get_simple() {
        let (_env, db) = open_mem(tiny_opts());
        db.put(b"hello", b"world").unwrap();
        assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
        assert_eq!(db.get(b"missing").unwrap(), None);
    }

    #[test]
    fn overwrite_and_delete() {
        let (_env, db) = open_mem(tiny_opts());
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        db.put(b"k", b"v3").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v3".to_vec()));
    }

    #[test]
    fn many_keys_through_compactions() {
        let (_env, db) = open_mem(tiny_opts());
        let n = 2000u32;
        for i in 0..n {
            db.put(
                format!("key{i:06}").as_bytes(),
                format!("value{i}").repeat(3).as_bytes(),
            )
            .unwrap();
        }
        assert!(
            db.stats()
                .flushes
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
        assert!(
            db.stats()
                .compactions
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
        for i in (0..n).step_by(37) {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(format!("value{i}").repeat(3).into_bytes()),
                "key {i}"
            );
        }
    }

    #[test]
    fn scan_is_sorted_and_live() {
        let (_env, db) = open_mem(tiny_opts());
        for i in 0..500u32 {
            db.put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.delete(b"k0005").unwrap();
        db.put(b"k0003", b"updated").unwrap();
        let items = db.scan(b"k0000", 10).unwrap();
        let keys: Vec<String> = items
            .iter()
            .map(|it| String::from_utf8(it.key.clone()).unwrap())
            .collect();
        assert_eq!(
            keys,
            vec![
                "k0000", "k0001", "k0002", "k0003", "k0004", "k0006", "k0007", "k0008", "k0009",
                "k0010"
            ]
        );
        assert_eq!(items[3].value, b"updated");
    }

    #[test]
    fn recovery_from_wal_and_manifest() {
        let env = MemEnv::shared();
        {
            let db = LsmDb::open(env.clone(), "/db", tiny_opts()).unwrap();
            for i in 0..300u32 {
                db.put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.delete(b"k0007").unwrap();
        } // dropped without explicit flush: tail lives in the WAL
        let db = LsmDb::open(env, "/db", tiny_opts()).unwrap();
        assert_eq!(db.get(b"k0000").unwrap(), Some(b"v0".to_vec()));
        assert_eq!(db.get(b"k0299").unwrap(), Some(b"v299".to_vec()));
        assert_eq!(db.get(b"k0007").unwrap(), None);
        // Sequence survives so new writes shadow old ones.
        db.put(b"k0001", b"new").unwrap();
        assert_eq!(db.get(b"k0001").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn fragmented_policy_correctness() {
        let mut opts = tiny_opts();
        opts.policy = CompactionPolicy::Fragmented;
        let (_env, db) = open_mem(opts);
        for round in 0..5u32 {
            for i in 0..400u32 {
                db.put(
                    format!("k{i:04}").as_bytes(),
                    format!("r{round}v{i}").as_bytes(),
                )
                .unwrap();
            }
        }
        for i in (0..400).step_by(29) {
            assert_eq!(
                db.get(format!("k{i:04}").as_bytes()).unwrap(),
                Some(format!("r4v{i}").into_bytes()),
                "key {i}"
            );
        }
        let items = db.scan(b"k0000", 5).unwrap();
        assert_eq!(items.len(), 5);
        assert_eq!(items[0].value, b"r4v0");
    }

    #[test]
    fn fragmented_writes_less() {
        // PebblesDB's claim: lower write amplification than leveled, on a
        // distinct-key load (random order so leveled overlaps are real).
        let run = |policy| {
            let mut opts = tiny_opts();
            opts.l0_compaction_trigger = 4;
            opts.policy = policy;
            let (_env, db) = open_mem(opts);
            let mut keys: Vec<u32> = (0..6000).collect();
            // Deterministic shuffle.
            let mut s = 0x12345u64;
            for i in (1..keys.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                keys.swap(i, (s % (i as u64 + 1)) as usize);
            }
            for k in keys {
                db.put(format!("k{k:05}").as_bytes(), &[7u8; 64]).unwrap();
            }
            db.stats().write_amplification()
        };
        let leveled = run(CompactionPolicy::Leveled);
        let fragmented = run(CompactionPolicy::Fragmented);
        assert!(
            fragmented < leveled,
            "fragmented WA {fragmented} !< leveled WA {leveled}"
        );
    }

    #[test]
    fn tombstones_fall_out_at_bottom() {
        let (_env, db) = open_mem(tiny_opts());
        for i in 0..800u32 {
            db.put(format!("k{i:04}").as_bytes(), &[1u8; 32]).unwrap();
        }
        for i in 0..800u32 {
            db.delete(format!("k{i:04}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        assert_eq!(db.scan(b"", 10).unwrap().len(), 0);
        for i in (0..800).step_by(101) {
            assert_eq!(db.get(format!("k{i:04}").as_bytes()).unwrap(), None);
        }
    }

    #[test]
    fn empty_db_operations() {
        let (_env, db) = open_mem(tiny_opts());
        assert_eq!(db.get(b"x").unwrap(), None);
        assert!(db.scan(b"", 10).unwrap().is_empty());
        db.flush().unwrap();
        db.compact_all().unwrap();
    }
}
