//! The UniKV engine: differentiated indexing, partial KV separation,
//! dynamic range partitioning, scan optimization, and crash recovery.
//!
//! ## Structure
//!
//! A database is a list of range partitions ordered by boundary key
//! (the in-memory *partition index*; persisted in `MANIFEST`). Each partition
//! has its own memtable + WAL, an UnsortedStore (appended SSTables + hash
//! index), a SortedStore (one sorted run with value pointers), and a value
//! log. One `RwLock` guards the partition list: reads/scans share it,
//! writes and structural operations (flush, merge, GC, split) take it
//! exclusively and run inline, so experiments are deterministic — the
//! paper's background threads are serialized with the foreground exactly
//! as its §GC notes ("GC and compaction operations are executed
//! sequentially... GC cost is charged to write performance"). With
//! `background_jobs > 0`, workers run the same flush and merge code and
//! release the lock around each build.
//!
//! ## Crash consistency
//!
//! Every structural change follows *write files → sync → append one
//! record to `MANIFEST` and sync → delete old files*. The synced append
//! is the commit point (the paper's `GC_done` marker generalized); the
//! delete is one rule, `Engine::retire`: a commit deletes exactly the
//! files it stopped naming. Files written before a crash that never got
//! committed are orphans removed during recovery. The record also carries the hash-index entries of the
//! tables it adds, so recovery never reads a table to rebuild the index.

use crate::batch::{decode_batch_record, encode_batch_record, WriteBatch};
use crate::fetch::fetch_values;
use crate::journal::EventJournal;
use crate::maintenance::{
    stall_level, worker_loop, HealthReport, HealthState, Job, JobKind, MaintClock, MaintState,
    RetryConfig, StallLevel, SyncPoints,
};
use crate::meta::{
    read_manifest, Header, IndexEntry, LogRef, ManifestWriter, PartitionMeta, PartitionView,
    Recovered, TableMeta,
};
use crate::metrics::DbMetrics;
use crate::options::UniKvOptions;
use crate::partition::{table_options_with_io, Partition, SealedMem};
use crate::resolver::{partition_dir, vlog_path, ValueResolver};
use crate::verify::open_committed_table;
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unikv_common::events::{EventBus, EventKind, EventListener};
use unikv_common::ikey::{
    extract_seq_type, extract_user_key, make_internal_key, SequenceNumber, ValueType,
    MAX_SEQUENCE_NUMBER,
};
use unikv_common::metrics::{
    Counters, Histogram, MetricsClock, MetricsSnapshot, TraceOp, TraceOutcome,
};
use unikv_common::perf::{self, PerfContext, PerfStage};
use unikv_common::pointer::SeparatedValue;
use unikv_common::{Error, Result, ValuePointer};
use unikv_env::Env;
use unikv_hashindex::TwoLevelHashIndex;
use unikv_lsm::db::ScanItem;
use unikv_lsm::filenames;
use unikv_lsm::iter::{
    ConcatSource, InternalIterator, LiveIter, MemTableSource, MergingIterator, TableSource,
};
use unikv_memtable::{LookupResult, MemTable};
use unikv_sstable::{
    BlockCache, KeptBlocks, Table, TableBuilder, TableBuilderOptions, TableOptions,
};
use unikv_vlog::{parse_vlog_file_name, record_size, ValueLog};
use unikv_wal::{LogReader, LogWriter, ReadOutcome};

/// A scan reserves `min(limit, SCAN_RESERVE_ITEMS)` items up front: a scan
/// of up to this many items never regrows its result, and a huge `limit`
/// does not reserve a huge buffer.
const SCAN_RESERVE_ITEMS: usize = 1024;

/// Tables the hash index points into (flush outputs) are written with data
/// blocks of `block_size / HASH_TIER_BLOCK_DIVISOR` (1 KiB at the
/// default). A hash probe no longer reads a block: it reads
/// one record through the table's record directory. The small blocks now
/// serve scan seeks and merges, whose per-block costs the divisor was
/// measured against; SortedStore tables keep `block_size`. See DESIGN.md
/// §4 (*Point-read block geometry*).
const HASH_TIER_BLOCK_DIVISOR: usize = 4;

/// The store a table is written for; it decides the data-block size and
/// whether the table gets a record directory.
#[derive(Clone, Copy)]
enum Tier {
    /// Hash-indexed UnsortedStore tables: point-read-sized blocks and,
    /// with the hash index on, a record directory for hash probes.
    Unsorted,
    /// SortedStore tables (full merge, GC, split): `block_size` blocks.
    Sorted,
}

thread_local! {
    /// Set when `commit_meta` fails on the current thread. The worker
    /// loop reads it to tell commit-step failures — the only permanent
    /// failures that poison the database — apart from failures in the
    /// preparatory build steps, which quarantine instead.
    static COMMIT_FAILED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Take (and clear) the current thread's commit-failure marker.
pub(crate) fn take_commit_failure() -> bool {
    COMMIT_FAILED.with(|c| c.replace(false))
}

/// The start, finish and abort events of maintenance op `op`, and the
/// prefix of its sync points.
fn op_kinds(op: TraceOp) -> ([EventKind; 3], &'static str) {
    use EventKind::*;
    match op {
        TraceOp::Flush => ([FlushStart, FlushFinish, FlushAbort], "flush"),
        TraceOp::Merge => ([MergeStart, MergeFinish, MergeAbort], "merge"),
        TraceOp::Gc => ([GcStart, GcFinish, GcAbort], "gc"),
        TraceOp::Split => ([SplitStart, SplitFinish, SplitAbort], "split"),
    }
}

/// Scope guard of one started maintenance op: it holds the clock reading
/// the op's latency sample starts at and pairs the op's `*Start` event
/// with exactly one terminal event. [`OpScope::finish`] publishes the
/// `*Finish` and disarms the guard; any other exit — a `?` early return on
/// a build or commit error, an injected sync-point fault, a panic —
/// publishes the `*Abort` on drop. Every terminal event's `cause` is the
/// op's own start seq, so causal chains stay connected even through
/// failures.
struct OpScope<'a> {
    db: &'a Engine,
    op: TraceOp,
    partition: u32,
    start_seq: u64,
    t0: u64,
    done: bool,
}

impl<'a> OpScope<'a> {
    /// Start `op` on `partition`: read the clock and publish the start
    /// event.
    fn begin(
        db: &'a Engine,
        op: TraceOp,
        partition: u32,
        cause: Option<u64>,
        inputs: Vec<u64>,
        bytes: u64,
    ) -> OpScope<'a> {
        let t0 = db.metrics.registry.now_micros();
        let start = op_kinds(op).0[0];
        let start_seq = db
            .events
            .publish(start, partition, cause, inputs, vec![], bytes, "");
        OpScope {
            db,
            op,
            partition,
            start_seq,
            t0,
            done: false,
        }
    }

    fn finish(&mut self, outputs: Vec<u64>, bytes: u64, detail: &str) -> u64 {
        self.end(op_kinds(self.op).0[1], outputs, bytes, detail)
    }

    /// Publish the terminal event `kind` (finish or abort) and disarm the
    /// guard.
    fn end(&mut self, kind: EventKind, outputs: Vec<u64>, bytes: u64, detail: &str) -> u64 {
        self.done = true;
        let (events, cause) = (&self.db.events, Some(self.start_seq));
        events.publish(kind, self.partition, cause, vec![], outputs, bytes, detail)
    }

    /// The tail a merge, GC or split runs once its commit succeeded:
    /// publish the finish event (the rewrite is durable, so a cleanup
    /// failure below must not read as an abort) and hit the op's `cleanup`
    /// sync point. Then retire the files the commit stopped naming of
    /// `old`, the metadata it replaced, whose table handles `served` holds
    /// (see [`Engine::retire`]). Then install each partition's built
    /// tables, now that the tables they replace have left the cache: each
    /// joins the partition's open handles, and the blocks its build kept go
    /// on the cache's probation segment under its cache id. Last, record
    /// the latency sample. Returns the finish event's seq.
    #[allow(clippy::too_many_arguments)]
    fn finish_rewrite<'p>(
        mut self,
        core: &DbCore,
        outputs: Vec<u64>,
        bytes: u64,
        detail: &str,
        old: &PartitionMeta,
        served: &Partition,
        installs: impl IntoIterator<Item = (&'p Partition, Vec<BuiltTable>)>,
    ) -> Result<u64> {
        let fin = self.finish(outputs, bytes, detail);
        let db = self.db;
        db.sync.hit(&format!("{}:cleanup", op_kinds(self.op).1))?;
        db.retire(core, old, served, Some(self.start_seq))?;
        for (p, built) in installs {
            let mut tables = p.tables_guard();
            for b in built {
                if let Some(kept) = b.kept {
                    b.table.admit(kept)?;
                }
                tables.insert(b.number, b.table);
            }
        }
        db.record_maint(self.op, self.t0);
        Ok(fin)
    }
}

impl Drop for OpScope<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.end(op_kinds(self.op).0[2], vec![], 0, "aborted");
        }
    }
}

/// Phase 1 of a merge, taken under the core lock: the started op, the
/// input table numbers (UnsortedStore, then SortedStore) and an
/// unpositioned cursor over their live entries. The build reads only the
/// snapshot, so [`Engine::full_merge`] runs it under the caller's lock
/// inline and with no lock on a worker; install checks the tiers still
/// name `inputs`.
struct MergeSnapshot<'a> {
    scope: OpScope<'a>,
    inputs: Vec<u64>,
    input_bytes: u64,
    live: LiveIter,
    vlog: Arc<parking_lot::Mutex<ValueLog>>,
}

/// What a flush built: the table's metadata, the kept user keys (for the
/// hash index at install) and the open table.
struct FlushedTable {
    meta: TableMeta,
    keys: Vec<Vec<u8>>,
    table: Arc<Table>,
}

/// A table a merge, GC or split wrote, opened when its build finished,
/// with the data blocks the build kept for the block cache. Installed by
/// [`OpScope::finish_rewrite`] once the rewrite commits.
struct BuiltTable {
    number: u64,
    table: Arc<Table>,
    kept: Option<KeptBlocks>,
}

/// The one SortedStore rewrite, shared by the full merge, GC and split:
/// writes one partition's entries, in key order, into new tables in its
/// directory, rolling over to a new table once one reaches `table_size`.
/// Each table takes its number from the engine's file counter when it
/// opens, and keeps its data blocks for the block cache while the cache
/// has capacity left unreserved. Every value goes through one rule (see
/// [`Rewrite::add`]); the op passes only the partition's value logs and
/// which pointers to copy.
struct Rewrite<'a> {
    db: &'a Engine,
    /// The partition the output belongs to, and its directory.
    pid: u32,
    dir: PathBuf,
    /// Its value logs, where separated and copied values are appended. A
    /// worker's merge builds without the core lock, so each append takes
    /// the mutex.
    vlog: Arc<parking_lot::Mutex<ValueLog>>,
    /// Which pointers the rewrite copies into `vlog` (GC's victim test).
    copy: &'a dyn Fn(&ValuePointer) -> bool,
    builder: Option<TableBuilder>,
    tables: Vec<TableMeta>,
    built: Vec<BuiltTable>,
    /// The log the first append rotated to: the rewrite's values never
    /// share a log with older ones.
    new_log: Option<u64>,
    /// Bytes written: appended values plus finished tables.
    written: u64,
    /// Bytes of the values the output's pointers address.
    live_value_bytes: u64,
    /// The logs of other partitions that kept pointers address.
    foreign_logs: BTreeSet<LogRef>,
}

impl<'a> Rewrite<'a> {
    fn new(
        db: &'a Engine,
        pid: u32,
        vlog: Arc<parking_lot::Mutex<ValueLog>>,
        copy: &'a dyn Fn(&ValuePointer) -> bool,
    ) -> Rewrite<'a> {
        Rewrite {
            db,
            pid,
            dir: partition_dir(&db.root, pid),
            vlog,
            copy,
            builder: None,
            tables: Vec::new(),
            built: Vec::new(),
            new_log: None,
            written: 0,
            live_value_bytes: 0,
            foreign_logs: BTreeSet::new(),
        }
    }

    /// Write one entry. An inline value is appended to the log when
    /// `enable_kv_separation` is on, a pointer `copy` selects is read and
    /// re-appended, and every other value is kept as it is.
    fn add(&mut self, ikey: &[u8], value: &[u8]) -> Result<()> {
        let slot = match SeparatedValue::decode(value)? {
            SeparatedValue::Inline(v) if self.db.opts.enable_kv_separation => self.append(&v)?,
            SeparatedValue::Pointer(ptr) if (self.copy)(&ptr) => {
                self.append(&self.db.resolver.read(&ptr)?)?
            }
            SeparatedValue::Pointer(ptr) => {
                if ptr.partition != self.pid {
                    self.foreign_logs.insert(LogRef {
                        partition: ptr.partition,
                        log_number: ptr.log_number,
                    });
                }
                SeparatedValue::Pointer(ptr)
            }
            inline => inline,
        };
        if let SeparatedValue::Pointer(ptr) = &slot {
            self.live_value_bytes += ptr.length as u64;
        }
        if self.builder.is_none() {
            let number = self.db.new_file_number();
            let file = self
                .db
                .env
                .new_writable(&filenames::table_file(&self.dir, number))?;
            let mut builder = TableBuilder::new(file, self.db.table_builder_opts(Tier::Sorted));
            if let Some(cache) = &self.db.topts.cache {
                builder.keep_blocks(cache.clone());
            }
            self.builder = Some(builder);
            self.tables.push(TableMeta {
                number,
                size: 0,
                smallest: Vec::new(),
                largest: Vec::new(),
            });
        }
        let b = self.builder.as_mut().expect("opened above");
        b.add(ikey, &slot.encode())?;
        if b.estimated_size() >= self.db.opts.table_size as u64 {
            self.finish_table()?;
        }
        Ok(())
    }

    /// Append `value` to the log, rotating to a new log first on the
    /// rewrite's first append, so a rewrite that appends nothing leaves no
    /// empty log behind.
    fn append(&mut self, value: &[u8]) -> Result<SeparatedValue> {
        let mut vlog = self.vlog.lock();
        if self.new_log.is_none() {
            self.new_log = Some(vlog.rotate()?);
        }
        self.written += value.len() as u64;
        Ok(SeparatedValue::Pointer(vlog.append(value)?))
    }

    /// Finish the open table, if any, and open it.
    fn finish_table(&mut self) -> Result<()> {
        if let Some(b) = self.builder.take() {
            let props = b.finish()?;
            self.written += props.file_size;
            let t = self.tables.last_mut().expect("each builder has a table");
            t.size = props.file_size;
            t.smallest = props.smallest;
            t.largest = props.largest;
            let path = filenames::table_file(&self.dir, t.number);
            self.built.push(BuiltTable {
                number: t.number,
                table: self.db.open_table_file(&path, t.size)?,
                kept: props.kept,
            });
        }
        Ok(())
    }

    /// Finish the last table and sync the log the values went to.
    fn finish(&mut self) -> Result<()> {
        self.finish_table()?;
        if self.new_log.is_some() {
            self.vlog.lock().sync()?;
        }
        Ok(())
    }
}

struct DbCore {
    /// Partitions ordered by `meta.lo`.
    partitions: Vec<Partition>,
    next_partition: u32,
    last_seq: SequenceNumber,
    /// The metadata log every structural change commits to.
    manifest: ManifestWriter,
}

impl DbCore {
    /// Index of the partition whose range contains `user_key`.
    fn route(&self, user_key: &[u8]) -> usize {
        let idx = self
            .partitions
            .partition_point(|p| p.meta.lo.as_slice() <= user_key);
        idx.saturating_sub(1)
    }

    /// Current index of the partition with id `pid`, if it still exists.
    /// Background jobs address partitions by id because indexes shift
    /// whenever another partition splits.
    fn partition_index(&self, pid: u32) -> Option<usize> {
        self.partitions.iter().position(|p| p.meta.id == pid)
    }
}

/// The UniKV engine: all database state and the whole database API.
/// [`UniKv`] owns it and the maintenance workers' join handles, and
/// derefs to it; the workers share it through an `Arc`.
pub struct Engine {
    pub(crate) env: Arc<dyn Env>,
    root: PathBuf,
    pub(crate) opts: UniKvOptions,
    topts: TableOptions,
    core: RwLock<DbCore>,
    /// The next file number (tables, WALs). Builds draw from it with or
    /// without the core lock; each manifest commit records its value.
    /// `Relaxed` suffices: the counter publishes no other data, and a
    /// commit names only numbers drawn before it on its own thread or
    /// under the core lock, so its load reads past all of them.
    next_file: AtomicU64,
    resolver: Arc<ValueResolver>,
    pub(crate) metrics: DbMetrics,
    pub(crate) maint: MaintState,
    pub(crate) sync: SyncPoints,
    /// Lifecycle event bus: journal + user listeners. With neither, a
    /// publish is one atomic increment (seq numbering stays continuous).
    pub(crate) events: Arc<EventBus>,
    /// The persistent journal, kept for its error counters; it is also
    /// registered on `events` as a listener.
    journal: Option<Arc<EventJournal>>,
    /// Causal triggers for scheduled background jobs: the event seq that
    /// made `schedule_triggers` enqueue the job, consumed when a worker
    /// starts it. Kept outside `Job` so job identity (dedup, quarantine)
    /// is untouched.
    job_causes: parking_lot::Mutex<HashMap<Job, u64>>,
}

impl Engine {
    /// Open (creating or recovering) the engine state under `root`.
    fn open_inner(env: Arc<dyn Env>, root: PathBuf, opts: UniKvOptions) -> Result<Engine> {
        opts.validate()?;
        env.create_dir_all(&root)?;
        let cache = (opts.block_cache_bytes > 0).then(|| BlockCache::new(opts.block_cache_bytes));
        let metrics = DbMetrics::new(&opts);
        let topts = table_options_with_io(cache, Some(metrics.table_io.clone()));

        let Recovered {
            meta,
            index_entries,
            index_geometry,
        } = read_manifest(env.as_ref(), &root)?.unwrap_or_default();
        // Logged index entries only fit an index of the same geometry.
        let geometry = opts.enable_hash_index.then(|| {
            let index = TwoLevelHashIndex::with_capacity(index_capacity(&opts), opts.num_hashes);
            (index.num_buckets() as u32, opts.num_hashes as u32)
        });
        let replay_index = geometry.is_some() && geometry == index_geometry;

        let mut core = DbCore {
            partitions: Vec::with_capacity(meta.partitions.len()),
            next_partition: meta.next_partition,
            last_seq: meta.last_sequence,
            manifest: ManifestWriter::new(&root, geometry),
        };

        // Sweep orphans in every partition directory before opening logs
        // (ValueLog::open adopts whatever *.vlog files it finds).
        for name in env.list_dir(&root)? {
            let Some(s) = name.to_str() else { continue };
            let Some(id) = s.strip_prefix('p').and_then(|x| x.parse::<u32>().ok()) else {
                continue;
            };
            sweep_partition_dir(
                env.as_ref(),
                &partition_dir(&root, id),
                id,
                &meta.partitions,
            )?;
        }

        let mut last_seq = meta.last_sequence;
        let mut next_file = meta.next_file;
        for pmeta in &meta.partitions {
            let p = open_partition(
                &env,
                &root,
                &opts,
                &topts,
                pmeta,
                replay_index.then(|| index_entries.get(&pmeta.id).map_or(&[][..], Vec::as_slice)),
                &mut last_seq,
                &mut next_file,
                &metrics,
            )?;
            core.partitions.push(p);
        }
        core.last_seq = last_seq;
        core.partitions.sort_by(|a, b| a.meta.lo.cmp(&b.meta.lo));

        // Event bus + optional persistent journal. The journal is strictly
        // advisory: failure to open it degrades to "no journal" (never a
        // failed database open), and seq numbering continues from whatever
        // events survived on disk.
        let mut listeners = opts.listeners.0.clone();
        let mut journal = None;
        let mut first_seq = 1u64;
        if opts.enable_event_journal {
            if let Ok((j, next)) = EventJournal::open(
                env.clone(),
                &root,
                opts.event_journal_max_bytes,
                opts.paranoid_checks,
            ) {
                first_seq = next;
                listeners.push(j.clone() as Arc<dyn EventListener>);
                journal = Some(j);
            }
        }
        let events = EventBus::new(listeners, first_seq);

        let db = Engine {
            resolver: Arc::new(ValueResolver::new(env.clone(), root.clone())),
            env,
            root,
            maint: MaintState::new(
                RetryConfig::from_options(&opts),
                &metrics.registry,
                events.clone(),
            ),
            opts,
            topts,
            core: RwLock::new(core),
            next_file: AtomicU64::new(next_file),
            metrics,
            sync: SyncPoints::default(),
            events,
            journal,
            job_causes: parking_lot::Mutex::new(HashMap::new()),
        };

        // Flush any memtable rebuilt from a WAL so the on-disk state is
        // self-describing, then commit. The first commit of every open
        // writes a fresh manifest snapshot (also covering the fresh-database
        // case), so no record ever follows a torn tail. Then each
        // partition retires what the manifest named and the commit no
        // longer does: the replayed WALs, whose contents are in flushed
        // tables.
        {
            let mut core = db.core.write();
            for i in 0..core.partitions.len() {
                db.flush_partition(&mut core, i)?;
            }
            db.commit_meta(&mut core, None)?;
            for old in &meta.partitions {
                let pidx = core
                    .partition_index(old.id)
                    .expect("open serves every partition");
                db.retire(&core, old, &core.partitions[pidx], None)?;
            }
        }
        Ok(db)
    }

    /// Every counter family as one list; reads the same values as
    /// [`Engine::metrics_snapshot`]'s counters. A one-call form kept for
    /// callers of the former stats struct.
    pub fn stats(&self) -> Counters<'_> {
        self.metrics.registry.counters()
    }

    /// Write amplification: bytes written by flushes, merges, GC and
    /// splits per byte of user data written (0 before any write).
    pub fn write_amplification(&self) -> f64 {
        let m = &self.metrics;
        let user = m.user_bytes_written.value();
        if user == 0 {
            return 0.0;
        }
        let device = m.bytes_flushed.value()
            + m.merge_bytes_written.value()
            + m.gc_bytes_written.value()
            + m.split_bytes_written.value();
        device as f64 / user as f64
    }

    /// Options this database was opened with.
    pub fn options(&self) -> &UniKvOptions {
        &self.opts
    }

    /// Number of partitions (grows via dynamic range partitioning).
    pub fn partition_count(&self) -> usize {
        self.core.read().partitions.len()
    }

    /// The current partition boundary keys (`lo` of each partition).
    pub fn partition_boundaries(&self) -> Vec<Vec<u8>> {
        self.core
            .read()
            .partitions
            .iter()
            .map(|p| p.meta.lo.clone())
            .collect()
    }

    /// Every partition's metadata as the running database serves it, in
    /// key order. Between structural operations it equals what the
    /// manifest last committed, which is what a reopen reads: every
    /// structural op publishes its changes only once its commit succeeded.
    pub fn partition_metas(&self) -> Vec<PartitionMeta> {
        let core = self.core.read();
        core.partitions.iter().map(|p| p.meta.clone()).collect()
    }

    /// Logical size of the hash indexes across partitions, at the paper's
    /// 8 B per entry (experiment E12). This is not heap bytes: the flat
    /// index holds 12 B per entry plus 4 B per bucket.
    pub fn index_memory_bytes(&self) -> usize {
        self.core
            .read()
            .partitions
            .iter()
            .map(|p| p.index.memory_bytes())
            .sum()
    }

    /// Bytes of block payload the shared block cache holds (0 without a
    /// cache).
    pub fn block_cache_bytes(&self) -> usize {
        self.topts.cache.as_ref().map_or(0, |c| c.bytes())
    }

    /// The UnsortedStore table ids the hash index names for `key`, newest
    /// first, false positives included: the candidates a get of `key`
    /// would verify.
    pub fn index_candidates(&self, key: &[u8]) -> Vec<u32> {
        let core = self.core.read();
        core.partitions[core.route(key)]
            .index
            .candidates(key)
            .collect()
    }

    /// Total logical bytes stored (tables + live values).
    pub fn logical_bytes(&self) -> u64 {
        self.core
            .read()
            .partitions
            .iter()
            .map(|p| p.logical_size())
            .sum()
    }

    /// Last committed sequence number.
    pub fn last_sequence(&self) -> SequenceNumber {
        self.core.read().last_seq
    }

    /// The named sync-point registry for crash testing: arm a hook to
    /// observe (or abort, by returning `Err`) structural operations at
    /// any of the [`crate::maintenance::SYNC_POINTS`]. An abort models a
    /// crash at that step — drop the database and reopen to exercise
    /// recovery.
    pub fn sync_points(&self) -> &SyncPoints {
        &self.sync
    }

    /// Block until the maintenance queue is empty and no job is running.
    /// Returns immediately in inline mode or after a background failure.
    pub fn wait_for_background(&self) {
        self.maint.wait_idle();
    }

    /// The fatal background-maintenance error that poisoned this
    /// database, if any. Once set, writes and structural operations fail
    /// with this error; reads keep working.
    pub fn background_error(&self) -> Option<String> {
        self.maint.poison_message()
    }

    /// Current health state (see [`HealthState`] for the transitions).
    /// Lock-free; always `Healthy` in inline mode.
    pub fn health(&self) -> HealthState {
        self.maint.health_state()
    }

    /// Detailed health snapshot: state, jobs retrying, quarantined jobs
    /// with their reasons, and the poison message if any.
    pub fn health_report(&self) -> HealthReport {
        self.maint.health_report()
    }

    /// Replace the maintenance scheduler's clock (milliseconds, arbitrary
    /// monotonic origin), or restore the real clock with `None`. Backoff
    /// deadlines and quarantine probes are evaluated against it — a test
    /// or simulation hook so retry schedules elapse without sleeping.
    pub fn set_maintenance_clock(&self, clock: Option<MaintClock>) {
        self.maint.set_clock(clock);
    }

    /// The database's metric bundle: registry plus every typed handle.
    pub fn metrics(&self) -> &DbMetrics {
        &self.metrics
    }

    /// Listener panics caught (and swallowed) so far.
    pub fn listener_panics(&self) -> u64 {
        self.events.listener_panics()
    }

    /// Event-journal health: `(events_written, write_errors)` since open,
    /// or `None` when the journal is disabled or failed to open.
    pub fn event_journal_stats(&self) -> Option<(u64, u64)> {
        self.journal
            .as_ref()
            .map(|j| (j.events_written(), j.write_errors()))
    }

    /// Human-readable metrics report: every counter, gauge, and latency
    /// histogram (count/p50/p95/p99/max).
    pub fn metrics_report(&self) -> String {
        self.metrics.registry.render_text()
    }

    /// Machine-readable metrics report (tab-separated, one family per
    /// line; histograms include their full bucket vector).
    pub fn metrics_report_machine(&self) -> String {
        self.metrics.registry.snapshot().render_machine()
    }

    /// Snapshot every metric family (mergeable across databases/engines).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.registry.snapshot()
    }

    /// Replace the metrics clock (microseconds, arbitrary monotonic
    /// origin), or restore the real clock with `None`. Tests install
    /// [`unikv_common::metrics::manual_step_clock`] to make latency
    /// histograms exactly reproducible.
    pub fn set_metrics_clock(&self, clock: Option<MetricsClock>) {
        self.metrics.registry.set_clock(clock);
    }

    /// Zero every metric; registered families remain enumerable.
    pub fn reset_metrics(&self) {
        self.metrics.registry.reset();
    }

    /// Insert or update `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let op = (ValueType::Value, key, value);
        self.write(&[op], &self.metrics.eng.put_latency)
    }

    /// Delete `key`.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let op: (_, _, &[u8]) = (ValueType::Deletion, key, b"");
        self.write(&[op], &self.metrics.eng.put_latency)
    }

    /// [`Engine::put`] in a [`perf::profile`] scope: the put's stage
    /// profile (stall wait, router, WAL append/sync, memtable). Kept as a
    /// one-call form for callers that sample single ops.
    pub fn put_profiled(&self, key: &[u8], value: &[u8]) -> Result<PerfContext> {
        let (r, ctx) = perf::profile(|| self.put(key, value));
        r.map(|()| ctx)
    }

    /// Apply `batch`, atomically per partition: each partition's slice of
    /// the batch is one WAL record, and every slice is logged (and synced,
    /// when `sync_writes` is on) before any op reaches a memtable. A crash,
    /// or a failed append or sync, between two slices keeps the slices
    /// logged before it and loses the rest.
    pub fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let ops: Vec<_> = batch
            .ops
            .iter()
            .map(|(t, k, v)| (*t, k.as_slice(), v.as_slice()))
            .collect();
        self.write(&ops, &self.metrics.batch_latency)?;
        self.metrics.batch_ops.add(ops.len() as u64);
        Ok(())
    }

    /// The one write path, for puts, deletes and batches: log each
    /// partition's ops as one WAL record, then apply every op to its
    /// memtable. Records `latency` once per call, so `put_latency` counts
    /// put and delete calls and `batch_latency` batches, while `writes`
    /// counts ops. The profiler hooks reuse the call's own histogram clock
    /// readings (`t0`/`t1`), so a profile's stage sum equals the recorded
    /// latency exactly and an unprofiled call reads the clock twice.
    fn write(&self, ops: &[(ValueType, &[u8], &[u8])], latency: &Histogram) -> Result<()> {
        if ops.iter().any(|(_, k, _)| k.is_empty()) {
            return Err(Error::invalid_argument("empty keys are not supported"));
        }
        let t0 = self.metrics.registry.now_micros();
        perf::begin_at(&self.metrics.registry, t0);
        if self.opts.background_jobs > 0 {
            self.wait_for_write_room(ops)?;
            perf::mark(PerfStage::StallWait);
        }
        let mut core = self.core.write();
        let base = core.last_seq + 1;
        core.last_seq += ops.len() as u64;
        // (partition index, partition id, op index), stably sorted so each
        // partition's ops sit together in write order.
        let mut order: Vec<(usize, u32, usize)> = ops
            .iter()
            .enumerate()
            .map(|(i, (_, k, _))| {
                let pidx = core.route(k);
                (pidx, core.partitions[pidx].meta.id, i)
            })
            .collect();
        order.sort_by_key(|&(pidx, _, _)| pidx);
        perf::mark(PerfStage::Router);
        // Log every partition's slice before any op reaches a memtable.
        for slice in order.chunk_by(|a, b| a.0 == b.0) {
            let p = &mut core.partitions[slice[0].0];
            let slice_ops = slice.iter().map(|&(_, _, i)| ops[i]);
            p.wal
                .add_record(&encode_batch_record(base + slice[0].2 as u64, slice_ops))?;
            if self.opts.sync_writes {
                p.wal.sync()?;
            }
        }
        // Memtable values carry the SeparatedValue slot encoding so every
        // store tier speaks the same value format.
        let mut bytes = 0;
        for &(pidx, _, i) in &order {
            let (t, key, value) = ops[i];
            let slot = SeparatedValue::encode_inline(value);
            core.partitions[pidx]
                .mem
                .add(base + i as u64, t, key, &slot);
            bytes += key.len() + value.len();
        }
        perf::mark(PerfStage::Memtable);
        self.metrics.user_bytes_written.add(bytes as u64);
        // By id, as in `flush`: an inline split shifts every partition
        // after it.
        order.dedup_by_key(|&mut (pidx, _, _)| pidx);
        for (_, pid, _) in order {
            if let Some(pidx) = core.partition_index(pid) {
                self.on_memtable_full(&mut core, pidx)?;
            }
        }
        let t1 = self.metrics.registry.now_micros();
        perf::finish_at(t1);
        self.metrics.eng.writes.add(ops.len() as u64);
        latency.record(t1.saturating_sub(t0));
        Ok(())
    }

    /// The write path's memtable-full step: once partition `pidx`'s
    /// memtable reaches `write_buffer_size`, seal it, then drain it and run
    /// the triggers inline, or schedule its flush (background mode).
    fn on_memtable_full(&self, core: &mut DbCore, pidx: usize) -> Result<()> {
        if core.partitions[pidx].mem.approximate_memory_usage() < self.opts.write_buffer_size {
            return Ok(());
        }
        if self.opts.background_jobs > 0 {
            self.seal_memtable(core, pidx)?;
            self.schedule(JobKind::Flush, core.partitions[pidx].meta.id);
            return Ok(());
        }
        let fin = self.flush_partition(core, pidx)?;
        self.run_triggers(core, pidx, fin)
    }

    /// Force all memtables (active and sealed) to disk, then run every
    /// partition's triggers. In background mode this quiesces the workers
    /// first, so it is a true barrier. The triggers address partitions by
    /// id: a split shifts the index of every partition after it.
    pub fn flush(&self) -> Result<()> {
        let _pause = self.pause_maintenance()?;
        let mut core = self.core.write();
        let mut fins = Vec::with_capacity(core.partitions.len());
        for i in 0..core.partitions.len() {
            let pid = core.partitions[i].meta.id;
            fins.push((pid, self.flush_partition(&mut core, i)?));
        }
        for (pid, fin) in fins {
            if let Some(pidx) = core.partition_index(pid) {
                self.run_triggers(&mut core, pidx, fin)?;
            }
        }
        Ok(())
    }

    /// Force a full merge (UnsortedStore → SortedStore) in every partition.
    pub fn compact_all(&self) -> Result<()> {
        let _pause = self.pause_maintenance()?;
        let mut core = self.core.write();
        for i in 0..core.partitions.len() {
            let fin = self.flush_partition(&mut core, i)?;
            let pid = core.partitions[i].meta.id;
            self.full_merge(Some(&mut core), pid, || fin)?;
        }
        Ok(())
    }

    /// Run GC on every partition regardless of the garbage ratio. Every
    /// value log is a victim, so every live value is rewritten into fresh
    /// logs (a triggered GC rewrites only the logs that crossed
    /// `gc_garbage_ratio`; test/maintenance hook).
    pub fn force_gc(&self) -> Result<()> {
        let _pause = self.pause_maintenance()?;
        let mut core = self.core.write();
        for i in 0..core.partitions.len() {
            self.gc_partition(&mut core, i, 0.0, None)?;
        }
        Ok(())
    }

    /// Quiesce background maintenance for the duration of a foreground
    /// structural operation. In inline mode this is free; in background
    /// mode it blocks new jobs from starting and waits for inflight ones,
    /// and surfaces a prior background failure as an error.
    fn pause_maintenance(&self) -> Result<Option<crate::maintenance::PauseGuard<'_>>> {
        if let Some(err) = self.maint.poisoned_error() {
            return Err(err);
        }
        if self.opts.background_jobs == 0 {
            return Ok(None);
        }
        Ok(Some(self.maint.pause()))
    }

    /// Enqueue a background job (no-op in inline mode; duplicates collapse).
    fn schedule(&self, kind: JobKind, partition: u32) {
        if self.opts.background_jobs == 0 {
            return;
        }
        if let Some(depth) = self.maint.schedule(Job { kind, partition }) {
            self.maint.jobs_scheduled.inc();
            self.metrics.maint_queue_depth.set(depth as u64);
        }
    }

    /// Remember the event seq that caused `kind` to be scheduled on
    /// `partition`; the worker publishing the job's start event consumes
    /// it via [`Engine::take_job_cause`]. Only bothers when someone is
    /// listening — the map must stay empty on the zero-overhead path.
    fn note_job_cause(&self, kind: JobKind, partition: u32, cause: Option<u64>) {
        let Some(cause) = cause else { return };
        if self.opts.background_jobs == 0 || !self.events.has_listeners() {
            return;
        }
        self.job_causes
            .lock()
            .insert(Job { kind, partition }, cause);
    }

    fn take_job_cause(&self, kind: JobKind, partition: u32) -> Option<u64> {
        if !self.events.has_listeners() {
            return None;
        }
        self.job_causes.lock().remove(&Job { kind, partition })
    }

    /// Backpressure: before a write proceeds, brake against the worst debt
    /// (sealed memtables awaiting flush, UnsortedStore merge backlog) of
    /// the partitions its ops route to.
    fn wait_for_write_room(&self, ops: &[(ValueType, &[u8], &[u8])]) -> Result<()> {
        let mut slowed = false;
        let mut stopped = false;
        let mut stall_seq = None;
        let start = Instant::now();
        let result = loop {
            // Poisoned or ReadOnly health rejects the write with a typed
            // error (reads and scans are unaffected).
            if let Some(err) = self.maint.write_gate_error() {
                break Err(err);
            }
            let health = self.maint.health_state();
            let (level, pid, imms, unsorted) = {
                let core = self.core.read();
                let eval = |p: &Partition| {
                    let (imms, unsorted) = p.stall_debt();
                    (
                        stall_level(imms, unsorted, health, &self.opts),
                        p.meta.id,
                        imms,
                        unsorted,
                    )
                };
                ops.iter()
                    .map(|(_, k, _)| eval(&core.partitions[core.route(k)]))
                    .max_by_key(|t| t.0)
                    .unwrap_or((StallLevel::None, 0, 0, 0))
            };
            match level {
                StallLevel::None => break Ok(()),
                StallLevel::Slowdown => {
                    // Brake once, then let the write through: the goal is
                    // to shave the ingest rate, not to serialize on the
                    // background queue.
                    if !slowed {
                        slowed = true;
                        self.metrics.stall_slowdowns.inc();
                        if stall_seq.is_none() && self.events.has_listeners() {
                            stall_seq = Some(self.events.publish(
                                EventKind::StallBegin,
                                pid,
                                None,
                                vec![],
                                vec![],
                                0,
                                "slowdown",
                            ));
                        }
                        std::thread::sleep(Duration::from_micros(self.opts.stall_sleep_micros));
                    }
                    break Ok(());
                }
                StallLevel::Stop => {
                    if !stopped {
                        stopped = true;
                        self.metrics.stall_stops.inc();
                        if stall_seq.is_none() && self.events.has_listeners() {
                            stall_seq = Some(self.events.publish(
                                EventKind::StallBegin,
                                pid,
                                None,
                                vec![],
                                vec![],
                                0,
                                "stop",
                            ));
                        }
                    }
                    // Defensive re-schedule: the jobs that pay the debt
                    // down are normally already queued, but a dropped
                    // wakeup must not wedge the writer forever.
                    if imms > 0 {
                        self.schedule(JobKind::Flush, pid);
                    }
                    if unsorted >= self.opts.slowdown_unsorted_tables {
                        self.schedule(JobKind::Merge, pid);
                    }
                    // Fail fast when the debt cannot drain: a hard-stopped
                    // writer whose partition's flush is quarantined or
                    // waiting out a retry backoff would otherwise block
                    // for the whole backoff schedule. Raise ReadOnly (the
                    // next job completion settles it back) and reject.
                    if imms > 0 && self.maint.flush_blocked(pid) {
                        self.maint.raise_health(HealthState::ReadOnly);
                        continue; // next iteration returns the typed error
                    }
                    self.maint.wait_for_progress(Duration::from_millis(10));
                }
            }
        };
        if slowed || stopped {
            let waited = start.elapsed().as_micros() as u64;
            self.metrics.stall_time_micros.add(waited);
            if let Some(begin) = stall_seq {
                self.events.publish(
                    EventKind::StallEnd,
                    0,
                    Some(begin),
                    vec![],
                    vec![],
                    waited,
                    "",
                );
            }
        }
        result
    }

    // ---------------------------------------------------------------
    // Reads
    // ---------------------------------------------------------------

    /// Surface read-path failures to the read-error counters: corruption
    /// detected anywhere along a read (block CRC, value CRC, pointer
    /// decode) and I/O errors bubbling out of the environment.
    fn track_read<T>(&self, r: Result<T>) -> Result<T> {
        match &r {
            Err(Error::Corruption(_)) => self.metrics.corruptions_detected.inc(),
            Err(Error::Io(_)) => self.metrics.read_io_errors.inc(),
            _ => {}
        }
        r
    }

    /// Point lookup. Like the write path, the profiler hooks reuse the
    /// op's two histogram clock readings.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let t0 = self.metrics.registry.now_micros();
        perf::begin_at(&self.metrics.registry, t0);
        let r = self.track_read(self.get_impl(key));
        let t1 = self.metrics.registry.now_micros();
        perf::finish_at(t1);
        self.metrics.eng.get_latency.record(t1.saturating_sub(t0));
        let (value, outcome) = r?;
        self.metrics.eng.record_read(outcome);
        Ok(value)
    }

    /// [`Engine::get`] in a [`perf::profile`] scope: the value with the
    /// get's stage profile (router, memtable, index probes, boundary
    /// search, block reads, vlog fetch), whose `total_micros` equals the
    /// latency the `get` histogram recorded for this call.
    pub fn get_profiled(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, PerfContext)> {
        let (r, ctx) = perf::profile(|| self.get(key));
        r.map(|v| (v, ctx))
    }

    /// Resolve `key` to its value plus the tier that answered (for the
    /// per-tier read counters).
    fn get_impl(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, TraceOutcome)> {
        let core = self.core.read();
        let snapshot = core.last_seq;
        let p = &core.partitions[core.route(key)];
        perf::mark(PerfStage::Router);

        // 1. Memtables: the active one, then sealed ones newest-first
        //    (sealed memtables hold data newer than any flushed table).
        for mem in std::iter::once(&p.mem).chain(p.imms.iter().rev().map(|s| &s.mem)) {
            match mem.get(key, snapshot) {
                LookupResult::Value(slot) => {
                    self.metrics.memtable_hits.inc();
                    perf::mark(PerfStage::Memtable);
                    let (v, _) = self.resolve_slot(slot)?;
                    return Ok((Some(v), TraceOutcome::Memtable));
                }
                LookupResult::Deleted => {
                    self.metrics.memtable_hits.inc();
                    perf::mark(PerfStage::Memtable);
                    return Ok((None, TraceOutcome::Memtable));
                }
                LookupResult::NotFound => {}
            }
        }
        perf::mark(PerfStage::Memtable);

        let seek_key = make_internal_key(key, snapshot, ValueType::Value);

        // 2. UnsortedStore via the hash index (or a newest-first table scan
        //    when the index is disabled — ablation E7).
        if self.opts.enable_hash_index {
            for table_id in p.index.candidates(key) {
                perf::count_hash_probes(1);
                let Some(tmeta) = p.meta.unsorted.iter().find(|t| t.number == table_id as u64)
                else {
                    continue; // stale entry for an already-merged table
                };
                perf::mark(PerfStage::IndexProbe);
                match self.probe_table(p, tmeta, &seek_key, key, true)? {
                    Probe::Value(slot) => {
                        let (v, _) = self.resolve_slot(&slot)?;
                        return Ok((Some(v), TraceOutcome::Unsorted));
                    }
                    Probe::Tombstone => return Ok((None, TraceOutcome::Unsorted)),
                    Probe::Miss => {
                        self.metrics.index_false_positives.inc();
                    }
                }
            }
        } else {
            for tmeta in p.unsorted_newest_first() {
                if extract_user_key(&tmeta.smallest) > key || extract_user_key(&tmeta.largest) < key
                {
                    continue;
                }
                match self.probe_table(p, tmeta, &seek_key, key, false)? {
                    Probe::Value(slot) => {
                        let (v, _) = self.resolve_slot(&slot)?;
                        return Ok((Some(v), TraceOutcome::Unsorted));
                    }
                    Probe::Tombstone => return Ok((None, TraceOutcome::Unsorted)),
                    Probe::Miss => {}
                }
            }
        }

        // 3. SortedStore: binary search over boundary keys — at most one
        //    table, at most one data block. Values here may live in the
        //    value log (partial KV separation); report those as `Vlog`.
        let sorted = p.sorted_table_for(key);
        perf::mark(PerfStage::BoundarySearch);
        if let Some(tmeta) = sorted {
            match self.probe_table(p, tmeta, &seek_key, key, false)? {
                Probe::Value(slot) => {
                    let (v, from_vlog) = self.resolve_slot(&slot)?;
                    let outcome = if from_vlog {
                        TraceOutcome::Vlog
                    } else {
                        TraceOutcome::Sorted
                    };
                    return Ok((Some(v), outcome));
                }
                Probe::Tombstone => return Ok((None, TraceOutcome::Sorted)),
                Probe::Miss => {}
            }
        }
        Ok((None, TraceOutcome::Miss))
    }

    /// Look `user_key` up in one table. A hash probe (`by_record`) reads
    /// just the key's record when the table has a record directory; the
    /// SortedStore, the index-off ablation (E7) and tables without a
    /// directory read the data block.
    fn probe_table(
        &self,
        p: &Partition,
        tmeta: &TableMeta,
        seek_key: &[u8],
        user_key: &[u8],
        by_record: bool,
    ) -> Result<Probe> {
        self.metrics.tables_checked.inc();
        let table = self.open_table(p, tmeta.number)?;
        let Some((ikey, value)) = table.get(seek_key, by_record.then_some(user_key))? else {
            return Ok(Probe::Miss);
        };
        if extract_user_key(&ikey) != user_key {
            return Ok(Probe::Miss);
        }
        match extract_seq_type(&ikey)?.1 {
            ValueType::Value => Ok(Probe::Value(value)),
            ValueType::Deletion => Ok(Probe::Tombstone),
        }
    }

    fn open_table(&self, p: &Partition, number: u64) -> Result<Arc<Table>> {
        if let Some(t) = p.tables_guard().get(&number) {
            return Ok(t.clone());
        }
        let path = filenames::table_file(&partition_dir(&self.root, p.meta.id), number);
        let table = self.open_table_file(&path, self.env.file_size(&path)?)?;
        p.tables_guard().insert(number, table.clone());
        Ok(table)
    }

    /// Open the table file at `path`, `size` bytes long, on the shared
    /// block cache.
    fn open_table_file(&self, path: &Path, size: u64) -> Result<Arc<Table>> {
        Table::open(self.env.new_random_access(path)?, size, self.topts.clone())
    }

    /// Decode a value slot; the flag reports whether the value had to be
    /// fetched from a value log (pointer) rather than stored inline.
    fn resolve_slot(&self, slot: &[u8]) -> Result<(Vec<u8>, bool)> {
        match SeparatedValue::decode(slot)? {
            SeparatedValue::Inline(v) => Ok((v, false)),
            SeparatedValue::Pointer(ptr) => Ok((self.resolver.read(&ptr)?, true)),
        }
    }

    /// Range scan: up to `limit` live entries with `key >= from`.
    pub fn scan(&self, from: &[u8], limit: usize) -> Result<Vec<ScanItem>> {
        self.scan_range(from, None, limit)
    }

    /// Range scan bounded above: up to `limit` live entries with
    /// `from <= key < end` (`end = None` means unbounded).
    pub fn scan_range(
        &self,
        from: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<ScanItem>> {
        let t0 = self.metrics.registry.now_micros();
        perf::begin_at(&self.metrics.registry, t0);
        let mut due = Vec::new();
        let r = self
            .track_read(self.scan_range_impl(from, end, limit, &mut due))
            .and_then(|items| self.merge_scanned(&due).map(|()| items));
        let t1 = self.metrics.registry.now_micros();
        perf::finish_at(t1);
        self.metrics.eng.scans.inc();
        self.metrics.eng.scan_latency.record(t1.saturating_sub(t0));
        if let Ok(items) = &r {
            self.metrics.eng.scan_items.add(items.len() as u64);
        }
        r
    }

    /// The scan itself, under the read lock. Pushes onto `due` the id of
    /// every partition it reads that is due a scan-triggered merge.
    fn scan_range_impl(
        &self,
        from: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        due: &mut Vec<u32>,
    ) -> Result<Vec<ScanItem>> {
        if let Some(end) = end {
            if end <= from {
                return Ok(Vec::new());
            }
        }
        let core = self.core.read();
        let snapshot = core.last_seq;
        let start_idx = if from.is_empty() { 0 } else { core.route(from) };

        // The result is assembled in place: each slot is decoded straight
        // off the iterator into its item, an inline value copied once and a
        // pointer left empty as a fetch job until the fetch fills it.
        let reserve = limit.min(SCAN_RESERVE_ITEMS);
        let mut items: Vec<ScanItem> = Vec::with_capacity(reserve);
        let mut jobs = Vec::with_capacity(reserve);
        for p in &core.partitions[start_idx..] {
            if items.len() >= limit || end.is_some_and(|end| p.meta.lo.as_slice() >= end) {
                break;
            }
            // The partition's own bound keeps the memtable from leaking
            // keys past `hi`; partitions are contiguous, so stopping at
            // `end` here leaves the next partition's `lo >= end`.
            let bound = match (p.meta.hi.as_deref(), end) {
                (Some(hi), Some(end)) => Some(hi.min(end)),
                (hi, end) => hi.or(end),
            };
            if self.scan_merge_due(p) {
                due.push(p.meta.id);
            }
            let mut live = LiveIter::new(self.partition_iter(p)?, snapshot);
            live.seek(from.max(p.meta.lo.as_slice()), bound)?;
            while live.valid() && items.len() < limit {
                let value = match SeparatedValue::decode(live.value())? {
                    SeparatedValue::Inline(v) => v,
                    SeparatedValue::Pointer(ptr) => {
                        jobs.push((items.len(), ptr));
                        Vec::new()
                    }
                };
                items.push(ScanItem {
                    key: live.key().to_vec(),
                    value,
                });
                live.next(bound)?;
            }
        }
        // The read lock stays held through value resolution: dropping it
        // here would let a concurrent GC delete the log files the
        // collected pointers reference.

        // Fetch the pointed-to values: runs of back-to-back records with
        // one read each under the scan optimization, else one by one.
        self.metrics.scan_vlog_fetches.add(jobs.len() as u64);
        fetch_values(
            &self.resolver,
            jobs,
            &mut items,
            self.opts.enable_scan_optimization,
        )?;
        Ok(items)
    }

    /// A streaming iterator over the whole database at the current
    /// sequence number — the paper's seek()/next() scan interface. The
    /// iterator holds table and memtable handles for every partition, so
    /// it keeps reading a consistent snapshot while merges, GC, and
    /// splits proceed. Every partition counts as read, so any that is due
    /// a scan-triggered merge gets it before the cursors are built.
    pub fn iter(&self) -> Result<crate::iter::UniKvIterator> {
        let due: Vec<u32> = self
            .core
            .read()
            .partitions
            .iter()
            .filter(|p| self.scan_merge_due(p))
            .map(|p| p.meta.id)
            .collect();
        self.merge_scanned(&due)?;
        let core = self.core.read();
        let mut parts = Vec::with_capacity(core.partitions.len());
        let mut pinned = HashMap::new();
        for p in &core.partitions {
            parts.push(crate::iter::PartitionCursor {
                live: LiveIter::new(self.partition_iter(p)?, core.last_seq),
                lo: p.meta.lo.clone(),
                hi: p.meta.hi.clone(),
            });
            // Pin every log the partition's pointers may reference, so GC
            // deleting files cannot invalidate this snapshot.
            for r in p.meta.logs() {
                let reader = self.resolver.reader(r.partition, r.log_number)?;
                pinned.insert((r.partition, r.log_number), reader);
            }
        }
        Ok(crate::iter::UniKvIterator::new(
            parts,
            self.resolver.clone(),
            pinned,
        ))
    }

    /// The scan optimization is demand-driven: a scan that reads a
    /// partition crowded with UnsortedStore tables hands it to the full
    /// merge, so later scans read one sorted run of keys and pointers.
    /// Given the ids of the partitions a scan or iterator just read while
    /// they were due, run the merge and its GC and split triggers on each
    /// under the write lock (inline mode), or schedule the merge (background
    /// mode, where the merge job schedules the rest). Called with the core
    /// lock released. A closed write gate (ReadOnly, Poisoned) starts no
    /// merge: the scan is still served.
    fn merge_scanned(&self, pids: &[u32]) -> Result<()> {
        if pids.is_empty() || self.maint.write_gate_error().is_some() {
            return Ok(());
        }
        if self.opts.background_jobs > 0 {
            for &pid in pids {
                self.schedule(JobKind::Merge, pid);
            }
            return Ok(());
        }
        let mut core = self.core.write();
        for &pid in pids {
            // Re-check: another scan may have merged the partition, or a
            // split replaced it, while no lock was held.
            if let Some(pidx) = core.partition_index(pid) {
                if self.scan_merge_due(&core.partitions[pidx]) {
                    let fin = self.full_merge(Some(&mut core), pid, || None)?;
                    self.run_merge_triggers(&mut core, pidx, fin)?;
                }
            }
        }
        Ok(())
    }

    /// Merging iterator over one partition (memtable + UnsortedStore
    /// tables + the SortedStore run).
    fn partition_iter(&self, p: &Partition) -> Result<MergingIterator> {
        let mut children: Vec<Box<dyn InternalIterator>> =
            Vec::with_capacity(2 + p.imms.len() + p.meta.unsorted.len());
        children.push(Box::new(MemTableSource::new(p.mem.clone())));
        for sealed in &p.imms {
            children.push(Box::new(MemTableSource::new(sealed.mem.clone())));
        }
        self.tables_iter(p, true, children)
    }

    /// Merging iterator over `children` (newer sources, such as
    /// memtables), then the partition's UnsortedStore tables and its
    /// SortedStore run. Maintenance passes `fill_cache: false`: its block
    /// misses are not cached.
    fn tables_iter(
        &self,
        p: &Partition,
        fill_cache: bool,
        mut children: Vec<Box<dyn InternalIterator>>,
    ) -> Result<MergingIterator> {
        for tmeta in &p.meta.unsorted {
            let table = self.open_table(p, tmeta.number)?;
            children.push(Box::new(TableSource::new(&table, fill_cache)));
        }
        let mut run = Vec::with_capacity(p.meta.sorted.len());
        for tmeta in &p.meta.sorted {
            run.push((tmeta.largest.clone(), self.open_table(p, tmeta.number)?));
        }
        children.push(Box::new(ConcatSource::new(run, fill_cache)));
        Ok(MergingIterator::new(children))
    }

    /// An unpositioned cursor over the live entries of the partition's
    /// UnsortedStore and SortedStore: the newest version of each key,
    /// tombstones dropped, which is what a rewrite into the bottom tier
    /// keeps. Its reads do not fill the block cache.
    fn live_tables_iter(&self, p: &Partition) -> Result<LiveIter> {
        Ok(LiveIter::new(
            self.tables_iter(p, false, Vec::new())?,
            MAX_SEQUENCE_NUMBER,
        ))
    }

    // ---------------------------------------------------------------
    // Structural operations
    // ---------------------------------------------------------------

    /// Commit the current state to the manifest: what changed since the
    /// last commit, plus the index entries added since, in one synced
    /// record. A structural op passes the next metadata of the partition
    /// it changes as `next`: one meta (seal, flush, merge, GC) or two (a
    /// split's children), committed in place of the metadata the partition
    /// serves. The op publishes them in one swap only once this commit
    /// succeeded, so a failure leaves the served state equal to the last
    /// commit. This is the one install rule of every structural op.
    /// Metadata without UnsortedStore tables (a merge's, a split child's)
    /// commits no hash-index entries.
    fn commit_meta(
        &self,
        core: &mut DbCore,
        next: Option<(usize, &[PartitionMeta])>,
    ) -> Result<()> {
        let views: Vec<PartitionView> = core
            .partitions
            .iter()
            .enumerate()
            .flat_map(|(i, p)| {
                let metas = match next {
                    Some((n, metas)) if n == i => metas,
                    _ => std::slice::from_ref(&p.meta),
                };
                metas.iter().map(move |meta| {
                    let indexed = !meta.unsorted.is_empty();
                    PartitionView {
                        meta,
                        index: indexed.then_some(&p.index),
                        new_entries: if indexed { &p.unlogged } else { &[] },
                    }
                })
            })
            .collect();
        let header = Header {
            last_sequence: core.last_seq,
            next_file: self.next_file.load(Ordering::Relaxed),
            next_partition: core.next_partition,
        };
        let r = core
            .manifest
            .commit(self.env.as_ref(), &self.sync, header, &views);
        match r {
            Ok(()) => core.partitions.iter_mut().for_each(|p| p.unlogged.clear()),
            Err(_) => COMMIT_FAILED.with(|c| c.set(true)),
        }
        r
    }

    /// The one retire rule: once a commit replaced the metadata `old`,
    /// delete the files of `old` that the served state no longer names.
    /// `served` is the partition holding `old`'s table handles: the
    /// partition itself, or a split's parent, which is no longer served.
    /// A table or WAL lives in `old`'s directory and goes once the served
    /// partition with `old`'s id no longer names it, or once that
    /// partition is gone. A value log goes once no served partition names
    /// it: a split's children keep their parent's logs until their own
    /// GCs drop them. Each file leaves its cache before it is deleted, and
    /// each deleted WAL is published as `WalRetired` with `cause`, the
    /// start event of the op that committed. Files no commit named are
    /// orphans, which the next open sweeps.
    fn retire(
        &self,
        core: &DbCore,
        old: &PartitionMeta,
        served: &Partition,
        cause: Option<u64>,
    ) -> Result<()> {
        let dir = partition_dir(&self.root, old.id);
        let now = core
            .partition_index(old.id)
            .map(|i| &core.partitions[i].meta);
        for t in old.tables() {
            if !now.is_some_and(|m| m.tables().any(|n| n.number == t.number)) {
                served.evict_table(t.number);
                self.env
                    .delete_file(&filenames::table_file(&dir, t.number))?;
            }
        }
        for w in old.wals() {
            let path = filenames::wal_file(&dir, w);
            if !now.is_some_and(|m| m.wals().any(|n| n == w)) && self.env.file_exists(&path) {
                self.env.delete_file(&path)?;
                let kind = EventKind::WalRetired;
                self.events
                    .publish(kind, old.id, cause, vec![w], vec![], 0, "");
            }
        }
        let named = |log: &LogRef| core.partitions.iter().any(|p| p.meta.names_log(log));
        for log in old.logs().filter(|log| !named(log)) {
            let path = vlog_path(&self.root, log.partition, log.log_number);
            if !self.env.file_exists(&path) {
                continue;
            }
            self.resolver.evict(log.partition, log.log_number);
            if log.partition == old.id {
                served.vlog.lock().delete_logs(&[log.log_number])?;
            } else {
                self.env.delete_file(&path)?;
            }
        }
        Ok(())
    }

    /// Run post-flush triggers on partition `pidx`: full merge, GC, split.
    /// The table-count merge trigger is not among them: scans check it
    /// (see [`Self::merge_scanned`]). `cause` is the event seq of whatever
    /// ran last (usually the triggering flush's finish); each completed
    /// step becomes the cause of the next, chaining seal→flush→merge→GC
    /// causally.
    fn run_triggers(&self, core: &mut DbCore, pidx: usize, cause: Option<u64>) -> Result<()> {
        let p = &core.partitions[pidx];
        let fin = if self.merge_due(p) {
            let pid = p.meta.id;
            self.full_merge(Some(core), pid, || cause)?
        } else {
            None
        };
        self.run_merge_triggers(core, pidx, fin.or(cause))
    }

    /// The triggers checked after a merge (or a flush that did not merge):
    /// GC, then split.
    fn run_merge_triggers(&self, core: &mut DbCore, pidx: usize, cause: Option<u64>) -> Result<()> {
        if self.gc_due(&core.partitions[pidx]) {
            self.gc_partition(core, pidx, self.opts.gc_garbage_ratio, cause)?;
        }
        if self.split_due(&core.partitions[pidx]) {
            self.split_partition(core, pidx, cause)?;
        }
        Ok(())
    }

    /// The full-merge trigger: the UnsortedStore reached its byte limit.
    fn merge_due(&self, p: &Partition) -> bool {
        p.unsorted_bytes() >= self.opts.unsorted_limit_bytes
    }

    /// The scan-triggered merge (scan optimization), checked on every
    /// partition a scan or iterator reads: the UnsortedStore holds
    /// `scan_merge_limit` tables.
    fn scan_merge_due(&self, p: &Partition) -> bool {
        self.opts.enable_scan_optimization && p.meta.unsorted.len() >= self.opts.scan_merge_limit
    }

    /// The split trigger: the partition outgrew `partition_size_limit`.
    fn split_due(&self, p: &Partition) -> bool {
        self.opts.enable_partitioning && p.logical_size() > self.opts.partition_size_limit
    }

    /// Background-mode counterpart of [`Self::run_triggers`]: enqueue jobs
    /// for whatever thresholds partition `pid` currently exceeds, if it
    /// still exists. Each job re-checks its trigger when it runs, so
    /// over-scheduling is harmless (and duplicates collapse in the queue).
    fn schedule_triggers(&self, core: &DbCore, pid: u32, cause: Option<u64>) {
        let Some(pidx) = core.partition_index(pid) else {
            return;
        };
        let p = &core.partitions[pidx];
        if !p.imms.is_empty() {
            // A flush's cause travels with the sealed memtable itself.
            self.schedule(JobKind::Flush, pid);
        }
        // Backstop for workloads that never scan: writers brake at the
        // `slowdown_unsorted_tables` count, so merge the tables before the
        // byte limit would.
        if self.merge_due(p)
            || (self.opts.enable_scan_optimization
                && p.meta.unsorted.len() >= self.opts.slowdown_unsorted_tables)
        {
            self.note_job_cause(JobKind::Merge, pid, cause);
            self.schedule(JobKind::Merge, pid);
        }
        if self.gc_due(p) {
            self.note_job_cause(JobKind::Gc, pid, cause);
            self.schedule(JobKind::Gc, pid);
        }
        if self.split_due(p) {
            self.note_job_cause(JobKind::Split, pid, cause);
            self.schedule(JobKind::Split, pid);
        }
    }

    /// Seal the active memtable for flushing: the manifest commits its
    /// WAL into `sealed_wals` (so recovery replays it until the flush
    /// lands), then one swap hands the frozen memtable to `imms`, where
    /// reads keep consulting it, and moves writes to a fresh memtable and
    /// WAL.
    fn seal_memtable(&self, core: &mut DbCore, pidx: usize) -> Result<()> {
        let new_wal = self.new_file_number();
        let p = &mut core.partitions[pidx];
        if p.mem.is_empty() {
            return Ok(());
        }
        let mem_bytes = p.mem.approximate_memory_usage() as u64;
        self.sync.hit("seal:begin")?;
        p.wal.sync()?;
        let new_writer = self.new_wal(p.meta.id, new_wal)?;
        let old_wal = p.meta.wal_number;
        let mut next = p.meta.clone();
        next.wal_number = new_wal;
        next.sealed_wals.push(old_wal);
        self.sync.hit("seal:commit")?;
        self.commit_meta(core, Some((pidx, std::slice::from_ref(&next))))?;
        let seq = self.events.publish(
            EventKind::Seal,
            next.id,
            None,
            vec![old_wal],
            vec![new_wal],
            mem_bytes,
            "",
        );
        let p = &mut core.partitions[pidx];
        p.meta = next;
        p.wal = new_writer;
        p.imms.push(SealedMem {
            wal_number: old_wal,
            mem: std::mem::replace(&mut p.mem, Arc::new(MemTable::new())),
            cause: Some(seq),
        });
        Ok(())
    }

    /// Create WAL `number` in partition `pid`'s directory.
    fn new_wal(&self, pid: u32, number: u64) -> Result<LogWriter> {
        let path = filenames::wal_file(&partition_dir(&self.root, pid), number);
        Ok(LogWriter::new(self.env.new_writable(&path)?).with_metrics(self.metrics.wal.clone()))
    }

    /// Write a memtable out as one UnsortedStore table, deduping to the
    /// newest version per user key. Takes no locks: background flushes
    /// call it with the core lock released.
    fn build_flush_table(
        &self,
        dir: &Path,
        table_number: u64,
        mem: Arc<MemTable>,
    ) -> Result<FlushedTable> {
        self.sync.hit("flush:build")?;
        let path = filenames::table_file(dir, table_number);
        let mut builder = TableBuilder::new(
            self.env.new_writable(&path)?,
            self.table_builder_opts(Tier::Unsorted),
        );
        let mut keys = Vec::new();
        let mut iter = MemTableSource::new(mem);
        iter.seek_to_first()?;
        let mut last_user_key: Option<Vec<u8>> = None;
        while iter.valid() {
            let user_key = extract_user_key(iter.ikey());
            if last_user_key.as_deref() != Some(user_key) {
                last_user_key = Some(user_key.to_vec());
                builder.add(iter.ikey(), iter.value())?;
                if self.opts.enable_hash_index {
                    keys.push(user_key.to_vec());
                }
            }
            iter.next()?;
        }
        let props = builder.finish()?;
        let table = self.open_table_file(&path, props.file_size)?;
        Ok(FlushedTable {
            meta: TableMeta {
                number: table_number,
                size: props.file_size,
                smallest: props.smallest,
                largest: props.largest,
            },
            keys,
            table,
        })
    }

    /// Install a flushed table under the write lock. The partition's next
    /// metadata, with the table appended to the UnsortedStore and the
    /// flushed WAL no longer named, commits with the table's hash-index
    /// entries; then one swap publishes it and pops the sealed memtable,
    /// the open table joins the partition's table handles, and
    /// [`Self::retire`] deletes the WAL. The index takes the entries before
    /// the commit, which logs them; an abort at the commit takes them back
    /// out.
    fn install_flush(
        &self,
        core: &mut DbCore,
        pidx: usize,
        flushed: FlushedTable,
        old_wal: u64,
        flush_start: Option<u64>,
    ) -> Result<()> {
        let FlushedTable { meta, keys, table } = flushed;
        let (table_number, table_size) = (meta.number, meta.size);
        self.sync.hit("flush:install")?;
        let p = &mut core.partitions[pidx];
        let mut next = p.meta.clone();
        next.unsorted.push(meta);
        next.sealed_wals.retain(|w| *w != old_wal);
        let logged = p.unlogged.len();
        if self.opts.enable_hash_index {
            let id = table_number as u32;
            for key in &keys {
                let (bucket, tag) = p.index.insert(key, id);
                p.unlogged.push((bucket, tag, id));
            }
        }
        let committed = self
            .sync
            .hit("flush:commit")
            .and_then(|()| self.commit_meta(core, Some((pidx, std::slice::from_ref(&next)))));
        if let Err(e) = committed {
            let p = &mut core.partitions[pidx];
            p.index.remove_tables(&HashSet::from([table_number as u32]));
            p.unlogged.truncate(logged);
            return Err(e);
        }
        let p = &mut core.partitions[pidx];
        let old = std::mem::replace(&mut p.meta, next);
        p.imms.retain(|s| s.wal_number != old_wal);
        p.tables_guard().insert(table_number, table);
        self.metrics.bytes_flushed.add(table_size);
        self.metrics.flushes.inc();
        self.sync.hit("flush:cleanup")?;
        self.retire(core, &old, &core.partitions[pidx], flush_start)?;
        self.maint.notify_progress();
        Ok(())
    }

    /// Flush the partition's memtable into new UnsortedStore tables under
    /// the held write lock. Inline flushes go through the same
    /// seal-then-drain protocol as background mode: the active memtable is
    /// sealed (its WAL enters `sealed_wals` and the manifest commits)
    /// *before* the fallible table build, so an aborted build — transient
    /// I/O error or injected fault — leaves both the in-memory and the
    /// committed state referencing every acked byte. Returns the last
    /// flush's finish event seq, or `None` when the memtables were empty
    /// (then nothing is written and no file number is drawn).
    fn flush_partition(&self, core: &mut DbCore, pidx: usize) -> Result<Option<u64>> {
        if !core.partitions[pidx].mem.is_empty() {
            self.seal_memtable(core, pidx)?;
        }
        let pid = core.partitions[pidx].meta.id;
        let mut last_finish = None;
        while let Some(fin) = self.flush_sealed(Some(core), pid)? {
            last_finish = Some(fin);
        }
        Ok(last_finish)
    }

    /// Run `f` under the core write lock: the caller's (`held`), or one
    /// taken for the call when the caller holds none.
    fn with_core<R>(&self, held: &mut Option<&mut DbCore>, f: impl FnOnce(&mut DbCore) -> R) -> R {
        match held {
            Some(core) => f(core),
            None => f(&mut self.core.write()),
        }
    }

    /// The one flush path of both modes: flush partition `pid`'s oldest
    /// sealed memtable into a new UnsortedStore table. Sealed memtables
    /// drain oldest first, so newer data keeps shadowing older data. An
    /// inline caller passes the write lock it holds as `held`, and the
    /// whole flush runs under it. A worker passes `None`: the flush takes
    /// the lock to pick the memtable and again to install the table, and
    /// builds the table with the lock released, while reads and writes
    /// proceed against the still-visible sealed memtable. Returns the
    /// finish event's seq, or `None` when nothing is sealed or a split
    /// replaced the partition during the build (the flush then aborts).
    fn flush_sealed(&self, mut held: Option<&mut DbCore>, pid: u32) -> Result<Option<u64>> {
        let picked = self.with_core(&mut held, |core| {
            let p = &core.partitions[core.partition_index(pid)?];
            Some((p.imms.first()?.clone(), self.new_file_number()))
        });
        let Some((sealed, table_number)) = picked else {
            return Ok(None);
        };
        let inputs = vec![sealed.wal_number];
        let mut scope = OpScope::begin(self, TraceOp::Flush, pid, sealed.cause, inputs, 0);
        let dir = partition_dir(&self.root, pid);
        let flushed = self.build_flush_table(&dir, table_number, sealed.mem)?;
        let bytes = flushed.meta.size;
        self.with_core(&mut held, |core| {
            let Some(pidx) = core.partition_index(pid) else {
                return Ok(None);
            };
            let start = Some(scope.start_seq);
            self.install_flush(core, pidx, flushed, sealed.wal_number, start)?;
            let fin = scope.finish(vec![table_number], bytes, "");
            self.record_maint(TraceOp::Flush, scope.t0);
            Ok(Some(fin))
        })
    }

    /// Draw the next file number (table or WAL).
    fn new_file_number(&self) -> u64 {
        self.next_file.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one completed maintenance operation's latency sample in the
    /// op's histogram.
    fn record_maint(&self, op: TraceOp, t0: u64) {
        let t1 = self.metrics.registry.now_micros();
        self.metrics
            .eng
            .maint_histogram(op)
            .record(t1.saturating_sub(t0));
    }

    fn table_builder_opts(&self, tier: Tier) -> TableBuilderOptions {
        let block_size = match tier {
            Tier::Unsorted => self.opts.block_size / HASH_TIER_BLOCK_DIVISOR,
            Tier::Sorted => self.opts.block_size,
        };
        TableBuilderOptions {
            block_size,
            bloom_bits_per_key: None, // UniKV removes Bloom filters
            filter_key: extract_user_key,
            record_directory: matches!(tier, Tier::Unsorted) && self.opts.enable_hash_index,
            ..Default::default()
        }
    }

    /// The one merge path of both modes: merge partition `pid`'s
    /// UnsortedStore into its SortedStore with partial KV separation, in
    /// three phases ([`Self::snapshot_merge`], [`Self::build_merge`],
    /// [`Self::install_merge`]). Locking is as in [`Self::flush_sealed`]:
    /// all three phases run under `held` inline; on a worker the build runs
    /// with the core lock released, value appends taking the partition's
    /// vlog mutex per call. `cause` is read only if the merge starts.
    /// Returns the finish event's seq, or `None` when the UnsortedStore
    /// was empty or a split replaced the partition during the build.
    fn full_merge(
        &self,
        mut held: Option<&mut DbCore>,
        pid: u32,
        cause: impl FnOnce() -> Option<u64>,
    ) -> Result<Option<u64>> {
        let snap = self.with_core(&mut held, |core| match core.partition_index(pid) {
            Some(pidx) => self.snapshot_merge(core, pidx, cause),
            None => Ok(None),
        })?;
        let Some(mut snap) = snap else {
            return Ok(None);
        };
        let out = self.build_merge(&mut snap)?;
        self.with_core(&mut held, |core| match core.partition_index(pid) {
            Some(pidx) => self.install_merge(core, pidx, snap, out).map(Some),
            None => Ok(None),
        })
    }

    /// Phase 1 of a full merge: if the UnsortedStore holds a table, start
    /// the op (clock read, `merge:begin` sync point, start event with
    /// `cause()`) and open an iterator over both tiers. With the
    /// UnsortedStore empty, a merge would only rewrite the SortedStore as
    /// it is: a background job that a scan scheduled while an earlier
    /// merge of the partition was running ends here. Needs the core lock,
    /// read or write.
    fn snapshot_merge(
        &self,
        core: &DbCore,
        pidx: usize,
        cause: impl FnOnce() -> Option<u64>,
    ) -> Result<Option<MergeSnapshot<'_>>> {
        let p = &core.partitions[pidx];
        if p.meta.unsorted.is_empty() {
            return Ok(None);
        }
        let inputs: Vec<u64> = p.meta.tables().map(|t| t.number).collect();
        let input_bytes = p.meta.tables().map(|t| t.size).sum();
        let scope = self.begin_op(
            TraceOp::Merge,
            p.meta.id,
            cause(),
            inputs.clone(),
            input_bytes,
        )?;
        Ok(Some(MergeSnapshot {
            scope,
            inputs,
            input_bytes,
            live: self.live_tables_iter(p)?,
            vlog: p.vlog.clone(),
        }))
    }

    /// Start a merge, GC or split of partition `pid`: hit the op's `begin`
    /// sync point, then start its scope (clock reading, start event).
    fn begin_op(
        &self,
        op: TraceOp,
        pid: u32,
        cause: Option<u64>,
        inputs: Vec<u64>,
        bytes: u64,
    ) -> Result<OpScope<'_>> {
        self.sync.hit(&format!("{}:begin", op_kinds(op).1))?;
        Ok(OpScope::begin(self, op, pid, cause, inputs, bytes))
    }

    /// Phase 2 of a full merge, no core lock needed: write the newest
    /// version of every live key into a new SortedStore run. Fresh
    /// (inline) values move to a newly rotated value log; values already
    /// separated keep their pointers and are NOT rewritten. Tombstones
    /// have done their shadowing job and are dropped: this is the bottom
    /// tier.
    fn build_merge(&self, snap: &mut MergeSnapshot) -> Result<Rewrite<'_>> {
        let live = &mut snap.live;
        live.seek(&[], None)?;
        let mut out = Rewrite::new(self, snap.scope.partition, snap.vlog.clone(), &|_| false);
        while live.valid() {
            out.add(live.ikey(), live.value())?;
            live.next(None)?;
        }
        out.finish()?;
        self.sync.hit("merge:build")?;
        Ok(out)
    }

    /// Phase 3 of a full merge, under the write lock: the new run replaces
    /// both tiers and the UnsortedStore and its hash index empty, in a
    /// partition state built aside and published once the manifest commit
    /// succeeded. Then the input tables go and the output tables are
    /// installed. Returns the finish event's seq.
    fn install_merge(
        &self,
        core: &mut DbCore,
        pidx: usize,
        snap: MergeSnapshot,
        out: Rewrite,
    ) -> Result<u64> {
        let p = &core.partitions[pidx];
        // One job runs per partition and foreground structural operations
        // pause the workers, so nothing may change the tiers between
        // snapshot and install.
        let tables = p.meta.tables().map(|t| t.number);
        if !tables.eq(snap.inputs.iter().copied()) {
            return Err(Error::internal(
                "merge inputs changed between snapshot and install",
            ));
        }
        let outputs: Vec<u64> = out.tables.iter().map(|t| t.number).collect();
        let next = PartitionMeta {
            unsorted: Vec::new(),
            sorted: out.tables,
            own_logs: snap.vlog.lock().log_numbers(),
            live_value_bytes: out.live_value_bytes,
            ..p.meta.clone()
        };
        self.sync.hit("merge:commit")?;
        self.commit_meta(core, Some((pidx, std::slice::from_ref(&next))))?;
        let p = &mut core.partitions[pidx];
        let old = std::mem::replace(&mut p.meta, next);
        p.index.clear();
        self.metrics.merge_bytes_read.add(snap.input_bytes);
        self.metrics.merges.inc();
        self.metrics.merge_bytes_written.add(out.written);
        let p = &core.partitions[pidx];
        let fin =
            snap.scope
                .finish_rewrite(core, outputs, out.written, "", &old, p, [(p, out.built)])?;
        self.maint.notify_progress();
        Ok(fin)
    }

    /// The GC trigger condition for one partition.
    fn gc_due(&self, p: &Partition) -> bool {
        let mut total = p.vlog.lock().total_size();
        // Logs shared with a split sibling are charged at 50%: roughly
        // half their bytes belong to this partition, so the garbage
        // ratio stays meaningful and a fresh split does not look like
        // instant garbage. The lazy value split rides on the first GC
        // that real churn triggers, as the paper intends.
        if !p.meta.inherited_logs.is_empty() {
            total += p.inherited_charge.get_or_init(|| {
                let charge = |r: &LogRef| {
                    let path = vlog_path(&self.root, r.partition, r.log_number);
                    self.env.file_size(&path).unwrap_or(0) / 2
                };
                p.meta.inherited_logs.iter().map(charge).sum::<u64>()
            });
        }
        if total < self.opts.gc_min_bytes {
            return false;
        }
        let garbage = total.saturating_sub(p.meta.live_value_bytes);
        garbage as f64 / total.max(1) as f64 >= self.opts.gc_garbage_ratio
    }

    /// Garbage-collect the partition's value logs at log granularity.
    /// A pointer pass over the SortedStore's keys and pointers (no index
    /// queries, unlike WiscKey; no value is read) picks the victims: every
    /// own log whose garbage reaches `ratio` and every inherited log. The
    /// rewrite pass copies only the values in victims into fresh logs and
    /// rewrites the SortedStore with their new pointers; every other
    /// pointer is written back unchanged and its log is kept. Dropping the
    /// inherited logs is the lazy value split after a partition split.
    fn gc_partition(
        &self,
        core: &mut DbCore,
        pidx: usize,
        ratio: f64,
        cause: Option<u64>,
    ) -> Result<()> {
        let p = &core.partitions[pidx];
        let pid = p.meta.id;
        let victims = self.gc_victims(p, ratio)?;
        if victims.is_empty() && p.meta.inherited_logs.is_empty() {
            return Ok(()); // every log is live enough to keep
        }
        let victim_bytes: u64 = {
            let vlog = p.vlog.lock();
            victims.iter().filter_map(|&n| vlog.log_size(n)).sum()
        };
        let scope = self.begin_op(TraceOp::Gc, pid, cause, victims.clone(), victim_bytes)?;

        // Steps 1–3 of the paper's protocol: walk the SortedStore in key
        // order, copy the values that live in victims (every log of
        // another partition is one) to a new log, and write the keys with
        // their new or kept pointers to new tables. The copies leave no
        // pointer into another partition's log, so `inherited_logs`
        // empties.
        let is_victim = |ptr: &ValuePointer| {
            ptr.partition != pid || victims.binary_search(&ptr.log_number).is_ok()
        };
        let mut out = Rewrite::new(self, pid, p.vlog.clone(), &is_victim);
        let mut iter = self.sorted_iter(p)?;
        while iter.valid() {
            out.add(iter.ikey(), iter.value())?;
            iter.next()?;
        }
        out.finish()?;
        self.sync.hit("gc:build")?;

        // The partition's next state is built aside and published only
        // once its commit succeeded: an abort (injected fault or real I/O
        // error) leaves `p.meta` exactly as committed, so gets never read
        // the uncommitted tables and a later commit cannot persist a
        // half-applied GC — e.g. dropping `inherited_logs` that rewritten
        // pointers still need, turning those logs into orphans deleted on
        // the next open.
        let mut own_logs = p.vlog.lock().log_numbers();
        own_logs.retain(|n| victims.binary_search(n).is_err());
        let new_logs = own_logs
            .iter()
            .copied()
            .filter(|&n| out.new_log.is_some_and(|first| n >= first))
            .collect();
        let next = PartitionMeta {
            sorted: out.tables,
            own_logs,
            inherited_logs: out.foreign_logs.into_iter().collect(),
            live_value_bytes: out.live_value_bytes,
            ..p.meta.clone()
        };

        // Step 4: the manifest commit is the GC_done mark; afterwards the
        // victims and the old tables may be deleted.
        self.sync.hit("gc:commit")?;
        self.commit_meta(core, Some((pidx, std::slice::from_ref(&next))))?;
        let old = std::mem::replace(&mut core.partitions[pidx].meta, next);
        self.metrics.gc_bytes_written.add(out.written);
        self.metrics.gcs.inc();
        let p = &core.partitions[pidx];
        scope.finish_rewrite(core, new_logs, out.written, "", &old, p, [(p, out.built)])?;
        Ok(())
    }

    /// GC's pointer pass: the own logs `p` names whose garbage reaches
    /// `ratio`, ascending. Each log's live bytes are the exact record bytes
    /// (payload plus framing, as [`ValueLog::log_size`] counts them) that
    /// the SortedStore's pointers address in it, so a fully live log reads
    /// 0% garbage and a log no pointer reaches is a victim at any ratio.
    /// Only named logs are candidates, because the retire rule deletes
    /// only what the commit stops naming: a log an aborted rewrite left
    /// is named by the next GC's commit, which keeps every log it does not
    /// copy, and the GC after it deletes the log.
    fn gc_victims(&self, p: &Partition, ratio: f64) -> Result<Vec<u64>> {
        let mut live: HashMap<u64, u64> = HashMap::new();
        let mut iter = self.sorted_iter(p)?;
        while iter.valid() {
            if let SeparatedValue::Pointer(ptr) = SeparatedValue::decode(iter.value())? {
                if ptr.partition == p.meta.id {
                    *live.entry(ptr.log_number).or_default() += record_size(ptr.length);
                }
            }
            iter.next()?;
        }
        let vlog = p.vlog.lock();
        let mut victims = p.meta.own_logs.clone();
        victims.retain(|n| {
            let size = vlog.log_size(*n).unwrap_or(0);
            let garbage = size.saturating_sub(live.get(n).copied().unwrap_or(0));
            garbage as f64 >= ratio * size as f64
        });
        Ok(victims)
    }

    /// A maintenance iterator over the partition's SortedStore run,
    /// positioned at its first entry; reads do not fill the block cache.
    fn sorted_iter(&self, p: &Partition) -> Result<ConcatSource> {
        let mut run = Vec::with_capacity(p.meta.sorted.len());
        for tmeta in &p.meta.sorted {
            run.push((tmeta.largest.clone(), self.open_table(p, tmeta.number)?));
        }
        let mut iter = ConcatSource::new(run, false);
        iter.seek_to_first()?;
        Ok(iter)
    }

    /// Dynamic range partitioning: split partition `pidx` at its median
    /// key into two partitions with disjoint ranges. Keys are split
    /// eagerly (full merge-sort); values already in logs are shared with
    /// the children and split lazily by their future GCs.
    fn split_partition(
        &self,
        core: &mut DbCore,
        pidx: usize,
        cause: Option<u64>,
    ) -> Result<Option<u64>> {
        // The paper locks the partition and flushes its memtable first; our
        // global write lock subsumes the partition lock. Sealed memtables
        // (background mode) drain here too — the split passes below only
        // read tables.
        self.flush_partition(core, pidx)?;

        // Pass 1: count live entries to find the median split point.
        let total = {
            let mut live = self.live_tables_iter(&core.partitions[pidx])?;
            live.seek(&[], None)?;
            let mut count = 0u64;
            while live.valid() {
                count += 1;
                live.next(None)?;
            }
            count
        };
        if total < 2 {
            return Ok(None); // cannot split fewer than two keys
        }
        let parent = &core.partitions[pidx].meta;
        let (parent_id, parent_lo, parent_hi) = (parent.id, parent.lo.clone(), parent.hi.clone());
        let parent_tables = parent.tables().map(|t| t.number).collect();
        let scope = self.begin_op(TraceOp::Split, parent_id, cause, parent_tables, 0)?;

        // Allocate children.
        let ids = [core.next_partition, core.next_partition + 1];
        core.next_partition += 2;
        let wals = [self.new_file_number(), self.new_file_number()];

        // Pass 2: stream the first half of the live entries into the left
        // child and the rest into the right one. Paper: UnsortedStore
        // (inline) values are split eagerly into each child's new log,
        // while already-separated values stay in the parent's logs, shared
        // until lazy GC.
        let mut outs = Vec::with_capacity(2);
        for id in ids {
            let vlog = open_vlog(&self.env, &self.root, id, &self.opts, &self.metrics)?;
            outs.push(Rewrite::new(self, id, vlog, &|_| false));
        }
        let (half, mut kept, mut boundary) = (total / 2, 0u64, None);
        let mut live = self.live_tables_iter(&core.partitions[pidx])?;
        live.seek(&[], None)?;
        while live.valid() {
            if kept == half {
                boundary = Some(live.key().to_vec());
            }
            outs[usize::from(kept >= half)].add(live.ikey(), live.value())?;
            kept += 1;
            live.next(None)?;
        }
        for out in &mut outs {
            out.finish()?;
        }
        let boundary = boundary.expect("total >= 2 guarantees a right half");
        self.sync.hit("split:build")?;

        // The two children are built aside: the parent stays served until
        // the commit that replaces it succeeded.
        let split_bytes = outs.iter().map(|o| o.written).sum();
        let bounds = [(parent_lo, Some(boundary.clone())), (boundary, parent_hi)];
        let (mut children, mut built) = (Vec::new(), Vec::new());
        for ((out, (lo, hi)), wal_number) in outs.into_iter().zip(bounds).zip(wals) {
            let meta = PartitionMeta {
                id: out.pid,
                lo,
                hi,
                wal_number,
                sorted: out.tables,
                own_logs: out.vlog.lock().log_numbers(),
                inherited_logs: out.foreign_logs.into_iter().collect(),
                live_value_bytes: out.live_value_bytes,
                ..Default::default()
            };
            let wal = self.new_wal(out.pid, wal_number)?;
            let index =
                TwoLevelHashIndex::with_capacity(index_capacity(&self.opts), self.opts.num_hashes);
            let mem = Arc::new(MemTable::new());
            children.push(Partition::new(meta, mem, wal, index, out.vlog));
            built.push(out.built);
        }
        let metas: Vec<PartitionMeta> = children.iter().map(|c| c.meta.clone()).collect();

        self.sync.hit("split:commit")?;
        self.commit_meta(core, Some((pidx, &metas)))?;
        // One swap: the children take the parent's place.
        let parent = core
            .partitions
            .splice(pidx..=pidx, children)
            .next()
            .expect("the parent is replaced");
        self.metrics.split_bytes_written.add(split_bytes);
        self.metrics.splits.inc();
        // The parent's tables and WAL go; its value logs stay while a
        // child names them (lazy value split). Outputs name the two child
        // *partitions* (the interesting unit here), not files, and the
        // detail spells out which is which.
        let installs = built.into_iter().zip(&core.partitions[pidx..]);
        let fin = scope.finish_rewrite(
            core,
            ids.iter().map(|&id| id as u64).collect(),
            split_bytes,
            &format!("children p{},p{}", ids[0], ids[1]),
            &parent.meta,
            &parent,
            installs.map(|(built, p)| (p, built)),
        )?;
        Ok(Some(fin))
    }

    // ---------------------------------------------------------------
    // Background job runners (worker threads; `background_jobs >= 1`)
    // ---------------------------------------------------------------

    /// Execute one background job. Called from the worker loop; a job
    /// whose trigger condition no longer holds is a no-op.
    pub(crate) fn run_job(&self, job: &Job) -> Result<()> {
        match job.kind {
            JobKind::Flush => self.run_flush_job(job.partition),
            JobKind::Merge => self.run_merge_job(job.partition),
            JobKind::Gc => self.run_gc_job(job.partition),
            JobKind::Split => self.run_split_job(job.partition),
        }
    }

    /// Background flush: drain the partition's sealed memtables through
    /// [`Self::flush_sealed`], which builds each table with the core lock
    /// released, and schedule the triggers after each flush.
    fn run_flush_job(&self, pid: u32) -> Result<()> {
        while let Some(fin) = self.flush_sealed(None, pid)? {
            self.schedule_triggers(&self.core.read(), pid, Some(fin));
        }
        Ok(())
    }

    /// Background full merge through [`Self::full_merge`], which builds
    /// with the core lock released; then schedule the triggers.
    fn run_merge_job(&self, pid: u32) -> Result<()> {
        let cause = || self.take_job_cause(JobKind::Merge, pid);
        if let Some(fin) = self.full_merge(None, pid, cause)? {
            self.schedule_triggers(&self.core.read(), pid, Some(fin));
        }
        Ok(())
    }

    /// Background GC: re-checks the garbage ratio, then runs
    /// [`Self::gc_partition`] with the write lock held throughout (GC
    /// rewrites the SortedStore in place, so it does not overlap
    /// foreground work).
    fn run_gc_job(&self, pid: u32) -> Result<()> {
        let mut core = self.core.write();
        let Some(pidx) = core.partition_index(pid) else {
            return Ok(());
        };
        if self.gc_due(&core.partitions[pidx]) {
            let cause = self.take_job_cause(JobKind::Gc, pid);
            self.gc_partition(&mut core, pidx, self.opts.gc_garbage_ratio, cause)?;
        }
        Ok(())
    }

    /// Background split: re-checks the size trigger, then runs
    /// [`Self::split_partition`] with the write lock held throughout.
    fn run_split_job(&self, pid: u32) -> Result<()> {
        let mut core = self.core.write();
        let Some(pidx) = core.partition_index(pid) else {
            return Ok(());
        };
        if !self.split_due(&core.partitions[pidx]) {
            return Ok(());
        }
        let cause = self.take_job_cause(JobKind::Split, pid);
        let fin = self.split_partition(&mut core, pidx, cause)?;
        // Both children may immediately warrant follow-up work.
        for p in core.partitions.iter().skip(pidx).take(2) {
            self.schedule_triggers(&core, p.meta.id, fin);
        }
        Ok(())
    }
}

/// The UniKV database handle.
///
/// Owns the [`Engine`] (shared with maintenance worker threads via
/// `Arc`) and the worker join handles, and derefs to the engine, where
/// the whole database API lives. With `background_jobs = 0` (the
/// default) no threads are spawned and every structural operation runs
/// inline. Dropping the handle asks the workers to finish their current
/// job and joins them; jobs still queued are abandoned — safe, because
/// sealed WALs are committed in the manifest and recovery replays them.
pub struct UniKv {
    engine: Arc<Engine>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl UniKv {
    /// Open (creating or recovering) a database under `root`.
    pub fn open(env: Arc<dyn Env>, root: impl Into<PathBuf>, opts: UniKvOptions) -> Result<UniKv> {
        let engine = Arc::new(Engine::open_inner(env, root.into(), opts)?);
        let workers = (0..engine.opts.background_jobs)
            .map(|i| {
                let engine = engine.clone();
                std::thread::Builder::new()
                    .name(format!("unikv-maint-{i}"))
                    .spawn(move || worker_loop(engine))
                    .expect("spawn maintenance worker")
            })
            .collect();
        Ok(UniKv { engine, workers })
    }
}

impl std::ops::Deref for UniKv {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl Drop for UniKv {
    fn drop(&mut self) {
        self.engine.maint.begin_shutdown();
        // Workers park in timed waits while jobs sit in backoff, so they
        // notice shutdown within one tick — but a worker wedged inside a
        // job (e.g. an env stuck in a syscall) must not hang the drop
        // forever. Join with a deadline and detach stragglers; a detached
        // worker exits on its own when its current job ends.
        let deadline =
            Instant::now() + Duration::from_millis(self.engine.opts.shutdown_join_timeout_ms);
        for handle in self.workers.drain(..) {
            while !handle.is_finished() && Instant::now() < deadline {
                // Re-notify: a worker that raced into a wait just before
                // the shutdown flag was set could otherwise miss a wakeup.
                self.engine.maint.begin_shutdown();
                std::thread::sleep(Duration::from_millis(1));
            }
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
    }
}

enum Probe {
    Value(Vec<u8>),
    Tombstone,
    Miss,
}

/// Expected hash-index key capacity derived from the UnsortedStore budget
/// (assume ≥ 64 B per KV; overflow chains absorb denser data gracefully).
fn index_capacity(opts: &UniKvOptions) -> usize {
    (opts.unsorted_limit_bytes as usize / 64).max(256)
}

/// Delete every file in partition `id`'s directory `dir` that the
/// recovered `partitions` do not name: the orphans of a build or a retire
/// that a crash cut short. A table or WAL must be named by partition
/// `id`; a value log may be named by any partition (a split child names
/// its parent's logs).
fn sweep_partition_dir(
    env: &dyn Env,
    dir: &Path,
    id: u32,
    partitions: &[PartitionMeta],
) -> Result<()> {
    let pmeta = partitions.iter().find(|p| p.id == id);
    for name in env.list_dir(dir)? {
        let Some(s) = name.to_str() else { continue };
        let named = match (parse_vlog_file_name(s), filenames::parse_file_name(s)) {
            (Some(log_number), _) => {
                let log = LogRef {
                    partition: id,
                    log_number,
                };
                partitions.iter().any(|p| p.names_log(&log))
            }
            (_, Some(filenames::FileKind::Table(n))) => {
                pmeta.is_some_and(|m| m.tables().any(|t| t.number == n))
            }
            (_, Some(filenames::FileKind::Wal(n))) => {
                pmeta.is_some_and(|m| m.wals().any(|w| w == n))
            }
            _ => true,
        };
        if !named {
            env.delete_file(&dir.join(name))?;
        }
    }
    Ok(())
}

/// Open partition `id`'s value logs (creating its directory), counted in
/// the engine's value-log families.
fn open_vlog(
    env: &Arc<dyn Env>,
    root: &Path,
    id: u32,
    opts: &UniKvOptions,
    metrics: &DbMetrics,
) -> Result<Arc<parking_lot::Mutex<ValueLog>>> {
    let mut vlog = ValueLog::open(env.clone(), partition_dir(root, id), id, opts.max_log_size)?;
    vlog.set_metrics(metrics.vlog.clone());
    Ok(Arc::new(parking_lot::Mutex::new(vlog)))
}

#[allow(clippy::too_many_arguments)]
fn open_partition(
    env: &Arc<dyn Env>,
    root: &Path,
    opts: &UniKvOptions,
    topts: &TableOptions,
    pmeta: &PartitionMeta,
    index_entries: Option<&[IndexEntry]>,
    last_seq: &mut SequenceNumber,
    next_file: &mut u64,
    metrics: &DbMetrics,
) -> Result<Partition> {
    let dir = partition_dir(root, pmeta.id);
    env.create_dir_all(&dir)?;

    if opts.paranoid_checks {
        // Verify every file the manifest commits to before trusting the
        // partition: tables must exist at their recorded size with a
        // parseable footer + index, and every value log it names, owned or
        // inherited, must exist: a missing one means committed pointers
        // would dangle. Data-block and value checksums are verified on
        // every read regardless.
        for tmeta in pmeta.tables() {
            let path = filenames::table_file(&dir, tmeta.number);
            open_committed_table(env, &path, tmeta.size, topts.clone()).map_err(|e| match e {
                Error::Corruption(m) => Error::corruption(format!("table {}: {m}", path.display())),
                e => e,
            })?;
        }
        for log in pmeta.logs() {
            let path = vlog_path(root, log.partition, log.log_number);
            if !env.file_exists(&path) {
                return Err(Error::corruption(format!(
                    "value log missing: {}",
                    path.display()
                )));
            }
        }
    }

    let vlog = open_vlog(env, root, pmeta.id, opts, metrics)?;

    // Rebuild the hash index by replaying the logged entries of the live
    // UnsortedStore tables in log order. Only when the log holds none that
    // fit this index (another bucket count or hash count, or the index
    // was off) are the tables' keys read back instead.
    let mut index = TwoLevelHashIndex::with_capacity(index_capacity(opts), opts.num_hashes);
    if opts.enable_hash_index {
        let live: HashSet<u32> = pmeta.unsorted.iter().map(|t| t.number as u32).collect();
        match index_entries {
            Some(entries) => {
                for &(bucket, tag, table) in entries.iter().filter(|e| live.contains(&e.2)) {
                    index.replay(bucket, tag, table)?;
                }
            }
            None => {
                for tmeta in &pmeta.unsorted {
                    let path = filenames::table_file(&dir, tmeta.number);
                    let size = env.file_size(&path)?;
                    let table = Table::open(env.new_random_access(&path)?, size, topts.clone())?;
                    // A throwaway handle: blocks cached under its id would never hit.
                    let mut it = table.iter(false);
                    it.seek_to_first()?;
                    while it.valid() {
                        index.insert(extract_user_key(it.key()), tmeta.number as u32);
                        it.next()?;
                    }
                }
            }
        }
    }

    // Replay sealed WALs (oldest first), then the active WAL, into one
    // fresh memtable (a missing file = clean shutdown or crash before any
    // write reached it). Sealed WALs exist when a crash interrupted
    // background flushing; replay restores their memtables' contents and
    // the flush-on-open re-persists everything, so the sealed list is
    // cleared, and the open retires the sealed WALs after its commit.
    let mem = Arc::new(MemTable::new());
    let mut replayed = false;
    for number in pmeta.wals() {
        let path = filenames::wal_file(&dir, number);
        if !env.file_exists(&path) {
            continue;
        }
        // Paranoid replay distinguishes a torn tail (truncated, normal)
        // from mid-log damage (an error: acked records would be lost).
        let mut reader = if opts.paranoid_checks {
            LogReader::new_strict(env.new_sequential(&path)?)
        } else {
            LogReader::new(env.new_sequential(&path)?)
        };
        let mut buf = Vec::new();
        while reader.read_record(&mut buf).map_err(|e| match e {
            Error::Corruption(msg) => Error::corruption(format!("WAL {}: {msg}", path.display())),
            other => other,
        })? == ReadOutcome::Record
        {
            for (seq, t, key, value) in decode_batch_record(&buf)? {
                mem.add(seq, t, &key, &SeparatedValue::encode_inline(&value));
                *last_seq = (*last_seq).max(seq);
                replayed = true;
            }
        }
        metrics.wal_dropped_bytes.add(reader.dropped_bytes());
    }

    let mut meta = pmeta.clone();
    meta.sealed_wals.clear();
    if replayed {
        // The replayed WALs must survive on disk until the memtable is
        // flushed (UniKv::open flushes non-empty memtables immediately
        // after loading). Route new appends to a fresh WAL file; the open
        // retires the old ones once the flush commits.
        meta.wal_number = *next_file;
        *next_file += 1;
    }
    // Without a replay nothing is buffered: recreating the (empty or
    // absent) file is safe.
    let wal = LogWriter::new(env.new_writable(&filenames::wal_file(&dir, meta.wal_number))?)
        .with_metrics(metrics.wal.clone());
    Ok(Partition::new(meta, mem, wal, index, vlog))
}
