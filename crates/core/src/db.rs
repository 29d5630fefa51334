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
//! sequentially... GC cost is charged to write performance").
//!
//! ## Crash consistency
//!
//! Every structural change follows *write files → sync → append one
//! record to `MANIFEST` and sync → delete old files*. The synced append
//! is the commit point (the paper's `GC_done` marker generalized); files
//! written before a crash that never got committed are orphans removed
//! during recovery. The record also carries the hash-index entries of the
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
use crate::resolver::{partition_dir, ValueResolver};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unikv_common::events::{EventBus, EventClock, EventKind, EventListener};
use unikv_common::ikey::{
    extract_seq_type, extract_user_key, make_internal_key, SequenceNumber, ValueType,
};
use unikv_common::metrics::{MetricsClock, MetricsSnapshot, TraceEvent, TraceOp, TraceOutcome};
use unikv_common::perf::{self, PerfContext, PerfStage};
use unikv_common::pointer::SeparatedValue;
use unikv_common::{Error, Result};
use unikv_env::Env;
use unikv_hashindex::TwoLevelHashIndex;
use unikv_lsm::db::ScanItem;
use unikv_lsm::filenames;
use unikv_lsm::iter::{
    ConcatSource, InternalIterator, LiveIter, MemTableSource, MergingIterator, TableSource,
};
use unikv_memtable::{LookupResult, MemTable};
use unikv_sstable::{BlockCache, Table, TableBuilder, TableBuilderOptions, TableOptions};
use unikv_vlog::{parse_vlog_file_name, vlog_file_name, ValueLog};
use unikv_wal::{LogReader, LogWriter, ReadOutcome};

/// A scan reserves `min(limit, SCAN_RESERVE_ITEMS)` items up front: a scan
/// of up to this many items never regrows its result, and a huge `limit`
/// does not reserve a huge buffer.
const SCAN_RESERVE_ITEMS: usize = 1024;

/// Tables the hash index points into (flush and scan-merge outputs) are
/// written with data blocks of `block_size / HASH_TIER_BLOCK_DIVISOR`, so
/// a probe that misses the cache reads about 1 KiB instead of 4 KiB and
/// the block cache holds four times as many hot-record blocks. SortedStore
/// tables, which scans read, keep `block_size`. 4 is the knee of the
/// measured curve in DESIGN.md §4 (*Point-read block geometry*).
const HASH_TIER_BLOCK_DIVISOR: usize = 4;

/// The store a table is written for; it decides the data-block size.
#[derive(Clone, Copy)]
enum Tier {
    /// Hash-indexed UnsortedStore tables: point-read-sized blocks.
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

/// Scope guard pairing a structural op's `*Start` event with exactly one
/// terminal event: [`OpScope::finish`] publishes the `*Finish` and disarms
/// the guard; any other exit — a `?` early return on a build or commit
/// error, an injected sync-point fault, a panic — publishes the `*Abort`
/// on drop. Every terminal event's `cause` is the op's own start seq, so
/// causal chains stay connected even through failures.
struct OpScope<'a> {
    bus: &'a EventBus,
    abort: EventKind,
    partition: u32,
    start_seq: u64,
    done: bool,
}

impl<'a> OpScope<'a> {
    #[allow(clippy::too_many_arguments)]
    fn begin(
        bus: &'a EventBus,
        start: EventKind,
        abort: EventKind,
        partition: u32,
        cause: Option<u64>,
        inputs: Vec<u64>,
        bytes: u64,
    ) -> OpScope<'a> {
        let start_seq = bus.publish(start, partition, cause, inputs, vec![], bytes, "");
        OpScope {
            bus,
            abort,
            partition,
            start_seq,
            done: false,
        }
    }

    fn finish(mut self, kind: EventKind, outputs: Vec<u64>, bytes: u64, detail: &str) -> u64 {
        self.done = true;
        self.bus.publish(
            kind,
            self.partition,
            Some(self.start_seq),
            vec![],
            outputs,
            bytes,
            detail,
        )
    }
}

impl Drop for OpScope<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.bus.publish(
                self.abort,
                self.partition,
                Some(self.start_seq),
                vec![],
                vec![],
                0,
                "aborted",
            );
        }
    }
}

/// Phase 1 of a full merge or a scan-merge, taken under the core lock: the
/// started op, the input table numbers (UnsortedStore, then SortedStore
/// for a full merge) and an iterator over them. The build phase needs no
/// lock; install checks the tiers still name `inputs`.
struct MergeSnapshot<'a> {
    scope: OpScope<'a>,
    full: bool,
    t0: u64,
    pid: u32,
    dir: PathBuf,
    inputs: Vec<u64>,
    input_bytes: u64,
    iter: MergingIterator,
    vlog: Arc<parking_lot::Mutex<ValueLog>>,
}

/// What a flush built: the table's metadata, the kept user keys (for the
/// hash index at install) and the open table, its blocks already on the
/// block cache's probation segment.
struct FlushedTable {
    meta: TableMeta,
    keys: Vec<Vec<u8>>,
    table: Arc<Table>,
}

/// What a full merge built: the new SortedStore run, the bytes written
/// (tables plus newly separated values) and the live separated bytes.
struct MergeOutput {
    tables: Vec<TableMeta>,
    written: u64,
    live_value_bytes: u64,
}

/// Writes a sorted entry stream into tables in `dir`, rolling over to a
/// new table once one reaches `table_size`. Each table takes its number
/// from the caller's allocator when it opens.
struct TableRoller<'a> {
    db: &'a DbInner,
    dir: PathBuf,
    builder: Option<TableBuilder>,
    tables: Vec<TableMeta>,
    /// Bytes of the finished tables.
    bytes: u64,
}

impl<'a> TableRoller<'a> {
    fn new(db: &'a DbInner, dir: PathBuf) -> TableRoller<'a> {
        TableRoller {
            db,
            dir,
            builder: None,
            tables: Vec::new(),
            bytes: 0,
        }
    }

    fn add(&mut self, ikey: &[u8], value: &[u8], alloc: &mut dyn FnMut() -> u64) -> Result<()> {
        if self.builder.is_none() {
            let number = alloc();
            let file = self
                .db
                .env
                .new_writable(&filenames::table_file(&self.dir, number))?;
            self.builder = Some(TableBuilder::new(
                file,
                self.db.table_builder_opts(Tier::Sorted),
            ));
            self.tables.push(TableMeta {
                number,
                size: 0,
                smallest: Vec::new(),
                largest: Vec::new(),
            });
        }
        let b = self.builder.as_mut().expect("opened above");
        b.add(ikey, value)?;
        if b.estimated_size() >= self.db.opts.table_size as u64 {
            self.finish()?;
        }
        Ok(())
    }

    /// Finish the open table, if any.
    fn finish(&mut self) -> Result<()> {
        if let Some(b) = self.builder.take() {
            let props = b.finish()?;
            self.bytes += props.file_size;
            let t = self.tables.last_mut().expect("each builder has a table");
            t.size = props.file_size;
            t.smallest = props.smallest;
            t.largest = props.largest;
        }
        Ok(())
    }
}

/// Engine-level counters (per-database).
#[derive(Debug, Default)]
pub struct UniKvStats {
    /// Bytes of user data accepted by writes (key + value).
    pub user_bytes_written: AtomicU64,
    /// Bytes written by memtable flushes.
    pub bytes_flushed: AtomicU64,
    /// Bytes read by UnsortedStore→SortedStore merges.
    pub merge_bytes_read: AtomicU64,
    /// Bytes written by merges (tables + newly separated values).
    pub merge_bytes_written: AtomicU64,
    /// Bytes rewritten by GC (values + tables).
    pub gc_bytes_written: AtomicU64,
    /// Bytes written while splitting partitions.
    pub split_bytes_written: AtomicU64,
    /// Number of flushes.
    pub flushes: AtomicU64,
    /// Number of full merges.
    pub merges: AtomicU64,
    /// Number of size-based (scan-optimization) merges.
    pub scan_merges: AtomicU64,
    /// Number of GC passes.
    pub gcs: AtomicU64,
    /// Number of partition splits.
    pub splits: AtomicU64,
    /// SSTables consulted across all point lookups.
    pub tables_checked: AtomicU64,
    /// Gets answered by a memtable.
    pub memtable_hits: AtomicU64,
    /// Hash-index candidates that failed key verification.
    pub index_false_positives: AtomicU64,
    /// Microseconds foreground writes spent stalled (slowdowns + stops).
    pub stall_time_micros: AtomicU64,
    /// Writes that hit the slowdown threshold.
    pub stall_slowdowns: AtomicU64,
    /// Writes that hit the hard-stop threshold.
    pub stall_stops: AtomicU64,
    /// Background maintenance jobs enqueued.
    pub maint_jobs_scheduled: AtomicU64,
    /// Background maintenance jobs completed successfully.
    pub maint_jobs_completed: AtomicU64,
    /// Background maintenance jobs that failed *fatally* (poisoning the
    /// database): a permanent manifest-commit failure or a worker panic.
    /// Transient failures retry (`maint_job_retries`) or quarantine
    /// (`maint_jobs_quarantined`) without touching this counter.
    pub maint_jobs_failed: AtomicU64,
    /// Transient job failures re-queued with backoff.
    pub maint_job_retries: AtomicU64,
    /// Jobs quarantined after exhausting their retry budget or failing
    /// permanently (counted once per quarantine entry).
    pub maint_jobs_quarantined: AtomicU64,
    /// Health state transitions (Healthy↔Degraded↔ReadOnly→Poisoned).
    pub health_transitions: AtomicU64,
    /// Total milliseconds spent in any non-Healthy state (accrued when
    /// the database transitions back to Healthy).
    pub time_degraded_ms: AtomicU64,
    /// Most recently observed maintenance queue depth.
    pub maint_queue_depth: AtomicU64,
    /// Checksum/structure failures detected (and surfaced as
    /// `Error::Corruption`) instead of serving garbage.
    pub corruptions_detected: AtomicU64,
    /// Non-corruption I/O errors surfaced by read paths.
    pub read_io_errors: AtomicU64,
    /// WAL bytes dropped as torn tails during recovery replay.
    pub wal_dropped_bytes: AtomicU64,
}

impl UniKvStats {
    pub(crate) fn add(c: &AtomicU64, v: u64) {
        c.fetch_add(v, Ordering::Relaxed);
    }

    /// Write amplification: device writes / user writes.
    pub fn write_amplification(&self) -> f64 {
        let user = self.user_bytes_written.load(Ordering::Relaxed);
        if user == 0 {
            return 0.0;
        }
        let device = self.bytes_flushed.load(Ordering::Relaxed)
            + self.merge_bytes_written.load(Ordering::Relaxed)
            + self.gc_bytes_written.load(Ordering::Relaxed)
            + self.split_bytes_written.load(Ordering::Relaxed);
        device as f64 / user as f64
    }

    /// Snapshot all counters as `(name, value)` pairs.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let l = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("user_bytes_written", l(&self.user_bytes_written)),
            ("bytes_flushed", l(&self.bytes_flushed)),
            ("merge_bytes_read", l(&self.merge_bytes_read)),
            ("merge_bytes_written", l(&self.merge_bytes_written)),
            ("gc_bytes_written", l(&self.gc_bytes_written)),
            ("split_bytes_written", l(&self.split_bytes_written)),
            ("flushes", l(&self.flushes)),
            ("merges", l(&self.merges)),
            ("scan_merges", l(&self.scan_merges)),
            ("gcs", l(&self.gcs)),
            ("splits", l(&self.splits)),
            ("tables_checked", l(&self.tables_checked)),
            ("memtable_hits", l(&self.memtable_hits)),
            ("index_false_positives", l(&self.index_false_positives)),
            ("stall_time_micros", l(&self.stall_time_micros)),
            ("stall_slowdowns", l(&self.stall_slowdowns)),
            ("stall_stops", l(&self.stall_stops)),
            ("maint_jobs_scheduled", l(&self.maint_jobs_scheduled)),
            ("maint_jobs_completed", l(&self.maint_jobs_completed)),
            ("maint_jobs_failed", l(&self.maint_jobs_failed)),
            ("maint_job_retries", l(&self.maint_job_retries)),
            ("maint_jobs_quarantined", l(&self.maint_jobs_quarantined)),
            ("health_transitions", l(&self.health_transitions)),
            ("time_degraded_ms", l(&self.time_degraded_ms)),
            ("maint_queue_depth", l(&self.maint_queue_depth)),
            ("corruptions_detected", l(&self.corruptions_detected)),
            ("read_io_errors", l(&self.read_io_errors)),
            ("wal_dropped_bytes", l(&self.wal_dropped_bytes)),
        ]
    }
}

struct DbCore {
    /// Partitions ordered by `meta.lo`.
    partitions: Vec<Partition>,
    next_partition: u32,
    next_file: u64,
    last_seq: SequenceNumber,
    /// The metadata log every structural change commits to.
    manifest: ManifestWriter,
}

impl DbCore {
    fn alloc_file(&mut self) -> u64 {
        let n = self.next_file;
        self.next_file += 1;
        n
    }

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

/// Engine state shared between the public handle and the maintenance
/// worker threads. All database logic lives here; [`UniKv`] is a thin
/// wrapper that owns the workers' join handles.
pub(crate) struct DbInner {
    pub(crate) env: Arc<dyn Env>,
    root: PathBuf,
    pub(crate) opts: UniKvOptions,
    topts: TableOptions,
    core: RwLock<DbCore>,
    resolver: Arc<ValueResolver>,
    pub(crate) stats: Arc<UniKvStats>,
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

impl DbInner {
    /// Open (creating or recovering) the engine state under `root`.
    fn open_inner(env: Arc<dyn Env>, root: PathBuf, opts: UniKvOptions) -> Result<DbInner> {
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

        // Inherited-log references across all partitions, used both for
        // orphan sweeping and for keeping parent logs alive.
        let inherited_refs: HashSet<(u32, u64)> = meta
            .partitions
            .iter()
            .flat_map(|p| p.inherited_logs.iter())
            .map(|r| (r.partition, r.log_number))
            .collect();

        let mut core = DbCore {
            partitions: Vec::with_capacity(meta.partitions.len()),
            next_partition: meta.next_partition,
            next_file: meta.next_file,
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
            let dir = partition_dir(&root, id);
            let pmeta = meta.partitions.iter().find(|p| p.id == id);
            sweep_partition_dir(env.as_ref(), &dir, id, pmeta, &inherited_refs)?;
        }

        let stats = Arc::new(UniKvStats::default());
        let mut last_seq = meta.last_sequence;
        let mut stale_wals = Vec::new();
        let mut next_file = core.next_file;
        for pmeta in &meta.partitions {
            let (p, stale) = open_partition(
                &env,
                &root,
                &opts,
                &topts,
                pmeta,
                replay_index.then(|| index_entries.get(&pmeta.id).map_or(&[][..], Vec::as_slice)),
                &mut last_seq,
                &mut next_file,
                &stats,
                &metrics,
            )?;
            core.partitions.push(p);
            stale_wals.extend(stale);
        }
        if opts.paranoid_checks {
            // Every inherited value-log reference must resolve to a file;
            // a missing one means committed pointers would dangle.
            for r in &inherited_refs {
                let path = partition_dir(&root, r.0).join(vlog_file_name(r.1));
                if !env.file_exists(&path) {
                    return Err(Error::corruption(format!(
                        "inherited value log missing: {}",
                        path.display()
                    )));
                }
            }
        }
        core.last_seq = last_seq;
        core.next_file = next_file;
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

        let db = DbInner {
            resolver: Arc::new(ValueResolver::new(env.clone(), root.clone())),
            env,
            root,
            maint: MaintState::new(
                RetryConfig::from_options(&opts),
                stats.clone(),
                events.clone(),
            ),
            opts,
            topts,
            core: RwLock::new(core),
            stats,
            metrics,
            sync: SyncPoints::default(),
            events,
            journal,
            job_causes: parking_lot::Mutex::new(HashMap::new()),
        };

        // Flush any memtable rebuilt from a WAL so the on-disk state is
        // self-describing, then commit. The first commit of every open
        // writes a fresh manifest snapshot (also covering the fresh-database
        // case), so no record ever follows a torn tail. Replayed WAL files
        // can go once their contents are in flushed tables.
        {
            let mut core = db.core.write();
            for i in 0..core.partitions.len() {
                if !core.partitions[i].mem.is_empty() {
                    db.flush_partition(&mut core, i)?;
                }
            }
            db.commit_meta(&mut core)?;
            for path in stale_wals {
                if db.env.file_exists(&path) {
                    db.env.delete_file(&path)?;
                }
            }
        }
        Ok(db)
    }

    /// Counters.
    pub fn stats(&self) -> &UniKvStats {
        &self.stats
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

    /// Bytes of block payload the shared block cache holds.
    pub fn block_cache_bytes(&self) -> usize {
        self.topts.cache.as_ref().map_or(0, |c| c.bytes())
    }

    /// The table ids the hash index of `key`'s partition names for it.
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

    /// Insert or update `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(key, value, ValueType::Value)
    }

    /// Delete `key`.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(key, b"", ValueType::Deletion)
    }

    /// Insert or update `key`, returning a per-operation stage profile.
    pub fn put_profiled(&self, key: &[u8], value: &[u8]) -> Result<PerfContext> {
        self.write_observed(key, value, ValueType::Value, true)
    }

    /// Delete `key`, returning a per-operation stage profile.
    pub fn delete_profiled(&self, key: &[u8]) -> Result<PerfContext> {
        self.write_observed(key, b"", ValueType::Deletion, true)
    }

    fn write(&self, key: &[u8], value: &[u8], t: ValueType) -> Result<()> {
        self.write_observed(key, value, t, false).map(|_| ())
    }

    /// The write path with optional per-op profiling. The profiler reuses
    /// the operation's own histogram clock readings (`t0`/`t1`), so the
    /// profile's stage sum equals the recorded latency exactly and an
    /// unprofiled call performs the same two clock reads as before.
    fn write_observed(
        &self,
        key: &[u8],
        value: &[u8],
        t: ValueType,
        profile: bool,
    ) -> Result<PerfContext> {
        if key.is_empty() {
            return Err(Error::invalid_argument("empty keys are not supported"));
        }
        let t0 = self.metrics.registry.now_micros();
        if profile {
            perf::begin_at(self.metrics.registry.clone(), t0);
        }
        let pid = match self.write_impl(key, value, t) {
            Ok(pid) => pid,
            Err(e) => {
                if profile {
                    perf::cancel();
                }
                return Err(e);
            }
        };
        let t1 = self.metrics.registry.now_micros();
        let ctx = if profile {
            perf::finish_at(t1)
        } else {
            PerfContext::default()
        };
        self.metrics.eng.writes.inc();
        self.metrics.eng.put_latency.record(t1.saturating_sub(t0));
        self.metrics.registry.trace_event(TraceEvent {
            at_micros: t1,
            dur_micros: t1.saturating_sub(t0),
            op: if t == ValueType::Value {
                TraceOp::Put
            } else {
                TraceOp::Delete
            },
            outcome: TraceOutcome::Done,
            partition: pid,
            bytes: (key.len() + value.len()) as u64,
        });
        Ok(ctx)
    }

    fn write_impl(&self, key: &[u8], value: &[u8], t: ValueType) -> Result<u32> {
        if self.opts.background_jobs > 0 {
            self.wait_for_write_room(Some(key))?;
            perf::mark(PerfStage::StallWait);
        }
        let mut core = self.core.write();
        core.last_seq += 1;
        let seq = core.last_seq;
        let pidx = core.route(key);
        perf::mark(PerfStage::Router);
        let p = &mut core.partitions[pidx];
        let op = [(t, key.to_vec(), value.to_vec())];
        p.wal.add_record(&encode_batch_record(seq, &op))?;
        if self.opts.sync_writes {
            p.wal.sync()?;
        }
        // Memtable values carry the SeparatedValue slot encoding so every
        // store tier speaks the same value format.
        let slot = SeparatedValue::Inline(value.to_vec()).encode();
        p.mem.add(seq, t, key, &slot);
        perf::mark(PerfStage::Memtable);
        UniKvStats::add(
            &self.stats.user_bytes_written,
            (key.len() + value.len()) as u64,
        );
        let pid = p.meta.id;
        if p.mem.approximate_memory_usage() >= self.opts.write_buffer_size {
            if self.opts.background_jobs > 0 {
                self.seal_memtable(&mut core, pidx)?;
                self.schedule(JobKind::Flush, pid);
            } else {
                let fin = self.flush_partition(&mut core, pidx)?;
                self.run_triggers(&mut core, pidx, fin)?;
            }
        }
        Ok(pid)
    }

    /// Apply `batch` atomically: each partition's slice of the batch is
    /// one WAL record, and all slices are logged (and synced, when
    /// `sync_writes` is on) before any becomes visible via flush.
    pub fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
        batch.validate()?;
        if batch.is_empty() {
            return Ok(());
        }
        let t0 = self.metrics.registry.now_micros();
        if self.opts.background_jobs > 0 {
            self.wait_for_write_room(None)?;
        }
        let mut core = self.core.write();
        // Assign sequences in batch order, grouped per partition.
        let base = core.last_seq + 1;
        core.last_seq += batch.ops.len() as u64;
        #[allow(clippy::type_complexity)]
        let mut per_partition: Vec<Vec<(u64, ValueType, Vec<u8>, Vec<u8>)>> =
            vec![Vec::new(); core.partitions.len()];
        for (i, (t, k, v)) in batch.ops.iter().enumerate() {
            let pidx = core.route(k);
            per_partition[pidx].push((base + i as u64, *t, k.clone(), v.clone()));
        }
        // Log every slice first (failure before visibility), then apply.
        for (pidx, slice) in per_partition.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            let ops: Vec<(ValueType, Vec<u8>, Vec<u8>)> = slice
                .iter()
                .map(|(_, t, k, v)| (*t, k.clone(), v.clone()))
                .collect();
            let p = &mut core.partitions[pidx];
            p.wal.add_record(&encode_batch_record(slice[0].0, &ops))?;
            if self.opts.sync_writes {
                p.wal.sync()?;
            }
        }
        for (pidx, slice) in per_partition.iter().enumerate() {
            for (seq, t, k, v) in slice {
                let slot = SeparatedValue::Inline(v.clone()).encode();
                core.partitions[pidx].mem.add(*seq, *t, k, &slot);
                UniKvStats::add(&self.stats.user_bytes_written, (k.len() + v.len()) as u64);
            }
        }
        for pidx in 0..core.partitions.len() {
            if core.partitions[pidx].mem.approximate_memory_usage() >= self.opts.write_buffer_size {
                if self.opts.background_jobs > 0 {
                    let pid = core.partitions[pidx].meta.id;
                    self.seal_memtable(&mut core, pidx)?;
                    self.schedule(JobKind::Flush, pid);
                } else {
                    let fin = self.flush_partition(&mut core, pidx)?;
                    self.run_triggers(&mut core, pidx, fin)?;
                }
            }
        }
        // One latency sample per batch; the contained ops count into
        // `writes`/`batch_ops` so `put_latency`'s sample count keeps
        // matching the number of put/delete *calls*.
        let t1 = self.metrics.registry.now_micros();
        let n = batch.ops.len() as u64;
        self.metrics.eng.writes.add(n);
        self.metrics.batch_ops.add(n);
        self.metrics.batch_latency.record(t1.saturating_sub(t0));
        self.metrics.registry.trace_event(TraceEvent {
            at_micros: t1,
            dur_micros: t1.saturating_sub(t0),
            op: TraceOp::Put,
            outcome: TraceOutcome::Done,
            partition: 0,
            bytes: n,
        });
        Ok(())
    }

    /// Force all memtables to disk.
    pub fn flush(&self) -> Result<()> {
        let _pause = self.pause_maintenance()?;
        let mut core = self.core.write();
        let mut fins = vec![None; core.partitions.len()];
        for (i, fin) in fins.iter_mut().enumerate() {
            if !core.partitions[i].mem.is_empty() || !core.partitions[i].imms.is_empty() {
                *fin = self.flush_partition(&mut core, i)?;
            }
        }
        for (i, fin) in fins.into_iter().enumerate() {
            self.run_triggers(&mut core, i, fin)?;
        }
        Ok(())
    }

    /// Force a full merge (UnsortedStore → SortedStore) in every partition.
    pub fn compact_all(&self) -> Result<()> {
        let _pause = self.pause_maintenance()?;
        let mut core = self.core.write();
        for i in 0..core.partitions.len() {
            let mut fin = None;
            if !core.partitions[i].mem.is_empty() || !core.partitions[i].imms.is_empty() {
                fin = self.flush_partition(&mut core, i)?;
            }
            if !core.partitions[i].meta.unsorted.is_empty() {
                self.merge_partition(&mut core, i, fin)?;
            }
        }
        Ok(())
    }

    /// Run GC on every partition regardless of the garbage ratio
    /// (test/maintenance hook).
    pub fn force_gc(&self) -> Result<()> {
        let _pause = self.pause_maintenance()?;
        let mut core = self.core.write();
        for i in 0..core.partitions.len() {
            self.gc_partition(&mut core, i, None)?;
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
            UniKvStats::add(&self.stats.maint_jobs_scheduled, 1);
            self.set_queue_depth(depth);
        }
    }

    /// Record the maintenance queue depth in the stat and the gauge.
    pub(crate) fn set_queue_depth(&self, depth: usize) {
        self.stats
            .maint_queue_depth
            .store(depth as u64, Ordering::Relaxed);
        self.metrics.maint_queue_depth.set(depth as u64);
    }

    /// Remember the event seq that caused `kind` to be scheduled on
    /// `partition`; the worker publishing the job's start event consumes
    /// it via [`DbInner::take_job_cause`]. Only bothers when someone is
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

    /// Backpressure: before a write proceeds, brake against the routed
    /// partition's debt (sealed memtables awaiting flush, UnsortedStore
    /// merge backlog). `key = None` (batches, which may touch any
    /// partition) brakes against the worst partition.
    fn wait_for_write_room(&self, key: Option<&[u8]>) -> Result<()> {
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
                match key {
                    Some(k) => eval(&core.partitions[core.route(k)]),
                    None => core
                        .partitions
                        .iter()
                        .map(eval)
                        .max_by_key(|t| t.0)
                        .unwrap_or((StallLevel::None, 0, 0, 0)),
                }
            };
            match level {
                StallLevel::None => break Ok(()),
                StallLevel::Slowdown => {
                    // Brake once, then let the write through: the goal is
                    // to shave the ingest rate, not to serialize on the
                    // background queue.
                    if !slowed {
                        slowed = true;
                        UniKvStats::add(&self.stats.stall_slowdowns, 1);
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
                        UniKvStats::add(&self.stats.stall_stops, 1);
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
            UniKvStats::add(&self.stats.stall_time_micros, waited);
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

    /// Surface read-path failures to the stats counters: corruption
    /// detected anywhere along a read (block CRC, value CRC, pointer
    /// decode) and I/O errors bubbling out of the environment.
    fn track_read<T>(&self, r: Result<T>) -> Result<T> {
        match &r {
            Err(Error::Corruption(_)) => UniKvStats::add(&self.stats.corruptions_detected, 1),
            Err(Error::Io(_)) => UniKvStats::add(&self.stats.read_io_errors, 1),
            _ => {}
        }
        r
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_observed(key, false).map(|(v, _)| v)
    }

    /// Point lookup returning a per-operation stage profile alongside the
    /// value. The profile's `total_micros` equals the latency recorded in
    /// the `get` histogram for this very call.
    pub fn get_profiled(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, PerfContext)> {
        self.get_observed(key, true)
    }

    fn get_observed(&self, key: &[u8], profile: bool) -> Result<(Option<Vec<u8>>, PerfContext)> {
        let t0 = self.metrics.registry.now_micros();
        if profile {
            perf::begin_at(self.metrics.registry.clone(), t0);
        }
        let r = self.track_read(self.get_impl(key));
        let t1 = self.metrics.registry.now_micros();
        let ctx = if profile {
            perf::finish_at(t1)
        } else {
            PerfContext::default()
        };
        match &r {
            Ok((value, outcome, pid)) => {
                self.metrics.eng.record_read(*outcome);
                self.metrics.eng.get_latency.record(t1.saturating_sub(t0));
                self.metrics.registry.trace_event(TraceEvent {
                    at_micros: t1,
                    dur_micros: t1.saturating_sub(t0),
                    op: TraceOp::Get,
                    outcome: *outcome,
                    partition: *pid,
                    bytes: value.as_ref().map_or(0, |v| v.len()) as u64,
                });
            }
            Err(_) => {
                self.metrics.eng.get_latency.record(t1.saturating_sub(t0));
            }
        }
        r.map(|(value, _, _)| (value, ctx))
    }

    /// Resolve `key` to its value plus the tier that answered (for the
    /// per-tier read counters and the op trace) and the partition id.
    #[allow(clippy::type_complexity)]
    fn get_impl(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, TraceOutcome, u32)> {
        let core = self.core.read();
        let snapshot = core.last_seq;
        let p = &core.partitions[core.route(key)];
        let pid = p.meta.id;
        perf::mark(PerfStage::Router);

        // 1. Memtables: the active one, then sealed ones newest-first
        //    (sealed memtables hold data newer than any flushed table).
        for mem in std::iter::once(&p.mem).chain(p.imms.iter().rev().map(|s| &s.mem)) {
            match mem.get(key, snapshot) {
                LookupResult::Value(slot) => {
                    UniKvStats::add(&self.stats.memtable_hits, 1);
                    perf::mark(PerfStage::Memtable);
                    let (v, _) = self.resolve_slot(slot)?;
                    return Ok((Some(v), TraceOutcome::Memtable, pid));
                }
                LookupResult::Deleted => {
                    UniKvStats::add(&self.stats.memtable_hits, 1);
                    perf::mark(PerfStage::Memtable);
                    return Ok((None, TraceOutcome::Memtable, pid));
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
                match self.probe_table(p, tmeta, &seek_key, key)? {
                    Probe::Value(slot) => {
                        let (v, _) = self.resolve_slot(&slot)?;
                        return Ok((Some(v), TraceOutcome::Unsorted, pid));
                    }
                    Probe::Tombstone => return Ok((None, TraceOutcome::Unsorted, pid)),
                    Probe::Miss => {
                        UniKvStats::add(&self.stats.index_false_positives, 1);
                    }
                }
            }
        } else {
            for tmeta in p.unsorted_newest_first() {
                if extract_user_key(&tmeta.smallest) > key || extract_user_key(&tmeta.largest) < key
                {
                    continue;
                }
                match self.probe_table(p, tmeta, &seek_key, key)? {
                    Probe::Value(slot) => {
                        let (v, _) = self.resolve_slot(&slot)?;
                        return Ok((Some(v), TraceOutcome::Unsorted, pid));
                    }
                    Probe::Tombstone => return Ok((None, TraceOutcome::Unsorted, pid)),
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
            match self.probe_table(p, tmeta, &seek_key, key)? {
                Probe::Value(slot) => {
                    let (v, from_vlog) = self.resolve_slot(&slot)?;
                    let outcome = if from_vlog {
                        TraceOutcome::Vlog
                    } else {
                        TraceOutcome::Sorted
                    };
                    return Ok((Some(v), outcome, pid));
                }
                Probe::Tombstone => return Ok((None, TraceOutcome::Sorted, pid)),
                Probe::Miss => {}
            }
        }
        Ok((None, TraceOutcome::Miss, pid))
    }

    fn probe_table(
        &self,
        p: &Partition,
        tmeta: &TableMeta,
        seek_key: &[u8],
        user_key: &[u8],
    ) -> Result<Probe> {
        UniKvStats::add(&self.stats.tables_checked, 1);
        let table = self.open_table(p, tmeta.number)?;
        let Some((ikey, value)) = table.get(seek_key, None)? else {
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
        let size = self.env.file_size(&path)?;
        let table = Table::open(self.env.new_random_access(&path)?, size, self.topts.clone())?;
        p.tables_guard().insert(number, table.clone());
        Ok(table)
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
        let mut due = Vec::new();
        let r = self
            .track_read(self.scan_range_impl(from, end, limit, &mut due))
            .and_then(|items| self.merge_scanned(&due).map(|()| items));
        let t1 = self.metrics.registry.now_micros();
        self.metrics.eng.scans.inc();
        self.metrics.eng.scan_latency.record(t1.saturating_sub(t0));
        if let Ok(items) = &r {
            self.metrics.eng.scan_items.add(items.len() as u64);
            self.metrics.registry.trace_event(TraceEvent {
                at_micros: t1,
                dur_micros: t1.saturating_sub(t0),
                op: TraceOp::Scan,
                outcome: TraceOutcome::Done,
                partition: 0,
                bytes: items.len() as u64,
            });
        }
        r
    }

    /// The scan itself, under the read lock. Pushes onto `due` the id of
    /// every partition it reads that is due a size-based merge.
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
            &self.metrics.fetch,
        )?;
        Ok(items)
    }

    /// A streaming iterator over the whole database at the current
    /// sequence number — the paper's seek()/next() scan interface. The
    /// iterator holds table and memtable handles for every partition, so
    /// it keeps reading a consistent snapshot while merges, GC, and
    /// splits proceed. Every partition counts as read, so any that is due
    /// a size-based merge gets it before the cursors are built.
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
            let refs = p.meta.own_logs.iter().map(|&n| (p.meta.id, n)).chain(
                p.meta
                    .inherited_logs
                    .iter()
                    .map(|r| (r.partition, r.log_number)),
            );
            for (pid, log) in refs {
                pinned.insert((pid, log), self.resolver.reader(pid, log)?);
            }
        }
        Ok(crate::iter::UniKvIterator::new(
            parts,
            self.resolver.clone(),
            pinned,
        ))
    }

    /// The size-based merge (scan optimization) is demand-driven: a scan
    /// pays for it only on the partitions it reads. Given the ids of the
    /// partitions a scan or iterator just read while they were due, run
    /// the merge on each under the write lock (inline mode) or schedule it
    /// (background mode). Called with the core lock released. A closed
    /// write gate (ReadOnly, Poisoned) starts no merge: the scan is still
    /// served.
    fn merge_scanned(&self, pids: &[u32]) -> Result<()> {
        if pids.is_empty() || self.maint.write_gate_error().is_some() {
            return Ok(());
        }
        if self.opts.background_jobs > 0 {
            for &pid in pids {
                self.schedule(JobKind::ScanMerge, pid);
            }
            return Ok(());
        }
        let mut core = self.core.write();
        for &pid in pids {
            // Re-check: another scan may have merged the partition, or a
            // split replaced it, while no lock was held.
            if let Some(pidx) = core.partition_index(pid) {
                if self.scan_merge_due(&core.partitions[pidx]) {
                    self.scan_merge_partition(&mut core, pidx)?;
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
        self.tables_iter(p, true, true, children)
    }

    /// Merging iterator over `children` (newer sources, such as
    /// memtables), then the partition's UnsortedStore tables and, with
    /// `with_sorted`, its SortedStore run. Maintenance passes
    /// `fill_cache: false`: its block misses are not cached.
    fn tables_iter(
        &self,
        p: &Partition,
        with_sorted: bool,
        fill_cache: bool,
        mut children: Vec<Box<dyn InternalIterator>>,
    ) -> Result<MergingIterator> {
        for tmeta in &p.meta.unsorted {
            let table = self.open_table(p, tmeta.number)?;
            children.push(Box::new(TableSource::new(&table, fill_cache)));
        }
        if with_sorted {
            let mut run = Vec::with_capacity(p.meta.sorted.len());
            for tmeta in &p.meta.sorted {
                run.push((tmeta.largest.clone(), self.open_table(p, tmeta.number)?));
            }
            children.push(Box::new(ConcatSource::new(run, fill_cache)));
        }
        Ok(MergingIterator::new(children))
    }

    // ---------------------------------------------------------------
    // Structural operations
    // ---------------------------------------------------------------

    /// Commit the current state to the manifest: what changed since the
    /// last commit, plus the index entries added since, in one synced
    /// record.
    fn commit_meta(&self, core: &mut DbCore) -> Result<()> {
        let views: Vec<PartitionView> = core
            .partitions
            .iter()
            .map(|p| PartitionView {
                meta: &p.meta,
                index: &p.index,
                new_entries: &p.unlogged,
            })
            .collect();
        let header = Header {
            last_sequence: core.last_seq,
            next_file: core.next_file,
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

    /// Run post-flush triggers on partition `pidx`: full merge, GC, split.
    /// The size-based merge is not among them: scans trigger it (see
    /// [`Self::merge_scanned`]). `cause` is the event seq of whatever ran
    /// last (usually the triggering flush's finish); each completed step
    /// becomes the cause of the next, chaining seal→flush→merge→GC
    /// causally.
    fn run_triggers(&self, core: &mut DbCore, pidx: usize, cause: Option<u64>) -> Result<()> {
        let fin = if self.merge_due(&core.partitions[pidx]) {
            self.merge_partition(core, pidx, cause)?
        } else {
            None
        };
        let cause = fin.or(cause);
        if self.gc_due(&core.partitions[pidx]) {
            self.gc_partition(core, pidx, cause)?;
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

    /// The size-based merge trigger (scan optimization), checked on every
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
    /// for whatever thresholds partition `pidx` currently exceeds. Each
    /// job re-checks its trigger when it runs, so over-scheduling is
    /// harmless (and duplicates collapse in the queue).
    fn schedule_triggers(&self, core: &DbCore, pidx: usize, cause: Option<u64>) {
        let p = &core.partitions[pidx];
        let pid = p.meta.id;
        if !p.imms.is_empty() {
            // A flush's cause travels with the sealed memtable itself.
            self.schedule(JobKind::Flush, pid);
        }
        if self.merge_due(p) {
            self.note_job_cause(JobKind::Merge, pid, cause);
            self.schedule(JobKind::Merge, pid);
        } else if self.opts.enable_scan_optimization
            && p.meta.unsorted.len() >= self.opts.slowdown_unsorted_tables
        {
            // Backstop for workloads that never scan: writers brake at
            // this table count, so collapse the tables before the byte
            // limit brings the full merge.
            self.note_job_cause(JobKind::ScanMerge, pid, cause);
            self.schedule(JobKind::ScanMerge, pid);
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

    /// Seal the active memtable for background flushing: the frozen
    /// memtable stays visible to reads via `imms`, its WAL is recorded in
    /// `sealed_wals` and committed to the manifest (so recovery replays it until
    /// the flush lands), and writes continue on a fresh memtable + WAL.
    fn seal_memtable(&self, core: &mut DbCore, pidx: usize) -> Result<()> {
        let new_wal = core.alloc_file();
        let p = &mut core.partitions[pidx];
        if p.mem.is_empty() {
            return Ok(());
        }
        let mem_bytes = p.mem.approximate_memory_usage() as u64;
        self.sync.hit("seal:begin")?;
        p.wal.sync()?;
        let dir = partition_dir(&self.root, p.meta.id);
        // Create the replacement WAL before touching any state: if the
        // create fails, the memtable and its WAL are still fully intact.
        let new_writer =
            LogWriter::new(self.env.new_writable(&filenames::wal_file(&dir, new_wal))?)
                .with_metrics(self.metrics.wal.clone());
        let sealed = std::mem::replace(&mut p.mem, Arc::new(MemTable::new()));
        let old_wal = p.meta.wal_number;
        p.wal = new_writer;
        p.meta.wal_number = new_wal;
        p.meta.sealed_wals.push(old_wal);
        p.imms.push(SealedMem {
            wal_number: old_wal,
            mem: sealed,
            cause: None,
        });
        self.sync.hit("seal:commit")?;
        self.commit_meta(core)?;
        let p = &mut core.partitions[pidx];
        let seq = self.events.publish(
            EventKind::Seal,
            p.meta.id,
            None,
            vec![old_wal],
            vec![new_wal],
            mem_bytes,
            "",
        );
        if let Some(s) = p.imms.last_mut() {
            s.cause = Some(seq);
        }
        Ok(())
    }

    /// Write a memtable out as one UnsortedStore table, deduping to the
    /// newest version per user key. Takes no locks: background flushes
    /// call it with the core lock released. Once the file is synced, the
    /// data blocks the builder wrote are admitted to the block cache, so
    /// the first reads of the new table cost no block read.
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
        if self.topts.cache.is_some() {
            builder.keep_data_blocks();
        }
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
        let table = Table::open(
            self.env.new_random_access(&path)?,
            props.file_size,
            self.topts.clone(),
        )?;
        table.admit(props.data_blocks)?;
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

    /// Install a flushed table under the write lock: append it to the
    /// UnsortedStore, feed the hash index, retire the flushed WAL and pop
    /// the matching sealed memtable, and commit to the manifest. The open
    /// table joins the partition's table handles; if the install aborts
    /// before the commit, its admitted blocks are evicted.
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
        if let Err(e) = self.commit_flush(core, pidx, meta, &keys, old_wal) {
            table.evict_from_cache();
            return Err(e);
        }
        core.partitions[pidx]
            .tables_guard()
            .insert(table_number, table);
        UniKvStats::add(&self.stats.bytes_flushed, table_size);
        UniKvStats::add(&self.stats.flushes, 1);
        self.sync.hit("flush:cleanup")?;
        // Old WAL is obsolete once the manifest no longer names it.
        let p = &core.partitions[pidx];
        let pid = p.meta.id;
        let dir = partition_dir(&self.root, pid);
        let old = filenames::wal_file(&dir, old_wal);
        if self.env.file_exists(&old) {
            self.env.delete_file(&old)?;
            self.events.publish(
                EventKind::WalRetired,
                pid,
                flush_start,
                vec![old_wal],
                vec![],
                0,
                "",
            );
        }
        self.maint.notify_progress();
        Ok(())
    }

    /// The state change of [`Self::install_flush`], up to and including
    /// the manifest commit.
    fn commit_flush(
        &self,
        core: &mut DbCore,
        pidx: usize,
        tmeta: TableMeta,
        keys: &[Vec<u8>],
        old_wal: u64,
    ) -> Result<()> {
        self.sync.hit("flush:install")?;
        let table_number = tmeta.number;
        let p = &mut core.partitions[pidx];
        p.meta.unsorted.push(tmeta);
        if self.opts.enable_hash_index {
            let table = table_number as u32;
            for key in keys {
                let (bucket, tag) = p.index.insert(key, table);
                p.unlogged.push((bucket, tag, table));
            }
        }
        p.imms.retain(|s| s.wal_number != old_wal);
        p.meta.sealed_wals.retain(|w| *w != old_wal);
        self.sync.hit("flush:commit")?;
        self.commit_meta(core)
    }

    /// Flush the partition's memtable into a new UnsortedStore table.
    /// Inline flushes go through the same seal-then-drain protocol as
    /// background mode: the active memtable is sealed (its WAL enters
    /// `sealed_wals` and the manifest commits) *before* the fallible table build,
    /// so an aborted build — transient I/O error or injected fault — leaves
    /// both the in-memory and the committed state referencing every acked
    /// byte. Sealed memtables drain oldest first, so newer data keeps
    /// shadowing older data.
    fn flush_partition(&self, core: &mut DbCore, pidx: usize) -> Result<Option<u64>> {
        if !core.partitions[pidx].mem.is_empty() {
            self.seal_memtable(core, pidx)?;
        }
        let mut last_finish = None;
        while !core.partitions[pidx].imms.is_empty() {
            let t0 = self.metrics.registry.now_micros();
            let table_number = core.alloc_file();
            let sealed = core.partitions[pidx].imms[0].clone();
            let pid = core.partitions[pidx].meta.id;
            let dir = partition_dir(&self.root, pid);
            let scope = OpScope::begin(
                &self.events,
                EventKind::FlushStart,
                EventKind::FlushAbort,
                pid,
                sealed.cause,
                vec![sealed.wal_number],
                0,
            );
            let flushed = self.build_flush_table(&dir, table_number, sealed.mem)?;
            let bytes = flushed.meta.size;
            self.install_flush(
                core,
                pidx,
                flushed,
                sealed.wal_number,
                Some(scope.start_seq),
            )?;
            last_finish = Some(scope.finish(EventKind::FlushFinish, vec![table_number], bytes, ""));
            self.record_maint(TraceOp::Flush, t0, pid, bytes);
        }
        Ok(last_finish)
    }

    /// Record one completed maintenance operation: a latency sample in the
    /// op's histogram and a `Done` trace event.
    fn record_maint(&self, op: TraceOp, t0: u64, pid: u32, bytes: u64) {
        let t1 = self.metrics.registry.now_micros();
        self.metrics
            .eng
            .maint_histogram(op)
            .record(t1.saturating_sub(t0));
        self.metrics.registry.trace_event(TraceEvent {
            at_micros: t1,
            dur_micros: t1.saturating_sub(t0),
            op,
            outcome: TraceOutcome::Done,
            partition: pid,
            bytes,
        });
    }

    fn table_builder_opts(&self, tier: Tier) -> TableBuilderOptions {
        let block_size = match tier {
            Tier::Unsorted => self.opts.block_size / HASH_TIER_BLOCK_DIVISOR,
            Tier::Sorted => self.opts.block_size,
        };
        TableBuilderOptions {
            block_size,
            bloom_bits_per_key: None, // UniKV removes Bloom filters
            ..Default::default()
        }
    }

    /// Merge the UnsortedStore into the SortedStore with partial KV
    /// separation, running all three phases under the held write lock.
    fn merge_partition(
        &self,
        core: &mut DbCore,
        pidx: usize,
        cause: Option<u64>,
    ) -> Result<Option<u64>> {
        let Some(mut snap) = self.snapshot_merge(core, pidx, true, || cause)? else {
            return Ok(None);
        };
        let out = self.build_merge(&mut snap, &mut || core.alloc_file())?;
        self.install_merge(core, pidx, snap, out).map(Some)
    }

    /// Size-based merge (scan optimization), all three phases under the
    /// held write lock. A scan triggers it, so no event causes it.
    fn scan_merge_partition(&self, core: &mut DbCore, pidx: usize) -> Result<()> {
        let Some(mut snap) = self.snapshot_merge(core, pidx, false, || None)? else {
            return Ok(());
        };
        let out = self.build_scan_merge(&mut snap, &mut || core.alloc_file())?;
        self.install_scan_merge(core, pidx, snap, out)?;
        Ok(())
    }

    /// Phase 1 of a full merge (`full`) or a scan-merge: if the partition
    /// has input to merge, start the op (clock read, `begin` sync point,
    /// start event with `cause()`) and open an iterator over the input
    /// tables. Needs the core lock, read or write.
    fn snapshot_merge(
        &self,
        core: &DbCore,
        pidx: usize,
        full: bool,
        cause: impl FnOnce() -> Option<u64>,
    ) -> Result<Option<MergeSnapshot<'_>>> {
        let p = &core.partitions[pidx];
        let sorted: &[TableMeta] = if full { &p.meta.sorted } else { &[] };
        let has_input = if full {
            !p.meta.unsorted.is_empty() || !sorted.is_empty()
        } else {
            p.meta.unsorted.len() >= 2
        };
        if !has_input {
            return Ok(None);
        }
        let t0 = self.metrics.registry.now_micros();
        self.sync.hit(if full {
            "merge:begin"
        } else {
            "scanmerge:begin"
        })?;
        let inputs: Vec<u64> = p
            .meta
            .unsorted
            .iter()
            .chain(sorted)
            .map(|t| t.number)
            .collect();
        let input_bytes = p.meta.unsorted.iter().chain(sorted).map(|t| t.size).sum();
        let (start, abort) = if full {
            (EventKind::MergeStart, EventKind::MergeAbort)
        } else {
            (EventKind::ScanMergeStart, EventKind::ScanMergeAbort)
        };
        let scope = OpScope::begin(
            &self.events,
            start,
            abort,
            p.meta.id,
            cause(),
            inputs.clone(),
            input_bytes,
        );
        Ok(Some(MergeSnapshot {
            scope,
            full,
            t0,
            pid: p.meta.id,
            dir: partition_dir(&self.root, p.meta.id),
            inputs,
            input_bytes,
            iter: self.tables_iter(p, full, false, Vec::new())?,
            vlog: p.vlog.clone(),
        }))
    }

    /// Phase 2 of a full merge, no core lock needed: write the newest
    /// version of every live key into a new SortedStore run. Fresh
    /// (inline) values move to a newly rotated value log; values already
    /// separated keep their pointers and are NOT rewritten. Tombstones
    /// have done their shadowing job and are dropped: this is the bottom
    /// tier.
    fn build_merge(
        &self,
        snap: &mut MergeSnapshot,
        alloc: &mut dyn FnMut() -> u64,
    ) -> Result<MergeOutput> {
        let iter = &mut snap.iter;
        iter.seek_to_first()?;
        if self.opts.enable_kv_separation {
            snap.vlog.lock().rotate()?;
        }
        let mut out = TableRoller::new(self, snap.dir.clone());
        let mut written = 0u64;
        let mut live_value_bytes = 0u64;
        let mut last_user_key: Option<Vec<u8>> = None;
        while iter.valid() {
            let user_key = extract_user_key(iter.ikey());
            let (_, vt) = extract_seq_type(iter.ikey())?;
            if last_user_key.as_deref() != Some(user_key) {
                last_user_key = Some(user_key.to_vec());
                if vt == ValueType::Value {
                    let slot = match SeparatedValue::decode(iter.value())? {
                        SeparatedValue::Inline(v) if self.opts.enable_kv_separation => {
                            let ptr = snap.vlog.lock().append(&v)?;
                            written += v.len() as u64;
                            live_value_bytes += ptr.length as u64;
                            SeparatedValue::Pointer(ptr)
                        }
                        inline @ SeparatedValue::Inline(_) => inline,
                        SeparatedValue::Pointer(ptr) => {
                            live_value_bytes += ptr.length as u64;
                            SeparatedValue::Pointer(ptr)
                        }
                    };
                    out.add(iter.ikey(), &slot.encode(), alloc)?;
                }
            }
            iter.next()?;
        }
        out.finish()?;
        snap.vlog.lock().sync()?;
        self.sync.hit("merge:build")?;
        Ok(MergeOutput {
            tables: out.tables,
            written: written + out.bytes,
            live_value_bytes,
        })
    }

    /// Phase 3 of a full merge, under the write lock: the new run replaces
    /// both tiers, the UnsortedStore and its hash index empty, and the
    /// manifest commits. Returns the finish event's seq.
    fn install_merge(
        &self,
        core: &mut DbCore,
        pidx: usize,
        snap: MergeSnapshot,
        out: MergeOutput,
    ) -> Result<u64> {
        let p = &mut core.partitions[pidx];
        check_merge_inputs(p.meta.unsorted.iter().chain(&p.meta.sorted), &snap.inputs)?;
        let outputs: Vec<u64> = out.tables.iter().map(|t| t.number).collect();
        p.meta.unsorted.clear();
        p.meta.sorted = out.tables;
        p.meta.own_logs = snap.vlog.lock().log_numbers();
        p.meta.live_value_bytes = out.live_value_bytes;
        p.index.clear();
        p.unlogged.clear();
        self.commit_merge(core, pidx, snap, outputs, out.written)
    }

    /// Phase 2 of a scan-merge, no core lock needed: collapse the input
    /// tables into one table holding the newest version of every key,
    /// indexed by a fresh hash index. Values stay inline and tombstones
    /// stay: the SortedStore below still holds older versions they must
    /// shadow.
    fn build_scan_merge(
        &self,
        snap: &mut MergeSnapshot,
        alloc: &mut dyn FnMut() -> u64,
    ) -> Result<(TableMeta, TwoLevelHashIndex)> {
        let number = alloc();
        let iter = &mut snap.iter;
        iter.seek_to_first()?;
        let mut builder = TableBuilder::new(
            self.env
                .new_writable(&filenames::table_file(&snap.dir, number))?,
            self.table_builder_opts(Tier::Unsorted),
        );
        let mut index =
            TwoLevelHashIndex::with_capacity(index_capacity(&self.opts), self.opts.num_hashes);
        let mut last_user_key: Option<Vec<u8>> = None;
        while iter.valid() {
            let user_key = extract_user_key(iter.ikey());
            if last_user_key.as_deref() != Some(user_key) {
                last_user_key = Some(user_key.to_vec());
                builder.add(iter.ikey(), iter.value())?;
                if self.opts.enable_hash_index {
                    index.insert(user_key, number as u32);
                }
            }
            iter.next()?;
        }
        let props = builder.finish()?;
        self.sync.hit("scanmerge:build")?;
        let tmeta = TableMeta {
            number,
            size: props.file_size,
            smallest: props.smallest,
            largest: props.largest,
        };
        Ok((tmeta, index))
    }

    /// Phase 3 of a scan-merge, under the write lock: the merged table and
    /// its index replace the UnsortedStore and its index, then the
    /// manifest commits with the new index's entries. Returns the finish
    /// event's seq.
    fn install_scan_merge(
        &self,
        core: &mut DbCore,
        pidx: usize,
        snap: MergeSnapshot,
        (tmeta, index): (TableMeta, TwoLevelHashIndex),
    ) -> Result<u64> {
        let p = &mut core.partitions[pidx];
        check_merge_inputs(p.meta.unsorted.iter(), &snap.inputs)?;
        let (number, size) = (tmeta.number, tmeta.size);
        p.meta.unsorted = vec![tmeta];
        p.index = index;
        // The fresh index holds only the new table: log all of it. Entries
        // of merged-away tables still unlogged (after a failed commit)
        // would only be dropped at recovery.
        p.unlogged = p.index.entries();
        self.commit_merge(core, pidx, snap, vec![number], size)
    }

    /// The end of both merges' install: commit the manifest, count the merge,
    /// publish the finish event, delete the input tables and record the
    /// op.
    fn commit_merge(
        &self,
        core: &mut DbCore,
        pidx: usize,
        snap: MergeSnapshot,
        outputs: Vec<u64>,
        bytes: u64,
    ) -> Result<u64> {
        let (commit, finish, cleanup, op) = if snap.full {
            (
                "merge:commit",
                EventKind::MergeFinish,
                "merge:cleanup",
                TraceOp::Merge,
            )
        } else {
            (
                "scanmerge:commit",
                EventKind::ScanMergeFinish,
                "scanmerge:cleanup",
                TraceOp::ScanMerge,
            )
        };
        self.sync.hit(commit)?;
        self.commit_meta(core)?;
        if snap.full {
            UniKvStats::add(&self.stats.merge_bytes_read, snap.input_bytes);
            UniKvStats::add(&self.stats.merges, 1);
        } else {
            UniKvStats::add(&self.stats.scan_merges, 1);
        }
        UniKvStats::add(&self.stats.merge_bytes_written, bytes);
        // Manifest committed: the merge is durable, so the finish event fires
        // here — a cleanup failure below must not read as an aborted merge.
        let fin = snap.scope.finish(finish, outputs, bytes, "");
        self.sync.hit(cleanup)?;
        let p = &core.partitions[pidx];
        for &number in &snap.inputs {
            p.evict_table(number);
            self.env
                .delete_file(&filenames::table_file(&snap.dir, number))?;
        }
        self.maint.notify_progress();
        self.record_maint(op, snap.t0, snap.pid, bytes);
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
        for r in &p.meta.inherited_logs {
            let path = partition_dir(&self.root, r.partition).join(vlog_file_name(r.log_number));
            total += self.env.file_size(&path).unwrap_or(0) / 2;
        }
        if total < self.opts.gc_min_bytes {
            return false;
        }
        let garbage = total.saturating_sub(p.meta.live_value_bytes);
        garbage as f64 / total.max(1) as f64 >= self.opts.gc_garbage_ratio
    }

    /// Garbage-collect the partition's value logs: rewrite every live
    /// value (identified by scanning the SortedStore keys+pointers — no
    /// index queries, unlike WiscKey) into fresh logs, rewrite the
    /// SortedStore with the new pointers, drop old and inherited logs.
    /// Also performs the lazy value split after a partition split.
    fn gc_partition(&self, core: &mut DbCore, pidx: usize, cause: Option<u64>) -> Result<()> {
        let p = &mut core.partitions[pidx];
        if p.meta.sorted.is_empty() && p.meta.inherited_logs.is_empty() {
            // No pointers can exist; every own log is garbage.
            let dead: Vec<u64> = p.vlog.lock().log_numbers();
            if !dead.is_empty() {
                for n in &dead {
                    self.resolver.evict(p.meta.id, *n);
                }
                p.vlog.lock().delete_logs(&dead)?;
                p.meta.own_logs.clear();
                self.commit_meta(core)?;
            }
            return Ok(());
        }
        let t0 = self.metrics.registry.now_micros();
        self.sync.hit("gc:begin")?;
        let dir = partition_dir(&self.root, p.meta.id);
        let old_logs: Vec<u64> = p.vlog.lock().log_numbers();
        let scope = OpScope::begin(
            &self.events,
            EventKind::GcStart,
            EventKind::GcAbort,
            p.meta.id,
            cause,
            old_logs.clone(),
            p.vlog.lock().total_size(),
        );

        // Step 1+2 of the paper's protocol: identify valid values by
        // scanning the SortedStore in key order, read them, and append to
        // a newly created log.
        p.vlog.lock().rotate()?;
        let mut run = Vec::with_capacity(p.meta.sorted.len());
        for tmeta in &p.meta.sorted {
            run.push((tmeta.largest.clone(), self.open_table(p, tmeta.number)?));
        }
        let vlog = p.vlog.clone();
        let mut iter = ConcatSource::new(run, false);
        iter.seek_to_first()?;

        let mut out = TableRoller::new(self, dir);
        let mut written = 0u64;
        let mut live_value_bytes = 0u64;
        while iter.valid() {
            let slot = match SeparatedValue::decode(iter.value())? {
                SeparatedValue::Pointer(ptr) => {
                    let value = self.resolver.read(&ptr)?;
                    let new_ptr = vlog.lock().append(&value)?;
                    written += value.len() as u64;
                    live_value_bytes += new_ptr.length as u64;
                    SeparatedValue::Pointer(new_ptr)
                }
                inline => inline,
            };
            // Step 3: write keys with their new pointers back to SSTables.
            out.add(iter.ikey(), &slot.encode(), &mut || core.alloc_file())?;
            iter.next()?;
        }
        out.finish()?;
        written += out.bytes;
        vlog.lock().sync()?;
        self.sync.hit("gc:build")?;

        // All in-memory meta mutations happen together, only after every
        // fallible build step succeeded: an abort above (injected fault or
        // real I/O error) must leave `p.meta` exactly as committed, or a
        // later successful commit would persist a half-applied GC — e.g.
        // dropping `inherited_logs` that rewritten pointers still need,
        // turning those logs into orphans deleted on the next open.
        let p = &mut core.partitions[pidx];
        let old_tables = std::mem::replace(&mut p.meta.sorted, out.tables);
        let old_inherited = std::mem::take(&mut p.meta.inherited_logs);
        let new_logs: Vec<u64> = p
            .vlog
            .lock()
            .log_numbers()
            .into_iter()
            .filter(|n| !old_logs.contains(n))
            .collect();
        p.meta.own_logs = new_logs;
        p.meta.live_value_bytes = live_value_bytes;

        // Step 4: the manifest commit is the GC_done mark; afterwards old logs
        // and tables may be deleted.
        self.sync.hit("gc:commit")?;
        self.commit_meta(core)?;
        UniKvStats::add(&self.stats.gc_bytes_written, written);
        UniKvStats::add(&self.stats.gcs, 1);
        let new_log_numbers = core.partitions[pidx].meta.own_logs.clone();
        scope.finish(EventKind::GcFinish, new_log_numbers, written, "");
        self.sync.hit("gc:cleanup")?;
        let p = &mut core.partitions[pidx];
        let dir = partition_dir(&self.root, p.meta.id);
        for t in old_tables {
            p.evict_table(t.number);
            self.env
                .delete_file(&filenames::table_file(&dir, t.number))?;
        }
        for n in &old_logs {
            self.resolver.evict(p.meta.id, *n);
        }
        let p = &mut core.partitions[pidx];
        p.vlog.lock().delete_logs(&old_logs)?;
        self.sweep_shared_logs(core, &old_inherited)?;
        self.record_maint(TraceOp::Gc, t0, core.partitions[pidx].meta.id, written);
        Ok(())
    }

    /// Delete formerly-inherited log files that no partition references
    /// anymore.
    fn sweep_shared_logs(&self, core: &DbCore, candidates: &[LogRef]) -> Result<()> {
        for r in candidates {
            let still_referenced = core.partitions.iter().any(|p| {
                (p.meta.id == r.partition && p.meta.own_logs.contains(&r.log_number))
                    || p.meta.inherited_logs.contains(r)
            });
            if !still_referenced {
                let path =
                    partition_dir(&self.root, r.partition).join(vlog_file_name(r.log_number));
                if self.env.file_exists(&path) {
                    self.resolver.evict(r.partition, r.log_number);
                    self.env.delete_file(&path)?;
                }
            }
        }
        Ok(())
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
        if !core.partitions[pidx].mem.is_empty() || !core.partitions[pidx].imms.is_empty() {
            self.flush_partition(core, pidx)?;
        }

        // Pass 1: count live entries to find the median split point.
        let total = {
            let mut iter = self.tables_iter(&core.partitions[pidx], true, false, Vec::new())?;
            iter.seek_to_first()?;
            let mut count = 0u64;
            let mut last_user_key: Option<Vec<u8>> = None;
            while iter.valid() {
                let user_key = extract_user_key(iter.ikey());
                let (_, vt) = extract_seq_type(iter.ikey())?;
                if last_user_key.as_deref() != Some(user_key) {
                    last_user_key = Some(user_key.to_vec());
                    if vt == ValueType::Value {
                        count += 1;
                    }
                }
                iter.next()?;
            }
            count
        };
        if total < 2 {
            return Ok(None); // cannot split fewer than two keys
        }
        let t0 = self.metrics.registry.now_micros();
        self.sync.hit("split:begin")?;
        let half = total / 2;

        // Allocate children.
        let left_id = core.next_partition;
        let right_id = core.next_partition + 1;
        core.next_partition += 2;
        let left_wal = core.alloc_file();
        let right_wal = core.alloc_file();

        let parent_lo = core.partitions[pidx].meta.lo.clone();
        let parent_hi = core.partitions[pidx].meta.hi.clone();
        let parent_id = core.partitions[pidx].meta.id;
        let parent_logs: Vec<LogRef> = {
            let p = &core.partitions[pidx];
            p.meta
                .own_logs
                .iter()
                .map(|&n| LogRef {
                    partition: parent_id,
                    log_number: n,
                })
                .chain(p.meta.inherited_logs.iter().copied())
                .collect()
        };
        let parent_tables: Vec<u64> = {
            let p = &core.partitions[pidx];
            p.meta
                .unsorted
                .iter()
                .chain(p.meta.sorted.iter())
                .map(|t| t.number)
                .collect()
        };
        let scope = OpScope::begin(
            &self.events,
            EventKind::SplitStart,
            EventKind::SplitAbort,
            parent_id,
            cause,
            parent_tables,
            0,
        );

        // Pass 2: stream entries into the two children.
        struct ChildBuild<'a> {
            id: u32,
            dir: PathBuf,
            vlog: ValueLog,
            out: TableRoller<'a>,
            live_value_bytes: u64,
            inherited: HashSet<LogRef>,
            written: u64,
        }
        let mk_child = |id: u32| -> Result<ChildBuild> {
            let dir = partition_dir(&self.root, id);
            self.env.create_dir_all(&dir)?;
            let mut vlog =
                ValueLog::open(self.env.clone(), dir.clone(), id, self.opts.max_log_size)?;
            vlog.set_metrics(self.metrics.vlog.clone());
            Ok(ChildBuild {
                id,
                out: TableRoller::new(self, dir.clone()),
                dir,
                vlog,
                live_value_bytes: 0,
                inherited: HashSet::new(),
                written: 0,
            })
        };
        let mut left = mk_child(left_id)?;
        let mut right = mk_child(right_id)?;
        let mut boundary: Option<Vec<u8>> = None;

        {
            let mut iter = self.tables_iter(&core.partitions[pidx], true, false, Vec::new())?;
            iter.seek_to_first()?;
            let mut last_user_key: Option<Vec<u8>> = None;
            let mut kept = 0u64;
            while iter.valid() {
                let ikey = iter.ikey().to_vec();
                let user_key = extract_user_key(&ikey).to_vec();
                let (_, vt) = extract_seq_type(&ikey)?;
                let is_newest = last_user_key.as_deref() != Some(user_key.as_slice());
                if is_newest {
                    last_user_key = Some(user_key.clone());
                    if vt == ValueType::Value {
                        let child = if kept < half {
                            &mut left
                        } else {
                            if boundary.is_none() {
                                boundary = Some(user_key.clone());
                            }
                            &mut right
                        };
                        kept += 1;
                        let slot = match SeparatedValue::decode(iter.value())? {
                            // Paper: UnsortedStore (inline) values are
                            // split eagerly into each child's new log...
                            SeparatedValue::Inline(v) if self.opts.enable_kv_separation => {
                                let ptr = child.vlog.append(&v)?;
                                child.written += v.len() as u64;
                                child.live_value_bytes += ptr.length as u64;
                                SeparatedValue::Pointer(ptr)
                            }
                            inline @ SeparatedValue::Inline(_) => inline,
                            // ...while already-separated values stay in the
                            // parent's logs, shared until lazy GC.
                            SeparatedValue::Pointer(ptr) => {
                                child.inherited.insert(LogRef {
                                    partition: ptr.partition,
                                    log_number: ptr.log_number,
                                });
                                child.live_value_bytes += ptr.length as u64;
                                SeparatedValue::Pointer(ptr)
                            }
                        };
                        child
                            .out
                            .add(&ikey, &slot.encode(), &mut || core.alloc_file())?;
                    }
                }
                iter.next()?;
            }
        }
        for child in [&mut left, &mut right] {
            child.out.finish()?;
            child.written += child.out.bytes;
            child.vlog.sync()?;
        }
        let boundary = boundary.expect("total >= 2 guarantees a right half");
        self.sync.hit("split:build")?;

        let split_bytes = left.written + right.written;

        // Build the child partitions and swap them in.
        let build_partition = |child: ChildBuild,
                               lo: Vec<u8>,
                               hi: Option<Vec<u8>>,
                               wal_number: u64|
         -> Result<Partition> {
            let own_logs = child.vlog.log_numbers();
            let wal = LogWriter::new(
                self.env
                    .new_writable(&filenames::wal_file(&child.dir, wal_number))?,
            )
            .with_metrics(self.metrics.wal.clone());
            Ok(Partition {
                meta: PartitionMeta {
                    id: child.id,
                    lo,
                    hi,
                    wal_number,
                    unsorted: Vec::new(),
                    sorted: child.out.tables,
                    own_logs,
                    inherited_logs: child.inherited.into_iter().collect(),
                    live_value_bytes: child.live_value_bytes,
                    sealed_wals: Vec::new(),
                },
                mem: Arc::new(MemTable::new()),
                imms: Vec::new(),
                wal,
                index: TwoLevelHashIndex::with_capacity(
                    index_capacity(&self.opts),
                    self.opts.num_hashes,
                ),
                vlog: Arc::new(parking_lot::Mutex::new(child.vlog)),
                tables: parking_lot::Mutex::new(std::collections::HashMap::new()),
                unlogged: Vec::new(),
            })
        };
        let left_p = build_partition(left, parent_lo, Some(boundary.clone()), left_wal)?;
        let right_p = build_partition(right, boundary, parent_hi, right_wal)?;

        let parent = std::mem::replace(&mut core.partitions[pidx], left_p);
        core.partitions.insert(pidx + 1, right_p);

        self.sync.hit("split:commit")?;
        self.commit_meta(core)?;
        UniKvStats::add(&self.stats.split_bytes_written, split_bytes);
        UniKvStats::add(&self.stats.splits, 1);
        // Outputs name the two child *partitions* (the interesting unit
        // here), not files; the detail spells out which is which.
        let fin = scope.finish(
            EventKind::SplitFinish,
            vec![left_id as u64, right_id as u64],
            split_bytes,
            &format!("children p{left_id},p{right_id}"),
        );
        self.sync.hit("split:cleanup")?;

        // Delete the parent's table files and WAL; keep its value logs
        // (now shared with the children, freed by lazy GC).
        let parent_dir = partition_dir(&self.root, parent.meta.id);
        for t in parent.meta.unsorted.iter().chain(&parent.meta.sorted) {
            let path = filenames::table_file(&parent_dir, t.number);
            if self.env.file_exists(&path) {
                self.env.delete_file(&path)?;
            }
        }
        let wal_path = filenames::wal_file(&parent_dir, parent.meta.wal_number);
        if self.env.file_exists(&wal_path) {
            self.env.delete_file(&wal_path)?;
        }
        // Parent logs with no surviving references can go immediately.
        self.sweep_shared_logs(core, &parent_logs)?;
        self.record_maint(TraceOp::Split, t0, parent_id, split_bytes);
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
            JobKind::ScanMerge => self.run_scan_merge_job(job.partition),
            JobKind::Merge => self.run_merge_job(job.partition),
            JobKind::Gc => self.run_gc_job(job.partition),
            JobKind::Split => self.run_split_job(job.partition),
        }
    }

    /// Background flush: drain the partition's sealed memtables oldest
    /// first. The table is built with the core lock *released* — reads
    /// and writes proceed against the still-visible sealed memtable —
    /// and installed under a brief write lock.
    fn run_flush_job(&self, pid: u32) -> Result<()> {
        loop {
            let (dir, table_number, sealed) = {
                let mut core = self.core.write();
                let Some(pidx) = core.partition_index(pid) else {
                    return Ok(());
                };
                if core.partitions[pidx].imms.is_empty() {
                    return Ok(());
                }
                let table_number = core.alloc_file();
                (
                    partition_dir(&self.root, pid),
                    table_number,
                    core.partitions[pidx].imms[0].clone(),
                )
            };
            let t0 = self.metrics.registry.now_micros();
            let scope = OpScope::begin(
                &self.events,
                EventKind::FlushStart,
                EventKind::FlushAbort,
                pid,
                sealed.cause,
                vec![sealed.wal_number],
                0,
            );
            let flushed = self.build_flush_table(&dir, table_number, sealed.mem)?;
            let bytes = flushed.meta.size;
            let mut core = self.core.write();
            let Some(pidx) = core.partition_index(pid) else {
                // Partition vanished (split); scope aborts.
                flushed.table.evict_from_cache();
                return Ok(());
            };
            self.install_flush(
                &mut core,
                pidx,
                flushed,
                sealed.wal_number,
                Some(scope.start_seq),
            )?;
            let fin = scope.finish(EventKind::FlushFinish, vec![table_number], bytes, "");
            self.schedule_triggers(&core, pidx, Some(fin));
            self.record_maint(TraceOp::Flush, t0, pid, bytes);
        }
    }

    /// Background full merge: snapshot under a read lock, build with the
    /// core lock released (value appends take the partition's vlog mutex
    /// per call, table numbers come from brief write locks), install under
    /// the write lock.
    fn run_merge_job(&self, pid: u32) -> Result<()> {
        let snap = {
            let core = self.core.read();
            let Some(pidx) = core.partition_index(pid) else {
                return Ok(());
            };
            self.snapshot_merge(&core, pidx, true, || {
                self.take_job_cause(JobKind::Merge, pid)
            })?
        };
        let Some(mut snap) = snap else {
            return Ok(());
        };
        let out = self.build_merge(&mut snap, &mut || self.core.write().alloc_file())?;
        let mut core = self.core.write();
        let Some(pidx) = core.partition_index(pid) else {
            return Ok(()); // partition vanished (split); scope aborts
        };
        let fin = self.install_merge(&mut core, pidx, snap, out)?;
        self.schedule_triggers(&core, pidx, Some(fin));
        Ok(())
    }

    /// Background size-based merge (scan optimization): the three phases
    /// of [`Self::run_merge_job`].
    fn run_scan_merge_job(&self, pid: u32) -> Result<()> {
        let snap = {
            let core = self.core.read();
            let Some(pidx) = core.partition_index(pid) else {
                return Ok(());
            };
            self.snapshot_merge(&core, pidx, false, || {
                self.take_job_cause(JobKind::ScanMerge, pid)
            })?
        };
        let Some(mut snap) = snap else {
            return Ok(());
        };
        let out = self.build_scan_merge(&mut snap, &mut || self.core.write().alloc_file())?;
        let mut core = self.core.write();
        let Some(pidx) = core.partition_index(pid) else {
            return Ok(()); // partition vanished (split); scope aborts
        };
        let fin = self.install_scan_merge(&mut core, pidx, snap, out)?;
        self.schedule_triggers(&core, pidx, Some(fin));
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
            self.gc_partition(&mut core, pidx, cause)?;
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
        self.schedule_triggers(&core, pidx, fin);
        if pidx + 1 < core.partitions.len() {
            self.schedule_triggers(&core, pidx + 1, fin);
        }
        Ok(())
    }
}

/// The UniKV database handle.
///
/// Owns the engine state (shared with maintenance worker threads via
/// `Arc`) and the worker join handles. With `background_jobs = 0` (the
/// default) no threads are spawned and every structural operation runs
/// inline, exactly as in previous versions. Dropping the handle asks the
/// workers to finish their current job and joins them; jobs still queued
/// are abandoned — safe, because sealed WALs are committed in the manifest and
/// recovery replays them.
pub struct UniKv {
    inner: Arc<DbInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl UniKv {
    /// Open (creating or recovering) a database under `root`.
    pub fn open(env: Arc<dyn Env>, root: impl Into<PathBuf>, opts: UniKvOptions) -> Result<UniKv> {
        let inner = Arc::new(DbInner::open_inner(env, root.into(), opts)?);
        let workers = (0..inner.opts.background_jobs)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("unikv-maint-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn maintenance worker")
            })
            .collect();
        Ok(UniKv { inner, workers })
    }

    /// Counters.
    pub fn stats(&self) -> &UniKvStats {
        self.inner.stats()
    }

    /// The named sync-point registry for crash testing: arm a hook to
    /// observe (or abort, by returning `Err`) structural operations at
    /// any of the [`crate::maintenance::SYNC_POINTS`]. An abort models a
    /// crash at that step — drop the database and reopen to exercise
    /// recovery.
    pub fn sync_points(&self) -> &crate::maintenance::SyncPoints {
        &self.inner.sync
    }

    /// Options this database was opened with.
    pub fn options(&self) -> &UniKvOptions {
        self.inner.options()
    }

    /// Number of partitions (grows via dynamic range partitioning).
    pub fn partition_count(&self) -> usize {
        self.inner.partition_count()
    }

    /// The current partition boundary keys (`lo` of each partition).
    pub fn partition_boundaries(&self) -> Vec<Vec<u8>> {
        self.inner.partition_boundaries()
    }

    /// Total bytes of in-memory hash-index entries across partitions
    /// (experiment E12).
    pub fn index_memory_bytes(&self) -> usize {
        self.inner.index_memory_bytes()
    }

    /// Bytes of block payload the shared block cache holds (0 without a
    /// cache).
    pub fn block_cache_bytes(&self) -> usize {
        self.inner.block_cache_bytes()
    }

    /// The UnsortedStore table ids the hash index names for `key`, newest
    /// first, false positives included: the candidates a get of `key`
    /// would verify.
    pub fn index_candidates(&self, key: &[u8]) -> Vec<u32> {
        self.inner.index_candidates(key)
    }

    /// Total logical bytes stored (tables + live values).
    pub fn logical_bytes(&self) -> u64 {
        self.inner.logical_bytes()
    }

    /// Last committed sequence number.
    pub fn last_sequence(&self) -> SequenceNumber {
        self.inner.last_sequence()
    }

    /// Insert or update `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.inner.put(key, value)
    }

    /// Delete `key`.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.inner.delete(key)
    }

    /// Apply `batch` atomically (see [`WriteBatch`]).
    pub fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
        self.inner.write_batch(batch)
    }

    /// Force all memtables (active and sealed) to disk. In background
    /// mode this quiesces the workers first, so it is a true barrier.
    pub fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    /// Force a full merge (UnsortedStore → SortedStore) in every partition.
    pub fn compact_all(&self) -> Result<()> {
        self.inner.compact_all()
    }

    /// Run GC on every partition regardless of the garbage ratio
    /// (test/maintenance hook).
    pub fn force_gc(&self) -> Result<()> {
        self.inner.force_gc()
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    /// Point lookup with a per-operation stage profile (router, memtable,
    /// index probes, boundary search, block reads, vlog fetch…). The
    /// profile's `total_micros` equals the sum of its stages and the
    /// latency recorded in the `get` histogram for this call.
    pub fn get_profiled(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, PerfContext)> {
        self.inner.get_profiled(key)
    }

    /// Insert or update `key`, returning a per-operation stage profile
    /// (stall wait, router, WAL append/sync, memtable).
    pub fn put_profiled(&self, key: &[u8], value: &[u8]) -> Result<PerfContext> {
        self.inner.put_profiled(key, value)
    }

    /// Delete `key`, returning a per-operation stage profile.
    pub fn delete_profiled(&self, key: &[u8]) -> Result<PerfContext> {
        self.inner.delete_profiled(key)
    }

    /// Range scan: up to `limit` live entries with `key >= from`.
    pub fn scan(&self, from: &[u8], limit: usize) -> Result<Vec<ScanItem>> {
        self.inner.scan(from, limit)
    }

    /// Range scan bounded above: up to `limit` live entries with
    /// `from <= key < end` (`end = None` means unbounded).
    pub fn scan_range(
        &self,
        from: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<ScanItem>> {
        self.inner.scan_range(from, end, limit)
    }

    /// A streaming iterator over the whole database at the current
    /// sequence number — the paper's seek()/next() scan interface.
    pub fn iter(&self) -> Result<crate::iter::UniKvIterator> {
        self.inner.iter()
    }

    /// Block until the maintenance queue is empty and no job is running.
    /// Returns immediately in inline mode or after a background failure.
    pub fn wait_for_background(&self) {
        self.inner.maint.wait_idle();
    }

    /// The fatal background-maintenance error that poisoned this
    /// database, if any. Once set, writes and structural operations fail
    /// with this error; reads keep working.
    pub fn background_error(&self) -> Option<String> {
        self.inner.maint.poison_message()
    }

    /// Current health state (see [`HealthState`] for the transitions).
    /// Lock-free; always `Healthy` in inline mode.
    pub fn health(&self) -> HealthState {
        self.inner.maint.health_state()
    }

    /// Detailed health snapshot: state, jobs retrying, quarantined jobs
    /// with their reasons, and the poison message if any.
    pub fn health_report(&self) -> HealthReport {
        self.inner.maint.health_report()
    }

    /// Replace the maintenance scheduler's clock (milliseconds, arbitrary
    /// monotonic origin), or restore the real clock with `None`. Backoff
    /// deadlines and quarantine probes are evaluated against it — a test
    /// or simulation hook so retry schedules elapse without sleeping.
    pub fn set_maintenance_clock(&self, clock: Option<MaintClock>) {
        self.inner.maint.set_clock(clock);
    }

    /// The database's metric bundle: registry plus every typed handle.
    pub fn metrics(&self) -> &DbMetrics {
        &self.inner.metrics
    }

    /// The lifecycle event bus this database publishes on. Exposed for
    /// tests and tooling that want the next seq or panic counters; new
    /// listeners must be registered via [`UniKvOptions::listeners`]
    /// *before* open so no event is missed.
    pub fn event_bus(&self) -> &Arc<EventBus> {
        &self.inner.events
    }

    /// Listener panics caught (and swallowed) so far.
    pub fn listener_panics(&self) -> u64 {
        self.inner.events.listener_panics()
    }

    /// Event-journal health: `(events_written, write_errors)` since open,
    /// or `None` when the journal is disabled or failed to open.
    pub fn event_journal_stats(&self) -> Option<(u64, u64)> {
        self.inner
            .journal
            .as_ref()
            .map(|j| (j.events_written(), j.write_errors()))
    }

    /// Replace the event bus clock (microseconds, arbitrary monotonic
    /// origin) used to stamp `at_micros` on published events, or restore
    /// the real clock with `None`. Deliberately separate from the metrics
    /// clock: publishing an event must never advance a manual metrics
    /// clock mid-operation.
    pub fn set_event_clock(&self, clock: Option<EventClock>) {
        self.inner.events.set_clock(clock);
    }

    /// Human-readable metrics report: every counter, gauge, and latency
    /// histogram (count/p50/p95/p99/max) plus the tail of the op trace.
    pub fn metrics_report(&self) -> String {
        self.inner.metrics.report_text()
    }

    /// Machine-readable metrics report (tab-separated, one family per
    /// line; histograms include their full bucket vector).
    pub fn metrics_report_machine(&self) -> String {
        self.inner.metrics.report_machine()
    }

    /// Snapshot every metric family (mergeable across databases/engines).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Replace the metrics clock (microseconds, arbitrary monotonic
    /// origin), or restore the real clock with `None`. Tests install
    /// [`unikv_common::metrics::manual_step_clock`] to make latency
    /// histograms exactly reproducible.
    pub fn set_metrics_clock(&self, clock: Option<MetricsClock>) {
        self.inner.metrics.registry.set_clock(clock);
    }

    /// Zero every metric and clear the op trace; registered families
    /// remain enumerable.
    pub fn reset_metrics(&self) {
        self.inner.metrics.registry.reset();
    }
}

impl Drop for UniKv {
    fn drop(&mut self) {
        self.inner.maint.begin_shutdown();
        // Workers park in timed waits while jobs sit in backoff, so they
        // notice shutdown within one tick — but a worker wedged inside a
        // job (e.g. an env stuck in a syscall) must not hang the drop
        // forever. Join with a deadline and detach stragglers; a detached
        // worker exits on its own when its current job ends.
        let deadline =
            Instant::now() + Duration::from_millis(self.inner.opts.shutdown_join_timeout_ms);
        for handle in self.workers.drain(..) {
            while !handle.is_finished() && Instant::now() < deadline {
                // Re-notify: a worker that raced into a wait just before
                // the shutdown flag was set could otherwise miss a wakeup.
                self.inner.maint.begin_shutdown();
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
/// Check that the tiers a merge replaces still name the tables it read.
/// One job runs per partition and foreground structural operations pause
/// the workers, so nothing may change them between snapshot and install.
fn check_merge_inputs<'t>(
    tables: impl Iterator<Item = &'t TableMeta>,
    inputs: &[u64],
) -> Result<()> {
    if tables.map(|t| t.number).eq(inputs.iter().copied()) {
        Ok(())
    } else {
        Err(Error::internal(
            "merge inputs changed between snapshot and install",
        ))
    }
}

fn index_capacity(opts: &UniKvOptions) -> usize {
    (opts.unsorted_limit_bytes as usize / 64).max(256)
}

fn sweep_partition_dir(
    env: &dyn Env,
    dir: &Path,
    id: u32,
    pmeta: Option<&PartitionMeta>,
    inherited_refs: &HashSet<(u32, u64)>,
) -> Result<()> {
    let live_tables: HashSet<u64> = pmeta
        .map(|m| {
            m.unsorted
                .iter()
                .chain(&m.sorted)
                .map(|t| t.number)
                .collect()
        })
        .unwrap_or_default();
    let live_logs: HashSet<u64> = pmeta
        .map(|m| m.own_logs.iter().copied().collect())
        .unwrap_or_default();
    // Sealed WALs protect sealed-but-unflushed memtables; they are as
    // live as the active WAL until their flush commits.
    let live_wals: HashSet<u64> = pmeta
        .map(|m| {
            m.sealed_wals
                .iter()
                .copied()
                .chain([m.wal_number])
                .collect()
        })
        .unwrap_or_default();
    for name in env.list_dir(dir)? {
        let Some(s) = name.to_str() else { continue };
        if let Some(log) = parse_vlog_file_name(s) {
            let keep = live_logs.contains(&log) || inherited_refs.contains(&(id, log));
            if !keep {
                env.delete_file(&dir.join(name))?;
            }
            continue;
        }
        match filenames::parse_file_name(s) {
            Some(filenames::FileKind::Table(n)) if !live_tables.contains(&n) => {
                env.delete_file(&dir.join(name))?;
            }
            Some(filenames::FileKind::Wal(n)) if !live_wals.contains(&n) => {
                env.delete_file(&dir.join(name))?;
            }
            _ => {}
        }
    }
    Ok(())
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
    stats: &UniKvStats,
    metrics: &DbMetrics,
) -> Result<(Partition, Vec<PathBuf>)> {
    let dir = partition_dir(root, pmeta.id);
    env.create_dir_all(&dir)?;

    if opts.paranoid_checks {
        // Verify every file the manifest commits to before trusting the partition:
        // tables must exist at their recorded size with a parseable
        // footer + index, and every owned value log must exist. Data-block
        // and value checksums are verified on every read regardless.
        for tmeta in pmeta.unsorted.iter().chain(&pmeta.sorted) {
            let path = filenames::table_file(&dir, tmeta.number);
            if !env.file_exists(&path) {
                return Err(Error::corruption(format!(
                    "table missing: {}",
                    path.display()
                )));
            }
            let size = env.file_size(&path)?;
            if size != tmeta.size {
                return Err(Error::corruption(format!(
                    "table {} size {} != recorded {}",
                    path.display(),
                    size,
                    tmeta.size
                )));
            }
            Table::open(env.new_random_access(&path)?, size, topts.clone()).map_err(|e| {
                Error::corruption(format!("table {} unreadable: {e}", path.display()))
            })?;
        }
        for &n in &pmeta.own_logs {
            let path = dir.join(vlog_file_name(n));
            if !env.file_exists(&path) {
                return Err(Error::corruption(format!(
                    "value log missing: {}",
                    path.display()
                )));
            }
        }
    }

    let mut vlog = ValueLog::open(env.clone(), dir.clone(), pmeta.id, opts.max_log_size)?;
    vlog.set_metrics(metrics.vlog.clone());

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
    // the flush-on-open below re-persists everything, so the sealed list
    // is cleared afterwards.
    let mem = Arc::new(MemTable::new());
    let wal_path = filenames::wal_file(&dir, pmeta.wal_number);
    let mut stale_wals = Vec::new();
    let mut replayed = false;
    for (number, is_sealed) in pmeta
        .sealed_wals
        .iter()
        .map(|&n| (n, true))
        .chain([(pmeta.wal_number, false)])
    {
        let path = filenames::wal_file(&dir, number);
        if is_sealed {
            // Superseded regardless of content once this open commits.
            stale_wals.push(path.clone());
        }
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
                let slot = SeparatedValue::Inline(value).encode();
                mem.add(seq, t, &key, &slot);
                *last_seq = (*last_seq).max(seq);
                replayed = true;
            }
        }
        UniKvStats::add(&stats.wal_dropped_bytes, reader.dropped_bytes());
    }

    let mut meta = pmeta.clone();
    meta.sealed_wals.clear();
    let wal = if replayed {
        // The replayed WALs must survive on disk until the memtable is
        // flushed (UniKv::open flushes non-empty memtables immediately
        // after loading). Route new appends to a fresh WAL file; the old
        // ones are returned for deletion after the flush commits.
        stale_wals.push(wal_path.clone());
        let new_number = {
            *next_file += 1;
            *next_file - 1
        };
        meta.wal_number = new_number;
        LogWriter::new(env.new_writable(&filenames::wal_file(&dir, new_number))?)
            .with_metrics(metrics.wal.clone())
    } else {
        // Nothing buffered: recreating the (empty or absent) file is safe.
        LogWriter::new(env.new_writable(&wal_path)?).with_metrics(metrics.wal.clone())
    };

    Ok((
        Partition {
            meta,
            mem,
            imms: Vec::new(),
            wal,
            index,
            vlog: Arc::new(parking_lot::Mutex::new(vlog)),
            tables: parking_lot::Mutex::new(std::collections::HashMap::new()),
            unlogged: Vec::new(),
        },
        stale_wals,
    ))
}
