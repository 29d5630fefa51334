//! Database-level observability bundle: one [`MetricsRegistry`] per
//! database holding the standard engine families, UniKV's own work
//! counters, and WAL, value-log, and SSTable I/O counters from the
//! subsystem crates. Every partition records into the same registry, so
//! snapshots are already "merged across partitions";
//! [`unikv_common::metrics::MetricsSnapshot::merge`] remains available
//! for folding multiple databases (or engines) into one report.

use crate::options::UniKvOptions;
use std::sync::Arc;
use unikv_common::metrics::{Counter, EngineMetrics, Gauge, Histogram, MetricsRegistry};
use unikv_sstable::TableIoMetrics;
use unikv_vlog::VlogMetrics;
use unikv_wal::WalMetrics;

/// All metric handles a UniKV database records through (the maintenance
/// scheduler registers its own job and health counters). Each counter is
/// the family of the same name.
#[derive(Clone)]
pub struct DbMetrics {
    /// The registry every handle below records into.
    pub registry: Arc<MetricsRegistry>,
    /// Standard cross-engine families (latencies, tier counters).
    pub eng: EngineMetrics,
    /// WAL record/sync counters (shared by every partition's log).
    pub wal: WalMetrics,
    /// Value-log append/rotation counters.
    pub vlog: VlogMetrics,
    /// SSTable block-read and cache hit/miss counters.
    pub table_io: TableIoMetrics,
    /// Values fetched from value logs during scans (pointer jobs).
    pub scan_vlog_fetches: Counter,
    /// Batch-write latency (one sample per `write_batch` call; the ops
    /// inside a batch count into `writes`/`batch_ops`, not `put_latency`).
    pub batch_latency: Histogram,
    /// Operations applied through `write_batch`.
    pub batch_ops: Counter,
    /// Depth of the background maintenance queue.
    pub maint_queue_depth: Gauge,
    /// Bytes of user data accepted by writes (key + value).
    pub user_bytes_written: Counter,
    /// Bytes written by memtable flushes.
    pub bytes_flushed: Counter,
    /// Bytes read by UnsortedStore→SortedStore merges.
    pub merge_bytes_read: Counter,
    /// Bytes written by merges (tables + newly separated values).
    pub merge_bytes_written: Counter,
    /// Bytes rewritten by GC (values + tables).
    pub gc_bytes_written: Counter,
    /// Bytes written while splitting partitions.
    pub split_bytes_written: Counter,
    /// Memtable flushes.
    pub flushes: Counter,
    /// Full merges.
    pub merges: Counter,
    /// GC passes.
    pub gcs: Counter,
    /// Partition splits.
    pub splits: Counter,
    /// SSTables consulted across all point lookups.
    pub tables_checked: Counter,
    /// Gets answered by a memtable.
    pub memtable_hits: Counter,
    /// Hash-index candidates that failed key verification.
    pub index_false_positives: Counter,
    /// Microseconds foreground writes spent stalled (slowdowns + stops).
    pub stall_time_micros: Counter,
    /// Writes that hit the slowdown threshold.
    pub stall_slowdowns: Counter,
    /// Writes that hit the hard-stop threshold.
    pub stall_stops: Counter,
    /// Checksum/structure failures a read surfaced as `Error::Corruption`
    /// instead of serving garbage.
    pub corruptions_detected: Counter,
    /// Non-corruption I/O errors surfaced by read paths.
    pub read_io_errors: Counter,
    /// WAL bytes dropped as torn tails during recovery replay.
    pub wal_dropped_bytes: Counter,
}

impl DbMetrics {
    /// Build the registry and register every family. Disabled databases
    /// still register the families (names stay enumerable) but record
    /// nothing.
    pub fn new(opts: &UniKvOptions) -> DbMetrics {
        let registry = MetricsRegistry::new(opts.enable_metrics);
        let c = |name: &str| registry.counter(name);
        DbMetrics {
            eng: EngineMetrics::new(&registry),
            wal: WalMetrics::new(&registry),
            vlog: VlogMetrics::new(&registry),
            table_io: TableIoMetrics::new(&registry),
            scan_vlog_fetches: c("scan_vlog_fetches"),
            batch_latency: registry.histogram("batch_latency_us"),
            batch_ops: c("batch_ops"),
            maint_queue_depth: registry.gauge("maint_queue_depth"),
            user_bytes_written: c("user_bytes_written"),
            bytes_flushed: c("bytes_flushed"),
            merge_bytes_read: c("merge_bytes_read"),
            merge_bytes_written: c("merge_bytes_written"),
            gc_bytes_written: c("gc_bytes_written"),
            split_bytes_written: c("split_bytes_written"),
            flushes: c("flushes"),
            merges: c("merges"),
            gcs: c("gcs"),
            splits: c("splits"),
            tables_checked: c("tables_checked"),
            memtable_hits: c("memtable_hits"),
            index_false_positives: c("index_false_positives"),
            stall_time_micros: c("stall_time_micros"),
            stall_slowdowns: c("stall_slowdowns"),
            stall_stops: c("stall_stops"),
            corruptions_detected: c("corruptions_detected"),
            read_io_errors: c("read_io_errors"),
            wal_dropped_bytes: c("wal_dropped_bytes"),
            registry,
        }
    }
}
