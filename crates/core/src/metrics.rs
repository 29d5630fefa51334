//! Database-level observability bundle: one [`MetricsRegistry`] per
//! database holding the standard engine families plus WAL, value-log,
//! and SSTable I/O counters from the subsystem crates. Every partition
//! records into the same registry, so snapshots are already "merged
//! across partitions"; [`unikv_common::metrics::MetricsSnapshot::merge`]
//! remains available for folding multiple databases (or engines) into
//! one report.

use crate::fetch::FetchMetrics;
use crate::options::UniKvOptions;
use std::sync::Arc;
use unikv_common::metrics::{Counter, EngineMetrics, Gauge, Histogram, MetricsRegistry};
use unikv_sstable::TableIoMetrics;
use unikv_vlog::VlogMetrics;
use unikv_wal::WalMetrics;

/// All metric handles a UniKV database records through.
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
    /// Scan fetch-pool dispatch counters (parallel vs inline batches).
    pub fetch: FetchMetrics,
    /// Batch-write latency (one sample per `write_batch` call; the ops
    /// inside a batch count into `writes`/`batch_ops`, not `put_latency`).
    pub batch_latency: Histogram,
    /// Operations applied through `write_batch`.
    pub batch_ops: Counter,
    /// Depth of the background maintenance queue.
    pub maint_queue_depth: Gauge,
}

impl DbMetrics {
    /// Build the registry and register every family. Disabled databases
    /// still register the families (names stay enumerable) but record
    /// nothing.
    pub fn new(opts: &UniKvOptions) -> DbMetrics {
        let registry = MetricsRegistry::new(opts.enable_metrics);
        DbMetrics {
            eng: EngineMetrics::new(&registry),
            wal: WalMetrics::new(&registry),
            vlog: VlogMetrics::new(&registry),
            table_io: TableIoMetrics::new(&registry),
            scan_vlog_fetches: registry.counter("scan_vlog_fetches"),
            fetch: FetchMetrics::new(&registry),
            batch_latency: registry.histogram("batch_latency_us"),
            batch_ops: registry.counter("batch_ops"),
            maint_queue_depth: registry.gauge("maint_queue_depth"),
            registry,
        }
    }
}
