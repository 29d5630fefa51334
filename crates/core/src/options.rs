//! UniKV tuning knobs, including the ablation switches for experiment E7–E10.

/// Configuration for a [`crate::UniKv`] instance.
///
/// Defaults are scaled from the paper's server configuration to laptop
/// scale (see DESIGN.md §6); every threshold keeps the same *ratio* to the
/// write buffer, so flush/merge/GC/split frequency per operation matches.
#[derive(Debug, Clone)]
pub struct UniKvOptions {
    /// Memtable size that triggers a flush into the UnsortedStore.
    pub write_buffer_size: usize,
    /// Target SSTable size for SortedStore output.
    pub table_size: usize,
    /// Data-block size of SortedStore tables (paper: 4 KiB). The tables
    /// the hash index points into (UnsortedStore flush and scan-merge
    /// outputs) use a quarter of it, so a hash probe reads a
    /// point-read-sized block.
    pub block_size: usize,
    /// UnsortedStore byte budget; reaching it triggers a merge into the
    /// SortedStore (`UnsortedLimit`).
    pub unsorted_limit_bytes: u64,
    /// Number of UnsortedStore tables at which a scan or iterator that
    /// reads the partition triggers the size-based merge
    /// (`scanMergeLimit`), which collapses them into one table so later
    /// scans merge fewer runs. A flush never triggers it: a partition no
    /// scan reads is left to the full merge (in background mode, also to
    /// the `slowdown_unsorted_tables` backstop). At least 2: a lone table
    /// has nothing to merge with.
    pub scan_merge_limit: usize,
    /// Partition size (SortedStore keys + live values) that triggers a
    /// range split (`partitionSizeLimit`).
    pub partition_size_limit: u64,
    /// Value-log file rotation size (GC granularity).
    pub max_log_size: u64,
    /// Run GC after a merge when dead log bytes exceed this fraction of
    /// total log bytes.
    pub gc_garbage_ratio: f64,
    /// Minimum log bytes before GC is considered at all.
    pub gc_min_bytes: u64,
    /// Candidate hash functions in the two-level index (`n`).
    pub num_hashes: usize,
    /// Block-cache capacity in bytes (0 disables).
    pub block_cache_bytes: usize,
    /// fsync the WAL on every write.
    pub sync_writes: bool,
    /// Verify the database aggressively: at open, every manifest-committed
    /// table must exist at its recorded size with a readable footer and
    /// index, every owned/inherited value log must exist, and WAL replay
    /// fails with `Error::Corruption` on mid-log damage (a torn *tail* is
    /// still truncated — that is what a crash legitimately leaves behind).
    /// Block, value, and manifest checksums are verified on every read
    /// regardless of this flag; corruption found anywhere is surfaced as
    /// a typed `Error::Corruption`, never served.
    pub paranoid_checks: bool,

    // ---- Background maintenance & backpressure ----
    /// Worker threads for background flush/merge/GC/split. `0` (the
    /// default) keeps the paper-faithful deterministic mode: every
    /// structural operation runs inline under the write that triggered
    /// it, and a seeded workload leaves the same files on every build.
    pub background_jobs: usize,
    /// Sealed-memtable count at which writes are briefly slowed
    /// (backpressure lets flushes catch up).
    pub slowdown_sealed_memtables: usize,
    /// Sealed-memtable count at which writes hard-stop until a flush
    /// completes.
    pub stop_sealed_memtables: usize,
    /// UnsortedStore table count at which writes are briefly slowed
    /// (merge backlog building up).
    pub slowdown_unsorted_tables: usize,
    /// UnsortedStore table count at which writes hard-stop until a merge
    /// completes.
    pub stop_unsorted_tables: usize,
    /// Duration of one slowdown pause, in microseconds.
    pub stall_sleep_micros: u64,

    // ---- Graceful degradation (retry/backoff/quarantine) ----
    /// Base backoff before the first retry of a transiently-failed
    /// maintenance job, in milliseconds. Subsequent retries double it
    /// (with deterministic jitter) up to `maint_retry_max_ms`.
    pub maint_retry_base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub maint_retry_max_ms: u64,
    /// Transient failures tolerated per job before it is quarantined.
    pub maint_retry_budget: u32,
    /// Interval between probes of a quarantined job, in milliseconds
    /// (each probe re-runs the job once in case the condition cleared).
    pub maint_quarantine_probe_ms: u64,
    /// Seed for the deterministic backoff jitter; pin it to reproduce an
    /// exact retry schedule.
    pub maint_retry_jitter_seed: u64,
    /// Upper bound on waiting for worker threads to exit when the
    /// database handle drops, in milliseconds. Workers past the deadline
    /// are detached (they exit on their own once their current job ends).
    pub shutdown_join_timeout_ms: u64,

    // ---- Observability ----
    /// Record metrics (latency histograms, tier-resolution counters,
    /// subsystem I/O counters) and trace events. When `false`, every
    /// record path is one relaxed atomic load and nothing is allocated.
    pub enable_metrics: bool,
    /// Capacity of the in-memory op-trace ring (`0` disables tracing;
    /// oldest events are dropped once full).
    pub metrics_trace_events: usize,
    /// Persist lifecycle events (seal/flush/merge/GC/split, stalls,
    /// health transitions, WAL retirement — each with a causal `cause`
    /// link) to a JSON-lines `EVENTS` journal under the database root.
    /// Off by default: with no journal and no listeners the event path
    /// is a single atomic increment per structural op.
    pub enable_event_journal: bool,
    /// Rotate the `EVENTS` journal to `EVENTS.old` once the live file
    /// exceeds this many bytes (sequence numbers stay monotonic).
    pub event_journal_max_bytes: u64,
    /// Listeners invoked synchronously for every lifecycle event (the
    /// journal is one). Contract: fast, no re-entrant database calls;
    /// panics are caught and counted, never propagated.
    pub listeners: unikv_common::events::Listeners,

    // ---- Ablation switches (experiments E7–E10) ----
    /// E7: disable the hash index; UnsortedStore lookups scan tables
    /// newest-first instead.
    pub enable_hash_index: bool,
    /// E8: disable partial KV separation; merges rewrite values into the
    /// SortedStore tables.
    pub enable_kv_separation: bool,
    /// E9: disable dynamic range partitioning; the single partition's
    /// SortedStore grows without bound.
    pub enable_partitioning: bool,
    /// E10: disable scan optimizations (the size-based merge, whichever
    /// scan, iterator or backstop would trigger it, and value fetch by
    /// runs of back-to-back records).
    pub enable_scan_optimization: bool,
}

impl Default for UniKvOptions {
    fn default() -> Self {
        let write_buffer_size = 1 << 20;
        UniKvOptions {
            write_buffer_size,
            table_size: 1 << 20,
            block_size: 4096,
            unsorted_limit_bytes: 8 * write_buffer_size as u64,
            scan_merge_limit: 4,
            partition_size_limit: 64 << 20,
            max_log_size: 4 << 20,
            gc_garbage_ratio: 0.5,
            gc_min_bytes: 4 << 20,
            num_hashes: 2,
            block_cache_bytes: 8 << 20,
            sync_writes: false,
            paranoid_checks: false,
            background_jobs: 0,
            slowdown_sealed_memtables: 2,
            stop_sealed_memtables: 4,
            slowdown_unsorted_tables: 8,
            stop_unsorted_tables: 12,
            stall_sleep_micros: 1000,
            maint_retry_base_ms: 25,
            maint_retry_max_ms: 2000,
            maint_retry_budget: 5,
            maint_quarantine_probe_ms: 10_000,
            maint_retry_jitter_seed: 0x5eed_u64,
            shutdown_join_timeout_ms: 5000,
            enable_metrics: true,
            metrics_trace_events: 1024,
            enable_event_journal: false,
            event_journal_max_bytes: 4 << 20,
            listeners: unikv_common::events::Listeners::default(),
            enable_hash_index: true,
            enable_kv_separation: true,
            enable_partitioning: true,
            enable_scan_optimization: true,
        }
    }
}

impl UniKvOptions {
    /// A configuration for small hermetic tests: tiny buffers so flushes,
    /// merges, GC, and splits all fire within a few hundred operations.
    pub fn small_for_tests() -> Self {
        let write_buffer_size = 4 << 10;
        UniKvOptions {
            write_buffer_size,
            table_size: 8 << 10,
            unsorted_limit_bytes: 4 * write_buffer_size as u64,
            scan_merge_limit: 3,
            partition_size_limit: 96 << 10,
            max_log_size: 16 << 10,
            gc_min_bytes: 16 << 10,
            block_cache_bytes: 256 << 10,
            maint_retry_base_ms: 2,
            maint_retry_max_ms: 40,
            maint_quarantine_probe_ms: 100,
            ..Default::default()
        }
    }

    /// Validate invariants between knobs.
    pub fn validate(&self) -> unikv_common::Result<()> {
        if self.write_buffer_size == 0 || self.table_size == 0 {
            return Err(unikv_common::Error::invalid_argument(
                "buffer and table sizes must be positive",
            ));
        }
        if self.unsorted_limit_bytes < self.write_buffer_size as u64 {
            return Err(unikv_common::Error::invalid_argument(
                "unsorted_limit_bytes must cover at least one flush",
            ));
        }
        if self.scan_merge_limit < 2 {
            return Err(unikv_common::Error::invalid_argument(
                "scan_merge_limit must be at least 2",
            ));
        }
        if self.num_hashes == 0 || self.num_hashes > unikv_common::hash::FAMILY.len() {
            return Err(unikv_common::Error::invalid_argument(
                "num_hashes out of range",
            ));
        }
        if !(0.0..=1.0).contains(&self.gc_garbage_ratio) {
            return Err(unikv_common::Error::invalid_argument(
                "gc_garbage_ratio must be within [0, 1]",
            ));
        }
        if self.slowdown_sealed_memtables == 0
            || self.slowdown_unsorted_tables == 0
            || self.stop_sealed_memtables < self.slowdown_sealed_memtables
            || self.stop_unsorted_tables < self.slowdown_unsorted_tables
        {
            return Err(unikv_common::Error::invalid_argument(
                "stall thresholds must satisfy stop >= slowdown >= 1",
            ));
        }
        if self.maint_retry_base_ms == 0 || self.maint_retry_max_ms < self.maint_retry_base_ms {
            return Err(unikv_common::Error::invalid_argument(
                "maintenance backoff must satisfy max >= base >= 1ms",
            ));
        }
        if self.maint_quarantine_probe_ms == 0 {
            return Err(unikv_common::Error::invalid_argument(
                "maint_quarantine_probe_ms must be positive",
            ));
        }
        if self.enable_event_journal && self.event_journal_max_bytes < 1024 {
            return Err(unikv_common::Error::invalid_argument(
                "event_journal_max_bytes must be at least 1 KiB",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        UniKvOptions::default().validate().unwrap();
        UniKvOptions::small_for_tests().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = [
            UniKvOptions {
                unsorted_limit_bytes: 1,
                ..Default::default()
            },
            UniKvOptions {
                scan_merge_limit: 1,
                ..Default::default()
            },
            UniKvOptions {
                num_hashes: 9,
                ..Default::default()
            },
            UniKvOptions {
                gc_garbage_ratio: 1.5,
                ..Default::default()
            },
            UniKvOptions {
                stop_sealed_memtables: 1,
                slowdown_sealed_memtables: 3,
                ..Default::default()
            },
            UniKvOptions {
                slowdown_unsorted_tables: 0,
                ..Default::default()
            },
            UniKvOptions {
                maint_retry_base_ms: 0,
                ..Default::default()
            },
            UniKvOptions {
                maint_retry_base_ms: 100,
                maint_retry_max_ms: 50,
                ..Default::default()
            },
            UniKvOptions {
                maint_quarantine_probe_ms: 0,
                ..Default::default()
            },
            UniKvOptions {
                enable_event_journal: true,
                event_journal_max_bytes: 100,
                ..Default::default()
            },
        ];
        for o in bad {
            assert!(o.validate().is_err(), "accepted invalid config: {o:?}");
        }
    }
}
