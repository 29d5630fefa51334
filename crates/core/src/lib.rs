#![warn(missing_docs)]

//! # UniKV
//!
//! A persistent key-value store unifying hash indexing and LSM organization
//! — a from-scratch Rust reproduction of *"UniKV: Toward High-Performance
//! and Scalable KV Storage in Mixed Workloads via Unified Indexing"*
//! (ICDE 2020).
//!
//! ## Architecture
//!
//! Data is range-partitioned; each partition has a two-tier layout:
//!
//! * **UnsortedStore** — SSTables appended in flush order, indexed by an
//!   in-memory [two-level hash index](unikv_hashindex) for O(1) point
//!   lookups of recently written (hot) data. No Bloom filters anywhere.
//! * **SortedStore** — a single fully-sorted run with **partial KV
//!   separation**: keys+pointers in SSTables, values in append-only value
//!   logs, so merges move keys, not values.
//!
//! Scalability comes from **dynamic range partitioning**: a partition that
//! exceeds its size limit splits at the median key into two independent
//! partitions (values split lazily during GC), instead of deepening an LSM.
//!
//! ## Handle and engine
//!
//! [`UniKv::open`] returns the handle that owns the maintenance worker
//! threads. It derefs to [`Engine`], where the whole database API lives
//! (`put`, `get`, `scan`, `write_batch`, `metrics_snapshot`, `health`,
//! …), so every engine method is called straight on the handle. Any of
//! the ops can be profiled by running it in a
//! [`unikv_common::perf::profile`] scope.
//!
//! ## Quick start
//!
//! ```
//! use unikv::{UniKv, UniKvOptions};
//! use unikv_env::mem::MemEnv;
//!
//! let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::default()).unwrap();
//! db.put(b"city", b"hong kong").unwrap();
//! assert_eq!(db.get(b"city").unwrap(), Some(b"hong kong".to_vec()));
//! let items = db.scan(b"a", 10).unwrap();
//! assert_eq!(items.len(), 1);
//! ```

pub mod batch;
pub mod db;
pub mod fetch;
pub mod iter;
pub mod journal;
pub mod maintenance;
pub mod meta;
pub mod metrics;
pub mod options;
pub mod partition;
pub mod resolver;
pub mod router;
pub mod verify;

pub use batch::WriteBatch;
pub use db::{Engine, UniKv};
pub use iter::UniKvIterator;
pub use journal::{read_events, EventJournal, EVENTS_FILE, EVENTS_OLD_FILE};
pub use maintenance::{
    backoff_delay_ms, HealthReport, HealthState, Job, JobKind, MaintClock, QuarantinedJob,
    SyncPointHook, SyncPoints, SYNC_POINTS,
};
pub use metrics::DbMetrics;
pub use options::UniKvOptions;
pub use router::{SizeRouter, SizeRouterOptions};
pub use unikv_common::events::{
    causal_chain, Event, EventBus, EventKind, EventListener, Listeners,
};
pub use unikv_common::metrics::{
    manual_step_clock, MetricsClock, MetricsRegistry, MetricsSnapshot, TraceOp, TraceOutcome,
};
pub use unikv_common::perf::{PerfContext, PerfStage, PERF_STAGE_COUNT};
pub use unikv_lsm::db::ScanItem;
pub use verify::{verify_db, FileDamage, LiveBytesMismatch, StrayPointers, VerifyReport};
