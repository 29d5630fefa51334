//! Opt-in, thread-local per-operation performance profiling.
//!
//! Aggregate histograms (see [`crate::metrics`]) answer *how much*; this
//! module answers *why was this one operation slow*. A profiled operation
//! activates a thread-local profiler for its duration; instrumented code
//! throughout the workspace ([`mark`] / count hooks in the core read and
//! write paths, the SSTable reader, the value log, and the WAL) attributes
//! wall time and I/O counts to named stages. The result is a
//! [`PerfContext`]: per-stage microseconds and hit counts plus probe/IO
//! counters for one operation.
//!
//! Two properties are load-bearing:
//!
//! * **Zero cost when inactive.** Every hook first reads one thread-local
//!   flag and returns; no clock read, no allocation. An unprofiled run is
//!   byte-identical to a build without the hooks.
//! * **Exact accounting under the injectable clock.** Profiling is
//!   *mark-based*: [`begin_at`] receives the operation's own start
//!   reading, each [`mark`] reads the clock once and charges the elapsed
//!   time since the previous mark to its stage, and [`finish_at`] receives
//!   the operation's end reading, charging the residual to
//!   [`PerfStage::Other`]. Stage sums therefore equal `t1 - t0` — the
//!   exact duration the operation's latency histogram records — even
//!   under [`crate::metrics::manual_step_clock`], where every clock
//!   reading advances time.

use crate::metrics::MetricsRegistry;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Stages a profiled operation's time is attributed to. Shared by every
/// engine in the workspace so cross-engine breakdowns are comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerfStage {
    /// Routing the key to its range partition.
    Router,
    /// Waiting in a write stall (slowdown sleep or stop wait).
    StallWait,
    /// Appending the record to the write-ahead log.
    WalAppend,
    /// Waiting for a WAL sync to reach stable storage.
    WalSync,
    /// Memtable insert (writes) or memtable-chain lookup (reads).
    Memtable,
    /// Probing the UnsortedStore two-level hash index.
    IndexProbe,
    /// Binary search over SortedStore boundary keys.
    BoundarySearch,
    /// SSTable block reads (including block-cache hits).
    BlockRead,
    /// Fetching a separated value from the value log.
    VlogFetch,
    /// Anything not covered by a named stage (residual).
    Other,
}

/// Number of profiling stages.
pub const PERF_STAGE_COUNT: usize = 10;

impl PerfStage {
    /// Every stage, in display order.
    pub const ALL: [PerfStage; PERF_STAGE_COUNT] = [
        PerfStage::Router,
        PerfStage::StallWait,
        PerfStage::WalAppend,
        PerfStage::WalSync,
        PerfStage::Memtable,
        PerfStage::IndexProbe,
        PerfStage::BoundarySearch,
        PerfStage::BlockRead,
        PerfStage::VlogFetch,
        PerfStage::Other,
    ];

    /// Stable snake_case stage name (used in breakdown tables and CI
    /// completeness checks).
    pub fn name(self) -> &'static str {
        match self {
            PerfStage::Router => "router",
            PerfStage::StallWait => "stall_wait",
            PerfStage::WalAppend => "wal_append",
            PerfStage::WalSync => "wal_sync",
            PerfStage::Memtable => "memtable",
            PerfStage::IndexProbe => "index_probe",
            PerfStage::BoundarySearch => "boundary_search",
            PerfStage::BlockRead => "block_read",
            PerfStage::VlogFetch => "vlog_fetch",
            PerfStage::Other => "other",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Per-operation profile: stage timings plus probe/IO counts. Merges
/// additively, so a sampler can fold many profiled ops into one summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PerfContext {
    /// Microseconds attributed to each stage (indexed by `PerfStage`).
    pub stage_micros: [u64; PERF_STAGE_COUNT],
    /// Number of times each stage was marked.
    pub stage_hits: [u64; PERF_STAGE_COUNT],
    /// UnsortedStore hash-index candidate tables probed.
    pub hash_probes: u64,
    /// SSTable blocks read (cache hits + misses), plus single records read
    /// through a table's record directory (`record_reads`).
    pub block_reads: u64,
    /// Block-cache hits.
    pub cache_hits: u64,
    /// Block-cache misses.
    pub cache_misses: u64,
    /// Single records read through a record directory: counted in
    /// `block_reads`, never as a cache hit or miss.
    pub record_reads: u64,
    /// Values fetched from a value log.
    pub vlog_fetches: u64,
    /// Total operation wall time (`t1 - t0`; equals the stage sum).
    pub total_micros: u64,
    /// Operations folded into this context (1 for a single op).
    pub ops: u64,
}

impl PerfContext {
    /// Microseconds for one stage.
    pub fn stage(&self, stage: PerfStage) -> u64 {
        self.stage_micros[stage.idx()]
    }

    /// Sum of all stage timings (always equals `total_micros`).
    pub fn stage_sum(&self) -> u64 {
        self.stage_micros.iter().sum()
    }

    /// Fold `other` into `self` (all fields add).
    pub fn merge(&mut self, other: &PerfContext) {
        for i in 0..PERF_STAGE_COUNT {
            self.stage_micros[i] += other.stage_micros[i];
            self.stage_hits[i] += other.stage_hits[i];
        }
        self.hash_probes += other.hash_probes;
        self.block_reads += other.block_reads;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.record_reads += other.record_reads;
        self.vlog_fetches += other.vlog_fetches;
        self.total_micros += other.total_micros;
        self.ops += other.ops;
    }

    /// Human-readable per-stage breakdown. Every declared stage appears,
    /// even when zero — CI completeness checks rely on this.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<16} {:>8} {:>12} {:>10}\n",
            "stage", "hits", "total_us", "avg_us"
        ));
        for stage in PerfStage::ALL {
            let us = self.stage_micros[stage.idx()];
            let hits = self.stage_hits[stage.idx()];
            let avg = if hits == 0 {
                0.0
            } else {
                us as f64 / hits as f64
            };
            out.push_str(&format!(
                "  {:<16} {:>8} {:>12} {:>10.1}\n",
                stage.name(),
                hits,
                us,
                avg
            ));
        }
        out.push_str(&format!(
            "  ops={} total_us={} hash_probes={} block_reads={} cache_hits={} cache_misses={} record_reads={} vlog_fetches={}\n",
            self.ops,
            self.total_micros,
            self.hash_probes,
            self.block_reads,
            self.cache_hits,
            self.cache_misses,
            self.record_reads,
            self.vlog_fetches
        ));
        out
    }
}

struct ProfilerState {
    registry: Arc<MetricsRegistry>,
    ctx: PerfContext,
    start: u64,
    last: u64,
}

thread_local! {
    // Fast flag checked by every hook; the boxed state is only touched
    // while a profiled operation is in flight on this thread.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<Option<ProfilerState>> = const { RefCell::new(None) };
}

/// True while a profiled operation is in flight on this thread.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Activate profiling for the current operation. `t0` is the clock
/// reading the operation already took for its latency histogram; no
/// extra clock read happens here. Must be paired with [`finish_at`].
pub fn begin_at(registry: Arc<MetricsRegistry>, t0: u64) {
    STATE.with(|s| {
        *s.borrow_mut() = Some(ProfilerState {
            registry,
            ctx: PerfContext {
                ops: 1,
                ..PerfContext::default()
            },
            start: t0,
            last: t0,
        });
    });
    ACTIVE.with(|a| a.set(true));
}

/// Charge the time since the previous mark to `stage` (one clock read).
/// No-op — and no clock read — when no profiled op is in flight.
#[inline]
pub fn mark(stage: PerfStage) {
    if !is_active() {
        return;
    }
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            let now = st.registry.now_micros();
            st.ctx.stage_micros[stage.idx()] += now.saturating_sub(st.last);
            st.ctx.stage_hits[stage.idx()] += 1;
            st.last = now;
        }
    });
}

#[inline]
fn with_ctx(f: impl FnOnce(&mut PerfContext)) {
    if !is_active() {
        return;
    }
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            f(&mut st.ctx);
        }
    });
}

/// Count hash-index candidates probed (no clock read).
#[inline]
pub fn count_hash_probes(n: u64) {
    with_ctx(|c| c.hash_probes += n);
}

/// Count one SSTable block read served from the block cache.
#[inline]
pub fn count_cache_hit() {
    with_ctx(|c| {
        c.block_reads += 1;
        c.cache_hits += 1;
    });
}

/// Count one SSTable block read that missed the cache (or ran uncached).
#[inline]
pub fn count_cache_miss() {
    with_ctx(|c| {
        c.block_reads += 1;
        c.cache_misses += 1;
    });
}

/// Count one SSTable record read on its own through a record directory.
#[inline]
pub fn count_record_read() {
    with_ctx(|c| {
        c.block_reads += 1;
        c.record_reads += 1;
    });
}

/// Count one value fetched from a value log.
#[inline]
pub fn count_vlog_fetch() {
    with_ctx(|c| c.vlog_fetches += 1);
}

/// Deactivate profiling without producing a context. Error paths call
/// this instead of [`finish_at`] so a failed profiled operation cannot
/// leave a stale profiler armed on the thread.
pub fn cancel() {
    ACTIVE.with(|a| a.set(false));
    STATE.with(|s| {
        s.borrow_mut().take();
    });
}

/// Deactivate profiling and return the finished profile. `t1` is the
/// clock reading the operation already took for its latency histogram;
/// the residual since the last mark is charged to [`PerfStage::Other`],
/// so `total_micros == stage_sum() == t1 - t0` exactly.
pub fn finish_at(t1: u64) -> PerfContext {
    ACTIVE.with(|a| a.set(false));
    STATE.with(|s| match s.borrow_mut().take() {
        Some(st) => {
            let mut ctx = st.ctx;
            let residual = t1.saturating_sub(st.last);
            ctx.stage_micros[PerfStage::Other.idx()] += residual;
            ctx.stage_hits[PerfStage::Other.idx()] += 1;
            ctx.total_micros = t1.saturating_sub(st.start);
            ctx
        }
        None => PerfContext::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::manual_step_clock;

    #[test]
    fn inactive_hooks_are_noops() {
        assert!(!is_active());
        mark(PerfStage::Router);
        count_hash_probes(3);
        count_cache_hit();
        count_cache_miss();
        count_vlog_fetch();
        // finish without begin yields an empty context.
        assert_eq!(finish_at(100), PerfContext::default());
    }

    #[test]
    fn stage_sums_equal_total_under_manual_clock() {
        let reg = MetricsRegistry::new(true, 0);
        reg.set_clock(Some(manual_step_clock(5)));
        let t0 = reg.now_micros(); // 5
        begin_at(reg.clone(), t0);
        assert!(is_active());
        mark(PerfStage::Router); // 10 -> router = 5
        mark(PerfStage::Memtable); // 15 -> memtable = 5
        count_hash_probes(2);
        mark(PerfStage::BlockRead); // 20 -> block_read = 5
        let t1 = reg.now_micros(); // 25
        let ctx = finish_at(t1);
        assert!(!is_active());
        assert_eq!(ctx.total_micros, 20);
        assert_eq!(ctx.stage_sum(), ctx.total_micros);
        assert_eq!(ctx.stage(PerfStage::Router), 5);
        assert_eq!(ctx.stage(PerfStage::Memtable), 5);
        assert_eq!(ctx.stage(PerfStage::BlockRead), 5);
        assert_eq!(ctx.stage(PerfStage::Other), 5);
        assert_eq!(ctx.hash_probes, 2);
        assert_eq!(ctx.ops, 1);
    }

    #[test]
    fn merge_adds_everything_and_table_lists_all_stages() {
        let reg = MetricsRegistry::new(true, 0);
        reg.set_clock(Some(manual_step_clock(1)));
        let t0 = reg.now_micros();
        begin_at(reg.clone(), t0);
        mark(PerfStage::WalAppend);
        count_cache_hit();
        let a = finish_at(reg.now_micros());
        let t0 = reg.now_micros();
        begin_at(reg.clone(), t0);
        mark(PerfStage::WalSync);
        count_cache_miss();
        count_vlog_fetch();
        let mut b = finish_at(reg.now_micros());
        b.merge(&a);
        assert_eq!(b.ops, 2);
        assert_eq!(b.block_reads, 2);
        assert_eq!(b.cache_hits, 1);
        assert_eq!(b.cache_misses, 1);
        assert_eq!(b.vlog_fetches, 1);
        assert_eq!(b.total_micros, a.total_micros + 2);
        assert_eq!(b.stage_sum(), b.total_micros);
        let table = b.render_table();
        for stage in PerfStage::ALL {
            assert!(table.contains(stage.name()), "missing {}", stage.name());
        }
    }
}
