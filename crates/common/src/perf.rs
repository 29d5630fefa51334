//! Opt-in, thread-local per-operation performance profiling.
//!
//! Aggregate histograms (see [`crate::metrics`]) answer *how much*; this
//! module answers *why was this one operation slow*. [`profile`] opens a
//! scope on the calling thread and runs a closure in it; every engine op
//! that runs inside the scope is profiled. Instrumented code throughout
//! the workspace ([`mark`] / count hooks in the core read and write paths,
//! the SSTable reader, the value log, and the WAL) attributes wall time
//! and I/O counts to named stages. The result is a [`PerfContext`]:
//! per-stage microseconds and hit counts plus probe/IO counters.
//!
//! ```
//! use unikv_common::perf;
//! // No engine op ran inside the scope, so the profile is empty.
//! let (n, ctx) = perf::profile(|| 6 * 7);
//! assert_eq!((n, ctx), (42, perf::PerfContext::default()));
//! ```
//!
//! Two properties are load-bearing:
//!
//! * **Zero cost outside a scope.** Every hook, [`begin_at`] and
//!   [`finish_at`] first read one thread-local flag and return; no clock
//!   read, no allocation. An unprofiled op behaves exactly as a build
//!   without the hooks.
//! * **Exact accounting under the injectable clock.** Profiling is
//!   *mark-based*: an op passes the two clock readings it already takes
//!   for its latency histogram to [`begin_at`] and [`finish_at`]; each
//!   [`mark`] in between reads the clock once and charges the elapsed
//!   time since the previous mark to its stage, and [`finish_at`] charges
//!   the residual to [`PerfStage::Other`]. Stage sums therefore equal
//!   `t1 - t0` — the exact duration the op's latency histogram records —
//!   even under [`crate::metrics::manual_step_clock`], where every clock
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

/// What the thread's profiler is doing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No scope is open: every entry point returns at once.
    Idle,
    /// A scope is open and no op is in flight.
    Open,
    /// A scope is open and an op is in flight: the hooks record.
    Active,
}

/// The op in flight inside a scope.
struct OpState {
    registry: Arc<MetricsRegistry>,
    ctx: PerfContext,
    start: u64,
    last: u64,
}

/// An open scope: the folded profiles of the ops finished in it, and the
/// op in flight, if any.
#[derive(Default)]
struct Scope {
    done: PerfContext,
    op: Option<OpState>,
}

thread_local! {
    // Fast flag checked by every entry point; the scope itself is only
    // touched while one is open on this thread.
    static PHASE: Cell<Phase> = const { Cell::new(Phase::Idle) };
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

#[inline]
fn phase() -> Phase {
    PHASE.with(|p| p.get())
}

/// Run `op` in a profiling scope on this thread and return its result
/// with the profile of every engine op that finished inside it (merged
/// when there are several; `PerfContext::default()` when there are
/// none). The scope closes when `op` returns or unwinds, so an engine op
/// that failed before finishing leaves nothing armed on the thread. A
/// nested scope collects its own ops and then restores the enclosing one.
pub fn profile<T>(op: impl FnOnce() -> T) -> (T, PerfContext) {
    /// Puts back the enclosing scope (or none) when the scope ends.
    struct Restore {
        phase: Phase,
        scope: Option<Scope>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.with(|s| *s.borrow_mut() = self.scope.take());
            PHASE.with(|p| p.set(self.phase));
        }
    }
    let restore = Restore {
        phase: PHASE.with(|p| p.replace(Phase::Open)),
        scope: SCOPE.with(|s| s.borrow_mut().replace(Scope::default())),
    };
    let out = op();
    let ctx = SCOPE
        .with(|s| s.borrow_mut().take())
        .map_or_else(PerfContext::default, |s| s.done);
    drop(restore);
    (out, ctx)
}

/// Start profiling an engine op if a scope is open on this thread. `t0`
/// is the clock reading the op already took for its latency histogram;
/// no extra clock read happens here. An op still in flight (one that
/// failed before [`finish_at`]) is dropped: one op is profiled at a time.
#[inline]
pub fn begin_at(registry: &Arc<MetricsRegistry>, t0: u64) {
    if phase() == Phase::Idle {
        return;
    }
    SCOPE.with(|s| {
        if let Some(scope) = s.borrow_mut().as_mut() {
            scope.op = Some(OpState {
                registry: registry.clone(),
                ctx: PerfContext {
                    ops: 1,
                    ..PerfContext::default()
                },
                start: t0,
                last: t0,
            });
        }
    });
    PHASE.with(|p| p.set(Phase::Active));
}

#[inline]
fn with_op(f: impl FnOnce(&mut OpState)) {
    if phase() != Phase::Active {
        return;
    }
    SCOPE.with(|s| {
        if let Some(op) = s.borrow_mut().as_mut().and_then(|scope| scope.op.as_mut()) {
            f(op);
        }
    });
}

/// Charge the time since the previous mark to `stage` (one clock read).
/// No-op — and no clock read — when no profiled op is in flight.
#[inline]
pub fn mark(stage: PerfStage) {
    with_op(|op| {
        let now = op.registry.now_micros();
        op.ctx.stage_micros[stage.idx()] += now.saturating_sub(op.last);
        op.ctx.stage_hits[stage.idx()] += 1;
        op.last = now;
    });
}

/// Count hash-index candidates probed (no clock read).
#[inline]
pub fn count_hash_probes(n: u64) {
    with_op(|op| op.ctx.hash_probes += n);
}

/// Count one SSTable block read served from the block cache.
#[inline]
pub fn count_cache_hit() {
    with_op(|op| {
        op.ctx.block_reads += 1;
        op.ctx.cache_hits += 1;
    });
}

/// Count one SSTable block read that missed the cache (or ran uncached).
#[inline]
pub fn count_cache_miss() {
    with_op(|op| {
        op.ctx.block_reads += 1;
        op.ctx.cache_misses += 1;
    });
}

/// Count one SSTable record read on its own through a record directory.
#[inline]
pub fn count_record_read() {
    with_op(|op| {
        op.ctx.block_reads += 1;
        op.ctx.record_reads += 1;
    });
}

/// Count one value fetched from a value log.
#[inline]
pub fn count_vlog_fetch() {
    with_op(|op| op.ctx.vlog_fetches += 1);
}

/// Finish the op in flight, if any, and fold its profile into the scope.
/// `t1` is the clock reading the op already took for its latency
/// histogram; the residual since the last mark is charged to
/// [`PerfStage::Other`], so `total_micros == stage_sum() == t1 - t0`.
#[inline]
pub fn finish_at(t1: u64) {
    if phase() != Phase::Active {
        return;
    }
    SCOPE.with(|s| {
        if let Some(scope) = s.borrow_mut().as_mut() {
            if let Some(op) = scope.op.take() {
                let mut ctx = op.ctx;
                ctx.stage_micros[PerfStage::Other.idx()] += t1.saturating_sub(op.last);
                ctx.stage_hits[PerfStage::Other.idx()] += 1;
                ctx.total_micros = t1.saturating_sub(op.start);
                scope.done.merge(&ctx);
            }
        }
    });
    PHASE.with(|p| p.set(Phase::Open));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::manual_step_clock;

    /// A stand-in engine op: the two histogram clock reads, with `body`
    /// between them.
    fn op(reg: &Arc<MetricsRegistry>, body: impl FnOnce()) -> u64 {
        let t0 = reg.now_micros();
        begin_at(reg, t0);
        body();
        let t1 = reg.now_micros();
        finish_at(t1);
        t1 - t0
    }

    #[test]
    fn inactive_hooks_are_noops() {
        let reg = MetricsRegistry::new(true);
        reg.set_clock(Some(manual_step_clock(1)));
        op(&reg, || {
            mark(PerfStage::Router);
            count_hash_probes(3);
            count_cache_hit();
            count_cache_miss();
            count_vlog_fetch();
        });
        // Only the op's own two reads touched the clock.
        assert_eq!(reg.now_micros(), 3);
        assert!(phase() == Phase::Idle);
    }

    #[test]
    fn a_scope_without_an_op_is_empty() {
        let (out, ctx) = profile(|| {
            mark(PerfStage::Router);
            count_cache_hit();
            finish_at(100);
            7
        });
        assert_eq!(out, 7);
        assert_eq!(ctx, PerfContext::default());
    }

    #[test]
    fn stage_sums_equal_total_under_manual_clock() {
        let reg = MetricsRegistry::new(true);
        reg.set_clock(Some(manual_step_clock(5)));
        let (dur, ctx) = profile(|| {
            op(&reg, || {
                mark(PerfStage::Router); // 10 -> router = 5
                mark(PerfStage::Memtable); // 15 -> memtable = 5
                count_hash_probes(2);
                mark(PerfStage::BlockRead); // 20 -> block_read = 5
            })
        });
        assert!(phase() == Phase::Idle);
        assert_eq!(dur, 20);
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
    fn an_unfinished_op_is_dropped_and_disarmed() {
        let reg = MetricsRegistry::new(true);
        reg.set_clock(Some(manual_step_clock(1)));
        let ((), ctx) = profile(|| {
            // Fails after its first clock read: never finishes.
            begin_at(&reg, reg.now_micros());
            mark(PerfStage::WalAppend);
            // The next op replaces it and is profiled on its own.
            op(&reg, || mark(PerfStage::Memtable));
            // Another failure is still in flight when the scope ends.
            begin_at(&reg, reg.now_micros());
        });
        assert_eq!(ctx.ops, 1);
        assert_eq!(ctx.stage(PerfStage::WalAppend), 0);
        assert_eq!(ctx.total_micros, 2);
        assert_eq!(ctx.stage_sum(), ctx.total_micros);
        // Outside the scope nothing is armed: marks read no clock.
        let before = reg.now_micros();
        mark(PerfStage::Router);
        assert_eq!(reg.now_micros(), before + 1);
    }

    #[test]
    fn a_panicking_scope_disarms_the_thread() {
        let reg = MetricsRegistry::new(true);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            profile(|| {
                begin_at(&reg, 0);
                panic!("op failed");
            })
        }));
        assert!(r.is_err());
        assert!(phase() == Phase::Idle);
    }

    #[test]
    fn nested_scopes_keep_their_own_ops() {
        let reg = MetricsRegistry::new(true);
        reg.set_clock(Some(manual_step_clock(1)));
        let (inner, outer) = profile(|| {
            op(&reg, || mark(PerfStage::Router));
            let ((), inner) = profile(|| {
                op(&reg, count_vlog_fetch);
            });
            op(&reg, || mark(PerfStage::Router));
            inner
        });
        assert_eq!(inner.ops, 1);
        assert_eq!(inner.vlog_fetches, 1);
        assert_eq!(outer.ops, 2);
        assert_eq!(outer.vlog_fetches, 0);
        assert_eq!(outer.stage_hits[PerfStage::Router.idx()], 2);
        assert!(phase() == Phase::Idle);
    }

    #[test]
    fn merge_adds_everything_and_table_lists_all_stages() {
        let reg = MetricsRegistry::new(true);
        reg.set_clock(Some(manual_step_clock(1)));
        let ((), a) = profile(|| {
            op(&reg, || {
                mark(PerfStage::WalAppend);
                count_cache_hit();
            });
        });
        // Two ops in one scope fold into one context.
        let ((), b) = profile(|| {
            op(&reg, || {
                mark(PerfStage::WalSync);
                count_cache_miss();
            });
            op(&reg, count_vlog_fetch);
        });
        assert_eq!(b.ops, 2);
        let mut ab = b.clone();
        ab.merge(&a);
        assert_eq!(ab.ops, 3);
        assert_eq!(ab.block_reads, 2);
        assert_eq!(ab.cache_hits, 1);
        assert_eq!(ab.cache_misses, 1);
        assert_eq!(ab.vlog_fetches, 1);
        assert_eq!(ab.total_micros, a.total_micros + b.total_micros);
        assert_eq!(ab.stage_sum(), ab.total_micros);
        let table = ab.render_table();
        for stage in PerfStage::ALL {
            assert!(table.contains(stage.name()), "missing {}", stage.name());
        }
    }
}
