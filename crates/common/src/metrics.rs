//! Unified observability substrate: a lock-free metrics registry with
//! atomic counters, gauges, and fixed-bucket log-scale latency histograms.
//!
//! Every engine in the workspace (UniKV, the LSM baselines, the hash-store
//! baseline) reports through the same family names, so cross-engine runs
//! are directly comparable. Two properties are load-bearing:
//!
//! * **Determinism under test.** Latencies come from an injectable
//!   monotonic clock ([`MetricsRegistry::set_clock`]). A test installs a
//!   manual clock that advances a fixed step per reading; every timed
//!   operation reads the clock exactly twice (start and end), so recorded
//!   durations — and therefore bucket counts and quantiles — are exact.
//! * **No overhead when disabled.** Every record path first checks one
//!   relaxed atomic bool and returns without locking, allocating, or
//!   reading the clock.
//!
//! Snapshots are plain data and merge associatively (bucket-wise for
//! histograms), so per-partition or per-engine registries can be folded
//! into one report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Injectable clock: returns a monotonic timestamp in **microseconds**
/// from an arbitrary origin. Mirrors `MaintClock` in the core crate.
pub type MetricsClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Number of histogram buckets. Bucket 0 holds the value `0`; bucket `i`
/// (for `1 <= i < HISTOGRAM_BUCKETS-1`) holds values in `[2^(i-1), 2^i - 1]`;
/// the last bucket absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Map a recorded value to its bucket index (log-scale, powers of two).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (used as the quantile estimate).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

// ---------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------

/// A monotonically increasing counter handle. Cheap to clone; all clones
/// share the same cell and the registry's enabled flag.
#[derive(Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `v` (no-op while the registry is disabled).
    #[inline]
    pub fn add(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both ways (e.g. queue depth).
#[derive(Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge (no-op while the registry is disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket log-scale histogram handle (latencies in microseconds,
/// but any `u64` works). Lock-free; snapshots merge bucket-wise.
#[derive(Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Record one observation (no-op while the registry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
        self.core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Snapshot the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.core.count.load(Ordering::Relaxed),
            sum: self.core.sum.load(Ordering::Relaxed),
            max: self.core.max.load(Ordering::Relaxed),
            buckets: self
                .core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// Plain-data snapshot of one histogram; merges associatively.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation (exact).
    pub max: u64,
    /// Per-bucket observation counts (`HISTOGRAM_BUCKETS` entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Fold `other` into `self` (bucket-wise addition; max of maxes).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Quantile estimate: the upper bound of the bucket containing the
    /// `ceil(q * count)`-th observation, capped at the exact `max`.
    /// Deterministic given deterministic inputs; `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of observations (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Plain-data snapshot of a whole registry. Merging two snapshots (e.g.
/// from per-partition registries) is associative and commutative:
/// counters and gauges add, histograms merge bucket-wise.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter families by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge families by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram families by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// True when every family is zero/empty.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|v| *v == 0)
            && self.gauges.values().all(|v| *v == 0)
            && self.histograms.values().all(|h| h.is_empty())
    }

    /// Human-readable report. Every registered family appears, even when
    /// zero — report-completeness checks rely on this.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== counters ==\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("  {name:<28} {v}\n"));
        }
        if !self.gauges.is_empty() {
            out.push_str("== gauges ==\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<28} {v}\n"));
            }
        }
        out.push_str("== histograms (us) ==\n");
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "  {name:<28} count={} p50={} p95={} p99={} max={} mean={:.1}\n",
                h.count,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max,
                h.mean(),
            ));
        }
        out
    }

    /// Stable machine-readable report: one tab-separated line per family.
    ///
    /// `counter\t<name>\t<value>`, `gauge\t<name>\t<value>`,
    /// `histogram\t<name>\t<count>\t<sum>\t<max>\t<p50>\t<p95>\t<p99>\t<buckets,comma-separated>`
    pub fn render_machine(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter\t{name}\t{v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge\t{name}\t{v}\n"));
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "histogram\t{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                h.count,
                h.sum,
                h.max,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                buckets.join(","),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Operation kinds and outcomes
// ---------------------------------------------------------------------

/// Maintenance operation kind: picks the op's latency histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// Memtable flush.
    Flush,
    /// UnsortedStore → SortedStore merge (or LSM compaction).
    Merge,
    /// Value-log garbage collection.
    Gc,
    /// Partition split.
    Split,
}

/// Where a point read resolved: picks its tier-resolution counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Read answered by a memtable (active or sealed).
    Memtable,
    /// Read answered by the UnsortedStore (hash index or table scan).
    Unsorted,
    /// Read answered by the SortedStore with the value inline.
    Sorted,
    /// Read answered by the SortedStore via a value-log pointer.
    Vlog,
    /// Read found nothing.
    Miss,
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

enum Family {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

/// The metrics registry: a named set of counter/gauge/histogram families,
/// and a clock. Registration takes a mutex; the recording hot paths are
/// lock-free.
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    origin: Instant,
    has_manual_clock: AtomicBool,
    clock: RwLock<Option<MetricsClock>>,
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// Create a registry. `enabled = false` turns every record call into
    /// a branch on one atomic bool.
    pub fn new(enabled: bool) -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(enabled)),
            origin: Instant::now(),
            has_manual_clock: AtomicBool::new(false),
            clock: RwLock::new(None),
            families: Mutex::new(BTreeMap::new()),
        })
    }

    /// Current clock reading in microseconds. Returns `0` while disabled
    /// (timing is pointless when nothing records), the manual clock when
    /// one is installed, the real monotonic clock otherwise.
    #[inline]
    pub fn now_micros(&self) -> u64 {
        if !self.enabled.load(Ordering::Relaxed) {
            return 0;
        }
        if self.has_manual_clock.load(Ordering::Acquire) {
            if let Some(clock) = self.clock.read().expect("clock lock poisoned").as_ref() {
                return clock();
            }
        }
        self.origin.elapsed().as_micros() as u64
    }

    /// Install a manual clock (microseconds, arbitrary monotonic origin)
    /// or restore the real clock with `None`. The determinism contract:
    /// every timed operation reads the clock exactly twice, so a clock
    /// advancing a fixed step per reading yields exact durations.
    pub fn set_clock(&self, clock: Option<MetricsClock>) {
        let mut guard = self.clock.write().expect("clock lock poisoned");
        self.has_manual_clock
            .store(clock.is_some(), Ordering::Release);
        *guard = clock;
    }

    /// Register (or fetch) a counter family.
    pub fn counter(&self, name: &str) -> Counter {
        let mut fams = self.families.lock().expect("families lock poisoned");
        let cell = match fams
            .entry(name.to_string())
            .or_insert_with(|| Family::Counter(Arc::new(AtomicU64::new(0))))
        {
            Family::Counter(c) => c.clone(),
            _ => panic!("metric family {name:?} already registered with a different kind"),
        };
        Counter {
            enabled: self.enabled.clone(),
            cell,
        }
    }

    /// Register (or fetch) a gauge family.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut fams = self.families.lock().expect("families lock poisoned");
        let cell = match fams
            .entry(name.to_string())
            .or_insert_with(|| Family::Gauge(Arc::new(AtomicU64::new(0))))
        {
            Family::Gauge(c) => c.clone(),
            _ => panic!("metric family {name:?} already registered with a different kind"),
        };
        Gauge {
            enabled: self.enabled.clone(),
            cell,
        }
    }

    /// Register (or fetch) a histogram family.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut fams = self.families.lock().expect("families lock poisoned");
        let core = match fams
            .entry(name.to_string())
            .or_insert_with(|| Family::Histogram(Arc::new(HistogramCore::new())))
        {
            Family::Histogram(c) => c.clone(),
            _ => panic!("metric family {name:?} already registered with a different kind"),
        };
        Histogram {
            enabled: self.enabled.clone(),
            core,
        }
    }

    /// Names of every registered family, sorted.
    pub fn family_names(&self) -> Vec<String> {
        self.families
            .lock()
            .expect("families lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Snapshot every family.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let fams = self.families.lock().expect("families lock poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, fam) in fams.iter() {
            match fam {
                Family::Counter(c) => {
                    snap.counters
                        .insert(name.clone(), c.load(Ordering::Relaxed));
                }
                Family::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.load(Ordering::Relaxed));
                }
                Family::Histogram(h) => {
                    snap.histograms.insert(
                        name.clone(),
                        HistogramSnapshot {
                            count: h.count.load(Ordering::Relaxed),
                            sum: h.sum.load(Ordering::Relaxed),
                            max: h.max.load(Ordering::Relaxed),
                            buckets: h
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                        },
                    );
                }
            }
        }
        snap
    }

    /// Zero every family. Counters are cleared
    /// one by one (quiesce concurrent writers for an exact zero point).
    pub fn reset(&self) {
        let fams = self.families.lock().expect("families lock poisoned");
        for fam in fams.values() {
            match fam {
                Family::Counter(c) | Family::Gauge(c) => c.store(0, Ordering::Relaxed),
                Family::Histogram(h) => h.reset(),
            }
        }
    }

    /// Human-readable report of the current snapshot.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }

    /// The counter families, read as one list (see [`Counters`]).
    pub fn counters(&self) -> Counters<'_> {
        Counters(self)
    }
}

/// The counter families of one registry, read as `(name, value)` pairs:
/// the shape of the per-engine stats structs these families replaced,
/// kept for callers that still read `stats().snapshot()`.
pub struct Counters<'a>(&'a MetricsRegistry);

impl Counters<'_> {
    /// Every counter family as `(name, value)`, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.0.snapshot().counters.into_iter().collect()
    }
}

// ---------------------------------------------------------------------
// Standard engine families
// ---------------------------------------------------------------------

/// The standard per-engine metric families, pre-registered so every
/// engine reports the same names. Tier counters satisfy the invariant
/// `reads == reads_hit_memtable + reads_hit_unsorted + reads_hit_sorted
/// + reads_miss` (vlog-resolved reads count into `reads_hit_sorted` and
/// additionally into `reads_vlog_resolved`).
#[derive(Clone)]
pub struct EngineMetrics {
    /// Point-lookup latency.
    pub get_latency: Histogram,
    /// Put/delete latency (one sample per call).
    pub put_latency: Histogram,
    /// Scan latency (one sample per call).
    pub scan_latency: Histogram,
    /// Flush duration (one sample per flushed table).
    pub flush_latency: Histogram,
    /// Merge/compaction duration.
    pub merge_latency: Histogram,
    /// GC pass duration.
    pub gc_latency: Histogram,
    /// Partition-split duration.
    pub split_latency: Histogram,
    /// Completed point lookups (hits + misses).
    pub reads: Counter,
    /// Reads answered by a memtable.
    pub reads_hit_memtable: Counter,
    /// Reads answered by the UnsortedStore.
    pub reads_hit_unsorted: Counter,
    /// Reads answered by the SortedStore (inline or via vlog).
    pub reads_hit_sorted: Counter,
    /// Reads that found nothing.
    pub reads_miss: Counter,
    /// Reads whose value came from a value log (subset of sorted hits).
    pub reads_vlog_resolved: Counter,
    /// Completed put/delete calls.
    pub writes: Counter,
    /// Completed scan calls.
    pub scans: Counter,
    /// Items returned across all scans.
    pub scan_items: Counter,
}

impl EngineMetrics {
    /// Register the standard families in `registry`.
    pub fn new(registry: &MetricsRegistry) -> EngineMetrics {
        EngineMetrics {
            get_latency: registry.histogram("get_latency_us"),
            put_latency: registry.histogram("put_latency_us"),
            scan_latency: registry.histogram("scan_latency_us"),
            flush_latency: registry.histogram("flush_latency_us"),
            merge_latency: registry.histogram("merge_latency_us"),
            gc_latency: registry.histogram("gc_latency_us"),
            split_latency: registry.histogram("split_latency_us"),
            reads: registry.counter("reads"),
            reads_hit_memtable: registry.counter("reads_hit_memtable"),
            reads_hit_unsorted: registry.counter("reads_hit_unsorted"),
            reads_hit_sorted: registry.counter("reads_hit_sorted"),
            reads_miss: registry.counter("reads_miss"),
            reads_vlog_resolved: registry.counter("reads_vlog_resolved"),
            writes: registry.counter("writes"),
            scans: registry.counter("scans"),
            scan_items: registry.counter("scan_items"),
        }
    }

    /// Count one completed read with its tier-resolution outcome.
    pub fn record_read(&self, outcome: TraceOutcome) {
        self.reads.inc();
        match outcome {
            TraceOutcome::Memtable => self.reads_hit_memtable.inc(),
            TraceOutcome::Unsorted => self.reads_hit_unsorted.inc(),
            TraceOutcome::Sorted => self.reads_hit_sorted.inc(),
            TraceOutcome::Vlog => {
                self.reads_hit_sorted.inc();
                self.reads_vlog_resolved.inc();
            }
            TraceOutcome::Miss => self.reads_miss.inc(),
        }
    }

    /// The histogram for a maintenance op kind.
    pub fn maint_histogram(&self, op: TraceOp) -> &Histogram {
        match op {
            TraceOp::Flush => &self.flush_latency,
            TraceOp::Merge => &self.merge_latency,
            TraceOp::Gc => &self.gc_latency,
            TraceOp::Split => &self.split_latency,
        }
    }
}

/// Build a manual clock for tests: every reading advances by `step_us`
/// and returns the advanced value, so an operation that reads the clock
/// twice observes a duration of exactly `step_us`.
pub fn manual_step_clock(step_us: u64) -> MetricsClock {
    let ticks = AtomicU64::new(0);
    Arc::new(move || ticks.fetch_add(step_us, Ordering::Relaxed) + step_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every value lands inside its bucket's range.
        for v in [0u64, 1, 5, 100, 1023, 1024, 1 << 40] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "v={v} bucket={i}");
            if i > 0 && i < HISTOGRAM_BUCKETS - 1 {
                assert!(v > bucket_upper_bound(i - 1), "v={v} bucket={i}");
            }
        }
    }

    #[test]
    fn histogram_exact_with_equal_values() {
        let reg = MetricsRegistry::new(true);
        let h = reg.histogram("h");
        for _ in 0..100 {
            h.record(7);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 700);
        assert_eq!(s.max, 7);
        assert_eq!(s.buckets[bucket_index(7)], 100);
        assert_eq!(s.quantile(0.5), 7);
        assert_eq!(s.quantile(0.95), 7);
        assert_eq!(s.quantile(0.99), 7);
    }

    #[test]
    fn quantiles_walk_buckets() {
        let reg = MetricsRegistry::new(true);
        let h = reg.histogram("h");
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(100);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 1);
        assert_eq!(s.quantile(0.9), 1);
        // Ranks past 90 land in the bucket holding 100 ([64, 127], capped
        // at the exact max of 100).
        assert_eq!(s.quantile(0.95), 100);
        assert_eq!(s.quantile(1.0), 100);
    }

    #[test]
    fn snapshot_merge_is_associative() {
        let mk = |n: u64| {
            let reg = MetricsRegistry::new(true);
            reg.counter("c").add(n);
            reg.gauge("g").set(n);
            let h = reg.histogram("h");
            for v in 0..n {
                h.record(v);
            }
            reg.snapshot()
        };
        let (a, b, c) = (mk(3), mk(10), mk(40));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.counters["c"], 53);
        assert_eq!(left.histograms["h"].count, 3 + 10 + 40);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new(false);
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        c.add(5);
        g.set(5);
        h.record(5);
        assert_eq!(reg.now_micros(), 0);
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn reset_empties_everything() {
        let reg = MetricsRegistry::new(true);
        reg.counter("c").add(9);
        reg.gauge("g").set(9);
        reg.histogram("h").record(9);
        assert!(!reg.snapshot().is_empty());
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.is_empty());
        // Families stay registered after reset — only the values clear.
        assert_eq!(
            reg.family_names(),
            vec!["c".to_string(), "g".to_string(), "h".to_string()]
        );
    }

    #[test]
    fn manual_clock_is_deterministic() {
        let reg = MetricsRegistry::new(true);
        reg.set_clock(Some(manual_step_clock(5)));
        assert_eq!(reg.now_micros(), 5);
        assert_eq!(reg.now_micros(), 10);
        reg.set_clock(None);
        // Real clock restored; just check it does not panic.
        let _ = reg.now_micros();
    }

    #[test]
    fn machine_report_covers_all_families() {
        let reg = MetricsRegistry::new(true);
        let em = EngineMetrics::new(&reg);
        em.record_read(TraceOutcome::Vlog);
        em.record_read(TraceOutcome::Miss);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["reads"], 2);
        assert_eq!(snap.counters["reads_hit_sorted"], 1);
        assert_eq!(snap.counters["reads_vlog_resolved"], 1);
        assert_eq!(snap.counters["reads_miss"], 1);
        let text = snap.render_text();
        let machine = snap.render_machine();
        for name in reg.family_names() {
            assert!(text.contains(&name), "text report missing {name}");
            assert!(machine.contains(&name), "machine report missing {name}");
        }
    }

    #[test]
    fn engine_metrics_read_invariant() {
        let reg = MetricsRegistry::new(true);
        let em = EngineMetrics::new(&reg);
        for (i, o) in [
            TraceOutcome::Memtable,
            TraceOutcome::Unsorted,
            TraceOutcome::Sorted,
            TraceOutcome::Vlog,
            TraceOutcome::Miss,
        ]
        .iter()
        .enumerate()
        {
            for _ in 0..=i {
                em.record_read(*o);
            }
        }
        let reads = em.reads.value();
        let sum = em.reads_hit_memtable.value()
            + em.reads_hit_unsorted.value()
            + em.reads_hit_sorted.value()
            + em.reads_miss.value();
        assert_eq!(reads, sum);
    }
}
