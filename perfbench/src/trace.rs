//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from outside the engine: the benchmark loop opens
//! one per sampled operation, the [`crate::listener::MaintListener`] one
//! per maintenance job, and [`crate::env::BenchEnv`] one per env call made
//! inside a sampled operation. Besides the kept spans, the tracer accumulates
//! the two self times the per-layer report needs for *every* scan and job,
//! sampled or not: env read time inside scans (as a union across the
//! fetch threads) and env time inside maintenance.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (unique within a run, starting at 1).
    pub id: u64,
    /// Id of the span this one ran inside (0 for a root span).
    pub parent: u64,
    /// Layer and action, e.g. `op.get`, `maint.merge`, `env.sst.read`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the benchmark op the span belongs to (0 for none).
    pub op: u64,
    /// Sequence number of the engine event that caused a maintenance job.
    pub cause: Option<u64>,
    /// Bytes moved (env calls) or produced (maintenance jobs).
    pub bytes: u64,
}

/// Span recorder shared by the benchmark loop, env wrapper and listener.
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// Span that env calls currently nest under (0: none open).
    current: AtomicU64,
    /// Benchmark op that `current` belongs to.
    current_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
    scan_active: AtomicBool,
    scan_reads: Mutex<Vec<(u64, u64)>>,
    maint_depth: AtomicU32,
    maint_env_ns: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer; [`Tracer::enable`] starts recording.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            current_op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            scan_active: AtomicBool::new(false),
            scan_reads: Mutex::new(Vec::new()),
            maint_depth: AtomicU32::new(0),
            maint_env_ns: AtomicU64::new(0),
        }
    }

    /// Start recording (set-up is not traced).
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// True while recording.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Allocate a span id.
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Keep a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Make `span` (of benchmark op `op`) the parent of env spans until
    /// [`Tracer::leave`] restores the returned previous parent.
    pub fn enter(&self, span: u64, op: u64) -> (u64, u64) {
        (
            self.current.swap(span, Ordering::SeqCst),
            self.current_op.swap(op, Ordering::SeqCst),
        )
    }

    /// Undo [`Tracer::enter`].
    pub fn leave(&self, prev: (u64, u64)) {
        self.current.store(prev.0, Ordering::SeqCst);
        self.current_op.store(prev.1, Ordering::SeqCst);
    }

    /// Parent span and op for an env call starting now.
    pub fn current(&self) -> (u64, u64) {
        (
            self.current.load(Ordering::SeqCst),
            self.current_op.load(Ordering::SeqCst),
        )
    }

    /// Start collecting env read intervals for one scan.
    pub fn begin_scan(&self) {
        self.scan_reads.lock().expect("scan reads poisoned").clear();
        self.scan_active.store(true, Ordering::SeqCst);
    }

    /// Stop collecting; returns the nanoseconds of `[start, end]` covered
    /// by at least one env read made during the scan.
    pub fn end_scan(&self, start: u64, end: u64) -> u64 {
        self.scan_active.store(false, Ordering::SeqCst);
        let mut reads = self.scan_reads.lock().expect("scan reads poisoned");
        covered_ns(&mut reads, start, end)
    }

    /// A maintenance job started.
    pub fn maint_begin(&self) {
        self.maint_depth.fetch_add(1, Ordering::SeqCst);
    }

    /// A maintenance job ended.
    pub fn maint_end(&self) {
        self.maint_depth.fetch_sub(1, Ordering::SeqCst);
    }

    /// Env nanoseconds spent inside maintenance jobs so far.
    pub fn maint_env_ns(&self) -> u64 {
        self.maint_env_ns.load(Ordering::Relaxed)
    }

    /// Account one env call (`read` marks the calls a scan's self time
    /// subtracts) and keep its span if it ran inside a sampled op.
    pub fn env_call(&self, name: &'static str, read: bool, start: u64, end: u64, bytes: u64) {
        if read && self.scan_active.load(Ordering::Relaxed) {
            self.scan_reads
                .lock()
                .expect("scan reads poisoned")
                .push((start, end));
        }
        if self.maint_depth.load(Ordering::Relaxed) > 0 {
            self.maint_env_ns.fetch_add(end - start, Ordering::Relaxed);
        }
        // Kept only under a sampled op: unsampled maintenance jobs keep
        // their own span but not their (many) env calls.
        let (parent, op) = self.current();
        if op != 0 {
            self.push(Span {
                id: self.alloc_id(),
                parent,
                name,
                start_ns: start,
                end_ns: end,
                op,
                cause: None,
                bytes,
            });
        }
    }

    /// Spans kept so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Write every kept span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{},\"bytes\":{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.op, s.bytes
            )?;
            if let Some(c) = s.cause {
                write!(out, ",\"cause\":{c}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Length of the part of `[start, end]` covered by the union of
/// `intervals` (sorted in place).
pub fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlaps_once_and_clips() {
        let mut iv = vec![(30, 50), (10, 20), (15, 25), (40, 45), (90, 200)];
        // [10,25] + [30,50] + [90,100]
        assert_eq!(covered_ns(&mut iv, 0, 100), 15 + 20 + 10);
        assert_eq!(covered_ns(&mut [], 0, 100), 0);
        assert_eq!(covered_ns(&mut [(0, 5)], 10, 20), 0);
    }

    #[test]
    fn env_calls_nest_under_the_open_span() {
        let t = Tracer::new();
        t.env_call("env.sst.read", true, 0, 1, 10);
        assert_eq!(t.span_count(), 0, "no open span, nothing kept");
        let prev = t.enter(7, 3);
        t.begin_scan();
        t.env_call("env.vlog.read", true, 5, 9, 10);
        t.env_call("env.vlog.read", true, 6, 12, 10);
        assert_eq!(t.end_scan(0, 20), 7);
        t.leave(prev);
        assert_eq!(t.span_count(), 2);
        t.maint_begin();
        t.env_call("env.sst.write", false, 0, 4, 10);
        t.maint_end();
        assert_eq!(t.maint_env_ns(), 4);
    }
}
