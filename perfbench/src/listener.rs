//! Benchmark-owned [`EventListener`]: turns the engine's maintenance
//! start/finish events into per-kind counts, bytes and durations, and in
//! the traced run into spans.

use crate::trace::{Span, Tracer};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use unikv::{Event, EventKind, EventListener};

/// Maintenance job kinds, in report order.
pub const MAINT_KINDS: [&str; 5] = ["flush", "scan_merge", "merge", "gc", "split"];

fn classify(kind: EventKind) -> Option<(usize, bool)> {
    use EventKind::*;
    Some(match kind {
        FlushStart => (0, true),
        FlushFinish | FlushAbort => (0, false),
        ScanMergeStart => (1, true),
        ScanMergeFinish | ScanMergeAbort => (1, false),
        MergeStart => (2, true),
        MergeFinish | MergeAbort => (2, false),
        GcStart => (3, true),
        GcFinish | GcAbort => (3, false),
        SplitStart => (4, true),
        SplitFinish | SplitAbort => (4, false),
        _ => return None,
    })
}

/// Totals of one job kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Jobs finished.
    pub count: u64,
    /// Bytes the finish events report.
    pub bytes: u64,
    /// Nanoseconds from start to finish event, summed.
    pub ns: u64,
}

/// Totals of every job kind, plus the wall time any job was running.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintTotals {
    /// Indexed like [`MAINT_KINDS`].
    pub kinds: [KindTotals; 5],
    /// Nanoseconds with at least one job open (nested jobs count once).
    pub busy_ns: u64,
}

impl MaintTotals {
    /// `self - earlier`.
    pub fn since(&self, earlier: &MaintTotals) -> MaintTotals {
        MaintTotals {
            kinds: std::array::from_fn(|i| KindTotals {
                count: self.kinds[i].count - earlier.kinds[i].count,
                bytes: self.kinds[i].bytes - earlier.kinds[i].bytes,
                ns: self.kinds[i].ns - earlier.kinds[i].ns,
            }),
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

struct Open {
    kind: usize,
    start_ns: u64,
    span: u64,
    cause: Option<u64>,
    prev: (u64, u64),
}

#[derive(Default)]
struct State {
    totals: MaintTotals,
    open: Vec<Open>,
}

/// The listener. Events arrive on the thread running the job; in inline
/// mode that is the writer whose put triggered it.
pub struct MaintListener {
    origin: Instant,
    tracer: Option<Arc<Tracer>>,
    state: Mutex<State>,
}

impl MaintListener {
    /// A listener; with a tracer it also records spans while tracing.
    pub fn new(tracer: Option<Arc<Tracer>>) -> Arc<MaintListener> {
        Arc::new(MaintListener {
            origin: Instant::now(),
            tracer,
            state: Mutex::default(),
        })
    }

    /// Totals so far.
    pub fn totals(&self) -> MaintTotals {
        self.state.lock().expect("listener state poisoned").totals
    }
}

impl EventListener for MaintListener {
    fn on_event(&self, event: &Event) {
        let Some((kind, is_start)) = classify(event.kind) else {
            return;
        };
        let now = match &self.tracer {
            Some(t) => t.now(),
            None => self.origin.elapsed().as_nanos() as u64,
        };
        let tracer = self.tracer.as_deref().filter(|t| t.enabled());
        let mut st = self.state.lock().expect("listener state poisoned");
        if is_start {
            let (span, prev) = match tracer {
                Some(t) => {
                    t.maint_begin();
                    let id = t.alloc_id();
                    let op = t.current().1;
                    (id, t.enter(id, op))
                }
                None => (0, (0, 0)),
            };
            st.open.push(Open {
                kind,
                start_ns: now,
                span,
                cause: event.cause,
                prev,
            });
            return;
        }
        let Some(pos) = st.open.iter().rposition(|o| o.kind == kind) else {
            return; // started before the listener saw events
        };
        let open = st.open.remove(pos);
        let totals = &mut st.totals.kinds[kind];
        if matches!(
            event.kind,
            EventKind::FlushFinish
                | EventKind::ScanMergeFinish
                | EventKind::MergeFinish
                | EventKind::GcFinish
                | EventKind::SplitFinish
        ) {
            totals.count += 1;
            totals.bytes += event.bytes;
        }
        totals.ns += now - open.start_ns;
        if st.open.is_empty() {
            st.totals.busy_ns += now - open.start_ns;
        }
        if let (Some(t), true) = (tracer, open.span != 0) {
            t.leave(open.prev);
            t.maint_end();
            t.push(Span {
                id: open.span,
                parent: open.prev.0,
                name: MAINT_SPAN_NAMES[kind],
                start_ns: open.start_ns,
                end_ns: now,
                op: open.prev.1,
                cause: open.cause,
                bytes: event.bytes,
            });
        }
    }
}

const MAINT_SPAN_NAMES: [&str; 5] = [
    "maint.flush",
    "maint.scan_merge",
    "maint.merge",
    "maint.gc",
    "maint.split",
];
