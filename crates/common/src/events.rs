//! Structured lifecycle events, the listener API, and the event bus.
//!
//! Every structural transition in an engine — memtable seal, flush,
//! merge, GC, split, write stalls, health transitions, job
//! retry/quarantine, WAL retirement — is published as an [`Event`]: a
//! globally sequence-numbered record carrying the files and bytes
//! involved plus a **`cause`** field naming the seq of the event that
//! triggered it. Causes make chains reconstructable offline: the seal
//! that produced a flush, the flush that tipped a merge, the merge that
//! made GC due.
//!
//! Delivery is a RocksDB-style listener API: implement [`EventListener`],
//! register it in the options, and the engine invokes it synchronously at
//! the publishing site. The contract:
//!
//! * **Synchronous and fast.** Listeners run on the publishing thread;
//!   slow listeners slow the database.
//! * **No re-entrancy.** The publishing site may hold engine locks;
//!   listeners must not call back into the database.
//! * **Panic-isolated.** A panicking listener is caught, counted
//!   ([`EventBus::listener_panics`]), and never poisons the engine.
//!
//! Events serialize as single-line JSON (hand-rolled — the workspace is
//! offline) for the persistent `EVENTS` journal, which is itself just a
//! listener.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What happened. Start/finish/abort triples cover every structural op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Active memtable frozen; its WAL is preserved until the flush lands.
    Seal,
    /// Flush of a sealed memtable began.
    FlushStart,
    /// Flush committed; a new UnsortedStore table exists.
    FlushFinish,
    /// Flush failed before committing.
    FlushAbort,
    /// UnsortedStore → SortedStore merge began.
    MergeStart,
    /// Merge committed.
    MergeFinish,
    /// Merge failed before committing.
    MergeAbort,
    /// Size-triggered (scan-optimization) merge began. UniKV no longer
    /// publishes the three `ScanMerge*` kinds (a scan now runs the full
    /// merge); they stay so that older journals still decode.
    ScanMergeStart,
    /// Scan-merge committed.
    ScanMergeFinish,
    /// Scan-merge failed before committing.
    ScanMergeAbort,
    /// Value-log garbage collection began.
    GcStart,
    /// GC committed.
    GcFinish,
    /// GC failed before committing.
    GcAbort,
    /// Partition split began.
    SplitStart,
    /// Split committed; two child partitions exist.
    SplitFinish,
    /// Split failed before committing.
    SplitAbort,
    /// Writers started braking (slowdown or stop).
    StallBegin,
    /// Writers released.
    StallEnd,
    /// Health state machine moved (detail holds `from->to`).
    HealthChange,
    /// A failed maintenance job was scheduled for retry.
    JobRetry,
    /// A failed maintenance job exhausted its retry budget.
    JobQuarantine,
    /// A commit stopped naming a WAL file, and the file was deleted:
    /// after a flush, after a split (the parent's WAL) and at open (the
    /// replayed WALs). The cause is the committing op's start event; at
    /// open there is none.
    WalRetired,
}

/// Number of event kinds.
pub const EVENT_KIND_COUNT: usize = 22;

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; EVENT_KIND_COUNT] = [
        EventKind::Seal,
        EventKind::FlushStart,
        EventKind::FlushFinish,
        EventKind::FlushAbort,
        EventKind::MergeStart,
        EventKind::MergeFinish,
        EventKind::MergeAbort,
        EventKind::ScanMergeStart,
        EventKind::ScanMergeFinish,
        EventKind::ScanMergeAbort,
        EventKind::GcStart,
        EventKind::GcFinish,
        EventKind::GcAbort,
        EventKind::SplitStart,
        EventKind::SplitFinish,
        EventKind::SplitAbort,
        EventKind::StallBegin,
        EventKind::StallEnd,
        EventKind::HealthChange,
        EventKind::JobRetry,
        EventKind::JobQuarantine,
        EventKind::WalRetired,
    ];

    /// Stable snake_case name used in the JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Seal => "seal",
            EventKind::FlushStart => "flush_start",
            EventKind::FlushFinish => "flush_finish",
            EventKind::FlushAbort => "flush_abort",
            EventKind::MergeStart => "merge_start",
            EventKind::MergeFinish => "merge_finish",
            EventKind::MergeAbort => "merge_abort",
            EventKind::ScanMergeStart => "scan_merge_start",
            EventKind::ScanMergeFinish => "scan_merge_finish",
            EventKind::ScanMergeAbort => "scan_merge_abort",
            EventKind::GcStart => "gc_start",
            EventKind::GcFinish => "gc_finish",
            EventKind::GcAbort => "gc_abort",
            EventKind::SplitStart => "split_start",
            EventKind::SplitFinish => "split_finish",
            EventKind::SplitAbort => "split_abort",
            EventKind::StallBegin => "stall_begin",
            EventKind::StallEnd => "stall_end",
            EventKind::HealthChange => "health_change",
            EventKind::JobRetry => "job_retry",
            EventKind::JobQuarantine => "job_quarantine",
            EventKind::WalRetired => "wal_retired",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn parse(s: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lifecycle event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (monotonic across journal rotations).
    pub seq: u64,
    /// Event-clock reading when the event was published.
    pub at_micros: u64,
    /// What happened.
    pub kind: EventKind,
    /// Partition the event concerns (parent id for splits).
    pub partition: u32,
    /// Seq of the event that triggered this one, if any. Start events
    /// point at their trigger (e.g. the flush-finish that tipped a
    /// merge); finish/abort events point at their own start.
    pub cause: Option<u64>,
    /// Input file numbers (WALs for flushes, tables for merges, value
    /// logs for GC).
    pub inputs: Vec<u64>,
    /// Output file numbers produced by the operation.
    pub outputs: Vec<u64>,
    /// Bytes processed or produced (op-specific; 0 when meaningless).
    pub bytes: u64,
    /// Free-form context (health transitions, error strings, …).
    pub detail: String,
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

impl Event {
    /// Encode as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + self.detail.len());
        out.push_str(&format!(
            "{{\"seq\":{},\"at_us\":{},\"kind\":\"{}\",\"partition\":{}",
            self.seq,
            self.at_micros,
            self.kind.name(),
            self.partition
        ));
        if let Some(c) = self.cause {
            out.push_str(&format!(",\"cause\":{c}"));
        }
        let list = |out: &mut String, name: &str, xs: &[u64]| {
            out.push_str(&format!(",\"{name}\":["));
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&x.to_string());
            }
            out.push(']');
        };
        list(&mut out, "inputs", &self.inputs);
        list(&mut out, "outputs", &self.outputs);
        out.push_str(&format!(",\"bytes\":{},\"detail\":\"", self.bytes));
        escape_json(&self.detail, &mut out);
        out.push_str("\"}");
        out
    }

    /// Decode one JSON line written by [`Event::to_json`]. Returns `None`
    /// on any malformed input (torn tail, corruption) — callers truncate
    /// from the first bad line.
    pub fn parse_json(line: &str) -> Option<Event> {
        let mut p = JsonParser {
            b: line.trim().as_bytes(),
            pos: 0,
        };
        p.expect(b'{')?;
        let mut ev = Event {
            seq: u64::MAX,
            at_micros: 0,
            kind: EventKind::Seal,
            partition: 0,
            cause: None,
            inputs: Vec::new(),
            outputs: Vec::new(),
            bytes: 0,
            detail: String::new(),
        };
        let mut have_seq = false;
        let mut have_kind = false;
        loop {
            p.skip_ws();
            if p.eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            match key.as_str() {
                "seq" => {
                    ev.seq = p.number()?;
                    have_seq = true;
                }
                "at_us" => ev.at_micros = p.number()?,
                "kind" => {
                    ev.kind = EventKind::parse(&p.string()?)?;
                    have_kind = true;
                }
                "partition" => ev.partition = u32::try_from(p.number()?).ok()?,
                "cause" => ev.cause = p.nullable_number()?,
                "inputs" => ev.inputs = p.number_array()?,
                "outputs" => ev.outputs = p.number_array()?,
                "bytes" => ev.bytes = p.number()?,
                "detail" => ev.detail = p.string()?,
                _ => return None,
            }
            p.skip_ws();
            if !p.eat(b',') {
                p.expect(b'}')?;
                break;
            }
        }
        p.skip_ws();
        (p.pos == p.b.len() && have_seq && have_kind).then_some(ev)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} t={}us {} p{}",
            self.seq, self.at_micros, self.kind, self.partition
        )?;
        if let Some(c) = self.cause {
            write!(f, " cause=#{c}")?;
        }
        if !self.inputs.is_empty() {
            write!(f, " in={:?}", self.inputs)?;
        }
        if !self.outputs.is_empty() {
            write!(f, " out={:?}", self.outputs)?;
        }
        if self.bytes > 0 {
            write!(f, " bytes={}", self.bytes)?;
        }
        if !self.detail.is_empty() {
            write!(f, " [{}]", self.detail)?;
        }
        Ok(())
    }
}

/// Minimal scanner for the flat JSON objects this module writes.
struct JsonParser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.pos < self.b.len() && self.b[self.pos] == c {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Option<()> {
        self.eat(c).then_some(())
    }

    fn number(&mut self) -> Option<u64> {
        let start = self.pos;
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    fn nullable_number(&mut self) -> Option<Option<u64>> {
        if self.b[self.pos..].starts_with(b"null") {
            self.pos += 4;
            Some(None)
        } else {
            self.number().map(Some)
        }
    }

    fn number_array(&mut self) -> Option<Vec<u64>> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Some(out);
        }
        loop {
            self.skip_ws();
            out.push(self.number()?);
            self.skip_ws();
            if self.eat(b']') {
                return Some(out);
            }
            self.expect(b',')?;
        }
    }

    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.b.get(self.pos)?;
            self.pos += 1;
            match c {
                b'"' => return Some(out),
                b'\\' => {
                    let e = *self.b.get(self.pos)?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.b.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: find the full sequence.
                    let start = self.pos - 1;
                    while self.pos < self.b.len() && self.b[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.pos]).ok()?);
                }
            }
        }
    }
}

/// Receiver for lifecycle events. See the module docs for the contract:
/// synchronous, fast, no re-entrancy into the database, panic-isolated.
pub trait EventListener: Send + Sync {
    /// Called once per published event, on the publishing thread.
    fn on_event(&self, event: &Event);
}

/// Listener registration handle for options structs (a plain
/// `Vec<Arc<dyn EventListener>>` with a `Debug` impl that does not
/// require listeners to be `Debug`).
#[derive(Clone, Default)]
pub struct Listeners(pub Vec<Arc<dyn EventListener>>);

impl Listeners {
    /// Register a listener.
    pub fn push(&mut self, l: Arc<dyn EventListener>) {
        self.0.push(l);
    }

    /// True when no listeners are registered.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Listeners {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Listeners({})", self.0.len())
    }
}

/// Assigns sequence numbers and dispatches events to listeners. With no
/// listeners, publishing is a single atomic increment: no clock read, no
/// allocation beyond what the caller already built.
pub struct EventBus {
    listeners: Vec<Arc<dyn EventListener>>,
    next_seq: AtomicU64,
    listener_panics: AtomicU64,
    /// Event timestamps count microseconds from here. The bus never
    /// reads the metrics clock, so publishing an event cannot advance a
    /// manual metrics clock.
    origin: Instant,
}

impl EventBus {
    /// Create a bus dispatching to `listeners`, numbering events from
    /// `first_seq` (a reopened journal continues its numbering).
    pub fn new(listeners: Vec<Arc<dyn EventListener>>, first_seq: u64) -> Arc<EventBus> {
        Arc::new(EventBus {
            listeners,
            next_seq: AtomicU64::new(first_seq),
            listener_panics: AtomicU64::new(0),
            origin: Instant::now(),
        })
    }

    /// True when at least one listener is registered. Callers may skip
    /// building expensive event details when false.
    pub fn has_listeners(&self) -> bool {
        !self.listeners.is_empty()
    }

    /// Listener invocations that panicked (caught and discarded).
    pub fn listener_panics(&self) -> u64 {
        self.listener_panics.load(Ordering::Relaxed)
    }

    /// Publish an event: assign the next seq, stamp the time, dispatch to
    /// every listener (panics caught and counted), return the seq. With
    /// no listeners only the seq is assigned.
    #[allow(clippy::too_many_arguments)]
    pub fn publish(
        &self,
        kind: EventKind,
        partition: u32,
        cause: Option<u64>,
        inputs: Vec<u64>,
        outputs: Vec<u64>,
        bytes: u64,
        detail: impl Into<String>,
    ) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if self.listeners.is_empty() {
            return seq;
        }
        let event = Event {
            seq,
            at_micros: self.origin.elapsed().as_micros() as u64,
            kind,
            partition,
            cause,
            inputs,
            outputs,
            bytes,
            detail: detail.into(),
        };
        for l in &self.listeners {
            if catch_unwind(AssertUnwindSafe(|| l.on_event(&event))).is_err() {
                self.listener_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
        seq
    }
}

/// Reconstruct the causal ancestry of `seq`: the chain of events from the
/// root cause down to (and including) `seq`, oldest first. Events missing
/// from `events` (rotated away) end the walk; cycles cannot occur with
/// well-formed causes but are guarded against anyway.
pub fn causal_chain(events: &[Event], seq: u64) -> Vec<Event> {
    let mut chain = Vec::new();
    let mut cur = Some(seq);
    while let Some(s) = cur {
        match events.iter().find(|e| e.seq == s) {
            Some(e) => {
                cur = e.cause.filter(|c| *c < s);
                chain.push(e.clone());
            }
            None => break,
        }
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn ev(seq: u64, kind: EventKind, cause: Option<u64>) -> Event {
        Event {
            seq,
            at_micros: seq * 10,
            kind,
            partition: 1,
            cause,
            inputs: vec![3, 4],
            outputs: vec![7],
            bytes: 512,
            detail: "x=\"1\"\nπ".to_string(),
        }
    }

    #[test]
    fn json_round_trip() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            let e = ev(i as u64, kind, if i % 2 == 0 { None } else { Some(3) });
            let line = e.to_json();
            assert!(!line.contains('\n'));
            assert_eq!(Event::parse_json(&line), Some(e));
        }
        let empty = Event {
            seq: 0,
            at_micros: 0,
            kind: EventKind::Seal,
            partition: 0,
            cause: None,
            inputs: vec![],
            outputs: vec![],
            bytes: 0,
            detail: String::new(),
        };
        assert_eq!(Event::parse_json(&empty.to_json()), Some(empty));
    }

    #[test]
    fn malformed_lines_rejected() {
        let good = ev(1, EventKind::FlushStart, Some(0)).to_json();
        for bad in [
            "",
            "{",
            "not json",
            "{\"seq\":1}",                    // missing kind
            "{\"kind\":\"flush_start\"}",     // missing seq
            "{\"seq\":1,\"kind\":\"nope\"}",  // unknown kind
            "{\"seq\":1,\"kind\":\"seal\"}x", // trailing garbage
            &good[..good.len() - 5],          // torn tail
        ] {
            assert_eq!(Event::parse_json(bad), None, "accepted {bad:?}");
        }
    }

    struct Recorder(Mutex<Vec<u64>>);
    impl EventListener for Recorder {
        fn on_event(&self, e: &Event) {
            self.0.lock().unwrap().push(e.seq);
        }
    }

    struct Panicker;
    impl EventListener for Panicker {
        fn on_event(&self, _: &Event) {
            panic!("listener bug");
        }
    }

    #[test]
    fn bus_numbers_dispatches_and_isolates_panics() {
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        let bus = EventBus::new(vec![Arc::new(Panicker), rec.clone()], 5);
        let a = bus.publish(EventKind::Seal, 0, None, vec![], vec![], 0, "");
        let b = bus.publish(EventKind::FlushStart, 0, Some(a), vec![], vec![], 0, "");
        assert_eq!((a, b), (5, 6));
        // The panicking listener never blocks the one after it.
        assert_eq!(*rec.0.lock().unwrap(), vec![5, 6]);
        assert_eq!(bus.listener_panics(), 2);
    }

    #[test]
    fn no_listener_publish_assigns_seq_only() {
        let bus = EventBus::new(vec![], 1);
        assert!(!bus.has_listeners());
        assert_eq!(
            bus.publish(EventKind::Seal, 0, None, vec![], vec![], 0, ""),
            1
        );
        assert_eq!(
            bus.publish(EventKind::StallBegin, 0, None, vec![], vec![], 0, ""),
            2
        );
    }

    #[test]
    fn causal_chain_walks_to_root() {
        let events = vec![
            ev(1, EventKind::Seal, None),
            ev(2, EventKind::FlushStart, Some(1)),
            ev(3, EventKind::FlushFinish, Some(2)),
            ev(4, EventKind::MergeStart, Some(3)),
            ev(5, EventKind::MergeFinish, Some(4)),
        ];
        let chain = causal_chain(&events, 5);
        let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Seal,
                EventKind::FlushStart,
                EventKind::FlushFinish,
                EventKind::MergeStart,
                EventKind::MergeFinish
            ]
        );
        // Missing ancestor ends the walk instead of looping.
        let partial = causal_chain(&events[2..], 5);
        assert_eq!(partial.len(), 3);
        assert_eq!(causal_chain(&events, 99), Vec::<Event>::new());
    }
}
