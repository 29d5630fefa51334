//! Integration tests for the causal event journal and the listener API:
//! chains reconstructed from a real run connect seal → flush → merge → GC,
//! rotation keeps sequence numbers monotonic across database reopens, a
//! panicking listener is caught and counted without poisoning the
//! database, and a damaged journal never fails `UniKv::open`.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use unikv::{
    causal_chain, read_events, Event, EventKind, EventListener, UniKv, UniKvOptions, EVENTS_FILE,
    EVENTS_OLD_FILE,
};
use unikv_env::mem::MemEnv;
use unikv_env::Env;
use unikv_vlog::parse_vlog_file_name;

fn key(i: u64) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

fn value(i: u64, len: usize) -> Vec<u8> {
    let unit = format!("value-{i}-").into_bytes();
    let reps = len / unit.len() + 2;
    unit.repeat(reps)[..len].to_vec()
}

fn journal_opts() -> UniKvOptions {
    UniKvOptions {
        enable_event_journal: true,
        ..UniKvOptions::small_for_tests()
    }
}

/// A seeded overwrite-heavy workload sized (like the metrics suite's) so
/// every structural operation — flush, merge, GC, split —
/// fires organically, i.e. with real `cause` links, not via force_gc.
fn drive(db: &UniKv, ops: u64) {
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = |m: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % m
    };
    for _ in 0..ops {
        let k = key(next(1200));
        match next(10) {
            0 => db.delete(&k).unwrap(),
            1..=7 => db.put(&k, &value(next(1000), 120)).unwrap(),
            _ => {
                db.get(&k).unwrap();
            }
        }
    }
}

/// Tentpole acceptance: from a real run's journal, the causal ancestry of
/// a GC reaches back through the merge that triggered it and the flush
/// that triggered the merge, all the way to the seal that froze the
/// memtable — every hop an explicit `cause` link.
#[test]
fn causal_chain_connects_seal_flush_merge_gc() {
    let env = MemEnv::shared();
    let db = UniKv::open(env.clone(), "/db", journal_opts()).unwrap();
    drive(&db, 10_000);
    drop(db);

    let events = read_events(env.as_ref(), std::path::Path::new("/db"));
    assert!(!events.is_empty(), "journal is empty after a 10k-op run");

    // An organically-triggered GC (cause set) must exist in this workload.
    let gc = events
        .iter()
        .find(|e| {
            e.kind == EventKind::GcFinish && {
                let start = events.iter().find(|s| Some(s.seq) == e.cause);
                start.is_some_and(|s| s.cause.is_some())
            }
        })
        .unwrap_or_else(|| panic!("no organically-caused GC in {} events", events.len()));

    let chain = causal_chain(&events, gc.seq);
    assert!(chain.len() >= 6, "chain too short: {chain:?}");
    // Every hop is an explicit cause link.
    for w in chain.windows(2) {
        assert_eq!(w[1].cause, Some(w[0].seq), "disconnected link: {w:?}");
    }
    assert_eq!(chain.first().unwrap().kind, EventKind::Seal);
    assert_eq!(chain.last().unwrap().kind, EventKind::GcFinish);
    let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::FlushStart));
    assert!(kinds.contains(&EventKind::FlushFinish));
    assert!(
        kinds.contains(&EventKind::MergeFinish),
        "no merge between flush and GC: {kinds:?}"
    );
    assert!(kinds.contains(&EventKind::GcStart));

    // WAL retirement also points back at the flush that made it safe.
    let retired = events
        .iter()
        .find(|e| e.kind == EventKind::WalRetired)
        .expect("no WAL retirement recorded");
    let wal_chain = causal_chain(&events, retired.seq);
    assert_eq!(wal_chain.first().unwrap().kind, EventKind::Seal);
    assert!(wal_chain
        .iter()
        .any(|e| e.kind == EventKind::FlushStart && !e.inputs.is_empty()));

    // Splits fired too, and finish events carry the child partition ids.
    let split = events
        .iter()
        .find(|e| e.kind == EventKind::SplitFinish)
        .expect("workload never split a partition");
    assert_eq!(split.outputs.len(), 2);
}

/// Rotation: a byte-capped journal rolls to `EVENTS.old`, seq numbers stay
/// strictly monotonic across the rotation, and a reopened database keeps
/// numbering after the highest surviving seq.
#[test]
fn rotation_keeps_seq_monotonic_across_reopen() {
    let env = MemEnv::shared();
    let opts = UniKvOptions {
        event_journal_max_bytes: 1024,
        ..journal_opts()
    };
    {
        let db = UniKv::open(env.clone(), "/db", opts.clone()).unwrap();
        drive(&db, 4000);
    }
    assert!(
        env.file_exists(std::path::Path::new("/db/EVENTS.old")),
        "cap of 1 KiB never rotated"
    );
    let before = read_events(env.as_ref(), std::path::Path::new("/db"));
    let max_before = before.last().unwrap().seq;
    for w in before.windows(2) {
        assert!(w[0].seq < w[1].seq, "seq not monotonic: {w:?}");
    }

    // Reopen and force one more flush: new events continue the numbering.
    {
        let db = UniKv::open(env.clone(), "/db", opts).unwrap();
        for i in 0..50 {
            db.put(&key(90_000 + i), &value(i, 120)).unwrap();
        }
        db.flush().unwrap();
    }
    let after = read_events(env.as_ref(), std::path::Path::new("/db"));
    assert!(after.last().unwrap().seq > max_before);
    for w in after.windows(2) {
        assert!(w[0].seq < w[1].seq, "seq regressed after reopen: {w:?}");
    }
}

/// A listener that panics on the first event it sees.
struct Panicky(AtomicBool);
impl EventListener for Panicky {
    fn on_event(&self, _: &Event) {
        if !self.0.swap(true, Ordering::SeqCst) {
            panic!("listener boom");
        }
    }
}

/// A listener that records the kinds it observes.
struct Collect(Mutex<Vec<EventKind>>);
impl EventListener for Collect {
    fn on_event(&self, e: &Event) {
        self.0.lock().unwrap().push(e.kind);
    }
}

/// Listener contract: a panicking listener is caught and counted; other
/// listeners (and the journal) still run, and the database keeps serving
/// reads and writes afterwards — no poisoned locks, no failed ops.
#[test]
fn listener_panic_is_caught_counted_and_does_not_poison() {
    let env = MemEnv::shared();
    let collector = Arc::new(Collect(Mutex::new(Vec::new())));
    let mut opts = journal_opts();
    opts.listeners
        .push(Arc::new(Panicky(AtomicBool::new(false))));
    opts.listeners.push(collector.clone());

    let db = UniKv::open(env.clone(), "/db", opts).unwrap();
    for i in 0..400 {
        db.put(&key(i), &value(i, 120)).unwrap();
    }
    db.flush().unwrap();

    assert_eq!(db.listener_panics(), 1, "panic not caught exactly once");
    let seen = collector.0.lock().unwrap().clone();
    assert!(
        seen.contains(&EventKind::Seal) && seen.contains(&EventKind::FlushFinish),
        "collector behind the panicking listener missed events: {seen:?}"
    );
    // The journal (also a listener) kept writing through the panic.
    let (written, errors) = db.event_journal_stats().expect("journal enabled");
    assert!(written >= seen.len() as u64);
    assert_eq!(errors, 0);

    // Database fully operational after the panic.
    db.put(&key(9999), b"still alive").unwrap();
    assert_eq!(db.get(&key(9999)).unwrap(), Some(b"still alive".to_vec()));
}

/// The journal is advisory: a torn tail is truncated on open, a fully
/// garbage journal is discarded, and neither ever fails `UniKv::open`.
#[test]
fn damaged_journal_never_fails_open() {
    let env = MemEnv::shared();
    {
        let db = UniKv::open(env.clone(), "/db", journal_opts()).unwrap();
        for i in 0..400 {
            db.put(&key(i), &value(i, 120)).unwrap();
        }
        db.flush().unwrap();
    }
    let path = std::path::Path::new("/db").join(EVENTS_FILE);
    let intact = read_events(env.as_ref(), std::path::Path::new("/db"));
    let max_intact = intact.last().unwrap().seq;

    // Torn tail: a half-written line after a crash.
    let mut data = env.read_to_vec(&path).unwrap();
    data.extend_from_slice(b"{\"seq\":999999,\"at_us\":1,\"ki");
    let mut f = env.new_writable(&path).unwrap();
    f.append(&data).unwrap();
    f.flush().unwrap();
    drop(f);
    {
        let db = UniKv::open(env.clone(), "/db", journal_opts()).unwrap();
        db.put(&key(5000), b"x").unwrap();
        db.flush().unwrap();
    }
    let events = read_events(env.as_ref(), std::path::Path::new("/db"));
    assert!(events.iter().all(|e| e.seq != 999_999), "torn event kept");
    assert!(
        events.last().unwrap().seq > max_intact,
        "journal did not resume after the surviving prefix"
    );
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }

    // Total garbage in both generations: open still succeeds and a fresh
    // journal starts.
    for name in [EVENTS_FILE, EVENTS_OLD_FILE] {
        let mut f = env
            .new_writable(&std::path::Path::new("/db").join(name))
            .unwrap();
        f.append(b"\x00\xffnot json at all\x00").unwrap();
        f.flush().unwrap();
    }
    {
        let db = UniKv::open(env.clone(), "/db", journal_opts()).unwrap();
        db.put(&key(5001), b"y").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(&key(5001)).unwrap(), Some(b"y".to_vec()));
    }
    let events = read_events(env.as_ref(), std::path::Path::new("/db"));
    assert!(!events.is_empty(), "fresh journal after garbage is empty");
    assert_eq!(events.first().unwrap().seq, 1, "garbage must reset seq");
}

/// With the journal disabled and no listeners, nothing touches disk: no
/// `EVENTS` file exists and the journal stats report absent.
#[test]
fn disabled_journal_writes_nothing() {
    let env = MemEnv::shared();
    let db = UniKv::open(env.clone(), "/db", UniKvOptions::small_for_tests()).unwrap();
    drive(&db, 3000);
    db.flush().unwrap();
    assert!(db.event_journal_stats().is_none());
    assert_eq!(db.listener_panics(), 0);
    assert!(!env.file_exists(std::path::Path::new("/db").join(EVENTS_FILE).as_path()));
    assert!(!env.file_exists(std::path::Path::new("/db").join(EVENTS_OLD_FILE).as_path()));
}

/// Value logs as `(partition, log number)`.
type Logs = BTreeSet<(u32, u64)>;

/// The value logs of every partition directory under `/db`.
fn all_logs(env: &MemEnv) -> Logs {
    let mut out = BTreeSet::new();
    for dir in env.list_dir(Path::new("/db")).unwrap() {
        let Some(pid) = dir.to_str().and_then(|d| d.strip_prefix('p')?.parse().ok()) else {
            continue;
        };
        for name in env.list_dir(&Path::new("/db").join(&dir)).unwrap() {
            out.extend(
                name.to_str()
                    .and_then(parse_vlog_file_name)
                    .map(|n| (pid, n)),
            );
        }
    }
    out
}

/// Each published event with the value logs on disk when it fired.
struct Snapshots {
    env: Arc<MemEnv>,
    seen: Mutex<Vec<(Event, Logs)>>,
}

impl EventListener for Snapshots {
    fn on_event(&self, e: &Event) {
        let logs = all_logs(&self.env);
        self.seen.lock().unwrap().push((e.clone(), logs));
    }
}

/// GC events name only the logs GC touches: the start event lists the
/// victim logs, and the partition's logs the GC deletes (gone by the next
/// event of the run, as only a partition's own GC deletes its logs) are
/// exactly those. The finish event lists the new logs, none of which is
/// an input. Some GC of the run keeps a log, so the inputs are not simply
/// every log.
#[test]
fn gc_deletes_exactly_the_logs_its_start_event_names() {
    let env = MemEnv::shared();
    let snapshots = Arc::new(Snapshots {
        env: env.clone(),
        seen: Mutex::new(Vec::new()),
    });
    let mut opts = journal_opts();
    opts.listeners.push(snapshots.clone());
    let db = UniKv::open(env.clone(), "/db", opts).unwrap();
    drive(&db, 10_000);
    drop(db);

    let mut seen = std::mem::take(&mut *snapshots.seen.lock().unwrap());
    let end = seen.last().unwrap().0.clone();
    seen.push((end, all_logs(&env)));
    let (mut gcs, mut kept) = (0, 0);
    for (i, (start, before)) in seen.iter().enumerate() {
        if start.kind != EventKind::GcStart {
            continue;
        }
        let f = i + seen[i..]
            .iter()
            .position(|(e, _)| e.cause == Some(start.seq))
            .expect("a GC start without its end");
        let finish = &seen[f].0;
        assert_eq!(finish.kind, EventKind::GcFinish, "GC aborted: {finish:?}");
        assert!(
            finish.outputs.iter().all(|n| !start.inputs.contains(n)),
            "a new log is also an input: {start:?} {finish:?}"
        );
        let own = |logs: &Logs| -> Vec<u64> {
            logs.iter()
                .filter(|l| l.0 == start.partition)
                .map(|l| l.1)
                .collect()
        };
        let after = own(&seen[f + 1].1);
        let deleted: Vec<u64> = own(before)
            .into_iter()
            .filter(|n| !after.contains(n))
            .collect();
        assert_eq!(deleted, start.inputs, "GC deletes differ from its inputs");
        gcs += 1;
        kept += usize::from(own(before).len() > start.inputs.len());
    }
    assert!(gcs > 0, "the workload ran no GC");
    assert!(kept > 0, "none of the {gcs} GCs kept a log");
}
