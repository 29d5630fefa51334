//! One benchmark run: set up a database, drive the measured phase, and
//! collect everything the report needs.

use crate::env::{BenchEnv, IoSnapshot};
use crate::listener::{MaintListener, MaintTotals};
use crate::trace::{Span, Tracer};
use crate::workload::{generate, load_order, BenchOp, Mismatch, Model, OpKind, Workload};
use crate::workload::{KEY_SIZE, VALUE_SIZE};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use unikv::{PerfContext, UniKv, UniKvOptions};
use unikv_common::Result;
use unikv_env::fs::FsEnv;
use unikv_workload::make_value;

/// What one run does.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload to drive.
    pub workload: Workload,
    /// Seed of the load order and op stream.
    pub seed: u64,
    /// Records loaded by set-up.
    pub records: u64,
    /// Ops in the measured phase.
    pub ops: u64,
    /// Set-ups to time; the last one's database is measured.
    pub setups: usize,
    /// Directory the scratch databases are created under.
    pub work_dir: PathBuf,
}

/// UniKV at benchmark scale: the paper's parameters scaled down 64x, so
/// flush, merge, GC and split fire at this data size (the same values as
/// the experiment harness's `bench_unikv_options`). Everything else keeps
/// its product default: inline maintenance, `sync_writes: false`, metrics
/// on, an 8 MiB block cache and 32 value-fetch threads.
pub fn bench_options(listener: Arc<MaintListener>) -> UniKvOptions {
    let mut opts = UniKvOptions {
        write_buffer_size: 256 << 10,
        table_size: 256 << 10,
        unsorted_limit_bytes: 2 << 20,
        scan_merge_limit: 6,
        partition_size_limit: 8 << 20,
        max_log_size: 1 << 20,
        gc_min_bytes: 2 << 20,
        ..Default::default()
    };
    opts.listeners.push(listener);
    opts
}

/// A scratch directory, removed with everything in it when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh directory under `base`.
    pub fn new(base: &Path) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("db-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// Its path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

// Field order is drop order: the database closes before its directory
// is removed.
struct Db {
    db: UniKv,
    env: BenchEnv,
    listener: Arc<MaintListener>,
    dir: ScratchDir,
}

fn setup(cfg: &Config, model: &Model, tracer: Option<Arc<Tracer>>) -> Result<(Db, f64)> {
    let order = load_order(cfg.records, cfg.seed);
    let dir = ScratchDir::new(&cfg.work_dir)?;
    let env = BenchEnv::new(FsEnv::shared(), tracer.clone());
    let listener = MaintListener::new(tracer);
    let start = Instant::now();
    let db = UniKv::open(
        Arc::new(env.clone()),
        dir.path(),
        bench_options(listener.clone()),
    )?;
    for &i in &order {
        db.put(model.key(i), &make_value(i, 0, VALUE_SIZE))?;
    }
    db.flush()?;
    let secs = start.elapsed().as_secs_f64();
    Ok((
        Db {
            db,
            env,
            listener,
            dir,
        },
        secs,
    ))
}

/// Index into per-kind arrays.
pub fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Get => 0,
        OpKind::Put => 1,
        OpKind::Scan => 2,
    }
}

/// What the measured phase observed.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Wall seconds of the whole phase.
    pub wall_s: f64,
    /// Client-side nanoseconds of every call, by kind (see [`kind_index`]).
    pub latency_ns: [Vec<u64>; 3],
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error or a wrong result.
    pub failed: u64,
    /// The first few wrong results.
    pub mismatches: Vec<Mismatch>,
    /// User key + value bytes written by puts.
    pub user_bytes_written: u64,
    /// User key + value bytes returned by gets and scans.
    pub user_bytes_returned: u64,
    /// Merged profiles of the sampled gets and puts (traced run only).
    pub perf: [PerfContext; 2],
    /// Nanoseconds inside scans, and the part of it env reads covered
    /// (traced run only).
    pub scan_ns: u64,
    /// See `scan_ns`.
    pub scan_env_ns: u64,
    /// Database directory bytes per live user byte, sampled at
    /// [`SPACE_SAMPLES`] evenly spaced points of the phase.
    pub space_amp: Vec<f64>,
}

/// Points of the phase at which space amplification is sampled.
pub const SPACE_SAMPLES: usize = 16;

/// Run `f` as benchmark op `op`: under a span when a tracer is given.
/// Returns its result and client-side duration in nanoseconds.
fn call<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let Some(t) = tracer else {
        let start = Instant::now();
        let r = f();
        return (r, start.elapsed().as_nanos() as u64);
    };
    let id = t.alloc_id();
    let prev = t.enter(id, op);
    let start = t.now();
    let r = f();
    let end = t.now();
    t.leave(prev);
    t.push(Span {
        id,
        parent: 0,
        name,
        start_ns: start,
        end_ns: end,
        op,
        cause: None,
        bytes: 0,
    });
    (r, end - start)
}

const MAX_MISMATCHES: usize = 8;

/// In the traced run, every this-many-th op is profiled and kept as a
/// span.
pub const SAMPLE_EVERY: u64 = 8;

fn fail(st: &mut PhaseStats, m: Option<Mismatch>) {
    st.failed += 1;
    if let Some(m) = m {
        if st.mismatches.len() < MAX_MISMATCHES {
            st.mismatches.push(m);
        }
    }
}

fn phase(
    db: &UniKv,
    dir: &Path,
    ops: &[BenchOp],
    model: &mut Model,
    tracer: Option<&Tracer>,
) -> PhaseStats {
    let mut st = PhaseStats::default();
    // Size the latency vectors up front: no reallocation inside the phase.
    let mut per_kind = [0usize; 3];
    for op in ops {
        per_kind[kind_index(op.kind)] += 1;
    }
    for (v, n) in st.latency_ns.iter_mut().zip(per_kind) {
        v.reserve_exact(n);
    }
    let space_every = (ops.len() / SPACE_SAMPLES).max(1);
    let start = Instant::now();
    for (n, op) in ops.iter().enumerate() {
        if (n + 1) % space_every == 0 && st.space_amp.len() < SPACE_SAMPLES {
            let live = model.records() * (KEY_SIZE + VALUE_SIZE) as u64;
            let bytes = dir_bytes(dir).unwrap_or(0);
            st.space_amp.push(bytes as f64 / live as f64);
        }
        let op_no = n as u64 + 1;
        let sampled = tracer.filter(|_| (n as u64).is_multiple_of(SAMPLE_EVERY));
        let key = model.key(op.idx);
        let ns = match op.kind {
            OpKind::Get => {
                let (r, ns) = match sampled {
                    Some(t) => call(Some(t), "op.get", op_no, || db.get_profiled(key)),
                    None => {
                        let (r, ns) = call(None, "op.get", op_no, || db.get(key));
                        (r.map(|v| (v, PerfContext::default())), ns)
                    }
                };
                match r {
                    Ok((v, ctx)) => {
                        st.perf[0].merge(&ctx);
                        match model.check_get(op.idx, v.as_deref()) {
                            Ok(()) => st.user_bytes_returned += (key.len() + VALUE_SIZE) as u64,
                            Err(m) => fail(&mut st, Some(m)),
                        }
                    }
                    Err(_) => fail(&mut st, None),
                }
                ns
            }
            OpKind::Put => {
                let value = model.next_value(op.idx);
                let (r, ns) = match sampled {
                    Some(t) => call(Some(t), "op.put", op_no, || db.put_profiled(key, &value)),
                    None => {
                        let (r, ns) = call(None, "op.put", op_no, || db.put(key, &value));
                        (r.map(|()| PerfContext::default()), ns)
                    }
                };
                match r {
                    Ok(ctx) => {
                        st.perf[1].merge(&ctx);
                        st.user_bytes_written += (key.len() + value.len()) as u64;
                        model.commit_put(op.idx);
                    }
                    Err(_) => fail(&mut st, None),
                }
                ns
            }
            OpKind::Scan => {
                let len = op.len as usize;
                let scan_start = tracer.map(|t| {
                    t.begin_scan();
                    t.now()
                });
                let (r, ns) = call(sampled, "op.scan", op_no, || db.scan(key, len));
                if let (Some(t), Some(s)) = (tracer, scan_start) {
                    let e = t.now();
                    st.scan_ns += e - s;
                    st.scan_env_ns += t.end_scan(s, e);
                }
                match r {
                    Ok(items) => {
                        let pairs: Vec<(&[u8], &[u8])> = items
                            .iter()
                            .map(|i| (i.key.as_slice(), i.value.as_slice()))
                            .collect();
                        match model.check_scan(op.idx, len, &pairs) {
                            Ok(()) => {
                                st.user_bytes_returned += pairs
                                    .iter()
                                    .map(|(k, v)| (k.len() + v.len()) as u64)
                                    .sum::<u64>()
                            }
                            Err(m) => fail(&mut st, Some(m)),
                        }
                    }
                    Err(_) => fail(&mut st, None),
                }
                ns
            }
        };
        st.latency_ns[kind_index(op.kind)].push(ns);
        st.attempted += 1;
    }
    st.wall_s = start.elapsed().as_secs_f64();
    st
}

/// Everything one run observed about the measured database.
#[derive(Debug)]
pub struct RunResult {
    /// Seconds of each set-up, in order.
    pub setup_s: Vec<f64>,
    /// The measured phase.
    pub phase: PhaseStats,
    /// Env counters over set-up plus phase.
    pub io_total: IoSnapshot,
    /// Env counters over the phase.
    pub io_phase: IoSnapshot,
    /// `UniKv::stats()` deltas over the phase.
    pub stats_phase: BTreeMap<String, u64>,
    /// Metrics-registry counter deltas over the phase.
    pub counters_phase: BTreeMap<String, u64>,
    /// Maintenance jobs over the phase.
    pub maint_phase: MaintTotals,
    /// Env nanoseconds inside maintenance jobs (traced run only).
    pub maint_env_ns: u64,
    /// User key + value bytes written by set-up.
    pub user_bytes_setup: u64,
    /// Bytes of every file in the database directory at the end.
    pub dir_bytes: u64,
    /// Hash-index memory at the end.
    pub index_memory_bytes: u64,
    /// Partitions at the end.
    pub partitions: u64,
    /// Spans kept (traced run only).
    pub spans: usize,
}

fn stats_map(db: &UniKv) -> BTreeMap<String, u64> {
    db.stats()
        .snapshot()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn delta(after: BTreeMap<String, u64>, before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .into_iter()
        .map(|(k, v)| {
            let b = before.get(&k).copied().unwrap_or(0);
            (k, v.saturating_sub(b))
        })
        .collect()
}

/// Set up `cfg.setups` times and drive the measured phase on the last
/// database. With `trace`, the phase is traced and its spans are written
/// to `trace_out`.
pub fn run(cfg: &Config, trace: bool, trace_out: Option<&Path>) -> Result<RunResult> {
    let ops = generate(cfg.workload, cfg.records, cfg.ops, cfg.seed);
    let mut model = Model::new(cfg.records, &ops);
    let tracer = trace.then(|| Arc::new(Tracer::new()));

    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut measured = None;
    for _ in 0..cfg.setups.max(1) {
        // Drop the previous database (and its directory) before the next.
        drop(measured.take());
        let (db, secs) = setup(cfg, &model, tracer.clone())?;
        setup_s.push(secs);
        measured = Some(db);
    }
    let Db {
        db,
        env,
        listener,
        dir,
    } = measured.expect("at least one set-up");

    let io0 = env.snapshot();
    let stats0 = stats_map(&db);
    let counters0 = db.metrics_snapshot().counters;
    let maint0 = listener.totals();
    if let Some(t) = &tracer {
        t.enable();
    }
    let phase = phase(&db, dir.path(), &ops, &mut model, tracer.as_deref());
    let io1 = env.snapshot();
    let stats_phase = delta(stats_map(&db), &stats0);
    let counters_phase = delta(db.metrics_snapshot().counters, &counters0);
    let maint_phase = listener.totals().since(&maint0);
    let index_memory_bytes = db.index_memory_bytes() as u64;
    let partitions = db.partition_count() as u64;
    drop(db);
    let dir_bytes = dir_bytes(dir.path())?;

    let (maint_env_ns, spans) = match &tracer {
        Some(t) => {
            if let Some(path) = trace_out {
                t.write_jsonl(path)?;
            }
            (t.maint_env_ns(), t.span_count())
        }
        None => (0, 0),
    };
    Ok(RunResult {
        setup_s,
        phase,
        io_total: io1,
        io_phase: io1.since(&io0),
        stats_phase,
        counters_phase,
        maint_phase,
        maint_env_ns,
        user_bytes_setup: cfg.records * (KEY_SIZE + VALUE_SIZE) as u64,
        dir_bytes,
        index_memory_bytes,
        partitions,
        spans,
    })
}
