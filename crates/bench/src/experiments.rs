//! The experiment suite: one function per paper table/figure.
//! See DESIGN.md §3 for the experiment index (E1–E14) and EXPERIMENTS.md
//! for paper-vs-measured results.

use crate::engine::{bench_unikv_options, make_engine, EngineSpec};
use crate::harness::{
    f1, f2, kops, load_phase, mb, read_phase, run_ycsb, scan_phase, update_phase, BenchConfig,
    Table,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use unikv::UniKv;
use unikv_common::Result;
use unikv_env::metrics::CountingEnv;
use unikv_env::{fs::FsEnv, mem::MemEnv, Env};
use unikv_hashstore::{HashStore, HashStoreOptions};
use unikv_lsm::{Baseline, LsmDb};
use unikv_workload::{format_key, make_value, YcsbKind, YcsbWorkload};

/// Workspace for one engine instance: env + unique directory, removed on
/// drop when filesystem-backed.
pub struct Workspace {
    /// The environment to open the engine with.
    pub env: Arc<dyn Env>,
    /// Engine directory.
    pub dir: PathBuf,
    fs_root: Option<PathBuf>,
}

impl Workspace {
    /// Create a fresh workspace according to `cfg`.
    pub fn new(cfg: &BenchConfig, tag: &str) -> Workspace {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        if cfg.use_mem_env {
            Workspace {
                env: MemEnv::shared(),
                dir: PathBuf::from(format!("/bench-{tag}-{id}")),
                fs_root: None,
            }
        } else {
            let root = std::env::temp_dir().join(format!(
                "unikv-bench-{}-{tag}-{id}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            Workspace {
                env: Arc::new(FsEnv::new()),
                dir: root.clone(),
                fs_root: Some(root),
            }
        }
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        if let Some(root) = &self.fs_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// E1 / paper Fig. 2a (motivation): a RAM-bounded hash-indexed store beats
/// the LSM at small scale and falls behind as data grows (and cannot scan).
pub fn motivation_hash_vs_lsm(cfg: &BenchConfig) -> Result<()> {
    let sizes: Vec<u64> = [1u64, 2, 5, 10]
        .iter()
        .map(|m| (cfg.num_keys / 10 * m).max(1000))
        .collect();
    let mut t = Table::new(
        "E1  motivation: hash store vs LSM as data grows (random-read KOPS)",
        &["keys", "HashStore", "LevelDB", "hash avg probes"],
    );
    for &n in &sizes {
        // Hash store with a fixed, small bucket budget.
        let ws = Workspace::new(cfg, "e1h");
        let hs = HashStore::create(
            ws.env.clone(),
            ws.dir.clone(),
            HashStoreOptions {
                num_buckets: 1 << 10,
                sync_writes: false,
            },
        )?;
        for i in 0..n {
            hs.put(&format_key(i), &make_value(i, 0, cfg.value_size))?;
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let reads = cfg.num_ops.min(20_000);
        let start = Instant::now();
        let mut probes = 0u64;
        for _ in 0..reads {
            let k = rng.gen_range(0..n);
            let (v, visited) = hs.get_traced(&format_key(k))?;
            assert!(v.is_some());
            probes += visited;
        }
        let hash_kops = kops(reads, start.elapsed().as_secs_f64());
        let avg_probes = probes as f64 / reads as f64;

        let ws = Workspace::new(cfg, "e1l");
        let ldb = make_engine(EngineSpec::Lsm(Baseline::LevelDb), ws.env.clone(), &ws.dir)?;
        load_phase(ldb.as_ref(), n, cfg.value_size, true, cfg.seed)?;
        let r = read_phase(ldb.as_ref(), reads, n, cfg.seed)?;
        t.row(
            format!("{n}"),
            vec![f1(hash_kops), f1(r.kops()), f2(avg_probes)],
        );
    }
    t.print();
    println!("note: the hash store cannot serve range scans at any size.");
    Ok(())
}

/// E2 / paper §II (motivation): under a skewed read workload the deepest
/// LSM level holds most tables but receives few accesses.
pub fn motivation_skew(cfg: &BenchConfig) -> Result<()> {
    let ws = Workspace::new(cfg, "e2");
    // A deeper tree than the throughput benches: the hot working set must
    // fit strictly above the last level, as it does at the paper's scale.
    let mut opts = crate::engine::bench_lsm_options(Baseline::LevelDb);
    opts.write_buffer_size = 128 << 10;
    opts.table_size = 128 << 10;
    opts.base_level_bytes = 512 << 10;
    let db = LsmDb::open(ws.env.clone(), &ws.dir, opts)?;
    let n = cfg.num_keys;
    let mut order: Vec<u64> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for &i in &order {
        db.put(&format_key(i), &make_value(i, 0, cfg.value_size))?;
    }
    db.flush()?;
    db.compact_all()?;
    // Zipfian mixed read/update stream: real KV workloads revisit what
    // they recently wrote, which keeps hot keys in the upper levels — the
    // locality UniKV exploits.
    let mut w = unikv_workload::ScrambledZipfian::new(n);
    use unikv_workload::KeyChooser;
    // Warm-up: updates move the hot working set into the upper levels.
    for _ in 0..cfg.num_ops * 2 {
        let k = w.next_key(&mut rng, n);
        db.put(&format_key(k), &make_value(k, 1, cfg.value_size))?;
    }
    // Measured phase: reads only, so tables are stable and their access
    // counters accumulate without compaction churn resetting them.
    for _ in 0..cfg.num_ops * 2 {
        let k = w.next_key(&mut rng, n);
        let _ = db.get(&format_key(k))?;
    }
    let summary = db.version_summary();
    let total_tables: u64 = summary.iter().map(|(_, fs)| fs.len() as u64).sum();
    let total_accesses: u64 = summary
        .iter()
        .flat_map(|(_, fs)| fs.iter().map(|(_, _, a)| *a))
        .sum();
    let mut t = Table::new(
        "E2  motivation: per-level SSTable access skew (zipfian reads)",
        &["tables", "%tables", "accesses", "%accesses", "accesses/table"],
    );
    for (level, files) in &summary {
        if files.is_empty() {
            continue;
        }
        let tables = files.len() as u64;
        let accesses: u64 = files.iter().map(|(_, _, a)| *a).sum();
        t.row(
            format!("L{level}"),
            vec![
                tables.to_string(),
                f1(100.0 * tables as f64 / total_tables.max(1) as f64),
                accesses.to_string(),
                f1(100.0 * accesses as f64 / total_accesses.max(1) as f64),
                f1(accesses as f64 / tables.max(1) as f64),
            ],
        );
    }
    t.print();
    println!("paper claim: recently flushed (upper-level) tables serve far more");
    println!("requests per table; the last level holds most tables but a small");
    println!("per-table share — the locality UniKV's differentiated indexing uses.");
    Ok(())
}

/// E3 / paper Exp#1 (Fig. 6): microbenchmarks — load, random read, scan,
/// update — UniKV vs the four baselines.
pub fn micro(cfg: &BenchConfig) -> Result<()> {
    let mut t = Table::new(
        "E3  microbenchmarks (KOPS)",
        &["load", "read", "scan", "update"],
    );
    for spec in EngineSpec::comparison_set() {
        let ws = Workspace::new(cfg, "e3");
        let e = make_engine(spec, ws.env.clone(), &ws.dir)?;
        let load_secs = load_phase(e.as_ref(), cfg.num_keys, cfg.value_size, true, cfg.seed)?;
        let read = read_phase(e.as_ref(), cfg.num_ops, cfg.num_keys, cfg.seed + 1)?;
        let scans = (cfg.num_ops / 50).max(100);
        let scan = scan_phase(e.as_ref(), scans, 50, cfg.num_keys, cfg.seed + 2)?;
        let update = update_phase(
            e.as_ref(),
            cfg.num_ops,
            cfg.num_keys,
            cfg.value_size,
            cfg.seed + 3,
        )?;
        t.row(
            e.name(),
            vec![
                f1(kops(cfg.num_keys, load_secs)),
                f1(read.kops()),
                f1(scan.kops()),
                f1(update.kops()),
            ],
        );
    }
    t.print();
    Ok(())
}

/// E4 / paper Exp#2 (Fig. 7): mixed read-write workloads, zipfian keys,
/// read ratio swept 0–100%.
pub fn mixed(cfg: &BenchConfig) -> Result<()> {
    let ratios = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut t = Table::new(
        "E4  mixed read-write throughput (KOPS) by read ratio",
        &["0%", "25%", "50%", "75%", "100%"],
    );
    for spec in EngineSpec::comparison_set() {
        let mut cells = Vec::new();
        for &ratio in &ratios {
            let ws = Workspace::new(cfg, "e4");
            let e = make_engine(spec, ws.env.clone(), &ws.dir)?;
            load_phase(e.as_ref(), cfg.num_keys, cfg.value_size, true, cfg.seed)?;
            let mut w =
                unikv_workload::MixedWorkload::new(ratio, cfg.num_keys, false, cfg.seed + 9);
            let start = Instant::now();
            for i in 0..cfg.num_ops {
                match w.next_op() {
                    unikv_workload::Op::Read(k) => {
                        let _ = e.get(&k)?;
                    }
                    unikv_workload::Op::Update(k) => {
                        e.put(&k, &make_value(i, 4, cfg.value_size))?;
                    }
                    _ => unreachable!(),
                }
            }
            cells.push(f1(kops(cfg.num_ops, start.elapsed().as_secs_f64())));
        }
        t.row(spec.name(), cells);
    }
    t.print();
    Ok(())
}

/// E5 / paper Exp#3 (Fig. 8): scalability with dataset size.
pub fn scalability(cfg: &BenchConfig) -> Result<()> {
    let sizes: Vec<u64> = [1u64, 2, 4, 8]
        .iter()
        .map(|m| cfg.num_keys / 4 * m)
        .collect();
    let mut load_t = Table::new(
        "E5a scalability: load throughput (KOPS) by dataset size",
        &sizes
            .iter()
            .map(|n| format!("{n}"))
            .collect::<Vec<_>>()
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>(),
    );
    let mut read_t = Table::new(
        "E5b scalability: random-read throughput (KOPS) by dataset size",
        &sizes
            .iter()
            .map(|n| format!("{n}"))
            .collect::<Vec<_>>()
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>(),
    );
    for spec in EngineSpec::comparison_set() {
        let mut load_cells = Vec::new();
        let mut read_cells = Vec::new();
        for &n in &sizes {
            let ws = Workspace::new(cfg, "e5");
            let e = make_engine(spec, ws.env.clone(), &ws.dir)?;
            let secs = load_phase(e.as_ref(), n, cfg.value_size, true, cfg.seed)?;
            load_cells.push(f1(kops(n, secs)));
            let reads = cfg.num_ops.min(n);
            let r = read_phase(e.as_ref(), reads, n, cfg.seed + 1)?;
            read_cells.push(f1(r.kops()));
        }
        load_t.row(spec.name(), load_cells);
        read_t.row(spec.name(), read_cells);
    }
    load_t.print();
    read_t.print();
    Ok(())
}

/// E6 / paper Exp#4 (Fig. 9): YCSB core workloads A–F.
pub fn ycsb(cfg: &BenchConfig) -> Result<()> {
    let mut t = Table::new(
        "E6  YCSB A-F throughput (KOPS)",
        &["A", "B", "C", "D", "E", "F"],
    );
    for spec in EngineSpec::comparison_set() {
        let mut cells = Vec::new();
        for kind in YcsbKind::all() {
            let ws = Workspace::new(cfg, "e6");
            let e = make_engine(spec, ws.env.clone(), &ws.dir)?;
            load_phase(e.as_ref(), cfg.num_keys, cfg.value_size, true, cfg.seed)?;
            let ops = if kind == YcsbKind::E {
                cfg.num_ops / 10 // scans are ~50x heavier per op
            } else {
                cfg.num_ops
            }
            .max(100);
            let mut w = YcsbWorkload::new(kind, cfg.num_keys, cfg.seed + 20);
            let r = run_ycsb(e.as_ref(), &mut w, ops, cfg.value_size)?;
            cells.push(f1(r.kops()));
        }
        t.row(spec.name(), cells);
    }
    t.print();
    for kind in YcsbKind::all() {
        println!("  {}: {}", kind.name(), kind.description());
    }
    Ok(())
}

/// E7 / paper Exp#5 ablation: the two-level hash index.
pub fn ablation_hash_index(cfg: &BenchConfig) -> Result<()> {
    let mut t = Table::new(
        "E7  ablation: hash indexing (zipfian-updated, uniform-read)",
        &["read KOPS", "tables checked/get", "index MB"],
    );
    for spec in [EngineSpec::UniKv, EngineSpec::UniKvNoHashIndex] {
        let ws = Workspace::new(cfg, "e7");
        let mut opts = bench_unikv_options();
        if spec == EngineSpec::UniKvNoHashIndex {
            opts.enable_hash_index = false;
        }
        // Big unsorted budget so reads hit the unsorted tier — the tier
        // the index accelerates.
        opts.unsorted_limit_bytes = 64 << 20;
        opts.enable_scan_optimization = false; // keep tables overlapping
        let db = UniKv::open(ws.env.clone(), &ws.dir, opts)?;
        // Random insertion order: every UnsortedStore table spans nearly
        // the whole key range, the regime hash indexing targets.
        let mut order: Vec<u64> = (0..cfg.num_keys).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &i in &order {
            db.put(&format_key(i), &make_value(i, 0, cfg.value_size))?;
        }
        let start = Instant::now();
        for _ in 0..cfg.num_ops {
            let k = rng.gen_range(0..cfg.num_keys);
            assert!(db.get(&format_key(k))?.is_some());
        }
        let secs = start.elapsed().as_secs_f64();
        let checked = db.stats().tables_checked.load(Ordering::Relaxed);
        t.row(
            spec.name(),
            vec![
                f1(kops(cfg.num_ops, secs)),
                f2(checked as f64 / cfg.num_ops as f64),
                f2(db.index_memory_bytes() as f64 / (1 << 20) as f64),
            ],
        );
    }
    t.print();
    Ok(())
}

/// E8 / paper Exp#5 ablation: partial KV separation (merge cost).
///
/// Phase 1 loads and merges everything into the SortedStore; phase 2
/// writes a *new* batch of keys and merges again. With separation, the
/// second merge moves keys+pointers only — phase-1 values are never
/// rewritten. Without it, every merge rewrites all values it touches.
pub fn ablation_kv_separation(cfg: &BenchConfig) -> Result<()> {
    let mut t = Table::new(
        "E8  ablation: partial KV separation",
        &["load KOPS", "write amp", "2nd-merge MB", "total MB written"],
    );
    for spec in [EngineSpec::UniKv, EngineSpec::UniKvNoSeparation] {
        let ws = Workspace::new(cfg, "e8");
        let e = make_engine(spec, ws.env.clone(), &ws.dir)?;
        let merge_mb = |e: &dyn crate::engine::BenchEngine| {
            e.stats_lines()
                .iter()
                .find_map(|l| l.strip_prefix("merge_bytes_written=").map(str::to_string))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        let secs = load_phase(e.as_ref(), cfg.num_keys, cfg.value_size, true, cfg.seed)?;
        e.compact()?; // phase 1: everything merged into the SortedStore
        let after_phase1 = merge_mb(e.as_ref());
        // Phase 2: fresh keys beyond the loaded range, then merge again.
        for i in cfg.num_keys..cfg.num_keys + cfg.num_keys / 2 {
            e.put(&format_key(i), &make_value(i, 5, cfg.value_size))?;
        }
        e.compact()?;
        let second_merge = merge_mb(e.as_ref()) - after_phase1;
        let total_written = merge_mb(e.as_ref());
        t.row(
            spec.name(),
            vec![
                f1(kops(cfg.num_keys, secs)),
                f2(e.write_amplification().unwrap_or(0.0)),
                mb(second_merge),
                mb(total_written),
            ],
        );
    }
    t.print();
    Ok(())
}

/// E9 / paper Exp#5 ablation: dynamic range partitioning (scalability).
///
/// Without partitioning the single SortedStore run grows unboundedly, so
/// every UnsortedStore merge rewrites the whole store — merge cost (and
/// write amplification) grows linearly with data. Partitioning bounds the
/// merge input to one partition. The dataset is swept well past
/// `partition_size_limit` so several splits amortize.
pub fn ablation_partitioning(cfg: &BenchConfig) -> Result<()> {
    let sizes: Vec<u64> = [1u64, 2, 4].iter().map(|m| cfg.num_keys * m).collect();
    let headers: Vec<String> = sizes
        .iter()
        .flat_map(|n| [format!("{n} kops"), format!("{n} WA")])
        .collect();
    let mut t = Table::new(
        "E9  ablation: dynamic range partitioning (load KOPS / write amp by size)",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for spec in [EngineSpec::UniKv, EngineSpec::UniKvNoPartitioning] {
        let mut cells = Vec::new();
        for &n in &sizes {
            let ws = Workspace::new(cfg, "e9");
            let e = make_engine(spec, ws.env.clone(), &ws.dir)?;
            let load_secs = load_phase(e.as_ref(), n, cfg.value_size, true, cfg.seed)?;
            // Uniform overwrite churn creates log garbage past the GC
            // threshold, forcing GC — whose cost is what unbounded
            // partitions actually pay (paper §GC: "GC overhead would
            // become large as levels grow"): a monolithic partition's GC
            // rewrites every live value, a split one only its share.
            let upd = crate::harness::update_phase_dist(
                e.as_ref(),
                n * 3 / 2,
                n,
                cfg.value_size,
                cfg.seed + 3,
                true,
            )?;
            e.compact()?;
            cells.push(f1(kops(n + n * 3 / 2, load_secs + upd.secs)));
            cells.push(f2(e.write_amplification().unwrap_or(0.0)));
        }
        t.row(spec.name(), cells);
    }
    t.print();
    Ok(())
}

/// E10 / paper Exp#5 ablation: scan optimizations.
pub fn ablation_scan(cfg: &BenchConfig) -> Result<()> {
    let lens = [10usize, 100, 1000];
    let mut t = Table::new(
        "E10 ablation: scan optimization (scan KOPS by scan length)",
        &["len=10", "len=100", "len=1000"],
    );
    for spec in [EngineSpec::UniKv, EngineSpec::UniKvNoScanOpt] {
        let ws = Workspace::new(cfg, "e10");
        let e = make_engine(spec, ws.env.clone(), &ws.dir)?;
        load_phase(e.as_ref(), cfg.num_keys, cfg.value_size, true, cfg.seed)?;
        let mut cells = Vec::new();
        for &len in &lens {
            let scans = (cfg.num_ops / len as u64).clamp(20, 2000);
            let r = scan_phase(e.as_ref(), scans, len, cfg.num_keys, cfg.seed + 6)?;
            cells.push(f1(r.kops()));
        }
        t.row(spec.name(), cells);
    }
    t.print();
    Ok(())
}

/// E11 / paper §I/O Cost Analysis: measured read/write amplification.
pub fn amplification(cfg: &BenchConfig) -> Result<()> {
    let mut t = Table::new(
        "E11 I/O amplification during load + zipfian overwrite",
        &["engine WA", "device WA", "device RA(read phase)"],
    );
    for spec in EngineSpec::comparison_set() {
        let inner: Arc<dyn Env> = if cfg.use_mem_env {
            MemEnv::shared()
        } else {
            Arc::new(FsEnv::new())
        };
        let counting = CountingEnv::new(inner);
        let counters = counting.counters();
        let dir = std::env::temp_dir().join(format!(
            "unikv-bench-{}-e11-{}",
            std::process::id(),
            spec.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let e = make_engine(spec, counting.clone(), &dir)?;
        let user_bytes =
            cfg.num_keys * (16 + cfg.value_size as u64) + cfg.num_ops * (16 + cfg.value_size as u64);
        load_phase(e.as_ref(), cfg.num_keys, cfg.value_size, true, cfg.seed)?;
        update_phase(
            e.as_ref(),
            cfg.num_ops,
            cfg.num_keys,
            cfg.value_size,
            cfg.seed + 7,
        )?;
        e.flush()?;
        // Atomic drain: background maintenance threads may still be
        // accounting I/O here, and read-then-reset would drop their bytes.
        let (_, written_so_far) = counters.snapshot_and_reset();
        let device_wa = written_so_far as f64 / user_bytes as f64;
        let reads = cfg.num_ops.min(10_000);
        read_phase(e.as_ref(), reads, cfg.num_keys, cfg.seed + 8)?;
        let device_ra =
            counters.bytes_read() as f64 / (reads * (16 + cfg.value_size as u64)) as f64;
        t.row(
            spec.name(),
            vec![
                f2(e.write_amplification().unwrap_or(f64::NAN)),
                f2(device_wa),
                f2(device_ra),
            ],
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    t.print();
    Ok(())
}

/// E12 / paper §Memory overhead: hash-index memory vs data size
/// (claim: <1% of the UnsortedStore-resident data, ~8 B/key). "index KB"
/// is the paper's logical 8 B per entry (`UniKv::index_memory_bytes`),
/// not heap bytes: the flat index holds 12 B per entry plus 4 B per bucket.
pub fn memory_overhead(cfg: &BenchConfig) -> Result<()> {
    let mut t = Table::new(
        "E12 hash-index memory overhead",
        &["index KB", "data MB", "index/data %", "entries"],
    );
    for mult in [1u64, 2, 4] {
        let n = cfg.num_keys / 2 * mult;
        let ws = Workspace::new(cfg, "e12");
        let db = UniKv::open(ws.env.clone(), &ws.dir, bench_unikv_options())?;
        for i in 0..n {
            db.put(&format_key(i), &make_value(i, 0, cfg.value_size))?;
        }
        let idx = db.index_memory_bytes() as f64;
        let data = db.logical_bytes() as f64;
        t.row(
            format!("{n} keys"),
            vec![
                f1(idx / 1024.0),
                f1(data / (1 << 20) as f64),
                f2(100.0 * idx / data.max(1.0)),
                format!("{}", db.index_memory_bytes() / 8),
            ],
        );
    }
    t.print();
    println!("note: the index covers only the bounded UnsortedStore, so its");
    println!("footprint stays flat as total data grows — the paper's <1% claim.");
    Ok(())
}

/// E13 / paper §Crash Consistency: recovery time vs checkpoint cadence.
pub fn recovery(cfg: &BenchConfig) -> Result<()> {
    let mut t = Table::new(
        "E13 recovery time after load (hash-index checkpoint cadence)",
        &["reopen ms", "partitions"],
    );
    for interval in [1u32, 4, 16] {
        let ws = Workspace::new(cfg, "e13");
        let mut opts = bench_unikv_options();
        opts.index_checkpoint_interval = interval;
        {
            let db = UniKv::open(ws.env.clone(), &ws.dir, opts.clone())?;
            for i in 0..cfg.num_keys {
                db.put(&format_key(i), &make_value(i, 0, cfg.value_size))?;
            }
        }
        let start = Instant::now();
        let db = UniKv::open(ws.env.clone(), &ws.dir, opts)?;
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        // Sanity: recovered data is readable.
        assert!(db.get(&format_key(0))?.is_some());
        t.row(
            format!("ckpt every {interval} flushes"),
            vec![f1(ms), db.partition_count().to_string()],
        );
    }
    t.print();
    Ok(())
}

/// E14 / paper §Design parameters: sensitivity to `unsorted_limit` and
/// value size.
pub fn sensitivity(cfg: &BenchConfig) -> Result<()> {
    let mut t = Table::new(
        "E14a sensitivity: unsorted_limit (× write buffer)",
        &["load KOPS", "read KOPS", "merges"],
    );
    for mult in [2u64, 4, 8, 16] {
        let ws = Workspace::new(cfg, "e14a");
        let mut opts = bench_unikv_options();
        opts.unsorted_limit_bytes = mult * opts.write_buffer_size as u64;
        let db = UniKv::open(ws.env.clone(), &ws.dir, opts)?;
        let start = Instant::now();
        for i in 0..cfg.num_keys {
            db.put(&format_key(i), &make_value(i, 0, cfg.value_size))?;
        }
        let load_secs = start.elapsed().as_secs_f64();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let reads = cfg.num_ops.min(20_000);
        let start = Instant::now();
        for _ in 0..reads {
            let k = rng.gen_range(0..cfg.num_keys);
            let _ = db.get(&format_key(k))?;
        }
        let read_secs = start.elapsed().as_secs_f64();
        t.row(
            format!("{mult}x"),
            vec![
                f1(kops(cfg.num_keys, load_secs)),
                f1(kops(reads, read_secs)),
                db.stats().merges.load(Ordering::Relaxed).to_string(),
            ],
        );
    }
    t.print();

    let mut t = Table::new(
        "E14b sensitivity: value size",
        &["load MB/s", "read KOPS"],
    );
    for vsize in [64usize, 256, 1024, 4096] {
        let n = (cfg.num_keys * cfg.value_size as u64 / vsize as u64).max(2_000);
        let ws = Workspace::new(cfg, "e14b");
        let db = UniKv::open(ws.env.clone(), &ws.dir, bench_unikv_options())?;
        let start = Instant::now();
        for i in 0..n {
            db.put(&format_key(i), &make_value(i, 0, vsize))?;
        }
        let load_secs = start.elapsed().as_secs_f64();
        let mbps = (n * vsize as u64) as f64 / (1 << 20) as f64 / load_secs;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let reads = cfg.num_ops.min(20_000).min(n);
        let start = Instant::now();
        for _ in 0..reads {
            let k = rng.gen_range(0..n);
            let _ = db.get(&format_key(k))?;
        }
        t.row(
            format!("{vsize}B"),
            vec![f1(mbps), f1(kops(reads, start.elapsed().as_secs_f64()))],
        );
    }
    t.print();
    Ok(())
}

/// E15 / paper §Memory overhead mitigation: size-differentiated store
/// routing for small-value workloads (small KVs → classic LSM, sparing
/// them per-entry hash-index cost; large KVs → UniKV).
pub fn router(cfg: &BenchConfig) -> Result<()> {
    use unikv::{SizeRouter, SizeRouterOptions};
    let mut t = Table::new(
        "E15 size-routed store vs plain UniKV on small values",
        &["load KOPS", "read KOPS", "index KB"],
    );
    let n = cfg.num_keys / 2;
    let small_value = 48usize;

    // Plain UniKV on an all-small workload.
    {
        let ws = Workspace::new(cfg, "e15u");
        let db = UniKv::open(ws.env.clone(), &ws.dir, bench_unikv_options())?;
        let start = Instant::now();
        for i in 0..n {
            db.put(&format_key(i), &make_value(i, 0, small_value))?;
        }
        let load = start.elapsed().as_secs_f64();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let reads = cfg.num_ops.min(20_000);
        let start = Instant::now();
        for _ in 0..reads {
            let k = rng.gen_range(0..n);
            let _ = db.get(&format_key(k))?;
        }
        t.row(
            "UniKV",
            vec![
                f1(kops(n, load)),
                f1(kops(reads, start.elapsed().as_secs_f64())),
                f1(db.index_memory_bytes() as f64 / 1024.0),
            ],
        );
    }

    // Size router: everything below 128 B goes to the LSM side.
    {
        let ws = Workspace::new(cfg, "e15r");
        let router = SizeRouter::open(
            ws.env.clone(),
            &ws.dir,
            SizeRouterOptions {
                small_value_threshold: 128,
                lsm: crate::engine::bench_lsm_options(Baseline::LevelDb),
                unikv: bench_unikv_options(),
            },
        )?;
        let start = Instant::now();
        for i in 0..n {
            router.put(&format_key(i), &make_value(i, 0, small_value))?;
        }
        let load = start.elapsed().as_secs_f64();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let reads = cfg.num_ops.min(20_000);
        let start = Instant::now();
        for _ in 0..reads {
            let k = rng.gen_range(0..n);
            let _ = router.get(&format_key(k))?;
        }
        t.row(
            "SizeRouter",
            vec![
                f1(kops(n, load)),
                f1(kops(reads, start.elapsed().as_secs_f64())),
                f1(router.large_store().index_memory_bytes() as f64 / 1024.0),
            ],
        );
    }
    t.print();
    println!("paper §Memory overhead: for tiny values the 8 B/entry hash index");
    println!("is a poor trade; routing small KVs to a classic LSM avoids it.");
    Ok(())
}

/// Names of all experiments, in run order.
pub const ALL: &[(&str, fn(&BenchConfig) -> Result<()>)] = &[
    ("motivation-hash-vs-lsm", motivation_hash_vs_lsm),
    ("motivation-skew", motivation_skew),
    ("micro", micro),
    ("mixed", mixed),
    ("scalability", scalability),
    ("ycsb", ycsb),
    ("ablation-hash-index", ablation_hash_index),
    ("ablation-kv-separation", ablation_kv_separation),
    ("ablation-partitioning", ablation_partitioning),
    ("ablation-scan", ablation_scan),
    ("amplification", amplification),
    ("memory-overhead", memory_overhead),
    ("recovery", recovery),
    ("sensitivity", sensitivity),
    ("router", router),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            num_keys: 3_000,
            num_ops: 1_000,
            value_size: 64,
            use_mem_env: true,
            seed: 1,
        }
    }

    #[test]
    fn every_experiment_runs_at_tiny_scale() {
        let cfg = tiny();
        for (name, f) in ALL {
            f(&cfg).unwrap_or_else(|e| panic!("experiment {name} failed: {e}"));
        }
    }
}
