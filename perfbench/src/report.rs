//! Metrics derived from run results, and the JSON the command prints.

use crate::env::FileClass;
use crate::listener::MAINT_KINDS;
use crate::run::{kind_index, RunResult};
use crate::workload::OpKind;
use unikv::PerfStage;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of `samples` (sorted in place), in µs.
pub fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1000.0
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Ops per wall second of the measured phase, in thousands.
pub fn throughput_kops(r: &RunResult) -> f64 {
    ratio(r.phase.attempted as f64, r.phase.wall_s) / 1000.0
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Index of the workload's read op type in `PhaseStats::latency_ns`:
/// each workload has exactly one, gets on the mixed workloads and scans
/// on `scan-e`.
pub fn read_kind(r: &RunResult) -> usize {
    if r.phase.latency_ns[kind_index(OpKind::Scan)].is_empty() {
        kind_index(OpKind::Get)
    } else {
        kind_index(OpKind::Scan)
    }
}

/// The end-to-end metrics of an untraced run. The put latencies and the
/// p99 latencies are left out (see `README.md`): slow periods of the host
/// move them by more than any allowed bound.
pub fn end_to_end(r: &mut RunResult) -> Vec<Metric> {
    let reads = read_kind(r);
    let user_written = r.user_bytes_setup + r.phase.user_bytes_written;
    let kops = throughput_kops(r);
    let space_amp = median(&r.phase.space_amp);
    let lat = &mut r.phase.latency_ns;
    vec![
        metric("setup_s", "s", median(&r.setup_s)),
        metric("throughput_kops", "kops", kops),
        metric("read_p50_us", "us", percentile_us(&mut lat[reads], 0.50)),
        metric(
            "write_amp",
            "ratio",
            ratio(r.io_total.write_bytes() as f64, user_written as f64),
        ),
        metric(
            "read_amp",
            "ratio",
            ratio(
                r.io_phase.read_bytes() as f64,
                r.phase.user_bytes_returned as f64,
            ),
        ),
        metric("space_amp", "ratio", space_amp),
        metric("rss_peak_mb", "MiB", rss_peak_mb()),
    ]
}

/// Counts that depend only on the seed and the code, never on timing:
/// two runs of one seed, traced or not, must agree on every one.
pub fn counted(r: &RunResult) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for c in FileClass::ALL {
        for (io, scope) in [(&r.io_total, "total"), (&r.io_phase, "phase")] {
            let x = io.class(c);
            let n = c.name();
            out.push((format!("env.{n}.{scope}.read_count"), x.read_count));
            out.push((format!("env.{n}.{scope}.read_bytes"), x.read_bytes));
            out.push((format!("env.{n}.{scope}.write_bytes"), x.write_bytes));
            out.push((format!("env.{n}.{scope}.sync_count"), x.sync_count));
        }
    }
    for (i, k) in MAINT_KINDS.iter().enumerate() {
        out.push((format!("maint.{k}.count"), r.maint_phase.kinds[i].count));
        out.push((format!("maint.{k}.bytes"), r.maint_phase.kinds[i].bytes));
    }
    // Timing-valued engine counters are left out.
    let timed = |k: &str| k.contains("micros") || k.ends_with("_ms");
    for (k, v) in r.stats_phase.iter().filter(|(k, _)| !timed(k)) {
        out.push((format!("stats.{k}"), *v));
    }
    for (k, v) in &r.counters_phase {
        out.push((format!("counter.{k}"), *v));
    }
    out.push(("db.dir_bytes".into(), r.dir_bytes));
    out.push(("db.partitions".into(), r.partitions));
    out.push(("hashindex.memory_bytes".into(), r.index_memory_bytes));
    out.push((
        "phase.user_bytes_written".into(),
        r.phase.user_bytes_written,
    ));
    out.push((
        "phase.user_bytes_returned".into(),
        r.phase.user_bytes_returned,
    ));
    out.push(("phase.failed".into(), r.phase.failed));
    out
}

/// Names of the counted values on which two runs disagree.
pub fn count_mismatches(a: &RunResult, b: &RunResult) -> Vec<String> {
    let (a, b) = (counted(a), counted(b));
    let mut out: Vec<String> = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| x != y)
        .map(|(x, y)| format!("{}: {} vs {}", x.0, x.1, y.1))
        .collect();
    if a.len() != b.len() {
        out.push(format!("counted sets differ: {} vs {}", a.len(), b.len()));
    }
    out
}

/// The per-layer metrics of a traced run; `untraced` is the same seed's
/// untraced run, for the tracing overhead.
pub fn per_layer(t: &RunResult, untraced: &RunResult) -> Vec<Metric> {
    let [g, p] = &t.phase.perf;
    let gets = t.phase.latency_ns[kind_index(OpKind::Get)].len() as f64;
    let puts = t.phase.latency_ns[kind_index(OpKind::Put)].len() as f64;
    let scans = t.phase.latency_ns[kind_index(OpKind::Scan)].len() as f64;
    let us = |ctx: &unikv::PerfContext, s: PerfStage| ratio(ctx.stage(s) as f64, ctx.ops as f64);
    let both = |s: PerfStage| ratio((g.stage(s) + p.stage(s)) as f64, (g.ops + p.ops) as f64);
    let per_get = |n: u64| ratio(n as f64, g.ops as f64);
    let stat = |k: &str| t.stats_phase.get(k).copied().unwrap_or(0) as f64;
    let counter = |k: &str| t.counters_phase.get(k).copied().unwrap_or(0) as f64;
    let io = |c: FileClass| *t.io_phase.class(c);
    let probes_per_get = per_get(g.hash_probes);
    let put_ns: u64 = t.phase.latency_ns[kind_index(OpKind::Put)].iter().sum();
    let maint = &t.maint_phase;

    let mut m = vec![
        metric("router.us_per_op", "us", both(PerfStage::Router)),
        metric("wal.append_us_per_put", "us", us(p, PerfStage::WalAppend)),
        metric(
            "env.wal.write_bytes",
            "bytes",
            io(FileClass::Wal).write_bytes as f64,
        ),
        metric(
            "env.wal.sync_count",
            "count",
            io(FileClass::Wal).sync_count as f64,
        ),
        metric(
            "env.wal.sync_us",
            "us",
            io(FileClass::Wal).sync_ns as f64 / 1000.0,
        ),
        metric("memtable.us_per_put", "us", us(p, PerfStage::Memtable)),
        metric("memtable.us_per_get", "us", us(g, PerfStage::Memtable)),
        metric(
            "memtable.hit_ratio",
            "ratio",
            ratio(stat("memtable_hits"), gets),
        ),
        metric(
            "hashindex.probe_us_per_get",
            "us",
            us(g, PerfStage::IndexProbe),
        ),
        metric("hashindex.probes_per_get", "count", probes_per_get),
        metric(
            "hashindex.false_positive_ratio",
            "ratio",
            ratio(stat("index_false_positives"), probes_per_get * gets),
        ),
        metric(
            "hashindex.memory_bytes",
            "bytes",
            t.index_memory_bytes as f64,
        ),
        metric(
            "partition.boundary_search_us_per_get",
            "us",
            us(g, PerfStage::BoundarySearch),
        ),
        metric(
            "sstable.block_read_us_per_get",
            "us",
            us(g, PerfStage::BlockRead),
        ),
        metric("sstable.blocks_per_get", "count", per_get(g.block_reads)),
        metric(
            "sstable.tables_checked_per_get",
            "count",
            ratio(stat("tables_checked"), gets),
        ),
        metric(
            "sstable.cache_hit_ratio",
            "ratio",
            ratio(
                counter("sst_cache_hits"),
                counter("sst_cache_hits") + counter("sst_cache_misses"),
            ),
        ),
    ];
    for c in [FileClass::Sst, FileClass::Vlog] {
        let x = io(c);
        let n = c.name();
        m.push(metric(
            format!("env.{n}.read_count"),
            "count",
            x.read_count as f64,
        ));
        m.push(metric(
            format!("env.{n}.read_bytes"),
            "bytes",
            x.read_bytes as f64,
        ));
        m.push(metric(
            format!("env.{n}.read_us"),
            "us",
            x.read_ns as f64 / 1000.0,
        ));
        m.push(metric(
            format!("env.{n}.write_bytes"),
            "bytes",
            x.write_bytes as f64,
        ));
    }
    m.extend([
        metric("vlog.fetch_us_per_get", "us", us(g, PerfStage::VlogFetch)),
        metric("vlog.fetches_per_get", "count", per_get(g.vlog_fetches)),
        metric(
            "vlog.scan_fetches_per_scan",
            "count",
            ratio(counter("scan_vlog_fetches"), scans),
        ),
        metric(
            "iter.self_us_per_scan",
            "us",
            ratio(
                t.phase.scan_ns.saturating_sub(t.phase.scan_env_ns) as f64 / 1000.0,
                scans,
            ),
        ),
        metric(
            "fetch.parallel_batch_ratio",
            "ratio",
            ratio(
                counter("fetch_parallel_batches"),
                counter("fetch_parallel_batches") + counter("fetch_inline_batches"),
            ),
        ),
    ]);
    for (i, k) in MAINT_KINDS.iter().enumerate() {
        let x = maint.kinds[i];
        m.push(metric(format!("maint.{k}.count"), "count", x.count as f64));
        m.push(metric(format!("maint.{k}.us"), "us", x.ns as f64 / 1000.0));
        m.push(metric(format!("maint.{k}.bytes"), "bytes", x.bytes as f64));
    }
    m.extend([
        metric(
            "maint.self_us",
            "us",
            maint.busy_ns.saturating_sub(t.maint_env_ns) as f64 / 1000.0,
        ),
        metric(
            "maint.share_of_put_time",
            "ratio",
            ratio(maint.busy_ns as f64, put_ns as f64),
        ),
        metric(
            "env.meta.write_bytes",
            "bytes",
            io(FileClass::Meta).write_bytes as f64,
        ),
        metric(
            "env.meta.sync_count",
            "count",
            io(FileClass::Meta).sync_count as f64,
        ),
        metric(
            "env.meta.sync_us",
            "us",
            io(FileClass::Meta).sync_ns as f64 / 1000.0,
        ),
        metric("db.other_us_per_op", "us", both(PerfStage::Other)),
        metric("db.gets", "count", gets),
        metric("db.puts", "count", puts),
        metric("db.scans", "count", scans),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * (1.0 - ratio(throughput_kops(t), throughput_kops(untraced))),
        ),
    ]);
    m
}

/// A JSON string literal (the names and units here need no escaping
/// beyond quotes and backslashes).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).map(|x| x * 1000).collect();
        assert_eq!(percentile_us(&mut v, 0.5), 50.0);
        assert_eq!(percentile_us(&mut v, 0.99), 99.0);
        assert_eq!(percentile_us(&mut [], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            10,
            0,
            &[metric("setup_s", "s", 0.5), metric("x", "%", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"%\"}}}"
        );
    }
}
