//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a `{"meta": ...}` line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` last. Exits 0 only
//! when every op succeeded with the right result (and, traced, when the
//! traced run counted exactly what the untraced run did).

use std::path::{Path, PathBuf};
use unikv_perfbench::report::{
    count_mismatches, end_to_end, json_str, per_layer, percentile_us, read_kind, result_line,
};
use unikv_perfbench::run::{kind_index, run, Config, SAMPLE_EVERY};
use unikv_perfbench::workload::{OpKind, Workload, KEY_SIZE, RECORDS, VALUE_SIZE};

const USAGE: &str =
    "usage: perfbench --workload <mixed-zipf|mixed-uniform|scan-e> [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups timed by an untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Scratch databases live here, under the working directory.
const WORK_DIR: &str = ".bench_run";
/// Span files of traced runs go here.
const TRACE_DIR: &str = ".bench_traces";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::MixedZipf,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git work tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match bench(&args) {
        Ok(correct) => i32::from(!correct),
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    // Succeeds only when no scratch database is left.
    let _ = std::fs::remove_dir(WORK_DIR);
    std::process::exit(code);
}

/// Run the benchmark and print its output; returns whether it was correct.
fn bench(args: &Args) -> unikv_common::Result<bool> {
    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        records: RECORDS,
        ops: args.seconds * args.workload.ops_per_second(),
        setups: if args.trace { 1 } else { SETUPS },
        work_dir: PathBuf::from(WORK_DIR),
    };
    let mut untraced = run(&cfg, false, None)?;
    let (metrics, attempted, failed, mismatches, trace_file) = if args.trace {
        std::fs::create_dir_all(TRACE_DIR)?;
        let path =
            Path::new(TRACE_DIR).join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        let traced = run(&cfg, true, Some(&path))?;
        (
            per_layer(&traced, &untraced),
            untraced.phase.attempted + traced.phase.attempted,
            untraced.phase.failed + traced.phase.failed,
            count_mismatches(&untraced, &traced),
            Some((path, traced.spans)),
        )
    } else {
        (
            end_to_end(&mut untraced),
            untraced.phase.attempted,
            untraced.phase.failed,
            Vec::new(),
            None,
        )
    };
    for m in &untraced.phase.mismatches {
        eprintln!("perfbench: wrong result: {m:?}");
    }
    for m in &mismatches {
        eprintln!("perfbench: traced run counted differently: {m}");
    }
    let correct = failed == 0 && mismatches.is_empty();

    // Ungated: the p99s and the put p50 spread beyond any allowed bound on
    // a shared host.
    let reads = read_kind(&untraced);
    let read_p99 = percentile_us(&mut untraced.phase.latency_ns[reads], 0.99);
    let put_ns = &mut untraced.phase.latency_ns[kind_index(OpKind::Put)];
    let put_p50 = percentile_us(put_ns, 0.50);
    let put_p99 = percentile_us(put_ns, 0.99);
    let p = &untraced.phase;
    let mut meta = vec![
        ("workload", json_str(cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("env", json_str("fs")),
        ("records", cfg.records.to_string()),
        ("ops", cfg.ops.to_string()),
        ("key_size", KEY_SIZE.to_string()),
        ("value_size", VALUE_SIZE.to_string()),
        ("client_threads", "1".into()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("git_commit", json_str(&git_commit())),
        ("trace", args.trace.to_string()),
        ("setups", cfg.setups.to_string()),
        ("phase_s", p.wall_s.to_string()),
        ("gets", p.latency_ns[0].len().to_string()),
        ("puts", p.latency_ns[1].len().to_string()),
        ("scans", p.latency_ns[2].len().to_string()),
        ("read_p99_us", read_p99.to_string()),
        ("put_p50_us", put_p50.to_string()),
        ("put_p99_us", put_p99.to_string()),
        ("partitions", untraced.partitions.to_string()),
        (
            "error_rate",
            (failed as f64 / attempted.max(1) as f64).to_string(),
        ),
        ("count_mismatches", mismatches.len().to_string()),
    ];
    if let Some((path, spans)) = trace_file {
        meta.push(("sample_every", SAMPLE_EVERY.to_string()));
        meta.push(("spans", spans.to_string()));
        meta.push(("span_file", json_str(&path.display().to_string())));
    }
    let meta: Vec<String> = meta
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}
