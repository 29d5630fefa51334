//! `dbtool`: a small operational CLI over a UniKV database directory —
//! the kind of tool an operator reaches for. Demonstrates the public API
//! end to end (open, read, write, scan, stats, compaction, GC).
//!
//! ```sh
//! cargo run --release --example dbtool -- <dir> put k v
//! cargo run --release --example dbtool -- <dir> get k
//! cargo run --release --example dbtool -- <dir> del k
//! cargo run --release --example dbtool -- <dir> scan <from> [limit]
//! cargo run --release --example dbtool -- <dir> stats
//! cargo run --release --example dbtool -- <dir> metrics [--machine]
//! cargo run --release --example dbtool -- <dir> status
//! cargo run --release --example dbtool -- <dir> compact
//! cargo run --release --example dbtool -- <dir> gc
//! cargo run --release --example dbtool -- <dir> fill <n> [value_size]
//! cargo run --release --example dbtool -- <dir> verify
//! cargo run --release --example dbtool -- <dir> events [--follow | --causes <seq>]
//! ```

use std::sync::Arc;
use unikv::{causal_chain, read_events, verify_db, Event, UniKv, UniKvOptions};
use unikv_env::fs::FsEnv;

fn usage() -> ! {
    eprintln!("usage: dbtool <dir> <put k v | get k | del k | scan from [limit] |");
    eprintln!("                      stats | metrics [--machine] | status | compact | gc |");
    eprintln!("                      fill n [value_size] | verify |");
    eprintln!("                      events [--follow | --causes seq]>");
    std::process::exit(2);
}

/// One human-readable journal line: seq, time, kind, partition, the causal
/// link, and whatever file lists / byte counts the event carries.
fn render_event(e: &Event) -> String {
    let mut out = format!(
        "#{:<6} {:>10}us  {:<18} p{}",
        e.seq,
        e.at_micros,
        e.kind.name(),
        e.partition
    );
    if let Some(c) = e.cause {
        out.push_str(&format!("  cause=#{c}"));
    }
    if !e.inputs.is_empty() {
        out.push_str(&format!("  in={:?}", e.inputs));
    }
    if !e.outputs.is_empty() {
        out.push_str(&format!("  out={:?}", e.outputs));
    }
    if e.bytes > 0 {
        out.push_str(&format!("  bytes={}", e.bytes));
    }
    if !e.detail.is_empty() {
        out.push_str(&format!("  {}", e.detail));
    }
    out
}

fn main() -> unikv_common::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    // `verify` scrubs the closed database offline; it must run *before*
    // `UniKv::open`, which replays WALs, flushes, and deletes orphans.
    if args[1] == "verify" {
        let report = verify_db(Arc::new(FsEnv::new()), &args[0])?;
        println!(
            "checked {} files, {} damaged",
            report.files_checked,
            report.damage.len()
        );
        for d in &report.damage {
            println!("DAMAGED [{}] {}: {}", d.kind, d.path.display(), d.detail);
        }
        for m in &report.live_bytes {
            println!(
                "MISMATCH partition {}: live value bytes recorded {}, pointed to {}",
                m.partition, m.recorded, m.pointed
            );
        }
        for s in &report.stray_pointers {
            println!(
                "STRAY partition {}: {} pointers into log {} of partition {}, which it does not name",
                s.partition, s.pointers, s.log.log_number, s.log.partition
            );
        }
        if !report.is_clean() {
            std::process::exit(1);
        }
        return Ok(());
    }
    // `events` replays the persistent journal offline; like `verify` it
    // runs *before* `UniKv::open` so inspecting a database never mutates
    // it (open replays WALs and deletes orphans). `--follow` tails the
    // journal of a database another process has open.
    if args[1] == "events" {
        let env = FsEnv::new();
        let root = std::path::Path::new(&args[0]);
        match (args.get(2).map(String::as_str), args.get(3)) {
            (None, _) => {
                for e in read_events(&env, root) {
                    println!("{}", render_event(&e));
                }
            }
            (Some("--causes"), Some(seq)) => {
                let seq: u64 = seq
                    .parse()
                    .map_err(|_| unikv_common::Error::invalid_argument("--causes needs a seq"))?;
                let events = read_events(&env, root);
                let chain = causal_chain(&events, seq);
                if chain.is_empty() {
                    eprintln!("no event #{seq} in the journal (rotated away or never written?)");
                    std::process::exit(1);
                }
                for e in chain {
                    println!("{}", render_event(&e));
                }
            }
            (Some("--follow"), _) => {
                let mut last = 0u64;
                loop {
                    for e in read_events(&env, root) {
                        if e.seq > last {
                            last = e.seq;
                            println!("{}", render_event(&e));
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(500));
                }
            }
            _ => usage(),
        }
        return Ok(());
    }
    // dbtool keeps the event journal on so every run leaves a causal
    // record behind for `dbtool <dir> events` to replay.
    let opts = UniKvOptions {
        enable_event_journal: true,
        ..Default::default()
    };
    let db = UniKv::open(Arc::new(FsEnv::new()), &args[0], opts)?;
    match (args[1].as_str(), &args[2..]) {
        ("put", [k, v]) => {
            db.put(k.as_bytes(), v.as_bytes())?;
            println!("ok");
        }
        ("get", [k]) => match db.get(k.as_bytes())? {
            Some(v) => println!("{}", String::from_utf8_lossy(&v)),
            None => println!("(not found)"),
        },
        ("del", [k]) => {
            db.delete(k.as_bytes())?;
            println!("ok");
        }
        ("scan", rest) if !rest.is_empty() => {
            let limit = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(20usize);
            for item in db.scan(rest[0].as_bytes(), limit)? {
                println!(
                    "{}\t{}",
                    String::from_utf8_lossy(&item.key),
                    String::from_utf8_lossy(&item.value)
                );
            }
        }
        ("stats", []) => {
            println!("partitions: {}", db.partition_count());
            for (i, lo) in db.partition_boundaries().iter().enumerate() {
                let label = if lo.is_empty() {
                    "-inf".into()
                } else {
                    String::from_utf8_lossy(lo).into_owned()
                };
                println!("  partition {i}: lo={label}");
            }
            println!("logical bytes: {}", db.logical_bytes());
            println!("hash-index bytes: {}", db.index_memory_bytes());
            println!("last sequence: {}", db.last_sequence());
            // Every counter family: work volumes, maintenance jobs, stalls,
            // read errors, tier and I/O counters.
            for (name, value) in db.metrics_snapshot().counters {
                println!("{name}: {value}");
            }
            println!("write amplification: {:.2}", db.write_amplification());
        }
        ("metrics", rest) if rest.is_empty() || rest == ["--machine"] => {
            // Latency histograms, the engine's work counters, per-tier
            // read counters and subsystem I/O counters. `--machine` emits
            // the stable tab-separated form for scripts.
            if rest.is_empty() {
                print!("{}", db.metrics_report());
            } else {
                print!("{}", db.metrics_report_machine());
            }
        }
        ("status", []) => {
            // Operator health check: state machine position, what is being
            // retried or quarantined, and how hard writes are braking.
            let report = db.health_report();
            println!("health: {:?}", report.state);
            if let Some(err) = &report.background_error {
                println!("background error: {err}");
            }
            println!("retrying jobs: {}", report.retrying);
            for q in &report.quarantined {
                println!(
                    "  quarantined: {:?} on partition {} ({})",
                    q.kind, q.partition, q.reason
                );
            }
            let snap = db.metrics_snapshot().counters;
            println!(
                "maintenance: {} scheduled, {} completed, {} failed fatally",
                snap["maint_jobs_scheduled"],
                snap["maint_jobs_completed"],
                snap["maint_jobs_failed"]
            );
            println!(
                "resilience: {} retries, {} quarantines, {} health transitions, {} ms degraded",
                snap["maint_job_retries"],
                snap["maint_jobs_quarantined"],
                snap["health_transitions"],
                snap["time_degraded_ms"]
            );
            println!(
                "stalls: {} slowdowns, {} stops, {:.1} ms stalled",
                snap["stall_slowdowns"],
                snap["stall_stops"],
                snap["stall_time_micros"] as f64 / 1000.0
            );
            println!("partitions: {}", db.partition_count());
        }
        ("compact", []) => {
            db.compact_all()?;
            println!("compacted");
        }
        ("gc", []) => {
            db.force_gc()?;
            println!("gc done");
        }
        ("fill", rest) if !rest.is_empty() => {
            let n: u64 = rest[0]
                .parse()
                .map_err(|_| unikv_common::Error::invalid_argument("fill needs a number"))?;
            let vs: usize = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(256);
            for i in 0..n {
                let key = format!("user{i:012}");
                let unit = format!("{i:x}-");
                let value = unit.repeat(vs / unit.len() + 1);
                db.put(key.as_bytes(), &value.as_bytes()[..vs])?;
            }
            db.flush()?;
            println!("filled {n} keys of {vs}B");
        }
        _ => usage(),
    }
    Ok(())
}
