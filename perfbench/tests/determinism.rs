//! Small-scale determinism checks: the counted metrics of a run depend
//! only on the seed, tracing changes none of them, and the seed changes
//! the op stream.

use std::path::PathBuf;
use unikv_perfbench::report::{count_mismatches, counted, end_to_end};
use unikv_perfbench::run::{run, Config};
use unikv_perfbench::workload::{generate, load_order, Workload};

fn config(workload: Workload, seed: u64, dir: &str) -> Config {
    Config {
        workload,
        seed,
        records: 12_000,
        ops: 6_000,
        setups: 1,
        work_dir: PathBuf::from(".bench_run").join(dir),
    }
}

fn counted_e2e(r: &mut unikv_perfbench::run::RunResult) -> Vec<(String, f64)> {
    end_to_end(r)
        .into_iter()
        .filter(|m| m.name.ends_with("_amp"))
        .map(|m| (m.name, m.value))
        .collect()
}

fn check_workload(workload: Workload) {
    let dir = format!("test-{}", workload.name());
    let cfg = config(workload, 7, &dir);
    let mut a = run(&cfg, false, None).expect("first run");
    let mut b = run(&cfg, false, None).expect("second run");
    let t = run(&cfg, true, None).expect("traced run");
    for r in [&a, &b, &t] {
        assert_eq!(r.phase.failed, 0, "{:?}", r.phase.mismatches);
        assert_eq!(r.phase.attempted, cfg.ops);
    }
    assert!(a.maint_phase.kinds[0].count > 0 || workload == Workload::ScanE);
    assert_eq!(count_mismatches(&a, &b), Vec::<String>::new(), "same seed");
    assert_eq!(count_mismatches(&a, &t), Vec::<String>::new(), "traced");
    assert_eq!(counted_e2e(&mut a), counted_e2e(&mut b));
    assert!(counted(&a)
        .iter()
        .any(|(k, v)| k == "env.sst.total.write_bytes" && *v > 0));

    let other = run(&config(workload, 8, &dir), false, None).expect("other seed");
    assert_ne!(counted(&a), counted(&other), "seed must matter");

    // Every scratch database was removed.
    let left: Vec<_> = std::fs::read_dir(&cfg.work_dir)
        .expect("work dir exists")
        .collect();
    assert!(left.is_empty(), "scratch databases left behind: {left:?}");
    std::fs::remove_dir(&cfg.work_dir).expect("remove work dir");
}

#[test]
fn mixed_zipf_counts_repeat_exactly() {
    check_workload(Workload::MixedZipf);
}

#[test]
fn mixed_uniform_counts_repeat_exactly() {
    check_workload(Workload::MixedUniform);
}

#[test]
fn scan_e_counts_repeat_exactly() {
    check_workload(Workload::ScanE);
}

#[test]
fn seed_changes_the_op_stream() {
    for w in Workload::ALL {
        assert_eq!(generate(w, 1000, 500, 1), generate(w, 1000, 500, 1));
        assert_ne!(generate(w, 1000, 500, 1), generate(w, 1000, 500, 2));
    }
    assert_ne!(load_order(1000, 1), load_order(1000, 2));
}
