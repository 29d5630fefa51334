//! The metric and workload names the benchmark prints are exactly the
//! ones `BENCHMARK.json` declares, in the same order.

use std::path::PathBuf;
use unikv_perfbench::report::{end_to_end, per_layer};
use unikv_perfbench::run::{run, Config};
use unikv_perfbench::workload::Workload;

/// The `"name"` values of `BENCHMARK.json`, split by section.
fn declared() -> (Vec<String>, Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let names = |s: &str| -> Vec<String> {
        s.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    };
    let e2e = text.find("\"end_to_end\"").expect("end_to_end section");
    let layer = text.find("\"per_layer\"").expect("per_layer section");
    assert!(e2e < layer, "end_to_end comes before per_layer");
    (
        names(&text[..e2e]),
        names(&text[e2e..layer]),
        names(&text[layer..]),
    )
}

#[test]
fn printed_names_match_the_declared_ones() {
    let (workloads, e2e, layer) = declared();
    let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, all);

    let cfg = Config {
        workload: Workload::ScanE,
        seed: 3,
        records: 3_000,
        ops: 600,
        setups: 1,
        work_dir: PathBuf::from(".bench_run").join("test-contract"),
    };
    let mut untraced = run(&cfg, false, None).expect("untraced run");
    let traced = run(&cfg, true, None).expect("traced run");
    let printed = |m: Vec<unikv_perfbench::report::Metric>| -> Vec<String> {
        m.into_iter().map(|m| m.name).collect()
    };
    assert_eq!(printed(per_layer(&traced, &untraced)), layer);
    assert_eq!(printed(end_to_end(&mut untraced)), e2e);
    std::fs::remove_dir(&cfg.work_dir).expect("scratch databases removed");
}
