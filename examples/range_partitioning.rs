//! Watch dynamic range partitioning happen: load data until the initial
//! partition splits (repeatedly), then inspect the partition index and
//! verify scans cross partition boundaries seamlessly.
//!
//! ```sh
//! cargo run --release --example range_partitioning
//! ```

use std::sync::Arc;
use unikv::{UniKv, UniKvOptions};
use unikv_env::fs::FsEnv;
use unikv_workload::{format_key, make_value};

fn main() -> unikv_common::Result<()> {
    let dir = std::env::temp_dir().join(format!("unikv-partitions-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let env = Arc::new(FsEnv::new());

    // Small limits so splits happen within a few seconds of loading.
    let db = UniKv::open(
        env,
        &dir,
        UniKvOptions {
            write_buffer_size: 128 << 10,
            table_size: 128 << 10,
            unsorted_limit_bytes: 512 << 10,
            partition_size_limit: 2 << 20,
            max_log_size: 512 << 10,
            ..Default::default()
        },
    )?;

    let n: u64 = 60_000;
    let value_size = 200;
    println!(
        "loading {n} keys ({} MiB of values)...",
        n * value_size / (1 << 20)
    );
    let mut last_partitions = db.partition_count();
    for i in 0..n {
        db.put(&format_key(i), &make_value(i, 0, value_size as usize))?;
        let parts = db.partition_count();
        if parts != last_partitions {
            println!("  after {:>6} keys: {} partitions", i + 1, parts);
            last_partitions = parts;
        }
    }

    println!("\npartition index (boundary keys):");
    for (i, lo) in db.partition_boundaries().iter().enumerate() {
        let label = if lo.is_empty() {
            "-inf".to_string()
        } else {
            String::from_utf8_lossy(lo).into_owned()
        };
        println!("  p{i}: lo = {label}");
    }

    // A scan spanning several partitions must be seamless and sorted.
    let from = format_key(n / 3);
    let items = db.scan(&from, 1000)?;
    assert_eq!(items.len(), 1000);
    assert!(items.windows(2).all(|w| w[0].key < w[1].key));
    println!(
        "\nscan of 1000 keys from {} crossed partitions seamlessly",
        String::from_utf8_lossy(&from)
    );

    // Point reads route by boundary key to exactly one partition.
    for probe in [0, n / 2, n - 1] {
        assert_eq!(
            db.get(&format_key(probe))?,
            Some(make_value(probe, 0, value_size as usize))
        );
    }
    println!("point reads verified across partitions");
    println!(
        "splits: {}, gcs: {}, write amp: {:.2}",
        db.metrics().splits.value(),
        db.metrics().gcs.value(),
        db.write_amplification()
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
