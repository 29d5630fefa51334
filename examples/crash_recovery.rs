//! Crash-consistency demonstration: write through a fault-injection
//! environment, simulate a power failure at an arbitrary point, and show
//! that recovery restores every synced write and loses at most the
//! unsynced WAL tail.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use std::sync::Arc;
use unikv::{UniKv, UniKvOptions};
use unikv_env::fault::FaultInjectionEnv;
use unikv_env::mem::MemEnv;
use unikv_workload::{format_key, make_value};

fn main() -> unikv_common::Result<()> {
    let mem = MemEnv::shared();
    let fault = FaultInjectionEnv::new(mem);

    let opts = UniKvOptions {
        write_buffer_size: 16 << 10,
        table_size: 32 << 10,
        unsorted_limit_bytes: 64 << 10,
        partition_size_limit: 512 << 10,
        max_log_size: 64 << 10,
        gc_min_bytes: 64 << 10,
        sync_writes: false, // group durability at flush boundaries
        ..Default::default()
    };

    let n: u64 = 5_000;
    println!("writing {n} keys through the fault-injection env (no per-write fsync)...");
    {
        let db = UniKv::open(fault.clone() as Arc<_>, "/db", opts.clone())?;
        for i in 0..n {
            db.put(&format_key(i), &make_value(i, 0, 100))?;
        }
        println!(
            "  engine state before crash: {} flushes, {} merges, {} partitions",
            db.metrics().flushes.value(),
            db.metrics().merges.value(),
            db.partition_count(),
        );
        // No clean shutdown: the handle is dropped mid-flight.
    }

    println!("simulating power failure (all unsynced bytes discarded)...");
    let affected = fault.crash()?;
    println!(
        "  {} files rolled back to their synced prefix",
        affected.len()
    );

    println!("recovering...");
    let db = UniKv::open(fault.clone() as Arc<_>, "/db", opts)?;
    let mut survived = 0u64;
    for i in 0..n {
        if db.get(&format_key(i))? == Some(make_value(i, 0, 100)) {
            survived += 1;
        }
    }
    println!(
        "  {survived}/{n} keys survived; {} lost from the unsynced memtable tail",
        n - survived
    );
    assert!(survived > 0);

    // Everything the recovered database reports must be internally
    // consistent: scans sorted, no phantom keys.
    let items = db.scan(b"", 100)?;
    assert!(items.windows(2).all(|w| w[0].key < w[1].key));
    println!("  post-recovery scan is sorted and consistent");

    // The store continues accepting writes with recovered sequence numbers.
    db.put(b"post-crash", b"alive")?;
    assert_eq!(db.get(b"post-crash")?, Some(b"alive".to_vec()));
    println!("  new writes accepted after recovery");

    println!("done");
    Ok(())
}
