//! Quickstart: open a UniKV database on the local filesystem, write,
//! read, scan, delete, and reopen to show durability.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use unikv::{UniKv, UniKvOptions};
use unikv_env::fs::FsEnv;

fn main() -> unikv_common::Result<()> {
    let dir = std::env::temp_dir().join(format!("unikv-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let env = Arc::new(FsEnv::new());

    println!("opening database at {}", dir.display());
    {
        let db = UniKv::open(env.clone(), &dir, UniKvOptions::default())?;

        // Writes go to the WAL + memtable; flushes build UnsortedStore
        // tables indexed by the in-memory hash index.
        db.put(b"city:hk", b"Hong Kong")?;
        db.put(b"city:sz", b"Shenzhen")?;
        db.put(b"city:bj", b"Beijing")?;
        db.put(b"city:sh", b"Shanghai")?;

        println!("get city:hk -> {:?}", as_str(db.get(b"city:hk")?));

        // Overwrites are new versions; the newest always wins.
        db.put(b"city:hk", b"Hong Kong SAR")?;
        println!("get city:hk -> {:?}", as_str(db.get(b"city:hk")?));

        // Range scans run across the UnsortedStore and SortedStore with a
        // merging iterator; results are sorted by key.
        println!("scan city:*");
        for item in db.scan(b"city:", 10)? {
            println!(
                "  {} = {}",
                String::from_utf8_lossy(&item.key),
                String::from_utf8_lossy(&item.value)
            );
        }

        // Deletes write tombstones that shadow older versions.
        db.delete(b"city:bj")?;
        println!(
            "after delete, get city:bj -> {:?}",
            as_str(db.get(b"city:bj")?)
        );

        // Force everything to disk so the reopen below exercises recovery
        // from tables rather than the WAL.
        db.flush()?;
        db.compact_all()?;
        println!(
            "counters: {:?}",
            db.metrics_snapshot()
                .counters
                .into_iter()
                .filter(|(_, v)| *v > 0)
                .collect::<Vec<_>>()
        );
    } // drop = clean-ish shutdown (WAL remains for anything unflushed)

    // Reopen: recovery replays the manifest, rebuilds the hash index
    // from the entries logged in it, and replays the WAL tail.
    let db = UniKv::open(env, &dir, UniKvOptions::default())?;
    println!("reopened: city:sh = {:?}", as_str(db.get(b"city:sh")?));
    assert_eq!(db.get(b"city:bj")?, None);

    std::fs::remove_dir_all(&dir).ok();
    println!("done");
    Ok(())
}

fn as_str(v: Option<Vec<u8>>) -> Option<String> {
    v.map(|b| String::from_utf8_lossy(&b).into_owned())
}
