//! Allocation guards for scans and writes. A warm 100-item scan may
//! allocate the returned keys and values, one buffer per file read, and a
//! small constant, and nothing per item beyond that. Puts, deletes and
//! batches encode the WAL record and the memtable entry straight from the
//! caller's slices, so a write allocates a few buffers per op and copies
//! nothing on the way. A counting global allocator observes the calling
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use unikv::{UniKv, UniKvOptions, WriteBatch};
use unikv_env::mem::MemEnv;
use unikv_env::metrics::CountingEnv;

struct CountingAlloc;

thread_local! {
    /// `(allocations, reallocations)` made by this thread while counting.
    static COUNTS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn bump(alloc: u64, realloc: u64) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = COUNTS.try_with(|c| {
        if let Some((a, r)) = c.get() {
            c.set(Some((a + alloc, r + realloc)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// thread-local `Cell`s with const initialisers, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, 0);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(1, 0);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(0, 1);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and return its result with the allocations and reallocations
/// this thread made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    COUNTS.with(|c| c.set(Some((0, 0))));
    let out = f();
    let (allocs, reallocs) = COUNTS.with(|c| c.replace(None)).expect("counting");
    (out, allocs, reallocs)
}

/// Measured on `MemEnv` when this guard was added, for the scan below:
/// 246 allocations = 200 (keys and values) + 20 (one buffer per value-log
/// run read) + 26, and one reallocation. The scan code before that change
/// made 270 allocations and 25 reallocations.
const ALLOCS_PER_ITEM: u64 = 2;
const ALLOC_CONSTANT: u64 = 32;
const MAX_REALLOCS: u64 = 2;

#[test]
fn warm_scan_allocates_two_per_item_plus_constant() {
    let env = CountingEnv::new(MemEnv::shared());
    let db = UniKv::open(env.clone(), "/db", UniKvOptions::small_for_tests()).unwrap();
    let key = |i: u32| format!("user{i:08}").into_bytes();
    // Values land in the SortedStore behind value-log pointers; a few
    // newer versions stay in the memtable and UnsortedStore, so the scan
    // merges every source and fetches runs of pointed-to values.
    for i in 0..3000 {
        db.put(&key(i), &[b'v'; 120]).unwrap();
    }
    db.compact_all().unwrap();
    for i in (1000..1200).step_by(7) {
        db.put(&key(i), &[b'u'; 60]).unwrap();
    }
    db.flush().unwrap();
    for i in (1000..1200).step_by(11) {
        db.put(&key(i), &[b'w'; 40]).unwrap();
    }

    // Warm-up: open table handles, fill the block cache and the value-log
    // reader cache, so the measured scan does only per-scan work.
    db.scan(&key(1050), 100).unwrap();
    let reads_before = env.counters().random_reads();
    let (items, allocs, reallocs) = counted(|| db.scan(&key(1050), 100).unwrap());
    let reads = env.counters().random_reads() - reads_before;

    assert_eq!(items.len(), 100);
    for (n, item) in items.iter().enumerate() {
        assert_eq!(item.key, key(1050 + n as u32));
    }
    let n = items.len() as u64;
    assert!(
        allocs <= ALLOCS_PER_ITEM * n + reads + ALLOC_CONSTANT,
        "{allocs} allocations for {n} items and {reads} reads"
    );
    assert!(reallocs <= MAX_REALLOCS, "{reallocs} reallocations");
}

/// Measured on `MemEnv` when this guard was added, with warm 120 B values:
/// 100 puts made 500 allocations (per put: the write's routing list, the
/// WAL record, the memtable slot, and the memtable entry with its skiplist
/// node) and one reallocation (the in-memory WAL file growing); one 100-op
/// batch made 303 and one. The write code before that change made 700
/// allocations and 101 reallocations for the puts, and 805 and 106 for
/// the batch.
const ALLOCS_PER_PUT: u64 = 5;
const BATCH_ALLOCS_PER_OP: u64 = 3;
const BATCH_ALLOC_CONSTANT: u64 = 8;

#[test]
fn warm_writes_allocate_a_few_buffers_per_op() {
    let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::default()).unwrap();
    let key = |i: u32| format!("user{i:08}").into_bytes();
    let value = [b'v'; 120];
    // Warm-up: the WAL file and the memtable exist. The default write
    // buffer holds every write below, so no flush runs while counting.
    for i in 0..100 {
        db.put(&key(i), &value).unwrap();
    }

    let keys: Vec<Vec<u8>> = (100..200).map(key).collect();
    let ((), allocs, reallocs) = counted(|| {
        for k in &keys {
            db.put(k, &value).unwrap();
        }
    });
    let n = keys.len() as u64;
    assert!(
        allocs <= ALLOCS_PER_PUT * n,
        "{allocs} allocations for {n} puts"
    );
    assert!(
        reallocs <= MAX_REALLOCS,
        "{reallocs} reallocations for {n} puts"
    );

    let mut batch = WriteBatch::new();
    for i in 200..300 {
        batch.put(key(i), value.to_vec());
    }
    let ((), allocs, reallocs) = counted(|| db.write_batch(&batch).unwrap());
    let n = batch.len() as u64;
    assert!(
        allocs <= BATCH_ALLOCS_PER_OP * n + BATCH_ALLOC_CONSTANT,
        "{allocs} allocations for a {n}-op batch"
    );
    assert!(reallocs <= MAX_REALLOCS, "{reallocs} reallocations");
    for i in [0, 150, 299] {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value.to_vec()));
    }
}
