//! Memory and allocation guard for the flat index: live heap stays at
//! 4 B per bucket plus the entry arena, inserts allocate only when the
//! arena grows, and probes, `clear`, `remove_tables` and `replay` make no
//! per-bucket or per-entry allocation. A counting global allocator
//! observes the test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use unikv_hashindex::TwoLevelHashIndex;

struct CountingAlloc;

/// What this thread allocated while counting.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    allocs: u64,
    reallocs: u64,
    /// Bytes allocated minus bytes freed.
    live: isize,
}

thread_local! {
    static COUNTS: Cell<Option<Counts>> = const { Cell::new(None) };
}

fn bump(allocs: u64, reallocs: u64, live: isize) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = COUNTS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(Counts {
                allocs: n.allocs + allocs,
                reallocs: n.reallocs + reallocs,
                live: n.live + live,
            }));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// thread-local `Cell`s with const initialisers, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, 0, layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(1, 0, layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(0, 1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, 0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and return its result with what this thread allocated inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTS.with(|c| c.set(Some(Counts::default())));
    let out = f();
    let counts = COUNTS.with(|c| c.replace(None)).expect("counting");
    (out, counts)
}

/// `with_capacity(32_768, 2)` sizes the index at 80% utilization.
const BUCKETS: usize = 40_960;
const KEYS: usize = 7_500;
/// Allowed live heap: 4 B per bucket head, 16 B per entry (12 B entries in
/// an arena that may be up to a third empty after doubling), and slack.
///
/// For this test the flat layout holds 262,144 B: 163,840 B of heads and a
/// 98,304 B arena reached in 12 allocations. The `Vec`-per-bucket layout
/// it replaced held 1,220,544 B: 983,040 B of bucket headers (24 B x
/// 40,960) plus one 32 B request (a 48 B malloc chunk) for each of the
/// 7,422 newly occupied buckets. It also allocated once per `candidates`
/// call.
const MAX_LIVE: usize = 4 * BUCKETS + 16 * KEYS + 4096;

fn key(i: usize) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

#[test]
fn flat_index_heap_and_allocations_are_bounded() {
    let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();

    let (mut idx, built) = counted(|| TwoLevelHashIndex::with_capacity(32_768, 2));
    assert_eq!(idx.num_buckets(), BUCKETS);
    assert_eq!(built.allocs, 1, "one allocation for the bucket heads");

    let ((), inserted) = counted(|| {
        for (i, k) in keys.iter().enumerate() {
            idx.insert(k, (i % 8) as u32);
        }
    });
    assert_eq!(idx.len(), KEYS);
    let live = (built.live + inserted.live) as usize;
    assert!(
        live <= MAX_LIVE,
        "live heap {live} B exceeds {MAX_LIVE} B ({built:?}, {inserted:?})"
    );
    // Arena growth only: doubling reaches 7,500 entries in O(log n) steps.
    let log2_keys = (usize::BITS - KEYS.leading_zeros()) as u64;
    assert!(
        inserted.allocs + inserted.reallocs <= log2_keys,
        "{inserted:?} for {KEYS} inserts"
    );

    let (matches, probed) = counted(|| {
        keys.iter()
            .enumerate()
            .filter(|&(i, k)| idx.candidates(k).any(|t| t == (i % 8) as u32))
            .count()
    });
    assert_eq!(matches, KEYS, "no false negatives");
    assert_eq!(
        (probed.allocs, probed.reallocs),
        (0, 0),
        "candidates allocated"
    );

    let entries = idx.entries();
    let (restored, replayed) = counted(|| {
        let mut r = TwoLevelHashIndex::with_capacity(32_768, 2);
        for &(b, tag, table) in &entries {
            r.replay(b, tag, table).unwrap();
        }
        r
    });
    assert_eq!(restored.len(), KEYS);
    assert!(
        replayed.allocs + replayed.reallocs <= 1 + log2_keys,
        "replay: bucket heads plus arena doubling, got {replayed:?}"
    );

    let victims: HashSet<u32> = [0, 3, 5].into_iter().collect();
    let survivors = (0..KEYS)
        .filter(|i| !victims.contains(&((i % 8) as u32)))
        .count();
    let ((), removed) = counted(|| idx.remove_tables(&victims));
    assert_eq!(idx.len(), survivors);
    assert_eq!(
        (removed.allocs, removed.reallocs),
        (0, 0),
        "remove_tables allocated"
    );

    let ((), cleared) = counted(|| idx.clear());
    assert!(idx.is_empty());
    assert_eq!(
        (cleared.allocs, cleared.reallocs),
        (0, 0),
        "clear allocated"
    );
}
