//! A skiplist with lock-free concurrent readers and mutex-serialized
//! writers, closely following the LevelDB design: nodes are never removed
//! or mutated after insertion (except their forward pointers during
//! insert), so readers need no epoch/GC machinery — the list owns all
//! nodes until drop.

use parking_lot::Mutex;
use std::cmp::Ordering;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering as AtomicOrd};

const MAX_HEIGHT: usize = 12;
const BRANCHING: u32 = 4;

/// Ordering relation over the byte entries stored in the list.
pub trait Comparator: Send + Sync + 'static {
    /// Total order over entries.
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering;
}

impl<F> Comparator for F
where
    F: Fn(&[u8], &[u8]) -> Ordering + Send + Sync + 'static,
{
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        self(a, b)
    }
}

struct Node {
    entry: Box<[u8]>,
    next: [AtomicPtr<Node>; MAX_HEIGHT],
}

impl Node {
    fn new(entry: Box<[u8]>) -> *mut Node {
        Box::into_raw(Box::new(Node {
            entry,
            next: Default::default(),
        }))
    }

    fn next(&self, level: usize) -> *mut Node {
        self.next[level].load(AtomicOrd::Acquire)
    }

    fn set_next(&self, level: usize, node: *mut Node) {
        self.next[level].store(node, AtomicOrd::Release);
    }
}

/// Skiplist storing opaque byte entries under a caller-supplied order.
///
/// Readers ([`SkipListIterator`], [`SkipList::contains`], seeks) run
/// concurrently with a single inserter; inserts are serialized internally.
pub struct SkipList<C: Comparator> {
    head: *mut Node,
    cmp: C,
    max_height: AtomicUsize,
    len: AtomicUsize,
    memory: AtomicUsize,
    insert_lock: Mutex<Rand>,
}

unsafe impl<C: Comparator> Send for SkipList<C> {}
unsafe impl<C: Comparator> Sync for SkipList<C> {}

/// Tiny xorshift PRNG for height selection (deterministic, seedable).
struct Rand(u64);

impl Rand {
    fn next(&mut self) -> u32 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 32) as u32
    }
}

impl<C: Comparator> SkipList<C> {
    /// Create an empty list ordered by `cmp`.
    pub fn new(cmp: C) -> Self {
        SkipList {
            head: Node::new(Box::new([])),
            cmp,
            max_height: AtomicUsize::new(1),
            len: AtomicUsize::new(0),
            memory: AtomicUsize::new(0),
            insert_lock: Mutex::new(Rand(0x2545_f491_4f6c_dd1d)),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len.load(AtomicOrd::Acquire)
    }

    /// True if no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes consumed by entries plus node overhead.
    pub fn memory_usage(&self) -> usize {
        self.memory.load(AtomicOrd::Acquire)
    }

    fn random_height(rng: &mut Rand) -> usize {
        let mut h = 1;
        while h < MAX_HEIGHT && rng.next().is_multiple_of(BRANCHING) {
            h += 1;
        }
        h
    }

    /// Greater-or-equal search; fills `prev` with the predecessor at each
    /// level when provided.
    fn find_greater_or_equal(
        &self,
        key: &[u8],
        prev: Option<&mut [*mut Node; MAX_HEIGHT]>,
    ) -> *mut Node {
        self.find_first_not_before(|entry| self.cmp.compare(entry, key) == Ordering::Less, prev)
    }

    /// The first node whose entry `before` rejects, where `before` holds
    /// for a prefix of the list; fills `prev` with the predecessor at each
    /// level when provided.
    fn find_first_not_before(
        &self,
        before: impl Fn(&[u8]) -> bool,
        mut prev: Option<&mut [*mut Node; MAX_HEIGHT]>,
    ) -> *mut Node {
        let mut x = self.head;
        let mut level = self.max_height.load(AtomicOrd::Acquire) - 1;
        loop {
            let next = unsafe { (*x).next(level) };
            let key_is_after = !next.is_null() && before(unsafe { &(*next).entry });
            if key_is_after {
                x = next;
            } else {
                if let Some(p) = prev.as_deref_mut() {
                    p[level] = x;
                }
                if level == 0 {
                    return next;
                }
                level -= 1;
            }
        }
    }

    fn find_less_than(&self, key: &[u8]) -> *mut Node {
        let mut x = self.head;
        let mut level = self.max_height.load(AtomicOrd::Acquire) - 1;
        loop {
            let next = unsafe { (*x).next(level) };
            if !next.is_null() && self.cmp.compare(unsafe { &(*next).entry }, key) == Ordering::Less
            {
                x = next;
            } else if level == 0 {
                return x;
            } else {
                level -= 1;
            }
        }
    }

    fn find_last(&self) -> *mut Node {
        let mut x = self.head;
        let mut level = self.max_height.load(AtomicOrd::Acquire) - 1;
        loop {
            let next = unsafe { (*x).next(level) };
            if !next.is_null() {
                x = next;
            } else if level == 0 {
                return x;
            } else {
                level -= 1;
            }
        }
    }

    /// Insert `entry`. Duplicate entries (equal under the comparator) are
    /// rejected with `false`; memtables never produce duplicates because
    /// every entry carries a unique sequence number.
    pub fn insert(&self, entry: impl Into<Box<[u8]>>) -> bool {
        let entry: Box<[u8]> = entry.into();
        let mut rng = self.insert_lock.lock();
        let mut prev: [*mut Node; MAX_HEIGHT] = [ptr::null_mut(); MAX_HEIGHT];
        let ge = self.find_greater_or_equal(&entry, Some(&mut prev));
        if !ge.is_null() && self.cmp.compare(unsafe { &(*ge).entry }, &entry) == Ordering::Equal {
            return false;
        }

        let height = Self::random_height(&mut rng);
        let cur_max = self.max_height.load(AtomicOrd::Relaxed);
        if height > cur_max {
            for p in prev.iter_mut().take(height).skip(cur_max) {
                *p = self.head;
            }
            // Publishing a larger height before the new node is linked is
            // fine: the extra levels of head still point past the node.
            self.max_height.store(height, AtomicOrd::Release);
        }

        let entry_len = entry.len();
        let node = Node::new(entry);
        for (level, &p) in prev.iter().enumerate().take(height) {
            unsafe {
                // New node first points at successor, then becomes visible.
                (*node).set_next(level, (*p).next(level));
                (*p).set_next(level, node);
            }
        }
        self.len.fetch_add(1, AtomicOrd::AcqRel);
        self.memory
            .fetch_add(entry_len + std::mem::size_of::<Node>(), AtomicOrd::AcqRel);
        true
    }

    /// True if an entry equal to `key` exists.
    pub fn contains(&self, key: &[u8]) -> bool {
        let x = self.find_greater_or_equal(key, None);
        !x.is_null() && self.cmp.compare(unsafe { &(*x).entry }, key) == Ordering::Equal
    }

    /// A read iterator over the list. Safe to use while inserts proceed.
    pub fn iter(&self) -> SkipListIterator<'_, C> {
        SkipListIterator {
            list: self,
            node: ptr::null_mut(),
        }
    }
}

impl<C: Comparator> Drop for SkipList<C> {
    fn drop(&mut self) {
        let mut x = self.head;
        while !x.is_null() {
            let next = unsafe { (*x).next(0) };
            drop(unsafe { Box::from_raw(x) });
            x = next;
        }
    }
}

/// Cursor over a [`SkipList`]. Positioning methods mirror LevelDB's
/// iterator contract: the cursor is invalid until positioned.
pub struct SkipListIterator<'a, C: Comparator> {
    list: &'a SkipList<C>,
    node: *mut Node,
}

// SAFETY: the raw node pointer only ever targets nodes owned by `list`,
// which outlives the iterator; nodes are immutable once published and are
// only freed when the list drops. Moving the cursor to another thread is
// therefore no different from sharing `&SkipList`.
unsafe impl<C: Comparator> Send for SkipListIterator<'_, C> {}

impl<'a, C: Comparator> SkipListIterator<'a, C> {
    /// True if positioned on an entry.
    pub fn valid(&self) -> bool {
        !self.node.is_null()
    }

    /// The entry under the cursor.
    ///
    /// # Panics
    /// Panics if the iterator is not [`valid`](Self::valid).
    pub fn entry(&self) -> &'a [u8] {
        assert!(self.valid(), "iterator not positioned");
        unsafe { &(*self.node).entry }
    }

    /// Position at the first entry `>= key`.
    pub fn seek(&mut self, key: &[u8]) {
        self.node = self.list.find_greater_or_equal(key, None);
    }

    /// Position at the first entry for which `before` is false, where
    /// `before` holds exactly for the entries that sort before some target:
    /// a seek that needs no encoded target entry.
    pub fn seek_by(&mut self, before: impl Fn(&[u8]) -> bool) {
        self.node = self.list.find_first_not_before(before, None);
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) {
        self.node = unsafe { (*self.list.head).next(0) };
    }

    /// Position at the last entry.
    pub fn seek_to_last(&mut self) {
        let last = self.list.find_last();
        self.node = if last == self.list.head {
            ptr::null_mut()
        } else {
            last
        };
    }

    /// Advance to the next entry.
    pub fn next(&mut self) {
        assert!(self.valid(), "iterator not positioned");
        self.node = unsafe { (*self.node).next(0) };
    }

    /// Step back to the previous entry (O(log n): re-descends from head).
    pub fn prev(&mut self) {
        assert!(self.valid(), "iterator not positioned");
        let entry = unsafe { &(*self.node).entry };
        let prev = self.list.find_less_than(entry);
        self.node = if prev == self.list.head {
            ptr::null_mut()
        } else {
            prev
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[allow(clippy::type_complexity)]
    fn bytes_list() -> SkipList<fn(&[u8], &[u8]) -> Ordering> {
        SkipList::new(<[u8]>::cmp as fn(&[u8], &[u8]) -> Ordering)
    }

    #[test]
    fn empty_list() {
        let l = bytes_list();
        assert!(l.is_empty());
        assert!(!l.contains(b"x"));
        let mut it = l.iter();
        assert!(!it.valid());
        it.seek_to_first();
        assert!(!it.valid());
        it.seek_to_last();
        assert!(!it.valid());
    }

    #[test]
    fn insert_and_lookup() {
        let l = bytes_list();
        assert!(l.insert(&b"b"[..]));
        assert!(l.insert(&b"a"[..]));
        assert!(l.insert(&b"c"[..]));
        assert!(!l.insert(&b"b"[..]), "duplicates rejected");
        assert_eq!(l.len(), 3);
        assert!(l.contains(b"a") && l.contains(b"b") && l.contains(b"c"));
        assert!(!l.contains(b"d"));
        assert!(l.memory_usage() > 3);
    }

    #[test]
    fn iteration_is_sorted() {
        let l = bytes_list();
        for k in [b"d".as_ref(), b"a".as_ref(), b"c".as_ref(), b"b".as_ref()] {
            l.insert(k);
        }
        let mut it = l.iter();
        it.seek_to_first();
        let mut got = Vec::new();
        while it.valid() {
            got.push(it.entry().to_vec());
            it.next();
        }
        assert_eq!(
            got,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn seek_semantics() {
        let l = bytes_list();
        for k in [&b"b"[..], &b"d"[..], &b"f"[..]] {
            l.insert(k);
        }
        let mut it = l.iter();
        it.seek(b"c");
        assert!(it.valid());
        assert_eq!(it.entry(), b"d");
        it.seek(b"d");
        assert_eq!(it.entry(), b"d");
        it.seek(b"g");
        assert!(!it.valid());
        it.seek_to_last();
        assert_eq!(it.entry(), b"f");
        it.prev();
        assert_eq!(it.entry(), b"d");
        it.prev();
        assert_eq!(it.entry(), b"b");
        it.prev();
        assert!(!it.valid());
    }

    #[test]
    fn concurrent_readers_during_inserts() {
        let l = Arc::new(bytes_list());
        let writer = {
            let l = l.clone();
            std::thread::spawn(move || {
                for i in 0..5_000u32 {
                    l.insert(&i.to_be_bytes()[..]);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let l = l.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        // Sorted-order invariant must hold at every instant.
                        let mut it = l.iter();
                        it.seek_to_first();
                        let mut prev: Option<Vec<u8>> = None;
                        while it.valid() {
                            let e = it.entry().to_vec();
                            if let Some(p) = &prev {
                                assert!(p < &e, "ordering violated under concurrency");
                            }
                            prev = Some(e);
                            it.next();
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(l.len(), 5_000);
    }

    proptest! {
        #[test]
        fn prop_matches_btreeset(keys in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..12), 0..200)) {
            use std::collections::BTreeSet;
            let l = bytes_list();
            let mut model = BTreeSet::new();
            for k in &keys {
                let fresh = model.insert(k.clone());
                prop_assert_eq!(l.insert(&k[..]), fresh);
            }
            prop_assert_eq!(l.len(), model.len());
            // Full scans agree.
            let mut it = l.iter();
            it.seek_to_first();
            for expect in &model {
                prop_assert!(it.valid());
                prop_assert_eq!(it.entry(), &expect[..]);
                it.next();
            }
            prop_assert!(!it.valid());
            // Random seeks agree with model's range lookup.
            for k in &keys {
                let mut it = l.iter();
                it.seek(k);
                let expect = model.range::<Vec<u8>, _>(k.clone()..).next();
                match expect {
                    Some(e) => { prop_assert!(it.valid()); prop_assert_eq!(it.entry(), &e[..]); }
                    None => prop_assert!(!it.valid()),
                }
            }
        }
    }
}
