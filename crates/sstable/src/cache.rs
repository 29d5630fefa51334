//! Sharded segmented-LRU block cache.
//!
//! Keys are `(cache_id, block_offset)` pairs — each open table reserves a
//! distinct `cache_id`, so cached blocks survive across reader handles and
//! never alias between files. Capacity is counted in payload bytes.
//!
//! Each shard keeps two recency lists. A new block enters *probation*; a
//! hit there promotes it to *protected*, which holds at most 80% of the
//! shard's bytes. Eviction takes
//! probation's least recently used block first, so a one-touch stream
//! (a sweep of cold blocks, a flush's admitted blocks) cycles through
//! probation and cannot push out blocks that were read twice.
//! Maintenance looks blocks up with [`BlockCache::peek`], which moves
//! nothing: a merge reading a table once is not a second touch.

use crate::block::Block;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 16;

/// Share of a shard's bytes the protected segment may hold; overflow
/// demotes protected's least recently used block to probation.
const PROTECTED_SHARE_PERCENT: usize = 80;

/// End-of-list marker for slot links.
const NIL: usize = usize::MAX;

type Key = (u64, u64);

/// The two segments of a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    Probation = 0,
    Protected = 1,
}

/// One cached block, linked into its segment's recency list.
struct Slot {
    key: Key,
    /// `None` while the slot sits on the free list.
    block: Option<Arc<Block>>,
    segment: Segment,
    /// Towards the least recently used end.
    prev: usize,
    /// Towards the most recently used end.
    next: usize,
}

/// A recency list threaded through the shard's slab.
#[derive(Clone, Copy)]
struct List {
    /// Least recently used slot.
    head: usize,
    /// Most recently used slot.
    tail: usize,
    bytes: usize,
}

/// A segmented LRU: a hash map from key to slot index, and one doubly
/// linked recency list per segment threaded through a slab of slots, so
/// a hit, an insert and a removal each cost O(1), plus one step per block
/// the bytes they add push down to probation or out of the shard.
struct Shard {
    map: HashMap<Key, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    lists: [List; 2],
    capacity: usize,
    protected_capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        let empty = List {
            head: NIL,
            tail: NIL,
            bytes: 0,
        };
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lists: [empty; 2],
            capacity,
            protected_capacity: capacity * PROTECTED_SHARE_PERCENT / 100,
        }
    }

    fn bytes(&self) -> usize {
        self.lists[0].bytes + self.lists[1].bytes
    }

    fn size_of(&self, i: usize) -> usize {
        self.slots[i].block.as_ref().map_or(0, |b| b.size())
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        let size = self.size_of(i);
        let list = &mut self.lists[self.slots[i].segment as usize];
        list.bytes -= size;
        match prev {
            NIL => list.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => list.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Link slot `i` in as `segment`'s most recently used.
    fn push_back(&mut self, i: usize, segment: Segment) {
        let size = self.size_of(i);
        let list = &mut self.lists[segment as usize];
        let tail = list.tail;
        list.bytes += size;
        list.tail = i;
        if tail == NIL {
            list.head = i;
        } else {
            self.slots[tail].next = i;
        }
        let slot = &mut self.slots[i];
        slot.segment = segment;
        slot.prev = tail;
        slot.next = NIL;
    }

    /// Demote protected's least recently used blocks to probation's most
    /// recently used end until protected fits its share.
    fn demote_overflow(&mut self) {
        while self.lists[Segment::Protected as usize].bytes > self.protected_capacity {
            let i = self.lists[Segment::Protected as usize].head;
            self.unlink(i);
            self.push_back(i, Segment::Probation);
        }
    }

    fn get(&mut self, key: Key) -> Option<Arc<Block>> {
        let i = *self.map.get(&key)?;
        self.unlink(i);
        self.push_back(i, Segment::Protected);
        self.demote_overflow();
        self.slots[i].block.clone()
    }

    fn peek(&self, key: Key) -> Option<Arc<Block>> {
        let i = *self.map.get(&key)?;
        self.slots[i].block.clone()
    }

    /// Insert a new block on probation; a block already cached under
    /// `key` is replaced in place and refreshed in its own segment.
    fn insert(&mut self, key: Key, block: Arc<Block>) {
        if let Some(&i) = self.map.get(&key) {
            let segment = self.slots[i].segment;
            self.unlink(i);
            self.slots[i].block = Some(block);
            self.push_back(i, segment);
            self.demote_overflow();
        } else {
            let slot = Slot {
                key,
                block: Some(block),
                segment: Segment::Probation,
                prev: NIL,
                next: NIL,
            };
            let i = match self.free.pop() {
                Some(i) => {
                    self.slots[i] = slot;
                    i
                }
                None => {
                    self.slots.push(slot);
                    self.slots.len() - 1
                }
            };
            self.map.insert(key, i);
            self.push_back(i, Segment::Probation);
        }
        self.evict_overflow();
    }

    /// Drop the entry in slot `i`, returning the slot to the free list.
    fn remove_slot(&mut self, i: usize) {
        self.unlink(i);
        self.map.remove(&self.slots[i].key);
        self.slots[i].block = None;
        self.free.push(i);
    }

    fn remove(&mut self, key: Key) {
        if let Some(&i) = self.map.get(&key) {
            self.remove_slot(i);
        }
    }

    /// Evict probation's least recently used blocks, then protected's,
    /// until the shard fits its capacity.
    fn evict_overflow(&mut self) {
        while self.bytes() > self.capacity {
            let victim = match self.lists[Segment::Probation as usize].head {
                NIL => self.lists[Segment::Protected as usize].head,
                i => i,
            };
            self.remove_slot(victim);
        }
    }
}

/// A sharded segmented-LRU cache of parsed blocks.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    next_id: AtomicU64,
}

impl BlockCache {
    /// Create a cache holding roughly `capacity_bytes` of block payloads.
    pub fn new(capacity_bytes: usize) -> Arc<Self> {
        let per_shard = capacity_bytes.div_ceil(SHARDS).max(1);
        Arc::new(BlockCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            next_id: AtomicU64::new(1),
        })
    }

    /// Reserve a fresh id for a table file.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn shard_index(key: Key) -> usize {
        let h = key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key.1;
        (h as usize) % SHARDS
    }

    fn shard(&self, key: Key) -> &Mutex<Shard> {
        &self.shards[Self::shard_index(key)]
    }

    /// Look up a block. A hit promotes it to (or refreshes it in) the
    /// protected segment.
    pub fn get(&self, cache_id: u64, offset: u64) -> Option<Arc<Block>> {
        let key = (cache_id, offset);
        self.shard(key).lock().get(key)
    }

    /// Look up a block without changing its segment or recency.
    pub fn peek(&self, cache_id: u64, offset: u64) -> Option<Arc<Block>> {
        let key = (cache_id, offset);
        self.shard(key).lock().peek(key)
    }

    /// Insert a block on probation, evicting probation's least recently
    /// used blocks first if the shard is over capacity.
    pub fn insert(&self, cache_id: u64, offset: u64, block: Arc<Block>) {
        let key = (cache_id, offset);
        self.shard(key).lock().insert(key, block);
    }

    /// Drop the block cached under `(cache_id, offset)`, if any.
    pub fn remove(&self, cache_id: u64, offset: u64) {
        let key = (cache_id, offset);
        self.shard(key).lock().remove(key);
    }

    /// Total bytes currently cached.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;

    fn block_of(n: usize) -> Arc<Block> {
        let mut b = BlockBuilder::new(16);
        b.add(b"k", &vec![0u8; n]);
        Arc::new(Block::new(b.finish().to_vec()).unwrap())
    }

    #[test]
    fn hit_and_miss() {
        let cache = BlockCache::new(1 << 20);
        let id = cache.new_id();
        assert!(cache.get(id, 0).is_none());
        cache.insert(id, 0, block_of(10));
        assert!(cache.get(id, 0).is_some());
        assert!(cache.get(id, 1).is_none());
    }

    #[test]
    fn ids_do_not_alias() {
        let cache = BlockCache::new(1 << 20);
        let a = cache.new_id();
        let b = cache.new_id();
        cache.insert(a, 0, block_of(10));
        assert!(cache.get(b, 0).is_none());
    }

    #[test]
    fn eviction_under_pressure() {
        // Tiny capacity: inserting many blocks must keep bytes bounded.
        let cache = BlockCache::new(4096);
        let id = cache.new_id();
        for i in 0..200u64 {
            cache.insert(id, i, block_of(256));
        }
        assert!(cache.bytes() <= 4096 + 16 * 300, "cache grew unbounded");
    }

    #[test]
    fn lru_prefers_recent() {
        let cache = BlockCache::new(16); // one shard ~1 byte: evicts hard
        let id = cache.new_id();
        cache.insert(id, 1, block_of(64));
        cache.insert(id, 2, block_of(64));
        // Whatever remains, a re-inserted block must be retrievable
        // immediately after insertion in the same shard.
        cache.insert(id, 3, block_of(64));
        let _ = cache.get(id, 3); // may or may not hit depending on shard cap
    }

    impl BlockCache {
        /// Shard `s`'s probation and protected keys, each from least to
        /// most recently used, after checking that the lists, map, slab
        /// and byte counts agree.
        fn segments(&self, s: usize) -> [Vec<Key>; 2] {
            let shard = self.shards[s].lock();
            let mut out = [Vec::new(), Vec::new()];
            for (seg, keys) in [Segment::Probation, Segment::Protected]
                .into_iter()
                .zip(out.iter_mut())
            {
                let list = shard.lists[seg as usize];
                let (mut bytes, mut prev, mut i) = (0, NIL, list.head);
                while i != NIL {
                    let slot = &shard.slots[i];
                    assert_eq!(shard.map.get(&slot.key), Some(&i));
                    assert_eq!((slot.segment, slot.prev), (seg, prev));
                    bytes += slot
                        .block
                        .as_ref()
                        .expect("linked slot holds a block")
                        .size();
                    keys.push(slot.key);
                    (prev, i) = (i, slot.next);
                }
                assert_eq!(list.tail, prev);
                assert_eq!(bytes, list.bytes);
            }
            assert_eq!(out[0].len() + out[1].len(), shard.map.len());
            assert_eq!(shard.slots.len(), shard.map.len() + shard.free.len());
            assert!(shard.bytes() <= shard.capacity);
            assert!(shard.lists[1].bytes <= shard.protected_capacity);
            out
        }
    }

    /// Segmented LRU per shard, kept as two plain recency-ordered lists
    /// (least recently used first).
    struct ModelSlru {
        shards: Vec<[Vec<(Key, usize)>; 2]>,
        capacity: usize,
        protected_capacity: usize,
    }

    fn list_bytes(list: &[(Key, usize)]) -> usize {
        list.iter().map(|(_, s)| s).sum()
    }

    impl ModelSlru {
        fn new(cache: &BlockCache) -> ModelSlru {
            let shard = cache.shards[0].lock();
            ModelSlru {
                shards: vec![[Vec::new(), Vec::new()]; SHARDS],
                capacity: shard.capacity,
                protected_capacity: shard.protected_capacity,
            }
        }

        /// Take `key` out of its list: `(segment, size)`.
        fn take(lists: &mut [Vec<(Key, usize)>; 2], key: Key) -> Option<(usize, usize)> {
            (0..2).find_map(|seg| {
                let pos = lists[seg].iter().position(|(k, _)| *k == key)?;
                Some((seg, lists[seg].remove(pos).1))
            })
        }

        fn demote(&mut self, s: usize) {
            let [probation, protected] = &mut self.shards[s];
            while list_bytes(protected) > self.protected_capacity {
                probation.push(protected.remove(0));
            }
        }

        fn get(&mut self, key: Key) -> Option<usize> {
            let s = BlockCache::shard_index(key);
            let (_, size) = Self::take(&mut self.shards[s], key)?;
            self.shards[s][1].push((key, size));
            self.demote(s);
            Some(size)
        }

        fn peek(&self, key: Key) -> Option<usize> {
            let lists = &self.shards[BlockCache::shard_index(key)];
            lists
                .iter()
                .flatten()
                .find(|(k, _)| *k == key)
                .map(|(_, s)| *s)
        }

        fn insert(&mut self, key: Key, size: usize) {
            let s = BlockCache::shard_index(key);
            let seg = Self::take(&mut self.shards[s], key).map_or(0, |(seg, _)| seg);
            self.shards[s][seg].push((key, size));
            self.demote(s);
            let lists = &mut self.shards[s];
            while list_bytes(&lists[0]) + list_bytes(&lists[1]) > self.capacity {
                let victim = if lists[0].is_empty() { 1 } else { 0 };
                lists[victim].remove(0);
            }
        }

        fn remove(&mut self, key: Key) {
            Self::take(&mut self.shards[BlockCache::shard_index(key)], key);
        }
    }

    #[test]
    fn evicts_in_segmented_lru_order() {
        let cache = BlockCache::new(16 * 1500);
        let mut model = ModelSlru::new(&cache);
        let ids: Vec<u64> = (0..4).map(|_| cache.new_id()).collect();
        let mut rng = unikv_common::rng::DetRng::seed_from_u64(0x1ce);
        for step in 0..20_000 {
            let key = (ids[rng.u64_in(0..4) as usize], rng.u64_in(0..48) * 4096);
            match rng.u64_in(0..100) {
                0..=49 => {
                    let hit = cache.get(key.0, key.1).map(|b| b.size());
                    assert_eq!(hit, model.get(key), "step {step}: get {key:?}");
                }
                50..=54 => {
                    let hit = cache.peek(key.0, key.1).map(|b| b.size());
                    assert_eq!(hit, model.peek(key), "step {step}: peek {key:?}");
                }
                55..=97 => {
                    // Sizes up to above a shard's capacity, so a lone
                    // oversized block is evicted by its own insert.
                    let block = block_of(rng.u64_in(1..1600) as usize);
                    model.insert(key, block.size());
                    cache.insert(key.0, key.1, block);
                }
                98 => {
                    cache.remove(key.0, key.1);
                    model.remove(key);
                }
                _ => {
                    // A whole table, as `Table::evict_from_cache` drops it.
                    for offset in (0..48).map(|b| b * 4096) {
                        cache.remove(key.0, offset);
                        model.remove((key.0, offset));
                    }
                }
            }
            for (s, lists) in model.shards.iter().enumerate() {
                let want: [Vec<Key>; 2] = lists
                    .clone()
                    .map(|l| l.into_iter().map(|(k, _)| k).collect());
                assert_eq!(cache.segments(s), want, "step {step}: shard {s}");
            }
            let model_bytes: usize = model.shards.iter().flatten().map(|l| list_bytes(l)).sum();
            assert_eq!(cache.bytes(), model_bytes, "step {step}");
        }
    }

    #[test]
    fn one_pass_sweep_keeps_hot_blocks() {
        let capacity = 16 * 16 * 1024;
        let cache = BlockCache::new(capacity);
        let hot = cache.new_id();
        let cold = cache.new_id();
        let block_bytes = block_of(1000).size();
        for offset in 0..32 {
            cache.insert(hot, offset, block_of(1000));
            for _ in 0..2 {
                assert!(cache.get(hot, offset).is_some(), "hot block {offset}");
            }
        }
        // One pass over 4x the capacity: every cold block is read once,
        // missed and inserted.
        for offset in 0..(4 * capacity / block_bytes) as u64 {
            assert!(cache.get(cold, offset).is_none());
            cache.insert(cold, offset, block_of(1000));
        }
        for offset in 0..32 {
            assert!(
                cache.get(hot, offset).is_some(),
                "hot block {offset} evicted"
            );
        }
        assert!(cache.bytes() <= capacity);
    }

    #[test]
    fn reinsert_fixes_byte_accounting() {
        let cache = BlockCache::new(1 << 20);
        let id = cache.new_id();
        for n in [100, 1000, 10, 1000] {
            cache.insert(id, 0, block_of(n));
            assert_eq!(cache.bytes(), block_of(n).size(), "after a {n}-byte value");
        }
        // Replacing a protected block keeps its bytes in that segment.
        cache.get(id, 0);
        cache.insert(id, 0, block_of(10));
        assert_eq!(cache.bytes(), block_of(10).size());
        cache.remove(id, 0);
        assert_eq!(cache.bytes(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::block::BlockBuilder;
    use proptest::prelude::*;

    fn block_of(n: usize) -> Arc<Block> {
        let mut b = BlockBuilder::new(16);
        b.add(b"k", &vec![0u8; n]);
        Arc::new(Block::new(b.finish().to_vec()).unwrap())
    }

    proptest! {
        /// Under arbitrary insert/get interleavings the cache never exceeds
        /// its byte budget (modulo one in-flight block per shard) and every
        /// hit returns the exact block last inserted under that key.
        #[test]
        fn prop_capacity_and_correctness(
            ops in proptest::collection::vec((any::<u8>(), any::<bool>(), 1usize..512), 1..300),
            capacity in 256usize..8192,
        ) {
            let cache = BlockCache::new(capacity);
            let id = cache.new_id();
            let mut model: std::collections::HashMap<u64, usize> =
                std::collections::HashMap::new();
            for (key, is_insert, size) in ops {
                let offset = key as u64 % 32;
                if is_insert {
                    cache.insert(id, offset, block_of(size));
                    model.insert(offset, size);
                } else if let Some(block) = cache.get(id, offset) {
                    // A hit must return the last inserted size for the key.
                    let expect = model.get(&offset).copied();
                    prop_assert_eq!(Some(block.size()), expect.map(|s| block_of(s).size()));
                }
            }
            // Capacity respected within one max-block slack per shard.
            prop_assert!(cache.bytes() <= capacity + 16 * (512 + 64));
        }
    }
}
