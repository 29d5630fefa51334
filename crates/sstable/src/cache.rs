//! Sharded LRU block cache.
//!
//! Keys are `(cache_id, block_offset)` pairs — each open table reserves a
//! distinct `cache_id`, so cached blocks survive across reader handles and
//! never alias between files. Capacity is counted in payload bytes.

use crate::block::Block;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 16;

/// End-of-list marker for slot links.
const NIL: usize = usize::MAX;

type Key = (u64, u64);

/// One cached block, linked into its shard's recency list.
struct Slot {
    key: Key,
    /// `None` while the slot sits on the free list.
    block: Option<Arc<Block>>,
    /// Towards the least recently used end.
    prev: usize,
    /// Towards the most recently used end.
    next: usize,
}

/// An exact LRU: a hash map from key to slot index, and a doubly linked
/// recency list threaded through a slab of slots, so a hit, an insert and
/// an eviction each cost O(1).
struct Shard {
    map: HashMap<Key, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Least recently used slot.
    head: usize,
    /// Most recently used slot.
    tail: usize,
    bytes: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Link slot `i` in as the most recently used.
    fn push_back(&mut self, i: usize) {
        self.slots[i].prev = self.tail;
        self.slots[i].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t].next = i,
        }
        self.tail = i;
    }

    fn get(&mut self, key: Key) -> Option<Arc<Block>> {
        let i = *self.map.get(&key)?;
        if self.tail != i {
            self.unlink(i);
            self.push_back(i);
        }
        self.slots[i].block.clone()
    }

    fn insert(&mut self, key: Key, block: Arc<Block>) {
        self.bytes += block.size();
        if let Some(&i) = self.map.get(&key) {
            let old = self.slots[i].block.replace(block);
            self.bytes -= old.map_or(0, |b| b.size());
            self.unlink(i);
            self.push_back(i);
            return;
        }
        let slot = Slot {
            key,
            block: Some(block),
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
        self.push_back(i);
    }

    /// Drop the entry in slot `i`, returning the slot to the free list.
    fn remove_slot(&mut self, i: usize) {
        self.unlink(i);
        self.map.remove(&self.slots[i].key);
        if let Some(block) = self.slots[i].block.take() {
            self.bytes -= block.size();
        }
        self.free.push(i);
    }

    fn evict_to(&mut self, capacity: usize) {
        while self.bytes > capacity && self.head != NIL {
            self.remove_slot(self.head);
        }
    }
}

/// A sharded LRU cache of parsed blocks.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    next_id: AtomicU64,
}

impl BlockCache {
    /// Create a cache holding roughly `capacity_bytes` of block payloads.
    pub fn new(capacity_bytes: usize) -> Arc<Self> {
        Arc::new(BlockCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            capacity_per_shard: capacity_bytes.div_ceil(SHARDS).max(1),
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

    /// Look up a block, making it the most recently used on a hit.
    pub fn get(&self, cache_id: u64, offset: u64) -> Option<Arc<Block>> {
        let key = (cache_id, offset);
        self.shard(key).lock().get(key)
    }

    /// Insert a block, evicting least-recently-used blocks if over capacity.
    pub fn insert(&self, cache_id: u64, offset: u64, block: Arc<Block>) {
        let key = (cache_id, offset);
        let mut shard = self.shard(key).lock();
        shard.insert(key, block);
        shard.evict_to(self.capacity_per_shard);
    }

    /// Drop every block belonging to `cache_id` (table deleted).
    pub fn evict_table(&self, cache_id: u64) {
        for shard in &self.shards {
            let mut s = shard.lock();
            let victims: Vec<usize> = s
                .map
                .iter()
                .filter(|((id, _), _)| *id == cache_id)
                .map(|(_, &i)| i)
                .collect();
            for i in victims {
                s.remove_slot(i);
            }
        }
    }

    /// Total bytes currently cached.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;

    fn block_of(n: usize) -> Arc<Block> {
        let mut b = BlockBuilder::new(16);
        b.add(b"k", &vec![0u8; n]);
        Arc::new(Block::new(b.finish()).unwrap())
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
        /// Shard `s`'s keys from least to most recently used, after checking
        /// that its list, map, slab and byte count agree.
        fn lru_order(&self, s: usize) -> Vec<Key> {
            let shard = self.shards[s].lock();
            let mut keys = Vec::new();
            let mut bytes = 0;
            let mut i = shard.head;
            while i != NIL {
                let slot = &shard.slots[i];
                assert_eq!(shard.map.get(&slot.key), Some(&i));
                bytes += slot
                    .block
                    .as_ref()
                    .expect("linked slot holds a block")
                    .size();
                keys.push(slot.key);
                i = slot.next;
            }
            assert_eq!(keys.len(), shard.map.len());
            assert_eq!(shard.slots.len(), shard.map.len() + shard.free.len());
            assert_eq!(bytes, shard.bytes);
            keys
        }
    }

    /// Exact LRU per shard, kept as a plain recency-ordered list.
    struct ModelLru {
        shards: Vec<Vec<(Key, usize)>>,
        capacity_per_shard: usize,
    }

    impl ModelLru {
        fn get(&mut self, key: Key) -> Option<usize> {
            let list = &mut self.shards[BlockCache::shard_index(key)];
            let pos = list.iter().position(|(k, _)| *k == key)?;
            let entry = list.remove(pos);
            list.push(entry);
            Some(entry.1)
        }

        fn insert(&mut self, key: Key, size: usize) {
            let list = &mut self.shards[BlockCache::shard_index(key)];
            list.retain(|(k, _)| *k != key);
            list.push((key, size));
            while list.iter().map(|(_, s)| s).sum::<usize>() > self.capacity_per_shard {
                list.remove(0);
            }
        }

        fn evict_table(&mut self, id: u64) {
            for list in &mut self.shards {
                list.retain(|((i, _), _)| *i != id);
            }
        }
    }

    #[test]
    fn evicts_in_exact_lru_order() {
        let capacity = 16 * 1500;
        let cache = BlockCache::new(capacity);
        let mut model = ModelLru {
            shards: vec![Vec::new(); SHARDS],
            capacity_per_shard: cache.capacity_per_shard,
        };
        let ids: Vec<u64> = (0..4).map(|_| cache.new_id()).collect();
        let mut rng = unikv_common::rng::DetRng::seed_from_u64(0x1ce);
        for step in 0..20_000 {
            let key = (ids[rng.u64_in(0..4) as usize], rng.u64_in(0..48) * 4096);
            match rng.u64_in(0..100) {
                0..=54 => {
                    let hit = cache.get(key.0, key.1).map(|b| b.size());
                    assert_eq!(hit, model.get(key), "step {step}: get {key:?}");
                }
                55..=98 => {
                    // Sizes up to above a shard's capacity, so a lone
                    // oversized block is evicted by its own insert.
                    let block = block_of(rng.u64_in(1..1600) as usize);
                    model.insert(key, block.size());
                    cache.insert(key.0, key.1, block);
                }
                _ => {
                    cache.evict_table(key.0);
                    model.evict_table(key.0);
                }
            }
            for (s, list) in model.shards.iter().enumerate() {
                let want: Vec<Key> = list.iter().map(|(k, _)| *k).collect();
                assert_eq!(cache.lru_order(s), want, "step {step}: shard {s}");
            }
            let model_bytes: usize = model.shards.iter().flatten().map(|(_, s)| s).sum();
            assert_eq!(cache.bytes(), model_bytes, "step {step}");
            assert!(cache.bytes() <= SHARDS * cache.capacity_per_shard);
        }
    }

    #[test]
    fn reinsert_fixes_byte_accounting() {
        let cache = BlockCache::new(1 << 20);
        let id = cache.new_id();
        for n in [100, 1000, 10, 1000] {
            cache.insert(id, 0, block_of(n));
            assert_eq!(cache.bytes(), block_of(n).size(), "after a {n}-byte value");
        }
        cache.evict_table(id);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn evict_table_removes_all() {
        let cache = BlockCache::new(1 << 20);
        let id = cache.new_id();
        for i in 0..10u64 {
            cache.insert(id, i, block_of(16));
        }
        cache.evict_table(id);
        assert_eq!(cache.bytes(), 0);
        for i in 0..10u64 {
            assert!(cache.get(id, i).is_none());
        }
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
        Arc::new(Block::new(b.finish()).unwrap())
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
