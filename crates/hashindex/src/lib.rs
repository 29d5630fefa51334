#![warn(missing_docs)]

//! The paper's lightweight two-level hash index (§Design, "Hash indexing").
//!
//! The index accelerates point lookups into the UnsortedStore. It combines
//! cuckoo-style multi-choice placement with chained overflow:
//!
//! * **Insertion** probes candidate buckets `h_1(key)%N .. h_n(key)%N` and
//!   places the entry in the first bucket with a free primary slot; if all
//!   candidates are occupied, the entry is appended as an *overflow* entry
//!   to bucket `h_n(key)%N`.
//! * Each entry is `<keyTag(2B), sstableId(4B), next-pointer(4B)>`. The
//!   `keyTag` is the top 2 bytes of `h_{n+1}(key)` and filters probes; the
//!   `next` pointer links the entries of one bucket newest-first. Entries
//!   live in one arena `Vec`, and each bucket is a 4-byte chain head into
//!   it, so the index costs 4 B per bucket plus 12 B per entry (the arena
//!   grows by doubling), with no heap allocation per bucket.
//! * **Lookup** probes buckets from `h_n` **down** to `h_1`, walking each
//!   bucket's chain newest-first. Because re-insertions of a key only ever
//!   move to later probe positions, this order yields the newest version
//!   first. A tag match may still be a false positive; the caller resolves
//!   it by reading the key from the named SSTable.
//!
//! Memory: the paper budgets ~8 bytes per resident KV at ~80% bucket
//! utilization, i.e. ~10 MB per 1 GB of 1 KiB KVs (<1%);
//! [`TwoLevelHashIndex::memory_bytes`] reports that logical figure. The
//! index is checkpointable for crash recovery (paper §Crash Consistency: a
//! checkpoint every `unsorted_limit/2` flushes).

#[cfg(test)]
mod reference;

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use unikv_common::coding::{get_varint32, put_fixed32, put_varint32, try_decode_fixed32};
use unikv_common::hash::{bucket_hash, key_tag, FAMILY};
use unikv_common::{crc32c, Error, Result};

/// Logical bytes per entry, per the paper's memory analysis.
pub const ENTRY_BYTES: usize = 8;

/// Default number of candidate hash functions (`n` in the paper).
pub const DEFAULT_NUM_HASHES: usize = 2;

/// Default target bucket utilization used by [`TwoLevelHashIndex::with_capacity`].
pub const DEFAULT_LOAD_FACTOR: f64 = 0.8;

/// Bytes one entry takes in a checkpoint: `tag(2) table_id(4)`.
const CKPT_ENTRY_BYTES: usize = 6;

/// Empty chain: a bucket head or `next` pointer that names no entry.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u16,
    table_id: u32,
    /// Arena index of the next-older entry of the same bucket, or [`NIL`].
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 12);

/// Probe/verification counters for the memory/lookup experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// `candidates` calls.
    pub lookups: u64,
    /// Candidate entries produced (tag matches).
    pub tag_matches: u64,
    /// Entries placed in a primary slot.
    pub primary_inserts: u64,
    /// Entries appended to an overflow chain.
    pub overflow_inserts: u64,
}

#[derive(Default)]
struct AtomicStats {
    lookups: AtomicU64,
    tag_matches: AtomicU64,
    primary_inserts: AtomicU64,
    overflow_inserts: AtomicU64,
}

/// The two-level hash index mapping keys to UnsortedStore SSTable ids.
///
/// ```
/// use unikv_hashindex::TwoLevelHashIndex;
///
/// let mut index = TwoLevelHashIndex::with_capacity(1_000, 2);
/// index.insert(b"user42", 7);
/// assert!(index.candidates(b"user42").any(|t| t == 7));
/// assert_eq!(index.memory_bytes(), 8); // 8 bytes per entry, as in the paper
/// let restored = TwoLevelHashIndex::restore(&index.checkpoint()).unwrap();
/// assert!(restored.candidates(b"user42").any(|t| t == 7));
/// ```
pub struct TwoLevelHashIndex {
    /// Per bucket, the arena index of its newest entry, or [`NIL`].
    heads: Vec<u32>,
    /// Every entry; within one bucket's chain, arena indices decrease.
    arena: Vec<Entry>,
    num_hashes: usize,
    stats: AtomicStats,
}

impl TwoLevelHashIndex {
    /// Create an index with exactly `num_buckets` buckets and `num_hashes`
    /// candidate hash functions (1..=4).
    pub fn new(num_buckets: usize, num_hashes: usize) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        assert!(num_buckets < NIL as usize, "too many buckets");
        assert!(
            (1..=FAMILY.len()).contains(&num_hashes),
            "num_hashes out of range"
        );
        TwoLevelHashIndex {
            heads: vec![NIL; num_buckets],
            arena: Vec::new(),
            num_hashes,
            stats: AtomicStats::default(),
        }
    }

    /// Size the index for `expected_keys` at the paper's ~80% utilization.
    pub fn with_capacity(expected_keys: usize, num_hashes: usize) -> Self {
        let buckets = ((expected_keys as f64 / DEFAULT_LOAD_FACTOR).ceil() as usize).max(16);
        Self::new(buckets, num_hashes)
    }

    /// Number of index entries (one per resident key version).
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.heads.len()
    }

    /// Logical memory consumed by entries: the paper's 8 B per entry, not
    /// heap bytes (the arena holds 12 B per entry, plus 4 B per bucket).
    pub fn memory_bytes(&self) -> usize {
        self.arena.len() * ENTRY_BYTES
    }

    /// Counters.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            lookups: self.stats.lookups.load(Relaxed),
            tag_matches: self.stats.tag_matches.load(Relaxed),
            primary_inserts: self.stats.primary_inserts.load(Relaxed),
            overflow_inserts: self.stats.overflow_inserts.load(Relaxed),
        }
    }

    fn bucket_of(&self, key: &[u8], i: usize) -> usize {
        (bucket_hash(key, i) % self.heads.len() as u64) as usize
    }

    /// Link a new entry in as the newest of bucket `b`.
    fn push(&mut self, b: usize, tag: u16, table_id: u32) {
        let slot = u32::try_from(self.arena.len())
            .ok()
            .filter(|&s| s != NIL)
            .expect("hash index arena full");
        self.arena.push(Entry {
            tag,
            table_id,
            next: self.heads[b],
        });
        self.heads[b] = slot;
    }

    /// The entries of the chain starting at `head`, newest first.
    fn chain(&self, head: u32) -> impl Iterator<Item = &Entry> {
        std::iter::successors((head != NIL).then(|| &self.arena[head as usize]), |e| {
            (e.next != NIL).then(|| &self.arena[e.next as usize])
        })
    }

    /// Record that `key` now resides in UnsortedStore table `table_id`.
    pub fn insert(&mut self, key: &[u8], table_id: u32) {
        let primary = (0..self.num_hashes)
            .map(|i| self.bucket_of(key, i))
            .find(|&b| self.heads[b] == NIL);
        let b = match primary {
            Some(b) => {
                self.stats.primary_inserts.fetch_add(1, Relaxed);
                b
            }
            None => {
                // All candidates occupied: overflow onto the h_n bucket's chain.
                self.stats.overflow_inserts.fetch_add(1, Relaxed);
                self.bucket_of(key, self.num_hashes - 1)
            }
        };
        self.push(b, key_tag(key), table_id);
    }

    /// Candidate table ids for `key`, newest first. May contain false
    /// positives (same tag, different key) and stale versions; the caller
    /// verifies by reading the named SSTables in order. Allocates nothing.
    pub fn candidates(&self, key: &[u8]) -> impl Iterator<Item = u32> + '_ {
        self.stats.lookups.fetch_add(1, Relaxed);
        // Probe h_n down to h_1; duplicates arise when two hash functions
        // pick the same bucket — skip repeats.
        let mut buckets = [0usize; FAMILY.len()];
        let mut num_buckets = 0;
        for i in (0..self.num_hashes).rev() {
            let b = self.bucket_of(key, i);
            if !buckets[..num_buckets].contains(&b) {
                buckets[num_buckets] = b;
                num_buckets += 1;
            }
        }
        let tag = key_tag(key);
        buckets
            .into_iter()
            .take(num_buckets)
            .flat_map(|b| self.chain(self.heads[b]))
            .filter(move |e| e.tag == tag)
            .map(|e| {
                self.stats.tag_matches.fetch_add(1, Relaxed);
                e.table_id
            })
    }

    /// Drop every entry that references one of `table_ids` (called after a
    /// merge migrates those UnsortedStore tables into the SortedStore).
    /// Allocates nothing.
    pub fn remove_tables(&mut self, table_ids: &HashSet<u32>) {
        if table_ids.is_empty() {
            return;
        }
        // Two linear sweeps. The first walks every chain, stamping each
        // survivor's `next` with its bucket and each victim's with NIL; the
        // second compacts survivors in arena order and relinks them, which
        // keeps every chain newest-first.
        for (b, head) in self.heads.iter_mut().enumerate() {
            let mut cur = std::mem::replace(head, NIL);
            while cur != NIL {
                let e = &mut self.arena[cur as usize];
                cur = e.next;
                e.next = if table_ids.contains(&e.table_id) {
                    NIL
                } else {
                    b as u32
                };
            }
        }
        let mut kept = 0;
        for i in 0..self.arena.len() {
            let e = self.arena[i];
            if e.next == NIL {
                continue;
            }
            let b = e.next as usize;
            self.arena[kept] = Entry {
                next: self.heads[b],
                ..e
            };
            self.heads[b] = kept as u32;
            kept += 1;
        }
        self.arena.truncate(kept);
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.heads.fill(NIL);
        self.arena.clear();
    }

    /// Serialize the index for checkpointing. Format:
    /// `fixed32(num_buckets) fixed32(num_hashes)
    ///  [varint32(len) (fixed-6 entry)*]* fixed32(masked crc)`,
    /// each bucket's entries oldest first.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(8 + self.arena.len() * CKPT_ENTRY_BYTES + self.heads.len() + 4);
        put_fixed32(&mut out, self.heads.len() as u32);
        put_fixed32(&mut out, self.num_hashes as u32);
        for &head in &self.heads {
            let len = self.chain(head).count();
            put_varint32(&mut out, len as u32);
            // The chain runs newest-first: fill the bucket's run backwards.
            let mut end = out.len() + len * CKPT_ENTRY_BYTES;
            out.resize(end, 0);
            for e in self.chain(head) {
                let rec = &mut out[end - CKPT_ENTRY_BYTES..end];
                rec[..2].copy_from_slice(&e.tag.to_le_bytes());
                rec[2..].copy_from_slice(&e.table_id.to_le_bytes());
                end -= CKPT_ENTRY_BYTES;
            }
        }
        let crc = crc32c::mask(crc32c::value(&out));
        put_fixed32(&mut out, crc);
        out
    }

    /// Restore an index from a checkpoint produced by [`checkpoint`](Self::checkpoint).
    pub fn restore(data: &[u8]) -> Result<Self> {
        if data.len() < 12 {
            return Err(Error::corruption("hash index checkpoint too small"));
        }
        let body = &data[..data.len() - 4];
        let stored = try_decode_fixed32(&data[data.len() - 4..])?;
        if crc32c::unmask(stored) != crc32c::value(body) {
            return Err(Error::corruption("hash index checkpoint crc mismatch"));
        }
        let num_buckets = try_decode_fixed32(body)? as usize;
        let num_hashes = try_decode_fixed32(&body[4..])? as usize;
        // Every bucket takes at least one length byte, which bounds both
        // the bucket count (before allocating heads) and the entry count.
        if num_buckets == 0
            || num_buckets > body.len() - 8
            || num_buckets >= NIL as usize
            || !(1..=FAMILY.len()).contains(&num_hashes)
        {
            return Err(Error::corruption("hash index checkpoint header invalid"));
        }
        let mut idx = TwoLevelHashIndex::new(num_buckets, num_hashes);
        idx.arena
            .reserve(body.len().saturating_sub(8 + num_buckets) / CKPT_ENTRY_BYTES);
        let mut pos = 8usize;
        for b in 0..num_buckets {
            let (len, n) = get_varint32(&body[pos..])
                .map_err(|_| Error::corruption("hash index checkpoint truncated"))?;
            pos += n;
            let run = (len as usize)
                .checked_mul(CKPT_ENTRY_BYTES)
                .and_then(|bytes| body.get(pos..pos.checked_add(bytes)?))
                .ok_or_else(|| Error::corruption("hash index checkpoint truncated entry"))?;
            // Oldest first, so each push becomes the bucket's newest.
            for rec in run.chunks_exact(CKPT_ENTRY_BYTES) {
                let tag = u16::from_le_bytes([rec[0], rec[1]]);
                let table_id = u32::from_le_bytes([rec[2], rec[3], rec[4], rec[5]]);
                idx.push(b, tag, table_id);
            }
            pos += run.len();
        }
        if pos != body.len() {
            return Err(Error::corruption("hash index checkpoint trailing bytes"));
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(i: u64) -> Vec<u8> {
        format!("user-key-{i:08}").into_bytes()
    }

    fn cands(idx: &TwoLevelHashIndex, key: &[u8]) -> Vec<u32> {
        idx.candidates(key).collect()
    }

    #[test]
    fn insert_then_candidate_contains_table() {
        let mut idx = TwoLevelHashIndex::with_capacity(1000, 2);
        for i in 0..1000u64 {
            idx.insert(&key(i), (i % 8) as u32);
        }
        assert_eq!(idx.len(), 1000);
        for i in 0..1000u64 {
            let cands = cands(&idx, &key(i));
            assert!(
                cands.contains(&((i % 8) as u32)),
                "key {i} lost its table id"
            );
        }
    }

    #[test]
    fn newest_version_first() {
        let mut idx = TwoLevelHashIndex::with_capacity(100, 2);
        // Same key re-inserted with increasing table ids (newer flushes).
        let k = key(42);
        for table in 0..10u32 {
            idx.insert(&k, table);
        }
        let cands = cands(&idx, &k);
        // Every inserted table id must appear, newest (9) before oldest (0).
        let pos_of = |t: u32| cands.iter().position(|&c| c == t);
        for t in 0..10u32 {
            assert!(pos_of(t).is_some(), "table {t} missing");
        }
        for t in 1..10u32 {
            assert!(
                pos_of(t).unwrap() < pos_of(t - 1).unwrap(),
                "table {t} should come before {}",
                t - 1
            );
        }
    }

    #[test]
    fn remove_tables_drops_entries() {
        let mut idx = TwoLevelHashIndex::with_capacity(100, 2);
        for i in 0..100u64 {
            idx.insert(&key(i), (i % 4) as u32);
        }
        let victims: HashSet<u32> = [0u32, 1].into_iter().collect();
        idx.remove_tables(&victims);
        assert_eq!(idx.len(), 50);
        for i in 0..100u64 {
            let cands = cands(&idx, &key(i));
            for c in cands {
                assert!(!victims.contains(&c));
            }
        }
    }

    #[test]
    fn memory_accounting_matches_paper() {
        let mut idx = TwoLevelHashIndex::with_capacity(1_000, 2);
        for i in 0..1_000u64 {
            idx.insert(&key(i), 0);
        }
        assert_eq!(idx.memory_bytes(), 8_000);
        // Paper: 1M keys of 1KB -> ~10MB index, <1% of data.
        let data_bytes = 1_000 * 1024;
        assert!((idx.memory_bytes() as f64) < 0.01 * data_bytes as f64);
    }

    #[test]
    fn overflow_chains_engage_at_high_load() {
        // More keys than buckets forces overflow placement.
        let mut idx = TwoLevelHashIndex::new(64, 2);
        for i in 0..256u64 {
            idx.insert(&key(i), 1);
        }
        assert!(idx.stats().overflow_inserts > 0);
        // All keys still resolvable.
        for i in 0..256u64 {
            assert!(!cands(&idx, &key(i)).is_empty());
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        let mut idx = TwoLevelHashIndex::with_capacity(500, 2);
        for i in 0..500u64 {
            idx.insert(&key(i), (i % 5) as u32);
        }
        let snap = idx.checkpoint();
        let restored = TwoLevelHashIndex::restore(&snap).unwrap();
        assert_eq!(restored.len(), idx.len());
        assert_eq!(restored.num_buckets(), idx.num_buckets());
        for i in 0..500u64 {
            assert_eq!(cands(&restored, &key(i)), cands(&idx, &key(i)));
        }
    }

    #[test]
    fn checkpoint_corruption_detected() {
        let mut idx = TwoLevelHashIndex::with_capacity(10, 2);
        idx.insert(b"a", 1);
        let mut snap = idx.checkpoint();
        let n = snap.len();
        snap[n / 2] ^= 0xff;
        assert!(TwoLevelHashIndex::restore(&snap).is_err());
        assert!(TwoLevelHashIndex::restore(&snap[..4]).is_err());
        assert!(TwoLevelHashIndex::restore(&[]).is_err());

        // Structurally bad bodies under a valid CRC.
        let with_crc = |body: &[u8]| {
            let mut out = body.to_vec();
            put_fixed32(&mut out, crc32c::mask(crc32c::value(body)));
            out
        };
        let header = |buckets: u32, hashes: u32| {
            let mut out = Vec::new();
            put_fixed32(&mut out, buckets);
            put_fixed32(&mut out, hashes);
            out
        };
        let good = idx.checkpoint();
        let body = &good[..good.len() - 4];
        let cases: [(&str, Vec<u8>); 5] = [
            ("zero buckets", header(0, 2)),
            ("bad hash count", header(1, 5)),
            // Rejected before 4 GiB of bucket heads are allocated.
            ("more buckets than bytes", header(1 << 30, 2)),
            (
                "truncated entry",
                [&header(1, 2)[..], &[1, 0xaa, 0xbb]].concat(),
            ),
            ("trailing bytes", [body, &[0][..]].concat()),
        ];
        for (what, body) in cases {
            assert!(
                TwoLevelHashIndex::restore(&with_crc(&body)).is_err(),
                "{what}"
            );
        }
    }

    #[test]
    fn clear_resets() {
        let mut idx = TwoLevelHashIndex::with_capacity(10, 2);
        idx.insert(b"a", 1);
        idx.clear();
        assert!(idx.is_empty());
        assert!(cands(&idx, b"a").is_empty());
    }

    /// Replay a random op sequence on the flat index and on the earlier
    /// `Vec`-per-bucket layout, asserting after every op that both give the
    /// same candidates (order included), length and checkpoint bytes. The
    /// shim does not shrink, so every failure message names the seed that
    /// reproduces it.
    fn differential_run(seed: u64, num_buckets: usize, num_hashes: usize) {
        use crate::reference::VecIndex;
        use unikv_common::rng::DetRng;

        let mut rng = DetRng::seed_from_u64(seed);
        let mut flat = TwoLevelHashIndex::new(num_buckets, num_hashes);
        let mut oracle = VecIndex::new(num_buckets, num_hashes);
        let keys: Vec<Vec<u8>> = (0..32).map(key).collect();
        for step in 0..100 {
            let ctx =
                format!("seed {seed}, {num_buckets} buckets, {num_hashes} hashes, step {step}");
            match rng.u64_in(0..100) {
                0..=79 => {
                    let k = &keys[rng.u64_in(0..keys.len() as u64) as usize];
                    let table = rng.u64_in(0..12) as u32;
                    flat.insert(k, table);
                    oracle.insert(k, table);
                }
                80..=89 => {
                    let victims: HashSet<u32> = (0..12).filter(|_| rng.u64_in(0..3) == 0).collect();
                    flat.remove_tables(&victims);
                    oracle.remove_tables(&victims);
                }
                90..=96 => {
                    // Cross-restore: each layout reads the other's bytes.
                    flat = TwoLevelHashIndex::restore(&oracle.checkpoint())
                        .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                    oracle = VecIndex::restore(&flat.checkpoint())
                        .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                }
                _ => {
                    flat.clear();
                    oracle.clear();
                }
            }
            assert_eq!(flat.len(), oracle.len(), "{ctx}: len");
            assert_eq!(flat.checkpoint(), oracle.checkpoint(), "{ctx}: checkpoint");
            for k in &keys {
                assert_eq!(cands(&flat, k), oracle.candidates(k), "{ctx}: candidates");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_no_false_negatives(
            keys in proptest::collection::btree_map(
                proptest::collection::vec(any::<u8>(), 1..16), 0u32..64, 1..300),
            num_hashes in 1usize..4,
        ) {
            let mut idx = TwoLevelHashIndex::with_capacity(keys.len(), num_hashes);
            for (k, t) in &keys {
                idx.insert(k, *t);
            }
            for (k, t) in &keys {
                prop_assert!(cands(&idx, k).contains(t), "lost {k:?} -> {t}");
            }
        }

        #[test]
        fn prop_flat_layout_matches_vec_reference(
            seed in any::<u64>(),
            num_buckets in 1usize..40,
            num_hashes in 1usize..=4,
        ) {
            differential_run(seed, num_buckets, num_hashes);
        }

        #[test]
        fn prop_checkpoint_roundtrip(
            keys in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 1..12), 0u32..16), 0..200),
        ) {
            let mut idx = TwoLevelHashIndex::with_capacity(keys.len().max(1), 2);
            for (k, t) in &keys {
                idx.insert(k, *t);
            }
            let restored = TwoLevelHashIndex::restore(&idx.checkpoint()).unwrap();
            prop_assert_eq!(restored.len(), idx.len());
            for (k, _) in &keys {
                prop_assert_eq!(cands(&restored, k), cands(&idx, k));
            }
        }
    }
}
