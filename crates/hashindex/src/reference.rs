//! The index's earlier layout — one `Vec` of entries per bucket — kept as
//! the oracle for the differential test of the flat layout. Placement,
//! probe order and per-bucket entry order are the specification the flat
//! index must reproduce exactly.

use std::collections::HashSet;
use unikv_common::hash::{bucket_hash, key_tag};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    tag: u16,
    table_id: u32,
}

/// Bucket vectors in insertion order: the tail of each is its newest entry.
pub(crate) struct VecIndex {
    buckets: Vec<Vec<Entry>>,
    num_hashes: usize,
    entries: usize,
}

impl VecIndex {
    pub(crate) fn new(num_buckets: usize, num_hashes: usize) -> Self {
        VecIndex {
            buckets: vec![Vec::new(); num_buckets],
            num_hashes,
            entries: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    fn bucket_of(&self, key: &[u8], i: usize) -> usize {
        (bucket_hash(key, i) % self.buckets.len() as u64) as usize
    }

    pub(crate) fn insert(&mut self, key: &[u8], table_id: u32) {
        let entry = Entry {
            tag: key_tag(key),
            table_id,
        };
        for i in 0..self.num_hashes {
            let b = self.bucket_of(key, i);
            if self.buckets[b].is_empty() {
                self.buckets[b].push(entry);
                self.entries += 1;
                return;
            }
        }
        let b = self.bucket_of(key, self.num_hashes - 1);
        self.buckets[b].push(entry);
        self.entries += 1;
    }

    pub(crate) fn candidates(&self, key: &[u8]) -> Vec<u32> {
        let tag = key_tag(key);
        let mut out = Vec::new();
        let mut seen_buckets = [usize::MAX; 8];
        for i in (0..self.num_hashes).rev() {
            let b = self.bucket_of(key, i);
            if seen_buckets[..self.num_hashes].contains(&b) {
                continue;
            }
            seen_buckets[i] = b;
            for e in self.buckets[b].iter().rev() {
                if e.tag == tag {
                    out.push(e.table_id);
                }
            }
        }
        out
    }

    pub(crate) fn remove_tables(&mut self, table_ids: &HashSet<u32>) {
        for bucket in &mut self.buckets {
            let before = bucket.len();
            bucket.retain(|e| !table_ids.contains(&e.table_id));
            self.entries -= before - bucket.len();
        }
    }

    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.entries = 0;
    }

    /// Each bucket's `(tag, table_id)` entries, oldest first.
    pub(crate) fn buckets(&self) -> Vec<Vec<(u16, u32)>> {
        self.buckets
            .iter()
            .map(|b| b.iter().map(|e| (e.tag, e.table_id)).collect())
            .collect()
    }
}
