//! The index's earlier layout — one `Vec` of entries per bucket — kept as
//! the oracle for the differential test of the flat layout. Placement,
//! probe order and checkpoint bytes are the specification the flat index
//! must reproduce exactly.

use std::collections::HashSet;
use unikv_common::coding::{get_varint32, put_fixed32, put_varint32, try_decode_fixed32};
use unikv_common::hash::{bucket_hash, key_tag};
use unikv_common::{crc32c, Error, Result};

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

    pub(crate) fn checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.entries * 6 + self.buckets.len());
        put_fixed32(&mut out, self.buckets.len() as u32);
        put_fixed32(&mut out, self.num_hashes as u32);
        for bucket in &self.buckets {
            put_varint32(&mut out, bucket.len() as u32);
            for e in bucket {
                out.extend_from_slice(&e.tag.to_le_bytes());
                out.extend_from_slice(&e.table_id.to_le_bytes());
            }
        }
        let crc = crc32c::mask(crc32c::value(&out));
        put_fixed32(&mut out, crc);
        out
    }

    pub(crate) fn restore(data: &[u8]) -> Result<Self> {
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
        if num_buckets == 0 || !(1..=unikv_common::hash::FAMILY.len()).contains(&num_hashes) {
            return Err(Error::corruption("hash index checkpoint header invalid"));
        }
        let mut idx = VecIndex::new(num_buckets, num_hashes);
        let mut pos = 8usize;
        for b in 0..num_buckets {
            let (len, n) = get_varint32(&body[pos..])
                .map_err(|_| Error::corruption("hash index checkpoint truncated"))?;
            pos += n;
            for _ in 0..len {
                if pos + 6 > body.len() {
                    return Err(Error::corruption("hash index checkpoint truncated entry"));
                }
                let tag = u16::from_le_bytes(body[pos..pos + 2].try_into().expect("2 bytes"));
                let table_id =
                    u32::from_le_bytes(body[pos + 2..pos + 6].try_into().expect("4 bytes"));
                idx.buckets[b].push(Entry { tag, table_id });
                idx.entries += 1;
                pos += 6;
            }
        }
        if pos != body.len() {
            return Err(Error::corruption("hash index checkpoint trailing bytes"));
        }
        Ok(idx)
    }
}
