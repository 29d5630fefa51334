//! Data/index block format with restart-point prefix compression.
//!
//! Entries: `varint32(shared) varint32(non_shared) varint32(value_len)
//! key_delta value`. Every `restart_interval` entries the full key is
//! stored (`shared == 0`) and its offset recorded in the restart array at
//! the block tail: `fixed32 * num_restarts` + `fixed32(num_restarts)`.
//! Seeks binary-search the restart array, then scan linearly.

use crate::KeyCmp;
use bytes::Bytes;
use std::cmp::Ordering;
use unikv_common::coding::{decode_fixed32, get_varint32, put_fixed32, put_varint32};
use unikv_common::{Error, Result};

/// Default number of entries between restart points.
pub const DEFAULT_RESTART_INTERVAL: usize = 16;

/// Builds one block.
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    counter: usize,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    /// Create a builder with the given restart interval.
    pub fn new(restart_interval: usize) -> Self {
        assert!(restart_interval >= 1);
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            restart_interval,
            counter: 0,
            last_key: Vec::new(),
            entries: 0,
        }
    }

    /// Append an entry. Keys must arrive in strictly increasing order under
    /// the table's comparator; the builder only debug-asserts byte order of
    /// shared prefixes, full ordering is the caller's contract.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        self.add_bounded(key, value, usize::MAX);
    }

    /// [`BlockBuilder::add`], sharing at most `max_shared` key bytes with
    /// the previous entry; returns the entry's encoded bytes. A table with
    /// a record directory bounds each entry by its common prefix with a key
    /// the reader holds in memory, so the entry also decodes on its own.
    pub fn add_bounded(&mut self, key: &[u8], value: &[u8], max_shared: usize) -> &[u8] {
        let start = self.buf.len();
        let mut shared = 0;
        if self.counter < self.restart_interval {
            let max = self.last_key.len().min(key.len()).min(max_shared);
            while shared < max && self.last_key[shared] == key[shared] {
                shared += 1;
            }
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.counter = 0;
        }
        let non_shared = key.len() - shared;
        put_varint32(&mut self.buf, shared as u32);
        put_varint32(&mut self.buf, non_shared as u32);
        put_varint32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);

        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.counter += 1;
        self.entries += 1;
        &self.buf[start..]
    }

    /// Bytes the finished block will occupy (excluding trailer).
    pub fn current_size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    /// Number of entries added.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// True if no entries were added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Finish the block: append the restart array and return the payload
    /// bytes. Call [`BlockBuilder::reset`] before adding to it again.
    pub fn finish(&mut self) -> &[u8] {
        for &r in &self.restarts {
            put_fixed32(&mut self.buf, r);
        }
        put_fixed32(&mut self.buf, self.restarts.len() as u32);
        &self.buf
    }

    /// Empty the builder for the next block, keeping its buffers.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.restarts.clear();
        self.restarts.push(0);
        self.counter = 0;
        self.last_key.clear();
        self.entries = 0;
    }
}

/// An immutable, parsed block ready for iteration.
#[derive(Clone)]
pub struct Block {
    data: Bytes,
    restarts_offset: usize,
    num_restarts: usize,
}

impl Block {
    /// Parse a block payload.
    pub fn new(data: impl Into<Bytes>) -> Result<Block> {
        let data: Bytes = data.into();
        if data.len() < 4 {
            return Err(Error::corruption("block too small"));
        }
        let num_restarts = decode_fixed32(&data[data.len() - 4..]) as usize;
        let restarts_size = num_restarts
            .checked_mul(4)
            .and_then(|v| v.checked_add(4))
            .ok_or_else(|| Error::corruption("restart count overflow"))?;
        if restarts_size > data.len() || num_restarts == 0 {
            return Err(Error::corruption("bad restart array"));
        }
        Ok(Block {
            restarts_offset: data.len() - restarts_size,
            num_restarts,
            data,
        })
    }

    /// Size of the underlying payload in bytes (used for cache accounting).
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn restart_point(&self, i: usize) -> usize {
        debug_assert!(i < self.num_restarts);
        decode_fixed32(&self.data[self.restarts_offset + i * 4..]) as usize
    }

    /// Number of entries of a block whose every entry is a restart point,
    /// as in an index block (built with restart interval 1).
    pub(crate) fn restart_entries(&self) -> usize {
        if self.restarts_offset == 0 {
            0 // an empty block still records restart point 0
        } else {
            self.num_restarts
        }
    }

    /// Key and value of the entry at restart point `i` (its full key:
    /// `shared` is always 0 there).
    pub(crate) fn restart_entry(&self, i: usize) -> Result<(&[u8], &[u8])> {
        let off = self.restart_point(i);
        let data = &self.data[..self.restarts_offset];
        if off >= data.len() {
            return Err(Error::corruption("restart point out of range"));
        }
        let (shared, n1) = get_varint32(&data[off..])?;
        if shared != 0 {
            return Err(Error::corruption("restart entry has shared bytes"));
        }
        let (non_shared, n2) = get_varint32(&data[off + n1..])?;
        let (value_len, n3) = get_varint32(&data[off + n1 + n2..])?;
        let kstart = off + n1 + n2 + n3;
        let kend = kstart + non_shared as usize;
        let vend = kend + value_len as usize;
        if vend > data.len() {
            return Err(Error::corruption("restart entry out of range"));
        }
        Ok((&data[kstart..kend], &data[kend..vend]))
    }

    /// In a block whose every entry is a restart point: the position of
    /// the first entry with key `>= target`, or [`Block::restart_entries`]
    /// when every key is smaller.
    pub(crate) fn restart_lower_bound(&self, target: &[u8], cmp: KeyCmp) -> Result<usize> {
        let (mut lo, mut hi) = (0, self.restart_entries());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cmp(self.restart_entry(mid)?.0, target) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Create an iterator over the block.
    pub fn iter(&self, cmp: KeyCmp) -> BlockIterator {
        BlockIterator {
            block: self.clone(),
            cmp,
            offset: usize::MAX,
            next_offset: 0,
            key: Vec::new(),
            value_range: 0..0,
        }
    }
}

/// Cursor over a [`Block`]'s entries.
pub struct BlockIterator {
    block: Block,
    cmp: KeyCmp,
    /// Offset of the current entry; `usize::MAX` when invalid.
    offset: usize,
    /// Offset of the next entry to parse.
    next_offset: usize,
    key: Vec<u8>,
    value_range: std::ops::Range<usize>,
}

impl BlockIterator {
    /// Point the iterator at `block`, unpositioned. The key buffer is kept,
    /// so an iterator moving from block to block allocates it once.
    pub(crate) fn reset(&mut self, block: &Block) {
        self.block = block.clone();
        self.offset = usize::MAX;
        self.next_offset = 0;
        self.key.clear();
    }

    /// True if positioned on an entry.
    #[inline]
    pub fn valid(&self) -> bool {
        self.offset != usize::MAX
    }

    /// Current key. Panics if not valid.
    #[inline]
    pub fn key(&self) -> &[u8] {
        assert!(self.valid());
        &self.key
    }

    /// Current value. Panics if not valid.
    #[inline]
    pub fn value(&self) -> &[u8] {
        assert!(self.valid());
        &self.block.data[self.value_range.clone()]
    }

    /// Position before the first entry and step onto it.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.seek_to_restart(0);
        self.parse_next()
    }

    /// Position at the first entry with key `>= target`.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        // Binary search restart points for the last restart whose key < target.
        let (mut lo, mut hi) = (0usize, self.block.num_restarts - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if (self.cmp)(self.restart_key(mid)?, target) == Ordering::Less {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        self.seek_to_restart(lo);
        loop {
            self.parse_next()?;
            if !self.valid() || (self.cmp)(&self.key, target) != Ordering::Less {
                return Ok(());
            }
        }
    }

    /// Advance to the next entry (invalid at block end).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<()> {
        assert!(self.valid());
        self.parse_next()
    }

    fn seek_to_restart(&mut self, i: usize) {
        self.key.clear();
        self.offset = usize::MAX;
        self.next_offset = self.block.restart_point(i);
    }

    /// Full key stored at restart point `i` (shared is always 0 there).
    fn restart_key(&self, i: usize) -> Result<&[u8]> {
        Ok(self.block.restart_entry(i)?.0)
    }

    /// The current entry's encoded bytes. Panics if not valid.
    pub(crate) fn entry(&self) -> &[u8] {
        assert!(self.valid());
        &self.block.data[self.offset..self.next_offset]
    }

    fn parse_next(&mut self) -> Result<()> {
        if self.next_offset >= self.block.restarts_offset {
            self.offset = usize::MAX;
            return Ok(());
        }
        let data = &self.block.data[..self.block.restarts_offset];
        let off = self.next_offset;
        let (shared, n1) = get_varint32(&data[off..])?;
        let (non_shared, n2) = get_varint32(&data[off + n1..])?;
        let (value_len, n3) = get_varint32(&data[off + n1 + n2..])?;
        let kstart = off + n1 + n2 + n3;
        let vstart = kstart + non_shared as usize;
        let vend = vstart + value_len as usize;
        if shared as usize > self.key.len() || vend > data.len() {
            return Err(Error::corruption("block entry out of range"));
        }
        self.key.truncate(shared as usize);
        self.key.extend_from_slice(&data[kstart..vstart]);
        self.value_range = vstart..vend;
        self.offset = off;
        self.next_offset = vend;
        Ok(())
    }
}

/// Decode one entry read on its own (a record read through a table's
/// record directory) into `key` and return its value. The entry's shared
/// key bytes are taken from `prefix`, the key the reader holds in memory;
/// the entry must span `entry` exactly.
pub(crate) fn decode_entry<'a>(
    entry: &'a [u8],
    prefix: &[u8],
    key: &mut Vec<u8>,
) -> Result<&'a [u8]> {
    let (shared, n1) = get_varint32(entry)?;
    let (non_shared, n2) = get_varint32(&entry[n1..])?;
    let (value_len, n3) = get_varint32(&entry[n1 + n2..])?;
    let kstart = n1 + n2 + n3;
    let vstart = kstart + non_shared as usize;
    if shared as usize > prefix.len() || vstart + value_len as usize != entry.len() {
        return Err(Error::corruption("record does not decode on its own"));
    }
    key.clear();
    key.extend_from_slice(&prefix[..shared as usize]);
    key.extend_from_slice(&entry[kstart..vstart]);
    Ok(&entry[vstart..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw_cmp;
    use proptest::prelude::*;

    fn build(entries: &[(&[u8], &[u8])], interval: usize) -> Block {
        let mut b = BlockBuilder::new(interval);
        for (k, v) in entries {
            b.add(k, v);
        }
        Block::new(b.finish().to_vec()).unwrap()
    }

    #[test]
    fn empty_block_iterates_nothing() {
        let block = build(&[], 16);
        let mut it = block.iter(raw_cmp);
        it.seek_to_first().unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn iterate_all_entries() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..100u32)
            .map(|i| {
                (
                    format!("key{i:04}").into_bytes(),
                    format!("val{i}").into_bytes(),
                )
            })
            .collect();
        let refs: Vec<(&[u8], &[u8])> = entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        for interval in [1, 2, 16, 128] {
            let block = build(&refs, interval);
            let mut it = block.iter(raw_cmp);
            it.seek_to_first().unwrap();
            for (k, v) in &entries {
                assert!(it.valid());
                assert_eq!(it.key(), &k[..]);
                assert_eq!(it.value(), &v[..]);
                it.next().unwrap();
            }
            assert!(!it.valid());
        }
    }

    #[test]
    fn seek_finds_lower_bound() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..50u32)
            .map(|i| (format!("k{:04}", i * 2).into_bytes(), vec![i as u8]))
            .collect();
        let refs: Vec<(&[u8], &[u8])> = entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        let block = build(&refs, 4);
        let mut it = block.iter(raw_cmp);
        // Exact hit.
        it.seek(b"k0010").unwrap();
        assert_eq!(it.key(), b"k0010");
        // Between keys: lands on next.
        it.seek(b"k0011").unwrap();
        assert_eq!(it.key(), b"k0012");
        // Before first.
        it.seek(b"a").unwrap();
        assert_eq!(it.key(), b"k0000");
        // Past last.
        it.seek(b"z").unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn corrupt_restart_count_rejected() {
        assert!(Block::new(vec![0u8, 0, 0]).is_err());
        // num_restarts = 0
        assert!(Block::new(vec![0u8, 0, 0, 0]).is_err());
        // restart array larger than block
        assert!(Block::new(vec![0xffu8, 0xff, 0xff, 0x7f]).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip_and_seek(
            keys in proptest::collection::btree_set(
                proptest::collection::vec(any::<u8>(), 1..20), 1..80),
            interval in 1usize..20,
        ) {
            let entries: Vec<(Vec<u8>, Vec<u8>)> =
                keys.iter().cloned().map(|k| { let v = k.repeat(2); (k, v) }).collect();
            let refs: Vec<(&[u8], &[u8])> =
                entries.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
            let block = build(&refs, interval);

            // Full scan equals input.
            let mut it = block.iter(raw_cmp);
            it.seek_to_first().unwrap();
            for (k, v) in &entries {
                prop_assert!(it.valid());
                prop_assert_eq!(it.key(), &k[..]);
                prop_assert_eq!(it.value(), &v[..]);
                it.next().unwrap();
            }
            prop_assert!(!it.valid());

            // Seeks agree with a model lower_bound.
            for (k, _) in &entries {
                let mut it = block.iter(raw_cmp);
                it.seek(k).unwrap();
                prop_assert!(it.valid());
                prop_assert_eq!(it.key(), &k[..]);
            }
        }
    }
}
