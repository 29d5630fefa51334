//! Record directory: a meta block that lets a point read fetch one record
//! of a data block instead of the whole block.
//!
//! For each data block, in file order:
//!
//! ```text
//! salt: u8  count: varint32  { len: varint32  crc: fixed32  fp: u8 } * count
//! ```
//!
//! `len` is the record's encoded length in its block (records are laid out
//! back to back from the block's start), `crc` the masked CRC32C of those
//! bytes, and `fp` a 1-byte fingerprint of the record's filter key under
//! the block's `salt`. The builder picks the first salt that gives every
//! record of the block a distinct fingerprint, so a lookup of a key the
//! block holds reads exactly that record. No key is stored: each record's
//! shared key bytes are bounded by the previous block's last key, which
//! the reader holds in the pinned index block.

use unikv_common::coding::{decode_fixed32, get_varint32, put_fixed32, put_varint32};
use unikv_common::hash::hash64;
use unikv_common::{crc32c, Error, Result};

/// Seed of the key hash that fingerprints derive from, distinct from the
/// hash index's bucket and tag seeds.
const KEY_HASH_SEED: u64 = 0x6b3e_a4d1_19c7_52f8;

/// Salts tried per block before the builder settles for the one with the
/// fewest fingerprint collisions.
const SALTS: u16 = 256;

/// The hash of a filter key that its fingerprints derive from.
#[inline]
pub(crate) fn key_hash(filter_key: &[u8]) -> u64 {
    hash64(filter_key, KEY_HASH_SEED)
}

/// The 1-byte fingerprint of a key hash under a block's salt.
#[inline]
pub(crate) fn fingerprint(hash: u64, salt: u8) -> u8 {
    let mut h = hash ^ u64::from(salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 31;
    (h.wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 56) as u8
}

/// Accumulates the directory while a table is built.
#[derive(Default)]
pub(crate) struct DirectoryBuilder {
    buf: Vec<u8>,
    /// `(length, masked CRC, key hash)` of each record of the open block.
    block: Vec<(u32, u32, u64)>,
}

impl DirectoryBuilder {
    /// Note the next record of the open block: its encoded bytes and the
    /// filter key of its key.
    pub(crate) fn add(&mut self, record: &[u8], filter_key: &[u8]) {
        let crc = crc32c::mask(crc32c::value(record));
        self.block
            .push((record.len() as u32, crc, key_hash(filter_key)));
    }

    /// Close the open block: pick its salt and append its entry list.
    pub(crate) fn finish_block(&mut self) {
        let salt = self.pick_salt();
        self.buf.push(salt);
        put_varint32(&mut self.buf, self.block.len() as u32);
        for &(len, crc, hash) in &self.block {
            put_varint32(&mut self.buf, len);
            put_fixed32(&mut self.buf, crc);
            self.buf.push(fingerprint(hash, salt));
        }
        self.block.clear();
    }

    /// The first salt under which the open block's fingerprints are all
    /// distinct, or the one with the fewest collisions if none is.
    fn pick_salt(&self) -> u8 {
        let mut best = (usize::MAX, 0u8);
        for salt in 0..SALTS {
            let salt = salt as u8;
            let mut seen = [0u64; 4];
            let mut collisions = 0;
            for &(_, _, hash) in &self.block {
                let fp = fingerprint(hash, salt) as usize;
                let bit = 1u64 << (fp % 64);
                collisions += usize::from(seen[fp / 64] & bit != 0);
                seen[fp / 64] |= bit;
            }
            if collisions < best.0 {
                best = (collisions, salt);
                if collisions == 0 {
                    break;
                }
            }
        }
        best.1
    }

    /// The finished payload; every block must have been closed.
    pub(crate) fn finish(&self) -> &[u8] {
        debug_assert!(self.block.is_empty());
        &self.buf
    }
}

/// One directory entry: where a record ends and how to check it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordEntry {
    /// Encoded length of the record in its block.
    pub len: u32,
    /// Masked CRC32C of the record's bytes.
    pub crc: u32,
    /// Fingerprint of the record's filter key under the block's salt.
    pub fp: u8,
}

/// A table's parsed record directory, pinned while the table is open.
pub(crate) struct RecordDirectory {
    data: Vec<u8>,
    /// Offset in `data` of each data block's entry list (its salt byte).
    blocks: Vec<u32>,
}

impl RecordDirectory {
    /// Parse a directory payload, checking that every entry list is whole.
    pub(crate) fn parse(data: Vec<u8>) -> Result<RecordDirectory> {
        let mut blocks = Vec::new();
        let mut pos = 0;
        while pos < data.len() {
            blocks.push(pos as u32);
            let (count, n) = get_varint32(&data[pos + 1..])?;
            pos += 1 + n;
            for _ in 0..count {
                let (_, n) = get_varint32(&data[pos.min(data.len())..])?;
                pos += n + 5;
                if pos > data.len() {
                    return Err(Error::corruption("record directory truncated"));
                }
            }
        }
        Ok(RecordDirectory { data, blocks })
    }

    /// Number of data blocks the directory describes.
    pub(crate) fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The salt of data block `i` and its records' entries, in order.
    pub(crate) fn block(&self, i: usize) -> (u8, RecordEntries<'_>) {
        let start = self.blocks[i] as usize;
        let (count, n) = get_varint32(&self.data[start + 1..]).expect("checked by parse");
        let entries = RecordEntries {
            data: &self.data[start + 1 + n..],
            left: count,
        };
        (self.data[start], entries)
    }
}

/// The entries of one data block's records (see [`RecordDirectory::block`]).
pub(crate) struct RecordEntries<'a> {
    data: &'a [u8],
    left: u32,
}

impl Iterator for RecordEntries<'_> {
    type Item = RecordEntry;

    fn next(&mut self) -> Option<RecordEntry> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (len, n) = get_varint32(self.data).expect("checked by parse");
        let entry = RecordEntry {
            len,
            crc: decode_fixed32(&self.data[n..]),
            fp: self.data[n + 4],
        };
        self.data = &self.data[n + 5..];
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(blocks: &[&[&[u8]]]) -> RecordDirectory {
        let mut b = DirectoryBuilder::default();
        for keys in blocks {
            for k in *keys {
                b.add(&k.repeat(3), k);
            }
            b.finish_block();
        }
        RecordDirectory::parse(b.finish().to_vec()).unwrap()
    }

    #[test]
    fn entries_roundtrip_per_block() {
        let keys: Vec<Vec<u8>> = (0..40u32).map(|i| format!("k{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let dir = build(&[&refs[..3], &[], &refs[3..]]);
        assert_eq!(dir.num_blocks(), 3);
        for (i, keys) in [&refs[..3], &[][..], &refs[3..]].iter().enumerate() {
            let (salt, entries) = dir.block(i);
            let entries: Vec<RecordEntry> = entries.collect();
            assert_eq!(entries.len(), keys.len());
            for (e, k) in entries.iter().zip(keys.iter()) {
                let record = k.repeat(3);
                assert_eq!(e.len as usize, record.len());
                assert_eq!(crc32c::unmask(e.crc), crc32c::value(&record));
                assert_eq!(e.fp, fingerprint(key_hash(k), salt));
            }
        }
    }

    /// The salt makes the fingerprints of a block's records distinct
    /// whenever one of the tried salts can.
    #[test]
    fn salt_separates_fingerprints_within_a_block() {
        for n in [2usize, 8, 16, 32] {
            for seed in 0..20u32 {
                let keys: Vec<Vec<u8>> = (0..n)
                    .map(|i| format!("s{seed}-k{i}").into_bytes())
                    .collect();
                let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                let dir = build(&[&refs]);
                let (_, entries) = dir.block(0);
                let mut fps: Vec<u8> = entries.map(|e| e.fp).collect();
                fps.sort_unstable();
                fps.dedup();
                assert_eq!(fps.len(), n, "{n} records, seed {seed}");
            }
        }
    }

    #[test]
    fn truncated_directory_rejected() {
        let mut b = DirectoryBuilder::default();
        b.add(b"record", b"key");
        b.finish_block();
        let data = b.finish().to_vec();
        for cut in 1..data.len() {
            assert!(
                RecordDirectory::parse(data[..cut].to_vec()).is_err(),
                "cut at {cut}"
            );
        }
        assert_eq!(RecordDirectory::parse(Vec::new()).unwrap().num_blocks(), 0);
    }
}
