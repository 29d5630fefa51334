//! Write batches.
//!
//! A batch is atomic per partition: each partition's slice of the batch is
//! one WAL record, and every slice is logged (and synced, when
//! `sync_writes` is set) before any op reaches a memtable. A batch that
//! spans partitions writes one record per partition, so a crash, or a
//! failed append or sync, between two records keeps one slice and loses
//! the other.

use unikv_common::coding::{get_length_prefixed_slice, put_length_prefixed_slice};
use unikv_common::{Error, Result, ValueType};

/// An ordered set of writes, applied atomically per partition (see the
/// module docs).
///
/// ```
/// use unikv::{UniKv, UniKvOptions, WriteBatch};
/// use unikv_env::mem::MemEnv;
///
/// let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::default()).unwrap();
/// let mut batch = WriteBatch::new();
/// batch.put(b"a".to_vec(), b"1".to_vec()).delete(b"b".to_vec());
/// db.write_batch(&batch).unwrap();
/// assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
/// ```
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    pub(crate) ops: Vec<(ValueType, Vec<u8>, Vec<u8>)>,
}

impl WriteBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queue an insert/overwrite.
    pub fn put(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push((ValueType::Value, key.into(), value.into()));
        self
    }

    /// Queue a delete.
    pub fn delete(&mut self, key: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push((ValueType::Deletion, key.into(), Vec::new()));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total bytes of keys+values queued.
    pub fn byte_size(&self) -> usize {
        self.ops.iter().map(|(_, k, v)| k.len() + v.len()).sum()
    }
}

/// Encode batch ops, borrowed from the caller, as one WAL record:
/// `base_seq | count | (type, key, value)*`. Replay gives the ops
/// consecutive sequences from `base_seq`.
pub(crate) fn encode_batch_record<'a>(
    base_seq: u64,
    ops: impl ExactSizeIterator<Item = (ValueType, &'a [u8], &'a [u8])> + Clone,
) -> Vec<u8> {
    let body: usize = ops.clone().map(|(_, k, v)| k.len() + v.len() + 8).sum();
    let mut out = Vec::with_capacity(16 + body);
    unikv_common::coding::put_varint64(&mut out, base_seq);
    unikv_common::coding::put_varint32(&mut out, ops.len() as u32);
    for (t, k, v) in ops {
        out.push(t as u8);
        put_length_prefixed_slice(&mut out, k);
        put_length_prefixed_slice(&mut out, v);
    }
    out
}

/// Decode a record produced by [`encode_batch_record`]. Yields
/// `(seq, type, key, value)` tuples with consecutive sequences.
#[allow(clippy::type_complexity)]
pub(crate) fn decode_batch_record(rec: &[u8]) -> Result<Vec<(u64, ValueType, Vec<u8>, Vec<u8>)>> {
    let (base_seq, mut pos) = unikv_common::coding::get_varint64(rec)?;
    let (count, n) = unikv_common::coding::get_varint32(&rec[pos..])?;
    pos += n;
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count as u64 {
        let t = ValueType::from_u8(
            *rec.get(pos)
                .ok_or_else(|| Error::corruption("batch record truncated"))?,
        )?;
        pos += 1;
        let (k, n) = get_length_prefixed_slice(&rec[pos..])?;
        let k = k.to_vec();
        pos += n;
        let (v, n) = get_length_prefixed_slice(&rec[pos..])?;
        out.push((base_seq + i, t, k, v.to_vec()));
        pos += n;
    }
    if pos != rec.len() {
        return Err(Error::corruption("batch record trailing bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_api() {
        let mut b = WriteBatch::new();
        assert!(b.is_empty());
        b.put(b"a".to_vec(), b"1".to_vec()).delete(b"b".to_vec());
        assert_eq!(b.len(), 2);
        assert_eq!(b.byte_size(), 3);
    }

    #[test]
    fn record_roundtrip() {
        let long = [0u8; 300];
        let ops: [(ValueType, &[u8], &[u8]); 3] = [
            (ValueType::Value, b"k1", b"v1"),
            (ValueType::Deletion, b"k2", b""),
            (ValueType::Value, b"k3", &long),
        ];
        let rec = encode_batch_record(41, ops.into_iter());
        let decoded = decode_batch_record(&rec).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(
            decoded[0],
            (41, ValueType::Value, b"k1".to_vec(), b"v1".to_vec())
        );
        assert_eq!(decoded[1].0, 42);
        assert_eq!(decoded[1].1, ValueType::Deletion);
        assert_eq!(decoded[2].0, 43);
        assert_eq!(decoded[2].3.len(), 300);
    }

    #[test]
    fn record_truncation_detected() {
        let op: (ValueType, &[u8], &[u8]) = (ValueType::Value, b"k", b"v");
        let rec = encode_batch_record(1, [op].into_iter());
        for cut in 1..rec.len() {
            assert!(decode_batch_record(&rec[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = rec.clone();
        extra.push(0);
        assert!(decode_batch_record(&extra).is_err());
    }
}
