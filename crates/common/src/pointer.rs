//! Value pointers for partial KV separation.
//!
//! When keys migrate from the UnsortedStore to the SortedStore, their values
//! move to an append-only value log and the SortedStore stores a pointer in
//! place of the value. The paper's pointer carries four attributes:
//! `<partition, logNumber, offset, length>`.
//!
//! On disk a SortedStore entry's value slot is either an inline value or an
//! encoded pointer; the 1-byte discriminator in [`SeparatedValue`]
//! distinguishes the two.

use crate::coding::{get_varint32, get_varint64, put_varint32, put_varint64};
use crate::error::{Error, Result};

/// Location of a value inside a partition's value log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValuePointer {
    /// Owning partition id at the time the value was written. After a
    /// partition split, children may still reference the parent's logs via
    /// the parent's id until lazy GC rewrites them.
    pub partition: u32,
    /// Value-log file number within the partition.
    pub log_number: u64,
    /// Byte offset of the value record in the log file.
    pub offset: u64,
    /// Length of the value payload in bytes.
    pub length: u32,
}

impl ValuePointer {
    /// Encode into `dst` (varint-packed; 4–24 bytes typical).
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint32(dst, self.partition);
        put_varint64(dst, self.log_number);
        put_varint64(dst, self.offset);
        put_varint32(dst, self.length);
    }

    /// Encode into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        self.encode_to(&mut v);
        v
    }

    /// Decode from `src`, returning the pointer and bytes consumed.
    pub fn decode_from(src: &[u8]) -> Result<(ValuePointer, usize)> {
        let (partition, n1) = get_varint32(src)?;
        let (log_number, n2) = get_varint64(&src[n1..])?;
        let (offset, n3) = get_varint64(&src[n1 + n2..])?;
        let (length, n4) = get_varint32(&src[n1 + n2 + n3..])?;
        Ok((
            ValuePointer {
                partition,
                log_number,
                offset,
                length,
            },
            n1 + n2 + n3 + n4,
        ))
    }
}

/// Discriminated value slot for SortedStore entries: inline bytes or a
/// pointer into a value log (partial KV separation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeparatedValue {
    /// Value stored inline with the key.
    Inline(Vec<u8>),
    /// Value lives in a log file; the slot stores its address.
    Pointer(ValuePointer),
}

const TAG_INLINE: u8 = 0;
const TAG_POINTER: u8 = 1;

impl SeparatedValue {
    /// Encode the slot (1-byte tag + payload).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            SeparatedValue::Inline(data) => SeparatedValue::encode_inline(data),
            SeparatedValue::Pointer(p) => {
                let mut v = vec![TAG_POINTER];
                p.encode_to(&mut v);
                v
            }
        }
    }

    /// Encode the inline slot of `value` at its exact size, without first
    /// copying `value` into a [`SeparatedValue::Inline`].
    pub fn encode_inline(value: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(1 + value.len());
        v.push(TAG_INLINE);
        v.extend_from_slice(value);
        v
    }

    /// Decode a slot produced by [`SeparatedValue::encode`].
    pub fn decode(src: &[u8]) -> Result<SeparatedValue> {
        let (&tag, rest) = src
            .split_first()
            .ok_or_else(|| Error::corruption("empty value slot"))?;
        match tag {
            TAG_INLINE => Ok(SeparatedValue::Inline(rest.to_vec())),
            TAG_POINTER => {
                let (p, n) = ValuePointer::decode_from(rest)?;
                if n != rest.len() {
                    return Err(Error::corruption("trailing bytes after value pointer"));
                }
                Ok(SeparatedValue::Pointer(p))
            }
            other => Err(Error::corruption(format!("bad value slot tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pointer_roundtrip() {
        let p = ValuePointer {
            partition: 3,
            log_number: 17,
            offset: 123_456_789,
            length: 1024,
        };
        let enc = p.encode();
        let (got, n) = ValuePointer::decode_from(&enc).unwrap();
        assert_eq!(got, p);
        assert_eq!(n, enc.len());
    }

    #[test]
    fn pointer_truncated_is_error() {
        let enc = ValuePointer {
            partition: 1,
            log_number: 300,
            offset: 70_000,
            length: 9,
        }
        .encode();
        for cut in 0..enc.len() {
            assert!(ValuePointer::decode_from(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn separated_value_roundtrip() {
        let inline = SeparatedValue::Inline(b"hello".to_vec());
        assert_eq!(SeparatedValue::decode(&inline.encode()).unwrap(), inline);

        let ptr = SeparatedValue::Pointer(ValuePointer {
            partition: 0,
            log_number: 1,
            offset: 2,
            length: 3,
        });
        assert_eq!(SeparatedValue::decode(&ptr.encode()).unwrap(), ptr);
    }

    #[test]
    fn separated_value_rejects_bad_tag_and_trailing() {
        assert!(SeparatedValue::decode(&[]).is_err());
        assert!(SeparatedValue::decode(&[9, 1, 2]).is_err());
        let mut enc = SeparatedValue::Pointer(ValuePointer {
            partition: 0,
            log_number: 1,
            offset: 2,
            length: 3,
        })
        .encode();
        enc.push(0); // trailing garbage after pointer
        assert!(SeparatedValue::decode(&enc).is_err());
    }

    proptest! {
        #[test]
        fn prop_pointer_roundtrip(partition in any::<u32>(), log_number in any::<u64>(),
                                  offset in any::<u64>(), length in any::<u32>()) {
            let p = ValuePointer { partition, log_number, offset, length };
            let enc = p.encode();
            let (got, n) = ValuePointer::decode_from(&enc).unwrap();
            prop_assert_eq!(got, p);
            prop_assert_eq!(n, enc.len());
        }

        #[test]
        fn prop_inline_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let enc = SeparatedValue::encode_inline(&data);
            let sv = SeparatedValue::Inline(data);
            prop_assert_eq!(&enc, &sv.encode());
            prop_assert_eq!(SeparatedValue::decode(&enc).unwrap(), sv);
        }
    }
}
