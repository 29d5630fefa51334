//! Internal key encoding: `user_key ++ fixed64(seq << 8 | value_type)`.
//!
//! Ordering is the LevelDB rule every engine in this workspace shares:
//! ascending by user key, then *descending* by sequence number, then
//! descending by value type — so the newest version of a key sorts first
//! and a seek at `(key, snapshot_seq)` lands on the newest visible version.

use crate::coding::{decode_fixed64, put_fixed64};
use crate::error::{Error, Result};
use std::cmp::Ordering;

/// Monotonically increasing write sequence number (56 bits usable).
pub type SequenceNumber = u64;

/// Largest representable sequence number (56 bits).
pub const MAX_SEQUENCE_NUMBER: SequenceNumber = (1 << 56) - 1;

/// The kind of a versioned record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ValueType {
    /// Tombstone: the key was deleted at this sequence number.
    Deletion = 0,
    /// Normal value.
    Value = 1,
}

impl ValueType {
    /// Decode from the low byte of the packed trailer.
    #[inline]
    pub fn from_u8(v: u8) -> Result<ValueType> {
        match v {
            0 => Ok(ValueType::Deletion),
            1 => Ok(ValueType::Value),
            other => Err(Error::corruption(format!("bad value type {other}"))),
        }
    }
}

/// Value type used when seeking: sorts before all real types at the same
/// sequence number, so a seek finds the first entry with `seq' <= seq`.
pub const VALUE_TYPE_FOR_SEEK: ValueType = ValueType::Value;

/// Pack a sequence number and type into the 8-byte trailer.
#[inline]
pub fn pack_seq_and_type(seq: SequenceNumber, t: ValueType) -> u64 {
    debug_assert!(seq <= MAX_SEQUENCE_NUMBER);
    (seq << 8) | t as u64
}

/// Append the encoded internal key for `(user_key, seq, t)` to `dst`.
pub fn append_internal_key(dst: &mut Vec<u8>, user_key: &[u8], seq: SequenceNumber, t: ValueType) {
    dst.extend_from_slice(user_key);
    put_fixed64(dst, pack_seq_and_type(seq, t));
}

/// Build an encoded internal key.
pub fn make_internal_key(user_key: &[u8], seq: SequenceNumber, t: ValueType) -> Vec<u8> {
    let mut v = Vec::with_capacity(user_key.len() + 8);
    append_internal_key(&mut v, user_key, seq, t);
    v
}

/// Extract the user key portion of an encoded internal key.
///
/// # Panics
/// Panics in debug builds if `ikey` is shorter than the 8-byte trailer.
#[inline]
pub fn extract_user_key(ikey: &[u8]) -> &[u8] {
    debug_assert!(ikey.len() >= 8, "internal key too short");
    &ikey[..ikey.len() - 8]
}

/// Extract `(seq, type)` from an encoded internal key.
#[inline]
pub fn extract_seq_type(ikey: &[u8]) -> Result<(SequenceNumber, ValueType)> {
    if ikey.len() < 8 {
        return Err(Error::corruption("internal key too short"));
    }
    let packed = decode_fixed64(&ikey[ikey.len() - 8..]);
    let t = ValueType::from_u8((packed & 0xff) as u8)?;
    Ok((packed >> 8, t))
}

/// Compare two encoded internal keys under the internal ordering.
#[inline]
pub fn compare_internal_keys(a: &[u8], b: &[u8]) -> Ordering {
    let ua = extract_user_key(a);
    let ub = extract_user_key(b);
    match ua.cmp(ub) {
        Ordering::Equal => {
            let ta = decode_fixed64(&a[a.len() - 8..]);
            let tb = decode_fixed64(&b[b.len() - 8..]);
            // Higher (seq,type) sorts first.
            tb.cmp(&ta)
        }
        other => other,
    }
}

/// Compare the encoded internal key `a` with the key that
/// `(user_key, packed)` would encode to (`packed` from
/// [`pack_seq_and_type`]), under the same ordering as
/// [`compare_internal_keys`] and without building that key.
#[inline]
pub fn compare_internal_key_with(a: &[u8], user_key: &[u8], packed: u64) -> Ordering {
    match extract_user_key(a).cmp(user_key) {
        Ordering::Equal => packed.cmp(&decode_fixed64(&a[a.len() - 8..])),
        other => other,
    }
}

/// An owned, parsed internal key. Handy for metadata (SSTable boundaries).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternalKey {
    encoded: Vec<u8>,
}

impl InternalKey {
    /// Build from parts.
    pub fn new(user_key: &[u8], seq: SequenceNumber, t: ValueType) -> Self {
        InternalKey {
            encoded: make_internal_key(user_key, seq, t),
        }
    }

    /// Wrap an already-encoded internal key, validating its trailer.
    pub fn decode(encoded: &[u8]) -> Result<Self> {
        extract_seq_type(encoded)?;
        Ok(InternalKey {
            encoded: encoded.to_vec(),
        })
    }

    /// The raw encoded bytes.
    pub fn encoded(&self) -> &[u8] {
        &self.encoded
    }

    /// The user key portion.
    pub fn user_key(&self) -> &[u8] {
        extract_user_key(&self.encoded)
    }

    /// The sequence number.
    pub fn sequence(&self) -> SequenceNumber {
        extract_seq_type(&self.encoded)
            .expect("validated at construction")
            .0
    }

    /// The value type.
    pub fn value_type(&self) -> ValueType {
        extract_seq_type(&self.encoded)
            .expect("validated at construction")
            .1
    }
}

impl PartialOrd for InternalKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InternalKey {
    fn cmp(&self, other: &Self) -> Ordering {
        compare_internal_keys(&self.encoded, &other.encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let ik = make_internal_key(b"foo", 42, ValueType::Value);
        assert_eq!(extract_user_key(&ik), b"foo");
        assert_eq!(extract_seq_type(&ik).unwrap(), (42, ValueType::Value));
    }

    #[test]
    fn ordering_user_key_ascending() {
        let a = make_internal_key(b"a", 100, ValueType::Value);
        let b = make_internal_key(b"b", 1, ValueType::Value);
        assert_eq!(compare_internal_keys(&a, &b), Ordering::Less);
    }

    #[test]
    fn ordering_seq_descending_within_key() {
        let new = make_internal_key(b"k", 10, ValueType::Value);
        let old = make_internal_key(b"k", 5, ValueType::Value);
        assert_eq!(compare_internal_keys(&new, &old), Ordering::Less);
    }

    #[test]
    fn deletion_sorts_after_value_at_same_seq() {
        let v = make_internal_key(b"k", 7, ValueType::Value);
        let d = make_internal_key(b"k", 7, ValueType::Deletion);
        assert_eq!(compare_internal_keys(&v, &d), Ordering::Less);
    }

    #[test]
    fn bad_type_is_corruption() {
        let mut ik = make_internal_key(b"k", 7, ValueType::Value);
        let n = ik.len();
        ik[n - 8] = 99; // clobber the type byte
        assert!(extract_seq_type(&ik).is_err());
        assert!(InternalKey::decode(&ik).is_err());
    }

    #[test]
    fn internal_key_struct_accessors() {
        let ik = InternalKey::new(b"user", 9, ValueType::Deletion);
        assert_eq!(ik.user_key(), b"user");
        assert_eq!(ik.sequence(), 9);
        assert_eq!(ik.value_type(), ValueType::Deletion);
        let back = InternalKey::decode(ik.encoded()).unwrap();
        assert_eq!(back, ik);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(key in proptest::collection::vec(any::<u8>(), 0..64),
                          seq in 0u64..MAX_SEQUENCE_NUMBER,
                          t in prop_oneof![Just(ValueType::Value), Just(ValueType::Deletion)]) {
            let ik = make_internal_key(&key, seq, t);
            prop_assert_eq!(extract_user_key(&ik), &key[..]);
            prop_assert_eq!(extract_seq_type(&ik).unwrap(), (seq, t));
        }

        #[test]
        fn prop_order_consistent_with_tuple(
            k1 in proptest::collection::vec(any::<u8>(), 0..8),
            s1 in 0u64..1000,
            k2 in proptest::collection::vec(any::<u8>(), 0..8),
            s2 in 0u64..1000,
        ) {
            let a = make_internal_key(&k1, s1, ValueType::Value);
            let b = make_internal_key(&k2, s2, ValueType::Value);
            let expect = (&k1, std::cmp::Reverse(s1)).cmp(&(&k2, std::cmp::Reverse(s2)));
            prop_assert_eq!(compare_internal_keys(&a, &b), expect);
            let packed = pack_seq_and_type(s2, ValueType::Value);
            prop_assert_eq!(compare_internal_key_with(&a, &k2, packed), expect);
        }
    }
}
