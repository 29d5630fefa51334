//! Byte-level integer encodings: little-endian fixed width and LEB128-style
//! varints, matching the formats LevelDB-lineage stores use on disk.
//!
//! Encoders append to a `Vec<u8>`; decoders read from a slice and return the
//! decoded value plus how many bytes were consumed (or advance a cursor).

use crate::error::{Error, Result};

/// Maximum encoded length of a varint32.
pub const MAX_VARINT32_LEN: usize = 5;
/// Maximum encoded length of a varint64.
pub const MAX_VARINT64_LEN: usize = 10;

/// Append a little-endian u32.
#[inline]
pub fn put_fixed32(dst: &mut Vec<u8>, v: u32) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u64.
#[inline]
pub fn put_fixed64(dst: &mut Vec<u8>, v: u64) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Decode a little-endian u32 from the first 4 bytes of `src`.
///
/// # Panics
/// Panics if `src` is shorter than 4 bytes; use [`try_decode_fixed32`] for
/// untrusted input.
#[inline]
pub fn decode_fixed32(src: &[u8]) -> u32 {
    u32::from_le_bytes(src[..4].try_into().expect("fixed32 needs 4 bytes"))
}

/// Decode a little-endian u64 from the first 8 bytes of `src`.
///
/// # Panics
/// Panics if `src` is shorter than 8 bytes; use [`try_decode_fixed64`] for
/// untrusted input.
#[inline]
pub fn decode_fixed64(src: &[u8]) -> u64 {
    u64::from_le_bytes(src[..8].try_into().expect("fixed64 needs 8 bytes"))
}

/// Fallible fixed32 decode for untrusted input.
#[inline]
pub fn try_decode_fixed32(src: &[u8]) -> Result<u32> {
    if src.len() < 4 {
        return Err(Error::corruption("truncated fixed32"));
    }
    Ok(decode_fixed32(src))
}

/// Fallible fixed64 decode for untrusted input.
#[inline]
pub fn try_decode_fixed64(src: &[u8]) -> Result<u64> {
    if src.len() < 8 {
        return Err(Error::corruption("truncated fixed64"));
    }
    Ok(decode_fixed64(src))
}

/// Append a varint-encoded u32.
#[inline]
pub fn put_varint32(dst: &mut Vec<u8>, v: u32) {
    put_varint64(dst, v as u64);
}

/// Append a varint-encoded u64 (7 bits per byte, MSB = continuation).
pub fn put_varint64(dst: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        dst.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    dst.push(v as u8);
}

/// Decode a varint u64 from `src`, returning `(value, bytes_consumed)`.
///
/// Inlined so that callers in other crates decode one- and two-byte
/// varints (key lengths, shared-prefix counts, value and block lengths)
/// without a call; longer or malformed input goes to
/// [`get_varint64_slow`].
#[inline]
pub fn get_varint64(src: &[u8]) -> Result<(u64, usize)> {
    match *src {
        [b0, ..] if b0 < 0x80 => Ok((u64::from(b0), 1)),
        [b0, b1, ..] if b1 < 0x80 => Ok((u64::from(b0 & 0x7f) | u64::from(b1) << 7, 2)),
        _ => get_varint64_slow(src),
    }
}

/// The general varint64 decoder: every length, plus the truncation,
/// overlong (more than 10 bytes) and 64-bit overflow errors.
#[inline(never)]
fn get_varint64_slow(src: &[u8]) -> Result<(u64, usize)> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in src.iter().enumerate() {
        if shift >= 64 {
            break;
        }
        if b < 0x80 {
            // Final byte: reject bits that would overflow 64.
            let part = b as u64;
            if shift == 63 && part > 1 {
                return Err(Error::corruption("varint64 overflow"));
            }
            result |= part << shift;
            return Ok((result, i + 1));
        }
        result |= ((b & 0x7f) as u64) << shift;
        shift += 7;
    }
    Err(Error::corruption("truncated or overlong varint64"))
}

/// Decode a varint u32 from `src`, returning `(value, bytes_consumed)`.
#[inline]
pub fn get_varint32(src: &[u8]) -> Result<(u32, usize)> {
    match *src {
        [b0, ..] if b0 < 0x80 => Ok((u32::from(b0), 1)),
        [b0, b1, ..] if b1 < 0x80 => Ok((u32::from(b0 & 0x7f) | u32::from(b1) << 7, 2)),
        _ => get_varint32_slow(src),
    }
}

/// The general varint32 decoder: [`get_varint64_slow`] plus the 32-bit
/// overflow check.
#[inline(never)]
fn get_varint32_slow(src: &[u8]) -> Result<(u32, usize)> {
    let (v, n) = get_varint64_slow(src)?;
    u32::try_from(v)
        .map(|v32| (v32, n))
        .map_err(|_| Error::corruption("varint32 overflow"))
}

/// Append a length-prefixed byte string (varint32 length + bytes).
pub fn put_length_prefixed_slice(dst: &mut Vec<u8>, s: &[u8]) {
    put_varint32(dst, s.len() as u32);
    dst.extend_from_slice(s);
}

/// Read a length-prefixed byte string, returning `(slice, bytes_consumed)`.
#[inline]
pub fn get_length_prefixed_slice(src: &[u8]) -> Result<(&[u8], usize)> {
    let (len, n) = get_varint32(src)?;
    let end = n + len as usize;
    match src.get(n..end) {
        Some(s) => Ok((s, end)),
        None => Err(Error::corruption("truncated length-prefixed slice")),
    }
}

/// Number of bytes `put_varint64` would emit for `v`.
#[inline]
pub fn varint64_length(v: u64) -> usize {
    // 1 + floor(bits/7); bits==0 still takes one byte.
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_roundtrip() {
        let mut buf = Vec::new();
        put_fixed32(&mut buf, 0xdeadbeef);
        put_fixed64(&mut buf, 0x0123_4567_89ab_cdef);
        assert_eq!(decode_fixed32(&buf[..4]), 0xdeadbeef);
        assert_eq!(decode_fixed64(&buf[4..]), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn try_decode_rejects_short_input() {
        assert!(try_decode_fixed32(&[1, 2, 3]).is_err());
        assert!(try_decode_fixed64(&[0; 7]).is_err());
    }

    /// The decoder as it was before the inlined fast paths: the reference
    /// every fast-path result must equal, `Ok` and `Err` alike.
    fn reference_get_varint64(src: &[u8]) -> Result<(u64, usize)> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        for (i, &b) in src.iter().enumerate() {
            if shift >= 64 {
                break;
            }
            if b < 0x80 {
                let part = b as u64;
                if shift == 63 && part > 1 {
                    return Err(Error::corruption("varint64 overflow"));
                }
                result |= part << shift;
                return Ok((result, i + 1));
            }
            result |= ((b & 0x7f) as u64) << shift;
            shift += 7;
        }
        Err(Error::corruption("truncated or overlong varint64"))
    }

    fn reference_get_varint32(src: &[u8]) -> Result<(u32, usize)> {
        let (v, n) = reference_get_varint64(src)?;
        u32::try_from(v)
            .map(|v32| (v32, n))
            .map_err(|_| Error::corruption("varint32 overflow"))
    }

    /// `Debug` renders the error kind and message, so equal strings mean
    /// the same `Ok` value or the same error.
    fn same<T: std::fmt::Debug>(a: &Result<T>, b: &Result<T>) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// Assert the fast-path decoders, the slow paths and the reference
    /// agree on `src`.
    fn assert_decoders_agree(src: &[u8]) {
        let want64 = reference_get_varint64(src);
        assert!(same(&get_varint64(src), &want64), "varint64 {src:02x?}");
        assert!(same(&get_varint64_slow(src), &want64), "slow64 {src:02x?}");
        let want32 = reference_get_varint32(src);
        assert!(same(&get_varint32(src), &want32), "varint32 {src:02x?}");
        assert!(same(&get_varint32_slow(src), &want32), "slow32 {src:02x?}");
    }

    /// Every value on either side of each 7-bit boundary, 0 to `u64::MAX`.
    fn boundary_values() -> Vec<u64> {
        let mut vs = vec![0, 1, u64::MAX - 1, u64::MAX];
        for k in 1..=9 {
            let b = 1u64 << (7 * k);
            vs.extend([b - 1, b, b + 1]);
        }
        vs.extend([u32::MAX as u64, u32::MAX as u64 + 1]);
        vs
    }

    #[test]
    fn varint_boundaries() {
        for v in boundary_values() {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            assert_eq!(buf.len(), varint64_length(v), "length for {v}");
            for (got, n) in [
                get_varint64(&buf).unwrap(),
                get_varint64_slow(&buf).unwrap(),
            ] {
                assert_eq!((got, n), (v, buf.len()), "value {v}");
            }
            if let Ok(v32) = u32::try_from(v) {
                for (got, n) in [
                    get_varint32(&buf).unwrap(),
                    get_varint32_slow(&buf).unwrap(),
                ] {
                    assert_eq!((got, n), (v32, buf.len()), "value {v}");
                }
            }
            // Trailing bytes are never consumed.
            buf.push(0x7f);
            assert_decoders_agree(&buf);
        }
    }

    #[test]
    fn varint_errors_match_reference() {
        // Truncated: every strict prefix of every boundary encoding.
        for v in boundary_values() {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            for cut in 0..=buf.len() {
                assert_decoders_agree(&buf[..cut]);
            }
        }
        // Overlong: 10 and more continuation bytes, with or without an end.
        for len in 10..=14 {
            let mut buf = vec![0x80u8; len];
            assert_decoders_agree(&buf);
            buf.push(0x00);
            assert_decoders_agree(&buf);
            assert!(get_varint64(&buf).is_err());
        }
        // 10th-byte overflow: any final byte above 1 after nine full ones.
        for last in 0..=0x7fu8 {
            let mut buf = vec![0xffu8; 9];
            buf.push(last);
            assert_decoders_agree(&buf);
            assert_eq!(get_varint64(&buf).is_ok(), last <= 1, "last byte {last}");
        }
        // varint32 overflow: 33-bit and wider values that fit varint64.
        for v in [u32::MAX as u64 + 1, 1 << 35, u64::MAX] {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            assert_decoders_agree(&buf);
            assert!(get_varint32(&buf).is_err());
        }
    }

    #[test]
    fn varint_truncated_is_error() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert!(get_varint64(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn varint_overflow_is_error() {
        // 10 continuation bytes followed by a large final byte exceeds 64 bits.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(get_varint64(&buf).is_err());
    }

    #[test]
    fn varint32_rejects_64bit_values() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u32::MAX as u64 + 1);
        assert!(get_varint32(&buf).is_err());
    }

    #[test]
    fn length_prefixed_roundtrip() {
        let mut buf = Vec::new();
        put_length_prefixed_slice(&mut buf, b"hello");
        put_length_prefixed_slice(&mut buf, b"");
        let (s1, n1) = get_length_prefixed_slice(&buf).unwrap();
        assert_eq!(s1, b"hello");
        let (s2, n2) = get_length_prefixed_slice(&buf[n1..]).unwrap();
        assert_eq!(s2, b"");
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn length_prefixed_truncated_is_error() {
        let mut buf = Vec::new();
        put_length_prefixed_slice(&mut buf, b"hello");
        assert!(get_length_prefixed_slice(&buf[..3]).is_err());
    }

    proptest! {
        #[test]
        fn prop_varint64_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            let (got, n) = get_varint64(&buf).unwrap();
            prop_assert_eq!(got, v);
            prop_assert_eq!(n, buf.len());
            prop_assert!(buf.len() <= MAX_VARINT64_LEN);
        }

        #[test]
        fn prop_varint32_roundtrip(v in any::<u32>()) {
            let mut buf = Vec::new();
            put_varint32(&mut buf, v);
            let (got, n) = get_varint32(&buf).unwrap();
            prop_assert_eq!(got, v);
            prop_assert_eq!(n, buf.len());
            prop_assert!(buf.len() <= MAX_VARINT32_LEN);
        }

        /// The fast-path decoders return exactly what the reference loop
        /// returns on arbitrary bytes; the first `cont` bytes get their
        /// continuation bit forced on so long and overlong inputs occur.
        #[test]
        fn prop_varint_decoders_match_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..16),
            cont in 0usize..16,
        ) {
            let mut bytes = bytes;
            for b in bytes.iter_mut().take(cont) {
                *b |= 0x80;
            }
            assert_decoders_agree(&bytes);
        }

        #[test]
        fn prop_length_prefixed_roundtrip(s in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut buf = Vec::new();
            put_length_prefixed_slice(&mut buf, &s);
            let (got, n) = get_length_prefixed_slice(&buf).unwrap();
            prop_assert_eq!(got, &s[..]);
            prop_assert_eq!(n, buf.len());
        }

        #[test]
        fn prop_varint_ordering_of_concatenation(a in any::<u64>(), b in any::<u64>()) {
            // Two varints back to back decode independently.
            let mut buf = Vec::new();
            put_varint64(&mut buf, a);
            put_varint64(&mut buf, b);
            let (ga, na) = get_varint64(&buf).unwrap();
            let (gb, nb) = get_varint64(&buf[na..]).unwrap();
            prop_assert_eq!(ga, a);
            prop_assert_eq!(gb, b);
            prop_assert_eq!(na + nb, buf.len());
        }
    }
}
