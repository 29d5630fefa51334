//! Offline stand-in for the `bytes` crate: a cheaply cloneable,
//! reference-counted immutable byte buffer. Only the subset used by this
//! workspace is provided.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes.
///
/// The buffer is the `Vec` it was built from, shared behind an `Arc`, so
/// `Bytes::from(Vec<u8>)` takes ownership without copying, as the real
/// crate does.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copy `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the buffer holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-slice sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let start = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(start <= end && end <= len, "slice out of range");
        Bytes {
            data: self.data.clone(),
            start: self.start + start,
            end: self.start + end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes {
            start: 0,
            end: v.len(),
            data: Arc::new(v),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Bytes {
        Bytes::from(v.as_bytes().to_vec())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", &self[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_slice() {
        let b = Bytes::from(b"hello world".to_vec());
        assert_eq!(&b[..], b"hello world");
        assert_eq!(b.len(), 11);
        let s = b.slice(6..);
        assert_eq!(&s[..], b"world");
        let s2 = s.slice(1..3);
        assert_eq!(&s2[..], b"or");
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn clones_share_allocation() {
        let b = Bytes::from(vec![0u8; 1024]);
        let c = b.clone();
        assert_eq!(b.data.as_ptr(), c.data.as_ptr());
    }

    #[test]
    fn from_vec_keeps_the_buffer() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.slice(100..).as_ptr(), ptr.wrapping_add(100));
    }
}
