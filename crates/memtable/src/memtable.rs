//! The memtable: versioned KV entries in a skiplist, ordered by internal
//! key. Entry encoding matches LevelDB:
//! `varint32(ikey_len) | internal_key | varint32(value_len) | value`.

use crate::skiplist::{SkipList, SkipListIterator};
use std::cmp::Ordering;
use unikv_common::coding::{
    get_length_prefixed_slice, put_length_prefixed_slice, put_varint32, varint64_length,
};
use unikv_common::ikey::{
    append_internal_key, compare_internal_key_with, compare_internal_keys, extract_seq_type,
    extract_user_key, pack_seq_and_type, VALUE_TYPE_FOR_SEEK,
};
use unikv_common::{SequenceNumber, ValueType};

/// The internal key at the front of an encoded memtable entry.
#[inline]
fn entry_ikey(entry: &[u8]) -> &[u8] {
    get_length_prefixed_slice(entry)
        .expect("valid memtable entry")
        .0
}

/// Comparator over encoded memtable entries: decode the length-prefixed
/// internal key and apply the internal-key order.
#[derive(Clone, Copy)]
pub struct EntryComparator;

impl crate::skiplist::Comparator for EntryComparator {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        compare_internal_keys(entry_ikey(a), entry_ikey(b))
    }
}

/// Outcome of a memtable point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupResult<'a> {
    /// The newest visible version is a value, borrowed from the memtable.
    Value(&'a [u8]),
    /// The newest visible version is a tombstone — stop searching older
    /// stores and report not-found to the caller.
    Deleted,
    /// The key has no version visible at the snapshot in this memtable.
    NotFound,
}

/// A sorted in-memory buffer of versioned entries.
///
/// ```
/// use unikv_memtable::{LookupResult, MemTable};
/// use unikv_common::ValueType;
///
/// let mem = MemTable::new();
/// mem.add(1, ValueType::Value, b"k", b"old");
/// mem.add(2, ValueType::Value, b"k", b"new");
/// assert_eq!(mem.get(b"k", 2), LookupResult::Value(b"new"));
/// assert_eq!(mem.get(b"k", 1), LookupResult::Value(b"old"));
/// ```
pub struct MemTable {
    list: SkipList<EntryComparator>,
}

impl Default for MemTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MemTable {
    /// Create an empty memtable.
    pub fn new() -> Self {
        MemTable {
            list: SkipList::new(EntryComparator),
        }
    }

    /// Insert a versioned entry. `value` is ignored for deletions by
    /// convention (pass empty).
    pub fn add(&self, seq: SequenceNumber, t: ValueType, user_key: &[u8], value: &[u8]) {
        // Encoded in place at its exact size, so the skiplist node takes
        // this buffer as it is.
        let ikey_len = user_key.len() + 8;
        let len = varint64_length(ikey_len as u64)
            + ikey_len
            + varint64_length(value.len() as u64)
            + value.len();
        let mut entry = Vec::with_capacity(len);
        put_varint32(&mut entry, ikey_len as u32);
        append_internal_key(&mut entry, user_key, seq, t);
        put_length_prefixed_slice(&mut entry, value);
        debug_assert_eq!(entry.len(), len);
        let inserted = self.list.insert(entry);
        debug_assert!(inserted, "duplicate (key, seq) inserted into memtable");
    }

    /// Look up the newest version of `user_key` visible at `snapshot`.
    pub fn get(&self, user_key: &[u8], snapshot: SequenceNumber) -> LookupResult<'_> {
        let target = pack_seq_and_type(snapshot, VALUE_TYPE_FOR_SEEK);
        let mut it = self.list.iter();
        it.seek_by(|entry| compare_internal_key_with(entry_ikey(entry), user_key, target).is_lt());
        if !it.valid() {
            return LookupResult::NotFound;
        }
        let entry = it.entry();
        let (ikey, n) = get_length_prefixed_slice(entry).expect("valid memtable entry");
        if extract_user_key(ikey) != user_key {
            return LookupResult::NotFound;
        }
        let (_, t) = extract_seq_type(ikey).expect("valid internal key");
        match t {
            ValueType::Value => {
                let (v, _) = get_length_prefixed_slice(&entry[n..]).expect("valid memtable entry");
                LookupResult::Value(v)
            }
            ValueType::Deletion => LookupResult::Deleted,
        }
    }

    /// Number of entries (versions, not distinct keys).
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Approximate heap usage in bytes; the flush trigger compares this to
    /// the configured write-buffer size.
    pub fn approximate_memory_usage(&self) -> usize {
        self.list.memory_usage()
    }

    /// Iterator over `(internal_key, value)` pairs in internal-key order.
    pub fn iter(&self) -> MemTableIterator<'_> {
        MemTableIterator {
            inner: self.list.iter(),
        }
    }
}

/// Iterator that owns a reference to its memtable, usable in merging
/// iterators that outlive the borrow scope.
///
/// Safety: the skiplist never frees or mutates published nodes until drop,
/// and the `Arc` keeps the memtable alive for the iterator's lifetime, so
/// extending the internal iterator's lifetime is sound.
pub struct OwnedMemTableIterator {
    _mem: std::sync::Arc<MemTable>,
    inner: MemTableIterator<'static>,
}

impl OwnedMemTableIterator {
    /// Create an owning iterator over `mem`.
    pub fn new(mem: std::sync::Arc<MemTable>) -> Self {
        let inner: MemTableIterator<'_> = mem.iter();
        // SAFETY: `_mem` pins the memtable (and thus every skiplist node)
        // for as long as `inner` lives; nodes are immutable once published.
        let inner: MemTableIterator<'static> = unsafe { std::mem::transmute(inner) };
        OwnedMemTableIterator { _mem: mem, inner }
    }

    /// True if positioned on an entry.
    pub fn valid(&self) -> bool {
        self.inner.valid()
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) {
        self.inner.seek_to_first();
    }

    /// Position at the first entry with internal key `>= ikey`.
    pub fn seek(&mut self, ikey: &[u8]) {
        self.inner.seek(ikey);
    }

    /// Advance to the next entry.
    pub fn next(&mut self) {
        self.inner.next();
    }

    /// The internal key under the cursor.
    pub fn ikey(&self) -> &[u8] {
        self.inner.ikey()
    }

    /// The value under the cursor.
    pub fn value(&self) -> &[u8] {
        self.inner.value()
    }
}

/// Iterator over memtable entries, exposing decoded internal key and value.
pub struct MemTableIterator<'a> {
    inner: SkipListIterator<'a, EntryComparator>,
}

impl<'a> MemTableIterator<'a> {
    /// True if positioned on an entry.
    pub fn valid(&self) -> bool {
        self.inner.valid()
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) {
        self.inner.seek_to_first();
    }

    /// Position at the first entry with internal key `>= ikey`.
    pub fn seek(&mut self, ikey: &[u8]) {
        self.inner
            .seek_by(|entry| compare_internal_keys(entry_ikey(entry), ikey).is_lt());
    }

    /// Advance to the next entry.
    pub fn next(&mut self) {
        self.inner.next();
    }

    /// The internal key under the cursor.
    pub fn ikey(&self) -> &'a [u8] {
        entry_ikey(self.inner.entry())
    }

    /// The value under the cursor.
    pub fn value(&self) -> &'a [u8] {
        let entry = self.inner.entry();
        let (_, n) = get_length_prefixed_slice(entry).expect("valid entry");
        let (v, _) = get_length_prefixed_slice(&entry[n..]).expect("valid entry");
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_common::ikey::make_internal_key;

    #[test]
    fn get_returns_newest_visible_version() {
        let m = MemTable::new();
        m.add(1, ValueType::Value, b"k", b"v1");
        m.add(3, ValueType::Value, b"k", b"v3");
        m.add(5, ValueType::Value, b"k", b"v5");

        assert_eq!(m.get(b"k", 100), LookupResult::Value(b"v5"));
        assert_eq!(m.get(b"k", 5), LookupResult::Value(b"v5"));
        assert_eq!(m.get(b"k", 4), LookupResult::Value(b"v3"));
        assert_eq!(m.get(b"k", 2), LookupResult::Value(b"v1"));
        assert_eq!(m.get(b"k", 0), LookupResult::NotFound);
    }

    #[test]
    fn deletion_shadows_value() {
        let m = MemTable::new();
        m.add(1, ValueType::Value, b"k", b"v");
        m.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(m.get(b"k", 10), LookupResult::Deleted);
        assert_eq!(m.get(b"k", 1), LookupResult::Value(b"v"));
    }

    #[test]
    fn missing_key_not_found() {
        let m = MemTable::new();
        m.add(1, ValueType::Value, b"a", b"1");
        m.add(2, ValueType::Value, b"c", b"3");
        assert_eq!(m.get(b"b", 10), LookupResult::NotFound);
        assert_eq!(m.get(b"", 10), LookupResult::NotFound);
        assert_eq!(m.get(b"z", 10), LookupResult::NotFound);
    }

    #[test]
    fn iterates_by_user_key_then_seq_desc() {
        let m = MemTable::new();
        m.add(1, ValueType::Value, b"b", b"b1");
        m.add(2, ValueType::Value, b"a", b"a2");
        m.add(3, ValueType::Value, b"b", b"b3");

        let mut it = m.iter();
        it.seek_to_first();
        let mut seen = Vec::new();
        while it.valid() {
            let ik = it.ikey();
            seen.push((
                extract_user_key(ik).to_vec(),
                extract_seq_type(ik).unwrap().0,
                it.value().to_vec(),
            ));
            it.next();
        }
        assert_eq!(
            seen,
            vec![
                (b"a".to_vec(), 2, b"a2".to_vec()),
                (b"b".to_vec(), 3, b"b3".to_vec()),
                (b"b".to_vec(), 1, b"b1".to_vec()),
            ]
        );
    }

    #[test]
    fn seek_lands_on_newest_of_key() {
        let m = MemTable::new();
        m.add(1, ValueType::Value, b"k", b"old");
        m.add(9, ValueType::Value, b"k", b"new");
        let mut it = m.iter();
        it.seek(&make_internal_key(b"k", u64::MAX >> 8, ValueType::Value));
        assert!(it.valid());
        assert_eq!(it.value(), b"new");
    }

    #[test]
    fn memory_usage_grows() {
        let m = MemTable::new();
        let before = m.approximate_memory_usage();
        m.add(1, ValueType::Value, b"key", &[0u8; 1000]);
        assert!(m.approximate_memory_usage() >= before + 1000);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn empty_value_roundtrips() {
        let m = MemTable::new();
        m.add(1, ValueType::Value, b"k", b"");
        assert_eq!(m.get(b"k", 1), LookupResult::Value(&[]));
    }
}
