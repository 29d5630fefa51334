//! Internal iterators: a uniform cursor over memtables and SSTables, the
//! k-way merging iterator both engines use for scans and compactions, and
//! [`LiveIter`], the one cursor that turns a merge into the live user
//! entries at a snapshot for every scan and iterator of both engines.

use std::cmp::Ordering;
use std::sync::Arc;
use unikv_common::ikey::{
    compare_internal_keys, extract_seq_type, extract_user_key, make_internal_key, SequenceNumber,
    ValueType,
};
use unikv_common::Result;
use unikv_memtable::{MemTable, OwnedMemTableIterator};
use unikv_sstable::{Table, TableIterator};

/// Cursor over `(internal_key, value)` entries in internal-key order.
pub trait InternalIterator: Send {
    /// True if positioned on an entry.
    fn valid(&self) -> bool;
    /// Position at the first entry.
    fn seek_to_first(&mut self) -> Result<()>;
    /// Position at the first entry with internal key `>= ikey`.
    fn seek(&mut self, ikey: &[u8]) -> Result<()>;
    /// Advance.
    fn next(&mut self) -> Result<()>;
    /// The internal key under the cursor.
    fn ikey(&self) -> &[u8];
    /// The value under the cursor.
    fn value(&self) -> &[u8];
}

/// Adapter: memtable → [`InternalIterator`].
pub struct MemTableSource(OwnedMemTableIterator);

impl MemTableSource {
    /// Wrap a memtable.
    pub fn new(mem: Arc<MemTable>) -> Self {
        MemTableSource(OwnedMemTableIterator::new(mem))
    }
}

impl InternalIterator for MemTableSource {
    fn valid(&self) -> bool {
        self.0.valid()
    }
    fn seek_to_first(&mut self) -> Result<()> {
        self.0.seek_to_first();
        Ok(())
    }
    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        self.0.seek(ikey);
        Ok(())
    }
    fn next(&mut self) -> Result<()> {
        self.0.next();
        Ok(())
    }
    fn ikey(&self) -> &[u8] {
        self.0.ikey()
    }
    fn value(&self) -> &[u8] {
        self.0.value()
    }
}

/// Adapter: SSTable → [`InternalIterator`].
pub struct TableSource(TableIterator);

impl TableSource {
    /// Wrap an open table. `fill_cache` is `false` for maintenance reads
    /// (see [`Table::iter`]).
    pub fn new(table: &Arc<Table>, fill_cache: bool) -> Self {
        TableSource(table.iter(fill_cache))
    }
}

impl InternalIterator for TableSource {
    fn valid(&self) -> bool {
        self.0.valid()
    }
    fn seek_to_first(&mut self) -> Result<()> {
        self.0.seek_to_first()
    }
    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        self.0.seek(ikey)
    }
    fn next(&mut self) -> Result<()> {
        self.0.next()
    }
    fn ikey(&self) -> &[u8] {
        self.0.key()
    }
    fn value(&self) -> &[u8] {
        self.0.value()
    }
}

/// Iterator over a sorted, non-overlapping sequence of tables (one sorted
/// run: a leveled LSM level, or UniKV's SortedStore), opening and
/// advancing one table at a time so a seek costs one table, not one per
/// file.
pub struct ConcatSource {
    /// `(largest_internal_key, table)` pairs ordered by key.
    tables: Vec<(Vec<u8>, Arc<Table>)>,
    current: usize,
    iter: Option<TableIterator>,
    fill_cache: bool,
}

impl ConcatSource {
    /// Build over `(largest_internal_key, handle)` pairs already ordered.
    /// `fill_cache` is `false` for maintenance reads (see [`Table::iter`]).
    pub fn new(tables: Vec<(Vec<u8>, Arc<Table>)>, fill_cache: bool) -> Self {
        ConcatSource {
            tables,
            current: 0,
            iter: None,
            fill_cache,
        }
    }

    fn open_current(&mut self) {
        self.iter = self
            .tables
            .get(self.current)
            .map(|(_, table)| table.iter(self.fill_cache));
    }

    fn advance_past_exhausted(&mut self) -> Result<()> {
        while let Some(it) = &self.iter {
            if it.valid() {
                return Ok(());
            }
            self.current += 1;
            self.open_current();
            if let Some(it) = &mut self.iter {
                it.seek_to_first()?;
            }
        }
        Ok(())
    }
}

impl InternalIterator for ConcatSource {
    fn valid(&self) -> bool {
        self.iter.as_ref().is_some_and(|it| it.valid())
    }

    fn seek_to_first(&mut self) -> Result<()> {
        self.current = 0;
        self.open_current();
        if let Some(it) = &mut self.iter {
            it.seek_to_first()?;
        }
        self.advance_past_exhausted()
    }

    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        self.current = self
            .tables
            .partition_point(|(largest, _)| compare_internal_keys(largest, ikey).is_lt());
        self.open_current();
        if let Some(it) = &mut self.iter {
            it.seek(ikey)?;
        }
        self.advance_past_exhausted()
    }

    fn next(&mut self) -> Result<()> {
        if let Some(it) = &mut self.iter {
            it.next()?;
        }
        self.advance_past_exhausted()
    }

    fn ikey(&self) -> &[u8] {
        self.iter.as_ref().expect("valid").key()
    }

    fn value(&self) -> &[u8] {
        self.iter.as_ref().expect("valid").value()
    }
}

/// K-way merge of internal iterators in internal-key order. Ties cannot
/// occur because (user_key, seq) pairs are unique across sources.
pub struct MergingIterator {
    children: Vec<Box<dyn InternalIterator>>,
    current: Option<usize>,
    /// The second-smallest child when `current` was picked. Only the
    /// current child moves between picks, so while its key stays below
    /// this child's key it is still the smallest, and `next` needs one
    /// comparison instead of a pass over every child.
    runner_up: Option<usize>,
}

impl MergingIterator {
    /// Merge `children`.
    pub fn new(children: Vec<Box<dyn InternalIterator>>) -> Self {
        MergingIterator {
            children,
            current: None,
            runner_up: None,
        }
    }

    fn find_smallest(&mut self) {
        let mut best: Option<(usize, &[u8])> = None;
        let mut second: Option<(usize, &[u8])> = None;
        for (i, c) in self.children.iter().enumerate() {
            if !c.valid() {
                continue;
            }
            let key = c.ikey();
            match (best, second) {
                (Some((_, b)), _) if compare_internal_keys(key, b) == Ordering::Less => {
                    second = best;
                    best = Some((i, key));
                }
                (None, _) => best = Some((i, key)),
                (_, Some((_, s))) if compare_internal_keys(key, s) != Ordering::Less => {}
                _ => second = Some((i, key)),
            }
        }
        self.current = best.map(|(i, _)| i);
        self.runner_up = second.map(|(i, _)| i);
    }
}

impl InternalIterator for MergingIterator {
    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn seek_to_first(&mut self) -> Result<()> {
        for c in &mut self.children {
            c.seek_to_first()?;
        }
        self.find_smallest();
        Ok(())
    }

    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        for c in &mut self.children {
            c.seek(ikey)?;
        }
        self.find_smallest();
        Ok(())
    }

    fn next(&mut self) -> Result<()> {
        let cur = self.current.expect("iterator not positioned");
        self.children[cur].next()?;
        let child = &self.children[cur];
        if child.valid() {
            let still_smallest = match self.runner_up {
                None => true,
                Some(r) => {
                    compare_internal_keys(child.ikey(), self.children[r].ikey()) == Ordering::Less
                }
            };
            if still_smallest {
                return Ok(());
            }
        }
        self.find_smallest();
        Ok(())
    }

    fn ikey(&self) -> &[u8] {
        self.children[self.current.expect("valid")].ikey()
    }

    fn value(&self) -> &[u8] {
        self.children[self.current.expect("valid")].value()
    }
}

/// The live user entries of a merge at a snapshot, in key order: the
/// paper's `seek()`/`next()` scan (PAPER.md §Scan Optimization). Versions
/// newer than the snapshot are skipped, so are older versions of a key
/// already taken, and a key whose newest visible version is a tombstone is
/// hidden. Every call takes the exclusive user-key bound `end` (`None` =
/// unbounded) and stops before it. `key` and `value` borrow the merge's
/// current entry; the only per-cursor buffer is the last taken key.
pub struct LiveIter {
    inner: MergingIterator,
    snapshot: SequenceNumber,
    /// User key of the last version taken; meaningful once `taken` is set.
    last_key: Vec<u8>,
    taken: bool,
    valid: bool,
}

impl LiveIter {
    /// Read `inner` at `snapshot`. Unpositioned until [`seek`](Self::seek).
    pub fn new(inner: MergingIterator, snapshot: SequenceNumber) -> Self {
        LiveIter {
            inner,
            snapshot,
            last_key: Vec::new(),
            taken: false,
            valid: false,
        }
    }

    /// Position at the first live entry with `from <= key < end`.
    pub fn seek(&mut self, from: &[u8], end: Option<&[u8]>) -> Result<()> {
        self.inner
            .seek(&make_internal_key(from, self.snapshot, ValueType::Value))?;
        self.taken = false;
        self.skip_to_live(end)
    }

    /// Advance to the next live entry below `end`. Panics if not
    /// [`valid`](Self::valid).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self, end: Option<&[u8]>) -> Result<()> {
        assert!(self.valid, "iterator not positioned");
        self.inner.next()?;
        self.skip_to_live(end)
    }

    /// The visibility loop: stop on the newest version inside the snapshot
    /// of a key not yet taken, unless it is a tombstone.
    fn skip_to_live(&mut self, end: Option<&[u8]>) -> Result<()> {
        self.valid = false;
        while self.inner.valid() {
            let ikey = self.inner.ikey();
            let user_key = extract_user_key(ikey);
            if end.is_some_and(|end| user_key >= end) {
                return Ok(());
            }
            let (seq, t) = extract_seq_type(ikey)?;
            if (!self.taken || self.last_key != user_key) && seq <= self.snapshot {
                self.taken = true;
                self.last_key.clear();
                self.last_key.extend_from_slice(user_key);
                if t == ValueType::Value {
                    self.valid = true;
                    return Ok(());
                }
            }
            self.inner.next()?;
        }
        Ok(())
    }

    /// True if positioned on a live entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// User key under the cursor. Panics if not [`valid`](Self::valid).
    pub fn key(&self) -> &[u8] {
        extract_user_key(self.ikey())
    }

    /// Internal key (user key, sequence and type) of the version under
    /// the cursor, the one [`value`](Self::value) belongs to. Panics if
    /// not [`valid`](Self::valid).
    pub fn ikey(&self) -> &[u8] {
        assert!(self.valid, "iterator not positioned");
        self.inner.ikey()
    }

    /// Value (slot) under the cursor. Panics if not [`valid`](Self::valid).
    pub fn value(&self) -> &[u8] {
        assert!(self.valid, "iterator not positioned");
        self.inner.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_common::ikey::{extract_seq_type, extract_user_key, make_internal_key, ValueType};

    fn mem_with(entries: &[(&[u8], u64, &[u8])]) -> Arc<MemTable> {
        let m = Arc::new(MemTable::new());
        for (k, seq, v) in entries {
            m.add(*seq, ValueType::Value, k, v);
        }
        m
    }

    #[test]
    fn merge_two_memtables() {
        let a = mem_with(&[(b"a", 1, b"1"), (b"c", 3, b"3")]);
        let b = mem_with(&[(b"b", 2, b"2"), (b"d", 4, b"4")]);
        let mut m = MergingIterator::new(vec![
            Box::new(MemTableSource::new(a)),
            Box::new(MemTableSource::new(b)),
        ]);
        m.seek_to_first().unwrap();
        let mut keys = Vec::new();
        while m.valid() {
            keys.push(extract_user_key(m.ikey()).to_vec());
            m.next().unwrap();
        }
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn versions_interleave_newest_first() {
        // Same user key in two sources: higher seq must come first.
        let old = mem_with(&[(b"k", 1, b"old")]);
        let new = mem_with(&[(b"k", 9, b"new")]);
        let mut m = MergingIterator::new(vec![
            Box::new(MemTableSource::new(old)),
            Box::new(MemTableSource::new(new)),
        ]);
        m.seek_to_first().unwrap();
        assert_eq!(m.value(), b"new");
        assert_eq!(extract_seq_type(m.ikey()).unwrap().0, 9);
        m.next().unwrap();
        assert_eq!(m.value(), b"old");
        m.next().unwrap();
        assert!(!m.valid());
    }

    #[test]
    fn seek_in_merge() {
        let a = mem_with(&[(b"a", 1, b"1"), (b"m", 2, b"2"), (b"z", 3, b"3")]);
        let b = mem_with(&[(b"g", 4, b"4"), (b"q", 5, b"5")]);
        let mut m = MergingIterator::new(vec![
            Box::new(MemTableSource::new(a)),
            Box::new(MemTableSource::new(b)),
        ]);
        m.seek(&make_internal_key(b"h", u64::MAX >> 8, ValueType::Value))
            .unwrap();
        assert_eq!(extract_user_key(m.ikey()), b"m");
        m.next().unwrap();
        assert_eq!(extract_user_key(m.ikey()), b"q");
    }

    fn table_with(
        env: &unikv_env::mem::MemEnv,
        path: &str,
        keys: &[&[u8]],
    ) -> (Vec<u8>, Arc<Table>) {
        use unikv_env::Env;
        use unikv_sstable::{TableBuilder, TableBuilderOptions, TableOptions};
        let mut b = TableBuilder::new(
            env.new_writable(std::path::Path::new(path)).unwrap(),
            TableBuilderOptions::default(),
        );
        for k in keys {
            b.add(&make_internal_key(k, 1, ValueType::Value), k)
                .unwrap();
        }
        let props = b.finish().unwrap();
        let table = Table::open(
            env.new_random_access(std::path::Path::new(path)).unwrap(),
            props.file_size,
            TableOptions {
                cmp: unikv_common::ikey::compare_internal_keys,
                cache: None,
                io: None,
            },
        )
        .unwrap();
        (props.largest, table)
    }

    #[test]
    fn concat_source_spans_tables() {
        let env = unikv_env::mem::MemEnv::new();
        let t1 = table_with(&env, "/a.sst", &[b"a", b"c"]);
        let t2 = table_with(&env, "/b.sst", &[b"f", b"j"]);
        let mut src = ConcatSource::new(vec![t1, t2], true);
        src.seek_to_first().unwrap();
        let mut keys = Vec::new();
        while src.valid() {
            keys.push(extract_user_key(src.ikey()).to_vec());
            src.next().unwrap();
        }
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"c".to_vec(), b"f".to_vec(), b"j".to_vec()]
        );
        // Seek into the second table directly.
        src.seek(&make_internal_key(b"d", u64::MAX >> 9, ValueType::Value))
            .unwrap();
        assert_eq!(extract_user_key(src.ikey()), b"f");
        // Past the end.
        src.seek(&make_internal_key(b"z", u64::MAX >> 9, ValueType::Value))
            .unwrap();
        assert!(!src.valid());
        // Exactly at a boundary key.
        src.seek(&make_internal_key(b"c", u64::MAX >> 9, ValueType::Value))
            .unwrap();
        assert_eq!(extract_user_key(src.ikey()), b"c");
        // Crossing a table boundary with next().
        assert_eq!(extract_user_key(src.ikey()), b"c");
        src.next().unwrap();
        assert_eq!(extract_user_key(src.ikey()), b"f");
    }

    #[test]
    fn concat_source_empty() {
        let mut src = ConcatSource::new(vec![], true);
        src.seek_to_first().unwrap();
        assert!(!src.valid());
        src.seek(&make_internal_key(b"x", 1, ValueType::Value))
            .unwrap();
        assert!(!src.valid());
    }

    proptest::proptest! {
        /// Full merges and merges from a seek yield every entry of every
        /// child exactly once, in internal-key order, however the keys
        /// interleave (runs from one child, alternation, exhausted children).
        #[test]
        fn prop_merge_matches_sorted_union(
            entries in proptest::collection::vec((0u8..5, 0u8..40), 0..120),
            start in 0u8..42,
        ) {
            let mut want: Vec<Vec<u8>> = Vec::new();
            let mems: Vec<Arc<MemTable>> = (0..5).map(|_| Arc::new(MemTable::new())).collect();
            for (seq, (child, key)) in entries.iter().enumerate() {
                let key = [b'k', *key];
                let seq = seq as u64 + 1;
                mems[*child as usize].add(seq, ValueType::Value, &key, b"");
                want.push(make_internal_key(&key, seq, ValueType::Value));
            }
            want.sort_by(|a, b| compare_internal_keys(a, b));
            let merged = |seek: Option<&[u8]>| -> Vec<Vec<u8>> {
                let children = mems
                    .iter()
                    .map(|m| Box::new(MemTableSource::new(m.clone())) as Box<dyn InternalIterator>)
                    .collect();
                let mut m = MergingIterator::new(children);
                match seek {
                    Some(target) => m.seek(target).unwrap(),
                    None => m.seek_to_first().unwrap(),
                }
                let mut out = Vec::new();
                while m.valid() {
                    out.push(m.ikey().to_vec());
                    m.next().unwrap();
                }
                out
            };
            proptest::prop_assert_eq!(merged(None), want.clone());
            let target = make_internal_key(&[b'k', start], u64::MAX >> 9, ValueType::Value);
            let from: Vec<Vec<u8>> = want
                .into_iter()
                .filter(|k| compare_internal_keys(k, &target) != Ordering::Less)
                .collect();
            proptest::prop_assert_eq!(merged(Some(&target)), from);
        }
    }

    #[test]
    fn live_iter_ikey_is_the_version_of_its_value() {
        let old = mem_with(&[
            (b"a", 1, b"a1"),
            (b"b", 2, b"b2"),
            (b"c", 3, b"c3"),
            (b"d", 4, b"d4"),
        ]);
        let new = mem_with(&[(b"a", 5, b"a5"), (b"c", 8, b"c8")]);
        new.add(6, ValueType::Deletion, b"b", b"");
        new.add(7, ValueType::Deletion, b"c", b"");
        let live = |snapshot: u64| -> Vec<(Vec<u8>, Vec<u8>)> {
            let mut it = LiveIter::new(
                MergingIterator::new(vec![
                    Box::new(MemTableSource::new(old.clone())),
                    Box::new(MemTableSource::new(new.clone())),
                ]),
                snapshot,
            );
            it.seek(b"", None).unwrap();
            let mut out = Vec::new();
            while it.valid() {
                assert_eq!(it.key(), extract_user_key(it.ikey()));
                out.push((it.ikey().to_vec(), it.value().to_vec()));
                it.next(None).unwrap();
            }
            out
        };
        let version = |k: &[u8], seq: u64, v: &[u8]| {
            (make_internal_key(k, seq, ValueType::Value), v.to_vec())
        };
        // Newest versions: "b" is deleted, "c" was deleted and rewritten.
        assert_eq!(
            live(100),
            vec![
                version(b"a", 5, b"a5"),
                version(b"c", 8, b"c8"),
                version(b"d", 4, b"d4")
            ]
        );
        // At seq 7 the tombstone hides "c"; at seq 6 its older version shows.
        assert_eq!(
            live(7),
            vec![version(b"a", 5, b"a5"), version(b"d", 4, b"d4")]
        );
        assert_eq!(
            live(6),
            vec![
                version(b"a", 5, b"a5"),
                version(b"c", 3, b"c3"),
                version(b"d", 4, b"d4")
            ]
        );
    }

    #[test]
    fn empty_children_ok() {
        let mut m = MergingIterator::new(vec![]);
        m.seek_to_first().unwrap();
        assert!(!m.valid());
        let empty = mem_with(&[]);
        let mut m = MergingIterator::new(vec![Box::new(MemTableSource::new(empty))]);
        m.seek_to_first().unwrap();
        assert!(!m.valid());
    }
}
