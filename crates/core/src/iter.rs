//! Streaming iteration over a UniKV database.
//!
//! The paper describes scans exactly this way (§Scan Optimization): a
//! `seek()` positions at the start key, `next()` returns successive
//! smallest keys, without any global in-memory sort-merge. Each partition
//! is read through one [`LiveIter`], the visibility cursor every scan of
//! both engines shares, bounded by the partition's upper boundary; this
//! iterator only steps from one partition to the next and resolves the
//! value under the cursor. It owns `Arc` handles to every table and log it
//! may touch, so it remains valid (a consistent snapshot) while merges,
//! GC, and splits replace files underneath it.

use crate::resolver::ValueResolver;
use std::collections::HashMap;
use std::sync::Arc;
use unikv_common::pointer::SeparatedValue;
use unikv_common::Result;
use unikv_env::RandomAccessFile;
use unikv_lsm::iter::LiveIter;
use unikv_vlog::read_value_record;

/// One partition's slice of the snapshot.
pub(crate) struct PartitionCursor {
    /// Live entries of the partition's memtables + tiers.
    pub live: LiveIter,
    /// Inclusive lower boundary of the partition.
    pub lo: Vec<u8>,
    /// Exclusive upper boundary (`None` = +∞).
    pub hi: Option<Vec<u8>>,
}

/// Streaming cursor over live entries of the whole database.
pub struct UniKvIterator {
    parts: Vec<PartitionCursor>,
    /// The partition under the cursor.
    idx: usize,
    resolver: Arc<ValueResolver>,
    /// Log readers pinned at creation: GC may delete log files while the
    /// iterator lives, but pinned handles keep the snapshot readable.
    pinned_logs: HashMap<(u32, u64), Arc<dyn RandomAccessFile>>,
    /// Resolved value under the cursor; `None` when not positioned.
    value: Option<Vec<u8>>,
}

impl UniKvIterator {
    pub(crate) fn new(
        parts: Vec<PartitionCursor>,
        resolver: Arc<ValueResolver>,
        pinned_logs: HashMap<(u32, u64), Arc<dyn RandomAccessFile>>,
    ) -> Self {
        UniKvIterator {
            parts,
            idx: 0,
            resolver,
            pinned_logs,
            value: None,
        }
    }

    /// Position at the first live entry with `key >= from`.
    pub fn seek(&mut self, from: &[u8]) -> Result<()> {
        // Last partition with lo <= from (the first partition's lo is the
        // empty key, so the count is always >= 1).
        self.idx = self
            .parts
            .partition_point(|p| p.lo.as_slice() <= from)
            .saturating_sub(1);
        if let Some(p) = self.parts.get_mut(self.idx) {
            p.live.seek(from.max(p.lo.as_slice()), p.hi.as_deref())?;
        }
        self.settle()
    }

    /// Step past exhausted partitions, seeking each next one at its start,
    /// then resolve the value under the cursor.
    fn settle(&mut self) -> Result<()> {
        self.value = None;
        while let Some(p) = self.parts.get(self.idx) {
            if p.live.valid() {
                self.value = Some(match SeparatedValue::decode(p.live.value())? {
                    SeparatedValue::Inline(v) => v,
                    SeparatedValue::Pointer(ptr) => {
                        match self.pinned_logs.get(&(ptr.partition, ptr.log_number)) {
                            Some(r) => read_value_record(r.as_ref(), ptr.offset, ptr.length)?,
                            None => self.resolver.read(&ptr)?,
                        }
                    }
                });
                return Ok(());
            }
            self.idx += 1;
            if let Some(p) = self.parts.get_mut(self.idx) {
                p.live.seek(&p.lo, p.hi.as_deref())?;
            }
        }
        Ok(())
    }

    /// True if positioned on an entry.
    pub fn valid(&self) -> bool {
        self.value.is_some()
    }

    /// Current user key. Panics if not [`valid`](Self::valid).
    pub fn key(&self) -> &[u8] {
        assert!(self.valid(), "valid iterator");
        self.parts[self.idx].live.key()
    }

    /// Current value (pointers already resolved). Panics if not valid.
    pub fn value(&self) -> &[u8] {
        self.value.as_deref().expect("valid iterator")
    }

    /// Advance to the next live key (possibly crossing partitions).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<()> {
        assert!(self.valid(), "valid iterator");
        let p = &mut self.parts[self.idx];
        p.live.next(p.hi.as_deref())?;
        self.settle()
    }
}
