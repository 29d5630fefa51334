//! Block-cache residency carried from the tables a rewrite replaces to
//! the tables it writes.
//!
//! A rewrite (a full merge, GC or split) writes its output under new
//! cache ids and evicts its inputs, so the blocks foreground reads kept
//! cached would all have to be read again. Its builders keep a copy of
//! each data block they write ([`crate::TableBuilder::keep_blocks`]) while
//! the cache's capacity lasts: every builder reserves against the same
//! cache, so all builds together hold at most one cache's worth of bytes.
//! Once the rewrite is durable, [`crate::Table::admit`] puts the kept
//! blocks on the cache's probation segment under the output table's id.

use crate::cache::BlockCache;
use std::sync::Arc;

/// Data blocks one table's builder kept for the cache: each block's
/// offset in the table and its payload, as one read of the block would
/// return it. Their bytes stay reserved against the cache's capacity
/// until the blocks are admitted or dropped.
pub struct KeptBlocks {
    cache: Arc<BlockCache>,
    pub(crate) blocks: Vec<(u64, Vec<u8>)>,
    /// Payload bytes of `blocks` as kept, reserved until drop.
    pub(crate) bytes: usize,
}

impl KeptBlocks {
    pub(crate) fn new(cache: Arc<BlockCache>) -> KeptBlocks {
        KeptBlocks {
            cache,
            blocks: Vec::new(),
            bytes: 0,
        }
    }

    /// Keep a copy of the data block written at `offset`, if the cache
    /// has that much capacity left unreserved.
    pub(crate) fn offer(&mut self, offset: u64, payload: &[u8]) {
        if self.cache.reserve(payload.len()) {
            self.bytes += payload.len();
            self.blocks.push((offset, payload.to_vec()));
        }
    }
}

impl Drop for KeptBlocks {
    fn drop(&mut self) {
        self.cache.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offer `n` 10-byte blocks; the offsets of those kept.
    fn offer(kept: &mut KeptBlocks, n: u64) -> Vec<u64> {
        for offset in 0..n {
            kept.offer(offset, &[0; 10]);
        }
        kept.blocks.iter().map(|&(o, _)| o).collect()
    }

    /// Every keeper on one cache draws on its capacity, and bytes come
    /// back when kept blocks are dropped.
    #[test]
    fn keepers_share_the_cache_capacity() {
        let cache = BlockCache::new(8 * 32);
        let mut a = KeptBlocks::new(cache.clone());
        assert_eq!(offer(&mut a, 20), (0..20).collect::<Vec<_>>());
        let mut b = KeptBlocks::new(cache.clone());
        assert_eq!(offer(&mut b, 10), (0..5).collect::<Vec<_>>(), "cap reached");
        assert_eq!(a.bytes + b.bytes, 250);
        drop(a);
        let mut c = KeptBlocks::new(cache);
        assert_eq!(offer(&mut c, 30).len(), 20, "a's bytes came back");
    }
}
