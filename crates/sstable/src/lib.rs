#![warn(missing_docs)]

//! SSTable: the immutable on-disk table format shared by every engine in
//! this workspace (UniKV's UnsortedStore and SortedStore both reuse the
//! "mature and stable SSTable code", paper §Implementation; the LSM
//! baselines use it with Bloom filters enabled).
//!
//! Layout (LevelDB-lineage):
//!
//! ```text
//! [data block]*            `block_size` target, prefix-compressed w/ restarts
//! [filter block]?          Bloom filter (baselines only; UniKV omits it)
//! [record directory]?      per data block: each record's length, CRC32C and
//!                          1-byte key fingerprint (UniKV's hash-indexed tables)
//! [index block]            one entry per data block: last_key -> handle
//! [footer]                 filter handle + index handle [+ directory handle]
//!                          + magic (a directory table has its own magic)
//! ```
//!
//! Every block is followed by a 5-byte trailer: compression type (always
//! raw here) and a masked CRC32C. In a table with a record directory no
//! data-block entry shares more key bytes than the previous block's last
//! key (its index entry) has in common with it, so a point read can fetch
//! and decode one record on its own (see [`directory`]); the blocks still
//! decode with the ordinary [`BlockIterator`], so scans, merges and
//! verification read them as before.

pub mod block;
pub mod builder;
pub mod cache;
pub mod directory;
pub mod filter;
pub mod format;
pub mod reader;
pub mod residency;

pub use block::{Block, BlockBuilder, BlockIterator};
pub use builder::{TableBuilder, TableBuilderOptions};
pub use cache::BlockCache;
pub use filter::BloomFilterPolicy;
pub use format::BlockHandle;
pub use reader::{Table, TableIoMetrics, TableIterator, TableOptions};
pub use residency::KeptBlocks;

use std::cmp::Ordering;

/// Key comparison function used throughout a table. Tables storing internal
/// keys pass [`unikv_common::ikey::compare_internal_keys`]; raw-byte tables
/// pass `<[u8]>::cmp`-style ordering.
pub type KeyCmp = fn(&[u8], &[u8]) -> Ordering;

/// Raw byte ordering, for tables storing plain keys.
pub fn raw_cmp(a: &[u8], b: &[u8]) -> Ordering {
    a.cmp(b)
}
