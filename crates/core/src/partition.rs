//! Runtime state of one range partition: memtable + WAL, UnsortedStore
//! tables with their hash index, the SortedStore run, and the value log.

use crate::meta::{IndexEntry, PartitionMeta, TableMeta};
use std::collections::HashMap;
use std::sync::Arc;
use unikv_common::ikey::{compare_internal_keys, extract_user_key};
use unikv_hashindex::TwoLevelHashIndex;
use unikv_memtable::MemTable;
use unikv_sstable::{BlockCache, Table, TableOptions};
use unikv_vlog::ValueLog;
use unikv_wal::LogWriter;

/// A sealed (immutable) memtable handed off to background maintenance,
/// together with the WAL file that protects it until its flush commits.
#[derive(Clone)]
pub struct SealedMem {
    /// WAL number recorded in `PartitionMeta::sealed_wals`.
    pub wal_number: u64,
    /// The frozen memtable; reads keep consulting it until the flushed
    /// table is installed.
    pub mem: Arc<MemTable>,
    /// Seq of the `Seal` lifecycle event that froze this memtable; the
    /// eventual flush's `FlushStart` event uses it as its `cause` so the
    /// seal→flush causal link survives the handoff to a worker thread.
    pub cause: Option<u64>,
}

/// Live state of one partition.
pub struct Partition {
    /// Persistent metadata: the last committed state. A structural op
    /// builds its next state aside and swaps it in once its commit
    /// succeeded.
    pub meta: PartitionMeta,
    /// Active memtable.
    pub mem: Arc<MemTable>,
    /// Sealed memtables awaiting flush, oldest first. In inline mode
    /// (`background_jobs = 0`) a flush drains them before it returns,
    /// unless it aborted: the sealed memtable then waits for the next
    /// flush.
    pub imms: Vec<SealedMem>,
    /// WAL protecting `mem`.
    pub wal: LogWriter,
    /// The two-level hash index over the UnsortedStore.
    pub index: TwoLevelHashIndex,
    /// Value logs owned by this partition. Behind its own mutex so merge
    /// and GC can append values without holding the database core lock;
    /// never take the core lock while holding a vlog lock.
    pub vlog: Arc<parking_lot::Mutex<ValueLog>>,
    /// Open table handles (both tiers), keyed by file number. Behind a
    /// mutex so readers holding only the database read lock can populate
    /// the cache.
    pub tables: parking_lot::Mutex<HashMap<u64, Arc<Table>>>,
    /// Entries `index` gained since the last manifest commit, in
    /// insertion order: the next commit logs them with the table list.
    pub unlogged: Vec<IndexEntry>,
    /// Half the file bytes of each inherited value log, summed: the GC
    /// trigger's charge for them, read once. Inherited logs are never
    /// appended to, and the partition's set of them only ever empties (a
    /// GC drops them all), so the first reading stays right.
    pub inherited_charge: std::sync::OnceLock<u64>,
}

impl Partition {
    /// A partition serving `meta` from `mem` and `wal`, with no sealed
    /// memtable, no open table handle and no unlogged index entry.
    pub fn new(
        meta: PartitionMeta,
        mem: Arc<MemTable>,
        wal: LogWriter,
        index: TwoLevelHashIndex,
        vlog: Arc<parking_lot::Mutex<ValueLog>>,
    ) -> Partition {
        Partition {
            meta,
            mem,
            imms: Vec::new(),
            wal,
            index,
            vlog,
            tables: Default::default(),
            unlogged: Vec::new(),
            inherited_charge: Default::default(),
        }
    }

    /// Lock the table-handle cache.
    pub fn tables_guard(&self) -> parking_lot::MutexGuard<'_, HashMap<u64, Arc<Table>>> {
        self.tables.lock()
    }

    /// Drop a table handle (file about to be deleted).
    pub fn evict_table(&self, number: u64) {
        if let Some(t) = self.tables.lock().remove(&number) {
            t.evict_from_cache();
        }
    }

    /// UnsortedStore tables newest-first (reverse flush order).
    pub fn unsorted_newest_first(&self) -> impl Iterator<Item = &TableMeta> {
        self.meta.unsorted.iter().rev()
    }

    /// The SortedStore table that may contain `user_key`, found by binary
    /// search over the in-memory boundary keys (paper: a lookup touches at
    /// most one SSTable because the run is fully sorted).
    pub fn sorted_table_for(&self, user_key: &[u8]) -> Option<&TableMeta> {
        let idx = self
            .meta
            .sorted
            .partition_point(|t| extract_user_key(&t.largest) < user_key);
        let t = self.meta.sorted.get(idx)?;
        (extract_user_key(&t.smallest) <= user_key).then_some(t)
    }

    /// Bytes in the UnsortedStore.
    pub fn unsorted_bytes(&self) -> u64 {
        self.meta.unsorted.iter().map(|t| t.size).sum()
    }

    /// Bytes in the SortedStore (keys + pointers/inline values).
    pub fn sorted_bytes(&self) -> u64 {
        self.meta.sorted.iter().map(|t| t.size).sum()
    }

    /// Approximate logical partition size used for the split trigger:
    /// tiers plus live separated values.
    pub fn logical_size(&self) -> u64 {
        self.unsorted_bytes() + self.sorted_bytes() + self.meta.live_value_bytes
    }

    /// Backpressure inputs for this partition: `(sealed memtables
    /// awaiting flush, UnsortedStore table count)` — the two debt
    /// dimensions [`crate::maintenance::stall_level`] brakes against.
    pub fn stall_debt(&self) -> (usize, usize) {
        (self.imms.len(), self.meta.unsorted.len())
    }
}

/// Build the standard table options for UniKV tables (internal-key order,
/// optional shared block cache; **no Bloom filters** — the paper removes
/// them, the hash index and sorted-run boundary search replace them).
pub fn table_options(cache: Option<Arc<BlockCache>>) -> TableOptions {
    table_options_with_io(cache, None)
}

/// [`table_options`] plus registry-backed table I/O counters (block
/// reads, cache hit/miss) — the database passes its metrics bundle here.
pub fn table_options_with_io(
    cache: Option<Arc<BlockCache>>,
    io: Option<unikv_sstable::TableIoMetrics>,
) -> TableOptions {
    TableOptions {
        cmp: compare_internal_keys,
        cache,
        io,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use unikv_common::ikey::{make_internal_key, ValueType};
    use unikv_env::mem::MemEnv;
    use unikv_env::Env;
    use unikv_sstable::{TableBuilder, TableBuilderOptions};

    fn ik(k: &[u8], seq: u64) -> Vec<u8> {
        make_internal_key(k, seq, ValueType::Value)
    }

    fn build_meta(env: &Arc<MemEnv>, path: &Path, lo: &[u8], hi: &[u8], number: u64) -> TableMeta {
        let mut b = TableBuilder::new(
            env.new_writable(path).unwrap(),
            TableBuilderOptions::default(),
        );
        b.add(&ik(lo, 1), b"x").unwrap();
        if hi != lo {
            b.add(&ik(hi, 1), b"y").unwrap();
        }
        let props = b.finish().unwrap();
        // Sanity: table reopens with the shared UniKV options.
        Table::open(
            env.new_random_access(path).unwrap(),
            props.file_size,
            table_options(None),
        )
        .unwrap();
        TableMeta {
            number,
            size: props.file_size,
            smallest: props.smallest,
            largest: props.largest,
        }
    }

    fn partition_with_sorted(metas: Vec<TableMeta>) -> crate::meta::PartitionMeta {
        crate::meta::PartitionMeta {
            id: 0,
            sorted: metas,
            ..Default::default()
        }
    }

    #[test]
    fn sorted_table_for_routes_by_boundary_keys() {
        let env = MemEnv::shared();
        let t1 = build_meta(&env, Path::new("/1.sst"), b"b", b"f", 1);
        let t2 = build_meta(&env, Path::new("/2.sst"), b"k", b"p", 2);
        let meta = partition_with_sorted(vec![t1, t2]);
        let p = test_partition(meta);
        assert_eq!(p.sorted_table_for(b"b").map(|t| t.number), Some(1));
        assert_eq!(p.sorted_table_for(b"d").map(|t| t.number), Some(1));
        assert_eq!(p.sorted_table_for(b"f").map(|t| t.number), Some(1));
        // Gap between runs: no table can contain "h".
        assert_eq!(p.sorted_table_for(b"h").map(|t| t.number), None);
        assert_eq!(p.sorted_table_for(b"m").map(|t| t.number), Some(2));
        assert_eq!(p.sorted_table_for(b"a"), None);
        assert_eq!(p.sorted_table_for(b"z"), None);
    }

    #[test]
    fn size_accounting_sums_tiers() {
        let env = MemEnv::shared();
        let t = build_meta(&env, Path::new("/t.sst"), b"a", b"b", 1);
        let size = t.size;
        let mut meta = partition_with_sorted(vec![t]);
        meta.unsorted.push(TableMeta {
            number: 2,
            size: 100,
            smallest: ik(b"a", 1),
            largest: ik(b"z", 1),
        });
        meta.live_value_bytes = 555;
        let p = test_partition(meta);
        assert_eq!(p.unsorted_bytes(), 100);
        assert_eq!(p.sorted_bytes(), size);
        assert_eq!(p.logical_size(), 100 + size + 555);
        assert_eq!(p.unsorted_newest_first().next().map(|t| t.number), Some(2));
    }

    fn test_partition(meta: crate::meta::PartitionMeta) -> Partition {
        let env = MemEnv::shared();
        Partition::new(
            meta,
            Arc::new(MemTable::new()),
            LogWriter::new(env.new_writable(Path::new("/wal")).unwrap()),
            TwoLevelHashIndex::new(16, 2),
            Arc::new(parking_lot::Mutex::new(
                ValueLog::open(env, "/vlog", 0, 1 << 20).unwrap(),
            )),
        )
    }
}
