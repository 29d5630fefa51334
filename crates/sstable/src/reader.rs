//! SSTable reader: footer → index block → data blocks, with block-cache
//! integration and a two-level iterator.

use crate::block::{Block, BlockIterator};
use crate::cache::BlockCache;
use crate::filter::BloomFilterPolicy;
use crate::format::{read_block_payload, BlockHandle, Footer, FOOTER_SIZE};
use crate::KeyCmp;
use std::sync::Arc;
use unikv_common::metrics::Counter;
use unikv_common::perf::{self, PerfStage};
use unikv_common::{Error, Result};
use unikv_env::RandomAccessFile;

/// Registry-backed I/O counters shared by every table opened with the
/// same [`TableOptions`] (typically one bundle per database).
#[derive(Clone)]
pub struct TableIoMetrics {
    /// Data blocks read from the file (cache misses + uncached reads).
    pub block_reads: Counter,
    /// Bytes of data-block payload read from the file.
    pub block_read_bytes: Counter,
    /// Data-block lookups answered by the block cache.
    pub cache_hits: Counter,
    /// Data-block lookups that missed the block cache.
    pub cache_misses: Counter,
    /// The part of `block_reads` taken by table iterators that do not
    /// fill the cache: merges, GC, splits, compactions and the hash-index
    /// rebuild at open.
    pub maint_block_reads: Counter,
    /// The part of `block_read_bytes` taken by maintenance.
    pub maint_block_read_bytes: Counter,
}

impl TableIoMetrics {
    /// Register the table I/O families in `registry`.
    pub fn new(registry: &unikv_common::metrics::MetricsRegistry) -> TableIoMetrics {
        TableIoMetrics {
            block_reads: registry.counter("sst_block_reads"),
            block_read_bytes: registry.counter("sst_block_read_bytes"),
            cache_hits: registry.counter("sst_cache_hits"),
            cache_misses: registry.counter("sst_cache_misses"),
            maint_block_reads: registry.counter("sst_maint_block_reads"),
            maint_block_read_bytes: registry.counter("sst_maint_block_read_bytes"),
        }
    }
}

/// Options for opening a table.
#[derive(Clone)]
pub struct TableOptions {
    /// Key ordering the table was built with.
    pub cmp: KeyCmp,
    /// Shared block cache; `None` reads blocks from the file every time.
    pub cache: Option<Arc<BlockCache>>,
    /// Optional per-database I/O counters (cache hit/miss, block reads).
    pub io: Option<TableIoMetrics>,
}

impl TableOptions {
    /// Options for a table of raw byte keys without caching.
    pub fn raw_uncached() -> Self {
        TableOptions {
            cmp: crate::raw_cmp,
            cache: None,
            io: None,
        }
    }
}

/// An open, immutable SSTable.
pub struct Table {
    file: Arc<dyn RandomAccessFile>,
    opts: TableOptions,
    index: Block,
    filter: Option<Vec<u8>>,
    cache_id: u64,
}

impl Table {
    /// Open a table of `size` bytes from `file`.
    pub fn open(
        file: Arc<dyn RandomAccessFile>,
        size: u64,
        opts: TableOptions,
    ) -> Result<Arc<Table>> {
        if (size as usize) < FOOTER_SIZE {
            return Err(Error::corruption("table file too small for footer"));
        }
        let footer_bytes = file.read_at(size - FOOTER_SIZE as u64, FOOTER_SIZE)?;
        let footer = Footer::decode(&footer_bytes)?;
        let index = Block::new(read_block_payload(file.as_ref(), &footer.index_handle)?)?;
        let filter = if footer.filter_handle.size > 0 {
            Some(read_block_payload(file.as_ref(), &footer.filter_handle)?)
        } else {
            None
        };
        let cache_id = opts.cache.as_ref().map(|c| c.new_id()).unwrap_or(0);
        Ok(Arc::new(Table {
            file,
            opts,
            index,
            filter,
            cache_id,
        }))
    }

    /// True if the table's Bloom filter admits `filter_key` (always true
    /// when the table has no filter — UniKV mode).
    pub fn may_contain(&self, filter_key: &[u8]) -> bool {
        match &self.filter {
            Some(f) => BloomFilterPolicy::key_may_match(filter_key, f),
            None => true,
        }
    }

    /// True if a Bloom filter block is present.
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Read the data block at `handle`, from the cache when it holds
    /// it. With `fill_cache: false` (maintenance reads) a hit leaves the
    /// block's segment and recency as they were, and a miss is read
    /// without inserting it and is also counted as a maintenance read.
    fn read_data_block(&self, handle: &BlockHandle, fill_cache: bool) -> Result<Arc<Block>> {
        let cache = self.opts.cache.as_ref();
        let cached = cache.and_then(|c| {
            if fill_cache {
                c.get(self.cache_id, handle.offset)
            } else {
                c.peek(self.cache_id, handle.offset)
            }
        });
        if let Some(block) = cached {
            if let Some(io) = &self.opts.io {
                io.cache_hits.inc();
            }
            perf::count_cache_hit();
            perf::mark(PerfStage::BlockRead);
            return Ok(block);
        }
        if let Some(io) = &self.opts.io {
            if cache.is_some() {
                io.cache_misses.inc();
            }
            io.block_reads.inc();
            io.block_read_bytes.add(handle.size);
            if !fill_cache {
                io.maint_block_reads.inc();
                io.maint_block_read_bytes.add(handle.size);
            }
        }
        perf::count_cache_miss();
        let block = Arc::new(Block::new(read_block_payload(self.file.as_ref(), handle)?)?);
        if let Some(cache) = cache.filter(|_| fill_cache) {
            cache.insert(self.cache_id, handle.offset, block.clone());
        }
        perf::mark(PerfStage::BlockRead);
        Ok(block)
    }

    /// Find the first entry with key `>= key`. Returns `(key, value)` or
    /// `None` if every entry is smaller.
    ///
    /// `filter_key`, when provided, is checked against the Bloom filter
    /// first; a negative answer short-circuits without any I/O.
    pub fn get(&self, key: &[u8], filter_key: Option<&[u8]>) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        if let Some(fk) = filter_key {
            if !self.may_contain(fk) {
                return Ok(None);
            }
        }
        let mut index_iter = self.index.iter(self.opts.cmp);
        index_iter.seek(key)?;
        if !index_iter.valid() {
            return Ok(None);
        }
        let (handle, _) = BlockHandle::decode_from(index_iter.value())?;
        let block = self.read_data_block(&handle, true)?;
        let mut it = block.iter(self.opts.cmp);
        it.seek(key)?;
        // Index keys are block-last keys, so the block the index selects
        // holds an entry `>= key`; if it does not, the index disagrees with
        // its block and the table is damaged.
        if !it.valid() {
            return Err(Error::corruption(
                "index key sorts after every entry of its data block",
            ));
        }
        Ok(Some((it.key().to_vec(), it.value().to_vec())))
    }

    /// Iterator over the whole table. Scans and iterators pass
    /// `fill_cache: true`; maintenance (merges, GC, splits, compactions)
    /// passes `false`, so one pass over the tables neither evicts nor
    /// promotes the blocks that foreground reads keep hitting.
    pub fn iter(self: &Arc<Self>, fill_cache: bool) -> TableIterator {
        TableIterator {
            table: self.clone(),
            index_iter: self.index.iter(self.opts.cmp),
            data_iter: None,
            fill_cache,
        }
    }

    /// Put data blocks this table's builder wrote — `(offset, payload)`
    /// pairs from [`crate::builder::TableProperties::data_blocks`] — on the
    /// cache's probation segment, so the first reads of a just-flushed
    /// table do not go to the file. A no-op without a cache.
    pub fn admit(&self, blocks: Vec<(u64, Vec<u8>)>) -> Result<()> {
        if let Some(cache) = &self.opts.cache {
            for (offset, payload) in blocks {
                cache.insert(self.cache_id, offset, Arc::new(Block::new(payload)?));
            }
        }
        Ok(())
    }

    /// Evict this table's blocks from the shared cache (call on delete).
    /// Walks the index block and removes exactly the table's keys, so
    /// the cost is the table's block count, not the cache's size.
    pub fn evict_from_cache(&self) {
        let Some(cache) = &self.opts.cache else {
            return;
        };
        let mut it = self.index.iter(self.opts.cmp);
        let mut step = it.seek_to_first();
        while step.is_ok() && it.valid() {
            if let Ok((handle, _)) = BlockHandle::decode_from(it.value()) {
                cache.remove(self.cache_id, handle.offset);
            }
            step = it.next();
        }
    }
}

/// Two-level iterator: index block positions select data blocks.
pub struct TableIterator {
    table: Arc<Table>,
    index_iter: BlockIterator,
    data_iter: Option<BlockIterator>,
    fill_cache: bool,
}

impl TableIterator {
    /// True if positioned on an entry.
    #[inline]
    pub fn valid(&self) -> bool {
        self.data_iter.as_ref().is_some_and(|d| d.valid())
    }

    /// Current key. Panics if not valid.
    #[inline]
    pub fn key(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid iterator").key()
    }

    /// Current value. Panics if not valid.
    #[inline]
    pub fn value(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid iterator").value()
    }

    fn load_data_block(&mut self) -> Result<()> {
        if !self.index_iter.valid() {
            self.data_iter = None;
            return Ok(());
        }
        let (handle, _) = BlockHandle::decode_from(self.index_iter.value())?;
        let block = self.table.read_data_block(&handle, self.fill_cache)?;
        match &mut self.data_iter {
            Some(d) => d.reset(&block),
            None => self.data_iter = Some(block.iter(self.table.opts.cmp)),
        }
        Ok(())
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.index_iter.seek_to_first()?;
        self.load_data_block()?;
        if let Some(d) = &mut self.data_iter {
            d.seek_to_first()?;
        }
        self.skip_empty_blocks_forward()
    }

    /// Position at the first entry with key `>= target`.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        self.index_iter.seek(target)?;
        self.load_data_block()?;
        if let Some(d) = &mut self.data_iter {
            d.seek(target)?;
        }
        self.skip_empty_blocks_forward()
    }

    /// Advance to the next entry.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<()> {
        let d = self.data_iter.as_mut().expect("valid iterator");
        d.next()?;
        self.skip_empty_blocks_forward()
    }

    fn skip_empty_blocks_forward(&mut self) -> Result<()> {
        while self.data_iter.is_some() && !self.valid() {
            self.index_iter.next()?;
            self.load_data_block()?;
            if let Some(d) = &mut self.data_iter {
                d.seek_to_first()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{TableBuilder, TableBuilderOptions};
    use std::path::Path;
    use unikv_env::mem::MemEnv;
    use unikv_env::Env;

    fn build_table(
        env: &MemEnv,
        path: &Path,
        entries: &[(Vec<u8>, Vec<u8>)],
        opts: TableBuilderOptions,
    ) -> (u64, Arc<Table>) {
        let mut b = TableBuilder::new(env.new_writable(path).unwrap(), opts);
        for (k, v) in entries {
            b.add(k, v).unwrap();
        }
        let props = b.finish();
        let props = props.unwrap();
        assert_eq!(props.num_entries, entries.len() as u64);
        let file = env.new_random_access(path).unwrap();
        let size = env.file_size(path).unwrap();
        assert_eq!(size, props.file_size);
        let table = Table::open(file, size, TableOptions::raw_uncached()).unwrap();
        (size, table)
    }

    fn sample_entries(n: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("key{i:06}").into_bytes(),
                    format!("value-{i}").repeat(3).into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn build_read_roundtrip() {
        let env = MemEnv::new();
        let entries = sample_entries(1000);
        let (_, table) = build_table(
            &env,
            Path::new("/t.sst"),
            &entries,
            TableBuilderOptions::default(),
        );
        // Point lookups.
        for (k, v) in &entries {
            let got = table.get(k, None).unwrap().unwrap();
            assert_eq!(&got.0, k);
            assert_eq!(&got.1, v);
        }
        // Missing key between entries: lower bound is the next entry.
        let got = table.get(b"key000500x", None).unwrap().unwrap();
        assert_eq!(got.0, b"key000501");
        // Past the end.
        assert!(table.get(b"zzz", None).unwrap().is_none());
    }

    #[test]
    fn full_iteration_matches_input() {
        let env = MemEnv::new();
        let entries = sample_entries(500);
        let (_, table) = build_table(
            &env,
            Path::new("/t.sst"),
            &entries,
            TableBuilderOptions {
                block_size: 256, // many small blocks
                ..Default::default()
            },
        );
        let mut it = table.iter(true);
        it.seek_to_first().unwrap();
        for (k, v) in &entries {
            assert!(it.valid());
            assert_eq!(it.key(), &k[..]);
            assert_eq!(it.value(), &v[..]);
            it.next().unwrap();
        }
        assert!(!it.valid());
    }

    #[test]
    fn iterator_seek() {
        let env = MemEnv::new();
        let entries = sample_entries(300);
        let (_, table) = build_table(
            &env,
            Path::new("/t.sst"),
            &entries,
            TableBuilderOptions {
                block_size: 128,
                ..Default::default()
            },
        );
        let mut it = table.iter(true);
        it.seek(b"key000123").unwrap();
        assert_eq!(it.key(), b"key000123");
        it.seek(b"key0001230").unwrap();
        assert_eq!(it.key(), b"key000124");
        it.seek(b"a").unwrap();
        assert_eq!(it.key(), b"key000000");
        it.seek(b"zzz").unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn bloom_filter_short_circuits() {
        let env = MemEnv::new();
        let entries = sample_entries(100);
        let mut b = TableBuilder::new(
            env.new_writable(Path::new("/t.sst")).unwrap(),
            TableBuilderOptions {
                bloom_bits_per_key: Some(10),
                ..Default::default()
            },
        );
        for (k, v) in &entries {
            b.add(k, v).unwrap();
        }
        b.finish().unwrap();
        let file = env.new_random_access(Path::new("/t.sst")).unwrap();
        let size = env.file_size(Path::new("/t.sst")).unwrap();
        let table = Table::open(file, size, TableOptions::raw_uncached()).unwrap();
        assert!(table.has_filter());
        for (k, _) in &entries {
            assert!(table.may_contain(k));
            assert!(table.get(k, Some(k)).unwrap().is_some());
        }
        // A clearly absent key should usually be rejected by the filter.
        let rejected = (0..1000)
            .filter(|i| !table.may_contain(format!("absent{i}").as_bytes()))
            .count();
        assert!(rejected > 900, "bloom rejected only {rejected}/1000");
    }

    #[test]
    fn cached_reads_hit_cache() {
        let env = MemEnv::new();
        let entries = sample_entries(200);
        let mut b = TableBuilder::new(
            env.new_writable(Path::new("/t.sst")).unwrap(),
            TableBuilderOptions::default(),
        );
        for (k, v) in &entries {
            b.add(k, v).unwrap();
        }
        b.finish().unwrap();
        let cache = BlockCache::new(1 << 20);
        let io = TableIoMetrics::new(&unikv_common::metrics::MetricsRegistry::new(true, 0));
        let file = env.new_random_access(Path::new("/t.sst")).unwrap();
        let size = env.file_size(Path::new("/t.sst")).unwrap();
        let table = Table::open(
            file,
            size,
            TableOptions {
                cmp: crate::raw_cmp,
                cache: Some(cache.clone()),
                io: Some(io.clone()),
            },
        )
        .unwrap();
        table.get(b"key000000", None).unwrap();
        let misses_after_first = io.cache_misses.value();
        assert_eq!((misses_after_first, io.cache_hits.value()), (1, 0));
        table.get(b"key000000", None).unwrap();
        assert_eq!(io.cache_misses.value(), misses_after_first);
        assert_eq!(io.cache_hits.value(), 1);
        assert_eq!(io.block_reads.value(), 1);
        table.evict_from_cache();
        assert_eq!(cache.bytes(), 0);
    }

    /// Index keys are block-last keys, so `get` finds its answer in the
    /// one block the index selects: every present key, and every absent
    /// key that sorts into the gap after a block's last entry, costs
    /// exactly one block read on an uncached table.
    #[test]
    fn get_reads_exactly_one_block() {
        let env = MemEnv::new();
        let entries = sample_entries(300);
        let path = Path::new("/t.sst");
        let mut b = TableBuilder::new(
            env.new_writable(path).unwrap(),
            TableBuilderOptions {
                block_size: 256,
                ..Default::default()
            },
        );
        b.keep_data_blocks();
        for (k, v) in &entries {
            b.add(k, v).unwrap();
        }
        let props = b.finish().unwrap();
        assert!(
            props.data_blocks.len() > 20,
            "the table must span many blocks"
        );
        let io = test_io();
        let opts = TableOptions {
            cmp: crate::raw_cmp,
            cache: None,
            io: Some(io.clone()),
        };
        let file = env.new_random_access(path).unwrap();
        let table = Table::open(file, props.file_size, opts).unwrap();
        for (i, (k, v)) in entries.iter().enumerate() {
            let reads = io.block_reads.value();
            assert_eq!(table.get(k, None).unwrap(), Some((k.clone(), v.clone())));
            assert_eq!(io.block_reads.value(), reads + 1, "get of {i}");
            // Sorts between this key and the next one.
            let mut gap = k.clone();
            gap.push(b'x');
            let got = table.get(&gap, None).unwrap();
            assert_eq!(
                got.map(|(k, _)| k),
                entries.get(i + 1).map(|(k, _)| k.clone())
            );
            let expect = if i + 1 < entries.len() { 2 } else { 1 };
            assert_eq!(io.block_reads.value(), reads + expect, "gap after {i}");
        }
    }

    /// Build `entries` into `path` in small blocks and open it on `cache`.
    fn cached_table(
        env: &MemEnv,
        path: &Path,
        entries: &[(Vec<u8>, Vec<u8>)],
        cache: &Arc<BlockCache>,
        io: &TableIoMetrics,
        keep_blocks: bool,
    ) -> (Arc<Table>, Vec<(u64, Vec<u8>)>) {
        let mut b = TableBuilder::new(
            env.new_writable(path).unwrap(),
            TableBuilderOptions {
                block_size: 256,
                ..Default::default()
            },
        );
        if keep_blocks {
            b.keep_data_blocks();
        }
        for (k, v) in entries {
            b.add(k, v).unwrap();
        }
        let props = b.finish().unwrap();
        let opts = TableOptions {
            cmp: crate::raw_cmp,
            cache: Some(cache.clone()),
            io: Some(io.clone()),
        };
        let file = env.new_random_access(path).unwrap();
        (
            Table::open(file, props.file_size, opts).unwrap(),
            props.data_blocks,
        )
    }

    fn test_io() -> TableIoMetrics {
        TableIoMetrics::new(&unikv_common::metrics::MetricsRegistry::new(true, 0))
    }

    #[test]
    fn evict_from_cache_removes_only_own_blocks() {
        let env = MemEnv::new();
        let cache = BlockCache::new(1 << 20);
        let io = test_io();
        let entries = sample_entries(300);
        let (a, _) = cached_table(&env, Path::new("/a.sst"), &entries, &cache, &io, false);
        let (b, _) = cached_table(&env, Path::new("/b.sst"), &entries, &cache, &io, false);
        for table in [&a, &b] {
            let mut it = table.iter(true);
            it.seek_to_first().unwrap();
            while it.valid() {
                it.next().unwrap();
            }
        }
        let reads = io.block_reads.value();
        assert!(reads > 20, "{reads} blocks: the table must span many");
        assert_eq!(reads % 2, 0);
        let b_bytes = cache.bytes() / 2;
        a.evict_from_cache();
        assert_eq!(cache.bytes(), b_bytes, "exactly a's blocks are gone");
        // Every block of `b` is still cached: a full pass reads nothing.
        let mut it = b.iter(true);
        it.seek_to_first().unwrap();
        while it.valid() {
            it.next().unwrap();
        }
        assert_eq!(io.block_reads.value(), reads);
        b.evict_from_cache();
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn maintenance_reads_do_not_fill_the_cache() {
        let env = MemEnv::new();
        let cache = BlockCache::new(1 << 20);
        let io = test_io();
        let (table, _) = cached_table(
            &env,
            Path::new("/t.sst"),
            &sample_entries(300),
            &cache,
            &io,
            false,
        );
        table.get(b"key000000", None).unwrap();
        let cached = cache.bytes();
        let mut it = table.iter(false);
        it.seek_to_first().unwrap();
        let mut n = 0;
        while it.valid() {
            n += 1;
            it.next().unwrap();
        }
        assert_eq!(n, 300);
        assert_eq!(cache.bytes(), cached, "a maintenance pass inserted blocks");
        // The one cached block was a hit; every other block a maintenance
        // read, counted in both the total and the maintenance counters.
        assert_eq!(io.cache_hits.value(), 1);
        assert_eq!(io.maint_block_reads.value(), io.block_reads.value() - 1);
        assert_eq!(
            io.maint_block_read_bytes.value() + cached as u64,
            io.block_read_bytes.value()
        );
    }

    #[test]
    fn admitted_blocks_are_the_blocks_on_disk() {
        let env = MemEnv::new();
        let cache = BlockCache::new(1 << 20);
        let io = test_io();
        let entries = sample_entries(300);
        let (table, blocks) = cached_table(&env, Path::new("/t.sst"), &entries, &cache, &io, true);
        assert!(blocks.len() > 10);
        let on_disk = env.read_to_vec(Path::new("/t.sst")).unwrap();
        for (offset, payload) in &blocks {
            assert_eq!(&on_disk[*offset as usize..][..payload.len()], &payload[..]);
        }
        table.admit(blocks).unwrap();
        let mut it = table.iter(true);
        it.seek_to_first().unwrap();
        for (k, v) in &entries {
            assert_eq!((it.key(), it.value()), (&k[..], &v[..]));
            it.next().unwrap();
        }
        assert!(!it.valid());
        assert_eq!(io.block_reads.value(), 0, "every block was admitted");
        table.evict_from_cache();
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn duplicate_key_rejected() {
        let env = MemEnv::new();
        let mut b = TableBuilder::new(
            env.new_writable(Path::new("/t.sst")).unwrap(),
            TableBuilderOptions::default(),
        );
        b.add(b"k", b"v").unwrap();
        assert!(b.add(b"k", b"v2").is_err());
    }

    #[test]
    fn corrupt_block_detected() {
        let env = MemEnv::new();
        let entries = sample_entries(50);
        build_table(
            &env,
            Path::new("/t.sst"),
            &entries,
            TableBuilderOptions::default(),
        );
        let mut data = env.read_to_vec(Path::new("/t.sst")).unwrap();
        data[10] ^= 0xff; // corrupt a data-block byte
        let mut w = env.new_writable(Path::new("/t.sst")).unwrap();
        w.append(&data).unwrap();
        drop(w);
        let file = env.new_random_access(Path::new("/t.sst")).unwrap();
        let size = env.file_size(Path::new("/t.sst")).unwrap();
        let table = Table::open(file, size, TableOptions::raw_uncached()).unwrap();
        let err = table.get(b"key000000", None).unwrap_err();
        assert!(err.is_corruption());
    }

    #[test]
    fn empty_table() {
        let env = MemEnv::new();
        let (_, table) = build_table(
            &env,
            Path::new("/t.sst"),
            &[],
            TableBuilderOptions::default(),
        );
        assert!(table.get(b"x", None).unwrap().is_none());
        let mut it = table.iter(true);
        it.seek_to_first().unwrap();
        assert!(!it.valid());
    }
}
