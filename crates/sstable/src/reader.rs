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
}

impl TableIoMetrics {
    /// Register the table I/O families in `registry`.
    pub fn new(registry: &unikv_common::metrics::MetricsRegistry) -> TableIoMetrics {
        TableIoMetrics {
            block_reads: registry.counter("sst_block_reads"),
            block_read_bytes: registry.counter("sst_block_read_bytes"),
            cache_hits: registry.counter("sst_cache_hits"),
            cache_misses: registry.counter("sst_cache_misses"),
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

    fn read_data_block(&self, handle: &BlockHandle) -> Result<Arc<Block>> {
        let block = if let Some(cache) = &self.opts.cache {
            if let Some(block) = cache.get(self.cache_id, handle.offset) {
                if let Some(io) = &self.opts.io {
                    io.cache_hits.inc();
                }
                perf::count_cache_hit();
                perf::mark(PerfStage::BlockRead);
                return Ok(block);
            }
            if let Some(io) = &self.opts.io {
                io.cache_misses.inc();
                io.block_reads.inc();
                io.block_read_bytes.add(handle.size);
            }
            perf::count_cache_miss();
            let block = Arc::new(Block::new(read_block_payload(self.file.as_ref(), handle)?)?);
            cache.insert(self.cache_id, handle.offset, block.clone());
            block
        } else {
            if let Some(io) = &self.opts.io {
                io.block_reads.inc();
                io.block_read_bytes.add(handle.size);
            }
            perf::count_cache_miss();
            Arc::new(Block::new(read_block_payload(self.file.as_ref(), handle)?)?)
        };
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
        let block = self.read_data_block(&handle)?;
        let mut it = block.iter(self.opts.cmp);
        it.seek(key)?;
        if it.valid() {
            return Ok(Some((it.key().to_vec(), it.value().to_vec())));
        }
        // Key sorts into the gap after this block's last entry; the next
        // block's first entry is the answer (possible because index keys
        // are block-last keys, not separators).
        index_iter.next()?;
        if !index_iter.valid() {
            return Ok(None);
        }
        let (handle, _) = BlockHandle::decode_from(index_iter.value())?;
        let block = self.read_data_block(&handle)?;
        let mut it = block.iter(self.opts.cmp);
        it.seek_to_first()?;
        if it.valid() {
            Ok(Some((it.key().to_vec(), it.value().to_vec())))
        } else {
            Ok(None)
        }
    }

    /// Iterator over the whole table.
    pub fn iter(self: &Arc<Self>) -> TableIterator {
        TableIterator {
            table: self.clone(),
            index_iter: self.index.iter(self.opts.cmp),
            data_iter: None,
        }
    }

    /// Evict this table's blocks from the shared cache (call on delete).
    pub fn evict_from_cache(&self) {
        if let Some(cache) = &self.opts.cache {
            cache.evict_table(self.cache_id);
        }
    }
}

/// Two-level iterator: index block positions select data blocks.
pub struct TableIterator {
    table: Arc<Table>,
    index_iter: BlockIterator,
    data_iter: Option<BlockIterator>,
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
        let block = self.table.read_data_block(&handle)?;
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
        let mut it = table.iter();
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
        let mut it = table.iter();
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
        let mut it = table.iter();
        it.seek_to_first().unwrap();
        assert!(!it.valid());
    }
}
