//! SSTable reader: footer → index block → data blocks, with block-cache
//! integration and a two-level iterator.

use crate::block::{decode_entry, Block, BlockIterator};
use crate::builder::FilterKeyFn;
use crate::cache::BlockCache;
use crate::directory::{fingerprint, key_hash, RecordDirectory, RecordEntry};
use crate::filter::BloomFilterPolicy;
use crate::format::{read_block_payload, BlockHandle, Footer, DIRECTORY_FOOTER_SIZE, FOOTER_SIZE};
use crate::residency::KeptBlocks;
use crate::KeyCmp;
use std::cmp::Ordering;
use std::sync::Arc;
use unikv_common::metrics::Counter;
use unikv_common::perf::{self, PerfStage};
use unikv_common::{crc32c, Error, Result};
use unikv_env::RandomAccessFile;

/// Registry-backed I/O counters shared by every table opened with the
/// same [`TableOptions`] (typically one bundle per database).
#[derive(Clone)]
pub struct TableIoMetrics {
    /// Data blocks read from the file (cache misses + uncached reads),
    /// plus single records read through a record directory.
    pub block_reads: Counter,
    /// Bytes of data-block payload (and of single records) read from the
    /// file.
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
    /// The part of `block_reads` that read one record through a record
    /// directory; such a read is not a cache lookup.
    pub record_reads: Counter,
    /// The part of `block_read_bytes` taken by record reads.
    pub record_read_bytes: Counter,
    /// Blocks a rewrite kept and put in the cache for its output tables
    /// (see [`crate::residency`]); not block reads.
    pub cache_admits: Counter,
    /// Payload bytes of `cache_admits`.
    pub cache_admit_bytes: Counter,
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
            record_reads: registry.counter("sst_record_reads"),
            record_read_bytes: registry.counter("sst_record_read_bytes"),
            cache_admits: registry.counter("sst_cache_admits"),
            cache_admit_bytes: registry.counter("sst_cache_admit_bytes"),
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
    directory: Option<RecordDirectory>,
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
        let tail = (size as usize).min(DIRECTORY_FOOTER_SIZE);
        let footer_bytes = file.read_at(size - tail as u64, tail)?;
        let footer = Footer::decode(&footer_bytes)?;
        let index = Block::new(read_block_payload(file.as_ref(), &footer.index_handle)?)?;
        let filter = if footer.filter_handle.size > 0 {
            Some(read_block_payload(file.as_ref(), &footer.filter_handle)?)
        } else {
            None
        };
        let directory = match &footer.directory_handle {
            Some(h) => {
                let dir = RecordDirectory::parse(read_block_payload(file.as_ref(), h)?)?;
                if dir.num_blocks() != index.restart_entries() {
                    return Err(Error::corruption(format!(
                        "record directory lists {} blocks, the index {}",
                        dir.num_blocks(),
                        index.restart_entries()
                    )));
                }
                Some(dir)
            }
            None => None,
        };
        let cache_id = opts.cache.as_ref().map(|c| c.new_id()).unwrap_or(0);
        Ok(Arc::new(Table {
            file,
            opts,
            index,
            filter,
            directory,
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

    /// True if a record directory is present.
    pub fn has_record_directory(&self) -> bool {
        self.directory.is_some()
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
    /// `filter_key`, when provided, is the filter key of the entry the
    /// caller looks for, and the filters may answer `None` (or another
    /// entry) when the first entry `>= key` does not have it; callers
    /// compare keys. The Bloom filter is checked first: a negative answer
    /// short-circuits without any I/O. On a table with a record directory
    /// the lookup then reads single records instead of the block (one
    /// record for a key the table holds; see `get_record`).
    pub fn get(&self, key: &[u8], filter_key: Option<&[u8]>) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        if let Some(fk) = filter_key {
            if !self.may_contain(fk) {
                return Ok(None);
            }
            if let Some(dir) = &self.directory {
                return self.get_record(dir, key, fk);
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

    /// The record-directory lookup behind [`Table::get`]: the index
    /// (pinned in memory) selects the block holding the first entry
    /// `>= key`, and the directory lists that block's records. Only the
    /// records whose fingerprint matches `filter_key`'s are read, each
    /// with one `read_at` of exactly its bytes, checked against its CRC
    /// and decoded against the previous block's last key, the index entry
    /// before the selected one. The first one `>= key` is the answer, so
    /// a key the block holds costs one record read and an absent key
    /// usually none. The block cache is neither read nor filled.
    fn get_record(
        &self,
        dir: &RecordDirectory,
        key: &[u8],
        filter_key: &[u8],
    ) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let i = self.index.restart_lower_bound(key, self.opts.cmp)?;
        if i == self.index.restart_entries() {
            return Ok(None);
        }
        let (handle, anchor) = self.directory_block(i)?;
        let (salt, records) = dir.block(i);
        let fp = fingerprint(key_hash(filter_key), salt);
        let block_end = handle.offset + handle.size;
        let mut offset = handle.offset;
        let mut record_key = Vec::new();
        for r in records {
            if offset + u64::from(r.len) > block_end {
                return Err(Error::corruption("record directory overruns its block"));
            }
            if r.fp == fp {
                let record = self.read_record(offset, r)?;
                let value = decode_entry(&record, anchor, &mut record_key)?;
                if (self.opts.cmp)(&record_key, key) != Ordering::Less {
                    return Ok(Some((record_key, value.to_vec())));
                }
            }
            offset += u64::from(r.len);
        }
        Ok(None)
    }

    /// Data block `i` of a table with a record directory: its handle, and
    /// the key its records decode against, the previous block's last key
    /// (its index entry; empty for block 0). The index block has one
    /// entry per restart point.
    fn directory_block(&self, i: usize) -> Result<(BlockHandle, &[u8])> {
        let (handle, _) = BlockHandle::decode_from(self.index.restart_entry(i)?.1)?;
        let anchor = match i {
            0 => &[][..],
            _ => self.index.restart_entry(i - 1)?.0,
        };
        Ok((handle, anchor))
    }

    /// Read one record's bytes at `offset` and check them against its
    /// directory entry. Counted as a block read (registry and per-op
    /// profile), in the record-read subset, and never as a cache lookup.
    fn read_record(&self, offset: u64, entry: RecordEntry) -> Result<Vec<u8>> {
        if let Some(io) = &self.opts.io {
            io.block_reads.inc();
            io.block_read_bytes.add(u64::from(entry.len));
            io.record_reads.inc();
            io.record_read_bytes.add(u64::from(entry.len));
        }
        perf::count_record_read();
        let record = self.file.read_at(offset, entry.len as usize)?;
        if record.len() != entry.len as usize {
            return Err(Error::corruption("truncated record read"));
        }
        if crc32c::unmask(entry.crc) != crc32c::value(&record) {
            return Err(Error::corruption("record checksum mismatch"));
        }
        perf::mark(PerfStage::BlockRead);
        Ok(record)
    }

    /// Check the record directory against the data blocks, reading every
    /// block from the file (the cache is not consulted): one entry per
    /// record, in order, with the record's length, CRC and the fingerprint
    /// of `filter_key` of its key, and every record decoding on its own
    /// against the previous block's last key. Returns `false` for a table
    /// without a directory.
    pub fn verify_record_directory(&self, filter_key: FilterKeyFn) -> Result<bool> {
        let Some(dir) = &self.directory else {
            return Ok(false);
        };
        let mut key = Vec::new();
        for i in 0..self.index.restart_entries() {
            let (handle, anchor) = self.directory_block(i)?;
            let block = Block::new(read_block_payload(self.file.as_ref(), &handle)?)?;
            let mut it = block.iter(self.opts.cmp);
            it.seek_to_first()?;
            let (salt, mut records) = dir.block(i);
            while it.valid() {
                let record = it.entry();
                let expect = RecordEntry {
                    len: record.len() as u32,
                    crc: crc32c::mask(crc32c::value(record)),
                    fp: fingerprint(key_hash(filter_key(it.key())), salt),
                };
                if records.next() != Some(expect) {
                    return Err(Error::corruption(format!(
                        "record directory disagrees with block {i}"
                    )));
                }
                decode_entry(record, anchor, &mut key)?;
                if key != it.key() {
                    return Err(Error::corruption(format!(
                        "a record of block {i} does not decode on its own"
                    )));
                }
                it.next()?;
            }
            if records.next().is_some() {
                return Err(Error::corruption(format!(
                    "record directory lists extra records for block {i}"
                )));
            }
        }
        Ok(true)
    }

    /// Put data blocks this table's builder kept for the cache on the
    /// cache's probation segment, as a read that missed would. A no-op
    /// without a cache. Counted as admissions, not as block reads.
    pub fn admit(&self, mut kept: KeptBlocks) -> Result<()> {
        let Some(cache) = &self.opts.cache else {
            return Ok(());
        };
        for (offset, payload) in std::mem::take(&mut kept.blocks) {
            let block = Arc::new(Block::new(payload)?);
            let size = block.size() as u64;
            if cache.insert(self.cache_id, offset, block) {
                if let Some(io) = &self.opts.io {
                    io.cache_admits.inc();
                    io.cache_admit_bytes.add(size);
                }
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
        let io = TableIoMetrics::new(&unikv_common::metrics::MetricsRegistry::new(true));
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
        for (k, v) in &entries {
            b.add(k, v).unwrap();
        }
        let props = b.finish().unwrap();
        let io = test_io();
        let opts = TableOptions {
            cmp: crate::raw_cmp,
            cache: None,
            io: Some(io.clone()),
        };
        let file = env.new_random_access(path).unwrap();
        let table = Table::open(file, props.file_size, opts).unwrap();
        assert!(
            table.index.restart_entries() > 20,
            "the table must span many blocks"
        );
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
    ) -> Arc<Table> {
        let mut b = TableBuilder::new(
            env.new_writable(path).unwrap(),
            TableBuilderOptions {
                block_size: 256,
                ..Default::default()
            },
        );
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
        Table::open(file, props.file_size, opts).unwrap()
    }

    fn test_io() -> TableIoMetrics {
        TableIoMetrics::new(&unikv_common::metrics::MetricsRegistry::new(true))
    }

    /// A builder that keeps its blocks keeps them byte for byte as on
    /// disk, up to the cache's capacity. Once admitted they answer gets
    /// without a block read, the admission is counted apart from block
    /// reads, and the capacity they reserved is free again.
    #[test]
    fn kept_blocks_are_the_blocks_on_disk() {
        let env = MemEnv::new();
        let entries = sample_entries(300);
        let path = Path::new("/t.sst");
        // A cache that holds the whole table, and one that holds a part.
        for (capacity, whole) in [(1 << 20, true), (8192, false)] {
            let cache = BlockCache::new(capacity);
            let io = test_io();
            let mut b = TableBuilder::new(
                env.new_writable(path).unwrap(),
                TableBuilderOptions {
                    block_size: 256,
                    ..Default::default()
                },
            );
            b.keep_blocks(cache.clone());
            for (k, v) in &entries {
                b.add(k, v).unwrap();
            }
            let props = b.finish().unwrap();
            let kept = props.kept.unwrap();
            let on_disk = env.read_to_vec(path).unwrap();
            for (offset, payload) in &kept.blocks {
                assert_eq!(&on_disk[*offset as usize..][..payload.len()], &payload[..]);
            }
            let (blocks, bytes) = (kept.blocks.len() as u64, kept.bytes);
            assert!(blocks > 0 && bytes <= capacity);
            let opts = TableOptions {
                cmp: crate::raw_cmp,
                cache: Some(cache.clone()),
                io: Some(io.clone()),
            };
            let table =
                Table::open(env.new_random_access(path).unwrap(), props.file_size, opts).unwrap();
            let data_blocks = table.index.restart_entries() as u64;
            assert_eq!(blocks == data_blocks, whole);
            table.admit(kept).unwrap();
            let (admits, admit_bytes) = (io.cache_admits.value(), io.cache_admit_bytes.value());
            if whole {
                assert_eq!(cache.bytes(), bytes);
            }
            assert_eq!((admits, admit_bytes), (blocks, bytes as u64));
            assert_eq!(io.block_reads.value(), 0, "admission read a block");
            assert!(cache.reserve(capacity), "admitted bytes stay reserved");
            cache.release(capacity);
            for (k, v) in &entries {
                assert_eq!(table.get(k, None).unwrap(), Some((k.clone(), v.clone())));
            }
            assert_eq!(io.cache_misses.value() == 0, whole);
        }
    }

    /// A block larger than its shard's share of the capacity is dropped
    /// as soon as it is inserted, so admitting it counts nothing.
    #[test]
    fn admit_counts_only_blocks_the_cache_keeps() {
        let env = MemEnv::new();
        let path = Path::new("/t.sst");
        // 16 shards of 128 B each: every 256 B block outgrows its shard.
        let cache = BlockCache::new(16 * 128);
        let io = test_io();
        let mut b = TableBuilder::new(
            env.new_writable(path).unwrap(),
            TableBuilderOptions {
                block_size: 256,
                ..Default::default()
            },
        );
        b.keep_blocks(cache.clone());
        for (k, v) in &sample_entries(300) {
            b.add(k, v).unwrap();
        }
        let props = b.finish().unwrap();
        let kept = props.kept.unwrap();
        assert!(!kept.blocks.is_empty());
        let opts = TableOptions {
            cmp: crate::raw_cmp,
            cache: Some(cache.clone()),
            io: Some(io.clone()),
        };
        let table =
            Table::open(env.new_random_access(path).unwrap(), props.file_size, opts).unwrap();
        table.admit(kept).unwrap();
        assert_eq!(cache.bytes(), 0);
        assert_eq!(io.cache_admits.value(), 0);
        assert_eq!(io.cache_admit_bytes.value(), 0);
    }

    #[test]
    fn evict_from_cache_removes_only_own_blocks() {
        let env = MemEnv::new();
        let cache = BlockCache::new(1 << 20);
        let io = test_io();
        let entries = sample_entries(300);
        let a = cached_table(&env, Path::new("/a.sst"), &entries, &cache, &io);
        let b = cached_table(&env, Path::new("/b.sst"), &entries, &cache, &io);
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
        let table = cached_table(&env, Path::new("/t.sst"), &sample_entries(300), &cache, &io);
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

    /// Build `entries` with a record directory in 1 KiB blocks, opened
    /// uncached with I/O counters.
    fn directory_table(
        env: &MemEnv,
        path: &Path,
        entries: &[(Vec<u8>, Vec<u8>)],
        io: &TableIoMetrics,
    ) -> Arc<Table> {
        let mut b = TableBuilder::new(
            env.new_writable(path).unwrap(),
            TableBuilderOptions {
                block_size: 1024,
                record_directory: true,
                ..Default::default()
            },
        );
        for (k, v) in entries {
            b.add(k, v).unwrap();
        }
        let props = b.finish().unwrap();
        let opts = TableOptions {
            cmp: crate::raw_cmp,
            cache: None,
            io: Some(io.clone()),
        };
        let table =
            Table::open(env.new_random_access(path).unwrap(), props.file_size, opts).unwrap();
        assert!(table.has_record_directory());
        table
    }

    /// Every key, in block 0 (decoded against an empty in-memory key) and
    /// past the 16-entry restart interval of a block, is read through the
    /// directory with exactly one record read of exactly its bytes; an
    /// absent key usually reads nothing. Short records put about 25
    /// entries in a block.
    #[test]
    fn directory_get_reads_one_record() {
        let env = MemEnv::new();
        let io = test_io();
        let entries = sample_entries(2000);
        let table = directory_table(&env, Path::new("/t.sst"), &entries, &io);
        assert!(table.index.restart_entries() > 20);
        let (_, first_block) = table.directory.as_ref().unwrap().block(0);
        assert!(first_block.count() > 16, "blocks must span restart points");
        for (i, (k, v)) in entries.iter().enumerate() {
            let (reads, bytes) = (io.block_reads.value(), io.block_read_bytes.value());
            assert_eq!(table.get(k, Some(k)).unwrap(), Some((k.clone(), v.clone())));
            assert_eq!(io.block_reads.value(), reads + 1, "get of {i}");
            assert_eq!(io.record_reads.value(), io.block_reads.value());
            // varint32 shared, non_shared and value length: one byte each.
            let most = 3 + k.len() + v.len();
            assert!(
                io.block_read_bytes.value() - bytes <= most as u64,
                "get of {i}"
            );
        }
        assert_eq!(io.record_read_bytes.value(), io.block_read_bytes.value());
        let reads = io.block_reads.value();
        for i in 0..2000u32 {
            let k = format!("key{i:06}x").into_bytes();
            if let Some((got, _)) = table.get(&k, Some(&k)).unwrap() {
                assert_ne!(got, k);
            }
        }
        // An absent key reads a record only when its 1-byte fingerprint
        // matches one of the block's (distinct) fingerprints.
        let absent_reads = io.block_reads.value() - reads;
        let per_block = 2000 / table.index.restart_entries() as u64;
        let expected = 2000 * per_block / 256;
        assert!(
            absent_reads < expected * 3 / 2,
            "2000 absent keys read {absent_reads} records, expected about {expected}"
        );
        assert_eq!((io.cache_hits.value(), io.cache_misses.value()), (0, 0));
        assert!(table.verify_record_directory(|k| k).unwrap());
    }

    /// Without a filter key, and on a table without a directory, a get
    /// answers through the block as before.
    #[test]
    fn get_without_the_directory_reads_the_block() {
        let env = MemEnv::new();
        let io = test_io();
        let entries = sample_entries(300);
        let table = directory_table(&env, Path::new("/t.sst"), &entries, &io);
        let plain = cached_table(
            &env,
            Path::new("/p.sst"),
            &entries,
            &BlockCache::new(0),
            &io,
        );
        assert!(!plain.has_record_directory());
        assert!(!plain.verify_record_directory(|k| k).unwrap());
        for (k, v) in &entries {
            for (t, filter_key) in [(&table, None), (&plain, Some(&k[..]))] {
                let (reads, bytes) = (io.block_reads.value(), io.block_read_bytes.value());
                assert_eq!(t.get(k, filter_key).unwrap(), Some((k.clone(), v.clone())));
                assert_eq!(io.block_reads.value(), reads + 1);
                assert!(io.block_read_bytes.value() - bytes > 200, "a whole block");
            }
        }
        assert_eq!(io.record_reads.value(), 0);
    }

    /// A damaged record fails its own get with a typed corruption error;
    /// every other key still reads its value. A damaged directory fails
    /// the open.
    #[test]
    fn damaged_record_or_directory_is_corruption() {
        let env = MemEnv::new();
        let io = test_io();
        let entries = sample_entries(300);
        let path = Path::new("/t.sst");
        directory_table(&env, path, &entries, &io);
        let clean = env.read_to_vec(path).unwrap();
        let rewrite = |data: &[u8]| {
            let mut w = env.new_writable(path).unwrap();
            w.append(data).unwrap();
        };
        let victim = 150;
        let at = clean
            .windows(entries[victim].1.len())
            .position(|w| w == &entries[victim].1[..])
            .unwrap();
        let mut data = clean.clone();
        data[at + 2] ^= 0x20;
        rewrite(&data);
        let opts = TableOptions::raw_uncached();
        let table = Table::open(
            env.new_random_access(path).unwrap(),
            data.len() as u64,
            opts.clone(),
        )
        .unwrap();
        for (i, (k, v)) in entries.iter().enumerate() {
            match table.get(k, Some(k)) {
                Err(e) if i == victim => assert!(e.is_corruption(), "{e}"),
                r => assert_eq!(r.unwrap(), Some((k.clone(), v.clone())), "get of {i}"),
            }
        }
        assert!(table
            .verify_record_directory(|k| k)
            .unwrap_err()
            .is_corruption());

        let footer = Footer::decode(&clean[clean.len() - DIRECTORY_FOOTER_SIZE..]).unwrap();
        let dir = footer.directory_handle.unwrap();
        let mut data = clean.clone();
        data[(dir.offset + dir.size / 2) as usize] ^= 0x01;
        rewrite(&data);
        let err = match Table::open(
            env.new_random_access(path).unwrap(),
            data.len() as u64,
            opts,
        ) {
            Ok(_) => panic!("open of a damaged directory must fail"),
            Err(e) => e,
        };
        assert!(err.is_corruption(), "{err}");
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
