//! Streaming SSTable builder.

use crate::block::{BlockBuilder, DEFAULT_RESTART_INTERVAL};
use crate::filter::BloomFilterPolicy;
use crate::format::{BlockHandle, Footer, BLOCK_TRAILER_SIZE, COMPRESSION_RAW};
use unikv_common::{crc32c, Error, Result};
use unikv_env::WritableFile;

/// Maps a stored key to the key indexed by the Bloom filter. Engines
/// storing internal keys pass a user-key extractor so lookups by user key
/// hit the filter.
pub type FilterKeyFn = fn(&[u8]) -> &[u8];

fn identity_filter_key(k: &[u8]) -> &[u8] {
    k
}

/// Tuning knobs for table construction.
#[derive(Clone)]
pub struct TableBuilderOptions {
    /// Target uncompressed size of a data block (paper: 4 KiB).
    pub block_size: usize,
    /// Entries between restart points.
    pub restart_interval: usize,
    /// Bloom bits per key; `None` disables the filter block (UniKV mode).
    pub bloom_bits_per_key: Option<usize>,
    /// Key transform applied before inserting into the Bloom filter.
    pub filter_key: FilterKeyFn,
}

impl Default for TableBuilderOptions {
    fn default() -> Self {
        TableBuilderOptions {
            block_size: 4096,
            restart_interval: DEFAULT_RESTART_INTERVAL,
            bloom_bits_per_key: None,
            filter_key: identity_filter_key,
        }
    }
}

/// Summary of a finished table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableProperties {
    /// Number of entries written.
    pub num_entries: u64,
    /// Final file size in bytes.
    pub file_size: u64,
    /// First key added (empty table: empty vec).
    pub smallest: Vec<u8>,
    /// Last key added.
    pub largest: Vec<u8>,
    /// `(offset, payload)` of every data block written, in file order;
    /// empty unless [`TableBuilder::keep_data_blocks`] was called.
    pub data_blocks: Vec<(u64, Vec<u8>)>,
}

/// Builds an SSTable by streaming sorted entries to a writable file.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    opts: TableBuilderOptions,
    data_block: BlockBuilder,
    /// One entry per data block written: its last key → its handle.
    index_block: BlockBuilder,
    filter_keys: Vec<Vec<u8>>,
    offset: u64,
    num_entries: u64,
    smallest: Vec<u8>,
    largest: Vec<u8>,
    last_key: Vec<u8>,
    /// Data-block payloads kept for the caller; `None` unless asked for.
    data_blocks: Option<Vec<(u64, Vec<u8>)>>,
}

impl TableBuilder {
    /// Start building into `file`.
    pub fn new(file: Box<dyn WritableFile>, opts: TableBuilderOptions) -> Self {
        let restart_interval = opts.restart_interval;
        TableBuilder {
            file,
            opts,
            data_block: BlockBuilder::new(restart_interval),
            index_block: BlockBuilder::new(1),
            filter_keys: Vec::new(),
            offset: 0,
            num_entries: 0,
            smallest: Vec::new(),
            largest: Vec::new(),
            last_key: Vec::new(),
            data_blocks: None,
        }
    }

    /// Keep each data block's payload once it is written and hand them
    /// back in [`TableProperties::data_blocks`], so a caller can put the
    /// new table's blocks in a cache without reading them back.
    pub fn keep_data_blocks(&mut self) {
        self.data_blocks.get_or_insert_with(Vec::new);
    }

    /// Append an entry. Keys must be strictly increasing under the table's
    /// intended comparator; byte-identical keys are rejected.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.num_entries > 0 && key == self.last_key.as_slice() {
            return Err(Error::invalid_argument("duplicate key added to table"));
        }
        if self.num_entries == 0 {
            self.smallest = key.to_vec();
        }
        self.largest.clear();
        self.largest.extend_from_slice(key);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);

        if self.opts.bloom_bits_per_key.is_some() {
            self.filter_keys.push((self.opts.filter_key)(key).to_vec());
        }
        self.data_block.add(key, value);
        self.num_entries += 1;
        if self.data_block.current_size_estimate() >= self.opts.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Approximate bytes written plus buffered.
    pub fn estimated_size(&self) -> u64 {
        self.offset + self.data_block.current_size_estimate() as u64
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.data_block.is_empty() {
            return Ok(());
        }
        let payload = self.data_block.finish();
        let handle = write_raw_block(self.file.as_mut(), &mut self.offset, payload)?;
        let mut enc = Vec::with_capacity(20);
        handle.encode_to(&mut enc);
        self.index_block.add(&self.last_key, &enc);
        if let Some(kept) = &mut self.data_blocks {
            // A copy of exactly the payload, so a cached block costs what
            // it holds, as one read from the file does; the builder's
            // buffer is reused for the next block.
            kept.push((handle.offset, payload.to_vec()));
        }
        self.data_block.reset();
        Ok(())
    }

    /// Flush remaining data, write filter/index/footer, and sync.
    pub fn finish(mut self) -> Result<TableProperties> {
        self.flush_data_block()?;

        let filter_handle = match self.opts.bloom_bits_per_key {
            Some(bits) if !self.filter_keys.is_empty() => {
                let policy = BloomFilterPolicy::new(bits);
                let refs: Vec<&[u8]> = self.filter_keys.iter().map(|k| k.as_slice()).collect();
                let filter = policy.create_filter(&refs);
                write_raw_block(self.file.as_mut(), &mut self.offset, &filter)?
            }
            _ => BlockHandle { offset: 0, size: 0 },
        };

        let index_handle = write_raw_block(
            self.file.as_mut(),
            &mut self.offset,
            self.index_block.finish(),
        )?;

        let footer = Footer {
            filter_handle,
            index_handle,
        };
        self.file.append(&footer.encode())?;
        self.offset += crate::format::FOOTER_SIZE as u64;
        self.file.sync()?;

        Ok(TableProperties {
            num_entries: self.num_entries,
            file_size: self.offset,
            smallest: self.smallest,
            largest: self.largest,
            data_blocks: self.data_blocks.unwrap_or_default(),
        })
    }
}

/// Append `payload` and its trailer to `file` at `*offset`, advancing it.
fn write_raw_block(
    file: &mut dyn WritableFile,
    offset: &mut u64,
    payload: &[u8],
) -> Result<BlockHandle> {
    let handle = BlockHandle {
        offset: *offset,
        size: payload.len() as u64,
    };
    file.append(payload)?;
    let crc = crc32c::mask(crc32c::extend(crc32c::value(payload), &[COMPRESSION_RAW]));
    let mut trailer = [0u8; BLOCK_TRAILER_SIZE];
    trailer[0] = COMPRESSION_RAW;
    trailer[1..5].copy_from_slice(&crc.to_le_bytes());
    file.append(&trailer)?;
    *offset += payload.len() as u64 + BLOCK_TRAILER_SIZE as u64;
    Ok(handle)
}
