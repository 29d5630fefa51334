//! Log writer: fragments records across 32 KiB blocks.

use crate::{RecordType, BLOCK_SIZE, HEADER_SIZE};
use unikv_common::metrics::Counter;
use unikv_common::perf::{self, PerfStage};
use unikv_common::{crc32c, Result};
use unikv_env::WritableFile;

/// Registry-backed WAL counters, shared by every log writer of a database.
#[derive(Clone)]
pub struct WalMetrics {
    /// Records appended (before fragmenting).
    pub records: Counter,
    /// Payload bytes appended (excludes headers and block padding).
    pub record_bytes: Counter,
    /// Durable syncs issued.
    pub syncs: Counter,
}

impl WalMetrics {
    /// Register the WAL families in `registry`.
    pub fn new(registry: &unikv_common::metrics::MetricsRegistry) -> WalMetrics {
        WalMetrics {
            records: registry.counter("wal_records"),
            record_bytes: registry.counter("wal_record_bytes"),
            syncs: registry.counter("wal_syncs"),
        }
    }
}

/// Appends records to a log file.
pub struct LogWriter {
    file: Box<dyn WritableFile>,
    /// Offset within the current block.
    block_offset: usize,
    metrics: Option<WalMetrics>,
}

impl LogWriter {
    /// Wrap a fresh writable file.
    pub fn new(file: Box<dyn WritableFile>) -> Self {
        LogWriter {
            file,
            block_offset: 0,
            metrics: None,
        }
    }

    /// Attach WAL counters (builder-style; recovery/test writers skip it).
    pub fn with_metrics(mut self, metrics: WalMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Append one record, fragmenting as needed.
    pub fn add_record(&mut self, record: &[u8]) -> Result<()> {
        if let Some(m) = &self.metrics {
            m.records.inc();
            m.record_bytes.add(record.len() as u64);
        }
        let mut remaining = record;
        let mut begin = true;
        loop {
            let leftover = BLOCK_SIZE - self.block_offset;
            if leftover < HEADER_SIZE {
                // Not enough room for a header: pad the block with zeros.
                if leftover > 0 {
                    const ZEROS: [u8; HEADER_SIZE] = [0; HEADER_SIZE];
                    self.file.append(&ZEROS[..leftover])?;
                }
                self.block_offset = 0;
            }

            let avail = BLOCK_SIZE - self.block_offset - HEADER_SIZE;
            let fragment_len = remaining.len().min(avail);
            let end = fragment_len == remaining.len();
            let t = match (begin, end) {
                (true, true) => RecordType::Full,
                (true, false) => RecordType::First,
                (false, false) => RecordType::Middle,
                (false, true) => RecordType::Last,
            };
            self.emit(t, &remaining[..fragment_len])?;
            remaining = &remaining[fragment_len..];
            begin = false;
            if end {
                perf::mark(PerfStage::WalAppend);
                return Ok(());
            }
        }
    }

    fn emit(&mut self, t: RecordType, payload: &[u8]) -> Result<()> {
        debug_assert!(payload.len() <= 0xffff);
        debug_assert!(self.block_offset + HEADER_SIZE + payload.len() <= BLOCK_SIZE);
        let crc = crc32c::mask(crc32c::extend(crc32c::value(&[t as u8]), payload));
        let mut header = [0u8; HEADER_SIZE];
        header[..4].copy_from_slice(&crc.to_le_bytes());
        header[4..6].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        header[6] = t as u8;
        self.file.append(&header)?;
        self.file.append(payload)?;
        self.block_offset += HEADER_SIZE + payload.len();
        Ok(())
    }

    /// Flush buffers to the OS.
    pub fn flush(&mut self) -> Result<()> {
        self.file.flush()
    }

    /// Durably sync all records written so far.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(m) = &self.metrics {
            m.syncs.inc();
        }
        let r = self.file.sync();
        perf::mark(PerfStage::WalSync);
        r
    }

    /// Bytes written to the underlying file.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.file.is_empty()
    }
}
