//! I/O accounting wrapper: counts bytes read and written through an env.
//!
//! The amplification experiment (paper §I/O Cost Analysis) divides device
//! bytes by user bytes; wrapping the engine's env with [`CountingEnv`]
//! yields the device side without touching engine code.

use crate::{Env, RandomAccessFile, SequentialFile, WritableFile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use unikv_common::Result;

/// Byte counters shared by a [`CountingEnv`] and its caller.
#[derive(Debug, Default)]
pub struct IoCounters {
    read: AtomicU64,
    written: AtomicU64,
    random_reads: AtomicU64,
}

impl IoCounters {
    /// Bytes read through the env so far.
    pub fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }

    /// Positional reads (`RandomAccessFile::read_at` calls) so far.
    pub fn random_reads(&self) -> u64 {
        self.random_reads.load(Ordering::Relaxed)
    }

    /// Bytes written through the env so far.
    pub fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Reset every counter.
    ///
    /// Note: `bytes_read()` / `bytes_written()` followed by `reset()` is
    /// racy — bytes accounted by concurrent I/O between the read and the
    /// store are silently lost. Phase-boundary accounting (e.g. the
    /// amplification experiment) must use [`IoCounters::snapshot_and_reset`]
    /// instead.
    pub fn reset(&self) {
        self.read.store(0, Ordering::Relaxed);
        self.written.store(0, Ordering::Relaxed);
        self.random_reads.store(0, Ordering::Relaxed);
    }

    /// Atomically take `(bytes_read, bytes_written)` and zero the
    /// counters, so no concurrent increment is ever dropped: every byte
    /// lands either in the returned snapshot or in the next one.
    pub fn snapshot_and_reset(&self) -> (u64, u64) {
        (
            self.read.swap(0, Ordering::AcqRel),
            self.written.swap(0, Ordering::AcqRel),
        )
    }
}

/// Env wrapper that counts all bytes flowing through it.
pub struct CountingEnv {
    inner: Arc<dyn Env>,
    counters: Arc<IoCounters>,
}

impl CountingEnv {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Env>) -> Arc<Self> {
        Arc::new(CountingEnv {
            inner,
            counters: Arc::new(IoCounters::default()),
        })
    }

    /// The shared counters.
    pub fn counters(&self) -> Arc<IoCounters> {
        self.counters.clone()
    }
}

struct CountingWritable {
    inner: Box<dyn WritableFile>,
    counters: Arc<IoCounters>,
}

impl WritableFile for CountingWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.counters
            .written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(data)
    }
    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct CountingRandomAccess {
    inner: Arc<dyn RandomAccessFile>,
    counters: Arc<IoCounters>,
}

impl RandomAccessFile for CountingRandomAccess {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let data = self.inner.read_at(offset, len)?;
        self.counters
            .read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.counters.random_reads.fetch_add(1, Ordering::Relaxed);
        Ok(data)
    }
    fn size(&self) -> Result<u64> {
        self.inner.size()
    }
}

struct CountingSequential {
    inner: Box<dyn SequentialFile>,
    counters: Arc<IoCounters>,
}

impl SequentialFile for CountingSequential {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let n = self.inner.read(buf)?;
        self.counters.read.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Env for CountingEnv {
    fn new_writable(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        Ok(Box::new(CountingWritable {
            inner: self.inner.new_writable(path)?,
            counters: self.counters.clone(),
        }))
    }

    fn new_random_access(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        Ok(Arc::new(CountingRandomAccess {
            inner: self.inner.new_random_access(path)?,
            counters: self.counters.clone(),
        }))
    }

    fn new_sequential(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        Ok(Box::new(CountingSequential {
            inner: self.inner.new_sequential(path)?,
            counters: self.counters.clone(),
        }))
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }
    fn file_size(&self, path: &Path) -> Result<u64> {
        self.inner.file_size(path)
    }
    fn delete_file(&self, path: &Path) -> Result<()> {
        self.inner.delete_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.inner.rename(from, to)
    }
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.create_dir_all(path)
    }
    fn list_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemEnv;

    #[test]
    fn counts_reads_and_writes() {
        let env = CountingEnv::new(MemEnv::shared());
        let counters = env.counters();
        let p = Path::new("/f");
        let mut w = env.new_writable(p).unwrap();
        w.append(&[0u8; 100]).unwrap();
        w.sync().unwrap();
        assert_eq!(counters.bytes_written(), 100);

        let r = env.new_random_access(p).unwrap();
        r.read_at(0, 40).unwrap();
        assert_eq!(counters.bytes_read(), 40);
        assert_eq!(counters.random_reads(), 1);

        let mut s = env.new_sequential(p).unwrap();
        let mut buf = [0u8; 25];
        s.read(&mut buf).unwrap();
        assert_eq!(counters.bytes_read(), 65);

        counters.reset();
        assert_eq!(counters.bytes_read(), 0);
        assert_eq!(counters.bytes_written(), 0);
        assert_eq!(counters.random_reads(), 0);
    }

    /// Two threads: one keeps writing through the env, the other keeps
    /// draining the counters with `snapshot_and_reset`. Every byte must
    /// land in exactly one snapshot (or the final residue) — the old
    /// `bytes_written()`-then-`reset()` pattern loses bytes here.
    #[test]
    fn snapshot_and_reset_loses_nothing_under_concurrency() {
        let env = CountingEnv::new(MemEnv::shared());
        let counters = env.counters();
        const WRITES: u64 = 20_000;
        const CHUNK: u64 = 7;

        let writer = {
            let env = env.clone();
            std::thread::spawn(move || {
                let mut w = env.new_writable(Path::new("/race")).unwrap();
                for _ in 0..WRITES {
                    w.append(&[0u8; CHUNK as usize]).unwrap();
                }
            })
        };

        let mut drained = 0u64;
        while !writer.is_finished() {
            drained += counters.snapshot_and_reset().1;
        }
        writer.join().unwrap();
        drained += counters.snapshot_and_reset().1;

        assert_eq!(drained, WRITES * CHUNK);
        assert_eq!(counters.bytes_written(), 0);
    }

    #[test]
    fn short_reads_counted_accurately() {
        let env = CountingEnv::new(MemEnv::shared());
        let p = Path::new("/f");
        env.new_writable(p).unwrap().append(&[1u8; 10]).unwrap();
        let r = env.new_random_access(p).unwrap();
        r.read_at(5, 100).unwrap(); // only 5 available
        assert_eq!(env.counters().bytes_read(), 5);
    }
}
