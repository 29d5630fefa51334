#![warn(missing_docs)]

//! Environment abstraction: every byte the engines read or write flows
//! through the [`Env`] trait, so the same engine code runs against the real
//! filesystem ([`fs::FsEnv`]), an in-memory filesystem ([`mem::MemEnv`]) for
//! fast hermetic tests, and a fault-injection wrapper
//! ([`fault::FaultInjectionEnv`]) that simulates crashes by discarding
//! unsynced data — the mechanism behind the crash-consistency test suite.

pub mod fault;
pub mod fs;
pub mod mem;
pub mod metrics;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use unikv_common::Result;

/// A file opened for appending. Writers buffer internally; `sync` provides
/// the durability barrier the WAL and manifest rely on.
///
/// `Sync` is required so engines holding writers inside shared state can
/// themselves be `Sync`; it is safe because every method takes `&mut self`.
pub trait WritableFile: Send + Sync {
    /// Append bytes at the end of the file.
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Flush application buffers to the OS (no durability guarantee).
    fn flush(&mut self) -> Result<()>;
    /// Durably persist all appended data.
    fn sync(&mut self) -> Result<()>;
    /// Bytes appended so far.
    fn len(&self) -> u64;
    /// True if nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A file supporting positional reads from multiple threads.
pub trait RandomAccessFile: Send + Sync {
    /// Read up to `len` bytes at `offset`. Returns the bytes actually read
    /// (shorter only at end of file).
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Total file size in bytes.
    fn size(&self) -> Result<u64>;
    /// Advisory readahead hint: the caller is about to read `[offset,
    /// offset+len)` sequentially. Implementations may prefetch; default no-op.
    /// The engine issues no hints: scans read back-to-back value records
    /// with one `read_at` instead.
    fn readahead(&self, _offset: u64, _len: usize) {}
}

/// A file read sequentially from the start (WAL replay).
pub trait SequentialFile: Send {
    /// Read up to `buf.len()` bytes, returning the count (0 at EOF).
    fn read(&mut self, buf: &mut [u8]) -> Result<usize>;
}

/// Abstract filesystem used by every storage component.
///
/// Implementations must surface I/O failures as `Error::Io` *preserving
/// the original `io::ErrorKind`*: the engine's resilience policy
/// classifies failures via `unikv_common::Error::is_transient` (ENOSPC,
/// EAGAIN/EINTR, timeouts retry with backoff; everything else is treated
/// as permanent), so an env that collapses kinds would turn recoverable
/// episodes into quarantined jobs.
pub trait Env: Send + Sync {
    /// Create (truncating) a file for appending.
    fn new_writable(&self, path: &Path) -> Result<Box<dyn WritableFile>>;
    /// Open an existing file for positional reads.
    fn new_random_access(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>>;
    /// Open an existing file for sequential reads.
    fn new_sequential(&self, path: &Path) -> Result<Box<dyn SequentialFile>>;
    /// True if `path` exists.
    fn file_exists(&self, path: &Path) -> bool;
    /// Size of the file at `path`.
    fn file_size(&self, path: &Path) -> Result<u64>;
    /// Delete the file at `path`.
    fn delete_file(&self, path: &Path) -> Result<()>;
    /// Atomically rename `from` to `to` (replacing `to`).
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Create `path` and all missing parents.
    fn create_dir_all(&self, path: &Path) -> Result<()>;
    /// List the file names (not full paths) directly under `path`.
    fn list_dir(&self, path: &Path) -> Result<Vec<PathBuf>>;

    /// Read an entire file into memory.
    fn read_to_vec(&self, path: &Path) -> Result<Vec<u8>> {
        let f = self.new_random_access(path)?;
        let size = f.size()? as usize;
        f.read_at(0, size)
    }

    /// Write `data` to `path` and sync, replacing any existing file
    /// atomically via a temporary file + rename.
    fn write_atomic(&self, path: &Path, data: &[u8]) -> Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = self.new_writable(&tmp)?;
            f.append(data)?;
            f.sync()?;
        }
        self.rename(&tmp, path)
    }
}

/// Shared handle to an environment.
pub type EnvRef = Arc<dyn Env>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemEnv;

    // Generic conformance suite run against both env implementations.
    fn conformance(env: &dyn Env, root: &Path) {
        env.create_dir_all(root).unwrap();
        let p = root.join("a.txt");
        {
            let mut w = env.new_writable(&p).unwrap();
            assert!(w.is_empty());
            w.append(b"hello ").unwrap();
            w.append(b"world").unwrap();
            assert_eq!(w.len(), 11);
            w.sync().unwrap();
        }
        assert!(env.file_exists(&p));
        assert_eq!(env.file_size(&p).unwrap(), 11);
        assert_eq!(env.read_to_vec(&p).unwrap(), b"hello world");

        let r = env.new_random_access(&p).unwrap();
        assert_eq!(r.read_at(6, 5).unwrap(), b"world");
        assert_eq!(r.read_at(6, 100).unwrap(), b"world"); // short read at EOF
        assert_eq!(r.size().unwrap(), 11);
        r.readahead(0, 11); // must not panic

        let mut s = env.new_sequential(&p).unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(s.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");

        let q = root.join("b.txt");
        env.write_atomic(&q, b"atomic").unwrap();
        assert_eq!(env.read_to_vec(&q).unwrap(), b"atomic");

        env.rename(&q, &root.join("c.txt")).unwrap();
        assert!(!env.file_exists(&q));
        assert!(env.file_exists(&root.join("c.txt")));

        env.create_dir_all(&root.join("sub")).unwrap();
        let mut names: Vec<_> = env
            .list_dir(root)
            .unwrap()
            .iter()
            .map(|n| n.to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, vec!["a.txt", "c.txt", "sub"]);

        env.delete_file(&p).unwrap();
        assert!(!env.file_exists(&p));
        assert!(env.delete_file(&p).is_err());
        assert!(env.new_random_access(&p).is_err());
    }

    #[test]
    fn mem_env_conformance() {
        let env = MemEnv::new();
        conformance(&env, Path::new("/db"));
    }

    /// `io::ErrorKind` must survive the default helpers (`write_atomic`
    /// composes append/sync/rename): transience classification at the
    /// engine layer depends on it.
    #[test]
    fn error_kinds_propagate_through_write_atomic() {
        use crate::fault::{FaultOp, FaultPlan, FaultRule};
        let env = crate::fault::FaultInjectionEnv::new(MemEnv::shared());
        env.set_plan(FaultPlan::new(1).rule(
            FaultRule::fail_times(FaultOp::Sync, 1).error_kind(std::io::ErrorKind::StorageFull),
        ));
        let err = env
            .write_atomic(Path::new("/meta"), b"payload")
            .unwrap_err();
        assert!(err.is_storage_full(), "kind lost in write_atomic: {err}");
        assert!(err.is_transient());
        env.write_atomic(Path::new("/meta"), b"payload").unwrap();
    }

    #[test]
    fn fs_env_conformance() {
        let dir = std::env::temp_dir().join(format!("unikv-env-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = crate::fs::FsEnv::new();
        conformance(&env, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
