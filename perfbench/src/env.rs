//! Benchmark-owned [`Env`] wrapper: counts the calls and bytes of every
//! file class the engine touches, and in the traced run also times each
//! call and hands it to the [`Tracer`].

use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use unikv_common::Result;
use unikv_env::{Env, RandomAccessFile, SequentialFile, WritableFile};

/// Files grouped by the layer that owns them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Write-ahead logs (`*.wal`).
    Wal,
    /// SSTables (`*.sst`).
    Sst,
    /// Value logs (`*.vlog`).
    Vlog,
    /// Everything else: `META`, index checkpoints, temporaries.
    Meta,
}

impl FileClass {
    /// Every class, in report order.
    pub const ALL: [FileClass; 4] = [
        FileClass::Wal,
        FileClass::Sst,
        FileClass::Vlog,
        FileClass::Meta,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            FileClass::Wal => "wal",
            FileClass::Sst => "sst",
            FileClass::Vlog => "vlog",
            FileClass::Meta => "meta",
        }
    }

    /// Class of the file at `path`.
    pub fn of(path: &Path) -> FileClass {
        match path.extension().and_then(|e| e.to_str()) {
            Some("wal") => FileClass::Wal,
            Some("sst") => FileClass::Sst,
            Some("vlog") => FileClass::Vlog,
            _ => FileClass::Meta,
        }
    }
}

/// Env call kinds, as counted and traced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    Read,
    Write,
    Sync,
    Other,
}

fn span_name(class: FileClass, call: Call) -> &'static str {
    const NAMES: [[&str; 4]; 4] = [
        [
            "env.wal.read",
            "env.wal.write",
            "env.wal.sync",
            "env.wal.other",
        ],
        [
            "env.sst.read",
            "env.sst.write",
            "env.sst.sync",
            "env.sst.other",
        ],
        [
            "env.vlog.read",
            "env.vlog.write",
            "env.vlog.sync",
            "env.vlog.other",
        ],
        [
            "env.meta.read",
            "env.meta.write",
            "env.meta.sync",
            "env.meta.other",
        ],
    ];
    NAMES[class as usize][call as usize]
}

/// Counters of one file class.
#[derive(Default)]
struct ClassCounters {
    read_count: AtomicU64,
    read_bytes: AtomicU64,
    read_ns: AtomicU64,
    write_bytes: AtomicU64,
    sync_count: AtomicU64,
    sync_ns: AtomicU64,
}

/// Plain copy of one file class's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassIo {
    /// Positional and sequential reads.
    pub read_count: u64,
    /// Bytes returned by reads.
    pub read_bytes: u64,
    /// Nanoseconds spent in reads (traced run only; 0 otherwise).
    pub read_ns: u64,
    /// Bytes appended.
    pub write_bytes: u64,
    /// `sync` calls.
    pub sync_count: u64,
    /// Nanoseconds spent in syncs (traced run only; 0 otherwise).
    pub sync_ns: u64,
}

impl ClassIo {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &ClassIo) -> ClassIo {
        ClassIo {
            read_count: self.read_count - earlier.read_count,
            read_bytes: self.read_bytes - earlier.read_bytes,
            read_ns: self.read_ns - earlier.read_ns,
            write_bytes: self.write_bytes - earlier.write_bytes,
            sync_count: self.sync_count - earlier.sync_count,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }
}

/// Snapshot of every class, indexed by `FileClass as usize`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot(pub [ClassIo; 4]);

impl IoSnapshot {
    /// Counters of one class.
    pub fn class(&self, c: FileClass) -> &ClassIo {
        &self.0[c as usize]
    }

    /// `self - earlier` for every class.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot(std::array::from_fn(|i| self.0[i].since(&earlier.0[i])))
    }

    /// Bytes read across every class.
    pub fn read_bytes(&self) -> u64 {
        self.0.iter().map(|c| c.read_bytes).sum()
    }

    /// Bytes written across every class.
    pub fn write_bytes(&self) -> u64 {
        self.0.iter().map(|c| c.write_bytes).sum()
    }
}

struct Probe {
    counters: [ClassCounters; 4],
    tracer: Option<Arc<Tracer>>,
}

impl Probe {
    /// Run `f`, counting it against `class`; timed only while tracing.
    fn call<T>(
        &self,
        class: FileClass,
        call: Call,
        f: impl FnOnce() -> Result<T>,
        bytes: impl FnOnce(&T) -> u64,
    ) -> Result<T> {
        let tracer = self.tracer.as_deref().filter(|t| t.enabled());
        let start = tracer.map(|t| t.now());
        let r = f()?;
        let n = bytes(&r);
        let c = &self.counters[class as usize];
        match call {
            Call::Read => {
                c.read_count.fetch_add(1, Ordering::Relaxed);
                c.read_bytes.fetch_add(n, Ordering::Relaxed);
            }
            Call::Write => {
                c.write_bytes.fetch_add(n, Ordering::Relaxed);
            }
            Call::Sync => {
                c.sync_count.fetch_add(1, Ordering::Relaxed);
            }
            Call::Other => {}
        }
        if let (Some(t), Some(start)) = (tracer, start) {
            let end = t.now();
            match call {
                Call::Read => c.read_ns.fetch_add(end - start, Ordering::Relaxed),
                Call::Sync => c.sync_ns.fetch_add(end - start, Ordering::Relaxed),
                Call::Write | Call::Other => 0,
            };
            t.env_call(span_name(class, call), call == Call::Read, start, end, n);
        }
        Ok(r)
    }
}

/// The wrapper. Clones share counters.
#[derive(Clone)]
pub struct BenchEnv {
    inner: Arc<dyn Env>,
    probe: Arc<Probe>,
}

impl BenchEnv {
    /// Wrap `inner`; with a tracer, calls are also timed and traced.
    pub fn new(inner: Arc<dyn Env>, tracer: Option<Arc<Tracer>>) -> BenchEnv {
        BenchEnv {
            inner,
            probe: Arc::new(Probe {
                counters: Default::default(),
                tracer,
            }),
        }
    }

    /// Current counters.
    pub fn snapshot(&self) -> IoSnapshot {
        let l = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoSnapshot(std::array::from_fn(|i| {
            let c = &self.probe.counters[i];
            ClassIo {
                read_count: l(&c.read_count),
                read_bytes: l(&c.read_bytes),
                read_ns: l(&c.read_ns),
                write_bytes: l(&c.write_bytes),
                sync_count: l(&c.sync_count),
                sync_ns: l(&c.sync_ns),
            }
        }))
    }

    fn other<T>(&self, path: &Path, f: impl FnOnce() -> Result<T>) -> Result<T> {
        self.probe.call(FileClass::of(path), Call::Other, f, |_| 0)
    }
}

struct BenchWritable {
    inner: Box<dyn WritableFile>,
    class: FileClass,
    probe: Arc<Probe>,
}

impl WritableFile for BenchWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let inner = &mut self.inner;
        self.probe.call(
            self.class,
            Call::Write,
            || inner.append(data),
            |_| data.len() as u64,
        )
    }
    fn flush(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        self.probe
            .call(self.class, Call::Other, || inner.flush(), |_| 0)
    }
    fn sync(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        self.probe
            .call(self.class, Call::Sync, || inner.sync(), |_| 0)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct BenchRandom {
    inner: Arc<dyn RandomAccessFile>,
    class: FileClass,
    probe: Arc<Probe>,
}

impl RandomAccessFile for BenchRandom {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.probe.call(
            self.class,
            Call::Read,
            || self.inner.read_at(offset, len),
            |v| v.len() as u64,
        )
    }
    fn size(&self) -> Result<u64> {
        self.inner.size()
    }
    fn readahead(&self, offset: u64, len: usize) {
        let _ = self.probe.call(
            self.class,
            Call::Other,
            || {
                self.inner.readahead(offset, len);
                Ok(())
            },
            |_| 0,
        );
    }
}

struct BenchSequential {
    inner: Box<dyn SequentialFile>,
    class: FileClass,
    probe: Arc<Probe>,
}

impl SequentialFile for BenchSequential {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let inner = &mut self.inner;
        self.probe
            .call(self.class, Call::Read, || inner.read(buf), |n| *n as u64)
    }
}

impl Env for BenchEnv {
    fn new_writable(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = self.other(path, || self.inner.new_writable(path))?;
        Ok(Box::new(BenchWritable {
            inner,
            class: FileClass::of(path),
            probe: self.probe.clone(),
        }))
    }
    fn new_random_access(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        let inner = self.other(path, || self.inner.new_random_access(path))?;
        Ok(Arc::new(BenchRandom {
            inner,
            class: FileClass::of(path),
            probe: self.probe.clone(),
        }))
    }
    fn new_sequential(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        let inner = self.other(path, || self.inner.new_sequential(path))?;
        Ok(Box::new(BenchSequential {
            inner,
            class: FileClass::of(path),
            probe: self.probe.clone(),
        }))
    }
    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }
    fn file_size(&self, path: &Path) -> Result<u64> {
        self.other(path, || self.inner.file_size(path))
    }
    fn delete_file(&self, path: &Path) -> Result<()> {
        self.other(path, || self.inner.delete_file(path))
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.other(to, || self.inner.rename(from, to))
    }
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.other(path, || self.inner.create_dir_all(path))
    }
    fn list_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        self.other(path, || self.inner.list_dir(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_env::mem::MemEnv;

    #[test]
    fn counts_by_class_and_traces_when_enabled() {
        let tracer = Arc::new(Tracer::new());
        let env = BenchEnv::new(MemEnv::shared(), Some(tracer.clone()));
        let wal = Path::new("/db/p0/000001.wal");
        let mut w = env.new_writable(wal).unwrap();
        w.append(b"hello").unwrap();
        w.sync().unwrap();
        drop(w);
        let r = env.new_random_access(wal).unwrap();
        assert_eq!(r.read_at(1, 3).unwrap(), b"ell");
        env.write_atomic(Path::new("/db/META"), b"meta").unwrap();

        let s = env.snapshot();
        let c = s.class(FileClass::Wal);
        assert_eq!(
            (c.write_bytes, c.sync_count, c.read_count, c.read_bytes),
            (5, 1, 1, 3)
        );
        assert_eq!(c.read_ns, 0, "untimed before the tracer is enabled");
        assert_eq!(s.class(FileClass::Meta).write_bytes, 4);
        assert_eq!(s.class(FileClass::Meta).sync_count, 1);
        assert_eq!(s.write_bytes(), 9);

        tracer.enable();
        let prev = tracer.enter(1, 1);
        r.read_at(0, 5).unwrap();
        tracer.leave(prev);
        let d = env.snapshot().since(&s);
        assert_eq!(d.class(FileClass::Wal).read_bytes, 5);
        assert_eq!(tracer.span_count(), 1);
        assert_eq!(
            FileClass::of(Path::new("/db/p3/000012.vlog")),
            FileClass::Vlog
        );
        assert_eq!(
            FileClass::of(Path::new("/db/p3/000012.sst")),
            FileClass::Sst
        );
    }
}
