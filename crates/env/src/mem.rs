//! In-memory [`Env`] for fast hermetic tests. Files are byte vectors in a
//! shared map; directories are tracked explicitly so `list_dir` behaves
//! like a real filesystem.

use crate::{Env, RandomAccessFile, SequentialFile, WritableFile};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use unikv_common::{Error, Result};

type FileRef = Arc<Mutex<Vec<u8>>>;

#[derive(Default)]
struct State {
    files: BTreeMap<PathBuf, FileRef>,
    dirs: BTreeSet<PathBuf>,
}

/// An in-memory filesystem.
#[derive(Clone, Default)]
pub struct MemEnv {
    state: Arc<Mutex<State>>,
}

impl MemEnv {
    /// Create an empty in-memory filesystem.
    pub fn new() -> Self {
        MemEnv::default()
    }

    /// Convenience: a shared handle.
    pub fn shared() -> Arc<MemEnv> {
        Arc::new(MemEnv::new())
    }

    /// Total bytes stored across all files (used by space-usage tests).
    pub fn total_bytes(&self) -> u64 {
        let st = self.state.lock();
        st.files.values().map(|f| f.lock().len() as u64).sum()
    }

    fn not_found(path: &Path) -> Error {
        Error::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no such file: {}", path.display()),
        ))
    }
}

struct MemWritable {
    file: FileRef,
    len: u64,
}

impl WritableFile for MemWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.file.lock().extend_from_slice(data);
        self.len += data.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

struct MemRandomAccess {
    file: FileRef,
}

impl RandomAccessFile for MemRandomAccess {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let data = self.file.lock();
        let start = (offset as usize).min(data.len());
        let end = (start + len).min(data.len());
        Ok(data[start..end].to_vec())
    }

    fn size(&self) -> Result<u64> {
        Ok(self.file.lock().len() as u64)
    }
}

struct MemSequential {
    file: FileRef,
    pos: usize,
}

impl SequentialFile for MemSequential {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let data = self.file.lock();
        let remaining = data.len().saturating_sub(self.pos);
        let n = remaining.min(buf.len());
        buf[..n].copy_from_slice(&data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Env for MemEnv {
    fn new_writable(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let file: FileRef = Arc::new(Mutex::new(Vec::new()));
        let mut st = self.state.lock();
        if let Some(parent) = path.parent() {
            // Match real-filesystem behaviour loosely: auto-register parents.
            st.dirs.insert(parent.to_path_buf());
        }
        st.files.insert(path.to_path_buf(), file.clone());
        Ok(Box::new(MemWritable { file, len: 0 }))
    }

    fn new_random_access(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        let st = self.state.lock();
        let file = st.files.get(path).ok_or_else(|| Self::not_found(path))?;
        Ok(Arc::new(MemRandomAccess { file: file.clone() }))
    }

    fn new_sequential(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        let st = self.state.lock();
        let file = st.files.get(path).ok_or_else(|| Self::not_found(path))?;
        Ok(Box::new(MemSequential {
            file: file.clone(),
            pos: 0,
        }))
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.state.lock().files.contains_key(path)
    }

    fn file_size(&self, path: &Path) -> Result<u64> {
        let st = self.state.lock();
        let file = st.files.get(path).ok_or_else(|| Self::not_found(path))?;
        let len = file.lock().len() as u64;
        Ok(len)
    }

    fn delete_file(&self, path: &Path) -> Result<()> {
        let mut st = self.state.lock();
        st.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| Self::not_found(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut st = self.state.lock();
        let file = st.files.remove(from).ok_or_else(|| Self::not_found(from))?;
        st.files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        let mut st = self.state.lock();
        let mut p = path.to_path_buf();
        loop {
            st.dirs.insert(p.clone());
            match p.parent() {
                Some(parent) if parent != Path::new("") => p = parent.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        let st = self.state.lock();
        let mut out = Vec::new();
        // Subdirectories are entries too, as `read_dir` reports them.
        for p in st.files.keys().chain(&st.dirs) {
            if p.parent() == Some(path) {
                out.push(PathBuf::from(p.file_name().expect("file has a name")));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_visible_to_open_readers() {
        // Matches POSIX: a reader opened before an append sees the append.
        let env = MemEnv::new();
        let p = Path::new("/f");
        let mut w = env.new_writable(p).unwrap();
        w.append(b"abc").unwrap();
        let r = env.new_random_access(p).unwrap();
        w.append(b"def").unwrap();
        assert_eq!(r.read_at(0, 6).unwrap(), b"abcdef");
    }

    #[test]
    fn total_bytes_counts_all_files() {
        let env = MemEnv::new();
        env.new_writable(Path::new("/a"))
            .unwrap()
            .append(&[0; 10])
            .unwrap();
        env.new_writable(Path::new("/b"))
            .unwrap()
            .append(&[0; 5])
            .unwrap();
        assert_eq!(env.total_bytes(), 15);
    }

    #[test]
    fn truncate_on_reopen() {
        let env = MemEnv::new();
        let p = Path::new("/f");
        env.new_writable(p).unwrap().append(b"xxxx").unwrap();
        let w = env.new_writable(p).unwrap(); // truncates
        assert_eq!(w.len(), 0);
        assert_eq!(env.file_size(p).unwrap(), 0);
    }
}
