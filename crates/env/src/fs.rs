//! Real-filesystem [`Env`] backed by `std::fs` with buffered writers
//! (per the Rust performance guide: unbuffered file I/O is a common trap).

use crate::{Env, RandomAccessFile, SequentialFile, WritableFile};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use unikv_common::Result;

/// [`Env`] implementation over the host filesystem.
#[derive(Debug, Default, Clone)]
pub struct FsEnv;

impl FsEnv {
    /// Create a new filesystem environment.
    pub fn new() -> Self {
        FsEnv
    }

    /// Convenience: a shared handle.
    pub fn shared() -> Arc<FsEnv> {
        Arc::new(FsEnv)
    }
}

struct FsWritable {
    writer: BufWriter<File>,
    len: u64,
}

impl WritableFile for FsWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.writer.write_all(data)?;
        self.len += data.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

struct FsRandomAccess {
    file: File,
}

impl RandomAccessFile for FsRandomAccess {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        use std::os::unix::fs::FileExt;
        let mut buf = vec![0u8; len];
        let mut read = 0;
        while read < len {
            let n = self.file.read_at(&mut buf[read..], offset + read as u64)?;
            if n == 0 {
                break; // EOF
            }
            read += n;
        }
        buf.truncate(read);
        Ok(buf)
    }

    fn size(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

struct FsSequential {
    reader: BufReader<File>,
}

impl SequentialFile for FsSequential {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        Ok(self.reader.read(buf)?)
    }
}

impl Env for FsEnv {
    fn new_writable(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(FsWritable {
            writer: BufWriter::with_capacity(64 * 1024, file),
            len: 0,
        }))
    }

    fn new_random_access(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        let file = File::open(path)?;
        Ok(Arc::new(FsRandomAccess { file }))
    }

    fn new_sequential(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        let file = File::open(path)?;
        Ok(Box::new(FsSequential {
            reader: BufReader::with_capacity(64 * 1024, file),
        }))
    }

    fn file_exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn file_size(&self, path: &Path) -> Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn delete_file(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        std::fs::create_dir_all(path)?;
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(PathBuf::from(entry?.file_name()));
        }
        Ok(out)
    }
}
