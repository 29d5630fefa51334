//! Value-pointer resolution across partition directories.
//!
//! After a split, a child partition's SortedStore still holds pointers into
//! the parent's value logs (lazy split); the pointer's `partition` field
//! names the directory. The resolver maps any pointer to bytes, caching
//! open file handles.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use unikv_common::{Result, ValuePointer};
use unikv_env::{Env, RandomAccessFile};
use unikv_vlog::{read_value_record, read_value_run, vlog_file_name};

/// Directory of partition `id` under the database root.
pub fn partition_dir(root: &Path, id: u32) -> PathBuf {
    root.join(format!("p{id}"))
}

/// Path of value log `log_number`, which partition `partition` wrote,
/// under the database root.
pub fn vlog_path(root: &Path, partition: u32, log_number: u64) -> PathBuf {
    partition_dir(root, partition).join(vlog_file_name(log_number))
}

/// Reads values addressed by [`ValuePointer`]s from any partition's logs.
pub struct ValueResolver {
    env: Arc<dyn Env>,
    root: PathBuf,
    readers: RwLock<HashMap<(u32, u64), Arc<dyn RandomAccessFile>>>,
}

impl ValueResolver {
    /// Create a resolver rooted at the database directory.
    pub fn new(env: Arc<dyn Env>, root: PathBuf) -> Self {
        ValueResolver {
            env,
            root,
            readers: RwLock::new(HashMap::new()),
        }
    }

    /// The cached handle of one log, opened on first use.
    pub(crate) fn reader(&self, partition: u32, log: u64) -> Result<Arc<dyn RandomAccessFile>> {
        let key = (partition, log);
        // Fast path: shared lock, so concurrent scans and gets resolving
        // values do not serialize on the cache.
        if let Some(r) = self.readers.read().get(&key) {
            return Ok(r.clone());
        }
        let path = vlog_path(&self.root, partition, log);
        let r = self.env.new_random_access(&path)?;
        self.readers.write().insert(key, r.clone());
        Ok(r)
    }

    /// Read the value behind `ptr`.
    pub fn read(&self, ptr: &ValuePointer) -> Result<Vec<u8>> {
        let reader = self.reader(ptr.partition, ptr.log_number)?;
        read_value_record(reader.as_ref(), ptr.offset, ptr.length)
    }

    /// Read a run of records that sit back to back in one log — the first
    /// at `first`, then one per entry of `lengths` — with a single read,
    /// handing each verified value to `each` with its position in the run
    /// (see [`read_value_run`]).
    pub fn read_run(
        &self,
        first: &ValuePointer,
        lengths: impl Iterator<Item = u32> + Clone,
        each: impl FnMut(usize, &[u8]),
    ) -> Result<()> {
        let reader = self.reader(first.partition, first.log_number)?;
        read_value_run(reader.as_ref(), first.offset, lengths, each)
    }

    /// Drop cached readers for a log that is about to be deleted.
    pub fn evict(&self, partition: u32, log: u64) {
        self.readers.write().remove(&(partition, log));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_env::mem::MemEnv;
    use unikv_vlog::ValueLog;

    #[test]
    fn resolves_across_partitions() {
        let env = MemEnv::shared();
        let root = PathBuf::from("/db");
        let mut vl3 = ValueLog::open(env.clone(), partition_dir(&root, 3), 3, 1 << 20).unwrap();
        let mut vl5 = ValueLog::open(env.clone(), partition_dir(&root, 5), 5, 1 << 20).unwrap();
        let p3 = vl3.append(b"from-three").unwrap();
        let p5 = vl5.append(b"from-five").unwrap();
        vl3.sync().unwrap();
        vl5.sync().unwrap();

        let resolver = ValueResolver::new(env, root);
        assert_eq!(resolver.read(&p3).unwrap(), b"from-three");
        assert_eq!(resolver.read(&p5).unwrap(), b"from-five");
        // Cached-path read works too.
        assert_eq!(resolver.read(&p3).unwrap(), b"from-three");
        resolver.evict(3, p3.log_number);
        assert_eq!(resolver.read(&p3).unwrap(), b"from-three");
    }

    #[test]
    fn missing_log_is_error() {
        let env = MemEnv::shared();
        let resolver = ValueResolver::new(env, PathBuf::from("/db"));
        let ptr = ValuePointer {
            partition: 1,
            log_number: 1,
            offset: 0,
            length: 4,
        };
        assert!(resolver.read(&ptr).is_err());
    }
}
