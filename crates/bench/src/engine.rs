//! Uniform engine adapter: every experiment drives engines through
//! [`BenchEngine`], so an experiment row differs only in the engine
//! behind it.

use std::path::Path;
use std::sync::Arc;
use unikv::{UniKv, UniKvOptions};
use unikv_common::Result;
use unikv_env::Env;
use unikv_hashstore::{HashStore, HashStoreOptions};
use unikv_lsm::{Baseline, LsmDb, LsmOptions};

/// Engine selector for experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineSpec {
    /// The paper's system.
    UniKv,
    /// UniKV with the hash index disabled (ablation E7).
    UniKvNoHashIndex,
    /// UniKV without partial KV separation (ablation E8).
    UniKvNoSeparation,
    /// UniKV without dynamic range partitioning (ablation E9).
    UniKvNoPartitioning,
    /// UniKV without scan optimizations (ablation E10).
    UniKvNoScanOpt,
    /// One of the four LSM baselines.
    Lsm(Baseline),
    /// SkimpyStash-like hash store (motivation baseline).
    HashStore,
}

impl EngineSpec {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            EngineSpec::UniKv => "UniKV",
            EngineSpec::UniKvNoHashIndex => "UniKV-noHashIdx",
            EngineSpec::UniKvNoSeparation => "UniKV-noKVsep",
            EngineSpec::UniKvNoPartitioning => "UniKV-noPart",
            EngineSpec::UniKvNoScanOpt => "UniKV-noScanOpt",
            EngineSpec::Lsm(b) => b.name(),
            EngineSpec::HashStore => "HashStore",
        }
    }

    /// UniKV plus the four baselines — the paper's standard comparison set.
    pub fn comparison_set() -> Vec<EngineSpec> {
        let mut v = vec![EngineSpec::UniKv];
        v.extend(Baseline::all().into_iter().map(EngineSpec::Lsm));
        v
    }

    /// Parse a CLI engine name.
    pub fn parse(s: &str) -> Option<EngineSpec> {
        Some(match s.to_ascii_lowercase().as_str() {
            "unikv" => EngineSpec::UniKv,
            "unikv-nohash" => EngineSpec::UniKvNoHashIndex,
            "unikv-nosep" => EngineSpec::UniKvNoSeparation,
            "unikv-nopart" => EngineSpec::UniKvNoPartitioning,
            "unikv-noscan" => EngineSpec::UniKvNoScanOpt,
            "leveldb" => EngineSpec::Lsm(Baseline::LevelDb),
            "rocksdb" => EngineSpec::Lsm(Baseline::RocksDb),
            "hyperleveldb" => EngineSpec::Lsm(Baseline::HyperLevelDb),
            "pebblesdb" => EngineSpec::Lsm(Baseline::PebblesDb),
            "hashstore" => EngineSpec::HashStore,
            _ => return None,
        })
    }
}

/// Uniform KV interface over all engines under test.
pub trait BenchEngine: Send + Sync {
    /// Engine display name.
    fn name(&self) -> &'static str;
    /// Write.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()>;
    /// Point read.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;
    /// Range scan; returns entries found (0 when unsupported → caller
    /// should use [`supports_scan`](Self::supports_scan)).
    fn scan(&self, from: &[u8], limit: usize) -> Result<usize>;
    /// Delete.
    fn delete(&self, key: &[u8]) -> Result<()>;
    /// Force buffered data to disk.
    fn flush(&self) -> Result<()>;
    /// Force a full merge/compaction (no-op where unsupported).
    fn compact(&self) -> Result<()> {
        Ok(())
    }
    /// True if range scans are supported (false for the hash store).
    fn supports_scan(&self) -> bool {
        true
    }
    /// Engine-reported write amplification, if tracked.
    fn write_amplification(&self) -> Option<f64> {
        None
    }
    /// Free-form stats lines for verbose output.
    fn stats_lines(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Benchmark-scale UniKV options (paper parameters scaled ~64×: server
/// 64 MB memtables → 1 MB, so flush/merge/GC/split frequency per op holds).
pub fn bench_unikv_options() -> UniKvOptions {
    UniKvOptions {
        write_buffer_size: 256 << 10,
        table_size: 256 << 10,
        unsorted_limit_bytes: 2 << 20,
        // A scan that reads a partition holding 6 UnsortedStore tables
        // runs its full merge, inline, and pays for it; flushes alone
        // merge at 2 MiB / 256 KiB = 8 tables.
        scan_merge_limit: 6,
        partition_size_limit: 8 << 20,
        max_log_size: 1 << 20,
        gc_min_bytes: 2 << 20,
        ..Default::default()
    }
}

/// Benchmark-scale options for an LSM baseline, matched to
/// [`bench_unikv_options`] (same write buffer and table size).
pub fn bench_lsm_options(baseline: Baseline) -> LsmOptions {
    let mut o = LsmOptions::baseline(baseline);
    o.write_buffer_size = 256 << 10;
    o.table_size = 256 << 10;
    o.base_level_bytes = 1 << 20;
    o.block_cache_bytes = 8 << 20;
    o
}

struct NamedUniKv {
    db: UniKv,
    name: &'static str,
}

impl BenchEngine for NamedUniKv {
    fn name(&self) -> &'static str {
        self.name
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.db.put(key, value)
    }
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.db.get(key)
    }
    fn scan(&self, from: &[u8], limit: usize) -> Result<usize> {
        Ok(self.db.scan(from, limit)?.len())
    }
    fn delete(&self, key: &[u8]) -> Result<()> {
        self.db.delete(key)
    }
    fn flush(&self) -> Result<()> {
        self.db.flush()
    }
    fn compact(&self) -> Result<()> {
        self.db.compact_all()
    }
    fn write_amplification(&self) -> Option<f64> {
        Some(self.db.write_amplification())
    }
    fn stats_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .db
            .metrics_snapshot()
            .counters
            .into_iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        lines.push(format!("partitions={}", self.db.partition_count()));
        lines.push(format!("index_memory_bytes={}", self.db.index_memory_bytes()));
        lines
    }
}

struct NamedLsm {
    db: LsmDb,
    name: &'static str,
}

impl BenchEngine for NamedLsm {
    fn name(&self) -> &'static str {
        self.name
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.db.put(key, value)
    }
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.db.get(key)
    }
    fn scan(&self, from: &[u8], limit: usize) -> Result<usize> {
        Ok(self.db.scan(from, limit)?.len())
    }
    fn delete(&self, key: &[u8]) -> Result<()> {
        self.db.delete(key)
    }
    fn flush(&self) -> Result<()> {
        self.db.flush()
    }
    fn compact(&self) -> Result<()> {
        self.db.compact_all()
    }
    fn write_amplification(&self) -> Option<f64> {
        Some(self.db.write_amplification())
    }
    fn stats_lines(&self) -> Vec<String> {
        self.db
            .metrics_registry()
            .snapshot()
            .counters
            .into_iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect()
    }
}

struct NamedHashStore(HashStore);

impl BenchEngine for NamedHashStore {
    fn name(&self) -> &'static str {
        "HashStore"
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.0.put(key, value)
    }
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.0.get(key)
    }
    fn scan(&self, _from: &[u8], _limit: usize) -> Result<usize> {
        Ok(0)
    }
    fn delete(&self, key: &[u8]) -> Result<()> {
        // Hash stores model deletes as empty-value writes.
        self.0.put(key, b"")
    }
    fn flush(&self) -> Result<()> {
        Ok(())
    }
    fn supports_scan(&self) -> bool {
        false
    }
}

/// Instantiate an engine in `dir`.
pub fn make_engine(
    spec: EngineSpec,
    env: Arc<dyn Env>,
    dir: &Path,
) -> Result<Box<dyn BenchEngine>> {
    Ok(match spec {
        EngineSpec::UniKv
        | EngineSpec::UniKvNoHashIndex
        | EngineSpec::UniKvNoSeparation
        | EngineSpec::UniKvNoPartitioning
        | EngineSpec::UniKvNoScanOpt => {
            let mut opts = bench_unikv_options();
            match spec {
                EngineSpec::UniKvNoHashIndex => opts.enable_hash_index = false,
                EngineSpec::UniKvNoSeparation => opts.enable_kv_separation = false,
                EngineSpec::UniKvNoPartitioning => opts.enable_partitioning = false,
                EngineSpec::UniKvNoScanOpt => opts.enable_scan_optimization = false,
                _ => {}
            }
            Box::new(NamedUniKv {
                db: UniKv::open(env, dir, opts)?,
                name: spec.name(),
            })
        }
        EngineSpec::Lsm(b) => Box::new(NamedLsm {
            db: LsmDb::open(env, dir, bench_lsm_options(b))?,
            name: b.name(),
        }),
        EngineSpec::HashStore => Box::new(NamedHashStore(HashStore::create(
            env,
            dir,
            HashStoreOptions {
                num_buckets: 1 << 12, // RAM-bounded: chains grow with data
                sync_writes: false,
            },
        )?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_env::mem::MemEnv;

    #[test]
    fn parse_specs() {
        assert_eq!(EngineSpec::parse("unikv"), Some(EngineSpec::UniKv));
        assert_eq!(
            EngineSpec::parse("PebblesDB"),
            Some(EngineSpec::Lsm(Baseline::PebblesDb))
        );
        assert_eq!(EngineSpec::parse("nope"), None);
        assert_eq!(EngineSpec::comparison_set().len(), 5);
    }

    #[test]
    fn every_engine_roundtrips() {
        let specs = [
            EngineSpec::UniKv,
            EngineSpec::UniKvNoHashIndex,
            EngineSpec::UniKvNoSeparation,
            EngineSpec::UniKvNoPartitioning,
            EngineSpec::UniKvNoScanOpt,
            EngineSpec::Lsm(Baseline::LevelDb),
            EngineSpec::Lsm(Baseline::RocksDb),
            EngineSpec::Lsm(Baseline::HyperLevelDb),
            EngineSpec::Lsm(Baseline::PebblesDb),
            EngineSpec::HashStore,
        ];
        for (i, spec) in specs.iter().enumerate() {
            let env = MemEnv::shared();
            let e = make_engine(*spec, env, Path::new(&format!("/db{i}"))).unwrap();
            for k in 0..200u32 {
                e.put(format!("key{k:05}").as_bytes(), format!("val{k}").as_bytes())
                    .unwrap();
            }
            for k in (0..200u32).step_by(17) {
                assert_eq!(
                    e.get(format!("key{k:05}").as_bytes()).unwrap(),
                    Some(format!("val{k}").into_bytes()),
                    "{} key {k}",
                    e.name()
                );
            }
            if e.supports_scan() {
                assert_eq!(e.scan(b"key00000", 10).unwrap(), 10, "{}", e.name());
            }
            e.delete(b"key00000").unwrap();
            e.flush().unwrap();
        }
    }
}
