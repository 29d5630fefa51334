#![warn(missing_docs)]

//! Baseline LSM-tree engine (LevelDB lineage), used as the comparison
//! point for every experiment in the paper.
//!
//! One engine, four personalities: the compaction policy and tuning presets
//! in [`options`] approximate the paper's baselines —
//!
//! * **LevelDB**: classic leveled compaction, small write buffer, eager
//!   level targets.
//! * **RocksDB**: leveled with larger buffers and higher L0 tolerance.
//! * **HyperLevelDB**: leveled but lazier — picks the input with minimal
//!   overlap into the next level to cut write amplification.
//! * **PebblesDB**: fragmented levels — compaction re-sorts level-L runs
//!   and appends them to level L+1 *without rewriting* L+1 (tiered within
//!   levels), trading scan/read cost for write amplification.
//!
//! All four share the same WAL, memtable, SSTable, manifest, and recovery
//! code, so benchmark deltas isolate exactly the policy differences — the
//! substitution argument in DESIGN.md §4.

pub mod compaction;
pub mod db;
pub mod filenames;
pub mod iter;
pub mod options;
pub mod version;

pub use db::{LsmDb, ScanItem};
pub use options::{Baseline, CompactionPolicy, LsmOptions};
