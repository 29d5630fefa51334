//! The three gated workloads, their pre-generated op streams, and the
//! per-key version model every result is checked against.

use unikv_common::rng::DetRng;
use unikv_workload::{format_key, make_value, MixedWorkload, Op, YcsbKind, YcsbWorkload};

/// Records loaded by the set-up phase.
pub const RECORDS: u64 = 300_000;
/// Value size of every record.
pub const VALUE_SIZE: usize = 256;
/// Length of every key produced by `format_key`.
pub const KEY_SIZE: usize = 16;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-A: 50% get / 50% update, scrambled zipfian keys.
    MixedZipf,
    /// 50% get / 50% update, uniform keys.
    MixedUniform,
    /// YCSB-E: 95% scans of 1–100 records from zipfian starts, 5% inserts.
    ScanE,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::MixedZipf, Workload::MixedUniform, Workload::ScanE];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedZipf => "mixed-zipf",
            Workload::MixedUniform => "mixed-uniform",
            Workload::ScanE => "scan-e",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ops in the measured phase per second of run length. The count is
    /// fixed by the run length alone, so every run of one seed executes
    /// the same stream; the rates make the phase last about that long on
    /// a 2-core x86-64 VM with the data in the page cache.
    pub fn ops_per_second(self) -> u64 {
        match self {
            Workload::MixedZipf => 100_000,
            Workload::MixedUniform => 70_000,
            Workload::ScanE => 9_000,
        }
    }
}

/// Kind of one benchmark operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Point read of an existing record.
    Get,
    /// Overwrite of an existing record, or insert of the next new one.
    Put,
    /// Range scan of `len` records.
    Scan,
}

/// One pre-generated operation on record `idx`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchOp {
    /// What to do.
    pub kind: OpKind,
    /// Scan length (0 for gets and puts).
    pub len: u32,
    /// Record index (`format_key(idx)` is the key).
    pub idx: u64,
}

fn key_index(key: &[u8]) -> u64 {
    std::str::from_utf8(&key[4..])
        .ok()
        .and_then(|s| s.parse().ok())
        .expect("workload keys are format_key output")
}

/// The measured phase's op stream: `count` ops over `records` loaded
/// records, drawn from `seed` by the `unikv_workload` generators.
pub fn generate(workload: Workload, records: u64, count: u64, seed: u64) -> Vec<BenchOp> {
    let mut next: Box<dyn FnMut() -> Op> = match workload {
        Workload::MixedZipf => {
            let mut w = YcsbWorkload::new(YcsbKind::A, records, seed);
            Box::new(move || w.next_op())
        }
        Workload::MixedUniform => {
            let mut w = MixedWorkload::new(0.5, records, true, seed);
            Box::new(move || w.next_op())
        }
        Workload::ScanE => {
            let mut w = YcsbWorkload::new(YcsbKind::E, records, seed);
            Box::new(move || w.next_op())
        }
    };
    (0..count)
        .map(|_| match next() {
            Op::Read(k) => BenchOp {
                kind: OpKind::Get,
                len: 0,
                idx: key_index(&k),
            },
            Op::Update(k) | Op::Insert(k) => BenchOp {
                kind: OpKind::Put,
                len: 0,
                idx: key_index(&k),
            },
            Op::Scan(k, len) => BenchOp {
                kind: OpKind::Scan,
                len: len as u32,
                idx: key_index(&k),
            },
            Op::ReadModifyWrite(_) => unreachable!("no gated workload emits read-modify-write"),
        })
        .collect()
}

/// Set-up insertion order: every record once, shuffled by `seed`.
pub fn load_order(records: u64, seed: u64) -> Vec<u64> {
    // Salted so the load order is not the op stream's random sequence.
    let mut rng = DetRng::seed_from_u64(seed ^ 0x10ad_5eed_0000_0000);
    let mut order: Vec<u64> = (0..records).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.usize_in_incl(0..=i));
    }
    order
}

/// Why a result failed its check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mismatch {
    /// A get returned the wrong value or none.
    Get { idx: u64 },
    /// A scan returned the wrong count, order, key or value.
    Scan { idx: u64, at: usize },
}

/// Per-key version model: record `i` at version `v` holds
/// `make_value(i, v, VALUE_SIZE)`. Holds every key the phase can touch,
/// so the timed loop never formats a key.
pub struct Model {
    keys: Vec<Vec<u8>>,
    versions: Vec<u32>,
    records: u64,
}

impl Model {
    /// Model of `records` freshly loaded records (version 0), with keys
    /// pre-formatted for the inserts `ops` will make.
    pub fn new(records: u64, ops: &[BenchOp]) -> Model {
        let max_idx = ops
            .iter()
            .map(|o| o.idx + 1)
            .max()
            .unwrap_or(0)
            .max(records);
        Model {
            keys: (0..max_idx).map(format_key).collect(),
            versions: vec![0; records as usize],
            records,
        }
    }

    /// Key of record `idx`.
    pub fn key(&self, idx: u64) -> &[u8] {
        &self.keys[idx as usize]
    }

    /// Records that currently exist.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Value record `idx` holds now.
    pub fn value(&self, idx: u64) -> Vec<u8> {
        make_value(idx, self.versions[idx as usize] as u64, VALUE_SIZE)
    }

    /// Value the next put of record `idx` writes.
    pub fn next_value(&self, idx: u64) -> Vec<u8> {
        let v = self.versions.get(idx as usize).map_or(0, |v| v + 1);
        make_value(idx, v as u64, VALUE_SIZE)
    }

    /// Record that the put prepared by [`Model::next_value`] succeeded.
    pub fn commit_put(&mut self, idx: u64) {
        match self.versions.get_mut(idx as usize) {
            Some(v) => *v += 1,
            None => {
                assert_eq!(idx, self.records, "inserts extend the keyspace in order");
                self.versions.push(0);
                self.records += 1;
            }
        }
    }

    /// Check a get of record `idx`.
    pub fn check_get(&self, idx: u64, got: Option<&[u8]>) -> Result<(), Mismatch> {
        if got == Some(self.value(idx).as_slice()) {
            Ok(())
        } else {
            Err(Mismatch::Get { idx })
        }
    }

    /// Check a scan of up to `len` records from record `idx`: the count is
    /// `min(len, records >= idx)`, and items are consecutive records in
    /// key order, starting at `idx`, each with its current value.
    pub fn check_scan(
        &self,
        idx: u64,
        len: usize,
        items: &[(&[u8], &[u8])],
    ) -> Result<(), Mismatch> {
        let expect = (len as u64).min(self.records.saturating_sub(idx)) as usize;
        if items.len() != expect {
            return Err(Mismatch::Scan {
                idx,
                at: items.len().min(expect),
            });
        }
        for (at, (k, v)) in items.iter().enumerate() {
            let i = idx + at as u64;
            if *k != self.key(i) || *v != self.value(i).as_slice() {
                return Err(Mismatch::Scan { idx, at });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("mixed"), None);
    }

    #[test]
    fn streams_follow_the_mix() {
        let ops = generate(Workload::ScanE, 1000, 4000, 3);
        let scans = ops.iter().filter(|o| o.kind == OpKind::Scan).count();
        assert!((3700..3900).contains(&scans), "{scans}");
        assert!(ops.iter().all(|o| o.kind != OpKind::Get));
        let inserts: Vec<u64> = ops
            .iter()
            .filter(|o| o.kind == OpKind::Put)
            .map(|o| o.idx)
            .collect();
        assert_eq!(
            inserts,
            (1000..1000 + inserts.len() as u64).collect::<Vec<_>>()
        );
        let mixed = generate(Workload::MixedUniform, 1000, 4000, 3);
        assert!(mixed.iter().all(|o| o.kind != OpKind::Scan && o.idx < 1000));
    }

    #[test]
    fn load_order_is_a_seeded_permutation() {
        let mut a = load_order(500, 1);
        assert_ne!(a, load_order(500, 2));
        assert_eq!(a, load_order(500, 1));
        a.sort_unstable();
        assert_eq!(a, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn model_catches_wrong_values() {
        let ops = [BenchOp {
            kind: OpKind::Put,
            len: 0,
            idx: 10,
        }];
        let mut m = Model::new(10, &ops);
        assert_eq!(m.key(3), format_key(3).as_slice());
        let v3 = m.value(3);
        assert!(m.check_get(3, Some(&v3)).is_ok());
        assert_eq!(m.check_get(3, None), Err(Mismatch::Get { idx: 3 }));
        let next = m.next_value(3);
        assert!(m.check_get(3, Some(&next)).is_err());
        m.commit_put(3);
        assert!(m.check_get(3, Some(&next)).is_ok());
        assert!(m.check_get(3, Some(&v3)).is_err());

        // Insert of the next record extends the keyspace.
        let v10 = m.next_value(10);
        m.commit_put(10);
        assert_eq!(m.records(), 11);
        assert!(m.check_get(10, Some(&v10)).is_ok());

        let (k9, v9, k10) = (m.key(9).to_vec(), m.value(9), m.key(10).to_vec());
        assert!(m.check_scan(9, 5, &[(&k9, &v9), (&k10, &v10)]).is_ok());
        assert_eq!(
            m.check_scan(9, 5, &[(&k9, &v9)]),
            Err(Mismatch::Scan { idx: 9, at: 1 })
        );
        assert_eq!(
            m.check_scan(9, 2, &[(&k10, &v10), (&k9, &v9)]),
            Err(Mismatch::Scan { idx: 9, at: 0 })
        );
        assert_eq!(
            m.check_scan(9, 2, &[(&k9, &v9), (&k10, &v9)]),
            Err(Mismatch::Scan { idx: 9, at: 1 })
        );
    }
}
