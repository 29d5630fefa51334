//! Value fetching for scans (paper §Scan Optimization: values are fetched
//! from the logs by a thread pool, plus readahead).
//!
//! Merge and GC append values to a log in key order, so most pointers of
//! one scan sit back to back in a few logs. With the scan optimization on,
//! `fetch_values` sorts the pointers by position and groups them into
//! *runs* — records that each start where the previous one ends in the
//! same log — and reads every run with one `read_at`. That coalescing is
//! the readahead; gaps are never bridged, so no dead bytes are read.
//!
//! Every run is read inline on the scanning thread; the paper's fetch
//! thread pool is not reproduced. With run reads, a YCSB-E scan of up to
//! 100 values costs a handful of reads, too few for a hand-off to other
//! threads to pay (DESIGN.md §4).

use crate::resolver::ValueResolver;
use unikv_common::{Result, ValuePointer};
use unikv_lsm::db::ScanItem;
use unikv_vlog::record_size;

/// One value to fetch: the caller's output slot and the value's address.
type Job = (usize, ValuePointer);

/// True when `next`'s record starts right where `prev`'s ends in the same
/// log, so one read covers both.
fn extends_run(prev: &Job, next: &Job) -> bool {
    let (a, b) = (&prev.1, &next.1);
    a.partition == b.partition
        && a.log_number == b.log_number
        && b.offset == a.offset + record_size(a.length)
}

/// Fetch every pointer in `jobs`, writing each value into `out[idx].value`.
///
/// `scan_optimization = true` reads runs of back-to-back records with one
/// read each; `false` (ablation E10) reads pointer by pointer.
pub(crate) fn fetch_values(
    resolver: &ValueResolver,
    mut jobs: Vec<Job>,
    out: &mut [ScanItem],
    scan_optimization: bool,
) -> Result<()> {
    if jobs.is_empty() {
        return Ok(());
    }
    if !scan_optimization {
        for (idx, ptr) in &jobs {
            out[*idx].value = resolver.read(ptr)?;
        }
        return Ok(());
    }
    jobs.sort_unstable_by_key(|(_, p)| (p.partition, p.log_number, p.offset));
    for run in jobs.chunk_by(extends_run) {
        let lengths = run.iter().map(|(_, p)| p.length);
        resolver.read_run(&run[0].1, lengths, |i, value| {
            out[run[i].0].value = value.to_vec();
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::partition_dir;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use unikv_env::mem::MemEnv;
    use unikv_env::metrics::CountingEnv;
    use unikv_env::Env;
    use unikv_vlog::{vlog_file_name, ValueLog};

    /// `n` output items whose values the fetch has yet to fill.
    fn slots(n: usize) -> Vec<ScanItem> {
        vec![
            ScanItem {
                key: Vec::new(),
                value: Vec::new(),
            };
            n
        ]
    }

    #[allow(clippy::type_complexity)]
    fn setup(n: usize) -> (ValueResolver, Vec<Job>, Vec<Vec<u8>>) {
        let env = MemEnv::shared();
        let root = PathBuf::from("/db");
        let mut vl = ValueLog::open(env.clone(), partition_dir(&root, 0), 0, 8 << 10).unwrap();
        let mut jobs = Vec::new();
        let mut expect = Vec::new();
        for i in 0..n {
            let v = format!("value-{i}").repeat(i % 5 + 1).into_bytes();
            let ptr = vl.append(&v).unwrap();
            jobs.push((i, ptr));
            expect.push(v);
        }
        vl.sync().unwrap();
        (ValueResolver::new(env, root), jobs, expect)
    }

    /// Every other record: no two pointers are adjacent, so each is a run.
    fn scattered(jobs: &[Job]) -> Vec<Job> {
        jobs.iter()
            .step_by(2)
            .enumerate()
            .map(|(slot, (_, p))| (slot, *p))
            .collect()
    }

    #[test]
    fn run_reads_and_pointer_reads_agree() {
        let (resolver, jobs, expect) = setup(500);
        let sparse = scattered(&jobs);
        for opt in [false, true] {
            let mut out = slots(jobs.len());
            fetch_values(&resolver, jobs.clone(), &mut out, opt).unwrap();
            for (i, e) in expect.iter().enumerate() {
                assert_eq!(&out[i].value, e, "opt={opt}");
            }
            let mut out = slots(sparse.len());
            fetch_values(&resolver, sparse.clone(), &mut out, opt).unwrap();
            for (slot, e) in expect.iter().step_by(2).enumerate() {
                assert_eq!(&out[slot].value, e, "opt={opt}");
            }
        }
    }

    #[test]
    fn empty_jobs_ok() {
        let (got, reads, _) = fetch_counted(&counting_env(), Vec::new());
        assert!(got.unwrap().is_empty());
        assert_eq!(reads, 0, "no pointers, no reads");
    }

    #[test]
    fn bad_pointer_propagates_error() {
        let (resolver, jobs, _) = setup(600);
        for mut jobs in [jobs.clone(), scattered(&jobs)] {
            jobs[150].1.offset = 1 << 40;
            for opt in [false, true] {
                let mut out = slots(jobs.len());
                assert!(fetch_values(&resolver, jobs.clone(), &mut out, opt).is_err());
            }
        }
    }

    // Run reads, observed through an env that counts `read_at` calls.

    const ROOT: &str = "/db";

    fn counting_env() -> Arc<CountingEnv> {
        CountingEnv::new(MemEnv::shared())
    }

    /// Append `values` to partition `partition`'s single log.
    fn write_log(env: &Arc<CountingEnv>, partition: u32, values: &[Vec<u8>]) -> Vec<ValuePointer> {
        let dir = partition_dir(Path::new(ROOT), partition);
        let mut vl = ValueLog::open(env.clone(), dir, partition, 1 << 20).unwrap();
        let ptrs = values.iter().map(|v| vl.append(v).unwrap()).collect();
        vl.sync().unwrap();
        ptrs
    }

    fn values(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("{tag}-{i}-").repeat(i % 4 + 1).into_bytes())
            .collect()
    }

    /// Rewrite the log file holding `ptr` through `edit`.
    fn rewrite_log(env: &Arc<CountingEnv>, ptr: &ValuePointer, edit: impl FnOnce(&mut Vec<u8>)) {
        let path =
            partition_dir(Path::new(ROOT), ptr.partition).join(vlog_file_name(ptr.log_number));
        let mut data = env.read_to_vec(&path).unwrap();
        edit(&mut data);
        let mut w = env.new_writable(&path).unwrap();
        w.append(&data).unwrap();
        w.sync().unwrap();
    }

    /// Fetch `jobs` with the scan optimization on, through a fresh
    /// resolver; returns the values by slot plus the `read_at` calls and
    /// bytes the fetch issued.
    fn fetch_counted(env: &Arc<CountingEnv>, jobs: Vec<Job>) -> (Result<Vec<Vec<u8>>>, u64, u64) {
        let resolver = ValueResolver::new(env.clone(), PathBuf::from(ROOT));
        let mut out = slots(jobs.len());
        env.counters().reset();
        let result = fetch_values(&resolver, jobs, &mut out, true)
            .map(|()| out.into_iter().map(|item| item.value).collect());
        let counters = env.counters();
        (result, counters.random_reads(), counters.bytes_read())
    }

    fn in_order(ptrs: &[ValuePointer]) -> Vec<Job> {
        ptrs.iter().copied().enumerate().collect()
    }

    #[test]
    fn back_to_back_records_take_one_read() {
        let env = counting_env();
        let vals = values(40, "a");
        let ptrs = write_log(&env, 0, &vals);
        let (got, reads, bytes) = fetch_counted(&env, in_order(&ptrs));
        assert_eq!(got.unwrap(), vals);
        assert_eq!(reads, 1);
        let expect_bytes: u64 = ptrs.iter().map(|p| record_size(p.length)).sum();
        assert_eq!(bytes, expect_bytes, "a run reads exactly its records");
    }

    #[test]
    fn records_interleaved_across_two_logs_take_two_reads() {
        let env = counting_env();
        let (a, b) = (values(30, "a"), values(30, "b"));
        let (pa, pb) = (write_log(&env, 0, &a), write_log(&env, 1, &b));
        // Key order alternates between the two logs.
        let mut jobs = Vec::new();
        let mut expect = Vec::new();
        for i in 0..30 {
            jobs.push((jobs.len(), pa[i]));
            expect.push(a[i].clone());
            jobs.push((jobs.len(), pb[i]));
            expect.push(b[i].clone());
        }
        let (got, reads, _) = fetch_counted(&env, jobs);
        assert_eq!(got.unwrap(), expect);
        assert_eq!(reads, 2);
    }

    #[test]
    fn one_byte_gap_is_not_bridged() {
        let env = counting_env();
        let vals = values(6, "g");
        let mut ptrs = write_log(&env, 0, &vals);
        // Insert one dead byte before record 3 and shift the later pointers.
        let at = ptrs[3].offset as usize;
        rewrite_log(&env, &ptrs[0], |data| data.insert(at, 0xEE));
        for p in &mut ptrs[3..] {
            p.offset += 1;
        }
        let (got, reads, bytes) = fetch_counted(&env, in_order(&ptrs));
        assert_eq!(got.unwrap(), vals);
        assert_eq!(reads, 2);
        let expect_bytes: u64 = ptrs.iter().map(|p| record_size(p.length)).sum();
        assert_eq!(bytes, expect_bytes, "the gap byte must not be read");
    }

    #[test]
    fn values_return_in_callers_order() {
        let env = counting_env();
        let vals = values(50, "o");
        let ptrs = write_log(&env, 0, &vals);
        // Slots in reverse key order, pointers handed over shuffled.
        let n = ptrs.len();
        let mut jobs: Vec<Job> = ptrs
            .iter()
            .enumerate()
            .map(|(i, p)| (n - 1 - i, *p))
            .collect();
        jobs.swap(3, 41);
        jobs.swap(0, 17);
        let (got, reads, _) = fetch_counted(&env, jobs);
        let expect: Vec<Vec<u8>> = vals.into_iter().rev().collect();
        assert_eq!(got.unwrap(), expect);
        assert_eq!(reads, 1);
    }

    #[test]
    fn crc_flip_in_middle_record_is_corruption() {
        let env = counting_env();
        let ptrs = write_log(&env, 0, &values(9, "c"));
        let at = ptrs[4].offset as usize + 2;
        rewrite_log(&env, &ptrs[0], |data| data[at] ^= 0x01);
        let (got, reads, _) = fetch_counted(&env, in_order(&ptrs));
        assert!(got.unwrap_err().is_corruption());
        assert_eq!(reads, 1, "the damaged record sits inside one run");
    }

    #[test]
    fn length_mismatch_in_run_is_corruption() {
        let env = counting_env();
        let mut ptrs = write_log(&env, 0, &values(9, "l"));
        ptrs[4].length += 1;
        let (got, _, _) = fetch_counted(&env, in_order(&ptrs));
        assert!(got.unwrap_err().is_corruption());
    }

    #[test]
    fn run_cut_short_at_eof_is_corruption() {
        let env = counting_env();
        let ptrs = write_log(&env, 0, &values(9, "e"));
        rewrite_log(&env, &ptrs[0], |data| data.truncate(data.len() - 3));
        let (got, reads, _) = fetch_counted(&env, in_order(&ptrs));
        assert!(got.unwrap_err().is_corruption());
        assert_eq!(reads, 1);
    }
}
