//! Fault-injection [`Env`] wrapper used by crash-consistency tests.
//!
//! Two layers of failure modelling are provided:
//!
//! 1. **Power cuts.** The wrapper tracks, per file, how many bytes have
//!    been durably synced. [`FaultInjectionEnv::crash`] then rolls every
//!    file back to its synced prefix (deleting files that were never
//!    synced), which models a power failure: everything after the last
//!    `sync` barrier is lost.
//! 2. **Scripted faults.** A deterministic, seeded [`FaultPlan`] arms
//!    [`FaultRule`]s against individual env operations: failed or torn
//!    (partial) appends, sync failures, read errors, silent bit flips on
//!    reads or writes, and rename/delete failures. Rules select operations
//!    by kind and path substring, can skip the first `n` matches, fire
//!    once, a bounded number of times ([`FaultRule::fail_times`] — a
//!    *transient* storm that clears on its own), or stick, and can fire
//!    probabilistically — all driven by one seed so a failing schedule
//!    replays exactly. Injected errors carry a configurable
//!    `io::ErrorKind` so they classify correctly under
//!    `unikv_common::Error::is_transient` (e.g. `StorageFull` for a
//!    scripted ENOSPC episode).
//!
//! The legacy `fail_after_appends` counter is kept as a shorthand for the
//! most common plan (fail every append after the next `n`).

use crate::{Env, RandomAccessFile, SequentialFile, WritableFile};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use unikv_common::rng::DetRng;
use unikv_common::{Error, Result};

/// Env operation classes a [`FaultRule`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// `WritableFile::append`.
    Append,
    /// `WritableFile::flush`.
    Flush,
    /// `WritableFile::sync` (a failed sync leaves the data volatile).
    Sync,
    /// `RandomAccessFile::read_at` / `SequentialFile::read`.
    Read,
    /// `Env::new_writable`.
    OpenWrite,
    /// `Env::new_random_access` / `Env::new_sequential`.
    OpenRead,
    /// `Env::rename`.
    Rename,
    /// `Env::delete_file`.
    Delete,
}

/// What happens when a [`FaultRule`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an injected I/O error.
    Fail,
    /// Appends only: write a strict prefix of the data, then fail — a
    /// torn write, as left by a crash mid-append.
    TornAppend,
    /// Silently flip one bit: on appends the corrupted bytes hit the
    /// disk; on reads the caller sees corrupted bytes. Models media rot.
    FlipBit,
}

/// One scripted fault: fires on the `after`-th-plus-one operation matching
/// `op` (and `path_contains`, if set), with probability `probability`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Operation class this rule arms.
    pub op: FaultOp,
    /// Only match paths whose string form contains this substring.
    pub path_contains: Option<String>,
    /// Skip this many matching operations before the rule can fire.
    pub after: u64,
    /// Chance of firing per eligible operation (1.0 = always).
    pub probability: f64,
    /// Disarm after the first firing (default) or keep firing.
    pub once: bool,
    /// Fire at most this many times, then disarm; `0` defers to `once`.
    /// `FaultRule::fail_times` builds bounded storms with this: fail the
    /// next `k` matching operations, then succeed.
    pub times: u64,
    /// Effect on the operation.
    pub action: FaultAction,
    /// `io::ErrorKind` carried by injected failures, so callers observe a
    /// properly *classified* error (`unikv_common::Error::is_transient`).
    /// Defaults to `ErrorKind::Other`, which classifies as permanent.
    pub kind: std::io::ErrorKind,
}

impl FaultRule {
    /// A rule that fires on the next matching operation, once.
    pub fn new(op: FaultOp, action: FaultAction) -> FaultRule {
        FaultRule {
            op,
            path_contains: None,
            after: 0,
            probability: 1.0,
            once: true,
            times: 0,
            action,
            kind: std::io::ErrorKind::Other,
        }
    }

    /// A transient storm that clears on its own: fail the next `k`
    /// matching operations, then succeed. The injected errors carry
    /// `ErrorKind::Interrupted` (EINTR) so they classify as transient;
    /// override with [`error_kind`](Self::error_kind) to model a
    /// different condition (e.g. `StorageFull` for an ENOSPC episode).
    pub fn fail_times(op: FaultOp, k: u64) -> FaultRule {
        FaultRule {
            once: false,
            times: k,
            kind: std::io::ErrorKind::Interrupted,
            ..FaultRule::new(op, FaultAction::Fail)
        }
    }

    /// Restrict the rule to paths containing `s`.
    pub fn on_path(mut self, s: &str) -> FaultRule {
        self.path_contains = Some(s.to_string());
        self
    }

    /// Skip the first `n` matching operations.
    pub fn after(mut self, n: u64) -> FaultRule {
        self.after = n;
        self
    }

    /// Fire with probability `p` per eligible operation.
    pub fn with_probability(mut self, p: f64) -> FaultRule {
        self.probability = p;
        self
    }

    /// Keep firing instead of disarming after the first hit.
    pub fn sticky(mut self) -> FaultRule {
        self.once = false;
        self.times = 0;
        self
    }

    /// Tag injected errors with `kind` (see the `kind` field).
    pub fn error_kind(mut self, kind: std::io::ErrorKind) -> FaultRule {
        self.kind = kind;
        self
    }

    /// Maximum number of firings before this rule disarms.
    fn fire_limit(&self) -> u64 {
        if self.times > 0 {
            self.times
        } else if self.once {
            1
        } else {
            u64::MAX
        }
    }
}

/// A seeded, ordered set of [`FaultRule`]s. The first armed rule matching
/// an operation decides its fate; the seed drives both probabilistic
/// firing and the shape of torn writes / bit flips, so a plan replays
/// identically run after run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for probabilistic rules, torn-write lengths, and flipped bits.
    pub seed: u64,
    /// Rules, consulted in order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Append a rule.
    pub fn rule(mut self, r: FaultRule) -> FaultPlan {
        self.rules.push(r);
        self
    }
}

struct PlanState {
    rules: Vec<FaultRule>,
    /// Remaining skips per rule (mirrors `rules[i].after`).
    skips: Vec<u64>,
    /// Firings so far per rule (bounded by `FaultRule::fire_limit`).
    fires: Vec<u64>,
    rng: DetRng,
}

/// Fault-plan evaluation state shared with file wrappers.
#[derive(Default)]
struct FaultShared {
    plan: Mutex<Option<PlanState>>,
    injected: AtomicU64,
    events: Mutex<Vec<String>>,
}

impl FaultShared {
    /// If an armed rule matches `(op, path)`, fire it. Returns the action,
    /// a deterministic salt for shaping the fault, and the error kind the
    /// injected failure should carry.
    fn check(&self, op: FaultOp, path: &Path) -> Option<(FaultAction, u64, std::io::ErrorKind)> {
        let mut guard = self.plan.lock();
        let state = guard.as_mut()?;
        let mut hit = None;
        for (i, rule) in state.rules.iter().enumerate() {
            if rule.op != op {
                continue;
            }
            if let Some(ref s) = rule.path_contains {
                if !path.to_string_lossy().contains(s.as_str()) {
                    continue;
                }
            }
            if state.fires[i] >= rule.fire_limit() {
                continue;
            }
            if state.skips[i] > 0 {
                state.skips[i] -= 1;
                continue;
            }
            if rule.probability < 1.0 && state.rng.next_f64() >= rule.probability {
                continue;
            }
            hit = Some((i, rule.action, rule.kind));
            break;
        }
        let (i, action, kind) = hit?;
        state.fires[i] += 1;
        let salt = state.rng.next_u64();
        drop(guard);
        self.injected.fetch_add(1, Ordering::SeqCst);
        self.events.lock().push(format!(
            "{:?} {:?} ({kind:?}) on {}",
            action,
            op,
            path.display()
        ));
        Some((action, salt, kind))
    }
}

fn injected_error_kind(what: &str, path: &Path, kind: std::io::ErrorKind) -> Error {
    Error::Io(std::io::Error::new(
        kind,
        format!("injected {what} failure on {}", path.display()),
    ))
}

fn injected_error(what: &str, path: &Path) -> Error {
    injected_error_kind(what, path, std::io::ErrorKind::Other)
}

#[derive(Default)]
struct Tracking {
    /// Bytes known durable per file. Files absent from the map but present
    /// in the inner env predate this wrapper and are treated as durable.
    synced_len: HashMap<PathBuf, u64>,
    /// Files created through this wrapper since construction/last crash.
    created: HashMap<PathBuf, bool>, // value: ever synced
    /// The current path of every writable handed out. A rename moves an
    /// open file, as on POSIX: later appends and syncs through the handle
    /// land in (and make durable) the file under its new name.
    handles: Vec<Weak<Mutex<PathBuf>>>,
}

/// Env wrapper that can simulate crashes and scripted fault plans.
pub struct FaultInjectionEnv {
    inner: Arc<dyn Env>,
    tracking: Arc<Mutex<Tracking>>,
    /// Remaining appends before injected failure; negative = disabled.
    appends_until_failure: Arc<AtomicI64>,
    shared: Arc<FaultShared>,
}

impl FaultInjectionEnv {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Env>) -> Arc<Self> {
        Arc::new(FaultInjectionEnv {
            inner,
            tracking: Arc::new(Mutex::new(Tracking::default())),
            appends_until_failure: Arc::new(AtomicI64::new(-1)),
            shared: Arc::new(FaultShared::default()),
        })
    }

    /// After `n` more successful appends, every append fails with an I/O
    /// error until [`clear_failures`](Self::clear_failures) is called.
    pub fn fail_after_appends(&self, n: i64) {
        self.appends_until_failure.store(n, Ordering::SeqCst);
    }

    /// Disable the counted-append failure mode.
    pub fn clear_failures(&self) {
        self.appends_until_failure.store(-1, Ordering::SeqCst);
    }

    /// Arm a scripted fault plan (replacing any previous plan).
    pub fn set_plan(&self, plan: FaultPlan) {
        let skips = plan.rules.iter().map(|r| r.after).collect();
        let fires = vec![0; plan.rules.len()];
        *self.shared.plan.lock() = Some(PlanState {
            skips,
            fires,
            rng: DetRng::seed_from_u64(plan.seed),
            rules: plan.rules,
        });
    }

    /// Disarm the fault plan.
    pub fn clear_plan(&self) {
        *self.shared.plan.lock() = None;
    }

    /// Total faults injected by plans since construction.
    pub fn injected_faults(&self) -> u64 {
        self.shared.injected.load(Ordering::SeqCst)
    }

    /// Human-readable log of every fault fired, in order — the replayable
    /// evidence a failing test should print alongside its seed.
    pub fn fault_events(&self) -> Vec<String> {
        self.shared.events.lock().clone()
    }

    /// Flip one bit of the byte at `offset` in `path`, in place. Models
    /// at-rest media corruption; the mutated content counts as durable (a
    /// later [`crash`](Self::crash) will not undo it).
    pub fn flip_byte(&self, path: &Path, offset: u64) -> Result<()> {
        let mut data = self.inner.read_to_vec(path)?;
        let i = offset as usize;
        if i >= data.len() {
            return Err(Error::invalid_argument("flip_byte offset out of range"));
        }
        data[i] ^= 0x01;
        let mut w = self.inner.new_writable(path)?;
        w.append(&data)?;
        w.sync()?;
        let mut t = self.tracking.lock();
        t.synced_len.insert(path.to_path_buf(), data.len() as u64);
        if let Some(ever) = t.created.get_mut(path) {
            *ever = true;
        }
        Ok(())
    }

    /// Simulate a power failure: roll every tracked file back to its synced
    /// prefix and delete files never synced. Returns the affected paths.
    pub fn crash(&self) -> Result<Vec<PathBuf>> {
        let mut affected = Vec::new();
        let mut t = self.tracking.lock();
        let created = std::mem::take(&mut t.created);
        let synced: HashMap<_, _> = t.synced_len.clone();
        drop(t);

        for (path, ever_synced) in created {
            if !self.inner.file_exists(&path) {
                continue; // renamed away or deleted; its new name is tracked
            }
            let durable = if ever_synced {
                *synced.get(&path).unwrap_or(&0)
            } else {
                0
            };
            let current = self.inner.file_size(&path)?;
            if !ever_synced && durable == 0 {
                self.inner.delete_file(&path)?;
                affected.push(path);
            } else if current > durable {
                let prefix = {
                    let f = self.inner.new_random_access(&path)?;
                    f.read_at(0, durable as usize)?
                };
                let mut w = self.inner.new_writable(&path)?;
                w.append(&prefix)?;
                w.sync()?;
                affected.push(path);
            }
        }
        // After a crash the slate is clean: whatever survived is durable.
        self.tracking.lock().synced_len.clear();
        Ok(affected)
    }
}

struct TrackedWritable {
    inner: Box<dyn WritableFile>,
    /// Shared with [`Tracking::handles`] so renames retarget it.
    path: Arc<Mutex<PathBuf>>,
    tracking: Arc<Mutex<Tracking>>,
    appends_until_failure: Arc<AtomicI64>,
    shared: Arc<FaultShared>,
}

impl TrackedWritable {
    fn path(&self) -> PathBuf {
        self.path.lock().clone()
    }
}

impl WritableFile for TrackedWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let path = self.path();
        let remaining = self.appends_until_failure.load(Ordering::SeqCst);
        if remaining == 0 {
            return Err(injected_error("write", &path));
        }
        if remaining > 0 {
            self.appends_until_failure.fetch_sub(1, Ordering::SeqCst);
        }
        match self.shared.check(FaultOp::Append, &path) {
            Some((FaultAction::Fail, _, kind)) => Err(injected_error_kind("write", &path, kind)),
            Some((FaultAction::TornAppend, salt, kind)) => {
                if !data.is_empty() {
                    let keep = (salt % data.len() as u64) as usize;
                    self.inner.append(&data[..keep])?;
                }
                Err(injected_error_kind("torn write", &path, kind))
            }
            Some((FaultAction::FlipBit, salt, _)) => {
                if data.is_empty() {
                    return self.inner.append(data);
                }
                let mut corrupt = data.to_vec();
                let bit = salt % (corrupt.len() as u64 * 8);
                corrupt[(bit / 8) as usize] ^= 1 << (bit % 8);
                self.inner.append(&corrupt)
            }
            None => self.inner.append(data),
        }
    }

    fn flush(&mut self) -> Result<()> {
        let path = self.path();
        if let Some((_, _, kind)) = self.shared.check(FaultOp::Flush, &path) {
            return Err(injected_error_kind("flush", &path, kind));
        }
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        let path = self.path();
        if let Some((_, _, kind)) = self.shared.check(FaultOp::Sync, &path) {
            // A failed fsync leaves everything since the last barrier
            // volatile: do NOT advance the synced prefix.
            return Err(injected_error_kind("sync", &path, kind));
        }
        self.inner.sync()?;
        let mut t = self.tracking.lock();
        t.synced_len.insert(path.clone(), self.inner.len());
        if let Some(ever) = t.created.get_mut(&path) {
            *ever = true;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct FaultRandomAccess {
    inner: Arc<dyn RandomAccessFile>,
    path: PathBuf,
    shared: Arc<FaultShared>,
}

impl RandomAccessFile for FaultRandomAccess {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        match self.shared.check(FaultOp::Read, &self.path) {
            Some((FaultAction::Fail | FaultAction::TornAppend, _, kind)) => {
                Err(injected_error_kind("read", &self.path, kind))
            }
            Some((FaultAction::FlipBit, salt, _)) => {
                let mut data = self.inner.read_at(offset, len)?;
                if !data.is_empty() {
                    let bit = salt % (data.len() as u64 * 8);
                    data[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                Ok(data)
            }
            None => self.inner.read_at(offset, len),
        }
    }

    fn size(&self) -> Result<u64> {
        self.inner.size()
    }
}

struct FaultSequential {
    inner: Box<dyn SequentialFile>,
    path: PathBuf,
    shared: Arc<FaultShared>,
}

impl SequentialFile for FaultSequential {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        match self.shared.check(FaultOp::Read, &self.path) {
            Some((FaultAction::Fail | FaultAction::TornAppend, _, kind)) => {
                Err(injected_error_kind("read", &self.path, kind))
            }
            Some((FaultAction::FlipBit, salt, _)) => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    let bit = salt % (n as u64 * 8);
                    buf[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                Ok(n)
            }
            None => self.inner.read(buf),
        }
    }
}

impl Env for FaultInjectionEnv {
    fn new_writable(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        if let Some((_, _, kind)) = self.shared.check(FaultOp::OpenWrite, path) {
            return Err(injected_error_kind("open-for-write", path, kind));
        }
        let inner = self.inner.new_writable(path)?;
        let handle = Arc::new(Mutex::new(path.to_path_buf()));
        let mut t = self.tracking.lock();
        t.created.entry(path.to_path_buf()).or_insert(false);
        t.synced_len.insert(path.to_path_buf(), 0);
        t.handles.retain(|h| h.strong_count() > 0);
        t.handles.push(Arc::downgrade(&handle));
        Ok(Box::new(TrackedWritable {
            inner,
            path: handle,
            tracking: self.tracking.clone(),
            appends_until_failure: self.appends_until_failure.clone(),
            shared: self.shared.clone(),
        }))
    }

    fn new_random_access(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        if let Some((_, _, kind)) = self.shared.check(FaultOp::OpenRead, path) {
            return Err(injected_error_kind("open-for-read", path, kind));
        }
        Ok(Arc::new(FaultRandomAccess {
            inner: self.inner.new_random_access(path)?,
            path: path.to_path_buf(),
            shared: self.shared.clone(),
        }))
    }

    fn new_sequential(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        if let Some((_, _, kind)) = self.shared.check(FaultOp::OpenRead, path) {
            return Err(injected_error_kind("open-for-read", path, kind));
        }
        Ok(Box::new(FaultSequential {
            inner: self.inner.new_sequential(path)?,
            path: path.to_path_buf(),
            shared: self.shared.clone(),
        }))
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }

    fn file_size(&self, path: &Path) -> Result<u64> {
        self.inner.file_size(path)
    }

    fn delete_file(&self, path: &Path) -> Result<()> {
        if let Some((_, _, kind)) = self.shared.check(FaultOp::Delete, path) {
            return Err(injected_error_kind("delete", path, kind));
        }
        let mut t = self.tracking.lock();
        t.created.remove(path);
        t.synced_len.remove(path);
        drop(t);
        self.inner.delete_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        if let Some((_, _, kind)) = self.shared.check(FaultOp::Rename, from) {
            return Err(injected_error_kind("rename", from, kind));
        }
        self.inner.rename(from, to)?;
        // Rename is treated as a durable metadata operation (write_atomic
        // syncs file contents before renaming).
        let mut t = self.tracking.lock();
        if let Some(len) = t.synced_len.remove(from) {
            t.synced_len.insert(to.to_path_buf(), len);
        }
        if let Some(ever) = t.created.remove(from) {
            t.created.insert(to.to_path_buf(), ever);
        }
        for handle in t.handles.iter().filter_map(Weak::upgrade) {
            let mut p = handle.lock();
            if *p == from {
                *p = to.to_path_buf();
            }
        }
        Ok(())
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
    fn crash_discards_unsynced_suffix() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        let p = Path::new("/wal");
        let mut w = env.new_writable(p).unwrap();
        w.append(b"durable").unwrap();
        w.sync().unwrap();
        w.append(b"-volatile").unwrap();
        drop(w);

        env.crash().unwrap();
        assert_eq!(env.read_to_vec(p).unwrap(), b"durable");
    }

    #[test]
    fn crash_deletes_never_synced_files() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        let p = Path::new("/tmp-table");
        env.new_writable(p).unwrap().append(b"x").unwrap();
        env.crash().unwrap();
        assert!(!env.file_exists(p));
    }

    #[test]
    fn crash_keeps_fully_synced_files() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        let p = Path::new("/t");
        let mut w = env.new_writable(p).unwrap();
        w.append(b"all synced").unwrap();
        w.sync().unwrap();
        drop(w);
        env.crash().unwrap();
        assert_eq!(env.read_to_vec(p).unwrap(), b"all synced");
    }

    #[test]
    fn rename_carries_durability() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        env.write_atomic(Path::new("/manifest"), b"meta").unwrap();
        env.crash().unwrap();
        assert_eq!(env.read_to_vec(Path::new("/manifest")).unwrap(), b"meta");
    }

    #[test]
    fn renamed_open_file_keeps_syncing_under_its_new_name() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        let mut w = env.new_writable(Path::new("/m.tmp")).unwrap();
        w.append(b"snap").unwrap();
        w.sync().unwrap();
        env.rename(Path::new("/m.tmp"), Path::new("/m")).unwrap();
        w.append(b"+edit").unwrap();
        w.sync().unwrap();
        w.append(b"+lost").unwrap();
        env.crash().unwrap();
        assert_eq!(env.read_to_vec(Path::new("/m")).unwrap(), b"snap+edit");
        assert!(!env.file_exists(Path::new("/m.tmp")));
    }

    #[test]
    fn injected_failures_fire_and_clear() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        env.fail_after_appends(2);
        let mut w = env.new_writable(Path::new("/f")).unwrap();
        w.append(b"1").unwrap();
        w.append(b"2").unwrap();
        assert!(w.append(b"3").is_err());
        env.clear_failures();
        w.append(b"4").unwrap();
    }

    #[test]
    fn second_crash_after_resync() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        let p = Path::new("/f");
        let mut w = env.new_writable(p).unwrap();
        w.append(b"a").unwrap();
        w.sync().unwrap();
        drop(w);
        env.crash().unwrap();

        // Reopen (truncating, like a fresh WAL) and write again.
        let mut w = env.new_writable(p).unwrap();
        w.append(b"bb").unwrap();
        w.sync().unwrap();
        w.append(b"ccc").unwrap();
        drop(w);
        env.crash().unwrap();
        assert_eq!(env.read_to_vec(p).unwrap(), b"bb");
    }

    #[test]
    fn plan_torn_append_writes_strict_prefix() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        env.set_plan(
            FaultPlan::new(7).rule(FaultRule::new(FaultOp::Append, FaultAction::TornAppend)),
        );
        let p = Path::new("/f");
        let mut w = env.new_writable(p).unwrap();
        assert!(w.append(b"0123456789").is_err());
        let written = env.read_to_vec(p).unwrap();
        assert!(written.len() < 10, "torn append must be a strict prefix");
        assert_eq!(&written[..], &b"0123456789"[..written.len()]);
        // Rule was once-only: the retry succeeds.
        w.append(b"retry").unwrap();
        assert_eq!(env.injected_faults(), 1);
        assert_eq!(env.fault_events().len(), 1);
    }

    #[test]
    fn plan_sync_failure_leaves_data_volatile() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        env.set_plan(FaultPlan::new(1).rule(FaultRule::new(FaultOp::Sync, FaultAction::Fail)));
        let p = Path::new("/f");
        let mut w = env.new_writable(p).unwrap();
        w.append(b"data").unwrap();
        assert!(w.sync().is_err());
        drop(w);
        env.crash().unwrap();
        // Never successfully synced: the crash removes the file.
        assert!(!env.file_exists(p));
    }

    #[test]
    fn plan_read_bit_flip_corrupts_exactly_one_bit() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        let p = Path::new("/f");
        let mut w = env.new_writable(p).unwrap();
        w.append(&[0u8; 64]).unwrap();
        w.sync().unwrap();
        drop(w);

        env.set_plan(FaultPlan::new(3).rule(FaultRule::new(FaultOp::Read, FaultAction::FlipBit)));
        let r = env.new_random_access(p).unwrap();
        let corrupt = r.read_at(0, 64).unwrap();
        let ones: u32 = corrupt.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped");
        // Once-only: a second read is clean.
        assert!(r.read_at(0, 64).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn plan_rules_filter_by_path_and_skip_count() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        env.set_plan(
            FaultPlan::new(5).rule(
                FaultRule::new(FaultOp::Append, FaultAction::Fail)
                    .on_path(".wal")
                    .after(1),
            ),
        );
        let mut other = env.new_writable(Path::new("/x.sst")).unwrap();
        other.append(b"unaffected").unwrap();
        let mut w = env.new_writable(Path::new("/000001.wal")).unwrap();
        w.append(b"first matching append passes").unwrap();
        assert!(w.append(b"second fails").is_err());
    }

    #[test]
    fn plan_rename_and_delete_failures() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        let p = Path::new("/f");
        let mut w = env.new_writable(p).unwrap();
        w.append(b"x").unwrap();
        w.sync().unwrap();
        drop(w);
        env.set_plan(
            FaultPlan::new(2)
                .rule(FaultRule::new(FaultOp::Rename, FaultAction::Fail))
                .rule(FaultRule::new(FaultOp::Delete, FaultAction::Fail)),
        );
        assert!(env.rename(p, Path::new("/g")).is_err());
        assert!(env.delete_file(p).is_err());
        // Both rules disarmed; the operations now succeed.
        env.rename(p, Path::new("/g")).unwrap();
        env.delete_file(Path::new("/g")).unwrap();
    }

    #[test]
    fn plan_probabilistic_rule_is_deterministic_per_seed() {
        let fire_pattern = |seed: u64| -> Vec<bool> {
            let env = FaultInjectionEnv::new(MemEnv::shared());
            env.set_plan(
                FaultPlan::new(seed).rule(
                    FaultRule::new(FaultOp::Append, FaultAction::Fail)
                        .with_probability(0.3)
                        .sticky(),
                ),
            );
            let mut w = env.new_writable(Path::new("/f")).unwrap();
            (0..64).map(|_| w.append(b"x").is_err()).collect()
        };
        let a = fire_pattern(42);
        assert_eq!(a, fire_pattern(42), "same seed must replay identically");
        assert!(a.iter().any(|&f| f), "some appends should fail");
        assert!(!a.iter().all(|&f| f), "some appends should succeed");
        assert_ne!(a, fire_pattern(43), "different seed, different schedule");
    }

    #[test]
    fn fail_times_rule_fails_exactly_k_then_succeeds() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        env.set_plan(FaultPlan::new(9).rule(FaultRule::fail_times(FaultOp::Append, 3)));
        let mut w = env.new_writable(Path::new("/f")).unwrap();
        for i in 0..3 {
            let err = w.append(b"x").unwrap_err();
            // The storm is transient by default: EINTR-class errors.
            assert!(err.is_transient(), "fault {i} should classify transient");
        }
        // Budget exhausted: the storm has cleared.
        w.append(b"x").unwrap();
        w.append(b"x").unwrap();
        assert_eq!(env.injected_faults(), 3);
    }

    #[test]
    fn error_kind_tags_injected_errors() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        env.set_plan(FaultPlan::new(4).rule(
            FaultRule::fail_times(FaultOp::Sync, 1).error_kind(std::io::ErrorKind::StorageFull),
        ));
        let mut w = env.new_writable(Path::new("/f")).unwrap();
        w.append(b"x").unwrap();
        let err = w.sync().unwrap_err();
        assert!(err.is_storage_full(), "expected ENOSPC-class error: {err}");
        assert!(err.is_transient());
        // Untagged rules stay permanent (ErrorKind::Other).
        env.set_plan(FaultPlan::new(4).rule(FaultRule::new(FaultOp::Sync, FaultAction::Fail)));
        let err = w.sync().unwrap_err();
        assert!(!err.is_transient(), "default injected errors are permanent");
    }

    #[test]
    fn flip_byte_is_durable_across_crash() {
        let env = FaultInjectionEnv::new(MemEnv::shared());
        let p = Path::new("/f");
        let mut w = env.new_writable(p).unwrap();
        w.append(&[0u8; 8]).unwrap();
        w.sync().unwrap();
        drop(w);
        env.flip_byte(p, 3).unwrap();
        env.crash().unwrap();
        let data = env.read_to_vec(p).unwrap();
        assert_eq!(data[3], 0x01);
        assert!(data.iter().enumerate().all(|(i, &b)| (i == 3) == (b != 0)));
    }
}
