//! Background maintenance: a prioritized job scheduler, worker threads,
//! the write-stall (backpressure) controller, and the health state
//! machine that lets the database degrade and self-heal instead of dying
//! on the first background failure.
//!
//! With `background_jobs = 0` (the default) none of this runs: every
//! structural operation executes inline under the write that triggered it
//! and the on-disk layout is byte-identical to previous versions. With
//! `background_jobs >= 1`, a write that fills the memtable *seals* it
//! (records its WAL in `PartitionMeta::sealed_wals` and continues on a
//! fresh memtable + WAL) and enqueues a flush; merges, scan-merges, GC,
//! and splits are likewise enqueued when their thresholds trip. Worker
//! threads drain the queue highest-priority-first, at most one job per
//! partition at a time.
//!
//! ## Backpressure
//!
//! Foreground writes consult [`stall_level`] before appending: past the
//! `slowdown_*` thresholds they sleep once for
//! [`crate::UniKvOptions::stall_sleep_micros`]; past the `stop_*`
//! thresholds they block until a background job completes. While the
//! database is [`HealthState::Degraded`] or worse the slowdown thresholds
//! are halved, shaving the ingest rate early to give retrying maintenance
//! headroom. Stall time and counts are reported in
//! [`crate::UniKvStats::snapshot`].
//!
//! ## Failure model
//!
//! A failed job is classified by [`unikv_common::Error::is_transient`]:
//!
//! * **Transient** (ENOSPC, EAGAIN/EINTR, timeouts, …) and within the
//!   per-job retry budget: the job is re-queued with exponential backoff
//!   and deterministic jitter ([`backoff_delay_ms`]), seeded from
//!   [`crate::UniKvOptions::maint_retry_jitter_seed`]. Whole-job retry is
//!   safe because every structural operation is commit-safe at every
//!   abort point (the crash matrix proves aborted attempts leave only
//!   orphan files, swept at reopen).
//! * **Permanent** (corruption, invalid argument, internal) or budget
//!   exhausted: the job is *quarantined* per `(kind, partition)` — parked
//!   out of the queue and re-probed every
//!   [`crate::UniKvOptions::maint_quarantine_probe_ms`] in case the
//!   condition cleared. The database keeps running.
//! * **Permanent failure of the META commit step** (or a worker panic):
//!   the database is *poisoned* — queued jobs are dropped and writes and
//!   structural operations return the original error. This is the only
//!   fail-stop path; everything else degrades.
//!
//! ## Health state machine
//!
//! `Healthy → Degraded → ReadOnly → Poisoned`, surfaced via
//! [`crate::UniKv::health`] and recomputed from the queue on every job
//! completion, so recovery is automatic:
//!
//! * **Degraded** — at least one job is retrying or quarantined. Writes
//!   continue; stall thresholds tighten.
//! * **ReadOnly** — a flush is quarantined (sealed memtables are backed
//!   up with no way to drain), a job is retrying out of disk space
//!   (ENOSPC watchdog), or a stalled writer found its partition's flush
//!   stuck in retry. Writes return [`unikv_common::Error::ReadOnly`];
//!   reads and scans keep serving.
//! * **Poisoned** — unrecoverable commit failure; sticky.
//!
//! The moment the offending job succeeds (a retry lands, a quarantine
//! probe finds the disk freed) the state recomputes back toward
//! `Healthy`.

use crate::db::DbInner;
use crate::options::UniKvOptions;
use crate::UniKvStats;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unikv_common::events::{EventBus, EventKind};
use unikv_common::rng::splitmix64_mix;
use unikv_common::{Error, Result};

/// Every named sync point in the flush/merge/GC/split commit sequences,
/// in rough execution order. Each structural operation calls
/// `SyncPoints::hit` between its commit steps; a hook that returns an
/// error there aborts the operation exactly as an I/O failure at that
/// step would, so a crash test can stop the world between any two steps
/// and exercise recovery. `*:begin` fires before any file is written,
/// `*:build` after new files are written and synced but before the
/// in-memory tier swap, `*:commit` immediately before the atomic META
/// commit, and `*:cleanup` after the commit but before obsolete files are
/// deleted. The same names fire in inline and background modes.
pub const SYNC_POINTS: &[&str] = &[
    "seal:begin",
    "seal:commit",
    "flush:build",
    "flush:install",
    "flush:commit",
    "flush:cleanup",
    "merge:begin",
    "merge:build",
    "merge:commit",
    "merge:cleanup",
    "scanmerge:begin",
    "scanmerge:build",
    "scanmerge:commit",
    "scanmerge:cleanup",
    "gc:begin",
    "gc:build",
    "gc:commit",
    "gc:cleanup",
    "split:begin",
    "split:build",
    "split:commit",
    "split:cleanup",
];

/// A test hook invoked at every named sync point; returning an error
/// aborts the surrounding structural operation at that step.
pub type SyncPointHook = Arc<dyn Fn(&str) -> Result<()> + Send + Sync>;

/// Registry of named sync points (see [`SYNC_POINTS`]). One per database;
/// no hook armed (the default) makes every hit a no-op.
#[derive(Default)]
pub struct SyncPoints {
    hook: RwLock<Option<SyncPointHook>>,
}

impl SyncPoints {
    /// Install `hook`, replacing any previous one.
    pub fn arm(&self, hook: SyncPointHook) {
        *self.hook.write() = Some(hook);
    }

    /// Remove the hook; subsequent hits are no-ops.
    pub fn disarm(&self) {
        *self.hook.write() = None;
    }

    /// Invoke the hook (if armed) for the sync point `name`.
    pub(crate) fn hit(&self, name: &str) -> Result<()> {
        debug_assert!(
            SYNC_POINTS.contains(&name),
            "unregistered sync point {name}"
        );
        let guard = self.hook.read();
        match guard.as_ref() {
            Some(hook) => hook(name),
            None => Ok(()),
        }
    }
}

/// The kind of structural operation a background job performs.
///
/// Declaration order is priority order: flushes run before merges (they
/// release sealed memtables and their WALs), merges before GC, GC before
/// splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobKind {
    /// Flush sealed memtables into UnsortedStore tables.
    Flush,
    /// Size-based merge of UnsortedStore tables (scan optimization).
    ScanMerge,
    /// Full UnsortedStore → SortedStore merge.
    Merge,
    /// Value-log garbage collection (and lazy value split).
    Gc,
    /// Median-key partition split.
    Split,
}

/// One queued unit of background work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// What to do.
    pub kind: JobKind,
    /// Partition **id** (not index — indexes shift under splits).
    pub partition: u32,
}

/// Overall database health (see the module docs for the transitions).
/// Ordered from best to worst so `>=` comparisons read naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HealthState {
    /// No maintenance job is retrying or quarantined.
    Healthy = 0,
    /// At least one job is retrying or quarantined; writes continue with
    /// tightened stall thresholds.
    Degraded = 1,
    /// Writes are rejected with [`unikv_common::Error::ReadOnly`] (flush
    /// stuck or disk full); reads and scans keep serving. Clears on its
    /// own once the blocking job succeeds.
    ReadOnly = 2,
    /// Unrecoverable commit failure; sticky until reopen.
    Poisoned = 3,
}

impl HealthState {
    fn from_u8(v: u8) -> HealthState {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            2 => HealthState::ReadOnly,
            _ => HealthState::Poisoned,
        }
    }
}

/// A maintenance job parked after exhausting its retry budget or failing
/// permanently (introspection view, see [`crate::UniKv::health_report`]).
#[derive(Debug, Clone)]
pub struct QuarantinedJob {
    /// The job's kind.
    pub kind: JobKind,
    /// Partition id the job targets.
    pub partition: u32,
    /// The error that sent it to quarantine.
    pub reason: String,
}

/// Snapshot of the health machinery (see [`crate::UniKv::health_report`]).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Current health state.
    pub state: HealthState,
    /// Jobs currently waiting out a backoff delay or re-running a retry.
    pub retrying: usize,
    /// Jobs parked in quarantine (probed periodically).
    pub quarantined: Vec<QuarantinedJob>,
    /// The fatal error message, when [`HealthState::Poisoned`].
    pub background_error: Option<String>,
}

/// Injectable time source for the retry scheduler: returns milliseconds
/// on an arbitrary monotonic scale. Tests install one so backoff and
/// quarantine probes elapse without real sleeping.
pub type MaintClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Retry/backoff policy knobs, derived from [`UniKvOptions`].
#[derive(Debug, Clone)]
pub(crate) struct RetryConfig {
    pub base_ms: u64,
    pub max_ms: u64,
    pub budget: u32,
    pub quarantine_probe_ms: u64,
    pub jitter_seed: u64,
}

impl RetryConfig {
    pub(crate) fn from_options(opts: &UniKvOptions) -> RetryConfig {
        RetryConfig {
            base_ms: opts.maint_retry_base_ms,
            max_ms: opts.maint_retry_max_ms,
            budget: opts.maint_retry_budget,
            quarantine_probe_ms: opts.maint_quarantine_probe_ms,
            jitter_seed: opts.maint_retry_jitter_seed,
        }
    }
}

/// Backoff delay before retry number `attempt` (1-based) of `job`:
/// exponential in the attempt (`base_ms << (attempt-1)`, capped at
/// `max_ms`) with deterministic "equal jitter" — the final delay is
/// uniform in `[exp/2, exp]`, where the jitter is a pure function of
/// `(seed, job, attempt)` so a pinned seed reproduces the exact schedule.
pub fn backoff_delay_ms(base_ms: u64, max_ms: u64, attempt: u32, seed: u64, job: &Job) -> u64 {
    let base = base_ms.max(1);
    let shift = attempt.saturating_sub(1).min(20);
    let exp = base.saturating_mul(1u64 << shift).min(max_ms.max(base));
    let salt = splitmix64_mix(
        seed ^ ((job.partition as u64) << 40) ^ ((job.kind as u64) << 32) ^ attempt as u64,
    );
    exp / 2 + salt % (exp / 2 + 1)
}

/// Backpressure level for a foreground write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallLevel {
    /// Proceed at full speed.
    None,
    /// Sleep once for `stall_sleep_micros`, then proceed.
    Slowdown,
    /// Block until a background job completes.
    Stop,
}

/// Pure stall policy: how hard to brake given a partition's debt.
///
/// `sealed_memtables` is the number of sealed memtables awaiting flush;
/// `unsorted_tables` is the UnsortedStore table count (merge backlog).
/// When `health` is Degraded or worse the slowdown thresholds are halved
/// (minimum 1): maintenance is already struggling, so ingest brakes
/// earlier. Stop thresholds are unchanged — a transient blip should slow
/// writes, not block them.
pub fn stall_level(
    sealed_memtables: usize,
    unsorted_tables: usize,
    health: HealthState,
    opts: &UniKvOptions,
) -> StallLevel {
    let (slow_sealed, slow_unsorted) = if health >= HealthState::Degraded {
        (
            (opts.slowdown_sealed_memtables / 2).max(1),
            (opts.slowdown_unsorted_tables / 2).max(1),
        )
    } else {
        (
            opts.slowdown_sealed_memtables,
            opts.slowdown_unsorted_tables,
        )
    };
    if sealed_memtables >= opts.stop_sealed_memtables
        || unsorted_tables >= opts.stop_unsorted_tables
    {
        StallLevel::Stop
    } else if sealed_memtables >= slow_sealed || unsorted_tables >= slow_unsorted {
        StallLevel::Slowdown
    } else {
        StallLevel::None
    }
}

/// A queued job plus its retry provenance.
struct PendingJob {
    job: Job,
    /// Failed attempts so far (0 = first run).
    attempts: u32,
    /// Not runnable before this scheduler time (backoff deadline).
    ready_at_ms: u64,
    /// Last failure was ENOSPC/EDQUOT — holds the ReadOnly watchdog.
    storage_full: bool,
}

/// Retry provenance of an executing job (mirrors [`PendingJob`]).
#[derive(Clone, Copy)]
struct InflightInfo {
    attempts: u32,
    storage_full: bool,
}

/// Why a job is quarantined and when to probe it next.
struct Quarantined {
    reason: String,
    probe_at_ms: u64,
}

struct QueueState {
    /// Pending jobs in arrival order; selection is priority-first and
    /// arrival-order within a priority, skipping jobs still in backoff.
    jobs: Vec<PendingJob>,
    /// Partition ids with a job currently executing (at most one each),
    /// with the running job's retry provenance.
    inflight: HashMap<u32, InflightInfo>,
    /// Number of active pause guards; workers do not start jobs while > 0.
    paused: usize,
    /// Jobs parked after budget exhaustion or a permanent (non-commit)
    /// failure; re-probed periodically, removed on success.
    quarantined: HashMap<Job, Quarantined>,
}

/// Worst health the queue state justifies on its own. The actual state
/// may be raised above this (ENOSPC watchdog, stalled writer escape) and
/// settles back to the computed target on the next job completion.
fn health_target(q: &QueueState) -> HealthState {
    let storage_full =
        q.jobs.iter().any(|p| p.storage_full) || q.inflight.values().any(|r| r.storage_full);
    if storage_full || q.quarantined.keys().any(|j| j.kind == JobKind::Flush) {
        HealthState::ReadOnly
    } else if !q.quarantined.is_empty()
        || q.jobs.iter().any(|p| p.attempts > 0)
        || q.inflight.values().any(|r| r.attempts > 0)
    {
        HealthState::Degraded
    } else {
        HealthState::Healthy
    }
}

struct HealthMeta {
    state: HealthState,
    /// Scheduler time of the last Healthy→unhealthy transition, for
    /// `time_degraded_ms` accounting.
    unhealthy_since_ms: u64,
}

/// Shared scheduler state between the database and its worker threads.
pub(crate) struct MaintState {
    cfg: RetryConfig,
    stats: Arc<UniKvStats>,
    /// Lifecycle event bus: health transitions, retries, and quarantines
    /// publish here so causal chains include degradation episodes.
    events: Arc<EventBus>,
    queue: Mutex<QueueState>,
    /// Signaled when work may be available (enqueue, job completion,
    /// unpause, shutdown, clock change).
    work_cv: Condvar,
    /// Signaled when `inflight` drains (pause guards and idle waiters).
    idle_cv: Condvar,
    /// Paired with `progress_cv` only; held briefly.
    progress: Mutex<()>,
    /// Signaled whenever a structural change commits or health changes —
    /// stalled writers re-evaluate on it.
    progress_cv: Condvar,
    shutdown: AtomicBool,
    poison_flag: AtomicBool,
    poison_msg: Mutex<Option<String>>,
    /// Lock-free mirror of `health_meta.state` for the hot write path.
    health: AtomicU8,
    health_meta: Mutex<HealthMeta>,
    /// Origin of the default scheduler clock.
    epoch: Instant,
    /// Test override for the scheduler clock (see [`MaintClock`]).
    clock: RwLock<Option<MaintClock>>,
}

impl MaintState {
    pub(crate) fn new(
        cfg: RetryConfig,
        stats: Arc<UniKvStats>,
        events: Arc<EventBus>,
    ) -> MaintState {
        MaintState {
            cfg,
            stats,
            events,
            queue: Mutex::new(QueueState {
                jobs: Vec::new(),
                inflight: HashMap::new(),
                paused: 0,
                quarantined: HashMap::new(),
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            progress: Mutex::new(()),
            progress_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            poison_flag: AtomicBool::new(false),
            poison_msg: Mutex::new(None),
            health: AtomicU8::new(HealthState::Healthy as u8),
            health_meta: Mutex::new(HealthMeta {
                state: HealthState::Healthy,
                unhealthy_since_ms: 0,
            }),
            epoch: Instant::now(),
            clock: RwLock::new(None),
        }
    }

    /// Scheduler time in milliseconds (monotonic, arbitrary origin).
    fn now_ms(&self) -> u64 {
        if let Some(clock) = self.clock.read().as_ref() {
            return clock();
        }
        self.epoch.elapsed().as_millis() as u64
    }

    /// Install (or clear) a test clock; backoff deadlines and quarantine
    /// probes are evaluated against it.
    pub(crate) fn set_clock(&self, clock: Option<MaintClock>) {
        *self.clock.write() = clock;
        self.work_cv.notify_all();
    }

    /// Enqueue `job` unless an identical one is already pending,
    /// quarantined (its probe owns the retry), or the database is shut
    /// down / poisoned. Returns the new queue depth when enqueued.
    pub(crate) fn schedule(&self, job: Job) -> Option<usize> {
        if self.shutdown.load(Ordering::Acquire) || self.poison_flag.load(Ordering::Acquire) {
            return None;
        }
        let mut q = self.queue.lock();
        if q.jobs.iter().any(|p| p.job == job) || q.quarantined.contains_key(&job) {
            return None;
        }
        let now = self.now_ms();
        q.jobs.push(PendingJob {
            job,
            attempts: 0,
            ready_at_ms: now,
            storage_full: false,
        });
        let depth = q.jobs.len();
        drop(q);
        self.work_cv.notify_one();
        Some(depth)
    }

    /// Block until a runnable job is available — returned with its failed
    /// attempt count and the queue depth after removal — or shutdown is
    /// requested (`None`). Shutdown interrupts backoff waits immediately:
    /// jobs still in backoff are abandoned like any other queued job.
    pub(crate) fn next_job(&self) -> Option<(Job, u32, usize)> {
        let mut q = self.queue.lock();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if q.paused == 0 {
                let now = self.now_ms();
                // Resurrect quarantined jobs whose probe deadline passed:
                // re-queue one attempt at the budget edge, so a transient
                // failure sends it straight back to quarantine while a
                // success clears it.
                let due: Vec<Job> = q
                    .quarantined
                    .iter()
                    .filter(|(_, meta)| meta.probe_at_ms <= now)
                    .map(|(job, _)| *job)
                    .collect();
                for job in due {
                    if let Some(meta) = q.quarantined.get_mut(&job) {
                        meta.probe_at_ms = now + self.cfg.quarantine_probe_ms.max(1);
                    }
                    if q.inflight.contains_key(&job.partition)
                        || q.jobs.iter().any(|p| p.job == job)
                    {
                        continue;
                    }
                    q.jobs.push(PendingJob {
                        job,
                        attempts: self.cfg.budget,
                        ready_at_ms: now,
                        storage_full: false,
                    });
                }
                // Highest priority first; FIFO within a priority. A job
                // whose partition already has one running is skipped so a
                // long merge cannot be overtaken by a conflicting split;
                // jobs still in backoff are skipped until their deadline.
                let runnable = q
                    .jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        !q.inflight.contains_key(&p.job.partition) && p.ready_at_ms <= now
                    })
                    .min_by_key(|(i, p)| (p.job.kind, *i))
                    .map(|(i, _)| i);
                if let Some(i) = runnable {
                    let p = q.jobs.remove(i);
                    q.inflight.insert(
                        p.job.partition,
                        InflightInfo {
                            attempts: p.attempts,
                            storage_full: p.storage_full,
                        },
                    );
                    return Some((p.job, p.attempts, q.jobs.len()));
                }
            }
            if q.jobs.is_empty() && q.quarantined.is_empty() {
                self.work_cv.wait(&mut q);
            } else {
                // Something could become due (backoff deadline, quarantine
                // probe, manual clock advance): tick instead of parking
                // indefinitely. Shutdown still interrupts via notify_all.
                let _ = self.work_cv.wait_for(&mut q, Duration::from_millis(10));
            }
        }
    }

    /// Mark the inflight job for `partition` done, settle health from the
    /// new queue state, and wake waiters.
    pub(crate) fn finish_job(&self, partition: u32) {
        let mut q = self.queue.lock();
        q.inflight.remove(&partition);
        let target = health_target(&q);
        drop(q);
        self.settle_health(target);
        self.work_cv.notify_all();
        self.idle_cv.notify_all();
        self.notify_progress();
    }

    /// Apply the failure policy to a job that returned `err` after
    /// `attempts` prior failures. `commit_step` marks errors raised by the
    /// atomic META commit — the only step whose permanent failure poisons.
    pub(crate) fn handle_job_failure(
        &self,
        job: Job,
        attempts: u32,
        err: &Error,
        commit_step: bool,
    ) {
        if self.poison_flag.load(Ordering::Acquire) {
            return;
        }
        if commit_step && !err.is_transient() {
            UniKvStats::add(&self.stats.maint_jobs_failed, 1);
            self.poison(format!(
                "{:?} job on partition {} failed committing META: {err}",
                job.kind, job.partition
            ));
            return;
        }
        if err.is_transient() && attempts < self.cfg.budget {
            let next_attempt = attempts + 1;
            let delay = backoff_delay_ms(
                self.cfg.base_ms,
                self.cfg.max_ms,
                next_attempt,
                self.cfg.jitter_seed,
                &job,
            );
            let ready_at_ms = self.now_ms() + delay;
            let storage_full = err.is_storage_full();
            let mut q = self.queue.lock();
            // A copy of the job scheduled while this attempt ran takes the
            // failure over: it inherits the attempt count and the backoff.
            // Left fresh, it would run at once with `attempts == 0`, so
            // health would read `Healthy` right after a counted retry and
            // the retry budget would never run out.
            match q.jobs.iter_mut().find(|p| p.job == job) {
                Some(p) => {
                    p.attempts = p.attempts.max(next_attempt);
                    p.ready_at_ms = p.ready_at_ms.max(ready_at_ms);
                    p.storage_full |= storage_full;
                }
                None => q.jobs.push(PendingJob {
                    job,
                    attempts: next_attempt,
                    ready_at_ms,
                    storage_full,
                }),
            }
            let target = health_target(&q);
            drop(q);
            self.settle_health(target);
            // Count and publish only once the health state reflects the
            // re-queued job: an observer must never see a counted retry
            // while health still reads `Healthy`.
            UniKvStats::add(&self.stats.maint_job_retries, 1);
            let detail = if self.events.has_listeners() {
                format!("{:?} attempt {next_attempt}: {err}", job.kind)
            } else {
                String::new()
            };
            self.events.publish(
                EventKind::JobRetry,
                job.partition,
                None,
                vec![],
                vec![],
                delay,
                detail,
            );
            self.work_cv.notify_all();
        } else {
            let mut q = self.queue.lock();
            // The quarantine probe owns the retry: a copy scheduled while
            // this attempt ran would otherwise run at once as a fresh
            // attempt and restart the retry budget from zero.
            q.jobs.retain(|p| p.job != job);
            let newly = !q.quarantined.contains_key(&job);
            q.quarantined.insert(
                job,
                Quarantined {
                    reason: err.to_string(),
                    probe_at_ms: self.now_ms() + self.cfg.quarantine_probe_ms.max(1),
                },
            );
            let target = health_target(&q);
            drop(q);
            // Same ordering as the retry arm: settle, then count.
            self.settle_health(target);
            if newly {
                UniKvStats::add(&self.stats.maint_jobs_quarantined, 1);
                let detail = if self.events.has_listeners() {
                    format!("{:?}: {err}", job.kind)
                } else {
                    String::new()
                };
                self.events.publish(
                    EventKind::JobQuarantine,
                    job.partition,
                    None,
                    vec![],
                    vec![],
                    0,
                    detail,
                );
            }
            self.idle_cv.notify_all();
        }
    }

    /// Record that `job` completed successfully: clears its quarantine
    /// entry, if any. Health settles in the subsequent [`Self::finish_job`].
    pub(crate) fn job_succeeded(&self, job: &Job) {
        let mut q = self.queue.lock();
        q.quarantined.remove(job);
    }

    /// Current health (lock-free; hot-path safe).
    pub(crate) fn health_state(&self) -> HealthState {
        HealthState::from_u8(self.health.load(Ordering::Acquire))
    }

    /// The error a write must return given current health, if any.
    pub(crate) fn write_gate_error(&self) -> Option<Error> {
        match self.health_state() {
            HealthState::Poisoned => self.poisoned_error(),
            HealthState::ReadOnly => Some(Error::read_only(self.read_only_reason())),
            _ => None,
        }
    }

    /// Human-readable cause for the current ReadOnly state.
    fn read_only_reason(&self) -> String {
        let q = self.queue.lock();
        if let Some((job, meta)) = q
            .quarantined
            .iter()
            .find(|(job, _)| job.kind == JobKind::Flush)
        {
            return format!(
                "flush quarantined on partition {}: {}",
                job.partition, meta.reason
            );
        }
        if q.jobs.iter().any(|p| p.storage_full) || q.inflight.values().any(|r| r.storage_full) {
            return "storage full: maintenance retrying until space frees".to_string();
        }
        "maintenance backlog: flush stuck in retry".to_string()
    }

    /// True if partition `partition` cannot drain sealed memtables right
    /// now: its flush is quarantined or waiting out a retry backoff. A
    /// hard-stopped writer uses this to fail fast with a typed ReadOnly
    /// error instead of blocking for the whole backoff schedule.
    pub(crate) fn flush_blocked(&self, partition: u32) -> bool {
        let q = self.queue.lock();
        q.quarantined
            .keys()
            .any(|j| j.partition == partition && j.kind == JobKind::Flush)
            || q.jobs.iter().any(|p| {
                p.job.partition == partition && p.job.kind == JobKind::Flush && p.attempts > 0
            })
            || q.inflight.get(&partition).is_some_and(|r| r.attempts > 0)
    }

    /// Snapshot for [`crate::UniKv::health_report`].
    pub(crate) fn health_report(&self) -> HealthReport {
        let q = self.queue.lock();
        let retrying = q.jobs.iter().filter(|p| p.attempts > 0).count()
            + q.inflight.values().filter(|r| r.attempts > 0).count();
        let quarantined = q
            .quarantined
            .iter()
            .map(|(job, meta)| QuarantinedJob {
                kind: job.kind,
                partition: job.partition,
                reason: meta.reason.clone(),
            })
            .collect();
        drop(q);
        HealthReport {
            state: self.health_state(),
            retrying,
            quarantined,
            background_error: self.poison_message(),
        }
    }

    /// Raise health to `target` if it is worse than the current state
    /// (never downgrades; Poisoned is sticky). Used by the write path's
    /// flush-blocked escape — the next job completion settles it back.
    pub(crate) fn raise_health(&self, target: HealthState) {
        let mut meta = self.health_meta.lock();
        if meta.state >= target {
            return;
        }
        self.transition_locked(&mut meta, target);
    }

    /// Move health to `target` unless poisoned or already there.
    fn settle_health(&self, target: HealthState) {
        let mut meta = self.health_meta.lock();
        if meta.state == HealthState::Poisoned || meta.state == target {
            return;
        }
        self.transition_locked(&mut meta, target);
    }

    fn transition_locked(&self, meta: &mut HealthMeta, target: HealthState) {
        let now = self.now_ms();
        let from = meta.state;
        if meta.state == HealthState::Healthy {
            meta.unhealthy_since_ms = now;
        } else if target == HealthState::Healthy {
            UniKvStats::add(
                &self.stats.time_degraded_ms,
                now.saturating_sub(meta.unhealthy_since_ms),
            );
        }
        meta.state = target;
        self.health.store(target as u8, Ordering::Release);
        UniKvStats::add(&self.stats.health_transitions, 1);
        let detail = if self.events.has_listeners() {
            format!("{from:?}->{target:?}")
        } else {
            String::new()
        };
        self.events
            .publish(EventKind::HealthChange, 0, None, vec![], vec![], 0, detail);
        self.notify_progress();
    }

    /// Wake stalled writers (and anyone else watching for progress).
    pub(crate) fn notify_progress(&self) {
        let _g = self.progress.lock();
        drop(_g);
        self.progress_cv.notify_all();
    }

    /// Block until progress is signaled or `timeout` elapses. The caller
    /// re-checks its condition either way (timeouts bound lost wakeups).
    pub(crate) fn wait_for_progress(&self, timeout: Duration) {
        let mut g = self.progress.lock();
        let _ = self.progress_cv.wait_for(&mut g, timeout);
    }

    /// Stop workers from *starting* jobs and wait for inflight ones to
    /// finish. Used by foreground structural operations (explicit flush /
    /// compaction / GC) so they never race a worker's unlocked phase.
    pub(crate) fn pause(&self) -> PauseGuard<'_> {
        let mut q = self.queue.lock();
        q.paused += 1;
        while !q.inflight.is_empty() {
            self.idle_cv.wait(&mut q);
        }
        PauseGuard { state: self }
    }

    /// Block until the queue and inflight set are both empty (or the
    /// database is shut down / poisoned, which drops queued jobs). Jobs
    /// waiting out a backoff count as pending; quarantined jobs do not —
    /// they are parked indefinitely between probes.
    pub(crate) fn wait_idle(&self) {
        let mut q = self.queue.lock();
        while !(q.jobs.is_empty() && q.inflight.is_empty()) {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            self.idle_cv.wait(&mut q);
        }
    }

    /// Record a fatal background error; queued jobs are dropped and all
    /// waiters are woken. The first error wins.
    pub(crate) fn poison(&self, msg: String) {
        {
            let mut m = self.poison_msg.lock();
            if m.is_none() {
                *m = Some(msg);
            }
        }
        self.poison_flag.store(true, Ordering::Release);
        {
            let mut meta = self.health_meta.lock();
            if meta.state != HealthState::Poisoned {
                self.transition_locked(&mut meta, HealthState::Poisoned);
            }
        }
        let mut q = self.queue.lock();
        q.jobs.clear();
        drop(q);
        self.work_cv.notify_all();
        self.idle_cv.notify_all();
        self.notify_progress();
    }

    /// The fatal background error, if any, as a returnable `Error`.
    pub(crate) fn poisoned_error(&self) -> Option<Error> {
        if !self.poison_flag.load(Ordering::Acquire) {
            return None;
        }
        let msg = self
            .poison_msg
            .lock()
            .clone()
            .unwrap_or_else(|| "unknown background error".to_string());
        Some(Error::internal(format!(
            "database poisoned by background maintenance failure: {msg}"
        )))
    }

    /// The raw poison message, if any (introspection hook).
    pub(crate) fn poison_message(&self) -> Option<String> {
        self.poison_flag
            .load(Ordering::Acquire)
            .then(|| self.poison_msg.lock().clone())
            .flatten()
    }

    /// Ask workers to exit after their current job; wakes everything,
    /// including workers ticking through a backoff wait.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.work_cv.notify_all();
        self.idle_cv.notify_all();
        self.notify_progress();
    }
}

/// RAII token from [`MaintState::pause`]; dropping it lets workers resume.
pub(crate) struct PauseGuard<'a> {
    state: &'a MaintState,
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        let mut q = self.state.queue.lock();
        q.paused -= 1;
        drop(q);
        self.state.work_cv.notify_all();
    }
}

/// Body of one maintenance worker thread.
pub(crate) fn worker_loop(inner: Arc<DbInner>) {
    while let Some((job, attempts, depth)) = inner.maint.next_job() {
        inner
            .stats
            .maint_queue_depth
            .store(depth as u64, Ordering::Relaxed);
        inner.metrics.maint_queue_depth.set(depth as u64);
        // Reset the commit-step marker so a stale flag from a previous
        // job on this thread cannot misclassify this one's failure.
        let _ = crate::db::take_commit_failure();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.run_job(&job)));
        match result {
            Ok(Ok(())) => {
                UniKvStats::add(&inner.stats.maint_jobs_completed, 1);
                inner.maint.job_succeeded(&job);
            }
            Ok(Err(e)) => {
                let commit_step = crate::db::take_commit_failure();
                inner
                    .maint
                    .handle_job_failure(job, attempts, &e, commit_step);
            }
            Err(_) => {
                UniKvStats::add(&inner.stats.maint_jobs_failed, 1);
                inner.maint.poison(format!(
                    "{:?} job on partition {} panicked",
                    job.kind, job.partition
                ));
            }
        }
        inner.maint.finish_job(job.partition);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    fn opts() -> UniKvOptions {
        UniKvOptions {
            slowdown_sealed_memtables: 2,
            stop_sealed_memtables: 4,
            slowdown_unsorted_tables: 8,
            stop_unsorted_tables: 12,
            ..Default::default()
        }
    }

    fn cfg() -> RetryConfig {
        RetryConfig {
            base_ms: 2,
            max_ms: 40,
            budget: 3,
            quarantine_probe_ms: 50,
            jitter_seed: 7,
        }
    }

    fn mstate() -> MaintState {
        MaintState::new(
            cfg(),
            Arc::new(UniKvStats::default()),
            EventBus::new(vec![], 1),
        )
    }

    /// A state driven by a manually advanced clock (no real sleeping).
    fn mstate_with_clock() -> (MaintState, Arc<AtomicU64>) {
        let m = mstate();
        let clock = Arc::new(AtomicU64::new(0));
        let c = clock.clone();
        m.set_clock(Some(Arc::new(move || c.load(Ordering::SeqCst))));
        (m, clock)
    }

    fn job(kind: JobKind, partition: u32) -> Job {
        Job { kind, partition }
    }

    fn transient() -> Error {
        Error::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected",
        ))
    }

    #[test]
    fn stall_level_thresholds_engage_and_release() {
        let o = opts();
        let h = HealthState::Healthy;
        assert_eq!(stall_level(0, 0, h, &o), StallLevel::None);
        assert_eq!(stall_level(1, 7, h, &o), StallLevel::None);
        // Either dimension can trip the slowdown...
        assert_eq!(stall_level(2, 0, h, &o), StallLevel::Slowdown);
        assert_eq!(stall_level(0, 8, h, &o), StallLevel::Slowdown);
        assert_eq!(stall_level(3, 11, h, &o), StallLevel::Slowdown);
        // ...and the hard stop.
        assert_eq!(stall_level(4, 0, h, &o), StallLevel::Stop);
        assert_eq!(stall_level(0, 12, h, &o), StallLevel::Stop);
        assert_eq!(stall_level(9, 99, h, &o), StallLevel::Stop);
        // Debt paid down → level releases.
        assert_eq!(stall_level(3, 0, h, &o), StallLevel::Slowdown);
        assert_eq!(stall_level(1, 0, h, &o), StallLevel::None);
    }

    #[test]
    fn stall_level_tightens_when_degraded() {
        let o = opts();
        // Healthy: sealed=1, unsorted=4 is full speed.
        assert_eq!(
            stall_level(1, 4, HealthState::Healthy, &o),
            StallLevel::None
        );
        // Degraded halves the slowdown thresholds (2→1, 8→4).
        assert_eq!(
            stall_level(1, 0, HealthState::Degraded, &o),
            StallLevel::Slowdown
        );
        assert_eq!(
            stall_level(0, 4, HealthState::Degraded, &o),
            StallLevel::Slowdown
        );
        // Stop thresholds are unchanged.
        assert_eq!(
            stall_level(3, 0, HealthState::Degraded, &o),
            StallLevel::Slowdown
        );
        assert_eq!(
            stall_level(4, 0, HealthState::Degraded, &o),
            StallLevel::Stop
        );
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let j = job(JobKind::Merge, 3);
        for attempt in 1..=8u32 {
            let exp = 2u64.saturating_mul(1 << (attempt - 1)).min(40);
            let d = backoff_delay_ms(2, 40, attempt, 1234, &j);
            // Equal jitter: uniform in [exp/2, exp].
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d} vs exp {exp}"
            );
            // Deterministic under a pinned seed.
            assert_eq!(d, backoff_delay_ms(2, 40, attempt, 1234, &j));
        }
        // The jitter actually varies across jobs and seeds.
        let delays: HashSet<u64> = (0..16)
            .map(|p| backoff_delay_ms(1000, 64_000, 5, 42, &job(JobKind::Gc, p)))
            .collect();
        assert!(delays.len() > 1, "jitter collapsed: {delays:?}");
        assert_ne!(
            backoff_delay_ms(1000, 64_000, 5, 1, &j),
            backoff_delay_ms(1000, 64_000, 5, 2, &j),
        );
    }

    #[test]
    fn queue_prioritizes_and_dedups() {
        let m = mstate();
        assert!(m.schedule(job(JobKind::Gc, 1)).is_some());
        assert!(m.schedule(job(JobKind::Flush, 2)).is_some());
        // Duplicate (kind, partition) pairs collapse.
        assert!(m.schedule(job(JobKind::Gc, 1)).is_none());
        assert!(m.schedule(job(JobKind::Merge, 3)).is_some());

        let (j1, _, _) = m.next_job().unwrap();
        assert_eq!(j1.kind, JobKind::Flush);
        let (j2, _, _) = m.next_job().unwrap();
        assert_eq!(j2.kind, JobKind::Merge);
        let (j3, _, depth) = m.next_job().unwrap();
        assert_eq!(j3.kind, JobKind::Gc);
        assert_eq!(depth, 0);
        m.finish_job(j1.partition);
        m.finish_job(j2.partition);
        m.finish_job(j3.partition);
        m.wait_idle();
    }

    #[test]
    fn one_inflight_job_per_partition() {
        let m = mstate();
        m.schedule(job(JobKind::Flush, 7));
        m.schedule(job(JobKind::Merge, 7));
        m.schedule(job(JobKind::Gc, 8));
        let (a, _, _) = m.next_job().unwrap();
        assert_eq!(a.partition, 7);
        // Partition 7 is busy; the next runnable job is partition 8's.
        let (b, _, _) = m.next_job().unwrap();
        assert_eq!(b.partition, 8);
        m.finish_job(a.partition);
        let (c, _, _) = m.next_job().unwrap();
        assert_eq!((c.kind, c.partition), (JobKind::Merge, 7));
        m.finish_job(b.partition);
        m.finish_job(c.partition);
    }

    #[test]
    fn transient_failure_requeues_with_backoff_and_heals() {
        let (m, clock) = mstate_with_clock();
        m.schedule(job(JobKind::Gc, 4));
        let (j, attempts, _) = m.next_job().unwrap();
        assert_eq!(attempts, 0);
        m.handle_job_failure(j, attempts, &transient(), false);
        m.finish_job(j.partition);
        assert_eq!(m.health_state(), HealthState::Degraded);
        assert_eq!(m.stats.maint_job_retries.load(Ordering::Relaxed), 1);
        // The retry is not runnable until its backoff deadline passes.
        assert!(m.health_report().retrying == 1);
        clock.fetch_add(1000, Ordering::SeqCst);
        let (j2, attempts2, _) = m.next_job().unwrap();
        assert_eq!((j2, attempts2), (j, 1));
        // Success settles health back to Healthy and accrues degraded time.
        m.job_succeeded(&j2);
        m.finish_job(j2.partition);
        assert_eq!(m.health_state(), HealthState::Healthy);
        assert!(m.stats.health_transitions.load(Ordering::Relaxed) >= 2);
        assert!(m.stats.time_degraded_ms.load(Ordering::Relaxed) >= 1000);
        m.wait_idle();
    }

    /// A copy of a job scheduled while the job runs inherits its failure:
    /// it does not run at once as a fresh attempt, and health reads
    /// `Degraded` as soon as the retry is counted.
    #[test]
    fn failure_carries_over_to_copy_scheduled_meanwhile() {
        let (m, clock) = mstate_with_clock();
        let j = job(JobKind::Flush, 5);
        m.schedule(j);
        let (got, attempts, _) = m.next_job().unwrap();
        assert!(
            m.schedule(j).is_some(),
            "a copy queues behind the running job"
        );
        m.handle_job_failure(got, attempts, &transient(), false);
        assert_eq!(m.health_state(), HealthState::Degraded);
        m.finish_job(got.partition);
        assert_eq!(m.health_state(), HealthState::Degraded);
        assert_eq!(m.health_report().retrying, 1);
        clock.fetch_add(1000, Ordering::SeqCst);
        let (again, attempts, depth) = m.next_job().unwrap();
        assert_eq!((again, attempts, depth), (j, 1, 0));
        m.job_succeeded(&again);
        m.finish_job(again.partition);
        assert_eq!(m.health_state(), HealthState::Healthy);
    }

    /// A copy scheduled during the attempt that exhausts the budget is
    /// dropped: the quarantine probe owns the retry, so nothing runs again
    /// before the probe deadline and the budget does not restart.
    #[test]
    fn quarantine_drops_copy_scheduled_meanwhile() {
        let (m, clock) = mstate_with_clock();
        let j = job(JobKind::Gc, 6);
        m.schedule(j);
        for expect in 0..=3u32 {
            clock.fetch_add(1000, Ordering::SeqCst);
            let (got, attempts, _) = m.next_job().unwrap();
            assert_eq!((got, attempts), (j, expect));
            if expect == 3 {
                assert!(
                    m.schedule(j).is_some(),
                    "a copy queues behind the last attempt"
                );
            }
            m.handle_job_failure(got, attempts, &transient(), false);
            m.finish_job(got.partition);
        }
        assert_eq!(m.stats.maint_jobs_quarantined.load(Ordering::Relaxed), 1);
        assert!(
            m.queue.lock().jobs.is_empty(),
            "no pending copy left behind"
        );
        // Only the probe offers the job again, at the budget edge.
        clock.fetch_add(51, Ordering::SeqCst);
        let (got, attempts, depth) = m.next_job().unwrap();
        assert_eq!((got, attempts, depth), (j, 3, 0));
        m.handle_job_failure(got, attempts, &transient(), false);
        m.finish_job(got.partition);
        assert_eq!(m.stats.maint_job_retries.load(Ordering::Relaxed), 3);
        assert_eq!(m.health_report().quarantined.len(), 1);
    }

    #[test]
    fn budget_exhaustion_quarantines_and_probe_resurrects() {
        let (m, clock) = mstate_with_clock();
        let j = job(JobKind::Gc, 2);
        m.schedule(j);
        // Burn the whole retry budget on transient failures.
        for expect in 0..=3u32 {
            clock.fetch_add(1000, Ordering::SeqCst);
            let (got, attempts, _) = m.next_job().unwrap();
            assert_eq!((got, attempts), (j, expect));
            m.handle_job_failure(got, attempts, &transient(), false);
            m.finish_job(got.partition);
        }
        assert_eq!(m.stats.maint_job_retries.load(Ordering::Relaxed), 3);
        assert_eq!(m.stats.maint_jobs_quarantined.load(Ordering::Relaxed), 1);
        assert_eq!(m.health_state(), HealthState::Degraded);
        let report = m.health_report();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].partition, 2);
        // Re-scheduling a quarantined job is refused: the probe owns it.
        assert!(m.schedule(j).is_none());
        m.wait_idle(); // quarantined jobs do not block idle

        // After the probe interval the job is offered again; success
        // clears the quarantine and health recovers.
        clock.fetch_add(51, Ordering::SeqCst);
        let (got, attempts, _) = m.next_job().unwrap();
        assert_eq!((got, attempts), (j, 3));
        m.job_succeeded(&got);
        m.finish_job(got.partition);
        assert_eq!(m.health_state(), HealthState::Healthy);
        assert!(m.health_report().quarantined.is_empty());
    }

    #[test]
    fn permanent_noncommit_failure_quarantines_not_poisons() {
        let m = mstate();
        let j = job(JobKind::Merge, 1);
        m.schedule(j);
        let (got, attempts, _) = m.next_job().unwrap();
        m.handle_job_failure(got, attempts, &Error::corruption("bad block"), false);
        m.finish_job(got.partition);
        assert_eq!(m.stats.maint_job_retries.load(Ordering::Relaxed), 0);
        assert_eq!(m.stats.maint_jobs_quarantined.load(Ordering::Relaxed), 1);
        assert_eq!(m.health_state(), HealthState::Degraded);
        assert!(m.poisoned_error().is_none());
        let report = m.health_report();
        assert!(report.quarantined[0].reason.contains("bad block"));
    }

    #[test]
    fn quarantined_flush_forces_read_only() {
        let m = mstate();
        let j = job(JobKind::Flush, 5);
        m.schedule(j);
        let (got, attempts, _) = m.next_job().unwrap();
        m.handle_job_failure(got, attempts, &Error::corruption("sst build"), false);
        m.finish_job(got.partition);
        assert_eq!(m.health_state(), HealthState::ReadOnly);
        let gate = m.write_gate_error().unwrap();
        assert!(gate.is_read_only(), "unexpected gate error: {gate}");
        assert!(gate.to_string().contains("partition 5"));
        assert!(m.flush_blocked(5));
        assert!(!m.flush_blocked(6));
    }

    #[test]
    fn storage_full_retry_holds_read_only_until_success() {
        let (m, clock) = mstate_with_clock();
        let j = job(JobKind::Merge, 0);
        m.schedule(j);
        let (got, attempts, _) = m.next_job().unwrap();
        let enospc = Error::Io(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "disk full",
        ));
        m.handle_job_failure(got, attempts, &enospc, false);
        m.finish_job(got.partition);
        assert_eq!(m.health_state(), HealthState::ReadOnly);
        assert!(m
            .write_gate_error()
            .unwrap()
            .to_string()
            .contains("storage full"));
        // Space frees, the retry succeeds, writes reopen.
        clock.fetch_add(1000, Ordering::SeqCst);
        let (got, _, _) = m.next_job().unwrap();
        m.job_succeeded(&got);
        m.finish_job(got.partition);
        assert_eq!(m.health_state(), HealthState::Healthy);
        assert!(m.write_gate_error().is_none());
    }

    #[test]
    fn permanent_commit_failure_poisons() {
        let m = mstate();
        let j = job(JobKind::Flush, 1);
        m.schedule(j);
        let (got, attempts, _) = m.next_job().unwrap();
        m.handle_job_failure(got, attempts, &Error::internal("meta write lost"), true);
        m.finish_job(got.partition);
        assert_eq!(m.health_state(), HealthState::Poisoned);
        assert_eq!(m.stats.maint_jobs_failed.load(Ordering::Relaxed), 1);
        let gate = m.write_gate_error().unwrap();
        assert!(gate.to_string().contains("poisoned"));
        // Poisoned is sticky: later successes cannot downgrade it.
        m.finish_job(got.partition);
        assert_eq!(m.health_state(), HealthState::Poisoned);
    }

    #[test]
    fn transient_commit_failure_retries_instead_of_poisoning() {
        let m = mstate();
        let j = job(JobKind::Flush, 1);
        m.schedule(j);
        let (got, attempts, _) = m.next_job().unwrap();
        m.handle_job_failure(got, attempts, &transient(), true);
        m.finish_job(got.partition);
        assert!(m.poisoned_error().is_none());
        assert_eq!(m.stats.maint_job_retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn poison_drops_queue_and_reports() {
        let m = mstate();
        m.schedule(job(JobKind::Flush, 1));
        m.poison("disk exploded".to_string());
        assert!(m.poisoned_error().is_some());
        assert!(m.poison_message().unwrap().contains("disk exploded"));
        assert_eq!(m.health_state(), HealthState::Poisoned);
        // New work is refused and waiters do not hang.
        assert!(m.schedule(job(JobKind::Flush, 1)).is_none());
        m.wait_idle();
        // First error wins.
        m.poison("second".to_string());
        assert!(m.poison_message().unwrap().contains("disk exploded"));
    }

    #[test]
    fn sync_points_invoke_hook_and_disarm() {
        let sp = SyncPoints::default();
        assert!(sp.hit("flush:commit").is_ok(), "unarmed hits are no-ops");
        let fired = Arc::new(Mutex::new(Vec::new()));
        let fired2 = fired.clone();
        sp.arm(Arc::new(move |name: &str| {
            fired2.lock().push(name.to_string());
            if name == "gc:commit" {
                Err(Error::internal("crash here"))
            } else {
                Ok(())
            }
        }));
        assert!(sp.hit("flush:commit").is_ok());
        assert!(sp.hit("gc:commit").is_err());
        assert_eq!(*fired.lock(), vec!["flush:commit", "gc:commit"]);
        sp.disarm();
        assert!(sp.hit("gc:commit").is_ok());
    }

    #[test]
    fn sync_point_names_are_unique() {
        let set: HashSet<&str> = SYNC_POINTS.iter().copied().collect();
        assert_eq!(set.len(), SYNC_POINTS.len());
    }

    #[test]
    fn shutdown_unblocks_workers() {
        let m = Arc::new(mstate());
        let m2 = m.clone();
        let t = std::thread::spawn(move || m2.next_job());
        std::thread::sleep(Duration::from_millis(20));
        m.begin_shutdown();
        assert!(t.join().unwrap().is_none());
    }

    #[test]
    fn shutdown_interrupts_backoff_wait() {
        // A retry parked an hour out must not delay shutdown.
        let m = Arc::new(MaintState::new(
            RetryConfig {
                base_ms: 3_600_000,
                max_ms: 7_200_000,
                budget: 3,
                quarantine_probe_ms: 3_600_000,
                jitter_seed: 9,
            },
            Arc::new(UniKvStats::default()),
            EventBus::new(vec![], 1),
        ));
        m.schedule(job(JobKind::Gc, 0));
        let (j, attempts, _) = m.next_job().unwrap();
        m.handle_job_failure(j, attempts, &transient(), false);
        m.finish_job(j.partition);
        let m2 = m.clone();
        let t = std::thread::spawn(move || m2.next_job());
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        m.begin_shutdown();
        assert!(t.join().unwrap().is_none());
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "shutdown waited out the backoff"
        );
    }
}
