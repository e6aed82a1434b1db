//! `tetrislock serve` — the long-running, self-healing protection
//! daemon.
//!
//! [`run_serve`] watches an intake directory for circuit files
//! (`.real` / `.qasm`), admits them into a priority queue, and drives
//! each through the checkpointed [`crate::job`] pipeline on a worker
//! pool. Unlike [`crate::batch`], which runs a fixed set of inputs to
//! completion, serve is built to survive a hostile environment
//! indefinitely:
//!
//! - **Stability window** — a file is only admitted once its length and
//!   mtime have been unchanged for `stability_ms`, so half-written
//!   inputs from slow producers are never picked up.
//! - **Retry with backoff** — every stage attempt runs under a
//!   wall-clock timeout; failures (stage errors, panics, timeouts) cost
//!   a strike and are retried after a deterministic seeded backoff
//!   ([`crate::retry::RetryPolicy`]).
//! - **Crash-loop quarantine** — when the [`crate::retry::CircuitBreaker`]
//!   opens (N consecutive strikes), the job is moved to `failed/` with a
//!   typed, serialized [`FailureReport`] instead of wedging the queue.
//!   Inputs that do not even parse are quarantined at intake as
//!   [`FailureKind::Poisoned`].
//! - **Priorities and cancellation** — an input named `p<k>--<id>.real`
//!   runs at priority `k` (lower runs first, FIFO within a priority);
//!   dropping `<id>.cancel` into the watch directory cancels the job
//!   whether it is queued or in flight.
//! - **Graceful drain** — dropping a file named
//!   [`SHUTDOWN_SENTINEL`] stops admission, lets in-flight jobs finish
//!   (every stage is checkpointed regardless), writes a final manifest
//!   and status, and returns. A `kill -9` at any instant instead
//!   resumes through the PR 8 checkpoint path on the next start:
//!   inputs stay in the watch directory until their job reaches a
//!   terminal state, so nothing is ever lost or duplicated.
//! - **Observable health** — every poll emits a `serve.heartbeat`
//!   qobs event and atomically rewrites `status.json` (one flat JSON
//!   object; see `docs/observability.md`), rendered by
//!   `tetrislock report --serve`.
//!
//! The idle loop sleeps `poll_ms` between directory scans — idle CPU is
//! polling-bounded by construction, never a busy-spin.

use crate::batch::{self, JobFailure, JobOutcome};
use crate::job::{load_checkpoint, save_checkpoint, JobConfig, JobState};
use crate::retry::{CircuitBreaker, RetryPolicy};
use qcir::{persist, Circuit};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

static SERVE_ADMITTED: qobs::Counter = qobs::Counter::new("serve.admitted");
static SERVE_COMPLETED: qobs::Counter = qobs::Counter::new("serve.completed");
static SERVE_QUARANTINED: qobs::Counter = qobs::Counter::new("serve.quarantined");
static SERVE_CANCELLED: qobs::Counter = qobs::Counter::new("serve.cancelled");
static SERVE_RETRIES: qobs::Counter = qobs::Counter::new("serve.retries");

/// File name that, when dropped into the watch directory, triggers a
/// graceful drain: stop admitting, finish in-flight jobs, write the
/// final manifest and status, exit cleanly.
pub const SHUTDOWN_SENTINEL: &str = "shutdown";

/// Suffix of a cancellation sentinel: dropping `<id>.cancel` into the
/// watch directory cancels job `<id>` (queued or in flight).
pub const CANCEL_SUFFIX: &str = ".cancel";

/// Name of the atomically-rewritten health file in the output
/// directory (one flat JSON object per the schema in
/// `docs/observability.md`).
pub const STATUS_FILE: &str = "status.json";

/// Subdirectory of the watch directory holding consumed inputs.
pub const DONE_DIR: &str = "done";

/// Subdirectory of the watch directory holding quarantined inputs and
/// their serialized [`FailureReport`]s.
pub const FAILED_DIR: &str = "failed";

/// Subdirectory of the watch directory holding cancelled inputs.
pub const CANCELLED_DIR: &str = "cancelled";

/// Default worker thread count.
pub const DEFAULT_WORKERS: usize = 2;

/// Default intake poll interval in milliseconds (idle CPU bound).
pub const DEFAULT_POLL_MS: u64 = 100;

/// Default stability window in milliseconds: an input is admitted only
/// after its length and mtime have been unchanged this long.
pub const DEFAULT_STABILITY_MS: u64 = 300;

/// Default per-stage wall-clock timeout in milliseconds.
pub const DEFAULT_STAGE_TIMEOUT_MS: u64 = 120_000;

/// Priority assigned to inputs without a `p<k>--` prefix. Lower runs
/// first.
pub const DEFAULT_PRIORITY: u32 = 100;

/// Version of the `status.json` schema.
pub const STATUS_SCHEMA_VERSION: u64 = 1;

/// Serve daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory watched for intake files and sentinels.
    pub watch_dir: PathBuf,
    /// Directory for job checkpoints (created if missing).
    pub jobs_dir: PathBuf,
    /// Directory for restored outputs, the manifest, and `status.json`.
    pub out_dir: PathBuf,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Intake poll interval in milliseconds.
    pub poll_ms: u64,
    /// Input stability window in milliseconds.
    pub stability_ms: u64,
    /// Per-stage wall-clock timeout in milliseconds.
    pub stage_timeout_ms: u64,
    /// Retry/backoff/quarantine policy.
    pub retry: RetryPolicy,
    /// Pipeline parameters shared by every admitted job.
    pub job: JobConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            watch_dir: PathBuf::from("tlk-watch"),
            jobs_dir: PathBuf::from("tlk-jobs"),
            out_dir: PathBuf::from("tlk-out"),
            workers: DEFAULT_WORKERS,
            poll_ms: DEFAULT_POLL_MS,
            stability_ms: DEFAULT_STABILITY_MS,
            stage_timeout_ms: DEFAULT_STAGE_TIMEOUT_MS,
            retry: RetryPolicy::default(),
            job: JobConfig::default(),
        }
    }
}

/// Why the serve daemon could not start or keep running. Per-job
/// failures are never raised — they are retried, quarantined, and
/// reported; this error is for the daemon's own environment.
#[derive(Debug)]
pub enum ServeError {
    /// The watch path exists but is not a directory.
    NotADirectory(PathBuf),
    /// A directory could not be created or a daemon-level file could
    /// not be written.
    Io {
        /// The path being touched.
        path: PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NotADirectory(p) => {
                write!(f, "watch path {} is not a directory", p.display())
            }
            ServeError::Io { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for ServeError {}

/// Failure taxonomy recorded in a [`FailureReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The input file did not parse; quarantined at intake.
    Poisoned,
    /// The strike budget was spent on repeated stage failures/panics.
    CrashLoop,
    /// The strike budget was spent and the final strike was a
    /// wall-clock stage timeout.
    Timeout,
    /// An existing checkpoint was written under a different job
    /// configuration; refusing to silently recompute.
    ConfigMismatch,
}

impl FailureKind {
    /// Stable lowercase name (used in reports and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Poisoned => "poisoned",
            FailureKind::CrashLoop => "crash_loop",
            FailureKind::Timeout => "timeout",
            FailureKind::ConfigMismatch => "config_mismatch",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One failed stage attempt inside a [`FailureReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// The stage that failed.
    pub stage: String,
    /// What went wrong (error text, panic message, or "timed out").
    pub message: String,
    /// Backoff slept after this attempt, in milliseconds.
    pub backoff_ms: u64,
}

/// The typed quarantine record serialized (via [`qcir::persist`]) to
/// `failed/<id>.failure` when a job is quarantined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureReport {
    /// The quarantined job.
    pub id: String,
    /// Why it was quarantined.
    pub kind: FailureKind,
    /// The final (deciding) failure message.
    pub message: String,
    /// Every failed attempt, in order.
    pub attempts: Vec<AttemptRecord>,
}

/// Path of the serialized [`FailureReport`] for job `id`.
pub fn failure_report_path(watch_dir: &Path, id: &str) -> PathBuf {
    watch_dir.join(FAILED_DIR).join(format!("{id}.failure"))
}

/// What a completed (drained) serve run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs admitted from the watch directory.
    pub admitted: u64,
    /// Jobs that ran to a verdict and an emitted output.
    pub completed: u64,
    /// Jobs quarantined to `failed/`.
    pub quarantined: u64,
    /// Jobs cancelled via sentinel.
    pub cancelled: u64,
    /// Stage attempts that failed and were retried (or quarantined).
    pub retries: u64,
    /// Intake polls performed (idle CPU bound: each poll sleeps).
    pub polls: u64,
    /// Path of the final manifest.
    pub manifest_path: PathBuf,
    /// Path of the last-written status file.
    pub status_path: PathBuf,
}

/// Splits an intake file name into `(priority, id)`. A `p<k>--` prefix
/// sets the priority (lower runs first); otherwise
/// [`DEFAULT_PRIORITY`]. Returns `None` for non-intake names
/// (wrong extension, empty id, or a `.restored` output stem).
pub fn parse_intake_name(file_name: &str) -> Option<(u32, String)> {
    let stem = file_name
        .strip_suffix(".real")
        .or_else(|| file_name.strip_suffix(".qasm"))?;
    if stem.is_empty() || stem.ends_with(".restored") {
        return None;
    }
    let (priority, id) = match stem.strip_prefix('p').and_then(|rest| {
        let (digits, id) = rest.split_once("--")?;
        let k: u32 = digits.parse().ok()?;
        Some((k, id))
    }) {
        Some((k, id)) => (k, id),
        None => (DEFAULT_PRIORITY, stem),
    };
    if id.is_empty() {
        return None;
    }
    Some((priority, id.to_string()))
}

/// A queued, admitted job. Ordering is min-priority-first with FIFO
/// admission-order tiebreak (via the monotone `seq`).
struct Queued {
    priority: u32,
    seq: u64,
    id: String,
    input_path: PathBuf,
    circuit: Circuit,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    // Reversed so BinaryHeap (a max-heap) pops the lowest
    // (priority, seq) first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .priority
            .cmp(&self.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Queue state guarded by one mutex; the condvar wakes workers on
/// pushes and on drain.
struct QueueState {
    heap: BinaryHeap<Queued>,
    in_flight: usize,
    draining: bool,
}

/// Monotone counters exposed through `status.json` and the summary.
#[derive(Default)]
struct Gauges {
    admitted: AtomicU64,
    completed: AtomicU64,
    quarantined: AtomicU64,
    cancelled: AtomicU64,
    retries: AtomicU64,
    polls: AtomicU64,
}

/// Everything the intake loop and the workers share.
struct Shared {
    queue: Mutex<QueueState>,
    wake: Condvar,
    /// Active jobs (queued or in flight) → their cancellation flag.
    /// Doubles as the admission guard: an id present here is never
    /// re-admitted.
    cancels: Mutex<BTreeMap<String, Arc<AtomicBool>>>,
    /// Manifest rows (id → status/tier/output), merged from any
    /// existing manifest at startup and rewritten atomically on every
    /// terminal transition.
    manifest: Mutex<BTreeMap<String, (String, String, String)>>,
    gauges: Gauges,
}

/// The outcome of one stage attempt (run on a detached thread so the
/// worker can enforce a wall-clock timeout).
enum AttemptOutcome {
    /// The stage transition succeeded; this is the advanced state.
    Advanced(Box<JobState>),
    /// The stage returned an error.
    Failed(String),
    /// The stage panicked.
    Panicked(String),
    /// The stage exceeded the wall-clock budget (the attempt thread is
    /// abandoned; its eventual result is discarded).
    TimedOut,
}

/// Runs the serve daemon until drained. Blocks the calling thread; the
/// intake loop runs here while `config.workers` worker threads consume
/// the queue.
///
/// # Errors
///
/// [`ServeError`] only for environment failures (watch path not a
/// directory, directories that cannot be created). Per-job failures
/// are retried and quarantined, never raised.
pub fn run_serve(config: &ServeConfig) -> Result<ServeSummary, ServeError> {
    if config.watch_dir.exists() && !config.watch_dir.is_dir() {
        return Err(ServeError::NotADirectory(config.watch_dir.clone()));
    }
    let done_dir = config.watch_dir.join(DONE_DIR);
    let failed_dir = config.watch_dir.join(FAILED_DIR);
    let cancelled_dir = config.watch_dir.join(CANCELLED_DIR);
    for dir in [
        &config.watch_dir,
        &config.jobs_dir,
        &config.out_dir,
        &done_dir,
        &failed_dir,
        &cancelled_dir,
    ] {
        std::fs::create_dir_all(dir).map_err(|source| ServeError::Io {
            path: dir.clone(),
            source,
        })?;
    }
    batch::sweep_tmp_debris(&[&config.jobs_dir, &config.out_dir]);

    let manifest_path = config.out_dir.join(batch::MANIFEST_FILE);
    let status_path = config.out_dir.join(STATUS_FILE);
    let shared = Shared {
        queue: Mutex::new(QueueState {
            heap: BinaryHeap::new(),
            in_flight: 0,
            draining: false,
        }),
        wake: Condvar::new(),
        cancels: Mutex::new(BTreeMap::new()),
        manifest: Mutex::new(load_manifest_rows(&manifest_path)),
        gauges: Gauges::default(),
    };

    let span = qobs::span("serve.run")
        .attr("watch", config.watch_dir.display().to_string())
        .attr("workers", config.workers.max(1));

    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| worker_loop(config, &shared, &manifest_path));
        }
        intake_loop(config, &shared, &status_path);
    });

    // Final manifest + status after every worker has stopped.
    write_manifest_from(&shared, &manifest_path);
    write_status(config, &shared, &status_path, true);
    let g = &shared.gauges;
    let summary = ServeSummary {
        admitted: g.admitted.load(Ordering::Relaxed),
        completed: g.completed.load(Ordering::Relaxed),
        quarantined: g.quarantined.load(Ordering::Relaxed),
        cancelled: g.cancelled.load(Ordering::Relaxed),
        retries: g.retries.load(Ordering::Relaxed),
        polls: g.polls.load(Ordering::Relaxed),
        manifest_path,
        status_path,
    };
    let _span = span
        .attr("admitted", summary.admitted)
        .attr("completed", summary.completed)
        .attr("quarantined", summary.quarantined);
    Ok(summary)
}

/// The intake loop: one pass per poll — sentinels first (shutdown,
/// cancels), then stability-gated admissions, then status/heartbeat,
/// then sleep. Returns once drain is requested.
fn intake_loop(config: &ServeConfig, shared: &Shared, status_path: &Path) {
    // file name → (len, mtime, instant of last observed change).
    let mut stability: BTreeMap<String, (u64, Option<SystemTime>, Instant)> = BTreeMap::new();
    let mut seq: u64 = 0;
    loop {
        shared.gauges.polls.fetch_add(1, Ordering::Relaxed);
        let mut drain = false;
        let mut entries: Vec<(String, PathBuf)> = Vec::new();
        if let Ok(rd) = std::fs::read_dir(&config.watch_dir) {
            for entry in rd.flatten() {
                if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                    continue;
                }
                if let Some(name) = entry.file_name().to_str() {
                    entries.push((name.to_string(), entry.path()));
                }
            }
        }
        entries.sort();

        // Sentinels before admissions: a shutdown or cancel dropped in
        // the same poll as an input wins.
        for (name, path) in &entries {
            if name == SHUTDOWN_SENTINEL {
                let _ = std::fs::remove_file(path);
                drain = true;
            } else if let Some(id) = name.strip_suffix(CANCEL_SUFFIX) {
                handle_cancel(config, shared, id, path);
            }
        }
        if drain {
            qobs::event("serve.drain", &[]);
            let mut q = shared.queue.lock().expect("queue poisoned");
            q.draining = true;
            drop(q);
            shared.wake.notify_all();
            write_status(config, shared, status_path, true);
            return;
        }

        for (name, path) in &entries {
            let Some((priority, id)) = parse_intake_name(name) else {
                continue;
            };
            if shared
                .cancels
                .lock()
                .expect("cancels poisoned")
                .contains_key(&id)
            {
                continue; // already queued or in flight
            }
            if !is_stable(&mut stability, name, path, config.stability_ms) {
                continue;
            }
            stability.remove(name);
            match read_circuit(path) {
                Ok(circuit) => {
                    seq += 1;
                    let flag = Arc::new(AtomicBool::new(false));
                    shared
                        .cancels
                        .lock()
                        .expect("cancels poisoned")
                        .insert(id.clone(), flag);
                    SERVE_ADMITTED.incr();
                    shared.gauges.admitted.fetch_add(1, Ordering::Relaxed);
                    qobs::event(
                        "serve.admitted",
                        &[
                            ("job", qobs::AttrValue::from(id.as_str())),
                            ("priority", qobs::AttrValue::from(u64::from(priority))),
                        ],
                    );
                    let mut q = shared.queue.lock().expect("queue poisoned");
                    q.heap.push(Queued {
                        priority,
                        seq,
                        id,
                        input_path: path.clone(),
                        circuit,
                    });
                    drop(q);
                    shared.wake.notify_one();
                }
                Err(message) => {
                    quarantine(
                        config,
                        shared,
                        &id,
                        path,
                        FailureReport {
                            id: id.clone(),
                            kind: FailureKind::Poisoned,
                            message,
                            attempts: Vec::new(),
                        },
                    );
                }
            }
        }
        stability.retain(|name, _| entries.iter().any(|(n, _)| n == name));

        write_status(config, shared, status_path, false);
        std::thread::sleep(Duration::from_millis(config.poll_ms.max(1)));
    }
}

/// One stability observation: returns `true` when the file's length
/// and mtime have been unchanged for the window.
fn is_stable(
    stability: &mut BTreeMap<String, (u64, Option<SystemTime>, Instant)>,
    name: &str,
    path: &Path,
    stability_ms: u64,
) -> bool {
    let Ok(meta) = std::fs::metadata(path) else {
        return false;
    };
    let len = meta.len();
    let mtime = meta.modified().ok();
    let now = Instant::now();
    match stability.get_mut(name) {
        Some((seen_len, seen_mtime, since)) => {
            if *seen_len != len || *seen_mtime != mtime {
                *seen_len = len;
                *seen_mtime = mtime;
                *since = now;
                false
            } else {
                now.duration_since(*since) >= Duration::from_millis(stability_ms)
            }
        }
        None => {
            stability.insert(name.to_string(), (len, mtime, now));
            false
        }
    }
}

/// Parses an intake file by extension (`.real` or `.qasm`).
fn read_circuit(path: &Path) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable input: {e}"))?;
    let parsed = match path.extension().and_then(|e| e.to_str()) {
        Some("real") => qcir::real::from_real(&text),
        Some("qasm") => qcir::qasm::from_qasm(&text),
        other => return Err(format!("unsupported extension {other:?}")),
    };
    parsed.map_err(|e| e.to_string())
}

/// Applies a `<id>.cancel` sentinel: flags an active job, or moves a
/// not-yet-admitted input straight to `cancelled/`. The sentinel is
/// consumed in either case (and also when there is nothing to cancel).
fn handle_cancel(config: &ServeConfig, shared: &Shared, id: &str, sentinel: &Path) {
    let cancels = shared.cancels.lock().expect("cancels poisoned");
    if let Some(flag) = cancels.get(id) {
        flag.store(true, Ordering::SeqCst);
        drop(cancels);
        let _ = std::fs::remove_file(sentinel);
        return;
    }
    drop(cancels);
    // Not active: cancel pending input files (plain or
    // priority-prefixed) for the same id before they are admitted.
    if let Ok(rd) = std::fs::read_dir(&config.watch_dir) {
        for entry in rd.flatten() {
            let Some(name) = entry.file_name().to_str().map(String::from) else {
                continue;
            };
            if let Some((_, parsed_id)) = parse_intake_name(&name) {
                if parsed_id == id {
                    move_into(&entry.path(), &config.watch_dir.join(CANCELLED_DIR));
                    record_cancelled(shared, id);
                }
            }
        }
    }
    let _ = std::fs::remove_file(sentinel);
}

/// Counts a cancellation (gauge + qobs) without touching the registry.
fn record_cancelled(shared: &Shared, id: &str) {
    SERVE_CANCELLED.incr();
    shared.gauges.cancelled.fetch_add(1, Ordering::Relaxed);
    qobs::event("serve.cancelled", &[("job", qobs::AttrValue::from(id))]);
}

/// Moves `path` into `dir`, keeping its file name. Best-effort: serve
/// must keep running even if the filesystem fights back.
fn move_into(path: &Path, dir: &Path) {
    if let Some(name) = path.file_name() {
        let _ = std::fs::rename(path, dir.join(name));
    }
}

/// Worker: pop highest-priority job, drive it to a terminal state,
/// repeat; exits when drain is requested and the queue is released.
fn worker_loop(config: &ServeConfig, shared: &Shared, manifest_path: &Path) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if q.draining {
                    // Abandon queued-but-unstarted jobs: their inputs
                    // stay in the watch dir, so a later serve run
                    // admits them again — drained, not lost.
                    return;
                }
                if let Some(job) = q.heap.pop() {
                    q.in_flight += 1;
                    break job;
                }
                q = shared.wake.wait(q).expect("queue poisoned");
            }
        };
        run_serve_job(config, shared, manifest_path, job);
        let mut q = shared.queue.lock().expect("queue poisoned");
        q.in_flight -= 1;
    }
}

/// Drives one admitted job to a terminal state: completed (output
/// emitted, input moved to `done/`), cancelled, or quarantined.
fn run_serve_job(config: &ServeConfig, shared: &Shared, manifest_path: &Path, job: Queued) {
    let _span = qobs::span("serve.job")
        .attr("job", job.id.as_str())
        .attr("priority", u64::from(job.priority));
    let cancel_flag = shared
        .cancels
        .lock()
        .expect("cancels poisoned")
        .get(&job.id)
        .cloned()
        .unwrap_or_default();

    let mut state = match initial_state(config, shared, &job) {
        Some(state) => state,
        None => return, // terminal at admission (mismatch quarantine / already done)
    };
    let mut breaker = CircuitBreaker::new(config.retry.max_strikes);
    // Hashing the id makes retry schedules a pure function of
    // `(id, config)`.
    let jitter_seed = persist::fnv1a64(job.id.as_bytes()) ^ config.job.seed;
    let mut attempts: Vec<AttemptRecord> = Vec::new();

    loop {
        if cancel_flag.load(Ordering::SeqCst) {
            move_into(&job.input_path, &config.watch_dir.join(CANCELLED_DIR));
            set_manifest_row(
                shared,
                &job.id,
                (
                    "CANCELLED".to_string(),
                    "-".to_string(),
                    "cancelled via sentinel".to_string(),
                ),
            );
            write_manifest_from(shared, manifest_path);
            record_cancelled(shared, &job.id);
            shared
                .cancels
                .lock()
                .expect("cancels poisoned")
                .remove(&job.id);
            return;
        }
        if state.is_done() {
            finalize_completed(config, shared, manifest_path, &job, &state);
            return;
        }

        let stage_name = state.stage.name().to_string();
        let outcome = attempt_stage(config, &state);
        match outcome {
            AttemptOutcome::Advanced(next) => {
                state = *next;
                if let Err(err) = save_checkpoint(&config.jobs_dir, &state) {
                    // A checkpoint that cannot be written is a strike
                    // like any other failure: retry, then quarantine.
                    strike(
                        config,
                        shared,
                        &mut breaker,
                        jitter_seed,
                        &mut attempts,
                        &stage_name,
                        err.to_string(),
                    );
                    if breaker.is_open() {
                        quarantine_job(
                            config,
                            shared,
                            manifest_path,
                            &job,
                            FailureKind::CrashLoop,
                            attempts,
                        );
                        return;
                    }
                    state = reload_state(config, &job, &state);
                }
            }
            AttemptOutcome::Failed(message) | AttemptOutcome::Panicked(message) => {
                strike(
                    config,
                    shared,
                    &mut breaker,
                    jitter_seed,
                    &mut attempts,
                    &stage_name,
                    message,
                );
                if breaker.is_open() {
                    quarantine_job(
                        config,
                        shared,
                        manifest_path,
                        &job,
                        FailureKind::CrashLoop,
                        attempts,
                    );
                    return;
                }
                state = reload_state(config, &job, &state);
            }
            AttemptOutcome::TimedOut => {
                strike(
                    config,
                    shared,
                    &mut breaker,
                    jitter_seed,
                    &mut attempts,
                    &stage_name,
                    format!("stage exceeded {} ms wall clock", config.stage_timeout_ms),
                );
                if breaker.is_open() {
                    quarantine_job(
                        config,
                        shared,
                        manifest_path,
                        &job,
                        FailureKind::Timeout,
                        attempts,
                    );
                    return;
                }
                state = reload_state(config, &job, &state);
            }
        }
    }
}

/// Builds the job's starting state: a matching checkpoint resumes, a
/// config-mismatched checkpoint quarantines, a checkpoint for
/// different input bytes (or a corrupt one) is discarded, and a Done
/// checkpoint with its output present finalizes immediately.
/// Returns `None` when the job reached a terminal state here.
fn initial_state(config: &ServeConfig, shared: &Shared, job: &Queued) -> Option<JobState> {
    match load_checkpoint(&config.jobs_dir, &job.id) {
        Ok(Some(state)) => {
            if state.config != config.job {
                quarantine(
                    config,
                    shared,
                    &job.id,
                    &job.input_path,
                    FailureReport {
                        id: job.id.clone(),
                        kind: FailureKind::ConfigMismatch,
                        message: format!(
                            "checkpoint for {} was written under a different job configuration",
                            job.id
                        ),
                        attempts: Vec::new(),
                    },
                );
                shared
                    .cancels
                    .lock()
                    .expect("cancels poisoned")
                    .remove(&job.id);
                return None;
            }
            if qcir::qasm::to_qasm(&state.original) != qcir::qasm::to_qasm(&job.circuit) {
                // The producer replaced the input: the old checkpoint
                // is for a different circuit. Start fresh.
                return Some(JobState::new(
                    job.id.clone(),
                    job.circuit.clone(),
                    config.job.clone(),
                ));
            }
            Some(state)
        }
        // Corrupt beyond both generations: start fresh (the first
        // save rotates the debris away).
        Err(_) | Ok(None) => Some(JobState::new(
            job.id.clone(),
            job.circuit.clone(),
            config.job.clone(),
        )),
    }
}

/// Reloads the last good checkpoint after a failed attempt (fresh
/// state if there is none).
fn reload_state(config: &ServeConfig, job: &Queued, current: &JobState) -> JobState {
    match load_checkpoint(&config.jobs_dir, &job.id) {
        Ok(Some(state)) if state.config == current.config => state,
        _ => JobState::new(job.id.clone(), job.circuit.clone(), current.config.clone()),
    }
}

/// Runs one `advance` under the wall-clock budget on a detached
/// thread. On timeout the thread is abandoned: its eventual result is
/// discarded (the channel send fails) and any late output write is an
/// atomic rename of identical bytes, so it cannot corrupt anything.
fn attempt_stage(config: &ServeConfig, state: &JobState) -> AttemptOutcome {
    let (tx, rx) = mpsc::channel();
    let mut moved = state.clone();
    let out_dir = config.out_dir.clone();
    std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            moved.advance(&out_dir).map(|()| moved.clone())
        }));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(Duration::from_millis(config.stage_timeout_ms.max(1))) {
        Ok(Ok(Ok(next))) => AttemptOutcome::Advanced(Box::new(next)),
        Ok(Ok(Err(err))) => AttemptOutcome::Failed(err.to_string()),
        Ok(Err(payload)) => AttemptOutcome::Panicked(batch::panic_message(payload.as_ref())),
        Err(RecvTimeoutError::Timeout) => AttemptOutcome::TimedOut,
        Err(RecvTimeoutError::Disconnected) => {
            AttemptOutcome::Panicked("attempt thread vanished".to_string())
        }
    }
}

/// Records one failed attempt: counts the retry, appends the attempt
/// record, advances the breaker, and (while the breaker stays closed)
/// sleeps the deterministic backoff.
fn strike(
    config: &ServeConfig,
    shared: &Shared,
    breaker: &mut CircuitBreaker,
    jitter_seed: u64,
    attempts: &mut Vec<AttemptRecord>,
    stage: &str,
    message: String,
) {
    SERVE_RETRIES.incr();
    shared.gauges.retries.fetch_add(1, Ordering::Relaxed);
    breaker.record_failure();
    let backoff_ms = if breaker.is_open() {
        0 // quarantining; no point sleeping
    } else {
        config
            .retry
            .delay_ms(jitter_seed, breaker.strikes().saturating_sub(1))
    };
    qobs::event(
        "serve.retry",
        &[
            ("stage", qobs::AttrValue::from(stage)),
            (
                "strikes",
                qobs::AttrValue::from(u64::from(breaker.strikes())),
            ),
            ("backoff_ms", qobs::AttrValue::from(backoff_ms)),
        ],
    );
    attempts.push(AttemptRecord {
        stage: stage.to_string(),
        message,
        backoff_ms,
    });
    if backoff_ms > 0 {
        std::thread::sleep(Duration::from_millis(backoff_ms));
    }
}

/// Quarantines an in-flight job after the breaker opened.
fn quarantine_job(
    config: &ServeConfig,
    shared: &Shared,
    manifest_path: &Path,
    job: &Queued,
    kind: FailureKind,
    attempts: Vec<AttemptRecord>,
) {
    let message = attempts
        .last()
        .map(|a| a.message.clone())
        .unwrap_or_else(|| "no attempts recorded".to_string());
    quarantine(
        config,
        shared,
        &job.id,
        &job.input_path,
        FailureReport {
            id: job.id.clone(),
            kind,
            message,
            attempts,
        },
    );
    write_manifest_from(shared, manifest_path);
    shared
        .cancels
        .lock()
        .expect("cancels poisoned")
        .remove(&job.id);
}

/// The shared quarantine path: serializes the [`FailureReport`] to
/// `failed/<id>.failure`, moves the input file to `failed/`, records
/// the manifest row, and counts it.
fn quarantine(
    config: &ServeConfig,
    shared: &Shared,
    id: &str,
    input_path: &Path,
    report: FailureReport,
) {
    let report_path = failure_report_path(&config.watch_dir, id);
    let _ = persist::save(&report_path, &report);
    move_into(input_path, &config.watch_dir.join(FAILED_DIR));
    SERVE_QUARANTINED.incr();
    shared.gauges.quarantined.fetch_add(1, Ordering::Relaxed);
    qobs::event(
        "serve.quarantined",
        &[
            ("job", qobs::AttrValue::from(id)),
            ("kind", qobs::AttrValue::from(report.kind.name())),
        ],
    );
    set_manifest_row(
        shared,
        id,
        (
            "QUARANTINED".to_string(),
            "-".to_string(),
            format!(
                "{}: {}",
                report.kind,
                report.message.replace(['\t', '\n'], " ")
            ),
        ),
    );
}

/// Terminal success: manifest row from the verdict, input moved to
/// `done/`, registry entry released (in that order, so intake can
/// never re-admit a finishing job).
fn finalize_completed(
    config: &ServeConfig,
    shared: &Shared,
    manifest_path: &Path,
    job: &Queued,
    state: &JobState,
) {
    let outcome = JobOutcome {
        id: job.id.clone(),
        steps_done: state.steps_done,
        resumed: false,
        result: state
            .verdict
            .clone()
            .ok_or_else(|| JobFailure::Error("done without verdict".to_string())),
    };
    set_manifest_row(shared, &job.id, batch::manifest_row(&outcome));
    write_manifest_from(shared, manifest_path);
    move_into(&job.input_path, &config.watch_dir.join(DONE_DIR));
    shared
        .cancels
        .lock()
        .expect("cancels poisoned")
        .remove(&job.id);
    SERVE_COMPLETED.incr();
    shared.gauges.completed.fetch_add(1, Ordering::Relaxed);
    qobs::event(
        "serve.completed",
        &[("job", qobs::AttrValue::from(job.id.as_str()))],
    );
}

/// Replaces (or inserts) one manifest row.
fn set_manifest_row(shared: &Shared, id: &str, row: (String, String, String)) {
    shared
        .manifest
        .lock()
        .expect("manifest poisoned")
        .insert(id.to_string(), row);
}

/// Atomically rewrites the manifest from the shared row map.
fn write_manifest_from(shared: &Shared, manifest_path: &Path) {
    let rows = shared.manifest.lock().expect("manifest poisoned");
    let text = batch::render_manifest(
        rows.iter()
            .map(|(id, (s, t, o))| (id.as_str(), s.as_str(), t.as_str(), o.as_str())),
    );
    drop(rows);
    let _ = persist::write_atomic(manifest_path, text.as_bytes());
}

/// Parses an existing manifest back into the row map (serve restarts
/// must not forget earlier terminal states).
fn load_manifest_rows(path: &Path) -> BTreeMap<String, (String, String, String)> {
    let mut rows = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return rows;
    };
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(4, '\t');
        if let (Some(id), Some(status), Some(tier), Some(output)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        {
            rows.insert(
                id.to_string(),
                (status.to_string(), tier.to_string(), output.to_string()),
            );
        }
    }
    rows
}

/// Atomically rewrites `status.json` (one flat JSON object line) and
/// emits the `serve.heartbeat` event.
fn write_status(config: &ServeConfig, shared: &Shared, status_path: &Path, draining: bool) {
    let (queue_depth, in_flight) = {
        let q = shared.queue.lock().expect("queue poisoned");
        (q.heap.len() as u64, q.in_flight as u64)
    };
    let g = &shared.gauges;
    let admitted = g.admitted.load(Ordering::Relaxed);
    let completed = g.completed.load(Ordering::Relaxed);
    let quarantined = g.quarantined.load(Ordering::Relaxed);
    let cancelled = g.cancelled.load(Ordering::Relaxed);
    let retries = g.retries.load(Ordering::Relaxed);
    let polls = g.polls.load(Ordering::Relaxed);

    let mut obj = qobs::json::Obj::new("serve_status");
    obj.field_u64("schema_version", STATUS_SCHEMA_VERSION);
    obj.field_u64("workers", config.workers.max(1) as u64);
    obj.field_u64("queue_depth", queue_depth);
    obj.field_u64("in_flight", in_flight);
    obj.field_u64("admitted", admitted);
    obj.field_u64("completed", completed);
    obj.field_u64("quarantined", quarantined);
    obj.field_u64("cancelled", cancelled);
    obj.field_u64("retries", retries);
    obj.field_u64("polls", polls);
    obj.field_bool("draining", draining);
    let line = obj.finish();

    let _ = persist::write_atomic(status_path, format!("{line}\n").as_bytes());

    qobs::event(
        "serve.heartbeat",
        &[
            ("queue_depth", qobs::AttrValue::from(queue_depth)),
            ("in_flight", qobs::AttrValue::from(in_flight)),
            ("retries", qobs::AttrValue::from(retries)),
            ("quarantined", qobs::AttrValue::from(quarantined)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intake_names_parse() {
        assert_eq!(
            parse_intake_name("alpha.real"),
            Some((DEFAULT_PRIORITY, "alpha".to_string()))
        );
        assert_eq!(
            parse_intake_name("p5--hot.qasm"),
            Some((5, "hot".to_string()))
        );
        assert_eq!(
            parse_intake_name("p007--x.real"),
            Some((7, "x".to_string()))
        );
        // A bare `p--` or non-numeric prefix is just an id.
        assert_eq!(
            parse_intake_name("pxy--z.real"),
            Some((DEFAULT_PRIORITY, "pxy--z".to_string()))
        );
        assert_eq!(parse_intake_name("notes.txt"), None);
        assert_eq!(parse_intake_name(".real"), None);
        assert_eq!(parse_intake_name("p5--.real"), None);
        assert_eq!(parse_intake_name("alpha.restored.qasm"), None);
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let mk = |priority, seq, id: &str| Queued {
            priority,
            seq,
            id: id.to_string(),
            input_path: PathBuf::new(),
            circuit: Circuit::new(1),
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(100, 1, "slow"));
        heap.push(mk(5, 3, "hot_b"));
        heap.push(mk(5, 2, "hot_a"));
        let order: Vec<String> = std::iter::from_fn(|| heap.pop().map(|q| q.id)).collect();
        assert_eq!(order, ["hot_a", "hot_b", "slow"]);
    }

    #[test]
    fn failure_report_round_trips_through_persist() {
        let dir = std::env::temp_dir().join(format!("tlk_serve_fr_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report = FailureReport {
            id: "poison".to_string(),
            kind: FailureKind::CrashLoop,
            message: "stage verify: boom".to_string(),
            attempts: vec![AttemptRecord {
                stage: "verify".to_string(),
                message: "boom".to_string(),
                backoff_ms: 50,
            }],
        };
        let path = dir.join("poison.failure");
        persist::save(&path, &report).unwrap();
        let back: FailureReport = persist::load(&path).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn manifest_rows_survive_reload() {
        let dir = std::env::temp_dir().join(format!("tlk_serve_mf_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.txt");
        let mut rows = BTreeMap::new();
        rows.insert(
            "a".to_string(),
            (
                "equivalent".to_string(),
                "tableau".to_string(),
                "a.restored.qasm".to_string(),
            ),
        );
        rows.insert(
            "b".to_string(),
            (
                "QUARANTINED".to_string(),
                "-".to_string(),
                "poisoned: bad gate".to_string(),
            ),
        );
        let text = batch::render_manifest(
            rows.iter()
                .map(|(id, (s, t, o))| (id.as_str(), s.as_str(), t.as_str(), o.as_str())),
        );
        persist::write_atomic(&path, text.as_bytes()).unwrap();
        assert_eq!(load_manifest_rows(&path), rows);
    }

    #[test]
    fn watch_path_must_be_a_directory() {
        let base = std::env::temp_dir().join(format!("tlk_serve_nd_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let file = base.join("a_file");
        std::fs::write(&file, "x").unwrap();
        let config = ServeConfig {
            watch_dir: file.clone(),
            jobs_dir: base.join("jobs"),
            out_dir: base.join("out"),
            ..ServeConfig::default()
        };
        match run_serve(&config) {
            Err(ServeError::NotADirectory(p)) => assert_eq!(p, file),
            other => panic!("expected NotADirectory, got {other:?}"),
        }
    }

    /// End-to-end in-process smoke: two inputs (one prioritized), one
    /// poisoned file, one cancel, then drain.
    #[test]
    fn serve_processes_quarantines_and_drains() {
        let base = std::env::temp_dir().join(format!("tlk_serve_e2e_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let config = ServeConfig {
            watch_dir: base.join("watch"),
            jobs_dir: base.join("jobs"),
            out_dir: base.join("out"),
            workers: 2,
            poll_ms: 10,
            stability_ms: 30,
            ..ServeConfig::default()
        };
        std::fs::create_dir_all(&config.watch_dir).unwrap();

        let mut c = Circuit::with_name(3, "gamma");
        c.x(0).cx(0, 1).ccx(0, 1, 2);
        let qasm = qcir::qasm::to_qasm(&c);
        std::fs::write(config.watch_dir.join("gamma.qasm"), &qasm).unwrap();
        std::fs::write(config.watch_dir.join("p1--rush.qasm"), &qasm).unwrap();
        std::fs::write(config.watch_dir.join("poison.qasm"), "OPENQASM 2.0;\nqreg").unwrap();

        let watch = config.watch_dir.clone();
        let out = config.out_dir.clone();
        let stopper = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(120);
            // Wait for both outputs and the quarantine, then drain.
            loop {
                let done = out.join("gamma.restored.qasm").exists()
                    && out.join("rush.restored.qasm").exists()
                    && failure_report_path(&watch, "poison").exists();
                if done || Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            std::fs::write(watch.join(SHUTDOWN_SENTINEL), "").unwrap();
        });

        let summary = run_serve(&config).unwrap();
        stopper.join().unwrap();

        assert_eq!(summary.admitted, 2, "{summary:?}");
        assert_eq!(summary.completed, 2, "{summary:?}");
        assert_eq!(summary.quarantined, 1, "{summary:?}");
        let report: FailureReport =
            persist::load(&failure_report_path(&config.watch_dir, "poison")).unwrap();
        assert_eq!(report.kind, FailureKind::Poisoned);
        // Inputs reached their terminal directories.
        assert!(config.watch_dir.join(DONE_DIR).join("gamma.qasm").exists());
        assert!(config
            .watch_dir
            .join(FAILED_DIR)
            .join("poison.qasm")
            .exists());
        // status.json is one flat JSON object.
        let status = std::fs::read_to_string(&summary.status_path).unwrap();
        let parsed = qobs::json::parse_line(status.trim()).unwrap();
        assert_eq!(parsed.get_str("type"), Some("serve_status"));
        assert_eq!(parsed.get_u64("completed"), Some(2));
        assert_eq!(parsed.get_u64("quarantined"), Some(1));
        // The manifest holds all terminal rows.
        let manifest = std::fs::read_to_string(&summary.manifest_path).unwrap();
        assert!(manifest.contains("gamma\tequivalent\t"), "{manifest}");
        assert!(
            manifest.contains("poison\tQUARANTINED\t-\tpoisoned:"),
            "{manifest}"
        );
    }
}
