//! The batch protection service: N-worker execution of many
//! checkpointed jobs.
//!
//! [`run_batch`] drives a set of [`JobState`] pipelines (one per input
//! circuit) over a fixed-size worker pool. Each job checkpoints after
//! every stage transition through [`crate::job::save_checkpoint`], so a
//! crash — including the deliberate aborts injected via
//! [`crate::job::KILL_AFTER_CHECKPOINTS_ENV`] — loses at most one
//! stage of one job per worker. Re-running with `resume: true` picks
//! every job up from its last good checkpoint (or its `.prev`
//! fallback) and finishes it.
//!
//! **Determinism contract**: per-job outputs and the manifest are
//! byte-identical regardless of worker count, scheduling order, or how
//! many kill/resume cycles interrupted the run. Jobs never exchange
//! data; all randomness is seeded from the per-job config; results are
//! sorted by job id before the manifest is written.

use crate::job::{
    checkpoint_path, load_checkpoint, save_checkpoint, JobConfig, JobError, JobStage, JobState,
    JobVerdict,
};
use qcir::{persist, Circuit};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static JOBS_COMPLETED: qobs::Counter = qobs::Counter::new("batch.jobs_completed");
static JOBS_FAILED: qobs::Counter = qobs::Counter::new("batch.jobs_failed");
static JOBS_PANICKED: qobs::Counter = qobs::Counter::new("batch.jobs_panicked");
static JOBS_SKIPPED: qobs::Counter = qobs::Counter::new("batch.jobs_skipped");
static TMPS_SWEPT: qobs::Counter = qobs::Counter::new("batch.tmps_swept");

/// Name of the manifest file written into the output directory.
pub const MANIFEST_FILE: &str = "manifest.txt";

/// Fixed first lines of every manifest.
pub(crate) const MANIFEST_HEADER: &str =
    "# tetrislock batch manifest\n# id\tstatus\ttier\toutput\n";

/// Minimum age (against mtime) before the startup sweep deletes an
/// orphan `.tmp` staging file. Young tmps may belong to a concurrent
/// writer racing us in the same directory; anything older is debris
/// from a crashed run.
pub const TMP_SWEEP_MIN_AGE_SECS: u64 = 60;

/// Batch-level configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Directory for checkpoint files (created if missing).
    pub jobs_dir: PathBuf,
    /// Directory for restored-circuit outputs and the manifest.
    pub out_dir: PathBuf,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Resume jobs from existing checkpoints instead of starting fresh.
    pub resume: bool,
    /// Pipeline parameters shared by every job in the batch.
    pub job: JobConfig,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            jobs_dir: PathBuf::from("tlk-jobs"),
            out_dir: PathBuf::from("tlk-out"),
            workers: 1,
            resume: false,
            job: JobConfig::default(),
        }
    }
}

/// Terminal failure of one job, as recorded in outcomes and the
/// manifest. `Panicked` is distinct from `Error` so resume semantics
/// stay total: a worker that blew up mid-stage still leaves a typed
/// terminal state behind instead of a missing manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// A stage, checkpoint, or configuration error, rendered to text.
    Error(String),
    /// The worker thread panicked while driving the job; the payload is
    /// the panic message.
    Panicked(String),
}

impl JobFailure {
    /// The underlying failure message.
    pub fn message(&self) -> &str {
        match self {
            JobFailure::Error(m) | JobFailure::Panicked(m) => m,
        }
    }
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Error(m) => f.write_str(m),
            JobFailure::Panicked(m) => write!(f, "worker panicked: {m}"),
        }
    }
}

/// Terminal status of one job in a batch run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's id.
    pub id: String,
    /// Stage transitions performed over the job's whole lifetime
    /// (across resumes).
    pub steps_done: u64,
    /// `true` if the job was restored from a checkpoint this run.
    pub resumed: bool,
    /// The verification verdict, or the typed failure.
    pub result: Result<JobVerdict, JobFailure>,
}

/// What a finished (or failed) batch run produced.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job outcomes, sorted by id.
    pub outcomes: Vec<JobOutcome>,
    /// Path of the manifest written into the output directory.
    pub manifest_path: PathBuf,
}

impl BatchReport {
    /// `true` iff every job completed and verified equivalent.
    pub fn all_equivalent(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(&o.result, Ok(v) if v.equivalent))
    }

    /// Number of jobs that failed (stage error or unusable checkpoint).
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_err()).count()
    }
}

/// Runs the batch: one checkpointed pipeline per input circuit, spread
/// over `config.workers` threads.
///
/// `inputs` pairs each job id with its original circuit. Ids must be
/// unique — they name checkpoint and output files.
///
/// # Errors
///
/// [`JobError`] only for batch-level failures (directories cannot be
/// created, duplicate ids, manifest unwritable). Per-job failures are
/// *reported*, not raised: they land in the returned
/// [`BatchReport::outcomes`] so one bad job cannot sink the batch.
pub fn run_batch(
    inputs: Vec<(String, Circuit)>,
    config: &BatchConfig,
) -> Result<BatchReport, JobError> {
    let batch_err = |message: String| JobError::Stage {
        id: "<batch>".to_string(),
        stage: JobStage::Obfuscate,
        message,
    };
    for dir in [&config.jobs_dir, &config.out_dir] {
        std::fs::create_dir_all(dir)
            .map_err(|e| batch_err(format!("cannot create {}: {e}", dir.display())))?;
    }
    sweep_tmp_debris(&[&config.jobs_dir, &config.out_dir]);
    {
        let mut ids: Vec<&str> = inputs.iter().map(|(id, _)| id.as_str()).collect();
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(batch_err(format!("duplicate job id `{}`", dup[0])));
        }
    }

    let workers = config.workers.max(1).min(inputs.len().max(1));
    let span = qobs::span("batch.run")
        .attr("jobs", inputs.len())
        .attr("workers", workers)
        .attr("resume", if config.resume { 1u64 } else { 0u64 });

    let queue: Mutex<VecDeque<(String, Circuit)>> = Mutex::new(inputs.into_iter().collect());
    let outcomes: Mutex<Vec<JobOutcome>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").pop_front();
                let Some((id, circuit)) = next else { break };
                // A panicking stage must not take the manifest row with
                // it: catch the unwind and record a typed terminal
                // state so resume semantics stay total.
                let outcome = catch_unwind(AssertUnwindSafe(|| run_job(&id, circuit, config)))
                    .unwrap_or_else(|payload| JobOutcome {
                        id: id.clone(),
                        steps_done: 0,
                        resumed: false,
                        result: Err(JobFailure::Panicked(panic_message(payload.as_ref()))),
                    });
                outcomes.lock().expect("outcomes poisoned").push(outcome);
            });
        }
    });

    let mut outcomes = outcomes.into_inner().expect("outcomes poisoned");
    outcomes.sort_by(|a, b| a.id.cmp(&b.id));
    for o in &outcomes {
        match &o.result {
            Ok(_) => JOBS_COMPLETED.incr(),
            Err(JobFailure::Panicked(_)) => {
                JOBS_FAILED.incr();
                JOBS_PANICKED.incr();
            }
            Err(JobFailure::Error(_)) => JOBS_FAILED.incr(),
        }
    }
    let _span = span.attr(
        "failed",
        outcomes.iter().filter(|o| o.result.is_err()).count(),
    );

    let manifest_path = config.out_dir.join(MANIFEST_FILE);
    write_manifest(&manifest_path, &outcomes)
        .map_err(|e| batch_err(format!("cannot write manifest: {e}")))?;
    Ok(BatchReport {
        outcomes,
        manifest_path,
    })
}

/// Runs one job to completion (or failure), checkpointing after every
/// stage.
fn run_job(id: &str, circuit: Circuit, config: &BatchConfig) -> JobOutcome {
    let _span = qobs::span("batch.job").attr("job", String::from(id));
    let (mut state, resumed) = match acquire_state(id, circuit, config) {
        Ok(pair) => pair,
        Err(err) => {
            return JobOutcome {
                id: id.to_string(),
                steps_done: 0,
                resumed: false,
                result: Err(JobFailure::Error(err.to_string())),
            }
        }
    };
    if resumed {
        // A Done checkpoint whose output vanished must re-emit; with the
        // output present there is nothing left to do.
        if state.is_done() && !state.output_path(&config.out_dir).exists() {
            state.stage = JobStage::Emit;
        }
        if state.is_done() {
            JOBS_SKIPPED.incr();
            return JobOutcome {
                id: id.to_string(),
                steps_done: state.steps_done,
                resumed,
                result: state
                    .verdict
                    .clone()
                    .ok_or_else(|| JobFailure::Error("done without verdict".to_string())),
            };
        }
    }
    loop {
        if let Err(err) = state.advance(&config.out_dir) {
            return JobOutcome {
                id: id.to_string(),
                steps_done: state.steps_done,
                resumed,
                result: Err(JobFailure::Error(err.to_string())),
            };
        }
        if let Err(err) = save_checkpoint(&config.jobs_dir, &state) {
            return JobOutcome {
                id: id.to_string(),
                steps_done: state.steps_done,
                resumed,
                result: Err(JobFailure::Error(err.to_string())),
            };
        }
        if state.is_done() {
            return JobOutcome {
                id: id.to_string(),
                steps_done: state.steps_done,
                resumed,
                result: state
                    .verdict
                    .clone()
                    .ok_or_else(|| JobFailure::Error("done without verdict".to_string())),
            };
        }
    }
}

/// Renders a panic payload (normally a `&str` or `String`) to text.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Removes aged orphan `.tmp` staging files (debris from crashed runs)
/// from the given directories, logging each removal through qobs.
pub(crate) fn sweep_tmp_debris(dirs: &[&Path]) {
    let min_age = std::time::Duration::from_secs(TMP_SWEEP_MIN_AGE_SECS);
    for dir in dirs {
        let Ok(removed) = persist::sweep_orphan_tmps(dir, min_age) else {
            continue;
        };
        for path in removed {
            TMPS_SWEPT.incr();
            qobs::event(
                "batch.tmp_swept",
                &[("path", qobs::AttrValue::from(path.display().to_string()))],
            );
        }
    }
}

/// Loads or creates the job's state. On `resume`, a loadable checkpoint
/// (current or `.prev`) wins; otherwise the job starts fresh. Without
/// `resume`, any stale checkpoint is ignored and will be rotated away
/// by the first save.
fn acquire_state(
    id: &str,
    circuit: Circuit,
    config: &BatchConfig,
) -> Result<(JobState, bool), JobError> {
    if config.resume {
        if let Some(state) = load_checkpoint(&config.jobs_dir, id)? {
            if state.config != config.job {
                return Err(JobError::Stage {
                    id: id.to_string(),
                    stage: state.stage,
                    message: format!(
                        "checkpoint {} was written with a different job configuration; \
                         re-run without --resume to start over",
                        checkpoint_path(&config.jobs_dir, id).display()
                    ),
                });
            }
            return Ok((state, true));
        }
    }
    let state = JobState::new(id, circuit, config.job.clone());
    // Checkpoint the fresh state immediately: the fault-injection suite
    // can then kill the process during the very first stage and still
    // find a checkpoint to resume from.
    save_checkpoint(&config.jobs_dir, &state)?;
    Ok((state, false))
}

/// The manifest columns (status, tier, output) for one outcome. Shared
/// with the serve daemon so both writers produce byte-identical rows.
pub(crate) fn manifest_row(o: &JobOutcome) -> (String, String, String) {
    let (status, tier) = match &o.result {
        Ok(v) if v.equivalent => ("equivalent", v.tier.as_str()),
        Ok(v) => ("NOT-EQUIVALENT", v.tier.as_str()),
        Err(JobFailure::Panicked(_)) => ("PANICKED", "-"),
        Err(JobFailure::Error(_)) => ("FAILED", "-"),
    };
    let output = match &o.result {
        Ok(_) => format!("{}.restored.qasm", o.id),
        Err(failure) => failure.message().replace(['\t', '\n'], " "),
    };
    (status.to_string(), tier.to_string(), output)
}

/// Renders header + rows (already sorted by id) as manifest text.
pub(crate) fn render_manifest<'a>(
    rows: impl Iterator<Item = (&'a str, &'a str, &'a str, &'a str)>,
) -> String {
    let mut text = String::from(MANIFEST_HEADER);
    for (id, status, tier, output) in rows {
        text.push_str(&format!("{id}\t{status}\t{tier}\t{output}\n"));
    }
    text
}

/// Writes the deterministic batch manifest: one tab-separated line per
/// job, sorted by id, plus a fixed header. Atomic and durable
/// ([`persist::write_atomic`]).
fn write_manifest(path: &Path, outcomes: &[JobOutcome]) -> std::io::Result<()> {
    let rows: Vec<(&str, (String, String, String))> = outcomes
        .iter()
        .map(|o| (o.id.as_str(), manifest_row(o)))
        .collect();
    let text = render_manifest(
        rows.iter()
            .map(|(id, (s, t, o))| (*id, s.as_str(), t.as_str(), o.as_str())),
    );
    persist::write_atomic(path, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> Vec<(String, Circuit)> {
        let mut a = Circuit::with_name(4, "alpha");
        a.h(0).cx(0, 1).cx(1, 2).cx(0, 1).x(3).cx(3, 2);
        let mut b = Circuit::with_name(5, "beta");
        b.h(0).cx(0, 1).ccx(0, 1, 2).cx(2, 3).h(4).cx(3, 4);
        let mut c = Circuit::with_name(3, "gamma");
        c.x(0).cx(0, 1).ccx(0, 1, 2);
        vec![
            ("alpha".to_string(), a),
            ("beta".to_string(), b),
            ("gamma".to_string(), c),
        ]
    }

    fn config(tag: &str, workers: usize) -> BatchConfig {
        let base = std::env::temp_dir().join(format!("tlk_batch_{tag}_{}", std::process::id()));
        BatchConfig {
            jobs_dir: base.join("jobs"),
            out_dir: base.join("out"),
            workers,
            resume: false,
            job: JobConfig::default(),
        }
    }

    #[test]
    fn batch_completes_and_verifies() {
        let report = run_batch(inputs(), &config("basic", 2)).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.all_equivalent(), "{:?}", report.outcomes);
        assert!(report.manifest_path.exists());
    }

    #[test]
    fn outputs_identical_across_worker_counts() {
        let cfg1 = config("w1", 1);
        let cfg4 = config("w4", 4);
        run_batch(inputs(), &cfg1).unwrap();
        run_batch(inputs(), &cfg4).unwrap();
        for (id, _) in inputs() {
            let a = std::fs::read(cfg1.out_dir.join(format!("{id}.restored.qasm"))).unwrap();
            let b = std::fs::read(cfg4.out_dir.join(format!("{id}.restored.qasm"))).unwrap();
            assert_eq!(a, b, "job {id} diverged across worker counts");
        }
        let m1 = std::fs::read(cfg1.out_dir.join(MANIFEST_FILE)).unwrap();
        let m4 = std::fs::read(cfg4.out_dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(m1, m4, "manifest diverged across worker counts");
    }

    #[test]
    fn resume_skips_completed_jobs() {
        let mut cfg = config("skip", 2);
        let first = run_batch(inputs(), &cfg).unwrap();
        assert!(first.all_equivalent());
        cfg.resume = true;
        let second = run_batch(inputs(), &cfg).unwrap();
        assert!(second.all_equivalent());
        for o in &second.outcomes {
            assert!(o.resumed, "job {} should have resumed", o.id);
        }
    }

    #[test]
    fn resume_refuses_mismatched_config() {
        let mut cfg = config("mismatch", 1);
        run_batch(inputs(), &cfg).unwrap();
        cfg.resume = true;
        cfg.job.seed = 999;
        let report = run_batch(inputs(), &cfg).unwrap();
        assert_eq!(report.failed(), 3);
        for o in &report.outcomes {
            let failure = o.result.as_ref().unwrap_err();
            assert!(
                failure.message().contains("different job configuration"),
                "{failure}"
            );
        }
    }

    #[test]
    fn panicking_job_records_panicked_manifest_state() {
        // The hook matches by exact id, so a unique id keeps this safe
        // alongside the other (parallel) tests in this binary.
        std::env::set_var(crate::job::PANIC_JOB_ENV, "panicky_zeta");
        let mut c = Circuit::with_name(3, "panicky");
        c.x(0).cx(0, 1);
        let report = run_batch(vec![("panicky_zeta".to_string(), c)], &config("panic", 1)).unwrap();
        std::env::remove_var(crate::job::PANIC_JOB_ENV);
        assert_eq!(report.failed(), 1);
        assert!(
            matches!(report.outcomes[0].result, Err(JobFailure::Panicked(_))),
            "{:?}",
            report.outcomes[0].result
        );
        let manifest = std::fs::read_to_string(&report.manifest_path).unwrap();
        assert!(
            manifest.contains("panicky_zeta\tPANICKED\t-\t"),
            "{manifest}"
        );
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut dup = inputs();
        let clone = dup[0].clone();
        dup.push(clone);
        assert!(run_batch(dup, &config("dup", 1)).is_err());
    }
}
