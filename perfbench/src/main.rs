//! The repository benchmark: drives the TetrisLock pipeline from
//! outside, through the public API of each layer, on one seeded
//! workload, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with qobs off; `--trace
//! 1` replays the same work stage by stage with qobs at `counters` and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod gate;
mod layers;
mod machine;
mod workload;

use layers::Tracer;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Setup, UnitDirs, Workload};

/// Set-ups per run; `setup_s` is their median. The first one is timed
/// from process start.
const SETUP_REPS: usize = 15;

const USAGE: &str =
    "usage: perfbench --workload table1|rotations|wrong_key --seed N --seconds S --trace 0|1";

/// One named metric value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a run found.
struct Outcome {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Digests that must repeat across runs of one seed.
    digests: Vec<(&'static str, gate::Digest)>,
    probe: Option<machine::Bandwidth>,
}

impl Outcome {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Batch workers and qsim kernels get every CPU: pin the qsim pool
    // before its first use.
    let workers = machine::nproc();
    std::env::set_var("QSIM_WORKERS", workers.to_string());
    qobs::set_level(qobs::Level::Off);
    match run(&args, started, workers) {
        Ok((outcome, facts)) => {
            for failure in &outcome.failures {
                eprintln!("perfbench: FAILED {failure}");
            }
            println!("{facts}");
            println!("{}", outcome.result_line());
            if outcome.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sets up `SETUP_REPS` times, runs the workload, and checks the
/// digests against earlier runs of the same build and seed. Returns the
/// outcome and the machine-facts line.
fn run(args: &Args, started: Instant, workers: usize) -> Result<(Outcome, String), String> {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    let root = base.join(args.workload.name());
    match std::fs::remove_dir_all(&root) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("cannot clear {}: {e}", root.display()))
        }
        _ => {}
    }
    let mut setup_s = Vec::new();
    let mut parse_ms = Vec::new();
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        let t = if rep == 0 { started } else { Instant::now() };
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        let s = workload::setup(args.workload, args.seed, &root)?;
        setup_s.push(t.elapsed().as_secs_f64());
        parse_ms.push(s.parse_ms);
        setup = Some(s);
    }
    let setup = setup.expect("SETUP_REPS is positive");
    // The oracle loop is serial; the batches use every CPU.
    let batch_workers = if args.workload == Workload::WrongKey {
        1
    } else {
        workers
    };
    let mut outcome = if args.trace {
        traced(args, &setup, &root, batch_workers, median(&parse_ms))?
    } else {
        let mut outcome = untraced(args, &setup, &root, batch_workers)?;
        let rss = machine::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        outcome
            .metrics
            .insert(0, Metric::new("setup_s", median(&setup_s), "s"));
        outcome
            .metrics
            .push(Metric::new("peak_rss_mib", rss, "MiB"));
        outcome
    };
    let record = base.join("digests").join(format!(
        "{}-seed{}-{}.txt",
        args.workload.name(),
        args.seed,
        build_id()
    ));
    let mismatches = gate::check_recorded(&record, &outcome.digests)?;
    outcome.failures.extend(mismatches);
    let facts = machine::Facts::gather(batch_workers, &root).to_json(outcome.probe.as_ref());
    Ok((outcome, facts))
}

/// Identifies this build of the benchmark and program, so a digest is
/// only ever compared with one recorded by the same build.
fn build_id() -> String {
    let mut digest = gate::Digest::new();
    if let Ok(meta) = std::env::current_exe().and_then(std::fs::metadata) {
        digest.update(&meta.len().to_le_bytes());
        if let Ok(modified) = meta.modified() {
            digest.update(format!("{modified:?}").as_bytes());
        }
    }
    digest.hex()
}

/// The end-to-end run, qobs off: units of the workload back to back
/// until `--seconds` would be exceeded by one more (at least one unit).
/// `run_s` is the median unit.
fn untraced(args: &Args, setup: &Setup, root: &Path, workers: usize) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let run_started = Instant::now();
    let mut unit_s: Vec<f64> = Vec::new();
    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut digests = Vec::new();
    loop {
        let secs = if args.workload == Workload::WrongKey {
            let t = Instant::now();
            let reports =
                workload::oracle_loop(&setup.targets, &setup.config, &mut Tracer::new(false))?;
            let secs = t.elapsed().as_secs_f64();
            let (bad, digest) = workload::judge_oracle(&setup.targets, &reports);
            attempted += reports.len();
            failures.extend(bad);
            digests.push(digest);
            secs
        } else {
            let dirs = UnitDirs::new(root, &format!("unit{}", unit_s.len()));
            let (secs, report) =
                workload::batch_unit(setup.jobs.clone(), &setup.config, &dirs, workers)?;
            attempted += setup.jobs.len();
            failures.extend(gate::batch_failures(&report, setup.jobs.len()));
            digests.push(gate::digest_outputs(&dirs.out)?);
            dirs.remove()?;
            secs
        };
        unit_s.push(secs);
        if run_started.elapsed() + Duration::from_secs_f64(secs) > budget {
            break;
        }
    }
    eprintln!(
        "perfbench: {} unit seconds {unit_s:?}",
        args.workload.name()
    );
    if digests.windows(2).any(|w| w[0] != w[1]) {
        failures.push("outputs differ between units of one run".to_string());
    }
    Ok(Outcome {
        attempted,
        failures,
        metrics: vec![Metric::new("run_s", median(&unit_s), "s")],
        digests: vec![("outputs", digests[0])],
        probe: None,
    })
}

/// The traced run. It does one unit untraced (for `run_s` and the
/// outputs), then replays the same work serially twice through
/// [`Tracer`]: once with qobs off, once at `counters`. The first gives
/// the serial work behind `core.batch.parallel_efficiency`, the pair
/// gives `qobs.overhead_frac`, and the second gives every per-layer
/// number. All three must emit identical outputs.
fn traced(
    args: &Args,
    setup: &Setup,
    root: &Path,
    workers: usize,
    parse_ms: f64,
) -> Result<Outcome, String> {
    let trace_path = root.join("trace.jsonl");
    let mut failures = Vec::new();
    let mut digests = Vec::new();
    let attempted;
    let (run_s, plain_ms, traced_ms, layers) = if args.workload == Workload::WrongKey {
        let mut plain = Tracer::new(false);
        let t = Instant::now();
        let reports = workload::oracle_loop(&setup.targets, &setup.config, &mut plain)?;
        let run_s = t.elapsed().as_secs_f64();
        let (bad, digest) = workload::judge_oracle(&setup.targets, &reports);
        failures.extend(bad);
        digests.push(digest);

        let mut tracer = Tracer::new(true);
        let targets = workload::prepare_attack(&setup.jobs, args.seed, root, &mut tracer)?;
        let before = tracer.layers.work_ms;
        let reports = workload::oracle_loop(&targets, &setup.config, &mut tracer)?;
        let traced_ms = tracer.layers.work_ms - before;
        let (bad, digest) = workload::judge_oracle(&targets, &reports);
        failures.extend(bad);
        digests.push(digest);
        attempted = 2 * reports.len();
        let layers = tracer
            .finish(Some(&trace_path))
            .map_err(|e| e.to_string())?;
        (run_s, plain.layers.work_ms, traced_ms, layers)
    } else {
        let n = setup.jobs.len();
        let dirs = UnitDirs::new(root, "batch");
        let (run_s, report) =
            workload::batch_unit(setup.jobs.clone(), &setup.config, &dirs, workers)?;
        failures.extend(gate::batch_failures(&report, n));
        digests.push(gate::digest_outputs(&dirs.out)?);
        dirs.remove()?;

        let mut passes = Vec::new();
        for (name, enabled) in [("replay_plain", false), ("replay_traced", true)] {
            let dirs = UnitDirs::new(root, name);
            let mut tracer = Tracer::new(enabled);
            let report = workload::replay(&setup.jobs, &setup.config, &dirs, &mut tracer)?;
            let layers = tracer
                .finish(enabled.then_some(trace_path.as_path()))
                .map_err(|e| e.to_string())?;
            failures.extend(gate::batch_failures(&report, n));
            digests.push(gate::digest_outputs(&dirs.out)?);
            dirs.remove()?;
            passes.push(layers);
        }
        attempted = 3 * n;
        let layers = passes.pop().expect("two passes");
        let plain = passes.pop().expect("two passes");
        (run_s, plain.work_ms, layers.work_ms, layers)
    };
    if digests.windows(2).any(|w| w[0] != w[1]) {
        failures.push("traced replay emitted different outputs than the untraced run".to_string());
    }
    let efficiency = plain_ms / 1e3 / (workers as f64 * run_s);
    let overhead = traced_ms / plain_ms - 1.0;
    let probe = machine::bandwidth_probe(qsim::statevector::resolved_workers());
    let metrics = layers.metrics(parse_ms, efficiency, overhead, probe.gbps);
    let counts = layers::count_digest(&metrics);
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        digests: vec![("outputs", digests[0]), ("counts", counts)],
        probe: Some(probe),
    })
}
