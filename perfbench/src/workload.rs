//! The four workloads: seeded input generation (the set-up), the
//! untraced unit a run repeats, and the stage-by-stage replay the
//! traced run makes of the same work.

use crate::gate;
use crate::layers::Tracer;
use qcir::random::{random_unitary_circuit, RandomCircuitConfig};
use qcir::{Circuit, Qubit};
use qverify::{Report, Verifier};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tetrislock::batch::{run_batch, BatchConfig, BatchReport};
use tetrislock::job::{checkpoint_path, save_checkpoint, JobConfig, JobStage, JobState};

/// Register sizes of the `rotations` circuits, costliest first so the
/// batch workers finish close together: 10–12 wires fall to the dense
/// tier, 14–20 wires to the stimulus tier. The two costliest sizes come
/// twice so no single circuit sets the unit's time.
const ROTATION_SIZES: [u32; 9] = [20, 20, 12, 12, 18, 11, 16, 10, 14];
const ROTATION_GATES_PER_QUBIT: usize = 10;

/// Protections (obfuscation and split, each from its own seed) per
/// Table I circuit in `wrong_key`; each yields one wrong placement.
/// Refutation cost depends on the split, so several average it.
const KEYS_PER_CIRCUIT: u64 = 3;

/// Placement draws per protection before `wrong_key` gives up looking
/// for a wrong one.
const PLACEMENT_DRAWS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1,
    Rotations,
    WrongKey,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Table1, Workload::Rotations, Workload::WrongKey];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Rotations => "rotations",
            Workload::WrongKey => "wrong_key",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: the benchmark's own seed expansion, so inputs depend on
/// the seed alone.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The default pipeline configuration with its seeds drawn from `seed`.
fn job_config(seed: u64) -> JobConfig {
    JobConfig {
        seed: mix(seed, 1),
        split_seed: mix(seed, 2),
        verify_seed: mix(seed, 3),
        ..JobConfig::default()
    }
}

/// One protected Table I circuit as the colluding compilers hold it —
/// both compiled segments, and the victim in the attacker's frame (left
/// wires pinned to `0..n_left`) — with a candidate placement of the
/// right segment and that candidate's known answer.
pub struct Target {
    pub name: String,
    victim: Circuit,
    left: Circuit,
    right: Circuit,
    register: u32,
    placement: Vec<u32>,
    known_equivalent: bool,
}

/// What set-up hands the program.
pub struct Setup {
    pub jobs: Vec<(String, Circuit)>,
    pub config: JobConfig,
    pub targets: Vec<Target>,
    pub parse_ms: f64,
}

/// Generates the workload's inputs from `seed` as source text, parses
/// them through the program's front ends and, for `wrong_key`, prepares
/// the attack targets.
///
/// # Errors
///
/// A message if any input fails to parse or prepare.
pub fn setup(workload: Workload, seed: u64, scratch: &Path) -> Result<Setup, String> {
    let config = job_config(seed);
    let sources: Vec<(String, String)> = match workload {
        Workload::Table1 | Workload::WrongKey => revlib::table1_benchmarks()
            .iter()
            .map(|b| {
                Ok((
                    b.name().to_string(),
                    qcir::real::to_real(b.circuit()).map_err(|e| e.to_string())?,
                ))
            })
            .collect::<Result<_, String>>()?,
        Workload::Rotations => ROTATION_SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let c = random_unitary_circuit(&RandomCircuitConfig::new(
                    n,
                    ROTATION_GATES_PER_QUBIT * n as usize,
                    mix(seed, 100 + i as u64),
                ));
                (format!("rot{i}_{n}q"), qcir::qasm::to_qasm(&c))
            })
            .collect(),
    };
    let started = Instant::now();
    let jobs = sources
        .iter()
        .map(|(id, text)| {
            let parsed = match workload {
                Workload::Table1 | Workload::WrongKey => qcir::real::from_real(text),
                Workload::Rotations => qcir::qasm::from_qasm(text),
            };
            Ok((id.clone(), parsed.map_err(|e| format!("{id}: {e}"))?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let parse_ms = started.elapsed().as_secs_f64() * 1e3;
    let targets = match workload {
        Workload::WrongKey => prepare_attack(&jobs, seed, scratch, &mut Tracer::new(false))?,
        _ => Vec::new(),
    };
    Ok(Setup {
        jobs,
        config,
        targets,
        parse_ms,
    })
}

/// A unit's job and output directories.
pub struct UnitDirs {
    pub jobs: PathBuf,
    pub out: PathBuf,
    root: PathBuf,
}

impl UnitDirs {
    pub fn new(parent: &Path, name: &str) -> UnitDirs {
        let root = parent.join(name);
        UnitDirs {
            jobs: root.join("jobs"),
            out: root.join("out"),
            root,
        }
    }

    pub fn remove(&self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.root)
            .map_err(|e| format!("cannot remove {}: {e}", self.root.display()))
    }

    fn batch_config(&self, workers: usize, resume: bool, job: &JobConfig) -> BatchConfig {
        BatchConfig {
            jobs_dir: self.jobs.clone(),
            out_dir: self.out.clone(),
            workers,
            resume,
            job: job.clone(),
        }
    }
}

/// One untraced unit of a batch workload: a single `run_batch` call.
/// Returns its wall time in seconds and the report.
///
/// # Errors
///
/// A message for a batch-level failure.
pub fn batch_unit(
    jobs: Vec<(String, Circuit)>,
    config: &JobConfig,
    dirs: &UnitDirs,
    workers: usize,
) -> Result<(f64, BatchReport), String> {
    let batch = dirs.batch_config(workers, false, config);
    let started = Instant::now();
    let report = run_batch(jobs, &batch).map_err(|e| e.to_string())?;
    Ok((started.elapsed().as_secs_f64(), report))
}

/// Replays `run_batch`'s per-job work one job after another: each
/// stage is one `JobState::advance` followed by one
/// `job::save_checkpoint`, each a call through `tracer`. A resumed
/// `run_batch` over the replayed checkpoints then writes the manifest,
/// and its report is returned for the known-answer gate.
///
/// # Errors
///
/// A message when a directory cannot be created or the resumed batch
/// fails as a whole. A failing job ends its own replay only; the gate
/// reports it.
pub fn replay(
    jobs: &[(String, Circuit)],
    config: &JobConfig,
    dirs: &UnitDirs,
    tracer: &mut Tracer,
) -> Result<BatchReport, String> {
    for dir in [&dirs.jobs, &dirs.out] {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    for (id, circuit) in jobs {
        tracer.open("job", id);
        let mut state = JobState::new(id.clone(), circuit.clone(), config.clone());
        while !state.is_done() {
            if advance(&mut state, &dirs.out, tracer).is_err() {
                break;
            }
            let (saved, probe) = tracer.call("job.save_checkpoint", id, || {
                save_checkpoint(&dirs.jobs, &state)
            });
            if saved.is_err() {
                break;
            }
            let bytes = std::fs::metadata(checkpoint_path(&dirs.jobs, id)).map_or(0, |m| m.len());
            tracer.layers.save(&probe, bytes);
        }
        tracer.close();
    }
    run_batch(jobs.to_vec(), &dirs.batch_config(1, true, config)).map_err(|e| e.to_string())
}

/// One `JobState::advance` through `tracer`, credited to its layer.
fn advance(state: &mut JobState, out_dir: &Path, tracer: &mut Tracer) -> Result<(), String> {
    let stage = state.stage;
    let id = state.id.clone();
    let (result, probe) = tracer.call(stage_span(stage), &id, || state.advance(out_dir));
    result.map_err(|e| e.to_string())?;
    tracer.layers.stage(stage, &probe, state);
    Ok(())
}

fn stage_span(stage: JobStage) -> &'static str {
    match stage {
        JobStage::Obfuscate => "job.obfuscate",
        JobStage::Split => "job.split",
        JobStage::CompileLeft => "job.compile_left",
        JobStage::CompileRight => "job.compile_right",
        JobStage::Recombine => "job.recombine",
        JobStage::Verify => "job.verify",
        JobStage::Emit => "job.emit",
        JobStage::Done => "job.done",
    }
}

/// Protects each victim [`KEYS_PER_CIRCUIT`] times, each time
/// obfuscating, splitting and compiling both segments as a job would
/// under its own seeds, then draws one wrong placement of the right
/// segment per protection. A placement counts as wrong when classical
/// replay of the uncompiled reassembly differs from the victim.
///
/// # Errors
///
/// A message if a stage fails, a compiled segment needs a spare wire,
/// or no wrong placement turns up.
pub fn prepare_attack(
    victims: &[(String, Circuit)],
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<Target>, String> {
    let mut targets = Vec::new();
    for (index, (name, victim)) in victims.iter().enumerate() {
        for key in 0..KEYS_PER_CIRCUIT {
            let salt = 10_000 + KEYS_PER_CIRCUIT * index as u64 + key;
            let config = job_config(mix(seed, salt));
            targets.push(prepare_target(
                &format!("{name}#{key}"),
                victim,
                &config,
                scratch,
                tracer,
            )?);
        }
    }
    Ok(targets)
}

fn prepare_target(
    name: &str,
    victim: &Circuit,
    config: &JobConfig,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<Target, String> {
    tracer.open("target", name);
    let mut state = JobState::new(name, victim.clone(), config.clone());
    while state.stage != JobStage::Recombine {
        advance(&mut state, scratch, tracer).map_err(|e| format!("{name}: {e}"))?;
    }
    tracer.close();
    let split = state.split.as_ref().ok_or("split missing after compile")?;
    let n = victim.num_qubits();
    if split.original_qubits != n {
        return Err(format!("{name}: obfuscation widened the register"));
    }
    let compiled = |c: &Option<tetrislock::job::CompiledSegment>, width: u32| {
        let circuit = &c.as_ref().ok_or("compiled segment missing")?.circuit;
        fit_width(circuit, width).map_err(|e| format!("{name}: {e}"))
    };
    let left = compiled(&state.compiled_left, split.left.circuit.num_qubits())?;
    let right = compiled(&state.compiled_right, split.right.circuit.num_qubits())?;

    // The attacker's frame: left-segment wires first, the rest after.
    let mut frame: BTreeMap<Qubit, Qubit> = split.left.wire_map.clone();
    let mut next = split.left.circuit.num_qubits();
    for wire in 0..n {
        frame.entry(Qubit::new(wire)).or_insert_with(|| {
            next += 1;
            Qubit::new(next - 1)
        });
    }
    let victim_in_frame = victim.remapped(n, &frame).map_err(|e| e.to_string())?;
    let right_home = split.right.inverse_map();
    let truth: Vec<u32> = (0..split.right.circuit.num_qubits())
        .map(|w| frame[&right_home[&Qubit::new(w)]].index() as u32)
        .collect();

    let mut rng = config.split_seed;
    for _ in 0..PLACEMENT_DRAWS {
        let placement = draw_placement(&mut rng, n, truth.len());
        if placement == truth {
            continue;
        }
        let uncompiled = tetrislock::attack_sim::reassemble(
            &split.left.circuit,
            &split.right.circuit,
            &placement,
            n,
        )
        .ok_or("drawn placement is not injective")?;
        let known_equivalent = gate::classical_equivalent(&victim_in_frame, &uncompiled)?;
        if !known_equivalent {
            return Ok(Target {
                name: name.to_string(),
                victim: victim_in_frame,
                left,
                right,
                register: n,
                placement,
                known_equivalent,
            });
        }
    }
    Err(format!(
        "{name}: no wrong placement in {PLACEMENT_DRAWS} draws"
    ))
}

/// The first `len` entries of a seeded shuffle of `0..register`.
fn draw_placement(rng: &mut u64, register: u32, len: usize) -> Vec<u32> {
    let mut wires: Vec<u32> = (0..register).collect();
    for i in (1..wires.len()).rev() {
        *rng = mix(*rng, i as u64);
        wires.swap(i, (*rng % (i as u64 + 1)) as usize);
    }
    wires.truncate(len);
    wires
}

/// `circuit` narrowed to `width` wires; the device may add spare wires
/// that a compiled segment must leave untouched.
fn fit_width(circuit: &Circuit, width: u32) -> Result<Circuit, String> {
    if circuit.num_qubits() == width {
        return Ok(circuit.clone());
    }
    let identity: BTreeMap<Qubit, Qubit> =
        (0..width).map(|w| (Qubit::new(w), Qubit::new(w))).collect();
    circuit
        .remapped(width, &identity)
        .map_err(|e| format!("compiled segment uses a spare wire: {e}"))
}

/// The oracle loop: each target's candidate is reassembled from the
/// compiled segments and checked against its victim. Returns one
/// report per target, in order.
///
/// # Errors
///
/// A message if a placement cannot be reassembled.
pub fn oracle_loop(
    targets: &[Target],
    config: &JobConfig,
    tracer: &mut Tracer,
) -> Result<Vec<Report>, String> {
    let verifier = Verifier::new()
        .with_trials(config.trials)
        .with_seed(config.verify_seed);
    let mut reports = Vec::new();
    for t in targets {
        tracer.open("candidate", &t.name);
        let (reassembled, probe) = tracer.call("attack.reassemble", &t.name, || {
            tetrislock::attack_sim::reassemble(&t.left, &t.right, &t.placement, t.register)
        });
        tracer.layers.reassemble(&probe);
        let reassembled =
            reassembled.ok_or_else(|| format!("{}: placement not injective", t.name))?;
        let (report, probe) = tracer.call("verify.check_report", &t.name, || {
            verifier.check_report(&t.victim, &reassembled)
        });
        tracer.layers.verify(&probe, t.register);
        tracer.close();
        reports.push(report);
    }
    Ok(reports)
}

/// Gate failures of an oracle loop's reports, and the digest of its
/// verdicts.
pub fn judge_oracle(targets: &[Target], reports: &[Report]) -> (Vec<String>, gate::Digest) {
    let mut failures = Vec::new();
    let mut digest = gate::Digest::new();
    for (t, report) in targets.iter().zip(reports) {
        if let Some(failure) = gate::oracle_failure(report, t.known_equivalent) {
            failures.push(format!("{} {:?}: {failure}", t.name, t.placement));
        }
        digest.update(
            format!(
                "{} {:?} {} {}",
                t.name, t.placement, report.verdict, report.tier
            )
            .as_bytes(),
        );
    }
    if targets.len() != reports.len() {
        failures.push(format!(
            "{} reports for {} candidates",
            reports.len(),
            targets.len()
        ));
    }
    (failures, digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_are_injective_and_seeded() {
        let mut a = 7;
        let mut b = 7;
        let p = draw_placement(&mut a, 9, 5);
        assert_eq!(p, draw_placement(&mut b, 9, 5));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert!(p.iter().all(|&w| w < 9));
    }

    #[test]
    fn wrong_key_gate_catches_a_planted_wrong_answer() {
        let victims: Vec<(String, Circuit)> =
            vec![("adder".into(), revlib::adder_1bit().circuit().clone())];
        let config = job_config(3);
        let scratch = std::env::temp_dir().join(format!("perfbench_wk_{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let mut targets = prepare_attack(&victims, 3, &scratch, &mut Tracer::new(false)).unwrap();
        assert_eq!(targets.len(), KEYS_PER_CIRCUIT as usize);
        let reports = oracle_loop(&targets, &config, &mut Tracer::new(false)).unwrap();
        assert_eq!(judge_oracle(&targets, &reports).0, Vec::<String>::new());
        // Plant a wrong known answer: the gate must flag the verdict.
        targets[0].known_equivalent = true;
        let (failures, _) = judge_oracle(&targets, &reports);
        assert_eq!(failures.len(), 1, "{failures:?}");
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn replay_emits_what_run_batch_emits() {
        let scratch = std::env::temp_dir().join(format!("perfbench_batch_{}", std::process::id()));
        let (replayed, batched) = (
            UnitDirs::new(&scratch, "replay"),
            UnitDirs::new(&scratch, "batch"),
        );
        let mut c = Circuit::new(4);
        c.ccx(0, 1, 3).cx(0, 1).ccx(1, 2, 3).cx(1, 2);
        let jobs = vec![("adder".to_string(), c)];
        let config = job_config(5);
        let mut tracer = Tracer::new(false);
        let report = replay(&jobs, &config, &replayed, &mut tracer).unwrap();
        assert_eq!(gate::batch_failures(&report, 1), Vec::<String>::new());
        let (_, report) = batch_unit(jobs, &config, &batched, 2).unwrap();
        assert_eq!(gate::batch_failures(&report, 1), Vec::<String>::new());
        assert_eq!(
            gate::digest_outputs(&replayed.out).unwrap(),
            gate::digest_outputs(&batched.out).unwrap()
        );
        let layers = tracer.finish(None).unwrap();
        assert!(layers.work_ms > 0.0);
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
