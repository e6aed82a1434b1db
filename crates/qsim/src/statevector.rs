//! Statevector simulation.
//!
//! The hot path lives in the crate-private `kernels` and `exec`
//! modules: branch-free stride loops that enumerate only the
//! amplitude-group base indices, specialized
//! diagonal/antidiagonal/permutation fast paths, persistent-pool
//! multi-threaded application above [`PARALLEL_MIN_QUBITS`] qubits,
//! and layer-blocked sweeps above [`LAYER_MIN_QUBITS`] qubits (a whole
//! run of cache-block-local gates is applied per pass over the array
//! instead of one pass per gate). [`Statevector::apply_circuit`]
//! additionally runs `qcir`'s single-qubit fusion pre-pass, collapsing
//! runs of adjacent same-wire gates into one kernel application — but
//! only when `qcir`'s structural cost model says the fused kernel is
//! cheaper than the specialized per-gate paths it displaces (see
//! [`ExecConfig`] to pin any of this down, e.g. for benchmarking).

use crate::complex::C64;
use crate::error::SimError;
use crate::exec::{Executor, KernelOp};
use crate::kernels::{Mat2, Threading};
use crate::matrix::{gate_matrix, Matrix};
use qcir::fusion::{
    fused_stream, fused_sweep_cost, fusion_wins, gate_sweep_cost, run_kernel_class, CostRegime,
    FusedOp, KernelClass,
};
use qcir::{Circuit, Gate, Instruction, Qubit};
use rand::Rng;

pub use crate::exec::{BLOCK_QUBITS, LAYER_MIN_QUBITS};
pub use crate::kernels::PARALLEL_MIN_QUBITS;

// Cost-model outcome counters for the fusion gate in
// `apply_circuit_with`; at `QOBS=full` each decision additionally emits
// a `qsim.fusion.decision` event carrying the plan-cost inputs.
static FUSION_ACCEPTED: qobs::Counter = qobs::Counter::new("qsim.fusion.accepted");
static FUSION_REJECTED: qobs::Counter = qobs::Counter::new("qsim.fusion.rejected");
static APPLY_CIRCUITS: qobs::Counter = qobs::Counter::new("qsim.apply_circuit.calls");

/// A pure n-qubit quantum state as 2ⁿ complex amplitudes.
///
/// Amplitude index bit `k` is the state of qubit `k` (little-endian), so
/// `amp[0b10]` on two qubits is the amplitude of `|q1=1, q0=0⟩`. Formatted
/// bitstrings (as produced by [`crate::sampler`]) print qubit 0 rightmost,
/// matching Qiskit's convention.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qsim::Statevector;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let state = Statevector::from_circuit(&bell)?;
/// let probs = state.probabilities();
/// assert!((probs[0] - 0.5).abs() < 1e-12); // |00>
/// assert!((probs[3] - 0.5).abs() < 1e-12); // |11>
/// # Ok::<(), qsim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Statevector {
    num_qubits: u32,
    amps: Vec<C64>,
}

/// Maximum number of qubits the dense simulator accepts (2²⁸ amplitudes
/// ≈ 4 GiB); the paper's circuits use at most 12. Everything deriving a
/// capacity from the simulator — [`SimError::TooManyQubits`], the
/// qverify stimulus tier, the CLI help — must reference this constant
/// rather than repeat the number.
pub const MAX_QUBITS: u32 = 28;

/// Register size at which [`Statevector::apply_circuit`] starts fusing
/// adjacent single-qubit gates; below it the per-run matrix products
/// cost more than the saved passes over a tiny amplitude array.
pub const FUSION_MIN_QUBITS: u32 = 8;

/// Register size at which the fusion cost model switches from the
/// compute-bound to the memory-bound regime (`2²³` amplitudes
/// = 128 MiB, past any last-level cache): below it arithmetic per
/// amplitude decides whether fusing a run wins; above it every pass
/// streams the state from DRAM, so fewer passes always win.
pub const MEM_BOUND_MIN_QUBITS: u32 = 23;

/// The kernel worker count the engine resolves on first use:
/// `QSIM_WORKERS` if set to a positive integer, otherwise
/// `std::thread::available_parallelism`, both clamped to the internal
/// cap of 8 (the kernels are memory-bandwidth-bound beyond that).
/// Memoized — changing the environment variable after the first kernel
/// call has no effect.
///
/// # Example
///
/// ```
/// let workers = qsim::statevector::resolved_workers();
/// assert!((1..=8).contains(&workers));
/// ```
pub fn resolved_workers() -> usize {
    crate::pool::default_workers()
}

/// The arithmetic path the kernels take on this CPU: `"avx2"` when it
/// reports AVX2 at run time, `"scalar"` otherwise. Both paths give
/// bit-identical amplitudes; this is a machine fact for benchmark
/// records, not a setting.
///
/// # Example
///
/// ```
/// let path = qsim::statevector::kernel_path();
/// assert!(path == "avx2" || path == "scalar");
/// ```
pub fn kernel_path() -> &'static str {
    crate::kernels::path()
}

/// Execution configuration for the kernel engine.
///
/// The defaults (gate fusion on, auto thread count) are what
/// [`Statevector::apply_circuit`] uses; construct one explicitly only
/// to pin behaviour down, e.g. in benchmarks comparing fused against
/// unfused application.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qsim::statevector::{ExecConfig, Statevector};
///
/// let mut c = Circuit::new(10);
/// for q in 0..10 {
///     c.h(q).t(q).h(q);
/// }
/// let mut fused = Statevector::zero(10)?;
/// fused.apply_circuit_with(&c, &ExecConfig::default())?;
/// let mut unfused = Statevector::zero(10)?;
/// unfused.apply_circuit_with(&c, &ExecConfig::unfused())?;
/// assert!(fused.approx_eq_up_to_phase(&unfused, 1e-12));
/// # Ok::<(), qsim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Fuse runs of adjacent same-wire single-qubit gates into one
    /// kernel application (above [`FUSION_MIN_QUBITS`]), gated per run
    /// by the `qcir::fusion` cost model.
    pub fuse: bool,
    /// Kernel worker threads (`0` = auto-detect from `QSIM_WORKERS` /
    /// `available_parallelism`, capped at 8; threads only engage at
    /// [`PARALLEL_MIN_QUBITS`]+ qubits). See [`resolved_workers`].
    pub threads: usize,
    /// Layer-blocked sweep policy (see [`Blocking`]).
    pub blocking: Blocking,
}

/// Layer-blocked sweep policy: whether consecutive cache-block-local
/// kernel ops are batched and applied block by block in one pass over
/// the amplitude array.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qsim::statevector::{Blocking, ExecConfig, Statevector};
///
/// let mut c = Circuit::new(10);
/// for q in 0..10 {
///     c.h(q).t(q).cx(q, (q + 1) % 10);
/// }
/// let mut auto = Statevector::zero(10)?;
/// auto.apply_circuit_with(&c, &ExecConfig::default())?;
/// let mut forced = Statevector::zero(10)?;
/// forced.apply_circuit_with(
///     &c,
///     &ExecConfig { blocking: Blocking::Force, ..ExecConfig::default() },
/// )?;
/// // Layering never changes the arithmetic, only the sweep order.
/// assert_eq!(auto, forced);
/// # Ok::<(), qsim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Blocking {
    /// Layer sweeps at [`LAYER_MIN_QUBITS`]+ qubits (the default).
    #[default]
    Auto,
    /// Never batch; one full pass per kernel op.
    Off,
    /// Batch at any register size (used by the equivalence suite to
    /// exercise the layered path on small states).
    Force,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            fuse: true,
            threads: 0,
            blocking: Blocking::Auto,
        }
    }
}

impl ExecConfig {
    /// The default configuration with fusion disabled (per-instruction
    /// dispatch; stride kernels, threading, and layer blocking still
    /// apply).
    pub fn unfused() -> Self {
        ExecConfig {
            fuse: false,
            ..ExecConfig::default()
        }
    }
}

impl Statevector {
    /// Creates `|0…0⟩` over `num_qubits` qubits.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] beyond [`MAX_QUBITS`].
    pub fn zero(num_qubits: u32) -> Result<Self, SimError> {
        if num_qubits == 0 || num_qubits > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: MAX_QUBITS,
            });
        }
        let mut amps = vec![C64::ZERO; 1usize << num_qubits];
        amps[0] = C64::ONE;
        Ok(Statevector { num_qubits, amps })
    }

    /// Creates the computational basis state `|index⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] for oversized registers or
    /// [`SimError::InvalidState`] if `index` is out of range.
    pub fn basis(num_qubits: u32, index: usize) -> Result<Self, SimError> {
        let mut sv = Statevector::zero(num_qubits)?;
        if index >= sv.amps.len() {
            return Err(SimError::InvalidState(format!(
                "basis index {index} out of range for {num_qubits} qubits"
            )));
        }
        sv.amps[0] = C64::ZERO;
        sv.amps[index] = C64::ONE;
        Ok(sv)
    }

    /// Runs `circuit` on `|0…0⟩` and returns the final state.
    ///
    /// # Errors
    ///
    /// Propagates register-size errors from [`Statevector::zero`].
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, SimError> {
        let mut sv = Statevector::zero(circuit.num_qubits())?;
        sv.apply_circuit(circuit)?;
        Ok(sv)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Raw amplitudes (length `2^num_qubits`).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Applies every instruction of `circuit` in order, with the
    /// default execution configuration (fusion on, auto threads).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitMismatch`] if the circuit register exceeds
    /// the state's.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        self.apply_circuit_with(circuit, &ExecConfig::default())
    }

    /// Applies `circuit` under an explicit [`ExecConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitMismatch`] if the circuit register exceeds
    /// the state's.
    pub fn apply_circuit_with(
        &mut self,
        circuit: &Circuit,
        config: &ExecConfig,
    ) -> Result<(), SimError> {
        if circuit.num_qubits() > self.num_qubits {
            return Err(SimError::QubitMismatch {
                circuit: circuit.num_qubits(),
                state: self.num_qubits,
            });
        }
        APPLY_CIRCUITS.incr();
        let _span = qobs::span_at(qobs::Level::Full, "qsim.apply_circuit")
            .attr("wires", circuit.num_qubits() as u64)
            .attr("gates", circuit.gate_count());
        let th = Threading::with_workers(config.threads);
        let n = self.num_qubits;
        let layering = match config.blocking {
            Blocking::Off => false,
            Blocking::Force => true,
            Blocking::Auto => n >= LAYER_MIN_QUBITS,
        };
        let regime = if n >= MEM_BOUND_MIN_QUBITS {
            CostRegime::MemoryBound
        } else {
            CostRegime::ComputeBound
        };
        // A run needs at least two single-qubit gates to exist; purely
        // classical circuits (X/CX/CCX/Mcx — the RevLib suite) can't
        // contain one, so skip the stream rewrite and its per-run
        // allocations outright. The count is cached on the circuit, so
        // this costs one integer compare.
        let fusable = circuit.single_qubit_gate_count() >= 2;
        let mut ex = Executor::new(&mut self.amps, th, layering);
        if config.fuse && n >= FUSION_MIN_QUBITS && fusable {
            for op in fused_stream(circuit) {
                match op {
                    FusedOp::Single(inst) => lower_gate(inst.gate(), inst.qubits(), &mut ex),
                    FusedOp::Run(run) => {
                        if let [gate] = run.gates[..] {
                            lower_gate(gate, &[run.qubit], &mut ex);
                            continue;
                        }
                        let accepted = fusion_wins(&run.gates, regime);
                        if accepted {
                            FUSION_ACCEPTED.incr();
                        } else {
                            FUSION_REJECTED.incr();
                        }
                        if qobs::enabled(qobs::Level::Full) {
                            let unfused: f64 =
                                run.gates.iter().map(|g| gate_sweep_cost(g, regime)).sum();
                            qobs::event(
                                "qsim.fusion.decision",
                                &[
                                    ("qubit", qobs::AttrValue::from(run.qubit.index())),
                                    ("run_len", qobs::AttrValue::from(run.gates.len())),
                                    (
                                        "class",
                                        qobs::AttrValue::from(match run_kernel_class(&run.gates) {
                                            KernelClass::Diagonal => "diagonal",
                                            KernelClass::Antidiagonal => "antidiagonal",
                                            KernelClass::General => "general",
                                        }),
                                    ),
                                    (
                                        "regime",
                                        qobs::AttrValue::from(match regime {
                                            CostRegime::ComputeBound => "compute_bound",
                                            CostRegime::MemoryBound => "memory_bound",
                                        }),
                                    ),
                                    (
                                        "fused_cost",
                                        qobs::AttrValue::from(fused_sweep_cost(&run.gates, regime)),
                                    ),
                                    ("unfused_cost", qobs::AttrValue::from(unfused)),
                                    ("accepted", qobs::AttrValue::from(accepted)),
                                ],
                            );
                        }
                        if accepted {
                            let tbit = 1usize << run.qubit.index();
                            let m = compose_run(&run.gates);
                            match run_kernel_class(&run.gates) {
                                KernelClass::Diagonal => {
                                    debug_assert!(m.is_diagonal());
                                    ex.push(KernelOp::Diag1 {
                                        tbit,
                                        d0: m.m00,
                                        d1: m.m11,
                                    });
                                }
                                KernelClass::Antidiagonal => {
                                    debug_assert!(m.is_antidiagonal());
                                    ex.push(KernelOp::Anti1 {
                                        tbit,
                                        a01: m.m01,
                                        a10: m.m10,
                                    });
                                }
                                KernelClass::General => ex.push(KernelOp::Mat1 { tbit, m }),
                            }
                        } else {
                            // The cost model says the specialized
                            // per-gate paths are cheaper than one fused
                            // dense/antidiagonal pass.
                            for gate in &run.gates {
                                lower_gate(gate, &[run.qubit], &mut ex);
                            }
                        }
                    }
                }
            }
        } else {
            for inst in circuit.iter() {
                lower_gate(inst.gate(), inst.qubits(), &mut ex);
            }
        }
        ex.finish();
        Ok(())
    }

    /// Applies a single instruction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitMismatch`] if an operand is out of range.
    pub fn apply(&mut self, inst: &Instruction) -> Result<(), SimError> {
        self.apply_with(inst, Threading::auto())
    }

    fn apply_with(&mut self, inst: &Instruction, th: Threading) -> Result<(), SimError> {
        for q in inst.qubits() {
            if q.raw() >= self.num_qubits {
                return Err(SimError::QubitMismatch {
                    circuit: q.raw() + 1,
                    state: self.num_qubits,
                });
            }
        }
        let mut ex = Executor::new(&mut self.amps, th, false);
        lower_gate(inst.gate(), inst.qubits(), &mut ex);
        ex.finish();
        Ok(())
    }

    /// Born-rule probabilities of every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Probability of measuring the given basis index.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// L2 norm of the state (1.0 for any valid state).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the states have different sizes.
    pub fn inner(&self, other: &Statevector) -> C64 {
        assert_eq!(self.num_qubits, other.num_qubits, "size mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|⟨self|other⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics if the states have different sizes.
    pub fn fidelity(&self, other: &Statevector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Samples one measurement outcome (a basis index) without collapsing
    /// the state.
    pub fn sample_once<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, amp) in self.amps.iter().enumerate() {
            acc += amp.norm_sqr();
            if r < acc {
                return i;
            }
        }
        self.amps.len() - 1
    }

    /// `true` if the two states are equal up to a global phase within `eps`.
    pub fn approx_eq_up_to_phase(&self, other: &Statevector, eps: f64) -> bool {
        if self.num_qubits != other.num_qubits {
            return false;
        }
        let overlap = self.inner(other);
        (overlap.abs() - 1.0).abs() <= eps
            && (self.norm() - 1.0).abs() <= eps
            && (other.norm() - 1.0).abs() <= eps
    }
}

/// Lowers `gate` to its [`KernelOp`] form and pushes it into the
/// executor. Operands must already be validated against the register.
fn lower_gate(gate: &Gate, qubits: &[Qubit], ex: &mut Executor) {
    use std::f64::consts::FRAC_PI_4;
    let bit = |i: usize| 1usize << qubits[i].index();
    match gate {
        Gate::I => {}
        // Permutation gates: pure amplitude swaps.
        Gate::X => ex.push(KernelOp::Mcx {
            cmask: 0,
            tbit: bit(0),
        }),
        Gate::CX => ex.push(KernelOp::Mcx {
            cmask: bit(0),
            tbit: bit(1),
        }),
        Gate::CCX => ex.push(KernelOp::Mcx {
            cmask: bit(0) | bit(1),
            tbit: bit(2),
        }),
        Gate::Mcx(_) => {
            let (controls, target) = qubits.split_at(qubits.len() - 1);
            let cmask: usize = controls.iter().map(|q| 1usize << q.index()).sum();
            ex.push(KernelOp::Mcx {
                cmask,
                tbit: 1usize << target[0].index(),
            });
        }
        Gate::Swap => ex.push(KernelOp::SwapBits {
            cmask: 0,
            abit: bit(0).min(bit(1)),
            bbit: bit(0).max(bit(1)),
        }),
        Gate::CSwap => ex.push(KernelOp::SwapBits {
            cmask: bit(0),
            abit: bit(1).min(bit(2)),
            bbit: bit(1).max(bit(2)),
        }),
        // Diagonal gates: pure per-amplitude phase multiplies.
        Gate::Z => ex.push(KernelOp::Diag1 {
            tbit: bit(0),
            d0: C64::ONE,
            d1: -C64::ONE,
        }),
        Gate::S => ex.push(KernelOp::Diag1 {
            tbit: bit(0),
            d0: C64::ONE,
            d1: C64::I,
        }),
        Gate::Sdg => ex.push(KernelOp::Diag1 {
            tbit: bit(0),
            d0: C64::ONE,
            d1: -C64::I,
        }),
        Gate::T => ex.push(KernelOp::Diag1 {
            tbit: bit(0),
            d0: C64::ONE,
            d1: C64::cis(FRAC_PI_4),
        }),
        Gate::Tdg => ex.push(KernelOp::Diag1 {
            tbit: bit(0),
            d0: C64::ONE,
            d1: C64::cis(-FRAC_PI_4),
        }),
        Gate::P(a) => ex.push(KernelOp::Diag1 {
            tbit: bit(0),
            d0: C64::ONE,
            d1: C64::cis(*a),
        }),
        Gate::Rz(a) => ex.push(KernelOp::Diag1 {
            tbit: bit(0),
            d0: C64::cis(-a / 2.0),
            d1: C64::cis(a / 2.0),
        }),
        // Y is antidiagonal: one multiply per amplitude, not four.
        Gate::Y => ex.push(KernelOp::Anti1 {
            tbit: bit(0),
            a01: -C64::I,
            a10: C64::I,
        }),
        Gate::CZ => ex.push(KernelOp::Phase {
            set: bit(0) | bit(1),
            clear: 0,
            phase: -C64::ONE,
        }),
        Gate::CP(a) => ex.push(KernelOp::Phase {
            set: bit(0) | bit(1),
            clear: 0,
            phase: C64::cis(*a),
        }),
        Gate::CRz(a) => {
            ex.push(KernelOp::Phase {
                set: bit(0),
                clear: bit(1),
                phase: C64::cis(-a / 2.0),
            });
            ex.push(KernelOp::Phase {
                set: bit(0) | bit(1),
                clear: 0,
                phase: C64::cis(a / 2.0),
            });
        }
        // Remaining two-qubit unitaries: dedicated 2q kernel, never
        // the generic gather/scatter.
        Gate::CY | Gate::CH => ex.push(KernelOp::Mat2Q {
            p0: bit(0),
            p1: bit(1),
            m: gate_matrix(gate),
        }),
        // General single-qubit unitaries (H, Sx, Rx, Ry, U…).
        gate if gate.arity() == 1 => ex.push(KernelOp::Mat1 {
            tbit: bit(0),
            m: Mat2::from_matrix(&gate_matrix(gate)),
        }),
        // Fallback for any future gate without a specialized path.
        gate => {
            let bits: Vec<usize> = qubits.iter().map(|q| 1usize << q.index()).collect();
            ex.push(KernelOp::MatKQ {
                bits,
                m: gate_matrix(gate),
            });
        }
    }
}

/// Composes a fused run's gates into one 2×2 matrix (`gates[0]` acts
/// first, so the product is `m_k ⋯ m_1`).
fn compose_run(gates: &[&Gate]) -> Mat2 {
    let mut acc = Matrix::identity(2);
    for gate in gates {
        acc = gate_matrix(gate).mul(&acc);
    }
    Mat2::from_matrix(&acc)
}

/// The pre-kernel-engine naive loops, kept verbatim as the ground-truth
/// reference for the kernel-equivalence suite (`cargo test -p qsim --
/// kernels`): every new code path — stride, fused, threaded — must
/// reproduce these amplitudes to ≤ 1e-12.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Applies every instruction of `circuit` with the naive kernels.
    pub fn apply_circuit(amps: &mut [C64], circuit: &Circuit) {
        for inst in circuit.iter() {
            apply(amps, inst);
        }
    }

    /// The original `Statevector::apply` dispatch.
    pub fn apply(amps: &mut [C64], inst: &Instruction) {
        match inst.gate() {
            Gate::I => {}
            Gate::X => apply_x(amps, inst.qubits()[0]),
            Gate::CX => apply_cx(amps, inst.qubits()[0], inst.qubits()[1]),
            Gate::CCX => {
                let q = inst.qubits();
                apply_mcx(amps, &[q[0], q[1]], q[2]);
            }
            Gate::Mcx(_) => {
                let q = inst.qubits();
                let (controls, target) = q.split_at(q.len() - 1);
                apply_mcx(amps, controls, target[0]);
            }
            Gate::Swap => apply_swap(amps, inst.qubits()[0], inst.qubits()[1]),
            gate if gate.arity() == 1 => {
                apply_1q(amps, &gate_matrix(gate), inst.qubits()[0]);
            }
            gate => {
                apply_kq(amps, &gate_matrix(gate), inst.qubits());
            }
        }
    }

    fn apply_x(amps: &mut [C64], q: Qubit) {
        let bit = 1usize << q.index();
        for i in 0..amps.len() {
            if i & bit == 0 {
                amps.swap(i, i | bit);
            }
        }
    }

    fn apply_cx(amps: &mut [C64], control: Qubit, target: Qubit) {
        let cbit = 1usize << control.index();
        let tbit = 1usize << target.index();
        for i in 0..amps.len() {
            if i & cbit != 0 && i & tbit == 0 {
                amps.swap(i, i | tbit);
            }
        }
    }

    fn apply_mcx(amps: &mut [C64], controls: &[Qubit], target: Qubit) {
        let cmask: usize = controls.iter().map(|q| 1usize << q.index()).sum();
        let tbit = 1usize << target.index();
        for i in 0..amps.len() {
            if i & cmask == cmask && i & tbit == 0 {
                amps.swap(i, i | tbit);
            }
        }
    }

    fn apply_swap(amps: &mut [C64], a: Qubit, b: Qubit) {
        let abit = 1usize << a.index();
        let bbit = 1usize << b.index();
        for i in 0..amps.len() {
            if i & abit != 0 && i & bbit == 0 {
                amps.swap(i, (i & !abit) | bbit);
            }
        }
    }

    fn apply_1q(amps: &mut [C64], m: &Matrix, q: Qubit) {
        let bit = 1usize << q.index();
        let (m00, m01, m10, m11) = (m.get(0, 0), m.get(0, 1), m.get(1, 0), m.get(1, 1));
        for i in 0..amps.len() {
            if i & bit == 0 {
                let a0 = amps[i];
                let a1 = amps[i | bit];
                amps[i] = m00 * a0 + m01 * a1;
                amps[i | bit] = m10 * a0 + m11 * a1;
            }
        }
    }

    fn apply_kq(amps: &mut [C64], m: &Matrix, qubits: &[Qubit]) {
        let k = qubits.len();
        let dim = 1usize << k;
        debug_assert_eq!(m.dim(), dim);
        let bits: Vec<usize> = qubits.iter().map(|q| 1usize << q.index()).collect();
        let mask: usize = bits.iter().sum();

        let mut gathered = vec![C64::ZERO; dim];
        for base in 0..amps.len() {
            if base & mask != 0 {
                continue;
            }
            for (pattern, slot) in gathered.iter_mut().enumerate() {
                let mut idx = base;
                for (bit_pos, bit) in bits.iter().enumerate() {
                    if pattern & (1 << bit_pos) != 0 {
                        idx |= bit;
                    }
                }
                *slot = amps[idx];
            }
            for row in 0..dim {
                let mut acc = C64::ZERO;
                for (col, &g) in gathered.iter().enumerate() {
                    acc += m.get(row, col) * g;
                }
                let mut idx = base;
                for (bit_pos, bit) in bits.iter().enumerate() {
                    if row & (1 << bit_pos) != 0 {
                        idx |= bit;
                    }
                }
                amps[idx] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-12;

    #[test]
    fn zero_state_is_basis_zero() {
        let sv = Statevector::zero(3).unwrap();
        assert_eq!(sv.amplitudes()[0], C64::ONE);
        assert!((sv.norm() - 1.0).abs() < EPS);
        assert_eq!(sv.probabilities()[0], 1.0);
    }

    #[test]
    fn rejects_oversized_register() {
        assert!(Statevector::zero(0).is_err());
        assert!(Statevector::zero(MAX_QUBITS + 1).is_err());
    }

    #[test]
    fn basis_state_constructor() {
        let sv = Statevector::basis(2, 3).unwrap();
        assert_eq!(sv.probability(3), 1.0);
        assert!(Statevector::basis(2, 4).is_err());
    }

    #[test]
    fn x_flips_qubit() {
        let mut c = Circuit::new(2);
        c.x(0);
        let sv = Statevector::from_circuit(&c).unwrap();
        assert_eq!(sv.probability(0b01), 1.0);
        let mut c = Circuit::new(2);
        c.x(1);
        let sv = Statevector::from_circuit(&c).unwrap();
        assert_eq!(sv.probability(0b10), 1.0);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = Statevector::from_circuit(&c).unwrap();
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < EPS);
        assert!(p[1].abs() < EPS);
        assert!(p[2].abs() < EPS);
        assert!((p[3] - 0.5).abs() < EPS);
    }

    #[test]
    fn cx_only_fires_on_control() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let sv = Statevector::from_circuit(&c).unwrap();
        assert_eq!(sv.probability(0), 1.0); // control 0: no-op

        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1);
        let sv = Statevector::from_circuit(&c).unwrap();
        assert_eq!(sv.probability(0b11), 1.0);
    }

    #[test]
    fn ccx_truth_table() {
        for input in 0..8usize {
            let mut c = Circuit::new(3);
            for b in 0..3 {
                if input & (1 << b) != 0 {
                    c.x(b as u32);
                }
            }
            c.ccx(0, 1, 2);
            let sv = Statevector::from_circuit(&c).unwrap();
            let expected = if input & 0b11 == 0b11 {
                input ^ 0b100
            } else {
                input
            };
            assert!(
                (sv.probability(expected) - 1.0).abs() < EPS,
                "input {input} mapped wrong"
            );
        }
    }

    #[test]
    fn mcx_matches_expected_permutation() {
        for input in 0..16usize {
            let mut c = Circuit::new(4);
            for b in 0..4 {
                if input & (1 << b) != 0 {
                    c.x(b as u32);
                }
            }
            c.mcx(&[0, 1, 2], 3);
            let sv = Statevector::from_circuit(&c).unwrap();
            let expected = if input & 0b111 == 0b111 {
                input ^ 0b1000
            } else {
                input
            };
            assert!((sv.probability(expected) - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut c = Circuit::new(2);
        c.x(0).swap(0, 1);
        let sv = Statevector::from_circuit(&c).unwrap();
        assert_eq!(sv.probability(0b10), 1.0);
    }

    #[test]
    fn cswap_controlled_behaviour() {
        // Control clear: no swap.
        let mut c = Circuit::new(3);
        c.x(1).cswap(0, 1, 2);
        let sv = Statevector::from_circuit(&c).unwrap();
        assert_eq!(sv.probability(0b010), 1.0);
        // Control set: swap.
        let mut c = Circuit::new(3);
        c.x(0).x(1).cswap(0, 1, 2);
        let sv = Statevector::from_circuit(&c).unwrap();
        assert_eq!(sv.probability(0b101), 1.0);
    }

    #[test]
    fn circuit_then_inverse_is_identity() {
        let mut c = Circuit::new(3);
        c.h(0)
            .t(1)
            .cx(0, 1)
            .rz(0.37, 2)
            .ccx(0, 1, 2)
            .s(2)
            .swap(0, 2);
        let mut sv = Statevector::from_circuit(&c).unwrap();
        sv.apply_circuit(&c.inverse()).unwrap();
        let zero = Statevector::zero(3).unwrap();
        assert!(sv.approx_eq_up_to_phase(&zero, 1e-10));
        assert!((sv.probability(0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn norm_preserved_through_random_circuit() {
        let mut c = Circuit::new(4);
        c.h(0)
            .rx(0.3, 1)
            .cp(0.9, 0, 2)
            .ccx(0, 1, 3)
            .ry(1.2, 2)
            .crz(0.5, 3, 0)
            .u(0.2, 0.4, 0.6, 1)
            .ch(2, 3);
        let sv = Statevector::from_circuit(&c).unwrap();
        assert!((sv.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn kq_path_matches_fast_path() {
        // Apply CX via the generic gather/scatter path and compare.
        let mut c = Circuit::new(3);
        c.h(0).h(2);
        let mut fast = Statevector::from_circuit(&c).unwrap();
        let slow = fast.clone();
        let inst = Instruction::new(Gate::CX, vec![Qubit::new(0), Qubit::new(2)]).unwrap();
        fast.apply(&inst).unwrap();
        let mut slow_amps = slow.amps;
        let bits: Vec<usize> = inst.qubits().iter().map(|q| 1usize << q.index()).collect();
        crate::kernels::apply_kq(
            &mut slow_amps,
            Threading::single(),
            &bits,
            &gate_matrix(&Gate::CX),
        );
        for (a, b) in fast.amplitudes().iter().zip(&slow_amps) {
            assert!(a.approx_eq(*b, EPS));
        }
    }

    #[test]
    fn fused_and_unfused_agree_on_deep_runs() {
        // Long same-wire chains interleaved with entanglers: the fusion
        // pre-pass must not change the state.
        let n = FUSION_MIN_QUBITS + 1;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q).t(q).rz(0.3 * (q as f64 + 1.0), q).s(q).h(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..n {
            c.tdg(q).sx(q).p(-0.8, q);
        }
        let mut fused = Statevector::zero(n).unwrap();
        fused
            .apply_circuit_with(&c, &ExecConfig::default())
            .unwrap();
        let mut unfused = Statevector::zero(n).unwrap();
        unfused
            .apply_circuit_with(&c, &ExecConfig::unfused())
            .unwrap();
        for (a, b) in fused.amplitudes().iter().zip(unfused.amplitudes()) {
            assert!(a.approx_eq(*b, EPS));
        }
    }

    #[test]
    fn fidelity_and_inner() {
        let a = Statevector::basis(2, 0).unwrap();
        let b = Statevector::basis(2, 3).unwrap();
        assert_eq!(a.fidelity(&b), 0.0);
        assert_eq!(a.fidelity(&a), 1.0);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut c = Circuit::new(1);
        c.h(0);
        let sv = Statevector::from_circuit(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 10_000;
        let ones = (0..n).filter(|_| sv.sample_once(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn mismatched_circuit_register_rejected() {
        let mut sv = Statevector::zero(2).unwrap();
        let mut c = Circuit::new(3);
        c.x(2);
        assert!(sv.apply_circuit(&c).is_err());
    }

    #[test]
    fn global_phase_equality() {
        let mut c1 = Circuit::new(1);
        c1.rz(1.0, 0);
        let mut c2 = Circuit::new(1);
        c2.p(1.0, 0);
        let s1 = Statevector::from_circuit(&c1).unwrap();
        let s2 = Statevector::from_circuit(&c2).unwrap();
        // On |0>, rz and p differ only by global phase.
        assert!(s1.approx_eq_up_to_phase(&s2, EPS));
    }

    #[test]
    fn compose_run_multiplies_in_application_order() {
        // h then s: matrix is S·H, which maps |0⟩ to (|0⟩ + i|1⟩)/√2.
        let m = compose_run(&[&Gate::H, &Gate::S]);
        assert!(m
            .m00
            .approx_eq(C64::real(std::f64::consts::FRAC_1_SQRT_2), EPS));
        assert!(m
            .m10
            .approx_eq(C64::new(0.0, std::f64::consts::FRAC_1_SQRT_2), EPS));
        // A run of diagonal gates composes to an exactly-diagonal matrix.
        let d = compose_run(&[&Gate::T, &Gate::Rz(0.4), &Gate::S, &Gate::P(1.1)]);
        assert!(d.is_diagonal());
        // Any non-diagonal factor breaks exact diagonality.
        assert!(!compose_run(&[&Gate::T, &Gate::H]).is_diagonal());
    }
}
