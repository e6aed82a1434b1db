//! # qverify — scalable circuit equivalence verification
//!
//! Every claim the TetrisLock reproduction makes — that
//! obfuscate→split→compile→recombine restores the original circuit, and
//! that a wrong interlock key does *not* — reduces to one question: do
//! two circuits implement the same unitary (up to global phase)? Dense
//! unitary extraction answers it exactly but dies at
//! [`MAX_UNITARY_QUBITS`] qubits. This crate answers it through a
//! *tiered* strategy instead, trying the cheapest decision procedure
//! that applies first, in this order:
//!
//! | Tier | Applies when | Cost | Verdict quality |
//! |---|---|---|---|
//! | [`Tier::Classical`] | both circuits are classical reversible, ≤ [`CLASSICAL_EXHAUSTIVE_MAX_QUBITS`] qubits | `O(2ⁿ·gates)` bit ops | exact (exhaustive) |
//! | [`Tier::Tableau`] | both circuits are Clifford | `O(n·gates)` words | exact (stabilizer) |
//! | [`Tier::Dense`], sparse pass | ≤ [`MAX_UNITARY_QUBITS`] qubits and every column within its support budget (≤ [`MAX_COLUMN_SUPPORT`] amplitudes, ≤ half the register) | `O(2ⁿ·gates·support)` | exact (every column) |
//! | [`Tier::Zx`] | the miter diagram reduces to the identity, or its residue yields a replay-confirmed witness | `O(gates²)` graph rewriting (+ a few replays) | exact, two-sided |
//! | [`Tier::Dense`], statevector pass | ≤ [`MAX_UNITARY_QUBITS`] qubits | `O(4ⁿ·gates)` | exact (every column) |
//! | [`Tier::Stimulus`] | ≤ [`MAX_STIMULUS_QUBITS`] qubits | `O(trials·2ⁿ·gates)`, parallel | statistical (miter) |
//!
//! The **dense** tier compares the two circuits column by column: basis
//! input `x` through both, then the overlap `⟨C₁·x|C₂·x⟩`. Its sparse
//! pass runs the columns on [`qsim::SparseColumn`] before ZX is tried.
//! Near-classical pairs — reversible logic compiled to H/T/CX, every
//! restored Table I circuit and every wrong key — keep a handful of
//! amplitudes per column and are decided there without building a ZX
//! graph. A column that outgrows its support budget stops the pass
//! without a verdict (at the first such column, often column 0 for
//! branchy pairs); ZX then runs, and after it the statevector pass.
//!
//! The **tableau** tier is an Aaronson–Gottesman stabilizer engine: it
//! conjugates the `2n` Pauli generators through `C₂†C₁` in `O(n)` per
//! gate and accepts iff every generator returns to itself with positive
//! sign — exact for Clifford circuits at hundreds of qubits. The **ZX**
//! tier translates the miter `C₂†C₁` into a spider graph — every spider
//! phase an exact dyadic-plus-symbolic [`Phase`], so no rewrite ever
//! fires on a float tolerance — and rewrites it with spider fusion,
//! identity removal, Hadamard-edge cancellation, local complementation,
//! pivoting, phase-gadget moves and phase-polynomial completion. Full
//! reduction to bare wires is an exact proof of equivalence with no
//! dense state and no qubit cap, which is what certifies Clifford+T
//! round-trips past every simulation tier. A *stalled* reduction proves
//! nothing by itself, but its residue proposes candidate basis inputs;
//! a candidate confirmed by an independent replay — limb-backed
//! classical bit evaluation for reversible circuits at **any** register
//! width, or a sparse basis-column replay of the miter up
//! to [`MAX_COLUMN_QUBITS`] wires (with a dense statevector fallback
//! for branchy miters within [`MAX_STIMULUS_QUBITS`]) — certifies
//! **inequivalence** with a concrete [`Witness::BasisInput`] /
//! [`Witness::BasisColumn`] / [`Witness::RelativePhase`]. With no
//! confirmed candidate the tier falls through. The **stimulus** tier
//! builds the same miter but runs it on randomized product-state inputs
//! (seeded, reproducible) in parallel batches across threads; any input
//! that fails to return to itself is a concrete counterexample
//! [`Witness::Stimulus`].
//!
//! # Example
//!
//! ```
//! use qcir::Circuit;
//! use qverify::{Tier, Verdict, Verifier};
//!
//! // A 50-qubit Clifford pair: far beyond dense unitary reach.
//! let mut a = Circuit::new(50);
//! let mut b = Circuit::new(50);
//! for q in 0..49 {
//!     a.h(q).cx(q, q + 1);
//!     b.h(q).cx(q, q + 1);
//! }
//! b.s(0).sdg(0); // extra canceling pair
//! let verifier = Verifier::new();
//! let report = verifier.check_report(&a, &b);
//! assert_eq!(report.tier, Tier::Tableau);
//! assert!(matches!(report.verdict, Verdict::Equivalent));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod classical;
mod clifford;
mod dense;
mod stimulus;
mod tableau;
mod zx;

pub use zx::phase::{Phase, DYADIC_GRID_LOG};
pub use zx::MAX_MCX_CONTROLS;

use qcir::{BasisBits, Circuit};
use std::fmt;

pub use qsim::statevector::MAX_QUBITS as MAX_STIMULUS_QUBITS;
pub use qsim::unitary::MAX_UNITARY_QUBITS;
pub use qsim::{MAX_COLUMN_QUBITS, MAX_COLUMN_SUPPORT};

/// Largest register for which the classical tier enumerates every basis
/// input (`2¹⁶` evaluations per circuit); beyond it classical circuits
/// fall through to the quantum tiers.
pub const CLASSICAL_EXHAUSTIVE_MAX_QUBITS: u32 = 16;

/// Most *branching* gates (H/CH/√X/Rx/Ry/U) a miter may contain for the
/// ZX tier's sparse basis-column replay to apply; branchier miters fall
/// back to one dense statevector replay within [`MAX_STIMULUS_QUBITS`],
/// and are replay-infeasible past it.
pub use qsim::MAX_COLUMN_BRANCHING;

// Tier dispatch telemetry: every tier attempt in `check_report` ticks
// its entered counter, records its elapsed time, and — when tracing at
// `QOBS=spans`+ — emits a `verify.tier` span whose `outcome` attribute
// marks whether the tier decided or fell through.
static TIER_CLASSICAL_ENTERED: qobs::Counter = qobs::Counter::new("qverify.tier.classical.entered");
static TIER_CLASSICAL_DECIDED: qobs::Counter = qobs::Counter::new("qverify.tier.classical.decided");
static TIER_TABLEAU_ENTERED: qobs::Counter = qobs::Counter::new("qverify.tier.tableau.entered");
static TIER_TABLEAU_DECIDED: qobs::Counter = qobs::Counter::new("qverify.tier.tableau.decided");
static TIER_ZX_ENTERED: qobs::Counter = qobs::Counter::new("qverify.tier.zx.entered");
static TIER_ZX_DECIDED: qobs::Counter = qobs::Counter::new("qverify.tier.zx.decided");
static TIER_DENSE_ENTERED: qobs::Counter = qobs::Counter::new("qverify.tier.dense.entered");
static TIER_DENSE_DECIDED: qobs::Counter = qobs::Counter::new("qverify.tier.dense.decided");
static TIER_STIMULUS_ENTERED: qobs::Counter = qobs::Counter::new("qverify.tier.stimulus.entered");
static TIER_STIMULUS_DECIDED: qobs::Counter = qobs::Counter::new("qverify.tier.stimulus.decided");
static TIER_CLASSICAL_ELAPSED: qobs::Histogram =
    qobs::Histogram::new("qverify.tier.classical.elapsed_us");
static TIER_TABLEAU_ELAPSED: qobs::Histogram =
    qobs::Histogram::new("qverify.tier.tableau.elapsed_us");
static TIER_ZX_ELAPSED: qobs::Histogram = qobs::Histogram::new("qverify.tier.zx.elapsed_us");
static TIER_DENSE_ELAPSED: qobs::Histogram = qobs::Histogram::new("qverify.tier.dense.elapsed_us");
static TIER_STIMULUS_ELAPSED: qobs::Histogram =
    qobs::Histogram::new("qverify.tier.stimulus.elapsed_us");

/// Short machine key for trace attributes (`Display` stays the
/// human-facing spelling).
fn tier_key(tier: Tier) -> &'static str {
    match tier {
        Tier::Structural => "structural",
        Tier::Classical => "classical",
        Tier::Tableau => "tableau",
        Tier::Zx => "zx",
        Tier::Dense => "dense",
        Tier::Stimulus => "stimulus",
    }
}

fn verdict_key(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Equivalent => "equivalent",
        Verdict::Inequivalent { .. } => "inequivalent",
        Verdict::Inconclusive { .. } => "inconclusive",
    }
}

/// Runs one tier attempt with entered/decided counters, an elapsed
/// histogram, and a `verify.tier` span. `f` returns `Some` when the
/// tier decides.
fn tier_attempt(tier: Tier, f: impl FnOnce() -> Option<Report>) -> Option<Report> {
    let (entered, decided_counter, elapsed) = match tier {
        Tier::Classical => (
            &TIER_CLASSICAL_ENTERED,
            &TIER_CLASSICAL_DECIDED,
            &TIER_CLASSICAL_ELAPSED,
        ),
        Tier::Tableau => (
            &TIER_TABLEAU_ENTERED,
            &TIER_TABLEAU_DECIDED,
            &TIER_TABLEAU_ELAPSED,
        ),
        Tier::Zx => (&TIER_ZX_ENTERED, &TIER_ZX_DECIDED, &TIER_ZX_ELAPSED),
        Tier::Dense => (
            &TIER_DENSE_ENTERED,
            &TIER_DENSE_DECIDED,
            &TIER_DENSE_ELAPSED,
        ),
        Tier::Stimulus => (
            &TIER_STIMULUS_ENTERED,
            &TIER_STIMULUS_DECIDED,
            &TIER_STIMULUS_ELAPSED,
        ),
        Tier::Structural => unreachable!("the structural screen is not an attempted tier"),
    };
    entered.incr();
    let span = qobs::span("verify.tier").attr("tier", tier_key(tier));
    let start = std::time::Instant::now();
    let out = f();
    elapsed.record_us(start.elapsed().as_micros() as u64);
    let decided = out.is_some();
    if decided {
        decided_counter.incr();
    }
    let _span = span.attr("outcome", if decided { "decided" } else { "fell_through" });
    out
}

/// The decision procedure that produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Register-shape screening only (mismatched sizes, or no tier
    /// applicable).
    Structural,
    /// Exhaustive classical permutation comparison.
    Classical,
    /// Aaronson–Gottesman stabilizer tableau.
    Tableau,
    /// ZX-calculus miter reduction: exact, no qubit cap, two-sided —
    /// full reduction certifies [`Verdict::Equivalent`]; a stalled
    /// residue can certify [`Verdict::Inequivalent`], but only through
    /// a replay-confirmed basis witness.
    Zx,
    /// Exhaustive column-by-column comparison within
    /// [`MAX_UNITARY_QUBITS`] qubits: a sparse pass before ZX, a
    /// statevector pass after it.
    Dense,
    /// Randomized product-state miter, parallel across threads.
    Stimulus,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Structural => "structural",
            Tier::Classical => "classical",
            Tier::Tableau => "tableau",
            Tier::Zx => "zx-calculus",
            Tier::Dense => "dense-unitary",
            Tier::Stimulus => "stimulus",
        })
    }
}

/// Concrete evidence of inequivalence.
#[derive(Debug, Clone, PartialEq)]
pub enum Witness {
    /// The circuits act on different register sizes.
    RegisterMismatch {
        /// Register of the first circuit.
        left: u32,
        /// Register of the second circuit.
        right: u32,
    },
    /// A basis input the two classical circuits map differently
    /// (classical tier, or a ZX residue confirmed by bit-level replay).
    /// The limb-backed [`BasisBits`] encoding makes the witness exact
    /// at **any** register width — 64+ wires included.
    BasisInput {
        /// The diverging basis input.
        input: BasisBits,
        /// Image under the first circuit.
        left_output: BasisBits,
        /// Image under the second circuit.
        right_output: BasisBits,
    },
    /// A basis input whose output states have overlap below 1 (dense
    /// tier, or a ZX residue confirmed by a basis-column replay of the
    /// miter — sparse up to [`MAX_COLUMN_QUBITS`] wires).
    BasisColumn {
        /// The diverging basis input (unitary column).
        input: u64,
        /// `|⟨C₁·input|C₂·input⟩|`, strictly below 1.
        overlap: f64,
    },
    /// Two basis inputs picking up different phases — the circuits agree
    /// columnwise but only up to a *relative* phase (dense tier, or a ZX
    /// diagonal residue confirmed by phase replay of two miter basis
    /// eigenvectors — the shape `T` vs `T†` produces).
    RelativePhase {
        /// First basis input.
        input_a: u64,
        /// Second basis input, with a different phase.
        input_b: u64,
    },
    /// A Pauli generator the miter `C₂†C₁` fails to fix (tableau tier).
    Generator {
        /// Qubit the generator acts on.
        qubit: u32,
        /// `true` for the `X` (destabilizer) generator, `false` for `Z`.
        destabilizer: bool,
    },
    /// A randomized product-state input that did not return to itself
    /// through the miter (stimulus tier). Reproducible: re-seeding the
    /// preparation layer with `seed` rebuilds the exact input state.
    Stimulus {
        /// Trial index within the run.
        trial: u64,
        /// Seed of the per-qubit preparation layer.
        seed: u64,
        /// Measured return fidelity, strictly below 1.
        fidelity: f64,
    },
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::RegisterMismatch { left, right } => {
                write!(f, "register mismatch: {left} vs {right} qubits")
            }
            Witness::BasisInput {
                input,
                left_output,
                right_output,
            } => write!(
                f,
                "basis input {input} maps to {left_output} vs {right_output}"
            ),
            Witness::BasisColumn { input, overlap } => write!(
                f,
                "basis input {input:#b} yields diverging outputs (overlap {overlap:.6})"
            ),
            Witness::RelativePhase { input_a, input_b } => write!(
                f,
                "basis inputs {input_a:#b} and {input_b:#b} acquire different phases"
            ),
            Witness::Generator {
                qubit,
                destabilizer,
            } => write!(
                f,
                "miter does not fix Pauli {}{}",
                if *destabilizer { "X" } else { "Z" },
                qubit
            ),
            Witness::Stimulus {
                trial,
                seed,
                fidelity,
            } => write!(
                f,
                "stimulus trial {trial} (prep seed {seed:#x}) returned with fidelity {fidelity:.9}"
            ),
        }
    }
}

/// The outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The circuits implement the same unitary up to global phase. Exact
    /// for the classical/tableau/dense tiers; statistical for the
    /// stimulus tier (see [`Report::confidence`]).
    Equivalent,
    /// The circuits differ, with concrete evidence.
    Inequivalent {
        /// Why the circuits are not equivalent.
        witness: Witness,
    },
    /// No applicable tier could decide (register too large, or zero
    /// trials configured).
    Inconclusive {
        /// Confidence in equivalence accumulated before giving up
        /// (`0.0` when nothing ran).
        confidence: f64,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent)
    }

    /// `true` for [`Verdict::Inequivalent`].
    pub fn is_inequivalent(&self) -> bool {
        matches!(self, Verdict::Inequivalent { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Equivalent => f.write_str("equivalent"),
            Verdict::Inequivalent { witness } => write!(f, "NOT equivalent ({witness})"),
            Verdict::Inconclusive { confidence } => {
                write!(f, "inconclusive (confidence {confidence:.4})")
            }
        }
    }
}

/// A verdict together with how it was reached.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The verdict.
    pub verdict: Verdict,
    /// Which tier decided.
    pub tier: Tier,
    /// Stimulus trials executed (0 for the exact tiers).
    pub trials: u64,
}

impl Report {
    /// Confidence in the verdict: `1.0` for the exact tiers, and the
    /// `1 − 2^{−trials}` Monte-Carlo heuristic for a stimulus
    /// [`Verdict::Equivalent`] (each independent random product state
    /// exposes a fixed non-identity miter with probability ≥ ½).
    pub fn confidence(&self) -> f64 {
        match (&self.verdict, self.tier) {
            (Verdict::Inconclusive { confidence }, _) => *confidence,
            (Verdict::Equivalent, Tier::Stimulus) => 1.0 - 0.5f64.powi(self.trials as i32),
            _ => 1.0,
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} tier", self.verdict, self.tier)?;
        if self.tier == Tier::Stimulus {
            write!(f, ", {} trials", self.trials)?;
        }
        f.write_str("]")
    }
}

/// Tiered equivalence verifier.
///
/// Construction is cheap; a `Verifier` holds only configuration and can
/// be reused across checks.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qverify::Verifier;
///
/// let mut a = Circuit::new(2);
/// a.h(0).cx(0, 1);
/// let mut b = Circuit::new(2);
/// b.h(0).cx(0, 1);
/// assert!(Verifier::new().check(&a, &b).is_equivalent());
/// b.x(0);
/// assert!(Verifier::new().check(&a, &b).is_inequivalent());
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    eps: f64,
    trials: u64,
    threads: usize,
    seed: u64,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier {
            eps: 1e-9,
            trials: 8,
            threads: 0,
            seed: 0x7e7_1257,
        }
    }
}

impl Verifier {
    /// Creates a verifier with the default configuration (ε = 1e-9,
    /// 8 stimulus trials, auto thread count).
    pub fn new() -> Self {
        Verifier::default()
    }

    /// Sets the numeric tolerance used by the dense and stimulus tiers.
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets the number of randomized stimulus trials.
    pub fn with_trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the stimulus worker-thread count (`0` = derive from
    /// available parallelism, capped by a per-register memory budget).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the base seed of the stimulus preparation layers.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Decides whether `original` and `candidate` implement the same
    /// unitary up to global phase, via the cheapest applicable tier.
    ///
    /// # Examples
    ///
    /// Small circuits are decided exactly; the tier is an internal
    /// detail unless you ask for it with [`Verifier::check_report`]:
    ///
    /// ```
    /// use qcir::Circuit;
    /// use qverify::{Verdict, Verifier};
    ///
    /// let mut bell = Circuit::new(2);
    /// bell.h(0).cx(0, 1);
    /// let mut alt = Circuit::new(2);
    /// alt.h(0).cx(0, 1).z(0).z(0); // extra canceling pair
    /// let verifier = Verifier::new();
    /// assert!(verifier.check(&bell, &alt).is_equivalent());
    /// ```
    ///
    /// A 30-qubit Clifford+T pair is past the statevector cap, but the
    /// ZX tier still certifies it exactly — and a corrupted candidate
    /// is rejected with a concrete witness from a lower tier:
    ///
    /// ```
    /// use qcir::Circuit;
    /// use qverify::{Tier, Verdict, Verifier};
    ///
    /// let mut a = Circuit::new(30);
    /// for q in 0..29 {
    ///     a.h(q).t(q).cx(q, q + 1);
    /// }
    /// let mut b = a.clone();
    /// b.s(7).sdg(7); // syntactic noise, same unitary
    /// let verifier = Verifier::new();
    /// let report = verifier.check_report(&a, &b);
    /// assert_eq!(report.tier, Tier::Zx);
    /// assert!(report.verdict.is_equivalent());
    /// assert_eq!(report.confidence(), 1.0);
    /// ```
    ///
    /// The mirror image at the same width: a 30-qubit reversible pair
    /// under a *wrong key* (here: a stray inverter) is past the
    /// classical-exhaustive, dense **and** stimulus caps, yet the ZX
    /// tier rejects it exactly — the stalled miter residue proposes a
    /// basis input, and a bit-level replay of both circuits confirms it
    /// as a [`Witness::BasisInput`]:
    ///
    /// ```
    /// use qcir::Circuit;
    /// use qverify::{Tier, Verdict, Verifier, Witness};
    ///
    /// let mut a = Circuit::new(30);
    /// for q in 0..28 {
    ///     a.cx(q, q + 1).ccx(q, q + 1, q + 2);
    /// }
    /// let mut b = a.clone();
    /// b.x(12); // wrong key: one stray inverter
    /// let report = Verifier::new().check_report(&a, &b);
    /// assert_eq!(report.tier, Tier::Zx);
    /// assert_eq!(report.confidence(), 1.0);
    /// let Verdict::Inequivalent {
    ///     witness: Witness::BasisInput { input, left_output, right_output },
    /// } = report.verdict
    /// else {
    ///     panic!("expected a replay-confirmed basis witness");
    /// };
    /// // The witness is independently checkable with plain bit ops.
    /// assert_eq!(revlib::classical_eval_bits(&a, &input).unwrap(), left_output);
    /// assert_eq!(revlib::classical_eval_bits(&b, &input).unwrap(), right_output);
    /// assert_ne!(left_output, right_output);
    /// ```
    pub fn check(&self, original: &Circuit, candidate: &Circuit) -> Verdict {
        self.check_report(original, candidate).verdict
    }

    /// Like [`Verifier::check`], but also reports which tier decided and
    /// how many stimulus trials ran.
    pub fn check_report(&self, original: &Circuit, candidate: &Circuit) -> Report {
        let span = qobs::span("verify.check")
            .attr("circuit", original.name())
            .attr("wires", original.num_qubits())
            .attr("gates_left", original.gate_count())
            .attr("gates_right", candidate.gate_count());
        let report = self.check_report_tiers(original, candidate);
        let _span = span
            .attr("tier", tier_key(report.tier))
            .attr("verdict", verdict_key(&report.verdict))
            .attr("trials", report.trials);
        report
    }

    /// The tier cascade behind [`Verifier::check_report`], with each
    /// attempt routed through [`tier_attempt`] for telemetry.
    fn check_report_tiers(&self, original: &Circuit, candidate: &Circuit) -> Report {
        let n = original.num_qubits();
        if n != candidate.num_qubits() {
            return Report {
                verdict: Verdict::Inequivalent {
                    witness: Witness::RegisterMismatch {
                        left: n,
                        right: candidate.num_qubits(),
                    },
                },
                tier: Tier::Structural,
                trials: 0,
            };
        }
        let all_classical = |c: &Circuit| c.iter().all(|i| i.gate().is_classical());
        if n <= CLASSICAL_EXHAUSTIVE_MAX_QUBITS
            && all_classical(original)
            && all_classical(candidate)
        {
            if let Some(report) = tier_attempt(Tier::Classical, || {
                Some(classical::check(original, candidate))
            }) {
                return report;
            }
        }
        if let Some(report) =
            tier_attempt(Tier::Tableau, || self.check_tableau(original, candidate))
        {
            return report;
        }
        if n <= MAX_UNITARY_QUBITS {
            if let Some(report) = tier_attempt(Tier::Dense, || {
                self.check_dense_sparse(original, candidate).ok()
            }) {
                return report;
            }
        }
        if let Some(report) = tier_attempt(Tier::Zx, || self.check_zx(original, candidate)) {
            return report;
        }
        if n <= MAX_UNITARY_QUBITS {
            if let Some(report) =
                tier_attempt(Tier::Dense, || self.check_dense(original, candidate).ok())
            {
                return report;
            }
        }
        if n <= MAX_STIMULUS_QUBITS {
            if let Some(report) = tier_attempt(Tier::Stimulus, || {
                self.check_stimulus(original, candidate).ok()
            }) {
                return report;
            }
        }
        Report {
            verdict: Verdict::Inconclusive { confidence: 0.0 },
            tier: Tier::Structural,
            trials: 0,
        }
    }

    /// Forces the stabilizer-tableau tier. Returns `None` unless both
    /// circuits compile to Clifford operations (H/S/CX plus the gates
    /// expressible through them, including right-angle rotations).
    pub fn check_tableau(&self, original: &Circuit, candidate: &Circuit) -> Option<Report> {
        if original.num_qubits() != candidate.num_qubits() {
            return None;
        }
        let ops_a = clifford::compile(original)?;
        let ops_b_inv = clifford::compile(&candidate.inverse())?;
        Some(tableau::check(original.num_qubits(), &ops_a, &ops_b_inv))
    }

    /// Forces the ZX-calculus graph-rewriting tier.
    ///
    /// Builds the miter `C₂†C₁` as a ZX spider graph — all phases exact
    /// [`Phase`] values — and rewrites it (spider fusion, identity
    /// removal, Hadamard-edge cancellation, local complementation,
    /// pivoting, phase-gadget moves, phase-polynomial completion)
    /// toward the bare-wire identity. Returns `Some(Equivalent)` with
    /// tier [`Tier::Zx`] iff the diagram fully reduces — an exact proof
    /// with no qubit cap. A stalled non-identity residue proposes
    /// candidate basis inputs; if one is confirmed by an independent
    /// replay (classical bit evaluation when both circuits are
    /// reversible — up to 63 wires — or a single statevector basis replay
    /// within [`MAX_STIMULUS_QUBITS`]), this returns
    /// `Some(Inequivalent)` with that concrete witness. Returns `None`
    /// when the registers mismatch, a gate does not translate (an
    /// [`qcir::Gate::Mcx`] with more than [`MAX_MCX_CONTROLS`]
    /// controls), or rewriting stalls with no replay-confirmed
    /// candidate — a stall alone carries **no** evidence either way, so
    /// an engine bug can cost completeness but never a false verdict.
    pub fn check_zx(&self, original: &Circuit, candidate: &Circuit) -> Option<Report> {
        zx::check(original, candidate, self.eps)
    }

    /// Forces the dense tier's sparse pass: every basis column of both
    /// circuits on a [`qsim::SparseColumn`], each circuit lowered once.
    /// Whenever it decides, its verdict and witness inputs are those of
    /// [`Verifier::check_dense`] (a basis-column overlap may differ in
    /// its last bits: the statevector kernels fuse gates).
    ///
    /// # Errors
    ///
    /// Returns [`qsim::SimError::TooManyQubits`] past the dense cap, and
    /// [`qsim::SimError::ColumnSupportExceeded`] — no verdict — when a
    /// column holds more than [`MAX_COLUMN_SUPPORT`] amplitudes or more
    /// than half of the register's basis states.
    pub fn check_dense_sparse(
        &self,
        original: &Circuit,
        candidate: &Circuit,
    ) -> Result<Report, qsim::SimError> {
        if original.num_qubits() != candidate.num_qubits() {
            return Ok(mismatch_report(original, candidate));
        }
        dense::check_sparse(original, candidate, self.eps)
    }

    /// Forces the dense tier's statevector pass: every basis column of
    /// both circuits through a full `2ⁿ`-amplitude statevector.
    ///
    /// # Errors
    ///
    /// Returns [`qsim::SimError::TooManyQubits`] past the dense cap.
    pub fn check_dense(
        &self,
        original: &Circuit,
        candidate: &Circuit,
    ) -> Result<Report, qsim::SimError> {
        if original.num_qubits() != candidate.num_qubits() {
            return Ok(mismatch_report(original, candidate));
        }
        dense::check(original, candidate, self.eps)
    }

    /// Forces the randomized product-state stimulus tier.
    ///
    /// # Errors
    ///
    /// Returns [`qsim::SimError::TooManyQubits`] past the statevector
    /// cap ([`MAX_STIMULUS_QUBITS`]).
    pub fn check_stimulus(
        &self,
        original: &Circuit,
        candidate: &Circuit,
    ) -> Result<Report, qsim::SimError> {
        if original.num_qubits() != candidate.num_qubits() {
            return Ok(mismatch_report(original, candidate));
        }
        stimulus::check(
            original,
            candidate,
            self.eps,
            self.trials,
            self.threads,
            self.seed,
        )
    }
}

fn mismatch_report(a: &Circuit, b: &Circuit) -> Report {
    Report {
        verdict: Verdict::Inequivalent {
            witness: Witness::RegisterMismatch {
                left: a.num_qubits(),
                right: b.num_qubits(),
            },
        },
        tier: Tier::Structural,
        trials: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An *inequivalent* pair on which the ZX tier must fall through —
    /// the 8-control `Mcx` exceeds [`MAX_MCX_CONTROLS`], so the miter
    /// never even translates to a diagram — and tier selection falls
    /// through to the simulation tiers. The `T`/`T†` garnish keeps the
    /// pair non-classical and non-Clifford, so neither exact bit tier
    /// applies. (A plain `T` vs `T†` pair no longer works here: the ZX
    /// tier certifies it with a phase-replay witness.)
    fn zx_stalling_pair(n: u32) -> (Circuit, Circuit) {
        assert!(n >= 9, "fixture needs 8 controls plus a target");
        let controls: Vec<u32> = (0..8).collect();
        let mut a = Circuit::new(n);
        a.mcx(&controls, 8).t(8);
        let mut b = Circuit::new(n);
        b.mcx(&controls, 8).tdg(8);
        (a, b)
    }

    #[test]
    fn register_mismatch_is_structural() {
        let report = Verifier::new().check_report(&Circuit::new(2), &Circuit::new(3));
        assert_eq!(report.tier, Tier::Structural);
        assert!(matches!(
            report.verdict,
            Verdict::Inequivalent {
                witness: Witness::RegisterMismatch { left: 2, right: 3 }
            }
        ));
    }

    #[test]
    fn classical_tier_selected_for_reversible_circuits() {
        let mut a = Circuit::new(4);
        a.x(0).ccx(0, 1, 2).cx(2, 3);
        let report = Verifier::new().check_report(&a, &a.clone());
        assert_eq!(report.tier, Tier::Classical);
        assert!(report.verdict.is_equivalent());
        assert_eq!(report.confidence(), 1.0);
    }

    #[test]
    fn tableau_tier_selected_for_clifford_circuits() {
        let mut a = Circuit::new(3);
        a.h(0).cx(0, 1).s(2).cz(1, 2);
        let report = Verifier::new().check_report(&a, &a.clone());
        assert_eq!(report.tier, Tier::Tableau);
        assert!(report.verdict.is_equivalent());
    }

    #[test]
    fn zx_tier_selected_for_non_clifford_identity_pair() {
        // Non-Clifford (T, CCX) and syntactically different: tableau
        // refuses, ZX reduces the miter on its own.
        let mut a = Circuit::new(3);
        a.h(0).t(1).ccx(0, 1, 2);
        let mut b = a.clone();
        b.s(2).sdg(2);
        let verifier = Verifier::new();
        let report = verifier.check_zx(&a, &b).expect("the miter reduces");
        assert_eq!(report.tier, Tier::Zx);
        assert!(report.verdict.is_equivalent());
        assert_eq!(report.confidence(), 1.0);
        // In dispatch the pair is near-classical (two amplitudes per
        // column), so the sparse dense pass decides it before ZX runs.
        let report = verifier.check_report(&a, &b);
        assert_eq!(report.tier, Tier::Dense);
        assert!(report.verdict.is_equivalent());
        // With an H on every wire a column fills the whole register:
        // the sparse pass hands over and ZX decides before the
        // statevector pass.
        let mut a = Circuit::new(3);
        a.h(0).h(1).h(2).t(1).ccx(0, 1, 2);
        let mut b = a.clone();
        b.s(2).sdg(2);
        assert!(matches!(
            verifier.check_dense_sparse(&a, &b),
            Err(qsim::SimError::ColumnSupportExceeded { support: 8, max: 4 })
        ));
        let report = verifier.check_report(&a, &b);
        assert_eq!(report.tier, Tier::Zx);
        assert!(report.verdict.is_equivalent());
    }

    #[test]
    fn zx_tier_reaches_past_every_simulation_cap() {
        let n = MAX_STIMULUS_QUBITS + 14; // 42 qubits
        let mut a = Circuit::new(n);
        for q in 0..n - 1 {
            a.h(q).t(q).cx(q, q + 1);
        }
        let report = Verifier::new().check_report(&a, &a.clone());
        assert_eq!(report.tier, Tier::Zx);
        assert!(report.verdict.is_equivalent());
    }

    #[test]
    fn dense_tier_selected_for_small_non_clifford() {
        // ZX stalls on this pair (the miter never translates), so the
        // dense tier decides it — with a concrete witness ZX could
        // never produce here.
        let (a, b) = zx_stalling_pair(9);
        let report = Verifier::new().check_report(&a, &b);
        assert_eq!(report.tier, Tier::Dense);
        assert!(report.verdict.is_inequivalent());
    }

    #[test]
    fn stimulus_tier_selected_beyond_dense_cap() {
        let n = MAX_UNITARY_QUBITS + 2;
        let (a, b) = zx_stalling_pair(n);
        let verifier = Verifier::new().with_trials(4);
        let report = verifier.check_report(&a, &b);
        assert_eq!(report.tier, Tier::Stimulus);
        assert!(
            matches!(
                report.verdict,
                Verdict::Inequivalent {
                    witness: Witness::Stimulus { .. }
                }
            ),
            "{report}"
        );
    }

    #[test]
    fn oversized_register_is_inconclusive() {
        // Past the statevector cap AND stalling the ZX tier: nothing
        // can decide, and the verifier must say so rather than guess.
        let (a, b) = zx_stalling_pair(MAX_STIMULUS_QUBITS + 1);
        let report = Verifier::new().check_report(&a, &b);
        assert!(matches!(
            report.verdict,
            Verdict::Inconclusive { confidence } if confidence == 0.0
        ));
    }

    #[test]
    fn verdict_display_is_informative() {
        let v = Verdict::Inequivalent {
            witness: Witness::Stimulus {
                trial: 3,
                seed: 0xAB,
                fidelity: 0.25,
            },
        };
        let text = v.to_string();
        assert!(text.contains("NOT equivalent"));
        assert!(text.contains("trial 3"));
        assert!(Verdict::Equivalent.to_string().contains("equivalent"));
        assert!(Tier::Tableau.to_string().contains("tableau"));
        assert!(Tier::Zx.to_string().contains("zx"));
    }

    #[test]
    fn zero_trials_is_inconclusive() {
        let (a, b) = zx_stalling_pair(MAX_UNITARY_QUBITS + 1);
        let report = Verifier::new().with_trials(0).check_report(&a, &b);
        assert_eq!(report.tier, Tier::Stimulus);
        assert!(matches!(report.verdict, Verdict::Inconclusive { .. }));
    }

    #[test]
    fn zx_tier_certifies_diagonal_residues_by_phase_replay() {
        // A genuinely different pair whose residue is purely diagonal:
        // no single basis input can see it (every basis ray is fixed),
        // but two basis eigenvectors pick up *different* phases, and
        // the phase replay certifies exactly that.
        let mut a = Circuit::new(2);
        a.t(0);
        let mut b = Circuit::new(2);
        b.t(1);
        let verifier = Verifier::new();
        let witness = Witness::RelativePhase {
            input_a: 0,
            input_b: 0b01,
        };
        let report = verifier
            .check_zx(&a, &b)
            .expect("the phase replay confirms");
        assert_eq!(report.tier, Tier::Zx, "{report}");
        assert_eq!(
            report.verdict,
            Verdict::Inequivalent {
                witness: witness.clone()
            },
            "{report}"
        );
        assert_eq!(report.confidence(), 1.0);
        // In dispatch the sparse dense pass meets the same two columns
        // first and reports the same witness.
        let report = verifier.check_report(&a, &b);
        assert_eq!(report.tier, Tier::Dense, "{report}");
        assert_eq!(report.verdict, Verdict::Inequivalent { witness });
    }

    #[test]
    fn diagonal_residue_past_the_column_cap_is_inconclusive() {
        // T vs T† at 64 wires: past MAX_COLUMN_QUBITS no replay backend
        // can address the basis column, so the ZX tier must fall
        // through rather than guess — and with every simulation tier
        // also out of reach, the verdict is honestly Inconclusive.
        let n = MAX_COLUMN_QUBITS + 1;
        let mut a = Circuit::new(n);
        a.t(0);
        let mut b = Circuit::new(n);
        b.tdg(0);
        let report = Verifier::new().check_report(&a, &b);
        assert!(
            matches!(
                report.verdict,
                Verdict::Inconclusive { confidence } if confidence == 0.0
            ),
            "{report}"
        );
    }

    #[test]
    fn zx_tier_witnesses_wide_wrong_key_pairs_exactly() {
        // A 30-qubit reversible pair differing by one stray X: past the
        // classical-exhaustive, dense and stimulus caps, previously
        // Inconclusive. The ZX tier now rejects it with a bit-replay
        // witness, through the normal dispatch.
        let n = 30u32;
        let mut a = Circuit::new(n);
        for q in 0..n - 2 {
            a.cx(q, q + 1).ccx(q, q + 1, q + 2);
        }
        assert!(n > MAX_STIMULUS_QUBITS);
        let mut b = a.clone();
        b.x(12);
        let report = Verifier::new().check_report(&a, &b);
        assert_eq!(report.tier, Tier::Zx, "{report}");
        assert!(
            matches!(
                report.verdict,
                Verdict::Inequivalent {
                    witness: Witness::BasisInput { .. }
                }
            ),
            "{report}"
        );
        assert_eq!(report.confidence(), 1.0);
    }

    #[test]
    fn dense_cap_reexported_for_tier_selection() {
        // The dense tier's reach is exactly qsim's documented cap, and
        // the classical tier extends beyond it.
        assert_eq!(MAX_UNITARY_QUBITS, qsim::unitary::MAX_UNITARY_QUBITS);
        const _: () = assert!(CLASSICAL_EXHAUSTIVE_MAX_QUBITS > MAX_UNITARY_QUBITS);
    }
}
