//! Sparse single-column simulation for exhaustive and witness replay.
//!
//! Two verifier paths need a *column* of a circuit — the state `C|x⟩`
//! for one basis input `x` — rather than the whole unitary. The ZX
//! tier's witness layer asks one amplitude of a miter `C₂†·C₁` at
//! widths far past [`crate::statevector::MAX_QUBITS`]; the dense tier
//! compares `C₁|x⟩` with `C₂|x⟩` for every `x` of a small register. In
//! both, the column usually has tiny support: permutation gates
//! (X/CX/CCX/MCX/SWAP) move the single amplitude around, diagonal gates
//! (Z/S/T/Rz/P and their controlled forms) only rotate its phase, and
//! each branching gate (H/Sx/Rx/Ry/U, …) at most doubles the number of
//! non-zero amplitudes — which interference often cancels again.
//!
//! [`SparseColumn`] exploits that: the column is a sorted list of
//! `(basis index, amplitude)` pairs holding only the non-zero entries,
//! plus a reusable scratch list, so applying an op allocates nothing
//! once the buffers have grown. Amplitudes that cancel to an exact zero
//! are dropped; nothing is rounded away. A [`ColumnProgram`] is a
//! circuit lowered once to the column's ops — (control mask, target,
//! 2×2 class) over full-width `u64` indices — so a caller running many
//! columns through one circuit pays for the lowering once. Whether a
//! gate branches is decided by [`qcir::fusion::gate_kernel_class`]: the
//! [`KernelClass::General`] class is the only one that can grow the
//! support.
//!
//! Two budgets bound a column:
//!
//! * **Live support.** A column never holds more than
//!   [`MAX_COLUMN_SUPPORT`] = `2^MAX_COLUMN_BRANCHING` amplitudes. An op
//!   that would take it over fails with
//!   [`SimError::ColumnSupportExceeded`] and leaves the column as it was
//!   before that op.
//! * **Branching, for [`SparseColumn::apply_circuit`].** That call
//!   applies at most [`MAX_COLUMN_BRANCHING`] branching ops over the
//!   column's lifetime and refuses a circuit that would overrun the
//!   budget up front with [`SimError::ColumnTooBranchy`], leaving the
//!   column unchanged. A column driven only through it therefore never
//!   reaches the live cap, whatever interference does.
//!
//! The width cap is [`MAX_COLUMN_QUBITS`] = 63: the only hard limit is
//! `u64` basis-index addressability, *not* memory.
//!
//! # Example
//!
//! ```
//! use qcir::Circuit;
//! use qsim::column::basis_column_amplitude;
//!
//! // A 40-qubit permutation miter: dense simulation is hopeless, the
//! // sparse column holds one amplitude throughout.
//! let mut m = Circuit::new(40);
//! m.x(35).cx(35, 7).x(35);
//! let amp = basis_column_amplitude(&m, 0)?;
//! assert!(amp.abs() < 1e-12); // |0…0⟩ maps elsewhere: diagonal entry 0
//! # Ok::<(), qsim::SimError>(())
//! ```

use crate::complex::C64;
use crate::error::SimError;
use crate::matrix::gate_matrix;
use qcir::fusion::{gate_kernel_class, KernelClass};
use qcir::{Circuit, Gate, Instruction};

static COLUMN_OPS: qobs::Counter = qobs::Counter::new("qsim.column.ops");

/// Hard width cap for sparse columns: `u64` basis indices address at
/// most 63 qubit registers without ambiguity. Feasibility below the cap
/// is governed by the support budgets, not width.
pub const MAX_COLUMN_QUBITS: u32 = 63;

/// Most *branching* ops (H/CH/√X/Rx/Ry/U — the [`KernelClass::General`]
/// gates that split one basis amplitude into two) that
/// [`SparseColumn::apply_circuit`] applies over a column's lifetime.
/// Each at most doubles the support, so `2^MAX_COLUMN_BRANCHING` bounds
/// the live amplitudes.
pub const MAX_COLUMN_BRANCHING: u32 = 10;

/// Most amplitudes a [`SparseColumn`] holds at once (1024).
pub const MAX_COLUMN_SUPPORT: usize = 1 << MAX_COLUMN_BRANCHING;

/// The 2×2 action class of a lowered gate on its target qubit.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `amp(x) *= p` on the selected indices — a diagonal gate whose
    /// `|0⟩` entry is 1, with the target folded into the control mask.
    Phase(C64),
    /// Diagonal: `amp(x) *= d[x_t]`. Never changes support.
    Diag([C64; 2]),
    /// The bit flip `x ↦ x ⊕ t` with no phase (X and its controlled
    /// forms). Permutes support.
    Flip,
    /// Antidiagonal: `new(x_t=0) = a[0]·old(x_t=1)`,
    /// `new(x_t=1) = a[1]·old(x_t=0)`. Permutes support.
    Anti([C64; 2]),
    /// Full 2×2 — the only class that can double support.
    Dense([[C64; 2]; 2]),
}

/// A gate lowered to (control mask, target, 2×2 class) over full-width
/// `u64` basis indices.
#[derive(Debug, Clone, Copy)]
struct Op {
    ctrl: u64,
    target: u32,
    kind: Kind,
}

fn classify(gate: &Gate) -> Kind {
    let m = gate_matrix(gate);
    let (a, b) = (m.get(0, 0), m.get(0, 1));
    let (c, d) = (m.get(1, 0), m.get(1, 1));
    match gate_kernel_class(gate).expect("column ops lower to single-qubit gates") {
        KernelClass::Diagonal => Kind::Diag([a, d]),
        KernelClass::Antidiagonal => Kind::Anti([b, c]),
        KernelClass::General => Kind::Dense([[a, b], [c, d]]),
    }
}

fn controlled(ctrl: u64, target: u32, gate: &Gate) -> Op {
    let kind = match classify(gate) {
        Kind::Diag([one, p]) if one == C64::ONE => {
            return Op {
                ctrl: ctrl | 1u64 << target,
                target,
                kind: Kind::Phase(p),
            }
        }
        Kind::Anti(a) if a == [C64::ONE; 2] => Kind::Flip,
        kind => kind,
    };
    Op { ctrl, target, kind }
}

fn cx_op(control: u32, target: u32) -> Op {
    controlled(1u64 << control, target, &Gate::X)
}

/// Lowers one instruction to a sequence of [`Op`]s. Multi-target gates
/// decompose into CX conjugations so every op has exactly one target.
fn lower(inst: &Instruction) -> Vec<Op> {
    let q = |k: usize| inst.qubits()[k].index() as u32;
    match inst.gate() {
        Gate::I => vec![],
        // SWAP(a,b) = CX(a,b)·CX(b,a)·CX(a,b).
        Gate::Swap => vec![cx_op(q(0), q(1)), cx_op(q(1), q(0)), cx_op(q(0), q(1))],
        // Fredkin(c; a,b) = CX(b,a)·CCX(c,a,b)·CX(b,a).
        Gate::CSwap => vec![
            cx_op(q(2), q(1)),
            controlled((1u64 << q(0)) | (1u64 << q(1)), q(2), &Gate::X),
            cx_op(q(2), q(1)),
        ],
        Gate::CCX | Gate::Mcx(_) => {
            let qs = inst.qubits();
            let (controls, target) = qs.split_at(qs.len() - 1);
            let ctrl = controls
                .iter()
                .fold(0u64, |m, qubit| m | (1u64 << qubit.index()));
            vec![controlled(ctrl, target[0].index() as u32, &Gate::X)]
        }
        Gate::CX => vec![cx_op(q(0), q(1))],
        Gate::CY => vec![controlled(1u64 << q(0), q(1), &Gate::Y)],
        Gate::CZ => vec![controlled(1u64 << q(0), q(1), &Gate::Z)],
        Gate::CH => vec![controlled(1u64 << q(0), q(1), &Gate::H)],
        Gate::CP(a) => vec![controlled(1u64 << q(0), q(1), &Gate::P(*a))],
        Gate::CRz(a) => vec![controlled(1u64 << q(0), q(1), &Gate::Rz(*a))],
        single => vec![controlled(0, q(0), single)],
    }
}

/// A circuit lowered once to column ops, so any number of columns can
/// run through it without re-lowering.
#[derive(Debug, Clone)]
pub struct ColumnProgram {
    num_qubits: u32,
    ops: Vec<Op>,
    branching: u32,
}

impl ColumnProgram {
    /// Lowers `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let ops: Vec<Op> = circuit.iter().flat_map(lower).collect();
        let branching = ops
            .iter()
            .filter(|op| matches!(op.kind, Kind::Dense(_)))
            .count();
        ColumnProgram {
            num_qubits: circuit.num_qubits(),
            ops,
            branching: u32::try_from(branching).unwrap_or(u32::MAX),
        }
    }
}

/// A sparse column `C|x⟩` over up to [`MAX_COLUMN_QUBITS`] qubits: the
/// non-zero amplitudes sorted by basis index. See the module docs.
#[derive(Debug, Clone)]
pub struct SparseColumn {
    num_qubits: u32,
    /// No duplicate indices, no exact zeros; sorted by index between
    /// public calls.
    amps: Vec<(u64, C64)>,
    /// Output buffer of branching ops, swapped with `amps`.
    scratch: Vec<(u64, C64)>,
    branching: u32,
}

impl SparseColumn {
    /// Starts the column at basis state `|index⟩`.
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] past [`MAX_COLUMN_QUBITS`];
    /// [`SimError::InvalidState`] if `index` does not name a basis
    /// state of the register.
    pub fn basis(num_qubits: u32, index: u64) -> Result<Self, SimError> {
        if num_qubits > MAX_COLUMN_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: MAX_COLUMN_QUBITS,
            });
        }
        check_index(num_qubits, index)?;
        Ok(SparseColumn {
            num_qubits,
            amps: vec![(index, C64::ONE)],
            scratch: Vec::new(),
            branching: 0,
        })
    }

    /// Restarts the column at basis state `|index⟩`, keeping its
    /// buffers, and resets its branching count.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidState`] if `index` does not name a basis
    /// state of the register; the column is then unchanged.
    pub fn reset(&mut self, index: u64) -> Result<(), SimError> {
        check_index(self.num_qubits, index)?;
        self.amps.clear();
        self.amps.push((index, C64::ONE));
        self.branching = 0;
        Ok(())
    }

    /// Lowers and applies a circuit gate by gate, within the branching
    /// budget.
    ///
    /// # Errors
    ///
    /// [`SimError::QubitMismatch`] if the circuit is wider than the
    /// column; [`SimError::ColumnTooBranchy`] if its branching ops would
    /// take the column past [`MAX_COLUMN_BRANCHING`]. Both are checked
    /// before any gate runs, so on error the column is unchanged.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        self.check_width(circuit.num_qubits())?;
        let program = ColumnProgram::new(circuit);
        let branching = program.branching.saturating_add(self.branching);
        if branching > MAX_COLUMN_BRANCHING {
            return Err(SimError::ColumnTooBranchy {
                branching,
                max: MAX_COLUMN_BRANCHING,
            });
        }
        self.branching = branching;
        self.apply_program(&program)
    }

    /// Applies a lowered program with no branching budget: only the
    /// live support is capped.
    ///
    /// # Errors
    ///
    /// [`SimError::QubitMismatch`] if the program is wider than the
    /// column (checked first; the column is then unchanged);
    /// [`SimError::ColumnSupportExceeded`] if an op would take the
    /// support past [`MAX_COLUMN_SUPPORT`] — the column then holds the
    /// state before that op.
    pub fn apply_program(&mut self, program: &ColumnProgram) -> Result<(), SimError> {
        self.check_width(program.num_qubits)?;
        let mut applied = 0u64;
        let result = program.ops.iter().try_for_each(|op| {
            self.apply_op(op)?;
            applied += 1;
            Ok(())
        });
        COLUMN_OPS.add(applied);
        if !self.amps.is_sorted_by_key(|&(index, _)| index) {
            self.amps.sort_unstable_by_key(|&(index, _)| index);
        }
        result
    }

    /// The amplitude at basis index `index` (exactly zero outside the
    /// support).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidState`] if `index` is outside the register.
    pub fn amplitude(&self, index: u64) -> Result<C64, SimError> {
        check_index(self.num_qubits, index)?;
        Ok(self
            .amps
            .binary_search_by_key(&index, |&(i, _)| i)
            .map_or(C64::ZERO, |k| self.amps[k].1))
    }

    /// Number of non-zero amplitudes.
    pub fn support(&self) -> usize {
        self.amps.len()
    }

    /// The inner product `⟨self|other⟩`, summed over the indices both
    /// supports share, in index order.
    ///
    /// # Panics
    ///
    /// Panics if the registers differ in width.
    pub fn overlap(&self, other: &SparseColumn) -> C64 {
        assert_eq!(self.num_qubits, other.num_qubits, "size mismatch");
        let (mut i, mut j) = (0, 0);
        let mut sum = C64::ZERO;
        while i < self.amps.len() && j < other.amps.len() {
            let ((a, x), (b, y)) = (self.amps[i], other.amps[j]);
            if a == b {
                sum += x.conj() * y;
            }
            i += usize::from(a <= b);
            j += usize::from(b <= a);
        }
        sum
    }

    fn check_width(&self, width: u32) -> Result<(), SimError> {
        if width > self.num_qubits {
            return Err(SimError::QubitMismatch {
                circuit: width,
                state: self.num_qubits,
            });
        }
        Ok(())
    }

    /// Applies one op. The ops only need index order where pairs meet,
    /// so the support may leave this call out of index order;
    /// [`SparseColumn::apply_program`] restores it.
    fn apply_op(&mut self, op: &Op) -> Result<(), SimError> {
        let bit = 1u64 << op.target;
        let selected = |index: u64| index & op.ctrl == op.ctrl;
        match &op.kind {
            Kind::Phase(p) => {
                for (index, amp) in &mut self.amps {
                    if selected(*index) {
                        *amp *= *p;
                    }
                }
            }
            Kind::Diag(d) => {
                for (index, amp) in &mut self.amps {
                    if selected(*index) {
                        *amp *= d[usize::from(*index & bit != 0)];
                    }
                }
            }
            Kind::Flip => {
                for (index, _) in &mut self.amps {
                    if selected(*index) {
                        *index ^= bit;
                    }
                }
            }
            Kind::Anti(a) => {
                for (index, amp) in &mut self.amps {
                    if selected(*index) {
                        *amp *= a[usize::from(*index & bit == 0)];
                        *index ^= bit;
                    }
                }
            }
            Kind::Dense(m) => {
                // Order by pair, the bit-clear member first, so the two
                // members of a pair sit side by side. The control mask
                // never contains the target, so both members agree on
                // the controls.
                self.amps
                    .sort_unstable_by_key(|&(index, _)| (index & !bit, index));
                let mut out = std::mem::take(&mut self.scratch);
                out.clear();
                let mut rest = self.amps.iter().peekable();
                while let Some(&(index, amp)) = rest.next() {
                    if !selected(index) {
                        out.push((index, amp));
                        continue;
                    }
                    let (x, y) = if index & bit != 0 {
                        (C64::ZERO, amp)
                    } else if let Some(&(_, y)) = rest.next_if(|&&(i, _)| i == index | bit) {
                        (amp, y)
                    } else {
                        (amp, C64::ZERO)
                    };
                    let base = index & !bit;
                    for (index, amp) in [
                        (base, m[0][0] * x + m[0][1] * y),
                        (base | bit, m[1][0] * x + m[1][1] * y),
                    ] {
                        if amp != C64::ZERO {
                            out.push((index, amp));
                        }
                    }
                }
                if out.len() > MAX_COLUMN_SUPPORT {
                    let support = out.len();
                    self.scratch = out;
                    return Err(SimError::ColumnSupportExceeded {
                        support,
                        max: MAX_COLUMN_SUPPORT,
                    });
                }
                self.scratch = std::mem::replace(&mut self.amps, out);
            }
        }
        Ok(())
    }
}

fn check_index(num_qubits: u32, index: u64) -> Result<(), SimError> {
    if num_qubits < 64 && index >> num_qubits != 0 {
        return Err(SimError::InvalidState(format!(
            "basis index {index:#b} does not fit {num_qubits} qubits"
        )));
    }
    Ok(())
}

/// One diagonal entry of a circuit: `⟨input|C|input⟩`, computed by
/// streaming the column `C|input⟩` through a [`SparseColumn`].
///
/// # Errors
///
/// Propagates every [`SparseColumn`] error — in particular
/// [`SimError::ColumnTooBranchy`] when the circuit has more than
/// [`MAX_COLUMN_BRANCHING`] branching ops.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qsim::column::basis_column_amplitude;
///
/// let mut c = Circuit::new(50);
/// c.t(49);
/// let amp = basis_column_amplitude(&c, 1u64 << 49)?;
/// assert!((amp.arg() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
/// # Ok::<(), qsim::SimError>(())
/// ```
pub fn basis_column_amplitude(circuit: &Circuit, input: u64) -> Result<C64, SimError> {
    let mut column = SparseColumn::basis(circuit.num_qubits(), input)?;
    column.apply_circuit(circuit)?;
    column.amplitude(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::Statevector;

    /// The whole [`Gate`] surface, the seven branching gates last.
    fn gate_table() -> [Gate; 26] {
        [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rz(0.37),
            Gate::P(-1.13),
            Gate::CX,
            Gate::CY,
            Gate::CZ,
            Gate::CP(0.81),
            Gate::CRz(-0.52),
            Gate::Swap,
            Gate::CCX,
            Gate::CSwap,
            Gate::Mcx(3),
            Gate::H,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rx(0.61),
            Gate::Ry(1.7),
            Gate::U(0.4, -0.9, 2.2),
            Gate::CH,
        ]
    }

    /// Gates of [`gate_table`] that never branch.
    const NON_BRANCHING: u64 = 19;

    /// Deterministic gate soup over [`gate_table`] on random distinct
    /// wires (`n ≥ 4`, so the three-control MCX fits). Once the
    /// branching budget is spent, a branching pick is swapped for a
    /// non-branching one, so every circuit stays replayable.
    fn mixed_circuit(n: u32, seed: u64) -> Circuit {
        let table = gate_table();
        let mut c = Circuit::new(n);
        let mut s = seed;
        // SplitMix64: every output bit mixes the whole state.
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut branching = 0;
        for _ in 0..48 {
            let mut wires: Vec<u32> = (0..n).collect();
            for k in 0..4 {
                let j = k + (next() % (n as u64 - k as u64)) as usize;
                wires.swap(k, j);
            }
            let mut pick = next() % table.len() as u64;
            if pick >= NON_BRANCHING {
                if branching == MAX_COLUMN_BRANCHING {
                    pick -= NON_BRANCHING;
                } else {
                    branching += 1;
                }
            }
            let gate = table[pick as usize].clone();
            let arity = gate.arity();
            c.append(gate, &wires[..arity]).unwrap();
        }
        c
    }

    /// Branching ops a circuit lowers to.
    fn branching_ops(c: &Circuit) -> usize {
        ColumnProgram::new(c).branching as usize
    }

    #[test]
    fn mixed_circuits_cover_every_gate_within_budget() {
        let mut seen = Vec::new();
        for n in [4u32, 6, 8] {
            for seed in 0..4u64 {
                let c = mixed_circuit(n, (u64::from(n) << 32) ^ seed);
                assert!(branching_ops(&c) <= MAX_COLUMN_BRANCHING as usize);
                seen.extend(c.iter().map(|inst| inst.gate().clone()));
            }
        }
        for gate in gate_table() {
            assert!(seen.contains(&gate), "mixed circuits never use {gate}");
        }
    }

    #[test]
    fn column_agrees_with_dense_statevector() {
        for n in [4u32, 6, 8] {
            for seed in 0..4u64 {
                let circuit = mixed_circuit(n, (u64::from(n) << 32) ^ seed);
                let input = seed % (1 << n);
                let mut sv = Statevector::basis(n, input as usize).unwrap();
                sv.apply_circuit(&circuit).unwrap();
                let mut col = SparseColumn::basis(n, input).unwrap();
                col.apply_circuit(&circuit).unwrap();
                assert!(col.amps.len() <= 1 << col.branching);
                for index in 0..1u64 << n {
                    let dense = sv.amplitudes()[index as usize];
                    let sparse = col.amplitude(index).unwrap();
                    assert!(
                        dense.approx_eq(sparse, 1e-10),
                        "n={n} seed={seed} index={index}: dense {dense:?} vs sparse {sparse:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_program_serves_every_column() {
        // Lower once, reset and rerun: every column must match the
        // statevector's, and overlaps must match its inner product.
        for n in [4u32, 6] {
            let (a, b) = (mixed_circuit(n, 7 + u64::from(n)), mixed_circuit(n, 9));
            let (pa, pb) = (ColumnProgram::new(&a), ColumnProgram::new(&b));
            let mut ca = SparseColumn::basis(n, 0).unwrap();
            let mut cb = ca.clone();
            for input in 0..1u64 << n {
                let mut sa = Statevector::basis(n, input as usize).unwrap();
                sa.apply_circuit(&a).unwrap();
                let mut sb = Statevector::basis(n, input as usize).unwrap();
                sb.apply_circuit(&b).unwrap();
                ca.reset(input).unwrap();
                ca.apply_program(&pa).unwrap();
                cb.reset(input).unwrap();
                cb.apply_program(&pb).unwrap();
                assert!(ca.amps.is_sorted_by_key(|&(index, _)| index));
                for index in 0..1u64 << n {
                    let dense = sa.amplitudes()[index as usize];
                    assert!(dense.approx_eq(ca.amplitude(index).unwrap(), 1e-10));
                }
                assert!(sa.inner(&sb).approx_eq(ca.overlap(&cb), 1e-10));
            }
        }
    }

    #[test]
    fn support_cap_is_a_typed_error_that_keeps_the_prior_state() {
        // A program has no branching budget, only the live cap: ten H
        // gates reach it exactly, the eleventh would double past it.
        let mut spread = Circuit::new(12);
        for q in 0..10 {
            spread.h(q);
        }
        let mut col = SparseColumn::basis(12, 0).unwrap();
        col.apply_program(&ColumnProgram::new(&spread)).unwrap();
        assert_eq!(col.support(), MAX_COLUMN_SUPPORT);
        let before = col.amps.clone();
        let mut more = Circuit::new(12);
        more.x(11).h(10).h(11);
        assert_eq!(
            col.apply_program(&ColumnProgram::new(&more)),
            Err(SimError::ColumnSupportExceeded {
                support: 2 * MAX_COLUMN_SUPPORT,
                max: MAX_COLUMN_SUPPORT,
            })
        );
        // The X before the failing H ran; nothing after it did.
        let flipped: Vec<_> = before.iter().map(|&(i, a)| (i | 1 << 11, a)).collect();
        assert_eq!(col.amps, flipped);
        // A program wider than the column is refused before any op.
        let mut narrow = SparseColumn::basis(4, 0).unwrap();
        assert_eq!(
            narrow.apply_program(&ColumnProgram::new(&spread)),
            Err(SimError::QubitMismatch {
                circuit: 12,
                state: 4
            })
        );
        assert_eq!(narrow.amps, vec![(0, C64::ONE)]);
    }

    #[test]
    fn over_budget_is_refused_and_leaves_the_column_unchanged() {
        let mut first = Circuit::new(30);
        for q in 0..6 {
            first.h(q);
        }
        let mut col = SparseColumn::basis(30, 0).unwrap();
        col.apply_circuit(&first).unwrap();
        let before = col.amps.clone();
        // Five more: 11 over the column's lifetime, one past the budget.
        let mut second = Circuit::new(30);
        second
            .x(29)
            .ch(29, 6)
            .rx(0.3, 7)
            .ry(0.4, 8)
            .u(0.1, 0.2, 0.3, 9);
        second.append(Gate::Sxdg, &[10]).unwrap();
        assert_eq!(branching_ops(&second), 5);
        let err = col.apply_circuit(&second).unwrap_err();
        assert_eq!(
            err,
            SimError::ColumnTooBranchy {
                branching: MAX_COLUMN_BRANCHING + 1,
                max: MAX_COLUMN_BRANCHING,
            }
        );
        assert_eq!(col.branching, 6);
        assert_eq!(col.amps, before);
        assert!(matches!(
            basis_column_amplitude(&first.then(&second).unwrap(), 0),
            Err(SimError::ColumnTooBranchy { branching: 11, .. })
        ));
    }

    #[test]
    fn support_is_bounded_by_the_branching_count() {
        // Ten H gates on distinct wires reach the full 2^10 support, the
        // most a column can ever hold.
        let mut spread = Circuit::new(50);
        for q in 40..50 {
            spread.h(q);
        }
        let mut col = SparseColumn::basis(50, 0).unwrap();
        col.apply_circuit(&spread).unwrap();
        assert_eq!(col.amps.len(), 1 << MAX_COLUMN_BRANCHING);
        // H·H interferes back to one amplitude: exact zeros are dropped.
        let mut undo = Circuit::new(50);
        for q in 40..45 {
            undo.h(q).h(q);
        }
        let mut col = SparseColumn::basis(50, 0).unwrap();
        col.apply_circuit(&undo).unwrap();
        assert_eq!(col.amps.len(), 1);
    }

    #[test]
    fn wide_permutation_keeps_one_amplitude() {
        // 50-qubit reversible logic: support never branches, so the
        // column holds one amplitude as it moves across the register.
        let mut c = Circuit::new(50);
        c.x(0)
            .cx(0, 45)
            .ccx(0, 45, 30)
            .swap(30, 3)
            .mcx(&[0, 3, 45], 49);
        c.cswap(0, 45, 49);
        let mut col = SparseColumn::basis(50, 0).unwrap();
        col.apply_circuit(&c).unwrap();
        assert_eq!(col.amps.len(), 1);
        assert_eq!(col.branching, 0);
        // Follow the bit with the independent classical evaluator.
        let expected = revlib_free_eval(&c);
        assert!(col.amplitude(expected).unwrap().approx_eq(C64::ONE, 1e-12));
    }

    /// Local classical evaluation (qsim cannot depend on revlib).
    fn revlib_free_eval(c: &Circuit) -> u64 {
        let mut s = 0u64;
        for inst in c.iter() {
            let q: Vec<u32> = inst.qubits().iter().map(|x| x.index() as u32).collect();
            let bit = |s: u64, i: u32| s >> i & 1 == 1;
            match inst.gate() {
                Gate::X => s ^= 1 << q[0],
                Gate::CX => {
                    if bit(s, q[0]) {
                        s ^= 1 << q[1]
                    }
                }
                Gate::CCX => {
                    if bit(s, q[0]) && bit(s, q[1]) {
                        s ^= 1 << q[2]
                    }
                }
                Gate::Mcx(_) => {
                    let (ctrl, t) = q.split_at(q.len() - 1);
                    if ctrl.iter().all(|&i| bit(s, i)) {
                        s ^= 1 << t[0]
                    }
                }
                Gate::Swap => {
                    if bit(s, q[0]) != bit(s, q[1]) {
                        s ^= (1 << q[0]) | (1 << q[1])
                    }
                }
                Gate::CSwap => {
                    if bit(s, q[0]) && bit(s, q[1]) != bit(s, q[2]) {
                        s ^= (1 << q[1]) | (1 << q[2])
                    }
                }
                other => panic!("non-classical gate {other}"),
            }
        }
        s
    }

    #[test]
    fn diagonal_gates_only_rotate_phase() {
        let mut c = Circuit::new(40);
        c.t(39).rz(0.25, 20).cp(0.5, 0, 39);
        let mut col = SparseColumn::basis(40, (1u64 << 39) | 1).unwrap();
        col.apply_circuit(&c).unwrap();
        assert_eq!(col.amps.len(), 1);
        let amp = col.amplitude((1u64 << 39) | 1).unwrap();
        // t(39) ⇒ π/4, rz(0.25; 20) on a clear bit ⇒ −0.125,
        // cp(0.5; 0,39) ⇒ 0.5 (both control and target set).
        let expected = std::f64::consts::FRAC_PI_4 - 0.125 + 0.5;
        assert!((amp.abs() - 1.0).abs() < 1e-12);
        assert!((amp.arg() - expected).abs() < 1e-12, "arg {}", amp.arg());
    }

    #[test]
    fn width_cap_is_enforced() {
        let err = SparseColumn::basis(MAX_COLUMN_QUBITS + 1, 0).unwrap_err();
        assert_eq!(
            err,
            SimError::TooManyQubits {
                requested: MAX_COLUMN_QUBITS + 1,
                max: MAX_COLUMN_QUBITS,
            }
        );
        // And the cap itself is fine.
        let mut c = Circuit::new(MAX_COLUMN_QUBITS);
        c.x(62).cx(62, 0);
        let amp = basis_column_amplitude(&c, 0).unwrap();
        assert!(amp.abs() < 1e-12);
    }

    #[test]
    fn bad_basis_index_is_rejected() {
        assert!(matches!(
            SparseColumn::basis(4, 0b10000),
            Err(SimError::InvalidState(_))
        ));
        let col = SparseColumn::basis(4, 0).unwrap();
        assert!(matches!(
            col.amplitude(1 << 10),
            Err(SimError::InvalidState(_))
        ));
    }

    #[test]
    fn x_ladder_leaves_no_zero_entries() {
        // X on a high qubit moves the amplitude; the vacated index must
        // be dropped, not kept as a stored zero.
        let mut c = Circuit::new(20);
        c.x(19).x(18).x(19);
        let mut col = SparseColumn::basis(20, 0).unwrap();
        col.apply_circuit(&c).unwrap();
        assert_eq!(col.amps.len(), 1);
        assert!(col.amplitude(1 << 18).unwrap().approx_eq(C64::ONE, 1e-12));
    }
}
