//! Circuits and instructions.

use crate::error::CircuitError;
use crate::gate::Gate;
use crate::qubit::Qubit;
use serde::codec::{DecodeError, Decoder};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One gate application: a [`Gate`] plus its ordered qubit operands.
///
/// # Example
///
/// ```
/// use qcir::{Gate, Instruction, Qubit};
///
/// let inst = Instruction::new(Gate::CX, vec![Qubit::new(0), Qubit::new(1)])?;
/// assert_eq!(inst.gate(), &Gate::CX);
/// assert_eq!(inst.qubits().len(), 2);
/// # Ok::<(), qcir::CircuitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Instruction {
    gate: Gate,
    qubits: Vec<Qubit>,
}

/// Decoding goes through [`Instruction::new`], so a checkpoint cannot
/// carry an instruction the constructor refuses (a NaN angle, a wrong
/// operand count, a repeated qubit): it is a [`DecodeError::Invalid`]. The wire format is the derived one — the
/// gate, then the operand list.
impl<'de> Deserialize<'de> for Instruction {
    fn deserialize(dec: &mut Decoder<'de>) -> Result<Self, DecodeError> {
        let gate = Gate::deserialize(dec)?;
        let qubits = Vec::<Qubit>::deserialize(dec)?;
        Instruction::new(gate, qubits).map_err(|err| DecodeError::invalid("Instruction", err))
    }
}

impl Instruction {
    /// Creates an instruction, validating operand count and uniqueness.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ArityMismatch`] if the operand count does not
    /// match [`Gate::arity`], [`CircuitError::DuplicateQubit`] if the same
    /// qubit appears twice, or [`CircuitError::NonFiniteParameter`] if an
    /// angle is infinite or NaN.
    pub fn new(gate: Gate, qubits: Vec<Qubit>) -> Result<Self, CircuitError> {
        let finite = match gate {
            Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) | Gate::P(a) | Gate::CP(a) | Gate::CRz(a) => {
                a.is_finite()
            }
            Gate::U(t, p, l) => t.is_finite() && p.is_finite() && l.is_finite(),
            _ => true,
        };
        if !finite {
            return Err(CircuitError::NonFiniteParameter {
                gate: gate.to_string(),
            });
        }
        if qubits.len() != gate.arity() {
            return Err(CircuitError::ArityMismatch {
                gate: gate.name().to_string(),
                expected: gate.arity(),
                actual: qubits.len(),
            });
        }
        for (i, q) in qubits.iter().enumerate() {
            if qubits[..i].contains(q) {
                return Err(CircuitError::DuplicateQubit { qubit: q.raw() });
            }
        }
        Ok(Instruction { gate, qubits })
    }

    /// The gate being applied.
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    /// Ordered operand qubits (controls first, target last for controlled
    /// gates).
    pub fn qubits(&self) -> &[Qubit] {
        &self.qubits
    }

    /// The target qubit (last operand).
    pub fn target(&self) -> Qubit {
        *self.qubits.last().expect("instructions have >=1 operand")
    }

    /// Control qubits (all operands except the target), empty for
    /// uncontrolled gates. For [`Gate::Swap`] this returns the first operand,
    /// which has no control semantics; prefer [`Instruction::qubits`] there.
    pub fn controls(&self) -> &[Qubit] {
        let n = self.gate.num_controls();
        &self.qubits[..n]
    }

    /// Returns the adjoint instruction (same wires, adjoint gate).
    pub fn adjoint(&self) -> Instruction {
        Instruction {
            gate: self.gate.adjoint(),
            qubits: self.qubits.clone(),
        }
    }

    /// `true` if the instruction touches `qubit`.
    pub fn acts_on(&self, qubit: Qubit) -> bool {
        self.qubits.contains(&qubit)
    }

    /// Returns a copy with every operand remapped through `map`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Invalid`] if a qubit is missing from `map`.
    pub fn remapped(&self, map: &BTreeMap<Qubit, Qubit>) -> Result<Instruction, CircuitError> {
        let qubits = self
            .qubits
            .iter()
            .map(|q| {
                map.get(q).copied().ok_or_else(|| {
                    CircuitError::Invalid(format!("qubit {q} missing from remapping"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Instruction {
            gate: self.gate.clone(),
            qubits,
        })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.gate)?;
        for (i, q) in self.qubits.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{q}")?;
        }
        Ok(())
    }
}

/// An ordered sequence of gate applications over a fixed qubit register.
///
/// `Circuit` is the unit of everything in this workspace: RevLib benchmarks
/// are circuits, the TetrisLock obfuscator transforms circuits, the splits
/// are circuits, the transpiler consumes and produces circuits.
///
/// Builder methods (`h`, `cx`, `ccx`, ...) take raw `u32` indices for
/// ergonomics and panic on out-of-range wires; the checked [`Circuit::push`]
/// returns errors instead.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
///
/// let mut c = Circuit::with_name(3, "ghz");
/// c.h(0).cx(0, 1).cx(1, 2);
/// assert_eq!(c.depth(), 3);
/// assert_eq!(c.count_multi_qubit_gates(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Circuit {
    num_qubits: u32,
    name: String,
    instructions: Vec<Instruction>,
    // Count of arity-1 instructions, maintained on every mutation so
    // `single_qubit_gate_count` is O(1) — the statevector engine reads
    // it per `apply_circuit` call to skip the fusion rewrite outright
    // for circuits that cannot contain a fusable run.
    oneq_gates: usize,
}

/// Decoding rebuilds the circuit through [`Circuit::push`], so a
/// decoded circuit has at least one wire, every operand in range and a
/// single-qubit count that matches its instructions, or is a
/// [`DecodeError::Invalid`]. The wire format is the derived one, field
/// by field.
impl<'de> Deserialize<'de> for Circuit {
    fn deserialize(dec: &mut Decoder<'de>) -> Result<Self, DecodeError> {
        let num_qubits = u32::deserialize(dec)?;
        let name = String::deserialize(dec)?;
        let instructions = Vec::<Instruction>::deserialize(dec)?;
        let oneq_gates = usize::deserialize(dec)?;
        let invalid = |reason: &dyn fmt::Display| DecodeError::invalid("Circuit", reason);
        if num_qubits == 0 {
            return Err(invalid(&"a circuit needs at least one qubit"));
        }
        let mut circuit = Circuit::with_name(num_qubits, name);
        for inst in instructions {
            circuit.push(inst).map_err(|err| invalid(&err))?;
        }
        if circuit.oneq_gates != oneq_gates {
            return Err(invalid(&format!(
                "stored single-qubit gate count {oneq_gates}, but {} decoded",
                circuit.oneq_gates
            )));
        }
        Ok(circuit)
    }
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` wires.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits == 0`.
    pub fn new(num_qubits: u32) -> Self {
        assert!(num_qubits > 0, "circuit must have at least one qubit");
        Circuit {
            num_qubits,
            name: String::new(),
            instructions: Vec::new(),
            oneq_gates: 0,
        }
    }

    /// Creates an empty named circuit.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits == 0`.
    pub fn with_name(num_qubits: u32, name: impl Into<String>) -> Self {
        let mut c = Circuit::new(num_qubits);
        c.name = name.into();
        c
    }

    /// Number of qubit wires.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The circuit's name (empty if unnamed).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// All instructions in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// The instruction at `index`, if any.
    pub fn instruction(&self, index: usize) -> Option<&Instruction> {
        self.instructions.get(index)
    }

    /// Total number of gates.
    pub fn gate_count(&self) -> usize {
        self.instructions.len()
    }

    /// Number of single-qubit (arity-1) gates, maintained incrementally
    /// so the check is O(1).
    ///
    /// The statevector engine uses this to skip the fusion stream
    /// rewrite for circuits that cannot contain a fusable run — e.g.
    /// the purely classical X/CX/CCX RevLib circuits.
    ///
    /// # Example
    ///
    /// ```
    /// let mut c = qcir::Circuit::new(3);
    /// c.h(0).cx(0, 1).t(2);
    /// assert_eq!(c.single_qubit_gate_count(), 2);
    /// ```
    pub fn single_qubit_gate_count(&self) -> usize {
        self.oneq_gates
    }

    /// `true` if the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends a validated instruction.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if an operand exceeds the
    /// register size.
    pub fn push(&mut self, instruction: Instruction) -> Result<(), CircuitError> {
        for q in instruction.qubits() {
            if q.raw() >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q.raw(),
                    num_qubits: self.num_qubits,
                });
            }
        }
        if instruction.gate().arity() == 1 {
            self.oneq_gates += 1;
        }
        self.instructions.push(instruction);
        Ok(())
    }

    /// Builds and appends an instruction from a gate and raw wire indices.
    ///
    /// # Errors
    ///
    /// Propagates validation failures from [`Instruction::new`] and
    /// [`Circuit::push`].
    pub fn append(&mut self, gate: Gate, qubits: &[u32]) -> Result<(), CircuitError> {
        let inst = Instruction::new(gate, qubits.iter().copied().map(Qubit::new).collect())?;
        self.push(inst)
    }

    /// Inserts a validated instruction at `index`, shifting later gates.
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::push`]; additionally `index` must be ≤
    /// [`Circuit::gate_count`] or [`CircuitError::Invalid`] is returned.
    pub fn insert(&mut self, index: usize, instruction: Instruction) -> Result<(), CircuitError> {
        if index > self.instructions.len() {
            return Err(CircuitError::Invalid(format!(
                "insertion index {index} beyond circuit length {}",
                self.instructions.len()
            )));
        }
        for q in instruction.qubits() {
            if q.raw() >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q.raw(),
                    num_qubits: self.num_qubits,
                });
            }
        }
        if instruction.gate().arity() == 1 {
            self.oneq_gates += 1;
        }
        self.instructions.insert(index, instruction);
        Ok(())
    }

    fn must(&mut self, gate: Gate, qubits: &[u32]) -> &mut Self {
        self.append(gate, qubits)
            .expect("builder methods take validated indices");
        self
    }

    /// Appends Pauli-X on `q`. Panics if `q` is out of range.
    pub fn x(&mut self, q: u32) -> &mut Self {
        self.must(Gate::X, &[q])
    }

    /// Appends Pauli-Y on `q`. Panics if `q` is out of range.
    pub fn y(&mut self, q: u32) -> &mut Self {
        self.must(Gate::Y, &[q])
    }

    /// Appends Pauli-Z on `q`. Panics if `q` is out of range.
    pub fn z(&mut self, q: u32) -> &mut Self {
        self.must(Gate::Z, &[q])
    }

    /// Appends Hadamard on `q`. Panics if `q` is out of range.
    pub fn h(&mut self, q: u32) -> &mut Self {
        self.must(Gate::H, &[q])
    }

    /// Appends S on `q`. Panics if `q` is out of range.
    pub fn s(&mut self, q: u32) -> &mut Self {
        self.must(Gate::S, &[q])
    }

    /// Appends S† on `q`. Panics if `q` is out of range.
    pub fn sdg(&mut self, q: u32) -> &mut Self {
        self.must(Gate::Sdg, &[q])
    }

    /// Appends T on `q`. Panics if `q` is out of range.
    pub fn t(&mut self, q: u32) -> &mut Self {
        self.must(Gate::T, &[q])
    }

    /// Appends T† on `q`. Panics if `q` is out of range.
    pub fn tdg(&mut self, q: u32) -> &mut Self {
        self.must(Gate::Tdg, &[q])
    }

    /// Appends √X on `q`. Panics if `q` is out of range.
    pub fn sx(&mut self, q: u32) -> &mut Self {
        self.must(Gate::Sx, &[q])
    }

    /// Appends Rx(angle) on `q`. Panics if `q` is out of range.
    pub fn rx(&mut self, angle: f64, q: u32) -> &mut Self {
        self.must(Gate::Rx(angle), &[q])
    }

    /// Appends Ry(angle) on `q`. Panics if `q` is out of range.
    pub fn ry(&mut self, angle: f64, q: u32) -> &mut Self {
        self.must(Gate::Ry(angle), &[q])
    }

    /// Appends Rz(angle) on `q`. Panics if `q` is out of range.
    pub fn rz(&mut self, angle: f64, q: u32) -> &mut Self {
        self.must(Gate::Rz(angle), &[q])
    }

    /// Appends the phase gate P(angle) on `q`. Panics if `q` is out of range.
    pub fn p(&mut self, angle: f64, q: u32) -> &mut Self {
        self.must(Gate::P(angle), &[q])
    }

    /// Appends U(θ, φ, λ) on `q`. Panics if `q` is out of range.
    pub fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: u32) -> &mut Self {
        self.must(Gate::U(theta, phi, lambda), &[q])
    }

    /// Appends CX with `control` and `target`. Panics on invalid wires.
    pub fn cx(&mut self, control: u32, target: u32) -> &mut Self {
        self.must(Gate::CX, &[control, target])
    }

    /// Appends CY with `control` and `target`. Panics on invalid wires.
    pub fn cy(&mut self, control: u32, target: u32) -> &mut Self {
        self.must(Gate::CY, &[control, target])
    }

    /// Appends CZ on the pair. Panics on invalid wires.
    pub fn cz(&mut self, control: u32, target: u32) -> &mut Self {
        self.must(Gate::CZ, &[control, target])
    }

    /// Appends controlled-H. Panics on invalid wires.
    pub fn ch(&mut self, control: u32, target: u32) -> &mut Self {
        self.must(Gate::CH, &[control, target])
    }

    /// Appends controlled-phase CP(angle). Panics on invalid wires.
    pub fn cp(&mut self, angle: f64, control: u32, target: u32) -> &mut Self {
        self.must(Gate::CP(angle), &[control, target])
    }

    /// Appends controlled-Rz. Panics on invalid wires.
    pub fn crz(&mut self, angle: f64, control: u32, target: u32) -> &mut Self {
        self.must(Gate::CRz(angle), &[control, target])
    }

    /// Appends SWAP. Panics on invalid wires.
    pub fn swap(&mut self, a: u32, b: u32) -> &mut Self {
        self.must(Gate::Swap, &[a, b])
    }

    /// Appends a Toffoli gate. Panics on invalid wires.
    pub fn ccx(&mut self, c0: u32, c1: u32, target: u32) -> &mut Self {
        self.must(Gate::CCX, &[c0, c1, target])
    }

    /// Appends a Fredkin (controlled-swap) gate. Panics on invalid wires.
    pub fn cswap(&mut self, control: u32, a: u32, b: u32) -> &mut Self {
        self.must(Gate::CSwap, &[control, a, b])
    }

    /// Appends a multi-controlled X; `controls` may be empty (plain X) or of
    /// any length. One and two controls normalize to CX/CCX.
    ///
    /// # Panics
    ///
    /// Panics on invalid or duplicate wires.
    pub fn mcx(&mut self, controls: &[u32], target: u32) -> &mut Self {
        match controls.len() {
            0 => self.x(target),
            1 => self.cx(controls[0], target),
            2 => self.ccx(controls[0], controls[1], target),
            n => {
                let mut operands: Vec<u32> = controls.to_vec();
                operands.push(target);
                self.must(Gate::Mcx(n as u32), &operands)
            }
        }
    }

    /// Circuit depth: length of the longest wire-dependency chain (the
    /// number of ASAP layers). An empty circuit has depth 0.
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.num_qubits as usize];
        let mut depth = 0;
        for inst in &self.instructions {
            let layer = inst
                .qubits()
                .iter()
                .map(|q| frontier[q.index()])
                .max()
                .unwrap_or(0)
                + 1;
            for q in inst.qubits() {
                frontier[q.index()] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    /// Returns the inverse circuit: adjoint gates in reverse order, so that
    /// `c.compose(&c.inverse())` is the identity. This is the paper's
    /// `R → R⁻¹` primitive (§II-B3).
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::with_name(
            self.num_qubits,
            if self.name.is_empty() {
                String::new()
            } else {
                format!("{}_dg", self.name)
            },
        );
        inv.instructions = self
            .instructions
            .iter()
            .rev()
            .map(Instruction::adjoint)
            .collect();
        // Adjoints preserve arity, so the count carries over.
        inv.oneq_gates = self.oneq_gates;
        inv
    }

    /// Appends all of `other`'s instructions to `self`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Invalid`] if `other` has more qubits than
    /// `self`.
    pub fn compose(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        if other.num_qubits > self.num_qubits {
            return Err(CircuitError::Invalid(format!(
                "cannot compose {}-qubit circuit onto {}-qubit circuit",
                other.num_qubits, self.num_qubits
            )));
        }
        self.instructions.extend(other.instructions.iter().cloned());
        self.oneq_gates += other.oneq_gates;
        Ok(())
    }

    /// Returns `self` followed by `other` as a new circuit (register size is
    /// the max of the two).
    ///
    /// # Errors
    ///
    /// Currently infallible but kept fallible for symmetry with
    /// [`Circuit::compose`].
    pub fn then(&self, other: &Circuit) -> Result<Circuit, CircuitError> {
        let mut out = Circuit::with_name(self.num_qubits.max(other.num_qubits), self.name.clone());
        out.instructions = self.instructions.clone();
        out.instructions.extend(other.instructions.iter().cloned());
        out.oneq_gates = self.oneq_gates + other.oneq_gates;
        Ok(out)
    }

    /// Per-gate-kind histogram, keyed by [`Gate::name`].
    pub fn gate_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut histogram = BTreeMap::new();
        for inst in &self.instructions {
            *histogram.entry(inst.gate().name()).or_insert(0) += 1;
        }
        histogram
    }

    /// Number of gates acting on two or more qubits.
    pub fn count_multi_qubit_gates(&self) -> usize {
        self.instructions
            .iter()
            .filter(|inst| inst.gate().arity() > 1)
            .count()
    }

    /// Qubits that are touched by at least one gate, ascending.
    pub fn active_qubits(&self) -> Vec<Qubit> {
        let mut used = vec![false; self.num_qubits as usize];
        for inst in &self.instructions {
            for q in inst.qubits() {
                used[q.index()] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(i, _)| Qubit::new(i as u32))
            .collect()
    }

    /// Builds a new circuit containing only the active wires, renumbered
    /// densely from zero. Returns the compacted circuit together with the
    /// mapping `old qubit → new qubit`.
    ///
    /// This is how TetrisLock split segments end up with *different* qubit
    /// counts: wires a segment never touches are dropped entirely.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Invalid`] if the circuit has no active qubits.
    pub fn compacted(&self) -> Result<(Circuit, BTreeMap<Qubit, Qubit>), CircuitError> {
        let active = self.active_qubits();
        if active.is_empty() {
            return Err(CircuitError::Invalid(
                "cannot compact a circuit with no gates".into(),
            ));
        }
        let map: BTreeMap<Qubit, Qubit> = active
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, Qubit::new(new as u32)))
            .collect();
        let mut out = Circuit::with_name(active.len() as u32, self.name.clone());
        for inst in &self.instructions {
            out.push(inst.remapped(&map)?)?;
        }
        Ok((out, map))
    }

    /// Returns a copy with all wires remapped through `map` onto a register
    /// of `num_qubits` wires.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Invalid`] if a wire is missing from `map`, or
    /// [`CircuitError::QubitOutOfRange`] if a mapped wire exceeds the new
    /// register.
    pub fn remapped(
        &self,
        num_qubits: u32,
        map: &BTreeMap<Qubit, Qubit>,
    ) -> Result<Circuit, CircuitError> {
        let mut out = Circuit::with_name(num_qubits, self.name.clone());
        for inst in &self.instructions {
            out.push(inst.remapped(map)?)?;
        }
        Ok(out)
    }

    /// Iterates over instructions (alias for `instructions().iter()`).
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit {} ({} qubits, {} gates, depth {})",
            if self.name.is_empty() {
                "<anon>"
            } else {
                &self.name
            },
            self.num_qubits,
            self.gate_count(),
            self.depth()
        )?;
        for inst in &self.instructions {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl Extend<Instruction> for Circuit {
    /// Extends the circuit, skipping validation (operands are assumed to be
    /// in range; out-of-range operands will surface as panics downstream).
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        for inst in iter {
            self.push(inst).expect("extended instruction out of range");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ccx(0, 1, 2).rz(0.3, 2);
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.num_qubits(), 3);
    }

    #[test]
    fn single_qubit_gate_count_tracks_every_mutation() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1);
        assert_eq!(c.single_qubit_gate_count(), 2);

        c.insert(1, Instruction::new(Gate::S, vec![Qubit::new(2)]).unwrap())
            .unwrap();
        c.insert(
            0,
            Instruction::new(Gate::CZ, vec![Qubit::new(0), Qubit::new(1)]).unwrap(),
        )
        .unwrap();
        assert_eq!(c.single_qubit_gate_count(), 3);

        assert_eq!(c.inverse().single_qubit_gate_count(), 3);

        let mut other = Circuit::new(3);
        other.x(2).ccx(0, 1, 2);
        c.compose(&other).unwrap();
        assert_eq!(c.single_qubit_gate_count(), 4);

        let chained = c.then(&other).unwrap();
        assert_eq!(chained.single_qubit_gate_count(), 5);

        // The purely classical RevLib shape: no single-qubit gates.
        let mut classical = Circuit::new(3);
        classical.x(0).cx(0, 1).ccx(0, 1, 2);
        assert_eq!(classical.single_qubit_gate_count(), 1); // X is arity 1
    }

    #[test]
    #[should_panic(expected = "validated indices")]
    fn builder_panics_out_of_range() {
        let mut c = Circuit::new(2);
        c.x(5);
    }

    #[test]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        let inst = Instruction::new(Gate::X, vec![Qubit::new(4)]).unwrap();
        assert_eq!(
            c.push(inst),
            Err(CircuitError::QubitOutOfRange {
                qubit: 4,
                num_qubits: 2
            })
        );
    }

    #[test]
    fn instruction_rejects_duplicates_and_arity() {
        assert!(matches!(
            Instruction::new(Gate::CX, vec![Qubit::new(1), Qubit::new(1)]),
            Err(CircuitError::DuplicateQubit { qubit: 1 })
        ));
        assert!(matches!(
            Instruction::new(Gate::CX, vec![Qubit::new(1)]),
            Err(CircuitError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn instruction_rejects_non_finite_parameters() {
        let q = |i| vec![Qubit::new(i)];
        for gate in [
            Gate::Rz(f64::INFINITY),
            Gate::Rx(f64::NEG_INFINITY),
            Gate::Ry(f64::NAN),
            Gate::P(f64::NAN),
            Gate::U(0.1, f64::INFINITY, 0.3),
            Gate::U(0.1, 0.2, f64::NAN),
        ] {
            let err = Instruction::new(gate.clone(), q(0)).unwrap_err();
            assert!(
                matches!(err, CircuitError::NonFiniteParameter { .. }),
                "{gate}: {err}"
            );
        }
        for gate in [Gate::CP(f64::INFINITY), Gate::CRz(f64::NAN)] {
            assert!(matches!(
                Instruction::new(gate, vec![Qubit::new(0), Qubit::new(1)]),
                Err(CircuitError::NonFiniteParameter { .. })
            ));
        }
        // Finite extremes stay valid, and the builder path is guarded too.
        assert!(Instruction::new(Gate::Rz(f64::MAX), q(0)).is_ok());
        let mut c = Circuit::new(1);
        assert!(matches!(
            c.append(Gate::Rz(f64::INFINITY), &[0]),
            Err(CircuitError::NonFiniteParameter { .. })
        ));
        assert_eq!(c.gate_count(), 0);
    }

    #[test]
    fn depth_counts_longest_chain() {
        let mut c = Circuit::new(3);
        assert_eq!(c.depth(), 0);
        c.h(0).h(1).h(2); // one layer
        assert_eq!(c.depth(), 1);
        c.cx(0, 1); // second layer
        assert_eq!(c.depth(), 2);
        c.x(2); // fits in layer 2
        assert_eq!(c.depth(), 2);
        c.ccx(0, 1, 2); // third layer
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn parallel_gates_share_layer() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3);
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn inverse_reverses_and_adjoints() {
        let mut c = Circuit::with_name(2, "test");
        c.h(0).s(1).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.gate_count(), 3);
        assert_eq!(inv.instruction(0).unwrap().gate(), &Gate::CX);
        assert_eq!(inv.instruction(1).unwrap().gate(), &Gate::Sdg);
        assert_eq!(inv.instruction(2).unwrap().gate(), &Gate::H);
        assert_eq!(inv.name(), "test_dg");
    }

    #[test]
    fn double_inverse_is_identity_structurally() {
        let mut c = Circuit::new(3);
        c.h(0).t(1).cx(1, 2).rz(0.25, 0).ccx(0, 1, 2);
        let back = c.inverse().inverse();
        assert_eq!(back.instructions(), c.instructions());
    }

    #[test]
    fn compose_and_then() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.compose(&b).unwrap();
        assert_eq!(a.gate_count(), 2);

        let joined = a.then(&b).unwrap();
        assert_eq!(joined.gate_count(), 3);
    }

    #[test]
    fn compose_rejects_larger_register() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(a.compose(&b).is_err());
    }

    #[test]
    fn histogram_counts_by_name() {
        let mut c = Circuit::new(3);
        c.x(0).x(1).cx(0, 1).ccx(0, 1, 2);
        let h = c.gate_histogram();
        assert_eq!(h["x"], 2);
        assert_eq!(h["cx"], 1);
        assert_eq!(h["ccx"], 1);
    }

    #[test]
    fn active_qubits_and_compaction() {
        let mut c = Circuit::new(6);
        c.x(1).cx(1, 4);
        assert_eq!(c.active_qubits(), vec![Qubit::new(1), Qubit::new(4)]);

        let (compact, map) = c.compacted().unwrap();
        assert_eq!(compact.num_qubits(), 2);
        assert_eq!(map[&Qubit::new(1)], Qubit::new(0));
        assert_eq!(map[&Qubit::new(4)], Qubit::new(1));
        assert_eq!(
            compact.instruction(1).unwrap().qubits(),
            &[Qubit::new(0), Qubit::new(1)]
        );
    }

    #[test]
    fn compacting_empty_circuit_errors() {
        let c = Circuit::new(3);
        assert!(c.compacted().is_err());
    }

    #[test]
    fn mcx_normalizes_small_arities() {
        let mut c = Circuit::new(5);
        c.mcx(&[], 0);
        c.mcx(&[0], 1);
        c.mcx(&[0, 1], 2);
        c.mcx(&[0, 1, 2], 3);
        assert_eq!(c.instruction(0).unwrap().gate(), &Gate::X);
        assert_eq!(c.instruction(1).unwrap().gate(), &Gate::CX);
        assert_eq!(c.instruction(2).unwrap().gate(), &Gate::CCX);
        assert_eq!(c.instruction(3).unwrap().gate(), &Gate::Mcx(3));
    }

    #[test]
    fn insert_places_gate_at_index() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let inst = Instruction::new(Gate::X, vec![Qubit::new(1)]).unwrap();
        c.insert(1, inst).unwrap();
        assert_eq!(c.instruction(1).unwrap().gate(), &Gate::X);
        assert_eq!(c.gate_count(), 3);
        let bad = Instruction::new(Gate::X, vec![Qubit::new(1)]).unwrap();
        assert!(c.insert(99, bad).is_err());
    }

    #[test]
    fn controls_and_target_accessors() {
        let mut c = Circuit::new(3);
        c.ccx(2, 0, 1);
        let inst = c.instruction(0).unwrap();
        assert_eq!(inst.controls(), &[Qubit::new(2), Qubit::new(0)]);
        assert_eq!(inst.target(), Qubit::new(1));
    }

    /// `Circuit`'s wire layout with no validation: what a hand-edited
    /// or foreign checkpoint can hold.
    #[derive(Serialize)]
    struct RawCircuit {
        num_qubits: u32,
        name: String,
        instructions: Vec<RawInstruction>,
        oneq_gates: usize,
    }

    #[derive(Serialize)]
    struct RawInstruction {
        gate: Gate,
        qubits: Vec<Qubit>,
    }

    fn raw(num_qubits: u32, gates: &[(Gate, &[u32])], oneq_gates: usize) -> Vec<u8> {
        let instructions = gates
            .iter()
            .map(|(gate, wires)| RawInstruction {
                gate: gate.clone(),
                qubits: wires.iter().copied().map(Qubit::new).collect(),
            })
            .collect();
        serde::to_bytes(&RawCircuit {
            num_qubits,
            name: "raw".into(),
            instructions,
            oneq_gates,
        })
    }

    fn decode_error(bytes: &[u8]) -> (&'static str, String) {
        match serde::from_bytes::<Circuit>(bytes) {
            Err(DecodeError::Invalid { type_name, reason }) => (type_name, reason),
            other => panic!("expected DecodeError::Invalid, got {other:?}"),
        }
    }

    #[test]
    fn decoding_validates_like_the_constructors() {
        let mut c = Circuit::with_name(3, "raw");
        c.rz(0.5, 1).cx(1, 2);
        let good = raw(3, &[(Gate::Rz(0.5), &[1]), (Gate::CX, &[1, 2])], 1);
        assert_eq!(
            good,
            serde::to_bytes(&c),
            "the raw layout is the wire format"
        );
        assert_eq!(serde::from_bytes::<Circuit>(&good).unwrap(), c);

        let (ty, reason) = decode_error(&raw(3, &[(Gate::Rz(f64::NAN), &[1])], 1));
        assert_eq!(ty, "Instruction");
        assert!(reason.contains("non-finite"), "{reason}");
        let (ty, _) = decode_error(&raw(3, &[(Gate::CX, &[1, 1])], 0));
        assert_eq!(ty, "Instruction");
        let (ty, _) = decode_error(&raw(3, &[(Gate::CX, &[1])], 0));
        assert_eq!(ty, "Instruction");

        let (ty, reason) = decode_error(&raw(2, &[(Gate::CX, &[1, 2])], 0));
        assert_eq!(ty, "Circuit");
        assert!(reason.contains("out of range"), "{reason}");
        let (ty, _) = decode_error(&raw(0, &[], 0));
        assert_eq!(ty, "Circuit");
        let (ty, reason) = decode_error(&raw(3, &[(Gate::H, &[0])], 7));
        assert_eq!(ty, "Circuit");
        assert!(reason.contains("single-qubit gate count 7"), "{reason}");
    }
}
