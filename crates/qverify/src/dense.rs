//! Dense tier: the exhaustive ≤ [`MAX_UNITARY_QUBITS`]-qubit check.
//!
//! Compares the circuits column by column: each basis state is pushed
//! through both circuits and the output overlap `⟨C₁·x|C₂·x⟩` is
//! inspected. `C₁ ≃ C₂` up to global phase iff every column pair has
//! unit overlap *and* all overlaps share one phase. Streaming one
//! column at a time (instead of two `2ⁿ×2ⁿ` matrices — ~512 MiB at the
//! cap) exits early on the first diverging column and still yields a
//! concrete witness — a basis input with diverging outputs or a pair of
//! basis inputs acquiring different phases.
//!
//! The tier has two passes over the same comparison:
//!
//! * [`check_sparse`] runs each column on a [`SparseColumn`] through
//!   circuits lowered once to [`ColumnProgram`]s. A near-classical
//!   column — reversible logic plus local branching that interferes
//!   back — holds a handful of amplitudes, so a 12-qubit pair is decided
//!   in a fraction of a second. The pass hands over, with no verdict,
//!   as soon as a column's support outgrows its budget.
//! * [`check`] runs each column through two `2ⁿ`-amplitude
//!   [`Statevector`]s: the cost is the same for every pair.

use crate::{Report, Tier, Verdict, Witness};
use qcir::Circuit;
use qsim::complex::C64;
use qsim::unitary::MAX_UNITARY_QUBITS;
use qsim::{ColumnProgram, SimError, SparseColumn, Statevector, MAX_COLUMN_SUPPORT};

/// Statevector pass with witness extraction and early exit.
pub(crate) fn check(a: &Circuit, b: &Circuit, eps: f64) -> Result<Report, SimError> {
    let n = checked_width(a)?;
    compare_columns(n, eps, |col| {
        let mut sa = Statevector::basis(n, col as usize)?;
        sa.apply_circuit(a)?;
        let mut sb = Statevector::basis(n, col as usize)?;
        sb.apply_circuit(b)?;
        Ok(sa.inner(&sb))
    })
}

/// Sparse pass: the same comparison on [`SparseColumn`]s.
///
/// A column may hold at most [`MAX_COLUMN_SUPPORT`] amplitudes and at
/// most half of the register's `2ⁿ` basis states: a denser column is
/// cheaper as a statevector.
///
/// # Errors
///
/// [`SimError::ColumnSupportExceeded`] when a column outgrows that
/// budget — the pair then goes to the tiers after this pass.
pub(crate) fn check_sparse(a: &Circuit, b: &Circuit, eps: f64) -> Result<Report, SimError> {
    let n = checked_width(a)?;
    let budget = MAX_COLUMN_SUPPORT.min(1 << n.saturating_sub(1));
    let (pa, pb) = (ColumnProgram::new(a), ColumnProgram::new(b));
    let mut ca = SparseColumn::basis(n, 0)?;
    let mut cb = ca.clone();
    compare_columns(n, eps, |col| {
        for (column, program) in [(&mut ca, &pa), (&mut cb, &pb)] {
            column.reset(col)?;
            column.apply_program(program)?;
            if column.support() > budget {
                return Err(SimError::ColumnSupportExceeded {
                    support: column.support(),
                    max: budget,
                });
            }
        }
        Ok(ca.overlap(&cb))
    })
}

fn checked_width(c: &Circuit) -> Result<u32, SimError> {
    let n = c.num_qubits();
    if n > MAX_UNITARY_QUBITS {
        return Err(SimError::TooManyQubits {
            requested: n,
            max: MAX_UNITARY_QUBITS,
        });
    }
    Ok(n)
}

/// Walks the `2ⁿ` columns in order, `overlap(x)` giving
/// `⟨C₁·x|C₂·x⟩`, and stops at the first witness.
fn compare_columns(
    n: u32,
    eps: f64,
    mut overlap: impl FnMut(u64) -> Result<C64, SimError>,
) -> Result<Report, SimError> {
    let mut reference: Option<(u64, C64)> = None;
    for col in 0..1u64 << n {
        let overlap = overlap(col)?;
        if (overlap.abs() - 1.0).abs() > eps {
            return Ok(report(Verdict::Inequivalent {
                witness: Witness::BasisColumn {
                    input: col,
                    overlap: overlap.abs(),
                },
            }));
        }
        match reference {
            None => reference = Some((col, overlap)),
            Some((first, phase)) => {
                if !overlap.approx_eq(phase, eps.max(1e-12) * 10.0) {
                    return Ok(report(Verdict::Inequivalent {
                        witness: Witness::RelativePhase {
                            input_a: first,
                            input_b: col,
                        },
                    }));
                }
            }
        }
    }
    Ok(report(Verdict::Equivalent))
}

fn report(verdict: Verdict) -> Report {
    Report {
        verdict,
        tier: Tier::Dense,
        trials: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::unitary::equivalent_up_to_phase;

    const EPS: f64 = 1e-9;

    /// Runs both passes, requires the sparse one to decide, and requires
    /// the two reports to agree exactly.
    fn both(a: &Circuit, b: &Circuit) -> Report {
        let dense = check(a, b, EPS).unwrap();
        let sparse = check_sparse(a, b, EPS).unwrap();
        assert_eq!(sparse, dense);
        dense
    }

    #[test]
    fn agrees_with_qsim_boolean_check() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).t(1);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).t(1);
        assert!(both(&a, &b).verdict.is_equivalent());
        assert!(equivalent_up_to_phase(&a, &b, EPS).unwrap());
        b.s(0);
        assert!(both(&a, &b).verdict.is_inequivalent());
        assert!(!equivalent_up_to_phase(&a, &b, EPS).unwrap());
    }

    #[test]
    fn global_phase_difference_is_equivalent() {
        let mut a = Circuit::new(1);
        a.rz(0.9, 0);
        let mut b = Circuit::new(1);
        b.p(0.9, 0);
        assert!(both(&a, &b).verdict.is_equivalent());
    }

    #[test]
    fn relative_phase_detected_with_witness() {
        // CZ matches identity on every column magnitude but not phase.
        let mut a = Circuit::new(2);
        a.cz(0, 1);
        let b = Circuit::new(2);
        match both(&a, &b).verdict {
            Verdict::Inequivalent {
                witness: Witness::RelativePhase { input_a, input_b },
            } => {
                assert_eq!(input_a, 0);
                assert_eq!(input_b, 0b11);
            }
            other => panic!("expected relative-phase witness, got {other:?}"),
        }
    }

    #[test]
    fn column_divergence_yields_basis_witness() {
        let mut a = Circuit::new(2);
        a.x(1);
        let b = Circuit::new(2);
        match both(&a, &b).verdict {
            Verdict::Inequivalent {
                witness: Witness::BasisColumn { input, overlap },
            } => {
                assert_eq!(input, 0);
                assert!(overlap < 0.5);
            }
            other => panic!("expected basis-column witness, got {other:?}"),
        }
    }

    #[test]
    fn sparse_pass_decides_a_decomposed_toffoli_ladder_at_the_cap() {
        // 12 wires of CCX against their H/T/CX decomposition: every
        // column stays near-classical, so the sparse pass decides.
        let n = MAX_UNITARY_QUBITS;
        let mut a = Circuit::new(n);
        let mut b = Circuit::new(n);
        for q in 0..n - 2 {
            let (x, y, z) = (q, q + 1, q + 2);
            a.ccx(x, y, z);
            b.h(z)
                .cx(y, z)
                .tdg(z)
                .cx(x, z)
                .t(z)
                .cx(y, z)
                .tdg(z)
                .cx(x, z);
            b.t(y).t(z).h(z).cx(x, y).t(x).tdg(y).cx(x, y);
        }
        let report = check_sparse(&a, &b, EPS).unwrap();
        assert!(report.verdict.is_equivalent(), "{report}");
        b.x(5);
        let report = check_sparse(&a, &b, EPS).unwrap();
        assert!(
            matches!(
                report.verdict,
                Verdict::Inequivalent {
                    witness: Witness::BasisColumn { input: 0, .. }
                }
            ),
            "{report}"
        );
    }

    #[test]
    fn sparse_pass_hands_over_past_half_the_register() {
        // Two H gates fill all four basis states of a 2-qubit column:
        // over the half-register budget, so no verdict.
        let mut a = Circuit::new(2);
        a.h(0).h(1);
        assert_eq!(
            check_sparse(&a, &a.clone(), EPS),
            Err(SimError::ColumnSupportExceeded { support: 4, max: 2 })
        );
        // The statevector pass still decides the pair.
        assert!(check(&a, &a.clone(), EPS).unwrap().verdict.is_equivalent());
    }

    #[test]
    fn sparse_pass_hands_over_past_the_column_cap() {
        // Eleven H gates at 12 wires: the column's own cap stops the
        // pass at the op that would hold 2048 amplitudes.
        let mut a = Circuit::new(12);
        for q in 0..11 {
            a.h(q);
        }
        assert_eq!(
            check_sparse(&a, &a.clone(), EPS),
            Err(SimError::ColumnSupportExceeded {
                support: 2 * MAX_COLUMN_SUPPORT,
                max: MAX_COLUMN_SUPPORT,
            })
        );
    }

    #[test]
    fn oversized_register_errors() {
        let c = Circuit::new(MAX_UNITARY_QUBITS + 1);
        for pass in [check, check_sparse] {
            assert!(matches!(
                pass(&c, &c.clone(), EPS),
                Err(SimError::TooManyQubits { .. })
            ));
        }
    }
}
