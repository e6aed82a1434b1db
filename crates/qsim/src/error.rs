//! Simulator error types.

use std::fmt;

/// Errors raised by the statevector simulator and samplers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A register exceeded the dense-simulation limit.
    TooManyQubits {
        /// Requested register size.
        requested: u32,
        /// Supported maximum.
        max: u32,
    },
    /// A circuit referenced more qubits than the state holds.
    QubitMismatch {
        /// Qubits required by the circuit.
        circuit: u32,
        /// Qubits available in the state.
        state: u32,
    },
    /// A state-construction argument was invalid.
    InvalidState(String),
    /// A sparse basis column was asked to apply more branching ops
    /// than its budget allows — its amplitude support could outgrow
    /// `2^max`. Raised before any gate runs.
    ColumnTooBranchy {
        /// Branching ops the column would have applied in total.
        branching: u32,
        /// The budget, `column::MAX_COLUMN_BRANCHING`.
        max: u32,
    },
    /// An op would have taken a sparse basis column past its live
    /// support cap, `column::MAX_COLUMN_SUPPORT` amplitudes — or past a
    /// caller's tighter budget. The column keeps the state before that
    /// op.
    ColumnSupportExceeded {
        /// Non-zero amplitudes the column would have held.
        support: usize,
        /// The cap that was exceeded.
        max: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooManyQubits { requested, max } => {
                write!(
                    f,
                    "register of {requested} qubits exceeds simulator limit of {max}"
                )
            }
            SimError::QubitMismatch { circuit, state } => write!(
                f,
                "circuit needs {circuit} qubits but state has only {state}"
            ),
            SimError::InvalidState(message) => write!(f, "invalid state: {message}"),
            SimError::ColumnTooBranchy { branching, max } => write!(
                f,
                "basis column needs {branching} branching gates, over the budget of {max}"
            ),
            SimError::ColumnSupportExceeded { support, max } => write!(
                f,
                "basis column support of {support} amplitudes exceeds the cap of {max}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_numbers() {
        // The advertised cap must derive from the one source of truth,
        // `statevector::MAX_QUBITS`, so a cap bump cannot drift.
        use crate::statevector::MAX_QUBITS;
        let e = SimError::TooManyQubits {
            requested: MAX_QUBITS + 12,
            max: MAX_QUBITS,
        };
        assert!(e.to_string().contains(&(MAX_QUBITS + 12).to_string()));
        assert!(e.to_string().contains(&MAX_QUBITS.to_string()));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SimError>();
    }
}
