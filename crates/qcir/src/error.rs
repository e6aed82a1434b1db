//! Error types for circuit construction and parsing.

use std::fmt;

/// Errors raised while building, transforming or parsing circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate referenced a qubit index outside the circuit's register.
    QubitOutOfRange {
        /// Offending qubit index.
        qubit: u32,
        /// Number of qubits in the circuit.
        num_qubits: u32,
    },
    /// The same qubit was used twice in one instruction (e.g. `cx q0, q0`).
    DuplicateQubit {
        /// The duplicated qubit index.
        qubit: u32,
    },
    /// An instruction supplied the wrong number of operands for its gate.
    ArityMismatch {
        /// Gate mnemonic.
        gate: String,
        /// Expected operand count.
        expected: usize,
        /// Actual operand count.
        actual: usize,
    },
    /// A parser failed; carries line number (1-based) and message.
    Parse {
        /// Line at which parsing failed.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// A circuit-level validation failed (empty register, mismatched
    /// composition, ...).
    Invalid(String),
    /// A gate angle was infinite or NaN: it has no matrix, so no
    /// simulator or verifier can give the gate a meaning.
    NonFiniteParameter {
        /// The offending gate as displayed (e.g. `rz(inf)`).
        gate: String,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, num_qubits } => write!(
                f,
                "qubit index {qubit} out of range for circuit with {num_qubits} qubits"
            ),
            CircuitError::DuplicateQubit { qubit } => {
                write!(f, "qubit {qubit} appears more than once in one instruction")
            }
            CircuitError::ArityMismatch {
                gate,
                expected,
                actual,
            } => write!(f, "gate {gate} expects {expected} operand(s), got {actual}"),
            CircuitError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            CircuitError::Invalid(message) => write!(f, "invalid circuit: {message}"),
            CircuitError::NonFiniteParameter { gate } => {
                write!(f, "gate {gate} has a non-finite parameter")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = CircuitError::QubitOutOfRange {
            qubit: 9,
            num_qubits: 4,
        };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("4"));

        let e = CircuitError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<CircuitError>();
    }
}
