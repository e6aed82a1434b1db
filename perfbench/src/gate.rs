//! Correctness checks: the known-answer gate every item passes through
//! and the digests behind the determinism check.
//!
//! The known answers come from outside `qverify`: a protected job must
//! restore its own design (Equivalent), and a wrong-key reassembly is
//! judged by exhaustive classical replay of the *uncompiled* segments
//! with `revlib::classical_eval`.

use qcir::Circuit;
use qverify::{Report, Verdict};
use std::collections::BTreeMap;
use std::path::Path;
use tetrislock::batch::{BatchReport, MANIFEST_FILE};

/// Every job of a batch unit must come back verified Equivalent.
/// Returns one message per job that did not, plus one if jobs are
/// missing from the report.
pub fn batch_failures(report: &BatchReport, expected_jobs: usize) -> Vec<String> {
    let mut failures: Vec<String> = report
        .outcomes
        .iter()
        .filter_map(|o| match &o.result {
            Ok(v) if v.equivalent => None,
            Ok(v) => Some(format!(
                "{}: restored circuit NOT equivalent ({} tier)",
                o.id, v.tier
            )),
            Err(failure) => Some(format!("{}: job failed: {failure}", o.id)),
        })
        .collect();
    if report.outcomes.len() != expected_jobs {
        failures.push(format!(
            "batch reported {} outcomes for {expected_jobs} jobs",
            report.outcomes.len()
        ));
    }
    failures
}

/// Exhaustive classical replay: `true` iff the two reversible circuits
/// compute the same permutation of basis states.
///
/// # Errors
///
/// A message when the registers differ or a gate is not classical.
pub fn classical_equivalent(a: &Circuit, b: &Circuit) -> Result<bool, String> {
    let n = a.num_qubits();
    if n != b.num_qubits() || n > 24 {
        return Err(format!(
            "classical replay needs equal registers of at most 24 wires, got {n} and {}",
            b.num_qubits()
        ));
    }
    for input in 0..1usize << n {
        let left = revlib::classical_eval(a, input).map_err(|e| e.to_string())?;
        let right = revlib::classical_eval(b, input).map_err(|e| e.to_string())?;
        if left != right {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Compares one oracle answer with the known answer. An Inconclusive
/// verdict is always a failure.
pub fn oracle_failure(report: &Report, known_equivalent: bool) -> Option<String> {
    match (&report.verdict, known_equivalent) {
        (Verdict::Equivalent, true) | (Verdict::Inequivalent { .. }, false) => None,
        (Verdict::Inconclusive { .. }, _) => {
            Some(format!("oracle inconclusive ({} tier)", report.tier))
        }
        (verdict, known) => Some(format!(
            "oracle says {verdict} ({} tier), classical replay says {}",
            report.tier,
            if known { "equivalent" } else { "inequivalent" }
        )),
    }
}

/// 64-bit FNV-1a, a stable digest for outputs and counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separates fields so ("ab", "c") and ("a", "bc") differ.
        self.0 = self.0.rotate_left(5) ^ bytes.len() as u64;
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of what a batch emitted: every `.restored.qasm` file and the
/// manifest, by name.
///
/// # Errors
///
/// A message when the directory or a file cannot be read.
pub fn digest_outputs(out_dir: &Path) -> Result<Digest, String> {
    let read_err = |e: std::io::Error| format!("cannot read {}: {e}", out_dir.display());
    let mut names: Vec<String> = std::fs::read_dir(out_dir)
        .map_err(read_err)?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".restored.qasm") || name == MANIFEST_FILE)
        .collect();
    names.sort();
    let mut digest = Digest::new();
    for name in &names {
        digest.update(name.as_bytes());
        digest.update(&std::fs::read(out_dir.join(name)).map_err(read_err)?);
    }
    Ok(digest)
}

/// Checks `digests` against those an earlier run of the same build and
/// seed stored in `path`, then stores any not yet recorded. Returns one
/// message per digest that differs from its record.
///
/// # Errors
///
/// A message when the record cannot be written.
pub fn check_recorded(path: &Path, digests: &[(&str, Digest)]) -> Result<Vec<String>, String> {
    let mut record: BTreeMap<String, String> = std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| line.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut mismatches = Vec::new();
    for (key, digest) in digests {
        match record.get(*key) {
            Some(old) if *old != digest.hex() => mismatches.push(format!(
                "{key} digest {} differs from {old} recorded by an earlier run of this seed",
                digest.hex()
            )),
            Some(_) => {}
            None => {
                record.insert(key.to_string(), digest.hex());
            }
        }
    }
    let text: String = record.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrislock::batch::{JobFailure, JobOutcome};
    use tetrislock::job::JobVerdict;

    fn outcome(id: &str, result: Result<JobVerdict, JobFailure>) -> JobOutcome {
        JobOutcome {
            id: id.to_string(),
            steps_done: 7,
            resumed: false,
            result,
        }
    }

    fn verdict(equivalent: bool) -> Result<JobVerdict, JobFailure> {
        Ok(JobVerdict {
            equivalent,
            tier: "dense-unitary".to_string(),
        })
    }

    #[test]
    fn batch_gate_catches_a_planted_wrong_verdict_and_failures() {
        let report = BatchReport {
            outcomes: vec![
                outcome("a", verdict(true)),
                outcome("b", verdict(false)),
                outcome(
                    "c",
                    Err(JobFailure::Error("verification inconclusive".into())),
                ),
            ],
            manifest_path: "manifest.txt".into(),
        };
        let failures = batch_failures(&report, 3);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("b:"));
        assert!(failures[1].starts_with("c:"));
        assert_eq!(
            batch_failures(&report, 4).len(),
            3,
            "a missing job is a failure"
        );
    }

    #[test]
    fn classical_replay_separates_right_and_wrong_wiring() {
        let mut a = Circuit::new(3);
        a.ccx(0, 1, 2).cx(2, 0);
        let mut same = Circuit::new(3);
        same.ccx(1, 0, 2).cx(2, 0);
        let mut wrong = Circuit::new(3);
        wrong.ccx(0, 2, 1).cx(1, 0);
        assert_eq!(classical_equivalent(&a, &same), Ok(true));
        assert_eq!(classical_equivalent(&a, &wrong), Ok(false));
        let mut quantum = Circuit::new(3);
        quantum.h(0);
        assert!(classical_equivalent(&a, &quantum).is_err());
    }

    #[test]
    fn oracle_gate_catches_a_planted_wrong_answer() {
        let mut victim = Circuit::new(3);
        victim.ccx(0, 1, 2).x(0);
        let mut wrong = Circuit::new(3);
        wrong.ccx(0, 2, 1).x(0);
        let report = qverify::Verifier::new().check_report(&victim, &wrong);
        let known = classical_equivalent(&victim, &wrong).unwrap();
        assert_eq!(oracle_failure(&report, known), None);
        // Plant the wrong known answer: the gate must flag the verdict.
        assert!(oracle_failure(&report, !known).is_some());
        let inconclusive = Report {
            verdict: Verdict::Inconclusive { confidence: 0.0 },
            ..report
        };
        assert!(oracle_failure(&inconclusive, known).is_some());
    }

    #[test]
    fn recorded_digests_flag_a_changed_output() {
        let dir = std::env::temp_dir().join(format!("perfbench_gate_{}", std::process::id()));
        let path = dir.join("record.txt");
        let mut a = Digest::new();
        a.update(b"restored");
        let mut b = Digest::new();
        b.update(b"restored differently");
        assert_eq!(check_recorded(&path, &[("outputs", a)]), Ok(vec![]));
        assert_eq!(
            check_recorded(&path, &[("outputs", a), ("counts", b)]),
            Ok(vec![])
        );
        let mismatches = check_recorded(&path, &[("outputs", b), ("counts", b)]).unwrap();
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        assert!(mismatches[0].starts_with("outputs"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_separates_field_boundaries() {
        let mut x = Digest::new();
        x.update(b"ab");
        x.update(b"c");
        let mut y = Digest::new();
        y.update(b"a");
        y.update(b"bc");
        assert_ne!(x, y);
    }
}
