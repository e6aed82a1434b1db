//! Tier dispatch around the dense tier's sparse pass.
//!
//! For registers within `MAX_UNITARY_QUBITS` the verifier runs the dense
//! tier's sparse column pass before ZX. These tests pin both sides of
//! that order through the process-global qobs counters and trace:
//!
//! * a near-classical 12-qubit pair is decided by the dense tier and
//!   never enters ZX;
//! * a branchy 10-qubit pair makes the sparse pass hand over (a dense
//!   `verify.tier` span with `outcome=fell_through`), and ZX or the
//!   statevector pass still decides it.
//!
//! The qobs level, counters and sink are process-global, so this file
//! is its own test binary and its tests serialize on `TEST_LOCK`.

use qcir::Circuit;
use qverify::{Tier, Verifier, MAX_UNITARY_QUBITS};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    qobs::counter_snapshot()
        .into_iter()
        .find(|&(n, _)| n == name)
        .map_or(0, |(_, value)| value)
}

/// `(zx entered, dense entered, dense decided)`.
fn tier_counters() -> (u64, u64, u64) {
    (
        counter("qverify.tier.zx.entered"),
        counter("qverify.tier.dense.entered"),
        counter("qverify.tier.dense.decided"),
    )
}

/// A Toffoli ladder over `n` wires and the same ladder with every CCX
/// decomposed to H/T/CX: the shape of a compiled restore.
fn toffoli_ladder_pair(n: u32) -> (Circuit, Circuit) {
    let mut a = Circuit::new(n);
    let mut b = Circuit::new(n);
    for q in 0..n - 2 {
        let (x, y, z) = (q, q + 1, q + 2);
        a.ccx(x, y, z).cx(z, x);
        b.h(z)
            .cx(y, z)
            .tdg(z)
            .cx(x, z)
            .t(z)
            .cx(y, z)
            .tdg(z)
            .cx(x, z);
        b.t(y).t(z).h(z).cx(x, y).t(x).tdg(y).cx(x, y).cx(z, x);
    }
    (a, b)
}

#[test]
fn near_classical_twelve_qubit_pair_is_decided_by_dense_without_zx() {
    let _guard = lock();
    qobs::set_level(qobs::Level::Counters);
    let n = MAX_UNITARY_QUBITS;
    assert_eq!(n, 12);
    let (a, b) = toffoli_ladder_pair(n);
    let mut wrong = b.clone();
    wrong.x(7);
    let verifier = Verifier::new();
    for (candidate, equivalent) in [(&b, true), (&wrong, false)] {
        let (zx, dense, decided) = tier_counters();
        let report = verifier.check_report(&a, candidate);
        assert_eq!(report.tier, Tier::Dense, "{report}");
        assert_eq!(report.verdict.is_equivalent(), equivalent, "{report}");
        assert_eq!(
            tier_counters(),
            (zx, dense + 1, decided + 1),
            "one dense attempt decided, ZX never entered"
        );
    }
}

#[test]
fn branchy_ten_qubit_pair_hands_over_and_is_still_decided() {
    let _guard = lock();
    qobs::set_level(qobs::Level::Full);
    let sink = qobs::set_trace_memory();
    qobs::run_meta(&[]);
    // An H on every wire spreads column 0 over all 1024 basis states,
    // past the sparse pass's half-register budget.
    let n = 10u32;
    let mut a = Circuit::new(n);
    for q in 0..n {
        a.h(q).rz(0.37 * f64::from(q + 1), q);
    }
    for q in 0..n - 1 {
        a.cx(q, q + 1);
    }
    let mut b = a.clone();
    b.s(3).sdg(3);
    let (zx, dense, decided) = tier_counters();
    let report = Verifier::new().check_report(&a, &b);
    let (zx_after, dense_after, decided_after) = tier_counters();
    qobs::flush();
    let text = sink.contents();
    qobs::clear_trace();

    assert!(matches!(report.tier, Tier::Zx | Tier::Dense), "{report}");
    assert!(report.verdict.is_equivalent(), "{report}");
    assert_eq!(zx_after, zx + 1, "ZX runs after the hand-over");
    assert_eq!(
        (dense_after - dense) - (decided_after - decided),
        1,
        "exactly one dense attempt (the sparse pass) fell through"
    );
    let handed_over = text.lines().any(|line| {
        line.contains("\"name\":\"verify.tier\"")
            && line.contains("\"tier\":\"dense\"")
            && line.contains("\"outcome\":\"fell_through\"")
    });
    assert!(handed_over, "no fell_through dense span in:\n{text}");
}
