//! `perfdump_qverify` — machine-readable verifier perf trajectory.
//!
//! Runs the ZX scaling suite — certify (Clifford+T restore round-trips
//! at 20/30/40 qubits), stall (a corrupted restore whose atom-sum
//! residue cannot be witnessed, i.e. the price of falling through),
//! and witness (wrong-key rejection via the replay-confirmed witness:
//! bit replay at 20/30 qubits, basis-column replay at 20 qubits, and
//! the sparse basis column at 30 qubits — past the statevector
//! cap) — plus one full dispatch case, the seeded rd84 protect →
//! compile → recombine pair through `check_report` (the Table I pair
//! that sets the end-to-end time), and writes `BENCH_qverify.json` with
//! the median wall-clock and deciding tier per case, so the verifier's
//! cost trajectory is recorded on every run instead of claimed once.
//!
//! ```text
//! cargo run --release -p bench --bin perfdump_qverify            # full suite
//! cargo run --release -p bench --bin perfdump_qverify -- --smoke # CI smoke
//! cargo run --release -p bench --bin perfdump_qverify -- --out path.json
//! ```
//!
//! The smoke suite (20-qubit cases only) finishes in seconds and is
//! wired into CI so the emitter can never silently rot. All timing
//! goes through [`qobs::time_median_ms`], so the numbers landing in
//! `BENCH_qverify.json` are the same qobs samples a live trace sees.

use qcir::random::{random_reversible, RandomCircuitConfig};
use qcir::Circuit;
use qverify::{Verdict, Verifier};
use tetrislock::job::{JobConfig, JobStage, JobState};
use tetrislock::recombine::recombine;
use tetrislock::Obfuscator;

/// One timed case of the suite.
struct CaseResult {
    name: String,
    qubits: u32,
    gates: usize,
    reps: usize,
    median_ms: f64,
    outcome: &'static str,
    /// The deciding tier, as `qverify::Tier` displays it.
    tier: String,
}

/// A Clifford+T ladder (the certify workload of `benches/qverify.rs`).
fn clifford_t_ladder(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n - 1 {
        c.h(q).t(q).cx(q, q + 1);
    }
    c
}

/// Obfuscate→split→recombine round-trip pair for `c`.
fn roundtrip_pair(c: &Circuit) -> (Circuit, Circuit) {
    let obf = Obfuscator::new().with_seed(11).obfuscate(c);
    let restored = recombine(&obf.split(3)).expect("recombination is total");
    (c.clone(), restored)
}

/// The rd84 pair the job pipeline verifies: the original and its
/// restore after seeded protect → compile (ideal device) → recombine,
/// padded to one register as the verify stage pads them.
fn rd84_restore_pair() -> (Circuit, Circuit) {
    let rd84 = revlib::table1_benchmarks()
        .into_iter()
        .find(|b| b.name() == "rd84")
        .expect("rd84 is a Table I circuit");
    let config = JobConfig {
        seed: 1,
        split_seed: 2,
        ..JobConfig::default()
    };
    let mut job = JobState::new("rd84", rd84.circuit().clone(), config);
    let unused = std::env::temp_dir();
    while job.stage != JobStage::Verify {
        job.advance(&unused)
            .expect("pre-verify stages write no files");
    }
    let restored = job.restored.expect("recombine produced a circuit");
    let n = restored.num_qubits().max(job.original.num_qubits());
    let pad = |c: &Circuit| {
        let mut out = Circuit::new(n);
        out.compose(c).expect("padding cannot fail");
        out
    };
    (pad(&job.original), pad(&restored))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_qverify.json")
        .to_string();

    let verifier = Verifier::new();
    let widths: &[u32] = if smoke { &[20] } else { &[20, 30, 40] };
    let reps = if smoke { 2 } else { 5 };
    let mut cases: Vec<CaseResult> = Vec::new();

    for &n in widths {
        // certify: the round-trip miter fully reduces to the identity.
        let (orig, restored) = roundtrip_pair(&clifford_t_ladder(n));
        eprintln!("timing zx_certify_{n}q…");
        let ms = qobs::time_median_ms(&format!("perfdump.zx_certify_{n}q"), 1, reps, || {
            let report = verifier
                .check_zx(&orig, &restored)
                .expect("round-trip miter reduces");
            assert!(report.verdict.is_equivalent());
        });
        cases.push(CaseResult {
            name: format!("zx_certify_{n}q"),
            qubits: n,
            gates: orig.gate_count() + restored.gate_count(),
            reps,
            median_ms: ms,
            outcome: "equivalent",
            tier: qverify::Tier::Zx.to_string(),
        });

        // stall: a corrupted restore whose residue cannot be witnessed —
        // the ZX tier must pay the full reduction *and* decline to
        // answer. A bare T residue no longer works here (relative-phase
        // replay certifies diagonal residues), so the corruption is an
        // atom-sum identity: rz(0.2)·rz(−0.1)·rz(−0.1) is formally
        // nonzero to the exact phase algebra (distinct atoms never
        // collapse), stalling the reduction, while its numeric phase
        // (~2.8e-17 rad) sits far below every replay tolerance — so no
        // witness can confirm and the stall honestly falls through.
        let mut corrupted = Circuit::new(n);
        corrupted.rz(0.2, 0).rz(-0.1, 0).rz(-0.1, 0);
        corrupted.compose(&restored).expect("same register");
        eprintln!("timing zx_stall_{n}q…");
        let ms = qobs::time_median_ms(&format!("perfdump.zx_stall_{n}q"), 1, reps, || {
            assert!(verifier.check_zx(&orig, &corrupted).is_none());
        });
        cases.push(CaseResult {
            name: format!("zx_stall_{n}q"),
            qubits: n,
            gates: orig.gate_count() + corrupted.gate_count(),
            reps,
            median_ms: ms,
            outcome: "fall-through",
            tier: qverify::Tier::Zx.to_string(),
        });
    }

    // witness (bit replay): a wrong-key reversible pair past the
    // stimulus cap — previously Inconclusive, now rejected exactly.
    let witness_widths: &[u32] = if smoke { &[20] } else { &[20, 30] };
    for &n in witness_widths {
        let orig = random_reversible(&RandomCircuitConfig::new(n, 24, 12));
        let mut bad = orig.clone();
        bad.x(n / 2);
        eprintln!("timing zx_witness_bit_replay_{n}q…");
        let name = format!("perfdump.zx_witness_bit_replay_{n}q");
        let ms = qobs::time_median_ms(&name, 1, reps, || {
            let report = verifier.check_zx(&orig, &bad).expect("witness confirms");
            assert!(matches!(report.verdict, Verdict::Inequivalent { .. }));
        });
        cases.push(CaseResult {
            name: format!("zx_witness_bit_replay_{n}q"),
            qubits: n,
            gates: orig.gate_count() + bad.gate_count(),
            reps,
            median_ms: ms,
            outcome: "inequivalent",
            tier: qverify::Tier::Zx.to_string(),
        });
    }

    // witness (basis-column replay): a non-classical residue confirmed
    // by replaying single basis columns of the miter. Every width costs
    // one sparse column; the 30-qubit case sits past the statevector
    // cap, where nothing but the sparse column can decide it.
    let column_widths: &[u32] = if smoke { &[14] } else { &[20, 30] };
    for &n in column_widths {
        let mut orig = Circuit::new(n);
        orig.t(0).tdg(0).swap(3, 7);
        let bad = Circuit::new(n);
        let label = if n > qverify::MAX_STIMULUS_QUBITS {
            "column"
        } else {
            "basis_replay"
        };
        eprintln!("timing zx_witness_{label}_{n}q…");
        let name = format!("perfdump.zx_witness_{label}_{n}q");
        let ms = qobs::time_median_ms(&name, 1, reps, || {
            let report = verifier.check_zx(&orig, &bad).expect("witness confirms");
            assert!(matches!(report.verdict, Verdict::Inequivalent { .. }));
        });
        cases.push(CaseResult {
            name: format!("zx_witness_{label}_{n}q"),
            qubits: n,
            gates: orig.gate_count(),
            reps,
            median_ms: ms,
            outcome: "inequivalent",
            tier: qverify::Tier::Zx.to_string(),
        });
    }

    // dense: the rd84 restore pair through the full tier dispatch.
    let (orig, restored) = rd84_restore_pair();
    eprintln!("timing dense_rd84_restore…");
    let mut tier = None;
    let ms = qobs::time_median_ms("perfdump.dense_rd84_restore", 1, reps, || {
        let report = verifier.check_report(&orig, &restored);
        assert!(report.verdict.is_equivalent(), "{report}");
        tier = Some(report.tier);
    });
    cases.push(CaseResult {
        name: "dense_rd84_restore".to_string(),
        qubits: orig.num_qubits(),
        gates: orig.gate_count() + restored.gate_count(),
        reps,
        median_ms: ms,
        outcome: "equivalent",
        tier: tier.expect("timed at least once").to_string(),
    });

    let json = render_json(&cases, smoke);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("{json}");
    eprintln!("wrote {out}");
}

fn render_json(cases: &[CaseResult], smoke: bool) -> String {
    let mut body = String::new();
    for (i, case) in cases.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"qubits\": {}, \"gates\": {}, \"reps\": {}, \
             \"median_ms\": {:.4}, \"outcome\": \"{}\", \"tier\": \"{}\"}}{}\n",
            case.name,
            case.qubits,
            case.gates,
            case.reps,
            case.median_ms,
            case.outcome,
            case.tier,
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    format!(
        "{{\n  \"suite\": \"qverify_zx\",\n  \"schema_version\": 1,\n  \"smoke\": {smoke},\n  \
         \"engine\": {{\"max_mcx_controls\": {}, \"stimulus_cap_qubits\": {}, \
         \"dyadic_grid_log\": {}, \"column_cap_qubits\": {}, \
         \"column_branching_cap\": {}, \"column_support_cap\": {}}},\n  \
         \"cases\": [\n{body}  ]\n}}\n",
        qverify::MAX_MCX_CONTROLS,
        qverify::MAX_STIMULUS_QUBITS,
        qverify::DYADIC_GRID_LOG,
        qverify::MAX_COLUMN_QUBITS,
        qverify::MAX_COLUMN_BRANCHING,
        qverify::MAX_COLUMN_SUPPORT,
    )
}
