//! `perfdump` — machine-readable statevector/stimulus perf trajectory.
//!
//! Runs a fixed scaling suite — the rd53/rd84 RevLib benchmarks plus
//! random Clifford+T circuits at 16/20/24/28 qubits and one 20-qubit
//! stimulus-tier equivalence check — and writes `BENCH_qsim.json` with
//! the median wall-clock per case. Each statevector case is timed three
//! ways: the default engine (fusion + stride kernels + threading), the
//! unfused engine, and the pre-engine naive full-scan loops
//! ([`bench::naive`]), so the perf history records the speedup on every
//! run instead of claiming it once.
//!
//! ```text
//! cargo run --release -p bench --bin perfdump            # full suite
//! cargo run --release -p bench --bin perfdump -- --smoke # CI smoke
//! cargo run --release -p bench --bin perfdump -- --out path.json
//! ```
//!
//! All timing goes through [`qobs::time_median_ms`] (one untimed
//! warmup, then `reps` recorded samples): the numbers landing in
//! `BENCH_qsim.json` are the same qobs samples a live trace sees, so
//! the two can never disagree.
//!
//! The smoke suite (rd53, rd84, 16q) finishes in seconds and is wired
//! into CI so the emitter can never silently rot. Before writing, the
//! binary validates its own output against
//! [`bench::schema::validate_qsim_bench_json`], so a schema drift
//! fails the smoke run instead of producing a file the perf-history
//! consumers can no longer read. `detected_workers` reports the
//! engine's resolved worker count ([`qsim::resolved_workers`]) —
//! `QSIM_WORKERS` override, detected parallelism, `MAX_WORKERS`
//! clamp — not the raw hardware parallelism. `kernel_path` records
//! which arithmetic path the kernels took on this CPU
//! ([`qsim::kernel_path`]: `"avx2"` or `"scalar"`), since the same
//! build runs 2–3× apart on the two.

use qcir::random::RandomCircuitConfig;
use qsim::statevector::{ExecConfig, Statevector, MAX_QUBITS, PARALLEL_MIN_QUBITS};
use qverify::Verifier;
use revlib::{rd53, rd84};

/// One timed case of the suite.
struct CaseResult {
    name: String,
    qubits: u32,
    gates: usize,
    reps: usize,
    fused_ms: f64,
    unfused_ms: Option<f64>,
    naive_ms: Option<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_qsim.json")
        .to_string();

    let mut cases: Vec<CaseResult> = Vec::new();
    let mut suite: Vec<(String, qcir::Circuit, usize)> = vec![
        (
            "rd53".into(),
            rd53().circuit().clone(),
            if smoke { 3 } else { 9 },
        ),
        (
            "rd84".into(),
            rd84().circuit().clone(),
            if smoke { 3 } else { 9 },
        ),
        (
            "clifford_t_16q".into(),
            bench::clifford_t_circuit(16, 200),
            if smoke { 2 } else { 5 },
        ),
    ];
    if !smoke {
        suite.push((
            "clifford_t_20q".into(),
            bench::clifford_t_circuit(20, 160),
            3,
        ));
        suite.push((
            "clifford_t_24q".into(),
            bench::clifford_t_circuit(24, 60),
            2,
        ));
        suite.push((
            format!("clifford_t_{MAX_QUBITS}q"),
            bench::clifford_t_circuit(MAX_QUBITS, 40),
            1,
        ));
    }

    for (name, circuit, reps) in &suite {
        let (name, reps) = (name.clone(), *reps);
        eprintln!(
            "timing {name} ({}q, {} gates)…",
            circuit.num_qubits(),
            circuit.gate_count()
        );
        // The single warmup rep matters even for single-rep cases: the
        // first multi-GiB statevector allocation of the process pays
        // tens of seconds of page faulting that would otherwise be
        // billed to whichever engine happens to run first.
        let fused_ms = qobs::time_median_ms(&format!("perfdump.{name}.fused"), 1, reps, || {
            let mut sv = Statevector::zero(circuit.num_qubits()).expect("within cap");
            sv.apply_circuit_with(circuit, &ExecConfig::default())
                .expect("fits");
            std::hint::black_box(sv.probability(0));
        });
        let unfused_ms = qobs::time_median_ms(&format!("perfdump.{name}.unfused"), 1, reps, || {
            let mut sv = Statevector::zero(circuit.num_qubits()).expect("within cap");
            sv.apply_circuit_with(circuit, &ExecConfig::unfused())
                .expect("fits");
            std::hint::black_box(sv.probability(0));
        });
        // The naive baseline is O(2ⁿ) per gate with a branch per
        // amplitude; one rep suffices past 16 qubits, and at the cap it
        // would take minutes for a number we already record at 24q.
        let naive_ms = (circuit.num_qubits() <= 24).then(|| {
            let naive_reps = if circuit.num_qubits() <= 16 { reps } else { 1 };
            qobs::time_median_ms(&format!("perfdump.{name}.naive"), 1, naive_reps, || {
                std::hint::black_box(bench::naive::from_circuit(circuit));
            })
        });
        cases.push(CaseResult {
            name,
            qubits: circuit.num_qubits(),
            gates: circuit.gate_count(),
            reps,
            fused_ms,
            unfused_ms: Some(unfused_ms),
            naive_ms,
        });
    }

    if !smoke {
        // One stimulus-tier check: the qverify workload that inherits
        // the statevector engine (miter replay on random product
        // states).
        let circuit = qcir::random::random_reversible(&RandomCircuitConfig::new(20, 40, 7));
        eprintln!("timing stimulus_20q…");
        let verifier = Verifier::new().with_trials(2).with_threads(1).with_seed(5);
        let fused_ms = qobs::time_median_ms("perfdump.stimulus_20q_2trials", 1, 3, || {
            let report = verifier
                .check_stimulus(&circuit, &circuit.clone())
                .expect("within stimulus cap");
            assert!(report.verdict.is_equivalent());
        });
        cases.push(CaseResult {
            name: "stimulus_20q_2trials".into(),
            qubits: 20,
            gates: circuit.gate_count(),
            reps: 3,
            fused_ms,
            unfused_ms: None,
            naive_ms: None,
        });
    }

    let json = render_json(&cases, smoke);
    bench::schema::validate_qsim_bench_json(&json)
        .unwrap_or_else(|e| panic!("perfdump emitted a document violating its own schema: {e}"));
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("{json}");
    eprintln!("wrote {out}");
}

fn render_json(cases: &[CaseResult], smoke: bool) -> String {
    let opt = |v: Option<f64>| match v {
        Some(ms) => format!("{ms:.4}"),
        None => "null".to_string(),
    };
    let mut body = String::new();
    for (i, case) in cases.iter().enumerate() {
        let speedup = match case.naive_ms {
            Some(naive) if case.fused_ms > 0.0 => format!("{:.2}", naive / case.fused_ms),
            _ => "null".to_string(),
        };
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"qubits\": {}, \"gates\": {}, \"reps\": {}, \
             \"fused_ms\": {:.4}, \"unfused_ms\": {}, \"naive_ms\": {}, \
             \"speedup_vs_naive\": {}}}{}\n",
            case.name,
            case.qubits,
            case.gates,
            case.reps,
            case.fused_ms,
            opt(case.unfused_ms),
            opt(case.naive_ms),
            speedup,
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    format!(
        "{{\n  \"suite\": \"qsim_statevector\",\n  \"schema_version\": 1,\n  \
         \"smoke\": {smoke},\n  \"engine\": {{\"max_qubits\": {}, \
         \"parallel_min_qubits\": {}, \"detected_workers\": {}, \"kernel_path\": \"{}\"}},\n  \
         \"cases\": [\n{body}  ]\n}}\n",
        MAX_QUBITS,
        PARALLEL_MIN_QUBITS,
        // The engine's own resolution (QSIM_WORKERS override, detected
        // parallelism, MAX_WORKERS clamp) — the count the kernels
        // actually use, not the raw hardware report.
        qsim::resolved_workers(),
        qsim::kernel_path(),
    )
}
