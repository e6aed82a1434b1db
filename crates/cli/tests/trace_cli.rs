//! End-to-end `--trace` / `report` checks against the real binary.
//!
//! These drive the CLI as a subprocess rather than calling `run()`
//! in-process: the qobs sink and level are process-global, so an
//! in-process test would race with the unit-test suite's parallel
//! threads and pollute their (sink-free) runs.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tetrislock"));
    // Isolate from the ambient environment: `--trace` should imply full
    // tracing unless a test sets QOBS explicitly.
    cmd.env_remove("QOBS");
    cmd
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tlk_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn write(name: &str, body: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, body).unwrap();
    path
}

const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n";

#[test]
fn verify_trace_roundtrip_and_report() {
    let a = write("rt_a.qasm", &format!("{HEADER}h q[0];\ncx q[0],q[1];\n"));
    let trace = tmp("rt_equal.jsonl");

    let out = bin()
        .args([
            "verify",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let summary = qobs::schema::validate_trace(&text)
        .unwrap_or_else(|e| panic!("invalid trace: {e}\n{text}"));
    assert!(
        summary.spans >= 3,
        "cli.verify + verify.check + verify.tier"
    );
    for needle in [
        "\"command\":\"verify\"",
        "\"qsim_workers\"",
        "\"qsim_workers_env\"",
        "\"name\":\"cli.verify\"",
        "\"name\":\"verify.check\"",
        "\"name\":\"verify.tier\"",
        "\"outcome\":\"decided\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    let rep = bin()
        .args(["report", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(rep.status.success());
    let rendered = String::from_utf8_lossy(&rep.stdout);
    assert!(rendered.contains("verify.tier"), "{rendered}");
    assert!(rendered.contains("<- decided"), "{rendered}");
}

#[test]
fn dense_tier_trace_records_kernel_class_counts() {
    // A branchy pair that reaches the statevector kernels: an H on
    // every wire fills column 0, so the dense tier's sparse pass hands
    // over; the 8-control mcx (past the ZX translation bound) keeps the
    // miter from ever becoming a ZX diagram; the t/tdg garnish makes
    // the pair non-classical, non-Clifford and inequivalent. So the
    // statevector pass decides, driving the qsim kernels. (Without the
    // H layer the sparse pass would decide the pair before ZX.)
    let wide = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[9];\n";
    let spread: String = (0..9).map(|q| format!("h q[{q}];\n")).collect();
    let mcx = "mcx8 q[0],q[1],q[2],q[3],q[4],q[5],q[6],q[7],q[8];\n";
    let a = write("dt_t.qasm", &format!("{wide}{spread}{mcx}t q[8];\n"));
    let b = write("dt_tdg.qasm", &format!("{wide}{spread}{mcx}tdg q[8];\n"));
    let trace = tmp("dt_dense.jsonl");

    let out = bin()
        .args([
            "verify",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "t vs tdg must be inequivalent");

    let text = std::fs::read_to_string(&trace).unwrap();
    qobs::schema::validate_trace(&text).unwrap_or_else(|e| panic!("invalid trace: {e}\n{text}"));
    assert!(text.contains("\"tier\":\"dense\""), "{text}");
    assert!(text.contains("\"outcome\":\"fell_through\""), "{text}");
    assert!(text.contains("qsim.kernel."), "{text}");
    assert!(text.contains("\"name\":\"cli.error\""), "{text}");
}

#[test]
fn qobs_env_overrides_trace_level() {
    let a = write("lv_a.qasm", &format!("{HEADER}h q[0];\n"));
    let trace = tmp("lv_counters.jsonl");

    let out = bin()
        .env("QOBS", "counters")
        .args([
            "verify",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let text = std::fs::read_to_string(&trace).unwrap();
    qobs::schema::validate_trace(&text).unwrap_or_else(|e| panic!("invalid trace: {e}\n{text}"));
    assert!(!text.contains("\"type\":\"span\""), "{text}");
    assert!(text.contains("\"type\":\"counter\""), "{text}");
}

#[test]
fn report_rejects_malformed_trace() {
    let bad = write("bad.jsonl", "not json\n");
    let out = bin()
        .args(["report", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid trace"), "{err}");
}
