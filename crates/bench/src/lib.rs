//! # bench — the TetrisLock experiment harness
//!
//! Shared experiment drivers behind the table/figure regeneration
//! binaries:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table I (overhead + accuracy, 20-iteration averages) |
//! | `fig4` | Figure 4 (TVD of obfuscated vs restored circuits) |
//! | `attack_complexity` | §IV-C / Eq. 1 comparison vs Saki et al. |
//! | `baselines` | §II-C qualitative comparison vs prior schemes |
//!
//! Run with `--release`; the 12-qubit noisy runs are slow in debug mode.

use qmetrics::stats::{percent_change, summarize, Summary};
use qmetrics::{accuracy, tvd_vs_ideal};
use qsim::{Device, Sampler};
use revlib::Benchmark;
use tetrislock::recombine::recombine;
use tetrislock::{InsertionConfig, Obfuscator};

/// Shots per simulation, matching the paper ("all simulations were
/// performed with 1,000 shots").
pub const SHOTS: u64 = 1000;

/// Iterations per data point, matching Table I ("averages of 20
/// iterations").
pub const ITERATIONS: u64 = 20;

/// Picks the noisy device hosting a benchmark: the 5-qubit FakeValencia
/// model when it fits, otherwise the widened FakeValencia-style device
/// (see DESIGN.md §2 on this substitution).
pub fn device_for(num_qubits: u32) -> Device {
    if num_qubits <= 5 {
        Device::fake_valencia()
    } else {
        Device::fake_valencia_extended(num_qubits)
    }
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Original circuit depth.
    pub depth: usize,
    /// Mean obfuscated depth (paper: identical to `depth`).
    pub depth_obfuscated: f64,
    /// Original gate count.
    pub gates: usize,
    /// Mean obfuscated gate count.
    pub gates_obfuscated: f64,
    /// Mean gate-count change in percent.
    pub gate_change_percent: f64,
    /// Mean total inserted-gate count, both halves (the paper's "1–4
    /// gates").
    pub inserted: f64,
    /// Mean accuracy of the original circuit under device noise.
    pub accuracy: f64,
    /// Mean accuracy of the recombined (restored) circuit.
    pub accuracy_restored: f64,
    /// Accuracy change in percent (paper reports the absolute drop).
    pub accuracy_change_percent: f64,
}

/// Runs the Table I experiment for one benchmark.
///
/// Per iteration: obfuscate with a fresh seed (gate limit 4, X/CX
/// policy), split with an interlocking pattern, recombine, and measure
/// original vs restored accuracy under the device noise model.
///
/// # Panics
///
/// Panics if simulation fails (register too large for the simulator).
pub fn table1_row(bench: &Benchmark, iterations: u64, shots: u64) -> TableRow {
    let circuit = bench.circuit();
    let device = device_for(circuit.num_qubits());
    let expected = bench.expected_output();

    let mut depth_obf = Vec::new();
    let mut gates_obf = Vec::new();
    let mut inserted = Vec::new();
    let mut acc_orig = Vec::new();
    let mut acc_restored = Vec::new();

    for iter in 0..iterations {
        let obf = Obfuscator::new()
            .with_config(InsertionConfig {
                seed: iter,
                ..Default::default()
            })
            .obfuscate(circuit);
        depth_obf.push(obf.obfuscated().depth() as f64);
        gates_obf.push(obf.obfuscated().gate_count() as f64);
        inserted.push(obf.insertion().gate_overhead() as f64);

        let split = obf.split(iter.wrapping_mul(0x9E37_79B9).wrapping_add(17));
        let restored = recombine(&split).expect("recombination is total");

        let sampler = Sampler::new(shots).with_seed(1000 + iter);
        let counts = sampler
            .run_noisy(circuit, device.noise())
            .expect("simulation fits");
        acc_orig.push(accuracy(&counts, expected));

        let sampler = Sampler::new(shots).with_seed(2000 + iter);
        let counts = sampler
            .run_noisy(&restored, device.noise())
            .expect("simulation fits");
        acc_restored.push(accuracy(&counts, expected));
    }

    let accuracy_mean = summarize(&acc_orig).mean;
    let restored_mean = summarize(&acc_restored).mean;
    TableRow {
        name: bench.name().to_string(),
        depth: circuit.depth(),
        depth_obfuscated: summarize(&depth_obf).mean,
        gates: circuit.gate_count(),
        gates_obfuscated: summarize(&gates_obf).mean,
        gate_change_percent: percent_change(
            circuit.gate_count() as f64,
            summarize(&gates_obf).mean,
        ),
        inserted: summarize(&inserted).mean,
        accuracy: accuracy_mean,
        accuracy_restored: restored_mean,
        accuracy_change_percent: percent_change(accuracy_mean, restored_mean).abs(),
    }
}

/// One benchmark's Figure 4 data: TVD samples for the obfuscated
/// (masked `RC`) and restored (`R⁻¹RC` recombined) circuits.
#[derive(Debug, Clone)]
pub struct TvdPoint {
    /// Benchmark name.
    pub name: String,
    /// TVD of the masked circuit vs the theoretical output, per iteration.
    pub obfuscated: Vec<f64>,
    /// TVD of the restored circuit vs the theoretical output.
    pub restored: Vec<f64>,
}

impl TvdPoint {
    /// Summary of the obfuscated-circuit TVDs.
    pub fn obfuscated_summary(&self) -> Summary {
        summarize(&self.obfuscated)
    }

    /// Summary of the restored-circuit TVDs.
    pub fn restored_summary(&self) -> Summary {
        summarize(&self.restored)
    }
}

/// Runs the Figure 4 experiment for one benchmark.
///
/// # Panics
///
/// Panics if simulation fails.
pub fn fig4_point(bench: &Benchmark, iterations: u64, shots: u64) -> TvdPoint {
    let circuit = bench.circuit();
    let device = device_for(circuit.num_qubits());
    let expected = bench.expected_output();

    let mut obfuscated = Vec::new();
    let mut restored = Vec::new();
    for iter in 0..iterations {
        let obf = Obfuscator::new()
            .with_config(InsertionConfig {
                seed: 7000 + iter,
                ..Default::default()
            })
            .obfuscate(circuit);

        // "Obfuscated" in Fig. 4 = what runs without the R⁻¹ key.
        let masked = obf.masked_circuit();
        let counts = Sampler::new(shots)
            .with_seed(3000 + iter)
            .run_noisy(&masked, device.noise())
            .expect("simulation fits");
        obfuscated.push(tvd_vs_ideal(&counts, expected));

        let split = obf.split(4000 + iter);
        let rejoined = recombine(&split).expect("recombination is total");
        let counts = Sampler::new(shots)
            .with_seed(5000 + iter)
            .run_noisy(&rejoined, device.noise())
            .expect("simulation fits");
        restored.push(tvd_vs_ideal(&counts, expected));
    }
    TvdPoint {
        name: bench.name().to_string(),
        obfuscated,
        restored,
    }
}

/// Renders a `0..=1` value as a fixed-width ASCII bar.
pub fn bar(value: f64, width: usize) -> String {
    let filled = (value.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "█".repeat(filled), "░".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_selection_by_size() {
        assert_eq!(device_for(4).name(), "fake_valencia");
        assert_eq!(device_for(5).name(), "fake_valencia");
        assert!(device_for(7).name().contains("ext7"));
        assert!(device_for(12).name().contains("ext12"));
    }

    #[test]
    fn table1_row_smoke() {
        let bench = revlib::adder_1bit();
        let row = table1_row(&bench, 3, 200);
        assert_eq!(row.depth, 5);
        // Depth must be preserved exactly in every iteration.
        assert!((row.depth_obfuscated - row.depth as f64).abs() < 1e-12);
        assert!(row.accuracy > 0.5);
        assert!(row.accuracy_restored > 0.5);
        assert!(row.gates_obfuscated >= row.gates as f64);
    }

    #[test]
    fn fig4_point_smoke() {
        let bench = revlib::mini_alu();
        let point = fig4_point(&bench, 3, 200);
        assert_eq!(point.obfuscated.len(), 3);
        // Restored TVD must be small (noise only).
        assert!(point.restored_summary().mean < 0.3);
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(0.0, 4), "░░░░");
        assert_eq!(bar(1.0, 4), "████");
        assert_eq!(bar(0.5, 4), "██░░");
    }
}

/// A seeded Clifford+T circuit over {H, S, T, X, CX, CZ} at the
/// canonical per-width seed `0xC0DE + n` — the shared workload
/// generator for the `perfdump` scaling suite and the Criterion
/// `statevector_scaling` / `statevector_fusion` groups, so the two
/// tools time identical circuits.
pub fn clifford_t_circuit(n: u32, gates: usize) -> qcir::Circuit {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC0DE + n as u64);
    let mut c = qcir::Circuit::with_name(n, format!("clifford_t_{n}q"));
    for _ in 0..gates {
        match rng.gen_range(0..6u8) {
            0 => c.h(rng.gen_range(0..n)),
            1 => c.s(rng.gen_range(0..n)),
            2 => c.t(rng.gen_range(0..n)),
            3 => c.x(rng.gen_range(0..n)),
            4 => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                c.cx(a, b)
            }
            _ => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                c.cz(a, b)
            }
        };
    }
    c
}

/// The pre-kernel-engine statevector loops, reproduced verbatim as the
/// recorded performance baseline.
///
/// `qsim` keeps an identical copy behind `#[cfg(test)]` as the
/// *correctness* reference for its kernel-equivalence suite; this copy
/// exists so the `perfdump` binary and the Criterion comparison groups
/// can measure the stride/fused/threaded engine against the exact
/// pre-optimisation code on every run, keeping the speedup claim in
/// `BENCH_qsim.json` honest rather than historical.
pub mod naive {
    use qcir::{Circuit, Gate, Instruction, Qubit};
    use qsim::complex::C64;
    use qsim::matrix::{gate_matrix, Matrix};

    /// Runs `circuit` on `|0…0⟩` with the naive full-scan kernels and
    /// returns the final amplitudes.
    pub fn from_circuit(circuit: &Circuit) -> Vec<C64> {
        let mut amps = vec![C64::ZERO; 1usize << circuit.num_qubits()];
        amps[0] = C64::ONE;
        for inst in circuit.iter() {
            apply(&mut amps, inst);
        }
        amps
    }

    /// The original (pre-engine) `Statevector::apply` dispatch.
    pub fn apply(amps: &mut [C64], inst: &Instruction) {
        match inst.gate() {
            Gate::I => {}
            Gate::X => apply_x(amps, inst.qubits()[0]),
            Gate::CX => apply_cx(amps, inst.qubits()[0], inst.qubits()[1]),
            Gate::CCX => {
                let q = inst.qubits();
                apply_mcx(amps, &[q[0], q[1]], q[2]);
            }
            Gate::Mcx(_) => {
                let q = inst.qubits();
                let (controls, target) = q.split_at(q.len() - 1);
                apply_mcx(amps, controls, target[0]);
            }
            Gate::Swap => apply_swap(amps, inst.qubits()[0], inst.qubits()[1]),
            gate if gate.arity() == 1 => {
                apply_1q(amps, &gate_matrix(gate), inst.qubits()[0]);
            }
            gate => {
                apply_kq(amps, &gate_matrix(gate), inst.qubits());
            }
        }
    }

    fn apply_x(amps: &mut [C64], q: Qubit) {
        let bit = 1usize << q.index();
        for i in 0..amps.len() {
            if i & bit == 0 {
                amps.swap(i, i | bit);
            }
        }
    }

    fn apply_cx(amps: &mut [C64], control: Qubit, target: Qubit) {
        let cbit = 1usize << control.index();
        let tbit = 1usize << target.index();
        for i in 0..amps.len() {
            if i & cbit != 0 && i & tbit == 0 {
                amps.swap(i, i | tbit);
            }
        }
    }

    fn apply_mcx(amps: &mut [C64], controls: &[Qubit], target: Qubit) {
        let cmask: usize = controls.iter().map(|q| 1usize << q.index()).sum();
        let tbit = 1usize << target.index();
        for i in 0..amps.len() {
            if i & cmask == cmask && i & tbit == 0 {
                amps.swap(i, i | tbit);
            }
        }
    }

    fn apply_swap(amps: &mut [C64], a: Qubit, b: Qubit) {
        let abit = 1usize << a.index();
        let bbit = 1usize << b.index();
        for i in 0..amps.len() {
            if i & abit != 0 && i & bbit == 0 {
                amps.swap(i, (i & !abit) | bbit);
            }
        }
    }

    fn apply_1q(amps: &mut [C64], m: &Matrix, q: Qubit) {
        let bit = 1usize << q.index();
        let (m00, m01, m10, m11) = (m.get(0, 0), m.get(0, 1), m.get(1, 0), m.get(1, 1));
        for i in 0..amps.len() {
            if i & bit == 0 {
                let a0 = amps[i];
                let a1 = amps[i | bit];
                amps[i] = m00 * a0 + m01 * a1;
                amps[i | bit] = m10 * a0 + m11 * a1;
            }
        }
    }

    fn apply_kq(amps: &mut [C64], m: &Matrix, qubits: &[Qubit]) {
        let k = qubits.len();
        let dim = 1usize << k;
        let bits: Vec<usize> = qubits.iter().map(|q| 1usize << q.index()).collect();
        let mask: usize = bits.iter().sum();
        let mut gathered = vec![C64::ZERO; dim];
        for base in 0..amps.len() {
            if base & mask != 0 {
                continue;
            }
            for (pattern, slot) in gathered.iter_mut().enumerate() {
                let mut idx = base;
                for (bit_pos, bit) in bits.iter().enumerate() {
                    if pattern & (1 << bit_pos) != 0 {
                        idx |= bit;
                    }
                }
                *slot = amps[idx];
            }
            for row in 0..dim {
                let mut acc = C64::ZERO;
                for (col, &g) in gathered.iter().enumerate() {
                    acc += m.get(row, col) * g;
                }
                let mut idx = base;
                for (bit_pos, bit) in bits.iter().enumerate() {
                    if row & (1 << bit_pos) != 0 {
                        idx |= bit;
                    }
                }
                amps[idx] = acc;
            }
        }
    }
}

/// Structural validation for `BENCH_qsim.json`.
///
/// The workspace vendors no JSON parser, so these checks are
/// line-oriented over the `perfdump` emitter's fixed layout: a header
/// field set plus one case object per line. The binary validates its
/// own output before writing it, and CI's smoke run revalidates the
/// freshly emitted file, so schema drift between the emitter and the
/// perf-history consumers fails loudly instead of rotting silently.
pub mod schema {
    /// Keys every case object must carry.
    const CASE_KEYS: [&str; 8] = [
        "name",
        "qubits",
        "gates",
        "reps",
        "fused_ms",
        "unfused_ms",
        "naive_ms",
        "speedup_vs_naive",
    ];

    /// Checks that `json` has the `BENCH_qsim.json` schema-version-1
    /// shape: the suite/header fields, an `engine` block whose
    /// `detected_workers` is at least 1 and whose `kernel_path` is
    /// `"avx2"` or `"scalar"`, and a non-empty case list in which every
    /// case carries all eight per-case keys and a numeric `fused_ms`.
    ///
    /// # Example
    ///
    /// ```
    /// use bench::schema::validate_qsim_bench_json;
    ///
    /// let doc = concat!(
    ///     "{\n  \"suite\": \"qsim_statevector\",\n  \"schema_version\": 1,\n",
    ///     "  \"smoke\": true,\n",
    ///     "  \"engine\": {\"max_qubits\": 28, \"parallel_min_qubits\": 18, ",
    ///     "\"detected_workers\": 4, \"kernel_path\": \"avx2\"},\n  \"cases\": [\n",
    ///     "    {\"name\": \"rd53\", \"qubits\": 7, \"gates\": 12, \"reps\": 3, ",
    ///     "\"fused_ms\": 0.5, \"unfused_ms\": 0.6, \"naive_ms\": 1.0, ",
    ///     "\"speedup_vs_naive\": 2.00}\n  ]\n}\n",
    /// );
    /// assert!(validate_qsim_bench_json(doc).is_ok());
    /// assert!(validate_qsim_bench_json("{}").is_err());
    /// ```
    pub fn validate_qsim_bench_json(json: &str) -> Result<(), String> {
        require(json, "\"suite\": \"qsim_statevector\"")?;
        require(json, "\"schema_version\": 1")?;
        if !json.contains("\"smoke\": true") && !json.contains("\"smoke\": false") {
            return Err("missing boolean \"smoke\" field".into());
        }
        let max_qubits = uint_field(json, "max_qubits")?;
        let parallel_min = uint_field(json, "parallel_min_qubits")?;
        let workers = uint_field(json, "detected_workers")?;
        if workers == 0 {
            return Err("\"detected_workers\" must be at least 1".into());
        }
        if !json.contains("\"kernel_path\": \"avx2\"")
            && !json.contains("\"kernel_path\": \"scalar\"")
        {
            return Err("\"kernel_path\" must be \"avx2\" or \"scalar\"".into());
        }
        if parallel_min > max_qubits {
            return Err(format!(
                "\"parallel_min_qubits\" ({parallel_min}) exceeds \"max_qubits\" ({max_qubits})"
            ));
        }
        require(json, "\"cases\": [")?;
        let cases: Vec<&str> = json
            .lines()
            .filter(|line| line.contains("\"name\":"))
            .collect();
        if cases.is_empty() {
            return Err("\"cases\" holds no case objects".into());
        }
        for line in &cases {
            for key in CASE_KEYS {
                if !line.contains(&format!("\"{key}\":")) {
                    return Err(format!("case object missing \"{key}\": {}", line.trim()));
                }
            }
            if line.contains("\"fused_ms\": null") {
                return Err(format!("case has null \"fused_ms\": {}", line.trim()));
            }
        }
        Ok(())
    }

    fn require(json: &str, needle: &str) -> Result<(), String> {
        if json.contains(needle) {
            Ok(())
        } else {
            Err(format!("missing required fragment `{needle}`"))
        }
    }

    /// Parses the unsigned integer following `"key": `.
    fn uint_field(json: &str, key: &str) -> Result<u64, String> {
        let marker = format!("\"{key}\": ");
        let start = json
            .find(&marker)
            .ok_or_else(|| format!("missing \"{key}\" field"))?
            + marker.len();
        let digits: String = json[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits
            .parse()
            .map_err(|_| format!("\"{key}\" is not an unsigned integer"))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn valid_doc() -> String {
            concat!(
                "{\n  \"suite\": \"qsim_statevector\",\n  \"schema_version\": 1,\n",
                "  \"smoke\": false,\n",
                "  \"engine\": {\"max_qubits\": 28, \"parallel_min_qubits\": 18, ",
                "\"detected_workers\": 4, \"kernel_path\": \"avx2\"},\n  \"cases\": [\n",
                "    {\"name\": \"rd53\", \"qubits\": 7, \"gates\": 12, \"reps\": 3, ",
                "\"fused_ms\": 0.5, \"unfused_ms\": 0.6, \"naive_ms\": 1.0, ",
                "\"speedup_vs_naive\": 2.00},\n",
                "    {\"name\": \"stimulus_20q_2trials\", \"qubits\": 20, \"gates\": 40, ",
                "\"reps\": 3, \"fused_ms\": 9.1, \"unfused_ms\": null, \"naive_ms\": null, ",
                "\"speedup_vs_naive\": null}\n  ]\n}\n",
            )
            .to_string()
        }

        #[test]
        fn accepts_the_emitters_layout() {
            validate_qsim_bench_json(&valid_doc()).expect("valid document");
        }

        #[test]
        fn rejects_missing_case_key() {
            let doc = valid_doc().replace("\"reps\": 3, ", "");
            let err = validate_qsim_bench_json(&doc).unwrap_err();
            assert!(err.contains("reps"), "got: {err}");
        }

        #[test]
        fn rejects_zero_workers_and_empty_cases() {
            let doc = valid_doc().replace("\"detected_workers\": 4", "\"detected_workers\": 0");
            assert!(validate_qsim_bench_json(&doc)
                .unwrap_err()
                .contains("detected_workers"));

            let doc = valid_doc()
                .lines()
                .filter(|l| !l.contains("\"name\":"))
                .collect::<Vec<_>>()
                .join("\n");
            assert!(validate_qsim_bench_json(&doc)
                .unwrap_err()
                .contains("no case objects"));
        }

        #[test]
        fn kernel_path_must_name_a_path() {
            let scalar = valid_doc().replace("\"avx2\"", "\"scalar\"");
            validate_qsim_bench_json(&scalar).expect("the scalar path is valid");
            let unknown = valid_doc().replace("\"avx2\"", "\"neon\"");
            assert!(validate_qsim_bench_json(&unknown)
                .unwrap_err()
                .contains("kernel_path"));
            let missing = valid_doc().replace(", \"kernel_path\": \"avx2\"", "");
            assert!(validate_qsim_bench_json(&missing)
                .unwrap_err()
                .contains("kernel_path"));
        }

        #[test]
        fn rejects_null_fused_ms_and_wrong_suite() {
            let doc = valid_doc().replace("\"fused_ms\": 0.5", "\"fused_ms\": null");
            assert!(validate_qsim_bench_json(&doc)
                .unwrap_err()
                .contains("fused_ms"));
            let doc = valid_doc().replace("qsim_statevector", "qsim_other");
            assert!(validate_qsim_bench_json(&doc).is_err());
        }
    }
}
