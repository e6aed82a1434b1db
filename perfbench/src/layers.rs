//! The traced-run driver's measurements: spans the benchmark records
//! around each public call it makes into the program, the qobs counter
//! and histogram deltas taken around the same calls, and their fold
//! into the per-layer metrics named in `BENCHMARK.json`.

use crate::gate::Digest;
use crate::Metric;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use tetrislock::job::{JobStage, JobState};

/// Verifier tiers, by the names their qobs counters use.
const TIERS: [&str; 5] = ["classical", "tableau", "zx", "dense", "stimulus"];

/// qsim kernel classes with a dispatch counter.
const KERNELS: [&str; 8] = [
    "anti1", "diag1", "mat1", "mat2q", "matkq", "mcx", "phase", "swap",
];

/// Per-layer counts read straight from a program counter:
/// (metric name, qobs counter name).
const COUNTERS: [(&str, &str); 13] = [
    ("qverify.zx.meter_exhausted", "qverify.zx.meter_exhausted"),
    (
        "qverify.zx.witness.candidates",
        "qverify.zx.witness.candidates",
    ),
    (
        "qverify.zx.witness.basis_replays",
        "qverify.zx.witness.basis_replays",
    ),
    (
        "qverify.zx.witness.phase_replays",
        "qverify.zx.witness.phase_replays",
    ),
    ("qsim.full_passes", "qsim.exec.full_passes"),
    ("qsim.layer_sweeps", "qsim.exec.layer_sweeps"),
    ("qsim.apply_calls", "qsim.apply_circuit.calls"),
    ("qsim.fusion.accepted", "qsim.fusion.accepted"),
    ("qsim.fusion.rejected", "qsim.fusion.rejected"),
    ("qsim.column.ops", "qsim.column.ops"),
    ("qsim.column.spills", "qsim.column.spills"),
    ("qsim.pool.tasks_on_worker", "qsim.pool.tasks_on_worker"),
    ("qsim.pool.tasks_on_caller", "qsim.pool.tasks_on_caller"),
];

/// Count metrics whose value depends on thread scheduling; the
/// determinism digest leaves them out.
const SCHEDULING_DEPENDENT: [&str; 2] = ["qsim.pool.tasks_on_worker", "qsim.pool.tasks_on_caller"];

/// Bytes per statevector amplitude (one complex f64).
const AMPLITUDE_BYTES: f64 = 16.0;

/// Counter and histogram movement during one call, plus its duration.
pub struct Probe {
    pub ms: f64,
    counts: BTreeMap<&'static str, u64>,
    hist_us: BTreeMap<&'static str, u64>,
}

impl Probe {
    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn hist_ms(&self, name: &str) -> f64 {
        self.hist_us.get(name).copied().unwrap_or(0) as f64 / 1e3
    }
}

struct Snapshot {
    counts: BTreeMap<&'static str, u64>,
    hist_us: BTreeMap<&'static str, u64>,
}

impl Snapshot {
    fn take() -> Snapshot {
        Snapshot {
            counts: qobs::counter_snapshot().into_iter().collect(),
            hist_us: qobs::histogram_snapshot()
                .into_iter()
                .map(|(name, stats)| (name, stats.sum_us))
                .collect(),
        }
    }

    /// `self − before`, keeping only what moved. A counter registers on
    /// its first increment, so one missing from `before` started at 0.
    fn since(
        self,
        before: &Snapshot,
    ) -> (BTreeMap<&'static str, u64>, BTreeMap<&'static str, u64>) {
        let diff = |now: BTreeMap<&'static str, u64>, then: &BTreeMap<&'static str, u64>| {
            now.into_iter()
                .map(|(name, v)| (name, v.saturating_sub(then.get(name).copied().unwrap_or(0))))
                .filter(|&(_, d)| d > 0)
                .collect()
        };
        (
            diff(self.counts, &before.counts),
            diff(self.hist_us, &before.hist_us),
        )
    }
}

struct Span {
    name: &'static str,
    item: String,
    parent: Option<usize>,
    start_us: u64,
    end_us: u64,
}

/// Times every call the benchmark makes into the program. Enabled, it
/// raises qobs to the `counters` level, takes counter deltas around
/// each call and keeps a span per call in memory; disabled, it only
/// times calls, with qobs off.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub layers: Layers,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        if enabled {
            qobs::set_level(qobs::Level::Counters);
            qobs::reset_metrics();
        } else {
            qobs::set_level(qobs::Level::Off);
        }
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            layers: Layers::default(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a parent span (a job, a candidate) for the calls that follow.
    pub fn open(&mut self, name: &'static str, item: &str) {
        if self.enabled {
            let start_us = self.now_us();
            self.spans.push(Span {
                name,
                item: item.to_string(),
                parent: self.open.last().copied(),
                start_us,
                end_us: start_us,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Runs `f` as one call named `name` on `item`; its time counts as
    /// serial work.
    pub fn call<T>(&mut self, name: &'static str, item: &str, f: impl FnOnce() -> T) -> (T, Probe) {
        let before = self.enabled.then(Snapshot::take);
        let start_us = self.now_us();
        let started = Instant::now();
        let out = f();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let (counts, hist_us) = match before {
            Some(before) => Snapshot::take().since(&before),
            None => Default::default(),
        };
        if self.enabled {
            self.spans.push(Span {
                name,
                item: item.to_string(),
                parent: self.open.last().copied(),
                start_us,
                end_us: self.now_us(),
            });
        }
        let probe = Probe {
            ms,
            counts,
            hist_us,
        };
        self.layers.absorb(&probe);
        (out, probe)
    }

    /// Writes the spans as JSON lines and turns qobs back off.
    pub fn finish(self, path: Option<&Path>) -> std::io::Result<Layers> {
        qobs::set_level(qobs::Level::Off);
        if let Some(path) = path {
            let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
            for (id, span) in self.spans.iter().enumerate() {
                let mut o = qobs::json::Obj::new("span");
                o.field_u64("id", id as u64);
                if let Some(parent) = span.parent {
                    o.field_u64("parent", parent as u64);
                }
                o.field_str("name", span.name);
                o.field_str("item", &span.item);
                o.field_u64("start_us", span.start_us);
                o.field_u64("end_us", span.end_us);
                writeln!(file, "{}", o.finish())?;
            }
            file.flush()?;
        }
        Ok(self.layers)
    }
}

/// Per-layer totals of one traced pass over a workload's items.
#[derive(Default)]
pub struct Layers {
    /// Serial work: the summed time of every call made.
    pub work_ms: f64,
    stage_ms: BTreeMap<&'static str, f64>,
    saves: u64,
    save_bytes: u64,
    swaps: u64,
    gates_in: u64,
    gates_out: u64,
    verify_ms: f64,
    zx_fallthrough_ms: f64,
    bytes_computed: f64,
    simulating_ms: f64,
    counts: BTreeMap<&'static str, u64>,
    hist_us: BTreeMap<&'static str, u64>,
}

impl Layers {
    fn absorb(&mut self, probe: &Probe) {
        self.work_ms += probe.ms;
        for (&name, &d) in &probe.counts {
            *self.counts.entry(name).or_default() += d;
        }
        for (&name, &d) in &probe.hist_us {
            *self.hist_us.entry(name).or_default() += d;
        }
    }

    fn add_ms(&mut self, metric: &'static str, ms: f64) {
        *self.stage_ms.entry(metric).or_default() += ms;
    }

    /// Credits one `JobState::advance` call; `state` is the job after it.
    pub fn stage(&mut self, stage: JobStage, probe: &Probe, state: &JobState) {
        match stage {
            JobStage::Obfuscate => self.add_ms("core.obfuscate_ms", probe.ms),
            JobStage::Split => self.add_ms("core.split_ms", probe.ms),
            JobStage::CompileLeft | JobStage::CompileRight => {
                self.add_ms("qcompile.transpile_ms", probe.ms);
                let (segment, compiled) = match (stage, &state.split) {
                    (JobStage::CompileLeft, Some(s)) => (&s.left, &state.compiled_left),
                    (_, Some(s)) => (&s.right, &state.compiled_right),
                    _ => return,
                };
                if let Some(compiled) = compiled {
                    self.swaps += compiled.swaps_inserted as u64;
                    self.gates_in += segment.circuit.gate_count() as u64;
                    self.gates_out += compiled.circuit.gate_count() as u64;
                }
            }
            JobStage::Recombine => self.add_ms("core.recombine_ms", probe.ms),
            JobStage::Verify => {
                let restored = state.restored.as_ref().map_or(0, |c| c.num_qubits());
                self.verify(probe, state.original.num_qubits().max(restored));
            }
            JobStage::Emit => self.add_ms("core.emit_ms", probe.ms),
            JobStage::Done => {}
        }
    }

    /// Credits one verifier call on a `wires`-wide register.
    pub fn verify(&mut self, probe: &Probe, wires: u32) {
        self.verify_ms += probe.ms;
        if probe.count("qverify.tier.zx.entered") > 0 && probe.count("qverify.tier.zx.decided") == 0
        {
            self.zx_fallthrough_ms += probe.hist_ms("qverify.tier.zx.elapsed_us");
        }
        let passes = probe.count("qsim.exec.full_passes");
        if passes > 0 {
            self.bytes_computed += passes as f64 * 2f64.powi(wires as i32) * AMPLITUDE_BYTES;
            self.simulating_ms += probe.ms;
        }
    }

    /// Credits one `job::save_checkpoint` call that left `bytes` on disk.
    pub fn save(&mut self, probe: &Probe, bytes: u64) {
        self.saves += 1;
        self.save_bytes += bytes;
        self.add_ms("qcir.persist.save_ms", probe.ms);
    }

    /// Credits one `attack_sim::reassemble` call.
    pub fn reassemble(&mut self, probe: &Probe) {
        self.add_ms("core.attack.reassemble_ms", probe.ms);
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The per-layer metrics, given what the caller measured around the
    /// pass: median parse time, parallel efficiency, tracing overhead
    /// and the bandwidth probe.
    pub fn metrics(
        &self,
        parse_ms: f64,
        efficiency: f64,
        overhead: f64,
        probe_gbps: f64,
    ) -> Vec<Metric> {
        let ms = |name: &'static str| self.stage_ms.get(name).copied().unwrap_or(0.0);
        let mut out = vec![
            Metric::new("qcir.parse_ms", parse_ms, "ms"),
            Metric::new("qcir.persist.saves", self.saves as f64, "count"),
            Metric::new("qcir.persist.save_ms", ms("qcir.persist.save_ms"), "ms"),
            Metric::new("qcir.persist.bytes", self.save_bytes as f64, "B"),
        ];
        for name in [
            "core.obfuscate_ms",
            "core.split_ms",
            "core.recombine_ms",
            "core.emit_ms",
            "core.attack.reassemble_ms",
        ] {
            out.push(Metric::new(name, ms(name), "ms"));
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.extend([
            Metric::new("core.job_ms", self.work_ms, "ms"),
            Metric::new("core.batch.parallel_efficiency", efficiency, "ratio"),
            Metric::new("qcompile.transpile_ms", ms("qcompile.transpile_ms"), "ms"),
            Metric::new("qcompile.swaps", self.swaps as f64, "count"),
            Metric::new(
                "qcompile.gates_out_per_in",
                ratio(self.gates_out as f64, self.gates_in as f64),
                "ratio",
            ),
            Metric::new("qverify.verify_ms", self.verify_ms, "ms"),
            Metric::new(
                "qverify.verify_share",
                ratio(self.verify_ms, self.work_ms),
                "ratio",
            ),
        ]);
        for tier in TIERS {
            let entered = self.count(&format!("qverify.tier.{tier}.entered"));
            let decided = self.count(&format!("qverify.tier.{tier}.decided"));
            let us = self
                .hist_us
                .get(format!("qverify.tier.{tier}.elapsed_us").as_str())
                .copied()
                .unwrap_or(0);
            out.push(Metric::new(
                format!("qverify.{tier}.entered"),
                entered as f64,
                "count",
            ));
            out.push(Metric::new(
                format!("qverify.{tier}.decided"),
                decided as f64,
                "count",
            ));
            out.push(Metric::new(
                format!("qverify.{tier}.ms"),
                us as f64 / 1e3,
                "ms",
            ));
        }
        out.push(Metric::new(
            "qverify.zx.fallthrough_ms",
            self.zx_fallthrough_ms,
            "ms",
        ));
        for (metric, counter) in COUNTERS {
            out.push(Metric::new(metric, self.count(counter) as f64, "count"));
        }
        for kernel in KERNELS {
            let name = format!("qsim.kernel.{kernel}");
            out.push(Metric::new(name.clone(), self.count(&name) as f64, "count"));
        }
        out.extend([
            Metric::new("qsim.bytes_computed", self.bytes_computed, "B"),
            Metric::new(
                "qsim.achieved_gbps",
                ratio(self.bytes_computed / 1e9, self.simulating_ms / 1e3),
                "GB/s",
            ),
            Metric::new("qsim.probe_gbps", probe_gbps, "GB/s"),
            Metric::new("qobs.overhead_frac", overhead, "ratio"),
        ]);
        out
    }
}

/// Digest of the count metrics that must repeat exactly for one seed.
pub fn count_digest(metrics: &[Metric]) -> Digest {
    let mut digest = Digest::new();
    for m in metrics {
        if m.unit == "count" && !SCHEDULING_DEPENDENT.contains(&m.name.as_str()) {
            digest.update(m.name.as_bytes());
            digest.update(&(m.value as u64).to_le_bytes());
        }
    }
    digest
}
