//! Serialization round-trip suite: the on-disk checkpoint format must
//! be bit-stable over the *entire* gate surface (every `Gate` variant,
//! exact IEEE-754 phase bits, `Mcx` arities), pinned by a committed
//! golden fixture, and must refuse future format versions with a typed
//! error instead of misreading them.
//!
//! Bit-stability is asserted on the encoded bytes
//! (`encode → decode → encode` equality), which is stronger than value
//! equality and survives values `PartialEq` can't compare (NaN phases).

use proptest::prelude::*;
use qcir::persist::{self, PersistError, FORMAT_VERSION};
use qcir::{Circuit, Gate};
use serde::codec::DecodeError;
use tetrislock::job::{JobConfig, JobState};

/// Encode → decode → encode must reproduce the same bytes.
fn assert_bit_stable<T>(value: &T)
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let bytes = serde::to_bytes(value);
    let decoded: T = serde::from_bytes(&bytes).expect("decode what we encoded");
    assert_eq!(
        bytes,
        serde::to_bytes(&decoded),
        "re-encoding changed the bytes"
    );
}

/// One instruction per `Gate` variant, including parametrized ones with
/// phases whose *bits* matter (negative zero, subnormals, non-dyadic).
fn every_gate_circuit() -> Circuit {
    let tricky = [
        0.0,
        -0.0,
        std::f64::consts::PI,
        f64::MIN_POSITIVE,
        -1.0e-300,
        1.0 / 3.0,
    ];
    let mut c = Circuit::with_name(8, "gate_surface");
    let one_q: [Gate; 11] = [
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Sx,
        Gate::Sxdg,
    ];
    for (i, g) in one_q.into_iter().enumerate() {
        c.append(g, &[(i as u32) % 8]).unwrap();
    }
    for (i, &a) in tricky.iter().enumerate() {
        let q = (i as u32) % 8;
        c.append(Gate::Rx(a), &[q]).unwrap();
        c.append(Gate::Ry(a), &[q]).unwrap();
        c.append(Gate::Rz(a), &[q]).unwrap();
        c.append(Gate::P(a), &[q]).unwrap();
        c.append(Gate::U(a, -a, a * 0.5), &[q]).unwrap();
        c.append(Gate::CP(a), &[q, (q + 1) % 8]).unwrap();
        c.append(Gate::CRz(a), &[q, (q + 1) % 8]).unwrap();
    }
    for g in [Gate::CX, Gate::CY, Gate::CZ, Gate::CH, Gate::Swap] {
        c.append(g, &[0, 1]).unwrap();
    }
    c.append(Gate::CCX, &[0, 1, 2]).unwrap();
    c.append(Gate::CSwap, &[3, 4, 5]).unwrap();
    for controls in 1..=7u32 {
        let wires: Vec<u32> = (0..=controls).collect();
        c.append(Gate::Mcx(controls), &wires).unwrap();
    }
    c
}

#[test]
fn every_gate_variant_roundtrips_bit_stable() {
    assert_bit_stable(&every_gate_circuit());
}

#[test]
fn job_state_roundtrips_bit_stable() {
    // A job advanced halfway has every kind of field populated: config,
    // enums, nested circuits, Option products, BTreeMaps of wire maps.
    let out = std::env::temp_dir().join(format!("tlk_persist_rt_{}", std::process::id()));
    std::fs::create_dir_all(&out).unwrap();
    let mut circuit = Circuit::with_name(4, "persist_rt");
    circuit.h(0).cx(0, 1).ccx(0, 1, 2).cx(2, 3);
    let mut job = JobState::new("rt", circuit, JobConfig::default());
    for _ in 0..5 {
        job.advance(&out).unwrap();
    }
    assert_bit_stable(&job);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn derived_impls_are_not_noop_shims() {
    // Regression guard for the old vendored-serde trap: the derive used
    // to expand to nothing, so `to_bytes` on any value silently produced
    // an empty buffer. Real impls must produce non-empty, decodable
    // encodings.
    let c = every_gate_circuit();
    let bytes = serde::to_bytes(&c);
    assert!(
        bytes.len() > 100,
        "encoding a {}-gate circuit produced only {} bytes — derive is a no-op again?",
        c.gate_count(),
        bytes.len()
    );
    let back: Circuit = serde::from_bytes(&bytes).expect("decode");
    assert_eq!(back.num_qubits(), c.num_qubits());
    assert_eq!(back.gate_count(), c.gate_count());
}

// ---------------------------------------------------------------------
// Golden fixture: pins the v1 on-disk bytes. If this test fails after
// an intentional format change, bump `persist::FORMAT_VERSION` and
// regenerate with `TLK_REGEN_FIXTURES=1 cargo test -p tetrislock-tests
// --test persist_roundtrip`.
// ---------------------------------------------------------------------

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/persist_v1.bin")
}

/// Deterministic fixture value: a mid-pipeline job state over the full
/// gate surface (no compile stages — those depend on qcompile's output,
/// which may legitimately evolve; the fixture pins *serialization*, not
/// the compiler).
fn fixture_value() -> JobState {
    let mut job = JobState::new("golden", every_gate_circuit(), JobConfig::default());
    job.steps_done = 2;
    job
}

#[test]
fn golden_fixture_matches_current_encoder() {
    let path = fixture_path();
    let current = persist::to_envelope(&fixture_value());
    if std::env::var("TLK_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with TLK_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        golden, current,
        "on-disk format drifted from the committed v1 fixture — if intentional, \
         bump qcir::persist::FORMAT_VERSION and regenerate the fixture"
    );
}

#[test]
fn golden_fixture_still_decodes() {
    if std::env::var("TLK_REGEN_FIXTURES").is_ok() {
        return;
    }
    let golden = std::fs::read(fixture_path()).expect("fixture committed");
    let job: JobState = persist::from_envelope(&golden).expect("v1 fixture decodes");
    assert_eq!(job.id, "golden");
    assert_eq!(job.steps_done, 2);
    assert_eq!(
        serde::to_bytes(&job.original),
        serde::to_bytes(&every_gate_circuit())
    );
}

#[test]
fn bumped_version_is_refused_with_typed_error() {
    let mut envelope = persist::to_envelope(&fixture_value());
    // Version is the little-endian u32 right after the 4-byte magic, and
    // it is checked before the checksum — exactly so that forward
    // refusal does not depend on the rest of the file being intact.
    let future = FORMAT_VERSION + 1;
    envelope[4..8].copy_from_slice(&future.to_le_bytes());
    match persist::from_envelope::<JobState>(&envelope) {
        Err(PersistError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, future);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Decoded instructions go through `Instruction::new`.
// ---------------------------------------------------------------------

/// Rewrites every copy of `from`'s bits in an envelope's payload to
/// `to`'s and reseals the checksum: a well-formed file whose content the
/// constructors would refuse.
fn reseal_with_angle(envelope: &[u8], from: f64, to: f64) -> Vec<u8> {
    const HEADER: usize = 16;
    let mut body = envelope[..envelope.len() - 8].to_vec();
    let (needle, patch) = (from.to_le_bytes(), to.to_le_bytes());
    let mut hits = 0;
    for i in HEADER..=body.len() - 8 {
        if body[i..i + 8] == needle {
            body[i..i + 8].copy_from_slice(&patch);
            hits += 1;
        }
    }
    assert!(hits > 0, "marker angle not found in the payload");
    let checksum = persist::fnv1a64(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

#[test]
fn checkpoint_with_a_nan_angle_is_a_typed_error() {
    const MARKER: f64 = 0.8125;
    let mut circuit = Circuit::with_name(3, "nan_angle");
    circuit.h(0).rz(MARKER, 1).cx(1, 2);
    let envelope = persist::to_envelope(&JobState::new("nan", circuit, JobConfig::default()));
    persist::from_envelope::<JobState>(&envelope).expect("the unpatched checkpoint decodes");

    let poisoned = reseal_with_angle(&envelope, MARKER, f64::NAN);
    match persist::from_envelope::<JobState>(&poisoned) {
        Err(PersistError::Decode(DecodeError::Invalid { type_name, reason })) => {
            assert_eq!(type_name, "Instruction");
            assert!(
                reason.contains("rz") && reason.contains("non-finite"),
                "{reason}"
            );
        }
        other => panic!("expected a typed Invalid decode error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Property tests: arbitrary circuits over the full gate surface.
// ---------------------------------------------------------------------

/// Any 64-bit pattern reinterpreted as `f64` — including NaN payloads,
/// infinities, negative zero, and subnormals; the codec stores raw
/// IEEE-754 bits, so even non-values must survive.
fn arb_angle() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

/// Strategy producing any gate variant with arbitrary angle bits.
fn arb_gate(n: u32) -> impl Strategy<Value = (Gate, Vec<u32>)> {
    let wire = move || 0..n;
    prop_oneof![
        (0u8..11, wire()).prop_map(|(k, q)| {
            let g = [
                Gate::I,
                Gate::X,
                Gate::Y,
                Gate::Z,
                Gate::H,
                Gate::S,
                Gate::Sdg,
                Gate::T,
                Gate::Tdg,
                Gate::Sx,
                Gate::Sxdg,
            ][k as usize]
                .clone();
            (g, vec![q])
        }),
        (0u8..4, arb_angle(), wire()).prop_map(|(k, a, q)| {
            let g = match k {
                0 => Gate::Rx(a),
                1 => Gate::Ry(a),
                2 => Gate::Rz(a),
                _ => Gate::P(a),
            };
            (g, vec![q])
        }),
        (arb_angle(), arb_angle(), arb_angle(), wire())
            .prop_map(|(t, p, l, q)| (Gate::U(t, p, l), vec![q])),
        (0u8..6, wire(), wire(), arb_angle()).prop_filter_map(
            "distinct wires",
            |(k, a, b, phi)| {
                if a == b {
                    return None;
                }
                let g = match k {
                    0 => Gate::CX,
                    1 => Gate::CY,
                    2 => Gate::CZ,
                    3 => Gate::CH,
                    4 => Gate::CP(phi),
                    _ => Gate::CRz(phi),
                };
                Some((g, vec![a, b]))
            }
        ),
        (wire(), wire()).prop_filter_map("distinct wires", |(a, b)| {
            (a != b).then(|| (Gate::Swap, vec![a, b]))
        }),
        (wire(), wire(), wire()).prop_filter_map("distinct wires", |(a, b, c)| {
            (a != b && b != c && a != c).then_some(())?;
            Some((Gate::CCX, vec![a, b, c]))
        }),
        (wire(), wire(), wire()).prop_filter_map("distinct wires", |(a, b, c)| {
            (a != b && b != c && a != c).then(|| (Gate::CSwap, vec![a, b, c]))
        }),
        (1..n).prop_map(move |controls| {
            // Mcx over the first controls+1 wires (distinct by
            // construction).
            (Gate::Mcx(controls), (0..=controls).collect())
        }),
    ]
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3u32..=8, 0usize..40).prop_flat_map(|(n, len)| {
        proptest::collection::vec(arb_gate(n), 0..=len).prop_map(move |gates| {
            let mut c = Circuit::with_name(n, "arb");
            for (g, wires) in gates {
                c.append(g, &wires).expect("generated wires valid");
            }
            c
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_circuits_roundtrip_bit_stable(c in arb_circuit()) {
        let bytes = serde::to_bytes(&c);
        let back: Circuit = serde::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(&bytes, &serde::to_bytes(&back));
        prop_assert_eq!(back.num_qubits(), c.num_qubits());
        prop_assert_eq!(back.gate_count(), c.gate_count());
    }

    #[test]
    fn arbitrary_circuits_survive_the_envelope(c in arb_circuit()) {
        let envelope = persist::to_envelope(&c);
        let back: Circuit = persist::from_envelope(&envelope).expect("envelope decode");
        prop_assert_eq!(serde::to_bytes(&c), serde::to_bytes(&back));
    }

    #[test]
    fn raw_f64_bits_are_exact(bits in 0u64..=u64::MAX) {
        // Straight to the codec: any 64-bit pattern — NaN payloads,
        // negative zero, subnormals — must survive exactly.
        let x = f64::from_bits(bits);
        let bytes = serde::to_bytes(&x);
        let back: f64 = serde::from_bytes(&bytes).expect("decode f64");
        prop_assert_eq!(back.to_bits(), bits);
    }
}
