//! Branch-free stride kernels over amplitude arrays.
//!
//! This module is the hot path of the statevector simulator. Every
//! kernel exploits the same structure: a gate on operand bits
//! `b₀ < b₁ < …` decomposes the `2ⁿ` amplitude array into independent
//! groups addressed by the *non*-operand bits, so the loops below
//! enumerate only the `2ⁿ⁻ᵏ` group base indices — no per-amplitude
//! branch, no wasted iterations — and touch each amplitude at most
//! once.
//!
//! Three loop shapes cover the whole gate set:
//!
//! * **stride pairs** — a single-qubit unitary on target bit `t` pairs
//!   `amps[i]` with `amps[i + 2^t]`; iterating blocks of `2^{t+1}` and
//!   splitting each at the midpoint yields two contiguous slices whose
//!   `j`-th elements form the pairs (perfectly vectorizable);
//! * **submask enumeration** — controlled/permutation kernels freeze
//!   the operand bits and walk the remaining "live" bits with the
//!   carry trick `x ← ((x | !live) + 1) & live`, visiting exactly the
//!   relevant base indices;
//! * **diagonal scans** — phase gates never pair amplitudes at all and
//!   reduce to scaling contiguous half-blocks.
//!
//! Above [`PARALLEL_MIN_QUBITS`] qubits the drivers split the array
//! into power-of-two aligned chunks (alignment ≥ `2^{t+1}` for the
//! highest *paired* bit, so every pair stays chunk-local; control bits
//! only need an offset check) and apply the same kernels across the
//! persistent worker pool in [`crate::pool`] (spawned once per
//! process, work distributed by state-slab range). When the paired bit
//! is too high for aligned chunking to produce enough chunks, the 1q
//! and MCX kernels (which cover every gate of the Clifford+T and
//! classical-reversible workloads except the diagonal family, itself
//! alignment-free) fall back to a pair driver that splits each
//! `2^{t+1}` block at its midpoint and zips sub-chunks of the two
//! halves, preserving full parallelism for top-bit targets; the rarer
//! Swap/CSwap/CY/CH kernels simply degrade to fewer chunks there.
//!
//! The arithmetic-heavy inner loops (pair rotation, antidiagonal
//! cross-multiply, diagonal scaling) have two forms, chosen per call
//! by a run-time CPU check ([`path`] reports which):
//!
//! * an explicit AVX2 form (x86-64 CPUs that report `avx2` at run
//!   time), where one 256-bit register holds two interleaved `C64`s:
//!   two stride pairs at once, or — at target bit 0, where a pair is
//!   two adjacent amplitudes — one whole `(lo, hi)` pair;
//! * the portable [`scalar`] loops, blocked into [`LANES`]-wide groups
//!   for the autovectorizer, on every other CPU.
//!
//! The two forms are bit-identical. Every lane of the AVX2 form runs
//! the scalar `C64` product's own IEEE operations — `c.re·a`,
//! `c.im·swap(a)`, one `addsub` — then the same `add`; no FMA, whose
//! single rounding would change the low bits. So the determinism
//! contract (same amplitudes for any worker count, chunk layout or
//! CPU) holds across paths; the `simd_*` tests pin it with
//! `f64::to_bits` against the scalar loops.

use crate::complex::C64;
use crate::matrix::Matrix;
use crate::pool;

/// Register size at which `apply` starts splitting kernels across
/// worker threads (`2¹⁸` amplitudes ≈ 4 MiB); below it the spawn cost
/// outweighs the win.
pub const PARALLEL_MIN_QUBITS: u32 = 18;

/// Lane width of the blocked scalar loops: a fixed trip count of 8
/// amplitudes lets LLVM fully unroll and vectorize the block.
const LANES: usize = 8;

/// Calls the AVX2 form of a kernel when this CPU has AVX2, the
/// [`scalar`] loop otherwise.
macro_rules! dispatch {
    ($kernel:ident($($arg:expr),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        if let Some(simd) = avx2::Avx2::detect() {
            return simd.$kernel($($arg),*);
        }
        scalar::$kernel($($arg),*)
    }};
}

/// The arithmetic path the kernels take on this CPU: `"avx2"` or
/// `"scalar"`. Both give bit-identical amplitudes.
pub(crate) fn path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2::Avx2::detect().is_some() {
        return "avx2";
    }
    "scalar"
}

/// Worker-thread policy for one kernel invocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Threading {
    /// Worker count (≥ 1; 1 disables threading).
    pub workers: usize,
    /// Minimum amplitude count before threads are used.
    pub min_amps: usize,
}

impl Threading {
    /// The default policy: auto-detected worker count, threshold at
    /// [`PARALLEL_MIN_QUBITS`].
    pub fn auto() -> Self {
        Threading::with_workers(0)
    }

    /// A policy with an explicit worker count (`0` = auto-detect).
    /// Explicit counts are clamped to [`pool::MAX_WORKERS`] like the
    /// auto-detected ones — the kernels are memory-bandwidth-bound and
    /// oversubscription only contends.
    pub fn with_workers(workers: usize) -> Self {
        let workers = if workers == 0 {
            pool::default_workers()
        } else {
            workers.min(pool::MAX_WORKERS)
        };
        Threading {
            workers,
            min_amps: 1usize << PARALLEL_MIN_QUBITS,
        }
    }

    /// A strictly single-threaded policy.
    #[cfg(test)]
    pub fn single() -> Self {
        Threading {
            workers: 1,
            min_amps: usize::MAX,
        }
    }
}

/// A dense 2×2 complex matrix in row-major order — the payload of the
/// single-qubit kernel, `Copy` so closures can capture it by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Mat2 {
    /// Row 0: `(m00, m01)`.
    pub m00: C64,
    /// Entry (0, 1).
    pub m01: C64,
    /// Entry (1, 0).
    pub m10: C64,
    /// Entry (1, 1).
    pub m11: C64,
}

impl Mat2 {
    /// Extracts the 2×2 payload of a [`Matrix`] (must be dimension 2).
    pub fn from_matrix(m: &Matrix) -> Self {
        debug_assert_eq!(m.dim(), 2);
        Mat2 {
            m00: m.get(0, 0),
            m01: m.get(0, 1),
            m10: m.get(1, 0),
            m11: m.get(1, 1),
        }
    }

    /// `true` if both off-diagonal entries are exactly zero (the case
    /// for compositions of diagonal gates, whose products introduce no
    /// rounding into the off-diagonal zeros).
    pub fn is_diagonal(&self) -> bool {
        self.m01 == C64::ZERO && self.m10 == C64::ZERO
    }

    /// `true` if both diagonal entries are exactly zero — products of
    /// an odd number of antidiagonal factors (X, Y) with diagonal ones
    /// keep exact zeros on the diagonal for the same reason.
    pub fn is_antidiagonal(&self) -> bool {
        self.m00 == C64::ZERO && self.m11 == C64::ZERO
    }
}

/// Largest power of two ≤ `x` (`x ≥ 1`).
fn prev_pow2(x: usize) -> usize {
    debug_assert!(x >= 1);
    1usize << (usize::BITS - 1 - x.leading_zeros())
}

/// Visits every submask of `live` (including 0 and `live` itself) in
/// increasing order — the branch-free enumeration of base indices with
/// the frozen bits held at zero.
#[inline]
fn for_each_submask(live: usize, mut f: impl FnMut(usize)) {
    let mut x = 0usize;
    loop {
        f(x);
        if x == live {
            break;
        }
        x = (x | !live).wrapping_add(1) & live;
    }
}

/// Chunk size for aligned parallel chunking, or `None` when the kernel
/// should run inline (threading disabled, array too small, or the
/// alignment leaves fewer than two chunks). `len` must be a power of
/// two and `align` a power of two dividing it; the returned size is
/// then a power-of-two multiple of `align`, so every chunk starts on a
/// multiple of its own (power-of-two) length.
fn plan_chunks(len: usize, align: usize, th: Threading) -> Option<usize> {
    if th.workers < 2 || len < th.min_amps {
        return None;
    }
    let max_chunks = len / align;
    if max_chunks < 2 {
        return None;
    }
    let chunks = prev_pow2(th.workers.min(max_chunks));
    if chunks < 2 {
        return None;
    }
    Some(len / chunks)
}

/// Runs `kernel(chunk_offset, chunk)` over aligned chunks of `amps`,
/// in parallel when [`plan_chunks`] allows, inline otherwise.
pub(crate) fn run_chunks(
    amps: &mut [C64],
    align: usize,
    th: Threading,
    kernel: &(impl Fn(usize, &mut [C64]) + Sync),
) {
    match plan_chunks(amps.len(), align, th) {
        None => kernel(0, amps),
        Some(size) => pool::scope(th.workers, |scope| {
            for (i, chunk) in amps.chunks_mut(size).enumerate() {
                scope.spawn(move || kernel(i * size, chunk));
            }
        }),
    }
}

/// Runs `f(lo_offset, lo, hi)` over the half-block pairs of pairing
/// bit `pbit`, sub-chunking the halves across workers — the driver for
/// paired kernels whose target bit is too high for aligned chunking.
fn run_pair_slabs(
    amps: &mut [C64],
    pbit: usize,
    th: Threading,
    f: &(impl Fn(usize, &mut [C64], &mut [C64]) + Sync),
) {
    let len = amps.len();
    let nblocks = len / (2 * pbit);
    if th.workers < 2 || len < th.min_amps {
        for (bi, block) in amps.chunks_mut(2 * pbit).enumerate() {
            let (lo, hi) = block.split_at_mut(pbit);
            f(bi * 2 * pbit, lo, hi);
        }
        return;
    }
    let per_block = prev_pow2((th.workers / nblocks).max(1)).min(pbit);
    let sub = pbit / per_block;
    pool::scope(th.workers, |scope| {
        for (bi, block) in amps.chunks_mut(2 * pbit).enumerate() {
            let (lo, hi) = block.split_at_mut(pbit);
            for (ci, (lc, hc)) in lo.chunks_mut(sub).zip(hi.chunks_mut(sub)).enumerate() {
                scope.spawn(move || f(bi * 2 * pbit + ci * sub, lc, hc));
            }
        }
    });
}

// ---------------------------------------------------------------------
// Single-qubit unitary
// ---------------------------------------------------------------------

/// Applies a general single-qubit unitary on target bit value `tbit`.
pub(crate) fn apply_1q(amps: &mut [C64], th: Threading, tbit: usize, m: Mat2) {
    let block = 2 * tbit;
    if plan_chunks(amps.len(), block, th).is_some() {
        run_chunks(amps, block, th, &|_, chunk| oneq_chunk(chunk, tbit, m));
    } else if th.workers >= 2 && amps.len() >= th.min_amps {
        run_pair_slabs(amps, tbit, th, &|_, lo, hi| oneq_pair(lo, hi, m));
    } else {
        oneq_chunk(amps, tbit, m);
    }
}

/// Single-qubit kernel over a chunk whose length is a multiple of
/// `2 * tbit`.
pub(crate) fn oneq_chunk(chunk: &mut [C64], tbit: usize, m: Mat2) {
    dispatch!(oneq_chunk(chunk, tbit, m))
}

/// The per-pair rotation — the one definition the lane-blocked loop
/// and every remainder use, so all paths are bit-identical.
#[inline(always)]
fn rotate_pair(m: &Mat2, a0: C64, a1: C64) -> (C64, C64) {
    (m.m00 * a0 + m.m01 * a1, m.m10 * a0 + m.m11 * a1)
}

/// The innermost pair loop: `j`-th elements of `lo` and `hi` form the
/// `(|…0…⟩, |…1…⟩)` amplitude pairs.
fn oneq_pair(lo: &mut [C64], hi: &mut [C64], m: Mat2) {
    dispatch!(oneq_pair(lo, hi, m))
}

/// Applies an antidiagonal single-qubit unitary (`m00 = m11 = 0`) on
/// target bit `tbit`: `lo' = a01·hi`, `hi' = a10·lo` — one complex
/// multiply per amplitude instead of the dense kernel's four. X·T-style
/// fused runs route here.
pub(crate) fn apply_anti1(amps: &mut [C64], th: Threading, tbit: usize, a01: C64, a10: C64) {
    let block = 2 * tbit;
    if plan_chunks(amps.len(), block, th).is_some() {
        run_chunks(amps, block, th, &|_, chunk| {
            anti1_chunk(chunk, tbit, a01, a10)
        });
    } else if th.workers >= 2 && amps.len() >= th.min_amps {
        run_pair_slabs(amps, tbit, th, &|_, lo, hi| anti1_pair(lo, hi, a01, a10));
    } else {
        anti1_chunk(amps, tbit, a01, a10);
    }
}

/// Antidiagonal kernel over a chunk whose length is a multiple of
/// `2 * tbit`.
pub(crate) fn anti1_chunk(chunk: &mut [C64], tbit: usize, a01: C64, a10: C64) {
    dispatch!(anti1_chunk(chunk, tbit, a01, a10))
}

/// Shared per-pair formula for the antidiagonal kernel.
#[inline(always)]
fn cross_pair(a01: C64, a10: C64, a0: C64, a1: C64) -> (C64, C64) {
    (a01 * a1, a10 * a0)
}

fn anti1_pair(lo: &mut [C64], hi: &mut [C64], a01: C64, a10: C64) {
    dispatch!(anti1_pair(lo, hi, a01, a10))
}

// ---------------------------------------------------------------------
// Permutation kernels: X / CX / CCX / MCX, Swap / CSwap
// ---------------------------------------------------------------------

/// Applies a (multi-)controlled X: target bit `tbit`, control mask
/// `cmask` (0 for a plain X).
pub(crate) fn apply_mcx(amps: &mut [C64], th: Threading, cmask: usize, tbit: usize) {
    let block = 2 * tbit;
    if plan_chunks(amps.len(), block, th).is_some() {
        run_chunks(amps, block, th, &|offset, chunk| {
            mcx_chunk(chunk, offset, cmask, tbit)
        });
    } else if th.workers >= 2 && amps.len() >= th.min_amps {
        run_pair_slabs(amps, tbit, th, &|offset, lo, hi| {
            mcx_pair(lo, hi, offset, cmask)
        });
    } else {
        mcx_chunk(amps, 0, cmask, tbit);
    }
}

/// MCX kernel over a chunk whose length is a multiple of `2 * tbit`;
/// `offset` is the chunk's global base index (for control bits above
/// the block size).
pub(crate) fn mcx_chunk(chunk: &mut [C64], offset: usize, cmask: usize, tbit: usize) {
    let cm_low = cmask & (tbit - 1);
    let cm_above = cmask & !(2 * tbit - 1);
    let live = (tbit - 1) & !cm_low;
    for (bi, block) in chunk.chunks_exact_mut(2 * tbit).enumerate() {
        if (offset + bi * 2 * tbit) & cm_above != cm_above {
            continue;
        }
        let (lo, hi) = block.split_at_mut(tbit);
        if cm_low == 0 {
            lo.swap_with_slice(hi);
        } else {
            for_each_submask(live, |x| {
                let i = x | cm_low;
                std::mem::swap(&mut lo[i], &mut hi[i]);
            });
        }
    }
}

/// MCX over one zipped half-block pair; `offset` is `lo[0]`'s global
/// index.
fn mcx_pair(lo: &mut [C64], hi: &mut [C64], offset: usize, cmask: usize) {
    let in_mask = lo.len() - 1;
    let cm_in = cmask & in_mask;
    let cm_out = cmask & !in_mask;
    if offset & cm_out != cm_out {
        return;
    }
    if cm_in == 0 {
        lo.swap_with_slice(hi);
    } else {
        for_each_submask(in_mask & !cm_in, |x| {
            let i = x | cm_in;
            std::mem::swap(&mut lo[i], &mut hi[i]);
        });
    }
}

/// Applies a (controlled) swap of the wires with bit values `abit` and
/// `bbit` under control mask `cmask` (0 for a plain swap).
pub(crate) fn apply_swap(amps: &mut [C64], th: Threading, cmask: usize, abit: usize, bbit: usize) {
    let (abit, bbit) = (abit.min(bbit), abit.max(bbit));
    run_chunks(amps, 2 * bbit, th, &|offset, chunk| {
        swap_chunk(chunk, offset, cmask, abit, bbit)
    });
}

/// Swap kernel over a chunk whose length is a multiple of `2 * bbit`
/// (`abit < bbit`): exchanges `|…a=1,b=0…⟩ ↔ |…a=0,b=1…⟩` where the
/// controls are satisfied.
pub(crate) fn swap_chunk(chunk: &mut [C64], offset: usize, cmask: usize, abit: usize, bbit: usize) {
    let cm_low = cmask & (bbit - 1);
    let cm_above = cmask & !(2 * bbit - 1);
    let live = (bbit - 1) & !abit & !cm_low;
    for (bi, block) in chunk.chunks_exact_mut(2 * bbit).enumerate() {
        if (offset + bi * 2 * bbit) & cm_above != cm_above {
            continue;
        }
        let (lo, hi) = block.split_at_mut(bbit);
        for_each_submask(live, |x| {
            let base = x | cm_low;
            std::mem::swap(&mut lo[base | abit], &mut hi[base]);
        });
    }
}

// ---------------------------------------------------------------------
// Diagonal kernels: Z / S / T / P / Rz, CZ / CP / CRz
// ---------------------------------------------------------------------

/// Applies the diagonal single-qubit gate `diag(d0, d1)` on target bit
/// `tbit` — a pure scan with no amplitude pairing.
pub(crate) fn apply_diag1(amps: &mut [C64], th: Threading, tbit: usize, d0: C64, d1: C64) {
    run_chunks(amps, 1, th, &|offset, chunk| {
        diag1_chunk(chunk, offset, tbit, d0, d1)
    });
}

pub(crate) fn diag1_chunk(chunk: &mut [C64], offset: usize, tbit: usize, d0: C64, d1: C64) {
    dispatch!(diag1_chunk(chunk, offset, tbit, d0, d1))
}

/// Multiplies by `phase` every amplitude whose index has all
/// `set_mask` bits set and all `clear_mask` bits clear — the engine
/// behind CZ (`set = c|t`), CP, and each half of CRz.
pub(crate) fn apply_phase(
    amps: &mut [C64],
    th: Threading,
    set_mask: usize,
    clear_mask: usize,
    phase: C64,
) {
    run_chunks(amps, 1, th, &|offset, chunk| {
        phase_chunk(chunk, offset, set_mask, clear_mask, phase)
    });
}

pub(crate) fn phase_chunk(
    chunk: &mut [C64],
    offset: usize,
    set_mask: usize,
    clear_mask: usize,
    phase: C64,
) {
    let in_mask = chunk.len() - 1;
    let s_out = set_mask & !in_mask;
    let c_out = clear_mask & !in_mask;
    if offset & s_out != s_out || offset & c_out != 0 {
        return;
    }
    let s_in = set_mask & in_mask;
    let c_in = clear_mask & in_mask;
    for_each_submask(in_mask & !(s_in | c_in), |x| {
        chunk[x | s_in] *= phase;
    });
}

// ---------------------------------------------------------------------
// Two-qubit and generic k-qubit unitaries
// ---------------------------------------------------------------------

/// Applies a general two-qubit unitary (operand 0 on bit `p0`, operand
/// 1 on bit `p1`, little-endian matrix convention) without the
/// gather/scatter of the generic path.
pub(crate) fn apply_2q(amps: &mut [C64], th: Threading, p0: usize, p1: usize, m: &Matrix) {
    debug_assert_eq!(m.dim(), 4);
    let shi = p0.max(p1);
    run_chunks(amps, 2 * shi, th, &|_, chunk| twoq_chunk(chunk, p0, p1, m));
}

pub(crate) fn twoq_chunk(chunk: &mut [C64], p0: usize, p1: usize, m: &Matrix) {
    let (slo, shi) = (p0.min(p1), p0.max(p1));
    // For matrix basis index t, operand 0 is bit 0 of t and operand 1
    // is bit 1; locate the amplitude in the (lo, hi) half and at which
    // low-bit offset.
    let locate = |t: usize| {
        let b0 = t & 1;
        let b1 = (t >> 1) & 1;
        let (hi_sel, lo_sel) = if p0 == shi { (b0, b1) } else { (b1, b0) };
        (hi_sel == 1, lo_sel * slo)
    };
    let slots: [(bool, usize); 4] = [locate(0), locate(1), locate(2), locate(3)];
    for block in chunk.chunks_exact_mut(2 * shi) {
        let (lo, hi) = block.split_at_mut(shi);
        for_each_submask((shi - 1) & !slo, |base| {
            let read = |t: usize| {
                let (in_hi, add) = slots[t];
                if in_hi {
                    hi[base + add]
                } else {
                    lo[base + add]
                }
            };
            let a = [read(0), read(1), read(2), read(3)];
            for (t, &(in_hi, add)) in slots.iter().enumerate() {
                let v = m.get(t, 0) * a[0]
                    + m.get(t, 1) * a[1]
                    + m.get(t, 2) * a[2]
                    + m.get(t, 3) * a[3];
                if in_hi {
                    hi[base + add] = v;
                } else {
                    lo[base + add] = v;
                }
            }
        });
    }
}

/// Generic k-qubit gate: gathers each group of `2ᵏ` amplitudes
/// addressed by the operand bits, multiplies by the matrix, scatters
/// back. Fallback for gates without a specialized kernel.
pub(crate) fn apply_kq(amps: &mut [C64], th: Threading, bits: &[usize], m: &Matrix) {
    let dim = 1usize << bits.len();
    debug_assert_eq!(m.dim(), dim);
    let maxbit = bits.iter().copied().max().expect("at least one operand");
    run_chunks(amps, 2 * maxbit, th, &|_, chunk| kq_chunk(chunk, bits, m));
}

pub(crate) fn kq_chunk(chunk: &mut [C64], bits: &[usize], m: &Matrix) {
    let dim = 1usize << bits.len();
    let mask: usize = bits.iter().sum();
    let mut gathered = vec![C64::ZERO; dim];
    let index_of = |base: usize, pattern: usize| {
        let mut idx = base;
        for (pos, bit) in bits.iter().enumerate() {
            if pattern & (1 << pos) != 0 {
                idx |= bit;
            }
        }
        idx
    };
    for_each_submask((chunk.len() - 1) & !mask, |base| {
        for (pattern, slot) in gathered.iter_mut().enumerate() {
            *slot = chunk[index_of(base, pattern)];
        }
        for row in 0..dim {
            let mut acc = C64::ZERO;
            for (col, &g) in gathered.iter().enumerate() {
                acc += m.get(row, col) * g;
            }
            chunk[index_of(base, row)] = acc;
        }
    });
}

// ---------------------------------------------------------------------
// The two arithmetic paths of the pair and diagonal loops
// ---------------------------------------------------------------------

/// The portable loops: the path on CPUs without AVX2, and the
/// reference the AVX2 path is pinned against bit for bit.
mod scalar {
    use super::{cross_pair, rotate_pair, Mat2, LANES};
    use crate::complex::C64;

    /// Single-qubit kernel over a chunk whose length is a multiple of
    /// `2 * tbit`.
    pub(super) fn oneq_chunk(chunk: &mut [C64], tbit: usize, m: Mat2) {
        for block in chunk.chunks_exact_mut(2 * tbit) {
            let (lo, hi) = block.split_at_mut(tbit);
            oneq_pair(lo, hi, m);
        }
    }

    /// The pair loop, blocked into [`LANES`]-wide groups of
    /// independent rotations for the autovectorizer.
    pub(super) fn oneq_pair(lo: &mut [C64], hi: &mut [C64], m: Mat2) {
        let mut lo_lanes = lo.chunks_exact_mut(LANES);
        let mut hi_lanes = hi.chunks_exact_mut(LANES);
        for (lc, hc) in (&mut lo_lanes).zip(&mut hi_lanes) {
            for j in 0..LANES {
                let (r0, r1) = rotate_pair(&m, lc[j], hc[j]);
                lc[j] = r0;
                hc[j] = r1;
            }
        }
        for (a, b) in lo_lanes
            .into_remainder()
            .iter_mut()
            .zip(hi_lanes.into_remainder())
        {
            let (r0, r1) = rotate_pair(&m, *a, *b);
            *a = r0;
            *b = r1;
        }
    }

    /// Antidiagonal kernel over a chunk whose length is a multiple of
    /// `2 * tbit`.
    pub(super) fn anti1_chunk(chunk: &mut [C64], tbit: usize, a01: C64, a10: C64) {
        for block in chunk.chunks_exact_mut(2 * tbit) {
            let (lo, hi) = block.split_at_mut(tbit);
            anti1_pair(lo, hi, a01, a10);
        }
    }

    /// The antidiagonal pair loop, lane-blocked like [`oneq_pair`].
    pub(super) fn anti1_pair(lo: &mut [C64], hi: &mut [C64], a01: C64, a10: C64) {
        let mut lo_lanes = lo.chunks_exact_mut(LANES);
        let mut hi_lanes = hi.chunks_exact_mut(LANES);
        for (lc, hc) in (&mut lo_lanes).zip(&mut hi_lanes) {
            for j in 0..LANES {
                let (r0, r1) = cross_pair(a01, a10, lc[j], hc[j]);
                lc[j] = r0;
                hc[j] = r1;
            }
        }
        for (a, b) in lo_lanes
            .into_remainder()
            .iter_mut()
            .zip(hi_lanes.into_remainder())
        {
            let (r0, r1) = cross_pair(a01, a10, *a, *b);
            *a = r0;
            *b = r1;
        }
    }

    /// `diag(d0, d1)` on target bit `tbit` over a chunk whose global
    /// base index is `offset`.
    pub(super) fn diag1_chunk(chunk: &mut [C64], offset: usize, tbit: usize, d0: C64, d1: C64) {
        if tbit >= chunk.len() {
            // The target bit is constant across this chunk.
            let d = if offset & tbit != 0 { d1 } else { d0 };
            scale_slice(chunk, d);
            return;
        }
        for block in chunk.chunks_exact_mut(2 * tbit) {
            let (lo, hi) = block.split_at_mut(tbit);
            scale_slice(lo, d0);
            scale_slice(hi, d1);
        }
    }

    /// Multiplies every amplitude of `s` by `d`, lane-blocked; skips the
    /// pass entirely for an exact-unit factor (the `|0⟩` half of T-like
    /// phase gates).
    fn scale_slice(s: &mut [C64], d: C64) {
        if d == C64::ONE {
            return;
        }
        let mut lanes = s.chunks_exact_mut(LANES);
        for lane in &mut lanes {
            for a in lane.iter_mut() {
                *a *= d;
            }
        }
        for a in lanes.into_remainder() {
            *a *= d;
        }
    }
}

/// The AVX2 loops. Each `__m256d` holds two interleaved `C64`s
/// (`C64` is `repr(C)`), and each 128-bit lane computes one amplitude
/// with the scalar formula's operations in the scalar order:
/// [`Factor::mul`] is `C64`'s `Mul`, and the sums are plain `add`s.
/// IEEE-754 `+` and `×` are commutative, so `c·a` here and `a·c` in
/// [`scalar::scale_slice`] round alike. Odd tails run the shared
/// per-pair formulas.
#[cfg(target_arch = "x86_64")]
// SAFETY: every `unsafe fn` here is a `#[target_feature(enable =
// "avx2")]` function whose one requirement is a CPU with AVX2. The
// only calls from outside the module are in the methods of `Avx2`, a
// token that only `Avx2::detect` builds, after
// `is_x86_feature_detected!("avx2")`. The unaligned loads and stores
// touch exactly the two `C64`s of a borrowed `[C64; 2]`.
#[allow(unsafe_code)]
mod avx2 {
    use super::{cross_pair, rotate_pair, Mat2};
    use crate::complex::C64;
    use std::arch::x86_64::*;

    /// Proof that this CPU runs AVX2 — built only by [`Avx2::detect`],
    /// so its safe methods may enter the `#[target_feature]` loops.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(());

    impl Avx2 {
        /// The token, or `None` when the CPU lacks AVX2 (the standard
        /// library caches the CPUID probe).
        #[inline]
        pub(super) fn detect() -> Option<Avx2> {
            is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }

        pub(super) fn oneq_chunk(self, chunk: &mut [C64], tbit: usize, m: Mat2) {
            // SAFETY: `self` proves AVX2 (see `detect`).
            unsafe { oneq_chunk(chunk, tbit, m) }
        }

        pub(super) fn oneq_pair(self, lo: &mut [C64], hi: &mut [C64], m: Mat2) {
            // SAFETY: `self` proves AVX2.
            unsafe { rotate_slices(lo, hi, &splat_matrix(&m), &m) }
        }

        pub(super) fn anti1_chunk(self, chunk: &mut [C64], tbit: usize, a01: C64, a10: C64) {
            // SAFETY: `self` proves AVX2.
            unsafe { anti1_chunk(chunk, tbit, a01, a10) }
        }

        pub(super) fn anti1_pair(self, lo: &mut [C64], hi: &mut [C64], a01: C64, a10: C64) {
            // SAFETY: `self` proves AVX2.
            unsafe { anti1_pair(lo, hi, a01, a10) }
        }

        pub(super) fn diag1_chunk(
            self,
            chunk: &mut [C64],
            offset: usize,
            tbit: usize,
            d0: C64,
            d1: C64,
        ) {
            // SAFETY: `self` proves AVX2.
            unsafe { diag1_chunk(chunk, offset, tbit, d0, d1) }
        }
    }

    /// `s` as whole two-amplitude registers, plus the odd tail.
    #[inline]
    fn pairs(s: &mut [C64]) -> (impl Iterator<Item = &mut [C64; 2]>, &mut [C64]) {
        let (even, tail) = s.split_at_mut(s.len() & !1);
        let regs = even
            .chunks_exact_mut(2)
            .map(|c| <&mut [C64; 2]>::try_from(c).expect("chunks_exact_mut(2) yields pairs"));
        (regs, tail)
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load(pair: &[C64; 2]) -> __m256d {
        // `[C64; 2]` is four contiguous `f64`s; `loadu` takes any
        // alignment.
        _mm256_loadu_pd(pair.as_ptr().cast())
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store(pair: &mut [C64; 2], v: __m256d) {
        // As in `load`, through a unique borrow.
        _mm256_storeu_pd(pair.as_mut_ptr().cast(), v)
    }

    /// A complex factor per 128-bit lane, held as its real part and its
    /// imaginary part, each repeated across the lane.
    #[derive(Clone, Copy)]
    struct Factor {
        re: __m256d,
        im: __m256d,
    }

    impl Factor {
        /// The same factor `c` in both lanes.
        ///
        /// # Safety
        /// Requires AVX2.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn splat(c: C64) -> Factor {
            Factor {
                re: _mm256_set1_pd(c.re),
                im: _mm256_set1_pd(c.im),
            }
        }

        /// Factor `c0` in the low lane, `c1` in the high lane.
        ///
        /// # Safety
        /// Requires AVX2.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn lanes(c0: C64, c1: C64) -> Factor {
            Factor {
                re: _mm256_setr_pd(c0.re, c0.re, c1.re, c1.re),
                im: _mm256_setr_pd(c0.im, c0.im, c1.im, c1.im),
            }
        }

        /// `c·a` per lane: `(c.re·a.re − c.im·a.im, c.re·a.im + c.im·a.re)`,
        /// the operations of `C64`'s `Mul`.
        ///
        /// # Safety
        /// Requires AVX2.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn mul(self, a: __m256d) -> __m256d {
            let swapped = _mm256_permute_pd::<0b0101>(a);
            _mm256_addsub_pd(_mm256_mul_pd(self.re, a), _mm256_mul_pd(self.im, swapped))
        }
    }

    /// The four matrix entries as splatted factors, row-major.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn splat_matrix(m: &Mat2) -> [Factor; 4] {
        [
            Factor::splat(m.m00),
            Factor::splat(m.m01),
            Factor::splat(m.m10),
            Factor::splat(m.m11),
        ]
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn oneq_chunk(chunk: &mut [C64], tbit: usize, m: Mat2) {
        if tbit == 1 {
            // Target bit 0: one register is one (lo, hi) pair. Its
            // columns (m00, m10) and (m01, m11) multiply lo and hi
            // broadcast to both lanes.
            let c0 = Factor::lanes(m.m00, m.m10);
            let c1 = Factor::lanes(m.m01, m.m11);
            for pair in pairs(chunk).0 {
                let v = load(pair);
                let lo = _mm256_permute2f128_pd::<0x00>(v, v);
                let hi = _mm256_permute2f128_pd::<0x11>(v, v);
                store(pair, _mm256_add_pd(c0.mul(lo), c1.mul(hi)));
            }
            return;
        }
        let f = splat_matrix(&m);
        for block in chunk.chunks_exact_mut(2 * tbit) {
            let (lo, hi) = block.split_at_mut(tbit);
            rotate_slices(lo, hi, &f, &m);
        }
    }

    /// Two stride pairs per iteration; an odd tail runs `rotate_pair`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn rotate_slices(lo: &mut [C64], hi: &mut [C64], f: &[Factor; 4], m: &Mat2) {
        let (lo_regs, lo_tail) = pairs(lo);
        let (hi_regs, hi_tail) = pairs(hi);
        for (l, h) in lo_regs.zip(hi_regs) {
            let (a0, a1) = (load(l), load(h));
            store(l, _mm256_add_pd(f[0].mul(a0), f[1].mul(a1)));
            store(h, _mm256_add_pd(f[2].mul(a0), f[3].mul(a1)));
        }
        for (a, b) in lo_tail.iter_mut().zip(hi_tail) {
            (*a, *b) = rotate_pair(m, *a, *b);
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn anti1_chunk(chunk: &mut [C64], tbit: usize, a01: C64, a10: C64) {
        if tbit == 1 {
            // Target bit 0: swap the register's halves to (hi, lo), then
            // one multiply by (a01, a10).
            let f = Factor::lanes(a01, a10);
            for pair in pairs(chunk).0 {
                let v = load(pair);
                store(pair, f.mul(_mm256_permute2f128_pd::<0x01>(v, v)));
            }
            return;
        }
        for block in chunk.chunks_exact_mut(2 * tbit) {
            let (lo, hi) = block.split_at_mut(tbit);
            anti1_pair(lo, hi, a01, a10);
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn anti1_pair(lo: &mut [C64], hi: &mut [C64], a01: C64, a10: C64) {
        let (f01, f10) = (Factor::splat(a01), Factor::splat(a10));
        let (lo_regs, lo_tail) = pairs(lo);
        let (hi_regs, hi_tail) = pairs(hi);
        for (l, h) in lo_regs.zip(hi_regs) {
            let (a0, a1) = (load(l), load(h));
            store(l, f01.mul(a1));
            store(h, f10.mul(a0));
        }
        for (a, b) in lo_tail.iter_mut().zip(hi_tail) {
            (*a, *b) = cross_pair(a01, a10, *a, *b);
        }
    }

    /// As [`super::scalar::diag1_chunk`]; a half multiplied by an
    /// exact `1` is left untouched there (`x·1` can flip a zero's
    /// sign), so it is here too.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn diag1_chunk(chunk: &mut [C64], offset: usize, tbit: usize, d0: C64, d1: C64) {
        if tbit >= chunk.len() {
            let d = if offset & tbit != 0 { d1 } else { d0 };
            scale_slice(chunk, d);
            return;
        }
        if tbit == 1 {
            // Target bit 0: one register is one (d0, d1) pair; lanes
            // with a unit factor keep their input.
            let (unit0, unit1) = (d0 == C64::ONE, d1 == C64::ONE);
            if unit0 && unit1 {
                return;
            }
            let f = Factor::lanes(d0, d1);
            let (k0, k1) = (-i64::from(unit0), -i64::from(unit1));
            let keep = _mm256_castsi256_pd(_mm256_setr_epi64x(k0, k0, k1, k1));
            for pair in pairs(chunk).0 {
                let v = load(pair);
                store(pair, _mm256_blendv_pd(f.mul(v), v, keep));
            }
            return;
        }
        for block in chunk.chunks_exact_mut(2 * tbit) {
            let (lo, hi) = block.split_at_mut(tbit);
            scale_slice(lo, d0);
            scale_slice(hi, d1);
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn scale_slice(s: &mut [C64], d: C64) {
        if d == C64::ONE {
            return;
        }
        let f = Factor::splat(d);
        let (regs, tail) = pairs(s);
        for pair in regs {
            let v = load(pair);
            store(pair, f.mul(v));
        }
        for a in tail {
            *a *= d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, KernelOp};
    use crate::matrix::gate_matrix;
    use crate::statevector::reference;
    use crate::statevector::{Blocking, ExecConfig, Statevector};
    use proptest::prelude::*;
    use qcir::random::RandomCircuitConfig;
    use qcir::{Circuit, Gate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1e-12;

    /// Forces the threaded drivers even on tiny arrays.
    fn forced() -> Threading {
        Threading {
            workers: 4,
            min_amps: 2,
        }
    }

    fn zero_state(n: u32) -> Vec<C64> {
        let mut amps = vec![C64::ZERO; 1usize << n];
        amps[0] = C64::ONE;
        amps
    }

    fn assert_states_match(a: &[C64], b: &[C64], context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.approx_eq(*y, EPS),
                "{context}: amplitude {i} diverges: {x} vs {y}"
            );
        }
    }

    /// A random circuit drawing from the ENTIRE gate set (every
    /// variant the dispatcher has a path for), unlike
    /// `qcir::random::random_unitary_circuit`'s reduced pool.
    fn full_pool_circuit(n: u32, gates: usize, seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::with_name(n, "kernel_pool");
        fn pick_wires(rng: &mut StdRng, count: usize, n: u32) -> Vec<u32> {
            let mut ws: Vec<u32> = Vec::with_capacity(count);
            while ws.len() < count {
                let w = rng.gen_range(0..n);
                if !ws.contains(&w) {
                    ws.push(w);
                }
            }
            ws
        }
        for _ in 0..gates {
            let angle = rng.gen_range(-3.0..3.0f64);
            let pick = rng.gen_range(0..24u8);
            match pick {
                0 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.h(w[0])
                }
                1 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.x(w[0])
                }
                2 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.y(w[0])
                }
                3 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.z(w[0])
                }
                4 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.s(w[0])
                }
                5 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.sdg(w[0])
                }
                6 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.t(w[0])
                }
                7 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.tdg(w[0])
                }
                8 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.sx(w[0])
                }
                9 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.rx(angle, w[0])
                }
                10 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.ry(angle, w[0])
                }
                11 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.rz(angle, w[0])
                }
                12 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.p(angle, w[0])
                }
                13 => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.u(angle, angle * 0.5, -angle, w[0])
                }
                14 if n >= 2 => {
                    let w = pick_wires(&mut rng, 2, n);
                    c.cx(w[0], w[1])
                }
                15 if n >= 2 => {
                    let w = pick_wires(&mut rng, 2, n);
                    c.cy(w[0], w[1])
                }
                16 if n >= 2 => {
                    let w = pick_wires(&mut rng, 2, n);
                    c.cz(w[0], w[1])
                }
                17 if n >= 2 => {
                    let w = pick_wires(&mut rng, 2, n);
                    c.ch(w[0], w[1])
                }
                18 if n >= 2 => {
                    let w = pick_wires(&mut rng, 2, n);
                    c.cp(angle, w[0], w[1])
                }
                19 if n >= 2 => {
                    let w = pick_wires(&mut rng, 2, n);
                    c.crz(angle, w[0], w[1])
                }
                20 if n >= 2 => {
                    let w = pick_wires(&mut rng, 2, n);
                    c.swap(w[0], w[1])
                }
                21 if n >= 3 => {
                    let w = pick_wires(&mut rng, 3, n);
                    c.ccx(w[0], w[1], w[2])
                }
                22 if n >= 3 => {
                    let w = pick_wires(&mut rng, 3, n);
                    c.cswap(w[0], w[1], w[2])
                }
                23 if n >= 4 => {
                    let w = pick_wires(&mut rng, 4, n);
                    c.mcx(&w[..3], w[3])
                }
                _ => {
                    let w = pick_wires(&mut rng, 1, n);
                    c.h(w[0])
                }
            };
        }
        c
    }

    /// Applies `circuit` four ways — stride single-threaded, stride
    /// force-threaded, fused, fused force-threaded — and compares all
    /// of them against the retained naive reference kernels.
    fn check_engine_matches_reference(circuit: &Circuit, context: &str) {
        let n = circuit.num_qubits();
        let mut expected = zero_state(n);
        reference::apply_circuit(&mut expected, circuit);

        let mut plain = Statevector::zero(n).unwrap();
        plain
            .apply_circuit_with(
                circuit,
                &ExecConfig {
                    fuse: false,
                    threads: 1,
                    blocking: Blocking::Off,
                },
            )
            .unwrap();
        assert_states_match(plain.amplitudes(), &expected, &format!("{context}: stride"));

        let mut fused = Statevector::zero(n).unwrap();
        fused
            .apply_circuit_with(
                circuit,
                &ExecConfig {
                    fuse: true,
                    threads: 1,
                    blocking: Blocking::Off,
                },
            )
            .unwrap();
        assert_states_match(fused.amplitudes(), &expected, &format!("{context}: fused"));

        let mut layered = Statevector::zero(n).unwrap();
        layered
            .apply_circuit_with(
                circuit,
                &ExecConfig {
                    fuse: true,
                    threads: 1,
                    blocking: Blocking::Force,
                },
            )
            .unwrap();
        assert_states_match(
            layered.amplitudes(),
            &expected,
            &format!("{context}: layered"),
        );

        // Forced threading exercises the chunked/pair-slab drivers even
        // though the register is small.
        let mut amps = zero_state(n);
        for inst in circuit.iter() {
            apply_instruction_forced(&mut amps, inst);
        }
        assert_states_match(&amps, &expected, &format!("{context}: threaded"));
    }

    /// Per-instruction dispatch mirroring `Statevector::apply`, but with
    /// the forced 4-worker policy and a tiny threshold.
    fn apply_instruction_forced(amps: &mut [C64], inst: &qcir::Instruction) {
        let th = forced();
        let bit = |i: usize| 1usize << inst.qubits()[i].index();
        match inst.gate() {
            Gate::I => {}
            Gate::X => apply_mcx(amps, th, 0, bit(0)),
            Gate::Y => apply_anti1(amps, th, bit(0), -C64::I, C64::I),
            Gate::Z => apply_diag1(amps, th, bit(0), C64::ONE, -C64::ONE),
            Gate::S => apply_diag1(amps, th, bit(0), C64::ONE, C64::I),
            Gate::Sdg => apply_diag1(amps, th, bit(0), C64::ONE, -C64::I),
            Gate::T => apply_diag1(
                amps,
                th,
                bit(0),
                C64::ONE,
                C64::cis(std::f64::consts::FRAC_PI_4),
            ),
            Gate::Tdg => apply_diag1(
                amps,
                th,
                bit(0),
                C64::ONE,
                C64::cis(-std::f64::consts::FRAC_PI_4),
            ),
            Gate::P(a) => apply_diag1(amps, th, bit(0), C64::ONE, C64::cis(*a)),
            Gate::Rz(a) => apply_diag1(amps, th, bit(0), C64::cis(-a / 2.0), C64::cis(a / 2.0)),
            Gate::CX => apply_mcx(amps, th, bit(0), bit(1)),
            Gate::CCX => apply_mcx(amps, th, bit(0) | bit(1), bit(2)),
            Gate::Mcx(_) => {
                let q = inst.qubits();
                let cmask: usize = q[..q.len() - 1].iter().map(|q| 1usize << q.index()).sum();
                apply_mcx(amps, th, cmask, 1usize << q[q.len() - 1].index());
            }
            Gate::CZ => apply_phase(amps, th, bit(0) | bit(1), 0, -C64::ONE),
            Gate::CP(a) => apply_phase(amps, th, bit(0) | bit(1), 0, C64::cis(*a)),
            Gate::CRz(a) => {
                apply_phase(amps, th, bit(0), bit(1), C64::cis(-a / 2.0));
                apply_phase(amps, th, bit(0) | bit(1), 0, C64::cis(a / 2.0));
            }
            Gate::Swap => apply_swap(amps, th, 0, bit(0), bit(1)),
            Gate::CSwap => apply_swap(amps, th, bit(0), bit(1), bit(2)),
            Gate::CY | Gate::CH => apply_2q(amps, th, bit(0), bit(1), &gate_matrix(inst.gate())),
            gate if gate.arity() == 1 => {
                apply_1q(amps, th, bit(0), Mat2::from_matrix(&gate_matrix(gate)))
            }
            gate => {
                let bits: Vec<usize> = inst.qubits().iter().map(|q| 1usize << q.index()).collect();
                apply_kq(amps, th, &bits, &gate_matrix(gate));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn kernels_match_naive_reference_on_random_circuits(
            n in 2u32..=10,
            gates in 1usize..=40,
            seed in 0u64..1 << 32,
        ) {
            let circuit = full_pool_circuit(n, gates, seed);
            check_engine_matches_reference(&circuit, &format!("n={n} seed={seed}"));
        }

        #[test]
        fn kernels_match_reference_on_reversible_circuits(
            n in 3u32..=9,
            gates in 1usize..=30,
            seed in 0u64..1 << 32,
        ) {
            let circuit =
                qcir::random::random_reversible(&RandomCircuitConfig::new(n, gates, seed));
            check_engine_matches_reference(&circuit, &format!("rev n={n} seed={seed}"));
        }
    }

    #[test]
    fn kernels_cover_every_gate_individually() {
        // One instruction per gate variant on an interesting initial
        // state, against the reference.
        let n = 5u32;
        let mut prep = Circuit::new(n);
        for q in 0..n {
            prep.h(q).t(q);
        }
        prep.cx(0, 1).cx(2, 3).cz(1, 4);
        let gates: Vec<(Gate, Vec<u32>)> = vec![
            (Gate::X, vec![3]),
            (Gate::Y, vec![1]),
            (Gate::Z, vec![0]),
            (Gate::H, vec![4]),
            (Gate::S, vec![2]),
            (Gate::Sdg, vec![2]),
            (Gate::T, vec![0]),
            (Gate::Tdg, vec![1]),
            (Gate::Sx, vec![3]),
            (Gate::Sxdg, vec![3]),
            (Gate::Rx(0.7), vec![2]),
            (Gate::Ry(-1.1), vec![0]),
            (Gate::Rz(2.2), vec![4]),
            (Gate::P(0.9), vec![1]),
            (Gate::U(0.3, 0.5, -0.7), vec![2]),
            (Gate::CX, vec![4, 0]),
            (Gate::CY, vec![0, 3]),
            (Gate::CZ, vec![2, 4]),
            (Gate::CH, vec![1, 2]),
            (Gate::CP(0.4), vec![3, 1]),
            (Gate::CRz(-0.6), vec![0, 4]),
            (Gate::Swap, vec![1, 3]),
            (Gate::CCX, vec![2, 0, 4]),
            (Gate::CSwap, vec![4, 2, 0]),
            (Gate::Mcx(3), vec![0, 1, 2, 3]),
            (Gate::Mcx(4), vec![0, 1, 2, 3, 4]),
        ];
        for (gate, wires) in gates {
            let mut c = prep.clone();
            c.append(gate.clone(), &wires).unwrap();
            check_engine_matches_reference(&c, &format!("gate {gate}"));
        }
    }

    #[test]
    fn kernels_threaded_pair_slabs_cover_top_bit_targets() {
        // Gates on the top wires force the pair-slab driver (aligned
        // chunking cannot split a block as large as the array).
        let n = 8u32;
        let mut c = Circuit::new(n);
        c.h(n - 1)
            .t(n - 1)
            .cx(n - 2, n - 1)
            .x(n - 1)
            .ccx(0, n - 2, n - 1)
            .u(0.3, 0.2, 0.1, n - 2)
            .swap(n - 2, n - 1)
            .cz(n - 1, 0);
        check_engine_matches_reference(&c, "top-bit targets");
    }

    #[test]
    fn kernels_submask_enumeration_visits_exactly_the_submasks() {
        let mut seen = Vec::new();
        for_each_submask(0b1010, |x| seen.push(x));
        assert_eq!(seen, vec![0b0000, 0b0010, 0b1000, 0b1010]);
        let mut zero = Vec::new();
        for_each_submask(0, |x| zero.push(x));
        assert_eq!(zero, vec![0]);
    }

    #[test]
    fn kernels_chunk_plan_respects_alignment_and_threshold() {
        let th = Threading {
            workers: 8,
            min_amps: 16,
        };
        // Inline below the threshold.
        assert_eq!(plan_chunks(8, 1, th), None);
        // Aligned chunking: 256 amps, align 4 → 8 chunks of 32.
        assert_eq!(plan_chunks(256, 4, th), Some(32));
        // Alignment covering half the array: only two chunks possible.
        assert_eq!(plan_chunks(256, 128, th), Some(128));
        // Alignment covering the whole array: inline.
        assert_eq!(plan_chunks(256, 256, th), None);
        // Single worker: inline.
        assert_eq!(plan_chunks(256, 4, Threading::single()), None);
    }

    #[test]
    fn kernels_spot_check_20q_clifford_t() {
        let circuit = full_pool_circuit(20, 120, 0xDAC2025);
        let mut expected = zero_state(20);
        reference::apply_circuit(&mut expected, &circuit);
        let engine = Statevector::from_circuit(&circuit).unwrap();
        assert_states_match(engine.amplitudes(), &expected, "20q spot check");
        assert!((engine.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kernels_smoke_27q_exercises_raised_cap() {
        // 2²⁷ amplitudes (2 GiB): prepare |1…⟩ on the top wire, spread
        // qubit 0, and entangle across the register — checks the raised
        // cap end to end without a full reference replay.
        let n = 27u32;
        let mut c = Circuit::new(n);
        c.x(n - 1).h(0).cx(0, n - 1).t(0).z(n - 1);
        let sv = Statevector::from_circuit(&c).unwrap();
        let top = 1usize << (n - 1);
        // cx(0, top) on (|0⟩+|1⟩)|1_top⟩ flips the top bit when qubit 0
        // is 1: outcomes |0…01⟩ (top cleared... qubit0 set) and |10…0⟩.
        let p_top_only = sv.probability(top);
        let p_low_only = sv.probability(1);
        assert!((p_top_only - 0.5).abs() < 1e-9, "p(top)={p_top_only}");
        assert!((p_low_only - 0.5).abs() < 1e-9, "p(low)={p_low_only}");
        assert!((sv.norm() - 1.0).abs() < 1e-9);
    }

    // -----------------------------------------------------------------
    // AVX2 = scalar, bit for bit
    // -----------------------------------------------------------------

    /// Register widths of the bit-identity sweep: every tiny width
    /// (single pairs, 2-amplitude halves, top-bit slabs) and a
    /// cache-resident 12-qubit state.
    const SIMD_WIDTHS: [u32; 7] = [1, 2, 3, 4, 5, 6, 12];

    fn random_c64(rng: &mut StdRng) -> C64 {
        C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    }

    /// Random amplitudes with signed zeros sprinkled in, so a kernel
    /// that multiplies by an exact `1` the scalar loop skips shows up.
    fn random_amps(rng: &mut StdRng, len: usize) -> Vec<C64> {
        (0..len)
            .map(|i| match i % 7 {
                3 => C64::new(-0.0, rng.gen_range(-1.0..1.0)),
                5 => C64::new(rng.gen_range(-1.0..1.0), -0.0),
                _ => random_c64(rng),
            })
            .collect()
    }

    fn assert_bits_eq(got: &[C64], scalar: &[C64], context: &str) {
        assert_eq!(got.len(), scalar.len(), "{context}: length");
        for (i, (x, y)) in got.iter().zip(scalar).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{context}: amplitude {i} is {x:?}, the scalar loop gives {y:?}"
            );
        }
    }

    /// A kernel with an AVX2 form and its random payload.
    #[derive(Debug, Clone, Copy)]
    enum WideKernel {
        Mat1(Mat2),
        Anti1(C64, C64),
        Diag1(C64, C64),
    }

    impl WideKernel {
        /// One of each, plus the unit-factor cases of `Diag1`.
        fn draw(rng: &mut StdRng) -> Vec<WideKernel> {
            let mut c = || random_c64(rng);
            vec![
                WideKernel::Mat1(Mat2 {
                    m00: c(),
                    m01: c(),
                    m10: c(),
                    m11: c(),
                }),
                WideKernel::Anti1(c(), c()),
                WideKernel::Diag1(c(), c()),
                WideKernel::Diag1(C64::ONE, c()),
                WideKernel::Diag1(c(), C64::ONE),
                WideKernel::Diag1(C64::ONE, C64::ONE),
            ]
        }

        fn op(self, tbit: usize) -> KernelOp {
            match self {
                WideKernel::Mat1(m) => KernelOp::Mat1 { tbit, m },
                WideKernel::Anti1(a01, a10) => KernelOp::Anti1 { tbit, a01, a10 },
                WideKernel::Diag1(d0, d1) => KernelOp::Diag1 { tbit, d0, d1 },
            }
        }

        /// The scalar loop, called directly: the reference.
        fn scalar(self, amps: &mut [C64], offset: usize, tbit: usize) {
            match self {
                WideKernel::Mat1(m) => scalar::oneq_chunk(amps, tbit, m),
                WideKernel::Anti1(a01, a10) => scalar::anti1_chunk(amps, tbit, a01, a10),
                WideKernel::Diag1(d0, d1) => scalar::diag1_chunk(amps, offset, tbit, d0, d1),
            }
        }

        /// The dispatching chunk kernel (AVX2 where the CPU has it).
        fn chunk(self, amps: &mut [C64], offset: usize, tbit: usize) {
            match self {
                WideKernel::Mat1(m) => oneq_chunk(amps, tbit, m),
                WideKernel::Anti1(a01, a10) => anti1_chunk(amps, tbit, a01, a10),
                WideKernel::Diag1(d0, d1) => diag1_chunk(amps, offset, tbit, d0, d1),
            }
        }

        /// Forced threading: pair slabs for the paired
        /// kernels (every target bit, sub-chunks down to one
        /// amplitude), offset-aware chunks for the diagonal one.
        fn threaded(self, amps: &mut [C64], tbit: usize) {
            match self {
                WideKernel::Mat1(m) => {
                    run_pair_slabs(amps, tbit, forced(), &|_, lo, hi| oneq_pair(lo, hi, m))
                }
                WideKernel::Anti1(a01, a10) => {
                    run_pair_slabs(amps, tbit, forced(), &|_, lo, hi| {
                        anti1_pair(lo, hi, a01, a10)
                    })
                }
                WideKernel::Diag1(d0, d1) => apply_diag1(amps, forced(), tbit, d0, d1),
            }
        }
    }

    #[test]
    fn simd_path_is_reported_from_the_cpu() {
        #[cfg(target_arch = "x86_64")]
        let expected = if is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "scalar"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let expected = "scalar";
        assert_eq!(path(), expected);
        assert_eq!(crate::statevector::kernel_path(), expected);
    }

    #[test]
    fn simd_kernels_match_scalar_bit_for_bit_in_every_sweep() {
        let mut rng = StdRng::seed_from_u64(0x5EED_A7C2);
        for n in SIMD_WIDTHS {
            let len = 1usize << n;
            for t in 0..n {
                let tbit = 1usize << t;
                for kernel in WideKernel::draw(&mut rng) {
                    let input = random_amps(&mut rng, len);
                    let context = format!("n={n} t={t} {kernel:?}");
                    let mut once = input.clone();
                    kernel.scalar(&mut once, 0, tbit);

                    let mut chunk = input.clone();
                    kernel.chunk(&mut chunk, 0, tbit);
                    assert_bits_eq(&chunk, &once, &format!("{context}: chunk kernel"));

                    let mut threaded = input.clone();
                    kernel.threaded(&mut threaded, tbit);
                    assert_bits_eq(&threaded, &once, &format!("{context}: threaded"));

                    // Two pushes make a layer, swept block by block.
                    let mut twice = once.clone();
                    kernel.scalar(&mut twice, 0, tbit);
                    let mut layered = input.clone();
                    let mut ex = Executor::new(&mut layered, forced(), true);
                    ex.push(kernel.op(tbit));
                    ex.push(kernel.op(tbit));
                    ex.finish();
                    assert_bits_eq(&layered, &twice, &format!("{context}: layered executor"));
                }
            }
        }
    }

    #[test]
    fn simd_odd_length_slices_take_the_scalar_tail() {
        // Pair slabs are powers of two; odd lengths reach the tail of
        // every two-amplitude loop directly.
        let mut rng = StdRng::seed_from_u64(0x0DD5);
        for len in [1usize, 3, 5, 7, 9, 15] {
            for kernel in WideKernel::draw(&mut rng) {
                let context = format!("len={len} {kernel:?}");
                let lo = random_amps(&mut rng, len);
                let hi = random_amps(&mut rng, len);
                let (mut lo_w, mut hi_w) = (lo.clone(), hi.clone());
                let (mut lo_s, mut hi_s) = (lo.clone(), hi.clone());
                match kernel {
                    WideKernel::Mat1(m) => {
                        oneq_pair(&mut lo_w, &mut hi_w, m);
                        scalar::oneq_pair(&mut lo_s, &mut hi_s, m);
                    }
                    WideKernel::Anti1(a01, a10) => {
                        anti1_pair(&mut lo_w, &mut hi_w, a01, a10);
                        scalar::anti1_pair(&mut lo_s, &mut hi_s, a01, a10);
                    }
                    // A target bit above the slice scales all of it by
                    // the factor its offset selects.
                    WideKernel::Diag1(..) => {
                        let high = 1usize << 8;
                        kernel.chunk(&mut lo_w, 0, high);
                        kernel.scalar(&mut lo_s, 0, high);
                        kernel.chunk(&mut hi_w, high, high);
                        kernel.scalar(&mut hi_s, high, high);
                    }
                }
                assert_bits_eq(&lo_w, &lo_s, &format!("{context}: lo"));
                assert_bits_eq(&hi_w, &hi_s, &format!("{context}: hi"));
            }
        }
    }
}
