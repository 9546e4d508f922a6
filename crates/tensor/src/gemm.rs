//! Blocked single-precision GEMM (`out += a · b`, plus an
//! overwrite-mode `out = a · b` variant) and the naive reference
//! kernel it replaced.
//!
//! The kernel cache-blocks the reduction axis (`KC`) and register-tiles
//! the output (`MR × NR`): each tile is loaded once, accumulated in
//! registers across the whole `k`-block, and stored once, cutting
//! output traffic by `KC×` and `b`-row traffic by `MR×` versus the
//! seed's one-row-at-a-time loop, while the fixed-width `NR` strip
//! keeps the inner loop LLVM-vectorised (with hardware FMA when the
//! target provides it — the workspace builds with `target-cpu=native`).
//! Each output element receives its `k` addends one at a time in
//! ascending order (the tile is *loaded* before accumulating, never
//! merged as a block sum), so results are independent of thread count
//! and deterministic for a given build; without FMA they are
//! bit-identical to [`matmul_naive`], with FMA they differ from it only
//! by the fused roundings (≲1e-6 relative at k ≈ 200).
//!
//! The same holds across callers that lay the operands out differently:
//! an output element's value depends only on its row of `a`, its column
//! of `b` and `k`, never on which `NR`, `NR/2` or remainder strip holds
//! its column or which row block or thread computes it. That is what
//! lets `Tensor::matmul` place many narrow right-hand slices side by side
//! as one wide `b` (the shared-operand path in `linalg`) and still return
//! the bits of the per-slice products.
//!
//! FLOP accounting: callers that time a multiply report it through
//! [`record_flops`], which feeds the `compute/flops` counter and the
//! `compute/gemm_gflops` histogram in the `traffic-obs` registry —
//! that is where run manifests and `BENCH_gemm.json` read GFLOP/s from.

use std::sync::OnceLock;

use crate::pool;

/// Reduction-axis cache block: `KC · n` floats of `b` stay hot in L2
/// while `m` output rows stream past.
const KC: usize = 256;
/// Register tile height: rows of `a` advanced together.
const MR: usize = 6;
/// Register tile width: the accumulator strip held in registers while a
/// `k`-block streams past (`MR · NR` floats = 12 AVX2 registers, the
/// classic 6×16 kernel — leaves room for the `b` strip and broadcasts).
const NR: usize = 16;
/// Minimum rows per parallel task; below this, dispatch overhead wins.
const MIN_ROWS_PER_TASK: usize = 8;

/// Fused multiply-add when the target has hardware FMA (the workspace
/// builds with `target-cpu=native`, so this is compile-time constant);
/// plain mul+add otherwise — `f32::mul_add` without hardware support
/// falls back to a correctly-rounded software routine that is orders of
/// magnitude slower. Either way the kernel is deterministic for a given
/// build and independent of thread count.
#[inline(always)]
fn madd(a: f32, b: f32, acc: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Plain `m×k · k×n` triple loop on contiguous slices, accumulating
/// into `out`. This is the seed engine's kernel, kept verbatim —
/// including its per-element zero-skip branch — so it serves both as
/// the correctness reference for the blocked kernel's proptests and as
/// the baseline that `BENCH_gemm.json` speedups are measured against.
pub fn matmul_naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (l, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue; // adjacency matrices are sparse; skip zero rows cheaply
            }
            let b_row = &b[l * n..(l + 1) * n];
            for j in 0..n {
                out_row[j] += av * b_row[j];
            }
        }
    }
}

/// Serial blocked GEMM: `out += a · b` with `a: [m, k]`, `b: [k, n]`,
/// `out: [m, n]`, all contiguous row-major.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_impl::<false>(a, b, out, m, k, n);
}

/// Serial blocked GEMM that *overwrites*: `out = a · b`, ignoring
/// whatever `out` held before (it may be recycled-buffer garbage).
///
/// The first `k`-block initialises the register tile to `0.0` instead
/// of loading `out` — the floating-point operation sequence per element
/// is exactly "start from zero, add `k` products in ascending order",
/// identical to calling [`gemm`] on a pre-zeroed buffer, so the two are
/// bit-for-bit equal. It exists so callers can feed pooled buffers from
/// `mem::take_uninit` and skip a full memset pass over the output.
pub fn gemm_overwrite(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if k == 0 {
        // Empty reduction: the product is all zeros, and there is no
        // k-block to write them for us.
        out.fill(0.0);
        return;
    }
    gemm_impl::<true>(a, b, out, m, k, n);
}

/// Overwrite-mode GEMM with the *left* operand given in transposed
/// storage: `at` holds `aᵀ` as a row-major `[k, m]` matrix and the call
/// computes `out = a · b`. The packing step reads `R` *consecutive*
/// elements per `k`-row (better than the strided gather the normal
/// orientation needs), so backward passes can feed activations straight
/// from memory instead of materialising a full `.t()` copy first.
/// Arithmetic per output element is the ascending-`k` sequence of
/// [`gemm`]; results are bit-identical to `gemm_overwrite` on a
/// pre-transposed copy.
pub fn gemm_overwrite_at(at: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(at.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if k == 0 {
        out.fill(0.0);
        return;
    }
    if m == 0 || n == 0 {
        return;
    }
    let mut a_pack = [0.0f32; MR * KC];
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let first = pc == 0;
        let b_panel = &b[pc * n..(pc + kc) * n];
        // `at` rows pc..pc+kc hold the k-slice; column i is output row i.
        let at_panel = &at[pc * m..(pc + kc) * m];
        let mut i = 0;
        while i + MR <= m {
            pack_at::<MR>(&mut a_pack, &at_panel[i..], m, kc);
            let out_rows = &mut out[i * n..(i + MR) * n];
            if first {
                micro_tile::<MR, true>(&a_pack, b_panel, out_rows, kc, n);
            } else {
                micro_tile::<MR, false>(&a_pack, b_panel, out_rows, kc, n);
            }
            i += MR;
        }
        let rem = m - i;
        if rem > 0 {
            let at_rows = &at_panel[i..];
            let out_rows = &mut out[i * n..(i + rem) * n];
            macro_rules! tail_at {
                ($r:literal, $first:literal) => {{
                    pack_at::<$r>(&mut a_pack, at_rows, m, kc);
                    micro_tile::<$r, $first>(&a_pack, b_panel, out_rows, kc, n);
                }};
            }
            match (rem, first) {
                (1, true) => tail_at!(1, true),
                (2, true) => tail_at!(2, true),
                (3, true) => tail_at!(3, true),
                (4, true) => tail_at!(4, true),
                (_, true) => tail_at!(5, true),
                (1, false) => tail_at!(1, false),
                (2, false) => tail_at!(2, false),
                (3, false) => tail_at!(3, false),
                (4, false) => tail_at!(4, false),
                (_, false) => tail_at!(5, false),
            }
        }
        pc += kc;
    }
}

/// Overwrite-mode GEMM with the *right* operand given in transposed
/// storage: `bt` holds `bᵀ` as a row-major `[n, k]` matrix and the call
/// computes `out = a · b`. Each `k`-block transposes its `kc × n` slice
/// of `b` into `scratch` (caller-provided, at least `min(k, KC) · n`
/// long — pass a pooled buffer) and then runs the normal kernel on the
/// packed panel, which is a pure data-movement change: results are
/// bit-identical to `gemm_overwrite` on a pre-transposed copy, without
/// ever materialising one at full size.
pub fn gemm_overwrite_bt(
    a: &[f32],
    bt: &[f32],
    scratch: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if k == 0 {
        out.fill(0.0);
        return;
    }
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(scratch.len() >= KC.min(k) * n);
    let mut a_pack = [0.0f32; MR * KC];
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let first = pc == 0;
        // Transpose this k-slice of bᵀ into the scratch panel:
        // scratch[p][j] = bt[j][pc + p]. The panel is small enough to
        // stay cached while every output row streams past it.
        for (j, bt_row) in bt.chunks_exact(k).enumerate() {
            for (p, &v) in bt_row[pc..pc + kc].iter().enumerate() {
                scratch[p * n + j] = v;
            }
        }
        let b_panel = &scratch[..kc * n];
        let mut i = 0;
        while i + MR <= m {
            pack_a::<MR>(&mut a_pack, &a[i * k + pc..], k, kc);
            let out_rows = &mut out[i * n..(i + MR) * n];
            if first {
                micro_tile::<MR, true>(&a_pack, b_panel, out_rows, kc, n);
            } else {
                micro_tile::<MR, false>(&a_pack, b_panel, out_rows, kc, n);
            }
            i += MR;
        }
        let rem = m - i;
        if rem > 0 {
            let a_rows = &a[i * k + pc..];
            let out_rows = &mut out[i * n..(i + rem) * n];
            if first {
                match rem {
                    1 => tail::<1, true>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    2 => tail::<2, true>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    3 => tail::<3, true>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    4 => tail::<4, true>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    _ => tail::<5, true>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                }
            } else {
                match rem {
                    1 => tail::<1, false>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    2 => tail::<2, false>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    3 => tail::<3, false>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    4 => tail::<4, false>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    _ => tail::<5, false>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                }
            }
        }
        pc += kc;
    }
}

/// Width of [`micro_tile`]'s narrow register strip.
pub(crate) const HALF_STRIP: usize = NR / 2;

/// True when an `n`-wide output is covered by full `NR` / `NR/2`
/// register strips, so no column falls in [`micro_tile`]'s slower
/// remainder strip.
pub(crate) fn fills_register_strips(n: usize) -> bool {
    n >= NR && n.is_multiple_of(HALF_STRIP)
}

/// Scratch length [`gemm_overwrite_bt`] needs for a `k × n` right-hand
/// side: one `kc × n` panel.
pub fn bt_scratch_len(k: usize, n: usize) -> usize {
    KC.min(k) * n
}

/// Shared body of [`gemm`] / [`gemm_overwrite`]. `OVERWRITE` selects
/// whether the *first* `k`-block loads the output tile (accumulate) or
/// starts it at zero (overwrite); later blocks always accumulate.
fn gemm_impl<const OVERWRITE: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Block the reduction so the active `b` panel (`kc · n` floats)
    // stays cached across the whole sweep over `m`.
    let mut a_pack = [0.0f32; MR * KC];
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let first = OVERWRITE && pc == 0;
        let b_panel = &b[pc * n..(pc + kc) * n];
        let mut i = 0;
        while i + MR <= m {
            pack_a::<MR>(&mut a_pack, &a[i * k + pc..], k, kc);
            let out_rows = &mut out[i * n..(i + MR) * n];
            if first {
                micro_tile::<MR, true>(&a_pack, b_panel, out_rows, kc, n);
            } else {
                micro_tile::<MR, false>(&a_pack, b_panel, out_rows, kc, n);
            }
            i += MR;
        }
        let rem = m - i;
        if rem > 0 {
            let a_rows = &a[i * k + pc..];
            let out_rows = &mut out[i * n..(i + rem) * n];
            if first {
                match rem {
                    1 => tail::<1, true>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    2 => tail::<2, true>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    3 => tail::<3, true>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    4 => tail::<4, true>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    _ => tail::<5, true>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                }
            } else {
                match rem {
                    1 => tail::<1, false>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    2 => tail::<2, false>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    3 => tail::<3, false>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    4 => tail::<4, false>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                    _ => tail::<5, false>(&mut a_pack, a_rows, k, b_panel, out_rows, kc, n),
                }
            }
        }
        pc += kc;
    }
}

/// Packs an `R × kc` tile of `a` (row stride `lda`) into `p`-major
/// layout: `a_pack[p * R + r] = a[r][p]`, so the micro-kernel's
/// per-`p` coefficient loads are contiguous.
#[inline(always)]
fn pack_a<const R: usize>(a_pack: &mut [f32], a_rows: &[f32], lda: usize, kc: usize) {
    for p in 0..kc {
        for r in 0..R {
            a_pack[p * R + r] = a_rows[r * lda + p];
        }
    }
}

/// Packs an `R × kc` tile of `a` from *transposed* storage: `at_cols`
/// starts at row 0, column `i` of the `[kc, m]` panel (row stride
/// `ldat`), so `a_pack[p * R + r] = at[p][r]` — a contiguous `R`-wide
/// copy per `k`-row, no striding at all.
#[inline(always)]
fn pack_at<const R: usize>(a_pack: &mut [f32], at_cols: &[f32], ldat: usize, kc: usize) {
    for p in 0..kc {
        a_pack[p * R..p * R + R].copy_from_slice(&at_cols[p * ldat..p * ldat + R]);
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)] // internal trampoline mirroring micro_tile
fn tail<const R: usize, const FIRST: bool>(
    a_pack: &mut [f32],
    a_rows: &[f32],
    lda: usize,
    b_panel: &[f32],
    out_rows: &mut [f32],
    kc: usize,
    n: usize,
) {
    pack_a::<R>(a_pack, a_rows, lda, kc);
    micro_tile::<R, FIRST>(a_pack, b_panel, out_rows, kc, n);
}

/// `R`-row register tile: walks the output in `R × NR` strips, then
/// at most one `R × NR/2` strip, each loaded into a register
/// accumulator, updated for every `p` in the `k`-block, and stored back
/// once. `a_pack` is the tile of `a` in `p`-major packed layout (see
/// [`pack_a`]); `out_rows` is `R` contiguous output rows. With `FIRST`
/// the accumulator starts at zero instead of loading `out_rows` (whose
/// contents may be garbage) — per-element arithmetic is otherwise
/// identical.
#[inline(always)]
fn micro_tile<const R: usize, const FIRST: bool>(
    a_pack: &[f32],
    b_panel: &[f32],
    out_rows: &mut [f32],
    kc: usize,
    n: usize,
) {
    debug_assert_eq!(out_rows.len(), R * n);
    let mut j = 0;
    while j + NR <= n {
        strip::<R, NR, FIRST>(a_pack, b_panel, out_rows, kc, n, j);
        j += NR;
    }
    // Narrow outputs (attention's `p·v`, few-feature graph convs) keep
    // their columns in registers too.
    if j + NR / 2 <= n {
        strip::<R, { NR / 2 }, FIRST>(a_pack, b_panel, out_rows, kc, n, j);
        j += NR / 2;
    }
    if j < n {
        // Remainder strip (< NR/2 columns): accumulate straight into the
        // output rows; same ascending-`p` order, just without the
        // register residency. In `FIRST` mode seed the strip with the
        // zeros the accumulate path would have read.
        if FIRST {
            for r in 0..R {
                out_rows[r * n + j..r * n + n].fill(0.0);
            }
        }
        for p in 0..kc {
            let b_row = &b_panel[p * n + j..(p + 1) * n];
            let coeffs = &a_pack[p * R..(p + 1) * R];
            for r in 0..R {
                let coeff = coeffs[r];
                let out_row = &mut out_rows[r * n + j..r * n + n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o = madd(coeff, bv, *o);
                }
            }
        }
    }
}

/// One `R × W` strip of [`micro_tile`] at column `j`, accumulated in
/// registers across the `k`-block.
#[inline(always)]
fn strip<const R: usize, const W: usize, const FIRST: bool>(
    a_pack: &[f32],
    b_panel: &[f32],
    out_rows: &mut [f32],
    kc: usize,
    n: usize,
    j: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    if !FIRST {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&out_rows[r * n + j..r * n + j + W]);
        }
    }
    for p in 0..kc {
        let b_strip: &[f32; W] = b_panel[p * n + j..p * n + j + W].try_into().expect("W strip");
        let coeffs = &a_pack[p * R..(p + 1) * R];
        for (acc_row, &coeff) in acc.iter_mut().zip(coeffs) {
            for (av, &bv) in acc_row.iter_mut().zip(b_strip) {
                *av = madd(coeff, bv, *av);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out_rows[r * n + j..r * n + j + W].copy_from_slice(acc_row);
    }
}

/// Row-parallel blocked GEMM: splits `m` into disjoint row blocks
/// across the worker pool, each running the serial kernel. Per-element
/// accumulation order is unchanged, so results are bit-identical to
/// [`gemm`] at any thread count.
pub fn gemm_parallel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let threads = pool::effective_threads();
    if threads <= 1 || m < 2 * MIN_ROWS_PER_TASK {
        return gemm(a, b, out, m, k, n);
    }
    let rows_per_task = m.div_ceil(threads * 2).max(MIN_ROWS_PER_TASK);
    pool::parallel_chunks_mut(out, rows_per_task * n, |ci, out_chunk| {
        let r0 = ci * rows_per_task;
        let rows = out_chunk.len() / n;
        gemm(&a[r0 * k..(r0 + rows) * k], b, out_chunk, rows, k, n);
    });
}

struct GemmMetrics {
    flops: &'static traffic_obs::Counter,
    gflops: &'static traffic_obs::Histogram,
}

fn metrics() -> &'static GemmMetrics {
    static METRICS: OnceLock<GemmMetrics> = OnceLock::new();
    METRICS.get_or_init(|| GemmMetrics {
        flops: traffic_obs::counter("compute/flops"),
        gflops: traffic_obs::histogram("compute/gemm_gflops"),
    })
}

/// Records `flops` floating-point operations taking `secs` seconds:
/// bumps the cumulative `compute/flops` counter and, for non-trivial
/// timings, the `compute/gemm_gflops` rate histogram.
pub fn record_flops(flops: usize, secs: f64) {
    let m = metrics();
    m.flops.add(flops as u64);
    if secs > 0.0 && flops > 0 {
        m.gflops.record(flops as f64 / secs / 1e9);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 500.0)
                    - 1.0
            })
            .collect()
    }

    fn check_shape(m: usize, k: usize, n: usize) {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut want = vec![0.0f32; m * n];
        matmul_naive(&a, &b, &mut want, m, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm(&a, &b, &mut got, m, k, n);
        if cfg!(target_feature = "fma") {
            // FMA changes each addend's rounding, nothing else.
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-4 * w.abs().max(1.0), "{g} vs {w} at {m}x{k}x{n}");
            }
        } else {
            assert_eq!(got, want, "blocked kernel diverged at {m}x{k}x{n}");
        }
        // Thread-count determinism is unconditional: the parallel kernel
        // must match the serial one bit for bit.
        let mut par = vec![0.0f32; m * n];
        gemm_parallel(&a, &b, &mut par, m, k, n);
        assert_eq!(par, got, "parallel kernel diverged at {m}x{k}x{n}");
    }

    #[test]
    fn matches_naive_bitwise() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 4, 4),
            (5, 3, 7),
            (7, 300, 1), // k crosses a KC boundary, n = 1
            (64, 64, 64),
            (207, 207, 64), // METR-LA graph-conv shape
            (33, 513, 17),
        ] {
            check_shape(m, k, n);
        }
    }

    #[test]
    fn degenerate_dims_are_noops() {
        check_shape(0, 3, 3);
        check_shape(3, 0, 3);
        check_shape(3, 3, 0);
        let mut out = vec![1.0f32; 9];
        gemm(&[], &[], &mut out, 3, 0, 3);
        assert!(out.iter().all(|&v| v == 1.0), "k = 0 must leave the accumulator untouched");
    }

    #[test]
    fn overwrite_matches_zeroed_accumulate_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 7), (7, 300, 17), (64, 64, 64), (13, 513, 1)] {
            let a = fill(m * k, 5);
            let b = fill(k * n, 6);
            let mut want = vec![0.0f32; m * n];
            gemm(&a, &b, &mut want, m, k, n);
            // Seed with garbage the overwrite kernel must ignore.
            let mut got = vec![f32::NAN; m * n];
            gemm_overwrite(&a, &b, &mut got, m, k, n);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "overwrite kernel diverged at {m}x{k}x{n}"
            );
        }
        // k = 0: empty reduction must produce zeros, not stale garbage.
        let mut out = vec![f32::NAN; 6];
        gemm_overwrite(&[], &[], &mut out, 2, 0, 3);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accumulates_into_out() {
        let (m, k, n) = (3, 3, 3);
        let a = fill(9, 3);
        let b = fill(9, 4);
        let mut once = vec![0.0f32; 9];
        gemm(&a, &b, &mut once, m, k, n);
        let mut twice = vec![0.0f32; 9];
        gemm(&a, &b, &mut twice, m, k, n);
        gemm(&a, &b, &mut twice, m, k, n);
        for (t, o) in twice.iter().zip(&once) {
            assert!((t - 2.0 * o).abs() < 1e-4);
        }
    }
}
