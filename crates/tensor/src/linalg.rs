//! Batched matrix multiplication with broadcasting over leading axes.
//!
//! Products are computed by the blocked, register-tiled kernel in
//! [`crate::gemm`] and scheduled on the persistent worker pool
//! ([`crate::pool`]): tasks are `(batch, row-block)` slices of the
//! output, so even a single product uses every core. A single `[m, k]`
//! matrix broadcast over many narrow slices — a graph operator applied
//! to `[B·T, N, F]` node features, forward and backward — is instead run
//! as a few wide `[m, k] · [k, g·n]` products over groups of `g` slices
//! ([`matmul_shared_a`]), so the kernel packs the operator once per
//! group rather than once per slice. Accumulation order per output
//! element never changes with the path or the task split, so results
//! are bit-identical at any `TRAFFIC_THREADS`.

use crate::gemm;
use crate::pool;
use crate::shape::{broadcast_shapes, broadcast_strides, numel};
use crate::tensor::Tensor;

/// Below this many flops a multiply runs inline on the calling thread;
/// dispatch overhead beats any parallel win.
pub(crate) const PAR_FLOPS: usize = 1 << 17;

/// Smallest `m · k` of a shared left operand that takes the wide path
/// ([`matmul_shared_a`]). Below it — the 12–14-node dense propagators of
/// the Fig-1 sweep — the layout copies cost more than the repacking of
/// `a` they save.
const WIDE_MIN_MK: usize = 64 * 64;
/// Widest per-slice `n` that takes the wide path. Wider slices, and
/// slices whose columns fill whole register strips (`n` = 16, 24, 32,
/// …), already amortise the packing of `a`: on `[207, 207]` the wide
/// path made `n` = 16–48 up to 25% slower and `n` = 8, 12, 17 two to
/// eight times faster.
const WIDE_MAX_N: usize = 64;
/// Column budget of one packed `b` group: a `KC × WIDE_COLS` panel
/// (256 KB) stays in L2 while the row tiles of `a` stream past it.
const WIDE_COLS: usize = 256;

impl Tensor {
    /// Batched matrix product.
    ///
    /// Shapes `[..., m, k] · [..., k, n] -> [..., m, n]`; leading (batch)
    /// axes broadcast like elementwise ops. Rank-1 operands are promoted to
    /// row/column matrices and the promoted axis removed from the result.
    ///
    /// ```
    /// use traffic_tensor::Tensor;
    /// let batch = Tensor::ones(&[4, 2, 3]);       // 4 matrices of 2×3
    /// let weights = Tensor::ones(&[3, 5]);        // shared 3×5
    /// assert_eq!(batch.matmul(&weights).shape(), &[4, 2, 5]);
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        // Promote rank-1 operands by reference; already-matrix operands
        // are borrowed as-is (no Tensor clone on the fast path).
        let promoted_a;
        let (a, squeeze_m) = if self.rank() == 1 {
            promoted_a = self.reshape(&[1, self.shape()[0]]);
            (&promoted_a, true)
        } else {
            (self, false)
        };
        let promoted_b;
        let (b, squeeze_n) = if other.rank() == 1 {
            promoted_b = other.reshape(&[other.shape()[0], 1]);
            (&promoted_b, true)
        } else {
            (other, false)
        };
        let t = a.matmul_general(b, false, false);
        let out_shape = t.shape().to_vec();
        // Undo rank-1 promotions.
        match (squeeze_m, squeeze_n) {
            (false, false) => t,
            (true, false) => {
                let mut s = out_shape;
                s.remove(s.len() - 2);
                t.reshape(&s)
            }
            (false, true) => {
                let mut s = out_shape;
                s.pop();
                t.reshape(&s)
            }
            (true, true) => t.reshape(&[]),
        }
    }

    /// `selfᵀ · other` without materialising the transpose: `self` is
    /// read as if its last two axes were swapped. Bit-identical to
    /// `self.t().matmul(other)` — the kernel packs the same values in
    /// the same `k`-ascending order, it just reads them from transposed
    /// storage. Both operands must have rank ≥ 2.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        self.matmul_general(other, true, false)
    }

    /// `self · otherᵀ` without materialising the transpose (see
    /// [`Tensor::matmul_tn`]); bit-identical to
    /// `self.matmul(&other.t())`. Both operands must have rank ≥ 2.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        self.matmul_general(other, false, true)
    }

    /// Shared batched-GEMM driver. `ta` / `tb` read the corresponding
    /// operand with its last two axes logically swapped, feeding the
    /// transposed-storage kernels in [`crate::gemm`] — no `.t()` copy.
    fn matmul_general(&self, other: &Tensor, ta: bool, tb: bool) -> Tensor {
        let (a, b) = (self, other);
        assert!(a.rank() >= 2 && b.rank() >= 2, "matmul_general requires rank >= 2 operands");
        let (a_rows, a_cols) = (a.shape()[a.rank() - 2], a.shape()[a.rank() - 1]);
        let (b_rows, b_cols) = (b.shape()[b.rank() - 2], b.shape()[b.rank() - 1]);
        let (m, ka) = if ta { (a_cols, a_rows) } else { (a_rows, a_cols) };
        let (kb, n) = if tb { (b_cols, b_rows) } else { (b_rows, b_cols) };
        assert_eq!(
            ka,
            kb,
            "matmul inner-dimension mismatch: {:?} · {:?}",
            self.shape(),
            other.shape()
        );
        let a_batch = &a.shape()[..a.rank() - 2];
        let b_batch = &b.shape()[..b.rank() - 2];
        let batch = broadcast_shapes(a_batch, b_batch).unwrap_or_else(|| {
            panic!("matmul batch-dimension mismatch: {:?} · {:?}", self.shape(), other.shape())
        });
        let nbatch = numel(&batch);

        // Per-batch flat offsets (in whole matrices) into a and b,
        // computed once with an odometer over the broadcast strides —
        // no per-batch unravel in the hot path.
        let a_mat = a_rows * a_cols;
        let b_mat = b_rows * b_cols;
        let offsets = batch_offsets(&batch, a_batch, b_batch);

        let mut out_shape = batch.clone();
        out_shape.push(m);
        out_shape.push(n);
        // The overwrite-mode kernels fully write their output (first
        // k-block stores instead of accumulating), so the buffer can
        // come back from the pool dirty — no memset pass.
        let mut out = crate::mem::take_uninit(nbatch * m * n);
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        let total_flops = 2 * nbatch * m * ka * n;
        let timer = std::time::Instant::now();
        let orient = match (ta, tb) {
            (false, false) => "nn",
            (true, false) => "tn",
            (false, true) => "nt",
            (true, true) => "tt",
        };
        let mut prof = traffic_obs::profile::op("gemm", orient);
        prof.set_flops(total_flops);
        prof.set_bytes((a_data.len() + b_data.len() + out.len()) * 4);
        // One output matrix: a · b slices for batch bi, through the
        // kernel matching the operand orientations.
        let run_one = |bi: usize, dst: &mut [f32], scratch: &mut Vec<f32>| {
            let (a_off, b_off) = offsets[bi];
            let a_sl = &a_data[a_off * a_mat..(a_off + 1) * a_mat];
            let b_sl = &b_data[b_off * b_mat..(b_off + 1) * b_mat];
            match (ta, tb) {
                (false, false) => gemm::gemm_overwrite(a_sl, b_sl, dst, m, ka, n),
                (true, false) => gemm::gemm_overwrite_at(a_sl, b_sl, dst, m, ka, n),
                (false, true) => {
                    let need = gemm::bt_scratch_len(ka, n);
                    if scratch.len() < need {
                        *scratch = crate::mem::take_uninit(need);
                    }
                    gemm::gemm_overwrite_bt(a_sl, b_sl, scratch, dst, m, ka, n)
                }
                (true, true) => unreachable!("no caller transposes both operands"),
            }
        };
        let parallel = total_flops >= PAR_FLOPS && pool::effective_threads() > 1;
        let shared_a = numel(a_batch) == 1 && numel(b_batch) == nbatch && nbatch > 1;
        let narrow = n <= WIDE_MAX_N && !gemm::fills_register_strips(n);
        if shared_a && !tb && narrow && m * ka >= WIDE_MIN_MK {
            let _serial = (!parallel).then(|| pool::ThreadCapGuard::new(1));
            matmul_shared_a(a_data, b_data, &mut out, ta, nbatch, m, ka, n);
        } else if !parallel {
            let mut scratch = Vec::new();
            for (bi, dst) in out.chunks_mut(m * n).enumerate() {
                run_one(bi, dst, &mut scratch);
            }
            crate::mem::recycle(scratch);
        } else if ta || tb {
            // Transposed operands parallelise over whole batch matrices
            // (row-splitting would re-pack the shared panel per block).
            pool::parallel_chunks_mut(&mut out, m * n, |bi, dst| {
                let mut scratch = Vec::new();
                run_one(bi, dst, &mut scratch);
                crate::mem::recycle(scratch);
            });
        } else {
            // Task space: (batch, row-block). Small batches still get
            // intra-matrix parallelism; big batches split per matrix.
            let threads = pool::effective_threads();
            let blocks_per_batch = (threads * 2 / nbatch).clamp(1, m.max(1));
            let rows_per_block = m.div_ceil(blocks_per_batch).max(1);
            let mut ranges = Vec::with_capacity(nbatch * blocks_per_batch);
            let mut tasks = Vec::with_capacity(nbatch * blocks_per_batch);
            for bi in 0..nbatch {
                let mut r0 = 0;
                while r0 < m {
                    let rows = rows_per_block.min(m - r0);
                    ranges.push(bi * m * n + r0 * n..bi * m * n + (r0 + rows) * n);
                    tasks.push((bi, r0, rows));
                    r0 += rows;
                }
            }
            pool::parallel_ranges_mut(&mut out, &ranges, |ti, dst| {
                let (bi, r0, rows) = tasks[ti];
                let (a_off, b_off) = offsets[bi];
                let a_base = a_off * a_mat + r0 * ka;
                gemm::gemm_overwrite(
                    &a_data[a_base..a_base + rows * ka],
                    &b_data[b_off * b_mat..(b_off + 1) * b_mat],
                    dst,
                    rows,
                    ka,
                    n,
                );
            });
        }
        gemm::record_flops(total_flops, timer.elapsed().as_secs_f64());
        Tensor::from_vec(out, &out_shape)
    }
}

/// `out[bi] = op(a) · b[bi]` for one left matrix shared by all `nb`
/// right-hand slices (`op(a) = aᵀ` with `ta`, read from `[k, m]`
/// storage), run as wide `[m, k] · [k, g·n]` products over groups of
/// `g` slices instead of `nb` narrow ones that would each repack all of
/// `a`.
///
/// Each task packs its group of slices side by side into a `[k, g·n]`
/// panel, runs the blocked kernel into an `[m, g·n]` buffer and writes
/// it back as `[g, m, n]`. The copies move values and never add them,
/// and the kernel gives each output element "start from zero, add `k`
/// products in ascending order" whatever its column strip, so the
/// result is bit-identical to the per-slice products.
#[allow(clippy::too_many_arguments)]
fn matmul_shared_a(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    ta: bool,
    nb: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    // As many slices per group as fit WIDE_COLS columns, with the group
    // count rounded up to a multiple of the thread count so every
    // thread gets an equal share, and the group width to a whole number
    // of register strips so no column lands in the remainder strip.
    let threads = pool::effective_threads();
    let groups = (nb * n).div_ceil(WIDE_COLS).next_multiple_of(threads).clamp(1, nb);
    let align = (1..)
        .find(|g| (g * n).is_multiple_of(gemm::HALF_STRIP))
        .expect("HALF_STRIP slices always align");
    let per_group = nb.div_ceil(groups).next_multiple_of(align).min(nb);
    pool::parallel_chunks_mut(out, per_group * m * n, |gi, dst| {
        let w = dst.len() / m;
        let mut panel = crate::mem::take_uninit(k * w);
        let slices = b[gi * per_group * k * n..].chunks_exact(k * n);
        for (s, src) in slices.take(w / n).enumerate() {
            for (p, row) in src.chunks_exact(n).enumerate() {
                panel[p * w + s * n..][..n].copy_from_slice(row);
            }
        }
        let mut wide = crate::mem::take_uninit(m * w);
        if ta {
            gemm::gemm_overwrite_at(a, &panel, &mut wide, m, k, w);
        } else {
            gemm::gemm_overwrite(a, &panel, &mut wide, m, k, w);
        }
        for (s, dst_s) in dst.chunks_exact_mut(m * n).enumerate() {
            for (i, row) in dst_s.chunks_exact_mut(n).enumerate() {
                row.copy_from_slice(&wide[i * w + s * n..][..n]);
            }
        }
        crate::mem::recycle(panel);
        crate::mem::recycle(wide);
    });
}

/// Flat `(a, b)` matrix offsets for every broadcast batch index,
/// generated by a single odometer sweep (one allocation total).
fn batch_offsets(batch: &[usize], a_batch: &[usize], b_batch: &[usize]) -> Vec<(usize, usize)> {
    let nbatch = numel(batch);
    let a_bstr = broadcast_strides(a_batch, batch);
    let b_bstr = broadcast_strides(b_batch, batch);
    let mut offsets = Vec::with_capacity(nbatch);
    let mut coords = vec![0usize; batch.len()];
    let mut a_off = 0usize;
    let mut b_off = 0usize;
    for _ in 0..nbatch {
        offsets.push((a_off, b_off));
        for axis in (0..batch.len()).rev() {
            coords[axis] += 1;
            a_off += a_bstr[axis];
            b_off += b_bstr[axis];
            if coords[axis] < batch[axis] {
                break;
            }
            a_off -= coords[axis] * a_bstr[axis];
            b_off -= coords[axis] * b_bstr[axis];
            coords[axis] = 0;
        }
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mat2x2() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn batched_broadcast() {
        // [2, 2, 3] · [3, 2] -> [2, 2, 2]
        let a = Tensor::arange(12).reshape(&[2, 2, 3]);
        let b = Tensor::arange(6).reshape(&[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        // first batch, first row: [0,1,2]·cols of b
        assert_eq!(c.at(&[0, 0, 0]), 0.0 * 0.0 + 1.0 * 2.0 + 2.0 * 4.0);
        assert_eq!(c.at(&[1, 1, 1]), 9.0 * 1.0 + 10.0 * 3.0 + 11.0 * 5.0);
    }

    #[test]
    fn two_sided_batch_broadcast() {
        // [2, 1, 2, 3] · [1, 3, 3, 2] -> [2, 3, 2, 2]
        let a = Tensor::arange(2 * 2 * 3).reshape(&[2, 1, 2, 3]);
        let b = Tensor::arange(3 * 3 * 2).reshape(&[1, 3, 3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 3, 2, 2]);
        // spot-check against the per-batch product
        for (i, j) in [(0usize, 0usize), (1, 2), (0, 1)] {
            let ai = a.narrow(0, i, 1).reshape(&[2, 3]);
            let bj = b.narrow(1, j, 1).reshape(&[3, 2]);
            let want = ai.matmul(&bj);
            let got = c.narrow(0, i, 1).narrow(1, j, 1).reshape(&[2, 2]);
            assert_eq!(got, want, "batch ({i}, {j})");
        }
    }

    #[test]
    fn vec_promotions() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let m = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2]);
        let vm = a.matmul(&m);
        assert_eq!(vm.shape(), &[2]);
        assert_eq!(vm.as_slice(), &[1.0, 4.0]);
        let mv = m.matmul(&a);
        assert_eq!(mv.shape(), &[2]);
        assert_eq!(mv.as_slice(), &[1.0, 4.0]);
        let dot = a.matmul(&a);
        assert_eq!(dot.shape(), &[] as &[usize]);
        assert_eq!(dot.item(), 5.0);
    }

    #[test]
    #[should_panic(expected = "inner-dimension mismatch")]
    fn inner_mismatch() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Big enough to cross the dispatch threshold; results must be
        // bit-identical to the per-batch serial kernel.
        let nb = 64;
        let (m, k, n) = (16, 16, 16);
        let a = Tensor::from_vec(
            (0..nb * m * k).map(|i| ((i % 97) as f32 - 48.0) * 0.01).collect(),
            &[nb, m, k],
        );
        let b = Tensor::from_vec(
            (0..nb * k * n).map(|i| ((i % 89) as f32 - 44.0) * 0.01).collect(),
            &[nb, k, n],
        );
        let whole = a.matmul(&b);
        for bi in [0usize, 31, 63] {
            let ai = a.narrow(0, bi, 1).reshape(&[m, k]);
            let bj = b.narrow(0, bi, 1).reshape(&[k, n]);
            let expect = ai.matmul(&bj);
            let got = whole.narrow(0, bi, 1).reshape(&[m, n]);
            assert_eq!(got, expect, "batch {bi}");
        }
    }

    #[test]
    fn batch1_intra_matrix_parallel_matches_reference() {
        // The graph-conv shape: one big [N, N] · [N, F] product, split
        // across row blocks. Must equal the naive reference kernel.
        let (m, k, n) = (203, 203, 48);
        let a = Tensor::from_vec(
            (0..m * k).map(|i| ((i % 113) as f32 - 56.0) * 0.013).collect(),
            &[m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|i| ((i % 127) as f32 - 63.0) * 0.011).collect(),
            &[k, n],
        );
        let got = a.matmul(&b);
        let mut want = vec![0.0f32; m * n];
        crate::gemm::matmul_naive(a.as_slice(), b.as_slice(), &mut want, m, k, n);
        for (g, w) in got.as_slice().iter().zip(&want) {
            // FMA builds round each addend once instead of twice.
            assert!((g - w).abs() <= 1e-4 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn transposed_variants_match_materialized_transpose_bitwise() {
        // Shapes cross the register-tile and KC boundaries and include
        // batched + broadcast cases; results must be bit-identical to
        // materialising the transpose.
        let cases: &[(&[usize], &[usize])] = &[
            (&[7, 5], &[7, 9]),          // tn: aᵀ[5,7]·b[7,9]
            (&[300, 13], &[300, 33]),    // tn across KC
            (&[4, 20, 6], &[4, 20, 11]), // batched tn
            (&[129, 64], &[64, 300]),    // plain shapes reused below for nt
        ];
        for (ash, bsh) in cases {
            let a = Tensor::from_vec(
                (0..ash.iter().product()).map(|i| ((i % 101) as f32 - 50.0) * 0.017).collect(),
                ash,
            );
            let b = Tensor::from_vec(
                (0..bsh.iter().product()).map(|i| ((i % 83) as f32 - 41.0) * 0.019).collect(),
                bsh,
            );
            if a.shape()[a.rank() - 2] == b.shape()[b.rank() - 2] {
                let want = a.t().matmul(&b);
                let got = a.matmul_tn(&b);
                assert_eq!(got.shape(), want.shape());
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(g.to_bits(), w.to_bits(), "tn {ash:?}·{bsh:?}: {g} vs {w}");
                }
            }
        }
        // nt: a[m,k]·bᵀ where b is stored [n,k]; batched + broadcast.
        for (ash, bsh) in [
            (vec![5, 7], vec![9, 7]),
            (vec![13, 300], vec![33, 300]),
            (vec![4, 20, 6], vec![4, 11, 6]),
            (vec![3, 1, 8, 17], vec![5, 12, 17]), // broadcast batch axes
        ] {
            let a = Tensor::from_vec(
                (0..ash.iter().product()).map(|i| ((i % 97) as f32 - 48.0) * 0.021).collect(),
                &ash,
            );
            let b = Tensor::from_vec(
                (0..bsh.iter().product()).map(|i| ((i % 89) as f32 - 44.0) * 0.023).collect(),
                &bsh,
            );
            let want = a.matmul(&b.t());
            let got = a.matmul_nt(&b);
            assert_eq!(got.shape(), want.shape());
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "nt {ash:?}·{bsh:?}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn shared_operand_with_empty_slices() {
        // Above the size floor with n = 0: an empty product, not a
        // division by a zero group count.
        let a = Tensor::ones(&[70, 70]);
        assert_eq!(a.matmul(&Tensor::zeros(&[3, 70, 0])).shape(), &[3, 70, 0]);
        assert_eq!(a.matmul_tn(&Tensor::zeros(&[3, 70, 0])).shape(), &[3, 70, 0]);
    }

    #[test]
    fn transpose_identity() {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let b = Tensor::arange(12).reshape(&[3, 4]);
        let lhs = a.matmul(&b).t();
        let rhs = b.t().matmul(&a.t());
        assert_eq!(lhs, rhs);
    }
}
