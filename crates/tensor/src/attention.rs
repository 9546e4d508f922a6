//! Fused scaled dot-product attention: `softmax(q·kᵀ·scale)·v` as one
//! kernel, bit-identical to the composed
//! `q.matmul(&k.t()).mul_scalar(scale).softmax(last).matmul(&v)`.
//!
//! The forward walks each `(batch, head)` matrix in tiles of
//! [`TILE_ROWS`] query rows. Per tile it runs
//! [`gemm::gemm_overwrite_bt`] for `q·kᵀ` (reading `k` in place), runs
//! the softmax row kernel shared with [`Tensor::softmax_last`] with the
//! scale fused into its max pass, and [`gemm::gemm_overwrite`]s the tile
//! against `v` into the output rows. When no gradient is needed the
//! tile lives in a per-task scratch buffer that stays in cache, so no
//! score-sized tensor is ever allocated; when one is, the tiles are
//! written into the full probability tensor `p` that backward reads.
//!
//! Why this equals the composition bit for bit: every GEMM adds its `k`
//! terms in ascending order whatever the row tiling (see [`gemm`]), the
//! `_bt`/`_at` kernels equal their transposed-copy counterparts, `x·s`
//! is one rounding either way, and the softmax row is the same code.
//! In backward, `gsᵀ·q` equals the composition's `(qᵀ·gs)ᵀ` because
//! `fma(a, b, c) = fma(b, a, c)` (and `c + a·b = c + b·a`).

use std::ops::Range;

use crate::gemm;
use crate::linalg::PAR_FLOPS;
use crate::mem;
use crate::pool;
use crate::shape::numel;
use crate::simd;
use crate::tensor::{SendMutPtr, Tensor};

/// Query rows per tile: a `32 × Lk` score tile (26 KB at 207 keys)
/// stays in L1/L2 between the GEMMs and the softmax passes.
const TILE_ROWS: usize = 32;

/// `[.., L, D]` → `(L, D)`, checking rank.
fn mat_dims(t: &Tensor, what: &str) -> (usize, usize) {
    let r = t.rank();
    assert!(r >= 2, "attention {what} needs rank >= 2, got {:?}", t.shape());
    (t.shape()[r - 2], t.shape()[r - 1])
}

impl Tensor {
    /// Fused `softmax(q·kᵀ·scale)·v` over equal leading axes:
    /// `q: [.., Lq, D]`, `k: [.., Lk, D]`, `v: [.., Lk, Dv]` →
    /// `[.., Lq, Dv]`. With `keep_p` also returns the attention
    /// probabilities `[.., Lq, Lk]` for [`Tensor::attention_backward`].
    pub(crate) fn attention(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        scale: f32,
        keep_p: bool,
    ) -> (Tensor, Option<Tensor>) {
        let (lq, dh) = mat_dims(q, "q");
        let (lk, dk) = mat_dims(k, "k");
        let (lv, dv) = mat_dims(v, "v");
        let lead = &q.shape()[..q.rank() - 2];
        assert!(
            k.shape()[..k.rank() - 2] == *lead && v.shape()[..v.rank() - 2] == *lead,
            "attention needs equal leading axes: q {:?}, k {:?}, v {:?}",
            q.shape(),
            k.shape(),
            v.shape()
        );
        assert_eq!(dk, dh, "attention q/k width mismatch: {:?} vs {:?}", q.shape(), k.shape());
        assert_eq!(lv, lk, "attention k/v length mismatch: {:?} vs {:?}", k.shape(), v.shape());
        let nb = numel(lead);
        let flops =
            2 * nb * lq * lk * (dh + dv) + (3 + simd::Unary::Exp.flops_per_elem()) * nb * lq * lk;
        let mut prof = traffic_obs::profile::op("elem", "attention_fwd");
        prof.set_flops(flops);
        prof.set_bytes((q.len() + k.len() + v.len() + nb * lq * dv) * 4);

        let mut out = mem::take_uninit(nb * lq * dv);
        let mut p = if keep_p { mem::take_uninit(nb * lq * lk) } else { Vec::new() };
        let (qd, kd, vd) = (q.as_slice(), k.as_slice(), v.as_slice());
        let (out_ptr, p_ptr) = (SendMutPtr(out.as_mut_ptr()), SendMutPtr(p.as_mut_ptr()));
        let tiles = lq.div_ceil(TILE_ROWS);
        let run = |tasks: Range<usize>| {
            let (out_ptr, p_ptr) = (out_ptr, p_ptr); // capture the Sync wrappers
            let mut scratch =
                if keep_p { Vec::new() } else { mem::take_uninit(TILE_ROWS.min(lq) * lk) };
            let mut bt = mem::take_uninit(gemm::bt_scratch_len(dh, lk));
            for task in tasks {
                let (bi, r0) = (task / tiles, task % tiles * TILE_ROWS);
                let rows = TILE_ROWS.min(lq - r0);
                let row0 = bi * lq + r0;
                // SAFETY: each task owns rows `row0..row0 + rows` of one
                // batch matrix, so its windows of `out` and `p` are
                // disjoint from every other task's; both vecs outlive the
                // joined dispatch.
                let (dst, s) = unsafe {
                    let dst = std::slice::from_raw_parts_mut(out_ptr.0.add(row0 * dv), rows * dv);
                    let s = if keep_p {
                        std::slice::from_raw_parts_mut(p_ptr.0.add(row0 * lk), rows * lk)
                    } else {
                        &mut scratch[..rows * lk]
                    };
                    (dst, s)
                };
                let kb = &kd[bi * lk * dh..(bi + 1) * lk * dh];
                let vb = &vd[bi * lk * dv..(bi + 1) * lk * dv];
                gemm::gemm_overwrite_bt(
                    &qd[row0 * dh..(row0 + rows) * dh],
                    kb,
                    &mut bt,
                    s,
                    rows,
                    dh,
                    lk,
                );
                if lk > 0 {
                    for row in s.chunks_exact_mut(lk) {
                        simd::softmax_row(row, Some(scale));
                    }
                }
                gemm::gemm_overwrite(s, vb, dst, rows, lk, dv);
            }
            mem::recycle(scratch);
            mem::recycle(bt);
        };
        if flops < PAR_FLOPS {
            run(0..nb * tiles);
        } else {
            pool::parallel_for(nb * tiles, 1, run);
        }
        let mut out_shape = lead.to_vec();
        out_shape.extend([lq, dv]);
        let p = keep_p.then(|| {
            let mut p_shape = lead.to_vec();
            p_shape.extend([lq, lk]);
            Tensor::from_vec(p, &p_shape)
        });
        (Tensor::from_vec(out, &out_shape), p)
    }

    /// Backward of [`Tensor::attention`] given the upstream gradient `g`
    /// and the kept probabilities `p`: `gp = g·vᵀ`, the softmax backward
    /// then `×scale` gives `gs`, and `(gq, gk, gv) = (gs·k, gsᵀ·q, pᵀ·g)`.
    pub(crate) fn attention_backward(
        g: &Tensor,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        p: &Tensor,
        scale: f32,
    ) -> (Tensor, Tensor, Tensor) {
        let _prof = traffic_obs::profile::op("elem", "attention_bwd");
        let gp = g.matmul_nt(v);
        let mut gs = Tensor::softmax_last_backward(&gp, p);
        gs.apply_unary_inplace(simd::Unary::MulS(scale));
        (gs.matmul(k), gs.matmul_tn(q), p.matmul_tn(g))
    }
}
