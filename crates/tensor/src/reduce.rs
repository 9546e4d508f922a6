//! Axis reductions, the last-axis row kernels (max, fused softmax and
//! its backward) and the `unbroadcast` adjoint used by autograd.

use crate::pool;
use crate::shape::{numel, strides_for};
use crate::tensor::{Tensor, ELEMENTWISE_PAR_THRESHOLD};

/// Runs `body(row, dst)` over the consecutive `width`-element rows of
/// `out`. Once `work` (elements read) reaches
/// [`ELEMENTWISE_PAR_THRESHOLD`], whole rows split across the pool;
/// each row is still computed by one call, so the result is the same at
/// any thread count.
fn for_each_row(
    out: &mut [f32],
    width: usize,
    work: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    if out.is_empty() {
        return;
    }
    let rows = out.len() / width;
    let per_task = if work < ELEMENTWISE_PAR_THRESHOLD {
        rows
    } else {
        rows.div_ceil(pool::effective_threads() * 2).max(1)
    };
    pool::parallel_chunks_mut(out, per_task * width, |ci, dst| {
        for (i, row) in dst.chunks_exact_mut(width).enumerate() {
            body(ci * per_task + i, row);
        }
    });
}

/// First-wins maximum of a row by `v > m` from `-inf` (see
/// [`Tensor::max_axis_keepdim`] for the NaN and signed-zero rules).
pub(crate) fn row_max(row: &[f32]) -> f32 {
    let mut m = f32::NEG_INFINITY;
    for &v in row {
        if v > m {
            m = v;
        }
    }
    m
}

impl Tensor {
    /// Sums over the given axes. With `keepdim` the reduced axes stay as
    /// size-1; otherwise they are removed.
    ///
    /// Output-slot-major: each output element owns its reduction, so
    /// slots parallelise across the worker pool while the per-slot
    /// accumulation order (ascending input offset) — and therefore the
    /// result — is identical at any thread count.
    pub fn sum_axes(&self, axes: &[usize], keepdim: bool) -> Tensor {
        let rank = self.rank();
        let mut reduce = vec![false; rank];
        for &a in axes {
            crate::shape::check_axis(a, rank);
            reduce[a] = true;
        }
        let kept_shape: Vec<usize> =
            self.shape().iter().enumerate().map(|(i, &d)| if reduce[i] { 1 } else { d }).collect();
        let out_len = numel(&kept_shape);
        let in_strides = strides_for(self.shape());
        // Offsets of the reduced subspace relative to a slot's base,
        // in ascending order (one odometer sweep, shared by all slots).
        let red_axes: Vec<usize> = (0..rank).filter(|&i| reduce[i]).collect();
        let red_len: usize = red_axes.iter().map(|&i| self.shape()[i]).product();
        let mut red_offsets = Vec::with_capacity(red_len);
        {
            let mut coords = vec![0usize; red_axes.len()];
            let mut off = 0usize;
            for _ in 0..red_len {
                red_offsets.push(off);
                for ci in (0..red_axes.len()).rev() {
                    let axis = red_axes[ci];
                    coords[ci] += 1;
                    off += in_strides[axis];
                    if coords[ci] < self.shape()[axis] {
                        break;
                    }
                    off -= coords[ci] * in_strides[axis];
                    coords[ci] = 0;
                }
            }
        }
        // Contiguous when the reduced subspace is a trailing block.
        let contiguous = red_offsets.last().map(|&o| o == red_len - 1).unwrap_or(true);
        let kept_axes: Vec<(usize, usize)> =
            (0..rank).filter(|&i| !reduce[i]).map(|i| (self.shape()[i], in_strides[i])).collect();
        let data = self.as_slice();
        let slot_base = |slot: usize| -> usize {
            let mut rem = slot;
            let mut base = 0usize;
            for &(dim, stride) in kept_axes.iter().rev() {
                base += (rem % dim) * stride;
                rem /= dim;
            }
            base
        };
        // Every slot is written exactly once (`*slot_out = acc`).
        let mut prof = traffic_obs::profile::op("elem", "sum_axes");
        prof.set_flops(self.len());
        prof.set_bytes((self.len() + out_len) * 4);
        let mut out = crate::mem::take_uninit(out_len);
        let chunk = if self.len() < ELEMENTWISE_PAR_THRESHOLD {
            out_len // single chunk → runs inline
        } else {
            out_len.div_ceil(pool::effective_threads() * 2).max(1)
        };
        pool::parallel_chunks_mut(&mut out, chunk, |ci, dst| {
            for (local, slot_out) in dst.iter_mut().enumerate() {
                let base = slot_base(ci * chunk + local);
                // Whole-slot reductions at any thread count: only the
                // TRAFFIC_SIMD_REDUCE flag (not threads or chunking)
                // can change the per-slot accumulation order.
                *slot_out = if contiguous {
                    crate::simd::sum(&data[base..base + red_len])
                } else {
                    let mut acc = 0.0f32;
                    for &off in &red_offsets {
                        acc += data[base + off];
                    }
                    acc
                };
            }
        });
        let t = Tensor::from_vec(out, &kept_shape);
        if keepdim {
            t
        } else {
            let squeezed: Vec<usize> = kept_shape
                .iter()
                .enumerate()
                .filter(|(i, _)| !reduce[*i])
                .map(|(_, &d)| d)
                .collect();
            t.reshape(&squeezed)
        }
    }

    /// Mean over the given axes.
    pub fn mean_axes(&self, axes: &[usize], keepdim: bool) -> Tensor {
        let count: usize = axes.iter().map(|&a| self.shape()[a]).product();
        self.sum_axes(axes, keepdim).mul_scalar(1.0 / count.max(1) as f32)
    }

    /// Maximum over a single axis (keepdim). Used for numerically stable
    /// softmax; not differentiable through our tape (softmax handles its own
    /// backward).
    ///
    /// Each output slot keeps the first input `v` with `v > max so far`,
    /// starting from `-inf`: NaNs are skipped, an all-NaN or empty slice
    /// gives `-inf`, and of `-0.0`/`+0.0` the first seen wins. Along the
    /// last axis the slots are contiguous rows, reduced whole per pool
    /// task, so the result is the same at any thread count.
    pub fn max_axis_keepdim(&self, axis: usize) -> Tensor {
        crate::shape::check_axis(axis, self.rank());
        let outer: usize = self.shape()[..axis].iter().product();
        let d = self.shape()[axis];
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut shape = self.shape().to_vec();
        shape[axis] = 1;
        let mut prof = traffic_obs::profile::op("elem", "max_axis");
        prof.set_flops(self.len());
        prof.set_bytes((self.len() + outer * inner) * 4);
        let data = self.as_slice();
        if inner == 1 {
            let mut out = crate::mem::take_uninit(outer);
            for_each_row(&mut out, 1, self.len(), |r, slot| {
                slot[0] = row_max(&data[r * d..(r + 1) * d]);
            });
            return Tensor::from_vec(out, &shape);
        }
        let mut out = crate::mem::take_filled(outer * inner, f32::NEG_INFINITY);
        for o in 0..outer {
            for k in 0..d {
                let base = (o * d + k) * inner;
                for i in 0..inner {
                    let v = data[base + i];
                    let slot = &mut out[o * inner + i];
                    if v > *slot {
                        *slot = v;
                    }
                }
            }
        }
        Tensor::from_vec(out, &shape)
    }

    /// Softmax along the last axis, one [`crate::simd::softmax_row`]
    /// per row: `m = max(x)` (as [`Tensor::max_axis_keepdim`], up to the
    /// sign of a zero maximum, which cannot change a value), `e =
    /// exp(x - m)` (as [`Tensor::exp`]), `s = Σe` (the same
    /// [`crate::simd::sum`] call `sum_axes` makes for a contiguous slot),
    /// then `e / s`. Every element goes through the same float
    /// operations on the same operands as the composed
    /// `max → sub → exp → sum_axes → div` chain, so the result is
    /// bit-identical to it.
    pub(crate) fn softmax_last(&self) -> Tensor {
        let d = *self.shape().last().expect("softmax_last needs rank >= 1");
        let n = self.len();
        let mut prof = traffic_obs::profile::op("elem", "softmax_fwd");
        prof.set_flops(n * (3 + crate::simd::Unary::Exp.flops_per_elem()));
        prof.set_bytes(n * 8);
        let x = self.as_slice();
        let mut out = crate::mem::take_uninit(n);
        for_each_row(&mut out, d, n, |r, y| {
            y.copy_from_slice(&x[r * d..(r + 1) * d]);
            crate::simd::softmax_row(y, None);
        });
        Tensor::from_vec(out, self.shape())
    }

    /// Backward of [`Tensor::softmax_last`] given its output `y`, fused
    /// per row: `t = g·y`, `dot = Σt`, then `(g − dot)·y` — the
    /// operations, in order, of the composed
    /// `(g - sum_axes(g * y)) * y`, so bit-identical to it.
    pub(crate) fn softmax_last_backward(g: &Tensor, y: &Tensor) -> Tensor {
        assert_eq!(g.shape(), y.shape(), "softmax backward shape mismatch");
        let d = *y.shape().last().expect("softmax_last_backward needs rank >= 1");
        let n = y.len();
        let mut prof = traffic_obs::profile::op("elem", "softmax_bwd");
        prof.set_flops(n * 4);
        prof.set_bytes(n * 12);
        let (gd, yd) = (g.as_slice(), y.as_slice());
        let mut out = crate::mem::take_uninit(n);
        for_each_row(&mut out, d, n, |r, dx| {
            let (gr, yr) = (&gd[r * d..(r + 1) * d], &yd[r * d..(r + 1) * d]);
            for ((t, &gv), &yv) in dx.iter_mut().zip(gr).zip(yr) {
                *t = gv * yv;
            }
            let dot = crate::simd::sum(dx);
            for ((o, &gv), &yv) in dx.iter_mut().zip(gr).zip(yr) {
                *o = (gv - dot) * yv;
            }
        });
        Tensor::from_vec(out, y.shape())
    }

    /// Adjoint of broadcasting: reduces `self` (shaped like the broadcast
    /// output) back to `target_shape` by summing over expanded axes.
    pub fn unbroadcast(&self, target_shape: &[usize]) -> Tensor {
        if self.shape() == target_shape {
            return self.clone();
        }
        let rank = self.rank();
        let offset = rank - target_shape.len();
        // Sum away leading extra axes plus axes where target had size 1.
        let mut axes: Vec<usize> = (0..offset).collect();
        for (i, &d) in target_shape.iter().enumerate() {
            if d == 1 && self.shape()[offset + i] != 1 {
                axes.push(offset + i);
            }
        }
        let reduced = self.sum_axes(&axes, true);
        reduced.reshape(target_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_one_axis() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let s0 = a.sum_axes(&[0], false);
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.as_slice(), &[3.0, 5.0, 7.0]);
        let s1 = a.sum_axes(&[1], true);
        assert_eq!(s1.shape(), &[2, 1]);
        assert_eq!(s1.as_slice(), &[3.0, 12.0]);
    }

    #[test]
    fn sum_multi_axis() {
        let a = Tensor::arange(24).reshape(&[2, 3, 4]);
        let s = a.sum_axes(&[0, 2], false);
        assert_eq!(s.shape(), &[3]);
        // axis-1 slice k sums rows k of both batches over last axis
        assert_eq!(s.as_slice(), &[60.0, 92.0, 124.0]);
    }

    #[test]
    fn mean_axes_matches_sum() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let m = a.mean_axes(&[0], false);
        assert_eq!(m.as_slice(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn max_axis() {
        let a = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0, 0.0, 6.0], &[2, 3]);
        let m = a.max_axis_keepdim(1);
        assert_eq!(m.shape(), &[2, 1]);
        assert_eq!(m.as_slice(), &[9.0, 6.0]);
        let m0 = a.max_axis_keepdim(0);
        assert_eq!(m0.as_slice(), &[4.0, 9.0, 6.0]);
    }

    #[test]
    fn max_axis_skips_nan_and_keeps_first_zero() {
        let nan = f32::NAN;
        let a = Tensor::from_vec(
            vec![-0.0, 0.0, -1.0, 0.0, -0.0, -2.0, nan, 2.0, nan, nan, nan, nan],
            &[4, 3],
        );
        let bits: Vec<u32> = a.max_axis_keepdim(1).as_slice().iter().map(|v| v.to_bits()).collect();
        let want =
            [(-0.0f32).to_bits(), 0.0f32.to_bits(), 2.0f32.to_bits(), f32::NEG_INFINITY.to_bits()];
        assert_eq!(bits, want);
    }

    #[test]
    fn unbroadcast_reverses_broadcast() {
        let a = Tensor::ones(&[2, 1, 3]);
        let big = a.broadcast_to(&[4, 2, 5, 3]);
        assert_eq!(big.shape(), &[4, 2, 5, 3]);
        let back = big.unbroadcast(&[2, 1, 3]);
        assert_eq!(back.shape(), &[2, 1, 3]);
        // each element was replicated 4*5 = 20 times
        assert!(back.as_slice().iter().all(|&v| v == 20.0));
    }

    #[test]
    fn broadcast_to_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = a.broadcast_to(&[2, 3]);
        assert_eq!(b.as_slice(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }
}
