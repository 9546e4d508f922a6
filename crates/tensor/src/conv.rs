//! 2-D convolution via im2col/col2im (stride 1, arbitrary dilation).
//!
//! Traffic models convolve over `[batch, channels, nodes, time]` tensors with
//! `(1, k)` kernels (temporal convs) or square kernels; padding (e.g. causal
//! padding for dilated TCNs) is applied by the caller with [`Tensor::pad`].

use crate::pool;
use crate::tensor::{copy_runs, Tensor, ELEMENTWISE_PAR_THRESHOLD};

/// Output spatial size of a stride-1 dilated convolution (no padding).
pub fn conv_out_len(input: usize, kernel: usize, dilation: usize) -> usize {
    let span = (kernel - 1) * dilation + 1;
    assert!(span <= input, "kernel span {span} exceeds input length {input}");
    input - span + 1
}

/// Unfolds `[B, C, H, W]` into columns `[B, C*KH*KW, OH*OW]`.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, dh: usize, dw: usize) -> Tensor {
    assert_eq!(input.rank(), 4, "im2col expects [B, C, H, W]");
    let (b, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    let oh = conv_out_len(h, kh, dh);
    let ow = conv_out_len(w, kw, dw);
    let batch_block = c * kh * kw * oh * ow;
    // Every output slot is written exactly once by the run copies below.
    let mut out = crate::mem::take_uninit(b * batch_block);
    let data = input.as_slice();
    let mut prof = traffic_obs::profile::op("conv", "im2col");
    prof.set_bytes((data.len() + out.len()) * 4);
    let in_hw = h * w;
    let out_cols = oh * ow;
    // Each batch element owns one disjoint `batch_block` of the output,
    // so batches fan out across the pool; the per-batch copy loop is
    // unchanged and the small-tensor path runs inline as a single chunk.
    let chunk =
        if b > 1 && out.len() >= ELEMENTWISE_PAR_THRESHOLD { batch_block } else { out.len() };
    pool::parallel_chunks_mut(&mut out, chunk, |chunk_idx, dst| {
        let batches = chunk / batch_block;
        for local in 0..batches {
            let bi = chunk_idx * batches + local;
            let dst = &mut dst[local * batch_block..(local + 1) * batch_block];
            for ci in 0..c {
                let in_base = (bi * c + ci) * in_hw;
                for ki in 0..kh {
                    for kj in 0..kw {
                        // One run of `ow` elements per output row: the
                        // source walks the W axis with unit stride (only
                        // the kernel taps are dilated).
                        copy_runs(
                            dst,
                            ((ci * kh + ki) * kw + kj) * out_cols,
                            ow,
                            data,
                            in_base + ki * dh * w + kj * dw,
                            w,
                            ow,
                            oh,
                        );
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[b, c * kh * kw, oh * ow])
}

/// Folds columns `[B, C*KH*KW, OH*OW]` back to `[B, C, H, W]`, accumulating
/// overlapping positions (the adjoint of [`im2col`]).
#[allow(clippy::too_many_arguments)] // mirrors the im2col geometry parameters one-to-one
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    dh: usize,
    dw: usize,
) -> Tensor {
    assert_eq!(cols.rank(), 3, "col2im expects [B, C*KH*KW, OH*OW]");
    let b = cols.shape()[0];
    let oh = conv_out_len(h, kh, dh);
    let ow = conv_out_len(w, kw, dw);
    assert_eq!(cols.shape()[1], c * kh * kw);
    assert_eq!(cols.shape()[2], oh * ow);
    let batch_block = c * h * w;
    // The fold accumulates (`+=`), so the output must start zeroed.
    let mut out = crate::mem::take_zeroed(b * batch_block);
    let data = cols.as_slice();
    let mut prof = traffic_obs::profile::op("conv", "col2im");
    prof.set_bytes((data.len() + out.len()) * 4);
    let out_cols = oh * ow;
    // Overlapping kernel taps only collide within one batch element, so
    // batch-level chunks keep the scatter-accumulate race-free and the
    // per-batch accumulation order unchanged.
    let chunk =
        if b > 1 && out.len() >= ELEMENTWISE_PAR_THRESHOLD { batch_block } else { out.len() };
    pool::parallel_chunks_mut(&mut out, chunk, |chunk_idx, dst| {
        let batches = chunk / batch_block;
        for local in 0..batches {
            let bi = chunk_idx * batches + local;
            let dst = &mut dst[local * batch_block..(local + 1) * batch_block];
            for ci in 0..c {
                let out_base = ci * h * w;
                for ki in 0..kh {
                    for kj in 0..kw {
                        let row =
                            bi * c * kh * kw * out_cols + ((ci * kh + ki) * kw + kj) * out_cols;
                        for oi in 0..oh {
                            for oj in 0..ow {
                                dst[out_base + (oi + ki * dh) * w + oj + kj * dw] +=
                                    data[row + oi * ow + oj];
                            }
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[b, c, h, w])
}

impl Tensor {
    /// Stride-1 dilated 2-D convolution without padding.
    ///
    /// `self`: `[B, C, H, W]`, `weight`: `[O, C, KH, KW]` →
    /// `[B, O, OH, OW]`.
    pub fn conv2d(&self, weight: &Tensor, dh: usize, dw: usize) -> Tensor {
        assert_eq!(self.rank(), 4, "conv2d input must be [B, C, H, W]");
        assert_eq!(weight.rank(), 4, "conv2d weight must be [O, C, KH, KW]");
        let (b, c, h, w) = (self.shape()[0], self.shape()[1], self.shape()[2], self.shape()[3]);
        let (o, wc, kh, kw) =
            (weight.shape()[0], weight.shape()[1], weight.shape()[2], weight.shape()[3]);
        assert_eq!(c, wc, "conv2d channel mismatch: input {c} vs weight {wc}");
        let oh = conv_out_len(h, kh, dh);
        let ow = conv_out_len(w, kw, dw);
        let cols = im2col(self, kh, kw, dh, dw); // [B, C*KH*KW, OH*OW]
        let wmat = weight.reshape(&[o, c * kh * kw]);
        // [O, CKK] · [B, CKK, L] -> [B, O, L]
        let out = wmat.matmul(&cols);
        out.reshape(&[b, o, oh, ow])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_len() {
        assert_eq!(conv_out_len(12, 3, 1), 10);
        assert_eq!(conv_out_len(12, 2, 2), 10);
        assert_eq!(conv_out_len(12, 2, 4), 8);
    }

    #[test]
    fn conv_1x1_is_channel_mix() {
        // 1x1 conv == per-position linear map over channels.
        let x = Tensor::arange(2 * 3 * 2 * 2).reshape(&[2, 3, 2, 2]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0], &[2, 3, 1, 1]);
        let y = x.conv2d(&w, 1, 1);
        assert_eq!(y.shape(), &[2, 2, 2, 2]);
        // out channel 0 = in channel 0; out channel 1 = ch1 + ch2
        assert_eq!(y.at(&[0, 0, 1, 1]), x.at(&[0, 0, 1, 1]));
        assert_eq!(y.at(&[1, 1, 0, 1]), x.at(&[1, 1, 0, 1]) + x.at(&[1, 2, 0, 1]));
    }

    #[test]
    fn conv_temporal_kernel() {
        // (1, 2) kernel over time = x[t] + x[t+1] when weights are ones.
        let x = Tensor::arange(2 * 4).reshape(&[1, 1, 2, 4]);
        let w = Tensor::ones(&[1, 1, 1, 2]);
        let y = x.conv2d(&w, 1, 1);
        assert_eq!(y.shape(), &[1, 1, 2, 3]);
        assert_eq!(y.as_slice(), &[1.0, 3.0, 5.0, 9.0, 11.0, 13.0]);
    }

    #[test]
    fn dilated_conv_skips() {
        let x = Tensor::arange(8).reshape(&[1, 1, 1, 8]);
        let w = Tensor::ones(&[1, 1, 1, 2]);
        let y = x.conv2d(&w, 1, 2); // pairs (t, t+2)
        assert_eq!(y.shape(), &[1, 1, 1, 6]);
        assert_eq!(y.as_slice(), &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), c> == <x, col2im(c)> for random-ish tensors.
        let x = Tensor::arange(2 * 3 * 4).reshape(&[1, 2, 3, 4]);
        let (kh, kw, dh, dw) = (2, 2, 1, 1);
        let cols = im2col(&x, kh, kw, dh, dw);
        let c = Tensor::arange(cols.len()).reshape(cols.shape());
        let lhs: f32 = cols.as_slice().iter().zip(c.as_slice()).map(|(a, b)| a * b).sum();
        let folded = col2im(&c, 2, 3, 4, kh, kw, dh, dw);
        let rhs: f32 = x.as_slice().iter().zip(folded.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
