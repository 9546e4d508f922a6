//! Convolution layers over `[B, C, N, T]` spatio-temporal tensors.

use rand::Rng;
use traffic_tensor::conv::im2col;
use traffic_tensor::{init, Tape, Tensor, Var};

use crate::param::{Param, ParamStore};

/// How a [`Conv2d`] pads its input along the time axis before convolving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalPadding {
    /// No padding — output shrinks by `(k-1)·dilation` (STGCN style).
    Valid,
    /// Left-pad by `(k-1)·dilation` so output length equals input length and
    /// position `t` only sees inputs `≤ t` (WaveNet causal convolution).
    Causal,
    /// Symmetric padding keeping the output length equal (odd kernels only).
    Same,
}

/// Stride-1 2-D convolution, `[B, C_in, N, T] -> [B, C_out, N, T']`.
///
/// Kernel height (node axis) is usually 1 in traffic models; spatial mixing
/// is done by graph convolutions instead.
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    kernel: (usize, usize),
    dilation: (usize, usize),
    padding: TemporalPadding,
}

impl Conv2d {
    /// Creates a conv layer with Kaiming-uniform weights.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize),
        dilation: (usize, usize),
        padding: TemporalPadding,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        if padding == TemporalPadding::Same {
            assert!(kernel.1 % 2 == 1, "Same padding requires odd temporal kernel");
        }
        let weight = store.add(
            format!("{prefix}.weight"),
            init::kaiming_uniform(&[out_channels, in_channels, kernel.0, kernel.1], rng),
        );
        let bias =
            bias.then(|| store.add(format!("{prefix}.bias"), Tensor::zeros(&[out_channels])));
        Conv2d { weight, bias, kernel, dilation, padding }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Forward pass on `[B, C, N, T]`.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        let dw = self.dilation.1;
        let x = self.pad(x, dw);
        let cols = self.unfold(&x, dw);
        self.apply(tape, x, cols, dw)
    }

    /// Pads `x` along time as configured, for temporal dilation `dw`.
    fn pad<'t>(&self, x: Var<'t>, dw: usize) -> Var<'t> {
        match self.padding {
            TemporalPadding::Valid => x,
            TemporalPadding::Causal => {
                let p = (self.kernel.1 - 1) * dw;
                x.pad(&[(0, 0), (0, 0), (0, 0), (p, 0)])
            }
            TemporalPadding::Same => {
                let p = (self.kernel.1 - 1) * dw / 2;
                x.pad(&[(0, 0), (0, 0), (0, 0), (p, p)])
            }
        }
    }

    /// The `im2col` unfold of an already padded input at temporal
    /// dilation `dw`.
    fn unfold(&self, x: &Var<'_>, dw: usize) -> Tensor {
        im2col(&x.value(), self.kernel.0, self.kernel.1, self.dilation.0, dw)
    }

    /// Convolution plus bias of a padded input `x` whose unfold is `cols`.
    fn apply<'t>(&self, tape: &'t Tape, x: Var<'t>, cols: Tensor, dw: usize) -> Var<'t> {
        let w = self.weight.var(tape);
        let y = x.conv2d_unfolded(&w, cols, self.dilation.0, dw);
        match &self.bias {
            Some(b) => {
                // bias broadcast over [B, C, N, T]: reshape to [C, 1, 1]
                let c = self.out_channels();
                y.add(&b.var(tape).reshape(&[c, 1, 1]))
            }
            None => y,
        }
    }
}

/// Gated temporal convolution used by STGCN and Graph-WaveNet:
/// `tanh(conv_f(x)) ⊙ sigmoid(conv_g(x))`.
pub struct GatedTemporalConv {
    filter: Conv2d,
    gate: Conv2d,
}

impl GatedTemporalConv {
    /// Builds the filter/gate pair with a shared configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_channels: usize,
        out_channels: usize,
        kernel_t: usize,
        dilation_t: usize,
        padding: TemporalPadding,
        rng: &mut impl Rng,
    ) -> Self {
        let filter = Conv2d::new(
            store,
            &format!("{prefix}.filter"),
            in_channels,
            out_channels,
            (1, kernel_t),
            (1, dilation_t),
            padding,
            true,
            rng,
        );
        let gate = Conv2d::new(
            store,
            &format!("{prefix}.gate"),
            in_channels,
            out_channels,
            (1, kernel_t),
            (1, dilation_t),
            padding,
            true,
            rng,
        );
        GatedTemporalConv { filter, gate }
    }

    /// `tanh(F(x)) ⊙ σ(G(x))` on `[B, C, N, T]`, as one fused tape node
    /// (`Var::gated_tanh_sigmoid`): single-pass forward and backward
    /// instead of three elementwise ops, bit-identical arithmetic.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        self.forward_dilated(tape, x, self.filter.dilation.1)
    }

    /// [`GatedTemporalConv::forward`] with the same weights run at
    /// temporal dilation `dilation`. Filter and gate read one unfold of
    /// `x`; each still records its own conv node (and, when padded, its
    /// own pad node), so the input gradient sums the two contributions
    /// exactly as two independent convs would.
    pub fn forward_dilated<'t>(&self, tape: &'t Tape, x: Var<'t>, dilation: usize) -> Var<'t> {
        let (xf, xg) = (self.filter.pad(x, dilation), self.gate.pad(x, dilation));
        let cols = self.filter.unfold(&xf, dilation);
        let f = self.filter.apply(tape, xf, cols.clone(), dilation);
        let g = self.gate.apply(tape, xg, cols, dilation);
        f.gated_tanh_sigmoid(&g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use traffic_tensor::Tape;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn valid_shrinks_time() {
        let mut store = ParamStore::new();
        let conv = Conv2d::new(
            &mut store,
            "c",
            2,
            4,
            (1, 3),
            (1, 1),
            TemporalPadding::Valid,
            true,
            &mut rng(),
        );
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 2, 5, 12]));
        let y = conv.forward(&tape, x);
        assert_eq!(y.shape(), vec![2, 4, 5, 10]);
    }

    #[test]
    fn causal_preserves_time_and_causality() {
        let mut store = ParamStore::new();
        let conv = Conv2d::new(
            &mut store,
            "c",
            1,
            1,
            (1, 2),
            (1, 2),
            TemporalPadding::Causal,
            false,
            &mut rng(),
        );
        let tape = Tape::new();
        // impulse at t = 5
        let mut imp = vec![0.0f32; 12];
        imp[5] = 1.0;
        let x = tape.constant(Tensor::from_vec(imp, &[1, 1, 1, 12]));
        let y = conv.forward(&tape, x).value();
        assert_eq!(y.shape(), &[1, 1, 1, 12]);
        // response must be zero strictly before t = 5
        for t in 0..5 {
            assert_eq!(y.at(&[0, 0, 0, t]), 0.0, "acausal leak at t={t}");
        }
    }

    #[test]
    fn same_keeps_length() {
        let mut store = ParamStore::new();
        let conv = Conv2d::new(
            &mut store,
            "c",
            1,
            3,
            (1, 3),
            (1, 1),
            TemporalPadding::Same,
            true,
            &mut rng(),
        );
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 1, 4, 7]));
        assert_eq!(conv.forward(&tape, x).shape(), vec![1, 3, 4, 7]);
    }

    #[test]
    fn gated_conv_bounded_output() {
        let mut store = ParamStore::new();
        let g = GatedTemporalConv::new(
            &mut store,
            "g",
            2,
            3,
            2,
            1,
            TemporalPadding::Causal,
            &mut rng(),
        );
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 2, 3, 6]));
        let y = g.forward(&tape, x).value();
        assert_eq!(y.shape(), &[1, 3, 3, 6]);
        // tanh × sigmoid is bounded by (-1, 1)
        assert!(y.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn gated_conv_shared_unfold_matches_two_convs_bitwise() {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for padding in [TemporalPadding::Valid, TemporalPadding::Causal] {
            let mut store = ParamStore::new();
            let mut r = rng();
            let g = GatedTemporalConv::new(&mut store, "g", 3, 3, 2, 2, padding, &mut r);
            let x = init::uniform(&[2, 3, 5, 9], -1.0, 1.0, &mut r);
            // Each pass: (output, input gradient, every parameter gradient),
            // with x also read by a later consumer, as a residual is.
            let run = |shared: bool| {
                let tape = Tape::new();
                let xv = tape.leaf(x.clone(), true);
                let y = if shared {
                    g.forward(&tape, xv)
                } else {
                    g.filter.forward(&tape, xv).gated_tanh_sigmoid(&g.gate.forward(&tape, xv))
                };
                let t = y.shape()[3];
                let loss = y.add(&xv.narrow(3, 9 - t, t)).powf(2.0).sum_all();
                let grads = tape.backward(loss);
                store.zero_grads();
                store.capture_grads(&tape, &grads);
                let mut out = vec![bits(&y.value()), bits(grads.get(xv).unwrap())];
                out.extend(store.params().iter().map(|p| bits(&p.grad().unwrap())));
                out
            };
            assert_eq!(run(true), run(false), "{padding:?}");
        }
    }

    #[test]
    fn grads_reach_conv_weights() {
        let mut store = ParamStore::new();
        let conv = Conv2d::new(
            &mut store,
            "c",
            2,
            2,
            (1, 2),
            (1, 1),
            TemporalPadding::Causal,
            true,
            &mut rng(),
        );
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 2, 2, 4]));
        let loss = conv.forward(&tape, x).powf(2.0).mean_all();
        let grads = tape.backward(loss);
        store.capture_grads(&tape, &grads);
        for p in store.params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }
}
