//! STGCN (Yu et al., IJCAI 2018): spatio-temporal graph convolutional
//! network. Two "sandwich" ST-Conv blocks (gated temporal conv → Chebyshev
//! graph conv → gated temporal conv) followed by an output temporal conv.
//!
//! STGCN is the paper's **many-to-one** model: it natively predicts one
//! step ahead and produces multi-step forecasts by autoregressive rollout —
//! the reason Table III shows the shortest training time per epoch but a
//! long inference time.

use rand::rngs::StdRng;
use traffic_nn::{ChebConv, DiffusionConv, GatedTemporalConv, ParamStore, TemporalPadding};
use traffic_tensor::{Tape, Var};

use crate::common::{advance_time_of_day, to_conv_layout, GraphContext, TrafficModel, TrainCtx};
use crate::meta::{taxonomy, ModelMeta};

/// Which graph convolution the spatial stage uses — the paper's Table II
/// spectral/spatial axis, exposed as an ablation knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialKind {
    /// Chebyshev polynomials of the scaled Laplacian (the original STGCN).
    Spectral,
    /// Random-walk diffusion convolution (DCRNN/Graph-WaveNet style).
    Diffusion,
}

/// STGCN hyper-parameters (width-reduced defaults; see DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct StgcnConfig {
    /// Spectral (original) or spatial (ablation) graph convolution.
    pub spatial_kind: SpatialKind,
    /// Channels of each ST-Conv block: (temporal-out, spatial-out,
    /// temporal-out).
    pub block_channels: (usize, usize, usize),
    /// Temporal kernel size.
    pub kt: usize,
    /// Chebyshev polynomial order.
    pub cheb_k: usize,
    /// Input horizon (must satisfy `t_in = 4(kt−1) + k_out` with the final
    /// kernel chosen below).
    pub t_in: usize,
    /// Output horizon produced by rollout.
    pub t_out: usize,
    /// Input feature count.
    pub in_features: usize,
}

impl Default for StgcnConfig {
    fn default() -> Self {
        StgcnConfig {
            spatial_kind: SpatialKind::Spectral,
            block_channels: (16, 8, 16),
            kt: 3,
            cheb_k: 3,
            t_in: 12,
            t_out: 12,
            in_features: 2,
        }
    }
}

enum SpatialConv {
    Spectral(ChebConv),
    Diffusion(DiffusionConv),
}

impl SpatialConv {
    fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        match self {
            SpatialConv::Spectral(c) => c.forward(tape, x),
            SpatialConv::Diffusion(c) => c.forward(tape, x),
        }
    }
}

struct StConvBlock {
    t1: GatedTemporalConv,
    spatial: SpatialConv,
    t2: GatedTemporalConv,
}

/// The STGCN model.
pub struct Stgcn {
    store: ParamStore,
    blocks: Vec<StConvBlock>,
    out_conv: GatedTemporalConv,
    head: traffic_nn::Conv2d,
    cfg: StgcnConfig,
}

impl Stgcn {
    /// Builds STGCN for a graph context.
    pub fn new(ctx: &GraphContext, cfg: StgcnConfig, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        let (c1, c2, c3) = cfg.block_channels;
        let mut blocks = Vec::new();
        let mut in_c = cfg.in_features;
        for b in 0..2 {
            let t1 = GatedTemporalConv::new(
                &mut store,
                &format!("block{b}.t1"),
                in_c,
                c1,
                cfg.kt,
                1,
                TemporalPadding::Valid,
                rng,
            );
            let spatial = match cfg.spatial_kind {
                SpatialKind::Spectral => SpatialConv::Spectral(ChebConv::new(
                    &mut store,
                    &format!("block{b}.spatial"),
                    ctx.scaled_laplacian.clone(),
                    cfg.cheb_k,
                    c1,
                    c2,
                    rng,
                )),
                SpatialKind::Diffusion => SpatialConv::Diffusion(DiffusionConv::new(
                    &mut store,
                    &format!("block{b}.spatial"),
                    ctx.supports.clone(),
                    0,
                    cfg.cheb_k - 1,
                    c1,
                    c2,
                    rng,
                )),
            };
            let t2 = GatedTemporalConv::new(
                &mut store,
                &format!("block{b}.t2"),
                c2,
                c3,
                cfg.kt,
                1,
                TemporalPadding::Valid,
                rng,
            );
            blocks.push(StConvBlock { t1, spatial, t2 });
            in_c = c3;
        }
        let out_conv = GatedTemporalConv::new(
            &mut store,
            "out.temporal",
            c3,
            c3,
            out_kernel(&cfg),
            1,
            TemporalPadding::Valid,
            rng,
        );
        let head = traffic_nn::Conv2d::new(
            &mut store,
            "out.head",
            c3,
            1,
            (1, 1),
            (1, 1),
            TemporalPadding::Valid,
            true,
            rng,
        );
        Stgcn { store, blocks, out_conv, head, cfg }
    }

    /// One-step-ahead prediction: `[B, T_in, N, C] -> [B, N]`.
    pub fn forward_step<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        assert_eq!(x.shape()[1], self.cfg.t_in, "STGCN expects t_in = {}", self.cfg.t_in);
        self.pass(tape, to_conv_layout(x), None)
    }

    /// The layer pass on `[B, C, N, T]` (conv layout), returning `[B, N]`.
    ///
    /// With `tails`, every temporal conv first prepends the columns it kept
    /// from the previous rollout step (none on the first step), then keeps
    /// the last `k − 1` columns of that widened input for the next step.
    /// After a first pass over the full window, a pass fed the window's one
    /// new column therefore convolves exactly `k` columns per layer and
    /// computes only the newest output column of each. The spatial conv
    /// and the 1×1 head act per time slice and keep nothing.
    fn pass<'t>(&self, tape: &'t Tape, x: Var<'t>, mut tails: Option<&mut Tails<'t>>) -> Var<'t> {
        let shape = x.shape();
        let (b, n) = (shape[0], shape[2]);
        let mut slot = 0;
        let mut temporal = |conv: &GatedTemporalConv, k: usize, h: Var<'t>| {
            let Some(tails) = tails.as_deref_mut().filter(|_| k > 1) else {
                return conv.forward(tape, h);
            };
            let h = match tails.get(slot) {
                Some(&tail) => Var::concat(&[tail, h], 3),
                None => h,
            };
            let t = h.shape()[3];
            let tail = h.narrow(3, t - (k - 1), k - 1);
            match tails.get_mut(slot) {
                Some(kept) => *kept = tail,
                None => tails.push(tail),
            }
            slot += 1;
            conv.forward(tape, h)
        };
        let mut h = x;
        for block in &self.blocks {
            h = temporal(&block.t1, self.cfg.kt, h);
            // spatial conv per time slice: [B, C, N, T'] -> [B*T', N, C]
            let hs = h.shape();
            let (c, tt) = (hs[1], hs[3]);
            let flat = h.permute(&[0, 3, 2, 1]).reshape(&[b * tt, n, c]);
            let sp = block.spatial.forward(tape, flat).relu();
            let c2 = sp.shape()[2];
            h = sp.reshape(&[b, tt, n, c2]).permute(&[0, 3, 2, 1]);
            h = temporal(&block.t2, self.cfg.kt, h);
        }
        let h = temporal(&self.out_conv, out_kernel(&self.cfg), h); // [B, C, N, 1]
        let y = self.head.forward(tape, h); // [B, 1, N, 1]
        y.reshape(&[b, n])
    }
}

/// Per temporal conv with a kernel wider than one column, in pass order:
/// the last `k − 1` columns of its input along time, carried from one
/// rollout step to the next (the queues of Fast WaveNet generation,
/// Paine et al. 2016).
type Tails<'t> = Vec<Var<'t>>;

/// Kernel width of the output temporal conv: after two ST-Conv blocks the
/// time axis has `t_in − 4(kt−1)` steps left, and this conv collapses it
/// to one.
fn out_kernel(cfg: &StgcnConfig) -> usize {
    assert!(cfg.t_in > 4 * (cfg.kt - 1), "t_in too small for two ST-Conv blocks");
    cfg.t_in - 4 * (cfg.kt - 1)
}

impl TrafficModel for Stgcn {
    fn name(&self) -> &'static str {
        "STGCN"
    }

    fn meta(&self) -> ModelMeta {
        *taxonomy("STGCN").expect("taxonomy entry")
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>, train: Option<&mut TrainCtx<'_>>) -> Var<'t> {
        let shape = x.shape();
        let (b, n) = (shape[0], shape[2]);
        if train.is_some() {
            // Many-to-one training: learn the 1-step prediction only. The
            // trainer pairs this with `train_horizon() == 1`.
            let one = self.forward_step(tape, x);
            return one.reshape(&[b, 1, n]);
        }
        // Inference: autoregressive rollout to t_out steps. The first step
        // runs the full window; every later step feeds the pass only the
        // window's new column, `(prediction, next time-of-day)`, and the
        // layers' tails supply the rest.
        let t = shape[1];
        assert_eq!(t, self.cfg.t_in, "STGCN expects t_in = {}", self.cfg.t_in);
        // Time-of-day of the window's last step: [B, 1, N, 1], which is
        // also the conv layout of one channel at one time step.
        let mut tod = x.value().narrow(1, t - 1, 1).narrow(3, 1, 1);
        // One `Tape::scoped` step per pass: `[pass input, tails..]` in,
        // `[prediction, tails..]` out, so inside an inference region a
        // step's layer intermediates are freed before the next step.
        let mut carry = vec![to_conv_layout(x)];
        let mut steps = Vec::with_capacity(self.cfg.t_out);
        loop {
            let mut out = tape.scoped(&carry, |tape, v| {
                let mut tails: Tails<'_> = v[1..].to_vec();
                let pred = self.pass(tape, v[0], Some(&mut tails));
                std::iter::once(pred).chain(tails).collect()
            });
            let pred = out[0];
            steps.push(pred.reshape(&[b, 1, n]));
            if steps.len() == self.cfg.t_out {
                break;
            }
            tod = tod.map(advance_time_of_day);
            out[0] = Var::concat(&[pred.reshape(&[b, 1, n, 1]), tape.constant(tod.clone())], 1);
            carry = out;
        }
        Var::concat(&steps, 1)
    }
}

impl Stgcn {
    /// Number of target steps the training loss covers (many-to-one: 1).
    pub fn train_horizon(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use traffic_graph::freeway_corridor;
    use traffic_tensor::Tensor;

    fn setup() -> (GraphContext, StdRng) {
        let mut rng = StdRng::seed_from_u64(5);
        let net = freeway_corridor(8, 1.0, &mut rng);
        (GraphContext::from_network(&net, 4), rng)
    }

    #[test]
    fn one_step_shape() {
        let (ctx, mut rng) = setup();
        let model = Stgcn::new(&ctx, StgcnConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 12, 8, 2]));
        let y = model.forward_step(&tape, x);
        assert_eq!(y.shape(), vec![2, 8]);
    }

    #[test]
    fn rollout_produces_full_horizon() {
        let (ctx, mut rng) = setup();
        let model = Stgcn::new(&ctx, StgcnConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[1, 12, 8, 2]));
        let y = model.forward(&tape, x, None);
        assert_eq!(y.shape(), vec![1, 12, 8]);
        assert!(!y.value().has_non_finite());
    }

    #[test]
    fn train_mode_single_step() {
        let (ctx, mut rng) = setup();
        let model = Stgcn::new(&ctx, StgcnConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 12, 8, 2]));
        let mut trng = StdRng::seed_from_u64(0);
        let mut tctx = TrainCtx { rng: &mut trng, teacher: None, teacher_prob: 0.0 };
        let y = model.forward(&tape, x, Some(&mut tctx));
        assert_eq!(y.shape(), vec![2, 1, 8]);
        assert_eq!(model.train_horizon(), 1);
    }

    #[test]
    fn grads_reach_all_params() {
        let (ctx, mut rng) = setup();
        let model = Stgcn::new(&ctx, StgcnConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(traffic_tensor::init::uniform(&[1, 12, 8, 2], -1.0, 1.0, &mut rng));
        let y = model.forward_step(&tape, x);
        let grads = tape.backward(y.powf(2.0).mean_all());
        model.store().capture_grads(&tape, &grads);
        for p in model.store().params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }

    /// Test oracle: rebuilds the input window after predicting one step,
    /// dropping the oldest step and appending `(prediction, next
    /// time-of-day)`.
    fn extend_window<'t>(tape: &'t Tape, x: Var<'t>, pred: Var<'t>) -> Var<'t> {
        let shape = x.shape();
        let (b, t, n) = (shape[0], shape[1], shape[2]);
        let last_tod = x.narrow(1, t - 1, 1).narrow(3, 1, 1).value(); // [B,1,N,1]
        let next_tod = tape.constant(last_tod.map(advance_time_of_day));
        let val = pred.reshape(&[b, 1, n, 1]);
        let step = Var::concat(&[val, next_tod], 3); // [B,1,N,2]
        Var::concat(&[x.narrow(1, 1, t - 1), step], 1)
    }

    /// Test oracle: the full-recompute rollout, which re-runs the whole
    /// network on every shifted window.
    fn full_rollout<'t>(model: &Stgcn, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        let shape = x.shape();
        let (b, n) = (shape[0], shape[2]);
        let mut window = x;
        let mut steps = Vec::new();
        for _ in 0..model.cfg.t_out {
            let pred = model.forward_step(tape, window);
            steps.push(pred.reshape(&[b, 1, n]));
            window = extend_window(tape, window, pred);
        }
        Var::concat(&steps, 1)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn window_extension_shifts_time() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(
            (0..12 * 8 * 2).map(|i| i as f32 / 100.0).collect(),
            &[1, 12, 8, 2],
        ));
        let pred = tape.constant(Tensor::full(&[1, 8], 9.0));
        let w2 = extend_window(&tape, x, pred);
        assert_eq!(w2.shape(), vec![1, 12, 8, 2]);
        // first step of new window == second step of old
        assert_eq!(w2.value().at(&[0, 0, 3, 0]), x.value().at(&[0, 1, 3, 0]));
        // last value feature is the prediction
        assert_eq!(w2.value().at(&[0, 11, 5, 0]), 9.0);
        // last time-of-day feature is one step past the old window's last
        assert_eq!(
            w2.value().at(&[0, 11, 5, 1]),
            advance_time_of_day(x.value().at(&[0, 11, 5, 1]))
        );
    }

    #[test]
    fn incremental_rollout_matches_full_recompute_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = freeway_corridor(9, 1.0, &mut rng);
        let ctx = GraphContext::from_network(&net, 4);
        let configs = [
            StgcnConfig::default(),
            StgcnConfig { spatial_kind: SpatialKind::Diffusion, ..Default::default() },
            StgcnConfig { t_out: 1, ..Default::default() },
            StgcnConfig { kt: 2, ..Default::default() },
            StgcnConfig { kt: 2, spatial_kind: SpatialKind::Diffusion, ..Default::default() },
            // t_in = 4(kt−1) + 1: the output conv is one column wide.
            StgcnConfig { t_in: 9, ..Default::default() },
        ];
        for cfg in configs {
            let model = Stgcn::new(&ctx, cfg.clone(), &mut rng);
            // Non-zero biases and weights away from their init.
            for p in model.store().params() {
                p.set_value(traffic_tensor::init::uniform(&p.shape(), -0.5, 0.5, &mut rng));
            }
            for batch in [1, 3] {
                let values =
                    traffic_tensor::init::uniform(&[batch, cfg.t_in, 9, 1], -2.0, 2.0, &mut rng);
                let tod =
                    traffic_tensor::init::uniform(&[batch, cfg.t_in, 9, 1], 0.0, 1.0, &mut rng);
                let x = Tensor::concat(&[&values, &tod], 3);
                for cap in [1, 2] {
                    for inference in [true, false] {
                        let _cap = traffic_tensor::pool::ThreadCapGuard::new(cap);
                        let _inf = inference.then(traffic_tensor::inference::InferenceGuard::enter);
                        let tape = Tape::new();
                        let got = model.forward(&tape, tape.constant(x.clone()), None).value();
                        let tape = Tape::new();
                        let want = full_rollout(&model, &tape, tape.constant(x.clone())).value();
                        assert_eq!(got.shape(), &[batch, cfg.t_out, 9]);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{cfg:?} batch {batch} cap {cap} inference {inference}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn param_count_reasonable() {
        let (ctx, mut rng) = setup();
        let model = Stgcn::new(&ctx, StgcnConfig::default(), &mut rng);
        let n = model.num_params();
        assert!(n > 1000 && n < 100_000, "param count {n}");
    }
}

#[cfg(test)]
mod spatial_kind_tests {
    use super::*;
    use rand::SeedableRng;
    use traffic_graph::freeway_corridor;
    use traffic_tensor::Tensor;

    #[test]
    fn diffusion_variant_builds_and_runs() {
        let mut rng = StdRng::seed_from_u64(33);
        let net = freeway_corridor(8, 1.0, &mut rng);
        let ctx = GraphContext::from_network(&net, 4);
        let cfg = StgcnConfig { spatial_kind: SpatialKind::Diffusion, ..Default::default() };
        let model = Stgcn::new(&ctx, cfg, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[1, 12, 8, 2]));
        let y = model.forward(&tape, x, None);
        assert_eq!(y.shape(), vec![1, 12, 8]);
        assert!(!y.value().has_non_finite());
    }

    #[test]
    fn variants_have_different_parameterisations() {
        let mut rng = StdRng::seed_from_u64(34);
        let net = freeway_corridor(8, 1.0, &mut rng);
        let ctx = GraphContext::from_network(&net, 4);
        let spectral = Stgcn::new(&ctx, StgcnConfig::default(), &mut rng);
        let diffusion = Stgcn::new(
            &ctx,
            StgcnConfig { spatial_kind: SpatialKind::Diffusion, ..Default::default() },
            &mut rng,
        );
        // K-order Cheb: K weight slots; 2-support diffusion with K-1 steps:
        // 1 + 2(K-1) slots — different parameter counts.
        assert_ne!(spectral.num_params(), diffusion.num_params());
    }
}
