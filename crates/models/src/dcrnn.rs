//! DCRNN (Li et al., ICLR 2018): diffusion convolutional recurrent neural
//! network. GRU cells whose gate transforms are diffusion convolutions over
//! forward/backward random-walk transition matrices, arranged encoder →
//! decoder with scheduled sampling.
//!
//! The autoregressive decoder is the source of the error accumulation the
//! paper observes at long horizons (§VI).

use rand::rngs::StdRng;
use rand::Rng;
use traffic_nn::{DiffusionConv, Linear, ParamStore};
use traffic_tensor::{Tape, Tensor, Var};

use crate::common::{GraphContext, TrafficModel, TrainCtx};
use crate::meta::{taxonomy, ModelMeta};

/// DCRNN hyper-parameters.
#[derive(Debug, Clone)]
pub struct DcrnnConfig {
    /// GRU hidden width.
    pub hidden: usize,
    /// Stacked DCGRU layers in encoder and decoder (the original uses 2).
    pub num_layers: usize,
    /// Diffusion steps `K`.
    pub diffusion_steps: usize,
    /// Input horizon.
    pub t_in: usize,
    /// Output horizon.
    pub t_out: usize,
    /// Input feature count.
    pub in_features: usize,
}

impl Default for DcrnnConfig {
    fn default() -> Self {
        DcrnnConfig {
            hidden: 16,
            num_layers: 2,
            diffusion_steps: 2,
            t_in: 12,
            t_out: 12,
            in_features: 2,
        }
    }
}

/// GRU cell with diffusion-convolution gates, over `[B, N, F]` states.
struct DcGruCell {
    gates: DiffusionConv,
    candidate: DiffusionConv,
    hidden: usize,
}

impl DcGruCell {
    fn new(
        store: &mut ParamStore,
        prefix: &str,
        ctx: &GraphContext,
        k: usize,
        input: usize,
        hidden: usize,
        rng: &mut StdRng,
    ) -> Self {
        let gates = DiffusionConv::new(
            store,
            &format!("{prefix}.gates"),
            ctx.supports.clone(),
            0,
            k,
            input + hidden,
            2 * hidden,
            rng,
        );
        let candidate = DiffusionConv::new(
            store,
            &format!("{prefix}.candidate"),
            ctx.supports.clone(),
            0,
            k,
            input + hidden,
            hidden,
            rng,
        );
        DcGruCell { gates, candidate, hidden }
    }

    /// `x: [B, N, F]`, `h: [B, N, H]` → `[B, N, H]`.
    fn step<'t>(&self, tape: &'t Tape, x: Var<'t>, h: Var<'t>) -> Var<'t> {
        let xh = Var::concat(&[x, h], 2);
        let rz = self.gates.forward(tape, xh).sigmoid();
        let r = rz.narrow(2, 0, self.hidden);
        let z = rz.narrow(2, self.hidden, self.hidden);
        let xrh = Var::concat(&[x, r.mul(&h)], 2);
        let c = self.candidate.forward(tape, xrh).tanh();
        z.mul(&h).add(&z.neg().add_scalar(1.0).mul(&c))
    }
}

/// One time step through stacked cells: `inp` feeds layer 0, each
/// layer's new state feeds the next. Returns the new states.
fn step_stack<'t>(
    cells: &[DcGruCell],
    tape: &'t Tape,
    inp: Var<'t>,
    hs: &[Var<'t>],
) -> Vec<Var<'t>> {
    let mut inp = inp;
    cells
        .iter()
        .zip(hs)
        .map(|(cell, &h)| {
            inp = cell.step(tape, inp, h);
            inp
        })
        .collect()
}

/// The DCRNN model.
pub struct Dcrnn {
    store: ParamStore,
    encoder: Vec<DcGruCell>,
    decoder: Vec<DcGruCell>,
    proj: Linear,
    cfg: DcrnnConfig,
}

impl Dcrnn {
    /// Builds DCRNN for a graph context.
    pub fn new(ctx: &GraphContext, cfg: DcrnnConfig, rng: &mut StdRng) -> Self {
        assert!(cfg.num_layers >= 1);
        let mut store = ParamStore::new();
        let encoder = (0..cfg.num_layers)
            .map(|l| {
                let input = if l == 0 { cfg.in_features } else { cfg.hidden };
                DcGruCell::new(
                    &mut store,
                    &format!("encoder{l}"),
                    ctx,
                    cfg.diffusion_steps,
                    input,
                    cfg.hidden,
                    rng,
                )
            })
            .collect();
        // Decoder input: previous prediction (1 feature) at layer 0.
        let decoder = (0..cfg.num_layers)
            .map(|l| {
                let input = if l == 0 { 1 } else { cfg.hidden };
                DcGruCell::new(
                    &mut store,
                    &format!("decoder{l}"),
                    ctx,
                    cfg.diffusion_steps,
                    input,
                    cfg.hidden,
                    rng,
                )
            })
            .collect();
        let proj = Linear::new(&mut store, "proj", cfg.hidden, 1, true, rng);
        Dcrnn { store, encoder, decoder, proj, cfg }
    }
}

impl TrafficModel for Dcrnn {
    fn name(&self) -> &'static str {
        "DCRNN"
    }

    fn meta(&self) -> ModelMeta {
        *taxonomy("DCRNN").expect("taxonomy entry")
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn forward<'t>(
        &self,
        tape: &'t Tape,
        x: Var<'t>,
        mut train: Option<&mut TrainCtx<'_>>,
    ) -> Var<'t> {
        let shape = x.shape();
        let (b, t_in, n, _c) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(t_in, self.cfg.t_in);
        // Each encoder and decoder time step is one `Tape::scoped` step:
        // inside an inference region only its new states cross back to
        // `tape`, and its gate and candidate intermediates are freed before
        // the next step. A step's inputs are `[x or the decoder input, h_0,
        // .., h_{L-1}]`. Encode through the stacked layers.
        let mut enc = vec![x];
        enc.extend(
            (0..self.cfg.num_layers)
                .map(|_| tape.constant(Tensor::zeros(&[b, n, self.cfg.hidden]))),
        );
        for t in 0..t_in {
            let h = tape.scoped(&enc, |tape, v| {
                let inp = v[0].narrow(1, t, 1).reshape(&[b, n, self.cfg.in_features]);
                step_stack(&self.encoder, tape, inp, &v[1..])
            });
            enc.truncate(1);
            enc.extend(h);
        }
        // Decode autoregressively from a GO (zero) symbol; decoder layers
        // start from the encoder's final states. The step's prediction is
        // its last output.
        let mut dec = enc;
        dec[0] = tape.constant(Tensor::zeros(&[b, n, 1]));
        let mut outs = Vec::with_capacity(self.cfg.t_out);
        for t in 0..self.cfg.t_out {
            let mut step = tape.scoped(&dec, |tape, v| {
                let mut h = step_stack(&self.decoder, tape, v[0], &v[1..]);
                let y = self.proj.forward(tape, *h.last().expect("at least one layer"));
                h.push(y); // [B, N, 1]
                h
            });
            let y = step.pop().expect("prediction");
            outs.push(y.reshape(&[b, 1, n]));
            // Scheduled sampling: with probability teacher_prob feed the
            // ground truth, else the model's own prediction.
            let use_teacher = train.as_deref_mut().is_some_and(|ctx| {
                ctx.teacher.is_some() && ctx.rng.gen::<f32>() < ctx.teacher_prob
            });
            let dec_in = if use_teacher {
                let teach = train.as_deref().and_then(|c| c.teacher).expect("checked above");
                tape.constant(teach.narrow(1, t, 1).reshape(&[b, n, 1]))
            } else {
                y
            };
            dec = std::iter::once(dec_in).chain(step).collect();
        }
        Var::concat(&outs, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use traffic_graph::freeway_corridor;

    fn setup() -> (GraphContext, StdRng) {
        let mut rng = StdRng::seed_from_u64(6);
        let net = freeway_corridor(6, 1.0, &mut rng);
        (GraphContext::from_network(&net, 4), rng)
    }

    #[test]
    fn forward_shapes() {
        let (ctx, mut rng) = setup();
        let model = Dcrnn::new(&ctx, DcrnnConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 12, 6, 2]));
        let y = model.forward(&tape, x, None);
        assert_eq!(y.shape(), vec![2, 12, 6]);
    }

    #[test]
    fn scheduled_sampling_uses_teacher() {
        let (ctx, mut rng) = setup();
        let model = Dcrnn::new(&ctx, DcrnnConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[1, 12, 6, 2]));
        let teacher = Tensor::ones(&[1, 12, 6]);
        let mut trng = StdRng::seed_from_u64(1);
        let mut always = TrainCtx { rng: &mut trng, teacher: Some(&teacher), teacher_prob: 1.0 };
        let y1 = model.forward(&tape, x, Some(&mut always)).value();
        let tape2 = Tape::new();
        let x2 = tape2.constant(Tensor::zeros(&[1, 12, 6, 2]));
        let mut trng2 = StdRng::seed_from_u64(1);
        let mut never = TrainCtx { rng: &mut trng2, teacher: Some(&teacher), teacher_prob: 0.0 };
        let y2 = model.forward(&tape2, x2, Some(&mut never)).value();
        // Feeding teacher values must change downstream predictions.
        assert_ne!(y1, y2);
        // But the first step (before any feedback) must be identical.
        assert_eq!(y1.at(&[0, 0, 0]), y2.at(&[0, 0, 0]));
    }

    #[test]
    fn grads_reach_all_params() {
        let (ctx, mut rng) = setup();
        let model = Dcrnn::new(&ctx, DcrnnConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(traffic_tensor::init::uniform(&[1, 12, 6, 2], -1.0, 1.0, &mut rng));
        let y = model.forward(&tape, x, None);
        let grads = tape.backward(y.powf(2.0).mean_all());
        model.store().capture_grads(&tape, &grads);
        for p in model.store().params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }

    #[test]
    fn taxonomy_is_spatial_rnn() {
        let (ctx, mut rng) = setup();
        let model = Dcrnn::new(&ctx, DcrnnConfig::default(), &mut rng);
        let m = model.meta();
        assert_eq!(m.spatial, crate::meta::SpatialComponent::SpatialGcn);
        assert_eq!(m.temporal, crate::meta::TemporalComponent::Rnn);
    }
}
