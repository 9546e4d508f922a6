//! ST-MetaNet (Pan et al., KDD 2019): deep meta learning for traffic
//! prediction. Node meta knowledge (static geo-graph attributes) is fed
//! through meta-learner MLPs that *generate* the weights of the sequence
//! model — here realised as FiLM-style hypernetworks producing per-node
//! scales/biases for shared GRU cells — plus a meta graph-attention layer
//! between encoder and decoder.
//!
//! The reliance on static ("invariant prior") node knowledge is exactly
//! what the paper blames for ST-MetaNet's large degradation on difficult
//! intervals (§V-B).

use rand::rngs::StdRng;
use traffic_nn::{GraphAttention, GruCell, Linear, ParamStore};
use traffic_tensor::{Tape, Tensor, Var};

use crate::common::{GraphContext, TrafficModel, TrainCtx};
use crate::meta::{taxonomy, ModelMeta};

/// ST-MetaNet hyper-parameters.
#[derive(Debug, Clone)]
pub struct StMetaNetConfig {
    /// GRU hidden width.
    pub hidden: usize,
    /// Meta-learner hidden width.
    pub meta_hidden: usize,
    /// GAT heads.
    pub heads: usize,
    /// Horizons / features.
    pub t_in: usize,
    pub t_out: usize,
    pub in_features: usize,
}

impl Default for StMetaNetConfig {
    fn default() -> Self {
        StMetaNetConfig {
            hidden: 16,
            meta_hidden: 16,
            heads: 2,
            t_in: 12,
            t_out: 12,
            in_features: 2,
        }
    }
}

/// The ST-MetaNet model.
pub struct StMetaNet {
    store: ParamStore,
    /// Node meta-knowledge input `[N, D_meta]` (spectral embedding +
    /// degree), a constant of the graph.
    node_meta: Tensor,
    /// Meta learner producing per-node FiLM parameters for the encoder.
    meta_enc: (Linear, Linear),
    /// Meta learner for the decoder.
    meta_dec: (Linear, Linear),
    encoder: GruCell,
    gat: GraphAttention,
    gat_proj: Linear,
    decoder: GruCell,
    proj: Linear,
    cfg: StMetaNetConfig,
}

impl StMetaNet {
    /// Builds ST-MetaNet for a graph context.
    pub fn new(ctx: &GraphContext, cfg: StMetaNetConfig, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        // Node meta knowledge: spectral embedding + in/out degree.
        let n = ctx.n;
        let se = &ctx.node_embedding;
        let d_se = se.shape()[1];
        let mut meta = Tensor::zeros(&[n, d_se + 2]);
        {
            let buf = meta.make_mut();
            let adj = ctx.adjacency.as_slice();
            for i in 0..n {
                for d in 0..d_se {
                    buf[i * (d_se + 2) + d] = se.at(&[i, d]);
                }
                let out_deg: f32 = (0..n).map(|j| adj[i * n + j]).sum();
                let in_deg: f32 = (0..n).map(|j| adj[j * n + i]).sum();
                buf[i * (d_se + 2) + d_se] = out_deg / n as f32;
                buf[i * (d_se + 2) + d_se + 1] = in_deg / n as f32;
            }
        }
        let d_meta = d_se + 2;
        let film = 2 * cfg.hidden; // scale + bias per hidden unit
        let meta_enc = (
            Linear::new(&mut store, "meta_enc.l1", d_meta, cfg.meta_hidden, true, rng),
            Linear::new(&mut store, "meta_enc.l2", cfg.meta_hidden, film, true, rng),
        );
        let meta_dec = (
            Linear::new(&mut store, "meta_dec.l1", d_meta, cfg.meta_hidden, true, rng),
            Linear::new(&mut store, "meta_dec.l2", cfg.meta_hidden, film, true, rng),
        );
        let encoder = GruCell::new(&mut store, "encoder", cfg.in_features, cfg.hidden, rng);
        let f_head = cfg.hidden / cfg.heads;
        assert!(cfg.hidden.is_multiple_of(cfg.heads), "hidden must divide heads");
        let gat = GraphAttention::new(
            &mut store,
            "gat",
            &ctx.adjacency,
            cfg.heads,
            cfg.hidden,
            f_head,
            rng,
        );
        let gat_proj = Linear::new(&mut store, "gat_proj", cfg.hidden, cfg.hidden, true, rng);
        let decoder = GruCell::new(&mut store, "decoder", 1, cfg.hidden, rng);
        let proj = Linear::new(&mut store, "proj", cfg.hidden, 1, true, rng);
        StMetaNet {
            store,
            node_meta: meta,
            meta_enc,
            meta_dec,
            encoder,
            gat,
            gat_proj,
            decoder,
            proj,
            cfg,
        }
    }

    /// Runs a meta learner: `[N, D_meta] -> ([1, N, H] scale, [1, N, H] bias)`.
    fn film<'t>(&self, tape: &'t Tape, learner: &(Linear, Linear)) -> (Var<'t>, Var<'t>) {
        let meta = tape.constant(self.node_meta.clone());
        let h = learner.0.forward(tape, meta).relu();
        let out = learner.1.forward(tape, h); // [N, 2H]
        let n = self.node_meta.shape()[0];
        let scale = out.narrow(1, 0, self.cfg.hidden).reshape(&[1, n, self.cfg.hidden]);
        let bias =
            out.narrow(1, self.cfg.hidden, self.cfg.hidden).reshape(&[1, n, self.cfg.hidden]);
        (scale, bias)
    }

    /// Applies FiLM modulation: `h ⊙ (1 + scale) + bias` on `[B, N, H]`.
    fn modulate<'t>(h: Var<'t>, scale: &Var<'t>, bias: &Var<'t>) -> Var<'t> {
        h.mul(&scale.add_scalar(1.0)).add(bias)
    }
}

impl TrafficModel for StMetaNet {
    fn name(&self) -> &'static str {
        "ST-MetaNet"
    }

    fn meta(&self) -> ModelMeta {
        *taxonomy("ST-MetaNet").expect("taxonomy entry")
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
        use rand::Rng;
        let shape = x.shape();
        let (b, t_in, n, c) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(t_in, self.cfg.t_in);
        let h_dim = self.cfg.hidden;
        let (enc_scale, enc_bias) = self.film(tape, &self.meta_enc);
        let (dec_scale, dec_bias) = self.film(tape, &self.meta_dec);
        // ---- encoder: shared GRU over [B·N, C], FiLM per node ----
        // Each encoder and decoder time step is one `Tape::scoped` step:
        // inside an inference region only its new state (and prediction)
        // crosses back to `tape`, and the step's GRU and meta-GAT
        // intermediates are freed before the next step.
        let mut h = tape.constant(Tensor::zeros(&[b * n, h_dim]));
        for t in 0..t_in {
            h = tape.scoped(&[x, h, enc_scale, enc_bias], |tape, v| {
                let xt = v[0].narrow(1, t, 1).reshape(&[b * n, c]);
                let h = self.encoder.step(tape, xt, v[1]);
                let hb = h.reshape(&[b, n, h_dim]);
                vec![Self::modulate(hb, &v[2], &v[3]).reshape(&[b * n, h_dim])]
            })[0];
        }
        // ---- meta-GAT spatial mixing ----
        let hb = h.reshape(&[b, n, h_dim]);
        let sp = self.gat.forward(tape, hb); // [B, N, H] (heads concat = H)
        let mixed = self.gat_proj.forward(tape, sp).relu().add(&hb); // residual
                                                                     // ---- decoder (meta-GAT interleaved, as in the original's
                                                                     // RNN → meta-GAT → RNN stacking) ----
        let mut hd = mixed.reshape(&[b * n, h_dim]);
        let mut dec_in = tape.constant(Tensor::zeros(&[b * n, 1]));
        let mut outs = Vec::with_capacity(self.cfg.t_out);
        for t in 0..self.cfg.t_out {
            let step = tape.scoped(&[dec_in, hd, dec_scale, dec_bias], |tape, v| {
                let hd = self.decoder.step(tape, v[0], v[1]);
                let hdb = hd.reshape(&[b, n, h_dim]);
                // Spatial mixing through the meta-GAT every decode step keeps
                // the forecast anchored to static neighbourhood knowledge.
                let sp = self.gat.forward(tape, hdb);
                let hdb = self.gat_proj.forward(tape, sp).relu().add(&hdb);
                let hd = Self::modulate(hdb, &v[2], &v[3]).reshape(&[b * n, h_dim]);
                vec![hd, self.proj.forward(tape, hd)] // y: [B·N, 1]
            });
            hd = step[0];
            let y = step[1];
            outs.push(y.reshape(&[b, 1, n]));
            let use_teacher = train.as_deref_mut().is_some_and(|ctx| {
                ctx.teacher.is_some() && ctx.rng.gen::<f32>() < ctx.teacher_prob
            });
            dec_in = if use_teacher {
                let teach = train.as_deref().and_then(|c| c.teacher).expect("checked above");
                tape.constant(teach.narrow(1, t, 1).reshape(&[b * n, 1]))
            } else {
                y
            };
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
        let mut rng = StdRng::seed_from_u64(9);
        let net = freeway_corridor(6, 1.0, &mut rng);
        (GraphContext::from_network(&net, 4), rng)
    }

    #[test]
    fn forward_shape() {
        let (ctx, mut rng) = setup();
        let model = StMetaNet::new(&ctx, StMetaNetConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 12, 6, 2]));
        let y = model.forward(&tape, x, None);
        assert_eq!(y.shape(), vec![2, 12, 6]);
    }

    #[test]
    fn node_meta_includes_embedding_and_degree() {
        let (ctx, mut rng) = setup();
        let model = StMetaNet::new(&ctx, StMetaNetConfig::default(), &mut rng);
        assert_eq!(model.node_meta.shape(), &[6, 6]); // 4 SE dims + 2 degrees
        assert!(!model.node_meta.has_non_finite());
        // degrees positive
        for i in 0..6 {
            assert!(model.node_meta.at(&[i, 4]) > 0.0);
        }
    }

    #[test]
    fn film_differs_across_nodes() {
        let (ctx, mut rng) = setup();
        let model = StMetaNet::new(&ctx, StMetaNetConfig::default(), &mut rng);
        let tape = Tape::new();
        let (scale, _bias) = model.film(&tape, &model.meta_enc);
        let v = scale.value();
        // At least two nodes should get different FiLM scales.
        let row =
            |i: usize| -> Vec<f32> { (0..model.cfg.hidden).map(|h| v.at(&[0, i, h])).collect() };
        assert_ne!(row(0), row(5));
    }

    #[test]
    fn grads_reach_meta_learners() {
        let (ctx, mut rng) = setup();
        let model = StMetaNet::new(&ctx, StMetaNetConfig::default(), &mut rng);
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
    fn teacher_forcing_changes_rollout() {
        let (ctx, mut rng) = setup();
        let model = StMetaNet::new(&ctx, StMetaNetConfig::default(), &mut rng);
        let teacher = Tensor::full(&[1, 12, 6], 2.0);
        let run = |prob: f32| {
            let tape = Tape::new();
            let x = tape.constant(Tensor::zeros(&[1, 12, 6, 2]));
            let mut trng = StdRng::seed_from_u64(3);
            let mut ctx2 = TrainCtx { rng: &mut trng, teacher: Some(&teacher), teacher_prob: prob };
            model.forward(&tape, x, Some(&mut ctx2)).value()
        };
        assert_ne!(run(1.0), run(0.0));
    }
}
