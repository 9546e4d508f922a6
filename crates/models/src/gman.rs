//! GMAN (Zheng et al., AAAI 2020): graph multi-attention network.
//! Encoder–decoder of ST-attention blocks (spatial attention ∥ temporal
//! attention → gated fusion), conditioned on a spatio-temporal embedding
//! (graph node embedding + time encoding), bridged by a transform-attention
//! layer that converts the historical time axis directly into the future
//! one — giving GMAN its long-horizon advantage (paper §V-A).
//!
//! The node2vec spatial embedding of the original is replaced by the
//! deterministic spectral embedding (DESIGN.md §2).

use rand::rngs::StdRng;
use traffic_nn::{Linear, MultiHeadAttention, ParamStore};
use traffic_tensor::{Tape, Tensor, Var};

use crate::common::{advance_time_of_day, GraphContext, TrafficModel, TrainCtx};
use crate::meta::{taxonomy, ModelMeta};

/// Frequencies (cycles per day) of the sinusoidal time encoding. Multiple
/// octaves give the decoder enough phase resolution to tell adjacent
/// 5-minute horizons apart — the one-hot time encoding of the original
/// provides the same discriminability.
const TE_FREQUENCIES: [f32; 1] = [1.0];

/// GMAN hyper-parameters.
#[derive(Debug, Clone)]
pub struct GmanConfig {
    /// Model width `D`.
    pub d: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder ST-attention blocks.
    pub enc_blocks: usize,
    /// Decoder ST-attention blocks.
    pub dec_blocks: usize,
    /// Dropout on the encoder output during training.
    pub dropout: f32,
    /// Horizons / features.
    pub t_in: usize,
    pub t_out: usize,
    pub in_features: usize,
}

impl Default for GmanConfig {
    fn default() -> Self {
        GmanConfig {
            d: 24,
            heads: 3,
            enc_blocks: 1,
            dec_blocks: 1,
            dropout: 0.1,
            t_in: 12,
            t_out: 12,
            in_features: 2,
        }
    }
}

/// Spatial + temporal attention with gated fusion.
struct StAttBlock {
    spatial: MultiHeadAttention,
    temporal: MultiHeadAttention,
    gate_s: Linear,
    gate_t: Linear,
}

impl StAttBlock {
    fn new(store: &mut ParamStore, prefix: &str, d: usize, heads: usize, rng: &mut StdRng) -> Self {
        StAttBlock {
            spatial: MultiHeadAttention::new(store, &format!("{prefix}.spatial"), d, heads, rng),
            temporal: MultiHeadAttention::new(store, &format!("{prefix}.temporal"), d, heads, rng),
            gate_s: Linear::new(store, &format!("{prefix}.gate_s"), d, d, true, rng),
            gate_t: Linear::new(store, &format!("{prefix}.gate_t"), d, d, false, rng),
        }
    }

    /// `h, ste: [B, T, N, D] -> [B, T, N, D]`.
    fn forward<'t>(&self, tape: &'t Tape, h: Var<'t>, ste: &Var<'t>) -> Var<'t> {
        let shape = h.shape();
        let (b, t, n, d) = (shape[0], shape[1], shape[2], shape[3]);
        let hs_in = h.add(ste);
        // Spatial attention: nodes attend over nodes, per time step.
        let sp_in = hs_in.reshape(&[b * t, n, d]);
        let hs = self.spatial.forward(tape, sp_in, sp_in).reshape(&[b, t, n, d]);
        // Temporal attention: time attends over time, per node.
        let tp_in = hs_in.permute(&[0, 2, 1, 3]).reshape(&[b * n, t, d]);
        let ht =
            self.temporal.forward(tape, tp_in, tp_in).reshape(&[b, n, t, d]).permute(&[0, 2, 1, 3]);
        // Gated fusion.
        let g = self.gate_s.forward(tape, hs).add(&self.gate_t.forward(tape, ht)).sigmoid();
        let fused = g.mul(&hs).add(&g.neg().add_scalar(1.0).mul(&ht));
        fused.add(&h)
    }
}

/// The GMAN model.
pub struct Gman {
    store: ParamStore,
    se_raw: Tensor,
    se_proj1: Linear,
    se_proj2: Linear,
    te_proj1: Linear,
    te_proj2: Linear,
    input_proj: Linear,
    encoder: Vec<StAttBlock>,
    transform: MultiHeadAttention,
    /// Learned per-horizon embedding `[T_out, D]` added to the future STE —
    /// standing in for the fine resolution of the original's one-hot TE.
    horizon_emb: traffic_nn::Param,
    decoder: Vec<StAttBlock>,
    out1: Linear,
    out2: Linear,
    cfg: GmanConfig,
}

impl Gman {
    /// Builds GMAN for a graph context.
    pub fn new(ctx: &GraphContext, cfg: GmanConfig, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        let d_se = ctx.node_embedding.shape()[1];
        let se_proj1 = Linear::new(&mut store, "se.l1", d_se, cfg.d, true, rng);
        let se_proj2 = Linear::new(&mut store, "se.l2", cfg.d, cfg.d, true, rng);
        let te_proj1 = Linear::new(&mut store, "te.l1", 2 * TE_FREQUENCIES.len(), cfg.d, true, rng);
        let te_proj2 = Linear::new(&mut store, "te.l2", cfg.d, cfg.d, true, rng);
        let input_proj = Linear::new(&mut store, "input", 1, cfg.d, true, rng);
        let encoder = (0..cfg.enc_blocks)
            .map(|i| StAttBlock::new(&mut store, &format!("enc{i}"), cfg.d, cfg.heads, rng))
            .collect();
        let transform = MultiHeadAttention::new(&mut store, "transform", cfg.d, cfg.heads, rng);
        let horizon_emb = store
            .add("horizon_emb", traffic_tensor::init::normal(&[cfg.t_out, cfg.d], 0.0, 0.1, rng));
        let decoder = (0..cfg.dec_blocks)
            .map(|i| StAttBlock::new(&mut store, &format!("dec{i}"), cfg.d, cfg.heads, rng))
            .collect();
        let out1 = Linear::new(&mut store, "out.l1", cfg.d, cfg.d, true, rng);
        let out2 = Linear::new(&mut store, "out.l2", cfg.d, 1, true, rng);
        Gman {
            store,
            se_raw: ctx.node_embedding.clone(),
            se_proj1,
            se_proj2,
            te_proj1,
            te_proj2,
            input_proj,
            encoder,
            transform,
            horizon_emb,
            decoder,
            out1,
            out2,
            cfg,
        }
    }

    /// Spatial embedding `[1, 1, N, D]`.
    fn spatial_embedding<'t>(&self, tape: &'t Tape) -> Var<'t> {
        let n = self.se_raw.shape()[0];
        let se = tape.constant(self.se_raw.clone());
        let h = self.se_proj1.forward(tape, se).relu();
        self.se_proj2.forward(tape, h).reshape(&[1, 1, n, self.cfg.d])
    }

    /// Temporal embedding `[B, T, 1, D]` from per-step time-of-day values
    /// `[B, T]` encoded as multi-frequency `(sin, cos)` phases.
    fn temporal_embedding<'t>(&self, tape: &'t Tape, tod: &Tensor) -> Var<'t> {
        let (b, t) = (tod.shape()[0], tod.shape()[1]);
        let k = TE_FREQUENCIES.len();
        let mut enc = Tensor::zeros(&[b, t, 2 * k]);
        for (&v, row) in tod.as_slice().iter().zip(enc.make_mut().chunks_exact_mut(2 * k)) {
            for (&f, pair) in TE_FREQUENCIES.iter().zip(row.chunks_exact_mut(2)) {
                let phase = v * f * std::f32::consts::TAU;
                pair[0] = phase.sin();
                pair[1] = phase.cos();
            }
        }
        let enc = tape.constant(enc);
        let h = self.te_proj1.forward(tape, enc).relu();
        self.te_proj2.forward(tape, h).reshape(&[b, t, 1, self.cfg.d])
    }

    /// Extracts the (constant) time-of-day track `[B, T_in]` from the input
    /// and extends it `t_out` steps into the future `[B, T_out]`.
    fn tod_tracks(&self, x: &Tensor) -> (Tensor, Tensor) {
        let (b, t_in) = (x.shape()[0], x.shape()[1]);
        let n = x.shape()[2];
        let c = x.shape()[3];
        let mut hist = Tensor::zeros(&[b, t_in]);
        for (i, h) in hist.make_mut().iter_mut().enumerate() {
            *h = x.as_slice()[i * n * c + 1]; // i = bi * t_in + t
        }
        let mut fut = Tensor::zeros(&[b, self.cfg.t_out]);
        for (row, last) in fut
            .make_mut()
            .chunks_exact_mut(self.cfg.t_out)
            .zip(hist.as_slice().chunks_exact(t_in).map(|h| h[t_in - 1]))
        {
            let mut cur = last;
            for f in row {
                cur = advance_time_of_day(cur);
                *f = cur;
            }
        }
        (hist, fut)
    }
}

impl TrafficModel for Gman {
    fn name(&self) -> &'static str {
        "GMAN"
    }

    fn meta(&self) -> ModelMeta {
        *taxonomy("GMAN").expect("taxonomy entry")
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>, train: Option<&mut TrainCtx<'_>>) -> Var<'t> {
        let shape = x.shape();
        let (b, t_in, n, _c) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(t_in, self.cfg.t_in);
        let d = self.cfg.d;
        let xv = x.value();
        let (tod_hist, tod_fut) = self.tod_tracks(&xv);
        let se = self.spatial_embedding(tape);
        let ste_hist = self.temporal_embedding(tape, &tod_hist).add(&se); // [B, T_in, N, D]
        let hzn = self.horizon_emb.var(tape).reshape(&[1, self.cfg.t_out, 1, d]);
        let ste_fut = self.temporal_embedding(tape, &tod_fut).add(&se).add(&hzn); // [B, T_out, N, D]
                                                                                  // Input projection of the value feature.
        let vals = x.narrow(3, 0, 1); // [B, T, N, 1]
        let mut h = self.input_proj.forward(tape, vals); // [B, T, N, D]
        for block in &self.encoder {
            h = block.forward(tape, h, &ste_hist);
        }
        if let Some(ctx) = train {
            if self.cfg.dropout > 0.0 {
                use rand::Rng;
                let rng = &mut *ctx.rng;
                h = h.dropout(self.cfg.dropout, true, || rng.gen::<f32>());
            }
        }
        // Transform attention: future time steps query historical ones.
        let q = ste_fut.permute(&[0, 2, 1, 3]).reshape(&[b * n, self.cfg.t_out, d]);
        let kv = h.add(&ste_hist).permute(&[0, 2, 1, 3]).reshape(&[b * n, t_in, d]);
        let mut hd = self
            .transform
            .forward(tape, q, kv)
            .reshape(&[b, n, self.cfg.t_out, d])
            .permute(&[0, 2, 1, 3]); // [B, T_out, N, D]
        for block in &self.decoder {
            hd = block.forward(tape, hd, &ste_fut);
        }
        let y = self.out2.forward(tape, self.out1.forward(tape, hd).relu());
        y.reshape(&[b, self.cfg.t_out, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use traffic_graph::freeway_corridor;

    fn setup() -> (GraphContext, StdRng) {
        let mut rng = StdRng::seed_from_u64(12);
        let net = freeway_corridor(6, 1.0, &mut rng);
        (GraphContext::from_network(&net, 4), rng)
    }

    /// Input whose time-of-day feature advances one step per position.
    fn timed_input(b: usize, t: usize, n: usize) -> Tensor {
        let mut v = Vec::with_capacity(b * t * n * 2);
        for _ in 0..b {
            for ti in 0..t {
                for _ in 0..n {
                    v.push(0.5); // value feature
                    v.push(ti as f32 / 288.0); // tod feature
                }
            }
        }
        Tensor::from_vec(v, &[b, t, n, 2])
    }

    #[test]
    fn forward_shape() {
        let (ctx, mut rng) = setup();
        let model = Gman::new(&ctx, GmanConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(timed_input(2, 12, 6));
        let y = model.forward(&tape, x, None);
        assert_eq!(y.shape(), vec![2, 12, 6]);
    }

    #[test]
    fn tod_tracks_advance_continuously() {
        let (ctx, mut rng) = setup();
        let model = Gman::new(&ctx, GmanConfig::default(), &mut rng);
        let x = timed_input(1, 12, 6);
        let (hist, fut) = model.tod_tracks(&x);
        assert_eq!(hist.shape(), &[1, 12]);
        assert_eq!(fut.shape(), &[1, 12]);
        // future continues where history ends
        let expect = 12.0 / 288.0;
        assert!((fut.at(&[0, 0]) - expect).abs() < 1e-5);
        assert!(fut.at(&[0, 11]) > fut.at(&[0, 0]));
    }

    #[test]
    fn spatial_embedding_differs_across_nodes() {
        let (ctx, mut rng) = setup();
        let model = Gman::new(&ctx, GmanConfig::default(), &mut rng);
        let tape = Tape::new();
        let se = model.spatial_embedding(&tape).value();
        let row = |i: usize| -> Vec<f32> { (0..16).map(|d| se.at(&[0, 0, i, d])).collect() };
        assert_ne!(row(0), row(5));
    }

    #[test]
    fn grads_reach_all_params() {
        let (ctx, mut rng) = setup();
        let model = Gman::new(&ctx, GmanConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(timed_input(1, 12, 6));
        let y = model.forward(&tape, x, None);
        let grads = tape.backward(y.powf(2.0).mean_all());
        model.store().capture_grads(&tape, &grads);
        for p in model.store().params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }
}
