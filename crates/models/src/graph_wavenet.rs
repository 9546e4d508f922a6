//! Graph-WaveNet (Wu et al., IJCAI 2019): stacked dilated causal gated
//! temporal convolutions interleaved with diffusion graph convolutions,
//! plus a **self-adaptive adjacency matrix** `softmax(relu(E₁ E₂ᵀ))`
//! learned end-to-end. All 12 output steps are produced in a single pass —
//! the reason the paper's Table III shows it with the fastest inference.
//!
//! The output reads only the last time position of each layer's skip, so
//! inference computes just that position's receptive field: 7 of the 25
//! graph-conv time slices under the default dilations `[1, 2, 4]` on a
//! 12-step window ([`TimePlan`]). Training computes every position.

use std::cell::RefCell;

use rand::rngs::StdRng;
use traffic_nn::{Conv2d, DiffusionConv, GatedTemporalConv, Param, ParamStore, TemporalPadding};
use traffic_tensor::{inference, init, Tape, Tensor, Var};

use crate::common::{to_conv_layout, GraphContext, TrafficModel, TrainCtx};
use crate::meta::{taxonomy, ModelMeta};

/// Graph-WaveNet hyper-parameters.
#[derive(Debug, Clone)]
pub struct GraphWavenetConfig {
    /// Residual channel width.
    pub residual: usize,
    /// Skip channel width.
    pub skip: usize,
    /// Dilation of each TCN layer.
    pub dilations: Vec<usize>,
    /// Diffusion steps per graph conv.
    pub diffusion_steps: usize,
    /// Node-embedding width of the adaptive adjacency.
    pub adaptive_dim: usize,
    /// Dropout probability applied to each layer's graph-conv output
    /// during training (the original uses 0.3).
    pub dropout: f32,
    /// Whether the adaptive adjacency is used at all (ablation knob).
    pub use_adaptive: bool,
    /// Input/output horizons and feature count.
    pub t_in: usize,
    pub t_out: usize,
    pub in_features: usize,
}

impl Default for GraphWavenetConfig {
    fn default() -> Self {
        GraphWavenetConfig {
            residual: 12,
            skip: 24,
            dilations: vec![1, 2, 4],
            diffusion_steps: 2,
            adaptive_dim: 6,
            dropout: 0.1,
            use_adaptive: true,
            t_in: 12,
            t_out: 12,
            in_features: 2,
        }
    }
}

struct GwnLayer {
    tcn: GatedTemporalConv,
    gconv: DiffusionConv,
    skip_conv: Conv2d,
}

/// The Graph-WaveNet model.
pub struct GraphWavenet {
    store: ParamStore,
    start: Conv2d,
    layers: Vec<GwnLayer>,
    end1: Conv2d,
    end2: Conv2d,
    e1: Option<Param>,
    e2: Option<Param>,
    /// Inference-mode cache of the materialized `[N, N]` adaptive
    /// adjacency, keyed by the embeddings' mutation counters. Rebuilding
    /// the `softmax(relu(E₁E₂ᵀ))` subgraph dominates small-batch no-grad
    /// forwards (Table III, `predict`), yet between optimizer steps its
    /// value never changes.
    adaptive_cache: RefCell<Option<(u64, u64, Tensor)>>,
    /// Every time position of every layer: training, and inference with
    /// `inference::set_force_off`.
    full_plan: TimePlan,
    /// Only the positions that reach the output: inference.
    pruned_plan: TimePlan,
    cfg: GraphWavenetConfig,
}

/// Which time positions one forward computes. Layer `l` runs its gated
/// TCN on `taps.gather` of its input (all of it when `None`) at
/// `taps.dilation`; output `i` reads input `i` and `i + dilation`, and
/// the residual is the gathered input from `dilation` on.
#[derive(Debug, Clone, PartialEq)]
struct TimePlan {
    /// Window positions the start conv reads; `None` reads all of them.
    input: Option<Vec<usize>>,
    layers: Vec<LayerTaps>,
}

#[derive(Debug, Clone, PartialEq)]
struct LayerTaps {
    /// Positions of the layer's computed input slices, in TCN input order.
    gather: Option<Vec<usize>>,
    dilation: usize,
}

impl TimePlan {
    /// The dense forward: each layer convolves its whole input at its own
    /// dilation, so the time axis shrinks by `d` per layer.
    fn full(dilations: &[usize]) -> Self {
        let layers = dilations.iter().map(|&d| LayerTaps { gather: None, dilation: d }).collect();
        TimePlan { input: None, layers }
    }

    /// Only the positions that reach the output ([`receptive_sets`]). A
    /// layer that has its whole input and needs its whole output keeps
    /// the full taps; any other gathers `[B_l, B_l + d]` (as positions
    /// within `A_l`, the slices it has) and runs at dilation `|B_l|`, so
    /// output `i` reads exactly the two taps of position `B_l[i]`.
    fn pruned(t_in: usize, dilations: &[usize]) -> Self {
        let sets = receptive_sets(t_in, dilations);
        let input = (sets[0].0.len() < t_in).then(|| sets[0].0.clone());
        let mut len = t_in;
        let layers = sets
            .iter()
            .zip(dilations)
            .map(|((a, b), &d)| {
                let whole = a.len() == len && b.len() == len - d;
                len -= d;
                if whole {
                    return LayerTaps { gather: None, dilation: d };
                }
                let local = |p: usize| a.binary_search(&p).expect("tap inside A_l");
                let idx: Vec<usize> =
                    b.iter().map(|&p| local(p)).chain(b.iter().map(|&p| local(p + d))).collect();
                let identity = idx.iter().enumerate().all(|(i, &j)| i == j);
                LayerTaps { gather: (!identity).then_some(idx), dilation: b.len() }
            })
            .collect();
        TimePlan { input, layers }
    }
}

/// The time positions `idx` of `v` (all of them when `None`).
fn gather<'t>(v: Var<'t>, idx: &Option<Vec<usize>>) -> Var<'t> {
    match idx {
        Some(idx) => v.select_last(idx),
        None => v,
    }
}

/// The time positions that reach the output, per layer `(A_l, B_l)`, in
/// positions of that layer's input axis, worked backward from the output.
/// Layer `l` (dilation `d`) must output `B_l`: the positions layer
/// `l + 1` reads plus its own last one, which feeds the skip. It reads
/// `A_l = B_l ∪ (B_l + d)`, and `A_{l+1} = B_l`.
fn receptive_sets(t_in: usize, dilations: &[usize]) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut lens = vec![t_in];
    for &d in dilations {
        let len = *lens.last().expect("non-empty");
        assert!(len > d, "dilations {dilations:?} consume the {t_in}-step window");
        lens.push(len - d);
    }
    let mut sets = Vec::with_capacity(dilations.len());
    let mut next: Vec<usize> = Vec::new();
    for (l, &d) in dilations.iter().enumerate().rev() {
        let mut b = next;
        b.push(lens[l + 1] - 1);
        b.sort_unstable();
        b.dedup();
        let mut a: Vec<usize> = b.iter().flat_map(|&p| [p, p + d]).collect();
        a.sort_unstable();
        a.dedup();
        next = a.clone();
        sets.push((a, b));
    }
    sets.reverse();
    sets
}

impl GraphWavenet {
    /// Builds Graph-WaveNet for a graph context.
    pub fn new(ctx: &GraphContext, cfg: GraphWavenetConfig, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        let start = Conv2d::new(
            &mut store,
            "start",
            cfg.in_features,
            cfg.residual,
            (1, 1),
            (1, 1),
            TemporalPadding::Valid,
            true,
            rng,
        );
        let extra = usize::from(cfg.use_adaptive);
        let mut layers = Vec::new();
        for (i, &d) in cfg.dilations.iter().enumerate() {
            // Valid (shrinking) dilated convolution, as in the original:
            // each layer shortens the time axis by its dilation.
            let tcn = GatedTemporalConv::new(
                &mut store,
                &format!("layer{i}.tcn"),
                cfg.residual,
                cfg.residual,
                2,
                d,
                TemporalPadding::Valid,
                rng,
            );
            let gconv = DiffusionConv::new(
                &mut store,
                &format!("layer{i}.gconv"),
                ctx.supports.clone(),
                extra,
                cfg.diffusion_steps,
                cfg.residual,
                cfg.residual,
                rng,
            );
            let skip_conv = Conv2d::new(
                &mut store,
                &format!("layer{i}.skip"),
                cfg.residual,
                cfg.skip,
                (1, 1),
                (1, 1),
                TemporalPadding::Valid,
                true,
                rng,
            );
            layers.push(GwnLayer { tcn, gconv, skip_conv });
        }
        let end1 = Conv2d::new(
            &mut store,
            "end1",
            cfg.skip,
            cfg.skip,
            (1, 1),
            (1, 1),
            TemporalPadding::Valid,
            true,
            rng,
        );
        let end2 = Conv2d::new(
            &mut store,
            "end2",
            cfg.skip,
            cfg.t_out,
            (1, 1),
            (1, 1),
            TemporalPadding::Valid,
            true,
            rng,
        );
        let (e1, e2) =
            if cfg.use_adaptive {
                (
                    Some(store.add(
                        "adaptive.e1",
                        init::normal(&[ctx.n, cfg.adaptive_dim], 0.0, 0.1, rng),
                    )),
                    Some(store.add(
                        "adaptive.e2",
                        init::normal(&[ctx.n, cfg.adaptive_dim], 0.0, 0.1, rng),
                    )),
                )
            } else {
                (None, None)
            };
        GraphWavenet {
            store,
            start,
            layers,
            end1,
            end2,
            e1,
            e2,
            adaptive_cache: RefCell::new(None),
            full_plan: TimePlan::full(&cfg.dilations),
            pruned_plan: TimePlan::pruned(cfg.t_in, &cfg.dilations),
            cfg,
        }
    }

    /// The learned adaptive adjacency `softmax(relu(E₁ E₂ᵀ))`, or `None`
    /// when disabled.
    pub fn adaptive_adjacency<'t>(&self, tape: &'t Tape) -> Option<Var<'t>> {
        let (e1, e2) = (self.e1.as_ref()?, self.e2.as_ref()?);
        let a = e1.var(tape).matmul(&e2.var(tape).t()).relu();
        Some(a.softmax(1))
    }

    /// The materialized adaptive adjacency, cached across no-grad
    /// forwards and invalidated whenever an optimizer step touches an
    /// embedding. The cached tensor is produced by the exact kernel
    /// chain the tape path runs, so serving it is bit-identical to
    /// recomputing — the eval-vs-train determinism tests pin this.
    fn cached_adaptive(&self) -> Option<Tensor> {
        let (e1, e2) = (self.e1.as_ref()?, self.e2.as_ref()?);
        let key = (e1.version(), e2.version());
        if let Some((v1, v2, a)) = self.adaptive_cache.borrow().as_ref() {
            if (*v1, *v2) == key {
                return Some(a.clone());
            }
        }
        // Constants on a scratch tape: same compute, no autograd bookkeeping
        // and no interference with the parameters' tape-binding cache.
        let t = Tape::new();
        let a = t.constant(e1.value()).matmul(&t.constant(e2.value()).t()).relu().softmax(1);
        let a = a.value();
        *self.adaptive_cache.borrow_mut() = Some((key.0, key.1, a.clone()));
        Some(a)
    }
}

impl TrafficModel for GraphWavenet {
    fn name(&self) -> &'static str {
        "Graph-WaveNet"
    }

    fn meta(&self) -> ModelMeta {
        *taxonomy("Graph-WaveNet").expect("taxonomy entry")
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
        let (b, t, n) = (shape[0], shape[1], shape[2]);
        assert_eq!(t, self.cfg.t_in);
        // In inference mode the gradient never flows, so the adjacency is a
        // constant: serve the cached materialization instead of re-recording
        // its subgraph on every forward, and compute only the time positions
        // that reach the output. Training (or a no-grad forward that still
        // wants the graph, e.g. gradcheck outside the trainer) keeps the tape
        // path and every position: dropout draws one random per element.
        let infer = train.is_none() && inference::active();
        let adaptive: Vec<Var<'t>> = if infer {
            self.cached_adaptive().map(|a| tape.constant(a)).into_iter().collect()
        } else {
            self.adaptive_adjacency(tape).into_iter().collect()
        };
        let plan = if infer { &self.pruned_plan } else { &self.full_plan };
        // [B, R, N, T], then `[h, skip sum]` after the first layer.
        let mut state = vec![self.start.forward(tape, gather(to_conv_layout(x), &plan.input))];
        for (layer, taps) in self.layers.iter().zip(&plan.layers) {
            // One `Tape::scoped` step per layer: inside an inference region
            // only `[h, skip sum]` crosses back to `tape`, and the layer's
            // TCN and diffusion intermediates are freed before the next.
            let has_skip = state.len() == 2;
            let inputs: Vec<Var<'t>> = state.iter().chain(&adaptive).copied().collect();
            let train = train.as_deref_mut();
            state = tape.scoped(&inputs, |tape, v| {
                let (h, adaptive) = (v[0], &v[1 + usize::from(has_skip)..]);
                let input = gather(h, &taps.gather);
                // [B, R, N, |B_l|]: every output position in the full plan.
                let z = layer.tcn.forward_dilated(tape, input, taps.dilation);
                // Graph conv per (remaining) time slice.
                let zs = z.shape();
                let (c, tt) = (zs[1], zs[3]);
                let flat = z.permute(&[0, 3, 2, 1]).reshape(&[b * tt, n, c]);
                let g = layer.gconv.forward_with(tape, flat, adaptive);
                let mut g = g.reshape(&[b, tt, n, c]).permute(&[0, 3, 2, 1]);
                if let Some(ctx) = train {
                    if self.cfg.dropout > 0.0 {
                        use rand::Rng;
                        let rng = &mut *ctx.rng;
                        g = g.dropout(self.cfg.dropout, true, || rng.gen::<f32>());
                    }
                }
                // Skip connection reads only the final position of this layer.
                let s = layer.skip_conv.forward(tape, g.narrow(3, tt - 1, 1)); // [B, S, N, 1]
                let skip = if has_skip { v[1].add(&s) } else { s };
                // Residual: the second tap of each output position.
                vec![g.add(&input.narrow(3, taps.dilation, tt)), skip]
            });
        }
        let skip = state.get(1).expect("at least one layer").relu(); // [B, S, N, 1]
        let out = self.end2.forward(tape, self.end1.forward(tape, skip).relu()); // [B, T_out, N, 1]
        out.reshape(&[b, self.cfg.t_out, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use traffic_graph::freeway_corridor;
    use traffic_tensor::Tensor;

    fn setup() -> (GraphContext, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let net = freeway_corridor(6, 1.0, &mut rng);
        (GraphContext::from_network(&net, 4), rng)
    }

    #[test]
    fn forward_shape() {
        let (ctx, mut rng) = setup();
        let model = GraphWavenet::new(&ctx, GraphWavenetConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 12, 6, 2]));
        let y = model.forward(&tape, x, None);
        assert_eq!(y.shape(), vec![2, 12, 6]);
    }

    #[test]
    fn adaptive_adjacency_rows_stochastic() {
        let (ctx, mut rng) = setup();
        let model = GraphWavenet::new(&ctx, GraphWavenetConfig::default(), &mut rng);
        let tape = Tape::new();
        let a = model.adaptive_adjacency(&tape).unwrap().value();
        assert_eq!(a.shape(), &[6, 6]);
        for i in 0..6 {
            let s: f32 = (0..6).map(|j| a.at(&[i, j])).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn ablation_without_adaptive() {
        let (ctx, mut rng) = setup();
        let cfg = GraphWavenetConfig { use_adaptive: false, ..Default::default() };
        let model = GraphWavenet::new(&ctx, cfg, &mut rng);
        let tape = Tape::new();
        assert!(model.adaptive_adjacency(&tape).is_none());
        let x = tape.constant(Tensor::zeros(&[1, 12, 6, 2]));
        assert_eq!(model.forward(&tape, x, None).shape(), vec![1, 12, 6]);
        // Fewer params than the adaptive variant.
        let mut rng2 = StdRng::seed_from_u64(7);
        let full = GraphWavenet::new(&ctx, GraphWavenetConfig::default(), &mut rng2);
        assert!(model.num_params() < full.num_params());
    }

    #[test]
    fn grads_reach_all_params_including_embeddings() {
        let (ctx, mut rng) = setup();
        let model = GraphWavenet::new(&ctx, GraphWavenetConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&[1, 12, 6, 2], -1.0, 1.0, &mut rng));
        let y = model.forward(&tape, x, None);
        let grads = tape.backward(y.powf(2.0).mean_all());
        model.store().capture_grads(&tape, &grads);
        for p in model.store().params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }

    #[test]
    fn valid_convs_shrink_receptive_field_not_output() {
        // Dilations [1, 2, 4] consume 7 steps of the 12-step window; the
        // output must still cover all 12 horizons from the final position.
        let (ctx, mut rng) = setup();
        let model = GraphWavenet::new(&ctx, GraphWavenetConfig::default(), &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 12, 6, 2]));
        assert_eq!(model.forward(&tape, x, None).shape(), vec![1, 12, 6]);
    }

    #[test]
    fn early_history_still_reaches_output() {
        // With dilations [1, 2, 4] the receptive field spans 8 steps, so
        // perturbing t = 5 must change the output, while t = 0..3 lie
        // outside the receptive field of the final position: under both
        // the full plan (no inference region) and the pruned one.
        let (ctx, mut rng) = setup();
        let model = GraphWavenet::new(&ctx, GraphWavenetConfig::default(), &mut rng);
        let base = init::uniform(&[1, 12, 6, 2], -1.0, 1.0, &mut rng);
        for pruned in [false, true] {
            let _inf = pruned.then(inference::InferenceGuard::enter);
            let run = |input: Tensor| {
                let tape = Tape::new();
                model.forward(&tape, tape.constant(input), None).value()
            };
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let y0 = run(base.clone());
            for t in 0..12 {
                let mut x = base.clone();
                for node in 0..6 {
                    x.make_mut()[(t * 6 + node) * 2] += 3.0; // value feature
                }
                let y = run(x);
                if t < 4 {
                    assert_eq!(bits(&y), bits(&y0), "t = {t} is outside the receptive field");
                } else {
                    assert_ne!(y, y0, "t = {t} is inside the receptive field (pruned {pruned})");
                }
            }
        }
    }

    #[test]
    fn receptive_plan_of_default_config() {
        let cfg = GraphWavenetConfig::default();
        let sets = receptive_sets(cfg.t_in, &cfg.dilations);
        let want: Vec<(Vec<usize>, Vec<usize>)> = vec![
            ((4..12).collect(), vec![4, 6, 8, 10]),
            (vec![4, 6, 8, 10], vec![4, 8]),
            (vec![4, 8], vec![4]),
        ];
        assert_eq!(sets, want);
        // 4 + 2 + 1 of the 11 + 9 + 5 graph-conv slices the full plan runs.
        let plan = TimePlan::pruned(cfg.t_in, &cfg.dilations);
        let taps = |gather: Option<Vec<usize>>, dilation| LayerTaps { gather, dilation };
        assert_eq!(
            plan,
            TimePlan {
                input: Some((4..12).collect()),
                layers: vec![
                    taps(Some(vec![0, 2, 4, 6, 1, 3, 5, 7]), 4),
                    taps(Some(vec![0, 2, 1, 3]), 2),
                    // A_2 = {4, 8} already is [xa, xb].
                    taps(None, 1),
                ],
            }
        );
        // With a 16-step window and dilations [1, 2, 4, 8] every input
        // step matters, but layer 0 still needs only 8 of its 15 outputs.
        let plan = TimePlan::pruned(16, &[1, 2, 4, 8]);
        assert_eq!(plan.input, None);
        assert_eq!(plan.layers[0].dilation, 8);
        // The full plan is today's dense forward.
        assert_eq!(
            TimePlan::full(&cfg.dilations),
            TimePlan { input: None, layers: vec![taps(None, 1), taps(None, 2), taps(None, 4)] }
        );
    }

    #[test]
    fn cached_inference_is_bit_identical_and_invalidates() {
        let (ctx, mut rng) = setup();
        let model = GraphWavenet::new(&ctx, GraphWavenetConfig::default(), &mut rng);
        let x = init::uniform(&[2, 12, 6, 2], -1.0, 1.0, &mut rng);
        let run = |m: &GraphWavenet| {
            let tape = Tape::new();
            m.forward(&tape, tape.constant(x.clone()), None).value()
        };
        let plain = run(&model);
        let cached = {
            let _inf = inference::InferenceGuard::enter();
            let first = run(&model);
            // second forward actually hits the cache
            assert!(model.adaptive_cache.borrow().is_some());
            let second = run(&model);
            assert_eq!(first, second);
            first
        };
        assert_eq!(plain, cached, "cached adjacency must not change the forward value");

        // An optimizer-style in-place update must invalidate the cache.
        model.e1.as_ref().unwrap().update_value(|t| t.map_inplace(|v| v + 0.5));
        let _inf = inference::InferenceGuard::enter();
        let after = run(&model);
        assert_ne!(plain, after, "stale adjacency served after embedding update");
    }

    #[test]
    fn output_depends_on_input() {
        let (ctx, mut rng) = setup();
        let model = GraphWavenet::new(&ctx, GraphWavenetConfig::default(), &mut rng);
        let tape = Tape::new();
        let x0 = tape.constant(Tensor::zeros(&[1, 12, 6, 2]));
        let x1 = tape.constant(Tensor::ones(&[1, 12, 6, 2]));
        let y0 = model.forward(&tape, x0, None).value();
        let y1 = model.forward(&tape, x1, None).value();
        assert_ne!(y0, y1);
    }
}
