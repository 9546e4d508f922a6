//! The traced run (`--trace 1`): per-layer metrics, measured from
//! outside by timing calls into each layer's public functions, plus the
//! op profiler that already exists (`traffic_obs::profile`) over a
//! traced pass of the Table III step loop. Every traced run measures
//! every layer; `obs.trace_overhead_pct` is the one figure that depends
//! on the workload named.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_core::{
    model_comparison, prepare_experiment, teacher_probability, train, ExperimentScale,
};
use traffic_data::{batches, prepare, simulate, PreparedData, SimConfig, Task};
use traffic_graph::RoadNetwork;
use traffic_models::{train_horizon, GraphContext, TrafficModel, TrainCtx, ALL_MODELS};
use traffic_nn::loss::{masked_mae, null_mask};
use traffic_nn::{
    Adam, ChebConv, DiffusionConv, GatedTemporalConv, GraphAttention, GruCell, MultiHeadAttention,
    ParamStore, TemporalPadding,
};
use traffic_obs::{counter, histogram, profile};
use traffic_tensor::inference::InferenceGuard;
use traffic_tensor::{init, Tape, Tensor, Var};

use crate::checks;
use crate::serve;
use crate::stats::{median, percentile, secs, time_median};
use crate::sweep;
use crate::table3::{self, Setup, BATCH, DAYS, NODES, STEPS};
use crate::{Opts, Outcome};

/// Steps per model in each pass of the traced step loop.
const TRACE_STEPS: usize = 2;
/// Relative tolerance between the step loop's loss and `train()`'s.
pub const LOSS_TOL: f64 = 1e-5;

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    data_and_graph(&mut out, opts.seed);
    let s = table3::setup(opts.seed);
    let table3_overhead = models_at_207(&mut out, &s, opts.seed);
    let sweep_overhead = small_steps(&mut out);
    nn_layers(&mut out, &s);
    drop(s);
    sweep_layers(&mut out, opts.seed);
    let serve_overhead = serve_layers(&mut out, opts.seed);
    let overhead = match opts.workload.as_str() {
        "table3-metr207" => table3_overhead,
        "fig1-sweep-small" => sweep_overhead,
        _ => serve_overhead,
    };
    out.metrics.set("obs.trace_overhead_pct", overhead, "%");
    eprintln!("layers: probe took {:.1}s", secs(t));
    out
}

/// `100 · (traced − untraced) / untraced`.
fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    100.0 * (traced - untraced) / untraced
}

fn data_and_graph(out: &mut Outcome, seed: u64) {
    let cfg = SimConfig::new("METR-LA", Task::Speed, NODES, DAYS).with_seed(seed);
    out.metrics.set("data.simulate_s", time_median(3, || drop(simulate(&cfg))), "s");
    let ds = simulate(&cfg);
    out.metrics.set("data.prepare_s", time_median(3, || drop(prepare(&ds, 12, 12))), "s");
    let data = prepare(&ds, 12, 12);
    let net: &RoadNetwork = &ds.network;
    let ctx_s = time_median(3, || drop(GraphContext::from_network(net, 8)));
    out.metrics.set("graph.context_s", ctx_s, "s");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_batch = Vec::new();
    let mut it = batches(&data.train, BATCH, Some(&mut rng));
    for _ in 0..20 {
        let t = Instant::now();
        let b = it.next().expect("20 training batches");
        per_batch.push(secs(t));
        drop(b);
    }
    out.metrics.set("data.batches_s", median(&per_batch), "s");
    out.attempted += 1;
}

/// Per-step seconds of one pass of the step loop.
#[derive(Default, Clone, Copy)]
struct StepTimes {
    forward: f64,
    backward: f64,
    optim: f64,
    /// Mean loss over the pass.
    loss: f64,
    /// Tape nodes recorded by one training step.
    tape_nodes: usize,
}

impl StepTimes {
    fn total(&self) -> f64 {
        self.forward + self.backward + self.optim
    }
}

/// `train()`'s arithmetic for `steps` batches, written out from public
/// calls (`forward`, `masked_mae`, `Tape::backward`, `clip_grad_norm`,
/// `Adam::step`) so each part can be timed. Same model seed, batches,
/// teacher forcing and optimizer as `train()` with
/// `table3::train_config(name, steps, seed)`.
fn step_loop(
    data: &PreparedData,
    ctx: &GraphContext,
    name: &str,
    steps: usize,
    seed: u64,
) -> (Box<dyn TrafficModel>, StepTimes) {
    let cfg = table3::train_config(name, steps, seed);
    let model = table3::build(name, ctx, seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut shuffle = StdRng::seed_from_u64(cfg.seed); // epoch 0
    let mut opt = Adam::new(cfg.lr);
    let horizon = train_horizon(name, data.t_out);
    let mut tape = Tape::new();
    let mut st = StepTimes::default();
    for (step, batch) in
        batches(&data.train, cfg.batch_size, Some(&mut shuffle)).take(steps).enumerate()
    {
        tape.reset();
        let x = tape.constant(batch.x.clone());
        let y_norm = batch.y_norm.narrow(1, 0, horizon);
        let y_raw = batch.y_raw.narrow(1, 0, horizon);
        let teacher_prob = teacher_probability(step, cfg.teacher_decay);
        let mut tctx = TrainCtx { rng: &mut rng, teacher: Some(&batch.y_norm), teacher_prob };
        let t = Instant::now();
        let pred = model.forward(&tape, x, Some(&mut tctx));
        st.forward += secs(t);
        let mask = null_mask(&y_raw, 1e-3);
        let loss = masked_mae(&tape, pred, &y_norm, &mask);
        st.loss += f64::from(loss.value().item());
        let t = Instant::now();
        let grads = tape.backward(loss);
        st.backward += secs(t);
        st.tape_nodes = tape.len();
        let t = Instant::now();
        let store = model.store();
        store.zero_grads();
        store.capture_grads(&tape, &grads);
        store.clip_grad_norm(cfg.grad_clip);
        opt.step(store);
        st.optim += secs(t);
    }
    let n = steps as f64;
    st.forward /= n;
    st.backward /= n;
    st.optim /= n;
    st.loss /= n;
    (model, st)
}

/// Tape nodes one inference forward records at the workload's batch.
fn infer_tape_nodes(model: &dyn TrafficModel, x: &Tensor) -> usize {
    let _inf = InferenceGuard::enter();
    let tape = Tape::new();
    let xv = tape.constant(x.clone());
    model.forward(&tape, xv, None);
    tape.len()
}

/// Table III step loop at 207 nodes. Returns the profiler's overhead on
/// the step loop, percent.
fn models_at_207(out: &mut Outcome, s: &Setup, seed: u64) -> f64 {
    let hits = counter("mem/pool_hits");
    let misses = counter("mem/pool_misses");
    let allocated = counter("mem/bytes_allocated");
    let (mut untraced_s, mut traced_s, mut overhead_s) = (0.0, 0.0, 0.0);
    let (mut pool_hits, mut pool_misses, mut bytes, mut total_steps) = (0u64, 0u64, 0u64, 0usize);
    let mut profiled = Vec::new();
    let infer = s.test.truncate(BATCH);
    for (name, _) in STEPS {
        let steps = if name == "GMAN" { 1 } else { TRACE_STEPS };
        // Warm-up, then train(), untraced: the per-step time the workload measures.
        step_loop(&s.data, &s.ctx, name, 1, seed);
        let model = table3::build(name, &s.ctx, seed);
        let t = Instant::now();
        let report = train(model.as_ref(), &s.data, &table3::train_config(name, steps, seed));
        let train_step_s = secs(t) / steps as f64;
        drop(model);
        // The step loop, untraced, with the pool counters read around it.
        let (h0, m0, b0) = (hits.get(), misses.get(), allocated.get());
        let (model, st) = step_loop(&s.data, &s.ctx, name, steps, seed);
        pool_hits += hits.get() - h0;
        pool_misses += misses.get() - m0;
        bytes += allocated.get() - b0;
        total_steps += steps;
        // The same loop under the op profiler.
        profile::start();
        let (_, traced) = step_loop(&s.data, &s.ctx, name, steps, seed);
        profile::stop();
        profiled.extend(profile::flame_table());

        let loss = f64::from(report.epoch_losses.first().copied().unwrap_or(f32::NAN));
        out.check(checks::scalar_close(
            &format!("{name} step-loop loss vs train()"),
            st.loss,
            loss,
            LOSS_TOL,
        ));
        out.attempted += 3;
        out.failed += u64::from(!st.loss.is_finite()) + u64::from(!loss.is_finite());
        untraced_s += st.total();
        traced_s += traced.total();
        overhead_s += train_step_s - st.total();

        let t = Instant::now();
        let pred = traffic_core::predict(model.as_ref(), &s.test, &s.data.scaler, BATCH);
        let infer_s = secs(t) / s.test.len() as f64;
        table3::check_predictions(out, s, model.as_ref(), &pred);
        out.attempted += 1;
        let m = format!("models.{name}");
        out.metrics.set(format!("{m}.forward_s"), st.forward, "s");
        out.metrics.set(format!("{m}.backward_s"), st.backward, "s");
        out.metrics.set(format!("{m}.optim_s"), st.optim, "s");
        out.metrics.set(format!("{m}.infer_window_s"), infer_s, "s");
        out.metrics.set(format!("{m}.train_tape_nodes"), st.tape_nodes as f64, "count");
        let nodes = infer_tape_nodes(model.as_ref(), &infer.x);
        out.metrics.set(format!("{m}.infer_tape_nodes"), nodes as f64, "count");
        eprintln!(
            "layers: {name:<14} train() {:.3}s/step, loop {:.3}s (fwd {:.3} bwd {:.3} opt {:.3}), \
             traced {:.3}s, infer {:.1} ms/window",
            train_step_s,
            st.total(),
            st.forward,
            st.backward,
            st.optim,
            traced.total(),
            1e3 * infer_s
        );
    }
    out.metrics.set("core.trainer_overhead_s", overhead_s / STEPS.len() as f64, "s");
    let family = |cats: &[&str]| -> (f64, u64, u64) {
        profiled.iter().filter(|o| cats.contains(&o.cat)).fold((0.0, 0, 0), |(s, t, f), o| {
            (s + o.self_ns as f64 * 1e-9, t + o.total_ns, f + o.flops)
        })
    };
    let traced_steps = total_steps as f64;
    for (metric, cats) in [
        ("op.gemm_s", &["gemm"][..]),
        ("op.spmm_s", &["spmm"][..]),
        ("op.elem_s", &["elem"][..]),
        ("op.bwd_s", &["bwd"][..]),
        ("op.im2col_s", &["conv"][..]),
    ] {
        out.metrics.set(metric, family(cats).0 / traced_steps, "s");
    }
    let (_, gemm_ns, gemm_flops) = family(&["gemm"]);
    out.metrics.set("tensor.gemm_gflops", gemm_flops as f64 / gemm_ns.max(1) as f64, "GFLOP/s");
    let lookups = (pool_hits + pool_misses).max(1);
    out.metrics.set("mem.pool_hit_rate", pool_hits as f64 / lookups as f64, "ratio");
    out.metrics.set("mem.bytes_allocated_per_step", bytes as f64 / traced_steps, "B");
    overhead_pct(untraced_s, traced_s)
}

/// Training steps at the sweep's shape (a 12-node smoke dataset, batch
/// 8). Returns the profiler's overhead on these steps.
fn small_steps(out: &mut Outcome) -> f64 {
    const SMALL_STEPS: usize = 6;
    let exp = prepare_experiment("METR-LA", &ExperimentScale::smoke(), 42);
    let (mut untraced, mut traced) = (0.0, 0.0);
    for name in ALL_MODELS {
        step_loop(&exp.data, &exp.ctx, name, 1, 1); // warm-up
        let (_, plain) = step_loop(&exp.data, &exp.ctx, name, SMALL_STEPS, 1);
        profile::start();
        let (_, profiled) = step_loop(&exp.data, &exp.ctx, name, SMALL_STEPS, 1);
        profile::stop();
        profile::clear();
        untraced += plain.total();
        traced += profiled.total();
        out.attempted += 1;
        out.metrics.set(format!("models.{name}.small_step_s"), plain.total(), "s");
    }
    overhead_pct(untraced, traced)
}

/// Forward + backward of one call of each `traffic-nn` layer at the
/// 207-node shape (batch 8), and one Adam step over Graph-WaveNet.
fn nn_layers(out: &mut Outcome, s: &Setup) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let n = NODES;
    let b = BATCH;
    let cheb =
        ChebConv::new(&mut store, "cheb", s.ctx.scaled_laplacian.clone(), 3, 16, 16, &mut rng);
    let diff =
        DiffusionConv::new(&mut store, "diff", s.ctx.supports.clone(), 0, 2, 32, 32, &mut rng);
    let gru = GruCell::new(&mut store, "gru", 16, 16, &mut rng);
    let gat = GraphAttention::new(&mut store, "gat", &s.ctx.adjacency, 2, 16, 8, &mut rng);
    let mha = MultiHeadAttention::new(&mut store, "mha", 24, 3, &mut rng);
    let tcn =
        GatedTemporalConv::new(&mut store, "tcn", 12, 12, 2, 1, TemporalPadding::Causal, &mut rng);
    let inputs = [
        init::normal(&[b * 12, n, 16], 0.0, 1.0, &mut rng), // cheb: [B·T, N, F]
        init::normal(&[b, n, 32], 0.0, 1.0, &mut rng),      // diffusion: [B, N, F]
        init::normal(&[b * n, 16], 0.0, 1.0, &mut rng),     // gru: [B·N, F] (+ state)
        init::normal(&[b, n, 16], 0.0, 1.0, &mut rng),      // gat: [B, N, F]
        init::normal(&[b * 12, n, 24], 0.0, 1.0, &mut rng), // mha over nodes: [B·T, N, D]
        init::normal(&[b, 12, n, 12], 0.0, 1.0, &mut rng),  // tcn: [B, C, N, T]
    ];
    type Layer<'a> = Box<dyn for<'t> Fn(&'t Tape, Var<'t>) -> Var<'t> + 'a>;
    let layers: [(&str, Layer); 6] = [
        ("nn.cheb_conv_s", Box::new(|t, x| cheb.forward(t, x))),
        ("nn.diffusion_conv_s", Box::new(|t, x| diff.forward(t, x))),
        ("nn.gru_cell_s", Box::new(|t, x| gru.step(t, x, x))),
        ("nn.graph_attention_s", Box::new(|t, x| gat.forward(t, x))),
        ("nn.mha_s", Box::new(|t, x| mha.forward(t, x, x))),
        ("nn.gated_tcn_s", Box::new(|t, x| tcn.forward(t, x))),
    ];
    let mut tape = Tape::new();
    for ((metric, layer), x) in layers.iter().zip(&inputs) {
        let secs = time_median(5, || {
            tape.reset();
            let xv = tape.leaf(x.clone(), true);
            let y = layer(&tape, xv);
            tape.backward(y.sum_all());
        });
        out.metrics.set(*metric, secs, "s");
        out.attempted += 1;
    }
    // Adam over a full model's parameters with gradients in place.
    let model = table3::build("Graph-WaveNet", &s.ctx, 3);
    let batch = batches(&s.data.train, BATCH, None::<&mut StdRng>).next().expect("one batch");
    tape.reset();
    let x = tape.constant(batch.x.clone());
    let pred = model.forward(&tape, x, None);
    let loss = masked_mae(&tape, pred, &batch.y_norm, &null_mask(&batch.y_raw, 1e-3));
    let grads = tape.backward(loss);
    model.store().capture_grads(&tape, &grads);
    let mut opt = Adam::new(1e-4);
    out.metrics.set("nn.adam_step_s", time_median(5, || opt.step(model.store())), "s");
    out.attempted += 1;
}

/// One Fig-1 sweep: the scheduler's cell times and the evaluation cost.
fn sweep_layers(out: &mut Outcome, seed: u64) {
    let cell = sweep::recheck_cell(seed);
    let own = sweep::recompute_cell(cell.0, cell.1);
    let hist = histogram("sched/cell_s");
    hist.reset();
    let rows = model_comparison(&sweep::DATASETS, &ALL_MODELS, &ExperimentScale::smoke());
    out.attempted += sweep::CELLS as u64;
    out.failed += rows.iter().filter(|r| r.error.is_some()).count() as u64 / 3;
    sweep::check_rows(out, &rows, cell, &own);
    out.metrics.set("sched.cell_p50_s", hist.quantile(0.5), "s");
    out.metrics.set("sched.cell_max_s", hist.max(), "s");
    // Evaluation at the sweep's test shape: 24 strided windows, 12 nodes.
    let mut rng = StdRng::seed_from_u64(seed);
    let target = init::uniform(&[24, 12, 12], 20.0, 70.0, &mut rng);
    let pred = init::uniform(&[24, 12, 12], 20.0, 70.0, &mut rng);
    let eval = || {
        drop(traffic_metrics::evaluate_horizons(
            &pred,
            &target,
            &traffic_metrics::PAPER_HORIZONS,
            None,
        ))
    };
    out.metrics.set("metrics.eval_s", time_median(21, eval), "s");
}

/// Serving layers and the four-phase round. Returns the profiler's
/// overhead on a batch-1 forward.
fn serve_layers(out: &mut Outcome, seed: u64) -> f64 {
    let s = serve::setup(seed);
    let snap = serve::snapshots(seed).into_iter().next().expect("two snapshots");
    let encode_s = time_median(3, || drop(snap.encode()));
    out.metrics.set("serve.encode_ms", 1e3 * encode_s, "ms");
    let bytes = snap.encode();
    let decode = || traffic_serve::ServeSnapshot::decode(&bytes).expect("decode");
    out.metrics.set("serve.decode_ms", 1e3 * time_median(3, || drop(decode())), "ms");
    let inst = time_median(2, || drop(decode().instantiate().expect("instantiate")));
    out.metrics.set("serve.instantiate_ms", 1e3 * inst, "ms");

    let model = serve::load(&s.snapshots[0]);
    let wins: Vec<&serve::Window> = s.phase_windows[0].iter().take(32).collect();
    let x1 = serve::pack(&model.snap, &wins[..1]);
    let x32 = serve::pack(&model.snap, &wins);
    let mut tape = Tape::new();
    let b1 = time_median(9, || drop(model.forward_batch(&mut tape, x1.clone())));
    profile::start();
    let b1_traced = time_median(9, || drop(model.forward_batch(&mut tape, x1.clone())));
    profile::stop();
    profile::clear();
    out.metrics.set("serve.forward_b1_ms", 1e3 * b1, "ms");
    let b32 = time_median(3, || drop(model.forward_batch(&mut tape, x32.clone())));
    out.metrics.set("serve.forward_b32_ms", 1e3 * b32, "ms");
    drop(model);

    let r = serve::round(&s);
    out.attempted += r.attempted();
    out.failed += r.failed();
    let engine = serve::engine_low(&s);
    out.attempted += engine.attempted;
    out.failed += engine.failed;
    let engine_p50 = median(&engine.latency_ms);
    out.metrics.set("serve.engine_predict_ms", engine_p50, "ms");
    let http = serve::http_low(&s);
    out.attempted += http.attempted;
    out.failed += http.failed;
    serve::check_sampled(out, &s, "low", &http, &s.phase_windows[0]);
    let http_p50 = median(&http.latency_ms);
    out.metrics.set("serve.low_p50_ms", http_p50, "ms");
    out.metrics.set("serve.low_p95_ms", percentile(&http.latency_ms, 0.95), "ms");
    out.metrics.set("serve.http_overhead_ms", http_p50 - engine_p50, "ms");
    out.metrics.set("serve.high_p50_ms", median(&r.high.latency_ms), "ms");
    out.metrics.set("serve.high_p95_ms", percentile(&r.high.latency_ms, 0.95), "ms");
    out.metrics.set("serve.reload_p95_ms", percentile(&r.reload.latency_ms, 0.95), "ms");
    out.metrics.set("serve.reload_ms", median(&r.reload.reload_ms), "ms");
    let late: Vec<f64> =
        [&http, &r.high, &r.reload].iter().flat_map(|p| p.late_ms.iter().copied()).collect();
    out.metrics.set("gen.late_p95_ms", percentile(&late, 0.95), "ms");
    serve::check_round(out, &s, &r);
    overhead_pct(b1, b1_traced)
}
