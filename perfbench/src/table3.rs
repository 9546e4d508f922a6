//! `table3-metr207`: the paper's Table III (training time and inference
//! time of all eight models) at the real METR-LA size, 207 sensors with
//! 12-in/12-out windows.
//!
//! A round trains each model from a fresh initialisation for its fixed
//! step count through `traffic_core::train`, then predicts the fixed set
//! of strided test windows through `traffic_core::predict`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_core::{predict, train, TrainConfig};
use traffic_data::{prepare, simulate, PreparedData, SimConfig, Task, WindowedData};
use traffic_models::{build_model, train_profile, GraphContext, TrafficModel};
use traffic_tensor::Tensor;

use crate::checks;
use crate::stats::{rounds, secs};
use crate::{Opts, Outcome};

/// Sensors, as in METR-LA.
pub const NODES: usize = 207;
/// Simulated days: 1152 five-minute steps, 783 training windows.
pub const DAYS: usize = 4;
/// Mini-batch size for training and prediction.
pub const BATCH: usize = 8;
/// Strided test windows each model predicts per round.
pub const INFER_WINDOWS: usize = 16;
/// Windows predicted again at batch size 1 for the batch-invariance check.
const BATCH1_WINDOWS: usize = 2;
/// Relative tolerance between batch-1 and batch-`BATCH` predictions:
/// the same arithmetic, blocked differently by the GEMM kernels.
pub const BATCH_TOL: f32 = 1e-4;

/// Training steps per model and round. Chosen once so each model takes
/// a similar share of a round's training time (one GMAN step sets the
/// share; see README.md), then fixed.
pub const STEPS: [(&str, usize); 8] = [
    ("STGCN", 38),
    ("DCRNN", 8),
    ("ASTGCN", 10),
    ("ST-MetaNet", 4),
    ("Graph-WaveNet", 8),
    ("STG2Seq", 20),
    ("STSGCN", 11),
    ("GMAN", 1),
];

/// The workload's inputs, generated from the seed.
pub struct Setup {
    pub data: PreparedData,
    pub ctx: GraphContext,
    /// The strided test windows every model predicts.
    pub test: WindowedData,
}

/// Simulates a 207-sensor speed dataset from `seed`, windows it, and
/// builds the graph matrices.
pub fn setup(seed: u64) -> Setup {
    let ds = simulate(&SimConfig::new("METR-LA", Task::Speed, NODES, DAYS).with_seed(seed));
    let data = prepare(&ds, 12, 12);
    let ctx = GraphContext::from_network(&ds.network, 8);
    let test = data.test.stride(data.test.len().div_ceil(INFER_WINDOWS));
    Setup { data, ctx, test }
}

/// A fresh model, initialised from `seed`.
pub fn build(name: &str, ctx: &GraphContext, seed: u64) -> Box<dyn TrafficModel> {
    build_model(name, ctx, &mut StdRng::seed_from_u64(seed))
}

/// One epoch of `steps` batches, with the model's learning rate and the
/// training-health sampler off.
pub fn train_config(name: &str, steps: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        max_batches_per_epoch: Some(steps),
        lr: train_profile(name).lr,
        seed,
        insight_every: Some(0),
        ..Default::default()
    }
}

/// Trains one model for its step count. Returns the model, the training
/// seconds, and whether every step was taken on a finite loss.
fn train_one(s: &Setup, name: &str, steps: usize, seed: u64) -> (Box<dyn TrafficModel>, f64, bool) {
    let model = build(name, &s.ctx, seed);
    let t = Instant::now();
    let report = train(model.as_ref(), &s.data, &train_config(name, steps, seed));
    let dt = secs(t);
    let ok = report.skipped_steps == 0
        && !report.diverged
        && report.epoch_losses.iter().all(|l| l.is_finite());
    (model, dt, ok)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let s = setup(opts.seed);
    // Warm-up: one step and one prediction per model, so the buffer pool
    // and the kernels' scratch space are sized before timing starts.
    for (name, _) in STEPS {
        let (model, _, _) = train_one(&s, name, 1, opts.seed);
        predict(model.as_ref(), &s.test.truncate(BATCH), &s.data.scaler, BATCH);
    }
    out.metrics.set("setup_s", secs(opts.start), "s");
    eprintln!("table3: setup {:.2}s", secs(opts.start));

    let (mut samples, mut train_s) = (0usize, 0.0f64);
    let mut infer_s = [0.0f64; STEPS.len()];
    let mut last: Vec<(Box<dyn TrafficModel>, Tensor)> = Vec::new();
    let n = rounds(opts.seconds, || {
        last.clear();
        for (i, &(name, steps)) in STEPS.iter().enumerate() {
            let (model, dt, ok) = train_one(&s, name, steps, opts.seed);
            out.attempted += 1;
            out.failed += u64::from(!ok);
            samples += steps * BATCH;
            train_s += dt;
            let t = Instant::now();
            let pred = predict(model.as_ref(), &s.test, &s.data.scaler, BATCH);
            infer_s[i] += secs(t);
            out.attempted += 1;
            out.failed += u64::from(pred.has_non_finite());
            last.push((model, pred));
        }
    });
    let windows = (n * s.test.len()) as f64;
    let per_model_ms: Vec<f64> = infer_s.iter().map(|t| 1e3 * t / windows).collect();
    for ((name, _), ms) in STEPS.iter().zip(&per_model_ms) {
        eprintln!("table3: {name:<14} inference {ms:8.2} ms/window");
    }
    eprintln!("table3: {n} round(s), {samples} training samples in {train_s:.2}s");
    out.metrics.set("throughput_per_s", samples as f64 / train_s, "1/s");
    out.metrics.set("latency_ms", 1e3 * infer_s.iter().sum::<f64>() / (windows * 8.0), "ms");

    for (model, pred) in &last {
        check_predictions(&mut out, &s, model.as_ref(), pred);
    }
    out
}

/// Shape, finiteness, metrics recomputed apart from `traffic-metrics`,
/// and batch-size invariance of one model's predictions.
pub fn check_predictions(out: &mut Outcome, s: &Setup, model: &dyn TrafficModel, pred: &Tensor) {
    let name = model.name();
    let want = [s.test.len(), 12, NODES];
    out.check(checks::finite_with_shape(name, pred.shape(), &want, pred.as_slice()));
    let m = traffic_metrics::evaluate(pred, &s.test.y_raw, None);
    let own = checks::own_mae_rmse(pred.as_slice(), s.test.y_raw.as_slice());
    out.check(checks::metrics_agree(name, (m.mae, m.rmse), own, 1e-4));
    let sub = s.test.truncate(BATCH1_WINDOWS);
    let one = predict(model, &sub, &s.data.scaler, 1);
    let head = pred.narrow(0, 0, BATCH1_WINDOWS);
    let what = format!("{name} batch-1 vs batch-{BATCH}");
    out.check(checks::close(&what, one.as_slice(), head.as_slice(), BATCH_TOL));
}
