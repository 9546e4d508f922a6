//! Ablation benches for the design choices the paper's analysis (§V-A,
//! §VI) attributes performance differences to:
//!
//! 1. Graph-WaveNet's adaptive adjacency on/off (accuracy + cost);
//! 2. STGCN's many-to-one rollout vs a single forward (the Table III
//!    inference-time penalty);
//! 3. RNN error accumulation: DCRNN horizon-wise error growth vs the
//!    direct-output Graph-WaveNet;
//! 4. Spectral vs spatial graph convolution inside STGCN (the Table II
//!    axis the paper's §V-A analysis singles out).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_bench::{bench_scale, report_scale};
use traffic_core::{eval_split, predict, prepare_experiment, train, TrainConfig};
use traffic_metrics::evaluate_horizons;
use traffic_models::{GraphWavenet, GraphWavenetConfig, TrafficModel};
use traffic_tensor::Tape;

fn train_gwn(adaptive: bool) {
    let scale = report_scale();
    let exp = prepare_experiment("METR-LA", &scale, 42);
    let test = eval_split(&exp.data.test, &scale);
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = GraphWavenetConfig { use_adaptive: adaptive, ..Default::default() };
    let model = GraphWavenet::new(&exp.ctx, cfg, &mut rng);
    let tc = TrainConfig {
        epochs: scale.epochs,
        batch_size: scale.batch_size,
        max_batches_per_epoch: scale.max_train_batches,
        ..Default::default()
    };
    train(&model, &exp.data, &tc);
    let pred = predict(&model, &test, &exp.data.scaler, scale.batch_size);
    let ms = evaluate_horizons(&pred, &test.y_raw, &[2, 5, 11], None);
    println!(
        "  adaptive={adaptive}: params {}, MAE 15/30/60 min = {:.3}/{:.3}/{:.3}",
        model.num_params(),
        ms[0].mae,
        ms[1].mae,
        ms[2].mae
    );
}

fn horizon_error_growth(name: &str) {
    let scale = report_scale();
    let exp = prepare_experiment("METR-LA", &scale, 42);
    let test = eval_split(&exp.data.test, &scale);
    let (model, _) = traffic_core::train_model(name, &exp, &scale, 9);
    let pred = predict(model.as_ref(), &test, &exp.data.scaler, scale.batch_size);
    let horizons: Vec<usize> = (0..12).collect();
    let ms = evaluate_horizons(&pred, &test.y_raw, &horizons, None);
    let maes: Vec<String> = ms.iter().map(|m| format!("{:.2}", m.mae)).collect();
    let growth = ms[11].mae / ms[0].mae.max(1e-6);
    println!("  {name}: per-step MAE [{}] (growth ×{:.2})", maes.join(", "), growth);
}

fn train_stgcn(kind: traffic_models::SpatialKind) {
    use traffic_models::{SpatialKind, Stgcn, StgcnConfig};
    let scale = report_scale();
    let exp = prepare_experiment("METR-LA", &scale, 42);
    let test = eval_split(&exp.data.test, &scale);
    let mut rng = StdRng::seed_from_u64(6);
    let model =
        Stgcn::new(&exp.ctx, StgcnConfig { spatial_kind: kind, ..Default::default() }, &mut rng);
    let tc = TrainConfig {
        epochs: scale.epochs,
        batch_size: scale.batch_size,
        max_batches_per_epoch: scale.max_train_batches,
        ..Default::default()
    };
    train(&model, &exp.data, &tc);
    let pred = predict(&model, &test, &exp.data.scaler, scale.batch_size);
    let ms = evaluate_horizons(&pred, &test.y_raw, &[2, 5, 11], None);
    let label = match kind {
        SpatialKind::Spectral => "spectral (Cheb)",
        SpatialKind::Diffusion => "spatial (diffusion)",
    };
    println!(
        "  {label}: params {}, MAE 15/30/60 min = {:.3}/{:.3}/{:.3}",
        model.num_params(),
        ms[0].mae,
        ms[1].mae,
        ms[2].mae
    );
}

fn bench(c: &mut Criterion) {
    let _run = traffic_bench::bench_run("ablations");
    println!("\n== Ablation: Graph-WaveNet adaptive adjacency ==");
    train_gwn(true);
    train_gwn(false);

    println!("\n== Ablation: STGCN spectral vs spatial graph conv ==");
    train_stgcn(traffic_models::SpatialKind::Spectral);
    train_stgcn(traffic_models::SpatialKind::Diffusion);

    println!("\n== Ablation: RNN error accumulation (per-horizon MAE) ==");
    horizon_error_growth("DCRNN");
    horizon_error_growth("Graph-WaveNet");
    println!();

    // Timed kernel: STGCN many-to-one rollout vs single-step forward. The
    // rollout is still 12 sequential steps, but only its first runs the
    // full window; each later step computes one new time column per layer
    // from the columns every temporal conv kept, so it costs well under
    // 12 single steps.
    let scale = bench_scale();
    let exp = prepare_experiment("METR-LA", &scale, 42);
    let mut rng = StdRng::seed_from_u64(1);
    let stgcn =
        traffic_models::Stgcn::new(&exp.ctx, traffic_models::StgcnConfig::default(), &mut rng);
    let x = exp.data.test.truncate(4).x;
    let mut group = c.benchmark_group("ablation/stgcn_output_style");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("many_to_one_rollout_12_steps", |b| {
        b.iter(|| {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            stgcn.forward(&tape, xv, None).value()
        });
    });
    group.bench_function("single_step", |b| {
        b.iter(|| {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            stgcn.forward_step(&tape, xv).value()
        });
    });
    group.finish();

    // Timed kernel: adaptive vs fixed adjacency forward cost.
    let mut group = c.benchmark_group("ablation/gwn_adaptive");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for adaptive in [true, false] {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = GraphWavenetConfig { use_adaptive: adaptive, ..Default::default() };
        let gwn = GraphWavenet::new(&exp.ctx, cfg, &mut rng);
        let xc = x.clone();
        group.bench_function(format!("forward_adaptive_{adaptive}"), move |b| {
            b.iter(|| {
                let tape = Tape::new();
                let xv = tape.constant(xc.clone());
                gwn.forward(&tape, xv, None).value()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
