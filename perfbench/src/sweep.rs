//! `fig1-sweep-small`: the Fig-1 sweep through
//! `traffic_core::model_comparison` at smoke scale, four datasets (two
//! speed, two flow) × all eight models = 32 cells on 12–14-node graphs.
//!
//! The sweep seeds its own simulations and models (dataset seed 42,
//! model seed 1000), so its inputs do not depend on `--seed`; the seed
//! picks the cell the benchmark recomputes on its own. (Shuffling the
//! dataset and model order by seed moved the sweep's time by 20%, so
//! the order is fixed.)

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use traffic_core::{
    eval_split, model_comparison, predict, prepare_experiment, train_model, ExperimentScale,
    Fig1Row,
};
use traffic_metrics::PAPER_HORIZONS;
use traffic_models::ALL_MODELS;

use crate::checks;
use crate::stats::{median, rounds, secs};
use crate::{Opts, Outcome};

/// Two speed and two flow datasets of Table I.
pub const DATASETS: [&str; 4] = ["METR-LA", "PeMS-BAY", "PeMSD3", "PeMSD8"];
/// The dataset seed `model_comparison` uses for every dataset.
const SWEEP_DATA_SEED: u64 = 42;
/// The model seed of the sweep's first (and, at smoke scale, only) repeat.
const SWEEP_MODEL_SEED: u64 = 1000;

/// Cells per sweep.
pub const CELLS: usize = DATASETS.len() * ALL_MODELS.len();

/// The cell the benchmark recomputes on its own, picked by the seed.
pub fn recheck_cell(seed: u64) -> (&'static str, &'static str) {
    let mut rng = StdRng::seed_from_u64(seed);
    (*DATASETS.choose(&mut rng).expect("datasets"), *ALL_MODELS.choose(&mut rng).expect("models"))
}

/// The recomputed cell's MAE and RMSE at each paper horizon, from
/// `train_model` + `predict` and the benchmark's own metric code.
pub fn recompute_cell(dataset: &str, model: &str) -> Vec<(f64, f64)> {
    let scale = ExperimentScale::smoke();
    let exp = prepare_experiment(dataset, &scale, SWEEP_DATA_SEED);
    let test = eval_split(&exp.data.test, &scale);
    let (m, _) = train_model(model, &exp, &scale, SWEEP_MODEL_SEED);
    let pred = predict(m.as_ref(), &test, &exp.data.scaler, scale.batch_size);
    PAPER_HORIZONS
        .iter()
        .map(|&h| {
            let p = pred.narrow(1, h, 1);
            let t = test.y_raw.narrow(1, h, 1);
            checks::own_mae_rmse(p.as_slice(), t.as_slice())
        })
        .collect()
}

/// One training step of every model on a smoke-scale dataset, so the
/// code paths and the buffer pool are warm before the first sweep.
fn warm_up(scale: &ExperimentScale) {
    let exp = prepare_experiment(DATASETS[0], scale, SWEEP_DATA_SEED);
    let one_step = ExperimentScale { max_train_batches: Some(1), ..scale.clone() };
    for m in ALL_MODELS {
        train_model(m, &exp, &one_step, SWEEP_MODEL_SEED);
    }
}

/// No row failed, every value is finite, MAE ≤ RMSE, and the recomputed
/// cell matches its rows.
pub fn check_rows(out: &mut Outcome, rows: &[Fig1Row], cell: (&str, &str), own: &[(f64, f64)]) {
    for r in rows {
        let what = format!("fig1 {}/{} {}", r.dataset, r.model, r.horizon);
        if let Some(e) = &r.error {
            out.check(Err(format!("{what}: cell failed: {e}")));
            continue;
        }
        if [r.mae.0, r.rmse.0, r.mape.0].iter().any(|v| !v.is_finite()) {
            out.check(Err(format!("{what}: a metric is not finite")));
        } else if r.mae.0 > r.rmse.0 * (1.0 + 1e-6) {
            out.check(Err(format!("{what}: MAE {} exceeds RMSE {}", r.mae.0, r.rmse.0)));
        }
    }
    let mine: Vec<&Fig1Row> =
        rows.iter().filter(|r| r.dataset == cell.0 && r.model == cell.1).collect();
    if mine.len() != own.len() {
        out.check(Err(format!(
            "fig1 {}/{}: {} rows, expected {}",
            cell.0,
            cell.1,
            mine.len(),
            own.len()
        )));
        return;
    }
    for (r, &o) in mine.iter().zip(own) {
        let what = format!("fig1 {}/{} {} recomputed", r.dataset, r.model, r.horizon);
        out.check(checks::metrics_agree(&what, (r.mae.0, r.rmse.0), o, 1e-4));
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let scale = ExperimentScale::smoke();
    warm_up(&scale);
    out.metrics.set("setup_s", secs(opts.start), "s");
    eprintln!("sweep: setup {:.2}s", secs(opts.start));

    let cell_hist = traffic_obs::histogram("sched/cell_s");
    let (mut sweep_s, mut cell_mean_s) = (Vec::new(), Vec::new());
    let mut last = Vec::new();
    let n = rounds(opts.seconds, || {
        cell_hist.reset();
        let t = Instant::now();
        let rows = model_comparison(&DATASETS, &ALL_MODELS, &scale);
        sweep_s.push(secs(t));
        out.attempted += CELLS as u64;
        out.failed += rows.iter().filter(|r| r.error.is_some()).count() as u64 / 3;
        cell_mean_s.push(cell_hist.mean());
        last = rows;
    });
    eprintln!("sweep: {n} sweep(s), seconds per sweep {sweep_s:.2?}");
    out.metrics.set("throughput_per_s", CELLS as f64 / median(&sweep_s), "1/s");
    out.metrics.set("latency_ms", 1e3 * median(&cell_mean_s), "ms");
    let cell = recheck_cell(opts.seed);
    let own = recompute_cell(cell.0, cell.1);
    check_rows(&mut out, &last, cell, &own);
    out
}
