//! Classical baselines (extensions beyond the paper's eight deep models):
//! persistence ("last value") and historical average. The paper's related
//! work notes deep models are compared against such baselines in the
//! original papers; including them makes the error magnitudes of Fig 1
//! interpretable.

use traffic_nn::ParamStore;
use traffic_tensor::{Tape, Tensor, Var};

use crate::common::{TrafficModel, TrainCtx};
use crate::meta::{ModelMeta, OutputStyle, SpatialComponent, TemporalComponent};

/// Persistence baseline: every horizon is predicted as the last observed
/// (z-scored) value. No parameters, no training.
pub struct LastValue {
    store: ParamStore,
    t_out: usize,
}

impl LastValue {
    /// New persistence baseline emitting `t_out` steps.
    pub fn new(t_out: usize) -> Self {
        LastValue { store: ParamStore::new(), t_out }
    }
}

impl TrafficModel for LastValue {
    fn name(&self) -> &'static str {
        "LastValue"
    }

    fn meta(&self) -> ModelMeta {
        ModelMeta {
            name: "LastValue",
            spatial: SpatialComponent::SpatialGcn, // degenerate: identity graph
            temporal: TemporalComponent::Cnn,      // degenerate: copy
            output: OutputStyle::Direct,
        }
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn forward<'t>(
        &self,
        tape: &'t Tape,
        x: Var<'t>,
        _train: Option<&mut TrainCtx<'_>>,
    ) -> Var<'t> {
        let shape = x.shape();
        let (b, t, n) = (shape[0], shape[1], shape[2]);
        let _ = tape;
        // value feature of the last input step, broadcast over horizons
        let last = x.narrow(1, t - 1, 1).narrow(3, 0, 1).reshape(&[b, 1, n]);
        let copies: Vec<Var<'t>> = (0..self.t_out).map(|_| last).collect();
        Var::concat(&copies, 1)
    }
}

/// Historical average: predicts the per-(node, time-of-day) mean of the
/// training data. Must be fitted before use.
pub struct HistoricalAverage {
    store: ParamStore,
    /// `[steps_per_day, N]` mean profile on the z-scored scale.
    profile: Tensor,
    steps_per_day: usize,
    t_out: usize,
}

impl HistoricalAverage {
    /// Fits the profile from a raw `[T, N]` series (original scale) plus
    /// the z-score parameters used downstream. Missing entries (zeros) are
    /// excluded from the averages.
    pub fn fit(
        values: &Tensor,
        train_steps: usize,
        scaler_mean: f32,
        scaler_std: f32,
        steps_per_day: usize,
        t_out: usize,
    ) -> Self {
        let n = values.shape()[1];
        let data = values.as_slice();
        let mut sums = vec![0.0f64; steps_per_day * n];
        let mut counts = vec![0usize; steps_per_day * n];
        for t in 0..train_steps.min(values.shape()[0]) {
            let sod = t % steps_per_day;
            for i in 0..n {
                let v = data[t * n + i];
                if v != 0.0 {
                    sums[sod * n + i] += v as f64;
                    counts[sod * n + i] += 1;
                }
            }
        }
        let mut profile = vec![0.0f32; steps_per_day * n];
        for k in 0..steps_per_day * n {
            let mean =
                if counts[k] > 0 { (sums[k] / counts[k] as f64) as f32 } else { scaler_mean };
            profile[k] = (mean - scaler_mean) / scaler_std;
        }
        HistoricalAverage {
            store: ParamStore::new(),
            profile: Tensor::from_vec(profile, &[steps_per_day, n]),
            steps_per_day,
            t_out,
        }
    }
}

impl TrafficModel for HistoricalAverage {
    fn name(&self) -> &'static str {
        "HistoricalAverage"
    }

    fn meta(&self) -> ModelMeta {
        ModelMeta {
            name: "HistoricalAverage",
            spatial: SpatialComponent::SpatialGcn, // degenerate
            temporal: TemporalComponent::Cnn,      // degenerate
            output: OutputStyle::Direct,
        }
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn forward<'t>(
        &self,
        tape: &'t Tape,
        x: Var<'t>,
        _train: Option<&mut TrainCtx<'_>>,
    ) -> Var<'t> {
        let shape = x.shape();
        let (b, t_in, n) = (shape[0], shape[1], shape[2]);
        // Recover each sample's time-of-day from the (min-max normalised)
        // feature, then look up the profile for the target steps.
        let xv = x.value();
        let mut result = Tensor::zeros(&[b, self.t_out, n]);
        let out = result.make_mut();
        for bi in 0..b {
            // tod of last input step at node 0
            let tod = xv.at(&[bi, t_in - 1, 0, 1]);
            let sod_last = (tod * self.steps_per_day as f32).round() as usize % self.steps_per_day;
            for h in 0..self.t_out {
                let sod = (sod_last + 1 + h) % self.steps_per_day;
                for i in 0..n {
                    out[(bi * self.t_out + h) * n + i] = self.profile.at(&[sod, i]);
                }
            }
        }
        tape.constant(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_copies_final_step() {
        let model = LastValue::new(3);
        let tape = Tape::new();
        // [1, 2, 2, 2]: values 1, 2 at node 0/1 in last step
        let x = tape.constant(Tensor::from_vec(
            vec![9.0, 0.1, 9.0, 0.1, 1.0, 0.2, 2.0, 0.2],
            &[1, 2, 2, 2],
        ));
        let y = model.forward(&tape, x, None).value();
        assert_eq!(y.shape(), &[1, 3, 2]);
        for h in 0..3 {
            assert_eq!(y.at(&[0, h, 0]), 1.0);
            assert_eq!(y.at(&[0, h, 1]), 2.0);
        }
        assert_eq!(model.num_params(), 0);
    }

    #[test]
    fn historical_average_learns_daily_profile() {
        // 2 nodes, 2 "days" of 4 steps with a repeating profile.
        let steps_per_day = 4;
        let mut vals = Vec::new();
        for _day in 0..2 {
            for sod in 0..steps_per_day {
                vals.push(10.0 + sod as f32); // node 0
                vals.push(20.0 + sod as f32); // node 1
            }
        }
        let values = Tensor::from_vec(vals, &[8, 2]);
        let ha = HistoricalAverage::fit(&values, 8, 0.0, 1.0, steps_per_day, 2);
        // profile at sod 2 = raw mean since scaler is identity
        assert_eq!(ha.profile.at(&[2, 0]), 12.0);
        assert_eq!(ha.profile.at(&[3, 1]), 23.0);
    }

    #[test]
    fn historical_average_forward_lookup() {
        let steps_per_day = 4;
        let values = Tensor::from_vec(
            (0..8).flat_map(|t| vec![(t % 4) as f32 + 1.0, 0.0]).collect::<Vec<f32>>(),
            &[8, 2],
        );
        let ha = HistoricalAverage::fit(&values, 8, 0.0, 1.0, steps_per_day, 2);
        let tape = Tape::new();
        // last input step has tod = 1/4 (sod 1); targets are sods 2 and 3
        let x = tape.constant(Tensor::from_vec(vec![0.0, 0.25, 0.0, 0.25], &[1, 1, 2, 2]));
        let y = ha.forward(&tape, x, None).value();
        assert_eq!(y.at(&[0, 0, 0]), 3.0); // sod 2 profile of node 0
        assert_eq!(y.at(&[0, 1, 0]), 4.0); // sod 3
                                           // node 1 had only missing data → profile falls back to scaler mean (0)
        assert_eq!(y.at(&[0, 0, 1]), 0.0);
    }
}
