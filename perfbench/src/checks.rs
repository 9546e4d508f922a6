//! Output checks. Each compares the program's output with a value the
//! benchmark computes on its own, or with a property the method must
//! have, and returns the reason when it does not hold.

/// Result of one check: `Err` carries what went wrong.
pub type Check = Result<(), String>;

/// `got` equals `want` elementwise within `tol · max(1, |want|)`.
pub fn close(what: &str, got: &[f32], want: &[f32], tol: f32) -> Check {
    if got.len() != want.len() {
        return Err(format!("{what}: {} values, expected {}", got.len(), want.len()));
    }
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        if !g.is_finite() || (g - w).abs() > tol * w.abs().max(1.0) {
            return Err(format!("{what}: value {i} is {g}, expected {w} (tolerance {tol})"));
        }
    }
    Ok(())
}

/// Every value is finite and the shape is the expected one.
pub fn finite_with_shape(what: &str, shape: &[usize], want: &[usize], values: &[f32]) -> Check {
    if shape != want {
        return Err(format!("{what}: shape {shape:?}, expected {want:?}"));
    }
    match values.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(format!("{what}: value {i} is not finite")),
        None => Ok(()),
    }
}

/// MAE and RMSE over entries whose target is non-zero (zero targets are
/// sensor dropouts), computed in f64 apart from `traffic-metrics`.
pub fn own_mae_rmse(pred: &[f32], target: &[f32]) -> (f64, f64) {
    assert_eq!(pred.len(), target.len(), "prediction/target length mismatch");
    let (mut abs, mut sq, mut n) = (0.0f64, 0.0f64, 0usize);
    for (&p, &t) in pred.iter().zip(target) {
        if t != 0.0 {
            let e = f64::from(p) - f64::from(t);
            abs += e.abs();
            sq += e * e;
            n += 1;
        }
    }
    if n == 0 {
        (f64::NAN, f64::NAN)
    } else {
        (abs / n as f64, (sq / n as f64).sqrt())
    }
}

/// The program's MAE/RMSE agree with the benchmark's own to a relative
/// `tol`, and MAE ≤ RMSE (a property of any error sample).
pub fn metrics_agree(what: &str, reported: (f32, f32), own: (f64, f64), tol: f64) -> Check {
    let (mae, rmse) = (f64::from(reported.0), f64::from(reported.1));
    for (name, r, o) in [("MAE", mae, own.0), ("RMSE", rmse, own.1)] {
        if !r.is_finite() || !o.is_finite() || (r - o).abs() > tol * o.abs().max(1e-6) {
            return Err(format!("{what}: {name} {r} disagrees with recomputed {o}"));
        }
    }
    if mae > rmse * (1.0 + 1e-6) {
        return Err(format!("{what}: MAE {mae} exceeds RMSE {rmse}"));
    }
    Ok(())
}

/// Two scalars agree to a relative `tol`.
pub fn scalar_close(what: &str, got: f64, want: f64, tol: f64) -> Check {
    if got.is_finite() && (got - want).abs() <= tol * want.abs().max(1e-6) {
        Ok(())
    } else {
        Err(format!("{what}: {got} differs from {want} by more than {tol} (relative)"))
    }
}

/// An answer given after a reload came from the newly loaded weights:
/// it matches `new` and not `old`. The two snapshots must answer the
/// probe differently, or the check could not tell them apart.
pub fn answered_by_new(got: &[f32], new: &[f32], old: &[f32], tol: f32) -> Check {
    if close("old vs new snapshot", new, old, tol).is_ok() {
        return Err("the two snapshots answer the probe identically".into());
    }
    close("answer after reload", got, new, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prediction() -> Vec<f32> {
        (0..48).map(|i| 50.0 + (i as f32 * 0.37).sin() * 10.0).collect()
    }

    #[test]
    fn a_perturbed_prediction_fails() {
        let want = prediction();
        assert!(close("p", &want, &want, 1e-4).is_ok());
        let mut got = want.clone();
        got[17] += 0.05;
        assert!(close("p", &got, &want, 1e-4).is_err());
        got[17] = f32::NAN;
        assert!(close("p", &got, &want, 1e-4).is_err());
        assert!(close("p", &want[1..], &want, 1e-4).is_err());
    }

    #[test]
    fn a_reload_answered_with_the_old_weights_fails() {
        let old = prediction();
        let new: Vec<f32> = old.iter().map(|v| v + 1.0).collect();
        assert!(answered_by_new(&new, &new, &old, 1e-4).is_ok());
        assert!(answered_by_new(&old, &new, &old, 1e-4).is_err());
        // Identical snapshots cannot show which one answered.
        assert!(answered_by_new(&old, &old, &old, 1e-4).is_err());
    }

    #[test]
    fn a_mae_that_disagrees_with_the_recomputed_one_fails() {
        let target = prediction();
        let pred: Vec<f32> = target.iter().enumerate().map(|(i, t)| t + (i % 3) as f32).collect();
        let own = own_mae_rmse(&pred, &target);
        assert!((own.0 - 1.0).abs() < 1e-9);
        let reported = (own.0 as f32, own.1 as f32);
        assert!(metrics_agree("m", reported, own, 1e-5).is_ok());
        assert!(metrics_agree("m", (reported.0 * 1.01, reported.1), own, 1e-5).is_err());
        // MAE above RMSE is impossible for a real error sample.
        assert!(metrics_agree("m", (2.0, 1.0), (2.0, 1.0), 1e-5).is_err());
    }

    #[test]
    fn zero_targets_are_masked() {
        let (mae, rmse) = own_mae_rmse(&[1.0, 5.0], &[0.0, 3.0]);
        assert_eq!((mae, rmse), (2.0, 2.0));
    }

    #[test]
    fn a_wrong_shape_or_non_finite_value_fails() {
        assert!(finite_with_shape("p", &[2, 3], &[2, 3], &[0.0; 6]).is_ok());
        assert!(finite_with_shape("p", &[3, 2], &[2, 3], &[0.0; 6]).is_err());
        assert!(finite_with_shape("p", &[2], &[2], &[0.0, f32::INFINITY]).is_err());
        assert!(scalar_close("l", 1.0, 1.0 + 1e-7, 1e-5).is_ok());
        assert!(scalar_close("l", 1.1, 1.0, 1e-5).is_err());
    }
}
