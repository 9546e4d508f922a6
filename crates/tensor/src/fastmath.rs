//! Fast scalar math kernels for elementwise activations and `exp`.
//!
//! glibc's `tanhf` costs ~13 ns/element on this generation of x86 —
//! roughly 4× the price of `expf` — and the gated temporal convolutions
//! evaluate it over ~1.5 M elements per training step. The kernels here
//! reformulate `tanh` and the logistic sigmoid through a private
//! polynomial [`exp`], keeping relative error within a few f32 ulps of
//! libm (≤ ~6e-7 against an f64 reference) while running several times
//! faster. [`exp`] is also the crate's only `exp`: `Tensor::exp` and
//! every softmax row run it, so their results depend on the input bits
//! alone, where libm's `expf` differs between glibc versions and the
//! CPU variants glibc picks at load time.
//!
//! **SIMD contract.** Every kernel in this module is written as
//! straight-line arithmetic over operations that have exact 8-lane
//! AVX2 counterparts — add/sub/mul/div (correctly rounded), `floor`,
//! compare-and-select, and sign-bit manipulation — with no calls into
//! libm and no `mul_add` (FP contraction would differ between lanes
//! and scalar code on targets without hardware FMA). The vectorized
//! rails in [`crate::simd`] are 1:1 transliterations, so for every
//! input bit pattern the SIMD result is **bit-identical** to the
//! scalar result. Proptests in `tests/simd_proptest.rs` pin this.
//!
//! Determinism: each kernel is a pure function of its input bits, so
//! results are reproducible across runs, thread counts, and the
//! SIMD-on/off dispatch (the pool and SIMD bit-identity guarantees
//! compose — both paths perform the same arithmetic).

/// Above this, [`exp`] returns `+inf` (the scale step would need
/// `2^128`). `127.5 · ln 2 ≈ 88.376`; true `exp` stays finite up to
/// 88.722, so the kernel saturates a hair early — irrelevant for the
/// activation rails, which feed it `|x| ≤ 18.04`, and for softmax,
/// which feeds it `x − m ≤ 0`.
pub const EXP_HI: f32 = 88.37;
/// Below this, [`exp`] returns `0.0` (the result would be denormal).
/// This is the only clamp softmax reaches: a term libm would return as
/// a denormal becomes 0. The row sum holds the maximum's own term
/// `exp(0) = 1`, so it is at least 1 and does not change, and the
/// output element moves by less than the smallest normal f32.
pub const EXP_LO: f32 = -87.33;

/// `log2(e)`, the range-reduction multiplier.
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split Cody–Waite style so `x − k·ln2` is computed without
/// cancellation error: `LN2_HI` has an exact short mantissa (the full
/// decimal is kept on purpose — it documents that the value is exactly
/// representable).
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;

// Degree-5 minimax coefficients for `e^r − 1 − r` on
// `r ∈ [−ln2/2, ln2/2]` (Cephes `expf` constants). `pub` so
// `crate::simd` transliterates the polynomial with identical bits.
pub const EXP_C0: f32 = 1.987_569_1e-4;
pub const EXP_C1: f32 = 1.398_199_9e-3;
pub const EXP_C2: f32 = 8.333_452e-3;
pub const EXP_C3: f32 = 4.166_579_6e-2;
pub const EXP_C4: f32 = 1.666_666_5e-1;
// Cephes prints 5.0000001201e-1; the nearest f32 is exactly 0.5. The
// original digits are kept for provenance.
#[allow(clippy::excessive_precision)]
pub const EXP_C5: f32 = 5.000_000_2e-1;

/// Fast `e^x` accurate to ~2 f32 ulps on `[EXP_LO, EXP_HI]`.
///
/// Range reduction `x = k·ln2 + r` (round-to-nearest `k`, Cody–Waite
/// subtraction), degree-6 polynomial for `e^r`, exponent insertion for
/// `2^k`. Out-of-range inputs saturate to `+inf` / `0.0`; NaN
/// propagates. Every step maps 1:1 onto AVX2 ops — see the module doc.
#[inline]
pub fn exp(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    if x > EXP_HI {
        return f32::INFINITY;
    }
    if x < EXP_LO {
        return 0.0;
    }
    // k = round(x / ln2), as a float (exact integer value).
    let kf = (x * LOG2E + 0.5).floor();
    // r = x − k·ln2 without cancellation.
    let r = x - kf * LN2_HI;
    let r = r - kf * LN2_LO;
    // e^r = 1 + r + r²·p(r).
    let p = EXP_C0;
    let p = p * r + EXP_C1;
    let p = p * r + EXP_C2;
    let p = p * r + EXP_C3;
    let p = p * r + EXP_C4;
    let p = p * r + EXP_C5;
    let p = (p * r) * r + r + 1.0;
    // 2^k by direct exponent-field construction; k ∈ [−126, 127] here.
    let two_k = f32::from_bits(((kf as i32 + 127) as u32) << 23);
    p * two_k
}

/// Fast `tanh` accurate to a few f32 ulps everywhere.
///
/// - `|x| < 0.25`: odd Taylor polynomial in `x²` (truncation error
///   < 1e-11 relative; avoids the catastrophic cancellation the exp
///   identity suffers near zero);
/// - `0.25 ≤ |x| < 9.02`: `1 − 2/(e^{2|x|} + 1)` via [`exp`];
/// - `|x| ≥ 9.02`: ±1 exactly (f32 `tanh` saturates there);
/// - NaN propagates, ±0.0 and sign are preserved via `copysign`.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let ax = x.abs();
    if ax < 0.25 {
        let u = x * x;
        // tanh(x)/x = 1 - x²/3 + 2x⁴/15 - 17x⁶/315 + 62x⁸/2835 - …
        let p = 62.0 / 2835.0;
        let p = p * u - 17.0 / 315.0;
        let p = p * u + 2.0 / 15.0;
        let p = p * u - 1.0 / 3.0;
        // x·(1 + u·p) keeps ±0.0 and full precision for tiny x.
        x * (1.0 + u * p)
    } else if ax < 9.02 {
        let e = exp(2.0 * ax);
        (1.0 - 2.0 / (e + 1.0)).copysign(x)
    } else if ax.is_nan() {
        x
    } else {
        1.0f32.copysign(x)
    }
}

/// Logistic sigmoid `1 / (1 + e^{-x})` via [`exp`] (the fused kernels
/// and the autograd op share this exact function, so every rail stays
/// bit-identical). `σ(−∞) = 0`, `σ(+∞) = 1`, NaN propagates.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_matches_libm_closely() {
        let mut max_rel = 0.0f64;
        for i in 0..350_000 {
            let x = (i as f32) * 5e-4 - 87.0;
            let got = exp(x) as f64;
            let want = (x as f64).exp();
            max_rel = max_rel.max((got - want).abs() / want);
        }
        assert!(max_rel < 3e-7, "max relative error {max_rel:.3e}");
    }

    #[test]
    fn exp_special_values() {
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp(200.0), f32::INFINITY);
        assert_eq!(exp(-200.0), 0.0);
        // Saturation boundaries are monotone: finite just inside,
        // saturated just outside.
        assert!(exp(EXP_HI).is_finite());
        assert!(exp(EXP_HI) < exp(EXP_HI + 0.1));
        assert!(exp(EXP_LO) > 0.0);
        assert_eq!(exp(EXP_LO - 0.1), 0.0);
    }

    #[test]
    fn tanh_matches_libm_closely() {
        // Sweep [-12, 12] densely; compare against f64 tanh.
        let mut max_rel = 0.0f64;
        for i in 0..480_000 {
            let x = (i as f32) * 5e-5 - 12.0;
            let got = tanh(x) as f64;
            let want = (x as f64).tanh();
            if want.abs() > 1e-30 {
                max_rel = max_rel.max((got - want).abs() / want.abs());
            } else {
                assert_eq!(got, want);
            }
        }
        assert!(max_rel < 6e-7, "max relative error {max_rel:.3e}");
    }

    #[test]
    fn tanh_special_values() {
        assert!(tanh(f32::NAN).is_nan());
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(50.0), 1.0);
        assert_eq!(tanh(-50.0), -1.0);
        // Odd symmetry holds bitwise in every branch.
        for x in [1e-8f32, 0.1, 0.2499, 0.25, 1.0, 5.0, 9.0, 9.5] {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits());
        }
    }

    #[test]
    fn tanh_monotone_across_branch_boundary() {
        // No discontinuity where the polynomial hands over to the exp
        // identity (0.25) or where the exp identity saturates (9.02).
        for base in [0.25f32, 9.02] {
            let lo = tanh(base * (1.0 - 1e-4));
            let hi = tanh(base * (1.0 + 1e-4));
            assert!(lo <= hi, "non-monotone at {base}: {lo} > {hi}");
            assert!((hi - lo) < 1e-3);
        }
    }

    #[test]
    fn sigmoid_matches_reference_closely() {
        // Sweep [-30, 30] densely; compare against the f64 logistic.
        let mut max_rel = 0.0f64;
        for i in 0..600_000 {
            let x = (i as f32) * 1e-4 - 30.0;
            let got = sigmoid(x) as f64;
            let want = 1.0 / (1.0 + (-(x as f64)).exp());
            max_rel = max_rel.max((got - want).abs() / want);
        }
        assert!(max_rel < 6e-7, "max relative error {max_rel:.3e}");
    }

    #[test]
    fn sigmoid_special_values() {
        assert!(sigmoid(f32::NAN).is_nan());
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY), 0.0);
        // Saturates exactly at the exp clamp, not before the extremes.
        assert_eq!(sigmoid(100.0), 1.0);
        assert_eq!(sigmoid(-100.0), 0.0);
        assert!(sigmoid(-80.0) > 0.0, "no premature underflow to 0");
        assert!(sigmoid(15.0) < 1.0, "σ(15) is still below 1 in f32");
    }

    #[test]
    fn sigmoid_monotone_and_bounded() {
        // Mirrors the tanh boundary test: non-decreasing across the exp
        // kernel's round-to-nearest-k seams and everywhere else, within
        // [0, 1], on a dense sweep.
        let mut prev = 0.0f32;
        for i in 0..120_000 {
            let x = (i as f32) * 5e-4 - 30.0;
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s), "σ({x}) = {s} out of [0,1]");
            // Allow a ≤2-ulp wobble at polynomial seams.
            assert!(s >= prev - prev * 3e-7, "σ not monotone at {x}: {s} < {prev}");
            prev = prev.max(s);
        }
    }

    #[test]
    fn sigmoid_branch_boundaries() {
        // The underlying exp switches k at odd multiples of ln2/2; spot
        // check continuity around several seams.
        for base in [0.3466f32, 1.0397, 5.0, 9.02] {
            for sign in [1.0f32, -1.0] {
                let b = base * sign;
                let lo = sigmoid(b - 1e-4);
                let hi = sigmoid(b + 1e-4);
                assert!((hi - lo).abs() < 1e-3, "jump at {b}: {lo} vs {hi}");
            }
        }
    }
}
