//! Property tests pinning the SIMD kernels to their scalar references.
//!
//! Lane-wise kernels ([`Unary`], [`Binary`], [`Ternary`], the fused
//! gated activation) must be **bit-identical** to scalar for every
//! input bit pattern — NaN payloads excepted (both paths must produce
//! *a* NaN, but x86 scalar/vector payload propagation is unspecified).
//! Horizontal reductions are only tolerance-checked (the 8-accumulator
//! fold changes association order), and their dispatch is flag-gated.
//!
//! Coverage deliberately includes the awkward cases: lengths 0, 1, 7,
//! 8, 9 (remainder lanes around one vector), 4095 (many vectors plus a
//! 7-element tail), unaligned slice starts (offsets 1/2/3/5 floats off
//! a 32-byte boundary), and special values (±0, ±inf, NaN, subnormals,
//! branch-boundary inputs of the activation kernels) injected into
//! otherwise random data.
//!
//! All comparisons use the forced entry points (`try_*_avx2` vs
//! `simd::scalar::*`), so they are race-free and skip cleanly on
//! machines without AVX2.

mod common;

use common::spiky_data;
use proptest::prelude::*;
use traffic_tensor::simd::{self, scalar, Binary, Ternary, Unary};

/// Lengths around vector boundaries, plus empty and a big odd size.
const LENS: [usize; 7] = [0, 1, 7, 8, 9, 32, 4095];
/// Slice start offsets: element 0 of a fresh Vec is 32-byte aligned
/// often enough that these exercise genuinely unaligned loads.
const OFFSETS: [usize; 4] = [1, 2, 3, 5];
/// Pool large enough for every (offset, len) window.
const POOL: usize = 4110;

fn bits_eq(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Random finite data with special values and activation branch
/// boundaries scattered through it.
fn decorated_pool() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-50.0f32..50.0, POOL).prop_map(|mut v| {
        const SPECIALS: [f32; 12] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0e-40, // subnormal
            f32::MAX,
            f32::MIN_POSITIVE,
            0.25, // tanh poly/exp seam
            -0.25,
            9.02,  // tanh saturation seam
            -88.0, // exp underflow neighbourhood
        ];
        for (k, i) in (0..v.len()).step_by(13).enumerate() {
            v[i] = SPECIALS[k % SPECIALS.len()];
        }
        v
    })
}

fn unary_ops() -> Vec<Unary> {
    vec![
        Unary::AddS(0.37),
        Unary::MulS(-1.7),
        Unary::SqMulS(0.001),
        Unary::Neg,
        Unary::Abs,
        Unary::MaxS(0.0),
        Unary::MinS(2.5),
        Unary::Tanh,
        Unary::Sigmoid,
        Unary::Exp,
    ]
}

fn binary_ops() -> Vec<Binary> {
    vec![
        Binary::Add,
        Binary::Sub,
        Binary::Mul,
        Binary::Div,
        Binary::Axpy(0.3),
        Binary::Axpy(-0.01),
        Binary::ScaleAdd(0.9),
        Binary::Lerp(0.9, 0.1),
        Binary::SqLerp(0.999, 0.001),
        Binary::TanhBwd,
        Binary::SigmoidBwd,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unary_kernels_bit_identical(pool in decorated_pool()) {
        for op in unary_ops() {
            for &off in &OFFSETS {
                for &n in &LENS {
                    let src = &pool[off..off + n];
                    let mut want = vec![0.0f32; n];
                    scalar::unary(op, src, &mut want);
                    let mut got = vec![0.0f32; n];
                    if !simd::try_unary_avx2(op, src, &mut got) {
                        return Ok(()); // no AVX2 on this host
                    }
                    for i in 0..n {
                        prop_assert!(
                            bits_eq(got[i], want[i]),
                            "{op:?} lane {i}/{n} off {off}: {:08x} vs {:08x} (x={})",
                            got[i].to_bits(), want[i].to_bits(), src[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn binary_kernels_bit_identical(pa in decorated_pool(), pb in decorated_pool()) {
        for op in binary_ops() {
            for &off in &OFFSETS {
                for &n in &LENS {
                    let a = &pa[off..off + n];
                    let b = &pb[off + 1..off + 1 + n]; // different misalignment
                    let mut want = vec![0.0f32; n];
                    scalar::binary(op, a, b, &mut want);
                    let mut got = vec![0.0f32; n];
                    if !simd::try_binary_avx2(op, a, b, &mut got) {
                        return Ok(());
                    }
                    for i in 0..n {
                        prop_assert!(
                            bits_eq(got[i], want[i]),
                            "{op:?} lane {i}/{n} off {off}: {:08x} vs {:08x} (a={}, b={})",
                            got[i].to_bits(), want[i].to_bits(), a[i], b[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adam_update_bit_identical(
        pp in decorated_pool(),
        pm in decorated_pool(),
        pv in decorated_pool(),
        inv_bc1 in 0.5f32..2.0,
        inv_bc2 in 0.5f32..2.0,
    ) {
        let op = Ternary::AdamUpdate { inv_bc1, inv_bc2, eps: 1e-8, lr: 1e-3 };
        for &off in &OFFSETS {
            for &n in &LENS {
                let m = &pm[off..off + n];
                let v = &pv[off + 2..off + 2 + n];
                let mut want: Vec<f32> = pp[off + 1..off + 1 + n].to_vec();
                scalar::ternary_assign(op, &mut want, m, v);
                let mut got: Vec<f32> = pp[off + 1..off + 1 + n].to_vec();
                if !simd::try_ternary_assign_avx2(op, &mut got, m, v) {
                    return Ok(());
                }
                for i in 0..n {
                    prop_assert!(
                        bits_eq(got[i], want[i]),
                        "adam lane {i}/{n} off {off}: {:08x} vs {:08x}",
                        got[i].to_bits(), want[i].to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn gated_kernels_bit_identical(pf in decorated_pool(), pg in decorated_pool()) {
        for &off in &OFFSETS {
            for &n in &LENS {
                let f = &pf[off..off + n];
                let g = &pg[off + 3..off + 3 + n];
                // Forward.
                let (mut t0, mut s0, mut o0) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
                scalar::gated_fwd(f, g, &mut t0, &mut s0, &mut o0);
                let (mut t1, mut s1, mut o1) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
                if !simd::try_gated_fwd_avx2(f, g, &mut t1, &mut s1, &mut o1) {
                    return Ok(());
                }
                for i in 0..n {
                    prop_assert!(bits_eq(t1[i], t0[i]), "gated t lane {i}/{n}");
                    prop_assert!(bits_eq(s1[i], s0[i]), "gated s lane {i}/{n}");
                    prop_assert!(bits_eq(o1[i], o0[i]), "gated out lane {i}/{n}");
                }
                // Backward, fed with the scalar forward's activations.
                let (mut gf0, mut gg0) = (vec![0.0f32; n], vec![0.0f32; n]);
                scalar::gated_bwd(f, &t0, &s0, &mut gf0, &mut gg0);
                let (mut gf1, mut gg1) = (vec![0.0f32; n], vec![0.0f32; n]);
                if !simd::try_gated_bwd_avx2(f, &t0, &s0, &mut gf1, &mut gg1) {
                    return Ok(());
                }
                for i in 0..n {
                    prop_assert!(bits_eq(gf1[i], gf0[i]), "gated gf lane {i}/{n}");
                    prop_assert!(bits_eq(gg1[i], gg0[i]), "gated gg lane {i}/{n}");
                }
            }
        }
    }

    #[test]
    fn softmax_row_bit_identical(seed in 0u32..1000, mask_every in 1usize..6) {
        // Every width 1..40 hits each `n % 8` tail; rows carry the
        // `-1e9` mask on every `mask_every`-th element plus NaN/±inf
        // from `spiky_data`, and an all-`-inf` row rides along. Rows
        // start at offsets 0 and 3 of their buffer (unaligned loads).
        let scales = [None, Some(0.353_553_4f32), Some(-1.7)];
        for width in 1..40 {
            let mut masked = spiky_data(width, seed);
            for (i, v) in masked.iter_mut().enumerate() {
                if i % mask_every == 0 {
                    *v += -1e9;
                }
            }
            for row in [masked, vec![f32::NEG_INFINITY; width]] {
                for scale in scales {
                    for off in [0, 3] {
                        let mut want = vec![0.0f32; off + width];
                        want[off..].copy_from_slice(&row);
                        let mut got = want.clone();
                        scalar::softmax_row(&mut want[off..], scale);
                        if !simd::try_softmax_row_avx2(&mut got[off..], scale) {
                            return Ok(()); // no AVX2 on this host
                        }
                        for i in off..off + width {
                            prop_assert!(
                                bits_eq(got[i], want[i]),
                                "softmax {scale:?} lane {i}/{width} off {off}: {:08x} vs {:08x} (x={})",
                                got[i].to_bits(), want[i].to_bits(), row[i - off]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn simd_sum_within_accumulation_tolerance(pool in decorated_pool()) {
        // Finite data only: ±inf/NaN make both orders degenerate.
        let clean: Vec<f32> = pool.iter().map(|v| {
            if v.is_finite() && v.abs() < 1e6 { *v } else { 0.125 }
        }).collect();
        for &off in &OFFSETS {
            for &n in &LENS {
                let src = &clean[off..off + n];
                let want = scalar::sum(src);
                let Some(got) = simd::try_sum_avx2(src) else { return Ok(()); };
                // 1e-6 relative to the absolute mass bounds both
                // accumulation orders' divergence from the real sum.
                let mass: f64 = src.iter().map(|v| v.abs() as f64).sum();
                let tol = (mass + 1.0) * 1e-6;
                prop_assert!(
                    ((got as f64) - (want as f64)).abs() <= tol,
                    "sum n={n} off={off}: simd {got} vs scalar {want} (tol {tol})"
                );
            }
        }
    }

    /// The routed Tensor entry points must compute exactly what the
    /// pre-SIMD closure forms computed (dispatch may pick either path —
    /// both are pinned to the same bits).
    #[test]
    fn tensor_routing_matches_closures(pool in decorated_pool()) {
        use traffic_tensor::Tensor;
        let n = 515; // odd length: vectors + remainder
        let a = Tensor::from_vec(pool[..n].to_vec(), &[5, 103]);
        let b = Tensor::from_vec(pool[n..2 * n].to_vec(), &[5, 103]);
        let cases: Vec<(Tensor, Tensor)> = vec![
            (a.add(&b), a.zip_map(&b, |x, y| x + y)),
            (a.sub(&b), a.zip_map(&b, |x, y| x - y)),
            (a.mul(&b), a.zip_map(&b, |x, y| x * y)),
            (a.div(&b), a.zip_map(&b, |x, y| x / y)),
            (a.neg(), a.map(|x| -x)),
            (a.abs(), a.map(f32::abs)),
            (a.add_scalar(0.7), a.map(|x| x + 0.7)),
            (a.mul_scalar(-2.3), a.map(|x| x * -2.3)),
            // clamp_min/max tie-break like maxps/minps: second operand
            // on ties and NaN (see simd::scalar::unary_one).
            (a.clamp_min(0.0), a.map(|x| if x > 0.0 { x } else { 0.0 })),
            (a.clamp_max(1.5), a.map(|x| if x < 1.5 { x } else { 1.5 })),
            (a.tanh(), a.map(traffic_tensor::fastmath::tanh)),
            (a.sigmoid(), a.map(traffic_tensor::fastmath::sigmoid)),
            (a.exp(), a.map(traffic_tensor::fastmath::exp)),
        ];
        for (ci, (got, want)) in cases.iter().enumerate() {
            for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                prop_assert!(bits_eq(*x, *y), "case {ci} elem {i}: {x} vs {y}");
            }
        }
    }
}
