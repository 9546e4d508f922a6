//! Property-based tests of the tensor engine: algebraic identities,
//! broadcasting laws, autograd vs finite differences, and the
//! traffic-compute kernels (blocked GEMM, CSR spmm) against the naive
//! reference on random shapes.

mod common;

use common::spiky_data;
use proptest::prelude::*;
use traffic_tensor::gradcheck::grad_check;
use traffic_tensor::{fastmath, gemm, shape, CsrMatrix, Tensor};

fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

fn tensor_for(shape_v: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n = shape::numel(&shape_v);
    prop::collection::vec(-2.0f32..2.0, n..=n)
        .prop_map(move |data| Tensor::from_vec(data, &shape_v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn add_associative((a, b, c) in small_shape().prop_flat_map(|s| {
        (tensor_for(s.clone()), tensor_for(s.clone()), tensor_for(s))
    })) {
        let lhs = a.add(&b).add(&c);
        let rhs = a.add(&b.add(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn mul_distributes_over_add((a, b, c) in small_shape().prop_flat_map(|s| {
        (tensor_for(s.clone()), tensor_for(s.clone()), tensor_for(s))
    })) {
        let lhs = a.mul(&b.add(&c));
        let rhs = a.mul(&b).add(&a.mul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn broadcast_shape_law(s1 in small_shape(), s2 in small_shape()) {
        // broadcast is symmetric when defined
        let b12 = shape::broadcast_shapes(&s1, &s2);
        let b21 = shape::broadcast_shapes(&s2, &s1);
        prop_assert_eq!(b12, b21);
    }

    #[test]
    fn reshape_preserves_sum(t in small_shape().prop_flat_map(tensor_for)) {
        let n = t.len();
        let flat = t.reshape(&[n]);
        prop_assert!((flat.sum_all() - t.sum_all()).abs() < 1e-3);
    }

    #[test]
    fn sum_axes_total_matches(t in small_shape().prop_flat_map(tensor_for)) {
        let axes: Vec<usize> = (0..t.rank()).collect();
        let all = t.sum_axes(&axes, false);
        prop_assert!((all.item() - t.sum_all()).abs() < 1e-2);
    }

    #[test]
    fn matmul_associative_3(m in 1usize..4, k in 1usize..4, l in 1usize..4, n in 1usize..4) {
        // (A·B)·C == A·(B·C) within fp tolerance
        let a = Tensor::from_vec((0..m * k).map(|i| (i as f32 * 0.37).sin()).collect(), &[m, k]);
        let b = Tensor::from_vec((0..k * l).map(|i| (i as f32 * 0.21).cos()).collect(), &[k, l]);
        let c = Tensor::from_vec((0..l * n).map(|i| (i as f32 * 0.13).sin()).collect(), &[l, n]);
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn autograd_matches_numeric_on_random_composite(
        t in small_shape().prop_flat_map(tensor_for)
    ) {
        // f(x) = sum(tanh(x) * x + 0.5 x²) — smooth everywhere.
        let report = grad_check(&[t], 1e-2, |_tape, v| {
            v[0].tanh().mul(&v[0]).add(&v[0].powf(2.0).mul_scalar(0.5)).sum_all()
        });
        prop_assert!(report.max_rel_err < 5e-2, "rel err {}", report.max_rel_err);
    }

    #[test]
    fn conv_linear_in_input(b in 1usize..3, c in 1usize..3, h in 1usize..3, w in 4usize..8) {
        // conv2d(x + y) == conv2d(x) + conv2d(y)
        let mk = |seed: f32| {
            Tensor::from_vec(
                (0..b * c * h * w).map(|i| ((i as f32 + seed) * 0.3).sin()).collect(),
                &[b, c, h, w],
            )
        };
        let x = mk(0.0);
        let y = mk(7.0);
        let kern = Tensor::from_vec(
            (0..(2 * c) * 2).map(|i| (i as f32 * 0.11).cos()).collect(),
            &[2, c, 1, 2],
        );
        let lhs = x.add(&y).conv2d(&kern, 1, 1);
        let rhs = x.conv2d(&kern, 1, 1).add(&y.conv2d(&kern, 1, 1));
        for (p, q) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((p - q).abs() < 1e-3);
        }
    }

    #[test]
    fn narrow_concat_roundtrip(t in small_shape().prop_flat_map(tensor_for), axis_seed in 0usize..8) {
        let axis = axis_seed % t.rank();
        let d = t.shape()[axis];
        prop_assume!(d >= 2);
        let split = d / 2;
        let a = t.narrow(axis, 0, split);
        let b = t.narrow(axis, split, d - split);
        prop_assert_eq!(Tensor::concat(&[&a, &b], axis), t);
    }

    #[test]
    fn blocked_gemm_matches_naive(
        // Ranges cross the MR (6) and NR (16) tile boundaries and
        // include the degenerate k = 0 / n = 1 edges.
        m in 1usize..20,
        k in 0usize..24,
        n in 1usize..36,
        seed in 0u32..1000,
    ) {
        let a: Vec<f32> =
            (0..m * k).map(|i| (((i as u32 + seed) % 97) as f32 - 48.0) * 0.03).collect();
        let b: Vec<f32> =
            (0..k * n).map(|i| (((i as u32 * 7 + seed) % 89) as f32 - 44.0) * 0.025).collect();
        let mut want = vec![0.0f32; m * n];
        gemm::matmul_naive(&a, &b, &mut want, m, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm::gemm(&a, &b, &mut got, m, k, n);
        let mut par = vec![0.0f32; m * n];
        gemm::gemm_parallel(&a, &b, &mut par, m, k, n);
        // Overwrite mode must ignore garbage in `out` and still match
        // the zeroed accumulate kernel bit for bit.
        let mut over = vec![f32::NAN; m * n];
        gemm::gemm_overwrite(&a, &b, &mut over, m, k, n);
        for (((g, p), o), w) in got.iter().zip(&par).zip(&over).zip(&want) {
            prop_assert!((g - w).abs() <= 1e-4 * w.abs().max(1.0), "blocked {g} vs naive {w}");
            // parallel vs serial blocked is bit-exact at any thread count
            prop_assert!(p == g, "parallel {p} vs serial {g}");
            prop_assert!(o.to_bits() == g.to_bits(), "overwrite {o} vs accumulate {g}");
        }
    }

    #[test]
    fn csr_spmm_matches_naive(
        rows in 1usize..16,
        cols in 1usize..16,
        f in 1usize..8,
        density_pct in 0usize..100,
        seed in 0u32..1000,
    ) {
        // Pseudo-random sparsity pattern covering empty, banded-ish,
        // and fully dense matrices.
        let dense_data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 100;
                if (h as usize) < density_pct { (h as f32 - 50.0) * 0.04 } else { 0.0 }
            })
            .collect();
        let dense = Tensor::from_vec(dense_data.clone(), &[rows, cols]);
        let csr = CsrMatrix::from_dense(&dense);
        let x: Vec<f32> =
            (0..cols * f).map(|i| (((i as u32 * 13 + seed) % 71) as f32 - 35.0) * 0.05).collect();
        let mut want = vec![0.0f32; rows * f];
        gemm::matmul_naive(&dense_data, &x, &mut want, rows, cols, f);
        let got = csr.matmul(&Tensor::from_vec(x, &[cols, f]));
        for (g, w) in got.as_slice().iter().zip(&want) {
            prop_assert!((g - w).abs() <= 1e-4 * w.abs().max(1.0), "csr {g} vs naive {w}");
        }
        // transpose round-trips through the counting sort
        prop_assert_eq!(csr.transpose().transpose().to_dense(), dense);
    }

    #[test]
    fn permute_fast_paths_match_reference(
        // Ranks 1–4 with axis sizes crossing the 32-wide transpose
        // tile, and a pseudo-random permutation — exercises both the
        // contiguous-run path and the tiled-transpose path against a
        // naive per-element reference.
        dims in prop::collection::vec(1usize..40, 1..5),
        perm_seed in 0usize..24,
    ) {
        prop_assume!(shape::numel(&dims) <= 20_000);
        let r = dims.len();
        let mut perm: Vec<usize> = (0..r).collect();
        // Lehmer-style shuffle from the seed so all permutations occur.
        let mut s = perm_seed;
        for i in (1..r).rev() {
            perm.swap(i, s % (i + 1));
            s /= i + 1;
        }
        let t = Tensor::from_vec(
            (0..shape::numel(&dims)).map(|i| (i as f32 * 0.37).sin()).collect(),
            &dims,
        );
        let got = t.permute(&perm);
        // Naive reference: out[coords] = in[coords mapped through perm].
        let out_shape: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
        prop_assert_eq!(got.shape(), &out_shape[..]);
        let mut coords = vec![0usize; r];
        for _ in 0..t.len() {
            let mut in_coords = vec![0usize; r];
            for (o, &p) in perm.iter().enumerate() {
                in_coords[p] = coords[o];
            }
            prop_assert_eq!(got.at(&coords).to_bits(), t.at(&in_coords).to_bits());
            for ax in (0..r).rev() {
                coords[ax] += 1;
                if coords[ax] < out_shape[ax] {
                    break;
                }
                coords[ax] = 0;
            }
        }
    }

    #[test]
    fn fused_gated_activation_matches_composition(
        t in small_shape().prop_flat_map(tensor_for),
        seed in 0u32..100,
    ) {
        // Tensor-level fused kernel vs the three-op composition, bitwise
        // (forward and both gradients).
        let g = Tensor::from_vec(
            t.as_slice().iter().enumerate()
                .map(|(i, &v)| (v * 1.7 + (i as f32 + seed as f32) * 0.01).cos() * 3.0)
                .collect(),
            t.shape(),
        );
        let (out, tt, ss) = Tensor::gated_tanh_sigmoid(&t, &g);
        let want_t = t.map(traffic_tensor::fastmath::tanh);
        let want_s = g.map(traffic_tensor::fastmath::sigmoid);
        let want_out = want_t.mul(&want_s);
        for (a, b) in [(&out, &want_out), (&tt, &want_t), (&ss, &want_s)] {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let upstream = Tensor::ones(t.shape());
        let (gf, gg) = Tensor::gated_tanh_sigmoid_backward(&upstream, &tt, &ss);
        let want_gf = upstream.mul(&want_s).zip_map(&want_t, |gs, y| gs * (1.0 - y * y));
        let want_gg = upstream.mul(&want_t).zip_map(&want_s, |gt, y| (gt * y) * (1.0 - y));
        for (a, b) in [(&gf, &want_gf), (&gg, &want_gg)] {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn fast_tanh_tracks_libm(x in -20.0f32..20.0) {
        let got = traffic_tensor::fastmath::tanh(x) as f64;
        let want = (x as f64).tanh();
        prop_assert!(
            (got - want).abs() <= 6e-7 * want.abs().max(1e-10),
            "tanh({x}) = {got} vs libm {want}"
        );
    }

    #[test]
    fn softmax_is_distribution(rows in 1usize..5, cols in 2usize..6) {
        let t = Tensor::from_vec(
            (0..rows * cols).map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.7).collect(),
            &[rows, cols],
        );
        let tape = traffic_tensor::Tape::new();
        let y = tape.constant(t).softmax(1).value();
        for r in 0..rows {
            let mut sum = 0.0f32;
            for c in 0..cols {
                let v = y.at(&[r, c]);
                prop_assert!((0.0..=1.0).contains(&v));
                sum += v;
            }
            prop_assert!((sum - 1.0).abs() < 1e-5);
        }
    }
}

// ------------- row kernels vs element-wise references -------------

/// The element-wise odometer walk ([`shape::for_each_broadcast2`]): the
/// reference every broadcasting row kernel must match.
fn odometer_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let out_shape = shape::broadcast_shapes(a.shape(), b.shape()).expect("broadcastable");
    let sa = shape::broadcast_strides(a.shape(), &out_shape);
    let sb = shape::broadcast_strides(b.shape(), &out_shape);
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; shape::numel(&out_shape)];
    shape::for_each_broadcast2(&out_shape, &sa, &sb, |o, i, j| out[o] = f(ad[i], bd[j]));
    Tensor::from_vec(out, &out_shape)
}

/// Equal shapes and equal bits per element; two NaNs count as equal
/// (payloads are outside the bit-identity policy, see `simd`).
fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: element {i}: {x:?} ({:#x}) vs {y:?} ({:#x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// An operand shape for `out`: the trailing `out.len() - drop` axes,
/// with the axes whose bit is set in `mask` shrunk to 1.
fn operand_shape(out: &[usize], drop: usize, mask: u32) -> Vec<usize> {
    let tail = &out[drop.min(out.len())..];
    tail.iter().enumerate().map(|(i, &d)| if mask >> i & 1 == 1 { 1 } else { d }).collect()
}

/// A broadcasting tensor op and the per-element closure it must equal.
type BroadcastOp = (&'static str, fn(&Tensor, &Tensor) -> Tensor, fn(f32, f32) -> f32);

/// Every broadcasting entry point on `(a, b)` against the odometer.
fn check_broadcast_ops(a: &Tensor, b: &Tensor) {
    let ops: [BroadcastOp; 4] = [
        ("add", Tensor::add, |x, y| x + y),
        ("sub", Tensor::sub, |x, y| x - y),
        ("mul", Tensor::mul, |x, y| x * y),
        ("div", Tensor::div, |x, y| x / y),
    ];
    for (name, op, f) in ops {
        let what = format!("{name} {:?} with {:?}", a.shape(), b.shape());
        assert_same_bits(&op(a, b), &odometer_zip(a, b, f), &what);
    }
    let what = format!("broadcast_zip {:?} with {:?}", a.shape(), b.shape());
    let f = |x: f32, y: f32| x * 0.5 - y;
    assert_same_bits(&a.broadcast_zip(b, f), &odometer_zip(a, b, f), &what);
}

/// Softmax along the last axis through the tape, forward and the
/// gradient of `sum(y ⊙ g)`.
fn tape_softmax(x: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
    let tape = traffic_tensor::Tape::new();
    let xv = tape.leaf(x.clone(), true);
    let y = xv.softmax(x.rank() - 1);
    let grads = tape.backward(y.mul_const(g).sum_all());
    (y.value(), grads.get(xv).expect("softmax input gradient").clone())
}

/// The composed `max → sub → exp → sum_axes → div` softmax along the
/// last axis and its composed backward `(g − Σ(g·y))·y`, with every
/// broadcast taken by the odometer and `exp` as the crate's own
/// [`fastmath::exp`].
fn composed_softmax(x: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
    let last = x.rank() - 1;
    let d = x.shape()[last];
    let mut m_shape = x.shape().to_vec();
    m_shape[last] = 1;
    let m: Vec<f32> = x
        .as_slice()
        .chunks(d)
        .map(|row| row.iter().fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m }))
        .collect();
    let m = Tensor::from_vec(m, &m_shape);
    let e = odometer_zip(x, &m, |a, b| a - b).map(fastmath::exp);
    let s = e.sum_axes(&[last], true);
    let y = odometer_zip(&e, &s, |a, b| a / b);
    let dot = g.zip_map(&y, |a, b| a * b).sum_axes(&[last], true);
    let dx = odometer_zip(g, &dot, |a, b| a - b).zip_map(&y, |a, b| a * b);
    (y, dx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn broadcast_rows_match_odometer(
        out in prop::collection::vec(0usize..5, 0..5),
        (drop_a, mask_a) in (0usize..5, 0u32..32),
        (drop_b, mask_b) in (0usize..5, 0u32..32),
        seed in 0u32..1000,
    ) {
        // Covers rank 0 (empty `out`, or `drop` past the rank: a scalar
        // tensor on either side), zero-size axes, size-1 axes on both
        // sides, and missing leading axes.
        let sa = operand_shape(&out, drop_a, mask_a);
        let sb = operand_shape(&out, drop_b, mask_b);
        let a = Tensor::from_vec(spiky_data(shape::numel(&sa), seed), &sa);
        let b = Tensor::from_vec(spiky_data(shape::numel(&sb), seed + 7), &sb);
        check_broadcast_ops(&a, &b);
        check_broadcast_ops(&b, &a);
        if shape::broadcast_shapes(&sa, &sb).as_deref() == Some(&sa[..]) {
            let want = odometer_zip(&b, &a, |x, _| x);
            assert_same_bits(&b.broadcast_to(&sa), &want, "broadcast_to");
        }
    }

    #[test]
    fn fused_softmax_matches_composition(
        dims in prop::collection::vec(1usize..6, 0..3),
        d in 1usize..40,
        mask_every in 1usize..6,
        seed in 0u32..1000,
    ) {
        // Rows carry the GraphAttention `-1e9` mask on every
        // `mask_every`-th element, plus NaN/±inf from `spiky_data`
        // (so whole rows can be -inf or NaN).
        let mut shape_v = dims;
        shape_v.push(d);
        let n = shape::numel(&shape_v);
        let mut xs = spiky_data(n, seed);
        for (i, v) in xs.iter_mut().enumerate() {
            if i % mask_every == 0 {
                *v += -1e9;
            }
        }
        let x = Tensor::from_vec(xs, &shape_v);
        let g = Tensor::from_vec(
            (0..n).map(|i| ((i as f32 + seed as f32) * 0.61).cos()).collect(),
            &shape_v,
        );
        let (y, dx) = tape_softmax(&x, &g);
        let (want_y, want_dx) = composed_softmax(&x, &g);
        assert_same_bits(&y, &want_y, "softmax forward");
        assert_same_bits(&dx, &want_dx, "softmax backward");
        let m = x.max_axis_keepdim(shape_v.len() - 1);
        let want_m: Vec<f32> = x
            .as_slice()
            .chunks(d)
            .map(|row| row.iter().fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m }))
            .collect();
        assert_same_bits(&m, &Tensor::from_vec(want_m, m.shape()), "max_axis_keepdim");
    }

    #[test]
    fn softmax_off_last_axis_matches_permuted_last(
        dims in prop::collection::vec(1usize..7, 2..5),
        axis_pick in 0usize..3,
        seed in 0u32..1000,
    ) {
        // The composed chain `Var::softmax` runs below the last axis
        // (`max_axis_keepdim`, `sub`, `Tensor::exp`, `sum_axes`, `div`)
        // against the fused row kernel on the axis moved last: both
        // must run the same `exp`, forward and backward.
        let rank = dims.len();
        let axis = axis_pick % (rank - 1);
        let n = shape::numel(&dims);
        let x = Tensor::from_vec(spiky_data(n, seed), &dims);
        let g = Tensor::from_vec(
            (0..n).map(|i| ((i as f32 + seed as f32) * 0.61).cos()).collect(),
            &dims,
        );
        let mut swap: Vec<usize> = (0..rank).collect();
        swap.swap(axis, rank - 1);
        let run = |permuted: bool| {
            let tape = traffic_tensor::Tape::new();
            let xv = tape.leaf(x.clone(), true);
            let y = if permuted {
                xv.permute(&swap).softmax(rank - 1).permute(&swap)
            } else {
                xv.softmax(axis)
            };
            let grads = tape.backward(y.mul_const(&g).sum_all());
            (y.value(), grads.get(xv).expect("softmax input gradient").clone())
        };
        let ((y, dx), (want_y, want_dx)) = (run(false), run(true));
        assert_same_bits(&y, &want_y, &format!("softmax({axis}) of {dims:?} forward"));
        assert_same_bits(&dx, &want_dx, &format!("softmax({axis}) of {dims:?} backward"));
    }
}

#[test]
fn row_kernels_identical_at_thread_caps_1_and_2() {
    use traffic_tensor::pool::ThreadCapGuard;
    // 301 × 257 ≈ 77k elements: above the pool's parallel threshold.
    let (rows, d) = (301, 257);
    let x = Tensor::from_vec(spiky_data(rows * d, 5), &[rows, d]);
    let col = Tensor::from_vec(spiky_data(rows, 6), &[rows, 1]);
    let row = Tensor::from_vec(spiky_data(d, 7), &[1, d]);
    let g = Tensor::from_vec((0..rows * d).map(|i| (i as f32 * 0.61).cos()).collect(), &[rows, d]);
    let run = |cap: usize| {
        let _cap = ThreadCapGuard::new(cap);
        let (y, dx) = tape_softmax(&x, &g);
        vec![
            x.sub(&col),
            x.div(&row),
            col.mul(&row),
            row.broadcast_to(&[rows, d]),
            x.max_axis_keepdim(1),
            y,
            dx,
        ]
    };
    let (one, two) = (run(1), run(2));
    for (i, (a, b)) in one.iter().zip(&two).enumerate() {
        assert_same_bits(a, b, &format!("kernel {i}: cap 1 vs cap 2"));
    }
    assert_same_bits(&two[0], &odometer_zip(&x, &col, |a, b| a - b), "sub vs odometer");
    assert_same_bits(&two[2], &odometer_zip(&col, &row, |a, b| a * b), "outer mul vs odometer");
    let (want_y, want_dx) = composed_softmax(&x, &g);
    assert_same_bits(&two[5], &want_y, "softmax forward vs composition");
    assert_same_bits(&two[6], &want_dx, "softmax backward vs composition");
}

/// Output and `q`/`k`/`v` gradients of attention under an upstream
/// gradient `w`: through the fused node when `fused`, else through the
/// composed five-op oracle. Also returns the fused node's value when no
/// input needs a gradient (the scratch-tile path).
fn attention_run(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    w: &Tensor,
    scale: f32,
    fused: bool,
) -> Vec<Tensor> {
    let tape = traffic_tensor::Tape::new();
    let (qv, kv, vv) =
        (tape.leaf(q.clone(), true), tape.leaf(k.clone(), true), tape.leaf(v.clone(), true));
    let out = if fused {
        qv.attention(&kv, &vv, scale)
    } else {
        let last = q.rank() - 1;
        qv.matmul(&kv.t()).mul_scalar(scale).softmax(last).matmul(&vv)
    };
    let grads = tape.backward(out.mul_const(w).sum_all());
    let mut res = vec![out.value()];
    res.extend([qv, kv, vv].map(|x| grads.get(x).expect("attention input gradient").clone()));
    if fused {
        let (qc, kc, vc) =
            (tape.constant(q.clone()), tape.constant(k.clone()), tape.constant(v.clone()));
        let y = qc.attention(&kc, &vc, scale);
        assert!(!y.requires_grad());
        res.push(y.value());
    }
    res
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_attention_matches_composition(
        lead in prop::collection::vec(1usize..4, 0..3),
        lq in 1usize..80,
        lk_pick in 0usize..60,
        dh in 1usize..10,
        dv in 1usize..10,
        seed in 0u32..1000,
    ) {
        // Lq crosses the 32-row tile; a sixth of the cases have Lk = 1,
        // a one-key softmax; small shapes run inline, large ones on the
        // pool.
        let lk = if lk_pick >= 50 { 1 } else { lk_pick + 1 };
        let shape_of = |a: usize, b: usize| {
            let mut s = lead.clone();
            s.extend([a, b]);
            s
        };
        let data = |s: &[usize], off: u32| {
            let n = shape::numel(s);
            Tensor::from_vec(
                (0..n).map(|i| ((i as f32 + (seed + off) as f32) * 0.37).sin() * 3.0).collect(),
                s,
            )
        };
        let (q, k, v) = (data(&shape_of(lq, dh), 0), data(&shape_of(lk, dh), 1), data(&shape_of(lk, dv), 2));
        let w = data(&shape_of(lq, dv), 3);
        let scale = 1.0 / (dh as f32).sqrt();
        let want = attention_run(&q, &k, &v, &w, scale, false);
        for cap in [1, 2] {
            let _cap = traffic_tensor::pool::ThreadCapGuard::new(cap);
            let got = attention_run(&q, &k, &v, &w, scale, true);
            for (i, what) in ["output", "grad q", "grad k", "grad v"].iter().enumerate() {
                assert_same_bits(&got[i], &want[i], &format!("{what} at cap {cap}"));
            }
            assert_same_bits(&got[4], &want[0], &format!("no-grad output at cap {cap}"));
        }
    }
}

/// One left matrix shared by every slice of `b`, three ways: `a · b`
/// (or `aᵀ · b` from `[k, m]` storage with `tn`) through `Tensor`,
/// the same product through `Var::matmul`, and that node's gradient
/// into `b` under the upstream gradient `w`.
fn shared_operand_run(a: &Tensor, b: &Tensor, w: &Tensor, tn: bool) -> Vec<Tensor> {
    if tn {
        return vec![a.matmul_tn(b)];
    }
    let tape = traffic_tensor::Tape::new();
    let (av, bv) = (tape.leaf(a.clone(), true), tape.leaf(b.clone(), true));
    let y = av.matmul(&bv);
    let grads = tape.backward(y.mul_const(w).sum_all());
    vec![a.matmul(b), y.value(), grads.get(bv).expect("gradient into b").clone()]
}

/// The per-slice oracle for [`shared_operand_run`]: a loop of 2-D
/// products, one per slice of `b`, whose results are stacked back.
fn shared_operand_oracle(a: &Tensor, b: &Tensor, w: &Tensor, tn: bool) -> Vec<Tensor> {
    let (ar, br) = (a.rank(), b.rank());
    let a2 = a.reshape(&a.shape()[ar - 2..]);
    let (k, n) = (b.shape()[br - 2], b.shape()[br - 1]);
    let m = if tn { a2.shape()[1] } else { a2.shape()[0] };
    let nb = b.len() / (k * n);
    let b3 = b.reshape(&[nb, k, n]);
    let w3 = w.reshape(&[nb, m, n]);
    let stack = |f: &dyn Fn(usize) -> Tensor, rows: usize| {
        let parts: Vec<Tensor> = (0..nb).map(f).collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let mut shape = b.shape()[..br - 2].to_vec();
        shape.extend([rows, n]);
        Tensor::concat(&refs, 0).reshape(&shape)
    };
    let slice = |t: &Tensor, i: usize, r: usize| t.narrow(0, i, 1).reshape(&[r, n]);
    if tn {
        return vec![stack(&|i| a2.matmul_tn(&slice(&b3, i, k)), m)];
    }
    let y = stack(&|i| a2.matmul(&slice(&b3, i, k)), m);
    let gb = stack(&|i| a2.matmul_tn(&slice(&w3, i, m)), k);
    vec![y.clone(), y, gb]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_operand_matmul_matches_per_slice_loop(
        mi in 0usize..7,
        ki in 0usize..7,
        ni in 0usize..4,
        nbi in 0usize..4,
        form in 0usize..3,
        tn_pick in 0usize..2,
        seed in 0u32..1000,
    ) {
        // m < MR = 6 and m ≥ MR; k crosses KC = 256; m·k falls on both
        // sides of the 64² floor (e.g. 5·900 above it, 47·40 below);
        // n = 12 and 17 leave a remainder strip, n = 1 and 4 only that;
        // 48 slices make several column groups and a partial last one.
        let tn = tn_pick == 1;
        let nb = [2, 3, 5, 48][nbi];
        let m = [1, 3, 5, 6, 13, 47, 70][mi];
        let k = [7, 40, 64, 100, 257, 300, 900][ki];
        let n = [1, 4, 12, 17][ni];
        // form 0: a [m, k] · b [nb, k, n]; 1: a [1, m, k]; 2: b [2, 3, k, n].
        let a_shape = match (form, tn) {
            (1, false) => vec![1, m, k],
            (1, true) => vec![1, k, m],
            (_, false) => vec![m, k],
            (_, true) => vec![k, m],
        };
        let lead = if form == 2 { vec![2, 3] } else { vec![nb] };
        let mut b_shape = lead.clone();
        b_shape.extend([k, n]);
        let mut w_shape = lead;
        w_shape.extend([m, n]);
        // Finite data: a NaN or infinity in most k-long dot products
        // would make nearly every output NaN and hide wrong placement.
        let data = |s: &[usize], off: u32| {
            let n = shape::numel(s);
            Tensor::from_vec(
                (0..n).map(|i| ((i as f32 + (seed + off) as f32) * 0.37).sin() * 3.0).collect(),
                s,
            )
        };
        let (a, b, w) = (data(&a_shape, 0), data(&b_shape, 1), data(&w_shape, 2));
        let want = shared_operand_oracle(&a, &b, &w, tn);
        for cap in [1, 2] {
            let _cap = traffic_tensor::pool::ThreadCapGuard::new(cap);
            let got = shared_operand_run(&a, &b, &w, tn);
            let whats = ["Tensor product", "Var::matmul", "grad b"];
            for (i, what) in whats.iter().enumerate().take(got.len()) {
                let at = format!("{what} at cap {cap}, {a_shape:?}·{b_shape:?}");
                assert_same_bits(&got[i], &want[i], &at);
            }
        }
    }
}

// ------------- run copies (narrow, concat, im2col) vs index-by-index -------------

/// A tensor whose every element is distinct (its flat index), so a copy
/// that lands anywhere but its own slot shows.
fn indexed(shape: &[usize]) -> Tensor {
    Tensor::from_vec((0..shape::numel(shape)).map(|i| i as f32).collect(), shape)
}

/// `outer ++ [d] ++ inner` as `(outer count, inner count, shape)`.
fn around(outer: &[usize], d: usize, inner: &[usize]) -> (usize, usize, Vec<usize>) {
    let shape: Vec<usize> = outer.iter().copied().chain([d]).chain(inner.iter().copied()).collect();
    (outer.iter().product(), inner.iter().product(), shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Runs of `len · inner` elements: 1–9 and wider cross the short-run
    /// threshold from both sides; zero-sized outer, inner and narrowed
    /// axes give empty runs and empty outputs.
    #[test]
    fn narrow_matches_index_by_index(
        outer in prop::collection::vec(0usize..4, 0..3),
        inner in prop::collection::vec(0usize..3, 0..2),
        len in 0usize..11,
        start in 0usize..3,
        after in 0usize..3,
    ) {
        let d = start + len + after;
        let (o_n, i_n, shape) = around(&outer, d, &inner);
        let x = indexed(&shape);
        let got = x.narrow(outer.len(), start, len);
        let mut want = Vec::new();
        for o in 0..o_n {
            for j in 0..len {
                for i in 0..i_n {
                    want.push(x.as_slice()[(o * d + start + j) * i_n + i]);
                }
            }
        }
        let mut want_shape = shape.clone();
        want_shape[outer.len()] = len;
        assert_same_bits(&got, &Tensor::from_vec(want, &want_shape), "narrow");
    }

    #[test]
    fn concat_matches_index_by_index(
        outer in prop::collection::vec(0usize..4, 0..3),
        inner in prop::collection::vec(0usize..3, 0..2),
        sizes in prop::collection::vec(0usize..11, 1..4),
    ) {
        let axis = outer.len();
        let parts: Vec<Tensor> = sizes
            .iter()
            .enumerate()
            .map(|(p, &d)| indexed(&around(&outer, d, &inner).2).add_scalar(1000.0 * p as f32))
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let got = Tensor::concat(&refs, axis);
        let (o_n, i_n, _) = around(&outer, 0, &inner);
        let mut want = Vec::new();
        for o in 0..o_n {
            for (p, &d) in parts.iter().zip(&sizes) {
                for j in 0..d {
                    for i in 0..i_n {
                        want.push(p.as_slice()[(o * d + j) * i_n + i]);
                    }
                }
            }
        }
        let want_shape = around(&outer, sizes.iter().sum(), &inner).2;
        assert_same_bits(&got, &Tensor::from_vec(want, &want_shape), "concat");
    }

    /// Output rows of `ow` = 1–10 columns cross the short-run threshold;
    /// dilated taps on both axes; zero batches or channels give an empty
    /// unfold.
    #[test]
    fn im2col_matches_index_by_index(
        b in 0usize..3,
        c in 0usize..3,
        (kh, dh, oh) in (1usize..3, 1usize..3, 1usize..4),
        (kw, dw, ow) in (1usize..4, 1usize..4, 1usize..11),
    ) {
        let (h, w) = (oh + (kh - 1) * dh, ow + (kw - 1) * dw);
        let x = indexed(&[b, c, h, w]);
        let got = traffic_tensor::conv::im2col(&x, kh, kw, dh, dw);
        let mut want = Vec::new();
        for bi in 0..b {
            for ci in 0..c {
                for ki in 0..kh {
                    for kj in 0..kw {
                        for oi in 0..oh {
                            for oj in 0..ow {
                                want.push(x.at(&[bi, ci, oi + ki * dh, oj + kj * dw]));
                            }
                        }
                    }
                }
            }
        }
        let want = Tensor::from_vec(want, &[b, c * kh * kw, oh * ow]);
        assert_same_bits(&got, &want, "im2col");
    }
}
