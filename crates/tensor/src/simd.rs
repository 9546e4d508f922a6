//! Vectorized elementwise kernels with runtime dispatch.
//!
//! The hot elementwise rails — scalar/broadcast arithmetic, the
//! fastmath activations and `exp`, the fused gated-activation tape
//! node, the fused optimizer updates, the softmax row ([`softmax_row`])
//! and contiguous sums — funnel through the fixed kernel vocabulary in
//! [`Unary`] / [`Binary`] / [`Ternary`] and the fused kernels below
//! instead of opaque closures, which lets this module run them 8 lanes
//! at a time with AVX2 `core::arch` intrinsics when the CPU supports
//! it. Generic `Tensor::map`/`zip_map` closures that don't fit the
//! vocabulary keep their scalar loops.
//!
//! ## Bit-identity policy
//!
//! Lane-wise kernels are **bit-identical** to their scalar fallbacks
//! for every input bit pattern (NaN payloads excepted — both paths
//! produce *a* NaN through the same arithmetic, but x86 scalar/vector
//! NaN payload propagation is not specified identically). This holds
//! because:
//!
//! - every kernel uses only correctly-rounded IEEE ops (add, sub, mul,
//!   div, sqrt), `floor`, compare-and-blend, and sign-bit logic, all of
//!   which have exact 8-lane AVX counterparts;
//! - **FMA is deliberately not used** — neither `mul_add` in scalar
//!   code nor `_mm256_fmadd_ps` in vector code — since contraction
//!   would make the two paths (and non-FMA targets) disagree;
//! - the [`crate::fastmath`] activations are written as straight-line
//!   blend-friendly arithmetic, and the AVX2 versions here are 1:1
//!   transliterations evaluating all branches and selecting with masks
//!   in the same order the scalar branches resolve;
//! - remainder elements (len % 8) run the scalar per-element function,
//!   which computes the same bits as a vector lane would.
//!
//! Horizontal reductions ([`sum`]) are the exception: an 8-accumulator
//! sum changes association order, so SIMD reduction is **off by
//! default** and opt-in via `TRAFFIC_SIMD_REDUCE=1` (or
//! [`set_reduce_simd`]). Training losses stay bit-identical across
//! SIMD on/off unless that flag is flipped; `tests/determinism.rs`
//! pins both modes.
//!
//! ## Dispatch
//!
//! Detection runs once (AVX2 via `is_x86_feature_detected!`), cached in
//! an atomic. `TRAFFIC_SIMD=0` forces the scalar path (used by the CI
//! scalar-fallback job); [`set_force_scalar`] does the same
//! programmatically for in-process A/B tests. The kernels are plain
//! slice functions, so they compose with the worker pool unchanged —
//! `parallel_chunks_mut` splits the buffer and each chunk body calls
//! into this module; lane-wise kernels don't care where chunk
//! boundaries fall, preserving thread-count determinism.

use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------
// Dispatch state
// ---------------------------------------------------------------------

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Lane-wise kernel dispatch: AVX2 (2) or scalar (1), resolved lazily.
static SIMD_STATE: AtomicU8 = AtomicU8::new(UNINIT);
/// SIMD reductions (association-order change): default OFF.
static REDUCE_STATE: AtomicU8 = AtomicU8::new(UNINIT);

fn env_flag(name: &str) -> Option<bool> {
    match std::env::var(name) {
        Ok(v) => {
            let v = v.trim();
            Some(!(v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("false")))
        }
        Err(_) => None,
    }
}

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether lane-wise kernels run vectorized. First call reads
/// `TRAFFIC_SIMD` (set to `0` to force scalar) and probes the CPU;
/// the decision is cached for the process lifetime unless overridden
/// by [`set_force_scalar`].
pub fn simd_enabled() -> bool {
    match SIMD_STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => {
            let on = env_flag("TRAFFIC_SIMD").unwrap_or(true) && avx2_available();
            SIMD_STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Programmatic override of the lane-wise dispatch (tests, benches).
/// `set_force_scalar(true)` pins the scalar path; `false` re-enables
/// SIMD if the CPU supports it.
pub fn set_force_scalar(force: bool) {
    let on = !force && avx2_available();
    SIMD_STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Whether horizontal reductions run vectorized. Requires both
/// [`simd_enabled`] and the opt-in `TRAFFIC_SIMD_REDUCE=1` (default
/// off: SIMD sums change association order and therefore low-order
/// bits — see the module doc's determinism policy).
pub fn reduce_simd_enabled() -> bool {
    if !simd_enabled() {
        return false;
    }
    match REDUCE_STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => {
            let on = env_flag("TRAFFIC_SIMD_REDUCE").unwrap_or(false);
            REDUCE_STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Programmatic override of the reduction opt-in (tests, benches).
pub fn set_reduce_simd(on: bool) {
    REDUCE_STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Active lane-wise backend name, for bench/report metadata.
pub fn active_backend() -> &'static str {
    if simd_enabled() {
        "avx2"
    } else {
        "scalar"
    }
}

// ---------------------------------------------------------------------
// Kernel vocabulary
// ---------------------------------------------------------------------

/// One-input elementwise kernels: `dst[i] = op(src[i])`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Unary {
    /// `x + c`
    AddS(f32),
    /// `x * c`
    MulS(f32),
    /// `(x * x) * c` (Adam first-step second moment)
    SqMulS(f32),
    /// `-x`
    Neg,
    /// `|x|` (sign-bit clear; bit-exact incl. NaN)
    Abs,
    /// `x.max(c)` (clamp_min / relu)
    MaxS(f32),
    /// `x.min(c)` (clamp_max)
    MinS(f32),
    /// [`crate::fastmath::tanh`]
    Tanh,
    /// [`crate::fastmath::sigmoid`]
    Sigmoid,
    /// [`crate::fastmath::exp`]
    Exp,
}

impl Unary {
    /// Static name for profiler attribution.
    pub fn name(self) -> &'static str {
        match self {
            Unary::AddS(_) => "add_s",
            Unary::MulS(_) => "mul_s",
            Unary::SqMulS(_) => "sq_mul_s",
            Unary::Neg => "neg",
            Unary::Abs => "abs",
            Unary::MaxS(_) => "max_s",
            Unary::MinS(_) => "min_s",
            Unary::Tanh => "tanh",
            Unary::Sigmoid => "sigmoid",
            Unary::Exp => "exp",
        }
    }

    /// Nominal flop count per element (polynomial kernels count their
    /// arithmetic ops), for GFLOP/s attribution.
    pub fn flops_per_elem(self) -> usize {
        match self {
            Unary::Tanh => 22,
            Unary::Sigmoid => 18,
            Unary::Exp => 16,
            Unary::SqMulS(_) => 2,
            _ => 1,
        }
    }
}

/// Two-input elementwise kernels: `dst[i] = op(a[i], b[i])` (or
/// in-place with `a = dst`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Binary {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `a + alpha * b` (axpy / scaled accumulate / SGD update with
    /// `alpha = -lr`)
    Axpy(f32),
    /// `a * c0 + b` (SGD momentum)
    ScaleAdd(f32),
    /// `a * c0 + b * c1` (Adam first moment)
    Lerp(f32, f32),
    /// `a * c0 + (b * b) * c1` (Adam second moment)
    SqLerp(f32, f32),
    /// `a * (1 - b*b)` — tanh backward with `a = grad`, `b = tanh(x)`
    TanhBwd,
    /// `(a*b) * (1 - b)` — sigmoid backward with `a = grad`, `b = σ(x)`
    SigmoidBwd,
}

impl Binary {
    /// Static name for profiler attribution.
    pub fn name(self) -> &'static str {
        match self {
            Binary::Add => "add",
            Binary::Sub => "sub",
            Binary::Mul => "mul",
            Binary::Div => "div",
            Binary::Axpy(_) => "axpy",
            Binary::ScaleAdd(_) => "scale_add",
            Binary::Lerp(_, _) => "lerp",
            Binary::SqLerp(_, _) => "sq_lerp",
            Binary::TanhBwd => "tanh_bwd",
            Binary::SigmoidBwd => "sigmoid_bwd",
        }
    }

    /// Nominal flop count per element, for GFLOP/s attribution.
    pub fn flops_per_elem(self) -> usize {
        match self {
            Binary::Add | Binary::Sub | Binary::Mul | Binary::Div => 1,
            Binary::Axpy(_) | Binary::ScaleAdd(_) => 2,
            Binary::Lerp(_, _) => 3,
            Binary::SqLerp(_, _) | Binary::TanhBwd | Binary::SigmoidBwd => 4,
        }
    }
}

/// Three-input in-place kernels: `dst[i] = op(dst[i], b[i], c[i])`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ternary {
    /// Fused Adam parameter update with `dst = p`, `b = m`, `c = v`:
    /// `p - ((m*inv_bc1) / ((v*inv_bc2).sqrt() + eps)) * lr`.
    AdamUpdate { inv_bc1: f32, inv_bc2: f32, eps: f32, lr: f32 },
}

impl Ternary {
    /// Static name for profiler attribution.
    pub fn name(self) -> &'static str {
        match self {
            Ternary::AdamUpdate { .. } => "adam_update",
        }
    }

    /// Nominal flop count per element, for GFLOP/s attribution.
    pub fn flops_per_elem(self) -> usize {
        match self {
            Ternary::AdamUpdate { .. } => 6,
        }
    }
}

// ---------------------------------------------------------------------
// Scalar reference implementations
// ---------------------------------------------------------------------

/// Scalar per-element and whole-slice reference implementations. The
/// AVX2 path is defined to match these bit-for-bit (lane-wise ops);
/// proptests in `tests/simd_proptest.rs` enforce it.
pub mod scalar {
    use super::{Binary, Ternary, Unary};
    use crate::fastmath;

    /// One element of a [`Unary`] kernel.
    #[inline(always)]
    pub fn unary_one(op: Unary, x: f32) -> f32 {
        match op {
            Unary::AddS(c) => x + c,
            Unary::MulS(c) => x * c,
            Unary::SqMulS(c) => (x * x) * c,
            Unary::Neg => -x,
            Unary::Abs => x.abs(),
            // Exact scalar models of `maxps`/`minps`: return the
            // SECOND operand on ties (so -0 vs +0 picks `c`) and on
            // NaN. Rust's `f32::max` leaves the ±0 order unspecified,
            // which cannot be transliterated — these can.
            Unary::MaxS(c) => {
                if x > c {
                    x
                } else {
                    c
                }
            }
            Unary::MinS(c) => {
                if x < c {
                    x
                } else {
                    c
                }
            }
            Unary::Tanh => fastmath::tanh(x),
            Unary::Sigmoid => fastmath::sigmoid(x),
            Unary::Exp => fastmath::exp(x),
        }
    }

    /// One element of a [`Binary`] kernel.
    #[inline(always)]
    pub fn binary_one(op: Binary, a: f32, b: f32) -> f32 {
        match op {
            Binary::Add => a + b,
            Binary::Sub => a - b,
            Binary::Mul => a * b,
            Binary::Div => a / b,
            Binary::Axpy(alpha) => a + alpha * b,
            Binary::ScaleAdd(c0) => a * c0 + b,
            Binary::Lerp(c0, c1) => a * c0 + b * c1,
            Binary::SqLerp(c0, c1) => a * c0 + (b * b) * c1,
            Binary::TanhBwd => a * (1.0 - b * b),
            Binary::SigmoidBwd => (a * b) * (1.0 - b),
        }
    }

    /// One element of a [`Ternary`] kernel.
    #[inline(always)]
    pub fn ternary_one(op: Ternary, a: f32, b: f32, c: f32) -> f32 {
        match op {
            Ternary::AdamUpdate { inv_bc1, inv_bc2, eps, lr } => {
                let update = (b * inv_bc1) / ((c * inv_bc2).sqrt() + eps);
                a - update * lr
            }
        }
    }

    pub fn unary(op: Unary, src: &[f32], dst: &mut [f32]) {
        for (o, &v) in dst.iter_mut().zip(src) {
            *o = unary_one(op, v);
        }
    }

    pub fn unary_inplace(op: Unary, buf: &mut [f32]) {
        for v in buf.iter_mut() {
            *v = unary_one(op, *v);
        }
    }

    pub fn binary(op: Binary, a: &[f32], b: &[f32], dst: &mut [f32]) {
        for (i, o) in dst.iter_mut().enumerate() {
            *o = binary_one(op, a[i], b[i]);
        }
    }

    pub fn binary_assign(op: Binary, dst: &mut [f32], b: &[f32]) {
        for (v, &bv) in dst.iter_mut().zip(b) {
            *v = binary_one(op, *v, bv);
        }
    }

    pub fn ternary_assign(op: Ternary, dst: &mut [f32], b: &[f32], c: &[f32]) {
        for (i, v) in dst.iter_mut().enumerate() {
            *v = ternary_one(op, *v, b[i], c[i]);
        }
    }

    /// Fused `tanh(f) ⊙ σ(g)` forward: fills `t`, `s`, `out`.
    pub fn gated_fwd(f: &[f32], g: &[f32], t: &mut [f32], s: &mut [f32], out: &mut [f32]) {
        for i in 0..out.len() {
            let tv = fastmath::tanh(f[i]);
            let sv = fastmath::sigmoid(g[i]);
            t[i] = tv;
            s[i] = sv;
            out[i] = tv * sv;
        }
    }

    /// Fused gated backward: `gf = (grad·s)·(1−t²)`,
    /// `gg = ((grad·t)·s)·(1−s)`.
    pub fn gated_bwd(grad: &[f32], t: &[f32], s: &[f32], gf: &mut [f32], gg: &mut [f32]) {
        for i in 0..gf.len() {
            let (g, tv, sv) = (grad[i], t[i], s[i]);
            gf[i] = (g * sv) * (1.0 - tv * tv);
            gg[i] = ((g * tv) * sv) * (1.0 - sv);
        }
    }

    /// Sequential left-to-right sum — the deterministic default.
    pub fn sum(src: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for &v in src {
            acc += v;
        }
        acc
    }

    /// Softmax of one row in place (see [`super::softmax_row`]).
    pub fn softmax_row(row: &mut [f32], scale: Option<f32>) {
        if let Some(c) = scale {
            for v in row.iter_mut() {
                *v *= c;
            }
        }
        let m = crate::reduce::row_max(row);
        for v in row.iter_mut() {
            *v = fastmath::exp(*v - m);
        }
        let s = super::sum(row);
        for v in row.iter_mut() {
            *v /= s;
        }
    }
}

// ---------------------------------------------------------------------
// AVX2 implementations (x86_64 only)
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{scalar, Binary, Ternary, Unary};
    use crate::fastmath::{self, EXP_C0, EXP_C1, EXP_C2, EXP_C3, EXP_C4, EXP_C5, EXP_HI, EXP_LO};
    use std::arch::x86_64::*;

    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // Cody–Waite split, same literals as crate::fastmath (exactly
    // representable; full decimal kept on purpose).
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;

    const SIGN_BIT: i32 = i32::MIN; // 0x8000_0000
    const ABS_MASK: i32 = i32::MAX; // 0x7fff_ffff

    /// Main-path arithmetic of [`crate::fastmath::exp`] — everything
    /// except the NaN/±clamp early-returns. Lanes outside
    /// `[EXP_LO, EXP_HI]` (and NaN lanes) produce garbage; callers must
    /// either apply the blends (see [`exp8`]) or discard those lanes
    /// themselves (see [`tanh8`], whose saturation/NaN blends already
    /// overwrite every lane the clamps could fire on).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn exp8_core(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let kf = _mm256_floor_ps(_mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2E)),
            _mm256_set1_ps(0.5),
        ));
        let r = _mm256_sub_ps(x, _mm256_mul_ps(kf, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(kf, _mm256_set1_ps(LN2_LO)));
        let p = _mm256_set1_ps(EXP_C0);
        let p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_C1));
        let p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_C2));
        let p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_C3));
        let p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_C4));
        let p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_C5));
        let p = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, r), r), r), one);
        // 2^k via exponent-field construction. `kf` is integral in
        // range here; out-of-range lanes produce the garbage the doc
        // comment warns about.
        let k = _mm256_cvtps_epi32(kf);
        let two_k = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            k,
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(p, two_k)
    }

    /// 8-lane transliteration of [`crate::fastmath::exp`]: identical
    /// operation sequence, with the scalar early-returns (NaN, ±clamp)
    /// realised as final mask blends. Bit-identical per lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn exp8(x: __m256) -> __m256 {
        let res = exp8_core(x);
        let res = _mm256_blendv_ps(
            res,
            _mm256_set1_ps(f32::INFINITY),
            _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(EXP_HI)),
        );
        let res = _mm256_blendv_ps(
            res,
            _mm256_setzero_ps(),
            _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_LO)),
        );
        // NaN lanes: the scalar kernel returns its argument.
        _mm256_blendv_ps(res, x, _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }

    /// 8-lane transliteration of [`crate::fastmath::tanh`]: all three
    /// branches evaluated, selected by mask in scalar resolution order.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(ABS_MASK));
        let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(SIGN_BIT));
        let ax = _mm256_and_ps(x, abs_mask);
        let sign = _mm256_and_ps(x, sign_mask);
        // |x| < 0.25: odd Taylor polynomial in u = x².
        let u = _mm256_mul_ps(x, x);
        let p = _mm256_set1_ps(62.0 / 2835.0);
        let p = _mm256_sub_ps(_mm256_mul_ps(p, u), _mm256_set1_ps(17.0 / 315.0));
        let p = _mm256_add_ps(_mm256_mul_ps(p, u), _mm256_set1_ps(2.0 / 15.0));
        let p = _mm256_sub_ps(_mm256_mul_ps(p, u), _mm256_set1_ps(1.0 / 3.0));
        let small = _mm256_mul_ps(x, _mm256_add_ps(one, _mm256_mul_ps(u, p)));
        // 0.25 ≤ |x| < 9.02: 1 − 2/(e^{2|x|} + 1), sign restored.
        // exp8_core suffices: 2|x| is never below EXP_LO (it is ≥ 0),
        // lanes with 2|x| > EXP_HI have |x| > 44 and are overwritten by
        // the saturation blend below, and NaN lanes by the UNORD blend —
        // so every surviving lane matches the scalar exp main path
        // bit-for-bit while the three clamp blends are skipped.
        let e = exp8_core(_mm256_mul_ps(_mm256_set1_ps(2.0), ax));
        let big = _mm256_sub_ps(one, _mm256_div_ps(_mm256_set1_ps(2.0), _mm256_add_ps(e, one)));
        let big = _mm256_or_ps(_mm256_and_ps(big, abs_mask), sign);
        // |x| ≥ 9.02 (incl. ±inf): ±1.
        let sat = _mm256_or_ps(one, sign);
        let r = _mm256_blendv_ps(sat, big, _mm256_cmp_ps::<_CMP_LT_OQ>(ax, _mm256_set1_ps(9.02)));
        let r = _mm256_blendv_ps(r, small, _mm256_cmp_ps::<_CMP_LT_OQ>(ax, _mm256_set1_ps(0.25)));
        _mm256_blendv_ps(r, x, _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }

    /// 8-lane transliteration of [`crate::fastmath::sigmoid`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sigmoid8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(SIGN_BIT));
        let neg_x = _mm256_xor_ps(x, sign_mask);
        _mm256_div_ps(one, _mm256_add_ps(one, exp8(neg_x)))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn unary8(op: Unary, v: __m256) -> __m256 {
        match op {
            Unary::AddS(c) => _mm256_add_ps(v, _mm256_set1_ps(c)),
            Unary::MulS(c) => _mm256_mul_ps(v, _mm256_set1_ps(c)),
            Unary::SqMulS(c) => _mm256_mul_ps(_mm256_mul_ps(v, v), _mm256_set1_ps(c)),
            Unary::Neg => _mm256_xor_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(SIGN_BIT))),
            Unary::Abs => _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(ABS_MASK))),
            Unary::MaxS(c) => _mm256_max_ps(v, _mm256_set1_ps(c)),
            Unary::MinS(c) => _mm256_min_ps(v, _mm256_set1_ps(c)),
            Unary::Tanh => tanh8(v),
            Unary::Sigmoid => sigmoid8(v),
            Unary::Exp => exp8(v),
        }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn binary8(op: Binary, a: __m256, b: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        match op {
            Binary::Add => _mm256_add_ps(a, b),
            Binary::Sub => _mm256_sub_ps(a, b),
            Binary::Mul => _mm256_mul_ps(a, b),
            Binary::Div => _mm256_div_ps(a, b),
            Binary::Axpy(alpha) => _mm256_add_ps(a, _mm256_mul_ps(_mm256_set1_ps(alpha), b)),
            Binary::ScaleAdd(c0) => _mm256_add_ps(_mm256_mul_ps(a, _mm256_set1_ps(c0)), b),
            Binary::Lerp(c0, c1) => _mm256_add_ps(
                _mm256_mul_ps(a, _mm256_set1_ps(c0)),
                _mm256_mul_ps(b, _mm256_set1_ps(c1)),
            ),
            Binary::SqLerp(c0, c1) => _mm256_add_ps(
                _mm256_mul_ps(a, _mm256_set1_ps(c0)),
                _mm256_mul_ps(_mm256_mul_ps(b, b), _mm256_set1_ps(c1)),
            ),
            Binary::TanhBwd => _mm256_mul_ps(a, _mm256_sub_ps(one, _mm256_mul_ps(b, b))),
            Binary::SigmoidBwd => _mm256_mul_ps(_mm256_mul_ps(a, b), _mm256_sub_ps(one, b)),
        }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ternary8(op: Ternary, a: __m256, b: __m256, c: __m256) -> __m256 {
        match op {
            Ternary::AdamUpdate { inv_bc1, inv_bc2, eps, lr } => {
                let update = _mm256_div_ps(
                    _mm256_mul_ps(b, _mm256_set1_ps(inv_bc1)),
                    _mm256_add_ps(
                        _mm256_sqrt_ps(_mm256_mul_ps(c, _mm256_set1_ps(inv_bc2))),
                        _mm256_set1_ps(eps),
                    ),
                );
                _mm256_sub_ps(a, _mm256_mul_ps(update, _mm256_set1_ps(lr)))
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn unary(op: Unary, src: &[f32], dst: &mut [f32]) {
        let n = dst.len();
        let n8 = n - n % 8;
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i < n8 {
            _mm256_storeu_ps(dp.add(i), unary8(op, _mm256_loadu_ps(sp.add(i))));
            i += 8;
        }
        for j in n8..n {
            *dp.add(j) = scalar::unary_one(op, *sp.add(j));
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn unary_inplace(op: Unary, buf: &mut [f32]) {
        let n = buf.len();
        let n8 = n - n % 8;
        let p = buf.as_mut_ptr();
        let mut i = 0;
        while i < n8 {
            _mm256_storeu_ps(p.add(i), unary8(op, _mm256_loadu_ps(p.add(i))));
            i += 8;
        }
        for j in n8..n {
            *p.add(j) = scalar::unary_one(op, *p.add(j));
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn binary(op: Binary, a: &[f32], b: &[f32], dst: &mut [f32]) {
        let n = dst.len();
        let n8 = n - n % 8;
        let (ap, bp, dp) = (a.as_ptr(), b.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i < n8 {
            _mm256_storeu_ps(
                dp.add(i),
                binary8(op, _mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i))),
            );
            i += 8;
        }
        for j in n8..n {
            *dp.add(j) = scalar::binary_one(op, *ap.add(j), *bp.add(j));
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn binary_assign(op: Binary, dst: &mut [f32], b: &[f32]) {
        let n = dst.len();
        let n8 = n - n % 8;
        let (dp, bp) = (dst.as_mut_ptr(), b.as_ptr());
        let mut i = 0;
        while i < n8 {
            _mm256_storeu_ps(
                dp.add(i),
                binary8(op, _mm256_loadu_ps(dp.add(i)), _mm256_loadu_ps(bp.add(i))),
            );
            i += 8;
        }
        for j in n8..n {
            *dp.add(j) = scalar::binary_one(op, *dp.add(j), *bp.add(j));
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn ternary_assign(op: Ternary, dst: &mut [f32], b: &[f32], c: &[f32]) {
        let n = dst.len();
        let n8 = n - n % 8;
        let (dp, bp, cp) = (dst.as_mut_ptr(), b.as_ptr(), c.as_ptr());
        let mut i = 0;
        while i < n8 {
            _mm256_storeu_ps(
                dp.add(i),
                ternary8(
                    op,
                    _mm256_loadu_ps(dp.add(i)),
                    _mm256_loadu_ps(bp.add(i)),
                    _mm256_loadu_ps(cp.add(i)),
                ),
            );
            i += 8;
        }
        for j in n8..n {
            *dp.add(j) = scalar::ternary_one(op, *dp.add(j), *bp.add(j), *cp.add(j));
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gated_fwd(f: &[f32], g: &[f32], t: &mut [f32], s: &mut [f32], out: &mut [f32]) {
        let n = out.len();
        let n8 = n - n % 8;
        let (fp, gp) = (f.as_ptr(), g.as_ptr());
        let (tp, sp, op_) = (t.as_mut_ptr(), s.as_mut_ptr(), out.as_mut_ptr());
        let mut i = 0;
        // 2×8 main loop: two independent tanh/sigmoid chains per
        // iteration give the out-of-order core more to overlap (the
        // chains are latency-bound through exp's Horner ladder).
        let n16 = n - n % 16;
        while i < n16 {
            let t0 = tanh8(_mm256_loadu_ps(fp.add(i)));
            let t1 = tanh8(_mm256_loadu_ps(fp.add(i + 8)));
            let s0 = sigmoid8(_mm256_loadu_ps(gp.add(i)));
            let s1 = sigmoid8(_mm256_loadu_ps(gp.add(i + 8)));
            _mm256_storeu_ps(tp.add(i), t0);
            _mm256_storeu_ps(tp.add(i + 8), t1);
            _mm256_storeu_ps(sp.add(i), s0);
            _mm256_storeu_ps(sp.add(i + 8), s1);
            _mm256_storeu_ps(op_.add(i), _mm256_mul_ps(t0, s0));
            _mm256_storeu_ps(op_.add(i + 8), _mm256_mul_ps(t1, s1));
            i += 16;
        }
        while i < n8 {
            let tv = tanh8(_mm256_loadu_ps(fp.add(i)));
            let sv = sigmoid8(_mm256_loadu_ps(gp.add(i)));
            _mm256_storeu_ps(tp.add(i), tv);
            _mm256_storeu_ps(sp.add(i), sv);
            _mm256_storeu_ps(op_.add(i), _mm256_mul_ps(tv, sv));
            i += 8;
        }
        if n8 < n {
            scalar::gated_fwd(&f[n8..], &g[n8..], &mut t[n8..], &mut s[n8..], &mut out[n8..]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gated_bwd(grad: &[f32], t: &[f32], s: &[f32], gf: &mut [f32], gg: &mut [f32]) {
        let one = _mm256_set1_ps(1.0);
        let n = gf.len();
        let n8 = n - n % 8;
        let (gp, tp, sp) = (grad.as_ptr(), t.as_ptr(), s.as_ptr());
        let (gfp, ggp) = (gf.as_mut_ptr(), gg.as_mut_ptr());
        let mut i = 0;
        while i < n8 {
            let g = _mm256_loadu_ps(gp.add(i));
            let tv = _mm256_loadu_ps(tp.add(i));
            let sv = _mm256_loadu_ps(sp.add(i));
            // (g·s)·(1 − t²)
            let a = _mm256_mul_ps(_mm256_mul_ps(g, sv), _mm256_sub_ps(one, _mm256_mul_ps(tv, tv)));
            // ((g·t)·s)·(1 − s)
            let b = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(g, tv), sv), _mm256_sub_ps(one, sv));
            _mm256_storeu_ps(gfp.add(i), a);
            _mm256_storeu_ps(ggp.add(i), b);
            i += 8;
        }
        if n8 < n {
            scalar::gated_bwd(&grad[n8..], &t[n8..], &s[n8..], &mut gf[n8..], &mut gg[n8..]);
        }
    }

    /// Softmax of one row in place, 8 lanes per pass: `×scale` fused
    /// into the max, `exp8(x − m)`, [`super::sum`], then a divide.
    ///
    /// Each lane keeps its own `v > m` maximum and the lanes fold in
    /// order, so `m` is the scalar rail's maximum except that of `-0.0`
    /// and `+0.0` another may win. That cannot show: `x − (+0) = x − (−0)`
    /// for every `x` but `−0`, and there both differences are zeros, for
    /// which `exp` gives 1.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn softmax_row(row: &mut [f32], scale: Option<f32>) {
        let n = row.len();
        let n8 = n - n % 8;
        let p = row.as_mut_ptr();
        let mut mv = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0;
        if let Some(c) = scale {
            let cv = _mm256_set1_ps(c);
            while i < n8 {
                let v = _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), cv);
                _mm256_storeu_ps(p.add(i), v);
                // maxps(v, m) is `v > m ? v : m`, the scalar comparison.
                mv = _mm256_max_ps(v, mv);
                i += 8;
            }
            for j in n8..n {
                *p.add(j) *= c;
            }
        } else {
            while i < n8 {
                mv = _mm256_max_ps(_mm256_loadu_ps(p.add(i)), mv);
                i += 8;
            }
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), mv);
        let mut m = f32::NEG_INFINITY;
        for &v in lanes.iter().chain(&row[n8..]) {
            if v > m {
                m = v;
            }
        }
        let mv = _mm256_set1_ps(m);
        let mut i = 0;
        while i < n8 {
            _mm256_storeu_ps(p.add(i), exp8(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mv)));
            i += 8;
        }
        for j in n8..n {
            *p.add(j) = fastmath::exp(*p.add(j) - m);
        }
        let s = super::sum(row);
        let p = row.as_mut_ptr();
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i < n8 {
            _mm256_storeu_ps(p.add(i), _mm256_div_ps(_mm256_loadu_ps(p.add(i)), sv));
            i += 8;
        }
        for j in n8..n {
            *p.add(j) /= s;
        }
    }

    /// 8-accumulator sum + horizontal fold. NOT bit-identical to the
    /// sequential scalar sum (association order differs) — gated behind
    /// `TRAFFIC_SIMD_REDUCE`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum(src: &[f32]) -> f32 {
        let n = src.len();
        let n8 = n - n % 8;
        let p = src.as_ptr();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < n8 {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps::<1>(acc);
        let s4 = _mm_add_ps(lo, hi);
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps::<1>(s2, s2));
        let mut total = _mm_cvtss_f32(s1);
        for j in n8..n {
            total += *p.add(j);
        }
        total
    }
}

// ---------------------------------------------------------------------
// Dispatched API
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($avx2:expr, $scalar:expr) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if simd_enabled() {
                // SAFETY: simd_enabled() implies AVX2 was detected at
                // runtime on this CPU.
                return unsafe { $avx2 };
            }
        }
        $scalar
    }};
}

/// `dst[i] = op(src[i])`. Slices must be the same length.
pub fn unary(op: Unary, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    dispatch!(avx2::unary(op, src, dst), scalar::unary(op, src, dst))
}

/// `buf[i] = op(buf[i])` in place.
pub fn unary_inplace(op: Unary, buf: &mut [f32]) {
    dispatch!(avx2::unary_inplace(op, buf), scalar::unary_inplace(op, buf))
}

/// `dst[i] = op(a[i], b[i])`. Slices must be the same length.
pub fn binary(op: Binary, a: &[f32], b: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(a.len(), dst.len());
    debug_assert_eq!(b.len(), dst.len());
    dispatch!(avx2::binary(op, a, b, dst), scalar::binary(op, a, b, dst))
}

/// `dst[i] = op(dst[i], b[i])` in place.
pub fn binary_assign(op: Binary, dst: &mut [f32], b: &[f32]) {
    debug_assert_eq!(b.len(), dst.len());
    dispatch!(avx2::binary_assign(op, dst, b), scalar::binary_assign(op, dst, b))
}

/// `dst[i] = op(dst[i], b[i], c[i])` in place.
pub fn ternary_assign(op: Ternary, dst: &mut [f32], b: &[f32], c: &[f32]) {
    debug_assert_eq!(b.len(), dst.len());
    debug_assert_eq!(c.len(), dst.len());
    dispatch!(avx2::ternary_assign(op, dst, b, c), scalar::ternary_assign(op, dst, b, c))
}

/// Fused gated-activation forward: `t = tanh(f)`, `s = σ(g)`,
/// `out = t ⊙ s`, one pass.
pub fn gated_fwd(f: &[f32], g: &[f32], t: &mut [f32], s: &mut [f32], out: &mut [f32]) {
    debug_assert!(f.len() == out.len() && g.len() == out.len());
    debug_assert!(t.len() == out.len() && s.len() == out.len());
    dispatch!(avx2::gated_fwd(f, g, t, s, out), scalar::gated_fwd(f, g, t, s, out))
}

/// Fused gated-activation backward: `gf = (grad·s)·(1−t²)`,
/// `gg = ((grad·t)·s)·(1−s)`, one pass.
pub fn gated_bwd(grad: &[f32], t: &[f32], s: &[f32], gf: &mut [f32], gg: &mut [f32]) {
    debug_assert!(grad.len() == gf.len() && t.len() == gf.len());
    debug_assert!(s.len() == gf.len() && gg.len() == gf.len());
    dispatch!(avx2::gated_bwd(grad, t, s, gf, gg), scalar::gated_bwd(grad, t, s, gf, gg))
}

/// Contiguous sum. Runs the 8-accumulator SIMD fold only when both
/// [`simd_enabled`] and [`reduce_simd_enabled`] hold; otherwise the
/// deterministic sequential scalar sum.
pub fn sum(src: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if reduce_simd_enabled() {
            // SAFETY: reduce_simd_enabled() implies simd_enabled(),
            // which implies AVX2 was detected at runtime.
            return unsafe { avx2::sum(src) };
        }
    }
    scalar::sum(src)
}

/// Softmax of one row in place: `x·scale` when `scale` is given, the
/// row max `m` (in the same pass), `e = exp(x − m)` by
/// [`crate::fastmath::exp`], `s = Σe` by [`sum`], then `e / s`. Each
/// element sees the operations of the composed
/// `mul_scalar → max_axis_keepdim → sub → exp → sum_axes → div` chain,
/// so the row equals it bit for bit, SIMD on or off.
pub fn softmax_row(row: &mut [f32], scale: Option<f32>) {
    dispatch!(avx2::softmax_row(row, scale), scalar::softmax_row(row, scale))
}

// ---------------------------------------------------------------------
// Forced AVX2 entry points (tests / benches)
// ---------------------------------------------------------------------
//
// These bypass the global dispatch so scalar-vs-SIMD comparisons are
// race-free (no process-wide toggles). Each returns whether the AVX2
// path actually ran — `false` means the CPU (or target) lacks AVX2 and
// the caller should skip the comparison.

/// Forced-AVX2 [`unary`]; returns `false` (dst untouched) without AVX2.
pub fn try_unary_avx2(op: Unary, src: &[f32], dst: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            unsafe { avx2::unary(op, src, dst) };
            return true;
        }
    }
    let _ = (op, src, dst);
    false
}

/// Forced-AVX2 [`binary`]; returns `false` (dst untouched) without AVX2.
pub fn try_binary_avx2(op: Binary, a: &[f32], b: &[f32], dst: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            unsafe { avx2::binary(op, a, b, dst) };
            return true;
        }
    }
    let _ = (op, a, b, dst);
    false
}

/// Forced-AVX2 [`ternary_assign`]; returns `false` without AVX2.
pub fn try_ternary_assign_avx2(op: Ternary, dst: &mut [f32], b: &[f32], c: &[f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            unsafe { avx2::ternary_assign(op, dst, b, c) };
            return true;
        }
    }
    let _ = (op, dst, b, c);
    false
}

/// Forced-AVX2 [`gated_fwd`]; returns `false` without AVX2.
pub fn try_gated_fwd_avx2(
    f: &[f32],
    g: &[f32],
    t: &mut [f32],
    s: &mut [f32],
    out: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            unsafe { avx2::gated_fwd(f, g, t, s, out) };
            return true;
        }
    }
    let _ = (f, g, t, s, out);
    false
}

/// Forced-AVX2 [`gated_bwd`]; returns `false` without AVX2.
pub fn try_gated_bwd_avx2(
    grad: &[f32],
    t: &[f32],
    s: &[f32],
    gf: &mut [f32],
    gg: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            unsafe { avx2::gated_bwd(grad, t, s, gf, gg) };
            return true;
        }
    }
    let _ = (grad, t, s, gf, gg);
    false
}

/// Forced-AVX2 [`softmax_row`]; returns `false` (row untouched)
/// without AVX2. The row sum still goes through the dispatched [`sum`].
pub fn try_softmax_row_avx2(row: &mut [f32], scale: Option<f32>) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 was detected at runtime on this CPU.
            unsafe { avx2::softmax_row(row, scale) };
            return true;
        }
    }
    let _ = (row, scale);
    false
}

/// Forced-AVX2 [`sum`]; `None` without AVX2.
pub fn try_sum_avx2(src: &[f32]) -> Option<f32> {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            return Some(unsafe { avx2::sum(src) });
        }
    }
    let _ = src;
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_eq(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn dispatch_flags_resolve() {
        // Exercise the lazy init paths; on x86_64 CI hosts AVX2 is
        // present, elsewhere this still must not panic.
        let _ = simd_enabled();
        assert!(["avx2", "scalar"].contains(&active_backend()));
        // Reductions default off unless the env opts in.
        if std::env::var("TRAFFIC_SIMD_REDUCE").is_err() {
            assert!(!reduce_simd_enabled());
        }
    }

    #[test]
    fn forced_avx2_matches_scalar_smoke() {
        // The exhaustive comparison lives in tests/simd_proptest.rs;
        // this is the in-crate smoke check over awkward lengths.
        for n in [0usize, 1, 7, 8, 9, 31] {
            let src: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 3.0).collect();
            let mut want = vec![0.0f32; n];
            scalar::unary(Unary::Tanh, &src, &mut want);
            let mut got = vec![0.0f32; n];
            if try_unary_avx2(Unary::Tanh, &src, &mut got) {
                for i in 0..n {
                    assert!(bits_eq(got[i], want[i]), "lane {i} of {n}");
                }
            }
        }
    }

    #[test]
    fn simd_sum_close_to_scalar() {
        let src: Vec<f32> = (0..4095).map(|i| ((i % 97) as f32) * 0.013 - 0.5).collect();
        let want = scalar::sum(&src);
        // Both orders approximate the same real sum; their gap is
        // bounded by worst-case f32 accumulation error over the
        // absolute mass (n·ε·Σ|x|, dominated by the sequential side).
        let mass: f32 = src.iter().map(|v| v.abs()).sum();
        let bound = (mass + 1.0) * f32::EPSILON * (src.len() as f32) * 0.5;
        if let Some(got) = try_sum_avx2(&src) {
            assert!((got - want).abs() <= bound, "simd {got} vs scalar {want} (bound {bound})");
        }
    }
}
