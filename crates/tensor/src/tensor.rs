//! The dense, contiguous, row-major `f32` tensor underlying everything else.
//!
//! `Tensor` is immutable-by-convention: operations return new tensors, and
//! cloning is cheap (the buffer is behind an [`Arc`]). The optimizer mutates
//! parameters in place through the `*_inplace` / `*_assign` kernels, which
//! copy-on-write via [`Tensor::make_mut`] when the buffer is shared.
//!
//! Backing stores come from (and return to) the traffic-mem size-class
//! pool ([`crate::mem`]): output buffers of every kernel are pooled, so
//! steady-state training steps recycle instead of allocating.

use std::sync::Arc;

use crate::mem::{self, Buffer};
use crate::pool;
use crate::shape::{broadcast_shapes, broadcast_strides, numel, strides_for};
use crate::simd;

/// Elementwise kernels at or above this many elements fan out across
/// the worker pool; smaller ones run inline (dispatch costs more than
/// the loop). Chunks map one-to-one between input and output, so the
/// result is identical at any thread count.
pub(crate) const ELEMENTWISE_PAR_THRESHOLD: usize = 1 << 16;

/// Copy runs of at most this many elements take [`copy_runs`]'s
/// fixed-width path (one match arm per length); longer runs are one
/// `copy_from_slice` each. A run of a few elements is not worth a
/// `memcpy` call: STGCN's incremental rollout narrows, concatenates and
/// unfolds runs of 1–3 time columns. Measured on a 2-core AVX2 host over
/// `[8, 16, 207, ·]` tensors (26k runs), best of 200: at run length 1–2,
/// `narrow` took 24–43 µs on this path against 93–132 µs per
/// `extend_from_slice`, `concat` 50–69 against 281–335 and `im2col` 57
/// against 196–204; at 8, 96/137/105 against 156/381/193. In a loop of
/// bare copies, fixed-width arrays were no faster than `copy_from_slice`
/// from 10 elements on.
pub(crate) const SHORT_RUN: usize = 8;

/// Copies `count` runs of `run` elements: run `i` goes from
/// `src[src_at + i·src_stride ..]` to `dst[dst_at + i·dst_stride ..]`.
///
/// A run of at most [`SHORT_RUN`] elements is copied as a fixed-size
/// array, which compiles to a few register moves; longer runs are one
/// `copy_from_slice` each.
#[allow(clippy::too_many_arguments)] // two (slice, offset, stride) triples and the run geometry
pub(crate) fn copy_runs(
    dst: &mut [f32],
    dst_at: usize,
    dst_stride: usize,
    src: &[f32],
    src_at: usize,
    src_stride: usize,
    run: usize,
    count: usize,
) {
    fn fixed<const R: usize>(
        dst: &mut [f32],
        (dst_at, dst_stride): (usize, usize),
        src: &[f32],
        (src_at, src_stride): (usize, usize),
        count: usize,
    ) {
        for i in 0..count {
            let (d, s) = (dst_at + i * dst_stride, src_at + i * src_stride);
            let from: &[f32; R] = src[s..s + R].try_into().expect("run of R elements");
            let to: &mut [f32; R] = (&mut dst[d..d + R]).try_into().expect("run of R elements");
            *to = *from;
        }
    }
    let (d, s) = ((dst_at, dst_stride), (src_at, src_stride));
    match run {
        0 => {}
        1 => fixed::<1>(dst, d, src, s, count),
        2 => fixed::<2>(dst, d, src, s, count),
        3 => fixed::<3>(dst, d, src, s, count),
        4 => fixed::<4>(dst, d, src, s, count),
        5 => fixed::<5>(dst, d, src, s, count),
        6 => fixed::<6>(dst, d, src, s, count),
        7 => fixed::<7>(dst, d, src, s, count),
        8 => fixed::<8>(dst, d, src, s, count),
        _ => {
            for i in 0..count {
                let (d, s) = (dst_at + i * dst_stride, src_at + i * src_stride);
                dst[d..d + run].copy_from_slice(&src[s..s + run]);
            }
        }
    }
}

/// Raw-pointer wrapper so a fused multi-output kernel can hand disjoint
/// windows of its side outputs to pool tasks (mirroring the disjoint
/// chunks `parallel_chunks_mut` makes of the primary output). Soundness
/// is argued at each use site.
#[derive(Clone, Copy)]
pub(crate) struct SendMutPtr(pub(crate) *mut f32);
unsafe impl Send for SendMutPtr {}
unsafe impl Sync for SendMutPtr {}

/// Odometer over the cartesian product of `dims`, calling
/// `f(dst_offset, src_offset)` for every coordinate with the two
/// offsets accumulated from the given stride sets. With empty `dims`
/// calls `f(0, 0)` once.
fn for_each_offsets(
    dims: &[usize],
    dst_strides: &[usize],
    src_strides: &[usize],
    mut f: impl FnMut(usize, usize),
) {
    let total: usize = dims.iter().product();
    let mut coords = vec![0usize; dims.len()];
    let (mut doff, mut soff) = (0usize, 0usize);
    for _ in 0..total {
        f(doff, soff);
        for ax in (0..dims.len()).rev() {
            coords[ax] += 1;
            doff += dst_strides[ax];
            soff += src_strides[ax];
            if coords[ax] < dims[ax] {
                break;
            }
            doff -= dims[ax] * dst_strides[ax];
            soff -= dims[ax] * src_strides[ax];
            coords[ax] = 0;
        }
    }
}

/// A two-operand broadcast walk coalesced into rows.
///
/// Size-1 axes are dropped and adjacent axes merged wherever both
/// operands stay contiguous (or stay broadcast) across them, so a
/// `[1, C, 1, 1]` bias on `[B, C, N, T]` becomes `B·C` rows of `N·T`.
/// Along the last (row) axis each operand steps by 1 (contiguous) or
/// by 0 (one value per row), so the inner loops carry no per-element
/// index arithmetic.
struct RowPlan {
    /// Sizes of the axes that index rows, outermost first.
    outer: Vec<usize>,
    /// Each operand's stride along those axes.
    outer_a: Vec<usize>,
    outer_b: Vec<usize>,
    /// Row length.
    len: usize,
    /// Each operand's stride along a row: 1 or 0.
    step_a: usize,
    step_b: usize,
}

impl RowPlan {
    /// Plans the walk over `shape` with the operands' broadcast
    /// strides (0 on broadcast axes).
    fn new(shape: &[usize], a_str: &[usize], b_str: &[usize]) -> RowPlan {
        let (mut dims, mut sa, mut sb) = (Vec::new(), Vec::new(), Vec::new());
        for ((&d, &a), &b) in shape.iter().zip(a_str).zip(b_str) {
            if d == 1 {
                continue;
            }
            match (dims.last_mut(), sa.last_mut(), sb.last_mut()) {
                // The previous axis steps exactly over this one in both
                // operands: one axis of the product's size.
                (Some(pd), Some(pa), Some(pb)) if *pa == a * d && *pb == b * d => {
                    *pd *= d;
                    *pa = a;
                    *pb = b;
                }
                _ => {
                    dims.push(d);
                    sa.push(a);
                    sb.push(b);
                }
            }
        }
        let len = dims.pop().unwrap_or(1);
        let step_a = sa.pop().unwrap_or(0);
        let step_b = sb.pop().unwrap_or(0);
        debug_assert!(step_a <= 1 && step_b <= 1, "row strides must be 0 or 1");
        RowPlan { outer: dims, outer_a: sa, outer_b: sb, len, step_a, step_b }
    }

    /// Fills `out` (the whole output) with `f(a[..], b[..])`, split into
    /// flat chunks across the pool when large.
    fn run(&self, out: &mut [f32], a: &[f32], b: &[f32], f: &(impl Fn(f32, f32) -> f32 + Sync)) {
        let n = out.len();
        if n < ELEMENTWISE_PAR_THRESHOLD {
            self.run_span(0, out, a, b, f);
            return;
        }
        let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(out, chunk, |ci, dst| self.run_span(ci * chunk, dst, a, b, f));
    }

    /// Fills `dst`, the output elements from flat index `start` on. A
    /// span may start and end mid-row.
    fn run_span(
        &self,
        start: usize,
        dst: &mut [f32],
        a: &[f32],
        b: &[f32],
        f: &impl Fn(f32, f32) -> f32,
    ) {
        if dst.is_empty() {
            return;
        }
        let (mut row, mut col) = (start / self.len, start % self.len);
        let mut coords = vec![0usize; self.outer.len()];
        let (mut ao, mut bo) = (0usize, 0usize);
        for ax in (0..self.outer.len()).rev() {
            coords[ax] = row % self.outer[ax];
            row /= self.outer[ax];
            ao += coords[ax] * self.outer_a[ax];
            bo += coords[ax] * self.outer_b[ax];
        }
        let mut rest = dst;
        loop {
            let take = (self.len - col).min(rest.len());
            let (seg, tail) = rest.split_at_mut(take);
            self.row(seg, a, ao + col * self.step_a, b, bo + col * self.step_b, f);
            rest = tail;
            if rest.is_empty() {
                return;
            }
            col = 0;
            for ax in (0..self.outer.len()).rev() {
                coords[ax] += 1;
                ao += self.outer_a[ax];
                bo += self.outer_b[ax];
                if coords[ax] < self.outer[ax] {
                    break;
                }
                ao -= self.outer[ax] * self.outer_a[ax];
                bo -= self.outer[ax] * self.outer_b[ax];
                coords[ax] = 0;
            }
        }
    }

    /// One (part of a) row starting at operand offsets `ao` / `bo`.
    fn row(
        &self,
        dst: &mut [f32],
        a: &[f32],
        ao: usize,
        b: &[f32],
        bo: usize,
        f: &impl Fn(f32, f32) -> f32,
    ) {
        let n = dst.len();
        match (self.step_a, self.step_b) {
            (1, 1) => {
                for ((o, &x), &y) in dst.iter_mut().zip(&a[ao..ao + n]).zip(&b[bo..bo + n]) {
                    *o = f(x, y);
                }
            }
            (1, _) => {
                let y = b[bo];
                for (o, &x) in dst.iter_mut().zip(&a[ao..ao + n]) {
                    *o = f(x, y);
                }
            }
            (_, 1) => {
                let x = a[ao];
                for (o, &y) in dst.iter_mut().zip(&b[bo..bo + n]) {
                    *o = f(x, y);
                }
            }
            _ => {
                let (x, y) = (a[ao], b[bo]);
                for o in dst.iter_mut() {
                    *o = f(x, y);
                }
            }
        }
    }
}

/// A dense row-major `f32` tensor of arbitrary rank.
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Buffer>,
    shape: Vec<usize>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(f, "Tensor{:?} {:?}{}", self.shape, preview, if self.len() > 8 { "…" } else { "" })
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a tensor from raw data. Panics if `data.len() != numel(shape)`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { data: Arc::new(Buffer::from_vec(data)), shape: shape.to_vec() }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::from_vec(vec![v], &[])
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::from_vec(mem::take_zeroed(numel(shape)), shape)
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Tensor::from_vec(mem::take_filled(numel(shape), v), shape)
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut data = mem::take_zeroed(n * n);
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_vec(data, &[n, n])
    }

    /// `[0, 1, ..., n-1]` as a rank-1 tensor.
    pub fn arange(n: usize) -> Self {
        let mut data = mem::take_uninit(n);
        for (i, v) in data.iter_mut().enumerate() {
            *v = i as f32;
        }
        Tensor::from_vec(data, &[n])
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view; clones the buffer if it is shared (copy-on-write).
    pub fn make_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its buffer (cloning only if shared).
    pub fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.data) {
            Ok(mut buf) => buf.take_vec(),
            Err(arc) => arc.to_vec(),
        }
    }

    /// The single value of a one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a one-element tensor, got {:?}", self.shape);
        self.data[0]
    }

    /// Value at multi-dimensional coordinates.
    pub fn at(&self, coords: &[usize]) -> f32 {
        assert_eq!(coords.len(), self.rank(), "coordinate rank mismatch");
        let strides = strides_for(&self.shape);
        for (i, (&c, &d)) in coords.iter().zip(&self.shape).enumerate() {
            assert!(c < d, "coordinate {c} out of bounds for axis {i} (size {d})");
        }
        self.data[crate::shape::ravel(coords, &strides)]
    }

    // ------------------------------------------------------------------
    // Elementwise (unary)
    // ------------------------------------------------------------------

    /// Applies `f` to every element. Large tensors are processed in
    /// parallel chunks on the worker pool.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = mem::take_uninit(self.len());
        let src: &[f32] = &self.data;
        if self.len() < ELEMENTWISE_PAR_THRESHOLD {
            for (o, &v) in out.iter_mut().zip(src) {
                *o = f(v);
            }
            return Tensor::from_vec(out, &self.shape);
        }
        let chunk = self.len().div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(&mut out, chunk, |ci, dst| {
            let base = ci * chunk;
            let src = &src[base..base + dst.len()];
            for (o, &v) in dst.iter_mut().zip(src) {
                *o = f(v);
            }
        });
        Tensor::from_vec(out, &self.shape)
    }

    /// In-place [`Tensor::map`]: overwrites every element with `f(x)`.
    /// Copies first (from the pool) when the buffer is shared.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let n = self.len();
        let buf = self.make_mut();
        if n < ELEMENTWISE_PAR_THRESHOLD {
            for v in buf.iter_mut() {
                *v = f(*v);
            }
            return;
        }
        let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(buf, chunk, |_ci, dst| {
            for v in dst.iter_mut() {
                *v = f(*v);
            }
        });
    }

    /// Elementwise combination with an identically-shaped tensor (no
    /// broadcasting; use the operator impls for broadcasting).
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map requires identical shapes");
        let mut out = mem::take_uninit(self.len());
        let (a, b): (&[f32], &[f32]) = (&self.data, &other.data);
        if self.len() < ELEMENTWISE_PAR_THRESHOLD {
            for (i, o) in out.iter_mut().enumerate() {
                *o = f(a[i], b[i]);
            }
            return Tensor::from_vec(out, &self.shape);
        }
        let chunk = self.len().div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(&mut out, chunk, |ci, dst| {
            let base = ci * chunk;
            for (i, o) in dst.iter_mut().enumerate() {
                *o = f(a[base + i], b[base + i]);
            }
        });
        Tensor::from_vec(out, &self.shape)
    }

    /// In-place [`Tensor::zip_map`]: `self[i] = f(self[i], other[i])`.
    /// Exact same per-element arithmetic as the allocating form, so a
    /// rewrite from `x = x.zip_map(..)` to `x.zip_map_assign(..)` is
    /// bit-identical.
    pub fn zip_map_assign(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(self.shape, other.shape, "zip_map_assign requires identical shapes");
        let n = self.len();
        let src: &[f32] = &other.data;
        let buf = self.make_mut();
        if n < ELEMENTWISE_PAR_THRESHOLD {
            for (v, &b) in buf.iter_mut().zip(src) {
                *v = f(*v, b);
            }
            return;
        }
        let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(buf, chunk, |ci, dst| {
            let base = ci * chunk;
            for (i, v) in dst.iter_mut().enumerate() {
                *v = f(*v, src[base + i]);
            }
        });
    }

    /// Ternary in-place kernel: `self[i] = f(self[i], a[i], b[i])`.
    /// Used by the fused optimizer step (one pass over `p`, `m`, `v`
    /// instead of six temporaries).
    pub fn zip_map2_assign(
        &mut self,
        a: &Tensor,
        b: &Tensor,
        f: impl Fn(f32, f32, f32) -> f32 + Sync,
    ) {
        assert_eq!(self.shape, a.shape, "zip_map2_assign requires identical shapes");
        assert_eq!(self.shape, b.shape, "zip_map2_assign requires identical shapes");
        let n = self.len();
        let (sa, sb): (&[f32], &[f32]) = (&a.data, &b.data);
        let buf = self.make_mut();
        if n < ELEMENTWISE_PAR_THRESHOLD {
            for (i, v) in buf.iter_mut().enumerate() {
                *v = f(*v, sa[i], sb[i]);
            }
            return;
        }
        let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(buf, chunk, |ci, dst| {
            let base = ci * chunk;
            for (i, v) in dst.iter_mut().enumerate() {
                *v = f(*v, sa[base + i], sb[base + i]);
            }
        });
    }

    // ------------------------------------------------------------------
    // SIMD-routed elementwise kernels
    //
    // The named-op entry points below (`add`, `mul_scalar`, the fused
    // optimizer updates, …) funnel through `crate::simd`'s fixed kernel
    // vocabulary instead of the generic closure loops, so they run 8
    // lanes at a time when the CPU supports it. Lane-wise kernels are
    // bit-identical to their scalar forms (see `simd` module docs), so
    // this routing never changes results. Generic `map`/`zip_map`
    // closures stay scalar.
    // ------------------------------------------------------------------

    /// Elementwise [`simd::Unary`] kernel over the whole tensor
    /// (vectorized when dispatch allows; parallel when large).
    pub fn apply_unary(&self, op: simd::Unary) -> Tensor {
        let n = self.len();
        let mut prof = traffic_obs::profile::op("elem", op.name());
        prof.set_flops(n * op.flops_per_elem());
        prof.set_bytes(n * 8);
        let mut out = mem::take_uninit(n);
        let src: &[f32] = &self.data;
        if n < ELEMENTWISE_PAR_THRESHOLD {
            simd::unary(op, src, &mut out);
            return Tensor::from_vec(out, &self.shape);
        }
        let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(&mut out, chunk, |ci, dst| {
            let base = ci * chunk;
            simd::unary(op, &src[base..base + dst.len()], dst);
        });
        Tensor::from_vec(out, &self.shape)
    }

    /// In-place [`Tensor::apply_unary`].
    pub fn apply_unary_inplace(&mut self, op: simd::Unary) {
        let n = self.len();
        let mut prof = traffic_obs::profile::op("elem", op.name());
        prof.set_flops(n * op.flops_per_elem());
        prof.set_bytes(n * 8);
        let buf = self.make_mut();
        if n < ELEMENTWISE_PAR_THRESHOLD {
            simd::unary_inplace(op, buf);
            return;
        }
        let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(buf, chunk, |_ci, dst| {
            simd::unary_inplace(op, dst);
        });
    }

    /// Elementwise [`simd::Binary`] kernel against an identically-shaped
    /// tensor: `out[i] = op(self[i], other[i])`.
    pub fn apply_binary(&self, other: &Tensor, op: simd::Binary) -> Tensor {
        assert_eq!(self.shape, other.shape, "apply_binary requires identical shapes");
        let n = self.len();
        let mut prof = traffic_obs::profile::op("elem", op.name());
        prof.set_flops(n * op.flops_per_elem());
        prof.set_bytes(n * 12);
        let mut out = mem::take_uninit(n);
        let (a, b): (&[f32], &[f32]) = (&self.data, &other.data);
        if n < ELEMENTWISE_PAR_THRESHOLD {
            simd::binary(op, a, b, &mut out);
            return Tensor::from_vec(out, &self.shape);
        }
        let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(&mut out, chunk, |ci, dst| {
            let base = ci * chunk;
            simd::binary(op, &a[base..base + dst.len()], &b[base..base + dst.len()], dst);
        });
        Tensor::from_vec(out, &self.shape)
    }

    /// In-place [`Tensor::apply_binary`]: `self[i] = op(self[i], other[i])`.
    pub fn apply_binary_assign(&mut self, other: &Tensor, op: simd::Binary) {
        assert_eq!(self.shape, other.shape, "apply_binary_assign requires identical shapes");
        let n = self.len();
        let mut prof = traffic_obs::profile::op("elem", op.name());
        prof.set_flops(n * op.flops_per_elem());
        prof.set_bytes(n * 12);
        let src: &[f32] = &other.data;
        let buf = self.make_mut();
        if n < ELEMENTWISE_PAR_THRESHOLD {
            simd::binary_assign(op, buf, src);
            return;
        }
        let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(buf, chunk, |ci, dst| {
            let base = ci * chunk;
            simd::binary_assign(op, dst, &src[base..base + dst.len()]);
        });
    }

    /// In-place [`simd::Ternary`] kernel:
    /// `self[i] = op(self[i], a[i], b[i])` (fused optimizer update).
    pub fn apply_ternary_assign(&mut self, a: &Tensor, b: &Tensor, op: simd::Ternary) {
        assert_eq!(self.shape, a.shape, "apply_ternary_assign requires identical shapes");
        assert_eq!(self.shape, b.shape, "apply_ternary_assign requires identical shapes");
        let n = self.len();
        let mut prof = traffic_obs::profile::op("elem", op.name());
        prof.set_flops(n * op.flops_per_elem());
        prof.set_bytes(n * 16);
        let (sa, sb): (&[f32], &[f32]) = (&a.data, &b.data);
        let buf = self.make_mut();
        if n < ELEMENTWISE_PAR_THRESHOLD {
            simd::ternary_assign(op, buf, sa, sb);
            return;
        }
        let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
        pool::parallel_chunks_mut(buf, chunk, |ci, dst| {
            let base = ci * chunk;
            simd::ternary_assign(op, dst, &sa[base..base + dst.len()], &sb[base..base + dst.len()]);
        });
    }

    /// Fused gated activation `tanh(f) ⊙ σ(g)` (identical shapes).
    ///
    /// Returns `(out, t, s)` where `t = tanh(f)` and `s = σ(g)` — the
    /// two saved activations the backward pass needs — computed in one
    /// pass instead of the three passes (tanh, sigmoid, mul) the
    /// unfused composition records. Uses [`crate::fastmath::tanh`];
    /// arithmetic is element-for-element identical to
    /// `f.map(fastmath::tanh)`, `g.map(fastmath::sigmoid)`, `t.mul(&s)`.
    pub fn gated_tanh_sigmoid(f: &Tensor, g: &Tensor) -> (Tensor, Tensor, Tensor) {
        let (out, saved) = Tensor::gated_fwd(f, g, true);
        let (t, s) = saved.expect("saved activations requested");
        (out, t, s)
    }

    /// The value of [`Tensor::gated_tanh_sigmoid`] alone, for forwards
    /// that record no gradient: the same kernel, with `t` and `s`
    /// written to a small reused block instead of two full tensors.
    pub(crate) fn gated_tanh_sigmoid_value(f: &Tensor, g: &Tensor) -> Tensor {
        Tensor::gated_fwd(f, g, false).0
    }

    fn gated_fwd(f: &Tensor, g: &Tensor, keep: bool) -> (Tensor, Option<(Tensor, Tensor)>) {
        assert_eq!(f.shape, g.shape, "gated_tanh_sigmoid requires identical shapes");
        let n = f.len();
        let mut prof = traffic_obs::profile::op("elem", "gated_fwd");
        prof.set_flops(n * 41); // tanh (22) + sigmoid (18) + mul
        prof.set_bytes(n * if keep { 20 } else { 12 }); // 2 reads + 3 (or 1) writes
        let (fd, gd): (&[f32], &[f32]) = (&f.data, &g.data);
        let (mut t, mut s) = if keep {
            (mem::take_uninit(n), mem::take_uninit(n))
        } else {
            (Vec::new(), Vec::new())
        };
        let mut out = mem::take_uninit(n);
        // Runs the kernel on `out`'s window starting at `base`: into the
        // matching windows of `t`/`s`, or block by block into scratch.
        let kernel = |base: usize, dst: &mut [f32], tp: SendMutPtr, sp: SendMutPtr| {
            let (fw, gw) = (&fd[base..base + dst.len()], &gd[base..base + dst.len()]);
            if keep {
                // SAFETY: `[base, base + len)` windows mirror disjoint
                // windows of `out`; `t` and `s` outlive the dispatch
                // (joined before this function returns).
                let (tc, sc) = unsafe {
                    (
                        std::slice::from_raw_parts_mut(tp.0.add(base), dst.len()),
                        std::slice::from_raw_parts_mut(sp.0.add(base), dst.len()),
                    )
                };
                simd::gated_fwd(fw, gw, tc, sc, dst);
            } else {
                const BLOCK: usize = 1024;
                let (mut tb, mut sb) = ([0.0f32; BLOCK], [0.0f32; BLOCK]);
                for (i, o) in dst.chunks_mut(BLOCK).enumerate() {
                    let (b, m) = (i * BLOCK, o.len());
                    simd::gated_fwd(&fw[b..b + m], &gw[b..b + m], &mut tb[..m], &mut sb[..m], o);
                }
            }
        };
        let (tp, sp) = (SendMutPtr(t.as_mut_ptr()), SendMutPtr(s.as_mut_ptr()));
        if n < ELEMENTWISE_PAR_THRESHOLD {
            kernel(0, &mut out, tp, sp);
        } else {
            let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
            pool::parallel_chunks_mut(&mut out, chunk, |ci, dst| kernel(ci * chunk, dst, tp, sp));
        }
        let saved = keep.then(|| (Tensor::from_vec(t, &f.shape), Tensor::from_vec(s, &f.shape)));
        (Tensor::from_vec(out, &f.shape), saved)
    }

    /// Backward of [`Tensor::gated_tanh_sigmoid`] in one pass:
    /// `gf = (grad·s)·(1 − t²)`, `gg = ((grad·t)·s)·(1 − s)` — the same
    /// association order as the unfused mul/tanh/sigmoid backward chain,
    /// so the fused op is bit-identical end to end.
    pub fn gated_tanh_sigmoid_backward(grad: &Tensor, t: &Tensor, s: &Tensor) -> (Tensor, Tensor) {
        assert_eq!(grad.shape, t.shape, "gated_tanh_sigmoid_backward shape mismatch");
        assert_eq!(grad.shape, s.shape, "gated_tanh_sigmoid_backward shape mismatch");
        let n = grad.len();
        let mut prof = traffic_obs::profile::op("elem", "gated_bwd");
        prof.set_flops(n * 9);
        prof.set_bytes(n * 20); // 3 reads + 2 writes
        let (gd, td, sd): (&[f32], &[f32], &[f32]) = (&grad.data, &t.data, &s.data);
        let mut gf = mem::take_uninit(n);
        let mut gg = mem::take_uninit(n);
        let kernel = simd::gated_bwd;
        if n < ELEMENTWISE_PAR_THRESHOLD {
            kernel(gd, td, sd, &mut gf, &mut gg);
        } else {
            let chunk = n.div_ceil(pool::effective_threads() * 2).max(1);
            let gp = SendMutPtr(gg.as_mut_ptr());
            pool::parallel_chunks_mut(&mut gf, chunk, move |ci, dst| {
                let gp = gp; // capture the Sync wrapper, not the raw field
                let base = ci * chunk;
                // SAFETY: disjoint windows of `gg` mirror the disjoint
                // chunks of `gf`; `gg` outlives the joined dispatch.
                let gc = unsafe { std::slice::from_raw_parts_mut(gp.0.add(base), dst.len()) };
                kernel(
                    &gd[base..base + dst.len()],
                    &td[base..base + dst.len()],
                    &sd[base..base + dst.len()],
                    dst,
                    gc,
                );
            });
        }
        (Tensor::from_vec(gf, &grad.shape), Tensor::from_vec(gg, &grad.shape))
    }

    /// Fused in-place accumulate: `self += other` (identical shapes).
    /// Bit-identical to `self = self.add(other)` for equal shapes.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.apply_binary_assign(other, simd::Binary::Add);
    }

    /// Fused axpy: `self += alpha * other` (identical shapes).
    pub fn scaled_add_assign(&mut self, alpha: f32, other: &Tensor) {
        self.apply_binary_assign(other, simd::Binary::Axpy(alpha));
    }

    /// Negation.
    pub fn neg(&self) -> Tensor {
        self.apply_unary(simd::Unary::Neg)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.apply_unary(simd::Unary::Abs)
    }

    /// [`Tensor::map`] under an `elem` profiler frame named `name`.
    fn map_op(&self, name: &'static str, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut prof = traffic_obs::profile::op("elem", name);
        prof.set_flops(self.len());
        prof.set_bytes(self.len() * 8);
        self.map(f)
    }

    /// Elementwise exponential ([`crate::fastmath::exp`], vectorized).
    pub fn exp(&self) -> Tensor {
        self.apply_unary(simd::Unary::Exp)
    }

    /// Elementwise natural log.
    pub fn ln(&self) -> Tensor {
        self.map_op("ln", f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map_op("sqrt", f32::sqrt)
    }

    /// Elementwise power.
    pub fn powf(&self, p: f32) -> Tensor {
        self.map_op("powf", |v| v.powf(p))
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.apply_unary(simd::Unary::AddS(s))
    }

    /// Multiplies by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.apply_unary(simd::Unary::MulS(s))
    }

    /// Elementwise maximum with a scalar.
    pub fn clamp_min(&self, lo: f32) -> Tensor {
        self.apply_unary(simd::Unary::MaxS(lo))
    }

    /// Elementwise minimum with a scalar.
    pub fn clamp_max(&self, hi: f32) -> Tensor {
        self.apply_unary(simd::Unary::MinS(hi))
    }

    /// Elementwise fast tanh ([`crate::fastmath::tanh`], vectorized).
    pub fn tanh(&self) -> Tensor {
        self.apply_unary(simd::Unary::Tanh)
    }

    /// Elementwise logistic sigmoid ([`crate::fastmath::sigmoid`],
    /// vectorized).
    pub fn sigmoid(&self) -> Tensor {
        self.apply_unary(simd::Unary::Sigmoid)
    }

    // ------------------------------------------------------------------
    // Broadcast binary kernels
    // ------------------------------------------------------------------

    /// Broadcasting binary op. Panics on incompatible shapes.
    pub fn broadcast_zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        if self.shape == other.shape {
            // Fast path: no index arithmetic (parallel when large).
            return self.zip_map(other, f);
        }
        self.broadcast_rows(other, "broadcast", f)
    }

    /// Mismatched-shape branch of the broadcasting ops: plans the
    /// output as rows ([`RowPlan`]) and runs `f` over each row with
    /// every operand either contiguous or a per-row scalar. Chunks of
    /// the output split across the pool above
    /// [`ELEMENTWISE_PAR_THRESHOLD`]; each element is one `f(a, b)`
    /// call on the same two inputs as the element-wise odometer
    /// ([`for_each_broadcast2`](crate::shape::for_each_broadcast2)),
    /// so the result is bit-identical to it at any thread count.
    fn broadcast_rows(
        &self,
        other: &Tensor,
        name: &'static str,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Tensor {
        let out_shape = broadcast_shapes(&self.shape, &other.shape)
            .unwrap_or_else(|| panic!("cannot broadcast {:?} with {:?}", self.shape, other.shape));
        let plan = RowPlan::new(
            &out_shape,
            &broadcast_strides(&self.shape, &out_shape),
            &broadcast_strides(&other.shape, &out_shape),
        );
        let n = numel(&out_shape);
        let mut prof = traffic_obs::profile::op("elem", name);
        prof.set_flops(n);
        prof.set_bytes((self.len() + other.len() + n) * 4);
        let mut out = mem::take_uninit(n);
        plan.run(&mut out, &self.data, &other.data, &f);
        Tensor::from_vec(out, &out_shape)
    }

    /// Broadcast add. Same-shape operands take the vectorized rail.
    pub fn add(&self, other: &Tensor) -> Tensor {
        if self.shape == other.shape {
            return self.apply_binary(other, simd::Binary::Add);
        }
        self.broadcast_rows(other, "bcast_add", |a, b| a + b)
    }

    /// Broadcast subtract. Same-shape operands take the vectorized rail.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        if self.shape == other.shape {
            return self.apply_binary(other, simd::Binary::Sub);
        }
        self.broadcast_rows(other, "bcast_sub", |a, b| a - b)
    }

    /// Broadcast multiply. Same-shape operands take the vectorized rail.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        if self.shape == other.shape {
            return self.apply_binary(other, simd::Binary::Mul);
        }
        self.broadcast_rows(other, "bcast_mul", |a, b| a * b)
    }

    /// Broadcast divide. Same-shape operands take the vectorized rail.
    pub fn div(&self, other: &Tensor) -> Tensor {
        if self.shape == other.shape {
            return self.apply_binary(other, simd::Binary::Div);
        }
        self.broadcast_rows(other, "bcast_div", |a, b| a / b)
    }

    /// Expands `self` to `shape` by broadcasting (materialised copy).
    pub fn broadcast_to(&self, shape: &[usize]) -> Tensor {
        if self.shape() == shape {
            return self.clone();
        }
        assert_eq!(
            broadcast_shapes(&self.shape, shape).as_deref(),
            Some(shape),
            "cannot broadcast {:?} to {:?}",
            self.shape,
            shape
        );
        let plan =
            RowPlan::new(shape, &broadcast_strides(&self.shape, shape), &vec![0; shape.len()]);
        let n = numel(shape);
        let mut prof = traffic_obs::profile::op("elem", "broadcast_to");
        prof.set_bytes((self.len() + n) * 4);
        let mut out = mem::take_uninit(n);
        plan.run(&mut out, &self.data, &[0.0], &|a, _| a);
        Tensor::from_vec(out, shape)
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterprets the buffer under a new shape with equal element count.
    /// Zero-copy (shares the buffer).
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            numel(shape),
            self.len(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        Tensor { data: Arc::clone(&self.data), shape: shape.to_vec() }
    }

    /// Reorders axes. `perm` must be a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let mut prof = traffic_obs::profile::op("elem", "permute");
        prof.set_bytes(self.len() * 8);
        let in_strides = strides_for(&self.shape);
        // Stride of output axis i is the input stride of the axis it came from.
        let src_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let out_strides = strides_for(&out_shape);
        let mut out = mem::take_uninit(self.len());
        let data: &[f32] = &self.data;
        let r = out_shape.len();
        if r == 0 || self.is_empty() {
            out.copy_from_slice(data);
            return Tensor::from_vec(out, &out_shape);
        }
        if src_strides[r - 1] == 1 {
            // The innermost output axis is contiguous in the source:
            // copy whole runs instead of walking elements.
            let run = out_shape[r - 1];
            for_each_offsets(
                &out_shape[..r - 1],
                &out_strides[..r - 1],
                &src_strides[..r - 1],
                |doff, soff| out[doff..doff + run].copy_from_slice(&data[soff..soff + run]),
            );
            return Tensor::from_vec(out, &out_shape);
        }
        // General case: the source's innermost axis landed at output
        // position `q` (exists and differs from r-1 here). Tile the
        // (q, last) plane — reads stream contiguously along `q`, writes
        // along the last axis — instead of a strided per-element walk.
        let q = perm.iter().position(|&p| p == self.rank() - 1).expect("perm is a permutation");
        let (m, n) = (out_shape[q], out_shape[r - 1]);
        let (dq, sj) = (out_strides[q], src_strides[r - 1]);
        let outer: Vec<usize> = (0..r - 1).filter(|&ax| ax != q).collect();
        let outer_shape: Vec<usize> = outer.iter().map(|&ax| out_shape[ax]).collect();
        let outer_dst: Vec<usize> = outer.iter().map(|&ax| out_strides[ax]).collect();
        let outer_src: Vec<usize> = outer.iter().map(|&ax| src_strides[ax]).collect();
        const TILE: usize = 32;
        for_each_offsets(&outer_shape, &outer_dst, &outer_src, |doff, soff| {
            for i0 in (0..m).step_by(TILE) {
                let ie = (i0 + TILE).min(m);
                for j0 in (0..n).step_by(TILE) {
                    let je = (j0 + TILE).min(n);
                    for i in i0..ie {
                        let (d_row, s_col) = (doff + i * dq, soff + i);
                        let dst = &mut out[d_row + j0..d_row + je];
                        for (jj, o) in dst.iter_mut().enumerate() {
                            *o = data[s_col + (j0 + jj) * sj];
                        }
                    }
                }
            }
        });
        Tensor::from_vec(out, &out_shape)
    }

    /// Swaps the last two axes (matrix transpose, batched).
    pub fn t(&self) -> Tensor {
        let r = self.rank();
        assert!(r >= 2, "t() requires rank >= 2");
        let mut perm: Vec<usize> = (0..r).collect();
        perm.swap(r - 1, r - 2);
        self.permute(&perm)
    }

    /// Extracts `len` consecutive slices starting at `start` along `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        crate::shape::check_axis(axis, self.rank());
        assert!(
            start + len <= self.shape[axis],
            "narrow [{start}, {}) exceeds axis {axis} of size {}",
            start + len,
            self.shape[axis]
        );
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let d = self.shape[axis];
        let mut prof = traffic_obs::profile::op("elem", "narrow");
        prof.set_bytes(outer * len * inner * 8);
        let run = len * inner;
        let out = if run <= SHORT_RUN {
            let mut out = mem::take_uninit(outer * run);
            copy_runs(&mut out, 0, run, &self.data, start * inner, d * inner, run, outer);
            out
        } else {
            let mut out = mem::take_capacity(outer * run);
            for o in 0..outer {
                let base = o * d * inner + start * inner;
                out.extend_from_slice(&self.data[base..base + run]);
            }
            out
        };
        let mut shape = self.shape.clone();
        shape[axis] = len;
        Tensor::from_vec(out, &shape)
    }

    /// Concatenates tensors along `axis`. All other axes must match.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let rank = parts[0].rank();
        crate::shape::check_axis(axis, rank);
        for p in parts {
            assert_eq!(p.rank(), rank, "concat rank mismatch");
            for ax in 0..rank {
                if ax != axis {
                    assert_eq!(
                        p.shape[ax], parts[0].shape[ax],
                        "concat shape mismatch on axis {ax}"
                    );
                }
            }
        }
        let outer: usize = parts[0].shape[..axis].iter().product();
        let inner: usize = parts[0].shape[axis + 1..].iter().product();
        let total_axis: usize = parts.iter().map(|p| p.shape[axis]).sum();
        let mut prof = traffic_obs::profile::op("elem", "concat");
        prof.set_bytes(outer * total_axis * inner * 8);
        let row = total_axis * inner;
        let out = if parts.iter().all(|p| p.shape[axis] * inner <= SHORT_RUN) {
            let mut out = mem::take_uninit(outer * row);
            let mut at = 0;
            for p in parts {
                let run = p.shape[axis] * inner;
                copy_runs(&mut out, at, row, &p.data, 0, run, run, outer);
                at += run;
            }
            out
        } else {
            let mut out = mem::take_capacity(outer * row);
            for o in 0..outer {
                for p in parts {
                    let d = p.shape[axis];
                    let base = o * d * inner;
                    out.extend_from_slice(&p.data[base..base + d * inner]);
                }
            }
            out
        };
        let mut shape = parts[0].shape.clone();
        shape[axis] = total_axis;
        Tensor::from_vec(out, &shape)
    }

    /// Zero-pads each axis by `(before, after)` amounts.
    ///
    /// Writes the output in contiguous runs — zero fills exactly where
    /// padding lives, bulk copies for interior rows — so the buffer can
    /// come back from the pool dirty (every element is written once).
    pub fn pad(&self, pads: &[(usize, usize)]) -> Tensor {
        assert_eq!(pads.len(), self.rank(), "pad spec rank mismatch");
        if pads.iter().all(|&(b, a)| b == 0 && a == 0) {
            return self.clone();
        }
        let out_shape: Vec<usize> =
            self.shape.iter().zip(pads).map(|(&d, &(b, a))| d + b + a).collect();
        let mut prof = traffic_obs::profile::op("elem", "pad");
        prof.set_bytes((self.len() + numel(&out_shape)) * 4);
        let mut out = mem::take_uninit(numel(&out_shape));
        // Trailing unpadded axes collapse into one contiguous run.
        let mut tail = self.rank();
        while tail > 0 && pads[tail - 1] == (0, 0) {
            tail -= 1;
        }
        let run: usize = self.shape[tail..].iter().product();
        let in_strides = strides_for(&self.shape);
        let out_strides = strides_for(&out_shape);
        Tensor::pad_rec(
            0,
            tail,
            run,
            &self.data,
            &mut out,
            &self.shape,
            pads,
            &in_strides,
            &out_strides,
        );
        Tensor::from_vec(out, &out_shape)
    }

    /// See [`Tensor::pad`]. Descends one axis per level; at each level
    /// the before/after padding is a contiguous zero fill and the body
    /// recurses, bottoming out in a bulk copy of the collapsed
    /// unpadded-suffix run. Every output element is written exactly
    /// once, so the destination may start as recycled garbage.
    #[allow(clippy::too_many_arguments)]
    fn pad_rec(
        axis: usize,
        tail: usize,
        run: usize,
        src: &[f32],
        dst: &mut [f32],
        shape: &[usize],
        pads: &[(usize, usize)],
        in_strides: &[usize],
        out_strides: &[usize],
    ) {
        if axis == tail {
            dst[..run].copy_from_slice(&src[..run]);
            return;
        }
        let (b, a) = pads[axis];
        let d = shape[axis];
        let os = out_strides[axis];
        let is = in_strides[axis];
        dst[..b * os].fill(0.0);
        if axis + 1 == tail {
            // Innermost padded axis: the whole interior is one
            // contiguous input block (the suffix axes are unpadded, so
            // `os == run` and `is == run`), no need to recurse per row.
            dst[b * os..(b + d) * os].copy_from_slice(&src[..d * is]);
            dst[(b + d) * os..(b + d + a) * os].fill(0.0);
            return;
        }
        for j in 0..d {
            Tensor::pad_rec(
                axis + 1,
                tail,
                run,
                &src[j * is..],
                &mut dst[(b + j) * os..],
                shape,
                pads,
                in_strides,
                out_strides,
            );
        }
        dst[(b + d) * os..(b + d + a) * os].fill(0.0);
    }

    /// Inverse of [`Tensor::pad`]: crops `(before, after)` from each axis.
    pub fn unpad(&self, pads: &[(usize, usize)]) -> Tensor {
        assert_eq!(pads.len(), self.rank(), "unpad spec rank mismatch");
        let mut t = self.clone();
        for (axis, &(b, a)) in pads.iter().enumerate() {
            if b == 0 && a == 0 {
                continue;
            }
            let d = t.shape[axis];
            t = t.narrow(axis, b, d - b - a);
        }
        t
    }

    /// Selects rows of axis 0 by index (gather). Indices may repeat.
    pub fn index_select0(&self, indices: &[usize]) -> Tensor {
        assert!(self.rank() >= 1, "index_select0 requires rank >= 1");
        let inner: usize = self.shape[1..].iter().product();
        let mut prof = traffic_obs::profile::op("elem", "index_select0");
        prof.set_bytes(indices.len() * inner * 8);
        let mut out = mem::take_capacity(indices.len() * inner);
        for &i in indices {
            assert!(i < self.shape[0], "index {i} out of bounds for axis 0 size {}", self.shape[0]);
            out.extend_from_slice(&self.data[i * inner..(i + 1) * inner]);
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Tensor::from_vec(out, &shape)
    }

    /// Gathers positions of the last axis: `out[.., i] = self[.., indices[i]]`.
    /// Indices may repeat or come in any order; each maximal run of
    /// consecutive indices is one strided copy over the leading rows.
    pub fn select_last(&self, indices: &[usize]) -> Tensor {
        assert!(self.rank() >= 1, "select_last requires rank >= 1");
        let w = self.shape[self.rank() - 1];
        let rows = numel(&self.shape[..self.rank() - 1]);
        let m = indices.len();
        let mut prof = traffic_obs::profile::op("elem", "select_last");
        prof.set_bytes(rows * m * 8);
        // The runs partition `0..m`, so every output slot is written once.
        let mut out = mem::take_uninit(rows * m);
        let mut i = 0;
        while i < m {
            let start = indices[i];
            assert!(start < w, "index {start} out of bounds for last axis size {w}");
            let mut run = 1;
            while i + run < m && indices[i + run] == start + run && start + run < w {
                run += 1;
            }
            copy_runs(&mut out, i, m, &self.data, start, w, run, rows);
            i += run;
        }
        let mut shape = self.shape.clone();
        *shape.last_mut().expect("rank >= 1") = m;
        Tensor::from_vec(out, &shape)
    }

    /// Adjoint of [`Tensor::select_last`]: a zero tensor whose last axis
    /// has `len` positions, with `self[.., i]` added into position
    /// `indices[i]` (repeated indices accumulate in order).
    pub fn scatter_add_last(&self, indices: &[usize], len: usize) -> Tensor {
        assert!(self.rank() >= 1, "scatter_add_last requires rank >= 1");
        let m = self.shape[self.rank() - 1];
        assert_eq!(m, indices.len(), "scatter_add_last: {m} positions, {} indices", indices.len());
        let rows = numel(&self.shape[..self.rank() - 1]);
        let mut prof = traffic_obs::profile::op("elem", "scatter_add_last");
        prof.set_bytes(rows * (m + len) * 4);
        let mut out = mem::take_zeroed(rows * len);
        for r in 0..rows {
            let (dst, src) = (&mut out[r * len..(r + 1) * len], &self.data[r * m..(r + 1) * m]);
            for (&j, &v) in indices.iter().zip(src) {
                dst[j] += v;
            }
        }
        let mut shape = self.shape.clone();
        *shape.last_mut().expect("rank >= 1") = len;
        Tensor::from_vec(out, &shape)
    }

    // ------------------------------------------------------------------
    // Whole-tensor statistics (used heavily by data prep / metrics)
    // ------------------------------------------------------------------

    /// Sum of all elements. Sequential left-to-right by default; the
    /// 8-accumulator SIMD fold runs only under `TRAFFIC_SIMD_REDUCE=1`
    /// (association order changes — see `simd` module docs).
    pub fn sum_all(&self) -> f32 {
        simd::sum(&self.data)
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean_all(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_all() / self.len() as f32
        }
    }

    /// Population standard deviation of all elements.
    pub fn std_all(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let m = self.mean_all();
        let var = self.data.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / self.len() as f32;
        var.sqrt()
    }

    /// Minimum element (`+inf` for empty tensors).
    pub fn min_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::eye(2).as_slice(), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(Tensor::arange(3).as_slice(), &[0.0, 1.0, 2.0]);
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_shape_panics() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn broadcast_add() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_col() {
        let a = t(&[1.0, 2.0], &[2, 1]);
        let b = t(&[10.0, 20.0, 30.0], &[1, 3]);
        let c = a.mul(&b);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[10.0, 20.0, 30.0, 20.0, 40.0, 60.0]);
    }

    #[test]
    fn permute_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.t();
        assert_eq!(at.shape(), &[3, 2]);
        assert_eq!(at.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        // permute rank-3
        let b = Tensor::arange(24).reshape(&[2, 3, 4]);
        let bp = b.permute(&[2, 0, 1]);
        assert_eq!(bp.shape(), &[4, 2, 3]);
        assert_eq!(bp.at(&[1, 1, 2]), b.at(&[1, 2, 1]));
    }

    #[test]
    fn narrow_and_concat_roundtrip() {
        let a = Tensor::arange(24).reshape(&[2, 3, 4]);
        let p0 = a.narrow(1, 0, 1);
        let p1 = a.narrow(1, 1, 2);
        let back = Tensor::concat(&[&p0, &p1], 1);
        assert_eq!(back, a);
    }

    #[test]
    fn pad_unpad_roundtrip() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let p = a.pad(&[(1, 0), (2, 1)]);
        assert_eq!(p.shape(), &[3, 6]);
        assert_eq!(p.at(&[0, 0]), 0.0);
        assert_eq!(p.at(&[1, 2]), 0.0 + a.at(&[0, 0]));
        assert_eq!(p.unpad(&[(1, 0), (2, 1)]), a);
    }

    #[test]
    fn index_select_rows() {
        let a = Tensor::arange(6).reshape(&[3, 2]);
        let s = a.index_select0(&[2, 0, 2]);
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.as_slice(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn select_last_gathers_runs_and_scatter_adds_back() {
        let a = Tensor::arange(2 * 3 * 5).reshape(&[2, 3, 5]);
        // Runs {1, 2, 3}, {0} and a repeat of 3.
        let idx = [1, 2, 3, 0, 3];
        let s = a.select_last(&idx);
        assert_eq!(s.shape(), &[2, 3, 5]);
        for r in 0..6 {
            for (i, &j) in idx.iter().enumerate() {
                assert_eq!(s.as_slice()[r * 5 + i], a.as_slice()[r * 5 + j]);
            }
        }
        let g = Tensor::ones(&[2, 3, 5]);
        let back = g.scatter_add_last(&idx, 5);
        assert_eq!(&back.as_slice()[..5], &[1.0, 1.0, 1.0, 2.0, 0.0]);
        // Contiguous indices are a narrow.
        assert_eq!(a.select_last(&[2, 3, 4]), a.narrow(2, 2, 3));
    }

    #[test]
    fn stats() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[4]);
        assert_eq!(a.sum_all(), 10.0);
        assert_eq!(a.mean_all(), 2.5);
        assert!((a.std_all() - 1.118034).abs() < 1e-5);
        assert_eq!(a.min_all(), 1.0);
        assert_eq!(a.max_all(), 4.0);
        assert!(!a.has_non_finite());
        assert!(t(&[f32::NAN], &[1]).has_non_finite());
    }

    #[test]
    fn copy_on_write() {
        let a = Tensor::ones(&[3]);
        let mut b = a.clone();
        b.make_mut()[0] = 9.0;
        assert_eq!(a.as_slice(), &[1.0, 1.0, 1.0]);
        assert_eq!(b.as_slice(), &[9.0, 1.0, 1.0]);
    }

    #[test]
    fn inplace_matches_allocating() {
        let a = t(&[1.0, -2.0, 3.0, -4.0], &[4]);
        let b = t(&[0.5, 0.25, -1.0, 2.0], &[4]);
        let mut m = a.clone();
        m.map_inplace(|v| v * 2.0 + 1.0);
        assert_eq!(m, a.map(|v| v * 2.0 + 1.0));
        let mut z = a.clone();
        z.zip_map_assign(&b, |x, y| x * y + 1.0);
        assert_eq!(z, a.zip_map(&b, |x, y| x * y + 1.0));
        let mut s = a.clone();
        s.add_assign(&b);
        assert_eq!(s, a.add(&b));
        let mut axpy = a.clone();
        axpy.scaled_add_assign(-0.5, &b);
        assert_eq!(axpy, a.zip_map(&b, |x, y| x + (-0.5) * y));
        let mut tern = a.clone();
        tern.zip_map2_assign(&b, &s, |x, y, z| x + y * z);
        for i in 0..4 {
            assert_eq!(tern.as_slice()[i], a.as_slice()[i] + b.as_slice()[i] * s.as_slice()[i]);
        }
    }

    #[test]
    fn inplace_cow_preserves_shared_buffer() {
        let a = Tensor::ones(&[4]);
        let mut b = a.clone(); // shares the buffer
        b.map_inplace(|v| v + 1.0);
        assert_eq!(a.as_slice(), &[1.0; 4], "shared source must be untouched");
        assert_eq!(b.as_slice(), &[2.0; 4]);
    }

    #[test]
    fn inplace_self_aliased_operand() {
        let mut a = t(&[1.0, 2.0, 3.0], &[3]);
        let alias = a.clone();
        a.add_assign(&alias); // COW kicks in; reads stay consistent
        assert_eq!(a.as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(alias.as_slice(), &[1.0, 2.0, 3.0]);
    }
}
