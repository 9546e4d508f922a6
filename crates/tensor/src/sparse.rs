//! CSR sparse matrices for graph propagation.
//!
//! Road-network adjacencies, Laplacians, and random-walk transition
//! matrices are >95% zeros at METR-LA scale, yet the seed engine
//! multiplied them as dense `[N, N]` operands (with a per-element
//! zero-skip branch inside the innermost loop). [`CsrMatrix`] stores
//! only the non-zeros and multiplies dense node-feature tensors in
//! `O(nnz · F)`; [`Propagator`] wraps the dense-vs-sparse decision and
//! records the matching autograd node, so graph-conv layers pick the
//! faster representation per matrix without changing their API.
//!
//! Determinism: `csr · dense` parallelises over disjoint output rows
//! and accumulates each row's non-zeros in column order, so results are
//! independent of thread count.

use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Instant;

use crate::gemm;
use crate::pool;
use crate::tensor::Tensor;
use crate::{Tape, Var};

/// Matrices at or below this density default to the CSR path. Above
/// it, the dense blocked GEMM's contiguity wins.
pub const SPARSE_MAX_DENSITY: f32 = 0.25;

/// Dispatch threshold: spmm work (2 · nnz · F flops) below this runs
/// inline rather than through the pool.
const PAR_FLOPS: usize = 1 << 16;

/// Compressed sparse row `[rows, cols]` matrix of `f32` non-zeros.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i + 1]` indexes row `i`'s entries.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense `[R, C]` tensor, dropping exact
    /// zeros.
    pub fn from_dense(dense: &Tensor) -> CsrMatrix {
        assert_eq!(
            dense.rank(),
            2,
            "CsrMatrix::from_dense expects [R, C], got {:?}",
            dense.shape()
        );
        let (rows, cols) = (dense.shape()[0], dense.shape()[1]);
        assert!(cols as u64 <= u32::MAX as u64, "column count exceeds u32 index space");
        let data = dense.as_slice();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for i in 0..rows {
            for j in 0..cols {
                let v = data[i * cols + j];
                if v != 0.0 {
                    col_idx.push(j as u32);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix { rows, cols, row_ptr, col_idx, vals }
    }

    /// Materialises back to a dense tensor (tests, fallbacks).
    pub fn to_dense(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for i in 0..self.rows {
            for e in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                out[i * self.cols + self.col_idx[e] as usize] = self.vals[e];
            }
        }
        Tensor::from_vec(out, &[self.rows, self.cols])
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Fraction of entries stored (`nnz / (rows · cols)`).
    pub fn density(&self) -> f32 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f32 / (self.rows * self.cols) as f32
        }
    }

    /// The transposed matrix in CSR form (counting sort by column;
    /// entries within each transposed row stay in ascending column
    /// order). Layers cache this for the backward pass.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0u32; self.cols + 1];
        for &j in &self.col_idx {
            counts[j as usize + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0.0f32; self.nnz()];
        let mut next = counts;
        for i in 0..self.rows {
            for e in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                let j = self.col_idx[e] as usize;
                let slot = next[j] as usize;
                col_idx[slot] = i as u32;
                vals[slot] = self.vals[e];
                next[j] += 1;
            }
        }
        CsrMatrix { rows: self.cols, cols: self.rows, row_ptr, col_idx, vals }
    }

    /// `self · x` for `x: [N, F]` or `[B, N, F]` with `N == cols`;
    /// output replaces the node axis with `rows`. Row-parallel and
    /// deterministic.
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        let (nbatch, n, f, mut out_shape) = match x.rank() {
            2 => (1usize, x.shape()[0], x.shape()[1], vec![self.rows, x.shape()[1]]),
            3 => (
                x.shape()[0],
                x.shape()[1],
                x.shape()[2],
                vec![x.shape()[0], self.rows, x.shape()[2]],
            ),
            r => panic!("CsrMatrix::matmul expects rank 2 or 3 input, got rank {r}"),
        };
        assert_eq!(
            n,
            self.cols,
            "spmm dimension mismatch: [{}, {}] · {:?}",
            self.rows,
            self.cols,
            x.shape()
        );
        out_shape[x.rank() - 2] = self.rows;
        let start = Instant::now();
        // From the pool: at 207 nodes the output sits above the mmap
        // threshold, so a fresh `vec!` page-faults on every call.
        let mut out = crate::mem::take_zeroed(nbatch * self.rows * f);
        let xd = x.as_slice();
        let flops_per_batch = 2 * self.nnz() * f;
        let mut prof = traffic_obs::profile::op("spmm", "csr");
        prof.set_flops(flops_per_batch * nbatch);
        prof.set_bytes((2 * self.nnz() + xd.len() + out.len()) * 4);
        let rows_per_task = if flops_per_batch < PAR_FLOPS {
            self.rows // single chunk → inline
        } else {
            self.rows.div_ceil(pool::effective_threads() * 2).max(1)
        };
        for (bi, out_b) in out.chunks_mut(self.rows * f).enumerate() {
            let xb = &xd[bi * n * f..(bi + 1) * n * f];
            pool::parallel_chunks_mut(out_b, rows_per_task * f, |ci, chunk| {
                let r0 = ci * rows_per_task;
                for (local, row_out) in chunk.chunks_mut(f).enumerate() {
                    let r = r0 + local;
                    for e in self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize {
                        let j = self.col_idx[e] as usize;
                        let v = self.vals[e];
                        let x_row = &xb[j * f..j * f + f];
                        for (o, &xv) in row_out.iter_mut().zip(x_row) {
                            *o += v * xv;
                        }
                    }
                }
            });
        }
        record_spmm(flops_per_batch * nbatch, start.elapsed().as_secs_f64());
        Tensor::from_vec(out, &out_shape)
    }
}

fn record_spmm(flops: usize, secs: f64) {
    static HIST: OnceLock<&'static traffic_obs::Histogram> = OnceLock::new();
    gemm::record_flops(flops, 0.0); // cumulative counter only
    if secs > 0.0 && flops > 0 {
        HIST.get_or_init(|| traffic_obs::histogram("compute/spmm_gflops"))
            .record(flops as f64 / secs / 1e9);
    }
}

/// A fixed graph-propagation operator `x ↦ A · x`, stored sparse (CSR,
/// with its cached transpose for the backward pass) when `A` is sparse
/// enough and dense otherwise (the dense backward reads `A` as `Aᵀ`
/// through [`Tensor::matmul_tn`], so no transpose is stored). Built
/// once per layer from the dense adjacency/Laplacian/transition matrix
/// the graph crate produces.
#[derive(Debug, Clone)]
pub enum Propagator {
    /// Dense operator.
    Dense { a: Tensor },
    /// CSR operator with its cached transpose.
    Sparse { a: Arc<CsrMatrix>, at: Arc<CsrMatrix> },
}

impl Propagator {
    /// Chooses CSR when density ≤ [`SPARSE_MAX_DENSITY`], dense
    /// otherwise.
    pub fn from_matrix(a: Tensor) -> Propagator {
        Propagator::with_max_density(a, SPARSE_MAX_DENSITY)
    }

    /// Like [`Propagator::from_matrix`] with an explicit density cutoff
    /// (`0.0` forces dense, `1.0` forces sparse).
    pub fn with_max_density(a: Tensor, max_density: f32) -> Propagator {
        assert_eq!(a.rank(), 2, "propagator matrix must be [N, N], got {:?}", a.shape());
        let csr = CsrMatrix::from_dense(&a);
        if csr.density() <= max_density {
            let at = Arc::new(csr.transpose());
            Propagator::Sparse { a: Arc::new(csr), at }
        } else {
            Propagator::Dense { a }
        }
    }

    /// True when the CSR path is active.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Propagator::Sparse { .. })
    }

    /// Node count `N` (the operator is square).
    pub fn n(&self) -> usize {
        match self {
            Propagator::Dense { a } => a.shape()[0],
            Propagator::Sparse { a, .. } => a.rows(),
        }
    }

    /// Applies `A ·` to a plain tensor (`[N, F]` or `[B, N, F]`).
    pub fn apply_tensor(&self, x: &Tensor) -> Tensor {
        match self {
            Propagator::Dense { a } => a.matmul(x),
            Propagator::Sparse { a, .. } => a.matmul(x),
        }
    }

    /// Applies `A ·` on the tape: forward `A · x`, backward `g ↦ Aᵀ · g`.
    /// The operator itself is constant (no gradient into `A`), which
    /// also skips the wasted adjacency-gradient GEMM the seed paid when
    /// multiplying by a dense constant.
    pub fn apply<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        assert_eq!(tape.id(), x.tape().id(), "propagator applied to a Var from a different tape");
        let y = self.apply_tensor(&x.value());
        match self {
            Propagator::Dense { a } => {
                let a = a.clone();
                tape.unary("prop_apply", &x, y, move |g| a.matmul_tn(g))
            }
            Propagator::Sparse { at, .. } => {
                let at = Arc::clone(at);
                tape.unary("prop_apply", &x, y, move |g| at.matmul(g))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banded(n: usize, band: usize) -> Tensor {
        let mut t = Tensor::zeros(&[n, n]);
        {
            let buf = t.make_mut();
            for i in 0..n {
                for j in i.saturating_sub(band)..(i + band + 1).min(n) {
                    buf[i * n + j] = (i * n + j) as f32 * 0.01 + 0.1;
                }
            }
        }
        t
    }

    #[test]
    fn roundtrip_dense() {
        let d = banded(9, 2);
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.to_dense(), d);
        assert!(csr.density() < 0.6);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let d = banded(7, 1);
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.transpose().to_dense(), d.t());
        // involution
        assert_eq!(csr.transpose().transpose().to_dense(), d);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let a = banded(13, 2);
        let csr = CsrMatrix::from_dense(&a);
        for x in [
            Tensor::arange(13 * 5).reshape(&[13, 5]).mul_scalar(0.01),
            Tensor::arange(3 * 13 * 4).reshape(&[3, 13, 4]).mul_scalar(0.01),
        ] {
            let want = a.matmul(&x);
            let got = csr.matmul(&x);
            assert_eq!(got.shape(), want.shape());
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((g - w).abs() < 1e-4, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn empty_rows_produce_zeros() {
        let mut d = Tensor::zeros(&[4, 4]);
        d.make_mut()[4 + 2] = 3.0; // only row 1 has an entry
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.nnz(), 1);
        let x = Tensor::ones(&[4, 2]);
        let y = csr.matmul(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn propagator_picks_representation() {
        let sparse = Propagator::from_matrix(banded(32, 1));
        assert!(sparse.is_sparse());
        let dense = Propagator::from_matrix(Tensor::ones(&[8, 8]));
        assert!(!dense.is_sparse());
        assert_eq!(sparse.n(), 32);
    }

    #[test]
    fn dense_propagator_grad_bit_identical_to_stored_transpose() {
        // The dense backward reads A as Aᵀ in place; it must equal the
        // product with a materialised transpose bit for bit, on the
        // per-slice path (n = 16) and the shared-operand one (n = 12).
        let n = 70;
        let a = Tensor::from_vec(
            (0..n * n).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.013).collect(),
            &[n, n],
        );
        let prop = Propagator::with_max_density(a.clone(), 0.0);
        assert!(!prop.is_sparse());
        for f in [12, 16] {
            let tape = Tape::new();
            let x = tape.leaf(Tensor::ones(&[5, n, f]), true);
            let seed = Tensor::from_vec(
                (0..5 * n * f).map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.021).collect(),
                &[5, n, f],
            );
            let loss = prop.apply(&tape, x).mul(&tape.constant(seed.clone())).sum_all();
            let g = tape.backward(loss);
            let got = g.get(x).unwrap();
            let want = a.t().matmul(&seed);
            assert_eq!(got.shape(), want.shape());
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "f = {f}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn propagator_backward_is_transpose() {
        // loss = sum(A · x) ⇒ dx = Aᵀ · 1
        let a = banded(6, 1);
        for prop in [
            Propagator::with_max_density(a.clone(), 1.0),
            Propagator::with_max_density(a.clone(), 0.0),
        ] {
            let tape = Tape::new();
            let x = tape.leaf(Tensor::ones(&[2, 6, 3]), true);
            let loss = prop.apply(&tape, x).sum_all();
            let g = tape.backward(loss);
            let gx = g.get(x).unwrap();
            let want = a.t().matmul(&Tensor::ones(&[2, 6, 3]));
            for (got, w) in gx.as_slice().iter().zip(want.as_slice()) {
                assert!((got - w).abs() < 1e-4);
            }
        }
    }
}
