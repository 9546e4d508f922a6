//! # traffic-tensor
//!
//! A from-scratch dense `f32` tensor library with reverse-mode automatic
//! differentiation, built as the numerical substrate for reproducing
//! *"An Empirical Experiment on Deep Learning Models for Predicting Traffic
//! Data"* (ICDE 2021) in pure Rust.
//!
//! ## Layout
//! - [`Tensor`]: contiguous row-major `f32` storage, NumPy-style
//!   broadcasting, batched matmul, stride-1 dilated conv2d, reductions.
//! - [`pool`] / [`gemm`] / [`sparse`]: the traffic-compute runtime — a
//!   persistent worker pool (`TRAFFIC_THREADS`), a blocked
//!   register-tiled GEMM with intra-matrix parallelism, and CSR sparse
//!   graph operators ([`Propagator`]) used by the graph-conv layers.
//! - [`mem`]: the traffic-mem layer — a size-class buffer pool that
//!   recycles `Vec<f32>` backing stores (`TRAFFIC_MEM_CAP`), making
//!   steady-state training steps allocate ~zero.
//! - [`Tape`] / [`Var`]: define-by-run autograd. Operations on [`Var`]
//!   record backward closures; [`Tape::backward`] runs one reverse sweep.
//!   [`Var::attention`] is scaled dot-product attention as one fused
//!   node that never allocates the score tensor when no gradient flows.
//! - [`init`]: seeded weight initialisers (uniform/normal/Xavier/Kaiming).
//! - [`gradcheck`]: central-finite-difference gradient verification used
//!   throughout the workspace's test suites.
//!
//! ## Example
//! ```
//! use traffic_tensor::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let w = tape.leaf(Tensor::from_vec(vec![0.5, -1.0], &[2, 1]), true);
//! let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
//! let loss = x.matmul(&w).powf(2.0).mean_all();
//! let grads = tape.backward(loss);
//! assert_eq!(grads.get(w).unwrap().shape(), &[2, 1]);
//! ```

mod attention;
pub mod conv;
pub mod fastmath;
pub mod gemm;
pub mod gradcheck;
pub mod inference;
pub mod init;
mod linalg;
pub mod mem;
pub mod pool;
mod reduce;
pub mod shape;
pub mod simd;
pub mod sparse;
mod tape;
mod tensor;

pub use sparse::{CsrMatrix, Propagator};
pub use tape::{ActSaturation, Gradients, Tape, Var};
pub use tensor::Tensor;
