#![warn(missing_docs)]

//! Numeric foundations for the `rotsv` workspace.
//!
//! The pre-bond TSV test reproduction needs a small, self-contained numeric
//! toolbox because no circuit-simulation ecosystem exists in Rust:
//!
//! * [`matrix`] — dense row-major matrices sized for Modified Nodal Analysis
//!   systems (tens to a few hundred unknowns),
//! * [`linsolve`] — LU factorization with partial pivoting used by the
//!   Newton loops of the DC and transient analyses,
//! * [`sparse`] — CSR sparse matrices and a staged, KLU-style sparse LU
//!   (BTF decomposition, per-block minimum-degree ordering, optional
//!   power-of-two equilibration, threshold partial pivoting) whose
//!   one-time symbolic analysis turns every later factorization into a
//!   value-only refactor (the simulator's workhorse; includes the
//!   [`sparse::SolverStats`] work counters), an options-aware
//!   topology-keyed [`sparse::SymbolicCache`], and a lane-interleaved
//!   [`sparse::BatchedLu`] for lockstep Monte-Carlo batches,
//! * [`lanes`] — branch-free elementary functions (`exp`, softplus):
//!   scalar references and the vector forms, generic over a [`simd`]
//!   ISA token, that the lane kernels use,
//! * [`simd`] — runtime-dispatched `f64` lane vectors (AVX-512 / AVX2 /
//!   scalar, detected once per process) that the batched hot kernels
//!   are written against,
//! * [`stats`] — population statistics for Monte-Carlo spread/overlap
//!   analysis (Figs. 7, 9 and 10 of the paper),
//! * [`rng`] — seeded Gaussian sampling for process variation,
//! * [`interp`] — linear interpolation on sampled waveforms,
//! * [`units`] — newtypes for the physical quantities that cross crate
//!   boundaries (volts, seconds, ohms, farads).
//!
//! # Examples
//!
//! Solve a 2×2 system:
//!
//! ```
//! use rotsv_num::matrix::Matrix;
//! use rotsv_num::linsolve::LuFactors;
//!
//! # fn main() -> Result<(), rotsv_num::linsolve::SolveError> {
//! let mut a = Matrix::zeros(2, 2);
//! a[(0, 0)] = 2.0;
//! a[(0, 1)] = 1.0;
//! a[(1, 0)] = 1.0;
//! a[(1, 1)] = 3.0;
//! let lu = LuFactors::factor(a)?;
//! let x = lu.solve(&[3.0, 4.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod interp;
pub mod lanes;
pub mod linsolve;
pub mod matrix;
pub mod parallel;
pub mod rng;
pub mod simd;
pub mod sparse;
pub mod stats;
pub mod units;

pub use linsolve::{LuFactors, SolveError};
pub use matrix::Matrix;
pub use sparse::{
    AnalyzeOptions, BatchedLu, OrderingStrategy, Scaling, SolverStats, SparseLu, SparseMatrix,
    SymbolicCache, SymbolicLu,
};
pub use stats::Summary;
