//! Structure-aware sparse linear algebra for MNA systems.
//!
//! Modified-nodal-analysis matrices are extremely sparse: every circuit
//! element touches a handful of entries, so a ring-oscillator system with
//! `n` unknowns has O(n) nonzeros, not O(n²). Crucially, the *pattern* of
//! those nonzeros is fixed by the netlist topology — Newton iterations,
//! time steps and Monte-Carlo samples only change the *values*. This
//! module exploits that with a staged, KLU-style kernel:
//!
//! 1. **BTF decomposition** (`btf.rs`, Dulmage–Mendelsohn-style maximum
//!    matching + Tarjan SCC condensation) permutes the matrix to block
//!    lower triangular form, so each irreducible diagonal block factors
//!    independently and the off-diagonal blocks never fill in,
//! 2. **fill-reducing ordering** (`order.rs`, minimum degree with
//!    deterministic tie-breaking) reorders each diagonal block,
//! 3. **equilibration scaling** (`scale.rs`, optional, powers of two)
//!    tames badly-conditioned Jacobians without perturbing mantissas,
//! 4. **partial-pivot analysis** ([`SymbolicLu`], left-looking
//!    Gilbert–Peierls with threshold pivoting) fixes the pivot order and
//!    the exact fill pattern once per topology, after which
//!    [`SparseLu::refactor`] recomputes the numeric factors at
//!    O(nnz(LU)) per Newton iteration.
//!
//! [`BatchedLu`] runs `k` lane-interleaved value sets over one shared
//! analysis, and [`SymbolicCache`] shares analyses across the runs of a
//! deterministic scope. [`SolverStats`] threads work counters from the
//! linear solver up to the Monte-Carlo harness.
//!
//! See `SOLVER.md` at the repository root for the full architecture
//! (stage complexities, cache invalidation rules, fallback ladder) and
//! `PERFORMANCE.md` for the measured cost model.

mod batched;
mod btf;
mod cache;
mod numeric;
mod order;
mod scale;
mod stats;
mod symbolic;

pub use batched::BatchedLu;
pub use cache::SymbolicCache;
pub use numeric::SparseLu;
pub use scale::{Scaling, AUTO_SPREAD};
pub use stats::SolverStats;
pub use symbolic::{AnalyzeOptions, OrderingStrategy, SymbolicLu};

use crate::matrix::Matrix;
use crate::simd::{self, LaneCount, LaneKernel, Simd};

/// Pivots with magnitude below this are treated as numerically singular.
pub(crate) const PIVOT_EPS: f64 = 1e-300;

/// Refactorization declares pivot drift (and triggers a fresh analysis)
/// when an elimination multiplier exceeds this bound. Threshold pivoting
/// guarantees multipliers of at most `1 / PARTIAL_PIVOT_TAU` at analysis
/// time; a multiplier nine orders beyond that means the values have
/// drifted so far that the reused pivot order no longer bounds element
/// growth — and that a fresh analysis would pick a different pivot
/// (the oversized multiplier is itself a better candidate).
pub(crate) const PIVOT_GROWTH_LIMIT: f64 = 1e12;

/// A square sparse matrix in compressed sparse row (CSR) form.
///
/// Built once from the coordinate list of an assembly pass; afterwards
/// the pattern is frozen and values are updated in place through the
/// slot indices returned by [`SparseMatrix::from_coords`].
///
/// # Examples
///
/// ```
/// use rotsv_num::sparse::SparseMatrix;
///
/// // | 2 1 |   coordinate list in stamp order, duplicates accumulate
/// // | 1 3 |
/// let coords = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0)];
/// let (mut a, slots) = SparseMatrix::from_coords(2, &coords);
/// for (k, &v) in [1.0, 1.0, 1.0, 3.0, 1.0].iter().enumerate() {
///     a.add_slot(slots[k], v); // the two (0,0) stamps accumulate to 2
/// }
/// assert_eq!(a.get(0, 0), 2.0);
/// assert_eq!(a.nnz(), 4);
/// assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    pub(crate) n: usize,
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<usize>,
    pub(crate) values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds the pattern of an `n × n` matrix from a coordinate list and
    /// returns, for every coordinate occurrence, the index of its value
    /// slot (duplicates map to the same slot and accumulate under
    /// [`SparseMatrix::add_slot`]).
    ///
    /// Values start at zero.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn from_coords(n: usize, coords: &[(usize, usize)]) -> (Self, Vec<usize>) {
        for &(i, j) in coords {
            assert!(
                i < n && j < n,
                "coordinate ({i}, {j}) out of range for n = {n}"
            );
        }
        // Count unique entries per row via sort-free bucketing.
        let mut per_row: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(i, j) in coords {
            per_row[i].push(j);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for cols in &mut per_row {
            cols.sort_unstable();
            cols.dedup();
            col_idx.extend_from_slice(cols);
            row_ptr.push(col_idx.len());
        }
        let values = vec![0.0; col_idx.len()];
        let m = Self {
            n,
            row_ptr,
            col_idx,
            values,
        };
        let slots = coords
            .iter()
            .map(|&(i, j)| m.slot_of(i, j).expect("coordinate was just inserted"))
            .collect();
        (m, slots)
    }

    /// Builds a matrix from explicit `(row, col, value)` triplets
    /// (duplicates accumulate). Convenience for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let coords: Vec<(usize, usize)> = triplets.iter().map(|&(i, j, _)| (i, j)).collect();
        let (mut m, slots) = Self::from_coords(n, &coords);
        for (k, &(_, _, v)) in triplets.iter().enumerate() {
            m.add_slot(slots[k], v);
        }
        m
    }

    /// Dimension of the (square) matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Resets every stored value to zero, keeping the pattern.
    pub fn zero_values(&mut self) {
        self.values.fill(0.0);
    }

    /// Adds `v` into value slot `slot` (an index from
    /// [`SparseMatrix::from_coords`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn add_slot(&mut self, slot: usize, v: f64) {
        self.values[slot] += v;
    }

    /// The stored values in slot order (parallel to the CSR pattern).
    ///
    /// Callers can snapshot and compare this to detect that a matrix has
    /// not changed since it was last factored.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value slot storing entry `(i, j)`, if the pattern contains it.
    pub fn slot_of(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .binary_search(&j)
            .ok()
            .map(|off| lo + off)
    }

    /// The value at `(i, j)`; zero when outside the pattern.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.slot_of(i, j).map_or(0.0, |s| self.values[s])
    }

    /// Sparse matrix–vector product `y = A·x` into a caller buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` length does not match the dimension.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "vector length mismatch");
        assert_eq!(y.len(), self.n, "output length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
    }

    /// Sparse matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the dimension.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Lane-batched sparse matrix–vector product over `k` lanes sharing
    /// this matrix's sparsity pattern.
    ///
    /// `values` holds the nonzeros lane-interleaved (`values[s*k + lane]`
    /// is slot `s` of lane `lane`), as does `x` per row and `y` on
    /// output. The lane loop is innermost and runs on the widest SIMD
    /// arm the lane count allows ([`simd::dispatch`]); this is the
    /// residual kernel of the batched Newton solver.
    ///
    /// # Panics
    ///
    /// Panics if `values`, `x` or `y` lengths do not match
    /// `nnz()*k` / `n*k` / `n*k`.
    pub fn mul_vec_lanes_into(&self, values: &[f64], k: usize, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            values.len(),
            self.values.len() * k,
            "values length mismatch"
        );
        assert_eq!(x.len(), self.n * k, "vector length mismatch");
        assert_eq!(y.len(), self.n * k, "output length mismatch");
        simd::dispatch(
            k,
            MulVecLanes {
                a: self,
                values,
                x,
                y,
            },
        );
    }

    /// Densifies into a [`Matrix`] (for tests and reference solves).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] = self.values[k];
            }
        }
        m
    }

    /// Row `i` as parallel `(col_idx, values)` slices (test helper).
    #[cfg(test)]
    pub(crate) fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }
}

/// The lane-batched SpMV as a [`LaneKernel`]: `k` lanes in `k / S::W`
/// vector chunks, each lane accumulating its row in ascending slot
/// order, so results are bit-identical across arms and lane counts.
struct MulVecLanes<'a> {
    a: &'a SparseMatrix,
    values: &'a [f64],
    x: &'a [f64],
    y: &'a mut [f64],
}

impl LaneKernel for MulVecLanes<'_> {
    type Output = ();

    fn at<N: LaneCount>(self, n: N) {
        mul_vec_lanes_at(n, self.a, self.values, self.x, self.y);
    }

    /// # Safety
    ///
    /// The [`LaneKernel::run`] contract; `n.get()` must match the
    /// interleave factor of `values`/`x`/`y` (checked by
    /// [`SparseMatrix::mul_vec_lanes_into`]).
    #[inline(always)]
    unsafe fn run<N: LaneCount, S: Simd>(self, n: N) {
        let k = n.get();
        debug_assert_eq!(k % S::W, 0);
        let a = self.a;
        let vp = self.values.as_ptr();
        let xpt = self.x.as_ptr();
        let yp = self.y.as_mut_ptr();
        // SAFETY (whole body): slot/row indices are bounds the public
        // entry point asserted; chunks stay inside each lane group.
        unsafe {
            for i in 0..a.n {
                for c in (0..k).step_by(S::W) {
                    let mut acc = S::splat(0.0);
                    for s in a.row_ptr[i]..a.row_ptr[i + 1] {
                        let col = a.col_idx[s];
                        acc = S::add(
                            acc,
                            S::mul(S::ld(vp.add(s * k + c)), S::ld(xpt.add(col * k + c))),
                        );
                    }
                    S::st(yp.add(i * k + c), acc);
                }
            }
        }
    }
}

/// [`MulVecLanes`] at one lane count, its slices as parameters (see
/// [`LaneKernel::at`]).
#[inline(never)]
fn mul_vec_lanes_at<N: LaneCount>(
    n: N,
    a: &SparseMatrix,
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    simd::arm(n, MulVecLanes { a, values, x, y });
}

#[cfg(test)]
mod tests;
