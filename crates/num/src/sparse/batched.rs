//! Lane-batched numeric stage: `k` value sets factored and solved in
//! lockstep over one shared symbolic analysis.

use std::sync::Arc;

use crate::linsolve::SolveError;
use crate::simd::{self, LaneCount, LaneKernel, Simd};

use super::symbolic::SymbolicLu;
use super::{SparseMatrix, PIVOT_EPS, PIVOT_GROWTH_LIMIT};

/// A lane-batched sparse LU: one shared symbolic analysis, `k`
/// lane-interleaved value sets factored and solved in lockstep.
///
/// Storage is lane-interleaved (`values[slot * k + lane]`) so the
/// per-slot elimination and substitution loops run over contiguous
/// lanes as SIMD vectors ([`simd::dispatch`]). All lanes share the permutations, scaling
/// and pivot order of the analysis; when one lane's values make that
/// order unusable, the batch transparently re-analyzes from the
/// offending lane — under the same [`AnalyzeOptions`](super::AnalyzeOptions),
/// valid for every lane because the pattern is shared — and reports the
/// number of analyses spent.
///
/// # Examples
///
/// ```
/// use rotsv_num::sparse::{BatchedLu, SparseMatrix, SymbolicLu};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), rotsv_num::linsolve::SolveError> {
/// let a = SparseMatrix::from_triplets(2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 1, 2.0)]);
/// let sym = Arc::new(SymbolicLu::analyze(&a)?);
/// let mut lu = BatchedLu::new(sym, 2);
/// // Lane-interleaved values for two lanes: lane 0 = a, lane 1 = 2a.
/// let vals: Vec<f64> = a.values().iter().flat_map(|&v| [v, 2.0 * v]).collect();
/// lu.refactor(&a, &vals)?;
/// let mut b = vec![5.0, 10.0, 2.0, 4.0]; // rhs per lane, interleaved
/// lu.solve_in_place(&mut b);
/// assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 1.0).abs() < 1e-12);
/// assert!((b[2] - 1.0).abs() < 1e-12 && (b[3] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchedLu {
    sym: Arc<SymbolicLu>,
    k: usize,
    /// Block-diagonal `L + U` values, lane-interleaved.
    lu_values: Vec<f64>,
    /// Scaled below-block values, lane-interleaved.
    off_values: Vec<f64>,
    /// `n * k` dense scatter workspace.
    work: Vec<f64>,
    /// `k` per-lane multiplier-growth maximum of the row being gathered.
    lrow: Vec<f64>,
    /// `n * k` scratch for the permuted solve.
    xbuf: Vec<f64>,
    /// `lu.numeric` timing handle, resolved once at construction;
    /// `None` when metrics were disabled then (the sweep paths pay one
    /// `Option` check).
    numeric_hist: Option<Arc<rotsv_obs::Histogram>>,
}

impl BatchedLu {
    /// Creates a batched factorization of `k` lanes over a shared
    /// symbolic analysis. Values are supplied per [`BatchedLu::refactor`].
    pub fn new(sym: Arc<SymbolicLu>, k: usize) -> Self {
        assert!(k > 0, "a batch needs at least one lane");
        Self {
            k,
            lu_values: vec![0.0; sym.lu_col_idx.len() * k],
            off_values: vec![0.0; sym.off_col_idx.len() * k],
            work: vec![0.0; sym.n * k],
            lrow: vec![0.0; k],
            xbuf: vec![0.0; sym.n * k],
            sym,
            numeric_hist: rotsv_obs::metrics_enabled().then(|| rotsv_obs::histogram("lu.numeric")),
        }
    }

    /// Records a numeric sweep's wall time into `lu.numeric` (drift
    /// re-analyses attribute to the `lu.*` stage histograms instead).
    /// `t0` comes from [`BatchedLu::sweep_clock`]; both are `None` when
    /// metrics were disabled at construction.
    fn observe_sweep(&self, t0: Option<std::time::Instant>) {
        if let (Some(hist), Some(t0)) = (&self.numeric_hist, t0) {
            hist.observe(t0.elapsed().as_secs_f64());
        }
    }

    /// Reads the clock only when the `lu.numeric` handle is live.
    fn sweep_clock(&self) -> Option<std::time::Instant> {
        self.numeric_hist
            .as_ref()
            .map(|_| std::time::Instant::now())
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.k
    }

    /// The shared symbolic analysis.
    pub fn symbolic(&self) -> &Arc<SymbolicLu> {
        &self.sym
    }

    /// Replaces the analysis after a pivot-drift re-analysis, resizing
    /// every value buffer to the new fill pattern.
    fn adopt(&mut self, sym: Arc<SymbolicLu>) {
        self.lu_values = vec![0.0; sym.lu_col_idx.len() * self.k];
        self.off_values = vec![0.0; sym.off_col_idx.len() * self.k];
        self.work = vec![0.0; sym.n * self.k];
        self.xbuf = vec![0.0; sym.n * self.k];
        self.sym = sym;
    }

    /// Rebuilds a scalar probe matrix from one lane's values and
    /// re-analyzes it under the batch's existing options.
    fn reanalyze_from_lane(
        &self,
        pattern: &SparseMatrix,
        values: &[f64],
        lane: usize,
    ) -> Result<Arc<SymbolicLu>, SolveError> {
        let mut probe = pattern.clone();
        probe.zero_values();
        for s in 0..pattern.nnz() {
            probe.add_slot(s, values[s * self.k + lane]);
        }
        Ok(Arc::new(SymbolicLu::analyze_with(&probe, self.sym.opts)?))
    }

    /// Refactors all lanes from `values` — `a.nnz() * k` lane-interleaved
    /// entries over `pattern`'s CSR slots. Returns the number of fresh
    /// symbolic analyses performed (0 on the fast path; ≥ 1 when pivot
    /// drift in some lane forced a shared re-analysis).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when a lane stays singular after
    /// re-analysis, [`SolveError::DimensionMismatch`] on a pattern of
    /// the wrong dimension.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != pattern.nnz() * lanes`.
    pub fn refactor(&mut self, pattern: &SparseMatrix, values: &[f64]) -> Result<u64, SolveError> {
        let _span = rotsv_obs::span!("lu_refactor_batch", "k" = self.k);
        assert_eq!(
            values.len(),
            pattern.nnz() * self.k,
            "lane-interleaved value length mismatch"
        );
        if pattern.dim() != self.sym.n {
            return Err(SolveError::DimensionMismatch {
                expected: self.sym.n,
                actual: pattern.dim(),
            });
        }
        let mut analyses = 0u64;
        loop {
            let t0 = self.sweep_clock();
            let k = self.k;
            let swept = simd::dispatch(
                k,
                RefactorSweep {
                    lu: self,
                    pattern,
                    values,
                },
            );
            self.observe_sweep(t0);
            match swept {
                Ok(()) => return Ok(analyses),
                Err((lane, SolveError::Singular { .. })) if analyses < 2 => {
                    // The shared pivot order failed for `lane`: re-analyze
                    // from that lane's values. The new order applies to
                    // every lane (the pattern is shared).
                    let sym = self.reanalyze_from_lane(pattern, values, lane)?;
                    analyses += 1;
                    self.adopt(sym);
                }
                Err((_, e)) => return Err(e),
            }
        }
    }

    /// Refactors only the lanes with `mask[lane] == true`, leaving every
    /// other lane's stored factors untouched. This is the entry point for
    /// asynchronous batched transients, where lanes request fresh factors
    /// at different iterations: each lane is swept by a scalar Doolittle
    /// pass with the same per-lane operation order as
    /// [`BatchedLu::refactor`], so a lane's factors are bit-identical no
    /// matter which other lanes factor alongside it.
    ///
    /// Returns `(analyses, invalidated)`: `analyses` counts fresh symbolic
    /// analyses; `invalidated` is `true` when pivot drift in a masked lane
    /// forced a shared re-analysis, which destroys the stored factors of
    /// every *unmasked* lane (the masked ones are refactored under the new
    /// pivot order before returning). The caller must then refresh the
    /// unmasked lanes before their next solve.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when a masked lane stays singular
    /// after re-analysis, [`SolveError::DimensionMismatch`] on a pattern
    /// of the wrong dimension.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != pattern.nnz() * lanes` or
    /// `mask.len() != lanes`.
    pub fn refactor_masked(
        &mut self,
        pattern: &SparseMatrix,
        values: &[f64],
        mask: &[bool],
    ) -> Result<(u64, bool), SolveError> {
        let _span = rotsv_obs::span!("lu_refactor_masked", "k" = self.k);
        assert_eq!(
            values.len(),
            pattern.nnz() * self.k,
            "lane-interleaved value length mismatch"
        );
        assert_eq!(mask.len(), self.k, "mask length mismatch");
        if pattern.dim() != self.sym.n {
            return Err(SolveError::DimensionMismatch {
                expected: self.sym.n,
                actual: pattern.dim(),
            });
        }
        let mut analyses = 0u64;
        let mut invalidated = false;
        'retry: loop {
            for (lane, &refresh) in mask.iter().enumerate() {
                if !refresh {
                    continue;
                }
                let t0 = self.sweep_clock();
                let swept = self.refactor_lane(pattern, values, lane);
                self.observe_sweep(t0);
                match swept {
                    Ok(()) => {}
                    Err(SolveError::Singular { .. }) if analyses < 2 => {
                        // The shared pivot order failed for `lane`:
                        // re-analyze from that lane's values. The new order
                        // applies to every lane, so all previously stored
                        // factors are gone.
                        let sym = self.reanalyze_from_lane(pattern, values, lane)?;
                        analyses += 1;
                        invalidated = true;
                        self.adopt(sym);
                        continue 'retry;
                    }
                    Err(e) => return Err(e),
                }
            }
            return Ok((analyses, invalidated));
        }
    }

    /// Scalar Doolittle sweep of a single lane over the strided storage.
    /// Per-lane operation order matches [`BatchedLu::refactor_sweep_body`]
    /// exactly (scatter row `perm[i]` through the analysis map, eliminate
    /// in-block columns `j < i` in ascending order, gather, pivot check),
    /// so the lane's factors are bit-identical to a full-batch refactor
    /// of the same values.
    fn refactor_lane(
        &mut self,
        pattern: &SparseMatrix,
        values: &[f64],
        lane: usize,
    ) -> Result<(), SolveError> {
        let sym = Arc::clone(&self.sym);
        let k = self.k;
        for i in 0..sym.n {
            let (lo, hi) = (sym.lu_row_ptr[i], sym.lu_row_ptr[i + 1]);
            for s in lo..hi {
                self.work[sym.lu_col_idx[s] * k + lane] = 0.0;
            }
            // Scatter row perm[i] of A (this lane only) through the
            // analysis map: scale, then route in-block or off-block.
            let abase = pattern.row_ptr[sym.perm[i]];
            for (t, q) in (sym.amap_ptr[i]..sym.amap_ptr[i + 1]).enumerate() {
                let v = values[(abase + t) * k + lane] * sym.amap_scale[q];
                let dest = sym.amap_dest[q];
                if dest & 1 == 0 {
                    self.work[(dest >> 1) * k + lane] = v;
                } else {
                    self.off_values[(dest >> 1) * k + lane] = v;
                }
            }
            // Eliminate in-block columns j < i in ascending order.
            for s in lo..sym.diag_slot[i] {
                let j = sym.lu_col_idx[s];
                let l = self.work[j * k + lane] / self.lu_values[sym.diag_slot[j] * k + lane];
                self.work[j * k + lane] = l;
                for m in (sym.diag_slot[j] + 1)..sym.lu_row_ptr[j + 1] {
                    self.work[sym.lu_col_idx[m] * k + lane] -= l * self.lu_values[m * k + lane];
                }
            }
            // Gather the finished row, accumulating the multiplier
            // growth in the same pass (the slots left of the diagonal
            // hold the row's L multipliers), then check the pivot.
            let mut lmax = 0.0f64;
            for s in lo..sym.diag_slot[i] {
                let v = self.work[sym.lu_col_idx[s] * k + lane];
                self.lu_values[s * k + lane] = v;
                let a = v.abs();
                lmax = if a > lmax { a } else { lmax };
            }
            for s in sym.diag_slot[i]..hi {
                self.lu_values[s * k + lane] = self.work[sym.lu_col_idx[s] * k + lane];
            }
            let piv = self.lu_values[sym.diag_slot[i] * k + lane].abs();
            if piv <= PIVOT_EPS || !piv.is_finite() || lmax > PIVOT_GROWTH_LIMIT {
                return Err(SolveError::Singular { column: i });
            }
        }
        Ok(())
    }

    /// One Doolittle sweep over all lanes, failing with the first lane
    /// whose pivot is unusable: `k` lanes in `k / S::W` vector chunks.
    /// Per-lane arithmetic and ordering are exactly those of
    /// [`BatchedLu::refactor_lane`]; the multiplier-growth maximum is
    /// accumulated in `lrow` during the L-part gather (one pass,
    /// select-form max), and the pivot acceptance check stays scalar so
    /// error classification is identical in every arm.
    ///
    /// # Safety
    ///
    /// The [`LaneKernel::run`] contract, with `n.get() == self.k`.
    #[inline(always)]
    unsafe fn refactor_sweep_body<N: LaneCount, S: Simd>(
        &mut self,
        n: N,
        pattern: &SparseMatrix,
        values: &[f64],
    ) -> Result<(), (usize, SolveError)> {
        let k = n.get();
        debug_assert_eq!(self.k, k);
        debug_assert_eq!(k % S::W, 0);
        debug_assert_eq!(values.len(), pattern.nnz() * k);
        let sym = Arc::clone(&self.sym);
        let wp = self.work.as_mut_ptr();
        let lup = self.lu_values.as_mut_ptr();
        let offp = self.off_values.as_mut_ptr();
        let lmp = self.lrow.as_mut_ptr();
        let vp = values.as_ptr();
        // SAFETY (whole body): all indices come from the symbolic
        // analysis, which the constructor sized every buffer against;
        // chunks stay inside `slot * k + k` because `k % S::W == 0`.
        unsafe {
            let zero = S::splat(0.0);
            for i in 0..sym.n {
                let (lo, hi) = (sym.lu_row_ptr[i], sym.lu_row_ptr[i + 1]);
                for s in lo..hi {
                    let base = sym.lu_col_idx[s] * k;
                    for c in (0..k).step_by(S::W) {
                        S::st(wp.add(base + c), zero);
                    }
                }
                // Scatter row perm[i] of A (all lanes at once) through
                // the analysis map.
                let abase = pattern.row_ptr[sym.perm[i]];
                for (t, q) in (sym.amap_ptr[i]..sym.amap_ptr[i + 1]).enumerate() {
                    let sc = S::splat(sym.amap_scale[q]);
                    let src = (abase + t) * k;
                    let dest = sym.amap_dest[q];
                    let dst = (dest >> 1) * k;
                    let out = if dest & 1 == 0 { wp } else { offp };
                    for c in (0..k).step_by(S::W) {
                        let v = S::mul(S::ld(vp.add(src + c)), sc);
                        S::st(out.add(dst + c), v);
                    }
                }
                // Eliminate in-block columns j < i in ascending order,
                // lanes in lockstep (chunk-outer keeps the multiplier in
                // a register across the update row).
                for s in lo..sym.diag_slot[i] {
                    let j = sym.lu_col_idx[s];
                    let dj = sym.diag_slot[j] * k;
                    let jb = j * k;
                    let m_lo = sym.diag_slot[j] + 1;
                    let m_hi = sym.lu_row_ptr[j + 1];
                    for c in (0..k).step_by(S::W) {
                        let l = S::div(S::ld(wp.add(jb + c)), S::ld(lup.add(dj + c)));
                        S::st(wp.add(jb + c), l);
                        for m in m_lo..m_hi {
                            let dst = sym.lu_col_idx[m] * k + c;
                            let cur = S::ld(wp.add(dst));
                            S::st(
                                wp.add(dst),
                                S::sub(cur, S::mul(l, S::ld(lup.add(m * k + c)))),
                            );
                        }
                    }
                }
                // Gather the finished row; the L part accumulates the
                // per-lane multiplier growth in `lrow` in the same pass.
                let dsl = sym.diag_slot[i];
                for c in (0..k).step_by(S::W) {
                    S::st(lmp.add(c), zero);
                }
                for s in lo..dsl {
                    let src = sym.lu_col_idx[s] * k;
                    let dst = s * k;
                    for c in (0..k).step_by(S::W) {
                        let v = S::ld(wp.add(src + c));
                        S::st(lup.add(dst + c), v);
                        let acc = S::ld(lmp.add(c));
                        S::st(lmp.add(c), S::max_sel(S::abs(v), acc));
                    }
                }
                for s in dsl..hi {
                    let src = sym.lu_col_idx[s] * k;
                    let dst = s * k;
                    for c in (0..k).step_by(S::W) {
                        S::st(lup.add(dst + c), S::ld(wp.add(src + c)));
                    }
                }
                // Scalar pivot acceptance, identical in every arm. Reads
                // go through the same raw pointer as the writes so the
                // pointer's provenance stays valid for the next row.
                let dslot = dsl * k;
                for lane in 0..k {
                    let lm = *lmp.add(lane);
                    let piv = (*lup.add(dslot + lane)).abs();
                    if piv <= PIVOT_EPS || !piv.is_finite() || lm > PIVOT_GROWTH_LIMIT {
                        return Err((lane, SolveError::Singular { column: i }));
                    }
                }
            }
        }
        Ok(())
    }

    /// Solves all lanes in place: `b` holds `n * k` lane-interleaved
    /// right-hand sides on entry and the solutions on return.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim * lanes`.
    pub fn solve_in_place(&mut self, b: &mut [f64]) {
        let _span = rotsv_obs::span!("lu_solve_batch", "k" = self.k);
        assert_eq!(
            b.len(),
            self.sym.n * self.k,
            "lane-interleaved rhs length mismatch"
        );
        let k = self.k;
        simd::dispatch(k, Solve { lu: self, b });
    }

    /// The substitution kernel: `k` lanes in `k / S::W` vector chunks,
    /// each row's lanes accumulated in vector registers across its inner
    /// loops instead of read-modify-write memory traffic per entry.
    ///
    /// # Safety
    ///
    /// The [`LaneKernel::run`] contract, with `n.get() == self.k`.
    #[inline(always)]
    unsafe fn solve_body<N: LaneCount, S: Simd>(&mut self, n: N, b: &mut [f64]) {
        let k = n.get();
        debug_assert_eq!(self.k, k);
        debug_assert_eq!(k % S::W, 0);
        debug_assert_eq!(b.len(), self.sym.n * k);
        let sym = Arc::clone(&self.sym);
        let xp = self.xbuf.as_mut_ptr();
        let lup = self.lu_values.as_ptr();
        let offp = self.off_values.as_ptr();
        let bp = b.as_mut_ptr();
        // SAFETY (whole body): indices come from the symbolic analysis
        // the buffers were sized against; `k % S::W == 0` keeps chunks
        // inside each slot's lane group.
        unsafe {
            // Permute and row-scale the right-hand sides.
            for i in 0..sym.n {
                let r = sym.perm[i];
                let rs = S::splat(sym.row_scale[r]);
                for c in (0..k).step_by(S::W) {
                    S::st(xp.add(i * k + c), S::mul(S::ld(bp.add(r * k + c)), rs));
                }
            }
            for bidx in 0..sym.block_ptr.len() - 1 {
                let (bs, be) = (sym.block_ptr[bidx], sym.block_ptr[bidx + 1]);
                // Subtract the couplings to earlier (already solved)
                // blocks.
                for i in bs..be {
                    for c in (0..k).step_by(S::W) {
                        let mut acc = S::ld(xp.add(i * k + c));
                        for s in sym.off_row_ptr[i]..sym.off_row_ptr[i + 1] {
                            let col = sym.off_col_idx[s] * k + c;
                            acc =
                                S::sub(acc, S::mul(S::ld(offp.add(s * k + c)), S::ld(xp.add(col))));
                        }
                        S::st(xp.add(i * k + c), acc);
                    }
                }
                // Forward substitution with unit-diagonal L.
                for i in bs..be {
                    for c in (0..k).step_by(S::W) {
                        let mut acc = S::ld(xp.add(i * k + c));
                        for s in sym.lu_row_ptr[i]..sym.diag_slot[i] {
                            let col = sym.lu_col_idx[s] * k + c;
                            acc =
                                S::sub(acc, S::mul(S::ld(lup.add(s * k + c)), S::ld(xp.add(col))));
                        }
                        S::st(xp.add(i * k + c), acc);
                    }
                }
                // Back substitution with U.
                for i in (bs..be).rev() {
                    let d = sym.diag_slot[i] * k;
                    for c in (0..k).step_by(S::W) {
                        let mut acc = S::ld(xp.add(i * k + c));
                        for s in (sym.diag_slot[i] + 1)..sym.lu_row_ptr[i + 1] {
                            let col = sym.lu_col_idx[s] * k + c;
                            acc =
                                S::sub(acc, S::mul(S::ld(lup.add(s * k + c)), S::ld(xp.add(col))));
                        }
                        S::st(xp.add(i * k + c), S::div(acc, S::ld(lup.add(d + c))));
                    }
                }
            }
            // Undo the column permutation and scaling.
            for j in 0..sym.n {
                let col = sym.cperm[j];
                let cs = S::splat(sym.col_scale[col]);
                for c in (0..k).step_by(S::W) {
                    S::st(bp.add(col * k + c), S::mul(cs, S::ld(xp.add(j * k + c))));
                }
            }
        }
    }
}

/// [`BatchedLu::refactor_sweep_body`] as a [`LaneKernel`].
struct RefactorSweep<'a> {
    lu: &'a mut BatchedLu,
    pattern: &'a SparseMatrix,
    values: &'a [f64],
}

impl LaneKernel for RefactorSweep<'_> {
    type Output = Result<(), (usize, SolveError)>;

    #[inline(always)]
    unsafe fn run<N: LaneCount, S: Simd>(self, n: N) -> Self::Output {
        // SAFETY: forwarded from `dispatch`; `n` is the batch's lane count.
        unsafe {
            self.lu
                .refactor_sweep_body::<N, S>(n, self.pattern, self.values)
        }
    }
}

/// [`BatchedLu::solve_body`] as a [`LaneKernel`].
struct Solve<'a> {
    lu: &'a mut BatchedLu,
    b: &'a mut [f64],
}

impl LaneKernel for Solve<'_> {
    type Output = ();

    #[inline(always)]
    unsafe fn run<N: LaneCount, S: Simd>(self, n: N) {
        // SAFETY: forwarded from `dispatch`; `n` is the batch's lane count.
        unsafe { self.lu.solve_body::<N, S>(n, self.b) }
    }
}
