//! The topology-keyed cache of symbolic analyses.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::linsolve::SolveError;

use super::symbolic::{AnalyzeOptions, SymbolicLu};
use super::SparseMatrix;

/// A process-scoped, topology-keyed cache of symbolic LU analyses.
///
/// Keyed by the exact CSR pattern `(n, row_ptr, col_idx)` *and* the
/// [`AnalyzeOptions`] of the analysis, so two matrices share an entry
/// iff they have the same topology and were analyzed the same way —
/// differently configured analyses (ordering, scaling) never mix. The
/// cache is deliberately *not* global: callers create one per
/// deterministic scope (e.g. one ΔT measurement, whose T1 and T2
/// transients share a netlist pattern) so that cache hits can never
/// depend on thread scheduling or leak between unrelated runs.
///
/// Sharing is numerically exact for the simulator's use: the first
/// factorization of every transient happens at the zero-voltage initial
/// Newton iterate, where the assembled matrix — and therefore the
/// permutations and scaling a fresh analysis would choose — is identical
/// for every run of the same netlist and die. A cached order that
/// nevertheless fails for some values is replaced inside the
/// factorization that holds it
/// ([`BatchedLu::refactor_masked`](super::BatchedLu::refactor_masked)
/// re-analyzes from the offending lane), never in the cache.
#[derive(Debug, Default)]
pub struct SymbolicCache {
    inner: Mutex<HashMap<PatternKey, Arc<SymbolicLu>>>,
}

#[derive(Debug, Hash, PartialEq, Eq)]
struct PatternKey {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    opts: AnalyzeOptions,
}

impl SymbolicCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct (topology, options) analyses so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").len()
    }

    /// `true` when no topology has been analyzed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached symbolic analysis for `a`'s pattern under
    /// [`AnalyzeOptions::default`], computing and inserting it on first
    /// use. The `bool` is `true` when this call performed the analysis
    /// (callers count it in
    /// [`SolverStats::symbolic_analyses`](super::SolverStats::symbolic_analyses)).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when a required fresh analysis
    /// finds no usable pivot. Failed analyses are not cached.
    pub fn symbolic_for(&self, a: &SparseMatrix) -> Result<(Arc<SymbolicLu>, bool), SolveError> {
        self.symbolic_for_with(a, AnalyzeOptions::default())
    }

    /// [`SymbolicCache::symbolic_for`] with explicit [`AnalyzeOptions`]
    /// (part of the cache key).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when a required fresh analysis
    /// finds no usable pivot. Failed analyses are not cached.
    pub fn symbolic_for_with(
        &self,
        a: &SparseMatrix,
        opts: AnalyzeOptions,
    ) -> Result<(Arc<SymbolicLu>, bool), SolveError> {
        let key = PatternKey {
            n: a.dim(),
            row_ptr: a.row_ptr.clone(),
            col_idx: a.col_idx.clone(),
            opts,
        };
        let mut inner = self.inner.lock().expect("cache lock");
        if let Some(sym) = inner.get(&key) {
            return Ok((Arc::clone(sym), false));
        }
        let sym = Arc::new(SymbolicLu::analyze_with(a, opts)?);
        inner.insert(key, Arc::clone(&sym));
        Ok((sym, true))
    }
}
