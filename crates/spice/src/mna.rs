//! Modified Nodal Analysis: the stamp layout shared by every analysis,
//! and the Newton settings.
//!
//! Unknown ordering: `x = [v(node 1), …, v(node N−1), i(branch 0), …]`.
//!
//! The MNA matrix of a fixed netlist has a fixed sparsity pattern — Newton
//! iterations, time steps and Monte-Carlo samples only change the values.
//! `stamp_coords` therefore walks the element list once to record the
//! stamp coordinates; the lane engine ([`crate::batch`]) builds a
//! [`SparseMatrix`](rotsv_num::sparse::SparseMatrix) from them and keeps
//! the per-stamp value-slot sequence, and every assembly replays exactly
//! that sequence, writing values straight into the CSR slots with no
//! searching. (Capacitors are open at DC but still stamp a zero
//! conductance, precisely so the replayed sequence is the one the walk
//! recorded.)
//!
//! Newton is formulated in **delta form**: it solves
//! `J·Δ = b(x) − A(x)·x` and updates `x += Δ`. Because the right-hand side
//! is the true residual of the linearized system, the factorization of `J`
//! may be *stale* (reused from an earlier iteration or even an earlier
//! time step) without changing the fixed point — only the convergence
//! rate. The transient exploits this: `NewtonOpts::max_stale` bounds
//! the reuse and a residual stall check triggers an early refresh, giving
//! modified-Newton savings on the smooth stretches and full-Newton
//! robustness on the switching edges. The DC operating point runs the
//! same Newton pass with `max_stale = 0`, refactoring every iteration.

use crate::circuit::{Circuit, Element};
use crate::node::NodeId;

/// MNA row of `node`'s voltage unknown; `None` for ground.
#[inline]
pub(crate) fn row_of(node: NodeId) -> Option<usize> {
    if node.is_ground() {
        None
    } else {
        Some(node.index() - 1)
    }
}

/// Emits the coordinates of a two-terminal conductance stamp in the order
/// the lane engine's assembly writes their values.
fn conductance_coords(a: NodeId, b: NodeId, coords: &mut Vec<(usize, usize)>) {
    match (row_of(a), row_of(b)) {
        (Some(ra), Some(rb)) => {
            coords.push((ra, ra));
            coords.push((rb, rb));
            coords.push((ra, rb));
            coords.push((rb, ra));
        }
        (Some(ra), None) => coords.push((ra, ra)),
        (None, Some(rb)) => coords.push((rb, rb)),
        (None, None) => {}
    }
}

/// One topology walk recording every stamp coordinate in the exact
/// order the lane engine's assembly replays produce values.
pub(crate) fn stamp_coords(ckt: &Circuit) -> Vec<(usize, usize)> {
    let n_nodes = ckt.node_count() - 1;
    let mut coords = Vec::new();
    for i in 0..n_nodes {
        coords.push((i, i)); // gmin shunt
    }
    for elem in &ckt.elements {
        match elem {
            Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                conductance_coords(*a, *b, &mut coords);
            }
            Element::VSource {
                pos, neg, branch, ..
            } => {
                let rb = n_nodes + branch;
                if let Some(rp) = row_of(*pos) {
                    coords.push((rp, rb));
                    coords.push((rb, rp));
                }
                if let Some(rn) = row_of(*neg) {
                    coords.push((rn, rb));
                    coords.push((rb, rn));
                }
            }
            Element::ISource { .. } => {}
            Element::Nonlinear(dev) => {
                for &nk in dev.nodes() {
                    let Some(rk) = row_of(nk) else { continue };
                    for &nj in dev.nodes() {
                        if let Some(cj) = row_of(nj) {
                            coords.push((rk, cj));
                        }
                    }
                }
            }
        }
    }
    coords
}

/// Newton settings of the lane engine's one Newton pass, for the
/// transient and the DC operating point alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewtonOpts {
    pub max_iterations: usize,
    /// Absolute voltage tolerance, volts.
    pub v_abstol: f64,
    /// Relative tolerance on all unknowns.
    pub reltol: f64,
    /// Largest per-iteration node-voltage move before the update is scaled
    /// down (keeps exponential devices from overshooting).
    pub v_step_limit: f64,
    /// Modified-Newton budget: how many iterations may reuse a stale
    /// Jacobian factorization before a refresh is forced. `0` recovers
    /// classic full Newton (refactor every iteration), which the DC
    /// operating point uses.
    pub max_stale: usize,
}

impl Default for NewtonOpts {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            v_abstol: 1e-6,
            reltol: 1e-4,
            v_step_limit: 0.5,
            max_stale: 6,
        }
    }
}

/// A stale factorization is refreshed early when the residual norm fails
/// to shrink by at least this factor between iterations.
pub(crate) const STALL_RATIO: f64 = 0.3;
