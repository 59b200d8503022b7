//! Modified Nodal Analysis: the stamp layout shared by every analysis,
//! and the DC assembly and Newton iteration of the operating point.
//!
//! Unknown ordering: `x = [v(node 1), …, v(node N−1), i(branch 0), …]`.
//!
//! The MNA matrix of a fixed netlist has a fixed sparsity pattern — Newton
//! iterations, time steps and Monte-Carlo samples only change the values.
//! `stamp_coords` therefore walks the element list once to record the
//! stamp coordinates; `MnaWorkspace::new` (and the lane engine) build a
//! [`SparseMatrix`] from them and keep the per-stamp value-slot
//! sequence. Every subsequent `MnaWorkspace::assemble` replays exactly
//! that sequence through a cursor, writing values straight into the CSR
//! slots with no searching. (Capacitors are open at DC but still stamp
//! a zero conductance, precisely so the replayed sequence is the one the
//! walk recorded.)
//!
//! Newton is formulated in **delta form**: it solves
//! `J·Δ = b(x) − A(x)·x` and updates `x += Δ`. Because the right-hand side
//! is the true residual of the linearized system, the factorization of `J`
//! may be *stale* (reused from an earlier iteration or even an earlier
//! time step) without changing the fixed point — only the convergence
//! rate. The lane engine's transient Newton exploits this:
//! `NewtonOpts::max_stale` bounds the reuse and a residual stall check
//! triggers an early refresh, giving modified-Newton savings on the
//! smooth stretches and full-Newton robustness on the switching edges.
//! The DC Newton here refactors every iteration (see `newton_solve`).

use std::sync::Arc;

use rotsv_num::sparse::{AnalyzeOptions, SolverStats, SparseLu, SparseMatrix, SymbolicCache};

use crate::circuit::{Circuit, Element};
use crate::device::DeviceStamp;
use crate::error::SpiceError;
use crate::node::NodeId;

/// Reusable workspace for repeated DC assembly/solve cycles.
///
/// Owns the sparse matrix, the slot-replay sequence, the cached
/// [`SparseLu`] factorization and the [`SolverStats`] counters for
/// everything solved through it.
pub(crate) struct MnaWorkspace {
    a: SparseMatrix,
    b: Vec<f64>,
    /// Value-slot sequence in stamp order; `assemble` replays it.
    slots: Vec<usize>,
    stamps: Vec<DeviceStamp>,
    n_node_unknowns: usize,
    /// Cached factorization; `None` until the first Newton iteration.
    lu: Option<SparseLu>,
    /// Snapshot of the matrix values `lu` was computed from; a refactor
    /// request with identical values is a no-op (linear circuits hit this
    /// on every iteration).
    last_factored: Vec<f64>,
    /// Residual scratch buffer.
    resid: Vec<f64>,
    /// Topology-keyed symbolic-analysis cache inherited from the
    /// circuit; `None` keeps the workspace fully private.
    cache: Option<Arc<SymbolicCache>>,
    /// Analysis options inherited from the circuit; every analysis of
    /// this workspace's Jacobian (first factor and drift fallbacks) uses
    /// them.
    opts: AnalyzeOptions,
    /// Work counters, accumulated across every solve through this
    /// workspace.
    pub stats: SolverStats,
}

/// Voltage of `node` under solution vector `x`.
#[inline]
pub(crate) fn node_voltage(x: &[f64], node: NodeId) -> f64 {
    if node.is_ground() {
        0.0
    } else {
        x[node.index() - 1]
    }
}

/// MNA row of `node`'s voltage unknown; `None` for ground.
#[inline]
pub(crate) fn row_of(node: NodeId) -> Option<usize> {
    if node.is_ground() {
        None
    } else {
        Some(node.index() - 1)
    }
}

/// Emits the coordinates of a two-terminal conductance stamp in the same
/// order [`MnaWorkspace::stamp_conductance`] writes values.
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
/// order the DC and lane-engine `assemble` replays produce values.
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

impl MnaWorkspace {
    pub fn new(ckt: &Circuit) -> Self {
        let n = ckt.unknown_count();
        let n_nodes = ckt.node_count() - 1;
        let stamps: Vec<DeviceStamp> = ckt
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::Nonlinear(d) => Some(DeviceStamp::new(d.nodes().len())),
                _ => None,
            })
            .collect();

        let coords = stamp_coords(ckt);
        let (a, slots) = SparseMatrix::from_coords(n, &coords);

        Self {
            a,
            b: vec![0.0; n],
            slots,
            stamps,
            n_node_unknowns: n_nodes,
            lu: None,
            last_factored: Vec::new(),
            resid: vec![0.0; n],
            cache: ckt.symbolic_cache().cloned(),
            opts: ckt.solver_options(),
            stats: SolverStats::default(),
        }
    }

    /// Assembles the DC system `A` and `b` at iterate `x`: capacitors
    /// open, independent sources at their t = 0 values scaled by `alpha`
    /// (used by source stepping), and an extra node-to-ground
    /// conductance `gmin`.
    pub fn assemble(&mut self, ckt: &Circuit, x: &[f64], alpha: f64, gmin: f64) {
        let n_nodes = self.n_node_unknowns;
        self.a.zero_values();
        self.b.fill(0.0);
        let mut cursor = 0usize;
        // gmin from every node to ground.
        for _ in 0..n_nodes {
            self.a.add_slot(self.slots[cursor], gmin);
            cursor += 1;
        }
        let mut dev_idx = 0usize;
        for elem in &ckt.elements {
            match elem {
                Element::Resistor { a, b, ohms } => {
                    cursor = self.stamp_conductance(cursor, *a, *b, 1.0 / ohms);
                }
                Element::Capacitor { a, b, .. } => {
                    // Open at DC, but stamped as a zero conductance so the
                    // slot replay stays aligned.
                    cursor = self.stamp_conductance(cursor, *a, *b, 0.0);
                }
                Element::VSource {
                    pos,
                    neg,
                    wave,
                    branch,
                } => {
                    let rb = n_nodes + branch;
                    if row_of(*pos).is_some() {
                        self.a.add_slot(self.slots[cursor], 1.0);
                        self.a.add_slot(self.slots[cursor + 1], 1.0);
                        cursor += 2;
                    }
                    if row_of(*neg).is_some() {
                        self.a.add_slot(self.slots[cursor], -1.0);
                        self.a.add_slot(self.slots[cursor + 1], -1.0);
                        cursor += 2;
                    }
                    self.b[rb] = alpha * wave.value(0.0);
                }
                Element::ISource { from, to, wave } => {
                    let i = alpha * wave.value(0.0);
                    if let Some(rf) = row_of(*from) {
                        self.b[rf] -= i;
                    }
                    if let Some(rt) = row_of(*to) {
                        self.b[rt] += i;
                    }
                }
                Element::Nonlinear(dev) => {
                    let stamp = &mut self.stamps[dev_idx];
                    dev_idx += 1;
                    stamp.clear();
                    let nodes = dev.nodes();
                    let v: Vec<f64> = nodes.iter().map(|&n| node_voltage(x, n)).collect();
                    dev.eval(&v, stamp);
                    // Norton linearization: I(v) ≈ I0 + G·(v − v0)
                    // ⇒ stamp G on the LHS and (G·v0 − I0) on the RHS.
                    for (k, &nk) in nodes.iter().enumerate() {
                        let Some(rk) = row_of(nk) else { continue };
                        let mut rhs = -stamp.current[k];
                        for (j, &nj) in nodes.iter().enumerate() {
                            let g = stamp.jacobian[(k, j)];
                            rhs += g * v[j];
                            if row_of(nj).is_some() {
                                self.a.add_slot(self.slots[cursor], g);
                                cursor += 1;
                            }
                        }
                        self.b[rk] += rhs;
                    }
                }
            }
        }
        debug_assert_eq!(cursor, self.slots.len(), "stamp replay out of sync");
    }

    fn stamp_conductance(&mut self, mut cursor: usize, a: NodeId, b: NodeId, g: f64) -> usize {
        match (row_of(a), row_of(b)) {
            (Some(_), Some(_)) => {
                self.a.add_slot(self.slots[cursor], g);
                self.a.add_slot(self.slots[cursor + 1], g);
                self.a.add_slot(self.slots[cursor + 2], -g);
                self.a.add_slot(self.slots[cursor + 3], -g);
                cursor += 4;
            }
            (Some(_), None) | (None, Some(_)) => {
                self.a.add_slot(self.slots[cursor], g);
                cursor += 1;
            }
            (None, None) => {}
        }
        cursor
    }

    /// (Re)factors the current matrix values, reusing the symbolic
    /// analysis and pivot order when available.
    fn refactor(&mut self) -> Result<(), SpiceError> {
        if self.lu.is_some() && self.last_factored == self.a.values() {
            // The cached factorization is exact for these values.
            return Ok(());
        }
        let map_err = |source| SpiceError::SingularSystem { time: 0.0, source };
        match &mut self.lu {
            None => {
                // First factorization: go through the shared symbolic
                // cache when the circuit carries one, so same-topology
                // workspaces pay one analysis between them. The cache
                // reports how many fresh analyses this call performed
                // (0 on a hit), keeping the counters honest.
                let lu = match &self.cache {
                    Some(cache) => {
                        let (lu, analyses) =
                            cache.factor_with(&self.a, self.opts).map_err(map_err)?;
                        self.stats.symbolic_analyses += analyses;
                        lu
                    }
                    None => {
                        let lu = SparseLu::new_with(&self.a, self.opts).map_err(map_err)?;
                        self.stats.symbolic_analyses += 1;
                        lu
                    }
                };
                self.lu = Some(lu);
            }
            Some(lu) => {
                let reanalyzed = lu.refactor(&self.a).map_err(map_err)?;
                if reanalyzed {
                    self.stats.symbolic_analyses += 1;
                }
            }
        }
        self.stats.factorizations += 1;
        self.last_factored.clear();
        self.last_factored.extend_from_slice(self.a.values());
        Ok(())
    }
}

/// Newton settings, shared by the DC solve and the lane engine.
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
    /// Modified-Newton budget of the lane engine: how many iterations may
    /// reuse a stale Jacobian factorization before a refresh is forced.
    /// `0` recovers classic full Newton (refactor every iteration). The
    /// DC Newton ([`newton_solve`]) always refactors.
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

/// Runs DC Newton iterations from initial iterate `x`, assembling with
/// sources scaled by `alpha` and shunt `gmin`, until the update is below
/// tolerance.
///
/// Full Newton in delta form: every iteration refactors `J` at `x` and
/// solves `J·Δ = b − A·x`. DC solves start far from the solution (zero
/// vector, homotopy ramps), where a stale Jacobian can cycle instead of
/// converge, and DC is a negligible slice of every experiment. A linear
/// circuit still factors once: a refactor of unchanged values is
/// skipped.
///
/// Returns the converged solution or the iteration count at failure.
pub(crate) fn newton_solve(
    ws: &mut MnaWorkspace,
    ckt: &Circuit,
    mut x: Vec<f64>,
    alpha: f64,
    gmin: f64,
    opts: &NewtonOpts,
) -> Result<Vec<f64>, NewtonFailure> {
    let _span = rotsv_obs::span!("newton");
    let n_nodes = ckt.node_count() - 1;
    for iter in 0..opts.max_iterations {
        ws.stats.newton_iterations += 1;
        ws.assemble(ckt, &x, alpha, gmin);
        // Residual of the linearization at x: r = b − A·x.
        let n = x.len();
        let mut resid = std::mem::take(&mut ws.resid);
        ws.a.mul_vec_into(&x, &mut resid);
        for (ri, bi) in resid.iter_mut().zip(&ws.b) {
            *ri = bi - *ri;
        }
        if let Err(error) = ws.refactor() {
            ws.resid = resid;
            return Err(NewtonFailure {
                iterations: iter,
                error: Some(error),
            });
        }
        let lu = ws.lu.as_ref().expect("factorization exists after refactor");
        ws.stats.solves += 1;
        let delta = match lu.solve(&resid) {
            Ok(d) => d,
            Err(source) => {
                ws.resid = resid;
                return Err(NewtonFailure {
                    iterations: iter,
                    error: Some(SpiceError::SingularSystem { time: 0.0, source }),
                });
            }
        };
        ws.resid = resid;

        // Largest node-voltage move decides both damping and convergence.
        let mut max_dv = 0.0f64;
        for d in delta.iter().take(n_nodes) {
            max_dv = max_dv.max(d.abs());
        }
        if !delta.iter().all(|v| v.is_finite()) {
            return Err(NewtonFailure {
                iterations: iter,
                error: None,
            });
        }
        let mut converged = max_dv <= opts.v_abstol;
        if !converged {
            // Also allow relative convergence for large swings.
            converged = (0..n_nodes)
                .all(|i| delta[i].abs() <= opts.v_abstol + opts.reltol * (x[i] + delta[i]).abs());
        }
        if converged {
            for i in 0..n {
                x[i] += delta[i];
            }
            return Ok(x);
        }
        if max_dv > opts.v_step_limit {
            // Damped update: move only part of the way.
            let s = opts.v_step_limit / max_dv;
            for i in 0..n {
                x[i] += s * delta[i];
            }
        } else {
            for i in 0..n {
                x[i] += delta[i];
            }
        }
    }
    Err(NewtonFailure {
        iterations: opts.max_iterations,
        error: None,
    })
}

/// Failure report from [`newton_solve`].
#[derive(Debug)]
pub(crate) struct NewtonFailure {
    pub iterations: usize,
    /// A hard error (singular matrix); `None` means plain non-convergence.
    pub error: Option<SpiceError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;

    #[test]
    fn divider_assembles_and_solves() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(2.0));
        ckt.add_resistor(a, b, 1e3);
        ckt.add_resistor(b, Circuit::GROUND, 1e3);
        let mut ws = MnaWorkspace::new(&ckt);
        let x0 = vec![0.0; ckt.unknown_count()];
        let x = newton_solve(&mut ws, &ckt, x0, 1.0, ckt.gmin(), &NewtonOpts::default()).unwrap();
        assert!((node_voltage(&x, a) - 2.0).abs() < 1e-9);
        assert!((node_voltage(&x, b) - 1.0).abs() < 1e-6);
        // Branch current: 2 V across 2 kΩ = 1 mA, flowing out of the
        // source's positive terminal, i.e. branch current is −1 mA by the
        // pos→through-source convention.
        let i_branch = x[2];
        assert!((i_branch + 1e-3).abs() < 1e-8, "i = {i_branch}");
        // Linear circuit: one analysis, one factorization.
        assert_eq!(ws.stats.symbolic_analyses, 1);
        assert_eq!(ws.stats.factorizations, 1);
    }

    #[test]
    fn solver_options_flow_into_the_analysis_and_its_cache_key() {
        use rotsv_num::sparse::{OrderingStrategy, Scaling, SymbolicCache};

        let build = |opts: AnalyzeOptions, cache: &Arc<SymbolicCache>| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(2.0));
            ckt.add_resistor(a, b, 1e3);
            ckt.add_resistor(b, Circuit::GROUND, 1e3);
            ckt.set_symbolic_cache(Arc::clone(cache));
            ckt.set_solver_options(opts);
            let mut ws = MnaWorkspace::new(&ckt);
            let x = newton_solve(
                &mut ws,
                &ckt,
                vec![0.0; ckt.unknown_count()],
                1.0,
                ckt.gmin(),
                &NewtonOpts::default(),
            )
            .unwrap();
            (node_voltage(&x, b), ws.stats.symbolic_analyses)
        };

        let cache = Arc::new(SymbolicCache::new());
        let staged = AnalyzeOptions::default();
        let classic = AnalyzeOptions {
            ordering: OrderingStrategy::Natural,
            scaling: Scaling::Off,
        };
        let (v_staged, n1) = build(staged, &cache);
        let (v_classic, n2) = build(classic, &cache);
        assert_eq!((n1, n2), (1, 1));
        // Same topology under different options: two distinct cache
        // entries, never a shared analysis.
        assert_eq!(cache.len(), 2);
        assert!((v_staged - v_classic).abs() < 1e-9);
        // Re-running either configuration hits its cache entry.
        let (_, n3) = build(staged, &cache);
        assert_eq!(n3, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn isource_direction_matches_convention() {
        // 1 mA pushed from ground into node a through the source, across 1 kΩ.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_isource(Circuit::GROUND, a, SourceWaveform::dc(1e-3));
        ckt.add_resistor(a, Circuit::GROUND, 1e3);
        let mut ws = MnaWorkspace::new(&ckt);
        let x = newton_solve(
            &mut ws,
            &ckt,
            vec![0.0; 1],
            1.0,
            ckt.gmin(),
            &NewtonOpts::default(),
        )
        .unwrap();
        assert!((node_voltage(&x, a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn floating_node_held_by_gmin() {
        let mut ckt = Circuit::new();
        let a = ckt.node("float");
        let _ = a;
        let mut ws = MnaWorkspace::new(&ckt);
        let x = newton_solve(
            &mut ws,
            &ckt,
            vec![0.0; 1],
            1.0,
            ckt.gmin(),
            &NewtonOpts::default(),
        )
        .unwrap();
        assert_eq!(x[0], 0.0);
    }

    #[test]
    fn capacitor_open_in_dc() {
        // V -- R -- C to ground: DC voltage across C equals source voltage.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(1.5));
        ckt.add_resistor(a, b, 1e3);
        ckt.add_capacitor(b, Circuit::GROUND, 1e-12);
        let mut ws = MnaWorkspace::new(&ckt);
        let x = newton_solve(
            &mut ws,
            &ckt,
            vec![0.0; ckt.unknown_count()],
            1.0,
            ckt.gmin(),
            &NewtonOpts::default(),
        )
        .unwrap();
        assert!((node_voltage(&x, b) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn nonlinear_diode_converges() {
        use crate::device::test_devices::Diode;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(5.0));
        ckt.add_resistor(a, d, 1e3);
        ckt.add_device(Box::new(Diode {
            nodes: [d, Circuit::GROUND],
            i_sat: 1e-14,
            v_t: 0.02585,
        }));
        let mut ws = MnaWorkspace::new(&ckt);
        let x = newton_solve(
            &mut ws,
            &ckt,
            vec![0.0; ckt.unknown_count()],
            1.0,
            ckt.gmin(),
            &NewtonOpts::default(),
        )
        .unwrap();
        let vd = node_voltage(&x, d);
        // Forward drop should land in the usual 0.6–0.8 V window and satisfy
        // KCL: (5 − vd)/1k = Is (exp(vd/vt) − 1).
        assert!((0.5..0.9).contains(&vd), "vd = {vd}");
        let i_r = (5.0 - vd) / 1e3;
        let i_d = 1e-14 * ((vd / 0.02585).exp() - 1.0);
        assert!((i_r - i_d).abs() / i_r < 1e-3);
        assert!(ws.stats.newton_iterations > 1);
        assert!(ws.stats.solves >= ws.stats.factorizations);
    }

    /// DC Newton is full Newton: one factorization per iteration even
    /// under the lane engine's default staleness budget.
    #[test]
    fn full_newton_mode_refactors_every_iteration() {
        use crate::device::test_devices::Diode;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(5.0));
        ckt.add_resistor(a, d, 1e3);
        ckt.add_device(Box::new(Diode {
            nodes: [d, Circuit::GROUND],
            i_sat: 1e-14,
            v_t: 0.02585,
        }));
        let mut ws = MnaWorkspace::new(&ckt);
        newton_solve(
            &mut ws,
            &ckt,
            vec![0.0; ckt.unknown_count()],
            1.0,
            ckt.gmin(),
            &NewtonOpts::default(),
        )
        .unwrap();
        assert_eq!(ws.stats.factorizations, ws.stats.newton_iterations);
    }
}
