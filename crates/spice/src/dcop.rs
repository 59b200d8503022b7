//! DC operating-point analysis: the homotopy schedule and its solution.
//!
//! Solves the circuit with capacitors open. If plain Newton fails, two
//! classic homotopies are attempted in order: **gmin stepping** (start with
//! a large shunt conductance and relax it) and **source stepping** (ramp
//! all independent sources from zero). Every solve is full Newton on one
//! lane of the lane engine ([`crate::batch`]), through the same Newton
//! pass, assembly and batched LU as the transient.

use std::time::Instant;

use rotsv_num::sparse::SolverStats;

use crate::batch::{initial_iterate, DcNewton};
use crate::circuit::{Circuit, VSourceId};
use crate::error::SpiceError;
use crate::mna::row_of;
use crate::node::NodeId;

/// Options for the DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcOpSpec {
    /// Maximum Newton iterations per solve attempt.
    pub max_iterations: usize,
    /// Initial guess applied to specific nodes (helps bistable circuits
    /// settle into an intended state).
    pub initial_voltages: Vec<(NodeId, f64)>,
}

impl Default for DcOpSpec {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            initial_voltages: Vec::new(),
        }
    }
}

/// A converged DC solution.
#[derive(Debug, Clone)]
pub struct DcSolution {
    x: Vec<f64>,
    n_nodes: usize,
    stats: SolverStats,
}

impl DcSolution {
    /// Numerical-work counters of the analysis that produced this
    /// solution.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }
    /// Voltage of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the solved circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        assert!(node.index() < self.n_nodes, "node out of range");
        row_of(node).map_or(0.0, |r| self.x[r])
    }

    /// Branch current of voltage source `vs`, positive flowing from the
    /// positive terminal *through the source* to the negative terminal.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to the solved circuit.
    pub fn source_current(&self, vs: VSourceId) -> f64 {
        let idx = self.n_nodes - 1 + vs.0;
        assert!(idx < self.x.len(), "voltage source out of range");
        self.x[idx]
    }

    /// The raw solution vector (node voltages then branch currents).
    pub fn as_slice(&self) -> &[f64] {
        &self.x
    }
}

/// Stamps the final wall time into the lane's counters and wraps the
/// solution.
fn finish(x: Vec<f64>, n_nodes: usize, op: &DcNewton, start: Instant) -> DcSolution {
    let mut stats = op.stats();
    stats.wall_seconds = start.elapsed().as_secs_f64();
    DcSolution { x, n_nodes, stats }
}

impl Circuit {
    /// Computes the DC operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] if an initial voltage names
    /// a node the circuit lacks, [`SpiceError::NoConvergence`] if Newton,
    /// gmin stepping and source stepping all fail, or
    /// [`SpiceError::SingularSystem`] if the MNA matrix is structurally
    /// singular.
    pub fn dcop(&self, spec: &DcOpSpec) -> Result<DcSolution, SpiceError> {
        let _span = rotsv_obs::span!("dcop");
        let wall_start = Instant::now();
        let x0 = initial_iterate(self, &spec.initial_voltages)?;
        let mut op = DcNewton::new(self, spec.max_iterations);

        // 1. Plain Newton.
        if let Some(x) = op.solve(x0.clone(), 1.0, self.gmin())? {
            return Ok(finish(x, self.node_count(), &op, wall_start));
        }

        // 2. Gmin stepping: relax a large shunt conductance decade by decade.
        let mut x = x0.clone();
        let mut ok = true;
        let mut g = 1e-2;
        while g >= self.gmin() {
            match op.solve(x.clone(), 1.0, g) {
                Ok(Some(sol)) => x = sol,
                _ => {
                    ok = false;
                    break;
                }
            }
            g /= 10.0;
        }
        if ok {
            if let Ok(Some(sol)) = op.solve(x.clone(), 1.0, self.gmin()) {
                return Ok(finish(sol, self.node_count(), &op, wall_start));
            }
        }

        // 3. Adaptive source stepping: ramp sources from 0 to full value,
        // bisecting the continuation step whenever Newton stalls (high-gain
        // stages near their switching point need very fine alpha steps).
        let mut x = x0;
        let mut alpha = 0.0f64;
        let mut step = 0.05f64;
        const MIN_STEP: f64 = 1e-5;
        while alpha < 1.0 {
            let target = (alpha + step).min(1.0);
            match op.solve(x.clone(), target, self.gmin()) {
                Ok(Some(sol)) => {
                    x = sol;
                    alpha = target;
                    // Grow the step back after success.
                    step = (step * 2.0).min(0.05);
                }
                _ => {
                    step /= 2.0;
                    if step < MIN_STEP {
                        return Err(SpiceError::NoConvergence {
                            analysis: "dcop",
                            time: 0.0,
                            iterations: op.iterations(),
                        });
                    }
                }
            }
        }
        Ok(finish(x, self.node_count(), &op, wall_start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;

    #[test]
    fn divider_voltages_and_current() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let vs = ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(3.0));
        ckt.add_resistor(a, b, 2e3);
        ckt.add_resistor(b, Circuit::GROUND, 1e3);
        let sol = ckt.dcop(&DcOpSpec::default()).unwrap();
        assert!((sol.voltage(a) - 3.0).abs() < 1e-9);
        assert!((sol.voltage(b) - 1.0).abs() < 1e-6);
        assert!((sol.source_current(vs) + 1e-3).abs() < 1e-8);
        assert_eq!(sol.voltage(Circuit::GROUND), 0.0);
    }

    #[test]
    fn series_vsources_stack() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_vsource(b, a, SourceWaveform::dc(0.5));
        ckt.add_resistor(b, Circuit::GROUND, 1e3);
        let sol = ckt.dcop(&DcOpSpec::default()).unwrap();
        assert!((sol.voltage(b) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn diode_chain_converges_via_stepping_if_needed() {
        use crate::device::test_devices::Diode;
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.add_vsource(top, Circuit::GROUND, SourceWaveform::dc(3.0));
        ckt.add_resistor(top, mid, 100.0);
        for _ in 0..2 {
            ckt.add_device(Box::new(Diode {
                nodes: [mid, Circuit::GROUND],
                i_sat: 1e-15,
                v_t: 0.02585,
            }));
        }
        let sol = ckt.dcop(&DcOpSpec::default()).unwrap();
        let v = sol.voltage(mid);
        assert!((0.6..0.95).contains(&v), "v = {v}");
    }

    #[test]
    fn initial_voltage_hint_is_respected_for_latch() {
        // Two cross-coupled "inverters" built from diodes would be overkill;
        // instead verify the hint lands in the start vector via a linear
        // circuit where the answer is unique (hint must not change it).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(2.0));
        let spec = DcOpSpec {
            initial_voltages: vec![(a, -5.0)],
            ..DcOpSpec::default()
        };
        let sol = ckt.dcop(&spec).unwrap();
        assert!((sol.voltage(a) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_circuit_solves_trivially() {
        let ckt = Circuit::new();
        let sol = ckt.dcop(&DcOpSpec::default()).unwrap();
        assert!(sol.as_slice().is_empty());
    }

    #[test]
    fn divider_assembles_and_solves() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let vs = ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(2.0));
        ckt.add_resistor(a, b, 1e3);
        ckt.add_resistor(b, Circuit::GROUND, 1e3);
        let sol = ckt.dcop(&DcOpSpec::default()).unwrap();
        assert!((sol.voltage(a) - 2.0).abs() < 1e-9);
        assert!((sol.voltage(b) - 1.0).abs() < 1e-6);
        // Branch current: 2 V across 2 kΩ = 1 mA, flowing out of the
        // source's positive terminal, i.e. branch current is −1 mA by the
        // pos→through-source convention.
        let i_branch = sol.source_current(vs);
        assert!((i_branch + 1e-3).abs() < 1e-8, "i = {i_branch}");
        // Linear circuit: one analysis, one factorization.
        assert_eq!(sol.stats().symbolic_analyses, 1);
        assert_eq!(sol.stats().factorizations, 1);
    }

    #[test]
    fn solver_options_flow_into_the_analysis_and_its_cache_key() {
        use std::sync::Arc;

        use rotsv_num::sparse::{AnalyzeOptions, OrderingStrategy, Scaling, SymbolicCache};

        let build = |opts: AnalyzeOptions, cache: &Arc<SymbolicCache>| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(2.0));
            ckt.add_resistor(a, b, 1e3);
            ckt.add_resistor(b, Circuit::GROUND, 1e3);
            ckt.set_symbolic_cache(Arc::clone(cache));
            ckt.set_solver_options(opts);
            let sol = ckt.dcop(&DcOpSpec::default()).unwrap();
            (sol.voltage(b), sol.stats().symbolic_analyses)
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
        let sol = ckt.dcop(&DcOpSpec::default()).unwrap();
        assert!((sol.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn floating_node_held_by_gmin() {
        let mut ckt = Circuit::new();
        let a = ckt.node("float");
        let sol = ckt.dcop(&DcOpSpec::default()).unwrap();
        assert_eq!(sol.as_slice()[0], 0.0);
        assert_eq!(sol.voltage(a), 0.0);
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
        let sol = ckt.dcop(&DcOpSpec::default()).unwrap();
        assert!((sol.voltage(b) - 1.5).abs() < 1e-6);
    }

    /// 5 V through 1 kΩ into a forward-biased diode.
    fn diode_clamp() -> (Circuit, NodeId) {
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
        (ckt, d)
    }

    #[test]
    fn nonlinear_diode_converges() {
        let (ckt, d) = diode_clamp();
        let sol = ckt.dcop(&DcOpSpec::default()).unwrap();
        let vd = sol.voltage(d);
        // Forward drop should land in the usual 0.6–0.8 V window and satisfy
        // KCL: (5 − vd)/1k = Is (exp(vd/vt) − 1).
        assert!((0.5..0.9).contains(&vd), "vd = {vd}");
        let i_r = (5.0 - vd) / 1e3;
        let i_d = 1e-14 * ((vd / 0.02585).exp() - 1.0);
        assert!((i_r - i_d).abs() / i_r < 1e-3);
        let stats = sol.stats();
        assert!(stats.newton_iterations > 1);
        assert!(stats.solves >= stats.factorizations);
    }

    /// DC Newton is full Newton: one factorization per iteration, where
    /// the transient's default staleness budget would reuse factors.
    #[test]
    fn full_newton_mode_refactors_every_iteration() {
        let (ckt, _) = diode_clamp();
        let stats = ckt.dcop(&DcOpSpec::default()).unwrap().stats();
        assert_eq!(stats.factorizations, stats.newton_iterations);
    }

    /// An initial voltage on a node the circuit lacks is an error, not a
    /// panic on the index nor a seed for a branch current.
    #[test]
    fn initial_voltage_on_unknown_node_is_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor(a, Circuit::GROUND, 1e3);
        // NodeId(2) would index the source's branch current, NodeId(7)
        // lies past every unknown.
        for node in [NodeId(2), NodeId(7)] {
            let spec = DcOpSpec {
                initial_voltages: vec![(node, 1.0)],
                ..DcOpSpec::default()
            };
            let err = ckt.dcop(&spec).unwrap_err();
            assert!(matches!(err, SpiceError::InvalidCircuit(_)), "{err:?}");
        }
    }

    /// A diode clamp whose Newton budget is too small for plain Newton and
    /// for gmin stepping reaches the operating point by source stepping,
    /// spending more iterations in all than one solve may. From 0 V the
    /// 5 V node needs ten updates damped to half a volt, so plain Newton
    /// and the first gmin decade both run out of their four iterations.
    #[test]
    fn small_budget_reaches_the_operating_point_by_source_stepping() {
        let (ckt, d) = diode_clamp();
        let spec = DcOpSpec {
            max_iterations: 4,
            ..DcOpSpec::default()
        };
        let sol = ckt.dcop(&spec).unwrap();
        let vd = sol.voltage(d);
        let i_r = (5.0 - vd) / 1e3;
        let i_d = 1e-14 * ((vd / 0.02585).exp() - 1.0);
        assert!((i_r - i_d).abs() / i_r < 1e-3, "KCL: {i_r} A vs {i_d} A");
        assert!(sol.stats().newton_iterations > spec.max_iterations as u64);
    }
}
