//! DC operating-point analysis.
//!
//! Solves the circuit with capacitors open. If plain Newton fails, two
//! classic homotopies are attempted in order: **gmin stepping** (start with
//! a large shunt conductance and relax it) and **source stepping** (ramp
//! all independent sources from zero).

use std::time::Instant;

use rotsv_num::sparse::SolverStats;

use crate::circuit::{Circuit, VSourceId};
use crate::error::SpiceError;
use crate::mna::{newton_solve, node_voltage, MnaWorkspace, NewtonOpts};
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
        node_voltage(&self.x, node)
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

/// Stamps the final wall time into the workspace counters and wraps the
/// solution.
fn finish(x: Vec<f64>, n_nodes: usize, ws: &MnaWorkspace, start: Instant) -> DcSolution {
    let mut stats = ws.stats;
    stats.wall_seconds = start.elapsed().as_secs_f64();
    DcSolution { x, n_nodes, stats }
}

impl Circuit {
    /// Computes the DC operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NoConvergence`] if Newton, gmin stepping and
    /// source stepping all fail, or [`SpiceError::SingularSystem`] if the
    /// MNA matrix is structurally singular.
    pub fn dcop(&self, spec: &DcOpSpec) -> Result<DcSolution, SpiceError> {
        let _span = rotsv_obs::span!("dcop");
        let wall_start = Instant::now();
        let mut ws = MnaWorkspace::new(self);
        let opts = NewtonOpts {
            max_iterations: spec.max_iterations,
            ..NewtonOpts::default()
        };
        let mut x0 = vec![0.0; self.unknown_count()];
        for &(node, v) in &spec.initial_voltages {
            if !node.is_ground() {
                x0[node.index() - 1] = v;
            }
        }

        // 1. Plain Newton.
        match newton_solve(&mut ws, self, x0.clone(), 1.0, self.gmin(), &opts) {
            Ok(x) => return Ok(finish(x, self.node_count(), &ws, wall_start)),
            Err(fail) => {
                if let Some(err @ SpiceError::SingularSystem { .. }) = fail.error {
                    return Err(err);
                }
            }
        }

        // 2. Gmin stepping: relax a large shunt conductance decade by decade.
        let mut x = x0.clone();
        let mut ok = true;
        let mut g = 1e-2;
        while g >= self.gmin() {
            match newton_solve(&mut ws, self, x.clone(), 1.0, g, &opts) {
                Ok(sol) => x = sol,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
            g /= 10.0;
        }
        if ok {
            if let Ok(sol) = newton_solve(&mut ws, self, x.clone(), 1.0, self.gmin(), &opts) {
                return Ok(finish(sol, self.node_count(), &ws, wall_start));
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
            match newton_solve(&mut ws, self, x.clone(), target, self.gmin(), &opts) {
                Ok(sol) => {
                    x = sol;
                    alpha = target;
                    // Grow the step back after success.
                    step = (step * 2.0).min(0.05);
                }
                Err(fail) => {
                    step /= 2.0;
                    if step < MIN_STEP {
                        return Err(SpiceError::NoConvergence {
                            analysis: "dcop",
                            time: 0.0,
                            iterations: fail.iterations,
                        });
                    }
                }
            }
        }
        Ok(finish(x, self.node_count(), &ws, wall_start))
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
}
