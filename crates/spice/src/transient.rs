//! Transient analysis: the specification, the result, and
//! [`Circuit::transient`], which runs one circuit as a one-lane session
//! of the lane engine ([`crate::batch`]). That engine holds the one
//! transient stepping loop; this module describes its policies.
//!
//! Integration uses trapezoidal (default) or backward-Euler companion
//! models with Newton iteration at every step. The first two accepted
//! steps always use backward Euler to damp the startup transient of
//! inconsistent initial conditions (standard practice; trapezoidal
//! integration would ring on them).
//!
//! Two step-control policies are available ([`StepControl`]):
//!
//! * **Fixed** — every step is `spec.dt`, halved locally (up to 12 times)
//!   when Newton refuses to converge. This is the cross-check mode: it is
//!   slower but its time grid is deterministic.
//! * **Adaptive** — local-truncation-error control. Each step is compared
//!   against a linear predictor through the previous two solutions; the
//!   scaled error steers the next step size (toward
//!   [`AdaptiveControl::max_stretch`]`·spec.dt` on flat stretches), and a
//!   step is redone smaller only when the error exceeds
//!   [`AdaptiveControl::reject_threshold`]. Ring-oscillator runs then
//!   spend their steps on switching edges rather than flat regions.
//!
//! Newton starts each step from a linear extrapolation of the last two
//! solutions, which is what keeps large adaptive steps cheap.

use std::collections::BTreeMap;

use rotsv_num::sparse::SolverStats;

use crate::batch::transient_queue;
use crate::circuit::Circuit;
use crate::error::SpiceError;
use crate::node::NodeId;
use crate::waveform::Waveform;

/// Numerical integration scheme for capacitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// Trapezoidal rule: second-order accurate, no numerical damping.
    #[default]
    Trapezoidal,
    /// Backward Euler: first-order, strongly damped; useful as a
    /// cross-check that a result is not an integration artifact.
    BackwardEuler,
}

/// Early-termination condition for a transient run.
#[derive(Debug, Clone, PartialEq)]
pub enum StopCondition {
    /// Stop once `node` has risen through `threshold` volts `count` times.
    ///
    /// Ring-oscillator runs use this to simulate exactly as many cycles as
    /// the period extraction needs.
    RisingCrossings {
        /// Observed node.
        node: NodeId,
        /// Threshold voltage.
        threshold: f64,
        /// Number of rising crossings after which to stop.
        count: usize,
    },
}

/// Tuning knobs of the adaptive (local-truncation-error) step control.
///
/// All step bounds are expressed relative to the nominal `spec.dt`, so
/// one set of knobs works across circuits with very different time
/// scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveControl {
    /// Relative weight of the local-error test (per node voltage).
    pub lte_reltol: f64,
    /// Absolute weight of the local-error test, volts.
    pub lte_abstol: f64,
    /// Smallest permitted step as a fraction of the nominal `dt`.
    pub min_shrink: f64,
    /// Largest permitted step as a multiple of the nominal `dt`.
    pub max_stretch: f64,
    /// Largest per-step growth factor.
    pub max_growth: f64,
    /// Scaled-error value above which a step is *rejected* and redone
    /// smaller. Errors in `(1, reject_threshold]` are accepted (the next
    /// step still shrinks): a rejected large step is the most expensive
    /// work in a run, and an occasional few-× overshoot of a per-step
    /// estimate is invisible in an aggregate like an oscillation period.
    pub reject_threshold: f64,
}

impl Default for AdaptiveControl {
    fn default() -> Self {
        Self {
            lte_reltol: 5e-2,
            lte_abstol: 1e-2,
            min_shrink: 1.0 / 32.0,
            max_stretch: 16.0,
            max_growth: 2.0,
            reject_threshold: 4.0,
        }
    }
}

/// Time-step policy of a transient run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StepControl {
    /// Every step is `spec.dt` (halved only on Newton failure). The
    /// deterministic cross-check mode.
    #[default]
    Fixed,
    /// Local-truncation-error controlled stepping around `spec.dt`.
    Adaptive(AdaptiveControl),
}

impl StepControl {
    /// Adaptive stepping with the default [`AdaptiveControl`] knobs.
    pub fn adaptive() -> Self {
        StepControl::Adaptive(AdaptiveControl::default())
    }
}

/// Specification of a transient analysis.
#[derive(Debug, Clone)]
pub struct TransientSpec {
    /// End time, seconds.
    pub t_stop: f64,
    /// Nominal time step, seconds. Under [`StepControl::Adaptive`] this is
    /// the initial step and the reference for the step bounds.
    pub dt: f64,
    /// Step-control policy.
    pub step: StepControl,
    /// Integration method.
    pub method: IntegrationMethod,
    /// Nodes to record; empty records every node.
    pub record_nodes: Vec<NodeId>,
    /// Node voltages applied at t = 0 (unlisted nodes start at 0 V).
    pub initial_voltages: Vec<(NodeId, f64)>,
    /// Optional early-termination condition.
    pub stop: Option<StopCondition>,
    /// Newton iteration cap per time step.
    pub max_newton: usize,
}

impl TransientSpec {
    /// Creates a spec running to `t_stop` with step `dt`, recording all
    /// nodes.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        Self {
            t_stop,
            dt,
            step: StepControl::default(),
            method: IntegrationMethod::default(),
            record_nodes: Vec::new(),
            initial_voltages: Vec::new(),
            stop: None,
            max_newton: 40,
        }
    }

    /// Restricts recording to `nodes` (reduces memory for long runs).
    pub fn record(mut self, nodes: &[NodeId]) -> Self {
        self.record_nodes = nodes.to_vec();
        self
    }

    /// Selects the integration method.
    pub fn method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Selects the step-control policy.
    ///
    /// ```
    /// use rotsv_spice::{AdaptiveControl, StepControl, TransientSpec};
    ///
    /// // Default knobs …
    /// let spec = TransientSpec::new(1e-6, 1e-9).step_control(StepControl::adaptive());
    /// // … or explicit ones, e.g. a tighter error test:
    /// let tight = StepControl::Adaptive(AdaptiveControl {
    ///     lte_reltol: 5e-4,
    ///     ..AdaptiveControl::default()
    /// });
    /// let spec = spec.step_control(tight);
    /// assert_eq!(spec.step, tight);
    /// ```
    pub fn step_control(mut self, step: StepControl) -> Self {
        self.step = step;
        self
    }

    /// Sets initial node voltages (implies a UIC start).
    pub fn initial_voltages(mut self, init: &[(NodeId, f64)]) -> Self {
        self.initial_voltages = init.to_vec();
        self
    }

    /// Stops after `count` rising crossings of `threshold` on `node`.
    pub fn stop_after_rising(mut self, node: NodeId, threshold: f64, count: usize) -> Self {
        self.stop = Some(StopCondition::RisingCrossings {
            node,
            threshold,
            count,
        });
        self
    }
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    time: Vec<f64>,
    columns: BTreeMap<NodeId, Vec<f64>>,
    stopped_early: bool,
    steps_taken: usize,
    stats: SolverStats,
}

impl TransientResult {
    /// Assembles a result from raw pieces: the lane engine's record of
    /// one retiring die.
    pub(crate) fn from_parts(
        time: Vec<f64>,
        columns: BTreeMap<NodeId, Vec<f64>>,
        stopped_early: bool,
        steps_taken: usize,
        stats: SolverStats,
    ) -> Self {
        Self {
            time,
            columns,
            stopped_early,
            steps_taken,
            stats,
        }
    }

    /// Simulation time points, seconds.
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// `true` if a [`StopCondition`] ended the run before `t_stop`.
    pub fn stopped_early(&self) -> bool {
        self.stopped_early
    }

    /// Total accepted integration steps.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Numerical-work counters of the run (factorizations, Newton
    /// iterations, accepted/rejected steps, wall time).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Recorded waveform of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not recorded.
    pub fn waveform(&self, node: NodeId) -> Waveform {
        let values = self
            .columns
            .get(&node)
            .unwrap_or_else(|| panic!("node {node} was not recorded"))
            .clone();
        Waveform::new(self.time.clone(), values)
    }

    /// Voltage of `node` at the final time point.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not recorded or the run is empty.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        *self
            .columns
            .get(&node)
            .unwrap_or_else(|| panic!("node {node} was not recorded"))
            .last()
            .expect("transient result is empty")
    }
}

impl Circuit {
    /// Runs a transient analysis: a one-lane [`transient_queue`] session
    /// of the lane engine, the same stepping loop every ring measurement
    /// runs on.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidSpec`] for a non-positive step or stop
    /// time or an inconsistent [`AdaptiveControl`],
    /// [`SpiceError::InvalidCircuit`] for an initial voltage on a node the
    /// circuit lacks, [`SpiceError::NoConvergence`] if a step fails even
    /// at the smallest step (after halving it 12 times on the fixed grid),
    /// and [`SpiceError::SingularSystem`] for a structurally singular
    /// system.
    pub fn transient(&self, spec: &TransientSpec) -> Result<TransientResult, SpiceError> {
        let mut results = transient_queue(&[self], 1, spec)?;
        Ok(results.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;

    /// RC charging follows 1 − exp(−t/τ).
    #[test]
    fn rc_charge_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.add_vsource(vin, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor(vin, vout, 1e3);
        ckt.add_capacitor(vout, Circuit::GROUND, 1e-9); // tau = 1 us
        let spec = TransientSpec::new(3e-6, 2e-9).record(&[vout]);
        let res = ckt.transient(&spec).unwrap();
        let w = res.waveform(vout);
        for frac in [0.5f64, 1.0, 2.0] {
            let t = frac * 1e-6;
            let expect = 1.0 - (-frac).exp();
            let got = w.value_at(t);
            assert!(
                (got - expect).abs() < 2e-4,
                "at t={t}: got {got}, expected {expect}"
            );
        }
    }

    /// Trapezoidal integration preserves the amplitude of an LC-free RC
    /// high-pass step: v_out jumps and decays exponentially.
    #[test]
    fn rc_highpass_step_decays() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.add_vsource(vin, Circuit::GROUND, SourceWaveform::step(0.0, 1.0, 1e-7));
        ckt.add_capacitor(vin, vout, 1e-9);
        ckt.add_resistor(vout, Circuit::GROUND, 1e3); // tau = 1 us
        let spec = TransientSpec::new(2e-6, 1e-9).record(&[vout]);
        let res = ckt.transient(&spec).unwrap();
        let w = res.waveform(vout);
        // Just after the step the full swing appears across the resistor.
        assert!((w.value_at(1.05e-7) - 1.0).abs() < 0.1);
        // One tau later it has decayed to ~exp(-1).
        let got = w.value_at(1e-7 + 1e-6);
        assert!((got - (-1.0f64).exp()).abs() < 0.02, "got {got}");
    }

    #[test]
    fn initial_condition_is_applied() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor(a, Circuit::GROUND, 1e3);
        ckt.add_capacitor(a, Circuit::GROUND, 1e-9);
        let spec = TransientSpec::new(1e-6, 1e-9)
            .record(&[a])
            .initial_voltages(&[(a, 2.0)]);
        let res = ckt.transient(&spec).unwrap();
        let w = res.waveform(a);
        assert!((w.value_at(0.0) - 2.0).abs() < 1e-9);
        // Discharges with tau = 1 us.
        let got = w.value_at(1e-6);
        assert!((got - 2.0 * (-1.0f64).exp()).abs() < 5e-3, "got {got}");
    }

    #[test]
    fn backward_euler_also_converges_to_dc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.add_vsource(vin, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor(vin, vout, 1e3);
        ckt.add_capacitor(vout, Circuit::GROUND, 1e-9);
        let spec = TransientSpec::new(10e-6, 10e-9)
            .record(&[vout])
            .method(IntegrationMethod::BackwardEuler);
        let res = ckt.transient(&spec).unwrap();
        assert!((res.final_voltage(vout) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn stop_condition_ends_run_early() {
        // 1 MHz square-ish pulse; stop after 3 rising crossings of 0.5 V.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource(
            a,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 0.0,
                rise: 1e-8,
                fall: 1e-8,
                width: 4.8e-7,
                period: 1e-6,
            },
        );
        ckt.add_resistor(a, Circuit::GROUND, 1e3);
        let spec = TransientSpec::new(100e-6, 1e-8)
            .record(&[a])
            .stop_after_rising(a, 0.5, 3);
        let res = ckt.transient(&spec).unwrap();
        assert!(res.stopped_early());
        let t_end = *res.time().last().unwrap();
        assert!(
            t_end > 2e-6 && t_end < 2.2e-6,
            "stopped at {t_end}, expected just after the third rising edge"
        );
    }

    #[test]
    fn invalid_dt_is_rejected() {
        let ckt = Circuit::new();
        let err = ckt.transient(&TransientSpec::new(1e-6, 0.0)).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidSpec(_)));
        let err = ckt.transient(&TransientSpec::new(-1.0, 1e-9)).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidSpec(_)));
    }

    /// A step controller that could never grow a step is rejected before
    /// any stepping.
    #[test]
    fn inconsistent_adaptive_control_is_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor(a, Circuit::GROUND, 1e3);
        ckt.add_capacitor(a, Circuit::GROUND, 1e-9);
        let stuck = StepControl::Adaptive(AdaptiveControl {
            max_growth: 1.0,
            ..AdaptiveControl::default()
        });
        let spec = TransientSpec::new(1e-6, 1e-9).step_control(stuck);
        let err = ckt.transient(&spec).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidSpec(_)), "{err:?}");
    }

    #[test]
    fn initial_voltage_on_unknown_node_is_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor(a, Circuit::GROUND, 1e3);
        let spec = TransientSpec::new(1e-6, 1e-9).initial_voltages(&[(NodeId(7), 1.0)]);
        let err = ckt.transient(&spec).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidCircuit(_)), "{err:?}");
    }

    #[test]
    fn nonlinear_rc_with_diode_clamps() {
        use crate::device::test_devices::Diode;
        // Step drives an RC node clamped by a diode to ground: final value
        // well below the 5 V drive.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.add_vsource(vin, Circuit::GROUND, SourceWaveform::step(0.0, 5.0, 0.0));
        ckt.add_resistor(vin, vout, 1e3);
        ckt.add_capacitor(vout, Circuit::GROUND, 1e-12);
        ckt.add_device(Box::new(Diode {
            nodes: [vout, Circuit::GROUND],
            i_sat: 1e-14,
            v_t: 0.02585,
        }));
        let spec = TransientSpec::new(50e-9, 0.05e-9).record(&[vout]);
        let res = ckt.transient(&spec).unwrap();
        let v_end = res.final_voltage(vout);
        assert!((0.5..0.9).contains(&v_end), "clamped at {v_end}");
    }

    #[test]
    fn waveform_of_unrecorded_node_panics() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor(a, b, 1.0);
        ckt.add_resistor(b, Circuit::GROUND, 1.0);
        let res = ckt
            .transient(&TransientSpec::new(1e-9, 1e-10).record(&[a]))
            .unwrap();
        let r = std::panic::catch_unwind(|| res.waveform(b));
        assert!(r.is_err());
    }
}
