//! Transient analysis.
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
use std::time::Instant;

use rotsv_num::sparse::SolverStats;

use crate::circuit::{Circuit, Element};
use crate::error::SpiceError;
use crate::mna::{newton_solve, node_voltage, CapMode, MnaWorkspace, NewtonOpts};
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
    /// Assembles a result from raw pieces (used by the batched engine,
    /// which records per-lane columns outside `Circuit::transient`).
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

struct CapState {
    a: NodeId,
    b: NodeId,
    farads: f64,
    v: f64,
    i: f64,
}

impl Circuit {
    /// Runs a transient analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidSpec`] for a non-positive step or stop
    /// time, [`SpiceError::NoConvergence`] if a step fails even after
    /// halving the step 12 times, and [`SpiceError::SingularSystem`] for a
    /// structurally singular system.
    pub fn transient(&self, spec: &TransientSpec) -> Result<TransientResult, SpiceError> {
        let _span = rotsv_obs::span!("transient");
        if spec.dt <= 0.0 || !spec.dt.is_finite() {
            return Err(SpiceError::InvalidSpec(format!(
                "time step must be positive, got {}",
                spec.dt
            )));
        }
        if spec.t_stop <= 0.0 || !spec.t_stop.is_finite() {
            return Err(SpiceError::InvalidSpec(format!(
                "stop time must be positive, got {}",
                spec.t_stop
            )));
        }
        if let StepControl::Adaptive(c) = &spec.step {
            let sane = c.lte_reltol > 0.0
                && c.lte_abstol > 0.0
                && c.min_shrink > 0.0
                && c.min_shrink <= 1.0
                && c.max_stretch >= 1.0
                && c.max_growth > 1.0
                && c.reject_threshold >= 1.0;
            if !sane {
                return Err(SpiceError::InvalidSpec(format!(
                    "inconsistent adaptive step control: {c:?}"
                )));
            }
        }
        for &(node, _) in &spec.initial_voltages {
            if node.index() >= self.node_count() {
                return Err(SpiceError::InvalidCircuit(format!(
                    "initial condition on unknown node {node}"
                )));
            }
        }

        // Initial solution vector.
        let mut x = vec![0.0; self.unknown_count()];
        for &(node, v) in &spec.initial_voltages {
            if !node.is_ground() {
                x[node.index() - 1] = v;
            }
        }

        let wall_start = Instant::now();
        let (newton_hist, lte_hist) = if rotsv_obs::metrics_enabled() {
            (
                Some(rotsv_obs::histogram("transient.newton_iters_per_step")),
                Some(rotsv_obs::histogram("transient.lte_step_seconds")),
            )
        } else {
            (None, None)
        };

        // Capacitor bookkeeping (in element order, matching CapMode::Companion).
        let mut caps: Vec<CapState> = self
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::Capacitor { a, b, farads } => Some(CapState {
                    a: *a,
                    b: *b,
                    farads: *farads,
                    v: 0.0,
                    i: 0.0,
                }),
                _ => None,
            })
            .collect();
        for c in &mut caps {
            c.v = node_voltage(&x, c.a) - node_voltage(&x, c.b);
        }

        // Recording setup.
        let record_nodes: Vec<NodeId> = if spec.record_nodes.is_empty() {
            (0..self.node_count()).map(NodeId).collect()
        } else {
            let mut nodes = spec.record_nodes.clone();
            nodes.sort_unstable();
            nodes.dedup();
            nodes
        };
        let mut columns: BTreeMap<NodeId, Vec<f64>> =
            record_nodes.iter().map(|&n| (n, Vec::new())).collect();
        let n_node_unknowns = self.node_count() - 1;
        let mut time = Vec::new();
        let record =
            |t: f64, x: &[f64], time: &mut Vec<f64>, columns: &mut BTreeMap<NodeId, Vec<f64>>| {
                time.push(t);
                for (&node, col) in columns.iter_mut() {
                    col.push(node_voltage(x, node));
                }
            };
        record(0.0, &x, &mut time, &mut columns);

        // Stop-condition tracking.
        let mut crossings_seen = 0usize;
        let mut stop_prev = spec
            .stop
            .as_ref()
            .map(|StopCondition::RisingCrossings { node, .. }| node_voltage(&x, *node));

        let mut ws = MnaWorkspace::new(self);
        let opts = NewtonOpts {
            max_iterations: spec.max_newton,
            ..NewtonOpts::default()
        };
        let mut companions = vec![(0.0f64, 0.0f64); caps.len()];

        let adaptive = match spec.step {
            StepControl::Fixed => None,
            StepControl::Adaptive(c) => Some(c),
        };
        let dt_min = adaptive.map_or(spec.dt, |c| spec.dt * c.min_shrink);
        let dt_max = adaptive.map_or(spec.dt, |c| spec.dt * c.max_stretch);
        // Step proposed for the next attempt (evolves only in adaptive mode).
        let mut dt_next = spec.dt;
        // Previous accepted solution and the step that led from it to `x`,
        // for the linear LTE predictor.
        let mut hist: Option<(Vec<f64>, f64)> = None;

        let mut t = 0.0f64;
        let mut steps = 0usize;
        let mut stopped_early = false;
        const MAX_HALVINGS: u32 = 12;

        'outer: while t < spec.t_stop - 1e-18 {
            let mut dt_try = dt_next.min(spec.t_stop - t);
            let mut halvings = 0u32;
            loop {
                // Startup steps use backward Euler regardless of method.
                let use_trap = spec.method == IntegrationMethod::Trapezoidal && steps >= 2;
                for (k, c) in caps.iter().enumerate() {
                    if c.farads == 0.0 {
                        companions[k] = (0.0, 0.0);
                    } else if use_trap {
                        let geq = 2.0 * c.farads / dt_try;
                        companions[k] = (geq, -(geq * c.v + c.i));
                    } else {
                        let geq = c.farads / dt_try;
                        companions[k] = (geq, -geq * c.v);
                    }
                }
                let t_next = t + dt_try;
                // Newton initial guess: linear extrapolation through the
                // last two accepted solutions. Same fixed point as
                // starting from `x` (delta-form Newton), but starting
                // closer saves iterations — the larger the step, the more
                // it saves, which is what makes big adaptive steps cheap.
                let x_start = match &hist {
                    Some((x_prev, dt_prev)) if steps >= 2 => {
                        let scale = dt_try / dt_prev;
                        x.iter()
                            .zip(x_prev)
                            .map(|(&xi, &pi)| xi + (xi - pi) * scale)
                            .collect()
                    }
                    _ => x.clone(),
                };
                let newton_before = ws.stats.newton_iterations;
                match newton_solve(
                    &mut ws,
                    self,
                    x_start,
                    t_next,
                    1.0,
                    self.gmin(),
                    CapMode::Companion(&companions),
                    &opts,
                ) {
                    Ok(sol) => {
                        // Local-truncation-error test: compare against the
                        // linear predictor through the last two accepted
                        // solutions.
                        if let (Some(c), Some((x_prev, dt_prev))) =
                            (adaptive.as_ref(), hist.as_ref())
                        {
                            if steps >= 2 {
                                let scale = dt_try / dt_prev;
                                let mut err = 0.0f64;
                                for i in 0..n_node_unknowns {
                                    let pred = x[i] + (x[i] - x_prev[i]) * scale;
                                    let tol =
                                        c.lte_abstol + c.lte_reltol * sol[i].abs().max(x[i].abs());
                                    err = err.max((sol[i] - pred).abs() / tol);
                                }
                                if err > c.reject_threshold && dt_try > dt_min * (1.0 + 1e-9) {
                                    ws.stats.steps_rejected += 1;
                                    dt_try =
                                        (dt_try * (0.9 / err.sqrt()).clamp(0.1, 0.5)).max(dt_min);
                                    continue;
                                }
                                // Accepted (forcibly so at dt_min): propose
                                // the next step from the error estimate —
                                // err > 1 shrinks it, err < 0.81 grows it.
                                let grow = (0.9 / err.max(1e-12).sqrt()).min(c.max_growth);
                                dt_next = (dt_try * grow).clamp(dt_min, dt_max);
                            }
                        }
                        for (k, c) in caps.iter_mut().enumerate() {
                            let v_new = node_voltage(&sol, c.a) - node_voltage(&sol, c.b);
                            let (geq, ieq) = companions[k];
                            c.i = geq * v_new + ieq;
                            c.v = v_new;
                        }
                        hist = Some((std::mem::replace(&mut x, sol), dt_try));
                        t = t_next;
                        steps += 1;
                        ws.stats.steps_accepted += 1;
                        if let Some(h) = &newton_hist {
                            h.observe((ws.stats.newton_iterations - newton_before) as f64);
                        }
                        if let Some(h) = &lte_hist {
                            h.observe(dt_try);
                        }
                        // Scalar engine has no lane: the ring still sees
                        // every accepted step so traces and drop counts
                        // stay engine-agnostic.
                        rotsv_obs::record_event(
                            rotsv_obs::EventKind::StepAccepted,
                            rotsv_obs::LANE_NONE,
                            (ws.stats.newton_iterations - newton_before) as u32,
                            dt_try,
                        );
                        record(t, &x, &mut time, &mut columns);
                        if let Some(StopCondition::RisingCrossings {
                            node,
                            threshold,
                            count,
                        }) = &spec.stop
                        {
                            let v_now = node_voltage(&x, *node);
                            let prev = stop_prev.replace(v_now).unwrap_or(v_now);
                            if prev < *threshold && v_now >= *threshold {
                                crossings_seen += 1;
                                if crossings_seen >= *count {
                                    stopped_early = true;
                                    break 'outer;
                                }
                            }
                        }
                        break;
                    }
                    Err(fail) => {
                        if let Some(err @ SpiceError::SingularSystem { .. }) = fail.error {
                            return Err(err);
                        }
                        ws.stats.steps_rejected += 1;
                        if adaptive.is_some() {
                            if dt_try <= dt_min * (1.0 + 1e-9) {
                                return Err(SpiceError::NoConvergence {
                                    analysis: "transient",
                                    time: t_next,
                                    iterations: fail.iterations,
                                });
                            }
                            dt_try = (dt_try * 0.5).max(dt_min);
                        } else {
                            halvings += 1;
                            if halvings > MAX_HALVINGS {
                                return Err(SpiceError::NoConvergence {
                                    analysis: "transient",
                                    time: t_next,
                                    iterations: fail.iterations,
                                });
                            }
                            dt_try *= 0.5;
                        }
                    }
                }
            }
        }

        let mut stats = ws.stats;
        stats.wall_seconds = wall_start.elapsed().as_secs_f64();
        Ok(TransientResult {
            time,
            columns,
            stopped_early,
            steps_taken: steps,
            stats,
        })
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
