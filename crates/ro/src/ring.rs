//! Ring-oscillator netlist construction and period measurement.

use std::sync::Arc;

use rotsv_mosfet::model::VariationSource;
use rotsv_mosfet::tech45::DriveStrength;
use rotsv_num::SymbolicCache;
use rotsv_spice::{
    transient_queue, transient_stream, Circuit, IntegrationMethod, NodeId, PeriodMeasurement,
    SolverStats, SourceWaveform, SpiceError, StepControl, TransientResult, TransientSpec,
};
use rotsv_stdcell::CellBuilder;
use rotsv_tsv::{Tsv, TsvFault, TsvModel, TsvTech};

/// Configuration of one ring-oscillator group.
#[derive(Debug, Clone)]
pub struct RoConfig {
    /// Number of I/O segments `N` in the loop (the paper uses N = 5).
    pub n_segments: usize,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// TSV technology parameters.
    pub tech: TsvTech,
    /// Electrical TSV discretization.
    pub tsv_model: TsvModel,
    /// Fault injected in each segment's TSV (`faults[i]` for segment i).
    pub faults: Vec<TsvFault>,
    /// Which TSVs are in the loop: `enabled[i] = true` ⇒ BY\[i\] = 0.
    pub enabled: Vec<bool>,
}

impl RoConfig {
    /// A fault-free configuration with `n_segments` segments at `vdd`,
    /// all TSVs bypassed.
    pub fn new(n_segments: usize, vdd: f64) -> Self {
        Self {
            n_segments,
            vdd,
            tech: TsvTech::default(),
            tsv_model: TsvModel::Lumped,
            faults: vec![TsvFault::None; n_segments],
            enabled: vec![false; n_segments],
        }
    }

    /// Enables exactly the segments listed in `indices` (bypasses the
    /// rest).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn enable_only(mut self, indices: &[usize]) -> Self {
        self.enabled = vec![false; self.n_segments];
        for &i in indices {
            assert!(i < self.n_segments, "segment index {i} out of range");
            self.enabled[i] = true;
        }
        self
    }

    /// Injects `fault` into segment `index`'s TSV.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn with_fault(mut self, index: usize, fault: TsvFault) -> Self {
        assert!(
            index < self.n_segments,
            "segment index {index} out of range"
        );
        self.faults[index] = fault;
        self
    }

    fn validate(&self) {
        assert!(self.n_segments >= 1, "a ring needs at least one segment");
        assert!(
            self.vdd > 0.0 && self.vdd.is_finite(),
            "vdd must be positive"
        );
        assert_eq!(self.faults.len(), self.n_segments, "faults length mismatch");
        assert_eq!(
            self.enabled.len(),
            self.n_segments,
            "enabled length mismatch"
        );
    }
}

/// Options for the transient period measurement.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOpts {
    /// Integration step, seconds. Under adaptive stepping this is the
    /// *reference* step: the controller starts here and stretches or
    /// shrinks around it as the local truncation error allows.
    pub dt: f64,
    /// Oscillation cycles to average over.
    pub cycles: usize,
    /// Startup cycles to discard.
    pub skip_cycles: usize,
    /// Hard simulation-time budget, seconds (reached only when the ring
    /// is stuck).
    pub max_time: f64,
    /// Integration method.
    pub method: IntegrationMethod,
    /// Time-step control. Defaults to LTE-adaptive stepping; switch to
    /// [`StepControl::Fixed`] (e.g. via [`MeasureOpts::fixed_step`]) to
    /// cross-check adaptive results against the uniform-grid reference.
    pub step: StepControl,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        Self {
            dt: 2e-12,
            cycles: 6,
            skip_cycles: 2,
            max_time: 60e-9,
            method: IntegrationMethod::Trapezoidal,
            step: StepControl::adaptive(),
        }
    }
}

impl MeasureOpts {
    /// A faster, coarser measurement for tests and benches.
    pub fn fast() -> Self {
        Self {
            dt: 4e-12,
            cycles: 4,
            skip_cycles: 2,
            max_time: 40e-9,
            ..Self::default()
        }
    }

    /// The same measurement on a fixed uniform grid — the cross-check
    /// mode the adaptive controller is validated against.
    pub fn fixed_step(mut self) -> Self {
        self.step = StepControl::Fixed;
        self
    }

    /// Checks the options' preconditions, as every measurement does
    /// before it simulates.
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `max_time` is not positive, or `cycles < 2`.
    pub fn validate(&self) {
        assert!(self.dt > 0.0, "dt must be positive");
        assert!(self.cycles >= 2, "need at least two cycles to average");
        assert!(self.max_time > 0.0, "max_time must be positive");
    }
}

/// Result of a period measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum OscillationOutcome {
    /// The ring oscillates; the extracted period statistics.
    Oscillating(PeriodMeasurement),
    /// The ring does not oscillate (stuck) — the behaviour of strong
    /// leakage faults.
    Stuck {
        /// Final voltage of the probe node.
        final_voltage: f64,
        /// Peak-to-peak swing observed on the probe node.
        swing: f64,
    },
}

impl OscillationOutcome {
    /// The mean period, or `None` when stuck.
    pub fn period(&self) -> Option<f64> {
        match self {
            OscillationOutcome::Oscillating(m) => Some(m.mean),
            OscillationOutcome::Stuck { .. } => None,
        }
    }

    /// `true` when the ring oscillates.
    pub fn is_oscillating(&self) -> bool {
        matches!(self, OscillationOutcome::Oscillating(_))
    }
}

/// Period extraction from a finished transient: everything it needs
/// (probe node, V_DD) is shared across a measurement group, so the
/// streaming path can extract outcomes without keeping the consumed
/// [`RingOscillator`] alive.
fn extract_outcome(
    res: &TransientResult,
    probe: NodeId,
    vdd: f64,
    opts: &MeasureOpts,
) -> (OscillationOutcome, SolverStats) {
    let stats = res.stats();
    let wave = res.waveform(probe);
    let outcome = match wave.period(vdd / 2.0, opts.skip_cycles) {
        Some(m) => OscillationOutcome::Oscillating(m),
        None => OscillationOutcome::Stuck {
            final_voltage: wave.final_value(),
            swing: wave.max() - wave.min(),
        },
    };
    (outcome, stats)
}

/// A fully built ring-oscillator DfT group.
#[derive(Debug)]
pub struct RingOscillator {
    circuit: Circuit,
    probe: NodeId,
    tsv_fronts: Vec<NodeId>,
    vdd: f64,
}

impl RingOscillator {
    /// Builds the circuit of Fig. 3 for `config`, drawing per-transistor
    /// process variation from `vary`.
    ///
    /// Build order is deterministic, so two builds with identical
    /// variation streams produce electrically identical dies — this is
    /// how the two-run ΔT procedure models measuring *the same die*
    /// twice.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (mismatched vector lengths,
    /// non-positive V_DD, out-of-range fault parameters).
    pub fn build(config: &RoConfig, vary: &mut dyn VariationSource) -> Self {
        config.validate();
        let n = config.n_segments;
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.add_vsource(vdd, Circuit::GROUND, SourceWaveform::dc(config.vdd));

        // Static control nets. OE = 1 (drivers on) and TE = 1 (loop
        // closed) during test mode; BY[i] per segment.
        let hi = |ckt: &mut Circuit, name: &str, v: f64| {
            let node = ckt.node(name);
            ckt.add_vsource(node, Circuit::GROUND, SourceWaveform::dc(v));
            node
        };
        let oe = hi(&mut ckt, "OE", config.vdd);
        let oe_b = hi(&mut ckt, "OE_B", 0.0);
        let te = hi(&mut ckt, "TE", config.vdd);
        let func_in = hi(&mut ckt, "func_in", 0.0);
        let by: Vec<NodeId> = (0..n)
            .map(|i| {
                let v = if config.enabled[i] { 0.0 } else { config.vdd };
                hi(&mut ckt, &format!("BY{i}"), v)
            })
            .collect();

        // Loop nodes.
        let loop_head = ckt.node("loop_head"); // output of the TE mux
        let loop_tail = ckt.node("loop_tail"); // output of the inverter
        let seg_in: Vec<NodeId> = (0..n)
            .map(|i| {
                if i == 0 {
                    loop_head
                } else {
                    ckt.node(&format!("seg{i}_in"))
                }
            })
            .collect();
        let seg_out: Vec<NodeId> = (0..n)
            .map(|i| {
                if i + 1 < n {
                    seg_in[i + 1]
                } else {
                    ckt.node("ring_out")
                }
            })
            .collect();
        let tsv_fronts: Vec<NodeId> = (0..n).map(|i| ckt.node(&format!("tsv{i}"))).collect();

        // Stamp the TSVs (with faults) first, then the cells.
        for (i, &front) in tsv_fronts.iter().enumerate() {
            let tsv = Tsv::new(config.tech, config.faults[i]);
            tsv.stamp(&mut ckt, front, config.tsv_model);
        }

        let mut cells = CellBuilder::new(&mut ckt, vdd, vary);
        // TE mux: functional input vs. oscillator feedback.
        cells.mux2("te_mux", func_in, loop_tail, te, loop_head);
        for i in 0..n {
            let recv_out = cells.circuit().node(&format!("recv{i}_out"));
            // Bidirectional I/O cell: tri-state driver onto the TSV …
            cells.tri_state_buffer(
                &format!("drv{i}"),
                seg_in[i],
                tsv_fronts[i],
                oe,
                oe_b,
                DriveStrength::X4,
            );
            // … and the receiver back "to core".
            cells.receiver_buffer(&format!("rcv{i}"), tsv_fronts[i], recv_out);
            // Bypass mux: BY[i] = 1 selects the direct path.
            cells.mux2(
                &format!("by{i}_mux"),
                recv_out,
                seg_in[i],
                by[i],
                seg_out[i],
            );
        }
        // The shared inverter closing the loop.
        cells.inverter("ring_inv", seg_out[n - 1], loop_tail, DriveStrength::X1);

        Self {
            circuit: ckt,
            probe: loop_tail,
            tsv_fronts,
            vdd: config.vdd,
        }
    }

    /// The node observed by the measurement logic (the inverter output).
    pub fn probe(&self) -> NodeId {
        self.probe
    }

    /// Front-side TSV nodes, one per segment.
    pub fn tsv_fronts(&self) -> &[NodeId] {
        &self.tsv_fronts
    }

    /// The built netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Shares a symbolic-analysis cache with this ring's transients:
    /// runs over the same matrix sparsity pattern reuse one fill-in
    /// analysis and pivot order instead of re-deriving them per run.
    pub fn set_symbolic_cache(&mut self, cache: Arc<SymbolicCache>) {
        self.circuit.set_symbolic_cache(cache);
    }

    /// Simulates the ring and extracts the oscillation period: a
    /// one-lane [`RingOscillator::measure_queue_with_stats`], the engine
    /// every ring measurement runs on.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`SpiceError`]); a non-oscillating
    /// ring is *not* an error — it returns
    /// [`OscillationOutcome::Stuck`].
    ///
    /// # Panics
    ///
    /// Panics if `opts` is invalid (non-positive step or budget).
    pub fn measure(&self, opts: &MeasureOpts) -> Result<OscillationOutcome, SpiceError> {
        let mut results = Self::measure_queue_with_stats(&[self], 1, opts)?;
        Ok(results.remove(0).0)
    }

    /// The transient specification of one period measurement.
    fn measure_spec(&self, opts: &MeasureOpts) -> TransientSpec {
        let needed = opts.skip_cycles + opts.cycles + 2;
        TransientSpec::new(opts.max_time, opts.dt)
            .record(&[self.probe])
            .method(opts.method)
            .step_control(opts.step)
            .stop_after_rising(self.probe, self.vdd / 2.0, needed)
    }

    /// Measures `ros` — same-topology rings differing only in element
    /// values (process variation, fault severity) — by streaming them
    /// through `lanes` SIMD lanes with mid-transient refill
    /// ([`transient_queue`], one [`transient_stream`] session over the
    /// rings' circuits): one shared symbolic analysis, one Newton
    /// loop evaluating all lanes (each on its own clock), and when a
    /// ring's crossing count completes, the next queued ring is seated
    /// into its lane immediately. Per-ring outcomes are bit-identical at
    /// any lane count.
    ///
    /// Returns one `(outcome, stats)` per ring, in input order. Empty
    /// input returns an empty vector.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; [`SpiceError::InvalidCircuit`] when
    /// the rings are not topology-identical.
    ///
    /// # Panics
    ///
    /// Panics if `opts` is invalid or the rings disagree on V_DD or
    /// probe node (different build configurations).
    pub fn measure_queue_with_stats(
        ros: &[&RingOscillator],
        lanes: usize,
        opts: &MeasureOpts,
    ) -> Result<Vec<(OscillationOutcome, SolverStats)>, SpiceError> {
        let Some(first) = ros.first() else {
            return Ok(Vec::new());
        };
        opts.validate();
        for ro in ros {
            assert_eq!(ro.vdd, first.vdd, "batched rings must share V_DD");
            assert_eq!(
                ro.probe, first.probe,
                "batched rings must share the probe node"
            );
        }
        let spec = first.measure_spec(opts);
        let circuits: Vec<&Circuit> = ros.iter().map(|ro| ro.circuit()).collect();
        let results = transient_queue(&circuits, lanes, &spec)?;
        Ok(results
            .iter()
            .map(|res| extract_outcome(res, first.probe, first.vdd, opts))
            .collect())
    }

    /// Open-ended streaming form of
    /// [`RingOscillator::measure_queue_with_stats`], built on
    /// [`transient_stream`]: retiring lanes refill from `source`
    /// instead of a fixed population, and each ring's `(outcome,
    /// stats)` is handed to `sink` the moment its measurement
    /// completes. This is the measurement loop a resident screening
    /// server drives — rings admitted while a group is mid-transient
    /// seat into retiring lanes without draining the batch.
    ///
    /// The rings are consumed: the engine owns each ring's circuit from
    /// the moment it is seated until its lane refills, so a session
    /// holds O(`lanes`) circuits however many rings it measures.
    /// `source` is polled non-blockingly at each retirement; returning
    /// `None` idles the lane for the rest of the session. `sink` receives
    /// the ring index (0-based over `initial` then each sourced ring, in
    /// pull order).
    /// Per-ring outcomes are bit-identical to every other measurement
    /// path over the same circuits. Returns the number of rings
    /// measured and delivered.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; [`SpiceError::InvalidCircuit`] when
    /// a sourced ring is not topology-identical to the first.
    ///
    /// # Panics
    ///
    /// Panics if `opts` is invalid or any ring disagrees with the first
    /// on V_DD or probe node (different build configurations).
    pub fn measure_stream_with_stats(
        initial: Vec<RingOscillator>,
        lanes: usize,
        opts: &MeasureOpts,
        source: &mut dyn FnMut() -> Option<RingOscillator>,
        sink: &mut dyn FnMut(usize, OscillationOutcome, SolverStats),
    ) -> Result<usize, SpiceError> {
        opts.validate();
        let mut initial = initial;
        if initial.is_empty() {
            match source() {
                Some(ro) => initial.push(ro),
                None => return Ok(0),
            }
        }
        let (probe, vdd) = (initial[0].probe, initial[0].vdd);
        let spec = initial[0].measure_spec(opts);
        let check = |ro: &RingOscillator| {
            assert_eq!(ro.vdd, vdd, "streamed rings must share V_DD");
            assert_eq!(ro.probe, probe, "streamed rings must share the probe node");
        };
        initial.iter().for_each(check);
        let circuits: Vec<Circuit> = initial.into_iter().map(|ro| ro.circuit).collect();
        let mut ckt_source = || {
            source().map(|ro| {
                check(&ro);
                ro.circuit
            })
        };
        let mut ckt_sink = |die: usize, res: TransientResult| {
            let (outcome, stats) = extract_outcome(&res, probe, vdd, opts);
            sink(die, outcome, stats);
        };
        transient_stream(circuits, lanes, &spec, &mut ckt_source, &mut ckt_sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsv_mosfet::model::Nominal;
    use rotsv_num::units::Ohms;

    fn measure(config: &RoConfig) -> OscillationOutcome {
        let ro = RingOscillator::build(config, &mut Nominal);
        ro.measure(&MeasureOpts::fast()).unwrap()
    }

    #[test]
    fn fault_free_ring_oscillates() {
        let out = measure(&RoConfig::new(2, 1.1).enable_only(&[0]));
        let m = match out {
            OscillationOutcome::Oscillating(m) => m,
            OscillationOutcome::Stuck {
                final_voltage,
                swing,
            } => {
                panic!("stuck at {final_voltage} (swing {swing})")
            }
        };
        // A couple of segments with a TSV load: period in the ns range.
        assert!(
            m.mean > 100e-12 && m.mean < 20e-9,
            "period {} out of range",
            m.mean
        );
        assert!(m.jitter < 0.05 * m.mean, "jitter {}", m.jitter);
    }

    #[test]
    fn enabling_tsv_slows_the_ring() {
        let t_bypassed = measure(&RoConfig::new(2, 1.1))
            .period()
            .expect("bypassed ring oscillates");
        let t_enabled = measure(&RoConfig::new(2, 1.1).enable_only(&[0]))
            .period()
            .expect("enabled ring oscillates");
        assert!(
            t_enabled > t_bypassed + 20e-12,
            "TSV load must add delay: enabled {t_enabled}, bypassed {t_bypassed}"
        );
    }

    #[test]
    fn resistive_open_speeds_up_the_enabled_ring() {
        let base = RoConfig::new(2, 1.1).enable_only(&[0]);
        let t_ff = measure(&base).period().unwrap();
        let t_open = measure(&base.clone().with_fault(
            0,
            TsvFault::ResistiveOpen {
                x: 0.5,
                r: Ohms(3000.0),
            },
        ))
        .period()
        .unwrap();
        assert!(
            t_open < t_ff,
            "open detaches load: open {t_open} vs fault-free {t_ff}"
        );
    }

    #[test]
    fn leakage_slows_the_enabled_ring() {
        let base = RoConfig::new(2, 1.1).enable_only(&[0]);
        let t_ff = measure(&base).period().unwrap();
        let t_leak = measure(
            &base
                .clone()
                .with_fault(0, TsvFault::Leakage { r: Ohms(3000.0) }),
        )
        .period()
        .unwrap();
        assert!(
            t_leak > t_ff,
            "leakage slows charging: leak {t_leak} vs fault-free {t_ff}"
        );
    }

    #[test]
    fn strong_leakage_sticks_the_ring() {
        let out = measure(
            &RoConfig::new(2, 1.1)
                .enable_only(&[0])
                .with_fault(0, TsvFault::Leakage { r: Ohms(300.0) }),
        );
        match out {
            OscillationOutcome::Stuck {
                final_voltage,
                swing,
            } => {
                // The loop latches at a rail (the paper's stuck-at-0 TSV
                // behaviour; the probe is an inverter output so it may
                // latch at either rail). No sustained oscillation.
                let near_rail = !(0.6..=0.9).contains(&final_voltage);
                assert!(near_rail, "final {final_voltage}");
                assert!(swing <= 1.2, "swing {swing}");
            }
            OscillationOutcome::Oscillating(m) => {
                panic!("expected stuck ring, oscillates at {}", m.mean)
            }
        }
    }

    #[test]
    fn fault_in_bypassed_segment_is_invisible() {
        let clean = measure(&RoConfig::new(2, 1.1)).period().unwrap();
        let with_hidden_fault =
            measure(&RoConfig::new(2, 1.1).with_fault(0, TsvFault::Leakage { r: Ohms(2000.0) }))
                .period()
                .unwrap();
        let rel = (with_hidden_fault - clean).abs() / clean;
        assert!(rel < 0.01, "bypassed fault changed period by {rel}");
    }

    /// The adaptive grid against the fixed grid on three leakage rings:
    /// the periods agree within 0.5 %, and the 300 Ω ring is stuck on
    /// both grids.
    #[test]
    fn adaptive_grid_matches_fixed_grid() {
        let opts = MeasureOpts::fast();
        for r in [300.0, 2000.0, 8000.0] {
            let config = RoConfig::new(1, 1.1)
                .enable_only(&[0])
                .with_fault(0, TsvFault::Leakage { r: Ohms(r) });
            let ro = RingOscillator::build(&config, &mut Nominal);
            let adaptive = ro.measure(&opts).unwrap();
            let fixed = ro.measure(&opts.fixed_step()).unwrap();
            match (adaptive.period(), fixed.period()) {
                (Some(t_a), Some(t_f)) => {
                    assert_ne!(r, 300.0, "the 300 Ω ring must stick");
                    let rel = (t_a - t_f).abs() / t_f;
                    assert!(
                        rel < 5e-3,
                        "{r} Ω: adaptive {t_a} vs fixed {t_f} (rel {rel})"
                    );
                }
                (None, None) => assert_eq!(r, 300.0, "only the 300 Ω ring sticks"),
                (a, f) => panic!("{r} Ω: adaptive {a:?} vs fixed {f:?} disagree on stuck"),
            }
        }
    }

    #[test]
    fn config_validation_catches_mismatch() {
        let mut config = RoConfig::new(2, 1.1);
        config.faults.pop();
        let r = std::panic::catch_unwind(|| RingOscillator::build(&config, &mut Nominal));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn enable_only_checks_bounds() {
        let _ = RoConfig::new(2, 1.1).enable_only(&[5]);
    }
}
