//! The two-run ΔT measurement procedure (Section IV-A of the paper).

use std::sync::Arc;

use rotsv_num::SymbolicCache;
use rotsv_ro::{MeasureOpts, OscillationOutcome, RingOscillator, RoConfig};
use rotsv_spice::{SolverStats, SpiceError};
use rotsv_tsv::{TsvFault, TsvModel, TsvTech};

use crate::die::Die;

/// The simulation setup shared by all measurements of one experiment.
#[derive(Debug, Clone)]
pub struct TestBench {
    /// Segments per ring-oscillator group (the paper's N; it uses 5).
    pub n_segments: usize,
    /// TSV technology parameters.
    pub tech: TsvTech,
    /// TSV discretization.
    pub tsv_model: TsvModel,
    /// Base measurement options at nominal voltage; scaled per voltage by
    /// [`TestBench::opts_for`].
    pub base_opts: MeasureOpts,
}

impl TestBench {
    /// The paper's configuration: N = 5 segments, lumped TSV model,
    /// default measurement accuracy.
    pub fn paper() -> Self {
        Self::new(5)
    }

    /// A bench with `n_segments` segments and default accuracy.
    pub fn new(n_segments: usize) -> Self {
        Self {
            n_segments,
            tech: TsvTech::default(),
            tsv_model: TsvModel::Lumped,
            base_opts: MeasureOpts::default(),
        }
    }

    /// A coarse, fast bench for tests and smoke runs.
    pub fn fast(n_segments: usize) -> Self {
        Self {
            base_opts: MeasureOpts::fast(),
            ..Self::new(n_segments)
        }
    }

    /// Measurement options scaled for supply voltage `vdd`: near-threshold
    /// operation slows the ring several-fold, so the step and the time
    /// budget stretch accordingly.
    pub fn opts_for(&self, vdd: f64) -> MeasureOpts {
        let nominal = rotsv_mosfet::tech45::VDD_NOMINAL;
        let stretch = (nominal / vdd).powi(3).clamp(1.0, 30.0);
        MeasureOpts {
            dt: self.base_opts.dt * stretch.sqrt(),
            max_time: self.base_opts.max_time * stretch,
            ..self.base_opts
        }
    }

    /// The `(enabled, bypassed)` ring configurations of the two-run
    /// procedure at `vdd`: run 1 with the TSVs in `under_test` enabled,
    /// run 2 with every TSV bypassed. This is the single source of the
    /// configuration construction — [`TestBench::measure_delta_t_stream`]
    /// and a screening server's streamed units both build from it, which
    /// is what makes their per-die results comparable bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `faults.len() != self.n_segments`, `under_test` is
    /// empty or out of range, or `vdd` is not positive.
    pub fn ro_configs(
        &self,
        vdd: f64,
        faults: &[TsvFault],
        under_test: &[usize],
    ) -> (RoConfig, RoConfig) {
        assert_eq!(
            faults.len(),
            self.n_segments,
            "fault list must cover every segment"
        );
        assert!(
            !under_test.is_empty(),
            "at least one TSV must be under test"
        );
        assert!(vdd > 0.0 && vdd.is_finite(), "vdd must be positive");
        let bypassed = RoConfig {
            n_segments: self.n_segments,
            vdd,
            tech: self.tech,
            tsv_model: self.tsv_model,
            faults: faults.to_vec(),
            enabled: vec![false; self.n_segments],
        };
        let enabled = bypassed.clone().enable_only(under_test);
        (enabled, bypassed)
    }

    /// Runs the full two-run procedure on one die at one voltage:
    /// run 1 with the TSVs listed in `under_test` enabled, run 2 with all
    /// TSVs bypassed, with the measurement options [`TestBench::opts_for`]
    /// gives `vdd`. The engine sessions are those of
    /// [`TestBench::measure_delta_t_with`].
    ///
    /// # Errors
    ///
    /// As [`TestBench::measure_delta_t_stream`].
    ///
    /// # Panics
    ///
    /// Panics if `faults.len() != self.n_segments`, `under_test` is empty
    /// or out of range, or `vdd` is not positive.
    pub fn measure_delta_t(
        &self,
        vdd: f64,
        faults: &[TsvFault],
        under_test: &[usize],
        die: &Die,
    ) -> Result<DeltaTMeasurement, SpiceError> {
        self.measure_delta_t_with(vdd, faults, under_test, die, &self.opts_for(vdd))
    }

    /// Like [`TestBench::measure_delta_t`] but with explicit measurement
    /// options (no voltage scaling applied). The die runs through
    /// [`TestBench::measure_delta_t_stream`] on two lanes, on a symbolic
    /// cache of its own: where the two runs would run one after the other
    /// on one thread (on a map's worker, or at a thread cap of 1), they
    /// share one two-lane session; with a second thread free, each run
    /// has a one-lane session and the two run concurrently.
    ///
    /// # Errors
    ///
    /// As [`TestBench::measure_delta_t_stream`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`TestBench::measure_delta_t`].
    pub fn measure_delta_t_with(
        &self,
        vdd: f64,
        faults: &[TsvFault],
        under_test: &[usize],
        die: &Die,
        opts: &MeasureOpts,
    ) -> Result<DeltaTMeasurement, SpiceError> {
        let cache = Arc::new(SymbolicCache::new());
        let mut m =
            self.measure_delta_t_stream(vdd, &[faults], under_test, &[die], 2, opts, &cache)?;
        Ok(m.remove(0))
    }

    /// The two-run procedure on a die population, the one implementation
    /// every ΔT measurement runs through: die `i` under its own fault
    /// list `per_die_faults[i]` (a homogeneous population repeats one
    /// list), with its own variation stream, identical in both runs.
    ///
    /// Rings stream, in order, through engine sessions of `lanes` SIMD
    /// lanes with mid-transient refill
    /// ([`RingOscillator::measure_stream_with_stats`]): rings are built
    /// as lanes free up and waveforms are consumed as rings retire, so a
    /// session holds O(`lanes`) waveforms (each ring's circuit and work
    /// counters are still kept until the session ends). Which rings share
    /// a session follows one rule:
    ///
    /// * **One shared session** when the two runs would otherwise run
    ///   one after the other on one thread
    ///   ([`rotsv_num::parallel::effective_threads`]`(2) == 1`: on a
    ///   map's worker, or at a thread cap of 1) *and* all
    ///   `2 · dies.len()` rings fit the lanes, so no ring waits for a
    ///   lane. Both runs' rings are then seated at once and one
    ///   super-iteration loop steps them all, which costs little more
    ///   per iteration than stepping one run.
    /// * **One session per run** otherwise. The two sessions are the two
    ///   items of a [`rotsv_num::parallel::try_parallel_map`]: concurrent
    ///   when a second thread is free, one after the other when not.
    ///   `lanes == dies.len()` is one fixed batch per run; `lanes == 1`
    ///   measures one die at a time.
    ///
    /// Every ring of both runs shares `cache`. The runs have the same
    /// topology (only the BY source *values* differ), and each run's
    /// first factorization happens at the x = 0 first Newton iterate,
    /// where the matrix values depend only on device parameters, so the
    /// second run reuses exactly the pivot order it would have derived
    /// itself. A population passes one cache to every call so it performs
    /// O(topologies) symbolic analyses, not O(dies). The lane engine steps
    /// every ring by its own policies, so a die's results are
    /// bit-identical at any lane count, thread cap, position and company,
    /// and on either session schedule.
    ///
    /// Returns one measurement per die, in input order. Empty input
    /// returns an empty vector.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors, the first failure in session order
    /// winning (the enabled run's before the bypassed run's):
    /// [`SpiceError::InvalidCircuit`] when the fault lists mix matrix
    /// topologies (every die must share one, e.g. all
    /// [`TsvFault::Leakage`] with different resistances), and
    /// [`SpiceError::WorkerPanic`] when a session panics, with index 0
    /// for the enabled run or the shared session and 1 for the bypassed
    /// run.
    ///
    /// # Panics
    ///
    /// On the calling thread, before any session starts: the conditions
    /// of [`TestBench::measure_delta_t`] for any die, invalid `opts`, or
    /// a `per_die_faults`/`dies` length mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_delta_t_stream(
        &self,
        vdd: f64,
        per_die_faults: &[&[TsvFault]],
        under_test: &[usize],
        dies: &[&Die],
        lanes: usize,
        opts: &MeasureOpts,
        cache: &Arc<SymbolicCache>,
    ) -> Result<Vec<DeltaTMeasurement>, SpiceError> {
        let span = rotsv_obs::span!("measure_delta_t", "vdd" = vdd);
        span.field("lanes", lanes as f64);
        span.field("dies", dies.len() as f64);
        assert_eq!(per_die_faults.len(), dies.len(), "one fault list per die");
        // Inside a session these would come back as a `WorkerPanic`.
        self.check_runs(vdd, per_die_faults, under_test, opts);
        let n = dies.len();
        let ring = |i: usize, enabled: bool| {
            let (en, by) = self.ro_configs(vdd, per_die_faults[i], under_test);
            let config = if enabled { en } else { by };
            let mut ro = RingOscillator::build(&config, &mut dies[i].variation());
            ro.set_symbolic_cache(Arc::clone(cache));
            ro
        };
        // One session measures every die once per entry of `runs` (true
        // for the enabled run): ring `j` is die `j % n` of run `runs[j / n]`.
        let session = |runs: &[bool]| {
            let total = runs.len() * n;
            let mut next = 0;
            let mut source = || {
                (next < total).then(|| {
                    next += 1;
                    ring((next - 1) % n, runs[(next - 1) / n])
                })
            };
            let mut out = vec![None; total];
            let mut sink = |j: usize, outcome, stats| out[j] = Some((outcome, stats));
            RingOscillator::measure_stream_with_stats(
                Vec::new(),
                lanes,
                opts,
                &mut source,
                &mut sink,
            )
            .map(|_| {
                out.into_iter()
                    .map(|r| r.expect("delivered"))
                    .collect::<Vec<_>>()
            })
        };
        let shared = rotsv_num::parallel::effective_threads(2) == 1 && 2 * n <= lanes;
        let sessions: &[(&str, &[bool])] = if shared {
            &[("runs_shared", &[true, false])]
        } else {
            &[("run_enabled", &[true]), ("run_bypassed", &[false])]
        };
        // Workers have no span stack: attach each session under the caller's.
        let parent = rotsv_obs::current_path();
        let results = rotsv_num::parallel::try_parallel_map(sessions.len(), |s| {
            let (name, runs) = sessions[s];
            let _span = rotsv_obs::span::SpanGuard::enter_under(parent, name);
            session(runs)
        });
        let mut rings = Vec::with_capacity(2 * n);
        for r in results {
            rings.extend(r??);
        }
        let bypassed = rings.split_off(n);
        Ok(pair_runs(rings, bypassed))
    }

    /// Checks the preconditions of measuring dies under `per_die_faults`
    /// with `opts`, panicking on the calling thread as
    /// [`TestBench::measure_delta_t`] documents. Population drivers call
    /// it before they fan dies out to workers.
    pub(crate) fn check_runs(
        &self,
        vdd: f64,
        per_die_faults: &[&[TsvFault]],
        under_test: &[usize],
        opts: &MeasureOpts,
    ) {
        opts.validate();
        for faults in per_die_faults {
            self.ro_configs(vdd, faults, under_test);
        }
    }
}

/// Zips the two runs' per-die results into measurements, each die's
/// work counters summed over both runs.
fn pair_runs(
    run1: Vec<(OscillationOutcome, SolverStats)>,
    run2: Vec<(OscillationOutcome, SolverStats)>,
) -> Vec<DeltaTMeasurement> {
    run1.into_iter()
        .zip(run2)
        .map(|((t1, stats1), (t2, stats2))| {
            let mut stats = stats1;
            stats.merge(&stats2);
            DeltaTMeasurement { t1, t2, stats }
        })
        .collect()
}

/// The pair of oscillation measurements of the two-run procedure.
#[derive(Debug, Clone)]
pub struct DeltaTMeasurement {
    /// Run 1: TSV(s) under test in the loop.
    pub t1: OscillationOutcome,
    /// Run 2: all TSVs bypassed (the reference).
    pub t2: OscillationOutcome,
    /// Numerical-work counters summed over both transient runs.
    pub stats: SolverStats,
}

/// Equality compares the *measurements* only; the work counters (which
/// include wall-clock time) are bookkeeping, not results.
impl PartialEq for DeltaTMeasurement {
    fn eq(&self, other: &Self) -> bool {
        self.t1 == other.t1 && self.t2 == other.t2
    }
}

impl DeltaTMeasurement {
    /// ΔT = T₁ − T₂, or `None` if either run did not oscillate.
    pub fn delta(&self) -> Option<f64> {
        Some(self.t1.period()? - self.t2.period()?)
    }

    /// `true` when run 1 is stuck while the reference oscillates — the
    /// signature of a strong leakage fault (stuck-at-0 TSV).
    pub fn is_stuck(&self) -> bool {
        !self.t1.is_oscillating() && self.t2.is_oscillating()
    }

    /// `true` when even the all-bypassed reference failed to oscillate,
    /// which indicates a defect in the DfT itself rather than a TSV.
    pub fn reference_failed(&self) -> bool {
        !self.t2.is_oscillating()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsv_num::units::Ohms;

    fn bench() -> TestBench {
        TestBench::fast(2)
    }

    #[test]
    fn fault_free_delta_is_positive_segment_delay() {
        let m = bench()
            .measure_delta_t(1.1, &[TsvFault::None; 2], &[0], &Die::nominal())
            .unwrap();
        let dt = m.delta().expect("both runs oscillate");
        assert!(
            dt > 100e-12 && dt < 2e-9,
            "segment delay {dt} out of expected range"
        );
        assert!(!m.is_stuck());
        assert!(!m.reference_failed());
    }

    #[test]
    fn measurement_is_deterministic_per_die() {
        let die = Die::new(rotsv_variation::ProcessSpread::paper(), 5);
        let b = bench();
        let faults = [TsvFault::None; 2];
        let a = b.measure_delta_t(1.1, &faults, &[0], &die).unwrap();
        let c = b.measure_delta_t(1.1, &faults, &[0], &die).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn open_reduces_and_leak_increases_delta() {
        let b = bench();
        let die = Die::nominal();
        let ff = [TsvFault::None; 2];
        let open = [
            TsvFault::ResistiveOpen {
                x: 0.5,
                r: Ohms(3e3),
            },
            TsvFault::None,
        ];
        let leak = [TsvFault::Leakage { r: Ohms(3e3) }, TsvFault::None];
        let d_ff = b
            .measure_delta_t(1.1, &ff, &[0], &die)
            .unwrap()
            .delta()
            .unwrap();
        let d_open = b
            .measure_delta_t(1.1, &open, &[0], &die)
            .unwrap()
            .delta()
            .unwrap();
        let d_leak = b
            .measure_delta_t(1.1, &leak, &[0], &die)
            .unwrap()
            .delta()
            .unwrap();
        assert!(d_open < d_ff, "open {d_open} !< fault-free {d_ff}");
        assert!(d_leak > d_ff, "leak {d_leak} !> fault-free {d_ff}");
    }

    #[test]
    fn strong_leak_reports_stuck() {
        let b = bench();
        let faults = [TsvFault::Leakage { r: Ohms(300.0) }, TsvFault::None];
        let m = b
            .measure_delta_t(1.1, &faults, &[0], &Die::nominal())
            .unwrap();
        assert!(m.is_stuck());
        assert_eq!(m.delta(), None);
        assert!(!m.reference_failed());
    }

    #[test]
    fn opts_scale_with_voltage() {
        let b = bench();
        let nominal = b.opts_for(1.1);
        let low = b.opts_for(0.7);
        assert!(low.max_time > 2.0 * nominal.max_time);
        assert!(low.dt > nominal.dt);
    }

    #[test]
    #[should_panic(expected = "fault list")]
    fn fault_length_mismatch_panics() {
        let _ = bench().measure_delta_t(1.1, &[TsvFault::None], &[0], &Die::nominal());
    }

    #[test]
    #[should_panic(expected = "at least one TSV")]
    fn empty_under_test_panics() {
        let _ = bench().measure_delta_t(1.1, &[TsvFault::None; 2], &[], &Die::nominal());
    }
}
