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
    /// configuration construction — every measurement path (scalar,
    /// batched, queued, and a screening server's streamed units) builds
    /// from it, which is what makes their per-die results comparable
    /// bit for bit.
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
    /// TSVs bypassed.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
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
    /// options (no voltage scaling applied).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
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
        let _span = rotsv_obs::span!("measure_delta_t", "vdd" = vdd);
        let opts = *opts;
        let (enabled_config, config) = self.ro_configs(vdd, faults, under_test);

        // Both runs share one symbolic-analysis cache. They have the same
        // topology (only the BY source *values* differ) and the first
        // factorization of each run happens at the x = 0 first Newton
        // iterate, where the matrix values depend only on device
        // parameters — identical for the same die. Run 2 therefore reuses
        // exactly the pivot order it would have derived itself: the
        // analysis counter halves, the waveform bits do not change.
        let cache = Arc::new(SymbolicCache::new());
        // Run 1: TSVs under test enabled.
        let mut ro1 = RingOscillator::build(&enabled_config, &mut die.variation());
        ro1.set_symbolic_cache(Arc::clone(&cache));
        let (t1, stats1) = ro1.measure_with_stats(&opts)?;
        // Run 2: all bypassed. Same die — identical variation stream.
        let mut ro2 = RingOscillator::build(&config, &mut die.variation());
        ro2.set_symbolic_cache(cache);
        let (t2, stats2) = ro2.measure_with_stats(&opts)?;
        let mut stats = stats1;
        stats.merge(&stats2);
        Ok(DeltaTMeasurement { t1, t2, stats })
    }

    /// The two-run procedure on `dies.len()` dies at once, using the
    /// batched transient engine: each run simulates all dies as lanes
    /// of one structure-of-arrays transient, each lane on its own clock
    /// ([`RingOscillator::measure_batch_with_stats`]). `cache` is owned
    /// by the caller: a population run passes the same cache to every
    /// batch so the whole population performs O(topologies) symbolic
    /// analyses, not O(samples).
    ///
    /// Returns one measurement per die, in input order. Empty input
    /// returns an empty vector.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Same conditions as [`TestBench::measure_delta_t`].
    pub fn measure_delta_t_batch_with(
        &self,
        vdd: f64,
        faults: &[TsvFault],
        under_test: &[usize],
        dies: &[&Die],
        opts: &MeasureOpts,
        cache: &Arc<SymbolicCache>,
    ) -> Result<Vec<DeltaTMeasurement>, SpiceError> {
        let span = rotsv_obs::span!("measure_delta_t_batch", "vdd" = vdd);
        span.field("lanes", dies.len() as f64);
        let per_die_faults = vec![faults; dies.len()];
        self.runs(vdd, &per_die_faults, under_test, dies, opts, cache)
            .lockstep()
    }

    /// The two-run procedure on a whole die queue streamed through
    /// `lanes` SIMD lanes with mid-transient refill
    /// ([`RingOscillator::measure_stream_with_stats`]): each run simulates
    /// the *entire* population in one transient, seating the next die
    /// into a lane the moment its predecessor's measurement completes.
    /// Per-die results are bit-identical to
    /// [`TestBench::measure_delta_t_batch_with`] over the same dies.
    ///
    /// The two runs are independent transients and run concurrently, as
    /// the two items of a [`rotsv_num::parallel::try_parallel_map`] (one
    /// after the other at a thread cap of 1). Each is streamed: rings are
    /// built as lanes free up and waveforms are consumed as dies retire,
    /// so a run holds O(`lanes`) waveforms (each die's ring circuit and
    /// work counters are still kept until the run ends).
    ///
    /// Returns one measurement per die, in input order. Empty input
    /// returns an empty vector.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors, the enabled run's first;
    /// [`SpiceError::WorkerPanic`] (index 0 = enabled run, 1 = bypassed)
    /// when a run panics.
    ///
    /// # Panics
    ///
    /// Same conditions as [`TestBench::measure_delta_t`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure_delta_t_queue_with(
        &self,
        vdd: f64,
        faults: &[TsvFault],
        under_test: &[usize],
        dies: &[&Die],
        lanes: usize,
        opts: &MeasureOpts,
        cache: &Arc<SymbolicCache>,
    ) -> Result<Vec<DeltaTMeasurement>, SpiceError> {
        let span = rotsv_obs::span!("measure_delta_t_queue", "vdd" = vdd);
        span.field("lanes", lanes as f64);
        span.field("dies", dies.len() as f64);
        let per_die_faults = vec![faults; dies.len()];
        self.runs(vdd, &per_die_faults, under_test, dies, opts, cache)
            .streamed(lanes)
    }

    /// Heterogeneous variant of [`TestBench::measure_delta_t_queue_with`]:
    /// die `i` carries its *own* fault list `per_die_faults[i]` — a fault
    /// sweep (e.g. a leakage-resistance ladder from hard-stuck to
    /// effectively fault-free) streamed through one refill queue instead
    /// of one transient per fault value; concurrent and streamed runs.
    ///
    /// Every die's faults must produce the same matrix topology (e.g.
    /// all [`rotsv_tsv::TsvFault::Leakage`] with different resistances):
    /// the queue engine asserts topology uniformity across seated lanes.
    /// Per-die results are bit-identical to measuring each die alone.
    ///
    /// # Errors
    ///
    /// As [`TestBench::measure_delta_t_queue_with`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`TestBench::measure_delta_t`], plus a
    /// `per_die_faults`/`dies` length mismatch or mixed-topology faults.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_delta_t_queue_hetero_with(
        &self,
        vdd: f64,
        per_die_faults: &[&[TsvFault]],
        under_test: &[usize],
        dies: &[&Die],
        lanes: usize,
        opts: &MeasureOpts,
        cache: &Arc<SymbolicCache>,
    ) -> Result<Vec<DeltaTMeasurement>, SpiceError> {
        let span = rotsv_obs::span!("measure_delta_t_queue_hetero", "vdd" = vdd);
        span.field("lanes", lanes as f64);
        span.field("dies", dies.len() as f64);
        self.runs(vdd, per_die_faults, under_test, dies, opts, cache)
            .streamed(lanes)
    }

    /// Heterogeneous variant of [`TestBench::measure_delta_t_batch_with`]
    /// (fixed lockstep batch, no refill): die `i` carries its own fault
    /// list. Same topology-uniformity requirement as
    /// [`TestBench::measure_delta_t_queue_hetero_with`]; the chunked
    /// cross-check for the heterogeneous refill benchmark.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Same conditions as
    /// [`TestBench::measure_delta_t_queue_hetero_with`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure_delta_t_batch_hetero_with(
        &self,
        vdd: f64,
        per_die_faults: &[&[TsvFault]],
        under_test: &[usize],
        dies: &[&Die],
        opts: &MeasureOpts,
        cache: &Arc<SymbolicCache>,
    ) -> Result<Vec<DeltaTMeasurement>, SpiceError> {
        let span = rotsv_obs::span!("measure_delta_t_batch_hetero", "vdd" = vdd);
        span.field("lanes", dies.len() as f64);
        self.runs(vdd, per_die_faults, under_test, dies, opts, cache)
            .lockstep()
    }

    /// The two runs over `dies`, die `i` under `per_die_faults[i]`.
    fn runs<'a>(
        &'a self,
        vdd: f64,
        per_die_faults: &'a [&'a [TsvFault]],
        under_test: &'a [usize],
        dies: &'a [&'a Die],
        opts: &'a MeasureOpts,
        cache: &'a Arc<SymbolicCache>,
    ) -> TwoRuns<'a> {
        assert_eq!(
            per_die_faults.len(),
            dies.len(),
            "one fault list per die in a heterogeneous sweep"
        );
        TwoRuns {
            bench: self,
            vdd,
            per_die_faults,
            under_test,
            dies,
            opts,
            cache,
        }
    }
}

/// The two runs of the procedure over a die population, all rings on one
/// symbolic cache: die `i` under `per_die_faults[i]`, with its own
/// variation stream (identical in both runs).
struct TwoRuns<'a> {
    bench: &'a TestBench,
    vdd: f64,
    per_die_faults: &'a [&'a [TsvFault]],
    under_test: &'a [usize],
    dies: &'a [&'a Die],
    opts: &'a MeasureOpts,
    cache: &'a Arc<SymbolicCache>,
}

impl TwoRuns<'_> {
    /// Die `i`'s ring for run 1 (`enabled`) or run 2.
    fn ring(&self, i: usize, enabled: bool) -> RingOscillator {
        let (en, by) = self
            .bench
            .ro_configs(self.vdd, self.per_die_faults[i], self.under_test);
        let config = if enabled { en } else { by };
        let mut ro = RingOscillator::build(&config, &mut self.dies[i].variation());
        ro.set_symbolic_cache(Arc::clone(self.cache));
        ro
    }

    /// Both runs as one fixed lockstep batch each, run 1 then run 2: the
    /// sequential oracle the streamed form is checked against.
    fn lockstep(&self) -> Result<Vec<DeltaTMeasurement>, SpiceError> {
        let run = |enabled: bool| {
            let ros: Vec<_> = (0..self.dies.len())
                .map(|i| self.ring(i, enabled))
                .collect();
            let refs: Vec<&RingOscillator> = ros.iter().collect();
            RingOscillator::measure_batch_with_stats(&refs, self.opts)
        };
        Ok(pair_runs(run(true)?, run(false)?))
    }

    /// Both runs at once, each streaming the dies through `lanes` refill
    /// lanes. The runs share only the cache, which locks while it
    /// analyses (one analysis per topology still), and the engine is
    /// composition-independent, so neither run's bits depend on timing.
    fn streamed(&self, lanes: usize) -> Result<Vec<DeltaTMeasurement>, SpiceError> {
        // Preconditions panic here, on the caller's thread, as in the
        // lockstep form; inside a run they would come back as a
        // `WorkerPanic`.
        self.opts.validate();
        for faults in self.per_die_faults {
            self.bench.ro_configs(self.vdd, faults, self.under_test);
        }
        // Workers have no span stack: attach each run under the caller's.
        let parent = rotsv_obs::current_path();
        let runs = rotsv_num::parallel::try_parallel_map(2, |run| {
            let enabled = run == 0;
            let name = ["run_enabled", "run_bypassed"][run];
            let _span = rotsv_obs::span::SpanGuard::enter_under(parent, name);
            let mut next = 0;
            let mut source = || {
                (next < self.dies.len()).then(|| {
                    next += 1;
                    self.ring(next - 1, enabled)
                })
            };
            let mut out = vec![None; self.dies.len()];
            let mut sink = |i: usize, outcome, stats| out[i] = Some((outcome, stats));
            RingOscillator::measure_stream_with_stats(
                Vec::new(),
                lanes,
                self.opts,
                &mut source,
                &mut sink,
            )
            .map(|_| {
                out.into_iter()
                    .map(|r| r.expect("delivered"))
                    .collect::<Vec<_>>()
            })
        });
        let mut runs = runs.into_iter().map(|r| r?);
        Ok(pair_runs(
            runs.next().expect("run 1")?,
            runs.next().expect("run 2")?,
        ))
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
