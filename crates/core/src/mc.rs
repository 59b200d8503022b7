//! Monte-Carlo populations of ΔT measurements.
//!
//! The paper's Figs. 7, 9 and 10 plot the *spread* of ΔT over random
//! process variation for fault-free and faulty dies. This module runs
//! those populations — in parallel, reproducibly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rotsv_num::SymbolicCache;
use rotsv_spice::{SolverStats, SpiceError};
use rotsv_tsv::TsvFault;
use rotsv_variation::ProcessSpread;

use crate::die::Die;
use crate::measure::{DeltaTMeasurement, TestBench};

/// How a Monte-Carlo population is scheduled onto the lane engine.
///
/// Every variant is only a schedule of
/// [`TestBench::measure_delta_t_stream`] calls, and the lane engine steps
/// each die by its own policies, so a die's ΔT is `f64::to_bits`-identical
/// on every variant, lane count and thread cap: engine selection changes
/// wall time, never a number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McEngine {
    /// One die per one-lane session, each die on a symbolic cache of its
    /// own, dies spread over threads — the baseline the lane-parallel
    /// schedules are timed against. It calls
    /// [`TestBench::measure_delta_t_stream`] with one lane rather than
    /// [`TestBench::measure_delta_t`], whose two lanes let a worker step
    /// both runs in one two-lane session: the baseline stays one ring
    /// per super-iteration, which is what `bench_solver`'s K = 16/32
    /// speedup floors divide by.
    Scalar,
    /// [`McEngine::Batched`] at the lane width the measured lane table
    /// ([`set_auto_lane_table`]) assigns to the population size, capped
    /// at the population — the default for the figure experiments.
    Auto,
    /// Streams the whole population, in cohort order, through `lanes`
    /// structure-of-arrays SIMD lanes in one session per run, with
    /// mid-transient lane refill (see `rotsv_spice::transient_stream`).
    Batched {
        /// SIMD lanes the queue streams through (K).
        lanes: usize,
    },
    /// Fixed batches of up to `lanes` dies per session in sample order,
    /// each batch at as many lanes as it has dies, so no refill — the v1
    /// scheduling, kept as the cross-check for the refill scheduler.
    BatchedChunked {
        /// Dies simulated per batch (K).
        lanes: usize,
    },
}

/// High bit of [`ENGINE_LANES`] marks the chunked (no-refill) variant.
const CHUNKED_FLAG: usize = 1 << (usize::BITS - 1);

/// Process-wide engine selection; 0 encodes [`McEngine::Scalar`],
/// `usize::MAX` encodes [`McEngine::Auto`], and otherwise the batched
/// lane count, with [`CHUNKED_FLAG`] set for the chunked variant.
static ENGINE_LANES: AtomicUsize = AtomicUsize::new(0);

/// Measured lane table for [`McEngine::Auto`]: rows of
/// `(population_floor, lanes)`. Empty means "use the built-in default"
/// ([`DEFAULT_AUTO_LANE_TABLE`]).
static AUTO_LANE_TABLE: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());

/// The conservative built-in lane table: up to 16 lanes at any
/// population size, matching the pre-measurement behavior. The
/// experiments binary overwrites it with the table derived from
/// `bench_solver`'s `batched_vs_scalar` rows when a benchmark baseline
/// is available (wider K rows only enter once measured faster).
pub const DEFAULT_AUTO_LANE_TABLE: &[(usize, usize)] = &[(1, 16)];

/// Installs the measured lane table used by [`McEngine::Auto`]: each
/// row `(floor, lanes)` says "populations of at least `floor` samples
/// run best at `lanes` lanes". Rows are sorted by floor; the resolver
/// picks the last row the population reaches and never exceeds the
/// population itself. An empty table restores
/// [`DEFAULT_AUTO_LANE_TABLE`].
pub fn set_auto_lane_table(table: &[(usize, usize)]) {
    let mut t: Vec<(usize, usize)> = table
        .iter()
        .copied()
        .filter(|&(_, lanes)| lanes >= 1)
        .collect();
    t.sort_unstable();
    *AUTO_LANE_TABLE.lock().expect("lane table lock") = t;
}

/// The lane table [`McEngine::Auto`] currently resolves against.
pub fn auto_lane_table() -> Vec<(usize, usize)> {
    let t = AUTO_LANE_TABLE.lock().expect("lane table lock");
    if t.is_empty() {
        DEFAULT_AUTO_LANE_TABLE.to_vec()
    } else {
        t.clone()
    }
}

/// The lane width [`McEngine::Auto`] picks for a population of
/// `samples` dies (before capping at the population size).
fn auto_lanes_for(samples: usize) -> usize {
    let mut lanes = 1;
    for (floor, l) in auto_lane_table() {
        if samples >= floor {
            lanes = l;
        } else {
            break;
        }
    }
    lanes
}

/// Installs the measured Auto lane table ([`set_auto_lane_table`]) from
/// a `bench_solver` baseline file (`BENCH_solver.json`'s
/// `batched_refill.auto_lane_table` member). Returns `true` when a table
/// was installed; a missing or malformed file leaves the default
/// untouched. Both the experiments binary and the screening server load
/// through here so every frontend resolves `Auto` the same way.
pub fn load_measured_tuning(path: &std::path::Path) -> bool {
    use rotsv_obs::json::Json;
    let Ok(text) = std::fs::read_to_string(path) else {
        return false;
    };
    let Ok(doc) = rotsv_obs::json::parse(&text) else {
        return false;
    };
    let Some(rows) = doc
        .get("batched_refill")
        .and_then(|r| r.get("auto_lane_table"))
        .and_then(Json::as_arr)
    else {
        return false;
    };
    let mut table = Vec::new();
    for row in rows {
        let Some(pair) = row.as_arr() else { continue };
        let floor = pair.first().and_then(Json::as_f64);
        let lanes = pair.get(1).and_then(Json::as_f64);
        if let (Some(f), Some(l)) = (floor, lanes) {
            if f >= 1.0 && f.fract() == 0.0 && l >= 1.0 && l.fract() == 0.0 {
                table.push((f as usize, l as usize));
            }
        }
    }
    let installed = !table.is_empty();
    if installed {
        set_auto_lane_table(&table);
    }
    installed
}

/// Selects the engine [`delta_t_population`] uses process-wide.
///
/// Backs the experiments binary's `--engine` flag (mirroring
/// [`rotsv_num::parallel::set_thread_limit`] for `--threads`). Ledgered
/// campaigns and golden checks measure each sample with
/// [`TestBench::measure_delta_t`] and ignore this setting; as every
/// engine gives the same bits, their samples equal any population's.
///
/// # Panics
///
/// Panics on a zero or flag-colliding lane count.
pub fn set_mc_engine(engine: McEngine) {
    let check = |lanes: usize| {
        assert!(lanes >= 1, "a batch needs at least one lane");
        assert!(lanes < CHUNKED_FLAG, "lane count out of range");
        lanes
    };
    let encoded = match engine {
        McEngine::Scalar => 0,
        McEngine::Auto => usize::MAX,
        McEngine::Batched { lanes } => check(lanes),
        McEngine::BatchedChunked { lanes } => check(lanes) | CHUNKED_FLAG,
    };
    ENGINE_LANES.store(encoded, Ordering::Relaxed);
}

/// The engine [`delta_t_population`] currently uses.
pub fn mc_engine() -> McEngine {
    match ENGINE_LANES.load(Ordering::Relaxed) {
        0 => McEngine::Scalar,
        usize::MAX => McEngine::Auto,
        v if v & CHUNKED_FLAG != 0 => McEngine::BatchedChunked {
            lanes: v & !CHUNKED_FLAG,
        },
        lanes => McEngine::Batched { lanes },
    }
}

/// Resolves [`McEngine::Auto`] for a population of `samples` dies: the
/// refill queue at the lane width the measured lane table
/// ([`set_auto_lane_table`]) assigns to this population size, capped at
/// the population itself. Explicit engine choices pass through unchanged.
pub fn resolve_engine(engine: McEngine, samples: usize) -> McEngine {
    match engine {
        McEngine::Auto => McEngine::Batched {
            lanes: samples.min(auto_lanes_for(samples)),
        },
        other => other,
    }
}

/// A Monte-Carlo population of ΔT values.
#[derive(Debug, Clone)]
pub struct McDeltaT {
    /// ΔT of every die whose both runs oscillated, seconds.
    pub deltas: Vec<f64>,
    /// Dies whose run 1 was stuck (detected as strong leakage).
    pub stuck_count: usize,
    /// Dies whose reference run failed (should be zero; nonzero values
    /// flag a broken configuration).
    pub reference_failures: usize,
    /// Numerical-work counters summed over every die's two transient
    /// runs. `wall_seconds` is summed solver time, which under parallel
    /// sampling exceeds elapsed wall time.
    pub stats: SolverStats,
}

/// Equality compares the population itself; the work counters (which
/// include wall-clock time) are bookkeeping, not results.
impl PartialEq for McDeltaT {
    fn eq(&self, other: &Self) -> bool {
        self.deltas == other.deltas
            && self.stuck_count == other.stuck_count
            && self.reference_failures == other.reference_failures
    }
}

impl McDeltaT {
    /// Total number of dies simulated.
    pub fn total(&self) -> usize {
        self.deltas.len() + self.stuck_count + self.reference_failures
    }

    /// Fraction of dies that produced a usable ΔT.
    pub fn oscillating_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.deltas.len() as f64 / self.total() as f64
        }
    }
}

/// Runs `samples` Monte-Carlo dies of the given configuration and
/// collects the ΔT population.
///
/// Sample `i` is the die `Die::new(spread, derived_seed(seed, i))`, so
/// fault-free and faulty populations built from the same `seed` use the
/// *same dies* — matching the paper's methodology of comparing spreads
/// under identical variation.
///
/// # Errors
///
/// Propagates the first simulator error encountered.
///
/// # Panics
///
/// Panics if `samples` is zero or the bench/fault configuration is
/// inconsistent.
pub fn delta_t_population(
    bench: &TestBench,
    vdd: f64,
    faults: &[TsvFault],
    under_test: &[usize],
    spread: ProcessSpread,
    seed: u64,
    samples: usize,
) -> Result<McDeltaT, SpiceError> {
    delta_t_population_with_engine(
        bench,
        vdd,
        faults,
        under_test,
        spread,
        seed,
        samples,
        mc_engine(),
    )
}

/// [`delta_t_population`] on an explicitly chosen engine, ignoring the
/// process-wide [`set_mc_engine`] selection. Sample `i` is always the
/// die `Die::new(spread, die_seed(seed, i))`, and its ΔT is
/// bit-identical on every engine.
///
/// # Errors
///
/// Propagates the first simulator error encountered.
///
/// # Panics
///
/// Panics, on the calling thread before any die is simulated, if
/// `samples` is zero or the bench/fault configuration is inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn delta_t_population_with_engine(
    bench: &TestBench,
    vdd: f64,
    faults: &[TsvFault],
    under_test: &[usize],
    spread: ProcessSpread,
    seed: u64,
    samples: usize,
    engine: McEngine,
) -> Result<McDeltaT, SpiceError> {
    let span = rotsv_obs::span!("mc_population", "samples" = samples);
    span.field("vdd", vdd);
    let per_die_faults = vec![faults; samples];
    measure_population(
        bench,
        vdd,
        &per_die_faults,
        under_test,
        spread,
        seed,
        engine,
    )
}

/// A heterogeneous fault-sweep population: die `i` is measured under its
/// *own* fault list `per_die_faults[i]` (all lists must share one matrix
/// topology, e.g. a [`TsvFault::Leakage`] resistance ladder from
/// hard-stuck to effectively fault-free). Sample `i` is still the die
/// `Die::new(spread, die_seed(seed, i))`, so the sweep reuses the same
/// dies as a homogeneous population with the same seed.
///
/// On the batched engines the whole sweep streams through one refill
/// queue (or fixed chunks) per run — stuck dies retire their lanes
/// early, which is exactly the workload where mid-transient refill and
/// cohort scheduling pay off over chunking.
///
/// # Errors
///
/// Propagates the first simulator error encountered, including
/// [`SpiceError::InvalidCircuit`] when the fault lists mix matrix
/// topologies on a batched engine.
///
/// # Panics
///
/// Panics if `per_die_faults` is empty or its lists disagree with the
/// bench segment count.
pub fn delta_t_fault_sweep(
    bench: &TestBench,
    vdd: f64,
    per_die_faults: &[Vec<TsvFault>],
    under_test: &[usize],
    spread: ProcessSpread,
    seed: u64,
) -> Result<McDeltaT, SpiceError> {
    delta_t_fault_sweep_with_engine(
        bench,
        vdd,
        per_die_faults,
        under_test,
        spread,
        seed,
        mc_engine(),
    )
}

/// [`delta_t_fault_sweep`] on an explicitly chosen engine, ignoring the
/// process-wide [`set_mc_engine`] selection; each die's ΔT is
/// bit-identical on every engine.
///
/// # Errors
///
/// As [`delta_t_fault_sweep`].
///
/// # Panics
///
/// Same conditions as [`delta_t_fault_sweep`], on the calling thread
/// before any die is simulated.
pub fn delta_t_fault_sweep_with_engine(
    bench: &TestBench,
    vdd: f64,
    per_die_faults: &[Vec<TsvFault>],
    under_test: &[usize],
    spread: ProcessSpread,
    seed: u64,
    engine: McEngine,
) -> Result<McDeltaT, SpiceError> {
    let span = rotsv_obs::span!("mc_fault_sweep", "samples" = per_die_faults.len());
    span.field("vdd", vdd);
    let per_die_faults: Vec<&[TsvFault]> = per_die_faults.iter().map(Vec::as_slice).collect();
    measure_population(
        bench,
        vdd,
        &per_die_faults,
        under_test,
        spread,
        seed,
        engine,
    )
}

/// The one population driver: sample `i` is the die
/// `Die::new(spread, die_seed(seed, i))` under `per_die_faults[i]`, and
/// `engine` only decides how the samples are scheduled onto
/// [`TestBench::measure_delta_t_stream`]. The preconditions of every
/// die are checked here, on the caller, before any fan-out, so they
/// panic on every engine alike.
fn measure_population(
    bench: &TestBench,
    vdd: f64,
    per_die_faults: &[&[TsvFault]],
    under_test: &[usize],
    spread: ProcessSpread,
    seed: u64,
    engine: McEngine,
) -> Result<McDeltaT, SpiceError> {
    let samples = per_die_faults.len();
    assert!(samples > 0, "need at least one sample");
    let opts = bench.opts_for(vdd);
    bench.check_runs(vdd, per_die_faults, under_test, &opts);
    let die = |i| Die::new(spread, die_seed(seed, i));
    // The batched schedules share one symbolic cache over every session
    // of both runs, so they perform O(topologies) symbolic analyses.
    let cache = Arc::new(SymbolicCache::new());
    let stream = |indices: &[usize], lanes: usize, cache: &Arc<SymbolicCache>| {
        let dies: Vec<Die> = indices.iter().map(|&i| die(i)).collect();
        let dies: Vec<&Die> = dies.iter().collect();
        let faults: Vec<&[TsvFault]> = indices.iter().map(|&i| per_die_faults[i]).collect();
        bench.measure_delta_t_stream(vdd, &faults, under_test, &dies, lanes, &opts, cache)
    };
    let measurements = match resolve_engine(engine, samples) {
        McEngine::Scalar => {
            // Workers have no span stack of their own: capture this path
            // so each sample's spans attach under the population's.
            let parent = rotsv_obs::current_path();
            let results = rotsv_num::parallel::try_parallel_map(samples, |i| {
                let sample_span = rotsv_obs::span::SpanGuard::enter_under(parent, "mc_sample");
                sample_span.field("i", i as f64);
                let own_cache = Arc::new(SymbolicCache::new());
                stream(&[i], 1, &own_cache).map(|mut m| m.remove(0))
            });
            results
                .into_iter()
                .map(|r| r?)
                .collect::<Result<Vec<_>, _>>()?
        }
        McEngine::Auto => unreachable!("resolve_engine returns a concrete engine"),
        McEngine::Batched { lanes } => {
            let order = cohort_order(spread, seed, samples);
            let mut out: Vec<Option<DeltaTMeasurement>> = vec![None; samples];
            for (&i, m) in order.iter().zip(stream(&order, lanes, &cache)?) {
                out[i] = Some(m);
            }
            out.into_iter()
                .map(|m| m.expect("every sample measured exactly once"))
                .collect()
        }
        McEngine::BatchedChunked { lanes } => {
            let all: Vec<usize> = (0..samples).collect();
            let mut out = Vec::with_capacity(samples);
            for chunk in all.chunks(lanes.max(1)) {
                out.extend(stream(chunk, chunk.len(), &cache)?);
            }
            out
        }
    };
    Ok(collect_population(measurements))
}

/// Folds per-die measurements into an [`McDeltaT`] and feeds the
/// population metrics.
fn collect_population(measurements: Vec<DeltaTMeasurement>) -> McDeltaT {
    let mut out = McDeltaT {
        deltas: Vec::with_capacity(measurements.len()),
        stuck_count: 0,
        reference_failures: 0,
        stats: SolverStats::default(),
    };
    for m in measurements {
        out.stats.merge(&m.stats);
        if m.reference_failed() {
            out.reference_failures += 1;
        } else if m.is_stuck() {
            out.stuck_count += 1;
        } else {
            out.deltas
                .push(m.delta().expect("oscillating measurement has a delta"));
        }
    }
    if rotsv_obs::metrics_enabled() {
        let hist = rotsv_obs::histogram("mc.delta_t_seconds");
        for &d in &out.deltas {
            hist.observe(d);
        }
        rotsv_obs::counter("mc.samples").add(out.total() as u64);
        rotsv_obs::counter("mc.stuck").add(out.stuck_count as u64);
    }
    out
}

/// Orders the sample indices into variation cohorts: dies of similar
/// variation magnitude become lane neighbors in the refill queue, so
/// co-resident lanes propose similar step sizes and drain at similar
/// rates. The per-die trajectories are composition-independent (the
/// engine steps every lane by its own policies), so cohort order is
/// pure scheduling — results are un-permuted back to sample order.
///
/// The score is the magnitude of the die's first threshold-voltage
/// delta: the dominant variation axis, drawn from the same
/// index-deterministic stream the circuit build replays.
fn cohort_order(spread: ProcessSpread, seed: u64, samples: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..samples).collect();
    let score: Vec<f64> = (0..samples)
        .map(|i| Die::new(spread, die_seed(seed, i)).first_delta().dvth.abs())
        .collect();
    order.sort_by(|&a, &b| score[a].total_cmp(&score[b]).then(a.cmp(&b)));
    order
}

/// Deterministic per-sample die seed.
pub fn die_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsv_num::units::Ohms;

    #[test]
    fn population_is_reproducible() {
        let bench = TestBench::fast(1);
        let faults = [TsvFault::None];
        let a =
            delta_t_population(&bench, 1.1, &faults, &[0], ProcessSpread::paper(), 7, 4).unwrap();
        let b =
            delta_t_population(&bench, 1.1, &faults, &[0], ProcessSpread::paper(), 7, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.reference_failures, 0);
    }

    #[test]
    fn variation_spreads_the_population() {
        let bench = TestBench::fast(1);
        let faults = [TsvFault::None];
        let pop =
            delta_t_population(&bench, 1.1, &faults, &[0], ProcessSpread::paper(), 11, 4).unwrap();
        assert_eq!(pop.deltas.len(), 4);
        let s = rotsv_num::stats::Summary::of(&pop.deltas);
        assert!(s.std_dev > 0.0, "variation must spread the deltas");
    }

    #[test]
    fn stuck_dies_are_counted_not_lost() {
        let bench = TestBench::fast(1);
        let faults = [TsvFault::Leakage { r: Ohms(300.0) }];
        let pop =
            delta_t_population(&bench, 1.1, &faults, &[0], ProcessSpread::none(), 3, 2).unwrap();
        assert_eq!(pop.stuck_count, 2);
        assert!(pop.deltas.is_empty());
        assert_eq!(pop.oscillating_fraction(), 0.0);
    }

    /// The solver work counters must not depend on how the population is
    /// scheduled across threads — every sample derives its die from its
    /// index, so the numerical work is identical whether the map runs on
    /// one thread or many. (`wall_seconds` is measured time and is
    /// deliberately excluded.)
    #[test]
    fn solver_counters_identical_across_thread_counts() {
        use rotsv_num::parallel::set_thread_limit;
        use std::num::NonZeroUsize;

        let bench = TestBench::fast(1);
        let faults = [TsvFault::None];
        let run = || {
            delta_t_population(&bench, 1.1, &faults, &[0], ProcessSpread::paper(), 13, 6).unwrap()
        };
        set_thread_limit(NonZeroUsize::new(1));
        let serial = run();
        set_thread_limit(None);
        let parallel = run();

        assert_eq!(serial, parallel, "populations must match exactly");
        let (a, b) = (serial.stats, parallel.stats);
        assert_eq!(a.symbolic_analyses, b.symbolic_analyses);
        assert_eq!(a.factorizations, b.factorizations);
        assert_eq!(a.solves, b.solves);
        assert_eq!(a.newton_iterations, b.newton_iterations);
        assert_eq!(a.steps_accepted, b.steps_accepted);
        assert_eq!(a.steps_rejected, b.steps_rejected);
    }

    /// Every engine the exact-agreement contract covers.
    const ENGINES: [McEngine; 6] = [
        McEngine::Scalar,
        McEngine::Auto,
        McEngine::Batched { lanes: 1 },
        McEngine::Batched { lanes: 2 },
        McEngine::Batched { lanes: 4 },
        McEngine::BatchedChunked { lanes: 2 },
    ];

    /// Runs `run` on every engine of [`ENGINES`] at thread caps 1 and 2
    /// and asserts that each die's ΔT bits, the stuck and reference
    /// counts, and the stepping counters all equal the scalar run's.
    /// Returns the scalar run.
    fn assert_engines_bit_identical(run: impl Fn(McEngine) -> McDeltaT) -> McDeltaT {
        use rotsv_num::parallel::set_thread_limit;
        use std::num::NonZeroUsize;

        let bits = |p: &McDeltaT| p.deltas.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let reference = run(McEngine::Scalar);
        for cap in [1, 2] {
            for engine in ENGINES {
                set_thread_limit(NonZeroUsize::new(cap));
                let got = run(engine);
                set_thread_limit(None);
                let at = format!("{engine:?} at thread cap {cap}");
                assert_eq!(bits(&got), bits(&reference), "{at}: ΔT bits");
                assert_eq!(got.stuck_count, reference.stuck_count, "{at}: stuck");
                assert_eq!(
                    got.reference_failures, reference.reference_failures,
                    "{at}: reference failures"
                );
                let (a, b) = (&got.stats, &reference.stats);
                assert_eq!(a.newton_iterations, b.newton_iterations, "{at}: newton");
                assert_eq!(a.steps_accepted, b.steps_accepted, "{at}: steps");
                assert_eq!(a.steps_rejected, b.steps_rejected, "{at}: rejects");
            }
        }
        reference
    }

    /// Every engine reproduces the scalar population die for die, bit
    /// for bit, and the batched engines share one symbolic analysis
    /// over the whole population: O(topologies), not O(samples).
    #[test]
    fn batched_population_matches_scalar() {
        let bench = TestBench::fast(1);
        let faults = [TsvFault::None];
        let run = |engine| {
            delta_t_population_with_engine(
                &bench,
                1.1,
                &faults,
                &[0],
                ProcessSpread::paper(),
                7,
                5,
                engine,
            )
            .unwrap()
        };
        let scalar = assert_engines_bit_identical(run);
        assert_eq!(scalar.deltas.len(), 5);
        let batched = run(McEngine::Batched { lanes: 2 });
        assert_eq!(batched.stats.symbolic_analyses, 1);
    }

    #[test]
    fn engine_selection_round_trips() {
        assert_eq!(mc_engine(), McEngine::Scalar);
        for engine in [
            McEngine::Batched { lanes: 4 },
            McEngine::BatchedChunked { lanes: 7 },
            McEngine::Auto,
            McEngine::Scalar,
        ] {
            set_mc_engine(engine);
            assert_eq!(mc_engine(), engine);
        }
    }

    #[test]
    fn auto_engine_resolves_by_population_size() {
        // Explicit engines pass through untouched.
        assert_eq!(resolve_engine(McEngine::Scalar, 100), McEngine::Scalar);
        assert_eq!(
            resolve_engine(McEngine::BatchedChunked { lanes: 4 }, 1),
            McEngine::BatchedChunked { lanes: 4 }
        );
        // Auto: the refill queue at any population size, capped by it.
        assert_eq!(
            resolve_engine(McEngine::Auto, 1),
            McEngine::Batched { lanes: 1 }
        );
        assert_eq!(
            resolve_engine(McEngine::Auto, 8),
            McEngine::Batched { lanes: 8 }
        );
        assert_eq!(
            resolve_engine(McEngine::Auto, 500),
            McEngine::Batched { lanes: 16 }
        );

        // A measured lane table widens (or narrows) the pick per
        // population size; the population itself still caps the width.
        set_auto_lane_table(&[(1, 8), (32, 32), (64, 64)]);
        assert_eq!(
            resolve_engine(McEngine::Auto, 16),
            McEngine::Batched { lanes: 8 }
        );
        assert_eq!(
            resolve_engine(McEngine::Auto, 32),
            McEngine::Batched { lanes: 32 }
        );
        assert_eq!(
            resolve_engine(McEngine::Auto, 48),
            McEngine::Batched { lanes: 32 }
        );
        assert_eq!(
            resolve_engine(McEngine::Auto, 500),
            McEngine::Batched { lanes: 64 }
        );
        assert_eq!(
            resolve_engine(McEngine::Auto, 3),
            McEngine::Batched { lanes: 3 }
        );
        // Empty table restores the built-in default.
        set_auto_lane_table(&[]);
        assert_eq!(auto_lane_table(), DEFAULT_AUTO_LANE_TABLE.to_vec());
        assert_eq!(
            resolve_engine(McEngine::Auto, 500),
            McEngine::Batched { lanes: 16 }
        );
    }

    /// The refill satellite contract: streaming the population through a
    /// refill queue must be per-die **bit-identical** to the chunked
    /// (no-refill) batches and to the scalar engine — cohort reordering
    /// and mid-transient re-seating are pure scheduling.
    #[test]
    fn refill_population_is_bit_identical_to_chunked() {
        let bench = TestBench::fast(1);
        let faults = [TsvFault::None];
        let run = |engine| {
            delta_t_population_with_engine(
                &bench,
                1.1,
                &faults,
                &[0],
                ProcessSpread::paper(),
                19,
                5,
                engine,
            )
            .unwrap()
        };
        // 5 samples through 2 lanes: three refills in the queue, a full
        // batch pair plus a remainder in the chunked run.
        let queued = run(McEngine::Batched { lanes: 2 });
        let chunked = run(McEngine::BatchedChunked { lanes: 2 });
        assert_eq!(
            queued, chunked,
            "refill must be bit-identical to chunked batching"
        );
        let bits = |p: &McDeltaT| p.deltas.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&run(McEngine::Scalar)), bits(&queued));
    }

    /// The heterogeneous fault-sweep contract: a mixed stuck/oscillating
    /// leakage ladder classifies every die, and measures every ΔT, bit
    /// for bit alike on every engine, even as stuck dies retire lanes
    /// early.
    #[test]
    fn hetero_fault_sweep_matches_scalar_and_is_refill_invariant() {
        let bench = TestBench::fast(1);
        // Leakage ladder: hard-stuck (300 Ω), then progressively weaker
        // leaks up to effectively fault-free (1 GΩ) — one topology.
        let ladder = [300.0, 500.0, 1e5, 1e7, 1e8, 1e9];
        let per_die_faults: Vec<Vec<TsvFault>> = ladder
            .iter()
            .map(|&r| vec![TsvFault::Leakage { r: Ohms(r) }])
            .collect();
        let run = |engine| {
            delta_t_fault_sweep_with_engine(
                &bench,
                1.1,
                &per_die_faults,
                &[0],
                ProcessSpread::paper(),
                23,
                engine,
            )
            .unwrap()
        };
        let scalar = assert_engines_bit_identical(run);
        assert!(scalar.stuck_count >= 1, "the 300 Ω die must be stuck");
        assert!(scalar.deltas.len() >= 3, "the weak leaks oscillate");
    }

    /// A later die's too-short fault list, on `engine`: the sweep must
    /// panic on the caller before any fan-out, not come back as a
    /// `WorkerPanic` from the die's worker.
    fn sweep_with_short_fault_list(engine: McEngine) {
        let per_die_faults = vec![vec![TsvFault::None; 2], vec![TsvFault::None]];
        let _ = delta_t_fault_sweep_with_engine(
            &TestBench::fast(2),
            1.1,
            &per_die_faults,
            &[0],
            ProcessSpread::paper(),
            3,
            engine,
        );
    }

    #[test]
    #[should_panic(expected = "fault list")]
    fn scalar_sweep_fault_list_mismatch_panics_on_the_caller() {
        sweep_with_short_fault_list(McEngine::Scalar);
    }

    #[test]
    #[should_panic(expected = "fault list")]
    fn auto_sweep_fault_list_mismatch_panics_on_the_caller() {
        sweep_with_short_fault_list(McEngine::Auto);
    }

    #[test]
    #[should_panic(expected = "fault list")]
    fn batched_sweep_fault_list_mismatch_panics_on_the_caller() {
        sweep_with_short_fault_list(McEngine::Batched { lanes: 2 });
    }

    #[test]
    #[should_panic(expected = "fault list")]
    fn chunked_sweep_fault_list_mismatch_panics_on_the_caller() {
        sweep_with_short_fault_list(McEngine::BatchedChunked { lanes: 1 });
    }

    #[test]
    fn die_seed_is_injective_enough() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(die_seed(42, i)));
        }
    }
}
