//! Exact agreement of every Monte-Carlo engine. Each `McEngine` is only
//! a schedule of `TestBench::measure_delta_t_stream` calls onto the lane
//! engine, which steps every lane asynchronously by its own policies, so
//! a die's ΔT is `f64::to_bits`-identical across engines, lane counts,
//! refill scheduling, the chunked cross-check and thread caps. Stuck
//! dies must classify identically, and a batched population must cost
//! O(topologies) symbolic analyses rather than one per transient.

use rotsv::mc::{delta_t_fault_sweep_with_engine, delta_t_population_with_engine};
use rotsv::num::parallel::set_thread_limit;
use rotsv::num::units::Ohms;
use rotsv::ro::{MeasureOpts, RingOscillator, RoConfig};
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::{McDeltaT, McEngine, TestBench};
use std::num::NonZeroUsize;

const SAMPLES: usize = 4;
const LANES: usize = 4;

/// Every engine the exact-agreement contract covers.
const ENGINES: [McEngine; 6] = [
    McEngine::Scalar,
    McEngine::Auto,
    McEngine::Batched { lanes: 1 },
    McEngine::Batched { lanes: 2 },
    McEngine::Batched { lanes: 4 },
    McEngine::BatchedChunked { lanes: 2 },
];

fn population(faults: &[TsvFault], engine: McEngine) -> McDeltaT {
    let bench = TestBench::fast(1);
    delta_t_population_with_engine(
        &bench,
        1.1,
        faults,
        &[0],
        ProcessSpread::paper(),
        23,
        SAMPLES,
        engine,
    )
    .unwrap()
}

/// Runs `run` on every engine of [`ENGINES`] at thread caps 1 and 2 and
/// asserts that each die's ΔT bits and the stuck and reference counts
/// equal the scalar run's. Returns the scalar run.
fn assert_engines_bit_identical(label: &str, run: impl Fn(McEngine) -> McDeltaT) -> McDeltaT {
    let bits = |p: &McDeltaT| p.deltas.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    let reference = run(McEngine::Scalar);
    for cap in [1, 2] {
        for engine in ENGINES {
            set_thread_limit(NonZeroUsize::new(cap));
            let got = run(engine);
            set_thread_limit(None);
            let at = format!("{label}: {engine:?} at thread cap {cap}");
            assert_eq!(bits(&got), bits(&reference), "{at}: ΔT bits");
            assert_eq!(got.stuck_count, reference.stuck_count, "{at}: stuck");
            assert_eq!(
                got.reference_failures, reference.reference_failures,
                "{at}: reference failures"
            );
        }
    }
    reference
}

fn assert_populations_agree(label: &str, faults: &[TsvFault]) {
    let scalar = assert_engines_bit_identical(label, |engine| population(faults, engine));
    assert_eq!(scalar.total(), SAMPLES, "{label}: population size");
}

#[test]
fn fault_free_population_agrees() {
    assert_populations_agree("fault-free", &[TsvFault::None]);
}

#[test]
fn resistive_open_population_agrees() {
    assert_populations_agree(
        "open-3k",
        &[TsvFault::ResistiveOpen {
            x: 0.5,
            r: Ohms(3e3),
        }],
    );
}

#[test]
fn leakage_population_agrees() {
    assert_populations_agree("leak-3k", &[TsvFault::Leakage { r: Ohms(3e3) }]);
}

/// Strong leakage sticks every die: the batched engine must classify
/// them exactly as the scalar engine does (stuck, not errors, not
/// deltas) even though no lane ever reaches its crossing count.
#[test]
fn stuck_population_classifies_identically() {
    let faults = [TsvFault::Leakage { r: Ohms(300.0) }];
    let scalar = population(&faults, McEngine::Scalar);
    let batched = population(&faults, McEngine::Batched { lanes: LANES });
    assert_eq!(scalar, batched);
    assert_eq!(batched.stuck_count, SAMPLES);
    assert!(batched.deltas.is_empty());
    assert_eq!(batched.reference_failures, 0);
}

/// A mixed batch where one lane sticks (strong leakage) while the other
/// oscillates and retires early: the stuck lane must not disturb the
/// finished lane's period, and both outcomes must equal their solo
/// one-lane runs bit for bit. Lanes differ only in the leakage
/// resistor's *value*, so they are topology-identical and batchable.
#[test]
fn stuck_lane_retirement_leaves_other_lanes_intact() {
    use rotsv::mosfet::model::Nominal;

    let opts = MeasureOpts::fast();
    let ros: Vec<RingOscillator> = [300.0, 3000.0]
        .iter()
        .map(|&r| {
            let config = RoConfig::new(1, 1.1)
                .enable_only(&[0])
                .with_fault(0, TsvFault::Leakage { r: Ohms(r) });
            RingOscillator::build(&config, &mut Nominal)
        })
        .collect();
    let refs: Vec<&RingOscillator> = ros.iter().collect();
    let batched = RingOscillator::measure_queue_with_stats(&refs, 2, &opts).unwrap();
    assert!(
        !batched[0].0.is_oscillating(),
        "300 Ω leakage lane must stick"
    );
    assert!(
        batched[1].0.is_oscillating(),
        "3 kΩ leakage lane must oscillate"
    );
    for (ro, (outcome, _)) in ros.iter().zip(&batched) {
        assert_eq!(&ro.measure(&opts).unwrap(), outcome);
    }
}

/// The refill scheduler's determinism contract, exercised at the ring
/// level with a *stuck* lane in the mix: streaming [300 Ω (stuck),
/// 3 kΩ, 5 kΩ] through two lanes makes the 3 kΩ ring retire early and
/// the 5 kΩ ring seat into its lane mid-transient, while the stuck ring
/// grinds to its time budget in the other lane. Every ring's outcome —
/// period bits included — must equal its solo (k = 1) run.
#[test]
fn refill_with_stuck_lane_is_bit_identical_to_solo_runs() {
    use rotsv::mosfet::model::Nominal;

    let opts = MeasureOpts::fast();
    let configs: Vec<RoConfig> = [300.0, 3000.0, 5000.0]
        .iter()
        .map(|&r| {
            RoConfig::new(1, 1.1)
                .enable_only(&[0])
                .with_fault(0, TsvFault::Leakage { r: Ohms(r) })
        })
        .collect();
    let ros: Vec<RingOscillator> = configs
        .iter()
        .map(|c| RingOscillator::build(c, &mut Nominal))
        .collect();
    let refs: Vec<&RingOscillator> = ros.iter().collect();
    let queued = RingOscillator::measure_queue_with_stats(&refs, 2, &opts).unwrap();
    assert!(
        !queued[0].0.is_oscillating(),
        "300 Ω leakage ring must stick"
    );
    assert!(queued[1].0.is_oscillating(), "3 kΩ leakage ring oscillates");
    assert!(queued[2].0.is_oscillating(), "5 kΩ leakage ring oscillates");
    for (i, (ro, (outcome, _))) in ros.iter().zip(&queued).enumerate() {
        assert_eq!(
            &ro.measure(&opts).unwrap(),
            outcome,
            "ring {i}: queued outcome must be bit-identical to its solo k=1 run"
        );
    }
}

/// `--engine auto` resolves to the refill queue for figure-sized
/// populations; its results must be exactly the explicit batched run.
/// A leakage ladder with stuck dies, streamed through every engine,
/// must give every die the same bits.
#[test]
fn auto_engine_agrees_with_scalar_and_matches_batched() {
    let faults = [TsvFault::None];
    let auto = population(&faults, McEngine::Auto);
    let batched = population(&faults, McEngine::Batched { lanes: SAMPLES });
    assert_eq!(auto, batched, "auto must resolve to the refill queue");

    let bench = TestBench::fast(2);
    let ladder: Vec<Vec<TsvFault>> = [300.0, 1e5, 500.0, 1e7, 1e9, 3e3]
        .iter()
        .map(|&r| vec![TsvFault::Leakage { r: Ohms(r) }, TsvFault::None])
        .collect();
    let sweep = assert_engines_bit_identical("ladder", |engine| {
        delta_t_fault_sweep_with_engine(
            &bench,
            1.1,
            &ladder,
            &[0],
            ProcessSpread::paper(),
            31,
            engine,
        )
        .unwrap()
    });
    assert!(sweep.stuck_count >= 1, "the 300 Ω die sticks");
    assert!(sweep.deltas.len() >= 3, "the weak leaks oscillate");
}

/// The cost contract of the batched engine: one symbolic analysis per
/// topology for the whole population (the population-wide cache spans
/// batches and both runs of each batch), not one per transient. The
/// scalar engine performs one per *measurement* (each die's cache spans
/// its two runs), i.e. O(samples).
#[test]
fn symbolic_analyses_are_per_topology_not_per_sample() {
    let faults = [TsvFault::None];
    let batched = population(&faults, McEngine::Batched { lanes: 2 });
    assert_eq!(
        batched.stats.symbolic_analyses, 1,
        "population-wide cache must reduce analyses to O(topologies)"
    );
    let scalar = population(&faults, McEngine::Scalar);
    assert_eq!(
        scalar.stats.symbolic_analyses, SAMPLES as u64,
        "scalar path shares analyses only within a measurement"
    );
}

/// Diagnostic (run with `-- --ignored probe_spans --nocapture`): span
/// tree of a batched k=4 population next to the scalar one, for finding
/// where batch time goes without an external profiler.
#[test]
#[ignore]
fn probe_spans() {
    rotsv_obs::set_tracing(true);
    let faults = [TsvFault::None];
    let _b4 = population(&faults, McEngine::Batched { lanes: 4 });
    eprintln!("{}", rotsv_obs::span_report().render_text());
    rotsv_obs::reset();
    let _s = population(&faults, McEngine::Scalar);
    eprintln!("{}", rotsv_obs::span_report().render_text());
    rotsv_obs::set_tracing(false);
}

/// Diagnostic (run with `-- --ignored probe_counters --nocapture`):
/// work counters of the scalar and batched schedules.
#[test]
#[ignore]
fn probe_counters() {
    let faults = [TsvFault::None];
    let scalar = population(&faults, McEngine::Scalar);
    let b1 = population(&faults, McEngine::Batched { lanes: 1 });
    let b4 = population(&faults, McEngine::Batched { lanes: 4 });
    for (name, p) in [
        ("scalar", &scalar),
        ("batched k=1", &b1),
        ("batched k=4", &b4),
    ] {
        let s = &p.stats;
        eprintln!(
            "{name}: steps {}+{}r newton {} factor {} solves {} analyses {} wall {:.3}",
            s.steps_accepted,
            s.steps_rejected,
            s.newton_iterations,
            s.factorizations,
            s.solves,
            s.symbolic_analyses,
            s.wall_seconds
        );
    }
}

/// The stream runs its two runs concurrently; at thread cap 1 and cap 2
/// it must reproduce each die's own one-lane `measure_delta_t` bit for
/// bit, with one symbolic analysis for the whole population.
#[test]
fn queued_runs_are_bit_identical_at_any_thread_cap() {
    use rotsv::num::SymbolicCache;
    use rotsv::{DeltaTMeasurement, Die};
    use std::sync::Arc;

    let bench = TestBench::fast(1);
    let faults = [TsvFault::None];
    let dies: Vec<Die> = (0..5)
        .map(|i| Die::new(ProcessSpread::paper(), 40 + i))
        .collect();
    let dies: Vec<&Die> = dies.iter().collect();
    let opts = bench.opts_for(1.1);
    let bits = |ms: &[DeltaTMeasurement]| -> Vec<_> {
        ms.iter()
            .map(|m| [&m.t1, &m.t2].map(|t| t.period().map(f64::to_bits)))
            .collect()
    };
    let oracle: Vec<DeltaTMeasurement> = dies
        .iter()
        .map(|die| bench.measure_delta_t(1.1, &faults, &[0], die).unwrap())
        .collect();
    let per_die_faults = vec![&faults[..]; dies.len()];
    for cap in [1, 2] {
        set_thread_limit(NonZeroUsize::new(cap));
        let cache = Arc::new(SymbolicCache::new());
        let queued =
            bench.measure_delta_t_stream(1.1, &per_die_faults, &[0], &dies, 2, &opts, &cache);
        set_thread_limit(None);
        let queued = queued.unwrap();
        assert_eq!(queued, oracle, "cap {cap}");
        assert_eq!(bits(&queued), bits(&oracle), "cap {cap}");
        let analyses: u64 = queued.iter().map(|m| m.stats.symbolic_analyses).sum();
        assert_eq!(analyses, 1, "cap {cap}: one analysis per topology");
    }
}

/// Streams two nominal dies with fault lists `per_die_faults`.
fn queue_two_dies(vdd: f64, per_die_faults: &[&[TsvFault]]) {
    use rotsv::num::SymbolicCache;
    use rotsv::Die;
    use std::sync::Arc;

    let bench = TestBench::fast(2);
    let dies = [Die::nominal(), Die::nominal()];
    let dies: Vec<&Die> = dies.iter().collect();
    let cache = Arc::new(SymbolicCache::new());
    let _ = bench.measure_delta_t_stream(
        vdd,
        per_die_faults,
        &[0],
        &dies,
        2,
        &bench.opts_for(1.1),
        &cache,
    );
}

/// The stream's runs execute on workers, yet a bad fault list, even a
/// later die's, panics on the caller instead of coming back as a
/// `WorkerPanic` error.
#[test]
#[should_panic(expected = "fault list")]
fn queued_fault_list_mismatch_panics_on_the_caller() {
    queue_two_dies(1.1, &[&[TsvFault::None; 2], &[TsvFault::None]]);
}

#[test]
#[should_panic(expected = "vdd must be positive")]
fn queued_non_positive_vdd_panics_on_the_caller() {
    let faults = [TsvFault::None; 2];
    queue_two_dies(0.0, &[&faults, &faults]);
}
