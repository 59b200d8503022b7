//! Cross-check of the batched Monte-Carlo engine against the scalar
//! reference. The v2 engine steps every lane asynchronously by the
//! scalar policies, so per-die results are bit-identical across lane
//! counts, refill scheduling, and the chunked cross-check engine; the
//! remaining scalar gap (shared first-iterate factorization within a
//! batch, identical assembly in a different association order) stays
//! well under 0.5 % per ΔT. Stuck dies must classify identically, and
//! the whole population must cost O(topologies) symbolic analyses
//! rather than one per transient.

use rotsv::mc::delta_t_population_with_engine;
use rotsv::num::units::Ohms;
use rotsv::ro::{MeasureOpts, OscillationOutcome, RingOscillator, RoConfig};
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::{McEngine, TestBench};

const SAMPLES: usize = 4;
const LANES: usize = 4;

fn population(faults: &[TsvFault], engine: McEngine) -> rotsv::McDeltaT {
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

fn assert_populations_agree(label: &str, faults: &[TsvFault]) {
    let scalar = population(faults, McEngine::Scalar);
    let batched = population(faults, McEngine::Batched { lanes: LANES });
    assert_eq!(
        scalar.deltas.len(),
        batched.deltas.len(),
        "{label}: population sizes differ"
    );
    assert_eq!(scalar.stuck_count, batched.stuck_count, "{label}: stuck");
    assert_eq!(
        scalar.reference_failures, batched.reference_failures,
        "{label}: reference failures"
    );
    for (i, (s, b)) in scalar.deltas.iter().zip(&batched.deltas).enumerate() {
        let rel = (s - b).abs() / s.abs();
        assert!(
            rel < 5e-3,
            "{label} sample {i}: scalar ΔT {s} vs batched {b} (rel {rel})"
        );
    }
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
    assert_eq!(scalar.stuck_count, SAMPLES);
    assert_eq!(batched.stuck_count, SAMPLES);
    assert!(batched.deltas.is_empty());
    assert_eq!(batched.reference_failures, 0);
}

/// A mixed batch where one lane sticks (strong leakage) while the other
/// oscillates and retires early: the stuck lane must not disturb the
/// finished lane's period, and both outcomes must match their scalar
/// runs. Lanes differ only in the leakage resistor's *value*, so they
/// are topology-identical and batchable.
#[test]
fn stuck_lane_retirement_leaves_other_lanes_intact() {
    use rotsv::mosfet::model::Nominal;

    let opts = MeasureOpts::fast();
    let configs: Vec<RoConfig> = [300.0, 3000.0]
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
    let batched = RingOscillator::measure_batch_with_stats(&refs, &opts).unwrap();

    // Lane 0: strong leakage — stuck, exactly as the scalar run says.
    let (stuck_outcome, _) = &batched[0];
    assert!(
        !stuck_outcome.is_oscillating(),
        "300 Ω leakage lane must stick"
    );
    assert!(!ros[0].measure(&opts).unwrap().is_oscillating());

    // Lane 1: mild leakage — oscillates; period within 0.5 % of scalar.
    let (osc_outcome, _) = &batched[1];
    let t_batched = match osc_outcome {
        OscillationOutcome::Oscillating(m) => m.mean,
        OscillationOutcome::Stuck { .. } => panic!("3 kΩ leakage lane must oscillate"),
    };
    let t_scalar = ros[1].measure(&opts).unwrap().period().unwrap();
    let rel = (t_batched - t_scalar).abs() / t_scalar;
    assert!(
        rel < 5e-3,
        "batched period {t_batched} vs scalar {t_scalar} (rel {rel})"
    );
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
        // Bit-identity is an engine property: the solo reference is the
        // same engine at k = 1 (the scalar engine assembles in a
        // different association order and agrees only to ~1e-15).
        let solo = &RingOscillator::measure_batch_with_stats(&[ro], &opts).unwrap()[0].0;
        assert_eq!(
            solo, outcome,
            "ring {i}: queued outcome must be bit-identical to its solo k=1 run"
        );
        let scalar = ro.measure(&opts).unwrap();
        match (&scalar, outcome) {
            (OscillationOutcome::Oscillating(s), OscillationOutcome::Oscillating(q)) => {
                let rel = (s.mean - q.mean).abs() / s.mean;
                assert!(
                    rel < 5e-3,
                    "ring {i}: scalar {} vs queued {} ({rel})",
                    s.mean,
                    q.mean
                );
            }
            (a, b) => assert_eq!(
                a.is_oscillating(),
                b.is_oscillating(),
                "ring {i}: stuck classification must match the scalar run"
            ),
        }
    }
}

/// `--engine auto` resolves to the refill queue for figure-sized
/// populations; its results must be exactly the explicit batched run
/// and agree with the scalar reference like any batched run.
#[test]
fn auto_engine_agrees_with_scalar_and_matches_batched() {
    let faults = [TsvFault::None];
    let auto = population(&faults, McEngine::Auto);
    let batched = population(&faults, McEngine::Batched { lanes: SAMPLES });
    assert_eq!(auto, batched, "auto must resolve to the refill queue");
    let scalar = population(&faults, McEngine::Scalar);
    assert_eq!(scalar.deltas.len(), auto.deltas.len());
    for (i, (s, a)) in scalar.deltas.iter().zip(&auto.deltas).enumerate() {
        let rel = (s - a).abs() / s.abs();
        assert!(rel < 5e-3, "sample {i}: scalar {s} vs auto {a} ({rel})");
    }
}

/// The cost contract of the batched engine: one symbolic analysis per
/// topology for the whole population (the population-wide cache spans
/// batches and both runs of each batch), not one per transient. The
/// scalar engine performs one per *measurement* (its cache spans the
/// two runs of one die), i.e. O(samples).
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
/// work counters of scalar vs batched runs — the lockstep step/Newton
/// inflation numbers quoted in PERFORMANCE.md come from here.
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

/// The queued path runs its two runs concurrently; at thread cap 1 and
/// cap 2 it must reproduce the sequential lockstep oracle bit for bit,
/// with one symbolic analysis for the whole population.
#[test]
fn queued_runs_are_bit_identical_at_any_thread_cap() {
    use rotsv::num::parallel::set_thread_limit;
    use rotsv::num::SymbolicCache;
    use rotsv::{DeltaTMeasurement, Die};
    use std::num::NonZeroUsize;
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
    let cache = Arc::new(SymbolicCache::new());
    let oracle = bench
        .measure_delta_t_batch_with(1.1, &faults, &[0], &dies, &opts, &cache)
        .unwrap();
    for cap in [1, 2] {
        set_thread_limit(NonZeroUsize::new(cap));
        let cache = Arc::new(SymbolicCache::new());
        let queued = bench.measure_delta_t_queue_with(1.1, &faults, &[0], &dies, 2, &opts, &cache);
        set_thread_limit(None);
        let queued = queued.unwrap();
        assert_eq!(queued, oracle, "cap {cap}");
        assert_eq!(bits(&queued), bits(&oracle), "cap {cap}");
        let analyses: u64 = queued.iter().map(|m| m.stats.symbolic_analyses).sum();
        assert_eq!(analyses, 1, "cap {cap}: one analysis per topology");
    }
}

/// Runs the heterogeneous queued path on two nominal dies, fault lists
/// `per_die_faults`.
fn queue_two_dies(vdd: f64, per_die_faults: &[&[TsvFault]]) {
    use rotsv::num::SymbolicCache;
    use rotsv::Die;
    use std::sync::Arc;

    let bench = TestBench::fast(2);
    let dies = [Die::nominal(), Die::nominal()];
    let dies: Vec<&Die> = dies.iter().collect();
    let cache = Arc::new(SymbolicCache::new());
    let _ = bench.measure_delta_t_queue_hetero_with(
        vdd,
        per_die_faults,
        &[0],
        &dies,
        2,
        &bench.opts_for(1.1),
        &cache,
    );
}

/// The queued path's runs execute on workers, yet a bad fault list, even
/// a later die's, panics on the caller as the lockstep form does, instead
/// of coming back as a `WorkerPanic` error.
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
