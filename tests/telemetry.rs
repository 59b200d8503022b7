//! End-to-end telemetry acceptance: one batched Monte-Carlo population
//! with tracing, metrics and the event ring all enabled must (a) shed
//! zero events under the default agreement configuration, (b) render a
//! Chrome trace that parses back with `mc_sample` lane slices and
//! counter tracks, and (c) leave the per-stage `lu.*` and `batch.*`
//! histograms behind for the run manifest. A one-lane session run after
//! it must add to the `batch.*` stages but not to the co-resident-lane
//! histograms (`mc.batch_occupancy`, `mc.dt_drag`). Every ring device
//! slot must stay on the MOSFET block path (`batch.per_lane_slots` stays
//! 0), and a refill whose transistor the bank refuses must count the
//! one slot that falls off it.
//!
//! This lives in its own test binary deliberately: the obs switches,
//! metrics registry and event ring are process-global, so the test must
//! not share a process with tests that reset them concurrently.

use rotsv::mc::delta_t_population_with_engine;
use rotsv::mosfet::tech45::{self, DriveStrength};
use rotsv::mosfet::Mosfet;
use rotsv::spice::{transient_queue, Circuit, NodeId, SourceWaveform, TransientSpec};
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::{McEngine, TestBench};
use rotsv_obs::Json;

const SAMPLES: usize = 4;
const LANES: usize = 4;

/// A three-inverter chain driven by a rising step; the second stage's
/// NMOS is `mid_nmos`, every other transistor X1. Returns the circuit
/// and its output node.
fn inverter_chain(mid_nmos: DriveStrength) -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let (vdd, input) = (c.node("vdd"), c.node("in"));
    c.add_vsource(vdd, Circuit::GROUND, SourceWaveform::dc(1.1));
    c.add_vsource(
        input,
        Circuit::GROUND,
        SourceWaveform::step(0.0, 1.1, 20e-12),
    );
    let mut prev = input;
    for stage in 0..3 {
        let out = c.node(&format!("s{stage}"));
        let nmos = if stage == 1 {
            mid_nmos
        } else {
            DriveStrength::X1
        };
        let p = tech45::pmos(DriveStrength::X1);
        c.add_device(Box::new(Mosfet::new("mp", p, out, prev, vdd, vdd)));
        let n = tech45::nmos(nmos);
        c.add_device(Box::new(Mosfet::new(
            "mn",
            n,
            out,
            prev,
            Circuit::GROUND,
            Circuit::GROUND,
        )));
        c.add_capacitor(out, Circuit::GROUND, 2e-15);
        prev = out;
    }
    (c, prev)
}

#[test]
fn batched_population_telemetry_round_trips() {
    rotsv_obs::set_tracing(true);
    rotsv_obs::set_metrics(true);
    rotsv_obs::set_events(true);
    rotsv_obs::reset();

    let population = {
        let _root = rotsv_obs::SpanGuard::enter("telemetry");
        let bench = TestBench::fast(1);
        delta_t_population_with_engine(
            &bench,
            1.1,
            &[TsvFault::None],
            &[0],
            ProcessSpread::paper(),
            23,
            SAMPLES,
            McEngine::Batched { lanes: LANES },
        )
        .expect("population succeeds")
    };

    // The agreement suite's default configuration must not shed a
    // single event — `mc.ring_dropped_events` is the first-class
    // witness of that contract.
    assert_eq!(
        rotsv_obs::event_ring().dropped(),
        0,
        "event ring overflowed"
    );
    assert_eq!(
        rotsv_obs::counter("mc.ring_dropped_events").get(),
        0,
        "mc.ring_dropped_events must stay zero in the default configuration"
    );
    // Every ring slot is a MOSFET whose lanes differ only by variation:
    // none may fall back to one-lane-at-a-time evaluation.
    let per_lane = rotsv_obs::counter("batch.per_lane_slots");
    assert_eq!(per_lane.get(), 0, "a ring slot fell off the block path");

    // Staged-solver attribution: every lu.* stage histogram observed at
    // least once (this is what `manifest_<id>.json` serializes).
    for stage in [
        "lu.btf",
        "lu.order",
        "lu.scale",
        "lu.symbolic",
        "lu.numeric",
    ] {
        assert!(
            rotsv_obs::histogram(stage).summary().count > 0,
            "{stage} histogram is empty after a staged-solver run"
        );
    }

    // Super-iteration stages: one observation per stage per
    // super-iteration, and each super-iteration's stages split the wall
    // its busy dies share, so the stage sums add up to the summed
    // session walls the dies report.
    let stages: Vec<_> = [
        "batch.assemble",
        "batch.factor",
        "batch.solve",
        "batch.lanes",
    ]
    .iter()
    .map(|name| (*name, rotsv_obs::histogram(name).summary()))
    .collect();
    let iterations = stages[0].1.count;
    assert!(iterations > 0, "no super-iteration was timed");
    for (name, s) in &stages {
        assert_eq!(
            s.count, iterations,
            "{name}: one sample per super-iteration"
        );
        assert!(s.sum > 0.0, "{name} never accrued time");
    }
    let stage_sum: f64 = stages.iter().map(|(_, s)| s.sum).sum();
    let wall = population.stats.wall_seconds;
    assert!(
        stage_sum <= wall * (1.0 + 1e-9),
        "stages sum to {stage_sum} s, sessions to {wall} s"
    );
    assert!(
        stage_sum >= 0.5 * wall,
        "stages sum to {stage_sum} s, sessions to {wall} s"
    );

    let doc = rotsv_obs::render_chrome_trace();
    rotsv_obs::set_tracing(false);
    rotsv_obs::set_events(false);

    // Occupancy and dt drag describe co-resident lanes. A one-lane
    // session (`Circuit::transient`) has none: it still times its
    // super-iterations, but adds nothing to those two histograms.
    let count = |name: &str| rotsv_obs::histogram(name).summary().count;
    let lane_hists = ["mc.batch_occupancy", "mc.dt_drag"];
    let before: Vec<u64> = lane_hists.iter().map(|name| count(name)).collect();
    assert!(
        before.iter().all(|&c| c > 0),
        "the population must record {lane_hists:?}"
    );
    let assembles = count("batch.assemble");
    let mut rc = Circuit::new();
    let (vin, vout) = (rc.node("in"), rc.node("out"));
    rc.add_vsource(vin, Circuit::GROUND, SourceWaveform::dc(1.0));
    rc.add_resistor(vin, vout, 1e3);
    rc.add_capacitor(vout, Circuit::GROUND, 1e-9);
    rc.transient(&TransientSpec::new(1e-6, 1e-8))
        .expect("RC transient succeeds");
    for (name, &was) in lane_hists.iter().zip(&before) {
        assert_eq!(count(name), was, "{name}: a one-lane session recorded");
    }
    assert!(
        count("batch.assemble") > assembles,
        "the one-lane session must still time its super-iterations"
    );

    // A refill whose second-stage NMOS is X4 where the seated die's is
    // X1: the bank refuses that one slot, which then falls back to
    // per-lane evaluation, and the rest of its block is rebuilt as
    // banks. Each die still settles where its solo run does.
    let chains: Vec<(Circuit, NodeId)> = [
        DriveStrength::X1,
        DriveStrength::X1,
        DriveStrength::X4,
        DriveStrength::X1,
    ]
    .into_iter()
    .map(inverter_chain)
    .collect();
    let ckts: Vec<&Circuit> = chains.iter().map(|(c, _)| c).collect();
    let out = chains[0].1;
    let spec = TransientSpec::new(0.3e-9, 2e-12).record(&[out]);
    let solo = transient_queue(&ckts, 1, &spec).expect("solo chains settle");
    assert_eq!(per_lane.get(), 0, "one-lane sessions are uniform");
    let shared = transient_queue(&ckts, 2, &spec).expect("refilled chains settle");
    assert_eq!(per_lane.get(), 1, "exactly the refused slot falls back");
    for (die, (a, b)) in solo.iter().zip(&shared).enumerate() {
        let (va, vb) = (a.final_voltage(out), b.final_voltage(out));
        assert!(
            (va - vb).abs() <= 1e-6,
            "die {die}: {va} V solo vs {vb} V shared"
        );
    }

    rotsv_obs::set_metrics(false);

    // Acceptance is parse-back, not string inspection: the written
    // document must round-trip through the JSON parser.
    let parsed = rotsv_obs::json::parse(&doc.render_pretty()).expect("trace parses back");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let named = |name: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .collect()
    };

    // Every seated die renders as a complete-event lane slice; the ΔT
    // measurement runs each die through at least one transient, so
    // there are at least SAMPLES of them, all retired (none closed as
    // unfinished) and each carrying step/Newton attribution.
    let samples: Vec<&Json> = named("mc_sample")
        .into_iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(
        samples.len() >= SAMPLES,
        "expected at least {SAMPLES} mc_sample slices, got {}",
        samples.len()
    );
    assert!(
        samples
            .iter()
            .all(|s| s.get("args").and_then(|a| a.get("unfinished")).is_none()),
        "every lane interval must retire cleanly"
    );
    assert!(
        samples.iter().all(|s| {
            s.get("args")
                .and_then(|a| a.get("steps"))
                .and_then(Json::as_f64)
                .is_some_and(|v| v >= 1.0)
        }),
        "every lane slice must attribute at least one accepted step"
    );

    // Counter tracks: per-lane 0/1 occupancy and the engine-sampled
    // population occupancy.
    assert!(
        !named("lane0 busy").is_empty(),
        "missing per-lane busy counter track"
    );
    assert!(
        !named("lanes busy").is_empty(),
        "missing lanes-busy counter track"
    );

    // The mirrored shallow span renders on the spans process.
    assert_eq!(named("telemetry").len(), 1, "root span slice");

    assert_eq!(
        parsed
            .get("otherData")
            .and_then(|o| o.get("ring_dropped"))
            .and_then(Json::as_f64),
        Some(0.0),
        "trace metadata must agree the ring never overflowed"
    );
}
