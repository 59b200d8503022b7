//! End-to-end telemetry acceptance: one batched Monte-Carlo population
//! with tracing, metrics and the event ring all enabled must (a) shed
//! zero events under the default agreement configuration, (b) render a
//! Chrome trace that parses back with `mc_sample` lane slices and
//! counter tracks, and (c) leave the per-stage `lu.*` and `batch.*`
//! histograms behind for the run manifest.
//!
//! This lives in its own test binary deliberately: the obs switches,
//! metrics registry and event ring are process-global, so the test must
//! not share a process with tests that reset them concurrently.

use rotsv::mc::delta_t_population_with_engine;
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::{McEngine, TestBench};
use rotsv_obs::Json;

const SAMPLES: usize = 4;
const LANES: usize = 4;

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
    rotsv_obs::set_metrics(false);
    rotsv_obs::set_events(false);

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
