//! Two batched-engine sessions streaming at the same time with the event
//! ring on: every lane slice of both must retire cleanly, on lane tracks
//! of its own session, although both engines number their lanes from 0.
//!
//! Own test binary: the event switch and ring are process-global.

use std::sync::{Arc, Barrier};

use rotsv_obs::Json;
use rotsv_spice::{transient_stream, Circuit, NodeId, SourceWaveform, TransientSpec};

const DIES: usize = 6;
const LANES: usize = 2;

fn rc_circuit(r: f64) -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let vout = ckt.node("out");
    ckt.add_vsource(vin, Circuit::GROUND, SourceWaveform::dc(1.0));
    ckt.add_resistor(vin, vout, r);
    ckt.add_capacitor(vout, Circuit::GROUND, 1e-9);
    (ckt, vout)
}

#[test]
fn concurrent_streams_keep_their_lane_slices_apart() {
    rotsv_obs::set_events(true);
    rotsv_obs::reset_events();
    // Each session waits here on its first retirement, so both are
    // provably mid-run at the same moment.
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for session in 0..2 {
            let barrier = &barrier;
            scope.spawn(move || {
                let (_, vout) = rc_circuit(1e3);
                let spec = TransientSpec::new(2e-6, 2e-9).record(&[vout]);
                let mut pending: Vec<Arc<Circuit>> = (0..DIES)
                    .map(|i| Arc::new(rc_circuit(1e3 + 100.0 * (session * DIES + i) as f64).0))
                    .collect();
                let mut first = true;
                let n = transient_stream(
                    Vec::new(),
                    LANES,
                    &spec,
                    &mut || pending.pop(),
                    &mut |_, _| {
                        if std::mem::take(&mut first) {
                            barrier.wait();
                        }
                    },
                )
                .expect("stream succeeds");
                assert_eq!(n, DIES);
            });
        }
    });
    let doc = rotsv_obs::render_chrome_trace();
    rotsv_obs::set_events(false);
    rotsv_obs::reset_events();

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let named = |name: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .collect()
    };
    let samples = named("mc_sample");
    assert_eq!(samples.len(), 2 * DIES, "one slice per die of each session");
    assert!(
        samples
            .iter()
            .all(|s| s.get("args").and_then(|a| a.get("unfinished")).is_none()),
        "a session closed another session's slice"
    );
    let mut tracks: Vec<u64> = samples
        .iter()
        .map(|s| s.get("tid").and_then(Json::as_f64).expect("tid") as u64)
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert_eq!(
        tracks.len(),
        2 * LANES,
        "each session's lanes on their own tracks"
    );
    let mut names: Vec<&str> = named("thread_name")
        .iter()
        .filter_map(|m| m.get("args")?.get("name")?.as_str())
        .collect();
    names.sort_unstable();
    assert_eq!(names, ["lane 0", "lane 0 #1", "lane 1", "lane 1 #1"]);
}
