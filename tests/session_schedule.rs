//! The engine-session schedule of a single-die ΔT measurement, read off
//! the span tree. `measure_delta_t` runs its die on two lanes through
//! `TestBench::measure_delta_t_stream`: where its two runs would run one
//! after the other on one thread (inside a map worker, or at a thread
//! cap of 1), both share one two-lane `transient_stream` session; with a
//! second thread free, each run gets a one-lane session of its own.
//!
//! Own test binary: the obs tracing switch and span registry are
//! process-global, so this must not share a process with other tests
//! that toggle or reset them, or that move the thread cap.

use std::num::NonZeroUsize;

use rotsv::num::parallel::{effective_threads, parallel_map, set_thread_limit};
use rotsv::tsv::TsvFault;
use rotsv::{Die, TestBench};

/// Runs `f` with fresh span aggregates and returns the lane count `k`
/// of every `transient_stream` session it opened.
fn session_lanes(f: impl FnOnce()) -> Vec<f64> {
    rotsv_obs::reset();
    f();
    let mut lanes = Vec::new();
    for entry in rotsv_obs::span_report().entries {
        if entry.name != "transient_stream" {
            continue;
        }
        let (_, k) = entry
            .fields
            .iter()
            .find(|(key, _)| key == "k")
            .expect("transient_stream records k");
        assert_eq!(k.count, entry.count, "{}: one k per session", entry.path);
        assert_eq!(k.min, k.max, "{}: sessions of one path agree", entry.path);
        lanes.extend(std::iter::repeat_n(k.min, entry.count as usize));
    }
    lanes
}

#[test]
fn single_die_runs_share_a_session_only_when_they_would_serialize() {
    rotsv_obs::set_tracing(true);
    let bench = TestBench::fast(1);
    let faults = [TsvFault::None];
    let measure = || {
        bench
            .measure_delta_t(1.1, &faults, &[0], &Die::nominal())
            .unwrap()
    };

    // Item 0 of a two-item map runs on a worker (inline on a
    // single-core host, where the cap is 1 anyway).
    let in_worker = session_lanes(|| {
        parallel_map(2, |i| (i == 0).then(measure));
    });
    assert_eq!(in_worker, [2.0], "in a worker: one two-lane session");

    set_thread_limit(NonZeroUsize::new(1));
    let capped = session_lanes(|| {
        measure();
    });
    set_thread_limit(None);
    assert_eq!(capped, [2.0], "at thread cap 1: one two-lane session");

    let top_level = session_lanes(|| {
        measure();
    });
    if effective_threads(2) == 2 {
        assert_eq!(top_level, [1.0, 1.0], "top level: one session per run");
    } else {
        // A single-core host serializes the runs at top level too.
        assert_eq!(top_level, [2.0], "single-core top level");
    }
    rotsv_obs::set_tracing(false);
}
