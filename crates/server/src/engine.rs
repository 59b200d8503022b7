//! Engine workers: claim an admission-queue group, stream its units
//! through the batched transient engine, and refill retiring lanes
//! from the queue — continuous batching across client requests.
//!
//! A *group* is everything sharing one engine-group key (topology +
//! fault hypothesis + V_DD + transient spec); seed, spread, and die
//! index are deliberately absent from the key, so dies from different
//! jobs — and both phases of the two-run procedure, which share a
//! topology — interleave in one engine session. Per-die results stay
//! bit-identical to standalone runs because the lane engine is
//! composition-independent and every ring is built through
//! [`TestBench::ro_configs`], the same construction path
//! [`TestBench::measure_delta_t_stream`] uses.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use rotsv::ro::RingOscillator;
use rotsv::{die_seed, Die, TestBench};

use crate::server::{Phase, Shared, Unit};

/// Runs until the queue shuts down and drains: claim a group, stream
/// it, release, repeat.
pub fn worker_loop(shared: &Shared) {
    while let Some(key) = shared.queue.claim() {
        loop {
            let units = shared.queue.take_all(&key);
            if units.is_empty() {
                if shared.queue.release_if_empty(&key) {
                    break;
                }
                // Units landed between take_all and release: go again.
                continue;
            }
            run_session(shared, &key, units);
        }
    }
}

/// One engine session over a claimed group: seats the drained units,
/// then keeps pulling freshly admitted units into retiring lanes until
/// the group runs dry.
fn run_session(shared: &Shared, key: &str, units: Vec<Unit>) {
    if rotsv_obs::metrics_enabled() {
        rotsv_obs::counter("server.engine_sessions").add(1);
    }
    // Every unit in a group shares these by construction of the key.
    let spec = units[0].job.spec.clone();
    let vdd = spec.vdds[units[0].vdd_idx];
    let bench = if spec.fast {
        TestBench::fast(spec.n_segments)
    } else {
        TestBench::new(spec.n_segments)
    };
    let opts = bench.opts_for(vdd);
    let faults = spec.fault.faults(spec.n_segments);
    let (enabled_cfg, bypassed_cfg) = bench.ro_configs(vdd, &faults, &spec.under_test);

    let build_ro = |unit: &Unit| -> RingOscillator {
        let job = &unit.job.spec;
        let die = Die::new(job.spread.spread(), die_seed(job.seed, unit.sample));
        let cfg = match unit.phase {
            Phase::Enabled => &enabled_cfg,
            Phase::Bypassed => &bypassed_cfg,
        };
        let mut ro = RingOscillator::build(cfg, &mut die.variation());
        ro.set_symbolic_cache(Arc::clone(&shared.cache));
        ro
    };

    let initial: Vec<RingOscillator> = units.iter().map(&build_ro).collect();
    // The units in flight, by the index the engine gives their ring: 0..
    // over `initial`, then each sourced ring in pull order. A unit leaves
    // the map when its verdict is recorded, so the bookkeeping is
    // proportional to the work in flight, not to the session's length.
    let mut next = units.len();
    let in_flight: RefCell<BTreeMap<usize, Unit>> =
        RefCell::new(units.into_iter().enumerate().collect());

    let mut source = || {
        shared.queue.take_one(key).map(|unit| {
            let ro = build_ro(&unit);
            in_flight.borrow_mut().insert(next, unit);
            next += 1;
            ro
        })
    };
    let mut sink =
        |idx: usize, outcome: rotsv::ro::OscillationOutcome, stats: rotsv::spice::SolverStats| {
            let unit = in_flight.borrow_mut().remove(&idx);
            unit.expect("each ring is delivered once")
                .record_outcome(outcome, stats);
        };

    let result = RingOscillator::measure_stream_with_stats(
        initial,
        shared.config.lanes,
        &opts,
        &mut source,
        &mut sink,
    );
    if let Err(e) = result {
        // The whole session is lost: fail every unit still in flight,
        // then drain the group so a poisoned topology cannot spin
        // claim/fail forever.
        let reason = format!("engine failure: {e}");
        for unit in in_flight.into_inner().into_values() {
            unit.record_failure(&reason);
        }
        while let Some(unit) = shared.queue.take_one(key) {
            unit.record_failure(&reason);
        }
    }
}
