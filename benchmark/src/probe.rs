//! Layer probes for the traced run: each times one public entry point of
//! one layer on inputs shaped like the workload's (its ring topology and
//! lane width), so a layer's cost can be compared with the end-to-end
//! numbers it should move.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rotsv::mosfet::model::MosDelta;
use rotsv::mosfet::tech45::{self, DriveStrength};
use rotsv::mosfet::{Mosfet, MosfetBank};
use rotsv::num::sparse::{BatchedLu, SparseMatrix, SymbolicLu};
use rotsv::ro::RingOscillator;
use rotsv::spice::{BatchedDeviceEval, Circuit, DeviceStamp, NonlinearDevice};
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::{die_seed, Die, TestBench};
use rotsv_obs::Json;
use rotsv_server::protocol::{parse_request, render_line};

/// Probe results, in the units of the per-layer metrics they feed.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// µs per `RingOscillator::build`.
    pub build_us: f64,
    /// Seconds per die of `measure_queue_with_stats` over both runs.
    pub queue_s_per_die: f64,
    /// µs per `BatchedLu::refactor` + `solve_in_place`.
    pub batched_lu_us: f64,
    /// ns per lane of `MosfetBank::eval_lanes`.
    pub bank_eval_ns_per_lane: f64,
    /// ns per scalar `Mosfet::eval`.
    pub eval_ns: f64,
    /// µs per `protocol::parse_request` of a submit line.
    pub parse_us: f64,
    /// µs per `protocol::render_line` of a verdict line.
    pub render_us: f64,
}

/// Median seconds per call of `f`, over five batches each long enough
/// (≥ 10 ms) for the clock to resolve.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed().as_secs_f64() >= 0.01 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Runs every probe for a ring of `bench` at `vdd` with `faults`, at
/// lane width `k`, on dies drawn from `seed`.
pub fn run(bench: &TestBench, vdd: f64, faults: &[TsvFault], k: usize, seed: u64) -> Probes {
    let _span = rotsv_obs::span!("bench.probes", "lanes" = k);
    let (enabled, bypassed) = bench.ro_configs(vdd, faults, &[0]);
    let dies: Vec<Die> = (0..k)
        .map(|i| Die::new(ProcessSpread::paper(), die_seed(seed, i)))
        .collect();

    // Ring construction: both configurations of every die, as a
    // population run builds them.
    let build_all = || -> (Vec<RingOscillator>, Vec<RingOscillator>) {
        let build = |cfg: &rotsv::ro::RoConfig| {
            dies.iter()
                .map(|d| RingOscillator::build(cfg, &mut d.variation()))
                .collect::<Vec<_>>()
        };
        (build(&enabled), build(&bypassed))
    };
    let build_us = {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                black_box(build_all());
                t0.elapsed().as_secs_f64() / (2 * k) as f64
            })
            .collect();
        crate::stats::median(&samples) * 1e6
    };

    // The engine alone on prebuilt rings: both runs of a K-die load.
    let queue_s_per_die = {
        let (mut run1, mut run2) = build_all();
        let cache = Arc::new(rotsv::num::SymbolicCache::new());
        for ro in run1.iter_mut().chain(run2.iter_mut()) {
            ro.set_symbolic_cache(Arc::clone(&cache));
        }
        let opts = bench.opts_for(vdd);
        let t0 = Instant::now();
        for ros in [&run1, &run2] {
            let refs: Vec<&RingOscillator> = ros.iter().collect();
            black_box(
                RingOscillator::measure_queue_with_stats(&refs, k, &opts)
                    .expect("probe population simulates"),
            );
        }
        t0.elapsed().as_secs_f64() / k as f64
    };

    // Lane-interleaved LU on a ladder-plus-border pattern as large as the
    // ring's MNA system.
    let unknowns = RingOscillator::build(&enabled, &mut dies[0].variation())
        .circuit()
        .unknown_count();
    let batched_lu_us = {
        let a = ladder(unknowns.max(2) - 1);
        let nnz = a.values().len();
        let mut values = vec![0.0; nnz * k];
        for (s, &v) in a.values().iter().enumerate() {
            for lane in 0..k {
                values[s * k + lane] = v * (1.0 + lane as f64 / 16.0);
            }
        }
        let sym = Arc::new(SymbolicLu::analyze(&a).expect("ladder pattern is nonsingular"));
        let mut lu = BatchedLu::new(sym, k);
        let mut b = vec![1.0; a.dim() * k];
        time_per_call(|| {
            lu.refactor(&a, black_box(&values))
                .expect("ladder values are nonsingular");
            b.fill(1.0);
            lu.solve_in_place(&mut b);
            black_box(&b);
        }) * 1e6
    };

    // Device evaluation: the SoA bank at K and the scalar model.
    let devices = mosfets(k);
    let (bank_eval_ns_per_lane, eval_ns) = {
        let refs: Vec<&Mosfet> = devices.iter().collect();
        let mut bank = MosfetBank::try_new(&refs).expect("lanes differ only by variation");
        let mut v = vec![0.0; 4 * k];
        for (t, base) in [0.6, 0.55, 0.0, 0.0].iter().enumerate() {
            for lane in 0..k {
                v[t * k + lane] = base + 0.01 * lane as f64;
            }
        }
        let mut current = vec![0.0; 4 * k];
        let mut jacobian = vec![0.0; 16 * k];
        let bank_ns = time_per_call(|| {
            bank.eval_lanes(black_box(&v), &mut current, &mut jacobian);
            black_box(&current);
        }) * 1e9
            / k as f64;
        let mut stamp = DeviceStamp::new(4);
        let bias = [0.6, 0.55, 0.0, 0.0];
        let scalar_ns = time_per_call(|| {
            stamp.clear();
            devices[0].eval(black_box(&bias), &mut stamp);
            black_box(&stamp);
        }) * 1e9;
        (bank_ns, scalar_ns)
    };

    // The daemon's per-line protocol work.
    let submit = r#"{"type":"submit","id":17,"n_segments":2,"dies":4,"vdd":[0.95,1.1,1.2],"seed":1024,"fault":{"kind":"leak","index":0,"r":3000}}"#;
    let parse_us = time_per_call(|| {
        black_box(parse_request(black_box(submit)).expect("valid submit"));
    }) * 1e6;
    let verdict = vec![
        ("type".to_owned(), Json::Str("verdict".into())),
        ("id".to_owned(), Json::Num(17.0)),
        ("job".to_owned(), Json::Num(18.0)),
        ("vdd".to_owned(), Json::Num(1.1)),
        ("die".to_owned(), Json::Num(3.0)),
        ("status".to_owned(), Json::Str("ok".into())),
        ("delta_t".to_owned(), Json::Num(4.517_233_902_1e-10)),
        ("t1".to_owned(), Json::Num(2.301_882_760_4e-9)),
        ("t2".to_owned(), Json::Num(1.850_159_370_2e-9)),
        ("latency_s".to_owned(), Json::Num(0.283_114_2)),
    ];
    let render_us = time_per_call(|| {
        black_box(render_line(black_box(verdict.clone())));
    }) * 1e6;

    Probes {
        build_us,
        queue_s_per_die,
        batched_lu_us,
        bank_eval_ns_per_lane,
        eval_ns,
        parse_us,
        render_us,
    }
}

/// Tridiagonal-plus-border pattern of dimension `n + 1`, the shape of an
/// RC ladder's MNA matrix with one source branch.
fn ladder(n: usize) -> SparseMatrix {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2e-2));
        if i + 1 < n {
            t.push((i, i + 1, -1e-2));
            t.push((i + 1, i, -1e-2));
        }
    }
    t.push((0, n, 1.0));
    t.push((n, 0, 1.0));
    SparseMatrix::from_triplets(n + 1, &t)
}

/// `k` instances of one NMOS slot with per-lane variation deltas.
fn mosfets(k: usize) -> Vec<Mosfet> {
    let mut ckt = Circuit::new();
    let (d, g, s, b) = (ckt.node("d"), ckt.node("g"), ckt.node("s"), ckt.node("b"));
    (0..k)
        .map(|i| {
            let delta = MosDelta {
                dvth: 0.002 * i as f64,
                dleff_rel: -0.001 * i as f64,
            };
            Mosfet::new(
                "m",
                tech45::nmos(DriveStrength::X2).with_delta(delta),
                d,
                g,
                s,
                b,
            )
        })
        .collect()
}
