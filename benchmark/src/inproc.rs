//! The in-process workloads (`mc_uniform`, `mc_ladder`, `die_sweep`),
//! driven through the `rotsv` facade only: Monte-Carlo populations on the
//! Auto engine and single-die `measure_delta_t` calls fanned out with
//! `parallel_map`.

use std::path::Path;
use std::time::Instant;

use rotsv::mc::{
    delta_t_fault_sweep_with_engine, delta_t_population_with_engine, resolve_engine, McEngine,
};
use rotsv::num::parallel::parallel_map;
use rotsv::spice::SolverStats;
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::{die_seed, Die, TestBench};
use rotsv_obs::Json;

use crate::report::{Counts, Metrics, RunResult};
use crate::stats::{cpu_seconds, median, percentile, rss_peak_mb};
use crate::workload::{self as wl, DieSweep, Population, Workload, THREADS};
use crate::RunOpts;

/// Agreement budget between a re-measured die and the measured run.
const DELTA_T_TOLERANCE: f64 = 5e-3;

/// One measured unit: a population, or one die's sweep.
struct UnitRun {
    verdicts: usize,
    stuck: usize,
    errors: usize,
    /// Per verdict: `Some(ΔT)`, or `None` when the enabled run was stuck.
    /// Absent when the stuck dies could not be matched to the expected
    /// ones (the population facade reports stuck dies by count).
    outcomes: Option<Vec<Option<f64>>>,
    /// Per verdict, seconds until it was available: the population's
    /// wall, or the wall of the die's own `measure_delta_t` call.
    latencies: Vec<f64>,
    stats: SolverStats,
    lanes: usize,
    wall: f64,
    cpu: f64,
}

enum Plan {
    Populations(Vec<Population>),
    Sweep(DieSweep),
}

fn spread() -> ProcessSpread {
    ProcessSpread::paper()
}

/// Whether a die with these faults is expected to be stuck: only the
/// ladder's 300 Ω and 500 Ω leaks stop the ring.
fn expect_stuck(faults: &[TsvFault]) -> bool {
    matches!(faults[0], TsvFault::Leakage { r } if wl::ladder_stuck(r.value()))
}

impl Plan {
    fn new(opts: &RunOpts) -> Plan {
        match opts.workload {
            Workload::McUniform => {
                Plan::Populations(wl::mc_uniform(opts.seed, opts.seconds, opts.smoke))
            }
            Workload::McLadder => {
                Plan::Populations(wl::mc_ladder(opts.seed, opts.seconds, opts.smoke))
            }
            Workload::DieSweep => Plan::Sweep(wl::die_sweep(opts.seconds, opts.smoke)),
            Workload::Screen => unreachable!("screen runs the daemon"),
        }
    }

    fn units(&self) -> usize {
        match self {
            Plan::Populations(p) => p.len(),
            Plan::Sweep(s) => s.dies,
        }
    }

    /// First-touch work before the timed phase: one facade call per ring
    /// topology of the workload, on a single die. Callers warm up with
    /// the seed-0 plan, so set-up work does not depend on the run's seed.
    fn warm_up(&self) -> Result<(), String> {
        match self {
            Plan::Populations(pops) => {
                let mut seen: Vec<String> = Vec::new();
                for pop in pops {
                    let key = format!("{}{:?}", pop.n_segments, pop.faults[0]);
                    if seen.contains(&key) {
                        continue;
                    }
                    seen.push(key);
                    delta_t_population_with_engine(
                        &TestBench::fast(pop.n_segments),
                        pop.vdd,
                        &pop.faults[0],
                        &[0],
                        spread(),
                        0,
                        1,
                        McEngine::Auto,
                    )
                    .map_err(|e| format!("warm-up population: {e}"))?;
                }
                Ok(())
            }
            Plan::Sweep(_) => {
                let bench = TestBench::fast(2);
                let die = Die::new(spread(), die_seed(0, 0));
                for fault in [wl::sweep_points()[0], wl::open_1k(), wl::sweep_points()[7]] {
                    bench
                        .measure_delta_t(1.1, &wl::on_tsv0(2, fault), &[0], &die)
                        .map_err(|e| format!("warm-up measurement: {e}"))?;
                }
                Ok(())
            }
        }
    }

    fn run_unit(&self, seed: u64, u: usize) -> Result<UnitRun, String> {
        match self {
            Plan::Populations(pops) => run_population(&pops[u]),
            Plan::Sweep(sweep) => run_die(sweep, seed, u),
        }
    }

    /// Ring shape and lane width of the layer probes.
    fn probe_shape(&self, lanes: usize) -> (TestBench, f64, Vec<TsvFault>, usize) {
        match self {
            Plan::Populations(pops) => (
                TestBench::fast(pops[0].n_segments),
                pops[0].vdd,
                pops[0].faults[0].clone(),
                lanes,
            ),
            Plan::Sweep(sweep) => (
                TestBench::fast(2),
                sweep.vdds[0],
                wl::on_tsv0(2, TsvFault::None),
                1,
            ),
        }
    }
}

fn run_population(pop: &Population) -> Result<UnitRun, String> {
    let bench = TestBench::fast(pop.n_segments);
    let dies = pop.dies();
    let lanes = match resolve_engine(McEngine::Auto, dies) {
        McEngine::Batched { lanes } | McEngine::BatchedChunked { lanes } => lanes,
        McEngine::Scalar | McEngine::Auto => 1,
    };
    let _span = rotsv_obs::span!("bench.population", "dies" = dies);
    let (t0, c0) = (Instant::now(), cpu_seconds(None)?);
    let result = if pop.uniform() {
        delta_t_population_with_engine(
            &bench,
            pop.vdd,
            &pop.faults[0],
            &[0],
            spread(),
            pop.seed,
            dies,
            McEngine::Auto,
        )
    } else {
        delta_t_fault_sweep_with_engine(
            &bench,
            pop.vdd,
            &pop.faults,
            &[0],
            spread(),
            pop.seed,
            McEngine::Auto,
        )
    };
    let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds(None)? - c0);
    let latencies = vec![wall; dies];
    let Ok(res) = result else {
        return Ok(UnitRun {
            verdicts: dies,
            stuck: 0,
            errors: dies,
            outcomes: None,
            latencies,
            stats: SolverStats::default(),
            lanes,
            wall,
            cpu,
        });
    };
    let expected: Vec<bool> = pop.faults.iter().map(|f| expect_stuck(f)).collect();
    let expected_stuck = expected.iter().filter(|&&s| s).count();
    let outcomes = (res.stuck_count == expected_stuck && res.reference_failures == 0).then(|| {
        let mut deltas = res.deltas.iter();
        expected
            .iter()
            .map(|&stuck| if stuck { None } else { deltas.next().copied() })
            .collect()
    });
    Ok(UnitRun {
        verdicts: dies,
        stuck: res.stuck_count,
        errors: res.reference_failures,
        outcomes,
        latencies,
        stats: res.stats,
        lanes,
        wall,
        cpu,
    })
}

fn run_die(sweep: &DieSweep, seed: u64, u: usize) -> Result<UnitRun, String> {
    let bench = TestBench::fast(2);
    let die = Die::new(spread(), die_seed(seed, u));
    let points = wl::sweep_points();
    let n = sweep.vdds.len() * points.len();
    let _span = rotsv_obs::span!("bench.die_sweep", "die" = u);
    let (t0, c0) = (Instant::now(), cpu_seconds(None)?);
    let results = parallel_map(n, |p| {
        let vdd = sweep.vdds[p / points.len()];
        let faults = wl::on_tsv0(2, points[p % points.len()]);
        let t = Instant::now();
        let m = bench.measure_delta_t(vdd, &faults, &[0], &die);
        (m, t.elapsed().as_secs_f64())
    });
    let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds(None)? - c0);
    let mut run = UnitRun {
        verdicts: n,
        stuck: 0,
        errors: 0,
        outcomes: None,
        latencies: Vec::with_capacity(n),
        stats: SolverStats::default(),
        lanes: 1,
        wall,
        cpu,
    };
    let mut outcomes = Vec::with_capacity(n);
    for (r, latency) in results {
        run.latencies.push(latency);
        match r {
            Ok(m) if !m.reference_failed() => {
                run.stats.merge(&m.stats);
                run.stuck += usize::from(m.is_stuck());
                outcomes.push(m.delta());
            }
            _ => {
                run.errors += 1;
                outcomes.push(None);
            }
        }
    }
    run.outcomes = Some(outcomes);
    Ok(run)
}

/// Runs an in-process workload: set-up (repeated, median reported), the
/// measured units, and the output checks. A traced run additionally
/// repeats unit 0 untraced as the reference for overhead ratios, and
/// runs the layer probes.
pub fn run(opts: &RunOpts, trace_path: &Path) -> Result<RunResult, String> {
    let plan = Plan::new(opts);
    let warm = Plan::new(&RunOpts {
        seed: 0,
        ..opts.clone()
    });
    let mut setups = Vec::new();
    for _ in 0..opts.setup_repeats() {
        let t0 = Instant::now();
        crate::load_tuning()?;
        warm.warm_up()?;
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut result = RunResult::default();
    let runs: Vec<UnitRun>;
    if opts.trace {
        let base = plan.run_unit(opts.seed, 0)?;
        crate::set_obs(true);
        rotsv_obs::reset();
        runs = {
            let _span = rotsv_obs::span!("bench.measure", "units" = plan.units());
            (0..plan.units())
                .map(|u| plan.run_unit(opts.seed, u))
                .collect::<Result<_, _>>()?
        };
        let mut layers = layer_metrics(&base, &runs);
        let events = crate::write_trace(trace_path);
        crate::set_obs(false);
        result
            .detail
            .push(("trace_events".into(), Json::Num(events? as f64)));
        let (bench, vdd, faults, k) = plan.probe_shape(runs[0].lanes);
        crate::insert_probes(
            &mut layers,
            &crate::probe::run(&bench, vdd, &faults, k, opts.seed),
        );
        result.metrics = layers;
    } else {
        runs = (0..plan.units())
            .map(|u| plan.run_unit(opts.seed, u))
            .collect::<Result<_, _>>()?;
        let rates: Vec<f64> = runs.iter().map(|r| r.verdicts as f64 / r.wall).collect();
        let latencies: Vec<f64> = runs.iter().flat_map(|r| r.latencies.clone()).collect();
        let m = &mut result.metrics;
        m.insert("dies_per_s", median(&rates));
        m.insert("latency_p50_s", percentile(&latencies, 0.5));
        m.insert("latency_p90_s", percentile(&latencies, 0.9));
        m.insert("setup_s", median(&setups));
        m.insert("rss_peak_mb", rss_peak_mb(None)?);
    }

    let mut counts = Counts::default();
    for r in &runs {
        counts.verdicts += r.verdicts as u64;
        counts.stuck += r.stuck as u64;
        counts.add_stats(&r.stats);
    }
    result.counts = counts;
    result.attempted = runs.iter().map(|r| r.verdicts).sum();
    result.failed = runs.iter().map(|r| r.errors).sum();
    result.lanes = runs.iter().map(|r| r.lanes).collect();
    result.detail.push((
        "units".into(),
        Json::Arr(
            runs.iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("verdicts".into(), Json::Num(r.verdicts as f64)),
                        ("lanes".into(), Json::Num(r.lanes as f64)),
                        ("wall_s".into(), Json::Num(r.wall)),
                        ("cpu_s".into(), Json::Num(r.cpu)),
                    ])
                })
                .collect(),
        ),
    ));
    result.detail.push((
        "setup_s".into(),
        Json::Arr(setups.into_iter().map(Json::Num).collect()),
    ));

    let _span = rotsv_obs::span!("bench.checks");
    match &plan {
        Plan::Populations(pops) => check_populations(pops, &runs, opts.seed, &mut result),
        Plan::Sweep(sweep) => check_sweep(sweep, &runs, &mut result),
    }
    Ok(result)
}

/// Per-layer metrics of a traced run: counters from the traced units,
/// histograms from the metrics registry, and CPU ratios from the
/// untraced repetition `base` of unit 0.
fn layer_metrics(base: &UnitRun, runs: &[UnitRun]) -> Metrics {
    let hist = |name: &str| rotsv_obs::histogram(name).summary();
    let mut total = SolverStats::default();
    for r in runs {
        total.merge(&r.stats);
    }
    let verdicts: usize = runs.iter().map(|r| r.verdicts).sum();
    let traced_cpu: f64 = runs.iter().map(|r| r.cpu).sum();
    let per = |n: u64, d: f64| if d > 0.0 { n as f64 / d } else { 0.0 };

    let lu_numeric = hist("lu.numeric");
    let analyze_s: f64 = ["lu.scale", "lu.btf", "lu.order", "lu.symbolic"]
        .iter()
        .map(|n| hist(n).sum)
        .sum();
    let occupancy = hist("mc.batch_occupancy");
    let drag = hist("mc.dt_drag");
    let traced0 = &runs[0];

    let mut m = Metrics::new();
    m.insert("core.cpu_util", base.cpu / (base.wall * THREADS as f64));
    m.insert(
        "core.overhead_share",
        1.0 - base.stats.wall_seconds / base.cpu,
    );
    m.insert(
        "spice.newton_per_die",
        per(total.newton_iterations, verdicts as f64),
    );
    m.insert(
        "spice.steps_per_die",
        per(total.steps_accepted, verdicts as f64),
    );
    m.insert(
        "spice.rejected_per_die",
        per(total.steps_rejected, verdicts as f64),
    );
    m.insert(
        "spice.us_per_newton",
        base.cpu * 1e6 / base.stats.newton_iterations.max(1) as f64,
    );
    m.insert(
        "spice.occupancy_mean",
        if occupancy.count > 0 {
            occupancy.mean()
        } else {
            0.0
        },
    );
    m.insert(
        "spice.dt_drag_p90",
        if drag.count > 0 {
            drag.quantile(0.9)
        } else {
            0.0
        },
    );
    m.insert(
        "spice.newton_per_step",
        per(total.newton_iterations, total.steps_accepted as f64),
    );
    m.insert(
        "num.factor_per_newton",
        per(total.factorizations, total.newton_iterations as f64),
    );
    m.insert("num.analyses", total.symbolic_analyses as f64);
    m.insert(
        "num.lu_numeric_share",
        if traced_cpu > 0.0 {
            lu_numeric.sum / traced_cpu
        } else {
            0.0
        },
    );
    m.insert("num.lu_numeric_us", lu_numeric.mean() * 1e6);
    m.insert("num.lu_analyze_ms", analyze_s * 1e3);
    m.insert(
        "obs.trace_overhead",
        (base.verdicts as f64 / base.wall) / (traced0.verdicts as f64 / traced0.wall) - 1.0,
    );
    m
}

/// Re-measures a deterministic sample of two dies per population with
/// `measure_delta_t` and compares classification and ΔT; also requires
/// every die to be classified as its fault predicts.
fn check_populations(pops: &[Population], runs: &[UnitRun], seed: u64, result: &mut RunResult) {
    let mut samples = Vec::new();
    for (u, (pop, run)) in pops.iter().zip(runs).enumerate() {
        result.check(run.errors == 0, || {
            format!("unit {u}: {} dies failed to simulate", run.errors)
        });
        let expected = pop.faults.iter().filter(|f| expect_stuck(f)).count();
        result.check(run.outcomes.is_some(), || {
            format!(
                "unit {u}: {} stuck dies, expected exactly the {expected} on 300/500 Ω rungs",
                run.stuck
            )
        });
        let Some(outcomes) = &run.outcomes else {
            continue;
        };
        let n = pop.dies();
        let i0 = (seed as usize + 7 * u) % n;
        let i1 = (i0 + n / 2) % n;
        for i in if i0 == i1 { vec![i0] } else { vec![i0, i1] } {
            samples.push((u, i, outcomes[i]));
        }
    }
    let remeasured = parallel_map(samples.len(), |s| {
        let (u, i, _) = samples[s];
        let pop = &pops[u];
        let die = Die::new(spread(), die_seed(pop.seed, i));
        TestBench::fast(pop.n_segments).measure_delta_t(pop.vdd, &pop.faults[i], &[0], &die)
    });
    for (&(u, i, measured), again) in samples.iter().zip(remeasured) {
        let agrees = match (&again, measured) {
            (Ok(m), None) => m.is_stuck(),
            (Ok(m), Some(dt)) => m
                .delta()
                .is_some_and(|d| ((d - dt) / d).abs() <= DELTA_T_TOLERANCE),
            (Err(_), _) => false,
        };
        result.check(agrees, || {
            let again = again.map(|m| m.delta());
            format!("unit {u} die {i}: population gave {measured:?}, re-measured {again:?}")
        });
    }
}

/// Lowest supply at which the fast bench resolves a 1 kΩ open: at 0.8 V
/// the open moves ΔT by less than the period measurement resolves (over
/// 150 dies ΔT(open 1 kΩ) read up to 4 % above fault free), while from
/// 0.95 V up the ordering held on every one of them by at least 2.6 %.
const OPEN_ORDER_MIN_VDD: f64 = 0.95;

/// Physics checks per (die, V_DD): ΔT(fault free) > ΔT(1 kΩ open) >
/// ΔT(3 kΩ open) where opens are resolvable, and everywhere a 3 kΩ leak
/// is stuck or slower than fault free.
fn check_sweep(sweep: &DieSweep, runs: &[UnitRun], result: &mut RunResult) {
    let per_vdd = wl::sweep_points().len();
    for (u, run) in runs.iter().enumerate() {
        result.check(run.errors == 0, || {
            format!("die {u}: {} measurements failed", run.errors)
        });
        let Some(outcomes) = &run.outcomes else {
            continue;
        };
        for (v, &vdd) in sweep.vdds.iter().enumerate() {
            let at = |p: usize| outcomes[v * per_vdd + p];
            let (ff, o1, o3, leak) = (
                at(wl::POINT_FAULT_FREE),
                at(wl::POINT_OPEN_1K),
                at(wl::POINT_OPEN_3K),
                at(wl::POINT_LEAK_3K),
            );
            if vdd >= OPEN_ORDER_MIN_VDD {
                let ordered = matches!((ff, o1, o3), (Some(a), Some(b), Some(c)) if a > b && b > c);
                result.check(ordered, || {
                    format!(
                        "die {u} at {vdd} V: ΔT fault-free {ff:?}, open 1k {o1:?}, open 3k {o3:?}"
                    )
                });
            }
            let leak_ok = match (leak, ff) {
                (None, _) => true,
                (Some(l), Some(f)) => l > f,
                (Some(_), None) => false,
            };
            result.check(leak_ok, || {
                format!("die {u} at {vdd} V: ΔT leak 3k {leak:?} vs fault-free {ff:?}")
            });
        }
    }
}
