//! Emits `BENCH_solver.json`: wall-clock timings of the solver kernels
//! (dense LU, sparse analyze/refactor/solve), end-to-end transient runs
//! with their [`SolverStats`] work counters for both step controllers,
//! and the observability overhead of the `rotsv-obs` span/metric layer.
//! Run with `cargo run --release -p rotsv-bench --bin bench_solver` from
//! the repo root; PERFORMANCE.md quotes its output.
//!
//! ```text
//! bench_solver            # run benches, rewrite BENCH_solver.json
//! bench_solver --check    # run benches, compare against the committed
//!                         # BENCH_solver.json; warn on a >15 % wall-time
//!                         # regression, exit 1 only beyond 25 %
//! bench_solver --check --warn   # same comparison, but always exit 0
//! bench_solver --hetero-probe   # run only the heterogeneous refill
//!                               # section (tuning aid; writes nothing)
//! ```

use std::time::Instant;

use rotsv::num::linsolve::LuFactors;
use rotsv::num::matrix::Matrix;
use rotsv::num::rng::GaussianRng;
use rotsv::num::sparse::{SolverStats, SparseLu, SparseMatrix};
use rotsv::spice::{Circuit, SourceWaveform, StepControl, TransientSpec};
use rotsv::tsv::TsvFault;
use rotsv::{Die, TestBench};
use rotsv_campaign::{value_payload, LedgerEntry, LedgerWriter, SampleStatus};
use rotsv_obs::Json;

/// Wall-time drift beyond this is reported as a warning (timing noise
/// on shared runners makes hard-failing at 15 % too flaky).
const WARN_LIMIT: f64 = 0.15;
/// Wall-time drift beyond this fails `--check` (exit 1).
const FAIL_LIMIT: f64 = 0.25;
/// Workloads whose baseline wall time is under this can warn but never
/// fail: on microsecond-scale kernels a 25 % relative drift is
/// scheduler noise, not a regression. The gate's teeth are the
/// millisecond-plus workloads (the ring ΔT measurement above all).
const FAIL_FLOOR_S: f64 = 1e-3;

/// Runs `f` with the worker pool capped at one thread, so the lane
/// sections report per-core throughput on any host: uncapped, the scalar
/// rows fan their dies out over the cores and the batched rows run their
/// two ΔT runs concurrently. The K = 16/32 speedup floors and the
/// `--engine auto` tuning are per-core figures.
fn on_one_core<T>(f: impl FnOnce() -> T) -> T {
    rotsv::num::parallel::set_thread_limit(std::num::NonZeroUsize::new(1));
    let out = f();
    rotsv::num::parallel::set_thread_limit(None);
    out
}

/// Times `f` over enough repetitions to fill ~50 ms and returns the
/// per-call mean in seconds.
fn time_per_call<O>(mut f: impl FnMut() -> O) -> f64 {
    // Warm up and estimate a single call.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.05 / once) as usize).clamp(1, 100_000);
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn random_dense(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = GaussianRng::seed_from(seed);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = rng.standard_normal();
        }
        a[(i, i)] += n as f64;
    }
    let b: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
    (a, b)
}

/// Tridiagonal conductance block plus a voltage-source border: the
/// sparsity pattern of an RC-ladder MNA system.
fn ladder_triplets(n: usize, g: f64) -> (Vec<(usize, usize, f64)>, usize) {
    let dim = n + 1;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.0 * g));
        if i + 1 < n {
            t.push((i, i + 1, -g));
            t.push((i + 1, i, -g));
        }
    }
    t.push((0, n, 1.0));
    t.push((n, 0, 1.0));
    (t, dim)
}

/// Five-point conductance mesh (`rows x cols` grid Laplacian plus a
/// small ground leak per node) with a voltage-source border pinning the
/// corner node: the sparsity of a 2-D power-grid MNA system, and the
/// shape the staged kernel is built for — the border row has a
/// structural zero diagonal (BTF must match it off-diagonal) and the
/// grid interior rewards the fill-reducing ordering.
fn mesh_triplets(rows: usize, cols: usize, g: f64) -> (Vec<(usize, usize, f64)>, usize) {
    let dim = rows * cols + 1;
    let mut t = Vec::new();
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            t.push((id(r, c), id(r, c), 1e-9));
            for (nr, nc) in [(r + 1, c), (r, c + 1)] {
                if nr < rows && nc < cols {
                    let (a, b) = (id(r, c), id(nr, nc));
                    t.push((a, a, g));
                    t.push((b, b, g));
                    t.push((a, b, -g));
                    t.push((b, a, -g));
                }
            }
        }
    }
    t.push((0, dim - 1, 1.0));
    t.push((dim - 1, 0, 1.0));
    (t, dim)
}

fn rc_ladder(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.add_vsource(vin, Circuit::GROUND, SourceWaveform::step(0.0, 1.0, 0.0));
    let mut prev = vin;
    for i in 0..n {
        let node = ckt.node(&format!("n{i}"));
        ckt.add_resistor(prev, node, 100.0);
        ckt.add_capacitor(node, Circuit::GROUND, 1e-14);
        prev = node;
    }
    ckt
}

fn stats_json(stats: &SolverStats) -> Json {
    Json::Obj(vec![
        (
            "steps_accepted".into(),
            Json::Num(stats.steps_accepted as f64),
        ),
        (
            "steps_rejected".into(),
            Json::Num(stats.steps_rejected as f64),
        ),
        (
            "newton_iterations".into(),
            Json::Num(stats.newton_iterations as f64),
        ),
        (
            "factorizations".into(),
            Json::Num(stats.factorizations as f64),
        ),
        (
            "symbolic_analyses".into(),
            Json::Num(stats.symbolic_analyses as f64),
        ),
        ("solves".into(), Json::Num(stats.solves as f64)),
        ("wall_seconds".into(), Json::Num(stats.wall_seconds)),
    ])
}

fn run_kernels() -> Vec<Json> {
    let mut out = Vec::new();
    println!("kernel timings (per call):");
    for n in [16usize, 64, 128] {
        let (a, b) = random_dense(n, 42);
        let dense = time_per_call(|| {
            let lu = LuFactors::factor(a.clone()).unwrap();
            lu.solve(&b).unwrap()
        });

        let (triplets, dim) = ladder_triplets(n, 1e-2);
        let sm = SparseMatrix::from_triplets(dim, &triplets);
        let rhs = vec![1.0; dim];
        let analyze = time_per_call(|| SparseLu::new(&sm).unwrap());
        let mut lu = SparseLu::new(&sm).unwrap();
        let refactor = time_per_call(|| {
            lu.refactor(&sm).unwrap();
            lu.solve(&rhs).unwrap()
        });

        println!(
            "  n={n:4}  dense_factor_solve {:.3e} s  sparse_analyze {:.3e} s  \
             sparse_refactor_solve {:.3e} s  ({:.1}x)",
            dense,
            analyze,
            refactor,
            dense / refactor
        );
        out.push(Json::Obj(vec![
            ("n".into(), Json::Num(n as f64)),
            ("dense_factor_solve_s".into(), Json::Num(dense)),
            ("sparse_analyze_s".into(), Json::Num(analyze)),
            ("sparse_refactor_solve_s".into(), Json::Num(refactor)),
        ]));
    }

    // KLU-scale meshes: the staged kernel (BTF + min-degree + scaling)
    // at power-grid sizes. Dense comparison at n=1000 only; at n=10000
    // a dense factor would be O(n^3) ~ minutes and 800 MB. Per-call
    // times here are tens of milliseconds, so a single ~50 ms timing
    // window holds only a few calls — take the best of three windows
    // to keep the regression gate out of scheduler noise.
    let best3 = |f: &mut dyn FnMut() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    for (rows, cols) in [(27usize, 37usize), (99, 101)] {
        let (triplets, dim) = mesh_triplets(rows, cols, 1e-2);
        let sm = SparseMatrix::from_triplets(dim, &triplets);
        let rhs = vec![1.0; dim];
        let analyze = best3(&mut || time_per_call(|| SparseLu::new(&sm).unwrap()));
        let mut lu = SparseLu::new(&sm).unwrap();
        let refactor = best3(&mut || {
            time_per_call(|| {
                lu.refactor(&sm).unwrap();
                lu.solve(&rhs).unwrap()
            })
        });
        let fill = lu.lu_nnz() as f64 / sm.nnz() as f64;

        let mut entry = vec![
            ("n".into(), Json::Num(dim as f64)),
            ("sparse_analyze_s".into(), Json::Num(analyze)),
            ("sparse_refactor_solve_s".into(), Json::Num(refactor)),
            ("fill_ratio".into(), Json::Num(fill)),
        ];
        if dim <= 1000 {
            let dense_a = sm.to_dense();
            let dense = best3(&mut || {
                time_per_call(|| {
                    let lu = LuFactors::factor(dense_a.clone()).unwrap();
                    lu.solve(&rhs).unwrap()
                })
            });
            println!(
                "  n={dim:5} (mesh {rows}x{cols})  dense_factor_solve {dense:.3e} s  \
                 sparse_analyze {analyze:.3e} s  sparse_refactor_solve {refactor:.3e} s  \
                 ({:.0}x, fill {fill:.2}x)",
                dense / refactor
            );
            entry.insert(1, ("dense_factor_solve_s".into(), Json::Num(dense)));
        } else {
            println!(
                "  n={dim:5} (mesh {rows}x{cols})  sparse_analyze {analyze:.3e} s  \
                 sparse_refactor_solve {refactor:.3e} s  (fill {fill:.2}x)"
            );
        }
        out.push(Json::Obj(entry));
    }
    out
}

fn run_transients() -> Vec<Json> {
    // Best of 3: these are single-run workloads (the sub-millisecond
    // ladders especially), and one scheduler hiccup would otherwise
    // blow through the regression gate. The work counters are
    // deterministic across repeats; only the wall time varies.
    const REPEATS: usize = 3;
    let mut out = Vec::new();
    println!("transient workloads (best of {REPEATS}):");
    for (name, step) in [
        ("rc_ladder_50_fixed", StepControl::Fixed),
        ("rc_ladder_50_adaptive", StepControl::adaptive()),
    ] {
        let ckt = rc_ladder(50);
        let spec = TransientSpec::new(1e-9, 1e-12).step_control(step);
        let stats = (0..REPEATS)
            .map(|_| ckt.transient(&spec).unwrap().stats())
            .min_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds))
            .expect("at least one repeat");
        println!("  {name}: {}", stats.summary());
        out.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.to_owned())),
            ("stats".into(), stats_json(&stats)),
        ]));
    }

    // One ring ΔT measurement — the unit of work every experiment
    // repeats thousands of times.
    for (name, fixed) in [
        ("ring_delta_t_adaptive", false),
        ("ring_delta_t_fixed", true),
    ] {
        let bench = TestBench::fast(1);
        let mut opts = bench.opts_for(1.1);
        if fixed {
            opts = opts.fixed_step();
        }
        let stats = (0..REPEATS)
            .map(|_| {
                bench
                    .measure_delta_t_with(1.1, &[TsvFault::None], &[0], &Die::nominal(), &opts)
                    .expect("measurement succeeds")
                    .stats
            })
            .min_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds))
            .expect("at least one repeat");
        println!("  {name}: {}", stats.summary());
        out.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.to_owned())),
            ("stats".into(), stats_json(&stats)),
        ]));
    }
    out
}

/// Throughput of the batched Monte-Carlo schedule against the scalar one
/// (one die per one-lane session) on the E3-shaped unit of work (one
/// fault-free ring ΔT measurement per die, process variation on): dies
/// per second at K = 1, 4, 8, 16, 32, 64 lanes, population == K (so
/// refill never fires — this isolates the SIMD width itself;
/// `run_batched_refill` measures the scheduler). The committed numbers back the "Batched MC"
/// section of PERFORMANCE.md; the per-die wall times join the
/// regression set, and the K = 16/32 speedups are hard acceptance
/// gates under `--check` (see [`gate_speedups`]).
fn run_batched_vs_scalar() -> Vec<Json> {
    use rotsv::mc::{delta_t_population_with_engine, McEngine};
    use rotsv::variation::ProcessSpread;

    const REPEATS: usize = 3;
    let bench = TestBench::fast(1);
    let faults = [TsvFault::None];
    let spread = ProcessSpread::paper();
    let mut out = Vec::new();
    println!("batched vs scalar MC engine (ring ΔT per die, best of {REPEATS}):");
    for k in [1usize, 4, 8, 16, 32, 64] {
        let run = |engine: McEngine| -> f64 {
            (0..REPEATS)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(
                        delta_t_population_with_engine(
                            &bench,
                            1.1,
                            &faults,
                            &[0],
                            spread,
                            1007,
                            k,
                            engine,
                        )
                        .expect("population succeeds"),
                    );
                    t0.elapsed().as_secs_f64() / k as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let scalar = run(McEngine::Scalar);
        let batched = run(McEngine::Batched { lanes: k });
        let speedup = scalar / batched;
        println!(
            "  k={k}: scalar {:.2} dies/s, batched {:.2} dies/s ({speedup:.2}x)",
            1.0 / scalar,
            1.0 / batched
        );
        out.push(Json::Obj(vec![
            ("k".into(), Json::Num(k as f64)),
            ("scalar_s_per_die".into(), Json::Num(scalar)),
            ("batched_s_per_die".into(), Json::Num(batched)),
            ("batched_speedup".into(), Json::Num(speedup)),
        ]));
    }
    out
}

/// Lane counts of the `bank_eval` section.
const BANK_EVAL_KS: [usize; 6] = [1, 2, 6, 14, 16, 32];

/// MOSFET evaluation cost per device and lane on one N = 5 ring's
/// transistor slots, evaluated as the lane engine evaluates them: blocks
/// of `block_slots(k)` consecutive slots, one bank call per block at the
/// stride `block_stride`, at k ∈ [`BANK_EVAL_KS`] dies. Below k = 8 one
/// slot does not fill a vector, so without blocks the small widths
/// would be latency-bound at several times the k = 32 cost. Each entry's
/// `speed_vs_k32` is the k = 32 time over its own. The k = 32 blocks
/// are also timed on the scalar arm (`simd_speedup`, scalar time over
/// the active level's), which is what losing the bank's explicit SIMD
/// would fall back to. [`gate_speedups`] floors both. Every width is
/// timed in five interleaved rounds and the median kept.
fn run_bank_eval() -> Json {
    use rotsv::mosfet::{Mosfet, MosfetBank};
    use rotsv::num::simd::{self, Level};
    use rotsv::ro::RingOscillator;
    use rotsv::spice::device::{block_slots, block_stride};
    use rotsv::spice::BatchedDeviceEval;
    use rotsv::variation::ProcessSpread;

    const ROUNDS: usize = 5;
    let bench = TestBench::fast(5);
    let (enabled, _) = bench.ro_configs(1.1, &[TsvFault::None; 5], &[0]);
    let k_max = BANK_EVAL_KS[BANK_EVAL_KS.len() - 1];
    let rings: Vec<RingOscillator> = (0..k_max)
        .map(|i| {
            let die = Die::new(ProcessSpread::paper(), rotsv::die_seed(1007, i));
            RingOscillator::build(&enabled, &mut die.variation())
        })
        .collect();
    let per_die: Vec<Vec<&Mosfet>> = rings
        .iter()
        .map(|ro| {
            ro.circuit()
                .devices()
                .map(|d| {
                    d.as_any()
                        .and_then(|a| a.downcast_ref::<Mosfet>())
                        .expect("a ring's devices are MOSFETs")
                })
                .collect()
        })
        .collect();
    let n_slots = per_die[0].len();

    /// One block: its bank and its stride-sized buffers.
    struct Block {
        bank: MosfetBank,
        v: Vec<f64>,
        current: Vec<f64>,
        jacobian: Vec<f64>,
    }
    let mut blocks_at: Vec<Vec<Block>> = BANK_EVAL_KS
        .iter()
        .map(|&k| {
            let slot_lanes =
                |s: usize| -> Vec<&Mosfet> { per_die[..k].iter().map(|d| d[s]).collect() };
            (0..n_slots)
                .step_by(block_slots(k))
                .map(|first| {
                    let last = (first + block_slots(k)).min(n_slots);
                    let mut bank = MosfetBank::try_new(&slot_lanes(first)).expect("uniform lanes");
                    for s in first + 1..last {
                        assert!(bank.push(&slot_lanes(s)), "uniform slot");
                    }
                    let stride = block_stride((last - first) * k);
                    // A mid-transition bias, perturbed per element like a
                    // Newton iterate.
                    let mut v = vec![0.0; 4 * stride];
                    for (t, base) in [0.6, 0.55, 0.0, 0.0].iter().enumerate() {
                        for e in 0..stride {
                            v[t * stride + e] = base + 0.001 * e as f64;
                        }
                    }
                    Block {
                        bank,
                        v,
                        current: vec![0.0; 4 * stride],
                        jacobian: vec![0.0; 16 * stride],
                    }
                })
                .collect()
        })
        .collect();
    let ns_per_device_lane = |blocks: &mut [Block], k: usize| {
        let per_call = time_per_call(|| {
            for b in blocks.iter_mut() {
                b.bank
                    .eval_lanes(std::hint::black_box(&b.v), &mut b.current, &mut b.jacobian);
            }
        });
        per_call * 1e9 / (n_slots * k) as f64
    };
    let active = simd::level();
    let mut ns = vec![Vec::new(); BANK_EVAL_KS.len()];
    let mut scalar32 = Vec::new();
    for _ in 0..ROUNDS {
        for ((&k, blocks), samples) in BANK_EVAL_KS.iter().zip(&mut blocks_at).zip(&mut ns) {
            samples.push(ns_per_device_lane(blocks, k));
        }
        simd::set_level(Level::Scalar);
        scalar32.push(ns_per_device_lane(
            &mut blocks_at[BANK_EVAL_KS.len() - 1],
            k_max,
        ));
        simd::set_level(active);
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let ns: Vec<f64> = ns.iter_mut().map(median).collect();
    let at32 = ns[BANK_EVAL_KS.len() - 1];
    let scalar32 = median(&mut scalar32);
    println!("bank eval ({n_slots} MOSFET slots of the N = 5 ring, median of {ROUNDS} rounds):");
    let entries = BANK_EVAL_KS
        .iter()
        .zip(&ns)
        .zip(&blocks_at)
        .map(|((&k, &ns), blocks)| {
            println!(
                "  k={k}: {ns:.1} ns per device-lane, {:.2}x k=32's speed ({} blocks of <= {} slots)",
                at32 / ns,
                blocks.len(),
                block_slots(k)
            );
            Json::Obj(vec![
                ("k".into(), Json::Num(k as f64)),
                ("ns_per_device_lane".into(), Json::Num(ns)),
                ("speed_vs_k32".into(), Json::Num(at32 / ns)),
            ])
        })
        .collect();
    println!(
        "  k=32 on the scalar arm: {scalar32:.1} ns per device-lane, {} {:.2}x faster",
        active.name(),
        scalar32 / at32
    );
    Json::Obj(vec![
        ("slots".into(), Json::Num(n_slots as f64)),
        ("level".into(), Json::Str(active.name().into())),
        ("entries".into(), Json::Arr(entries)),
        ("k32_scalar_ns_per_device_lane".into(), Json::Num(scalar32)),
        ("simd_speedup".into(), Json::Num(scalar32 / at32)),
    ])
}

/// Throughput of the refill queue against the chunked (no-refill)
/// scheduling on a population much larger than the lane count: 32 dies
/// streamed through K = 4, 8, 16 lanes. Chunked batches decay toward
/// one busy lane as each batch drains; refill keeps every lane seated
/// until the queue empties, so the gap widens with K. Also measures the
/// lane table `--engine auto` resolves against.
fn run_batched_refill() -> Json {
    use rotsv::mc::{delta_t_population_with_engine, McEngine};
    use rotsv::variation::ProcessSpread;

    const REPEATS: usize = 3;
    const POPULATION: usize = 32;
    let bench = TestBench::fast(1);
    let faults = [TsvFault::None];
    let spread = ProcessSpread::paper();
    let time_pop = |samples: usize, engine: McEngine| -> f64 {
        (0..REPEATS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(
                    delta_t_population_with_engine(
                        &bench,
                        1.1,
                        &faults,
                        &[0],
                        spread,
                        1007,
                        samples,
                        engine,
                    )
                    .expect("population succeeds"),
                );
                t0.elapsed().as_secs_f64() / samples as f64
            })
            .fold(f64::INFINITY, f64::min)
    };

    let mut entries = Vec::new();
    println!("refill vs chunked batching ({POPULATION} dies, best of {REPEATS}):");
    for k in [4usize, 8, 16] {
        let refill = time_pop(POPULATION, McEngine::Batched { lanes: k });
        let chunked = time_pop(POPULATION, McEngine::BatchedChunked { lanes: k });
        let speedup = chunked / refill;
        println!(
            "  k={k}: refill {:.2} dies/s, chunked {:.2} dies/s ({speedup:.2}x)",
            1.0 / refill,
            1.0 / chunked
        );
        entries.push(Json::Obj(vec![
            ("k".into(), Json::Num(k as f64)),
            ("refill_s_per_die".into(), Json::Num(refill)),
            ("chunked_s_per_die".into(), Json::Num(chunked)),
            ("refill_speedup".into(), Json::Num(speedup)),
        ]));
    }

    // Auto lane table: for populations at and above each wide-K width,
    // which lane count actually wins? Measured, not assumed — the rows
    // are `[population_floor, lanes]` pairs that `McEngine::Auto` loads
    // back through `rotsv::mc::load_measured_tuning` (last row whose
    // floor ≤ population wins). Small populations keep K = 16; wider K
    // only earns a row where it measures faster.
    let mut lane_table: Vec<(usize, usize)> = vec![(1, 16)];
    println!("  auto lane table (best of {REPEATS} per cell):");
    for pop in [32usize, 64, 96] {
        let mut best = (f64::INFINITY, 16usize);
        for lanes in [16usize, 32, 64] {
            if lanes > pop {
                continue;
            }
            let t = time_pop(pop, McEngine::Batched { lanes });
            if t < best.0 {
                best = (t, lanes);
            }
        }
        println!(
            "    population {pop}: lanes {} ({:.2} dies/s)",
            best.1,
            1.0 / best.0
        );
        if best.1 != lane_table.last().expect("seeded").1 {
            lane_table.push((pop, best.1));
        }
    }
    let table_json = Json::Arr(
        lane_table
            .iter()
            .map(|&(floor, lanes)| {
                Json::Arr(vec![Json::Num(floor as f64), Json::Num(lanes as f64)])
            })
            .collect(),
    );

    Json::Obj(vec![
        ("entries".into(), Json::Arr(entries)),
        ("auto_lane_table".into(), table_json),
    ])
}

/// Refill vs chunked scheduling on a *runtime-heterogeneous* population:
/// a leakage-ladder fault sweep where roughly a quarter of the dies are
/// hard-stuck (300/500 Ω) and retire their lane within a few periods,
/// while the rest oscillate to full count. Chunked cohorts hold the
/// freed lanes idle until the whole batch drains; the refill queue
/// reseats them immediately, so this is the population shape where
/// cohort scheduling actually pays (the fault-free rows in
/// `batched_refill` have nothing to reseat). The `mc.dt_drag` histogram
/// (accepted dt over the smallest concurrently-trialled dt, per
/// lane-step) quantifies the other cohort cost: how hard the slowest
/// lane drags its cohort-mates' steps.
fn run_batched_refill_hetero() -> Json {
    use rotsv::mc::{delta_t_fault_sweep_with_engine, McEngine};
    use rotsv::num::units::Ohms;
    use rotsv::variation::ProcessSpread;

    const REPEATS: usize = 3;
    const POPULATION: usize = 192;
    // Two stuck rungs (300/500 Ω) in every eight dies; the rest span
    // weak leaks to effectively fault-free. One topology, so the whole
    // sweep shares a symbolic analysis and streams through one queue.
    const LADDER: [f64; 8] = [300.0, 1e5, 1e6, 500.0, 1e7, 1e8, 1e9, 5e6];
    let bench = TestBench::fast(1);
    let spread = ProcessSpread::paper();
    let per_die_faults: Vec<Vec<TsvFault>> = (0..POPULATION)
        .map(|i| {
            vec![TsvFault::Leakage {
                r: Ohms(LADDER[i % LADDER.len()]),
            }]
        })
        .collect();
    let run = |engine: McEngine| {
        delta_t_fault_sweep_with_engine(&bench, 1.1, &per_die_faults, &[0], spread, 1007, engine)
            .expect("fault sweep succeeds")
    };
    let time_sweep = |engine: McEngine| -> f64 {
        (0..REPEATS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(run(engine));
                t0.elapsed().as_secs_f64() / POPULATION as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    // One untimed instrumented run per engine for the dt_drag shape.
    let drag = |engine: McEngine| -> Json {
        rotsv_obs::set_metrics(true);
        rotsv_obs::reset();
        std::hint::black_box(run(engine));
        let h = rotsv_obs::histogram("mc.dt_drag").summary();
        rotsv_obs::set_metrics(false);
        rotsv_obs::reset();
        Json::Obj(vec![
            ("steps".into(), Json::Num(h.count as f64)),
            ("mean".into(), Json::Num(h.mean())),
            ("p50".into(), Json::Num(h.quantile(0.5))),
            ("p90".into(), Json::Num(h.quantile(0.9))),
        ])
    };

    let stuck = run(McEngine::Batched { lanes: 16 }).stuck_count;
    let mut entries = Vec::new();
    println!(
        "heterogeneous refill vs chunked ({POPULATION}-die leakage ladder, \
         {stuck} stuck, best of {REPEATS}):"
    );
    for k in [16usize, 32, 64] {
        let refill = time_sweep(McEngine::Batched { lanes: k });
        let chunked = time_sweep(McEngine::BatchedChunked { lanes: k });
        let speedup = chunked / refill;
        println!(
            "  k={k}: refill {:.2} dies/s, chunked {:.2} dies/s ({speedup:.2}x)",
            1.0 / refill,
            1.0 / chunked
        );
        entries.push(Json::Obj(vec![
            ("k".into(), Json::Num(k as f64)),
            ("refill_s_per_die".into(), Json::Num(refill)),
            ("chunked_s_per_die".into(), Json::Num(chunked)),
            ("refill_speedup".into(), Json::Num(speedup)),
            (
                "dt_drag_refill".into(),
                drag(McEngine::Batched { lanes: k }),
            ),
            (
                "dt_drag_chunked".into(),
                drag(McEngine::BatchedChunked { lanes: k }),
            ),
        ]));
    }
    Json::Obj(vec![
        ("population".into(), Json::Num(POPULATION as f64)),
        ("stuck_count".into(), Json::Num(stuck as f64)),
        ("entries".into(), Json::Arr(entries)),
    ])
}

/// Measures the instrumentation cost of the `rotsv-obs` layer on the
/// ring ΔT workload: once with tracing and metrics fully disabled (the
/// default — every span/observe call is one relaxed atomic load) and
/// once with both enabled. The disabled ratio is the number the 2 %
/// acceptance budget in ISSUE tracking refers to.
fn run_obs_overhead() -> Json {
    let bench = TestBench::fast(1);
    let opts = bench.opts_for(1.1);
    let one = || {
        bench
            .measure_delta_t_with(1.1, &[TsvFault::None], &[0], &Die::nominal(), &opts)
            .expect("measurement succeeds")
    };
    let best_of = |runs: usize, f: &dyn Fn() -> f64| -> f64 {
        (0..runs).map(|_| f()).fold(f64::INFINITY, f64::min)
    };

    rotsv_obs::set_tracing(false);
    rotsv_obs::set_metrics(false);
    let disabled = best_of(3, &|| {
        let t0 = Instant::now();
        std::hint::black_box(one());
        t0.elapsed().as_secs_f64()
    });

    rotsv_obs::set_tracing(true);
    rotsv_obs::set_metrics(true);
    let enabled = best_of(3, &|| {
        rotsv_obs::reset();
        let t0 = Instant::now();
        std::hint::black_box(one());
        t0.elapsed().as_secs_f64()
    });
    rotsv_obs::set_tracing(false);
    rotsv_obs::set_metrics(false);
    rotsv_obs::reset();

    println!(
        "obs overhead (ring ΔT, best of 3): disabled {disabled:.4} s, \
         enabled {enabled:.4} s ({:+.1} %)",
        (enabled / disabled - 1.0) * 100.0
    );
    Json::Obj(vec![
        (
            "workload".into(),
            Json::Str("ring_delta_t_adaptive".to_owned()),
        ),
        ("disabled_s".into(), Json::Num(disabled)),
        ("enabled_s".into(), Json::Num(enabled)),
        (
            "enabled_over_disabled".into(),
            Json::Num(enabled / disabled),
        ),
    ])
}

/// Measures the event-ring cost on the batched Monte-Carlo engine: an
/// 8-die population through 4 refill lanes, once with the ring (and
/// every other switch) disabled — the default shipping configuration,
/// where each feed point is one relaxed load and a branch — and once
/// with events + tracing enabled so lane seat/retire/step events and
/// mirrored spans actually hit the ring. `disabled_s` is the number the
/// 1 % disabled-overhead budget gates across commits (it lands in the
/// regression set via [`wall_times`]); the enabled ratio is
/// informational.
fn run_ring_overhead() -> Json {
    use rotsv::mc::{delta_t_population_with_engine, McEngine};
    use rotsv::variation::ProcessSpread;

    const POPULATION: usize = 8;
    let bench = TestBench::fast(1);
    let faults = [TsvFault::None];
    let spread = ProcessSpread::paper();
    let one = || {
        std::hint::black_box(
            delta_t_population_with_engine(
                &bench,
                1.1,
                &faults,
                &[0],
                spread,
                1007,
                POPULATION,
                McEngine::Batched { lanes: 4 },
            )
            .expect("population succeeds"),
        );
    };
    let best_of = |runs: usize, f: &dyn Fn() -> f64| -> f64 {
        (0..runs).map(|_| f()).fold(f64::INFINITY, f64::min)
    };

    rotsv_obs::set_tracing(false);
    rotsv_obs::set_metrics(false);
    rotsv_obs::set_events(false);
    let disabled = best_of(3, &|| {
        let t0 = Instant::now();
        one();
        t0.elapsed().as_secs_f64()
    });

    rotsv_obs::set_tracing(true);
    rotsv_obs::set_events(true);
    let enabled = best_of(3, &|| {
        rotsv_obs::reset();
        let t0 = Instant::now();
        one();
        t0.elapsed().as_secs_f64()
    });
    let recorded = rotsv_obs::event_ring().snapshot().len();
    let dropped = rotsv_obs::event_ring().dropped();
    rotsv_obs::set_tracing(false);
    rotsv_obs::set_events(false);
    rotsv_obs::reset();

    println!(
        "event-ring overhead (batched population, best of 3): disabled {disabled:.4} s, \
         enabled {enabled:.4} s ({:+.1} %), {recorded} events recorded, {dropped} dropped",
        (enabled / disabled - 1.0) * 100.0
    );
    Json::Obj(vec![
        (
            "workload".into(),
            Json::Str("batched_population_events".to_owned()),
        ),
        ("disabled_s".into(), Json::Num(disabled)),
        ("enabled_s".into(), Json::Num(enabled)),
        (
            "enabled_over_disabled".into(),
            Json::Num(enabled / disabled),
        ),
        ("events_recorded".into(), Json::Num(recorded as f64)),
        ("ring_dropped".into(), Json::Num(dropped as f64)),
    ])
}

/// Measures the campaign ledger-write overhead: seconds per appended
/// JSONL entry (write + flush, the durability a resumable campaign
/// pays per sample) against the seconds one ring ΔT sample costs — the
/// unit of work each append amortizes over. PERFORMANCE.md quotes the
/// ratio; informational, not part of the regression set (it is a
/// filesystem number, not a solver number).
fn run_ledger_overhead() -> Json {
    let entry = LedgerEntry {
        experiment: "e3".into(),
        index: 0,
        seed: 1007,
        git_rev: "0123456789abcdef0123456789abcdef01234567".into(),
        status: SampleStatus::Ok,
        payload: value_payload("vdd=1.10 open-1k", 4.356e-10),
    };
    let path = std::env::temp_dir().join("rotsv_bench_ledger.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut writer = LedgerWriter::open(&path, 0).expect("open temp ledger");
    let append = time_per_call(|| writer.append(&entry).expect("append"));
    drop(writer);
    let _ = std::fs::remove_file(&path);

    let bench = TestBench::fast(1);
    let opts = bench.opts_for(1.1);
    let t0 = Instant::now();
    std::hint::black_box(
        bench
            .measure_delta_t_with(1.1, &[TsvFault::None], &[0], &Die::nominal(), &opts)
            .expect("measurement succeeds"),
    );
    let sample = t0.elapsed().as_secs_f64();

    println!(
        "ledger overhead: {append:.3e} s per appended entry vs {sample:.3e} s per ring ΔT \
         sample ({:.4} % of a sample)",
        append / sample * 100.0
    );
    Json::Obj(vec![
        ("append_s".into(), Json::Num(append)),
        ("ring_delta_t_sample_s".into(), Json::Num(sample)),
        ("append_over_sample".into(), Json::Num(append / sample)),
    ])
}

/// Drives the resident screening server with the load generator and
/// reports sustained verdict throughput plus client-observed latency
/// percentiles, at 1, 2, and 4 worker threads (lanes fixed at 4). The
/// servers run in-process on ephemeral ports; the 2-worker shape (the
/// CI smoke configuration) provides the top-level fields the regression
/// gate tracks, and the `scaling` rows record how dies/s responds to
/// worker count so server-mode throughput is no longer a
/// single-core-only number.
fn run_server_loadgen() -> Json {
    use rotsv_server::{loadgen, Server, ServerConfig};
    let mut scaling = Vec::new();
    let mut baseline_fields: Option<Vec<(String, Json)>> = None;
    for workers in [1usize, 2, 4] {
        let server = Server::start(ServerConfig {
            lanes: 4,
            workers,
            ..ServerConfig::default()
        })
        .expect("start in-process server");
        let config = loadgen::LoadgenConfig {
            addr: server.addr().to_string(),
            jobs: 6,
            dies_per_job: 3,
            interarrival: std::time::Duration::from_millis(10),
            n_segments_mix: vec![1, 2],
            vdd: 1.1,
            seed: 1007,
            fast: true,
        };
        let report = loadgen::run(&config).expect("loadgen run");
        server.stop().expect("server drains");
        assert_eq!(report.rejected, 0, "default queue must absorb the load");
        assert_eq!(
            report.total_verdicts,
            config.jobs * config.dies_per_job,
            "every submitted die must produce a verdict"
        );
        println!(
            "server loadgen (workers={workers}, lanes=4): {} dies in {:.2} s \
             ({:.1} dies/s), verdict latency p50 {:.3} s / p95 {:.3} s / p99 {:.3} s",
            report.total_verdicts,
            report.wall_s,
            report.dies_per_s,
            report.p50_s,
            report.p95_s,
            report.p99_s
        );
        let fields = vec![
            ("jobs".to_string(), Json::Num(config.jobs as f64)),
            (
                "dies_per_job".to_string(),
                Json::Num(config.dies_per_job as f64),
            ),
            (
                "total_verdicts".to_string(),
                Json::Num(report.total_verdicts as f64),
            ),
            ("rejected".to_string(), Json::Num(report.rejected as f64)),
            ("wall_s".to_string(), Json::Num(report.wall_s)),
            ("dies_per_s".to_string(), Json::Num(report.dies_per_s)),
            (
                "s_per_die".to_string(),
                Json::Num(report.wall_s / report.total_verdicts.max(1) as f64),
            ),
            ("p50_s".to_string(), Json::Num(report.p50_s)),
            ("p95_s".to_string(), Json::Num(report.p95_s)),
            ("p99_s".to_string(), Json::Num(report.p99_s)),
        ];
        let mut row = vec![
            ("workers".to_string(), Json::Num(workers as f64)),
            ("lanes".to_string(), Json::Num(4.0)),
        ];
        row.extend(fields.iter().cloned());
        scaling.push(Json::Obj(row));
        if workers == 2 {
            baseline_fields = Some(fields);
        }
    }
    let mut out = baseline_fields.expect("workers=2 row ran");
    out.push(("workers".to_string(), Json::Num(2.0)));
    out.push(("lanes".to_string(), Json::Num(4.0)));
    out.push(("scaling".to_string(), Json::Arr(scaling)));
    Json::Obj(out)
}

/// Flattens a benchmark document into `(workload, wall_seconds)` pairs
/// usable for regression comparison.
fn wall_times(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(kernels) = doc.get("kernels").and_then(Json::as_arr) {
        for k in kernels {
            let Some(n) = k.get("n").and_then(Json::as_f64) else {
                continue;
            };
            for key in [
                "dense_factor_solve_s",
                "sparse_analyze_s",
                "sparse_refactor_solve_s",
            ] {
                if let Some(v) = k.get(key).and_then(Json::as_f64) {
                    out.push((format!("kernel n={n} {key}"), v));
                }
            }
        }
    }
    if let Some(transients) = doc.get("transients").and_then(Json::as_arr) {
        for t in transients {
            let name = t.get("name").and_then(Json::as_str).unwrap_or("?");
            if let Some(w) = t
                .get("stats")
                .and_then(|s| s.get("wall_seconds"))
                .and_then(Json::as_f64)
            {
                out.push((format!("transient {name}"), w));
            }
        }
    }
    if let Some(entries) = doc.get("batched_vs_scalar").and_then(Json::as_arr) {
        for e in entries {
            let Some(k) = e.get("k").and_then(Json::as_f64) else {
                continue;
            };
            for key in ["scalar_s_per_die", "batched_s_per_die"] {
                if let Some(v) = e.get(key).and_then(Json::as_f64) {
                    out.push((format!("mc k={k} {key}"), v));
                }
            }
        }
    }
    if let Some(entries) = doc
        .get("batched_refill")
        .and_then(|r| r.get("entries"))
        .and_then(Json::as_arr)
    {
        for e in entries {
            let Some(k) = e.get("k").and_then(Json::as_f64) else {
                continue;
            };
            for key in ["refill_s_per_die", "chunked_s_per_die"] {
                if let Some(v) = e.get(key).and_then(Json::as_f64) {
                    out.push((format!("mc refill k={k} {key}"), v));
                }
            }
        }
    }
    if let Some(entries) = doc
        .get("batched_refill_hetero")
        .and_then(|r| r.get("entries"))
        .and_then(Json::as_arr)
    {
        for e in entries {
            let Some(k) = e.get("k").and_then(Json::as_f64) else {
                continue;
            };
            for key in ["refill_s_per_die", "chunked_s_per_die"] {
                if let Some(v) = e.get(key).and_then(Json::as_f64) {
                    out.push((format!("mc hetero k={k} {key}"), v));
                }
            }
        }
    }
    // The ring's disabled path is a budgeted contract (the feed points
    // ride in the engine's hot loop), so it joins the regression set.
    if let Some(v) = doc
        .get("ring_overhead")
        .and_then(|r| r.get("disabled_s"))
        .and_then(Json::as_f64)
    {
        out.push(("ring_overhead disabled_s".into(), v));
    }
    // Server-mode screening: per-die service time and the latency tail
    // are both lower-is-better, so they slot into the same gate.
    if let Some(lg) = doc.get("server_loadgen") {
        for key in ["s_per_die", "p50_s", "p95_s", "p99_s"] {
            if let Some(v) = lg.get(key).and_then(Json::as_f64) {
                out.push((format!("server_loadgen {key}"), v));
            }
        }
    }
    out
}

/// Hard throughput floors on the freshly measured document (not the
/// baseline): the wide-lane SIMD engine must hold K = 16 at ≥ 1.63×
/// scalar and K = 32 at ≥ 1.60× (about 0.83× their measured medians;
/// the scalar schedule runs one-lane sessions, whose MOSFET blocks
/// fill their vectors too, so these ratios are lower than when one
/// lane evaluated one transistor at a time), and on the heterogeneous
/// population the refill queue must beat chunked cohorts (> 1.0×) at
/// every K ≥ 16. The `batched_vs_scalar` floors guard lane batching
/// (the LU, SpMV and assembly a session shares across its dies), not
/// the MOSFET bank's explicit SIMD: both columns evaluate full-width
/// blocks on the same arm. That is the last floor's job. The MOSFET
/// block evaluation at k = 1, 2 and 14 must run at ≥ 0.67× its k = 32
/// speed per device-lane (cost at most 1.5×), and at k = 32 the active
/// level must beat the scalar arm by ≥ 1.45× (AVX2 reads about 1.8×,
/// AVX-512 about 2.5×; not checked at the scalar level). Returns failure
/// lines; empty means all gates hold.
fn gate_speedups(doc: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |what: &str, got: Option<f64>, floor: f64| match got {
        Some(v) if v >= floor => println!("  {what}: {v:.2}x (floor {floor}x) ok"),
        Some(v) => failures.push(format!("{what}: {v:.2}x below the {floor}x floor")),
        None => failures.push(format!("{what}: missing from results")),
    };
    println!("\nthroughput gates:");
    let speedup_at = |k: f64| {
        doc.get("batched_vs_scalar")
            .and_then(Json::as_arr)?
            .iter()
            .find(|e| e.get("k").and_then(Json::as_f64) == Some(k))?
            .get("batched_speedup")
            .and_then(Json::as_f64)
    };
    check("batched_vs_scalar k=16", speedup_at(16.0), 1.63);
    check("batched_vs_scalar k=32", speedup_at(32.0), 1.60);
    let bank = doc.get("bank_eval");
    let bank_speed_at = |k: f64| {
        bank?
            .get("entries")
            .and_then(Json::as_arr)?
            .iter()
            .find(|e| e.get("k").and_then(Json::as_f64) == Some(k))?
            .get("speed_vs_k32")
            .and_then(Json::as_f64)
    };
    for k in [1.0, 2.0, 14.0] {
        check(
            &format!("bank_eval k={k} speed vs k=32"),
            bank_speed_at(k),
            0.67,
        );
    }
    let simd_speedup = bank
        .and_then(|b| b.get("simd_speedup"))
        .and_then(Json::as_f64);
    match bank.and_then(|b| b.get("level")).and_then(Json::as_str) {
        Some("scalar") => {
            println!("  bank_eval k=32 vs scalar arm: not checked at the scalar level")
        }
        _ => check("bank_eval k=32 vs scalar arm", simd_speedup, 1.45),
    }
    if let Some(entries) = doc
        .get("batched_refill_hetero")
        .and_then(|r| r.get("entries"))
        .and_then(Json::as_arr)
    {
        for e in entries {
            let Some(k) = e.get("k").and_then(Json::as_f64) else {
                continue;
            };
            if k >= 16.0 {
                // K = 64 sits near unity on single-core hosts (the width
                // itself is past the cache sweet spot — the auto lane
                // table picks 32), so its floor carries a noise margin;
                // the widths auto actually selects are gated hard.
                let floor = if k >= 64.0 { 0.9 } else { 1.0 };
                check(
                    &format!("batched_refill_hetero k={k}"),
                    e.get("refill_speedup").and_then(Json::as_f64),
                    floor,
                );
            }
        }
    } else {
        failures.push("batched_refill_hetero: section missing".into());
    }
    failures
}

/// Workloads whose wall time drifted beyond the warn/fail thresholds.
#[derive(Default)]
struct Regressions {
    /// Beyond [`WARN_LIMIT`] but within [`FAIL_LIMIT`]: reported, never
    /// fatal.
    warnings: Vec<String>,
    /// Beyond [`FAIL_LIMIT`]: fails `--check`.
    failures: Vec<String>,
}

/// Compares current results against the committed baseline.
fn check_regressions(current: &Json, baseline: &Json) -> Regressions {
    let base: std::collections::BTreeMap<String, f64> = wall_times(baseline).into_iter().collect();
    let mut out = Regressions::default();
    println!(
        "\nregression check vs BENCH_solver.json (warn {:.0} %, fail {:.0} %):",
        WARN_LIMIT * 100.0,
        FAIL_LIMIT * 100.0
    );
    for (name, now) in wall_times(current) {
        let Some(&then) = base.get(&name) else {
            println!("  {name}: new workload (no baseline)");
            continue;
        };
        if then <= 0.0 {
            continue;
        }
        let delta = now / then - 1.0;
        let line = format!(
            "{name}: {then:.3e} s -> {now:.3e} s ({delta:+.1}%)",
            delta = delta * 100.0
        );
        let verdict = if delta > FAIL_LIMIT && then >= FAIL_FLOOR_S {
            out.failures.push(line);
            "REGRESSED"
        } else if delta > WARN_LIMIT {
            out.warnings.push(line);
            if then < FAIL_FLOOR_S {
                "warn (sub-ms workload: never fatal)"
            } else {
                "warn"
            }
        } else {
            "ok"
        };
        println!(
            "  {name}: {then:.3e} s -> {now:.3e} s ({:+.1} %) {verdict}",
            delta * 100.0
        );
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let warn_only = args.iter().any(|a| a == "--warn");
    if let Some(bad) = args.iter().find(|a| {
        a.as_str() != "--check" && a.as_str() != "--warn" && a.as_str() != "--hetero-probe"
    }) {
        eprintln!("unknown argument: {bad}");
        eprintln!("usage: bench_solver [--check [--warn]]");
        std::process::exit(2);
    }

    if args.iter().any(|a| a == "--hetero-probe") {
        on_one_core(run_batched_refill_hetero);
        return;
    }
    let kernels = run_kernels();
    let transients = run_transients();
    let batched = on_one_core(run_batched_vs_scalar);
    let refill = on_one_core(run_batched_refill);
    let refill_hetero = on_one_core(run_batched_refill_hetero);
    let bank_eval = run_bank_eval();
    let obs_overhead = run_obs_overhead();
    let ring_overhead = run_ring_overhead();
    let ledger_overhead = run_ledger_overhead();
    let server_loadgen = run_server_loadgen();
    let doc = Json::Obj(vec![
        ("kernels".into(), Json::Arr(kernels)),
        ("transients".into(), Json::Arr(transients)),
        ("batched_vs_scalar".into(), Json::Arr(batched)),
        ("batched_refill".into(), refill),
        ("batched_refill_hetero".into(), refill_hetero),
        ("bank_eval".into(), bank_eval),
        ("obs_overhead".into(), obs_overhead),
        ("ring_overhead".into(), ring_overhead),
        ("ledger_overhead".into(), ledger_overhead),
        ("server_loadgen".into(), server_loadgen),
    ]);

    let gate_failures = gate_speedups(&doc);
    for g in &gate_failures {
        eprintln!("throughput gate failed: {g}");
    }

    if check {
        let baseline = std::fs::read_to_string("BENCH_solver.json")
            .map_err(|e| format!("cannot read BENCH_solver.json: {e}"))
            .and_then(|t| rotsv_obs::json::parse(&t));
        match baseline {
            Ok(base) => {
                let regressions = check_regressions(&doc, &base);
                for r in &regressions.warnings {
                    eprintln!("warning (>{:.0} %): {r}", WARN_LIMIT * 100.0);
                }
                if regressions.failures.is_empty() && gate_failures.is_empty() {
                    println!(
                        "no wall-time regressions beyond {:.0} % ({} warnings), \
                         all throughput gates hold",
                        FAIL_LIMIT * 100.0,
                        regressions.warnings.len()
                    );
                } else {
                    if !regressions.failures.is_empty() {
                        eprintln!("wall-time regressions beyond {:.0} %:", FAIL_LIMIT * 100.0);
                        for r in &regressions.failures {
                            eprintln!("  {r}");
                        }
                    }
                    if !warn_only {
                        std::process::exit(1);
                    }
                    eprintln!("(--warn: not failing)");
                }
            }
            Err(e) => {
                eprintln!("cannot compare: {e}");
                if !warn_only {
                    std::process::exit(1);
                }
            }
        }
    } else {
        std::fs::write("BENCH_solver.json", doc.render_pretty() + "\n")
            .expect("write BENCH_solver.json");
        println!("wrote BENCH_solver.json");
    }
}
