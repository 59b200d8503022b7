//! Wide-lane (K = 32/64) bit-identity tests for the batched engine.
//!
//! The batched engine's contract is that per-die results are a pure
//! function of the die, independent of lane count, scheduling, and the
//! SIMD dispatch level. These tests pin that contract at the new wide
//! lane widths:
//!
//! * the `K = 32` and `K = 64` fixed-width kernels agree bit-for-bit
//!   (`f64::to_bits`) with the chunked scheduler and with the run-time
//!   instantiation of the same kernel bodies, which lane counts outside
//!   the fixed set (24, 31, 63) run: 31 and 63 on the scalar arm, 24 on
//!   the AVX-512 arm where the host has it,
//! * a population larger than the lane count with hard-stuck dies in
//!   the mix forces mid-transient lane retirement and refill, i.e. the
//!   masked-refactor reseat path at `K = 32`,
//! * forcing the dispatch level to Scalar / AVX2 / AVX-512 (clamped to
//!   what the host supports) does not change a single bit, at K = 32
//!   and at the small widths (1, 2, 3, 14) whose MOSFET blocks span
//!   several transistor slots.
//!
//! Level flips in the ISA test are safe to run concurrently with the
//! other tests in this binary precisely *because* of the bit-identity
//! contract: whichever level a racing population observes, it must
//! produce the same bits.

use proptest::prelude::*;
use rotsv::mc::delta_t_fault_sweep_with_engine;
use rotsv::num::simd::{self, Level};
use rotsv::num::units::Ohms;
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::{McDeltaT, McEngine, TestBench};

/// Leakage ladder cycled over the population: two hard-stuck rungs
/// (300/500 Ω) scattered among oscillating ones so that lanes retire
/// early and the queue reseats mid-transient.
const LADDER: [f64; 8] = [300.0, 1e5, 1e6, 500.0, 1e7, 1e8, 1e9, 5e6];

fn ladder_population(dies: usize) -> Vec<Vec<TsvFault>> {
    (0..dies)
        .map(|i| {
            vec![TsvFault::Leakage {
                r: Ohms(LADDER[i % LADDER.len()]),
            }]
        })
        .collect()
}

fn sweep(per_die_faults: &[Vec<TsvFault>], seed: u64, engine: McEngine) -> McDeltaT {
    let bench = TestBench::fast(1);
    delta_t_fault_sweep_with_engine(
        &bench,
        1.1,
        per_die_faults,
        &[0],
        ProcessSpread::paper(),
        seed,
        engine,
    )
    .unwrap()
}

/// `f64::to_bits` equality on the whole population, not `==` (which
/// would accept -0.0 vs +0.0).
fn assert_bits_identical(label: &str, a: &McDeltaT, b: &McDeltaT) {
    assert_eq!(a.stuck_count, b.stuck_count, "{label}: stuck_count");
    assert_eq!(
        a.reference_failures, b.reference_failures,
        "{label}: reference_failures"
    );
    assert_eq!(a.deltas.len(), b.deltas.len(), "{label}: population size");
    for (i, (x, y)) in a.deltas.iter().zip(&b.deltas).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: die {i} differs ({x:e} vs {y:e})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// K = 32 fixed width vs the chunked scheduler vs run-time widths
    /// (24 and 31 lanes are outside the fixed set {1..8, 16, 32, 64}).
    /// The population (36 dies) exceeds the lane count and contains
    /// stuck rungs, so the queued runs exercise lane retirement and the
    /// masked-refactor reseat mid-transient at K = 32.
    #[test]
    fn k32_arms_and_dyn_fallback_are_bit_identical(seed in 0u64..1 << 32) {
        let faults = ladder_population(36);
        let queued = sweep(&faults, seed, McEngine::Batched { lanes: 32 });
        let chunked = sweep(&faults, seed, McEngine::BatchedChunked { lanes: 32 });
        let dyn_k = sweep(&faults, seed, McEngine::Batched { lanes: 31 });
        let dyn_24 = sweep(&faults, seed, McEngine::Batched { lanes: 24 });
        prop_assert!(queued.stuck_count >= 2, "stuck rungs must retire lanes");
        assert_bits_identical("k32 queued vs chunked", &queued, &chunked);
        assert_bits_identical("k32 queued vs dyn-31", &queued, &dyn_k);
        assert_bits_identical("k32 queued vs dyn-24", &queued, &dyn_24);
    }
}

/// K = 64 fixed width vs the chunked scheduler and the run-time width
/// 63 (one refill step).
#[test]
fn k64_arm_matches_chunked_and_dyn_fallback() {
    let faults = ladder_population(64);
    let queued = sweep(&faults, 23, McEngine::Batched { lanes: 64 });
    let chunked = sweep(&faults, 23, McEngine::BatchedChunked { lanes: 64 });
    let dyn_k = sweep(&faults, 23, McEngine::Batched { lanes: 63 });
    assert!(queued.stuck_count >= 2, "stuck rungs must be detected");
    assert_bits_identical("k64 queued vs chunked", &queued, &chunked);
    assert_bits_identical("k64 queued vs dyn-63", &queued, &dyn_k);
}

/// The same K = 32 population produces identical bits at every dispatch
/// level the host supports. `set_level` clamps to `detected()`, so on a
/// scalar-only host all three runs use the portable path and the test
/// degenerates to reproducibility — still a valid (if weaker) check.
#[test]
fn wide_lane_results_are_isa_invariant() {
    let faults = ladder_population(36);
    let run_at = |want: Level| {
        let got = simd::set_level(want);
        assert!(got <= simd::detected());
        sweep(&faults, 23, McEngine::Batched { lanes: 32 })
    };
    let scalar = run_at(Level::Scalar);
    let avx2 = run_at(Level::Avx2);
    let avx512 = run_at(Level::Avx512);
    simd::set_level(simd::detected());
    assert_bits_identical("scalar vs avx2", &scalar, &avx2);
    assert_bits_identical("scalar vs avx512", &scalar, &avx512);
}

/// The small-width twin of [`wide_lane_results_are_isa_invariant`]: at
/// K = 1, 2, 3 and 14 a MOSFET block spans 32, 16, 10 and 2 transistor
/// slots (3 and 14 with padding, 14 a run-time width), and every width
/// at every level gives the same bits as one lane on the scalar arm.
#[test]
fn small_lane_results_are_isa_invariant() {
    let faults = ladder_population(16);
    let mut reference = None;
    for want in [Level::Scalar, Level::Avx2, Level::Avx512] {
        let got = simd::set_level(want);
        assert!(got <= simd::detected());
        for lanes in [1, 2, 3, 14] {
            let run = sweep(&faults, 29, McEngine::Batched { lanes });
            let reference = reference.get_or_insert_with(|| run.clone());
            let label = format!("{} at K = {lanes} vs scalar K = 1", got.name());
            assert_bits_identical(&label, reference, &run);
        }
    }
    simd::set_level(simd::detected());
}
