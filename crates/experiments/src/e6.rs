//! E6 — Fig. 10: spread overlap grows with the number of TSVs tested
//! simultaneously (M).
//!
//! Testing M TSVs in one oscillator loop amortizes test time, but the
//! process variation of the M segments under test is *not* cancelled by
//! the two-run subtraction. As M grows, both the fault-free and the
//! faulty ΔT populations widen and their spreads start to overlap — the
//! paper's resolution-vs-parallelism trade-off.

use rotsv::mc::delta_t_population;
use rotsv::num::stats::{range_overlap, Summary};
use rotsv::num::units::Ohms;
use rotsv::spice::SolverStats;
use rotsv::spice::SpiceError;
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::TestBench;

use crate::{Check, ExperimentReport, Fidelity};

/// Per-M population pair.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// TSVs tested simultaneously.
    pub m: usize,
    /// Fault-free population.
    pub fault_free: Summary,
    /// Population with one 1 kΩ open among the M TSVs.
    pub faulty: Summary,
    /// Range overlap of the two populations.
    pub overlap: f64,
    /// Solver work summed over both populations at this M.
    pub stats: SolverStats,
}

/// Runs the populations.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn populations(f: &Fidelity, seed: u64) -> Result<Vec<ParallelRow>, SpiceError> {
    let bench = TestBench::new(f.n_segments());
    let samples = f.mc_samples();
    let spread = ProcessSpread::paper();
    // Larger per-transistor spread would also work; the paper's point is
    // the relative growth with M. M runs up to every segment of the
    // bench: {1, 3, 5} at N = 5, {1, 2} at N = 2.
    let mut m_values: Vec<usize> = [1usize, 3]
        .into_iter()
        .filter(|&m| m < bench.n_segments)
        .collect();
    m_values.push(bench.n_segments);
    let mut rows = Vec::new();
    for &m in &m_values {
        let under_test: Vec<usize> = (0..m).collect();
        let ff_faults = vec![TsvFault::None; bench.n_segments];
        let mut open_faults = ff_faults.clone();
        open_faults[0] = TsvFault::ResistiveOpen {
            x: 0.5,
            r: Ohms(1e3),
        };
        let ff = delta_t_population(&bench, 1.1, &ff_faults, &under_test, spread, seed, samples)?;
        let faulty = delta_t_population(
            &bench,
            1.1,
            &open_faults,
            &under_test,
            spread,
            seed,
            samples,
        )?;
        let mut stats = ff.stats;
        stats.merge(&faulty.stats);
        rows.push(ParallelRow {
            m,
            fault_free: Summary::of(&ff.deltas),
            faulty: Summary::of(&faulty.deltas),
            overlap: range_overlap(&ff.deltas, &faulty.deltas),
            stats,
        });
    }
    Ok(rows)
}

/// Runs the Fig. 10 experiment.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run(f: &Fidelity) -> Result<ExperimentReport, SpiceError> {
    let data = populations(f, 1010)?;
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|r| {
            vec![
                r.m.to_string(),
                format!(
                    "[{}, {}]",
                    crate::ps(r.fault_free.min),
                    crate::ps(r.fault_free.max)
                ),
                format!("[{}, {}]", crate::ps(r.faulty.min), crate::ps(r.faulty.max)),
                format!("{:.1}", r.fault_free.half_spread() * 1e12),
                format!("{:.2}", r.overlap),
            ]
        })
        .collect();

    let first = data.first().expect("non-empty");
    let last = data.last().expect("non-empty");
    let checks = vec![
        Check {
            description: format!(
                "population spread grows with M ({}→{} ps half-spread from M=1 to M={})",
                crate::ps(first.fault_free.half_spread()),
                crate::ps(last.fault_free.half_spread()),
                last.m
            ),
            passed: last.fault_free.half_spread() > first.fault_free.half_spread(),
        },
        Check {
            description: format!(
                "overlap grows with M (M=1: {:.2}, M={}: {:.2})",
                first.overlap, last.m, last.overlap
            ),
            passed: last.overlap >= first.overlap,
        },
        Check {
            description: "at M = 1 the fault is cleanly detectable (small overlap)".to_owned(),
            passed: first.overlap < 0.3,
        },
    ];
    let mut total = SolverStats::default();
    for r in &data {
        total.merge(&r.stats);
    }
    Ok(ExperimentReport {
        id: "e6",
        title: "Spread overlap vs number of simultaneously tested TSVs M (Fig. 10)".to_owned(),
        headers: vec![
            "M".to_owned(),
            "fault-free ΔT range (ps)".to_owned(),
            "faulty ΔT range (ps)".to_owned(),
            "ff half-spread (ps)".to_owned(),
            "range overlap".to_owned(),
        ],
        rows,
        notes: vec![
            "One 1 kΩ open at x = 0.5 among the M enabled TSVs; V_DD = 1.1 V.".to_owned(),
            crate::solver_note(&total),
        ],
        checks,
        seed: Some(1010),
        stats: Some(total),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_sweep_compares_at_least_two_m() {
        let report = run(&Fidelity::fast()).unwrap();
        assert!(report.rows.len() >= 2, "{}", report.markdown());
    }
}
