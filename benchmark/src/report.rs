//! Metric tables, the per-run result, and the JSON the run prints.

use std::collections::BTreeMap;

use rotsv::spice::SolverStats;
use rotsv_obs::Json;

/// End-to-end metrics `(name, unit)`, printed by untraced runs. Every
/// workload reports every one; `BENCHMARK.json` fixes their bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("dies_per_s", "dies/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs. A metric a
/// workload does not exercise (the `server.*` family outside `screen`,
/// lane statistics of the scalar `die_sweep`) reads 0. The lane width and
/// the stuck count are in the run document (`lanes`, `counts`) instead:
/// neither has a better direction.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.cpu_util", "ratio"),
    ("core.overhead_share", "ratio"),
    ("ro.build_us", "us"),
    ("ro.queue_s_per_die", "s"),
    ("spice.newton_per_die", "count"),
    ("spice.steps_per_die", "count"),
    ("spice.rejected_per_die", "count"),
    ("spice.us_per_newton", "us"),
    ("spice.occupancy_mean", "ratio"),
    ("spice.dt_drag_p90", "ratio"),
    ("spice.newton_per_step", "count"),
    ("num.factor_per_newton", "ratio"),
    ("num.analyses", "count"),
    ("num.lu_numeric_share", "ratio"),
    ("num.lu_numeric_us", "us"),
    ("num.lu_analyze_ms", "ms"),
    ("num.batched_lu_us", "us"),
    ("mosfet.bank_eval_ns_per_lane", "ns"),
    ("mosfet.eval_ns", "ns"),
    ("server.verdict_latency_p50_s", "s"),
    ("server.client_gap_s", "s"),
    ("server.queue_depth_max", "units"),
    ("server.sessions_per_kdie", "count"),
    ("server.latency_p99_s", "s"),
    ("server.gen_late_max_s", "s"),
    ("server.parse_us", "us"),
    ("server.render_us", "us"),
    ("obs.trace_overhead", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Simulated work of a run. Speed-only changes must leave these
/// identical for the same workload, seed and run length.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// ΔT verdicts (one die at one V_DD).
    pub verdicts: u64,
    /// Verdicts whose enabled run was stuck.
    pub stuck: u64,
    /// Newton iterations.
    pub newton: u64,
    /// Accepted integration steps.
    pub steps_accepted: u64,
    /// Rejected integration steps.
    pub steps_rejected: u64,
}

impl Counts {
    /// Adds a solver-statistics record's iteration and step counts.
    pub fn add_stats(&mut self, s: &SolverStats) {
        self.newton += s.newton_iterations;
        self.steps_accepted += s.steps_accepted;
        self.steps_rejected += s.steps_rejected;
    }

    /// The counts as a JSON object.
    pub fn to_json(self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("verdicts".into(), n(self.verdicts)),
            ("stuck".into(), n(self.stuck)),
            ("newton".into(), n(self.newton)),
            ("steps_accepted".into(), n(self.steps_accepted)),
            ("steps_rejected".into(), n(self.steps_rejected)),
        ])
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Verdicts attempted in the measured phase.
    pub attempted: usize,
    /// Verdicts that errored, were rejected or never arrived.
    pub failed: usize,
    /// Output checks evaluated.
    pub checks: usize,
    /// Output checks that failed, with the reason.
    pub failures: Vec<String>,
    /// Simulated work of the measured phase.
    pub counts: Counts,
    /// Lane width each population or daemon session ran at.
    pub lanes: Vec<usize>,
    /// Workload-specific detail for the run document.
    pub detail: Vec<(String, Json)>,
}

impl RunResult {
    /// Records one check's outcome.
    pub fn check(&mut self, passed: bool, failure: impl FnOnce() -> String) {
        self.checks += 1;
        if !passed {
            self.failures.push(failure());
        }
    }

    /// Fails the run when any attempted verdict errored, was rejected or
    /// never arrived: a run that lost work would otherwise report the
    /// rate of what was left.
    pub fn check_nothing_lost(&mut self) {
        let (failed, attempted) = (self.failed, self.attempted);
        self.check(failed == 0, || {
            format!("{failed} of {attempted} verdicts errored, were rejected or never arrived")
        });
    }
}

/// Build and host facts every run document records.
pub fn provenance(threads: usize) -> Json {
    Json::Obj(vec![
        ("git_rev".into(), Json::Str(rotsv_obs::git_rev())),
        ("rustc".into(), Json::Str(env!("ROTSV_BENCH_RUSTC").into())),
        (
            "nproc".into(),
            Json::Num(
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1) as f64,
            ),
        ),
        (
            "simd".into(),
            Json::Str(rotsv::num::simd::level().name().into()),
        ),
        ("threads".into(), Json::Num(threads as f64)),
    ])
}

/// `{name: {"value": v, "unit": u}}` over `table`, in table order.
pub fn metrics_json(metrics: &Metrics, table: &[(&str, &str)]) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|&(name, unit)| {
                let value = metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::num_or_null(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The run's closing line: correctness, attempted and failed counts,
/// and the metrics.
pub fn result_line(result: &RunResult, table: &[(&str, &str)]) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(result.failures.is_empty())),
        ("attempted".into(), Json::Num(result.attempted as f64)),
        ("failed".into(), Json::Num(result.failed as f64)),
        ("metrics".into(), metrics_json(&result.metrics, table)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_verdicts_fail_the_run() {
        let mut whole = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        whole.check_nothing_lost();
        assert!(whole.failures.is_empty());
        let mut short = RunResult {
            attempted: 10,
            failed: 1,
            ..RunResult::default()
        };
        short.check_nothing_lost();
        assert_eq!(short.failures.len(), 1);
        let line = rotsv_obs::json::parse(&result_line(&short, END_TO_END)).expect("JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
