//! Run manifests: one machine-readable JSON document per experiment run.
//!
//! A manifest captures everything needed to audit or compare a run —
//! provenance (git rev, timestamp, seed), configuration (fidelity,
//! thread count), outcome (check pass/fail counts, solver statistics),
//! the per-phase wall-time breakdown from the span tracer, and every
//! registered metric. `bench_solver --check` and the CI smoke test
//! consume these files, so the schema is versioned and validated.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "experiment": "e3",
//!   "git_rev": "abc123… | unknown",
//!   "timestamp_unix": 1754000000,
//!   "fidelity": "fast | full",
//!   "threads": 8,
//!   "seed": 1007,                  // or null
//!   "wall_seconds": 4.7,
//!   "checks": {"passed": 3, "failed": 0},
//!   "solver_stats": {…},           // or null
//!   "phases": [                    // depth-1 spans, main thread
//!     {"name": "mc_population", "path": "e3>mc_population",
//!      "count": 1, "total_seconds": 4.1, "self_seconds": 0.2}
//!   ],
//!   "metrics": {"counters": {…}, "gauges": {…}, "histograms": {…}}
//! }
//! ```

use std::process::Command;
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::span::SpanReport;

/// Version of the manifest schema emitted by [`build_manifest`].
pub const SCHEMA_VERSION: f64 = 1.0;

/// Run-level inputs to a manifest that the tracer and metrics registry
/// don't know about.
#[derive(Debug, Clone)]
pub struct ManifestInputs {
    /// Experiment id, e.g. `"e3"`.
    pub experiment: String,
    /// Fidelity label, e.g. `"fast"` or `"full"`.
    pub fidelity: String,
    /// Worker thread count used for parallel sections.
    pub threads: usize,
    /// RNG seed of the run, when the experiment is stochastic.
    pub seed: Option<u64>,
    /// Total wall time of the run in seconds.
    pub wall_seconds: f64,
    /// Acceptance checks that passed.
    pub checks_passed: u64,
    /// Acceptance checks that failed.
    pub checks_failed: u64,
    /// Aggregated solver statistics as JSON, when available.
    pub solver_stats: Option<Json>,
}

/// The git revision of the working directory, or `"unknown"` outside a
/// git checkout. Resolved once per process: callers on hot paths (a
/// daemon's per-job `done` trailer) never fork `git` again.
pub fn git_rev() -> String {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned())
    })
    .clone()
}

/// Builds a schema-version-1 manifest from run inputs, a span report
/// (its depth-1 entries become the `phases` array), and a metrics dump
/// (normally [`crate::metrics::dump_json`]).
pub fn build_manifest(inputs: &ManifestInputs, spans: &SpanReport, metrics: Json) -> Json {
    let timestamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as f64)
        .unwrap_or(0.0);
    let phases: Vec<Json> = spans
        .at_depth(1)
        .map(|e| {
            Json::Obj(vec![
                ("name".into(), Json::Str(e.name.clone())),
                ("path".into(), Json::Str(e.path.clone())),
                ("count".into(), Json::Num(e.count as f64)),
                ("total_seconds".into(), Json::num_or_null(e.total_seconds)),
                ("self_seconds".into(), Json::num_or_null(e.self_seconds)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema_version".into(), Json::Num(SCHEMA_VERSION)),
        ("experiment".into(), Json::Str(inputs.experiment.clone())),
        ("git_rev".into(), Json::Str(git_rev())),
        ("timestamp_unix".into(), Json::Num(timestamp)),
        ("fidelity".into(), Json::Str(inputs.fidelity.clone())),
        ("threads".into(), Json::Num(inputs.threads as f64)),
        (
            "seed".into(),
            inputs.seed.map_or(Json::Null, |s| Json::Num(s as f64)),
        ),
        (
            "wall_seconds".into(),
            Json::num_or_null(inputs.wall_seconds),
        ),
        (
            "checks".into(),
            Json::Obj(vec![
                ("passed".into(), Json::Num(inputs.checks_passed as f64)),
                ("failed".into(), Json::Num(inputs.checks_failed as f64)),
            ]),
        ),
        (
            "solver_stats".into(),
            inputs.solver_stats.clone().unwrap_or(Json::Null),
        ),
        ("phases".into(), Json::Arr(phases)),
        ("metrics".into(), metrics),
    ])
}

fn require<'a>(doc: &'a Json, key: &str, errors: &mut Vec<String>) -> Option<&'a Json> {
    let v = doc.get(key);
    if v.is_none() {
        errors.push(format!("missing key '{key}'"));
    }
    v
}

fn require_num(doc: &Json, key: &str, errors: &mut Vec<String>) -> Option<f64> {
    let v = require(doc, key, errors)?;
    let n = v.as_f64();
    if n.is_none() {
        errors.push(format!("'{key}' must be a number"));
    }
    n
}

fn require_str(doc: &Json, key: &str, errors: &mut Vec<String>) {
    if let Some(v) = require(doc, key, errors) {
        if v.as_str().is_none() {
            errors.push(format!("'{key}' must be a string"));
        }
    }
}

/// Validates a parsed document against the version-1 manifest schema.
/// Returns every violation found, so CI output names all problems at
/// once.
///
/// Schema versions are `major.minor` encoded as a number. An unknown
/// *major* (`trunc(v) != 1`) is an error — field meanings may have
/// changed. A newer *minor* within the known major (e.g. `1.2` when
/// this validator knows `1.0`) is forward-compatible by contract
/// (minors only add fields), so the document is validated against the
/// known fields and the mismatch is reported as a warning in `Ok`.
pub fn validate_manifest(doc: &Json) -> Result<Vec<String>, Vec<String>> {
    let mut errors = Vec::new();
    let mut warnings = Vec::new();
    if !matches!(doc, Json::Obj(_)) {
        return Err(vec!["manifest must be a JSON object".into()]);
    }
    if let Some(v) = require_num(doc, "schema_version", &mut errors) {
        if v.trunc() != SCHEMA_VERSION.trunc() {
            errors.push(format!(
                "unsupported schema_version {v} (this validator understands major version {})",
                SCHEMA_VERSION.trunc()
            ));
        } else if v > SCHEMA_VERSION {
            warnings.push(format!(
                "schema_version {v} is newer than the supported {SCHEMA_VERSION}; \
                 validating against the known version-{SCHEMA_VERSION} fields only"
            ));
        }
    }
    require_str(doc, "experiment", &mut errors);
    require_str(doc, "git_rev", &mut errors);
    require_str(doc, "fidelity", &mut errors);
    require_num(doc, "timestamp_unix", &mut errors);
    require_num(doc, "threads", &mut errors);
    require_num(doc, "wall_seconds", &mut errors);
    if let Some(seed) = require(doc, "seed", &mut errors) {
        if !matches!(seed, Json::Null | Json::Num(_)) {
            errors.push("'seed' must be a number or null".into());
        }
    }
    if let Some(checks) = require(doc, "checks", &mut errors) {
        require_num(checks, "passed", &mut errors);
        require_num(checks, "failed", &mut errors);
    }
    if let Some(stats) = require(doc, "solver_stats", &mut errors) {
        if !matches!(stats, Json::Null | Json::Obj(_)) {
            errors.push("'solver_stats' must be an object or null".into());
        }
    }
    match require(doc, "phases", &mut errors) {
        Some(Json::Arr(phases)) => {
            for (i, phase) in phases.iter().enumerate() {
                let mut phase_errors = Vec::new();
                require_str(phase, "name", &mut phase_errors);
                require_str(phase, "path", &mut phase_errors);
                require_num(phase, "count", &mut phase_errors);
                require_num(phase, "total_seconds", &mut phase_errors);
                require_num(phase, "self_seconds", &mut phase_errors);
                errors.extend(
                    phase_errors
                        .into_iter()
                        .map(|e| format!("phases[{i}]: {e}")),
                );
            }
        }
        Some(_) => errors.push("'phases' must be an array".into()),
        None => {}
    }
    match require(doc, "metrics", &mut errors) {
        Some(metrics @ Json::Obj(_)) => {
            for section in ["counters", "gauges", "histograms"] {
                if !matches!(metrics.get(section), Some(Json::Obj(_))) {
                    errors.push(format!("'metrics.{section}' must be an object"));
                }
            }
        }
        Some(_) => errors.push("'metrics' must be an object".into()),
        None => {}
    }
    if errors.is_empty() {
        Ok(warnings)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_inputs() -> ManifestInputs {
        ManifestInputs {
            experiment: "e_test".into(),
            fidelity: "fast".into(),
            threads: 4,
            seed: Some(1007),
            wall_seconds: 1.25,
            checks_passed: 3,
            checks_failed: 1,
            solver_stats: Some(Json::Obj(vec![(
                "newton_iterations".into(),
                Json::Num(42.0),
            )])),
        }
    }

    #[test]
    fn built_manifest_validates_and_roundtrips() {
        let manifest = build_manifest(
            &sample_inputs(),
            &SpanReport::default(),
            crate::metrics::dump_json(),
        );
        validate_manifest(&manifest).expect("fresh manifest conforms to its own schema");
        let reparsed = json::parse(&manifest.render_pretty()).expect("parse");
        validate_manifest(&reparsed).expect("roundtripped manifest conforms");
        assert_eq!(
            reparsed.get("experiment").and_then(Json::as_str),
            Some("e_test")
        );
        assert_eq!(
            reparsed
                .get("checks")
                .and_then(|c| c.get("failed"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn null_seed_and_stats_are_valid() {
        let mut inputs = sample_inputs();
        inputs.seed = None;
        inputs.solver_stats = None;
        let manifest = build_manifest(&inputs, &SpanReport::default(), crate::metrics::dump_json());
        validate_manifest(&manifest).expect("nullable fields validate");
        assert_eq!(manifest.get("seed"), Some(&Json::Null));
    }

    #[test]
    fn schema_version_major_minor_semantics() {
        fn with_version(doc: &Json, v: f64) -> Json {
            let Json::Obj(fields) = doc else {
                panic!("manifest is an object")
            };
            Json::Obj(
                fields
                    .iter()
                    .map(|(k, val)| {
                        if k == "schema_version" {
                            (k.clone(), Json::Num(v))
                        } else {
                            (k.clone(), val.clone())
                        }
                    })
                    .collect(),
            )
        }
        let manifest = build_manifest(
            &sample_inputs(),
            &SpanReport::default(),
            crate::metrics::dump_json(),
        );
        // The current version validates without warnings…
        assert!(validate_manifest(&manifest)
            .expect("current version")
            .is_empty());
        // …an older minor of the same major too…
        assert!(validate_manifest(&with_version(&manifest, 1.0))
            .expect("known minor")
            .is_empty());
        // …a newer minor passes but warns…
        let warnings =
            validate_manifest(&with_version(&manifest, 1.7)).expect("newer minor accepted");
        assert!(warnings.iter().any(|w| w.contains("newer")), "{warnings:?}");
        // …and an unknown major fails outright, both up and down.
        for major in [2.0, 2.3, 0.9] {
            let errors = validate_manifest(&with_version(&manifest, major))
                .expect_err("unknown major rejected");
            assert!(
                errors.iter().any(|e| e.contains("schema_version")),
                "{errors:?}"
            );
        }
    }

    #[test]
    fn validation_reports_all_violations() {
        let doc = json::parse(r#"{"schema_version": 99, "experiment": 5}"#).expect("parse");
        let errors = validate_manifest(&doc).expect_err("invalid manifest");
        assert!(errors.iter().any(|e| e.contains("schema_version")));
        assert!(errors
            .iter()
            .any(|e| e.contains("'experiment' must be a string")));
        assert!(errors.iter().any(|e| e.contains("missing key 'phases'")));
        assert!(errors.len() >= 8, "{errors:?}");
    }
}
