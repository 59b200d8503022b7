//! CLI runner: regenerates the paper's figures and tables.
//!
//! ```text
//! experiments [e0 e1 … | all] [--fast] [--out DIR] [--json]
//!             [--trace] [--trace-out FILE] [--metrics-out] [--threads N]
//!             [--engine scalar|batched[:K]]
//! experiments campaign e1,e3,e5 [--fast] [--ledger FILE] [--out DIR]
//!             [--fresh] [--stop-after N] [--threads N]
//! experiments golden --check|--write [--ids e1,e3,e5] [--perturb LBL]
//!             [--golden FILE] [--threads N]
//! experiments validate-manifest FILE
//! experiments validate-trace FILE
//! experiments report [--out DIR] [--bench FILE]
//! ```
//!
//! Writes one CSV per experiment into the output directory (default
//! `results/`) plus a combined `summary.md`, and prints the markdown
//! reports to stdout. With `--json` the stdout reports are a single JSON
//! array instead. With `--metrics-out` each experiment additionally
//! writes a machine-readable run manifest `manifest_<id>.json` (git rev,
//! seed, per-phase wall breakdown, metric histograms, solver counters)
//! and keeps a live Prometheus snapshot (`metrics.prom` in the output
//! directory) refreshed once a second while the run is in flight.
//! `--trace` prints the hierarchical span tree to stderr after each
//! experiment. `--trace-out FILE` turns on the event ring and writes a
//! Chrome trace-event timeline (Perfetto-loadable) per experiment — to
//! `FILE` exactly when one experiment runs, to `FILE` with `_<id>`
//! appended to the stem otherwise. `validate-manifest` checks a
//! manifest file against the schema and exits nonzero when it does not
//! conform (a newer minor schema version only warns). `validate-trace`
//! checks that a trace file parses and carries at least one `mc_sample`
//! slice and one counter track — the CI smoke contract. `report`
//! aggregates the manifests in the output directory (plus
//! `BENCH_solver.json` when present) into one markdown trend table.
//!
//! `--engine` selects the Monte-Carlo transient engine for the figure
//! runs:
//!
//! * `auto` (the default) — the batched refill queue at the lane width
//!   the measured lane table (read from `BENCH_solver.json` when
//!   present) gives the population size, up to 16 lanes without one;
//! * `scalar` — one die per one-lane session, dies spread over threads;
//! * `batched[:K]` — the asynchronous K-lane refill queue (default
//!   K = 8);
//! * `batched-chunked[:K]` — fixed K-die batches without refill, kept
//!   as the cross-check for the refill scheduler.
//!
//! Every engine schedules the same per-die lane-engine measurement, so a
//! die's ΔT is bit-identical on all of them: the flag changes wall time,
//! never a number. The `campaign` and `golden` subcommands do not take
//! the flag: ledgers and golden signatures are recorded per sample with
//! `TestBench::measure_delta_t`, the same engine every population runs.
//!
//! `campaign` runs a set of experiments as one resumable unit backed by
//! an append-only JSONL ledger (see `rotsv-campaign`); `golden` checks
//! (or intentionally regenerates) the committed `GOLDEN.json`
//! regression signatures. See EXPERIMENTS.md for the workflow.

use std::fs;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rotsv_campaign::{
    diff_against_golden, golden_doc, run_campaign, CampaignOptions, ExperimentSignature,
    LedgerEntry, SampleSet,
};
use rotsv_experiments::campaign_sets::{sample_set, CAMPAIGN_IDS};
use rotsv_experiments::{run_one, ExperimentReport, Fidelity};
use rotsv_obs::Json;

fn usage() {
    eprintln!(
        "usage: experiments [e0..e11 a1..a3 | paper | all] [--fast] [--out DIR] \
         [--json] [--trace] [--trace-out FILE] [--metrics-out] [--threads N] \
         [--engine auto|scalar|batched[:K]|batched-chunked[:K]]\n\
         \x20      experiments campaign IDS [--fast] [--ledger FILE] [--out DIR] \
         [--fresh] [--stop-after N] [--threads N]\n\
         \x20      experiments golden --check|--write [--ids IDS] [--perturb LBL] \
         [--golden FILE] [--threads N]\n\
         \x20      experiments validate-manifest FILE\n\
         \x20      experiments validate-trace FILE\n\
         \x20      experiments report [--out DIR] [--bench FILE]\n\
         \x20      experiments serve [rotsv-server flags]\n\
         exit codes: 0 ok, 3 completed but shape checks failed, else fatal"
    );
}

/// Parses a `--threads N` value and installs the process-wide cap.
fn set_threads(value: Option<String>) -> Result<(), String> {
    match value.and_then(|n| n.parse::<usize>().ok()) {
        Some(n) => {
            rotsv::num::parallel::set_thread_limit(NonZeroUsize::new(n));
            Ok(())
        }
        None => Err("--threads requires a positive integer".into()),
    }
}

/// Parses an `--engine auto|scalar|batched[:K]|batched-chunked[:K]`
/// value.
fn parse_engine(value: &str) -> Result<rotsv::McEngine, String> {
    match value {
        "auto" => Ok(rotsv::McEngine::Auto),
        "scalar" => Ok(rotsv::McEngine::Scalar),
        "batched" => Ok(rotsv::McEngine::Batched { lanes: 8 }),
        "batched-chunked" => Ok(rotsv::McEngine::BatchedChunked { lanes: 8 }),
        other => {
            if let Some(Ok(lanes)) = other.strip_prefix("batched:").map(str::parse::<usize>) {
                if lanes > 0 {
                    return Ok(rotsv::McEngine::Batched { lanes });
                }
            }
            if let Some(Ok(lanes)) = other
                .strip_prefix("batched-chunked:")
                .map(str::parse::<usize>)
            {
                if lanes > 0 {
                    return Ok(rotsv::McEngine::BatchedChunked { lanes });
                }
            }
            Err(format!(
                "--engine expects 'auto', 'scalar', 'batched[:K]' or \
                 'batched-chunked[:K]', got '{other}'"
            ))
        }
    }
}

/// Installs the measured Auto lane table from the committed benchmark
/// baseline, when one is present. `--engine auto` consults it per
/// population; without a baseline the library default holds (up to 16
/// lanes).
fn load_auto_lane_table() {
    rotsv::mc::load_measured_tuning(std::path::Path::new("BENCH_solver.json"));
}

/// Splits a comma-separated id list and resolves each id to its sample
/// set, preserving order and rejecting duplicates or non-campaign ids.
fn resolve_sets(ids_csv: &str, fidelity: &Fidelity) -> Result<Vec<Box<dyn SampleSet>>, String> {
    let mut sets: Vec<Box<dyn SampleSet>> = Vec::new();
    for id in ids_csv.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if sets.iter().any(|s| s.experiment() == id) {
            return Err(format!("duplicate experiment id '{id}'"));
        }
        match sample_set(id, fidelity) {
            Some(set) => sets.push(set),
            None => {
                return Err(format!(
                    "'{id}' has no campaign definition (supported: {})",
                    CAMPAIGN_IDS.join(", ")
                ))
            }
        }
    }
    if sets.is_empty() {
        return Err("no experiment ids given".into());
    }
    Ok(sets)
}

/// Groups ledger entries by experiment (in first-seen order) and
/// computes each experiment's golden signature.
fn signatures_of(entries: &[LedgerEntry]) -> Result<Vec<ExperimentSignature>, String> {
    let mut order: Vec<&str> = Vec::new();
    for e in entries {
        if !order.contains(&e.experiment.as_str()) {
            order.push(&e.experiment);
        }
    }
    order
        .iter()
        .map(|id| {
            let group: Vec<LedgerEntry> = entries
                .iter()
                .filter(|e| e.experiment == *id)
                .cloned()
                .collect();
            ExperimentSignature::from_entries(&group)
        })
        .collect()
}

/// `campaign IDS …`: run (or resume) a resumable, ledger-backed
/// campaign over the given experiments.
fn campaign_cmd(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut ids: Option<String> = None;
    let mut fast = false;
    let mut out_dir = PathBuf::from("results");
    let mut ledger: Option<PathBuf> = None;
    let mut opts = CampaignOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--fresh" => opts.fresh = true,
            "--stop-after" => {
                opts.stop_after = Some(
                    args.next()
                        .and_then(|n| n.parse::<usize>().ok())
                        .ok_or("--stop-after requires a positive integer")?,
                );
            }
            "--ledger" => ledger = Some(PathBuf::from(args.next().ok_or("--ledger needs a file")?)),
            "--out" => out_dir = PathBuf::from(args.next().ok_or("--out requires a directory")?),
            "--threads" => set_threads(args.next())?,
            other if !other.starts_with('-') && ids.is_none() => ids = Some(other.to_owned()),
            other => return Err(format!("unknown campaign argument: {other}")),
        }
    }
    let fidelity = if fast {
        Fidelity::fast()
    } else {
        Fidelity::full()
    };
    let sets = resolve_sets(
        &ids.ok_or("campaign requires experiment ids (e.g. e1,e3)")?,
        &fidelity,
    )?;
    let ledger_path = ledger.unwrap_or_else(|| out_dir.join("campaign.jsonl"));
    fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let names: Vec<&str> = sets.iter().map(|s| s.experiment()).collect();
    eprintln!(
        "campaign [{}] ({}) -> {}",
        names.join(", "),
        if fast { "fast" } else { "full" },
        ledger_path.display()
    );
    let started = Instant::now();
    let report = run_campaign(&sets, &ledger_path, &opts)?;
    eprintln!(
        "campaign: {} samples total, {} resumed from ledger, {} run now ({:.1} s)",
        report.total,
        report.resumed,
        report.ran,
        started.elapsed().as_secs_f64()
    );
    for (exp, index, detail) in &report.failures {
        eprintln!("  FAILED {exp} sample {index}: {detail}");
    }
    if report.stopped_early {
        eprintln!(
            "campaign stopped early (--stop-after); rerun the same command to resume from {}",
            ledger_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    // Campaign complete: condense the ledger into golden signatures and
    // write them next to the ledger for inspection / promotion.
    let loaded = rotsv_campaign::read_ledger(&ledger_path)?;
    let signatures = signatures_of(&loaded.entries)?;
    for sig in &signatures {
        eprintln!(
            "  {}: {} fault points, digest {}",
            sig.experiment,
            sig.points.len(),
            sig.digest
        );
    }
    let doc = Json::Obj(vec![
        ("git_rev".into(), Json::Str(rotsv_obs::git_rev())),
        (
            "ledger".into(),
            Json::Str(ledger_path.display().to_string()),
        ),
        ("entries".into(), Json::Num(loaded.entries.len() as f64)),
        ("failures".into(), Json::Num(report.failures.len() as f64)),
        (
            "golden".into(),
            golden_doc(&signatures, if fast { "fast" } else { "full" }),
        ),
    ]);
    let sig_path = out_dir.join("campaign_signatures.json");
    fs::write(&sig_path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", sig_path.display()))?;
    eprintln!("  wrote {}", sig_path.display());
    if report.failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "campaign completed with {} failed samples",
            report.failures.len()
        );
        Ok(ExitCode::FAILURE)
    }
}

/// Applies the `--perturb` drill: scales every `kind: "value"` payload
/// of fault points whose label contains `label` by +1 %.
fn perturb_entries(entries: &mut [LedgerEntry], label: &str) -> usize {
    let mut hit = 0;
    for e in entries {
        let point = e.payload.get("point").and_then(Json::as_str).unwrap_or("");
        if !point.contains(label) {
            continue;
        }
        if let Some(v) = e.payload.get("value").and_then(Json::as_f64) {
            let point = point.to_owned();
            e.payload = rotsv_campaign::value_payload(&point, v * 1.01);
            hit += 1;
        }
    }
    hit
}

/// `golden --check|--write …`: recompute golden signatures (always at
/// fast fidelity — the profile `GOLDEN.json` pins) and compare against,
/// or intentionally regenerate, the committed file.
fn golden_cmd(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut check = false;
    let mut write = false;
    let mut ids = CAMPAIGN_IDS.join(",");
    let mut golden_path = PathBuf::from("GOLDEN.json");
    let mut perturb: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--write" => write = true,
            "--ids" => ids = args.next().ok_or("--ids requires a csv list")?,
            "--golden" => golden_path = PathBuf::from(args.next().ok_or("--golden needs a file")?),
            "--perturb" => perturb = Some(args.next().ok_or("--perturb needs a point substring")?),
            "--threads" => set_threads(args.next())?,
            other => return Err(format!("unknown golden argument: {other}")),
        }
    }
    if check == write {
        return Err("golden requires exactly one of --check or --write".into());
    }

    let fidelity = Fidelity::fast();
    let sets = resolve_sets(&ids, &fidelity)?;
    let git_rev = rotsv_obs::git_rev();
    let started = Instant::now();
    let mut entries = Vec::new();
    for set in &sets {
        eprintln!(
            "golden: running {} ({} samples) …",
            set.experiment(),
            set.len()
        );
        entries.extend(rotsv_campaign::collect_entries(set.as_ref(), &git_rev));
    }
    if let Some(label) = &perturb {
        let hit = perturb_entries(&mut entries, label);
        eprintln!("golden: perturbed {hit} sample values (+1 %) on points matching '{label}'");
    }
    let failed: Vec<&LedgerEntry> = entries
        .iter()
        .filter(|e| e.status == rotsv_campaign::SampleStatus::Failed)
        .collect();
    for e in &failed {
        eprintln!(
            "  FAILED {} sample {}: {}",
            e.experiment,
            e.index,
            e.payload.render()
        );
    }
    let signatures = signatures_of(&entries)?;
    eprintln!(
        "golden: {} experiments, {} samples in {:.1} s",
        signatures.len(),
        entries.len(),
        started.elapsed().as_secs_f64()
    );

    if write {
        let doc = golden_doc(&signatures, "fast");
        fs::write(&golden_path, doc.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", golden_path.display()))?;
        for sig in &signatures {
            println!(
                "{}: digest {} ({} fault points)",
                sig.experiment,
                sig.digest,
                sig.points.len()
            );
        }
        println!("wrote {}", golden_path.display());
        if !failed.is_empty() {
            eprintln!(
                "refusing to bless goldens with {} failed samples",
                failed.len()
            );
            return Ok(ExitCode::FAILURE);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let golden_text = fs::read_to_string(&golden_path)
        .map_err(|e| format!("cannot read {}: {e}", golden_path.display()))?;
    let golden = rotsv_obs::json::parse(&golden_text)
        .map_err(|e| format!("{}: {e}", golden_path.display()))?;
    let drifts = diff_against_golden(&signatures, &golden)?;
    for sig in &signatures {
        let stored = golden
            .get("experiments")
            .and_then(Json::as_arr)
            .and_then(|arr| {
                arr.iter()
                    .find(|e| e.get("experiment").and_then(Json::as_str) == Some(&sig.experiment))
            })
            .and_then(|e| e.get("digest"))
            .and_then(Json::as_str)
            .unwrap_or("?");
        println!(
            "{}: digest {} vs golden {} ({})",
            sig.experiment,
            sig.digest,
            stored,
            if sig.digest == stored {
                "identical"
            } else {
                "differs — checking tolerance bands"
            }
        );
    }
    if drifts.is_empty() && failed.is_empty() {
        println!(
            "golden check PASSED: {} experiments within tolerance of {}",
            signatures.len(),
            golden_path.display()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!("golden check FAILED: {} drifted metrics", drifts.len());
        for d in &drifts {
            println!("  DRIFT {d}");
        }
        if !failed.is_empty() {
            println!("  plus {} failed samples (see above)", failed.len());
        }
        Ok(ExitCode::FAILURE)
    }
}

/// `validate-manifest FILE`: parse + schema-check one manifest.
fn validate_manifest_file(path: &str) -> ExitCode {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match rotsv_obs::json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match rotsv_obs::validate_manifest(&doc) {
        Ok(warnings) => {
            for w in &warnings {
                eprintln!("{path}: warning: {w}");
            }
            eprintln!(
                "{path}: valid manifest (schema v{})",
                rotsv_obs::SCHEMA_VERSION
            );
            ExitCode::SUCCESS
        }
        Err(problems) => {
            eprintln!("{path}: INVALID manifest:");
            for p in &problems {
                eprintln!("  - {p}");
            }
            ExitCode::FAILURE
        }
    }
}

/// `validate-trace FILE`: the CI smoke contract for trace exports — the
/// file must parse as JSON, carry a `traceEvents` array with at least
/// one `mc_sample` complete-event slice, and at least one counter track.
fn validate_trace_file(path: &str) -> ExitCode {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match rotsv_obs::json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        eprintln!("{path}: missing 'traceEvents' array");
        return ExitCode::FAILURE;
    };
    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).map(str::to_owned);
    let samples = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(Json::as_str) == Some("mc_sample")
                && ph(e).as_deref() == Some("X")
        })
        .count();
    let counters = events
        .iter()
        .filter(|e| ph(e).as_deref() == Some("C"))
        .count();
    let mut problems = Vec::new();
    if samples == 0 {
        problems.push("no 'mc_sample' slices (ph \"X\")".to_owned());
    }
    if counters == 0 {
        problems.push("no counter tracks (ph \"C\")".to_owned());
    }
    if problems.is_empty() {
        eprintln!(
            "{path}: valid trace ({} events, {samples} mc_sample slices, {counters} counter points)",
            events.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("{path}: INVALID trace:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        ExitCode::FAILURE
    }
}

/// One manifest's row of the `report` trend table.
struct ReportRow {
    experiment: String,
    fidelity: String,
    wall_seconds: f64,
    checks_passed: f64,
    checks_failed: f64,
    factorizations: Option<f64>,
    reanalyses: Option<f64>,
    lu_numeric: Option<(f64, f64)>, // (count, mean seconds)
    ring_dropped: Option<f64>,
}

fn report_row(doc: &Json) -> Option<ReportRow> {
    let hist_stat = |name: &str| -> Option<(f64, f64)> {
        let h = doc.get("metrics")?.get("histograms")?.get(name)?;
        Some((
            h.get("count").and_then(Json::as_f64)?,
            h.get("mean").and_then(Json::as_f64)?,
        ))
    };
    Some(ReportRow {
        experiment: doc.get("experiment")?.as_str()?.to_owned(),
        fidelity: doc
            .get("fidelity")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned(),
        wall_seconds: doc.get("wall_seconds").and_then(Json::as_f64)?,
        checks_passed: doc
            .get("checks")
            .and_then(|c| c.get("passed"))
            .and_then(Json::as_f64)?,
        checks_failed: doc
            .get("checks")
            .and_then(|c| c.get("failed"))
            .and_then(Json::as_f64)?,
        factorizations: doc
            .get("solver_stats")
            .and_then(|s| s.get("factorizations"))
            .and_then(Json::as_f64),
        reanalyses: doc
            .get("solver_stats")
            .and_then(|s| s.get("symbolic_analyses"))
            .and_then(Json::as_f64),
        lu_numeric: hist_stat("lu.numeric"),
        ring_dropped: doc
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("mc.ring_dropped_events"))
            .and_then(Json::as_f64),
    })
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "—".to_owned(), |n| format!("{n}"))
}

/// `report [--out DIR] [--bench FILE]`: aggregate every
/// `manifest_<id>.json` in the output directory — plus the committed
/// solver benchmark baseline when present — into one markdown trend
/// table on stdout.
fn report_cmd(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut out_dir = PathBuf::from("results");
    let mut bench_path = PathBuf::from("BENCH_solver.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(args.next().ok_or("--out requires a directory")?),
            "--bench" => bench_path = PathBuf::from(args.next().ok_or("--bench needs a file")?),
            other => return Err(format!("unknown report argument: {other}")),
        }
    }

    let mut rows: Vec<ReportRow> = Vec::new();
    let entries =
        fs::read_dir(&out_dir).map_err(|e| format!("cannot read {}: {e}", out_dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("manifest_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in &paths {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = rotsv_obs::json::parse(&text)
            .map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
        match rotsv_obs::validate_manifest(&doc) {
            Ok(warnings) => {
                for w in warnings {
                    eprintln!("{}: warning: {w}", path.display());
                }
            }
            Err(problems) => {
                eprintln!(
                    "{}: skipped, fails manifest schema: {}",
                    path.display(),
                    problems.join("; ")
                );
                continue;
            }
        }
        if let Some(row) = report_row(&doc) {
            rows.push(row);
        }
    }
    if rows.is_empty() {
        eprintln!(
            "report: no valid manifest_<id>.json under {} (run with --metrics-out first)",
            out_dir.display()
        );
        return Ok(ExitCode::FAILURE);
    }

    println!("# Experiment report\n");
    println!(
        "| experiment | fidelity | wall s | checks | factorizations | analyses | \
         lu.numeric n | lu.numeric mean µs | ring drops |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|");
    for r in &rows {
        println!(
            "| {} | {} | {:.2} | {}/{} | {} | {} | {} | {} | {} |",
            r.experiment,
            r.fidelity,
            r.wall_seconds,
            r.checks_passed,
            r.checks_passed + r.checks_failed,
            fmt_opt(r.factorizations),
            fmt_opt(r.reanalyses),
            fmt_opt(r.lu_numeric.map(|(n, _)| n)),
            fmt_opt(
                r.lu_numeric
                    .map(|(_, mean)| (mean * 1e6 * 1e3).round() / 1e3)
            ),
            fmt_opt(r.ring_dropped),
        );
    }

    // The committed solver baseline, for trend context next to the runs.
    if let Ok(text) = fs::read_to_string(&bench_path) {
        if let Ok(doc) = rotsv_obs::json::parse(&text) {
            let mut bench_rows: Vec<(String, f64)> = Vec::new();
            if let Json::Obj(sections) = &doc {
                for (section, body) in sections {
                    if let Json::Obj(fields) = body {
                        for (key, value) in fields {
                            if let Some(v) = value.as_f64() {
                                if key.ends_with("_s") || key.ends_with("seconds") {
                                    bench_rows.push((format!("{section}.{key}"), v));
                                }
                            }
                        }
                    }
                }
            }
            if !bench_rows.is_empty() {
                println!("\n## Solver baseline ({})\n", bench_path.display());
                println!("| measurement | seconds |");
                println!("|---|---:|");
                for (name, v) in &bench_rows {
                    println!("| {name} | {v:.6} |");
                }
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `experiments serve` — run the resident screening daemon in the
/// harness binary, accepting the same flags as `rotsv-server`. Blocks
/// until a client sends a `shutdown` request.
fn serve_cmd(args: impl Iterator<Item = String>) -> ExitCode {
    let args: Vec<String> = args.collect();
    let config = match rotsv_server::ServerConfig::parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    match rotsv_server::Server::start(config) {
        Ok(server) => {
            println!("listening on {}", server.addr());
            match server.wait() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("serve: shutdown error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("serve: failed to start: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut ids: Vec<String> = Vec::new();
    let mut fast = false;
    let mut json_out = false;
    let mut trace = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out = false;
    let mut out_dir = PathBuf::from("results");
    // Figure runs default to the auto engine; an explicit --engine
    // overrides it below. Campaign/golden are unaffected: they measure
    // per sample with measure_delta_t regardless of this selection.
    rotsv::set_mc_engine(rotsv::McEngine::Auto);
    load_auto_lane_table();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "validate-manifest" => match args.next() {
                Some(file) => return validate_manifest_file(&file),
                None => {
                    eprintln!("validate-manifest requires a file");
                    return ExitCode::FAILURE;
                }
            },
            "validate-trace" => match args.next() {
                Some(file) => return validate_trace_file(&file),
                None => {
                    eprintln!("validate-trace requires a file");
                    return ExitCode::FAILURE;
                }
            },
            "report" => {
                return report_cmd(args).unwrap_or_else(|e| {
                    eprintln!("report: {e}");
                    usage();
                    ExitCode::FAILURE
                })
            }
            "campaign" => {
                return campaign_cmd(args).unwrap_or_else(|e| {
                    eprintln!("campaign: {e}");
                    usage();
                    ExitCode::FAILURE
                })
            }
            "golden" => {
                return golden_cmd(args).unwrap_or_else(|e| {
                    eprintln!("golden: {e}");
                    usage();
                    ExitCode::FAILURE
                })
            }
            "serve" => return serve_cmd(args),
            "--fast" => fast = true,
            "--json" => json_out = true,
            "--trace" => trace = true,
            "--trace-out" => match args.next() {
                Some(file) => trace_out = Some(PathBuf::from(file)),
                None => {
                    eprintln!("--trace-out requires a file");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-out" => metrics_out = true,
            "--threads" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => rotsv::num::parallel::set_thread_limit(NonZeroUsize::new(n)),
                None => {
                    eprintln!("--threads requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--engine" => match args.next().as_deref().map(parse_engine) {
                Some(Ok(engine)) => rotsv::set_mc_engine(engine),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--engine requires a value (scalar or batched[:K])");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "all" => {
                ids.extend((0..=11).map(|i| format!("e{i}")));
                ids.extend((1..=3).map(|i| format!("a{i}")));
            }
            "paper" => ids.extend((0..=8).map(|i| format!("e{i}"))),
            id if id.starts_with('e') || id.starts_with('a') => ids.push(id.to_owned()),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }
    if ids.is_empty() {
        ids.extend((0..=11).map(|i| format!("e{i}")));
        ids.extend((1..=3).map(|i| format!("a{i}")));
    }
    ids.dedup();

    // The manifest's phase breakdown comes from spans, so --metrics-out
    // implies tracing; --trace alone leaves the metrics registry off.
    // --trace-out additionally turns on the event ring (spans alone
    // cannot render the lane timeline).
    let instrument = trace || metrics_out || trace_out.is_some();
    if instrument {
        rotsv_obs::set_tracing(true);
    }
    if metrics_out {
        rotsv_obs::set_metrics(true);
    }
    if trace_out.is_some() {
        rotsv_obs::set_events(true);
    }

    let fidelity = if fast {
        Fidelity::fast()
    } else {
        Fidelity::full()
    };
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    // Live Prometheus exposition while the run is in flight; dropping
    // the flusher (any exit path) writes one final snapshot.
    let _flusher = metrics_out.then(|| {
        rotsv_obs::PrometheusFlusher::start(
            out_dir.join("metrics.prom"),
            std::time::Duration::from_secs(1),
        )
    });

    let mut reports: Vec<ExperimentReport> = Vec::new();
    for id in &ids {
        if instrument {
            // Each manifest/trace covers exactly one experiment.
            rotsv_obs::reset();
        }
        let started = Instant::now();
        eprintln!("running {id} …");
        let outcome = {
            // Root span: the experiment id. Every analysis span (dcop,
            // transient, mc_population, …) nests underneath, so the
            // manifest's depth-1 entries are this experiment's phases.
            let _root = rotsv_obs::SpanGuard::enter(id);
            run_one(id, &fidelity)
        };
        let wall = started.elapsed().as_secs_f64();
        match outcome {
            Ok(Some(report)) => {
                eprintln!("  {id} done in {wall:.1} s");
                if !json_out {
                    println!("{}", report.markdown());
                }
                let csv_path = out_dir.join(format!("{id}.csv"));
                if let Err(e) = fs::write(&csv_path, report.csv()) {
                    eprintln!("cannot write {}: {e}", csv_path.display());
                    return ExitCode::FAILURE;
                }
                if trace {
                    eprint!("{}", rotsv_obs::span_report().render_text());
                }
                if let Some(base) = &trace_out {
                    // Write before the next experiment's reset clears
                    // the ring; one run gets the exact path, a multi-id
                    // run derives one file per experiment.
                    let path = if ids.len() == 1 {
                        base.clone()
                    } else {
                        trace_path_for(base, id)
                    };
                    if let Err(e) = rotsv_obs::write_chrome_trace(&path) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                    eprintln!("  wrote {}", path.display());
                }
                if metrics_out {
                    if let Err(e) = write_manifest(&report, fast, wall, &out_dir) {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
                reports.push(report);
            }
            Ok(None) => {
                eprintln!("unknown experiment id: {id}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{id} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if json_out {
        let arr = Json::Arr(reports.iter().map(ExperimentReport::to_json).collect());
        println!("{}", arr.render_pretty());
    }

    // Merge into the existing summary (if any) section by section: a
    // subset run must not delete the sections of experiments it did not
    // touch. See `rotsv_experiments::summary`.
    let summary_path = out_dir.join("summary.md");
    let existing = fs::read_to_string(&summary_path).ok();
    let sections: Vec<(String, String)> = reports
        .iter()
        .map(|r| (r.id.to_owned(), r.markdown()))
        .collect();
    let summary = rotsv_experiments::summary::merge_summary(
        existing.as_deref(),
        &sections,
        if fast { "fast" } else { "full" },
    );
    if let Err(e) = fs::write(&summary_path, &summary) {
        eprintln!("cannot write {}: {e}", summary_path.display());
        return ExitCode::FAILURE;
    }

    let failed: Vec<&str> = reports
        .iter()
        .filter(|r| !r.all_checks_pass())
        .map(|r| r.id)
        .collect();
    if failed.is_empty() {
        eprintln!("all shape checks passed ({} experiments)", reports.len());
        ExitCode::SUCCESS
    } else {
        // Exit 3 distinguishes "ran to completion but the physics
        // shape checks failed" from a crash or usage error (exit 1):
        // CI treats 3 as an expected outcome on fast-fidelity smokes
        // and anything else as fatal.
        eprintln!("shape checks FAILED in: {}", failed.join(", "));
        ExitCode::from(3)
    }
}

/// `target/trace.json` + `e3` → `target/trace_e3.json`.
fn trace_path_for(base: &std::path::Path, id: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let name = match base.extension().and_then(|s| s.to_str()) {
        Some(ext) => format!("{stem}_{id}.{ext}"),
        None => format!("{stem}_{id}"),
    };
    base.with_file_name(name)
}

/// Builds and writes `manifest_<id>.json` for one finished experiment.
fn write_manifest(
    report: &ExperimentReport,
    fast: bool,
    wall: f64,
    out_dir: &std::path::Path,
) -> Result<(), String> {
    let passed = report.checks.iter().filter(|c| c.passed).count() as u64;
    let inputs = rotsv_obs::ManifestInputs {
        experiment: report.id.to_owned(),
        fidelity: if fast { "fast" } else { "full" }.to_owned(),
        threads: rotsv::num::parallel::effective_threads(usize::MAX),
        seed: report.seed,
        wall_seconds: wall,
        checks_passed: passed,
        checks_failed: report.checks.len() as u64 - passed,
        solver_stats: report.stats.as_ref().map(|s| s.to_json()),
    };
    let manifest =
        rotsv_obs::build_manifest(&inputs, &rotsv_obs::span_report(), rotsv_obs::dump_json());
    match rotsv_obs::validate_manifest(&manifest) {
        Ok(warnings) => {
            for w in warnings {
                eprintln!("  manifest warning ({}): {w}", report.id);
            }
        }
        Err(problems) => {
            return Err(format!(
                "manifest for {} fails its own schema: {}",
                report.id,
                problems.join("; ")
            ));
        }
    }
    let path = out_dir.join(format!("manifest_{}.json", report.id));
    fs::write(&path, manifest.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("  wrote {}", path.display());
    Ok(())
}
