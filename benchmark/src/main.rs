//! `rotsv-benchmark`: the end-to-end screening benchmark.
//!
//! `run` executes one seeded workload, checks its outputs, and prints the
//! end-to-end metrics (or, with `--trace`, the per-layer metrics plus a
//! Chrome trace under `target/benchmark/`). `compare` applies the bounds
//! in `BENCHMARK.json` to two sets of runs. `serve` is the screening
//! daemon the `screen` workload spawns, identical to `rotsv-server`.
//! See README.md for the workloads, metrics and baseline.

mod compare;
mod inproc;
mod probe;
mod report;
mod screen;
mod stats;
mod workload;

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use rotsv_obs::Json;

use report::{Metrics, RunResult, END_TO_END, PER_LAYER};
use workload::{Workload, THREADS};

const USAGE: &str = "\
usage: rotsv-benchmark run --workload W [--seed S] [--seconds T] [--trace [0|1]]
                           [--smoke] [--repeat N] [--out DIR]
       rotsv-benchmark compare A_DIR B_DIR
       rotsv-benchmark serve [rotsv-server flags]
workloads: mc_uniform mc_ladder die_sweep screen
Run from the repository root: the benchmark loads BENCH_solver.json there.";

/// The measured engine tuning, loaded as the shipped binaries load it.
const TUNING: &str = "BENCH_solver.json";

/// Set-up is repeated this many times per run (once for `--smoke`);
/// `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Where traces and per-layer documents go.
const OUT_DIR: &str = "target/benchmark";

/// Arguments of one `run`.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Run length; fixes the amount of work (see `workload`).
    pub seconds: f64,
    /// Per-layer run: tracing on, per-layer metrics out.
    pub trace: bool,
    /// Tiny inputs for the smoke test; allowed on debug builds.
    pub smoke: bool,
    /// Runs to make, each in a fresh process.
    pub repeat: usize,
    /// Directory for the full run document.
    pub out: Option<PathBuf>,
}

impl RunOpts {
    /// How many times the run sets up.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: Workload::McUniform,
        seed: 1007,
        seconds: 20.0,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut workload = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                workload =
                    Some(Workload::parse(&w).ok_or_else(|| format!("unknown workload {w}"))?);
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => opts.smoke = true,
            "--repeat" => {
                opts.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if opts.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// Loads the measured Auto-engine tuning; a missing or unusable file is
/// an error, since Auto would silently fall back to its built-in table.
pub fn load_tuning() -> Result<(), String> {
    if rotsv::mc::load_measured_tuning(Path::new(TUNING)) {
        Ok(())
    } else {
        Err(format!(
            "{TUNING} is missing or unusable; run from the repository root"
        ))
    }
}

/// Switches all instrumentation (metrics, spans, event ring) together.
pub fn set_obs(on: bool) {
    rotsv_obs::set_metrics(on);
    rotsv_obs::set_tracing(on);
    rotsv_obs::set_events(on);
}

/// Writes the event ring as a Chrome trace and parses it back; returns
/// the number of trace events.
pub fn write_trace(path: &Path) -> Result<usize, String> {
    rotsv_obs::write_chrome_trace(path).map_err(|e| format!("write {}: {e}", path.display()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = rotsv_obs::json::parse(&text)
        .map_err(|e| format!("trace {} does not parse: {e}", path.display()))?;
    Ok(doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len))
}

/// Adds the layer-probe results to a per-layer metric set.
pub fn insert_probes(m: &mut Metrics, p: &probe::Probes) {
    m.insert("ro.build_us", p.build_us);
    m.insert("ro.queue_s_per_die", p.queue_s_per_die);
    m.insert("num.batched_lu_us", p.batched_lu_us);
    m.insert("mosfet.bank_eval_ns_per_lane", p.bank_eval_ns_per_lane);
    m.insert("mosfet.eval_ns", p.eval_ns);
    m.insert("server.parse_us", p.parse_us);
    m.insert("server.render_us", p.render_us);
}

fn document(opts: &RunOpts, result: &RunResult) -> Json {
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    Json::Obj(vec![
        ("benchmark".into(), Json::Str("rotsv-benchmark".into())),
        ("workload".into(), Json::Str(opts.workload.name().into())),
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("trace".into(), Json::Bool(opts.trace)),
        ("smoke".into(), Json::Bool(opts.smoke)),
        ("provenance".into(), report::provenance(THREADS)),
        (
            "lanes".into(),
            Json::Arr(result.lanes.iter().map(|&k| Json::Num(k as f64)).collect()),
        ),
        (
            "metrics".into(),
            report::metrics_json(&result.metrics, table),
        ),
        ("counts".into(), result.counts.to_json()),
        ("attempted".into(), Json::Num(result.attempted as f64)),
        ("failed".into(), Json::Num(result.failed as f64)),
        ("checks".into(), Json::Num(result.checks as f64)),
        ("detail".into(), Json::Obj(result.detail.clone())),
    ])
}

fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run_once(opts: &RunOpts) -> ExitCode {
    if cfg!(debug_assertions) && !opts.smoke {
        eprintln!("rotsv-benchmark: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    if let Err(e) = load_tuning() {
        eprintln!("rotsv-benchmark: {e}");
        return ExitCode::from(2);
    }
    rotsv::num::parallel::set_thread_limit(NonZeroUsize::new(THREADS));
    // Provenance asks git for the revision; keep it from searching
    // directories above the one the benchmark runs in.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    set_obs(false);

    let w = opts.workload.name();
    let trace_path = Path::new(OUT_DIR).join(format!("trace-{w}-s{}.json", opts.seed));
    if opts.trace {
        if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
            eprintln!("rotsv-benchmark: create {OUT_DIR}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let outcome = match opts.workload {
        Workload::Screen => screen::run(opts, &trace_path),
        _ => inproc::run(opts, &trace_path),
    };
    let mut result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rotsv-benchmark: {w}: {e}");
            return ExitCode::FAILURE;
        }
    };
    result.check_nothing_lost();
    if !result.failures.is_empty() {
        for f in &result.failures {
            eprintln!("rotsv-benchmark: {w}: check failed: {f}");
        }
        eprintln!(
            "rotsv-benchmark: {w}: {} of {} output checks failed",
            result.failures.len(),
            result.checks
        );
        return ExitCode::from(3);
    }
    let doc = document(opts, &result);
    let mut writes = Vec::new();
    if opts.trace {
        writes.push(Path::new(OUT_DIR).join(format!("layers-{w}-s{}.json", opts.seed)));
    }
    if let Some(dir) = &opts.out {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        writes.push(dir.join(format!("{w}-s{}-{stamp}.json", opts.seed)));
    }
    for path in writes {
        if let Err(e) = write_doc(&path, &doc) {
            eprintln!("rotsv-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", doc.render());
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report::result_line(&result, table));
    ExitCode::SUCCESS
}

/// Runs `opts.repeat` fresh processes of the same run and summarizes
/// their documents.
fn run_repeated(opts: &RunOpts) -> ExitCode {
    let dir = opts
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("runs"));
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("rotsv-benchmark: locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let before: Vec<PathBuf> = compare::load_docs(&dir)
        .map(|d| d.into_iter().map(|(p, _)| p).collect())
        .unwrap_or_default();
    for i in 0..opts.repeat {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", opts.workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&dir)
            .stdout(Stdio::null());
        if opts.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(s) if s.success() => eprintln!("run {}/{} done", i + 1, opts.repeat),
            Ok(s) => {
                eprintln!("rotsv-benchmark: run {} failed with {s}", i + 1);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("rotsv-benchmark: spawn run: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match compare::load_docs(&dir) {
        Ok(docs) => {
            let new: Vec<&Json> = docs
                .iter()
                .filter(|(p, _)| !before.contains(p))
                .map(|(_, d)| d)
                .collect();
            compare::summarize(&new);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rotsv-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The daemon of the `screen` workload: `rotsv-server` with the same
/// flags, which additionally shuts down once its standard input closes.
/// The benchmark holds that pipe open for the daemon's lifetime, so a
/// benchmark that dies for any reason, even by a signal that skips its
/// destructors, never leaves a daemon behind. A path dependency builds
/// the server library but not its binary; hosting the same
/// `rotsv_server::Server` here spares a second build of the workspace.
fn serve(args: &[String]) -> ExitCode {
    let config = match rotsv_server::ServerConfig::parse_args(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rotsv-benchmark serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match rotsv_server::Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rotsv-benchmark serve: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();
    println!("listening on {addr}");
    let waiter = std::thread::spawn(move || server.wait());
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    // Refused once a client's `shutdown` already closed the listener.
    if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
        use std::io::Write as _;
        let _ = stream.write_all(b"{\"type\":\"shutdown\"}\n");
    }
    match waiter.join() {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("rotsv-benchmark serve: shutdown error: {e}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("rotsv-benchmark serve: server thread panicked");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) if opts.repeat > 1 => run_repeated(&opts),
            Ok(opts) => run_once(&opts),
            Err(e) => {
                eprintln!("rotsv-benchmark: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => {
            match compare::compare(
                Path::new(&args[1]),
                Path::new(&args[2]),
                Path::new("BENCHMARK.json"),
            ) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("rotsv-benchmark: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("serve") => serve(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let o = parse_run(&args("--workload screen --trace 0 --seed 5")).unwrap();
        assert!(!o.trace);
        assert_eq!(o.seed, 5);
        let o = parse_run(&args("--workload screen --trace 1 --seconds 3")).unwrap();
        assert!(o.trace);
        assert_eq!(o.seconds, 3.0);
        let o = parse_run(&args("--workload mc_ladder --trace --smoke")).unwrap();
        assert!(o.trace && o.smoke);
        assert!(parse_run(&args("--seed 5")).is_err());
        assert!(parse_run(&args("--workload x")).is_err());
    }
}
