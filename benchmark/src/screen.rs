//! The `screen` workload: the screening daemon as a subprocess, driven
//! over its wire protocol by one open-loop client connection.
//!
//! A writer thread submits each job when it is due while the calling
//! thread drains responses concurrently, so a verdict's latency is
//! measured from its job's due time and never includes the rest of the
//! schedule (the bias of a client that reads only after its last
//! submit). The generator's own lateness is recorded.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rotsv::num::parallel::parallel_map;
use rotsv::spice::SolverStats;
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::{die_seed, Die, TestBench};
use rotsv_obs::Json;
use rotsv_server::protocol::render_line;

use crate::report::{Counts, Metrics, RunResult};
use crate::stats::{cpu_seconds, median, percentile, rss_peak_mb, Scrape};
use crate::workload::{self as wl, Job, JobFault, THREADS};
use crate::RunOpts;

/// Lanes per daemon engine session. Fixed rather than `--lanes auto`:
/// on a mixed burst 16 lanes measured fastest (see the README), while
/// auto would pick the widest table row.
const LANES: usize = 16;

/// A daemon that sends nothing for this long has stalled.
const STALL: Duration = Duration::from_secs(60);

/// Verdicts re-measured in-process by the output check.
const CHECK_SAMPLES: usize = 8;

/// Agreement budget between a daemon verdict and a re-measurement.
const DELTA_T_TOLERANCE: f64 = 5e-3;

/// A daemon subprocess (this binary's `serve` subcommand), killed and
/// reaped on drop unless it already exited. Its standard input is a pipe
/// held open until [`Daemon::wait`]; the daemon shuts down when it closes,
/// so it cannot outlive this process.
struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve", "--lanes", &LANES.to_string()])
            .args(["--workers", &THREADS.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_owned();
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Waits for the daemon to exit after a shutdown request.
    fn wait(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("daemon not yet reaped");
        drop(child.stdin.take());
        let deadline = Instant::now() + STALL;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not drain".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection: a locked write half, and a reader thread that
/// timestamps every response line as it arrives.
struct Conn {
    writer: Mutex<TcpStream>,
    rx: Receiver<(Instant, Json)>,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("bench-reader".into())
            .spawn(move || {
                let mut lines = BufReader::new(read_half);
                let mut line = String::new();
                loop {
                    line.clear();
                    match lines.read_line(&mut line) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {
                            let at = Instant::now();
                            let doc = rotsv_obs::json::parse(line.trim()).unwrap_or_else(|e| {
                                Json::Obj(vec![
                                    ("type".into(), Json::Str("error".into())),
                                    ("reason".into(), Json::Str(format!("unparsable line: {e}"))),
                                ])
                            });
                            if tx.send((at, doc)).is_err() {
                                return;
                            }
                        }
                    }
                }
            })
            .map_err(|e| format!("spawn reader: {e}"))?;
        Ok(Conn {
            writer: Mutex::new(stream),
            rx,
            reader: Some(reader),
        })
    }

    fn send(writer: &Mutex<TcpStream>, line: &str) -> Result<(), String> {
        let mut stream = writer.lock().expect("writer lock poisoned");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send request: {e}"))
    }

    fn recv(&self) -> Result<(Instant, Json), String> {
        match self.rx.recv_timeout(STALL) {
            Ok(msg) => Ok(msg),
            Err(RecvTimeoutError::Timeout) => Err("daemon stalled".into()),
            Err(RecvTimeoutError::Disconnected) => Err("daemon closed the connection".into()),
        }
    }

    /// Sends a bodiless request and returns the first response of type
    /// `expect`.
    fn request(&self, kind: &str, expect: &str) -> Result<Json, String> {
        Conn::send(
            &self.writer,
            &render_line(vec![("type".into(), Json::Str(kind.into()))]),
        )?;
        loop {
            let (_, doc) = self.recv()?;
            if doc.get("type").and_then(Json::as_str) == Some(expect) {
                return Ok(doc);
            }
        }
    }

    fn scrape(&self) -> Result<Scrape, String> {
        let doc = self.request("metrics", "metrics")?;
        Ok(Scrape::parse(
            doc.get("text").and_then(Json::as_str).unwrap_or(""),
        ))
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        if let Ok(stream) = self.writer.lock() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn submit_line(id: u64, job: &Job) -> String {
    let num = |v: f64| Json::Num(v);
    let mut members = vec![
        ("type".to_owned(), Json::Str("submit".into())),
        ("id".to_owned(), num(id as f64)),
        ("n_segments".to_owned(), num(job.n_segments as f64)),
        ("dies".to_owned(), num(job.dies as f64)),
        (
            "vdd".to_owned(),
            Json::Arr(job.vdds.iter().copied().map(num).collect()),
        ),
        ("seed".to_owned(), num(job.seed as f64)),
        ("fast".to_owned(), Json::Bool(true)),
    ];
    let fault = match job.fault {
        JobFault::None => None,
        JobFault::Open1k => Some(vec![
            ("kind".to_owned(), Json::Str("open".into())),
            ("index".to_owned(), num(0.0)),
            ("x".to_owned(), num(0.5)),
            ("r".to_owned(), num(1e3)),
        ]),
        JobFault::Leak3k => Some(vec![
            ("kind".to_owned(), Json::Str("leak".into())),
            ("index".to_owned(), num(0.0)),
            ("r".to_owned(), num(3e3)),
        ]),
    };
    if let Some(f) = fault {
        members.push(("fault".to_owned(), Json::Obj(f)));
    }
    render_line(members)
}

/// One verdict line as the client saw it.
#[derive(Debug, Clone)]
struct Verdict {
    job: usize,
    die: usize,
    vdd: f64,
    status: String,
    delta_t: Option<f64>,
    /// Arrival minus the job's due time.
    client_s: f64,
    /// The daemon's own submit-to-verdict latency.
    server_s: f64,
}

/// What one phase of submissions produced.
struct Phase {
    jobs: Vec<Job>,
    verdicts: Vec<Verdict>,
    /// Verdict lines received per job.
    received: Vec<usize>,
    done: Vec<bool>,
    rejected: Vec<bool>,
    /// Solver work summed over the jobs' `done` manifests.
    stats: SolverStats,
    /// Seconds from the phase start to the last `done`.
    wall: f64,
    late_max: f64,
    queue_depth_max: f64,
}

impl Phase {
    /// Verdicts that never arrived (rejected jobs included).
    fn missing(&self) -> usize {
        self.jobs
            .iter()
            .zip(&self.received)
            .map(|(j, &r)| j.verdicts().saturating_sub(r))
            .sum::<usize>()
            + self.done.iter().filter(|&&d| !d).count()
    }

    /// Verdicts per second from the phase start to its last `done`.
    fn rate(&self) -> f64 {
        self.verdicts.len() as f64 / self.wall
    }

    fn counts(&self, c: &mut Counts) {
        c.verdicts += self.verdicts.len() as u64;
        c.stuck += self.verdicts.iter().filter(|v| v.status == "stuck").count() as u64;
        c.add_stats(&self.stats);
    }
}

fn stats_from(manifest: Option<&Json>) -> SolverStats {
    let s = manifest.and_then(|m| m.get("solver_stats"));
    let n = |k: &str| {
        s.and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64
    };
    SolverStats {
        symbolic_analyses: n("symbolic_analyses"),
        factorizations: n("factorizations"),
        solves: n("solves"),
        newton_iterations: n("newton_iterations"),
        steps_accepted: n("steps_accepted"),
        steps_rejected: n("steps_rejected"),
        wall_seconds: 0.0,
    }
}

/// Submits `jobs` (each with its due offset in seconds from the phase
/// start) and drains responses until every job is done or rejected.
/// Job ids are `first_id + k`, unique over the connection.
fn run_phase(conn: &Conn, jobs: Vec<(Job, f64)>, first_id: u64) -> Result<Phase, String> {
    let start = Instant::now();
    let (jobs, dues): (Vec<Job>, Vec<f64>) = jobs.into_iter().unzip();
    let n = jobs.len();
    let mut phase = Phase {
        verdicts: Vec::new(),
        received: vec![0; n],
        done: vec![false; n],
        rejected: vec![false; n],
        stats: SolverStats::default(),
        wall: 0.0,
        late_max: 0.0,
        queue_depth_max: 0.0,
        jobs,
    };
    let lines: Vec<String> = phase
        .jobs
        .iter()
        .enumerate()
        .map(|(k, job)| submit_line(first_id + k as u64, job))
        .collect();
    let dues = &dues;
    let due_at = |k: usize| start + Duration::from_secs_f64(dues[k]);
    std::thread::scope(|scope| -> Result<(), String> {
        let writer = &conn.writer;
        let pacer = scope.spawn(move || -> Result<f64, String> {
            let mut late = 0.0f64;
            let mut k = 0;
            while k < lines.len() {
                let due = due_at(k);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late = late.max(Instant::now().saturating_duration_since(due).as_secs_f64());
                // Jobs due together go out in one write, so the daemon
                // admits them back to back instead of racing the sends.
                let mut end = k + 1;
                while end < lines.len() && dues[end] == dues[k] {
                    end += 1;
                }
                Conn::send(writer, &lines[k..end].join("\n"))?;
                k = end;
            }
            Ok(late)
        });
        let mut finished = 0;
        let mut outcome = Ok(());
        while finished < n {
            let (at, doc) = match conn.recv() {
                Ok(msg) => msg,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            };
            let num = |k: &str| doc.get(k).and_then(Json::as_f64);
            let Some(k) = num("id")
                .map(|id| id as u64)
                .and_then(|id| id.checked_sub(first_id))
                .map(|k| k as usize)
                .filter(|&k| k < n)
            else {
                continue;
            };
            match doc.get("type").and_then(Json::as_str).unwrap_or("") {
                "admitted" => {
                    phase.queue_depth_max =
                        phase.queue_depth_max.max(num("queue_depth").unwrap_or(0.0));
                }
                "rejected" => {
                    phase.rejected[k] = true;
                    finished += 1;
                }
                "verdict" => {
                    phase.received[k] += 1;
                    phase.verdicts.push(Verdict {
                        job: k,
                        die: num("die").unwrap_or(0.0) as usize,
                        vdd: num("vdd").unwrap_or(0.0),
                        status: doc
                            .get("status")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_owned(),
                        delta_t: num("delta_t"),
                        client_s: at.saturating_duration_since(due_at(k)).as_secs_f64(),
                        server_s: num("latency_s").unwrap_or(0.0),
                    });
                }
                "done" => {
                    phase.done[k] = true;
                    phase.stats.merge(&stats_from(doc.get("manifest")));
                    phase.wall = at.duration_since(start).as_secs_f64();
                    finished += 1;
                }
                "error" => {
                    outcome = Err(format!("daemon error: {}", doc.render()));
                    break;
                }
                _ => {}
            }
        }
        match pacer.join() {
            Ok(Ok(late)) => phase.late_max = late,
            Ok(Err(e)) => outcome = outcome.and(Err(e)),
            Err(_) => outcome = outcome.and(Err("submit thread panicked".into())),
        }
        outcome
    })?;
    Ok(phase)
}

/// Jobs `first..` of `mix`, up to `verdicts` verdicts' worth, due at
/// `rate` verdicts per second (all at once when `rate` is infinite).
fn schedule(
    mix: fn(u64, usize) -> Job,
    seed: u64,
    first: usize,
    verdicts: usize,
    rate: f64,
) -> Vec<(Job, f64)> {
    let mut out = Vec::new();
    let mut offered = 0;
    let mut i = first;
    while offered < verdicts {
        let job = mix(seed, i);
        let due = if rate.is_finite() {
            offered as f64 / rate
        } else {
            0.0
        };
        offered += job.verdicts();
        out.push((job, due));
        i += 1;
    }
    out
}

/// A daemon with its client connection and the next free job id.
struct Session {
    daemon: Daemon,
    conn: Conn,
    next_id: u64,
}

impl Session {
    fn phase(&mut self, jobs: Vec<(Job, f64)>) -> Result<Phase, String> {
        let first = self.next_id;
        self.next_id += jobs.len() as u64;
        run_phase(&self.conn, jobs, first)
    }

    /// Graceful drain: the daemon flushes everything and exits.
    fn shutdown(self) -> Result<(), String> {
        let Session { daemon, conn, .. } = self;
        conn.request("shutdown", "shutting_down")?;
        let exited = daemon.wait();
        drop(conn);
        exited
    }
}

/// Set-up as a user pays it: spawn the daemon, wait for `pong`, and run
/// one warm-up job per engine group key of the traffic mix.
fn set_up() -> Result<(Session, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn()?;
    let conn = Conn::open(&daemon.addr)?;
    conn.request("ping", "pong")?;
    let mut session = Session {
        daemon,
        conn,
        next_id: 1,
    };
    let warm = session.phase(wl::screen_warmup().into_iter().map(|j| (j, 0.0)).collect())?;
    if warm.missing() > 0 || warm.verdicts.iter().any(|v| v.status == "error") {
        return Err("warm-up jobs did not complete".into());
    }
    Ok((session, t0.elapsed().as_secs_f64()))
}

/// Runs the `screen` workload.
pub fn run(opts: &RunOpts, trace_path: &Path) -> Result<RunResult, String> {
    crate::load_tuning()?;
    let plan = wl::screen_plan(opts.seconds, opts.smoke);
    let mut setups = Vec::new();
    let mut session = None;
    for r in 0..opts.setup_repeats() {
        let (s, secs) = set_up()?;
        setups.push(secs);
        if r + 1 < opts.setup_repeats() {
            s.shutdown()?;
        } else {
            session = Some(s);
        }
    }
    let mut session = session.expect("at least one set-up");
    let pid = Some(session.daemon.pid());

    let reference = if opts.trace {
        Some(Reference::measure(
            &mut session,
            opts.seed,
            plan.burst_verdicts,
        )?)
    } else {
        None
    };
    let phase_a_jobs = schedule(
        wl::screen_stream_job,
        opts.seed,
        0,
        (plan.rate * plan.phase_a_s).round() as usize,
        plan.rate,
    );
    let a = {
        let _span = rotsv_obs::span!("bench.phase_a", "jobs" = phase_a_jobs.len());
        session.phase(phase_a_jobs)?
    };
    let mut bursts = Vec::with_capacity(plan.bursts);
    let mut next_job = 0;
    for _ in 0..plan.bursts {
        let jobs = schedule(
            wl::screen_lot_job,
            opts.seed,
            next_job,
            plan.burst_verdicts,
            f64::INFINITY,
        );
        next_job += jobs.len();
        let _span = rotsv_obs::span!("bench.burst", "jobs" = jobs.len());
        bursts.push(session.phase(jobs)?);
    }
    let after = if opts.trace {
        Some((session.conn.scrape()?, cpu_seconds(pid)?))
    } else {
        None
    };
    let rss = rss_peak_mb(pid)?;
    session.shutdown()?;

    let phases: Vec<&Phase> = std::iter::once(&a).chain(&bursts).collect();
    let mut result = RunResult::default();
    let mut counts = Counts::default();
    for p in &phases {
        p.counts(&mut counts);
    }
    result.counts = counts;
    result.attempted = phases.iter().flat_map(|p| &p.jobs).map(Job::verdicts).sum();
    result.failed = phases
        .iter()
        .map(|p| {
            p.missing()
                + p.verdicts
                    .iter()
                    .filter(|v| v.status != "ok" && v.status != "stuck")
                    .count()
        })
        .sum();
    result.lanes = vec![LANES];
    let per_burst =
        |f: fn(&Phase) -> f64| Json::Arr(bursts.iter().map(|b| Json::Num(f(b))).collect());
    result.detail.push((
        "phases".into(),
        Json::Obj(vec![
            ("a_jobs".into(), Json::Num(a.jobs.len() as f64)),
            ("a_wall_s".into(), Json::Num(a.wall)),
            ("burst_jobs".into(), per_burst(|b| b.jobs.len() as f64)),
            ("burst_wall_s".into(), per_burst(|b| b.wall)),
            ("burst_dies_per_s".into(), per_burst(Phase::rate)),
            ("gen_late_max_s".into(), Json::Num(a.late_max)),
        ]),
    ));
    result.detail.push((
        "setup_s".into(),
        Json::Arr(setups.iter().copied().map(Json::Num).collect()),
    ));
    if a.late_max > 0.01 {
        eprintln!(
            "warning: the generator ran up to {:.1} ms late; latencies still count from due times",
            a.late_max * 1e3
        );
    }

    if let (Some(reference), Some(after)) = (reference, after) {
        let events = crate::write_trace(trace_path);
        crate::set_obs(false);
        result
            .detail
            .push(("trace_events".into(), Json::Num(events? as f64)));
        result.metrics = layer_metrics(&a, &bursts, &reference, (&after.0, after.1), opts.seed);
    } else {
        let client: Vec<f64> = a.verdicts.iter().map(|v| v.client_s).collect();
        let m = &mut result.metrics;
        m.insert("dies_per_s", burst_rate(&bursts));
        m.insert("latency_p50_s", percentile(&client, 0.5));
        m.insert("latency_p90_s", percentile(&client, 0.9));
        m.insert("setup_s", median(&setups));
        m.insert("rss_peak_mb", rss);
    }

    check(&phases, &mut result);
    Ok(result)
}

/// Phase-B throughput: the median burst's verdicts per second.
fn burst_rate(bursts: &[Phase]) -> f64 {
    median(&bursts.iter().map(Phase::rate).collect::<Vec<_>>())
}

/// What a traced run measures before its phases: an untraced burst of
/// the phase-B shape as the reference for CPU and overhead ratios, then
/// the daemon's metrics and CPU time as the baseline of their deltas.
struct Reference {
    burst: Phase,
    burst_cpu: f64,
    scrape: Scrape,
    cpu: f64,
}

impl Reference {
    /// Runs the reference burst (job indices disjoint from the measured
    /// phases), then turns the client's instrumentation on.
    fn measure(session: &mut Session, seed: u64, verdicts: usize) -> Result<Reference, String> {
        let pid = Some(session.daemon.pid());
        let c0 = cpu_seconds(pid)?;
        let burst = session.phase(schedule(
            wl::screen_lot_job,
            seed,
            1 << 16,
            verdicts,
            f64::INFINITY,
        ))?;
        let burst_cpu = cpu_seconds(pid)? - c0;
        crate::set_obs(true);
        rotsv_obs::reset();
        Ok(Reference {
            burst,
            burst_cpu,
            scrape: session.conn.scrape()?,
            cpu: cpu_seconds(pid)?,
        })
    }
}

fn layer_metrics(
    a: &Phase,
    bursts: &[Phase],
    reference: &Reference,
    (s1, c1): (&Scrape, f64),
    seed: u64,
) -> Metrics {
    let (b0, b0_cpu, s0, c0) = (
        &reference.burst,
        reference.burst_cpu,
        &reference.scrape,
        reference.cpu,
    );
    let mut stats = a.stats;
    let mut verdicts = a.verdicts.len() as f64;
    for b in bursts {
        stats.merge(&b.stats);
        verdicts += b.verdicts.len() as f64;
    }
    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let delta = |name: &str| {
        let (sum1, n1) = s1.hist_sum_count(name);
        let (sum0, n0) = s0.hist_sum_count(name);
        (sum1 - sum0, n1 - n0)
    };
    let (occ_sum, occ_n) = delta("mc.batch_occupancy");
    let (lu_sum, lu_n) = delta("lu.numeric");
    let analyze_s: f64 = ["lu.scale", "lu.btf", "lu.order", "lu.symbolic"]
        .iter()
        .map(|n| delta(n).0)
        .sum();
    let client: Vec<f64> = a.verdicts.iter().map(|v| v.client_s).collect();
    let server: Vec<f64> = a.verdicts.iter().map(|v| v.server_s).collect();

    let mut m = Metrics::new();
    m.insert("core.cpu_util", b0_cpu / (b0.wall * THREADS as f64));
    m.insert(
        "spice.newton_per_die",
        per(stats.newton_iterations as f64, verdicts),
    );
    m.insert(
        "spice.steps_per_die",
        per(stats.steps_accepted as f64, verdicts),
    );
    m.insert(
        "spice.rejected_per_die",
        per(stats.steps_rejected as f64, verdicts),
    );
    m.insert(
        "spice.us_per_newton",
        per(b0_cpu * 1e6, b0.stats.newton_iterations as f64),
    );
    m.insert("spice.occupancy_mean", per(occ_sum, occ_n));
    m.insert(
        "spice.dt_drag_p90",
        s1.hist_quantile_since(s0, "mc.dt_drag", 0.9),
    );
    m.insert(
        "spice.newton_per_step",
        per(stats.newton_iterations as f64, stats.steps_accepted as f64),
    );
    m.insert(
        "num.factor_per_newton",
        per(stats.factorizations as f64, stats.newton_iterations as f64),
    );
    m.insert("num.analyses", stats.symbolic_analyses as f64);
    m.insert("num.lu_numeric_share", per(lu_sum, c1 - c0));
    m.insert("num.lu_numeric_us", per(lu_sum * 1e6, lu_n));
    m.insert("num.lu_analyze_ms", analyze_s * 1e3);
    let (p50_client, p50_server) = (percentile(&client, 0.5), percentile(&server, 0.5));
    m.insert("server.verdict_latency_p50_s", p50_server);
    m.insert("server.client_gap_s", p50_client - p50_server);
    m.insert("server.queue_depth_max", a.queue_depth_max);
    m.insert(
        "server.sessions_per_kdie",
        per(
            1e3 * (s1.value("server.engine_sessions") - s0.value("server.engine_sessions")),
            verdicts,
        ),
    );
    m.insert("server.latency_p99_s", percentile(&client, 0.99));
    m.insert("server.gen_late_max_s", a.late_max);
    m.insert("obs.trace_overhead", b0.rate() / burst_rate(bursts) - 1.0);

    let probes = crate::probe::run(
        &TestBench::fast(2),
        1.1,
        &wl::on_tsv0(2, TsvFault::None),
        LANES,
        seed,
    );
    crate::insert_probes(&mut m, &probes);
    m
}

/// Every verdict is a classification, and a deterministic sample of
/// verdicts matches an in-process `measure_delta_t` of the same die.
fn check(phases: &[&Phase], result: &mut RunResult) {
    let _span = rotsv_obs::span!("bench.checks");
    let mut all: Vec<(&Job, &Verdict)> = Vec::new();
    for p in phases {
        for v in &p.verdicts {
            all.push((&p.jobs[v.job], v));
        }
    }
    let errors = all.iter().filter(|(_, v)| v.status == "error").count();
    result.check(errors == 0, || {
        format!("{errors} verdicts carry status error")
    });
    all.sort_by(|x, y| {
        (x.0.seed, x.1.die)
            .cmp(&(y.0.seed, y.1.die))
            .then(x.1.vdd.total_cmp(&y.1.vdd))
    });
    let picks: Vec<(&Job, &Verdict)> = (0..CHECK_SAMPLES.min(all.len()))
        .map(|s| all[s * all.len() / CHECK_SAMPLES.min(all.len())])
        .collect();
    let again = parallel_map(picks.len(), |s| {
        let (job, v) = picks[s];
        let die = Die::new(ProcessSpread::paper(), die_seed(job.seed, v.die));
        TestBench::fast(job.n_segments).measure_delta_t(
            v.vdd,
            &job.fault.faults(job.n_segments),
            &[0],
            &die,
        )
    });
    for ((job, v), m) in picks.into_iter().zip(again) {
        let agrees = match (&m, v.status.as_str()) {
            (Ok(m), "stuck") => m.is_stuck(),
            (Ok(m), "ok") => match (m.delta(), v.delta_t) {
                (Some(d), Some(dt)) => ((d - dt) / d).abs() <= DELTA_T_TOLERANCE,
                _ => false,
            },
            _ => false,
        };
        result.check(agrees, || {
            format!(
                "job seed {} die {} at {} V: daemon {} {:?}, re-measured {:?}",
                job.seed,
                v.die,
                v.vdd,
                v.status,
                v.delta_t,
                m.map(|m| m.delta())
            )
        });
    }
}
