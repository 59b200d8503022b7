//! The resident screening daemon: socket handling, per-job verdict
//! accounting, and graceful-drain lifecycle.
//!
//! One thread per client connection parses line-delimited JSON
//! requests; admitted jobs expand into measurement units on the
//! [`AdmissionQueue`], engine workers (see [`crate::engine`]) stream
//! verdicts back through each job's response channel as lanes retire,
//! and a `done` trailer carrying the run manifest closes every job.

use std::io::{BufRead, BufReader, BufWriter, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rotsv::ro::OscillationOutcome;
use rotsv::spice::SolverStats;
use rotsv::DeltaTMeasurement;
use rotsv_num::SymbolicCache;
use rotsv_obs::{build_manifest, render_prometheus, Json, ManifestInputs, PrometheusFlusher};

use crate::engine;
use crate::protocol::{parse_request, render_line, JobSpec, Request};
use crate::queue::{AdmissionQueue, AdmitError};

/// Which of the two ΔT runs a unit belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Run 1: the TSVs under test are in the loop (T₁).
    Enabled,
    /// Run 2: every TSV bypassed (T₂, the reference).
    Bypassed,
}

/// One schedulable measurement: a single transient of one die's ring
/// at one voltage in one phase of the two-run procedure. Both phases
/// of a `(die, V_DD)` slot must retire before its ΔT verdict streams.
pub struct Unit {
    pub(crate) job: Arc<JobState>,
    pub(crate) vdd_idx: usize,
    pub(crate) sample: usize,
    pub(crate) phase: Phase,
}

impl Unit {
    pub(crate) fn record_outcome(&self, outcome: OscillationOutcome, stats: SolverStats) {
        self.job
            .record(self.vdd_idx, self.sample, self.phase, outcome, stats);
    }

    pub(crate) fn record_failure(&self, reason: &str) {
        self.job.record_failure(self.vdd_idx, self.sample, reason);
    }
}

#[derive(Default)]
struct Slot {
    t1: Option<OscillationOutcome>,
    t2: Option<OscillationOutcome>,
    failed: bool,
}

struct Progress {
    /// Indexed `vdd_idx * dies + sample`.
    slots: Vec<Slot>,
    stats: SolverStats,
    verdicts: usize,
    ok: usize,
    stuck: usize,
    reference_failed: usize,
    errors: usize,
    done_sent: bool,
}

/// Server-side state of one admitted job: verdict accounting plus the
/// owning client's response channel.
pub struct JobState {
    server_id: u64,
    client_id: Json,
    pub(crate) spec: JobSpec,
    threads: usize,
    submitted: Instant,
    tx: Sender<String>,
    tracker: Arc<JobTracker>,
    progress: Mutex<Progress>,
}

impl JobState {
    fn new(
        server_id: u64,
        client_id: Json,
        spec: JobSpec,
        threads: usize,
        tx: Sender<String>,
        tracker: Arc<JobTracker>,
    ) -> Self {
        let slots = (0..spec.dies * spec.vdds.len())
            .map(|_| Slot::default())
            .collect();
        Self {
            server_id,
            client_id,
            spec,
            threads,
            submitted: Instant::now(),
            tx,
            tracker,
            progress: Mutex::new(Progress {
                slots,
                stats: SolverStats::default(),
                verdicts: 0,
                ok: 0,
                stuck: 0,
                reference_failed: 0,
                errors: 0,
                done_sent: false,
            }),
        }
    }

    fn opt_num(v: Option<f64>) -> Json {
        v.map(Json::Num).unwrap_or(Json::Null)
    }

    fn record(
        &self,
        vdd_idx: usize,
        sample: usize,
        phase: Phase,
        outcome: OscillationOutcome,
        stats: SolverStats,
    ) {
        let latency = self.submitted.elapsed().as_secs_f64();
        let mut p = self.progress.lock().expect("job progress poisoned");
        p.stats.merge(&stats);
        let idx = vdd_idx * self.spec.dies + sample;
        let (t1, t2) = {
            let slot = &mut p.slots[idx];
            match phase {
                Phase::Enabled => slot.t1 = Some(outcome),
                Phase::Bypassed => slot.t2 = Some(outcome),
            }
            if slot.failed || slot.t1.is_none() || slot.t2.is_none() {
                return;
            }
            (
                slot.t1.clone().expect("t1 just checked"),
                slot.t2.clone().expect("t2 just checked"),
            )
        };
        let m = DeltaTMeasurement { t1, t2, stats };
        let status = if m.delta().is_some() {
            p.ok += 1;
            "ok"
        } else if m.is_stuck() {
            p.stuck += 1;
            "stuck"
        } else {
            p.reference_failed += 1;
            "reference_failed"
        };
        p.verdicts += 1;
        if rotsv_obs::metrics_enabled() {
            rotsv_obs::counter("server.dies_completed").add(1);
            rotsv_obs::histogram("server.verdict_latency_seconds").observe(latency);
        }
        let line = render_line(vec![
            ("type".into(), Json::Str("verdict".into())),
            ("id".into(), self.client_id.clone()),
            ("job".into(), Json::Num(self.server_id as f64)),
            ("vdd".into(), Json::Num(self.spec.vdds[vdd_idx])),
            ("die".into(), Json::Num(sample as f64)),
            ("status".into(), Json::Str(status.into())),
            ("delta_t".into(), Self::opt_num(m.delta())),
            ("t1".into(), Self::opt_num(m.t1.period())),
            ("t2".into(), Self::opt_num(m.t2.period())),
            ("latency_s".into(), Json::Num(latency)),
        ]);
        let _ = self.tx.send(line);
        self.maybe_finish(&mut p);
    }

    fn record_failure(&self, vdd_idx: usize, sample: usize, reason: &str) {
        let mut p = self.progress.lock().expect("job progress poisoned");
        let idx = vdd_idx * self.spec.dies + sample;
        {
            let slot = &mut p.slots[idx];
            // One engine failure fails both phases of the slot; a slot
            // whose verdict already streamed cannot fail after the fact.
            if slot.failed || (slot.t1.is_some() && slot.t2.is_some()) {
                return;
            }
            slot.failed = true;
        }
        p.errors += 1;
        p.verdicts += 1;
        if rotsv_obs::metrics_enabled() {
            rotsv_obs::counter("server.units_failed").add(1);
        }
        let line = render_line(vec![
            ("type".into(), Json::Str("verdict".into())),
            ("id".into(), self.client_id.clone()),
            ("job".into(), Json::Num(self.server_id as f64)),
            ("vdd".into(), Json::Num(self.spec.vdds[vdd_idx])),
            ("die".into(), Json::Num(sample as f64)),
            ("status".into(), Json::Str("error".into())),
            ("reason".into(), Json::Str(reason.into())),
        ]);
        let _ = self.tx.send(line);
        self.maybe_finish(&mut p);
    }

    /// Emits the `done` trailer (with the run manifest) once every
    /// verdict has streamed, and releases the job from the tracker.
    fn maybe_finish(&self, p: &mut Progress) {
        if p.done_sent || p.verdicts < self.spec.verdict_count() {
            return;
        }
        p.done_sent = true;
        let inputs = ManifestInputs {
            experiment: format!("server_job_{}", self.server_id),
            fidelity: if self.spec.fast { "fast" } else { "full" }.into(),
            threads: self.threads,
            seed: Some(self.spec.seed),
            wall_seconds: self.submitted.elapsed().as_secs_f64(),
            // A job's "checks" are its verdicts: any classification is a
            // successful screen; only engine errors count as failures.
            checks_passed: (p.ok + p.stuck + p.reference_failed) as u64,
            checks_failed: p.errors as u64,
            solver_stats: Some(p.stats.to_json()),
        };
        let manifest = build_manifest(&inputs, &rotsv_obs::span_report(), rotsv_obs::dump_json());
        let line = render_line(vec![
            ("type".into(), Json::Str("done".into())),
            ("id".into(), self.client_id.clone()),
            ("job".into(), Json::Num(self.server_id as f64)),
            ("verdicts".into(), Json::Num(p.verdicts as f64)),
            ("ok".into(), Json::Num(p.ok as f64)),
            ("stuck".into(), Json::Num(p.stuck as f64)),
            (
                "reference_failed".into(),
                Json::Num(p.reference_failed as f64),
            ),
            ("errors".into(), Json::Num(p.errors as f64)),
            (
                "wall_s".into(),
                Json::Num(self.submitted.elapsed().as_secs_f64()),
            ),
            ("manifest".into(), manifest),
        ]);
        let _ = self.tx.send(line);
        self.tracker.job_done();
    }
}

/// Counts jobs in flight so graceful shutdown can wait until every
/// admitted job has flushed its verdicts and `done` trailer.
pub struct JobTracker {
    active: Mutex<usize>,
    idle: Condvar,
}

impl JobTracker {
    fn new() -> Self {
        Self {
            active: Mutex::new(0),
            idle: Condvar::new(),
        }
    }

    fn job_started(&self) {
        *self.active.lock().expect("job tracker poisoned") += 1;
    }

    fn job_done(&self) {
        let mut active = self.active.lock().expect("job tracker poisoned");
        *active -= 1;
        if *active == 0 {
            self.idle.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut active = self.active.lock().expect("job tracker poisoned");
        while *active > 0 {
            active = self.idle.wait(active).expect("job tracker poisoned");
        }
    }
}

/// Server tunables. The defaults suit in-process tests and the CI
/// smoke; the `rotsv-server` binary maps flags onto these fields.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; `127.0.0.1:0` picks a free port.
    pub addr: String,
    /// Transient lanes per engine session.
    pub lanes: usize,
    /// Engine worker threads (concurrent group sessions).
    pub workers: usize,
    /// Admission queue capacity in units.
    pub queue_cap: usize,
    /// Per-job die cap; larger submits are rejected outright.
    pub max_dies_per_job: usize,
    /// Prometheus snapshot path; enables the periodic flusher.
    pub metrics_out: Option<PathBuf>,
    /// Snapshot interval for the flusher, in milliseconds.
    pub metrics_interval_ms: u64,
    /// File to write the bound `host:port` to once listening (CI smoke
    /// discovers the ephemeral port through this).
    pub port_file: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            lanes: 8,
            workers: 2,
            queue_cap: 4096,
            max_dies_per_job: 1024,
            metrics_out: None,
            metrics_interval_ms: 1000,
            port_file: None,
        }
    }
}

impl ServerConfig {
    /// Parses `rotsv-server` command-line flags into a config.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or unparsable values.
    pub fn parse_args(args: &[String]) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--listen" => cfg.addr = value("--listen")?,
                "--lanes" => {
                    let v = value("--lanes")?;
                    cfg.lanes = if v == "auto" {
                        // Widest measured lane width: the daemon streams
                        // an unbounded population, so the large-N row of
                        // the benchmark-derived table applies
                        // (BENCH_solver.json in the working directory,
                        // else the built-in 16-lane default).
                        rotsv::mc::load_measured_tuning(std::path::Path::new("BENCH_solver.json"));
                        rotsv::mc::auto_lane_table()
                            .iter()
                            .map(|&(_, lanes)| lanes)
                            .max()
                            .unwrap_or(16)
                    } else {
                        v.parse().map_err(|e| format!("--lanes: {e}"))?
                    };
                }
                "--workers" => {
                    cfg.workers = value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?;
                }
                "--queue-cap" => {
                    cfg.queue_cap = value("--queue-cap")?
                        .parse()
                        .map_err(|e| format!("--queue-cap: {e}"))?;
                }
                "--max-dies" => {
                    cfg.max_dies_per_job = value("--max-dies")?
                        .parse()
                        .map_err(|e| format!("--max-dies: {e}"))?;
                }
                "--metrics-out" => cfg.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
                "--metrics-interval-ms" => {
                    cfg.metrics_interval_ms = value("--metrics-interval-ms")?
                        .parse()
                        .map_err(|e| format!("--metrics-interval-ms: {e}"))?;
                }
                "--port-file" => cfg.port_file = Some(PathBuf::from(value("--port-file")?)),
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        if cfg.lanes == 0 || cfg.workers == 0 {
            return Err("--lanes and --workers must be at least 1".into());
        }
        Ok(cfg)
    }
}

/// State shared by the accept loop, connection handlers, and engine
/// workers.
pub struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) queue: AdmissionQueue,
    /// Process-wide symbolic cache, keyed by circuit topology: every
    /// engine session of every job reuses the same sparsity analyses.
    pub(crate) cache: Arc<SymbolicCache>,
    tracker: Arc<JobTracker>,
    next_job: AtomicU64,
    stop: Mutex<bool>,
    stop_cv: Condvar,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn new(config: ServerConfig) -> Self {
        let queue = AdmissionQueue::new(config.queue_cap);
        Self {
            config,
            queue,
            cache: Arc::new(SymbolicCache::new()),
            tracker: Arc::new(JobTracker::new()),
            next_job: AtomicU64::new(1),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            conn_threads: Mutex::new(Vec::new()),
        }
    }

    /// Begins the graceful drain: no new admissions, workers exit once
    /// the queue empties, handlers and the accept loop wind down.
    pub fn begin_shutdown(&self) {
        self.queue.begin_shutdown();
        let mut stop = self.stop.lock().expect("stop flag poisoned");
        *stop = true;
        drop(stop);
        self.stop_cv.notify_all();
    }

    fn is_stopping(&self) -> bool {
        *self.stop.lock().expect("stop flag poisoned")
    }

    fn wait_stop(&self) {
        let mut stop = self.stop.lock().expect("stop flag poisoned");
        while !*stop {
            stop = self.stop_cv.wait(stop).expect("stop flag poisoned");
        }
    }
}

/// Handle on a running server instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    flusher: Option<PrometheusFlusher>,
}

impl Server {
    /// Binds, spawns the engine workers and the accept loop, and
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listen address or writing the
    /// port file.
    pub fn start(config: ServerConfig) -> std::io::Result<Self> {
        rotsv_obs::set_metrics(true);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        if let Some(path) = &config.port_file {
            std::fs::write(path, format!("{addr}\n"))?;
        }
        let flusher = config.metrics_out.as_ref().map(|path| {
            PrometheusFlusher::start(path, Duration::from_millis(config.metrics_interval_ms))
        });
        let shared = Arc::new(Shared::new(config));
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("rotsv-engine-{i}"))
                    .spawn(move || engine::worker_loop(&shared))
                    .expect("spawn engine worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("rotsv-accept".into())
                .spawn(move || accept_loop(&shared, listener))
                .expect("spawn accept loop")
        };
        Ok(Self {
            shared,
            addr,
            workers,
            accept: Some(accept),
            flusher,
        })
    }

    /// The bound listen address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins the graceful drain without blocking.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until a shutdown is requested (by [`Server::shutdown`] or
    /// a client's `shutdown` request), then drains: workers finish
    /// every queued unit, in-flight jobs flush their verdicts and
    /// `done` trailers, handlers and writers exit, and the final
    /// metrics snapshot lands.
    ///
    /// # Errors
    ///
    /// I/O errors from the final Prometheus snapshot.
    pub fn wait(mut self) -> std::io::Result<()> {
        self.shared.wait_stop();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers only exit once the queue is drained, and every unit
        // records before its session ends — so all jobs are done.
        self.shared.tracker.wait_idle();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns: Vec<_> = {
            let mut guard = self
                .shared
                .conn_threads
                .lock()
                .expect("connection registry poisoned");
            guard.drain(..).collect()
        };
        for h in conns {
            let _ = h.join();
        }
        if let Some(f) = self.flusher.take() {
            f.stop()?;
        }
        Ok(())
    }

    /// [`Server::shutdown`] followed by [`Server::wait`].
    ///
    /// # Errors
    ///
    /// I/O errors from the final Prometheus snapshot.
    pub fn stop(self) -> std::io::Result<()> {
        self.shutdown();
        self.wait()
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.is_stopping() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared2 = Arc::clone(shared);
                let handle = thread::Builder::new()
                    .name("rotsv-client".into())
                    .spawn(move || handle_client(&shared2, stream))
                    .expect("spawn client handler");
                shared
                    .conn_threads
                    .lock()
                    .expect("connection registry poisoned")
                    .push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(25));
            }
            Err(_) => thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Longest request line the daemon reads, newline included. A job line
/// is under 1 KiB; a client that sends this much without a newline gets
/// one `error` line and loses its connection, so no client can grow a
/// handler's buffer without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

fn handle_client(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<String>();
    let writer = thread::Builder::new()
        .name("rotsv-writer".into())
        .spawn(move || {
            let mut out = BufWriter::new(write_half);
            // Exits when the handler and every job holding a sender
            // clone are gone — verdicts in flight always flush first.
            for line in rx {
                if writeln!(out, "{line}").is_err() {
                    break;
                }
                let _ = out.flush();
            }
        })
        .expect("spawn writer");
    shared
        .conn_threads
        .lock()
        .expect("connection registry poisoned")
        .push(writer);

    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        if shared.is_stopping() {
            break;
        }
        let room = (MAX_LINE_BYTES - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if !line.ends_with(b"\n") && line.len() == MAX_LINE_BYTES => {
                if rotsv_obs::metrics_enabled() {
                    rotsv_obs::counter("server.lines_rejected").add(1);
                }
                send(
                    &tx,
                    vec![
                        ("type".into(), Json::Str("error".into())),
                        (
                            "reason".into(),
                            Json::Str(format!(
                                "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
                            )),
                        ),
                    ],
                );
                break;
            }
            Ok(_) => {
                let text = String::from_utf8_lossy(&line);
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    handle_request(shared, trimmed, &tx);
                }
                line.clear();
            }
            // Timeout with a partial line buffered: keep it and retry.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

fn send(tx: &Sender<String>, members: Vec<(String, Json)>) {
    let _ = tx.send(render_line(members));
}

fn handle_request(shared: &Arc<Shared>, line: &str, tx: &Sender<String>) {
    match parse_request(line) {
        Err(reason) => send(
            tx,
            vec![
                ("type".into(), Json::Str("error".into())),
                ("reason".into(), Json::Str(reason)),
            ],
        ),
        Ok(Request::Ping) => send(tx, vec![("type".into(), Json::Str("pong".into()))]),
        Ok(Request::Metrics) => send(
            tx,
            vec![
                ("type".into(), Json::Str("metrics".into())),
                ("text".into(), Json::Str(render_prometheus())),
            ],
        ),
        Ok(Request::Shutdown) => {
            send(tx, vec![("type".into(), Json::Str("shutting_down".into()))]);
            shared.begin_shutdown();
        }
        Ok(Request::Submit { id, spec }) => handle_submit(shared, id, spec, tx),
    }
}

fn reject(tx: &Sender<String>, id: &Json, reason: String, depth: usize, cap: usize) {
    if rotsv_obs::metrics_enabled() {
        rotsv_obs::counter("server.jobs_rejected").add(1);
    }
    send(
        tx,
        vec![
            ("type".into(), Json::Str("rejected".into())),
            ("id".into(), id.clone()),
            ("reason".into(), Json::Str(reason)),
            ("queue_depth".into(), Json::Num(depth as f64)),
            ("queue_cap".into(), Json::Num(cap as f64)),
        ],
    );
}

fn handle_submit(shared: &Arc<Shared>, id: Json, spec: JobSpec, tx: &Sender<String>) {
    let cap = shared.config.queue_cap;
    if spec.dies > shared.config.max_dies_per_job {
        reject(
            tx,
            &id,
            format!(
                "job requests {} dies; per-job cap is {}",
                spec.dies, shared.config.max_dies_per_job
            ),
            shared.queue.depth(),
            cap,
        );
        return;
    }
    let server_id = shared.next_job.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(JobState::new(
        server_id,
        id.clone(),
        spec,
        shared.config.workers,
        tx.clone(),
        Arc::clone(&shared.tracker),
    ));
    let mut units = Vec::with_capacity(job.spec.unit_count());
    for vdd_idx in 0..job.spec.vdds.len() {
        let key = job.spec.group_key(vdd_idx);
        for sample in 0..job.spec.dies {
            for phase in [Phase::Enabled, Phase::Bypassed] {
                units.push((
                    key.clone(),
                    Unit {
                        job: Arc::clone(&job),
                        vdd_idx,
                        sample,
                        phase,
                    },
                ));
            }
        }
    }
    match shared.queue.admit(units) {
        Ok(depth) => {
            shared.tracker.job_started();
            if rotsv_obs::metrics_enabled() {
                rotsv_obs::counter("server.jobs_admitted").add(1);
            }
            send(
                tx,
                vec![
                    ("type".into(), Json::Str("admitted".into())),
                    ("id".into(), id),
                    ("job".into(), Json::Num(server_id as f64)),
                    ("units".into(), Json::Num(job.spec.unit_count() as f64)),
                    ("queue_depth".into(), Json::Num(depth as f64)),
                ],
            );
        }
        Err(AdmitError::Full { depth, cap }) => {
            reject(tx, &id, "queue full".into(), depth, cap);
        }
        Err(AdmitError::ShuttingDown) => {
            reject(tx, &id, "shutting down".into(), shared.queue.depth(), cap);
        }
    }
}
