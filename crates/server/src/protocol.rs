//! The line-delimited JSON wire protocol.
//!
//! One request per line, one JSON object per line back. Requests:
//!
//! ```json
//! {"type": "submit", "id": 1, "n_segments": 2, "dies": 8,
//!  "vdd": [1.1, 0.8], "seed": 1007, "spread": "paper", "fast": true,
//!  "fault": {"kind": "leak", "index": 0, "r": 3000.0},
//!  "under_test": [0]}
//! {"type": "metrics"}
//! {"type": "ping"}
//! {"type": "shutdown"}
//! ```
//!
//! Responses: `admitted`, `rejected`, `verdict` (one per die × V_DD,
//! streamed as dies retire), `done` (with the job's run-manifest
//! trailer), `metrics`, `pong`, `shutting_down`, and `error`. Every
//! response carries the client-chosen `id` verbatim where one applies.
//! A request line may hold at most [`crate::server::MAX_LINE_BYTES`]
//! bytes, newline included; a longer one is answered with one `error`
//! and the connection closes.

use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv_num::units::Ohms;
use rotsv_obs::Json;

/// Process-variation choice of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpreadSpec {
    /// The paper's 10%/5% inter/intra-die spread.
    Paper,
    /// No variation (every die nominal).
    None,
}

impl SpreadSpec {
    /// The concrete spread handed to [`rotsv::Die::new`].
    pub fn spread(self) -> ProcessSpread {
        match self {
            SpreadSpec::Paper => ProcessSpread::paper(),
            SpreadSpec::None => ProcessSpread::none(),
        }
    }
}

/// Fault hypothesis of a job, applied to one TSV index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Fault-free wafer.
    None,
    /// Resistive open at `index`: break position `x` ∈ (0, 1), series
    /// resistance `r` ohms.
    Open {
        /// TSV index carrying the fault.
        index: usize,
        /// Fractional break position along the TSV.
        x: f64,
        /// Series resistance, ohms.
        r: f64,
    },
    /// Leakage to substrate at `index` through `r` ohms.
    Leak {
        /// TSV index carrying the fault.
        index: usize,
        /// Leakage resistance, ohms.
        r: f64,
    },
}

impl FaultSpec {
    /// The per-segment fault list this hypothesis induces.
    pub fn faults(&self, n_segments: usize) -> Vec<TsvFault> {
        let mut faults = vec![TsvFault::None; n_segments];
        match *self {
            FaultSpec::None => {}
            FaultSpec::Open { index, x, r } => {
                faults[index] = TsvFault::ResistiveOpen { x, r: Ohms(r) };
            }
            FaultSpec::Leak { index, r } => {
                faults[index] = TsvFault::Leakage { r: Ohms(r) };
            }
        }
        faults
    }

    fn key_fragment(&self) -> String {
        match *self {
            FaultSpec::None => "none".into(),
            FaultSpec::Open { index, x, r } => {
                format!("open:{index}:{:016x}:{:016x}", x.to_bits(), r.to_bits())
            }
            FaultSpec::Leak { index, r } => format!("leak:{index}:{:016x}", r.to_bits()),
        }
    }
}

/// A validated wafer-screening job: topology, fault hypothesis, V_DD
/// set, die count.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Segments per ring-oscillator group.
    pub n_segments: usize,
    /// Dies to screen.
    pub dies: usize,
    /// Supply voltages; every die is measured at each.
    pub vdds: Vec<f64>,
    /// Population seed; die `i` derives from `die_seed(seed, i)`.
    pub seed: u64,
    /// Process-variation spread.
    pub spread: SpreadSpec,
    /// `true` → fast measurement fidelity ([`rotsv::TestBench::fast`]).
    pub fast: bool,
    /// Fault hypothesis.
    pub fault: FaultSpec,
    /// TSV indices enabled in run 1.
    pub under_test: Vec<usize>,
}

impl JobSpec {
    /// Measurement units this job expands to (2 runs × dies × V_DDs).
    pub fn unit_count(&self) -> usize {
        2 * self.dies * self.vdds.len()
    }

    /// Verdicts this job will stream (dies × V_DDs).
    pub fn verdict_count(&self) -> usize {
        self.dies * self.vdds.len()
    }

    /// The engine-group key of this job at `vdds[vdd_idx]`: everything
    /// that determines circuit topology and the shared transient spec —
    /// segments, fidelity, fault hypothesis, TSVs under test, and the
    /// exact voltage. Seed, spread and die count are deliberately
    /// excluded: they only move element *values*, so jobs differing in
    /// them interleave in one engine (that is the continuous-batching
    /// win), while per-die trajectories stay bit-identical regardless
    /// of what rides alongside.
    pub fn group_key(&self, vdd_idx: usize) -> String {
        format!(
            "n{};fast{};vdd{:016x};fault{};ut{:?}",
            self.n_segments,
            self.fast,
            self.vdds[vdd_idx].to_bits(),
            self.fault.key_fragment(),
            self.under_test,
        )
    }

    /// Validates ranges; returns a human-readable reason on failure.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_segments == 0 || self.n_segments > 16 {
            return Err(format!(
                "n_segments must be in 1..=16, got {}",
                self.n_segments
            ));
        }
        if self.dies == 0 {
            return Err("dies must be at least 1".into());
        }
        if self.vdds.is_empty() {
            return Err("vdd set must not be empty".into());
        }
        for &v in &self.vdds {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("vdd must be positive and finite, got {v}"));
            }
        }
        if self.under_test.is_empty() {
            return Err("under_test must name at least one TSV".into());
        }
        for &i in &self.under_test {
            if i >= self.n_segments {
                return Err(format!(
                    "under_test index {i} out of range for {} segments",
                    self.n_segments
                ));
            }
        }
        match self.fault {
            FaultSpec::None => {}
            FaultSpec::Open { index, x, r } => {
                if index >= self.n_segments {
                    return Err(format!("fault index {index} out of range"));
                }
                if !(x > 0.0 && x < 1.0) {
                    return Err(format!("open fault position x must be in (0, 1), got {x}"));
                }
                if !(r.is_finite() && r > 0.0) {
                    return Err(format!("fault resistance must be positive, got {r}"));
                }
            }
            FaultSpec::Leak { index, r } => {
                if index >= self.n_segments {
                    return Err(format!("fault index {index} out of range"));
                }
                if !(r.is_finite() && r > 0.0) {
                    return Err(format!("fault resistance must be positive, got {r}"));
                }
            }
        }
        Ok(())
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a screening job; `id` is echoed verbatim in every
    /// response belonging to the job.
    Submit {
        /// Client-chosen correlation id (`Json::Null` when absent).
        id: Json,
        /// The validated job.
        spec: JobSpec,
    },
    /// Ask for a Prometheus text snapshot of the server's metrics.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Begin graceful shutdown: new submits are rejected, admitted
    /// jobs drain, verdicts and manifests flush, then the server exits.
    Shutdown,
}

fn get_usize(doc: &Json, key: &str, default: usize) -> Result<usize, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("'{key}' must be a number"))?;
            if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
                return Err(format!("'{key}' must be a non-negative integer, got {n}"));
            }
            Ok(n as usize)
        }
    }
}

fn get_f64(doc: &Json, key: &str, default: f64) -> Result<f64, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("'{key}' must be a number")),
    }
}

fn get_bool(doc: &Json, key: &str, default: bool) -> Result<bool, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("'{key}' must be a boolean")),
    }
}

fn get_index_list(doc: &Json, key: &str, default: Vec<usize>) -> Result<Vec<usize>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                let n = v
                    .as_f64()
                    .ok_or_else(|| format!("'{key}' entries must be numbers"))?;
                if n < 0.0 || n.fract() != 0.0 {
                    return Err(format!("'{key}' entries must be non-negative integers"));
                }
                Ok(n as usize)
            })
            .collect(),
        Some(_) => Err(format!("'{key}' must be an array")),
    }
}

fn parse_fault(doc: &Json) -> Result<FaultSpec, String> {
    let Some(fault) = doc.get("fault") else {
        return Ok(FaultSpec::None);
    };
    if matches!(fault, Json::Null) {
        return Ok(FaultSpec::None);
    }
    let kind = fault
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("'fault.kind' must be a string")?;
    match kind {
        "none" => Ok(FaultSpec::None),
        "open" => Ok(FaultSpec::Open {
            index: get_usize(fault, "index", 0)?,
            x: get_f64(fault, "x", 0.5)?,
            r: get_f64(fault, "r", 3e3)?,
        }),
        "leak" => Ok(FaultSpec::Leak {
            index: get_usize(fault, "index", 0)?,
            r: get_f64(fault, "r", 3e3)?,
        }),
        other => Err(format!(
            "unknown fault kind '{other}' (expected none|open|leak)"
        )),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable reason for malformed JSON, an unknown
/// `type`, or an out-of-range job field; the server answers these with
/// an `error` response without dropping the connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = rotsv_obs::json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let ty = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or("request must carry a string 'type'")?;
    match ty {
        "submit" => {
            let vdds = match doc.get("vdd") {
                None | Some(Json::Null) => vec![1.1],
                Some(Json::Num(v)) => vec![*v],
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| v.as_f64().ok_or("'vdd' entries must be numbers".to_owned()))
                    .collect::<Result<_, _>>()?,
                Some(_) => return Err("'vdd' must be a number or an array".into()),
            };
            let spread = match doc.get("spread").and_then(Json::as_str) {
                None => SpreadSpec::Paper,
                Some("paper") => SpreadSpec::Paper,
                Some("none") => SpreadSpec::None,
                Some(other) => {
                    return Err(format!("unknown spread '{other}' (expected paper|none)"))
                }
            };
            let n_segments = get_usize(&doc, "n_segments", 1)?;
            let spec = JobSpec {
                n_segments,
                dies: get_usize(&doc, "dies", 1)?,
                vdds,
                seed: get_usize(&doc, "seed", 1007)? as u64,
                spread,
                fast: get_bool(&doc, "fast", true)?,
                fault: parse_fault(&doc)?,
                under_test: get_index_list(&doc, "under_test", vec![0])?,
            };
            spec.validate()?;
            Ok(Request::Submit {
                id: doc.get("id").cloned().unwrap_or(Json::Null),
                spec,
            })
        }
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown request type '{other}' (expected submit|metrics|ping|shutdown)"
        )),
    }
}

/// Renders a response object as one compact NDJSON line (no trailing
/// newline; the writer appends it).
pub fn render_line(members: Vec<(String, Json)>) -> String {
    Json::Obj(members).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_defaults_and_overrides() {
        let req = parse_request(r#"{"type":"submit","dies":3}"#).unwrap();
        let Request::Submit { id, spec } = req else {
            panic!("expected submit")
        };
        assert_eq!(id, Json::Null);
        assert_eq!(spec.dies, 3);
        assert_eq!(spec.n_segments, 1);
        assert_eq!(spec.vdds, vec![1.1]);
        assert_eq!(spec.seed, 1007);
        assert!(spec.fast);
        assert_eq!(spec.fault, FaultSpec::None);
        assert_eq!(spec.under_test, vec![0]);
        assert_eq!(spec.unit_count(), 6);

        let req = parse_request(
            r#"{"type":"submit","id":7,"n_segments":2,"dies":2,"vdd":[1.1,0.8],
                "seed":42,"spread":"none","fast":false,
                "fault":{"kind":"open","index":1,"x":0.25,"r":5000},
                "under_test":[0,1]}"#,
        )
        .unwrap();
        let Request::Submit { id, spec } = req else {
            panic!("expected submit")
        };
        assert_eq!(id, Json::Num(7.0));
        assert_eq!(spec.vdds.len(), 2);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.spread, SpreadSpec::None);
        assert!(!spec.fast);
        assert!(matches!(spec.fault, FaultSpec::Open { index: 1, .. }));
        assert_eq!(spec.unit_count(), 8);
    }

    #[test]
    fn invalid_submits_are_rejected_with_reasons() {
        for (line, needle) in [
            (r#"{"type":"submit","dies":0}"#, "dies"),
            (r#"{"type":"submit","dies":1,"vdd":[]}"#, "vdd"),
            (r#"{"type":"submit","dies":1,"vdd":-0.5}"#, "vdd"),
            (r#"{"type":"submit","dies":1,"under_test":[5]}"#, "range"),
            (
                r#"{"type":"submit","dies":1,"fault":{"kind":"open","x":1.5}}"#,
                "position",
            ),
            (r#"{"type":"nonsense"}"#, "unknown request type"),
            (r#"{"#, "malformed"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "line {line}: {err}");
        }
    }

    #[test]
    fn group_key_ignores_seed_and_spread_but_not_topology() {
        let base = JobSpec {
            n_segments: 2,
            dies: 4,
            vdds: vec![1.1],
            seed: 1,
            spread: SpreadSpec::Paper,
            fast: true,
            fault: FaultSpec::None,
            under_test: vec![0],
        };
        let mut other_seed = base.clone();
        other_seed.seed = 99;
        other_seed.spread = SpreadSpec::None;
        other_seed.dies = 17;
        assert_eq!(base.group_key(0), other_seed.group_key(0));

        let mut other_topo = base.clone();
        other_topo.n_segments = 3;
        assert_ne!(base.group_key(0), other_topo.group_key(0));

        let mut other_fault = base.clone();
        other_fault.fault = FaultSpec::Leak { index: 0, r: 3e3 };
        assert_ne!(base.group_key(0), other_fault.group_key(0));
    }
}
