#![warn(missing_docs)]

//! # rotsv-server — resident wafer-screening daemon
//!
//! A screening floor does not run one wafer and exit: jobs arrive
//! continuously, and the expensive asset — a warm batched transient
//! engine with its symbolic factorizations — should never drain
//! between them. This crate wraps the `rotsv` stack in a resident
//! daemon speaking line-delimited JSON over TCP:
//!
//! * **Continuous batching** ([`engine`]): submitted jobs expand into
//!   per-`(die, V_DD, run)` measurement units on a bounded, group-keyed
//!   admission queue ([`queue`]). Engine workers claim a group
//!   (topology + fault hypothesis + voltage) and stream it through
//!   `transient_stream`: a lane that retires refills from the queue
//!   mid-transient, so units admitted while a group is in flight join
//!   the running batch instead of waiting behind it. Both phases of
//!   the two-run ΔT procedure share a topology, hence a group — they
//!   interleave in the same engine session.
//! * **Bit-identical verdicts**: every ring is built through
//!   `TestBench::ro_configs` and `die_seed`, the exact construction
//!   path of `TestBench::measure_delta_t_stream`, the one in-process
//!   ΔT implementation, and runs on the same composition-independent
//!   lane engine — so a die's ΔT does not depend on what else the
//!   server happened to be screening, and equals `measure_delta_t` and
//!   every Monte-Carlo engine bit for bit.
//! * **Backpressure** ([`server`]): admission is all-or-nothing
//!   against a unit bound, oversized jobs are rejected by a per-job
//!   die cap, request lines are capped at [`server::MAX_LINE_BYTES`],
//!   and a draining server refuses new work while flushing
//!   every in-flight verdict and per-job run manifest.
//! * **Observability**: the process-wide metrics registry feeds both
//!   the `metrics` request (Prometheus text exposition inline) and a
//!   periodic `metrics.prom` snapshot; each job's `done` trailer
//!   carries a run manifest built by `rotsv-obs`.
//!
//! The [`loadgen`] module drives a listening server at a target
//! arrival rate and reports sustained dies/sec with client-observed
//! tail latency; the solver benchmark harness runs it in-process to
//! regression-gate server throughput.
//!
//! ## Wire protocol
//!
//! See [`protocol`] for the request/response schema. A minimal
//! session:
//!
//! ```text
//! → {"type":"submit","id":1,"n_segments":2,"dies":2,"vdd":1.1}
//! ← {"type":"admitted","id":1,"job":1,"units":4,"queue_depth":4}
//! ← {"type":"verdict","id":1,"job":1,"vdd":1.1,"die":0,"status":"ok","delta_t":...}
//! ← {"type":"verdict","id":1,"job":1,"vdd":1.1,"die":1,"status":"ok","delta_t":...}
//! ← {"type":"done","id":1,"job":1,"verdicts":2,...,"manifest":{...}}
//! ```

pub mod engine;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod server;

pub use server::{Server, ServerConfig};
