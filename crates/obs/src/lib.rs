//! Observability for the rotsv pipeline.
//!
//! Seven pieces, deliberately dependency-free so every crate in the
//! workspace can use them:
//!
//! - [`mod@span`] — hierarchical span tracing with nanosecond timings and
//!   per-span key/value fields. Thread-local collectors keep the hot
//!   path lock-free; when tracing is disabled a span costs one relaxed
//!   atomic load and no allocation.
//! - [`metrics`] — a process-wide registry of counters, gauges and
//!   log-linear histograms, dumpable as JSON.
//! - [`event`] — a bounded lock-free ring of timestamped events (lane
//!   lifecycle, accepted steps, shallow span open/close) fed live by
//!   the batched Monte-Carlo engine, with drop counting instead of
//!   blocking on overflow.
//! - [`trace`] — a Chrome trace-event exporter over the event ring:
//!   `trace_<id>.json` files loadable in Perfetto, with span slices
//!   and per-lane occupancy tracks.
//! - [`prom`] — Prometheus text exposition over the metrics registry,
//!   on demand ([`prom::render_prometheus`]) or via a periodic flush
//!   thread ([`prom::PrometheusFlusher`]).
//! - [`manifest`] — versioned, machine-readable run manifests
//!   (`results/manifest_<exp>.json`) combining provenance, span
//!   phases, metrics and solver statistics, with a schema validator.
//! - [`digest`] — FNV-1a fingerprints of canonical JSON documents,
//!   used by the campaign ledger and the golden-signature layer.
//!
//! # Quick start
//!
//! ```
//! rotsv_obs::set_tracing(true);
//! {
//!     let _run = rotsv_obs::span!("my_run");
//!     {
//!         let _phase = rotsv_obs::span!("phase_a", "items" = 3);
//!         // ... work ...
//!     }
//! }
//! let report = rotsv_obs::span_report();
//! assert_eq!(report.entries[0].name, "my_run");
//! rotsv_obs::set_tracing(false);
//! rotsv_obs::reset();
//! ```

#![warn(missing_docs)]

pub mod digest;
pub mod event;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod prom;
pub mod span;
pub mod trace;

pub use digest::{fnv1a_64, json_digest};
pub use event::{
    event_ring, events_enabled, lane_operand, next_session, record_event, reset_events, set_events,
    Event, EventKind, EventRing,
};
pub use json::Json;
pub use manifest::{build_manifest, git_rev, validate_manifest, ManifestInputs, SCHEMA_VERSION};
pub use metrics::{
    counter, dump_json, gauge, histogram, metrics_enabled, reset_metrics, set_metrics, Counter,
    Gauge, Histogram, HistogramSummary,
};
pub use prom::{render_prometheus, write_prometheus, PrometheusFlusher};
pub use span::{
    current_path, reset_spans, set_tracing, span_report, tracing_enabled, FieldAgg, PathId,
    SpanEntry, SpanGuard, SpanReport,
};
pub use trace::{render_chrome_trace, write_chrome_trace};

/// Zeroes all recorded span statistics, all registered metrics, and
/// the event ring. Call between experiment runs so each manifest and
/// trace covers one run only.
pub fn reset() {
    reset_spans();
    reset_metrics();
    reset_events();
}

/// Opens a span and returns its RAII guard; the span closes when the
/// guard drops.
///
/// Forms:
/// - `span!("name")` — a plain span.
/// - `span!("name", "key" = value)` — records `value` (cast to `f64`)
///   under `"key"` on the span.
/// - `span!("name", index)` — shorthand recording `index` under `"i"`,
///   for loop iterations like `span!("mc_sample", i)`.
///
/// The guard must be bound to a local (`let _s = span!(…)`); `let _ =`
/// would drop it immediately and record an empty span.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
    ($name:expr, $key:literal = $val:expr) => {{
        let guard = $crate::span::SpanGuard::enter($name);
        guard.field($key, ($val) as f64);
        guard
    }};
    ($name:expr, $idx:expr) => {{
        let guard = $crate::span::SpanGuard::enter($name);
        guard.field("i", ($idx) as f64);
        guard
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_macro_forms_compile_and_record() {
        // Serialized against other span tests via the shared gate.
        let _g = crate::span::tests_gate();
        crate::set_tracing(true);
        crate::reset();
        {
            let _a = crate::span!("macro_root");
            let _b = crate::span!("macro_kv", "items" = 7);
            drop(_b);
            for i in 0..2 {
                let _c = crate::span!("macro_idx", i);
            }
        }
        let report = crate::span_report();
        crate::set_tracing(false);
        let kv = report
            .entries
            .iter()
            .find(|e| e.path == "macro_root>macro_kv")
            .expect("kv span");
        assert_eq!(kv.fields[0].0, "items");
        assert_eq!(kv.fields[0].1.sum, 7.0);
        let idx = report
            .entries
            .iter()
            .find(|e| e.path == "macro_root>macro_idx")
            .expect("idx span");
        assert_eq!(idx.count, 2);
        assert_eq!(idx.fields[0].0, "i");
        assert_eq!(idx.fields[0].1.sum, 1.0);
    }
}
