//! Simulator error types.

use std::error::Error;
use std::fmt;

use rotsv_num::linsolve::SolveError;
use rotsv_num::parallel::WorkerPanic;

/// Errors produced by circuit analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// The Newton iteration failed to converge.
    NoConvergence {
        /// Analysis that failed (`"dcop"` or `"transient_stream"`).
        analysis: &'static str,
        /// Simulated time at which the failure occurred (0 for DC).
        time: f64,
        /// Newton iterations of the failing attempt.
        iterations: usize,
    },
    /// The MNA matrix was singular even with gmin applied.
    SingularSystem {
        /// Simulated time of the failure (0 for DC).
        time: f64,
        /// Underlying linear-solver error.
        source: SolveError,
    },
    /// The netlist is structurally invalid (e.g. a non-positive resistance).
    InvalidCircuit(String),
    /// An analysis specification is invalid (e.g. a non-positive time step).
    InvalidSpec(String),
    /// A parallel worker panicked while simulating one sample of a
    /// fan-out (e.g. one Monte-Carlo die). Carries the sample index so
    /// the failing die can be reproduced in isolation.
    WorkerPanic {
        /// Index of the sample whose worker panicked.
        index: usize,
        /// Rendered panic payload.
        payload: String,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::NoConvergence {
                analysis,
                time,
                iterations,
            } => write!(
                f,
                "{analysis} analysis failed to converge after {iterations} iterations at t={time:.3e} s"
            ),
            SpiceError::SingularSystem { time, source } => {
                write!(f, "singular MNA system at t={time:.3e} s: {source}")
            }
            SpiceError::InvalidCircuit(msg) => write!(f, "invalid circuit: {msg}"),
            SpiceError::InvalidSpec(msg) => write!(f, "invalid analysis spec: {msg}"),
            SpiceError::WorkerPanic { index, payload } => {
                write!(f, "worker panicked on sample {index}: {payload}")
            }
        }
    }
}

/// A fan-out's captured panic, so `?` carries it out of a
/// [`rotsv_num::parallel::try_parallel_map`] result.
impl From<WorkerPanic> for SpiceError {
    fn from(p: WorkerPanic) -> Self {
        SpiceError::WorkerPanic {
            index: p.index,
            payload: p.payload,
        }
    }
}

impl Error for SpiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpiceError::SingularSystem { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_analysis() {
        let e = SpiceError::NoConvergence {
            analysis: "transient_stream",
            time: 1e-9,
            iterations: 50,
        };
        let s = e.to_string();
        assert!(s.contains("transient_stream"));
        assert!(s.contains("50"));
    }

    #[test]
    fn worker_panic_names_the_sample() {
        let e = SpiceError::WorkerPanic {
            index: 12,
            payload: "overflow".into(),
        };
        let s = e.to_string();
        assert!(s.contains("sample 12"), "{s}");
        assert!(s.contains("overflow"), "{s}");
    }

    #[test]
    fn singular_reports_source() {
        let e = SpiceError::SingularSystem {
            time: 0.0,
            source: SolveError::Singular { column: 2 },
        };
        assert!(e.source().is_some());
    }
}
