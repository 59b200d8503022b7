#![warn(missing_docs)]

//! A compact analog circuit simulator built on Modified Nodal Analysis.
//!
//! This crate replaces HSPICE in the reproduction of the DATE 2013 paper
//! *"Non-Invasive Pre-Bond TSV Test Using Ring Oscillators and Multiple
//! Voltage Levels"*. It provides exactly what the paper's experiments need:
//!
//! * a [`Circuit`] netlist of resistors, capacitors, independent sources and
//!   arbitrary nonlinear devices (MOSFETs are supplied by `rotsv-mosfet`
//!   through the [`NonlinearDevice`] trait),
//! * a Newton–Raphson **DC operating point** with gmin and source stepping
//!   ([`dcop`]), each solve a one-lane run of the lane engine's Newton
//!   pass held at DC,
//! * **transient analysis** with trapezoidal or backward-Euler integration,
//!   per-step Newton iteration, fixed or local-truncation-error-adaptive
//!   time stepping ([`StepControl`]) and automatic sub-stepping on
//!   convergence trouble ([`transient`]),
//! * one transient stepping loop, the **lane-batched engine** ([`batch`]),
//!   which applies those policies per lane: [`transient_stream`] streams
//!   dies through K SIMD lanes, refilling a retiring lane from an
//!   open-ended source, and [`transient_queue`] is the same session over
//!   a fixed population. A session holds one seat per lane: a die's record
//!   and counters move to the sink when it retires and its circuit is
//!   dropped when its lane refills, so session memory is proportional to
//!   the lanes, not to the dies run. Every ring measurement runs on it,
//!   one lane or many, and [`Circuit::transient`] is a one-lane session
//!   of it for single circuits (all started from given initial voltages).
//!   Its Newton pass, its assembly and its batched LU are the only ones:
//!   the DC operating point and the transient share them,
//! * **waveform post-processing**: threshold crossings, propagation delay
//!   and oscillation-period extraction with sub-step interpolation
//!   ([`waveform`]).
//!
//! # Examples
//!
//! Charge an RC low-pass and compare with the analytic time constant:
//!
//! ```
//! use rotsv_spice::{Circuit, SourceWaveform, TransientSpec};
//!
//! # fn main() -> Result<(), rotsv_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.add_vsource(vin, Circuit::GROUND, SourceWaveform::dc(1.0));
//! ckt.add_resistor(vin, vout, 1e3);
//! ckt.add_capacitor(vout, Circuit::GROUND, 1e-9); // tau = 1 µs
//! let spec = TransientSpec::new(5e-6, 5e-9).record(&[vout]);
//! let result = ckt.transient(&spec)?;
//! let wave = result.waveform(vout);
//! let v_at_tau = wave.value_at(1e-6);
//! assert!((v_at_tau - (1.0 - (-1.0f64).exp())).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod circuit;
pub mod dcop;
pub mod device;
pub mod error;
pub mod mna;
pub mod node;
pub mod source;
pub mod transient;
pub mod waveform;

pub use batch::{transient_queue, transient_stream};
pub use circuit::{Circuit, VSourceId};
pub use dcop::{DcOpSpec, DcSolution};
pub use device::{BatchedDeviceEval, DeviceStamp, NonlinearDevice};
pub use error::SpiceError;
pub use node::NodeId;
pub use rotsv_num::sparse::{AnalyzeOptions, OrderingStrategy, Scaling, SolverStats};
pub use source::SourceWaveform;
pub use transient::{
    AdaptiveControl, IntegrationMethod, StepControl, StopCondition, TransientResult, TransientSpec,
};
pub use waveform::{Edge, PeriodMeasurement, Waveform};
