//! The interface between the simulator and nonlinear devices.
//!
//! The simulator knows nothing about transistors; compact models (such as
//! the EKV-style MOSFET in `rotsv-mosfet`) implement [`NonlinearDevice`]
//! and are stamped through their Norton linearization on every Newton
//! iteration.

use rotsv_num::matrix::Matrix;

use crate::node::NodeId;

/// Linearization of a nonlinear device at a trial voltage point.
///
/// Terminal ordering follows [`NonlinearDevice::nodes`]. `current[k]` is the
/// current flowing *from node k into the device*; `jacobian[(k, j)]` is
/// `dI_k / dV_j`.
#[derive(Debug, Clone)]
pub struct DeviceStamp {
    /// Terminal currents at the trial point, amps.
    pub current: Vec<f64>,
    /// Terminal conductance matrix, siemens.
    pub jacobian: Matrix,
}

impl DeviceStamp {
    /// Creates a zeroed stamp for a device with `terminals` terminals.
    pub fn new(terminals: usize) -> Self {
        Self {
            current: vec![0.0; terminals],
            jacobian: Matrix::zeros(terminals, terminals),
        }
    }

    /// Resets the stamp to zero, keeping allocations.
    pub fn clear(&mut self) {
        self.current.fill(0.0);
        self.jacobian.fill_zero();
    }

    /// Number of terminals this stamp covers.
    pub fn terminals(&self) -> usize {
        self.current.len()
    }
}

/// A nonlinear, voltage-controlled multi-terminal device.
///
/// Implementors provide their terminal list once at netlist time and an
/// `eval` that the Newton loop calls with trial terminal voltages.
///
/// Sign convention: positive `current[k]` flows out of node `k` into the
/// device. A device must be *charge-free* here — capacitances are added to
/// the circuit as separate linear [`crate::Circuit::add_capacitor`]
/// elements, which keeps the Jacobian purely resistive and the integration
/// scheme in one place.
pub trait NonlinearDevice: std::fmt::Debug + Send + Sync {
    /// Terminal nodes, in the order used by `eval`.
    fn nodes(&self) -> &[NodeId];

    /// Evaluates terminal currents and the terminal Jacobian at terminal
    /// voltages `v` (volts, same order as [`Self::nodes`]).
    ///
    /// `stamp` arrives zeroed with matching dimensions.
    fn eval(&self, v: &[f64], stamp: &mut DeviceStamp);

    /// Human-readable instance name for diagnostics.
    fn name(&self) -> &str {
        "device"
    }

    /// Downcast hook for the batched engine; `None` (the default) means
    /// the device type opts out of batching and falls back to per-lane
    /// scalar [`Self::eval`] calls.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Builds a structure-of-arrays batched evaluator for this device
    /// slot across `lanes` (one device per die, `self` is lane 0's).
    ///
    /// Called once per device slot when a batched transient is set up.
    /// Returning `None` (the default) keeps the slot on the per-lane
    /// scalar fallback; implementations should also return `None` when
    /// the lanes are not same-typed or differ in a way the SoA kernel
    /// cannot express.
    fn batch_with(&self, lanes: &[&dyn NonlinearDevice]) -> Option<Box<dyn BatchedDeviceEval>> {
        let _ = lanes;
        None
    }
}

/// Lockstep evaluator for one device slot across K lanes of a batched
/// transient, with every buffer lane-interleaved.
///
/// For a device with `t` terminals and `k` lanes:
/// * `v[m*k + lane]` — trial voltage of terminal `m` in `lane`,
/// * `current[m*k + lane]` — terminal current (same sign convention as
///   [`NonlinearDevice::eval`]),
/// * `jacobian[(r*t + c)*k + lane]` — `dI_r / dV_c`.
///
/// Buffers are **not** pre-zeroed: `eval_lanes` must write every entry
/// it owns each call, including exact zeros.
pub trait BatchedDeviceEval: Send {
    /// Evaluates all lanes at the interleaved trial voltages `v`.
    fn eval_lanes(&mut self, v: &[f64], current: &mut [f64], jacobian: &mut [f64]);

    /// The terminal rows that can ever be nonzero: bit `m` covers
    /// `current[m*k + ..]` and Jacobian row `m`. A clear bit promises
    /// that `eval_lanes` writes that row as `+0.0` in every lane at every
    /// trial point, so the batched assembly skips stamping it. Terminals
    /// past bit 63 are always live. The default declares every row live.
    fn live_rows(&self) -> u64 {
        u64::MAX
    }

    /// Re-seats `lane` with `device` (the corresponding slot of a new die
    /// being seated into that lane by the refill scheduler). Returns
    /// `true` when the bank absorbed the device in place; `false` (the
    /// default) tells the caller to rebuild the bank for the new lane
    /// composition instead.
    fn reseat_lane(&mut self, lane: usize, device: &dyn NonlinearDevice) -> bool {
        let _ = (lane, device);
        false
    }
}

#[cfg(test)]
pub(crate) mod test_devices {
    //! Simple devices used by simulator tests.

    use super::*;

    /// An ideal exponential diode `I = Is (exp(V/Vt) − 1)` from `anode` to
    /// `cathode`.
    #[derive(Debug)]
    pub struct Diode {
        pub nodes: [NodeId; 2],
        pub i_sat: f64,
        pub v_t: f64,
    }

    impl NonlinearDevice for Diode {
        fn nodes(&self) -> &[NodeId] {
            &self.nodes
        }

        fn eval(&self, v: &[f64], stamp: &mut DeviceStamp) {
            let vd = (v[0] - v[1]).min(1.5); // junction limiting
            let e = (vd / self.v_t).exp();
            let i = self.i_sat * (e - 1.0);
            let g = self.i_sat / self.v_t * e;
            stamp.current[0] = i;
            stamp.current[1] = -i;
            stamp.jacobian[(0, 0)] = g;
            stamp.jacobian[(0, 1)] = -g;
            stamp.jacobian[(1, 0)] = -g;
            stamp.jacobian[(1, 1)] = g;
        }

        fn name(&self) -> &str {
            "diode"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_dimensions_match_terminal_count() {
        let s = DeviceStamp::new(4);
        assert_eq!(s.terminals(), 4);
        assert_eq!(s.jacobian.rows(), 4);
        assert_eq!(s.jacobian.cols(), 4);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut s = DeviceStamp::new(2);
        s.current[0] = 1.0;
        s.jacobian[(1, 1)] = 2.0;
        s.clear();
        assert_eq!(s.current, vec![0.0, 0.0]);
        assert_eq!(s.jacobian.max_abs(), 0.0);
    }

    #[test]
    fn diode_current_conserves_charge() {
        use test_devices::Diode;
        let d = Diode {
            nodes: [NodeId(1), NodeId(0)],
            i_sat: 1e-14,
            v_t: 0.02585,
        };
        let mut s = DeviceStamp::new(2);
        d.eval(&[0.6, 0.0], &mut s);
        assert!(s.current[0] > 0.0);
        assert_eq!(s.current[0], -s.current[1]);
        // Conductance rows sum to zero (KCL consistency).
        assert!((s.jacobian[(0, 0)] + s.jacobian[(0, 1)]).abs() < 1e-18);
    }
}
