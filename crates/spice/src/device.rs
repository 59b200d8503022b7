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

/// The most elements a block of device slots holds: the batched
/// workspace groups up to [`block_slots`]`(k)` consecutive slots of one
/// bank into a block, so a block fills whole vectors even at one or two
/// lanes.
pub const BLOCK_ELEMENTS: usize = 32;

/// Slots per device block at `k` lanes: as many as fit in
/// [`BLOCK_ELEMENTS`], at least one.
pub fn block_slots(k: usize) -> usize {
    (BLOCK_ELEMENTS / k.max(1)).max(1)
}

/// Element stride of a device block's buffers for `elements` (its
/// slots times the lanes): the smallest of 8, 16 and [`BLOCK_ELEMENTS`]
/// that holds them, so a block is evaluated at one of three fixed
/// counts, each a whole number of the widest vectors; past
/// `BLOCK_ELEMENTS` (one slot of that many lanes or more), `elements`
/// itself.
pub fn block_stride(elements: usize) -> usize {
    if elements > BLOCK_ELEMENTS {
        elements
    } else {
        elements.next_power_of_two().max(8)
    }
}

/// Lockstep evaluator for a run of device slots (consecutive nonlinear
/// devices of one netlist) across K lanes of a batched transient.
///
/// A bank starts as one slot ([`NonlinearDevice::batch_with`]) and may
/// take more ([`Self::push_slot`]). Its buffers interleave the slots'
/// lanes as elements `e = slot*k + lane`, each terminal row `stride`
/// elements long, where `stride = v.len() / t` for a device with `t`
/// terminals and is at least `slots * k`:
/// * `v[m*stride + e]` — trial voltage of terminal `m` of element `e`,
/// * `current[m*stride + e]` — terminal current (same sign convention
///   as [`NonlinearDevice::eval`]),
/// * `jacobian[(r*t + c)*stride + e]` — `dI_r / dV_c`.
///
/// A one-slot bank with `stride = k` is plain lane interleaving. The
/// batched workspace passes [`block_stride`]`(slots * k)`; elements past
/// `slots * k` are padding whose outputs it never reads.
///
/// Buffers are **not** pre-zeroed: `eval_lanes` must write every entry
/// of every slot's elements each call, including exact zeros.
pub trait BatchedDeviceEval: Send {
    /// Evaluates every element at the interleaved trial voltages `v`.
    fn eval_lanes(&mut self, v: &[f64], current: &mut [f64], jacobian: &mut [f64]);

    /// The terminal rows that can ever be nonzero, in every slot: bit `m`
    /// covers `current[m*stride + ..]` and Jacobian row `m`. A clear bit
    /// promises that `eval_lanes` writes that row as `+0.0` for every
    /// element at every trial point, so the batched assembly skips
    /// stamping it. Terminals past bit 63 are always live. The default
    /// declares every row live.
    fn live_rows(&self) -> u64 {
        u64::MAX
    }

    /// Appends one more slot, its K lane devices in lane order, after
    /// the bank's last. Returns `false` (the default) when the bank
    /// cannot hold it: another device type, a different terminal count,
    /// or lanes the kernel cannot express together. A refused push
    /// leaves the bank as it was.
    fn push_slot(&mut self, lanes: &[&dyn NonlinearDevice]) -> bool {
        let _ = lanes;
        false
    }

    /// Re-seats `lane` of `slot` with `device` (the corresponding device
    /// of a new die being seated into that lane by the refill
    /// scheduler). Returns `true` when the bank absorbed the device in
    /// place; `false` (the default) tells the caller to rebuild the bank
    /// for the new lane composition instead.
    fn reseat_lane(&mut self, slot: usize, lane: usize, device: &dyn NonlinearDevice) -> bool {
        let _ = (slot, lane, device);
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
