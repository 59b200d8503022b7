//! Standard-cell delay characterization.
//!
//! A miniature library characterization flow: drive a cell with a step,
//! sweep the output load, and extract propagation delays. This is how
//! the gate strengths used by the ring-oscillator DfT were sanity-checked
//! against the Nangate-like expectations (X4 drives the 59 fF TSV load in
//! tens of picoseconds; X1 gates are a few picoseconds at FO1-ish loads).

use rotsv_mosfet::model::Nominal;
use rotsv_mosfet::tech45::DriveStrength;
use rotsv_spice::{Circuit, Edge, NodeId, SourceWaveform, SpiceError, TransientSpec};

use crate::builder::CellBuilder;

/// Which cell to characterize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CharCell {
    /// Inverter at a drive strength.
    Inverter(DriveStrength),
    /// Two-stage buffer at a drive strength.
    Buffer(DriveStrength),
    /// Tri-state buffer (enabled) at a drive strength.
    TriStateBuffer(DriveStrength),
    /// The skewed receiver buffer of the I/O cell.
    ReceiverBuffer,
}

impl CharCell {
    /// `true` when the cell inverts.
    pub fn inverting(self) -> bool {
        matches!(self, CharCell::Inverter(_))
    }
}

/// One characterization point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPoint {
    /// Output load, farads.
    pub load: f64,
    /// Rising-input propagation delay at V_DD/2, seconds.
    pub tplh_or_tphl: f64,
}

/// Delay table of one cell over a load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayTable {
    /// Characterized cell.
    pub cell: CharCell,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Points in ascending load order.
    pub points: Vec<DelayPoint>,
}

impl DelayTable {
    /// Effective drive resistance estimated from the slope of delay vs
    /// load (Δdelay / ΔC, ohms); needs at least two points.
    ///
    /// # Panics
    ///
    /// Panics if the table has fewer than two points.
    pub fn drive_resistance(&self) -> f64 {
        assert!(self.points.len() >= 2, "need at least two load points");
        let first = self.points.first().expect("non-empty");
        let last = self.points.last().expect("non-empty");
        // Delay ≈ 0.69·R·C for an RC-dominated output.
        (last.tplh_or_tphl - first.tplh_or_tphl) / (0.69 * (last.load - first.load))
    }
}

/// Characterizes `cell` at `vdd` across `loads` (farads, ascending).
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `loads` is empty, `vdd` is not positive, or the cell output
/// fails to switch at some load.
pub fn characterize(cell: CharCell, vdd_v: f64, loads: &[f64]) -> Result<DelayTable, SpiceError> {
    assert!(!loads.is_empty(), "need at least one load point");
    assert!(vdd_v > 0.0 && vdd_v.is_finite(), "vdd must be positive");
    let mut points = Vec::with_capacity(loads.len());
    for &load in loads {
        let delay = single_delay(cell, vdd_v, load)?;
        points.push(DelayPoint {
            load,
            tplh_or_tphl: delay,
        });
    }
    Ok(DelayTable {
        cell,
        vdd: vdd_v,
        points,
    })
}

fn single_delay(cell: CharCell, vdd_v: f64, load: f64) -> Result<f64, SpiceError> {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_vsource(vdd, Circuit::GROUND, SourceWaveform::dc(vdd_v));
    let input: NodeId = ckt.node("in");
    let t_step = 0.2e-9;
    ckt.add_vsource(
        input,
        Circuit::GROUND,
        SourceWaveform::step(0.0, vdd_v, t_step),
    );
    let out = ckt.node("out");
    if load > 0.0 {
        ckt.add_capacitor(out, Circuit::GROUND, load);
    }
    let mut vary = Nominal;
    let mut cells = CellBuilder::new(&mut ckt, vdd, &mut vary);
    match cell {
        CharCell::Inverter(d) => cells.inverter("dut", input, out, d),
        CharCell::Buffer(d) => cells.buffer("dut", input, out, d),
        CharCell::TriStateBuffer(d) => {
            let en = cells.circuit().node("en");
            let en_b = cells.circuit().node("enb");
            cells
                .circuit()
                .add_vsource(en, Circuit::GROUND, SourceWaveform::dc(vdd_v));
            cells
                .circuit()
                .add_vsource(en_b, Circuit::GROUND, SourceWaveform::dc(0.0));
            cells.tri_state_buffer("dut", input, out, en, en_b, d);
        }
        CharCell::ReceiverBuffer => cells.receiver_buffer("dut", input, out),
    }
    let spec = TransientSpec::new(3e-9, 1e-12).record(&[input, out]);
    let res = ckt.transient(&spec)?;
    let w_in = res.waveform(input);
    let w_out = res.waveform(out);
    let out_edge = if cell.inverting() {
        Edge::Falling
    } else {
        Edge::Rising
    };
    Ok(w_in
        .delay_to(
            &w_out,
            0.0,
            vdd_v / 2.0,
            Edge::Rising,
            vdd_v / 2.0,
            out_edge,
        )
        .unwrap_or_else(|| panic!("{cell:?} output did not switch at load {load}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOADS: [f64; 3] = [1e-15, 20e-15, 59e-15];

    #[test]
    fn delay_grows_with_load() {
        let t = characterize(CharCell::Buffer(DriveStrength::X4), 1.1, &LOADS).unwrap();
        assert!(t
            .points
            .windows(2)
            .all(|w| w[1].tplh_or_tphl > w[0].tplh_or_tphl));
    }

    #[test]
    fn stronger_drive_is_faster_into_big_loads() {
        let x1 = characterize(CharCell::Buffer(DriveStrength::X1), 1.1, &[59e-15]).unwrap();
        let x4 = characterize(CharCell::Buffer(DriveStrength::X4), 1.1, &[59e-15]).unwrap();
        assert!(
            x4.points[0].tplh_or_tphl < x1.points[0].tplh_or_tphl,
            "X4 {} !< X1 {}",
            x4.points[0].tplh_or_tphl,
            x1.points[0].tplh_or_tphl
        );
    }

    #[test]
    fn x4_drive_resistance_matches_calibration_target() {
        // The leakage stop threshold calibration relies on the X4 driver
        // presenting roughly 1 kΩ.
        let t = characterize(CharCell::TriStateBuffer(DriveStrength::X4), 1.1, &LOADS).unwrap();
        let r = t.drive_resistance();
        assert!((400.0..3000.0).contains(&r), "X4 tbuf R_drive = {r} Ω");
    }

    #[test]
    fn low_voltage_slows_everything() {
        let nom = characterize(CharCell::Inverter(DriveStrength::X1), 1.1, &[10e-15]).unwrap();
        let low = characterize(CharCell::Inverter(DriveStrength::X1), 0.8, &[10e-15]).unwrap();
        assert!(low.points[0].tplh_or_tphl > 1.5 * nom.points[0].tplh_or_tphl);
    }

    #[test]
    fn receiver_buffer_characterizes() {
        let t = characterize(CharCell::ReceiverBuffer, 1.1, &[1e-15, 10e-15]).unwrap();
        let intrinsic = t.points[0].tplh_or_tphl;
        assert!(intrinsic > 0.0);
        assert!(intrinsic < 100e-12);
    }

    #[test]
    #[should_panic(expected = "at least one load")]
    fn empty_loads_rejected() {
        let _ = characterize(CharCell::Inverter(DriveStrength::X1), 1.1, &[]);
    }
}
