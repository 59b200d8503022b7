//! Lane-batched transient analysis: a die queue streamed through K
//! asynchronous SIMD lanes. This is the simulator's one transient
//! stepping loop; [`Circuit::transient`] is a one-lane session of it.
//! Its Newton pass (assemble, residual, per-lane refresh and masked
//! refactor, solve, per-lane convergence and damping) is the simulator's
//! one Newton core: [`Circuit::dcop`] runs the same pass on one lane held
//! at DC, with capacitors open, sources at their t = 0 values and full
//! Newton.
//!
//! A Monte-Carlo population simulates hundreds of dies that share one
//! netlist and differ only in element *values* (process variation
//! perturbs threshold voltages and geometries, never connectivity).
//! Rather than pay the full per-transient cost per die, this module
//! amortizes everything that depends on topology alone across K lanes:
//!
//! * **one** symbolic LU analysis and pivot order for the whole queue
//!   ([`rotsv_num::sparse::BatchedLu`]),
//! * one stamp-coordinate walk and slot-replay sequence,
//! * structure-of-arrays device evaluation
//!   ([`crate::device::BatchedDeviceEval`]), matrix assembly and LU
//!   sweeps with the lane index as the innermost, branch-free loop,
//!   written against the runtime-dispatched [`rotsv_num::simd`] lane
//!   vectors (AVX-512, AVX2 or the scalar fallback, bit-identical on
//!   each) rather than left to the autovectorizer.
//!
//! Devices are evaluated in blocks: up to
//! [`block_slots`]`(k)` consecutive device slots of one bank share one
//! evaluation call over their `slots·k` elements, so a block fills whole
//! vectors even when one slot's k lanes would not (one- and two-lane
//! sessions are the per-die paths). Each device is then stamped in
//! netlist order from its block's outputs. A slot without a bank, or
//! whose refill the bank refused, falls back to evaluation one lane at a
//! time and is counted in the `batch.per_lane_slots` metric.
//!
//! Assembly touches only entries that can be nonzero, with lane-contiguous
//! loads. The capacitors' Norton companions are kept structure-of-arrays,
//! `geq[cap*k + lane]` and `ieq[cap*k + lane]`, so one capacitor's K
//! lanes stamp as vectors. A device bank declares which terminal rows
//! can ever be nonzero ([`BatchedDeviceEval::live_rows`]; a MOSFET's
//! gate and bulk rows are always `+0.0`), and assembly steps past the
//! slots of the others. Skipping them changes no bit: each
//! skipped add was `±0.0` into a sum restarted at `+0.0`, which under
//! round-to-nearest is never `−0.0`, so the add was an exact no-op.
//!
//! Unlike the v1 lockstep engine (which marched all lanes on one shared
//! time grid, `dt = min` over lane proposals), lanes here are
//! **asynchronous**: the lockstep unit is one Newton *iteration*, not one
//! time step. Every lane carries its own clock, step size, Newton state,
//! integration history and factorization-staleness budget, and applies
//! the stepping policies to that lane alone: the Newton delta form,
//! damping and stall/staleness refresh of [`crate::mna`], and the LTE
//! test and step bounds of [`crate::transient`]. Each super-iteration
//! assembles all lanes at their own `(x, t)` trial points, performs one
//! vectorized residual + solve, and retires/advances lanes
//! individually. Because every per-lane decision depends only on that
//! lane's values, **a die's trajectory is
//! bit-identical regardless of lane count, lane index, or which dies ride
//! alongside it** — the property the refill scheduler and the
//! chunked-vs-streamed cross-checks rely on.
//!
//! **Refill:** [`transient_stream`], the engine's one driver, seats the
//! first K dies into the K lanes; whenever a lane finishes (its stop
//! condition fires or it reaches `t_stop`), the die's result goes to the
//! sink and the next die is seated into that lane *mid-flight* — state,
//! element values, device-bank parameters and factorization flags are
//! re-seeded from the incoming die — so lanes never idle while work
//! remains. [`transient_queue`] is the same session over a slice.
//! In sessions of more than one lane, occupancy is observed per
//! super-iteration in the `mc.batch_occupancy` histogram, and the
//! `mc.dt_drag` histogram records, per accepted lane-step, the ratio of
//! the lane's accepted `dt` to the smallest `dt` among co-resident busy
//! lanes — the slow-lane drag a lockstep grid would have imposed (the
//! asynchronous engine grants every proposal, so this is the drag it
//! *eliminates*; cohort scheduling in `rotsv-core` shrinks it further by
//! co-seating dies of similar variation magnitude).
//!
//! **Seats:** the engine holds one seat per lane, never a per-die table.
//! A seat holds its die's circuit handle, the die's index as the sink
//! sees it, and the waveform recorded so far; the workspace's per-lane
//! counters belong to the same die. Every counter is charged to the die
//! in the lane that caused it, a symbolic analysis included (to the lane
//! whose values probed or broke the pivot order), so a stream's dies sum
//! to its totals. A retiring die's record and counters move to the sink.
//! Its circuit stays seated until the lane refills or the session ends,
//! because idle lanes are still stamped at their frozen state and a
//! device-bank rebuild reads every seated circuit. A session's memory is
//! thus proportional to its lanes, not to the dies it has run.
//!
//! The only shared numerical object is the symbolic pivot order. In the
//! pathological case where a lane's values defeat it, the re-analysis
//! replaces the order for every lane ([`BatchedLu::refactor_masked`]
//! reports this) and co-resident lanes get freshly factored — their
//! Newton iterations remain correct (the delta formulation tolerates any
//! factorization) but their trajectories may then differ from a solo run.
//! This never happens on the workloads in this repository.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rotsv_num::linsolve::SolveError;
use rotsv_num::simd::{self, LaneCount, LaneKernel, Simd};
use rotsv_num::sparse::{
    AnalyzeOptions, BatchedLu, SolverStats, SparseMatrix, SymbolicCache, SymbolicLu,
};

use crate::circuit::{Circuit, Element};
use crate::device::{
    block_slots, block_stride, BatchedDeviceEval, DeviceStamp, NonlinearDevice, BLOCK_ELEMENTS,
};
use crate::error::SpiceError;
use crate::mna::{row_of, stamp_coords, NewtonOpts, STALL_RATIO};
use crate::node::NodeId;
use crate::source::SourceWaveform;
use crate::transient::{
    IntegrationMethod, StepControl, StopCondition, TransientResult, TransientSpec,
};

/// Per-element data precomputed at batch construction so `assemble`
/// never re-matches enum variants per lane.
enum BatchElem {
    /// Per-lane conductances.
    Resistor { a: NodeId, b: NodeId, g: Vec<f64> },
    /// Values arrive per step through the companion array.
    Capacitor { a: NodeId, b: NodeId },
    /// Per-lane waveforms (lanes may drive different VDD levels).
    VSource {
        pos: NodeId,
        neg: NodeId,
        branch: usize,
        waves: Vec<SourceWaveform>,
    },
    ISource {
        from: NodeId,
        to: NodeId,
        waves: Vec<SourceWaveform>,
    },
    /// Index into the device table.
    Device(usize),
}

/// How a block of device slots evaluates its K lanes.
enum BlockKind {
    /// Structure-of-arrays lockstep kernel over the block's slots.
    Bank(Box<dyn BatchedDeviceEval>),
    /// Per-lane scalar fallback through [`NonlinearDevice::eval`] for a
    /// one-slot block, with its stamp and terminal-voltage scratch kept
    /// across iterations.
    PerLane { stamp: DeviceStamp, v: Vec<f64> },
}

impl BlockKind {
    /// The bank's [`BatchedDeviceEval::live_rows`]; the per-lane fallback
    /// knows nothing of its device, so every row is live.
    fn live_rows(&self) -> u64 {
        match self {
            BlockKind::Bank(bank) => bank.live_rows(),
            BlockKind::PerLane { .. } => u64::MAX,
        }
    }
}

/// Is terminal row `m` live under a [`BatchedDeviceEval::live_rows`]
/// mask?
#[inline]
fn row_live(mask: u64, m: usize) -> bool {
    m >= 64 || (mask >> m) & 1 == 1
}

/// One nonlinear-device slot: its terminals and its netlist element.
struct BatchDevice {
    nodes: Vec<NodeId>,
    elem: usize,
}

/// A run of consecutive device slots `first..first + slots` evaluated by
/// one call. Its buffers interleave the slots' lanes as elements
/// `slot·k + lane`, each terminal row `stride` elements long (layout as
/// in [`BatchedDeviceEval`]).
struct DeviceBlock {
    first: usize,
    slots: usize,
    /// [`block_stride`]`(slots·k)`.
    stride: usize,
    kind: BlockKind,
}

impl DeviceBlock {
    /// Evaluates every element at the gathered terminal voltages `v`
    /// into `current` and `jacobian`, all of the block's stride. The
    /// per-lane fallback evaluates the device of the circuit seated in
    /// each lane.
    fn eval(
        &mut self,
        seated: &dyn LaneCircuits,
        devices: &[BatchDevice],
        k: usize,
        v: &[f64],
        current: &mut [f64],
        jacobian: &mut [f64],
    ) {
        let stride = self.stride;
        match &mut self.kind {
            BlockKind::Bank(bank) => bank.eval_lanes(v, current, jacobian),
            BlockKind::PerLane { stamp, v: lane_v } => {
                let dev = &devices[self.first];
                let nt = dev.nodes.len();
                for lane in 0..k {
                    let Element::Nonlinear(d) = &seated.circuit(lane).elements[dev.elem] else {
                        unreachable!("validated topology");
                    };
                    for (ti, vt) in lane_v.iter_mut().enumerate() {
                        *vt = v[ti * stride + lane];
                    }
                    stamp.clear();
                    d.eval(lane_v, stamp);
                    for ti in 0..nt {
                        current[ti * stride + lane] = stamp.current[ti];
                        for tj in 0..nt {
                            jacobian[(ti * nt + tj) * stride + lane] = stamp.jacobian[(ti, tj)];
                        }
                    }
                }
            }
        }
    }
}

/// The devices of slot `elem` in every lane, lane 0 first.
fn lane_devices(seated: &dyn LaneCircuits, k: usize, elem: usize) -> Vec<&dyn NonlinearDevice> {
    (0..k)
        .map(|lane| match &seated.circuit(lane).elements[elem] {
            Element::Nonlinear(d) => d.as_ref(),
            _ => unreachable!("validated topology"),
        })
        .collect()
}

/// Groups the device slots `range` into blocks: a slot whose device type
/// has a bank starts one (`batch_with`) and the following slots join it
/// (`push_slot`) up to [`block_slots`]`(k)`; a slot without a bank is a
/// one-slot per-lane block. Each per-lane slot adds one to the
/// `batch.per_lane_slots` counter, the witness that a session fell off
/// the block path.
fn build_blocks(
    devices: &[BatchDevice],
    k: usize,
    seated: &dyn LaneCircuits,
    range: std::ops::Range<usize>,
) -> Vec<DeviceBlock> {
    let mut blocks = Vec::new();
    let mut di = range.start;
    while di < range.end {
        let lanes = lane_devices(seated, k, devices[di].elem);
        let nt = devices[di].nodes.len();
        let Some(mut bank) = lanes[0].batch_with(&lanes) else {
            if rotsv_obs::metrics_enabled() {
                rotsv_obs::counter("batch.per_lane_slots").add(1);
            }
            blocks.push(DeviceBlock {
                first: di,
                slots: 1,
                stride: block_stride(k),
                kind: BlockKind::PerLane {
                    stamp: DeviceStamp::new(nt),
                    v: vec![0.0; nt],
                },
            });
            di += 1;
            continue;
        };
        let first = di;
        di += 1;
        while di < range.end
            && di - first < block_slots(k)
            && devices[di].nodes.len() == nt
            && bank.push_slot(&lane_devices(seated, k, devices[di].elem))
        {
            di += 1;
        }
        blocks.push(DeviceBlock {
            first,
            slots: di - first,
            stride: block_stride((di - first) * k),
            kind: BlockKind::Bank(bank),
        });
    }
    blocks
}

/// The Norton companions `(geq, ieq)` of every capacitor at each lane's
/// current trial step, structure-of-arrays: `geq[cap*k + lane]` and
/// `ieq[cap*k + lane]`. One capacitor's K lanes are contiguous in each
/// array, so assembly stamps `geq` and updates both right-hand-side rows
/// with plain lane-vector loads.
struct Companions {
    geq: Vec<f64>,
    ieq: Vec<f64>,
}

/// Reusable assembly/factorization workspace for a K-lane batch.
struct BatchWorkspace {
    k: usize,
    n: usize,
    n_node_unknowns: usize,
    gmin: f64,
    /// Shared sparsity pattern (values unused except as analysis probe).
    pattern: SparseMatrix,
    /// `nnz * k` lane-interleaved matrix values.
    values: Vec<f64>,
    /// `n * k` lane-interleaved right-hand side.
    b: Vec<f64>,
    /// CSR value-slot replay sequence, identical to the DC assembly's.
    slots: Vec<usize>,
    elems: Vec<BatchElem>,
    /// Every nonlinear-device slot, in netlist order.
    devices: Vec<BatchDevice>,
    /// The device slots grouped into blocks, in netlist order.
    blocks: Vec<DeviceBlock>,
    /// Scratch of the block being stamped, shared by every block (each
    /// is evaluated, then its devices stamped, before the next), sized
    /// for the widest block stride: `terminals * stride` trial voltages,
    /// `terminals * stride` terminal currents and `terminals² * stride`
    /// Jacobian entries `[(r*t + c)*stride + slot*k + lane]`.
    vbuf: Vec<f64>,
    cbuf: Vec<f64>,
    jbuf: Vec<f64>,
    lu: Option<BatchedLu>,
    cache: Option<Arc<SymbolicCache>>,
    /// Analysis options shared by every lane (inherited from the circuit
    /// first seated in lane 0).
    opts: AnalyzeOptions,
    /// Per-lane: are the stored LU factors usable?
    lu_valid: Vec<bool>,
    /// Per-lane: has the lane ever been factored (gates the
    /// skip-if-unchanged comparison against `last_factored`)?
    factored_once: Vec<bool>,
    /// `nnz * k` values at each lane's last factorization.
    last_factored: Vec<f64>,
    /// `k` scratch for the masked-refactor lane set.
    refactor_mask: Vec<bool>,
    /// `n * k` residual scratch.
    resid: Vec<f64>,
    /// `n * k` Newton update scratch.
    delta: Vec<f64>,
    /// `k` residual norms of the current pass.
    rnorm: Vec<f64>,
    /// `k` lanes whose refresh policy fired this pass.
    want: Vec<bool>,
    /// The Newton rule every lane follows.
    newton_opts: NewtonOpts,
    /// Per-lane progress in the current Newton solve.
    newton: Vec<NewtonLane>,
    /// Per-lane work counters of the die seated in each lane, moved out
    /// with its record when it retires.
    stats: Vec<SolverStats>,
    /// Engine-session id tagging this workspace's lane events
    /// ([`rotsv_obs::lane_operand`]).
    session: u32,
}

/// The circuit seated in each lane, read by the per-lane device
/// fallback and by a device-bank rebuild. The engine implements it over
/// its seats, which keeps the workspace independent of the circuit
/// handle type.
trait LaneCircuits {
    /// The circuit seated in `lane`.
    fn circuit(&self, lane: usize) -> &Circuit;
}

impl LaneCircuits for &[&Circuit] {
    fn circuit(&self, lane: usize) -> &Circuit {
        self[lane]
    }
}

/// Checks that every die has the topology of die 0: same nodes, same
/// element sequence (kinds, terminals, branches), same gmin. Values
/// (resistances, capacitances, waveforms, device parameters) may differ.
fn validate_topology(ckts: &[&Circuit]) -> Result<(), SpiceError> {
    let c0 = ckts[0];
    for (lane, c) in ckts.iter().enumerate().skip(1) {
        let mismatch = |what: &str| {
            Err(SpiceError::InvalidCircuit(format!(
                "batch lane {lane} differs from lane 0 in {what}"
            )))
        };
        if c.node_count() != c0.node_count() {
            return mismatch("node count");
        }
        if c.vsource_count() != c0.vsource_count() {
            return mismatch("voltage-source count");
        }
        if c.element_count() != c0.element_count() {
            return mismatch("element count");
        }
        if c.gmin() != c0.gmin() {
            return mismatch("gmin");
        }
        for (ei, (e0, e)) in c0.elements.iter().zip(&c.elements).enumerate() {
            let same = match (e0, e) {
                (Element::Resistor { a, b, .. }, Element::Resistor { a: a2, b: b2, .. }) => {
                    a == a2 && b == b2
                }
                (Element::Capacitor { a, b, .. }, Element::Capacitor { a: a2, b: b2, .. }) => {
                    a == a2 && b == b2
                }
                (
                    Element::VSource {
                        pos, neg, branch, ..
                    },
                    Element::VSource {
                        pos: p2,
                        neg: n2,
                        branch: b2,
                        ..
                    },
                ) => pos == p2 && neg == n2 && branch == b2,
                (
                    Element::ISource { from, to, .. },
                    Element::ISource {
                        from: f2, to: t2, ..
                    },
                ) => from == f2 && to == t2,
                (Element::Nonlinear(d0), Element::Nonlinear(d)) => d0.nodes() == d.nodes(),
                _ => false,
            };
            if !same {
                return mismatch(&format!("element {ei}"));
            }
        }
    }
    Ok(())
}

impl BatchWorkspace {
    /// Builds a workspace with one lane per circuit of `seated`, lane 0
    /// first, whose lanes follow the Newton rule `newton_opts`.
    fn new(seated: &[&Circuit], newton_opts: NewtonOpts) -> Result<Self, SpiceError> {
        validate_topology(seated)?;
        let k = seated.len();
        let c0 = seated[0];
        let n = c0.unknown_count();
        let coords = stamp_coords(c0);
        let (pattern, slots) = SparseMatrix::from_coords(n, &coords);

        let mut elems = Vec::with_capacity(c0.elements.len());
        let mut devices = Vec::new();
        for (ei, elem) in c0.elements.iter().enumerate() {
            elems.push(match elem {
                Element::Resistor { a, b, .. } => {
                    let g = seated
                        .iter()
                        .map(|c| match &c.elements[ei] {
                            Element::Resistor { ohms, .. } => 1.0 / ohms,
                            _ => unreachable!("validated topology"),
                        })
                        .collect();
                    BatchElem::Resistor { a: *a, b: *b, g }
                }
                Element::Capacitor { a, b, .. } => BatchElem::Capacitor { a: *a, b: *b },
                Element::VSource {
                    pos, neg, branch, ..
                } => {
                    let waves = seated
                        .iter()
                        .map(|c| match &c.elements[ei] {
                            Element::VSource { wave, .. } => wave.clone(),
                            _ => unreachable!("validated topology"),
                        })
                        .collect();
                    BatchElem::VSource {
                        pos: *pos,
                        neg: *neg,
                        branch: *branch,
                        waves,
                    }
                }
                Element::ISource { from, to, .. } => {
                    let waves = seated
                        .iter()
                        .map(|c| match &c.elements[ei] {
                            Element::ISource { wave, .. } => wave.clone(),
                            _ => unreachable!("validated topology"),
                        })
                        .collect();
                    BatchElem::ISource {
                        from: *from,
                        to: *to,
                        waves,
                    }
                }
                Element::Nonlinear(d0) => {
                    devices.push(BatchDevice {
                        nodes: d0.nodes().to_vec(),
                        elem: ei,
                    });
                    BatchElem::Device(devices.len() - 1)
                }
            });
        }

        let blocks = build_blocks(&devices, k, &seated, 0..devices.len());
        let nt = devices.iter().map(|d| d.nodes.len()).max().unwrap_or(0);
        let stride = block_stride(block_slots(k) * k);
        Ok(Self {
            k,
            n,
            n_node_unknowns: c0.node_count() - 1,
            gmin: c0.gmin(),
            values: vec![0.0; pattern.nnz() * k],
            b: vec![0.0; n * k],
            last_factored: vec![0.0; pattern.nnz() * k],
            pattern,
            slots,
            elems,
            devices,
            blocks,
            vbuf: vec![0.0; nt * stride],
            cbuf: vec![0.0; nt * stride],
            jbuf: vec![0.0; nt * nt * stride],
            lu: None,
            cache: c0.symbolic_cache().cloned(),
            opts: c0.solver_options(),
            lu_valid: vec![false; k],
            factored_once: vec![false; k],
            refactor_mask: vec![false; k],
            resid: vec![0.0; n * k],
            delta: vec![0.0; n * k],
            rnorm: vec![0.0; k],
            want: vec![false; k],
            newton_opts,
            newton: vec![NewtonLane::SEATED; k],
            stats: vec![SolverStats::default(); k],
            session: rotsv_obs::next_session(),
        })
    }

    /// Re-seats `lane` from the circuit now seated there: re-extracts the
    /// lane's element values (conductances, waveforms), re-seats or
    /// rebuilds the device banks, invalidates the lane's stored LU
    /// factors and zeroes its Newton progress and counters. The caller
    /// re-seeds the dynamic state (`x`, capacitor history, lane clock).
    fn reseat_lane(&mut self, seated: &dyn LaneCircuits, lane: usize) {
        self.lu_valid[lane] = false;
        self.factored_once[lane] = false;
        self.newton[lane] = NewtonLane::SEATED;
        self.stats[lane] = SolverStats::default();
        let c = seated.circuit(lane);
        for (ei, elem) in self.elems.iter_mut().enumerate() {
            match elem {
                BatchElem::Resistor { g, .. } => {
                    let Element::Resistor { ohms, .. } = &c.elements[ei] else {
                        unreachable!("validated topology");
                    };
                    g[lane] = 1.0 / ohms;
                }
                BatchElem::Capacitor { .. } => {}
                BatchElem::VSource { waves, .. } => {
                    let Element::VSource { wave, .. } = &c.elements[ei] else {
                        unreachable!("validated topology");
                    };
                    waves[lane] = wave.clone();
                }
                BatchElem::ISource { waves, .. } => {
                    let Element::ISource { wave, .. } = &c.elements[ei] else {
                        unreachable!("validated topology");
                    };
                    waves[lane] = wave.clone();
                }
                BatchElem::Device(_) => {}
            }
        }
        // O(1) in-place re-seat where every slot of a bank accepts the
        // incoming device (uniform shared parameters); otherwise the
        // block is rebuilt for the new lane composition. A per-lane block
        // reads the seated circuit at evaluation time: nothing to update.
        let mut bi = 0;
        while bi < self.blocks.len() {
            let blk = &mut self.blocks[bi];
            let refused = match &mut blk.kind {
                BlockKind::Bank(bank) => (0..blk.slots).any(|slot| {
                    let Element::Nonlinear(d) = &c.elements[self.devices[blk.first + slot].elem]
                    else {
                        unreachable!("validated topology");
                    };
                    !bank.reseat_lane(slot, lane, d.as_ref())
                }),
                BlockKind::PerLane { .. } => false,
            };
            if refused {
                let range = blk.first..blk.first + blk.slots;
                let rebuilt = build_blocks(&self.devices, self.k, seated, range);
                let n = rebuilt.len();
                self.blocks.splice(bi..=bi, rebuilt);
                bi += n;
            } else {
                bi += 1;
            }
        }
    }

    /// Holds every lane's independent sources at `alpha` times their
    /// t = 0 values (the DC operating point's source stepping).
    fn hold_sources(&mut self, seated: &dyn LaneCircuits, alpha: f64) {
        for lane in 0..self.k {
            for (elem, e) in self.elems.iter_mut().zip(&seated.circuit(lane).elements) {
                if let (
                    BatchElem::VSource { waves, .. } | BatchElem::ISource { waves, .. },
                    Element::VSource { wave, .. } | Element::ISource { wave, .. },
                ) = (elem, e)
                {
                    waves[lane] = SourceWaveform::dc(alpha * wave.value(0.0));
                }
            }
        }
    }

    /// Assembles all lanes at the interleaved iterate `x`, per-lane times
    /// `t[lane]`, with each capacitor's Norton companion read from
    /// `companions` (all zero at DC, where capacitors are open). Idle
    /// lanes are stamped at their frozen state — their values stay finite
    /// and are never solved or factored.
    fn assemble(
        &mut self,
        seated: &dyn LaneCircuits,
        x: &[f64],
        t: &[f64],
        companions: &Companions,
    ) {
        let k = self.k;
        simd::dispatch(
            k,
            Assemble {
                ws: self,
                seated,
                x,
                t,
                companions,
            },
        );
    }

    /// The assembly sweep, generic over the lane count and the ISA
    /// token. Each lane is evaluated at its own time `t[lane]` (lanes
    /// step asynchronously); waveform evaluation stays scalar
    /// (call-bearing), the value/rhs lane loops, the capacitor
    /// companions' included, run in `k / S::W` vector chunks.
    ///
    /// # Safety
    ///
    /// The [`LaneKernel::run`] contract, with `n.get() == self.k`.
    #[inline(always)]
    unsafe fn assemble_body<N: LaneCount, S: Simd>(
        &mut self,
        n: N,
        seated: &dyn LaneCircuits,
        x: &[f64],
        t: &[f64],
        companions: &Companions,
    ) {
        let k = n.get();
        debug_assert_eq!(self.k, k);
        debug_assert_eq!(k % S::W, 0);
        self.values.fill(0.0);
        self.b.fill(0.0);
        let mut cursor = 0usize;
        // SAFETY (lane chunks throughout): every `slot * k` / `row * k`
        // group is k f64s inside `self.values` / `self.b`, sized at
        // construction; chunks are W-aligned within a group.
        unsafe {
            let gmin = S::splat(self.gmin);
            for _ in 0..self.n_node_unknowns {
                let slot = self.slots[cursor];
                let dst = self.values.as_mut_ptr().add(slot * k);
                for c in (0..k).step_by(S::W) {
                    S::st(dst.add(c), S::add(S::ld(dst.add(c)), gmin));
                }
                cursor += 1;
            }
        }
        let mut cap_idx = 0usize;
        // The block whose outputs are in the scratch, and the next one.
        let (mut block, mut next_block) = (0usize, 0usize);
        // Move the element list out so `self` stays borrowable.
        let elems = std::mem::take(&mut self.elems);
        for elem in &elems {
            match elem {
                BatchElem::Resistor { a, b, g } => {
                    // SAFETY: propagated from the caller.
                    cursor = unsafe { self.stamp_conductance_body::<N, S>(n, cursor, *a, *b, g) };
                }
                BatchElem::Capacitor { a, b } => {
                    let lanes = cap_idx * k..(cap_idx + 1) * k;
                    let geq = &companions.geq[lanes.clone()];
                    let ip = companions.ieq[lanes].as_ptr();
                    // SAFETY: propagated from the caller; `ip` points at
                    // this capacitor's k contiguous `ieq` lanes.
                    unsafe {
                        cursor = self.stamp_conductance_body::<N, S>(n, cursor, *a, *b, geq);
                        if let Some(ra) = row_of(*a) {
                            let dst = self.b.as_mut_ptr().add(ra * k);
                            for c in (0..k).step_by(S::W) {
                                S::st(dst.add(c), S::sub(S::ld(dst.add(c)), S::ld(ip.add(c))));
                            }
                        }
                        if let Some(rb) = row_of(*b) {
                            let dst = self.b.as_mut_ptr().add(rb * k);
                            for c in (0..k).step_by(S::W) {
                                S::st(dst.add(c), S::add(S::ld(dst.add(c)), S::ld(ip.add(c))));
                            }
                        }
                    }
                    cap_idx += 1;
                }
                BatchElem::VSource {
                    pos,
                    neg,
                    branch,
                    waves,
                } => {
                    let rb = self.n_node_unknowns + branch;
                    // SAFETY: see the lane-chunk note above.
                    unsafe {
                        let one = S::splat(1.0);
                        if row_of(*pos).is_some() {
                            for s in [self.slots[cursor], self.slots[cursor + 1]] {
                                let dst = self.values.as_mut_ptr().add(s * k);
                                for c in (0..k).step_by(S::W) {
                                    S::st(dst.add(c), S::add(S::ld(dst.add(c)), one));
                                }
                            }
                            cursor += 2;
                        }
                        if row_of(*neg).is_some() {
                            for s in [self.slots[cursor], self.slots[cursor + 1]] {
                                let dst = self.values.as_mut_ptr().add(s * k);
                                for c in (0..k).step_by(S::W) {
                                    S::st(dst.add(c), S::sub(S::ld(dst.add(c)), one));
                                }
                            }
                            cursor += 2;
                        }
                    }
                    for (lane, wave) in waves.iter().enumerate() {
                        self.b[rb * k + lane] = wave.value(t[lane]);
                    }
                }
                BatchElem::ISource { from, to, waves } => {
                    for (lane, wave) in waves.iter().enumerate() {
                        let i = wave.value(t[lane]);
                        if let Some(rf) = row_of(*from) {
                            self.b[rf * k + lane] -= i;
                        }
                        if let Some(rt) = row_of(*to) {
                            self.b[rt * k + lane] += i;
                        }
                    }
                }
                BatchElem::Device(di) => {
                    // A block is evaluated when its first slot comes up,
                    // then its devices stamp one by one in netlist order.
                    if self.blocks.get(next_block).is_some_and(|b| b.first == *di) {
                        block = next_block;
                        next_block += 1;
                        self.eval_block(n, seated, block, x);
                    }
                    let blk = &self.blocks[block];
                    let out = BlockOut {
                        stride: blk.stride,
                        at: (*di - blk.first) * k,
                        live: blk.kind.live_rows(),
                    };
                    // SAFETY: propagated from the caller.
                    cursor = unsafe { self.stamp_device_body::<N, S>(n, *di, out, cursor) };
                }
            }
        }
        self.elems = elems;
        debug_assert_eq!(cursor, self.slots.len(), "stamp replay out of sync");
    }

    /// Stamps a two-terminal conductance (per-lane values `g`) in the
    /// [`stamp_coords`] slot order, vector-chunked; returns the advanced
    /// cursor.
    ///
    /// # Safety
    ///
    /// Same contract as [`BatchWorkspace::assemble_body`].
    #[inline(always)]
    unsafe fn stamp_conductance_body<N: LaneCount, S: Simd>(
        &mut self,
        n: N,
        mut cursor: usize,
        a: NodeId,
        b: NodeId,
        g: &[f64],
    ) -> usize {
        let k = n.get();
        let g = &g[..k];
        let gp = g.as_ptr();
        // SAFETY: see the lane-chunk note in `assemble_body`.
        unsafe {
            match (row_of(a), row_of(b)) {
                (Some(_), Some(_)) => {
                    for (off, sign) in [(0, 1.0), (1, 1.0), (2, -1.0), (3, -1.0)] {
                        let sv = S::splat(sign);
                        let dst = self.values.as_mut_ptr().add(self.slots[cursor + off] * k);
                        for c in (0..k).step_by(S::W) {
                            let add = S::mul(sv, S::ld(gp.add(c)));
                            S::st(dst.add(c), S::add(S::ld(dst.add(c)), add));
                        }
                    }
                    cursor += 4;
                }
                (Some(_), None) | (None, Some(_)) => {
                    let dst = self.values.as_mut_ptr().add(self.slots[cursor] * k);
                    for c in (0..k).step_by(S::W) {
                        S::st(dst.add(c), S::add(S::ld(dst.add(c)), S::ld(gp.add(c))));
                    }
                    cursor += 1;
                }
                (None, None) => {}
            }
        }
        cursor
    }

    /// Gathers block `bi`'s terminal voltages from the interleaved
    /// iterate `x` into the block scratch (element `slot·k + lane` at
    /// the block stride) and evaluates the block there.
    fn eval_block<N: LaneCount>(&mut self, n: N, seated: &dyn LaneCircuits, bi: usize, x: &[f64]) {
        let k = n.get();
        let blk = &mut self.blocks[bi];
        let stride = blk.stride;
        let nt = self.devices[blk.first].nodes.len();
        let vbuf = &mut self.vbuf[..nt * stride];
        for (slot, dev) in self.devices[blk.first..blk.first + blk.slots]
            .iter()
            .enumerate()
        {
            for (ti, &node) in dev.nodes.iter().enumerate() {
                let dst = &mut vbuf[ti * stride + slot * k..][..k];
                match row_of(node) {
                    Some(r) => dst.copy_from_slice(&x[r * k..(r + 1) * k]),
                    None => dst.fill(0.0),
                }
            }
        }
        blk.eval(
            seated,
            &self.devices,
            k,
            vbuf,
            &mut self.cbuf[..nt * stride],
            &mut self.jbuf[..nt * nt * stride],
        );
    }

    /// Stamps device slot `dev_idx` across all lanes from its evaluated
    /// block's outputs `out` in the scratch: Norton-accumulate (G on the
    /// LHS, `G·v0 − I0` on the RHS) with the per-terminal right-hand side
    /// held in a vector register per chunk, `tj` ascending per lane.
    ///
    /// Rows the device declares dead (`out.live`, its bank's
    /// [`BatchedDeviceEval::live_rows`]) are skipped: the cursor steps
    /// past their slots instead. This is exact, not an approximation. A
    /// dead row's current and Jacobian entries are `+0.0` and the trial
    /// voltages are finite (a non-finite Newton update fails the lane's
    /// step before it is applied), so its stamp would add `±0.0` to
    /// `values` and `b`. Every entry those adds reach, a `values` slot or
    /// a node row of `b`, is a sum restarted at `+0.0` this assembly, and
    /// under round-to-nearest such a sum is never `−0.0` (only
    /// `−0.0 + −0.0` is), so each skipped add would have left its bits as
    /// they were. The sparsity pattern, the slot replay and every add
    /// that reaches a nonzero entry stay as they were.
    ///
    /// # Safety
    ///
    /// Same contract as [`BatchWorkspace::assemble_body`].
    #[inline(always)]
    unsafe fn stamp_device_body<N: LaneCount, S: Simd>(
        &mut self,
        n: N,
        dev_idx: usize,
        out: BlockOut,
        mut cursor: usize,
    ) -> usize {
        let k = n.get();
        let BlockOut { stride, at, live } = out;
        // From 32 lanes on a block is one slot at stride k: say so with
        // the (often constant) k, which keeps that stamp's addressing
        // what it was before blocks.
        let stride = if k >= BLOCK_ELEMENTS { k } else { stride };
        debug_assert_eq!(stride, out.stride);
        let dev = &self.devices[dev_idx];
        let nt = dev.nodes.len();
        let row_slots = dev
            .nodes
            .iter()
            .filter(|&&node| row_of(node).is_some())
            .count();
        // SAFETY: this slot's k elements start at `at ≤ stride - k` in
        // every row of the scratch.
        let (cbp, jbp, vbp) = unsafe {
            (
                self.cbuf.as_ptr().add(at),
                self.jbuf.as_ptr().add(at),
                self.vbuf.as_ptr().add(at),
            )
        };
        let vp = self.values.as_mut_ptr();
        let bp = self.b.as_mut_ptr();
        for (ti, &nk_node) in dev.nodes.iter().enumerate() {
            let Some(rk) = row_of(nk_node) else { continue };
            if !row_live(live, ti) {
                cursor += row_slots;
                continue;
            }
            // Each chunk replays the `tj` sweep with its own cursor so
            // every (ti, tj) slot is stamped exactly once per chunk.
            let cursor_ti = cursor;
            // SAFETY: see the lane-chunk note in `assemble_body`; cbuf /
            // jbuf / vbuf hold nt·stride / nt²·stride / nt·stride f64s
            // and their pointers above start at this slot's elements.
            unsafe {
                for c in (0..k).step_by(S::W) {
                    let mut cur = cursor_ti;
                    let mut rhs = S::neg(S::ld(cbp.add(ti * stride + c)));
                    for (tj, &nj_node) in dev.nodes.iter().enumerate() {
                        let jrow = S::ld(jbp.add((ti * nt + tj) * stride + c));
                        rhs = S::add(rhs, S::mul(jrow, S::ld(vbp.add(tj * stride + c))));
                        if row_of(nj_node).is_some() {
                            let slot = self.slots[cur];
                            cur += 1;
                            let dst = vp.add(slot * k + c);
                            S::st(dst, S::add(S::ld(dst), jrow));
                        }
                    }
                    let dst = bp.add(rk * k + c);
                    S::st(dst, S::add(S::ld(dst), rhs));
                    cursor = cur;
                }
            }
        }
        cursor
    }

    /// The first lane of the current refactor mask (lane 0 if none).
    fn first_masked_lane(&self) -> usize {
        self.refactor_mask.iter().position(|&m| m).unwrap_or(0)
    }

    /// (Re)factors the lanes whose refresh policy fired (`self.want`),
    /// per-lane: each wanted lane whose values changed since its last
    /// factorization is swept individually (bit-identical to any other
    /// lane composition), unchanged lanes keep their factors
    /// (skip-if-unchanged, applied per lane).
    ///
    /// Counter attribution keeps population sums meaningful: a symbolic
    /// analysis is charged once, to the die in the lane that triggered it
    /// (the first lane factored in that round, whose values probed or
    /// broke the pivot order), so a session performs O(topologies)
    /// analyses, not O(dies); factorizations are charged to the die
    /// seated in each factored lane.
    ///
    /// If pivot drift in a factored lane forces a shared re-analysis,
    /// every other lane's factors die with the old pivot order; the busy
    /// ones are refreshed here from their current assembled values (their
    /// delta-form Newton iterations stay correct with fresh factors).
    // Lane loops deliberately index several parallel arrays by `lane`;
    // the iterator forms clippy suggests obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    fn refactor_lanes(&mut self, t: f64, busy: &[bool]) -> Result<(), SpiceError> {
        let k = self.k;
        let nnz = self.pattern.nnz();
        let map_err = |source| SpiceError::SingularSystem { time: t, source };
        let mut any = false;
        for lane in 0..k {
            let mut need = false;
            if self.want[lane] {
                need = true;
                if self.lu_valid[lane] && self.factored_once[lane] {
                    let unchanged = (0..nnz)
                        .all(|s| self.values[s * k + lane] == self.last_factored[s * k + lane]);
                    if unchanged {
                        need = false;
                    }
                }
            }
            self.refactor_mask[lane] = need;
            any |= need;
        }
        if !any {
            return Ok(());
        }
        if self.lu.is_none() {
            // First factorization: analyze (or fetch from the shared
            // cache) using the first wanted lane's values as the probe.
            // Every lane shares the pattern, so the pivot order transfers;
            // a lane it fails for triggers the masked re-analysis below.
            let probe_lane = self.first_masked_lane();
            let mut probe = self.pattern.clone();
            probe.zero_values();
            for s in 0..nnz {
                probe.add_slot(s, self.values[s * k + probe_lane]);
            }
            let (sym, analyses) = match &self.cache {
                Some(cache) => {
                    let (sym, fresh) = cache
                        .symbolic_for_with(&probe, self.opts)
                        .map_err(map_err)?;
                    (sym, u64::from(fresh))
                }
                None => (
                    Arc::new(SymbolicLu::analyze_with(&probe, self.opts).map_err(map_err)?),
                    1,
                ),
            };
            self.stats[probe_lane].symbolic_analyses += analyses;
            self.lu = Some(BatchedLu::new(sym, k));
        }
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            if rounds > 4 {
                // Two lanes ping-ponging the shared pivot order — no
                // order satisfies the batch.
                return Err(map_err(SolveError::Singular { column: 0 }));
            }
            let lu = self.lu.as_mut().expect("installed above");
            let (analyses, invalidated) = lu
                .refactor_masked(&self.pattern, &self.values, &self.refactor_mask)
                .map_err(map_err)?;
            // Pivot drift forced a shared re-analysis; attribute it to the
            // first lane factored this round (the one whose values broke
            // the old order, or its successor).
            let culprit = self.first_masked_lane();
            self.stats[culprit].symbolic_analyses += analyses;
            if analyses > 0 && rotsv_obs::events_enabled() {
                rotsv_obs::record_event(
                    rotsv_obs::EventKind::Reanalysis,
                    rotsv_obs::lane_operand(self.session, culprit),
                    analyses as u32,
                    0.0,
                );
            }
            for lane in 0..k {
                if !self.refactor_mask[lane] {
                    continue;
                }
                self.stats[lane].factorizations += 1;
                self.lu_valid[lane] = true;
                self.factored_once[lane] = true;
                for s in 0..nnz {
                    self.last_factored[s * k + lane] = self.values[s * k + lane];
                }
            }
            if !invalidated {
                return Ok(());
            }
            // The shared pivot order changed: every unmasked lane's
            // stored factors are gone. Refresh the busy ones now (their
            // assembled values are current); idle lanes are refreshed
            // when a refill re-seats them.
            let mut any2 = false;
            for lane in 0..k {
                let died = !self.refactor_mask[lane];
                if died {
                    self.lu_valid[lane] = false;
                }
                self.refactor_mask[lane] = died && busy[lane];
                any2 |= self.refactor_mask[lane];
            }
            if !any2 {
                return Ok(());
            }
        }
    }

    /// One Newton iteration across the `busy` lanes, the transient's and
    /// the DC operating point's alike: assemble each lane at its own
    /// `(x, t)`, one vectorized residual `r = b − A·x`, the per-lane
    /// refresh policy and masked refactor, one solve, then per-lane
    /// convergence, damping and update of `x`. Each busy lane's
    /// [`NewtonLane::outcome`] says what the pass concluded.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularSystem`] when the refactor fails.
    // Lane loops deliberately index several parallel arrays by `lane`;
    // the iterator forms clippy suggests obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    fn newton_pass(
        &mut self,
        seated: &dyn LaneCircuits,
        x: &mut [f64],
        t: &[f64],
        companions: &Companions,
        busy: &[bool],
        stages: &mut StageTimers,
    ) -> Result<(), SpiceError> {
        let (k, n, n_nodes) = (self.k, self.n, self.n_node_unknowns);
        let opts = self.newton_opts;
        for lane in 0..k {
            if busy[lane] {
                self.stats[lane].newton_iterations += 1;
            }
        }
        stages.lap(Stage::Lanes);
        self.assemble(seated, x, t, companions);
        stages.lap(Stage::Assemble);
        self.pattern
            .mul_vec_lanes_into(&self.values, k, x, &mut self.resid);
        for (ri, bi) in self.resid.iter_mut().zip(&self.b) {
            *ri = *bi - *ri;
        }
        self.rnorm.fill(0.0);
        for i in 0..n {
            for (lane, rn) in self.rnorm.iter_mut().enumerate() {
                *rn = rn.max(self.resid[i * k + lane].abs());
            }
        }
        stages.lap(Stage::Solve);
        // Per-lane refresh policy, applied to each lane's own state.
        for lane in 0..k {
            self.want[lane] = false;
            if !busy[lane] {
                continue;
            }
            let nl = self.newton[lane];
            let stalled = !nl.prev_damped && self.rnorm[lane] > STALL_RATIO * nl.prev_rnorm;
            self.want[lane] = !self.lu_valid[lane]
                || nl.stale_iters >= opts.max_stale
                || stalled
                || nl.prev_damped;
        }
        let t_repr = (0..k).find(|&l| self.want[l]).map_or(0.0, |l| t[l]);
        self.refactor_lanes(t_repr, busy)?;
        for lane in 0..k {
            if busy[lane] {
                if self.want[lane] {
                    self.newton[lane].stale_iters = 0;
                } else {
                    self.newton[lane].stale_iters += 1;
                }
            }
        }
        stages.lap(Stage::Factor);
        self.delta.copy_from_slice(&self.resid);
        self.lu
            .as_mut()
            .expect("factorization exists after refactor")
            .solve_in_place(&mut self.delta);
        for lane in 0..k {
            if busy[lane] {
                self.stats[lane].solves += 1;
                self.newton[lane].prev_rnorm = self.rnorm[lane];
            }
        }
        stages.lap(Stage::Solve);

        // Per-lane convergence, damping and update application.
        let delta = &self.delta;
        for lane in 0..k {
            let nl = &mut self.newton[lane];
            nl.outcome = Outcome::Pending;
            if !busy[lane] {
                continue;
            }
            let mut max_dv = 0.0f64;
            let mut finite = true;
            for i in 0..n {
                let d = delta[i * k + lane];
                finite &= d.is_finite();
                if i < n_nodes {
                    max_dv = max_dv.max(d.abs());
                }
            }
            if !finite {
                nl.outcome = Outcome::Failed;
                continue;
            }
            let mut converged = max_dv <= opts.v_abstol;
            if !converged {
                converged = (0..n_nodes).all(|i| {
                    let d = delta[i * k + lane];
                    d.abs() <= opts.v_abstol + opts.reltol * (x[i * k + lane] + d).abs()
                });
            }
            if converged {
                for i in 0..n {
                    x[i * k + lane] += delta[i * k + lane];
                }
                nl.outcome = Outcome::Converged;
                continue;
            }
            let damped = max_dv > opts.v_step_limit;
            let s = if damped {
                opts.v_step_limit / max_dv
            } else {
                1.0
            };
            for i in 0..n {
                x[i * k + lane] += s * delta[i * k + lane];
            }
            nl.prev_damped = damped;
            nl.iter += 1;
            if nl.iter >= opts.max_iterations {
                nl.outcome = Outcome::Failed;
            }
        }
        Ok(())
    }
}

/// The DC operating point's Newton: one lane of the lane engine with
/// capacitors open (zero companions), the sources held at α times their
/// t = 0 values, the workspace's `gmin` as the homotopy shunt, and full
/// Newton (`max_stale = 0`: DC starts far from the solution, where a
/// stale Jacobian can cycle). Factors and counters carry over from one
/// solve to the next, as the homotopy steps of [`Circuit::dcop`] run.
pub(crate) struct DcNewton<'a> {
    ckt: &'a Circuit,
    ws: BatchWorkspace,
    companions: Companions,
}

impl<'a> DcNewton<'a> {
    /// A DC lane for `ckt` whose solves each get `max_iterations`
    /// Newton iterations.
    pub(crate) fn new(ckt: &'a Circuit, max_iterations: usize) -> Self {
        let opts = NewtonOpts {
            max_iterations,
            max_stale: 0,
            ..NewtonOpts::default()
        };
        let ws = BatchWorkspace::new(&[ckt], opts).expect("one circuit shares its own topology");
        let caps = ckt
            .elements
            .iter()
            .filter(|e| matches!(e, Element::Capacitor { .. }))
            .count();
        Self {
            ckt,
            ws,
            companions: Companions {
                geq: vec![0.0; caps],
                ieq: vec![0.0; caps],
            },
        }
    }

    /// Runs Newton from `x` with sources scaled by `alpha` and a `gmin`
    /// node shunt: the converged unknowns, or `None` when the budget runs
    /// out or an update is not finite.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularSystem`] when the Jacobian cannot be
    /// factored.
    pub(crate) fn solve(
        &mut self,
        mut x: Vec<f64>,
        alpha: f64,
        gmin: f64,
    ) -> Result<Option<Vec<f64>>, SpiceError> {
        let seated: &[&Circuit] = &[self.ckt];
        self.ws.gmin = gmin;
        self.ws.hold_sources(&seated, alpha);
        self.ws.newton[0].restart();
        let mut stages = StageTimers::off();
        loop {
            self.ws.newton_pass(
                &seated,
                &mut x,
                &[0.0],
                &self.companions,
                &[true],
                &mut stages,
            )?;
            match self.ws.newton[0].outcome {
                Outcome::Pending => {}
                Outcome::Converged => return Ok(Some(x)),
                Outcome::Failed => return Ok(None),
            }
        }
    }

    /// Newton iterations the last solve spent before it stopped.
    pub(crate) fn iterations(&self) -> usize {
        self.ws.newton[0].iter
    }

    /// Work counters of every solve so far.
    pub(crate) fn stats(&self) -> SolverStats {
        self.ws.stats[0]
    }
}

/// Where one device slot's outputs sit in the evaluated block's scratch.
#[derive(Clone, Copy)]
struct BlockOut {
    /// The block's element stride.
    stride: usize,
    /// The slot's first element, `slot·k`.
    at: usize,
    /// The block's [`BatchedDeviceEval::live_rows`].
    live: u64,
}

/// [`BatchWorkspace::assemble_body`] as a [`LaneKernel`].
struct Assemble<'a> {
    ws: &'a mut BatchWorkspace,
    seated: &'a dyn LaneCircuits,
    x: &'a [f64],
    t: &'a [f64],
    companions: &'a Companions,
}

impl LaneKernel for Assemble<'_> {
    type Output = ();

    #[inline(always)]
    unsafe fn run<N: LaneCount, S: Simd>(self, n: N) {
        // SAFETY: forwarded from `dispatch`; `n` is the workspace's lane
        // count.
        unsafe {
            self.ws
                .assemble_body::<N, S>(n, self.seated, self.x, self.t, self.companions)
        }
    }
}

/// Per-lane capacitor history (voltage across and branch current).
#[derive(Clone, Copy, Default)]
struct CapLane {
    v: f64,
    i: f64,
}

/// Where a lane is inside its current time step.
#[derive(Clone, Copy, PartialEq)]
enum LanePhase {
    /// Begin a fresh step: pick `dt_try` from `dt_next`, reset halvings.
    StartStep,
    /// Redo the current step at the already-shrunk `dt_try`.
    Retry,
    /// Mid-Newton on the current trial step.
    Newton,
}

/// Outcome of one Newton pass for one lane.
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    /// Still iterating (or idle).
    Pending,
    /// Newton converged (a transient lane's step acceptance is pending).
    Converged,
    /// Newton exhausted its budget or produced a non-finite update.
    Failed,
}

/// One lane's progress in its current Newton solve, kept by the
/// workspace beside the lane's factors.
#[derive(Clone, Copy)]
struct NewtonLane {
    /// Iterations of the current solve that did not converge.
    iter: usize,
    prev_rnorm: f64,
    prev_damped: bool,
    /// Iterations since the lane's factors were refreshed.
    stale_iters: usize,
    /// What the last pass concluded.
    outcome: Outcome,
}

impl NewtonLane {
    /// A freshly seated lane.
    const SEATED: Self = Self {
        iter: 0,
        prev_rnorm: f64::INFINITY,
        prev_damped: false,
        stale_iters: 0,
        outcome: Outcome::Pending,
    };

    /// Starts a new solve: the iteration count and the stall and damping
    /// memory restart, the staleness count stays with the factors.
    fn restart(&mut self) {
        self.iter = 0;
        self.prev_rnorm = f64::INFINITY;
        self.prev_damped = false;
    }
}

/// The transient-stepping state of one lane: the die's own clock, step
/// control, Newton progress and stop tracking.
#[derive(Clone, Copy)]
struct LaneState {
    busy: bool,
    phase: LanePhase,
    /// Lane clock: last accepted time.
    t: f64,
    /// End time of the current trial step.
    t_next: f64,
    /// Current trial step size.
    dt_try: f64,
    /// Next step-size proposal (LTE-grown).
    dt_next: f64,
    /// Size of the last accepted step (predictor/LTE reference).
    dt_prev: f64,
    /// Is `x_prev` valid for this lane?
    has_hist: bool,
    /// Accepted steps on this lane's current die.
    steps: usize,
    /// Newton-failure halvings within the current step (fixed grid).
    halvings: u32,
    /// Rising crossings seen so far (stop condition).
    crossings: usize,
    /// Stop-node voltage at the previous accepted step.
    stop_prev: f64,
}

impl LaneState {
    /// A busy lane at t = 0 of a new die with nominal step `dt`, its stop
    /// tracking primed with the stop node's initial voltage `stop_prev`.
    fn start(dt: f64, stop_prev: f64) -> Self {
        Self {
            busy: true,
            phase: LanePhase::StartStep,
            t: 0.0,
            t_next: 0.0,
            dt_try: dt,
            dt_next: dt,
            dt_prev: dt,
            has_hist: false,
            steps: 0,
            halvings: 0,
            crossings: 0,
            stop_prev,
        }
    }
}

/// Reads node voltage of `lane` from a lane-interleaved vector.
#[inline]
fn lane_voltage(x: &[f64], k: usize, node: NodeId, lane: usize) -> f64 {
    match row_of(node) {
        Some(r) => x[r * k + lane],
        None => 0.0,
    }
}

const MAX_HALVINGS: u32 = 12;

/// The stages a super-iteration's wall is split into, in the order of
/// [`STAGE_HISTOGRAMS`].
#[derive(Clone, Copy)]
enum Stage {
    /// Device evaluation and MNA stamping.
    Assemble,
    /// The per-lane refresh decision and the masked LU refactor.
    Factor,
    /// The residual and the forward/back substitution.
    Solve,
    /// Per-lane trial setup, convergence, step acceptance and refill.
    Lanes,
}

/// One histogram per [`Stage`], each observing seconds per
/// super-iteration.
const STAGE_HISTOGRAMS: [&str; 4] = [
    "batch.assemble",
    "batch.factor",
    "batch.solve",
    "batch.lanes",
];

/// Splits each super-iteration's wall over the [`Stage`]s. A
/// super-iteration runs from one wall-share instant of
/// [`QueueEngine::run`] to the next, so the four observations of each
/// sum to the wall its busy dies share. The histograms are resolved once
/// per run and only with metrics on; otherwise no method reads a clock.
struct StageTimers {
    hists: Option<[Arc<rotsv_obs::Histogram>; 4]>,
    spent: [Duration; 4],
    mark: Instant,
}

impl StageTimers {
    /// Timers that record nothing: DC solves feed no stage histogram.
    fn off() -> Self {
        Self {
            hists: None,
            spent: [Duration::ZERO; 4],
            mark: Instant::now(),
        }
    }

    /// Starts the first super-iteration at `mark`.
    fn start(mark: Instant) -> Self {
        Self {
            hists: rotsv_obs::metrics_enabled().then(|| STAGE_HISTOGRAMS.map(rotsv_obs::histogram)),
            spent: [Duration::ZERO; 4],
            mark,
        }
    }

    /// Charges the time since the last mark to `stage`.
    fn lap(&mut self, stage: Stage) {
        if self.hists.is_some() {
            let now = Instant::now();
            self.spent[stage as usize] += now - self.mark;
            self.mark = now;
        }
    }

    /// Ends the super-iteration at `now`, charging the time since the
    /// last mark to [`Stage::Lanes`], and records it.
    fn finish(&mut self, now: Instant) {
        let Some(hists) = &self.hists else { return };
        self.spent[Stage::Lanes as usize] += now - self.mark;
        self.mark = now;
        for (h, spent) in hists.iter().zip(&mut self.spent) {
            h.observe(spent.as_secs_f64());
            *spent = Duration::ZERO;
        }
    }
}

/// One lane's occupant: the die's circuit handle, its index as the sink
/// sees it, and its record so far. Its counters are the workspace's
/// `stats[lane]`.
struct Seat<C> {
    ckt: C,
    die: usize,
    time: Vec<f64>,
    columns: BTreeMap<NodeId, Vec<f64>>,
}

impl<C> Seat<C> {
    /// Die `die` on circuit `ckt`, with an empty column per recorded node.
    fn new(ckt: C, die: usize, record_nodes: &[NodeId]) -> Self {
        Self {
            ckt,
            die,
            time: Vec::new(),
            columns: record_nodes.iter().map(|&nd| (nd, Vec::new())).collect(),
        }
    }
}

impl<C: Borrow<Circuit>> LaneCircuits for Vec<Seat<C>> {
    fn circuit(&self, lane: usize) -> &Circuit {
        self[lane].ckt.borrow()
    }
}

/// The asynchronous K-lane engine: K seats, refilled from the initial
/// dies not yet seated and then from the source, each retiring die
/// delivered to the sink.
struct QueueEngine<'a, C> {
    seats: Vec<Seat<C>>,
    /// Initial dies not yet seated, seated before any sourced die.
    pending: std::vec::IntoIter<C>,
    /// Dies pulled so far: the index the sink sees for the next one.
    /// Once every lane is idle, each of them has been delivered.
    pulled: usize,
    spec: &'a TransientSpec,
    ws: BatchWorkspace,
    k: usize,
    n: usize,
    n_node_unknowns: usize,
    /// Initial unknown vector shared by every die.
    x0: Vec<f64>,
    /// `n * k` last accepted solution per lane.
    x: Vec<f64>,
    /// `n * k` Newton iterate per lane.
    x_try: Vec<f64>,
    /// `n * k` previous accepted solution per lane (predictor/LTE).
    x_prev: Vec<f64>,
    cap_nodes: Vec<(NodeId, NodeId)>,
    /// `caps * k` per-lane capacitances.
    farads: Vec<f64>,
    /// Per-lane Norton companions of the current trial step.
    companions: Companions,
    /// `caps * k` per-lane integration history.
    caps: Vec<CapLane>,
    /// `k` per-lane evaluation times (busy: trial end; idle: frozen).
    t_eval: Vec<f64>,
    lanes: Vec<LaneState>,
    /// Recorded-node template, the column layout of every die's record.
    record_nodes: Vec<NodeId>,
    /// Polled (non-blockingly) at lane retirement once `pending` is
    /// exhausted.
    source: &'a mut dyn FnMut() -> Option<C>,
    /// Receives each die's result the moment it retires.
    sink: &'a mut dyn FnMut(usize, TransientResult),
}

impl<'a, C: Borrow<Circuit>> QueueEngine<'a, C> {
    /// Builds the engine with one lane per circuit of `seated` (dies
    /// `0..k`, in order) and seats them.
    fn new(
        seated: Vec<C>,
        pending: std::vec::IntoIter<C>,
        spec: &'a TransientSpec,
        source: &'a mut dyn FnMut() -> Option<C>,
        sink: &'a mut dyn FnMut(usize, TransientResult),
    ) -> Result<Self, SpiceError> {
        let x0 = initial_iterate(seated[0].borrow(), &spec.initial_voltages)?;
        let ws = {
            let refs: Vec<&Circuit> = seated.iter().map(Borrow::borrow).collect();
            let opts = NewtonOpts {
                max_iterations: spec.max_newton,
                ..NewtonOpts::default()
            };
            BatchWorkspace::new(&refs, opts)?
        };
        let (k, n, n_node_unknowns) = (ws.k, ws.n, ws.n_node_unknowns);
        let c0: &Circuit = seated[0].borrow();

        let cap_nodes: Vec<(NodeId, NodeId)> = c0
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::Capacitor { a, b, .. } => Some((*a, *b)),
                _ => None,
            })
            .collect();
        let n_caps = cap_nodes.len();

        let record_nodes: Vec<NodeId> = if spec.record_nodes.is_empty() {
            (0..c0.node_count()).map(NodeId).collect()
        } else {
            let mut nodes = spec.record_nodes.clone();
            nodes.sort_unstable();
            nodes.dedup();
            nodes
        };
        let seats = seated
            .into_iter()
            .enumerate()
            .map(|(die, ckt)| Seat::new(ckt, die, &record_nodes))
            .collect();

        let mut eng = Self {
            seats,
            pending,
            pulled: k,
            spec,
            ws,
            k,
            n,
            n_node_unknowns,
            x0,
            x: vec![0.0; n * k],
            x_try: vec![0.0; n * k],
            x_prev: vec![0.0; n * k],
            cap_nodes,
            farads: vec![0.0; n_caps * k],
            companions: Companions {
                geq: vec![0.0; n_caps * k],
                ieq: vec![0.0; n_caps * k],
            },
            caps: vec![CapLane::default(); n_caps * k],
            t_eval: vec![0.0; k],
            lanes: vec![LaneState::start(spec.dt, 0.0); k],
            record_nodes,
            source,
            sink,
        };
        let ring = rotsv_obs::events_enabled();
        for lane in 0..k {
            if ring {
                rotsv_obs::record_event(
                    rotsv_obs::EventKind::LaneSeat,
                    rotsv_obs::lane_operand(eng.ws.session, lane),
                    lane as u32,
                    0.0,
                );
            }
            eng.start(lane);
        }
        Ok(eng)
    }

    /// Appends the current accepted state of `lane` to its die's record.
    fn record(&mut self, lane: usize, t: f64) {
        let seat = &mut self.seats[lane];
        seat.time.push(t);
        for (&node, col) in seat.columns.iter_mut() {
            col.push(lane_voltage(&self.x, self.k, node, lane));
        }
    }

    /// Starts the die seated in `lane` at its own t = 0: re-seeds the
    /// unknown vector, capacitor values and history, lane clock and stop
    /// tracking, re-extracts the lane's element values and device-bank
    /// parameters, and invalidates the lane's factors. The die's
    /// variation deltas and waveforms come from its own circuit
    /// (index-deterministic per die), so trajectories are independent of
    /// when and where the die is seated.
    fn start(&mut self, lane: usize) {
        let k = self.k;
        for i in 0..self.n {
            self.x[i * k + lane] = self.x0[i];
            self.x_try[i * k + lane] = self.x0[i];
        }
        let c: &Circuit = self.seats[lane].ckt.borrow();
        let mut ci = 0usize;
        for e in &c.elements {
            if let Element::Capacitor { farads: f, .. } = e {
                self.farads[ci * k + lane] = *f;
                ci += 1;
            }
        }
        for (ci, &(a, b)) in self.cap_nodes.iter().enumerate() {
            let v = lane_voltage(&self.x, k, a, lane) - lane_voltage(&self.x, k, b, lane);
            self.caps[ci * k + lane] = CapLane { v, i: 0.0 };
        }
        self.t_eval[lane] = 0.0;
        let stop_prev = match &self.spec.stop {
            Some(StopCondition::RisingCrossings { node, .. }) => {
                lane_voltage(&self.x, k, *node, lane)
            }
            None => 0.0,
        };
        self.lanes[lane] = LaneState::start(self.spec.dt, stop_prev);
        self.ws.reseat_lane(&self.seats, lane);
        self.record(lane, 0.0);
    }

    /// The super-iteration loop: one Newton iteration across all busy
    /// lanes per pass, with per-lane trial setup, step acceptance,
    /// retirement and refill around it.
    // Lane loops deliberately index several parallel arrays by `lane`;
    // the iterator forms clippy suggests obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    fn run(&mut self) -> Result<(), SpiceError> {
        let adaptive = match self.spec.step {
            StepControl::Fixed => None,
            StepControl::Adaptive(c) => Some(c),
        };
        let dt_min = adaptive.map_or(self.spec.dt, |c| self.spec.dt * c.min_shrink);
        let dt_max = adaptive.map_or(self.spec.dt, |c| self.spec.dt * c.max_stretch);
        let t_stop = self.spec.t_stop;
        let trap = self.spec.method == IntegrationMethod::Trapezoidal;
        let k = self.k;
        let n = self.n;
        let n_nodes = self.n_node_unknowns;
        let n_caps = self.cap_nodes.len();
        // Occupancy and dt drag describe co-resident lanes: a one-lane
        // session would only add constant 1.0 observations to both.
        let lane_metrics = k > 1 && rotsv_obs::metrics_enabled();
        let occupancy_hist = lane_metrics.then(|| rotsv_obs::histogram("mc.batch_occupancy"));
        let drag_hist = lane_metrics.then(|| rotsv_obs::histogram("mc.dt_drag"));
        let newton_hist = rotsv_obs::metrics_enabled()
            .then(|| rotsv_obs::histogram("transient.newton_iters_per_step"));
        let lte_hist = rotsv_obs::metrics_enabled()
            .then(|| rotsv_obs::histogram("transient.lte_step_seconds"));
        // Same idiom for the event ring: one relaxed load up front, then
        // a plain bool on the hot paths. Ring pushes never block — on
        // overflow they drop and count.
        let ring = rotsv_obs::events_enabled();
        let session = self.ws.session;
        let lane_op = |lane: usize| rotsv_obs::lane_operand(session, lane);
        // A die's `wall_seconds` accrues as it runs: each super-iteration's
        // wall is split over the lanes busy in it, so the dies of a
        // session sum to the session's wall, and a streamed die's share is
        // final when it is delivered.
        let mut lap = Instant::now();
        let mut stages = StageTimers::start(lap);

        let mut busy = vec![false; k];
        // Occupancy only moves on retire/refill; recording the counter
        // track on change keeps the ring footprint proportional to the
        // number of seatings, not super-iterations.
        let mut last_occ = usize::MAX;

        while self.lanes.iter().any(|l| l.busy) {
            // Trial setup for lanes starting (or redoing) a step.
            for lane in 0..k {
                busy[lane] = self.lanes[lane].busy;
                if !busy[lane] || self.lanes[lane].phase == LanePhase::Newton {
                    continue;
                }
                {
                    let ls = &mut self.lanes[lane];
                    if ls.phase == LanePhase::StartStep {
                        ls.dt_try = ls.dt_next.min(t_stop - ls.t);
                        ls.halvings = 0;
                    }
                    ls.t_next = ls.t + ls.dt_try;
                }
                let ls = self.lanes[lane];
                let use_trap = trap && ls.steps >= 2;
                for ci in 0..n_caps {
                    let idx = ci * k + lane;
                    let c = self.caps[idx];
                    let f = self.farads[idx];
                    let (geq, ieq) = if f == 0.0 {
                        (0.0, 0.0)
                    } else if use_trap {
                        let geq = 2.0 * f / ls.dt_try;
                        (geq, -(geq * c.v + c.i))
                    } else {
                        let geq = f / ls.dt_try;
                        (geq, -geq * c.v)
                    };
                    self.companions.geq[idx] = geq;
                    self.companions.ieq[idx] = ieq;
                }
                // Newton starts from the LTE predictor's extrapolation,
                // else from the last accepted solution.
                if ls.has_hist && ls.steps >= 2 {
                    let scale = ls.dt_try / ls.dt_prev;
                    for i in 0..n {
                        let xi = self.x[i * k + lane];
                        self.x_try[i * k + lane] = xi + (xi - self.x_prev[i * k + lane]) * scale;
                    }
                } else {
                    for i in 0..n {
                        self.x_try[i * k + lane] = self.x[i * k + lane];
                    }
                }
                self.t_eval[lane] = ls.t_next;
                self.ws.newton[lane].restart();
                self.lanes[lane].phase = LanePhase::Newton;
            }

            // One Newton iteration across all busy lanes.
            self.ws.newton_pass(
                &self.seats,
                &mut self.x_try,
                &self.t_eval,
                &self.companions,
                &busy,
                &mut stages,
            )?;

            // The smallest trial dt among busy lanes: the lockstep grid a
            // v1-style engine would have imposed on everyone.
            let mut min_dt = f64::INFINITY;
            for lane in 0..k {
                if busy[lane] {
                    min_dt = min_dt.min(self.lanes[lane].dt_try);
                }
            }

            let now = Instant::now();
            stages.finish(now);
            let n_busy = busy.iter().filter(|&&b| b).count();
            let share = (now - lap).as_secs_f64() / n_busy as f64;
            lap = now;
            for lane in (0..k).filter(|&l| busy[l]) {
                self.ws.stats[lane].wall_seconds += share;
            }

            // Step outcomes: LTE accept/reject, retirement, refill.
            for lane in 0..k {
                let iter = self.ws.newton[lane].iter;
                match self.ws.newton[lane].outcome {
                    Outcome::Pending => {}
                    Outcome::Converged => {
                        let ls = self.lanes[lane];
                        if let Some(c) = adaptive.as_ref() {
                            if ls.steps >= 2 && ls.has_hist {
                                let scale = ls.dt_try / ls.dt_prev;
                                let mut err = 0.0f64;
                                for i in 0..n_nodes {
                                    let xi = self.x[i * k + lane];
                                    let pred = xi + (xi - self.x_prev[i * k + lane]) * scale;
                                    let sol = self.x_try[i * k + lane];
                                    let tol = c.lte_abstol + c.lte_reltol * sol.abs().max(xi.abs());
                                    err = err.max((sol - pred).abs() / tol);
                                }
                                if err > c.reject_threshold && ls.dt_try > dt_min * (1.0 + 1e-9) {
                                    self.ws.stats[lane].steps_rejected += 1;
                                    let ls = &mut self.lanes[lane];
                                    ls.dt_try = (ls.dt_try * (0.9 / err.sqrt()).clamp(0.1, 0.5))
                                        .max(dt_min);
                                    ls.phase = LanePhase::Retry;
                                    continue;
                                }
                                let grow = (0.9 / err.max(1e-12).sqrt()).min(c.max_growth);
                                self.lanes[lane].dt_next = (ls.dt_try * grow).clamp(dt_min, dt_max);
                            }
                        }
                        // Accept: commit capacitor history, roll the
                        // solution, advance the lane clock.
                        for ci in 0..n_caps {
                            let idx = ci * k + lane;
                            let (a, b) = self.cap_nodes[ci];
                            let v_new = lane_voltage(&self.x_try, k, a, lane)
                                - lane_voltage(&self.x_try, k, b, lane);
                            let (geq, ieq) = (self.companions.geq[idx], self.companions.ieq[idx]);
                            self.caps[idx].i = geq * v_new + ieq;
                            self.caps[idx].v = v_new;
                        }
                        for i in 0..n {
                            let idx = i * k + lane;
                            self.x_prev[idx] = self.x[idx];
                            self.x[idx] = self.x_try[idx];
                        }
                        {
                            let ls = &mut self.lanes[lane];
                            ls.dt_prev = ls.dt_try;
                            ls.has_hist = true;
                            ls.t = ls.t_next;
                            ls.steps += 1;
                        }
                        self.ws.stats[lane].steps_accepted += 1;
                        let t_now = self.lanes[lane].t;
                        self.record(lane, t_now);
                        if let Some(h) = &drag_hist {
                            h.observe(self.lanes[lane].dt_prev / min_dt);
                        }
                        if let Some(h) = &newton_hist {
                            // `iter` counts the non-converging iterations of
                            // this attempt; the converging one makes +1.
                            h.observe((iter + 1) as f64);
                        }
                        if let Some(h) = &lte_hist {
                            h.observe(self.lanes[lane].dt_prev);
                        }
                        if ring {
                            rotsv_obs::record_event(
                                rotsv_obs::EventKind::StepAccepted,
                                lane_op(lane),
                                (iter + 1) as u32,
                                ls.dt_try,
                            );
                        }
                        let mut finished = false;
                        let mut early = false;
                        if let Some(StopCondition::RisingCrossings {
                            node,
                            threshold,
                            count,
                        }) = &self.spec.stop
                        {
                            let v_now = lane_voltage(&self.x, k, *node, lane);
                            let ls = &mut self.lanes[lane];
                            let prev = ls.stop_prev;
                            ls.stop_prev = v_now;
                            if prev < *threshold && v_now >= *threshold {
                                ls.crossings += 1;
                                if ls.crossings >= *count {
                                    finished = true;
                                    early = true;
                                }
                            }
                        }
                        if !finished && t_now >= t_stop - 1e-18 {
                            finished = true;
                        }
                        if finished {
                            self.lanes[lane].busy = false;
                            if ring {
                                rotsv_obs::record_event(
                                    rotsv_obs::EventKind::LaneRetire,
                                    lane_op(lane),
                                    self.seats[lane].die as u32,
                                    0.0,
                                );
                            }
                            self.deliver(lane, early);
                            if let Some((ckt, incoming)) = self.pull_next(lane)? {
                                if ring {
                                    rotsv_obs::record_event(
                                        rotsv_obs::EventKind::LaneRefill,
                                        lane_op(lane),
                                        incoming as u32,
                                        0.0,
                                    );
                                }
                                self.seats[lane] = Seat::new(ckt, incoming, &self.record_nodes);
                                self.start(lane);
                            }
                        } else {
                            self.lanes[lane].phase = LanePhase::StartStep;
                        }
                    }
                    Outcome::Failed => {
                        self.ws.stats[lane].steps_rejected += 1;
                        let ls = &mut self.lanes[lane];
                        if adaptive.is_some() {
                            if ls.dt_try <= dt_min * (1.0 + 1e-9) {
                                return Err(SpiceError::NoConvergence {
                                    analysis: "transient_stream",
                                    time: ls.t_next,
                                    iterations: iter,
                                });
                            }
                            ls.dt_try = (ls.dt_try * 0.5).max(dt_min);
                        } else {
                            ls.halvings += 1;
                            if ls.halvings > MAX_HALVINGS {
                                return Err(SpiceError::NoConvergence {
                                    analysis: "transient_stream",
                                    time: ls.t_next,
                                    iterations: iter,
                                });
                            }
                            ls.dt_try *= 0.5;
                        }
                        ls.phase = LanePhase::Retry;
                    }
                }
            }

            if occupancy_hist.is_some() || ring {
                let n_busy = busy.iter().filter(|&&b| b).count();
                if let Some(h) = &occupancy_hist {
                    h.observe(n_busy as f64 / k as f64);
                }
                if ring && n_busy != last_occ {
                    last_occ = n_busy;
                    rotsv_obs::record_event(
                        rotsv_obs::EventKind::Occupancy,
                        n_busy as u32,
                        lane_op(k),
                        n_busy as f64 / k as f64,
                    );
                }
            }
        }
        Ok(())
    }

    /// Hands the die retiring from `lane` to the sink: its recorded
    /// waveforms and counters are moved out, not cloned, so the seat
    /// keeps only the circuit until the lane refills. `wall_seconds` is
    /// the die's share of the super-iterations it ran in (see
    /// [`QueueEngine::run`]).
    fn deliver(&mut self, lane: usize, stopped_early: bool) {
        let seat = &mut self.seats[lane];
        let res = TransientResult::from_parts(
            std::mem::take(&mut seat.time),
            std::mem::take(&mut seat.columns),
            stopped_early,
            self.lanes[lane].steps,
            std::mem::take(&mut self.ws.stats[lane]),
        );
        (self.sink)(seat.die, res);
    }

    /// Pulls the next die for `lane` and its index: the initial dies not
    /// yet seated first, then one non-blocking poll of the source. The
    /// circuit is topology-checked against the one it replaces (every
    /// seated circuit was checked against the first).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] when the incoming circuit's
    /// topology differs from the session's.
    fn pull_next(&mut self, lane: usize) -> Result<Option<(C, usize)>, SpiceError> {
        let Some(ckt) = self.pending.next().or_else(&mut *self.source) else {
            return Ok(None);
        };
        validate_topology(&[self.seats[lane].ckt.borrow(), ckt.borrow()])?;
        self.pulled += 1;
        Ok(Some((ckt, self.pulled - 1)))
    }
}

fn validate_spec(spec: &TransientSpec) -> Result<(), SpiceError> {
    if spec.dt <= 0.0 || !spec.dt.is_finite() {
        return Err(SpiceError::InvalidSpec(format!(
            "time step must be positive, got {}",
            spec.dt
        )));
    }
    if spec.t_stop <= 0.0 || !spec.t_stop.is_finite() {
        return Err(SpiceError::InvalidSpec(format!(
            "stop time must be positive, got {}",
            spec.t_stop
        )));
    }
    if let StepControl::Adaptive(c) = &spec.step {
        let sane = c.lte_reltol > 0.0
            && c.lte_abstol > 0.0
            && c.min_shrink > 0.0
            && c.min_shrink <= 1.0
            && c.max_stretch >= 1.0
            && c.max_growth > 1.0
            && c.reject_threshold >= 1.0;
        if !sane {
            return Err(SpiceError::InvalidSpec(format!(
                "inconsistent adaptive step control: {c:?}"
            )));
        }
    }
    Ok(())
}

/// The unknown vector a solve starts from: zero but for the `initial`
/// node voltages. The transient and the DC operating point share it.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidCircuit`] when an initial voltage names a
/// node `ckt` lacks.
pub(crate) fn initial_iterate(
    ckt: &Circuit,
    initial: &[(NodeId, f64)],
) -> Result<Vec<f64>, SpiceError> {
    let mut x0 = vec![0.0; ckt.unknown_count()];
    for &(node, v) in initial {
        if node.index() >= ckt.node_count() {
            return Err(SpiceError::InvalidCircuit(format!(
                "initial condition on unknown node {node}"
            )));
        }
        if let Some(r) = row_of(node) {
            x0[r] = v;
        }
    }
    Ok(x0)
}

/// Streams dies through `lanes` SIMD lanes with mid-transient refill:
/// the lane engine's one driver. When a lane's die finishes (stop
/// condition or `t_stop`), its result goes to `sink` and the next die is
/// seated into the lane immediately, so lanes stay busy while work
/// remains.
///
/// Dies come from `initial` first, then from `source`. This is the
/// continuous-batching seam a resident screening server builds on —
/// retired lanes pull the next admitted die mid-transient, so the engine
/// never drains between requests that share a topology. `source` is
/// polled **non-blockingly** at each retirement once `initial` is used
/// up (and up-front to fill the lanes when `initial` is shorter than
/// `lanes`); returning `None` leaves the lane idle for the rest of the
/// session — a server source should pop from its admission queue
/// without waiting, and start a new engine session when more work
/// arrives after a drain. `sink` receives `(die_index, result)` in
/// retirement order; indices count from 0 over `initial` then each
/// sourced circuit in pull order.
///
/// The circuit handle `C` is anything that borrows a [`Circuit`]:
/// `&Circuit`, an owned `Circuit` or an `Arc<Circuit>`. The session
/// holds one seat per lane, never a per-die table: a die's waveforms and
/// counters move into the sink when it retires, and its circuit is
/// dropped when its lane refills (or the session ends). Memory is thus
/// proportional to the lanes, not to the session length.
///
/// Each die's trajectory follows the stepping policies independently,
/// so the per-die results are **bit-identical** at any lane count,
/// admission order and lane assignment — refill is pure scheduling
/// (see the module docs on composition independence). All
/// lanes share `spec` (grid, stop condition, recorded nodes); lanes
/// differ through their circuits' element values. Per-die
/// [`SolverStats`] charge each symbolic analysis to the die whose lane
/// triggered it and split each super-iteration's wall time over the
/// lanes busy in it, so the dies of a session sum to its totals.
///
/// Returns the number of dies completed and delivered to `sink`; with
/// no die from `initial` or `source`, `Ok(0)`.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidCircuit`] when a die's topology differs
/// from the first die's or an initial voltage names a node the circuit
/// lacks, [`SpiceError::InvalidSpec`] for a bad grid or step control,
/// [`SpiceError::NoConvergence`] (carrying the failing attempt's Newton
/// iterations) when a lane fails at its smallest step, and
/// [`SpiceError::SingularSystem`]; an unrecoverable lane aborts the
/// whole session.
pub fn transient_stream<C: Borrow<Circuit>>(
    initial: Vec<C>,
    lanes: usize,
    spec: &TransientSpec,
    source: &mut dyn FnMut() -> Option<C>,
    sink: &mut dyn FnMut(usize, TransientResult),
) -> Result<usize, SpiceError> {
    let lanes = lanes.max(1);
    let mut pending = initial.into_iter();
    let mut seated: Vec<C> = pending.by_ref().take(lanes).collect();
    // Fill the lanes before construction so the session starts as full
    // as the queue allows.
    while seated.len() < lanes {
        match source() {
            Some(ckt) => seated.push(ckt),
            None => break,
        }
    }
    if seated.is_empty() {
        return Ok(0);
    }
    validate_spec(spec)?;
    let span = rotsv_obs::span!("transient_stream", "k" = seated.len());
    let _ = &span;
    let ring = rotsv_obs::events_enabled();
    let dropped_before = ring.then(|| rotsv_obs::event_ring().dropped());
    let mut eng = QueueEngine::new(seated, pending, spec, source, sink)?;
    eng.run()?;
    // First-class drop accounting: anything the ring shed during this
    // session surfaces as a counter the agreement suite asserts to be zero.
    if let Some(before) = dropped_before {
        if rotsv_obs::metrics_enabled() {
            let delta = rotsv_obs::event_ring().dropped().saturating_sub(before);
            rotsv_obs::metrics::counter("mc.ring_dropped_events").add(delta);
        }
    }
    Ok(eng.pulled)
}

/// [`transient_stream`] over a fixed population: the source iterates
/// `ckts` and each result is stored at its die's index, so results come
/// back in population order. `lanes == ckts.len()` is one fixed batch
/// (no refill); `lanes == 1` is one die at a time. Per-die results are
/// bit-identical at any lane count. Empty input returns an empty vector.
///
/// # Errors
///
/// As [`transient_stream`].
pub fn transient_queue(
    ckts: &[&Circuit],
    lanes: usize,
    spec: &TransientSpec,
) -> Result<Vec<TransientResult>, SpiceError> {
    let mut queue = ckts.iter().copied();
    let mut results = vec![None; ckts.len()];
    transient_stream(
        Vec::new(),
        lanes,
        spec,
        &mut || queue.next(),
        &mut |die, res| {
            results[die] = Some(res);
        },
    )?;
    Ok(results
        .into_iter()
        .map(|r| r.expect("every queued die is delivered"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;
    use crate::transient::TransientSpec;

    fn rc_circuit(r: f64, c: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.add_vsource(vin, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor(vin, vout, r);
        ckt.add_capacitor(vout, Circuit::GROUND, c);
        (ckt, vout)
    }

    /// Three RC lanes with different time constants on a fixed grid:
    /// every sample of every lane follows the closed form
    /// `1 − exp(−t/RC)`.
    #[test]
    fn batched_rc_matches_closed_form_per_lane() {
        let lanes = [(1e3, 1e-9), (1.3e3, 1e-9), (1e3, 0.7e-9)];
        let built: Vec<(Circuit, NodeId)> = lanes.iter().map(|&(r, c)| rc_circuit(r, c)).collect();
        let ckts: Vec<&Circuit> = built.iter().map(|(c, _)| c).collect();
        let vout = built[0].1;
        let spec = TransientSpec::new(3e-6, 2e-9).record(&[vout]);
        let batched = transient_queue(&ckts, ckts.len(), &spec).unwrap();
        assert_eq!(batched.len(), 3);
        for (&(r, c), res) in lanes.iter().zip(&batched) {
            let w = res.waveform(vout);
            assert_eq!(w.time().len(), 1501, "R = {r}: 3 µs on the 2 ns grid");
            for (&t, &v) in w.time().iter().zip(w.values()) {
                let expect = 1.0 - (-t / (r * c)).exp();
                assert!(
                    (v - expect).abs() < 5e-5,
                    "R = {r}, C = {c}, t = {t}: {v} vs {expect}"
                );
            }
        }
    }

    /// Identical lanes under adaptive stepping: every lane stays within
    /// 1e-3 of the closed form at 0.5, 1 and 2 τ.
    #[test]
    fn batched_adaptive_tracks_closed_form_within_tolerance() {
        let (ckt, vout) = rc_circuit(1e3, 1e-9); // τ = 1 µs
        let ckts = [&ckt, &ckt];
        let spec = TransientSpec::new(3e-6, 2e-9)
            .record(&[vout])
            .step_control(StepControl::adaptive());
        let batched = transient_queue(&ckts, ckts.len(), &spec).unwrap();
        for res in &batched {
            let wb = res.waveform(vout);
            for frac in [0.5f64, 1.0, 2.0] {
                let expect = 1.0 - (-frac).exp();
                let got = wb.value_at(frac * 1e-6);
                assert!(
                    (got - expect).abs() < 1e-3,
                    "at {frac} τ: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn lane_retirement_freezes_finished_lanes() {
        // Lane 1's RC is much faster, so its rising crossing fires far
        // earlier; it must retire with fewer recorded points while lane 0
        // runs on.
        let built = [rc_circuit(1e3, 1e-9), rc_circuit(1e2, 1e-10)];
        let ckts: Vec<&Circuit> = built.iter().map(|(c, _)| c).collect();
        let vout = built[0].1;
        let spec = TransientSpec::new(3e-6, 2e-9)
            .record(&[vout])
            .stop_after_rising(vout, 0.5, 1);
        let res = transient_queue(&ckts, ckts.len(), &spec).unwrap();
        assert!(res[0].stopped_early());
        assert!(res[1].stopped_early());
        assert!(
            res[1].time().len() < res[0].time().len(),
            "fast lane must retire earlier: {} vs {}",
            res[1].time().len(),
            res[0].time().len()
        );
        // Retired lane's final sample is at its own stop time.
        assert!(res[1].time().last().unwrap() < res[0].time().last().unwrap());
    }

    /// A device type with no bank takes the per-lane fallback, whose
    /// rows are all live. Its dies must run bit-identically at one lane,
    /// at three (a fixed width) and at nine (a run-time width), and each
    /// must settle where KCL holds at the clamped node.
    #[test]
    fn per_lane_fallback_device_is_lane_count_invariant() {
        use crate::device::test_devices::Diode;
        const V_T: f64 = 0.02585;
        let die_params = |i: u32| {
            (
                1e3 + 150.0 * f64::from(i),
                1e-14 * (1.0 + 0.2 * f64::from(i)),
            )
        };
        let clamped_rc = |r: f64, i_sat: f64| {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let vout = ckt.node("out");
            ckt.add_vsource(vin, Circuit::GROUND, SourceWaveform::step(0.0, 5.0, 0.0));
            ckt.add_resistor(vin, vout, r);
            ckt.add_capacitor(vout, Circuit::GROUND, 1e-12);
            ckt.add_device(Box::new(Diode {
                nodes: [vout, Circuit::GROUND],
                i_sat,
                v_t: V_T,
            }));
            (ckt, vout)
        };
        let built: Vec<(Circuit, NodeId)> = (0..9)
            .map(|i| {
                let (r, i_sat) = die_params(i);
                clamped_rc(r, i_sat)
            })
            .collect();
        let ckts: Vec<&Circuit> = built.iter().map(|(c, _)| c).collect();
        let vout = built[0].1;
        let spec = TransientSpec::new(20e-9, 0.05e-9).record(&[vout]);
        let bits = |r: &TransientResult| -> Vec<u64> {
            r.waveform(vout)
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let one = transient_queue(&ckts, 1, &spec).unwrap();
        for lanes in [3, 9] {
            let many = transient_queue(&ckts, lanes, &spec).unwrap();
            for (die, (a, b)) in one.iter().zip(&many).enumerate() {
                assert_eq!(a.time(), b.time(), "die {die}, K = {lanes}: time grid");
                assert_eq!(bits(a), bits(b), "die {die}, K = {lanes}: waveform bits");
                assert_eq!(a.stats().newton_iterations, b.stats().newton_iterations);
            }
        }
        // After 20 ns (the clamped node settles within a nanosecond) the
        // capacitor carries no current: the resistor feeds the diode,
        // (5 − v)/R = I_s (exp(v/V_T) − 1).
        for (die, lane) in (0..).zip(&one) {
            let (r, i_sat) = die_params(die);
            let v = lane.final_voltage(vout);
            assert!((0.5..0.9).contains(&v), "die {die} clamps at {v}");
            let i_r = (5.0 - v) / r;
            let i_d = i_sat * ((v / V_T).exp() - 1.0);
            assert!(
                (i_r - i_d).abs() <= 1e-6 * i_r,
                "die {die}: KCL {i_r} A in vs {i_d} A out"
            );
        }
    }

    /// A failed run reports the Newton iterations of its last attempt,
    /// not the budget: a device whose current is NaN makes every
    /// attempt's first update non-finite, so the error carries
    /// `iterations == 0` on either step control.
    #[test]
    fn non_finite_update_reports_its_own_iteration_count() {
        #[derive(Debug)]
        struct NanCurrent {
            nodes: [NodeId; 2],
        }
        impl NonlinearDevice for NanCurrent {
            fn nodes(&self) -> &[NodeId] {
                &self.nodes
            }
            fn eval(&self, _v: &[f64], stamp: &mut DeviceStamp) {
                stamp.current[0] = f64::NAN;
                stamp.current[1] = f64::NAN;
                stamp.jacobian[(0, 0)] = 1e-3;
                stamp.jacobian[(0, 1)] = -1e-3;
                stamp.jacobian[(1, 0)] = -1e-3;
                stamp.jacobian[(1, 1)] = 1e-3;
            }
        }
        let (mut ckt, vout) = rc_circuit(1e3, 1e-9);
        ckt.add_device(Box::new(NanCurrent {
            nodes: [vout, Circuit::GROUND],
        }));
        for step in [StepControl::Fixed, StepControl::adaptive()] {
            let spec = TransientSpec::new(1e-6, 1e-9).step_control(step);
            let err = transient_queue(&[&ckt], 1, &spec).unwrap_err();
            assert!(
                matches!(err, SpiceError::NoConvergence { iterations: 0, .. }),
                "{step:?}: {err:?}"
            );
        }
    }

    #[test]
    fn topology_mismatch_is_rejected() {
        let (a, _) = rc_circuit(1e3, 1e-9);
        let mut b = Circuit::new();
        let n1 = b.node("in");
        b.add_resistor(n1, Circuit::GROUND, 1e3);
        let err = transient_queue(&[&a, &b], 2, &TransientSpec::new(1e-6, 1e-9)).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidCircuit(_)));
    }

    #[test]
    fn batch_shares_one_symbolic_analysis() {
        let built = [rc_circuit(1e3, 1e-9), rc_circuit(1.1e3, 1e-9)];
        let ckts: Vec<&Circuit> = built.iter().map(|(c, _)| c).collect();
        let res = transient_queue(&ckts, ckts.len(), &TransientSpec::new(1e-7, 1e-9)).unwrap();
        let analyses: u64 = res.iter().map(|r| r.stats().symbolic_analyses).sum();
        assert_eq!(analyses, 1, "one analysis for the whole batch");
        assert!(res[1].stats().factorizations > 0);
    }

    /// The composition-independence contract: streaming five dies through
    /// two lanes with refill must reproduce, bit for bit, both the solo
    /// (k = 1) run of every die and the all-at-once k = 5 batch —
    /// including the per-die step and Newton counters.
    #[test]
    fn queue_refill_is_bit_identical_across_lane_counts() {
        let rs = [1e3, 1.2e3, 0.8e3, 1.5e3, 0.9e3];
        let built: Vec<(Circuit, NodeId)> = rs.iter().map(|&r| rc_circuit(r, 1e-9)).collect();
        let ckts: Vec<&Circuit> = built.iter().map(|(c, _)| c).collect();
        let vout = built[0].1;
        let spec = TransientSpec::new(3e-6, 2e-9)
            .record(&[vout])
            .step_control(StepControl::adaptive())
            .stop_after_rising(vout, 0.5, 1);
        let queued = transient_queue(&ckts, 2, &spec).unwrap();
        let full = transient_queue(&ckts, ckts.len(), &spec).unwrap();
        for (die, (ckt, _)) in built.iter().enumerate() {
            let solo = transient_queue(&[ckt], 1, &spec).unwrap().remove(0);
            for other in [&queued[die], &full[die]] {
                assert_eq!(solo.time(), other.time(), "die {die}: time grid diverged");
                assert_eq!(
                    solo.waveform(vout).values(),
                    other.waveform(vout).values(),
                    "die {die}: waveform diverged"
                );
                assert_eq!(solo.stopped_early(), other.stopped_early(), "die {die}");
                let (a, b) = (solo.stats(), other.stats());
                assert_eq!(a.steps_accepted, b.steps_accepted, "die {die}: steps");
                assert_eq!(a.steps_rejected, b.steps_rejected, "die {die}: rejects");
                assert_eq!(
                    a.newton_iterations, b.newton_iterations,
                    "die {die}: newton"
                );
                assert_eq!(a.solves, b.solves, "die {die}: solves");
            }
        }
    }

    /// The streaming engine (mid-run admission from a source, delivery
    /// through a sink at retirement) reproduces the fixed-population
    /// queue bit for bit, with every die delivered exactly once.
    #[test]
    fn stream_matches_queue_bit_for_bit() {
        let rs = [1e3, 1.2e3, 0.8e3, 1.5e3, 0.9e3, 1.1e3];
        let built: Vec<(Circuit, NodeId)> = rs.iter().map(|&r| rc_circuit(r, 1e-9)).collect();
        let ckts: Vec<&Circuit> = built.iter().map(|(c, _)| c).collect();
        let vout = built[0].1;
        let spec = TransientSpec::new(3e-6, 2e-9)
            .record(&[vout])
            .step_control(StepControl::adaptive())
            .stop_after_rising(vout, 0.5, 1);
        let queued = transient_queue(&ckts, 2, &spec).unwrap();

        // Start with one die seated; feed the rest one at a time from
        // the source, exactly as a server admission queue would.
        // Construction is deterministic, so rebuilding from the same
        // parameters gives circuits identical to the queue run's.
        let mut pending: std::collections::VecDeque<Arc<Circuit>> = rs
            .iter()
            .skip(1)
            .map(|&r| Arc::new(rc_circuit(r, 1e-9).0))
            .collect();
        let initial = vec![Arc::new(rc_circuit(rs[0], 1e-9).0)];
        let mut delivered: Vec<Option<TransientResult>> = (0..rs.len()).map(|_| None).collect();
        let mut source = || pending.pop_front();
        let mut sink = |die: usize, res: TransientResult| {
            assert!(delivered[die].is_none(), "die {die} delivered twice");
            delivered[die] = Some(res);
        };
        let n = transient_stream(initial, 2, &spec, &mut source, &mut sink).unwrap();
        assert_eq!(n, rs.len());

        for (die, res) in delivered.iter().enumerate() {
            let res = res.as_ref().expect("every die delivered");
            let q = &queued[die];
            assert_eq!(q.time(), res.time(), "die {die}: time grid diverged");
            assert_eq!(
                q.waveform(vout).values(),
                res.waveform(vout).values(),
                "die {die}: waveform diverged"
            );
            assert_eq!(q.stopped_early(), res.stopped_early(), "die {die}");
            let (a, b) = (q.stats(), res.stats());
            assert_eq!(a.steps_accepted, b.steps_accepted, "die {die}: steps");
            assert_eq!(a.newton_iterations, b.newton_iterations, "die {die}");
        }
    }

    /// A session's per-die `wall_seconds` split its wall, queued or
    /// streamed: they sum to at most the call's elapsed time (a per-lane
    /// residence clock would sum to about `lanes ×` it) and to most of it.
    #[test]
    fn wall_seconds_sum_to_the_session_wall() {
        let (_, vout) = rc_circuit(1e3, 1e-9);
        let spec = TransientSpec::new(20e-6, 2e-9).record(&[vout]);
        let ckts: Vec<Arc<Circuit>> = (0..12)
            .map(|i| Arc::new(rc_circuit(1e3 + 50.0 * f64::from(i), 1e-9).0))
            .collect();
        let check = |walls: Vec<f64>, elapsed: f64, form: &str| {
            assert_eq!(walls.len(), 12, "{form}");
            let sum: f64 = walls.iter().sum();
            assert!(sum <= elapsed, "{form}: dies sum to {sum} s of {elapsed} s");
            assert!(
                sum >= 0.5 * elapsed,
                "{form}: dies sum to {sum} s of {elapsed} s"
            );
        };

        let refs: Vec<&Circuit> = ckts.iter().map(|c| c.as_ref()).collect();
        let t0 = Instant::now();
        let queued = transient_queue(&refs, 4, &spec).unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        check(
            queued.iter().map(|r| r.stats().wall_seconds).collect(),
            elapsed,
            "queue",
        );

        let mut pending: std::collections::VecDeque<_> = ckts.iter().cloned().collect();
        let mut walls = Vec::new();
        let t0 = Instant::now();
        transient_stream(
            Vec::new(),
            4,
            &spec,
            &mut || pending.pop_front(),
            &mut |_, res: TransientResult| walls.push(res.stats().wall_seconds),
        )
        .unwrap();
        check(walls, t0.elapsed().as_secs_f64(), "stream");
    }

    /// A sourced circuit with a different topology aborts the stream.
    #[test]
    fn stream_rejects_mismatched_source_topology() {
        let (a, vout) = rc_circuit(1e3, 1e-9);
        let mut b = Circuit::new();
        let n1 = b.node("in");
        b.add_resistor(n1, Circuit::GROUND, 1e3);
        let spec = TransientSpec::new(3e-6, 2e-9)
            .record(&[vout])
            .stop_after_rising(vout, 0.5, 1);
        let mut fed = false;
        let bad = Arc::new(b);
        let mut source = move || (!std::mem::replace(&mut fed, true)).then(|| Arc::clone(&bad));
        let mut sink = |_die: usize, _res: TransientResult| {};
        let err =
            transient_stream(vec![Arc::new(a)], 1, &spec, &mut source, &mut sink).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidCircuit(_)));
    }

    /// Refill keeps the results in population order even though dies
    /// finish out of order across lanes.
    #[test]
    fn queue_results_stay_in_population_order() {
        // Alternate slow/fast time constants so lane completion order
        // scrambles relative to the queue order.
        let built = [
            rc_circuit(1e3, 1e-9),
            rc_circuit(1e2, 1e-10),
            rc_circuit(2e3, 1e-9),
            rc_circuit(1.5e2, 1e-10),
        ];
        let ckts: Vec<&Circuit> = built.iter().map(|(c, _)| c).collect();
        let vout = built[0].1;
        let spec = TransientSpec::new(3e-6, 2e-9)
            .record(&[vout])
            .stop_after_rising(vout, 0.5, 1);
        let queued = transient_queue(&ckts, 2, &spec).unwrap();
        assert_eq!(queued.len(), 4);
        for (die, (ckt, _)) in built.iter().enumerate() {
            let solo = transient_queue(&[ckt], 1, &spec).unwrap().remove(0);
            assert_eq!(
                solo.time(),
                queued[die].time(),
                "die {die} not in queue order"
            );
        }
    }

    /// A session holds O(lanes) circuits, however many dies it runs. The
    /// source keeps only a `Weak` to each circuit it hands out, so at
    /// every delivery the circuits still alive are the ones the engine
    /// holds: at most one per lane. Every 100th die still matches its
    /// solo one-lane run bit for bit and counter for counter.
    #[test]
    fn stream_holds_only_its_seated_circuits() {
        use std::cell::RefCell;
        use std::sync::Weak;

        const DIES: usize = 2_000;
        const LANES: usize = 4;
        let die_ckt = |i: usize| rc_circuit(0.8e3 + 10.0 * (i % 71) as f64, 1e-9).0;
        let (_, vout) = rc_circuit(1e3, 1e-9);
        let spec = TransientSpec::new(3e-6, 2e-9)
            .record(&[vout])
            .step_control(StepControl::adaptive())
            .stop_after_rising(vout, 0.5, 1);
        let handed_out: RefCell<Vec<Weak<Circuit>>> = RefCell::new(Vec::new());
        let mut source = || {
            let i = handed_out.borrow().len();
            (i < DIES).then(|| {
                let ckt = Arc::new(die_ckt(i));
                handed_out.borrow_mut().push(Arc::downgrade(&ckt));
                ckt
            })
        };
        let mut analyses = 0;
        let mut sampled = Vec::new();
        let mut sink = |die: usize, res: TransientResult| {
            let alive = handed_out
                .borrow()
                .iter()
                .filter(|w| w.strong_count() > 0)
                .count();
            assert!(alive <= LANES, "die {die}: {alive} circuits alive");
            analyses += res.stats().symbolic_analyses;
            if die.is_multiple_of(100) {
                sampled.push((die, res));
            }
        };
        let n = transient_stream(Vec::new(), LANES, &spec, &mut source, &mut sink).unwrap();
        assert_eq!(n, DIES);
        assert_eq!(analyses, 1, "one analysis for the session");
        assert_eq!(sampled.len(), DIES / 100);

        let bits = |r: &TransientResult| -> Vec<u64> {
            let w = r.waveform(vout);
            w.time()
                .iter()
                .chain(w.values())
                .map(|v| v.to_bits())
                .collect()
        };
        let work = |r: &TransientResult| {
            let s = r.stats();
            [
                s.factorizations,
                s.solves,
                s.newton_iterations,
                s.steps_accepted,
                s.steps_rejected,
            ]
        };
        for (die, streamed) in &sampled {
            let solo = transient_queue(&[&die_ckt(*die)], 1, &spec)
                .unwrap()
                .remove(0);
            assert_eq!(bits(&solo), bits(streamed), "die {die}: waveform bits");
            assert_eq!(work(&solo), work(streamed), "die {die}: counters");
            assert_eq!(solo.stopped_early(), streamed.stopped_early(), "die {die}");
            assert_eq!(solo.steps_taken(), streamed.steps_taken(), "die {die}");
        }
    }
}
