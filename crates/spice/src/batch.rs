//! Lane-batched transient analysis: a die queue streamed through K
//! asynchronous SIMD lanes.
//!
//! A Monte-Carlo population simulates hundreds of dies that share one
//! netlist and differ only in element *values* (process variation
//! perturbs threshold voltages and geometries, never connectivity). The
//! scalar engine pays the full per-transient cost per die; this module
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
//! Unlike the v1 lockstep engine (which marched all lanes on one shared
//! time grid, `dt = min` over lane proposals), lanes here are
//! **asynchronous**: the lockstep unit is one Newton *iteration*, not one
//! time step. Every lane carries its own clock, step size, Newton state,
//! integration history and factorization-staleness budget, and follows
//! the scalar engine's policies *per lane* — same Newton delta form,
//! damping, stall/staleness refresh, LTE test and step bounds, applied to
//! that lane alone. Each super-iteration assembles all lanes at their own
//! `(x, t)` trial points, performs one vectorized residual + solve, and
//! retires/advances lanes individually. Because every per-lane decision
//! depends only on that lane's values, **a die's trajectory is
//! bit-identical regardless of lane count, lane index, or which dies ride
//! alongside it** — the property the refill scheduler and the
//! chunked-vs-streamed cross-checks rely on.
//!
//! **Refill:** [`transient_queue`] seats the first K dies of the
//! population into the K lanes; whenever a lane finishes (its stop
//! condition fires or it reaches `t_stop`), the next queued die is seated
//! into that lane *mid-flight* — state, element values, device-bank
//! parameters and factorization flags are re-seeded from the incoming
//! die — so lanes never idle while work remains. Occupancy is observed
//! per super-iteration in the `mc.batch_occupancy` histogram, and the
//! `mc.dt_drag` histogram records, per accepted lane-step, the ratio of
//! the lane's accepted `dt` to the smallest `dt` among co-resident busy
//! lanes — the slow-lane drag a lockstep grid would have imposed (the
//! asynchronous engine grants every proposal, so this is the drag it
//! *eliminates*; cohort scheduling in `rotsv-core` shrinks it further by
//! co-seating dies of similar variation magnitude).
//!
//! The only shared numerical object is the symbolic pivot order. In the
//! pathological case where a lane's values defeat it, the re-analysis
//! replaces the order for every lane ([`BatchedLu::refactor_masked`]
//! reports this) and co-resident lanes get freshly factored — their
//! Newton iterations remain correct (the delta formulation tolerates any
//! factorization) but their trajectories may then differ from a solo run.
//! This never happens on the workloads in this repository and the scalar
//! engine has the same per-die fallback.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rotsv_num::linsolve::SolveError;
use rotsv_num::simd::{ScalarLanes, Simd};
use rotsv_num::sparse::{
    AnalyzeOptions, BatchedLu, SolverStats, SparseMatrix, SymbolicCache, SymbolicLu,
};

use crate::circuit::{Circuit, Element};
use crate::device::{BatchedDeviceEval, DeviceStamp, NonlinearDevice};
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

/// How one nonlinear-device slot evaluates its K lanes.
enum DeviceKind {
    /// Structure-of-arrays lockstep kernel.
    Batched(Box<dyn BatchedDeviceEval>),
    /// Per-lane scalar fallback through [`NonlinearDevice::eval`].
    PerLane(DeviceStamp),
}

/// One nonlinear-device slot across all lanes.
struct BatchDevice {
    nodes: Vec<NodeId>,
    kind: DeviceKind,
}

/// Reusable assembly/factorization workspace for a K-lane batch over an
/// N-die population (`lane_die` maps each lane to its current die).
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
    /// CSR value-slot replay sequence, identical to the scalar engine's.
    slots: Vec<usize>,
    elems: Vec<BatchElem>,
    devices: Vec<BatchDevice>,
    /// Lane-interleaved scratch of the device being stamped, shared by
    /// every device (each is evaluated and stamped before the next):
    /// `terminals * k` trial voltages, `terminals * k` terminal currents
    /// and `terminals² * k` Jacobian entries `[(r*t + c)*k + lane]`.
    vbuf: Vec<f64>,
    cbuf: Vec<f64>,
    jbuf: Vec<f64>,
    lu: Option<BatchedLu>,
    cache: Option<Arc<SymbolicCache>>,
    /// Analysis options shared by every lane (inherited from the first
    /// circuit of the population).
    opts: AnalyzeOptions,
    /// Which die occupies each lane (index into the population).
    lane_die: Vec<usize>,
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
    /// `k` per-terminal rhs scratch.
    rhs: Vec<f64>,
    /// Per-**die** work counters (population order, length N).
    stats: Vec<SolverStats>,
    /// Engine-session id tagging this workspace's lane events
    /// ([`rotsv_obs::lane_operand`]).
    session: u32,
}

/// The die population an engine streams: either borrowed up front (the
/// [`transient_queue`] form, population known and fixed) or owned and
/// grown mid-run as a [`transient_stream`] source hands over newly
/// admitted dies.
enum Population<'a> {
    /// The whole population, borrowed at construction.
    Borrowed(&'a [&'a Circuit]),
    /// An owned population that grows as the source yields circuits.
    Streamed(Vec<Arc<Circuit>>),
}

impl Population<'_> {
    fn len(&self) -> usize {
        match self {
            Population::Borrowed(s) => s.len(),
            Population::Streamed(v) => v.len(),
        }
    }

    fn get(&self, die: usize) -> &Circuit {
        match self {
            Population::Borrowed(s) => s[die],
            Population::Streamed(v) => &v[die],
        }
    }

    /// Borrows every die (construction-time use only; the hot paths
    /// index through [`Population::get`]).
    fn refs(&self) -> Vec<&Circuit> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    fn push(&mut self, ckt: Arc<Circuit>) {
        match self {
            Population::Streamed(v) => v.push(ckt),
            Population::Borrowed(_) => {
                unreachable!("only a streaming engine pulls from a source")
            }
        }
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
    /// Builds a K-lane workspace over the population `ckts`, seating dies
    /// `0..k` into the lanes initially.
    fn new(ckts: &[&Circuit], k: usize) -> Result<Self, SpiceError> {
        validate_topology(ckts)?;
        let c0 = ckts[0];
        let n = c0.unknown_count();
        let coords = stamp_coords(c0);
        let (pattern, slots) = SparseMatrix::from_coords(n, &coords);
        let seated = &ckts[..k];

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
                    let lanes: Vec<&dyn NonlinearDevice> = seated
                        .iter()
                        .map(|c| match &c.elements[ei] {
                            Element::Nonlinear(d) => d.as_ref(),
                            _ => unreachable!("validated topology"),
                        })
                        .collect();
                    let nt = d0.nodes().len();
                    let kind = match d0.batch_with(&lanes) {
                        Some(b) => DeviceKind::Batched(b),
                        None => DeviceKind::PerLane(DeviceStamp::new(nt)),
                    };
                    devices.push(BatchDevice {
                        nodes: d0.nodes().to_vec(),
                        kind,
                    });
                    BatchElem::Device(devices.len() - 1)
                }
            });
        }

        let nt = devices.iter().map(|d| d.nodes.len()).max().unwrap_or(0);
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
            vbuf: vec![0.0; nt * k],
            cbuf: vec![0.0; nt * k],
            jbuf: vec![0.0; nt * nt * k],
            lu: None,
            cache: c0.symbolic_cache().cloned(),
            opts: c0.solver_options(),
            lane_die: (0..k).collect(),
            lu_valid: vec![false; k],
            factored_once: vec![false; k],
            refactor_mask: vec![false; k],
            resid: vec![0.0; n * k],
            rhs: vec![0.0; k],
            stats: vec![SolverStats::default(); ckts.len()],
            session: rotsv_obs::next_session(),
        })
    }

    /// Seats `die` into `lane`: re-extracts that lane's element values
    /// (conductances, waveforms), re-seats or rebuilds the device banks,
    /// and invalidates the lane's stored LU factors. The caller re-seeds
    /// the dynamic state (`x`, capacitor history, lane clock).
    fn reseat_lane(&mut self, ckts: &Population, lane: usize, die: usize) {
        self.lane_die[lane] = die;
        self.lu_valid[lane] = false;
        self.factored_once[lane] = false;
        let c = ckts.get(die);
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
                BatchElem::Device(di) => {
                    let Element::Nonlinear(d) = &c.elements[ei] else {
                        unreachable!("validated topology");
                    };
                    let dev = &mut self.devices[*di];
                    let rebuild = match &mut dev.kind {
                        // O(1) in-place re-seat when the bank accepts the
                        // incoming device (uniform shared parameters).
                        DeviceKind::Batched(bank) => !bank.reseat_lane(lane, d.as_ref()),
                        // Per-lane fallback reads `ckts[lane_die[lane]]`
                        // directly at stamp time — nothing to update.
                        DeviceKind::PerLane(_) => false,
                    };
                    if rebuild {
                        let lanes_refs: Vec<&dyn NonlinearDevice> = self
                            .lane_die
                            .iter()
                            .map(|&ld| match &ckts.get(ld).elements[ei] {
                                Element::Nonlinear(dd) => dd.as_ref(),
                                _ => unreachable!("validated topology"),
                            })
                            .collect();
                        dev.kind = match lanes_refs[0].batch_with(&lanes_refs) {
                            Some(b) => DeviceKind::Batched(b),
                            None => DeviceKind::PerLane(DeviceStamp::new(dev.nodes.len())),
                        };
                    }
                }
            }
        }
    }

    /// Adds per-lane values into one CSR slot.
    #[inline]
    fn add_lanes(values: &mut [f64], k: usize, slot: usize, g: &[f64], sign: f64) {
        let dst = &mut values[slot * k..(slot + 1) * k];
        for lane in 0..k {
            dst[lane] += sign * g[lane];
        }
    }

    /// Stamps a two-terminal conductance (per-lane values `g`) following
    /// the scalar engine's slot order; returns the advanced cursor.
    fn stamp_conductance(&mut self, mut cursor: usize, a: NodeId, b: NodeId, g: &[f64]) -> usize {
        let k = self.k;
        match (row_of(a), row_of(b)) {
            (Some(_), Some(_)) => {
                Self::add_lanes(&mut self.values, k, self.slots[cursor], g, 1.0);
                Self::add_lanes(&mut self.values, k, self.slots[cursor + 1], g, 1.0);
                Self::add_lanes(&mut self.values, k, self.slots[cursor + 2], g, -1.0);
                Self::add_lanes(&mut self.values, k, self.slots[cursor + 3], g, -1.0);
                cursor += 4;
            }
            (Some(_), None) | (None, Some(_)) => {
                Self::add_lanes(&mut self.values, k, self.slots[cursor], g, 1.0);
                cursor += 1;
            }
            (None, None) => {}
        }
        cursor
    }

    /// Dispatches to the monomorphized assembly for the common lane
    /// counts; the dynamic body is the fallback (and the reference: each
    /// pair of arms performs bit-identical per-lane arithmetic).
    fn assemble(&mut self, ckts: &Population, x: &[f64], t: &[f64], companions: &[(f64, f64)]) {
        match self.k {
            1 => self.assemble_k::<1>(ckts, x, t, companions),
            2 => self.assemble_k::<2>(ckts, x, t, companions),
            3 => self.assemble_k::<3>(ckts, x, t, companions),
            4 => self.assemble_k::<4>(ckts, x, t, companions),
            5 => self.assemble_k::<5>(ckts, x, t, companions),
            6 => self.assemble_k::<6>(ckts, x, t, companions),
            7 => self.assemble_k::<7>(ckts, x, t, companions),
            8 => self.assemble_k::<8>(ckts, x, t, companions),
            16 => self.assemble_k::<16>(ckts, x, t, companions),
            32 => self.assemble_k::<32>(ckts, x, t, companions),
            64 => self.assemble_k::<64>(ckts, x, t, companions),
            _ => self.assemble_dyn(ckts, x, t, companions),
        }
    }

    /// Monomorphized assembly for `K == self.k`: dispatches the lane
    /// sweeps to the widest SIMD arm `K` is a multiple of. Identical
    /// stamp order and per-lane arithmetic to
    /// [`BatchWorkspace::assemble_dyn`] on every arm, so the dispatch
    /// decision never changes a transient.
    fn assemble_k<const K: usize>(
        &mut self,
        ckts: &Population,
        x: &[f64],
        t: &[f64],
        companions: &[(f64, f64)],
    ) {
        debug_assert_eq!(self.k, K);
        #[cfg(target_arch = "x86_64")]
        {
            use rotsv_num::simd::{self, Level};
            let level = simd::level();
            if K.is_multiple_of(8) && level == Level::Avx512 {
                // SAFETY: `level()` is clamped to detected features.
                return unsafe { self.assemble_avx512::<K>(ckts, x, t, companions) };
            }
            if K.is_multiple_of(4) && level >= Level::Avx2 {
                // SAFETY: `level()` is clamped to detected features.
                return unsafe { self.assemble_avx2::<K>(ckts, x, t, companions) };
            }
        }
        // SAFETY: the scalar arm has no ISA requirements.
        unsafe { self.assemble_body::<K, ScalarLanes>(ckts, x, t, companions) }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn assemble_avx512<const K: usize>(
        &mut self,
        ckts: &Population,
        x: &[f64],
        t: &[f64],
        companions: &[(f64, f64)],
    ) {
        // SAFETY: caller verified avx512f; we are in a matching region.
        unsafe { self.assemble_body::<K, rotsv_num::simd::Avx512Lanes>(ckts, x, t, companions) }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn assemble_avx2<const K: usize>(
        &mut self,
        ckts: &Population,
        x: &[f64],
        t: &[f64],
        companions: &[(f64, f64)],
    ) {
        // SAFETY: caller verified avx2; we are in a matching region.
        unsafe { self.assemble_body::<K, rotsv_num::simd::Avx2Lanes>(ckts, x, t, companions) }
    }

    /// The assembly sweep, generic over the ISA token. Each lane is
    /// evaluated at its own time `t[lane]` (lanes step asynchronously);
    /// waveform evaluation and the capacitor-companion gathers stay
    /// scalar (strided or call-bearing), the value/rhs lane loops run in
    /// `K / S::W` vector chunks.
    ///
    /// # Safety
    ///
    /// `S`'s ISA must be available and enabled in the enclosing region;
    /// `K` must be a multiple of `S::W` and equal `self.k`.
    // Lane loops deliberately index several parallel arrays by `lane`;
    // the iterator forms clippy suggests obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    unsafe fn assemble_body<const K: usize, S: Simd>(
        &mut self,
        ckts: &Population,
        x: &[f64],
        t: &[f64],
        companions: &[(f64, f64)],
    ) {
        debug_assert_eq!(K % S::W, 0);
        self.values.fill(0.0);
        self.b.fill(0.0);
        let mut cursor = 0usize;
        // SAFETY (lane chunks throughout): every `slot * K` / `row * K`
        // group is K f64s inside `self.values` / `self.b`, sized at
        // construction; chunks are W-aligned within a group.
        unsafe {
            let gmin = S::splat(self.gmin);
            for _ in 0..self.n_node_unknowns {
                let slot = self.slots[cursor];
                let dst = self.values.as_mut_ptr().add(slot * K);
                for c in (0..K).step_by(S::W) {
                    S::st(dst.add(c), S::add(S::ld(dst.add(c)), gmin));
                }
                cursor += 1;
            }
        }
        let mut cap_idx = 0usize;
        // Move the element list out so `self` stays borrowable.
        let elems = std::mem::take(&mut self.elems);
        for (ei, elem) in elems.iter().enumerate() {
            match elem {
                BatchElem::Resistor { a, b, g } => {
                    // SAFETY: propagated from the caller.
                    cursor = unsafe { self.stamp_conductance_body::<K, S>(cursor, *a, *b, g) };
                }
                BatchElem::Capacitor { a, b } => {
                    let base = cap_idx * K;
                    let mut g = [0.0; K];
                    for lane in 0..K {
                        g[lane] = companions[base + lane].0;
                    }
                    // SAFETY: propagated from the caller.
                    cursor = unsafe { self.stamp_conductance_body::<K, S>(cursor, *a, *b, &g) };
                    if let Some(ra) = row_of(*a) {
                        for lane in 0..K {
                            self.b[ra * K + lane] -= companions[base + lane].1;
                        }
                    }
                    if let Some(rb) = row_of(*b) {
                        for lane in 0..K {
                            self.b[rb * K + lane] += companions[base + lane].1;
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
                                let dst = self.values.as_mut_ptr().add(s * K);
                                for c in (0..K).step_by(S::W) {
                                    S::st(dst.add(c), S::add(S::ld(dst.add(c)), one));
                                }
                            }
                            cursor += 2;
                        }
                        if row_of(*neg).is_some() {
                            for s in [self.slots[cursor], self.slots[cursor + 1]] {
                                let dst = self.values.as_mut_ptr().add(s * K);
                                for c in (0..K).step_by(S::W) {
                                    S::st(dst.add(c), S::sub(S::ld(dst.add(c)), one));
                                }
                            }
                            cursor += 2;
                        }
                    }
                    for (lane, wave) in waves.iter().enumerate() {
                        self.b[rb * K + lane] = wave.value(t[lane]);
                    }
                }
                BatchElem::ISource { from, to, waves } => {
                    for (lane, wave) in waves.iter().enumerate() {
                        let i = wave.value(t[lane]);
                        if let Some(rf) = row_of(*from) {
                            self.b[rf * K + lane] -= i;
                        }
                        if let Some(rt) = row_of(*to) {
                            self.b[rt * K + lane] += i;
                        }
                    }
                }
                BatchElem::Device(di) => {
                    // SAFETY: propagated from the caller.
                    cursor = unsafe { self.stamp_device_body::<K, S>(ckts, ei, *di, x, cursor) };
                }
            }
        }
        self.elems = elems;
        debug_assert_eq!(cursor, self.slots.len(), "stamp replay out of sync");
    }

    /// Two-terminal conductance stamp, vector-chunked (see
    /// [`BatchWorkspace::stamp_conductance`]). The `sign * g` multiply
    /// matches the dynamic body (`-1.0 * g`, not a sign-bit flip).
    ///
    /// # Safety
    ///
    /// Same contract as [`BatchWorkspace::assemble_body`].
    #[inline(always)]
    unsafe fn stamp_conductance_body<const K: usize, S: Simd>(
        &mut self,
        mut cursor: usize,
        a: NodeId,
        b: NodeId,
        g: &[f64],
    ) -> usize {
        let g = &g[..K];
        let gp = g.as_ptr();
        // SAFETY: see the lane-chunk note in `assemble_body`.
        unsafe {
            match (row_of(a), row_of(b)) {
                (Some(_), Some(_)) => {
                    for (off, sign) in [(0, 1.0), (1, 1.0), (2, -1.0), (3, -1.0)] {
                        let sv = S::splat(sign);
                        let dst = self.values.as_mut_ptr().add(self.slots[cursor + off] * K);
                        for c in (0..K).step_by(S::W) {
                            let add = S::mul(sv, S::ld(gp.add(c)));
                            S::st(dst.add(c), S::add(S::ld(dst.add(c)), add));
                        }
                    }
                    cursor += 4;
                }
                (Some(_), None) | (None, Some(_)) => {
                    let dst = self.values.as_mut_ptr().add(self.slots[cursor] * K);
                    for c in (0..K).step_by(S::W) {
                        S::st(dst.add(c), S::add(S::ld(dst.add(c)), S::ld(gp.add(c))));
                    }
                    cursor += 1;
                }
                (None, None) => {}
            }
        }
        cursor
    }

    /// Device stamp: gather, evaluate, Norton-accumulate with the
    /// per-terminal right-hand side held in a vector register per chunk.
    /// The `tj` accumulation order per lane matches the dynamic body
    /// (chunk-outer, `tj`-inner; lanes are independent).
    ///
    /// # Safety
    ///
    /// Same contract as [`BatchWorkspace::assemble_body`].
    // Lane loops deliberately index several parallel arrays by `lane`;
    // the iterator forms clippy suggests obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    unsafe fn stamp_device_body<const K: usize, S: Simd>(
        &mut self,
        ckts: &Population,
        elem_idx: usize,
        dev_idx: usize,
        x: &[f64],
        mut cursor: usize,
    ) -> usize {
        let dev = &mut self.devices[dev_idx];
        let nt = dev.nodes.len();
        let vbuf = &mut self.vbuf[..nt * K];
        let cbuf = &mut self.cbuf[..nt * K];
        let jbuf = &mut self.jbuf[..nt * nt * K];
        for (ti, &node) in dev.nodes.iter().enumerate() {
            match row_of(node) {
                Some(r) => vbuf[ti * K..(ti + 1) * K].copy_from_slice(&x[r * K..(r + 1) * K]),
                None => vbuf[ti * K..(ti + 1) * K].fill(0.0),
            }
        }
        match &mut dev.kind {
            DeviceKind::Batched(bank) => {
                bank.eval_lanes(vbuf, cbuf, jbuf);
            }
            DeviceKind::PerLane(stamp) => {
                let mut v = vec![0.0; nt];
                for lane in 0..K {
                    let Element::Nonlinear(d) = &ckts.get(self.lane_die[lane]).elements[elem_idx]
                    else {
                        unreachable!("validated topology");
                    };
                    for ti in 0..nt {
                        v[ti] = vbuf[ti * K + lane];
                    }
                    stamp.clear();
                    d.eval(&v, stamp);
                    for ti in 0..nt {
                        cbuf[ti * K + lane] = stamp.current[ti];
                        for tj in 0..nt {
                            jbuf[(ti * nt + tj) * K + lane] = stamp.jacobian[(ti, tj)];
                        }
                    }
                }
            }
        }
        let cbp = cbuf.as_ptr();
        let jbp = jbuf.as_ptr();
        let vbp = vbuf.as_ptr();
        let vp = self.values.as_mut_ptr();
        let bp = self.b.as_mut_ptr();
        for (ti, &nk_node) in dev.nodes.iter().enumerate() {
            let Some(rk) = row_of(nk_node) else { continue };
            // Each chunk replays the `tj` sweep with its own cursor so
            // every (ti, tj) slot is stamped exactly once per chunk.
            let cursor_ti = cursor;
            // SAFETY: see the lane-chunk note in `assemble_body`; cbuf /
            // jbuf / vbuf hold nt·K / nt²·K / nt·K f64s.
            unsafe {
                for c in (0..K).step_by(S::W) {
                    let mut cur = cursor_ti;
                    let mut rhs = S::neg(S::ld(cbp.add(ti * K + c)));
                    for (tj, &nj_node) in dev.nodes.iter().enumerate() {
                        let jrow = S::ld(jbp.add((ti * nt + tj) * K + c));
                        rhs = S::add(rhs, S::mul(jrow, S::ld(vbp.add(tj * K + c))));
                        if row_of(nj_node).is_some() {
                            let slot = self.slots[cur];
                            cur += 1;
                            let dst = vp.add(slot * K + c);
                            S::st(dst, S::add(S::ld(dst), jrow));
                        }
                    }
                    let dst = bp.add(rk * K + c);
                    S::st(dst, S::add(S::ld(dst), rhs));
                    cursor = cur;
                }
            }
        }
        cursor
    }

    /// Assembles all lanes at the interleaved iterate `x`, per-lane times
    /// `t[lane]`. `companions[cap*k + lane]` holds the Norton `(geq,
    /// ieq)` pair of each capacitor (always companion mode: a batched run
    /// is always a transient). Idle lanes are stamped at their frozen
    /// state — their values stay finite and are never solved or factored.
    // Lane loops deliberately index several parallel arrays by `lane`;
    // the iterator forms clippy suggests obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    fn assemble_dyn(&mut self, ckts: &Population, x: &[f64], t: &[f64], companions: &[(f64, f64)]) {
        let k = self.k;
        self.values.fill(0.0);
        self.b.fill(0.0);
        let mut cursor = 0usize;
        for _ in 0..self.n_node_unknowns {
            let slot = self.slots[cursor];
            let dst = &mut self.values[slot * k..(slot + 1) * k];
            for lane in 0..k {
                dst[lane] += self.gmin;
            }
            cursor += 1;
        }
        let mut cap_idx = 0usize;
        // Move the element list out so `self` stays borrowable.
        let elems = std::mem::take(&mut self.elems);
        for (ei, elem) in elems.iter().enumerate() {
            match elem {
                BatchElem::Resistor { a, b, g } => {
                    cursor = self.stamp_conductance(cursor, *a, *b, g);
                }
                BatchElem::Capacitor { a, b } => {
                    let base = cap_idx * k;
                    // Reuse the rhs scratch to carry per-lane geq.
                    for lane in 0..k {
                        self.rhs[lane] = companions[base + lane].0;
                    }
                    let g = std::mem::take(&mut self.rhs);
                    cursor = self.stamp_conductance(cursor, *a, *b, &g);
                    self.rhs = g;
                    if let Some(ra) = row_of(*a) {
                        for lane in 0..k {
                            self.b[ra * k + lane] -= companions[base + lane].1;
                        }
                    }
                    if let Some(rb) = row_of(*b) {
                        for lane in 0..k {
                            self.b[rb * k + lane] += companions[base + lane].1;
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
                    if row_of(*pos).is_some() {
                        for s in [self.slots[cursor], self.slots[cursor + 1]] {
                            for lane in 0..k {
                                self.values[s * k + lane] += 1.0;
                            }
                        }
                        cursor += 2;
                    }
                    if row_of(*neg).is_some() {
                        for s in [self.slots[cursor], self.slots[cursor + 1]] {
                            for lane in 0..k {
                                self.values[s * k + lane] -= 1.0;
                            }
                        }
                        cursor += 2;
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
                    cursor = self.stamp_device(ckts, ei, *di, x, cursor);
                }
            }
        }
        self.elems = elems;
        debug_assert_eq!(cursor, self.slots.len(), "stamp replay out of sync");
    }

    /// Evaluates and stamps one device slot across all lanes.
    // Lane loops deliberately index several parallel arrays by `lane`;
    // the iterator forms clippy suggests obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    fn stamp_device(
        &mut self,
        ckts: &Population,
        elem_idx: usize,
        dev_idx: usize,
        x: &[f64],
        mut cursor: usize,
    ) -> usize {
        let k = self.k;
        let dev = &mut self.devices[dev_idx];
        let nt = dev.nodes.len();
        let vbuf = &mut self.vbuf[..nt * k];
        let cbuf = &mut self.cbuf[..nt * k];
        let jbuf = &mut self.jbuf[..nt * nt * k];
        // Gather lane-interleaved terminal voltages.
        for (ti, &node) in dev.nodes.iter().enumerate() {
            match row_of(node) {
                Some(r) => vbuf[ti * k..(ti + 1) * k].copy_from_slice(&x[r * k..(r + 1) * k]),
                None => vbuf[ti * k..(ti + 1) * k].fill(0.0),
            }
        }
        match &mut dev.kind {
            DeviceKind::Batched(bank) => {
                bank.eval_lanes(vbuf, cbuf, jbuf);
            }
            DeviceKind::PerLane(stamp) => {
                let mut v = vec![0.0; nt];
                for lane in 0..k {
                    let Element::Nonlinear(d) = &ckts.get(self.lane_die[lane]).elements[elem_idx]
                    else {
                        unreachable!("validated topology");
                    };
                    for ti in 0..nt {
                        v[ti] = vbuf[ti * k + lane];
                    }
                    stamp.clear();
                    d.eval(&v, stamp);
                    for ti in 0..nt {
                        cbuf[ti * k + lane] = stamp.current[ti];
                        for tj in 0..nt {
                            jbuf[(ti * nt + tj) * k + lane] = stamp.jacobian[(ti, tj)];
                        }
                    }
                }
            }
        }
        // Norton linearization, lane loops innermost (see the scalar
        // engine for the formulation).
        for (ti, &nk_node) in dev.nodes.iter().enumerate() {
            let Some(rk) = row_of(nk_node) else { continue };
            for lane in 0..k {
                self.rhs[lane] = -cbuf[ti * k + lane];
            }
            for (tj, &nj_node) in dev.nodes.iter().enumerate() {
                let jbase = (ti * nt + tj) * k;
                for lane in 0..k {
                    self.rhs[lane] += jbuf[jbase + lane] * vbuf[tj * k + lane];
                }
                if row_of(nj_node).is_some() {
                    let slot = self.slots[cursor];
                    cursor += 1;
                    let dst = &mut self.values[slot * k..(slot + 1) * k];
                    for lane in 0..k {
                        dst[lane] += jbuf[jbase + lane];
                    }
                }
            }
            for lane in 0..k {
                self.b[rk * k + lane] += self.rhs[lane];
            }
        }
        cursor
    }

    /// (Re)factors the lanes whose refresh policy fired (`want`),
    /// per-lane: each wanted lane whose values changed since its last
    /// factorization is swept individually (bit-identical to any other
    /// lane composition), unchanged lanes keep their factors (the scalar
    /// skip-if-unchanged, applied per lane).
    ///
    /// Counter attribution keeps population sums meaningful: symbolic
    /// analyses are charged to die 0 only (the queue performs
    /// O(topologies) analyses, not O(dies)), while factorizations are
    /// charged to the die seated in each factored lane.
    ///
    /// If pivot drift in a factored lane forces a shared re-analysis,
    /// every other lane's factors die with the old pivot order; the busy
    /// ones are refreshed here from their current assembled values (their
    /// delta-form Newton iterations stay correct with fresh factors).
    // Lane loops deliberately index several parallel arrays by `lane`;
    // the iterator forms clippy suggests obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    fn refactor_lanes(&mut self, t: f64, want: &[bool], busy: &[bool]) -> Result<(), SpiceError> {
        let k = self.k;
        let nnz = self.pattern.nnz();
        let map_err = |source| SpiceError::SingularSystem { time: t, source };
        let mut any = false;
        for lane in 0..k {
            let mut need = false;
            if want[lane] {
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
            let probe_lane = (0..k).find(|&l| self.refactor_mask[l]).unwrap_or(0);
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
            self.stats[0].symbolic_analyses += analyses;
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
            self.stats[0].symbolic_analyses += analyses;
            if analyses > 0 && rotsv_obs::events_enabled() {
                // Pivot drift forced a shared re-analysis; attribute the
                // instant to the first lane factored this round (the one
                // whose values broke the old order, or its successor).
                let culprit = (0..k).find(|&l| self.refactor_mask[l]).unwrap_or(0);
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
                self.stats[self.lane_die[lane]].factorizations += 1;
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

/// Outcome of one super-iteration for one lane.
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    /// Still iterating (or idle).
    Pending,
    /// Newton converged; step acceptance (LTE) pending.
    Converged,
    /// Newton exhausted its budget or produced a non-finite update.
    Failed,
}

/// The scalar transient-stepping state of one lane, advanced per lane
/// with exactly the scalar engine's policies.
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
    /// Newton iterations spent on the current trial step.
    iter: usize,
    prev_rnorm: f64,
    prev_damped: bool,
    /// Iterations since this lane's factors were refreshed.
    stale_iters: usize,
    /// Rising crossings seen so far (stop condition).
    crossings: usize,
    /// Stop-node voltage at the previous accepted step.
    stop_prev: f64,
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

/// The asynchronous K-lane engine streaming an N-die queue.
struct QueueEngine<'a> {
    ckts: Population<'a>,
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
    /// `caps * k` per-lane Norton companions of the current trial step.
    companions: Vec<(f64, f64)>,
    /// `caps * k` per-lane integration history.
    caps: Vec<CapLane>,
    /// `k` per-lane evaluation times (busy: trial end; idle: frozen).
    t_eval: Vec<f64>,
    lanes: Vec<LaneState>,
    /// Per-die recording (population order).
    time: Vec<Vec<f64>>,
    columns: Vec<BTreeMap<NodeId, Vec<f64>>>,
    current_columns: Vec<BTreeMap<usize, Vec<f64>>>,
    stopped_early: Vec<bool>,
    steps_taken: Vec<usize>,
    /// Next queued die (population index).
    next_die: usize,
    /// Recorded-node template, kept so streamed dies admitted mid-run
    /// get the same column layout as the initial population.
    record_nodes: Vec<NodeId>,
    /// Streaming source, pulled (non-blockingly) at lane retirement
    /// once the initial population is exhausted.
    source: Option<&'a mut dyn FnMut() -> Option<Arc<Circuit>>>,
    /// Streaming sink: each die's result is delivered the moment it
    /// retires, keeping recorded waveforms O(active lanes).
    sink: Option<&'a mut dyn FnMut(usize, TransientResult)>,
    /// Dies delivered through `sink`.
    delivered: usize,
}

impl<'a> QueueEngine<'a> {
    fn new(ckts: Population<'a>, k: usize, spec: &'a TransientSpec) -> Result<Self, SpiceError> {
        let ws = {
            let refs = ckts.refs();
            BatchWorkspace::new(&refs, k)?
        };
        let n = ws.n;
        let n_node_unknowns = ws.n_node_unknowns;
        let n_dies = ckts.len();

        let mut x0 = vec![0.0f64; n];
        for &(node, v) in &spec.initial_voltages {
            if let Some(r) = row_of(node) {
                x0[r] = v;
            }
        }

        let cap_nodes: Vec<(NodeId, NodeId)> = ckts
            .get(0)
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::Capacitor { a, b, .. } => Some((*a, *b)),
                _ => None,
            })
            .collect();
        let n_caps = cap_nodes.len();

        let record_nodes: Vec<NodeId> = if spec.record_nodes.is_empty() {
            (0..ckts.get(0).node_count()).map(NodeId).collect()
        } else {
            let mut nodes = spec.record_nodes.clone();
            nodes.sort_unstable();
            nodes.dedup();
            nodes
        };
        let columns: Vec<BTreeMap<NodeId, Vec<f64>>> = (0..n_dies)
            .map(|_| record_nodes.iter().map(|&nd| (nd, Vec::new())).collect())
            .collect();
        let current_columns: Vec<BTreeMap<usize, Vec<f64>>> = (0..n_dies)
            .map(|_| {
                spec.record_currents
                    .iter()
                    .map(|vs| (vs.0, Vec::new()))
                    .collect()
            })
            .collect();

        Ok(Self {
            ckts,
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
            companions: vec![(0.0, 0.0); n_caps * k],
            caps: vec![CapLane::default(); n_caps * k],
            t_eval: vec![0.0; k],
            lanes: vec![
                LaneState {
                    busy: false,
                    phase: LanePhase::StartStep,
                    t: 0.0,
                    t_next: 0.0,
                    dt_try: spec.dt,
                    dt_next: spec.dt,
                    dt_prev: spec.dt,
                    has_hist: false,
                    steps: 0,
                    halvings: 0,
                    iter: 0,
                    prev_rnorm: f64::INFINITY,
                    prev_damped: false,
                    stale_iters: 0,
                    crossings: 0,
                    stop_prev: 0.0,
                };
                k
            ],
            time: vec![Vec::new(); n_dies],
            columns,
            current_columns,
            stopped_early: vec![false; n_dies],
            steps_taken: vec![0usize; n_dies],
            next_die: 0,
            record_nodes,
            source: None,
            sink: None,
            delivered: 0,
        })
    }

    /// Appends the current accepted state of `lane` to its die's record.
    fn record(&mut self, die: usize, lane: usize, t: f64) {
        let k = self.k;
        self.time[die].push(t);
        for (&node, col) in self.columns[die].iter_mut() {
            col.push(match row_of(node) {
                Some(r) => self.x[r * k + lane],
                None => 0.0,
            });
        }
        for (&branch, col) in self.current_columns[die].iter_mut() {
            col.push(self.x[(self.n_node_unknowns + branch) * k + lane]);
        }
    }

    /// Seats `die` into `lane` at its own t = 0: re-seeds the unknown
    /// vector, capacitor values and history, lane clock and stop
    /// tracking, re-extracts the lane's element values and device-bank
    /// parameters, and invalidates the lane's factors. The incoming
    /// die's variation deltas and waveforms come from its own circuit
    /// (index-deterministic per die), so trajectories are independent of
    /// when and where the die is seated.
    fn seat(&mut self, lane: usize, die: usize) {
        let k = self.k;
        for i in 0..self.n {
            self.x[i * k + lane] = self.x0[i];
            self.x_try[i * k + lane] = self.x0[i];
        }
        let c = self.ckts.get(die);
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
        self.lanes[lane] = LaneState {
            busy: true,
            phase: LanePhase::StartStep,
            t: 0.0,
            t_next: 0.0,
            dt_try: self.spec.dt,
            dt_next: self.spec.dt,
            dt_prev: self.spec.dt,
            has_hist: false,
            steps: 0,
            halvings: 0,
            iter: 0,
            prev_rnorm: f64::INFINITY,
            prev_damped: false,
            stale_iters: 0,
            crossings: 0,
            stop_prev,
        };
        self.ws.reseat_lane(&self.ckts, lane, die);
        self.record(die, lane, 0.0);
    }

    /// Seats dies `0..k` into the lanes at engine start.
    fn seat_initial(&mut self) {
        let ring = rotsv_obs::events_enabled();
        for lane in 0..self.k {
            if ring {
                rotsv_obs::record_event(
                    rotsv_obs::EventKind::LaneSeat,
                    rotsv_obs::lane_operand(self.ws.session, lane),
                    lane as u32,
                    0.0,
                );
            }
            self.seat(lane, lane);
        }
        self.next_die = self.k;
    }

    /// The super-iteration loop: one Newton iteration across all busy
    /// lanes per pass, with per-lane trial setup, step acceptance,
    /// retirement and refill around it.
    // Lane loops deliberately index several parallel arrays by `lane`;
    // the iterator forms clippy suggests obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    fn run(&mut self) -> Result<(), SpiceError> {
        let opts = NewtonOpts {
            max_iterations: self.spec.max_newton,
            ..NewtonOpts::default()
        };
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
        let occupancy_hist =
            rotsv_obs::metrics_enabled().then(|| rotsv_obs::histogram("mc.batch_occupancy"));
        let drag_hist = rotsv_obs::metrics_enabled().then(|| rotsv_obs::histogram("mc.dt_drag"));
        // Same per-accepted-step observations the scalar transient makes,
        // so manifests keep these histograms regardless of engine choice.
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

        let mut delta = vec![0.0f64; n * k];
        let mut rnorm = vec![0.0f64; k];
        let mut want = vec![false; k];
        let mut busy = vec![false; k];
        let mut outcome = vec![Outcome::Pending; k];
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
                    self.companions[idx] = if f == 0.0 {
                        (0.0, 0.0)
                    } else if use_trap {
                        let geq = 2.0 * f / ls.dt_try;
                        (geq, -(geq * c.v + c.i))
                    } else {
                        let geq = f / ls.dt_try;
                        (geq, -geq * c.v)
                    };
                }
                // Linear extrapolation start (the scalar predictor),
                // else restart from the last accepted solution.
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
                let ls = &mut self.lanes[lane];
                ls.iter = 0;
                ls.prev_rnorm = f64::INFINITY;
                ls.prev_damped = false;
                ls.phase = LanePhase::Newton;
            }

            // One Newton iteration across all busy lanes: assemble every
            // lane at its own (x_try, t), one vectorized residual + solve.
            for lane in 0..k {
                if busy[lane] {
                    self.ws.stats[self.ws.lane_die[lane]].newton_iterations += 1;
                }
            }
            self.ws
                .assemble(&self.ckts, &self.x_try, &self.t_eval, &self.companions);
            let mut resid = std::mem::take(&mut self.ws.resid);
            self.ws
                .pattern
                .mul_vec_lanes_into(&self.ws.values, k, &self.x_try, &mut resid);
            for (ri, bi) in resid.iter_mut().zip(&self.ws.b) {
                *ri = *bi - *ri;
            }
            rnorm.fill(0.0);
            for i in 0..n {
                for (lane, rn) in rnorm.iter_mut().enumerate() {
                    *rn = rn.max(resid[i * k + lane].abs());
                }
            }
            // Per-lane refresh policy, exactly the scalar rules applied
            // to each lane's own state.
            for lane in 0..k {
                want[lane] = false;
                if !busy[lane] {
                    continue;
                }
                let ls = self.lanes[lane];
                let stalled = !ls.prev_damped && rnorm[lane] > STALL_RATIO * ls.prev_rnorm;
                want[lane] = !self.ws.lu_valid[lane]
                    || ls.stale_iters >= opts.max_stale
                    || stalled
                    || ls.prev_damped;
            }
            let t_repr = (0..k)
                .find(|&l| want[l])
                .map(|l| self.t_eval[l])
                .unwrap_or(0.0);
            if let Err(e) = self.ws.refactor_lanes(t_repr, &want, &busy) {
                self.ws.resid = resid;
                return Err(e);
            }
            for lane in 0..k {
                if busy[lane] {
                    if want[lane] {
                        self.lanes[lane].stale_iters = 0;
                    } else {
                        self.lanes[lane].stale_iters += 1;
                    }
                }
            }
            delta.copy_from_slice(&resid);
            self.ws.resid = resid;
            self.ws
                .lu
                .as_mut()
                .expect("factorization exists after refactor")
                .solve_in_place(&mut delta);
            for lane in 0..k {
                if busy[lane] {
                    self.ws.stats[self.ws.lane_die[lane]].solves += 1;
                    self.lanes[lane].prev_rnorm = rnorm[lane];
                }
            }

            // Per-lane convergence, damping and update application.
            for lane in 0..k {
                outcome[lane] = Outcome::Pending;
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
                    outcome[lane] = Outcome::Failed;
                    continue;
                }
                let mut converged = max_dv <= opts.v_abstol;
                if !converged {
                    converged = (0..n_nodes).all(|i| {
                        let d = delta[i * k + lane];
                        d.abs()
                            <= opts.v_abstol + opts.reltol * (self.x_try[i * k + lane] + d).abs()
                    });
                }
                if converged {
                    for i in 0..n {
                        self.x_try[i * k + lane] += delta[i * k + lane];
                    }
                    outcome[lane] = Outcome::Converged;
                    continue;
                }
                let damped = max_dv > opts.v_step_limit;
                let s = if damped {
                    opts.v_step_limit / max_dv
                } else {
                    1.0
                };
                for i in 0..n {
                    self.x_try[i * k + lane] += s * delta[i * k + lane];
                }
                let ls = &mut self.lanes[lane];
                ls.prev_damped = damped;
                ls.iter += 1;
                if ls.iter >= opts.max_iterations {
                    outcome[lane] = Outcome::Failed;
                }
            }

            // The smallest trial dt among busy lanes: the lockstep grid a
            // v1-style engine would have imposed on everyone.
            let mut min_dt = f64::INFINITY;
            for lane in 0..k {
                if busy[lane] {
                    min_dt = min_dt.min(self.lanes[lane].dt_try);
                }
            }

            let now = Instant::now();
            let n_busy = busy.iter().filter(|&&b| b).count();
            let share = (now - lap).as_secs_f64() / n_busy as f64;
            lap = now;
            for lane in (0..k).filter(|&l| busy[l]) {
                self.ws.stats[self.ws.lane_die[lane]].wall_seconds += share;
            }

            // Step outcomes: LTE accept/reject, retirement, refill.
            for lane in 0..k {
                match outcome[lane] {
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
                                    self.ws.stats[self.ws.lane_die[lane]].steps_rejected += 1;
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
                            let (geq, ieq) = self.companions[idx];
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
                        let die = self.ws.lane_die[lane];
                        self.ws.stats[die].steps_accepted += 1;
                        self.steps_taken[die] += 1;
                        let t_now = self.lanes[lane].t;
                        self.record(die, lane, t_now);
                        if let Some(h) = &drag_hist {
                            h.observe(self.lanes[lane].dt_prev / min_dt);
                        }
                        if let Some(h) = &newton_hist {
                            // `iter` counts the non-converging iterations of
                            // this attempt; the converging one makes +1,
                            // matching the scalar engine's per-solve count.
                            h.observe((ls.iter + 1) as f64);
                        }
                        if let Some(h) = &lte_hist {
                            h.observe(self.lanes[lane].dt_prev);
                        }
                        if ring {
                            rotsv_obs::record_event(
                                rotsv_obs::EventKind::StepAccepted,
                                lane_op(lane),
                                (ls.iter + 1) as u32,
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
                            self.stopped_early[die] = early;
                            self.lanes[lane].busy = false;
                            if ring {
                                rotsv_obs::record_event(
                                    rotsv_obs::EventKind::LaneRetire,
                                    lane_op(lane),
                                    die as u32,
                                    0.0,
                                );
                            }
                            if self.sink.is_some() {
                                self.deliver(die);
                            }
                            if let Some(incoming) = self.pull_next()? {
                                if ring {
                                    rotsv_obs::record_event(
                                        rotsv_obs::EventKind::LaneRefill,
                                        lane_op(lane),
                                        incoming as u32,
                                        0.0,
                                    );
                                }
                                self.seat(lane, incoming);
                            }
                        } else {
                            self.lanes[lane].phase = LanePhase::StartStep;
                        }
                    }
                    Outcome::Failed => {
                        self.ws.stats[self.ws.lane_die[lane]].steps_rejected += 1;
                        let ls = &mut self.lanes[lane];
                        if adaptive.is_some() {
                            if ls.dt_try <= dt_min * (1.0 + 1e-9) {
                                return Err(SpiceError::NoConvergence {
                                    analysis: "transient_queue",
                                    time: ls.t_next,
                                    iterations: opts.max_iterations,
                                });
                            }
                            ls.dt_try = (ls.dt_try * 0.5).max(dt_min);
                        } else {
                            ls.halvings += 1;
                            if ls.halvings > MAX_HALVINGS {
                                return Err(SpiceError::NoConvergence {
                                    analysis: "transient_queue",
                                    time: ls.t_next,
                                    iterations: opts.max_iterations,
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

    /// Hands a retired die's recorded waveforms to the streaming sink.
    /// The per-die vectors are taken, not cloned, so a long-running
    /// stream holds recorded data only for dies still in flight.
    /// `wall_seconds` is the die's share of the super-iterations it ran
    /// in (see [`QueueEngine::run`]).
    fn deliver(&mut self, die: usize) {
        let time = std::mem::take(&mut self.time[die]);
        let columns = std::mem::take(&mut self.columns[die]);
        let current_columns = std::mem::take(&mut self.current_columns[die]);
        let stats = self.ws.stats[die];
        let res = TransientResult::from_parts(
            time,
            columns,
            current_columns,
            self.stopped_early[die],
            self.steps_taken[die],
            stats,
        );
        if let Some(sink) = self.sink.as_deref_mut() {
            sink(die, res);
        }
        self.delivered += 1;
    }

    /// Picks the next die to seat: the remaining initial population
    /// first, then (in streaming mode) one non-blocking pull from the
    /// source. A sourced circuit is topology-checked against die 0 and
    /// given freshly grown per-die recording storage.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] when the source yields a
    /// circuit whose topology differs from the population's.
    fn pull_next(&mut self) -> Result<Option<usize>, SpiceError> {
        if self.next_die < self.ckts.len() {
            let die = self.next_die;
            self.next_die += 1;
            return Ok(Some(die));
        }
        let Some(source) = self.source.as_deref_mut() else {
            return Ok(None);
        };
        let Some(ckt) = source() else {
            return Ok(None);
        };
        validate_topology(&[self.ckts.get(0), ckt.as_ref()])?;
        self.ckts.push(ckt);
        self.time.push(Vec::new());
        self.columns.push(
            self.record_nodes
                .iter()
                .map(|&nd| (nd, Vec::new()))
                .collect(),
        );
        self.current_columns.push(
            self.spec
                .record_currents
                .iter()
                .map(|vs| (vs.0, Vec::new()))
                .collect(),
        );
        self.stopped_early.push(false);
        self.steps_taken.push(0);
        self.ws.stats.push(SolverStats::default());
        let die = self.next_die;
        self.next_die += 1;
        Ok(Some(die))
    }

    /// Consumes the engine into per-die results, in population order.
    /// `wall_seconds` is as in [`QueueEngine::deliver`].
    fn into_results(self) -> Vec<TransientResult> {
        let mut out = Vec::with_capacity(self.ckts.len());
        for (die, ((time, columns), current_columns)) in self
            .time
            .into_iter()
            .zip(self.columns)
            .zip(self.current_columns)
            .enumerate()
        {
            out.push(TransientResult::from_parts(
                time,
                columns,
                current_columns,
                self.stopped_early[die],
                self.steps_taken[die],
                self.ws.stats[die],
            ));
        }
        out
    }
}

fn validate_spec(ckts: &[&Circuit], spec: &TransientSpec) -> Result<(), SpiceError> {
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
    if spec.start_from_dcop {
        return Err(SpiceError::InvalidSpec(
            "batched transient does not support start_from_dcop".into(),
        ));
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
    for &(node, _) in &spec.initial_voltages {
        if node.index() >= ckts[0].node_count() {
            return Err(SpiceError::InvalidCircuit(format!(
                "initial condition on unknown node {node}"
            )));
        }
    }
    Ok(())
}

/// Streams the `ckts` die queue through `lanes` SIMD lanes with
/// mid-transient refill: when a lane's die finishes (stop condition or
/// `t_stop`), the next queued die is seated into the lane immediately, so
/// lanes stay busy until the queue drains. `lanes == ckts.len()` is one
/// fixed batch (no refill); `lanes == 1` is one die at a time. Results
/// are returned in population order.
///
/// Each die's trajectory follows the scalar stepping policies
/// independently, so the per-die results are **bit-identical** at any
/// lane count — refill and lane assignment are pure scheduling. All
/// lanes share `spec` (grid, stop condition, recorded nodes); lanes
/// differ through their circuits' element values. Per-lane
/// [`SolverStats`] attribute symbolic analyses to die 0 only and split
/// each super-iteration's wall time over the lanes busy in it, so
/// summing dies matches the session totals.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidCircuit`] when the lanes' topologies
/// differ, [`SpiceError::InvalidSpec`] for a bad grid or a
/// `start_from_dcop` request (the lane engine starts from
/// `initial_voltages` only — ring measurements never use a dcop seed),
/// and the scalar engine's convergence/singularity errors otherwise; an
/// unrecoverable lane (Newton failure at the minimum step, singular
/// system) aborts the whole queue.
pub fn transient_queue(
    ckts: &[&Circuit],
    lanes: usize,
    spec: &TransientSpec,
) -> Result<Vec<TransientResult>, SpiceError> {
    if ckts.is_empty() {
        return Ok(Vec::new());
    }
    validate_spec(ckts, spec)?;
    let k = lanes.clamp(1, ckts.len());
    let span = rotsv_obs::span!("transient_queue", "k" = k);
    let _ = &span;
    let mut eng = QueueEngine::new(Population::Borrowed(ckts), k, spec)?;
    let ring = rotsv_obs::events_enabled();
    let dropped_before = ring.then(|| rotsv_obs::event_ring().dropped());
    eng.seat_initial();
    eng.run()?;
    // First-class drop accounting: anything the ring shed during this
    // run surfaces as a counter the agreement suite asserts to be zero.
    if let Some(before) = dropped_before {
        if rotsv_obs::metrics_enabled() {
            let delta = rotsv_obs::event_ring().dropped().saturating_sub(before);
            rotsv_obs::metrics::counter("mc.ring_dropped_events").add(delta);
        }
    }
    Ok(eng.into_results())
}

/// Open-ended streaming form of [`transient_queue`]: lanes refill from
/// `source` instead of a fixed population, and each die's result is
/// handed to `sink` the moment its lane retires.
///
/// This is the continuous-batching seam a resident screening server
/// builds on — retired lanes pull the next admitted die mid-transient,
/// so the engine never drains between requests that share a topology.
/// `source` is polled **non-blockingly** at each retirement (and once
/// up-front to top the initial batch up to `lanes`); returning `None`
/// leaves the lane idle for the rest of the session — a server source
/// should pop from its admission queue without waiting, and start a new
/// engine session when more work arrives after a drain. `sink` receives
/// `(die_index, result)` in retirement order (not population order);
/// indices count from 0 over `initial` then each sourced circuit in
/// pull order. Recorded waveforms are moved into the sink as dies
/// retire, so memory stays proportional to the active lanes, not the
/// session length. Each result's `wall_seconds` is the die's share of
/// the super-iterations it ran in (each iteration's wall split over its
/// busy lanes), so the dies of a session sum to the session's wall, as
/// [`transient_queue`]'s do.
///
/// Per-die trajectories are bit-identical to [`transient_queue`] over
/// the same circuits: every stepping decision
/// is per-lane, so admission order and lane assignment are pure
/// scheduling (see the module docs on composition independence).
///
/// Returns the number of dies completed and delivered to `sink`.
///
/// # Errors
///
/// As [`transient_queue`], plus [`SpiceError::InvalidCircuit`] when
/// `source` yields a circuit whose topology differs from the first
/// die's. With an empty `initial` the source is polled once; if it
/// yields nothing, the call returns `Ok(0)`.
pub fn transient_stream(
    initial: Vec<Arc<Circuit>>,
    lanes: usize,
    spec: &TransientSpec,
    source: &mut dyn FnMut() -> Option<Arc<Circuit>>,
    sink: &mut dyn FnMut(usize, TransientResult),
) -> Result<usize, SpiceError> {
    let mut pop = initial;
    if pop.is_empty() {
        match source() {
            Some(ckt) => pop.push(ckt),
            None => return Ok(0),
        }
    }
    // Top the batch up to the lane count before construction so the
    // engine starts as full as the queue allows.
    while pop.len() < lanes {
        match source() {
            Some(ckt) => pop.push(ckt),
            None => break,
        }
    }
    {
        let refs: Vec<&Circuit> = pop.iter().map(|c| c.as_ref()).collect();
        validate_spec(&refs, spec)?;
    }
    let k = lanes.clamp(1, pop.len());
    let span = rotsv_obs::span!("transient_stream", "k" = k);
    let _ = &span;
    let ring = rotsv_obs::events_enabled();
    let dropped_before = ring.then(|| rotsv_obs::event_ring().dropped());
    let mut eng = QueueEngine::new(Population::Streamed(pop), k, spec)?;
    eng.source = Some(source);
    eng.sink = Some(sink);
    eng.seat_initial();
    eng.run()?;
    if let Some(before) = dropped_before {
        if rotsv_obs::metrics_enabled() {
            let delta = rotsv_obs::event_ring().dropped().saturating_sub(before);
            rotsv_obs::metrics::counter("mc.ring_dropped_events").add(delta);
        }
    }
    Ok(eng.delivered)
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

    #[test]
    fn batched_rc_matches_scalar_per_lane() {
        // Three RC lanes with different time constants; fixed grid so the
        // scalar and batched runs share every time point exactly.
        let lanes = [(1e3, 1e-9), (1.3e3, 1e-9), (1e3, 0.7e-9)];
        let built: Vec<(Circuit, NodeId)> = lanes.iter().map(|&(r, c)| rc_circuit(r, c)).collect();
        let ckts: Vec<&Circuit> = built.iter().map(|(c, _)| c).collect();
        let spec = TransientSpec::new(3e-6, 2e-9).record(&[built[0].1]);
        let batched = transient_queue(&ckts, ckts.len(), &spec).unwrap();
        assert_eq!(batched.len(), 3);
        for ((ckt, vout), res) in built.iter().zip(&batched) {
            let scalar = ckt.transient(&spec).unwrap();
            let wb = res.waveform(*vout);
            let ws = scalar.waveform(*vout);
            assert_eq!(wb.time().len(), ws.time().len());
            for (a, b) in wb.values().iter().zip(ws.values()) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn batched_adaptive_tracks_scalar_within_tolerance() {
        // Identical lanes under adaptive stepping: every lane must agree
        // with the scalar adaptive run to interpolation accuracy.
        let (ckt, vout) = rc_circuit(1e3, 1e-9);
        let ckts = [&ckt, &ckt];
        let spec = TransientSpec::new(3e-6, 2e-9)
            .record(&[vout])
            .step_control(StepControl::adaptive());
        let batched = transient_queue(&ckts, ckts.len(), &spec).unwrap();
        let scalar = ckt.transient(&spec).unwrap();
        for res in &batched {
            let wb = res.waveform(vout);
            for frac in [0.5f64, 1.0, 2.0] {
                let t = frac * 1e-6;
                let expect = scalar.waveform(vout).value_at(t);
                assert!((wb.value_at(t) - expect).abs() < 1e-3);
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
    fn dcop_start_is_rejected() {
        let (a, _) = rc_circuit(1e3, 1e-9);
        let err =
            transient_queue(&[&a], 1, &TransientSpec::new(1e-6, 1e-9).from_dcop()).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidSpec(_)));
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
}
