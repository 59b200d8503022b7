//! Structure-of-arrays MOSFET evaluation for the batched transient engine.
//!
//! A Monte-Carlo batch instantiates the *same* transistor slot on K dies;
//! only the per-instance variation delta (ΔV_th, ΔL_eff) differs. The
//! [`MosfetBank`] therefore keeps the two varying quantities per element
//! — the effective threshold `vth0 + ΔV_th` and the geometry factor
//! `kp·W/L_eff` — and every other parameter once per slot, then
//! evaluates all elements in one straight-line pass. A bank covers a run
//! of slots (element `slot·k + lane`), so a block of slots fills whole
//! vectors even at one or two lanes. The model body is written once,
//! generic over a [`rotsv_num::simd::Simd`] ISA token (drain/source
//! mirroring and the saturation selects are compare + blend, the
//! elementary functions are the vector forms from `rotsv_num::lanes`),
//! and dispatched at runtime to AVX-512, AVX2 or scalar lanes — the
//! model evaluation dominates every transient's wall time, so this is
//! the kernel the explicit-SIMD port pays off most on.
//!
//! Accuracy: identical formulation to [`MosParams::ids_with_grad`], with
//! the `lanes` elementary functions in place of `libm` — a few ulp of
//! relative difference, orders of magnitude below the Newton
//! tolerances. Across its own dispatch arms, lane counts and slot
//! groupings the bank is *bit*-identical: every element performs the
//! same IEEE-exact operations in the same association order, with
//! select-form conditionals and no fused multiply-adds.

use rotsv_num::lanes;
use rotsv_num::simd::{self, LaneCount, LaneKernel, Simd};
use rotsv_spice::device::BLOCK_ELEMENTS;
use rotsv_spice::{BatchedDeviceEval, NonlinearDevice};

use crate::device::Mosfet;
use crate::model::{MosParams, Polarity, PHI_T};

/// The rows [`MosfetBank`] declares live, as a
/// [`BatchedDeviceEval::live_rows`] mask over the terminal order
/// drain, gate, source, bulk: drain (bit 0) and source (bit 2).
const LIVE_ROWS: u64 = 0b0101;

/// Model constants per slot, in the order the kernel reads them: sign
/// (`+1` NMOS, `−1` PMOS: the terminal-voltage mirror), softplus scale
/// `2·n·φt` (shared by body clamp and overdrive), γ, φ, √φ, θ, λ.
const CONSTS: usize = 7;

/// One transistor slot's shared model: what every lane of it reads
/// besides its variation delta.
#[derive(Debug)]
struct Slot {
    /// Uniformity fingerprint of the founding lanes; a refill re-seat
    /// must match it (plus `phi`) to reuse the shared-parameter kernel.
    key: (Polarity, [f64; 8]),
    phi: f64,
    consts: [f64; CONSTS],
}

impl Slot {
    /// The shared model of `lanes`, or `None` when they are not
    /// parameter-uniform up to their variation deltas.
    fn of(lanes: &[&Mosfet]) -> Option<Self> {
        let first = lanes.first()?.params();
        let key = uniform_key(first);
        if !lanes.iter().all(|m| {
            let p = m.params();
            uniform_key(p) == key && p.phi == first.phi
        }) {
            return None;
        }
        let sign = match first.polarity {
            Polarity::Nmos => 1.0,
            Polarity::Pmos => -1.0,
        };
        Some(Self {
            key,
            phi: first.phi,
            consts: [
                sign,
                2.0 * first.n_sub * PHI_T,
                first.gamma,
                first.phi,
                first.phi.sqrt(),
                first.theta,
                first.lambda,
            ],
        })
    }

    /// Can `p` ride in this slot's shared model?
    fn admits(&self, p: &MosParams) -> bool {
        uniform_key(p) == self.key && p.phi == self.phi
    }
}

/// The parameters that must be uniform across lanes for the SoA kernel
/// (everything the I–V evaluation reads except the variation delta).
fn uniform_key(p: &MosParams) -> (Polarity, [f64; 8]) {
    (
        p.polarity,
        [p.vth0, p.kp, p.w, p.l, p.n_sub, p.theta, p.lambda, p.gamma],
    )
}

/// A lane's `vth0 + ΔV_th` (before the body-effect term), volts.
fn vth_base(p: &MosParams) -> f64 {
    p.vth0 + p.delta.dvth
}

/// A lane's `kp·W/L_eff`, A/V².
fn wl(p: &MosParams) -> f64 {
    p.kp * p.w / p.l_eff()
}

/// A run of transistor slots across K lanes, structure-of-arrays.
#[derive(Debug)]
pub struct MosfetBank {
    k: usize,
    slots: Vec<Slot>,
    /// Per-element `vth0 + ΔV_th`, element `slot·k + lane`, padded with
    /// the last element's value to a whole number of
    /// [`BLOCK_ELEMENTS`], so any stride a block is evaluated at reads
    /// defined parameters.
    vth_base: Vec<f64>,
    /// Per-element `kp·W/L_eff`, padded like `vth_base`.
    wl: Vec<f64>,
    /// Per-element copies of the slot constants, `[c·len + element]` for
    /// the padded length `len`, present only when the bank holds more
    /// than one slot (a vector chunk may then span slots); a one-slot
    /// bank broadcasts its constants instead.
    spread: Vec<f64>,
}

impl MosfetBank {
    /// Builds a bank over one device slot's K lane instances.
    ///
    /// Returns `None` when the lanes are not parameter-uniform up to
    /// their variation deltas (the batched workspace then falls back to
    /// per-lane scalar evaluation for this slot).
    pub fn try_new(lanes: &[&Mosfet]) -> Option<Self> {
        let slot = Slot::of(lanes)?;
        let mut bank = Self {
            k: lanes.len(),
            slots: Vec::new(),
            vth_base: Vec::new(),
            wl: Vec::new(),
            spread: Vec::new(),
        };
        bank.append(slot, lanes);
        Some(bank)
    }

    /// Appends one more slot's K lane instances after the last. Returns
    /// `false`, leaving the bank as it was, when the lane count differs
    /// or the lanes are not parameter-uniform.
    pub fn push(&mut self, lanes: &[&Mosfet]) -> bool {
        if lanes.len() != self.k {
            return false;
        }
        match Slot::of(lanes) {
            Some(slot) => {
                self.append(slot, lanes);
                true
            }
            None => false,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.k
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Stores `slot` with its lanes' per-element parameters, then pads
    /// the element arrays and rebuilds the constant copies.
    fn append(&mut self, slot: Slot, lanes: &[&Mosfet]) {
        let real = self.slots.len() * self.k;
        self.vth_base.truncate(real);
        self.wl.truncate(real);
        self.vth_base
            .extend(lanes.iter().map(|m| vth_base(m.params())));
        self.wl.extend(lanes.iter().map(|m| wl(m.params())));
        self.slots.push(slot);
        let real = self.slots.len() * self.k;
        let len = real.div_ceil(BLOCK_ELEMENTS) * BLOCK_ELEMENTS;
        self.vth_base.resize(len, self.vth_base[real - 1]);
        self.wl.resize(len, self.wl[real - 1]);
        self.spread.clear();
        if self.slots.len() > 1 {
            let last = self.slots.len() - 1;
            for c in 0..CONSTS {
                self.spread
                    .extend((0..len).map(|e| self.slots[(e / self.k).min(last)].consts[c]));
            }
        }
    }

    /// The model sweep: `n` elements in `n / S::W` vector chunks, the
    /// slot constants broadcast in a one-slot bank and loaded per chunk
    /// from their element copies otherwise (two loops, so each compiles
    /// straight-line and the scalar arm's can pair lanes in SSE2).
    ///
    /// # Safety
    ///
    /// The [`LaneKernel::run`] contract, with `n.get()` the buffers'
    /// stride as checked in [`BatchedDeviceEval::eval_lanes`].
    #[inline(always)]
    unsafe fn eval_body<N: LaneCount, S: Simd>(
        &self,
        n: N,
        v: &[f64],
        current: &mut [f64],
        jacobian: &mut [f64],
    ) {
        let stride = n.get();
        debug_assert_eq!(stride % S::W, 0);
        let io = Io {
            stride,
            v: v.as_ptr(),
            current: current.as_mut_ptr(),
            jacobian: jacobian.as_mut_ptr(),
            vth_base: self.vth_base.as_ptr(),
            wl: self.wl.as_ptr(),
        };
        // SAFETY: `eval_lanes` checked the buffers against the stride
        // and the stride against the padded length `len` of the element
        // arrays, `spread` included; chunks are W-aligned in each
        // stride-element row.
        unsafe {
            if self.spread.is_empty() {
                let shared = &self.slots[0].consts;
                let consts = [
                    S::splat(shared[0]),
                    S::splat(shared[1]),
                    S::splat(shared[2]),
                    S::splat(shared[3]),
                    S::splat(shared[4]),
                    S::splat(shared[5]),
                    S::splat(shared[6]),
                ];
                for c in (0..stride).step_by(S::W) {
                    eval_chunk::<S>(io, c, consts);
                }
            } else {
                let len = self.vth_base.len();
                let sp = self.spread.as_ptr();
                for c in (0..stride).step_by(S::W) {
                    let consts = [
                        S::ld(sp.add(c)),
                        S::ld(sp.add(len + c)),
                        S::ld(sp.add(2 * len + c)),
                        S::ld(sp.add(3 * len + c)),
                        S::ld(sp.add(4 * len + c)),
                        S::ld(sp.add(5 * len + c)),
                        S::ld(sp.add(6 * len + c)),
                    ];
                    eval_chunk::<S>(io, c, consts);
                }
            }
        }
    }
}

/// The buffers of one [`MosfetBank`] evaluation, as raw pointers: the
/// `stride`-element terminal rows of `v`, `current` and `jacobian` and
/// the per-element parameters.
#[derive(Clone, Copy)]
struct Io {
    stride: usize,
    v: *const f64,
    current: *mut f64,
    jacobian: *mut f64,
    vth_base: *const f64,
    wl: *const f64,
}

/// The model on the `S::W` elements at `c`, with the slot constants
/// `consts` (order as in [`CONSTS`]): the formulation of
/// [`MosParams::ids_with_grad`] with every operation an IEEE-exact lane
/// op in a fixed association, compare + blend for every conditional
/// (`max` included) and no fused multiply-adds, so every dispatch arm,
/// lane count and slot grouping agrees to the bit.
///
/// # Safety
///
/// `S`'s ISA is enabled, and `c + S::W` elements fit every row of `io`.
#[inline(always)]
unsafe fn eval_chunk<S: Simd>(io: Io, c: usize, consts: [S::V; CONSTS]) {
    let Io {
        stride,
        v: vp,
        current: cp,
        jacobian: jp,
        vth_base: vthp,
        wl: wlp,
    } = io;
    let [sign, s, gamma, phi, sqrt_phi, theta, lambda] = consts;
    // SAFETY: the caller's contract.
    unsafe {
        let zero = S::splat(0.0);
        let one = S::splat(1.0);
        let two = S::splat(2.0);
        let eps = S::splat(1e-12);
        // Polarity mirror; one terminal's elements are
        // contiguous: plain vector loads.
        let vd = S::mul(sign, S::ld(vp.add(c)));
        let vg = S::mul(sign, S::ld(vp.add(stride + c)));
        let vs = S::mul(sign, S::ld(vp.add(2 * stride + c)));
        let vb = S::mul(sign, S::ld(vp.add(3 * stride + c)));
        // Drain/source symmetry: operate on the lower terminal
        // as source (compare + blend).
        let fwd = S::ge(vd, vs);
        let lo = S::sel(fwd, vs, vd);
        let hi = S::sel(fwd, vd, vs);
        let vds = S::sub(hi, lo);
        let vgs = S::sub(vg, lo);
        let vsb = S::sub(lo, vb);
        // Body effect with the smooth clamp.
        let (sp0, sig0) = lanes::softplus_sig_v::<S>(S::div(S::add(vsb, phi), s));
        let vsb_eff = S::mul(s, sp0);
        let sqrt_vsb_eff = S::sqrt(vsb_eff);
        let vth = S::add(
            S::ld(vthp.add(c)),
            S::mul(gamma, S::sub(sqrt_vsb_eff, sqrt_phi)),
        );
        let dvth_dvsb = S::div(S::mul(gamma, sig0), S::mul(two, sqrt_vsb_eff));
        // Smooth effective overdrive.
        let (sp1, sig1) = lanes::softplus_sig_v::<S>(S::div(S::sub(vgs, vth), s));
        let vov = S::mul(s, sp1);
        let theta_den = S::add(one, S::mul(theta, vov));
        let beta = S::div(S::ld(wlp.add(c)), theta_den);
        let dbeta_dvov = S::div(S::mul(S::neg(beta), theta), theta_den);
        // `vov.max(1e-12)` in select form: identical values
        // (vov ≥ 0 by construction; a NaN picks eps both ways).
        let vov_big = S::gt(vov, eps);
        let vdsat = S::sel(vov_big, vov, eps);
        let u = S::div(vds, vdsat);
        let u2 = S::mul(u, u);
        let u4 = S::mul(u2, u2);
        let den = S::sqrt(S::sqrt(S::add(one, u4)));
        let vds_eff = S::div(vds, den);
        let den4 = S::mul(S::mul(S::mul(den, den), den), den);
        let dveff_dvds = S::div(one, S::mul(den4, den));
        let dveff_dvdsat = S::sel(vov_big, S::mul(S::mul(u4, u), dveff_dvds), zero);
        let clm = S::add(one, S::mul(lambda, vds));
        let q = S::mul(S::sub(vov, S::div(vds_eff, two)), vds_eff);
        let i_core = S::mul(S::mul(beta, q), clm);
        let dq_dveff = S::sub(vov, vds_eff);
        let d_vds = S::add(
            S::mul(S::mul(S::mul(beta, clm), dq_dveff), dveff_dvds),
            S::mul(S::mul(beta, q), lambda),
        );
        let di_dvov = S::mul(
            S::add(
                S::mul(dbeta_dvov, q),
                S::mul(beta, S::add(vds_eff, S::mul(dq_dveff, dveff_dvdsat))),
            ),
            clm,
        );
        let d_vgs = S::mul(di_dvov, sig1);
        let d_vsb = S::mul(S::mul(S::neg(di_dvov), sig1), dvth_dvsb);
        // Un-mirror drain/source, then polarity.
        let i_n = S::sel(fwd, i_core, S::neg(i_core));
        let gd = S::sel(fwd, d_vds, S::sub(S::add(d_vds, d_vgs), d_vsb));
        let gg = S::sel(fwd, d_vgs, S::neg(d_vgs));
        let gs = S::sel(
            fwd,
            S::add(S::sub(S::neg(d_vds), d_vgs), d_vsb),
            S::neg(d_vds),
        );
        let gb = S::sel(fwd, S::neg(d_vsb), d_vsb);
        let id = S::mul(sign, i_n);
        // Channel current drain → source; gate and bulk rows zero.
        S::st(cp.add(c), id);
        S::st(cp.add(stride + c), zero);
        S::st(cp.add(2 * stride + c), S::neg(id));
        S::st(cp.add(3 * stride + c), zero);
        let grad = [gd, gg, gs, gb];
        for (j, &g) in grad.iter().enumerate() {
            S::st(jp.add(j * stride + c), g); // row 0: drain
            S::st(jp.add((4 + j) * stride + c), zero); // row 1: gate
            S::st(jp.add((8 + j) * stride + c), S::neg(g)); // row 2: source
            S::st(jp.add((12 + j) * stride + c), zero); // row 3: bulk
        }
    }
}

impl BatchedDeviceEval for MosfetBank {
    /// Evaluates every element at the buffers' stride `v.len() / 4`,
    /// which must cover the bank's `slots·k` elements and stay within its
    /// padded parameter arrays; padding elements are evaluated too.
    fn eval_lanes(&mut self, v: &[f64], current: &mut [f64], jacobian: &mut [f64]) {
        let stride = v.len() / 4;
        assert!(
            v.len() == 4 * stride
                && current.len() == 4 * stride
                && jacobian.len() == 16 * stride
                && (self.slots.len() * self.k..=self.vth_base.len()).contains(&stride),
            "bank buffers of {} / {} / {} entries do not fit {} slots of {} lanes",
            v.len(),
            current.len(),
            jacobian.len(),
            self.slots.len(),
            self.k
        );
        simd::dispatch(
            stride,
            BankEval {
                bank: self,
                v,
                current,
                jacobian,
            },
        );
    }

    /// Drain and source. The channel current flows drain → source, so
    /// the gate and bulk rows are stored as `+0.0` on every arm.
    fn live_rows(&self) -> u64 {
        LIVE_ROWS
    }

    fn push_slot(&mut self, lanes: &[&dyn NonlinearDevice]) -> bool {
        let mosfets: Option<Vec<&Mosfet>> = lanes
            .iter()
            .map(|d| d.as_any().and_then(|a| a.downcast_ref::<Mosfet>()))
            .collect();
        mosfets.is_some_and(|m| self.push(&m))
    }

    /// O(1) refill re-seat: only the two per-element arrays depend on the
    /// die, so seating a new die's transistor into `lane` of `slot` is
    /// two stores — provided its shared parameters match the slot's
    /// fingerprint.
    fn reseat_lane(&mut self, slot: usize, lane: usize, device: &dyn NonlinearDevice) -> bool {
        debug_assert!(slot < self.slots.len() && lane < self.k);
        let Some(m) = device.as_any().and_then(|a| a.downcast_ref::<Mosfet>()) else {
            return false;
        };
        let p = m.params();
        if !self.slots[slot].admits(p) {
            return false;
        }
        let e = slot * self.k + lane;
        self.vth_base[e] = vth_base(p);
        self.wl[e] = wl(p);
        true
    }
}

/// [`MosfetBank::eval_body`] as a [`LaneKernel`].
struct BankEval<'a> {
    bank: &'a MosfetBank,
    v: &'a [f64],
    current: &'a mut [f64],
    jacobian: &'a mut [f64],
}

impl LaneKernel for BankEval<'_> {
    type Output = ();

    fn at<N: LaneCount>(self, n: N) {
        eval_at(n, self.bank, self.v, self.current, self.jacobian);
    }

    #[inline(always)]
    unsafe fn run<N: LaneCount, S: Simd>(self, n: N) {
        // SAFETY: forwarded from `dispatch`; `n` is the checked stride.
        unsafe {
            self.bank
                .eval_body::<N, S>(n, self.v, self.current, self.jacobian)
        }
    }
}

/// [`BankEval`] at one element count, its slices as parameters (see
/// [`LaneKernel::at`]).
#[inline(never)]
fn eval_at<N: LaneCount>(
    n: N,
    bank: &MosfetBank,
    v: &[f64],
    current: &mut [f64],
    jacobian: &mut [f64],
) {
    simd::arm(
        n,
        BankEval {
            bank,
            v,
            current,
            jacobian,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MosDelta;
    use crate::tech45::{self, DriveStrength};
    use rotsv_num::simd::Level;
    use rotsv_spice::device::{block_slots, block_stride};
    use rotsv_spice::{Circuit, DeviceStamp, NodeId, NonlinearDevice};

    /// Every level `set_level` can force.
    const LEVELS: [Level; 3] = [Level::Scalar, Level::Avx2, Level::Avx512];

    /// Bias points across the operating regions.
    const BIASES: [[f64; 4]; 8] = [
        [1.1, 1.1, 0.0, 0.0],
        [0.4, 0.9, 0.1, 0.0],
        [0.2, 1.0, 0.8, 0.0],  // reversed drain/source
        [1.1, 0.0, 0.0, 0.0],  // subthreshold
        [0.0, 0.3, 1.1, 0.0],  // reversed and subthreshold
        [0.0, 0.0, 1.1, 1.1],  // PMOS-style bias
        [-0.1, 0.5, 0.3, 0.0], // negative terminal
        [0.0, 0.0, 0.0, 0.0],  // unbiased
    ];

    fn four_nodes() -> [NodeId; 4] {
        let mut ckt = Circuit::new();
        [ckt.node("d"), ckt.node("g"), ckt.node("s"), ckt.node("b")]
    }

    /// `n` lane instances of one card, cycling three variation deltas.
    fn lanes_of(base: MosParams, n: usize) -> Vec<Mosfet> {
        let deltas = [
            MosDelta::NOMINAL,
            MosDelta {
                dvth: 0.02,
                dleff_rel: -0.05,
            },
            MosDelta {
                dvth: -0.015,
                dleff_rel: 0.08,
            },
        ];
        (0..n)
            .map(|i| {
                let delta = deltas[i % deltas.len()];
                let [d, g, s, b] = four_nodes();
                Mosfet::new("m", base.with_delta(delta), d, g, s, b)
            })
            .collect()
    }

    fn lane_devices_n(pmos: bool, n: usize) -> Vec<Mosfet> {
        let base = if pmos {
            tech45::pmos(DriveStrength::X2)
        } else {
            tech45::nmos(DriveStrength::X2)
        };
        lanes_of(base, n)
    }

    fn lane_devices(pmos: bool) -> Vec<Mosfet> {
        lane_devices_n(pmos, 3)
    }

    /// `slots` slots of `k` lanes cycling NMOS/PMOS at X1/X4, the mix a
    /// ring's cells put next to each other.
    fn mixed_slots(k: usize, slots: usize) -> Vec<Vec<Mosfet>> {
        let cards = [
            tech45::nmos(DriveStrength::X1),
            tech45::pmos(DriveStrength::X1),
            tech45::pmos(DriveStrength::X4),
            tech45::nmos(DriveStrength::X4),
        ];
        (0..slots)
            .map(|s| lanes_of(cards[s % cards.len()], k))
            .collect()
    }

    /// One bank over all of `slots`, in order.
    fn bank_over(slots: &[Vec<Mosfet>]) -> MosfetBank {
        let refs: Vec<Vec<&Mosfet>> = slots.iter().map(|s| s.iter().collect()).collect();
        let mut bank = MosfetBank::try_new(&refs[0]).expect("uniform lanes");
        for slot in &refs[1..] {
            assert!(bank.push(slot), "uniform slot refused");
        }
        bank
    }

    /// Trial voltages at `bias`, slightly different per element.
    fn biased(bias: [f64; 4], stride: usize) -> Vec<f64> {
        let mut v = vec![0.0; 4 * stride];
        for (ti, &b) in bias.iter().enumerate() {
            for (e, item) in v[ti * stride..(ti + 1) * stride].iter_mut().enumerate() {
                *item = b + 0.013 * e as f64;
            }
        }
        v
    }

    /// Evaluates `bank` at stride `stride` into NaN-poisoned outputs.
    fn eval_poisoned(bank: &mut MosfetBank, v: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let stride = v.len() / 4;
        let mut c = vec![f64::NAN; 4 * stride];
        let mut j = vec![f64::NAN; 16 * stride];
        bank.eval_lanes(v, &mut c, &mut j);
        (c, j)
    }

    /// The bank must agree with the scalar device evaluation to ~1e-9
    /// relative across bias points, polarities and variation deltas
    /// (the `lanes` elementary functions differ from libm by a few ulp,
    /// which the subthreshold exponential amplifies slightly).
    #[test]
    fn bank_matches_scalar_eval() {
        // 3 lanes runs the scalar arm; 4/8/16 the vector arms.
        for (pmos, n) in [(false, 3), (true, 3), (false, 4), (true, 8), (false, 16)] {
            let devs = lane_devices_n(pmos, n);
            let refs: Vec<&Mosfet> = devs.iter().collect();
            let mut bank = MosfetBank::try_new(&refs).expect("uniform lanes");
            let k = bank.lanes();
            for bias in &BIASES[..6] {
                let v = biased(*bias, k);
                let mut c = vec![0.0; 4 * k];
                let mut j = vec![0.0; 16 * k];
                bank.eval_lanes(&v, &mut c, &mut j);
                for (lane, dev) in devs.iter().enumerate() {
                    let vl: Vec<f64> = (0..4).map(|ti| v[ti * k + lane]).collect();
                    let mut stamp = DeviceStamp::new(4);
                    dev.eval(&vl, &mut stamp);
                    for ti in 0..4 {
                        let got = c[ti * k + lane];
                        let want = stamp.current[ti];
                        assert!(
                            (got - want).abs() <= 1e-9 * want.abs().max(1e-15),
                            "current[{ti}] lane {lane}: {got} vs {want}"
                        );
                        for tj in 0..4 {
                            let got = j[(ti * 4 + tj) * k + lane];
                            let want = stamp.jacobian[(ti, tj)];
                            assert!(
                                (got - want).abs() <= 1e-9 * want.abs().max(1e-12),
                                "jac[{ti},{tj}] lane {lane}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The batched assembly skips the rows the bank declares dead, which
    /// is exact only if they are `+0.0` (sign bit clear) for every
    /// element, at every bias, on every dispatch arm — in a one-slot bank
    /// at its lane count and in a mixed multi-slot block at the block
    /// stride alike. This pins that, and that the declared rows are
    /// exactly the ones that never carry a value: gate and bulk dead,
    /// drain and source live.
    #[test]
    fn dead_rows_are_positive_zero_on_every_arm() {
        for want in LEVELS {
            let level = simd::set_level(want);
            for k in [1, 2, 3, 4, 6, 8, 12, 14, 16, 24, 32] {
                let mut banks: Vec<(String, MosfetBank, usize)> = [false, true]
                    .into_iter()
                    .map(|pmos| {
                        let devs = lane_devices_n(pmos, k);
                        let refs: Vec<&Mosfet> = devs.iter().collect();
                        let bank = MosfetBank::try_new(&refs).expect("uniform lanes");
                        (format!("pmos = {pmos}"), bank, k)
                    })
                    .collect();
                let slots = block_slots(k).max(3);
                let block = bank_over(&mixed_slots(k, slots));
                let stride = block_stride(slots * k);
                banks.push((format!("{slots}-slot block"), block, stride));
                for (what, bank, stride) in &mut banks {
                    let stride = *stride;
                    let elements = bank.slots() * k;
                    let live = BatchedDeviceEval::live_rows(bank);
                    let mut nonzero = [false; 4];
                    for bias in BIASES {
                        let (c, j) = eval_poisoned(bank, &biased(bias, stride));
                        for (row, seen) in nonzero.iter_mut().enumerate() {
                            let cur = &c[row * stride..row * stride + elements];
                            let jac: Vec<f64> = (0..4)
                                .flat_map(|col| {
                                    let at = (row * 4 + col) * stride;
                                    j[at..at + elements].iter().copied()
                                })
                                .collect();
                            if (live >> row) & 1 == 0 {
                                assert!(
                                    cur.iter().chain(&jac).all(|x| x.to_bits() == 0),
                                    "{} row {row} not +0.0 at {bias:?}, K = {k}, {what}",
                                    level.name()
                                );
                            }
                            *seen |= cur.iter().chain(&jac).any(|&x| x != 0.0);
                        }
                    }
                    let declared: Vec<bool> = (0..4).map(|row| (live >> row) & 1 == 1).collect();
                    assert_eq!(
                        declared,
                        nonzero,
                        "{} K = {k}, {what}: live rows must be drain and source",
                        level.name()
                    );
                }
            }
        }
        simd::set_level(simd::detected());
    }

    /// A block is only a layout: each element of a multi-slot bank over
    /// mixed NMOS/PMOS, X1/X4 slots, evaluated at the block stride, is
    /// `to_bits`-equal to the same device in a one-slot bank at its lane
    /// count, at every lane count and forced level, and every output of
    /// every slot is written (NaN-poisoned buffers).
    #[test]
    fn multi_slot_bank_matches_one_slot_banks() {
        for want in LEVELS {
            let level = simd::set_level(want);
            for k in [1, 2, 3, 6, 10, 14, 16, 32] {
                let n_slots = block_slots(k).max(3);
                let slots = mixed_slots(k, n_slots);
                let mut block = bank_over(&slots);
                let stride = block_stride(n_slots * k);
                for bias in BIASES {
                    let v = biased(bias, stride);
                    let (c, j) = eval_poisoned(&mut block, &v);
                    for (s, devs) in slots.iter().enumerate() {
                        let refs: Vec<&Mosfet> = devs.iter().collect();
                        let mut solo = MosfetBank::try_new(&refs).expect("uniform lanes");
                        let off = s * k;
                        let solo_v: Vec<f64> = (0..4)
                            .flat_map(|t| v[t * stride + off..t * stride + off + k].iter().copied())
                            .collect();
                        let (sc, sj) = eval_poisoned(&mut solo, &solo_v);
                        let at = format!("{} K = {k} slot {s} at {bias:?}", level.name());
                        for lane in 0..k {
                            for row in 0..4 {
                                let got = c[row * stride + off + lane];
                                assert!(!got.is_nan(), "{at}: current[{row}] not written");
                                assert_eq!(
                                    got.to_bits(),
                                    sc[row * k + lane].to_bits(),
                                    "{at}: current[{row}] lane {lane}"
                                );
                            }
                            for entry in 0..16 {
                                let got = j[entry * stride + off + lane];
                                assert!(!got.is_nan(), "{at}: jacobian[{entry}] not written");
                                assert_eq!(
                                    got.to_bits(),
                                    sj[entry * k + lane].to_bits(),
                                    "{at}: jacobian[{entry}] lane {lane}"
                                );
                            }
                        }
                    }
                }
            }
        }
        simd::set_level(simd::detected());
    }

    #[test]
    fn mixed_polarity_lanes_refuse_to_batch() {
        let [d, g, s, b] = four_nodes();
        let n = Mosfet::new("n", tech45::nmos(DriveStrength::X1), d, g, s, b);
        let p = Mosfet::new("p", tech45::pmos(DriveStrength::X1), d, g, s, b);
        assert!(MosfetBank::try_new(&[&n, &p]).is_none());
        // Nor may such a slot join a bank, which stays as it was.
        let mut bank = MosfetBank::try_new(&[&n, &n]).expect("uniform lanes");
        assert!(!bank.push(&[&n, &p]));
        assert!(!bank.push(&[&n]), "a slot of another lane count");
        assert_eq!(bank.slots(), 1);
        assert!(bank.push(&[&p, &p]), "mixed polarity across slots is fine");
        assert_eq!(bank.slots(), 2);
    }

    /// Re-seating a lane must be indistinguishable from building a fresh
    /// bank over the swapped composition (bit-identical evaluation), in a
    /// one-slot bank and in a block, and must refuse devices whose shared
    /// parameters differ.
    #[test]
    fn reseat_lane_matches_a_fresh_bank() {
        let devs = lane_devices_n(false, 4);
        let refs: Vec<&Mosfet> = devs.iter().collect();
        let mut bank = MosfetBank::try_new(&refs).unwrap();
        let k = bank.lanes();
        let [d, g, s, b] = four_nodes();
        let incoming = Mosfet::new(
            "m",
            tech45::nmos(DriveStrength::X2).with_delta(MosDelta {
                dvth: 0.011,
                dleff_rel: 0.027,
            }),
            d,
            g,
            s,
            b,
        );
        assert!(BatchedDeviceEval::reseat_lane(&mut bank, 0, 2, &incoming));
        let swapped: Vec<&Mosfet> = vec![&devs[0], &devs[1], &incoming, &devs[3]];
        let mut fresh = MosfetBank::try_new(&swapped).unwrap();
        let v: Vec<f64> = (0..4 * k).map(|i| 0.1 + 0.07 * i as f64).collect();
        let (c0, j0) = eval_poisoned(&mut bank, &v);
        let (c1, j1) = eval_poisoned(&mut fresh, &v);
        assert_eq!(c0, c1, "re-seated bank currents drifted");
        assert_eq!(j0, j1, "re-seated bank jacobians drifted");

        // A different drive strength breaks uniformity: the bank must
        // refuse so the workspace rebuilds (or degrades) the slot.
        let alien = Mosfet::new("m", tech45::nmos(DriveStrength::X1), d, g, s, b);
        assert!(!BatchedDeviceEval::reseat_lane(&mut bank, 0, 1, &alien));
        let (c2, _) = eval_poisoned(&mut bank, &v);
        assert_eq!(c0, c2, "a refused re-seat must not touch the bank");

        // The same inside a block: lane 2 of the middle slot of four, and
        // that slot's own fingerprint (PMOS X1) decides, not the first's.
        {
            let k = 3;
            let mut slots = mixed_slots(k, 4);
            let mut bank = bank_over(&slots);
            let stride = block_stride(4 * k);
            let [d, g, s, b] = four_nodes();
            let incoming = Mosfet::new(
                "m",
                tech45::pmos(DriveStrength::X1).with_delta(MosDelta {
                    dvth: -0.007,
                    dleff_rel: 0.031,
                }),
                d,
                g,
                s,
                b,
            );
            let nmos = Mosfet::new("m", tech45::nmos(DriveStrength::X1), d, g, s, b);
            assert!(!BatchedDeviceEval::reseat_lane(&mut bank, 1, 2, &nmos));
            assert!(BatchedDeviceEval::reseat_lane(&mut bank, 1, 2, &incoming));
            slots[1][2] = incoming;
            let mut fresh = bank_over(&slots);
            for bias in BIASES {
                let v = biased(bias, stride);
                let (c0, j0) = eval_poisoned(&mut bank, &v);
                let (c1, j1) = eval_poisoned(&mut fresh, &v);
                let real = 4 * k;
                for row in 0..4 {
                    let r = row * stride..row * stride + real;
                    assert_eq!(c0[r.clone()], c1[r], "currents drifted at {bias:?}");
                }
                for entry in 0..16 {
                    let r = entry * stride..entry * stride + real;
                    assert_eq!(j0[r.clone()], j1[r], "jacobians drifted at {bias:?}");
                }
            }
        }
    }

    #[test]
    fn batch_with_builds_a_bank_for_uniform_lanes() {
        let devs = lane_devices(false);
        let refs: Vec<&dyn NonlinearDevice> =
            devs.iter().map(|d| d as &dyn NonlinearDevice).collect();
        let mut bank = devs[0].batch_with(&refs).expect("a bank");
        let pmos = lane_devices(true);
        let prefs: Vec<&dyn NonlinearDevice> =
            pmos.iter().map(|d| d as &dyn NonlinearDevice).collect();
        assert!(
            bank.push_slot(&prefs),
            "a second MOSFET slot joins the bank"
        );
    }
}
