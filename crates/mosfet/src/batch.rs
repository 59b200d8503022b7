//! Structure-of-arrays MOSFET evaluation for the batched transient engine.
//!
//! A Monte-Carlo batch instantiates the *same* transistor slot on K dies;
//! only the per-instance variation delta (ΔV_th, ΔL_eff) differs. The
//! [`MosfetBank`] therefore keeps the two varying quantities as per-lane
//! arrays — the effective threshold `vth0 + ΔV_th` and the geometry
//! factor `kp·W/L_eff` — and every other parameter once, then evaluates
//! all lanes in one straight-line pass. The model body is written once,
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
//! tolerances. Across its own dispatch arms the bank is *bit*-identical:
//! every arm performs the same IEEE-exact operations in the same
//! association order, with select-form conditionals and no fused
//! multiply-adds.

use rotsv_num::lanes;
use rotsv_num::simd::{ScalarLanes, Simd};
use rotsv_spice::{BatchedDeviceEval, NonlinearDevice};

use crate::device::Mosfet;
use crate::model::{MosParams, Polarity, PHI_T};

/// The rows [`MosfetBank`] declares live, as a
/// [`BatchedDeviceEval::live_rows`] mask over the terminal order
/// drain, gate, source, bulk: drain (bit 0) and source (bit 2).
const LIVE_ROWS: u64 = 0b0101;

/// One transistor slot across K lanes, structure-of-arrays.
#[derive(Debug)]
pub struct MosfetBank {
    k: usize,
    /// Per-lane `vth0 + ΔV_th` (before the body-effect term), volts.
    vth_base: Vec<f64>,
    /// Per-lane `kp·W/L_eff`, A/V².
    wl: Vec<f64>,
    /// `+1` for NMOS, `−1` for PMOS (terminal-voltage mirror).
    sign: f64,
    /// Softplus scale `2·n·φt` (shared by body clamp and overdrive).
    s: f64,
    gamma: f64,
    phi: f64,
    sqrt_phi: f64,
    theta: f64,
    lambda: f64,
    /// Uniformity fingerprint of the founding lanes; a refill re-seat
    /// must match it (plus `phi`) to reuse the shared-parameter kernel.
    key: (Polarity, [f64; 8]),
}

/// The parameters that must be uniform across lanes for the SoA kernel
/// (everything the I–V evaluation reads except the variation delta).
fn uniform_key(p: &MosParams) -> (Polarity, [f64; 8]) {
    (
        p.polarity,
        [p.vth0, p.kp, p.w, p.l, p.n_sub, p.theta, p.lambda, p.gamma],
    )
}

impl MosfetBank {
    /// Builds a bank over one device slot's K lane instances.
    ///
    /// Returns `None` when the lanes are not parameter-uniform up to
    /// their variation deltas (the batched workspace then falls back to
    /// per-lane scalar evaluation for this slot).
    pub fn try_new(lanes: &[&Mosfet]) -> Option<Self> {
        let first = lanes.first()?.params();
        let key = uniform_key(first);
        if !lanes.iter().all(|m| {
            let p = m.params();
            uniform_key(p) == key && p.phi == first.phi
        }) {
            return None;
        }
        Some(Self {
            k: lanes.len(),
            vth_base: lanes
                .iter()
                .map(|m| m.params().vth0 + m.params().delta.dvth)
                .collect(),
            wl: lanes
                .iter()
                .map(|m| {
                    let p = m.params();
                    p.kp * p.w / p.l_eff()
                })
                .collect(),
            sign: match first.polarity {
                Polarity::Nmos => 1.0,
                Polarity::Pmos => -1.0,
            },
            s: 2.0 * first.n_sub * PHI_T,
            gamma: first.gamma,
            phi: first.phi,
            sqrt_phi: first.phi.sqrt(),
            theta: first.theta,
            lambda: first.lambda,
            key,
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.k
    }
}

impl MosfetBank {
    /// Monomorphized evaluation: dispatches the lane sweep to the widest
    /// SIMD arm `K` is a multiple of. Lane results are bit-identical
    /// across arms (identical operations, association and selects), so
    /// the dispatch decision never changes a transient.
    fn eval_k<const K: usize>(&self, v: &[f64], current: &mut [f64], jacobian: &mut [f64]) {
        debug_assert_eq!(self.k, K);
        #[cfg(target_arch = "x86_64")]
        {
            use rotsv_num::simd::{self, Level};
            let level = simd::level();
            if K.is_multiple_of(8) && level == Level::Avx512 {
                // SAFETY: `level()` is clamped to detected features.
                return unsafe { self.eval_avx512::<K>(v, current, jacobian) };
            }
            if K.is_multiple_of(4) && level >= Level::Avx2 {
                // SAFETY: `level()` is clamped to detected features.
                return unsafe { self.eval_avx2::<K>(v, current, jacobian) };
            }
        }
        // SAFETY: the scalar arm has no ISA requirements.
        unsafe { self.eval_body::<K, ScalarLanes>(v, current, jacobian) }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn eval_avx512<const K: usize>(&self, v: &[f64], current: &mut [f64], jacobian: &mut [f64]) {
        // SAFETY: caller verified avx512f; we are in a matching region.
        unsafe { self.eval_body::<K, rotsv_num::simd::Avx512Lanes>(v, current, jacobian) }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn eval_avx2<const K: usize>(&self, v: &[f64], current: &mut [f64], jacobian: &mut [f64]) {
        // SAFETY: caller verified avx2; we are in a matching region.
        unsafe { self.eval_body::<K, rotsv_num::simd::Avx2Lanes>(v, current, jacobian) }
    }

    /// The model sweep: `K` lanes in `K / S::W` vector chunks. Every
    /// operation mirrors [`MosfetBank::eval_dyn`] exactly — same IEEE
    /// ops, same association, compare + blend for every conditional
    /// (`max` included), no fused multiply-adds — so all dispatch arms
    /// and the dynamic fallback agree to the bit.
    ///
    /// # Safety
    ///
    /// `S`'s ISA must be available and enabled in the enclosing region;
    /// `K` must be a multiple of `S::W` and equal `self.k` (slices sized
    /// as in [`BatchedDeviceEval::eval_lanes`]).
    #[inline(always)]
    unsafe fn eval_body<const K: usize, S: Simd>(
        &self,
        v: &[f64],
        current: &mut [f64],
        jacobian: &mut [f64],
    ) {
        debug_assert_eq!(K % S::W, 0);
        let vp = v.as_ptr();
        let cp = current.as_mut_ptr();
        let jp = jacobian.as_mut_ptr();
        let vthp = self.vth_base.as_ptr();
        let wlp = self.wl.as_ptr();
        // SAFETY (whole body): all offsets stay inside the 4·K / 16·K /
        // K-sized slices asserted by `eval_lanes`; chunks are W-aligned
        // within each terminal's contiguous K-lane group.
        unsafe {
            let sign = S::splat(self.sign);
            let s = S::splat(self.s);
            let phi = S::splat(self.phi);
            let sqrt_phi = S::splat(self.sqrt_phi);
            let gamma = S::splat(self.gamma);
            let theta = S::splat(self.theta);
            let lambda = S::splat(self.lambda);
            let zero = S::splat(0.0);
            let one = S::splat(1.0);
            let two = S::splat(2.0);
            let eps = S::splat(1e-12);
            for c in (0..K).step_by(S::W) {
                // Polarity mirror; lane-interleaved layout means one
                // terminal's K lanes are contiguous: plain vector loads.
                let vd = S::mul(sign, S::ld(vp.add(c)));
                let vg = S::mul(sign, S::ld(vp.add(K + c)));
                let vs = S::mul(sign, S::ld(vp.add(2 * K + c)));
                let vb = S::mul(sign, S::ld(vp.add(3 * K + c)));
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
                S::st(cp.add(K + c), zero);
                S::st(cp.add(2 * K + c), S::neg(id));
                S::st(cp.add(3 * K + c), zero);
                let grad = [gd, gg, gs, gb];
                for (j, &g) in grad.iter().enumerate() {
                    S::st(jp.add(j * K + c), g); // row 0: drain
                    S::st(jp.add((4 + j) * K + c), zero); // row 1: gate
                    S::st(jp.add((8 + j) * K + c), S::neg(g)); // row 2: source
                    S::st(jp.add((12 + j) * K + c), zero); // row 3: bulk
                }
            }
        }
    }

    /// Dynamic-lane-count fallback for batch sizes without a
    /// monomorphized kernel (remainder batches).
    fn eval_dyn(&self, v: &[f64], current: &mut [f64], jacobian: &mut [f64]) {
        let k = self.k;
        let (sign, s) = (self.sign, self.s);
        let (gamma, phi, sqrt_phi) = (self.gamma, self.phi, self.sqrt_phi);
        let (theta, lambda) = (self.theta, self.lambda);
        for lane in 0..k {
            // Polarity mirror: PMOS evaluates the NMOS equations at
            // negated terminal voltages and negates the current.
            let vd = sign * v[lane];
            let vg = sign * v[k + lane];
            let vs = sign * v[2 * k + lane];
            let vb = sign * v[3 * k + lane];
            // Drain/source symmetry: operate on the lower terminal as
            // source (select, not branch — both sides cost the same).
            let fwd = vd >= vs;
            let lo = if fwd { vs } else { vd };
            let hi = if fwd { vd } else { vs };
            let vds = hi - lo;
            let vgs = vg - lo;
            let vsb = lo - vb;
            // Body effect with the smooth clamp (see MosParams::ids_core_grad).
            let (sp0, sig0) = lanes::softplus_sig((vsb + phi) / s);
            let vsb_eff = s * sp0;
            let sqrt_vsb_eff = vsb_eff.sqrt();
            let vth = self.vth_base[lane] + gamma * (sqrt_vsb_eff - sqrt_phi);
            let dvth_dvsb = gamma * sig0 / (2.0 * sqrt_vsb_eff);
            // Smooth effective overdrive.
            let (sp1, sig1) = lanes::softplus_sig((vgs - vth) / s);
            let vov = s * sp1;
            let theta_den = 1.0 + theta * vov;
            let beta = self.wl[lane] / theta_den;
            let dbeta_dvov = -beta * theta / theta_den;
            let vdsat = vov.max(1e-12);
            let u = vds / vdsat;
            let u2 = u * u;
            let u4 = u2 * u2;
            let den = (1.0 + u4).sqrt().sqrt();
            let vds_eff = vds / den;
            let den4 = den * den * den * den;
            let dveff_dvds = 1.0 / (den4 * den);
            let dveff_dvdsat = if vov > 1e-12 {
                u4 * u * dveff_dvds
            } else {
                0.0
            };
            let clm = 1.0 + lambda * vds;
            let q = (vov - vds_eff / 2.0) * vds_eff;
            let i_core = beta * q * clm;
            let dq_dveff = vov - vds_eff;
            let d_vds = beta * clm * dq_dveff * dveff_dvds + beta * q * lambda;
            let di_dvov = (dbeta_dvov * q + beta * (vds_eff + dq_dveff * dveff_dvdsat)) * clm;
            let d_vgs = di_dvov * sig1;
            let d_vsb = -di_dvov * sig1 * dvth_dvsb;
            // Un-mirror drain/source, then polarity (gradient is
            // polarity-invariant: f(v) = −g(−v) ⇒ f′(v) = g′(−v)).
            let (i_n, gd, gg, gs, gb) = if fwd {
                (i_core, d_vds, d_vgs, -d_vds - d_vgs + d_vsb, -d_vsb)
            } else {
                (-i_core, d_vds + d_vgs - d_vsb, -d_vgs, -d_vds, d_vsb)
            };
            let id = sign * i_n;
            // Channel current drain → source; gate and bulk rows zero.
            current[lane] = id;
            current[k + lane] = 0.0;
            current[2 * k + lane] = -id;
            current[3 * k + lane] = 0.0;
            let grad = [gd, gg, gs, gb];
            for (j, g) in grad.iter().enumerate() {
                jacobian[j * k + lane] = *g; // row 0: drain
                jacobian[(4 + j) * k + lane] = 0.0; // row 1: gate
                jacobian[(8 + j) * k + lane] = -g; // row 2: source
                jacobian[(12 + j) * k + lane] = 0.0; // row 3: bulk
            }
        }
    }
}

impl BatchedDeviceEval for MosfetBank {
    fn eval_lanes(&mut self, v: &[f64], current: &mut [f64], jacobian: &mut [f64]) {
        let k = self.k;
        debug_assert_eq!(v.len(), 4 * k);
        debug_assert_eq!(current.len(), 4 * k);
        debug_assert_eq!(jacobian.len(), 16 * k);
        // Monomorphized kernels for the common batch widths; lane results
        // are bit-identical across the dispatch arms and the dynamic
        // fallback (the vector-form elementary functions match the
        // scalar ones bit for bit).
        match k {
            1 => self.eval_k::<1>(v, current, jacobian),
            2 => self.eval_k::<2>(v, current, jacobian),
            4 => self.eval_k::<4>(v, current, jacobian),
            8 => self.eval_k::<8>(v, current, jacobian),
            16 => self.eval_k::<16>(v, current, jacobian),
            32 => self.eval_k::<32>(v, current, jacobian),
            64 => self.eval_k::<64>(v, current, jacobian),
            _ => self.eval_dyn(v, current, jacobian),
        }
    }

    /// Drain and source. The channel current flows drain → source, so
    /// the gate and bulk rows are stored as `+0.0` on every arm.
    fn live_rows(&self) -> u64 {
        LIVE_ROWS
    }

    /// O(1) refill re-seat: only the two per-lane arrays depend on the
    /// die, so seating a new die's transistor into `lane` is two stores —
    /// provided its shared parameters match the bank's fingerprint.
    fn reseat_lane(&mut self, lane: usize, device: &dyn NonlinearDevice) -> bool {
        debug_assert!(lane < self.k);
        let Some(m) = device.as_any().and_then(|a| a.downcast_ref::<Mosfet>()) else {
            return false;
        };
        let p = m.params();
        if uniform_key(p) != self.key || p.phi != self.phi {
            return false;
        }
        self.vth_base[lane] = p.vth0 + p.delta.dvth;
        self.wl[lane] = p.kp * p.w / p.l_eff();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MosDelta;
    use crate::tech45::{self, DriveStrength};
    use rotsv_spice::{Circuit, DeviceStamp, NodeId, NonlinearDevice};

    fn four_nodes() -> [NodeId; 4] {
        let mut ckt = Circuit::new();
        [ckt.node("d"), ckt.node("g"), ckt.node("s"), ckt.node("b")]
    }

    fn lane_devices_n(pmos: bool, n: usize) -> Vec<Mosfet> {
        let base = if pmos {
            tech45::pmos(DriveStrength::X2)
        } else {
            tech45::nmos(DriveStrength::X2)
        };
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

    fn lane_devices(pmos: bool) -> Vec<Mosfet> {
        lane_devices_n(pmos, 3)
    }

    /// The bank must agree with the scalar device evaluation to ~1e-9
    /// relative across bias points, polarities and variation deltas
    /// (the `lanes` elementary functions differ from libm by a few ulp,
    /// which the subthreshold exponential amplifies slightly).
    #[test]
    fn bank_matches_scalar_eval() {
        // 3 lanes exercises the dynamic fallback; 4/8/16 the
        // monomorphized kernels.
        for (pmos, n) in [(false, 3), (true, 3), (false, 4), (true, 8), (false, 16)] {
            let devs = lane_devices_n(pmos, n);
            let refs: Vec<&Mosfet> = devs.iter().collect();
            let mut bank = MosfetBank::try_new(&refs).expect("uniform lanes");
            let k = bank.lanes();
            let biases = [
                [1.1, 1.1, 0.0, 0.0],
                [0.4, 0.9, 0.1, 0.0],
                [0.2, 1.0, 0.8, 0.0], // reversed drain/source
                [1.1, 0.0, 0.0, 0.0], // subthreshold
                [0.0, 0.0, 1.1, 1.1], // PMOS-style bias
            ];
            for bias in biases {
                let mut v = vec![0.0; 4 * k];
                for (ti, &b) in bias.iter().enumerate() {
                    for (lane, item) in v[ti * k..(ti + 1) * k].iter_mut().enumerate() {
                        // Slightly different voltages per lane.
                        *item = b + 0.013 * lane as f64;
                    }
                }
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
    /// is exact only if they are `+0.0` (sign bit clear) in every lane,
    /// at every bias, on every dispatch arm. This pins that, and that the
    /// declared rows are exactly the ones that never carry a value: gate
    /// and bulk dead, drain and source live.
    #[test]
    fn dead_rows_are_positive_zero_on_every_arm() {
        use rotsv_num::simd::{self, Level};
        let biases = [
            [1.1, 1.1, 0.0, 0.0],
            [0.4, 0.9, 0.1, 0.0],
            [0.2, 1.0, 0.8, 0.0],  // reversed drain/source
            [1.1, 0.0, 0.0, 0.0],  // subthreshold
            [0.0, 0.3, 1.1, 0.0],  // reversed and subthreshold
            [0.0, 0.0, 1.1, 1.1],  // PMOS-style bias
            [-0.1, 0.5, 0.3, 0.0], // negative terminal
            [0.0, 0.0, 0.0, 0.0],  // unbiased
        ];
        for want in [Level::Scalar, Level::Avx2, Level::Avx512] {
            let level = simd::set_level(want);
            for pmos in [false, true] {
                for k in [1, 2, 4, 8, 16, 32] {
                    let devs = lane_devices_n(pmos, k);
                    let refs: Vec<&Mosfet> = devs.iter().collect();
                    let mut bank = MosfetBank::try_new(&refs).expect("uniform lanes");
                    let live = BatchedDeviceEval::live_rows(&bank);
                    let mut nonzero = [false; 4];
                    for bias in biases {
                        let mut v = vec![0.0; 4 * k];
                        for (ti, &b) in bias.iter().enumerate() {
                            for (lane, item) in v[ti * k..(ti + 1) * k].iter_mut().enumerate() {
                                *item = b + 0.013 * lane as f64;
                            }
                        }
                        // Poisoned outputs: every entry must be written.
                        let mut c = vec![f64::NAN; 4 * k];
                        let mut j = vec![f64::NAN; 16 * k];
                        bank.eval_lanes(&v, &mut c, &mut j);
                        for (row, seen) in nonzero.iter_mut().enumerate() {
                            let cur = &c[row * k..(row + 1) * k];
                            let jac = &j[row * 4 * k..(row + 1) * 4 * k];
                            if (live >> row) & 1 == 0 {
                                assert!(
                                    cur.iter().chain(jac).all(|x| x.to_bits() == 0),
                                    "{} row {row} not +0.0 at {bias:?}, K = {k}, pmos = {pmos}",
                                    level.name()
                                );
                            }
                            *seen |= cur.iter().chain(jac).any(|&x| x != 0.0);
                        }
                    }
                    let declared: Vec<bool> = (0..4).map(|row| (live >> row) & 1 == 1).collect();
                    assert_eq!(
                        declared,
                        nonzero,
                        "{} K = {k}, pmos = {pmos}: live rows must be drain and source",
                        level.name()
                    );
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
    }

    /// Re-seating a lane must be indistinguishable from building a fresh
    /// bank over the swapped composition (bit-identical evaluation), and
    /// must refuse devices whose shared parameters differ.
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
        assert!(BatchedDeviceEval::reseat_lane(&mut bank, 2, &incoming));
        let swapped: Vec<&Mosfet> = vec![&devs[0], &devs[1], &incoming, &devs[3]];
        let mut fresh = MosfetBank::try_new(&swapped).unwrap();
        let v: Vec<f64> = (0..4 * k).map(|i| 0.1 + 0.07 * i as f64).collect();
        let (mut c0, mut j0) = (vec![0.0; 4 * k], vec![0.0; 16 * k]);
        let (mut c1, mut j1) = (vec![0.0; 4 * k], vec![0.0; 16 * k]);
        bank.eval_lanes(&v, &mut c0, &mut j0);
        fresh.eval_lanes(&v, &mut c1, &mut j1);
        assert_eq!(c0, c1, "re-seated bank currents drifted");
        assert_eq!(j0, j1, "re-seated bank jacobians drifted");

        // A different drive strength breaks uniformity: the bank must
        // refuse so the workspace rebuilds (or degrades) the slot.
        let alien = Mosfet::new("m", tech45::nmos(DriveStrength::X1), d, g, s, b);
        assert!(!BatchedDeviceEval::reseat_lane(&mut bank, 1, &alien));
        let mut c2 = vec![0.0; 4 * k];
        let mut j2 = vec![0.0; 16 * k];
        bank.eval_lanes(&v, &mut c2, &mut j2);
        assert_eq!(c0, c2, "a refused re-seat must not touch the bank");
    }

    #[test]
    fn batch_with_builds_a_bank_for_uniform_lanes() {
        let devs = lane_devices(false);
        let refs: Vec<&dyn NonlinearDevice> =
            devs.iter().map(|d| d as &dyn NonlinearDevice).collect();
        assert!(devs[0].batch_with(&refs).is_some());
    }
}
