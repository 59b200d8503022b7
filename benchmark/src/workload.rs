//! The four workloads and the inputs each one generates from its seed.
//!
//! Work per run is fixed by `--seconds` and the seed alone, never by how
//! fast the host happens to be, so two runs with the same arguments do
//! exactly the same simulations and their work counters repeat exactly.
//! The nominal unit costs below are medians on the 2-core reference host
//! the README's baseline comes from; at `--seconds 20` they give the
//! sizes the README lists.

use rotsv::num::units::Ohms;
use rotsv::tsv::TsvFault;

/// Worker threads the in-process workloads may use, and the daemon's
/// engine worker count.
pub const THREADS: usize = 2;

/// Each workload's role is documented in the README; the one-line
/// reasons live in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// N = 5 populations, one K = 32 load each.
    McUniform,
    /// N = 2 leakage ladder with early-retiring stuck dies.
    McLadder,
    /// One die per `measure_delta_t` call, fanned out over threads.
    DieSweep,
    /// The screening daemon under an open-loop client.
    Screen,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::McUniform,
        Workload::McLadder,
        Workload::DieSweep,
        Workload::Screen,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::McUniform => "mc_uniform",
            Workload::McLadder => "mc_ladder",
            Workload::DieSweep => "die_sweep",
            Workload::Screen => "screen",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Nominal host seconds of one unit of each in-process workload; the
/// number of units in a run is `--seconds` over this, rounded.
const UNIT_SECONDS_UNIFORM: f64 = 5.0;
const UNIT_SECONDS_LADDER: f64 = 8.5;
const UNIT_SECONDS_SWEEP: f64 = 4.0;

fn units_for(seconds: f64, unit_seconds: f64) -> usize {
    ((seconds / unit_seconds).round() as usize).max(1)
}

/// The E3-shaped fault hypothesis of `mc_uniform`: a 1 kΩ resistive open
/// halfway down TSV 0.
pub fn open_1k() -> TsvFault {
    TsvFault::ResistiveOpen {
        x: 0.5,
        r: Ohms(1e3),
    }
}

/// The fault list of an `n`-segment ring with `fault` on TSV 0, the TSV
/// under test in every workload.
pub fn on_tsv0(n: usize, fault: TsvFault) -> Vec<TsvFault> {
    let mut faults = vec![TsvFault::None; n];
    faults[0] = fault;
    faults
}

/// One Monte-Carlo population: one facade call, one result per die.
#[derive(Debug, Clone)]
pub struct Population {
    /// Ring segments (the paper's N).
    pub n_segments: usize,
    /// Supply voltage.
    pub vdd: f64,
    /// Die `i`'s fault list.
    pub faults: Vec<Vec<TsvFault>>,
    /// Population seed: die `i` is `Die::new(paper, die_seed(seed, i))`.
    pub seed: u64,
}

impl Population {
    /// Dies in the population.
    pub fn dies(&self) -> usize {
        self.faults.len()
    }

    /// `true` when every die carries the same faults (a homogeneous
    /// population rather than a fault sweep).
    pub fn uniform(&self) -> bool {
        self.faults.windows(2).all(|w| w[0] == w[1])
    }
}

/// Population seed of unit `u`. Every population draws its own dies: a
/// K-lane load lasts as long as its slowest die, and dies shared across
/// the units of a run would let one slow die set the pace of all of them.
fn unit_seed(seed: u64, u: usize) -> u64 {
    rotsv::die_seed(seed, u)
}

/// `mc_uniform`: the paper's group size N = 5 in the shape of E3, fault
/// free and with a 1 kΩ open, over three supply voltages. Unit `u` runs
/// at V_DD `u mod 3` and is fault free for even `u`, so any four units
/// cover every voltage and both faults.
pub fn mc_uniform(seed: u64, seconds: f64, smoke: bool) -> Vec<Population> {
    const VDDS: [f64; 3] = [0.95, 1.1, 1.2];
    let (units, dies) = if smoke {
        (1, 4)
    } else {
        (units_for(seconds, UNIT_SECONDS_UNIFORM), 32)
    };
    (0..units)
        .map(|u| {
            let fault = if u % 2 == 0 {
                TsvFault::None
            } else {
                open_1k()
            };
            Population {
                n_segments: 5,
                vdd: VDDS[u % 3],
                faults: vec![on_tsv0(5, fault); dies],
                seed: unit_seed(seed, u),
            }
        })
        .collect()
}

/// Leakage resistance of each rung of the `mc_ladder` sweep; the 300 Ω
/// and 500 Ω rungs stop the ring, every other rung oscillates.
pub const LADDER_OHMS: [f64; 8] = [300.0, 1e5, 1e6, 500.0, 1e7, 1e8, 1e9, 5e6];

/// Whether a ladder rung resistance stops the ring.
pub fn ladder_stuck(r: f64) -> bool {
    r <= 500.0
}

/// `mc_ladder`: a 256-die N = 2 leakage ladder, die `i` on rung
/// `(i + seed) mod 8`, at V_DD 0.95 and 1.1 V. A quarter of the dies are
/// stuck and retire their lanes early.
pub fn mc_ladder(seed: u64, seconds: f64, smoke: bool) -> Vec<Population> {
    const VDDS: [f64; 2] = [0.95, 1.1];
    let (units, dies) = if smoke {
        (1, 16)
    } else {
        (units_for(seconds, UNIT_SECONDS_LADDER), 256)
    };
    (0..units)
        .map(|u| Population {
            n_segments: 2,
            vdd: VDDS[u % 2],
            faults: (0..dies)
                .map(|i| {
                    let r = LADDER_OHMS[(i + seed as usize) % LADDER_OHMS.len()];
                    on_tsv0(2, TsvFault::Leakage { r: Ohms(r) })
                })
                .collect(),
            seed: unit_seed(seed, u),
        })
        .collect()
}

/// The ten fault points of one `die_sweep` voltage: fault free (an open
/// of 0 Ω), opens of 250 Ω to 3 kΩ, and leaks of 1 kΩ to 100 kΩ.
pub fn sweep_points() -> Vec<TsvFault> {
    let open = |r: f64| TsvFault::ResistiveOpen { x: 0.5, r: Ohms(r) };
    let leak = |r: f64| TsvFault::Leakage { r: Ohms(r) };
    vec![
        TsvFault::None,
        open(250.0),
        open(500.0),
        open(1e3),
        open(2e3),
        open(3e3),
        leak(1e3),
        leak(3e3),
        leak(1e4),
        leak(1e5),
    ]
}

/// Indices into [`sweep_points`] the output checks compare.
pub const POINT_FAULT_FREE: usize = 0;
/// 1 kΩ open.
pub const POINT_OPEN_1K: usize = 3;
/// 3 kΩ open.
pub const POINT_OPEN_3K: usize = 5;
/// 3 kΩ leak.
pub const POINT_LEAK_3K: usize = 7;

/// `die_sweep`: unit `u` is die `die_seed(seed, u)` measured at every
/// (V_DD, fault point) pair, one `measure_delta_t` call each.
pub struct DieSweep {
    /// Dies (units).
    pub dies: usize,
    /// Supply voltages per die.
    pub vdds: Vec<f64>,
}

/// The `die_sweep` plan.
pub fn die_sweep(seconds: f64, smoke: bool) -> DieSweep {
    if smoke {
        DieSweep {
            dies: 1,
            vdds: vec![1.1],
        }
    } else {
        DieSweep {
            dies: units_for(seconds, UNIT_SECONDS_SWEEP),
            vdds: vec![0.8, 0.95, 1.1, 1.2],
        }
    }
}

/// Fault hypothesis of a screening job, as the wire protocol names it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobFault {
    /// Fault free.
    None,
    /// 1 kΩ open at x = 0.5 on TSV 0.
    Open1k,
    /// 3 kΩ leak on TSV 0.
    Leak3k,
}

impl JobFault {
    /// The per-segment fault list the daemon builds for this hypothesis.
    pub fn faults(self, n: usize) -> Vec<TsvFault> {
        match self {
            JobFault::None => on_tsv0(n, TsvFault::None),
            JobFault::Open1k => on_tsv0(n, open_1k()),
            JobFault::Leak3k => on_tsv0(n, TsvFault::Leakage { r: Ohms(3e3) }),
        }
    }
}

/// One screening job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Segments per ring.
    pub n_segments: usize,
    /// Dies to screen.
    pub dies: usize,
    /// Supply voltages; one verdict per die and voltage.
    pub vdds: Vec<f64>,
    /// Fault hypothesis.
    pub fault: JobFault,
    /// Population seed of the job.
    pub seed: u64,
}

impl Job {
    /// Verdicts the job must stream.
    pub fn verdicts(&self) -> usize {
        self.dies * self.vdds.len()
    }
}

/// Phase-A job `i`: one die, as a prober streams dies to the daemon one
/// at a time, cycling (period 16) over ring size {1, 2}, fault {none,
/// open 1 kΩ, none, leak 3 kΩ} and V_DD set {[1.1], [0.95, 1.1, 1.2]},
/// with job seed `seed + i`.
pub fn screen_stream_job(seed: u64, i: usize) -> Job {
    Job {
        n_segments: 1 + i % 2,
        fault: JOB_FAULTS[(i / 2) % 4],
        dies: 1,
        vdds: vdd_set((i / 8) % 2),
        seed: seed + i as u64,
    }
}

/// Phase-B job `i`: a lot, cycling (period 64) with the job size fastest
/// over dies {1, 2, 4, 8}, then ring size, V_DD set and fault as in
/// [`screen_stream_job`], with job seed `seed + 2^20 + i`.
pub fn screen_lot_job(seed: u64, i: usize) -> Job {
    Job {
        dies: [1, 2, 4, 8][i % 4],
        n_segments: 1 + (i / 4) % 2,
        vdds: vdd_set((i / 8) % 2),
        fault: JOB_FAULTS[(i / 16) % 4],
        seed: seed + (1 << 20) + i as u64,
    }
}

const JOB_FAULTS: [JobFault; 4] = [
    JobFault::None,
    JobFault::Open1k,
    JobFault::None,
    JobFault::Leak3k,
];

fn vdd_set(k: usize) -> Vec<f64> {
    if k == 0 {
        vec![1.1]
    } else {
        vec![0.95, 1.1, 1.2]
    }
}

/// Warm-up jobs covering every engine group key of the traffic mix: one
/// die of each (ring size, fault) pair at all three voltages. Set-up work
/// does not depend on the run's seed.
pub fn screen_warmup() -> Vec<Job> {
    let mut jobs = Vec::new();
    for n_segments in [1, 2] {
        for fault in [JobFault::None, JobFault::Open1k, JobFault::Leak3k] {
            jobs.push(Job {
                n_segments,
                dies: 1,
                vdds: vec![0.95, 1.1, 1.2],
                fault,
                seed: 0,
            });
        }
    }
    jobs
}

/// The `screen` load: phase A offers `rate` verdicts per second for
/// `phase_a_s` seconds (open loop); phase B then submits `bursts` lots of
/// `burst_verdicts` verdicts' worth of jobs at once, each after the
/// previous one drained.
#[derive(Debug, Clone, Copy)]
pub struct ScreenPlan {
    /// Offered load of phase A, verdicts per second. 10/s keeps the
    /// daemon's two workers about 40 % busy. At 20/s they were 82–90 %
    /// busy, so queueing tripled the effect of a slower host on latency.
    pub rate: f64,
    /// Length of phase A's arrival schedule, seconds.
    pub phase_a_s: f64,
    /// Phase-B bursts. How group claims race with admission sets a
    /// burst's schedule, so identical bursts differ by about ±10 % in
    /// throughput; the median over several is steadier than one larger
    /// burst.
    pub bursts: usize,
    /// Size of each phase-B burst, verdicts.
    pub burst_verdicts: usize,
}

/// The `screen` plan for a run of `seconds`.
pub fn screen_plan(seconds: f64, smoke: bool) -> ScreenPlan {
    if smoke {
        ScreenPlan {
            rate: 10.0,
            phase_a_s: 1.0,
            bursts: 1,
            burst_verdicts: 24,
        }
    } else {
        ScreenPlan {
            rate: 10.0,
            phase_a_s: 0.75 * seconds,
            bursts: 5,
            burst_verdicts: (8.0 * seconds).round() as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }

    #[test]
    fn sizes_at_the_default_run_length() {
        assert_eq!(mc_uniform(1007, 20.0, false).len(), 4);
        assert_eq!(mc_ladder(1007, 20.0, false).len(), 2);
        assert_eq!(mc_ladder(1007, 20.0, false)[0].dies(), 256);
        assert_eq!(die_sweep(20.0, false).dies, 5);
        let screen = screen_plan(20.0, false);
        assert_eq!(screen.burst_verdicts, 160);
        // Phase A leaves at least ten verdicts beyond its p90.
        assert!(screen.rate * screen.phase_a_s >= 100.0);
    }

    #[test]
    fn ladder_is_a_quarter_stuck_for_any_seed() {
        for seed in [0, 1, 1007, 2024] {
            let pop = &mc_ladder(seed, 20.0, false)[0];
            let stuck = pop
                .faults
                .iter()
                .filter(|f| matches!(f[0], TsvFault::Leakage { r } if ladder_stuck(r.value())))
                .count();
            assert_eq!(stuck, 64);
            assert!(!pop.uniform());
        }
        assert!(mc_uniform(1, 20.0, false)[0].uniform());
    }

    #[test]
    fn uniform_units_cover_every_voltage_and_both_faults() {
        let pops = mc_uniform(1007, 20.0, false);
        for vdd in [0.95, 1.1, 1.2] {
            assert!(pops.iter().any(|p| p.vdd == vdd), "{vdd} V missing");
        }
        assert!(pops.iter().any(|p| p.faults[0][0] == TsvFault::None));
        assert!(pops.iter().any(|p| p.faults[0][0] == open_1k()));
    }

    #[test]
    fn screen_mixes_average_two_and_seven_and_a_half_verdicts() {
        let total: usize = (0..64).map(|i| screen_lot_job(0, i).verdicts()).sum();
        assert_eq!(total, 480);
        let total: usize = (0..16).map(|i| screen_stream_job(0, i).verdicts()).sum();
        assert_eq!(total, 32);
        // Any four consecutive lot jobs carry every job size.
        for start in [0, 5, 17] {
            let mut sizes: Vec<usize> = (start..start + 4)
                .map(|i| screen_lot_job(0, i).dies)
                .collect();
            sizes.sort_unstable();
            assert_eq!(sizes, [1, 2, 4, 8]);
        }
    }
}
