//! The RL scheduling environment ([`SchedulerEnv`]) against the simulator
//! it trains on.
//!
//! * **Goldens** — FNV-1a fingerprints of whole episodes (every step's
//!   observation bits, reward bits and done flags, plus the final record
//!   stream) over placements × maintenance windows × action streams, with
//!   default [`SimParams`]. Any change to what the agent sees, what it is
//!   paid, or what the episode leaves behind fails here.
//! * **Differential** — an episode that always picks the queue head is the
//!   FIFO discipline, so its records must equal a [`QCloudSimEnv`] run of
//!   `speed` under FIFO on the same trace, under both release policies,
//!   with and without a maintenance window.

use qcs_calibration::ibm_fleet;
use qcs_desim::Xoshiro256StarStar;
use qcs_qcloud::config::ReleasePolicy;
use qcs_qcloud::jobgen::bimodal_arrivals;
use qcs_qcloud::policies::{scheduler_by_name, Placement};
use qcs_qcloud::records::JobRecord;
use qcs_qcloud::rlsched::{SchedEnvConfig, SchedulerEnv};
use qcs_qcloud::{MaintenanceWindow, QCloudSimEnv, SimParams};
use qcs_rl::env::Env;

/// How an episode picks its actions.
#[derive(Clone, Copy, Debug)]
enum Actions {
    /// Uniform logits in `[-1, 1)` from a seeded stream.
    Random,
    /// Always the queue head (the FIFO discipline).
    FifoHead,
    /// The wait slot half the time, otherwise a uniformly drawn slot.
    WaitBiased,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }

    fn obs(&mut self, obs: &[f32]) {
        for &v in obs {
            self.mix(v.to_bits() as u64);
        }
    }

    fn records(&mut self, records: &[JobRecord]) {
        for r in records {
            self.mix(r.job_id.0);
            self.mix(r.arrival.to_bits());
            self.mix(r.start.to_bits());
            self.mix(r.exec_end.to_bits());
            self.mix(r.finish.to_bits());
            self.mix(r.fidelity.to_bits());
            self.mix(r.comm_seconds.to_bits());
            self.mix(r.bypassed as u64);
            for &(d, a) in &r.parts {
                self.mix(d as u64);
                self.mix(a);
            }
        }
    }
}

fn action(kind: Actions, rng: &mut Xoshiro256StarStar, dim: usize) -> Vec<f32> {
    match kind {
        Actions::Random => (0..dim).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect(),
        Actions::FifoHead => one_hot(dim, 0),
        Actions::WaitBiased => {
            let slot = if rng.next_f64() < 0.5 {
                dim - 1
            } else {
                (rng.next_f64() * dim as f64) as usize % dim
            };
            one_hot(dim, slot)
        }
    }
}

fn one_hot(dim: usize, slot: usize) -> Vec<f32> {
    let mut a = vec![0.0f32; dim];
    a[slot] = 1.0;
    a
}

/// Runs one episode and returns its fingerprint and step count.
fn episode(env: &mut SchedulerEnv, trace_seed: u64, kind: Actions, action_seed: u64) -> (u64, u64) {
    let mut rng = Xoshiro256StarStar::new(action_seed);
    let dim = env.action_dim();
    let mut h = Fnv::new();
    h.obs(&env.reset(trace_seed));
    let mut steps = 0u64;
    loop {
        let r = env.step(&action(kind, &mut rng, dim));
        steps += 1;
        h.obs(&r.obs);
        h.mix(r.reward.to_bits());
        h.mix(r.terminated as u64);
        h.mix(r.truncated as u64);
        if r.done() {
            break;
        }
    }
    h.records(&env.records());
    (h.0, steps)
}

const PLACEMENTS: [Placement; 3] = [Placement::Speed, Placement::Fair, Placement::Random];
const ACTIONS: [Actions; 3] = [Actions::Random, Actions::FifoHead, Actions::WaitBiased];

/// `None`, a window on device 0 open from t = 0, and a mid-run window on
/// device 2.
fn window(ix: usize) -> Option<MaintenanceWindow> {
    match ix {
        0 => None,
        1 => Some(MaintenanceWindow {
            device: 0,
            start: 0.0,
            duration: 2500.0,
        }),
        _ => Some(MaintenanceWindow {
            device: 2,
            start: 900.0,
            duration: 3000.0,
        }),
    }
}

/// Episode fingerprints in `PLACEMENTS × window × ACTIONS` order, 24 jobs
/// per episode, captured from the environment's first implementation (a
/// hand-written replay of the simulator loop) before it was rebuilt on
/// [`QCloudSimEnv`].
const GOLDENS: [u64; 27] = [
    // speed, no window
    0xf1cbbcbb0f350694,
    0x14a3343b87ddf4fa,
    0x286ed847b52d25bc,
    // speed, window at t=0
    0x17727a36a640b633,
    0x27d2104e089831d7,
    0x1557ec3210a4b192,
    // speed, mid-run window
    0x7036e1025cade1a3,
    0x9787e4034a7a1d87,
    0xc2a57b559fdba2e8,
    // fair, no window
    0x071bd32c3ee09859,
    0xc71d78aff67244c4,
    0x5409f16cb3caa5c4,
    // fair, window at t=0
    0x7c2456829b881652,
    0x77b32a21a6c9f117,
    0xda688c497b4344bd,
    // fair, mid-run window
    0xb129ba4fe7dfb226,
    0x5f64cdda79683a66,
    0xaf07182ddee2a04e,
    // random, no window
    0x5ace96786c8d7962,
    0x594dc93ed02502a4,
    0x38d7bb1d64cc75a5,
    // random, window at t=0
    0x7e21b0bdb4c0b3e1,
    0x3029df7bdc7fe394,
    0xe4400cf7b2e3af1a,
    // random, mid-run window
    0x28b2e63d25ac1bed,
    0x408796fae3112ef7,
    0x6d344abe1ed43a00,
];

#[test]
fn env_episode_fingerprints_pinned() {
    for (p, placement) in PLACEMENTS.iter().enumerate() {
        for w in 0..3 {
            let cfg = SchedEnvConfig {
                placement: placement.clone(),
                maintenance: window(w).into_iter().collect(),
                ..SchedEnvConfig::default()
            };
            let mut env = SchedulerEnv::new(&ibm_fleet(1), SimParams::default(), cfg);
            for (a, &kind) in ACTIONS.iter().enumerate() {
                let case = (9 * p + 3 * w + a) as u64;
                let (fp, steps) = episode(&mut env, 100 + case, kind, 7 + case);
                assert_eq!(
                    fp, GOLDENS[case as usize],
                    "{placement:?}, window {w}, {kind:?} actions: episode fingerprint changed \
                     to {fp:#018x} ({steps} steps)"
                );
            }
        }
    }
}

/// FIFO-head episodes reproduce `speed` under FIFO in the simulator,
/// record for record.
#[test]
fn fifo_head_episodes_match_the_simulator() {
    for release in [ReleasePolicy::PerDevice, ReleasePolicy::AtJobEnd] {
        for w in [0, 2] {
            let params = SimParams {
                release,
                ..SimParams::default()
            };
            let windows: Vec<MaintenanceWindow> = window(w).into_iter().collect();
            let mut mismatched = Vec::new();
            for n_jobs in [24, 48] {
                let cfg = SchedEnvConfig {
                    n_jobs,
                    maintenance: windows.clone(),
                    ..SchedEnvConfig::default()
                };
                let mut env = SchedulerEnv::new(&ibm_fleet(1), params.clone(), cfg.clone());
                for seed in 1..=10u64 {
                    let (_, steps) = episode(&mut env, seed, Actions::FifoHead, 0);
                    assert!(steps < cfg.max_steps, "episode hit the step cap");
                    let trace = bimodal_arrivals(n_jobs, cfg.arrival_rate, cfg.big_every, seed);
                    let fifo = scheduler_by_name("speed", seed, 1).expect("known spec");
                    let mut sim = QCloudSimEnv::with_scheduler(
                        ibm_fleet(1),
                        fifo,
                        trace,
                        params.clone(),
                        seed,
                    );
                    for &wnd in &windows {
                        sim.schedule_maintenance(wnd);
                    }
                    let reference = sim.run();
                    assert!(reference.records.iter().all(|r| r.finished()));
                    if env.records() != reference.records {
                        mismatched.push((n_jobs, seed));
                    }
                }
            }
            assert!(
                mismatched.is_empty(),
                "{release:?}, window {w}: env records differ from the simulator's in {} of 20 \
                 cases: {mismatched:?}",
                mismatched.len()
            );
        }
    }
}
