//! The scheduler-loop training environment: the simulation itself
//! ([`QCloudSimEnv`]), stepped one decision at a time with the *scheduler
//! decision* handed to the agent — one queue pick (or wait) per step.
//!
//! Each episode builds a [`QCloudSimEnv`] whose scheduler is an
//! [`RlSchedScheduler`] fed from a [`PickSlot`] instead of a policy. The
//! env advances the kernel instant by instant
//! ([`QCloudSimEnv::run_next_instant`]) and asks the agent at instant
//! boundaries where the queue is non-empty. A step stores the pick, wakes
//! the parked scheduler coroutine and runs the current instant, so the
//! pick goes through the same dispatch rule, executor timing, fidelity
//! arithmetic and lease release that every harness runs: a policy trained
//! here sees exactly the dynamics it is deployed into.

use super::adapter::{Outcome, PickSlot};
use super::{argmax, encode_sched_observation_into, episode_objective, RewardWeights};
use super::{RlSchedScheduler, SchedObsConfig};
use crate::config::SimParams;
use crate::jobgen::bimodal_arrivals;
use crate::maintenance::MaintenanceWindow;
use crate::policies::Placement;
use crate::records::JobRecord;
use crate::simenv::QCloudSimEnv;
use parking_lot::Mutex;
use qcs_calibration::DeviceProfile;
use qcs_rl::env::{Env, StepResult};
use std::sync::Arc;

/// Episode/workload configuration for [`SchedulerEnv`].
#[derive(Debug, Clone)]
pub struct SchedEnvConfig {
    /// Observation layout and normalisers (also fixes the action space).
    pub obs: SchedObsConfig,
    /// Placement policy that turns the agent's *which job* pick into a
    /// concrete device partition.
    pub placement: Placement,
    /// Jobs per episode.
    pub n_jobs: usize,
    /// Poisson arrival rate of the bimodal trace (jobs/second).
    pub arrival_rate: f64,
    /// Every `big_every`-th job of the trace is a large (250-qubit) job.
    pub big_every: usize,
    /// Scheduled maintenance windows, replayed every episode.
    pub maintenance: Vec<MaintenanceWindow>,
    /// Objective weights (see [`episode_objective`]).
    pub reward: RewardWeights,
    /// Hard step cap per episode (truncation backstop; real episodes end
    /// far earlier because every wait consumes a discrete event).
    pub max_steps: u64,
}

impl Default for SchedEnvConfig {
    fn default() -> Self {
        SchedEnvConfig {
            obs: SchedObsConfig::default(),
            placement: Placement::Speed,
            n_jobs: 24,
            arrival_rate: 0.1,
            big_every: 4,
            maintenance: Vec::new(),
            reward: RewardWeights::default(),
            max_steps: 4096,
        }
    }
}

/// The queue-deep scheduling environment (see the
/// [module docs](crate::rlsched) for the observation/action/reward
/// contract).
pub struct SchedulerEnv {
    cfg: SchedEnvConfig,
    params: SimParams,
    total_capacity: u64,
    /// The fleet between episodes. A reset moves it into the episode's
    /// simulation and takes it back out of the previous one, so episodes
    /// never deep-clone the device profiles.
    profiles: Vec<DeviceProfile>,
    /// The running episode (`None` before the first reset).
    sim: Option<QCloudSimEnv>,
    pick: Arc<Mutex<PickSlot>>,
    prev_objective: f64,
    steps: u64,
    done: bool,
}

impl SchedulerEnv {
    /// Builds the environment over `profiles` (typically
    /// [`qcs_calibration::ibm_fleet`]). Panics if the fleet exceeds the
    /// observation's device slots; a reset panics if a job of its trace
    /// needs more qubits than the whole fleet has.
    pub fn new(profiles: &[DeviceProfile], params: SimParams, cfg: SchedEnvConfig) -> Self {
        assert!(
            profiles.len() <= cfg.obs.max_devices,
            "more devices than observation slots"
        );
        SchedulerEnv {
            total_capacity: profiles.iter().map(|p| p.spec.num_qubits as u64).sum(),
            cfg,
            params,
            profiles: profiles.to_vec(),
            sim: None,
            pick: Arc::new(Mutex::new(PickSlot::default())),
            prev_objective: 0.0,
            steps: 0,
            done: false,
        }
    }

    /// The environment's configuration.
    pub fn config(&self) -> &SchedEnvConfig {
        &self.cfg
    }

    /// Total fleet qubit capacity (the utilisation denominator).
    pub fn total_capacity(&self) -> u64 {
        self.total_capacity
    }

    /// The telemetry emitted so far this episode — the exact stream the
    /// reward deltas are computed from (pinned by the reward-accounting
    /// proptest). A copy: the records live in the running simulation.
    pub fn records(&self) -> Vec<JobRecord> {
        self.sim
            .as_ref()
            .map(|sim| sim.state().records.records().to_vec())
            .unwrap_or_default()
    }

    fn sim(&mut self) -> &mut QCloudSimEnv {
        self.sim.as_mut().expect("reset before step")
    }

    fn queue_is_empty(&self) -> bool {
        self.sim
            .as_ref()
            .is_none_or(|sim| sim.state().pending.is_empty())
    }

    /// Runs instants until a job waits in the queue (a decision point) or
    /// the simulation has no event left.
    fn roll_forward(&mut self) {
        while self.queue_is_empty() && self.sim().run_next_instant() {}
    }

    /// Encodes the observation at the current instant.
    fn observe(&self) -> Vec<f32> {
        let sim = self.sim.as_ref().expect("reset before observe");
        let mut out = vec![0.0f32; self.cfg.obs.obs_dim()];
        let mut st = sim.state();
        let st = &mut *st;
        st.cloud_state.refresh(sim.now(), sim.offline());
        encode_sched_observation_into(
            &mut out,
            st.pending.make_contiguous(),
            &st.cloud_state,
            &self.cfg.obs,
        );
        out
    }
}

impl Env for SchedulerEnv {
    fn obs_dim(&self) -> usize {
        self.cfg.obs.obs_dim()
    }

    fn action_dim(&self) -> usize {
        self.cfg.obs.action_dim()
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        if let Some(sim) = self.sim.take() {
            self.profiles = sim.into_profiles();
        }
        *self.pick.lock() = PickSlot::default();
        let scheduler = RlSchedScheduler::for_env(
            self.cfg.obs.clone(),
            &self.cfg.placement,
            seed,
            self.pick.clone(),
        );
        let jobs = bimodal_arrivals(
            self.cfg.n_jobs,
            self.cfg.arrival_rate,
            self.cfg.big_every,
            seed,
        );
        let mut sim = QCloudSimEnv::with_scheduler(
            std::mem::take(&mut self.profiles),
            Box::new(scheduler),
            jobs,
            self.params.clone(),
            seed,
        );
        for &w in &self.cfg.maintenance {
            sim.schedule_maintenance(w);
        }
        self.sim = Some(sim);
        self.prev_objective = 0.0;
        self.steps = 0;
        self.done = false;
        // Roll forward to the first decision point (first arrival).
        self.roll_forward();
        self.observe()
    }

    fn step(&mut self, action: &[f32]) -> StepResult {
        assert_eq!(action.len(), self.action_dim(), "action dim mismatch");
        assert!(!self.done, "step on a finished episode (reset first)");
        self.steps += 1;
        // An empty queue has nothing to pick from: the step is a wait.
        let outcome = if self.queue_is_empty() {
            Outcome::Held
        } else {
            self.pick.lock().pick = Some(argmax(action));
            let sim = self.sim();
            assert!(sim.wake_scheduler(), "the scheduler parks between asks");
            sim.run_next_instant();
            self.pick
                .lock()
                .outcome
                .take()
                .expect("the woken scheduler took the pick")
        };
        let mut truncated = false;
        match outcome {
            // More picks may follow at the same instant.
            Outcome::Picked => {}
            Outcome::FellBack => self.roll_forward(),
            // Wait for the next instant (arrival, lease release, job
            // finish, maintenance edge). With none left, queued work can
            // never start — e.g. the placement refuses every queued job on
            // an idle fleet: truncate, leaving the refusals visible as
            // unfinished records.
            Outcome::Held => {
                if !self.sim().run_next_instant() && !self.queue_is_empty() {
                    truncated = true;
                }
                self.roll_forward();
            }
        }

        let (terminated, objective) = {
            let st = self.sim.as_ref().expect("reset before step").state();
            let terminated = st.pending.is_empty()
                && st.records.terminal_count() == self.cfg.n_jobs
                && st.cloud_state.leases().is_empty();
            let objective =
                episode_objective(st.records.records(), self.total_capacity, &self.cfg.reward);
            (terminated, objective)
        };
        if !terminated && self.steps >= self.cfg.max_steps {
            truncated = true;
        }
        let reward = objective - self.prev_objective;
        self.prev_objective = objective;
        self.done = terminated || truncated;
        StepResult {
            obs: self.observe(),
            reward,
            terminated,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_calibration::ibm_fleet;

    fn env(cfg: SchedEnvConfig) -> SchedulerEnv {
        SchedulerEnv::new(&ibm_fleet(1), SimParams::default(), cfg)
    }

    /// Drives an episode with a fixed action, returning (return, steps).
    fn run_episode(e: &mut SchedulerEnv, seed: u64, slot: usize) -> (f64, u64) {
        let mut action = vec![0.0f32; e.action_dim()];
        action[slot] = 1.0;
        e.reset(seed);
        let mut ret = 0.0;
        let mut steps = 0;
        loop {
            let r = e.step(&action);
            ret += r.reward;
            steps += 1;
            if r.terminated || r.truncated {
                assert!(r.terminated, "fifo-head policy must drain the trace");
                return (ret, steps);
            }
        }
    }

    #[test]
    fn fifo_head_policy_completes_every_job() {
        let cfg = SchedEnvConfig {
            n_jobs: 16,
            ..SchedEnvConfig::default()
        };
        let mut e = env(cfg);
        let (ret, _) = run_episode(&mut e, 11, 0);
        assert_eq!(e.records().len(), 16);
        assert!(e.records().iter().all(|r| r.finished()));
        let recomputed = episode_objective(&e.records(), e.total_capacity(), &e.config().reward);
        assert!(
            (ret - recomputed).abs() < 1e-9,
            "return {ret} drifted from objective {recomputed}"
        );
    }

    #[test]
    fn wait_only_policy_terminates_via_fallback() {
        let cfg = SchedEnvConfig {
            n_jobs: 8,
            ..SchedEnvConfig::default()
        };
        let mut e = env(cfg);
        let wait_slot = e.action_dim() - 1;
        let (_, steps) = run_episode(&mut e, 3, wait_slot);
        assert!(e.records().iter().all(|r| r.finished()));
        assert!(steps <= e.config().max_steps);
    }

    #[test]
    fn episodes_are_deterministic_per_seed() {
        let mut a = env(SchedEnvConfig::default());
        let mut b = env(SchedEnvConfig::default());
        let oa = a.reset(42);
        let ob = b.reset(42);
        assert_eq!(oa, ob);
        let mut action = vec![0.0f32; a.action_dim()];
        action[0] = 1.0;
        for _ in 0..40 {
            let ra = a.step(&action);
            let rb = b.step(&action);
            assert_eq!(ra, rb);
            if ra.done() {
                break;
            }
        }
        // Distinct seeds → distinct traces.
        let oc = a.reset(43);
        assert_ne!(oa, oc);
    }

    #[test]
    fn maintenance_window_is_respected() {
        // Put device 0 in maintenance across the whole episode: no lease
        // may ever touch it, and the offline flag shows in observations.
        let cfg = SchedEnvConfig {
            n_jobs: 12,
            maintenance: vec![MaintenanceWindow {
                device: 0,
                start: 0.0,
                duration: 1e9,
            }],
            ..SchedEnvConfig::default()
        };
        let mut e = env(cfg);
        let mut action = vec![0.0f32; e.action_dim()];
        action[0] = 1.0;
        e.reset(9);
        loop {
            assert!(
                e.sim
                    .as_ref()
                    .unwrap()
                    .state()
                    .cloud_state
                    .leases()
                    .iter()
                    .all(|l| l.device.index() != 0),
                "lease on offline device"
            );
            let r = e.step(&action);
            if r.done() {
                break;
            }
        }
        assert!(e.records().iter().all(|r| r.finished()));
        assert!(e
            .records()
            .iter()
            .flat_map(|r| r.parts.iter())
            .all(|&(d, _)| d != 0));
    }
}
