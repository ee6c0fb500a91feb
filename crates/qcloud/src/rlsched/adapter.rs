//! The RL [`Scheduler`]: the checkpoint format, and the adapter that acts
//! on queue picks both when a trained policy is deployed (`rl:<path>`
//! specs whose checkpoint was trained on [`super::SchedulerEnv`]) and while
//! the environment trains one.

use super::{argmax, encode_sched_observation_into, SchedObsConfig};
use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::job::QJob;
use crate::policies::Placement;
use crate::sched::{CloudState, Dispatch, Scheduler, SchedulingDecision, WaitReason};
use parking_lot::Mutex;
use qcs_rl::policy::{ActScratch, ActorCritic};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The `kind` tag distinguishing a scheduler-environment checkpoint from a
/// plain [`ActorCritic`] (gym placement) checkpoint, which has no `kind`
/// field at all.
pub const SCHED_CHECKPOINT_KIND: &str = "sched_env";

/// A deployable scheduler policy: the trained network plus everything
/// needed to reproduce its train-time observation encoding and placement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedCheckpoint {
    /// Always [`SCHED_CHECKPOINT_KIND`] — the type probe `rl:<path>`
    /// loading keys on.
    pub kind: String,
    /// The observation config the policy was trained with.
    pub obs: SchedObsConfig,
    /// Placement spec token (e.g. `speed`) the agent's picks run through.
    pub placement: String,
    /// The trained actor-critic network.
    pub policy: ActorCritic,
}

impl SchedCheckpoint {
    /// Bundles a trained policy with its observation config and placement.
    /// Panics if the network's dimensions do not match `obs`.
    pub fn new(obs: SchedObsConfig, placement: &Placement, policy: ActorCritic) -> Self {
        assert_eq!(policy.obs_dim(), obs.obs_dim(), "policy obs_dim mismatch");
        assert_eq!(
            policy.action_dim(),
            obs.action_dim(),
            "policy action_dim mismatch"
        );
        SchedCheckpoint {
            kind: SCHED_CHECKPOINT_KIND.to_string(),
            obs,
            placement: placement.to_string(),
            policy,
        }
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialisation cannot fail")
    }

    /// Parses from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let ck: SchedCheckpoint = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if ck.kind != SCHED_CHECKPOINT_KIND {
            return Err(format!(
                "not a scheduler checkpoint: kind '{}' (expected '{SCHED_CHECKPOINT_KIND}')",
                ck.kind
            ));
        }
        Ok(ck)
    }

    /// Writes the checkpoint atomically (temp file + rename), creating
    /// parent directories as needed — the same durability contract as
    /// [`qcs_rl::checkpoint::save_policy`].
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }
}

/// Loads `path` as a [`Scheduler`] **if** it holds a scheduler-environment
/// checkpoint. Returns `None` when the file is unreadable or holds
/// anything else (e.g. a plain gym [`ActorCritic`] checkpoint), so the
/// caller can fall through to the placement-broker path and its existing
/// error reporting. Panics (with the decode error) only when the `kind`
/// tag matches but the body is malformed — a corrupt checkpoint, not a
/// different format.
pub fn try_load_scheduler(path: &str, seed: u64) -> Option<Box<dyn Scheduler>> {
    let text = std::fs::read_to_string(path).ok()?;
    let probe = serde_json::parse_value(&text).ok()?;
    if probe.get_field("kind").and_then(|k| k.as_str()) != Some(SCHED_CHECKPOINT_KIND) {
        return None;
    }
    let ck = SchedCheckpoint::from_json(&text)
        .unwrap_or_else(|e| panic!("invalid scheduler RL checkpoint '{path}': {e}"));
    Some(Box::new(RlSchedScheduler::from_checkpoint(ck, seed)))
}

/// What one pick did ([`RlSchedScheduler`]'s dispatch rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The picked job dispatched.
    Picked,
    /// The pick was a hold, out of range or refused by the broker, and the
    /// fleet was idle, so the first placeable job dispatched instead.
    FellBack,
    /// Nothing dispatched.
    Held,
}

/// The training environment's side of the ask/tell seam: the env stores a
/// pick and wakes the scheduler; the next decide takes the pick and leaves
/// its [`Outcome`].
#[derive(Debug, Default)]
pub(crate) struct PickSlot {
    pub(crate) pick: Option<usize>,
    pub(crate) outcome: Option<Outcome>,
}

/// A trained policy and its inference buffers.
struct Trained {
    policy: ActorCritic,
    obs: Vec<f32>,
    scratch: ActScratch,
}

/// Where [`RlSchedScheduler`] gets its picks.
enum ActionSource {
    /// A trained policy, consulted on every decide (deployment).
    Policy(Box<Trained>),
    /// The training environment's pending pick. A decide with none pending
    /// holds, so the scheduler coroutine parks until the env asks again.
    Env(Arc<Mutex<PickSlot>>),
}

/// The RL scheduler. Each decide takes a pick — from the checkpoint's
/// policy (deterministic argmax over the same observation encoding as in
/// training) or from the training environment — and applies one rule:
/// dispatch the picked job through the placement broker (one dispatch,
/// immediate re-consult — the single-dispatch adapter pattern), else fall
/// back to the first placeable job if the fleet is idle, else park with an
/// honest [`WaitReason`].
pub struct RlSchedScheduler {
    source: ActionSource,
    cfg: SchedObsConfig,
    broker: Box<dyn Broker>,
    view: CloudView,
    name: String,
}

impl RlSchedScheduler {
    /// Instantiates the adapter from a parsed checkpoint. `seed` feeds the
    /// placement (only the stochastic baselines use it). Panics when the
    /// checkpoint's placement token or network dimensions are invalid.
    pub fn from_checkpoint(ck: SchedCheckpoint, seed: u64) -> Self {
        let placement: Placement = ck
            .placement
            .parse()
            .unwrap_or_else(|e| panic!("checkpoint placement '{}': {e}", ck.placement));
        assert_eq!(
            ck.policy.obs_dim(),
            ck.obs.obs_dim(),
            "checkpoint policy/obs dimension mismatch"
        );
        assert_eq!(
            ck.policy.action_dim(),
            ck.obs.action_dim(),
            "checkpoint policy/action dimension mismatch"
        );
        let source = ActionSource::Policy(Box::new(Trained {
            policy: ck.policy,
            obs: vec![0.0f32; ck.obs.obs_dim()],
            scratch: ActScratch::new(),
        }));
        Self::new(source, ck.obs, &placement, seed)
    }

    /// The scheduler a training episode runs: it acts only on the picks
    /// the environment leaves in `slot`.
    pub(crate) fn for_env(
        cfg: SchedObsConfig,
        placement: &Placement,
        seed: u64,
        slot: Arc<Mutex<PickSlot>>,
    ) -> Self {
        Self::new(ActionSource::Env(slot), cfg, placement, seed)
    }

    fn new(source: ActionSource, cfg: SchedObsConfig, placement: &Placement, seed: u64) -> Self {
        RlSchedScheduler {
            source,
            cfg,
            broker: placement.build(seed),
            view: CloudView {
                devices: Vec::new(),
            },
            name: "rlsched".to_string(),
        }
    }

    /// The dispatch rule. A hold is only safe when something in flight
    /// will wake the scheduler again; with an idle fleet
    /// (`state.leases()` empty) only a future arrival could, and the
    /// scheduler cannot see whether one exists — so it dispatches the
    /// first broker-placeable job in FIFO order instead. This is
    /// work-conserving and never worse than deadlock.
    fn act(
        &mut self,
        pick: usize,
        queue: &[QJob],
        state: &CloudState,
    ) -> (SchedulingDecision, Outcome) {
        let dispatch = |queue_index, parts| SchedulingDecision {
            dispatches: vec![Dispatch { queue_index, parts }],
            // Re-consult immediately: the policy may want to dispatch
            // several queued jobs back to back before waiting.
            wait: None,
        };
        if pick < self.cfg.queue_slots && pick < queue.len() {
            state.copy_view_into(&mut self.view);
            if let AllocationPlan::Dispatch(parts) = self.broker.select(&queue[pick], &self.view) {
                return (dispatch(pick, parts), Outcome::Picked);
            }
        }
        if state.leases().is_empty() {
            state.copy_view_into(&mut self.view);
            for (i, job) in queue.iter().enumerate() {
                if let AllocationPlan::Dispatch(parts) = self.broker.select(job, &self.view) {
                    return (dispatch(i, parts), Outcome::FellBack);
                }
            }
        }
        (
            SchedulingDecision::wait(self.wait_reason(queue, state)),
            Outcome::Held,
        )
    }

    /// Why the head job cannot start (mirrors the FIFO adapter's
    /// classification): not enough online qubits, offline qubits would
    /// cover it, or the policy simply declined.
    fn wait_reason(&self, queue: &[QJob], state: &CloudState) -> WaitReason {
        let head = &queue[0];
        if state.view().total_free() < head.num_qubits {
            let offline_extra: u64 = (0..state.len())
                .map(|i| crate::device::DeviceId(i as u32))
                .filter(|&d| state.is_offline(d))
                .map(|d| state.actual_level(d))
                .sum();
            if offline_extra > 0 && state.view().total_free() + offline_extra >= head.num_qubits {
                WaitReason::DeviceOffline
            } else {
                WaitReason::InsufficientCapacity
            }
        } else {
            WaitReason::PolicyHold
        }
    }
}

impl Scheduler for RlSchedScheduler {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        let pick = match &mut self.source {
            ActionSource::Policy(t) => {
                encode_sched_observation_into(&mut t.obs, queue, state, &self.cfg);
                Some(argmax(&t.policy.act_deterministic(&t.obs, &mut t.scratch)))
            }
            ActionSource::Env(slot) => slot.lock().pick.take(),
        };
        let Some(pick) = pick else {
            return SchedulingDecision::wait(self.wait_reason(queue, state));
        };
        let (decision, outcome) = self.act(pick, queue, state);
        if let ActionSource::Env(slot) = &self.source {
            slot.lock().outcome = Some(outcome);
        }
        decision
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimParams;
    use crate::job::JobId;
    use crate::sched::DeviceSpec;
    use qcs_desim::Xoshiro256StarStar;

    fn checkpoint() -> SchedCheckpoint {
        let obs = SchedObsConfig::default();
        let mut rng = Xoshiro256StarStar::new(17);
        let policy = ActorCritic::new(obs.obs_dim(), obs.action_dim(), &mut rng);
        SchedCheckpoint::new(obs, &Placement::Speed, policy)
    }

    fn state() -> CloudState {
        let specs: Vec<DeviceSpec> = (0..2)
            .map(|i| DeviceSpec {
                capacity: 100,
                error_score: 0.02 + 0.01 * i as f64,
                clops: 2e5,
                qv_layers: 7.0,
            })
            .collect();
        CloudState::new(&specs, &SimParams::default())
    }

    fn job(id: u64, q: u64) -> QJob {
        QJob {
            id: JobId(id),
            num_qubits: q,
            depth: 10,
            num_shots: 10_000,
            two_qubit_gates: 100,
            arrival_time: 0.0,
        }
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let ck = checkpoint();
        let json = ck.to_json();
        let back = SchedCheckpoint::from_json(&json).expect("round trip");
        assert_eq!(back.kind, SCHED_CHECKPOINT_KIND);
        assert_eq!(back.obs, ck.obs);
        assert_eq!(back.placement, "speed");
    }

    #[test]
    fn plain_policy_json_is_not_a_sched_checkpoint() {
        let mut rng = Xoshiro256StarStar::new(3);
        let plain = ActorCritic::new(4, 2, &mut rng).to_json();
        assert!(SchedCheckpoint::from_json(&plain).is_err());
    }

    #[test]
    fn decisions_never_park_and_dispatch_together() {
        let mut sched = RlSchedScheduler::from_checkpoint(checkpoint(), 0);
        let st = state();
        let queue: Vec<QJob> = (0..4).map(|i| job(i, 40 + 20 * i)).collect();
        let d = sched.decide(&queue, &st);
        // Exactly one of: a dispatch batch with re-consult, or a pure wait.
        if d.dispatches.is_empty() {
            assert!(d.wait.is_some(), "empty dispatch with no wait reason");
        } else {
            assert_eq!(d.dispatches.len(), 1);
            assert!(d.wait.is_none());
            let dis = &d.dispatches[0];
            assert!(dis.queue_index < queue.len());
            let total: u64 = dis.parts.iter().map(|&(_, a)| a).sum();
            assert_eq!(total, queue[dis.queue_index].num_qubits);
        }
        assert_eq!(sched.name(), "rlsched");
    }

    #[test]
    fn wait_reason_classifies_capacity() {
        let sched = RlSchedScheduler::from_checkpoint(checkpoint(), 0);
        let st = state();
        // Head demands more than the whole fleet: insufficient capacity.
        let big = vec![job(0, 500)];
        assert_eq!(
            sched.wait_reason(&big, &st),
            WaitReason::InsufficientCapacity
        );
        // Head fits: any refusal is a policy hold.
        let small = vec![job(1, 50)];
        assert_eq!(sched.wait_reason(&small, &st), WaitReason::PolicyHold);
    }

    #[test]
    fn idle_fleet_hold_falls_back_to_dispatch() {
        let mut sched = RlSchedScheduler::from_checkpoint(checkpoint(), 0);
        let mut st = state();
        let queue = vec![job(0, 50), job(1, 60)];
        let hold = SchedObsConfig::default().queue_slots;
        // Nothing in flight: a hold would deadlock the sim, so the adapter
        // must dispatch instead.
        let (d, outcome) = sched.act(hold, &queue, &st);
        assert_eq!(d.dispatches.len(), 1, "idle fleet must dispatch");
        assert!(d.wait.is_none());
        assert_eq!(outcome, Outcome::FellBack);
        // With work in flight a hold is safe: the release will wake us.
        st.reserve(&job(9, 40), &[(crate::device::DeviceId(0), 40)], 0.0);
        let (d, outcome) = sched.act(hold, &queue, &st);
        assert!(d.dispatches.is_empty());
        assert_eq!(d.wait, Some(WaitReason::PolicyHold));
        assert_eq!(outcome, Outcome::Held);
        // A placeable pick dispatches as picked.
        let (d, outcome) = sched.act(1, &queue, &st);
        assert_eq!(d.dispatches[0].queue_index, 1);
        assert_eq!(outcome, Outcome::Picked);
    }

    #[test]
    fn env_source_acts_once_per_pick() {
        let slot = Arc::new(Mutex::new(PickSlot::default()));
        let mut sched = RlSchedScheduler::for_env(
            SchedObsConfig::default(),
            &Placement::Speed,
            0,
            slot.clone(),
        );
        let st = state();
        let queue = vec![job(0, 50), job(1, 60)];
        // No pick pending: hold, and leave no outcome.
        let d = sched.decide(&queue, &st);
        assert!(d.dispatches.is_empty());
        assert!(slot.lock().outcome.is_none());
        slot.lock().pick = Some(1);
        let d = sched.decide(&queue, &st);
        assert_eq!(d.dispatches[0].queue_index, 1);
        assert_eq!(slot.lock().outcome.take(), Some(Outcome::Picked));
        // The pick was consumed: the immediate re-consult holds.
        assert!(sched.decide(&queue, &st).dispatches.is_empty());
    }

    #[test]
    fn try_load_distinguishes_checkpoint_kinds() {
        let dir = std::env::temp_dir().join("qcs_rlsched_adapter_test");
        std::fs::create_dir_all(&dir).unwrap();
        let sched_path = dir.join("sched.json");
        checkpoint().save(&sched_path).unwrap();
        let loaded = try_load_scheduler(sched_path.to_str().unwrap(), 0);
        assert!(loaded.is_some(), "sched checkpoint must load");
        assert_eq!(loaded.unwrap().name(), "rlsched");

        // A plain gym policy is *not* claimed by the scheduler loader.
        let mut rng = Xoshiro256StarStar::new(5);
        let plain_path = dir.join("plain.json");
        std::fs::write(&plain_path, ActorCritic::new(16, 5, &mut rng).to_json()).unwrap();
        assert!(try_load_scheduler(plain_path.to_str().unwrap(), 0).is_none());

        // Missing file: None (the broker path owns the error message).
        assert!(try_load_scheduler("/nonexistent/ck.json", 0).is_none());
    }
}
