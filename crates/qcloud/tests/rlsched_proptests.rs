//! Property-based reward accounting for the queue-deep scheduling
//! environment ([`qcs_qcloud::rlsched::SchedulerEnv`]):
//!
//! * **Return = telemetry** — for random traces, random action streams,
//!   random placements, and runs with a random maintenance window, the
//!   episode return (sum of per-step rewards) equals the episode objective
//!   recomputed from the emitted [`qcs_qcloud::JobRecord`] stream. The
//!   reward signal the agent trains on and the telemetry the benches
//!   report cannot drift apart.
//! * **Termination** — every episode terminates within the step cap, all
//!   jobs reach a terminal record, and the record stream is internally
//!   consistent (arrival ≤ start ≤ exec_end ≤ finish).
//! * **Determinism** — identical seeds and action streams replay to
//!   bit-identical returns and records.

use proptest::prelude::*;
use qcs_calibration::ibm_fleet;
use qcs_qcloud::policies::Placement;
use qcs_qcloud::rlsched::{episode_objective, SchedEnvConfig, SchedulerEnv};
use qcs_qcloud::{MaintenanceWindow, SimParams};
use qcs_rl::env::Env;

/// Drives one full episode with a pseudo-random action stream derived from
/// `action_seed`, returning (return, steps, terminated).
fn run_episode(env: &mut SchedulerEnv, trace_seed: u64, action_seed: u64) -> (f64, u64, bool) {
    use qcs_desim::Xoshiro256StarStar;
    let mut rng = Xoshiro256StarStar::new(action_seed);
    let dim = env.action_dim();
    env.reset(trace_seed);
    let mut ret = 0.0f64;
    let mut steps = 0u64;
    loop {
        let action: Vec<f32> = (0..dim).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect();
        let r = env.step(&action);
        ret += r.reward;
        steps += 1;
        if r.terminated || r.truncated {
            return (ret, steps, r.terminated);
        }
        assert!(
            steps <= env.config().max_steps,
            "episode exceeded the step cap without truncating"
        );
    }
}

fn env_with(placement: Placement, n_jobs: usize, windows: Vec<MaintenanceWindow>) -> SchedulerEnv {
    let cfg = SchedEnvConfig {
        placement,
        n_jobs,
        maintenance: windows,
        ..SchedEnvConfig::default()
    };
    SchedulerEnv::new(&ibm_fleet(1), SimParams::default(), cfg)
}

fn check_records(env: &SchedulerEnv, n_jobs: usize) {
    let records = env.records();
    assert_eq!(records.len(), n_jobs, "every arrival must be recorded");
    for r in records {
        if r.finished() {
            assert!(
                r.arrival <= r.start,
                "job {:?} started before arriving",
                r.job_id
            );
            assert!(
                r.start <= r.exec_end,
                "job {:?} exec_end before start",
                r.job_id
            );
            assert!(
                r.exec_end <= r.finish,
                "job {:?} finish before exec_end",
                r.job_id
            );
            let total: u64 = r.parts.iter().map(|&(_, a)| a).sum();
            assert_eq!(total, r.num_qubits, "job {:?} partition mismatch", r.job_id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The episode return equals the objective recomputed from the emitted
    /// record stream, for random traces and action streams under the
    /// work-conserving placements.
    #[test]
    fn episode_return_matches_qos_telemetry(
        trace_seed in 0u64..1000,
        action_seed in 0u64..1000,
        n_jobs in 4usize..20,
        placement_ix in 0usize..3,
    ) {
        let placement = match placement_ix {
            0 => Placement::Speed,
            1 => Placement::Fair,
            _ => Placement::MinFrag,
        };
        let mut env = env_with(placement, n_jobs, Vec::new());
        let (ret, _, terminated) = run_episode(&mut env, trace_seed, action_seed);
        prop_assert!(terminated, "episode must drain, not truncate");
        check_records(&env, n_jobs);
        prop_assert!(env.records().iter().all(|r| r.finished()));
        let recomputed = episode_objective(
            &env.records(),
            env.total_capacity(),
            &env.config().reward,
        );
        prop_assert!(
            (ret - recomputed).abs() <= 1e-6 * recomputed.abs().max(1.0),
            "return {ret} drifted from telemetry objective {recomputed}"
        );
    }

    /// Same invariant across a maintenance window on a random device: the
    /// outage throttles capacity mid-episode, bypasses and waits pile up,
    /// and the accounting still closes exactly.
    #[test]
    fn maintenance_runs_keep_reward_and_telemetry_aligned(
        trace_seed in 0u64..500,
        action_seed in 0u64..500,
        device in 0usize..5,
        start in 0.0f64..5000.0,
        duration in 500.0f64..8000.0,
    ) {
        let window = MaintenanceWindow { device, start, duration };
        let mut env = env_with(Placement::Speed, 12, vec![window]);
        let (ret, _, terminated) = run_episode(&mut env, trace_seed, action_seed);
        prop_assert!(terminated);
        check_records(&env, 12);
        prop_assert!(env.records().iter().all(|r| r.finished()));
        // No finished part may have started on the dark device inside the
        // window (leases never touch offline devices).
        for r in env.records() {
            if r.finished() && window.contains(r.start) {
                prop_assert!(
                    r.parts.iter().all(|&(d, _)| d as usize != device),
                    "job {:?} placed on device {device} during its outage",
                    r.job_id
                );
            }
        }
        let recomputed = episode_objective(
            &env.records(),
            env.total_capacity(),
            &env.config().reward,
        );
        prop_assert!(
            (ret - recomputed).abs() <= 1e-6 * recomputed.abs().max(1.0),
            "return {ret} drifted from telemetry objective {recomputed}"
        );
    }

    /// Identical seeds and action streams replay bit-identically.
    #[test]
    fn episodes_replay_deterministically(
        trace_seed in 0u64..500,
        action_seed in 0u64..500,
    ) {
        let mut a = env_with(Placement::Speed, 10, Vec::new());
        let mut b = env_with(Placement::Speed, 10, Vec::new());
        let (ra, sa, _) = run_episode(&mut a, trace_seed, action_seed);
        let (rb, sb, _) = run_episode(&mut b, trace_seed, action_seed);
        prop_assert_eq!(ra.to_bits(), rb.to_bits(), "returns diverged");
        prop_assert_eq!(sa, sb, "step counts diverged");
        prop_assert_eq!(a.records(), b.records(), "record streams diverged");
    }
}
