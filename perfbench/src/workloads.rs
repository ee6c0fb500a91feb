//! The four workloads and one timed iteration of each.
//!
//! Every iteration generates its inputs from the seed, builds the
//! environment or harness (timed as set-up), runs it as a batch (timed),
//! and returns a [`Sample`]: the host times, the simulated outcome's
//! fingerprint, and the correctness verdict. A traced iteration builds the
//! same objects with the [`crate::trace`] probes around the public seams
//! and also returns their spans; nothing else differs.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use qcs_calibration::{ibm_fleet, regional_fleet, DeviceProfile};
use qcs_qcloud::jobgen::{batch_at_zero, bimodal_arrivals, diurnal_arrivals};
use qcs_qcloud::policies::{Discipline, Placement};
use qcs_qcloud::service::{InstrumentedScheduler, LatencySamples, LatencySummary};
use qcs_qcloud::simenv::RunResult;
use qcs_qcloud::{
    AdmissionPolicy, BackfillScheduler, Broker, ConservativeBackfillScheduler, FaultScript,
    JobDistribution, JobRecord, ParallelServiceHarness, QCloudSimEnv, RetryPolicy,
    RlSchedScheduler, RoutingPolicy, SchedCheckpoint, SchedEnvConfig, Scheduler, SchedulerEnv,
    ServiceConfig, SimParams,
};
use qcs_rl::env::Env;
use qcs_rl::{Ppo, PpoConfig, VecEnv};

use crate::trace::{count_allocations, Spans, TimedBroker, TimedEnv, TimedScheduler};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A long shallow-queue bimodal stream on a 120-device fleet (EASY).
    FleetStream,
    /// A deep backlog arriving at t = 0 on the same fleet (conservative).
    DeepBacklog,
    /// An overloaded diurnal trace through the parallel sharded service.
    ServiceLockstep,
    /// PPO training on the queue-deep scheduler environment, then the
    /// trained policy deployed as a scheduler.
    RlTrain,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FleetStream,
        Workload::DeepBacklog,
        Workload::ServiceLockstep,
        Workload::RlTrain,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetStream => "fleet_stream",
            Workload::DeepBacklog => "deep_backlog",
            Workload::ServiceLockstep => "service_lockstep",
            Workload::RlTrain => "rl_train",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::TINY`] keeps the self-tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Jobs in the `fleet_stream` trace.
    pub fleet_jobs: usize,
    /// Jobs in the `deep_backlog` batch.
    pub deep_jobs: usize,
    /// Jobs offered to the `service_lockstep` intake.
    pub service_jobs: usize,
    /// PPO timesteps per `rl_train` iteration.
    pub rl_timesteps: u64,
    /// Jobs in each trace the trained `rl_train` policy schedules once
    /// deployed.
    pub rl_deploy_jobs: usize,
    /// Traces the trained `rl_train` policy is deployed on, one after
    /// the other.
    pub rl_deploy_traces: u64,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        fleet_jobs: 100_000,
        deep_jobs: 2_000,
        service_jobs: 20_000,
        rl_timesteps: 16_384,
        rl_deploy_jobs: 5_000,
        rl_deploy_traces: 4,
    };

    /// Sizes for the self-tests.
    pub const TINY: Sizes = Sizes {
        fleet_jobs: 400,
        deep_jobs: 120,
        service_jobs: 300,
        rl_timesteps: 1_024,
        rl_deploy_jobs: 60,
        rl_deploy_traces: 2,
    };
}

/// What one traced iteration measured inside the program.
#[derive(Debug)]
pub struct Trace {
    /// Spans fed by the probes.
    pub spans: Arc<Spans>,
    /// Heap allocations made during the simulation run.
    pub allocations: u64,
    /// `service_lockstep` only: the service's own counters.
    pub service: Option<ServiceCounters>,
}

/// Counters the service harness records in its `ServiceReport`.
#[derive(Debug, Clone, Copy)]
pub struct ServiceCounters {
    /// Shard busy time of the busiest worker thread (s).
    pub busiest_worker_s: f64,
    /// Time spent merging shard record streams (s).
    pub merge_s: f64,
    /// Decide calls across all shards.
    pub decide_calls: u64,
    /// Jobs admitted.
    pub accepted: u64,
    /// Throttle rounds served.
    pub throttle_events: u64,
    /// Jobs rejected by admission.
    pub rejected: u64,
}

/// One iteration's measurements.
#[derive(Debug)]
pub struct Sample {
    /// Input generation plus construction of the environment or harness.
    pub setup_s: f64,
    /// Wall time of the timed phase: the simulation run, or for `rl_train`
    /// training plus the deployed run.
    pub wall_s: f64,
    /// Wall time of PPO training (`rl_train` only, else 0).
    pub train_s: f64,
    /// Terminal simulated jobs.
    pub jobs: u64,
    /// Wall time the jobs were simulated in (the deployed run for
    /// `rl_train`, else [`Sample::wall_s`]).
    pub jobs_wall_s: f64,
    /// Scheduling steps: `decide` calls, or environment steps for
    /// `rl_train`.
    pub steps: u64,
    /// Wall time the steps were taken in (training for `rl_train`, else
    /// [`Sample::wall_s`]).
    pub steps_wall_s: f64,
    /// Decision latency over every `decide` call of the simulation.
    pub latency: LatencySummary,
    /// Kernel events processed.
    pub events: u64,
    /// Hash of the simulated outcome; equal across repeats of one seed.
    pub fingerprint: u64,
    /// `Err` names the first correctness check that failed.
    pub verdict: Result<(), String>,
    /// Present on traced iterations.
    pub trace: Option<Trace>,
}

/// Runs one iteration of `workload` on inputs made from `seed`.
pub fn run_once(workload: Workload, sizes: &Sizes, seed: u64, traced: bool) -> Sample {
    let spans = traced.then(|| Arc::new(Spans::default()));
    match workload {
        Workload::FleetStream => {
            let jobs = move || bimodal_arrivals(sizes.fleet_jobs, 0.25, 4, seed);
            batch(jobs, Discipline::Backfill, seed, spans)
        }
        Workload::DeepBacklog => {
            let jobs = move || batch_at_zero(sizes.deep_jobs, &JobDistribution::default(), seed);
            batch(jobs, Discipline::Conservative, seed, spans)
        }
        Workload::ServiceLockstep => service(sizes.service_jobs, seed, spans),
        Workload::RlTrain => rl_train(sizes, seed, spans),
    }
}

/// The 120-device fleet of the batch workloads: 24 five-device regions
/// flattened into one scheduling domain.
fn fleet_120(seed: u64) -> Vec<DeviceProfile> {
    regional_fleet(24, seed).into_iter().flatten().collect()
}

/// `discipline+speed`, with the probes around the broker and the
/// scheduler when tracing. Untraced, this is what `scheduler_by_name`
/// builds for the same spec.
fn speed_scheduler(
    discipline: Discipline,
    seed: u64,
    spans: &Option<Arc<Spans>>,
) -> Box<dyn Scheduler> {
    let mut broker: Box<dyn Broker> = Placement::Speed.build(seed);
    if let Some(s) = spans {
        broker = Box::new(TimedBroker::new(broker, s.clone()));
    }
    let sched: Box<dyn Scheduler> = match discipline {
        Discipline::Backfill => Box::new(BackfillScheduler::new(broker)),
        Discipline::Conservative => Box::new(ConservativeBackfillScheduler::new(broker)),
        other => unreachable!("no workload runs {other}"),
    };
    match spans {
        Some(s) => Box::new(TimedScheduler::new(sched, s.clone())),
        None => sched,
    }
}

/// Wraps `sched` in the product's decision-latency probe, the one the
/// service harness applies to every shard.
fn with_latency(sched: Box<dyn Scheduler>) -> (Box<dyn Scheduler>, LatencySamples) {
    let samples: LatencySamples = Arc::new(Mutex::new(Vec::new()));
    (
        Box::new(InstrumentedScheduler::new(sched, samples.clone())),
        samples,
    )
}

/// Runs `f` as the timed phase: returns its result, its wall time, and
/// (when traced) the allocations it made.
fn timed<T>(traced: bool, f: impl FnOnce() -> T) -> (T, f64, u64) {
    let t0 = Instant::now();
    if traced {
        let (out, allocs) = count_allocations(f);
        (out, t0.elapsed().as_secs_f64(), allocs)
    } else {
        let out = f();
        (out, t0.elapsed().as_secs_f64(), 0)
    }
}

fn batch(
    make_jobs: impl FnOnce() -> Vec<qcs_qcloud::QJob>,
    discipline: Discipline,
    seed: u64,
    spans: Option<Arc<Spans>>,
) -> Sample {
    let t0 = Instant::now();
    let jobs = make_jobs();
    let n = jobs.len();
    let (sched, samples) = with_latency(speed_scheduler(discipline, seed, &spans));
    let env =
        QCloudSimEnv::with_scheduler(fleet_120(seed), sched, jobs, SimParams::default(), seed);
    let setup_s = t0.elapsed().as_secs_f64();

    let (res, wall_s, allocations) = timed(spans.is_some(), || env.run());

    let verdict = check_batch(&res, n);
    let jobs = terminal(&res.records);
    let latency = LatencySummary::from_samples(&samples.lock());
    Sample {
        setup_s,
        wall_s,
        train_s: 0.0,
        jobs,
        jobs_wall_s: wall_s,
        steps: res.telemetry.decisions,
        steps_wall_s: wall_s,
        latency,
        events: res.events_processed,
        fingerprint: run_fingerprint(&res).finish(),
        verdict,
        trace: spans.map(|spans| Trace {
            spans,
            allocations,
            service: None,
        }),
    }
}

/// A batch run is correct when every submitted job has exactly one record
/// and every record is terminal. Qubit conservation is asserted by the
/// product itself at teardown.
fn check_batch(res: &RunResult, submitted: usize) -> Result<(), String> {
    if res.records.len() != submitted {
        return Err(format!(
            "{} records for {submitted} submitted jobs",
            res.records.len()
        ));
    }
    let mut seen = vec![false; submitted];
    for r in &res.records {
        let slot = usize::try_from(r.job_id.0)
            .ok()
            .and_then(|i| seen.get_mut(i))
            .ok_or_else(|| format!("record for unknown job {:?}", r.job_id))?;
        if std::mem::replace(slot, true) {
            return Err(format!("job {:?} recorded twice", r.job_id));
        }
        if !r.terminal() {
            return Err(format!("job {:?} left non-terminal", r.job_id));
        }
    }
    if !res.summary.t_sim.is_finite() {
        return Err("simulated makespan is not finite".into());
    }
    Ok(())
}

fn terminal(records: &[JobRecord]) -> u64 {
    records.iter().filter(|r| r.terminal()).count() as u64
}

/// Worker threads of the parallel service backend.
const SERVICE_THREADS: usize = 2;

/// The armed intake: watermark 24, capacity 96, as in `serve`'s defaults.
fn service_admission() -> AdmissionPolicy {
    AdmissionPolicy {
        throttle_watermark: 24,
        queue_capacity: 96,
        throttle_delay_s: 60.0,
        max_throttle_attempts: 3,
    }
}

fn service(n_jobs: usize, seed: u64, spans: Option<Arc<Spans>>) -> Sample {
    let t0 = Instant::now();
    let jobs = diurnal_arrivals(n_jobs, 0.12, 0.8, 3_600.0, 5, seed);
    let t_gen = t0.elapsed().as_secs_f64();
    // The copy the completeness check compares against is not set-up.
    let submitted = jobs.clone();
    let t1 = Instant::now();
    let factory_spans = spans.clone();
    let mut harness = ParallelServiceHarness::new(
        regional_fleet(4, seed),
        move |_region| speed_scheduler(Discipline::Backfill, seed, &factory_spans),
        jobs,
        SimParams::default(),
        ServiceConfig {
            admission: service_admission(),
            routing: RoutingPolicy::LeastLoaded,
        },
        seed,
        SERVICE_THREADS,
    );
    // One crash on each shard's second device, plus 5% execution
    // failures, so lease revocation and retry run on every shard.
    let script = FaultScript::new(seed)
        .with_crash(1, 6_000.0, 3_000.0)
        .with_exec_failures(0.05);
    harness.install_faults(&script, RetryPolicy::default());
    let setup_s = t_gen + t1.elapsed().as_secs_f64();

    let (out, wall_s, allocations) = timed(spans.is_some(), || harness.run());

    let report = &out.report;
    let verdict = out.verify_complete(&submitted).and_then(|()| {
        if report.admission.conserves() {
            Ok(())
        } else {
            Err(format!(
                "admission accounting leaks: {:?}",
                report.admission
            ))
        }
    });
    let merged = out.merged_by_termination();
    let mut fp = Fingerprint::default();
    for r in &merged {
        fp.record(r);
    }
    for s in &out.shards {
        fp.word(s.summary.t_sim.to_bits());
        fp.word(s.telemetry.decisions);
    }
    let a = &report.admission;
    for w in [
        a.submitted,
        a.accepted,
        a.throttle_events,
        a.rejected(),
        report.events_processed,
    ] {
        fp.word(w);
    }
    let threads = report.worker_threads.max(1);
    let busiest_worker_s = (0..threads)
        .map(|w| {
            report
                .shard_busy_s
                .iter()
                .skip(w)
                .step_by(threads)
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    Sample {
        setup_s,
        wall_s,
        train_s: 0.0,
        jobs: terminal(&merged),
        jobs_wall_s: wall_s,
        steps: report.decision_latency.count as u64,
        steps_wall_s: wall_s,
        latency: report.decision_latency,
        events: report.events_processed,
        fingerprint: fp.finish(),
        verdict,
        trace: spans.map(|spans| Trace {
            spans,
            allocations,
            service: Some(ServiceCounters {
                busiest_worker_s,
                merge_s: report.merge_wall_s,
                decide_calls: report.decision_latency.count as u64,
                accepted: a.accepted,
                throttle_events: a.throttle_events,
                rejected: a.rejected(),
            }),
        }),
    }
}

fn rl_train(sizes: &Sizes, seed: u64, spans: Option<Arc<Spans>>) -> Sample {
    let t0 = Instant::now();
    let fleet = ibm_fleet(seed);
    let cfg = SchedEnvConfig::default();
    let envs: Vec<Box<dyn Env>> = (0..4)
        .map(|_| {
            let env = SchedulerEnv::new(&fleet, SimParams::default(), cfg.clone());
            match &spans {
                Some(s) => Box::new(TimedEnv::new(env, s.clone())) as Box<dyn Env>,
                None => Box::new(env),
            }
        })
        .collect();
    let mut vec_env = VecEnv::sequential(envs);
    let mut ppo = Ppo::new(
        cfg.obs.obs_dim(),
        cfg.obs.action_dim(),
        PpoConfig {
            n_steps: 256,
            seed,
            n_update_workers: 1,
            ..PpoConfig::default()
        },
    );
    let deploy_traces: Vec<_> = (0..sizes.rl_deploy_traces)
        .map(|k| bimodal_arrivals(sizes.rl_deploy_jobs, 0.1, 4, seed ^ (0xD3 + k)))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();

    let traced = spans.is_some();
    let ((), train_s, _) = timed(false, || ppo.learn(&mut vec_env, sizes.rl_timesteps));

    // Deploy the trained policy as a scheduler on each trace. Building it
    // is part of the timed phase: a checkpoint cannot exist before
    // training ends.
    let samples: LatencySamples = Arc::new(Mutex::new(Vec::new()));
    let mut fp = Fingerprint::default();
    let mut verdict = Ok(());
    let (mut build_s, mut deploy_s, mut deploy_allocs) = (0.0, 0.0, 0);
    let (mut jobs, mut events) = (0, 0);
    for trace in deploy_traces {
        let t_build = Instant::now();
        let mut sched: Box<dyn Scheduler> = Box::new(RlSchedScheduler::from_checkpoint(
            SchedCheckpoint::new(cfg.obs.clone(), &cfg.placement, ppo.ac.clone()),
            seed,
        ));
        if let Some(s) = &spans {
            sched = Box::new(TimedScheduler::new(sched, s.clone()));
        }
        let sched = Box::new(InstrumentedScheduler::new(sched, samples.clone()));
        let n = trace.len();
        let env =
            QCloudSimEnv::with_scheduler(fleet.clone(), sched, trace, SimParams::default(), seed);
        build_s += t_build.elapsed().as_secs_f64();
        let (res, wall_s, allocs) = timed(traced, || env.run());
        deploy_s += wall_s;
        deploy_allocs += allocs;
        if verdict.is_ok() {
            verdict = check_batch(&res, n);
        }
        fp.word(run_fingerprint(&res).finish());
        jobs += terminal(&res.records);
        events += res.events_processed;
    }

    let latency = LatencySummary::from_samples(&samples.lock());
    let log = ppo.log();
    for e in &log.entries {
        for v in [
            e.ep_rew_mean,
            e.entropy_loss,
            e.policy_loss,
            e.value_loss,
            e.approx_kl,
        ] {
            fp.word(v.to_bits());
        }
        let losses = [e.entropy_loss, e.policy_loss, e.value_loss, e.approx_kl];
        if verdict.is_ok() && !losses.iter().all(|l| l.is_finite()) {
            verdict = Err(format!("non-finite loss at timestep {}", e.timesteps));
        }
    }
    if verdict.is_ok() && !log.final_reward().is_finite() {
        verdict = Err("training logged no finite reward".into());
    }
    Sample {
        setup_s,
        wall_s: train_s + build_s + deploy_s,
        train_s,
        jobs,
        jobs_wall_s: deploy_s,
        steps: ppo.timesteps(),
        steps_wall_s: train_s,
        latency,
        events,
        fingerprint: fp.finish(),
        verdict,
        trace: spans.map(|spans| Trace {
            spans,
            allocations: deploy_allocs,
            service: None,
        }),
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one word in.
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes every field of a job record in, floats by their bits.
    fn record(&mut self, r: &JobRecord) {
        for w in [
            r.job_id.0,
            r.num_qubits,
            u64::from(r.depth),
            r.num_shots,
            r.two_qubit_gates,
        ] {
            self.word(w);
        }
        for t in [
            r.arrival,
            r.start,
            r.exec_end,
            r.finish,
            r.fidelity,
            r.comm_seconds,
            r.wasted_qubit_s,
        ] {
            self.word(t.to_bits());
        }
        for &(dev, q) in &r.parts {
            self.word(u64::from(dev));
            self.word(q);
        }
        for w in [r.bypassed, r.attempts, r.throttled] {
            self.word(u64::from(w));
        }
        for b in format!("{:?}", r.final_status).bytes() {
            self.word(u64::from(b));
        }
    }

    /// The hash.
    fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a batch run: makespan, mean wait, scheduler and kernel
/// counts, and every record.
fn run_fingerprint(res: &RunResult) -> Fingerprint {
    let mut fp = Fingerprint::default();
    fp.word(res.summary.t_sim.to_bits());
    fp.word(res.summary.mean_wait.to_bits());
    fp.word(res.telemetry.decisions);
    fp.word(res.events_processed);
    for r in &res.records {
        fp.record(r);
    }
    fp
}
