//! Bit-exact parity between the queue-aware scheduler redesign and the
//! seed's consult-per-job FIFO loop.
//!
//! The golden fingerprints below were captured from the **pre-redesign**
//! scheduler (the seed's `Scheduler` coroutine: per-consult `CloudView`
//! rebuild from the kernel containers, head-of-line scanning, one dispatch
//! per consult) across every policy and a spread of workload shapes. Both
//! new paths must reproduce them exactly:
//!
//! * [`QCloudSimEnv::new`] — every [`Broker`] ported through
//!   [`FifoAdapter`] over the incremental `CloudState`;
//! * [`SnapshotAdapter`] — the seed mechanics retained as an in-tree
//!   oracle (one dispatch per decision, snapshot clone per consult).
//!
//! The fingerprint folds every field of every [`JobRecord`] — start,
//! execution end, finish, fidelity, communication delay, partition — at
//! full `f64` bit precision (FNV-1a over `to_bits`), so any divergence in
//! dispatch order, device choice, or timing arithmetic fails loudly.

use qcs_calibration::{ibm_fleet, regional_fleet};
use qcs_qcloud::jobgen::{batch_at_zero, bimodal_arrivals, poisson_arrivals};
use qcs_qcloud::policies::{by_name, scheduler_by_name};
use qcs_qcloud::records::JobRecord;
use qcs_qcloud::{
    FaultScript, FifoAdapter, JobDistribution, MaintenanceWindow, QCloudSimEnv, QJob, RetryPolicy,
    SimParams, SnapshotAdapter,
};

fn fingerprint(records: &[JobRecord]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    for r in records {
        mix(r.job_id.0);
        mix(r.start.to_bits());
        mix(r.exec_end.to_bits());
        mix(r.finish.to_bits());
        mix(r.fidelity.to_bits());
        mix(r.comm_seconds.to_bits());
        for &(d, a) in &r.parts {
            mix(d as u64);
            mix(a);
        }
    }
    h
}

const POLICIES: [&str; 8] = [
    "speed",
    "fidelity",
    "fair",
    "roundrobin",
    "random",
    "minfrag",
    "hybrid",
    "hybrid-strict",
];

struct Case {
    name: &'static str,
    seed: u64,
    /// Golden fingerprints in `POLICIES` order, captured from the seed
    /// scheduler at commit 303b295.
    goldens: [u64; 8],
}

const CASES: [Case; 5] = [
    Case {
        name: "batch40",
        seed: 7,
        goldens: [
            0xd50a6b7727e9b826,
            0xbc27a8c2efc3f55d,
            0x162029b5df98c850,
            0x240a3854d3543af4,
            0xfe3457dfa26c07da,
            0xb38e3d5aa5078286,
            0xcd3bdf9806a35026,
            0xbc27a8c2efc3f55d,
        ],
    },
    Case {
        name: "poisson30",
        seed: 13,
        goldens: [
            0xf8ff4d454f1238c4,
            0x4f943bfcce8586cf,
            0xe477d3164f556b68,
            0x1b624e5c20ad6c4a,
            0xb1e979291867e430,
            0xe9383f141afebd3f,
            0x4e9a1ca0ed32068b,
            0x4f943bfcce8586cf,
        ],
    },
    Case {
        name: "backfill60",
        seed: 23,
        goldens: [
            0x552e659a7e83764b,
            0x79a18852a2b3e3d0,
            0xb03851f02ac7b1ce,
            0xdf0db36b8e41b70f,
            0x9eb46ba8e870d4ed,
            0x73ab4ff5ad4d601d,
            0x53fc43bf92f08b56,
            0x79a18852a2b3e3d0,
        ],
    },
    Case {
        name: "mixed50",
        seed: 31,
        goldens: [
            0xdede35db83c2b33b,
            0x7a895e6c42c12d3c,
            0xb02950efb1624595,
            0x5e9d5de0bea13eef,
            0x3ff4c4079ddfb516,
            0x619bcf34d900bbeb,
            0xe4908cdf25cf803f,
            0x7a895e6c42c12d3c,
        ],
    },
    Case {
        name: "atjobend30",
        seed: 41,
        goldens: [
            0xfec581d34bd49bf8,
            0x3f206d2bed596592,
            0x79e52c229956983c,
            0x9c46ffcc5e4e817e,
            0xe0a74c38d37f151b,
            0x702f03b0d8438690,
            0x54961d8e999985a8,
            0x3f206d2bed596592,
        ],
    },
];

fn workload(case: &Case) -> (Vec<QJob>, SimParams) {
    let dist = JobDistribution::default();
    match case.name {
        "batch40" => (batch_at_zero(40, &dist, case.seed), SimParams::default()),
        "poisson30" => (
            poisson_arrivals(30, 0.002, &dist, case.seed),
            SimParams::default(),
        ),
        "backfill60" => (
            batch_at_zero(60, &dist, case.seed),
            SimParams {
                backfill_depth: 4,
                ..SimParams::default()
            },
        ),
        "mixed50" => {
            let mixed = JobDistribution {
                qubits: (20, 250),
                ..JobDistribution::default()
            };
            (
                poisson_arrivals(50, 0.005, &mixed, case.seed),
                SimParams {
                    backfill_depth: 2,
                    ..SimParams::default()
                },
            )
        }
        "atjobend30" => (
            batch_at_zero(30, &dist, case.seed),
            SimParams {
                release: qcs_qcloud::config::ReleasePolicy::AtJobEnd,
                ..SimParams::default()
            },
        ),
        other => panic!("unknown case {other}"),
    }
}

#[test]
fn fifo_adapter_reproduces_seed_records_bit_for_bit() {
    for case in &CASES {
        let (jobs, params) = workload(case);
        for (pi, pol) in POLICIES.iter().enumerate() {
            let env = QCloudSimEnv::new(
                ibm_fleet(case.seed),
                by_name(pol, case.seed).unwrap(),
                jobs.clone(),
                params.clone(),
                case.seed,
            );
            let res = env.run();
            assert_eq!(res.summary.jobs_unfinished, 0, "{}/{pol}", case.name);
            assert_eq!(
                fingerprint(&res.records),
                case.goldens[pi],
                "{}/{pol}: FifoAdapter diverged from the seed scheduler",
                case.name
            );
        }
    }
}

#[test]
fn snapshot_oracle_reproduces_seed_records_bit_for_bit() {
    for case in &CASES {
        let (jobs, params) = workload(case);
        for (pi, pol) in POLICIES.iter().enumerate() {
            let window = params.backfill_depth + 1;
            let env = QCloudSimEnv::with_scheduler(
                ibm_fleet(case.seed),
                Box::new(SnapshotAdapter::new(
                    by_name(pol, case.seed).unwrap(),
                    window,
                )),
                jobs.clone(),
                params.clone(),
                case.seed,
            );
            let res = env.run();
            assert_eq!(
                fingerprint(&res.records),
                case.goldens[pi],
                "{}/{pol}: SnapshotAdapter diverged from the seed scheduler",
                case.name
            );
        }
    }
}

#[test]
fn fifo_adapter_and_snapshot_oracle_agree_on_fresh_workloads() {
    // Beyond the pinned cases: the two paths must agree on workloads the
    // goldens never saw (catches golden-table staleness).
    for seed in [101u64, 202, 303] {
        let jobs = poisson_arrivals(25, 0.004, &JobDistribution::default(), seed);
        for pol in POLICIES {
            let params = SimParams::default();
            let a = QCloudSimEnv::new(
                ibm_fleet(seed),
                by_name(pol, seed).unwrap(),
                jobs.clone(),
                params.clone(),
                seed,
            )
            .run();
            let b = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed),
                Box::new(SnapshotAdapter::new(by_name(pol, seed).unwrap(), 1)),
                jobs.clone(),
                params,
                seed,
            )
            .run();
            assert_eq!(a.records, b.records, "{pol}@{seed}");
        }
    }
}

/// Golden fingerprints for the conservative-backfilling discipline on the
/// bimodal head-of-line-blocking scenario (the `sched` bench workload).
/// Captured at the commit that introduced `ConservativeBackfillScheduler`;
/// any refactor of the reservation timeline, the compression pass, or the
/// admission rule that silently changes dispatch order fails here loudly.
#[test]
fn conservative_backfill_bimodal_fingerprints_pinned() {
    let jobs = bimodal_arrivals(300, 0.1, 4, 7);
    for (spec, golden) in [
        ("conservative+speed", 0x37809333fa41e82au64),
        ("conservative+fair", 0xada53bc32d0629b8u64),
    ] {
        let env = QCloudSimEnv::with_scheduler(
            ibm_fleet(7),
            scheduler_by_name(spec, 7, 1).expect("known spec"),
            jobs.clone(),
            SimParams::default(),
            7,
        );
        let res = env.run();
        assert_eq!(res.summary.jobs_unfinished, 0, "{spec}");
        assert!(
            res.telemetry.out_of_order > 0,
            "{spec}: the bimodal trace must exercise backfilling"
        );
        assert_eq!(
            fingerprint(&res.records),
            golden,
            "{spec}: conservative dispatch stream changed on the pinned scenario"
        );
    }
}

/// Two maintenance windows `(device, start, duration)` plus one
/// unplanned crash `(device, at, down_for)` on a device no window touches.
type Faults = ([(usize, f64, f64); 2], (usize, f64, f64));

/// Runs `conservative+speed` on `fleet` / `jobs` (seed 7), optionally
/// with `faults` injected.
fn conservative_run(
    fleet: Vec<qcs_calibration::DeviceProfile>,
    jobs: Vec<QJob>,
    faults: Option<Faults>,
) -> qcs_qcloud::simenv::RunResult {
    let mut env = QCloudSimEnv::with_scheduler(
        fleet,
        scheduler_by_name("conservative+speed", 7, 1).expect("known spec"),
        jobs,
        SimParams::default(),
        7,
    );
    if let Some((windows, (device, at, down_for))) = faults {
        for (device, start, duration) in windows {
            env.schedule_maintenance(MaintenanceWindow {
                device,
                start,
                duration,
            });
        }
        env.install_faults(
            FaultScript::new(7).with_crash(device, at, down_for),
            RetryPolicy::default(),
            None,
        );
    }
    env.run()
}

/// Golden fingerprints for conservative backfilling on queues deeper than
/// its 64-job re-slotting horizon, so jobs past the horizon carry standing
/// bookings across decisions. Captured before the reservation timeline
/// moved from a persistent booking ledger to the per-decision flat array;
/// any change to the timeline that moves a single dispatch fails here.
///
/// * `deep500` / `deep500_faults` — 500 jobs at t = 0 on the 120-device
///   fleet (24 five-device regions flattened into one domain), bare and
///   with two maintenance windows plus one crash.
/// * `wide150_faults` — 150 jobs of 300–600 qubits on the 5-device fleet
///   with two windows and one crash: while device 0 is down the fleet
///   cannot hold the widest jobs anywhere, so their re-slot finds no slot
///   and the standing booking is kept in force.
#[test]
fn conservative_deep_queue_fingerprints_pinned() {
    let fleet_120 = || regional_fleet(24, 7).into_iter().flatten().collect();
    let deep = || batch_at_zero(500, &JobDistribution::default(), 7);
    let wide = JobDistribution {
        qubits: (300, 600),
        ..JobDistribution::default()
    };
    let cases = [
        (
            "deep500",
            conservative_run(fleet_120(), deep(), None),
            0xfff2a9e6eed02666u64,
        ),
        (
            "deep500_faults",
            conservative_run(
                fleet_120(),
                deep(),
                Some((
                    [(3, 600.0, 400.0), (57, 1_500.0, 800.0)],
                    (90, 1_000.0, 500.0),
                )),
            ),
            0xcaa4592f5771b853,
        ),
        (
            "wide150_faults",
            conservative_run(
                ibm_fleet(7),
                batch_at_zero(150, &wide, 7),
                Some(([(1, 300.0, 200.0), (3, 900.0, 300.0)], (0, 500.0, 300.0))),
            ),
            0xc34f0441b106e80c,
        ),
    ];
    for (name, res, golden) in cases {
        assert_eq!(res.summary.jobs_unfinished, 0, "{name}");
        assert_eq!(
            fingerprint(&res.records),
            golden,
            "{name}: deep-queue conservative dispatch stream changed"
        );
    }
}

#[test]
fn fifo_adapter_window_matches_simparams_backfill_depth() {
    // `QCloudSimEnv::new` must translate `backfill_depth` into the adapter
    // window exactly as the seed loop scanned `backfill_depth + 1` slots.
    let jobs = batch_at_zero(30, &JobDistribution::default(), 77);
    let params = SimParams {
        backfill_depth: 3,
        ..SimParams::default()
    };
    let a = QCloudSimEnv::new(
        ibm_fleet(77),
        by_name("speed", 77).unwrap(),
        jobs.clone(),
        params.clone(),
        77,
    )
    .run();
    let b = QCloudSimEnv::with_scheduler(
        ibm_fleet(77),
        Box::new(FifoAdapter::new(by_name("speed", 77).unwrap(), 4)),
        jobs,
        params,
        77,
    )
    .run();
    assert_eq!(a.records, b.records);
}
