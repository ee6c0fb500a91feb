//! Host-time benchmark of the quantum cloud scheduling simulator.
//!
//! One command runs one of four workloads (see `README.md` for why each
//! was chosen) for a fixed number of seconds and prints, as its last line,
//! a JSON object with the correctness verdict and the metrics.
//! `--trace 0` prints the end-to-end metrics from untraced iterations;
//! `--trace 1` alternates untraced and traced iterations and prints the
//! per-layer metrics plus the tracing overhead. End-to-end host times are
//! calibrated against a reference kernel timed around every iteration
//! (see [`calibrate`]).

pub mod calibrate;
pub mod cli;
pub mod trace;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use workloads::{run_once, Sample, Sizes, Workload};

/// End-to-end metrics, `(name, unit)`, as every untraced run prints them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("jobs_per_s", "1/s"),
    ("steps_per_s", "1/s"),
    ("decide_p50_us", "us"),
    ("decide_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, as every traced run prints them.
/// A layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("run.wall_s", "s"),
    ("host.slowdown", "ratio"),
    ("simenv.loop_s", "s"),
    ("desim.events", "count"),
    ("alloc.per_job", "count"),
    ("sched.decide_s", "s"),
    ("sched.decide_calls", "count"),
    ("sched.self_s", "s"),
    ("policies.select_s", "s"),
    ("policies.select_calls", "count"),
    ("service.coord_s", "s"),
    ("service.shard_busy_s", "s"),
    ("service.merge_s", "s"),
    ("service.decide_calls", "count"),
    ("service.accepted", "count"),
    ("service.throttle_events", "count"),
    ("service.rejected", "count"),
    ("rl.policy_s", "s"),
    ("rlsched.step_s", "s"),
    ("rlsched.steps", "count"),
    ("trace.overhead", "ratio"),
];

/// Measured iterations each mode needs before a run may stop.
const MIN_SAMPLES: usize = 3;

/// One checked iteration and the host's slowdown while it ran.
struct Measured {
    sample: Sample,
    slowdown: f64,
}

/// A run's verdict and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Iterations run, the warm-up included.
    pub attempted: u64,
    /// Iterations that panicked, failed a correctness check, or simulated
    /// a different outcome than the first iteration.
    pub failed: u64,
    /// The reason of each failure.
    pub failures: Vec<String>,
    /// Fingerprint of the simulated outcome.
    pub fingerprint: u64,
    /// Decide calls behind each latency percentile (median iteration).
    pub latency_samples: usize,
    /// `(name, value, unit)`, in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `--trace 0` only: the end-to-end metrics before calibration.
    pub uncalibrated: Vec<(&'static str, f64, &'static str)>,
    /// Median host slowdown over the untraced iterations (see
    /// [`calibrate`]).
    pub slowdown: f64,
}

impl Outcome {
    /// The last line of the benchmark's output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `workload` for at least `seconds` (and at least [`MIN_SAMPLES`]
/// measured iterations per mode) after one warm-up iteration. Returns the
/// failure reasons when no iteration of a needed mode passed its checks.
pub fn run(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, Vec<String>> {
    let start = Instant::now();
    let mut failures = Vec::new();
    let mut reference = None;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut attempted = 0u64;
    let mut kernel = calibrate::Reference::default();
    let mut kernel_s = vec![kernel.time_s()];
    // Iteration 0 warms caches and the allocator and is not measured.
    for i in 0usize.. {
        let tracing = trace && i % 2 == 0 && i > 0;
        attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_once(workload, sizes, seed, tracing)
        }));
        kernel_s.push(kernel.time_s());
        match result {
            Err(panic) => failures.push(format!(
                "iteration {i} panicked: {}",
                panic_message(&*panic)
            )),
            Ok(s) => {
                eprintln!(
                    "iteration {i} (traced: {tracing}): setup {:.6} s, wall {:.6} s, {} jobs in {:.6} s, \
                     {} steps in {:.6} s, decide p50 {:.3} us p99 {:.3} us, reference kernel {:.6} s",
                    s.setup_s, s.wall_s, s.jobs, s.jobs_wall_s, s.steps, s.steps_wall_s, s.latency.p50_us, s.latency.p99_us,
                    kernel_s[i + 1]
                );
                let reference = *reference.get_or_insert(s.fingerprint);
                if let Err(e) = &s.verdict {
                    failures.push(format!("iteration {i}: {e}"));
                } else if s.fingerprint != reference {
                    failures.push(format!(
                        "iteration {i} (traced: {tracing}) simulated fingerprint {:#018x}, first was {reference:#018x}",
                        s.fingerprint
                    ));
                } else if i > 0 {
                    let slowdown = calibrate::slowdown(kernel_s[i], kernel_s[i + 1]);
                    let m = Measured {
                        sample: s,
                        slowdown,
                    };
                    if tracing { &mut traced } else { &mut untraced }.push(m);
                }
            }
        }
        let enough = untraced.len() >= MIN_SAMPLES && (!trace || traced.len() >= MIN_SAMPLES);
        let give_up = attempted as usize >= 4 * MIN_SAMPLES
            && (untraced.is_empty() || trace && traced.is_empty());
        if (enough && start.elapsed().as_secs_f64() >= seconds) || give_up {
            break;
        }
    }
    if untraced.is_empty() || (trace && traced.is_empty()) {
        return Err(failures);
    }
    let typical = &untraced[lower_median_index(&untraced)].sample;
    let (metrics, uncalibrated) = if trace {
        (per_layer(&untraced, &traced), Vec::new())
    } else {
        (end_to_end(&untraced, true), end_to_end(&untraced, false))
    };
    Ok(Outcome {
        attempted,
        failed: failures.len() as u64,
        failures,
        fingerprint: typical.fingerprint,
        latency_samples: typical.latency.count,
        metrics,
        uncalibrated,
        slowdown: median_of(&untraced, |m| m.slowdown),
    })
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// The median of `values` (mean of the middle two for an even count).
fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

fn median_of(samples: &[Measured], f: impl Fn(&Measured) -> f64) -> f64 {
    median(&mut samples.iter().map(f).collect::<Vec<_>>())
}

/// Index of the sample whose wall time is the lower median, so that the
/// per-layer numbers all come from one consistent iteration.
fn lower_median_index(samples: &[Measured]) -> usize {
    let mut idx: Vec<usize> = (0..samples.len()).collect();
    idx.sort_by(|&a, &b| {
        samples[a]
            .sample
            .wall_s
            .total_cmp(&samples[b].sample.wall_s)
    });
    idx[(idx.len() - 1) / 2]
}

/// The end-to-end metrics: medians over the iterations, with each
/// iteration's host times divided by its slowdown when `calibrated`.
fn end_to_end(samples: &[Measured], calibrated: bool) -> Vec<(&'static str, f64, &'static str)> {
    let k = |m: &Measured| if calibrated { m.slowdown } else { 1.0 };
    let values = [
        median_of(samples, |m| {
            m.sample.jobs as f64 / m.sample.jobs_wall_s * k(m)
        }),
        median_of(samples, |m| {
            m.sample.steps as f64 / m.sample.steps_wall_s * k(m)
        }),
        median_of(samples, |m| m.sample.latency.p50_us / k(m)),
        median_of(samples, |m| m.sample.latency.p99_us / k(m)),
        median_of(samples, |m| m.sample.setup_s / k(m)),
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}

/// The per-layer metrics, in raw host times, from the traced iteration
/// with the median wall time.
fn per_layer(untraced: &[Measured], traced: &[Measured]) -> Vec<(&'static str, f64, &'static str)> {
    let s = &traced[lower_median_index(traced)].sample;
    let t = s.trace.as_ref().expect("traced iterations carry a trace");
    let sp = &t.spans;
    let run_wall = median_of(untraced, |m| m.sample.wall_s);
    let (decide, select) = (sp.decide.seconds(), sp.select.seconds());
    let env = sp.env_step.seconds() + sp.env_reset.seconds();
    let svc = t.service;
    let values = [
        run_wall,
        median_of(untraced, |m| m.slowdown),
        s.wall_s - s.train_s - decide,
        s.events as f64,
        t.allocations as f64 / s.jobs as f64,
        decide,
        sp.decide.calls() as f64,
        decide - select,
        select,
        sp.select.calls() as f64,
        svc.map_or(0.0, |c| s.wall_s - c.busiest_worker_s - c.merge_s),
        svc.map_or(0.0, |c| c.busiest_worker_s),
        svc.map_or(0.0, |c| c.merge_s),
        svc.map_or(0.0, |c| c.decide_calls as f64),
        svc.map_or(0.0, |c| c.accepted as f64),
        svc.map_or(0.0, |c| c.throttle_events as f64),
        svc.map_or(0.0, |c| c.rejected as f64),
        s.train_s - env,
        env,
        sp.env_step.calls() as f64,
        s.wall_s / run_wall - 1.0,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}

/// Peak resident set size of this process so far, in MiB, from
/// `/proc/self/status` (0 where that file does not exist).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts recorded with every run: the CPUs this process may run on
/// and the CPU features the build targets and the host offers.
pub fn host_facts() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut compiled = Vec::new();
    let mut detected = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if cfg!(target_feature = $f) { compiled.push($f); }
                if std::arch::is_x86_feature_detected!($f) { detected.push($f); }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "avx512f");
    }
    format!(
        "host: cpus_available={cpus} arch={} target_features=[{}] detected_features=[{}]",
        std::env::consts::ARCH,
        compiled.join(","),
        detected.join(",")
    )
}
