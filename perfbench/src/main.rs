//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its verdict and metrics as the last line.

use perfbench::workloads::Sizes;
use perfbench::{cli, host_facts, run};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    // Panics inside an iteration are caught and counted as failures; their
    // messages are reported below instead of by the default hook.
    std::panic::set_hook(Box::new(|_| {}));
    println!("{}", host_facts());
    let sizes = Sizes::FULL;
    let outcome = match run(
        args.workload,
        &sizes,
        args.seed,
        args.seconds as f64,
        args.trace,
    ) {
        Ok(outcome) => outcome,
        Err(failures) => {
            for f in &failures {
                eprintln!("FAILED: {f}");
            }
            eprintln!("perfbench: no iteration of {} passed", args.workload.name());
            std::process::exit(1);
        }
    };
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    println!(
        "workload {}: seed {}, {sizes:?}, fingerprint {:#018x}, {} of {} iterations failed (failed_frac {}), \
         {} decide calls behind the latency percentiles",
        args.workload.name(),
        args.seed,
        outcome.fingerprint,
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.latency_samples,
    );
    if !outcome.uncalibrated.is_empty() {
        let raw: Vec<String> = outcome
            .uncalibrated
            .iter()
            .map(|(name, value, unit)| format!("{name} {value} {unit}"))
            .collect();
        println!(
            "median host slowdown {} (reference kernel over {} s); uncalibrated: {}",
            outcome.slowdown,
            perfbench::calibrate::NOMINAL_S,
            raw.join(", ")
        );
    }
    println!("{}", outcome.to_json());
}
