//! Minimal CLI parsing shared by the bench bins and the repository
//! examples (one copy instead of one per binary).

use qcs_qcloud::{FaultScript, RetryPolicy};
use std::fmt::Display;
use std::str::FromStr;

/// Parses `--name value` from `std::env::args`, or `default` when the
/// flag is absent. A flag given without a value, or with one that does
/// not parse as `T`, is a usage error: the message names the flag and
/// carries the parser's own explanation, and the process exits with
/// status 2.
pub fn arg<T: FromStr>(name: &str, default: T) -> T
where
    T::Err: Display,
{
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name, default).unwrap_or_else(|e| exit_usage(&e))
}

/// Parses `--faults SPEC` in the [`FaultScript::parse`] grammar; `None`
/// when the flag is absent or empty. A spec that does not parse is a
/// usage error, reported like [`arg`]'s.
pub fn faults_arg() -> Option<(FaultScript, RetryPolicy)> {
    let args: Vec<String> = std::env::args().collect();
    parse_faults(&args).unwrap_or_else(|e| exit_usage(&e))
}

/// Prints `error: <flag>: <message>` and exits with status 2: for values
/// that parse but are out of range (e.g. `--regions 0`).
pub fn usage_error(name: &str, message: impl Display) -> ! {
    exit_usage(&format!("{name}: {message}"))
}

fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The pure parser behind [`arg`]: looks `name` up in `args` (the first
/// occurrence counts) and parses the value that follows it. `Ok(default)`
/// when the flag is absent; `Err` naming the flag when its value is
/// missing or does not parse.
fn parse_arg<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: Display,
{
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map_err(|e| format!("{name}: cannot parse {value:?}: {e}"))
}

/// The pure parser behind [`faults_arg`].
fn parse_faults(args: &[String]) -> Result<Option<(FaultScript, RetryPolicy)>, String> {
    let spec: String = parse_arg(args, "--faults", String::new())?;
    if spec.is_empty() {
        return Ok(None);
    }
    FaultScript::parse(&spec)
        .map(Some)
        .map_err(|e| format!("--faults: cannot parse {spec:?}: {e}"))
}

/// Whether a bare `--name` flag is present.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parses `--update-workers N` (default `1` = single-threaded) and
/// resolves `0` to one worker per available core. Training results are
/// bit-identical at any worker count (see `qcs_rl::update`); the knob
/// only changes wall-clock time.
pub fn update_workers_arg() -> usize {
    match arg("--update-workers", 1usize) {
        0 => qcs_desim::parallel::default_threads(),
        n => n,
    }
}

/// Cores available to this process, via
/// [`std::thread::available_parallelism`]; `1` when detection fails.
/// The bench recorders stamp this next to multi-worker speedups so
/// `bench_guard` can honestly skip floors a small recording host cannot
/// meet (and nag when the checking host could re-record them).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn absent_flag_falls_back_to_default() {
        assert_eq!(arg("--definitely-not-passed", 7u64), 7);
        assert!(!flag("--definitely-not-passed"));
        assert_eq!(
            parse_arg(&argv(&["bin", "--seed", "3"]), "--jobs", 9u64),
            Ok(9)
        );
    }

    #[test]
    fn present_flag_parses_its_value() {
        let args = argv(&["bin", "--timesteps", "2000", "--rate", "0.5"]);
        assert_eq!(parse_arg(&args, "--timesteps", 100_000u64), Ok(2000));
        assert_eq!(parse_arg(&args, "--rate", 1.0f64), Ok(0.5));
    }

    #[test]
    fn unparsable_value_is_an_error_naming_the_flag() {
        let args = argv(&["bin", "--timesteps", "garbage"]);
        let err = parse_arg(&args, "--timesteps", 100_000u64).unwrap_err();
        assert!(
            err.contains("--timesteps") && err.contains("garbage"),
            "{err}"
        );
        // A following flag is not a value either.
        let args = argv(&["bin", "--jobs", "--seed", "7"]);
        assert!(parse_arg(&args, "--jobs", 300usize).is_err());
    }

    #[test]
    fn bad_spec_message_lists_the_accepted_tokens() {
        use qcs_qcloud::policies::SchedSpec;
        let default: SchedSpec = "backfill+speed".parse().unwrap();
        let args = argv(&["serve", "--spec", "bogus"]);
        let err = parse_arg(&args, "--spec", default.clone()).unwrap_err();
        assert!(err.starts_with("--spec: cannot parse \"bogus\": "), "{err}");
        assert!(
            err.contains("unknown placement policy `bogus`") && err.contains("speed, fidelity"),
            "{err}"
        );
        let args = argv(&["serve", "--spec", "conservative+minfrag"]);
        let spec = parse_arg(&args, "--spec", default).unwrap();
        assert_eq!(spec.to_string(), "conservative+minfrag");
    }

    #[test]
    fn bad_fault_spec_is_an_error_naming_the_flag() {
        let err = parse_faults(&argv(&["queueing", "--faults", "crash:zz"])).unwrap_err();
        assert!(
            err.starts_with("--faults: cannot parse \"crash:zz\": ") && err.contains("'@'"),
            "{err}"
        );
        assert!(parse_faults(&argv(&["queueing"])).unwrap().is_none());
        assert!(parse_faults(&argv(&["queueing", "--faults", ""]))
            .unwrap()
            .is_none());
        let (script, retry) = parse_faults(&argv(&["table2", "--faults", "crash:0@5+3;retries:4"]))
            .unwrap()
            .expect("a script");
        assert_eq!(script.crashes.len(), 1);
        assert_eq!(retry.max_attempts, 4);
    }

    #[test]
    fn missing_value_is_an_error_naming_the_flag() {
        let args = argv(&["bin", "--seed"]);
        let err = parse_arg(&args, "--seed", 42u64).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn host_cores_detects_at_least_one() {
        assert!(host_cores() >= 1);
    }

    #[test]
    fn update_workers_defaults_single_threaded() {
        assert_eq!(update_workers_arg(), 1);
    }
}
