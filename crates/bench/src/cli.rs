//! Minimal CLI parsing shared by the bench bins and the repository
//! examples (one copy instead of one per binary).

/// Parses `--name value` from `std::env::args`, or `default` when the
/// flag is absent. A flag given without a value, or with one that does
/// not parse as `T`, is a usage error: the message names the flag and the
/// process exits with status 2.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The pure parser behind [`arg`]: looks `name` up in `args` (the first
/// occurrence counts) and parses the value that follows it. `Ok(default)`
/// when the flag is absent; `Err` naming the flag when its value is
/// missing or does not parse.
fn parse_arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{name}: cannot parse {value:?}"))
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
