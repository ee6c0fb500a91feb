//! Strict command-line parsing: every flag is required exactly once, and
//! an unknown flag or a value that does not parse is an error, never a
//! silent default.

use crate::workloads::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to measure, in seconds (1 to 3600).
    pub seconds: u64,
    /// Whether to print per-layer metrics from traced iterations.
    pub trace: bool,
}

/// The usage line.
pub const USAGE: &str =
    "usage: perfbench --workload <fleet_stream|deep_backlog|service_lockstep|rl_train> \
                         --seed <u64> --seconds <1..=3600> --trace <0|1>";

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown argument '{flag}'"));
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let twice = || format!("{flag} given twice");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::from_name(v).ok_or_else(|| format!("unknown workload '{v}'"))?;
                if workload.replace(w).is_some() {
                    return Err(twice());
                }
            }
            "--seed" => {
                let n = v.parse::<u64>().map_err(|e| format!("--seed '{v}': {e}"))?;
                if seed.replace(n).is_some() {
                    return Err(twice());
                }
            }
            "--seconds" => {
                let n = v
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds '{v}': {e}"))?;
                if !(1..=3600).contains(&n) {
                    return Err(format!("--seconds {n} is outside 1..=3600"));
                }
                if seconds.replace(n).is_some() {
                    return Err(twice());
                }
            }
            _ => {
                let t = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace '{v}': expected 0 or 1")),
                };
                if trace.replace(t).is_some() {
                    return Err(twice());
                }
            }
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&args("--workload rl_train --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::RlTrain,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_input_instead_of_defaulting() {
        let ok = "--workload fleet_stream --seed 1 --seconds 5 --trace 0";
        assert!(parse(&args(ok)).is_ok());
        for bad in [
            "--workload fleet_stream --seed 1 --seconds 5",
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload fleet_stream --seed -1 --seconds 5 --trace 0",
            "--workload fleet_stream --seed x --seconds 5 --trace 0",
            "--workload fleet_stream --seed 1 --seconds 0 --trace 0",
            "--workload fleet_stream --seed 1 --seconds 5 --trace 2",
            "--workload fleet_stream --seed 1 --seconds 5 --trace 0 --verbose",
            "--workload fleet_stream --seed 1 --seed 2 --seconds 5 --trace 0",
            "--workload fleet_stream --seed 1 --seconds 5 --trace",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted: {bad}");
        }
    }
}
