//! Tests of the benchmark itself, at small input sizes.

use perfbench::workloads::{run_once, Sizes, Workload};
use perfbench::{run, END_TO_END, PER_LAYER};

const SEED: u64 = 11;

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn probes_do_not_change_the_simulated_outcome() {
    for w in Workload::ALL {
        let plain = run_once(w, &Sizes::TINY, SEED, false);
        let traced = run_once(w, &Sizes::TINY, SEED, true);
        assert_eq!(plain.verdict, Ok(()), "{}", w.name());
        assert_eq!(traced.verdict, Ok(()), "{}", w.name());
        assert_eq!(
            plain.fingerprint,
            traced.fingerprint,
            "{}: probes changed the outcome",
            w.name()
        );
        assert_eq!(
            (plain.jobs, plain.steps, plain.events),
            (traced.jobs, traced.steps, traced.events)
        );
        let spans = &traced.trace.as_ref().expect("traced sample").spans;
        assert!(spans.decide.calls() > 0, "{}: decide not probed", w.name());
        if w == Workload::RlTrain {
            assert_eq!(
                spans.env_step.calls(),
                traced.steps,
                "every env step probed"
            );
        } else {
            assert_eq!(spans.decide.calls(), traced.steps, "every decide probed");
            assert!(spans.select.calls() > 0, "{}: select not probed", w.name());
        }
    }
}

#[test]
fn the_seed_reaches_the_inputs() {
    for w in Workload::ALL {
        let a = run_once(w, &Sizes::TINY, SEED, false);
        let b = run_once(w, &Sizes::TINY, SEED + 1, false);
        assert_ne!(a.fingerprint, b.fingerprint, "{}", w.name());
    }
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(well_formed_name(name), "bad metric name {name}");
        assert!(seen.insert(*name), "{name} declared twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit}"
        );
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let list = |key: &str, field: &str| -> Vec<String> {
        json.get_field(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|e| {
                e.get_field(field)
                    .and_then(|v| v.as_str())
                    .expect("string field")
                    .to_string()
            })
            .collect()
    };
    let names = |cat: &[(&str, &str)]| cat.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    let units = |cat: &[(&str, &str)]| cat.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
    assert_eq!(list("end_to_end", "name"), names(&END_TO_END));
    assert_eq!(list("end_to_end", "unit"), units(&END_TO_END));
    assert_eq!(list("per_layer", "name"), names(&PER_LAYER));
    assert_eq!(list("per_layer", "unit"), units(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(list("workloads", "name"), workloads);
}

#[test]
fn every_workload_prints_every_metric() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(w, &Sizes::TINY, SEED, 0.0, trace).expect("iterations passed");
            assert_eq!(
                out.failed,
                0,
                "{} trace={trace}: {:?}",
                w.name(),
                out.failures
            );
            let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let printed: Vec<(&str, &str)> = out.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(printed, catalogue, "{} trace={trace}", w.name());
            for &(name, value, _) in &out.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", w.name());
                assert!(
                    trace || value > 0.0,
                    "{} end-to-end {name} = {value}",
                    w.name()
                );
            }

            let line = serde_json::parse_value(&out.to_json()).expect("result line is JSON");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line
                .get_field("metrics")
                .and_then(|m| m.as_obj())
                .expect("metrics object");
            assert_eq!(metrics.len(), catalogue.len());
        }
    }
}

#[test]
fn layer_times_nest_inside_the_wall_time() {
    for w in Workload::ALL {
        let s = run_once(w, &Sizes::TINY, SEED, true);
        let sp = &s.trace.as_ref().expect("traced").spans;
        // Broker calls happen inside decide, env calls inside training.
        assert!(sp.select.seconds() <= sp.decide.seconds(), "{}", w.name());
        assert!(
            sp.env_step.seconds() + sp.env_reset.seconds() <= s.train_s,
            "{}",
            w.name()
        );
        // The single-threaded runs cannot spend longer in decide than
        // they ran; the service sums decide time over its worker threads.
        if w != Workload::ServiceLockstep {
            assert!(sp.decide.seconds() <= s.wall_s - s.train_s, "{}", w.name());
        }
    }
}
