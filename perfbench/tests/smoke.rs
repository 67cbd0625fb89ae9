//! Smoke sizes: every workload's chunk loop, the tracer and the output checks,
//! each workload in about a second.

use perfbench::{run, threads, Config, Report, Workload, WORKLOADS};

fn smoke(name: &str, trace: bool) -> Report {
    let workload = Workload::by_name(name).expect("a known workload").smoke();
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
    };
    let report = run(&cfg).expect("smoke run");
    assert!(report.correct(), "{name}: {:?}", report.problems);
    assert_eq!((report.attempted, report.failed), (1, 0), "{name}");
    report
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metric(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn epidemic_runs_on_the_sharded_layer_only() {
    let r = smoke("epidemic-1e9", true);
    for name in [
        "sharded.s",
        "sharded.epochs",
        "sample.collision_ns",
        "sample.mvhg_ns",
        "dense.delta_ns",
    ] {
        assert!(metric(&r, name) > 0.0, "{name}");
    }
    assert_eq!(metric(&r, "sharded.scaling_eff") > 0.0, threads() > 1);
    for name in ["batched.s", "stint.s", "simulator.s", "hybrid.switches"] {
        assert_eq!(metric(&r, name), 0.0, "{name}");
    }
}

#[test]
fn count_exact_runs_both_hybrid_legs_and_matches_the_library_runner() {
    let r = smoke("countexact-1e4", true);
    for name in [
        "batched.s",
        "batched.q_occ_max",
        "stint.s",
        "hybrid.switches",
        "interned.states",
        "dense.delta_ns",
    ] {
        assert!(metric(&r, name) > 0.0, "{name}");
    }
    let frac = metric(&r, "hybrid.dense_frac");
    assert!(frac > 0.0 && frac < 1.0, "{frac}");
}

#[test]
fn sequential_count_exact_runs_on_the_simulator_only() {
    let r = smoke("countexact-seq-2e3", true);
    assert!(metric(&r, "simulator.s") > 0.0);
    assert!(metric(&r, "simulator.ns_per_int") > 0.0);
    for name in ["batched.s", "sharded.s", "stint.s", "sample.collision_ns"] {
        assert_eq!(metric(&r, name), 0.0, "{name}");
    }
}

/// `BENCHMARK.json` names exactly the metrics the two modes print, with
/// their units, and exactly the workloads the benchmark knows.
#[test]
fn benchmark_json_matches_the_metrics_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let untraced = smoke("countexact-seq-2e3", false);
    let traced = smoke("countexact-seq-2e3", true);
    let printed: Vec<_> = untraced.metrics.iter().chain(&traced.metrics).collect();
    for m in &printed {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(spec.matches("\"unit\":").count(), printed.len());
    let listed = spec.matches("\"why\":").count();
    let known = WORKLOADS
        .iter()
        .filter(|w| spec.contains(&format!("\"name\": \"{}\"", w.name)))
        .count();
    assert_eq!((listed, known), (WORKLOADS.len(), WORKLOADS.len()));
}
