//! Runs the whole suite at smoke scale and holds its output, the metric
//! catalogue and `BENCHMARK.json` to each other and to the benchmark
//! contract's limits.

use opcsp_benchmark::json::Json;
use opcsp_benchmark::suite;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn names(list: &Json) -> BTreeSet<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(obj: &Json) -> BTreeSet<String> {
    obj.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn smoke_suite_matches_benchmark_json() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let out = "benchmark/out/results-smoke-test.json";
    let status = Command::new(env!("CARGO_BIN_EXE_opcsp-benchmark"))
        .current_dir(root)
        .args(["all", "--scale", "smoke", "--seed", "11", "--out", out])
        .status()
        .expect("spawn the benchmark");
    assert!(status.success(), "smoke suite failed: {status}");

    let read =
        |p: &Path| Json::parse(&std::fs::read_to_string(p).expect("readable")).expect("JSON");
    let results = read(&root.join(out));
    let committed = read(&root.join("BENCHMARK.json"));
    assert_eq!(
        committed,
        suite::describe(),
        "BENCHMARK.json is not what `describe` prints"
    );

    // The contract's counts and name shapes.
    let (workloads, e2e, layers) = (
        names(committed.get("workloads").expect("workloads")),
        names(committed.get("end_to_end").expect("end_to_end")),
        names(committed.get("per_layer").expect("per_layer")),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()) && e2e.contains("setup_s"));
    assert!((1..=128).contains(&layers.len()));
    let all_names: Vec<&String> = workloads.iter().chain(&e2e).chain(&layers).collect();
    assert!(all_names.iter().all(|n| well_formed(n)), "{all_names:?}");
    assert_eq!(
        all_names.iter().collect::<BTreeSet<_>>().len(),
        all_names.len(),
        "a name is used twice"
    );
    for w in committed
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    for m in committed
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!((0.0..=0.25).contains(&bound));
    }

    // Every workload and metric named in BENCHMARK.json is in the results,
    // and the other way round.
    let ran = results.get("workloads").expect("workloads ran");
    assert_eq!(keys(ran), workloads);
    for (name, w) in ran.as_obj().expect("an object") {
        assert_eq!(
            w.get("correct"),
            Some(&Json::Bool(true)),
            "{name} incorrect"
        );
        assert_eq!(
            w.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{name} failed ops"
        );
        assert_eq!(
            keys(w.get("end_to_end").expect("end_to_end")),
            e2e,
            "{name}"
        );
        assert_eq!(
            keys(w.get("per_layer").expect("per_layer")),
            layers,
            "{name}"
        );
        let layer = |m: &str| {
            w.get("per_layer")
                .and_then(|l| l.get(m))
                .and_then(|r| r.get("value"))
                .and_then(Json::as_f64)
                .expect("a per-layer value")
        };
        // Sim counters repeat exactly between reps (the run asserts it and
        // reports it); every workload forks.
        if name.contains("_sim") {
            assert_eq!(layer("rt.runtime.counts_stable"), 1.0, "{name}");
            assert!(layer("sim.engine.vt_completion_ticks") > 0.0, "{name}");
        }
        assert!(layer("core.process.forks") > 0.0, "{name}");
        assert!(layer("workloads.behavior.steps") > 0.0, "{name}");
    }
}
