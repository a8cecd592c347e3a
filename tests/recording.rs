//! A run that keeps no record is the same run (DESIGN.md §5b, "A run keeps
//! what its reader asks for"). `SimConfig::record` decides whether the
//! simulator keeps every trace event, the commit provenance of every
//! committed observable and every guess resolution; nothing else may
//! depend on it. Every catalogue world, and the `--inject-lifo` /
//! `--inject-phantom` fixtures, run both ways here: logs, released
//! externals, every `SimStats` field, completion time, what the drivers
//! still hold and the unresolved guesses must be equal, and the lean run
//! must hold no event, provenance or resolution.

use opcsp_core::{CoreConfig, ProcessId};
use opcsp_lang::{parse_program, System};
use opcsp_sim::{FaultInjection, LatencyModel, SimConfig, SimResult};
use opcsp_workloads::catalog::Spec;

fn assert_same_run(what: &str, lean: &SimResult, recorded: &SimResult) {
    assert_eq!(lean.logs, recorded.logs, "{what}: logs");
    assert_eq!(lean.external, recorded.external, "{what}: externals");
    assert_eq!(lean.stats, recorded.stats, "{what}: stats");
    assert_eq!(lean.completion, recorded.completion, "{what}: completion");
    assert_eq!(lean.held, recorded.held, "{what}: held");
    assert_eq!(lean.unresolved, recorded.unresolved, "{what}: unresolved");
    assert!(lean.trace.events.is_empty(), "{what}: lean run kept events");
    assert!(
        lean.provenance.is_empty(),
        "{what}: lean run kept provenance"
    );
    assert!(
        lean.resolutions.is_empty(),
        "{what}: lean run kept resolutions"
    );
    // The recorded run did keep them, so the comparison above compared two
    // different ways of running.
    assert!(
        !recorded.trace.events.is_empty(),
        "{what}: nothing recorded"
    );
    assert_eq!(
        recorded.provenance.keys().collect::<Vec<_>>(),
        recorded.logs.keys().collect::<Vec<_>>(),
        "{what}: provenance per process"
    );
}

#[test]
fn every_catalogue_world_runs_the_same_recorded_or_not() {
    for text in [
        "stream:n=40",
        "chain:depth=3,n=6",
        "pairs:pairs=8,n=4",
        "fan_in:producers=4,n=6",
        "tally:n=120,faults=150",
        "kv:replicas=3,clients=3,ops=30,keys=64",
    ] {
        let spec = Spec::parse(text).expect("spec parses");
        for world in [spec.clone(), spec.twin()] {
            let lean = world.simulate();
            let recorded = world.simulate_recorded();
            assert_same_run(&world.to_string(), &lean, &recorded);
        }
    }
}

fn compile(path: &str) -> System {
    let src = std::fs::read_to_string(path).expect("fixture reads");
    System::compile(&parse_program(&src).expect("fixture parses")).expect("fixture transforms")
}

#[test]
fn injected_faults_run_the_same_recorded_or_not() {
    let root = env!("CARGO_MANIFEST_DIR");
    for file in [
        "examples/csp/fan_in.csp",
        "tests/fixtures/ordered_board.csp",
    ] {
        let sys = compile(&format!("{root}/{file}"));
        for fault in [FaultInjection::LifoDelivery, FaultInjection::PhantomLog] {
            for seed in [1, 42] {
                let cfg = SimConfig {
                    core: CoreConfig::default(),
                    latency: LatencyModel::jitter(20, 80, seed),
                    fork_timeout: 10_000,
                    fault,
                    ..SimConfig::default()
                };
                let lean = sys.run(cfg.clone());
                let recorded = sys.run(SimConfig {
                    record: true,
                    ..cfg
                });
                let what = format!("{file} {fault:?} seed {seed}");
                assert_same_run(&what, &lean, &recorded);
                assert!(recorded.logs.contains_key(&ProcessId(0)));
            }
        }
    }
}
