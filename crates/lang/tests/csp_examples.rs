//! Every `.csp` example in `examples/csp/` must parse, transform, run in
//! both modes, and satisfy Theorem 1 — the programs shipped to users stay
//! green.

use opcsp_core::CoreConfig;
use opcsp_lang::{parse_program, System};
use opcsp_sim::{check_conservation, check_equivalence, LatencyModel, SimConfig};
use std::path::PathBuf;

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/csp")
}

fn all_examples() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(examples_dir()).expect("examples/csp exists") {
        let path = entry.unwrap().path();
        if path.extension().map(|e| e == "csp").unwrap_or(false) {
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            out.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    out.sort();
    assert!(
        out.len() >= 3,
        "expected the shipped examples, found {}",
        out.len()
    );
    out
}

#[test]
fn every_example_parses_and_transforms() {
    for (name, src) in all_examples() {
        let program = parse_program(&src).unwrap_or_else(|e| panic!("{name}: parse error {e}"));
        System::compile(&program).unwrap_or_else(|e| panic!("{name}: transform error {e}"));
    }
}

#[test]
fn every_example_satisfies_theorem_1() {
    for (name, src) in all_examples() {
        let program = parse_program(&src).unwrap();
        let sys = System::compile(&program).unwrap();
        for d in [10u64, 50, 120] {
            let cfg = |optimism: bool| SimConfig {
                core: if optimism {
                    CoreConfig::default()
                } else {
                    CoreConfig::pessimistic()
                },
                latency: LatencyModel::fixed(d),
                ..SimConfig::default()
            };
            let pess = sys.run(cfg(false));
            let opt = sys.run(cfg(true));
            assert!(
                opt.unresolved.is_empty(),
                "{name} d={d}: unresolved {:?}",
                opt.unresolved
            );
            assert!(!opt.truncated, "{name} d={d}: truncated");
            let rep = check_equivalence(&pess, &opt);
            assert!(rep.equivalent, "{name} d={d}: {:#?}", rep.mismatches);
            check_conservation(&opt).unwrap_or_else(|e| panic!("{name} d={d}: {e}"));
        }
    }
}

#[test]
fn every_example_survives_jitter() {
    for (name, src) in all_examples() {
        let program = parse_program(&src).unwrap();
        let sys = System::compile(&program).unwrap();
        for seed in [3u64, 17] {
            let r = sys.run(SimConfig {
                latency: LatencyModel::jitter(10, 90, seed),
                ..SimConfig::default()
            });
            assert!(
                r.unresolved.is_empty(),
                "{name} seed={seed}: unresolved {:?}",
                r.unresolved
            );
            check_conservation(&r).unwrap_or_else(|e| panic!("{name} seed={seed}: {e}"));
        }
    }
}

/// `two_pairs.csp` is two independent client→server pairs. The interpreter
/// declares each process's `call`/`send` targets, so the world is two
/// control domains and every control message has one recipient instead of
/// three: the simulator's `ctrl=` (one count per recipient) is exactly a
/// third of what the same program sends with its declarations stripped —
/// and nothing else moves.
#[test]
fn two_pairs_sends_a_third_of_the_control_of_a_world_broadcast() {
    let src = std::fs::read_to_string(examples_dir().join("two_pairs.csp")).unwrap();
    let sys = System::compile(&parse_program(&src).unwrap()).unwrap();
    let cfg = || SimConfig {
        latency: LatencyModel::fixed(60),
        ..SimConfig::default()
    };
    let scoped = sys.run(cfg());
    let world = sys.builder(cfg()).undeclared().build().run();
    assert!(scoped.stats().commits > 0 && scoped.stats().aborts > 0);
    assert_eq!(
        scoped.stats().control_messages * 3,
        world.stats().control_messages
    );
    assert_eq!(scoped.logs, world.logs);
    assert_eq!(scoped.external, world.external);
    assert_eq!(scoped.completion, world.completion);
}

/// Every other shipped example is one component: declared or stripped, it
/// is the same run.
#[test]
fn every_other_example_is_one_component() {
    for (name, src) in all_examples() {
        if name == "two_pairs.csp" {
            continue;
        }
        let sys = System::compile(&parse_program(&src).unwrap()).unwrap();
        let declared = sys.run(SimConfig::default());
        let stripped = sys.builder(SimConfig::default()).undeclared().build().run();
        assert_eq!(declared.stats(), stripped.stats(), "{name}");
        assert_eq!(declared.completion, stripped.completion, "{name}");
        assert_eq!(declared.logs, stripped.logs, "{name}");
    }
}

/// `opcsp-run two_pairs.csp --compare` holds on the simulator and on the
/// real-thread runtime.
#[test]
fn two_pairs_passes_compare_on_both_engines() {
    let file = examples_dir().join("two_pairs.csp");
    for engine in [&[][..], &["--rt"][..]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_opcsp-run"))
            .arg(&file)
            .arg("--compare")
            .args(engine)
            .output()
            .expect("spawn opcsp-run");
        assert!(
            out.status.success(),
            "{engine:?}: {}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
