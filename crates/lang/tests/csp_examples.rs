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
