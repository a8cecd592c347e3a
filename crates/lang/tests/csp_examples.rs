//! Every `.csp` example in `examples/csp/` must parse, transform, run in
//! both modes, and satisfy Theorem 1 — the programs shipped to users stay
//! green.

use opcsp_core::CoreConfig;
use opcsp_lang::{parse_program, System};
use opcsp_rt::{RtConfig, RtWorld};
use opcsp_sim::{check_conservation, check_equivalence, LatencyModel, SimConfig, SimResult};
use opcsp_workloads::catalog::{self, place, Spec};
use opcsp_workloads::streaming::StreamingOpts;
use std::path::PathBuf;
use std::time::Duration;

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

/// `opcsp-run two_pairs.csp` holds Theorem 1 on the simulator and on the
/// real-thread runtime: every run is checked, with no flag asked for.
#[test]
fn two_pairs_runs_green_on_both_engines() {
    let file = examples_dir().join("two_pairs.csp");
    for engine in [&[][..], &["--rt"][..]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_opcsp-run"))
            .arg(&file)
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

/// A program's rt run is held to `Spec::check`, released externals as well
/// as logs: an output released twice is a divergence.
#[test]
fn spec_check_rejects_an_external_released_twice_on_rt() {
    let src = std::fs::read_to_string(examples_dir().join("putline.csp")).unwrap();
    let spec = System::compile(&parse_program(&src).unwrap())
        .unwrap()
        .spec("putline.csp");
    let cfg = RtConfig {
        latency: Duration::from_millis(2),
        ..RtConfig::default()
    };
    let mut r = place(&spec.roster(), RtWorld::new(cfg)).run();
    assert!(spec.check(&r).is_ok(), "{:?}", spec.check(&r));
    let last = r
        .external
        .last()
        .cloned()
        .expect("putline releases outputs");
    r.external.push(last);
    assert!(spec.check(&r).is_err());
}

/// `stream.csp` with its server's reply swapped for `reply`.
fn stream_csp(reply: &str) -> Spec {
    let src = std::fs::read_to_string(examples_dir().join("stream.csp")).unwrap();
    let src = src.replace("reply true;", reply);
    System::compile(&parse_program(&src).unwrap())
        .unwrap()
        .spec("stream.csp")
}

/// The counters a world's scheduling shows.
fn counters(r: &SimResult) -> [u64; 7] {
    let s = r.stats();
    [
        s.forks,
        s.commits,
        s.aborts,
        s.rollbacks,
        s.orphans,
        s.data_messages,
        s.control_messages,
    ]
}

/// Run `spec` and its pessimistic twin at one-way latency `d`, each held
/// to its oracle.
fn both_sides(spec: &Spec, d: u64) -> [SimResult; 2] {
    [spec.clone(), spec.twin()].map(|s| {
        let cfg = SimConfig {
            latency: LatencyModel::fixed(d),
            ..s.sim_config()
        };
        let r = catalog::run(&s, &cfg);
        s.check(&r).unwrap_or_else(|e| panic!("{s} d={d}: {e}"));
        r
    })
}

/// The transformation meets the flagship: `stream.csp` compiled is
/// `stream:n=32`. At E1's six latencies, optimistic and pessimistic, the
/// program forks, commits, aborts, rolls back, orphans and sends exactly
/// what the hand-written world does, and finishes N × `server_compute`
/// ticks sooner: the interpreter's server charges no compute for a call.
#[test]
fn stream_csp_is_the_stream_world_at_every_e1_latency() {
    let csp = stream_csp("reply true;");
    for d in [1u64, 4, 16, 64, 256, 1024] {
        let o = StreamingOpts {
            n: 32,
            latency: d,
            ..StreamingOpts::default()
        };
        let gap = u64::from(o.n) * o.server_compute;
        let rust = both_sides(&Spec::Stream(o), d);
        for (side, (c, r)) in ["optimistic", "pessimistic"]
            .iter()
            .zip(both_sides(&csp, d).iter().zip(&rust))
        {
            assert_eq!(counters(c), counters(r), "{side} d={d}");
            assert_eq!(c.completion + gap, r.completion, "{side} d={d}");
        }
    }
}

/// One rejected line, at E3's latency (d=50), both sides: a server
/// replying `line != 7` against `fail_lines = {7}`. The counters agree;
/// the program finishes one `server_compute` sooner per committed call
/// (lines 0..=7), since the speculative calls past the rejected line are
/// off the critical path (DESIGN.md §3a).
#[test]
fn stream_csp_rejecting_a_line_is_the_stream_world_rejecting_it() {
    let k = 7;
    let o = StreamingOpts {
        n: 32,
        latency: 50,
        fail_lines: [k].into(),
        ..StreamingOpts::default()
    };
    let gap = u64::from(k + 1) * o.server_compute;
    let rust = both_sides(&Spec::Stream(o), 50);
    let csp = both_sides(&stream_csp(&format!("reply line != {k};")), 50);
    for (side, (c, r)) in ["optimistic", "pessimistic"]
        .iter()
        .zip(csp.iter().zip(&rust))
    {
        assert_eq!(counters(c), counters(r), "{side}");
        assert_eq!(c.completion + gap, r.completion, "{side}");
    }
    assert!(
        rust[0].stats().rollbacks > 0,
        "the rejected line rolls back"
    );
}
