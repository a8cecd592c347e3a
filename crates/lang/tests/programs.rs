//! Complete programs in the mini CSP language, run end-to-end through
//! parse → transform → interpret → protocol, with Theorem-1 equivalence
//! checks against their pessimistic executions.

use opcsp_core::{CoreConfig, ProcessId};
use opcsp_lang::{parse_program, System};
use opcsp_sim::{check_conservation, check_equivalence, LatencyModel, SimConfig, SimResult};

fn cfg(optimism: bool, d: u64) -> SimConfig {
    SimConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency: LatencyModel::fixed(d),
        ..SimConfig::default()
    }
}

fn compile(src: &str) -> System {
    System::compile(&parse_program(src).expect("parse")).expect("transform")
}

fn both(sys: &System, d: u64) -> (SimResult, SimResult) {
    (sys.run(cfg(false, d)), sys.run(cfg(true, d)))
}

fn assert_equiv(pess: &SimResult, opt: &SimResult) {
    assert!(
        opt.unresolved.is_empty(),
        "unresolved: {:?}",
        opt.unresolved
    );
    assert!(!opt.truncated);
    let rep = check_equivalence(pess, opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
    check_conservation(opt).unwrap();
}

/// The Figure 6 shape written in the language: two optimistic clients
/// whose guesses chain through a one-way send.
#[test]
fn two_optimistic_processes_precedence_chain() {
    let sys = compile(
        r#"
        process X {
            parallelize {
                r1 = call Y(1) : "C1";
            } then {
                send Z("m1") : "M1";
            }
        }
        process Y {
            while true { receive q; compute 120; reply true; }
        }
        process Z {
            parallelize {
                receive m1;
                r2 = call W(2) : "C2";
            } then {
                compute 120;
                send W("m2") : "M2";
            }
        }
        process W {
            while true {
                receive q, k;
                output q;
                if k == "call" { reply true; }
            }
        }
    "#,
    );
    let (pess, opt) = both(&sys, 40);
    assert_eq!(opt.stats().forks, 2);
    assert_eq!(
        opt.stats().aborts,
        0,
        "{}",
        opt.trace
            .render_timeline(&[ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)])
    );
    assert_equiv(&pess, &opt);
    // W's outputs released in the same order in both runs.
    let p_out: Vec<_> = pess.external.iter().map(|(_, _, v)| v.clone()).collect();
    let o_out: Vec<_> = opt.external.iter().map(|(_, _, v)| v.clone()).collect();
    assert_eq!(p_out, o_out);
}

/// A client fanning out to two different servers with interleaved
/// speculation: fork over server A's call, then inside the continuation
/// fork over server B's call.
#[test]
fn fan_out_to_two_servers() {
    let sys = compile(
        r#"
        process Client {
            parallelize guess a = true {
                a = call SA(1) : "CA";
            } then {
                parallelize guess b = true {
                    b = call SB(2) : "CB";
                } then {
                    if a && b { output "both"; } else { output "partial"; }
                }
            }
        }
        process SA { while true { receive q; compute 5; reply true; } }
        process SB { while true { receive q; compute 5; reply true; } }
    "#,
    );
    let (pess, opt) = both(&sys, 60);
    assert_eq!(opt.stats().forks, 2);
    assert_eq!(opt.stats().aborts, 0);
    // Both round trips overlap: far faster than their sum.
    assert!(
        opt.completion < pess.completion * 3 / 4,
        "{} vs {}",
        opt.completion,
        pess.completion
    );
    assert_equiv(&pess, &opt);
    assert_eq!(opt.external.len(), 1);
    assert_eq!(opt.external[0].2.as_str(), Some("both"));
}

/// A wrong guess in a branch: the speculative "done" output must be
/// withdrawn and the fallback branch taken.
#[test]
fn wrong_branch_guess_is_rolled_back() {
    let sys = compile(
        r#"
        process Client {
            parallelize guess ok = true {
                ok = call Checker(41) : "C1";
            } then {
                if ok {
                    output "accepted";
                } else {
                    output "rejected";
                }
            }
        }
        process Checker {
            while true {
                receive q;
                reply q > 100;    // 41 fails: the guess is wrong
            }
        }
    "#,
    );
    let (pess, opt) = both(&sys, 30);
    assert_eq!(opt.stats().value_faults, 1);
    assert_equiv(&pess, &opt);
    assert_eq!(opt.external.len(), 1);
    assert_eq!(
        opt.external[0].2.as_str(),
        Some("rejected"),
        "the speculative 'accepted' must never escape"
    );
}

/// Streaming with data-dependent accumulation: S2 both reads the guessed
/// value and maintains loop state across iterations.
#[test]
fn accumulating_stream() {
    let sys = compile(
        r#"
        process Client {
            let i = 0;
            let total = 0;
            while i < 10 {
                parallelize guess v = true {
                    v = call Adder(i) : "C";
                } then {
                    if v { total = total + i; }
                    i = i + 1;
                }
            }
            output total;
        }
        process Adder {
            while true { receive q; reply (q % 3) != 0; }
        }
    "#,
    );
    let (pess, opt) = both(&sys, 50);
    assert_equiv(&pess, &opt);
    // Lines 1,2,4,5,7,8 succeed: total = 1+2+4+5+7+8 = 27.
    assert_eq!(opt.external.last().unwrap().2, opcsp_core::Value::Int(27));
    // Faults at i ∈ {0,3,6,9} (every third): several aborts, yet
    // correctness and a speed win on the correct stretches.
    assert!(opt.stats().value_faults >= 3);
}

/// Servers can also be written with pragmas: an optimistic forwarder in
/// the language (the chain workload's hop, in source form).
#[test]
fn optimistic_forwarder_in_language() {
    let sys = compile(
        r#"
        process Client {
            let i = 0;
            while i < 3 {
                r = call Hop(i) : "C";
                i = i + 1;
            }
            output "done";
        }
        process Hop {
            while true {
                receive req;
                parallelize guess ok = true {
                    ok = call Terminal(req) : "Cf";
                } then {
                    reply ok;
                }
            }
        }
        process Terminal {
            while true { receive q; compute 3; reply true; }
        }
    "#,
    );
    let (pess, opt) = both(&sys, 40);
    assert_eq!(opt.stats().forks, 3);
    assert_eq!(opt.stats().aborts, 0);
    assert_equiv(&pess, &opt);
    // Speculative acks let the client's next call overlap the hop's
    // downstream round trip.
    assert!(
        opt.completion < pess.completion,
        "{} vs {}",
        opt.completion,
        pess.completion
    );
}

/// Determinism of the full pipeline.
#[test]
fn language_pipeline_is_deterministic() {
    let sys = compile(
        r#"
        process A {
            let i = 0;
            while i < 5 {
                parallelize guess ok = true {
                    ok = call B(i) : "C";
                } then {
                    if ok { i = i + 1; } else { i = 5; }
                }
            }
        }
        process B { while true { receive q; reply q < 3; } }
    "#,
    );
    let r1 = sys.run(cfg(true, 25));
    let r2 = sys.run(cfg(true, 25));
    assert_eq!(r1.completion, r2.completion);
    assert_eq!(r1.stats(), r2.stats());
    assert_eq!(r1.logs, r2.logs);
}

/// Lists, indexing and len() — a document-streaming editor in the
/// language itself (the remote_display example, as source).
#[test]
fn list_driven_document_stream() {
    let sys = compile(
        r#"
        process Editor {
            let doc = ["alpha", "beta", "gamma", "delta"];
            let i = 0;
            let go = true;
            while go && i < len(doc) {
                parallelize guess ok = true {
                    ok = call Display(doc[i]) : "C";
                } then {
                    go = ok;
                    i = i + 1;
                }
            }
            output "sent " + "lines";
        }
        process Display {
            let shown = 0;
            while true {
                receive line;
                if shown < 3 {
                    shown = shown + 1;
                    output line;
                    reply true;
                } else {
                    reply false;
                }
            }
        }
    "#,
    );
    let (pess, opt) = both(&sys, 50);
    assert!(
        opt.stats().value_faults >= 1,
        "the 4th line must be rejected"
    );
    assert_equiv(&pess, &opt);
    // Only the per-process order of external outputs is defined (the
    // cross-process interleaving depends on commit-wave timing).
    let display = sys.pid("Display");
    let shown: Vec<String> = opt
        .external
        .iter()
        .filter(|(_, p, _)| *p == display)
        .filter_map(|(_, _, v)| v.as_str().map(str::to_string))
        .collect();
    assert_eq!(shown, vec!["alpha", "beta", "gamma"]);
    let editor_out = opt
        .external
        .iter()
        .filter(|(_, p, _)| *p == sys.pid("Editor"))
        .count();
    assert_eq!(editor_out, 1);
}

/// List concatenation and length arithmetic.
#[test]
fn list_operations_evaluate() {
    use opcsp_sim::{LatencyModel, SimConfig};
    let sys = compile(
        r#"
        process A {
            let xs = [1, 2] + [3];
            output len(xs);
            output xs[2];
            output len("hello");
        }
    "#,
    );
    let r = sys.run(SimConfig {
        core: CoreConfig::pessimistic(),
        latency: LatencyModel::fixed(1),
        ..SimConfig::default()
    });
    let out: Vec<i64> = r
        .external
        .iter()
        .filter_map(|(_, _, v)| v.as_int())
        .collect();
    assert_eq!(out, vec![3, 3, 5]);
}
