//! End-to-end: programs written in the mini CSP language, transformed by
//! the optimistic pass, executed by the interpreter under the full
//! protocol — the complete "transparent program transformation" pipeline
//! of §1/§2.

use opcsp_core::{CoreConfig, ProcessId};
use opcsp_lang::{parse_program, program_to_string, System};
use opcsp_sim::{check_equivalence, LatencyModel, SimConfig};

/// The paper's Figure 1 program, as source.
const UPDATE_WRITE: &str = r#"
    process X {
        parallelize guess ok = true {
            ok = call Y({item: 7, value: 42}) : "C1";   // S1: Update
        } then {
            if ok {
                r = call Z("file-data") : "C3";          // S2: Write
            }
        }
    }
    process Y {
        while true {
            receive req;
            down = call Z(req) : "C2";
            reply down;
        }
    }
    process Z {
        while true {
            receive req;
            compute 1;
            reply true;
        }
    }
"#;

fn cfg(optimism: bool, latency: LatencyModel) -> SimConfig {
    SimConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency,
        ..SimConfig::default()
    }
}

fn fig3_latency(d: u64) -> LatencyModel {
    LatencyModel::per_link(d)
        .link(ProcessId(0), ProcessId(2), 3 * d)
        .build()
}

#[test]
fn figure1_program_compiles_with_expected_fork_site() {
    let p = parse_program(UPDATE_WRITE).unwrap();
    let sys = System::compile(&p).unwrap();
    assert_eq!(sys.transformed.sites.len(), 1);
    let site = &sys.transformed.sites[0];
    assert_eq!(site.proc, "X");
    assert_eq!(site.passed, vec!["ok".to_string()]);
    assert!(!site.copy_needed);
    let printed = program_to_string(&sys.transformed.program);
    assert!(printed.contains("fork@1 guess [ok = true]"), "{printed}");
}

#[test]
fn figure1_program_streams_and_beats_sequential() {
    let p = parse_program(UPDATE_WRITE).unwrap();
    let sys = System::compile(&p).unwrap();
    let d = 50;
    let opt = sys.run(cfg(true, fig3_latency(d)));
    let pess = sys.run(cfg(false, fig3_latency(d)));
    assert!(opt.unresolved.is_empty());
    assert_eq!(opt.stats().forks, 1);
    assert_eq!(opt.stats().aborts, 0);
    assert!(
        opt.completion < pess.completion,
        "optimistic {} vs sequential {}",
        opt.completion,
        pess.completion
    );
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}

#[test]
fn figure1_time_fault_with_symmetric_latency() {
    let p = parse_program(UPDATE_WRITE).unwrap();
    let sys = System::compile(&p).unwrap();
    let opt = sys.run(cfg(true, LatencyModel::fixed(50)));
    assert!(opt.unresolved.is_empty());
    assert!(opt.stats().time_faults >= 1, "C3 must race C2 to Z");
    let pess = sys.run(cfg(false, LatencyModel::fixed(50)));
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}

/// A streaming loop in the language: each iteration's call is forked.
const STREAMER: &str = r#"
    process X {
        let i = 0;
        let go = true;
        while go && i < 8 {
            parallelize guess ok = true {
                ok = call Y(i) : "C";
            } then {
                go = ok;
                i = i + 1;
            }
        }
    }
    process Y {
        while true {
            receive line;
            compute 1;
            reply line < 5;     // lines 5+ are rejected
        }
    }
"#;

#[test]
fn language_streaming_loop_with_value_fault() {
    let p = parse_program(STREAMER).unwrap();
    let sys = System::compile(&p).unwrap();
    let d = 40;
    let opt = sys.run(cfg(true, LatencyModel::fixed(d)));
    let pess = sys.run(cfg(false, LatencyModel::fixed(d)));
    assert!(
        opt.unresolved.is_empty(),
        "unresolved: {:?}",
        opt.unresolved
    );
    // Line 5 is rejected → value fault → rollback of speculative lines 6+.
    assert!(opt.stats().value_faults >= 1);
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
    // And it is still faster than the sequential execution of 6 calls.
    assert!(
        opt.completion < pess.completion,
        "optimistic {} vs sequential {}",
        opt.completion,
        pess.completion
    );
}

#[test]
fn language_streaming_all_success_pipelines() {
    let all_ok = STREAMER.replace("reply line < 5;", "reply line < 99;");
    let p = parse_program(&all_ok).unwrap();
    let sys = System::compile(&p).unwrap();
    let d = 80;
    let opt = sys.run(cfg(true, LatencyModel::fixed(d)));
    let pess = sys.run(cfg(false, LatencyModel::fixed(d)));
    assert_eq!(opt.stats().aborts, 0);
    assert_eq!(opt.stats().forks, 8);
    assert!(
        opt.completion * 3 < pess.completion,
        "expected ≥3× pipelining win: {} vs {}",
        opt.completion,
        pess.completion
    );
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}

/// External outputs written inside speculation are buffered until commit.
/// S2 reads nothing from S1: "the only guess is that S1 terminates without
/// interfering with S2" (§1) — no predictor hints needed.
const OUTPUTTER: &str = r#"
    process X {
        parallelize {
            ok = call Y(1) : "C1";
        } then {
            output "speculative-result";
        }
    }
    process Y {
        receive q;
        compute 200;
        reply true;
    }
"#;

#[test]
fn speculative_outputs_wait_for_commit() {
    let p = parse_program(OUTPUTTER).unwrap();
    let sys = System::compile(&p).unwrap();
    let r = sys.run(SimConfig {
        record: true,
        ..cfg(true, LatencyModel::fixed(30))
    });
    assert!(r.unresolved.is_empty());
    assert_eq!(r.external.len(), 1);
    let (t_out, _, v) = &r.external[0];
    assert_eq!(v.as_str(), Some("speculative-result"));
    // The output happens at commit time — after the round trip (~260),
    // not at speculation time (~2).
    assert!(*t_out >= 260, "buffered output released at {t_out}");
    // It was recorded as buffered in the trace.
    assert!(r
        .trace
        .iter()
        .any(|e| matches!(e, opcsp_sim::TraceEvent::External { buffered: true, .. })));
}

#[test]
fn deterministic_language_runs() {
    let p = parse_program(STREAMER).unwrap();
    let sys = System::compile(&p).unwrap();
    let a = sys.run(cfg(true, LatencyModel::fixed(40)));
    let b = sys.run(cfg(true, LatencyModel::fixed(40)));
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.logs, b.logs);
}
