//! Interpreter and parser edge cases: loop nesting, shadowing-free store
//! semantics, error paths, and a never-panic property for the parser.

use opcsp_core::CoreConfig;
use opcsp_lang::{parse_expr, parse_program, run_source, System};
use opcsp_sim::{LatencyModel, SimConfig};
use proptest::prelude::*;

fn run_ok(src: &str) -> opcsp_sim::SimResult {
    run_source(
        src,
        SimConfig {
            core: CoreConfig::pessimistic(),
            latency: LatencyModel::fixed(1),
            ..SimConfig::default()
        },
    )
    .expect("program runs")
}

fn outputs(r: &opcsp_sim::SimResult) -> Vec<opcsp_core::Value> {
    r.external.iter().map(|(_, _, v)| v.clone()).collect()
}

#[test]
fn nested_loops_and_conditionals() {
    let r = run_ok(
        r#"
        process A {
            let total = 0;
            let i = 0;
            while i < 4 {
                let j = 0;
                while j < 3 {
                    if (i + j) % 2 == 0 { total = total + 1; }
                    j = j + 1;
                }
                i = i + 1;
            }
            output total;
        }
    "#,
    );
    assert_eq!(outputs(&r), vec![opcsp_core::Value::Int(6)]);
}

#[test]
fn while_loop_with_early_exit_flag() {
    let r = run_ok(
        r#"
        process A {
            let i = 0;
            let go = true;
            while go {
                i = i + 1;
                if i >= 7 { go = false; }
            }
            output i;
        }
    "#,
    );
    assert_eq!(outputs(&r), vec![opcsp_core::Value::Int(7)]);
}

#[test]
fn records_nest_and_project() {
    let r = run_ok(
        r#"
        process A {
            let msg = {header: {kind: "put", seq: 9}, body: [10, 20]};
            output msg.header.seq;
            output msg.body[1];
        }
    "#,
    );
    assert_eq!(
        outputs(&r),
        vec![opcsp_core::Value::Int(9), opcsp_core::Value::Int(20)]
    );
}

#[test]
fn string_equality_and_concat() {
    let r = run_ok(
        r#"
        process A {
            let a = "foo" + "bar";
            if a == "foobar" { output "yes"; } else { output "no"; }
        }
    "#,
    );
    assert_eq!(outputs(&r), vec![opcsp_core::Value::str("yes")]);
}

#[test]
fn empty_process_is_fine() {
    let r = run_ok("process A { }");
    assert!(outputs(&r).is_empty());
}

#[test]
fn compile_error_for_unbound_process_is_runtime_panic() {
    // Name resolution happens at call time (bindings map); the panic is a
    // programming error with process context.
    let result = std::panic::catch_unwind(|| {
        run_ok("process A { x = call Nowhere(1); }");
    });
    assert!(result.is_err());
}

#[test]
fn division_by_zero_panics_with_context() {
    let result = std::panic::catch_unwind(|| {
        run_ok("process A { let x = 1 / 0; }");
    });
    assert!(result.is_err());
}

#[test]
fn deterministic_interleaving_of_two_independent_clients() {
    let src = r#"
        process A { r = call S(1) : "CA"; output r; }
        process B { r = call S(2) : "CB"; output r; }
        process S { while true { receive q; reply q * 10; } }
    "#;
    let p = parse_program(src).unwrap();
    let sys = System::compile(&p).unwrap();
    let cfg = || SimConfig {
        core: CoreConfig::pessimistic(),
        latency: LatencyModel::fixed(5),
        ..SimConfig::default()
    };
    let a = sys.run(cfg());
    let b = sys.run(cfg());
    assert_eq!(a.logs, b.logs);
    assert_eq!(outputs(&a), outputs(&b));
}

proptest! {
    /// The parser never panics: any input either parses or returns a
    /// ParseError with a line number.
    #[test]
    fn parser_never_panics(src in "[a-z0-9{}();=<>!\"+*,.\\[\\] \n]{0,200}") {
        let _ = parse_program(&src);
        let _ = parse_expr(&src);
    }

    /// Integer expressions evaluate without overflow panics (wrapping).
    #[test]
    fn arithmetic_wraps(a in any::<i32>(), b in any::<i32>()) {
        let src = format!("process A {{ let x = {a} * {b} + {a}; output x; }}");
        let r = run_ok(&src);
        prop_assert_eq!(r.external.len(), 1);
    }
}
