//! Static analysis: read and write sets of statements and blocks.
//!
//! The transformation (§2) needs to know, for each `parallelize` pragma:
//!
//! - the **passed variables** `{v_i}` — "defined in S1 and used in S2" —
//!   which must be covered by predictor hints; and
//! - whether there is an **antidependency** — "a variable read by S1 and
//!   overwritten by S2" — in which case the right thread needs its own
//!   copy of the state (our interpreter always copies, so this is
//!   informational, but it is reported faithfully).

use crate::ast::{Block, Expr, Stmt};
use std::collections::BTreeSet;

/// Variables read by an expression.
pub fn expr_reads(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Lit(_) => {}
        Expr::Var(v) => {
            out.insert(v.clone());
        }
        Expr::Unary(_, e) => expr_reads(e, out),
        Expr::Binary(_, l, r) => {
            expr_reads(l, out);
            expr_reads(r, out);
        }
        Expr::Record(fields) => {
            for (_, e) in fields {
                expr_reads(e, out);
            }
        }
        Expr::Field(e, _) => expr_reads(e, out),
        Expr::List(items) => {
            for e in items {
                expr_reads(e, out);
            }
        }
        Expr::Index(e, i) => {
            expr_reads(e, out);
            expr_reads(i, out);
        }
        Expr::Len(e) => expr_reads(e, out),
    }
}

/// Read/write sets of a statement or block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RwSets {
    pub reads: BTreeSet<String>,
    pub writes: BTreeSet<String>,
}

impl RwSets {
    pub fn of_block(b: &Block) -> RwSets {
        let mut rw = RwSets::default();
        for s in b.iter() {
            rw.add_stmt(s);
        }
        rw
    }

    pub fn of_stmt(s: &Stmt) -> RwSets {
        let mut rw = RwSets::default();
        rw.add_stmt(s);
        rw
    }

    fn add_expr(&mut self, e: &Expr) {
        expr_reads(e, &mut self.reads);
    }

    fn add_block(&mut self, b: &Block) {
        for s in b.iter() {
            self.add_stmt(s);
        }
    }

    fn add_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let(v, e) | Stmt::Assign(v, e) => {
                self.add_expr(e);
                self.writes.insert(v.clone());
            }
            Stmt::Call { arg, result, .. } => {
                self.add_expr(arg);
                self.writes.insert(result.clone());
            }
            Stmt::Send { arg, .. } => self.add_expr(arg),
            Stmt::Receive { var, kind_var } => {
                self.writes.insert(var.clone());
                if let Some(k) = kind_var {
                    self.writes.insert(k.clone());
                }
            }
            Stmt::Reply { value } => self.add_expr(value),
            Stmt::Output(e) | Stmt::Compute(e) => self.add_expr(e),
            Stmt::If { cond, then_, else_ } => {
                self.add_expr(cond);
                self.add_block(then_);
                self.add_block(else_);
            }
            Stmt::While { cond, body } => {
                self.add_expr(cond);
                self.add_block(body);
            }
            Stmt::ParallelizeHint { hints, s1, s2 } => {
                for (_, e) in hints {
                    self.add_expr(e);
                }
                self.add_block(s1);
                self.add_block(s2);
            }
            Stmt::ForkJoin {
                guesses, s1, s2, ..
            } => {
                for (v, e) in guesses {
                    self.add_expr(e);
                    self.writes.insert(v.clone());
                }
                self.add_block(s1);
                self.add_block(s2);
            }
        }
    }
}

/// Analysis result for one `parallelize` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelizeAnalysis {
    /// Written in S1 ∩ read in S2 — the values to guess.
    pub passed: BTreeSet<String>,
    /// Read in S1 ∩ written in S2 — antidependencies forcing a state copy.
    pub antidependencies: BTreeSet<String>,
    pub s1: RwSets,
    pub s2: RwSets,
}

/// Analyze a pragma's S1/S2 pair.
pub fn analyze_parallelize(s1: &Block, s2: &Block) -> ParallelizeAnalysis {
    let rw1 = RwSets::of_block(s1);
    let rw2 = RwSets::of_block(s2);
    let passed = rw1.writes.intersection(&rw2.reads).cloned().collect();
    let antidependencies = rw1.reads.intersection(&rw2.writes).cloned().collect();
    ParallelizeAnalysis {
        passed,
        antidependencies,
        s1: rw1,
        s2: rw2,
    }
}

/// Does a block contain an infinite `while true { ... }` loop at any
/// depth? In the mini-CSP idiom servers loop forever and only *client*
/// processes run off the end of their program. The threaded runtime's
/// completion detection keys on exactly that: processes without such a
/// loop are the clients whose termination (plus guess resolution) ends
/// the run.
pub fn runs_forever(b: &Block) -> bool {
    use opcsp_core::Value;
    b.iter().any(|s| match s {
        Stmt::While { cond, body } => {
            matches!(cond, Expr::Lit(Value::Bool(true))) || runs_forever(body)
        }
        Stmt::If { then_, else_, .. } => runs_forever(then_) || runs_forever(else_),
        Stmt::ParallelizeHint { s1, s2, .. } => runs_forever(s1) || runs_forever(s2),
        Stmt::ForkJoin { s1, s2, .. } => runs_forever(s1) || runs_forever(s2),
        _ => false,
    })
}

/// The process names a block may `call` or `send` to, at any depth — the
/// partners the program names, in Hoare's sense. `reply` names nobody: it
/// answers whoever called. This is what `ProgramBehavior::peers` declares.
pub fn comm_targets(b: &Block, out: &mut BTreeSet<String>) {
    for s in b.iter() {
        match s {
            Stmt::Call { target, .. } | Stmt::Send { target, .. } => {
                out.insert(target.clone());
            }
            Stmt::If { then_, else_, .. } => {
                comm_targets(then_, out);
                comm_targets(else_, out);
            }
            Stmt::While { body, .. } => comm_targets(body, out),
            Stmt::ParallelizeHint { s1, s2, .. } | Stmt::ForkJoin { s1, s2, .. } => {
                comm_targets(s1, out);
                comm_targets(s2, out);
            }
            Stmt::Let(..)
            | Stmt::Assign(..)
            | Stmt::Receive { .. }
            | Stmt::Reply { .. }
            | Stmt::Output(_)
            | Stmt::Compute(_) => {}
        }
    }
}

/// Does a block contain a `parallelize`/`fork` construct (at any depth)?
/// The paper assumes S1 "does not itself contain a computation which is
/// being parallelized" (§3.2); the transform rejects such programs.
pub fn contains_parallelism(b: &Block) -> bool {
    b.iter().any(|s| match s {
        Stmt::ParallelizeHint { .. } | Stmt::ForkJoin { .. } => true,
        Stmt::If { then_, else_, .. } => contains_parallelism(then_) || contains_parallelism(else_),
        Stmt::While { body, .. } => contains_parallelism(body),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{block, BinOp};
    use crate::parser::parse_program;

    fn blocks_of_first_pragma(src: &str) -> (Block, Block) {
        let p = parse_program(src).unwrap();
        match &p.procs[0].body[0] {
            Stmt::ParallelizeHint { s1, s2, .. } => (s1.clone(), s2.clone()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn passed_variables_are_write1_read2() {
        let (s1, s2) = blocks_of_first_pragma(
            r#"process X {
                parallelize {
                    ok = call Y(1);
                    tmp = 3;
                } then {
                    if ok { output 1; }
                }
            }"#,
        );
        let a = analyze_parallelize(&s1, &s2);
        assert_eq!(a.passed, BTreeSet::from(["ok".to_string()]));
        assert!(a.antidependencies.is_empty());
        assert!(a.s1.writes.contains("tmp"));
    }

    #[test]
    fn antidependency_detected() {
        let (s1, s2) = blocks_of_first_pragma(
            r#"process X {
                parallelize {
                    y = x + 1;
                } then {
                    x = 0;
                }
            }"#,
        );
        let a = analyze_parallelize(&s1, &s2);
        assert_eq!(a.antidependencies, BTreeSet::from(["x".to_string()]));
        assert!(a.passed.is_empty());
    }

    #[test]
    fn receive_writes_its_binder() {
        let p = parse_program("process X { receive m; reply m.ok; }").unwrap();
        let rw = RwSets::of_block(&p.procs[0].body);
        assert!(rw.writes.contains("m"));
        assert!(rw.reads.contains("m"));
    }

    #[test]
    fn control_flow_unions_branches() {
        let p = parse_program("process X { if c { a = 1; } else { b = d; } while e { f = 2; } }")
            .unwrap();
        let rw = RwSets::of_block(&p.procs[0].body);
        assert_eq!(
            rw.reads,
            BTreeSet::from(["c".into(), "d".into(), "e".into()])
        );
        assert_eq!(
            rw.writes,
            BTreeSet::from(["a".into(), "b".into(), "f".into()])
        );
    }

    #[test]
    fn infinite_server_loops_detected() {
        let p = parse_program(
            r#"process S { while true { receive q; reply true; } }
               process C { x = call S(1) : "C1"; output x; }
               process N { while more { receive q; reply true; } }"#,
        )
        .unwrap();
        assert!(runs_forever(&p.procs[0].body), "canonical server loop");
        assert!(!runs_forever(&p.procs[1].body), "straight-line client");
        assert!(
            !runs_forever(&p.procs[2].body),
            "a data-dependent while is not an infinite loop"
        );
    }

    #[test]
    fn comm_targets_are_calls_and_sends_at_any_depth() {
        let p = parse_program(
            r#"process X {
                if c { a = call A(1); } else { while d { send B(2); } }
                parallelize { ok = call C(3); } then { if ok { send D(4); } }
                receive q; reply q;
            }"#,
        )
        .unwrap();
        let mut names = BTreeSet::new();
        comm_targets(&p.procs[0].body, &mut names);
        assert_eq!(
            names,
            BTreeSet::from(["A", "B", "C", "D"].map(String::from))
        );
    }

    #[test]
    fn nested_parallelism_detected() {
        let p = parse_program("process X { while t { parallelize { a = 1; } then { b = a; } } }")
            .unwrap();
        assert!(contains_parallelism(&p.procs[0].body));
        let empty = block(vec![Stmt::Assign(
            "x".into(),
            Expr::bin(BinOp::Add, Expr::lit(1i64), Expr::lit(2i64)),
        )]);
        assert!(!contains_parallelism(&empty));
    }
}
