//! A resumable interpreter for the mini CSP language, implementing
//! `opcsp_sim::Behavior`.
//!
//! The interpreter state — variable store plus an explicit continuation
//! stack — is `Clone`, which is what makes the paper's checkpoint/rollback
//! machinery real: the engine snapshots the whole state at interval
//! boundaries and restores it on aborts; the fork effect hands the right
//! thread an independent copy (so antidependencies are handled by
//! construction).

use crate::analyze::comm_targets;
use crate::ast::{BinOp, Block, Expr, ProcDef, Stmt, UnOp};
use opcsp_core::{ProcessId, Value};
use opcsp_sim::{Behavior, BehaviorState, Effect, Resume};
use std::collections::{BTreeMap, BTreeSet};

/// Pure statements executed per `step` before yielding a `Compute` effect,
/// so tight loops cannot starve the event loop.
const FUEL: u32 = 64;

/// One continuation frame.
#[derive(Debug, Clone)]
enum Frame {
    /// Executing `stmts`, next statement at `idx`.
    Block { stmts: Block, idx: usize },
    /// A `while` loop: re-evaluate `cond`, run `body`, repeat.
    Loop { cond: Expr, body: Block },
    /// Left-thread marker at the end of S1: emit the join, then (on
    /// sequential resume) run `s2`.
    JoinMarker { vars: Vec<String>, s2: Block },
}

/// What the thread is waiting for (why `step` last returned).
#[derive(Debug, Clone, Default)]
enum Waiting {
    #[default]
    None,
    /// `receive var` — a message payload (and optionally its kind).
    Msg {
        var: String,
        kind_var: Option<String>,
    },
    /// `var = call ...` — a return payload.
    Return { var: String },
    /// A `fork` effect was emitted; awaiting the side assignment.
    Fork {
        vars: Vec<String>,
        s1: Block,
        s2: Block,
    },
    /// A `JoinLeft` effect was emitted; awaiting the verdict.
    Join,
}

/// Interpreter state: store + continuation.
#[derive(Debug, Clone)]
pub struct InterpState {
    store: BTreeMap<String, Value>,
    frames: Vec<Frame>,
    waiting: Waiting,
}

impl InterpState {
    fn new(body: Block) -> Self {
        InterpState {
            store: BTreeMap::new(),
            frames: vec![Frame::Block {
                stmts: body,
                idx: 0,
            }],
            waiting: Waiting::None,
        }
    }

    /// Peek a variable (tests / verifier helpers).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.store.get(name)
    }
}

/// A process definition plus the name→id bindings of the system it runs
/// in; implements [`Behavior`].
pub struct ProgramBehavior {
    proc: ProcDef,
    bindings: BTreeMap<String, ProcessId>,
}

impl ProgramBehavior {
    pub fn new(proc: ProcDef, bindings: BTreeMap<String, ProcessId>) -> Self {
        ProgramBehavior { proc, bindings }
    }

    fn resolve(&self, name: &str) -> ProcessId {
        *self
            .bindings
            .get(name)
            .unwrap_or_else(|| panic!("{}: unbound process name `{name}`", self.proc.name))
    }

    fn fail(&self, msg: impl std::fmt::Display) -> ! {
        panic!("{}: {msg}", self.proc.name)
    }

    // -- expression evaluation -------------------------------------------

    fn eval(&self, store: &BTreeMap<String, Value>, e: &Expr) -> Value {
        match e {
            Expr::Lit(v) => v.clone(),
            Expr::Var(name) => store
                .get(name)
                .cloned()
                .unwrap_or_else(|| self.fail(format_args!("undefined variable `{name}`"))),
            Expr::Unary(op, e) => {
                let v = self.eval(store, e);
                match (op, v) {
                    (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                    (UnOp::Neg, Value::Int(i)) => Value::Int(-i),
                    (op, v) => self.fail(format_args!("bad operand {v} for {op:?}")),
                }
            }
            Expr::Binary(op, l, r) => {
                let lv = self.eval(store, l);
                // Short-circuit logic operators.
                match (op, &lv) {
                    (BinOp::And, Value::Bool(false)) => return Value::Bool(false),
                    (BinOp::Or, Value::Bool(true)) => return Value::Bool(true),
                    _ => {}
                }
                let rv = self.eval(store, r);
                self.eval_binop(*op, lv, rv)
            }
            Expr::Record(fields) => {
                Value::record(fields.iter().map(|(k, e)| (k.clone(), self.eval(store, e))))
            }
            Expr::Field(e, name) => {
                let v = self.eval(store, e);
                v.field(name)
                    .cloned()
                    .unwrap_or_else(|| self.fail(format_args!("no field `{name}` in {v}")))
            }
            Expr::List(items) => Value::list(items.iter().map(|e| self.eval(store, e)).collect()),
            Expr::Index(e, i) => {
                let v = self.eval(store, e);
                let idx = self
                    .eval(store, i)
                    .as_int()
                    .unwrap_or_else(|| self.fail("index must be an int"));
                match v.as_list() {
                    Some(items) if idx >= 0 && (idx as usize) < items.len() => {
                        items[idx as usize].clone()
                    }
                    Some(items) => self.fail(format_args!(
                        "index {idx} out of range (len {})",
                        items.len()
                    )),
                    None => self.fail(format_args!("cannot index into {v}")),
                }
            }
            Expr::Len(e) => {
                let v = self.eval(store, e);
                match &v {
                    Value::List(l) => Value::Int(l.len() as i64),
                    Value::Str(s) => Value::Int(s.len() as i64),
                    other => self.fail(format_args!("len of non-list {other}")),
                }
            }
        }
    }

    fn eval_binop(&self, op: BinOp, l: Value, r: Value) -> Value {
        use BinOp::*;
        match (op, &l, &r) {
            (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
            (Add, Value::Str(a), Value::Str(b)) => Value::str(format!("{a}{b}")),
            (Add, Value::List(a), Value::List(b)) => {
                Value::list(a.iter().chain(b.iter()).cloned().collect())
            }
            (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
            (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
            (Div, Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    self.fail("division by zero")
                } else {
                    Value::Int(a / b)
                }
            }
            (Mod, Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    self.fail("modulo by zero")
                } else {
                    Value::Int(a % b)
                }
            }
            (Eq, a, b) => Value::Bool(a == b),
            (Ne, a, b) => Value::Bool(a != b),
            (Lt, Value::Int(a), Value::Int(b)) => Value::Bool(a < b),
            (Le, Value::Int(a), Value::Int(b)) => Value::Bool(a <= b),
            (Gt, Value::Int(a), Value::Int(b)) => Value::Bool(a > b),
            (Ge, Value::Int(a), Value::Int(b)) => Value::Bool(a >= b),
            (And, Value::Bool(a), Value::Bool(b)) => Value::Bool(*a && *b),
            (Or, Value::Bool(a), Value::Bool(b)) => Value::Bool(*a || *b),
            (op, a, b) => self.fail(format_args!("bad operands {a} {op} {b}")),
        }
    }

    // -- resume handling ---------------------------------------------------

    fn apply_resume(&self, st: &mut InterpState, resume: Resume) {
        let waiting = std::mem::take(&mut st.waiting);
        match (waiting, resume) {
            (Waiting::None, Resume::Start | Resume::Continue) => {}
            (Waiting::Msg { var, kind_var }, Resume::Msg(env)) => {
                if let Some(k) = kind_var {
                    let kind = match env.kind {
                        opcsp_core::DataKind::Call(_) => "call",
                        opcsp_core::DataKind::Send => "send",
                        opcsp_core::DataKind::Return(_) => "return",
                    };
                    st.store.insert(k, Value::str(kind));
                }
                st.store.insert(var, env.payload);
            }
            (Waiting::Return { var }, Resume::Msg(env)) => {
                st.store.insert(var, env.payload);
            }
            (Waiting::Fork { vars, s1, s2 }, Resume::ForkLeft | Resume::ForkDenied) => {
                st.frames.push(Frame::JoinMarker { vars, s2 });
                st.frames.push(Frame::Block { stmts: s1, idx: 0 });
            }
            (Waiting::Fork { s2, .. }, Resume::ForkRight { guesses }) => {
                for (k, v) in guesses {
                    st.store.insert(k, v);
                }
                st.frames.push(Frame::Block { stmts: s2, idx: 0 });
            }
            (Waiting::Join, Resume::JoinSequential) => match st.frames.pop() {
                Some(Frame::JoinMarker { s2, .. }) => {
                    st.frames.push(Frame::Block { stmts: s2, idx: 0 });
                }
                other => self.fail(format_args!(
                    "JoinSequential without a join marker: {other:?}"
                )),
            },
            (_, Resume::JoinCommitted) => {
                // The right thread is the continuation; this thread ends.
                st.frames.clear();
            }
            (w, r) => self.fail(format_args!("unexpected resume {r:?} while waiting {w:?}")),
        }
    }

    // -- main loop ---------------------------------------------------------

    fn run(&self, st: &mut InterpState) -> Effect {
        let mut fuel = FUEL;
        loop {
            if fuel == 0 {
                return Effect::Compute { cost: 1 };
            }
            let top = match st.frames.last_mut() {
                None => return Effect::Done,
                Some(f) => f,
            };
            match top {
                Frame::Loop { cond, body } => {
                    let (cond, body) = (cond.clone(), body.clone());
                    if self.eval(&st.store, &cond).is_true() {
                        fuel -= 1;
                        st.frames.push(Frame::Block {
                            stmts: body,
                            idx: 0,
                        });
                    } else {
                        st.frames.pop();
                    }
                }
                Frame::JoinMarker { vars, .. } => {
                    // S1 finished: emit the join with the actual values.
                    let actual: Vec<(String, Value)> = vars
                        .iter()
                        .map(|v| {
                            (
                                v.clone(),
                                st.store.get(v).cloned().unwrap_or_else(|| {
                                    self.fail(format_args!(
                                        "passed variable `{v}` undefined at join"
                                    ))
                                }),
                            )
                        })
                        .collect();
                    st.waiting = Waiting::Join;
                    return Effect::JoinLeft { actual };
                }
                Frame::Block { stmts, idx } => {
                    if *idx >= stmts.len() {
                        st.frames.pop();
                        continue;
                    }
                    let stmt = stmts[*idx].clone();
                    *idx += 1;
                    fuel -= 1;
                    if let Some(effect) = self.exec_stmt(st, stmt) {
                        return effect;
                    }
                }
            }
        }
    }

    /// Execute one statement; `Some(effect)` yields to the engine.
    fn exec_stmt(&self, st: &mut InterpState, stmt: Stmt) -> Option<Effect> {
        match stmt {
            Stmt::Let(v, e) | Stmt::Assign(v, e) => {
                let val = self.eval(&st.store, &e);
                st.store.insert(v, val);
                None
            }
            Stmt::If { cond, then_, else_ } => {
                let b = if self.eval(&st.store, &cond).is_true() {
                    then_
                } else {
                    else_
                };
                st.frames.push(Frame::Block { stmts: b, idx: 0 });
                None
            }
            Stmt::While { cond, body } => {
                st.frames.push(Frame::Loop { cond, body });
                None
            }
            Stmt::Call {
                target,
                arg,
                result,
                label,
            } => {
                let to = self.resolve(&target);
                let payload = self.eval(&st.store, &arg);
                st.waiting = Waiting::Return { var: result };
                Some(Effect::Call { to, payload, label })
            }
            Stmt::Send { target, arg, label } => {
                let to = self.resolve(&target);
                let payload = self.eval(&st.store, &arg);
                Some(Effect::Send { to, payload, label })
            }
            Stmt::Receive { var, kind_var } => {
                st.waiting = Waiting::Msg { var, kind_var };
                Some(Effect::Receive)
            }
            Stmt::Reply { value } => {
                let payload = self.eval(&st.store, &value);
                // Empty label: the engine derives it from the call label.
                Some(Effect::Reply {
                    payload,
                    label: String::new(),
                })
            }
            Stmt::Output(e) => {
                let payload = self.eval(&st.store, &e);
                Some(Effect::External { payload })
            }
            Stmt::Compute(e) => {
                let cost = self
                    .eval(&st.store, &e)
                    .as_int()
                    .filter(|c| *c >= 0)
                    .unwrap_or_else(|| self.fail("compute cost must be a non-negative int"))
                    as u64;
                Some(Effect::Compute { cost })
            }
            Stmt::ForkJoin {
                site,
                guesses,
                s1,
                s2,
                ..
            } => {
                let vars: Vec<String> = guesses.iter().map(|(v, _)| v.clone()).collect();
                let values: Vec<(String, Value)> = guesses
                    .iter()
                    .map(|(v, e)| (v.clone(), self.eval(&st.store, e)))
                    .collect();
                st.waiting = Waiting::Fork { vars, s1, s2 };
                Some(Effect::Fork {
                    site,
                    guesses: values,
                })
            }
            Stmt::ParallelizeHint { s1, s2, .. } => {
                // Untransformed pragma: run sequentially (S1 then S2).
                st.frames.push(Frame::Block { stmts: s2, idx: 0 });
                st.frames.push(Frame::Block { stmts: s1, idx: 0 });
                None
            }
        }
    }
}

impl Behavior for ProgramBehavior {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(InterpState::new(self.proc.body.clone()))
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<InterpState>();
        self.apply_resume(st, resume);
        self.run(st)
    }

    fn name(&self) -> &str {
        &self.proc.name
    }

    /// The targets of the program's own `call` and `send` statements. An
    /// unbound name declares nothing; executing that statement fails in
    /// [`ProgramBehavior::resolve`], as it always has.
    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        let mut names = BTreeSet::new();
        comm_targets(&self.proc.body, &mut names);
        Some(
            names
                .iter()
                .filter_map(|name| self.bindings.get(name).copied())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn behavior(src: &str, name: &str) -> ProgramBehavior {
        let p = parse_program(src).unwrap();
        let bindings: BTreeMap<String, ProcessId> = p
            .procs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), ProcessId(i as u32)))
            .collect();
        ProgramBehavior::new(p.proc(name).unwrap().clone(), bindings)
    }

    fn drive_pure(b: &ProgramBehavior) -> (BehaviorState, Effect) {
        let mut st = b.init();
        let mut resume = Resume::Start;
        loop {
            match b.step(&mut st, resume) {
                Effect::Compute { .. } => resume = Resume::Continue,
                e => return (st, e),
            }
        }
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let b = behavior(
            "process A { let s = 0; let i = 1; while i <= 10 { s = s + i; i = i + 1; } }",
            "A",
        );
        let (st, eff) = drive_pure(&b);
        assert!(matches!(eff, Effect::Done));
        assert_eq!(st.get::<InterpState>().get("s"), Some(&Value::Int(55)));
    }

    #[test]
    fn if_else_branches() {
        let b = behavior(
            "process A { let x = 3; if x > 2 { let y = 1; } else { let y = 2; } }",
            "A",
        );
        let (st, _) = drive_pure(&b);
        assert_eq!(st.get::<InterpState>().get("y"), Some(&Value::Int(1)));
    }

    #[test]
    fn records_and_fields() {
        let b = behavior(
            r#"process A { let r = {a: 1 + 1, b: true}; let v = r.a * 10; }"#,
            "A",
        );
        let (st, _) = drive_pure(&b);
        assert_eq!(st.get::<InterpState>().get("v"), Some(&Value::Int(20)));
    }

    #[test]
    fn call_effect_resolves_binding_and_blocks() {
        let b = behavior(
            r#"process A { x = call B(41) : "C9"; }
               process B { receive m; reply m; }"#,
            "A",
        );
        let mut st = b.init();
        match b.step(&mut st, Resume::Start) {
            Effect::Call { to, payload, label } => {
                assert_eq!(to, ProcessId(1));
                assert_eq!(payload, Value::Int(41));
                assert_eq!(label, "C9");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn short_circuit_evaluation() {
        // `false && (1/0 == 0)` must not divide by zero.
        let b = behavior(
            "process A { let ok = false && (1 / 0 == 0); let o = true || (1 / 0 == 0); }",
            "A",
        );
        let (st, _) = drive_pure(&b);
        assert_eq!(st.get::<InterpState>().get("ok"), Some(&Value::Bool(false)));
        assert_eq!(st.get::<InterpState>().get("o"), Some(&Value::Bool(true)));
    }

    #[test]
    fn fuel_yields_compute_in_tight_loops() {
        let b = behavior(
            "process A { let i = 0; while i < 1000 { i = i + 1; } }",
            "A",
        );
        let mut st = b.init();
        // First step must yield before finishing 1000 iterations.
        match b.step(&mut st, Resume::Start) {
            Effect::Compute { cost: 1 } => {}
            other => panic!("expected a fuel yield, got {other:?}"),
        }
    }

    #[test]
    fn untransformed_pragma_runs_sequentially() {
        let b = behavior(
            "process A { parallelize guess x = 1 { x = 2; } then { let y = x; } }",
            "A",
        );
        let (st, eff) = drive_pure(&b);
        assert!(matches!(eff, Effect::Done));
        assert_eq!(st.get::<InterpState>().get("y"), Some(&Value::Int(2)));
    }

    #[test]
    #[should_panic(expected = "undefined variable")]
    fn undefined_variable_panics_with_context() {
        let b = behavior("process A { let x = nope + 1; }", "A");
        drive_pure(&b);
    }

    #[test]
    fn state_clone_is_independent() {
        let b = behavior("process A { let i = 0; while true { i = i + 1; } }", "A");
        let mut st = b.init();
        let _ = b.step(&mut st, Resume::Start);
        let snapshot = st.clone();
        let _ = b.step(&mut st, Resume::Continue);
        let advanced = st.get::<InterpState>().get("i").unwrap().as_int().unwrap();
        let snapped = snapshot
            .get::<InterpState>()
            .get("i")
            .unwrap()
            .as_int()
            .unwrap();
        assert!(advanced > snapped);
    }
}
