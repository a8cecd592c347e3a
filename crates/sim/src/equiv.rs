//! Theorem 1 checking: "an optimistic parallelization of a distributed
//! system will yield the same partial traces as the pessimistic
//! computation."
//!
//! The observable events are the committed messages sent and received by
//! each process plus its released external outputs, in *logical* order.
//! Within a process the logical order is the right-branching fork order:
//! thread 0's events, then thread 1's (its continuation), and so on — which
//! is exactly how every engine's committed logs concatenate them
//! ([`crate::engine::SimResult::logs`], and the runtime's too). The
//! pessimistic run executes everything on thread 0, giving the reference
//! sequence.
//!
//! Every oracle here reads a run through [`Outcome`], so a run on any
//! engine — the simulator, real threads, a socket split — is replayed on
//! the pessimistic simulator the same way.

use crate::driver::{DeliverySchedule, ObsKind, Observable};
use crate::engine::SimResult;
use opcsp_core::{ProcessId, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A finished run on any engine, as a Theorem-1 oracle reads it.
pub trait Outcome {
    /// `Err` unless the run ended on its own with every guess resolved.
    fn ended(&self) -> Result<(), String>;
    /// Per-process committed observable logs, in logical (fork-index)
    /// order.
    fn logs(&self) -> &BTreeMap<ProcessId, Vec<Observable>>;
    /// The released externals, in release order.
    fn external(&self) -> Vec<(ProcessId, Value)>;
}

impl Outcome for SimResult {
    fn ended(&self) -> Result<(), String> {
        if !self.unresolved.is_empty() {
            return Err(format!("unresolved guesses: {:?}", self.unresolved));
        }
        if self.truncated {
            return Err("run truncated (max_events)".into());
        }
        Ok(())
    }
    fn logs(&self) -> &BTreeMap<ProcessId, Vec<Observable>> {
        &self.logs
    }
    fn external(&self) -> Vec<(ProcessId, Value)> {
        self.external
            .iter()
            .map(|(_, p, v)| (*p, v.clone()))
            .collect()
    }
}

/// Outcome of comparing an optimistic run against the pessimistic
/// reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    pub equivalent: bool,
    pub mismatches: Vec<Mismatch>,
}

impl EquivReport {
    /// The earliest log mismatch (lowest event index; ties by process id)
    /// — the forensics anchor — or, when the logs agree, the earliest
    /// release mismatch.
    pub fn first(&self) -> Option<&Mismatch> {
        self.mismatches
            .iter()
            .min_by_key(|m| (m.released, m.position, m.process))
    }

    /// Render all mismatches with process names substituted (fall back to
    /// the letter name when a process is not in the map).
    pub fn render(&self, names: &BTreeMap<ProcessId, String>) -> String {
        let mut out = String::new();
        for m in &self.mismatches {
            out.push_str(&m.render(names));
            out.push('\n');
        }
        out
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    pub process: ProcessId,
    /// False: `position` indexes the process's committed observable log.
    /// True: it indexes the process's released externals, in release
    /// order, and both sides are `Observable::Output`s.
    pub released: bool,
    pub position: usize,
    pub pessimistic: Option<Observable>,
    pub optimistic: Option<Observable>,
}

impl Mismatch {
    pub fn render(&self, names: &BTreeMap<ProcessId, String>) -> String {
        let name = |p: ProcessId| {
            names
                .get(&p)
                .cloned()
                .unwrap_or_else(|| p.to_string())
        };
        let side = |o: &Option<Observable>| match o {
            Some(Observable::Sent { to, kind, payload }) => {
                format!("sent {kind} {payload} → {}", name(*to))
            }
            Some(Observable::Received {
                from,
                kind,
                payload,
            }) => format!("recv {kind} {payload} ← {}", name(*from)),
            Some(Observable::Output { payload }) => format!("out {payload}"),
            None if self.released => "(nothing released)".to_string(),
            None => "(log ended)".to_string(),
        };
        format!(
            "{} {} #{}: pessimistic `{}` vs optimistic `{}`",
            name(self.process),
            if self.released { "release" } else { "event" },
            self.position,
            side(&self.pessimistic),
            side(&self.optimistic),
        )
    }
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(&BTreeMap::new()))
    }
}

/// Compare two runs process by process: their committed observable logs,
/// and their released externals in release order. (Not in the global
/// release order: `kv`'s differs even between two simulator runs.) The
/// externals are compared apart from the logs because they travel their
/// own path — an engine could commit an output once and release it twice.
pub fn check_equivalence(pessimistic: &impl Outcome, optimistic: &impl Outcome) -> EquivReport {
    let mut mismatches = Vec::new();
    diff_by_process(
        pessimistic.logs(),
        optimistic.logs(),
        false,
        &mut mismatches,
    );
    diff_by_process(
        &released(pessimistic),
        &released(optimistic),
        true,
        &mut mismatches,
    );
    EquivReport {
        equivalent: mismatches.is_empty(),
        mismatches,
    }
}

/// A run's released externals, per process in release order.
fn released(run: &impl Outcome) -> BTreeMap<ProcessId, Vec<Observable>> {
    let mut out: BTreeMap<ProcessId, Vec<Observable>> = BTreeMap::new();
    for (p, payload) in run.external() {
        out.entry(p)
            .or_default()
            .push(Observable::Output { payload });
    }
    out
}

fn diff_by_process(
    pessimistic: &BTreeMap<ProcessId, Vec<Observable>>,
    optimistic: &BTreeMap<ProcessId, Vec<Observable>>,
    released: bool,
    mismatches: &mut Vec<Mismatch>,
) {
    let procs: Vec<ProcessId> = pessimistic
        .keys()
        .chain(optimistic.keys())
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for p in procs {
        let empty = Vec::new();
        let a = pessimistic.get(&p).unwrap_or(&empty);
        let b = optimistic.get(&p).unwrap_or(&empty);
        let n = a.len().max(b.len());
        for i in 0..n {
            let ea = a.get(i);
            let eb = b.get(i);
            if ea != eb {
                mismatches.push(Mismatch {
                    process: p,
                    released,
                    position: i,
                    pessimistic: ea.cloned(),
                    optimistic: eb.cloned(),
                });
            }
        }
    }
}

/// Extract a committed run's receive schedule: for each process, the peer
/// order of its committed non-return receives. This is the only delivery
/// freedom the engine has (returns match their call; everything else is
/// deterministic given the receive order), so replaying it through the
/// pessimistic engine reconstructs the unique sequential execution the
/// optimistic run claims to equal.
pub fn committed_schedule(result: &impl Outcome) -> DeliverySchedule {
    let mut sched = DeliverySchedule::new();
    for (&p, log) in result.logs() {
        let order: Vec<ProcessId> = log
            .iter()
            .filter_map(|ev| match ev {
                Observable::Received { from, kind, .. } if *kind != ObsKind::Return => {
                    Some(*from)
                }
                _ => None,
            })
            .collect();
        sched.insert(p, order);
    }
    sched
}

/// Theorem-1 verdict for an optimistic run against its pessimistic
/// reference.
///
/// Theorem 1 (§5) promises the committed behavior equals *a* sequential
/// execution — not the particular one the same-seed pessimistic run chose.
/// At a fan-in receive point, which sender's message arrives first is legal
/// CSP nondeterminism, so a strict positional comparison can cry wolf. The
/// sound oracle: extract the optimistic run's committed receive schedule
/// and replay it through the sequential engine; Theorem 1 holds iff that
/// sequential execution reproduces the optimistic logs exactly.
#[derive(Debug)]
pub enum Theorem1Verdict {
    /// Strictly identical to the same-seed pessimistic run.
    Identical,
    /// Differs from the reference, but the committed schedule replays to
    /// identical logs on the sequential engine: the difference is legal
    /// merge nondeterminism. `strict` records where the runs differed.
    EquivalentModuloMergeOrder { strict: EquivReport },
    /// No sequential execution follows the committed schedule to the same
    /// logs — a genuine Theorem-1 violation.
    Violation {
        strict: EquivReport,
        /// Mismatches between the schedule replay and the optimistic run.
        replay: EquivReport,
        /// The replay run itself, for forensics.
        replay_result: Box<SimResult>,
    },
}

impl Theorem1Verdict {
    pub fn holds(&self) -> bool {
        !matches!(self, Theorem1Verdict::Violation { .. })
    }
}

/// Check Theorem 1: strict comparison first, then the committed-schedule
/// replay oracle ([`check_schedule_replay`]).
pub fn check_theorem1(
    pessimistic: &impl Outcome,
    optimistic: &impl Outcome,
    rerun: impl FnOnce(Arc<DeliverySchedule>) -> SimResult,
) -> Theorem1Verdict {
    let strict = check_equivalence(pessimistic, optimistic);
    if strict.equivalent {
        return Theorem1Verdict::Identical;
    }
    let (replay, replay_result) = check_schedule_replay(optimistic, rerun);
    if replay.equivalent {
        Theorem1Verdict::EquivalentModuloMergeOrder { strict }
    } else {
        Theorem1Verdict::Violation {
            strict,
            replay,
            replay_result: Box::new(replay_result),
        }
    }
}

/// The replay oracle on its own: force `run`'s committed receive schedule
/// through the pessimistic simulator and compare the replay with `run`
/// ([`check_equivalence`]). `run` may be a run on any engine; `rerun` must
/// execute the same system pessimistically on the simulator under the
/// given delivery schedule — see `SimConfig::forced_order`. Returns the
/// report (replay as the pessimistic side) and the replay run itself.
pub fn check_schedule_replay(
    run: &impl Outcome,
    rerun: impl FnOnce(Arc<DeliverySchedule>) -> SimResult,
) -> (EquivReport, SimResult) {
    let replay = rerun(Arc::new(committed_schedule(run)));
    (check_equivalence(&replay, run), replay)
}

/// Message conservation: at quiescence, the committed multiset of sends
/// from A to B equals the committed multiset of receives at B from A —
/// no committed message vanishes, none is received twice, and nothing is
/// received that was never (commitedly) sent. Rollbacks must erase both
/// sides symmetrically.
pub fn check_conservation(result: &SimResult) -> Result<(), String> {
    type Key = (ProcessId, ProcessId, ObsKind, Value);
    let mut sent: BTreeMap<Key, i64> = BTreeMap::new();
    for (&p, log) in &result.logs {
        for ev in log {
            match ev {
                Observable::Sent { to, kind, payload } => {
                    *sent.entry((p, *to, *kind, payload.clone())).or_insert(0) += 1;
                }
                Observable::Received {
                    from,
                    kind,
                    payload,
                } => {
                    *sent.entry((*from, p, *kind, payload.clone())).or_insert(0) -= 1;
                }
                Observable::Output { .. } => {}
            }
        }
    }
    let imbalance: Vec<String> = sent
        .iter()
        .filter(|(_, &c)| c != 0)
        .map(|((f, t, k, v), c)| format!("{f}→{t} {k:?} {v}: {c:+}"))
        .collect();
    if imbalance.is_empty() {
        Ok(())
    } else {
        Err(imbalance.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ObsKind;
    use opcsp_core::Value;
    use std::collections::BTreeMap;

    fn result_with_log(log: Vec<Observable>) -> SimResult {
        result_with_logs(vec![(ProcessId(0), log)])
    }

    fn result_with_logs(entries: Vec<(ProcessId, Vec<Observable>)>) -> SimResult {
        let mut logs = BTreeMap::new();
        for (p, log) in entries {
            logs.insert(p, log);
        }
        SimResult {
            completion: 0,
            process_done: BTreeMap::new(),
            held: BTreeMap::new(),
            trace: crate::trace::Trace::default(),
            external: Vec::new(),
            logs,
            unresolved: Vec::new(),
            truncated: false,
            provenance: BTreeMap::new(),
            latency_draws: Vec::new(),
            resolutions: BTreeMap::new(),
            undelivered: BTreeMap::new(),
            unused_overrides: Vec::new(),
            telemetry: opcsp_core::Telemetry::default(),
        }
    }

    #[test]
    fn identical_logs_are_equivalent() {
        let log = vec![
            Observable::Sent {
                to: ProcessId(1),
                kind: ObsKind::Call,
                payload: Value::Int(1),
            },
            Observable::Received {
                from: ProcessId(1),
                kind: ObsKind::Return,
                payload: Value::Bool(true),
            },
        ];
        let a = result_with_log(log.clone());
        let b = result_with_log(log);
        assert!(check_equivalence(&a, &b).equivalent);
    }

    #[test]
    fn payload_divergence_is_reported() {
        let a = result_with_log(vec![Observable::Output {
            payload: Value::Int(1),
        }]);
        let b = result_with_log(vec![Observable::Output {
            payload: Value::Int(2),
        }]);
        let rep = check_equivalence(&a, &b);
        assert!(!rep.equivalent);
        assert_eq!(rep.mismatches.len(), 1);
        assert_eq!(rep.mismatches[0].position, 0);
    }

    #[test]
    fn length_divergence_is_reported() {
        let a = result_with_log(vec![Observable::Output {
            payload: Value::Int(1),
        }]);
        let b = result_with_log(vec![]);
        let rep = check_equivalence(&a, &b);
        assert!(!rep.equivalent);
        assert_eq!(rep.mismatches[0].optimistic, None);
    }

    #[test]
    fn mismatch_render_names_process_index_and_both_sides() {
        let a = result_with_log(vec![Observable::Received {
            from: ProcessId(1),
            kind: ObsKind::Call,
            payload: Value::Int(102),
        }]);
        let b = result_with_log(vec![Observable::Received {
            from: ProcessId(2),
            kind: ObsKind::Call,
            payload: Value::Int(2),
        }]);
        let rep = check_equivalence(&a, &b);
        let names = BTreeMap::from([
            (ProcessId(0), "Board".to_string()),
            (ProcessId(1), "Bob".to_string()),
            (ProcessId(2), "Alice".to_string()),
        ]);
        let line = rep.mismatches[0].render(&names);
        assert_eq!(
            line,
            "Board event #0: pessimistic `recv call 102 ← Bob` vs optimistic `recv call 2 ← Alice`"
        );
        // Display (no name map) falls back to the letter names.
        assert_eq!(
            rep.mismatches[0].to_string(),
            "X event #0: pessimistic `recv call 102 ← Y` vs optimistic `recv call 2 ← Z`"
        );
    }

    #[test]
    fn length_divergence_render_marks_ended_log() {
        let a = result_with_log(vec![Observable::Output {
            payload: Value::Int(1),
        }]);
        let b = result_with_log(vec![]);
        let rep = check_equivalence(&a, &b);
        assert_eq!(
            rep.mismatches[0].to_string(),
            "X event #0: pessimistic `out 1` vs optimistic `(log ended)`"
        );
    }

    #[test]
    fn first_mismatch_is_earliest_by_index_then_process() {
        let mk = |p: u32, n: i64| {
            (
                ProcessId(p),
                vec![Observable::Output {
                    payload: Value::Int(n),
                }],
            )
        };
        let a = result_with_logs(vec![mk(0, 1), mk(1, 2)]);
        let b = result_with_logs(vec![mk(0, 9), mk(1, 9)]);
        let rep = check_equivalence(&a, &b);
        assert_eq!(rep.first().unwrap().process, ProcessId(0));
    }

    #[test]
    fn committed_schedule_extracts_non_return_receive_order() {
        let log = vec![
            Observable::Received {
                from: ProcessId(1),
                kind: ObsKind::Call,
                payload: Value::Int(100),
            },
            Observable::Sent {
                to: ProcessId(1),
                kind: ObsKind::Return,
                payload: Value::Bool(true),
            },
            Observable::Received {
                from: ProcessId(2),
                kind: ObsKind::Return,
                payload: Value::Bool(true),
            },
            Observable::Received {
                from: ProcessId(2),
                kind: ObsKind::Send,
                payload: Value::Int(0),
            },
        ];
        let r = result_with_log(log);
        let sched = committed_schedule(&r);
        // Return receives are excluded; calls and sends are kept in order.
        assert_eq!(sched[&ProcessId(0)], vec![ProcessId(1), ProcessId(2)]);
    }

    #[test]
    fn theorem1_identical_short_circuits_without_rerun() {
        let log = vec![Observable::Output {
            payload: Value::Int(1),
        }];
        let a = result_with_log(log.clone());
        let b = result_with_log(log);
        let v = check_theorem1(&a, &b, |_| panic!("rerun must not be called"));
        assert!(matches!(v, Theorem1Verdict::Identical));
        assert!(v.holds());
    }

    #[test]
    fn theorem1_replay_match_is_equivalent_modulo_merge_order() {
        let a = result_with_log(vec![Observable::Output {
            payload: Value::Int(1),
        }]);
        let b = result_with_log(vec![Observable::Output {
            payload: Value::Int(2),
        }]);
        let b_clone = result_with_log(vec![Observable::Output {
            payload: Value::Int(2),
        }]);
        let v = check_theorem1(&a, &b, move |_| b_clone);
        assert!(matches!(
            v,
            Theorem1Verdict::EquivalentModuloMergeOrder { .. }
        ));
        assert!(v.holds());
    }

    #[test]
    fn theorem1_replay_mismatch_is_violation() {
        let a = result_with_log(vec![Observable::Output {
            payload: Value::Int(1),
        }]);
        let b = result_with_log(vec![Observable::Output {
            payload: Value::Int(2),
        }]);
        let replay = result_with_log(vec![Observable::Output {
            payload: Value::Int(3),
        }]);
        let v = check_theorem1(&a, &b, move |_| replay);
        assert!(!v.holds());
        match v {
            Theorem1Verdict::Violation { replay, .. } => {
                assert!(!replay.equivalent);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }
}
