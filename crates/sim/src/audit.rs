//! Trace auditing: structural invariants every execution must satisfy,
//! checked post-hoc over the recorded [`Trace`]. Used by tests as a
//! belt-and-braces validator alongside Theorem-1 equivalence.
//!
//! Invariants:
//! 1. **Causal delivery** — every `Deliver` is preceded by a matching
//!    `Send` (same label, route) at an earlier or equal time, and no send
//!    is consumed more often than it was sent.
//! 2. **Commit/abort exclusivity** — no guess both commits and aborts at
//!    the same process.
//! 3. **Buffered-output release order** — a buffered `External` release
//!    only happens after some commit at that process.
//! 4. **Fork before resolution** — every commit/abort of a guess follows
//!    its fork (at the owner).
//! 5. **Time monotonicity** — trace event times never decrease.
//!
//! An empty trace is a violation of its own: a run keeps its events only
//! when asked (`SimConfig::record`), and an audit of a run that kept none
//! would pass without having looked at anything.

use crate::trace::{Trace, TraceEvent};
use opcsp_core::{GuessId, ProcessId};
use std::collections::{BTreeMap, BTreeSet};

/// An audit violation, with enough context to debug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub detail: String,
}

/// Audit a trace; returns all violations found (empty = clean).
pub fn audit_trace(trace: &Trace) -> Vec<Violation> {
    let mut v = Vec::new();
    if trace.events.is_empty() {
        v.push(Violation {
            rule: "recorded",
            detail: "no events: the run kept no trace (SimConfig::record)".into(),
        });
    }
    check_time_monotonicity(trace, &mut v);
    check_causal_delivery(trace, &mut v);
    check_resolution_exclusivity(trace, &mut v);
    check_fork_before_resolution(trace, &mut v);
    check_buffered_release_after_commit(trace, &mut v);
    v
}

/// Assert-style convenience for tests.
pub fn assert_audit_clean(trace: &Trace) {
    let v = audit_trace(trace);
    assert!(v.is_empty(), "trace audit violations: {v:#?}");
}

fn check_time_monotonicity(trace: &Trace, out: &mut Vec<Violation>) {
    let mut last = 0;
    for ev in trace.iter() {
        let t = ev.time();
        if t < last {
            out.push(Violation {
                rule: "time-monotonicity",
                detail: format!("event at t={t} after t={last}: {ev:?}"),
            });
        }
        last = last.max(t);
    }
}

fn check_causal_delivery(trace: &Trace, out: &mut Vec<Violation>) {
    // Multiset of outstanding sends keyed by (from, to, label).
    let mut outstanding: BTreeMap<(ProcessId, ProcessId, opcsp_core::Label), i64> = BTreeMap::new();
    for ev in trace.iter() {
        match ev {
            TraceEvent::Send {
                from, to, label, ..
            } => {
                *outstanding
                    .entry((from.process, *to, label.clone()))
                    .or_insert(0) += 1;
            }
            TraceEvent::Deliver {
                to, from, label, t, ..
            } => {
                let k = (*from, to.process, label.clone());
                let c = outstanding.entry(k.clone()).or_insert(0);
                // A redelivery after rollback consumes the same send again;
                // the send side stays outstanding as long as the earlier
                // consumption was undone — which the trace does not encode
                // directly, so redeliveries are tolerated as long as the
                // message was EVER sent.
                if *c <= 0
                    && !trace.iter().any(|e| {
                        matches!(
                            e,
                            TraceEvent::Send { from: f, to: tt, label: l, t: st, .. }
                                if f.process == k.0 && *tt == k.1 && l == &k.2 && st <= t
                        )
                    })
                {
                    out.push(Violation {
                        rule: "causal-delivery",
                        detail: format!("deliver of {label} {from}→{to} with no prior send"),
                    });
                }
                *c -= 1;
            }
            _ => {}
        }
    }
}

fn check_resolution_exclusivity(trace: &Trace, out: &mut Vec<Violation>) {
    let mut committed: BTreeSet<(ProcessId, GuessId)> = BTreeSet::new();
    let mut aborted: BTreeSet<(ProcessId, GuessId)> = BTreeSet::new();
    for ev in trace.iter() {
        match ev {
            TraceEvent::Commit { at, guess, .. } => {
                committed.insert((*at, *guess));
            }
            TraceEvent::Abort { at, guess, .. } => {
                aborted.insert((*at, *guess));
            }
            _ => {}
        }
    }
    for k in committed.intersection(&aborted) {
        out.push(Violation {
            rule: "resolution-exclusivity",
            detail: format!("guess {} both committed and aborted at {}", k.1, k.0),
        });
    }
}

fn check_fork_before_resolution(trace: &Trace, out: &mut Vec<Violation>) {
    let mut forked: BTreeMap<GuessId, u64> = BTreeMap::new();
    for ev in trace.iter() {
        match ev {
            TraceEvent::Fork { guess, t, .. } => {
                forked.entry(*guess).or_insert(*t);
            }
            // Only meaningful at the owner (others learn later).
            TraceEvent::Commit { at, guess, t } | TraceEvent::Abort { at, guess, t }
                if *at == guess.process =>
            {
                match forked.get(guess) {
                    Some(ft) if ft <= t => {}
                    Some(ft) => out.push(Violation {
                        rule: "fork-before-resolution",
                        detail: format!("{guess} resolved at {t} before fork at {ft}"),
                    }),
                    None => out.push(Violation {
                        rule: "fork-before-resolution",
                        detail: format!("{guess} resolved at {t} but never forked"),
                    }),
                }
            }
            _ => {}
        }
    }
}

fn check_buffered_release_after_commit(trace: &Trace, out: &mut Vec<Violation>) {
    let mut commits_seen: BTreeSet<ProcessId> = BTreeSet::new();
    for ev in trace.iter() {
        match ev {
            TraceEvent::Commit { at, .. } => {
                commits_seen.insert(*at);
            }
            TraceEvent::External {
                from,
                buffered: true,
                t,
                ..
            } if !commits_seen.contains(from) => {
                out.push(Violation {
                    rule: "buffered-release-after-commit",
                    detail: format!(
                        "buffered output released at {from} t={t} before any commit there"
                    ),
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opcsp_core::{Guard, MsgId, ThreadId, Value};

    fn tid(p: u32) -> ThreadId {
        ThreadId {
            process: ProcessId(p),
            index: 0,
        }
    }

    #[test]
    fn clean_send_deliver_passes() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::Send {
            t: 0,
            msg: MsgId(0),
            from: tid(0),
            to: ProcessId(1),
            label: "C1".into(),
            guard: Guard::empty(),
        });
        tr.push(TraceEvent::Deliver {
            t: 10,
            msg: MsgId(0),
            to: tid(1),
            from: ProcessId(0),
            label: "C1".into(),
            guard: Guard::empty(),
        });
        assert!(audit_trace(&tr).is_empty());
    }

    #[test]
    fn deliver_without_send_is_flagged() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::Deliver {
            t: 10,
            msg: MsgId(0),
            to: tid(1),
            from: ProcessId(0),
            label: "GHOST".into(),
            guard: Guard::empty(),
        });
        let v = audit_trace(&tr);
        assert!(v.iter().any(|x| x.rule == "causal-delivery"), "{v:?}");
    }

    #[test]
    fn double_resolution_is_flagged() {
        let g = GuessId::first(ProcessId(0), 1);
        let mut tr = Trace::default();
        tr.push(TraceEvent::Fork {
            t: 0,
            guess: g,
            left: tid(0),
            right: tid(0),
        });
        tr.push(TraceEvent::Commit {
            t: 1,
            at: ProcessId(0),
            guess: g,
        });
        tr.push(TraceEvent::Abort {
            t: 2,
            at: ProcessId(0),
            guess: g,
        });
        let v = audit_trace(&tr);
        assert!(
            v.iter().any(|x| x.rule == "resolution-exclusivity"),
            "{v:?}"
        );
    }

    #[test]
    fn resolution_without_fork_is_flagged() {
        let g = GuessId::first(ProcessId(0), 1);
        let mut tr = Trace::default();
        tr.push(TraceEvent::Commit {
            t: 1,
            at: ProcessId(0),
            guess: g,
        });
        let v = audit_trace(&tr);
        assert!(
            v.iter().any(|x| x.rule == "fork-before-resolution"),
            "{v:?}"
        );
    }

    #[test]
    fn early_buffered_release_is_flagged() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::External {
            t: 5,
            from: ProcessId(0),
            payload: Value::Int(1),
            buffered: true,
        });
        let v = audit_trace(&tr);
        assert!(
            v.iter().any(|x| x.rule == "buffered-release-after-commit"),
            "{v:?}"
        );
    }

    #[test]
    fn time_regression_is_flagged() {
        let g = GuessId::first(ProcessId(0), 1);
        let mut tr = Trace::default();
        tr.push(TraceEvent::Fork {
            t: 10,
            guess: g,
            left: tid(0),
            right: tid(0),
        });
        tr.push(TraceEvent::Commit {
            t: 5,
            at: ProcessId(0),
            guess: g,
        });
        let v = audit_trace(&tr);
        assert!(v.iter().any(|x| x.rule == "time-monotonicity"), "{v:?}");
    }

    #[test]
    fn a_run_that_kept_no_trace_is_not_clean() {
        let v = audit_trace(&Trace::default());
        assert!(v.iter().any(|x| x.rule == "recorded"), "{v:?}");
    }
}
