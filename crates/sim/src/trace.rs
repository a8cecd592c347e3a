//! Execution traces: the simulator's record of everything that happened,
//! kept only when a run is asked to record (`SimConfig::record`). It
//! re-renders the paper's time-line figures, feeds the forensics and the
//! trace audits, and cross-checks the counters the drivers keep
//! ([`SimStats`], which every run has, recorded or not).

use opcsp_core::{Control, Guard, GuessId, Label, MsgId, ProcessId, ProtoStats, ThreadId, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Virtual time, in abstract ticks.
pub type VTime = u64;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A data message left a thread.
    Send {
        t: VTime,
        /// Engine-assigned message id — joins this event with its
        /// `Deliver`/`Orphan` counterpart and the provenance log.
        msg: MsgId,
        from: ThreadId,
        to: ProcessId,
        label: Label,
        guard: Guard,
    },
    /// A data message was delivered to (consumed by) a thread.
    Deliver {
        t: VTime,
        msg: MsgId,
        to: ThreadId,
        from: ProcessId,
        label: Label,
        guard: Guard,
    },
    /// An arriving message was discarded as an orphan (§4.2.3).
    Orphan {
        t: VTime,
        msg: MsgId,
        at: ProcessId,
        label: Label,
        guess: GuessId,
    },
    /// A fork split a thread (§4.2.1).
    Fork {
        t: VTime,
        guess: GuessId,
        left: ThreadId,
        right: ThreadId,
    },
    /// A left thread verified successfully and its guess committed locally.
    JoinCommit { t: VTime, guess: GuessId },
    /// A left thread terminated with a non-empty guard (PRECEDENCE sent).
    JoinAwait {
        t: VTime,
        guess: GuessId,
        guard: Guard,
    },
    /// The verifier failed: guessed values were wrong (§2, Figure 5).
    ValueFault { t: VTime, guess: GuessId },
    /// A happens-before cycle was detected (§3, Figures 4 and 7).
    TimeFault {
        t: VTime,
        at: ProcessId,
        cycle: Vec<GuessId>,
    },
    /// A fork's timeout expired before its left thread finished (§3.2).
    Timeout { t: VTime, guess: GuessId },
    /// A guess aborted at this process (locally detected or via ABORT).
    Abort {
        t: VTime,
        at: ProcessId,
        guess: GuessId,
    },
    /// A guess committed at this process (locally or via COMMIT).
    Commit {
        t: VTime,
        at: ProcessId,
        guess: GuessId,
    },
    /// A thread rolled back to checkpoint `slot`.
    Rollback {
        t: VTime,
        thread: ThreadId,
        slot: u32,
    },
    /// A speculative thread was discarded entirely.
    Discard { t: VTime, thread: ThreadId },
    /// A control message was broadcast.
    ControlSent {
        t: VTime,
        from: ProcessId,
        ctrl: Control,
    },
    /// An external (unrollbackable) output was released (§3.2). `buffered`
    /// is true when it had to wait for its thread's guard to empty.
    External {
        t: VTime,
        from: ProcessId,
        payload: Value,
        buffered: bool,
    },
    /// A thread finished its program.
    ThreadDone { t: VTime, thread: ThreadId },
}

impl TraceEvent {
    pub fn time(&self) -> VTime {
        match self {
            TraceEvent::Send { t, .. }
            | TraceEvent::Deliver { t, .. }
            | TraceEvent::Orphan { t, .. }
            | TraceEvent::Fork { t, .. }
            | TraceEvent::JoinCommit { t, .. }
            | TraceEvent::JoinAwait { t, .. }
            | TraceEvent::ValueFault { t, .. }
            | TraceEvent::TimeFault { t, .. }
            | TraceEvent::Timeout { t, .. }
            | TraceEvent::Abort { t, .. }
            | TraceEvent::Commit { t, .. }
            | TraceEvent::Rollback { t, .. }
            | TraceEvent::Discard { t, .. }
            | TraceEvent::ControlSent { t, .. }
            | TraceEvent::External { t, .. }
            | TraceEvent::ThreadDone { t, .. } => *t,
        }
    }
}

/// Aggregate statistics of one run — the raw material of the experiment
/// tables in EXPERIMENTS.md. The drivers count every field
/// (`Driver::stats`, `Driver::counts`), whether or not the run keeps a
/// trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Protocol counters shared with the runtime (`core::telemetry`):
    /// forks, commits, aborts, rollbacks, discards, orphans, message and
    /// wire-byte counts. Accessed transparently via `Deref` — `stats.forks`
    /// reads `stats.proto.forks`.
    pub proto: ProtoStats,
    /// Simulator-only: §2/Figure-5 value faults detected at joins.
    pub value_faults: u64,
    /// Simulator-only: local + distributed time faults.
    pub time_faults: u64,
    /// Simulator-only: fork timeouts fired (§3.2 liveness).
    pub timeouts: u64,
    /// Payload bytes of data messages.
    pub data_bytes: u64,
    /// Full state snapshots taken: one per interval boundary (§3.1) and
    /// one per fork.
    pub checkpoints_taken: u64,
}

impl std::ops::Deref for SimStats {
    type Target = ProtoStats;
    fn deref(&self) -> &ProtoStats {
        &self.proto
    }
}

impl std::ops::DerefMut for SimStats {
    fn deref_mut(&mut self) -> &mut ProtoStats {
        &mut self.proto
    }
}

/// The full record of a run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
    /// What the events count, derived in [`Trace::push`]: the lifecycle
    /// counters, faults, time-outs, and one control message per broadcast.
    /// A recorded run's `World::finish` checks them against the drivers'
    /// counts; the run's figures are `SimResult::stats` alone.
    pub(crate) stats: SimStats,
}

impl Trace {
    pub fn push(&mut self, ev: TraceEvent) {
        match &ev {
            TraceEvent::Fork { .. } => self.stats.forks += 1,
            TraceEvent::JoinCommit { .. } => {}
            TraceEvent::ValueFault { .. } => self.stats.value_faults += 1,
            TraceEvent::TimeFault { .. } => self.stats.time_faults += 1,
            TraceEvent::Timeout { .. } => self.stats.timeouts += 1,
            // Count resolutions once, at the guess's owner — commit/abort
            // wave *landings* at other processes are the same resolution
            // propagating, not new ones. This matches the runtime's
            // counting, so the two engines' ProtoStats are comparable.
            TraceEvent::Abort { at, guess, .. } if *at == guess.process => {
                self.stats.aborts += 1
            }
            TraceEvent::Abort { .. } => {}
            TraceEvent::Commit { at, guess, .. } if *at == guess.process => {
                self.stats.commits += 1
            }
            TraceEvent::Commit { .. } => {}
            TraceEvent::Rollback { .. } => self.stats.rollbacks += 1,
            TraceEvent::Discard { .. } => self.stats.discarded_threads += 1,
            TraceEvent::Orphan { .. } => self.stats.orphans += 1,
            TraceEvent::ControlSent { .. } => self.stats.control_messages += 1,
            _ => {}
        }
        self.events.push(ev);
    }

    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events of one kind helper: all guesses that ever aborted.
    pub fn aborted_guesses(&self) -> Vec<GuessId> {
        let mut out = Vec::new();
        for e in &self.events {
            if let TraceEvent::Abort { guess, .. } = e {
                if !out.contains(guess) {
                    out.push(*guess);
                }
            }
        }
        out
    }

    /// All guesses that ever committed.
    pub fn committed_guesses(&self) -> Vec<GuessId> {
        let mut out = Vec::new();
        for e in &self.events {
            if let TraceEvent::Commit { guess, .. } = e {
                if !out.contains(guess) {
                    out.push(*guess);
                }
            }
        }
        out
    }

    /// Render an ASCII time-line in the spirit of the paper's figures: one
    /// column per process, one row per event time.
    pub fn render_timeline(&self, processes: &[ProcessId]) -> String {
        const COL: usize = 24;
        let mut out = String::new();
        write!(out, "{:>8} ", "t").unwrap();
        for p in processes {
            write!(out, "| {:^w$} ", p.to_string(), w = COL - 4).unwrap();
        }
        out.push('\n');
        write!(out, "{:->8}-", "").unwrap();
        for _ in processes {
            write!(out, "+{:-<w$}", "", w = COL - 1).unwrap();
        }
        out.push('\n');

        let col_of: BTreeMap<ProcessId, usize> =
            processes.iter().enumerate().map(|(i, p)| (*p, i)).collect();

        for ev in &self.events {
            let (proc, text) = match ev {
                TraceEvent::Send {
                    from,
                    to,
                    label,
                    guard,
                    ..
                } => (from.process, format!("{label}{guard} →{to}")),
                TraceEvent::Deliver {
                    to,
                    from,
                    label,
                    guard,
                    ..
                } => (to.process, format!("recv {label}{guard} ←{from}")),
                TraceEvent::Orphan {
                    at, label, guess, ..
                } => (*at, format!("drop {label} (orphan {guess})")),
                TraceEvent::Fork {
                    guess, left, right, ..
                } => (left.process, format!("fork {guess} → #{}", right.index)),
                TraceEvent::JoinCommit { guess, .. } => (guess.process, format!("join ✓ {guess}")),
                TraceEvent::JoinAwait { guess, guard, .. } => {
                    (guess.process, format!("join ? {guess} {guard}"))
                }
                TraceEvent::ValueFault { guess, .. } => {
                    (guess.process, format!("VALUE FAULT {guess}"))
                }
                TraceEvent::TimeFault { at, cycle, .. } => {
                    let c: Vec<String> = cycle.iter().map(|g| g.to_string()).collect();
                    (*at, format!("TIME FAULT [{}]", c.join("→")))
                }
                TraceEvent::Timeout { guess, .. } => (guess.process, format!("timeout {guess}")),
                TraceEvent::Abort { at, guess, .. } => (*at, format!("abort {guess}")),
                TraceEvent::Commit { at, guess, .. } => (*at, format!("commit {guess}")),
                TraceEvent::Rollback { thread, slot, .. } => (
                    thread.process,
                    format!("ROLLBACK #{} →slot{}", thread.index, slot),
                ),
                TraceEvent::Discard { thread, .. } => {
                    (thread.process, format!("discard #{}", thread.index))
                }
                TraceEvent::ControlSent { from, ctrl, .. } => (*from, format!("{ctrl}")),
                TraceEvent::External {
                    from,
                    payload,
                    buffered,
                    ..
                } => (
                    *from,
                    format!("OUT{} {payload}", if *buffered { "*" } else { "" }),
                ),
                TraceEvent::ThreadDone { thread, .. } => {
                    (thread.process, format!("done #{}", thread.index))
                }
            };
            let Some(&col) = col_of.get(&proc) else {
                continue;
            };
            write!(out, "{:>8} ", ev.time()).unwrap();
            for i in 0..processes.len() {
                if i == col {
                    // Truncate on a character boundary (labels contain
                    // multi-byte arrows).
                    let text: String = text.chars().take(COL - 3).collect();
                    write!(out, "| {:<w$}", text, w = COL - 2).unwrap();
                } else {
                    write!(out, "| {:<w$}", "", w = COL - 2).unwrap();
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(p: u32, i: u32) -> ThreadId {
        ThreadId {
            process: ProcessId(p),
            index: i,
        }
    }

    #[test]
    fn stats_count_event_kinds() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::Fork {
            t: 0,
            guess: GuessId::first(ProcessId(0), 1),
            left: tid(0, 0),
            right: tid(0, 1),
        });
        tr.push(TraceEvent::Abort {
            t: 5,
            at: ProcessId(0),
            guess: GuessId::first(ProcessId(0), 1),
        });
        tr.push(TraceEvent::Rollback {
            t: 5,
            thread: tid(2, 0),
            slot: 1,
        });
        assert_eq!(tr.stats.forks, 1);
        assert_eq!(tr.stats.aborts, 1);
        assert_eq!(tr.stats.rollbacks, 1);
    }

    #[test]
    fn aborted_and_committed_guess_lists_dedupe() {
        let g = GuessId::first(ProcessId(0), 1);
        let mut tr = Trace::default();
        tr.push(TraceEvent::Abort {
            t: 1,
            at: ProcessId(0),
            guess: g,
        });
        tr.push(TraceEvent::Abort {
            t: 2,
            at: ProcessId(1),
            guess: g,
        });
        tr.push(TraceEvent::Commit {
            t: 3,
            at: ProcessId(0),
            guess: GuessId::first(ProcessId(2), 1),
        });
        assert_eq!(tr.aborted_guesses(), vec![g]);
        assert_eq!(tr.committed_guesses().len(), 1);
    }

    #[test]
    fn timeline_renders_columns() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::Send {
            t: 0,
            msg: MsgId(0),
            from: tid(0, 0),
            to: ProcessId(1),
            label: "C1".into(),
            guard: Guard::empty(),
        });
        tr.push(TraceEvent::Deliver {
            t: 10,
            msg: MsgId(0),
            to: tid(1, 0),
            from: ProcessId(0),
            label: "C1".into(),
            guard: Guard::empty(),
        });
        let s = tr.render_timeline(&[ProcessId(0), ProcessId(1)]);
        assert!(s.contains("C1{} →Y"));
        assert!(s.contains("recv C1{} ←X"));
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.len() >= 4);
    }

    #[test]
    fn event_time_extraction() {
        let ev = TraceEvent::Timeout {
            t: 99,
            guess: GuessId::first(ProcessId(0), 1),
        };
        assert_eq!(ev.time(), 99);
    }
}
