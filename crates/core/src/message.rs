//! Message envelopes and control messages (§3.2, §4.2).
//!
//! Every data message carries the commit guard set of the computation that
//! sent it — the guard itself, which `wire` writes as its runs. Control
//! messages — COMMIT, ABORT, PRECEDENCE — disseminate the resolution of
//! guesses. The paper assumes control messages are broadcast (§4.2.5);
//! engines may instead target them, which is an ablation knob.

use crate::guard::Guard;
use crate::ids::{ForkIndex, GuessId, ProcessId};
use crate::value::Value;
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

/// Message label for trace rendering ("C1", "R2", ...). Reference-counted:
/// a label is allocated once when the message is created and shared by
/// every copy the engines keep (consumed-message logs, call stacks,
/// checkpoints).
pub type Label = Arc<str>;

/// Globally unique message identifier (assigned by the engine; used for
/// call/return matching and trace rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

/// Identifies an outstanding call so its return can be matched (§4.2.3:
/// "if this is the return of a call, we can check that the message does not
/// depend upon some future thread").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallId(pub u64);

/// The kind of a data message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// One-way asynchronous send (M1/M2 in Figures 6–7).
    Send,
    /// A call expecting a return (C1/C2/C3 in Figures 2–5).
    Call(CallId),
    /// The return of a call (R1/R2/R3).
    Return(CallId),
}

impl DataKind {
    pub fn is_return(&self) -> bool {
        matches!(self, DataKind::Return(_))
    }
}

/// A data message between processes, tagged with the sender's guard set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    pub id: MsgId,
    pub from: ProcessId,
    /// Thread of the sender that produced this message.
    pub from_thread: ForkIndex,
    pub to: ProcessId,
    /// Commit guard set of the sending computation at send time (§3.2:
    /// "Each message carries with it a tag containing the commit guard set
    /// of the computation which sent the message").
    pub guard: Guard,
    /// Empty by construction and never on the wire: kept as a name only
    /// because `benchmark/src/probes.rs` builds envelopes with it. Goes with
    /// ROADMAP item 4.
    pub table_acks: Vec<Infallible>,
    pub kind: DataKind,
    pub payload: Value,
    /// Human-readable label for trace rendering ("C1", "R2", ...).
    pub label: Label,
    /// Link sequence number: this is the `link_seq`-th transmission on the
    /// directed link `from → to` (0-based, data and control combined). FIFO
    /// transports deliver a link's messages in this order; forensics uses
    /// it as the stable address of the message's latency draw (see
    /// `opcsp_sim::latency::DrawKey`).
    pub link_seq: u32,
}

impl Envelope {
    /// Total approximate wire size including the guard tag — used for the
    /// E8 overhead accounting. The 20 fixed bytes cover ids, route, kind,
    /// and the link sequence number.
    pub fn wire_size(&self) -> usize {
        20 + self.guard.wire_size() + self.payload.wire_size()
    }
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} {}→{} {}",
            self.label, self.guard, self.from, self.to, self.payload
        )
    }
}

/// Control messages disseminating guess resolutions (§3.2, §4.2.5–4.2.8).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Control {
    /// `COMMIT(x_n)`: the guess committed; remove it from guard sets.
    Commit(GuessId),
    /// `ABORT(x_n)`: the guess aborted; roll back dependents.
    Abort(GuessId),
    /// `PRECEDENCE(x_n, Guard)`: `x_n`'s left thread terminated with a
    /// non-empty guard — every guess in `Guard` precedes `x_n`.
    Precedence(GuessId, Guard),
}

impl Control {
    pub fn wire_size(&self) -> usize {
        // One opcode byte plus the subject guess id, sized from its actual
        // field widths.
        let base = 1 + GuessId::WIRE_BYTES;
        match self {
            Control::Commit(_) | Control::Abort(_) => base,
            Control::Precedence(_, g) => base + g.wire_size(),
        }
    }
}

impl fmt::Display for Control {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Control::Commit(g) => write!(f, "COMMIT({g})"),
            Control::Abort(g) => write!(f, "ABORT({g})"),
            Control::Precedence(g, gd) => write!(f, "PRECEDENCE({g},{gd})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(label: &str) -> Envelope {
        Envelope {
            id: MsgId(1),
            from: ProcessId(0),
            from_thread: 1,
            to: ProcessId(2),
            guard: Guard::single(GuessId::first(ProcessId(0), 1)),
            table_acks: vec![],
            kind: DataKind::Call(CallId(7)),
            payload: Value::Int(5),
            label: label.into(),
            link_seq: 0,
        }
    }

    #[test]
    fn envelope_display_shows_guard_and_route() {
        assert_eq!(env("C3").to_string(), "C3{x1} X→Z 5");
    }

    #[test]
    fn control_display_matches_paper() {
        let g = GuessId::first(ProcessId(2), 1);
        assert_eq!(Control::Commit(g).to_string(), "COMMIT(z1)");
        assert_eq!(Control::Abort(g).to_string(), "ABORT(z1)");
        let p = Control::Precedence(g, Guard::single(GuessId::first(ProcessId(0), 1)));
        assert_eq!(p.to_string(), "PRECEDENCE(z1,{x1})");
    }

    #[test]
    fn wire_size_includes_guard() {
        let e = env("C1");
        assert_eq!(e.wire_size(), 20 + (2 + 16) + 8);
        assert!(
            Control::Precedence(
                GuessId::first(ProcessId(0), 1),
                Guard::single(GuessId::first(ProcessId(1), 1))
            )
            .wire_size()
                > Control::Commit(GuessId::first(ProcessId(0), 1)).wire_size()
        );
    }

    #[test]
    fn return_kind_detection() {
        assert!(DataKind::Return(CallId(1)).is_return());
        assert!(!DataKind::Call(CallId(1)).is_return());
        assert!(!DataKind::Send.is_return());
    }
}
