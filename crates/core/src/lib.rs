//! # opcsp-core — Optimistic Parallelization of CSP: protocol core
//!
//! Engine-agnostic implementation of the protocol of Bacon & Strom,
//! *Optimistic Parallelization of Communicating Sequential Processes*
//! (PPoPP 1991): commit guard sets, guesses with incarnation numbers,
//! commit histories, the commit dependency graph (CDG), fork/join
//! processing, message arrival and delivery rules, and the COMMIT / ABORT /
//! PRECEDENCE resolution cascades with rollback-point computation.
//!
//! The crate is *pure*: no clocks, no threads, no I/O. Execution engines —
//! the deterministic discrete-event simulator in `opcsp-sim` and the
//! real-thread runtime in `opcsp-rt` — own behavior execution, state
//! checkpointing and transport, and call into [`ProcessCore`] for every
//! protocol decision.
//!
//! ## Map from the paper to modules
//!
//! | Paper section | Module |
//! |---|---|
//! | §3.1 commit guards, committed/optimistic computations | [`guard`] |
//! | §4.1.1 state index, §4.1.3 rollback points | [`ids`], [`process`] |
//! | §4.1.2 incarnation numbers, guard compaction | [`history`], [`wire`], [`compact`] |
//! | §4.1.4 commit dependency graph | [`cdg`] |
//! | §4.1.5 commit histories | [`history`] |
//! | §4.2.1 fork, §4.2.2 send, §4.2.3 arrival/receive | [`process`] |
//! | §4.2.4 join, §4.2.6–4.2.8 COMMIT/ABORT/PRECEDENCE | [`resolve`] |
//! | §3.3 liveness (timeout, speculation policy) | [`process`], [`speculation`] |

pub mod cdg;
pub mod compact;
pub mod guard;
pub mod history;
pub mod ids;
pub mod message;
pub mod process;
pub mod resolve;
pub mod speculation;
pub mod telemetry;
pub mod value;
pub mod wire;

pub use cdg::{Cdg, EdgeOutcome};
pub use compact::{measure, CompactGuard, GuardSizes};
pub use guard::{Guard, GuardInterner, InternerStats, Run};
pub use history::{Fate, History, IncarnationTable};
pub use ids::{ForkIndex, GuessId, Incarnation, ProcessId, StateIndex, ThreadId};
pub use message::{CallId, Control, DataKind, Envelope, Label, MsgId};
pub use process::{
    ArrivalVerdict, CoreConfig, DeliveryEffect, ForkRecord, GuessResolution, OwnGuess,
    OwnGuessState, ProcessCore, ResolutionCause, ThreadMeta, ThreadPhase,
};
pub use resolve::{AbortEffects, CommitEffects, JoinDecision};
pub use speculation::{PolicyShift, ShiftReason, SiteController, SpeculationPolicy};
pub use telemetry::{
    GuessLifecycle, Histogram, LifecycleReport, ProtoStats, SiteSummary, Telemetry, TelemetryEvent,
    Tick, WireStats,
};
pub use wire::{
    decode_control_frame, decode_frame, encode_control_frame, encode_frame, get_value,
    parse_frame_len, put_uvarint, put_value, seal_frame_len, FrameError, FrameReader,
    FRAME_VERSION, MAX_FRAME_BYTES, MAX_GUARD_MEMBERS, MAX_INCARNATION,
};
pub use value::Value;
