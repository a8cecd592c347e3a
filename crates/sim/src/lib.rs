//! # opcsp-sim — deterministic simulator & optimistic execution engine
//!
//! Runs systems of communicating sequential processes (as [`Behavior`]
//! state machines) over a simulated network, either *pessimistically*
//! (pure sequential semantics — the paper's baseline, Figure 2) or
//! *optimistically* with the full Bacon–Strom protocol (forks, commit
//! guards, rollback, COMMIT/ABORT/PRECEDENCE — Figures 3–7).

pub mod audit;
pub mod behavior;
pub mod driver;
pub mod engine;
pub mod equiv;
pub mod explore;
pub mod forensics;
pub mod latency;
pub mod trace;

pub use audit::{assert_audit_clean, audit_trace, Violation};
pub use behavior::{
    control_domains, reply_label, Behavior, BehaviorState, Effect, FnBehavior, Resume,
};
pub use driver::{
    After, DeliverySchedule, Driver, DriverPolicy, Env, FaultInjection, Held, ObsKind, ObsMeta,
    Observable,
};
pub use engine::{SimBuilder, SimConfig, SimResult, World};
pub use equiv::{
    check_conservation, check_equivalence, check_schedule_replay, check_theorem1,
    committed_schedule, EquivReport, Mismatch, Outcome, Theorem1Verdict,
};
pub use explore::{
    explore, naive_interleavings, per_receiver_orders, render_schedule, ExploreOpts,
    ExploreOutcome, ExploreStats, ExploreViolation,
};
pub use forensics::{
    first_divergence, happens_before_chain, render_report, shrink_schedule, DivergenceReport,
    FirstDivergence, HbStep, ShrunkSchedule,
};
pub use latency::{splitmix64, DrawKey, LatencyModel, LatencySampler};
pub use trace::{SimStats, Trace, TraceEvent, VTime};
