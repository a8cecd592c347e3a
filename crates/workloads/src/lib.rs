//! # opcsp-workloads — scenario builders shared by tests, benches, examples
//!
//! Each module reconstructs a scenario from the paper or a parameterized
//! workload for the benchmark harness:
//!
//! - [`update_write`] — Figures 1–5: the Update/Write client with database
//!   and filesystem servers.
//! - [`streaming`] — §1's PutLine call-streaming client (E1/E2/E3/E8).
//! - [`two_clients`] — Figures 6–7: two optimistically parallelized
//!   processes with PRECEDENCE resolution and cycle detection.
//! - [`chain`] — depth-k optimistic forwarding pipelines (rollback-depth
//!   and PRECEDENCE-stress experiments).
//! - [`contention`] — two independent clients sharing one server (the §5
//!   Time Warp comparison workload, E6).
//! - [`fan_in`] — P producers streaming into one consumer (multi-writer
//!   guard tags).
//! - [`contention_sweep`] — phased conflict-rate ramp on a hot server
//!   (E12: where every static retry limit loses and adaptive tracks the
//!   per-phase oracle).
//! - [`replicated_kv`] — the flagship workload: optimistic parallel
//!   state-machine replication, R replicas fed by an open-loop Zipf
//!   client load, with guesses standing in for the optimistic delivery
//!   order (E14).
//! - [`servers`] — reusable server behaviors.

pub mod chain;
pub mod contention;
pub mod contention_sweep;
pub mod fan_in;
pub mod replicated_kv;
pub mod servers;
pub mod streaming;
pub mod two_clients;
pub mod update_write;
