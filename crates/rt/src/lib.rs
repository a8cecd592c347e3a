//! # opcsp-rt — the protocol on real threads
//!
//! Process actors on OS threads, crossbeam channels as the network, frames
//! stamped with the instant they are due as the WAN, and the identical
//! protocol core (`opcsp_core::ProcessCore`) the simulator uses. Shows the
//! transformation is not simulator-bound and provides the wall-clock
//! measurements of experiment E7.
//!
//! One actor loop hosts the poll-able process core (DESIGN.md §11): a
//! worker runs a shard of the processes. [`Executor::Sharded`] is an M:N
//! pool that scales a world to 10k–100k processes, [`Executor::Threaded`]
//! one worker per process. Every run on either is held to Theorem 1 the
//! way a simulator run is:
//! [`RtResult`] is an `opcsp_sim::Outcome`, so its committed schedule is
//! replayed on the pessimistic simulator (`opcsp_sim::check_theorem1`).
//! Executor and transport compose: `executor::spawn_world` hosts any pid
//! range of a world, so a socket worker (DESIGN.md §13) runs its share
//! under either executor, and one coordinator (`runtime::coordinate`)
//! ends every run.
//!
//! The network is a two-layer transport (DESIGN.md §9): a seeded chaos
//! layer ([`NetFaults`]: drops, duplicates, reordering, partitions)
//! underneath a reliable-delivery sublayer (sequencing, cumulative acks,
//! retransmission, dedup, in-order release), so the protocol core keeps
//! the reliable FIFO network the paper assumes.

mod core_poll;
pub mod executor;
pub mod net;
pub mod runtime;
pub mod sock;

pub use executor::Executor;
pub use net::{Delayer, Mailbox, NetFaults, NetStats, Partition, Transport};
pub use runtime::{merge_equiv, RtConfig, RtPhases, RtResult, RtStats, RtWorld};
pub use sock::{RtTransport, SockAddr, SockRole};
