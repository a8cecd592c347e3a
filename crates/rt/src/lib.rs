//! # opcsp-rt — the protocol on real threads
//!
//! Process actors on OS threads, crossbeam channels as the network, frames
//! stamped with the instant they are due as the WAN, and the identical
//! protocol core (`opcsp_core::ProcessCore`) the simulator uses. Shows the
//! transformation is not simulator-bound and provides the wall-clock
//! measurements of experiment E7.
//!
//! Two executors host the same poll-able process core (DESIGN.md §11):
//! [`Executor::Threaded`] is thread-per-process, [`Executor::Sharded`] is
//! an M:N worker pool that scales a world to 10k–100k processes. Their
//! committed-log agreement is the correctness oracle for the scheduler.
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
pub use runtime::{
    compare_logs, merge_equiv, LogDiff, RtConfig, RtPhases, RtResult, RtStats, RtWorld,
};
pub use sock::{RtTransport, SockAddr, SockRole};
