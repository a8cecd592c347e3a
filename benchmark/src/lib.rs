//! The repository benchmark: six fixed-work workloads over the simulator,
//! the real-thread runtime and the socket transport, measured from outside
//! `crates/` (see `README.md` in this directory).

pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod suite;
pub mod timed;
pub mod worlds;
