//! Fan-in streaming — `P` producers stream `n` calls each into one shared
//! consumer (the `examples/csp/fan_in.csp` shape, scaled).
//!
//! Every reply the consumer sends while speculation is in flight carries
//! the union of all producers' pending guesses: a multi-writer guard tag,
//! one run per producer, where the streaming and chain workloads only
//! build single-writer tags.
//!
//! Every producer shares one behaviour template, so a 100k-wide world
//! registers an `Arc` pointer clone per process and pays no O(N) set-up
//! spike. With optimism on, every concurrently unresolved producer guess
//! lands in the consumer's thread guard, so reply guards grow with the
//! width — a protocol cost (E8 sizes the tags), not an executor one: runs
//! that only exercise executor scale run pessimistically.

use opcsp_core::{CoreConfig, ProcessId};
use opcsp_sim::VTime;

/// Scenario parameters for the fan-in experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct FanInOpts {
    /// Number of producers streaming into the consumer.
    pub producers: u32,
    /// Calls per producer.
    pub n: u32,
    /// One-way network latency (base when jittered).
    pub latency: u64,
    /// Uniform jitter spread (0 = fixed latency).
    pub jitter: u64,
    pub seed: u64,
    pub server_compute: u64,
    pub core: CoreConfig,
    pub fork_timeout: VTime,
}

impl Default for FanInOpts {
    fn default() -> Self {
        FanInOpts {
            producers: 4,
            n: 16,
            latency: 50,
            jitter: 0,
            seed: 1,
            server_compute: 1,
            core: CoreConfig::default(),
            fork_timeout: 100_000,
        }
    }
}

/// The consumer's process id (producers occupy `0..producers`).
pub fn consumer(opts: &FanInOpts) -> ProcessId {
    ProcessId(opts.producers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Spec;

    #[test]
    fn fan_in_completes_and_commits_everything() {
        let r = Spec::FanIn(FanInOpts::default()).simulate();
        assert!(!r.truncated);
        assert!(r.unresolved.is_empty(), "unresolved: {:?}", r.unresolved);
        // Every producer's full stream is received by the consumer.
        let opts = FanInOpts::default();
        let recvd = r.logs[&consumer(&opts)]
            .iter()
            .filter(|o| matches!(o, opcsp_sim::Observable::Received { .. }))
            .count();
        assert_eq!(recvd as u32, opts.producers * opts.n);
    }
}
