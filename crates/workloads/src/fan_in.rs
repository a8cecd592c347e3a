//! Fan-in streaming — `P` producers stream `n` calls each into one shared
//! consumer (the `examples/csp/fan_in.csp` shape, scaled).
//!
//! Every reply the consumer sends while speculation is in flight carries
//! the union of all producers' pending guesses: a multi-writer guard tag,
//! one run per producer, where the streaming and chain workloads only
//! build single-writer tags.

use crate::servers::Server;
use crate::streaming::PutLineClient;
use opcsp_core::{CoreConfig, ProcessId, Value};
use opcsp_sim::{Behavior, LatencyModel, SimBuilder, SimConfig, SimResult, VTime};

/// Scenario parameters for the fan-in experiments.
#[derive(Debug, Clone)]
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

/// The engine config [`run_fan_in`] derives from the scenario options —
/// exposed so schedule exploration can vary it (optimism, forced
/// prefixes) while keeping the same world.
pub fn fan_in_config(opts: &FanInOpts) -> SimConfig {
    let latency = if opts.jitter > 0 {
        LatencyModel::jitter(opts.latency, opts.jitter, opts.seed)
    } else {
        LatencyModel::fixed(opts.latency)
    };
    SimConfig {
        core: opts.core.clone(),
        latency,
        fork_timeout: opts.fork_timeout,
        ..SimConfig::default()
    }
}

/// The fan-in world under an explicit engine config, not yet built.
pub fn fan_in_builder(opts: &FanInOpts, cfg: &SimConfig) -> SimBuilder {
    let board = consumer(opts);
    let mut b = SimBuilder::new(cfg.clone());
    for _ in 0..opts.producers {
        b.add_process(PutLineClient::to(opts.n, board));
    }
    let s = b.add_process(
        Server::new("Board", opts.server_compute).with_reply(|_| Value::Bool(true)),
    );
    debug_assert_eq!(s, board);
    b
}

/// Build and run the fan-in world under an explicit engine config (the
/// schedule explorer's runner).
pub fn run_fan_in_cfg(opts: &FanInOpts, cfg: &SimConfig) -> SimResult {
    fan_in_builder(opts, cfg).build().run()
}

/// Build and run the fan-in scenario.
pub fn run_fan_in(opts: FanInOpts) -> SimResult {
    let cfg = fan_in_config(&opts);
    run_fan_in_cfg(&opts, &cfg)
}

// ---------------------------------------------------------------------
// Wide variant on the real-thread runtime
// ---------------------------------------------------------------------

/// Build the fan-in world on the real-thread runtime, sized by
/// `opts.producers` (up to 100k senders — widths the sharded executor
/// exists for). Every producer shares ONE behavior template, so
/// registration is an `Arc` pointer clone per process and actor state is
/// constructed lazily inside the owning executor thread: a huge world
/// pays no O(N) coordinator-side allocation spike before the run starts.
/// Producers are the clients whose completion ends the run; the consumer
/// is the server.
///
/// Width note: with optimism on, every concurrently-unresolved producer
/// guess lands in the consumer's thread guard, so reply guards grow with
/// the number of producers mid-speculation — an O(width²) wire-byte cost
/// that is a *protocol* property (E8 sizes the tags), not an executor one. Full-width runs that only exercise executor
/// scale should run pessimistically (`CoreConfig::pessimistic()`).
pub fn rt_fan_in_world(opts: &FanInOpts, cfg: opcsp_rt::RtConfig) -> opcsp_rt::RtWorld {
    use std::sync::Arc;
    assert!(
        opts.producers <= 100_000,
        "rt fan-in is sized for up to 100k senders"
    );
    let board = consumer(opts);
    let mut w = opcsp_rt::RtWorld::new(cfg);
    let template: Arc<dyn Behavior> = Arc::new(PutLineClient::to(opts.n, board));
    for _ in 0..opts.producers {
        w.add_process_arc(template.clone(), true);
    }
    let s = w.add_process(
        Server::new("Board", opts.server_compute).with_reply(|_| Value::Bool(true)),
        false,
    );
    debug_assert_eq!(s, board);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_in_completes_and_commits_everything() {
        let r = run_fan_in(FanInOpts::default());
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
