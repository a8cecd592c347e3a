//! Fan-in streaming — `P` producers stream `n` calls each into one shared
//! consumer (the `examples/csp/fan_in.csp` shape, scaled).
//!
//! Every reply the consumer sends while speculation is in flight carries
//! the union of all producers' pending guesses, so the same large guard
//! tag is constructed over and over — the guard-interner's hit path under
//! a multi-writer workload, where the streaming and chain workloads only
//! exercise single-writer tag reuse. Reported by `figures interner`.

use crate::servers::{DisplaySink, Server};
use crate::streaming::PutLineClient;
use opcsp_core::{CoreConfig, ProcessId, Value};
use opcsp_sim::{
    Behavior, BehaviorState, Effect, LatencyModel, Resume, SimBuilder, SimConfig, SimResult, VTime,
};

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
// Burst variant: repeated large tags
// ---------------------------------------------------------------------

/// A producer that accumulates `depth` nested pending guesses (one fork
/// per outstanding call) and then streams `burst` one-way sends to the
/// sink under that *unchanged* guard. With `depth > Guard::INLINE_CAP`
/// every message in the burst (and every arrival-classification at the
/// sink) re-interns the same large tag — the guard-interner hit path the
/// streaming workloads cannot reach, since their guards grow monotonically
/// and each tag is constructed exactly once.
pub struct BurstProducer {
    pub depth: u32,
    pub burst: u32,
    pub sink: ProcessId,
}

#[derive(Clone)]
struct BpState {
    forked: u32,
    sent: u32,
    pc: BpPc,
}

#[derive(Clone)]
enum BpPc {
    Top,
    Forked,
    AwaitReturn,
    Joining,
    Bursting,
    Finished,
}

impl BurstProducer {
    fn advance(&self, st: &mut BpState) -> Effect {
        if st.forked < self.depth {
            st.pc = BpPc::Forked;
            Effect::Fork {
                site: 1,
                guesses: vec![("ok".into(), Value::Bool(true))],
            }
        } else if st.sent < self.burst {
            st.pc = BpPc::Bursting;
            st.sent += 1;
            Effect::Send {
                to: self.sink,
                payload: Value::Int(st.sent as i64),
                label: "B".into(),
            }
        } else {
            st.pc = BpPc::Finished;
            Effect::Done
        }
    }
}

impl Behavior for BurstProducer {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(BpState {
            forked: 0,
            sent: 0,
            pc: BpPc::Top,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<BpState>();
        match (&st.pc, resume) {
            (BpPc::Top, Resume::Start) => self.advance(st),
            (BpPc::Forked, Resume::ForkLeft | Resume::ForkDenied) => {
                st.pc = BpPc::AwaitReturn;
                Effect::call(self.sink, Value::Int(st.forked as i64), "C")
            }
            (BpPc::Forked, Resume::ForkRight { .. }) => {
                st.forked += 1;
                self.advance(st)
            }
            (BpPc::AwaitReturn, Resume::Msg(env)) => {
                st.pc = BpPc::Joining;
                Effect::JoinLeft {
                    actual: vec![("ok".into(), Value::Bool(env.payload.is_true()))],
                }
            }
            // Pessimistic (or post-abort) sequential continuation.
            (BpPc::Joining, Resume::JoinSequential) => {
                st.forked += 1;
                self.advance(st)
            }
            (BpPc::Bursting, Resume::Continue) => self.advance(st),
            (_, r) => panic!("BurstProducer: unexpected resume {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "BurstProducer"
    }

    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(vec![self.sink])
    }
}

/// Run the burst fan-in: `producers` burst producers (each `depth` pending
/// guesses, `burst` sends) into one [`DisplaySink`].
pub fn run_fan_in_burst(opts: FanInOpts, depth: u32) -> SimResult {
    let latency = if opts.jitter > 0 {
        LatencyModel::jitter(opts.latency, opts.jitter, opts.seed)
    } else {
        LatencyModel::fixed(opts.latency)
    };
    let cfg = SimConfig {
        core: opts.core.clone(),
        latency,
        fork_timeout: opts.fork_timeout,
        ..SimConfig::default()
    };
    let sink = consumer(&opts);
    let mut b = SimBuilder::new(cfg);
    for _ in 0..opts.producers {
        b.add_process(BurstProducer {
            depth,
            burst: opts.n,
            sink,
        });
    }
    let s = b.add_process(DisplaySink::new("Board"));
    debug_assert_eq!(s, sink);
    b.build().run()
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
/// that is a *protocol* property (the guard-interner experiments measure
/// it), not an executor one. Full-width runs that only exercise executor
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

    #[test]
    fn burst_fan_in_completes() {
        let r = run_fan_in_burst(FanInOpts::default(), 6);
        assert!(!r.truncated);
        assert!(r.unresolved.is_empty(), "unresolved: {:?}", r.unresolved);
    }

    #[test]
    fn burst_fan_in_exercises_the_interner_hit_path() {
        let r = run_fan_in_burst(
            FanInOpts {
                producers: 2,
                n: 24,
                ..FanInOpts::default()
            },
            6,
        );
        let s = r.stats().interner;
        assert!(s.hits > 0, "no interner hits: {s:?}");
        assert!(
            s.hits > s.misses,
            "repeated large tags should be hit-dominated: {s:?}"
        );
    }
}
