//! Call streaming — the paper's flagship application (§1): a client makes
//! `N` successive `PutLine` calls to a window-manager server. Sequentially,
//! each call waits a full round trip; with the optimistic transformation
//! each call's continuation runs under the guess that the call returns
//! successfully, converting the series of two-way calls into a stream of
//! one-way sends.
//!
//! Failure injection: the server rejects a chosen set of line numbers; a
//! rejected line is a *value fault* at the client's join — the speculative
//! tail of the stream rolls back. Used by experiments E1 (latency sweep),
//! E2 (N sweep), E3 (abort-probability sweep) and E8 (guard growth).

use crate::servers::Server;
use opcsp_core::{CoreConfig, ProcessId, Value};
use opcsp_sim::{
    Behavior, BehaviorState, Effect, LatencyModel, Resume, SimBuilder, SimConfig, SimResult, VTime,
};
use std::collections::BTreeSet;
use std::sync::Arc;

pub const CLIENT: ProcessId = ProcessId(0);
pub const SERVER: ProcessId = ProcessId(1);

/// The streaming client: `for i in 0..n { ok = PutLine(i); if !ok break }`.
pub struct PutLineClient {
    pub n: u32,
    /// The server to call (defaults to process 1).
    pub server: ProcessId,
}

impl PutLineClient {
    pub fn new(n: u32) -> Self {
        PutLineClient { n, server: SERVER }
    }

    pub fn to(n: u32, server: ProcessId) -> Self {
        PutLineClient { n, server }
    }
}

#[derive(Clone)]
struct ClState {
    i: u32,
    n: u32,
    ok: bool,
    pc: ClPc,
}

#[derive(Clone)]
enum ClPc {
    Top,
    Forked,
    Await,
    Joining,
    Finished,
}

fn loop_top(st: &mut ClState) -> Effect {
    if st.i < st.n {
        st.pc = ClPc::Forked;
        Effect::Fork {
            site: 1,
            guesses: vec![("ok".into(), Value::Bool(true))],
        }
    } else {
        st.pc = ClPc::Finished;
        Effect::Done
    }
}

impl Behavior for PutLineClient {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(ClState {
            i: 0,
            n: self.n,
            ok: true,
            pc: ClPc::Top,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<ClState>();
        match (&st.pc, resume) {
            (ClPc::Top, Resume::Start) => loop_top(st),
            // S1 of iteration i: the PutLine call.
            (ClPc::Forked, Resume::ForkLeft | Resume::ForkDenied) => {
                st.pc = ClPc::Await;
                Effect::call(
                    self.server,
                    Value::Int(st.i as i64),
                    format!("C{}", st.i + 1),
                )
            }
            // S2 (speculative): assume success, move to the next line.
            (ClPc::Forked, Resume::ForkRight { guesses }) => {
                st.ok = guesses
                    .iter()
                    .find(|(k, _)| k == "ok")
                    .map(|(_, v)| v.is_true())
                    .unwrap_or(false);
                st.i += 1;
                loop_top(st)
            }
            (ClPc::Await, Resume::Msg(env)) => {
                st.ok = env.payload.is_true();
                st.pc = ClPc::Joining;
                Effect::JoinLeft {
                    actual: vec![("ok".into(), Value::Bool(st.ok))],
                }
            }
            // Sequential continuation (pessimistic, or after an abort).
            (ClPc::Joining, Resume::JoinSequential) => {
                if st.ok {
                    st.i += 1;
                    loop_top(st)
                } else {
                    st.pc = ClPc::Finished;
                    Effect::Done
                }
            }
            (_, r) => panic!("PutLineClient: unexpected resume {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "PutLineClient"
    }

    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(vec![self.server])
    }
}

/// Scenario parameters for the streaming experiments.
#[derive(Debug, Clone)]
pub struct StreamingOpts {
    /// Number of PutLine calls.
    pub n: u32,
    /// One-way network latency.
    pub latency: u64,
    /// Line numbers the server rejects (value faults at the client).
    pub fail_lines: BTreeSet<u32>,
    pub server_compute: u64,
    pub core: CoreConfig,
    pub fork_timeout: VTime,
    /// Use §4.2.1's fork-after-send client.
    pub fork_after_send: bool,
}

impl Default for StreamingOpts {
    fn default() -> Self {
        StreamingOpts {
            n: 16,
            latency: 50,
            fail_lines: BTreeSet::new(),
            server_compute: 1,
            core: CoreConfig::default(),
            fork_timeout: 100_000,
            fork_after_send: false,
        }
    }
}

/// The engine config [`run_streaming`] derives from the scenario options —
/// exposed so schedule exploration can vary it while keeping the world.
pub fn streaming_config(opts: &StreamingOpts) -> SimConfig {
    SimConfig {
        core: opts.core.clone(),
        latency: LatencyModel::fixed(opts.latency),
        fork_timeout: opts.fork_timeout,
        ..SimConfig::default()
    }
}

/// The PutLine world under an explicit engine config, not yet built.
pub fn streaming_builder(opts: &StreamingOpts, cfg: &SimConfig) -> SimBuilder {
    let mut b = SimBuilder::new(cfg.clone());
    let c = if opts.fork_after_send {
        b.add_process(PutLineClientFas {
            n: opts.n,
            server: SERVER,
        })
    } else {
        b.add_process(PutLineClient::new(opts.n))
    };
    let fails = Arc::new(opts.fail_lines.clone());
    let s = b.add_process(
        Server::new("WindowManager", opts.server_compute).with_reply(move |line| {
            let i = line.as_int().unwrap_or(-1);
            Value::Bool(i >= 0 && !fails.contains(&(i as u32)))
        }),
    );
    debug_assert_eq!((c, s), (CLIENT, SERVER));
    b
}

/// Build and run the PutLine world under an explicit engine config (the
/// schedule explorer's runner).
pub fn run_streaming_cfg(opts: &StreamingOpts, cfg: &SimConfig) -> SimResult {
    streaming_builder(opts, cfg).build().run()
}

/// Build and run the PutLine scenario.
pub fn run_streaming(opts: StreamingOpts) -> SimResult {
    let cfg = streaming_config(&opts);
    run_streaming_cfg(&opts, &cfg)
}

/// The streaming client using §4.2.1's fork-after-send optimization: the
/// call departs *before* the fork, and the left thread is parked directly
/// on the return — one less engine step and one less resume per line.
pub struct PutLineClientFas {
    pub n: u32,
    pub server: ProcessId,
}

#[derive(Clone)]
struct FasState {
    i: u32,
    n: u32,
    ok: bool,
    pc: ClPc,
}

impl Behavior for PutLineClientFas {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(FasState {
            i: 0,
            n: self.n,
            ok: true,
            pc: ClPc::Top,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<FasState>();
        fn top(this: &PutLineClientFas, st: &mut FasState) -> Effect {
            if st.i < st.n {
                st.pc = ClPc::Await;
                Effect::CallThenFork {
                    to: this.server,
                    payload: Value::Int(st.i as i64),
                    label: format!("C{}", st.i + 1),
                    site: 1,
                    guesses: vec![("ok".into(), Value::Bool(true))],
                }
            } else {
                st.pc = ClPc::Finished;
                Effect::Done
            }
        }
        match (&st.pc, resume) {
            (ClPc::Top, Resume::Start) => top(self, st),
            // Right thread: continue under the guess.
            (ClPc::Await, Resume::ForkRight { guesses }) => {
                st.ok = guesses
                    .iter()
                    .find(|(k, _)| k == "ok")
                    .map(|(_, v)| v.is_true())
                    .unwrap_or(false);
                st.i += 1;
                top(self, st)
            }
            // Left thread (or pessimistic): the return arrives directly.
            (ClPc::Await, Resume::Msg(env)) => {
                st.ok = env.payload.is_true();
                st.pc = ClPc::Joining;
                Effect::JoinLeft {
                    actual: vec![("ok".into(), Value::Bool(st.ok))],
                }
            }
            (ClPc::Joining, Resume::JoinSequential) => {
                if st.ok {
                    st.i += 1;
                    top(self, st)
                } else {
                    st.pc = ClPc::Finished;
                    Effect::Done
                }
            }
            (_, r) => panic!("PutLineClientFas: unexpected resume {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "PutLineClientFas"
    }

    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(vec![self.server])
    }
}

/// A client that pushes all `n` lines regardless of failures: S2 *reads*
/// the result (so a wrong guess is a genuine value fault with a rollback)
/// but continues either way, tallying successes and failures. Used by the
/// abort-probability sweep (E3), where the paper's trade-off lives:
/// "provided we usually guess right, we still obtain a performance
/// improvement" (§1) — and past a fault-rate threshold, we don't.
pub struct TallyClient {
    pub n: u32,
    pub server: ProcessId,
}

#[derive(Clone)]
struct TallyState {
    i: u32,
    n: u32,
    ok: bool,
    good: i64,
    bad: i64,
    pc: ClPc,
}

impl Behavior for TallyClient {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(TallyState {
            i: 0,
            n: self.n,
            ok: true,
            good: 0,
            bad: 0,
            pc: ClPc::Top,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<TallyState>();
        fn top(st: &mut TallyState) -> Effect {
            if st.i < st.n {
                st.pc = ClPc::Forked;
                Effect::Fork {
                    site: 1,
                    guesses: vec![("ok".into(), Value::Bool(true))],
                }
            } else {
                st.pc = ClPc::Finished;
                Effect::Done
            }
        }
        fn s2(st: &mut TallyState) -> Effect {
            // S2 reads the guessed/actual result.
            if st.ok {
                st.good += 1;
            } else {
                st.bad += 1;
            }
            st.i += 1;
            top(st)
        }
        match (&st.pc, resume) {
            (ClPc::Top, Resume::Start) => top(st),
            (ClPc::Forked, Resume::ForkLeft | Resume::ForkDenied) => {
                st.pc = ClPc::Await;
                Effect::call(
                    self.server,
                    Value::Int(st.i as i64),
                    format!("C{}", st.i + 1),
                )
            }
            (ClPc::Forked, Resume::ForkRight { guesses }) => {
                st.ok = guesses
                    .iter()
                    .find(|(k, _)| k == "ok")
                    .map(|(_, v)| v.is_true())
                    .unwrap_or(false);
                s2(st)
            }
            (ClPc::Await, Resume::Msg(env)) => {
                st.ok = env.payload.is_true();
                st.pc = ClPc::Joining;
                Effect::JoinLeft {
                    actual: vec![("ok".into(), Value::Bool(st.ok))],
                }
            }
            (ClPc::Joining, Resume::JoinSequential) => s2(st),
            (_, r) => panic!("TallyClient: unexpected resume {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "TallyClient"
    }

    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(vec![self.server])
    }
}

/// Deterministic per-line failure decision with rate `p` (per mille) under
/// `seed` — a tiny splitmix-style hash so runs are reproducible.
pub fn line_fails(seed: u64, line: u32, p_per_mille: u32) -> bool {
    let mut x = seed ^ ((line as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % 1000) < p_per_mille as u64
}

/// E3 scenario: all `n` lines pushed; each independently fails with
/// probability `p_per_mille`/1000.
#[derive(Debug, Clone)]
pub struct TallyOpts {
    pub n: u32,
    pub latency: u64,
    pub p_per_mille: u32,
    pub seed: u64,
    pub core: CoreConfig,
}

impl Default for TallyOpts {
    fn default() -> Self {
        TallyOpts {
            n: 16,
            latency: 50,
            p_per_mille: 0,
            seed: 1,
            core: CoreConfig::default(),
        }
    }
}

/// The tally (continue-on-failure) streaming world, not yet built.
pub fn tally_builder(opts: &TallyOpts) -> SimBuilder {
    let cfg = SimConfig {
        core: opts.core.clone(),
        latency: LatencyModel::fixed(opts.latency),
        ..SimConfig::default()
    };
    let mut b = SimBuilder::new(cfg);
    let c = b.add_process(TallyClient {
        n: opts.n,
        server: SERVER,
    });
    let (p, seed) = (opts.p_per_mille, opts.seed);
    let s = b.add_process(Server::new("WindowManager", 1).with_reply(move |line| {
        let i = line.as_int().unwrap_or(-1) as u32;
        Value::Bool(!line_fails(seed, i, p))
    }));
    debug_assert_eq!((c, s), (CLIENT, SERVER));
    b
}

/// Run the tally scenario.
pub fn run_tally(opts: TallyOpts) -> SimResult {
    tally_builder(&opts).build().run()
}

/// Build `pairs` independent client→server pairs on the real-thread
/// runtime: client `2k` streams `n` calls to server `2k+1` and no link
/// ever crosses a pair. The executor-scaling workload — with a shared
/// consumer (fan-in) one actor serializes the run, whereas independent
/// pairs let committed-calls/sec grow with the worker count until the
/// pool, not the protocol, is the bottleneck. Behaviors are shared
/// `Arc` templates per role, so a 4096-process world registers without
/// an O(N) construction spike (see `fan_in::rt_fan_in_world`).
pub fn rt_pairs_world(pairs: u32, n: u32, cfg: opcsp_rt::RtConfig) -> opcsp_rt::RtWorld {
    let mut w = opcsp_rt::RtWorld::new(cfg);
    let server: Arc<dyn Behavior> =
        Arc::new(Server::new("S", 0).with_reply(|_| Value::Bool(true)));
    for k in 0..pairs {
        let c = w.add_process(PutLineClient::to(n, ProcessId(2 * k + 1)), true);
        let s = w.add_process_arc(server.clone(), false);
        debug_assert_eq!((c, s), (ProcessId(2 * k), ProcessId(2 * k + 1)));
    }
    w
}

/// Number of lines the client successfully delivered, per the committed
/// external record — here, the count of successful calls in the client log.
pub fn delivered_lines(result: &SimResult) -> usize {
    result
        .logs
        .get(&CLIENT)
        .map(|log| {
            log.iter()
                .filter(|o| {
                    matches!(o, opcsp_sim::Observable::Received { payload, .. } if payload.is_true())
                })
                .count()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_fails_is_deterministic_and_rate_bounded() {
        for p in [0u32, 250, 500, 1000] {
            let hits = (0..1000).filter(|&i| line_fails(7, i, p)).count();
            let again = (0..1000).filter(|&i| line_fails(7, i, p)).count();
            assert_eq!(hits, again, "determinism at p={p}");
            match p {
                0 => assert_eq!(hits, 0),
                1000 => assert_eq!(hits, 1000),
                _ => {
                    let expect = p as usize;
                    assert!(hits.abs_diff(expect) < expect / 2, "p={p}: got {hits}/1000");
                }
            }
        }
    }

    #[test]
    fn different_seeds_fail_different_lines() {
        let a: Vec<u32> = (0..64).filter(|&i| line_fails(1, i, 300)).collect();
        let b: Vec<u32> = (0..64).filter(|&i| line_fails(2, i, 300)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn delivered_lines_counts_only_successes() {
        let r = run_streaming(StreamingOpts {
            n: 6,
            fail_lines: std::collections::BTreeSet::from([2]),
            ..StreamingOpts::default()
        });
        assert_eq!(delivered_lines(&r), 2);
    }

    #[test]
    fn tally_counts_good_and_bad() {
        let r = run_tally(TallyOpts {
            n: 10,
            p_per_mille: 0,
            ..TallyOpts::default()
        });
        assert!(r.unresolved.is_empty());
        assert_eq!(r.stats().aborts, 0);
        let all_fail = run_tally(TallyOpts {
            n: 10,
            p_per_mille: 1000,
            ..TallyOpts::default()
        });
        assert!(all_fail.unresolved.is_empty());
        assert!(all_fail.stats().value_faults >= 1);
    }
}
