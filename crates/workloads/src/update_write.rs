//! The paper's running example (Figures 1–5): client X performs
//!
//! ```text
//! /* S1 */ OK = Update(Item, Value);   — a call to database server Y,
//!                                        which writes through to the
//!                                        filesystem server Z
//! /* S2 */ if OK { Write(File, ...) }  — a direct call to Z
//! ```
//!
//! The optimistic transformation forks at the S1/S2 boundary guessing
//! `OK = true`. Depending on latencies and on whether Update succeeds, the
//! execution reproduces Figure 2 (pessimistic), Figure 3 (successful
//! streaming), Figure 4 (time fault: X's call reaches Z before Y's), or
//! Figure 5 (value fault and sequential re-execution).

use crate::servers::{ForwardServer, Server};
use opcsp_core::{CoreConfig, ProcessId, Value};
use opcsp_sim::{
    Behavior, BehaviorState, Effect, LatencyModel, Resume, SimBuilder, SimConfig, SimResult,
};

pub const X: ProcessId = ProcessId(0);
pub const Y: ProcessId = ProcessId(1);
pub const Z: ProcessId = ProcessId(2);

/// The client process X of Figure 1.
pub struct UpdateWriteClient;

#[derive(Clone)]
enum Pc {
    Init,
    Forked,
    AwaitR1,
    Joining,
    AwaitR3,
    Finished,
}

#[derive(Clone)]
struct XState {
    pc: Pc,
    ok: bool,
}

impl UpdateWriteClient {
    fn s2(&self, st: &mut XState) -> Effect {
        if st.ok {
            st.pc = Pc::AwaitR3;
            Effect::call(Z, Value::str("file-data"), "C3")
        } else {
            st.pc = Pc::Finished;
            Effect::Done
        }
    }
}

impl Behavior for UpdateWriteClient {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(XState {
            pc: Pc::Init,
            ok: false,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<XState>();
        match (&st.pc, resume) {
            (Pc::Init, Resume::Start) => {
                st.pc = Pc::Forked;
                Effect::Fork {
                    site: 1,
                    guesses: vec![("ok".into(), Value::Bool(true))],
                }
            }
            // Left thread (or pessimistic inline): execute S1 — the Update
            // call to the database server Y.
            (Pc::Forked, Resume::ForkLeft | Resume::ForkDenied) => {
                st.pc = Pc::AwaitR1;
                Effect::call(
                    Y,
                    Value::record([
                        ("item".to_string(), Value::Int(7)),
                        ("value".to_string(), Value::Int(42)),
                    ]),
                    "C1",
                )
            }
            // Right thread: adopt the guess and run S2.
            (Pc::Forked, Resume::ForkRight { guesses }) => {
                st.ok = guesses
                    .iter()
                    .find(|(k, _)| k == "ok")
                    .map(|(_, v)| v.is_true())
                    .unwrap_or(false);
                self.s2(st)
            }
            (Pc::AwaitR1, Resume::Msg(env)) => {
                st.ok = env.payload.is_true();
                st.pc = Pc::Joining;
                Effect::JoinLeft {
                    actual: vec![("ok".into(), Value::Bool(st.ok))],
                }
            }
            (Pc::Joining, Resume::JoinSequential) => self.s2(st),
            (Pc::AwaitR3, Resume::Msg(_)) => {
                st.pc = Pc::Finished;
                Effect::Done
            }
            (_, r) => panic!("X: unexpected resume {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "X(update-write)"
    }
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct UpdateWriteOpts {
    /// Does the Update succeed? `false` reproduces the Figure 5 value
    /// fault.
    pub update_succeeds: bool,
    /// Latency model. Symmetric latencies make X's speculative C3 reach Z
    /// before Y's C2 — Figure 4's time fault. To get Figure 3, slow the
    /// X→Z link (see [`fig3_latency`]).
    pub latency: LatencyModel,
    /// Run optimistically (Figures 3–5) or pessimistically (Figure 2).
    pub server_compute: u64,
    pub core: CoreConfig,
}

impl Default for UpdateWriteOpts {
    fn default() -> Self {
        UpdateWriteOpts {
            update_succeeds: true,
            latency: fig3_latency(10),
            server_compute: 1,
            core: CoreConfig::default(),
        }
    }
}

/// Latency that produces the *successful* Figure 3 ordering: the direct
/// X→Z link is slow enough that Z sees C2 (via Y) before C3.
pub fn fig3_latency(d: u64) -> LatencyModel {
    LatencyModel::per_link(d).link(X, Z, 3 * d).build()
}

/// Symmetric latency: X's speculative C3 wins the race to Z — Figure 4.
pub fn fig4_latency(d: u64) -> LatencyModel {
    LatencyModel::fixed(d)
}

/// Build and run the scenario.
pub fn run_update_write(opts: UpdateWriteOpts) -> SimResult {
    let cfg = SimConfig {
        core: opts.core.clone(),
        latency: opts.latency.clone(),
        ..SimConfig::default()
    };
    let mut b = SimBuilder::new(cfg);
    let x = b.add_process(UpdateWriteClient);
    let succeeds = opts.update_succeeds;
    let y = b.add_process(
        ForwardServer::new("Y(db)", Z, "C2")
            .with_compute(opts.server_compute)
            .with_reply(move |down| {
                if succeeds {
                    down.clone()
                } else {
                    Value::Bool(false)
                }
            }),
    );
    let z = b.add_process(Server::new("Z(fs)", opts.server_compute));
    debug_assert_eq!((x, y, z), (X, Y, Z));
    b.build().run()
}
