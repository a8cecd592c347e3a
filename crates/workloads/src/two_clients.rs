//! Two optimistically parallelized processes (Figures 6 and 7).
//!
//! Figure 6 (success): X forks `x1` and Z forks `z1`. X's right thread
//! sends `M1{x1}` to Z's left thread, so `z1`'s commit comes to depend on
//! `x1`: Z broadcasts `PRECEDENCE(z1, {x1})` and waits. When `x1` commits,
//! `z1` commits too, and W — which received `M2{z1}` from Z's right
//! thread — finally releases its buffered display output.
//!
//! Figure 7 (cycle): X's left thread calls Y while Z's right thread sends
//! `M1{z1}` to Y; if M1 contaminates Y before it replies, X's left guard
//! ends as `{z1}`. Symmetrically Z's left guard ends as `{x1}` (via W and
//! `M2{x1}`). The crossing PRECEDENCE messages close the cycle
//! `z1 → x1 → z1`; both guesses abort, Y and W roll back, and both
//! processes re-execute sequentially.

use crate::servers::{DisplaySink, Server};
use opcsp_core::{CoreConfig, ProcessId, Value};
use opcsp_sim::{
    Behavior, BehaviorState, Effect, LatencyModel, Resume, SimBuilder, SimConfig, SimResult,
};

pub const X: ProcessId = ProcessId(0);
pub const Y: ProcessId = ProcessId(1);
pub const Z: ProcessId = ProcessId(2);
pub const W: ProcessId = ProcessId(3);

// ---------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------

/// Figure 6's X: S1 = call Y; S2 = send M1 to Z.
pub struct Fig6X;

#[derive(Clone)]
enum F6XPc {
    Init,
    Forked,
    AwaitR1,
    Joining,
    SentM1,
}

impl Behavior for Fig6X {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(F6XPc::Init)
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let pc = state.get_mut::<F6XPc>();
        match (pc.clone(), resume) {
            (F6XPc::Init, Resume::Start) => {
                *pc = F6XPc::Forked;
                Effect::Fork {
                    site: 1,
                    guesses: vec![],
                }
            }
            (F6XPc::Forked, Resume::ForkLeft | Resume::ForkDenied) => {
                *pc = F6XPc::AwaitR1;
                Effect::call(Y, Value::Int(1), "C1")
            }
            (F6XPc::Forked, Resume::ForkRight { .. }) => {
                *pc = F6XPc::SentM1;
                Effect::send(Z, Value::str("m1-data"), "M1")
            }
            (F6XPc::AwaitR1, Resume::Msg(_)) => {
                *pc = F6XPc::Joining;
                Effect::JoinLeft { actual: vec![] }
            }
            (F6XPc::Joining, Resume::JoinSequential) => {
                *pc = F6XPc::SentM1;
                Effect::send(Z, Value::str("m1-data"), "M1")
            }
            (F6XPc::SentM1, Resume::Continue) => Effect::Done,
            (_, r) => panic!("Fig6X: unexpected resume {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "Fig6X"
    }
}

/// Figure 6's Z: S1 = receive M1, then call W; S2 = local computation,
/// then send M2 to W.
///
/// The S2 computation delay keeps the speculative M2 from overtaking the
/// S1 call at W (which would contaminate W's reply with z1 and turn the
/// scenario into a self time fault — a Figure 7 variant instead).
pub struct Fig6Z {
    pub s2_compute: u64,
}

#[derive(Clone)]
enum F6ZPc {
    Init,
    Forked,
    AwaitM1,
    AwaitR2,
    Joining,
    S2Compute,
    SentM2,
}

impl Behavior for Fig6Z {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(F6ZPc::Init)
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let pc = state.get_mut::<F6ZPc>();
        match (pc.clone(), resume) {
            (F6ZPc::Init, Resume::Start) => {
                *pc = F6ZPc::Forked;
                Effect::Fork {
                    site: 1,
                    guesses: vec![],
                }
            }
            (F6ZPc::Forked, Resume::ForkLeft | Resume::ForkDenied) => {
                *pc = F6ZPc::AwaitM1;
                Effect::Receive
            }
            // S2, speculative or sequential: compute, then notify W.
            (F6ZPc::Forked, Resume::ForkRight { .. })
            | (F6ZPc::Joining, Resume::JoinSequential) => {
                *pc = F6ZPc::S2Compute;
                Effect::Compute {
                    cost: self.s2_compute,
                }
            }
            (F6ZPc::AwaitM1, Resume::Msg(_m1)) => {
                *pc = F6ZPc::AwaitR2;
                Effect::call(W, Value::Int(2), "C2")
            }
            (F6ZPc::AwaitR2, Resume::Msg(_)) => {
                *pc = F6ZPc::Joining;
                Effect::JoinLeft { actual: vec![] }
            }
            (F6ZPc::S2Compute, Resume::Continue) => {
                *pc = F6ZPc::SentM2;
                Effect::send(W, Value::str("m2-data"), "M2")
            }
            (F6ZPc::SentM2, Resume::Continue) => Effect::Done,
            (_, r) => panic!("Fig6Z: unexpected resume {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "Fig6Z"
    }
}

/// Build and run the Figure 6 scenario.
///
/// Y's service time is slow (3d) so that z1's join happens while x1 is
/// still unresolved — opening the PRECEDENCE window; Z's S2 computation
/// (3d) keeps the speculative M2 behind the S1 call at W.
pub fn run_fig6(core: CoreConfig, d: u64) -> SimResult {
    let cfg = SimConfig {
        core,
        latency: LatencyModel::fixed(d),
        ..SimConfig::default()
    };
    let mut b = SimBuilder::new(cfg);
    let x = b.add_process(Fig6X);
    let y = b.add_process(Server::new("Y", 3 * d));
    let z = b.add_process(Fig6Z { s2_compute: 3 * d });
    let w = b.add_process(DisplaySink::new("W"));
    debug_assert_eq!((x, y, z, w), (X, Y, Z, W));
    b.build().run()
}

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

/// Figure 7 client: S1 = call `server`; S2 = send M to `peer_server`.
/// X calls Y and sends M2 to W; Z calls W and sends M1 to Y. With the
/// right timing the one-way sends contaminate the servers before they
/// reply, creating the cross dependency.
pub struct Fig7Client {
    pub name: String,
    pub server: ProcessId,
    pub peer_server: ProcessId,
    pub call_label: String,
    pub send_label: String,
}

#[derive(Clone)]
enum F7Pc {
    Init,
    Forked,
    AwaitReturn,
    Joining,
    Sent,
}

impl Behavior for Fig7Client {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(F7Pc::Init)
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let pc = state.get_mut::<F7Pc>();
        match (pc.clone(), resume) {
            (F7Pc::Init, Resume::Start) => {
                *pc = F7Pc::Forked;
                Effect::Fork {
                    site: 1,
                    guesses: vec![],
                }
            }
            (F7Pc::Forked, Resume::ForkLeft | Resume::ForkDenied) => {
                *pc = F7Pc::AwaitReturn;
                Effect::call(self.server, Value::Int(0), self.call_label.clone())
            }
            (F7Pc::Forked, Resume::ForkRight { .. }) => {
                *pc = F7Pc::Sent;
                Effect::send(
                    self.peer_server,
                    Value::str("spec"),
                    self.send_label.clone(),
                )
            }
            (F7Pc::AwaitReturn, Resume::Msg(_)) => {
                *pc = F7Pc::Joining;
                Effect::JoinLeft { actual: vec![] }
            }
            (F7Pc::Joining, Resume::JoinSequential) => {
                *pc = F7Pc::Sent;
                Effect::send(
                    self.peer_server,
                    Value::str("spec"),
                    self.send_label.clone(),
                )
            }
            (F7Pc::Sent, Resume::Continue) => Effect::Done,
            (_, r) => panic!("{}: unexpected resume {r:?}", self.name),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(vec![self.server, self.peer_server])
    }
}

/// A server whose service time is long enough that a one-way send can slip
/// in between receiving a call and replying — use compute cost ≫ latency
/// asymmetry to force the Figure 7 contamination.
pub fn run_fig7(core: CoreConfig, d: u64) -> SimResult {
    // The speculative sends (Z's M1 → Y, X's M2 → W) travel on faster
    // links than the calls, so each server consumes the contaminating send
    // before servicing the call and its reply carries the foreign guess —
    // the cross-dependency of Figure 7.
    let latency = LatencyModel::per_link(d)
        .link(Z, Y, d / 2)
        .link(X, W, d / 2)
        .build();
    let cfg = SimConfig {
        core,
        latency,
        ..SimConfig::default()
    };
    let mut b = SimBuilder::new(cfg);
    let x = b.add_process(Fig7Client {
        name: "Fig7X".into(),
        server: Y,
        peer_server: W,
        call_label: "C1".into(),
        send_label: "M2".into(),
    });
    let y = b.add_process(Server::new("Y", 1));
    let z = b.add_process(Fig7Client {
        name: "Fig7Z".into(),
        server: W,
        peer_server: Y,
        call_label: "C2".into(),
        send_label: "M1".into(),
    });
    let w = b.add_process(Server::new("W", 1));
    debug_assert_eq!((x, y, z, w), (X, Y, Z, W));
    b.build().run()
}
