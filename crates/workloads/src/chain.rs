//! A depth-`k` pipeline of *optimistic forwarders*: each hop services a
//! call by forking — S1 calls the next hop and verifies success, while S2
//! replies success upstream immediately and loops to serve the next
//! request. This applies the call-streaming idea at every hop, so an item
//! flows through the whole chain in one direction without waiting for any
//! round trip; the commit wave follows behind.
//!
//! A failure injected at the terminal server causes a value fault at the
//! last hop whose ABORT cascades back through every dependent hop — the
//! rollback-depth experiment, and a stress test of the PRECEDENCE
//! machinery (each hop's guess awaits the downstream hop's guesses).

use crate::servers::reply_label;
use opcsp_core::{CoreConfig, DataKind, ProcessId, Value};
use opcsp_sim::{Behavior, BehaviorState, Effect, Resume};
use std::collections::BTreeSet;

/// A server that speculatively acknowledges upstream before its downstream
/// call completes.
pub struct OptimisticForwarder {
    pub name: String,
    pub downstream: ProcessId,
    pub compute: u64,
}

#[derive(Clone)]
enum FwdPc {
    Idle,
    Forked { payload: Value, reply_to: String },
    AwaitDown { reply_to: String },
    Joining { reply_to: String, ok: bool },
}

impl Behavior for OptimisticForwarder {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(FwdPc::Idle)
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let pc = state.get_mut::<FwdPc>();
        match (pc.clone(), resume) {
            (FwdPc::Idle, Resume::Start | Resume::Continue) => Effect::Receive,
            (FwdPc::Idle, Resume::Msg(env)) => match env.kind {
                DataKind::Call(_) => {
                    *pc = FwdPc::Forked {
                        payload: env.payload.clone(),
                        reply_to: reply_label(&env.label),
                    };
                    Effect::Fork {
                        site: 1,
                        guesses: vec![("ok".into(), Value::Bool(true))],
                    }
                }
                _ => Effect::Receive,
            },
            // S1: forward downstream and verify.
            (FwdPc::Forked { payload, reply_to }, Resume::ForkLeft | Resume::ForkDenied) => {
                *pc = FwdPc::AwaitDown { reply_to };
                Effect::call(self.downstream, payload, "Cf")
            }
            // S2 (speculative): acknowledge upstream and serve on.
            (FwdPc::Forked { reply_to, .. }, Resume::ForkRight { .. }) => {
                *pc = FwdPc::Idle;
                Effect::reply(Value::Bool(true), reply_to)
            }
            (FwdPc::AwaitDown { reply_to }, Resume::Msg(ret)) => {
                let ok = ret.payload.is_true();
                *pc = FwdPc::Joining { reply_to, ok };
                Effect::JoinLeft {
                    actual: vec![("ok".into(), Value::Bool(ok))],
                }
            }
            // Sequential S2 after an abort or in pessimistic mode: the
            // truthful reply.
            (FwdPc::Joining { reply_to, ok }, Resume::JoinSequential) => {
                *pc = FwdPc::Idle;
                Effect::reply(Value::Bool(ok), reply_to)
            }
            (_, r) => panic!("{}: unexpected resume {r:?}", self.name),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(vec![self.downstream])
    }
}

/// Chain scenario parameters: the client is process 0, the hops are
/// 1..=depth and the terminal server is depth+1.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainOpts {
    /// Number of forwarding hops between client and terminal server.
    pub depth: u32,
    /// Number of items the client pushes.
    pub n: u32,
    pub latency: u64,
    /// Item values the terminal server rejects.
    pub fail_items: BTreeSet<u32>,
    pub core: CoreConfig,
}

impl Default for ChainOpts {
    fn default() -> Self {
        ChainOpts {
            depth: 3,
            n: 4,
            latency: 20,
            fail_items: BTreeSet::new(),
            core: CoreConfig::default(),
        }
    }
}
