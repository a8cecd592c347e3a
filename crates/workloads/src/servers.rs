//! Reusable server behaviors: a compute-and-reply server and a forwarding
//! server (the paper's database server Y, which services Update by calling
//! the filesystem server Z).

use opcsp_core::{DataKind, ProcessId, Value};
use opcsp_sim::{Behavior, BehaviorState, Effect, Resume};
use std::sync::Arc;

pub use opcsp_sim::reply_label;

type ReplyFn = Arc<dyn Fn(&Value) -> Value + Send + Sync>;

/// A server that loops: receive → compute → reply. One-way sends are
/// absorbed (consumed without a reply).
pub struct Server {
    name: String,
    compute: u64,
    reply: ReplyFn,
}

impl Server {
    pub fn new(name: impl Into<String>, compute: u64) -> Self {
        Server {
            name: name.into(),
            compute,
            reply: Arc::new(|_| Value::Bool(true)),
        }
    }

    /// Override the reply function (default: `Bool(true)`).
    pub fn with_reply(mut self, f: impl Fn(&Value) -> Value + Send + Sync + 'static) -> Self {
        self.reply = Arc::new(f);
        self
    }
}

#[derive(Clone)]
enum ServerPc {
    Idle,
    Respond { payload: Value, label: String },
}

impl Behavior for Server {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(ServerPc::Idle)
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let pc = state.get_mut::<ServerPc>();
        match (pc.clone(), resume) {
            (ServerPc::Idle, Resume::Start | Resume::Continue) => Effect::Receive,
            (ServerPc::Idle, Resume::Msg(env)) => match env.kind {
                DataKind::Call(_) => {
                    *pc = ServerPc::Respond {
                        payload: env.payload.clone(),
                        label: reply_label(&env.label),
                    };
                    Effect::Compute { cost: self.compute }
                }
                // Absorb one-way sends.
                _ => Effect::Receive,
            },
            (ServerPc::Respond { payload, label }, Resume::Continue) => {
                *pc = ServerPc::Idle;
                Effect::reply((self.reply)(&payload), label)
            }
            (_, r) => panic!("{}: unexpected resume {r:?}", self.name),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Only ever replies.
    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(Vec::new())
    }
}

/// A server that services each call by calling a downstream server first —
/// the paper's process Y: `Update` writes the data "by calling process Z,
/// the network filesystem server" (§2).
pub struct ForwardServer {
    name: String,
    downstream: ProcessId,
    forward_label: String,
    compute: u64,
    /// Reply derived from the downstream return value.
    reply: ReplyFn,
}

impl ForwardServer {
    pub fn new(
        name: impl Into<String>,
        downstream: ProcessId,
        forward_label: impl Into<String>,
    ) -> Self {
        ForwardServer {
            name: name.into(),
            downstream,
            forward_label: forward_label.into(),
            compute: 1,
            reply: Arc::new(|down: &Value| down.clone()),
        }
    }

    pub fn with_compute(mut self, c: u64) -> Self {
        self.compute = c;
        self
    }

    /// Override how the reply is derived from the downstream return —
    /// e.g. `|_| Value::Bool(false)` models the failed Update of Figure 5.
    pub fn with_reply(mut self, f: impl Fn(&Value) -> Value + Send + Sync + 'static) -> Self {
        self.reply = Arc::new(f);
        self
    }
}

#[derive(Clone)]
enum FwdPc {
    Idle,
    Forward { payload: Value, reply_label: String },
    AwaitDownstream { reply_label: String },
}

impl Behavior for ForwardServer {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(FwdPc::Idle)
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let pc = state.get_mut::<FwdPc>();
        match (pc.clone(), resume) {
            (FwdPc::Idle, Resume::Start | Resume::Continue) => Effect::Receive,
            (FwdPc::Idle, Resume::Msg(env)) => match env.kind {
                DataKind::Call(_) => {
                    *pc = FwdPc::Forward {
                        payload: env.payload.clone(),
                        reply_label: reply_label(&env.label),
                    };
                    Effect::Compute { cost: self.compute }
                }
                _ => Effect::Receive,
            },
            (
                FwdPc::Forward {
                    payload,
                    reply_label,
                },
                Resume::Continue,
            ) => {
                *pc = FwdPc::AwaitDownstream { reply_label };
                Effect::call(self.downstream, payload, self.forward_label.clone())
            }
            (FwdPc::AwaitDownstream { reply_label }, Resume::Msg(ret)) => {
                *pc = FwdPc::Idle;
                Effect::reply((self.reply)(&ret.payload), reply_label)
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

/// A sink that absorbs one-way sends and emits each payload as an external
/// output (workstation display / printer, §3.2); replies `true` to calls.
pub struct DisplaySink {
    name: String,
}

impl DisplaySink {
    pub fn new(name: impl Into<String>) -> Self {
        DisplaySink { name: name.into() }
    }
}

#[derive(Clone)]
enum SinkPc {
    Idle,
    Emit { reply: Option<String> },
}

impl Behavior for DisplaySink {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(SinkPc::Idle)
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let pc = state.get_mut::<SinkPc>();
        match (pc.clone(), resume) {
            (SinkPc::Idle, Resume::Start | Resume::Continue) => Effect::Receive,
            (SinkPc::Idle, Resume::Msg(env)) => {
                let reply = match env.kind {
                    DataKind::Call(_) => Some(reply_label(&env.label)),
                    _ => None,
                };
                *pc = SinkPc::Emit { reply };
                Effect::External {
                    payload: env.payload,
                }
            }
            (SinkPc::Emit { reply, .. }, Resume::Continue) => {
                *pc = SinkPc::Idle;
                match reply {
                    Some(label) => Effect::reply(Value::Bool(true), label),
                    None => Effect::Receive,
                }
            }
            (_, r) => panic!("{}: unexpected resume {r:?}", self.name),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Only ever replies.
    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_labels_mirror_call_labels() {
        assert_eq!(reply_label("C1"), "R1");
        assert_eq!(reply_label("C12"), "R12");
        assert_eq!(reply_label("M1"), "R:M1");
    }
}
