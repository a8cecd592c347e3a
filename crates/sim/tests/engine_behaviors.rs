#![allow(clippy::type_complexity)]

//! Behavioral tests of the simulation engine using hand-built
//! `FnBehavior` state machines: delivery rules, external buffering,
//! timeouts, truncation, and multi-thread servers.

use opcsp_core::{CoreConfig, DataKind, ProcessId, Value};
use opcsp_sim::{Effect, FnBehavior, LatencyModel, Resume, SimBuilder, SimConfig, TraceEvent};

fn cfg(optimism: bool) -> SimConfig {
    SimConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency: LatencyModel::fixed(10),
        // Several tests here read the run's trace.
        record: true,
        ..SimConfig::default()
    }
}

/// A one-shot sender.
fn sender(
    to: ProcessId,
    payload: i64,
    label: &str,
) -> FnBehavior<u8, impl Fn(&mut u8, Resume) -> Effect> {
    let label = label.to_string();
    FnBehavior::new("sender", 0u8, move |pc, resume| match (*pc, resume) {
        (0, Resume::Start) => {
            *pc = 1;
            Effect::send(to, payload, label.clone())
        }
        (1, Resume::Continue) => Effect::Done,
        (_, r) => panic!("sender: {r:?}"),
    })
}

/// Absorbs `n` messages, then finishes, recording payload order in state.
fn collector(
    n: usize,
) -> FnBehavior<(usize, Vec<Value>), impl Fn(&mut (usize, Vec<Value>), Resume) -> Effect> {
    FnBehavior::new(
        "collector",
        (n, Vec::new()),
        move |st, resume| match resume {
            Resume::Start | Resume::Continue => {
                if st.1.len() < st.0 {
                    Effect::Receive
                } else {
                    Effect::Done
                }
            }
            Resume::Msg(env) => {
                st.1.push(env.payload);
                if st.1.len() < st.0 {
                    Effect::Receive
                } else {
                    Effect::Done
                }
            }
            r => panic!("collector: {r:?}"),
        },
    )
}

#[test]
fn sends_deliver_in_latency_order() {
    let mut b = SimBuilder::new(cfg(false));
    let col = ProcessId(2);
    b.add_process(sender(col, 1, "A"));
    b.add_process(sender(col, 2, "B"));
    b.add_process(collector(2));
    let r = b.build().run();
    assert!(!r.truncated);
    let recvs: Vec<&TraceEvent> = r
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Deliver { .. }))
        .collect();
    assert_eq!(recvs.len(), 2);
}

#[test]
fn compute_advances_virtual_time() {
    let mut b = SimBuilder::new(cfg(false));
    b.add_process(FnBehavior::new("worker", 0u8, |pc, resume| {
        match (*pc, resume) {
            (0, Resume::Start) => {
                *pc = 1;
                Effect::Compute { cost: 500 }
            }
            (1, Resume::Continue) => Effect::Done,
            (_, r) => panic!("{r:?}"),
        }
    }));
    let r = b.build().run();
    assert!(r.completion >= 500);
}

#[test]
fn unguarded_external_output_is_immediate() {
    let mut b = SimBuilder::new(cfg(true));
    b.add_process(FnBehavior::new("printer", 0u8, |pc, resume| {
        match (*pc, resume) {
            (0, Resume::Start) => {
                *pc = 1;
                Effect::External {
                    payload: Value::str("hello"),
                }
            }
            (1, Resume::Continue) => Effect::Done,
            (_, r) => panic!("{r:?}"),
        }
    }));
    let r = b.build().run();
    assert_eq!(r.external.len(), 1);
    assert!(r.trace.iter().any(|e| matches!(
        e,
        TraceEvent::External {
            buffered: false,
            ..
        }
    )));
}

#[test]
fn fork_timeout_aborts_diverging_left_thread() {
    // S1 never completes (the call target never replies): the fork timeout
    // must abort the guess so the system stays live (§3.2).
    let silent = ProcessId(1);
    let mut b = SimBuilder::new(SimConfig {
        fork_timeout: 500,
        ..cfg(true)
    });
    b.add_process(FnBehavior::new("diverger", 0u8, move |pc, resume| {
        match (*pc, resume) {
            (0, Resume::Start) => {
                *pc = 1;
                Effect::Fork {
                    site: 1,
                    guesses: vec![],
                }
            }
            // S1: a call that will never return.
            (1, Resume::ForkLeft | Resume::ForkDenied) => {
                *pc = 2;
                Effect::call(silent, 0i64, "C1")
            }
            // S2 (speculative): an output we can watch being buffered.
            (1, Resume::ForkRight { .. }) => {
                *pc = 3;
                Effect::External {
                    payload: Value::str("speculative"),
                }
            }
            (3, Resume::Continue) => Effect::Done,
            (2, Resume::Msg(_)) => Effect::Done,
            (_, r) => panic!("diverger: {r:?}"),
        }
    }));
    // A server that absorbs calls without replying.
    b.add_process(FnBehavior::new(
        "blackhole",
        0u8,
        |_pc, resume| match resume {
            Resume::Start | Resume::Continue | Resume::Msg(_) => Effect::Receive,
            r => panic!("blackhole: {r:?}"),
        },
    ));
    let r = b.build().run();
    assert!(r.stats().timeouts >= 1, "timeout must fire");
    assert!(r.stats().aborts >= 1);
    // The speculative output never escapes.
    assert!(r.external.is_empty(), "aborted speculation must not output");
}

#[test]
fn max_events_truncates_runaway_systems() {
    // Two processes ping-ponging forever.
    let mut b = SimBuilder::new(SimConfig {
        max_events: 500,
        ..cfg(false)
    });
    let other = ProcessId(1);
    let me = ProcessId(0);
    let ping = move |target: ProcessId| {
        FnBehavior::new("ping", 0u64, move |n, resume| match resume {
            Resume::Start => Effect::send(target, 0i64, "P"),
            Resume::Continue => Effect::Receive,
            Resume::Msg(env) => {
                *n += 1;
                Effect::send(target, env.payload.as_int().unwrap_or(0) + 1, "P")
            }
            r => panic!("{r:?}"),
        })
    };
    b.add_process(ping(other));
    b.add_process(ping(me));
    let r = b.build().run();
    assert!(r.truncated, "ping-pong must hit the event cap");
}

#[test]
fn two_receivers_get_distinct_messages() {
    // One process with... two separate receiver processes, one sender
    // each: no message is delivered twice (conservation at engine level).
    let mut b = SimBuilder::new(cfg(false));
    b.add_process(sender(ProcessId(2), 7, "A"));
    b.add_process(sender(ProcessId(3), 8, "B"));
    b.add_process(collector(1));
    b.add_process(collector(1));
    let r = b.build().run();
    let delivered: Vec<_> = r
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Deliver { to, .. } => Some(to.process),
            _ => None,
        })
        .collect();
    assert_eq!(delivered.len(), 2);
    assert!(delivered.contains(&ProcessId(2)));
    assert!(delivered.contains(&ProcessId(3)));
}

#[test]
fn pessimistic_mode_denies_all_forks() {
    let mut b = SimBuilder::new(cfg(false));
    b.add_process(FnBehavior::new("optimist", 0u8, |pc, resume| {
        match (*pc, resume) {
            (0, Resume::Start) => {
                *pc = 1;
                Effect::Fork {
                    site: 1,
                    guesses: vec![("v".into(), Value::Int(1))],
                }
            }
            (1, Resume::ForkDenied) => {
                *pc = 2;
                Effect::JoinLeft {
                    actual: vec![("v".into(), Value::Int(1))],
                }
            }
            (1, Resume::ForkLeft | Resume::ForkRight { .. }) => {
                panic!("fork must be denied in pessimistic mode")
            }
            (2, Resume::JoinSequential) => Effect::Done,
            (_, r) => panic!("{r:?}"),
        }
    }));
    let r = b.build().run();
    assert_eq!(r.stats().forks, 0);
    assert!(!r.truncated);
}

#[test]
fn retry_limit_denies_forks_after_budget() {
    // Deterministically wrong guess with L=1: the first fork aborts, the
    // second attempt at the same site must be denied.
    let server = ProcessId(1);
    let mut b = SimBuilder::new(SimConfig {
        core: CoreConfig::static_limit(1),
        ..cfg(true)
    });
    b.add_process(FnBehavior::new("wrong", (0u8, 0u8), move |st, resume| {
        match (st.0, resume) {
            (0, Resume::Start) => {
                st.0 = 1;
                Effect::Fork {
                    site: 9,
                    guesses: vec![("v".into(), Value::Int(999))],
                }
            }
            (1, Resume::ForkLeft | Resume::ForkDenied) => {
                st.0 = 2;
                Effect::call(server, 0i64, "C")
            }
            (1, Resume::ForkRight { .. }) => {
                st.0 = 5;
                Effect::Done // speculative continuation (will be discarded)
            }
            (2, Resume::Msg(env)) => {
                st.0 = 3;
                Effect::JoinLeft {
                    actual: vec![("v".into(), env.payload)],
                }
            }
            (3, Resume::JoinSequential) => {
                // Try again: second iteration at the same site.
                if st.1 == 0 {
                    st.1 = 1;
                    st.0 = 1;
                    Effect::Fork {
                        site: 9,
                        guesses: vec![("v".into(), Value::Int(999))],
                    }
                } else {
                    Effect::Done
                }
            }
            (_, r) => panic!("wrong: {r:?}"),
        }
    }));
    b.add_process(FnBehavior::new("server", 0u8, |_pc, resume| match resume {
        Resume::Start | Resume::Continue => Effect::Receive,
        Resume::Msg(env) => {
            if matches!(env.kind, DataKind::Call(_)) {
                Effect::reply(Value::Int(1), "R")
            } else {
                Effect::Receive
            }
        }
        r => panic!("server: {r:?}"),
    }));
    let r = b.build().run();
    assert_eq!(r.stats().forks, 1, "second fork must be denied by L=1");
    assert_eq!(r.stats().value_faults, 1);
    assert!(r.unresolved.is_empty());
}

/// Regression: buffered external outputs whose guards were already
/// committed must be released when a *rollback* (for an unrelated later
/// guess) filters the resolved guesses out of the restored guard.
/// (Found by the remote_display example: a server buffered outputs under
/// {x1..x4}, all four committed, but the flush only happened after the
/// abort of x5 — and the abort path never flushed.)
#[test]
fn buffered_outputs_release_after_unrelated_abort() {
    use opcsp_core::Value;
    // Client streams 3 guarded requests; the server externals each one;
    // request 3 is rejected (value fault) while 1..2 commit.
    let server = ProcessId(1);
    let mut b = SimBuilder::new(SimConfig {
        latency: LatencyModel::fixed(50),
        ..SimConfig::default()
    });
    b.add_process(FnBehavior::new(
        "client",
        (0u32, true, 0u8),
        move |st, resume| {
            let (i, ok, pc) = st;
            match (*pc, resume) {
                (0, Resume::Start) => {
                    if *i < 3 {
                        *pc = 1;
                        Effect::Fork {
                            site: 1,
                            guesses: vec![("ok".into(), Value::Bool(true))],
                        }
                    } else {
                        Effect::Done
                    }
                }
                (1, Resume::ForkLeft | Resume::ForkDenied) => {
                    *pc = 2;
                    Effect::call(server, *i as i64, format!("C{}", *i + 1))
                }
                (1, Resume::ForkRight { .. }) => {
                    *i += 1;
                    *pc = 0;
                    if *i < 3 {
                        *pc = 1;
                        Effect::Fork {
                            site: 1,
                            guesses: vec![("ok".into(), Value::Bool(true))],
                        }
                    } else {
                        Effect::Done
                    }
                }
                (2, Resume::Msg(env)) => {
                    *ok = env.payload.is_true();
                    *pc = 3;
                    Effect::JoinLeft {
                        actual: vec![("ok".into(), Value::Bool(*ok))],
                    }
                }
                (3, Resume::JoinSequential) => {
                    if *ok {
                        *i += 1;
                        *pc = 1;
                        Effect::Fork {
                            site: 1,
                            guesses: vec![("ok".into(), Value::Bool(true))],
                        }
                    } else {
                        Effect::Done
                    }
                }
                (_, r) => panic!("client: {r:?}"),
            }
        },
    ));
    b.add_process(FnBehavior::new("display", 0u8, |pc, resume| {
        match (*pc, resume) {
            (0, Resume::Start | Resume::Continue) => Effect::Receive,
            (0, Resume::Msg(env)) => {
                let i = env.payload.as_int().unwrap_or(0);
                *pc = if i < 2 { 1 } else { 2 };
                Effect::External {
                    payload: env.payload,
                }
            }
            (1, Resume::Continue) => {
                *pc = 0;
                Effect::reply(Value::Bool(true), "")
            }
            (2, Resume::Continue) => {
                *pc = 0;
                Effect::reply(Value::Bool(false), "")
            }
            (_, r) => panic!("display: {r:?}"),
        }
    }));
    let r = b.build().run();
    assert!(r.unresolved.is_empty());
    assert!(r.stats().value_faults >= 1);
    // All three lines were displayed before the third's rejection (the
    // display outputs, then replies): every committed output must be
    // released despite the abort of x3 and the discarded speculation.
    let out: Vec<i64> = r
        .external
        .iter()
        .filter_map(|(_, _, v)| v.as_int())
        .collect();
    assert_eq!(out, vec![0, 1, 2], "committed outputs must not be stranded");
}
