//! Layer probes: fixed inputs generated once from `--seed`, a timing loop
//! around public calls into one layer, the median ns/op of at least eleven
//! samples. Every probe asserts its result, so it cannot get faster by
//! doing less.

use crate::metrics::median;
use crossbeam::channel::{unbounded, Receiver};
use opcsp_core::{
    decode_frame, encode_frame, Cdg, CompactGuard, CoreConfig, DataKind, EdgeOutcome, Envelope,
    Guard, GuardInterner, GuessId, History, JoinDecision, MsgId, ProcessCore, ProcessId, Value,
};
use opcsp_rt::net::{Payload, Wire};
use opcsp_rt::{
    Delayer, Executor, Mailbox, NetFaults, RtConfig, RtTransport, RtWorld, SockAddr, SockRole,
    Transport,
};
use opcsp_sim::{splitmix64, Effect, FnBehavior, SimConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLES: usize = 11;
const PUTLINE_CSP: &str = include_str!("../../examples/csp/putline.csp");

/// The probes' inputs, all derived from the seed.
struct Inputs {
    /// A 32-guess guard and one overlapping it on half its members.
    guard32: Guard,
    overlap32: Guard,
    /// Eight envelopes, each under a distinct single-guess guard.
    deps: Vec<Envelope>,
    /// A KV `Apply` envelope under an 8-guess guard.
    apply: Envelope,
}

/// 32 guesses: for each of four processes, eight consecutive fork indices
/// from a seeded start plus `shift` (consecutive, because a compact guard
/// is a set of per-process index runs and the probes check round trips).
fn guard32(seed: u64, shift: u32) -> Guard {
    (0..4u32)
        .flat_map(|p| {
            let start = (splitmix64(seed ^ p as u64) % 64) as u32 + shift;
            (start..start + 8).map(move |i| GuessId::first(ProcessId(p), i))
        })
        .collect()
}

fn envelope(to: ProcessId, guard: Guard, payload: Value) -> Envelope {
    Envelope {
        id: MsgId(1),
        from: ProcessId(9),
        from_thread: 0,
        to,
        guard: guard.into(),
        table_acks: vec![],
        kind: DataKind::Send,
        payload,
        label: "A".into(),
        link_seq: 0,
    }
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let key = splitmix64(seed) % 1024;
        Inputs {
            guard32: guard32(seed, 0),
            overlap32: guard32(seed, 4),
            deps: (0..8)
                .map(|i| {
                    envelope(
                        ProcessId(2),
                        Guard::single(GuessId::first(ProcessId(0), i)),
                        Value::Int(1),
                    )
                })
                .collect(),
            apply: envelope(
                ProcessId(5),
                (0..8).map(|i| GuessId::first(ProcessId(0), i)).collect(),
                Value::record([
                    ("pos".to_string(), Value::Int((seed % 1000) as i64)),
                    ("key".to_string(), Value::str(format!("k{key}"))),
                    ("op".to_string(), Value::str("put")),
                    (
                        "val".to_string(),
                        Value::Int(splitmix64(seed ^ 1) as i64 >> 20),
                    ),
                ]),
            ),
        }
    }
}

/// Median time of one `op`, in ns: eleven samples of `iters` calls each.
fn time_ns(iters: u32, mut op: impl FnMut()) -> f64 {
    op(); // warm
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Run every probe; returns `(metric name, value in the catalogue's unit)`.
pub fn run_all(seed: u64, sock_path: &str) -> Vec<(&'static str, f64)> {
    let inp = Inputs::generate(seed);
    let mut out = Vec::new();
    guard_probes(&inp, &mut out);
    core_probes(&inp, &mut out);
    wire_probes(&inp, &mut out);
    net_probes(&inp, &mut out);
    runtime_probes(sock_path, &mut out);
    lang_probes(&mut out);
    out
}

fn guard_probes(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let (base, other) = (&inp.guard32, &inp.overlap32);
    out.push((
        "core.guard.union32_ns",
        time_ns(2000, || {
            let mut u = base.clone();
            u.union_with(black_box(other));
            assert_eq!(u.len(), 48);
            black_box(u);
        }),
    ));
    out.push((
        "core.guard.clone32_ns",
        time_ns(20_000, || {
            let c = black_box(base).clone();
            assert!(c.shares_storage_with(base));
            black_box(c);
        }),
    ));
    let mut interner = GuardInterner::new();
    interner.intern(base);
    out.push((
        "core.guard.intern_hit32_ns",
        time_ns(5000, || {
            let g = interner.intern(black_box(base));
            assert_eq!(g.len(), 32);
            black_box(g);
        }),
    ));
    assert_eq!(
        interner.full_stats().misses,
        1,
        "every timed intern must hit"
    );
    let history = History::new();
    out.push((
        "core.compact.compress_expand32_ns",
        time_ns(1000, || {
            let back = CompactGuard::compress(black_box(base)).expand(&history);
            assert_eq!(&back, base);
            black_box(back);
        }),
    ));
}

fn core_probes(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "core.process.fork_join_commit_ns",
        time_ns(2000, || {
            let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
            let rec = core.fork(0, 1);
            let decision = core.join_left_done(rec.guess, true);
            assert!(
                matches!(&decision, JoinDecision::Commit { committed } if committed == &[rec.guess])
            );
            black_box(decision);
        }),
    ));
    out.push((
        "core.process.deliver_new_dep_ns",
        time_ns(500, || {
            let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
            for e in &inp.deps {
                let effect = core.deliver(0, black_box(e));
                assert_eq!(effect.new_guards.len(), 1);
            }
            black_box(core);
        }) / inp.deps.len() as f64,
    ));
    out.push((
        "core.process.abort_cascade32_us",
        time_ns(200, || {
            // A right-branching chain of 32 forks; abort the first.
            let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
            let first = core.fork(0, 1);
            let mut forked_after = vec![first.right_thread];
            for t in 1..32 {
                forked_after.push(core.fork(t, 1).right_thread);
            }
            let mut effects = core.on_abort(first.guess);
            effects.discard_threads.sort_unstable();
            assert_eq!(effects.discard_threads, forked_after);
            black_box(effects);
        }) / 1000.0,
    ));
    out.push((
        "core.cdg.add_edge_cycle_ns",
        time_ns(500, || {
            let mut cdg = Cdg::new();
            for i in 0..32u32 {
                cdg.add_edge(
                    GuessId::first(ProcessId(i % 4), i),
                    GuessId::first(ProcessId((i + 1) % 4), i + 1),
                );
            }
            // 32 → 0 closes the chain into one cycle through every node.
            let closing = cdg.add_edge(
                GuessId::first(ProcessId(0), 32),
                GuessId::first(ProcessId(0), 0),
            );
            assert!(matches!(&closing, EdgeOutcome::Cycle(on_cycle) if on_cycle.len() == 33));
            black_box(closing);
        }) / 33.0,
    ));
}

fn wire_probes(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let frame = encode_frame(&inp.apply);
    let (decoded, used) = decode_frame(&frame).expect("own frame decodes");
    assert_eq!((&decoded, used), (&inp.apply, frame.len()));
    out.push((
        "core.wire.encode_frame_ns",
        time_ns(2000, || {
            let f = encode_frame(black_box(&inp.apply));
            assert_eq!(f.len(), frame.len());
            black_box(f);
        }),
    ));
    out.push((
        "core.wire.decode_frame_ns",
        time_ns(2000, || {
            let (e, n) = decode_frame(black_box(&frame)).expect("own frame decodes");
            assert_eq!(n, frame.len());
            assert_eq!(e.payload, inp.apply.payload);
            black_box(e);
        }),
    ));
    out.push(("core.wire.frame_bytes", frame.len() as f64));
}

fn recv_frame(rx: &Receiver<Wire>) -> opcsp_rt::net::Frame {
    match rx.try_recv() {
        Ok(Wire::Frame(f)) => f,
        other => panic!("expected a frame on the loop-back link, got {other:?}"),
    }
}

fn net_probes(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    // Two transports loop-backed over direct mailboxes, zero latency:
    // send → frame → peer on_frame → standalone ack → sender on_frame.
    let (tx0, rx0) = unbounded::<Wire>();
    let (tx1, rx1) = unbounded::<Wire>();
    let net = Arc::new(vec![Mailbox::Direct(tx0), Mailbox::Direct(tx1)]);
    let delayer: Arc<Delayer<Wire>> = Arc::new(Delayer::spawn());
    let endpoint = |me: u32| {
        Transport::new(
            ProcessId(me),
            NetFaults::none(),
            Duration::ZERO,
            Instant::now(),
            delayer.clone(),
            net.clone(),
        )
    };
    let (mut a, mut b) = (endpoint(0), endpoint(1));
    let body = Payload::Data(inp.apply.clone());
    let mut sent = 0u64;
    out.push((
        "rt.net.transport_roundtrip_ns",
        time_ns(2000, || {
            a.send(ProcessId(1), body.clone());
            sent += 1;
            let released = b.on_frame(recv_frame(&rx1));
            assert_eq!(released, std::slice::from_ref(&body));
            b.flush_acks();
            assert!(a.on_frame(recv_frame(&rx0)).is_empty());
            assert_eq!(a.quiet_probe(), (sent, 0, 0), "everything sent is acked");
        }),
    ));
    assert_eq!(
        b.quiet_probe().1,
        sent,
        "peer released exactly what was sent"
    );
    drop((a, b));

    let hop: Delayer<u64> = Delayer::spawn();
    let (tx, rx) = unbounded::<u64>();
    let mut next = 0u64;
    out.push((
        "rt.net.delayer_hop_us",
        time_ns(200, || {
            next += 1;
            hop.send_after(Duration::ZERO, tx.clone(), next);
            assert_eq!(rx.recv().ok(), Some(next));
        }) / 1000.0,
    ));
    hop.shutdown();
}

/// 64 processes that return `Effect::Done` at once: spawn + quiescence
/// drain + join, the fixed cost inside every rt rep.
fn empty_world(cfg: RtConfig) -> RtWorld {
    let mut w = RtWorld::new(cfg);
    for _ in 0..64 {
        w.add_process(FnBehavior::new("idle", (), |_, _| Effect::Done), true);
    }
    w
}

fn assert_clean(r: &opcsp_rt::RtResult) {
    assert!(
        !r.timed_out && r.panicked.is_empty() && r.stragglers.is_empty(),
        "empty world did not end cleanly"
    );
    assert_eq!(r.logs.len(), 64, "every process reports");
}

fn runtime_probes(sock_path: &str, out: &mut Vec<(&'static str, f64)>) {
    let cfg = |executor, transport| RtConfig {
        latency: Duration::ZERO,
        executor,
        transport,
        ..RtConfig::default()
    };
    for (name, executor) in [
        ("rt.runtime.empty_world_threaded_ms", Executor::Threaded),
        (
            "rt.runtime.empty_world_sharded_ms",
            Executor::Sharded { workers: 2 },
        ),
    ] {
        out.push((
            name,
            time_ns(1, || {
                assert_clean(&empty_world(cfg(executor, RtTransport::InProc)).run())
            }) / 1e6,
        ));
    }
    let addr = SockAddr::parse(&format!("uds:{sock_path}")).expect("uds path");
    out.push((
        "rt.sock.empty_world_uds_ms",
        time_ns(1, || {
            let role = |role| RtTransport::Socket {
                addr: addr.clone(),
                role,
            };
            let worker = empty_world(cfg(
                Executor::Threaded,
                role(SockRole::Worker {
                    index: 0,
                    workers: 1,
                }),
            ));
            let parent = empty_world(cfg(
                Executor::Threaded,
                role(SockRole::Parent { workers: 1 }),
            ));
            let (r, w) = crate::worlds::run_over_socket(parent, vec![worker], sock_path);
            assert!(w.is_none(), "worker runtime failed: {w:?}");
            assert_clean(&r);
        }) / 1e6,
    ));
}

fn lang_probes(out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "lang.parser.parse_transform_us",
        time_ns(200, || {
            let program =
                opcsp_lang::parse_program(black_box(PUTLINE_CSP)).expect("putline.csp parses");
            let t = opcsp_lang::transform_program(&program).expect("putline.csp transforms");
            assert_eq!(t.program.procs.len(), 2);
            black_box(t);
        }) / 1000.0,
    ));
    let program = opcsp_lang::parse_program(PUTLINE_CSP).expect("putline.csp parses");
    let system = opcsp_lang::System::compile(&program).expect("putline.csp compiles");
    out.push((
        "lang.interp.putline_sim_ms",
        time_ns(20, || {
            let r = system.run(SimConfig::default());
            assert!(r.unresolved.is_empty() && !r.truncated);
            // Five lines shown, then the editor's own count of lines tried.
            assert_eq!(r.external.len(), 6);
            black_box(r);
        }) / 1e6,
    ));
}
