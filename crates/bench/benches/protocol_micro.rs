//! Micro-benchmarks of the protocol core — the per-operation overheads
//! the paper's §6 claims are "small": guard tagging, arrival processing,
//! fork/join bookkeeping, abort cascades and CDG cycle detection — plus the
//! resolution path at pipeline depth: a commit wave through n forks, the
//! client and the server side of an n-call stream, a PRECEDENCE guard
//! ingest, and the delivery choice over a pooled backlog.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use opcsp_core::{
    measure, ArrivalVerdict, CallId, Cdg, CompactGuard, CoreConfig, DataKind, Envelope, Guard,
    GuessId, History, MsgId, ProcessCore, ProcessId, Value,
};
use std::hint::black_box;

fn env_with(to: ProcessId, guard: Guard) -> Envelope {
    Envelope {
        id: MsgId(1),
        from: ProcessId(9),
        from_thread: 0,
        to,
        guard,
        table_acks: vec![],
        kind: DataKind::Send,
        payload: Value::Int(1),
        label: "M".into(),
        link_seq: 0,
    }
}

fn bench_guard_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("guard");
    for n in [4u32, 32, 256] {
        let full: Guard = (0..n).map(|i| GuessId::first(ProcessId(0), i)).collect();
        g.bench_with_input(BenchmarkId::new("union", n), &full, |b, full| {
            b.iter(|| {
                let mut a = Guard::empty();
                a.union_with(black_box(full));
                a
            })
        });
        g.bench_with_input(BenchmarkId::new("compact+expand", n), &full, |b, full| {
            let h = History::new();
            b.iter(|| {
                let cg = CompactGuard::compress(black_box(full));
                cg.expand(&h)
            })
        });
        g.bench_with_input(BenchmarkId::new("measure", n), &full, |b, full| {
            b.iter(|| measure(black_box(full)))
        });
    }
    g.finish();
}

fn bench_fork_join_cycle(c: &mut Criterion) {
    c.bench_function("core/fork_join_commit", |b| {
        b.iter(|| {
            let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
            let rec = core.fork(0, 1);
            let d = core.join_left_done(rec.guess, true);
            black_box(d)
        })
    });
}

fn bench_deliver(c: &mut Criterion) {
    c.bench_function("core/deliver_new_dep", |b| {
        let envs: Vec<Envelope> = (0..8)
            .map(|i| env_with(ProcessId(2), Guard::single(GuessId::first(ProcessId(0), i))))
            .collect();
        b.iter(|| {
            let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
            for e in &envs {
                black_box(core.deliver(0, e));
            }
            core
        })
    });
}

fn bench_abort_cascade(c: &mut Criterion) {
    let mut g = c.benchmark_group("core/abort_cascade");
    for depth in [2u32, 8, 32, 128, 512] {
        g.bench_with_input(BenchmarkId::new("chain", depth), &depth, |b, &depth| {
            b.iter(|| {
                // A right-branching chain of `depth` forks; abort the first.
                let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
                let first = core.fork(0, 1).guess;
                for t in 1..depth {
                    core.fork(t, 1);
                }
                black_box(core.on_abort(first))
            })
        });
    }
    g.finish();
}

/// A pipeline of `n` forks (call streaming: each right thread forks the
/// next), then every guess commits in fork order — each commit removes
/// its guess from every later thread's guard.
fn bench_commit_wave(c: &mut Criterion) {
    let mut g = c.benchmark_group("core/commit_wave");
    for n in [128u32, 512] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
                let guesses: Vec<GuessId> = (0..n).map(|t| core.fork(t, 1).guess).collect();
                for guess in guesses {
                    black_box(core.join_left_done(guess, true));
                }
                assert!(core.speculation_quiescent());
                core
            })
        });
    }
    g.finish();
}

/// The client side of an `n`-call stream after its forks: the returns come
/// back in fork order, return k tagged by a server that has heard of no
/// commit yet — the full prefix x1..x(k-1) — and each goes through the
/// orphan check, delivery to its left thread, and that thread's join (which
/// commits, and removes the guess from every later thread's guard). What
/// `core/commit_wave` leaves out is the per-return pass over the tag.
fn bench_stream_client(c: &mut Criterion) {
    let mut g = c.benchmark_group("core/stream_client");
    for n in [128u32, 512] {
        let guesses: Vec<GuessId> = (1..=n).map(|i| GuessId::first(ProcessId(0), i)).collect();
        let returns: Vec<Envelope> = (0..n as usize)
            .map(|k| {
                let mut env = env_with(ProcessId(0), guesses[..k].iter().copied().collect());
                env.kind = DataKind::Return(CallId(k as u64));
                env
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
                for t in 0..n {
                    core.fork(t, 1);
                }
                for (left, ret) in (0..n).zip(&returns) {
                    assert_eq!(core.classify_arrival(ret), ArrivalVerdict::Ok);
                    black_box(core.deliver(left, ret));
                    black_box(core.join_left_done(guesses[left as usize], true));
                }
                assert!(core.speculation_quiescent());
                core
            })
        });
    }
    g.finish();
}

/// The server side of the same stream: call k arrives tagged with the full
/// prefix x1..x(k-1) (the client has heard no return yet), is checked,
/// counted against the pool and delivered to the one server thread, whose
/// reply tag is read off it; then the `n` COMMITs land in fork order and
/// the thread's guard is read once more.
fn bench_stream_server(c: &mut Criterion) {
    let mut g = c.benchmark_group("core/stream_server");
    for n in [128u32, 512] {
        let guesses: Vec<GuessId> = (1..=n).map(|i| GuessId::first(ProcessId(0), i)).collect();
        let calls: Vec<Envelope> = (0..n as usize)
            .map(|k| {
                let mut env = env_with(ProcessId(1), guesses[..k].iter().copied().collect());
                env.kind = DataKind::Call(CallId(k as u64));
                env
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut core = ProcessCore::new(ProcessId(1), CoreConfig::default());
                for call in &calls {
                    assert_eq!(core.classify_arrival(call), ArrivalVerdict::Ok);
                    black_box(core.choose_delivery(0, &[call]));
                    black_box(core.deliver(0, call));
                    black_box(core.guard_for_send(0).clone());
                }
                for guess in &guesses {
                    black_box(core.on_commit(*guess));
                }
                assert!(core.is_committed(0));
                black_box(core.guard_for_send(0).clone());
                core
            })
        });
    }
    g.finish();
}

/// A server that consumed a message guarded by an n-deep pipeline ingests
/// the pipeline's PRECEDENCE messages: guess k is preceded by guesses
/// 1..k. Each guard is the previous subject's record plus that subject, so
/// one edge per PRECEDENCE is linked — n − 1 in all, where one edge per
/// member was n(n − 1)/2 — and every earlier guess still reaches every
/// later one.
fn bench_precedence_ingest(c: &mut Criterion) {
    for n in [128u32, 512] {
        let pipeline: Vec<GuessId> = (1..=n).map(|i| GuessId::first(ProcessId(0), i)).collect();
        let tag = env_with(ProcessId(2), pipeline.iter().copied().collect());
        let guards: Vec<Guard> = (0..pipeline.len())
            .map(|k| pipeline[..k].iter().copied().collect())
            .collect();
        let ingest = || {
            let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
            core.deliver(0, &tag);
            for (guess, guard) in pipeline.iter().zip(&guards) {
                black_box(core.on_precedence(*guess, guard));
            }
            assert_eq!(core.cdg.edge_count(), n as usize - 1);
            core
        };
        // Each guess reaches the next, so by transitivity every later one.
        let core = ingest();
        for w in pipeline.windows(2) {
            assert!(
                reaches(&core.cdg, w[0], w[1]),
                "{} does not precede {}",
                w[0],
                w[1]
            );
        }
        c.bench_function(&format!("cdg/precedence_ingest/{n}"), |b| b.iter(ingest));
    }
}

/// Is there a path `from ⇝ to`?
fn reaches(cdg: &Cdg, from: GuessId, to: GuessId) -> bool {
    let mut seen = std::collections::BTreeSet::from([from]);
    let mut stack = vec![from];
    while let Some(g) = stack.pop() {
        if g == to {
            return true;
        }
        stack.extend(cdg.successors(g).into_iter().filter(|s| seen.insert(*s)));
    }
    false
}

/// The §4.2.3 delivery choice over a backlog of 64 pooled messages whose
/// tags are windows of a 96-deep pipeline; the receiver already depends on
/// the pipeline's first 32 guesses.
fn bench_choose_delivery(c: &mut Criterion) {
    let pipeline: Vec<GuessId> = (1..=96).map(|i| GuessId::first(ProcessId(0), i)).collect();
    let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
    core.deliver(
        0,
        &env_with(ProcessId(2), pipeline[..32].iter().copied().collect()),
    );
    let pool: Vec<Envelope> = (0..64)
        .map(|i| {
            let from = (i * 7) % 48;
            let len = 16 + (i * 5) % 32;
            env_with(
                ProcessId(2),
                pipeline[from..from + len].iter().copied().collect(),
            )
        })
        .collect();
    let refs: Vec<&Envelope> = pool.iter().collect();
    c.bench_function("core/choose_delivery/pool64", |b| {
        b.iter(|| black_box(core.choose_delivery(0, black_box(&refs))))
    });
}

fn bench_cdg(c: &mut Criterion) {
    c.bench_function("cdg/add_edge_cycle_check", |b| {
        b.iter(|| {
            let mut cdg = Cdg::new();
            for i in 0..32u32 {
                cdg.add_edge(
                    GuessId::first(ProcessId(i % 4), i),
                    GuessId::first(ProcessId((i + 1) % 4), i + 1),
                );
            }
            black_box(cdg.add_edge(
                GuessId::first(ProcessId(1), 33),
                GuessId::first(ProcessId(0), 0),
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_guard_ops,
    bench_fork_join_cycle,
    bench_deliver,
    bench_abort_cascade,
    bench_commit_wave,
    bench_stream_client,
    bench_stream_server,
    bench_precedence_ingest,
    bench_choose_delivery,
    bench_cdg
);
criterion_main!(benches);
