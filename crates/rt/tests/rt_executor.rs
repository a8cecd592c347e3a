//! Executor differential tests: the thread-per-process executor and the
//! sharded M:N executor run the identical protocol core over the same
//! reliable transport, so their committed observable logs must agree.
//!
//! Fault-free single-writer workloads (streaming, chain) must match
//! *exactly* — logs, external outputs, and the deterministic protocol
//! counters. A multi-writer fan-in may legally interleave its senders
//! differently on each executor, so each of its runs is held to Theorem 1
//! on its own: `Spec::check` replays the run's committed schedule on the
//! pessimistic simulator. Chaos runs under the sharded executor must match
//! the fault-free threaded baseline exactly (streaming) or replay (fan-in).
//!
//! Also holds the ISSUE-6 acceptance bar: a 10k-process fan-in completes
//! under `Executor::Sharded` (the thread-per-process executor never
//! spawns a world that wide).

use opcsp_core::{CoreConfig, ProcessId};
use opcsp_rt::{Executor, NetFaults, RtConfig, RtResult, RtWorld, SockAddr};
use opcsp_sim::{Observable, Outcome};
use opcsp_workloads::catalog::{Spec, Split};
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::fan_in::FanInOpts;
use opcsp_workloads::streaming::{PairsOpts, StreamingOpts};
use std::time::Duration;

fn cfg(ex: Executor, faults: NetFaults) -> RtConfig {
    RtConfig {
        latency: Duration::from_millis(2),
        fork_timeout: Duration::from_secs(5),
        run_timeout: Duration::from_secs(30),
        faults,
        executor: ex,
        ..RtConfig::default()
    }
}

fn chaos(seed: u64) -> NetFaults {
    NetFaults {
        seed,
        drop: 0.2,
        dup: 0.1,
        reorder: 3,
        partitions: vec![],
    }
}

fn run(world: Spec, ex: Executor, faults: NetFaults) -> RtResult {
    world.on(RtWorld::new(cfg(ex, faults))).run()
}

fn run_streaming(ex: Executor, faults: NetFaults) -> RtResult {
    let n = 8;
    run(
        Spec::Stream(StreamingOpts {
            n,
            ..StreamingOpts::default()
        }),
        ex,
        faults,
    )
}

fn run_chain(ex: Executor, faults: NetFaults) -> RtResult {
    let depth = 2;
    run(
        Spec::Chain(ChainOpts {
            depth,
            ..ChainOpts::default()
        }),
        ex,
        faults,
    )
}

fn fan_in(producers: u32, n: u32) -> Spec {
    Spec::FanIn(FanInOpts {
        producers,
        n,
        ..FanInOpts::default()
    })
}

/// Exact equality: per-process committed logs and released externals.
fn assert_logs_exact(base: &RtResult, other: &RtResult, label: &str) {
    assert_eq!(base.logs, other.logs, "{label}: logs");
    assert_eq!(base.external, other.external, "{label}: externals");
}

/// Theorem 1 on one run: `Spec::check`'s schedule replay.
fn assert_replays(world: &Spec, r: &RtResult, label: &str) {
    world.check(r).unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// The executor must not change what the protocol *does* — only when the
/// wall clock lets it happen. These counters are schedule-independent on
/// fault-free single-writer workloads; wire/guard byte counters and
/// control-message counts are timing-dependent (retransmission cadence,
/// ack piggybacking) and deliberately excluded.
fn assert_stats_deterministic_subset(base: &RtResult, other: &RtResult, label: &str) {
    let (b, o) = (&base.stats, &other.stats);
    assert_eq!(b.forks, o.forks, "{label}: forks diverged");
    assert_eq!(b.commits, o.commits, "{label}: commits diverged");
    assert_eq!(b.aborts, o.aborts, "{label}: aborts diverged");
    assert_eq!(b.rollbacks, o.rollbacks, "{label}: rollbacks diverged");
    assert_eq!(b.orphans, o.orphans, "{label}: orphans diverged");
    assert_eq!(b.data_messages, o.data_messages, "{label}: data messages diverged");
}

#[test]
fn executor_differential_streaming_exact() {
    let threaded = run_streaming(Executor::Threaded, NetFaults::none());
    threaded.ended().expect("threaded streaming");
    for workers in [1usize, 2, 4] {
        let sharded = run_streaming(Executor::Sharded { workers }, NetFaults::none());
        let label = format!("sharded:{workers} streaming");
        sharded.ended().expect(&label);
        assert_logs_exact(&threaded, &sharded, &label);
        assert_stats_deterministic_subset(&threaded, &sharded, &label);
    }
}

#[test]
fn executor_differential_chain_exact() {
    let threaded = run_chain(Executor::Threaded, NetFaults::none());
    threaded.ended().expect("threaded chain");
    // 2 workers for a 4-process pipeline: each owns a tile of two, so the
    // middle link crosses a shard and the outer two do not.
    let sharded = run_chain(Executor::Sharded { workers: 2 }, NetFaults::none());
    sharded.ended().expect("sharded chain");
    assert_logs_exact(&threaded, &sharded, "chain");
    assert_stats_deterministic_subset(&threaded, &sharded, "chain");
}

#[test]
fn executor_differential_fan_in_replays_on_both() {
    let world = fan_in(4, 4);
    let threaded = run(world.clone(), Executor::Threaded, NetFaults::none());
    threaded.ended().expect("threaded fan_in");
    let sharded = run(world.clone(), Executor::Sharded { workers: 3 }, NetFaults::none());
    sharded.ended().expect("sharded fan_in");
    assert_replays(&world, &threaded, "threaded fan_in");
    assert_replays(&world, &sharded, "sharded fan_in");
    // Whatever the arrival order, every producer's full stream landed.
    for r in [&threaded, &sharded] {
        let recvd = r.logs[&ProcessId(4)]
            .iter()
            .filter(|o| matches!(o, Observable::Received { .. }))
            .count();
        assert_eq!(recvd, 4 * 4);
    }
}

/// The chaos differential (rt_chaos.rs) under the sharded executor: the
/// reliable sublayer must absorb drops/dups/reordering no matter which
/// thread pumps the transport, and the committed logs must still match
/// the fault-free *threaded* baseline — one oracle across both axes.
#[test]
fn executor_differential_under_chaos() {
    let baseline = run_streaming(Executor::Threaded, NetFaults::none());
    baseline.ended().expect("baseline");
    for seed in [1u64, 7, 42] {
        let r = run_streaming(Executor::Sharded { workers: 2 }, chaos(seed));
        let label = format!("sharded chaos seed={seed}");
        r.ended().expect(&label);
        assert_logs_exact(&baseline, &r, &label);
        assert!(r.stats.drops_injected > 0, "{label}: {:?}", r.stats);
        assert!(r.stats.retransmits > 0, "{label}: {:?}", r.stats);
        assert_eq!(r.stats.orphans, baseline.stats.orphans, "{label}: orphans");
    }
}

#[test]
fn executor_differential_fan_in_under_chaos() {
    let world = fan_in(3, 3);
    let r = run(world.clone(), Executor::Sharded { workers: 2 }, chaos(7));
    r.ended().expect("sharded fan_in chaos");
    assert_replays(&world, &r, "fan_in chaos");
    assert!(r.stats.drops_injected > 0, "{:?}", r.stats);
}

// ---------------------------------------------------------------------------
// Scoped control: independent pairs hear only their own resolutions
// ---------------------------------------------------------------------------

const PAIRS: u32 = 64;
const PAIR_CALLS: u32 = 4;

fn pairs(core: CoreConfig) -> Spec {
    Spec::Pairs(PairsOpts {
        pairs: PAIRS,
        n: PAIR_CALLS,
        core,
    })
}

fn pairs_cfg(ex: Executor, core: CoreConfig) -> RtConfig {
    RtConfig {
        core,
        latency: Duration::ZERO,
        ..cfg(ex, NetFaults::none())
    }
}

/// The pairs world split over `workers` worker runtimes and a hub on a
/// Unix socket, all threads of this process; the hub's result.
fn run_pairs_over_uds(ex: Executor, workers: usize) -> RtResult {
    let tag = match ex {
        Executor::Threaded => "threaded".to_string(),
        Executor::Sharded { workers } => format!("sharded{workers}"),
    };
    let file = format!("opcsp-rt-exec-{}-{tag}.sock", std::process::id());
    let path = std::env::temp_dir().join(file);
    let addr = SockAddr::parse(&format!("uds:{}", path.display())).expect("uds addr");
    let cfg = pairs_cfg(ex, CoreConfig::default());
    let (result, worker_failure) = pairs(CoreConfig::default())
        .on(Split::new(&cfg, addr, workers))
        .run();
    assert_eq!(worker_failure, None);
    result
}

/// 64 independent client→server pairs: each pair is its own component of
/// the declared graph, so a COMMIT is one frame to the pair's server and
/// nothing else — whichever executor runs it and wherever the server is
/// hosted. In-proc, pairs never cross a worker: two workers tile the 128
/// pids 64/64, and a pair (2k, 2k + 1) sits inside one tile. Over the
/// socket the 128 pids tile 43/43/42, so a tile boundary cuts a pair and
/// its COMMITs cross the hub.
#[test]
fn pairs_control_stays_inside_each_pair() {
    let inproc = |ex, core: CoreConfig| {
        pairs(core.clone())
            .on(RtWorld::new(pairs_cfg(ex, core)))
            .run()
    };
    let (threaded, sharded) = (Executor::Threaded, Executor::Sharded { workers: 2 });
    let runs = [
        ("threaded", inproc(threaded, CoreConfig::default())),
        ("sharded:2", inproc(sharded, CoreConfig::default())),
        ("uds x3 threaded", run_pairs_over_uds(threaded, 3)),
        ("uds x3 sharded:2", run_pairs_over_uds(sharded, 3)),
    ];
    for (label, r) in &runs {
        r.ended().expect(label);
        assert_eq!(r.stats.commits, u64::from(PAIRS * PAIR_CALLS), "{label}");
        assert_eq!(r.stats.aborts, 0, "{label}");
        assert_eq!(
            r.stats.control_messages, r.stats.commits,
            "{label}: one recipient per COMMIT"
        );
        assert_replays(&pairs(CoreConfig::default()), r, label);
    }
}

// ---------------------------------------------------------------------------
// Scale: worlds the thread-per-process executor cannot host
// ---------------------------------------------------------------------------

/// Run a wide fan-in (one call per producer) under the sharded executor.
/// Optimism is off: reply guards grow O(width) per message when every
/// producer speculates concurrently — a protocol cost, not an executor one
/// (see `workloads::fan_in`).
fn run_wide(producers: u32, workers: usize) -> RtResult {
    let opts = FanInOpts {
        producers,
        n: 1,
        ..FanInOpts::default()
    };
    let cfg = RtConfig {
        core: CoreConfig::pessimistic(),
        latency: Duration::ZERO,
        run_timeout: Duration::from_secs(120),
        executor: Executor::Sharded { workers },
        ..RtConfig::default()
    };
    Spec::FanIn(opts).on(RtWorld::new(cfg)).run()
}

fn assert_wide_clean(r: &RtResult, producers: u32, budget: Duration, label: &str) {
    r.ended().expect(label);
    assert!(
        r.wall < budget,
        "{label}: took {:?}, budget {budget:?}",
        r.wall
    );
    let board = ProcessId(producers);
    let recvd = r.logs[&board]
        .iter()
        .filter(|o| matches!(o, Observable::Received { .. }))
        .count();
    assert_eq!(recvd as u32, producers, "{label}: consumer missed calls");
    assert_eq!(r.logs.len() as u32, producers + 1, "{label}: missing final reports");
}

/// ISSUE-6 acceptance: 10k processes complete under the sharded executor.
#[test]
fn wide_fan_in_10k_completes_sharded() {
    let producers = 10_000;
    let r = run_wide(producers, 4);
    let budget = if cfg!(debug_assertions) {
        Duration::from_secs(100)
    } else {
        Duration::from_secs(30)
    };
    assert_wide_clean(&r, producers, budget, "10k fan_in");
}

/// The CI scaling smoke: 5k processes on 4 workers inside a tight
/// wall-clock budget (run in release by the workflow's scaling job).
#[test]
fn wide_fan_in_5k_smoke() {
    let producers = 5_000;
    let r = run_wide(producers, 4);
    let budget = if cfg!(debug_assertions) {
        Duration::from_secs(60)
    } else {
        Duration::from_secs(15)
    };
    assert_wide_clean(&r, producers, budget, "5k smoke");
}

/// A fork's right thread runs in its actor's next instant (DESIGN.md
/// §11.2): after the frames already queued for the actor, and — on a
/// shard — after the other actors the round fed. `A` forks on `m1` while
/// `m2` is already in its inbox; `C` shares `A`'s worker and is fed `m3`
/// in the same round. Under the threaded executor `A`'s start waits for
/// `B` to finish, so all three frames are queued before `A` reads any (on
/// one worker the slot order already makes it so).
#[test]
fn a_right_thread_waits_for_its_inbox_and_its_shard() {
    use opcsp_core::Value;
    use opcsp_sim::{Effect, FnBehavior, Resume};
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Copy)]
    enum Pc {
        Idle,
        Forked,
        Left,
        Joined,
    }
    let guess = || vec![("x".to_string(), Value::Int(1))];
    for ex in [Executor::Threaded, Executor::Sharded { workers: 1 }] {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = |what: &'static str| {
            let seen = seen.clone();
            move || seen.lock().unwrap().push(what)
        };
        let (left_got_m2, right_ran, c_got_m3) =
            (log("A left got m2"), log("A right ran"), log("C got m3"));
        let (b_done, b_finished) = std::sync::mpsc::channel::<()>();
        let b_finished = Mutex::new(b_finished);
        let threaded = ex == Executor::Threaded;
        let a = FnBehavior::new("A", Pc::Idle, move |pc, r| match (*pc, r) {
            (Pc::Idle, Resume::Start) => {
                if threaded {
                    b_finished.lock().unwrap().recv().expect("B finishes");
                }
                Effect::Receive
            }
            (Pc::Idle, Resume::Msg(_)) => {
                *pc = Pc::Forked;
                Effect::Fork {
                    site: 1,
                    guesses: guess(),
                }
            }
            (Pc::Forked, Resume::ForkLeft) => {
                *pc = Pc::Left;
                Effect::Receive
            }
            (Pc::Left, Resume::Msg(_)) => {
                left_got_m2();
                *pc = Pc::Joined;
                Effect::JoinLeft { actual: guess() }
            }
            (Pc::Forked, Resume::ForkRight { .. }) => {
                right_ran();
                Effect::Done
            }
            (Pc::Joined, Resume::JoinCommitted) => Effect::Done,
            (_, r) => panic!("A: unexpected {r:?}"),
        });
        let sends = [(0, "m1"), (0, "m2"), (2, "m3")];
        let b = FnBehavior::new("B", 0usize, move |next, _| {
            let Some(&(to, label)) = sends.get(*next) else {
                b_done.send(()).expect("A waits");
                return Effect::Done;
            };
            *next += 1;
            Effect::Send {
                to: ProcessId(to),
                payload: Value::Int(0),
                label: label.into(),
            }
        });
        let c = FnBehavior::new("C", (), move |_, r| match r {
            Resume::Start => Effect::Receive,
            Resume::Msg(_) => {
                c_got_m3();
                Effect::Done
            }
            r => panic!("C: unexpected {r:?}"),
        });
        let mut world = RtWorld::new(RtConfig {
            latency: Duration::ZERO,
            ..cfg(ex, NetFaults::none())
        });
        world.add_process(a, true);
        world.add_process(b, true);
        world.add_process(c, true);
        let r = world.run();
        r.ended().unwrap_or_else(|e| panic!("{ex:?}: {e}"));
        assert_eq!((r.stats.forks, r.stats.commits), (1, 1), "{ex:?}");
        let seen = seen.lock().unwrap().clone();
        let at = |what| seen.iter().position(|s| *s == what).expect(what);
        assert!(at("A left got m2") < at("A right ran"), "{ex:?}: {seen:?}");
        if !threaded {
            assert!(at("C got m3") < at("A right ran"), "{ex:?}: {seen:?}");
        }
    }
}
