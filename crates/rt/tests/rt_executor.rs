//! Executor differential tests: the thread-per-process executor and the
//! sharded M:N executor run the identical protocol core over the same
//! reliable transport, so their committed observable logs must agree.
//!
//! Fault-free single-writer workloads (streaming, chain) must match
//! *exactly* — logs, external outputs, and the deterministic protocol
//! counters. Multi-writer fan-in is compared under merge-order tolerance
//! ([`opcsp_rt::merge_equiv`]): per-link FIFO projections positionally
//! equal, output multisets equal. Chaos runs under the sharded executor
//! reuse the same oracle against the fault-free threaded baseline.
//!
//! Also holds the ISSUE-6 acceptance bar: a 10k-process fan-in completes
//! under `Executor::Sharded` (the thread-per-process executor never
//! spawns a world that wide).

use opcsp_core::{CoreConfig, ProcessId};
use opcsp_rt::{
    merge_equiv, Executor, NetFaults, RtConfig, RtResult, RtTransport, RtWorld, SockAddr, SockRole,
};
use opcsp_sim::Observable;
use opcsp_workloads::chain::OptimisticForwarder;
use opcsp_workloads::fan_in::{consumer, rt_fan_in_world, FanInOpts};
use opcsp_workloads::servers::Server;
use opcsp_workloads::streaming::{rt_pairs_world, PutLineClient};
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

fn run_streaming(ex: Executor, faults: NetFaults) -> RtResult {
    let mut w = RtWorld::new(cfg(ex, faults));
    w.add_process(PutLineClient::new(8), true);
    w.add_process(Server::new("S", 0), false);
    w.run()
}

fn run_chain(ex: Executor, faults: NetFaults) -> RtResult {
    let mut w = RtWorld::new(cfg(ex, faults));
    w.add_process(PutLineClient::to(4, ProcessId(1)), true);
    for hop in 1..=2u32 {
        w.add_process(
            OptimisticForwarder {
                name: format!("Hop{hop}"),
                downstream: ProcessId(hop + 1),
                compute: 0,
            },
            false,
        );
    }
    w.add_process(Server::new("Terminal", 0), false);
    w.run()
}

fn run_fan_in(ex: Executor, faults: NetFaults, producers: u32, n: u32) -> RtResult {
    let opts = FanInOpts {
        producers,
        n,
        ..FanInOpts::default()
    };
    rt_fan_in_world(&opts, cfg(ex, faults)).run()
}

fn assert_clean(r: &RtResult, label: &str) {
    assert!(!r.timed_out, "{label}: timed out ({:?})", r.stats);
    assert!(r.panicked.is_empty(), "{label}: panics {:?}", r.panics);
    assert!(r.stragglers.is_empty(), "{label}: stragglers {:?}", r.stragglers);
}

/// Exact equality: per-process committed logs and released externals.
fn assert_logs_exact(base: &RtResult, other: &RtResult, label: &str) {
    assert_eq!(
        base.logs.keys().collect::<Vec<_>>(),
        other.logs.keys().collect::<Vec<_>>(),
        "{label}: process sets differ"
    );
    for (p, log) in &base.logs {
        assert_eq!(log, &other.logs[p], "{label}: committed log of {p} diverged");
    }
    assert_eq!(base.external, other.external, "{label}: externals diverged");
}

/// Merge-order-tolerant equality, per process: per-link FIFO projections
/// positionally equal and output multisets equal.
fn assert_logs_merge_equiv(base: &RtResult, other: &RtResult, label: &str) {
    assert_eq!(
        base.logs.keys().collect::<Vec<_>>(),
        other.logs.keys().collect::<Vec<_>>(),
        "{label}: process sets differ"
    );
    for (p, log) in &base.logs {
        assert!(
            merge_equiv(log, &other.logs[p]),
            "{label}: log of {p} not merge-equivalent\n base: {log:?}\nother: {:?}",
            other.logs[p]
        );
    }
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
    assert_clean(&threaded, "threaded streaming");
    for workers in [1usize, 2, 4] {
        let sharded = run_streaming(Executor::Sharded { workers }, NetFaults::none());
        let label = format!("sharded:{workers} streaming");
        assert_clean(&sharded, &label);
        assert_logs_exact(&threaded, &sharded, &label);
        assert_stats_deterministic_subset(&threaded, &sharded, &label);
    }
}

#[test]
fn executor_differential_chain_exact() {
    let threaded = run_chain(Executor::Threaded, NetFaults::none());
    assert_clean(&threaded, "threaded chain");
    // 2 workers for a 4-process pipeline: every link crosses a shard.
    let sharded = run_chain(Executor::Sharded { workers: 2 }, NetFaults::none());
    assert_clean(&sharded, "sharded chain");
    assert_logs_exact(&threaded, &sharded, "chain");
    assert_stats_deterministic_subset(&threaded, &sharded, "chain");
}

#[test]
fn executor_differential_fan_in_merge_tolerant() {
    let threaded = run_fan_in(Executor::Threaded, NetFaults::none(), 4, 4);
    assert_clean(&threaded, "threaded fan_in");
    let sharded = run_fan_in(Executor::Sharded { workers: 3 }, NetFaults::none(), 4, 4);
    assert_clean(&sharded, "sharded fan_in");
    assert_logs_merge_equiv(&threaded, &sharded, "fan_in");
    // Whatever the arrival order, every producer's full stream landed.
    let opts = FanInOpts {
        producers: 4,
        n: 4,
        ..FanInOpts::default()
    };
    for r in [&threaded, &sharded] {
        let recvd = r.logs[&consumer(&opts)]
            .iter()
            .filter(|o| matches!(o, Observable::Received { .. }))
            .count();
        assert_eq!(recvd as u32, opts.producers * opts.n);
    }
}

/// The chaos differential (rt_chaos.rs) under the sharded executor: the
/// reliable sublayer must absorb drops/dups/reordering no matter which
/// thread pumps the transport, and the committed logs must still match
/// the fault-free *threaded* baseline — one oracle across both axes.
#[test]
fn executor_differential_under_chaos() {
    let baseline = run_streaming(Executor::Threaded, NetFaults::none());
    assert_clean(&baseline, "baseline");
    for seed in [1u64, 7, 42] {
        let r = run_streaming(Executor::Sharded { workers: 2 }, chaos(seed));
        let label = format!("sharded chaos seed={seed}");
        assert_clean(&r, &label);
        assert_logs_exact(&baseline, &r, &label);
        assert!(r.stats.drops_injected > 0, "{label}: {:?}", r.stats);
        assert!(r.stats.retransmits > 0, "{label}: {:?}", r.stats);
        assert_eq!(r.stats.orphans, baseline.stats.orphans, "{label}: orphans");
    }
}

#[test]
fn executor_differential_fan_in_under_chaos() {
    let baseline = run_fan_in(Executor::Threaded, NetFaults::none(), 3, 3);
    assert_clean(&baseline, "baseline");
    let r = run_fan_in(Executor::Sharded { workers: 2 }, chaos(7), 3, 3);
    assert_clean(&r, "sharded fan_in chaos");
    assert_logs_merge_equiv(&baseline, &r, "fan_in chaos");
    assert!(r.stats.drops_injected > 0, "{:?}", r.stats);
}

// ---------------------------------------------------------------------------
// Scoped control: independent pairs hear only their own resolutions
// ---------------------------------------------------------------------------

const PAIRS: u32 = 64;
const PAIR_CALLS: u32 = 4;

fn pairs_cfg(ex: Executor, core: CoreConfig, transport: RtTransport) -> RtConfig {
    RtConfig {
        core,
        latency: Duration::ZERO,
        transport,
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
    let _ = std::fs::remove_file(&path);
    let addr = SockAddr::parse(&format!("uds:{}", path.display())).expect("uds addr");
    let world = |role| {
        let transport = RtTransport::Socket {
            addr: addr.clone(),
            role,
        };
        let cfg = pairs_cfg(ex, CoreConfig::default(), transport);
        rt_pairs_world(PAIRS, PAIR_CALLS, cfg)
    };
    let handles: Vec<_> = (0..workers)
        .map(|index| {
            let w = world(SockRole::Worker { index, workers });
            std::thread::spawn(move || w.run())
        })
        .collect();
    let result = world(SockRole::Parent { workers }).run();
    for h in handles {
        let worker = h.join().expect("worker thread");
        assert!(!worker.timed_out, "worker runtime timed out");
    }
    result
}

/// 64 independent client→server pairs: each pair is its own component of
/// the declared graph, so a COMMIT is one frame to the pair's server and
/// nothing else — whichever executor runs it and wherever the server is
/// hosted. Over the socket the 128 pids tile 43/43/42, so a tile boundary
/// cuts a pair and its COMMITs cross the hub.
#[test]
fn pairs_control_stays_inside_each_pair() {
    let inproc = |ex, core| {
        let cfg = pairs_cfg(ex, core, RtTransport::InProc);
        rt_pairs_world(PAIRS, PAIR_CALLS, cfg).run()
    };
    let pess = inproc(Executor::Threaded, CoreConfig::pessimistic());
    assert_clean(&pess, "pessimistic pairs");
    let (threaded, sharded) = (Executor::Threaded, Executor::Sharded { workers: 2 });
    let runs = [
        ("threaded", inproc(threaded, CoreConfig::default())),
        ("sharded:2", inproc(sharded, CoreConfig::default())),
        ("uds x3 threaded", run_pairs_over_uds(threaded, 3)),
        ("uds x3 sharded:2", run_pairs_over_uds(sharded, 3)),
    ];
    for (label, r) in &runs {
        assert_clean(r, label);
        assert_eq!(r.stats.commits, u64::from(PAIRS * PAIR_CALLS), "{label}");
        assert_eq!(r.stats.aborts, 0, "{label}");
        assert_eq!(
            r.stats.control_messages, r.stats.commits,
            "{label}: one recipient per COMMIT"
        );
        for k in 0..PAIRS {
            let client = ProcessId(2 * k);
            assert!(
                merge_equiv(&pess.logs[&client], &r.logs[&client]),
                "{label}: client {client} diverged from the pessimistic run"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Scale: worlds the thread-per-process executor cannot host
// ---------------------------------------------------------------------------

/// Run a wide fan-in (one call per producer) under the sharded executor.
/// Optimism is off: reply guards grow O(width) per message when every
/// producer speculates concurrently — a protocol cost, not an executor one
/// (see `rt_fan_in_world`).
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
    rt_fan_in_world(&opts, cfg).run()
}

fn assert_wide_clean(r: &RtResult, producers: u32, budget: Duration, label: &str) {
    assert_clean(r, label);
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
