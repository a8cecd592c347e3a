//! Replicated-KV differentials (the flagship workload's oracles).
//!
//! Two properties, split by what is schedule-independent:
//!
//! - **Merge equivalence across engines:** with a single client the
//!   committed history is schedule-independent — the sequencer assigns
//!   positions in issue order no matter how threads race — so the
//!   simulator and the real-thread runtime (both executors) must commit
//!   merge-equivalent per-process logs and identical replica externals.
//! - **SMR agreement:** with many clients the committed order is
//!   whatever the sequencer's arrival order was, so engines legitimately
//!   commit different histories; the invariant is the replication safety
//!   property itself — identical stores and read streams across
//!   replicas, asserted under chaos faults and the sharded executor (the
//!   socket transport's run is `tests/catalog.rs`'s matrix).
//! - **Replay:** whatever order the sequencer saw, every run passes
//!   `Spec::check`: its committed receive schedule replays exactly on the
//!   pessimistic simulator (Theorem 1), the positions the clients
//!   committed are a legal sequencer order, and replaying the commands in
//!   it reproduces every replica (`check_replay`) — on the simulator, rt
//!   threaded, `sharded:1`, `sharded:2` and a UDS split.

use opcsp_core::Value;
use opcsp_rt::{merge_equiv, Executor, NetFaults, RtConfig, RtResult, RtWorld, SockAddr};
use opcsp_sim::Outcome;
use opcsp_workloads::catalog::{Spec, Split};
use opcsp_workloads::replicated_kv::{
    check_rt_agreement, check_sim_agreement, replica_streams, KvOpts,
};
use std::time::Duration;

fn single_client() -> KvOpts {
    KvOpts {
        clients: 1,
        ops_per_client: 8,
        replicas: 3,
        ..KvOpts::default()
    }
}

fn rt_cfg(executor: Executor, faults: NetFaults) -> RtConfig {
    RtConfig {
        latency: Duration::from_millis(1),
        run_timeout: Duration::from_secs(30),
        executor,
        faults,
        ..RtConfig::default()
    }
}

fn run_rt(opts: &KvOpts, executor: Executor, faults: NetFaults) -> RtResult {
    Spec::Kv(opts.clone())
        .on(RtWorld::new(rt_cfg(executor, faults)))
        .run()
}

fn assert_rt_matches_sim(opts: &KvOpts, label: &str, executor: Executor) {
    let sim = Spec::Kv(opts.clone()).simulate();
    check_sim_agreement(opts, &sim).expect("sim SMR oracle");

    let rt = run_rt(opts, executor, NetFaults::none());
    assert!(!rt.timed_out, "{label}: rt timed out");
    assert!(rt.panicked.is_empty(), "{label}: rt panics {:?}", rt.panics);
    check_rt_agreement(opts, &rt).expect("rt SMR oracle");
    assert_replays(opts, label, &rt);

    for (pid, sim_log) in &sim.logs {
        let rt_log = rt
            .logs
            .get(pid)
            .unwrap_or_else(|| panic!("{label}: rt has no log for {pid}"));
        assert!(
            merge_equiv(sim_log, rt_log),
            "{label}: {pid} committed logs diverge\nsim: {sim_log:?}\nrt:  {rt_log:?}"
        );
    }
    // Replica externals are released in apply order — they must be equal
    // sequences, not just merge-equivalent.
    let sim_streams = replica_streams(opts, sim.external.iter().map(|(_, p, v)| (*p, v.clone())));
    let rt_streams = replica_streams(opts, rt.external.iter().cloned());
    assert_eq!(
        sim_streams, rt_streams,
        "{label}: replica external streams diverge"
    );
}

#[test]
fn sim_and_threaded_rt_commit_the_same_single_client_history() {
    assert_rt_matches_sim(&single_client(), "threaded", Executor::Threaded);
}

#[test]
fn sim_and_sharded_rt_commit_the_same_single_client_history() {
    assert_rt_matches_sim(
        &single_client(),
        "sharded:2",
        Executor::Sharded { workers: 2 },
    );
}

/// Multi-client chaos run: drops, duplicates, and reordering inside each
/// actor's transport perturb the optimistic delivery order arbitrarily —
/// the committed history may be any order, but every replica must commit
/// the *same* one.
#[test]
fn chaos_preserves_smr_agreement_on_both_executors() {
    let opts = KvOpts {
        clients: 4,
        ops_per_client: 6,
        replicas: 3,
        ..KvOpts::default()
    };
    let chaos = NetFaults {
        seed: 11,
        drop: 0.15,
        dup: 0.1,
        reorder: 3,
        partitions: vec![],
    };
    for (label, executor) in [
        ("threaded", Executor::Threaded),
        ("sharded:2", Executor::Sharded { workers: 2 }),
    ] {
        let rt = run_rt(&opts, executor, chaos.clone());
        assert!(!rt.timed_out, "{label}: chaos run timed out");
        assert!(rt.panicked.is_empty(), "{label}: panics {:?}", rt.panics);
        let s = check_rt_agreement(&opts, &rt)
            .unwrap_or_else(|e| panic!("{label}: SMR oracle under chaos: {e}"));
        assert_eq!(s.applied, opts.total_ops() as i64, "{label}");
        assert_replays(&opts, label, &rt);
    }
}

/// The guess machinery is doing real work in the committed result: a
/// jittered sim run misguesses (aborts observed) yet commits a store
/// identical to the pessimistic run of the same schedule-independent
/// single-client load.
#[test]
fn misguesses_never_leak_into_committed_state() {
    let opts = KvOpts {
        clients: 3,
        ops_per_client: 6,
        replicas: 2,
        jitter: 40,
        seed: 3,
        ..KvOpts::default()
    };
    let r = Spec::Kv(opts.clone()).simulate();
    let s = check_sim_agreement(&opts, &r).expect("SMR oracle under jitter");
    assert!(r.stats().aborts > 0, "jitter should force misguesses");
    // Every committed read carries a position inside the committed range.
    let streams = replica_streams(&opts, r.external.iter().map(|(_, p, v)| (*p, v.clone())));
    for stream in &streams {
        for g in &stream[..stream.len() - 1] {
            let pos = g.field("pos").and_then(Value::as_int).unwrap_or(-1);
            assert!(
                (0..opts.total_ops() as i64).contains(&pos),
                "read at impossible position {pos}"
            );
        }
    }
    assert_eq!(s.applied, opts.total_ops() as i64);
}

// The flagship world on the simulator, through the catalogue.

#[test]
fn optimistic_run_commits_and_replicas_agree() {
    let opts = KvOpts::default();
    let s = check_sim_agreement(&opts, &Spec::Kv(opts.clone()).simulate()).expect("SMR oracle");
    assert_eq!(s.applied, opts.total_ops() as i64);
    assert!(s.gets > 0, "mix should include reads");
    assert!(!s.store.is_empty(), "mix should include writes");
}

#[test]
fn pessimistic_baseline_never_rolls_back_and_agrees() {
    let opts = KvOpts::default();
    let r = Spec::Kv(opts.clone()).twin().simulate();
    check_sim_agreement(&opts, &r).expect("SMR oracle");
    assert_eq!(r.stats().forks, 0, "pessimistic must not fork");
    assert_eq!(r.stats().rollbacks, 0);
}

#[test]
fn spontaneous_order_makes_guesses_right_under_fixed_latency() {
    let st = Spec::Kv(KvOpts::default()).simulate().stats().clone();
    assert!(
        st.aborts * 10 <= st.forks,
        "fixed latency should make the round-robin guess mostly right: {st:?}"
    );
}

#[test]
fn jitter_breaks_spontaneous_order_but_agreement_holds() {
    let opts = KvOpts {
        jitter: 40,
        seed: 3,
        ..KvOpts::default()
    };
    let r = Spec::Kv(opts.clone()).simulate();
    check_sim_agreement(&opts, &r).expect("SMR oracle under jitter");
    let st = r.stats();
    assert!(
        st.aborts > 0,
        "jitter should misorder some arrivals: {st:?}"
    );
}

#[test]
fn optimism_beats_pessimism_at_fixed_latency() {
    let opts = KvOpts::default();
    let (opt, pess) = (
        Spec::Kv(opts.clone()).simulate(),
        Spec::Kv(opts.clone()).twin().simulate(),
    );
    let so = check_sim_agreement(&opts, &opt).expect("optimistic oracle");
    let sp = check_sim_agreement(&opts, &pess).expect("pessimistic oracle");
    // Same committed history…
    assert_eq!(so.store, sp.store);
    // …reached faster: streaming the broadcasts hides the sequencer round
    // trip.
    assert!(
        opt.completion < pess.completion,
        "optimistic {} vs pessimistic {}",
        opt.completion,
        pess.completion
    );
}

// The replay oracles, on every engine.

/// `Spec::check`: the schedule replay (Theorem 1), replica agreement and
/// the sequencer-order replay (`check_replay`).
fn assert_replays(opts: &KvOpts, host: &str, run: &impl Outcome) {
    Spec::Kv(opts.clone())
        .check(run)
        .unwrap_or_else(|e| panic!("{host}: {e}"));
}

/// Four clients contend for the sequencer: the committed order is whatever
/// it saw, on each engine a different one, and each must be a legal
/// sequencer order that every replica followed.
#[test]
fn committed_positions_replay_to_every_replica_on_every_engine() {
    let opts = KvOpts {
        clients: 4,
        ops_per_client: 10,
        keys: 64,
        ..KvOpts::default()
    };
    assert_replays(&opts, "sim", &Spec::Kv(opts.clone()).simulate());
    let jittered = KvOpts {
        jitter: 40,
        seed: 3,
        ..opts.clone()
    };
    let r = Spec::Kv(jittered.clone()).simulate();
    assert!(r.stats().aborts > 0, "jitter should force misguesses");
    assert_replays(&jittered, "sim, jitter 40", &r);

    for (host, executor) in [
        ("rt threaded", Executor::Threaded),
        ("rt sharded:1", Executor::Sharded { workers: 1 }),
        ("rt sharded:2", Executor::Sharded { workers: 2 }),
    ] {
        assert_replays(&opts, host, &run_rt(&opts, executor, NetFaults::none()));
    }

    let path = std::env::temp_dir().join(format!("opcsp-kv-replay-{}.sock", std::process::id()));
    let addr = SockAddr::parse(&format!("uds:{}", path.display())).unwrap();
    let cfg = rt_cfg(Executor::Threaded, NetFaults::none());
    let (hub, worker_failure) = Spec::Kv(opts.clone()).on(Split::new(&cfg, addr, 2)).run();
    assert_eq!(worker_failure, None);
    assert_replays(&opts, "uds x2", &hub);
}

/// The spontaneous order holds on one worker: a fork's right thread runs
/// in its actor's next instant, after the sequencer has stepped, so the
/// round-robin position guess is right every time — and one worker repeats
/// its schedule exactly.
#[test]
fn one_worker_at_latency_zero_commits_every_position_guess() {
    let spec = Spec::parse("kv:clients=4,ops=40,keys=1024").unwrap();
    let cfg = RtConfig {
        latency: Duration::ZERO,
        ..rt_cfg(Executor::Sharded { workers: 1 }, NetFaults::none())
    };
    let runs: Vec<_> = (0..3)
        .map(|_| {
            let r = spec.on(RtWorld::new(cfg.clone())).run();
            spec.check(&r).expect("kv oracle");
            r.stats.proto
        })
        .collect();
    let st = runs[0];
    assert_eq!(
        (st.forks, st.commits, st.aborts, st.orphans),
        (160, 160, 0, 0),
        "{st:?}"
    );
    assert!(runs.iter().all(|r| *r == st), "counters moved: {runs:?}");
}
