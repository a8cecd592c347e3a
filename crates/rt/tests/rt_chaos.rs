//! Chaos differential tests: the threaded runtime under an unreliable
//! network (drops, duplicates, reordering, partitions) must commit
//! exactly the observable logs and externals of the fault-free run — the
//! reliable sublayer absorbs the chaos before the protocol core sees it —
//! and every chaotic run passes its world's Theorem-1 oracle
//! (`Spec::check`: its committed schedule replayed on the pessimistic
//! simulator).
//!
//! Also pins the ISSUE-4 shutdown/liveness bugfixes: actor-panic
//! propagation (not a fake timeout), drain-to-quiescence shutdown (no
//! truncated commit waves), and straggler reporting (no harness
//! deadlock). The spurious-timer-flush fix is pinned at the unit level in
//! `net.rs` (`shutdown_flush_drops_timer_class_items`).

use opcsp_core::ProcessId;
use opcsp_rt::{Executor, NetFaults, Partition, RtConfig, RtResult, RtWorld};
use opcsp_sim::{Behavior, BehaviorState, Effect, Observable, Outcome, Resume};
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::servers::Server;
use opcsp_workloads::streaming::{PutLineClient, StreamingOpts};
use std::time::Duration;

fn cfg(latency_ms: u64, faults: NetFaults) -> RtConfig {
    RtConfig {
        latency: Duration::from_millis(latency_ms),
        fork_timeout: Duration::from_secs(5),
        run_timeout: Duration::from_secs(20),
        faults,
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

/// Workload 1: call streaming — client puts `n` lines to a server.
fn streaming() -> Spec {
    Spec::Stream(StreamingOpts {
        n: 8,
        ..StreamingOpts::default()
    })
}

/// Workload 2: a pipeline of optimistic forwarders — commits keep flowing
/// downstream after the client is already done.
fn chain() -> Spec {
    Spec::Chain(ChainOpts {
        depth: 2,
        ..ChainOpts::default()
    })
}

fn run(world: &Spec, faults: NetFaults) -> RtResult {
    world.on(RtWorld::new(cfg(2, faults))).run()
}

/// The chaotic run commits exactly the fault-free run's logs and
/// externals, and passes the world's Theorem-1 oracle.
fn assert_logs_equivalent(world: &Spec, baseline: &RtResult, chaotic: &RtResult, label: &str) {
    assert_eq!(baseline.logs, chaotic.logs, "{label}: diverged under chaos");
    assert_eq!(
        baseline.external, chaotic.external,
        "{label}: externals diverged under chaos"
    );
    world
        .check(chaotic)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn chaos_differential_streaming() {
    let world = streaming();
    let baseline = run(&world, NetFaults::none());
    baseline.ended().expect("baseline");
    assert_eq!(baseline.stats.drops_injected, 0);
    for seed in [1u64, 7, 42] {
        let chaotic = run(&world, chaos(seed));
        let label = format!("streaming seed={seed}");
        chaotic.ended().expect(&label);
        assert_logs_equivalent(&world, &baseline, &chaotic, &label);
        // The chaos layer provably fired and the sublayer absorbed it.
        assert!(chaotic.stats.drops_injected > 0, "{label}: {:?}", chaotic.stats);
        assert!(chaotic.stats.dups_injected > 0, "{label}: {:?}", chaotic.stats);
        assert!(chaotic.stats.retransmits > 0, "{label}: {:?}", chaotic.stats);
        // No protocol-level orphan leaks: dedup killed every duplicate
        // before the protocol core could see it.
        assert_eq!(
            chaotic.stats.orphans, baseline.stats.orphans,
            "{label}: orphan counts diverged"
        );
    }
}

#[test]
fn chaos_differential_chain() {
    let world = chain();
    let baseline = run(&world, NetFaults::none());
    baseline.ended().expect("baseline");
    assert_eq!(baseline.stats.aborts, 0, "{:?}", baseline.stats);
    for seed in [1u64, 7, 42] {
        let chaotic = run(&world, chaos(seed));
        let label = format!("chain seed={seed}");
        chaotic.ended().expect(&label);
        assert_logs_equivalent(&world, &baseline, &chaotic, &label);
        assert!(chaotic.stats.drops_injected > 0, "{label}: {:?}", chaotic.stats);
        assert!(chaotic.stats.dups_injected > 0, "{label}: {:?}", chaotic.stats);
        assert!(chaotic.stats.retransmits > 0, "{label}: {:?}", chaotic.stats);
        assert_eq!(
            chaotic.stats.orphans, baseline.stats.orphans,
            "{label}: orphan counts diverged"
        );
    }
}

/// A one-shot partition window severs the client→server link mid-run;
/// backoff + retransmission recover once it heals, and the committed
/// logs still match the fault-free run.
#[test]
fn partition_window_heals_and_run_completes() {
    let world = streaming();
    let baseline = run(&world, NetFaults::none());
    let faults = NetFaults {
        seed: 3,
        drop: 0.0,
        dup: 0.0,
        reorder: 0,
        partitions: vec![Partition {
            from: ProcessId(0),
            to: ProcessId(1),
            start_ms: 0,
            duration_ms: 80,
        }],
    };
    let r = run(&world, faults);
    r.ended().expect("partition");
    assert!(r.stats.drops_injected > 0, "{:?}", r.stats);
    assert!(r.stats.retransmits > 0, "{:?}", r.stats);
    assert_logs_equivalent(&world, &baseline, &r, "partition");
}

// ---------------------------------------------------------------------------
// Regression pins for the ISSUE-4 rt shutdown/liveness bugfixes
// ---------------------------------------------------------------------------

/// A behavior that panics on its first step.
struct Boom;
impl Behavior for Boom {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(())
    }
    fn step(&self, _state: &mut BehaviorState, _resume: Resume) -> Effect {
        panic!("boom: injected actor panic");
    }
}

/// Pre-fix, `RecvTimeoutError::Disconnected` (every actor dead) was
/// collapsed into `timed_out = true` and the panic vanished. Now the
/// panic is surfaced with its payload and the run is NOT a timeout.
#[test]
fn actor_panic_is_reported_not_a_timeout() {
    let mut w = RtWorld::new(cfg(1, NetFaults::none()));
    let p = w.add_process(Boom, true);
    let r = w.run();
    assert!(
        !r.timed_out,
        "an actor panic must not masquerade as a timeout"
    );
    assert_eq!(r.panicked, vec![p]);
    assert!(
        r.panics[&p].contains("boom"),
        "panic payload must propagate from join(): {:?}",
        r.panics
    );
}

/// Declares that it talks to nobody, then sends to `self.0` anyway.
struct Liar(ProcessId);
impl Behavior for Liar {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(())
    }
    fn step(&self, _state: &mut BehaviorState, _resume: Resume) -> Effect {
        Effect::send(self.0, 1i64, "M")
    }
    fn name(&self) -> &str {
        "Liar"
    }
    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(Vec::new())
    }
}

/// Control messages go to the component the behaviors declared, so a send
/// that leaves it would carry guesses whose resolution never follows. The
/// driver refuses it: the liar dies attributed, at once, under either
/// executor — not a hang, not a timeout.
#[test]
fn send_outside_the_declared_peers_is_an_attributed_panic() {
    for executor in [Executor::Threaded, Executor::Sharded { workers: 2 }] {
        let mut w = RtWorld::new(RtConfig {
            run_timeout: Duration::from_secs(6),
            executor,
            ..cfg(1, NetFaults::none())
        });
        let server = ProcessId(1);
        let liar = w.add_process(Liar(server), true);
        assert_eq!(w.add_process(Server::new("S", 0), false), server);
        let r = w.run();
        assert!(
            r.wall < Duration::from_secs(1),
            "{executor:?}: {:?}",
            r.wall
        );
        assert!(
            !r.timed_out,
            "{executor:?}: a refused send is not a timeout"
        );
        assert_eq!(r.panicked, vec![liar], "{executor:?}");
        let msg = &r.panics[&liar];
        assert!(
            msg.contains("Liar") && msg.contains(&format!("process {}", server.0)),
            "{executor:?}: payload must name the sender and the target: {msg}"
        );
        assert!(r.stragglers.is_empty(), "{executor:?}: {:?}", r.stragglers);
    }
}

/// A client that dies while another actor lives on: the coordinator was
/// waiting for that client's `ClientDone`, so the death itself has to end
/// the wait — not `run_timeout`, which would also mislabel the run.
#[test]
fn dead_client_ends_the_run_while_a_server_lives_on() {
    for executor in [Executor::Threaded, Executor::Sharded { workers: 2 }] {
        let mut w = RtWorld::new(RtConfig {
            run_timeout: Duration::from_secs(6),
            executor,
            ..cfg(1, NetFaults::none())
        });
        let c = w.add_process(Boom, true);
        let s = w.add_process(Server::new("S", 0), false);
        let r = w.run();
        assert!(
            r.wall < Duration::from_secs(1),
            "{executor:?}: waited {:?} for a client known dead",
            r.wall
        );
        assert!(!r.timed_out, "{executor:?}: a death is not a timeout");
        assert_eq!(r.panicked, vec![c], "{executor:?}");
        assert!(r.stragglers.is_empty(), "{executor:?}: {:?}", r.stragglers);
        assert!(
            r.logs.contains_key(&s),
            "{executor:?}: the healthy server still reports"
        );
    }
}

/// Panic in a *server* while the client is stuck waiting on it: the run
/// times out (the client can never finish), but the panic is still
/// attributed to the right actor with its payload.
#[test]
fn server_panic_is_attributed_even_on_timeout() {
    let mut w = RtWorld::new(RtConfig {
        run_timeout: Duration::from_millis(400),
        ..cfg(1, NetFaults::none())
    });
    let c = w.add_process(PutLineClient::new(2), true);
    let s = w.add_process(Boom, false);
    let r = w.run();
    assert!(r.timed_out, "client can never finish");
    assert_eq!(r.panicked, vec![s]);
    assert!(!r.panicked.contains(&c));
}

/// Pre-fix, shutdown was sent directly to actor inboxes after a fixed
/// `grace` sleep (racing in-flight commit waves still queued in the
/// delayer; `grace = 0` reliably truncated downstream logs). Now the
/// coordinator drains the network to quiescence, so the pipeline's
/// post-client-completion traffic always lands.
#[test]
fn shutdown_drains_inflight_commit_waves() {
    for _ in 0..5 {
        let r = run(&chain(), NetFaults::none());
        r.ended().expect("chain drain");
        let terminal = ProcessId(3);
        let received = r.logs[&terminal]
            .iter()
            .filter(|o| matches!(o, Observable::Received { .. }))
            .count();
        assert_eq!(
            received, 4,
            "all items must reach the terminal before shutdown: {:?}",
            r.logs[&terminal]
        );
        assert_eq!(r.stats.aborts, 0, "{:?}", r.stats);
        // Every fork's commit wave landed: no guess left unresolved
        // anywhere, so commits == forks.
        assert_eq!(r.stats.commits, r.stats.forks, "{:?}", r.stats);
    }
}

/// A behavior that wedges its actor thread forever.
struct Stuck;
impl Behavior for Stuck {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(())
    }
    fn step(&self, _state: &mut BehaviorState, _resume: Resume) -> Effect {
        std::thread::sleep(Duration::from_secs(600));
        Effect::Done
    }
}

/// Pre-fix, the final-report loop broke into an unconditional `join()`
/// that hung forever on a wedged actor. Now the join has a deadline
/// derived from `run_timeout`: the wedged actor is reported as a
/// straggler, the healthy actors' results still arrive, and the harness
/// returns. Thread-per-process, so the wedged actor blocks no one else
/// (the sharded case is the next test).
#[test]
fn stuck_actor_is_reported_as_straggler_not_deadlock() {
    let t0 = std::time::Instant::now();
    let mut w = RtWorld::new(RtConfig {
        run_timeout: Duration::from_millis(600),
        executor: Executor::Threaded,
        ..cfg(1, NetFaults::none())
    });
    let c = w.add_process(PutLineClient::new(2), true);
    let _s = w.add_process(Server::new("S", 0), false);
    let stuck = w.add_process(Stuck, false);
    let r = w.run();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "harness must not hang on a wedged actor"
    );
    assert_eq!(r.stragglers, vec![stuck]);
    assert!(
        r.logs.contains_key(&c),
        "healthy actors' final reports still collected"
    );
    assert!(r.panicked.is_empty());
}

/// The same wedge on the sharded executor. A pid runs on shard
/// `(pid − lo) % workers`, so with two workers the client (P0) shares the
/// wedged actor's (P2) shard and is wedged with it. What the executor
/// guarantees: the harness still returns within its deadline, the
/// stragglers are exactly the wedged actor and its shard-mates, nothing
/// panicked, and the server on the other shard reports its log.
#[test]
fn stuck_actor_on_a_shard_strands_exactly_its_shard_mates() {
    let t0 = std::time::Instant::now();
    let mut w = RtWorld::new(RtConfig {
        run_timeout: Duration::from_millis(600),
        executor: Executor::Sharded { workers: 2 },
        ..cfg(1, NetFaults::none())
    });
    let c = w.add_process(PutLineClient::new(2), true);
    let s = w.add_process(Server::new("S", 0), false);
    let stuck = w.add_process(Stuck, false);
    let r = w.run();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "harness must not hang on a wedged shard"
    );
    assert_eq!(r.stragglers, vec![c, stuck]);
    assert!(r.panicked.is_empty(), "{:?}", r.panics);
    assert!(
        r.logs.contains_key(&s),
        "the server on the healthy shard still reports"
    );
}
