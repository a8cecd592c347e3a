//! Socket-transport tests (DESIGN.md §13): a world split across a parent
//! and worker *runtimes* connected over a real socket must pass its
//! world's Theorem-1 oracle (`Spec::check`: the hub's merged committed
//! schedule replayed on the pessimistic simulator).
//!
//! Parent and workers run as threads of this test process
//! (`catalog::Split`), each calling `RtWorld::run()` with its own
//! `RtTransport::Socket` role — the full handshake, frame codec, routing,
//! quiescence drain, and final collection paths are exercised over a real
//! Unix-domain (and, in one smoke test, TCP) socket; only `fork(2)` is
//! skipped. The CLI test in `crates/lang/tests/cli_sock.rs` covers true
//! multi-process runs.
//!
//! Chaos runs on the socket path are held to the same oracle: the chaos
//! layer lives inside each actor's transport, so the socket hop
//! underneath it must not change what commits.

use opcsp_core::{ProcessId, FRAME_VERSION};
use opcsp_rt::{
    Executor, NetFaults, RtConfig, RtResult, RtTransport, RtWorld, SockAddr, SockRole,
};
use opcsp_sim::{Behavior, BehaviorState, Effect, Observable, Outcome, Resume};
use opcsp_workloads::catalog::{place, Roster, Spec, Split};
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::servers::Server;
use opcsp_workloads::streaming::{PairsOpts, PutLineClient, StreamingOpts};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn base_cfg(faults: NetFaults, executor: Executor) -> RtConfig {
    RtConfig {
        latency: Duration::from_millis(2),
        fork_timeout: Duration::from_secs(5),
        run_timeout: Duration::from_secs(30),
        faults,
        executor,
        ..RtConfig::default()
    }
}

/// What `RtConfig::default()` picks: threaded, or the `OPCSP_RT_EXECUTOR`
/// override CI re-runs this suite under.
fn default_executor() -> Executor {
    RtConfig::default().executor
}

/// Both executors, by name: every socket worker hosts its tile under the
/// one the config says.
const EXECUTORS: [Executor; 2] = [Executor::Threaded, Executor::Sharded { workers: 2 }];

fn chaos(seed: u64) -> NetFaults {
    NetFaults {
        seed,
        drop: 0.15,
        dup: 0.1,
        reorder: 3,
        partitions: vec![],
    }
}

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

/// `streaming`: putline client → server. `chain`: client → 2 forwarding
/// hops → terminal server. Both cross the worker boundary for any split.
fn world(workload: &str) -> Spec {
    match workload {
        "streaming" => Spec::Stream(StreamingOpts {
            n: 8,
            ..StreamingOpts::default()
        }),
        "chain" => Spec::Chain(ChainOpts {
            depth: 2,
            ..ChainOpts::default()
        }),
        other => panic!("unknown workload {other}"),
    }
}

/// A healthy client → server pair, a client that panics, and an idle
/// server.
fn boom() -> Roster {
    vec![
        (Arc::new(PutLineClient::to(3, ProcessId(1))), true),
        (Arc::new(Server::new("S", 0)), false),
        (Arc::new(Boom), true),
        (Arc::new(Server::new("Idle", 0)), false),
    ]
}

fn fresh_uds(tag: &str) -> SockAddr {
    let p = std::env::temp_dir().join(format!("opcsp-rt-sock-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    SockAddr::parse(&format!("uds:{}", p.display())).expect("uds addr")
}

/// Run `roster` split across `workers` worker runtimes (each hosting its
/// tile under `executor`) plus a parent, all threads of this process,
/// over `addr`. Returns the parent's (authoritative) result.
fn run_over_socket(
    roster: &Roster,
    faults: NetFaults,
    addr: SockAddr,
    workers: usize,
    executor: Executor,
) -> RtResult {
    let split = Split::new(&base_cfg(faults, executor), addr, workers);
    let (result, worker_failure) = place(roster, split).run();
    assert_eq!(worker_failure, None);
    result
}

fn run_inproc(workload: &str, faults: NetFaults) -> RtResult {
    let cfg = base_cfg(faults, default_executor());
    world(workload).on(RtWorld::new(cfg)).run()
}

/// The socket run passes its world's Theorem-1 oracle.
fn assert_replays(workload: &str, sock: &RtResult, label: &str) {
    world(workload)
        .check(sock)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn streaming_over_uds_with_chaos_replays() {
    for (e, executor) in EXECUTORS.into_iter().enumerate() {
        for seed in [11u64, 12] {
            let label = format!("streaming seed {seed} {executor:?}");
            let addr = fresh_uds(&format!("streaming-{seed}-{e}"));
            let roster = world("streaming").roster();
            let sock = run_over_socket(&roster, chaos(seed), addr, 2, executor);
            sock.ended().unwrap_or_else(|e| panic!("socket {label}: {e}"));
            assert_replays("streaming", &sock, &label);
            assert!(
                sock.stats.retransmits > 0 || sock.stats.drops_injected == 0,
                "{label}: chaos dropped frames but nothing retransmitted"
            );
        }
    }
}

#[test]
fn chain_over_uds_with_chaos_replays() {
    for seed in [21u64, 22] {
        let addr = fresh_uds(&format!("chain-{seed}"));
        let roster = world("chain").roster();
        let sock = run_over_socket(&roster, chaos(seed), addr, 2, default_executor());
        sock.ended().unwrap_or_else(|e| panic!("socket chain seed {seed}: {e}"));
        assert_replays("chain", &sock, &format!("chain seed {seed}"));
    }
}

#[test]
fn chain_split_three_ways_fault_free_replays() {
    // 4 pids over 3 workers: ranges 0..1, 1..2, 2..4 — every hop of the
    // chain crosses a worker boundary at least once.
    for (e, executor) in EXECUTORS.into_iter().enumerate() {
        let label = format!("chain 3 workers {executor:?}");
        let addr = fresh_uds(&format!("chain-3w-{e}"));
        let roster = world("chain").roster();
        let sock = run_over_socket(&roster, NetFaults::none(), addr, 3, executor);
        sock.ended().unwrap_or_else(|e| panic!("socket {label}: {e}"));
        assert_replays("chain", &sock, &label);
    }
}

#[test]
fn actor_panic_on_a_pooled_worker_takes_out_only_that_pid() {
    // One worker runtime hosts all four pids on a two-thread pool, so the
    // panicking actor shares an OS thread with a healthy one (pids 0 and 2
    // are one shard). The panic is that pid's alone: the worker's other
    // actors finish and report, and the hub sees a `Panicked` report and a
    // `Bye`, not a lost connection.
    let sock = run_over_socket(
        &boom(),
        NetFaults::none(),
        fresh_uds("boom-pooled"),
        1,
        Executor::Sharded { workers: 2 },
    );
    assert!(!sock.timed_out, "a dead client must not stall the hub");
    assert_eq!(sock.panicked, vec![ProcessId(2)], "{:?}", sock.panics);
    assert!(
        sock.panics[&ProcessId(2)].contains("boom"),
        "the actor's own payload, not a lost connection: {:?}",
        sock.panics
    );
    assert!(sock.stragglers.is_empty(), "{:?}", sock.stragglers);
    assert_eq!(
        sock.logs.keys().copied().collect::<Vec<_>>(),
        vec![ProcessId(0), ProcessId(1), ProcessId(3)],
        "every sibling reports its final"
    );
    let calls = sock.logs[&ProcessId(1)]
        .iter()
        .filter(|o| matches!(o, Observable::Received { .. }))
        .count();
    assert_eq!(calls, 3, "the healthy pair ran to the end: {:?}", sock.logs);
}

#[test]
fn phases_follow_one_another_within_the_wall() {
    // `RtPhases` holds `Duration`s, so every phase is non-negative by type;
    // what can go wrong is a phase counted twice or measured from the wrong
    // mark, and then the five overrun the wall.
    let inproc = run_inproc("streaming", NetFaults::none());
    let uds = run_over_socket(
        &world("streaming").roster(),
        NetFaults::none(),
        fresh_uds("phases"),
        2,
        default_executor(),
    );
    for (label, r) in [("in-proc", inproc), ("uds", uds)] {
        r.ended().expect(label);
        let p = r.phases;
        let sum = p.setup + p.clients + p.drain + p.collect + p.reap;
        assert!(sum <= r.wall, "{label}: {p:?} add up to {sum:?} > wall {:?}", r.wall);
        assert!(!p.clients.is_zero() && !p.drain.is_zero(), "{label}: {p:?}");
    }
}

#[test]
fn streaming_over_tcp_replays() {
    // Reserve a port by binding to :0, then release it for the parent.
    // (Small race, but loopback port reuse makes it practically safe.)
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        l.local_addr().expect("local addr").port()
    };
    let addr = SockAddr::parse(&format!("tcp:127.0.0.1:{port}")).expect("tcp addr");
    let sock = run_over_socket(
        &world("streaming").roster(),
        NetFaults::none(),
        addr,
        2,
        default_executor(),
    );
    sock.ended().expect("socket streaming tcp");
    assert_replays("streaming", &sock, "streaming tcp");
}

/// Two independent client→server pairs, split so each pair is local to one
/// worker: pids 0,1 on worker 0 (real), pids 2,3 on worker 1 — here an
/// impostor that connects and runs `script` on its connection. Returns the
/// parent's result and worker 0's.
fn run_with_impostor(
    tag: &str,
    script: impl FnOnce(UnixStream) + Send + 'static,
) -> (RtResult, RtResult) {
    let addr = fresh_uds(tag);
    let workers = 2usize;
    let socket = |role| RtConfig {
        transport: RtTransport::Socket {
            addr: addr.clone(),
            role,
        },
        ..base_cfg(NetFaults::none(), default_executor())
    };
    let pairs = Spec::Pairs(PairsOpts {
        pairs: 2,
        n: 3,
        ..PairsOpts::default()
    });

    let worker0 = pairs.on(RtWorld::new(socket(SockRole::Worker { index: 0, workers })));
    let worker0 = std::thread::spawn(move || worker0.run());
    let impostor = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let SockAddr::Uds(path) = &addr else {
                panic!("uds expected")
            };
            let deadline = Instant::now() + Duration::from_secs(10);
            let s = loop {
                match UnixStream::connect(path) {
                    Ok(s) => break s,
                    Err(e) if Instant::now() >= deadline => panic!("impostor connect: {e}"),
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            };
            script(s);
        })
    };

    let parent = pairs
        .on(RtWorld::new(socket(SockRole::Parent { workers })))
        .run();
    let worker0 = worker0.join().expect("worker 0");
    impostor.join().expect("impostor");
    (parent, worker0)
}

/// `tag_and_body` framed as one socket message: u32le len | version | tag |
/// body.
fn sock_msg(tag_and_body: &[u8]) -> Vec<u8> {
    let mut m = ((1 + tag_and_body.len()) as u32).to_le_bytes().to_vec();
    m.push(FRAME_VERSION);
    m.extend_from_slice(tag_and_body);
    m
}

/// The impostor's side of a handshake the hub accepts: a hand-rolled
/// `Hello{index: 1, workers: 2, n: 4, lo: 2, hi: 4}` (tag 0, five
/// single-byte uvarints), then the hub's `Start` (tag 1), after which
/// worker 0 is running.
fn complete_handshake(s: &mut UnixStream) {
    s.write_all(&sock_msg(&[0, 1, 2, 4, 2, 4]))
        .expect("impostor hello");
    let mut start = [0u8; 6];
    s.read_exact(&mut start).expect("the hub's Start");
    assert_eq!(start[..], sock_msg(&[1])[..], "the hub's Start");
}

/// The impostor's pids were lost with its connection after a completed
/// handshake, fast, and worker 0's pair ran to the end.
fn assert_impostor_lost(parent: &RtResult, label: &str) {
    assert!(
        !parent.timed_out,
        "{label}: a lost worker must fail fast, not stall to run_timeout\n panics: {:?}\n wall: {:?}",
        parent.panics, parent.wall
    );
    assert_eq!(
        parent.panicked,
        vec![ProcessId(2), ProcessId(3)],
        "{label}: the impostor's pid range must be reported panicked: {:?}",
        parent.panics
    );
    for pid in [ProcessId(2), ProcessId(3)] {
        assert_eq!(parent.panics[&pid], "worker connection 1 lost", "{label}");
    }
    let returns = parent.logs.get(&ProcessId(0)).map(|log| {
        log.iter()
            .filter(|o| matches!(o, Observable::Received { .. }))
            .count()
    });
    assert_eq!(returns, Some(3), "{label}: the healthy pair: {:?}", parent.logs);
    assert!(parent.logs.contains_key(&ProcessId(1)), "{label}: pid 1's final");
}

#[test]
fn worker_crash_reports_its_pids_as_panicked() {
    // The impostor completes the handshake and drops the connection: EOF
    // without Bye is a crashed worker.
    let (parent, _) = run_with_impostor("crash", |mut s| complete_handshake(&mut s));
    assert_impostor_lost(&parent, "crash after the handshake");
}

#[test]
fn corrupt_nested_envelope_is_its_senders_loss_and_never_reaches_a_sibling() {
    // A `Net` message with a valid length, addressed to worker 0's server,
    // whose nested envelope frame is garbage. The hub decodes before it
    // relays, so the impostor's connection is lost while it is still open,
    // and worker 0 never reads the bytes (it would stop hosting on them).
    let (parent, worker0) = run_with_impostor("corrupt", |mut s| {
        complete_handshake(&mut s);
        // Net | from 2 | to 1 | ack 0 | a message: seq 1, data | the frame
        let mut net = vec![2, 2, 1, 0, 1, 1, 0];
        net.extend_from_slice(&[5, 0, 0, 0, FRAME_VERSION, 0xff, 0xff, 0xff, 0xff]);
        s.write_all(&sock_msg(&net)).expect("corrupt frame");
        // Hold the connection until the hub lets go of it.
        let _ = std::io::copy(&mut s, &mut std::io::sink());
    });
    assert_impostor_lost(&parent, "corrupt nested envelope");
    assert!(!worker0.timed_out, "worker 0 wound down cleanly");
}

#[test]
fn net_frame_to_a_pid_out_of_range_is_dropped_at_the_hub() {
    // A well-formed ack-only frame for pid 200 of a 4-process world: the
    // hub drops it and keeps reading; the impostor's later EOF is then
    // attributed like any crash.
    let (parent, _) = run_with_impostor("out-of-range", |mut s| {
        complete_handshake(&mut s);
        // Net | from 2 | to 200 (uvarint) | ack 0 | no message
        let stray = sock_msg(&[2, 2, 0xc8, 0x01, 0, 0]);
        s.write_all(&stray).expect("stray frame");
    });
    assert_impostor_lost(&parent, "out-of-range target");
}

/// Handshake-phase crashes: the impostor writes `dying_bytes` and drops
/// the connection *without ever completing a Hello*.
fn run_with_handshake_impostor(tag: &str, dying_bytes: Vec<u8>) -> RtResult {
    let (parent, _) = run_with_impostor(tag, move |mut s| {
        let _ = s.write_all(&dying_bytes);
    });
    parent
}

fn assert_handshake_loss_contained(parent: &RtResult, label: &str) {
    assert!(
        !parent.timed_out,
        "{label}: a worker lost in the handshake must not stall the hub\n panicked: {:?}\n panics: {:?}\n wall: {:?}",
        parent.panicked, parent.panics, parent.wall
    );
    assert_eq!(
        parent.panicked,
        vec![ProcessId(2), ProcessId(3)],
        "{label}: the lost worker's pid range must be reported panicked: {:?}",
        parent.panics
    );
    for pid in [ProcessId(2), ProcessId(3)] {
        assert!(
            parent.panics[&pid].contains("handshake"),
            "{label}: panic message should blame the handshake: {:?}",
            parent.panics[&pid]
        );
    }
    // The healthy pair hosted by the surviving worker still committed.
    assert!(parent.logs.contains_key(&ProcessId(0)), "{label}: pid 0 log missing");
    assert!(parent.logs.contains_key(&ProcessId(1)), "{label}: pid 1 log missing");
}

#[test]
fn worker_killed_during_handshake_does_not_panic_hub() {
    // The impostor gets two bytes of a length prefix out before dying —
    // the parent used to `unwrap()` the missing connection and abort the
    // whole world; now it attributes pids 2,3 and finishes the rest.
    let parent = run_with_handshake_impostor("hskill", vec![0x03, 0x00]);
    assert_handshake_loss_contained(&parent, "mid-handshake kill");
}

#[test]
fn oversized_length_prefix_on_socket_path_is_connection_loss() {
    // Cap-boundary on the socket read path: a length prefix one past
    // `MAX_FRAME_BYTES` must be rejected by the shared header parser
    // (never allocated or read through), and the connection treated as a
    // lost worker like any other handshake death.
    let bogus = ((opcsp_core::MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
    let parent = run_with_handshake_impostor("hscap", bogus);
    assert_handshake_loss_contained(&parent, "oversized prefix");
}
