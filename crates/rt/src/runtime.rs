//! The real-thread runtime: process actors on OS threads, crossbeam
//! channels as the network, and the same protocol core as the simulator.
//!
//! Inter-process parallelism is real; the paper's intra-process
//! left/right threads are logical threads multiplexed inside each actor
//! ([`crate::core_poll::ProcessActor`]), exactly as a single-core Mach
//! task would run them. Injected latency recreates the distributed setting
//! whose round trips call streaming hides — the E7 wall-clock benchmarks
//! measure precisely that. It costs no thread: a frame carries the instant
//! it is due and waits in the receiving actor's own timer queue
//! (`net::TimerQueue`, DESIGN.md §9.1).
//!
//! How actors map onto OS threads is the executor's business
//! ([`RtConfig::executor`], DESIGN.md §11): [`Executor::Threaded`] gives
//! every process its own thread (the original shape, honest parallelism,
//! caps at a few hundred processes); [`Executor::Sharded`] multiplexes
//! 10k–100k processes over a fixed worker pool. Both run the identical
//! protocol core, so their committed logs must agree — the differential
//! in `tests/rt_executor.rs` holds them to that.
//!
//! All protocol traffic goes through the two-layer `net::Transport`
//! (DESIGN.md §9): a seeded chaos layer (drops, duplicates, reordering,
//! partitions — [`crate::net::NetFaults`]) underneath a reliable-delivery
//! sublayer (per-link sequencing, cumulative acks, retransmission, dedup,
//! in-order release), so the protocol core keeps seeing the reliable FIFO
//! network the paper assumes even when the wire misbehaves.
//!
//! Scope note (documented in DESIGN.md): unlike the simulator, the
//! runtime detects completion by waiting for designated *client*
//! processes to finish their programs and resolve their guesses. It then
//! drains the network to quiescence — probe rounds that terminate when no
//! frame is unacked anywhere and no actor made progress between two
//! consecutive rounds — before halting the actors, so in-flight commit
//! waves (and their retransmissions) always land.
//!
//! That coordinator is one function, [`coordinate`] (DESIGN.md §9.2), for
//! every transport and executor. `run_inproc` is `executor::spawn_world`
//! on the whole pid range plus a call to it; the socket hub (`rt::sock`)
//! is a handshake, a routing table and the same call. What the two hand
//! it differs only in how a probe or a shutdown reaches the actors and in
//! what there is to join afterwards ([`Hosts`]).

use crate::core_poll::Report;
use crate::executor::{self, Executor, WorldSpec};
use crate::net::NetFaults;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use opcsp_core::{CoreConfig, ProcessId, ProtoStats, Telemetry, Value};
use opcsp_sim::{Behavior, Observable, Outcome};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RtConfig {
    pub core: CoreConfig,
    /// One-way injected network latency.
    pub latency: Duration,
    /// Wall-clock budget for a left thread before its guess aborts.
    pub fork_timeout: Duration,
    /// Hard cap on the whole run.
    pub run_timeout: Duration,
    /// Network fault injection (the chaos layer). Fault-free by default;
    /// the reliable-delivery sublayer runs either way.
    pub faults: NetFaults,
    /// Record the unified lifecycle event stream (`core::telemetry`).
    /// Off by default: with the sink disabled every record call is a
    /// no-op, keeping the hot path within the telemetry-overhead bench
    /// gate. Timestamps are microseconds since run start.
    pub telemetry: bool,
    /// How actors are scheduled onto OS threads. Defaults to the
    /// `OPCSP_RT_EXECUTOR` env override (`threaded` | `sharded` |
    /// `sharded:N`) if set — so CI can run every existing suite under the
    /// sharded executor unmodified — else [`Executor::Threaded`].
    pub executor: Executor,
    /// Where the world's processes physically live (DESIGN.md §13):
    /// [`RtTransport::InProc`] hosts every actor in this OS process over
    /// in-memory channels (the default, identical to the pre-socket
    /// runtime); [`RtTransport::Socket`] splits the pid space across
    /// separate OS processes connected over TCP or a Unix-domain socket,
    /// with envelopes crossing the wire as binary frames
    /// (`core::wire::encode_frame`).
    pub transport: crate::sock::RtTransport,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            core: CoreConfig::default(),
            latency: Duration::from_millis(2),
            fork_timeout: Duration::from_secs(5),
            run_timeout: Duration::from_secs(30),
            faults: NetFaults::none(),
            telemetry: false,
            executor: Executor::from_env().unwrap_or(Executor::Threaded),
            transport: crate::sock::RtTransport::InProc,
        }
    }
}

/// Aggregated statistics across all actors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Protocol counters shared with the simulator (`core::telemetry`):
    /// forks, commits, aborts, rollbacks, discards, orphans, message and
    /// wire-byte counts. Accessed transparently via `Deref` —
    /// `stats.forks` reads `stats.proto.forks`.
    pub proto: ProtoStats,
    /// Transmissions the chaos layer dropped (incl. partition windows).
    pub drops_injected: u64,
    /// Transmissions the chaos layer duplicated.
    pub dups_injected: u64,
    /// Reliable-sublayer retransmissions of unacked frames.
    pub retransmits: u64,
    /// Standalone ack frames sent (piggybacked acks are free).
    pub acks: u64,
    /// Frames released to the protocol after waiting in the out-of-order
    /// buffer — proof the reorder chaos actually scrambled a link.
    pub reorder_releases: u64,
    /// Reliable frames originated (retransmissions and acks excluded).
    pub frames_sent: u64,
    /// Frames released in order to the protocol cores.
    pub frames_delivered: u64,
    /// Sequenced frames receivers discarded as already seen. `dup_frames −
    /// dups_injected` retransmissions were not needed: on a lossless run
    /// that is all of them.
    pub dup_frames: u64,
}

impl std::ops::Deref for RtStats {
    type Target = ProtoStats;
    fn deref(&self) -> &ProtoStats {
        &self.proto
    }
}

impl std::ops::DerefMut for RtStats {
    fn deref_mut(&mut self) -> &mut ProtoStats {
        &mut self.proto
    }
}

impl RtStats {
    pub(crate) fn merge(&mut self, o: &RtStats) {
        self.proto.merge(&o.proto);
        self.drops_injected += o.drops_injected;
        self.dups_injected += o.dups_injected;
        self.retransmits += o.retransmits;
        self.acks += o.acks;
        self.reorder_releases += o.reorder_releases;
        self.frames_sent += o.frames_sent;
        self.frames_delivered += o.frames_delivered;
        self.dup_frames += o.dup_frames;
    }

    pub(crate) fn absorb_net(&mut self, n: crate::net::NetStats) {
        self.drops_injected += n.drops_injected;
        self.dups_injected += n.dups_injected;
        self.retransmits += n.retransmits;
        self.acks += n.acks;
        self.reorder_releases += n.reorder_releases;
        self.frames_sent += n.frames_sent;
        self.frames_delivered += n.frames_delivered;
        self.dup_frames += n.dup_frames;
    }
}

/// Result of a run.
#[derive(Debug, Default)]
pub struct RtResult {
    pub wall: Duration,
    pub stats: RtStats,
    /// Per-process committed observable logs (thread order).
    pub logs: BTreeMap<ProcessId, Vec<Observable>>,
    /// Released external outputs.
    pub external: Vec<(ProcessId, Value)>,
    /// True if the run hit `run_timeout` before the clients finished (or
    /// before the post-completion network drain reached quiescence).
    pub timed_out: bool,
    /// Actors that panicked (in pid order).
    pub panicked: Vec<ProcessId>,
    /// Panic payloads recovered from the panicked actors.
    pub panics: BTreeMap<ProcessId, String>,
    /// Actors still running when the join deadline expired; their threads
    /// are detached and their logs/stats are missing from this result.
    pub stragglers: Vec<ProcessId>,
    /// Unified lifecycle event stream (`core::telemetry`), merged across
    /// actors in timestamp order (µs since run start). Empty unless
    /// [`RtConfig::telemetry`] was set.
    pub telemetry: Telemetry,
    /// Where `wall` went, phase by phase.
    pub phases: RtPhases,
}

/// A run as the Theorem-1 oracles read it: it ended on its own — no
/// time-out, no panic, no straggler — and its logs are already in the
/// simulator's fork-index order, so `opcsp_sim::check_theorem1` replays it.
impl Outcome for RtResult {
    fn ended(&self) -> Result<(), String> {
        if self.timed_out {
            Err(format!("timed out ({:?})", self.stats))
        } else if !self.panicked.is_empty() {
            Err(format!("panics {:?}", self.panics))
        } else if !self.stragglers.is_empty() {
            Err(format!("stragglers {:?}", self.stragglers))
        } else {
            Ok(())
        }
    }
    fn logs(&self) -> &BTreeMap<ProcessId, Vec<Observable>> {
        &self.logs
    }
    fn external(&self) -> Vec<(ProcessId, Value)> {
        self.external.clone()
    }
}

/// A run's phases (DESIGN.md §9.2): spawning the world (on the socket hub
/// also bind and handshake), waiting for the clients, the drain to
/// quiescence, shutdown plus the final reports, and the reap. They follow
/// one another, so they sum to at most [`RtResult::wall`]; a run that never
/// reached the coordinator (a socket worker, a failed handshake) has none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtPhases {
    pub setup: Duration,
    pub clients: Duration,
    pub drain: Duration,
    pub collect: Duration,
    pub reap: Duration,
}

/// Builder/handle for a runtime world.
pub struct RtWorld {
    pub(crate) cfg: RtConfig,
    pub(crate) behaviors: Vec<Arc<dyn Behavior>>,
    pub(crate) is_client: Vec<bool>,
}

impl RtWorld {
    pub fn new(cfg: RtConfig) -> Self {
        RtWorld {
            cfg,
            behaviors: Vec::new(),
            is_client: Vec::new(),
        }
    }

    /// Register a process. `is_client` marks processes whose program
    /// completion (plus guess resolution) signals the end of the run.
    pub fn add_process(&mut self, b: impl Behavior + 'static, is_client: bool) -> ProcessId {
        self.add_process_arc(Arc::new(b), is_client)
    }

    /// Register a pre-shared behavior. Huge worlds register one
    /// `Arc<dyn Behavior>` template for thousands of identical processes:
    /// registration is then O(1) per process (a pointer clone), and the
    /// sharded executor constructs actor state lazily inside the owning
    /// worker — no O(N) coordinator-side allocation spike.
    pub fn add_process_arc(&mut self, b: Arc<dyn Behavior>, is_client: bool) -> ProcessId {
        let id = ProcessId(self.behaviors.len() as u32);
        self.behaviors.push(b);
        self.is_client.push(is_client);
        id
    }

    /// Run to completion (all clients finished + network drained) or
    /// timeout. [`RtTransport::Socket`](crate::sock::RtTransport::Socket)
    /// worlds are handed to the socket runtime (`rt::sock`); everything
    /// else runs in-process over memory channels.
    pub fn run(self) -> RtResult {
        match self.cfg.transport.clone() {
            crate::sock::RtTransport::InProc => self.run_inproc(),
            crate::sock::RtTransport::Socket { addr, role } => {
                crate::sock::run_socket(self, addr, role)
            }
        }
    }

    /// The pids whose completion ends the run.
    pub(crate) fn clients(&self) -> BTreeSet<ProcessId> {
        (0..self.behaviors.len())
            .filter(|i| self.is_client[*i])
            .map(|i| ProcessId(i as u32))
            .collect()
    }

    fn run_inproc(self) -> RtResult {
        let n = self.behaviors.len();
        let clients = self.clients();
        let cfg = Arc::new(self.cfg);
        let (report, reports) = unbounded::<Report>();
        let start = Instant::now();
        let world = executor::spawn_world(WorldSpec {
            behaviors: self.behaviors,
            is_client: self.is_client,
            cfg: cfg.clone(),
            report,
            start,
            local: 0..n,
            id_base: 0,
            remote: None,
        });
        coordinate(world, reports, n, clients, &cfg, start)
    }
}

/// What [`coordinate`] drives: whatever is running the world's actors.
/// The two implementations are all the in-proc runtime and the socket hub
/// differ in — how a signal reaches every actor, and what is left to join
/// when the run is over. Everything else (the phases, their deadlines,
/// how a death is learnt, what the result says) is [`coordinate`].
pub(crate) trait Hosts {
    /// Ask every live actor for a `Report::Quiet` carrying `round`.
    fn probe(&self, round: u64);
    /// Tell every actor to send its `Report::Final` and stop.
    fn shutdown(&self);
    /// Join what ran the world, waiting no longer than `deadline`; what
    /// is still running then is detached.
    fn reap(self, deadline: Instant);
}

/// How long the end of a run (final reports, joins) may take: derived
/// from `run_timeout`, so a stuck actor cannot hang the harness.
pub(crate) fn join_budget(cfg: &RtConfig) -> Duration {
    (cfg.run_timeout / 8)
        .max(Duration::from_millis(100))
        .min(Duration::from_secs(5))
}

/// Join `h` if it finishes by `deadline`; otherwise detach it (the thread
/// leaks, the harness survives) and return false.
pub(crate) fn join_by(h: JoinHandle<()>, deadline: Instant) -> bool {
    while !h.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let finished = h.is_finished();
    if finished {
        // Actor panics are contained and reported where they happen; an
        // `Err` here has nothing more to tell.
        let _ = h.join();
    }
    finished
}

/// The coordinator, for every transport and executor: run an `n`-process
/// world hosted by `hosts`, whose actors answer on `reports`, to
/// completion or `cfg.run_timeout` (counted from `start`).
pub(crate) fn coordinate(
    hosts: impl Hosts,
    reports: Receiver<Report>,
    n: usize,
    clients: BTreeSet<ProcessId>,
    cfg: &RtConfig,
    start: Instant,
) -> RtResult {
    let mut coord = Coord {
        rx: reports,
        panics: BTreeMap::new(),
        dead: BTreeSet::new(),
    };
    // Each phase ends where the next begins; setup is what came before.
    let mut last = start;
    let mut lap = || {
        let now = Instant::now();
        now - std::mem::replace(&mut last, now)
    };
    let setup = lap();

    // Phase 1 — wait for every client to finish. A death is a wake-up
    // (`Step::Died`): a dead client will never report done, and waiting
    // for it would stall the run until `run_timeout`. `AllExited` means
    // every report sender is gone: that is a panic wave, not a timeout,
    // and is reported as such.
    let deadline = start + cfg.run_timeout;
    let mut waiting = clients;
    let mut timed_out = false;
    let mut all_dead = false;
    loop {
        waiting.retain(|p| !coord.dead.contains(p));
        if waiting.is_empty() {
            break;
        }
        match coord.recv_deadline(deadline) {
            Step::Got(Report::ClientDone(pid)) => {
                waiting.remove(&pid);
            }
            Step::Got(_) | Step::Died => {}
            Step::DeadlineHit => {
                timed_out = true;
                break;
            }
            Step::AllExited => {
                all_dead = true;
                break;
            }
        }
    }
    let clients = lap();

    // Phase 2 — drain the network to quiescence before halting anyone:
    // in-flight commit waves (and, under chaos, their retransmissions)
    // must land, or server committed logs get truncated. A fixed grace
    // sleep cannot bound that; probe rounds can.
    if !timed_out && !all_dead && !drain_to_quiescence(&hosts, n, &mut coord, deadline) {
        timed_out = true;
    }
    let drain = lap();

    hosts.shutdown();

    // Phase 3 — collect final reports, on a budget. Dead (panicked)
    // actors never report a final.
    let collect_deadline = Instant::now() + join_budget(cfg);
    let mut stats = RtStats::default();
    let mut logs = BTreeMap::new();
    let mut external = Vec::new();
    let mut telemetry = Telemetry::new(cfg.telemetry);
    while logs.len() < n - coord.dead.len() {
        match coord.recv_deadline(collect_deadline) {
            Step::Got(Report::Final(f)) => {
                stats.merge(&f.stats);
                logs.insert(f.pid, f.log);
                for v in f.external {
                    external.push((f.pid, v));
                }
                telemetry.absorb(f.events);
            }
            Step::Got(_) | Step::Died => {}
            Step::DeadlineHit | Step::AllExited => break,
        }
    }
    let collect = lap();

    // Phase 4 — reap on the same deadline. Every panic was caught where
    // it happened and has been reported, so whoever neither sent a final
    // nor died was still running: a straggler, not a deadlock.
    hosts.reap(collect_deadline);
    let phases = RtPhases {
        setup,
        clients,
        drain,
        collect,
        reap: lap(),
    };
    let stragglers = (0..n as u32)
        .map(ProcessId)
        .filter(|p| !logs.contains_key(p) && !coord.dead.contains(p))
        .collect();
    RtResult {
        wall: start.elapsed(),
        stats,
        logs,
        external,
        timed_out,
        panicked: coord.dead.into_iter().collect(),
        panics: coord.panics,
        stragglers,
        telemetry,
        phases,
    }
}

/// Coordinator-side receive state: one deadline-driven helper shared by
/// every phase (client wait, drain rounds, final collection), so they all
/// derive the remaining timeout identically, none can spin on a
/// zero-duration `recv_timeout` near the deadline, and every phase learns
/// about actor deaths the same way.
struct Coord {
    rx: Receiver<Report>,
    /// Panic payloads, attributed to pids.
    panics: BTreeMap<ProcessId, String>,
    /// Actors known dead (panicked, or lost with their worker): they
    /// answer no probe and send no final report.
    dead: BTreeSet<ProcessId>,
}

enum Step {
    /// A report other than `Panicked`.
    Got(Report),
    /// A `Panicked` report, already recorded in `dead` / `panics`. Handed
    /// back rather than swallowed because a death can be the very thing a
    /// phase is (unknowingly) waiting for.
    Died,
    DeadlineHit,
    /// Every host exited and dropped its report sender.
    AllExited,
}

impl Coord {
    fn recv_deadline(&mut self, deadline: Instant) -> Step {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Step::DeadlineHit;
        }
        match self.rx.recv_timeout(left) {
            Ok(Report::Panicked { pid, msg }) => {
                self.dead.insert(pid);
                self.panics.insert(pid, msg);
                Step::Died
            }
            Ok(r) => Step::Got(r),
            Err(RecvTimeoutError::Timeout) => Step::DeadlineHit,
            Err(RecvTimeoutError::Disconnected) => Step::AllExited,
        }
    }
}

/// Probe every live actor until the network is quiescent: all transports
/// report zero unacked frames and nobody's (sent, delivered) counters
/// moved between two consecutive complete rounds — i.e. nothing is in
/// flight and nothing happened, anywhere, between the two snapshots.
/// Returns false if `deadline` expires first.
fn drain_to_quiescence(hosts: &impl Hosts, n: usize, coord: &mut Coord, deadline: Instant) -> bool {
    // Who can still answer a probe: everyone not known dead.
    let live = |dead: &BTreeSet<ProcessId>| -> Vec<ProcessId> {
        (0..n as u32)
            .map(ProcessId)
            .filter(|p| !dead.contains(p))
            .collect()
    };
    let mut prev: Option<Vec<(ProcessId, u64, u64, u64)>> = None;
    let mut stable_rounds: u32 = 0;
    let mut round: u64 = 0;
    loop {
        if Instant::now() >= deadline {
            return false;
        }
        round += 1;
        let live_pids = live(&coord.dead);
        if live_pids.is_empty() {
            // Everyone already exited (panic wave): nothing left to drain.
            return true;
        }
        hosts.probe(round);
        let mut replies: BTreeMap<ProcessId, (u64, u64, u64)> = BTreeMap::new();
        let round_deadline = (Instant::now() + Duration::from_millis(200)).min(deadline);
        while replies.len() < live_pids.len() {
            match coord.recv_deadline(round_deadline) {
                Step::Got(Report::Quiet {
                    pid,
                    round: r,
                    sent,
                    delivered,
                    unacked,
                }) if r == round => {
                    replies.insert(pid, (sent, delivered, unacked));
                }
                Step::Got(_) | Step::Died => {}
                Step::DeadlineHit => break,
                Step::AllExited => return true,
            }
        }
        // Re-derive liveness: an actor that died mid-round must not block
        // completeness forever.
        let live_now = live(&coord.dead);
        let complete = !live_now.is_empty() && live_now.iter().all(|p| replies.contains_key(p));
        let unacked: u64 = replies.values().map(|v| v.2).sum();
        let counters: Vec<(ProcessId, u64, u64, u64)> =
            replies.iter().map(|(p, v)| (*p, v.0, v.1, v.2)).collect();
        if complete && prev.as_ref() == Some(&counters) {
            stable_rounds += 1;
        } else {
            stable_rounds = 0;
        }
        if complete && unacked == 0 && stable_rounds >= 1 {
            return true;
        }
        // Dead-peer tolerance: control messages are disseminated to every
        // process, so frames addressed to a dead (panicked or crashed)
        // actor stay unacked forever — strict quiescence is unreachable
        // the moment anyone dies. If deaths were reported and *nothing*
        // has moved (counters AND unacked byte-stable) for several
        // complete rounds, the remaining unacked frames are undeliverable
        // and the drain is as done as it can be.
        if !coord.dead.is_empty() && stable_rounds >= 3 {
            return true;
        }
        prev = if complete { Some(counters) } else { None };
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Merge-order equivalence for two committed logs: the projection of
/// receives onto each sender (and of sends onto each target) must match
/// positionally, cross-sender interleaving at a fan-in may differ, and
/// outputs are compared as multisets. This is weaker than Theorem 1: it
/// accepts a consumer log with two receives from different senders
/// swapped. The Theorem-1 check is the exact replay instead
/// (`opcsp_sim::check_theorem1`, `catalog::Spec::check`). This stays only
/// because `benchmark/src/worlds.rs` names it, and for the sim-against-rt
/// differential tests, which run the replay beside it.
pub fn merge_equiv(base: &[Observable], other: &[Observable]) -> bool {
    use Observable as O;
    let project = |log: &[Observable]| {
        let mut links: BTreeMap<(bool, ProcessId), Vec<Observable>> = BTreeMap::new();
        let mut outputs = Vec::new();
        for o in log {
            match o {
                O::Received { from, .. } => links.entry((true, *from)).or_default().push(o.clone()),
                O::Sent { to, .. } => links.entry((false, *to)).or_default().push(o.clone()),
                O::Output { payload } => outputs.push(format!("{payload:?}")),
            }
        }
        outputs.sort();
        (links, outputs)
    };
    base.len() == other.len() && project(base) == project(other)
}
