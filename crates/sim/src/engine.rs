//! The optimistic discrete-event execution engine.
//!
//! Drives [`Behavior`] state machines over a simulated network, applying
//! the full protocol of the paper via `opcsp_core::ProcessCore`: forks with
//! guessed values, guard propagation on every message, checkpointing at
//! interval boundaries, join verification, COMMIT/ABORT/PRECEDENCE
//! dissemination, rollback and replay, orphan filtering, external-output
//! buffering, fork timeouts, and the retry limit `L`.
//!
//! The same engine runs the *pessimistic* baseline (`optimism: false`):
//! every fork is denied, so programs execute exactly in their sequential
//! order — that execution's trace is the reference for Theorem 1.

use crate::behavior::{Behavior, BehaviorState, Effect, Resume};
use crate::latency::{DrawKey, LatencyModel, LatencySampler};
use crate::trace::{SimStats, Trace, TraceEvent, VTime};
use opcsp_core::{
    ArrivalVerdict, CallId, Control, CoreConfig, DataKind, Envelope, Guard, GuessId,
    GuessResolution, Incarnation, JoinDecision, Label, MsgId, ProcessCore, ProcessId, Telemetry,
    TelemetryEvent, ThreadId, Value,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// Per-process committed receive order: for each process, the peers whose
/// data messages (calls and sends, not returns) it consumed, in consumption
/// order. Extracted from a committed run by `equiv::committed_schedule` and
/// replayed through a pessimistic run via
/// [`SimConfig::delivery_schedule`].
pub type DeliverySchedule = BTreeMap<ProcessId, Vec<ProcessId>>;

/// Deliberate engine misbehavior, used to prove the Theorem-1 oracle (and
/// the forensics pipeline behind it) has teeth. `None` in production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultInjection {
    #[default]
    None,
    /// At a receive point, deliver the *newest* pooled candidate instead of
    /// the dependency-minimizing choice, and drop the per-link FIFO arrival
    /// clamp so jitter can invert same-link message order — commits
    /// receive orders no sequential execution can produce. The protocol's
    /// precedence machinery is expected to *survive* this (time faults
    /// serialize the reordered speculation), at the cost of rollback churn.
    LifoDelivery,
    /// Skip the observable-log truncation on rollback, so observables from
    /// rolled-back speculation leak into the committed log — a genuine
    /// Theorem-1 violation no sequential replay can reproduce. Exists to
    /// prove the replay oracle and the forensics reporter have teeth.
    PhantomLog,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub core: CoreConfig,
    /// Master optimism switch: `false` = pessimistic baseline (every fork
    /// denied; pure sequential semantics).
    pub optimism: bool,
    /// Virtual-time budget for a left thread to finish S1 before its guess
    /// aborts (§3.2: "the timeout is set at fork ... guarantees that
    /// predicate x1 aborts in case S1 diverges").
    pub fork_timeout: VTime,
    /// Cost of one behavior step (local computation between effects).
    pub step_cost: VTime,
    /// Extra cost of a fork (state copy).
    pub fork_cost: VTime,
    pub latency: LatencyModel,
    /// Checkpoint policy (§3.1): a full behavior-state snapshot is taken
    /// at every K-th interval boundary; rollbacks to an unsnapshotted
    /// boundary restore the nearest earlier snapshot and deterministically
    /// *replay* the logged resumes up to the target — the paper's
    /// Optimistic-Recovery-style alternative to Time-Warp-style
    /// per-interval snapshots. `1` = snapshot every boundary.
    pub checkpoint_every: u32,
    /// Safety valve against runaway simulations.
    pub max_events: u64,
    /// Replay a committed receive order: at each receive point, hold
    /// delivery until the scheduled peer's oldest message is available.
    /// Only meaningful with `optimism: false` (no rollbacks re-consume
    /// messages, so the per-process positions advance monotonically). This
    /// is the Theorem-1 oracle's vehicle: a divergent-looking optimistic
    /// run is legal iff its committed schedule replays to the same logs on
    /// the sequential engine.
    pub delivery_schedule: Option<Arc<DeliverySchedule>>,
    /// Force the *first* `explore_prefix[p]` non-return deliveries at each
    /// process `p` to come from the named peers, holding other candidates
    /// until the wanted sender's oldest message is available; past the
    /// prefix the normal delivery policy applies. Same hold semantics as
    /// [`SimConfig::delivery_schedule`] (which it shadows when both are
    /// set), but rollback-aware: when a rollback or discard returns
    /// consumed messages to the pool, the per-process position rewinds, so
    /// the forced choices re-apply on re-delivery. That makes it valid
    /// under `optimism: true` — it is `sim::explore`'s steering wheel.
    pub explore_prefix: Option<Arc<DeliverySchedule>>,
    /// Deliberate misbehavior for oracle-teeth tests.
    pub fault: FaultInjection,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            core: CoreConfig::default(),
            optimism: true,
            fork_timeout: 100_000,
            step_cost: 1,
            fork_cost: 1,
            latency: LatencyModel::fixed(10),
            checkpoint_every: 1,
            max_events: 5_000_000,
            delivery_schedule: None,
            explore_prefix: None,
            fault: FaultInjection::None,
        }
    }
}

/// Normalized observable event for Theorem 1 trace comparison: call ids and
/// timing are stripped; only direction, peer, kind and data remain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observable {
    Sent {
        to: ProcessId,
        kind: ObsKind,
        payload: Value,
    },
    Received {
        from: ProcessId,
        kind: ObsKind,
        payload: Value,
    },
    Output {
        payload: Value,
    },
}

/// Message kind with call identifiers erased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsKind {
    Send,
    Call,
    Return,
}

/// Commit provenance for one entry of an observable log: recorded in
/// lockstep with `SimResult::logs` (same process, same index) and rolled
/// back with it, so whatever survives describes only committed events.
/// This is the raw material of the forensics first-divergence report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsMeta {
    /// Virtual time the event was (last) performed.
    pub t: VTime,
    /// Fork index of the thread that performed it.
    pub thread: u32,
    /// Message id for sends/receives; `None` for external outputs.
    pub msg: Option<MsgId>,
    /// The message's link sequence number (its latency `DrawKey` index).
    pub link_seq: Option<u32>,
    /// The thread's commit guard set right after the event.
    pub guard: Guard,
    /// The process's incarnation when the event was performed.
    pub incarnation: Incarnation,
}

impl From<DataKind> for ObsKind {
    fn from(k: DataKind) -> Self {
        match k {
            DataKind::Send => ObsKind::Send,
            DataKind::Call(_) => ObsKind::Call,
            DataKind::Return(_) => ObsKind::Return,
        }
    }
}

impl std::fmt::Display for ObsKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ObsKind::Send => "send",
            ObsKind::Call => "call",
            ObsKind::Return => "return",
        })
    }
}

impl std::fmt::Display for Observable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Observable::Sent { to, kind, payload } => write!(f, "sent {kind} {payload} → {to}"),
            Observable::Received {
                from,
                kind,
                payload,
            } => write!(f, "recv {kind} {payload} ← {from}"),
            Observable::Output { payload } => write!(f, "out {payload}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// A step event is in flight.
    Ready,
    BlockedRecv,
    BlockedCall(CallId),
    /// Left thread finished S1, guess unresolved (§4.2.4 last case).
    AwaitingJoin,
    Done,
}

/// Per-interval boundary record. The cheap metadata is dense (one entry
/// per interval); the expensive behavior-state snapshot is present only
/// every `checkpoint_every`-th boundary — rollback to a boundary without
/// one replays the resume log from the nearest earlier snapshot.
#[derive(Clone)]
struct Boundary {
    state: Option<BehaviorState>,
    status: Status,
    resume_len: usize,
    consumed_len: usize,
    oblog_len: usize,
    out_buf_len: usize,
    call_stack: Vec<(ProcessId, CallId, Label)>,
    fork_guess: Option<GuessId>,
}

struct SimThread {
    index: u32,
    state: BehaviorState,
    status: Status,
    epoch: u64,
    clock: VTime,
    checkpoints: Vec<Boundary>,
    /// Every `Resume` this thread has processed, in order — the replay
    /// log for sparse checkpointing (truncated on rollback).
    resume_log: Vec<Resume>,
    /// Messages consumed, tagged with the interval in force after delivery.
    consumed: Vec<(u32, Envelope)>,
    /// Observable log (sends, receives, external outputs) in local order.
    oblog: Vec<Observable>,
    /// Provenance record per `oblog` entry (same length, truncated
    /// together on rollback).
    obmeta: Vec<ObsMeta>,
    /// External outputs awaiting commit (interval tag, payload).
    out_buf: Vec<(u32, Value)>,
    /// Calls currently being serviced (innermost last).
    call_stack: Vec<(ProcessId, CallId, Label)>,
    /// The guess this thread forked and must verify at its join point.
    fork_guess: Option<GuessId>,
}

impl SimThread {
    /// `Done` with nothing buffered: no delivery, flush or completion scan
    /// has anything left to do with this thread.
    fn finished(&self) -> bool {
        self.status == Status::Done && self.out_buf.is_empty()
    }

    fn new(index: u32, state: BehaviorState) -> Self {
        let chk = Boundary {
            state: Some(state.clone()),
            status: Status::Ready,
            resume_len: 0,
            consumed_len: 0,
            oblog_len: 0,
            out_buf_len: 0,
            call_stack: Vec::new(),
            fork_guess: None,
        };
        SimThread {
            index,
            state,
            status: Status::Ready,
            epoch: 0,
            clock: 0,
            checkpoints: vec![chk],
            resume_log: Vec::new(),
            consumed: Vec::new(),
            oblog: Vec::new(),
            obmeta: Vec::new(),
            out_buf: Vec::new(),
            call_stack: Vec::new(),
            fork_guess: None,
        }
    }
}

struct SimProcess {
    id: ProcessId,
    behavior: Arc<dyn Behavior>,
    core: ProcessCore,
    threads: BTreeMap<u32, SimThread>,
    /// Indices (ascending) of the threads a delivery, waiter or flush scan
    /// can still concern: every thread except those that are `Done` with
    /// nothing buffered. Finished threads keep their record in `threads`
    /// (the committed logs are read from it) but are never scanned again.
    live: Vec<u32>,
    /// Arrived, not yet consumed messages.
    pool: Vec<Envelope>,
    /// Control messages already relayed (targeted dissemination dedup).
    relayed: std::collections::BTreeSet<(u8, GuessId)>,
}

impl SimProcess {
    /// A thread was created, or a rollback re-opened it.
    fn mark_live(&mut self, tid: u32) {
        if let Err(i) = self.live.binary_search(&tid) {
            self.live.insert(i, tid);
        }
    }

    /// Drop `tid` from the scans if it was discarded, or is `Done` with
    /// nothing buffered.
    fn retire_if_finished(&mut self, tid: u32) {
        let finished = self
            .threads
            .get(&tid)
            .is_none_or(|th| th.finished());
        if finished {
            if let Ok(i) = self.live.binary_search(&tid) {
                self.live.remove(i);
            }
        }
    }

    fn live_threads(&self) -> impl Iterator<Item = &SimThread> {
        self.live.iter().map(|tid| &self.threads[tid])
    }
}

#[derive(Debug, Clone)]
enum Event {
    Step {
        proc: ProcessId,
        thread: u32,
        epoch: u64,
        resume: Resume,
    },
    Deliver(Envelope),
    Ctrl {
        from: ProcessId,
        to: ProcessId,
        ctrl: Control,
    },
    Timer {
        guess: GuessId,
    },
}

/// Builder for a simulation world.
///
/// ```
/// use opcsp_sim::{Effect, FnBehavior, Resume, SimBuilder, SimConfig};
/// use opcsp_core::Value;
///
/// let mut b = SimBuilder::new(SimConfig::default());
/// b.add_process(FnBehavior::new("hello", 0u8, |pc, resume| {
///     match (*pc, resume) {
///         (0, Resume::Start) => { *pc = 1; Effect::External { payload: Value::str("hi") } }
///         (1, Resume::Continue) => Effect::Done,
///         (_, r) => panic!("{r:?}"),
///     }
/// }));
/// let result = b.build().run();
/// assert_eq!(result.external.len(), 1);
/// ```
pub struct SimBuilder {
    cfg: SimConfig,
    behaviors: Vec<Arc<dyn Behavior>>,
}

impl SimBuilder {
    pub fn new(cfg: SimConfig) -> Self {
        SimBuilder {
            cfg,
            behaviors: Vec::new(),
        }
    }

    /// Register a process; ids are assigned in order (X, Y, Z, W, ...).
    pub fn add_process(&mut self, b: impl Behavior + 'static) -> ProcessId {
        let id = ProcessId(self.behaviors.len() as u32);
        self.behaviors.push(Arc::new(b));
        id
    }

    pub fn add_shared(&mut self, b: Arc<dyn Behavior>) -> ProcessId {
        let id = ProcessId(self.behaviors.len() as u32);
        self.behaviors.push(b);
        id
    }

    pub fn build(self) -> World {
        World::new(self.cfg, self.behaviors)
    }
}

/// Result of a completed run.
#[derive(Debug)]
pub struct SimResult {
    /// Virtual time of the last processed event.
    pub completion: VTime,
    /// Virtual time at which each process's thread activity finished.
    pub process_done: BTreeMap<ProcessId, VTime>,
    pub trace: Trace,
    /// Released (committed) external outputs in release order.
    pub external: Vec<(VTime, ProcessId, Value)>,
    /// Per-process committed observable logs (threads concatenated in
    /// logical — i.e. fork-index — order).
    pub logs: BTreeMap<ProcessId, Vec<Observable>>,
    /// Guesses still unresolved at the end (should be empty; non-empty
    /// indicates a liveness bug or a truncated run).
    pub unresolved: Vec<GuessId>,
    /// True if the run stopped because `max_events` was hit.
    pub truncated: bool,
    /// Commit provenance per `logs` entry (same keys, same indices).
    pub provenance: BTreeMap<ProcessId, Vec<ObsMeta>>,
    /// Every latency draw made, in sample order, keyed by (from, to, k) —
    /// the schedule shrinker's search space. Empty for non-jitter models.
    pub latency_draws: Vec<(DrawKey, u64)>,
    /// Per-process guess-resolution provenance (owners only).
    pub resolutions: BTreeMap<ProcessId, Vec<GuessResolution>>,
    /// Senders of data (non-return) messages still pooled undelivered at
    /// quiescence, in arrival-id order. Normally empty; non-empty when a
    /// forced order ([`SimConfig::explore_prefix`] /
    /// [`SimConfig::delivery_schedule`]) held candidates for a sender that
    /// never obliged — the explorer's infeasible-branch signal.
    pub undelivered: BTreeMap<ProcessId, Vec<ProcessId>>,
    /// Scripted latency overrides ([`LatencyModel::Scripted`]) whose
    /// [`DrawKey`] was never drawn this run: the script drifted from the
    /// workload and those entries tested nothing. Empty for other models.
    pub unused_overrides: Vec<DrawKey>,
    /// Unified lifecycle event stream (`core::telemetry`): fork→resolution
    /// spans, rollback depth/wasted-step attribution, commit waves,
    /// deliveries and orphan drops. Always recorded by the simulator (it
    /// already keeps a full [`Trace`]); export with
    /// [`opcsp_core::Telemetry::to_perfetto_json`].
    pub telemetry: Telemetry,
}

impl SimResult {
    pub fn stats(&self) -> &SimStats {
        &self.trace.stats
    }
}

/// The simulation world: event queue + processes.
pub struct World {
    cfg: SimConfig,
    now: VTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(VTime, u64, u64)>>,
    payloads: BTreeMap<u64, Event>,
    procs: Vec<SimProcess>,
    latency: LatencySampler,
    trace: Trace,
    next_msg: u64,
    next_call: u64,
    /// Guessed values per fork, for join verification.
    guesses: BTreeMap<GuessId, Vec<(String, Value)>>,
    external: Vec<(VTime, ProcessId, Value)>,
    events_processed: u64,
    /// Time of the last event that did real work (excludes no-op timer
    /// fires and stale step events), reported as the completion time.
    last_activity: VTime,
    /// Per-directed-link transmission counters (data and control), kept in
    /// lockstep with the jitter sampler's draw counters so a data
    /// message's `link_seq` is exactly its latency `DrawKey` index.
    link_seq: BTreeMap<(ProcessId, ProcessId), u32>,
    /// Latest scheduled *data* arrival per directed link: FIFO links never
    /// let a later transmission overtake an earlier one (real transports
    /// are order-preserving; only `LatencyModel::JitterUnordered` opts
    /// out, preserving the legacy free-reordering network).
    link_heads: BTreeMap<(ProcessId, ProcessId), VTime>,
    /// Position in `cfg.delivery_schedule` / `cfg.explore_prefix` per
    /// process (non-return receives currently consumed; rewound when a
    /// rollback or discard returns consumed messages to the pool).
    sched_pos: BTreeMap<ProcessId, usize>,
    /// Unified lifecycle event sink (`core::telemetry`).
    tele: Telemetry,
}

impl World {
    fn new(cfg: SimConfig, behaviors: Vec<Arc<dyn Behavior>>) -> Self {
        let latency = cfg.latency.sampler();
        let mut w = World {
            cfg,
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            payloads: BTreeMap::new(),
            procs: Vec::new(),
            latency,
            trace: Trace::default(),
            next_msg: 0,
            next_call: 0,
            guesses: BTreeMap::new(),
            external: Vec::new(),
            events_processed: 0,
            last_activity: 0,
            link_seq: BTreeMap::new(),
            link_heads: BTreeMap::new(),
            sched_pos: BTreeMap::new(),
            tele: Telemetry::new(true),
        };
        for (i, b) in behaviors.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            let core = ProcessCore::new(id, w.cfg.core.clone());
            let mut threads = BTreeMap::new();
            threads.insert(0, SimThread::new(0, b.init()));
            w.procs.push(SimProcess {
                id,
                behavior: b,
                core,
                threads,
                live: vec![0],
                pool: Vec::new(),
                relayed: std::collections::BTreeSet::new(),
            });
        }
        for i in 0..w.procs.len() {
            w.schedule(
                0,
                Event::Step {
                    proc: ProcessId(i as u32),
                    thread: 0,
                    epoch: 0,
                    resume: Resume::Start,
                },
            );
        }
        w
    }

    fn schedule(&mut self, t: VTime, ev: Event) {
        let key = self.seq;
        self.seq += 1;
        self.payloads.insert(key, ev);
        self.queue.push(Reverse((t, key, key)));
    }

    fn tid(&self, proc: ProcessId, thread: u32) -> ThreadId {
        ThreadId {
            process: proc,
            index: thread,
        }
    }

    /// Sample the next transmission's latency on `from → to` and return it
    /// with the transmission's link sequence number. Data and control share
    /// the counter, keeping it in lockstep with the jitter sampler's draw
    /// counters — a data message's `link_seq` IS its `DrawKey` index.
    fn link_delay(&mut self, from: ProcessId, to: ProcessId) -> (u64, u32) {
        let c = self.link_seq.entry((from, to)).or_insert(0);
        let k = *c;
        *c += 1;
        (self.latency.sample(from, to), k)
    }

    /// Run to quiescence; returns the result record.
    pub fn run(mut self) -> SimResult {
        let mut truncated = false;
        while let Some(Reverse((t, key, _))) = self.queue.pop() {
            self.events_processed += 1;
            if self.events_processed > self.cfg.max_events {
                truncated = true;
                break;
            }
            self.now = t;
            let ev = self.payloads.remove(&key).expect("event payload");
            match ev {
                Event::Step {
                    proc,
                    thread,
                    epoch,
                    resume,
                } => self.handle_step(proc, thread, epoch, resume),
                Event::Deliver(env) => {
                    self.last_activity = t;
                    self.handle_arrival(env)
                }
                Event::Ctrl { from, to, ctrl } => {
                    self.last_activity = t;
                    self.handle_control(from, to, ctrl)
                }
                Event::Timer { guess } => self.handle_timer(guess),
            }
        }
        self.finish(truncated)
    }

    fn finish(mut self, truncated: bool) -> SimResult {
        for p in &self.procs {
            self.trace.stats.wire.merge(p.core.wire_stats());
            self.trace.stats.interner.merge(p.core.interner_full_stats());
        }
        // Catch any resolutions recorded since the last per-event sync.
        let now = self.now;
        for i in 0..self.procs.len() {
            let p = &self.procs[i];
            self.tele.sync_resolutions(now, p.id, &p.core.resolutions);
            self.tele.sync_policy_shifts(now, p.id, p.core.policy_shifts());
        }
        let mut process_done = BTreeMap::new();
        let mut logs = BTreeMap::new();
        let mut provenance = BTreeMap::new();
        let mut resolutions = BTreeMap::new();
        let mut unresolved = Vec::new();
        let mut undelivered = BTreeMap::new();
        for p in &self.procs {
            let mut left: Vec<(u64, ProcessId)> = p
                .pool
                .iter()
                .filter(|m| !m.kind.is_return())
                .map(|m| (m.id.0, m.from))
                .collect();
            if !left.is_empty() {
                left.sort_unstable();
                undelivered.insert(p.id, left.into_iter().map(|(_, f)| f).collect());
            }
        }
        for p in &self.procs {
            let mut log = Vec::new();
            let mut meta = Vec::new();
            for th in p.threads.values() {
                log.extend(th.oblog.iter().cloned());
                meta.extend(th.obmeta.iter().cloned());
            }
            logs.insert(p.id, log);
            provenance.insert(p.id, meta);
            if !p.core.resolutions.is_empty() {
                resolutions.insert(p.id, p.core.resolutions.clone());
            }
            let done = p.threads.values().map(|t| t.clock).max().unwrap_or(0);
            process_done.insert(p.id, done);
            for o in p.core.own.values() {
                if matches!(
                    o.state,
                    opcsp_core::OwnGuessState::Pending
                        | opcsp_core::OwnGuessState::AwaitingResolution
                ) {
                    unresolved.push(o.id);
                }
            }
        }
        SimResult {
            completion: self.last_activity,
            process_done,
            trace: self.trace,
            external: self.external,
            logs,
            unresolved,
            truncated,
            provenance,
            latency_draws: self.latency.draws().to_vec(),
            resolutions,
            undelivered,
            unused_overrides: self.latency.unused_overrides(),
            telemetry: self.tele,
        }
    }

    /// Emit `Resolved` telemetry for resolutions the core recorded since
    /// the last sync (cursor-idempotent; called after every resolution-
    /// producing protocol step).
    fn sync_tele(&mut self, pid: ProcessId) {
        let now = self.now;
        let p = &self.procs[pid.0 as usize];
        self.tele.sync_resolutions(now, pid, &p.core.resolutions);
        self.tele.sync_policy_shifts(now, pid, p.core.policy_shifts());
    }

    // ------------------------------------------------------------------
    // Stepping
    // ------------------------------------------------------------------

    fn handle_step(&mut self, pid: ProcessId, tid: u32, epoch: u64, resume: Resume) {
        let now = self.now;
        let p = &mut self.procs[pid.0 as usize];
        let Some(th) = p.threads.get_mut(&tid) else {
            return;
        };
        if th.epoch != epoch || th.status == Status::Done {
            return; // stale event from before a rollback/discard
        }
        th.clock = th.clock.max(now);
        th.status = Status::Ready;
        th.resume_log.push(resume.clone());
        let behavior = p.behavior.clone();
        let effect = behavior.step(&mut th.state, resume);
        self.last_activity = now;
        self.handle_effect(pid, tid, effect);
    }

    fn resume_at(&mut self, pid: ProcessId, tid: u32, t: VTime, resume: Resume) {
        let p = &mut self.procs[pid.0 as usize];
        let th = p.threads.get_mut(&tid).expect("thread");
        th.status = Status::Ready;
        th.clock = th.clock.max(t);
        let epoch = th.epoch;
        let at = th.clock;
        self.schedule(
            at,
            Event::Step {
                proc: pid,
                thread: tid,
                epoch,
                resume,
            },
        );
    }

    fn handle_effect(&mut self, pid: ProcessId, tid: u32, effect: Effect) {
        let now = self.now;
        match effect {
            Effect::Compute { cost } => {
                self.resume_at(pid, tid, now + cost, Resume::Continue);
            }
            Effect::Send { to, payload, label } => {
                self.send_data(pid, tid, to, DataKind::Send, payload, label);
                self.resume_at(pid, tid, now + self.cfg.step_cost, Resume::Continue);
            }
            Effect::Call { to, payload, label } => {
                let cid = CallId(self.next_call);
                self.next_call += 1;
                self.send_data(pid, tid, to, DataKind::Call(cid), payload, label);
                let p = &mut self.procs[pid.0 as usize];
                p.threads.get_mut(&tid).unwrap().status = Status::BlockedCall(cid);
                self.try_deliver(pid);
            }
            Effect::Reply { payload, label } => {
                let p = &mut self.procs[pid.0 as usize];
                let th = p.threads.get_mut(&tid).unwrap();
                let (to, cid, call_label) =
                    th.call_stack.pop().expect("Reply with no call in service");
                let label = if label.is_empty() {
                    crate::behavior::reply_label(&call_label)
                } else {
                    label
                };
                self.send_data(pid, tid, to, DataKind::Return(cid), payload, label);
                self.resume_at(pid, tid, now + self.cfg.step_cost, Resume::Continue);
            }
            Effect::Receive => {
                let p = &mut self.procs[pid.0 as usize];
                p.threads.get_mut(&tid).unwrap().status = Status::BlockedRecv;
                self.try_deliver(pid);
            }
            Effect::External { payload } => {
                let guard_empty = self.procs[pid.0 as usize]
                    .core
                    .threads
                    .get(&tid)
                    .map(|m| m.guard.is_empty())
                    .unwrap_or(true);
                let p = &mut self.procs[pid.0 as usize];
                let incarnation = p.core.incarnation;
                let guard = p
                    .core
                    .threads
                    .get(&tid)
                    .map(|m| m.guard.clone())
                    .unwrap_or_else(Guard::empty);
                let th = p.threads.get_mut(&tid).unwrap();
                th.oblog.push(Observable::Output {
                    payload: payload.clone(),
                });
                th.obmeta.push(ObsMeta {
                    t: now,
                    thread: tid,
                    msg: None,
                    link_seq: None,
                    guard,
                    incarnation,
                });
                if guard_empty {
                    self.external.push((now, pid, payload.clone()));
                    self.trace.push(TraceEvent::External {
                        t: now,
                        from: pid,
                        payload,
                        buffered: false,
                    });
                } else {
                    let interval = p.core.threads[&tid].interval;
                    p.threads
                        .get_mut(&tid)
                        .unwrap()
                        .out_buf
                        .push((interval, payload));
                }
                self.resume_at(pid, tid, now + self.cfg.step_cost, Resume::Continue);
            }
            Effect::Fork { site, guesses } => self.handle_fork(pid, tid, site, guesses),
            Effect::CallThenFork {
                to,
                payload,
                label,
                site,
                guesses,
            } => {
                // Send the call first (§4.2.1): the message departs before
                // the fork, and the left thread is simply parked on the
                // return — no resume, no state copy for it beyond the
                // fork's right-thread clone.
                let cid = CallId(self.next_call);
                self.next_call += 1;
                self.send_data(pid, tid, to, DataKind::Call(cid), payload, label);
                let optimistic =
                    self.cfg.optimism && self.procs[pid.0 as usize].core.can_fork(site);
                if optimistic {
                    let p = &mut self.procs[pid.0 as usize];
                    let rec = p.core.fork(tid, site);
                    let left = p.threads.get_mut(&tid).unwrap();
                    left.fork_guess = Some(rec.guess);
                    left.status = Status::BlockedCall(cid);
                    let left_clock = left.clock;
                    let mut right = SimThread::new(rec.right_thread, left.state.clone());
                    right.call_stack = left.call_stack.clone();
                    right.checkpoints[0].call_stack = right.call_stack.clone();
                    right.clock = left_clock.max(now) + self.cfg.fork_cost;
                    p.threads.insert(rec.right_thread, right);
                    p.mark_live(rec.right_thread);
                    self.guesses.insert(rec.guess, guesses.clone());
                    let (lt, rt) = (self.tid(pid, tid), self.tid(pid, rec.right_thread));
                    self.trace.push(TraceEvent::Fork {
                        t: now,
                        guess: rec.guess,
                        left: lt,
                        right: rt,
                    });
                    self.tele.record(TelemetryEvent::Fork {
                        t: now,
                        guess: rec.guess,
                        site,
                        left: tid,
                        right: rec.right_thread,
                    });
                    self.trace.stats.checkpoints_taken += 1;
                    self.resume_at(
                        pid,
                        rec.right_thread,
                        now + self.cfg.fork_cost,
                        Resume::ForkRight { guesses },
                    );
                    let deadline = now + self.cfg.fork_timeout;
                    self.schedule(deadline, Event::Timer { guess: rec.guess });
                } else {
                    let p = &mut self.procs[pid.0 as usize];
                    p.threads.get_mut(&tid).unwrap().status = Status::BlockedCall(cid);
                }
                self.try_deliver(pid);
            }
            Effect::JoinLeft { actual } => self.handle_join(pid, tid, actual),
            Effect::Done => {
                let p = &mut self.procs[pid.0 as usize];
                let th = p.threads.get_mut(&tid).unwrap();
                th.status = Status::Done;
                if let Some(meta) = p.core.threads.get_mut(&tid) {
                    if meta.guard.is_empty() {
                        meta.phase = opcsp_core::ThreadPhase::Done;
                    }
                }
                p.retire_if_finished(tid);
                let t = self.tid(pid, tid);
                self.trace
                    .push(TraceEvent::ThreadDone { t: now, thread: t });
            }
        }
    }

    fn send_data(
        &mut self,
        pid: ProcessId,
        tid: u32,
        to: ProcessId,
        kind: DataKind,
        payload: Value,
        label: String,
    ) {
        let label: Label = label.into();
        let tag = self.procs[pid.0 as usize].core.encode_for_send(tid, to);
        let (d, link_seq) = self.link_delay(pid, to);
        let env = Envelope {
            id: MsgId(self.next_msg),
            from: pid,
            from_thread: tid,
            to,
            guard: tag.wire,
            table_acks: tag.acks,
            kind,
            payload: payload.clone(),
            label: label.clone(),
            link_seq,
        };
        self.next_msg += 1;
        self.trace.stats.data_messages += 1;
        self.trace.stats.data_bytes += env.wire_size() as u64;
        self.trace.stats.guard_bytes += env.guard.wire_size() as u64;
        if let opcsp_core::WireGuard::Compact { rows, .. } = &env.guard {
            self.trace.stats.table_bytes +=
                (rows.len() * opcsp_core::TableRow::WIRE_BYTES) as u64;
        }
        self.trace.stats.table_bytes +=
            (env.table_acks.len() * opcsp_core::TableRow::WIRE_BYTES) as u64;
        let from = self.tid(pid, tid);
        self.trace.push(TraceEvent::Send {
            t: self.now,
            msg: env.id,
            from,
            to,
            label,
            guard: tag.full.clone(),
        });
        let p = &mut self.procs[pid.0 as usize];
        let incarnation = p.core.incarnation;
        let th = p.threads.get_mut(&tid).unwrap();
        th.oblog.push(Observable::Sent {
            to,
            kind: env.kind.into(),
            payload,
        });
        th.obmeta.push(ObsMeta {
            t: self.now,
            thread: tid,
            msg: Some(env.id),
            link_seq: Some(link_seq),
            guard: tag.full.clone(),
            incarnation,
        });
        self.procs[pid.0 as usize].core.note_send(&tag.full, to);
        let mut at = self.now + d;
        if self.cfg.latency.fifo_links() && self.cfg.fault != FaultInjection::LifoDelivery {
            // FIFO clamp: a data message never overtakes the previous one
            // on the same directed link.
            let head = self.link_heads.entry((pid, to)).or_insert(0);
            at = at.max(*head);
            *head = at;
        }
        self.schedule(at, Event::Deliver(env));
    }

    /// Disseminate a control message: broadcast (the paper's simple
    /// scheme), or targeted at recorded dependents (§4.2.5). Targeted
    /// recipients relay onward in `handle_control`.
    fn broadcast(&mut self, from: ProcessId, ctrl: Control) {
        self.trace.push(TraceEvent::ControlSent {
            t: self.now,
            from,
            ctrl: ctrl.clone(),
        });
        let targets: Vec<ProcessId> = if self.cfg.core.targeted_control {
            let p = &self.procs[from.0 as usize];
            let mut t = p.core.dependents_of(ctrl.subject());
            // PRECEDENCE must also reach the owners of the guard members
            // (they hold the CDG edges that close cycles).
            if let Control::Precedence(_, guard) = &ctrl {
                for p in guard.member_processes() {
                    if p != from {
                        t.insert(p);
                    }
                }
            }
            t.into_iter().collect()
        } else {
            (0..self.procs.len() as u32)
                .map(ProcessId)
                .filter(|p| *p != from)
                .collect()
        };
        self.mark_relayed(from, &ctrl);
        for to in targets {
            self.trace.stats.control_messages += 1;
            let (d, _) = self.link_delay(from, to);
            let at = self.now + d;
            self.schedule(
                at,
                Event::Ctrl {
                    from,
                    to,
                    ctrl: ctrl.clone(),
                },
            );
        }
    }

    fn mark_relayed(&mut self, pid: ProcessId, ctrl: &Control) {
        let kind = match ctrl {
            Control::Commit(_) => 0u8,
            Control::Abort(_) => 1,
            Control::Precedence(..) => 2,
        };
        self.procs[pid.0 as usize]
            .relayed
            .insert((kind, ctrl.subject()));
    }

    /// Cooperative relay for targeted dissemination: forward a control
    /// message (once) to the dependents this process itself created,
    /// excluding whoever just told us (they know).
    fn relay_control(&mut self, pid: ProcessId, from: ProcessId, ctrl: &Control) {
        if !self.cfg.core.targeted_control {
            return;
        }
        let kind = match ctrl {
            Control::Commit(_) => 0u8,
            Control::Abort(_) => 1,
            Control::Precedence(..) => 2,
        };
        let key = (kind, ctrl.subject());
        if !self.procs[pid.0 as usize].relayed.insert(key) {
            return;
        }
        let targets: Vec<ProcessId> = self.procs[pid.0 as usize]
            .core
            .dependents_of(ctrl.subject())
            .into_iter()
            .filter(|t| *t != from)
            .collect();
        for to in targets {
            self.trace.stats.control_messages += 1;
            let (d, _) = self.link_delay(pid, to);
            let at = self.now + d;
            self.schedule(
                at,
                Event::Ctrl {
                    from: pid,
                    to,
                    ctrl: ctrl.clone(),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Fork / join
    // ------------------------------------------------------------------

    fn handle_fork(&mut self, pid: ProcessId, tid: u32, site: u32, guesses: Vec<(String, Value)>) {
        let now = self.now;
        let optimistic = self.cfg.optimism && self.procs[pid.0 as usize].core.can_fork(site);
        if !optimistic {
            self.resume_at(pid, tid, now + self.cfg.step_cost, Resume::ForkDenied);
            return;
        }
        let p = &mut self.procs[pid.0 as usize];
        let rec = p.core.fork(tid, site);
        let left = p.threads.get_mut(&tid).unwrap();
        left.fork_guess = Some(rec.guess);
        let left_clock = left.clock;
        let right_state = left.state.clone();
        let mut right = SimThread::new(rec.right_thread, right_state);
        // The continuation (S2) inherits the calls being serviced: if S2
        // replies speculatively and the guess aborts, the surviving left
        // thread still holds its own copy and re-replies sequentially.
        right.call_stack = left.call_stack.clone();
        right.checkpoints[0].call_stack = right.call_stack.clone();
        right.clock = left_clock.max(now) + self.cfg.fork_cost;
        p.threads.insert(rec.right_thread, right);
        p.mark_live(rec.right_thread);
        self.guesses.insert(rec.guess, guesses.clone());
        let (lt, rt) = (self.tid(pid, tid), self.tid(pid, rec.right_thread));
        self.trace.push(TraceEvent::Fork {
            t: now,
            guess: rec.guess,
            left: lt,
            right: rt,
        });
        self.tele.record(TelemetryEvent::Fork {
            t: now,
            guess: rec.guess,
            site,
            left: tid,
            right: rec.right_thread,
        });
        self.trace.stats.checkpoints_taken += 1; // the fork's state copy
        self.resume_at(pid, tid, now + self.cfg.fork_cost, Resume::ForkLeft);
        self.resume_at(
            pid,
            rec.right_thread,
            now + self.cfg.fork_cost,
            Resume::ForkRight { guesses },
        );
        let deadline = now + self.cfg.fork_timeout;
        self.schedule(deadline, Event::Timer { guess: rec.guess });
    }

    fn handle_join(&mut self, pid: ProcessId, tid: u32, actual: Vec<(String, Value)>) {
        let now = self.now;
        let guess = {
            let p = &self.procs[pid.0 as usize];
            p.threads[&tid].fork_guess
        };
        let Some(guess) = guess else {
            // Pessimistic / denied fork: run S2 inline immediately.
            self.resume_at(pid, tid, now + self.cfg.step_cost, Resume::JoinSequential);
            return;
        };
        let expected = self.guesses.get(&guess).cloned().unwrap_or_default();
        let value_ok = expected
            .iter()
            .all(|(k, v)| actual.iter().any(|(ak, av)| ak == k && av == v));
        let decision = {
            let p = &mut self.procs[pid.0 as usize];
            p.core.join_left_done(guess, value_ok)
        };
        match decision {
            JoinDecision::Commit { committed } => {
                self.trace.push(TraceEvent::JoinCommit { t: now, guess });
                for g in committed {
                    self.local_commit(pid, g);
                }
                self.flush_buffers(pid);
            }
            JoinDecision::Abort { effects } => {
                if !value_ok {
                    self.trace.push(TraceEvent::ValueFault { t: now, guess });
                } else {
                    self.trace.push(TraceEvent::TimeFault {
                        t: now,
                        at: pid,
                        cycle: vec![guess],
                    });
                }
                // If the cascade rolls this very thread back (its S1
                // consumed a now-orphaned message), the replayed S1 will
                // reach the join again and take the AlreadyAborted path —
                // no resume here.
                let this_thread_survives = !effects.rollback_threads.iter().any(|(t, _)| *t == tid)
                    && !effects.discard_threads.contains(&tid);
                let survivor_rerun = self.apply_abort_effects(pid, effects, Some(guess));
                // The left thread (this one) re-executes S2 sequentially,
                // unless the cascade already scheduled it.
                if this_thread_survives && !survivor_rerun.contains(&guess) {
                    let p = &mut self.procs[pid.0 as usize];
                    if let Some(th) = p.threads.get_mut(&tid) {
                        th.fork_guess = None;
                    }
                    self.resume_at(pid, tid, now + self.cfg.step_cost, Resume::JoinSequential);
                }
            }
            JoinDecision::Await {
                guess,
                precedence_guard,
            } => {
                self.trace.push(TraceEvent::JoinAwait {
                    t: now,
                    guess,
                    guard: precedence_guard.clone(),
                });
                let p = &mut self.procs[pid.0 as usize];
                p.threads.get_mut(&tid).unwrap().status = Status::AwaitingJoin;
                let wire = p.core.encode_control_guard(&precedence_guard);
                self.broadcast(pid, Control::Precedence(guess, wire));
            }
            JoinDecision::AlreadyAborted { .. } => {
                let p = &mut self.procs[pid.0 as usize];
                if let Some(th) = p.threads.get_mut(&tid) {
                    th.fork_guess = None;
                }
                self.resume_at(pid, tid, now + self.cfg.step_cost, Resume::JoinSequential);
            }
        }
        self.sync_tele(pid);
    }

    /// A local (own) guess committed: trace, broadcast, finish left thread.
    fn local_commit(&mut self, pid: ProcessId, g: GuessId) {
        self.trace.push(TraceEvent::Commit {
            t: self.now,
            at: pid,
            guess: g,
        });
        self.tele
            .record(TelemetryEvent::WaveStart { t: self.now, guess: g });
        self.sync_tele(pid);
        self.broadcast(pid, Control::Commit(g));
        let p = &mut self.procs[pid.0 as usize];
        if let Some(own) = p.core.own.get(&g) {
            let left = own.left_thread;
            if let Some(th) = p.threads.get_mut(&left) {
                th.status = Status::Done;
                th.fork_guess = None;
                p.retire_if_finished(left);
                let t = self.tid(pid, left);
                self.trace.push(TraceEvent::ThreadDone {
                    t: self.now,
                    thread: t,
                });
            }
        }
        self.flush_buffers(pid);
    }

    // ------------------------------------------------------------------
    // Message arrival & delivery (§4.2.3)
    // ------------------------------------------------------------------

    fn handle_arrival(&mut self, mut env: Envelope) {
        let pid = env.to;
        let p = &mut self.procs[pid.0 as usize];
        match p.core.classify_arrival(&mut env) {
            ArrivalVerdict::Orphan(g) => {
                self.tele.record(TelemetryEvent::Orphan {
                    t: self.now,
                    process: pid,
                    msg: env.id,
                    guess: g,
                });
                self.trace.push(TraceEvent::Orphan {
                    t: self.now,
                    msg: env.id,
                    at: pid,
                    label: env.label,
                    guess: g,
                });
                return;
            }
            ArrivalVerdict::Ok => {}
        }
        // Early time-fault detection on returns (§4.2.3): the waiting
        // thread is the one blocked on this call id.
        if let DataKind::Return(cid) = env.kind {
            let waiter = p
                .live_threads()
                .find(|t| t.status == Status::BlockedCall(cid))
                .map(|t| t.index);
            if let Some(w) = waiter {
                if let Some(doomed) = p.core.return_depends_on_future(w, &env) {
                    let effects = p.core.on_abort(doomed);
                    self.trace.push(TraceEvent::TimeFault {
                        t: self.now,
                        at: pid,
                        cycle: vec![doomed],
                    });
                    self.apply_abort_effects(pid, effects, Some(doomed));
                }
            }
        }
        self.procs[pid.0 as usize].pool.push(env);
        self.try_deliver(pid);
    }

    /// Attempt to match pooled messages to blocked threads until quiescent.
    fn try_deliver(&mut self, pid: ProcessId) {
        loop {
            let choice = self.pick_delivery(pid);
            let Some((tid, pool_idx)) = choice else {
                return;
            };
            let mut env = self.procs[pid.0 as usize].pool.remove(pool_idx);
            // Re-check orphan status: aborts may have arrived since pooling.
            let p = &mut self.procs[pid.0 as usize];
            if let ArrivalVerdict::Orphan(g) = p.core.classify_arrival(&mut env) {
                self.tele.record(TelemetryEvent::Orphan {
                    t: self.now,
                    process: pid,
                    msg: env.id,
                    guess: g,
                });
                self.trace.push(TraceEvent::Orphan {
                    t: self.now,
                    msg: env.id,
                    at: pid,
                    label: env.label,
                    guess: g,
                });
                continue;
            }
            self.deliver_to(pid, tid, env);
        }
    }

    /// Choose (thread, pool index) for the next delivery, or None.
    ///
    /// Returns-first: call-blocked threads match their return exactly.
    /// Receive-blocked threads are served in thread-index order (the paper:
    /// deliver to "the earliest possible thread"), each choosing the
    /// pooled message that introduces fewest new dependencies (§4.2.3),
    /// and never a message that depends on one of this process's future
    /// guesses relative to that thread.
    fn pick_delivery(&mut self, pid: ProcessId) -> Option<(u32, usize)> {
        let p = &self.procs[pid.0 as usize];
        if p.pool.is_empty() {
            return None;
        }
        // Returns to call-blocked threads.
        for th in p.live_threads() {
            if let Status::BlockedCall(cid) = th.status {
                if let Some(i) = p.pool.iter().position(|m| m.kind == DataKind::Return(cid)) {
                    return Some((th.index, i));
                }
            }
        }
        // Receives.
        for th in p.live_threads() {
            if th.status != Status::BlockedRecv {
                continue;
            }
            let candidates: Vec<(usize, &Envelope)> = p
                .pool
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.kind.is_return() && !self.depends_on_future(p, th.index, m))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            // Forced order (explorer prefix, or full schedule replay):
            // serve the scheduled peer's oldest message, or hold this
            // thread until it arrives.
            let forced = self
                .cfg
                .explore_prefix
                .as_ref()
                .or(self.cfg.delivery_schedule.as_ref());
            if let Some(sched) = forced {
                if let Some(order) = sched.get(&pid) {
                    let pos = self.sched_pos.get(&pid).copied().unwrap_or(0);
                    if let Some(&want) = order.get(pos) {
                        match candidates
                            .iter()
                            .filter(|(_, m)| m.from == want)
                            .min_by_key(|(_, m)| m.id)
                        {
                            Some((i, _)) => return Some((th.index, *i)),
                            None => continue,
                        }
                    }
                    // Past the schedule's end: fall through to the normal
                    // policy.
                }
            }
            if self.cfg.fault == FaultInjection::LifoDelivery {
                let (i, _) = candidates.iter().max_by_key(|(_, m)| m.id).unwrap();
                return Some((th.index, *i));
            }
            let envs: Vec<&Envelope> = candidates.iter().map(|(_, e)| *e).collect();
            if let Some(k) = p.core.choose_delivery(th.index, &envs) {
                return Some((th.index, candidates[k].0));
            }
        }
        None
    }

    /// Does `env` depend on a fork of this process later than `tid`?
    /// Delivering it to `tid` would make that future guess depend on
    /// itself (§4.2.3's x4/x5/x6 example). Delegates to the core's
    /// liveness-based check so stale-incarnation-but-live guesses are
    /// still withheld (see `guard_depends_on_future`).
    fn depends_on_future(&self, p: &SimProcess, tid: u32, env: &Envelope) -> bool {
        p.core.guard_depends_on_future(tid, env.guard()).is_some()
    }

    fn deliver_to(&mut self, pid: ProcessId, tid: u32, env: Envelope) {
        let now = self.now;
        let p = &mut self.procs[pid.0 as usize];
        // Checkpoint *before* applying a dependency-introducing message
        // (§3.1). Peek whether new guards arrive.
        let new_deps = p.core.live_new_guard_count(tid, env.guard(), usize::MAX);
        let introduces = new_deps > 0;
        if introduces {
            let every = self.cfg.checkpoint_every.max(1);
            let th = p.threads.get_mut(&tid).unwrap();
            let slot = th.checkpoints.len() as u32;
            let snapshot = slot.is_multiple_of(every);
            let chk = Boundary {
                state: snapshot.then(|| th.state.clone()),
                status: th.status,
                resume_len: th.resume_log.len(),
                consumed_len: th.consumed.len(),
                oblog_len: th.oblog.len(),
                out_buf_len: th.out_buf.len(),
                call_stack: th.call_stack.clone(),
                fork_guess: th.fork_guess,
            };
            th.checkpoints.push(chk);
            if snapshot {
                self.trace.stats.checkpoints_taken += 1;
            }
        }
        let eff = p.core.deliver(tid, &env);
        debug_assert_eq!(eff.new_interval.is_some(), introduces);
        let interval = p.core.threads[&tid].interval;
        let incarnation = p.core.incarnation;
        let guard_after = p.core.threads[&tid].guard.clone();
        let th = p.threads.get_mut(&tid).unwrap();
        debug_assert_eq!(th.checkpoints.len() as u32, interval + 1);
        th.consumed.push((interval, env.clone()));
        th.oblog.push(Observable::Received {
            from: env.from,
            kind: env.kind.into(),
            payload: env.payload.clone(),
        });
        th.obmeta.push(ObsMeta {
            t: now,
            thread: tid,
            msg: Some(env.id),
            link_seq: Some(env.link_seq),
            guard: guard_after,
            incarnation,
        });
        if let DataKind::Call(cid) = env.kind {
            th.call_stack.push((env.from, cid, env.label.clone()));
        }
        if !env.kind.is_return() {
            *self.sched_pos.entry(pid).or_insert(0) += 1;
        }
        let to = self.tid(pid, tid);
        self.trace.push(TraceEvent::Deliver {
            t: now,
            msg: env.id,
            to,
            from: env.from,
            label: env.label.clone(),
            guard: env.guard().clone(),
        });
        self.tele.record(TelemetryEvent::Deliver {
            t: now,
            process: pid,
            thread: tid,
            msg: env.id,
            new_deps: new_deps as u32,
        });
        self.resume_at(
            pid,
            tid,
            now.max(self.procs[pid.0 as usize].threads[&tid].clock),
            Resume::Msg(env),
        );
    }

    /// Rewind the forced-order position after `n` non-return deliveries
    /// were returned to the pool by a rollback or discard, so a forced
    /// prefix (`cfg.explore_prefix`) re-applies when they are re-delivered.
    fn rewind_sched_pos(&mut self, pid: ProcessId, n: usize) {
        if n == 0 {
            return;
        }
        if let Some(pos) = self.sched_pos.get_mut(&pid) {
            *pos = pos.saturating_sub(n);
        }
    }

    // ------------------------------------------------------------------
    // Control messages & resolution
    // ------------------------------------------------------------------

    fn handle_control(&mut self, from: ProcessId, to: ProcessId, ctrl: Control) {
        self.relay_control(to, from, &ctrl);
        match ctrl {
            Control::Commit(g) => {
                let eff = {
                    let p = &mut self.procs[to.0 as usize];
                    p.core.on_commit(g)
                };
                self.trace.push(TraceEvent::Commit {
                    t: self.now,
                    at: to,
                    guess: g,
                });
                self.tele.record(TelemetryEvent::WaveLanded {
                    t: self.now,
                    guess: g,
                    at: to,
                });
                self.sync_tele(to);
                for own in eff.own_committed {
                    self.trace.push(TraceEvent::JoinCommit {
                        t: self.now,
                        guess: own,
                    });
                    self.local_commit(to, own);
                }
                self.flush_buffers(to);
                self.try_deliver(to);
            }
            Control::Abort(g) => {
                let already = {
                    let p = &self.procs[to.0 as usize];
                    p.core.history.is_aborted(g)
                };
                let eff = {
                    let p = &mut self.procs[to.0 as usize];
                    p.core.on_abort(g)
                };
                if !already || !eff.is_empty() {
                    self.trace.push(TraceEvent::Abort {
                        t: self.now,
                        at: to,
                        guess: g,
                    });
                }
                self.apply_abort_effects(to, eff, Some(g));
            }
            Control::Precedence(g, guard) => {
                let eff = {
                    let p = &mut self.procs[to.0 as usize];
                    let decoded = p.core.decode_control_guard(&guard);
                    p.core.on_precedence(g, &decoded)
                };
                if !eff.is_empty() {
                    self.trace.push(TraceEvent::TimeFault {
                        t: self.now,
                        at: to,
                        cycle: eff.own_aborted.clone(),
                    });
                }
                let root = eff.own_aborted.first().copied();
                self.apply_abort_effects(to, eff, root);
            }
        }
        self.sync_tele(to);
    }

    fn handle_timer(&mut self, guess: GuessId) {
        let pid = guess.process;
        let unresolved = {
            let p = &self.procs[pid.0 as usize];
            p.core
                .own
                .get(&guess)
                .map(|o| {
                    matches!(
                        o.state,
                        opcsp_core::OwnGuessState::Pending
                            | opcsp_core::OwnGuessState::AwaitingResolution
                    )
                })
                .unwrap_or(false)
        };
        if !unresolved {
            return;
        }
        self.last_activity = self.now;
        self.trace.push(TraceEvent::Timeout { t: self.now, guess });
        let eff = {
            let p = &mut self.procs[pid.0 as usize];
            p.core.on_abort(guess)
        };
        self.apply_abort_effects(pid, eff, Some(guess));
    }

    /// Apply an `AbortEffects` bundle: discard threads, restore
    /// checkpoints, broadcast aborts, schedule sequential re-runs.
    /// Returns the guesses whose left threads were resumed sequentially.
    fn apply_abort_effects(
        &mut self,
        pid: ProcessId,
        effects: opcsp_core::AbortEffects,
        root: Option<GuessId>,
    ) -> Vec<GuessId> {
        let now = self.now;
        // Wasted-step attribution: prefer the triggering guess the call
        // site named; a locally-detected cascade falls back to its first
        // own aborted guess.
        let root = root.or_else(|| effects.own_aborted.first().copied());
        for g in &effects.own_aborted {
            self.trace.push(TraceEvent::Abort {
                t: now,
                at: pid,
                guess: *g,
            });
            self.broadcast(pid, Control::Abort(*g));
        }
        // Discards: kill behavior, return consumed messages to the pool
        // (orphan filtering drops the newly-invalid ones at delivery time).
        for tid in &effects.discard_threads {
            let p = &mut self.procs[pid.0 as usize];
            if let Some(mut th) = p.threads.remove(tid) {
                p.retire_if_finished(*tid);
                th.epoch += 1;
                let mut repooled_data = 0usize;
                for (_, env) in th.consumed.drain(..) {
                    if !env.kind.is_return() {
                        repooled_data += 1;
                    }
                    p.pool.push(env);
                }
                self.rewind_sched_pos(pid, repooled_data);
                self.tele.record(TelemetryEvent::Discard {
                    t: now,
                    process: pid,
                    thread: *tid,
                    intervals: (th.checkpoints.len() as u32).saturating_sub(1),
                    steps_lost: th.resume_log.len() as u64,
                    root,
                });
                let t = self.tid(pid, *tid);
                self.trace.push(TraceEvent::Discard { t: now, thread: t });
            }
        }
        // Rollbacks: restore the engine-side checkpoint matching the slot
        // the core already restored.
        for (tid, slot) in &effects.rollback_threads {
            self.restore_thread(pid, *tid, *slot, root);
        }
        // Sequential re-runs for surviving left threads whose S1 finished.
        let mut resumed = Vec::new();
        for g in &effects.rerun_sequential {
            let left = {
                let p = &self.procs[pid.0 as usize];
                p.core.own.get(g).map(|o| o.left_thread)
            };
            if let Some(left) = left {
                let p = &mut self.procs[pid.0 as usize];
                if let Some(th) = p.threads.get_mut(&left) {
                    th.fork_guess = None;
                    resumed.push(*g);
                    self.resume_at(pid, left, now + self.cfg.step_cost, Resume::JoinSequential);
                }
            }
        }
        // Purge pooled orphans eagerly and retry deliveries (restored
        // threads are blocked again at their receive points).
        self.purge_pool(pid);
        self.try_deliver(pid);
        // A restore filters since-resolved guesses out of the restored
        // guard; if it emptied, buffered external outputs are now safe.
        self.flush_buffers(pid);
        self.sync_tele(pid);
        resumed
    }

    fn restore_thread(&mut self, pid: ProcessId, tid: u32, slot: u32, root: Option<GuessId>) {
        let now = self.now;
        let p = &mut self.procs[pid.0 as usize];
        let behavior = p.behavior.clone();
        let Some(th) = p.threads.get_mut(&tid) else {
            return;
        };
        let slot = slot as usize;
        debug_assert!(slot >= 1 && slot < th.checkpoints.len());
        let meta = th.checkpoints[slot].clone();
        // Intervals popped and behavior steps un-executed by this restore,
        // for wasted-work attribution.
        let depth = (th.checkpoints.len() - slot) as u32;
        let steps_lost = (th.resume_log.len() - meta.resume_len) as u64;
        // Restore the behavior state: directly from the boundary's
        // snapshot, or from the nearest earlier snapshot plus a
        // deterministic replay of the logged resumes (§3.1: "restoring the
        // state by resuming from the checkpoint and replaying").
        let state = match &meta.state {
            Some(st) => st.clone(),
            None => {
                let base = (0..slot)
                    .rev()
                    .find(|i| th.checkpoints[*i].state.is_some())
                    .expect("boundary 0 always has a snapshot");
                let mut st = th.checkpoints[base].state.clone().unwrap();
                let from = th.checkpoints[base].resume_len;
                let replays: Vec<Resume> = th.resume_log[from..meta.resume_len].to_vec();
                for r in replays {
                    // Side effects were already performed (and survive —
                    // they precede the rollback point), so the emitted
                    // effects are discarded.
                    let _ = behavior.step(&mut st, r);
                    self.trace.stats.replayed_steps += 1;
                }
                st
            }
        };
        th.checkpoints.truncate(slot);
        th.state = state;
        th.status = meta.status;
        th.call_stack = meta.call_stack;
        th.fork_guess = meta.fork_guess;
        th.resume_log.truncate(meta.resume_len);
        if self.cfg.fault != FaultInjection::PhantomLog {
            th.oblog.truncate(meta.oblog_len);
            th.obmeta.truncate(meta.oblog_len);
        }
        th.out_buf.truncate(meta.out_buf_len);
        th.epoch += 1;
        th.clock = th.clock.max(now);
        let mut repooled_data = 0usize;
        for (_, env) in th.consumed.split_off(meta.consumed_len) {
            if !env.kind.is_return() {
                repooled_data += 1;
            }
            p.pool.push(env);
        }
        p.mark_live(tid);
        self.rewind_sched_pos(pid, repooled_data);
        let t = self.tid(pid, tid);
        self.trace.push(TraceEvent::Rollback {
            t: now,
            thread: t,
            slot: slot as u32,
        });
        self.tele.record(TelemetryEvent::Rollback {
            t: now,
            process: pid,
            thread: tid,
            depth,
            steps_lost,
            root,
        });
    }

    /// Drop pooled messages that have become orphans.
    fn purge_pool(&mut self, pid: ProcessId) {
        let p = &mut self.procs[pid.0 as usize];
        let mut kept = Vec::with_capacity(p.pool.len());
        let mut orphans = Vec::new();
        for mut env in p.pool.drain(..) {
            match p.core.classify_arrival(&mut env) {
                ArrivalVerdict::Orphan(g) => orphans.push((env.id, env.label, g)),
                ArrivalVerdict::Ok => kept.push(env),
            }
        }
        p.pool = kept;
        for (msg, label, g) in orphans {
            self.tele.record(TelemetryEvent::Orphan {
                t: self.now,
                process: pid,
                msg,
                guess: g,
            });
            self.trace.push(TraceEvent::Orphan {
                t: self.now,
                msg,
                at: pid,
                label,
                guess: g,
            });
        }
    }

    /// Release buffered external outputs of threads whose guards emptied
    /// (§3.2: "When a computation commits, it releases its external
    /// messages").
    fn flush_buffers(&mut self, pid: ProcessId) {
        let now = self.now;
        let p = &mut self.procs[pid.0 as usize];
        let mut released = Vec::new();
        let SimProcess {
            threads,
            live,
            core,
            ..
        } = p;
        live.retain(|tid| {
            let th = threads.get_mut(tid).expect("live threads exist");
            let guard_empty = core
                .threads
                .get(tid)
                .map(|m| m.guard.is_empty())
                .unwrap_or(false);
            if guard_empty && !th.out_buf.is_empty() {
                for (_, v) in th.out_buf.drain(..) {
                    released.push(v);
                }
            }
            !th.finished()
        });
        debug_assert!(
            threads
                .values()
                .filter(|th| !th.finished())
                .map(|th| th.index)
                .eq(live.iter().copied()),
            "live list out of step with thread statuses"
        );
        for v in released {
            self.external.push((now, pid, v.clone()));
            self.trace.push(TraceEvent::External {
                t: now,
                from: pid,
                payload: v,
                buffered: true,
            });
        }
    }
}
