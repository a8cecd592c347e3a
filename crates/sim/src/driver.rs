//! The per-process protocol driver (DESIGN.md §7).
//!
//! The paper defines one per-process algorithm: checkpoint at interval
//! boundaries (§3.1), fork with guessed values (§4.2.1), classify arrivals
//! and choose deliveries (§4.2.3), verify at the join (§4.2.4),
//! disseminate COMMIT/ABORT/PRECEDENCE (§4.2.5), cascade aborts into
//! rollbacks and discards (§4.2.8), and buffer external output until its
//! guard empties (§3.2). [`Driver`] is that algorithm, written once: it
//! owns the protocol core and the logical threads of one process and makes
//! every protocol decision.
//!
//! What differs between engines is the world around a process: what time
//! it is, how a message travels, when a resumed thread actually runs. That
//! is the [`Env`] trait. The simulator implements it with an event heap and
//! a virtual network (`sim::engine`); the runtime with a transport, a
//! timer queue and a ready queue (`rt::core_poll`); the driver's own tests
//! with a scripted in-memory fake. Every driver entry point takes the
//! environment as a generic parameter, so each engine gets its own
//! monomorphised copy — no `dyn`, no per-step boxing.
//!
//! Who hears about a resolution is also decided here. Each driver is
//! handed its process's *control domain* — its connected component of the
//! communication graph the behaviors declared
//! ([`control_domains`](crate::behavior::control_domains)) — and
//! [`Driver::broadcast`] sends to that, not to the world: a guess's id
//! travels only in the guards of data messages, data messages travel only
//! along declared edges (or back along them as replies), so no process
//! outside the component can ever hold it. The declaration is enforced at
//! the one place it can be violated, [`Driver::send_data`]. A world with an
//! undeclared behavior is one domain, i.e. the paper's broadcast to all.

use crate::behavior::{reply_label, Behavior, BehaviorState, Effect, Resume};
use crate::trace::TraceEvent;
use opcsp_core::{
    AbortEffects, ArrivalVerdict, CallId, Control, CoreConfig, DataKind, Envelope, Guard, GuessId,
    Incarnation, JoinDecision, Label, MsgId, OwnGuessState, ProcessCore, ProcessId, ProtoStats,
    Telemetry, TelemetryEvent, ThreadId, ThreadMeta, ThreadPhase, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[cfg(test)]
mod tests;

/// Per-process committed receive order: for each process, the peers whose
/// data messages (calls and sends, not returns) it consumed, in consumption
/// order. Extracted from a committed run by `equiv::committed_schedule` and
/// replayed through a pessimistic run via `SimConfig::delivery_schedule`.
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
/// lockstep with the log (same thread, same index) and rolled back with it,
/// so whatever survives describes only committed events. This is the raw
/// material of the forensics first-divergence report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsMeta {
    /// Engine time the event was (last) performed.
    pub t: u64,
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

/// The policies a driver can run under that are not protocol (`CoreConfig`)
/// and not environment: whether a delivery order is forced, which
/// deliberate fault to commit, whether to keep provenance. The simulator
/// fills this from `SimConfig`; the runtime uses the default.
#[derive(Debug, Clone, Default)]
pub struct DriverPolicy {
    /// Forced receive order: the first `forced_order[p].len()` non-return
    /// deliveries at process `p` come from the named peers, other
    /// candidates held until the wanted sender's oldest message is pooled.
    /// The position rewinds when a rollback or discard returns consumed
    /// messages to the pool, so the forced choices re-apply on re-delivery.
    pub forced_order: Option<Arc<DeliverySchedule>>,
    /// Deliberate misbehavior for oracle-teeth tests.
    pub fault: FaultInjection,
    /// Record an [`ObsMeta`] for every observable-log entry.
    pub provenance: bool,
}

/// When a resumed thread should run, relative to now. The simulator turns
/// these into virtual-time costs; the runtime queues the thread at once
/// (and sleeps through a `Compute`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// One ordinary behavior step.
    Step,
    /// A fork's state copy.
    Fork,
    /// `Effect::Compute { cost }`.
    Compute(u64),
    /// No cost: a delivery hands the message over immediately.
    Now,
}

/// What a [`Driver`] needs from the engine hosting it. Times are the
/// engine's own (virtual ticks, or µs since run start); the driver only
/// stamps them on what it records.
pub trait Env {
    fn now(&self) -> u64;
    /// World-unique ids for the next data message / call.
    fn next_msg_id(&mut self) -> MsgId;
    fn next_call_id(&mut self) -> CallId;
    /// Put a data message on the wire. Returns the link sequence number the
    /// network stamped on it (`0` where links carry none).
    fn send_data(&mut self, msg: Envelope) -> u32;
    fn send_control(&mut self, from: ProcessId, to: ProcessId, ctrl: Control);
    /// Arrange for [`Driver::step`]`(thread.index, resume)` to be called.
    /// Resumes of one thread run in the order they were requested.
    fn resume(&mut self, thread: ThreadId, after: After, resume: Resume);
    /// Drop every resume of `thread` requested so far and not yet run (it
    /// rolled back, or was discarded).
    fn cancel_resumes(&mut self, thread: ThreadId);
    /// Arrange for [`Driver::on_timer`]`(guess)` after the fork timeout.
    fn arm_fork_timer(&mut self, guess: GuessId);
    /// An external output became unconditional (§3.2).
    fn release_external(&mut self, from: ProcessId, payload: Value);
    /// Lifecycle event sink; the driver records nothing (and reads no
    /// clock) while it is disabled.
    fn telemetry(&mut self) -> &mut Telemetry;
    /// Trace sink. `ev` is given the current time and is only called by an
    /// engine that keeps a trace, so an engine that does not pays nothing
    /// for the events' clones.
    fn trace(&mut self, ev: impl FnOnce(u64) -> TraceEvent);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// A resume is queued or running.
    Ready,
    BlockedRecv,
    BlockedCall(CallId),
    /// Left thread finished S1, guess unresolved (§4.2.4 last case).
    AwaitingJoin,
    Done,
}

type CallStack = Vec<(ProcessId, CallId, Label)>;

/// Per-interval boundary record (§3.1): the behavior state as the interval
/// was entered, and where the thread's logs stood.
struct Checkpoint {
    state: BehaviorState,
    status: Status,
    steps: u64,
    consumed_len: usize,
    oblog_len: usize,
    out_buf_len: usize,
    call_stack: CallStack,
    fork_guess: Option<GuessId>,
}

/// One of the paper's logical threads.
struct Thread {
    state: BehaviorState,
    status: Status,
    checkpoints: Vec<Checkpoint>,
    /// Behavior steps executed (monotone except for rollback truncation).
    steps: u64,
    /// Messages consumed, in delivery order.
    consumed: Vec<Envelope>,
    /// Observable log (sends, receives, external outputs) in local order.
    oblog: Vec<Observable>,
    /// Provenance per `oblog` entry (`DriverPolicy::provenance`).
    obmeta: Vec<ObsMeta>,
    /// External outputs awaiting commit.
    out_buf: Vec<Value>,
    /// Calls currently being serviced (innermost last).
    call_stack: CallStack,
    /// The guess this thread forked and must verify at its join point.
    fork_guess: Option<GuessId>,
}

impl Thread {
    fn new(state: BehaviorState, call_stack: CallStack) -> Self {
        let chk = Checkpoint {
            state: state.clone(),
            status: Status::Ready,
            steps: 0,
            consumed_len: 0,
            oblog_len: 0,
            out_buf_len: 0,
            call_stack: call_stack.clone(),
            fork_guess: None,
        };
        Thread {
            state,
            status: Status::Ready,
            checkpoints: vec![chk],
            steps: 0,
            consumed: Vec::new(),
            oblog: Vec::new(),
            obmeta: Vec::new(),
            out_buf: Vec::new(),
            call_stack,
            fork_guess: None,
        }
    }

    /// `Done` with nothing buffered: no delivery, flush or completion scan
    /// has anything left to do with this thread.
    fn finished(&self) -> bool {
        self.status == Status::Done && self.out_buf.is_empty()
    }
}

fn ctrl_kind(ctrl: &Control) -> u8 {
    match ctrl {
        Control::Commit(_) => 0,
        Control::Abort(_) => 1,
        Control::Precedence(..) => 2,
    }
}

fn unresolved(state: OwnGuessState) -> bool {
    matches!(
        state,
        OwnGuessState::Pending | OwnGuessState::AwaitingResolution
    )
}

fn insert_sorted(list: &mut Vec<u32>, tid: u32) {
    if let Err(i) = list.binary_search(&tid) {
        list.insert(i, tid);
    }
}

fn remove_sorted(list: &mut Vec<u32>, tid: u32) {
    if let Ok(i) = list.binary_search(&tid) {
        list.remove(i);
    }
}

/// Record a lifecycle event, reading the clock only if the sink is on.
fn tele<E: Env>(env: &mut E, ev: impl FnOnce(u64) -> TelemetryEvent) {
    if env.telemetry().enabled() {
        let t = env.now();
        env.telemetry().record(ev(t));
    }
}

/// One CSP process: the protocol core, its logical threads, and every
/// protocol decision about them. An engine feeds it steps, arrivals,
/// control messages and timer expiries; it answers through [`Env`].
pub struct Driver {
    pid: ProcessId,
    behavior: Arc<dyn Behavior>,
    /// The processes (ascending, this one included) that can come to hold
    /// one of this process's guesses, and it one of theirs: where control
    /// messages go, and the only pids data may be sent to.
    domain: Arc<[ProcessId]>,
    pub core: ProcessCore,
    policy: DriverPolicy,
    threads: BTreeMap<u32, Thread>,
    /// Indices (ascending) of the threads a delivery, waiter, flush or
    /// completion scan can still concern: every thread except those that
    /// are `Done` with nothing buffered. Finished threads keep their record
    /// in `threads` (the committed log is read from it) but are never
    /// scanned again.
    live: Vec<u32>,
    /// Indices (ascending) of the threads with external output buffered:
    /// the only ones a flush can release anything from.
    buffered: Vec<u32>,
    /// Arrived, not yet consumed messages.
    pool: Vec<Envelope>,
    /// `Some(n)`: every pooled message passed the orphan check when the
    /// history's [`aborts_learned`](opcsp_core::History::aborts_learned)
    /// read `n`, so while it still does, a delivery need not repeat the
    /// check. `None`: some pooled message has not been checked since it
    /// was (re)pooled.
    pool_checked: Option<u64>,
    /// Control messages already relayed (targeted dissemination dedup).
    relayed: BTreeSet<(u8, GuessId)>,
    /// Guessed values per fork, for join verification.
    guesses: BTreeMap<GuessId, Vec<(String, Value)>>,
    /// Position in `policy.forced_order` (non-return receives currently
    /// consumed).
    forced_pos: usize,
    /// Protocol counters.
    stats: ProtoStats,
    /// Full state snapshots taken, fork copies included.
    pub checkpoints_taken: u64,
}

impl Driver {
    /// A process with its initial thread (index 0) created and not yet
    /// started: the engine issues `Resume::Start` to it. `domain` is the
    /// process's entry of [`control_domains`](crate::behavior::control_domains).
    pub fn new(
        pid: ProcessId,
        behavior: Arc<dyn Behavior>,
        domain: Arc<[ProcessId]>,
        core: CoreConfig,
        policy: DriverPolicy,
    ) -> Driver {
        let thread0 = Thread::new(behavior.init(), Vec::new());
        Driver {
            pid,
            behavior,
            domain,
            core: ProcessCore::new(pid, core),
            policy,
            threads: BTreeMap::from([(0, thread0)]),
            live: vec![0],
            buffered: Vec::new(),
            pool: Vec::new(),
            pool_checked: Some(0),
            relayed: BTreeSet::new(),
            guesses: BTreeMap::new(),
            forced_pos: 0,
            stats: ProtoStats::default(),
            checkpoints_taken: 0,
        }
    }

    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// This process's protocol counters so far.
    pub fn stats(&self) -> ProtoStats {
        self.stats
    }

    /// Indices of the threads that exist (discarded ones are gone).
    pub fn thread_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.threads.keys().copied()
    }

    /// The observable log: threads concatenated in fork-index order. At
    /// quiescence this is the committed log.
    pub fn log(&self) -> Vec<Observable> {
        self.threads
            .values()
            .flat_map(|t| t.oblog.iter().cloned())
            .collect()
    }

    /// Provenance per [`Driver::log`] entry (empty unless the policy keeps
    /// it).
    pub fn provenance(&self) -> Vec<ObsMeta> {
        self.threads
            .values()
            .flat_map(|t| t.obmeta.iter().cloned())
            .collect()
    }

    /// Senders of the data (non-return) messages still pooled, in
    /// message-id order.
    pub fn undelivered(&self) -> Vec<ProcessId> {
        let mut left: Vec<(MsgId, ProcessId)> = self
            .pool
            .iter()
            .filter(|m| !m.kind.is_return())
            .map(|m| (m.id, m.from))
            .collect();
        left.sort_unstable();
        left.into_iter().map(|(_, from)| from).collect()
    }

    /// Own guesses not yet committed or aborted.
    pub fn unresolved_guesses(&self) -> impl Iterator<Item = GuessId> + '_ {
        self.core
            .own
            .values()
            .filter(|o| unresolved(o.state))
            .map(|o| o.id)
    }

    /// Every thread ran its program to the end and no own guess is open.
    pub fn program_done(&self) -> bool {
        // Retired threads are `Done`; only the live ones can still be
        // running.
        self.live_threads().all(|(_, t)| t.status == Status::Done)
            && self.core.speculation_quiescent()
    }

    // ------------------------------------------------------------------
    // Bookkeeping
    // ------------------------------------------------------------------

    fn thread_id(&self, tid: u32) -> ThreadId {
        ThreadId {
            process: self.pid,
            index: tid,
        }
    }

    fn th(&mut self, tid: u32) -> &mut Thread {
        self.threads.get_mut(&tid).expect("thread exists")
    }

    /// A thread was created, or a rollback re-opened it.
    fn mark_live(&mut self, tid: u32) {
        insert_sorted(&mut self.live, tid);
    }

    /// Drop `tid` from the scans if it was discarded, or is `Done` with
    /// nothing buffered.
    fn retire_if_finished(&mut self, tid: u32) {
        if self.threads.get(&tid).is_none_or(|th| th.finished()) {
            remove_sorted(&mut self.live, tid);
        }
    }

    fn live_threads(&self) -> impl Iterator<Item = (u32, &Thread)> {
        self.live.iter().map(|tid| (*tid, &self.threads[tid]))
    }

    fn resume<E: Env>(&mut self, env: &mut E, tid: u32, after: After, resume: Resume) {
        self.th(tid).status = Status::Ready;
        env.resume(self.thread_id(tid), after, resume);
    }

    /// Emit `Resolved` telemetry for resolutions the core recorded since
    /// the last sync (cursor-idempotent; the driver calls it after every
    /// resolution-producing protocol step, engines once more when the run
    /// ends).
    pub fn sync_telemetry<E: Env>(&self, env: &mut E) {
        if env.telemetry().enabled() {
            let t = env.now();
            let sink = env.telemetry();
            sink.sync_resolutions(t, self.pid, &self.core.resolutions);
            sink.sync_policy_shifts(t, self.pid, self.core.policy_shifts());
        }
    }

    /// Append to `tid`'s observable log. `msg` is the (id, link sequence
    /// number) of a sent or received message.
    fn observe<E: Env>(&mut self, env: &E, tid: u32, obs: Observable, msg: Option<(MsgId, u32)>) {
        let meta = self.policy.provenance.then(|| ObsMeta {
            t: env.now(),
            thread: tid,
            msg: msg.map(|m| m.0),
            link_seq: msg.map(|m| m.1),
            guard: self
                .core
                .threads
                .get(&tid)
                .map_or_else(Guard::empty, |m| self.core.history.uncommitted(&m.guard)),
            incarnation: self.core.incarnation,
        });
        let th = self.th(tid);
        th.oblog.push(obs);
        th.obmeta.extend(meta);
    }

    fn orphaned<E: Env>(&mut self, env: &mut E, msg: MsgId, label: Label, guess: GuessId) {
        let at = self.pid;
        self.stats.orphans += 1;
        tele(env, |t| TelemetryEvent::Orphan {
            t,
            process: at,
            msg,
            guess,
        });
        env.trace(|t| TraceEvent::Orphan {
            t,
            msg,
            at,
            label,
            guess,
        });
    }

    // ------------------------------------------------------------------
    // Stepping
    // ------------------------------------------------------------------

    /// Run one behavior step of thread `tid` and act on its effect. Returns
    /// false (and does nothing) if the thread is gone or `Done`.
    pub fn step<E: Env>(&mut self, env: &mut E, tid: u32, resume: Resume) -> bool {
        let Some(th) = self.threads.get_mut(&tid) else {
            return false;
        };
        if th.status == Status::Done {
            return false;
        }
        th.status = Status::Ready;
        th.steps += 1;
        let effect = self.behavior.step(&mut th.state, resume);
        self.handle_effect(env, tid, effect);
        true
    }

    fn handle_effect<E: Env>(&mut self, env: &mut E, tid: u32, effect: Effect) {
        match effect {
            Effect::Compute { cost } => {
                self.resume(env, tid, After::Compute(cost), Resume::Continue);
            }
            Effect::Send { to, payload, label } => {
                self.send_data(env, tid, to, DataKind::Send, payload, label);
                self.resume(env, tid, After::Step, Resume::Continue);
            }
            Effect::Call { to, payload, label } => {
                let cid = env.next_call_id();
                self.send_data(env, tid, to, DataKind::Call(cid), payload, label);
                self.th(tid).status = Status::BlockedCall(cid);
                self.try_deliver(env);
            }
            Effect::Reply { payload, label } => {
                let (to, cid, call_label) = self
                    .th(tid)
                    .call_stack
                    .pop()
                    .expect("Reply with no call in service");
                let label = if label.is_empty() {
                    reply_label(&call_label)
                } else {
                    label
                };
                self.send_data(env, tid, to, DataKind::Return(cid), payload, label);
                self.resume(env, tid, After::Step, Resume::Continue);
            }
            Effect::Receive => {
                self.th(tid).status = Status::BlockedRecv;
                self.try_deliver(env);
            }
            Effect::External { payload } => {
                let guard_empty = self
                    .core
                    .threads
                    .get(&tid)
                    .is_none_or(|m| self.core.history.all_committed(&m.guard));
                let obs = Observable::Output {
                    payload: payload.clone(),
                };
                self.observe(env, tid, obs, None);
                if guard_empty {
                    self.release(env, payload, false);
                } else {
                    self.th(tid).out_buf.push(payload);
                    insert_sorted(&mut self.buffered, tid);
                }
                self.resume(env, tid, After::Step, Resume::Continue);
            }
            Effect::Fork { site, guesses } => {
                if self.core.can_fork(site) {
                    self.fork_right(env, tid, site, guesses, Some(Resume::ForkLeft));
                } else {
                    self.resume(env, tid, After::Step, Resume::ForkDenied);
                }
            }
            Effect::CallThenFork {
                to,
                payload,
                label,
                site,
                guesses,
            } => {
                // Send the call first (§4.2.1): the message departs before
                // the fork, and the left thread is simply parked on the
                // return — no resume for it.
                let cid = env.next_call_id();
                self.send_data(env, tid, to, DataKind::Call(cid), payload, label);
                self.th(tid).status = Status::BlockedCall(cid);
                if self.core.can_fork(site) {
                    self.fork_right(env, tid, site, guesses, None);
                }
                self.try_deliver(env);
            }
            Effect::JoinLeft { actual } => self.handle_join(env, tid, actual),
            Effect::Done => {
                self.th(tid).status = Status::Done;
                let core = &mut self.core;
                if let Some(meta) = core.threads.get_mut(&tid) {
                    if core.history.all_committed(&meta.guard) {
                        meta.phase = ThreadPhase::Done;
                    }
                }
                self.retire_if_finished(tid);
                let thread = self.thread_id(tid);
                env.trace(|t| TraceEvent::ThreadDone { t, thread });
            }
        }
    }

    fn send_data<E: Env>(
        &mut self,
        env: &mut E,
        tid: u32,
        to: ProcessId,
        kind: DataKind,
        payload: Value,
        label: String,
    ) {
        // Control about this send's guard will only ever go to the domain.
        assert!(
            self.domain.binary_search(&to).is_ok(),
            "process {} ({}) sent to process {}, outside the communication component \
             its world's behaviors declared (Behavior::peers)",
            self.pid.0,
            self.behavior.name(),
            to.0,
        );
        let msg = Envelope {
            id: env.next_msg_id(),
            from: self.pid,
            from_thread: tid,
            to,
            guard: self.core.guard_for_send(tid).clone(),
            table_acks: vec![],
            kind,
            payload: payload.clone(),
            label: label.into(),
            // The network stamps it in `Env::send_data`.
            link_seq: 0,
        };
        self.stats.data_messages += 1;
        self.stats.guard_bytes += msg.guard.wire_size() as u64;
        let from = self.thread_id(tid);
        env.trace(|t| TraceEvent::Send {
            t,
            msg: msg.id,
            from,
            to,
            label: msg.label.clone(),
            guard: msg.guard.clone(),
        });
        self.core.note_send(&msg.guard, to);
        let id = msg.id;
        let link_seq = env.send_data(msg);
        let obs = Observable::Sent {
            to,
            kind: kind.into(),
            payload,
        };
        self.observe(env, tid, obs, Some((id, link_seq)));
    }

    /// An external output is unconditional: hand it to the engine.
    fn release<E: Env>(&mut self, env: &mut E, payload: Value, buffered: bool) {
        let from = self.pid;
        env.trace(|t| TraceEvent::External {
            t,
            from,
            payload: payload.clone(),
            buffered,
        });
        env.release_external(from, payload);
    }

    // ------------------------------------------------------------------
    // Dissemination (§4.2.5)
    // ------------------------------------------------------------------

    /// Disseminate a control message: broadcast to the control domain
    /// (the paper's simple scheme, scoped to where a dependency can
    /// exist), or targeted at recorded dependents. Targeted recipients
    /// relay onward in [`Driver::on_control`].
    fn broadcast<E: Env>(&mut self, env: &mut E, ctrl: Control) {
        let from = self.pid;
        env.trace(|t| TraceEvent::ControlSent {
            t,
            from,
            ctrl: ctrl.clone(),
        });
        let targets: Vec<ProcessId> = if self.core.config.targeted_control {
            let mut t = self.core.dependents_of(ctrl.subject());
            // PRECEDENCE must also reach the owners of the guard members
            // (they hold the CDG edges that close cycles).
            if let Control::Precedence(_, guard) = &ctrl {
                let owners = guard.runs().iter().map(|r| r.process);
                t.extend(owners.filter(|p| *p != from));
            }
            t.into_iter().collect()
        } else {
            self.domain.iter().copied().filter(|p| *p != from).collect()
        };
        self.relayed.insert((ctrl_kind(&ctrl), ctrl.subject()));
        self.send_control(env, targets, &ctrl);
    }

    /// Cooperative relay for targeted dissemination: forward a control
    /// message (once) to the dependents this process itself created,
    /// excluding whoever just told us (they know).
    fn relay_control<E: Env>(&mut self, env: &mut E, from: ProcessId, ctrl: &Control) {
        if !self.core.config.targeted_control
            || !self.relayed.insert((ctrl_kind(ctrl), ctrl.subject()))
        {
            return;
        }
        let mut targets = self.core.dependents_of(ctrl.subject());
        targets.remove(&from);
        self.send_control(env, targets, ctrl);
    }

    fn send_control<E: Env>(
        &mut self,
        env: &mut E,
        targets: impl IntoIterator<Item = ProcessId>,
        ctrl: &Control,
    ) {
        for to in targets {
            self.stats.control_messages += 1;
            env.send_control(self.pid, to, ctrl.clone());
        }
    }

    // ------------------------------------------------------------------
    // Fork / join (§4.2.1, §4.2.4)
    // ------------------------------------------------------------------

    /// Split thread `tid` at `site`: create the right thread (S2, seeded
    /// with `guesses`) from a copy of its state, and arm the fork timer.
    /// `left_resume` restarts the left thread too (a plain `Fork`); a
    /// `CallThenFork` leaves it parked on its call.
    fn fork_right<E: Env>(
        &mut self,
        env: &mut E,
        tid: u32,
        site: u32,
        guesses: Vec<(String, Value)>,
        left_resume: Option<Resume>,
    ) {
        let rec = self.core.fork(tid, site);
        let (guess, right) = (rec.guess, rec.right_thread);
        let left = self.th(tid);
        left.fork_guess = Some(guess);
        // The continuation (S2) inherits the calls being serviced: if S2
        // replies speculatively and the guess aborts, the surviving left
        // thread still holds its own copy and re-replies sequentially.
        let right_thread = Thread::new(left.state.clone(), left.call_stack.clone());
        self.threads.insert(right, right_thread);
        self.mark_live(right);
        self.guesses.insert(guess, guesses.clone());
        self.stats.forks += 1;
        self.checkpoints_taken += 1; // the fork's state copy
        let (lt, rt) = (self.thread_id(tid), self.thread_id(right));
        env.trace(|t| TraceEvent::Fork {
            t,
            guess,
            left: lt,
            right: rt,
        });
        tele(env, |t| TelemetryEvent::Fork {
            t,
            guess,
            site,
            left: tid,
            right,
        });
        if let Some(resume) = left_resume {
            self.resume(env, tid, After::Fork, resume);
        }
        self.resume(env, right, After::Fork, Resume::ForkRight { guesses });
        env.arm_fork_timer(guess);
    }

    fn handle_join<E: Env>(&mut self, env: &mut E, tid: u32, actual: Vec<(String, Value)>) {
        let Some(guess) = self.th(tid).fork_guess else {
            // Pessimistic / denied fork: run S2 inline immediately.
            self.resume(env, tid, After::Step, Resume::JoinSequential);
            return;
        };
        let value_ok = self.guesses.get(&guess).is_none_or(|expected| {
            expected
                .iter()
                .all(|(k, v)| actual.iter().any(|(ak, av)| ak == k && av == v))
        });
        match self.core.join_left_done(guess, value_ok) {
            JoinDecision::Commit { committed } => {
                env.trace(|t| TraceEvent::JoinCommit { t, guess });
                for g in committed {
                    self.local_commit(env, g);
                }
                self.flush_buffers(env);
            }
            JoinDecision::Abort { effects } => {
                let at = self.pid;
                env.trace(|t| {
                    if value_ok {
                        TraceEvent::TimeFault {
                            t,
                            at,
                            cycle: vec![guess],
                        }
                    } else {
                        TraceEvent::ValueFault { t, guess }
                    }
                });
                // If the cascade rolls this very thread back (its S1
                // consumed a now-orphaned message), the replayed S1 will
                // reach the join again and take the AlreadyAborted path —
                // no resume here.
                let survives = !effects.rollback_threads.iter().any(|(t, _)| *t == tid)
                    && !effects.discard_threads.contains(&tid);
                let rerun = self.apply_abort_effects(env, effects, Some(guess));
                // The left thread (this one) re-executes S2 sequentially,
                // unless the cascade already scheduled it.
                if survives && !rerun.contains(&guess) {
                    self.join_sequential(env, tid);
                }
            }
            JoinDecision::Await {
                guess,
                precedence_guard,
            } => {
                env.trace(|t| TraceEvent::JoinAwait {
                    t,
                    guess,
                    guard: precedence_guard.clone(),
                });
                self.th(tid).status = Status::AwaitingJoin;
                self.broadcast(env, Control::Precedence(guess, precedence_guard));
            }
            JoinDecision::AlreadyAborted { .. } => self.join_sequential(env, tid),
        }
        self.sync_telemetry(env);
    }

    /// The guess `tid` forked is gone: it runs S2 itself.
    fn join_sequential<E: Env>(&mut self, env: &mut E, tid: u32) {
        if let Some(th) = self.threads.get_mut(&tid) {
            th.fork_guess = None;
            self.resume(env, tid, After::Step, Resume::JoinSequential);
        }
    }

    /// A local (own) guess committed: broadcast, finish the left thread.
    fn local_commit<E: Env>(&mut self, env: &mut E, guess: GuessId) {
        let at = self.pid;
        env.trace(|t| TraceEvent::Commit { t, at, guess });
        self.stats.commits += 1;
        tele(env, |t| TelemetryEvent::WaveStart { t, guess });
        self.sync_telemetry(env);
        self.broadcast(env, Control::Commit(guess));
        if let Some(left) = self.core.own.get(&guess).map(|o| o.left_thread) {
            if let Some(th) = self.threads.get_mut(&left) {
                th.status = Status::Done;
                th.fork_guess = None;
                self.retire_if_finished(left);
                let thread = self.thread_id(left);
                env.trace(|t| TraceEvent::ThreadDone { t, thread });
            }
        }
        self.flush_buffers(env);
    }

    // ------------------------------------------------------------------
    // Message arrival & delivery (§4.2.3)
    // ------------------------------------------------------------------

    /// A data message arrived from the network.
    pub fn on_data<E: Env>(&mut self, env: &mut E, msg: Envelope) {
        // First classification learns the incarnations the tag names; the
        // pooled re-classification in `try_deliver`/`purge_pool` is a pure
        // re-check (pinned by `double_classification_of_pooled_envelope_
        // is_idempotent` in opcsp-core). An orphaned envelope is dropped
        // at the site that counts it, so `stats.orphans` sees each
        // envelope at most once per pooling.
        if let ArrivalVerdict::Orphan(g) = self.core.classify_arrival(&msg) {
            self.orphaned(env, msg.id, msg.label, g);
            return;
        }
        let checked = self.core.history.aborts_learned();
        // Early time-fault detection on returns (§4.2.3): the waiting
        // thread is the one blocked on this call id.
        if let DataKind::Return(cid) = msg.kind {
            let waiter = self
                .live_threads()
                .find(|(_, t)| t.status == Status::BlockedCall(cid))
                .map(|(tid, _)| tid);
            if let Some(w) = waiter {
                if let Some(doomed) = self.core.return_depends_on_future(w, &msg) {
                    let effects = self.core.on_abort(doomed);
                    let at = self.pid;
                    env.trace(|t| TraceEvent::TimeFault {
                        t,
                        at,
                        cycle: vec![doomed],
                    });
                    self.apply_abort_effects(env, effects, Some(doomed));
                }
            }
        }
        // The early check may just have aborted a guess this very message
        // names: the pool it joins is only as fresh as its own check.
        if self.core.history.aborts_learned() != checked {
            self.pool_checked = None;
        }
        self.pool.push(msg);
        self.try_deliver(env);
    }

    /// Match pooled messages to blocked threads until quiescent.
    fn try_deliver<E: Env>(&mut self, env: &mut E) {
        while let Some((tid, pool_idx)) = self.pick_delivery() {
            let msg = self.pool.remove(pool_idx);
            // Re-check orphan status if an abort may have been learned
            // since the message was pooled (explicitly, or through a later
            // incarnation named in some other message's tag).
            if self.pool_checked != Some(self.core.history.aborts_learned()) {
                if let ArrivalVerdict::Orphan(g) = self.core.classify_arrival(&msg) {
                    self.orphaned(env, msg.id, msg.label, g);
                    continue;
                }
            }
            debug_assert!(
                self.core.history.first_aborted(&msg.guard).is_none(),
                "delivering an orphan"
            );
            self.deliver_to(env, tid, msg);
        }
        if self.pool.is_empty() {
            self.pool_checked = Some(self.core.history.aborts_learned());
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
    fn pick_delivery(&self) -> Option<(u32, usize)> {
        if self.pool.is_empty() {
            return None;
        }
        for (tid, th) in self.live_threads() {
            if let Status::BlockedCall(cid) = th.status {
                let ret = DataKind::Return(cid);
                if let Some(i) = self.pool.iter().position(|m| m.kind == ret) {
                    return Some((tid, i));
                }
            }
        }
        for (tid, th) in self.live_threads() {
            if th.status != Status::BlockedRecv {
                continue;
            }
            // Withhold messages that depend on one of our own *live*
            // future guesses: delivering one to `tid` would make that
            // guess depend on itself (§4.2.3's x4/x5/x6 example). The
            // liveness-based core check also catches stale-incarnation
            // guesses surviving in the pool across an incarnation bump —
            // an incarnation-equality filter here once let those through
            // prematurely (pinned by
            // `stale_incarnation_guess_still_withheld_from_earlier_thread`
            // in opcsp-core).
            let candidates: Vec<(usize, &Envelope)> = self
                .pool
                .iter()
                .enumerate()
                .filter(|(_, m)| {
                    !m.kind.is_return()
                        && self.core.guard_depends_on_future(tid, &m.guard).is_none()
                })
                .collect();
            if candidates.is_empty() {
                continue;
            }
            // Forced order: serve the scheduled peer's oldest message, or
            // hold this thread until it arrives. Past the schedule's end
            // the normal policy applies.
            let wanted = self
                .policy
                .forced_order
                .as_ref()
                .and_then(|sched| sched.get(&self.pid))
                .and_then(|order| order.get(self.forced_pos));
            if let Some(want) = wanted {
                match candidates
                    .iter()
                    .filter(|(_, m)| m.from == *want)
                    .min_by_key(|(_, m)| m.id)
                {
                    Some((i, _)) => return Some((tid, *i)),
                    None => continue,
                }
            }
            if self.policy.fault == FaultInjection::LifoDelivery {
                let newest = candidates.iter().max_by_key(|(_, m)| m.id);
                return newest.map(|(i, _)| (tid, *i));
            }
            let envs: Vec<&Envelope> = candidates.iter().map(|(_, e)| *e).collect();
            if let Some(k) = self.core.choose_delivery(tid, &envs) {
                return Some((tid, candidates[k].0));
            }
        }
        None
    }

    fn deliver_to<E: Env>(&mut self, env: &mut E, tid: u32, msg: Envelope) {
        // Checkpoint *before* applying a dependency-introducing message
        // (§3.1): the core has opened the interval, but nothing of the
        // thread's own changes until the resume below runs. The checkpoint
        // keeps the *blocked* status, so a rollback re-opens the receive.
        let eff = self.core.deliver(tid, &msg);
        let new_deps = eff.new_guards.len();
        if eff.new_interval.is_some() {
            let th = self.th(tid);
            let chk = Checkpoint {
                state: th.state.clone(),
                status: th.status,
                steps: th.steps,
                consumed_len: th.consumed.len(),
                oblog_len: th.oblog.len(),
                out_buf_len: th.out_buf.len(),
                call_stack: th.call_stack.clone(),
                fork_guess: th.fork_guess,
            };
            th.checkpoints.push(chk);
            self.checkpoints_taken += 1;
        }
        debug_assert_eq!(
            self.threads[&tid].checkpoints.len() as u32,
            self.core.threads[&tid].interval + 1
        );
        let obs = Observable::Received {
            from: msg.from,
            kind: msg.kind.into(),
            payload: msg.payload.clone(),
        };
        self.observe(env, tid, obs, Some((msg.id, msg.link_seq)));
        let th = self.th(tid);
        th.consumed.push(msg.clone());
        if let DataKind::Call(cid) = msg.kind {
            th.call_stack.push((msg.from, cid, msg.label.clone()));
        }
        if !msg.kind.is_return() {
            self.forced_pos += 1;
        }
        let to = self.thread_id(tid);
        env.trace(|t| TraceEvent::Deliver {
            t,
            msg: msg.id,
            to,
            from: msg.from,
            label: msg.label.clone(),
            guard: msg.guard.clone(),
        });
        let (process, id) = (self.pid, msg.id);
        tele(env, |t| TelemetryEvent::Deliver {
            t,
            process,
            thread: tid,
            msg: id,
            new_deps: new_deps as u32,
        });
        // The thread stops waiting now: a second message released in the
        // same batch must not be delivered to it before this resume runs.
        self.resume(env, tid, After::Now, Resume::Msg(msg));
    }

    // ------------------------------------------------------------------
    // Control messages & resolution
    // ------------------------------------------------------------------

    /// A control message arrived from process `from`.
    pub fn on_control<E: Env>(&mut self, env: &mut E, from: ProcessId, ctrl: Control) {
        self.relay_control(env, from, &ctrl);
        let at = self.pid;
        match ctrl {
            Control::Commit(guess) => {
                let eff = self.core.on_commit(guess);
                env.trace(|t| TraceEvent::Commit { t, at, guess });
                tele(env, |t| TelemetryEvent::WaveLanded { t, guess, at });
                self.sync_telemetry(env);
                for own in eff.own_committed {
                    env.trace(|t| TraceEvent::JoinCommit { t, guess: own });
                    self.local_commit(env, own);
                }
                self.flush_buffers(env);
                self.try_deliver(env);
            }
            Control::Abort(guess) => {
                let already = self.core.history.is_aborted(guess);
                let eff = self.core.on_abort(guess);
                if !already || !eff.is_empty() {
                    env.trace(|t| TraceEvent::Abort { t, at, guess });
                }
                self.apply_abort_effects(env, eff, Some(guess));
            }
            Control::Precedence(guess, guard) => {
                let eff = self.core.on_precedence(guess, &guard);
                if !eff.is_empty() {
                    env.trace(|t| TraceEvent::TimeFault {
                        t,
                        at,
                        cycle: eff.own_aborted.clone(),
                    });
                }
                let root = eff.own_aborted.first().copied();
                self.apply_abort_effects(env, eff, root);
            }
        }
        self.sync_telemetry(env);
    }

    /// The fork timer of own guess `guess` expired (§3.2). Returns false if
    /// the guess had already resolved and nothing happened.
    pub fn on_timer<E: Env>(&mut self, env: &mut E, guess: GuessId) -> bool {
        if !self
            .core
            .own
            .get(&guess)
            .is_some_and(|o| unresolved(o.state))
        {
            return false;
        }
        env.trace(|t| TraceEvent::Timeout { t, guess });
        let eff = self.core.on_abort(guess);
        self.apply_abort_effects(env, eff, Some(guess));
        true
    }

    /// Apply an `AbortEffects` bundle (§4.2.8): broadcast own aborts,
    /// discard threads, restore checkpoints, schedule sequential re-runs.
    /// Returns the guesses whose left threads were resumed sequentially.
    fn apply_abort_effects<E: Env>(
        &mut self,
        env: &mut E,
        effects: AbortEffects,
        root: Option<GuessId>,
    ) -> Vec<GuessId> {
        let at = self.pid;
        // Wasted-step attribution: prefer the triggering guess the call
        // site named; a locally-detected cascade falls back to its first
        // own aborted guess.
        let root = root.or_else(|| effects.own_aborted.first().copied());
        for &guess in &effects.own_aborted {
            env.trace(|t| TraceEvent::Abort { t, at, guess });
            self.stats.aborts += 1;
            self.broadcast(env, Control::Abort(guess));
        }
        // Discards: kill the thread, return consumed messages to the pool
        // (orphan filtering drops the newly-invalid ones at delivery time).
        for &tid in &effects.discard_threads {
            let Some(th) = self.threads.remove(&tid) else {
                continue;
            };
            self.retire_if_finished(tid);
            remove_sorted(&mut self.buffered, tid);
            self.stats.discarded_threads += 1;
            let intervals = (th.checkpoints.len() as u32).saturating_sub(1);
            let steps_lost = th.steps;
            self.repool(th.consumed);
            let thread = self.thread_id(tid);
            env.cancel_resumes(thread);
            tele(env, |t| TelemetryEvent::Discard {
                t,
                process: at,
                thread: tid,
                intervals,
                steps_lost,
                root,
            });
            env.trace(|t| TraceEvent::Discard { t, thread });
        }
        // Rollbacks: restore the driver-side checkpoint matching the slot
        // the core already restored.
        for &(tid, slot) in &effects.rollback_threads {
            self.restore_thread(env, tid, slot, root);
        }
        // Sequential re-runs for surviving left threads whose S1 finished.
        let mut resumed = Vec::new();
        for &guess in &effects.rerun_sequential {
            let left = self.core.own.get(&guess).map(|o| o.left_thread);
            if let Some(left) = left.filter(|l| self.threads.contains_key(l)) {
                resumed.push(guess);
                self.join_sequential(env, left);
            }
        }
        // Purge pooled orphans eagerly and retry deliveries (restored
        // threads are blocked again at their receive points).
        self.purge_pool(env);
        self.try_deliver(env);
        // A restore filters since-resolved guesses out of the restored
        // guard; if it emptied, buffered external outputs are now safe.
        self.flush_buffers(env);
        self.sync_telemetry(env);
        resumed
    }

    /// Return messages a rolled-back or discarded thread had consumed to
    /// the pool, rewinding the forced-order position past the data
    /// messages among them.
    fn repool(&mut self, consumed: Vec<Envelope>) {
        let data = consumed.iter().filter(|m| !m.kind.is_return()).count();
        self.forced_pos = self.forced_pos.saturating_sub(data);
        if !consumed.is_empty() {
            // They were last checked before they were consumed.
            self.pool_checked = None;
        }
        self.pool.extend(consumed);
    }

    fn restore_thread<E: Env>(&mut self, env: &mut E, tid: u32, slot: u32, root: Option<GuessId>) {
        let Some(th) = self.threads.get_mut(&tid) else {
            return;
        };
        let slot = slot as usize;
        debug_assert!(slot >= 1 && slot < th.checkpoints.len());
        // Intervals popped and behavior steps un-executed by this restore,
        // for wasted-work attribution.
        let depth = (th.checkpoints.len() - slot) as u32;
        th.checkpoints.truncate(slot + 1);
        let chk = th.checkpoints.pop().expect("rollback slot exists");
        let steps_lost = th.steps - chk.steps;
        th.state = chk.state;
        th.status = chk.status;
        th.call_stack = chk.call_stack;
        th.fork_guess = chk.fork_guess;
        th.steps = chk.steps;
        if self.policy.fault != FaultInjection::PhantomLog {
            th.oblog.truncate(chk.oblog_len);
            th.obmeta.truncate(chk.oblog_len);
        }
        th.out_buf.truncate(chk.out_buf_len);
        if th.out_buf.is_empty() {
            remove_sorted(&mut self.buffered, tid);
        }
        let consumed = th.consumed.split_off(chk.consumed_len);
        self.repool(consumed);
        self.mark_live(tid);
        self.stats.rollbacks += 1;
        // The thread is blocked at its checkpointed receive/call again.
        let thread = self.thread_id(tid);
        env.cancel_resumes(thread);
        env.trace(|t| TraceEvent::Rollback {
            t,
            thread,
            slot: slot as u32,
        });
        let process = self.pid;
        tele(env, |t| TelemetryEvent::Rollback {
            t,
            process,
            thread: tid,
            depth,
            steps_lost,
            root,
        });
    }

    /// Drop pooled messages that have become orphans.
    fn purge_pool<E: Env>(&mut self, env: &mut E) {
        let mut orphans = Vec::new();
        self.pool_checked = Some(self.core.history.aborts_learned());
        let core = &mut self.core;
        self.pool.retain(|msg| match core.classify_arrival(msg) {
            ArrivalVerdict::Orphan(g) => {
                orphans.push((msg.id, msg.label.clone(), g));
                false
            }
            ArrivalVerdict::Ok => true,
        });
        for (msg, label, g) in orphans {
            self.orphaned(env, msg, label, g);
        }
    }

    /// Release buffered external outputs of threads whose guards emptied
    /// (§3.2: "When a computation commits, it releases its external
    /// messages"), and retire the threads that finished.
    fn flush_buffers<E: Env>(&mut self, env: &mut E) {
        let mut released = Vec::new();
        let Driver {
            threads,
            live,
            buffered,
            core,
            ..
        } = self;
        buffered.retain(|tid| {
            let committed = |m: &ThreadMeta| core.history.all_committed(&m.guard);
            if !core.threads.get(tid).is_some_and(committed) {
                return true;
            }
            let th = threads.get_mut(tid).expect("buffering threads exist");
            released.append(&mut th.out_buf);
            if th.finished() {
                remove_sorted(live, *tid);
            }
            false
        });
        debug_assert!(
            threads
                .iter()
                .filter(|(_, th)| !th.finished())
                .map(|(tid, _)| tid)
                .eq(live.iter()),
            "live list out of step with thread statuses"
        );
        debug_assert!(
            threads
                .iter()
                .filter(|(_, th)| !th.out_buf.is_empty())
                .map(|(tid, _)| tid)
                .eq(buffered.iter()),
            "buffered list out of step with the output buffers"
        );
        for payload in released {
            self.release(env, payload, true);
        }
    }
}
