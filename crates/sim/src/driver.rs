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
    Incarnation, JoinDecision, Label, MsgId, ProcessCore, ProcessId, ProtoStats, Telemetry,
    TelemetryEvent, ThreadId, ThreadMeta, ThreadPhase, Value,
};
use pool::{Pool, Slot};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

mod pool;
#[cfg(test)]
mod tests;

/// Per-process committed receive order: for each process, the peers whose
/// data messages (calls and sends, not returns) it consumed, in consumption
/// order. Extracted from a committed run by `equiv::committed_schedule` and
/// replayed through a pessimistic run via `SimConfig::forced_order`.
pub type DeliverySchedule = BTreeMap<ProcessId, Vec<ProcessId>>;

/// Deliberate engine misbehavior, used to prove the Theorem-1 oracle (and
/// the forensics pipeline behind it) has teeth. `None` in production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultInjection {
    #[default]
    None,
    /// At a receive point, deliver the *newest* pooled candidate — any
    /// pooled message, not just each sender's oldest — instead of the
    /// dependency-minimizing choice, and drop the per-link FIFO arrival
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
/// deliberate fault to commit, whether to keep what only a recorded run's
/// readers read. The simulator fills this from `SimConfig`; the runtime
/// uses the default.
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
    /// Keep an [`ObsMeta`] for every observable-log entry, and every
    /// resolution of an own guess (`ProcessCore::resolutions`) past the
    /// telemetry's reading of it.
    pub record: bool,
}

/// When a resumed thread should run, relative to now. The simulator turns
/// these into virtual-time costs; the runtime queues the thread at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// One ordinary behavior step, a fork's state copy included.
    Step,
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
    /// The boundary records of intervals `first..=interval` (§3.1): the
    /// ones below the thread's restore floor are dropped as it rises.
    /// Interval 0 has none: going back to it is a discard, which restores
    /// nothing, so `first` starts at 1.
    checkpoints: VecDeque<Checkpoint>,
    first: u32,
    /// Behavior steps executed (monotone except for rollback truncation).
    steps: u64,
    /// Messages consumed, in delivery order, from the `consumed_from`-th
    /// on: the ones before the oldest checkpoint kept are dropped.
    consumed: VecDeque<Envelope>,
    consumed_from: usize,
    /// Observable log (sends, receives, external outputs) in local order.
    oblog: Vec<Observable>,
    /// Provenance per `oblog` entry (`DriverPolicy::record`).
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
        Thread {
            state,
            status: Status::Ready,
            checkpoints: VecDeque::new(),
            first: 1,
            steps: 0,
            consumed: VecDeque::new(),
            consumed_from: 0,
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

    /// Drop what no restore can reach any more: the checkpoints of the
    /// intervals before `floor`, and the messages consumed before the
    /// oldest checkpoint left (all of them, if none is). At floor 0 a
    /// discard can still hand every consumed message back.
    fn trim(&mut self, floor: u32) {
        while self.first < floor && self.checkpoints.pop_front().is_some() {
            self.first += 1;
        }
        let consumed_to = self.consumed_from + self.consumed.len();
        let keep = match self.checkpoints.front() {
            _ if floor == 0 => 0,
            Some(c) => c.consumed_len,
            None => consumed_to,
        };
        let drop = keep - self.consumed_from;
        self.consumed.drain(..drop);
        self.consumed_from = keep;
    }
}

/// What a driver counts beyond [`ProtoStats`] for the simulator's
/// [`SimStats`](crate::trace::SimStats), each where the event it is traced
/// as is emitted, so a run counts the same whether it keeps a trace or not.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimCounts {
    /// Joins whose guessed values were wrong (§2, Figure 5).
    pub(crate) value_faults: u64,
    /// Time faults: a guess in its own left thread's guard at the join, a
    /// return that depends on a future guess, a PRECEDENCE cycle.
    pub(crate) time_faults: u64,
    /// Fork timers that fired on an unresolved guess (§3.2).
    pub(crate) timeouts: u64,
    /// Control messages broadcast, one per broadcast whatever its
    /// recipients: only the cross-check against a recorded trace reads it.
    pub(crate) broadcasts: u64,
    /// Payload bytes of data messages sent.
    pub(crate) data_bytes: u64,
    /// Full state snapshots taken, fork copies included.
    pub(crate) checkpoints_taken: u64,
}

/// What a process still holds at the end of a run, per kind of record: what
/// retirement (DESIGN.md §5b, "Nothing settled stays") leaves behind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Held {
    /// Logical threads not yet retired (each with its core metadata).
    pub threads: u64,
    /// Interval checkpoints of those threads.
    pub checkpoints: u64,
    /// Consumed messages kept for a restore.
    pub consumed: u64,
    /// Own-guess records.
    pub own: u64,
    /// Guessed values awaiting their join.
    pub guesses: u64,
}

impl Held {
    pub fn merge(&mut self, o: &Held) {
        self.threads += o.threads;
        self.checkpoints += o.checkpoints;
        self.consumed += o.consumed;
        self.own += o.own;
        self.guesses += o.guesses;
    }
}

impl std::fmt::Display for Held {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "threads={} checkpoints={} consumed={} own={} guesses={}",
            self.threads, self.checkpoints, self.consumed, self.own, self.guesses
        )
    }
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
    /// The observable logs (and provenance) of retired threads, by thread
    /// index: committed, and all that is left of them.
    retired: BTreeMap<u32, (Vec<Observable>, Vec<ObsMeta>)>,
    /// Indices (ascending) of the threads a delivery, waiter, flush or
    /// completion scan can still concern: every thread except those that
    /// are `Done` with nothing buffered. A finished thread keeps its record
    /// in `threads` until no member of its guard is uncommitted, and is
    /// never scanned again.
    live: Vec<u32>,
    /// Indices (ascending) of the threads with external output buffered:
    /// the only ones a flush can release anything from.
    buffered: Vec<u32>,
    /// The threads a delivery can go to: those blocked at a receive
    /// (ascending), and those blocked on a call, by the call. Kept in step
    /// with `Thread::status` by [`Driver::set_status`] and
    /// [`Driver::reindex`].
    receivers: BTreeSet<u32>,
    callers: BTreeMap<CallId, u32>,
    /// Arrived, not yet consumed messages.
    pool: Pool,
    /// `Some(n)`: every pooled message passed the orphan check when the
    /// history's [`aborts_learned`](opcsp_core::History::aborts_learned)
    /// read `n`, so while it still does, a delivery need not repeat the
    /// check. `None`: some pooled message has not been checked since it
    /// was (re)pooled.
    pool_checked: Option<u64>,
    /// Guessed values per unresolved fork, for join verification.
    guesses: BTreeMap<GuessId, Vec<(String, Value)>>,
    /// Position in `policy.forced_order` (non-return receives currently
    /// consumed).
    forced_pos: usize,
    /// Protocol counters.
    stats: ProtoStats,
    /// What only the simulator reports.
    pub(crate) counts: SimCounts,
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
            retired: BTreeMap::new(),
            live: vec![0],
            buffered: Vec::new(),
            receivers: BTreeSet::new(),
            callers: BTreeMap::new(),
            pool: Pool::default(),
            pool_checked: Some(0),
            guesses: BTreeMap::new(),
            forced_pos: 0,
            stats: ProtoStats::default(),
            counts: SimCounts::default(),
        }
    }

    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// This process's protocol counters so far.
    pub fn stats(&self) -> ProtoStats {
        self.stats
    }

    /// Every thread's log and provenance, retired or not, in fork-index
    /// order.
    fn logs(&self) -> BTreeMap<u32, (&[Observable], &[ObsMeta])> {
        let retired = self
            .retired
            .iter()
            .map(|(t, (l, m))| (*t, (&l[..], &m[..])));
        let held = self
            .threads
            .iter()
            .map(|(t, th)| (*t, (&th.oblog[..], &th.obmeta[..])));
        retired.chain(held).collect()
    }

    /// The observable log: threads concatenated in fork-index order. At
    /// quiescence this is the committed log.
    pub fn log(&self) -> Vec<Observable> {
        let logs = self.logs().into_values();
        logs.flat_map(|(log, _)| log.iter().cloned()).collect()
    }

    /// Provenance per [`Driver::log`] entry (empty unless the policy
    /// records).
    pub fn provenance(&self) -> Vec<ObsMeta> {
        let logs = self.logs().into_values();
        logs.flat_map(|(_, meta)| meta.iter().cloned()).collect()
    }

    /// What this process holds now, per kind of record.
    pub fn held(&self) -> Held {
        let threads = self.threads.values();
        Held {
            threads: self.threads.len() as u64,
            checkpoints: threads.clone().map(|t| t.checkpoints.len() as u64).sum(),
            consumed: threads.map(|t| t.consumed.len() as u64).sum(),
            own: self.core.own.len() as u64,
            guesses: self.guesses.len() as u64,
        }
    }

    /// Senders of the data (non-return) messages still pooled, in
    /// message-id order.
    pub fn undelivered(&self) -> Vec<ProcessId> {
        let mut left: Vec<(MsgId, ProcessId)> = self
            .pool
            .data()
            .into_iter()
            .map(|(_, m)| (m.id, m.from))
            .collect();
        left.sort_unstable();
        left.into_iter().map(|(_, from)| from).collect()
    }

    /// Own guesses not yet committed or aborted.
    pub fn unresolved_guesses(&self) -> impl Iterator<Item = GuessId> + '_ {
        self.core
            .own
            .values()
            .filter(|o| !o.state.is_resolved())
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
    /// nothing buffered — and then tell the core, which retires it once its
    /// guard has emptied.
    fn retire_if_finished(&mut self, tid: u32) {
        match self.threads.get(&tid) {
            None => remove_sorted(&mut self.live, tid),
            Some(th) if th.finished() => {
                remove_sorted(&mut self.live, tid);
                self.core.finish(tid);
            }
            Some(_) => {}
        }
    }

    /// Drop what the commits, restores and finished threads since the last
    /// call have settled (DESIGN.md §5b, "Nothing settled stays"): the
    /// checkpoints and consumed messages below each woken thread's restore
    /// floor, and every thread the core retired, whose log moves to the
    /// committed logs. Runs at the end of every entry point, and costs the
    /// threads the core names.
    fn retire_settled(&mut self) {
        let Driver {
            core,
            threads,
            retired,
            ..
        } = self;
        core.retire_settled(|tid, floor| match floor {
            Some(floor) => {
                if let Some(th) = threads.get_mut(&tid) {
                    th.trim(floor);
                }
            }
            None => {
                let mut th = threads.remove(&tid).expect("retired thread exists");
                debug_assert!(th.finished(), "thread {tid} retired unfinished");
                // The log is final: it keeps no room to grow.
                th.oblog.shrink_to_fit();
                th.obmeta.shrink_to_fit();
                retired.insert(tid, (th.oblog, th.obmeta));
            }
        });
    }

    fn live_threads(&self) -> impl Iterator<Item = (u32, &Thread)> {
        self.live.iter().map(|tid| (*tid, &self.threads[tid]))
    }

    fn resume<E: Env>(&mut self, env: &mut E, tid: u32, after: After, resume: Resume) {
        self.set_status(tid, Status::Ready);
        env.resume(self.thread_id(tid), after, resume);
    }

    /// Every write of a thread's status goes through here (or, in `step`,
    /// through [`Driver::reindex`]), which keeps the receive and call
    /// indices in step.
    fn set_status(&mut self, tid: u32, status: Status) {
        let old = std::mem::replace(&mut self.th(tid).status, status);
        self.reindex(tid, old, status);
    }

    /// Move `tid` in the receive and call indices from `old` to `status`.
    fn reindex(&mut self, tid: u32, old: Status, status: Status) {
        match old {
            Status::BlockedRecv => {
                self.receivers.remove(&tid);
            }
            Status::BlockedCall(cid) => {
                self.callers.remove(&cid);
            }
            _ => {}
        }
        match status {
            Status::BlockedRecv => {
                self.receivers.insert(tid);
            }
            Status::BlockedCall(cid) => {
                self.callers.insert(cid, tid);
            }
            _ => {}
        }
    }

    /// Debug builds check the receive and call indices against a scan of
    /// the live threads wherever a delivery reads them.
    #[cfg(debug_assertions)]
    fn debug_check_waiting(&self) {
        let receivers = self
            .live_threads()
            .filter(|(_, t)| t.status == Status::BlockedRecv);
        assert!(
            receivers
                .map(|(tid, _)| tid)
                .eq(self.receivers.iter().copied()),
            "receive index out of step with the thread statuses"
        );
        let mut callers = 0;
        for (tid, t) in self.live_threads() {
            if let Status::BlockedCall(cid) = t.status {
                callers += 1;
                assert_eq!(
                    self.callers.get(&cid),
                    Some(&tid),
                    "{cid:?}'s caller not indexed"
                );
            }
        }
        assert_eq!(
            callers,
            self.callers.len(),
            "call index holds a thread not waiting"
        );
    }

    /// Emit `Resolved` telemetry for resolutions the core recorded since
    /// the last sync (cursor-idempotent; the driver calls it after every
    /// resolution-producing protocol step, engines once more when the run
    /// ends). With telemetry off and no record asked for, nothing reads
    /// the resolutions, and they go.
    pub fn sync_telemetry<E: Env>(&mut self, env: &mut E) {
        if env.telemetry().enabled() {
            let t = env.now();
            let sink = env.telemetry();
            sink.sync_resolutions(t, self.pid, &self.core.resolutions);
            sink.sync_policy_shifts(t, self.pid, self.core.policy_shifts());
        } else if !self.policy.record {
            self.core.resolutions.clear();
        }
    }

    /// Append to `tid`'s observable log. `msg` is the (id, link sequence
    /// number) of a sent or received message.
    fn observe<E: Env>(&mut self, env: &E, tid: u32, obs: Observable, msg: Option<(MsgId, u32)>) {
        let meta = self.policy.record.then(|| ObsMeta {
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
        let old = std::mem::replace(&mut th.status, Status::Ready);
        th.steps += 1;
        let effect = self.behavior.step(&mut th.state, resume);
        self.reindex(tid, old, Status::Ready);
        self.handle_effect(env, tid, effect);
        self.retire_settled();
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
                self.set_status(tid, Status::BlockedCall(cid));
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
                self.set_status(tid, Status::BlockedRecv);
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
                self.set_status(tid, Status::BlockedCall(cid));
                if self.core.can_fork(site) {
                    self.fork_right(env, tid, site, guesses, None);
                }
                self.try_deliver(env);
            }
            Effect::JoinLeft { actual } => self.handle_join(env, tid, actual),
            Effect::Done => {
                self.set_status(tid, Status::Done);
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
        self.counts.data_bytes += msg.wire_size() as u64;
        let from = self.thread_id(tid);
        env.trace(|t| TraceEvent::Send {
            t,
            msg: msg.id,
            from,
            to,
            label: msg.label.clone(),
            guard: msg.guard.clone(),
        });
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
    /// exist). A received control message is never forwarded.
    fn broadcast<E: Env>(&mut self, env: &mut E, ctrl: Control) {
        let from = self.pid;
        self.counts.broadcasts += 1;
        env.trace(|t| TraceEvent::ControlSent {
            t,
            from,
            ctrl: ctrl.clone(),
        });
        for &to in self.domain.iter().filter(|p| **p != from) {
            self.stats.control_messages += 1;
            env.send_control(from, to, ctrl.clone());
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
        self.counts.checkpoints_taken += 1; // the fork's state copy
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
            self.resume(env, tid, After::Step, resume);
        }
        self.resume(env, right, After::Step, Resume::ForkRight { guesses });
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
                if value_ok {
                    self.counts.time_faults += 1;
                } else {
                    self.counts.value_faults += 1;
                }
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
                self.set_status(tid, Status::AwaitingJoin);
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
        self.guesses.remove(&guess);
        tele(env, |t| TelemetryEvent::WaveStart { t, guess });
        self.sync_telemetry(env);
        self.broadcast(env, Control::Commit(guess));
        if let Some(left) = self.core.own.get(&guess).map(|o| o.left_thread) {
            if let Some(th) = self.threads.get_mut(&left) {
                th.fork_guess = None;
                self.set_status(left, Status::Done);
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
            if let Some(&w) = self.callers.get(&cid) {
                if let Some(doomed) = self.core.return_depends_on_future(w, &msg) {
                    let effects = self.core.on_abort(doomed);
                    let at = self.pid;
                    self.counts.time_faults += 1;
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
        self.retire_settled();
    }

    /// Match pooled messages to blocked threads until quiescent.
    fn try_deliver<E: Env>(&mut self, env: &mut E) {
        while let Some((tid, slot)) = self.pick_delivery() {
            let msg = self.pool.take(slot);
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

    /// Choose (thread, pooled message) for the next delivery, or None.
    ///
    /// Returns-first: call-blocked threads match their return exactly.
    /// Receive-blocked threads are served in thread-index order (the paper:
    /// deliver to "the earliest possible thread"), each choosing among the
    /// messages *available* to it — each sender's oldest pooled one, since
    /// links are FIFO — the one that introduces fewest new dependencies
    /// (§4.2.3), and never a message that depends on one of this process's
    /// future guesses relative to that thread.
    fn pick_delivery(&self) -> Option<(u32, Slot)> {
        if self.pool.is_empty() {
            return None;
        }
        let pick = self.pick_indexed();
        #[cfg(debug_assertions)]
        {
            self.debug_check_waiting();
            let indexed = pick.map(|(tid, slot)| (tid, self.pool.stamp(slot)));
            assert_eq!(
                indexed,
                self.pick_by_scan(),
                "indexed delivery choice differs from the scan"
            );
        }
        pick
    }

    fn pick_indexed(&self) -> Option<(u32, Slot)> {
        // The earliest call-blocked thread whose return is pooled (a call
        // has one waiter; a duplicate return is taken in pool order).
        let mut ret: Option<(u32, Slot)> = None;
        for (cid, slot) in self.pool.returns() {
            if let Some(&tid) = self.callers.get(&cid) {
                if ret.is_none_or(|(best, _)| tid < best) {
                    ret = Some((tid, slot));
                }
            }
        }
        if ret.is_some() || self.receivers.is_empty() {
            return ret;
        }
        let lifo = self.policy.fault == FaultInjection::LifoDelivery;
        let available = match lifo {
            true => self.pool.data(),
            false => self.pool.heads(),
        };
        for &tid in &self.receivers {
            let candidates = available.iter().copied();
            let candidates = Vec::from_iter(candidates.filter(|(_, m)| !self.withheld(tid, m)));
            if let Some(k) = self.choose(tid, &candidates) {
                return Some((tid, candidates[k].0));
            }
        }
        None
    }

    /// Withhold messages that depend on one of our own *live* future
    /// guesses: delivering one to `tid` would make that guess depend on
    /// itself (§4.2.3's x4/x5/x6 example). The liveness-based core check
    /// also catches stale-incarnation guesses surviving in the pool across
    /// an incarnation bump — an incarnation-equality filter here once let
    /// those through prematurely (pinned by
    /// `stale_incarnation_guess_still_withheld_from_earlier_thread` in
    /// opcsp-core).
    fn withheld(&self, tid: u32, m: &Envelope) -> bool {
        self.core.guard_depends_on_future(tid, &m.guard).is_some()
    }

    /// The policy's choice among the `candidates` of a receive by `tid`,
    /// in pool order; `None` if the thread takes none of them now.
    fn choose<T>(&self, tid: u32, candidates: &[(T, &Envelope)]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        // Forced order: serve the scheduled peer's oldest message, or hold
        // this thread until it arrives. Past the schedule's end the normal
        // policy applies.
        let wanted = self
            .policy
            .forced_order
            .as_ref()
            .and_then(|sched| sched.get(&self.pid))
            .and_then(|order| order.get(self.forced_pos));
        let indexed = candidates.iter().enumerate();
        if let Some(want) = wanted {
            let from_wanted = indexed.filter(|(_, (_, m))| m.from == *want);
            return from_wanted.min_by_key(|(_, (_, m))| m.id).map(|(k, _)| k);
        }
        if self.policy.fault == FaultInjection::LifoDelivery {
            return indexed.max_by_key(|(_, (_, m))| m.id).map(|(k, _)| k);
        }
        let envs = Vec::from_iter(candidates.iter().map(|(_, m)| *m));
        self.core.choose_delivery(tid, &envs)
    }

    /// [`Driver::pick_delivery`] by scanning every live thread and the
    /// whole pool, as the pool stamp of the message chosen: the reference
    /// the indices are checked against in debug builds.
    #[cfg(debug_assertions)]
    fn pick_by_scan(&self) -> Option<(u32, u64)> {
        let all = self.pool.all();
        for (tid, th) in self.live_threads() {
            if let Status::BlockedCall(cid) = th.status {
                let ret = DataKind::Return(cid);
                if let Some((stamp, ..)) = all.iter().find(|(_, _, m)| m.kind == ret) {
                    return Some((tid, *stamp));
                }
            }
        }
        let lifo = self.policy.fault == FaultInjection::LifoDelivery;
        let data = || all.iter().filter(|(_, _, m)| !m.kind.is_return());
        let oldest = |m: &Envelope| data().all(|(_, _, o)| o.from != m.from || o.id >= m.id);
        for (tid, th) in self.live_threads() {
            if th.status != Status::BlockedRecv {
                continue;
            }
            let available = data().filter(|(_, _, m)| lifo || oldest(m));
            let candidates = available.filter(|(_, _, m)| !self.withheld(tid, m));
            let candidates = Vec::from_iter(candidates.map(|(stamp, _, m)| (*stamp, *m)));
            if let Some(k) = self.choose(tid, &candidates) {
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
                consumed_len: th.consumed_from + th.consumed.len(),
                oblog_len: th.oblog.len(),
                out_buf_len: th.out_buf.len(),
                call_stack: th.call_stack.clone(),
                fork_guess: th.fork_guess,
            };
            th.checkpoints.push_back(chk);
            self.counts.checkpoints_taken += 1;
        }
        debug_assert_eq!(
            self.threads[&tid].first + self.threads[&tid].checkpoints.len() as u32,
            self.core.threads[&tid].interval + 1
        );
        let obs = Observable::Received {
            from: msg.from,
            kind: msg.kind.into(),
            payload: msg.payload.clone(),
        };
        self.observe(env, tid, obs, Some((msg.id, msg.link_seq)));
        let th = self.th(tid);
        th.consumed.push_back(msg.clone());
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

    /// A control message arrived.
    pub fn on_control<E: Env>(&mut self, env: &mut E, ctrl: Control) {
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
                    self.counts.time_faults += 1;
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
        self.retire_settled();
    }

    /// The fork timer of own guess `guess` expired (§3.2). Returns false if
    /// the guess had already resolved and nothing happened.
    pub fn on_timer<E: Env>(&mut self, env: &mut E, guess: GuessId) -> bool {
        let own = self.core.own.get(&guess);
        if own.is_none_or(|o| o.state.is_resolved()) {
            return false;
        }
        self.counts.timeouts += 1;
        env.trace(|t| TraceEvent::Timeout { t, guess });
        let eff = self.core.on_abort(guess);
        self.apply_abort_effects(env, eff, Some(guess));
        self.retire_settled();
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
            self.guesses.remove(&guess);
            self.broadcast(env, Control::Abort(guess));
        }
        // Discards: kill the thread, return consumed messages to the pool
        // (orphan filtering drops the newly-invalid ones at delivery time).
        for &tid in &effects.discard_threads {
            if !self.threads.contains_key(&tid) {
                continue;
            }
            self.set_status(tid, Status::Done);
            let th = self.threads.remove(&tid).expect("thread exists");
            self.retire_if_finished(tid);
            remove_sorted(&mut self.buffered, tid);
            self.stats.discarded_threads += 1;
            // A discard hands back everything the thread consumed, so
            // nothing of it may have been dropped.
            debug_assert!(
                th.first == 1 && th.consumed_from == 0,
                "thread {tid} discarded after its floor rose"
            );
            let intervals = th.first + th.checkpoints.len() as u32 - 1;
            let steps_lost = th.steps;
            self.repool(th.consumed.into());
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
        consumed.into_iter().for_each(|m| self.pool.push(m));
    }

    fn restore_thread<E: Env>(&mut self, env: &mut E, tid: u32, slot: u32, root: Option<GuessId>) {
        let Some(th) = self.threads.get_mut(&tid) else {
            return;
        };
        // The checkpoint and the messages consumed since must still be
        // held: the floor never passes a reachable restore point.
        debug_assert!(
            slot >= 1 && slot >= th.first && slot < th.first + th.checkpoints.len() as u32,
            "thread {tid} restored to {slot}, but holds {}..{}",
            th.first,
            th.first + th.checkpoints.len() as u32
        );
        let at = (slot - th.first) as usize;
        // Intervals popped and behavior steps un-executed by this restore,
        // for wasted-work attribution.
        let depth = (th.checkpoints.len() - at) as u32;
        th.checkpoints.truncate(at + 1);
        let chk = th.checkpoints.pop_back().expect("rollback slot exists");
        debug_assert!(chk.consumed_len >= th.consumed_from);
        let steps_lost = th.steps - chk.steps;
        th.state = chk.state;
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
        let consumed = th.consumed.split_off(chk.consumed_len - th.consumed_from);
        self.set_status(tid, chk.status);
        self.repool(consumed.into());
        self.mark_live(tid);
        self.stats.rollbacks += 1;
        // The thread is blocked at its checkpointed receive/call again.
        let thread = self.thread_id(tid);
        env.cancel_resumes(thread);
        env.trace(|t| TraceEvent::Rollback { t, thread, slot });
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
        self.pool_checked = Some(self.core.history.aborts_learned());
        let core = &mut self.core;
        let orphans = self.pool.extract(|msg| match core.classify_arrival(msg) {
            ArrivalVerdict::Orphan(g) => Some(g),
            ArrivalVerdict::Ok => None,
        });
        for (msg, g) in orphans {
            self.orphaned(env, msg.id, msg.label, g);
        }
    }

    /// Release buffered external outputs of threads whose guards emptied
    /// (§3.2: "When a computation commits, it releases its external
    /// messages"), and retire the threads that finished.
    fn flush_buffers<E: Env>(&mut self, env: &mut E) {
        let mut released = Vec::new();
        let mut finished = Vec::new();
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
                finished.push(*tid);
            }
            false
        });
        for tid in finished {
            core.finish(tid);
        }
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
