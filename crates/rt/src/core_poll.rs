//! The poll-able, resumable process core (DESIGN.md §11).
//!
//! [`ProcessActor`] is the per-process half of the runtime: the paper's
//! logical left/right threads ([`RtThread`]), the protocol core
//! ([`ProcessCore`]), the reliable transport endpoint, checkpointing,
//! rollback, and telemetry — everything *except* the event loop. It never
//! blocks: every external stimulus arrives as one [`Wire`] item through
//! [`ProcessActor::on_wire`], which runs the internal ready queue to
//! quiescence and returns. That makes a process a coroutine in all but
//! name, so an executor can host it however it likes:
//!
//! - the **threaded** executor gives each actor an OS thread that blocks
//!   on a dedicated inbox channel (the original runtime shape);
//! - the **sharded** executor multiplexes many actors over a fixed worker
//!   pool, feeding each one batches drained from a per-shard inbox
//!   ([`crate::executor`]).
//!
//! Because an actor is owned by exactly one executor thread at a time and
//! all of its state transitions happen inside `on_wire`, per-owner
//! telemetry event order is identical under both executors.

use crate::net::{Delayer, FlushClass, Mailbox, Payload, Transport, Wire};
use crate::runtime::{RtConfig, RtStats};
use crossbeam::channel::Sender;
use opcsp_core::{
    ArrivalVerdict, CallId, Control, DataKind, Envelope, GuessId, JoinDecision, MsgId,
    ProcessCore, ProcessId, Telemetry, TelemetryEvent, Value,
};
use opcsp_sim::{Behavior, BehaviorState, Effect, Observable, Resume};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Reports flowing from executors back to the coordinating `RtWorld::run`.
#[derive(Debug, PartialEq)]
pub(crate) enum Report {
    ClientDone(ProcessId),
    /// Answer to a `Wire::Probe`: the actor's transport counters at probe
    /// time — (messages originated, messages released, frames unacked).
    Quiet {
        pid: ProcessId,
        round: u64,
        sent: u64,
        delivered: u64,
        unacked: u64,
    },
    /// A sharded-executor actor panicked; the worker caught the unwind,
    /// removed the actor, and carries on with the rest of its shard. (The
    /// threaded executor reports panics through `JoinHandle::join`.)
    Panicked { pid: ProcessId, msg: String },
    Final(Box<FinalReport>),
}

#[derive(Debug, PartialEq)]
pub(crate) struct FinalReport {
    pub pid: ProcessId,
    pub stats: RtStats,
    pub log: Vec<Observable>,
    pub external: Vec<Value>,
    pub events: Vec<TelemetryEvent>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    BlockedRecv,
    BlockedCall(CallId),
    AwaitingJoin,
    Done,
}

#[derive(Clone)]
struct Checkpoint {
    state: BehaviorState,
    status: Status,
    consumed_len: usize,
    oblog_len: usize,
    out_buf_len: usize,
    call_stack: Vec<(ProcessId, CallId, opcsp_core::Label)>,
    fork_guess: Option<GuessId>,
    /// Behavior steps the thread had executed at this boundary, for
    /// wasted-work telemetry on rollback.
    steps_len: u64,
}

struct RtThread {
    state: BehaviorState,
    status: Status,
    checkpoints: Vec<Checkpoint>,
    consumed: Vec<(u32, Envelope)>,
    oblog: Vec<Observable>,
    out_buf: Vec<Value>,
    call_stack: Vec<(ProcessId, CallId, opcsp_core::Label)>,
    fork_guess: Option<GuessId>,
    /// Behavior steps executed by this thread (monotone except for
    /// rollback truncation).
    steps: u64,
}

impl RtThread {
    /// `Done` with nothing buffered: no delivery, flush or completion scan
    /// has anything left to do with this thread.
    fn finished(&self) -> bool {
        self.status == Status::Done && self.out_buf.is_empty()
    }

    fn new(state: BehaviorState) -> Self {
        let chk = Checkpoint {
            state: state.clone(),
            status: Status::Ready,
            consumed_len: 0,
            oblog_len: 0,
            out_buf_len: 0,
            call_stack: Vec::new(),
            fork_guess: None,
            steps_len: 0,
        };
        RtThread {
            state,
            status: Status::Ready,
            checkpoints: vec![chk],
            consumed: Vec::new(),
            oblog: Vec::new(),
            out_buf: Vec::new(),
            call_stack: Vec::new(),
            fork_guess: None,
            steps: 0,
        }
    }
}

/// One CSP process as a poll-able core: feed it [`Wire`] items, it runs
/// its logical threads to quiescence and sends protocol traffic through
/// its transport. Owned by exactly one executor thread at any time.
pub(crate) struct ProcessActor {
    pid: ProcessId,
    behavior: Arc<dyn Behavior>,
    cfg: Arc<RtConfig>,
    /// Reliable-delivery endpoint: all data/control traffic goes through
    /// it (and through the chaos layer underneath).
    transport: Transport,
    /// Our own inbox address, for self-addressed timers and ticks.
    self_mailbox: Mailbox,
    delayer: Arc<Delayer<Wire>>,
    report: Sender<Report>,
    core: ProcessCore,
    threads: BTreeMap<u32, RtThread>,
    /// Indices (ascending) of the threads a delivery, waiter, flush or
    /// completion scan can still concern: every thread except those that
    /// are `Done` with nothing buffered. Finished threads keep their record
    /// in `threads` (the final log is read from it) but are never scanned
    /// again.
    live: Vec<u32>,
    pool: Vec<Envelope>,
    /// (thread, resume) work items to run, in FIFO order (preserves the
    /// program's send order across fork chains).
    ready: VecDeque<(u32, Resume)>,
    stats: RtStats,
    guesses: BTreeMap<GuessId, Vec<(String, Value)>>,
    external: Vec<Value>,
    done_reported: bool,
    is_client: bool,
    /// Targeted dissemination dedup (kind, guess).
    relayed: std::collections::BTreeSet<(u8, GuessId)>,
    /// Lifecycle event sink (`core::telemetry`); disabled unless
    /// [`RtConfig::telemetry`] is set.
    tele: Telemetry,
    /// Shared run epoch: telemetry timestamps are µs since this instant.
    start: Instant,
    /// Whether this actor self-schedules its transport ticks through the
    /// delayer (threaded executor). The sharded executor drives ticks from
    /// the worker loop instead — 10k actors each bouncing a timer off the
    /// delayer every few ms would melt it.
    self_ticks: bool,
    msg_ids: Arc<AtomicU64>,
    call_ids: Arc<AtomicU64>,
}

/// Everything an executor needs to build an actor; the actor itself is
/// constructed lazily *inside* the owning executor thread, so huge worlds
/// don't pay an O(N) construction spike on the coordinator.
pub(crate) struct ActorSpec {
    pub pid: ProcessId,
    pub behavior: Arc<dyn Behavior>,
    pub is_client: bool,
    pub cfg: Arc<RtConfig>,
    pub net: Arc<Vec<Mailbox>>,
    pub delayer: Arc<Delayer<Wire>>,
    pub report: Sender<Report>,
    pub start: Instant,
    pub msg_ids: Arc<AtomicU64>,
    pub call_ids: Arc<AtomicU64>,
    pub self_ticks: bool,
}

impl ProcessActor {
    pub fn new(spec: ActorSpec) -> ProcessActor {
        let ActorSpec {
            pid,
            behavior,
            is_client,
            cfg,
            net,
            delayer,
            report,
            start,
            msg_ids,
            call_ids,
            self_ticks,
        } = spec;
        ProcessActor {
            pid,
            behavior,
            transport: Transport::new(
                pid,
                cfg.faults.clone(),
                cfg.latency,
                start,
                delayer.clone(),
                net.clone(),
            ),
            self_mailbox: net[pid.0 as usize].clone(),
            delayer,
            report,
            core: ProcessCore::new(pid, cfg.core.clone()),
            threads: BTreeMap::new(),
            live: Vec::new(),
            pool: Vec::new(),
            ready: VecDeque::new(),
            stats: RtStats::default(),
            guesses: BTreeMap::new(),
            external: Vec::new(),
            done_reported: false,
            is_client,
            relayed: std::collections::BTreeSet::new(),
            tele: Telemetry::new(cfg.telemetry),
            start,
            self_ticks,
            msg_ids,
            call_ids,
            cfg,
        }
    }

    /// Kick off the program: run thread 0 from `Resume::Start` to its
    /// first blocking point, and arm the transport tick (threaded mode).
    pub fn start(&mut self) {
        self.threads.insert(0, RtThread::new(self.behavior.init()));
        self.mark_live(0);
        self.ready.push_back((0, Resume::Start));
        self.pump();
        if self.self_ticks {
            self.schedule_tick();
        }
        self.maybe_report_done();
    }

    /// Handle one wire item and run to quiescence. `Wire::Shutdown` is the
    /// executor's business and must not reach here.
    pub fn on_wire(&mut self, w: Wire) {
        match w {
            Wire::Frame(f) => {
                for p in self.transport.on_frame(f) {
                    match p {
                        Payload::Data(env) => self.on_data(env),
                        Payload::Ctrl(ctrl) => self.on_ctrl(ctrl),
                    }
                }
            }
            Wire::Timer(g) => self.on_timer(g),
            Wire::Tick => {
                self.transport.tick();
                if self.self_ticks {
                    self.schedule_tick();
                }
            }
            Wire::Probe(round) => {
                // Retransmit anything overdue and flush owed acks so
                // the drain converges quickly, then report.
                self.transport.tick();
                let (sent, delivered, unacked) = self.transport.quiet_probe();
                let _ = self.report.send(Report::Quiet {
                    pid: self.pid,
                    round,
                    sent,
                    delivered,
                    unacked,
                });
            }
            Wire::Shutdown => unreachable!("executors intercept Shutdown"),
        }
        self.pump();
        self.maybe_report_done();
    }

    /// Sharded-executor tick round: run transport maintenance directly
    /// (no delayer round trip). Call only when [`Self::wants_tick`].
    pub fn tick_round(&mut self) {
        self.transport.tick();
    }

    pub fn wants_tick(&self) -> bool {
        self.transport.needs_tick()
    }

    /// Emit the final report and consume the actor (on `Wire::Shutdown`).
    pub fn finalize(mut self) {
        let log: Vec<Observable> = self
            .threads
            .values()
            .flat_map(|t| t.oblog.iter().cloned())
            .collect();
        self.stats.wire.merge(self.core.wire_stats());
        self.stats.interner.merge(self.core.interner_full_stats());
        self.stats.absorb_net(self.transport.stats);
        self.sync_tele();
        let _ = self.report.send(Report::Final(Box::new(FinalReport {
            pid: self.pid,
            stats: self.stats.clone(),
            log,
            external: std::mem::take(&mut self.external),
            events: std::mem::take(&mut self.tele.events),
        })));
    }

    /// Microseconds since the shared run epoch — the telemetry timebase.
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Emit `Resolved` telemetry for resolutions the core recorded since
    /// the last sync (cursor-idempotent, no-op when disabled).
    fn sync_tele(&mut self) {
        if self.tele.enabled() {
            let t = self.now_us();
            self.tele.sync_resolutions(t, self.pid, &self.core.resolutions);
            self.tele
                .sync_policy_shifts(t, self.pid, self.core.policy_shifts());
        }
    }

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

    fn live_threads(&self) -> impl Iterator<Item = (u32, &RtThread)> {
        self.live.iter().map(|tid| (*tid, &self.threads[tid]))
    }

    fn maybe_report_done(&mut self) {
        if self.done_reported || !self.is_client {
            return;
        }
        // Retired threads are `Done`; only the live ones can still be
        // running.
        let program_done = self
            .live_threads()
            .all(|(_, t)| matches!(t.status, Status::Done));
        if program_done && self.core.speculation_quiescent() {
            self.done_reported = true;
            let _ = self.report.send(Report::ClientDone(self.pid));
        }
    }

    /// Run every ready (thread, resume) item until quiescence.
    fn pump(&mut self) {
        while let Some((tid, resume)) = self.ready.pop_front() {
            let Some(th) = self.threads.get_mut(&tid) else {
                continue;
            };
            if th.status == Status::Done {
                continue;
            }
            th.status = Status::Ready;
            th.steps += 1;
            let behavior = self.behavior.clone();
            let effect = behavior.step(&mut th.state, resume);
            self.handle_effect(tid, effect);
        }
    }

    fn handle_effect(&mut self, tid: u32, effect: Effect) {
        match effect {
            Effect::Compute { cost } => {
                if !self.cfg.compute_unit.is_zero() && cost > 0 {
                    std::thread::sleep(self.cfg.compute_unit * cost as u32);
                }
                self.ready.push_back((tid, Resume::Continue));
            }
            Effect::Send { to, payload, label } => {
                self.send_data(tid, to, DataKind::Send, payload, label);
                self.ready.push_back((tid, Resume::Continue));
            }
            Effect::Call { to, payload, label } => {
                let cid = CallId(self.call_ids.fetch_add(1, Ordering::Relaxed));
                self.send_data(tid, to, DataKind::Call(cid), payload, label);
                self.threads.get_mut(&tid).unwrap().status = Status::BlockedCall(cid);
                self.try_deliver();
            }
            Effect::Reply { payload, label } => {
                let th = self.threads.get_mut(&tid).unwrap();
                let (to, cid, call_label) =
                    th.call_stack.pop().expect("Reply with no call in service");
                let label = if label.is_empty() {
                    opcsp_sim::reply_label(&call_label)
                } else {
                    label
                };
                self.send_data(tid, to, DataKind::Return(cid), payload, label);
                self.ready.push_back((tid, Resume::Continue));
            }
            Effect::Receive => {
                self.threads.get_mut(&tid).unwrap().status = Status::BlockedRecv;
                self.try_deliver();
            }
            Effect::External { payload } => {
                let guard_empty = self
                    .core
                    .threads
                    .get(&tid)
                    .map(|m| m.guard.is_empty())
                    .unwrap_or(true);
                let th = self.threads.get_mut(&tid).unwrap();
                th.oblog.push(Observable::Output {
                    payload: payload.clone(),
                });
                if guard_empty {
                    self.external.push(payload);
                } else {
                    th.out_buf.push(payload);
                }
                self.ready.push_back((tid, Resume::Continue));
            }
            Effect::CallThenFork {
                to,
                payload,
                label,
                site,
                guesses,
            } => {
                let cid = CallId(self.call_ids.fetch_add(1, Ordering::Relaxed));
                self.send_data(tid, to, DataKind::Call(cid), payload, label);
                let optimistic = self.cfg.optimism && self.core.can_fork(site);
                if optimistic {
                    let rec = self.core.fork(tid, site);
                    self.stats.forks += 1;
                    self.tele.record(TelemetryEvent::Fork {
                        t: self.start.elapsed().as_micros() as u64,
                        guess: rec.guess,
                        site,
                        left: tid,
                        right: rec.right_thread,
                    });
                    let left = self.threads.get_mut(&tid).unwrap();
                    left.fork_guess = Some(rec.guess);
                    left.status = Status::BlockedCall(cid);
                    let mut right = RtThread::new(left.state.clone());
                    right.call_stack = left.call_stack.clone();
                    right.checkpoints[0].call_stack = right.call_stack.clone();
                    self.threads.insert(rec.right_thread, right);
                    self.mark_live(rec.right_thread);
                    self.guesses.insert(rec.guess, guesses.clone());
                    self.ready
                        .push_back((rec.right_thread, Resume::ForkRight { guesses }));
                    self.schedule_fork_timer(rec.guess);
                } else {
                    self.threads.get_mut(&tid).unwrap().status = Status::BlockedCall(cid);
                }
                self.try_deliver();
            }
            Effect::Fork { site, guesses } => {
                let optimistic = self.cfg.optimism && self.core.can_fork(site);
                if !optimistic {
                    self.ready.push_back((tid, Resume::ForkDenied));
                    return;
                }
                let rec = self.core.fork(tid, site);
                self.stats.forks += 1;
                self.tele.record(TelemetryEvent::Fork {
                    t: self.start.elapsed().as_micros() as u64,
                    guess: rec.guess,
                    site,
                    left: tid,
                    right: rec.right_thread,
                });
                let left = self.threads.get_mut(&tid).unwrap();
                left.fork_guess = Some(rec.guess);
                let mut right = RtThread::new(left.state.clone());
                right.call_stack = left.call_stack.clone();
                right.checkpoints[0].call_stack = right.call_stack.clone();
                self.threads.insert(rec.right_thread, right);
                self.mark_live(rec.right_thread);
                self.guesses.insert(rec.guess, guesses.clone());
                self.ready.push_back((tid, Resume::ForkLeft));
                self.ready
                    .push_back((rec.right_thread, Resume::ForkRight { guesses }));
                // Timer comes back through our own inbox.
                self.schedule_fork_timer(rec.guess);
            }
            Effect::JoinLeft { actual } => self.handle_join(tid, actual),
            Effect::Done => {
                let th = self.threads.get_mut(&tid).unwrap();
                th.status = Status::Done;
                if let Some(meta) = self.core.threads.get_mut(&tid) {
                    if meta.guard.is_empty() {
                        meta.phase = opcsp_core::ThreadPhase::Done;
                    }
                }
                self.retire_if_finished(tid);
            }
        }
    }

    fn send_data(&mut self, tid: u32, to: ProcessId, kind: DataKind, payload: Value, label: String) {
        let tag = self.core.encode_for_send(tid, to);
        let env = Envelope {
            id: MsgId(self.msg_ids.fetch_add(1, Ordering::Relaxed)),
            from: self.pid,
            from_thread: tid,
            to,
            guard: tag.wire,
            table_acks: tag.acks,
            kind,
            payload: payload.clone(),
            label: label.into(),
            // The runtime's links are FIFO by construction (reliable
            // sublayer); link sequence numbers only matter to the
            // simulator's forensics, which replays draws by (link, seq)
            // address.
            link_seq: 0,
        };
        self.stats.data_messages += 1;
        self.stats.guard_bytes += env.guard.wire_size() as u64;
        if let opcsp_core::WireGuard::Compact { rows, .. } = &env.guard {
            self.stats.table_bytes += (rows.len() * opcsp_core::TableRow::WIRE_BYTES) as u64;
        }
        self.stats.table_bytes +=
            (env.table_acks.len() * opcsp_core::TableRow::WIRE_BYTES) as u64;
        self.core.note_send(&tag.full, to);
        let th = self.threads.get_mut(&tid).unwrap();
        th.oblog.push(Observable::Sent {
            to,
            kind: env.kind.into(),
            payload,
        });
        self.transport.send(to, Payload::Data(env));
    }

    /// Fork timers and transport ticks are self-addressed through the
    /// delayer and tagged [`FlushClass::DropOnFlush`]: a teardown flush
    /// must not fire a far-future fork timeout early (spurious aborts).
    fn schedule_fork_timer(&self, guess: GuessId) {
        self.delayer.send_after_class(
            self.cfg.fork_timeout,
            self.self_mailbox.clone(),
            Wire::Timer(guess),
            FlushClass::DropOnFlush,
        );
    }

    fn schedule_tick(&self) {
        self.delayer.send_after_class(
            self.transport.tick_interval(),
            self.self_mailbox.clone(),
            Wire::Tick,
            FlushClass::DropOnFlush,
        );
    }

    fn ctrl_kind(ctrl: &Control) -> u8 {
        match ctrl {
            Control::Commit(_) => 0,
            Control::Abort(_) => 1,
            Control::Precedence(..) => 2,
        }
    }

    /// Disseminate a control message: broadcast, or (with
    /// `targeted_control`) to recorded dependents plus — for PRECEDENCE —
    /// the guard members' owners; receivers relay onward (§4.2.5).
    fn broadcast(&mut self, ctrl: Control) {
        self.relayed
            .insert((Self::ctrl_kind(&ctrl), ctrl.subject()));
        let targets: Vec<usize> = if self.cfg.core.targeted_control {
            let mut t = self.core.dependents_of(ctrl.subject());
            if let Control::Precedence(_, guard) = &ctrl {
                for p in guard.member_processes() {
                    if p != self.pid {
                        t.insert(p);
                    }
                }
            }
            t.into_iter().map(|p| p.0 as usize).collect()
        } else {
            (0..self.transport.n_processes())
                .filter(|i| *i != self.pid.0 as usize)
                .collect()
        };
        for i in targets {
            self.stats.control_messages += 1;
            self.transport
                .send(ProcessId(i as u32), Payload::Ctrl(ctrl.clone()));
        }
    }

    /// Cooperative relay for targeted dissemination (once per message).
    fn relay_control(&mut self, ctrl: &Control) {
        if !self.cfg.core.targeted_control {
            return;
        }
        let key = (Self::ctrl_kind(ctrl), ctrl.subject());
        if !self.relayed.insert(key) {
            return;
        }
        let targets: Vec<usize> = self
            .core
            .dependents_of(ctrl.subject())
            .into_iter()
            .map(|p| p.0 as usize)
            .collect();
        for i in targets {
            self.stats.control_messages += 1;
            self.transport
                .send(ProcessId(i as u32), Payload::Ctrl(ctrl.clone()));
        }
    }

    // ------------------------------------------------------------------

    fn on_data(&mut self, mut env: Envelope) {
        // First classification ingests the wire tag (acks drained, rows
        // merged, compact guard decoded in place); the pooled
        // re-classification in `try_deliver`/`purge_pool` is a pure
        // re-check (pinned by `double_classification_of_pooled_envelope_
        // is_idempotent` in opcsp-core). An orphaned envelope is dropped
        // at the site that counts it, so `stats.orphans` sees each
        // envelope at most once per pooling.
        match self.core.classify_arrival(&mut env) {
            ArrivalVerdict::Orphan(g) => {
                self.stats.orphans += 1;
                self.record_orphan(env.id, g);
                return;
            }
            ArrivalVerdict::Ok => {}
        }
        if let DataKind::Return(cid) = env.kind {
            let waiter = self
                .live_threads()
                .find(|(_, t)| t.status == Status::BlockedCall(cid))
                .map(|(id, _)| id);
            if let Some(w) = waiter {
                if let Some(doomed) = self.core.return_depends_on_future(w, &env) {
                    let eff = self.core.on_abort(doomed);
                    self.apply_abort_effects(eff, Some(doomed));
                }
            }
        }
        self.pool.push(env);
        self.try_deliver();
    }

    fn record_orphan(&mut self, msg: MsgId, guess: GuessId) {
        if self.tele.enabled() {
            let t = self.now_us();
            self.tele.record(TelemetryEvent::Orphan {
                t,
                process: self.pid,
                msg,
                guess,
            });
        }
    }

    fn try_deliver(&mut self) {
        loop {
            let Some((tid, idx)) = self.pick_delivery() else {
                return;
            };
            let mut env = self.pool.remove(idx);
            if let ArrivalVerdict::Orphan(g) = self.core.classify_arrival(&mut env) {
                self.stats.orphans += 1;
                self.record_orphan(env.id, g);
                continue;
            }
            self.deliver_to(tid, env);
        }
    }

    fn pick_delivery(&mut self) -> Option<(u32, usize)> {
        if self.pool.is_empty() {
            return None;
        }
        for (tid, th) in self.live_threads() {
            if let Status::BlockedCall(cid) = th.status {
                if let Some(i) = self
                    .pool
                    .iter()
                    .position(|m| m.kind == DataKind::Return(cid))
                {
                    return Some((tid, i));
                }
            }
        }
        for (tid, th) in self.live_threads() {
            if th.status != Status::BlockedRecv {
                continue;
            }
            // Withhold messages that depend on one of our own *live*
            // future guesses (§4.2.3). The liveness-based core check
            // also catches stale-incarnation guesses surviving in the
            // pool across an incarnation bump — an incarnation-equality
            // filter here once let those through prematurely (pinned by
            // `stale_incarnation_guess_still_withheld_from_earlier_thread`
            // in opcsp-core).
            let candidates: Vec<(usize, &Envelope)> = self
                .pool
                .iter()
                .enumerate()
                .filter(|(_, m)| {
                    !m.kind.is_return()
                        && self.core.guard_depends_on_future(tid, m.guard()).is_none()
                })
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let envs: Vec<&Envelope> = candidates.iter().map(|(_, e)| *e).collect();
            if let Some(k) = self.core.choose_delivery(tid, &envs) {
                return Some((tid, candidates[k].0));
            }
        }
        None
    }

    fn deliver_to(&mut self, tid: u32, env: Envelope) {
        let new_deps = self.core.live_new_guard_count(tid, env.guard(), usize::MAX);
        let introduces = new_deps > 0;
        if introduces {
            let th = self.threads.get_mut(&tid).unwrap();
            th.checkpoints.push(Checkpoint {
                state: th.state.clone(),
                status: th.status,
                consumed_len: th.consumed.len(),
                oblog_len: th.oblog.len(),
                out_buf_len: th.out_buf.len(),
                call_stack: th.call_stack.clone(),
                fork_guess: th.fork_guess,
                steps_len: th.steps,
            });
        }
        if self.tele.enabled() {
            let t = self.now_us();
            self.tele.record(TelemetryEvent::Deliver {
                t,
                process: self.pid,
                thread: tid,
                msg: env.id,
                new_deps: new_deps as u32,
            });
        }
        let _ = self.core.deliver(tid, &env);
        let interval = self.core.threads[&tid].interval;
        let th = self.threads.get_mut(&tid).unwrap();
        th.consumed.push((interval, env.clone()));
        th.oblog.push(Observable::Received {
            from: env.from,
            kind: env.kind.into(),
            payload: env.payload.clone(),
        });
        if let DataKind::Call(cid) = env.kind {
            th.call_stack.push((env.from, cid, env.label.clone()));
        }
        // The resume is queued: the thread is no longer waiting, so a
        // second message released in the same transport batch must not be
        // delivered to it before `pump` runs. (The checkpoint above keeps
        // the *blocked* status, so rollback re-opens the receive.)
        th.status = Status::Ready;
        self.ready.push_back((tid, Resume::Msg(env)));
    }

    // ------------------------------------------------------------------

    fn handle_join(&mut self, tid: u32, actual: Vec<(String, Value)>) {
        let guess = self.threads[&tid].fork_guess;
        let Some(guess) = guess else {
            self.ready.push_back((tid, Resume::JoinSequential));
            return;
        };
        let expected = self.guesses.get(&guess).cloned().unwrap_or_default();
        let value_ok = expected
            .iter()
            .all(|(k, v)| actual.iter().any(|(ak, av)| ak == k && av == v));
        match self.core.join_left_done(guess, value_ok) {
            JoinDecision::Commit { committed } => {
                for g in committed {
                    self.local_commit(g);
                }
                self.flush_buffers();
            }
            JoinDecision::Abort { effects } => {
                let survives = !effects.rollback_threads.iter().any(|(t, _)| *t == tid)
                    && !effects.discard_threads.contains(&tid);
                let rerun = self.apply_abort_effects(effects, Some(guess));
                if survives && !rerun.contains(&guess) {
                    if let Some(th) = self.threads.get_mut(&tid) {
                        th.fork_guess = None;
                    }
                    self.ready.push_back((tid, Resume::JoinSequential));
                }
            }
            JoinDecision::Await {
                guess,
                precedence_guard,
            } => {
                self.threads.get_mut(&tid).unwrap().status = Status::AwaitingJoin;
                let wire = self.core.encode_control_guard(&precedence_guard);
                self.broadcast(Control::Precedence(guess, wire));
            }
            JoinDecision::AlreadyAborted { .. } => {
                if let Some(th) = self.threads.get_mut(&tid) {
                    th.fork_guess = None;
                }
                self.ready.push_back((tid, Resume::JoinSequential));
            }
        }
        self.sync_tele();
    }

    fn local_commit(&mut self, g: GuessId) {
        self.stats.commits += 1;
        if self.tele.enabled() {
            let t = self.now_us();
            self.tele.record(TelemetryEvent::WaveStart { t, guess: g });
        }
        self.sync_tele();
        self.broadcast(Control::Commit(g));
        if let Some(own) = self.core.own.get(&g) {
            let left = own.left_thread;
            if let Some(th) = self.threads.get_mut(&left) {
                th.status = Status::Done;
                th.fork_guess = None;
                self.retire_if_finished(left);
            }
        }
        self.flush_buffers();
    }

    fn on_ctrl(&mut self, ctrl: Control) {
        self.relay_control(&ctrl);
        match ctrl {
            Control::Commit(g) => {
                let eff = self.core.on_commit(g);
                if self.tele.enabled() {
                    let t = self.now_us();
                    self.tele.record(TelemetryEvent::WaveLanded {
                        t,
                        guess: g,
                        at: self.pid,
                    });
                }
                for own in eff.own_committed {
                    self.local_commit(own);
                }
                self.flush_buffers();
                self.try_deliver();
            }
            Control::Abort(g) => {
                let eff = self.core.on_abort(g);
                self.apply_abort_effects(eff, Some(g));
            }
            Control::Precedence(g, guard) => {
                let decoded = self.core.decode_control_guard(&guard);
                let eff = self.core.on_precedence(g, &decoded);
                let root = eff.own_aborted.first().copied();
                self.apply_abort_effects(eff, root);
            }
        }
        self.sync_tele();
    }

    fn on_timer(&mut self, guess: GuessId) {
        let unresolved = self
            .core
            .own
            .get(&guess)
            .map(|o| {
                matches!(
                    o.state,
                    opcsp_core::OwnGuessState::Pending
                        | opcsp_core::OwnGuessState::AwaitingResolution
                )
            })
            .unwrap_or(false);
        if !unresolved {
            return;
        }
        let eff = self.core.on_abort(guess);
        self.apply_abort_effects(eff, Some(guess));
    }

    fn apply_abort_effects(
        &mut self,
        effects: opcsp_core::AbortEffects,
        root: Option<GuessId>,
    ) -> Vec<GuessId> {
        // Wasted-step attribution: prefer the triggering guess the call
        // site named; a locally-detected cascade falls back to its first
        // own aborted guess.
        let root = root.or_else(|| effects.own_aborted.first().copied());
        for g in &effects.own_aborted {
            self.stats.aborts += 1;
            self.broadcast(Control::Abort(*g));
        }
        for tid in &effects.discard_threads {
            if let Some(mut th) = self.threads.remove(tid) {
                self.retire_if_finished(*tid);
                self.stats.discarded_threads += 1;
                if self.tele.enabled() {
                    let t = self.now_us();
                    self.tele.record(TelemetryEvent::Discard {
                        t,
                        process: self.pid,
                        thread: *tid,
                        intervals: (th.checkpoints.len() as u32).saturating_sub(1),
                        steps_lost: th.steps,
                        root,
                    });
                }
                for (_, env) in th.consumed.drain(..) {
                    self.pool.push(env);
                }
                // Drop any queued work for the dead thread.
                self.ready.retain(|(t, _)| t != tid);
            }
        }
        for (tid, slot) in &effects.rollback_threads {
            self.restore_thread(*tid, *slot, root);
        }
        let mut resumed = Vec::new();
        for g in &effects.rerun_sequential {
            let left = self.core.own.get(g).map(|o| o.left_thread);
            if let Some(left) = left {
                if let Some(th) = self.threads.get_mut(&left) {
                    th.fork_guess = None;
                    resumed.push(*g);
                    self.ready.push_back((left, Resume::JoinSequential));
                }
            }
        }
        self.purge_pool();
        self.try_deliver();
        // Restores can empty guards (resolved guesses are filtered out):
        // release any buffered external outputs that became safe.
        self.flush_buffers();
        self.sync_tele();
        resumed
    }

    fn restore_thread(&mut self, tid: u32, slot: u32, root: Option<GuessId>) {
        self.stats.rollbacks += 1;
        let Some(th) = self.threads.get_mut(&tid) else {
            return;
        };
        let slot = slot as usize;
        let chk = th.checkpoints[slot].clone();
        let depth = (th.checkpoints.len() - slot) as u32;
        let steps_lost = th.steps.saturating_sub(chk.steps_len);
        th.checkpoints.truncate(slot);
        th.state = chk.state;
        th.status = chk.status;
        th.call_stack = chk.call_stack;
        th.fork_guess = chk.fork_guess;
        th.oblog.truncate(chk.oblog_len);
        th.out_buf.truncate(chk.out_buf_len);
        th.steps = chk.steps_len;
        for (_, env) in th.consumed.split_off(chk.consumed_len) {
            self.pool.push(env);
        }
        self.mark_live(tid);
        // Cancel queued work for the rolled-back thread: it is blocked at
        // its checkpointed receive/call again.
        self.ready.retain(|(t, _)| *t != tid);
        if self.tele.enabled() {
            let t = self.now_us();
            self.tele.record(TelemetryEvent::Rollback {
                t,
                process: self.pid,
                thread: tid,
                depth,
                steps_lost,
                root,
            });
        }
    }

    fn purge_pool(&mut self) {
        let mut kept = Vec::with_capacity(self.pool.len());
        let mut orphans = Vec::new();
        for mut env in self.pool.drain(..) {
            match self.core.classify_arrival(&mut env) {
                ArrivalVerdict::Orphan(g) => {
                    self.stats.orphans += 1;
                    orphans.push((env.id, g));
                }
                ArrivalVerdict::Ok => kept.push(env),
            }
        }
        self.pool = kept;
        for (msg, g) in orphans {
            self.record_orphan(msg, g);
        }
    }

    fn flush_buffers(&mut self) {
        let ProcessActor {
            threads,
            live,
            core,
            external,
            ..
        } = self;
        live.retain(|tid| {
            let th = threads.get_mut(tid).expect("live threads exist");
            let guard_empty = core
                .threads
                .get(tid)
                .map(|m| m.guard.is_empty())
                .unwrap_or(false);
            if guard_empty {
                external.append(&mut th.out_buf);
            }
            !th.finished()
        });
        debug_assert!(
            threads
                .iter()
                .filter(|(_, th)| !th.finished())
                .map(|(tid, _)| tid)
                .eq(live.iter()),
            "live list out of step with thread statuses"
        );
    }
}
