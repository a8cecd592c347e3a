//! The poll-able, resumable process core (DESIGN.md §11).
//!
//! [`ProcessActor`] is the per-process half of the runtime: a mailbox
//! around the protocol [`Driver`] (DESIGN.md §7). The driver owns the
//! protocol core, the paper's logical left/right threads, checkpointing
//! and rollback; the actor supplies its environment ([`RtEnv`]: the
//! reliable transport endpoint, its own [`TimerQueue`], the ready queue of
//! resumed threads, the telemetry sink) and the coordinator protocol
//! (quiescence probes, `ClientDone`, the final report). It never blocks:
//! every external stimulus arrives as one [`Wire`] item through
//! [`ProcessActor::on_wire`], and what the actor waits for on its own —
//! frames still in transit ([`Wire::At`]), fork timers, transport ticks —
//! sits in its timer queue until the executor calls
//! [`ProcessActor::fire_due`]. Each runs the ready queue to quiescence and
//! returns — except a fork's right thread, which waits for the actor's
//! **next instant** ([`ProcessActor::next_instant`]): the executor calls it
//! once the actor has read what is already in its inbox and every other
//! actor on the same OS thread has run the current round. Speculation so
//! cannot run ahead of the messages that would prove it wrong (DESIGN.md
//! §11.2). [`ProcessActor::next_due`] and `fire_due` are an executor's
//! whole interface to time, [`ProcessActor::deferred`] and `next_instant`
//! its interface to the instant. That makes a process a coroutine in all
//! but name, so an executor can host it however it likes. There is one
//! ([`crate::executor`]): a worker multiplexes the actors of its shard,
//! feeding each one batches drained from the shard's inbox and waking for
//! the earliest due instant in its shard; thread-per-process is a shard of
//! one actor per worker.
//!
//! Because an actor is owned by exactly one worker at a time and all of
//! its state transitions happen inside `start`, `on_wire`, `fire_due` and
//! `next_instant`, per-owner telemetry event order does not depend on how
//! many actors share a worker.

use crate::net::{Frame, Mailbox, Payload, TimerQueue, Transport, Wire};
use crate::runtime::{RtConfig, RtStats};
use crossbeam::channel::Sender;
use opcsp_core::{
    CallId, Control, Envelope, GuessId, MsgId, ProcessId, Telemetry, TelemetryEvent, ThreadId,
    Value,
};
use opcsp_sim::{After, Behavior, Driver, DriverPolicy, Env, Held, Observable, Resume, TraceEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Reports flowing from executors back to the coordinating `RtWorld::run`.
#[derive(Debug, PartialEq)]
pub(crate) enum Report {
    ClientDone(ProcessId),
    /// Answer to a `Wire::Probe`: the actor's transport counters at probe
    /// time — (messages originated, messages released, frames unacked plus
    /// right threads waiting for their instant).
    Quiet {
        pid: ProcessId,
        round: u64,
        sent: u64,
        delivered: u64,
        unacked: u64,
    },
    /// An actor panicked: the thread running it caught the unwind
    /// (`executor::contain`), dropped the actor, and — on a shard — carries
    /// on with the rest. Also what the socket hub turns the unreported pids
    /// of a lost worker into.
    Panicked {
        pid: ProcessId,
        msg: String,
    },
    Final(Box<FinalReport>),
}

#[derive(Debug, PartialEq)]
pub(crate) struct FinalReport {
    pub pid: ProcessId,
    pub stats: RtStats,
    pub log: Vec<Observable>,
    pub external: Vec<Value>,
    pub events: Vec<TelemetryEvent>,
    pub held: Held,
}

/// One CSP process as a poll-able core: feed it [`Wire`] items, it runs
/// its logical threads to quiescence — right threads it forks wait for its
/// next instant — and sends protocol traffic through its transport. Owned
/// by exactly one executor thread at any time.
pub(crate) struct ProcessActor {
    driver: Driver,
    env: RtEnv,
    report: Sender<Report>,
    done_reported: bool,
    is_client: bool,
    /// A [`Due::Tick`] is in the timer queue.
    tick_armed: bool,
}

/// What an actor waits for on its own clock: a frame's transit time, a
/// guess's fork timeout, transport maintenance (retransmits, idle acks).
enum Due {
    Frame(Frame),
    Fork(GuessId),
    Tick,
}

/// The runtime's side of the driver contract: real time, the reliable
/// transport, and a FIFO of resumed threads the actor drains.
struct RtEnv {
    cfg: Arc<RtConfig>,
    /// Reliable-delivery endpoint: all data/control traffic goes through
    /// it (and through the chaos layer underneath).
    transport: Transport,
    /// Everything this actor waits for, earliest first. It dies with the
    /// actor, so a pending fork timer can never fire during teardown.
    timers: TimerQueue<Due>,
    /// (thread, resume) work items to run in this activation, in FIFO
    /// order (preserves the program's send order across fork chains).
    ready: VecDeque<(u32, Resume)>,
    /// Right threads forked in this activation: they start in the actor's
    /// next instant ([`ProcessActor::next_instant`]), once the executor has
    /// fed it what is already in its inbox and stepped the actors that
    /// share its thread.
    next: VecDeque<(u32, Resume)>,
    external: Vec<Value>,
    /// Lifecycle event sink (`core::telemetry`); disabled unless
    /// [`RtConfig::telemetry`] is set.
    tele: Telemetry,
    /// Shared run epoch: telemetry timestamps are µs since this instant.
    start: Instant,
    msg_ids: Arc<AtomicU64>,
    call_ids: Arc<AtomicU64>,
}

impl Env for RtEnv {
    /// Microseconds since the shared run epoch — the telemetry timebase.
    fn now(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn next_msg_id(&mut self) -> MsgId {
        MsgId(self.msg_ids.fetch_add(1, Ordering::Relaxed))
    }

    fn next_call_id(&mut self) -> CallId {
        CallId(self.call_ids.fetch_add(1, Ordering::Relaxed))
    }

    /// The runtime's links are FIFO by construction (reliable sublayer);
    /// link sequence numbers only matter to the simulator's forensics.
    fn send_data(&mut self, msg: Envelope) -> u32 {
        self.transport.send(msg.to, Payload::Data(msg));
        0
    }

    fn send_control(&mut self, _from: ProcessId, to: ProcessId, ctrl: Control) {
        self.transport.send(to, Payload::Ctrl(ctrl));
    }

    /// A fork's right thread waits for the next instant; every other
    /// resume runs as soon as the ready queue reaches it (a `Compute` cost
    /// is virtual time, which only the simulator keeps).
    fn resume(&mut self, thread: ThreadId, _after: After, resume: Resume) {
        let queue = match resume {
            Resume::ForkRight { .. } => &mut self.next,
            _ => &mut self.ready,
        };
        queue.push_back((thread.index, resume));
    }

    fn cancel_resumes(&mut self, thread: ThreadId) {
        self.ready.retain(|(t, _)| *t != thread.index);
        self.next.retain(|(t, _)| *t != thread.index);
    }

    /// The timer waits in our own queue: no message crosses a thread.
    fn arm_fork_timer(&mut self, guess: GuessId) {
        let at = Instant::now() + self.cfg.fork_timeout;
        self.timers.push(at, Due::Fork(guess));
    }

    fn release_external(&mut self, _from: ProcessId, payload: Value) {
        self.external.push(payload);
    }

    fn telemetry(&mut self) -> &mut Telemetry {
        &mut self.tele
    }

    /// The runtime keeps no trace: the events are never built.
    fn trace(&mut self, _ev: impl FnOnce(u64) -> TraceEvent) {}
}

/// Everything an executor needs to build an actor; the actor itself is
/// constructed lazily *inside* the owning executor thread, so huge worlds
/// don't pay an O(N) construction spike on the coordinator.
pub(crate) struct ActorSpec {
    pub pid: ProcessId,
    pub behavior: Arc<dyn Behavior>,
    /// The process's control domain (`sim::control_domains`).
    pub domain: Arc<[ProcessId]>,
    pub is_client: bool,
    pub cfg: Arc<RtConfig>,
    pub net: Arc<Vec<Mailbox>>,
    pub report: Sender<Report>,
    pub start: Instant,
    pub msg_ids: Arc<AtomicU64>,
    pub call_ids: Arc<AtomicU64>,
}

impl ProcessActor {
    pub fn new(spec: ActorSpec) -> ProcessActor {
        let ActorSpec {
            pid,
            behavior,
            domain,
            is_client,
            cfg,
            net,
            report,
            start,
            msg_ids,
            call_ids,
        } = spec;
        let policy = DriverPolicy::default();
        ProcessActor {
            driver: Driver::new(pid, behavior, domain, cfg.core.clone(), policy),
            env: RtEnv {
                transport: Transport::open(pid, cfg.faults.clone(), cfg.latency, start, net),
                timers: TimerQueue::default(),
                ready: VecDeque::new(),
                next: VecDeque::new(),
                external: Vec::new(),
                tele: Telemetry::new(cfg.telemetry),
                start,
                msg_ids,
                call_ids,
                cfg,
            },
            report,
            done_reported: false,
            is_client,
            tick_armed: false,
        }
    }

    /// Kick off the program: run thread 0 from `Resume::Start` to its
    /// first blocking point.
    pub fn start(&mut self) {
        self.env.ready.push_back((0, Resume::Start));
        self.settle();
    }

    /// Handle one wire item and run to quiescence. A frame still in
    /// transit is only held, for [`Self::fire_due`] to release.
    /// `Wire::Shutdown` is the executor's business and must not reach here.
    pub fn on_wire(&mut self, w: Wire) {
        match w {
            Wire::Frame(f) => self.on_frame(f),
            Wire::At(at, f) => {
                self.env.timers.push(at, Due::Frame(f));
                return;
            }
            Wire::Probe(round) => {
                // Retransmit anything overdue and flush owed acks so
                // the drain converges quickly, then report.
                self.env.transport.tick(Instant::now());
                // A right thread still waiting for its instant is work in
                // hand: count it with the frames in flight, so the drain
                // cannot end before it has run.
                let (sent, delivered, unacked) = self.env.transport.quiet_probe();
                let _ = self.report.send(Report::Quiet {
                    pid: self.driver.pid(),
                    round,
                    sent,
                    delivered,
                    unacked: unacked + self.env.next.len() as u64,
                });
            }
            Wire::Shutdown => unreachable!("executors intercept Shutdown"),
        }
        self.settle();
    }

    /// The earliest instant this actor has something to do without any
    /// input: a held frame's arrival, a fork timeout or a transport tick.
    pub fn next_due(&self) -> Option<Instant> {
        self.env.timers.next_due()
    }

    /// Release every held frame and fire every timer due by `now`, in
    /// `(due, arrival)` order, running to quiescence after each.
    pub fn fire_due(&mut self, now: Instant) {
        while let Some(due) = self.env.timers.pop_due(now) {
            match due {
                Due::Frame(f) => self.on_frame(f),
                Due::Fork(g) => {
                    self.driver.on_timer(&mut self.env, g);
                }
                Due::Tick => {
                    self.tick_armed = false;
                    self.env.transport.tick(now);
                }
            }
            self.settle();
        }
    }

    /// A right thread forked earlier is waiting for [`Self::next_instant`].
    pub fn deferred(&self) -> bool {
        !self.env.next.is_empty()
    }

    /// The actor's next instant: run the right threads forked before it to
    /// quiescence. One they fork in turn waits for the instant after.
    pub fn next_instant(&mut self) {
        self.env.ready.append(&mut self.env.next);
        self.settle();
    }

    /// Emit the final report and consume the actor (on `Wire::Shutdown`).
    pub fn finalize(self) {
        let ProcessActor {
            mut driver,
            mut env,
            report,
            ..
        } = self;
        let pid = driver.pid();
        let mut stats = RtStats {
            proto: driver.stats(),
            ..RtStats::default()
        };
        stats.absorb_net(env.transport.stats);
        driver.sync_telemetry(&mut env);
        let _ = report.send(Report::Final(Box::new(FinalReport {
            pid,
            stats,
            log: driver.log(),
            external: env.external,
            events: env.tele.events,
            held: driver.held(),
        })));
    }

    fn on_frame(&mut self, f: Frame) {
        for p in self.env.transport.on_frame(f) {
            match p {
                Payload::Data(msg) => self.driver.on_data(&mut self.env, msg),
                Payload::Ctrl(ctrl) => self.driver.on_control(&mut self.env, ctrl),
            }
        }
    }

    /// Run every ready (thread, resume) item to quiescence (a right thread
    /// forked meanwhile waits in `next`), arm the next
    /// transport tick if the transport needs one and none is armed (an
    /// idle actor arms none), and report a finished client. Ticks fall on
    /// one grid, `tick_interval` apart from the run epoch, so a shard
    /// worker wakes once for all of its actors' ticks.
    fn settle(&mut self) {
        while let Some((tid, resume)) = self.env.ready.pop_front() {
            self.driver.step(&mut self.env, tid, resume);
        }
        if !self.tick_armed && self.env.transport.needs_tick() {
            self.tick_armed = true;
            let every = self.env.transport.tick_interval();
            let ticks = self.env.start.elapsed().as_nanos() / every.as_nanos() + 1;
            let at = self.env.start + every * ticks as u32;
            self.env.timers.push(at, Due::Tick);
        }
        self.maybe_report_done();
    }

    fn maybe_report_done(&mut self) {
        if !self.done_reported && self.is_client && self.driver.program_done() {
            self.done_reported = true;
            let _ = self.report.send(Report::ClientDone(self.driver.pid()));
        }
    }
}
