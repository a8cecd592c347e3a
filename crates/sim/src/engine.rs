//! The discrete-event engine: a scheduler and a virtual network around
//! the per-process protocol [`Driver`](crate::driver::Driver).
//!
//! Every protocol decision — forks, guard propagation, checkpoints, join
//! verification, COMMIT/ABORT/PRECEDENCE dissemination, rollback, orphan
//! filtering, external-output buffering — is the driver's
//! (DESIGN.md §7). This module supplies the world it runs in, as the
//! driver's [`Env`]: an event heap ordered by virtual time, per-link
//! latency draws with a FIFO arrival clamp, a clock and a cancellation
//! epoch per logical thread, the [`Trace`] (kept only when the run was
//! asked to record, [`SimConfig::record`]), and the [`SimResult`] record.
//!
//! The same engine runs the *pessimistic* baseline
//! (`CoreConfig::pessimistic()`): every fork is denied, so programs
//! execute exactly in their sequential order — that execution's trace is
//! the reference for Theorem 1.

use crate::behavior::{control_domains, Behavior, Resume, Undeclared};
use crate::driver::{
    After, DeliverySchedule, Driver, DriverPolicy, Env, FaultInjection, Held, ObsMeta, Observable,
};
use crate::latency::{DrawKey, LatencyModel, LatencySampler};
use crate::trace::{SimStats, Trace, TraceEvent, VTime};
use opcsp_core::{
    CallId, Control, CoreConfig, Envelope, GuessId, GuessResolution, MsgId, ProcessId, Telemetry,
    ThreadId, Value,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub core: CoreConfig,
    /// Virtual-time budget for a left thread to finish S1 before its guess
    /// aborts (§3.2: "the timeout is set at fork ... guarantees that
    /// predicate x1 aborts in case S1 diverges").
    pub fork_timeout: VTime,
    pub latency: LatencyModel,
    /// Safety valve against runaway simulations.
    pub max_events: u64,
    /// Force the *first* `forced_order[p].len()` non-return deliveries at
    /// each process `p` to come from the named peers, holding other
    /// candidates until the wanted sender's oldest message is available;
    /// past the prefix the normal delivery policy applies. Rollback-aware:
    /// when a rollback or discard returns consumed messages to the pool,
    /// the per-process position rewinds, so the forced choices re-apply on
    /// re-delivery. A whole committed receive order replayed through a
    /// pessimistic run is the Theorem-1 oracle's vehicle (a divergent-
    /// looking optimistic run is legal iff its committed schedule replays
    /// to the same logs on the sequential engine); a prefix forced on an
    /// optimistic run is `sim::explore`'s steering wheel.
    pub forced_order: Option<Arc<DeliverySchedule>>,
    /// Deliberate misbehavior for oracle-teeth tests.
    pub fault: FaultInjection,
    /// Keep what only a reader of the whole run needs: every
    /// [`TraceEvent`] ([`SimResult::trace`]), the commit provenance of
    /// every committed observable ([`SimResult::provenance`]) and every
    /// guess resolution ([`SimResult::resolutions`]). Off, the run keeps
    /// none of them and builds no event; its logs, externals,
    /// [`SimStats`], telemetry and completion time are the same. Asked for
    /// by `--timeline` and `--forensics`, by `sim::explore` for the
    /// violation it reports, and by what renders or audits a trace.
    pub record: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            core: CoreConfig::default(),
            fork_timeout: 100_000,
            latency: LatencyModel::fixed(10),
            max_events: 5_000_000,
            forced_order: None,
            fault: FaultInjection::None,
            record: false,
        }
    }
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

    /// Forget what the behaviors declared ([`Behavior::peers`]): the world
    /// becomes one control domain and every control message goes to every
    /// process — the "world broadcast" row scoped dissemination is
    /// compared against (DESIGN.md §5).
    pub fn undeclared(mut self) -> Self {
        for b in &mut self.behaviors {
            *b = Arc::new(Undeclared(b.clone()));
        }
        self
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
    /// Counters of the whole run, counted by the drivers.
    pub stats: SimStats,
    /// Every event, in order; empty unless [`SimConfig::record`].
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
    /// Commit provenance per `logs` entry (same keys, same indices);
    /// empty unless [`SimConfig::record`].
    pub provenance: BTreeMap<ProcessId, Vec<ObsMeta>>,
    /// Every latency draw made, in sample order, keyed by (from, to, k) —
    /// the schedule shrinker's search space. Empty for non-jitter models.
    pub latency_draws: Vec<(DrawKey, u64)>,
    /// Per-process guess-resolution provenance (owners only); empty
    /// unless [`SimConfig::record`].
    pub resolutions: BTreeMap<ProcessId, Vec<GuessResolution>>,
    /// Senders of data (non-return) messages still pooled undelivered at
    /// quiescence, in arrival-id order. Normally empty; non-empty when a
    /// [`SimConfig::forced_order`] held candidates for a sender that never
    /// obliged — the explorer's infeasible-branch signal.
    pub undelivered: BTreeMap<ProcessId, Vec<ProcessId>>,
    /// Scripted latency overrides ([`LatencyModel::Scripted`]) whose
    /// [`DrawKey`] was never drawn this run: the script drifted from the
    /// workload and those entries tested nothing. Empty for other models.
    pub unused_overrides: Vec<DrawKey>,
    /// What each process still held at the end: the records retirement
    /// (DESIGN.md §5b, "Nothing settled stays") left behind.
    pub held: BTreeMap<ProcessId, Held>,
    /// Unified lifecycle event stream (`core::telemetry`): fork→resolution
    /// spans, rollback depth/wasted-step attribution, commit waves,
    /// deliveries and orphan drops. Always recorded by the simulator,
    /// recording or not; export with
    /// [`opcsp_core::Telemetry::to_perfetto_json`].
    pub telemetry: Telemetry,
}

impl SimResult {
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

#[derive(Debug, Clone)]
enum Event {
    Step {
        thread: ThreadId,
        epoch: u64,
        resume: Resume,
    },
    Deliver(Envelope),
    Ctrl {
        to: ProcessId,
        ctrl: Control,
    },
    Timer {
        guess: GuessId,
    },
}

/// When a logical thread runs: resumes are scheduled no earlier than
/// `clock`, and a `Step` event whose `epoch` is stale was cancelled by a
/// rollback or discard.
#[derive(Default)]
struct Sched {
    epoch: u64,
    clock: VTime,
}

/// The simulation world: the processes, and the scheduler + network they
/// run in.
pub struct World {
    procs: Vec<Driver>,
    net: Net,
}

/// Everything in the world except the processes — the simulator's [`Env`].
struct Net {
    cfg: SimConfig,
    now: VTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(VTime, u64, u64)>>,
    payloads: BTreeMap<u64, Event>,
    sched: BTreeMap<ThreadId, Sched>,
    latency: LatencySampler,
    trace: Trace,
    next_msg: u64,
    next_call: u64,
    external: Vec<(VTime, ProcessId, Value)>,
    /// Time of the last event that did real work (excludes no-op timer
    /// fires and stale step events), reported as the completion time.
    last_activity: VTime,
    /// Per-directed-link transmission counters (data and control), kept in
    /// lockstep with the jitter sampler's draw counters so a data
    /// message's `link_seq` is exactly its latency `DrawKey` index.
    link_seq: BTreeMap<(ProcessId, ProcessId), u32>,
    /// Latest scheduled *data* arrival per directed link: links are FIFO,
    /// a later transmission never overtakes an earlier one (real
    /// transports are order-preserving).
    link_heads: BTreeMap<(ProcessId, ProcessId), VTime>,
    /// Unified lifecycle event sink (`core::telemetry`).
    tele: Telemetry,
}

impl Net {
    fn schedule(&mut self, t: VTime, ev: Event) {
        let key = self.seq;
        self.seq += 1;
        self.payloads.insert(key, ev);
        self.queue.push(Reverse((t, key, key)));
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
}

impl Env for Net {
    fn now(&self) -> u64 {
        self.now
    }

    fn next_msg_id(&mut self) -> MsgId {
        self.next_msg += 1;
        MsgId(self.next_msg - 1)
    }

    fn next_call_id(&mut self) -> CallId {
        self.next_call += 1;
        CallId(self.next_call - 1)
    }

    fn send_data(&mut self, mut msg: Envelope) -> u32 {
        let link = (msg.from, msg.to);
        let (d, link_seq) = self.link_delay(link.0, link.1);
        msg.link_seq = link_seq;
        let mut at = self.now + d;
        if self.cfg.fault != FaultInjection::LifoDelivery {
            // FIFO clamp: a data message never overtakes the previous one
            // on the same directed link.
            let head = self.link_heads.entry(link).or_insert(0);
            at = at.max(*head);
            *head = at;
        }
        self.schedule(at, Event::Deliver(msg));
        link_seq
    }

    fn send_control(&mut self, from: ProcessId, to: ProcessId, ctrl: Control) {
        let (d, _) = self.link_delay(from, to);
        self.schedule(self.now + d, Event::Ctrl { to, ctrl });
    }

    fn resume(&mut self, thread: ThreadId, after: After, resume: Resume) {
        let cost = match after {
            After::Step => 1,
            After::Compute(cost) => cost,
            After::Now => 0,
        };
        let s = self.sched.entry(thread).or_default();
        s.clock = s.clock.max(self.now + cost);
        let (at, epoch) = (s.clock, s.epoch);
        self.schedule(
            at,
            Event::Step {
                thread,
                epoch,
                resume,
            },
        );
    }

    fn cancel_resumes(&mut self, thread: ThreadId) {
        let s = self.sched.entry(thread).or_default();
        s.epoch += 1;
        s.clock = s.clock.max(self.now);
    }

    fn arm_fork_timer(&mut self, guess: GuessId) {
        self.schedule(self.now + self.cfg.fork_timeout, Event::Timer { guess });
    }

    fn release_external(&mut self, from: ProcessId, payload: Value) {
        self.external.push((self.now, from, payload));
    }

    fn telemetry(&mut self) -> &mut Telemetry {
        &mut self.tele
    }

    fn trace(&mut self, ev: impl FnOnce(u64) -> TraceEvent) {
        if self.cfg.record {
            self.trace.push(ev(self.now));
        }
    }
}

impl World {
    fn new(cfg: SimConfig, behaviors: Vec<Arc<dyn Behavior>>) -> Self {
        let policy = DriverPolicy {
            forced_order: cfg.forced_order.clone(),
            fault: cfg.fault,
            record: cfg.record,
        };
        let mut net = Net {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            payloads: BTreeMap::new(),
            sched: BTreeMap::new(),
            latency: cfg.latency.sampler(),
            trace: Trace::default(),
            next_msg: 0,
            next_call: 0,
            external: Vec::new(),
            last_activity: 0,
            link_seq: BTreeMap::new(),
            link_heads: BTreeMap::new(),
            tele: Telemetry::new(true),
            cfg,
        };
        let procs: Vec<Driver> = control_domains(&behaviors)
            .into_iter()
            .zip(behaviors)
            .enumerate()
            .map(|(i, (domain, b))| {
                let pid = ProcessId(i as u32);
                Driver::new(pid, b, domain, net.cfg.core.clone(), policy.clone())
            })
            .collect();
        for p in &procs {
            let thread0 = ThreadId {
                process: p.pid(),
                index: 0,
            };
            net.resume(thread0, After::Now, Resume::Start);
        }
        World { procs, net }
    }

    /// Run to quiescence; returns the result record.
    pub fn run(mut self) -> SimResult {
        let mut events = 0u64;
        let mut truncated = false;
        while let Some(Reverse((t, key, _))) = self.net.queue.pop() {
            events += 1;
            if events > self.net.cfg.max_events {
                truncated = true;
                break;
            }
            let net = &mut self.net;
            net.now = t;
            let worked = match net.payloads.remove(&key).expect("event payload") {
                Event::Step {
                    thread,
                    epoch,
                    resume,
                } => {
                    // A stale epoch is an event from before a rollback or
                    // discard.
                    net.sched.get(&thread).is_some_and(|s| s.epoch == epoch)
                        && self.procs[thread.process.0 as usize].step(net, thread.index, resume)
                }
                Event::Deliver(msg) => {
                    self.procs[msg.to.0 as usize].on_data(net, msg);
                    true
                }
                Event::Ctrl { to, ctrl } => {
                    self.procs[to.0 as usize].on_control(net, ctrl);
                    true
                }
                Event::Timer { guess } => self.procs[guess.process.0 as usize].on_timer(net, guess),
            };
            if worked {
                self.net.last_activity = t;
            }
        }
        self.finish(truncated)
    }

    fn finish(self, truncated: bool) -> SimResult {
        let World { mut procs, mut net } = self;
        for p in &mut procs {
            // Catch any resolutions recorded since the last per-event sync.
            p.sync_telemetry(&mut net);
        }
        // The drivers count every fact themselves (that is all the runtime
        // has); a recorded trace derived the same facts from its events.
        let mut stats = SimStats::default();
        let mut broadcasts = 0;
        for p in &procs {
            let c = &p.counts;
            stats.proto.merge(&p.stats());
            broadcasts += c.broadcasts;
            stats.value_faults += c.value_faults;
            stats.time_faults += c.time_faults;
            stats.timeouts += c.timeouts;
            stats.data_bytes += c.data_bytes;
            stats.checkpoints_taken += c.checkpoints_taken;
        }
        if net.cfg.record {
            let traced = |s: &SimStats| {
                (
                    (s.forks, s.commits, s.aborts, s.rollbacks),
                    (s.discarded_threads, s.orphans),
                    (s.value_faults, s.time_faults, s.timeouts),
                )
            };
            debug_assert_eq!(
                traced(&net.trace.stats),
                traced(&stats),
                "trace-derived and driver-counted counters disagree"
            );
            // A recorded trace counts a broadcast once; the drivers count
            // its recipients, as rt does.
            debug_assert_eq!(net.trace.stats.control_messages, broadcasts);
        }

        let mut result = SimResult {
            completion: net.last_activity,
            stats,
            external: net.external,
            logs: BTreeMap::new(),
            unresolved: Vec::new(),
            truncated,
            provenance: BTreeMap::new(),
            latency_draws: net.latency.draws().to_vec(),
            resolutions: BTreeMap::new(),
            undelivered: BTreeMap::new(),
            unused_overrides: net.latency.unused_overrides(),
            held: BTreeMap::new(),
            trace: net.trace,
            telemetry: net.tele,
        };
        for p in &mut procs {
            let pid = p.pid();
            let undelivered = p.undelivered();
            if !undelivered.is_empty() {
                result.undelivered.insert(pid, undelivered);
            }
            result.logs.insert(pid, p.log());
            if net.cfg.record {
                result.provenance.insert(pid, p.provenance());
                if !p.core.resolutions.is_empty() {
                    let resolutions = std::mem::take(&mut p.core.resolutions);
                    result.resolutions.insert(pid, resolutions);
                }
            }
            result.held.insert(pid, p.held());
            result.unresolved.extend(p.unresolved_guesses());
        }
        result
    }
}
