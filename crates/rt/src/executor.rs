//! Executors: how process actors get scheduled onto OS threads
//! (DESIGN.md §11).
//!
//! [`Executor::Threaded`] is the original shape — one OS thread per CSP
//! process, blocking on a dedicated inbox channel. Simple and honest about
//! parallelism, but a world caps out at a few hundred processes before
//! thread-spawn cost and scheduler pressure dominate.
//!
//! [`Executor::Sharded`] is an M:N pool: `workers` OS threads, each owning
//! the shard of processes with `pid % workers == worker`. A worker drains
//! its shard inbox in batches, demultiplexes the batch into per-slot run
//! queues, and runs each actor's queued items back-to-back under one
//! panic boundary. Transport maintenance (retransmits, idle acks) is
//! driven by the worker's own tick round over actors whose transport
//! reports [`Transport::needs_tick`] — per-actor delayer tick timers at
//! 10k+ processes would be a message storm.
//!
//! Both executors host the same [`ProcessActor`] and answer the same
//! coordinator reports, so the committed-log differential between them is
//! the correctness oracle for the sharded scheduler (see
//! `tests/rt_executor.rs`).

use crate::core_poll::{ActorSpec, ProcessActor, Report};
use crate::net::{Delayer, Mailbox, Wire};
use crate::runtime::RtConfig;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use opcsp_core::ProcessId;
use opcsp_sim::Behavior;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Which executor hosts the world's actors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// One OS thread per process (the original runtime shape).
    Threaded,
    /// M:N worker pool: `workers` OS threads each own the shard of
    /// processes with `pid % workers == worker`.
    Sharded { workers: usize },
}

impl Executor {
    /// Parse an executor spec: `threaded`, `sharded` (auto worker count),
    /// or `sharded:N`.
    pub fn parse(s: &str) -> Result<Executor, String> {
        match s {
            "threaded" => Ok(Executor::Threaded),
            "sharded" => Ok(Executor::Sharded {
                workers: default_workers(),
            }),
            other => {
                if let Some(n) = other.strip_prefix("sharded:") {
                    let workers: usize = n
                        .parse()
                        .map_err(|e| format!("executor spec `{other}`: {e}"))?;
                    if workers == 0 {
                        return Err("executor spec: worker count must be >= 1".into());
                    }
                    Ok(Executor::Sharded { workers })
                } else {
                    Err(format!(
                        "unknown executor `{other}` (expected threaded | sharded | sharded:N)"
                    ))
                }
            }
        }
    }

    /// The `OPCSP_RT_EXECUTOR` override, if set. Lets every existing
    /// suite run unmodified under the sharded executor (CI does exactly
    /// that). A malformed value panics: a silently-ignored typo would
    /// quietly test the wrong executor.
    pub fn from_env() -> Option<Executor> {
        let v = std::env::var("OPCSP_RT_EXECUTOR").ok()?;
        Some(Executor::parse(&v).unwrap_or_else(|e| panic!("OPCSP_RT_EXECUTOR: {e}")))
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// Everything `RtWorld::run` hands the executor.
pub(crate) struct WorldSpec {
    pub behaviors: Vec<Arc<dyn Behavior>>,
    pub is_client: Vec<bool>,
    pub cfg: Arc<RtConfig>,
    pub delayer: Arc<Delayer<Wire>>,
    pub report: Sender<Report>,
    pub start: Instant,
}

/// A spawned world: the address book plus the OS threads hosting it.
pub(crate) struct Running {
    pub net: Arc<Vec<Mailbox>>,
    pub mode: Mode,
}

pub(crate) enum Mode {
    Threaded(Vec<JoinHandle<()>>),
    Sharded(Vec<JoinHandle<()>>),
}

impl Running {
    /// Pids that can still answer a quiescence probe. The threaded
    /// executor knows this from thread liveness; the sharded executor
    /// from the coordinator's set of reported panics.
    pub fn live_pids(&self, dead: &std::collections::BTreeSet<ProcessId>) -> Vec<usize> {
        match &self.mode {
            Mode::Threaded(handles) => handles
                .iter()
                .enumerate()
                .filter(|(_, h)| !h.is_finished())
                .map(|(i, _)| i)
                .collect(),
            Mode::Sharded(_) => (0..self.net.len())
                .filter(|i| !dead.contains(&ProcessId(*i as u32)))
                .collect(),
        }
    }
}

/// Extract a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Spawn the world's actors under the configured executor.
pub(crate) fn spawn_world(spec: WorldSpec) -> Running {
    match spec.cfg.executor {
        Executor::Threaded => spawn_threaded(spec),
        Executor::Sharded { workers } => spawn_sharded(spec, workers.max(1)),
    }
}

/// The world-global pieces every [`ActorSpec`] shares: the mailbox
/// table and the run-wide message/call id counters.
struct WorldShared<'a> {
    spec: &'a WorldSpec,
    net: &'a Arc<Vec<Mailbox>>,
    msg_ids: &'a Arc<AtomicU64>,
    call_ids: &'a Arc<AtomicU64>,
}

impl WorldShared<'_> {
    fn actor_spec(
        &self,
        pid: ProcessId,
        behavior: Arc<dyn Behavior>,
        is_client: bool,
        self_ticks: bool,
    ) -> ActorSpec {
        ActorSpec {
            pid,
            behavior,
            is_client,
            cfg: self.spec.cfg.clone(),
            net: self.net.clone(),
            delayer: self.spec.delayer.clone(),
            report: self.spec.report.clone(),
            start: self.spec.start,
            msg_ids: self.msg_ids.clone(),
            call_ids: self.call_ids.clone(),
            self_ticks,
        }
    }
}

// ---------------------------------------------------------------------------
// Threaded: one OS thread per process
// ---------------------------------------------------------------------------

fn spawn_threaded(spec: WorldSpec) -> Running {
    let n = spec.behaviors.len();
    let msg_ids = Arc::new(AtomicU64::new(0));
    let call_ids = Arc::new(AtomicU64::new(0));
    let mut mailboxes = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded::<Wire>();
        mailboxes.push(Mailbox::Direct(tx));
        receivers.push(rx);
    }
    let net = Arc::new(mailboxes);
    let mut handles = Vec::with_capacity(n);
    for (i, rx) in receivers.into_iter().enumerate() {
        let pid = ProcessId(i as u32);
        let shared = WorldShared {
            spec: &spec,
            net: &net,
            msg_ids: &msg_ids,
            call_ids: &call_ids,
        };
        let aspec = shared.actor_spec(pid, spec.behaviors[i].clone(), spec.is_client[i], true);
        handles.push(
            std::thread::Builder::new()
                .name(format!("opcsp-rt-{i}"))
                .spawn(move || threaded_loop(aspec, rx))
                .expect("spawn actor"),
        );
    }
    Running {
        net,
        mode: Mode::Threaded(handles),
    }
}

/// The thread-per-process actor loop: build the actor on the thread that
/// will own it, run it until `Shutdown` (or a dropped inbox), report. Also
/// the loop of every actor a socket worker hosts (`rt::sock`).
pub(crate) fn threaded_loop(spec: ActorSpec, rx: Receiver<Wire>) {
    let mut actor = ProcessActor::new(spec);
    actor.start();
    loop {
        match rx.recv() {
            Ok(Wire::Shutdown) | Err(_) => break,
            Ok(w) => actor.on_wire(w),
        }
    }
    actor.finalize();
}

// ---------------------------------------------------------------------------
// Sharded: M:N worker pool
// ---------------------------------------------------------------------------

fn spawn_sharded(spec: WorldSpec, workers: usize) -> Running {
    let n = spec.behaviors.len();
    let workers = workers.min(n.max(1));
    let mut shard_txs = Vec::with_capacity(workers);
    let mut shard_rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = unbounded::<(ProcessId, Wire)>();
        shard_txs.push(tx);
        shard_rxs.push(rx);
    }
    let net: Arc<Vec<Mailbox>> = Arc::new(
        (0..n)
            .map(|i| Mailbox::Shard {
                pid: ProcessId(i as u32),
                tx: shard_txs[i % workers].clone(),
            })
            .collect(),
    );
    // Shared, not per-worker: behaviors are cloned per-pid inside the
    // owning worker (lazy construction — no O(N) coordinator-side spike).
    let behaviors = Arc::new(spec.behaviors);
    let is_client = Arc::new(spec.is_client);
    let msg_ids = Arc::new(AtomicU64::new(0));
    let call_ids = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(workers);
    for (w, rx) in shard_rxs.into_iter().enumerate() {
        let shard = ShardSpec {
            worker: w,
            workers,
            n,
            rx,
            behaviors: behaviors.clone(),
            is_client: is_client.clone(),
            cfg: spec.cfg.clone(),
            net: net.clone(),
            delayer: spec.delayer.clone(),
            report: spec.report.clone(),
            start: spec.start,
            msg_ids: msg_ids.clone(),
            call_ids: call_ids.clone(),
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("opcsp-shard-{w}"))
                .spawn(move || shard_loop(shard))
                .expect("spawn shard worker"),
        );
    }
    Running {
        net,
        mode: Mode::Sharded(handles),
    }
}

struct ShardSpec {
    worker: usize,
    workers: usize,
    n: usize,
    rx: Receiver<(ProcessId, Wire)>,
    behaviors: Arc<Vec<Arc<dyn Behavior>>>,
    is_client: Arc<Vec<bool>>,
    cfg: Arc<RtConfig>,
    net: Arc<Vec<Mailbox>>,
    delayer: Arc<Delayer<Wire>>,
    report: Sender<Report>,
    start: Instant,
    msg_ids: Arc<AtomicU64>,
    call_ids: Arc<AtomicU64>,
}

/// One worker: owns every actor with `pid % workers == worker`, mapped to
/// slot `pid / workers`.
fn shard_loop(s: ShardSpec) {
    let my_pids: Vec<u32> = (s.worker..s.n).step_by(s.workers).map(|p| p as u32).collect();
    let slots = my_pids.len();
    let mut actors: Vec<Option<ProcessActor>> = Vec::with_capacity(slots);
    let mut finished = 0usize;

    // Construct + start each actor inside the worker, one panic boundary
    // each: a poisoned behavior takes out its actor, not the shard.
    for &pid in &my_pids {
        let aspec = ActorSpec {
            pid: ProcessId(pid),
            behavior: s.behaviors[pid as usize].clone(),
            is_client: s.is_client[pid as usize],
            cfg: s.cfg.clone(),
            net: s.net.clone(),
            delayer: s.delayer.clone(),
            report: s.report.clone(),
            start: s.start,
            msg_ids: s.msg_ids.clone(),
            call_ids: s.call_ids.clone(),
            self_ticks: false,
        };
        match catch_unwind(AssertUnwindSafe(|| {
            let mut a = ProcessActor::new(aspec);
            a.start();
            a
        })) {
            Ok(a) => actors.push(Some(a)),
            Err(payload) => {
                let _ = s.report.send(Report::Panicked {
                    pid: ProcessId(pid),
                    msg: panic_message(payload.as_ref()),
                });
                actors.push(None);
                finished += 1;
            }
        }
    }

    // Per-slot run queues: a batch drained from the shard inbox is
    // demultiplexed here, then each actor runs its whole queue
    // back-to-back (one panic boundary per actor per round). Per-link
    // FIFO is preserved — a slot's queue is filled in inbox arrival
    // order — while a commit/abort wave spanning the shard is absorbed
    // in a single scheduling round instead of interleaving with every
    // other actor's traffic.
    let mut queues: Vec<VecDeque<Wire>> = (0..slots).map(|_| VecDeque::new()).collect();
    let mut run_queue: Vec<usize> = Vec::new();
    let tick_every = crate::net::tick_interval_for(s.cfg.latency);
    let mut tick_deadline = Instant::now() + tick_every;

    while finished < slots {
        let until_tick = tick_deadline.saturating_duration_since(Instant::now());
        match s.rx.recv_timeout(until_tick) {
            Ok(item) => {
                let mut enqueue = |(pid, w): (ProcessId, Wire)| {
                    let slot = pid.0 as usize / s.workers;
                    if queues[slot].is_empty() {
                        run_queue.push(slot);
                    }
                    queues[slot].push_back(w);
                };
                enqueue(item);
                while let Ok(more) = s.rx.try_recv() {
                    enqueue(more);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        for slot in run_queue.drain(..) {
            if actors[slot].is_none() {
                queues[slot].clear();
                continue;
            }
            let queue = &mut queues[slot];
            let actor = actors[slot].as_mut().unwrap();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                while let Some(w) = queue.pop_front() {
                    match w {
                        Wire::Shutdown => return true,
                        w => actor.on_wire(w),
                    }
                }
                false
            }));
            match ran {
                Ok(false) => {}
                Ok(true) => {
                    // Items queued behind Shutdown are discarded, exactly
                    // as the threaded loop ignores its inbox after one.
                    queues[slot].clear();
                    let a = actors[slot].take().unwrap();
                    let pid = ProcessId(my_pids[slot]);
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| a.finalize())) {
                        let _ = s.report.send(Report::Panicked {
                            pid,
                            msg: panic_message(payload.as_ref()),
                        });
                    }
                    finished += 1;
                }
                Err(payload) => {
                    let _ = s.report.send(Report::Panicked {
                        pid: ProcessId(my_pids[slot]),
                        msg: panic_message(payload.as_ref()),
                    });
                    actors[slot] = None;
                    queues[slot].clear();
                    finished += 1;
                }
            }
        }

        // Worker-driven transport maintenance: one sweep over the shard,
        // skipping idle transports (O(1) `needs_tick` per actor, one clock
        // read per sweep).
        let now = Instant::now();
        if now >= tick_deadline {
            for slot in 0..slots {
                let Some(actor) = actors[slot].as_mut() else {
                    continue;
                };
                if !actor.wants_tick() {
                    continue;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| actor.tick_round(now))) {
                    let _ = s.report.send(Report::Panicked {
                        pid: ProcessId(my_pids[slot]),
                        msg: panic_message(payload.as_ref()),
                    });
                    actors[slot] = None;
                    finished += 1;
                }
            }
            tick_deadline = now + tick_every;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_spec_parses() {
        assert_eq!(Executor::parse("threaded").unwrap(), Executor::Threaded);
        assert_eq!(
            Executor::parse("sharded:4").unwrap(),
            Executor::Sharded { workers: 4 }
        );
        assert!(matches!(
            Executor::parse("sharded").unwrap(),
            Executor::Sharded { workers } if workers >= 2
        ));
        assert!(Executor::parse("sharded:0").is_err());
        assert!(Executor::parse("sharded:x").is_err());
        assert!(Executor::parse("green-threads").is_err());
    }
}
