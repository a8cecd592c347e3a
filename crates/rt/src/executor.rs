//! Executors: how process actors get scheduled onto OS threads
//! (DESIGN.md §11).
//!
//! [`spawn_world`] is the one way a world gets hosted. It takes an
//! `n`-process world and the pid range this OS process runs ([`WorldSpec`]),
//! builds the whole address book — a local inbox for every pid in the
//! range, [`Mailbox::Remote`] for the rest — and runs the local actors under
//! [`RtConfig::executor`]. The in-proc runtime passes `0..n`; a socket
//! worker (`rt::sock`) passes its tile and the sender its frames leave by.
//! Transport and executor compose: neither knows which the other is.
//!
//! [`Executor::Threaded`] is the original shape — one OS thread per CSP
//! process, blocking on a dedicated inbox channel. Simple and honest about
//! parallelism, but a world caps out at a few hundred processes before
//! thread-spawn cost and scheduler pressure dominate.
//!
//! [`Executor::Sharded`] is an M:N pool: `workers` OS threads, each owning
//! the shard of local processes with `(pid - lo) % workers == worker`. A
//! worker drains its shard inbox in batches, demultiplexes the batch into
//! per-slot run queues, and runs each actor's queued items back-to-back
//! under one panic boundary.
//!
//! Neither executor keeps a clock of its own. An actor holds what it waits
//! for — frames in transit, fork timers, transport ticks — in its own
//! timer queue; the executor sleeps on the inbox until the earliest
//! `ProcessActor::next_due` it hosts, and lets an actor fire what is due
//! (`ProcessActor::fire_due`) only once its inbox is drained: an endpoint
//! too busy to read its inbox is too busy to tick.
//!
//! Both executors host the same [`ProcessActor`], answer the same
//! coordinator reports and contain a panic the same way ([`contain`]: the
//! unwind is caught on the thread that ran the actor and becomes
//! `Report::Panicked`), so the committed-log differential between them is
//! the correctness oracle for the sharded scheduler (see
//! `tests/rt_executor.rs`).

use crate::core_poll::{ActorSpec, ProcessActor, Report};
use crate::net::{recv_until, Frame, Mailbox, Wire};
use crate::runtime::{join_by, Hosts, RtConfig};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use opcsp_core::ProcessId;
use opcsp_sim::{control_domains, Behavior};
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;
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

/// Everything a host hands the executor: an `n`-process world
/// (`n = behaviors.len()`) of which this OS process runs the pids in
/// `local`. The in-proc runtime hosts `0..n`; a socket worker hosts its
/// tile (`rt::sock`).
pub(crate) struct WorldSpec {
    pub behaviors: Vec<Arc<dyn Behavior>>,
    pub is_client: Vec<bool>,
    pub cfg: Arc<RtConfig>,
    pub report: Sender<Report>,
    pub start: Instant,
    pub local: Range<usize>,
    /// First message/call id minted here. Ids must be unique across the
    /// world and hosts cannot share an atomic, so each mints from its own
    /// range.
    pub id_base: u64,
    /// Where frames for pids outside `local` go, with the instant each is
    /// due ([`Mailbox::Remote`]); `None` when `local` is the whole world.
    pub remote: Option<Sender<(Instant, Frame)>>,
}

/// One host's share of a world: the address book, and the parts every
/// local actor's [`ActorSpec`] is cut from.
struct Host {
    behaviors: Vec<Arc<dyn Behavior>>,
    /// Per pid, the control domain its driver broadcasts to. Computed from
    /// the whole world's behaviors, so every host of a socket world cuts
    /// the same partition.
    domains: Vec<Arc<[ProcessId]>>,
    is_client: Vec<bool>,
    cfg: Arc<RtConfig>,
    net: Arc<Vec<Mailbox>>,
    local: Range<usize>,
    report: Sender<Report>,
    start: Instant,
    msg_ids: Arc<AtomicU64>,
    call_ids: Arc<AtomicU64>,
}

impl WorldSpec {
    /// Build the whole world's address book — `inbox(pid)` for a local
    /// pid, the remote sender for the rest — and the host around it.
    fn into_host(self, inbox: impl Fn(usize) -> Mailbox) -> Host {
        let net = (0..self.behaviors.len())
            .map(|pid| {
                if self.local.contains(&pid) {
                    inbox(pid)
                } else {
                    let remote = self.remote.as_ref();
                    Mailbox::Remote(remote.expect("a non-local pid needs a remote").clone())
                }
            })
            .collect();
        Host {
            domains: control_domains(&self.behaviors),
            behaviors: self.behaviors,
            is_client: self.is_client,
            cfg: self.cfg,
            net: Arc::new(net),
            local: self.local,
            report: self.report,
            start: self.start,
            msg_ids: Arc::new(AtomicU64::new(self.id_base)),
            call_ids: Arc::new(AtomicU64::new(self.id_base)),
        }
    }
}

impl Host {
    fn actor_spec(&self, pid: usize) -> ActorSpec {
        ActorSpec {
            pid: ProcessId(pid as u32),
            behavior: self.behaviors[pid].clone(),
            domain: self.domains[pid].clone(),
            is_client: self.is_client[pid],
            cfg: self.cfg.clone(),
            net: self.net.clone(),
            report: self.report.clone(),
            start: self.start,
            msg_ids: self.msg_ids.clone(),
            call_ids: self.call_ids.clone(),
        }
    }

    fn running(&self, handles: Vec<JoinHandle<()>>) -> Running {
        Running {
            net: self.net.clone(),
            local: self.local.clone(),
            handles,
        }
    }
}

/// A spawned host: the world's address book plus the OS threads running
/// the local actors.
pub(crate) struct Running {
    net: Arc<Vec<Mailbox>>,
    local: Range<usize>,
    handles: Vec<JoinHandle<()>>,
}

impl Running {
    fn broadcast(&self, w: impl Fn() -> Wire) {
        for pid in self.local.clone() {
            // A dead actor's inbox is gone or discards; either is fine.
            let _ = self.net[pid].send(w());
        }
    }

    /// Hand a frame that arrived from another host to its addressee.
    /// `to` is outside input: anything not hosted here is dropped.
    pub fn deliver(&self, f: Frame) {
        let to = f.to.0 as usize;
        if self.local.contains(&to) {
            let _ = self.net[to].send(Wire::Frame(f));
        }
    }
}

impl Hosts for Running {
    fn probe(&self, round: u64) {
        self.broadcast(|| Wire::Probe(round));
    }

    fn shutdown(&self) {
        self.broadcast(|| Wire::Shutdown);
    }

    /// Teardown in dependency order: join the actors — their timers,
    /// held frames included, die with them — then drop the address book,
    /// which is what lets the pump behind a [`Mailbox::Remote`] see the end
    /// of the stream and write what it still holds. A wedged actor is
    /// detached and keeps its clone of the book alive.
    fn reap(self, deadline: Instant) {
        for h in self.handles {
            join_by(h, deadline);
        }
        drop(self.net);
    }
}

/// The one panic boundary around actor code: a panic inside `f` becomes
/// `Report::Panicked` for `pid` (and `None`), so the coordinator learns
/// of a death the same way under either executor and from any host.
fn contain<T>(report: &Sender<Report>, pid: ProcessId, f: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(done) => Some(done),
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            let _ = report.send(Report::Panicked { pid, msg });
            None
        }
    }
}

/// Spawn the local actors of `spec`'s world under the configured executor.
pub(crate) fn spawn_world(spec: WorldSpec) -> Running {
    match spec.cfg.executor {
        Executor::Threaded => spawn_threaded(spec),
        Executor::Sharded { workers } => spawn_sharded(spec, workers.max(1)),
    }
}

// ---------------------------------------------------------------------------
// Threaded: one OS thread per process
// ---------------------------------------------------------------------------

fn spawn_threaded(spec: WorldSpec) -> Running {
    let lo = spec.local.start;
    let (txs, rxs): (Vec<_>, Vec<_>) = spec.local.clone().map(|_| unbounded::<Wire>()).unzip();
    let host = spec.into_host(|pid| Mailbox::Direct(txs[pid - lo].clone()));
    let handles = rxs
        .into_iter()
        .zip(host.local.clone())
        .map(|(rx, pid)| {
            let aspec = host.actor_spec(pid);
            let report = host.report.clone();
            std::thread::Builder::new()
                .name(format!("opcsp-rt-{pid}"))
                .spawn(move || {
                    contain(&report, aspec.pid, || threaded_loop(aspec, rx));
                })
                .expect("spawn actor")
        })
        .collect();
    host.running(handles)
}

/// The thread-per-process actor loop: build the actor on the thread that
/// will own it, run it until `Shutdown` (or a dropped inbox), report. It
/// sleeps on the inbox until the actor's next due instant, drains what
/// came, then fires what is due.
fn threaded_loop(spec: ActorSpec, rx: Receiver<Wire>) {
    let mut actor = ProcessActor::new(spec);
    actor.start();
    'run: loop {
        match recv_until(&rx, actor.next_due()) {
            Ok(w) => {
                for w in std::iter::once(w).chain(rx.try_iter()) {
                    match w {
                        Wire::Shutdown => break 'run,
                        w => actor.on_wire(w),
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        actor.fire_due(Instant::now());
    }
    actor.finalize();
}

// ---------------------------------------------------------------------------
// Sharded: M:N worker pool
// ---------------------------------------------------------------------------

fn spawn_sharded(spec: WorldSpec, workers: usize) -> Running {
    let lo = spec.local.start;
    let workers = workers.min(spec.local.len().max(1));
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| unbounded::<(ProcessId, Wire)>())
        .unzip();
    // Shared, not per-worker: each actor is built from it inside the
    // owning worker (lazy construction — no O(N) coordinator-side spike).
    let host = Arc::new(spec.into_host(|pid| Mailbox::Shard {
        pid: ProcessId(pid as u32),
        tx: txs[(pid - lo) % workers].clone(),
    }));
    let handles = rxs
        .into_iter()
        .enumerate()
        .map(|(w, rx)| {
            let host = host.clone();
            std::thread::Builder::new()
                .name(format!("opcsp-shard-{w}"))
                .spawn(move || shard_loop(&host, w, workers, rx))
                .expect("spawn shard worker")
        })
        .collect();
    host.running(handles)
}

/// Each slot's next due instant, earliest first (cf. `Timers::index`).
struct Wakeups {
    index: BTreeSet<(Instant, usize)>,
    at: Vec<Option<Instant>>,
}

impl Wakeups {
    /// `slot` is next due at `next` (never, if `None`).
    fn set(&mut self, slot: usize, next: Option<Instant>) {
        let old = std::mem::replace(&mut self.at[slot], next);
        if old != next {
            if let Some(old) = old {
                self.index.remove(&(old, slot));
            }
            if let Some(next) = next {
                self.index.insert((next, slot));
            }
        }
    }

    /// Take a slot due by `now` out of the index.
    fn pop_due(&mut self, now: Instant) -> Option<usize> {
        let &(at, slot) = self.index.first()?;
        if at > now {
            return None;
        }
        self.set(slot, None);
        Some(slot)
    }
}

/// One worker: owns every local actor with `(pid - lo) % workers ==
/// worker`, mapped to slot `(pid - lo) / workers`.
fn shard_loop(host: &Host, worker: usize, workers: usize, rx: Receiver<(ProcessId, Wire)>) {
    let lo = host.local.start;
    let my_pids: Vec<usize> = (lo + worker..host.local.end).step_by(workers).collect();
    let slots = my_pids.len();
    let pid_of = |slot: usize| ProcessId(my_pids[slot] as u32);

    // Construct + start each actor inside the worker, one panic boundary
    // each: a poisoned behavior takes out its actor, not the shard.
    let mut actors: Vec<Option<ProcessActor>> = (0..slots)
        .map(|slot| {
            contain(&host.report, pid_of(slot), || {
                let mut a = ProcessActor::new(host.actor_spec(my_pids[slot]));
                a.start();
                a
            })
        })
        .collect();
    let mut finished = actors.iter().filter(|a| a.is_none()).count();
    let mut wakeups = Wakeups {
        index: BTreeSet::new(),
        at: vec![None; slots],
    };
    for (slot, actor) in actors.iter().enumerate() {
        wakeups.set(slot, actor.as_ref().and_then(ProcessActor::next_due));
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

    while finished < slots {
        match recv_until(&rx, wakeups.index.first().map(|(at, _)| *at)) {
            Ok(item) => {
                let mut enqueue = |(pid, w): (ProcessId, Wire)| {
                    let slot = (pid.0 as usize - lo) / workers;
                    if queues[slot].is_empty() {
                        run_queue.push(slot);
                    }
                    queues[slot].push_back(w);
                };
                enqueue(item);
                while let Ok(more) = rx.try_recv() {
                    enqueue(more);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        for slot in run_queue.drain(..) {
            let queue = &mut queues[slot];
            let Some(actor) = actors[slot].as_mut() else {
                queue.clear();
                continue;
            };
            let shut_down = contain(&host.report, pid_of(slot), || {
                while let Some(w) = queue.pop_front() {
                    match w {
                        Wire::Shutdown => return true,
                        w => actor.on_wire(w),
                    }
                }
                false
            });
            if shut_down == Some(false) {
                wakeups.set(slot, actor.next_due());
                continue;
            }
            // Shut down or dead. Items queued behind Shutdown are
            // discarded, exactly as the threaded loop ignores its inbox
            // after one.
            queue.clear();
            let actor = actors[slot].take().expect("checked above");
            if shut_down == Some(true) {
                contain(&host.report, pid_of(slot), || actor.finalize());
            }
            wakeups.set(slot, None);
            finished += 1;
        }

        // Then what is due, once every actor has read its inbox: the acks
        // a tick sends queue behind the round's data, so they cannot
        // reorder the next round (which keeps one worker deterministic).
        let now = Instant::now();
        while let Some(slot) = wakeups.pop_due(now) {
            let actor = actors[slot].as_mut().expect("a finished slot is never due");
            if contain(&host.report, pid_of(slot), || actor.fire_due(now)).is_some() {
                wakeups.set(slot, actor.next_due());
            } else {
                actors[slot] = None;
                finished += 1;
            }
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
