//! Executors: how process actors get scheduled onto OS threads
//! (DESIGN.md §11).
//!
//! [`spawn_world`] is the one way a world gets hosted. It takes an
//! `n`-process world and the pid range this OS process runs ([`WorldSpec`]),
//! builds the whole address book — a shard inbox for every pid in the
//! range, [`Mailbox::Remote`] for the rest — and runs the local actors under
//! [`RtConfig::executor`]. The in-proc runtime passes `0..n`; a socket
//! worker (`rt::sock`) passes its tile and the sender its frames leave by.
//! Transport and executor compose: neither knows which the other is.
//!
//! There is one actor loop, [`shard_loop`]: a worker owns one contiguous
//! [`tile`] of the local pids, drains its shard inbox in batches,
//! demultiplexes the batch into per-slot run queues, and runs each actor's
//! queued items back-to-back under one panic boundary. Contiguous, because
//! neighbours talk: the pairs roster puts each client next to its server,
//! so a pair shares a worker and its frames never cross threads, and the
//! socket hub cuts a world into worker runtimes by the same rule.
//! The two executors differ only in how many workers there are:
//! [`Executor::Sharded`] is an M:N pool of `workers` OS threads, and
//! [`Executor::Threaded`] is one worker — one OS thread — per local
//! process, honest about parallelism but capped at a few hundred processes
//! before thread-spawn cost and scheduler pressure dominate.
//!
//! The loop keeps no clock of its own. An actor holds what it waits for —
//! frames in transit, fork timers, transport ticks — in its own timer
//! queue; a worker sleeps on its inbox until the earliest
//! `ProcessActor::next_due` it hosts, and lets an actor fire what is due
//! (`ProcessActor::fire_due`) only once its inbox is drained: an endpoint
//! too busy to read its inbox is too busy to tick.
//!
//! A round is the inbox, then what is due, then the **next instant** of
//! every actor with a right thread waiting (`ProcessActor::next_instant`),
//! in slot order. A right thread forked in that pass waits for the next
//! round, and while one waits the worker polls its inbox instead of
//! sleeping on it. So a fork's continuation never starts before the frames
//! already queued for its actor, nor before the other actors on its thread
//! have stepped: the current/next-instant swap of a synchronous-reactive
//! scheduler (DESIGN.md §11.2).
//!
//! A panic is contained per actor ([`contain`]: the unwind is caught on the
//! worker that ran the actor and becomes `Report::Panicked`), so one
//! poisoned behaviour takes out its actor, not its worker. The
//! committed-log differential between a pool and one thread per process
//! (`tests/rt_executor.rs`) checks that the shard count changes scheduling
//! only.

use crate::core_poll::{ActorSpec, ProcessActor, Report};
use crate::net::{recv_until, Frame, Mailbox, Wire};
use crate::runtime::{join_by, spawn_joinable, Hosts, Joinable, RtConfig};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use opcsp_core::ProcessId;
use opcsp_sim::{control_domains, Behavior};
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Which executor hosts the world's actors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// One OS thread per process: the worker pool with one worker per
    /// local process.
    Threaded,
    /// M:N worker pool: `workers` OS threads each own one contiguous
    /// [`tile`] of the local processes.
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
    /// Build the whole world's address book — a local pid's inbox is the
    /// shard of the worker whose [`tile`] of `local` holds it, the remote
    /// sender serves the rest — and the host around it.
    fn into_host(self, shards: &[Sender<(ProcessId, Wire)>]) -> Host {
        let remote = || {
            let remote = self.remote.as_ref();
            Mailbox::Remote(remote.expect("a non-local pid needs a remote").clone())
        };
        let local = tile_owners(shards.len(), self.local.clone()).map(|(pid, w)| Mailbox::Shard {
            pid: ProcessId(pid as u32),
            tx: shards[w].clone(),
        });
        let net = (0..self.local.start)
            .map(|_| remote())
            .chain(local)
            .chain((self.local.end..self.behaviors.len()).map(|_| remote()))
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

    fn running(&self, handles: Vec<Joinable>) -> Running {
        Running {
            net: self.net.clone(),
            local: self.local.clone(),
            handles,
        }
    }
}

/// A spawned host: the world's address book plus the workers running the
/// local actors.
pub(crate) struct Running {
    net: Arc<Vec<Mailbox>>,
    local: Range<usize>,
    handles: Vec<Joinable>,
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
/// of a death the same way from any worker and any host.
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

/// Spawn the local actors of `spec`'s world under the configured
/// executor. Both are the one shard loop: thread-per-process is a pool of
/// one worker per local process.
pub(crate) fn spawn_world(spec: WorldSpec) -> Running {
    let workers = match spec.cfg.executor {
        Executor::Threaded => spec.local.len(),
        Executor::Sharded { workers } => workers.max(1),
    };
    spawn_sharded(spec, workers)
}

/// Wait on `rx` until `due` — or not at all while right threads are
/// `deferred`: their instant comes as soon as the inbox has been read.
fn wait<T>(rx: &Receiver<T>, deferred: bool, due: Option<Instant>) -> Result<T, RecvTimeoutError> {
    if !deferred {
        return recv_until(rx, due);
    }
    rx.try_recv().map_err(|e| match e {
        TryRecvError::Empty => RecvTimeoutError::Timeout,
        TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
    })
}

/// The contiguous tile of `pids` that part `index` of `parts` owns. The
/// tiles of parts `0..parts` cover `pids` in order, each pid exactly once,
/// and differ in length by at most one; none is empty while `parts` is at
/// most `pids.len()`. The one placement rule of rt: which pids a socket
/// worker runtime hosts (`rt::sock` tiles `0..n`), and which of a host's
/// pids each of its shard workers runs.
pub(crate) fn tile(index: usize, parts: usize, pids: Range<usize>) -> Range<usize> {
    let n = pids.len();
    pids.start + index * n / parts..pids.start + (index + 1) * n / parts
}

/// Every pid of `pids` with the part whose [`tile`] holds it, in order.
pub(crate) fn tile_owners(
    parts: usize,
    pids: Range<usize>,
) -> impl Iterator<Item = (usize, usize)> {
    (0..parts).flat_map(move |w| tile(w, parts, pids.clone()).map(move |pid| (pid, w)))
}

/// The worker pool: `workers` OS threads (at most one per local process),
/// each running [`shard_loop`] over its tile of the local pids.
fn spawn_sharded(spec: WorldSpec, workers: usize) -> Running {
    let workers = workers.min(spec.local.len().max(1));
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| unbounded::<(ProcessId, Wire)>())
        .unzip();
    // Shared, not per-worker: each actor is built from it inside the
    // owning worker (lazy construction — no O(N) coordinator-side spike).
    let host = Arc::new(spec.into_host(&txs));
    let handles = rxs
        .into_iter()
        .enumerate()
        .map(|(w, rx)| {
            let host = host.clone();
            let pids = tile(w, workers, host.local.clone());
            spawn_joinable(format!("opcsp-shard-{w}"), move || {
                shard_loop(&host, pids, rx)
            })
        })
        .collect();
    host.running(handles)
}

/// What each slot waits for: its next due instant, earliest first (cf.
/// `Timers::index`), and whether a right thread waits for its next instant.
struct Wakeups {
    index: BTreeSet<(Instant, usize)>,
    at: Vec<Option<Instant>>,
    /// The slots whose next instant this round's pass runs, in slot order.
    deferred: BTreeSet<usize>,
}

impl Wakeups {
    /// Note what `slot`'s actor waits for after an activation.
    fn track(&mut self, slot: usize, actor: &ProcessActor) {
        self.set(slot, actor.next_due());
        if actor.deferred() {
            self.deferred.insert(slot);
        }
    }

    /// `slot`'s actor is gone: it waits for nothing.
    fn forget(&mut self, slot: usize) {
        self.set(slot, None);
        self.deferred.remove(&slot);
    }

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

/// One worker: owns the local actors with pids in `pids` (its [`tile`]),
/// the actor of pid `p` in slot `p - pids.start`.
fn shard_loop(host: &Host, pids: Range<usize>, rx: Receiver<(ProcessId, Wire)>) {
    let base = pids.start;
    let slots = pids.len();
    let pid_of = |slot: usize| ProcessId((base + slot) as u32);

    // Construct + start each actor inside the worker, one panic boundary
    // each: a poisoned behavior takes out its actor, not the shard.
    let mut actors: Vec<Option<ProcessActor>> = (0..slots)
        .map(|slot| {
            contain(&host.report, pid_of(slot), || {
                let mut a = ProcessActor::new(host.actor_spec(base + slot));
                a.start();
                a
            })
        })
        .collect();
    let mut finished = actors.iter().filter(|a| a.is_none()).count();
    let mut wakeups = Wakeups {
        index: BTreeSet::new(),
        at: vec![None; slots],
        deferred: BTreeSet::new(),
    };
    for (slot, actor) in actors.iter().enumerate() {
        if let Some(actor) = actor {
            wakeups.track(slot, actor);
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

    while finished < slots {
        let due = wakeups.index.first().map(|(at, _)| *at);
        match wait(&rx, !wakeups.deferred.is_empty(), due) {
            Ok(item) => {
                let mut enqueue = |(pid, w): (ProcessId, Wire)| {
                    let slot = pid.0 as usize - base;
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
                wakeups.track(slot, actor);
                continue;
            }
            // Shut down or dead: an actor reads nothing queued behind its
            // Shutdown.
            queue.clear();
            let actor = actors[slot].take().expect("checked above");
            if shut_down == Some(true) {
                contain(&host.report, pid_of(slot), || actor.finalize());
            }
            wakeups.forget(slot);
            finished += 1;
        }

        // Then what is due, once every actor has read its inbox: the acks
        // a tick sends queue behind the round's data, so they cannot
        // reorder the next round (which keeps one worker deterministic).
        let now = Instant::now();
        while let Some(slot) = wakeups.pop_due(now) {
            let actor = actors[slot].as_mut().expect("a finished slot is never due");
            if contain(&host.report, pid_of(slot), || actor.fire_due(now)).is_some() {
                wakeups.track(slot, actor);
            } else {
                actors[slot] = None;
                wakeups.forget(slot);
                finished += 1;
            }
        }

        // Last, the next instant of every slot with a right thread waiting;
        // one forked in this pass waits for the next round.
        for slot in std::mem::take(&mut wakeups.deferred) {
            let actor = actors[slot]
                .as_mut()
                .expect("a finished slot has no instant");
            if contain(&host.report, pid_of(slot), || actor.next_instant()).is_some() {
                wakeups.track(slot, actor);
            } else {
                actors[slot] = None;
                wakeups.forget(slot);
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

    /// The one placement rule, for a socket hub's worker runtimes (`0..n`)
    /// and for a host's shard workers (its own tile, `lo > 0` on every
    /// socket worker but the first).
    #[test]
    fn tiles_cover_the_pids_once_each_in_order() {
        let ranges = [
            0..1usize,
            0..2,
            0..3,
            0..7,
            0..10,
            0..256,
            0..1000,
            5..12,
            43..86,
        ];
        for pids in ranges {
            let n = pids.len();
            for parts in [1usize, 2, 3, 4, 7, n] {
                let label = format!("pids={pids:?} parts={parts}");
                let mut next = pids.start;
                for w in 0..parts {
                    let t = tile(w, parts, pids.clone());
                    assert_eq!(t.start, next, "{label} w={w}");
                    assert!(
                        t.len() == n / parts || t.len() == n / parts + 1,
                        "{label} w={w}"
                    );
                    next = t.end;
                }
                assert_eq!(next, pids.end, "{label}");
                // Every pid is owned exactly once, by the part whose tile
                // holds it, which the closed form names too.
                let owners: Vec<(usize, usize)> = tile_owners(parts, pids.clone()).collect();
                let owned: Vec<usize> = owners.iter().map(|&(pid, _)| pid).collect();
                assert_eq!(owned, pids.clone().collect::<Vec<_>>(), "{label}");
                for (pid, w) in owners {
                    assert!(
                        tile(w, parts, pids.clone()).contains(&pid),
                        "{label} pid={pid}"
                    );
                    let i = pid - pids.start;
                    assert_eq!(w, ((i + 1) * parts - 1) / n, "{label} pid={pid}");
                }
            }
            // One part is the identity; one part per pid is one pid each.
            assert_eq!(tile(0, 1, pids.clone()), pids);
            for (w, pid) in pids.clone().enumerate() {
                assert_eq!(tile(w, n, pids.clone()), pid..pid + 1);
            }
        }
        // Uneven, and the pairs world on 2 workers, where no pair
        // (2k, 2k + 1) straddles the cut.
        let tiles = |parts, pids: Range<usize>| -> Vec<Range<usize>> {
            (0..parts).map(|w| tile(w, parts, pids.clone())).collect()
        };
        assert_eq!(tiles(3, 0..10), [0..3, 3..6, 6..10]);
        assert_eq!(tiles(2, 0..256), [0..128, 128..256]);
        assert_eq!(tiles(2, 43..86), [43..64, 64..86]);
        // More parts than pids: empty tiles, still a cover.
        assert_eq!(tiles(3, 0..2), [0..0, 0..1, 1..2]);
    }
}
