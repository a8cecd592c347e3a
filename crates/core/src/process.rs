//! Per-process protocol state (§4.1–4.2): thread metadata, fork processing,
//! message arrival and delivery.
//!
//! `ProcessCore` is the engine-agnostic bookkeeping for one process. Engines
//! (the discrete-event simulator in `opcsp-sim`, the real-thread runtime in
//! `opcsp-rt`) own behavior execution, state checkpointing and message
//! transport; they call into `ProcessCore` for every protocol decision and
//! interpret the returned effects.
//!
//! Deviation from the paper noted for reviewers: the paper keeps a CDG per
//! thread, copied on fork (§4.1.4). The CDG is monotone *knowledge* (edges
//! only arrive via control messages, which are visible to the whole
//! process), so we keep a single per-process CDG; behavior is equivalent and
//! bookkeeping is simpler.
//!
//! Nothing settled stays (DESIGN.md §5b). A thread can only be sent back to
//! the rollback point of a guard member that has not committed (§4.1.3),
//! so what a restore needs is needed from the earliest such point on — the
//! thread's *restore floor* — and nothing below it is. The floor only ever
//! rises. Each thread is filed under one member whose commit can raise it
//! (`ProcessCore::pins`); that commit wakes the thread, and the engine
//! collects the woken threads with [`ProcessCore::retire_settled`] and
//! drops its checkpoints and consumed messages below their floors. A
//! thread the engine reported finished ([`ProcessCore::finish`]) is
//! retired once its guard empties: its metadata goes. An own guess's record
//! goes once it has resolved and the engine has acted on it; a later look-up
//! reads a missing record as resolved. The guard on entry to an interval is
//! not kept at all: a restore reads it off the rollback map. What the
//! oracles and forensics read — the commit history and
//! [`ProcessCore::resolutions`] — is kept whole; the engine's driver
//! empties the resolutions when neither its telemetry nor a recorded run
//! reads them.
//!
//! What the hot paths need is kept beside the records instead of being
//! rediscovered by scanning them: the set of own guesses awaiting
//! resolution (the commit cascade's only candidates), the count of own
//! guesses still pending (the completion check), and the threads whose
//! guard is non-empty (the only ones an abort can touch). The
//! delivery choice ([`ProcessCore::choose_delivery`]) likewise stops
//! counting a candidate's new dependencies as soon as it cannot beat the
//! best one seen.
//!
//! A guard is read *through the commit history* (§4.1.2, §4.1.5): a COMMIT
//! is a history write and visits no thread, so the guard a thread stores
//! may still list guesses that have committed since. Whoever reads it — a
//! send, a delivery, a fork, a join, an abort's scan — strips them first
//! ([`ProcessCore::settle`]); `&self` readers look through the history
//! without writing ([`History::uncommitted`], [`History::all_committed`]). Guards are runs of consecutive guesses
//! (`guard::Run`) and every question here is answered run by run.

use crate::cdg::Cdg;
use crate::guard::{Guard, Run, RunBuf, RunMap};
use crate::history::{Fate, History};
use crate::ids::{ForkIndex, GuessId, Incarnation, ProcessId, StateIndex};
use crate::message::{DataKind, Envelope};
use crate::speculation::{PolicyShift, SiteController, SpeculationPolicy, SpeculationState};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Tuning knobs for the protocol core (ablation switches live here).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// §4.2.3 delivery optimization: among deliverable messages choose the
    /// one introducing the fewest new dependencies. Off = FIFO. (E5.)
    pub deliver_min_deps: bool,
    /// §3.3 liveness policy: when may a fork site run optimistically?
    /// Replaces the old static `retry_limit: u32` — that constant survives
    /// as [`SpeculationPolicy::Static`]; see `core::speculation` for the
    /// adaptive per-site controller.
    pub speculation: SpeculationPolicy,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            deliver_min_deps: true,
            speculation: SpeculationPolicy::default(),
        }
    }
}

impl CoreConfig {
    /// Never fork: the sequential baseline as a first-class policy.
    pub fn pessimistic() -> Self {
        CoreConfig {
            speculation: SpeculationPolicy::Pessimistic,
            ..CoreConfig::default()
        }
    }

    /// The paper's static retry limit `L` (§3.3).
    pub fn static_limit(limit: u32) -> Self {
        CoreConfig {
            speculation: SpeculationPolicy::Static { limit },
            ..CoreConfig::default()
        }
    }

    /// Per-fork-site adaptive control with default tuning.
    pub fn adaptive() -> Self {
        CoreConfig {
            speculation: SpeculationPolicy::Adaptive,
            ..CoreConfig::default()
        }
    }

    /// Replace the speculation policy, builder-style.
    pub fn with_speculation(mut self, policy: SpeculationPolicy) -> Self {
        self.speculation = policy;
        self
    }
}

/// Why a thread exists / what it is doing, from the protocol's viewpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadPhase {
    /// Executing normally.
    Running,
    /// A left thread that finished S1 and is waiting for its guess to
    /// resolve (guard non-empty at termination → PRECEDENCE sent).
    AwaitingResolution,
    /// Terminated (committed its work or was aborted).
    Done,
}

/// Protocol metadata for one thread of the process (§4.1.1, §4.1.3).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadMeta {
    pub index: ForkIndex,
    /// Interval number, incremented when a message introduces a new
    /// dependency (§4.1.1).
    pub interval: u32,
    /// Commit guard set of this thread, as of its last read: guesses that
    /// have committed since may still be listed (never one that aborted).
    /// Read it through [`History::uncommitted`] / [`History::all_committed`].
    pub guard: Guard,
    /// [`History::commits`] when `guard` was last read through the history.
    read_at: u64,
    /// `Rollbacks[g]` (§4.1.3) for the guesses this thread acquired by its
    /// *own* deliveries: the state index at which it first became dependent
    /// upon `g`. Kept by run: a delivery records one entry per new run, and
    /// every member of it shares that point. Guard members a right thread
    /// was forked with have no entry — see [`ThreadMeta::rollback_point`].
    /// Entries only ever hold guard members.
    pub rollbacks: RunMap<StateIndex>,
    /// The runs the thread's own deliveries added, each with the interval
    /// it opened, oldest first: the entries of `rollbacks` in the order of
    /// their points. A run no entry holds any more is dropped from the
    /// front, so the front is the earliest own rollback point still
    /// reachable.
    pub(crate) acquired: VecDeque<(u32, Run)>,
    /// The member this thread is filed under in `ProcessCore::pins`.
    pub(crate) pin: Option<GuessId>,
    /// Some member the thread was forked with may still be uncommitted.
    inherited: bool,
    /// The engine reported that the thread ran to its end and holds
    /// nothing back ([`ProcessCore::finish`]): it retires once its guard
    /// empties.
    pub(crate) finished: bool,
    pub phase: ThreadPhase,
}

impl ThreadMeta {
    fn new(index: ForkIndex, guard: Guard) -> Self {
        ThreadMeta {
            index,
            interval: 0,
            guard,
            read_at: 0,
            rollbacks: RunMap::default(),
            acquired: VecDeque::new(),
            pin: None,
            inherited: false,
            finished: false,
            phase: ThreadPhase::Running,
        }
    }

    pub fn state_index(&self) -> StateIndex {
        StateIndex::new(self.index, self.interval)
    }

    /// Where this thread goes back to if guard member `g` aborts (`None`:
    /// it does not depend on `g`). A member with no entry of the thread's
    /// own was in the guard the thread was forked with — the fork's guess
    /// (§4.2.1: "s[x_n] is assigned the value (n, 0)") or one inherited
    /// from the left thread, whose recorded point names an earlier thread
    /// — and either way the answer is the same: discard the whole thread,
    /// spelled `(n, 0)`.
    pub fn rollback_point(&self, g: GuessId) -> Option<StateIndex> {
        self.guard.contains(g).then(|| {
            let own = self.rollbacks.get(g).map(|(_, at)| at);
            own.unwrap_or(StateIndex::new(self.index, 0))
        })
    }
}

/// Lifecycle of one of this process's own guesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnGuessState {
    /// Left thread still executing S1.
    Pending,
    /// Left thread finished S1 with a non-empty guard; PRECEDENCE sent;
    /// waiting on other guesses (§4.2.4 last case).
    AwaitingResolution,
    Committed,
    Aborted,
}

impl OwnGuessState {
    /// Committed or aborted.
    pub fn is_resolved(self) -> bool {
        matches!(self, OwnGuessState::Committed | OwnGuessState::Aborted)
    }
}

/// Record of a fork this process performed (§4.2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct OwnGuess {
    pub id: GuessId,
    /// The creating (left) thread, which executes S1 and verifies.
    pub left_thread: ForkIndex,
    /// The new (right) thread, which executes S2 under the guess.
    pub right_thread: ForkIndex,
    /// State index of the left thread at the moment of the fork; if the
    /// left thread rolls back to before this point, the fork is undone.
    pub forked_at: StateIndex,
    /// Program location of the fork, for the §3.3 speculation policy.
    pub site: u32,
    pub state: OwnGuessState,
}

/// Result of a fork request.
#[derive(Debug, Clone)]
pub struct ForkRecord {
    pub guess: GuessId,
    pub left_thread: ForkIndex,
    pub right_thread: ForkIndex,
    /// Guard set for the new right thread (left's guard ∪ {guess}).
    pub right_guard: Guard,
}

/// Verdict on an arriving data message (§4.2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalVerdict {
    /// The message depends on an aborted guess: discard it.
    Orphan(GuessId),
    /// Deliverable.
    Ok,
}

/// Effect of actually delivering a message to a thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryEffect {
    /// Guesses newly added to the thread's guard, as runs (`len()` counts
    /// the guesses).
    pub new_guards: Guard,
    /// If a new interval began, its number. The engine must have
    /// checkpointed the behavior state *before* applying the message.
    pub new_interval: Option<u32>,
}

/// Per-process protocol state.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessCore {
    pub id: ProcessId,
    pub config: CoreConfig,
    /// This process's own current incarnation (§4.1.2).
    pub incarnation: Incarnation,
    /// Largest thread index assigned so far (`MaxThread`, §4.1.1).
    pub max_thread: ForkIndex,
    pub history: History,
    pub cdg: Cdg,
    pub threads: BTreeMap<ForkIndex, ThreadMeta>,
    /// Own guesses, keyed by guess id (fork indices recur across
    /// incarnations).
    pub own: BTreeMap<GuessId, OwnGuess>,
    /// Own guesses in [`OwnGuessState::AwaitingResolution`] — the only
    /// candidates of the commit cascade — and those still
    /// [`OwnGuessState::Pending`] — the only forks an abort can undo.
    /// Maintained by `fork` and the resolution paths wherever they change
    /// an [`OwnGuess::state`].
    pub(crate) awaiting: BTreeSet<GuessId>,
    pub(crate) pending: BTreeSet<GuessId>,
    /// The commit cascade's watch index: every awaiting guess whose left
    /// guard still holds an uncommitted member is filed under one such
    /// member, as `(member, guess)`, and is looked at again only when that
    /// member commits; the rest are `ready`, which the cascade commits
    /// smallest first. An entry may be stale (its guess resolved since);
    /// it is skipped when woken. An awaiting guess whose left thread is
    /// gone is `leftless` until a fork reuses that thread index.
    pub(crate) watch: BTreeSet<(GuessId, GuessId)>,
    pub(crate) ready: BTreeSet<GuessId>,
    pub(crate) leftless: BTreeSet<GuessId>,
    /// Indices of the threads whose *stored* guard is non-empty — a
    /// superset of the threads with an uncommitted dependency, and the only
    /// ones an ABORT has anything to remove from. `fork`, `deliver` and
    /// `settle` keep it in step; an abort rebuilds it once its rollbacks
    /// and discards are done.
    pub(crate) holders: BTreeSet<ForkIndex>,
    /// Every thread with an uncommitted guard member is filed here under
    /// one such member whose commit can raise its restore floor, as
    /// `(member, thread)` — or is in `woken`. The commit moves it to
    /// `woken`.
    pub(crate) pins: BTreeSet<(GuessId, ForkIndex)>,
    /// Threads whose floor may have risen, or that may be ready to retire,
    /// since [`ProcessCore::retire_settled`] last ran.
    pub(crate) woken: Vec<ForkIndex>,
    /// Own guesses resolved since then: their records go at the next
    /// [`ProcessCore::retire_settled`], once the engine has acted on them.
    resolved: Vec<GuessId>,
    /// The highest index of a retired thread: a fork never reuses it.
    retired_hi: ForkIndex,
    /// Per-fork-site speculation controllers (§3.3 policy state: retry
    /// counts, success EWMA, effective budgets, decision log).
    speculation: SpeculationState,
    /// Resolution provenance for this process's own guesses, in resolution
    /// order: why each guess committed or aborted (§4.2.4–4.2.8 paths).
    /// Forensics reads this to name the guess (and fault class) behind a
    /// divergence.
    pub resolutions: Vec<GuessResolution>,
}

/// Why one of this process's own guesses resolved the way it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolutionCause {
    /// Guessed values disagreed with S1's actuals (§2, Figure 5).
    ValueFault,
    /// The guess appeared in its own left thread's final guard — a local
    /// time fault (Figure 4).
    SelfCycle,
    /// Left thread finished S1 with an empty guard (§3.2): commit.
    EmptyGuard,
    /// The guard emptied later, when remote COMMITs drained it: commit.
    CascadeCommit,
    /// A CDG cycle doomed the guess — a distributed time fault (§4.2.5).
    PrecedenceCycle,
    /// Aborted as a cascade dependent of `root`'s abort (§4.2.7).
    DependencyAbort { root: GuessId },
    /// Direct abort: a remote `ABORT` control message, or the engine's
    /// fork timeout (§3.2).
    Explicit,
}

/// One entry of [`ProcessCore::resolutions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuessResolution {
    pub guess: GuessId,
    pub committed: bool,
    pub cause: ResolutionCause,
}

impl ProcessCore {
    pub fn new(id: ProcessId, config: CoreConfig) -> Self {
        let mut threads = BTreeMap::new();
        threads.insert(0, ThreadMeta::new(0, Guard::empty()));
        ProcessCore {
            id,
            config,
            incarnation: Incarnation(0),
            max_thread: 0,
            history: History::new(),
            cdg: Cdg::new(),
            threads,
            own: BTreeMap::new(),
            awaiting: BTreeSet::new(),
            pending: BTreeSet::new(),
            watch: BTreeSet::new(),
            ready: BTreeSet::new(),
            leftless: BTreeSet::new(),
            holders: BTreeSet::new(),
            pins: BTreeSet::new(),
            woken: Vec::new(),
            resolved: Vec::new(),
            retired_hi: 0,
            speculation: SpeculationState::default(),
            resolutions: Vec::new(),
        }
    }

    pub fn thread(&self, t: ForkIndex) -> &ThreadMeta {
        &self.threads[&t]
    }

    pub fn thread_mut(&mut self, t: ForkIndex) -> &mut ThreadMeta {
        self.threads.get_mut(&t).expect("thread exists")
    }

    pub fn live_threads(&self) -> impl Iterator<Item = &ThreadMeta> {
        self.threads
            .values()
            .filter(|t| t.phase != ThreadPhase::Done)
    }

    /// The threads whose stored guard is non-empty, in index order: every
    /// thread with an uncommitted dependency, and possibly some whose last
    /// dependencies committed since their guard was read.
    pub fn holders(&self) -> impl Iterator<Item = &ThreadMeta> {
        self.debug_check_holders();
        self.holders.iter().map(|t| &self.threads[t])
    }

    /// The holder index by full scan.
    fn scan_holders(&self) -> impl Iterator<Item = ForkIndex> + '_ {
        let holding = self.threads.values().filter(|t| !t.guard.is_empty());
        holding.map(|t| t.index)
    }

    /// Recompute the holder index from the guards (the end of an abort,
    /// which removes threads and restores guards wholesale).
    pub(crate) fn rebuild_holders(&mut self) {
        self.holders = self.scan_holders().collect();
    }

    /// Debug builds check the holder index against a full scan wherever it
    /// is read.
    pub(crate) fn debug_check_holders(&self) {
        debug_assert!(
            self.scan_holders().eq(self.holders.iter().copied()),
            "holder index out of step with the thread guards"
        );
        debug_assert!(
            self.threads.values().all(|t| t
                .rollbacks
                .iter()
                .all(|(run, _)| run.iter().all(|g| t.guard.contains(g)))),
            "a rollback point outlived its guard member"
        );
        debug_assert!(
            self.threads.values().all(|t| {
                let runs = || t.rollbacks.iter().map(|(run, _)| run);
                runs().zip(runs().skip(1)).all(|(a, b)| {
                    (a.process, a.incarnation, a.hi) < (b.process, b.incarnation, b.lo)
                })
            }),
            "two rollback entries hold the same guess"
        );
    }

    /// §3.3 fork gate: may this site run optimistically right now, under
    /// the configured [`SpeculationPolicy`]? `&mut` because the adaptive
    /// controller counts denied attempts toward a cooling-off site's
    /// probe.
    pub fn can_fork(&mut self, site: u32) -> bool {
        let policy = self.config.speculation;
        self.speculation.can_fork(&policy, site)
    }

    pub fn retries_at(&self, site: u32) -> u32 {
        self.speculation.retries_at(site)
    }

    /// Feed an own-guess resolution into the site's controller: retry
    /// bookkeeping (commit resets, root abort increments), the success
    /// EWMA, budget shifts.
    pub(crate) fn spec_resolved(&mut self, site: u32, committed: bool, is_root: bool) {
        let policy = self.config.speculation;
        self.speculation.resolved(&policy, site, committed, is_root);
    }

    /// Controller state for one fork site (None if it never forked).
    pub fn speculation_site(&self, site: u32) -> Option<&SiteController> {
        self.speculation.site(site)
    }

    /// All fork sites with controller state.
    pub fn speculation_sites(&self) -> impl Iterator<Item = (u32, &SiteController)> {
        self.speculation.sites()
    }

    /// The controller's decision log, in decision order (engines
    /// cursor-sync this into the telemetry stream).
    pub fn policy_shifts(&self) -> &[PolicyShift] {
        self.speculation.shifts()
    }

    /// Read `thread`'s guard through the commit history: the members that
    /// have committed since it was last read leave the stored guard, and
    /// their rollback points go with them.
    pub(crate) fn settle(&mut self, thread: ForkIndex) {
        let Some(meta) = self.threads.get_mut(&thread) else {
            return;
        };
        // Nothing has committed since this guard was last read.
        if std::mem::replace(&mut meta.read_at, self.history.commits()) == self.history.commits() {
            return;
        }
        let mut live = RunBuf::new();
        let mut stripped = false;
        for (run, fate) in self.history.fates_of(&meta.guard) {
            if fate != Fate::Committed {
                live.push(run);
                continue;
            }
            stripped = true;
            meta.rollbacks.remove(run);
        }
        if stripped {
            meta.guard = live.finish();
            if meta.guard.is_empty() {
                self.holders.remove(&thread);
            }
        }
    }

    /// Perform a fork (§4.2.1): thread `creating` splits; the new right
    /// thread is guarded by a fresh guess.
    pub fn fork(&mut self, creating: ForkIndex, site: u32) -> ForkRecord {
        let policy = self.config.speculation;
        self.speculation.note_fork(&policy, site);
        self.max_thread += 1;
        let n = self.max_thread;
        let guess = GuessId {
            process: self.id,
            incarnation: self.incarnation,
            index: n,
        };

        self.settle(creating);
        let left = self.threads.get(&creating).expect("creating thread exists");
        let mut right_guard = left.guard.clone();
        right_guard.insert(guess);
        let forked_at = left.state_index();

        // No rollback points are recorded: aborting any member of the guard
        // it starts with discards the right thread entirely
        // (`ThreadMeta::rollback_point`).
        let mut meta = ThreadMeta::new(n, right_guard);
        meta.read_at = self.history.commits();
        // Every member is one it was forked with, so its floor is a
        // discard until the last of them commits.
        let last = meta.guard.runs().last().map_or(guess, Run::last);
        meta.pin = Some(last);
        meta.inherited = true;
        self.pins.insert((last, n));
        // Hand the same storage back to the caller instead of deep-copying.
        let right_guard = meta.guard.clone();
        self.threads.insert(n, meta);
        self.holders.insert(n);
        self.cdg.add_node(guess);
        // Record our own incarnation start the way every receiver of this
        // guess does (`History::observe_guard` on arrival): the first fork
        // of a new incarnation pins its start in our table too.
        self.history.observe_guess(guess);
        let replaced = self.own.insert(
            guess,
            OwnGuess {
                id: guess,
                left_thread: creating,
                right_thread: n,
                forked_at,
                site,
                state: OwnGuessState::Pending,
            },
        );
        debug_assert!(replaced.is_none(), "guess ids are never reused");
        self.pending.insert(guess);
        // An awaiting guess whose left thread index this fork reuses is
        // read through the new thread from now on.
        let reused = self.leftless.iter().copied();
        for g in Vec::from_iter(reused.filter(|g| self.own[g].left_thread == n)) {
            self.leftless.remove(&g);
            self.file_awaiting(g);
        }
        ForkRecord {
            guess,
            left_thread: creating,
            right_thread: n,
            right_guard,
        }
    }

    /// Guard tag for a message sent by `thread` (§4.2.2). Returns a borrow;
    /// cloning it for an envelope copies a few runs at most.
    pub fn guard_for_send(&mut self, thread: ForkIndex) -> &Guard {
        self.settle(thread);
        &self.threads[&thread].guard
    }

    /// §4.2.3 orphan check, performed when a message arrives at the process
    /// and again before delivery of pooled messages. The tag's runs name
    /// their incarnations, so observing them is how this process learns of
    /// an incarnation its sender started (§4.1.5's implicit aborts); doing
    /// it again on re-classification learns nothing new.
    pub fn classify_arrival(&mut self, env: &Envelope) -> ArrivalVerdict {
        self.history.observe_guard(&env.guard);
        match self.history.first_aborted(&env.guard) {
            Some(g) => ArrivalVerdict::Orphan(g),
            None => ArrivalVerdict::Ok,
        }
    }

    /// §4.2.3 delivery choice: among `candidates` (messages available to a
    /// receive by `thread`), pick the index to deliver. With the
    /// optimization on, the message introducing the fewest new dependencies
    /// wins; ties and the optimization-off case fall back to arrival order.
    pub fn choose_delivery(&self, thread: ForkIndex, candidates: &[&Envelope]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        if !self.config.deliver_min_deps {
            return Some(0);
        }
        // Earliest candidate with the smallest count: a later candidate
        // only wins with a strictly smaller one, so its count need not go
        // past the best so far, and nothing beats zero.
        let mut best = (usize::MAX, 0);
        for (i, env) in candidates.iter().enumerate() {
            let count = self.live_new_guard_count(thread, &env.guard, best.0);
            if count < best.0 {
                best = (count, i);
                if count == 0 {
                    break;
                }
            }
        }
        Some(best.1)
    }

    /// Number of genuinely new (unresolved) dependencies a guard tag would
    /// introduce to `thread` — committed/aborted guesses don't count.
    /// Counting stops at `limit`: callers that only compare against a
    /// threshold pass it, callers that want the number pass `usize::MAX`.
    pub fn live_new_guard_count(&self, thread: ForkIndex, incoming: &Guard, limit: usize) -> usize {
        // Whatever of its stored guard has committed is resolved as well,
        // so the stored guard serves unread.
        let mine = &self.threads[&thread].guard;
        let mut count = 0;
        for run in mine
            .new_runs(incoming)
            .flat_map(|r| self.history.unresolved(r))
        {
            count += run.len();
            if count >= limit {
                return limit;
            }
        }
        count
    }

    /// §4.2.3 early time-fault detection on call returns: if a return
    /// destined for `thread` carries one of this process's *own* pending
    /// guesses with index greater than `thread`, the future thread has
    /// interacted with something that must logically precede it — it is
    /// doomed. Returns the guess to abort early.
    pub fn return_depends_on_future(&self, thread: ForkIndex, env: &Envelope) -> Option<GuessId> {
        if !matches!(env.kind, DataKind::Return(_)) {
            return None;
        }
        self.guard_depends_on_future(thread, &env.guard)
    }

    /// Does `guard` name one of this process's own *live* guesses with fork
    /// index greater than `thread`? Such a message depends on this
    /// process's own future and must be withheld from delivery to `thread`
    /// (§4.2.3). Liveness — not incarnation equality — is the test: a
    /// stale-incarnation guess that survived in the pool across an
    /// incarnation bump is still a future dependency while the history has
    /// it pending, and only stops being one once it is recorded aborted
    /// (the orphan rule then drops the message) or committed (delivery is
    /// then harmless).
    pub fn guard_depends_on_future(&self, thread: ForkIndex, guard: &Guard) -> Option<GuessId> {
        let own_later = guard
            .runs()
            .iter()
            .filter(|r| r.process == self.id && r.hi > thread);
        let mut unresolved = own_later.flat_map(|r| {
            let later = Run {
                lo: r.lo.max(thread + 1),
                ..*r
            };
            self.history.unresolved(later)
        });
        unresolved.next().map(|r| r.first())
    }

    /// Deliver a message to a thread (§4.2.3 tail): acquire new guards,
    /// bump the interval, record rollback points, extend the CDG.
    ///
    /// The engine must checkpoint the thread's behavior state *before*
    /// applying the message whenever `new_interval` is returned.
    pub fn deliver(&mut self, thread: ForkIndex, env: &Envelope) -> DeliveryEffect {
        self.settle(thread);
        let history = &self.history;
        let meta = self.threads.get_mut(&thread).expect("thread exists");
        // A guard tag names the guesses the *sender* depended on at send
        // time; any that have since committed are no longer dependencies
        // (§4.1.5 — the commit history makes them implicit commits), and
        // aborted ones were filtered by the orphan check.
        let mut live = RunBuf::new();
        for new in meta.guard.new_runs(&env.guard) {
            history.unresolved(new).for_each(|run| live.push(run));
        }
        let new_guards = live.finish();
        if new_guards.is_empty() {
            return DeliveryEffect {
                new_guards,
                new_interval: None,
            };
        }
        meta.interval += 1;
        let idx = StateIndex::new(thread, meta.interval);
        if meta.guard.is_empty() {
            self.holders.insert(thread);
        }
        if meta.guard.is_empty() && new_guards.len() == env.guard.len() {
            // Every guess in the tag is a new live dependency of a thread
            // that had none: adopt the tag's storage outright.
            meta.guard = env.guard.clone();
        } else {
            meta.guard = meta.guard.merged(&new_guards);
        }
        // One rollback point and one CDG registration per new run.
        for &run in new_guards.runs() {
            meta.rollbacks.insert(run, idx);
            meta.acquired.push_back((meta.interval, run));
            self.cdg.add_run(run);
        }
        // A thread with no uncommitted member had no floor: the new runs
        // hold it now.
        if meta.pin.is_none() {
            let first = new_guards.runs()[0].last();
            meta.pin = Some(first);
            self.pins.insert((first, thread));
        }
        DeliveryEffect {
            new_guards,
            new_interval: Some(meta.interval),
        }
    }

    /// Is the computation of `thread` currently committed (no uncommitted
    /// guess in its guard)?
    pub fn is_committed(&self, thread: ForkIndex) -> bool {
        self.history.all_committed(&self.threads[&thread].guard)
    }

    /// Own guess record, if any.
    pub fn own_guess(&self, g: GuessId) -> Option<&OwnGuess> {
        self.own.get(&g)
    }

    /// Move own guess `g` to `state` (`None`: forget the record — its fork
    /// was undone), keeping the awaiting set and the pending count in step.
    /// Every write to an [`OwnGuess::state`] goes through here.
    pub(crate) fn set_own_state(&mut self, g: GuessId, state: Option<OwnGuessState>) {
        let old = match state {
            Some(new) => self
                .own
                .get_mut(&g)
                .map(|o| std::mem::replace(&mut o.state, new)),
            None => self.own.remove(&g).map(|o| o.state),
        };
        debug_assert!(
            state != Some(OwnGuessState::Pending),
            "only `fork` creates pending guesses"
        );
        match old {
            Some(OwnGuessState::Pending) => {
                self.pending.remove(&g);
            }
            Some(OwnGuessState::AwaitingResolution) => {
                self.awaiting.remove(&g);
                self.ready.remove(&g);
                self.leftless.remove(&g);
            }
            _ => {}
        }
        if old.is_some() && state == Some(OwnGuessState::AwaitingResolution) {
            self.awaiting.insert(g);
        }
        if old.is_some() && state.is_some_and(OwnGuessState::is_resolved) {
            self.resolved.push(g);
        }
    }

    /// Total live (unresolved) own guesses — diagnostics.
    pub fn pending_own_guesses(&self) -> usize {
        self.pending.len() + self.awaiting.len()
    }

    /// Poll-style completion check for executors: no own guess is still
    /// live, i.e. every speculation this process started has committed or
    /// aborted. Combined with "every program thread is done" this is the
    /// client-completion condition the runtime's coordinator waits on;
    /// kept here (not in the executor) so both runtime executors and the
    /// simulator answer the question identically.
    pub fn speculation_quiescent(&self) -> bool {
        debug_assert_eq!(
            self.pending_own_guesses(),
            self.own.values().filter(|o| !o.state.is_resolved()).count(),
            "live-guess bookkeeping out of step with the own-guess records"
        );
        self.pending_own_guesses() == 0
    }

    /// The engine's thread `t` ran to its end and holds nothing back (no
    /// output buffered): it retires once no member of its guard is
    /// uncommitted, at the next [`ProcessCore::retire_settled`].
    pub fn finish(&mut self, t: ForkIndex) {
        if let Some(meta) = self.threads.get_mut(&t) {
            meta.finished = true;
            self.woken.push(t);
        }
    }

    /// Settle what the commits, restores and [`ProcessCore::finish`]
    /// calls since the last call have settled. Each woken thread that
    /// still exists is passed to `each` as `(t, Some(floor))` — nothing
    /// before interval `floor` can be restored any more (`interval + 1`:
    /// nothing at all) — or as `(t, None)` if it was finished and its
    /// guard has emptied, in which case it is retired here. The records of
    /// the own guesses resolved since go too: the engine has acted on
    /// them, and whoever looks one up later reads a missing record as
    /// resolved. Each call costs what it settles.
    pub fn retire_settled(&mut self, mut each: impl FnMut(ForkIndex, Option<u32>)) {
        if self.woken.is_empty() && self.resolved.is_empty() {
            return;
        }
        for g in self.resolved.drain(..) {
            // A record resolved twice is already gone.
            if self.own.get(&g).is_some_and(|o| o.state.is_resolved()) {
                self.own.remove(&g);
            }
        }
        let mut woken = std::mem::take(&mut self.woken);
        woken.sort_unstable();
        woken.dedup();
        for &t in &woken {
            let Some(floor) = self.refile(t) else {
                continue;
            };
            if self.threads[&t].finished && self.threads[&t].pin.is_none() {
                self.retire(t);
                each(t, None);
            } else {
                each(t, Some(floor));
            }
        }
        woken.clear();
        self.woken = woken;
    }

    /// File `t` under the member that holds its floor and return the
    /// floor; `None` if the thread is gone. Its guard is read through the
    /// history, not written: a settle here would rebuild it per commit.
    fn refile(&mut self, t: ForkIndex) -> Option<u32> {
        let meta = self.threads.get_mut(&t)?;
        if let Some(m) = meta.pin.take() {
            self.pins.remove(&(m, t));
        }
        let (floor, pin) = restore_floor(meta, &self.history);
        debug_assert_eq!(pin.is_none(), self.history.all_committed(&meta.guard));
        meta.pin = pin;
        if let Some(m) = pin {
            self.pins.insert((m, t));
        }
        Some(floor)
    }

    /// Forget a finished thread whose guard has emptied. No abort can
    /// reach it again, and a fork never reuses its index.
    fn retire(&mut self, t: ForkIndex) {
        self.threads.remove(&t);
        debug_assert!(
            self.awaiting.iter().all(|g| self.own[g].left_thread != t),
            "thread {t} retired while an awaiting guess reads through it"
        );
        self.holders.remove(&t);
        self.retired_hi = self.retired_hi.max(t);
    }

    /// Remove a discarded thread's metadata and its filing.
    pub(crate) fn drop_thread_meta(&mut self, t: ForkIndex) {
        if let Some(meta) = self.threads.remove(&t) {
            if let Some(m) = meta.pin {
                self.pins.remove(&(m, t));
            }
        }
    }

    /// The highest thread index a fork may not reuse: the last live one
    /// not in `discarding`, or a retired one.
    pub(crate) fn highest_kept_thread(&self, discarding: impl Fn(ForkIndex) -> bool) -> ForkIndex {
        let live = self.threads.keys().rev().copied().find(|t| !discarding(*t));
        live.unwrap_or(0).max(self.retired_hi)
    }

    /// Wake the threads filed under `g`, which just committed.
    pub(crate) fn wake_pinned(&mut self, g: GuessId) {
        while let Some(&(_, t)) = self.pins.range((g, 0)..=(g, ForkIndex::MAX)).next() {
            self.pins.remove(&(g, t));
            if let Some(meta) = self.threads.get_mut(&t) {
                meta.pin = None;
            }
            self.woken.push(t);
        }
    }
}

/// The earliest interval a restore can still send `meta`'s thread back
/// to, with an uncommitted member whose commit can raise it. A member the
/// thread was forked with is a discard, so the floor is 0 while one has
/// not committed; after that it is the oldest own rollback point of an
/// uncommitted member (an aborted one included: its abort may not have
/// been applied yet); with none left it is `interval + 1`, past every
/// restore.
fn restore_floor(meta: &mut ThreadMeta, history: &History) -> (u32, Option<GuessId>) {
    let uncommitted = |run: Run| {
        let fates = history.fates_in(run);
        fates
            .filter(|(_, f)| *f != Fate::Committed)
            .map(|(r, _)| r)
            .next()
    };
    debug_assert!(
        meta.inherited
            || meta.guard.runs().iter().all(|&run| {
                let mut inherited = meta.rollbacks.gaps(run);
                inherited.all(|gap| uncommitted(gap).is_none())
            }),
        "an uncommitted member the thread was forked with went unseen"
    );
    if meta.inherited {
        for &run in meta.guard.runs() {
            if let Some(inherited) = meta.rollbacks.gaps(run).find_map(uncommitted) {
                return (0, Some(inherited.last()));
            }
        }
        // They have all committed, and none comes back.
        meta.inherited = false;
    }
    let held_live = |run: Run| {
        let mut held = meta.rollbacks.overlapping(run).map(|(held, _)| held);
        held.find_map(uncommitted)
    };
    while let Some(&(at, run)) = meta.acquired.front() {
        if let Some(live) = held_live(run) {
            debug_assert_eq!(
                meta.rollbacks
                    .iter()
                    .filter(|&(r, _)| uncommitted(r).is_some())
                    .map(|(_, p)| p.interval)
                    .min(),
                Some(at),
                "the oldest held run is not the earliest rollback point"
            );
            // Filed under a member of a run a few deliveries on, the
            // thread wakes once per few of them, not once per commit, and
            // holds a few checkpoints more meanwhile.
            let ahead = meta.acquired.iter().take(PIN_AHEAD).skip(1).rev();
            let pin = ahead.map(|&(_, r)| r).find_map(held_live).unwrap_or(live);
            return (at, Some(pin.last()));
        }
        meta.acquired.pop_front();
    }
    (meta.interval + 1, None)
}

/// How many delivered runs past its floor a thread's pin may lie.
const PIN_AHEAD: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{CallId, MsgId};
    use crate::value::Value;

    fn env_with_guard(to: ProcessId, guard: Guard, kind: DataKind) -> Envelope {
        Envelope {
            id: MsgId(1),
            from: ProcessId(9),
            from_thread: 0,
            to,
            guard,
            table_acks: vec![],
            kind,
            payload: Value::Unit,
            label: "M".into(),
            link_seq: 0,
        }
    }

    fn g(p: u32, n: u32) -> GuessId {
        GuessId::first(ProcessId(p), n)
    }

    #[test]
    fn fork_creates_right_thread_with_guess() {
        let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
        let rec = core.fork(0, 1);
        assert_eq!(rec.guess, g(0, 1));
        assert_eq!(rec.right_thread, 1);
        assert!(rec.right_guard.contains(g(0, 1)));
        // Left thread's guard unchanged.
        assert!(core.thread(0).guard.is_empty());
        // Right thread's rollback point for its own guess is (n, 0), with
        // nothing recorded to say so.
        assert_eq!(
            core.thread(1).rollback_point(g(0, 1)),
            Some(StateIndex::new(1, 0))
        );
        assert!(core.thread(1).rollbacks.is_empty());
        assert_eq!(core.thread(0).rollback_point(g(0, 1)), None);
    }

    #[test]
    fn nested_forks_accumulate_guards_right_branching() {
        // Call streaming: fork from thread 0, then fork again from thread 1.
        let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
        core.fork(0, 1);
        let rec2 = core.fork(1, 1);
        assert_eq!(rec2.guess, g(0, 2));
        assert!(rec2.right_guard.contains(g(0, 1)));
        assert!(rec2.right_guard.contains(g(0, 2)));
        assert_eq!(core.max_thread, 2);
    }

    #[test]
    fn orphan_detection_on_arrival() {
        let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
        core.history.record_abort(g(0, 1));
        let env = env_with_guard(ProcessId(2), Guard::single(g(0, 1)), DataKind::Send);
        assert_eq!(core.classify_arrival(&env), ArrivalVerdict::Orphan(g(0, 1)));
        let clean = env_with_guard(ProcessId(2), Guard::empty(), DataKind::Send);
        assert_eq!(core.classify_arrival(&clean), ArrivalVerdict::Ok);
    }

    #[test]
    fn arrival_learns_incarnations_making_stale_guesses_orphans() {
        let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
        // A message tagged with x (incarnation 1, index 3) implies x aborted
        // its incarnation-0 fork 3.
        let newer = GuessId::new(ProcessId(0), Incarnation(1), 3);
        let env = env_with_guard(ProcessId(2), Guard::single(newer), DataKind::Send);
        assert_eq!(core.classify_arrival(&env), ArrivalVerdict::Ok);
        let stale = env_with_guard(ProcessId(2), Guard::single(g(0, 3)), DataKind::Send);
        assert_eq!(
            core.classify_arrival(&stale),
            ArrivalVerdict::Orphan(g(0, 3))
        );
    }

    #[test]
    fn delivery_starts_new_interval_and_records_rollback() {
        let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
        let env = env_with_guard(ProcessId(2), Guard::single(g(0, 1)), DataKind::Send);
        let eff = core.deliver(0, &env);
        assert_eq!(eff.new_guards, Guard::single(g(0, 1)));
        assert_eq!(eff.new_interval, Some(1));
        let t = core.thread(0);
        assert_eq!(t.interval, 1);
        assert_eq!(t.rollback_point(g(0, 1)), Some(StateIndex::new(0, 1)));
        assert!(t.guard.contains(g(0, 1)));
        // The restore point is the end of interval 0 — *before* the
        // dependency was acquired: an abort restores the empty guard.
        core.on_abort(g(0, 1));
        let t = core.thread(0);
        assert!(t.guard.is_empty() && t.interval == 0);
    }

    #[test]
    fn a_delivery_records_one_rollback_point_per_run() {
        // A tag holding a 19-deep pipeline of process 0 and one guess of
        // process 1: two runs, two rollback entries, two CDG entries.
        let tag: Guard = (1..=19).map(|n| g(0, n)).chain([g(1, 4)]).collect();
        let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
        let eff = core.deliver(0, &env_with_guard(ProcessId(2), tag, DataKind::Send));
        assert_eq!((eff.new_guards.len(), eff.new_guards.runs().len()), (20, 2));
        let t = core.thread(0);
        assert_eq!(t.rollbacks.len(), 2);
        for m in eff.new_guards.iter() {
            assert_eq!(t.rollback_point(m), Some(StateIndex::new(0, 1)));
        }
        assert_eq!(core.cdg.node_count(), 20);
        // Commits strip the pipeline from the bottom; the entry shrinks in
        // place when the guard is next read.
        for n in 1..=5 {
            core.on_commit(g(0, n));
        }
        core.settle(0);
        let t = core.thread(0);
        assert_eq!(t.rollbacks.len(), 2);
        assert_eq!(t.rollback_point(g(0, 5)), None);
        assert_eq!(t.rollback_point(g(0, 6)), Some(StateIndex::new(0, 1)));
        assert_eq!(core.cdg.node_count(), 15);
    }

    #[test]
    fn delivery_without_new_guards_keeps_interval() {
        let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
        let env = env_with_guard(ProcessId(2), Guard::single(g(0, 1)), DataKind::Send);
        core.deliver(0, &env);
        let eff = core.deliver(0, &env);
        assert!(eff.new_guards.is_empty());
        assert_eq!(eff.new_interval, None);
        assert_eq!(core.thread(0).interval, 1);
    }

    #[test]
    fn guardless_thread_adopts_the_tag_as_it_arrived() {
        // A fan-in server's tag: one run per producer, four of them, so it
        // lives behind an `Arc`. A thread with no dependency stores it as
        // it arrived — a reference-count bump, no copy.
        let tag: Guard = [0, 1, 3, 4].into_iter().map(|p| g(p, 1)).collect();
        assert!(tag.runs().len() > Guard::INLINE_CAP);
        let env = env_with_guard(ProcessId(2), tag.clone(), DataKind::Send);
        let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
        assert_eq!(core.deliver(0, &env).new_guards.len(), 4);
        assert!(core.thread(0).guard.shares_storage_with(&tag));
        // A member committed here already is filtered out, so the stored
        // guard is built from what is left.
        let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
        core.on_commit(g(0, 1));
        assert_eq!(core.deliver(0, &env).new_guards.len(), 3);
        let stored = &core.thread(0).guard;
        assert!(!stored.shares_storage_with(&tag) && !stored.contains(g(0, 1)));
    }

    #[test]
    fn choose_delivery_prefers_fewest_new_deps() {
        let mut core = ProcessCore::new(ProcessId(2), CoreConfig::default());
        let contaminated = env_with_guard(ProcessId(2), Guard::single(g(0, 1)), DataKind::Send);
        let clean = env_with_guard(ProcessId(2), Guard::empty(), DataKind::Send);
        let picked = core.choose_delivery(0, &[&contaminated, &clean]);
        assert_eq!(picked, Some(1));
        // Optimization off → FIFO.
        core.config.deliver_min_deps = false;
        assert_eq!(core.choose_delivery(0, &[&contaminated, &clean]), Some(0));
        assert_eq!(core.choose_delivery(0, &[]), None);
    }

    #[test]
    fn paper_delivery_example_prefers_earliest_eligible_thread() {
        // §4.2.3: guard {x5, y3}; process x has forks x4, x5, x6 → message
        // can only go to threads 5 and 6 (it depends on x5 so delivering to
        // x4 would make x5 depend on itself). We model the per-thread choice:
        // thread 5's guard contains x5 (zero new deps from x5)...
        let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
        core.fork(0, 1); // x1 → thread 1
        core.fork(1, 1); // x2 → thread 2
        let msg = env_with_guard(
            ProcessId(0),
            Guard::from_iter([g(0, 2), g(1, 3)]),
            DataKind::Send,
        );
        // Thread 2's guard is {x1,x2}: only y3 is new (1 new dep).
        assert_eq!(core.thread(2).guard.new_guard_count(&msg.guard), 1);
        // Thread 1's guard is {x1}: x2 and y3 are new (2 new deps) — and
        // delivering there would create the x2-self-dependency the paper
        // warns about.
        assert_eq!(core.thread(1).guard.new_guard_count(&msg.guard), 2);
    }

    #[test]
    fn return_future_dependency_detected() {
        let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
        core.fork(0, 1); // guess x1, right thread 1
                         // A return to thread 0 that carries x1 depends on the future.
        let ret = env_with_guard(
            ProcessId(0),
            Guard::single(g(0, 1)),
            DataKind::Return(CallId(1)),
        );
        assert_eq!(core.return_depends_on_future(0, &ret), Some(g(0, 1)));
        // Same message to thread 1 is fine (not a *future* thread).
        assert_eq!(core.return_depends_on_future(1, &ret), None);
        // Plain sends are not checked.
        let snd = env_with_guard(ProcessId(0), Guard::single(g(0, 1)), DataKind::Send);
        assert_eq!(core.return_depends_on_future(0, &snd), None);
    }

    #[test]
    fn double_classification_of_pooled_envelope_is_idempotent() {
        // Regression (rt arrival-path audit): the runtime classifies every
        // envelope on arrival AND again before delivering it from the pool.
        // The second pass must be a pure re-check: the incarnation the tag
        // names was learned on first contact, and the verdict is stable.
        let mut sender = ProcessCore::new(ProcessId(0), CoreConfig::default());
        let mut receiver = ProcessCore::new(ProcessId(1), CoreConfig::default());
        sender.fork(0, 1); // x1, stays pending
        sender.fork(1, 2); // x2
        sender.on_abort(g(0, 2)); // incarnation 1 starts at 2
        let right = sender.fork(1, 2).right_thread;
        let env = env_with_guard(
            ProcessId(1),
            sender.guard_for_send(right).clone(),
            DataKind::Send,
        );
        let first = receiver.classify_arrival(&env);
        assert_eq!(first, ArrivalVerdict::Ok);
        assert!(
            receiver.history.is_aborted(g(0, 3)),
            "incarnation 1 learned"
        );
        let learned = receiver.history.aborts_learned();
        let history_after_first = format!("{:?}", receiver.history);
        assert_eq!(receiver.classify_arrival(&env), first);
        assert_eq!(receiver.history.aborts_learned(), learned);
        assert_eq!(format!("{:?}", receiver.history), history_after_first);
    }

    #[test]
    fn stale_incarnation_guess_still_withheld_from_earlier_thread() {
        // Regression (rt pick_delivery audit): the withhold filter used to
        // test `g.incarnation == self.incarnation`, so a pooled message
        // guarded by a *live* guess of a previous incarnation slipped past
        // it after an unrelated abort bumped the incarnation.
        let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
        core.fork(0, 1); // x1 → thread 1, stays pending
        core.fork(1, 2); // x2 → thread 2
        core.on_abort(g(0, 2)); // bump: incarnation 1 starts at index 2
        assert_eq!(core.incarnation, Incarnation(1));
        assert!(!core.history.is_aborted(g(0, 1)));
        // x1 is now stale-incarnation but live: a message carrying it still
        // depends on this process's future and must be withheld from
        // thread 0...
        let guard = Guard::single(g(0, 1));
        assert_eq!(core.guard_depends_on_future(0, &guard), Some(g(0, 1)));
        // ...while x1's own right thread may receive it.
        assert_eq!(core.guard_depends_on_future(1, &guard), None);
        // The *aborted* stale guess no longer withholds anything — the
        // §4.2.3 orphan rule drops such messages at classification instead.
        assert_eq!(
            core.guard_depends_on_future(0, &Guard::single(g(0, 2))),
            None
        );
    }

    #[test]
    fn retry_limit_gates_optimism() {
        let mut core = ProcessCore::new(ProcessId(0), CoreConfig::static_limit(2));
        assert!(core.can_fork(7));
        core.spec_resolved(7, false, true);
        assert!(core.can_fork(7));
        core.spec_resolved(7, false, true);
        assert!(!core.can_fork(7));
        assert!(core.can_fork(8));
        assert_eq!(core.retries_at(7), 2);
    }

    #[test]
    fn pessimistic_config_denies_every_site() {
        let mut core = ProcessCore::new(ProcessId(0), CoreConfig::pessimistic());
        assert!(!core.can_fork(1));
        assert!(!core.can_fork(2));
    }
}
