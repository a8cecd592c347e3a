//! Guess resolution: join processing (§4.2.4), COMMIT (§4.2.6),
//! ABORT (§4.2.7) and PRECEDENCE (§4.2.8) handling, including the rollback
//! cascade and incarnation bumps.

use crate::cdg::EdgeOutcome;
use crate::guard::{Guard, Run};
use crate::history::Fate;
use crate::ids::{ForkIndex, GuessId, Incarnation, ProcessId, StateIndex};
use crate::process::{
    GuessResolution, OwnGuess, OwnGuessState, ProcessCore, ResolutionCause, ThreadMeta, ThreadPhase,
};
use std::collections::{BTreeMap, BTreeSet};

mod memberwise;

/// Decision produced when a left thread finishes S1 (§4.2.4).
#[derive(Debug, Clone)]
pub enum JoinDecision {
    /// No value fault, empty guard: the guess commits (and possibly a
    /// cascade of other own guesses). Broadcast `COMMIT` for each.
    Commit { committed: Vec<GuessId> },
    /// Value fault (§2) or local time fault (own guess in own final guard,
    /// Figure 4): the guess aborts. Broadcast `ABORT` for each entry of
    /// `effects.own_aborted`; re-execute S2 sequentially on the left thread.
    Abort { effects: AbortEffects },
    /// Non-empty guard with unknown outcome: broadcast
    /// `PRECEDENCE(guess, guard)` and wait (§3.2, §4.2.4 last case).
    Await {
        guess: GuessId,
        precedence_guard: Guard,
    },
    /// The guess was already aborted (timeout §3.2, or a remote abort)
    /// while S1 was still running; the left thread simply re-executes S2
    /// sequentially. Nothing to broadcast (the abort already was).
    AlreadyAborted { guess: GuessId },
}

/// Effects of a commit on local state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitEffects {
    /// Own guesses that became committable as a result (their left threads
    /// were awaiting resolution and their guards emptied). Broadcast
    /// `COMMIT` for each; their left threads are done.
    pub own_committed: Vec<GuessId>,
}

/// Effects of an abort on local state. The engine must:
/// - kill behavior of every thread in `discard_threads` (their consumed
///   messages return to the arrival pool, where orphan filtering applies);
/// - restore behavior checkpoint `slot` for every `(thread, slot)` in
///   `rollback_threads` (and return messages consumed after it to the pool);
/// - broadcast `ABORT(g)` for every `g` in `own_aborted`;
/// - resume the left thread of every guess in `rerun_sequential` into S2
///   (sequential re-execution, §2 / Figure 5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbortEffects {
    pub discard_threads: Vec<ForkIndex>,
    /// `(thread, slot)`: restore the checkpoint taken when interval `slot`
    /// began (i.e. the state at the end of interval `slot - 1`).
    pub rollback_threads: Vec<(ForkIndex, u32)>,
    pub own_aborted: Vec<GuessId>,
    pub rerun_sequential: Vec<GuessId>,
}

impl AbortEffects {
    pub fn is_empty(&self) -> bool {
        self.discard_threads.is_empty()
            && self.rollback_threads.is_empty()
            && self.own_aborted.is_empty()
            && self.rerun_sequential.is_empty()
    }
}

impl ProcessCore {
    /// §4.2.4: the left thread of `guess` completed S1. `value_ok` is the
    /// verifier's verdict on the guessed values (engine-evaluated, since the
    /// engine owns behavior state).
    pub fn join_left_done(&mut self, guess: GuessId, value_ok: bool) -> JoinDecision {
        let own = match self.own.get(&guess) {
            Some(o) => o.clone(),
            None => return JoinDecision::AlreadyAborted { guess },
        };
        if own.state == OwnGuessState::Aborted {
            return JoinDecision::AlreadyAborted { guess };
        }
        debug_assert_eq!(own.state, OwnGuessState::Pending);

        self.settle(own.left_thread);
        let left_guard = self.threads[&own.left_thread].guard.clone();

        if !value_ok {
            // Value fault (Figure 5).
            let effects = self.apply_abort(guess, ResolutionCause::ValueFault);
            return JoinDecision::Abort { effects };
        }
        if left_guard.contains(guess) {
            // Local time fault (Figure 4): the guess is in its own left
            // thread's causal past — {x1} → {x1}.
            let effects = self.apply_abort(guess, ResolutionCause::SelfCycle);
            return JoinDecision::Abort { effects };
        }
        if left_guard.is_empty() {
            // §3.2: terminated with an empty guard set — no uncommitted
            // forks in the causal past; commit.
            let mut committed = vec![guess];
            self.commit_own(guess, ResolutionCause::EmptyGuard);
            committed.extend(self.cascade_commits());
            return JoinDecision::Commit { committed };
        }
        // Unknown: some other guard g_m is in our past. Record the edges
        // locally and broadcast PRECEDENCE (§3.2).
        if let EdgeOutcome::Cycle(members) = self.cdg.add_guard_into(guess, &left_guard, false) {
            let effects = self.abort_cycle(members);
            return JoinDecision::Abort { effects };
        }
        self.set_own_state(guess, Some(OwnGuessState::AwaitingResolution));
        if let Some(t) = self.threads.get_mut(&own.left_thread) {
            t.phase = ThreadPhase::AwaitingResolution;
        }
        self.file_awaiting(guess);
        JoinDecision::Await {
            guess,
            precedence_guard: left_guard,
        }
    }

    /// §4.2.6: a COMMIT(g) control message arrived (or `g` committed
    /// locally). Records `g` — and its CDG predecessors, which "must also
    /// have committed" — as committed and drops them from the CDG, then
    /// commits any own guesses whose guards, read through that history,
    /// have emptied. No thread is visited: a guard loses its committed
    /// members when it is next read ([`ProcessCore::settle`]).
    pub fn on_commit(&mut self, g: GuessId) -> CommitEffects {
        if self.history.is_committed(g) {
            // A repeat (a duplicate, or inferred earlier as a predecessor
            // of another COMMIT): everything below already happened.
            return CommitEffects::default();
        }
        let mut to_commit: BTreeSet<GuessId> = BTreeSet::from([g]);
        // Transitive CDG predecessors must have committed already.
        let mut stack = vec![g];
        while let Some(n) = stack.pop() {
            for p in self.cdg.predecessors(n) {
                if to_commit.insert(p) {
                    stack.push(p);
                }
            }
        }
        for c in &to_commit {
            self.remove_committed_guess(*c);
        }
        CommitEffects {
            own_committed: self.cascade_commits(),
        }
    }

    /// §4.2.7: an ABORT(g) control message arrived (or `g` aborted via a
    /// locally detected fault/cycle).
    pub fn on_abort(&mut self, g: GuessId) -> AbortEffects {
        self.apply_abort(g, ResolutionCause::Explicit)
    }

    /// §4.2.8: a PRECEDENCE(g, guard) control message arrived: every member
    /// of `guard` precedes `g`. Edges are added "if either g or x_n is a
    /// node of the CDG"; cycles are time faults.
    ///
    /// The guard is ingested run by run (`Cdg::add_guard_into`: only what
    /// earlier subjects' records do not imply is linked). What the history
    /// already has committed is left out — a late PRECEDENCE (it raced the
    /// COMMITs of its members, or of `g` itself) constrains nothing any
    /// more, and re-inserting a committed guess would leave a node no
    /// COMMIT will ever remove. So a CDG node is never a committed guess.
    pub fn on_precedence(&mut self, g: GuessId, guard: &Guard) -> AbortEffects {
        self.history.record_unknown(g);
        if self.history.is_committed(g) {
            return AbortEffects::default();
        }
        let mut cycle_members: BTreeSet<GuessId> = BTreeSet::new();
        let mut preceding = self.history.uncommitted(guard);
        if preceding.remove(g) {
            cycle_members.insert(g);
        }
        if let EdgeOutcome::Cycle(c) = self.cdg.add_guard_into(g, &preceding, true) {
            cycle_members.extend(c);
        }
        if cycle_members.is_empty() {
            AbortEffects::default()
        } else {
            self.abort_cycle(cycle_members)
        }
    }

    /// Abort every guess on a detected CDG cycle (§4.2.5: "All threads in
    /// the cycle are aborted").
    fn abort_cycle(&mut self, members: BTreeSet<GuessId>) -> AbortEffects {
        let mut total = AbortEffects::default();
        for m in members {
            let e = self.apply_abort(m, ResolutionCause::PrecedenceCycle);
            total.discard_threads.extend(e.discard_threads);
            total.rollback_threads.extend(e.rollback_threads);
            total.own_aborted.extend(e.own_aborted);
            total.rerun_sequential.extend(e.rerun_sequential);
        }
        dedup_in_order(&mut total.discard_threads);
        dedup_in_order(&mut total.rollback_threads);
        dedup_in_order(&mut total.own_aborted);
        dedup_in_order(&mut total.rerun_sequential);
        total
    }

    // ------------------------------------------------------------------
    // Commit internals
    // ------------------------------------------------------------------

    /// Commit one of our own guesses: update history, mark records, mark
    /// the left thread done. A commit at a fork site
    /// starts a fresh computation there, so its retry budget resets (§3.3's
    /// L bounds re-executions of *the same* computation).
    fn commit_own(&mut self, g: GuessId, cause: ResolutionCause) {
        if let Some(o) = self.own.get(&g) {
            let left = o.left_thread;
            let site = o.site;
            self.set_own_state(g, Some(OwnGuessState::Committed));
            if let Some(t) = self.threads.get_mut(&left) {
                t.phase = ThreadPhase::Done;
            }
            self.spec_resolved(site, true, true);
            self.resolutions.push(GuessResolution {
                guess: g,
                committed: true,
                cause,
            });
        }
        // A forged COMMIT may have named our own guess before its time.
        if !self.history.is_committed(g) {
            self.remove_committed_guess(g);
        }
    }

    /// Record a committed guess in the history and drop it from the CDG —
    /// once per guess: `on_commit` ignores repeats, and a CDG node is never
    /// a committed guess, so predecessor inference cannot reach one again.
    /// The guards that list it are left alone; they are read through the
    /// history. The awaiting guesses filed under it are looked at again.
    fn remove_committed_guess(&mut self, g: GuessId) {
        debug_assert!(!self.history.is_committed(g), "{g} committed twice");
        self.history.record_commit(g);
        self.cdg.remove(g);
        self.wake_pinned(g);
        let first = (g, GuessId::new(ProcessId(0), Incarnation(0), 0));
        while let Some(&(m, w)) = self.watch.range(first..).next().filter(|(m, _)| *m == g) {
            self.watch.remove(&(m, w));
            if self.awaiting.contains(&w) {
                self.file_awaiting(w);
            }
        }
    }

    /// File awaiting guess `g` in the watch index: under the last member of
    /// its left thread's guard, read through the history, or as ready if
    /// every member has committed. A guess whose left thread is gone is
    /// not ready while it stays gone; it waits in `leftless` for a fork to
    /// reuse the index.
    pub(crate) fn file_awaiting(&mut self, g: GuessId) {
        let left = self.own[&g].left_thread;
        if !self.threads.contains_key(&left) {
            self.leftless.insert(g);
            return;
        }
        self.settle(left);
        match self.threads[&left].guard.runs().last().map(Run::last) {
            Some(member) => self.watch.insert((member, g)),
            None => self.ready.insert(g),
        };
    }

    /// File every awaiting guess afresh (the end of an abort, which
    /// restores and strips guards wholesale); drops stale entries too.
    fn rebuild_watch(&mut self) {
        self.watch.clear();
        self.ready.clear();
        self.leftless.clear();
        for g in Vec::from_iter(self.awaiting.iter().copied()) {
            self.file_awaiting(g);
        }
    }

    /// Commit every own guess awaiting resolution whose guard has emptied,
    /// smallest first; a commit may empty the next guard, whose guess then
    /// joins the ready set. The order is that of a rescan of every awaiting
    /// guess after each commit, which the watch index spares.
    fn cascade_commits(&mut self) -> Vec<GuessId> {
        let mut committed = Vec::new();
        while let Some(g) = self.ready.pop_first() {
            // A left thread that rolled back runs again, and may have
            // taken on a dependency since `g` was found ready.
            let left = self.threads.get(&self.own[&g].left_thread);
            if !left.is_some_and(|t| self.history.all_committed(&t.guard)) {
                self.file_awaiting(g);
                continue;
            }
            self.commit_own(g, ResolutionCause::CascadeCommit);
            committed.push(g);
        }
        self.debug_check_watch();
        committed
    }

    /// Debug builds check the watch index against a full rescan wherever it
    /// has just been settled (a cascade's end, an abort's end): a guess is
    /// ready exactly when its left guard has no uncommitted member, and
    /// every other awaiting guess (whose left thread exists) is filed under
    /// an uncommitted member of that guard.
    pub(crate) fn debug_check_watch(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert!(
            self.ready.is_subset(&self.awaiting),
            "a ready guess is not awaiting"
        );
        for g in &self.awaiting {
            let Some(left) = self.threads.get(&self.own[g].left_thread) else {
                assert!(
                    self.leftless.contains(g),
                    "{g}: leftless guess not filed as such"
                );
                continue;
            };
            let ready = self.history.all_committed(&left.guard);
            assert_eq!(self.ready.contains(g), ready, "{g}: ready set out of step");
            let filed = self
                .watch
                .iter()
                .any(|&(m, w)| w == *g && left.guard.contains(m) && !self.history.is_committed(m));
            assert!(
                ready || filed,
                "{g}: awaiting guess filed under no live member"
            );
        }
    }

    // ------------------------------------------------------------------
    // Abort internals
    // ------------------------------------------------------------------

    /// Full abort cascade for a root guess: doom CDG successors, roll back
    /// or discard dependent threads, abort own guesses invalidated by those
    /// rollbacks, bump the incarnation.
    ///
    /// Retry accounting (§3.3's limit L): only the *root* guess counts as a
    /// failed optimistic execution of its fork site — cascade victims were
    /// not wrong, merely dependent.
    ///
    /// The doomed set is kept as runs, and every question about it is
    /// asked run by run: what it costs is the holders' runs and the
    /// pending forks, not holders × doomed members. Debug builds replay
    /// every abort on a copy through the member-by-member reference
    /// ([`ProcessCore::on_abort_memberwise`]) and require the same effects
    /// and the same state afterwards.
    fn apply_abort(&mut self, root: GuessId, cause: ResolutionCause) -> AbortEffects {
        #[cfg(debug_assertions)]
        let reference = {
            let mut core = self.clone();
            let effects = core.apply_abort_memberwise(root, cause.clone());
            (core, effects)
        };
        let effects = self.apply_abort_runwise(root, cause);
        #[cfg(debug_assertions)]
        {
            let (core, expected) = reference;
            assert_eq!(
                effects, expected,
                "abort of {root}: effects differ from the reference"
            );
            assert!(
                *self == core,
                "abort of {root}: state differs from the reference\n{self:#?}\n{core:#?}"
            );
        }
        effects
    }

    fn apply_abort_runwise(&mut self, root: GuessId, cause: ResolutionCause) -> AbortEffects {
        let mut effects = AbortEffects::default();

        // Idempotence: if we already know it aborted and nothing local
        // depends on it, there is nothing to do.
        let root_known = self.history.is_aborted(root);
        let root_relevant = self.holders().any(|t| t.guard.contains(root))
            || self.own.contains_key(&root)
            || self.cdg.contains_node(root);
        if root_known && !root_relevant {
            return effects;
        }
        // The scans below read every holder's guard.
        for tid in Vec::from_iter(self.holders.iter().copied()) {
            self.settle(tid);
        }
        let holders = Vec::from_iter(self.holders.iter().copied());

        // 1. Doomed set: root + transitive CDG successors (guesses whose
        //    commit was already known to causally follow root).
        let mut successors: BTreeSet<GuessId> = BTreeSet::from([root]);
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            for s in self.cdg.successors(n) {
                if successors.insert(s) {
                    stack.push(s);
                }
            }
        }
        let mut doomed = Guard::from_iter(successors);

        // 2. Fixpoint: thread rollback targets can invalidate forks, whose
        //    guesses join the doomed set, which can deepen targets. A
        //    doomed guess is recorded aborted at the start of the pass after
        //    it joined.
        let mut unrecorded = doomed.clone();
        let mut targets: BTreeMap<ForkIndex, StateIndex> = BTreeMap::new();
        loop {
            for d in unrecorded.iter() {
                self.history.record_abort(d);
            }
            // Implicit aborts (same process, same incarnation, later index)
            // apply to any guess currently appearing in a guard: the
            // aborted stretches of the holders' guards, less what is
            // doomed already.
            let aborted = holders.iter().flat_map(|t| {
                let fates = self.history.fates_of(&self.threads[t].guard);
                fates
                    .filter(|(_, f)| *f == Fate::Aborted)
                    .map(|(run, _)| run)
            });
            let aborted = Guard::union_of(aborted.collect());
            let implied = Guard::from_ascending(doomed.new_runs(&aborted));
            doomed = doomed.merged(&implied);

            // Per-thread rollback targets: the earliest rollback point
            // among the doomed members of that thread's guard (§4.2.7) —
            // the earliest entry that holds one, or the thread's start if
            // one has no entry of the thread's own.
            let mut new_targets: BTreeMap<ForkIndex, StateIndex> = BTreeMap::new();
            for &tid in &holders {
                let t = &self.threads[&tid];
                let target = t.guard.common_runs(&doomed).fold(None, |min, hit| {
                    let own = t.rollbacks.overlapping(hit).map(|(_, at)| at);
                    let inherited = t
                        .rollbacks
                        .gaps(hit)
                        .next()
                        .map(|_| StateIndex::new(tid, 0));
                    own.chain(inherited).chain(min).min()
                });
                if let Some(tgt) = target {
                    new_targets.insert(tid, tgt);
                }
            }

            // A fork is undone if its creating thread is discarded or rolls
            // back to (or before) the fork point; the guess then joins the
            // doomed set.
            let undone = self.pending.iter().filter(|g| {
                let o = &self.own[*g];
                !doomed.contains(o.id) && fork_undone(&new_targets, o)
            });
            let undone = Guard::from_iter(undone.copied());
            let grew = !undone.is_empty();
            doomed = doomed.merged(&undone);
            unrecorded = implied.merged(&undone);
            if !grew && new_targets == targets {
                targets = new_targets;
                break;
            }
            targets = new_targets;
        }

        // 3. Partition threads into discarded vs rolled back.
        let mut discarding: BTreeSet<ForkIndex> = BTreeSet::new();
        for (&tid, &tgt) in &targets {
            if target_discards(tgt, tid) {
                discarding.insert(tid);
                effects.discard_threads.push(tid);
            } else {
                debug_assert_eq!(tgt.thread, tid);
                effects.rollback_threads.push((tid, tgt.interval));
            }
        }

        // 4. Own guesses in the doomed set: record aborts, count retries,
        //    decide which need sequential re-execution now. Own guesses of
        //    *older* incarnations may still be pending (a later fork
        //    aborted first and bumped the incarnation); they are matched
        //    by id, not by incarnation.
        let mut min_aborted_index: Option<ForkIndex> = None;
        let own_runs = doomed.runs().iter().filter(|r| r.process == self.id);
        let records = own_runs.flat_map(|r| self.own.range(r.first()..=r.last()));
        for o in Vec::from_iter(records.map(|(_, o)| o.clone())) {
            if o.state == OwnGuessState::Aborted || o.state == OwnGuessState::Committed {
                continue;
            }
            effects.own_aborted.push(o.id);
            self.resolutions.push(GuessResolution {
                guess: o.id,
                committed: false,
                cause: if o.id == root {
                    cause.clone()
                } else {
                    ResolutionCause::DependencyAbort { root }
                },
            });
            // Root aborts count as a retry and a failed success sample;
            // cascade victims only release their in-flight slot (they were
            // dependent, not wrong).
            self.spec_resolved(o.site, false, o.id == root);
            min_aborted_index = Some(min_aborted_index.map_or(o.id.index, |m| m.min(o.id.index)));
            // The right thread dies with the guess (its guard contains it
            // with rollback point (n, 0)); ensure it is listed even if it
            // had already terminated its protocol bookkeeping.
            if self.threads.contains_key(&o.right_thread) && discarding.insert(o.right_thread) {
                effects.discard_threads.push(o.right_thread);
            }
            if fork_undone(&targets, &o) {
                // Fork undone entirely; forget the record (replay may
                // re-fork under the new incarnation).
                self.set_own_state(o.id, None);
            } else {
                // Fork stands but its guess is dead. If S1 has already
                // finished and the left thread is not being rolled back, S2
                // re-runs sequentially right now; otherwise the engine
                // learns of the abort at join time
                // (JoinDecision::AlreadyAborted) or during S1 replay.
                let left_untouched = !targets.contains_key(&o.left_thread);
                let awaiting = |t: &ThreadMeta| t.phase == ThreadPhase::AwaitingResolution;
                if left_untouched && self.threads.get(&o.left_thread).is_some_and(awaiting) {
                    effects.rerun_sequential.push(o.id);
                    self.thread_mut(o.left_thread).phase = ThreadPhase::Running;
                }
                self.set_own_state(o.id, Some(OwnGuessState::Aborted));
            }
        }

        // 5. Incarnation bump (§4.1.2) if any own guess aborted: thread
        //    index resets to just below the earliest aborted fork.
        if let Some(min_idx) = min_aborted_index {
            self.incarnation = Incarnation(self.incarnation.0 + 1);
            // Never reset below a still-live or a retired thread index.
            let kept = self.highest_kept_thread(|t| discarding.contains(&t));
            self.max_thread = min_idx.saturating_sub(1).max(kept);
        }

        // 6. Clean up doomed guesses from CDG and thread metadata.
        self.cdg.remove_aborted(doomed.iter());
        for &tid in &discarding {
            self.drop_thread_meta(tid);
        }
        for &(tid, slot) in &effects.rollback_threads {
            self.restore_thread_meta(tid, slot);
        }
        // No surviving guard holds a doomed guess: every holder that held
        // one has a target, so it is gone or restored, and a restore keeps
        // only unresolved members. Only a holder can still hold anything.
        let threads = &self.threads;
        self.holders
            .retain(|t| threads.get(t).is_some_and(|t| !t.guard.is_empty()));
        debug_assert!(
            self.holders()
                .all(|t| t.guard.common_runs(&doomed).next().is_none()),
            "a guard outlived the abort of one of its members"
        );
        if !self.awaiting.is_empty() {
            self.rebuild_watch();
        }
        self.debug_check_watch();

        effects.discard_threads.sort_unstable();
        effects
    }

    /// Restore a thread's protocol metadata to checkpoint `slot` (the state
    /// at the end of interval `slot - 1`), filtering out since-resolved
    /// guesses.
    ///
    /// The guard on entering interval `slot` is read off the rollback map:
    /// it held every member the thread was forked with and every member it
    /// took on before `slot`, and membership only shrinks, by resolution,
    /// between two deliveries. So the restored guard is the current one
    /// less the entries recorded at `slot` or later, less what has resolved.
    fn restore_thread_meta(&mut self, tid: ForkIndex, slot: u32) {
        // Detach the thread while restoring so the history can be consulted
        // without cloning it just to appease the borrow checker.
        let mut t = match self.threads.remove(&tid) {
            Some(t) => t,
            None => return,
        };
        debug_assert!(slot >= 1, "slot 0 restores are thread discards");
        debug_assert!(slot <= t.interval, "restore past the thread's interval");
        let later = t.rollbacks.iter().filter(|(_, at)| at.interval >= slot);
        let later = Guard::from_ascending(later.map(|(run, _)| run));
        let kept = Guard::from_ascending(later.new_runs(&t.guard));
        let unresolved = kept.runs().iter().flat_map(|r| self.history.unresolved(*r));
        t.guard = Guard::from_ascending(unresolved);
        t.interval = slot - 1;
        t.phase = ThreadPhase::Running;
        // Dropping the entries of the truncated intervals and of what
        // resolved is filtering the map by the restored guard.
        t.rollbacks.retain_in(&t.guard);
        while t.acquired.back().is_some_and(|(at, _)| *at >= slot) {
            t.acquired.pop_back();
        }
        // It runs again, and is filed afresh at the next settling.
        t.finished = false;
        if let Some(m) = t.pin.take() {
            self.pins.remove(&(m, tid));
        }
        self.woken.push(tid);
        self.threads.insert(tid, t);
    }
}

/// Does `tgt` discard `tid` outright (rather than roll it back)?
fn target_discards(tgt: StateIndex, tid: ForkIndex) -> bool {
    tgt.thread < tid || (tgt.thread == tid && tgt.interval == 0)
}

/// Is `o`'s fork undone by `targets`: its creating thread discarded, or
/// rolled back to (or before) the fork point?
fn fork_undone(targets: &BTreeMap<ForkIndex, StateIndex>, o: &OwnGuess) -> bool {
    targets.get(&o.left_thread).is_some_and(|&tgt| {
        target_discards(tgt, o.left_thread) || tgt.interval <= o.forked_at.interval
    })
}

/// Keep the first occurrence of every entry, in order.
fn dedup_in_order<T: Ord + Copy>(list: &mut Vec<T>) {
    let mut seen = BTreeSet::new();
    list.retain(|x| seen.insert(*x));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Guard;
    use crate::ids::ProcessId;
    use crate::message::{DataKind, Envelope, MsgId};
    use crate::process::CoreConfig;
    use crate::value::Value;

    fn g(p: u32, n: u32) -> GuessId {
        GuessId::first(ProcessId(p), n)
    }

    fn env(to: u32, guard: Guard) -> Envelope {
        Envelope {
            id: MsgId(0),
            from: ProcessId(9),
            from_thread: 0,
            to: ProcessId(to),
            guard,
            table_acks: vec![],
            kind: DataKind::Send,
            payload: Value::Unit,
            label: "M".into(),
            link_seq: 0,
        }
    }

    fn client() -> ProcessCore {
        ProcessCore::new(ProcessId(0), CoreConfig::default())
    }

    fn server(p: u32) -> ProcessCore {
        ProcessCore::new(ProcessId(p), CoreConfig::default())
    }

    #[test]
    fn join_with_empty_guard_commits() {
        let mut c = client();
        let rec = c.fork(0, 1);
        match c.join_left_done(rec.guess, true) {
            JoinDecision::Commit { committed } => assert_eq!(committed, vec![rec.guess]),
            other => panic!("expected commit, got {other:?}"),
        }
        assert!(c.history.is_committed(rec.guess));
        // Right thread's guard no longer carries the guess.
        assert!(c.is_committed(rec.right_thread));
        assert_eq!(c.thread(rec.left_thread).phase, ThreadPhase::Done);
    }

    #[test]
    fn join_with_value_fault_aborts_right_thread() {
        let mut c = client();
        let rec = c.fork(0, 1);
        match c.join_left_done(rec.guess, false) {
            JoinDecision::Abort { effects } => {
                assert_eq!(effects.own_aborted, vec![rec.guess]);
                assert!(effects.discard_threads.contains(&rec.right_thread));
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(c.history.is_aborted(rec.guess));
        // Incarnation bumped, thread index reset (§4.1.2).
        assert_eq!(c.incarnation, Incarnation(1));
        assert_eq!(c.retries_at(1), 1);
    }

    #[test]
    fn join_with_own_guess_in_guard_is_time_fault() {
        // Figure 4: the left thread's final guard contains x1 itself.
        let mut c = client();
        let rec = c.fork(0, 1);
        let e = env(0, Guard::single(rec.guess));
        c.deliver(rec.left_thread, &e);
        match c.join_left_done(rec.guess, true) {
            JoinDecision::Abort { effects } => {
                assert!(effects.own_aborted.contains(&rec.guess));
            }
            other => panic!("expected time-fault abort, got {other:?}"),
        }
    }

    #[test]
    fn join_with_foreign_guard_awaits_precedence() {
        let mut c = client();
        let rec = c.fork(0, 1);
        let foreign = g(1, 5);
        c.deliver(rec.left_thread, &env(0, Guard::single(foreign)));
        match c.join_left_done(rec.guess, true) {
            JoinDecision::Await {
                guess,
                precedence_guard,
            } => {
                assert_eq!(guess, rec.guess);
                assert!(precedence_guard.contains(foreign));
            }
            other => panic!("expected await, got {other:?}"),
        }
        // Later COMMIT of the foreign guess triggers the cascade.
        let eff = c.on_commit(foreign);
        assert_eq!(eff.own_committed, vec![rec.guess]);
        assert!(c.history.is_committed(rec.guess));
    }

    #[test]
    fn foreign_abort_rolls_back_dependent_thread() {
        // A server (single thread) receives a message guarded by x1, then
        // x1 aborts: the thread must roll back to the end of the interval
        // preceding the acquisition.
        let mut s = server(2);
        let eff = s.deliver(0, &env(2, Guard::single(g(0, 1))));
        assert_eq!(eff.new_interval, Some(1));
        let abort = s.on_abort(g(0, 1));
        assert_eq!(abort.rollback_threads, vec![(0, 1)]);
        assert!(abort.discard_threads.is_empty());
        assert!(abort.own_aborted.is_empty());
        // Guard restored to empty, interval back to 0.
        assert!(s.thread(0).guard.is_empty());
        assert_eq!(s.thread(0).interval, 0);
    }

    #[test]
    fn abort_rolls_back_to_earliest_doomed_dependency() {
        // Acquire y1 at interval 1, x1 at interval 2; y1 aborts → rollback
        // to slot 1 and x1's (later) entry disappears with the restore.
        let mut s = server(2);
        s.deliver(0, &env(2, Guard::single(g(1, 1))));
        s.deliver(0, &env(2, Guard::single(g(0, 1))));
        assert_eq!(s.thread(0).interval, 2);
        let abort = s.on_abort(g(1, 1));
        assert_eq!(abort.rollback_threads, vec![(0, 1)]);
        assert!(s.thread(0).guard.is_empty());
        assert_eq!(s.thread(0).interval, 0);
    }

    #[test]
    fn abort_of_later_dependency_keeps_earlier_one() {
        let mut s = server(2);
        s.deliver(0, &env(2, Guard::single(g(1, 1))));
        s.deliver(0, &env(2, Guard::single(g(0, 1))));
        let abort = s.on_abort(g(0, 1));
        assert_eq!(abort.rollback_threads, vec![(0, 2)]);
        assert!(s.thread(0).guard.contains(g(1, 1)));
        assert!(!s.thread(0).guard.contains(g(0, 1)));
        assert_eq!(s.thread(0).interval, 1);
    }

    #[test]
    fn commit_removes_cdg_predecessors_too() {
        // §4.2.6: predecessors of a committed guess must have committed.
        let mut s = server(2);
        s.deliver(0, &env(2, Guard::from_iter([g(0, 1), g(1, 1)])));
        s.cdg.add_edge(g(0, 1), g(1, 1));
        s.on_commit(g(1, 1));
        assert!(s.history.is_committed(g(0, 1)));
        assert!(s.is_committed(0));
    }

    #[test]
    fn emptied_guard_leaves_no_rollback_points_and_no_holder() {
        // A server thread takes on x1 and x2 in two intervals, a client
        // thread is forked under y1: three rollback points, two holders.
        let (x1, x2) = (g(0, 1), g(0, 2));
        let mut s = server(2);
        s.deliver(0, &env(2, Guard::single(x1)));
        s.deliver(0, &env(2, Guard::single(x2)));
        let rec = s.fork(0, 1);
        s.deliver(rec.right_thread, &env(2, Guard::single(g(1, 1))));
        let holders = |s: &ProcessCore| Vec::from_iter(s.holders.iter().copied());
        assert_eq!(holders(&s), [0, rec.right_thread]);
        assert_eq!(s.thread(0).rollbacks.len(), 2);
        // The right thread records only what it acquired itself.
        assert_eq!(s.thread(rec.right_thread).rollbacks.len(), 1);
        // COMMIT(x1) is a history write; x1 and its point leave thread 0
        // when its guard is next read. COMMIT(x2) commits the thread at
        // once — and the read empties its guard, its map, and its place
        // among the holders.
        s.on_commit(x1);
        assert_eq!(s.history.uncommitted(&s.thread(0).guard), Guard::single(x2));
        s.settle(0);
        assert_eq!(s.thread(0).rollbacks.len(), 1);
        assert_eq!(holders(&s), [0, rec.right_thread]);
        s.on_commit(x2);
        assert!(s.is_committed(0));
        s.settle(0);
        assert!(s.thread(0).guard.is_empty() && s.thread(0).rollbacks.is_empty());
        assert_eq!(holders(&s), [rec.right_thread]);
        // A later dependency makes it a holder again, in index order.
        s.deliver(0, &env(2, Guard::single(g(1, 2))));
        assert_eq!(holders(&s), [0, rec.right_thread]);
    }

    #[test]
    fn late_precedence_never_resurrects_a_committed_guess() {
        // A server's thread depends on a two-deep pipeline x1, x2.
        let (x1, x2, y1) = (g(0, 1), g(0, 2), g(1, 1));
        let mut s = server(2);
        s.deliver(0, &env(2, Guard::from_iter([x1, x2])));
        assert_eq!(s.cdg.node_count(), 2);
        // COMMIT(x1) overtakes PRECEDENCE(x2, {x1}).
        s.on_commit(x1);
        assert!(!s.cdg.contains_node(x1));
        // The late PRECEDENCE names a committed member: no node comes
        // back, no edge is recorded.
        assert!(s.on_precedence(x2, &Guard::single(x1)).is_empty());
        assert!(!s.cdg.contains_node(x1));
        assert_eq!((s.cdg.node_count(), s.cdg.edge_count()), (1, 0));
        // Nor does one whose *subject* has committed.
        assert!(s.on_precedence(x1, &Guard::single(y1)).is_empty());
        assert!(!s.cdg.contains_node(x1) && !s.cdg.contains_node(y1));
        // So COMMIT(x2) finds no predecessor to commit again:
        // `remove_committed_guess` debug-asserts it runs once per guess
        // (the resurrected x1 used to be re-committed here), and a
        // repeated COMMIT is ignored outright.
        s.on_commit(x2);
        assert_eq!(s.on_commit(x2), CommitEffects::default());
        assert_eq!((s.cdg.node_count(), s.cdg.edge_count()), (0, 0));
        assert!(s.history.is_committed(x1) && s.history.is_committed(x2));
        assert!(s.is_committed(0));
    }

    #[test]
    fn commit_cascade_follows_the_awaiting_set() {
        // Two own guesses: x1 awaits on y1, x2 is still pending. The
        // live-guess bookkeeping tracks each state change, and only the
        // awaiting one is a cascade candidate.
        let mut c = client();
        let r1 = c.fork(0, 1);
        c.deliver(r1.left_thread, &env(0, Guard::single(g(1, 1))));
        assert!(matches!(
            c.join_left_done(r1.guess, true),
            JoinDecision::Await { .. }
        ));
        let r2 = c.fork(r1.right_thread, 2);
        assert_eq!(c.pending_own_guesses(), 2);
        assert_eq!(c.awaiting, BTreeSet::from([r1.guess]));
        assert!(!c.speculation_quiescent());
        // COMMIT(y1): x1 cascades; x2 (pending, guard now empty) does not.
        assert_eq!(c.on_commit(g(1, 1)).own_committed, vec![r1.guess]);
        assert!(c.awaiting.is_empty());
        assert_eq!(c.pending_own_guesses(), 1);
        // x2 aborts on a value fault: nothing live remains.
        assert!(matches!(
            c.join_left_done(r2.guess, false),
            JoinDecision::Abort { .. }
        ));
        assert_eq!(c.pending_own_guesses(), 0);
        assert!(c.speculation_quiescent());
    }

    #[test]
    fn precedence_cycle_aborts_both_guesses_figure7() {
        // X forked x1; its left thread later learns (via M1) that it
        // depends on z1, so its CDG has z1 → x1 and it awaits. Then
        // PRECEDENCE(z1, {x1}) arrives: edge x1 → z1 closes the cycle.
        let mut c = client();
        let rec = c.fork(0, 1);
        c.deliver(rec.left_thread, &env(0, Guard::single(g(2, 1))));
        match c.join_left_done(rec.guess, true) {
            JoinDecision::Await { .. } => {}
            other => panic!("expected await, got {other:?}"),
        }
        let effects = c.on_precedence(g(2, 1), &Guard::single(rec.guess));
        assert!(effects.own_aborted.contains(&rec.guess));
        assert!(c.history.is_aborted(g(2, 1)));
        assert!(c.history.is_aborted(rec.guess));
        // The left thread consumed M1{z1}, which is now an orphan: it rolls
        // back to before that receive (slot 1) and will replay S1's tail —
        // so no immediate sequential re-run is scheduled.
        assert!(effects.rollback_threads.contains(&(rec.left_thread, 1)));
        assert!(effects.rerun_sequential.is_empty());
        // The right thread dies with the guess.
        assert!(effects.discard_threads.contains(&rec.right_thread));
    }

    #[test]
    fn nested_fork_abort_cascades_to_descendants() {
        // Streaming: forks x1 (thread 1), then from thread 1 fork x2
        // (thread 2). Abort of x1 must also abort x2 and discard both
        // right threads.
        let mut c = client();
        let r1 = c.fork(0, 1);
        let r2 = c.fork(1, 1);
        let effects = c.on_abort(r1.guess);
        assert!(effects.own_aborted.contains(&r1.guess));
        assert!(effects.own_aborted.contains(&r2.guess));
        assert!(effects.discard_threads.contains(&1));
        assert!(effects.discard_threads.contains(&2));
        assert_eq!(c.incarnation, Incarnation(1));
    }

    #[test]
    fn timeout_abort_then_join_reports_already_aborted() {
        let mut c = client();
        let rec = c.fork(0, 1);
        // Timeout fires: the engine aborts the guess while S1 runs on.
        let eff = c.on_abort(rec.guess);
        assert!(eff.own_aborted.contains(&rec.guess));
        // No sequential rerun yet — S1 is still running.
        assert!(eff.rerun_sequential.is_empty());
        match c.join_left_done(rec.guess, true) {
            JoinDecision::AlreadyAborted { guess } => assert_eq!(guess, rec.guess),
            other => panic!("expected AlreadyAborted, got {other:?}"),
        }
    }

    #[test]
    fn abort_is_idempotent() {
        let mut s = server(2);
        s.deliver(0, &env(2, Guard::single(g(0, 1))));
        let first = s.on_abort(g(0, 1));
        assert!(!first.is_empty());
        let second = s.on_abort(g(0, 1));
        assert!(second.is_empty());
    }

    #[test]
    fn unknown_guess_abort_is_noop_locally() {
        let mut s = server(2);
        let eff = s.on_abort(g(0, 7));
        assert!(eff.is_empty());
        assert!(s.history.is_aborted(g(0, 7)));
    }

    #[test]
    fn commit_cascade_chains_through_own_guesses() {
        // x1 awaits on {y1}; x2 awaits on {y1} too (both left threads
        // terminated). COMMIT(y1) commits both.
        let mut c = client();
        let r1 = c.fork(0, 1);
        c.deliver(r1.left_thread, &env(0, Guard::single(g(1, 1))));
        assert!(matches!(
            c.join_left_done(r1.guess, true),
            JoinDecision::Await { .. }
        ));
        let r2 = c.fork(r1.right_thread, 2);
        c.deliver(r2.left_thread, &env(0, Guard::single(g(1, 1))));
        assert!(matches!(
            c.join_left_done(r2.guess, true),
            JoinDecision::Await { .. }
        ));
        let eff = c.on_commit(g(1, 1));
        assert!(eff.own_committed.contains(&r1.guess));
        assert!(eff.own_committed.contains(&r2.guess));
    }

    #[test]
    fn a_commit_that_readies_several_guesses_commits_them_smallest_first() {
        // Thread 0 depends on y1 and forks x1, then x2: both guesses have
        // thread 0 as their left thread, so both await y1 and are filed
        // under it. x3, forked from x1's right thread, awaits x1 as well.
        let mut c = client();
        c.deliver(0, &env(0, Guard::single(g(1, 1))));
        let r1 = c.fork(0, 1);
        let r2 = c.fork(0, 1);
        let r3 = c.fork(r1.right_thread, 1);
        for r in [&r3, &r2, &r1] {
            assert!(matches!(
                c.join_left_done(r.guess, true),
                JoinDecision::Await { .. }
            ));
        }
        // COMMIT(y1) readies x1 and x2 at once, and x1's commit readies x3,
        // which is still committed after x2: a rescan after every commit
        // takes the smallest ready guess each time.
        let committed = c.on_commit(g(1, 1)).own_committed;
        assert_eq!(committed, vec![r1.guess, r2.guess, r3.guess]);
        assert!(c.awaiting.is_empty() && c.ready.is_empty());
    }

    #[test]
    fn await_then_foreign_abort_rolls_left_thread_back() {
        // The left thread acquired y1 *during* S1, then awaited with guard
        // {y1}. ABORT(y1) orphans that part of S1: the left thread rolls
        // back and replays; the guess (a CDG successor of y1) aborts; no
        // immediate S2 re-run (the replayed join will see AlreadyAborted).
        let mut c = client();
        let rec = c.fork(0, 1);
        c.deliver(rec.left_thread, &env(0, Guard::single(g(1, 1))));
        assert!(matches!(
            c.join_left_done(rec.guess, true),
            JoinDecision::Await { .. }
        ));
        let eff = c.on_abort(g(1, 1));
        assert!(eff.own_aborted.contains(&rec.guess));
        assert!(eff.rollback_threads.contains(&(0, 1)));
        assert!(eff.rerun_sequential.is_empty());
        assert_eq!(c.thread(0).interval, 0);
        // The fork itself survived (it happened at interval 0, before the
        // contaminated receive), so the own record stays, marked aborted.
        assert_eq!(
            c.own.get(&rec.guess).map(|o| o.state),
            Some(OwnGuessState::Aborted)
        );
    }

    #[test]
    fn timeout_abort_while_awaiting_reruns_sequentially() {
        // The guess awaited on a *pre-fork* dependency is impossible (the
        // fork copies the guard), so model the realistic case: the timeout
        // (or an unrelated decision) aborts the guess while the left
        // thread's guard holds a foreign, *unaborted* guess acquired
        // during S1 — the left thread itself is untouched, so S2 re-runs
        // sequentially at once.
        let mut c = client();
        let rec = c.fork(0, 1);
        c.deliver(rec.left_thread, &env(0, Guard::single(g(1, 1))));
        assert!(matches!(
            c.join_left_done(rec.guess, true),
            JoinDecision::Await { .. }
        ));
        // Timeout fires on our own guess; y1 is still live, so the left
        // thread has no rollback target.
        let eff = c.on_abort(rec.guess);
        assert!(eff.own_aborted.contains(&rec.guess));
        assert!(eff.rerun_sequential.contains(&rec.guess));
        assert!(eff.rollback_threads.is_empty());
        assert!(eff.discard_threads.contains(&rec.right_thread));
        // y1 remains in the left thread's guard: the sequential S2 will
        // still be guarded by it.
        assert!(c.thread(rec.left_thread).guard.contains(g(1, 1)));
    }
}
