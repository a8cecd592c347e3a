//! The member-by-member abort cascade: what `apply_abort` computed before
//! it worked run by run, kept as the reference the run-wise one is checked
//! against. Its scans cost holders × guard members and holders × doomed
//! guesses per pass, so nothing but the checks calls it.

use super::AbortEffects;
use crate::guard::Run;
use crate::ids::{ForkIndex, GuessId, Incarnation, StateIndex};
use crate::process::{
    GuessResolution, OwnGuessState, ProcessCore, ResolutionCause, ThreadMeta, ThreadPhase,
};
use std::collections::{BTreeMap, BTreeSet};

impl ProcessCore {
    /// [`ProcessCore::on_abort`], answered member by member: every holder's
    /// every guard member is looked at for implied aborts, every doomed
    /// guess for rollback targets, every own guess ever forked for undone
    /// forks. The reference the run-wise abort is held to — in debug
    /// builds on every abort, and by `tests/reference_models.rs`.
    #[doc(hidden)]
    pub fn on_abort_memberwise(&mut self, g: GuessId) -> AbortEffects {
        self.apply_abort_memberwise(g, ResolutionCause::Explicit)
    }

    pub(super) fn apply_abort_memberwise(
        &mut self,
        root: GuessId,
        cause: ResolutionCause,
    ) -> AbortEffects {
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

        // 1. Doomed set: root + transitive CDG successors (guesses whose
        //    commit was already known to causally follow root).
        let mut doomed: BTreeSet<GuessId> = BTreeSet::from([root]);
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            for s in self.cdg.successors(n) {
                if doomed.insert(s) {
                    stack.push(s);
                }
            }
        }

        // 2. Fixpoint: thread rollback targets can invalidate forks, whose
        //    guesses join the doomed set, which can deepen targets.
        fn target_discards(tgt: StateIndex, tid: ForkIndex) -> bool {
            tgt.thread < tid || (tgt.thread == tid && tgt.interval == 0)
        }
        let mut targets: BTreeMap<ForkIndex, StateIndex> = BTreeMap::new();
        loop {
            for d in &doomed {
                self.history.record_abort(*d);
            }
            // Implicit aborts (same process, same incarnation, later index)
            // apply to any guess currently appearing in a guard.
            let mut implied: BTreeSet<GuessId> = BTreeSet::new();
            for t in self.holders() {
                for g in t.guard.iter() {
                    if !doomed.contains(&g) && self.history.is_aborted(g) {
                        implied.insert(g);
                    }
                }
            }
            doomed.extend(implied.iter().copied());

            // Compute per-thread rollback targets: the earliest rollback
            // point among doomed guesses in that thread's guard (§4.2.7).
            let mut new_targets: BTreeMap<ForkIndex, StateIndex> = BTreeMap::new();
            for t in self.holders() {
                if let Some(tgt) = doomed.iter().filter_map(|d| t.rollback_point(*d)).min() {
                    new_targets.insert(t.index, tgt);
                }
            }

            // A fork is undone if its creating thread is discarded or rolls
            // back to (or before) the fork point; the guess then joins the
            // doomed set.
            let mut newly_doomed: Vec<GuessId> = Vec::new();
            for o in self.own.values() {
                if doomed.contains(&o.id) || o.state != OwnGuessState::Pending {
                    continue;
                }
                let fork_undone = match new_targets.get(&o.left_thread) {
                    Some(&tgt) => {
                        target_discards(tgt, o.left_thread) || tgt.interval <= o.forked_at.interval
                    }
                    None => false,
                };
                if fork_undone {
                    newly_doomed.push(o.id);
                }
            }
            let grew = newly_doomed.iter().any(|g| !doomed.contains(g));
            doomed.extend(newly_doomed);
            if !grew && new_targets == targets {
                targets = new_targets;
                break;
            }
            targets = new_targets;
        }

        // 3. Partition threads into discarded vs rolled back.
        for (&tid, &tgt) in &targets {
            if target_discards(tgt, tid) {
                effects.discard_threads.push(tid);
            } else {
                debug_assert_eq!(tgt.thread, tid);
                effects.rollback_threads.push((tid, tgt.interval));
            }
        }

        // 4. Own guesses in the doomed set: record aborts, count retries,
        //    decide which need sequential re-execution now.
        let mut min_aborted_index: Option<ForkIndex> = None;
        for d in doomed.iter() {
            if d.process != self.id {
                continue;
            }
            // Note: own guesses of *older* incarnations may still be
            // pending (a later fork aborted first and bumped the
            // incarnation); they are matched by id, not by incarnation.
            if let Some(o) = self.own.get(d).cloned() {
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
                // Root aborts count as a retry and a failed success
                // sample; cascade victims only release their in-flight
                // slot (they were dependent, not wrong).
                self.spec_resolved(o.site, false, o.id == root);
                min_aborted_index =
                    Some(min_aborted_index.map_or(o.id.index, |m| m.min(o.id.index)));
                // The right thread dies with the guess (its guard contains
                // it with rollback point (n, 0)); ensure it is listed even
                // if it had already terminated its protocol bookkeeping.
                if !effects.discard_threads.contains(&o.right_thread)
                    && self.threads.contains_key(&o.right_thread)
                {
                    effects.discard_threads.push(o.right_thread);
                }
                let fork_undone = match targets.get(&o.left_thread) {
                    Some(&tgt) => {
                        target_discards(tgt, o.left_thread) || tgt.interval <= o.forked_at.interval
                    }
                    None => false,
                };
                if fork_undone {
                    // Fork undone entirely; forget the record (replay may
                    // re-fork under the new incarnation).
                    self.set_own_state(*d, None);
                } else {
                    // Fork stands but its guess is dead. If S1 has already
                    // finished and the left thread is not being rolled
                    // back, S2 re-runs sequentially right now; otherwise
                    // the engine learns of the abort at join time
                    // (JoinDecision::AlreadyAborted) or during S1 replay.
                    let left_untouched = !targets.contains_key(&o.left_thread);
                    let awaiting = |t: &ThreadMeta| t.phase == ThreadPhase::AwaitingResolution;
                    if left_untouched && self.threads.get(&o.left_thread).is_some_and(awaiting) {
                        effects.rerun_sequential.push(o.id);
                        self.thread_mut(o.left_thread).phase = ThreadPhase::Running;
                    }
                    self.set_own_state(*d, Some(OwnGuessState::Aborted));
                }
            }
        }

        // 5. Incarnation bump (§4.1.2) if any own guess aborted: thread
        //    index resets to just below the earliest aborted fork.
        if let Some(min_idx) = min_aborted_index {
            self.incarnation = Incarnation(self.incarnation.0 + 1);
            // Never reset below a still-live or a retired thread index.
            let kept = self.highest_kept_thread(|t| effects.discard_threads.contains(&t));
            self.max_thread = min_idx.saturating_sub(1).max(kept);
        }

        // 6. Clean up doomed guesses from CDG and thread metadata.
        self.cdg.remove_aborted(doomed.iter().copied());
        for &tid in &effects.discard_threads {
            self.drop_thread_meta(tid);
        }
        let rollbacks = effects.rollback_threads.clone();
        for (tid, slot) in rollbacks {
            self.restore_thread_meta(tid, slot);
        }
        // Drop any remaining guard entries for doomed guesses (threads that
        // had the guess but whose rollback target was superseded by an even
        // earlier one are already restored; surviving threads should not
        // retain doomed entries).
        for t in self.threads.values_mut().filter(|t| !t.guard.is_empty()) {
            for d in &doomed {
                if t.guard.remove(*d) {
                    t.rollbacks.remove(Run::single(*d));
                }
            }
        }
        self.rebuild_holders();
        if !self.awaiting.is_empty() {
            self.rebuild_watch();
        }
        self.debug_check_watch();

        effects.discard_threads.sort_unstable();
        effects.discard_threads.dedup();
        effects
    }
}
