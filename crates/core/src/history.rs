//! Commit histories (§4.1.5) and incarnation start tables (§4.1.2).
//!
//! Each process maintains commit information about each process it
//! communicates with: for each guess, whether it has committed, aborted, or
//! is unknown. The paper asks for a sparse representation because "most
//! guesses are assumed to commit" — and they commit in stretches: what is
//! recorded about a process is kept as stretches of fork indexes with one
//! fate each (a pipeline that has committed its first 10 000 guesses is
//! one entry; the entries it absorbed are gone), the incarnation start
//! table provides *implicit aborts* for guesses superseded by a later
//! incarnation, and everything else is `Unknown`.
//!
//! Guards are runs of consecutive guesses, and the history answers for a
//! whole run at once: [`History::fates_in`] cuts a run into stretches of
//! one fate each, in time proportional to the records and incarnations
//! involved — not to the members.

use crate::guard::{Guard, Run};
use crate::ids::{ForkIndex, GuessId, Incarnation, ProcessId};
use std::collections::{btree_map, BTreeMap, HashMap};
use std::sync::Arc;

/// The resolution state of a guess, from this process's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fate {
    /// No COMMIT/ABORT/PRECEDENCE information yet (the default).
    Unknown,
    /// A COMMIT message for this guess was received (or inferred).
    Committed,
    /// An ABORT message for this guess was received (or inferred from a
    /// later incarnation's start).
    Aborted,
}

/// Incarnation start table for a single remote process (§4.1.5).
///
/// The table maps each incarnation `i` up to the latest heard of to the
/// fork index at which it began. From it we can decide which guesses of
/// earlier incarnations were implicitly aborted: if incarnation 2 of `x`
/// begins at index 3, then `x_{1,3}` and later guesses of incarnation 1
/// are aborted, while `x_{1,1}`, `x_{1,2}` stand.
///
/// It is kept as what was recorded, not one start per number: hearing of
/// incarnation `n` first fills every unheard-of number below it with the
/// same start, so the table is a few stretches of incarnations with one
/// start each, and recording costs one or two entries however far ahead
/// `n` is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncarnationTable {
    /// `last → start`: the incarnations after the previous entry's `last`
    /// up to this `last` began at `start`. Incarnation 0 starts at index 0
    /// before anything is recorded.
    stretches: BTreeMap<u32, ForkIndex>,
}

impl Default for IncarnationTable {
    fn default() -> Self {
        IncarnationTable::new()
    }
}

impl IncarnationTable {
    pub fn new() -> Self {
        IncarnationTable {
            stretches: BTreeMap::from([(0, 0)]),
        }
    }

    /// Highest incarnation we have heard of.
    pub fn latest(&self) -> Incarnation {
        Incarnation(self.stretches.keys().next_back().copied().unwrap_or(0))
    }

    /// Record that `inc` begins at fork index `start`. Later incarnations
    /// than any seen so far extend the table; re-recording an existing
    /// incarnation keeps the smallest start (starts never move forward).
    pub fn record(&mut self, inc: Incarnation, start: ForkIndex) {
        let i = inc.0;
        let Some((&last, &old)) = self.stretches.range(i..).next() else {
            // Unknown intermediate incarnations: assume they start no
            // later than the one we are recording.
            self.stretches.insert(i, start);
            return;
        };
        if old <= start {
            return;
        }
        // Cut `i` out of its stretch, which keeps its start on both sides.
        let first = self
            .stretches
            .range(..i)
            .next_back()
            .map_or(0, |(k, _)| k + 1);
        if first < i {
            self.stretches.insert(i - 1, old);
        }
        if last > i {
            self.stretches.insert(last, old);
        }
        self.stretches.insert(i, start);
    }

    pub fn start_of(&self, inc: Incarnation) -> Option<ForkIndex> {
        self.stretches.range(inc.0..).next().map(|(_, s)| *s)
    }

    /// Would [`record`](Self::record) modify the table? Lets the CoW
    /// history skip unsharing a table that already holds the information.
    fn record_would_change(&self, inc: Incarnation, start: ForkIndex) -> bool {
        self.start_of(inc).is_none_or(|s| s > start)
    }

    /// Is the guess *implicitly aborted* because a later incarnation started
    /// at or before its index? (§4.1.5: "Receipt of C_{2,3} can also be
    /// taken as an implicit abort of x_{1,3}".)
    pub fn implicitly_aborted(&self, inc: Incarnation, index: ForkIndex) -> bool {
        self.superseded_from(inc).is_some_and(|s| s <= index)
    }

    /// The lowest fork index at which some incarnation after `inc` starts:
    /// guesses of `inc` from there up are implicitly aborted.
    pub fn superseded_from(&self, inc: Incarnation) -> Option<ForkIndex> {
        let later = self.stretches.range(inc.0.checked_add(1)?..);
        later.map(|(_, s)| *s).min()
    }

    /// Does `a` logically precede `b` within this process's own fork order?
    /// Used when expanding compacted guards: `x_{i,m}` precedes `x_{j,n}`
    /// iff `m < n` and `x_{i,m}` was not aborted before `x_{j,n}` started.
    pub fn precedes(&self, a: (Incarnation, ForkIndex), b: (Incarnation, ForkIndex)) -> bool {
        let ((ia, ma), (ib, nb)) = (a, b);
        if ma >= nb || ia > ib {
            return false;
        }
        if ia == ib {
            return true;
        }
        // a survives into b's past iff no incarnation in (ia, ib] started at
        // or before a's index: the stretches from the one holding ia + 1 to
        // the one holding ib.
        for (&last, &start) in self.stretches.range(ia.0 + 1..) {
            if start <= ma {
                return false;
            }
            if last >= ib.0 {
                break;
            }
        }
        true
    }
}

/// What is recorded about one process's guesses: disjoint stretches of
/// fork indexes, `(incarnation, lo) → (hi, fate)`, with touching stretches
/// of one fate merged — a pipeline's commits are one entry however many
/// there were.
#[derive(Debug, Clone, Default, PartialEq)]
struct PeerFates(BTreeMap<(Incarnation, ForkIndex), (ForkIndex, Fate)>);

impl PeerFates {
    /// The recorded stretch `(lo, hi, fate)` holding `index`.
    fn stretch_at(
        &self,
        inc: Incarnation,
        index: ForkIndex,
    ) -> Option<(ForkIndex, ForkIndex, Fate)> {
        let (&(i, lo), &(hi, fate)) = self.0.range(..=(inc, index)).next_back()?;
        (i == inc && index <= hi).then_some((lo, hi, fate))
    }

    fn get(&self, inc: Incarnation, index: ForkIndex) -> Option<Fate> {
        self.stretch_at(inc, index).map(|(_, _, fate)| fate)
    }

    /// Record `fate` for one guess: cut it out of the stretch that held it
    /// (the last word wins, as it always has), then join it to the
    /// neighbours of the same fate.
    fn set(&mut self, inc: Incarnation, index: ForkIndex, fate: Fate) {
        if let Some((lo, hi, old)) = self.stretch_at(inc, index) {
            self.0.remove(&(inc, lo));
            if lo < index {
                self.0.insert((inc, lo), (index - 1, old));
            }
            if index < hi {
                self.0.insert((inc, index + 1), (hi, old));
            }
        }
        let same = |at: Option<ForkIndex>| {
            let near = at.and_then(|at| self.stretch_at(inc, at));
            near.filter(|(_, _, f)| *f == fate)
        };
        let lo = same(index.checked_sub(1)).map_or(index, |(lo, _, _)| lo);
        let hi = same(index.checked_add(1)).map_or(index, |(_, hi, _)| hi);
        if hi > index {
            self.0.remove(&(inc, index + 1));
        }
        self.0.insert((inc, lo), (hi, fate));
    }
}

/// Commit history across all remote processes.
///
/// Both maps are keyed per peer and `Arc`-shared: cloning a history (an
/// interval checkpoint, or an engine snapshotting a core) bumps one
/// reference count per peer instead of copying every entry, and a later
/// write unshares only the single peer's record it touches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    fates: HashMap<ProcessId, Arc<PeerFates>>,
    incarnations: HashMap<ProcessId, Arc<IncarnationTable>>,
    /// Bumped by every write that can turn some guess's fate into
    /// `Aborted`: an explicit abort entry, or an incarnation row that is
    /// new or moved down. See [`History::aborts_learned`].
    aborts_learned: u64,
    /// Bumped by every recorded commit. See [`History::commits`].
    commits: u64,
}

/// A run cut into stretches of one fate each, ascending
/// ([`History::fates_in`]).
pub struct FateRuns<'a> {
    run: Run,
    /// Next index to classify; past `run.hi` when done.
    from: u64,
    /// The recorded stretches from the one holding `from` on.
    recorded: Option<btree_map::Range<'a, (Incarnation, ForkIndex), (ForkIndex, Fate)>>,
    next_recorded: Option<(ForkIndex, ForkIndex, Fate)>,
    /// Indexes from here up are implicitly aborted unless recorded
    /// otherwise.
    superseded: Option<ForkIndex>,
}

impl FateRuns<'_> {
    fn advance(&mut self) {
        let next = self.recorded.as_mut().and_then(Iterator::next);
        self.next_recorded = next.map(|(&(_, lo), &(hi, fate))| (lo, hi, fate));
    }
}

impl Iterator for FateRuns<'_> {
    type Item = (Run, Fate);

    fn next(&mut self) -> Option<(Run, Fate)> {
        let hi = self.run.hi;
        if self.from > hi as u64 {
            return None;
        }
        let from = self.from as ForkIndex;
        let (upto, fate) = match self.next_recorded {
            Some((lo, upto, fate)) if lo <= from => {
                self.advance();
                (upto.min(hi), fate)
            }
            recorded => {
                // Nothing recorded from here to the next stretch or the
                // incarnation boundary.
                let standing = self.superseded.filter(|s| from < *s);
                let stop = recorded
                    .map(|(lo, _, _)| lo)
                    .into_iter()
                    .chain(standing)
                    .min();
                let fate = match standing.is_some() || self.superseded.is_none() {
                    true => Fate::Unknown,
                    false => Fate::Aborted,
                };
                (stop.map_or(hi, |s| (s - 1).min(hi)), fate)
            }
        };
        self.from = upto as u64 + 1;
        let stretch = Run {
            lo: from,
            hi: upto,
            ..self.run
        };
        Some((stretch, fate))
    }
}

impl History {
    pub fn new() -> Self {
        History::default()
    }

    /// The fate of a guess: explicit record, else implicit abort via the
    /// incarnation table, else `Unknown`.
    pub fn fate(&self, g: GuessId) -> Fate {
        if let Some(f) = self
            .fates
            .get(&g.process)
            .and_then(|m| m.get(g.incarnation, g.index))
        {
            return f;
        }
        if let Some(t) = self.incarnations.get(&g.process) {
            if t.implicitly_aborted(g.incarnation, g.index) {
                return Fate::Aborted;
            }
        }
        Fate::Unknown
    }

    /// The fates of a run's members, as maximal-or-shorter stretches of one
    /// fate each, ascending: [`fate`](Self::fate) for every member at the
    /// cost of the records that fall inside the run.
    pub fn fates_in(&self, run: Run) -> FateRuns<'_> {
        let table = self.incarnations.get(&run.process);
        let recorded = self.fates.get(&run.process).map(|m| {
            let held = m.stretch_at(run.incarnation, run.lo);
            let first = held.map_or(run.lo, |(lo, _, _)| lo);
            m.0.range((run.incarnation, first)..=(run.incarnation, run.hi))
        });
        let mut cut = FateRuns {
            run,
            from: run.lo as u64,
            recorded,
            next_recorded: None,
            superseded: table.and_then(|t| t.superseded_from(run.incarnation)),
        };
        cut.advance();
        cut
    }

    /// The stretches of `run` with no resolution recorded or implied.
    pub fn unresolved(&self, run: Run) -> impl Iterator<Item = Run> + '_ {
        let unknown = self.fates_in(run).filter(|(_, f)| *f == Fate::Unknown);
        unknown.map(|(stretch, _)| stretch)
    }

    /// [`fates_in`](Self::fates_in) over every run of a guard.
    pub fn fates_of<'a>(&'a self, guard: &'a Guard) -> impl Iterator<Item = (Run, Fate)> + 'a {
        guard.runs().iter().flat_map(|r| self.fates_in(*r))
    }

    /// The first member of `guard` (in guard order) known to have aborted
    /// — what makes a message an orphan (§4.2.3).
    pub fn first_aborted(&self, guard: &Guard) -> Option<GuessId> {
        let mut fates = self.fates_of(guard);
        fates
            .find(|(_, f)| *f == Fate::Aborted)
            .map(|(r, _)| r.first())
    }

    /// Has every member of `guard` committed? (Vacuously so for the empty
    /// guard.) A guard read through the commit history is empty exactly
    /// then.
    pub fn all_committed(&self, guard: &Guard) -> bool {
        self.fates_of(guard).all(|(_, f)| f == Fate::Committed)
    }

    /// `guard` read through the commit history: its members that have not
    /// committed.
    pub fn uncommitted(&self, guard: &Guard) -> Guard {
        let left = self.fates_of(guard).filter(|(_, f)| *f != Fate::Committed);
        Guard::from_ascending(left.map(|(r, _)| r))
    }

    pub fn is_aborted(&self, g: GuessId) -> bool {
        self.fate(g) == Fate::Aborted
    }

    pub fn is_committed(&self, g: GuessId) -> bool {
        self.fate(g) == Fate::Committed
    }

    /// Has `g` committed or aborted? One [`fate`](Self::fate) lookup — the
    /// test for "no longer a live dependency".
    pub fn is_resolved(&self, g: GuessId) -> bool {
        self.fate(g) != Fate::Unknown
    }

    /// A monotone stamp of this history's abort knowledge: while it reads
    /// the same, no guess that was not aborted has become aborted, so an
    /// orphan check (§4.2.3) that passed need not be repeated.
    pub fn aborts_learned(&self) -> u64 {
        self.aborts_learned
    }

    /// A monotone stamp of this history's commit knowledge: a guard read
    /// through the history while it read the same needs no second reading.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    fn set_fate(&mut self, g: GuessId, fate: Fate) {
        let m = self.fates.entry(g.process).or_default();
        if m.get(g.incarnation, g.index) != Some(fate) {
            Arc::make_mut(m).set(g.incarnation, g.index, fate);
            self.aborts_learned += (fate == Fate::Aborted) as u64;
            self.commits += (fate == Fate::Committed) as u64;
        }
    }

    /// Record a COMMIT message (§4.2.6).
    pub fn record_commit(&mut self, g: GuessId) {
        self.set_fate(g, Fate::Committed);
    }

    /// Record an ABORT message (§4.2.7). Also notes the incarnation bump:
    /// the owning process restarts `g.index` under `g.incarnation + 1`.
    pub fn record_abort(&mut self, g: GuessId) {
        self.set_fate(g, Fate::Aborted);
        let next = Incarnation(g.incarnation.0.saturating_add(1));
        self.record_incarnation(g.process, next, g.index);
    }

    /// Record a PRECEDENCE message (§4.2.8: "we set `History[z_n]` = unknown").
    pub fn record_unknown(&mut self, g: GuessId) {
        let known = self
            .fates
            .get(&g.process)
            .and_then(|m| m.get(g.incarnation, g.index));
        if known.is_none() {
            self.set_fate(g, Fate::Unknown);
        }
    }

    /// Note that a message mentioned guess `g`, which implies incarnation
    /// `g.incarnation` of its process exists and started at or before
    /// `g.index`.
    pub fn observe_guess(&mut self, g: GuessId) {
        if g.incarnation.0 > 0 {
            self.record_incarnation(g.process, g.incarnation, g.index);
        }
    }

    /// [`observe_guess`](Self::observe_guess) for every member of a guard:
    /// only the lowest member of each run can move a start.
    pub fn observe_guard(&mut self, guard: &Guard) {
        for run in guard.runs() {
            self.observe_guess(run.first());
        }
    }

    fn record_incarnation(&mut self, p: ProcessId, inc: Incarnation, start: ForkIndex) {
        let t = self.incarnations.entry(p).or_default();
        if t.record_would_change(inc, start) {
            Arc::make_mut(t).record(inc, start);
            self.aborts_learned += 1;
        }
    }

    pub fn incarnation_table(&self, p: ProcessId) -> Option<&IncarnationTable> {
        self.incarnations.get(&p).map(|t| t.as_ref())
    }

    /// Number of records held: one per *stretch* of guesses recorded with
    /// one fate. What a run that does not end must keep bounded.
    pub fn explicit_entries(&self) -> usize {
        self.fates.values().map(|m| m.0.len()).sum()
    }

    /// Does this history share a peer's fate record with `other`? (Test
    /// hook for the checkpoint structural-sharing guarantee.)
    pub fn shares_peer_storage_with(&self, other: &History, p: ProcessId) -> bool {
        match (self.fates.get(&p), other.fates.get(&p)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(p: u32, i: u32, n: u32) -> GuessId {
        GuessId::new(ProcessId(p), Incarnation(i), n)
    }

    #[test]
    fn default_fate_is_unknown() {
        let h = History::new();
        assert_eq!(h.fate(gid(0, 0, 1)), Fate::Unknown);
    }

    #[test]
    fn commit_and_abort_are_recorded() {
        let mut h = History::new();
        h.record_commit(gid(0, 0, 1));
        h.record_abort(gid(1, 0, 2));
        assert!(h.is_committed(gid(0, 0, 1)));
        assert!(h.is_aborted(gid(1, 0, 2)));
        assert!(h.is_resolved(gid(0, 0, 1)) && h.is_resolved(gid(1, 0, 2)));
        // Implicitly aborted counts; unheard-of and PRECEDENCE-only do not.
        assert!(h.is_resolved(gid(1, 0, 3)));
        h.record_unknown(gid(2, 0, 1));
        assert!(!h.is_resolved(gid(2, 0, 1)) && !h.is_resolved(gid(3, 0, 1)));
    }

    #[test]
    fn abort_implies_later_same_incarnation_guesses_aborted() {
        // ABORT(y_{0,2}) means incarnation 1 of y starts at index 2, so
        // y_{0,3} is implicitly aborted while y_{0,1} is not.
        let mut h = History::new();
        h.record_abort(gid(1, 0, 2));
        assert!(h.is_aborted(gid(1, 0, 3)));
        assert_eq!(h.fate(gid(1, 0, 1)), Fate::Unknown);
    }

    #[test]
    fn paper_example_incarnation_2_starts_at_3() {
        // §4.1.5: if incarnation 2 of x begins at event 3, then x_{2,4} is
        // preceded by x_{1,1}, x_{1,2}, x_{2,3} but not x_{1,3}; receipt of
        // C_{2,3} is an implicit abort of x_{1,3}.
        let mut t = IncarnationTable::new();
        t.record(Incarnation(1), 0);
        t.record(Incarnation(2), 3);
        assert!(t.precedes((Incarnation(1), 1), (Incarnation(2), 4)));
        assert!(t.precedes((Incarnation(1), 2), (Incarnation(2), 4)));
        assert!(t.precedes((Incarnation(2), 3), (Incarnation(2), 4)));
        assert!(!t.precedes((Incarnation(1), 3), (Incarnation(2), 4)));
        assert!(t.implicitly_aborted(Incarnation(1), 3));
        assert!(!t.implicitly_aborted(Incarnation(1), 2));
    }

    #[test]
    fn observe_guess_extends_incarnation_table() {
        let mut h = History::new();
        h.observe_guess(gid(0, 2, 3));
        // Incarnation 2 starting at 3 implicitly aborts x_{1,3} and x_{0,5}.
        assert!(h.is_aborted(gid(0, 1, 3)));
        assert!(h.is_aborted(gid(0, 0, 5)));
        assert_eq!(h.fate(gid(0, 1, 2)), Fate::Unknown);
    }

    #[test]
    fn precedence_message_marks_unknown_without_clobbering() {
        let mut h = History::new();
        h.record_commit(gid(0, 0, 1));
        h.record_unknown(gid(0, 0, 1));
        assert!(h.is_committed(gid(0, 0, 1)));
        h.record_unknown(gid(0, 0, 2));
        assert_eq!(h.fate(gid(0, 0, 2)), Fate::Unknown);
    }

    #[test]
    fn clone_shares_per_peer_storage_until_write() {
        let mut h = History::new();
        h.record_commit(gid(0, 0, 1));
        h.record_commit(gid(1, 0, 1));
        let snap = h.clone();
        assert!(h.shares_peer_storage_with(&snap, ProcessId(0)));
        assert!(h.shares_peer_storage_with(&snap, ProcessId(1)));
        // A write to peer 0 unshares only peer 0's record.
        h.record_commit(gid(0, 0, 3));
        assert!(!h.shares_peer_storage_with(&snap, ProcessId(0)));
        assert!(h.shares_peer_storage_with(&snap, ProcessId(1)));
        // Re-recording known information keeps sharing intact.
        h.record_commit(gid(1, 0, 1));
        h.observe_guess(gid(1, 0, 3));
        assert!(h.shares_peer_storage_with(&snap, ProcessId(1)));
        assert_eq!(snap.explicit_entries(), 2);
        assert_eq!(h.explicit_entries(), 3);
    }

    #[test]
    fn incarnation_table_latest() {
        let mut t = IncarnationTable::new();
        assert_eq!(t.latest(), Incarnation(0));
        t.record(Incarnation(3), 9);
        assert_eq!(t.latest(), Incarnation(3));
        assert_eq!(t.start_of(Incarnation(2)), Some(9));
    }
}
