//! Commit histories (§4.1.5) and incarnation start tables (§4.1.2).
//!
//! Each process maintains commit information about each process it
//! communicates with: for each guess, whether it has committed, aborted, or
//! is unknown. The paper suggests a sparse representation because "most
//! guesses are assumed to commit"; we store explicit entries and treat
//! missing entries as `Unknown`, with the incarnation start table providing
//! *implicit aborts* for guesses superseded by a later incarnation.

use crate::ids::{ForkIndex, GuessId, Incarnation, ProcessId};
use std::collections::{BTreeMap, HashMap};
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
/// `starts[i]` is the fork index at which incarnation `i` began. From it we
/// can decide which guesses of earlier incarnations were implicitly aborted:
/// if incarnation 2 of `x` begins at index 3, then `x_{1,3}` and later
/// guesses of incarnation 1 are aborted, while `x_{1,1}`, `x_{1,2}` stand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncarnationTable {
    /// `starts[i]` = first fork index of incarnation `i`. Incarnation 0
    /// implicitly starts at index 0 even before any entry is recorded.
    starts: Vec<ForkIndex>,
    /// `changed[i]` = the start of incarnation `i` was lowered after it was
    /// first recorded. The wire codec suppresses a table row for a peer only
    /// while its value has never changed: then every copy the peer was ever
    /// sent equals the current value, and the receiver's ack ledger
    /// reconstructs it exactly (see `wire`).
    changed: Vec<bool>,
}

impl Default for IncarnationTable {
    fn default() -> Self {
        IncarnationTable::new()
    }
}

impl IncarnationTable {
    pub fn new() -> Self {
        IncarnationTable {
            starts: vec![0],
            changed: vec![false],
        }
    }

    /// Highest incarnation we have heard of.
    pub fn latest(&self) -> Incarnation {
        Incarnation(self.starts.len().saturating_sub(1) as u32)
    }

    /// Record that `inc` begins at fork index `start`. Later incarnations
    /// than any seen so far extend the table; re-recording an existing
    /// incarnation keeps the smallest start (starts never move forward).
    pub fn record(&mut self, inc: Incarnation, start: ForkIndex) {
        let i = inc.0 as usize;
        while self.starts.len() <= i {
            // Unknown intermediate incarnations: assume they start no later
            // than the one we are recording.
            self.starts.push(start);
            self.changed.push(false);
        }
        if self.starts[i] > start {
            self.starts[i] = start;
            self.changed[i] = true;
        }
    }

    /// Has `inc`'s start ever been lowered since it was first recorded?
    pub fn start_changed(&self, inc: Incarnation) -> bool {
        self.changed.get(inc.0 as usize).copied().unwrap_or(false)
    }

    pub fn start_of(&self, inc: Incarnation) -> Option<ForkIndex> {
        self.starts.get(inc.0 as usize).copied()
    }

    /// Would [`record`](Self::record) modify the table? Lets the CoW
    /// history skip unsharing a table that already holds the information.
    fn record_would_change(&self, inc: Incarnation, start: ForkIndex) -> bool {
        match self.starts.get(inc.0 as usize) {
            Some(&s) => s > start,
            None => true,
        }
    }

    /// Is the guess *implicitly aborted* because a later incarnation started
    /// at or before its index? (§4.1.5: "Receipt of C_{2,3} can also be
    /// taken as an implicit abort of x_{1,3}".)
    pub fn implicitly_aborted(&self, inc: Incarnation, index: ForkIndex) -> bool {
        self.starts
            .iter()
            .enumerate()
            .skip(inc.0 as usize + 1)
            .any(|(_, &s)| s <= index)
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
        // or before a's index.
        !(ia.0 + 1..=ib.0).any(|i| {
            self.start_of(Incarnation(i))
                .map(|s| s <= ma)
                .unwrap_or(false)
        })
    }
}

/// Commit history across all remote processes.
///
/// Both maps are keyed per peer and `Arc`-shared: cloning a history (an
/// interval checkpoint, or an engine snapshotting a core) bumps one
/// reference count per peer instead of copying every entry, and a later
/// write unshares only the single peer's map it touches.
#[derive(Debug, Clone, Default)]
pub struct History {
    fates: HashMap<ProcessId, Arc<FateMap>>,
    incarnations: HashMap<ProcessId, Arc<IncarnationTable>>,
    /// Bumped by every write that can turn some guess's fate into
    /// `Aborted`: an explicit abort entry, or an incarnation row that is
    /// new or moved down. See [`History::aborts_learned`].
    aborts_learned: u64,
}

/// Per-peer fate entries, keyed by (incarnation, fork index).
type FateMap = BTreeMap<(Incarnation, ForkIndex), Fate>;

impl History {
    pub fn new() -> Self {
        History::default()
    }

    /// The fate of a guess: explicit entry, else implicit abort via the
    /// incarnation table, else `Unknown`.
    pub fn fate(&self, g: GuessId) -> Fate {
        if let Some(m) = self.fates.get(&g.process) {
            if let Some(f) = m.get(&(g.incarnation, g.index)) {
                return *f;
            }
        }
        if let Some(t) = self.incarnations.get(&g.process) {
            if t.implicitly_aborted(g.incarnation, g.index) {
                return Fate::Aborted;
            }
        }
        Fate::Unknown
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

    fn set_fate(&mut self, g: GuessId, f: Fate) {
        let m = self.fates.entry(g.process).or_default();
        if m.get(&(g.incarnation, g.index)) != Some(&f) {
            Arc::make_mut(m).insert((g.incarnation, g.index), f);
            self.aborts_learned += (f == Fate::Aborted) as u64;
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
        self.record_incarnation(g.process, Incarnation(g.incarnation.0 + 1), g.index);
    }

    /// Record a PRECEDENCE message (§4.2.8: "we set `History[z_n]` = unknown").
    pub fn record_unknown(&mut self, g: GuessId) {
        let m = self.fates.entry(g.process).or_default();
        if !m.contains_key(&(g.incarnation, g.index)) {
            Arc::make_mut(m).insert((g.incarnation, g.index), Fate::Unknown);
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

    fn record_incarnation(&mut self, p: ProcessId, inc: Incarnation, start: ForkIndex) {
        let t = self.incarnations.entry(p).or_default();
        if t.record_would_change(inc, start) {
            Arc::make_mut(t).record(inc, start);
            self.aborts_learned += 1;
        }
    }

    /// Merge one incarnation-table row received on the wire (§4.1.5: a
    /// production format ships incarnation tables alongside compact guards).
    /// Same monotonicity as [`record`](IncarnationTable::record): starts
    /// only ever move down.
    pub fn observe_incarnation(&mut self, p: ProcessId, inc: Incarnation, start: ForkIndex) {
        if inc.0 > 0 {
            self.record_incarnation(p, inc, start);
        }
    }

    pub fn incarnation_table(&self, p: ProcessId) -> Option<&IncarnationTable> {
        self.incarnations.get(&p).map(|t| t.as_ref())
    }

    /// Number of explicit entries (diagnostics / E8 ablation).
    pub fn explicit_entries(&self) -> usize {
        self.fates.values().map(|m| m.len()).sum()
    }

    /// Drop explicit entries for committed guesses older than `keep_from`
    /// per process — fossil collection for long simulations.
    pub fn compact(&mut self, keep_from: &HashMap<ProcessId, ForkIndex>) {
        for (p, m) in self.fates.iter_mut() {
            let Some(&keep) = keep_from.get(p) else {
                continue;
            };
            let drops = m
                .iter()
                .any(|(&(_, idx), &f)| f == Fate::Committed && idx < keep);
            if drops {
                Arc::make_mut(m).retain(|&(_, idx), f| *f != Fate::Committed || idx >= keep);
            }
        }
    }

    /// Does this history share a peer's fate map with `other`? (Test hook
    /// for the checkpoint structural-sharing guarantee.)
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
    fn compact_drops_only_old_commits() {
        let mut h = History::new();
        h.record_commit(gid(0, 0, 1));
        h.record_commit(gid(0, 0, 5));
        h.record_abort(gid(0, 0, 7));
        let keep: HashMap<ProcessId, ForkIndex> = [(ProcessId(0), 5)].into();
        h.compact(&keep);
        assert_eq!(h.fate(gid(0, 0, 1)), Fate::Unknown); // forgotten
        assert!(h.is_committed(gid(0, 0, 5)));
        assert!(h.is_aborted(gid(0, 0, 7)));
    }

    #[test]
    fn clone_shares_per_peer_storage_until_write() {
        let mut h = History::new();
        h.record_commit(gid(0, 0, 1));
        h.record_commit(gid(1, 0, 1));
        let snap = h.clone();
        assert!(h.shares_peer_storage_with(&snap, ProcessId(0)));
        assert!(h.shares_peer_storage_with(&snap, ProcessId(1)));
        // A write to peer 0 unshares only peer 0's map.
        h.record_commit(gid(0, 0, 2));
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
    fn start_changed_tracks_lowered_starts() {
        let mut t = IncarnationTable::new();
        t.record(Incarnation(1), 5);
        assert!(!t.start_changed(Incarnation(1)));
        t.record(Incarnation(1), 7); // no-op: starts never move forward
        assert!(!t.start_changed(Incarnation(1)));
        t.record(Incarnation(1), 2);
        assert!(t.start_changed(Incarnation(1)));
        // Backfilled intermediates count as first recordings.
        t.record(Incarnation(3), 9);
        assert!(!t.start_changed(Incarnation(2)));
        assert!(!t.start_changed(Incarnation(3)));
    }

    #[test]
    fn observe_incarnation_merges_wire_rows() {
        let mut h = History::new();
        h.observe_incarnation(ProcessId(0), Incarnation(1), 3);
        assert!(h.is_aborted(gid(0, 0, 3)));
        assert_eq!(h.fate(gid(0, 0, 2)), Fate::Unknown);
        // Incarnation 0 rows are meaningless and ignored.
        h.observe_incarnation(ProcessId(1), Incarnation(0), 9);
        assert!(h.incarnation_table(ProcessId(1)).is_none());
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
