//! Commit guard sets (§3.1, §4.1.2).
//!
//! Every optimistic computation carries the set of *uncommitted guesses* it
//! transitively depends on. The guard set is appended to every outgoing
//! message; a receiver unions the incoming guard into its own. A computation
//! with an empty guard set is *committed* — its validity no longer depends
//! on any guess.
//!
//! ## Representation
//!
//! §4.1.2: "A thread may depend upon many guesses by the same process,
//! particularly if an optimization like call streaming is applied
//! repeatedly" — and then on a *stretch* of them: commits strip a guard from
//! the bottom, aborts from the top. A [`Guard`] stores [`Run`]s,
//! `x_{i,lo} ..= x_{i,hi}`: sorted, disjoint, never adjacent (runs that
//! touch are one run), so a set has one spelling and `Eq`/`Hash` are
//! structural. Up to [`Guard::INLINE_CAP`] runs live inline — a 500-deep
//! pipeline's guard is one, and forking under it or tagging a message with
//! it allocates nothing — and beyond that behind an `Arc`, so a fan-in
//! server's many-process tag clones by reference count. `iter()`,
//! `Display`, `Ord` and `len()` speak of the sorted member sequence,
//! whatever the run boundaries; a frame carries the runs as they are
//! (`wire`).

use crate::ids::{ForkIndex, GuessId, Incarnation, ProcessId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Consecutive guesses of one incarnation of one process:
/// `x_{i,lo} ..= x_{i,hi}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    pub process: ProcessId,
    pub incarnation: Incarnation,
    pub lo: ForkIndex,
    pub hi: ForkIndex,
}

impl Run {
    /// Bytes one run occupies in a guard tag's accounting — derived from
    /// the field widths, as `GuessId::WIRE_BYTES` is (a frame writes
    /// `hi − lo` in the last field's place).
    pub const WIRE_BYTES: usize = std::mem::size_of::<ProcessId>()
        + std::mem::size_of::<Incarnation>()
        + 2 * std::mem::size_of::<ForkIndex>();

    pub fn new(process: ProcessId, incarnation: Incarnation, lo: ForkIndex, hi: ForkIndex) -> Run {
        debug_assert!(lo <= hi, "a run has at least one member");
        Run {
            process,
            incarnation,
            lo,
            hi,
        }
    }

    pub fn single(g: GuessId) -> Run {
        Run::new(g.process, g.incarnation, g.index, g.index)
    }

    /// The member with fork index `index`.
    pub fn guess(&self, index: ForkIndex) -> GuessId {
        GuessId::new(self.process, self.incarnation, index)
    }

    pub fn first(&self) -> GuessId {
        self.guess(self.lo)
    }

    pub fn last(&self) -> GuessId {
        self.guess(self.hi)
    }

    #[allow(clippy::len_without_is_empty)] // never empty
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize + 1
    }

    pub fn contains(&self, g: GuessId) -> bool {
        self.owner() == (g.process, g.incarnation) && self.lo <= g.index && g.index <= self.hi
    }

    /// The members, ascending.
    pub fn iter(self) -> impl Iterator<Item = GuessId> {
        (self.lo..=self.hi).map(move |n| self.guess(n))
    }

    fn owner(&self) -> (ProcessId, Incarnation) {
        (self.process, self.incarnation)
    }

    /// Sort key: runs of a guard ascend by it, as their members do.
    fn key(&self) -> (ProcessId, Incarnation, ForkIndex) {
        (self.process, self.incarnation, self.lo)
    }

    /// Does `next` (not before `self` in key order) overlap or touch this
    /// run, so that the two are one?
    fn absorbs(&self, next: &Run) -> bool {
        self.owner() == next.owner() && next.lo as u64 <= self.hi as u64 + 1
    }
}

/// Placeholder for unused inline slots; never observable through the API.
const FILL: Run = Run {
    process: ProcessId(0),
    incarnation: Incarnation(0),
    lo: 0,
    hi: 0,
};

#[derive(Clone)]
enum Repr {
    Inline {
        n: u8,
        runs: [Run; Guard::INLINE_CAP],
    },
    Shared(Arc<[Run]>),
}

/// A commit guard set: the uncommitted guesses a computation depends upon.
///
/// Backed by sorted runs of consecutive guesses (inline up to
/// [`Guard::INLINE_CAP`] runs, `Arc`-shared above), so iteration order is
/// deterministic, which the simulator relies on for reproducible traces,
/// and so copying a guard — the per-message hot path — never costs more
/// than a few words however deep the pipeline behind it.
///
/// ```
/// use opcsp_core::{Guard, GuessId, ProcessId};
///
/// let x1 = GuessId::first(ProcessId(0), 1);
/// let mut guard = Guard::empty();
/// assert!(guard.is_empty());          // committed
/// guard.insert(x1);                   // now optimistic, guarded by x1
/// assert_eq!(guard.to_string(), "{x1}");
/// guard.remove(x1);                   // x1 committed
/// assert!(guard.is_empty());
/// ```
#[derive(Clone)]
pub struct Guard {
    repr: Repr,
}

/// Accumulates runs pushed in ascending order into a canonical guard,
/// merging the ones that touch; allocates only past the inline capacity.
pub(crate) struct RunBuf {
    n: usize,
    inline: [Run; Guard::INLINE_CAP],
    spill: Vec<Run>,
}

impl RunBuf {
    pub(crate) fn new() -> RunBuf {
        RunBuf {
            n: 0,
            inline: [FILL; Guard::INLINE_CAP],
            spill: Vec::new(),
        }
    }

    /// Append `run`, which starts no earlier than any run pushed before.
    pub(crate) fn push(&mut self, run: Run) {
        let last = match self.spill.last_mut() {
            Some(last) => Some(last),
            None => self.inline[..self.n].last_mut(),
        };
        if let Some(last) = last {
            debug_assert!(last.key() <= run.key(), "runs pushed out of order");
            if last.absorbs(&run) {
                last.hi = last.hi.max(run.hi);
                return;
            }
        }
        if self.n < Guard::INLINE_CAP {
            self.inline[self.n] = run;
            self.n += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(run);
        }
    }

    /// The guard pushed so far; shared storage exactly when its runs
    /// exceed `INLINE_CAP`.
    pub(crate) fn finish(self) -> Guard {
        let repr = match self.spill.is_empty() {
            true => Repr::Inline {
                n: self.n as u8,
                runs: self.inline,
            },
            false => Repr::Shared(self.spill.into()),
        };
        Guard { repr }
    }
}

impl Guard {
    /// Most runs kept inline (allocation-free); a guard of more runs moves
    /// to shared storage. A guard of at most this many *guesses* is
    /// therefore always inline.
    pub const INLINE_CAP: usize = 3;

    /// The empty guard set: a committed computation.
    pub fn empty() -> Guard {
        Guard::default()
    }

    /// A guard set containing exactly one guess.
    pub fn single(g: GuessId) -> Guard {
        Guard::from_ascending([Run::single(g)])
    }

    /// The guard spelled by `runs`, which ascend (and may touch).
    pub(crate) fn from_ascending(runs: impl IntoIterator<Item = Run>) -> Guard {
        let mut buf = RunBuf::new();
        runs.into_iter().for_each(|run| buf.push(run));
        buf.finish()
    }

    /// The union of the two sets.
    pub(crate) fn merged(&self, other: &Guard) -> Guard {
        let (mut a, mut b) = (self.runs(), other.runs());
        let mut out = RunBuf::new();
        while let (Some(x), Some(y)) = (a.first(), b.first()) {
            let next = match x.key() <= y.key() {
                true => &mut a,
                false => &mut b,
            };
            out.push(next[0]);
            *next = &next[1..];
        }
        a.iter().chain(b).for_each(|run| out.push(*run));
        out.finish()
    }

    /// The runs of consecutive guesses, ascending, disjoint and never
    /// adjacent — the canonical view every operation reads through.
    pub fn runs(&self) -> &[Run] {
        match &self.repr {
            Repr::Inline { n, runs } => &runs[..*n as usize],
            Repr::Shared(runs) => runs,
        }
    }

    /// True iff the computation carrying this guard is committed (§3.1:
    /// "If the commit guard set of a computation is empty then the commit
    /// guard predicate is vacuously true").
    pub fn is_empty(&self) -> bool {
        self.runs().is_empty()
    }

    /// Number of guesses in the set.
    pub fn len(&self) -> usize {
        self.runs().iter().map(Run::len).sum()
    }

    pub fn contains(&self, g: GuessId) -> bool {
        let runs = self.runs();
        let after = runs.partition_point(|r| r.key() <= (g.process, g.incarnation, g.index));
        after > 0 && runs[after - 1].contains(g)
    }

    /// Add a guess this computation now depends on. Returns true if it was
    /// not already present (i.e. a *new* dependency, which starts a new
    /// interval per §4.1.1). The next guess of a pipeline extends its run.
    pub fn insert(&mut self, g: GuessId) -> bool {
        let new = !self.contains(g);
        if new {
            *self = self.merged(&Guard::single(g));
        }
        new
    }

    /// Remove a guess whose predicate committed (§3.1: "When a predicate
    /// p_i in a computation's commit guard set commits, pi is removed from
    /// the set"). Returns true if it was present.
    ///
    /// Removing the end of a run moves its bound, removing from the middle
    /// splits it; a guard that does not hold `g` is left alone.
    pub fn remove(&mut self, g: GuessId) -> bool {
        let held = self.contains(g);
        if held {
            let cut = |r: &Run| match r.contains(g) {
                false => [Some(*r), None],
                true => [
                    (r.lo < g.index).then(|| Run::new(r.process, r.incarnation, r.lo, g.index - 1)),
                    (g.index < r.hi).then(|| Run::new(r.process, r.incarnation, g.index + 1, r.hi)),
                ],
            };
            *self = Guard::from_ascending(self.runs().iter().flat_map(cut).flatten());
        }
        held
    }

    /// Union another guard into this one (message receipt, fork: "the Guard
    /// is the union of the creating thread's Guard and the guess x_n").
    ///
    /// Unioning into an empty guard adopts the other's storage without
    /// copying; a union that adds nothing leaves storage untouched.
    pub fn union_with(&mut self, other: &Guard) {
        if self.is_empty() {
            self.repr = other.repr.clone();
        } else if self.new_runs(other).next().is_some() {
            *self = self.merged(other);
        }
    }

    /// The runs of `incoming` that `self` does not hold, ascending.
    pub fn new_runs<'a>(&'a self, incoming: &'a Guard) -> impl Iterator<Item = Run> + 'a {
        let theirs: &[Run] = match self.shares_storage_with(incoming) {
            true => &[],
            false => incoming.runs(),
        };
        NewRuns {
            mine: self.runs(),
            theirs: theirs.iter(),
            rest: None,
        }
    }

    /// The guesses present in `incoming` but not in `self` — the
    /// `Newguards` of §4.2.3's message-arrival processing.
    pub fn new_guards(&self, incoming: &Guard) -> Vec<GuessId> {
        self.new_runs(incoming).flat_map(Run::iter).collect()
    }

    /// Count of guesses `incoming` would add — used by the delivery
    /// optimization ("the one for which |Newguards| is smallest").
    pub fn new_guard_count(&self, incoming: &Guard) -> usize {
        self.new_runs(incoming).map(|r| r.len()).sum()
    }

    /// The guesses, ascending.
    pub fn iter(&self) -> impl Iterator<Item = GuessId> + '_ {
        self.runs().iter().flat_map(|r| r.iter())
    }

    /// Retain only guesses satisfying the predicate; returns removed ones.
    /// Storage is untouched when nothing is removed.
    pub fn retain(&mut self, mut keep: impl FnMut(GuessId) -> bool) -> Vec<GuessId> {
        let (kept, removed): (Vec<_>, Vec<_>) = self.iter().partition(|g| keep(*g));
        if !removed.is_empty() {
            *self = Guard::from_ascending(kept.into_iter().map(Run::single));
        }
        removed
    }

    /// Approximate wire size of a guard tag in bytes — a 2-byte count plus
    /// [`Run::WIRE_BYTES`] per run, which is what a frame carries — for the
    /// `guard_bytes` counters and E8.
    pub fn wire_size(&self) -> usize {
        2 + self.runs().len() * Run::WIRE_BYTES
    }

    /// Do `self` and `other` read the same heap allocation? Inline guards
    /// never do (they own none). Test hook for the O(1)-clone guarantee,
    /// and the fast path of the set operations.
    pub fn shares_storage_with(&self, other: &Guard) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Shared(mine), Repr::Shared(theirs)) => Arc::ptr_eq(mine, theirs),
            _ => false,
        }
    }
}

/// `theirs − mine`, run by run.
struct NewRuns<'a> {
    /// What of mine can still overlap what is left of theirs.
    mine: &'a [Run],
    theirs: std::slice::Iter<'a, Run>,
    /// The uncut upper part of the run of theirs in hand.
    rest: Option<Run>,
}

impl Iterator for NewRuns<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        loop {
            let rest = match self.rest.take() {
                Some(rest) => rest,
                None => *self.theirs.next()?,
            };
            let below = |m: &Run| (m.owner(), m.hi) < (rest.owner(), rest.lo);
            while self.mine.first().is_some_and(below) {
                self.mine = &self.mine[1..];
            }
            match self.mine.first() {
                // `m` reaches `rest.lo` or beyond: it overlaps iff it
                // starts inside.
                Some(m) if m.owner() == rest.owner() && m.lo <= rest.hi => {
                    if m.hi < rest.hi {
                        self.rest = Some(Run {
                            lo: m.hi + 1,
                            ..rest
                        });
                    }
                    if m.lo > rest.lo {
                        return Some(Run {
                            hi: m.lo - 1,
                            ..rest
                        });
                    }
                }
                _ => return Some(rest),
            }
        }
    }
}

impl Default for Guard {
    fn default() -> Guard {
        RunBuf::new().finish()
    }
}

impl PartialEq for Guard {
    fn eq(&self, other: &Guard) -> bool {
        self.shares_storage_with(other) || self.runs() == other.runs()
    }
}

impl Eq for Guard {}

impl PartialOrd for Guard {
    fn partial_cmp(&self, other: &Guard) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the sorted member sequences (nothing orders guards on
/// a hot path, so member by member).
impl Ord for Guard {
    fn cmp(&self, other: &Guard) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl std::hash::Hash for Guard {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.runs().hash(state);
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<GuessId> for Guard {
    fn from_iter<T: IntoIterator<Item = GuessId>>(iter: T) -> Self {
        let mut v: Vec<GuessId> = iter.into_iter().collect();
        v.sort_unstable();
        Guard::from_ascending(v.into_iter().map(Run::single))
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, g) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, "}}")
    }
}

/// A table mapping every structurally equal guard to one shared copy.
///
/// No caller under `crates/`: a process stores a tag as it arrived
/// (DESIGN.md §5b). Kept as a name only because `benchmark/src/probes.rs`
/// times a lookup (`core.guard.intern_hit32_ns`); goes with ROADMAP item 4.
#[derive(Debug, Clone, Default)]
pub struct GuardInterner {
    table: HashMap<Guard, Guard>,
    stats: InternerStats,
}

/// A [`GuardInterner`]'s lookups. No writer in the engines, so
/// `ProtoStats::interner` is always 0; a name `benchmark/src/run.rs` reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Lookups answered by an existing entry (storage shared).
    pub hits: u64,
    /// Lookups that registered a new entry.
    pub misses: u64,
}

impl GuardInterner {
    pub fn new() -> Self {
        GuardInterner::default()
    }

    /// Return the shared copy of `g`, registering it if unseen. Guards of
    /// at most [`Guard::INLINE_CAP`] guesses pass through.
    pub fn intern(&mut self, g: &Guard) -> Guard {
        if g.len() <= Guard::INLINE_CAP {
            return g.clone();
        }
        if let Some(c) = self.table.get(g) {
            self.stats.hits += 1;
            return c.clone();
        }
        self.stats.misses += 1;
        let c = g.clone();
        self.table.insert(c.clone(), c.clone());
        c
    }

    pub fn full_stats(&self) -> InternerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;

    fn g(p: u32, n: u32) -> GuessId {
        GuessId::first(ProcessId(p), n)
    }

    #[test]
    fn empty_guard_means_committed() {
        assert!(Guard::empty().is_empty());
        assert!(!Guard::single(g(0, 1)).is_empty());
    }

    #[test]
    fn insert_reports_new_dependency() {
        let mut gd = Guard::empty();
        assert!(gd.insert(g(0, 1)));
        assert!(!gd.insert(g(0, 1)));
        assert!(gd.contains(g(0, 1)));
    }

    #[test]
    fn union_accumulates() {
        let mut a = Guard::single(g(0, 1));
        let b = Guard::from_iter([g(1, 2), g(0, 1)]);
        a.union_with(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn new_guards_is_set_difference() {
        let mine = Guard::single(g(0, 1));
        let incoming = Guard::from_iter([g(0, 1), g(2, 3), g(1, 9)]);
        let new = mine.new_guards(&incoming);
        assert_eq!(new, vec![g(1, 9), g(2, 3)]);
        assert_eq!(mine.new_guard_count(&incoming), 2);
    }

    #[test]
    fn remove_on_commit() {
        let mut gd = Guard::from_iter([g(0, 1), g(1, 1)]);
        assert!(gd.remove(g(0, 1)));
        assert!(!gd.remove(g(0, 1)));
        assert_eq!(gd.len(), 1);
    }

    #[test]
    fn retain_returns_removed() {
        let mut gd = Guard::from_iter([g(0, 1), g(1, 1), g(2, 1)]);
        let removed = gd.retain(|x| x.process != ProcessId(1));
        assert_eq!(removed, vec![g(1, 1)]);
        assert_eq!(gd.len(), 2);
    }

    #[test]
    fn display_matches_paper_figures() {
        let gd = Guard::from_iter([g(0, 1), g(2, 1)]);
        assert_eq!(gd.to_string(), "{x1,z1}");
        assert_eq!(Guard::empty().to_string(), "{}");
    }

    #[test]
    fn deterministic_iteration_order() {
        let gd = Guard::from_iter([g(2, 1), g(0, 5), g(0, 1)]);
        let order: Vec<_> = gd.iter().collect();
        assert_eq!(order, vec![g(0, 1), g(0, 5), g(2, 1)]);
    }

    // ------------------------------------------------------------------
    // CoW-specific behavior
    // ------------------------------------------------------------------

    fn big(n: u32) -> Guard {
        (0..n).map(|i| g(i % 5, i)).collect()
    }

    #[test]
    fn clone_of_large_guard_shares_storage() {
        let a = big(8);
        let b = a.clone();
        assert!(a.shares_storage_with(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn small_guards_never_allocate_shared_storage() {
        let a = big(Guard::INLINE_CAP as u32);
        let b = a.clone();
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn mutation_unshares_aliased_clones() {
        let mut a = big(8);
        let b = a.clone();
        assert!(a.insert(g(9, 99)));
        assert!(!a.shares_storage_with(&b));
        assert_eq!(b.len(), 8);
        assert_eq!(a.len(), 9);
        assert!(!b.contains(g(9, 99)));
    }

    #[test]
    fn union_into_empty_adopts_storage() {
        let src = big(10);
        let mut dst = Guard::empty();
        dst.union_with(&src);
        assert!(dst.shares_storage_with(&src));
    }

    #[test]
    fn noop_union_keeps_storage() {
        let mut a = big(10);
        let before = a.clone();
        let sub: Guard = a.iter().take(3).collect();
        a.union_with(&sub);
        assert!(a.shares_storage_with(&before));
    }

    #[test]
    fn remove_demotes_to_inline() {
        let mut a = big((Guard::INLINE_CAP + 1) as u32);
        let alias = a.clone();
        assert!(a.shares_storage_with(&alias));
        let first = a.iter().next().unwrap();
        assert!(a.remove(first));
        assert_eq!(a.len(), Guard::INLINE_CAP);
        let c = a.clone();
        assert!(!a.shares_storage_with(&c), "inline after demotion");
        assert_eq!(alias.len(), Guard::INLINE_CAP + 1);
    }

    #[test]
    fn ordering_matches_sorted_lexicographic() {
        let a = Guard::from_iter([g(0, 1)]);
        let b = Guard::from_iter([g(0, 1), g(0, 2)]);
        let c = Guard::from_iter([g(0, 2)]);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a.cmp(&a.clone()), std::cmp::Ordering::Equal);
    }

    #[test]
    fn interner_shares_equal_guards_and_passes_small_ones_through() {
        let mut it = GuardInterner::new();
        let a = big(8);
        let b = big(8);
        assert!(!a.shares_storage_with(&b));
        let ca = it.intern(&a);
        let cb = it.intern(&b);
        assert!(ca.shares_storage_with(&cb));
        let small = Guard::single(g(0, 1));
        assert_eq!(it.intern(&small), small);
        let stats = it.full_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
