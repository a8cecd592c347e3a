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
//! Guard sets are copied constantly: onto every outgoing message tag
//! (§3.2), into every fork's right thread (§4.2.1), and into the interval
//! snapshots that rollback restores (§4.1.1/§4.1.3). Most guards are tiny
//! (the paper's figures never exceed three guesses), but deep pipelines
//! and fan-in servers accumulate larger ones. [`Guard`] therefore stores
//! its guesses as a sorted slice with two backings:
//!
//! - **inline** for up to [`Guard::INLINE_CAP`] guesses — no heap
//!   allocation at all;
//! - **shared** (a window over an `Arc<[GuessId]>`) beyond that — `clone`
//!   is a reference count bump, removing the first or last guess narrows
//!   the window in O(1) (§3.1's "p_i is removed from the set" when guesses
//!   resolve in fork order, which is how a pipeline commits), and any other
//!   mutation builds a new slice.
//!
//! Iteration order is sorted either way, so traces stay deterministic and
//! the derived `Ord` matches the previous `BTreeSet`-backed ordering
//! (lexicographic over sorted elements).

use crate::ids::GuessId;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Placeholder for unused inline slots; never observable through the API.
const FILL: GuessId = GuessId::first(crate::ids::ProcessId(0), 0);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        elems: [GuessId; Guard::INLINE_CAP],
    },
    /// The guesses are `elems[start..end]`. Every view of the storage is
    /// sorted, so equality, ordering and hashing (all over
    /// [`Guard::as_slice`]) do not see the window.
    Shared {
        elems: Arc<[GuessId]>,
        start: u32,
        end: u32,
    },
}

/// A commit guard set: the uncommitted guesses a computation depends upon.
///
/// Backed by a sorted slice (inline below [`Guard::INLINE_CAP`] elements,
/// `Arc`-shared above) so iteration order is deterministic, which the
/// simulator relies on for reproducible traces, and so cloning a large
/// guard — the per-message hot path — is O(1).
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

impl Guard {
    /// Largest guard kept inline (allocation-free); larger guards move to
    /// shared storage.
    pub const INLINE_CAP: usize = 4;

    /// The empty guard set: a committed computation.
    pub fn empty() -> Guard {
        Guard::default()
    }

    /// A guard set containing exactly one guess.
    pub fn single(g: GuessId) -> Guard {
        let mut elems = [FILL; Guard::INLINE_CAP];
        elems[0] = g;
        Guard {
            repr: Repr::Inline { len: 1, elems },
        }
    }

    /// Build from a sorted, deduplicated vector (internal constructor; all
    /// mutation paths funnel through here, maintaining the invariant that
    /// shared storage is used exactly when the guard exceeds `INLINE_CAP`).
    fn from_sorted_vec(v: Vec<GuessId>) -> Guard {
        debug_assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        if v.len() <= Guard::INLINE_CAP {
            let mut elems = [FILL; Guard::INLINE_CAP];
            elems[..v.len()].copy_from_slice(&v);
            Guard {
                repr: Repr::Inline {
                    len: v.len() as u8,
                    elems,
                },
            }
        } else {
            let end = u32::try_from(v.len()).expect("guard length fits u32");
            Guard {
                repr: Repr::Shared {
                    elems: v.into(),
                    start: 0,
                    end,
                },
            }
        }
    }

    /// The guesses as a sorted slice — the canonical view every operation
    /// reads through.
    pub fn as_slice(&self) -> &[GuessId] {
        match &self.repr {
            Repr::Inline { len, elems } => &elems[..*len as usize],
            Repr::Shared { elems, start, end } => &elems[*start as usize..*end as usize],
        }
    }

    /// True iff the computation carrying this guard is committed (§3.1:
    /// "If the commit guard set of a computation is empty then the commit
    /// guard predicate is vacuously true").
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Shared { start, end, .. } => (end - start) as usize,
        }
    }

    pub fn contains(&self, g: GuessId) -> bool {
        self.as_slice().binary_search(&g).is_ok()
    }

    /// Add a guess this computation now depends on. Returns true if it was
    /// not already present (i.e. a *new* dependency, which starts a new
    /// interval per §4.1.1).
    pub fn insert(&mut self, g: GuessId) -> bool {
        let pos = match self.as_slice().binary_search(&g) {
            Ok(_) => return false,
            Err(p) => p,
        };
        match &mut self.repr {
            Repr::Inline { len, elems } if (*len as usize) < Guard::INLINE_CAP => {
                elems[pos..=*len as usize].rotate_right(1);
                elems[pos] = g;
                *len += 1;
            }
            _ => {
                let mut v = Vec::with_capacity(self.len() + 1);
                v.extend_from_slice(self.as_slice());
                v.insert(pos, g);
                *self = Guard::from_sorted_vec(v);
            }
        }
        true
    }

    /// Remove a guess whose predicate committed (§3.1: "When a predicate
    /// p_i in a computation's commit guard set commits, pi is removed from
    /// the set"). Returns true if it was present.
    ///
    /// Removing the smallest or largest guess of a shared guard narrows its
    /// window without touching (or unsharing) the storage; a guard that
    /// does not hold `g` is left alone.
    pub fn remove(&mut self, g: GuessId) -> bool {
        let slice = self.as_slice();
        // A pipeline commits in fork order: the guess is the first one.
        let pos = if slice.first() == Some(&g) {
            0
        } else {
            match slice.binary_search(&g) {
                Ok(p) => p,
                Err(_) => return false,
            }
        };
        match &mut self.repr {
            Repr::Inline { len, elems } => {
                elems[pos..*len as usize].rotate_left(1);
                *len -= 1;
            }
            Repr::Shared { start, end, .. } => {
                let len = (*end - *start) as usize;
                if len - 1 > Guard::INLINE_CAP && (pos == 0 || pos == len - 1) {
                    if pos == 0 {
                        *start += 1;
                    } else {
                        *end -= 1;
                    }
                    return true;
                }
                let mut v = Vec::with_capacity(len - 1);
                v.extend_from_slice(&self.as_slice()[..pos]);
                v.extend_from_slice(&self.as_slice()[pos + 1..]);
                *self = Guard::from_sorted_vec(v);
            }
        }
        true
    }

    /// Union another guard into this one (message receipt, fork: "the Guard
    /// is the union of the creating thread's Guard and the guess x_n").
    ///
    /// Unioning into an empty guard adopts the other's storage without
    /// copying; a union that adds nothing leaves storage untouched.
    pub fn union_with(&mut self, other: &Guard) {
        if other.is_empty() || self.shares_storage_with(other) {
            return;
        }
        if self.is_empty() {
            self.repr = other.repr.clone();
            return;
        }
        // Single-guess tags (every fork, most sends) skip the merge walk.
        if let [g] = other.as_slice() {
            self.insert(*g);
            return;
        }
        if self.new_guard_count(other) == 0 {
            return;
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut v = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    v.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    v.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    v.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        v.extend_from_slice(&a[i..]);
        v.extend_from_slice(&b[j..]);
        *self = Guard::from_sorted_vec(v);
    }

    /// The guesses present in `incoming` but not in `self` — the
    /// `Newguards` of §4.2.3's message-arrival processing.
    pub fn new_guards(&self, incoming: &Guard) -> Vec<GuessId> {
        if self.shares_storage_with(incoming) {
            return Vec::new();
        }
        let mine = self.as_slice();
        let mut i = 0;
        incoming
            .as_slice()
            .iter()
            .filter(|g| {
                while i < mine.len() && mine[i] < **g {
                    i += 1;
                }
                !(i < mine.len() && mine[i] == **g)
            })
            .copied()
            .collect()
    }

    /// Count of guesses `incoming` would add — used by the delivery
    /// optimization ("the one for which |Newguards| is smallest").
    pub fn new_guard_count(&self, incoming: &Guard) -> usize {
        if self.shares_storage_with(incoming) {
            return 0;
        }
        let mine = self.as_slice();
        let mut i = 0;
        incoming
            .as_slice()
            .iter()
            .filter(|g| {
                while i < mine.len() && mine[i] < **g {
                    i += 1;
                }
                !(i < mine.len() && mine[i] == **g)
            })
            .count()
    }

    pub fn iter(&self) -> impl Iterator<Item = GuessId> + '_ {
        self.as_slice().iter().copied()
    }

    /// Retain only guesses satisfying the predicate; returns removed ones.
    /// Storage is untouched when nothing is removed.
    pub fn retain(&mut self, mut keep: impl FnMut(GuessId) -> bool) -> Vec<GuessId> {
        let mut kept = Vec::with_capacity(self.len());
        let mut removed = Vec::new();
        for &g in self.as_slice() {
            if keep(g) {
                kept.push(g);
            } else {
                removed.push(g);
            }
        }
        if !removed.is_empty() {
            *self = Guard::from_sorted_vec(kept);
        }
        removed
    }

    /// Approximate wire size of a guard tag in bytes (a 2-byte count plus
    /// each guess's identifier fields), for the E8 message-overhead
    /// ablation.
    pub fn wire_size(&self) -> usize {
        2 + self.len() * GuessId::WIRE_BYTES
    }

    /// Are `self` and `other` the same window over one heap allocation?
    /// Inline guards never are (they own no allocation). Test hook for the
    /// O(1)-clone guarantee, and the fast path of the set operations.
    pub fn shares_storage_with(&self, other: &Guard) -> bool {
        match (&self.repr, &other.repr) {
            (
                Repr::Shared { elems, start, end },
                Repr::Shared {
                    elems: other_elems,
                    start: other_start,
                    end: other_end,
                },
            ) => Arc::ptr_eq(elems, other_elems) && start == other_start && end == other_end,
            _ => false,
        }
    }
}

impl Default for Guard {
    fn default() -> Guard {
        Guard {
            repr: Repr::Inline {
                len: 0,
                elems: [FILL; Guard::INLINE_CAP],
            },
        }
    }
}

impl PartialEq for Guard {
    fn eq(&self, other: &Guard) -> bool {
        self.shares_storage_with(other) || self.as_slice() == other.as_slice()
    }
}

impl Eq for Guard {}

impl PartialOrd for Guard {
    fn partial_cmp(&self, other: &Guard) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Guard {
    fn cmp(&self, other: &Guard) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Guard {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
    }
}

impl IntoIterator for Guard {
    type Item = GuessId;
    type IntoIter = std::vec::IntoIter<GuessId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Guard {
    type Item = &'a GuessId;
    type IntoIter = std::slice::Iter<'a, GuessId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<GuessId> for Guard {
    fn from_iter<T: IntoIterator<Item = GuessId>>(iter: T) -> Self {
        let mut v: Vec<GuessId> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Guard::from_sorted_vec(v)
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

/// Canonicalization table for guard tags (one per process).
///
/// Fan-in servers see the same large guard tag on message after message;
/// interning maps every structurally equal guard to one shared allocation,
/// so storing them (consumed-message logs, checkpoints, call stacks) costs
/// a reference count instead of a copy. Guards at or below
/// [`Guard::INLINE_CAP`] pass through untouched — they are allocation-free
/// already.
#[derive(Debug, Clone, Default)]
pub struct GuardInterner {
    table: HashMap<Guard, Guard>,
    hits: u64,
    misses: u64,
    purged: u64,
}

/// Lifetime counters for one process's interner, aggregated per engine for
/// the figures output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Lookups answered by an existing canonical guard (storage shared).
    pub hits: u64,
    /// Lookups that registered a new canonical guard.
    pub misses: u64,
    /// Canonical entries dropped because a member guess resolved.
    pub purged: u64,
    /// Canonical entries still registered.
    pub live: u64,
}

impl InternerStats {
    pub fn merge(&mut self, other: InternerStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.purged += other.purged;
        self.live += other.live;
    }
}

impl GuardInterner {
    pub fn new() -> Self {
        GuardInterner::default()
    }

    /// Return the canonical copy of `g`, registering it if unseen.
    pub fn intern(&mut self, g: &Guard) -> Guard {
        if g.len() <= Guard::INLINE_CAP {
            return g.clone();
        }
        if let Some(c) = self.table.get(g) {
            self.hits += 1;
            return c.clone();
        }
        self.misses += 1;
        let c = g.clone();
        self.table.insert(c.clone(), c.clone());
        c
    }

    /// Drop canonical entries that mention a now-resolved guess — they can
    /// never be requested again (resolved guesses leave all guards).
    pub fn purge_guess(&mut self, g: GuessId) {
        let before = self.table.len();
        self.table.retain(|k, _| !k.contains(g));
        self.purged += (before - self.table.len()) as u64;
    }

    /// Number of canonical guards currently registered.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// (hits, misses) over the interner's lifetime — diagnostics.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Full lifetime counters including purges and live entries.
    pub fn full_stats(&self) -> InternerStats {
        InternerStats {
            hits: self.hits,
            misses: self.misses,
            purged: self.purged,
            live: self.table.len() as u64,
        }
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
    fn interner_shares_equal_guards() {
        let mut it = GuardInterner::new();
        let a = big(8);
        let b = big(8);
        assert!(!a.shares_storage_with(&b));
        let ca = it.intern(&a);
        let cb = it.intern(&b);
        assert!(ca.shares_storage_with(&cb));
        assert_eq!(it.stats(), (1, 1));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn interner_passes_small_guards_through() {
        let mut it = GuardInterner::new();
        let a = Guard::single(g(0, 1));
        let c = it.intern(&a);
        assert_eq!(a, c);
        assert!(it.is_empty());
    }

    #[test]
    fn interner_purges_resolved_guesses() {
        let mut it = GuardInterner::new();
        it.intern(&big(8));
        assert_eq!(it.len(), 1);
        it.purge_guess(g(0, 0));
        assert!(it.is_empty());
    }
}
