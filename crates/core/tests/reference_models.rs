//! Reference-model tests for the resolution path: each indexed / windowed
//! / bounded structure against the naive one it replaced, on random
//! operation sequences.
//!
//! - [`Cdg`] against [`NaiveCdg`] — the forward-only
//!   `BTreeMap<_, BTreeSet<_>>` graph that used to live in `src/cdg.rs`,
//!   kept here as the model: identical [`EdgeOutcome`]s (cycle member sets
//!   included) and identical query results after every step, and a bulk
//!   `add_edges_into` equal to the model's one-by-one insertion.
//! - `Guard` end-removals against `BTreeSet`: a window over shared storage
//!   must be indistinguishable through `Eq`/`Ord`/`Hash` and the interner.
//! - Bounded `choose_delivery` against an exhaustive
//!   `min_by_key((count, index))`.

use opcsp_core::{
    Cdg, CoreConfig, DataKind, EdgeOutcome, Envelope, Guard, GuardInterner, GuessId, Incarnation,
    MsgId, ProcessCore, ProcessId, Value,
};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};

// ----------------------------------------------------------------------
// The naive CDG (reference model)
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct NaiveCdg {
    /// Forward adjacency: edges[a] = set of b with a → b.
    edges: BTreeMap<GuessId, BTreeSet<GuessId>>,
    /// All nodes ever mentioned (sources or targets).
    nodes: BTreeSet<GuessId>,
}

impl NaiveCdg {
    fn contains_node(&self, g: GuessId) -> bool {
        self.nodes.contains(&g)
    }

    fn add_node(&mut self, g: GuessId) {
        self.nodes.insert(g);
    }

    fn edge_count(&self) -> usize {
        self.edges.values().map(|s| s.len()).sum()
    }

    fn has_edge(&self, from: GuessId, to: GuessId) -> bool {
        self.edges.get(&from).is_some_and(|s| s.contains(&to))
    }

    fn add_edge(&mut self, from: GuessId, to: GuessId) -> EdgeOutcome {
        self.nodes.insert(from);
        self.nodes.insert(to);
        if from == to {
            return EdgeOutcome::Cycle(BTreeSet::from([from]));
        }
        // A cycle through the new edge exists iff `from` is reachable from
        // `to` in the existing graph. Collect all nodes on such paths.
        let on_cycle = self.nodes_on_paths(to, from);
        self.edges.entry(from).or_default().insert(to);
        match on_cycle {
            Some(mut cyc) => {
                cyc.insert(from);
                cyc.insert(to);
                EdgeOutcome::Cycle(cyc)
            }
            None => EdgeOutcome::Acyclic,
        }
    }

    /// All nodes lying on some path `src → ... → dst` (inclusive), or `None`
    /// if `dst` is unreachable from `src`.
    fn nodes_on_paths(&self, src: GuessId, dst: GuessId) -> Option<BTreeSet<GuessId>> {
        let fwd = self.reachable_from(src);
        if !fwd.contains(&dst) {
            return None;
        }
        let back = self.reverse_reachable_from(dst);
        Some(fwd.intersection(&back).copied().collect())
    }

    fn reachable_from(&self, src: GuessId) -> BTreeSet<GuessId> {
        let mut seen = BTreeSet::from([src]);
        let mut queue = VecDeque::from([src]);
        while let Some(n) = queue.pop_front() {
            for &s in self.edges.get(&n).into_iter().flatten() {
                if seen.insert(s) {
                    queue.push_back(s);
                }
            }
        }
        seen
    }

    fn reverse_reachable_from(&self, dst: GuessId) -> BTreeSet<GuessId> {
        let mut seen = BTreeSet::from([dst]);
        loop {
            let mut grew = false;
            for (&a, succs) in &self.edges {
                if !seen.contains(&a) && succs.iter().any(|b| seen.contains(b)) {
                    seen.insert(a);
                    grew = true;
                }
            }
            if !grew {
                return seen;
            }
        }
    }

    fn predecessors(&self, g: GuessId) -> Vec<GuessId> {
        self.edges
            .iter()
            .filter(|(_, succs)| succs.contains(&g))
            .map(|(&a, _)| a)
            .collect()
    }

    fn successors(&self, g: GuessId) -> Vec<GuessId> {
        self.edges
            .get(&g)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    fn remove(&mut self, g: GuessId) {
        self.nodes.remove(&g);
        self.edges.remove(&g);
        for succs in self.edges.values_mut() {
            succs.remove(&g);
        }
        self.edges.retain(|_, succs| !succs.is_empty());
    }

    fn is_root(&self, g: GuessId) -> bool {
        self.nodes.contains(&g) && self.predecessors(g).is_empty()
    }

    /// One PRECEDENCE guard, the way `on_precedence` used to ingest it:
    /// member by member, each with its own cycle check, under §4.2.8's
    /// "if either is a node" rule when `only_if_known`.
    fn add_edges_into(
        &mut self,
        to: GuessId,
        froms: &BTreeSet<GuessId>,
        only_if_known: bool,
    ) -> EdgeOutcome {
        let mut members = BTreeSet::new();
        for &from in froms {
            if only_if_known && from != to && !self.contains_node(from) && !self.contains_node(to) {
                continue;
            }
            if let EdgeOutcome::Cycle(c) = self.add_edge(from, to) {
                members.extend(c);
            }
        }
        if members.is_empty() {
            EdgeOutcome::Acyclic
        } else {
            EdgeOutcome::Cycle(members)
        }
    }
}

// ----------------------------------------------------------------------
// Strategies
// ----------------------------------------------------------------------

/// A small domain (24 guesses), so sequences revisit nodes and edges.
fn arb_node() -> impl Strategy<Value = GuessId> {
    (0u32..3, 0u32..2, 0u32..4).prop_map(|(p, i, n)| GuessId {
        process: ProcessId(p),
        incarnation: Incarnation(i),
        index: n,
    })
}

/// A wide domain (96 guesses), so guards outgrow the inline representation.
fn arb_guess() -> impl Strategy<Value = GuessId> {
    (0u32..4, 0u32..2, 0u32..12).prop_map(|(p, i, n)| GuessId {
        process: ProcessId(p),
        incarnation: Incarnation(i),
        index: n,
    })
}

fn arb_set(max: usize) -> impl Strategy<Value = BTreeSet<GuessId>> {
    proptest::collection::btree_set(arb_guess(), 0..max)
}

fn hash_of(g: &Guard) -> u64 {
    let mut h = DefaultHasher::new();
    g.hash(&mut h);
    h.finish()
}

fn envelope(guard: Guard) -> Envelope {
    Envelope {
        id: MsgId(0),
        from: ProcessId(9),
        from_thread: 0,
        to: ProcessId(7),
        guard: guard.into(),
        table_acks: vec![],
        kind: DataKind::Send,
        payload: Value::Unit,
        label: "M".into(),
        link_seq: 0,
    }
}

// ----------------------------------------------------------------------
// CDG
// ----------------------------------------------------------------------

proptest! {
    /// The indexed CDG is observationally identical to the naive one under
    /// random single-edge insertions, bulk guard ingests (with and without
    /// the §4.2.8 admission rule), node insertions and removals — whether
    /// or not the caller erases reported cycles, as the protocol does.
    #[test]
    fn cdg_matches_naive_model(
        ops in proptest::collection::vec(
            (0u32..8, arb_node(), arb_node(), proptest::collection::btree_set(arb_node(), 0..6)),
            1..60,
        ),
        erase_cycles in any::<bool>(),
    ) {
        let mut fast = Cdg::new();
        let mut naive = NaiveCdg::default();
        for (op, a, b, members) in ops {
            let outcome = match op {
                0..=2 => {
                    let (f, n) = (fast.add_edge(a, b), naive.add_edge(a, b));
                    prop_assert_eq!(&f, &n, "add_edge({} → {})", a, b);
                    f
                }
                3 | 4 => {
                    let known = op == 4;
                    let f = fast.add_edges_into(b, members.iter().copied(), known);
                    let n = naive.add_edges_into(b, &members, known);
                    prop_assert_eq!(&f, &n, "ingest {:?} → {} (known: {})", members, b, known);
                    f
                }
                5 => {
                    fast.add_node(a);
                    naive.add_node(a);
                    EdgeOutcome::Acyclic
                }
                _ => {
                    fast.remove(a);
                    naive.remove(a);
                    EdgeOutcome::Acyclic
                }
            };
            if let (true, EdgeOutcome::Cycle(on_cycle)) = (erase_cycles, outcome) {
                for m in on_cycle {
                    fast.remove(m);
                    naive.remove(m);
                }
                prop_assert!(fast.is_acyclic());
            }
            prop_assert_eq!(
                fast.nodes().collect::<Vec<_>>(),
                naive.nodes.iter().copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(fast.node_count(), naive.nodes.len());
            prop_assert_eq!(fast.edge_count(), naive.edge_count());
            for x in [a, b].into_iter().chain(members.iter().copied()) {
                prop_assert_eq!(fast.contains_node(x), naive.contains_node(x));
                prop_assert_eq!(fast.predecessors(x), naive.predecessors(x));
                prop_assert_eq!(fast.successors(x), naive.successors(x));
                prop_assert_eq!(fast.is_root(x), naive.is_root(x));
                prop_assert_eq!(fast.has_edge(x, b), naive.has_edge(x, b));
                prop_assert_eq!(fast.has_edge(a, x), naive.has_edge(a, x));
            }
        }
    }
}

// ----------------------------------------------------------------------
// Guard windows
// ----------------------------------------------------------------------

proptest! {
    /// Removing guesses — mostly at the ends, where a shared guard only
    /// narrows its window — keeps the guard indistinguishable from the
    /// `BTreeSet` model through every canonical view: contents, `Eq`, `Ord`
    /// and `Hash` against a freshly built guard, the "shared iff it
    /// outgrew the inline capacity" invariant, aliases taken before the
    /// removal, and an interner lookup.
    #[test]
    fn guard_end_removals_match_btreeset_model(
        initial in arb_set(24),
        other in arb_set(24),
        ops in proptest::collection::vec((0u32..8, arb_guess()), 1..40),
    ) {
        let mut guard: Guard = initial.iter().copied().collect();
        let mut model = initial;
        let other_guard: Guard = other.iter().copied().collect();
        let other_vec: Vec<GuessId> = other.into_iter().collect();
        for (op, g) in ops {
            let alias = guard.clone();
            let alias_model: Vec<GuessId> = model.iter().copied().collect();
            let victim = match op {
                0..=2 => model.first().copied(),
                3..=5 => model.last().copied(),
                6 => Some(g),
                _ => None,
            };
            match victim {
                Some(v) => prop_assert_eq!(guard.remove(v), model.remove(&v)),
                None => prop_assert_eq!(guard.insert(g), model.insert(g)),
            }
            let want: Vec<GuessId> = model.iter().copied().collect();
            prop_assert_eq!(guard.as_slice(), &want[..]);
            prop_assert_eq!(guard.len(), want.len());
            // Canonical Eq / Ord / Hash: a window is not observable.
            let fresh: Guard = want.iter().copied().collect();
            prop_assert_eq!(&guard, &fresh);
            prop_assert_eq!(&fresh, &guard);
            prop_assert_eq!(guard.cmp(&fresh), std::cmp::Ordering::Equal);
            prop_assert_eq!(hash_of(&guard), hash_of(&fresh));
            prop_assert_eq!(guard.cmp(&other_guard), want.cmp(&other_vec));
            prop_assert_eq!(other_guard.cmp(&guard), other_vec.cmp(&want));
            // Shared storage exactly above the inline capacity; a clone is
            // the same window, a differently-built equal guard is not.
            let shared = want.len() > Guard::INLINE_CAP;
            prop_assert_eq!(guard.clone().shares_storage_with(&guard), shared);
            prop_assert!(!guard.shares_storage_with(&fresh));
            // The alias taken before the mutation still reads the old set,
            // and is a different view whenever the mutation changed it.
            prop_assert_eq!(alias.as_slice(), &alias_model[..]);
            if alias_model != want {
                prop_assert!(!alias.shares_storage_with(&guard));
            }
            // Interner: the canonical entry registered for the fresh guard
            // is hit by the (possibly windowed) one.
            let mut interner = GuardInterner::new();
            let canon = interner.intern(&fresh);
            let hit = interner.intern(&guard);
            prop_assert_eq!(&hit, &guard);
            if shared {
                prop_assert_eq!(interner.stats(), (1, 1));
                prop_assert!(hit.shares_storage_with(&canon));
            } else {
                prop_assert_eq!(interner.stats(), (0, 0));
            }
        }
    }
}

#[test]
fn end_removals_of_a_shared_guard_do_not_reallocate() {
    let all: Vec<GuessId> = (0..64)
        .map(|i| GuessId::first(ProcessId(i % 3), i))
        .collect();
    let mut guard: Guard = all.iter().copied().collect();
    let mut sorted = guard.as_slice().to_vec();
    let base = guard.as_slice().as_ptr();
    // Commit in fork order from the front, abort-style from the back.
    for round in 0..25 {
        let front = sorted.remove(0);
        assert!(guard.remove(front));
        let back = sorted.pop().unwrap();
        assert!(guard.remove(back));
        assert_eq!(guard.as_slice(), &sorted[..]);
        // Still a view of the original allocation, `round + 1` in.
        assert_eq!(guard.as_slice().as_ptr(), unsafe { base.add(round + 1) });
    }
    // A guard that does not hold the guess is left alone.
    let before = guard.clone();
    assert!(!guard.remove(all[0]));
    assert!(guard.shares_storage_with(&before));
}

// ----------------------------------------------------------------------
// Delivery choice
// ----------------------------------------------------------------------

proptest! {
    /// The bounded delivery choice picks exactly the candidate an
    /// exhaustive `min_by_key((count, index))` picks — ties to the earliest
    /// — whatever the thread's guard and the history hold.
    #[test]
    fn bounded_choose_delivery_matches_exhaustive_min(
        mine in arb_set(10),
        committed in arb_set(10),
        aborted in arb_set(6),
        pool in proptest::collection::vec(arb_set(8), 0..20),
    ) {
        let mut core = ProcessCore::new(ProcessId(7), CoreConfig::default());
        core.deliver(0, &envelope(mine.iter().copied().collect()));
        for g in committed {
            core.on_commit(g);
        }
        for g in aborted {
            core.history.record_abort(g);
        }
        let envs: Vec<Envelope> = pool
            .into_iter()
            .map(|s| envelope(s.into_iter().collect()))
            .collect();
        let refs: Vec<&Envelope> = envs.iter().collect();
        let exhaustive = refs
            .iter()
            .enumerate()
            .min_by_key(|(i, e)| (core.live_new_guard_count(0, e.guard(), usize::MAX), *i))
            .map(|(i, _)| i);
        prop_assert_eq!(core.choose_delivery(0, &refs), exhaustive);
        // A bounded count is the full count, capped.
        for e in &refs {
            let full = core.live_new_guard_count(0, e.guard(), usize::MAX);
            for limit in 0..4 {
                prop_assert_eq!(core.live_new_guard_count(0, e.guard(), limit), full.min(limit));
            }
        }
    }
}
