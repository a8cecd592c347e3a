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
//! - Implicit inherited rollback points against [`FullRollbacks`] — every
//!   thread's `Rollbacks` map materialised the way `fork` used to hand it
//!   on — over random fork / deliver / join / commit / abort scripts on a
//!   fork tree: the same `AbortEffects`, the same surviving guards.

use opcsp_core::{
    AbortEffects, Cdg, CoreConfig, DataKind, EdgeOutcome, Envelope, ForkIndex, Guard,
    GuardInterner, GuessId, Incarnation, JoinDecision, MsgId, OwnGuessState, ProcessCore,
    ProcessId, StateIndex, ThreadPhase, Value,
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

// ----------------------------------------------------------------------
// Rollback points
// ----------------------------------------------------------------------

/// The reference: `Rollbacks[g]` for *every* guard member of every thread,
/// a right thread starting from a copy of its left thread's map plus
/// `guess → (n, 0)` (§4.2.1) — what `ProcessCore::fork` used to build.
#[derive(Debug, Clone, Default)]
struct FullRollbacks {
    maps: BTreeMap<ForkIndex, BTreeMap<GuessId, StateIndex>>,
}

fn discards(target: StateIndex, thread: ForkIndex) -> bool {
    target.thread < thread || (target.thread == thread && target.interval == 0)
}

impl FullRollbacks {
    fn fork(&mut self, left: ForkIndex, right: ForkIndex, guess: GuessId) {
        let mut map = self.maps[&left].clone();
        map.insert(guess, StateIndex::new(right, 0));
        self.maps.insert(right, map);
    }

    /// The effects §4.2.7 prescribes for the guesses `core` has learned
    /// are aborted, and the maps afterwards.
    fn abort(&mut self, core: &ProcessCore) -> AbortEffects {
        let mut effects = AbortEffects::default();
        for (&thread, map) in &self.maps {
            let doomed = map.iter().filter(|(g, _)| core.history.is_aborted(**g));
            match doomed.map(|(_, at)| *at).min() {
                Some(target) if discards(target, thread) => effects.discard_threads.push(thread),
                Some(target) => effects.rollback_threads.push((thread, target.interval)),
                None => {}
            }
        }
        for thread in &effects.discard_threads {
            self.maps.remove(thread);
        }
        for &(thread, slot) in &effects.rollback_threads {
            let map = self.maps.get_mut(&thread).expect("rolled-back thread");
            map.retain(|_, at| at.thread != thread || at.interval < slot);
        }
        self.forget_resolved(core);
        effects
    }

    fn forget_resolved(&mut self, core: &ProcessCore) {
        for map in self.maps.values_mut() {
            map.retain(|g, _| !core.history.is_resolved(*g));
        }
    }
}

proptest! {
    /// A core that records a thread's own rollback points only — and reads
    /// a guard member without one as "discard me" — rolls back and discards
    /// exactly what full per-thread maps prescribe, and leaves the same
    /// guards behind, whatever the shape of the fork tree.
    #[test]
    fn implicit_rollback_points_match_materialised_maps(
        ops in proptest::collection::vec(
            (0u32..10, 0u32..64, any::<bool>(), proptest::collection::btree_set(arb_guess(), 0..5)),
            1..60,
        ),
    ) {
        const ME: ProcessId = ProcessId(7);
        let mut core = ProcessCore::new(ME, CoreConfig::default());
        let mut full = FullRollbacks::default();
        full.maps.insert(0, BTreeMap::new());
        for (op, pick, flag, foreign) in ops {
            // Only a thread still running its program forks or receives.
            let running: Vec<ForkIndex> = core
                .threads
                .values()
                .filter(|t| t.phase == ThreadPhase::Running)
                .map(|t| t.index)
                .collect();
            let Some(&thread) = running.get(pick as usize % running.len().max(1)) else {
                break;
            };
            let own: Vec<GuessId> = core
                .own
                .values()
                .filter(|o| o.state != OwnGuessState::Committed && o.state != OwnGuessState::Aborted)
                .map(|o| o.id)
                .collect();
            let own_pick = own.get(pick as usize % own.len().max(1)).copied();
            let aborted = match (op, own_pick) {
                // Any thread may fork: left threads fork again.
                (0..=2, _) => {
                    let rec = core.fork(thread, 1);
                    full.fork(thread, rec.right_thread, rec.guess);
                    None
                }
                (3..=5, _) => {
                    // Foreign guesses, and own ones that are not the
                    // receiving thread's future (§4.2.3 withholds those).
                    let past = own.iter().filter(|g| flag && g.index <= thread);
                    let tag: Guard = foreign.iter().chain(past).copied().collect();
                    let eff = core.deliver(thread, &envelope(tag.clone()));
                    let map = full.maps.get_mut(&thread).expect("thread exists");
                    let new: Vec<GuessId> = tag
                        .iter()
                        .filter(|g| !map.contains_key(g) && !core.history.is_resolved(*g))
                        .collect();
                    prop_assert_eq!(&eff.new_guards, &new);
                    let at = core.thread(thread).state_index();
                    map.extend(new.into_iter().map(|g| (g, at)));
                    None
                }
                // A join that finds a value fault, or an empty guard. (One
                // that would await is left out: the script's tags are not
                // closed under dependency the way real senders' are, and
                // the cascade through an awaiting guess's CDG edges relies
                // on that.)
                (6, Some(g))
                    if core.own[&g].state == OwnGuessState::Pending
                        && running.contains(&core.own[&g].left_thread)
                        && (!flag || core.is_committed(core.own[&g].left_thread)) =>
                {
                    match core.join_left_done(g, flag) {
                        JoinDecision::Abort { effects } => Some(effects),
                        _ => None,
                    }
                }
                (7, Some(g)) => Some(core.on_abort(g)),
                (8, _) => foreign.first().map(|g| core.on_abort(*g)),
                _ => {
                    if let Some(g) = foreign.first() {
                        core.on_commit(*g);
                    }
                    None
                }
            };
            match aborted {
                Some(effects) => {
                    let expected = full.abort(&core);
                    prop_assert_eq!(&effects.discard_threads, &expected.discard_threads);
                    prop_assert_eq!(&effects.rollback_threads, &expected.rollback_threads);
                }
                None => full.forget_resolved(&core),
            }
            // Same threads, same guards, same answer for every member; the
            // holder index is the threads with something in their guard.
            prop_assert!(core.threads.keys().eq(full.maps.keys()));
            for (t, map) in &full.maps {
                let meta = core.thread(*t);
                prop_assert!(meta.guard.iter().eq(map.keys().copied()), "thread {}", t);
                for (g, at) in map {
                    let point = meta.rollback_point(*g).expect("guard member");
                    prop_assert_eq!(discards(point, *t), discards(*at, *t));
                    prop_assert!(discards(point, *t) || point == *at);
                }
            }
            let holding = full.maps.iter().filter(|(_, m)| !m.is_empty()).map(|(t, _)| *t);
            prop_assert!(core.holders().map(|m| m.index).eq(holding));
        }
    }
}
