//! Property-based tests on the protocol core's data structures: guard-set
//! algebra, compaction round trips, CDG cycle detection against a naive
//! oracle, and incarnation-table consistency.

use opcsp_core::{
    Cdg, CompactGuard, EdgeOutcome, Guard, GuessId, History, Incarnation, IncarnationTable,
    ProcessId, Run,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};

fn arb_guess() -> impl Strategy<Value = GuessId> {
    (0u32..4, 0u32..3, 0u32..12).prop_map(|(p, i, n)| GuessId {
        process: ProcessId(p),
        incarnation: Incarnation(i),
        index: n,
    })
}

fn arb_guard() -> impl Strategy<Value = Guard> {
    proptest::collection::btree_set(arb_guess(), 0..12).prop_map(|s| s.into_iter().collect())
}

proptest! {
    /// Union is commutative, associative, idempotent; the empty guard is
    /// its identity.
    #[test]
    fn guard_union_algebra(a in arb_guard(), b in arb_guard(), c in arb_guard()) {
        let mut ab = a.clone();
        ab.union_with(&b);
        let mut ba = b.clone();
        ba.union_with(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.union_with(&c);
        let mut bc = b.clone();
        bc.union_with(&c);
        let mut a_bc = a.clone();
        a_bc.union_with(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        let mut aa = a.clone();
        aa.union_with(&a);
        prop_assert_eq!(&aa, &a);

        let mut ae = a.clone();
        ae.union_with(&Guard::empty());
        prop_assert_eq!(&ae, &a);
    }

    /// `new_runs` spell exactly the set difference, and the count agrees.
    #[test]
    fn new_runs_are_difference(mine in arb_guard(), incoming in arb_guard()) {
        let diff: BTreeSet<GuessId> = incoming
            .iter()
            .filter(|g| !mine.contains(*g))
            .collect();
        let got: BTreeSet<GuessId> = mine.new_runs(&incoming).flat_map(Run::iter).collect();
        prop_assert_eq!(&got, &diff);
        prop_assert_eq!(mine.new_guard_count(&incoming), diff.len());
    }

    /// Compact→expand round trip on first-incarnation guards (the case
    /// the wire format guarantees with *no* extra knowledge): nothing is
    /// lost, nothing is invented beyond the per-process maximum, and
    /// compaction keeps one entry per process.
    ///
    /// (With multiple incarnations, exact expansion additionally requires
    /// the receiver's history to have observed the sender's incarnation
    /// starts — which prior ABORT messages guarantee; see the unit tests
    /// in `compact.rs`. An earlier version of this property over arbitrary
    /// incarnations caught exactly that ambiguity.)
    #[test]
    fn compaction_round_trip(
        // Fork indexes start at 1: index 0 is a process's root thread and
        // never names a guess (fork pre-increments), and expansion
        // enumerates implied members from index 1.
        set in proptest::collection::btree_set((0u32..4, 1u32..12), 0..12)
    ) {
        let full: Guard = set
            .into_iter()
            .map(|(p, n)| GuessId::first(ProcessId(p), n))
            .collect();
        let history = History::new();
        let compact = CompactGuard::compress(&full);
        let expanded = compact.expand(&history);
        for g in full.iter() {
            prop_assert!(expanded.contains(g), "lost {g}");
        }
        for g in expanded.iter() {
            let latest = compact.iter().find(|l| l.process == g.process).unwrap();
            prop_assert!(g.index <= latest.index);
        }
        let procs: HashSet<ProcessId> = compact.iter().map(|g| g.process).collect();
        prop_assert_eq!(procs.len(), compact.len());
    }

    /// Streaming-shaped guards (single process, contiguous, one
    /// incarnation) round-trip exactly.
    #[test]
    fn compaction_exact_for_contiguous_chains(n in 1u32..40) {
        let full: Guard = (1..=n).map(|i| GuessId::first(ProcessId(0), i)).collect();
        let compact = CompactGuard::compress(&full);
        let mut history = History::new();
        history.record_commit(GuessId::first(ProcessId(0), 0));
        let expanded = compact.expand(&history);
        prop_assert_eq!(expanded, full);
    }
}

proptest! {
    /// The copy-on-write guard is observationally identical to a
    /// `BTreeSet` model under random insert/remove/union sequences:
    /// contents, length, deterministic iteration order, and the
    /// `new_runs` difference all agree after every step, and an alias
    /// cloned before each mutation is never disturbed by it.
    #[test]
    fn guard_matches_btreeset_model(
        ops in proptest::collection::vec((0u32..3, arb_guess(), arb_guard()), 1..40)
    ) {
        let mut guard = Guard::empty();
        let mut model: BTreeSet<GuessId> = BTreeSet::new();
        for (op, g, other) in ops {
            // Snapshot an alias before mutating; CoW must keep it intact.
            let alias = guard.clone();
            let alias_model: Vec<GuessId> = model.iter().copied().collect();
            match op {
                0 => {
                    guard.insert(g);
                    model.insert(g);
                }
                1 => {
                    guard.remove(g);
                    model.remove(&g);
                }
                _ => {
                    guard.union_with(&other);
                    model.extend(other.iter());
                }
            }
            let got: Vec<GuessId> = guard.iter().collect();
            let want: Vec<GuessId> = model.iter().copied().collect();
            prop_assert_eq!(&got, &want, "contents/order diverged from model");
            prop_assert_eq!(guard.len(), model.len());
            prop_assert_eq!(guard.is_empty(), model.is_empty());
            for x in &model {
                prop_assert!(guard.contains(*x));
            }
            // Same set ⇒ the difference in both directions is empty.
            let model_guard: Guard = model.iter().copied().collect();
            prop_assert!(guard.new_runs(&model_guard).next().is_none());
            prop_assert_eq!(model_guard.new_guard_count(&guard), 0);
            prop_assert_eq!(&guard, &model_guard);
            // The pre-mutation alias still reads its old contents.
            let alias_now: Vec<GuessId> = alias.iter().collect();
            prop_assert_eq!(alias_now, alias_model, "mutation leaked into alias");
        }
    }

    /// Mutating aliased clones of a shared guard never disturbs the
    /// original or each other (CoW isolation in every direction).
    #[test]
    fn aliased_clones_mutate_independently(
        base in arb_guard(), g in arb_guess(), extra in arb_guard()
    ) {
        let before: Vec<GuessId> = base.iter().collect();
        let mut grown = base.clone();
        grown.insert(g);
        let mut shrunk = base.clone();
        shrunk.remove(g);
        let mut merged = base.clone();
        merged.union_with(&extra);
        let after: Vec<GuessId> = base.iter().collect();
        prop_assert_eq!(before, after, "clone mutations leaked into original");
        prop_assert!(grown.contains(g));
        prop_assert!(!shrunk.contains(g));
        for x in extra.iter() {
            prop_assert!(merged.contains(x));
        }
        prop_assert_eq!(grown.len(), base.len() + usize::from(!base.contains(g)));
        prop_assert_eq!(shrunk.len(), base.len() - usize::from(base.contains(g)));
    }
}

/// Naive cycle oracle: DFS over the edge list.
fn has_cycle(edges: &[(GuessId, GuessId)]) -> bool {
    let mut adj: HashMap<GuessId, Vec<GuessId>> = HashMap::new();
    let mut nodes: BTreeSet<GuessId> = BTreeSet::new();
    for (a, b) in edges {
        adj.entry(*a).or_default().push(*b);
        nodes.insert(*a);
        nodes.insert(*b);
    }
    // Colors: 0 unvisited, 1 on stack, 2 done.
    let mut color: HashMap<GuessId, u8> = HashMap::new();
    fn dfs(
        n: GuessId,
        adj: &HashMap<GuessId, Vec<GuessId>>,
        color: &mut HashMap<GuessId, u8>,
    ) -> bool {
        match color.get(&n) {
            Some(1) => return true,
            Some(2) => return false,
            _ => {}
        }
        color.insert(n, 1);
        for &m in adj.get(&n).into_iter().flatten() {
            if dfs(m, adj, color) {
                return true;
            }
        }
        color.insert(n, 2);
        false
    }
    nodes.iter().any(|&n| dfs(n, &adj, &mut color))
}

proptest! {
    /// Incremental CDG cycle detection agrees with the naive oracle: the
    /// first insertion the oracle says closes a cycle is exactly the one
    /// `add_edge` reports (and the graph stays acyclic before it).
    #[test]
    fn cdg_matches_naive_oracle(
        edges in proptest::collection::vec((arb_guess(), arb_guess()), 1..30)
    ) {
        let mut cdg = Cdg::new();
        let mut inserted: Vec<(GuessId, GuessId)> = Vec::new();
        for (a, b) in edges {
            let mut trial = inserted.clone();
            trial.push((a, b));
            let oracle_cycle = has_cycle(&trial);
            match cdg.add_edge(a, b) {
                EdgeOutcome::Acyclic => {
                    prop_assert!(!oracle_cycle, "missed cycle on edge {a}->{b}");
                    inserted.push((a, b));
                    prop_assert!(cdg.is_acyclic());
                }
                EdgeOutcome::Cycle(members) => {
                    prop_assert!(oracle_cycle, "false cycle on edge {a}->{b}");
                    prop_assert!(members.contains(&a) || a == b);
                    prop_assert!(members.contains(&b));
                    // Protocol reaction: abort (remove) the cycle members,
                    // restoring acyclicity — then continue inserting.
                    for m in members {
                        cdg.remove(m);
                    }
                    inserted.retain(|(x, y)| cdg.contains_node(*x) && cdg.contains_node(*y));
                    prop_assert!(cdg.is_acyclic());
                }
            }
        }
    }

    /// Removing a node removes all its edges; the remaining graph never
    /// references it.
    #[test]
    fn cdg_remove_is_total(
        edges in proptest::collection::vec((arb_guess(), arb_guess()), 1..20),
        victim in arb_guess()
    ) {
        let mut cdg = Cdg::new();
        for (a, b) in &edges {
            let _ = cdg.add_edge(*a, *b);
        }
        cdg.remove(victim);
        prop_assert!(!cdg.contains_node(victim));
        for n in cdg.nodes() {
            prop_assert!(!cdg.has_edge(n, victim));
            prop_assert!(!cdg.has_edge(victim, n));
        }
    }
}

proptest! {
    /// Incarnation tables: `precedes` is consistent with
    /// `implicitly_aborted` — a guess that precedes a live later guess is
    /// never implicitly aborted by the incarnations between them.
    #[test]
    fn incarnation_precedes_consistency(
        starts in proptest::collection::vec(0u32..10, 1..5),
        a_inc in 0u32..4, a_idx in 0u32..10,
        b_inc in 0u32..4, b_idx in 0u32..10,
    ) {
        let mut t = IncarnationTable::new();
        let mut cumulative = 0;
        for (i, s) in starts.iter().enumerate() {
            cumulative = cumulative.max(*s);
            t.record(Incarnation(i as u32 + 1), cumulative);
        }
        let a = (Incarnation(a_inc), a_idx);
        let b = (Incarnation(b_inc), b_idx);
        if t.precedes(a, b) {
            prop_assert!(a_idx < b_idx);
            prop_assert!(a_inc <= b_inc);
            // a must not be implicitly aborted by any incarnation ≤ b's.
            if a_inc < b_inc {
                for i in (a_inc + 1)..=b_inc {
                    if let Some(s) = t.start_of(Incarnation(i)) {
                        prop_assert!(s > a_idx,
                            "incarnation {i} starting at {s} kills ({a_inc},{a_idx})");
                    }
                }
            }
        }
    }

    /// Recording aborts through History always makes later same-incarnation
    /// guesses aborted and leaves earlier ones untouched.
    #[test]
    fn history_abort_monotone(idx in 1u32..10, later in 0u32..5, earlier in 1u32..10) {
        let mut h = History::new();
        let g = GuessId::first(ProcessId(0), idx);
        h.record_abort(g);
        prop_assert!(h.is_aborted(GuessId::first(ProcessId(0), idx + later)));
        let e = idx.saturating_sub(earlier);
        if e < idx && e > 0 {
            prop_assert!(!h.is_aborted(GuessId::first(ProcessId(0), e)));
        }
    }
}
