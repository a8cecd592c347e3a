//! Reference-model tests for the resolution path: each indexed / windowed
//! / bounded structure against the naive one it replaced, on random
//! operation sequences.
//!
//! - [`Cdg`] against [`NaiveCdg`] — the forward-only
//!   `BTreeMap<_, BTreeSet<_>>` graph that used to live in `src/cdg.rs`,
//!   kept here as the model: identical [`EdgeOutcome`]s (cycle member sets
//!   included) and identical query results after every step, and a bulk
//!   `add_edges_into` equal to the model's one-by-one insertion; and
//!   `add_guard_into`, which links only what earlier subjects' records do
//!   not imply, against the model linking every admitted member: the same
//!   outcomes, commits, dooms and transitive closures.
//! - `Guard` against `BTreeSet<GuessId>`: runs of consecutive guesses must
//!   be indistinguishable from the member set they spell — through every
//!   mutation (adjacent inserts merge, middle removals split), the set
//!   operations and `Eq`/`Ord`/`Hash`.
//! - `History` against [`FlatHistory`] — the one-entry-per-guess map that
//!   used to live in `src/history.rs`: the same fate for every guess and
//!   the same answer to every run query, whatever order the commits,
//!   aborts, PRECEDENCE marks and incarnation rows arrive in.
//! - The sparse [`IncarnationTable`] against [`DenseIncarnations`] — one
//!   start per incarnation number, the way `src/history.rs` kept it: the
//!   same latest incarnation, starts, implicit aborts and precedence after
//!   every record, in any order and with any gaps.
//! - Bounded `choose_delivery` against an exhaustive
//!   `min_by_key((count, index))`.
//! - Implicit inherited rollback points against [`FullRollbacks`] — every
//!   thread's `Rollbacks` map materialised the way `fork` used to hand it
//!   on — over random fork / deliver / join / commit / abort scripts on a
//!   fork tree: the same `AbortEffects`, the same surviving guards.
//! - Run-keyed rollback points and the watch-indexed commit cascade
//!   against the same per-guess maps and a rescan of every awaiting guess
//!   after each commit ([`rescan_cascade`]), with awaiting joins and
//!   delivered runs in the scripts: the same points, the same rollback
//!   targets, the same commits in the same order.
//! - The run-wise abort cascade against the member-wise one it replaced
//!   (`ProcessCore::on_abort_memberwise`), over random fork / deliver /
//!   join / commit / abort / PRECEDENCE scripts with forks nested deep:
//!   the same `AbortEffects` in the same order, the same history, guards,
//!   rollback points, thread metadata and CDG afterwards.

use opcsp_core::{
    AbortEffects, Cdg, CoreConfig, DataKind, EdgeOutcome, Envelope, Fate, ForkIndex, Guard,
    GuessId, History, Incarnation, IncarnationTable, JoinDecision, MsgId, OwnGuessState,
    ProcessCore, ProcessId, Run, StateIndex, ThreadPhase, Value,
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
        guard,
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
    /// random single-edge insertions, bulk ingests, node insertions and
    /// removals — whether or not the caller erases reported cycles, as the
    /// protocol does. (The §4.2.8 admission rule is `add_guard_into`'s,
    /// checked against the model below.)
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
                    let f = fast.add_edges_into(b, members.iter().copied());
                    let n = naive.add_edges_into(b, &members, false);
                    prop_assert_eq!(&f, &n, "ingest {:?} → {}", members, b);
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

/// One resolution-path event, as a process core hands it to its CDG.
#[derive(Debug, Clone)]
enum CdgStep {
    /// `PRECEDENCE(subject, guard)`, under §4.2.8's admission rule.
    Precedence(GuessId, BTreeSet<GuessId>),
    /// A join's own guard: every member admitted.
    Join(GuessId, BTreeSet<GuessId>),
    /// A delivery makes a guess known without an edge.
    Known(GuessId),
    /// COMMIT: the guess and all its predecessors leave the graph.
    Commit(GuessId),
    /// ABORT: the guess and all its successors leave the graph, with
    /// further nodes (picked by position) that a thread's guard dooms
    /// without their successors.
    Abort(GuessId, Vec<usize>),
}

/// Guesses of up to five processes, two incarnations and 12 fork indexes:
/// subjects come back as members of later guards.
fn arb_cdg_guess() -> impl Strategy<Value = GuessId> {
    (0u32..5, 0u32..2, 0u32..12).prop_map(|(p, i, n)| gid(p, i, n))
}

/// Interleaved pipeline stretches: up to four runs `x_{p,i,lo..=lo+len}`
/// from any of the processes, and a stray member or two.
fn arb_pipeline_guard() -> impl Strategy<Value = BTreeSet<GuessId>> {
    let runs = proptest::collection::vec((0u32..5, 0u32..2, 0u32..10, 0u32..6), 0..5);
    let strays = proptest::collection::btree_set(arb_cdg_guess(), 0..3);
    (runs, strays).prop_map(|(runs, strays)| {
        let members = runs
            .into_iter()
            .flat_map(|(p, i, lo, len)| (lo..=lo + len).map(move |n| gid(p, i, n)));
        members.chain(strays).collect()
    })
}

fn arb_cdg_step() -> impl Strategy<Value = CdgStep> {
    let picks = proptest::collection::vec(0usize..64, 0..3);
    (0u32..13, arb_cdg_guess(), arb_pipeline_guard(), picks).prop_map(
        |(kind, g, members, picks)| match kind {
            0..=5 => CdgStep::Precedence(g, members),
            6 | 7 => CdgStep::Join(g, members),
            8 | 9 => CdgStep::Known(g),
            10 | 11 => CdgStep::Commit(g),
            _ => CdgStep::Abort(g, picks),
        },
    )
}

/// Everything `g` reaches through `next` (`g` included).
fn closure(g: GuessId, next: impl Fn(GuessId) -> Vec<GuessId>) -> BTreeSet<GuessId> {
    let mut seen = BTreeSet::from([g]);
    let mut stack = vec![g];
    while let Some(n) = stack.pop() {
        for m in next(n) {
            if seen.insert(m) {
                stack.push(m);
            }
        }
    }
    seen
}

/// The CDG under test beside [`NaiveCdg`] linking every admitted member,
/// driven the way `ProcessCore` drives its graph: a committed guess is
/// never named again, and every guess on a reported cycle aborts.
#[derive(Default)]
struct IngestPair {
    fast: Cdg,
    naive: NaiveCdg,
    committed: BTreeSet<GuessId>,
}

impl IngestPair {
    fn step(&mut self, step: CdgStep) {
        match step {
            CdgStep::Precedence(to, members) => self.ingest(to, members, true),
            CdgStep::Join(to, members) => self.ingest(to, members, false),
            CdgStep::Known(g) if !self.committed.contains(&g) => {
                self.fast.add_node(g);
                self.naive.add_node(g);
            }
            CdgStep::Commit(g) if !self.committed.contains(&g) => {
                let fast = closure(g, |n| self.fast.predecessors(n));
                let naive = closure(g, |n| self.naive.predecessors(n));
                prop_assert_eq!(&fast, &naive, "committed with {}", g);
                for c in fast {
                    self.fast.remove(c);
                    self.naive.remove(c);
                    self.committed.insert(c);
                }
            }
            CdgStep::Abort(g, picks) if !self.committed.contains(&g) => {
                let nodes = Vec::from_iter(self.naive.nodes.iter().copied());
                let extra = picks
                    .iter()
                    .filter_map(|i| nodes.get(i % nodes.len().max(1)));
                self.abort(BTreeSet::from([g]), extra.copied().collect());
            }
            _ => {}
        }
        self.compare()
    }

    /// Ingest one guard into both graphs, the committed members left out
    /// and the subject's own membership (a self-cycle the caller reports)
    /// taken out, as `on_precedence` does.
    fn ingest(&mut self, to: GuessId, mut members: BTreeSet<GuessId>, known: bool) {
        if self.committed.contains(&to) {
            return;
        }
        members.retain(|m| *m != to && !self.committed.contains(m));
        let guard = Guard::from_iter(members.iter().copied());
        let fast = self.fast.add_guard_into(to, &guard, known);
        let naive = self.naive.add_edges_into(to, &members, known);
        prop_assert_eq!(
            &fast,
            &naive,
            "PRECEDENCE({}, {}) known: {}",
            to,
            guard,
            known
        );
        if let EdgeOutcome::Cycle(on_cycle) = fast {
            self.abort(on_cycle, BTreeSet::new());
            prop_assert!(self.fast.is_acyclic());
        }
    }

    /// Doom `roots` and their successors (equal in both graphs), plus
    /// `extra` without theirs, and remove the lot.
    fn abort(&mut self, roots: BTreeSet<GuessId>, extra: BTreeSet<GuessId>) {
        let mut doomed = BTreeSet::new();
        for &r in &roots {
            let fast = closure(r, |n| self.fast.successors(n));
            let naive = closure(r, |n| self.naive.successors(n));
            prop_assert_eq!(&fast, &naive, "doomed by {}", r);
            doomed.extend(fast);
        }
        doomed.extend(extra);
        self.fast.remove_aborted(doomed.iter().copied());
        for d in &doomed {
            self.naive.remove(*d);
        }
    }

    /// The same nodes, and every node reaches and is reached by the same
    /// guesses; the records never cost an edge.
    fn compare(&self) {
        let nodes = Vec::from_iter(self.fast.nodes());
        prop_assert_eq!(&nodes, &Vec::from_iter(self.naive.nodes.iter().copied()));
        for &n in &nodes {
            prop_assert_eq!(
                closure(n, |m| self.fast.successors(m)),
                closure(n, |m| self.naive.successors(m)),
                "successors of {}",
                n
            );
            prop_assert_eq!(
                closure(n, |m| self.fast.predecessors(m)),
                closure(n, |m| self.naive.predecessors(m)),
                "predecessors of {}",
                n
            );
            prop_assert_eq!(self.fast.is_root(n), self.naive.is_root(n));
        }
        prop_assert!(self.fast.edge_count() <= self.naive.edge_count());
    }
}

proptest! {
    /// `Cdg::add_guard_into` — each ingest links only what the records of
    /// earlier subjects do not imply — against the naive graph linking
    /// every admitted member, over random PRECEDENCE / join / COMMIT /
    /// ABORT sequences on 3–5 processes: the same `EdgeOutcome` for every
    /// ingest, the same committed and doomed sets for every resolution,
    /// and the same transitive successors and predecessors for every node
    /// after every step.
    #[test]
    fn guard_ingest_matches_linking_every_member(
        procs in 3u32..=5,
        steps in proptest::collection::vec(arb_cdg_step(), 1..80),
    ) {
        let fold = |g: GuessId| gid(g.process.0 % procs, g.incarnation.0, g.index);
        let fold_set = |s: BTreeSet<GuessId>| s.into_iter().map(fold).collect();
        let mut pair = IngestPair::default();
        for step in steps {
            let step = match step {
                CdgStep::Precedence(g, m) => CdgStep::Precedence(fold(g), fold_set(m)),
                CdgStep::Join(g, m) => CdgStep::Join(fold(g), fold_set(m)),
                CdgStep::Known(g) => CdgStep::Known(fold(g)),
                CdgStep::Commit(g) => CdgStep::Commit(fold(g)),
                CdgStep::Abort(g, picks) => CdgStep::Abort(fold(g), picks),
            };
            pair.step(step);
        }
    }
}

// ----------------------------------------------------------------------
// Guard runs
// ----------------------------------------------------------------------

/// The guard spells `model`, canonically: its runs ascend, are disjoint and
/// never touch, and expand to exactly the model's members.
fn assert_spells(guard: &Guard, model: &BTreeSet<GuessId>) {
    prop_assert!(
        guard.iter().eq(model.iter().copied()),
        "{guard} vs {model:?}"
    );
    prop_assert_eq!(guard.len(), model.len());
    prop_assert_eq!(guard.is_empty(), model.is_empty());
    let runs = guard.runs();
    prop_assert!(runs.iter().all(|r| r.lo <= r.hi));
    for w in runs.windows(2) {
        let (a, b) = (w[0], w[1]);
        let same = (a.process, a.incarnation) == (b.process, b.incarnation);
        prop_assert!((a.process, a.incarnation) <= (b.process, b.incarnation));
        prop_assert!(
            !same || a.hi + 1 < b.lo,
            "runs {a:?} and {b:?} overlap or touch"
        );
    }
    prop_assert!(runs.iter().flat_map(|r| r.iter()).eq(model.iter().copied()));
}

proptest! {
    /// Mutating a guard — at its ends, in the middle of a run, next to a
    /// run — keeps it indistinguishable from the `BTreeSet` model through
    /// every canonical view: contents and run structure, `Eq`, `Ord` and
    /// `Hash` against a freshly built guard, the "shared iff it outgrew
    /// the inline capacity" invariant, aliases taken before the mutation,
    /// and the set operations against another guard.
    #[test]
    fn guard_runs_match_btreeset_model(
        initial in arb_set(24),
        other in arb_set(24),
        ops in proptest::collection::vec((0u32..10, arb_guess()), 1..40),
    ) {
        let mut guard: Guard = initial.iter().copied().collect();
        let mut model = initial;
        let other_guard: Guard = other.iter().copied().collect();
        assert_spells(&other_guard, &other);
        let other_vec: Vec<GuessId> = other.iter().copied().collect();
        for (op, g) in ops {
            let alias = guard.clone();
            let alias_model = model.clone();
            // A member strictly inside a run, if there is one: removing it
            // splits the run.
            let inner = guard.runs().iter().find(|r| r.hi - r.lo >= 2).map(|r| r.guess(r.lo + 1));
            // A guess just past the first run: inserting it extends the
            // run, or bridges it to the next.
            let next = guard.runs().first().map(|r| r.guess(r.hi + 1));
            let victim = match op {
                0 | 1 => model.first().copied(),
                2 | 3 => model.last().copied(),
                4 => inner,
                5 => Some(g),
                _ => None,
            };
            match (victim, op) {
                (Some(v), _) => prop_assert_eq!(guard.remove(v), model.remove(&v)),
                (None, 6) => {
                    let g = next.unwrap_or(g);
                    prop_assert_eq!(guard.insert(g), model.insert(g));
                }
                (None, 7) => {
                    // Union with another multi-process, multi-incarnation
                    // guard; a second union changes nothing and keeps the
                    // storage.
                    guard.union_with(&other_guard);
                    model.extend(other.iter().copied());
                    let before = guard.clone();
                    guard.union_with(&other_guard);
                    prop_assert_eq!(before.shares_storage_with(&guard), guard.runs().len() > Guard::INLINE_CAP);
                }
                (None, 8) => {
                    let keep = |x: GuessId| !(x.index + g.index).is_multiple_of(3);
                    let removed = guard.retain(keep);
                    let gone: Vec<GuessId> = model.iter().copied().filter(|x| !keep(*x)).collect();
                    prop_assert_eq!(removed, gone);
                    model.retain(|x| keep(*x));
                }
                (None, _) => prop_assert_eq!(guard.insert(g), model.insert(g)),
            }
            assert_spells(&guard, &model);
            let want: Vec<GuessId> = model.iter().copied().collect();
            prop_assert_eq!(guard.contains(g), model.contains(&g));
            // Canonical Eq / Ord / Hash: how the runs came about is not
            // observable.
            let fresh: Guard = want.iter().copied().collect();
            prop_assert_eq!(&guard, &fresh);
            prop_assert_eq!(&fresh, &guard);
            prop_assert_eq!(guard.runs(), fresh.runs());
            prop_assert_eq!(guard.cmp(&fresh), std::cmp::Ordering::Equal);
            prop_assert_eq!(hash_of(&guard), hash_of(&fresh));
            prop_assert_eq!(guard.cmp(&other_guard), want.cmp(&other_vec));
            prop_assert_eq!(other_guard.cmp(&guard), other_vec.cmp(&want));
            // Set difference, both ways, by members, by runs and by count.
            let new: Vec<GuessId> = other.difference(&model).copied().collect();
            prop_assert_eq!(guard.new_guard_count(&other_guard), new.len());
            let new_runs: Guard = guard.new_runs(&other_guard).flat_map(Run::iter).collect();
            prop_assert!(new_runs.iter().eq(new.iter().copied()));
            let missing: Vec<GuessId> = model.difference(&other).copied().collect();
            let missing_runs = other_guard.new_runs(&guard).flat_map(Run::iter);
            prop_assert!(missing_runs.eq(missing.iter().copied()));
            prop_assert_eq!(guard.new_guard_count(&guard.clone()), 0);
            // Shared storage exactly above the inline capacity; a clone
            // reads the same storage, a differently-built equal guard does
            // not.
            let shared = guard.runs().len() > Guard::INLINE_CAP;
            prop_assert_eq!(guard.clone().shares_storage_with(&guard), shared);
            prop_assert!(!guard.shares_storage_with(&fresh));
            // The alias taken before the mutation still reads the old set,
            // and no longer shares storage once the mutation changed it.
            assert_spells(&alias, &alias_model);
            if alias_model != model {
                prop_assert!(!alias.shares_storage_with(&guard));
            }
        }
    }
}

#[test]
fn end_removals_of_a_run_move_its_bounds_in_place() {
    // A 64-deep pipeline of process 0 next to three other processes' single
    // guesses: four runs, so shared storage.
    let x = |n: u32| GuessId::first(ProcessId(0), n);
    let others = (1..4).map(|p| GuessId::first(ProcessId(p), 7));
    let mut guard: Guard = (1..=64).map(x).chain(others).collect();
    assert_eq!(guard.runs().len(), 4);
    assert_eq!((guard.runs()[0].lo, guard.runs()[0].hi), (1, 64));
    let original = guard.clone();
    assert!(guard.shares_storage_with(&original));
    // Commit in fork order from the front, abort-style from the back: the
    // run's bounds move; no run appears or disappears, and the guard stays
    // the one shared allocation its clones read.
    for round in 1..=25 {
        assert!(guard.remove(x(round)));
        assert!(guard.remove(x(65 - round)));
        assert_eq!(guard.runs().len(), 4);
        assert_eq!(
            (guard.runs()[0].lo, guard.runs()[0].hi),
            (round + 1, 64 - round)
        );
        assert!(guard.clone().shares_storage_with(&guard));
    }
    assert_eq!(guard.len(), 64 - 50 + 3);
    // The clone taken before still reads all 67, in its own storage.
    assert_eq!(original.len(), 67);
    assert!(!original.shares_storage_with(&guard));
    // A removal from the middle splits the run; re-inserting heals it.
    assert!(guard.remove(x(30)));
    assert_eq!(guard.runs().len(), 5);
    assert!(guard.insert(x(30)));
    assert_eq!(guard.runs().len(), 4);
    // A guard that does not hold the guess is left alone.
    let before = guard.clone();
    assert!(!guard.remove(x(1)));
    assert!(guard.shares_storage_with(&before));
    // Dropping to three runs demotes to inline storage.
    assert!(guard.remove(GuessId::first(ProcessId(3), 7)));
    assert!(!guard.clone().shares_storage_with(&guard));
}

// ----------------------------------------------------------------------
// The flat commit history (reference model)
// ----------------------------------------------------------------------

/// One explicit entry per guess plus a dense incarnation start table per
/// process — `History` as it was before commits coalesced into ranges.
#[derive(Debug, Clone, Default)]
struct FlatHistory {
    fates: BTreeMap<GuessId, Fate>,
    /// `starts[p][i]` = first fork index of incarnation `i`.
    starts: BTreeMap<ProcessId, Vec<ForkIndex>>,
    aborts_learned: u64,
}

impl FlatHistory {
    fn fate(&self, g: GuessId) -> Fate {
        if let Some(f) = self.fates.get(&g) {
            return *f;
        }
        let later = self.starts.get(&g.process).into_iter().flatten();
        let superseded = later
            .skip(g.incarnation.0 as usize + 1)
            .any(|s| *s <= g.index);
        match superseded {
            true => Fate::Aborted,
            false => Fate::Unknown,
        }
    }

    fn set_fate(&mut self, g: GuessId, f: Fate) {
        if self.fates.insert(g, f) != Some(f) {
            self.aborts_learned += (f == Fate::Aborted) as u64;
        }
    }

    fn record_commit(&mut self, g: GuessId) {
        self.set_fate(g, Fate::Committed);
    }

    fn record_abort(&mut self, g: GuessId) {
        self.set_fate(g, Fate::Aborted);
        self.record_incarnation(g.process, g.incarnation.0 + 1, g.index);
    }

    fn record_unknown(&mut self, g: GuessId) {
        self.fates.entry(g).or_insert(Fate::Unknown);
    }

    fn observe_guess(&mut self, g: GuessId) {
        if g.incarnation.0 > 0 {
            self.record_incarnation(g.process, g.incarnation.0, g.index);
        }
    }

    fn record_incarnation(&mut self, p: ProcessId, inc: u32, start: ForkIndex) {
        let table = self.starts.entry(p).or_insert_with(|| vec![0]);
        if table.get(inc as usize).is_some_and(|s| *s <= start) {
            return;
        }
        self.aborts_learned += 1;
        while table.len() <= inc as usize {
            table.push(start);
        }
        let slot = &mut table[inc as usize];
        *slot = (*slot).min(start);
    }
}

fn gid(p: u32, i: u32, n: u32) -> GuessId {
    GuessId::new(ProcessId(p), Incarnation(i), n)
}

#[test]
fn commits_coalesce_into_ranges_and_absorb_what_they_overwrite() {
    let mut h = History::new();
    // Out of fork order: 1, 3, then 2 bridges them.
    h.record_commit(gid(0, 0, 1));
    h.record_commit(gid(0, 0, 3));
    assert_eq!(h.explicit_entries(), 2);
    h.record_unknown(gid(0, 0, 2));
    assert_eq!(h.explicit_entries(), 3);
    h.record_commit(gid(0, 0, 2));
    assert_eq!(
        h.explicit_entries(),
        1,
        "one range, the PRECEDENCE mark absorbed"
    );
    assert!((1..=3).all(|n| h.is_committed(gid(0, 0, n))));
    assert_eq!(h.fate(gid(0, 0, 4)), Fate::Unknown);
    // Another incarnation's guesses are another range.
    h.record_commit(gid(0, 1, 4));
    assert_eq!(h.explicit_entries(), 2);
    // An abort after the fact cuts its guess out of the range.
    h.record_abort(gid(0, 0, 2));
    assert!(h.is_committed(gid(0, 0, 1)) && h.is_committed(gid(0, 0, 3)));
    assert!(h.is_aborted(gid(0, 0, 2)));
    assert_eq!(h.explicit_entries(), 4);
}

#[test]
fn a_run_is_cut_into_stretches_of_one_fate() {
    let mut h = History::new();
    for n in 1..=4 {
        h.record_commit(gid(0, 0, n));
    }
    h.record_abort(gid(0, 0, 7)); // and incarnation 1 starts at 7
    h.record_unknown(gid(0, 0, 9));
    let run = Run::new(ProcessId(0), Incarnation(0), 2, 10);
    let cut: Vec<_> = h.fates_in(run).map(|(r, f)| (r.lo, r.hi, f)).collect();
    assert_eq!(
        cut,
        vec![
            (2, 4, Fate::Committed),
            (5, 6, Fate::Unknown),
            (7, 7, Fate::Aborted),
            (8, 8, Fate::Aborted), // implicitly: incarnation 1 took over
            (9, 9, Fate::Unknown), // PRECEDENCE-only mark stands
            (10, 10, Fate::Aborted),
        ]
    );
    for (r, f) in h.fates_in(run) {
        assert!(r.iter().all(|g| h.fate(g) == f));
    }
    let guard: Guard = run.iter().collect();
    assert_eq!(h.first_aborted(&guard), Some(gid(0, 0, 7)));
    assert_eq!(
        h.uncommitted(&guard),
        (5..=10).map(|n| gid(0, 0, n)).collect()
    );
    assert!(!h.all_committed(&guard));
    assert!(h.all_committed(&(1..=4).map(|n| gid(0, 0, n)).collect()));
    // A process nothing is known about: one stretch.
    let other = Run::new(ProcessId(5), Incarnation(2), 0, u32::MAX);
    assert_eq!(
        h.fates_in(other).collect::<Vec<_>>(),
        vec![(other, Fate::Unknown)]
    );
}

proptest! {
    /// The range-backed history agrees with the flat one on the fate of
    /// every guess, on its abort stamp, on its incarnation tables and on
    /// every run query, after every step of a random script — commits out
    /// of fork order, aborts of committed guesses and commits of aborted
    /// ones included — and never holds more records than the flat map.
    #[test]
    fn history_ranges_match_flat_model(
        ops in proptest::collection::vec((0u32..9, 0u32..3, 0u32..3, 0u32..10), 1..80),
        probes in proptest::collection::vec((0u32..3, 0u32..3, 0u32..10, 0u32..10), 4..5),
    ) {
        let gid = |p, i, n| GuessId::new(ProcessId(p), Incarnation(i), n);
        let mut fast = History::new();
        let mut flat = FlatHistory::default();
        for (op, p, i, n) in ops {
            let g = gid(p, i, n);
            match op {
                // Mostly commits, half of them in fork order behind the
                // last one.
                0..=3 => {
                    fast.record_commit(g);
                    flat.record_commit(g);
                }
                4 => {
                    fast.record_abort(g);
                    flat.record_abort(g);
                }
                5 => {
                    fast.record_unknown(g);
                    flat.record_unknown(g);
                }
                6 | 7 => {
                    fast.observe_guess(g);
                    flat.observe_guess(g);
                }
                _ => {
                    // A stretch of commits in fork order from `n` up.
                    for m in n..n + 4 {
                        fast.record_commit(gid(p, i, m));
                        flat.record_commit(gid(p, i, m));
                    }
                }
            }
            prop_assert_eq!(fast.aborts_learned(), flat.aborts_learned);
            prop_assert!(fast.explicit_entries() <= flat.fates.len());
            for p in 0..3 {
                let table = fast.incarnation_table(ProcessId(p));
                prop_assert_eq!(table.is_some(), flat.starts.contains_key(&ProcessId(p)));
                for (i, start) in flat.starts.get(&ProcessId(p)).into_iter().flatten().enumerate() {
                    let table = table.expect("just compared");
                    prop_assert_eq!(table.start_of(Incarnation(i as u32)), Some(*start));
                }
                for i in 0..4 {
                    for n in 0..15 {
                        let g = gid(p, i, n);
                        prop_assert_eq!(fast.fate(g), flat.fate(g), "{} after op {}", g, op);
                    }
                }
            }
            // Run queries: a cut of a run is a partition of it into
            // stretches of one fate each, in order.
            let mut members = BTreeSet::new();
            for &(p, i, a, b) in &probes {
                let run = Run::new(ProcessId(p), Incarnation(i), a.min(b), a.max(b));
                let mut next = run.lo;
                for (stretch, fate) in fast.fates_in(run) {
                    prop_assert_eq!((stretch.process, stretch.incarnation), (run.process, run.incarnation));
                    prop_assert_eq!(stretch.lo, next);
                    prop_assert!(stretch.hi >= stretch.lo && stretch.hi <= run.hi);
                    for g in stretch.iter() {
                        prop_assert_eq!(flat.fate(g), fate, "{} in {:?}", g, run);
                    }
                    next = stretch.hi + 1;
                }
                prop_assert_eq!(next, run.hi + 1);
                members.extend(run.iter());
            }
            let guard: Guard = members.iter().copied().collect();
            let aborted = members.iter().copied().find(|g| flat.fate(*g) == Fate::Aborted);
            prop_assert_eq!(fast.first_aborted(&guard), aborted);
            let uncommitted: Vec<GuessId> = members.iter().copied().filter(|g| flat.fate(*g) != Fate::Committed).collect();
            prop_assert!(fast.uncommitted(&guard).iter().eq(uncommitted.iter().copied()));
            prop_assert_eq!(fast.all_committed(&guard), uncommitted.is_empty());
            let cut: Vec<(GuessId, Fate)> = fast.fates_of(&guard).flat_map(|(r, f)| r.iter().map(move |g| (g, f))).collect();
            prop_assert!(cut.iter().map(|(g, _)| *g).eq(members.iter().copied()));
            prop_assert!(cut.iter().all(|(g, f)| flat.fate(*g) == *f));
            // Observing a guard is observing each member.
            let (mut by_guard, mut by_member) = (fast.clone(), fast.clone());
            by_guard.observe_guard(&guard);
            members.iter().for_each(|g| by_member.observe_guess(*g));
            prop_assert_eq!(by_guard.aborts_learned(), by_member.aborts_learned());
            for p in 0..3 {
                prop_assert_eq!(by_guard.incarnation_table(ProcessId(p)), by_member.incarnation_table(ProcessId(p)));
            }
        }
    }
}

// ----------------------------------------------------------------------
// The dense incarnation table (reference model)
// ----------------------------------------------------------------------

/// One start per incarnation number up to the latest heard of: how the
/// incarnation table was kept before it went sparse.
struct DenseIncarnations {
    starts: Vec<ForkIndex>,
}

impl DenseIncarnations {
    fn record(&mut self, inc: u32, start: ForkIndex) {
        let i = inc as usize;
        while self.starts.len() <= i {
            self.starts.push(start);
        }
        self.starts[i] = self.starts[i].min(start);
    }

    fn start_of(&self, inc: u32) -> Option<ForkIndex> {
        self.starts.get(inc as usize).copied()
    }

    fn superseded_from(&self, inc: u32) -> Option<ForkIndex> {
        self.starts.iter().skip(inc as usize + 1).copied().min()
    }

    fn precedes(&self, (ia, ma): (u32, ForkIndex), (ib, nb): (u32, ForkIndex)) -> bool {
        if ma >= nb || ia > ib {
            return false;
        }
        !(ia + 1..=ib).any(|i| self.start_of(i).is_some_and(|s| s <= ma))
    }
}

proptest! {
    /// Recording incarnations in any order, with any gaps, the sparse
    /// table answers every question exactly as the dense one does.
    #[test]
    fn sparse_incarnations_answer_as_the_dense_table(
        records in proptest::collection::vec((0u32..24, 0u32..40), 0..12),
    ) {
        let mut sparse = IncarnationTable::new();
        let mut dense = DenseIncarnations { starts: vec![0] };
        for (inc, start) in records {
            sparse.record(Incarnation(inc), start);
            dense.record(inc, start);
            prop_assert_eq!(sparse.latest().0 as usize, dense.starts.len() - 1);
            for i in 0..26 {
                prop_assert_eq!(sparse.start_of(Incarnation(i)), dense.start_of(i), "start of {}", i);
                prop_assert_eq!(
                    sparse.superseded_from(Incarnation(i)),
                    dense.superseded_from(i),
                    "superseded from {}", i
                );
                for index in (0..42).step_by(3) {
                    let dense_aborted = dense.superseded_from(i).is_some_and(|s| s <= index);
                    prop_assert_eq!(sparse.implicitly_aborted(Incarnation(i), index), dense_aborted);
                }
            }
            for (a, b) in [(0, 3), (1, 2), (2, 9), (0, 25), (5, 5), (7, 4), (3, 23)] {
                for (ma, nb) in [(0, 1), (4, 30), (12, 13), (39, 41), (20, 2)] {
                    prop_assert_eq!(
                        sparse.precedes((Incarnation(a), ma), (Incarnation(b), nb)),
                        dense.precedes((a, ma), (b, nb)),
                        "({}, {}) before ({}, {})", a, ma, b, nb
                    );
                }
            }
        }
    }
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
            .min_by_key(|(i, e)| (core.live_new_guard_count(0, &e.guard, usize::MAX), *i))
            .map(|(i, _)| i);
        prop_assert_eq!(core.choose_delivery(0, &refs), exhaustive);
        // A bounded count is the full count, capped.
        for e in &refs {
            let full = core.live_new_guard_count(0, &e.guard, usize::MAX);
            for limit in 0..4 {
                prop_assert_eq!(core.live_new_guard_count(0, &e.guard, limit), full.min(limit));
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
                    prop_assert_eq!(eff.new_guards.iter().collect::<Vec<_>>(), new.clone());
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
            // Same threads, same guards, same answer for every member.
            prop_assert!(core.threads.keys().eq(full.maps.keys()));
            for (t, map) in &full.maps {
                let meta = core.thread(*t);
                // The stored guard may still list committed guesses; the
                // guard proper is what is left of it in the history.
                let guard = core.history.uncommitted(&meta.guard);
                prop_assert!(guard.iter().eq(map.keys().copied()), "thread {}", t);
                for (g, at) in map {
                    let point = meta.rollback_point(*g).expect("guard member");
                    prop_assert_eq!(discards(point, *t), discards(*at, *t));
                    prop_assert!(discards(point, *t) || point == *at);
                }
            }
            // The holder index lists every thread with something in its
            // guard, and beyond those only threads whose last dependencies
            // committed since their guard was read.
            let holders: BTreeSet<ForkIndex> = core.holders().map(|m| m.index).collect();
            for (t, map) in &full.maps {
                let stored_empty = core.thread(*t).guard.is_empty();
                prop_assert_eq!(holders.contains(t), !stored_empty);
                prop_assert!(!map.is_empty() || core.is_committed(*t));
                prop_assert!(map.is_empty() || holders.contains(t));
            }
        }
    }
}

// ----------------------------------------------------------------------
// Run-keyed rollback points and the watch-indexed commit cascade
// ----------------------------------------------------------------------

/// The own guesses a commit cascade must commit, in order, once `history`
/// holds the commits that set it off: after each commit, a rescan of every
/// guess `before` had awaiting, the smallest ready one first — the cascade
/// as it was before the watch index.
fn rescan_cascade(before: &ProcessCore, mut history: History) -> Vec<GuessId> {
    let awaiting = Vec::from_iter(
        before
            .own
            .values()
            .filter(|o| o.state == OwnGuessState::AwaitingResolution)
            .map(|o| o.id),
    );
    let mut order = Vec::new();
    while let Some(g) = awaiting.iter().copied().find(|g| {
        let left = before.threads.get(&before.own[g].left_thread);
        !order.contains(g) && left.is_some_and(|t| history.all_committed(&t.guard))
    }) {
        order.push(g);
        if !history.is_committed(g) {
            history.record_commit(g);
        }
    }
    order
}

/// `g` and its transitive CDG predecessors, which a COMMIT of `g` records.
fn with_predecessors(core: &ProcessCore, g: GuessId) -> BTreeSet<GuessId> {
    let mut all = BTreeSet::from([g]);
    let mut stack = vec![g];
    while let Some(n) = stack.pop() {
        for p in core.cdg.predecessors(n) {
            if all.insert(p) {
                stack.push(p);
            }
        }
    }
    all
}

fn arb_run() -> impl Strategy<Value = Run> {
    (0u32..4, 0u32..2, 0u32..12, 0u32..5)
        .prop_map(|(p, i, lo, len)| Run::new(ProcessId(p), Incarnation(i), lo, lo + len))
}

proptest! {
    /// Random fork / deliver / join / commit / abort scripts, awaiting
    /// joins included, on a core that keeps rollback points by run and
    /// finds ready guesses through its watch index: every guard member's
    /// rollback point is the one a per-guess map records, an abort rolls
    /// back and discards what that map prescribes, and every commit
    /// cascade commits the guesses a full rescan would, in its order.
    #[test]
    fn run_rollbacks_and_watch_cascade_match_per_guess_rescans(
        ops in proptest::collection::vec(
            (0u32..10, 0u32..64, any::<bool>(), proptest::collection::vec(arb_run(), 0..3)),
            1..60,
        ),
    ) {
        const ME: ProcessId = ProcessId(7);
        let mut core = ProcessCore::new(ME, CoreConfig::default());
        let mut full = FullRollbacks::default();
        full.maps.insert(0, BTreeMap::new());
        for (op, pick, flag, runs) in ops {
            let foreign: Vec<GuessId> = runs.iter().flat_map(|r| r.iter()).collect();
            let running: Vec<ForkIndex> = core
                .threads
                .values()
                .filter(|t| t.phase == ThreadPhase::Running)
                .map(|t| t.index)
                .collect();
            let Some(&thread) = running.get(pick as usize % running.len().max(1)) else {
                break;
            };
            let pending: Vec<GuessId> = core
                .own
                .values()
                .filter(|o| o.state == OwnGuessState::Pending)
                .map(|o| o.id)
                .collect();
            let own_pick = pending.get(pick as usize % pending.len().max(1)).copied();
            let before = core.clone();
            let aborted = match (op, own_pick) {
                (0..=2, _) => {
                    let rec = core.fork(thread, 1);
                    full.fork(thread, rec.right_thread, rec.guess);
                    None
                }
                (3..=5, _) => {
                    // Runs of foreign guesses, and own ones that are not
                    // the receiving thread's future.
                    let past = pending.iter().filter(|g| flag && g.index <= thread);
                    let tag: Guard = foreign.iter().chain(past).copied().collect();
                    let eff = core.deliver(thread, &envelope(tag.clone()));
                    let map = full.maps.get_mut(&thread).expect("thread exists");
                    let new: Vec<GuessId> = tag
                        .iter()
                        .filter(|g| !map.contains_key(g) && !core.history.is_resolved(*g))
                        .collect();
                    prop_assert!(eff.new_guards.iter().eq(new.iter().copied()));
                    // One rollback entry per new run, not one per guess.
                    let at = core.thread(thread).state_index();
                    let recorded = core.thread(thread).rollbacks.iter().filter(|(_, p)| *p == at);
                    if eff.new_interval.is_some() {
                        let runs = eff.new_guards.runs().iter().copied();
                        prop_assert!(recorded.map(|(run, _)| run).eq(runs));
                    }
                    map.extend(new.into_iter().map(|g| (g, at)));
                    None
                }
                // A join: a value fault aborts, an empty guard commits and
                // cascades, anything else awaits.
                (6..=7, Some(g)) if running.contains(&core.own[&g].left_thread) => {
                    match core.join_left_done(g, flag || op == 7) {
                        JoinDecision::Abort { effects } => Some(effects),
                        JoinDecision::Commit { committed } => {
                            let mut history = before.history.clone();
                            history.record_commit(g);
                            let mut expected = vec![g];
                            expected.extend(rescan_cascade(&before, history));
                            prop_assert_eq!(committed, expected);
                            None
                        }
                        _ => None,
                    }
                }
                (8, _) => foreign.first().map(|g| core.on_abort(*g)),
                _ => {
                    // COMMITs of foreign guesses, a run's members in order.
                    for &g in foreign.iter().take(3) {
                        let before = core.clone();
                        let effects = core.on_commit(g);
                        let expected = match before.history.is_committed(g) {
                            true => Vec::new(),
                            false => {
                                let mut history = before.history.clone();
                                with_predecessors(&before, g).into_iter().for_each(|c| history.record_commit(c));
                                rescan_cascade(&before, history)
                            }
                        };
                        prop_assert_eq!(effects.own_committed, expected);
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
            prop_assert!(core.threads.keys().eq(full.maps.keys()));
            for (t, map) in &full.maps {
                let meta = core.thread(*t);
                let guard = core.history.uncommitted(&meta.guard);
                prop_assert!(guard.iter().eq(map.keys().copied()), "thread {}", t);
                for (g, at) in map {
                    let point = meta.rollback_point(*g).expect("guard member");
                    prop_assert_eq!(discards(point, *t), discards(*at, *t));
                    prop_assert!(discards(point, *t) || point == *at);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The run-wise abort cascade
// ----------------------------------------------------------------------

/// `on_abort(g)` on `core` and the member-wise reference on a copy: the
/// same effects and the same process state afterwards, piece by piece.
fn abort_matches_reference(core: &mut ProcessCore, g: GuessId) {
    let mut reference = core.clone();
    let expected = reference.on_abort_memberwise(g);
    let effects = core.on_abort(g);
    prop_assert_eq!(&effects, &expected, "abort of {}", g);
    prop_assert!(
        core.history == reference.history,
        "history after the abort of {}",
        g
    );
    prop_assert!(core.cdg == reference.cdg, "CDG after the abort of {}", g);
    prop_assert!(core.threads.keys().eq(reference.threads.keys()));
    for (t, meta) in &core.threads {
        let other = &reference.threads[t];
        prop_assert_eq!(&meta.guard, &other.guard, "guard of thread {}", t);
        prop_assert_eq!(
            &meta.rollbacks,
            &other.rollbacks,
            "rollbacks of thread {}",
            t
        );
        prop_assert_eq!((meta.interval, meta.phase), (other.interval, other.phase));
    }
    prop_assert!(*core == reference, "process state after the abort of {}", g);
}

proptest! {
    /// Random scripts on one process: forks (mostly from the newest
    /// thread, so chains grow deep), deliveries of foreign runs and of own
    /// past guesses, joins, commits, PRECEDENCE of foreign and own guesses
    /// (cycles abort through the same cascade) and aborts of own pending
    /// guesses and of foreign ones. Every abort the script asks for is
    /// replayed on a copy through the member-wise reference; debug builds
    /// also check every abort a join or a PRECEDENCE sets off.
    #[test]
    fn runwise_abort_matches_memberwise_reference(
        ops in proptest::collection::vec(
            (0u32..12, 0u32..64, any::<bool>(), proptest::collection::vec(arb_run(), 0..3)),
            1..80,
        ),
    ) {
        const ME: ProcessId = ProcessId(7);
        let mut core = ProcessCore::new(ME, CoreConfig::default());
        for (op, pick, flag, runs) in ops {
            let foreign: Vec<GuessId> = runs.iter().flat_map(|r| r.iter()).collect();
            let running: Vec<ForkIndex> = core
                .threads
                .values()
                .filter(|t| t.phase == ThreadPhase::Running)
                .map(|t| t.index)
                .collect();
            let Some(&thread) = running.get(pick as usize % running.len().max(1)) else {
                break;
            };
            let pending: Vec<GuessId> = core
                .own
                .values()
                .filter(|o| o.state == OwnGuessState::Pending)
                .map(|o| o.id)
                .collect();
            let own_pick = pending.get(pick as usize % pending.len().max(1)).copied();
            match (op, own_pick) {
                (0..=2, _) => {
                    let from = match flag {
                        true => *running.last().expect("a running thread"),
                        false => thread,
                    };
                    core.fork(from, 1);
                }
                (3..=4, _) => {
                    let past = pending.iter().filter(|g| flag && g.index <= thread);
                    let tag: Guard = foreign.iter().chain(past).copied().collect();
                    core.deliver(thread, &envelope(tag));
                }
                (5, Some(g)) if running.contains(&core.own[&g].left_thread) => {
                    core.join_left_done(g, flag);
                }
                (6, Some(g)) => abort_matches_reference(&mut core, g),
                (7, _) => {
                    if let Some(&g) = foreign.first() {
                        abort_matches_reference(&mut core, g);
                    }
                }
                (8..=9, _) => {
                    // PRECEDENCE(subject, guard): a foreign subject after
                    // own guesses, or an own one after foreign guesses.
                    let (subject, guard): (Option<GuessId>, Guard) = match (flag, own_pick) {
                        (true, Some(g)) => (Some(g), foreign.iter().copied().collect()),
                        _ => (foreign.first().copied(), pending.iter().copied().collect()),
                    };
                    if let Some(subject) = subject {
                        core.on_precedence(subject, &guard);
                    }
                }
                _ => {
                    for &g in foreign.iter().take(3) {
                        core.on_commit(g);
                    }
                }
            }
        }
    }
}
