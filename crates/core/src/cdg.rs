//! The Commit Dependency Graph (§4.1.4, §4.2.8).
//!
//! Each process maintains a DAG over guess identifiers (one per process,
//! not one per thread — see the deviation note in [`crate::process`]).
//! PRECEDENCE control messages add edges: `PRECEDENCE(x_n, Guard)` asserts
//! that every `g ∈ Guard` precedes `x_n`. If an edge insertion creates a
//! cycle, a *time fault* has been detected and every guess on the cycle
//! must abort (§4.2.5: "If an edge added to the CDG creates a cycle, then a
//! time fault has been detected. All threads in the cycle are aborted.").
//!
//! ## What a PRECEDENCE links
//!
//! The graph keeps the *order* §4.2.8 asserts, not one edge per member:
//! what the protocol reads of it — cycle sets, the transitive successors
//! an abort dooms, the transitive predecessors a commit infers — are all
//! reachability. [`Cdg::add_guard_into`] ingests a guard run by run:
//!
//! 1. §4.2.8's admission rule ("if either g or x_n is a node of the CDG")
//!    cuts the member list at its first known member — a range lookup per
//!    run, not a lookup per member; a join admits everything;
//! 2. the subject keeps what was admitted as its *record* (a [`Guard`],
//!    merged over repeated ingests, dropped with the node);
//! 3. in each admitted run, the last member that has a record contributes
//!    that record as already implied, and only the rest is linked by
//!    [`Cdg::add_edges_into`], with one reachability check.
//!
//! On a pipeline each guard is the previous subject's plus a few new
//! guesses, so an ingest costs what it adds, not the size of its guard.
//!
//! **Why it is exact.** Every live member `u` of a record `R_h` reaches
//! `h`, so a skipped edge `u → g` is implied by `u ⇝ h → g`. Removal keeps
//! that so: a COMMIT removes a guess with all its predecessors
//! ([`Cdg::remove`]), so if any node of `u ⇝ h` commits, `u` commits too;
//! an abort ([`Cdg::remove_aborted`]) normally takes every successor of a
//! doomed guess with it, and every node downstream that it does not take
//! has its record linked member by member and dropped as the path breaks.
//! Reachability between the nodes that remain is therefore exactly what
//! one edge per admitted member would give, and so is every cycle set (a
//! skipped `u` on a path `g ⇝ u` lies on the path `g ⇝ u ⇝ h`). Callers
//! uphold two conditions: a committed guess is never named again (it is
//! not a node, and nothing could tell it from a live one), and every guess
//! on a reported cycle is aborted before the next ingest.
//!
//! ## Representation
//!
//! An indexed graph over dense storage. Nodes live in a slot vector
//! (`GuessId → slot` through one ordered index); edges live in one arena,
//! each threaded on two intrusive doubly-linked lists — its source's
//! out-list and its target's in-list. Freed slots of both vectors are
//! chained through their own link fields and reused, so storage is bounded
//! by the peak number of live nodes and edges. There is no per-edge
//! allocation and no per-node container, and a node takes a slot only once
//! an edge touches it. A guess that is merely *known* (it sits in some
//! guard, §4.2.3) is one index entry, and a stretch of them that a delivery
//! brings is one entry for the whole run ([`Cdg::add_run`]), which a
//! pipeline's commits trim from the bottom:
//!
//! - inserting an edge is O(1) after the two index lookups;
//! - [`Cdg::successors`] / [`Cdg::predecessors`] walk one list, O(degree)
//!   (plus the sort that keeps every query in `GuessId` order, so traces
//!   and forensics reports do not depend on insertion history);
//! - [`Cdg::remove`] unlinks each incident edge from the opposite
//!   endpoint's list in O(1), so it is O(degree) too — resolving a guess
//!   never scans the rest of the graph;
//! - [`Cdg::add_edges_into`] links a set of members with *one* forward
//!   reachability from the target instead of one per member (new edges
//!   all point into the target, so they cannot change what the target
//!   reaches), and skips even that when the target has no successors —
//!   the case of every guess whose PRECEDENCE arrives before anything was
//!   ordered after it.
//!
//! Traversals mark nodes with an epoch stamp stored in the slot, so a
//! reachability costs what it visits and allocates only its work stack.

use crate::guard::{Guard, Run, RunBuf, RunMap};
use crate::ids::GuessId;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Null link / absent slot.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
struct Node {
    id: GuessId,
    /// First edge of the out-list (`id → _`) and in-list (`_ → id`).
    out_head: u32,
    in_head: u32,
    /// Epoch of the last traversal phase that visited this node.
    mark: u32,
}

/// One edge `from → to` (slot numbers), linked into `from`'s out-list and
/// `to`'s in-list.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Edge {
    from: u32,
    to: u32,
    out_prev: u32,
    out_next: u32,
    in_prev: u32,
    in_next: u32,
}

/// Commit dependency graph: nodes are guesses, an edge `a → b` means "guess
/// `a` (logically) precedes guess `b`", i.e. `b` cannot commit before `a`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdg {
    /// Nodes in `GuessId` order with their slot — `NIL` until the first
    /// edge touches the node.
    index: BTreeMap<GuessId, u32>,
    /// The other nodes: known guesses no edge has touched yet, registered
    /// a run of more than one at a time. Disjoint from `index`.
    known: RunMap<()>,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Heads of the free-slot chains (through `Node::out_head` and
    /// `Edge::out_next`), and how many edge slots are on theirs.
    free_node: u32,
    free_edge: u32,
    free_edges: usize,
    /// Last traversal epoch handed out; node marks never exceed it.
    epoch: u32,
    /// What each ingested subject admitted ([`Cdg::add_guard_into`]); every
    /// member that is still a node reaches the subject.
    records: BTreeMap<GuessId, Guard>,
}

impl Default for Cdg {
    fn default() -> Self {
        Cdg {
            index: BTreeMap::new(),
            known: RunMap::default(),
            nodes: Vec::new(),
            edges: Vec::new(),
            free_node: NIL,
            free_edge: NIL,
            free_edges: 0,
            epoch: 0,
            records: BTreeMap::new(),
        }
    }
}

/// Result of inserting an edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeOutcome {
    /// Edge added (or already present); graph remains acyclic.
    Acyclic,
    /// The edge closed one or more cycles; the returned set contains every
    /// guess on some cycle through the new edge (all must be aborted).
    Cycle(BTreeSet<GuessId>),
}

impl Cdg {
    pub fn new() -> Self {
        Cdg::default()
    }

    pub fn contains_node(&self, g: GuessId) -> bool {
        self.index.contains_key(&g) || self.known.contains(g)
    }

    pub fn add_node(&mut self, g: GuessId) {
        self.add_run(Run::single(g));
    }

    /// Make every member of `run` a node: one entry for what is new. A
    /// single guess is one index entry, as cheap as a `known` one and
    /// found first.
    pub fn add_run(&mut self, run: Run) {
        if run.len() == 1 {
            if let Entry::Vacant(entry) = self.index.entry(run.first()) {
                if !self.known.contains(run.first()) {
                    entry.insert(NIL);
                }
            }
            return;
        }
        let fresh = Guard::from_ascending(self.known.gaps(run));
        for gap in fresh.runs() {
            // The gap less the nodes an edge has touched.
            let mut lo = Some(gap.lo);
            for (&g, _) in self.index.range(gap.first()..=gap.last()) {
                if let Some(lo) = lo.filter(|&lo| lo < g.index) {
                    self.known.insert(
                        Run {
                            lo,
                            hi: g.index - 1,
                            ..*gap
                        },
                        (),
                    );
                }
                lo = g.index.checked_add(1);
            }
            if let Some(lo) = lo.filter(|&lo| lo <= gap.hi) {
                self.known.insert(Run { lo, ..*gap }, ());
            }
        }
    }

    pub fn node_count(&self) -> usize {
        self.index.len() + self.known.members()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len() - self.free_edges
    }

    pub fn has_edge(&self, from: GuessId, to: GuessId) -> bool {
        match (self.index.get(&from), self.index.get(&to)) {
            (Some(&f), Some(&t)) => self.out_edges(f).any(|e| e.to == t),
            _ => false,
        }
    }

    /// Insert the edge `from → to`, detecting cycles.
    ///
    /// A self-loop `g → g` (the Figure 4 local time fault, `{x1} → {x1}`)
    /// is reported as a cycle containing just `g`.
    pub fn add_edge(&mut self, from: GuessId, to: GuessId) -> EdgeOutcome {
        self.add_edges_into(to, [from])
    }

    /// Ingest `PRECEDENCE(to, guard)` (§4.2.8) — or, with `only_if_known`
    /// false, a join's own guard (§4.2.4) — and report the union of the
    /// cycles it closes, exactly as [`Cdg::add_edges_into`] with every
    /// member would: the admitted members are cut run by run, and what the
    /// records of earlier subjects already imply is not linked again (the
    /// module doc says why that is exact). `guard` holds no committed guess
    /// and not `to` itself.
    pub fn add_guard_into(
        &mut self,
        to: GuessId,
        guard: &Guard,
        only_if_known: bool,
    ) -> EdgeOutcome {
        debug_assert!(!guard.contains(to), "{to} precedes itself");
        let admitted = match !only_if_known || self.contains_node(to) {
            true => guard.clone(),
            false => self.admitted(guard),
        };
        let mut implied = Guard::empty();
        for run in admitted.runs() {
            if let Some((_, record)) = self.records.range(run.first()..=run.last()).next_back() {
                implied.union_with(record);
            }
        }
        let rest = implied.new_runs(&admitted).flat_map(Run::iter);
        let outcome = self.add_edges_into(to, rest);
        if !admitted.is_empty() {
            self.records.entry(to).or_default().union_with(&admitted);
        }
        outcome
    }

    /// §4.2.8's admission rule for a target that is not a node: the first
    /// member that is one admits itself and every member after it.
    fn admitted(&self, guard: &Guard) -> Guard {
        let mut admitted = RunBuf::new();
        let mut open = false;
        for &run in guard.runs() {
            let lo = match open {
                true => Some(run.lo),
                false => {
                    let edged = self.index.range(run.first()..=run.last()).next();
                    let known = self.known.first_in(run);
                    edged
                        .map(|(g, _)| *g)
                        .into_iter()
                        .chain(known)
                        .min()
                        .map(|g| g.index)
                }
            };
            if let Some(lo) = lo {
                open = true;
                admitted.push(Run { lo, ..run });
            }
        }
        admitted.finish()
    }

    /// Insert the edges `from → to` for every `from` in `froms` and report
    /// the union of the cycles they close, exactly as inserting them one
    /// by one with [`Cdg::add_edge`] would. The primitive
    /// [`Cdg::add_guard_into`] links what a record does not imply with.
    ///
    /// As with `add_edge`, cycle-closing edges are recorded anyway: callers
    /// abort every guess on the cycle and remove it, which erases them.
    pub fn add_edges_into(
        &mut self,
        to: GuessId,
        froms: impl IntoIterator<Item = GuessId>,
    ) -> EdgeOutcome {
        let mut cycle: BTreeSet<GuessId> = BTreeSet::new();
        let [present, reached, on_cycle] = self.fresh_stamps();
        // `to`'s slot: `None` while it is not a node at all, `NIL` while
        // it is one no edge has touched.
        let mut to_slot = self.index.get(&to).copied();
        // Phase 1: link the new edges, skipping ones already present
        // (existing predecessors of `to` carry this phase's stamp).
        let mut e = self.in_head(to_slot.unwrap_or(NIL));
        while e != NIL {
            let edge = self.edges[e as usize];
            self.nodes[edge.from as usize].mark = present;
            e = edge.in_next;
        }
        let mut sources: Vec<u32> = Vec::new();
        for from in froms {
            if from == to {
                self.known.remove(Run::single(to));
                to_slot.get_or_insert_with(|| *self.index.entry(to).or_insert(NIL));
                cycle.insert(to);
                continue;
            }
            let f = self.slot_of(from);
            let t = match to_slot {
                Some(t) if t != NIL => t,
                _ => *to_slot.insert(self.slot_of(to)),
            };
            if self.nodes[f as usize].mark != present {
                self.nodes[f as usize].mark = present;
                self.link(f, t);
            }
            sources.push(f);
        }
        // Phase 2: a cycle through `from → to` exists iff `to` reaches
        // `from`. Edges into `to` do not change what `to` reaches, so one
        // forward reachability serves every member.
        let t = match to_slot {
            Some(t) if !sources.is_empty() && self.out_head(t) != NIL => t,
            _ => return Self::outcome(cycle),
        };
        self.nodes[t as usize].mark = reached;
        let mut stack = vec![t];
        while let Some(n) = stack.pop() {
            let mut e = self.nodes[n as usize].out_head;
            while e != NIL {
                let edge = self.edges[e as usize];
                if self.nodes[edge.to as usize].mark != reached {
                    self.nodes[edge.to as usize].mark = reached;
                    stack.push(edge.to);
                }
                e = edge.out_next;
            }
        }
        // Phase 3: the guesses on those cycles are the nodes on some path
        // `to → … → from`: walk backwards from the reached sources without
        // leaving the reached set.
        for f in sources {
            if self.nodes[f as usize].mark == reached {
                self.nodes[f as usize].mark = on_cycle;
                stack.push(f);
            }
        }
        while let Some(n) = stack.pop() {
            cycle.insert(self.nodes[n as usize].id);
            let mut e = self.nodes[n as usize].in_head;
            while e != NIL {
                let edge = self.edges[e as usize];
                if self.nodes[edge.from as usize].mark == reached {
                    self.nodes[edge.from as usize].mark = on_cycle;
                    stack.push(edge.from);
                }
                e = edge.in_next;
            }
        }
        Self::outcome(cycle)
    }

    fn outcome(cycle: BTreeSet<GuessId>) -> EdgeOutcome {
        if cycle.is_empty() {
            EdgeOutcome::Acyclic
        } else {
            EdgeOutcome::Cycle(cycle)
        }
    }

    /// Predecessors of `g` currently in the graph, in `GuessId` order.
    pub fn predecessors(&self, g: GuessId) -> Vec<GuessId> {
        let Some(&slot) = self.index.get(&g) else {
            return Vec::new();
        };
        let mut out: Vec<GuessId> = self
            .in_edges(slot)
            .map(|e| self.nodes[e.from as usize].id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Successors of `g` currently in the graph, in `GuessId` order.
    pub fn successors(&self, g: GuessId) -> Vec<GuessId> {
        let Some(&slot) = self.index.get(&g) else {
            return Vec::new();
        };
        let mut out: Vec<GuessId> = self
            .out_edges(slot)
            .map(|e| self.nodes[e.to as usize].id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Remove a committed guess and its edges (§4.2.6: "x_n is removed
    /// from the CDG. Any predecessors of x_n are also removed") — the
    /// caller removes those predecessors too, which is what keeps every
    /// record exact (module doc). Aborted guesses go through
    /// [`Cdg::remove_aborted`].
    pub fn remove(&mut self, g: GuessId) {
        self.records.remove(&g);
        let slot = match self.index.remove(&g) {
            None => return self.known.remove(Run::single(g)),
            Some(NIL) => return,
            Some(slot) => slot,
        };
        let mut e = self.nodes[slot as usize].out_head;
        while e != NIL {
            let edge = self.edges[e as usize];
            self.unlink_in(e, edge);
            self.release_edge(e);
            e = edge.out_next;
        }
        let mut e = self.nodes[slot as usize].in_head;
        while e != NIL {
            let edge = self.edges[e as usize];
            self.unlink_out(e, edge);
            self.release_edge(e);
            e = edge.in_next;
        }
        self.nodes[slot as usize].out_head = self.free_node;
        self.free_node = slot;
    }

    /// Remove aborted guesses and their edges (§4.2.7). A guess outside
    /// `doomed` that one of them reaches stays behind with a broken path:
    /// its record's members that are still nodes afterwards are linked to
    /// it directly and the record is dropped, so reachability among the
    /// survivors is what one edge per admitted member would leave. (An
    /// abort's doomed set normally holds every successor of what it
    /// dooms, and then there is nothing downstream to visit.)
    pub fn remove_aborted(&mut self, doomed: impl IntoIterator<Item = GuessId>) {
        let doomed = Vec::from_iter(doomed);
        let [gone, seen, _] = self.fresh_stamps();
        let mut stack: Vec<u32> = doomed
            .iter()
            .filter_map(|g| self.index.get(g).copied())
            .filter(|&slot| slot != NIL)
            .collect();
        for &slot in &stack {
            self.nodes[slot as usize].mark = gone;
        }
        let mut survivors: Vec<GuessId> = Vec::new();
        while let Some(n) = stack.pop() {
            let mut e = self.nodes[n as usize].out_head;
            while e != NIL {
                let edge = self.edges[e as usize];
                let next = &mut self.nodes[edge.to as usize];
                if next.mark != gone && next.mark != seen {
                    next.mark = seen;
                    stack.push(edge.to);
                    if self.records.contains_key(&next.id) {
                        survivors.push(next.id);
                    }
                }
                e = edge.out_next;
            }
        }
        for g in doomed {
            self.remove(g);
        }
        for s in survivors {
            let Some(record) = self.records.remove(&s) else {
                continue;
            };
            let members = Vec::from_iter(record.iter().filter(|u| self.contains_node(*u)));
            let outcome = self.add_edges_into(s, members);
            debug_assert_eq!(outcome, EdgeOutcome::Acyclic, "a record reached {s}");
        }
    }

    /// Is `g` a *root*: present, with no unresolved predecessors? A guess
    /// whose predecessors have all committed can itself commit when its own
    /// guard empties.
    pub fn is_root(&self, g: GuessId) -> bool {
        match self.index.get(&g) {
            Some(&slot) => self.in_head(slot) == NIL,
            None => self.known.contains(g),
        }
    }

    /// Iterate nodes in deterministic (`GuessId`) order.
    pub fn nodes(&self) -> impl Iterator<Item = GuessId> {
        let known = self.known.iter().flat_map(|(run, ())| run.iter());
        let mut nodes = Vec::from_iter(self.index.keys().copied().chain(known));
        nodes.sort_unstable();
        nodes.into_iter()
    }

    /// Exhaustive acyclicity check (test/diagnostic use; the incremental
    /// `add_edge` maintains this invariant in normal operation).
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over the slot vector (a node without a slot has
        // no edges and cannot be on a cycle).
        let slots = || self.index.values().copied().filter(|&slot| slot != NIL);
        let mut indeg = vec![0usize; self.nodes.len()];
        for slot in slots() {
            indeg[slot as usize] = self.in_edges(slot).count();
        }
        let mut queue: Vec<u32> = slots().filter(|&slot| indeg[slot as usize] == 0).collect();
        let mut visited = 0usize;
        while let Some(n) = queue.pop() {
            visited += 1;
            for e in self.out_edges(n) {
                indeg[e.to as usize] -= 1;
                if indeg[e.to as usize] == 0 {
                    queue.push(e.to);
                }
            }
        }
        visited == slots().count()
    }

    // ------------------------------------------------------------------
    // Storage
    // ------------------------------------------------------------------

    /// The slot of node `g`, making it a node and giving it a slot as
    /// needed.
    fn slot_of(&mut self, g: GuessId) -> u32 {
        let entry = match self.index.entry(g) {
            Entry::Occupied(o) if *o.get() != NIL => return *o.get(),
            entry => entry,
        };
        if let Entry::Vacant(_) = entry {
            self.known.remove(Run::single(g));
        }
        let node = Node {
            id: g,
            out_head: NIL,
            in_head: NIL,
            mark: 0,
        };
        let slot = if self.free_node != NIL {
            let slot = self.free_node;
            self.free_node = self.nodes[slot as usize].out_head;
            self.nodes[slot as usize] = node;
            slot
        } else {
            let slot = u32::try_from(self.nodes.len()).expect("CDG node slots fit u32");
            assert!(slot != NIL, "CDG node slots fit u32");
            self.nodes.push(node);
            slot
        };
        *entry.or_insert(NIL) = slot;
        slot
    }

    fn out_head(&self, slot: u32) -> u32 {
        self.nodes.get(slot as usize).map_or(NIL, |n| n.out_head)
    }

    fn in_head(&self, slot: u32) -> u32 {
        self.nodes.get(slot as usize).map_or(NIL, |n| n.in_head)
    }

    fn release_edge(&mut self, e: u32) {
        self.edges[e as usize].out_next = self.free_edge;
        self.free_edge = e;
        self.free_edges += 1;
    }

    /// Prepend a new edge `f → t` to both endpoint lists.
    fn link(&mut self, f: u32, t: u32) {
        let out_next = self.nodes[f as usize].out_head;
        let in_next = self.nodes[t as usize].in_head;
        let edge = Edge {
            from: f,
            to: t,
            out_prev: NIL,
            out_next,
            in_prev: NIL,
            in_next,
        };
        let e = if self.free_edge != NIL {
            let e = self.free_edge;
            self.free_edge = self.edges[e as usize].out_next;
            self.free_edges -= 1;
            self.edges[e as usize] = edge;
            e
        } else {
            let e = u32::try_from(self.edges.len()).expect("CDG edge slots fit u32");
            assert!(e != NIL, "CDG edge slots fit u32");
            self.edges.push(edge);
            e
        };
        if out_next != NIL {
            self.edges[out_next as usize].out_prev = e;
        }
        if in_next != NIL {
            self.edges[in_next as usize].in_prev = e;
        }
        self.nodes[f as usize].out_head = e;
        self.nodes[t as usize].in_head = e;
    }

    /// Take edge `e` (a copy of which is `edge`) off its target's in-list.
    fn unlink_in(&mut self, e: u32, edge: Edge) {
        if edge.in_prev == NIL {
            debug_assert_eq!(self.nodes[edge.to as usize].in_head, e);
            self.nodes[edge.to as usize].in_head = edge.in_next;
        } else {
            self.edges[edge.in_prev as usize].in_next = edge.in_next;
        }
        if edge.in_next != NIL {
            self.edges[edge.in_next as usize].in_prev = edge.in_prev;
        }
    }

    /// Take edge `e` (a copy of which is `edge`) off its source's out-list.
    fn unlink_out(&mut self, e: u32, edge: Edge) {
        if edge.out_prev == NIL {
            debug_assert_eq!(self.nodes[edge.from as usize].out_head, e);
            self.nodes[edge.from as usize].out_head = edge.out_next;
        } else {
            self.edges[edge.out_prev as usize].out_next = edge.out_next;
        }
        if edge.out_next != NIL {
            self.edges[edge.out_next as usize].out_prev = edge.out_prev;
        }
    }

    fn out_edges(&self, slot: u32) -> impl Iterator<Item = Edge> + '_ {
        let mut e = self.out_head(slot);
        std::iter::from_fn(move || {
            let edge = *self.edges.get(e as usize)?;
            e = edge.out_next;
            Some(edge)
        })
    }

    fn in_edges(&self, slot: u32) -> impl Iterator<Item = Edge> + '_ {
        let mut e = self.in_head(slot);
        std::iter::from_fn(move || {
            let edge = *self.edges.get(e as usize)?;
            e = edge.in_next;
            Some(edge)
        })
    }

    /// Three stamps no node carries yet (one per ingest phase).
    fn fresh_stamps(&mut self) -> [u32; 3] {
        if self.epoch > u32::MAX - 3 {
            for n in &mut self.nodes {
                n.mark = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 3;
        [self.epoch - 2, self.epoch - 1, self.epoch]
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
    fn simple_edge_is_acyclic() {
        let mut c = Cdg::new();
        assert_eq!(c.add_edge(g(0, 1), g(1, 1)), EdgeOutcome::Acyclic);
        assert!(c.has_edge(g(0, 1), g(1, 1)));
        assert!(c.is_acyclic());
    }

    #[test]
    fn self_loop_is_figure4_time_fault() {
        // Figure 4: {x1} → {x1} — the left thread's guard contains its own
        // guess, a cycle of length one.
        let mut c = Cdg::new();
        match c.add_edge(g(0, 1), g(0, 1)) {
            EdgeOutcome::Cycle(s) => assert_eq!(s, BTreeSet::from([g(0, 1)])),
            _ => panic!("self loop must be a cycle"),
        }
    }

    #[test]
    fn two_node_cycle_is_figure7() {
        // Figure 7: z1 → x1 and then x1 → z1 — both processes discover the
        // cycle and abort both guesses.
        let mut c = Cdg::new();
        assert_eq!(c.add_edge(g(2, 1), g(0, 1)), EdgeOutcome::Acyclic);
        match c.add_edge(g(0, 1), g(2, 1)) {
            EdgeOutcome::Cycle(s) => {
                assert!(s.contains(&g(0, 1)));
                assert!(s.contains(&g(2, 1)));
                assert_eq!(s.len(), 2);
            }
            _ => panic!("expected cycle"),
        }
    }

    #[test]
    fn cycle_reports_only_nodes_on_cycle() {
        // a → b → c → d, plus e → b; closing d → b must report {b, c, d}
        // and not a or e.
        let (a, b, c_, d, e) = (g(0, 1), g(1, 1), g(2, 1), g(3, 1), g(4, 1));
        let mut c = Cdg::new();
        c.add_edge(a, b);
        c.add_edge(b, c_);
        c.add_edge(c_, d);
        c.add_edge(e, b);
        match c.add_edge(d, b) {
            EdgeOutcome::Cycle(s) => {
                assert_eq!(s, BTreeSet::from([b, c_, d]));
            }
            _ => panic!("expected cycle"),
        }
    }

    #[test]
    fn remove_erases_node_and_edges() {
        let mut c = Cdg::new();
        c.add_edge(g(0, 1), g(1, 1));
        c.add_edge(g(1, 1), g(2, 1));
        c.remove(g(1, 1));
        assert!(!c.contains_node(g(1, 1)));
        assert!(!c.has_edge(g(0, 1), g(1, 1)));
        assert!(!c.has_edge(g(1, 1), g(2, 1)));
        assert_eq!(c.edge_count(), 0);
    }

    #[test]
    fn predecessors_and_successors() {
        let mut c = Cdg::new();
        c.add_edge(g(0, 1), g(1, 1));
        c.add_edge(g(2, 1), g(1, 1));
        assert_eq!(c.predecessors(g(1, 1)), vec![g(0, 1), g(2, 1)]);
        assert_eq!(c.successors(g(0, 1)), vec![g(1, 1)]);
        assert!(c.is_root(g(0, 1)));
        assert!(!c.is_root(g(1, 1)));
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let mut c = Cdg::new();
        c.add_edge(g(0, 1), g(1, 1));
        assert_eq!(c.add_edge(g(0, 1), g(1, 1)), EdgeOutcome::Acyclic);
        assert_eq!(c.edge_count(), 1);
    }

    #[test]
    fn long_cycle_detected() {
        let mut c = Cdg::new();
        let nodes: Vec<GuessId> = (0..10).map(|i| g(i, 1)).collect();
        for w in nodes.windows(2) {
            assert_eq!(c.add_edge(w[0], w[1]), EdgeOutcome::Acyclic);
        }
        match c.add_edge(nodes[9], nodes[0]) {
            EdgeOutcome::Cycle(s) => assert_eq!(s.len(), 10),
            _ => panic!("expected 10-cycle"),
        }
    }

    #[test]
    fn queries_are_sorted_whatever_the_insertion_order() {
        let mut c = Cdg::new();
        for p in [3, 0, 2, 1] {
            c.add_edge(g(p, 1), g(9, 1));
            c.add_edge(g(8, 1), g(p, 2));
        }
        let sorted = |v: &[GuessId]| v.windows(2).all(|w| w[0] < w[1]);
        assert!(sorted(&c.predecessors(g(9, 1))));
        assert!(sorted(&c.successors(g(8, 1))));
        assert!(sorted(&c.nodes().collect::<Vec<_>>()));
    }

    #[test]
    fn slots_and_edges_are_reused_after_remove() {
        let mut c = Cdg::new();
        for round in 0..50u32 {
            for i in 0..8 {
                c.add_edge(g(i, round), g(i + 1, round));
            }
            for i in 0..9 {
                c.remove(g(i, round));
            }
            assert_eq!((c.node_count(), c.edge_count()), (0, 0));
        }
        assert!(c.nodes.len() <= 9 && c.edges.len() <= 8);
    }

    #[test]
    fn bulk_ingest_admits_members_by_the_paper_rule() {
        // §4.2.8: an edge is added only if one endpoint is already a node.
        let mut c = Cdg::new();
        let members = Guard::from_iter([g(0, 1), g(1, 1), g(2, 1)]);
        // Nothing known: nothing added.
        assert_eq!(
            c.add_guard_into(g(5, 1), &members, true),
            EdgeOutcome::Acyclic
        );
        assert_eq!(c.node_count(), 0);
        // y1 known: x1 (before it, target still unknown) is skipped, y1
        // makes the target a node, z1 is then admitted.
        c.add_node(g(1, 1));
        c.add_guard_into(g(5, 1), &members, true);
        assert!(!c.contains_node(g(0, 1)));
        assert_eq!(c.predecessors(g(5, 1)), vec![g(1, 1), g(2, 1)]);
        // The cut falls inside a run too: once x2 is known, a guard naming
        // x1..x3 and w1 admits x2 onwards. w1's record implies nothing
        // about x2 and x3, so they are linked.
        c.add_node(g(0, 2));
        let guard = Guard::from_iter([g(0, 1), g(0, 2), g(0, 3), g(5, 1)]);
        c.add_guard_into(g(6, 1), &guard, true);
        assert_eq!(c.predecessors(g(6, 1)), vec![g(0, 2), g(0, 3), g(5, 1)]);
        assert!(!c.contains_node(g(0, 1)));
    }

    #[test]
    fn a_pipeline_guard_links_only_what_the_records_do_not_imply() {
        // PRECEDENCE(x_k, {x_1 … x_{k-1}}) for k = 2..=6: each guard is the
        // previous subject's record plus that subject, so one edge each.
        let x = |n| g(0, n);
        let mut c = Cdg::new();
        for k in 2..=6 {
            let guard = Guard::from_iter((1..k).map(x));
            assert_eq!(c.add_guard_into(x(k), &guard, false), EdgeOutcome::Acyclic);
        }
        assert_eq!(c.edge_count(), 5);
        assert_eq!(c.predecessors(x(6)), vec![x(5)]);
        // A second process's stretch beside it: y2's guard names x1..x6
        // and y1; x6's record covers x1..x5, so x6 and y1 are linked.
        c.add_guard_into(g(1, 1), &Guard::single(x(2)), false);
        let guard = Guard::from_iter((1..=6).map(x).chain([g(1, 1)]));
        c.add_guard_into(g(1, 2), &guard, false);
        assert_eq!(c.predecessors(g(1, 2)), vec![x(6), g(1, 1)]);
        // Closing y2 → x1 reports every guess on the cycle, the ones only
        // a record links to y2 (x1..x5) included.
        match c.add_guard_into(x(1), &Guard::single(g(1, 2)), false) {
            EdgeOutcome::Cycle(s) => {
                let on_cycle = (1..=6).map(x).chain([g(1, 1), g(1, 2)]);
                assert_eq!(s, BTreeSet::from_iter(on_cycle));
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn an_abort_that_spares_a_successor_links_its_record_first() {
        // x1 → x2 → x3 through records; x3's edge from x1 is implied by x2.
        let x = |n| g(0, n);
        let mut c = Cdg::new();
        c.add_guard_into(x(2), &Guard::single(x(1)), false);
        c.add_guard_into(x(3), &Guard::from_iter([x(1), x(2)]), false);
        c.add_guard_into(x(4), &Guard::from_iter([x(1), x(2), x(3)]), false);
        assert_eq!(c.edge_count(), 3);
        // x2 aborts without its successors (a guard dooms it, not the
        // graph): x3 and x4 keep x1 before them, as one edge per member
        // would have.
        c.remove_aborted([x(2)]);
        assert_eq!(c.predecessors(x(3)), vec![x(1)]);
        assert_eq!(c.predecessors(x(4)), vec![x(1), x(3)]);
        // Their records are gone, so x2 coming back is not taken as
        // implied by them.
        c.add_guard_into(x(5), &Guard::from_iter([x(2), x(4)]), false);
        assert_eq!(c.predecessors(x(5)), vec![x(2), x(4)]);
    }

    #[test]
    fn bulk_ingest_reports_the_union_of_cycles() {
        // t → a → b and t → c; PRECEDENCE(t, {b, c, d}) closes t→a→b→t and
        // t→c→t; d is merely a new predecessor.
        let (t, a, b, c_, d) = (g(0, 1), g(1, 1), g(2, 1), g(3, 1), g(4, 1));
        let mut c = Cdg::new();
        c.add_edge(t, a);
        c.add_edge(a, b);
        c.add_edge(t, c_);
        match c.add_edges_into(t, [b, c_, d]) {
            EdgeOutcome::Cycle(s) => assert_eq!(s, BTreeSet::from([t, a, b, c_])),
            other => panic!("expected cycle, got {other:?}"),
        }
        assert!(c.has_edge(d, t));
    }
}
