//! §4.1.2's compact guard: E8's model of the paper's scheme, not the wire.
//!
//! "A thread may depend upon many guesses by the same process, particularly
//! if an optimization like call streaming is applied repeatedly. ... only
//! the most recent guess from each process needs to be maintained in the
//! commit guard set" — provided the receiver holds the sender's incarnation
//! start table (§4.1.5) to re-expand the implied set.
//!
//! The wire does not do this. A frame carries the guard's runs (`wire`),
//! which name their incarnations and so need no table; a stream's tag is
//! one run either way. What is left here sizes the paper's form for E8's
//! comparison ([`measure`]): a compact guard keeps, per process, its latest
//! guess and the lowest member index (the *floor*), and needs one table row
//! per incarnation below the latest. [`CompactGuard::compress`],
//! [`CompactGuard::expand`] and [`CompactGuard::wire_size`] also stay for
//! `benchmark/src/probes.rs` (`core.compact.compress_expand32_ns`); with
//! that probe they go (ROADMAP item 4).

use crate::guard::{Guard, Run, RunBuf};
use crate::history::History;
use crate::ids::{ForkIndex, GuessId, Incarnation, ProcessId};
use std::collections::BTreeMap;

/// One process's contribution to a compact guard: its latest guess plus the
/// lowest member fork index. Commits strip a guard from the bottom and
/// aborts from the top, so a live per-process member set is the index range
/// `floor..=latest.index`; the floor keeps a receiver that has not heard the
/// commits from re-fabricating the resolved prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    latest: GuessId,
    floor: ForkIndex,
}

/// A compacted guard: per process, the maximum (incarnation, index) pair —
/// which implies all earlier guesses of that process down to the floor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompactGuard {
    per_process: BTreeMap<ProcessId, Span>,
}

impl CompactGuard {
    /// Compact a full guard set: keep only the latest guess and the lowest
    /// member index per process.
    pub fn compress(full: &Guard) -> CompactGuard {
        let mut per_process: BTreeMap<ProcessId, Span> = BTreeMap::new();
        // A process's runs ascend by (incarnation, index): each one's last
        // member is the latest so far.
        for run in full.runs() {
            let span = per_process.entry(run.process).or_insert(Span {
                latest: run.last(),
                floor: run.lo,
            });
            span.latest = run.last();
            span.floor = span.floor.min(run.lo);
        }
        CompactGuard { per_process }
    }

    /// Expand back to a full guard using a commit `History`, which must
    /// hold the sender's incarnation starts. Members the history knows
    /// committed or aborted are omitted, so against the sender's own
    /// history this is exactly the live guard.
    ///
    /// For each retained guess `x_{i,n}` the fork indexes `floor..n` go to
    /// the highest incarnation `c ≤ i` whose start is ≤ the index: walking
    /// the incarnations downward, each takes the indexes from its start up
    /// to where the one above it took over — one run apiece. An incarnation
    /// whose start the history does not know takes none.
    pub fn expand(&self, history: &History) -> Guard {
        let mut out = RunBuf::new();
        let mut implied: Vec<Run> = Vec::new();
        for (&p, &Span { latest, floor }) in &self.per_process {
            let table = history.incarnation_table(p);
            // Indexes `floor..below` are still to be assigned.
            let mut below = latest.index;
            for c in (0..=latest.incarnation.0).rev() {
                if below <= floor {
                    break;
                }
                let start = match c {
                    0 => Some(0),
                    c => table.and_then(|t| t.start_of(Incarnation(c))),
                };
                let start = start.unwrap_or(ForkIndex::MAX);
                if start < below {
                    let lo = start.max(floor);
                    implied.push(Run::new(p, Incarnation(c), lo, below - 1));
                    below = lo;
                }
            }
            for run in implied.drain(..).rev() {
                history.unresolved(run).for_each(|live| out.push(live));
            }
            out.push(Run::single(latest));
        }
        out.finish()
    }

    pub fn len(&self) -> usize {
        self.per_process.len()
    }

    pub fn is_empty(&self) -> bool {
        self.per_process.is_empty()
    }

    /// Wire size of the compact encoding (cf. `Guard::wire_size`): a
    /// two-byte count plus, per retained guess, the identifier (sized from
    /// its actual field widths) and the floor index.
    pub fn wire_size(&self) -> usize {
        2 + self.per_process.len() * (GuessId::WIRE_BYTES + std::mem::size_of::<ForkIndex>())
    }

    /// How many incarnation-table rows a receiver needs to expand this:
    /// one per non-zero incarnation up to each retained guess's
    /// (incarnation 0 starts at index 0 by definition).
    fn rows_needed(&self) -> usize {
        self.per_process
            .values()
            .map(|s| s.latest.incarnation.0 as usize)
            .sum()
    }

    /// The retained (latest) guess of each member process.
    pub fn iter(&self) -> impl Iterator<Item = GuessId> + '_ {
        self.per_process.values().map(|s| s.latest)
    }
}

/// One guard's size three ways, for E8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardSizes {
    /// A member-by-member list: a two-byte count plus `GuessId::WIRE_BYTES`
    /// per guess.
    pub member_list_bytes: usize,
    /// What a frame carries: `Guard::wire_size`.
    pub run_bytes: usize,
    /// §4.1.2's compact form, and the incarnation-table rows a receiver
    /// must hold to expand it. A row is (process, incarnation, start): a
    /// guess id's widths.
    pub compact_bytes: usize,
    pub table_bytes: usize,
}

impl GuardSizes {
    /// §4.1.2's form with the rows it needs.
    pub fn compact_with_rows(&self) -> usize {
        self.compact_bytes + self.table_bytes
    }
}

/// Measure a guard as a member list, as runs and in compact form.
pub fn measure(full: &Guard) -> GuardSizes {
    let c = CompactGuard::compress(full);
    GuardSizes {
        member_list_bytes: 2 + full.len() * GuessId::WIRE_BYTES,
        run_bytes: full.wire_size(),
        compact_bytes: c.wire_size(),
        table_bytes: c.rows_needed() * GuessId::WIRE_BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Incarnation, ProcessId};

    fn g(p: u32, n: u32) -> GuessId {
        GuessId::first(ProcessId(p), n)
    }

    #[test]
    fn compress_keeps_latest_per_process() {
        let full = Guard::from_iter([g(0, 1), g(0, 2), g(0, 5), g(1, 3)]);
        let c = CompactGuard::compress(&full);
        assert_eq!(c.len(), 2);
        let kept: Vec<_> = c.iter().collect();
        assert_eq!(kept, vec![g(0, 5), g(1, 3)]);
    }

    #[test]
    fn expand_reconstructs_contiguous_streaming_guards() {
        // Call streaming produces guards {x1, x2, ..., xn}; compaction keeps
        // x_n; expansion (with an empty history) reproduces {x1..xn}. Fork
        // indexes start at 1 — index 0 is the root thread, never a guess.
        let full = Guard::from_iter((1..=6).map(|i| g(0, i)));
        let c = CompactGuard::compress(&full);
        let h = History::new();
        assert_eq!(c.expand(&h), full);
    }

    #[test]
    fn expand_omits_committed_prefix() {
        let full = Guard::from_iter([g(0, 3), g(0, 4)]);
        let c = CompactGuard::compress(&full);
        let mut h = History::new();
        h.record_commit(g(0, 0));
        h.record_commit(g(0, 1));
        h.record_commit(g(0, 2));
        assert_eq!(c.expand(&h), full);
    }

    #[test]
    fn floor_pins_committed_prefix_even_without_history() {
        // Mid-stream guard {x3..x5}: the x1,x2 prefix already committed at
        // the sender. The span floor keeps an expander with *no* resolution
        // knowledge (the receiver's position) from re-fabricating it.
        let full = Guard::from_iter((3..=5).map(|i| g(0, i)));
        let c = CompactGuard::compress(&full);
        assert_eq!(c.expand(&History::new()), full);
    }

    #[test]
    fn expand_respects_incarnation_boundaries() {
        // x aborted fork 2 and restarted: incarnation 1 starts at index 2.
        // Latest guess x_{1,4}: its past is x_{0,1}, x_{1,2}, x_{1,3} — not
        // x_{0,2}/x_{0,3}.
        let mut h = History::new();
        h.record_abort(GuessId::first(ProcessId(0), 2)); // inc 1 starts at 2
        let latest = GuessId::new(ProcessId(0), Incarnation(1), 4);
        let full = Guard::from_iter([
            GuessId::first(ProcessId(0), 1),
            GuessId::new(ProcessId(0), Incarnation(1), 2),
            GuessId::new(ProcessId(0), Incarnation(1), 3),
            latest,
        ]);
        let c = CompactGuard::compress(&full);
        assert_eq!(c.expand(&h), full);
    }

    #[test]
    fn expand_handles_nonmonotone_recorded_starts() {
        // Starts can become non-monotone across incarnations: a late abort
        // of an early old-incarnation guess lowers an *earlier* slot below
        // a later one. eff = [0, _, 3] with start(1) lowered to 2: indexes
        // 3..5 belong to incarnation 2, index 2 to incarnation 1, index 1
        // to incarnation 0.
        let mut h = History::new();
        h.record_abort(GuessId::first(ProcessId(0), 5)); // inc 1 starts at 5
        h.record_abort(GuessId::new(ProcessId(0), Incarnation(1), 3)); // inc 2 at 3
        h.record_abort(GuessId::first(ProcessId(0), 2)); // lowers inc 1 start to 2
        let full = Guard::from_iter([
            GuessId::first(ProcessId(0), 1),
            GuessId::new(ProcessId(0), Incarnation(1), 2),
            GuessId::new(ProcessId(0), Incarnation(2), 3),
            GuessId::new(ProcessId(0), Incarnation(2), 4),
            GuessId::new(ProcessId(0), Incarnation(2), 5),
        ]);
        let c = CompactGuard::compress(&full);
        assert_eq!(c.expand(&h), full);
    }

    #[test]
    fn measure_sizes_a_stream_three_ways() {
        let full = Guard::from_iter((1..=32).map(|i| g(0, i)));
        let m = measure(&full);
        assert_eq!(m.member_list_bytes, 2 + 32 * 12);
        assert_eq!(m.run_bytes, 2 + 16);
        // First-incarnation guards need no table rows.
        assert_eq!(m.table_bytes, 0);
        assert_eq!(m.compact_with_rows(), m.run_bytes);
    }

    #[test]
    fn measure_accounts_for_table_rows() {
        let latest = GuessId::new(ProcessId(0), Incarnation(2), 5);
        let m = measure(&Guard::single(latest));
        assert_eq!(m.table_bytes, 2 * GuessId::WIRE_BYTES);
    }

    #[test]
    fn empty_guard_compacts_to_empty() {
        let c = CompactGuard::compress(&Guard::empty());
        assert!(c.is_empty());
        assert!(c.expand(&History::new()).is_empty());
    }
}
