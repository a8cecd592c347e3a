//! Guard-set compaction (§4.1.2).
//!
//! "A thread may depend upon many guesses by the same process, particularly
//! if an optimization like call streaming is applied repeatedly. ... only
//! the most recent guess from each process needs to be maintained in the
//! commit guard set" — provided incarnation start tables are available to
//! re-expand the implied set on receipt.
//!
//! This is the data model behind the production wire format (`wire`): a
//! [`Span`] per process — latest guess plus the lowest member index — and
//! the expansion that reconstructs the implied set, plus size accounting
//! for the E8 ablation. A span is a guard's per-process runs seen from the
//! wire (`guard::Run`): compressing reads the first and last run of each
//! process, expanding writes one run per incarnation. Property tests (in
//! `tests/` and below) check that `expand(compress(G))` reproduces exactly
//! the live guesses of `G`.

use crate::guard::{Guard, Run, RunBuf};
use crate::history::{Fate, History};
use crate::ids::{ForkIndex, GuessId, Incarnation, ProcessId};
use std::collections::BTreeMap;

/// One process's contribution to a compact guard: its latest guess plus the
/// lowest member fork index (the *floor*). The floor pins the bottom of the
/// implied range: commits strip a guard from the bottom and aborts from the
/// top, so a live per-process member set is a contiguous index range
/// `floor..=latest.index` — without the floor, a receiver that has not yet
/// heard the commits would re-fabricate the resolved prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    pub latest: GuessId,
    pub floor: ForkIndex,
}

/// A membership filter for [`CompactGuard::expand_via`]: the fates, in that
/// history, of the reconstructed members worth keeping.
pub type Keep<'a> = (&'a History, fn(Fate) -> bool);

/// A compacted guard: per process, the maximum (incarnation, index) pair —
/// which implies all earlier guesses of that process down to the floor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompactGuard {
    per_process: BTreeMap<ProcessId, Span>,
}

impl std::hash::Hash for CompactGuard {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Mirrors Guard's manual Hash: BTreeMap itself isn't Hash, but its
        // ordered entries are a canonical sequence.
        for s in self.per_process.values() {
            s.hash(state);
        }
    }
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

    /// Rebuild a compact guard from previously-extracted spans — the frame
    /// codec's decode path (`wire::decode_frame`). Spans are keyed by
    /// `latest.process`; a duplicate process keeps the later entry, so a
    /// hostile frame cannot make the map inconsistent.
    pub fn from_spans(spans: impl IntoIterator<Item = Span>) -> CompactGuard {
        CompactGuard {
            per_process: spans.into_iter().map(|s| (s.latest.process, s)).collect(),
        }
    }

    /// Core expansion, parameterized over the incarnation-start source and
    /// the membership filter. Shared by [`expand`](Self::expand) (local
    /// history: the sender's self-check and the E8 size accounting) and the
    /// wire decode path (`wire::decode`, which substitutes the sender-view
    /// table shipped on the message and keeps receiver-known-aborted
    /// members so the orphan check can see them).
    ///
    /// For each retained guess `x_{i,n}` this reconstructs fork indexes
    /// `floor..n` (index 0 is the process's root thread, never a guess —
    /// forks pre-increment the index, so floors are ≥ 1) and assigns each to
    /// the highest incarnation `c ≤ i` whose effective start is ≤ the index.
    /// Walking the incarnations downward, each takes the indexes from its
    /// start up to where the one above it took over — one run apiece, so
    /// the cost is the incarnations', not the indexes'.
    ///
    /// `start_of` returns the effective start of an incarnation `≥ 1` (use
    /// `ForkIndex::MAX` for "unknown": the slot is then never assigned).
    /// `keep` drops the reconstructed members whose fate in that history it
    /// rejects; the retained guess itself always stays.
    pub fn expand_via(
        &self,
        mut start_of: impl FnMut(ProcessId, Incarnation) -> ForkIndex,
        (history, keep): Keep<'_>,
    ) -> Guard {
        let mut out = RunBuf::new();
        let mut implied: Vec<Run> = Vec::new();
        for (&p, &Span { latest, floor }) in &self.per_process {
            // Indexes `floor..below` are still to be assigned.
            let mut below = latest.index;
            for c in (0..=latest.incarnation.0).rev() {
                if below <= floor {
                    break;
                }
                // Incarnation 0 always starts at index 0.
                let start = if c == 0 {
                    0
                } else {
                    start_of(p, Incarnation(c))
                };
                if start < below {
                    let lo = start.max(floor);
                    implied.push(Run::new(p, Incarnation(c), lo, below - 1));
                    below = lo;
                }
            }
            for run in implied.drain(..).rev() {
                let kept = history.fates_in(run).filter(|(_, f)| keep(*f));
                kept.for_each(|(stretch, _)| out.push(stretch));
            }
            out.push(Run::single(latest));
        }
        out.finish()
    }

    /// Expand back to a full guard using a commit `History`.
    ///
    /// Exactness requires the history to hold the sender's incarnation
    /// starts; the wire format ships them alongside the compact guard (as
    /// §4.1.5 assumes — see `wire`), and the sender verifies
    /// `expand(compress(G)) == G` against its own history before shipping
    /// the compact form. Members known committed or aborted are omitted:
    /// against the *sender's* history that makes the expansion exactly the
    /// live guard, since resolution strips those members from live guards.
    pub fn expand(&self, history: &History) -> Guard {
        self.expand_via(
            |p, i| history.start_of(p, i),
            (history, |f| f == Fate::Unknown),
        )
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

    /// How many incarnation-table rows a self-contained compact message
    /// must carry: one per non-zero incarnation up to each retained guess's
    /// (incarnation 0 starts at index 0 by definition).
    pub fn rows_needed(&self) -> usize {
        self.per_process
            .values()
            .map(|s| s.latest.incarnation.0 as usize)
            .sum()
    }

    /// The retained (latest) guess of each member process.
    pub fn iter(&self) -> impl Iterator<Item = GuessId> + '_ {
        self.per_process.values().map(|s| s.latest)
    }

    /// The per-process spans (latest guess + floor index).
    pub fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.per_process.values().copied()
    }
}

/// Size comparison record for the E8 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardSizes {
    pub full_entries: usize,
    pub full_bytes: usize,
    pub compact_entries: usize,
    pub compact_bytes: usize,
    /// Bytes of piggybacked incarnation-table rows a self-contained compact
    /// message would carry (the ack protocol usually suppresses these after
    /// the first send — engine stats count what was actually shipped).
    pub table_bytes: usize,
}

/// Measure both encodings of a guard.
pub fn measure(full: &Guard) -> GuardSizes {
    let c = CompactGuard::compress(full);
    GuardSizes {
        full_entries: full.len(),
        full_bytes: full.wire_size(),
        compact_entries: c.len(),
        compact_bytes: c.wire_size(),
        table_bytes: c.rows_needed() * crate::wire::TableRow::WIRE_BYTES,
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
        assert_eq!(c.spans().next().unwrap().floor, 3);
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
        let expanded = c.expand(&h);
        assert!(expanded.contains(GuessId::first(ProcessId(0), 1)));
        assert!(expanded.contains(GuessId::new(ProcessId(0), Incarnation(1), 2)));
        assert!(expanded.contains(GuessId::new(ProcessId(0), Incarnation(1), 3)));
        assert!(expanded.contains(latest));
        assert!(!expanded.contains(GuessId::first(ProcessId(0), 2)));
        assert_eq!(expanded.len(), 4);
    }

    #[test]
    fn expand_handles_nonmonotone_recorded_starts() {
        // Starts can become non-monotone across incarnations: a late abort
        // of an early old-incarnation guess lowers an *earlier* slot below
        // a later one. eff = [0, _, 3] with start(1) lowered to 2: indexes
        // 3..5 belong to incarnation 2, index 2 to nothing live (implicit
        // abort), index 1 to incarnation 0.
        let mut h = History::new();
        h.record_abort(GuessId::first(ProcessId(0), 5)); // inc 1 starts at 5
        h.record_abort(GuessId::new(ProcessId(0), Incarnation(1), 3)); // inc 2 at 3
        h.record_abort(GuessId::first(ProcessId(0), 2)); // lowers inc 1 start to 2
        let latest = GuessId::new(ProcessId(0), Incarnation(2), 5);
        let full = Guard::from_iter([
            GuessId::first(ProcessId(0), 1),
            GuessId::new(ProcessId(0), Incarnation(1), 2),
            GuessId::new(ProcessId(0), Incarnation(2), 3),
            GuessId::new(ProcessId(0), Incarnation(2), 4),
            latest,
        ]);
        let c = CompactGuard::compress(&full);
        let expanded = c.expand(&h);
        assert!(expanded.contains(latest));
        assert!(expanded.contains(GuessId::new(ProcessId(0), Incarnation(2), 4)));
        assert!(expanded.contains(GuessId::new(ProcessId(0), Incarnation(2), 3)));
        // Index 2 must be assigned to incarnation 1 (eff start 2), not swept
        // into incarnation 2 by a naive monotone cursor.
        assert!(expanded.contains(GuessId::new(ProcessId(0), Incarnation(1), 2)));
        assert!(expanded.contains(GuessId::first(ProcessId(0), 1)));
        assert_eq!(expanded.len(), 5);
    }

    #[test]
    fn measure_shows_compaction_win_for_streaming() {
        let full = Guard::from_iter((1..=32).map(|i| g(0, i)));
        let m = measure(&full);
        assert_eq!(m.full_entries, 32);
        assert_eq!(m.compact_entries, 1);
        assert!(m.compact_bytes < m.full_bytes / 10);
        // First-incarnation guards need no table rows.
        assert_eq!(m.table_bytes, 0);
    }

    #[test]
    fn measure_accounts_for_table_rows() {
        let latest = GuessId::new(ProcessId(0), Incarnation(2), 5);
        let m = measure(&Guard::single(latest));
        assert_eq!(m.table_bytes, 2 * crate::wire::TableRow::WIRE_BYTES);
    }

    #[test]
    fn empty_guard_compacts_to_empty() {
        let c = CompactGuard::compress(&Guard::empty());
        assert!(c.is_empty());
        assert!(c.expand(&History::new()).is_empty());
    }
}
