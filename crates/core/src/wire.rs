//! Guard wire encoding (§4.1.2 + §4.1.5): compact tags with piggybacked
//! incarnation tables.
//!
//! §4.1.2 observes that "only the most recent guess from each process needs
//! to be maintained in the commit guard set" — provided the receiver can
//! re-expand the implied set, which requires the *sender's* incarnation
//! start table (§4.1.5). This module is the production wire format that
//! deviation note DESIGN.md §5c describes: a [`WireGuard`] is either the
//! full guard set (the differential-testing oracle) or a [`CompactGuard`]
//! plus the incarnation-table rows the receiver needs and has not yet
//! acknowledged.
//!
//! ## Protocol
//!
//! *Sender* (per data message): compress the live guard; collect, for every
//! retained guess `x_{i,n}` with `i > 0`, the table rows `(x, 1..=i)` from
//! its own history; self-check that a *receiver-view* expansion — the table
//! rows alone, with no resolution knowledge — reproduces the guard exactly
//! (else fall back to the full encoding and count it); suppress rows this
//! receiver has acked whose value has never changed since first recorded.
//! The receiver-view check matters: expansion fabricates every index in the
//! implied span `floor..=latest` (the floor pins a stream's committed
//! prefix out of the range — see [`crate::compact::Span`]), and a member
//! the sender knows resolved but the receiver may not could, under targeted
//! control, join a receiver guard that no future COMMIT will ever clear.
//! Guards whose live members are not exactly the table-implied span ship
//! full.
//!
//! *Receiver*: merge attached rows into its `History` (starts only move
//! down), queue an ack for each first-seen row (piggybacked on the next
//! data message back to that sender), then expand using the **sender-view**
//! table: attached rows override everything; a suppressed row's value is
//! recovered from the ack ledger (see below); only then does the local
//! table serve as a fallback. Receiver-known-committed members are dropped
//! (they are no longer guard members by definition); receiver-known-aborted
//! members are *kept* so arrival classification can spot orphans exactly as
//! it would with a full tag.
//!
//! ## Why the ack ledger is exact
//!
//! A row `(p, i) = s` may only be suppressed if (a) this receiver acked
//! `(p, i, s)` and (b) `s` never changed since it was first recorded at the
//! sender. Starts are min-merged — they only decrease — so (b) means `s` is
//! the *largest* value the sender ever attached for that slot, and (a)
//! means `s` is in the receiver's ledger of acked values. The largest
//! ledger value for the slot is therefore exactly the sender's current
//! value, even with reordered or long-delayed messages in flight. Rows
//! whose value did change are attached on every message, and attached rows
//! always win, so decoding always reconstructs the sender's view of every
//! index's incarnation — the property that makes compact tags safe: a too-
//! new assignment would hide an orphan, a too-old one would fabricate one.

use crate::compact::CompactGuard;
use crate::guard::Guard;
use crate::history::{Fate, History};
use crate::ids::{ForkIndex, GuessId, Incarnation, ProcessId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Which guard encoding an engine puts on the wire (`CoreConfig::codec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GuardCodec {
    /// Ship full guard sets — the paper's baseline formulation and the
    /// differential-testing oracle for the compact path.
    #[default]
    Full,
    /// Ship §4.1.2 compact guards plus incarnation-table deltas (§4.1.5),
    /// falling back to full per message when the sender's self-check says
    /// compaction would lose information.
    Compact,
}

/// One incarnation-table row on the wire: "incarnation `incarnation` of
/// `process` starts at fork index `start`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableRow {
    pub process: ProcessId,
    pub incarnation: Incarnation,
    pub start: ForkIndex,
}

impl TableRow {
    /// Wire bytes per row, derived from the field widths (mirrors
    /// `GuessId::WIRE_BYTES` — same three fields).
    pub const WIRE_BYTES: usize = std::mem::size_of::<ProcessId>()
        + std::mem::size_of::<Incarnation>()
        + std::mem::size_of::<ForkIndex>();
}

impl fmt::Display for TableRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]@{}",
            self.process.letter().to_lowercase(),
            self.incarnation.0,
            self.start
        )
    }
}

/// A guard as it travels on the wire: full set or compact + table delta.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WireGuard {
    Full(Guard),
    Compact {
        guard: CompactGuard,
        rows: Vec<TableRow>,
    },
}

impl WireGuard {
    /// The decoded full guard. Engines call this only after arrival
    /// ingestion normalized the envelope (compact tags are decoded in
    /// place); a compact tag here is a protocol bug.
    pub fn full(&self) -> &Guard {
        match self {
            WireGuard::Full(g) => g,
            WireGuard::Compact { .. } => panic!("compact wire guard read before decode"),
        }
    }

    pub fn is_compact(&self) -> bool {
        matches!(self, WireGuard::Compact { .. })
    }

    /// Processes owning the guard's members, readable from either encoding
    /// without decoding — compaction keeps exactly one (latest) guess per
    /// member process, so the process sets coincide. Targeted control
    /// dissemination uses this to pick PRECEDENCE recipients.
    pub fn member_processes(&self) -> Vec<ProcessId> {
        match self {
            WireGuard::Full(g) => {
                let mut ps: Vec<ProcessId> = g.runs().iter().map(|r| r.process).collect();
                ps.dedup();
                ps
            }
            WireGuard::Compact { guard, .. } => guard.iter().map(|m| m.process).collect(),
        }
    }

    /// Bytes this encoding occupies on the wire, including table rows.
    pub fn wire_size(&self) -> usize {
        match self {
            WireGuard::Full(g) => g.wire_size(),
            WireGuard::Compact { guard, rows } => {
                guard.wire_size() + 1 + rows.len() * TableRow::WIRE_BYTES
            }
        }
    }
}

impl From<Guard> for WireGuard {
    fn from(g: Guard) -> Self {
        WireGuard::Full(g)
    }
}

impl fmt::Display for WireGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireGuard::Full(g) => write!(f, "{g}"),
            WireGuard::Compact { guard, rows } => {
                write!(f, "{{")?;
                for (i, s) in guard.spans().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    match s.floor {
                        f_ if f_ == s.latest.index => write!(f, "{}", s.latest)?,
                        1 => write!(f, "..{}", s.latest)?,
                        f_ => write!(f, "{f_}..{}", s.latest)?,
                    }
                }
                write!(f, "}}")?;
                if !rows.is_empty() {
                    write!(f, "+{}t", rows.len())?;
                }
                Ok(())
            }
        }
    }
}

/// What `ProcessCore::encode_for_send` hands the engine for one data
/// message: the ground-truth full guard (trace events, `note_send`), the
/// encoded wire tag, and the table acks to piggyback.
#[derive(Debug, Clone)]
pub struct SendTag {
    pub full: Guard,
    pub wire: WireGuard,
    pub acks: Vec<TableRow>,
}

/// Wire-path counters, surfaced per engine in stats output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Data/control guards shipped compact.
    pub compact_sends: u64,
    /// Compact-codec sends that fell back to the full encoding (self-check
    /// failed or the sender lacked a needed table row).
    pub full_fallbacks: u64,
    /// Incarnation-table rows attached to outgoing messages.
    pub rows_sent: u64,
    /// Row acks piggybacked on outgoing data messages.
    pub acks_sent: u64,
    /// Rows merged from incoming messages.
    pub rows_merged: u64,
}

impl WireStats {
    pub fn merge(&mut self, other: WireStats) {
        self.compact_sends += other.compact_sends;
        self.full_fallbacks += other.full_fallbacks;
        self.rows_sent += other.rows_sent;
        self.acks_sent += other.acks_sent;
        self.rows_merged += other.rows_merged;
    }
}

/// Per-process codec state: which of our rows each peer has acked, which of
/// each peer's rows we have acked (the decode ledger), and acks waiting to
/// piggyback.
#[derive(Debug, Clone, Default)]
pub struct WireState {
    codec: GuardCodec,
    /// Rows this peer has acknowledged receiving from us → suppressible.
    acked_by: HashMap<ProcessId, HashSet<TableRow>>,
    /// Rows we have acked to this peer, per slot — the values the peer may
    /// suppress, kept as a set so the largest (= first, = unchanged current)
    /// is recoverable.
    ack_ledger: HashMap<ProcessId, BTreeMap<(ProcessId, Incarnation), BTreeSet<ForkIndex>>>,
    /// Acks queued for the next data message to each peer.
    pending_acks: HashMap<ProcessId, Vec<TableRow>>,
    pub stats: WireStats,
}

impl WireState {
    pub fn new(codec: GuardCodec) -> Self {
        WireState {
            codec,
            ..WireState::default()
        }
    }

    pub fn codec(&self) -> GuardCodec {
        self.codec
    }

    /// Encode one data-message tag for `to`, draining queued acks.
    pub fn encode_data(&mut self, full: &Guard, history: &History, to: ProcessId) -> SendTag {
        let mut acks = self.pending_acks.remove(&to).unwrap_or_default();
        // Dedupe in case the same row was queued twice between sends.
        acks.sort_unstable();
        acks.dedup();
        self.stats.acks_sent += acks.len() as u64;
        let wire = self.encode(full, history, Some(to));
        SendTag {
            full: full.clone(),
            wire,
            acks,
        }
    }

    /// Encode a control-message guard (PRECEDENCE). Controls are broadcast
    /// and relayed, so no per-receiver suppression: the encoding is
    /// self-contained and every receiver (and relay) can decode it from the
    /// attached rows alone.
    pub fn encode_control(&mut self, guard: &Guard, history: &History) -> WireGuard {
        self.encode(guard, history, None)
    }

    fn encode(&mut self, full: &Guard, history: &History, peer: Option<ProcessId>) -> WireGuard {
        if self.codec == GuardCodec::Full {
            return WireGuard::Full(full.clone());
        }
        let cg = CompactGuard::compress(full);
        // The self-check is mandatory, not defensive, and deliberately uses
        // the receiver's view: expand from the table values alone (the rows
        // the receiver will hold after this message), keeping every
        // fabricated member. Only when that equals the live guard exactly
        // is the compact form faithful for *any* receiver — gaps the sender
        // knows resolved *inside* the span don't count, because the
        // receiver may not know. (Committed stream prefixes sit below the
        // span floor and compact fine.)
        if let Some(rows) = self.collect_rows(&cg, history, peer) {
            let receiver_view = cg.expand_via(|p, i| history.start_of(p, i), (history, |_| true));
            if receiver_view == *full {
                self.stats.compact_sends += 1;
                self.stats.rows_sent += rows.len() as u64;
                return WireGuard::Compact { guard: cg, rows };
            }
        }
        self.stats.full_fallbacks += 1;
        WireGuard::Full(full.clone())
    }

    /// Rows a receiver needs to expand `cg`, minus those `peer` may have
    /// suppressed. `None` when the sender's own table lacks a needed row.
    fn collect_rows(
        &self,
        cg: &CompactGuard,
        history: &History,
        peer: Option<ProcessId>,
    ) -> Option<Vec<TableRow>> {
        let mut rows = Vec::new();
        for latest in cg.iter() {
            if latest.incarnation.0 == 0 {
                continue;
            }
            let t = history.incarnation_table(latest.process)?;
            for i in 1..=latest.incarnation.0 {
                let inc = Incarnation(i);
                let start = t.start_of(inc)?;
                let row = TableRow {
                    process: latest.process,
                    incarnation: inc,
                    start,
                };
                let suppress = peer.is_some_and(|to| {
                    !t.start_changed(inc)
                        && self.acked_by.get(&to).is_some_and(|s| s.contains(&row))
                });
                if !suppress {
                    rows.push(row);
                }
            }
        }
        Some(rows)
    }

    /// Receiver side, once per arriving envelope before classification:
    /// absorb piggybacked acks and decode a compact tag in place (the
    /// envelope's guard is normalized to `WireGuard::Full`). Idempotent —
    /// re-classification of pooled envelopes finds nothing left to do.
    pub fn ingest_data(
        &mut self,
        from: ProcessId,
        guard: &mut WireGuard,
        acks: &mut Vec<TableRow>,
        history: &mut History,
    ) {
        if !acks.is_empty() {
            let acked = self.acked_by.entry(from).or_default();
            for row in acks.drain(..) {
                acked.insert(row);
            }
        }
        if let WireGuard::Compact { guard: cg, rows } = &*guard {
            let decoded = self.decode(from, cg, rows, history, true);
            *guard = WireGuard::Full(decoded);
        }
    }

    /// Decode a control-message guard. Rows are merged but not acked (acks
    /// drive data-path suppression only; a relayed control's rows were
    /// written by the originator, not the forwarding peer, so they must not
    /// enter the per-sender ledger).
    pub fn decode_control(&mut self, wire: &WireGuard, history: &mut History) -> Guard {
        match wire {
            WireGuard::Full(g) => g.clone(),
            WireGuard::Compact { guard, rows } => self.decode(ProcessId(u32::MAX), guard, rows, history, false),
        }
    }

    fn decode(
        &mut self,
        from: ProcessId,
        cg: &CompactGuard,
        rows: &[TableRow],
        history: &mut History,
        ack: bool,
    ) -> Guard {
        let mut attached: BTreeMap<(ProcessId, Incarnation), ForkIndex> = BTreeMap::new();
        for r in rows {
            history.observe_incarnation(r.process, r.incarnation, r.start);
            self.stats.rows_merged += 1;
            attached
                .entry((r.process, r.incarnation))
                .and_modify(|s| *s = (*s).min(r.start))
                .or_insert(r.start);
            if ack {
                let slot = self
                    .ack_ledger
                    .entry(from)
                    .or_default()
                    .entry((r.process, r.incarnation))
                    .or_default();
                if slot.insert(r.start) {
                    self.pending_acks.entry(from).or_default().push(*r);
                }
            }
        }
        let ledger = self.ack_ledger.get(&from);
        let history = &*history;
        cg.expand_via(
            |p, i| {
                attached
                    .get(&(p, i))
                    .copied()
                    // Suppressed row: largest value we ever acked to this
                    // sender for the slot (exact — see module docs).
                    .or_else(|| {
                        ledger
                            .and_then(|l| l.get(&(p, i)))
                            .and_then(|s| s.iter().next_back().copied())
                    })
                    .unwrap_or_else(|| history.start_of(p, i))
            },
            // Keep receiver-known-aborted members: classification needs
            // them to detect orphans, exactly as a full tag would expose
            // them. Committed members are gone by definition.
            (history, |f| f != Fate::Committed),
        )
    }
}

// ---------------------------------------------------------------------------
// Binary frame codec (socket runtime, DESIGN.md §13)
//
// A frame is what actually crosses an OS-process boundary:
//
//   frame    := len:u32le  body            (len = body length, bytes)
//   body     := version:u8(=1)  envelope | control
//   envelope := id uv | from uv | from_thread uv | to uv
//               | kind:u8 (0=Send 1=Call 2=Return) [call_id uv]
//               | guard | ack_count uv | ack_count × row
//               | payload:value | label_len uv | label utf8 | link_seq uv
//   guard    := 0:u8 count uv count × guess            (full)
//             | 1:u8 spans uv spans × (guess, floor uv)
//                    rows uv rows × row                (compact)
//   guess    := process uv | incarnation uv | index uv
//   row      := process uv | incarnation uv | start uv
//   value    := 0 | 1 b:u8 | 2 zigzag uv | 3 len uv bytes
//             | 4 count uv values | 5 count uv (key, value)
//
// `uv` is LEB128 (7 bits per byte, little-endian groups). Decoding is
// strict: every malformed input — truncated at any byte offset, oversized
// length prefix, unknown version, bad tag, varint overflow, non-UTF-8
// string, nesting past the depth cap, trailing bytes inside the declared
// length — returns a [`FrameError`]; wire input can never panic the
// decoder. Untrusted counts never pre-allocate: a frame claiming 2^40
// elements fails on the first missing byte, not in the allocator.
// ---------------------------------------------------------------------------

use crate::compact::Span;
use crate::message::{CallId, Control, DataKind, Envelope, MsgId};
use crate::value::Value;

/// Current frame format version (the first body byte).
pub const FRAME_VERSION: u8 = 1;

/// Upper bound on the declared body length. Anything larger is rejected
/// before any allocation or parsing — a corrupted length prefix must not
/// turn into a 4 GiB read.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Most guesses a decoded guard may name: what a full tag of
/// [`MAX_FRAME_BYTES`] lists, by the tag accounting of `Guard::wire_size`.
/// A compact span *implies* its members, so its few bytes could otherwise
/// stand for four billion of them — and what the receiver does with a tag
/// (new dependencies, rollback points, CDG nodes) is per member.
pub const MAX_GUARD_MEMBERS: u64 = ((MAX_FRAME_BYTES - 2) / GuessId::WIRE_BYTES) as u64;

/// Highest incarnation number a decoded guess or table row may carry: a
/// compact guard under incarnation `i` needs rows `1..=i`, so one whose
/// rows no frame could hold is not a guess anybody can ship — and tables,
/// row collection and expansion all cost O(incarnation).
pub const MAX_INCARNATION: u64 = (MAX_FRAME_BYTES / TableRow::WIRE_BYTES) as u64;

/// Maximum `Value` nesting depth the decoder will follow (lists/records).
const MAX_VALUE_DEPTH: u32 = 64;

/// Strict decode errors for wire input. Every variant is a normal error
/// return — malformed frames never panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended before the structure it promised.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized { len: usize, max: usize },
    /// The version byte is not [`FRAME_VERSION`].
    UnknownVersion(u8),
    /// A tag byte (kind, guard, value) has no defined meaning.
    BadTag { what: &'static str, tag: u8 },
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverflow,
    /// A varint field exceeds the width of the struct field it fills.
    Overflow(&'static str),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Value nesting exceeds [`MAX_VALUE_DEPTH`].
    TooDeep,
    /// The body decoded cleanly but the declared length covers more bytes.
    TrailingBytes { extra: usize },
    /// A well-formed number no honest sender can mean: a guard naming more
    /// guesses than [`MAX_GUARD_MEMBERS`], an incarnation past
    /// [`MAX_INCARNATION`].
    TooLarge {
        what: &'static str,
        value: u64,
        max: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            FrameError::UnknownVersion(v) => write!(f, "unknown frame version {v}"),
            FrameError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            FrameError::VarintOverflow => write!(f, "varint overflows u64"),
            FrameError::Overflow(field) => write!(f, "{field} exceeds field width"),
            FrameError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            FrameError::TooDeep => write!(f, "value nesting exceeds depth cap"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes inside declared frame length")
            }
            FrameError::TooLarge { what, value, max } => {
                write!(f, "{what} {value} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Append a LEB128 varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Bounds-checked cursor over untrusted frame bytes. Every read returns
/// `Err(FrameError)` past the end — no panicking indexing anywhere in the
/// decode path.
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn u8(&mut self) -> Result<u8, FrameError> {
        let b = *self.buf.get(self.pos).ok_or(FrameError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(FrameError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// The unread remainder — for nested self-delimiting structures
    /// decoded by their own entry point (pair with [`advance`](Self::advance)).
    pub fn tail(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Skip `n` bytes a nested decoder reported consuming.
    pub fn advance(&mut self, n: usize) -> Result<(), FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        self.pos = end;
        Ok(())
    }

    /// LEB128 varint; rejects encodings past 10 bytes or overflowing u64.
    pub fn uv(&mut self) -> Result<u64, FrameError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let low = (b & 0x7f) as u64;
            if shift == 63 && low > 1 {
                return Err(FrameError::VarintOverflow);
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(FrameError::VarintOverflow)
    }

    /// A uvarint that must fit in 32 bits (ids, lengths); `field` names
    /// the value in the [`FrameError::Overflow`] it produces.
    pub fn uv32(&mut self, field: &'static str) -> Result<u32, FrameError> {
        u32::try_from(self.uv()?).map_err(|_| FrameError::Overflow(field))
    }

    fn incarnation(&mut self) -> Result<Incarnation, FrameError> {
        let value = self.uv()?;
        if value > MAX_INCARNATION {
            return Err(FrameError::TooLarge {
                what: "incarnation",
                value,
                max: MAX_INCARNATION,
            });
        }
        Ok(Incarnation(value as u32))
    }
}

fn put_guess(buf: &mut Vec<u8>, g: GuessId) {
    put_uvarint(buf, g.process.0 as u64);
    put_uvarint(buf, g.incarnation.0 as u64);
    put_uvarint(buf, g.index as u64);
}

fn get_guess(r: &mut FrameReader<'_>) -> Result<GuessId, FrameError> {
    Ok(GuessId {
        process: ProcessId(r.uv32("process id")?),
        incarnation: r.incarnation()?,
        index: r.uv32("fork index")?,
    })
}

fn put_row(buf: &mut Vec<u8>, row: &TableRow) {
    put_uvarint(buf, row.process.0 as u64);
    put_uvarint(buf, row.incarnation.0 as u64);
    put_uvarint(buf, row.start as u64);
}

fn get_row(r: &mut FrameReader<'_>) -> Result<TableRow, FrameError> {
    Ok(TableRow {
        process: ProcessId(r.uv32("process id")?),
        incarnation: r.incarnation()?,
        start: r.uv32("row start")?,
    })
}

fn put_wire_guard(buf: &mut Vec<u8>, g: &WireGuard) {
    match g {
        WireGuard::Full(full) => {
            buf.push(0);
            put_uvarint(buf, full.len() as u64);
            for guess in full.iter() {
                put_guess(buf, guess);
            }
        }
        WireGuard::Compact { guard, rows } => {
            buf.push(1);
            put_uvarint(buf, guard.len() as u64);
            for span in guard.spans() {
                put_guess(buf, span.latest);
                put_uvarint(buf, span.floor as u64);
            }
            put_uvarint(buf, rows.len() as u64);
            for row in rows {
                put_row(buf, row);
            }
        }
    }
}

fn get_wire_guard(r: &mut FrameReader<'_>) -> Result<WireGuard, FrameError> {
    match r.u8()? {
        0 => {
            let count = r.uv()?;
            let mut guesses = Vec::new();
            for _ in 0..count {
                guesses.push(get_guess(r)?);
            }
            Ok(WireGuard::Full(guesses.into_iter().collect()))
        }
        1 => {
            let spans = r.uv()?;
            let mut out = Vec::new();
            let mut members: u64 = 0;
            for _ in 0..spans {
                let latest = get_guess(r)?;
                let floor = r.uv32("span floor")?;
                out.push(Span { latest, floor });
                members += latest.index.saturating_sub(floor) as u64 + 1;
                if members > MAX_GUARD_MEMBERS {
                    return Err(FrameError::TooLarge {
                        what: "guard members",
                        value: members,
                        max: MAX_GUARD_MEMBERS,
                    });
                }
            }
            let row_count = r.uv()?;
            let mut rows = Vec::new();
            for _ in 0..row_count {
                rows.push(get_row(r)?);
            }
            Ok(WireGuard::Compact {
                guard: CompactGuard::from_spans(out),
                rows,
            })
        }
        tag => Err(FrameError::BadTag { what: "guard", tag }),
    }
}

/// Append a [`Value`] in frame encoding. Public so the socket runtime can
/// ship observable logs and external outputs through the same codec.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Unit => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(2);
            put_uvarint(buf, ((i << 1) ^ (i >> 63)) as u64);
        }
        Value::Str(s) => {
            buf.push(3);
            put_uvarint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::List(items) => {
            buf.push(4);
            put_uvarint(buf, items.len() as u64);
            for item in items.iter() {
                put_value(buf, item);
            }
        }
        Value::Record(fields) => {
            buf.push(5);
            put_uvarint(buf, fields.len() as u64);
            for (k, val) in fields.iter() {
                put_uvarint(buf, k.len() as u64);
                buf.extend_from_slice(k.as_bytes());
                put_value(buf, val);
            }
        }
    }
}

fn get_str(r: &mut FrameReader<'_>) -> Result<String, FrameError> {
    let len = usize::try_from(r.uv()?).map_err(|_| FrameError::Overflow("string length"))?;
    let bytes = r.take(len)?;
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|_| FrameError::BadUtf8)
}

fn get_value_at(r: &mut FrameReader<'_>, depth: u32) -> Result<Value, FrameError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(FrameError::TooDeep);
    }
    match r.u8()? {
        0 => Ok(Value::Unit),
        1 => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            tag => Err(FrameError::BadTag { what: "bool", tag }),
        },
        2 => {
            let n = r.uv()?;
            Ok(Value::Int(((n >> 1) as i64) ^ -((n & 1) as i64)))
        }
        3 => Ok(Value::Str(get_str(r)?.into())),
        4 => {
            let count = r.uv()?;
            let mut items = Vec::new();
            for _ in 0..count {
                items.push(get_value_at(r, depth + 1)?);
            }
            Ok(Value::List(items.into()))
        }
        5 => {
            let count = r.uv()?;
            let mut fields = BTreeMap::new();
            for _ in 0..count {
                let key = get_str(r)?;
                let val = get_value_at(r, depth + 1)?;
                fields.insert(key, val);
            }
            Ok(Value::Record(std::sync::Arc::new(fields)))
        }
        tag => Err(FrameError::BadTag { what: "value", tag }),
    }
}

/// Decode a [`Value`] from a [`FrameReader`] (counterpart of
/// [`put_value`]).
pub fn get_value(r: &mut FrameReader<'_>) -> Result<Value, FrameError> {
    get_value_at(r, 0)
}

fn put_envelope(buf: &mut Vec<u8>, e: &Envelope) {
    put_uvarint(buf, e.id.0);
    put_uvarint(buf, e.from.0 as u64);
    put_uvarint(buf, e.from_thread as u64);
    put_uvarint(buf, e.to.0 as u64);
    match e.kind {
        DataKind::Send => buf.push(0),
        DataKind::Call(c) => {
            buf.push(1);
            put_uvarint(buf, c.0);
        }
        DataKind::Return(c) => {
            buf.push(2);
            put_uvarint(buf, c.0);
        }
    }
    put_wire_guard(buf, &e.guard);
    put_uvarint(buf, e.table_acks.len() as u64);
    for row in &e.table_acks {
        put_row(buf, row);
    }
    put_value(buf, &e.payload);
    put_uvarint(buf, e.label.len() as u64);
    buf.extend_from_slice(e.label.as_bytes());
    put_uvarint(buf, e.link_seq as u64);
}

fn get_envelope(r: &mut FrameReader<'_>) -> Result<Envelope, FrameError> {
    let id = MsgId(r.uv()?);
    let from = ProcessId(r.uv32("process id")?);
    let from_thread = r.uv32("fork index")?;
    let to = ProcessId(r.uv32("process id")?);
    let kind = match r.u8()? {
        0 => DataKind::Send,
        1 => DataKind::Call(CallId(r.uv()?)),
        2 => DataKind::Return(CallId(r.uv()?)),
        tag => return Err(FrameError::BadTag { what: "kind", tag }),
    };
    let guard = get_wire_guard(r)?;
    let ack_count = r.uv()?;
    let mut table_acks = Vec::new();
    for _ in 0..ack_count {
        table_acks.push(get_row(r)?);
    }
    let payload = get_value(r)?;
    let label: crate::message::Label = get_str(r)?.into();
    let link_seq = r.uv32("link seq")?;
    Ok(Envelope {
        id,
        from,
        from_thread,
        to,
        guard,
        table_acks,
        kind,
        payload,
        label,
        link_seq,
    })
}

/// Parse a `u32le` frame-length header and enforce the size policy: a
/// body must hold at least the version byte (`len == 0` is `Truncated`)
/// and never exceed [`MAX_FRAME_BYTES`]. Every length prefix on any wire
/// — envelope/control frames and the socket-transport message stream
/// (`rt::sock`) — must go through here, so the cap and the error taxonomy
/// cannot diverge between decoders.
pub fn parse_frame_len(header: [u8; 4]) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Err(FrameError::Truncated);
    }
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    Ok(len)
}

/// Back-patch the `u32le` length prefix of a frame built as
/// `[0,0,0,0, version, body...]` — the encoder-side counterpart of
/// [`parse_frame_len`].
pub fn seal_frame_len(frame: &mut [u8]) {
    let len = frame.len() - 4;
    debug_assert!(
        len <= MAX_FRAME_BYTES,
        "encoded frame body {len} exceeds MAX_FRAME_BYTES"
    );
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
}

fn finish_frame(mut body: Vec<u8>) -> Vec<u8> {
    seal_frame_len(&mut body);
    body
}

/// Read the length prefix + version and return a reader over the body,
/// plus the total frame size (`4 + len`).
fn open_frame(buf: &[u8]) -> Result<(FrameReader<'_>, usize), FrameError> {
    let len_bytes: [u8; 4] = buf
        .get(..4)
        .ok_or(FrameError::Truncated)?
        .try_into()
        .unwrap();
    let len = parse_frame_len(len_bytes)?;
    let body = buf
        .get(4..4 + len)
        .ok_or(FrameError::Truncated)?;
    let mut r = FrameReader::new(body);
    match r.u8()? {
        FRAME_VERSION => Ok((r, 4 + len)),
        v => Err(FrameError::UnknownVersion(v)),
    }
}

fn close_frame<T>(value: T, r: FrameReader<'_>, total: usize) -> Result<(T, usize), FrameError> {
    if r.remaining() != 0 {
        return Err(FrameError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok((value, total))
}

/// Encode an [`Envelope`] as a self-delimiting binary frame:
/// `u32le length | version | body`. The inverse of [`decode_frame`].
pub fn encode_frame(e: &Envelope) -> Vec<u8> {
    let mut buf = vec![0, 0, 0, 0, FRAME_VERSION];
    put_envelope(&mut buf, e);
    finish_frame(buf)
}

/// Decode one envelope frame from the front of `buf`. Returns the envelope
/// and the total bytes consumed (`4 + body length`). Strict: truncated,
/// oversized, unknown-version, and malformed input all return `Err`;
/// nothing on this path can panic on wire bytes.
pub fn decode_frame(buf: &[u8]) -> Result<(Envelope, usize), FrameError> {
    let (mut r, total) = open_frame(buf)?;
    let e = get_envelope(&mut r)?;
    close_frame(e, r, total)
}

/// Encode a [`Control`] message as a binary frame (same header layout as
/// [`encode_frame`]; the body starts with a control opcode).
pub fn encode_control_frame(c: &Control) -> Vec<u8> {
    let mut buf = vec![0, 0, 0, 0, FRAME_VERSION];
    match c {
        Control::Commit(g) => {
            buf.push(0);
            put_guess(&mut buf, *g);
        }
        Control::Abort(g) => {
            buf.push(1);
            put_guess(&mut buf, *g);
        }
        Control::Precedence(g, wg) => {
            buf.push(2);
            put_guess(&mut buf, *g);
            put_wire_guard(&mut buf, wg);
        }
    }
    finish_frame(buf)
}

/// Decode one control frame from the front of `buf` (inverse of
/// [`encode_control_frame`]).
pub fn decode_control_frame(buf: &[u8]) -> Result<(Control, usize), FrameError> {
    let (mut r, total) = open_frame(buf)?;
    let c = match r.u8()? {
        0 => Control::Commit(get_guess(&mut r)?),
        1 => Control::Abort(get_guess(&mut r)?),
        2 => {
            let g = get_guess(&mut r)?;
            let wg = get_wire_guard(&mut r)?;
            Control::Precedence(g, wg)
        }
        tag => return Err(FrameError::BadTag { what: "control", tag }),
    };
    close_frame(c, r, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn g(proc_: u32, inc: u32, idx: u32) -> GuessId {
        GuessId::new(p(proc_), Incarnation(inc), idx)
    }

    fn streaming_guard(n: u32) -> Guard {
        (1..=n).map(|i| GuessId::first(p(0), i)).collect()
    }

    #[test]
    fn full_codec_passes_guards_through() {
        let mut w = WireState::new(GuardCodec::Full);
        let h = History::new();
        let tag = w.encode_data(&streaming_guard(5), &h, p(1));
        assert_eq!(tag.wire, WireGuard::Full(streaming_guard(5)));
        assert_eq!(w.stats.compact_sends, 0);
    }

    #[test]
    fn compact_roundtrip_streaming() {
        let mut sender = WireState::new(GuardCodec::Compact);
        let mut recv_h = History::new();
        let mut receiver = WireState::new(GuardCodec::Compact);
        let h = History::new();
        let full = streaming_guard(8);
        let tag = sender.encode_data(&full, &h, p(1));
        assert!(tag.wire.is_compact(), "contiguous guard must go compact");
        assert!(tag.wire.wire_size() < full.wire_size() / 4);
        let mut wire = tag.wire;
        let mut acks = tag.acks;
        receiver.ingest_data(p(0), &mut wire, &mut acks, &mut recv_h);
        assert_eq!(*wire.full(), full);
    }

    #[test]
    fn compact_ships_rows_and_receiver_decodes_across_incarnations() {
        // Sender aborted fork 2: incarnation 1 starts at 2. Its guard is
        // {x_{0,1}, x_{1,2}, x_{1,3}}; the receiver has no incarnation
        // knowledge of its own and must rely on the shipped row.
        let mut sender_h = History::new();
        sender_h.record_abort(GuessId::first(p(0), 2));
        let full = Guard::from_iter([g(0, 0, 1), g(0, 1, 2), g(0, 1, 3)]);
        let mut sender = WireState::new(GuardCodec::Compact);
        let tag = sender.encode_data(&full, &sender_h, p(1));
        let WireGuard::Compact { ref rows, .. } = tag.wire else {
            panic!("expected compact encoding, got {:?}", tag.wire);
        };
        assert_eq!(
            rows.as_slice(),
            &[TableRow {
                process: p(0),
                incarnation: Incarnation(1),
                start: 2
            }]
        );

        let mut receiver = WireState::new(GuardCodec::Compact);
        let mut recv_h = History::new();
        let (mut wire, mut acks) = (tag.wire, tag.acks);
        receiver.ingest_data(p(0), &mut wire, &mut acks, &mut recv_h);
        // Exact reconstruction: x_{0,2} is NOT fabricated at index 2.
        assert_eq!(*wire.full(), full);
        // And the row entered the receiver's history (implicit aborts work).
        assert!(recv_h.is_aborted(GuessId::first(p(0), 3)));
    }

    #[test]
    fn ack_suppresses_rows_and_ledger_recovers_value() {
        let mut sender_h = History::new();
        sender_h.record_abort(GuessId::first(p(0), 2)); // inc 1 @ 2
        let full = Guard::from_iter([g(0, 0, 1), g(0, 1, 2), g(0, 1, 3)]);
        let mut sender = WireState::new(GuardCodec::Compact);
        let mut receiver = WireState::new(GuardCodec::Compact);
        let mut recv_h = History::new();

        // Message 1 carries the row; receiver queues an ack.
        let tag1 = sender.encode_data(&full, &sender_h, p(1));
        let (mut w1, mut a1) = (tag1.wire, tag1.acks);
        receiver.ingest_data(p(0), &mut w1, &mut a1, &mut recv_h);

        // Receiver's reply piggybacks the ack; sender absorbs it.
        let reply = receiver.encode_data(&Guard::empty(), &recv_h, p(0));
        assert_eq!(reply.acks.len(), 1);
        let mut rw = reply.wire;
        let mut racks = reply.acks;
        sender.ingest_data(p(1), &mut rw, &mut racks, &mut History::new());

        // Message 2: row suppressed, decode still exact via the ledger.
        let tag2 = sender.encode_data(&full, &sender_h, p(1));
        let WireGuard::Compact { ref rows, .. } = tag2.wire else {
            panic!("expected compact");
        };
        assert!(rows.is_empty(), "acked unchanged row must be suppressed");
        let (mut w2, mut a2) = (tag2.wire, tag2.acks);
        receiver.ingest_data(p(0), &mut w2, &mut a2, &mut recv_h);
        assert_eq!(*w2.full(), full);
        // No duplicate ack queued for an already-acked row.
        let reply2 = receiver.encode_data(&Guard::empty(), &recv_h, p(0));
        assert!(reply2.acks.is_empty());
    }

    #[test]
    fn changed_start_is_never_suppressed() {
        let mut sender_h = History::new();
        sender_h.observe_incarnation(p(0), Incarnation(1), 3); // inc 1 @ 3
        let full1 = Guard::from_iter([g(0, 0, 1), g(0, 0, 2), g(0, 1, 3), g(0, 1, 4)]);
        let mut sender = WireState::new(GuardCodec::Compact);
        let mut receiver = WireState::new(GuardCodec::Compact);
        let mut recv_h = History::new();

        let tag1 = sender.encode_data(&full1, &sender_h, p(1));
        assert!(tag1.wire.is_compact());
        let (mut w1, mut a1) = (tag1.wire, tag1.acks);
        receiver.ingest_data(p(0), &mut w1, &mut a1, &mut recv_h);
        let reply = receiver.encode_data(&Guard::empty(), &recv_h, p(0));
        let (mut rw, mut racks) = (reply.wire, reply.acks);
        sender.ingest_data(p(1), &mut rw, &mut racks, &mut History::new());

        // Late abort knowledge lowers incarnation 1's start below the acked
        // value: x_{0,2} is implicitly dead, x_{1,2} takes its index.
        sender_h.observe_incarnation(p(0), Incarnation(1), 2);
        let full2 = Guard::from_iter([g(0, 0, 1), g(0, 1, 2), g(0, 1, 3), g(0, 1, 4)]);
        let tag2 = sender.encode_data(&full2, &sender_h, p(1));
        let WireGuard::Compact { ref rows, .. } = tag2.wire else {
            panic!("expected compact, got {:?}", tag2.wire);
        };
        assert_eq!(
            rows.as_slice(),
            &[TableRow {
                process: p(0),
                incarnation: Incarnation(1),
                start: 2
            }],
            "changed row must be re-attached despite the ack"
        );
        let (mut w2, mut a2) = (tag2.wire, tag2.acks);
        receiver.ingest_data(p(0), &mut w2, &mut a2, &mut recv_h);
        assert_eq!(*w2.full(), full2);
    }

    #[test]
    fn missing_table_row_falls_back_to_full() {
        // A guard mentioning incarnation 2 while the sender only knows
        // incarnation 1's start cannot be compacted faithfully.
        let mut h = History::new();
        h.record_abort(GuessId::first(p(0), 2));
        let full = Guard::from_iter([g(0, 2, 7)]);
        let mut sender = WireState::new(GuardCodec::Compact);
        let tag = sender.encode_data(&full, &h, p(1));
        assert_eq!(tag.wire, WireGuard::Full(full.clone()));
        assert_eq!(sender.stats.full_fallbacks, 1);
    }

    #[test]
    fn self_check_rejects_lossy_compaction() {
        // {x1, x3} with no incarnation knowledge: the span floor..latest is
        // 1..=3 and a receiver-view expansion would fabricate x2, which the
        // sender cannot prove the receiver knows resolved — must ship full.
        let full = Guard::from_iter([GuessId::first(p(0), 1), GuessId::first(p(0), 3)]);
        let mut sender = WireState::new(GuardCodec::Compact);
        let tag = sender.encode_data(&full, &History::new(), p(1));
        assert_eq!(tag.wire, WireGuard::Full(full.clone()));
        assert_eq!(sender.stats.full_fallbacks, 1);
    }

    #[test]
    fn committed_prefix_compacts_via_span_floor() {
        // Mid-stream: x1..x4 committed at the sender, live guard {x5..x7}.
        // The span floor pins the range, so a receiver with no commit
        // knowledge decodes exactly {x5..x7} — nothing below the floor is
        // fabricated, and compaction engages instead of falling back.
        let mut h = History::new();
        for i in 1..5 {
            h.record_commit(GuessId::first(p(0), i));
        }
        let full = Guard::from_iter((5..=7).map(|i| GuessId::first(p(0), i)));
        let mut sender = WireState::new(GuardCodec::Compact);
        let tag = sender.encode_data(&full, &h, p(1));
        assert!(tag.wire.is_compact(), "got {:?}", tag.wire);
        assert_eq!(sender.stats.full_fallbacks, 0);

        let mut receiver = WireState::new(GuardCodec::Compact);
        let mut recv_h = History::new();
        let (mut wire, mut acks) = (tag.wire, tag.acks);
        receiver.ingest_data(p(0), &mut wire, &mut acks, &mut recv_h);
        assert_eq!(*wire.full(), full);
    }

    #[test]
    fn decode_keeps_receiver_known_aborted_members_for_orphan_check() {
        // Sender (stale) streams {x1..x3}; receiver already knows x2
        // aborted. Decode must surface x2 so classification orphans it —
        // not silently reassign index 2 to a newer incarnation.
        let mut sender = WireState::new(GuardCodec::Compact);
        let full = streaming_guard(3);
        let tag = sender.encode_data(&full, &History::new(), p(1));
        assert!(tag.wire.is_compact());

        let mut receiver = WireState::new(GuardCodec::Compact);
        let mut recv_h = History::new();
        recv_h.record_abort(GuessId::first(p(0), 2));
        let (mut wire, mut acks) = (tag.wire, tag.acks);
        receiver.ingest_data(p(0), &mut wire, &mut acks, &mut recv_h);
        let decoded = wire.full();
        assert!(decoded.contains(GuessId::first(p(0), 2)));
        assert!(recv_h.is_aborted(GuessId::first(p(0), 2)));
    }

    #[test]
    fn decode_drops_receiver_known_committed_members() {
        let mut sender = WireState::new(GuardCodec::Compact);
        let full = streaming_guard(3);
        let tag = sender.encode_data(&full, &History::new(), p(1));

        let mut receiver = WireState::new(GuardCodec::Compact);
        let mut recv_h = History::new();
        recv_h.record_commit(GuessId::first(p(0), 1));
        let (mut wire, mut acks) = (tag.wire, tag.acks);
        receiver.ingest_data(p(0), &mut wire, &mut acks, &mut recv_h);
        let decoded = wire.full();
        assert!(!decoded.contains(GuessId::first(p(0), 1)));
        assert!(decoded.contains(GuessId::first(p(0), 2)));
        assert!(decoded.contains(GuessId::first(p(0), 3)));
    }

    #[test]
    fn control_encoding_is_self_contained() {
        let mut sender_h = History::new();
        sender_h.record_abort(GuessId::first(p(0), 2));
        let full = Guard::from_iter([g(0, 0, 1), g(0, 1, 2), g(0, 1, 3)]);
        let mut sender = WireState::new(GuardCodec::Compact);
        // Even after a peer acked the row, control encodings still carry it
        // (any process may receive or relay the broadcast).
        let wire = sender.encode_control(&full, &sender_h);
        let WireGuard::Compact { ref rows, .. } = wire else {
            panic!("expected compact control guard");
        };
        assert_eq!(rows.len(), 1);

        let mut relay = WireState::new(GuardCodec::Compact);
        let mut relay_h = History::new();
        let decoded = relay.decode_control(&wire, &mut relay_h);
        assert_eq!(decoded, full);
    }

    #[test]
    fn wire_guard_display() {
        let full: WireGuard = Guard::single(GuessId::first(p(0), 1)).into();
        assert_eq!(full.to_string(), "{x1}");
        let mut sender = WireState::new(GuardCodec::Compact);
        let mut h = History::new();
        h.record_abort(GuessId::first(p(0), 2));
        let tag = sender.encode_data(
            &Guard::from_iter([g(0, 0, 1), g(0, 1, 2), g(0, 1, 3)]),
            &h,
            p(1),
        );
        assert_eq!(tag.wire.to_string(), "{..x[1]3}+1t");
    }

    // --- frame codec ---

    use crate::message::{CallId, Control, DataKind, Envelope, MsgId};
    use crate::value::Value;

    fn sample_envelope(guard: WireGuard) -> Envelope {
        let record: BTreeMap<String, Value> = [
            ("k".to_string(), Value::Int(-42)),
            (
                "items".to_string(),
                Value::List(std::sync::Arc::new(vec![
                    Value::Bool(true),
                    Value::Str("hé".into()),
                    Value::Unit,
                ])),
            ),
        ]
        .into_iter()
        .collect();
        Envelope {
            id: MsgId(u64::MAX - 3),
            from: p(1),
            from_thread: 2,
            to: p(3),
            guard,
            table_acks: vec![TableRow {
                process: p(0),
                incarnation: Incarnation(2),
                start: 5,
            }],
            kind: DataKind::Call(CallId(1 << 40)),
            payload: Value::Record(std::sync::Arc::new(record)),
            label: "C7".into(),
            link_seq: 9,
        }
    }

    #[test]
    fn frame_roundtrips_full_guard_envelope() {
        let e = sample_envelope(WireGuard::Full(Guard::from_iter([
            g(0, 0, 1),
            g(0, 1, 3),
            g(2, 0, 2),
        ])));
        let bytes = encode_frame(&e);
        let (back, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, e);
    }

    #[test]
    fn frame_roundtrips_compact_guard_envelope() {
        let mut sender = WireState::new(GuardCodec::Compact);
        let h = History::new();
        let tag = sender.encode_data(&streaming_guard(4), &h, p(3));
        assert!(tag.wire.is_compact(), "fixture must exercise compact path");
        let e = sample_envelope(tag.wire);
        let bytes = encode_frame(&e);
        let (back, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, e);
    }

    #[test]
    fn control_frames_roundtrip() {
        for c in [
            Control::Commit(g(1, 2, 3)),
            Control::Abort(g(0, 0, 1)),
            Control::Precedence(g(2, 1, 4), Guard::from_iter([g(0, 0, 1), g(1, 0, 2)]).into()),
        ] {
            let bytes = encode_control_frame(&c);
            let (back, used) = decode_control_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, c);
        }
    }

    #[test]
    fn every_truncation_offset_errors_without_panicking() {
        let e = sample_envelope(WireGuard::Full(streaming_guard(3)));
        let bytes = encode_frame(&e);
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn oversized_and_unknown_version_are_strict_errors() {
        let mut bytes = encode_frame(&sample_envelope(WireGuard::Full(Guard::empty())));
        bytes[..4].copy_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Oversized { .. })
        ));

        let mut bytes = encode_frame(&sample_envelope(WireGuard::Full(Guard::empty())));
        bytes[4] = 99;
        assert_eq!(decode_frame(&bytes), Err(FrameError::UnknownVersion(99)));
    }

    #[test]
    fn trailing_bytes_inside_declared_length_are_rejected() {
        let mut bytes = encode_frame(&sample_envelope(WireGuard::Full(Guard::empty())));
        bytes.push(0xAA);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn hostile_counts_and_depth_cannot_allocate_or_recurse() {
        // Body claiming 2^40 guard entries but ending immediately: must be
        // a clean Truncated, not an allocation attempt.
        let mut bytes = vec![0, 0, 0, 0, FRAME_VERSION];
        put_uvarint(&mut bytes, 1); // id
        put_uvarint(&mut bytes, 0); // from
        put_uvarint(&mut bytes, 0); // from_thread
        put_uvarint(&mut bytes, 1); // to
        bytes.push(0); // kind = Send
        bytes.push(0); // guard tag = full
        put_uvarint(&mut bytes, 1 << 40); // hostile count
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(FrameError::Truncated));

        // A chain of nested single-element lists past the depth cap.
        let mut bytes = vec![0, 0, 0, 0, FRAME_VERSION];
        put_uvarint(&mut bytes, 1);
        put_uvarint(&mut bytes, 0);
        put_uvarint(&mut bytes, 0);
        put_uvarint(&mut bytes, 1);
        bytes.push(0); // Send
        bytes.push(0); // full guard
        put_uvarint(&mut bytes, 0); // empty guard
        put_uvarint(&mut bytes, 0); // no acks
        for _ in 0..200 {
            bytes.push(4); // list
            put_uvarint(&mut bytes, 1);
        }
        bytes.push(0); // innermost unit
        put_uvarint(&mut bytes, 0); // label len
        put_uvarint(&mut bytes, 0); // link_seq
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(FrameError::TooDeep));
    }
}
