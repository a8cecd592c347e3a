//! Binary frames (DESIGN.md §5c, §13.1): what crosses an OS-process
//! boundary, with a guard tag written as the guard's runs.
//!
//! §4.1.2 keeps "only the most recent guess from each process" in a tag,
//! which a receiver can re-expand only with the sender's incarnation-start
//! table (§4.1.5). A [`Run`] `x_{i,lo} ..= x_{i,hi}` names its incarnation
//! itself, so a guard's runs are already exact and self-contained: a
//! 500-deep stream's tag is one run of four numbers, and the receiver reads
//! it with nothing but the frame — no table rows, no acknowledgements, no
//! fallback. A frame carries exactly the guard the sender holds, and a
//! receiver sees the same members a member-by-member list would show it.
//!
//! ```text
//! frame    := len:u32le  body            (len = body length, bytes)
//! body     := version:u8(=2)  envelope | control
//! envelope := id uv | from uv | from_thread uv | to uv
//!             | kind:u8 (0=Send 1=Call 2=Return) [call_id uv]
//!             | guard | payload:value | label_len uv | label utf8 | link_seq uv
//! control  := 0:u8 guess (COMMIT) | 1:u8 guess (ABORT)
//!           | 2:u8 guess guard (PRECEDENCE)
//! guard    := runs uv  runs × (process uv | incarnation uv | lo uv | hi−lo uv)
//! guess    := process uv | incarnation uv | index uv
//! value    := 0 | 1 b:u8 | 2 zigzag uv | 3 len uv bytes
//!           | 4 count uv values | 5 count uv (key, value)
//! ```
//!
//! `uv` is LEB128 (7 bits per byte, little-endian groups). Decoding is
//! total: every malformed input — truncated at any byte offset, oversized
//! length prefix, unknown version, bad tag, varint overflow, non-UTF-8
//! string, nesting past the depth cap, trailing bytes inside the declared
//! length, and a guard that is not the one an encoder writes — returns a
//! [`FrameError`]; wire input can never panic the decoder. Untrusted counts
//! never pre-allocate: a frame claiming 2^40 runs fails on the first
//! missing byte, not in the allocator.

use crate::guard::{Guard, Run, RunBuf};
use crate::ids::{GuessId, Incarnation, ProcessId};
use crate::message::{CallId, Control, DataKind, Envelope, MsgId};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Current frame format version (the first body byte). Version 1 listed a
/// guard member by member, or as compact spans plus table rows.
pub const FRAME_VERSION: u8 = 2;

/// Upper bound on the declared body length. Anything larger is rejected
/// before any allocation or parsing — a corrupted length prefix must not
/// turn into a 4 GiB read.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Most guesses a decoded guard may name: what a member-by-member list of
/// [`MAX_FRAME_BYTES`] could hold, one [`GuessId::WIRE_BYTES`] each. A run
/// *implies* its members, so its few bytes could otherwise stand for four
/// billion of them — and what the receiver does with a tag (new
/// dependencies, rollback points, CDG nodes) is per member.
pub const MAX_GUARD_MEMBERS: u64 = ((MAX_FRAME_BYTES - 2) / GuessId::WIRE_BYTES) as u64;

/// Highest incarnation number a decoded guess or run may carry: one number
/// per guess a frame could name, since every incarnation a process starts
/// aborts at least one guess. A sanity bound, not a memory guard: a
/// receiver's incarnation table keeps what was recorded, stretches of
/// numbers with one start each, so hearing of the highest number costs
/// what hearing of the next one does (`tests/bounded_state.rs`).
pub const MAX_INCARNATION: u64 = (MAX_FRAME_BYTES / GuessId::WIRE_BYTES) as u64;

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
    /// A tag byte (kind, control, value) has no defined meaning.
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
    /// A guard's runs are not the one spelling an encoder writes: strictly
    /// ascending by (process, incarnation, lo), disjoint and never touching.
    NotCanonical(&'static str),
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
            FrameError::NotCanonical(what) => write!(f, "guard not canonical: {what}"),
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

fn put_guard(buf: &mut Vec<u8>, g: &Guard) {
    put_uvarint(buf, g.runs().len() as u64);
    for run in g.runs() {
        put_uvarint(buf, run.process.0 as u64);
        put_uvarint(buf, run.incarnation.0 as u64);
        put_uvarint(buf, run.lo as u64);
        put_uvarint(buf, (run.hi - run.lo) as u64);
    }
}

/// Only the runs an encoder writes decode: each within the caps, each
/// after the one before it in canonical order. So what is pushed below is
/// already canonical, and a forged frame cannot make a guard that breaks
/// `Guard`'s invariants.
fn get_guard(r: &mut FrameReader<'_>) -> Result<Guard, FrameError> {
    let count = r.uv()?;
    let mut out = RunBuf::new();
    let mut prev: Option<Run> = None;
    let mut members: u64 = 0;
    for _ in 0..count {
        let process = ProcessId(r.uv32("process id")?);
        let incarnation = r.incarnation()?;
        let lo = r.uv32("fork index")?;
        let width = r.uv32("run width")?;
        let hi = lo
            .checked_add(width)
            .ok_or(FrameError::Overflow("run end"))?;
        let run = Run::new(process, incarnation, lo, hi);
        if let Some(prev) = prev {
            canonical_after(&prev, &run)?;
        }
        members += run.len() as u64;
        if members > MAX_GUARD_MEMBERS {
            return Err(FrameError::TooLarge {
                what: "guard members",
                value: members,
                max: MAX_GUARD_MEMBERS,
            });
        }
        out.push(run);
        prev = Some(run);
    }
    Ok(out.finish())
}

/// May `next` follow `prev` in a canonical guard: a later (process,
/// incarnation), or the same one past a gap?
fn canonical_after(prev: &Run, next: &Run) -> Result<(), FrameError> {
    let owner = |r: &Run| (r.process, r.incarnation);
    let what = match owner(prev).cmp(&owner(next)) {
        Ordering::Less => return Ok(()),
        Ordering::Equal if next.lo as u64 > prev.hi as u64 + 1 => return Ok(()),
        Ordering::Equal if next.lo as u64 == prev.hi as u64 + 1 => "runs touch",
        Ordering::Equal if next.lo >= prev.lo => "runs overlap",
        _ => "runs out of order",
    };
    Err(FrameError::NotCanonical(what))
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
    put_guard(buf, &e.guard);
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
    let guard = get_guard(r)?;
    let payload = get_value(r)?;
    let label: crate::message::Label = get_str(r)?.into();
    let link_seq = r.uv32("link seq")?;
    Ok(Envelope {
        id,
        from,
        from_thread,
        to,
        guard,
        table_acks: Vec::new(),
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
    let body = buf.get(4..4 + len).ok_or(FrameError::Truncated)?;
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
        Control::Precedence(g, guard) => {
            buf.push(2);
            put_guess(&mut buf, *g);
            put_guard(&mut buf, guard);
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
            Control::Precedence(g, get_guard(&mut r)?)
        }
        tag => {
            return Err(FrameError::BadTag {
                what: "control",
                tag,
            })
        }
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

    fn sample_envelope(guard: Guard) -> Envelope {
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
            table_acks: vec![],
            kind: DataKind::Call(CallId(1 << 40)),
            payload: Value::Record(std::sync::Arc::new(record)),
            label: "C7".into(),
            link_seq: 9,
        }
    }

    #[test]
    fn frame_roundtrips_envelope() {
        let e = sample_envelope(Guard::from_iter([g(0, 0, 1), g(0, 1, 3), g(2, 0, 2)]));
        let bytes = encode_frame(&e);
        let (back, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, e);
    }

    #[test]
    fn a_stream_tag_is_one_run_on_the_wire() {
        let short = encode_frame(&sample_envelope(streaming_guard(2)));
        let deep = encode_frame(&sample_envelope(streaming_guard(100)));
        // Only the width varint grows: 1 → 99 still fits one byte.
        assert_eq!(deep.len(), short.len());
        let (back, _) = decode_frame(&deep).unwrap();
        assert_eq!(back.guard, streaming_guard(100));
    }

    #[test]
    fn control_frames_roundtrip() {
        for c in [
            Control::Commit(g(1, 2, 3)),
            Control::Abort(g(0, 0, 1)),
            Control::Precedence(g(2, 1, 4), Guard::from_iter([g(0, 0, 1), g(1, 0, 2)])),
        ] {
            let bytes = encode_control_frame(&c);
            let (back, used) = decode_control_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, c);
        }
    }

    #[test]
    fn every_truncation_offset_errors_without_panicking() {
        let e = sample_envelope(streaming_guard(3));
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
        let mut bytes = encode_frame(&sample_envelope(Guard::empty()));
        bytes[..4].copy_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Oversized { .. })
        ));

        let mut bytes = encode_frame(&sample_envelope(Guard::empty()));
        bytes[4] = 1;
        assert_eq!(decode_frame(&bytes), Err(FrameError::UnknownVersion(1)));
    }

    #[test]
    fn trailing_bytes_inside_declared_length_are_rejected() {
        let mut bytes = encode_frame(&sample_envelope(Guard::empty()));
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
        // Body claiming 2^40 runs but ending immediately: must be a clean
        // Truncated, not an allocation attempt.
        let mut bytes = vec![0, 0, 0, 0, FRAME_VERSION];
        put_uvarint(&mut bytes, 1); // id
        put_uvarint(&mut bytes, 0); // from
        put_uvarint(&mut bytes, 0); // from_thread
        put_uvarint(&mut bytes, 1); // to
        bytes.push(0); // kind = Send
        put_uvarint(&mut bytes, 1 << 40); // hostile run count
        seal_frame_len(&mut bytes);
        assert_eq!(decode_frame(&bytes), Err(FrameError::Truncated));

        // A chain of nested single-element lists past the depth cap.
        let mut bytes = vec![0, 0, 0, 0, FRAME_VERSION];
        put_uvarint(&mut bytes, 1);
        put_uvarint(&mut bytes, 0);
        put_uvarint(&mut bytes, 0);
        put_uvarint(&mut bytes, 1);
        bytes.push(0); // Send
        put_uvarint(&mut bytes, 0); // empty guard
        for _ in 0..200 {
            bytes.push(4); // list
            put_uvarint(&mut bytes, 1);
        }
        bytes.push(0); // innermost unit
        put_uvarint(&mut bytes, 0); // label len
        put_uvarint(&mut bytes, 0); // link_seq
        seal_frame_len(&mut bytes);
        assert_eq!(decode_frame(&bytes), Err(FrameError::TooDeep));
    }
}
