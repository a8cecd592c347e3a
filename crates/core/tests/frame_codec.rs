//! Property tests for the binary frame codec (`core::wire`, DESIGN.md
//! §13): `decode(encode(e)) == e`, truncation at every byte offset is a
//! clean `Err`, no malformed or corrupted input can panic the decoder, a
//! guard decodes exactly when its runs are ones an encoder writes — and
//! whatever does decode, however hostile its numbers, goes through arrival,
//! delivery and resolution in a process core without a panic and without
//! taking the time or memory its numbers would suggest.

use opcsp_core::{
    decode_control_frame, decode_frame, encode_control_frame, encode_frame, put_uvarint, put_value,
    seal_frame_len, ArrivalVerdict, CallId, Control, CoreConfig, DataKind, Envelope, FrameError,
    Guard, GuessId, Incarnation, MsgId, ProcessCore, ProcessId, Value, FRAME_VERSION,
    MAX_GUARD_MEMBERS, MAX_INCARNATION,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn arb_guess() -> impl Strategy<Value = GuessId> {
    (0u32..5, 0u32..4, 0u32..16).prop_map(|(p, i, n)| GuessId {
        process: ProcessId(p),
        incarnation: Incarnation(i),
        index: n,
    })
}

fn arb_guard() -> impl Strategy<Value = Guard> {
    proptest::collection::btree_set(arb_guess(), 0..10).prop_map(|s| s.into_iter().collect())
}

/// Deterministic splitmix64 — the vendored proptest stub has no recursive
/// strategies, so `Value` trees grow from a single seeded stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn build_value(mix: &mut Mix, depth: u32) -> Value {
    let tag = if depth >= 3 {
        mix.below(4)
    } else {
        mix.below(6)
    };
    match tag {
        0 => Value::Unit,
        1 => Value::Bool(mix.below(2) == 1),
        2 => Value::Int(mix.next() as i64),
        3 => {
            let pool = ["", "a", "héllo", "line\nbreak", "日本語", "x\"y\\z"];
            Value::Str(pool[mix.below(pool.len() as u64) as usize].into())
        }
        4 => {
            let n = mix.below(4);
            Value::List(Arc::new(
                (0..n).map(|_| build_value(mix, depth + 1)).collect(),
            ))
        }
        _ => {
            let n = mix.below(3);
            let mut fields = BTreeMap::new();
            for i in 0..n {
                fields.insert(format!("k{i}"), build_value(mix, depth + 1));
            }
            Value::Record(Arc::new(fields))
        }
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    (0u64..u64::MAX).prop_map(|seed| build_value(&mut Mix(seed), 0))
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        (any::<u64>(), 0u32..5, 0u32..8, 0u32..5, any::<u32>()),
        arb_guard(),
        0u8..3,
        arb_value(),
        0u64..4,
    )
        .prop_map(
            |((id, from, from_thread, to, link_seq), guard, kind, payload, call)| {
                let kind = match kind {
                    0 => DataKind::Send,
                    1 => DataKind::Call(CallId(call)),
                    _ => DataKind::Return(CallId(call)),
                };
                Envelope {
                    id: MsgId(id),
                    from: ProcessId(from),
                    from_thread,
                    to: ProcessId(to),
                    guard,
                    table_acks: vec![],
                    kind,
                    payload,
                    label: "C1".into(),
                    link_seq,
                }
            },
        )
}

fn arb_control() -> impl Strategy<Value = Control> {
    (0u8..3, arb_guess(), arb_guard()).prop_map(|(tag, g, guard)| match tag {
        0 => Control::Commit(g),
        1 => Control::Abort(g),
        _ => Control::Precedence(g, guard),
    })
}

/// A number picked where decoders and index arithmetic break: small (so
/// fields collide), just past each decode cap, at the top of the field, or
/// anywhere.
fn hostile_u32() -> impl Strategy<Value = u32> {
    (0u8..9, 0u32..24, any::<u32>()).prop_map(|(class, small, wild)| match class {
        0..=3 => small,
        4 => MAX_GUARD_MEMBERS as u32 + small - 12,
        5 => MAX_INCARNATION as u32 - 12 + small,
        6 | 7 => u32::MAX - small,
        _ => wild,
    })
}

fn hostile_guess() -> impl Strategy<Value = GuessId> {
    (0u8..4, hostile_u32(), hostile_u32(), hostile_u32()).prop_map(|(own, p, i, n)| GuessId {
        // Often the receiving process itself, or its one peer.
        process: ProcessId(if own < 3 { own as u32 % 2 } else { p }),
        incarnation: Incarnation(i),
        index: n,
    })
}

/// A run as the wire spells it, whatever its numbers: process,
/// incarnation, lo, and the width `hi − lo`.
type RawRun = (u32, u32, u32, u32);

/// What a decoder must accept: runs an encoder could have written — each
/// within the incarnation cap and the index space, the widths summing to
/// at most the member cap, and each after the one before in canonical
/// order (a later (process, incarnation), or the same one past a gap).
fn encodable(runs: &[RawRun]) -> bool {
    let mut members = 0u64;
    let each = runs.iter().all(|&(_, i, lo, width)| {
        members += width as u64 + 1;
        i as u64 <= MAX_INCARNATION && lo.checked_add(width).is_some()
    });
    let ordered = runs.windows(2).all(|w| {
        let ((p, i, lo, width), (q, j, next, _)) = (w[0], w[1]);
        (p, i) < (q, j) || ((p, i) == (q, j) && next as u64 > lo as u64 + width as u64 + 1)
    });
    each && ordered && members <= MAX_GUARD_MEMBERS
}

/// Hostile run lists in every shape a decoder must tell apart: canonical
/// (with numbers at and past every cap), unsorted, overlapping, touching,
/// and running past the end of the index space.
fn hostile_runs() -> impl Strategy<Value = Vec<RawRun>> {
    let incarnation = (0u8..8, 0u32..3, hostile_u32()).prop_map(|(class, small, i)| match class {
        0..=4 => small,
        5 => MAX_INCARNATION as u32 - 1 + small,
        _ => i,
    });
    let width = (0u8..4, hostile_u32()).prop_map(|(class, w)| match class {
        0 | 1 => w % 8,
        _ => w,
    });
    let run = (0u32..3, incarnation, hostile_u32(), width);
    (proptest::collection::vec(run, 0..6), 0u8..6).prop_map(|(mut raw, shape)| {
        raw.sort_unstable();
        if shape < 3 {
            // Canonical: keep each run only where it fits.
            let mut kept: Vec<RawRun> = Vec::new();
            for run in raw {
                if kept.last().is_none_or(|&last| encodable(&[last, run])) {
                    kept.push(run);
                }
            }
            return kept;
        }
        if let [first, second, ..] = raw.as_mut_slice() {
            let (p, i, lo, width) = *first;
            *second = match shape {
                3 => (p, i, lo.saturating_add(width).saturating_add(1), second.3),
                4 => (p, i, lo, second.3),
                _ => *second,
            };
        }
        if shape == 5 {
            raw.reverse();
        }
        raw
    })
}

fn put_raw_guard(buf: &mut Vec<u8>, runs: &[RawRun]) {
    put_uvarint(buf, runs.len() as u64);
    for &(p, i, lo, width) in runs {
        for field in [p, i, lo, width] {
            put_uvarint(buf, field as u64);
        }
    }
}

/// A data frame from process 0 to process 1 whose tag is `runs`, written
/// field by field the way `encode_frame` lays an envelope out.
fn forged_frame(runs: &[RawRun], kind: DataKind) -> Vec<u8> {
    let mut buf = vec![0, 0, 0, 0, FRAME_VERSION];
    for field in [7, 0, 0, 1] {
        put_uvarint(&mut buf, field); // id, from, from_thread, to
    }
    match kind {
        DataKind::Send => buf.push(0),
        DataKind::Call(c) => {
            buf.push(1);
            put_uvarint(&mut buf, c.0);
        }
        DataKind::Return(c) => {
            buf.push(2);
            put_uvarint(&mut buf, c.0);
        }
    }
    put_raw_guard(&mut buf, runs);
    put_value(&mut buf, &Value::Unit);
    put_uvarint(&mut buf, 1);
    buf.push(b'M');
    put_uvarint(&mut buf, 0); // link_seq
    seal_frame_len(&mut buf);
    buf
}

/// A PRECEDENCE frame about `subject` whose guard is `runs`.
fn forged_precedence(subject: GuessId, runs: &[RawRun]) -> Vec<u8> {
    let mut buf = vec![0, 0, 0, 0, FRAME_VERSION, 2];
    for field in [subject.process.0, subject.incarnation.0, subject.index] {
        put_uvarint(&mut buf, field as u64);
    }
    put_raw_guard(&mut buf, runs);
    seal_frame_len(&mut buf);
    buf
}

/// Whatever `bytes` decode to — a data frame, a control frame — is taken
/// in by a process core the way an engine would: orphan check, delivery,
/// a send under the resulting guard, and a COMMIT, an ABORT and a
/// PRECEDENCE about the guesses it named and about the core's own. No step
/// may panic, and the lot must be done in seconds, not in the minutes a
/// member-by-member walk of a forged run would take.
fn survives_a_process_core(bytes: &[u8]) {
    const ME: ProcessId = ProcessId(1);
    let started = Instant::now();
    let mut core = ProcessCore::new(ME, CoreConfig::default());
    // Own guesses for forged tags and control to name, in a pipeline:
    // one pending; one aborted; an incarnation later, one pending
    // whose left thread is the first one's right thread; and one
    // awaiting a foreign guess.
    let first = core.fork(0, 1);
    let faulty = core.fork(first.right_thread, 2);
    core.join_left_done(faulty.guess, false);
    let second = core.fork(first.right_thread, 2);
    let third = core.fork(second.right_thread, 3);
    let foreign = Guard::single(GuessId::first(ProcessId(0), 1));
    core.deliver(third.left_thread, &envelope_under(foreign));
    core.join_left_done(third.guess, true);
    let mut named: Vec<(GuessId, Guard)> = Vec::new();
    if let Ok((env, _)) = decode_frame(bytes) {
        if core.classify_arrival(&env) == ArrivalVerdict::Ok {
            for thread in Vec::from_iter(core.threads.keys().copied()) {
                let _ = core.choose_delivery(thread, &[&env]);
                let _ = core.return_depends_on_future(thread, &env);
            }
            let thread = core.max_thread;
            core.deliver(thread, &env);
            let _ = core.guard_for_send(thread);
        }
        let ends = env.guard.runs().iter().flat_map(|r| [r.first(), r.last()]);
        named.extend(ends.take(6).map(|g| (g, env.guard.clone())));
    }
    if let Ok((ctrl, _)) = decode_control_frame(bytes) {
        match ctrl {
            Control::Commit(g) | Control::Abort(g) => named.push((g, Guard::single(g))),
            Control::Precedence(g, guard) => named.push((g, guard)),
        }
    }
    // Forged control is most dangerous about the receiver's own guesses.
    let tag = named
        .first()
        .map_or_else(Guard::empty, |(_, guard)| guard.clone());
    named.extend(core.own.keys().map(|g| (*g, tag.clone())));
    for (g, guard) in named {
        // PRECEDENCE is per member by nature (one CDG edge each); the
        // decode cap bounds it, the fuzz keeps it to guards it can
        // afford 64 times over.
        if guard.len() <= 4096 {
            let _ = core.on_precedence(g, &guard);
        }
        let _ = core.on_commit(g);
        let _ = core.on_abort(g);
    }
    let _ = core.speculation_quiescent();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(30), "took {took:?}");
}

fn envelope_under(guard: Guard) -> Envelope {
    Envelope {
        id: MsgId(7),
        from: ProcessId(0),
        from_thread: 0,
        to: ProcessId(1),
        guard,
        table_acks: vec![],
        kind: DataKind::Send,
        payload: Value::Unit,
        label: "M".into(),
        link_seq: 0,
    }
}

proptest! {
    /// `decode(encode(e)) == e`, exactly, and the decoder consumes exactly
    /// the frame it was given.
    #[test]
    fn envelope_roundtrip(e in arb_envelope()) {
        let bytes = encode_frame(&e);
        let (back, used) = decode_frame(&bytes).expect("valid frame must decode");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, e);
    }

    /// Control frames round-trip too.
    #[test]
    fn control_roundtrip(c in arb_control()) {
        let bytes = encode_control_frame(&c);
        let (back, used) = decode_control_frame(&bytes).expect("valid frame must decode");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, c);
    }

    /// Truncation at every byte offset must return `Err` — never a panic,
    /// never a bogus `Ok`.
    #[test]
    fn every_prefix_is_a_clean_error(e in arb_envelope()) {
        let bytes = encode_frame(&e);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
        }
    }

    /// Single-byte corruption anywhere in a valid frame must not panic
    /// (it may decode to a different envelope or error — both are fine).
    #[test]
    fn corrupted_frames_never_panic(e in arb_envelope(), pos in 0usize..4096, bit in 0u8..8) {
        let mut bytes = encode_frame(&e);
        let idx = pos % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = decode_frame(&bytes);
        let _ = decode_control_frame(&bytes);
    }

    /// Arbitrary garbage must not panic the decoder either — nor, should it
    /// decode, the process core that takes it in. Random bytes rarely get
    /// past the length prefix, so the same pipeline also runs on frames
    /// that are well-formed around forged runs: unsorted, overlapping,
    /// touching, past the index space, and with widths, incarnations and
    /// control subjects at and beyond every cap and at the top of their
    /// width. A forged tag decodes exactly when an encoder could have
    /// written it, and then to exactly its runs.
    #[test]
    fn garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        forged in hostile_runs(),
        subject in hostile_guess(),
        kind in 0u8..3,
    ) {
        survives_a_process_core(&bytes);
        let kind = match kind {
            0 => DataKind::Send,
            1 => DataKind::Call(CallId(1)),
            _ => DataKind::Return(CallId(1)),
        };
        let frame = forged_frame(&forged, kind);
        match decode_frame(&frame) {
            Ok((env, _)) => {
                prop_assert!(encodable(&forged), "accepted {:?}", forged);
                let runs = env.guard.runs().iter().map(|r| (r.process.0, r.incarnation.0, r.lo, r.hi - r.lo));
                prop_assert!(runs.eq(forged.iter().copied()));
                prop_assert_eq!(encode_frame(&env), frame.clone());
            }
            Err(e) => prop_assert!(!encodable(&forged), "refused {:?}: {}", forged, e),
        }
        survives_a_process_core(&frame);
        for ctrl in [Control::Commit(subject), Control::Abort(subject)] {
            survives_a_process_core(&encode_control_frame(&ctrl));
        }
        survives_a_process_core(&forged_precedence(subject, &forged));
    }
}

/// A run stands for every fork index from its `lo` to its `hi`, so a frame
/// of a few bytes can claim millions of members. The decoder lets through
/// exactly what a member-by-member list of `MAX_FRAME_BYTES` could hold,
/// and what it lets through costs the receiver a run, not a walk.
#[test]
fn run_width_and_incarnation_cap_boundaries() {
    let frame = |runs: &[RawRun]| forged_frame(runs, DataKind::Send);
    let cap = MAX_GUARD_MEMBERS as u32;
    let too_large = |members: u64| {
        Err(FrameError::TooLarge {
            what: "guard members",
            value: members,
            max: MAX_GUARD_MEMBERS,
        })
    };

    // Exactly at the cap: decodes, and arrival processing is immediate.
    let bytes = frame(&[(0, 0, 1, cap - 1)]);
    assert!(bytes.len() < 40, "{} bytes", bytes.len());
    let (env, used) = decode_frame(&bytes).expect("a run of exactly the cap decodes");
    assert_eq!(used, bytes.len());
    let started = Instant::now();
    let mut core = ProcessCore::new(ProcessId(1), CoreConfig::default());
    assert_eq!(core.classify_arrival(&env), ArrivalVerdict::Ok);
    assert_eq!(
        core.live_new_guard_count(0, &env.guard, usize::MAX),
        cap as usize
    );
    assert_eq!(core.guard_depends_on_future(0, &env.guard), None);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "took {:?}",
        started.elapsed()
    );
    assert_eq!((env.guard.len(), env.guard.runs().len()), (cap as usize, 1));
    assert!(env.guard.wire_size() <= opcsp_core::MAX_FRAME_BYTES);

    // One more member, the 20 M-member frame of the bug report, and the
    // whole index space: refused, with the count that was claimed.
    assert_eq!(
        decode_frame(&frame(&[(0, 0, 1, cap)])).map(|_| ()),
        too_large(cap as u64 + 1)
    );
    assert_eq!(
        decode_frame(&frame(&[(0, 0, 1, 19_999_999)])).map(|_| ()),
        too_large(20_000_000)
    );
    assert_eq!(
        decode_frame(&frame(&[(0, 0, 0, u32::MAX)])).map(|_| ()),
        too_large(1 << 32)
    );
    // The cap is on the guard, not on each run.
    let wide: Vec<RawRun> = (0..3).map(|p| (p, 0, 1, cap / 2)).collect();
    assert!(matches!(
        decode_frame(&frame(&wide)),
        Err(FrameError::TooLarge {
            what: "guard members",
            ..
        })
    ));
    // A narrow run at the top of the index space is fine.
    assert!(decode_frame(&frame(&[(0, 0, u32::MAX - 3, 3)])).is_ok());

    // Incarnations: the receiver's table is dense in them, so a guess or a
    // run past the cap is refused wherever it appears.
    let at = |i: u64| GuessId::new(ProcessId(0), Incarnation(i as u32), 5);
    let refused = Err(FrameError::TooLarge {
        what: "incarnation",
        value: MAX_INCARNATION + 1,
        max: MAX_INCARNATION,
    });
    let single = |g: GuessId| encode_frame(&envelope_under(Guard::single(g)));
    assert!(decode_frame(&single(at(MAX_INCARNATION))).is_ok());
    assert_eq!(
        decode_frame(&single(at(MAX_INCARNATION + 1))).map(|_| ()),
        refused
    );
    let over = MAX_INCARNATION as u32 + 1;
    assert_eq!(
        decode_frame(&frame(&[(0, over, 5, 4)])).map(|_| ()),
        refused
    );
    let commit = encode_control_frame(&Control::Commit(at(MAX_INCARNATION + 1)));
    assert_eq!(decode_control_frame(&commit).map(|_| ()), refused);
    let precedence = forged_precedence(GuessId::first(ProcessId(1), 1), &[(0, over, 5, 0)]);
    assert_eq!(decode_control_frame(&precedence).map(|_| ()), refused);
}

/// One refusal, in a data frame and in a PRECEDENCE frame alike, next to
/// the nearest run list that is accepted.
fn refuses(bad: &[RawRun], good: &[RawRun], error: FrameError) {
    assert!(decode_frame(&forged_frame(good, DataKind::Send)).is_ok());
    assert_eq!(
        decode_frame(&forged_frame(bad, DataKind::Send)).map(|_| ()),
        Err(error)
    );
    let subject = GuessId::first(ProcessId(1), 1);
    assert!(decode_control_frame(&forged_precedence(subject, good)).is_ok());
    assert_eq!(
        decode_control_frame(&forged_precedence(subject, bad)).map(|_| ()),
        Err(error)
    );
}

#[test]
fn runs_out_of_order_are_refused() {
    refuses(
        &[(1, 0, 1, 2), (0, 0, 1, 2)],
        &[(0, 0, 1, 2), (1, 0, 1, 2)],
        FrameError::NotCanonical("runs out of order"),
    );
    // Within one incarnation too, and across incarnations of a process.
    refuses(
        &[(0, 0, 9, 0), (0, 0, 1, 2)],
        &[(0, 0, 1, 2), (0, 0, 9, 0)],
        FrameError::NotCanonical("runs out of order"),
    );
    refuses(
        &[(0, 1, 1, 0), (0, 0, 5, 0)],
        &[(0, 0, 5, 0), (0, 1, 1, 0)],
        FrameError::NotCanonical("runs out of order"),
    );
}

#[test]
fn overlapping_runs_are_refused() {
    refuses(
        &[(0, 0, 1, 4), (0, 0, 3, 4)],
        &[(0, 0, 1, 0), (0, 0, 3, 4)],
        FrameError::NotCanonical("runs overlap"),
    );
    // A run listed twice overlaps itself.
    refuses(
        &[(0, 0, 1, 0), (0, 0, 1, 0)],
        &[(0, 0, 1, 0)],
        FrameError::NotCanonical("runs overlap"),
    );
}

#[test]
fn touching_runs_are_refused() {
    // x1..x3 and x4..x5 are one run, x1..x5: only that spelling decodes.
    refuses(
        &[(0, 0, 1, 2), (0, 0, 4, 1)],
        &[(0, 0, 1, 4)],
        FrameError::NotCanonical("runs touch"),
    );
}

#[test]
fn a_run_past_the_index_space_is_refused() {
    // `hi = lo + width` must be a fork index: a run cannot end below where
    // it starts by wrapping around.
    refuses(
        &[(0, 0, u32::MAX - 3, 4)],
        &[(0, 0, u32::MAX - 3, 3)],
        FrameError::Overflow("run end"),
    );
}

#[test]
fn run_width_over_the_member_cap_is_refused() {
    let cap = MAX_GUARD_MEMBERS as u32;
    refuses(
        &[(0, 0, 1, cap - 3), (1, 0, 1, 2)],
        &[(0, 0, 1, cap - 3), (1, 0, 1, 1)],
        FrameError::TooLarge {
            what: "guard members",
            value: MAX_GUARD_MEMBERS + 1,
            max: MAX_GUARD_MEMBERS,
        },
    );
}

#[test]
fn incarnation_over_the_cap_is_refused() {
    let cap = MAX_INCARNATION as u32;
    refuses(
        &[(0, 0, 1, 0), (0, cap + 1, 1, 0)],
        &[(0, 0, 1, 0), (0, cap, 1, 0)],
        FrameError::TooLarge {
            what: "incarnation",
            value: MAX_INCARNATION + 1,
            max: MAX_INCARNATION,
        },
    );
}

/// Cap-boundary behavior of the shared length-prefix parser: every wire
/// (in-proc frames and the socket transport) must agree on exactly where
/// the 16 MiB cap bites and that a zero length is truncation, not an
/// empty frame.
#[test]
fn frame_len_cap_boundaries() {
    use opcsp_core::{parse_frame_len, seal_frame_len, FrameError, MAX_FRAME_BYTES};

    let header = |len: usize| (len as u32).to_le_bytes();
    assert_eq!(parse_frame_len(header(1)), Ok(1));
    assert_eq!(
        parse_frame_len(header(MAX_FRAME_BYTES)),
        Ok(MAX_FRAME_BYTES),
        "exactly at the cap is legal"
    );
    assert_eq!(
        parse_frame_len(header(MAX_FRAME_BYTES + 1)),
        Err(FrameError::Oversized {
            len: MAX_FRAME_BYTES + 1,
            max: MAX_FRAME_BYTES
        }),
        "one past the cap is rejected before any allocation"
    );
    assert_eq!(
        parse_frame_len(header(0)),
        Err(FrameError::Truncated),
        "a zero length prefix is a truncated frame"
    );

    // seal/parse agree: whatever seal writes, parse reads back.
    let mut frame = vec![0u8; 4 + 123];
    seal_frame_len(&mut frame);
    assert_eq!(parse_frame_len(frame[..4].try_into().unwrap()), Ok(123));
}
