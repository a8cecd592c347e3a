//! Property tests for the binary frame codec (`core::wire`, DESIGN.md
//! §13): `decode(encode(e)) == e` across both guard codecs, truncation at
//! every byte offset is a clean `Err`, no malformed or corrupted input can
//! panic the decoder — and whatever does decode, however hostile its
//! numbers, goes through arrival, delivery and resolution in a process
//! core without a panic and without taking the time or memory its numbers
//! would suggest.

use opcsp_core::{
    decode_control_frame, decode_frame, encode_control_frame, encode_frame, ArrivalVerdict, CallId,
    CompactGuard, Control, CoreConfig, DataKind, Envelope, FrameError, Guard, GuardCodec, GuessId,
    Incarnation, MsgId, ProcessCore, ProcessId, Span, TableRow, Value, WireGuard,
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

fn arb_rows() -> impl Strategy<Value = Vec<TableRow>> {
    proptest::collection::vec(
        (0u32..5, 1u32..4, 0u32..16).prop_map(|(p, i, s)| TableRow {
            process: ProcessId(p),
            incarnation: Incarnation(i),
            start: s,
        }),
        0..6,
    )
}

/// Either wire encoding, driven by one strategy so every property runs
/// across both codecs.
fn arb_wire_guard() -> impl Strategy<Value = WireGuard> {
    (arb_guard(), arb_rows(), 0u8..2).prop_map(|(g, rows, codec)| {
        if codec == 0 {
            WireGuard::Full(g)
        } else {
            WireGuard::Compact {
                guard: CompactGuard::compress(&g),
                rows,
            }
        }
    })
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
    let tag = if depth >= 3 { mix.below(4) } else { mix.below(6) };
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
            Value::List(Arc::new((0..n).map(|_| build_value(mix, depth + 1)).collect()))
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
        arb_wire_guard(),
        arb_rows(),
        0u8..3,
        arb_value(),
        0u64..4,
    )
        .prop_map(
            |((id, from, from_thread, to, link_seq), guard, table_acks, kind, payload, call)| {
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
                    table_acks,
                    kind,
                    payload,
                    label: "C1".into(),
                    link_seq,
                }
            },
        )
}

fn arb_control() -> impl Strategy<Value = Control> {
    (0u8..3, arb_guess(), arb_wire_guard()).prop_map(|(tag, g, wg)| match tag {
        0 => Control::Commit(g),
        1 => Control::Abort(g),
        _ => Control::Precedence(g, wg),
    })
}

/// A number picked where decoders and index arithmetic break: small (so
/// fields collide), just past each decode cap, at the top of the field, or
/// anywhere.
fn hostile_u32() -> impl Strategy<Value = u32> {
    (0u8..9, 0u32..24, any::<u32>()).prop_map(|(class, small, wild)| match class {
        0..=3 => small,
        4 => MAX_GUARD_MEMBERS as u32 + small,
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

fn hostile_rows() -> impl Strategy<Value = Vec<TableRow>> {
    proptest::collection::vec(
        (hostile_guess(), hostile_u32()).prop_map(|(g, start)| TableRow {
            process: g.process,
            incarnation: g.incarnation,
            start,
        }),
        0..4,
    )
}

fn hostile_wire_guard() -> impl Strategy<Value = WireGuard> {
    let guesses = proptest::collection::vec(hostile_guess(), 0..6);
    let floors = proptest::collection::vec(hostile_u32(), 6..7);
    (guesses, floors, hostile_rows(), any::<bool>()).prop_map(|(guesses, floors, rows, full)| {
        if full {
            return WireGuard::Full(guesses.into_iter().collect());
        }
        let spans = guesses.into_iter().zip(floors).map(|(latest, floor)| Span {
            latest,
            // Mostly a few below the latest guess, sometimes anywhere.
            floor: if floor < 24 {
                latest.index.saturating_sub(floor)
            } else {
                floor
            },
        });
        WireGuard::Compact {
            guard: CompactGuard::from_spans(spans),
            rows,
        }
    })
}

/// Whatever `bytes` decode to — a data frame, a control frame — is taken
/// in by a process core the way an engine would: orphan check, delivery,
/// a send under the resulting guard, and a COMMIT, an ABORT and a
/// PRECEDENCE about the guesses it named and about the core's own. No step
/// may panic, and the lot
/// must be done in seconds, not in the minutes a member-by-member walk of
/// a forged span would take.
fn survives_a_process_core(bytes: &[u8]) {
    const ME: ProcessId = ProcessId(1);
    let started = Instant::now();
    for codec in [GuardCodec::Full, GuardCodec::Compact] {
        let cfg = CoreConfig {
            codec,
            ..CoreConfig::default()
        };
        let mut core = ProcessCore::new(ME, cfg);
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
        core.deliver(third.left_thread, &envelope_under(foreign.into()));
        core.join_left_done(third.guess, true);
        let mut named: Vec<(GuessId, Guard)> = Vec::new();
        if let Ok((mut env, _)) = decode_frame(bytes) {
            if core.classify_arrival(&mut env) == ArrivalVerdict::Ok {
                for thread in Vec::from_iter(core.threads.keys().copied()) {
                    let _ = core.choose_delivery(thread, &[&env]);
                    let _ = core.return_depends_on_future(thread, &env);
                }
                let thread = core.max_thread;
                core.deliver(thread, &env);
                let _ = core.encode_for_send(thread, env.from);
            }
            if !env.guard.is_compact() {
                let guard = env.guard().clone();
                let ends = guard.runs().iter().flat_map(|r| [r.first(), r.last()]);
                named.extend(ends.take(6).map(|g| (g, guard.clone())));
            }
        }
        if let Ok((ctrl, _)) = decode_control_frame(bytes) {
            match ctrl {
                Control::Commit(g) | Control::Abort(g) => named.push((g, Guard::single(g))),
                Control::Precedence(g, wire) => named.push((g, core.decode_control_guard(&wire))),
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
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(30), "took {took:?}");
}

fn envelope_under(guard: WireGuard) -> Envelope {
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
    /// `decode(encode(e)) == e`, exactly, across both guard codecs, and
    /// the decoder consumes exactly the frame it was given.
    #[test]
    fn envelope_roundtrip(e in arb_envelope()) {
        let bytes = encode_frame(&e);
        let (back, used) = decode_frame(&bytes).expect("valid frame must decode");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, e);
    }

    /// Control frames round-trip across both guard codecs too.
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
    /// that are well-formed around forged numbers: guesses, spans, rows and
    /// control subjects with fields at and beyond every cap and at the top
    /// of their width.
    #[test]
    fn garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        forged in hostile_wire_guard(),
        acks in hostile_rows(),
        subject in hostile_guess(),
        kind in 0u8..3,
    ) {
        survives_a_process_core(&bytes);
        let mut env = envelope_under(forged.clone());
        env.table_acks = acks;
        env.kind = match kind {
            0 => DataKind::Send,
            1 => DataKind::Call(CallId(1)),
            _ => DataKind::Return(CallId(1)),
        };
        survives_a_process_core(&encode_frame(&env));
        for ctrl in [Control::Commit(subject), Control::Abort(subject), Control::Precedence(subject, forged)] {
            survives_a_process_core(&encode_control_frame(&ctrl));
        }
    }
}

/// A compact span stands for every fork index from its floor to its latest
/// guess, so a frame of a few bytes can claim millions of members. The
/// decoder lets through exactly what a full tag of `MAX_FRAME_BYTES` could
/// list, and what it lets through costs the receiver a run, not a walk.
#[test]
fn span_width_and_incarnation_cap_boundaries() {
    let frame = |latest: GuessId, floor: u32| {
        let spans = [Span { latest, floor }];
        let guard = WireGuard::Compact {
            guard: CompactGuard::from_spans(spans),
            rows: vec![],
        };
        encode_frame(&envelope_under(guard))
    };
    let x = |n: u32| GuessId::first(ProcessId(0), n);
    let cap = MAX_GUARD_MEMBERS as u32;
    let too_large = |members: u64| {
        Err(FrameError::TooLarge {
            what: "guard members",
            value: members,
            max: MAX_GUARD_MEMBERS,
        })
    };

    // Exactly at the cap: decodes, and arrival processing is immediate.
    let bytes = frame(x(cap), 1);
    assert!(bytes.len() < 40, "{} bytes", bytes.len());
    let (mut env, used) = decode_frame(&bytes).expect("a span of exactly the cap decodes");
    assert_eq!(used, bytes.len());
    let started = Instant::now();
    let mut core = ProcessCore::new(ProcessId(1), CoreConfig::default());
    assert_eq!(core.classify_arrival(&mut env), ArrivalVerdict::Ok);
    assert_eq!(
        core.live_new_guard_count(0, env.guard(), usize::MAX),
        cap as usize
    );
    assert_eq!(core.guard_depends_on_future(0, env.guard()), None);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "took {:?}",
        started.elapsed()
    );
    assert_eq!(
        (env.guard().len(), env.guard().runs().len()),
        (cap as usize, 1)
    );
    assert!(env.guard().wire_size() <= opcsp_core::MAX_FRAME_BYTES);

    // One more member, the 20 M-member frame of the bug report, and the
    // whole index space: refused, with the count that was claimed.
    assert_eq!(
        decode_frame(&frame(x(cap + 1), 1)).map(|_| ()),
        too_large(cap as u64 + 1)
    );
    assert_eq!(
        decode_frame(&frame(x(20_000_000), 1)).map(|_| ()),
        too_large(20_000_000)
    );
    assert_eq!(
        decode_frame(&frame(x(u32::MAX), 0)).map(|_| ()),
        too_large(1 << 32)
    );
    // The cap is on the guard, not on each span.
    let spans = (0..3).map(|p| Span {
        latest: GuessId::first(ProcessId(p), cap / 2),
        floor: 1,
    });
    let wide = WireGuard::Compact {
        guard: CompactGuard::from_spans(spans),
        rows: vec![],
    };
    let refused = decode_frame(&encode_frame(&envelope_under(wide)));
    assert!(matches!(
        refused,
        Err(FrameError::TooLarge {
            what: "guard members",
            ..
        })
    ));
    // A narrow span at the top of the index space is fine.
    assert!(decode_frame(&frame(x(u32::MAX), u32::MAX - 3)).is_ok());

    // Incarnations: tables, row collection and expansion all cost
    // O(incarnation), so a guess or row past what any frame's rows could
    // describe is refused wherever it appears.
    let at = |i: u64| GuessId::new(ProcessId(0), Incarnation(i as u32), 5);
    let refused = Err(FrameError::TooLarge {
        what: "incarnation",
        value: MAX_INCARNATION + 1,
        max: MAX_INCARNATION,
    });
    let full = |g: GuessId| encode_frame(&envelope_under(Guard::single(g).into()));
    assert!(decode_frame(&full(at(MAX_INCARNATION))).is_ok());
    assert_eq!(
        decode_frame(&full(at(MAX_INCARNATION + 1))).map(|_| ()),
        refused
    );
    assert_eq!(
        decode_frame(&frame(at(MAX_INCARNATION + 1), 5)).map(|_| ()),
        refused
    );
    let commit = encode_control_frame(&Control::Commit(at(MAX_INCARNATION + 1)));
    assert_eq!(decode_control_frame(&commit).map(|_| ()), refused);
    let mut acked = envelope_under(Guard::empty().into());
    acked.table_acks = vec![TableRow {
        process: ProcessId(0),
        incarnation: Incarnation(MAX_INCARNATION as u32 + 1),
        start: 0,
    }];
    assert_eq!(decode_frame(&encode_frame(&acked)).map(|_| ()), refused);
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
