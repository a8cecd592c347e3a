//! The guard encoding against its reference model. A frame writes a guard
//! as its runs (`core::wire`); the member-by-member list it replaced — a
//! count, then (process, incarnation, index) per guess — is kept here, test
//! side, as the model: for every guard, the frame round-trips exactly and
//! the receiver reads the same members the list would have told it. The
//! randomized workloads then run the one encoding end to end against the
//! pessimistic baseline (Theorem 1, conservation, externals).

use opcsp_core::{
    decode_control_frame, decode_frame, encode_control_frame, encode_frame, put_uvarint, CallId,
    Control, DataKind, Envelope, FrameReader, Guard, GuessId, Incarnation, MsgId, ProcessId, Value,
};
use opcsp_sim::{check_conservation, check_equivalence, SimResult, TraceEvent};
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::streaming::{StreamingOpts, TallyOpts};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The member-list layout: `count uv, count × (process uv, incarnation uv,
/// index uv)`.
fn encode_members(guard: &Guard) -> Vec<u8> {
    let mut buf = Vec::new();
    put_uvarint(&mut buf, guard.len() as u64);
    for g in guard.iter() {
        put_uvarint(&mut buf, g.process.0 as u64);
        put_uvarint(&mut buf, g.incarnation.0 as u64);
        put_uvarint(&mut buf, g.index as u64);
    }
    buf
}

fn decode_members(bytes: &[u8]) -> Vec<GuessId> {
    let mut r = FrameReader::new(bytes);
    let count = r.uv().expect("count");
    let members = (0..count)
        .map(|_| {
            let mut field = || r.uv32("member field").expect("member field");
            GuessId::new(ProcessId(field()), Incarnation(field()), field())
        })
        .collect();
    assert_eq!(r.remaining(), 0, "the list is all there is");
    members
}

/// Deterministic splitmix64 stream for building guards of one shape.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as u32
    }
}

fn guess(p: u32, i: u32, n: u32) -> GuessId {
    GuessId::new(ProcessId(p), Incarnation(i), n)
}

/// A guard of one of the shapes tags take: empty, many singletons (a run
/// per member), many processes, one process across incarnations (a run
/// per incarnation), and a 512-deep stream.
fn arb_guard() -> impl Strategy<Value = Guard> {
    (0u8..5, any::<u64>()).prop_map(|(shape, seed)| {
        let mut mix = Mix(seed);
        let members: Vec<GuessId> = match shape {
            0 => vec![],
            1 => (0..1 + mix.below(40))
                .map(|k| guess(0, 0, 2 * k + 1))
                .collect(),
            2 => (0..1 + mix.below(24))
                .map(|_| guess(mix.below(6), mix.below(2), mix.below(20)))
                .collect(),
            3 => {
                let mut start = 1 + mix.below(4);
                let mut out = Vec::new();
                for inc in 0..1 + mix.below(5) {
                    let len = 1 + mix.below(6);
                    out.extend((start..start + len).map(|n| guess(0, inc, n)));
                    start += mix.below(len + 1);
                }
                out
            }
            _ => {
                let from = 1 + mix.below(1000);
                let mut out: Vec<GuessId> = (from..from + 512).map(|n| guess(0, 0, n)).collect();
                out.extend((0..mix.below(3)).map(|p| guess(p + 1, 0, 1 + mix.below(9))));
                out
            }
        };
        members.into_iter().collect()
    })
}

fn envelope(guard: Guard, kind: u8) -> Envelope {
    Envelope {
        id: MsgId(11),
        from: ProcessId(0),
        from_thread: 3,
        to: ProcessId(1),
        guard,
        table_acks: vec![],
        kind: match kind {
            0 => DataKind::Send,
            1 => DataKind::Call(CallId(5)),
            _ => DataKind::Return(CallId(5)),
        },
        payload: Value::Int(-7),
        label: "C3".into(),
        link_seq: 2,
    }
}

proptest! {
    /// A data frame round-trips exactly, and the guard it carries is the
    /// member list's, member for member.
    #[test]
    fn run_frames_match_the_member_list(guard in arb_guard(), kind in 0u8..3) {
        let e = envelope(guard.clone(), kind);
        let bytes = encode_frame(&e);
        let (back, used) = decode_frame(&bytes).expect("own frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(&back, &e);
        let listed = decode_members(&encode_members(&guard));
        prop_assert!(back.guard.iter().eq(listed.iter().copied()));
        prop_assert_eq!(back.guard.len(), listed.len());
        prop_assert_eq!(back.guard.runs().len(), guard.runs().len());
    }

    /// PRECEDENCE carries its guard the same way.
    #[test]
    fn precedence_frames_match_the_member_list(guard in arb_guard()) {
        let c = Control::Precedence(guess(3, 1, 4), guard.clone());
        let bytes = encode_control_frame(&c);
        let (back, _) = decode_control_frame(&bytes).expect("own frame decodes");
        let Control::Precedence(_, decoded) = &back else {
            panic!("a PRECEDENCE frame decodes to PRECEDENCE");
        };
        let listed = decode_members(&encode_members(&guard));
        prop_assert!(decoded.iter().eq(listed.iter().copied()));
        prop_assert_eq!(&back, &c);
    }
}

fn externals(r: &SimResult) -> Vec<(ProcessId, opcsp_core::Value)> {
    r.external.iter().map(|(_, p, v)| (*p, v.clone())).collect()
}

/// The optimistic run against its pessimistic twin.
fn assert_matches_pessimistic(label: &str, world: Spec) {
    let pess = world.twin().simulate();
    let opt = world.simulate();
    assert!(
        opt.unresolved.is_empty(),
        "{label}: unresolved {:?}",
        opt.unresolved
    );
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{label}: divergence {:#?}", rep.mismatches);
    check_conservation(&opt).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        externals(&pess),
        externals(&opt),
        "{label}: external divergence"
    );
}

proptest! {
    /// Streaming clients (the §4.2.1 call-streaming shape, one deep run
    /// per tag) with random depth, latency, and server-rejected lines.
    #[test]
    fn optimistic_matches_pessimistic_on_streaming(
        n in 4u32..20,
        latency in 5u64..80,
        fails in proptest::collection::btree_set(1u32..16, 0..3),
    ) {
        let fail_lines: BTreeSet<u32> = fails.into_iter().filter(|f| *f < n).collect();
        let world = StreamingOpts {
            n,
            latency,
            fail_lines,
            ..StreamingOpts::default()
        };
        assert_matches_pessimistic("streaming", Spec::Stream(world));
    }

    /// Fan-in tally workload with a random fault rate — multi-incarnation
    /// tags, whose runs teach receivers of restarts, and the orphan path.
    #[test]
    fn optimistic_matches_pessimistic_on_tally(
        n in 4u32..20,
        latency in 5u64..80,
        p_per_mille in 0u32..600,
        seed in 0u64..64,
    ) {
        let world = TallyOpts {
            n,
            latency,
            p_per_mille,
            seed,
            ..TallyOpts::default()
        };
        assert_matches_pessimistic("tally", Spec::Tally(world));
    }
}

/// Fault-free streaming, where a member list is at its worst: the run tags
/// the engine counts must be at least 5x smaller than the same tags listed
/// member by member (the E8 claim, asserted here so an encoding regression
/// fails fast rather than only skewing the figures).
#[test]
fn streaming_run_tags_shrink_guard_bytes() {
    let r = Spec::Stream(StreamingOpts {
        n: 32,
        latency: 40,
        ..StreamingOpts::default()
    })
    .simulate_recorded();
    let listed: u64 = r
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send { guard, .. } => Some(2 + guard.len() as u64 * 12),
            _ => None,
        })
        .sum();
    let run_bytes = r.stats().guard_bytes;
    assert!(
        run_bytes * 5 <= listed,
        "expected ≥5x guard-byte reduction: member list={listed} runs={run_bytes}"
    );
}
