//! A lossless run retransmits nothing (DESIGN.md §9.3).
//!
//! Neither world below loses a frame, so every retransmission is a copy
//! nobody needed: the receiver counts it in `dup_frames`, answers it with
//! an ack of its own, and the extra load lengthens the queues that made
//! the sender impatient. With per-frame timers at a fixed 8 ms both worlds
//! sent more copies than originals; with per-link RTT-estimated timers the
//! bound is one frame in a hundred, on the sender's count and on the
//! receivers'.
//!
//! The stream runs under `RtConfig::default()`'s executor, so CI's
//! `OPCSP_RT_EXECUTOR=sharded:4` pass covers it under both. The bound is
//! for optimized builds (CI runs this file in release; 40 runs in a row
//! stayed within a tenth of it). An unoptimized build, ten times slower
//! against the same clock, usually meets it too — a timer may not expire
//! before its endpoint has ticked a few times, so a slow world stretches
//! its own timeouts — but one run in ten does not, when the two tests share
//! two cores and one worker is descheduled for several of the other's
//! rounds. There the worlds only have to come out clean, with every copy
//! accounted for.

use opcsp_rt::{Executor, RtConfig, RtResult, RtWorld};
use opcsp_workloads::catalog::{clean, Spec};
use opcsp_workloads::streaming::{PairsOpts, StreamingOpts};
use std::time::Duration;

fn assert_lossless_and_quiet(r: &RtResult, label: &str) {
    let s = &r.stats;
    clean(r).expect(label);
    assert_eq!(s.commits, s.forks, "{label}: unresolved guesses ({s:?})");
    assert_eq!(s.drops_injected + s.dups_injected, 0, "{label}: {s:?}");
    assert!(s.frames_sent > 0 && s.frames_delivered == s.frames_sent, "{label}: {s:?}");
    assert!(s.dup_frames <= s.retransmits, "{label}: {s:?}");
    println!(
        "{label}: frames={} retransmits={} dup_frames={} standalone_acks={}",
        s.frames_sent, s.retransmits, s.dup_frames, s.acks
    );
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        s.retransmits * 100 <= s.frames_sent,
        "{label}: {} retransmissions for {} frames on a wire that lost none",
        s.retransmits,
        s.frames_sent
    );
    assert!(
        s.dup_frames == 0 || s.dup_frames * 100 <= s.frames_delivered,
        "{label}: receivers discarded {} copies against {} frames delivered",
        s.dup_frames,
        s.frames_delivered
    );
}

/// 64 optimistic client→server pairs × 4 calls on two sharded workers at
/// zero latency: every commit is broadcast to all 128 processes, so most
/// frames are the first on their link and are acked only after the
/// receiver has worked through everyone else's.
#[test]
fn optimistic_pairs_retransmit_nothing() {
    let cfg = RtConfig {
        latency: Duration::ZERO,
        executor: Executor::Sharded { workers: 2 },
        ..RtConfig::default()
    };
    let pairs = PairsOpts {
        pairs: 64,
        n: 4,
        ..PairsOpts::default()
    };
    let r = Spec::Pairs(pairs).on(RtWorld::new(cfg)).run();
    assert_eq!(r.stats.forks, 64 * 4, "{:?}", r.stats);
    assert_lossless_and_quiet(&r, "64 pairs x 4 calls");
}

/// The 500-call PutLine stream at 1 ms: one deep pipeline whose replies
/// queue behind the client's own sends.
#[test]
fn call_stream_retransmits_nothing() {
    let stream = StreamingOpts {
        n: 500,
        ..StreamingOpts::default()
    };
    let r = Spec::Stream(stream)
        .on(RtWorld::new(RtConfig {
            latency: Duration::from_millis(1),
            ..RtConfig::default()
        }))
        .run();
    assert_eq!(r.stats.forks, 500, "{:?}", r.stats);
    assert_lossless_and_quiet(&r, "500-call stream");
}
