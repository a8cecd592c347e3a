//! Call streaming (§1): behavioral tests for the PutLine workload that
//! back experiments E1–E3 and E8 — pipelining beats round trips, faults
//! truncate the stream exactly, and traces stay equivalent throughout.

use opcsp_core::CoreConfig;
use opcsp_sim::check_equivalence;
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::streaming::{delivered_lines, StreamingOpts, CLIENT};
use std::collections::BTreeSet;

fn opts(n: u32, latency: u64) -> StreamingOpts {
    StreamingOpts {
        n,
        latency,
        ..StreamingOpts::default()
    }
}

/// The headline claim: with N calls and one-way latency d, the sequential
/// client needs ~2·N·d while the streaming client needs ~2d + N·ε.
#[test]
fn streaming_pipelines_n_calls() {
    let (n, d) = (16, 100);
    let opt = Spec::Stream(opts(n, d)).simulate();
    let pess = Spec::Stream(opts(n, d)).twin().simulate();
    assert!(opt.unresolved.is_empty());
    assert_eq!(opt.stats().aborts, 0);
    assert_eq!(opt.stats().forks as u32, n);
    // Sequential: at least N round trips.
    assert!(pess.completion >= 2 * d * n as u64);
    // Streaming: all calls in flight together — a small multiple of one
    // round trip, far below the sequential time.
    assert!(
        opt.completion < pess.completion / 4,
        "streaming {} vs sequential {}",
        opt.completion,
        pess.completion
    );
    assert_eq!(delivered_lines(&opt) as u32, n);
}

/// Speedup grows with latency (E1's shape): at negligible latency the two
/// executions are comparable; at high latency streaming wins by ~N×.
#[test]
fn speedup_grows_with_latency() {
    let n = 8;
    let mut prev_speedup = 0.0;
    for d in [1u64, 16, 256] {
        let o = Spec::Stream(opts(n, d)).simulate();
        let p = Spec::Stream(opts(n, d)).twin().simulate();
        let speedup = p.completion as f64 / o.completion.max(1) as f64;
        assert!(
            speedup >= prev_speedup * 0.9,
            "speedup should grow with latency: d={d} gave {speedup:.2} after {prev_speedup:.2}"
        );
        prev_speedup = speedup;
    }
    assert!(
        prev_speedup > 4.0,
        "at d=256 speedup should approach N: {prev_speedup:.2}"
    );
}

/// A rejected line is a value fault: the speculative tail rolls back and
/// the client stops exactly after the failed line, matching the
/// pessimistic execution.
#[test]
fn value_fault_truncates_stream_correctly() {
    let n = 12;
    let fail_at = 5u32;
    let o = StreamingOpts {
        fail_lines: BTreeSet::from([fail_at]),
        ..opts(n, 60)
    };
    let opt = Spec::Stream(o.clone()).simulate();
    let pess = Spec::Stream(o).twin().simulate();
    assert!(opt.unresolved.is_empty());
    assert!(opt.stats().value_faults >= 1, "line {fail_at} must fault");
    assert!(opt.stats().aborts >= 1);
    // Exactly `fail_at` lines delivered successfully in both runs.
    assert_eq!(delivered_lines(&pess) as u32, fail_at);
    assert_eq!(delivered_lines(&opt) as u32, fail_at);
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}

/// Multiple scattered failures: every one aborts the tail beyond it, and
/// the committed trace still equals the sequential one (the client stops
/// at the first failure).
#[test]
fn first_failure_wins() {
    let o = StreamingOpts {
        fail_lines: BTreeSet::from([3, 7, 9]),
        ..opts(12, 40)
    };
    let opt = Spec::Stream(o.clone()).simulate();
    let pess = Spec::Stream(o).twin().simulate();
    assert_eq!(delivered_lines(&opt), 3);
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}

/// Failing the very first line: almost everything speculated is wasted,
/// yet the result is still correct.
#[test]
fn immediate_failure_rolls_back_everything() {
    let o = StreamingOpts {
        fail_lines: BTreeSet::from([0]),
        ..opts(8, 40)
    };
    let opt = Spec::Stream(o.clone()).simulate();
    assert_eq!(delivered_lines(&opt), 0);
    assert!(opt.unresolved.is_empty());
    let pess = Spec::Stream(o).twin().simulate();
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
    // The client's committed log ends after the first (failed) call.
    let log = &opt.logs[&CLIENT];
    let calls = log
        .iter()
        .filter(|e| matches!(e, opcsp_sim::Observable::Sent { .. }))
        .count();
    assert_eq!(calls, 1, "only line 0's call commits: {log:?}");
}

/// Guard sets grow linearly along the speculative chain — the deepest
/// message depends on ~N guesses — but a tag is written as its runs, and a
/// stream's tag {x1..xk} is one run: the bytes a data message's guard
/// costs on the wire do not grow with depth (E8).
#[test]
fn guard_bytes_per_message_do_not_grow_with_stream_depth() {
    // (deepest tag's members, largest tag's bytes) over every data message.
    let tags = |n| {
        let r = Spec::Stream(opts(n, 50)).simulate();
        let sends: Vec<&opcsp_core::Guard> = r
            .trace
            .iter()
            .filter_map(|e| match e {
                opcsp_sim::TraceEvent::Send { guard, .. } => Some(guard),
                _ => None,
            })
            .collect();
        let bytes: u64 = sends.iter().map(|g| g.wire_size() as u64).sum();
        assert_eq!(
            bytes,
            r.stats().guard_bytes,
            "N={n}: guard bytes are the tags'"
        );
        let deepest = sends.iter().map(|g| g.len()).max().unwrap_or(0);
        let largest = sends.iter().map(|g| g.wire_size()).max().unwrap_or(0);
        (deepest, largest)
    };
    let (small, large) = (tags(4), tags(32));
    assert!(
        large.0 >= 8 * small.0,
        "the deepest tag grows with N: {} vs {}",
        large.0,
        small.0
    );
    assert_eq!(
        large.1, small.1,
        "a data message's guard bytes grew with N: {} (N=32) vs {} (N=4)",
        large.1, small.1
    );
}

/// One value fault dooms the whole dependent speculative tail: failing
/// line 0 of an 8-line stream aborts all 8 guesses (x1 by the fault,
/// x2..x8 by the cascade).
#[test]
fn fault_dooms_dependent_tail() {
    let o = StreamingOpts {
        fail_lines: BTreeSet::from([0]),
        ..opts(8, 40)
    };
    let r = Spec::Stream(o).simulate();
    assert!(r.unresolved.is_empty());
    assert_eq!(r.stats().value_faults, 1);
    let aborted = r.trace.aborted_guesses();
    assert_eq!(
        aborted.len(),
        8,
        "all 8 speculative guesses die: {aborted:?}"
    );
}

/// The retry limit L (§3.3) with L = 0: optimism is budget-exhausted from
/// the start, every fork is refused, and the run is exactly the
/// pessimistic execution without the pessimistic policy.
#[test]
fn retry_limit_zero_degenerates_to_pessimistic() {
    let o = StreamingOpts {
        core: CoreConfig::static_limit(0),
        ..opts(8, 40)
    };
    let limited = Spec::Stream(o.clone()).simulate();
    let pess = Spec::Stream(o).twin().simulate();
    assert_eq!(limited.stats().forks, 0);
    assert_eq!(limited.stats().aborts, 0);
    assert_eq!(limited.completion, pess.completion);
    let rep = check_equivalence(&pess, &limited);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}

/// Deterministic across repeated runs, including under faults.
#[test]
fn streaming_is_deterministic() {
    let o = StreamingOpts {
        fail_lines: BTreeSet::from([2]),
        ..opts(10, 30)
    };
    let a = Spec::Stream(o.clone()).simulate();
    let b = Spec::Stream(o).simulate();
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.logs, b.logs);
}

/// Large stream smoke test: N=128 resolves completely with zero aborts and
/// linear message counts.
#[test]
fn large_stream_resolves() {
    let n = 128;
    let r = Spec::Stream(opts(n, 20)).simulate();
    assert!(r.unresolved.is_empty());
    assert!(!r.truncated);
    assert_eq!(r.stats().aborts, 0);
    assert_eq!(r.stats().forks as u32, n);
    // 2 data messages per line (call + return).
    assert_eq!(r.stats().data_messages as u32, 2 * n);
    assert_eq!(delivered_lines(&r) as u32, n);
}

// ---------------------------------------------------------------------
// §4.2.1 fork-after-send
// ---------------------------------------------------------------------

mod fork_after_send {
    use super::*;

    #[test]
    fn produces_same_results_as_fork_before_send() {
        let base = opts(12, 60);
        let regular = Spec::Stream(base.clone()).simulate();
        let fas = Spec::Stream(StreamingOpts {
            fork_after_send: true,
            ..base
        })
        .simulate();
        assert!(fas.unresolved.is_empty());
        assert_eq!(fas.stats().aborts, 0);
        assert_eq!(delivered_lines(&fas), delivered_lines(&regular));
        assert_eq!(regular.logs, fas.logs, "identical committed traces");
    }

    #[test]
    fn handles_value_faults() {
        let o = StreamingOpts {
            fork_after_send: true,
            fail_lines: BTreeSet::from([4]),
            ..opts(10, 50)
        };
        let fas = Spec::Stream(o.clone()).simulate();
        assert!(fas.unresolved.is_empty());
        assert!(fas.stats().value_faults >= 1);
        assert_eq!(delivered_lines(&fas), 4);
        let pess = Spec::Stream(o).twin().simulate();
        let rep = check_equivalence(&pess, &fas);
        assert!(rep.equivalent, "{:#?}", rep.mismatches);
    }

    #[test]
    fn pessimistic_mode_degrades_to_plain_calls() {
        let o = StreamingOpts {
            fork_after_send: true,
            core: CoreConfig::pessimistic(),
            ..opts(6, 40)
        };
        let r = Spec::Stream(o).simulate();
        assert_eq!(r.stats().forks, 0);
        assert_eq!(delivered_lines(&r), 6);
    }

    #[test]
    fn saves_a_step_per_call() {
        // The calls leave one engine-step earlier: first call's send time.
        let base = opts(8, 100);
        let regular = Spec::Stream(base.clone()).simulate();
        let fas = Spec::Stream(StreamingOpts {
            fork_after_send: true,
            ..base
        })
        .simulate();
        let first_send = |r: &opcsp_sim::SimResult| {
            r.trace
                .iter()
                .find_map(|e| match e {
                    opcsp_sim::TraceEvent::Send { t, .. } => Some(*t),
                    _ => None,
                })
                .unwrap()
        };
        assert!(
            first_send(&fas) <= first_send(&regular),
            "fork-after-send must not delay the call"
        );
        assert!(fas.completion <= regular.completion);
    }
}
