//! Engine-differential lifecycle counters: on a deterministic,
//! zero-jitter, chaos-free workload the simulator and the real-thread
//! runtime run the *same protocol*, so the unified `ProtoStats` counters
//! (forks, commits, aborts, rollbacks, orphans) and the per-guess
//! lifecycle verdicts derived from the telemetry stream must agree
//! exactly. A drift here means one engine counts a protocol event the
//! other doesn't — precisely the class of bug the shared
//! `core::telemetry` layer exists to catch.

use opcsp_core::CoreConfig;
use opcsp_sim::Outcome;
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::streaming::StreamingOpts;
use std::time::Duration;

const N: u32 = 8;

/// One world for both engines.
fn world() -> Spec {
    Spec::Stream(StreamingOpts {
        n: N,
        latency: 20,
        core: CoreConfig::default(),
        ..StreamingOpts::default()
    })
}

fn run_sim() -> opcsp_sim::SimResult {
    world().simulate()
}

fn run_rt() -> opcsp_rt::RtResult {
    let r = world()
        .on(opcsp_rt::RtWorld::new(opcsp_rt::RtConfig {
            core: CoreConfig::default(),
            latency: Duration::from_millis(1),
            telemetry: true,
            ..opcsp_rt::RtConfig::default()
        }))
        .run();
    r.ended().expect("rt differential run");
    r
}

/// The headline differential: identical protocol counters across engines
/// on the fault-free streaming workload.
#[test]
fn sim_and_rt_protocol_counters_agree() {
    let sim = run_sim();
    let rt = run_rt();
    let (s, r) = (sim.stats(), &rt.stats);
    assert_eq!(s.forks, r.forks, "forks: sim {s:?} vs rt {r:?}");
    assert_eq!(s.commits, r.commits, "commits: sim {s:?} vs rt {r:?}");
    assert_eq!(s.aborts, r.aborts, "aborts: sim {s:?} vs rt {r:?}");
    assert_eq!(s.rollbacks, r.rollbacks, "rollbacks: sim {s:?} vs rt {r:?}");
    assert_eq!(s.orphans, r.orphans, "orphans: sim {s:?} vs rt {r:?}");
    // Fault-free: every one of the N pipelined guesses commits, nothing
    // rolls back, nothing is orphaned.
    assert_eq!(s.forks, u64::from(N));
    assert_eq!(s.commits, u64::from(N));
    assert_eq!(s.aborts, 0);
    assert_eq!(s.rollbacks, 0);
    assert_eq!(s.orphans, 0);
}

/// The telemetry streams themselves must tell the same lifecycle story:
/// same number of tracked guesses, same commit/abort verdicts, no
/// retries, no wasted steps.
#[test]
fn sim_and_rt_lifecycle_reports_agree() {
    let sim = run_sim().telemetry.lifecycle();
    let rt = run_rt().telemetry.lifecycle();
    assert_eq!(sim.guesses.len(), rt.guesses.len());
    assert_eq!(sim.committed_count(), rt.committed_count());
    assert_eq!(sim.aborted_count(), rt.aborted_count());
    assert_eq!(sim.total_retries(), rt.total_retries());
    assert_eq!(sim.wasted_steps, rt.wasted_steps);
    assert_eq!(sim.committed_count(), u64::from(N));
    assert_eq!(sim.aborted_count(), 0);
    assert_eq!(sim.wasted_steps, 0);
    // Every guess resolved — the latency histogram covers all of them in
    // both engines (the time *units* differ: ticks vs microseconds; the
    // populations must not).
    assert_eq!(sim.latency.count(), u64::from(N));
    assert_eq!(rt.latency.count(), u64::from(N));
    assert_eq!(sim.rollback_depth.count(), 0);
    assert_eq!(rt.rollback_depth.count(), 0);
    // The guesses resolve in fork order on both engines and carry the
    // same verdicts.
    for (a, b) in sim.guesses.iter().zip(rt.guesses.iter()) {
        assert_eq!(a.guess, b.guess);
        assert_eq!(a.committed, b.committed, "verdict drift at {}", a.guess);
    }
}
