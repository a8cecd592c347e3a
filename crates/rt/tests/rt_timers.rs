//! The wire is a timestamp (DESIGN.md §9.1): a frame in transit waits in
//! the timer queue of the actor that will receive it, next to that actor's
//! fork timers and transport ticks. Each test runs under both executors.
//!
//! - the hold keeps link order: a 500-deep stream at 1 ms releases every
//!   frame in order, with nothing buffered out of order and (optimized)
//!   nothing sent twice;
//! - the hold waits: one call at latency L takes a round trip, 2·L;
//! - a timer dies with its actor: a 60 s fork timer pending at shutdown
//!   records no abort, while a short one fires on time.

use opcsp_rt::{Executor, RtConfig, RtResult, RtWorld};
use opcsp_sim::{Effect, FnBehavior, Observable};
use opcsp_workloads::catalog::{clean, Spec};
use opcsp_workloads::streaming::{PutLineClient, StreamingOpts};
use std::time::{Duration, Instant};

const EXECUTORS: [Executor; 2] = [Executor::Threaded, Executor::Sharded { workers: 2 }];

fn cfg(executor: Executor, latency: Duration) -> RtConfig {
    RtConfig {
        latency,
        executor,
        ..RtConfig::default()
    }
}

/// A PutLine client streaming `n` calls to an echoing server.
fn stream(cfg: RtConfig, n: u32) -> RtResult {
    let world = Spec::Stream(StreamingOpts {
        n,
        ..StreamingOpts::default()
    });
    world.on(RtWorld::new(cfg)).run()
}

#[test]
fn the_hold_keeps_link_order() {
    for ex in EXECUTORS {
        let r = stream(cfg(ex, Duration::from_millis(1)), 500);
        clean(&r).unwrap_or_else(|e| panic!("{ex:?}: {e}"));
        let s = &r.stats;
        assert_eq!(
            (s.forks, s.commits, s.aborts),
            (500, 500, 0),
            "{ex:?}: {s:?}"
        );
        assert_eq!(
            s.reorder_releases, 0,
            "{ex:?}: a frame overtook another ({s:?})"
        );
        // Timing, not order: an unoptimized build on a shared box may see
        // an ack late (as `rt_lossless` documents); optimized, none is.
        if !cfg!(debug_assertions) {
            assert_eq!(s.retransmits, 0, "{ex:?}: {s:?}");
        }
    }
}

#[test]
fn one_call_takes_a_round_trip() {
    let latency = Duration::from_millis(25);
    for ex in EXECUTORS {
        let r = stream(cfg(ex, latency), 1);
        clean(&r).unwrap_or_else(|e| panic!("{ex:?}: {e}"));
        assert_eq!(r.stats.commits, 1, "{ex:?}: {:?}", r.stats);
        let replied = r.logs[&opcsp_core::ProcessId(0)]
            .iter()
            .any(|o| matches!(o, Observable::Received { payload, .. } if payload.is_true()));
        assert!(replied, "{ex:?}: the call was answered");
        assert!(
            r.wall >= 2 * latency,
            "{ex:?}: a round trip in {:?}",
            r.wall
        );
    }
}

/// A client whose one call is never answered: its guess stays open until
/// the fork timer fires, or the run ends.
fn unanswered(ex: Executor, fork_timeout: Duration) -> RtResult {
    let mut w = RtWorld::new(RtConfig {
        fork_timeout,
        run_timeout: Duration::from_millis(300),
        ..cfg(ex, Duration::from_millis(1))
    });
    w.add_process(PutLineClient::new(1), true);
    w.add_process(FnBehavior::new("mute", (), |_, _| Effect::Done), false);
    w.run()
}

#[test]
fn a_timer_dies_with_its_actor_and_fires_on_time() {
    for ex in EXECUTORS {
        let t0 = Instant::now();
        let r = unanswered(ex, Duration::from_secs(60));
        assert!(r.timed_out, "{ex:?}: the call is never answered");
        assert!(
            r.panicked.is_empty() && r.stragglers.is_empty(),
            "{ex:?}: {r:?}"
        );
        let s = &r.stats;
        assert_eq!((s.forks, s.commits, s.aborts), (1, 0, 0), "{ex:?}: {s:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{ex:?}: waited for the timer"
        );

        let r = unanswered(ex, Duration::from_millis(30));
        let s = &r.stats;
        assert_eq!((s.forks, s.commits, s.aborts), (1, 0, 1), "{ex:?}: {s:?}");
    }
}
