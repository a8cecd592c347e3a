//! Real-thread runtime tests: call streaming with genuine wall-clock
//! latency, value faults, and equivalence against the pessimistic run.

use opcsp_core::CoreConfig;
use opcsp_rt::{RtConfig, RtWorld};
use opcsp_sim::Observable;
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::streaming::{StreamingOpts, CLIENT, SERVER};
use std::time::Duration;

fn run_rt(n: u32, optimism: bool, latency_ms: u64, fail_at: Option<u32>) -> opcsp_rt::RtResult {
    let cfg = RtConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency: Duration::from_millis(latency_ms),
        fork_timeout: Duration::from_secs(2),
        run_timeout: Duration::from_secs(20),
        ..RtConfig::default()
    };
    let world = Spec::Stream(StreamingOpts {
        n,
        fail_lines: fail_at.into_iter().collect(),
        ..StreamingOpts::default()
    });
    world.on(RtWorld::new(cfg)).run()
}

fn successful_receives(r: &opcsp_rt::RtResult) -> usize {
    r.logs
        .get(&CLIENT)
        .map(|log| {
            log.iter()
                .filter(|o| matches!(o, Observable::Received { payload, .. } if payload.is_true()))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn rt_streaming_completes_and_commits() {
    let r = run_rt(8, true, 2, None);
    assert!(!r.timed_out, "run timed out: {:?}", r.stats);
    assert_eq!(r.stats.forks, 8);
    assert_eq!(r.stats.aborts, 0);
    assert_eq!(successful_receives(&r), 8);
}

#[test]
fn rt_streaming_beats_sequential_wall_clock() {
    let (n, d) = (10, 8);
    let opt = run_rt(n, true, d, None);
    let pess = run_rt(n, false, d, None);
    assert!(!opt.timed_out && !pess.timed_out);
    // Sequential pays n round trips (2·d each); streaming pays ~one round
    // trip plus overhead. Generous margin for scheduling noise.
    assert!(
        opt.wall < pess.wall,
        "streaming {:?} should beat sequential {:?}",
        opt.wall,
        pess.wall
    );
    assert!(
        pess.wall >= Duration::from_millis((n as u64) * 2 * d),
        "sequential lower bound violated: {:?}",
        pess.wall
    );
}

#[test]
fn rt_value_fault_rolls_back_and_matches_sequential_outcome() {
    let fail = 3;
    let opt = run_rt(8, true, 4, Some(fail));
    let pess = run_rt(8, false, 4, Some(fail));
    assert!(!opt.timed_out && !pess.timed_out);
    assert!(opt.stats.aborts >= 1, "{:?}", opt.stats);
    // Both deliver exactly `fail` lines successfully.
    assert_eq!(successful_receives(&pess), fail as usize);
    assert_eq!(successful_receives(&opt), fail as usize);
    // Committed client logs agree.
    assert_eq!(pess.logs[&CLIENT], opt.logs[&CLIENT]);
}

#[test]
fn rt_pessimistic_mode_never_forks() {
    let r = run_rt(4, false, 1, None);
    assert!(!r.timed_out);
    assert_eq!(r.stats.forks, 0);
    assert_eq!(r.stats.rollbacks, 0);
    assert_eq!(successful_receives(&r), 4);
}

#[test]
fn rt_logs_match_across_modes() {
    let opt = run_rt(6, true, 3, None);
    let pess = run_rt(6, false, 3, None);
    assert_eq!(
        pess.logs[&CLIENT], opt.logs[&CLIENT],
        "committed client observables must be identical"
    );
    assert_eq!(pess.logs[&SERVER], opt.logs[&SERVER]);
}

#[test]
fn rt_fork_after_send_streams_too() {
    let cfg = RtConfig {
        latency: Duration::from_millis(3),
        fork_timeout: Duration::from_secs(2),
        run_timeout: Duration::from_secs(20),
        ..RtConfig::default()
    };
    let world = Spec::Stream(StreamingOpts {
        n: 8,
        fork_after_send: true,
        ..StreamingOpts::default()
    });
    let r = world.on(RtWorld::new(cfg)).run();
    assert!(!r.timed_out, "{:?}", r.stats);
    assert_eq!(r.stats.forks, 8);
    assert_eq!(r.stats.aborts, 0);
    assert_eq!(successful_receives(&r), 8);
}
