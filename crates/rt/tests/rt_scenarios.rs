//! Real-thread runtime on the richer workloads: the update/write scenario
//! (value faults on real threads), chained optimistic forwarders, and two
//! contending clients.

use opcsp_core::{CoreConfig, ProcessId, Value};
use opcsp_rt::{RtConfig, RtWorld};
use opcsp_sim::Observable;
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::fan_in::{consumer, FanInOpts};
use opcsp_workloads::servers::{ForwardServer, Server};
use opcsp_workloads::update_write::UpdateWriteClient;
use std::time::Duration;

fn rt_cfg(optimism: bool, latency_ms: u64) -> RtConfig {
    RtConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency: Duration::from_millis(latency_ms),
        fork_timeout: Duration::from_secs(2),
        run_timeout: Duration::from_secs(20),
        ..RtConfig::default()
    }
}

#[test]
fn update_write_on_real_threads() {
    for optimism in [true, false] {
        let mut w = RtWorld::new(rt_cfg(optimism, 3));
        let x = w.add_process(UpdateWriteClient, true);
        let _y = w.add_process(ForwardServer::new("Y(db)", ProcessId(2), "C2"), false);
        let _z = w.add_process(Server::new("Z(fs)", 0), false);
        let r = w.run();
        assert!(!r.timed_out, "optimism={optimism}: {:?}", r.stats);
        // The client's committed log ends with the successful Write return.
        let log = &r.logs[&x];
        assert!(
            matches!(
                log.last(),
                Some(Observable::Received { payload, .. }) if payload.is_true()
            ),
            "optimism={optimism}: {log:?}"
        );
    }
}

#[test]
fn update_write_value_fault_on_real_threads() {
    let mut w = RtWorld::new(rt_cfg(true, 3));
    let x = w.add_process(UpdateWriteClient, true);
    let _y = w.add_process(
        ForwardServer::new("Y(db)", ProcessId(2), "C2").with_reply(|_| Value::Bool(false)),
        false,
    );
    let _z = w.add_process(Server::new("Z(fs)", 0), false);
    let r = w.run();
    assert!(!r.timed_out, "{:?}", r.stats);
    assert!(
        r.stats.aborts >= 1,
        "the wrong guess must abort: {:?}",
        r.stats
    );
    // No committed Write: the client's log has no send to Z.
    let to_z = r.logs[&x]
        .iter()
        .filter(|o| matches!(o, Observable::Sent { to, .. } if *to == ProcessId(2)))
        .count();
    assert_eq!(
        to_z, 0,
        "failed Update must suppress the Write: {:?}",
        r.logs[&x]
    );
}

#[test]
fn chain_of_forwarders_on_real_threads() {
    let depth = 3u32;
    let world = Spec::Chain(ChainOpts {
        depth,
        ..ChainOpts::default()
    });
    let r = world.on(RtWorld::new(rt_cfg(true, 2))).run();
    assert!(!r.timed_out, "{:?}", r.stats);
    // Client fork per item + hop forks.
    assert!(r.stats.forks >= 4, "{:?}", r.stats);
    assert_eq!(r.stats.aborts, 0, "{:?}", r.stats);
    // All four items reached the terminal.
    let terminal = ProcessId(depth + 1);
    let received = r.logs[&terminal]
        .iter()
        .filter(|o| matches!(o, Observable::Received { .. }))
        .count();
    assert_eq!(received, 4);
}

#[test]
fn two_contending_clients_on_real_threads() {
    let opts = FanInOpts {
        producers: 2,
        n: 5,
        ..FanInOpts::default()
    };
    let (a, b, s) = (ProcessId(0), ProcessId(1), consumer(&opts));
    let r = Spec::FanIn(opts).on(RtWorld::new(rt_cfg(true, 2))).run();
    assert!(!r.timed_out, "{:?}", r.stats);
    assert_eq!(r.stats.rollbacks, 0, "independent clients never conflict");
    // Both clients delivered all their lines.
    for c in [a, b] {
        let got = r.logs[&c]
            .iter()
            .filter(|o| matches!(o, Observable::Received { payload, .. } if payload.is_true()))
            .count();
        assert_eq!(got, 5, "client {c}");
    }
    let served = r.logs[&s]
        .iter()
        .filter(|o| matches!(o, Observable::Received { .. }))
        .count();
    assert_eq!(served, 10);
}
