//! The protocol on real OS threads (opcsp-rt): wall-clock call streaming
//! vs synchronous RPC over an injected 5 ms one-way latency.
//!
//! ```sh
//! cargo run --release --example real_threads
//! ```

use opcsp_core::CoreConfig;
use opcsp_rt::{RtConfig, RtWorld};
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::streaming::StreamingOpts;
use std::time::Duration;

fn run(n: u32, optimism: bool, latency: Duration) -> opcsp_rt::RtResult {
    let cfg = RtConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency,
        fork_timeout: Duration::from_secs(2),
        run_timeout: Duration::from_secs(30),
        ..RtConfig::default()
    };
    let world = Spec::Stream(StreamingOpts {
        n,
        ..StreamingOpts::default()
    });
    world.on(RtWorld::new(cfg)).run()
}

fn main() {
    let n = 16;
    let latency = Duration::from_millis(5);
    println!(
        "{} PutLine calls over a {:?} one-way link, real threads:\n",
        n, latency
    );

    let rpc = run(n, false, latency);
    println!(
        "synchronous RPC : {:>8.1?}  (lower bound {} round trips = {:?})",
        rpc.wall,
        n,
        latency * 2 * n,
    );

    let streamed = run(n, true, latency);
    println!(
        "call streaming  : {:>8.1?}  (forks={}, aborts={}, ~one round trip + overhead)",
        streamed.wall, streamed.stats.forks, streamed.stats.aborts,
    );
    println!(
        "\nwall-clock speedup: {:.1}x",
        rpc.wall.as_secs_f64() / streamed.wall.as_secs_f64()
    );
    assert!(!rpc.timed_out && !streamed.timed_out);
}
