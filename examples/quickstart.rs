//! Quickstart: call streaming in 40 lines.
//!
//! A client makes 8 `PutLine` calls to a remote server over a
//! high-latency link. Run pessimistically (plain RPC) and optimistically
//! (the paper's transformation), compare completion times, and show the
//! Theorem-1 guarantee: identical committed traces.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use opcsp_core::CoreConfig;
use opcsp_sim::check_equivalence;
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::streaming::{StreamingOpts, CLIENT, SERVER};

fn main() {
    let base = StreamingOpts {
        n: 8,
        latency: 100,
        ..StreamingOpts::default()
    };

    let sequential = Spec::Stream(StreamingOpts {
        core: CoreConfig::pessimistic(),
        ..base.clone()
    })
    .simulate();
    let streaming = Spec::Stream(base).simulate_recorded();

    println!("== Optimistic execution timeline ==\n");
    println!("{}", streaming.trace.render_timeline(&[CLIENT, SERVER]));

    println!(
        "sequential completion: {:>6} ticks  (8 round trips of 2·100)",
        sequential.completion
    );
    println!(
        "streaming  completion: {:>6} ticks  (calls pipelined)",
        streaming.completion
    );
    println!(
        "speedup: {:.1}x   forks: {}  aborts: {}",
        sequential.completion as f64 / streaming.completion as f64,
        streaming.stats().forks,
        streaming.stats().aborts,
    );

    let rep = check_equivalence(&sequential, &streaming);
    println!(
        "\nTheorem 1 — committed traces identical to the sequential run: {}",
        if rep.equivalent { "yes" } else { "NO (bug!)" }
    );
}
