//! Figures 6 and 7: two optimistically parallelized processes whose
//! guesses interact across the network.
//!
//! Figure 6: Z's guess comes to depend on X's (via the speculative M1);
//! Z broadcasts PRECEDENCE and waits; X's commit releases the chain, and
//! W's display output — buffered the whole time — finally appears.
//!
//! Figure 7: the speculative sends cross, each server's reply carries the
//! other client's guess, and the PRECEDENCE messages reveal the cycle
//! z1 → x1 → z1. Both guesses abort; everyone rolls back; sequential
//! re-execution produces the same committed traces as a fully
//! pessimistic run.
//!
//! ```sh
//! cargo run --example two_processes
//! ```

use opcsp_core::CoreConfig;
use opcsp_sim::check_equivalence;
use opcsp_workloads::two_clients::{run_fig6, run_fig7, W, X, Y, Z};

fn main() {
    let d = 40;

    let fig6 = run_fig6(CoreConfig::default(), d);
    println!("== Figure 6 — PRECEDENCE chain commits ==\n");
    println!("{}", fig6.trace.render_timeline(&[X, Y, Z, W]));
    println!(
        "forks={} commits={} aborts={}  buffered outputs released: {:?}\n",
        fig6.stats().forks,
        fig6.stats().commits,
        fig6.stats().aborts,
        fig6.external
            .iter()
            .map(|(t, _, v)| format!("{v}@{t}"))
            .collect::<Vec<_>>(),
    );

    let fig7 = run_fig7(CoreConfig::default(), d);
    println!("== Figure 7 — cycle detection and mutual abort ==\n");
    println!("{}", fig7.trace.render_timeline(&[X, Y, Z, W]));
    println!(
        "time-faults={} aborts={} rollbacks={} orphans={}",
        fig7.stats().time_faults,
        fig7.stats().aborts,
        fig7.stats().rollbacks,
        fig7.stats().orphans,
    );

    let pess7 = run_fig7(CoreConfig::pessimistic(), d);
    let rep = check_equivalence(&pess7, &fig7);
    println!(
        "after recovery, committed traces match the sequential run: {}",
        if rep.equivalent { "yes" } else { "NO (bug!)" }
    );
}
