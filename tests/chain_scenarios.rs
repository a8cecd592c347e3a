//! Depth-k optimistic forwarding pipelines: every hop speculatively
//! acknowledges upstream before its downstream call completes. Tests the
//! multi-process commit wave (PRECEDENCE chains) and cascading rollback
//! when the terminal server rejects an item.

use opcsp_core::{CoreConfig, ProcessId};
use opcsp_sim::check_equivalence;
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::streaming::delivered_lines;
use std::collections::BTreeSet;

/// All hops speculate, so items flow through the pipeline back to back:
/// with n items the pessimistic chain pays n full depth-wise round trips
/// while the optimistic one overlaps them. (A single item cannot resolve
/// faster than its causal chain — the commit wave still has to travel
/// there and back — so the win is throughput, not single-item latency.)
#[test]
fn chain_pipelines_through_hops() {
    let (depth, n, d) = (4u32, 6u32, 50u64);
    let o = ChainOpts {
        depth,
        n,
        latency: d,
        ..ChainOpts::default()
    };
    let opt = Spec::Chain(o.clone()).simulate();
    let pess = Spec::Chain(o).twin().simulate();
    assert!(
        opt.unresolved.is_empty(),
        "unresolved: {:?}",
        opt.unresolved
    );
    assert_eq!(opt.stats().aborts, 0);
    // Pessimistic: n nested round trips of 2·(depth+1) hops each.
    assert!(pess.completion >= (n as u64) * 2 * (depth as u64 + 1) * d);
    // Optimistic full resolution is commit-wave bound (the wave for item
    // k+1 serializes behind item k's resolution — a genuine protocol
    // property), giving ~1.7× here and → 2× as n grows.
    assert!(
        (opt.completion as f64) < pess.completion as f64 * 0.7,
        "chain streaming {} vs nested calls {}",
        opt.completion,
        pess.completion
    );
}

/// Each hop's guess awaits the downstream hops' guesses; commits cascade
/// from the terminal back. Every fork commits; none aborts.
#[test]
fn chain_commit_wave_resolves_all_guesses() {
    let o = ChainOpts {
        depth: 3,
        n: 2,
        ..ChainOpts::default()
    };
    let r = Spec::Chain(o).simulate_recorded();
    assert!(r.unresolved.is_empty());
    assert_eq!(r.stats().aborts, 0);
    // Forks: client forks once per item; each hop forks once per item.
    // depth=3 hops + client = 4 forking processes × 2 items = 8.
    assert_eq!(r.stats().forks, 8);
    assert_eq!(r.trace.committed_guesses().len(), 8);
}

/// A rejection at the terminal server cascades: the last hop value-faults,
/// its abort orphans the acknowledgements, and every upstream hop (and the
/// client) rolls back. The committed result equals the sequential run.
#[test]
fn terminal_failure_cascades_up_the_chain() {
    let o = ChainOpts {
        depth: 3,
        n: 3,
        fail_items: BTreeSet::from([1]),
        ..ChainOpts::default()
    };
    let opt = Spec::Chain(o.clone()).simulate();
    let pess = Spec::Chain(o).twin().simulate();
    assert!(
        opt.unresolved.is_empty(),
        "unresolved: {:?}",
        opt.unresolved
    );
    assert!(opt.stats().value_faults >= 1);
    assert!(opt.stats().aborts >= 2, "abort must cascade beyond one hop");
    // Item 0 delivered, item 1 rejected, item 2 never committed.
    assert_eq!(delivered_lines(&pess), 1);
    assert_eq!(delivered_lines(&opt), 1);
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}

/// Deeper chains still resolve (PRECEDENCE across many processes), and
/// with several items in flight the pipeline keeps winning at every depth.
#[test]
fn deep_chain_resolves_and_scales() {
    for depth in [1u32, 3, 6] {
        let o = ChainOpts {
            depth,
            n: 8,
            latency: 40,
            ..ChainOpts::default()
        };
        let opt = Spec::Chain(o.clone()).simulate();
        let pess = Spec::Chain(o).twin().simulate();
        assert!(
            opt.unresolved.is_empty(),
            "depth {depth} left unresolved guesses: {:?}",
            opt.unresolved
        );
        assert_eq!(opt.stats().aborts, 0, "depth {depth}");
        let speedup = pess.completion as f64 / opt.completion.max(1) as f64;
        assert!(speedup > 1.5, "depth {depth}: no speedup ({speedup:.2})");
        // Absolute savings grow with depth: each hop's round trip is
        // overlapped away.
        assert!(pess.completion - opt.completion >= 2 * (depth as u64) * 40);
    }
}

/// Chain runs are deterministic.
#[test]
fn chain_is_deterministic() {
    let o = ChainOpts {
        depth: 3,
        n: 3,
        fail_items: BTreeSet::from([2]),
        ..ChainOpts::default()
    };
    let a = Spec::Chain(o.clone()).simulate();
    let b = Spec::Chain(o).simulate();
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.stats(), b.stats());
}

/// The pessimistic chain never forks and its per-process logs are the
/// reference for all the above.
#[test]
fn pessimistic_chain_is_clean() {
    let o = ChainOpts {
        depth: 2,
        n: 2,
        core: CoreConfig::pessimistic(),
        ..ChainOpts::default()
    };
    let r = Spec::Chain(o).simulate();
    assert_eq!(r.stats().forks, 0);
    assert_eq!(r.stats().rollbacks, 0);
    assert!(r.logs[&ProcessId(0)].len() >= 4, "client made its calls");
}
