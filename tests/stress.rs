//! Stress tests: larger systems, jittered networks, deep speculation and
//! high fault rates — the regions where bookkeeping bugs hide.

use opcsp_core::CoreConfig;
use opcsp_sim::{audit_trace, check_conservation, check_equivalence};
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::contention::{run_contention, ContentionOpts};
use opcsp_workloads::fan_in::FanInOpts;
use opcsp_workloads::streaming::{StreamingOpts, TallyOpts};

#[test]
fn deep_speculation_512_lines() {
    let r = Spec::Stream(StreamingOpts {
        n: 512,
        latency: 10,
        ..Default::default()
    })
    .simulate();
    assert!(r.unresolved.is_empty());
    assert!(!r.truncated);
    assert_eq!(r.stats().aborts, 0);
    assert_eq!(r.stats().forks, 512);
    check_conservation(&r).unwrap();
}

#[test]
fn deep_chain_with_contention_and_faults() {
    let o = ChainOpts {
        depth: 8,
        n: 12,
        latency: 15,
        fail_items: [5u32].into(),
        ..ChainOpts::default()
    };
    let opt = Spec::Chain(o.clone()).simulate();
    let pess = Spec::Chain(o).twin().simulate();
    assert!(
        opt.unresolved.is_empty(),
        "unresolved: {:?}",
        opt.unresolved
    );
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
    let v = audit_trace(&opt.trace);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn tally_under_every_fault_rate_with_small_timeout() {
    // A short fork timeout adds timeout-aborts on top of value faults.
    for p in [100u32, 500, 900] {
        let r = Spec::Tally(TallyOpts {
            n: 48,
            latency: 60,
            p_per_mille: p,
            ..TallyOpts::default()
        })
        .simulate();
        assert!(r.unresolved.is_empty(), "p={p}");
        assert!(!r.truncated, "p={p}");
        check_conservation(&r).unwrap_or_else(|e| panic!("p={p}: {e}"));
    }
}

#[test]
fn contention_with_heavy_jitter_resolves() {
    // Jitter reorders arrivals aggressively; the protocol must still
    // resolve every guess and keep per-client orders.
    for seed in 0..10u64 {
        // Two producers into one server, every link jittered.
        let r = Spec::FanIn(FanInOpts {
            producers: 2,
            n: 12,
            latency: 5,
            jitter: 60,
            seed,
            ..FanInOpts::default()
        })
        .simulate();
        assert!(r.unresolved.is_empty(), "seed {seed}: {:?}", r.unresolved);
        assert!(!r.truncated, "seed {seed}");
        check_conservation(&r).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let v = audit_trace(&r.trace);
        assert!(v.is_empty(), "seed {seed}: {v:#?}");
    }
}

/// Three value faults in a 96-call stream, each rolling back the pipeline
/// behind it to a boundary snapshot, held to the sequential run.
#[test]
fn sparse_checkpoints_under_faults_at_scale() {
    let o = StreamingOpts {
        n: 96,
        latency: 25,
        fail_lines: [10u32, 40, 70].into_iter().collect(),
        core: CoreConfig::static_limit(8),
        ..Default::default()
    };
    let opt = Spec::Stream(o.clone()).simulate();
    let pess = Spec::Stream(o).twin().simulate();
    assert!(opt.unresolved.is_empty());
    assert!(opt.stats().rollbacks > 0, "the faults roll the stream back");
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}

#[test]
fn contention_under_skew_sweep() {
    for skew in [0u64, 37, 113, 499] {
        let r = run_contention(ContentionOpts {
            n_per_client: 10,
            latency: 15,
            skew,
        });
        assert!(r.unresolved.is_empty(), "skew {skew}");
        assert_eq!(r.stats().rollbacks, 0, "skew {skew}");
    }
}
