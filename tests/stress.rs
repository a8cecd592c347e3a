//! Stress tests: larger systems, jittered networks, deep speculation and
//! high fault rates — the regions where bookkeeping bugs hide.

use opcsp_core::{CoreConfig, SpeculationPolicy};
use opcsp_sim::{audit_trace, check_conservation, check_equivalence, LatencyModel, SimConfig};
use opcsp_workloads::chain::{run_chain, ChainOpts};
use opcsp_workloads::contention::{run_contention, ContentionOpts};
use opcsp_workloads::streaming::{run_streaming, run_tally, StreamingOpts, TallyOpts};

#[test]
fn deep_speculation_512_lines() {
    let r = run_streaming(StreamingOpts {
        n: 512,
        latency: 10,
        ..Default::default()
    });
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
    let opt = run_chain(o.clone());
    let pess = run_chain(ChainOpts {
        core: CoreConfig::pessimistic(),
        ..o
    });
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
        let r = run_tally(TallyOpts {
            n: 48,
            latency: 60,
            p_per_mille: p,
            ..TallyOpts::default()
        });
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
        let mut opts = ContentionOpts {
            n_per_client: 12,
            latency: 10,
            ..Default::default()
        };
        opts.skew = 0;
        let r = {
            // run_contention uses per-link; build a jittered variant inline.
            use opcsp_sim::SimBuilder;
            use opcsp_workloads::servers::Server;
            use opcsp_workloads::streaming::PutLineClient;
            let cfg = SimConfig {
                latency: LatencyModel::jitter(5, 60, seed),
                ..SimConfig::default()
            };
            let mut b = SimBuilder::new(cfg);
            b.add_process(PutLineClient::to(
                opts.n_per_client,
                opcsp_core::ProcessId(2),
            ));
            b.add_process(PutLineClient::to(
                opts.n_per_client,
                opcsp_core::ProcessId(2),
            ));
            b.add_process(Server::new("S", 1));
            b.build().run()
        };
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
    let opt = run_streaming(o.clone());
    let pess = run_streaming(StreamingOpts {
        core: CoreConfig::pessimistic(),
        ..o
    });
    assert!(opt.unresolved.is_empty());
    assert!(opt.stats().rollbacks > 0, "the faults roll the stream back");
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}

#[test]
fn targeted_control_at_scale() {
    let o = ChainOpts {
        depth: 6,
        n: 10,
        latency: 12,
        core: CoreConfig {
            targeted_control: true,
            ..CoreConfig::default()
        },
        ..ChainOpts::default()
    };
    let r = run_chain(o.clone());
    assert!(r.unresolved.is_empty());
    let pess = run_chain(ChainOpts {
        core: o.core.clone().with_speculation(SpeculationPolicy::Pessimistic),
        ..o
    });
    let rep = check_equivalence(&pess, &r);
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
