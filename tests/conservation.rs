//! Message conservation across every scenario: committed sends and
//! receives balance exactly, even through rollbacks, orphan discards and
//! thread discards — a global sanity invariant on the engine's log
//! truncation.

use opcsp_core::CoreConfig;
use opcsp_sim::check_conservation;
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::contention::{run_contention, ContentionOpts};
use opcsp_workloads::streaming::{StreamingOpts, TallyOpts};
use opcsp_workloads::two_clients::{run_fig6, run_fig7};
use opcsp_workloads::update_write::{
    fig3_latency, fig4_latency, run_update_write, UpdateWriteOpts,
};
use std::collections::BTreeSet;

#[test]
fn conservation_on_clean_scenarios() {
    check_conservation(&run_update_write(UpdateWriteOpts::default())).unwrap();
    check_conservation(&Spec::Stream(StreamingOpts::default()).simulate()).unwrap();
    check_conservation(&run_fig6(CoreConfig::default(), 40)).unwrap();
    check_conservation(&Spec::Chain(ChainOpts::default()).simulate()).unwrap();
    check_conservation(&run_contention(ContentionOpts::default())).unwrap();
}

#[test]
fn conservation_survives_time_faults() {
    let r = run_update_write(UpdateWriteOpts {
        latency: fig4_latency(50),
        ..UpdateWriteOpts::default()
    });
    assert!(r.stats().time_faults >= 1);
    check_conservation(&r).unwrap();

    let f7 = run_fig7(CoreConfig::default(), 40);
    assert!(f7.stats().time_faults >= 1);
    check_conservation(&f7).unwrap();
}

#[test]
fn conservation_survives_value_faults_and_cascades() {
    let r = run_update_write(UpdateWriteOpts {
        update_succeeds: false,
        latency: fig3_latency(50),
        ..UpdateWriteOpts::default()
    });
    assert!(r.stats().value_faults >= 1);
    check_conservation(&r).unwrap();

    let s = Spec::Stream(StreamingOpts {
        fail_lines: BTreeSet::from([2, 9]),
        n: 12,
        ..StreamingOpts::default()
    })
    .simulate();
    check_conservation(&s).unwrap();

    let c = Spec::Chain(ChainOpts {
        fail_items: BTreeSet::from([1]),
        depth: 3,
        n: 3,
        ..ChainOpts::default()
    })
    .simulate();
    check_conservation(&c).unwrap();
}

#[test]
fn conservation_under_heavy_abort_rates() {
    for p in [200u32, 600, 1000] {
        let r = Spec::Tally(TallyOpts {
            n: 24,
            p_per_mille: p,
            ..TallyOpts::default()
        })
        .simulate();
        assert!(r.unresolved.is_empty());
        check_conservation(&r).unwrap_or_else(|e| panic!("imbalance at p={p}: {e}"));
    }
}

/// A fault halfway down a 20-call stream rolls the pipeline behind it back
/// to its boundary snapshots.
#[test]
fn conservation_with_sparse_checkpoints() {
    let r = Spec::Stream(StreamingOpts {
        n: 20,
        fail_lines: BTreeSet::from([10]),
        ..StreamingOpts::default()
    })
    .simulate();
    check_conservation(&r).unwrap();
}

// ---------------------------------------------------------------------
// Trace audits (structural invariants) across the same scenarios.
// ---------------------------------------------------------------------

mod audits {
    use super::*;
    use opcsp_sim::assert_audit_clean;

    #[test]
    fn audits_pass_on_all_scenarios() {
        assert_audit_clean(&run_update_write(UpdateWriteOpts::default()).trace);
        assert_audit_clean(
            &run_update_write(UpdateWriteOpts {
                latency: fig4_latency(50),
                ..UpdateWriteOpts::default()
            })
            .trace,
        );
        assert_audit_clean(
            &run_update_write(UpdateWriteOpts {
                update_succeeds: false,
                latency: fig3_latency(50),
                ..UpdateWriteOpts::default()
            })
            .trace,
        );
        assert_audit_clean(&Spec::Stream(StreamingOpts::default()).simulate().trace);
        assert_audit_clean(
            &Spec::Stream(StreamingOpts {
                fail_lines: BTreeSet::from([3]),
                ..StreamingOpts::default()
            })
            .simulate()
            .trace,
        );
        assert_audit_clean(&run_fig6(CoreConfig::default(), 40).trace);
        assert_audit_clean(&run_fig7(CoreConfig::default(), 40).trace);
        assert_audit_clean(&Spec::Chain(ChainOpts::default()).simulate().trace);
        assert_audit_clean(
            &Spec::Tally(TallyOpts {
                n: 24,
                p_per_mille: 400,
                ..TallyOpts::default()
            })
            .simulate()
            .trace,
        );
    }
}
