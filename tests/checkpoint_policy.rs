//! Sparse checkpointing with replay (§3.1): "a process may take less
//! frequent checkpoints, and log input messages, restoring the state by
//! resuming from the checkpoint and replaying the logged messages ...
//! The particular technique used for rollback is a performance tuning
//! decision and does not affect the correctness of the transformation."

use opcsp_core::CoreConfig;
use opcsp_sim::check_equivalence;
use opcsp_workloads::streaming::{delivered_lines, run_streaming, StreamingOpts};
use std::collections::BTreeSet;

fn faulty(n: u32, k: u32) -> StreamingOpts {
    StreamingOpts {
        n,
        latency: 50,
        fail_lines: BTreeSet::from([n / 2]),
        checkpoint_every: k,
        ..Default::default()
    }
}

#[test]
fn sparse_checkpoints_do_not_change_outcomes() {
    let dense = run_streaming(faulty(16, 1));
    for k in [2u32, 4, 8, 32] {
        let sparse = run_streaming(faulty(16, k));
        assert!(sparse.unresolved.is_empty(), "k={k}");
        assert_eq!(dense.completion, sparse.completion, "k={k}");
        assert_eq!(dense.logs, sparse.logs, "k={k}: committed traces differ");
        assert_eq!(delivered_lines(&sparse), delivered_lines(&dense), "k={k}");
        assert_eq!(
            dense.stats().aborts,
            sparse.stats().aborts,
            "k={k}: protocol behavior must be identical"
        );
    }
}

#[test]
fn sparse_checkpoints_trade_snapshots_for_replay() {
    let dense = run_streaming(faulty(24, 1));
    let sparse = run_streaming(faulty(24, 8));
    assert!(
        sparse.stats().checkpoints_taken < dense.stats().checkpoints_taken,
        "sparse {} vs dense {}",
        sparse.stats().checkpoints_taken,
        dense.stats().checkpoints_taken
    );
    assert_eq!(
        dense.stats().replayed_steps,
        0,
        "dense restores need no replay"
    );
    assert!(
        sparse.stats().replayed_steps > 0,
        "sparse restores must replay logged resumes"
    );
}

#[test]
fn replay_equivalence_against_pessimistic() {
    let opt = run_streaming(faulty(16, 8));
    let pess = run_streaming(StreamingOpts {
        core: CoreConfig::pessimistic(),
        ..faulty(16, 8)
    });
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}

#[test]
fn no_fault_runs_are_unaffected_by_policy() {
    let a = run_streaming(StreamingOpts {
        checkpoint_every: 1,
        ..StreamingOpts::default()
    });
    let b = run_streaming(StreamingOpts {
        checkpoint_every: 16,
        ..StreamingOpts::default()
    });
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.logs, b.logs);
    assert_eq!(b.stats().replayed_steps, 0, "no rollback, no replay");
    assert!(b.stats().checkpoints_taken < a.stats().checkpoints_taken);
}
