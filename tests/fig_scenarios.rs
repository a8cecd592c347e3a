//! Integration tests reproducing the executions of Figures 2–5 (the
//! Update/Write example) with qualitative assertions on the protocol's
//! behavior: who forks, who commits, who aborts, where rollbacks land and
//! which messages are orphaned.

use opcsp_core::CoreConfig;
use opcsp_sim::{check_equivalence, TraceEvent};
use opcsp_workloads::update_write::{
    fig3_latency, fig4_latency, run_update_write, UpdateWriteOpts, X, Y, Z,
};

/// Figure 2: no call streaming — the pessimistic baseline. Six message
/// hops strictly in sequence; completion ≈ 6d.
#[test]
fn fig2_pessimistic_is_strictly_serial() {
    let d = 50;
    let r = run_update_write(UpdateWriteOpts {
        core: CoreConfig::pessimistic(),
        latency: fig4_latency(d),
        ..UpdateWriteOpts::default()
    });
    assert!(r.unresolved.is_empty());
    assert_eq!(r.stats().forks, 0);
    assert_eq!(r.stats().aborts, 0);
    assert_eq!(r.stats().rollbacks, 0);
    // C1, C2, R2, R1, C3, R3: six one-way hops of latency d each.
    assert_eq!(r.stats().data_messages, 6);
    assert!(
        r.completion >= 6 * d,
        "serial execution cannot beat 6 hops: {} < {}",
        r.completion,
        6 * d
    );
    // Every send strictly follows the preceding return.
    let sends: Vec<_> = r
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send { t, label, .. } => Some((*t, label.clone())),
            _ => None,
        })
        .collect();
    let order: Vec<&str> = sends.iter().map(|(_, l)| &**l).collect();
    assert_eq!(order, vec!["C1", "C2", "R2", "R1", "C3", "R3"]);
}

/// Figure 3: successful call streaming. X's speculative Write to Z
/// overlaps the Update round trip; the guess commits; completion beats the
/// serial run substantially.
#[test]
fn fig3_successful_streaming_overlaps_and_commits() {
    let d = 50;
    let opts = UpdateWriteOpts {
        latency: fig3_latency(d),
        ..UpdateWriteOpts::default()
    };
    let r = run_update_write(opts.clone());
    assert!(r.unresolved.is_empty());
    assert_eq!(r.stats().forks, 1);
    assert_eq!(
        r.stats().aborts,
        0,
        "figure 3 must not abort:\n{}",
        r.trace.render_timeline(&[X, Y, Z])
    );
    assert_eq!(r.stats().value_faults, 0);
    assert_eq!(r.stats().time_faults, 0);
    assert!(!r.trace.committed_guesses().is_empty());

    // C3 is sent while C1's round trip is still in flight (before R1 is
    // ever sent) — the overlap of Figure 3.
    let t_c3_send = r
        .trace
        .iter()
        .find_map(|e| match e {
            TraceEvent::Send { t, label, .. } if &**label == "C3" => Some(*t),
            _ => None,
        })
        .expect("C3 sent");
    let t_r1_send = r
        .trace
        .iter()
        .find_map(|e| match e {
            TraceEvent::Send { t, label, .. } if &**label == "R1" => Some(*t),
            _ => None,
        })
        .expect("R1 sent");
    assert!(
        t_c3_send < t_r1_send,
        "speculative C3 ({t_c3_send}) must precede R1 ({t_r1_send})"
    );

    // And it beats the pessimistic run.
    let base = run_update_write(UpdateWriteOpts {
        core: CoreConfig::pessimistic(),
        ..opts
    });
    assert!(
        r.completion < base.completion,
        "streaming {} should beat serial {}",
        r.completion,
        base.completion
    );
}

/// Figure 3's correctness side: the committed observable traces equal the
/// pessimistic ones (Theorem 1 on this scenario).
#[test]
fn fig3_traces_match_pessimistic() {
    let opts = UpdateWriteOpts::default();
    let opt = run_update_write(opts.clone());
    let pess = run_update_write(UpdateWriteOpts {
        core: CoreConfig::pessimistic(),
        ..opts
    });
    let rep = check_equivalence(&pess, &opt);
    assert!(
        rep.equivalent,
        "trace mismatch: {:#?}\noptimistic timeline:\n{}",
        rep.mismatches,
        opt.trace.render_timeline(&[X, Y, Z])
    );
}

/// Figure 4: with symmetric latencies X's speculative C3 reaches Z before
/// Y's C2 — a time fault. x1 aborts, Z and Y roll back, the write
/// re-executes cleanly, and the final traces still match the baseline.
#[test]
fn fig4_time_fault_detected_and_recovered() {
    let d = 50;
    let opts = UpdateWriteOpts {
        latency: fig4_latency(d),
        ..UpdateWriteOpts::default()
    };
    let r = run_update_write(opts.clone());
    assert!(r.unresolved.is_empty());
    assert_eq!(r.stats().forks, 1);
    assert!(
        r.stats().time_faults >= 1,
        "expected a time fault:\n{}",
        r.trace.render_timeline(&[X, Y, Z])
    );
    assert!(r.stats().aborts >= 1);
    assert!(r.stats().rollbacks >= 1, "Z (and Y) must roll back");
    // The aborted guess is X's x1.
    let aborted = r.trace.aborted_guesses();
    assert!(aborted.iter().any(|g| g.process == X && g.index == 1));
    // Orphans were discarded (the contaminated R3/R2 or the requeued C3).
    assert!(r.stats().orphans >= 1);

    // Despite the fault, the committed traces equal the pessimistic run.
    let pess = run_update_write(UpdateWriteOpts {
        core: CoreConfig::pessimistic(),
        ..opts
    });
    let rep = check_equivalence(&pess, &r);
    assert!(
        rep.equivalent,
        "post-recovery mismatch: {:#?}\ntimeline:\n{}",
        rep.mismatches,
        r.trace.render_timeline(&[X, Y, Z])
    );
}

/// Figure 5: the Update fails (returns false) — a value fault. The guess
/// aborts, the speculative Write is undone at Z (C3 orphaned after
/// rollback), and S2 re-executes sequentially, correctly skipping the
/// Write.
#[test]
fn fig5_value_fault_rolls_back_and_reexecutes() {
    let d = 50;
    let opts = UpdateWriteOpts {
        update_succeeds: false,
        latency: fig3_latency(d),
        ..UpdateWriteOpts::default()
    };
    let r = run_update_write(opts.clone());
    assert!(r.unresolved.is_empty());
    assert_eq!(
        r.stats().value_faults,
        1,
        "timeline:\n{}",
        r.trace.render_timeline(&[X, Y, Z])
    );
    assert!(r.stats().aborts >= 1);
    // Z rolled back (it had speculatively performed the Write).
    assert!(
        r.trace.iter().any(|e| matches!(
            e,
            TraceEvent::Rollback { thread, .. } if thread.process == Z
        )),
        "Z must roll back:\n{}",
        r.trace.render_timeline(&[X, Y, Z])
    );
    // The final trace matches the pessimistic run: no committed Write.
    let pess = run_update_write(UpdateWriteOpts {
        core: CoreConfig::pessimistic(),
        ..opts
    });
    let rep = check_equivalence(&pess, &r);
    assert!(rep.equivalent, "mismatch: {:#?}", rep.mismatches);
    // X's committed log contains no C3 send.
    let xlog = &r.logs[&X];
    assert!(
        !xlog.iter().any(|o| matches!(
            o,
            opcsp_sim::Observable::Sent { to, .. } if *to == Z
        )),
        "failed Update must suppress the Write"
    );
}

/// The same scenario parameters always produce the same trace — the
/// simulator is deterministic.
#[test]
fn runs_are_deterministic() {
    let opts = UpdateWriteOpts {
        latency: fig4_latency(25),
        ..UpdateWriteOpts::default()
    };
    let a = run_update_write(opts.clone());
    let b = run_update_write(opts);
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.trace.events.len(), b.trace.events.len());
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.logs, b.logs);
}
