//! Figures 6 and 7: two optimistically parallelized processes whose
//! guesses interact — PRECEDENCE resolution on success, cycle detection
//! and mutual abort on a genuine happens-before violation.

use opcsp_core::{Control, CoreConfig};
use opcsp_sim::{check_equivalence, TraceEvent};
use opcsp_workloads::two_clients::{run_fig6, run_fig7, W, X, Y, Z};

/// Figure 6: Z's guess z1 depends on X's x1 (via M1{x1}); Z broadcasts
/// PRECEDENCE(z1, {x1}) and awaits; COMMIT(x1) releases z1; COMMIT(z1)
/// releases W's buffered output. Nothing aborts.
#[test]
fn fig6_precedence_chain_commits() {
    let r = run_fig6(CoreConfig::default(), 40);
    let timeline = || r.trace.render_timeline(&[X, Y, Z, W]);
    assert!(
        r.unresolved.is_empty(),
        "unresolved: {:?}\n{}",
        r.unresolved,
        timeline()
    );
    assert_eq!(r.stats().forks, 2, "{}", timeline());
    assert_eq!(r.stats().aborts, 0, "{}", timeline());
    assert_eq!(r.stats().time_faults, 0, "{}", timeline());

    // Z sent PRECEDENCE(z1, {x1}).
    let prec = r.trace.iter().find_map(|e| match e {
        TraceEvent::ControlSent {
            from,
            ctrl: Control::Precedence(g, guard),
            ..
        } => Some((*from, *g, guard.clone())),
        _ => None,
    });
    let (from, g, guard) = prec.expect("a PRECEDENCE message must be sent");
    assert_eq!(from, Z);
    assert_eq!(g.process, Z);
    assert!(
        guard.iter().any(|g| g.process == X),
        "z1 awaits x1: {guard}"
    );

    // Both guesses eventually commit; x1 commits before z1.
    let committed = r.trace.committed_guesses();
    let x1_pos = committed.iter().position(|g| g.process == X);
    let z1_pos = committed.iter().position(|g| g.process == Z);
    assert!(x1_pos.is_some() && z1_pos.is_some(), "{}", timeline());
    assert!(x1_pos < z1_pos, "x1 must commit before z1: {committed:?}");

    // W's display output was buffered (guarded by z1) and released only
    // after the commit wave.
    assert!(
        r.trace.iter().any(|e| matches!(
            e,
            TraceEvent::External { from, buffered: true, .. } if *from == W
        )),
        "W's output must be buffered until commit:\n{}",
        timeline()
    );
    // Two outputs: the C2 payload (guarded by x1) and M2's data (guarded
    // by z1) — both held back until the commit wave reaches W.
    assert_eq!(r.external.len(), 2);
}

/// Figure 6 parallelism claim: Z starts its work (the C2 call) before X's
/// own round trip completes, and the whole system finishes faster than the
/// pessimistic execution.
#[test]
fn fig6_overlap_beats_pessimistic() {
    let d = 40;
    let opt = run_fig6(CoreConfig::default(), d);
    let pess = run_fig6(CoreConfig::pessimistic(), d);
    assert!(
        opt.completion < pess.completion,
        "optimistic {} vs pessimistic {}",
        opt.completion,
        pess.completion
    );
    // Z's C2 is sent before X receives R1.
    let t_c2 = opt.trace.iter().find_map(|e| match e {
        TraceEvent::Send { t, label, .. } if &**label == "C2" => Some(*t),
        _ => None,
    });
    let t_r1_recv = opt.trace.iter().find_map(|e| match e {
        TraceEvent::Deliver { t, label, to, .. } if &**label == "R1" && to.process == X => Some(*t),
        _ => None,
    });
    assert!(t_c2.unwrap() < t_r1_recv.unwrap());
}

/// Figure 6 correctness: committed logs equal the pessimistic run's.
#[test]
fn fig6_traces_match_pessimistic() {
    let opt = run_fig6(CoreConfig::default(), 40);
    let pess = run_fig6(CoreConfig::pessimistic(), 40);
    let rep = check_equivalence(&pess, &opt);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
    assert_eq!(opt.external, {
        // External payloads match (times differ).
        opt.external.clone()
    });
    let pess_payloads: Vec<_> = pess
        .external
        .iter()
        .map(|(_, p, v)| (*p, v.clone()))
        .collect();
    let opt_payloads: Vec<_> = opt
        .external
        .iter()
        .map(|(_, p, v)| (*p, v.clone()))
        .collect();
    assert_eq!(pess_payloads, opt_payloads);
}

/// Figure 7: the crossing speculative sends create the genuine cycle
/// z1 → x1 → z1. Both processes detect it via PRECEDENCE, both guesses
/// abort, Y and W roll back, and sequential re-execution produces the
/// pessimistic trace.
#[test]
fn fig7_cycle_detected_both_abort_and_recover() {
    let d = 40;
    let r = run_fig7(CoreConfig::default(), d);
    let timeline = || r.trace.render_timeline(&[X, Y, Z, W]);
    assert!(
        r.unresolved.is_empty(),
        "unresolved: {:?}\n{}",
        r.unresolved,
        timeline()
    );
    assert!(
        r.stats().time_faults >= 1,
        "cycle must be detected:\n{}",
        timeline()
    );

    // Both x1 and z1 abort.
    let aborted = r.trace.aborted_guesses();
    assert!(
        aborted.iter().any(|g| g.process == X),
        "x1 must abort, got {aborted:?}\n{}",
        timeline()
    );
    assert!(
        aborted.iter().any(|g| g.process == Z),
        "z1 must abort, got {aborted:?}\n{}",
        timeline()
    );

    // Both servers roll back (they consumed contaminated sends).
    let rolled: Vec<_> = r
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Rollback { thread, .. } => Some(thread.process),
            _ => None,
        })
        .collect();
    assert!(
        rolled.contains(&Y),
        "Y must roll back: {rolled:?}\n{}",
        timeline()
    );
    assert!(
        rolled.contains(&W),
        "W must roll back: {rolled:?}\n{}",
        timeline()
    );

    // Recovery: committed logs equal the pessimistic execution.
    let pess = run_fig7(CoreConfig::pessimistic(), d);
    let rep = check_equivalence(&pess, &r);
    assert!(rep.equivalent, "{:#?}\n{}", rep.mismatches, timeline());
}

/// Figure 7 in pessimistic mode has no faults at all — the cycle is an
/// artifact of speculation, not of the program.
#[test]
fn fig7_pessimistic_baseline_is_clean() {
    let r = run_fig7(CoreConfig::pessimistic(), 40);
    assert_eq!(r.stats().forks, 0);
    assert_eq!(r.stats().aborts, 0);
    assert_eq!(r.stats().rollbacks, 0);
    assert!(r.unresolved.is_empty());
}
