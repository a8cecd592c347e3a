//! Golden tests: the exact message sequences of the paper's figures,
//! pinned label by label and guard by guard. Any protocol change that
//! alters these executions must be deliberate.

use opcsp_core::{CoreConfig, Guard, GuessId, ProcessId};
use opcsp_sim::TraceEvent;
use opcsp_workloads::update_write::{
    fig3_latency, fig4_latency, run_update_write, UpdateWriteOpts, X,
};

fn x1() -> GuessId {
    GuessId::first(X, 1)
}

/// (label, guard) pairs of every data-message send, in send order.
fn send_sequence(r: &opcsp_sim::SimResult) -> Vec<(opcsp_core::Label, Guard)> {
    r.trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send { label, guard, .. } => Some((label.clone(), guard.clone())),
            _ => None,
        })
        .collect()
}

#[test]
fn fig3_send_sequence_golden() {
    let r = run_update_write(UpdateWriteOpts {
        latency: fig3_latency(50),
        ..UpdateWriteOpts::default()
    });
    let seq = send_sequence(&r);
    let expected: Vec<(opcsp_core::Label, Guard)> = vec![
        ("C1".into(), Guard::empty()),      // left thread's Update
        ("C3".into(), Guard::single(x1())), // speculative Write
        ("C2".into(), Guard::empty()),      // Y's write-through
        ("R2".into(), Guard::empty()),
        ("R3".into(), Guard::single(x1())), // Z picked up x1 from C3
        ("R1".into(), Guard::empty()),
    ];
    assert_eq!(seq, expected, "figure 3 message sequence changed");
    // Exactly one commit of x1 at the owner, none aborted.
    assert_eq!(r.trace.committed_guesses(), vec![x1()]);
    assert!(r.trace.aborted_guesses().is_empty());
}

#[test]
fn fig4_contamination_golden() {
    let r = run_update_write(UpdateWriteOpts {
        latency: fig4_latency(50),
        ..UpdateWriteOpts::default()
    });
    let seq = send_sequence(&r);
    // The pre-fault prefix: C1{} and C3{x1} leave X; Z (contaminated by
    // C3) replies R3{x1}; then services C2 — so R2 carries {x1}; Y's R1
    // carries {x1} too. The early-return check kills x1 on R1's arrival.
    let prefix: Vec<(opcsp_core::Label, Guard)> = vec![
        ("C1".into(), Guard::empty()),
        ("C3".into(), Guard::single(x1())),
        ("C2".into(), Guard::empty()),      // Y forwards concurrently
        ("R3".into(), Guard::single(x1())), // Z answered the racing C3 first
        ("R2".into(), Guard::single(x1())), // …so its reply to Y is tainted
        ("R1".into(), Guard::single(x1())), // …and Y's reply to X closes the cycle
    ];
    assert_eq!(
        &seq[..6],
        &prefix[..],
        "figure 4 contamination prefix changed"
    );
    // Recovery: Z re-serves C2 cleanly and the Write re-executes: the tail
    // must contain a clean R2, R1, then C3/R3 with empty guards.
    let tail: Vec<&(opcsp_core::Label, Guard)> = seq[6..].iter().collect();
    assert!(
        tail.iter().any(|(l, g)| &**l == "R1" && g.is_empty()),
        "clean R1 after recovery: {tail:?}"
    );
    assert!(
        tail.iter().any(|(l, g)| &**l == "C3" && g.is_empty()),
        "sequential Write after abort: {tail:?}"
    );
    assert_eq!(r.trace.aborted_guesses(), vec![x1()]);
    assert!(r.trace.committed_guesses().is_empty());
}

#[test]
fn fig5_orphan_golden() {
    let r = run_update_write(UpdateWriteOpts {
        update_succeeds: false,
        latency: fig3_latency(50),
        ..UpdateWriteOpts::default()
    });
    // The speculative C3 (and only speculative traffic) is orphaned.
    let orphans: Vec<(ProcessId, opcsp_core::Label)> = r
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Orphan { at, label, .. } => Some((*at, label.clone())),
            _ => None,
        })
        .collect();
    assert!(
        orphans.iter().all(|(_, l)| &**l == "C3" || &**l == "R3"),
        "only speculative messages may be orphaned: {orphans:?}"
    );
    assert!(!orphans.is_empty());
    // The committed sends never include a Write.
    let committed_labels: Vec<String> = r
        .logs
        .values()
        .flatten()
        .filter_map(|o| match o {
            opcsp_sim::Observable::Sent { payload, .. } => Some(payload.to_string()),
            _ => None,
        })
        .collect();
    assert!(
        !committed_labels.iter().any(|p| p.contains("file-data")),
        "the Write payload must not commit: {committed_labels:?}"
    );
}

#[test]
fn fig2_has_no_speculative_traffic() {
    let r = run_update_write(UpdateWriteOpts {
        core: CoreConfig::pessimistic(),
        latency: fig4_latency(50),
        ..UpdateWriteOpts::default()
    });
    for (label, guard) in send_sequence(&r) {
        assert!(
            guard.is_empty(),
            "{label} carries {guard} in a sequential run"
        );
    }
}
