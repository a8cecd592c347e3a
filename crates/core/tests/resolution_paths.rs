//! Integration-grade tests of `ProcessCore`'s resolution machinery on
//! paths the scenario suites exercise only incidentally: multi-incarnation
//! reuse, precedence graphs without cycles, commit cascades across
//! processes, and bookkeeping after repeated abort/re-fork rounds.

use opcsp_core::{
    ArrivalVerdict, CoreConfig, DataKind, Envelope, Guard, GuessId, Incarnation, JoinDecision,
    MsgId, ProcessCore, ProcessId, Value,
};

fn env(to: u32, guard: Guard) -> Envelope {
    Envelope {
        id: MsgId(0),
        from: ProcessId(9),
        from_thread: 0,
        to: ProcessId(to),
        guard,
        table_acks: vec![],
        kind: DataKind::Send,
        payload: Value::Unit,
        label: "M".into(),
        link_seq: 0,
    }
}

fn g(p: u32, n: u32) -> GuessId {
    GuessId::first(ProcessId(p), n)
}

#[test]
fn refork_after_abort_uses_next_incarnation() {
    let mut c = ProcessCore::new(ProcessId(0), CoreConfig::default());
    let r1 = c.fork(0, 1);
    assert_eq!(r1.guess.incarnation, Incarnation(0));
    assert_eq!(r1.guess.index, 1);
    // Value fault → abort; incarnation bumps; index resets.
    assert!(matches!(
        c.join_left_done(r1.guess, false),
        JoinDecision::Abort { .. }
    ));
    let r2 = c.fork(0, 1);
    assert_eq!(r2.guess.incarnation, Incarnation(1));
    assert_eq!(r2.guess.index, 1, "thread index reset to the aborted index");
    // The new guess commits cleanly.
    assert!(matches!(
        c.join_left_done(r2.guess, true),
        JoinDecision::Commit { .. }
    ));
    assert!(c.history.is_committed(r2.guess));
    assert!(c.history.is_aborted(r1.guess));
}

#[test]
fn stale_incarnation_messages_are_orphans_after_refork() {
    let mut c = ProcessCore::new(ProcessId(2), CoreConfig::default());
    // Learn that x aborted fork 1 (incarnation 1 starts at 1).
    c.history.record_abort(g(0, 1));
    // A lingering message guarded by the old incarnation's later guess.
    let stale = env(2, Guard::single(g(0, 2)));
    assert!(matches!(
        c.classify_arrival(&stale),
        ArrivalVerdict::Orphan(_)
    ));
    // The re-executed fork's guess (incarnation 1) is deliverable.
    let fresh = env(
        2,
        Guard::single(GuessId::new(ProcessId(0), Incarnation(1), 1)),
    );
    assert!(matches!(c.classify_arrival(&fresh), ArrivalVerdict::Ok));
}

#[test]
fn run_tag_reveals_stale_incarnation_orphans() {
    // A tag's runs name their incarnations, so the tag alone teaches the
    // receiver that x restarted — what §4.1.5's table rows would have told
    // it — and a lingering message from x's dead incarnation is an orphan.
    let mut c = ProcessCore::new(ProcessId(2), CoreConfig::default());
    let fresh = env(
        2,
        Guard::from_iter([
            g(0, 1),
            GuessId::new(ProcessId(0), Incarnation(1), 2),
            GuessId::new(ProcessId(0), Incarnation(1), 3),
        ]),
    );
    assert!(matches!(c.classify_arrival(&fresh), ArrivalVerdict::Ok));
    assert_eq!(fresh.guard.runs().len(), 2);
    // Incarnation 1 starts at 2: incarnation-0 guesses from index 2 up are
    // orphans, x_{0,1} is not.
    let stale = env(2, Guard::single(g(0, 2)));
    assert!(matches!(
        c.classify_arrival(&stale),
        ArrivalVerdict::Orphan(_)
    ));
    assert!(matches!(
        c.classify_arrival(&env(2, Guard::single(g(0, 1)))),
        ArrivalVerdict::Ok
    ));
}

#[test]
fn three_process_commit_cascade() {
    // Server S's guard holds {x1, y1}; COMMIT(x1) then COMMIT(y1) empty it
    // step by step.
    let mut s = ProcessCore::new(ProcessId(2), CoreConfig::default());
    s.deliver(0, &env(2, Guard::from_iter([g(0, 1), g(1, 1)])));
    assert_eq!(s.thread(0).guard.len(), 2);
    s.on_commit(g(0, 1));
    assert_eq!(s.history.uncommitted(&s.thread(0).guard).len(), 1);
    assert!(!s.is_committed(0));
    s.on_commit(g(1, 1));
    assert!(s.is_committed(0));
}

#[test]
fn precedence_without_cycle_only_records_edges() {
    let mut c = ProcessCore::new(ProcessId(3), CoreConfig::default());
    // Bystander process learns z1 awaits {x1, y1}: edges only, no effects.
    c.deliver(0, &env(3, Guard::single(g(2, 1))));
    let eff = c.on_precedence(g(2, 1), &Guard::from_iter([g(0, 1), g(1, 1)]));
    assert!(eff.is_empty());
    assert!(c.cdg.has_edge(g(0, 1), g(2, 1)));
    assert!(c.cdg.has_edge(g(1, 1), g(2, 1)));
    // Committing z1 implies its predecessors committed (§4.2.6).
    c.on_commit(g(2, 1));
    assert!(c.history.is_committed(g(0, 1)));
    assert!(c.history.is_committed(g(1, 1)));
    assert!(c.is_committed(0));
}

#[test]
fn precedence_about_unknown_guesses_is_ignored_gracefully() {
    let mut c = ProcessCore::new(ProcessId(3), CoreConfig::default());
    // Neither subject nor members are in our CDG: §4.2.8's relevance
    // filter ("if either g or x_n is a node of the CDG").
    let eff = c.on_precedence(g(7, 1), &Guard::single(g(6, 2)));
    assert!(eff.is_empty());
    assert!(!c.cdg.has_edge(g(6, 2), g(7, 1)));
}

#[test]
fn deep_fork_chain_partial_abort() {
    // Forks x1..x4; x3 aborts: x4 dies with it, x1/x2 stand, max_thread
    // resets to 2 so the re-fork gets index 3.
    let mut c = ProcessCore::new(ProcessId(0), CoreConfig::default());
    let r1 = c.fork(0, 1);
    let r2 = c.fork(1, 1);
    let r3 = c.fork(2, 1);
    let r4 = c.fork(3, 1);
    let eff = c.on_abort(r3.guess);
    assert!(eff.own_aborted.contains(&r3.guess));
    assert!(eff.own_aborted.contains(&r4.guess));
    assert!(!eff.own_aborted.contains(&r1.guess));
    assert!(!eff.own_aborted.contains(&r2.guess));
    assert!(eff.discard_threads.contains(&3));
    assert!(eff.discard_threads.contains(&4));
    assert_eq!(c.max_thread, 2);
    let refork = c.fork(2, 1);
    assert_eq!(refork.guess.index, 3);
    assert_eq!(refork.guess.incarnation, Incarnation(1));
    // Earlier guesses still resolve normally.
    assert!(matches!(
        c.join_left_done(r1.guess, true),
        JoinDecision::Commit { .. }
    ));
}

#[test]
fn commit_then_stale_abort_is_ignored() {
    let mut s = ProcessCore::new(ProcessId(2), CoreConfig::default());
    s.deliver(0, &env(2, Guard::single(g(0, 1))));
    s.on_commit(g(0, 1));
    assert!(s.is_committed(0));
    // A late ABORT for the already-committed guess must not roll back
    // (resolution exclusivity is the sender's responsibility; receivers
    // treat the first resolution as final for their own state).
    let eff = s.on_abort(g(0, 1));
    assert!(eff.rollback_threads.is_empty(), "{eff:?}");
    assert!(eff.discard_threads.is_empty());
}

#[test]
fn delivery_to_forked_threads_tracks_intervals_independently() {
    let mut c = ProcessCore::new(ProcessId(0), CoreConfig::default());
    let r = c.fork(0, 1);
    c.deliver(r.left_thread, &env(0, Guard::single(g(1, 1))));
    c.deliver(r.right_thread, &env(0, Guard::single(g(2, 1))));
    assert_eq!(c.thread(r.left_thread).interval, 1);
    assert_eq!(c.thread(r.right_thread).interval, 1);
    assert!(c.thread(r.left_thread).guard.contains(g(1, 1)));
    assert!(!c.thread(r.left_thread).guard.contains(g(2, 1)));
    assert!(c.thread(r.right_thread).guard.contains(g(2, 1)));
    // The right thread still carries its own guess.
    assert!(c.thread(r.right_thread).guard.contains(r.guess));
}

#[test]
fn own_guess_registry_reflects_lifecycle() {
    let mut c = ProcessCore::new(ProcessId(0), CoreConfig::default());
    assert_eq!(c.pending_own_guesses(), 0);
    let r1 = c.fork(0, 1);
    let _r2 = c.fork(1, 2);
    assert_eq!(c.pending_own_guesses(), 2);
    c.join_left_done(r1.guess, true);
    assert_eq!(c.pending_own_guesses(), 1);
    assert_eq!(
        c.own_guess(r1.guess).map(|o| o.state),
        Some(opcsp_core::OwnGuessState::Committed)
    );
}
