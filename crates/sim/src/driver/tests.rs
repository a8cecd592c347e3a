//! The driver against a scripted in-memory environment: no threads, no
//! clock, no network — the substitution the [`Env`] interface exists for.
//! What is pinned here holds for every engine, because every engine runs
//! this code.

use super::*;
use crate::behavior::FnBehavior;
use std::collections::VecDeque;

const P0: ProcessId = ProcessId(0);
const P1: ProcessId = ProcessId(1);
const P2: ProcessId = ProcessId(2);
const P3: ProcessId = ProcessId(3);

/// Records everything the driver asks for; runs resumes only when told to.
#[derive(Default)]
struct Fake {
    ids: u64,
    data: Vec<Envelope>,
    ctrl: Vec<(ProcessId, Control)>,
    ready: VecDeque<(ThreadId, Resume)>,
    cancelled: Vec<ThreadId>,
    timers: Vec<GuessId>,
    external: Vec<Value>,
    tele: Telemetry,
}

impl Env for Fake {
    fn now(&self) -> u64 {
        0
    }
    fn next_msg_id(&mut self) -> MsgId {
        self.ids += 1;
        MsgId(1000 + self.ids)
    }
    fn next_call_id(&mut self) -> CallId {
        self.ids += 1;
        CallId(self.ids)
    }
    fn send_data(&mut self, msg: Envelope) -> u32 {
        self.data.push(msg);
        0
    }
    fn send_control(&mut self, from: ProcessId, to: ProcessId, ctrl: Control) {
        assert_eq!(from, P0);
        self.ctrl.push((to, ctrl));
    }
    fn resume(&mut self, thread: ThreadId, _after: After, resume: Resume) {
        self.ready.push_back((thread, resume));
    }
    fn cancel_resumes(&mut self, thread: ThreadId) {
        self.ready.retain(|(t, _)| *t != thread);
        self.cancelled.push(thread);
    }
    fn arm_fork_timer(&mut self, guess: GuessId) {
        self.timers.push(guess);
    }
    fn release_external(&mut self, _from: ProcessId, payload: Value) {
        self.external.push(payload);
    }
    fn telemetry(&mut self) -> &mut Telemetry {
        &mut self.tele
    }
    fn trace(&mut self, _ev: impl FnOnce(u64) -> TraceEvent) {}
}

impl Fake {
    /// Start `d`'s initial thread and run it to its first blocking point.
    fn start(d: &mut Driver) -> Fake {
        let mut fake = Fake::default();
        fake.ready.push_back((thread(0), Resume::Start));
        fake.run(d);
        fake
    }

    fn run(&mut self, d: &mut Driver) {
        while let Some((th, resume)) = self.ready.pop_front() {
            d.step(self, th.index, resume);
        }
    }

    /// Deliver `m` from the network and run to quiescence.
    fn arrive(&mut self, d: &mut Driver, m: Envelope) {
        d.on_data(self, m);
        self.run(d);
    }
}

fn thread(index: u32) -> ThreadId {
    ThreadId { process: P0, index }
}

/// The four-process world every test here plays in, as one domain.
fn world() -> Arc<[ProcessId]> {
    Arc::new([P0, P1, P2, P3])
}

fn driver(behavior: Arc<dyn Behavior>, policy: DriverPolicy) -> Driver {
    Driver::new(P0, behavior, world(), CoreConfig::default(), policy)
}

/// A one-way message to P0 carrying `v`, tagged with `guard`.
fn msg(id: u64, from: ProcessId, guard: Guard, v: i64) -> Envelope {
    Envelope {
        id: MsgId(id),
        from,
        from_thread: 0,
        to: P0,
        guard,
        table_acks: vec![],
        kind: DataKind::Send,
        payload: Value::Int(v),
        label: format!("m{id}").into(),
        link_seq: 0,
    }
}

/// A guess of a remote process.
fn remote_guess(owner: ProcessId) -> GuessId {
    GuessId::first(owner, 1)
}

fn received(from: ProcessId, v: i64) -> Observable {
    Observable::Received {
        from,
        kind: ObsKind::Send,
        payload: Value::Int(v),
    }
}

fn output(v: i64) -> Observable {
    Observable::Output {
        payload: Value::Int(v),
    }
}

/// Receives forever. State: the ints received so far; after each one it
/// emits their sum as an external output.
fn sink() -> Arc<dyn Behavior> {
    Arc::new(FnBehavior::new(
        "sink",
        Vec::<i64>::new(),
        |seen, resume| match resume {
            Resume::Start | Resume::Continue => Effect::Receive,
            Resume::Msg(m) => {
                seen.push(m.payload.as_int().expect("int payload"));
                Effect::External {
                    payload: Value::Int(seen.iter().sum()),
                }
            }
            r => panic!("sink: unexpected {r:?}"),
        },
    ))
}

fn seen(d: &Driver, tid: u32) -> &Vec<i64> {
    d.threads[&tid].state.get::<Vec<i64>>()
}

fn forced(order: &[ProcessId]) -> DriverPolicy {
    DriverPolicy {
        forced_order: Some(Arc::new(DeliverySchedule::from([(P0, order.to_vec())]))),
        ..DriverPolicy::default()
    }
}

#[test]
fn rollback_repools_cancels_reopens_and_rewinds() {
    let mut d = driver(sink(), forced(&[P1, P2, P1]));
    let mut fake = Fake::start(&mut d);
    let g = remote_guess(P3);
    fake.arrive(&mut d, msg(1, P1, Guard::single(g), 10));
    // Delivered but not yet run: the resume is still queued.
    d.on_data(&mut fake, msg(2, P2, Guard::empty(), 20));
    assert_eq!(fake.ready.len(), 1);
    assert_eq!(d.forced_pos, 2);
    assert_eq!(d.threads[&0].checkpoints.len(), 1);

    d.on_control(&mut fake, Control::Abort(g));

    assert_eq!(d.stats.rollbacks, 1);
    assert_eq!(fake.cancelled, vec![thread(0)]);
    assert!(fake.ready.is_empty(), "the queued resume was cancelled");
    let th = &d.threads[&0];
    assert_eq!(th.status, Status::BlockedRecv, "the receive is open again");
    // Back in interval 0 with an empty guard: no restore can reach it, so
    // not even its first checkpoint is kept.
    assert_eq!((th.first, th.checkpoints.len()), (1, 0));
    assert!(th.consumed.is_empty() && th.oblog.is_empty() && th.out_buf.is_empty());
    assert!(seen(&d, 0).is_empty());
    // Both consumed messages went back to the pool; the one guarded by the
    // aborted guess was purged as an orphan, and the forced prefix —
    // rewound to its start — holds the other for P1.
    assert_eq!(d.stats.orphans, 1);
    assert_eq!(d.forced_pos, 0);
    assert_eq!(d.pool.iter().map(|m| m.id).collect::<Vec<_>>(), [MsgId(2)]);

    fake.arrive(&mut d, msg(3, P1, Guard::empty(), 30));
    assert_eq!(
        d.log(),
        [received(P1, 30), output(30), received(P2, 20), output(50)]
    );
    assert_eq!(fake.external, [Value::Int(30), Value::Int(50)]);
}

/// Forks at start. The left thread calls P1, joins when the return comes
/// and, once its guess is gone, runs S2 itself; S2 is [`sink`]'s loop.
fn forker() -> Arc<dyn Behavior> {
    Arc::new(FnBehavior::new(
        "forker",
        (0u8, Vec::<i64>::new()),
        |(pc, seen), resume| match (*pc, resume) {
            (0, Resume::Start) => {
                *pc = 1;
                Effect::Fork {
                    site: 1,
                    guesses: vec![],
                }
            }
            (1, Resume::ForkLeft) => {
                *pc = 2;
                Effect::call(P1, 0i64, "C")
            }
            (2, Resume::Msg(_)) => {
                *pc = 3;
                Effect::JoinLeft { actual: vec![] }
            }
            (1, Resume::ForkRight { .. }) | (3, Resume::JoinSequential) => {
                *pc = 4;
                Effect::Receive
            }
            (4, Resume::Msg(m)) => {
                seen.push(m.payload.as_int().expect("int payload"));
                Effect::Receive
            }
            (pc, r) => panic!("forker: pc {pc}, unexpected {r:?}"),
        },
    ))
}

#[test]
fn discard_repools_cancels_rewinds_and_drops_the_thread() {
    let mut d = driver(forker(), forced(&[P2]));
    let mut fake = Fake::start(&mut d);
    assert_eq!(d.threads.keys().copied().collect::<Vec<_>>(), [0, 1]);
    let x1 = fake.timers[0];
    // The left thread is parked on its call, so the right thread (S2) is
    // the earliest receiver.
    d.on_data(&mut fake, msg(1, P2, Guard::empty(), 7));
    assert_eq!(d.threads[&1].consumed.len(), 1);
    assert_eq!(fake.ready.len(), 1);
    assert_eq!(d.forced_pos, 1);

    assert!(d.on_timer(&mut fake, x1));

    assert_eq!(d.stats.discarded_threads, 1);
    assert_eq!(
        d.threads.keys().copied().collect::<Vec<_>>(),
        [0],
        "thread 1 is gone"
    );
    assert_eq!(d.live, [0]);
    assert_eq!(fake.cancelled, vec![thread(1)]);
    assert!(fake.ready.is_empty(), "the queued resume was cancelled");
    assert_eq!(d.forced_pos, 0);
    assert_eq!(d.pool.len(), 1, "the consumed message is pooled again");
    assert!(
        !d.on_timer(&mut fake, x1),
        "a resolved guess ignores its timer"
    );

    // The return lets the surviving left thread finish S1, find its guess
    // aborted, and receive the message itself.
    let DataKind::Call(cid) = fake.data[0].kind else {
        panic!("the left thread's call");
    };
    let mut ret = msg(2, P1, Guard::empty(), 0);
    ret.kind = DataKind::Return(cid);
    fake.arrive(&mut d, ret);
    assert_eq!(seen(&d, 0).1, [7]);
    assert!(d.pool.is_empty());

    fn seen(d: &Driver, tid: u32) -> &(u8, Vec<i64>) {
        d.threads[&tid].state.get::<(u8, Vec<i64>)>()
    }
}

#[test]
fn a_commit_is_broadcast_to_the_control_domain_not_the_world() {
    for (domain, heard) in [
        (vec![P0, P1, P2, P3], vec![P1, P2, P3]),
        (vec![P0, P1], vec![P1]),
    ] {
        let policy = DriverPolicy::default();
        let mut d = Driver::new(P0, forker(), domain.into(), CoreConfig::default(), policy);
        let mut fake = Fake::start(&mut d);
        let x1 = fake.timers[0];
        let DataKind::Call(cid) = fake.data[0].kind else {
            panic!("the left thread's call");
        };
        let mut ret = msg(1, P1, Guard::empty(), 0);
        ret.kind = DataKind::Return(cid);
        fake.arrive(&mut d, ret);
        let told: Vec<ProcessId> = fake.ctrl.iter().map(|(to, _)| *to).collect();
        assert_eq!(told, heard);
        assert!(fake.ctrl.iter().all(|(_, c)| *c == Control::Commit(x1)));
        assert_eq!(d.stats.control_messages, heard.len() as u64);
    }
}

#[test]
#[should_panic(expected = "process 0 (forker) sent to process 1, outside")]
fn a_send_outside_the_control_domain_is_refused() {
    let (domain, policy) = (vec![P0, P2].into(), DriverPolicy::default());
    let mut d = Driver::new(P0, forker(), domain, CoreConfig::default(), policy);
    Fake::start(&mut d);
}

#[test]
fn a_rollback_to_boundary_2_restores_its_snapshot() {
    // Four messages, each guarded by a different process's guess, open
    // four intervals, each entered with a snapshot; aborting the second
    // guess rolls back to boundary 2, where only the first was received.
    let owners = [P1, P2, P3, ProcessId(4)];
    let mut d = driver(sink(), DriverPolicy::default());
    let mut fake = Fake::start(&mut d);
    for (i, owner) in owners.into_iter().enumerate() {
        let m = msg(i as u64, owner, Guard::single(remote_guess(owner)), 1 << i);
        fake.arrive(&mut d, m);
    }
    assert_eq!(d.threads[&0].checkpoints.len(), 4);
    assert_eq!(d.counts.checkpoints_taken, 4);
    d.on_control(&mut fake, Control::Abort(remote_guess(P2)));
    assert_eq!(seen(&d, 0), &[1]);
    fake.run(&mut d);
    for owner in [P1, P3, ProcessId(4)] {
        d.on_control(&mut fake, Control::Commit(remote_guess(owner)));
    }
    assert_eq!(seen(&d, 0), &[1, 4, 8]);
    assert_eq!(
        d.log(),
        [
            received(P1, 1),
            output(1),
            received(P3, 4),
            output(5),
            received(ProcessId(4), 8),
            output(13)
        ]
    );
    assert_eq!(fake.external.last(), Some(&Value::Int(13)));
}

#[test]
fn phantom_log_leaks_rolled_back_observables() {
    let run = |fault: FaultInjection| {
        let mut d = driver(
            sink(),
            DriverPolicy {
                fault,
                ..DriverPolicy::default()
            },
        );
        let mut fake = Fake::start(&mut d);
        let g = remote_guess(P3);
        fake.arrive(&mut d, msg(1, P1, Guard::single(g), 10));
        d.on_control(&mut fake, Control::Abort(g));
        assert_eq!(d.stats.rollbacks, 1);
        d.log()
    };
    assert!(run(FaultInjection::None).is_empty());
    assert_eq!(
        run(FaultInjection::PhantomLog),
        [received(P1, 10), output(10)]
    );
}

#[test]
fn lifo_delivery_picks_the_newest_candidate() {
    let run = |fault: FaultInjection| {
        let mut d = driver(
            sink(),
            DriverPolicy {
                fault,
                ..DriverPolicy::default()
            },
        );
        // Both messages are pooled before the thread first blocks.
        let mut fake = Fake::default();
        d.on_data(&mut fake, msg(1, P1, Guard::empty(), 1));
        d.on_data(&mut fake, msg(2, P2, Guard::empty(), 2));
        fake.ready.push_back((thread(0), Resume::Start));
        fake.run(&mut d);
        seen(&d, 0).clone()
    };
    assert_eq!(run(FaultInjection::None), [1, 2]);
    assert_eq!(run(FaultInjection::LifoDelivery), [2, 1]);
}

/// On each message: send to P2, send to P1, receive again.
fn fan_out() -> Arc<dyn Behavior> {
    Arc::new(FnBehavior::new("fan_out", 0u8, |pc, resume| {
        match (*pc, resume) {
            (0, Resume::Start) => Effect::Receive,
            (0, Resume::Msg(_)) => {
                *pc = 1;
                Effect::send(P2, 0i64, "a")
            }
            (1, Resume::Continue) => {
                *pc = 2;
                Effect::send(P1, 0i64, "b")
            }
            (2, Resume::Continue) => {
                *pc = 0;
                Effect::Receive
            }
            (pc, r) => panic!("fan_out: pc {pc}, unexpected {r:?}"),
        }
    }))
}

#[test]
fn received_control_is_never_forwarded() {
    let g = remote_guess(P3);
    let controls = [
        Control::Commit(g),
        Control::Abort(g),
        Control::Precedence(g, Guard::empty()),
    ];
    for ctrl in controls {
        let mut d = driver(fan_out(), DriverPolicy::default());
        let mut fake = Fake::start(&mut d);
        // P0 takes on a dependency on g, then tags messages to P1 and P2
        // with it.
        fake.arrive(&mut d, msg(1, P1, Guard::single(g), 0));
        assert_eq!(fake.data.len(), 2);

        // Its owner broadcast the resolution to the whole domain: P0 has
        // nobody left to tell.
        d.on_control(&mut fake, ctrl.clone());
        assert!(fake.ctrl.is_empty(), "{ctrl} forwarded: {:?}", fake.ctrl);
        assert_eq!(d.stats.control_messages, 0);
    }
}

/// Thread 0 forks x1; its right thread forks x2; every thread then
/// receives.
fn nested_forker() -> Arc<dyn Behavior> {
    Arc::new(FnBehavior::new("nested", 0u8, |pc, resume| {
        match (*pc, resume) {
            (0, Resume::Start) => {
                *pc = 1;
                Effect::Fork {
                    site: 1,
                    guesses: vec![],
                }
            }
            (1, Resume::ForkRight { .. }) => {
                *pc = 2;
                Effect::Fork {
                    site: 2,
                    guesses: vec![],
                }
            }
            (1 | 2, Resume::ForkLeft) | (2, Resume::ForkRight { .. }) | (3, Resume::Msg(_)) => {
                *pc = 3;
                Effect::Receive
            }
            (pc, r) => panic!("nested: pc {pc}, unexpected {r:?}"),
        }
    }))
}

#[test]
fn stale_incarnation_guess_is_still_withheld_from_the_earlier_thread() {
    let mut d = driver(nested_forker(), DriverPolicy::default());
    let mut fake = Fake::start(&mut d);
    let (x1, x2) = (fake.timers[0], fake.timers[1]);
    // x2 times out: thread 2 is discarded and the incarnation moves on,
    // leaving x1 live under a stale incarnation number.
    assert!(d.on_timer(&mut fake, x2));
    assert_eq!(d.core.incarnation, Incarnation(1));
    assert_eq!(d.threads.keys().copied().collect::<Vec<_>>(), [0, 1]);
    assert!(d.threads.values().all(|t| t.status == Status::BlockedRecv));

    // A message that depends on x1 is thread 0's own future: it must go to
    // x1's right thread, although thread 0 is the earlier receiver.
    d.on_data(&mut fake, msg(1, P1, Guard::single(x1), 0));
    assert!(d.threads[&0].consumed.is_empty());
    assert_eq!(d.threads[&1].consumed.len(), 1);
}

#[test]
fn pooled_message_orphaned_by_an_explicit_abort_is_dropped() {
    // Pooled before the thread first blocks; ABORT(g) arrives in between.
    let mut d = driver(sink(), DriverPolicy::default());
    let mut fake = Fake::default();
    let g = remote_guess(P3);
    d.on_data(&mut fake, msg(1, P1, Guard::single(g), 10));
    d.on_data(&mut fake, msg(2, P2, Guard::empty(), 20));
    d.on_control(&mut fake, Control::Abort(g));
    assert_eq!(d.stats.orphans, 1);
    assert_eq!(d.pool_checked, Some(d.core.history.aborts_learned()));
    fake.ready.push_back((thread(0), Resume::Start));
    fake.run(&mut d);
    assert_eq!(seen(&d, 0), &[20]);
    assert_eq!(d.stats.orphans, 1);
}

#[test]
fn pooled_message_orphaned_by_an_incarnation_row_on_another_is_dropped() {
    let mut d = driver(sink(), DriverPolicy::default());
    let mut fake = Fake::default();
    let stale = remote_guess(P3);
    d.on_data(&mut fake, msg(1, P1, Guard::single(stale), 10));
    assert_eq!(d.pool_checked, Some(d.core.history.aborts_learned()));
    // No ABORT is ever delivered: a second message merely names P3's next
    // incarnation, starting at the stale guess's index.
    let reforked = GuessId::new(P3, Incarnation(1), stale.index);
    d.on_data(&mut fake, msg(2, P2, Guard::single(reforked), 20));
    assert!(d.core.history.is_aborted(stale));
    assert_ne!(d.pool_checked, Some(d.core.history.aborts_learned()));
    assert_eq!((d.pool.len(), d.stats.orphans), (2, 0));

    // The stale message is the cheaper delivery (no live dependency), so
    // it is picked first — and dropped by the re-check.
    fake.ready.push_back((thread(0), Resume::Start));
    fake.run(&mut d);
    assert_eq!(seen(&d, 0), &[20]);
    assert_eq!(d.stats.orphans, 1);
    // With the pool drained the next delivery has nothing to re-check.
    assert_eq!(d.pool_checked, Some(d.core.history.aborts_learned()));
}

#[test]
fn repooled_messages_are_checked_again() {
    let mut d = driver(sink(), DriverPolicy::default());
    let mut fake = Fake::default();
    let g = remote_guess(P3);
    d.on_control(&mut fake, Control::Abort(g));
    assert_eq!(d.pool_checked, Some(d.core.history.aborts_learned()));
    // What a rollback hands back was checked before it was consumed, not
    // since: the pool no longer vouches for its contents.
    d.repool(vec![msg(1, P1, Guard::single(g), 10)]);
    assert_eq!(d.pool_checked, None);
    fake.ready.push_back((thread(0), Resume::Start));
    fake.run(&mut d);
    assert!(seen(&d, 0).is_empty());
    assert_eq!(d.stats.orphans, 1);
}

/// Thread 0 forks x1 and joins on its first message. Thread 1 (x1's right)
/// forks x2, computes, emits 10 and joins. Thread 2 (x2's right) emits 20,
/// receives one message, emits 21 and ends.
fn emitters() -> Arc<dyn Behavior> {
    let fork = |site| Effect::Fork {
        site,
        guesses: vec![],
    };
    let emit = |v: i64| Effect::External {
        payload: Value::Int(v),
    };
    Arc::new(FnBehavior::new("emitters", 0u8, move |pc, resume| {
        let (next, effect) = match (*pc, resume) {
            (0, Resume::Start) => (1, fork(1)),
            (1, Resume::ForkLeft) => (10, Effect::Receive),
            (10, Resume::Msg(_)) => (11, Effect::JoinLeft { actual: vec![] }),
            (1, Resume::ForkRight { .. }) => (2, fork(2)),
            (2, Resume::ForkLeft) => (20, Effect::Compute { cost: 1 }),
            (20, Resume::Continue) => (21, emit(10)),
            (21, Resume::Continue) => (22, Effect::JoinLeft { actual: vec![] }),
            (2, Resume::ForkRight { .. }) => (30, emit(20)),
            (30, Resume::Continue) => (31, Effect::Receive),
            (31, Resume::Msg(_)) => (32, emit(21)),
            (32, Resume::Continue) => (33, Effect::Done),
            (pc, r) => panic!("emitters: pc {pc}, unexpected {r:?}"),
        };
        *pc = next;
        effect
    }))
}

#[test]
fn buffered_output_is_released_in_thread_order_as_guards_empty() {
    let ints = |vs: &[i64]| vs.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>();
    let g = remote_guess(P3);
    // Up to the point where every thread has emitted and only thread 0's
    // join is outstanding.
    let run = || {
        let mut d = driver(emitters(), DriverPolicy::default());
        let mut fake = Fake::start(&mut d);
        // Thread 2 emitted first; the list is by thread index all the same.
        assert_eq!(d.threads[&1].status, Status::AwaitingJoin);
        assert_eq!(d.buffered, [1, 2]);
        // A message that depends on x1 is thread 0's future: thread 2
        // takes it, with a foreign guess of its own, and ends.
        let x1 = fake.timers[0];
        fake.arrive(&mut d, msg(1, P1, Guard::from_iter([x1, g]), 0));
        assert_eq!(d.threads[&2].status, Status::Done);
        assert_eq!(d.threads[&2].out_buf, ints(&[20, 21]));
        assert_eq!(d.live, [0, 1, 2]);
        assert_eq!(d.buffered, [1, 2]);
        assert!(fake.external.is_empty());
        (d, fake)
    };

    // Thread 0 joins first: x1 commits, x2 after it, and thread 1's guard
    // is empty — its output goes out and it retires. Thread 2, done long
    // ago, still holds g: it keeps its output and its place in the scans
    // until COMMIT(g).
    let (mut d, mut fake) = run();
    fake.arrive(&mut d, msg(2, P2, Guard::empty(), 0));
    assert_eq!(d.stats.commits, 2);
    assert_eq!(fake.external, ints(&[10]));
    assert_eq!(d.live, [2]);
    assert_eq!(d.buffered, [2]);
    d.on_control(&mut fake, Control::Commit(g));
    assert_eq!(fake.external, ints(&[10, 20, 21]));
    assert!(d.live.is_empty() && d.buffered.is_empty());

    // COMMIT(g) first: nothing empties. Then the join empties both guards
    // at once, and the one flush releases thread 1's output before
    // thread 2's.
    let (mut d, mut fake) = run();
    d.on_control(&mut fake, Control::Commit(g));
    assert!(fake.external.is_empty());
    assert_eq!(d.buffered, [1, 2]);
    fake.arrive(&mut d, msg(2, P2, Guard::empty(), 0));
    assert_eq!(fake.external, ints(&[10, 20, 21]));
    assert!(d.live.is_empty() && d.buffered.is_empty());
}

#[test]
fn return_that_dooms_its_own_guess_is_dropped_not_delivered() {
    // The left thread's return comes back tagged with x1 itself: the early
    // check aborts x1 (§4.2.3), which orphans the very message that was
    // checked a moment ago and is about to be pooled.
    let mut d = driver(forker(), DriverPolicy::default());
    let mut fake = Fake::start(&mut d);
    let x1 = fake.timers[0];
    let DataKind::Call(cid) = fake.data[0].kind else {
        panic!("the left thread's call");
    };
    let mut ret = msg(1, P1, Guard::single(x1), 0);
    ret.kind = DataKind::Return(cid);
    fake.arrive(&mut d, ret);
    assert!(d.core.history.is_aborted(x1));
    assert_eq!(d.stats.orphans, 1);
    assert_eq!(d.threads[&0].status, Status::BlockedCall(cid));
    assert!(d.threads[&0].consumed.is_empty() && d.pool.is_empty());
}

#[test]
fn a_receive_takes_each_senders_oldest_message_first() {
    // Both from P1, pooled before the thread first blocks. The later one
    // adds no dependency and the earlier one adds g, but a link is FIFO:
    // the later one is not available while the earlier one is pooled.
    let mut d = driver(sink(), DriverPolicy::default());
    let mut fake = Fake::default();
    d.on_data(&mut fake, msg(1, P1, Guard::single(remote_guess(P3)), 10));
    d.on_data(&mut fake, msg(2, P1, Guard::empty(), 20));
    fake.ready.push_back((thread(0), Resume::Start));
    fake.run(&mut d);
    assert_eq!(seen(&d, 0), &[10, 20]);
}

#[test]
fn a_message_a_rollback_hands_back_is_its_senders_oldest_again() {
    // Thread 0 takes m0 (P2, guarded by g) and m1 (P1, guarded by h); m2
    // (P1, no dependency) arrives while m1's resume is still queued. g
    // aborts: the rollback to before m0 hands m0 (an orphan now) and m1
    // back, pooled behind m2. m2 is the cheaper delivery, but m1 was sent
    // first on the same link.
    let (g, h) = (remote_guess(P2), remote_guess(P3));
    let mut d = driver(sink(), DriverPolicy::default());
    let mut fake = Fake::start(&mut d);
    fake.arrive(&mut d, msg(0, P2, Guard::single(g), 1));
    d.on_data(&mut fake, msg(1, P1, Guard::single(h), 10));
    d.on_data(&mut fake, msg(2, P1, Guard::empty(), 20));
    assert_eq!(d.pool.iter().map(|m| m.id).collect::<Vec<_>>(), [MsgId(2)]);
    d.on_control(&mut fake, Control::Abort(g));
    assert_eq!((d.stats.rollbacks, d.stats.orphans), (1, 1));
    fake.run(&mut d);
    assert_eq!(seen(&d, 0), &[10, 20]);
}

#[test]
fn a_settled_thread_retires_and_keeps_only_its_log() {
    // Thread 0 forks x1 and calls P1; thread 1 (x1's right thread) takes a
    // message guarded by P3's guess y. The return commits x1: thread 0 is
    // done and holds nothing uncommitted, so it retires at once. Thread 1
    // can no longer be discarded, so only the checkpoint y's rollback
    // point names is left, until COMMIT(y).
    let mut d = driver(forker(), DriverPolicy::default());
    let mut fake = Fake::start(&mut d);
    let x1 = fake.timers[0];
    let y = remote_guess(P3);
    fake.arrive(&mut d, msg(1, P2, Guard::single(y), 7));
    let DataKind::Call(cid) = fake.data[0].kind else {
        panic!("the left thread's call");
    };
    let mut ret = msg(2, P1, Guard::empty(), 0);
    ret.kind = DataKind::Return(cid);
    fake.arrive(&mut d, ret);
    assert_eq!(d.stats.commits, 1);
    assert_eq!(
        d.threads.keys().copied().collect::<Vec<_>>(),
        [1],
        "thread 0 retired"
    );
    assert_eq!(d.held().own, 0, "x1's record went with its commit");
    assert_eq!(d.held().guesses, 0);
    assert_eq!((d.held().checkpoints, d.held().consumed), (1, 1));
    d.on_control(&mut fake, Control::Commit(y));
    let th = &d.threads[&1];
    assert_eq!(
        (th.first, th.checkpoints.len(), th.consumed.len()),
        (2, 0, 0)
    );
    assert_eq!(d.held().threads, 1);
    // The retired thread's log is still the committed log, in fork order.
    let call = Observable::Sent {
        to: P1,
        kind: ObsKind::Call,
        payload: Value::Int(0),
    };
    let reply = Observable::Received {
        from: P1,
        kind: ObsKind::Return,
        payload: Value::Int(0),
    };
    assert_eq!(d.log(), [call, reply, received(P2, 7)]);
    assert!(d.provenance().is_empty());
    assert!(d.unresolved_guesses().all(|g| g != x1));
}

#[test]
fn forged_resolutions_after_retirement_bring_nothing_back() {
    // The world of the test above, settled: thread 0 retired with x1's
    // record, thread 1 holds no checkpoint.
    let mut d = driver(forker(), DriverPolicy::default());
    let mut fake = Fake::start(&mut d);
    let x1 = fake.timers[0];
    let DataKind::Call(cid) = fake.data[0].kind else {
        panic!("the left thread's call");
    };
    let mut ret = msg(1, P1, Guard::empty(), 0);
    ret.kind = DataKind::Return(cid);
    fake.arrive(&mut d, ret);
    fake.arrive(&mut d, msg(2, P2, Guard::single(remote_guess(P3)), 7));
    d.on_control(&mut fake, Control::Commit(remote_guess(P3)));
    let (held, log) = (d.held(), d.log());
    assert_eq!(d.threads.keys().copied().collect::<Vec<_>>(), [1]);

    // Resolutions naming the retired guess, guesses never seen, and
    // incarnations far ahead — this process's own and a peer's.
    let never = GuessId::new(P2, Incarnation(0), 99);
    let own_future = GuessId::new(P0, Incarnation(7), 3);
    let peer_future = GuessId::new(P3, Incarnation(opcsp_core::MAX_INCARNATION as u32), 1);
    for g in [x1, never, own_future, peer_future] {
        for ctrl in [
            Control::Precedence(g, Guard::single(x1)),
            Control::Precedence(g, Guard::from_iter([never, peer_future])),
            Control::Commit(g),
            Control::Abort(g),
        ] {
            d.on_control(&mut fake, ctrl);
            fake.run(&mut d);
            assert_eq!(d.held(), held, "a record came back after {g}");
            assert_eq!(d.log(), log, "the committed log moved after {g}");
        }
    }
    assert_eq!(d.threads.keys().copied().collect::<Vec<_>>(), [1]);
    assert!(d.unresolved_guesses().next().is_none());
}

#[test]
fn a_new_thread_keeps_no_checkpoint_for_interval_0() {
    // Thread 0 forks x1; thread 1 is its right thread. Going back to
    // interval 0 is a discard, which restores nothing: neither thread keeps
    // a copy of the state it started from, and only the fork's own copy
    // counts as a snapshot.
    let mut d = driver(forker(), DriverPolicy::default());
    Fake::start(&mut d);
    assert_eq!(d.threads.keys().copied().collect::<Vec<_>>(), [0, 1]);
    for th in d.threads.values() {
        assert_eq!((th.first, th.checkpoints.len()), (1, 0));
    }
    assert_eq!(d.counts.checkpoints_taken, 1);
}

/// Thread 0 forks x1 and its call returns: x1 commits at the join.
fn commit_x1(policy: DriverPolicy, telemetry: bool) -> (Driver, Fake) {
    let mut d = driver(forker(), policy);
    let mut fake = Fake {
        tele: Telemetry::new(telemetry),
        ..Fake::default()
    };
    fake.ready.push_back((thread(0), Resume::Start));
    fake.run(&mut d);
    let DataKind::Call(cid) = fake.data[0].kind else {
        panic!("the left thread's call");
    };
    let mut ret = msg(1, P1, Guard::empty(), 0);
    ret.kind = DataKind::Return(cid);
    fake.arrive(&mut d, ret);
    assert_eq!(d.stats.commits, 1);
    (d, fake)
}

#[test]
fn a_resolution_is_kept_only_while_something_reads_it() {
    let resolved = |fake: &Fake| {
        let events = fake.tele.events.iter();
        events
            .filter(|e| matches!(e, TelemetryEvent::Resolved { .. }))
            .count()
    };
    // Telemetry off, nothing recorded: nothing reads x1's resolution.
    let (d, _) = commit_x1(DriverPolicy::default(), false);
    assert!(d.core.resolutions.is_empty());
    // Telemetry reads it through its cursor, once, however often synced.
    let (mut d, mut fake) = commit_x1(DriverPolicy::default(), true);
    assert_eq!(d.core.resolutions.len(), 1);
    assert_eq!(resolved(&fake), 1);
    d.sync_telemetry(&mut fake);
    assert_eq!(resolved(&fake), 1);
    // A recorded run hands it to its result.
    let record = DriverPolicy {
        record: true,
        ..DriverPolicy::default()
    };
    let (d, _) = commit_x1(record, false);
    assert_eq!(d.core.resolutions.len(), 1);
    assert!(d.core.resolutions[0].committed);
}
