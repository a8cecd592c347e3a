//! What a long call stream leaves behind in the protocol core: the commit
//! history and the guards themselves must end a run with state
//! proportional to what is still *unresolved or went wrong*, not to the
//! number of calls made. The shape is `core/stream_client/512`
//! and `core/stream_server/512` (`protocol_micro`), 2 000 calls deep, with
//! both cores driven through the public calls an engine makes — and, for
//! the commit dependency graph, four client pipelines interleaved at one
//! replica (the shape of `kv`), whose CDG must stay linear in its nodes.
//! And a receiver's incarnation table: hearing of the highest incarnation
//! number a frame may carry costs a few entries, not one per number below
//! it (a per-thread counting allocator measures the bytes).

use opcsp_core::{
    ArrivalVerdict, CallId, CoreConfig, DataKind, Envelope, ForkIndex, Guard, GuessId, History,
    Incarnation, JoinDecision, MsgId, ProcessCore, ProcessId, Run, Value, MAX_INCARNATION,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds each contract the caller relies on; counting only
// touches a thread-local `Cell`, which never allocates (const-initialised).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread has allocated so far.
fn allocated() -> u64 {
    BYTES.with(Cell::get)
}

const CLIENT: ProcessId = ProcessId(0);
const SERVER: ProcessId = ProcessId(1);

struct Stream {
    client: ProcessCore,
    server: ProcessCore,
    commits: u64,
    aborts: u64,
}

/// One call in flight: the guess forked after sending it, the thread that
/// waits for its return, and the return the server produced.
struct InFlight {
    guess: GuessId,
    left: ForkIndex,
    ret: Envelope,
}

fn envelope(from: ProcessId, to: ProcessId, guard: Guard, kind: DataKind) -> Envelope {
    Envelope {
        id: MsgId(0),
        from,
        from_thread: 0,
        to,
        guard,
        table_acks: vec![],
        kind,
        payload: Value::Unit,
        label: "M".into(),
        link_seq: 0,
    }
}

impl Stream {
    fn new() -> Stream {
        Stream {
            client: ProcessCore::new(CLIENT, CoreConfig::default()),
            server: ProcessCore::new(SERVER, CoreConfig::default()),
            commits: 0,
            aborts: 0,
        }
    }

    /// Stream `calls` calls, `depth` at a time: every call of a batch is
    /// sent and forked past before its first return is looked at (the
    /// server answers each under the full prefix), then the returns are
    /// joined in order. Every `fail`-th join of the run is a value fault:
    /// the abort cascades down what is left of the batch, and the surviving
    /// thread issues the rest of the stream again. COMMITs reach the server
    /// at once (`eager`) or all at the end.
    fn run(&mut self, calls: u32, depth: u32, fail: Option<u32>, eager: bool) {
        let (mut from, mut left_to_do, mut joined) = (0, calls, 0u32);
        let mut owed: Vec<GuessId> = Vec::new();
        while left_to_do > 0 {
            let mut flight = Vec::new();
            for k in 0..left_to_do.min(depth) {
                let cid = CallId(u64::from(k));
                let tag = self.client.guard_for_send(from).clone();
                let call = envelope(CLIENT, SERVER, tag, DataKind::Call(cid));
                let rec = self.client.fork(from, 1);
                // The server: orphan check, delivery choice, delivery, reply.
                assert_eq!(self.server.classify_arrival(&call), ArrivalVerdict::Ok);
                assert_eq!(self.server.choose_delivery(0, &[&call]), Some(0));
                self.server.deliver(0, &call);
                let tag = self.server.guard_for_send(0).clone();
                let ret = envelope(SERVER, CLIENT, tag, DataKind::Return(cid));
                flight.push(InFlight {
                    guess: rec.guess,
                    left: from,
                    ret,
                });
                from = rec.right_thread;
            }
            for InFlight { guess, left, ret } in flight {
                assert_eq!(self.client.classify_arrival(&ret), ArrivalVerdict::Ok);
                assert_eq!(self.client.return_depends_on_future(left, &ret), None);
                self.client.deliver(left, &ret);
                joined += 1;
                left_to_do -= 1;
                let value_ok = fail.is_none_or(|every| joined % every != 0);
                match self.client.join_left_done(guess, value_ok) {
                    JoinDecision::Commit { committed } => {
                        self.commits += committed.len() as u64;
                        owed.extend(committed);
                        if eager {
                            owed.drain(..).for_each(|g| drop(self.server.on_commit(g)));
                        }
                    }
                    JoinDecision::Abort { effects } => {
                        assert!(!value_ok, "only the scripted faults abort");
                        self.aborts += effects.own_aborted.len() as u64;
                        for g in effects.own_aborted {
                            self.server.on_abort(g);
                        }
                        // The left thread runs the rest itself.
                        from = left;
                        break;
                    }
                    other => panic!("a streamed call neither commits nor faults: {other:?}"),
                }
            }
        }
        owed.into_iter()
            .for_each(|g| drop(self.server.on_commit(g)));
        // What any later send, delivery or join would do first.
        for core in [&mut self.client, &mut self.server] {
            for t in Vec::from_iter(core.threads.keys().copied()) {
                core.guard_for_send(t);
            }
        }
    }

    fn assert_drained(&self) {
        for core in [&self.client, &self.server] {
            assert!(core.speculation_quiescent());
            for t in core.threads.values() {
                assert!(
                    t.guard.is_empty(),
                    "thread {} still guarded by {}",
                    t.index,
                    t.guard
                );
                assert!(t.rollbacks.is_empty());
            }
            assert_eq!(core.holders().count(), 0);
            assert_eq!(core.cdg.node_count(), 0);
        }
    }
}

#[test]
fn a_clean_stream_leaves_one_history_record_behind() {
    let mut s = Stream::new();
    s.run(2000, 2000, None, false);
    assert_eq!((s.commits, s.aborts), (2000, 0));
    s.assert_drained();
    // 2 000 commits of one incarnation of one process: one range.
    assert_eq!(s.client.history.explicit_entries(), 1);
    assert_eq!(s.server.history.explicit_entries(), 1);
    // Nothing about the commits is forgotten, only folded.
    let first = GuessId::first(CLIENT, 1);
    let last = GuessId::first(CLIENT, 2000);
    for core in [&s.client, &s.server] {
        assert!(core.history.is_committed(first) && core.history.is_committed(last));
        assert!(!core.history.is_resolved(GuessId::first(CLIENT, 2001)));
    }
}

#[test]
fn a_faulty_stream_leaves_records_in_proportion_to_its_faults() {
    let mut s = Stream::new();
    s.run(2000, 25, Some(10), true);
    // Every tenth join is a value fault, and takes the pipeline behind it
    // down with it.
    assert_eq!(s.commits, 1800);
    assert!(s.aborts >= 200 && s.aborts <= 200 * 25);
    s.assert_drained();
    // A fault leaves two records behind — the stretch of guesses it
    // aborted and the stretch that committed before it — not one per
    // guess.
    let faults = 200;
    for core in [&s.client, &s.server] {
        let entries = core.history.explicit_entries();
        assert!(
            entries <= 2 * faults + 1,
            "{entries} records for {faults} faults"
        );
    }
}

#[test]
fn interleaved_pipelines_keep_the_cdg_linear_in_its_nodes() {
    // Four clients send ops in rounds; a replica consumes each op tagged with
    // everything uncommitted it has seen — every client's stretch of
    // guesses forked so far — and then hears the op's PRECEDENCE. COMMITs
    // land `LAG` rounds behind, so ≈ 4·LAG guesses are live at a time and
    // every guard holds four runs of ≈ LAG members.
    const CLIENTS: u32 = 4;
    const LAG: u32 = 24;
    let client = |c: u32, n: u32| GuessId::first(ProcessId(c), n);
    let mut replica = ProcessCore::new(ProcessId(CLIENTS), CoreConfig::default());
    let mut latest = [0u32; CLIENTS as usize];
    let mut committed = [0u32; CLIENTS as usize];
    let mut peak = 0;
    for step in 0..2000u32 {
        let (c, n) = (step % CLIENTS, step / CLIENTS + 1);
        let stretches = (0..CLIENTS).filter(|&p| latest[p as usize] > committed[p as usize]);
        let runs = stretches.map(|p| {
            let (lo, hi) = (committed[p as usize] + 1, latest[p as usize]);
            Run::new(ProcessId(p), client(p, lo).incarnation, lo, hi)
        });
        let guard = Guard::from_iter(runs.flat_map(Run::iter));
        let mut tag = guard.clone();
        tag.insert(client(c, n));
        replica.deliver(
            0,
            &envelope(ProcessId(c), ProcessId(CLIENTS), tag, DataKind::Send),
        );
        assert!(replica.on_precedence(client(c, n), &guard).is_empty());
        latest[c as usize] = n;
        if n > LAG {
            assert!(replica
                .on_commit(client(c, n - LAG))
                .own_committed
                .is_empty());
            committed[c as usize] = n - LAG;
        }
        let (nodes, edges) = (replica.cdg.node_count(), replica.cdg.edge_count());
        assert!(
            edges <= 8 * nodes,
            "PRECEDENCE {step}: {edges} edges over {nodes} nodes"
        );
        peak = peak.max(edges);
    }
    // One edge per member would hold ≈ 4·LAG per live node.
    assert!(peak <= 8 * (CLIENTS * LAG) as usize, "peak {peak} edges");
    for c in 0..CLIENTS {
        for n in committed[c as usize] + 1..=latest[c as usize] {
            replica.on_commit(client(c, n));
        }
    }
    assert_eq!((replica.cdg.node_count(), replica.cdg.edge_count()), (0, 0));
    assert!(replica.is_committed(0));
}

#[test]
fn hearing_of_the_highest_incarnation_allocates_a_few_entries() {
    let mut history = History::new();
    let peer = ProcessId(3);
    history.observe_guess(GuessId::first(peer, 1));
    let before = allocated();
    let highest = Incarnation(MAX_INCARNATION as u32);
    history.observe_guess(GuessId::new(peer, highest, 2));
    let used = allocated() - before;
    let table = history.incarnation_table(peer).expect("the peer's table");
    assert_eq!(table.latest(), highest);
    assert_eq!(table.start_of(Incarnation(1)), Some(2));
    assert!(table.implicitly_aborted(Incarnation(0), 2));
    assert!(
        used < 1024,
        "{used} bytes to hear of incarnation {MAX_INCARNATION}: the table grows with the number"
    );
}
