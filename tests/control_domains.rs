//! Control dissemination scoped to the declared communication graph
//! (DESIGN.md §5a): a COMMIT/ABORT/PRECEDENCE goes to the sender's
//! connected component of the graph the behaviors declared
//! (`Behavior::peers`), not to the world.
//!
//! Three things are pinned here, on the simulator: the declaration is
//! *checked* (a behavior that sends outside what it declared fails,
//! attributed), the default is conservative (one undeclared behavior and
//! the world is one domain), and scoping is invisible wherever the graph
//! is connected (every workload's world, run declared and with its
//! declarations stripped, executes the same schedule). The runtime halves
//! are in `crates/rt/tests/{rt_chaos,rt_executor}.rs`.

use opcsp_core::{CoreConfig, ProcessId};
use opcsp_sim::{
    Behavior, BehaviorState, Effect, FnBehavior, Resume, SimBuilder, SimConfig, SimResult,
};
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::fan_in::FanInOpts;
use opcsp_workloads::replicated_kv::KvOpts;
use opcsp_workloads::servers::Server;
use opcsp_workloads::streaming::{PairsOpts, PutLineClient, StreamingOpts, TallyOpts};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Declares that it talks to nobody, then sends to `self.0` anyway.
struct Liar(ProcessId);

impl Behavior for Liar {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(())
    }
    fn step(&self, _state: &mut BehaviorState, _resume: Resume) -> Effect {
        Effect::send(self.0, 1i64, "M")
    }
    fn name(&self) -> &str {
        "Liar"
    }
    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(Vec::new())
    }
}

#[test]
fn a_send_outside_the_declared_component_is_an_attributed_failure() {
    // Two components: {Liar} and {Server}.
    let mut b = SimBuilder::new(SimConfig::default());
    let liar = b.add_process(Liar(ProcessId(1)));
    let server = b.add_process(Server::new("S", 0));
    let world = b.build();
    let panic = catch_unwind(AssertUnwindSafe(|| world.run())).expect_err("the lie is caught");
    let msg = panic
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    for part in [
        format!("process {}", liar.0),
        format!("process {}", server.0),
        "Liar".to_string(),
    ] {
        assert!(msg.contains(&part), "`{part}` missing from: {msg}");
    }
}

/// A process that is in the world and takes no part in it.
fn bystander() -> impl Behavior {
    FnBehavior::new("Bystander", (), |_, _| Effect::Receive)
}

/// A streaming pair plus one more process; returns the run.
fn pair_and_one(third: impl Behavior + 'static) -> SimResult {
    let mut b = SimBuilder::new(SimConfig::default());
    b.add_process(PutLineClient::new(4));
    b.add_process(Server::new("S", 0));
    b.add_process(third);
    b.build().run()
}

#[test]
fn an_undeclared_behavior_keeps_the_world_one_domain() {
    // `FnBehavior` declares nothing (`None`): every COMMIT still goes to
    // both other processes, exactly the broadcast of before — 4 commits,
    // each sent twice.
    let mixed = pair_and_one(bystander());
    assert_eq!(mixed.stats().commits, 4);
    assert_eq!(mixed.stats().control_messages, 4 * 2);
    // Declared (a `Server` nobody calls), the third process is its own
    // component and hears nothing.
    let declared = pair_and_one(Server::new("Idle", 0));
    assert_eq!(declared.stats().commits, 4);
    assert_eq!(declared.stats().control_messages, 4);
    assert_eq!(mixed.logs, declared.logs);
    assert_eq!(mixed.completion, declared.completion);
}

/// Run a world as declared and with every declaration stripped: the graph
/// is connected, so both must be the same execution.
fn assert_scoping_invisible(label: &str, spec: Spec) {
    let world = || spec.on(SimBuilder::new(spec.sim_config()));
    let declared = world().build().run();
    let stripped = world().undeclared().build().run();
    assert!(
        declared.unresolved.is_empty(),
        "{label}: {:?}",
        declared.unresolved
    );
    assert!(declared.stats().forks > 0, "{label}: nothing speculated");
    assert_eq!(declared.stats(), stripped.stats(), "{label}: counters");
    assert_eq!(
        declared.completion, stripped.completion,
        "{label}: completion"
    );
    assert_eq!(declared.logs, stripped.logs, "{label}: committed logs");
    assert_eq!(declared.external, stripped.external, "{label}: externals");
}

#[test]
fn scoping_is_invisible_on_every_connected_workload() {
    let kv = KvOpts {
        clients: 4,
        ops_per_client: 20,
        ..KvOpts::default()
    };
    assert_scoping_invisible("kv", Spec::Kv(kv));

    let streaming = StreamingOpts {
        n: 24,
        fail_lines: BTreeSet::from([9]),
        ..StreamingOpts::default()
    };
    assert_scoping_invisible("streaming", Spec::Stream(streaming));

    let tally = Spec::Tally(TallyOpts {
        n: 60,
        p_per_mille: 50,
        ..TallyOpts::default()
    });
    assert!(tally.simulate().stats().aborts > 0);
    assert_scoping_invisible("tally with faults", tally);

    let chain = ChainOpts {
        depth: 4,
        n: 6,
        fail_items: BTreeSet::from([3]),
        ..ChainOpts::default()
    };
    assert_scoping_invisible("chain", Spec::Chain(chain));

    let fan_in = FanInOpts {
        jitter: 40,
        ..FanInOpts::default()
    };
    assert_scoping_invisible("fan_in", Spec::FanIn(fan_in));
}

#[test]
fn independent_pairs_hear_only_their_own_resolutions() {
    let pairs = 8u32;
    let build = |core: CoreConfig| {
        let world = Spec::Pairs(PairsOpts { pairs, n: 4, core });
        world.on(SimBuilder::new(world.sim_config()))
    };
    let scoped = build(CoreConfig::default()).build().run();
    let world = build(CoreConfig::default()).undeclared().build().run();
    let commits = u64::from(pairs) * 4;
    assert_eq!(scoped.stats().commits, commits);
    assert_eq!(scoped.stats().aborts, 0);
    // One recipient per commit, against 2·pairs − 1.
    assert_eq!(scoped.stats().control_messages, commits);
    assert_eq!(
        world.stats().control_messages,
        commits * u64::from(2 * pairs - 1)
    );
    assert_eq!(scoped.logs, world.logs);
    assert_eq!(scoped.completion, world.completion);
    let pess = build(CoreConfig::pessimistic()).build().run();
    let rep = opcsp_sim::check_equivalence(&pess, &scoped);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
}
