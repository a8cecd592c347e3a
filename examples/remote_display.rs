//! The paper's motivating application (§1): "process Y is a window
//! manager. It exports a service named PutLine... process X repeatedly
//! calls PutLine, passing it successive output lines until all output has
//! been delivered or until it receives an unsuccessful return code."
//!
//! An editor pushes a document to a remote display, line by line, over a
//! slow link. We render the run twice — plain RPC and call streaming —
//! and then once more with a display that rejects a line mid-document
//! (its window fills up), showing the rollback keeping the committed
//! display exactly correct.
//!
//! ```sh
//! cargo run --example remote_display
//! ```

use opcsp_core::{CoreConfig, DataKind, ProcessId, Value};
use opcsp_sim::{
    Behavior, BehaviorState, Effect, LatencyModel, Resume, SimBuilder, SimConfig, SimResult,
};

const EDITOR: ProcessId = ProcessId(0);
const DISPLAY: ProcessId = ProcessId(1);

const DOCUMENT: &[&str] = &[
    "## Optimistic Parallelization of CSP",
    "",
    "Guess that each PutLine succeeds;",
    "stream the document without waiting;",
    "roll back if the display disagrees.",
    "",
    "— Bacon & Strom, PPoPP 1991",
];

/// The editor: streams DOCUMENT via speculated PutLine calls.
struct Editor;

#[derive(Clone)]
struct EdState {
    i: usize,
    ok: bool,
    pc: u8, // 0 top, 1 forked, 2 awaiting, 3 joining, 4 done
}

impl Behavior for Editor {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(EdState {
            i: 0,
            ok: true,
            pc: 0,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<EdState>();
        fn top(st: &mut EdState) -> Effect {
            if st.i < DOCUMENT.len() {
                st.pc = 1;
                Effect::Fork {
                    site: 1,
                    guesses: vec![("ok".into(), Value::Bool(true))],
                }
            } else {
                st.pc = 4;
                Effect::Done
            }
        }
        match (st.pc, resume) {
            (0, Resume::Start) => top(st),
            (1, Resume::ForkLeft | Resume::ForkDenied) => {
                st.pc = 2;
                Effect::call(DISPLAY, DOCUMENT[st.i], format!("C{}", st.i + 1))
            }
            (1, Resume::ForkRight { guesses }) => {
                st.ok = guesses[0].1.is_true();
                st.i += 1;
                top(st)
            }
            (2, Resume::Msg(env)) => {
                st.ok = env.payload.is_true();
                st.pc = 3;
                Effect::JoinLeft {
                    actual: vec![("ok".into(), Value::Bool(st.ok))],
                }
            }
            (3, Resume::JoinSequential) => {
                if st.ok {
                    st.i += 1;
                    top(st)
                } else {
                    st.pc = 4;
                    Effect::Done
                }
            }
            (_, r) => panic!("editor: {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "Editor"
    }
}

/// The window manager: accepts lines while it has room, each accepted
/// line becoming an (unrollbackable) external output on the screen.
struct Display {
    capacity: usize,
}

#[derive(Clone)]
enum DispPc {
    Idle,
    Show { accepted: bool },
}

#[derive(Clone)]
struct DispState {
    shown: usize,
    pc: DispPc,
}

impl Behavior for Display {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(DispState {
            shown: 0,
            pc: DispPc::Idle,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<DispState>();
        match (st.pc.clone(), resume) {
            (DispPc::Idle, Resume::Start | Resume::Continue) => Effect::Receive,
            (DispPc::Idle, Resume::Msg(env)) => {
                debug_assert!(matches!(env.kind, DataKind::Call(_)));
                let accepted = st.shown < self.capacity;
                if accepted {
                    st.shown += 1;
                    st.pc = DispPc::Show { accepted };
                    // The pixels hit the glass: an external output,
                    // buffered while speculative, released on commit.
                    Effect::External {
                        payload: env.payload,
                    }
                } else {
                    st.pc = DispPc::Show { accepted };
                    Effect::Compute { cost: 1 }
                }
            }
            (DispPc::Show { accepted }, Resume::Continue) => {
                st.pc = DispPc::Idle;
                Effect::reply(Value::Bool(accepted), "")
            }
            (_, r) => panic!("display: {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "Display"
    }
}

fn run(optimism: bool, capacity: usize, d: u64) -> SimResult {
    let cfg = SimConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency: LatencyModel::fixed(d),
        ..SimConfig::default()
    };
    let mut b = SimBuilder::new(cfg);
    b.add_process(Editor);
    b.add_process(Display { capacity });
    b.build().run()
}

fn show_screen(r: &SimResult) {
    println!("  ┌──────────────────────────────────────────┐");
    for (_, _, line) in &r.external {
        println!("  │ {:<40} │", line.as_str().unwrap_or("?"));
    }
    println!("  └──────────────────────────────────────────┘");
}

fn main() {
    let d = 80;

    let rpc = run(false, 99, d);
    let streamed = run(true, 99, d);
    println!("Pushing {} lines over a d={d} link:\n", DOCUMENT.len());
    println!("  plain RPC : {:>5} ticks", rpc.completion);
    println!(
        "  streaming : {:>5} ticks  ({:.1}x, {} forks, {} aborts)\n",
        streamed.completion,
        rpc.completion as f64 / streamed.completion as f64,
        streamed.stats().forks,
        streamed.stats().aborts,
    );
    println!("The committed display:");
    show_screen(&streamed);

    // Now a display that runs out of room after 4 lines: the speculative
    // tail (lines 5..) must be rolled back; the screen shows exactly the
    // accepted prefix.
    let cramped = run(true, 4, d);
    if std::env::var("DBG").is_ok() {
        println!("{}", cramped.trace.render_timeline(&[EDITOR, DISPLAY]));
    }
    println!(
        "\nWith a 4-line window ({} value fault, {} rollbacks, {} orphans):",
        cramped.stats().value_faults,
        cramped.stats().rollbacks,
        cramped.stats().orphans,
    );
    show_screen(&cramped);
    let sequential = run(false, 4, d);
    let seq_screen: Vec<_> = sequential
        .external
        .iter()
        .map(|(_, _, v)| v.clone())
        .collect();
    let opt_screen: Vec<_> = cramped.external.iter().map(|(_, _, v)| v.clone()).collect();
    assert_eq!(
        seq_screen, opt_screen,
        "Theorem 1: identical committed screens"
    );
    println!("\nTheorem 1: the screen matches the sequential execution exactly.");
}
