//! Process behaviors: resumable state machines driven by the engine.
//!
//! The paper's processes are sequential programs that block on
//! communication. We model them as *effect machines*: the engine calls
//! [`Behavior::step`] with a [`Resume`] value (why execution continues) and
//! receives an [`Effect`] (what the process wants to do next). Because the
//! rollback machinery snapshots process state at interval boundaries
//! (§3.1), behavior state must be cloneable — [`BehaviorState`] wraps any
//! `Clone + 'static` type.
//!
//! The optimistic transformation appears as two effects: [`Effect::Fork`]
//! at a fork point (with the compiler/predictor-supplied guessed values)
//! and [`Effect::JoinLeft`] at the join point (with the actual values, for
//! the verifier). A behavior must handle every [`Resume`] variant the
//! engine can send at those points — including `ForkDenied`, which the
//! engine uses for the pessimistic baseline and for fork sites that have
//! exhausted the §3.3 retry limit `L`.
//!
//! A CSP process *names* its partners (`P!x`, `Q?y`), and a behavior can
//! say so: [`Behavior::peers`] lists the processes it may initiate
//! communication with. Those declarations are the edges of the world's
//! static communication graph; [`control_domains`] cuts it into connected
//! components, and a process's COMMIT/ABORT/PRECEDENCE go to its own
//! component only (DESIGN.md §5a) — no guess of it can ever appear in a
//! guard anywhere else. A world in which any behavior declares nothing is
//! one component, which is the paper's broadcast to all processes.

use opcsp_core::{Envelope, ProcessId, Value};
use std::any::Any;
use std::sync::Arc;

/// Derive a reply label from a request label: `C1` → `R1`; anything else
/// gets an `R:` prefix. Used by server behaviors and by the engine when a
/// `Reply` effect carries an empty label.
pub fn reply_label(req: &str) -> String {
    if let Some(rest) = req.strip_prefix('C') {
        format!("R{rest}")
    } else {
        format!("R:{req}")
    }
}

/// Dynamically typed, cloneable behavior state.
pub struct BehaviorState(Box<dyn StateClone>);

trait StateClone: Any + Send {
    fn clone_box(&self) -> Box<dyn StateClone>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any + Clone + Send> StateClone for T {
    fn clone_box(&self) -> Box<dyn StateClone> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl BehaviorState {
    pub fn new<T: Any + Clone + Send>(value: T) -> Self {
        BehaviorState(Box::new(value))
    }

    /// Borrow the concrete state. Panics on type mismatch — a behavior only
    /// ever sees states it created.
    pub fn get<T: Any>(&self) -> &T {
        self.0
            .as_any()
            .downcast_ref::<T>()
            .expect("behavior state type mismatch")
    }

    pub fn get_mut<T: Any>(&mut self) -> &mut T {
        self.0
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("behavior state type mismatch")
    }
}

impl Clone for BehaviorState {
    fn clone(&self) -> Self {
        BehaviorState(self.0.clone_box())
    }
}

impl std::fmt::Debug for BehaviorState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BehaviorState(..)")
    }
}

/// Why the engine is resuming a behavior.
#[derive(Debug, Clone)]
pub enum Resume {
    /// First step of the process's initial thread.
    Start,
    /// The previous effect completed with no value (Send, Compute,
    /// External, Reply).
    Continue,
    /// A message was delivered: a call/send received at a `Receive` point,
    /// or the return of an outstanding `Call`.
    Msg(Envelope),
    /// You are the left thread of a fork you just requested: execute S1 and
    /// finish with [`Effect::JoinLeft`].
    ForkLeft,
    /// You are the right thread: adopt the guessed values and execute the
    /// continuation S2.
    ForkRight { guesses: Vec<(String, Value)> },
    /// The fork was refused (pessimistic mode, or retry limit L reached):
    /// execute S1, emit [`Effect::JoinLeft`] as usual, and you will then be
    /// resumed with [`Resume::JoinSequential`] to run S2 inline.
    ForkDenied,
    /// Your S1 verified and the guess committed: the right thread is the
    /// continuation; this (left) thread must finish (`Effect::Done`).
    JoinCommitted,
    /// Your guess aborted (value fault, time fault, timeout) or was never
    /// made: execute S2 inline with the actual values now in your state.
    JoinSequential,
}

/// What a behavior wants the engine to do next.
#[derive(Debug, Clone)]
pub enum Effect {
    /// One-way asynchronous message (M1/M2 in the figures).
    Send {
        to: ProcessId,
        payload: Value,
        label: String,
    },
    /// Synchronous call: blocks until the return is delivered
    /// (`Resume::Msg` with a `Return` envelope).
    Call {
        to: ProcessId,
        payload: Value,
        label: String,
    },
    /// Reply to the call currently being serviced by this thread.
    Reply { payload: Value, label: String },
    /// Block until any (non-return) message is delivered.
    Receive,
    /// Observable external output (workstation display, printer — §3.2).
    /// Buffered while the thread is guarded; released on commit.
    External { payload: Value },
    /// Consume `cost` units of virtual time, then continue.
    Compute { cost: u64 },
    /// Optimistic fork point: split into left (S1) and right (S2, seeded
    /// with `guesses`) threads. `site` identifies the fork point for the
    /// retry-limit policy.
    Fork {
        site: u32,
        guesses: Vec<(String, Value)>,
    },
    /// §4.2.1's call-streaming optimization: "the fork can be performed
    /// *after* the call has been sent ... since the section of the process
    /// between the fork and join points is simply waiting for the return,
    /// it is not necessary to make a copy of the state for the right-hand
    /// thread." The engine sends the call, then forks; the left thread is
    /// parked on the return (its next resume is the return `Msg`, after
    /// which it must emit [`Effect::JoinLeft`]); the right thread resumes
    /// with `ForkRight` as usual. In pessimistic mode (or past the retry
    /// limit) this degrades to a plain blocking `Call` followed by
    /// `ForkDenied` semantics: the return `Msg` arrives, then `JoinLeft`,
    /// then `JoinSequential`.
    CallThenFork {
        to: ProcessId,
        payload: Value,
        label: String,
        site: u32,
        guesses: Vec<(String, Value)>,
    },
    /// End of S1 on a left thread: `actual` carries the values the verifier
    /// compares against the fork's guesses.
    JoinLeft { actual: Vec<(String, Value)> },
    /// The thread's program is complete.
    Done,
}

impl Effect {
    pub fn send(to: ProcessId, payload: impl Into<Value>, label: impl Into<String>) -> Effect {
        Effect::Send {
            to,
            payload: payload.into(),
            label: label.into(),
        }
    }

    pub fn call(to: ProcessId, payload: impl Into<Value>, label: impl Into<String>) -> Effect {
        Effect::Call {
            to,
            payload: payload.into(),
            label: label.into(),
        }
    }

    pub fn reply(payload: impl Into<Value>, label: impl Into<String>) -> Effect {
        Effect::Reply {
            payload: payload.into(),
            label: label.into(),
        }
    }
}

/// A process behavior: a pure transition function over cloneable state.
///
/// Implementations must be deterministic — given the same state and resume
/// value they must produce the same effect — or rollback/replay would
/// diverge (and Theorem 1 equivalence checking would be meaningless).
pub trait Behavior: Send + Sync {
    /// Fresh state for the process's initial thread.
    fn init(&self) -> BehaviorState;

    /// Advance by one step.
    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect;

    /// Human-readable name for traces.
    fn name(&self) -> &str {
        "proc"
    }

    /// The processes this behavior, running as process `me`, may *initiate*
    /// communication with (`Send`, `Call`, `CallThenFork`). A `Reply`
    /// travels back along the caller's edge and needs no declaration.
    /// `None` — the default — means "anyone". The driver holds a behavior
    /// to what it declared: a send to a process outside the declaring
    /// process's [control domain](control_domains) is a panic naming both.
    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        None
    }
}

/// The control domain of every process of a world (index = pid): the
/// connected component, as ascending pids, of the graph whose edges are the
/// declared [`Behavior::peers`]. Processes of one component share one
/// allocation. If any behavior declares `None` the whole world is a single
/// domain. Engines call this once per world build and hand each
/// [`Driver`](crate::driver::Driver) its entry.
pub fn control_domains(behaviors: &[Arc<dyn Behavior>]) -> Vec<Arc<[ProcessId]>> {
    let n = behaviors.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (me, behavior) in behaviors.iter().enumerate() {
        let Some(peers) = behavior.peers(ProcessId(me as u32)) else {
            let world: Arc<[ProcessId]> = (0..n as u32).map(ProcessId).collect();
            return vec![world; n];
        };
        // A declared peer that is not in the world adds no edge: the send
        // to it, should it happen, fails the driver's domain check.
        for peer in peers.into_iter().map(|p| p.0 as usize).filter(|p| *p < n) {
            let (a, b) = (find(&mut parent, me), find(&mut parent, peer));
            parent[a] = b;
        }
    }
    let roots: Vec<usize> = (0..n).map(|pid| find(&mut parent, pid)).collect();
    let mut members: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
    for (pid, root) in roots.iter().enumerate() {
        members[*root].push(ProcessId(pid as u32));
    }
    let mut shared: Vec<Option<Arc<[ProcessId]>>> = vec![None; n];
    let domain_of = |root: usize| {
        let domain = shared[root].get_or_insert_with(|| std::mem::take(&mut members[root]).into());
        domain.clone()
    };
    roots.into_iter().map(domain_of).collect()
}

/// Forwards everything but the declaration: [`Behavior::peers`] is `None`,
/// so a world of these is one control domain and every control message goes
/// to every process — the paper's LAN broadcast, kept as the "world
/// broadcast" row scoped dissemination is compared against
/// ([`SimBuilder::undeclared`](crate::engine::SimBuilder::undeclared)).
pub(crate) struct Undeclared(pub Arc<dyn Behavior>);

impl Behavior for Undeclared {
    fn init(&self) -> BehaviorState {
        self.0.init()
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        self.0.step(state, resume)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// A behavior assembled from a closure — convenient for tests and small
/// workloads. The closure owns a `u32` program counter pattern by storing
/// whatever state type it wants.
pub struct FnBehavior<S, F> {
    init: S,
    f: F,
    name: String,
}

impl<S, F> FnBehavior<S, F>
where
    S: Any + Clone + Send + Sync,
    F: Fn(&mut S, Resume) -> Effect + Send + Sync,
{
    pub fn new(name: impl Into<String>, init: S, f: F) -> Self {
        FnBehavior {
            init,
            f,
            name: name.into(),
        }
    }
}

impl<S, F> Behavior for FnBehavior<S, F>
where
    S: Any + Clone + Send + Sync,
    F: Fn(&mut S, Resume) -> Effect + Send + Sync,
{
    fn init(&self) -> BehaviorState {
        BehaviorState::new(self.init.clone())
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        (self.f)(state.get_mut::<S>(), resume)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavior_state_round_trips_concrete_type() {
        let mut st = BehaviorState::new(vec![1u32, 2, 3]);
        st.get_mut::<Vec<u32>>().push(4);
        assert_eq!(st.get::<Vec<u32>>(), &vec![1, 2, 3, 4]);
    }

    #[test]
    fn behavior_state_clone_is_deep_for_owned_data() {
        let st = BehaviorState::new(vec![1u32]);
        let mut c = st.clone();
        c.get_mut::<Vec<u32>>().push(2);
        assert_eq!(st.get::<Vec<u32>>().len(), 1);
        assert_eq!(c.get::<Vec<u32>>().len(), 2);
    }

    #[test]
    #[should_panic(expected = "behavior state type mismatch")]
    fn behavior_state_type_mismatch_panics() {
        let st = BehaviorState::new(1u32);
        let _ = st.get::<String>();
    }

    #[test]
    fn fn_behavior_steps() {
        let b = FnBehavior::new("counter", 0u32, |pc, _resume| {
            *pc += 1;
            if *pc < 3 {
                Effect::Compute { cost: 1 }
            } else {
                Effect::Done
            }
        });
        let mut st = b.init();
        assert!(matches!(
            b.step(&mut st, Resume::Start),
            Effect::Compute { cost: 1 }
        ));
        assert!(matches!(
            b.step(&mut st, Resume::Continue),
            Effect::Compute { .. }
        ));
        assert!(matches!(b.step(&mut st, Resume::Continue), Effect::Done));
        assert_eq!(b.name(), "counter");
    }

    /// Declares `peers`; never steps.
    struct Names(Option<Vec<u32>>);

    impl Behavior for Names {
        fn init(&self) -> BehaviorState {
            BehaviorState::new(())
        }
        fn step(&self, _: &mut BehaviorState, _: Resume) -> Effect {
            Effect::Done
        }
        fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
            self.0
                .as_ref()
                .map(|ps| ps.iter().copied().map(ProcessId).collect())
        }
    }

    fn domains_of(world: Vec<Option<Vec<u32>>>) -> Vec<Vec<u32>> {
        let behaviors: Vec<Arc<dyn Behavior>> = world
            .into_iter()
            .map(|peers| Arc::new(Names(peers)) as Arc<dyn Behavior>)
            .collect();
        control_domains(&behaviors)
            .iter()
            .map(|d| d.iter().map(|p| p.0).collect())
            .collect()
    }

    #[test]
    fn control_domains_are_the_components_of_the_declared_graph() {
        // 0→1, 3→2 and 4→2 (edges are undirected), 5 alone; a peer outside
        // the world (9) adds nothing.
        let d = domains_of(vec![
            Some(vec![1]),
            Some(vec![]),
            Some(vec![9]),
            Some(vec![2]),
            Some(vec![2]),
            Some(vec![]),
        ]);
        assert_eq!(
            d,
            [
                vec![0, 1],
                vec![0, 1],
                vec![2, 3, 4],
                vec![2, 3, 4],
                vec![2, 3, 4],
                vec![5]
            ]
        );
    }

    #[test]
    fn one_undeclared_behavior_makes_the_world_one_domain() {
        let d = domains_of(vec![Some(vec![1]), Some(vec![]), None, Some(vec![])]);
        assert!(d.iter().all(|dom| dom == &[0, 1, 2, 3]), "{d:?}");
        // ...which is also what stripping a declaration gives.
        let alone: Arc<dyn Behavior> = Arc::new(Names(Some(vec![])));
        let stripped: Arc<dyn Behavior> = Arc::new(Undeclared(alone.clone()));
        assert_eq!(control_domains(&[alone.clone(), alone.clone()])[0].len(), 1);
        assert_eq!(control_domains(&[alone, stripped])[0].len(), 2);
    }

    #[test]
    fn a_component_shares_one_allocation() {
        let behaviors: Vec<Arc<dyn Behavior>> = vec![
            Arc::new(Names(Some(vec![1]))),
            Arc::new(Names(Some(vec![]))),
            Arc::new(Names(Some(vec![]))),
        ];
        let d = control_domains(&behaviors);
        assert!(Arc::ptr_eq(&d[0], &d[1]));
        assert!(!Arc::ptr_eq(&d[0], &d[2]));
    }

    #[test]
    fn effect_constructors() {
        match Effect::send(ProcessId(1), 5i64, "C1") {
            Effect::Send { to, payload, label } => {
                assert_eq!(to, ProcessId(1));
                assert_eq!(payload, Value::Int(5));
                assert_eq!(label, "C1");
            }
            _ => unreachable!(),
        }
    }
}
