//! Outside-in layer timing: the benchmark wraps every behaviour it
//! registers in a [`Timed`] whose `step` is timed and counted and whose
//! state is a [`TimedState`] whose `Clone` is timed and counted (both
//! engines checkpoint through `BehaviorState::clone`). Nothing inside
//! `crates/` is touched; what the wrappers do not cover is the residual
//! (protocol core + scheduling + transport + idle).

use opcsp_sim::{Behavior, BehaviorState, Effect, Resume};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// At most this many child spans are kept per traced run; totals keep
/// counting past it, so the metrics are exact and the trace file is bounded.
const CHILD_SPAN_CAP: u64 = 20_000;

/// One recorded span. `parent` indexes into the same span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span and count sink for one traced invocation. The atomics
/// are statistics and a list index (they publish no other data; the span
/// list itself is behind the mutex), hence `Relaxed`.
pub struct Recorder {
    origin: Instant,
    steps: AtomicU64,
    step_ns: AtomicU64,
    clones: AtomicU64,
    clone_ns: AtomicU64,
    child_spans: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Index of the open top-level span, which child spans hang off
    /// (`NO_SPAN` between spans).
    open_span: AtomicUsize,
}

const NO_SPAN: usize = usize::MAX;

/// Totals of the wrapped layers since the last [`Recorder::take_totals`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub steps: u64,
    pub step_ns: u64,
    pub clones: u64,
    pub clone_ns: u64,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            steps: AtomicU64::new(0),
            step_ns: AtomicU64::new(0),
            clones: AtomicU64::new(0),
            clone_ns: AtomicU64::new(0),
            child_spans: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            open_span: AtomicUsize::new(NO_SPAN),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a top-level span (`bench.setup`, `bench.run`,
    /// `bench.pessimistic_run`, `bench.oracle`); these do not nest. Child
    /// spans recorded by wrapped behaviours while `f` runs name this span
    /// as their parent.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let idx = {
            let mut spans = self
                .spans
                .lock()
                .expect("no panic while holding the span list");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: None,
            });
            spans.len() - 1
        };
        self.open_span.store(idx, Relaxed);
        let out = f();
        self.open_span.store(NO_SPAN, Relaxed);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no panic while holding the span list")[idx]
            .end_ns = end_ns;
        out
    }

    fn child(&self, name: &'static str, start: Instant, count: &AtomicU64, total_ns: &AtomicU64) {
        let dur = start.elapsed().as_nanos() as u64;
        count.fetch_add(1, Relaxed);
        total_ns.fetch_add(dur, Relaxed);
        if self.child_spans.fetch_add(1, Relaxed) < CHILD_SPAN_CAP {
            let end_ns = self.now_ns();
            let parent = Some(self.open_span.load(Relaxed)).filter(|&i| i != NO_SPAN);
            self.spans
                .lock()
                .expect("no panic while holding the span list")
                .push(Span {
                    name,
                    start_ns: end_ns.saturating_sub(dur),
                    end_ns,
                    parent,
                });
        }
    }

    /// Read and reset the wrapped-layer totals (one traced rep's worth).
    pub fn take_totals(&self) -> LayerTotals {
        LayerTotals {
            steps: self.steps.swap(0, Relaxed),
            step_ns: self.step_ns.swap(0, Relaxed),
            clones: self.clones.swap(0, Relaxed),
            clone_ns: self.clone_ns.swap(0, Relaxed),
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no panic while holding the span list")
            .clone()
    }
}

/// A behaviour whose steps and state clones are timed from outside.
pub struct Timed {
    inner: Arc<dyn Behavior>,
    rec: Arc<Recorder>,
}

impl Timed {
    pub fn wrap(inner: Arc<dyn Behavior>, rec: &Arc<Recorder>) -> Arc<dyn Behavior> {
        Arc::new(Timed {
            inner,
            rec: rec.clone(),
        })
    }
}

struct TimedState {
    inner: BehaviorState,
    rec: Arc<Recorder>,
}

impl Clone for TimedState {
    fn clone(&self) -> Self {
        let start = Instant::now();
        let inner = self.inner.clone();
        self.rec.child(
            "sim.behavior.clone",
            start,
            &self.rec.clones,
            &self.rec.clone_ns,
        );
        TimedState {
            inner,
            rec: self.rec.clone(),
        }
    }
}

impl Behavior for Timed {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(TimedState {
            inner: self.inner.init(),
            rec: self.rec.clone(),
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<TimedState>();
        let start = Instant::now();
        let effect = self.inner.step(&mut st.inner, resume);
        self.rec.child(
            "workloads.behavior.step",
            start,
            &self.rec.steps,
            &self.rec.step_ns,
        );
        effect
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
