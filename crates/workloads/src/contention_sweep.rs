//! Contention sweep — the workload where a static retry limit `L` is
//! provably wrong at both extremes (E12).
//!
//! One client streams calls to a hot shared server whose *conflict rate
//! ramps over phases*: a low-contention phase (every call succeeds), a
//! high-contention phase (every call fails — each guess is a value fault),
//! then a recovery phase (success again). The server does real work per
//! call (`server_compute`), so wasted speculation consumes the contended
//! resource instead of hiding in network gaps:
//!
//! * `Pessimistic` / `L = 0` loses the low phases: no pipelining, every
//!   call waits its full round trip.
//! * Any static `L ≥ 1` streams the first phase but burns its whole budget
//!   in the high phase (no commit ever resets the site), leaving the site
//!   **permanently pessimistic** — it loses the entire recovery phase even
//!   though contention is long gone.
//! * The adaptive controller (`core::speculation`) deepens in phase one,
//!   collapses to cooloff under thrash, and probes its way back to full
//!   streaming in the recovery phase.
//!
//! Phase boundaries are observed from the *committed* timeline: the client
//! emits an `Effect::External` marker at each boundary, and external
//! outputs only release when their guards empty — so per-phase durations
//! measure committed progress, speculative or not.

use crate::catalog::{self, place, Roster};
use crate::servers::Server;
use crate::streaming::{CLIENT, SERVER};
use opcsp_core::{CoreConfig, ProcessId, Value};
use opcsp_sim::{Behavior, BehaviorState, Effect, Resume, SimBuilder, SimResult, VTime};
use std::sync::Arc;

/// One segment of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Calls issued in this phase.
    pub calls: u32,
    /// Every call in this phase fails (a value fault at the client's
    /// join); `false` = every call succeeds.
    pub fail: bool,
}

/// Scenario parameters. The default is the E12 shape: low → high → low
/// with a server compute cost that makes wasted speculation expensive.
#[derive(Debug, Clone)]
pub struct SweepOpts {
    pub phases: Vec<Phase>,
    /// One-way network latency (ticks in sim, ms-equivalent in rt).
    pub latency: u64,
    /// Server compute per call — the contended resource.
    pub server_compute: u64,
    pub core: CoreConfig,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            phases: vec![
                Phase {
                    calls: 48,
                    fail: false,
                },
                Phase {
                    calls: 16,
                    fail: true,
                },
                Phase {
                    calls: 96,
                    fail: false,
                },
            ],
            latency: 10,
            server_compute: 30,
            core: CoreConfig::default(),
        }
    }
}

impl SweepOpts {
    pub fn total_calls(&self) -> u32 {
        self.phases.iter().map(|p| p.calls).sum()
    }

    /// Call indices at which each phase starts, plus the end: `P + 1`
    /// boundaries for `P` phases.
    pub fn boundaries(&self) -> Vec<u32> {
        let mut out = vec![0];
        let mut acc = 0;
        for p in &self.phases {
            acc += p.calls;
            out.push(acc);
        }
        out
    }

    /// Does call `i` fail? (Pure function of the phase table — the same
    /// decision on both engines.)
    pub fn call_fails(&self, i: u32) -> bool {
        let mut acc = 0;
        for p in &self.phases {
            acc += p.calls;
            if i < acc {
                return p.fail;
            }
        }
        false
    }
}

/// The sweeping client: a tally-style streamer (continues on failure, one
/// fork site for the whole run) that emits an external phase marker at
/// every boundary.
pub struct SweepClient {
    /// Phase-start boundaries plus the end (see [`SweepOpts::boundaries`]).
    pub boundaries: Arc<Vec<u32>>,
    pub server: ProcessId,
}

#[derive(Clone)]
struct SwState {
    i: u32,
    n: u32,
    ok: bool,
    good: i64,
    bad: i64,
    /// Next entry of `boundaries` to emit a marker for.
    next_marker: usize,
    pc: SwPc,
}

#[derive(Clone)]
enum SwPc {
    Top,
    Marker,
    Forked,
    Await,
    Joining,
    Finished,
}

impl SweepClient {
    fn top(&self, st: &mut SwState) -> Effect {
        if st.next_marker < self.boundaries.len() && st.i == self.boundaries[st.next_marker] {
            // Phase boundary: emit the marker, then resume the loop. The
            // marker is an external output, so it releases only when the
            // emitting thread's guard empties — committed time.
            st.pc = SwPc::Marker;
            return Effect::External {
                payload: Value::str(format!("phase{}", st.next_marker)),
            };
        }
        if st.i < st.n {
            st.pc = SwPc::Forked;
            Effect::Fork {
                site: 1,
                guesses: vec![("ok".into(), Value::Bool(true))],
            }
        } else {
            st.pc = SwPc::Finished;
            Effect::Done
        }
    }

    fn s2(&self, st: &mut SwState) -> Effect {
        if st.ok {
            st.good += 1;
        } else {
            st.bad += 1;
        }
        st.i += 1;
        self.top(st)
    }
}

impl Behavior for SweepClient {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(SwState {
            i: 0,
            n: *self.boundaries.last().expect("at least one boundary"),
            ok: true,
            good: 0,
            bad: 0,
            next_marker: 0,
            pc: SwPc::Top,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<SwState>();
        match (&st.pc, resume) {
            (SwPc::Top, Resume::Start) => self.top(st),
            (SwPc::Marker, Resume::Continue) => {
                st.next_marker += 1;
                self.top(st)
            }
            (SwPc::Forked, Resume::ForkLeft | Resume::ForkDenied) => {
                st.pc = SwPc::Await;
                Effect::call(
                    self.server,
                    Value::Int(st.i as i64),
                    format!("C{}", st.i + 1),
                )
            }
            (SwPc::Forked, Resume::ForkRight { guesses }) => {
                st.ok = guesses
                    .iter()
                    .find(|(k, _)| k == "ok")
                    .map(|(_, v)| v.is_true())
                    .unwrap_or(false);
                self.s2(st)
            }
            (SwPc::Await, Resume::Msg(env)) => {
                st.ok = env.payload.is_true();
                st.pc = SwPc::Joining;
                Effect::JoinLeft {
                    actual: vec![("ok".into(), Value::Bool(st.ok))],
                }
            }
            (SwPc::Joining, Resume::JoinSequential) => self.s2(st),
            (_, r) => panic!("SweepClient: unexpected resume {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "SweepClient"
    }

    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(vec![self.server])
    }
}

impl SweepOpts {
    /// The sweep's world: the client, then the hot server. The same roster
    /// runs on the simulator (E12) and on rt (the sim-vs-rt differential:
    /// policy changes scheduling, never semantics).
    pub fn roster(&self) -> Roster {
        let table = self.clone();
        let server = Server::new("HotServer", self.server_compute).with_reply(move |line| {
            let i = line.as_int().unwrap_or(-1);
            Value::Bool(i >= 0 && !table.call_fails(i as u32))
        });
        let client = SweepClient {
            boundaries: Arc::new(self.boundaries()),
            server: SERVER,
        };
        vec![(Arc::new(client), true), (Arc::new(server), false)]
    }
}

/// A completed sweep with its committed phase timeline.
#[derive(Debug)]
pub struct SweepOutcome {
    pub result: SimResult,
    pub phases: Vec<Phase>,
    /// Committed release time of each boundary marker (`P + 1` entries).
    pub marker_times: Vec<VTime>,
}

impl SweepOutcome {
    /// Committed duration of each phase.
    pub fn phase_durations(&self) -> Vec<VTime> {
        self.marker_times
            .windows(2)
            .map(|w| w[1].saturating_sub(w[0]))
            .collect()
    }

    /// Committed throughput of each phase, in calls per kilotick.
    pub fn phase_throughputs(&self) -> Vec<f64> {
        self.phase_durations()
            .iter()
            .zip(&self.phases)
            .map(|(d, p)| {
                if *d == 0 {
                    0.0
                } else {
                    p.calls as f64 * 1000.0 / *d as f64
                }
            })
            .collect()
    }
}

/// Build and run the sweep on the simulator.
pub fn run_contention_sweep(opts: SweepOpts) -> SweepOutcome {
    let cfg = catalog::sim_config(&opts.core, opts.latency, 0, 0, None);
    let result = place(&opts.roster(), SimBuilder::new(cfg)).build().run();
    let marker_times: Vec<VTime> = result
        .external
        .iter()
        .filter(|(_, pid, v)| {
            *pid == CLIENT && matches!(v, Value::Str(s) if s.starts_with("phase"))
        })
        .map(|(t, _, _)| *t)
        .collect();
    SweepOutcome {
        result,
        phases: opts.phases,
        marker_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_commit_once_per_boundary_in_order() {
        let opts = SweepOpts {
            phases: vec![
                Phase {
                    calls: 6,
                    fail: false,
                },
                Phase {
                    calls: 4,
                    fail: true,
                },
                Phase {
                    calls: 6,
                    fail: false,
                },
            ],
            latency: 10,
            server_compute: 5,
            ..SweepOpts::default()
        };
        let out = run_contention_sweep(opts);
        assert!(out.result.unresolved.is_empty());
        assert_eq!(out.marker_times.len(), 4, "P+1 boundary markers");
        assert!(
            out.marker_times.windows(2).all(|w| w[0] <= w[1]),
            "markers release in phase order: {:?}",
            out.marker_times
        );
        // Theorem 1: rolled-back speculative emissions never duplicate.
        let markers: Vec<&Value> = out
            .result
            .external
            .iter()
            .filter(|(_, p, _)| *p == CLIENT)
            .map(|(_, _, v)| v)
            .collect();
        assert_eq!(markers.len(), 4);
    }

    #[test]
    fn call_fails_follows_the_phase_table() {
        let opts = SweepOpts::default();
        assert!(!opts.call_fails(0));
        assert!(!opts.call_fails(47));
        assert!(opts.call_fails(48));
        assert!(opts.call_fails(63));
        assert!(!opts.call_fails(64));
        assert!(!opts.call_fails(159));
        assert_eq!(opts.total_calls(), 160);
        assert_eq!(opts.boundaries(), vec![0, 48, 64, 160]);
    }
}
