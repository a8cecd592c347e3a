//! Unified guess-lifecycle telemetry shared by both engines (§5).
//!
//! The paper's evaluation rests on quantities the protocol core alone can
//! name — how long a guess lives between its fork and the COMMIT/ABORT
//! that resolves it, how deep rollback cascades go, and how much executed
//! work optimism ultimately discards. This module gives the simulator
//! (`opcsp-sim`) and the threaded runtime (`opcsp-rt`) one vocabulary for
//! those quantities:
//!
//! * [`TelemetryEvent`] — a structured event stream (fork, resolution with
//!   cause, rollback with depth, thread discard, commit-wave start/landing,
//!   delivery, orphan drop) recorded by a [`Telemetry`] sink;
//! * [`LifecycleReport`] — per-guess fork→resolution latency, retry counts
//!   per fork site, and wasted-step attribution, with power-of-two
//!   [`Histogram`]s for latency and rollback depth;
//! * [`Telemetry::to_perfetto_json`] — a Chrome trace-event (Perfetto
//!   "JSON trace") exporter, hand-rolled because dependencies are vendored
//!   offline stubs (DESIGN.md §6);
//! * [`ProtoStats`] — the protocol counters both engines share, embedded
//!   in `SimStats` and `RtStats` so the two report comparable numbers.
//!
//! Timestamps are engine-relative [`Tick`]s: the simulator records virtual
//! time directly, the runtime records microseconds since run start. Both
//! are exported as trace microseconds, which Perfetto renders on one
//! coherent axis per run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::guard::InternerStats;
use crate::ids::{ForkIndex, GuessId, ProcessId};
use crate::message::MsgId;
use crate::process::{GuessResolution, ResolutionCause};
use crate::speculation::PolicyShift;

/// Engine-relative event time: virtual ticks in the simulator,
/// microseconds since run start in the runtime.
pub type Tick = u64;

/// One entry of the unified lifecycle event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// A `parallelize` fork created `guess` at source `site` (§4.2.1).
    Fork {
        t: Tick,
        guess: GuessId,
        /// Fork-site id within the process (stable across retries).
        site: u32,
        left: ForkIndex,
        right: ForkIndex,
    },
    /// `guess` resolved — the owner decided COMMIT or ABORT (§4.2.4–4.2.8).
    Resolved {
        t: Tick,
        guess: GuessId,
        committed: bool,
        cause: ResolutionCause,
    },
    /// A thread rolled back to a checkpoint, un-executing `steps_lost`
    /// behavior steps across `depth` optimistic intervals (§4.1.3).
    Rollback {
        t: Tick,
        process: ProcessId,
        thread: ForkIndex,
        /// Optimistic intervals popped to reach the rollback point.
        depth: u32,
        /// Behavior steps executed past the restored checkpoint.
        steps_lost: u64,
        /// The aborted guess this rollback is attributed to, when known.
        root: Option<GuessId>,
    },
    /// A whole thread was discarded (its creating guess aborted).
    Discard {
        t: Tick,
        process: ProcessId,
        thread: ForkIndex,
        /// Optimistic intervals the thread had accumulated when discarded.
        intervals: u32,
        steps_lost: u64,
        root: Option<GuessId>,
    },
    /// The owner of `guess` started broadcasting its COMMIT wave.
    WaveStart { t: Tick, guess: GuessId },
    /// The COMMIT wave for `guess` landed at (was applied by) `at`.
    WaveLanded { t: Tick, guess: GuessId, at: ProcessId },
    /// A pooled message was delivered to a thread, acquiring `new_deps`
    /// previously-unheld guard dependencies (§4.2.3 tail).
    Deliver {
        t: Tick,
        process: ProcessId,
        thread: ForkIndex,
        msg: MsgId,
        new_deps: u32,
    },
    /// A message was dropped as an orphan: `guess` in its guard is known
    /// aborted (§4.2.3 arrival rule).
    Orphan {
        t: Tick,
        process: ProcessId,
        msg: MsgId,
        guess: GuessId,
    },
    /// The speculation controller changed a fork site's effective budget
    /// (`core::speculation`): deepen, back off, cooloff or probe.
    PolicyShift {
        t: Tick,
        process: ProcessId,
        shift: PolicyShift,
    },
}

impl TelemetryEvent {
    pub fn t(&self) -> Tick {
        match self {
            TelemetryEvent::Fork { t, .. }
            | TelemetryEvent::Resolved { t, .. }
            | TelemetryEvent::Rollback { t, .. }
            | TelemetryEvent::Discard { t, .. }
            | TelemetryEvent::WaveStart { t, .. }
            | TelemetryEvent::WaveLanded { t, .. }
            | TelemetryEvent::Deliver { t, .. }
            | TelemetryEvent::Orphan { t, .. }
            | TelemetryEvent::PolicyShift { t, .. } => *t,
        }
    }
}

/// Event sink. When disabled every record call is a no-op and the sink
/// holds no storage — the ≤5% overhead gate in
/// `crates/bench/benches/telemetry_overhead.rs` leans on this.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    enabled: bool,
    pub events: Vec<TelemetryEvent>,
    /// Per-process cursor into `ProcessCore::resolutions`, so repeated
    /// [`Telemetry::sync_resolutions`] calls emit each resolution once.
    cursors: BTreeMap<ProcessId, usize>,
    /// Per-process cursor into the speculation controller's decision log
    /// (`ProcessCore::policy_shifts`), same idempotence contract.
    shift_cursors: BTreeMap<ProcessId, usize>,
}

impl Telemetry {
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            enabled,
            ..Telemetry::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn record(&mut self, ev: TelemetryEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// Emit `Resolved` events for any resolutions recorded by `process`
    /// since the last sync. Engines call this after every join decision,
    /// remote COMMIT/ABORT application, and precedence resolution; the
    /// cursor makes the call idempotent.
    pub fn sync_resolutions(&mut self, t: Tick, process: ProcessId, resolutions: &[GuessResolution]) {
        if !self.enabled {
            return;
        }
        let cursor = self.cursors.entry(process).or_insert(0);
        for r in &resolutions[(*cursor).min(resolutions.len())..] {
            self.events.push(TelemetryEvent::Resolved {
                t,
                guess: r.guess,
                committed: r.committed,
                cause: r.cause.clone(),
            });
        }
        *cursor = resolutions.len();
    }

    /// Emit `PolicyShift` events for controller decisions recorded by
    /// `process` since the last sync (cursor-idempotent, like
    /// [`Telemetry::sync_resolutions`]).
    pub fn sync_policy_shifts(&mut self, t: Tick, process: ProcessId, shifts: &[PolicyShift]) {
        if !self.enabled {
            return;
        }
        let cursor = self.shift_cursors.entry(process).or_insert(0);
        for s in &shifts[(*cursor).min(shifts.len())..] {
            self.events.push(TelemetryEvent::PolicyShift {
                t,
                process,
                shift: *s,
            });
        }
        *cursor = shifts.len();
    }

    /// Fold another sink's events into this one (runtime actors each record
    /// locally; the world merges at join time), keeping time order.
    pub fn absorb(&mut self, events: Vec<TelemetryEvent>) {
        if !self.enabled {
            return;
        }
        self.events.extend(events);
        self.events.sort_by_key(TelemetryEvent::t);
    }

    /// Build the per-guess lifecycle analysis from the recorded stream.
    pub fn lifecycle(&self) -> LifecycleReport {
        LifecycleReport::from_events(&self.events)
    }

    /// Export the stream as a Chrome trace-event JSON document (the
    /// "JSON trace" format Perfetto and `chrome://tracing` load).
    ///
    /// Each guess becomes one complete ("X") slice on track
    /// `pid = owner process`, `tid = fork index`, spanning fork to
    /// resolution; rollbacks, discards, orphans and commit waves become
    /// instant ("i") events; `names` label the process tracks via "M"
    /// metadata records.
    pub fn to_perfetto_json(&self, names: &BTreeMap<ProcessId, String>) -> String {
        let report = self.lifecycle();
        let end = self.events.last().map(|e| e.t()).unwrap_or(0);
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, record: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&record);
        };
        for (pid, name) in names {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":{}}}}}",
                    pid.0,
                    json_str(name)
                ),
            );
        }
        for lc in &report.guesses {
            let resolved = lc.resolved_at.unwrap_or(end.max(lc.forked_at));
            let verdict = match lc.committed {
                Some(true) => "committed",
                Some(false) => "aborted",
                None => "unresolved",
            };
            let cause = lc
                .cause
                .as_ref()
                .map(cause_name)
                .unwrap_or("pending");
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":{},\"cat\":\"guess\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"site\":{},\"verdict\":\"{}\",\
                     \"cause\":\"{}\",\"wasted_steps\":{}}}}}",
                    json_str(&lc.guess.to_string()),
                    lc.forked_at,
                    resolved.saturating_sub(lc.forked_at),
                    lc.guess.process.0,
                    lc.guess.index,
                    lc.site,
                    verdict,
                    cause,
                    lc.wasted_steps,
                ),
            );
        }
        for ev in &self.events {
            let record = match ev {
                TelemetryEvent::Rollback {
                    t,
                    process,
                    thread,
                    depth,
                    steps_lost,
                    root,
                } => Some(format!(
                    "{{\"name\":\"rollback\",\"cat\":\"abort\",\"ph\":\"i\",\"s\":\"p\",\
                     \"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"depth\":{},\
                     \"steps_lost\":{},\"root\":{}}}}}",
                    t,
                    process.0,
                    thread,
                    depth,
                    steps_lost,
                    opt_guess_json(root),
                )),
                TelemetryEvent::Discard {
                    t,
                    process,
                    thread,
                    intervals,
                    steps_lost,
                    root,
                } => Some(format!(
                    "{{\"name\":\"discard\",\"cat\":\"abort\",\"ph\":\"i\",\"s\":\"p\",\
                     \"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"intervals\":{},\
                     \"steps_lost\":{},\"root\":{}}}}}",
                    t,
                    process.0,
                    thread,
                    intervals,
                    steps_lost,
                    opt_guess_json(root),
                )),
                TelemetryEvent::WaveStart { t, guess } => Some(format!(
                    "{{\"name\":\"commit_wave\",\"cat\":\"commit\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"guess\":{}}}}}",
                    t,
                    guess.process.0,
                    guess.index,
                    json_str(&guess.to_string()),
                )),
                TelemetryEvent::WaveLanded { t, guess, at } => Some(format!(
                    "{{\"name\":\"wave_landed\",\"cat\":\"commit\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"guess\":{}}}}}",
                    t,
                    at.0,
                    json_str(&guess.to_string()),
                )),
                TelemetryEvent::Orphan {
                    t,
                    process,
                    msg,
                    guess,
                } => Some(format!(
                    "{{\"name\":\"orphan\",\"cat\":\"abort\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"msg\":{},\"guess\":{}}}}}",
                    t,
                    process.0,
                    msg.0,
                    json_str(&guess.to_string()),
                )),
                TelemetryEvent::PolicyShift { t, process, shift } => Some(format!(
                    "{{\"name\":\"policy_shift\",\"cat\":\"policy\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"site\":{},\"reason\":\"{}\",\
                     \"from_limit\":{},\"to_limit\":{},\"success_pm\":{}}}}}",
                    t,
                    process.0,
                    shift.site,
                    shift.reason,
                    shift.from_limit,
                    shift.to_limit,
                    shift.success_pm,
                )),
                _ => None,
            };
            if let Some(r) = record {
                push(&mut out, &mut first, r);
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn opt_guess_json(g: &Option<GuessId>) -> String {
    match g {
        Some(g) => json_str(&g.to_string()),
        None => "null".to_string(),
    }
}

/// Stable short name for a resolution cause, used in trace `args` and the
/// lifecycle table.
pub fn cause_name(c: &ResolutionCause) -> &'static str {
    match c {
        ResolutionCause::ValueFault => "value_fault",
        ResolutionCause::SelfCycle => "self_cycle",
        ResolutionCause::EmptyGuard => "empty_guard",
        ResolutionCause::CascadeCommit => "cascade_commit",
        ResolutionCause::PrecedenceCycle => "precedence_cycle",
        ResolutionCause::DependencyAbort { .. } => "dependency_abort",
        ResolutionCause::Explicit => "explicit",
    }
}

/// JSON string literal with escaping — mirrors the hand-rolled writer in
/// `opcsp-bench` (dependencies are vendored stubs; no serde).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The lifecycle of one guess, reconstructed from the event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuessLifecycle {
    pub guess: GuessId,
    pub site: u32,
    pub forked_at: Tick,
    pub resolved_at: Option<Tick>,
    /// `None` while unresolved at end of run.
    pub committed: Option<bool>,
    pub cause: Option<ResolutionCause>,
    /// Behavior steps discarded by rollbacks/discards attributed to this
    /// guess's abort.
    pub wasted_steps: u64,
}

impl GuessLifecycle {
    /// Fork→resolution latency in ticks, when resolved.
    pub fn latency(&self) -> Option<Tick> {
        self.resolved_at.map(|r| r.saturating_sub(self.forked_at))
    }
}

/// Aggregated per-guess analysis of one run's event stream.
#[derive(Debug, Clone, Default)]
pub struct LifecycleReport {
    /// One entry per forked guess, in fork order.
    pub guesses: Vec<GuessLifecycle>,
    /// Fork→resolution latency over resolved guesses (ticks).
    pub latency: Histogram,
    /// Intervals popped per rollback event.
    pub rollback_depth: Histogram,
    /// Aborted-guess count per fork site: `(process, site) → retries`.
    /// Each abort at a site forces one optimistic re-execution (§3.3).
    pub retries: BTreeMap<(ProcessId, u32), u64>,
    /// Speculation-controller decisions per fork site:
    /// `(process, site) → PolicyShift event count`.
    pub policy_shifts: BTreeMap<(ProcessId, u32), u64>,
    /// Total behavior steps discarded by rollbacks and thread discards.
    pub wasted_steps: u64,
    /// Wasted steps that could not be attributed to a specific guess.
    pub unattributed_steps: u64,
}

/// Per-fork-site rollup of [`LifecycleReport`] — the speculation
/// controller's inputs, inspectable per site.
#[derive(Debug, Clone, Default)]
pub struct SiteSummary {
    /// Guesses forked at this site.
    pub forks: u64,
    pub committed: u64,
    pub aborted: u64,
    /// Behavior steps wasted by aborts rooted at this site's guesses.
    pub wasted_steps: u64,
    /// Controller decisions (PolicyShift events) at this site.
    pub policy_shifts: u64,
    /// Fork→resolution latency of this site's resolved guesses.
    pub latency: Histogram,
}

impl LifecycleReport {
    pub fn from_events(events: &[TelemetryEvent]) -> LifecycleReport {
        let mut report = LifecycleReport::default();
        let mut index: BTreeMap<GuessId, usize> = BTreeMap::new();
        for ev in events {
            match ev {
                TelemetryEvent::Fork {
                    t, guess, site, ..
                } => {
                    index.insert(*guess, report.guesses.len());
                    report.guesses.push(GuessLifecycle {
                        guess: *guess,
                        site: *site,
                        forked_at: *t,
                        resolved_at: None,
                        committed: None,
                        cause: None,
                        wasted_steps: 0,
                    });
                }
                TelemetryEvent::Resolved {
                    t,
                    guess,
                    committed,
                    cause,
                } => {
                    if let Some(&i) = index.get(guess) {
                        let lc = &mut report.guesses[i];
                        if lc.resolved_at.is_none() {
                            lc.resolved_at = Some(*t);
                            lc.committed = Some(*committed);
                            lc.cause = Some(cause.clone());
                            report.latency.record(t.saturating_sub(lc.forked_at));
                            if !committed {
                                *report.retries.entry((guess.process, lc.site)).or_insert(0) +=
                                    1;
                            }
                        }
                    }
                }
                TelemetryEvent::Rollback {
                    depth,
                    steps_lost,
                    root,
                    ..
                } => {
                    report.rollback_depth.record(u64::from(*depth));
                    report.wasted_steps += steps_lost;
                    match root.and_then(|g| index.get(&g).copied()) {
                        Some(i) => report.guesses[i].wasted_steps += steps_lost,
                        None => report.unattributed_steps += steps_lost,
                    }
                }
                TelemetryEvent::Discard {
                    steps_lost, root, ..
                } => {
                    report.wasted_steps += steps_lost;
                    match root.and_then(|g| index.get(&g).copied()) {
                        Some(i) => report.guesses[i].wasted_steps += steps_lost,
                        None => report.unattributed_steps += steps_lost,
                    }
                }
                TelemetryEvent::PolicyShift { process, shift, .. } => {
                    *report
                        .policy_shifts
                        .entry((*process, shift.site))
                        .or_insert(0) += 1;
                }
                _ => {}
            }
        }
        report
    }

    /// Guesses that resolved as committed / aborted.
    pub fn committed_count(&self) -> u64 {
        self.guesses
            .iter()
            .filter(|g| g.committed == Some(true))
            .count() as u64
    }

    pub fn aborted_count(&self) -> u64 {
        self.guesses
            .iter()
            .filter(|g| g.committed == Some(false))
            .count() as u64
    }

    /// Total retries across all sites.
    pub fn total_retries(&self) -> u64 {
        self.retries.values().sum()
    }

    /// Roll the report up per `(process, fork site)` — forks, verdicts,
    /// wasted steps, controller decisions, latency distribution.
    pub fn per_site(&self) -> BTreeMap<(ProcessId, u32), SiteSummary> {
        let mut sites: BTreeMap<(ProcessId, u32), SiteSummary> = BTreeMap::new();
        for lc in &self.guesses {
            let s = sites.entry((lc.guess.process, lc.site)).or_default();
            s.forks += 1;
            match lc.committed {
                Some(true) => s.committed += 1,
                Some(false) => s.aborted += 1,
                None => {}
            }
            s.wasted_steps += lc.wasted_steps;
            if let Some(l) = lc.latency() {
                s.latency.record(l);
            }
        }
        for (key, n) in &self.policy_shifts {
            sites.entry(*key).or_default().policy_shifts += n;
        }
        sites
    }
}

/// Power-of-two-bucket histogram: bucket `i` holds values in
/// `[2^(i-1), 2^i)` (bucket 0 holds exactly 0). Cheap to record, compact
/// to render, and good enough for latency/depth distributions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    pub fn record(&mut self, v: u64) {
        let b = Self::bucket_of(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (`0.0 < p <= 1.0`); exact for the max, bucket-resolution otherwise.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << i) - 1 }.min(self.max);
            }
        }
        self.max
    }

    /// Compact one-line rendering for the figures tables.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={} p50≤{} p95≤{} max={}",
            self.count,
            self.percentile(0.50),
            self.percentile(0.95),
            self.max
        )
    }
}

/// Protocol counters common to both engines. `SimStats` and `RtStats`
/// embed one (via `Deref`) so their protocol numbers are the same fields
/// with the same meanings, and the differential test in
/// `tests/lifecycle_differential.rs` can compare them directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtoStats {
    pub forks: u64,
    pub commits: u64,
    pub aborts: u64,
    pub rollbacks: u64,
    pub discarded_threads: u64,
    /// Messages dropped by the §4.2.3 orphan rule (at arrival, at pooled
    /// re-classification before delivery, or by a pool purge after an
    /// incarnation bump).
    pub orphans: u64,
    pub data_messages: u64,
    pub control_messages: u64,
    /// Bytes of data-message guard tags, by `Guard::wire_size`.
    pub guard_bytes: u64,
    /// No writer, always 0: nothing ships incarnation-table rows. A name
    /// `benchmark/src/run.rs` reads; goes with ROADMAP item 4.
    pub table_bytes: u64,
    /// No writer, always 0 (see [`WireStats`]).
    pub wire: WireStats,
    /// No writer, always 0 (see [`InternerStats`]).
    pub interner: InternerStats,
}

/// What is left of the wire-codec counters: one field with no writer,
/// always 0 — nothing falls back, there is one encoding. A name
/// `benchmark/src/run.rs` reads; goes with ROADMAP item 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    pub full_fallbacks: u64,
}

impl ProtoStats {
    pub fn merge(&mut self, other: &ProtoStats) {
        self.forks += other.forks;
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.rollbacks += other.rollbacks;
        self.discarded_threads += other.discarded_threads;
        self.orphans += other.orphans;
        self.data_messages += other.data_messages;
        self.control_messages += other.control_messages;
        self.guard_bytes += other.guard_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Incarnation;

    fn g(p: u32, i: u32) -> GuessId {
        GuessId::new(ProcessId(p), Incarnation(0), i)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = Telemetry::new(false);
        t.record(TelemetryEvent::WaveStart { t: 1, guess: g(0, 1) });
        t.sync_resolutions(
            5,
            ProcessId(0),
            &[GuessResolution {
                guess: g(0, 1),
                committed: true,
                cause: ResolutionCause::EmptyGuard,
            }],
        );
        assert!(t.events.is_empty());
    }

    #[test]
    fn sync_resolutions_is_cursor_idempotent() {
        let mut t = Telemetry::new(true);
        let rs = vec![
            GuessResolution {
                guess: g(0, 1),
                committed: true,
                cause: ResolutionCause::EmptyGuard,
            },
            GuessResolution {
                guess: g(0, 2),
                committed: false,
                cause: ResolutionCause::ValueFault,
            },
        ];
        t.sync_resolutions(3, ProcessId(0), &rs[..1]);
        t.sync_resolutions(4, ProcessId(0), &rs);
        t.sync_resolutions(4, ProcessId(0), &rs);
        assert_eq!(t.events.len(), 2);
    }

    #[test]
    fn lifecycle_latency_retries_and_attribution() {
        let mut t = Telemetry::new(true);
        t.record(TelemetryEvent::Fork {
            t: 10,
            guess: g(0, 1),
            site: 7,
            left: 0,
            right: 1,
        });
        t.record(TelemetryEvent::Fork {
            t: 12,
            guess: g(1, 1),
            site: 3,
            left: 0,
            right: 1,
        });
        t.record(TelemetryEvent::Rollback {
            t: 20,
            process: ProcessId(1),
            thread: 0,
            depth: 2,
            steps_lost: 5,
            root: Some(g(1, 1)),
        });
        t.record(TelemetryEvent::Resolved {
            t: 25,
            guess: g(1, 1),
            committed: false,
            cause: ResolutionCause::ValueFault,
        });
        t.record(TelemetryEvent::Resolved {
            t: 30,
            guess: g(0, 1),
            committed: true,
            cause: ResolutionCause::EmptyGuard,
        });
        let r = t.lifecycle();
        assert_eq!(r.guesses.len(), 2);
        assert_eq!(r.committed_count(), 1);
        assert_eq!(r.aborted_count(), 1);
        assert_eq!(r.guesses[0].latency(), Some(20));
        assert_eq!(r.guesses[1].wasted_steps, 5);
        assert_eq!(r.wasted_steps, 5);
        assert_eq!(r.retries.get(&(ProcessId(1), 3)), Some(&1));
        assert_eq!(r.latency.count(), 2);
        assert_eq!(r.rollback_depth.max(), 2);
    }

    #[test]
    fn histogram_percentiles_bucketed() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 100);
        assert!(h.percentile(0.5) <= 3);
        assert_eq!(h.percentile(1.0), 100);
        let empty = Histogram::default();
        assert_eq!(empty.render(), "n=0");
    }

    #[test]
    fn perfetto_json_is_wellformed_and_escaped() {
        let mut t = Telemetry::new(true);
        t.record(TelemetryEvent::Fork {
            t: 0,
            guess: g(0, 1),
            site: 0,
            left: 0,
            right: 1,
        });
        t.record(TelemetryEvent::Orphan {
            t: 4,
            process: ProcessId(1),
            msg: MsgId(9),
            guess: g(0, 1),
        });
        t.record(TelemetryEvent::Resolved {
            t: 9,
            guess: g(0, 1),
            committed: false,
            cause: ResolutionCause::Explicit,
        });
        let mut names = BTreeMap::new();
        names.insert(ProcessId(0), "Client \"quoted\"".to_string());
        let json = t.to_perfetto_json(&names);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        // Balanced braces/brackets outside string literals.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
