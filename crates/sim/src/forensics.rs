//! Divergence forensics: when an optimistic run's committed behavior
//! differs from the sequential reference, explain *why* — instead of a
//! bare "traces differ".
//!
//! Three tools, in the replay-and-diff tradition Time Warp systems used
//! for exactly this class of bug (Jefferson, *Virtual Time*):
//!
//! 1. [`first_divergence`] — align the committed observable logs and
//!    report the earliest differing event, annotated with the commit
//!    provenance ([`ObsMeta`]: message id, link sequence, guard set,
//!    incarnation) recorded by the engine.
//! 2. [`happens_before_chain`] — mine the optimistic run's trace for the
//!    minimal causal story of the divergent event: the send and every
//!    delivery/orphaning of the message involved, the fork and resolution
//!    of every guess in its guard, and the receiving process's rollbacks.
//! 3. [`shrink_schedule`] — delta-debug (ddmin) the jitter draws of a
//!    (seed, jitter) reproducer down to a 1-minimal set of perturbed
//!    deliveries that still triggers the divergence, so the failing
//!    interleaving fits on one screen. Replays use
//!    [`LatencyModel::Scripted`](crate::latency::LatencyModel) overrides
//!    addressed by [`DrawKey`].

use crate::driver::ObsMeta;
use crate::engine::SimResult;
use crate::equiv::{EquivReport, Mismatch};
use crate::latency::DrawKey;
use crate::trace::{TraceEvent, VTime};
use opcsp_core::{GuessId, MsgId, ProcessId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One step of a happens-before explanation, in time order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbStep {
    pub t: VTime,
    pub process: ProcessId,
    pub what: String,
}

/// The earliest committed event where the two runs disagree, with the
/// commit provenance of both sides.
#[derive(Debug, Clone)]
pub struct FirstDivergence {
    pub mismatch: Mismatch,
    /// Provenance of the optimistic run's event at this position.
    pub opt_meta: Option<ObsMeta>,
    /// Provenance of the pessimistic run's event at this position.
    pub pess_meta: Option<ObsMeta>,
    /// Resolution provenance of every guess in the optimistic event's
    /// guard (and of the guesses the chain mentions), rendered.
    pub guesses: Vec<String>,
}

/// A 1-minimal perturbation set found by [`shrink_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrunkSchedule {
    /// Draws that must keep their jittered latency for the divergence to
    /// reproduce, in draw-key order.
    pub kept: Vec<(DrawKey, u64)>,
    /// The clamp-everything-else override table that, together with the
    /// kept draws, byte-for-byte reproduces the verdict under
    /// `LatencyModel::Scripted`.
    pub overrides: BTreeMap<DrawKey, u64>,
    /// Total perturbed draws in the original reproducer.
    pub total_perturbed: usize,
    /// Reproduction attempts the shrink needed.
    pub tests_run: usize,
}

/// Everything `--forensics` prints.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    pub first: FirstDivergence,
    pub chain: Vec<HbStep>,
    pub shrunk: Option<ShrunkSchedule>,
    /// Scripted latency overrides the reproducer run never drew
    /// ([`crate::engine::SimResult::unused_overrides`]): a reproducer
    /// whose script drifted from the workload is reported loudly instead
    /// of quietly testing nothing.
    pub unused_overrides: Vec<DrawKey>,
}

/// Locate the earliest divergent committed event and attach provenance.
/// Returns `None` when the report has no mismatches.
pub fn first_divergence(
    report: &EquivReport,
    pessimistic: &SimResult,
    optimistic: &SimResult,
) -> Option<FirstDivergence> {
    let m = report.first()?.clone();
    // A release mismatch indexes no committed log, so it has no provenance.
    let meta_at = |r: &SimResult| {
        r.provenance
            .get(&m.process)
            .filter(|_| !m.released)
            .and_then(|v| v.get(m.position))
            .cloned()
    };
    let opt_meta = meta_at(optimistic);
    let pess_meta = meta_at(pessimistic);
    let mut guesses = Vec::new();
    if let Some(meta) = &opt_meta {
        for g in meta.guard.iter() {
            guesses.push(render_guess(g, optimistic));
        }
    }
    Some(FirstDivergence {
        mismatch: m,
        opt_meta,
        pess_meta,
        guesses,
    })
}

fn render_guess(g: GuessId, run: &SimResult) -> String {
    for res in run.resolutions.values().flatten() {
        if res.guess == g {
            return format!(
                "{g}: {} ({:?})",
                if res.committed { "committed" } else { "aborted" },
                res.cause
            );
        }
    }
    if run.trace.committed_guesses().contains(&g) {
        format!("{g}: committed (learned via COMMIT)")
    } else if run.trace.aborted_guesses().contains(&g) {
        format!("{g}: aborted (learned via ABORT)")
    } else {
        format!("{g}: unresolved")
    }
}

/// Reconstruct the minimal causal chain explaining the divergent event
/// from the optimistic run's trace: the lifecycle of the message involved
/// (send, deliveries, orphanings), the fork and resolution of every guess
/// guarding it, and the receiving process's rollbacks up to the event.
pub fn happens_before_chain(optimistic: &SimResult, fd: &FirstDivergence) -> Vec<HbStep> {
    let mut steps: Vec<HbStep> = Vec::new();
    let proc = fd.mismatch.process;
    let msg: Option<MsgId> = fd.opt_meta.as_ref().and_then(|m| m.msg);
    let horizon: VTime = fd.opt_meta.as_ref().map(|m| m.t).unwrap_or(VTime::MAX);

    // Guesses of interest: the event's guard plus the guard on the wire at
    // the message's send.
    let mut interest: BTreeSet<GuessId> = fd
        .opt_meta
        .iter()
        .flat_map(|m| m.guard.iter())
        .collect();

    for ev in optimistic.trace.iter() {
        match ev {
            TraceEvent::Send {
                t,
                msg: m,
                from,
                to,
                label,
                guard,
            } if Some(*m) == msg => {
                interest.extend(guard.iter());
                steps.push(HbStep {
                    t: *t,
                    process: from.process,
                    what: format!(
                        "thread #{} sent {label} (msg {}) → {to}, guard {guard}",
                        from.index, m.0
                    ),
                });
            }
            TraceEvent::Deliver {
                t,
                msg: m,
                to,
                from,
                label,
                ..
            } if Some(*m) == msg => {
                steps.push(HbStep {
                    t: *t,
                    process: to.process,
                    what: format!(
                        "delivered {label} (msg {}) ← {from} to thread #{}",
                        m.0, to.index
                    ),
                });
            }
            TraceEvent::Orphan {
                t,
                msg: m,
                at,
                label,
                guess,
            } if Some(*m) == msg => {
                steps.push(HbStep {
                    t: *t,
                    process: *at,
                    what: format!("dropped {label} (msg {}) as orphan of {guess}", m.0),
                });
            }
            TraceEvent::Rollback { t, thread, slot } if thread.process == proc && *t <= horizon => {
                steps.push(HbStep {
                    t: *t,
                    process: proc,
                    what: format!("thread #{} rolled back to slot {slot}", thread.index),
                });
            }
            _ => {}
        }
    }
    // Second pass: fork/resolution lifecycle of every interesting guess.
    for ev in optimistic.trace.iter() {
        match ev {
            TraceEvent::Fork {
                t, guess, right, ..
            } if interest.contains(guess) => {
                steps.push(HbStep {
                    t: *t,
                    process: guess.process,
                    what: format!("forked {guess} (right thread #{})", right.index),
                });
            }
            TraceEvent::JoinCommit { t, guess } if interest.contains(guess) => {
                steps.push(HbStep {
                    t: *t,
                    process: guess.process,
                    what: format!("join verified {guess}: commit"),
                });
            }
            TraceEvent::ValueFault { t, guess } if interest.contains(guess) => {
                steps.push(HbStep {
                    t: *t,
                    process: guess.process,
                    what: format!("value fault on {guess}"),
                });
            }
            TraceEvent::TimeFault { t, at, cycle }
                if cycle.iter().any(|g| interest.contains(g)) =>
            {
                let c: Vec<String> = cycle.iter().map(|g| g.to_string()).collect();
                steps.push(HbStep {
                    t: *t,
                    process: *at,
                    what: format!("time fault [{}]", c.join("→")),
                });
            }
            TraceEvent::Abort { t, at, guess } if interest.contains(guess) && *at == guess.process => {
                steps.push(HbStep {
                    t: *t,
                    process: *at,
                    what: format!("aborted {guess}"),
                });
            }
            TraceEvent::Commit { t, at, guess }
                if interest.contains(guess) && *at == guess.process =>
            {
                steps.push(HbStep {
                    t: *t,
                    process: *at,
                    what: format!("committed {guess}"),
                });
            }
            _ => {}
        }
    }
    steps.sort_by(|a, b| (a.t, &a.what).cmp(&(b.t, &b.what)));
    steps.dedup();
    steps
}

/// Delta-debug a reproducer's jitter draws to a 1-minimal perturbation
/// set (classic ddmin).
///
/// `draws` are the failing run's recorded draws ([`SimResult::latency_draws`]),
/// `base` the latency every non-kept draw is clamped to, and `reproduces`
/// must re-run the whole comparison under the given override table and
/// report whether the divergence still occurs. Returns `None` if the
/// unshrunk reproducer fails to reproduce (a flaky or mis-specified
/// reproducer — callers should treat that as an error).
///
/// Deterministic: candidate order, chunking, and the final `kept` set
/// depend only on the inputs, so the same reproducer always shrinks to
/// the same minimal schedule.
pub fn shrink_schedule(
    draws: &[(DrawKey, u64)],
    base: u64,
    mut reproduces: impl FnMut(&BTreeMap<DrawKey, u64>) -> bool,
) -> Option<ShrunkSchedule> {
    let all: BTreeMap<DrawKey, u64> = draws
        .iter()
        .filter(|(_, v)| *v != base)
        .copied()
        .collect();
    let total_perturbed = all.len();
    let overrides_for = |kept: &[DrawKey]| -> BTreeMap<DrawKey, u64> {
        let keep: BTreeSet<DrawKey> = kept.iter().copied().collect();
        all.keys()
            .filter(|k| !keep.contains(k))
            .map(|k| (*k, base))
            .collect()
    };
    let mut tests_run = 0usize;

    let mut kept: Vec<DrawKey> = all.keys().copied().collect();
    tests_run += 1;
    if !reproduces(&overrides_for(&kept)) {
        return None;
    }

    let mut n = 2usize.min(kept.len().max(1));
    while kept.len() >= 2 {
        let chunk = kept.len().div_ceil(n);
        let mut reduced = false;
        let mut i = 0;
        while i < kept.len() {
            // Complement: remove kept[i..i+chunk].
            let mut trial: Vec<DrawKey> = kept[..i].to_vec();
            trial.extend_from_slice(&kept[(i + chunk).min(kept.len())..]);
            tests_run += 1;
            if reproduces(&overrides_for(&trial)) {
                kept = trial;
                n = 2.max(n.saturating_sub(1));
                reduced = true;
                break;
            }
            i += chunk;
        }
        if !reduced {
            if n >= kept.len() {
                break;
            }
            n = (n * 2).min(kept.len());
        }
    }
    if kept.len() == 1 {
        tests_run += 1;
        if reproduces(&overrides_for(&[])) {
            kept.clear();
        }
    }

    let overrides = overrides_for(&kept);
    let kept_with_values: Vec<(DrawKey, u64)> =
        kept.iter().map(|k| (*k, all[k])).collect();
    Some(ShrunkSchedule {
        kept: kept_with_values,
        overrides,
        total_perturbed,
        tests_run,
    })
}

/// Render a full forensics report, substituting process names where known.
pub fn render_report(report: &DivergenceReport, names: &BTreeMap<ProcessId, String>) -> String {
    let name = |p: ProcessId| names.get(&p).cloned().unwrap_or_else(|| p.to_string());
    let mut out = String::new();
    let fd = &report.first;
    out.push_str("=== divergence forensics ===\n");
    let _ = writeln!(out, "first divergence: {}", fd.mismatch.render(names));
    if let Some(m) = &fd.opt_meta {
        let _ = writeln!(
            out,
            "  optimistic event: t={} thread #{}{} guard {} incarnation {}",
            m.t,
            m.thread,
            match (m.msg, m.link_seq) {
                (Some(id), Some(k)) => format!(" msg {} (link seq {k})", id.0),
                (Some(id), None) => format!(" msg {}", id.0),
                _ => String::new(),
            },
            m.guard,
            m.incarnation.0,
        );
    }
    if let Some(m) = &fd.pess_meta {
        let _ = writeln!(
            out,
            "  pessimistic event: t={} thread #{}{}",
            m.t,
            m.thread,
            match m.msg {
                Some(id) => format!(" msg {}", id.0),
                None => String::new(),
            },
        );
    }
    if !fd.guesses.is_empty() {
        out.push_str("guess resolutions:\n");
        for g in &fd.guesses {
            let _ = writeln!(out, "  {g}");
        }
    }
    if !report.chain.is_empty() {
        out.push_str("happens-before chain (optimistic run):\n");
        for s in &report.chain {
            let _ = writeln!(out, "  t={:<6} {}: {}", s.t, name(s.process), s.what);
        }
    }
    if let Some(sh) = &report.shrunk {
        let _ = writeln!(
            out,
            "minimal perturbation schedule ({} of {} jitter draws kept, {} replays):",
            sh.kept.len(),
            sh.total_perturbed,
            sh.tests_run,
        );
        if sh.kept.is_empty() {
            out.push_str("  (divergence reproduces with every draw clamped to base)\n");
        }
        for ((from, to, k), v) in &sh.kept {
            let _ = writeln!(
                out,
                "  {}→{} transmission #{k}: latency {v}",
                name(*from),
                name(*to),
            );
        }
    }
    if !report.unused_overrides.is_empty() {
        let _ = writeln!(
            out,
            "WARNING: {} scripted latency override(s) were never drawn \
             (the script drifted from the workload and tested nothing):",
            report.unused_overrides.len()
        );
        for (from, to, k) in &report.unused_overrides {
            let _ = writeln!(out, "  {}→{} transmission #{k}", name(*from), name(*to));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(from: u32, to: u32, n: u32) -> DrawKey {
        (ProcessId(from), ProcessId(to), n)
    }

    #[test]
    fn shrinker_finds_single_culprit() {
        let draws = vec![(k(0, 1, 0), 90), (k(0, 1, 1), 55), (k(1, 2, 0), 70)];
        // Divergence triggers iff draw (0,1,1) keeps its jittered value,
        // i.e. is NOT overridden to base.
        let sh = shrink_schedule(&draws, 50, |ov| !ov.contains_key(&k(0, 1, 1))).unwrap();
        assert_eq!(sh.kept, vec![(k(0, 1, 1), 55)]);
        assert_eq!(sh.total_perturbed, 3);
        assert!(sh.overrides.contains_key(&k(0, 1, 0)));
        assert!(sh.overrides.contains_key(&k(1, 2, 0)));
        assert_eq!(sh.overrides.len(), 2);
    }

    #[test]
    fn shrinker_is_deterministic() {
        let draws: Vec<(DrawKey, u64)> =
            (0..16).map(|i| (k(i % 3, 3, i / 3), 60 + i as u64)).collect();
        let trigger = |ov: &BTreeMap<DrawKey, u64>| {
            // Requires two specific draws to survive.
            !ov.contains_key(&k(1, 3, 2)) && !ov.contains_key(&k(2, 3, 4))
        };
        let a = shrink_schedule(&draws, 50, trigger).unwrap();
        let b = shrink_schedule(&draws, 50, trigger).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.kept.len(), 2);
    }

    #[test]
    fn shrinker_rejects_non_reproducing_input() {
        let draws = vec![(k(0, 1, 0), 90)];
        assert!(shrink_schedule(&draws, 50, |_| false).is_none());
    }

    #[test]
    fn shrinker_handles_latency_independent_divergence() {
        let draws = vec![(k(0, 1, 0), 90), (k(0, 1, 1), 55)];
        let sh = shrink_schedule(&draws, 50, |_| true).unwrap();
        assert!(sh.kept.is_empty());
        assert_eq!(sh.overrides.len(), 2);
    }

    #[test]
    fn draws_equal_to_base_are_not_candidates() {
        let draws = vec![(k(0, 1, 0), 50), (k(0, 1, 1), 80)];
        let sh = shrink_schedule(&draws, 50, |ov| !ov.contains_key(&k(0, 1, 1))).unwrap();
        assert_eq!(sh.total_perturbed, 1);
        assert_eq!(sh.kept, vec![(k(0, 1, 1), 80)]);
    }
}
