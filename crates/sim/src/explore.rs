//! Bounded systematic schedule exploration: prove Theorem 1 over *every*
//! partial-order-distinct delivery schedule of a small world, instead of
//! sampling random seeds.
//!
//! # The reduction
//!
//! The only scheduling freedom the engine has is which pooled data message
//! a receive-blocked process consumes next (returns match their call;
//! everything else is deterministic given the receive orders). Deliveries
//! at *different* receiver processes commute — neither can observe the
//! other's relative order, only its own consumption sequence — so the
//! naive space of global delivery interleavings (the multinomial
//! `(Σ n_l)! / Π n_l!` over per-link FIFO streams) collapses to the much
//! smaller product of *per-receiver sender orders*. This is the
//! persistent-set/DPOR argument specialised to CSP mailboxes: the
//! transitions enabled at distinct pids are independent, so only
//! same-receiver arrival orders are genuine choice points.
//!
//! # The search
//!
//! Stateless depth-first search over *forcing scripts*
//! ([`SimConfig::forced_order`]): a script pins, per receiver, a prefix
//! of the sender order; the engine holds other candidates until the wanted
//! sender's oldest message is available and falls back to the default
//! policy past the prefix. Each run realises a complete committed schedule
//! ([`committed_schedule`]); new choice points are the positions *after*
//! the pinned prefix, and a child script branches one of them to an
//! alternative sender seen later in the realised order, pinning every
//! lower-pid receiver to its realised order (the sleep-set-style
//! discipline that keeps subtrees disjoint: a receiver's already-explored
//! positions are frozen in every sibling subtree). Scripts that drift from
//! their forced prefix, starve the world (held candidates still pooled at
//! quiescence — [`SimResult::undelivered`]), or leave guesses unresolved
//! are infeasible branches, counted but not expanded.
//!
//! Every *distinct feasible* schedule is checked with the Theorem-1 replay
//! oracle ([`check_theorem1`]) against one shared pessimistic reference.
//! On a violation the explorer shrinks the forcing script to a minimal
//! prefix that still violates, then (under jitter) delta-debugs the
//! latency draws with [`shrink_schedule`], and packages the full
//! forensics report.
//!
//! Budgets: `depth` bounds the per-receiver positions eligible for
//! branching; `budget` bounds executed runs. `stats.complete` reports
//! whether the bounded space was exhausted.

use crate::driver::DeliverySchedule;
use crate::engine::{SimConfig, SimResult};
use crate::equiv::{check_theorem1, committed_schedule, EquivReport, Theorem1Verdict};
use crate::forensics::{first_divergence, happens_before_chain, shrink_schedule, DivergenceReport};
use crate::latency::{DrawKey, LatencyModel};
use opcsp_core::ProcessId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Search bounds.
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Per-receiver position bound for branch points: schedules may differ
    /// from one another only within the first `depth` deliveries at each
    /// receiver. Exhaustive when ≥ the longest committed receive sequence.
    pub depth: usize,
    /// Maximum optimistic runs the search may execute (oracle replays and
    /// shrinking excluded).
    pub budget: usize,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            depth: 8,
            budget: 4096,
        }
    }
}

/// Reduction and coverage statistics for one exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Forced optimistic runs executed by the DFS.
    pub runs_executed: usize,
    /// Distinct feasible committed schedules found (each oracle-checked).
    pub distinct_schedules: usize,
    /// Feasible runs whose schedule was already known (different scripts
    /// can converge on one realised order).
    pub duplicate_schedules: usize,
    /// Scripts the world could not realise (drift, starvation, truncation
    /// or unresolved guesses).
    pub infeasible_scripts: usize,
    /// Oracle replays executed (≤ one per distinct schedule; strict log
    /// equality short-circuits without a replay).
    pub oracle_runs: usize,
    /// Global FIFO-respecting delivery interleavings of the baseline
    /// schedule — what a naive enumerator would walk. See
    /// [`naive_interleavings`].
    pub naive_interleavings: f64,
    /// True iff the bounded space was exhausted (no budget bail-out, no
    /// early stop on a violation).
    pub complete: bool,
    /// `LatencyModel::Scripted` overrides the baseline run never drew —
    /// a scripted schedule that drifted from the workload (surfaced
    /// instead of quietly testing nothing).
    pub unused_overrides: usize,
}

impl ExploreStats {
    /// Naive interleavings per schedule actually explored.
    pub fn reduction_factor(&self) -> f64 {
        if self.distinct_schedules == 0 {
            return 1.0;
        }
        self.naive_interleavings / self.distinct_schedules as f64
    }
}

/// A Theorem-1 violation found by the search, shrunk and explained.
#[derive(Debug)]
pub struct ExploreViolation {
    /// The forcing script whose run first violated.
    pub script: DeliverySchedule,
    /// Minimal forcing prefix that still violates (greedy tail trimming;
    /// deterministic).
    pub minimal_script: DeliverySchedule,
    /// Runs the script shrink needed.
    pub shrink_tests: usize,
    /// The violating run's realised committed schedule (under
    /// `minimal_script`).
    pub schedule: DeliverySchedule,
    /// Replay mismatches of the minimal violating run.
    pub replay: EquivReport,
    /// Full forensics: first divergence, happens-before chain, ddmin'd
    /// latency schedule (when jittered), unused script overrides.
    pub report: DivergenceReport,
}

/// Outcome of [`explore`].
#[derive(Debug)]
pub struct ExploreOutcome {
    pub stats: ExploreStats,
    /// Every distinct feasible schedule, in discovery order (deterministic
    /// for a given world and bounds).
    pub schedules: Vec<DeliverySchedule>,
    /// First violation found, if any (the search stops on it).
    pub violation: Option<ExploreViolation>,
}

/// Number of global delivery interleavings of a committed schedule that
/// respect per-link FIFO order: the multinomial `(Σ n_l)! / Π n_l!` over
/// directed links `l = (sender → receiver)` with `n_l` committed data
/// deliveries. This is the space a naive enumerator (no commutativity
/// argument) would have to walk; returned as `f64` because it overflows
/// `u64` already at moderate worlds.
pub fn naive_interleavings(schedule: &DeliverySchedule) -> f64 {
    let mut counts: BTreeMap<(ProcessId, ProcessId), usize> = BTreeMap::new();
    for (r, order) in schedule {
        for s in order {
            *counts.entry((*r, *s)).or_insert(0) += 1;
        }
    }
    multinomial(counts.values().copied())
}

/// Upper bound on the per-receiver factorised space: the product over
/// receivers of the multiset permutations of their sender orders. The
/// explorer visits at most this many schedules (feasibility prunes
/// further).
pub fn per_receiver_orders(schedule: &DeliverySchedule) -> f64 {
    let mut total = 1f64;
    for order in schedule.values() {
        let mut counts: BTreeMap<ProcessId, usize> = BTreeMap::new();
        for s in order {
            *counts.entry(*s).or_insert(0) += 1;
        }
        total *= multinomial(counts.values().copied());
    }
    total
}

/// `(Σ c)! / Π c!` computed as a stable product of ratios.
fn multinomial(counts: impl IntoIterator<Item = usize>) -> f64 {
    let mut total = 0usize;
    let mut result = 1f64;
    for c in counts {
        for i in 1..=c {
            total += 1;
            result *= total as f64 / i as f64;
        }
    }
    result
}

/// Did the run realise its forcing script? Feasible means: not truncated,
/// no unresolved guesses, the realised order extends (or is a clean prefix
/// of) every pinned prefix, and any receiver that consumed less than its
/// pin has nothing held back in its pool — a shorter-but-drained realised
/// order is a legitimate complete execution that simply took another
/// branch (e.g. an early reject stopped a producer), while held-back
/// candidates mean the forcing starved the world.
fn feasible(script: &DeliverySchedule, realized: &DeliverySchedule, r: &SimResult) -> bool {
    if r.truncated || !r.unresolved.is_empty() {
        return false;
    }
    let empty = Vec::new();
    for (p, want) in script {
        let got = realized.get(p).unwrap_or(&empty);
        let n = want.len().min(got.len());
        if got[..n] != want[..n] {
            return false;
        }
        if got.len() < want.len() && r.undelivered.contains_key(p) {
            return false;
        }
    }
    true
}

/// Child script for branching the realised schedule at `(at, j)` to the
/// alternative sender `alt`: receivers below `at` are pinned to their full
/// realised orders, `at` to `realized[at][..j] + [alt]`, receivers above
/// `at` are left free.
fn pin_script(
    realized: &DeliverySchedule,
    at: ProcessId,
    j: usize,
    alt: ProcessId,
) -> DeliverySchedule {
    let mut s = DeliverySchedule::new();
    for (q, order) in realized {
        if *q < at && !order.is_empty() {
            s.insert(*q, order.clone());
        }
    }
    let mut pre: Vec<ProcessId> = realized
        .get(&at)
        .map(|o| o[..j].to_vec())
        .unwrap_or_default();
    pre.push(alt);
    s.insert(at, pre);
    s
}

/// The violating artifacts of one script, or `None` when the script's run
/// is infeasible or passes the oracle.
struct ViolationRun {
    opt: SimResult,
    realized: DeliverySchedule,
    replay: EquivReport,
    replay_result: Box<SimResult>,
}

/// Explore every partial-order-distinct delivery schedule of the world
/// built by `runner`, up to the given bounds, checking Theorem 1 on each.
///
/// `runner` must build a fresh world from the given config and run it to
/// quiescence; `opt_cfg` is the optimistic configuration under test
/// (including any injected fault), `pess_cfg` its pessimistic reference
/// (same latency model and seed, `SpeculationPolicy::Pessimistic`). The
/// search stops at the first violation and returns it shrunk and explained.
pub fn explore(
    opt_cfg: &SimConfig,
    pess_cfg: &SimConfig,
    runner: &dyn Fn(&SimConfig) -> SimResult,
    opts: &ExploreOpts,
) -> ExploreOutcome {
    let mut stats = ExploreStats {
        complete: true,
        ..ExploreStats::default()
    };
    // One pessimistic reference shared by every schedule's oracle.
    let pess_ref = runner(pess_cfg);

    let run_forced = |script: &DeliverySchedule| -> SimResult {
        let mut cfg = opt_cfg.clone();
        cfg.forced_order = Some(Arc::new(script.clone()));
        runner(&cfg)
    };
    let oracle = |r: &SimResult, oracle_runs: &mut usize| -> Theorem1Verdict {
        check_theorem1(&pess_ref, r, |sched| {
            *oracle_runs += 1;
            let mut c = pess_cfg.clone();
            c.forced_order = Some(sched);
            runner(&c)
        })
    };

    let root = DeliverySchedule::new();
    let mut seen_scripts: BTreeSet<DeliverySchedule> = BTreeSet::from([root.clone()]);
    let mut seen_schedules: BTreeSet<DeliverySchedule> = BTreeSet::new();
    let mut schedules: Vec<DeliverySchedule> = Vec::new();
    let mut stack: Vec<DeliverySchedule> = vec![root];
    let mut violation: Option<ExploreViolation> = None;

    while let Some(script) = stack.pop() {
        if stats.runs_executed >= opts.budget {
            stats.complete = false;
            break;
        }
        stats.runs_executed += 1;
        let r = run_forced(&script);
        if stats.runs_executed == 1 {
            stats.unused_overrides = r.unused_overrides.len();
        }
        let realized = committed_schedule(&r);
        if !feasible(&script, &realized, &r) {
            stats.infeasible_scripts += 1;
            continue;
        }
        if stats.distinct_schedules == 0 && stats.duplicate_schedules == 0 {
            // Baseline (first feasible) run defines the naive space.
            stats.naive_interleavings = naive_interleavings(&realized);
        }
        if seen_schedules.insert(realized.clone()) {
            stats.distinct_schedules += 1;
            schedules.push(realized.clone());
            let verdict = oracle(&r, &mut stats.oracle_runs);
            if !verdict.holds() {
                stats.complete = false;
                violation = Some(shrink_violation(
                    opt_cfg, pess_cfg, runner, &pess_ref, &script,
                ));
                break;
            }
        } else {
            stats.duplicate_schedules += 1;
        }
        // Branch points: positions after the pinned prefix, below `depth`.
        // Children are pushed in reverse (receiver, position, sender)
        // order so the LIFO stack pops them ascending — a deterministic
        // discovery order.
        let mut children: Vec<DeliverySchedule> = Vec::new();
        for (q, order) in &realized {
            let pinned = script.get(q).map(Vec::len).unwrap_or(0);
            let hi = order.len().min(opts.depth);
            for j in pinned..hi {
                let alts: BTreeSet<ProcessId> = order[j + 1..]
                    .iter()
                    .copied()
                    .filter(|s| *s != order[j])
                    .collect();
                for alt in alts {
                    let child = pin_script(&realized, *q, j, alt);
                    if seen_scripts.insert(child.clone()) {
                        children.push(child);
                    }
                }
            }
        }
        while let Some(child) = children.pop() {
            stack.push(child);
        }
    }

    ExploreOutcome {
        stats,
        schedules,
        violation,
    }
}

/// Run a script end-to-end through the feasibility check and the oracle;
/// `Some` iff it produces a genuine violation.
fn try_violation(
    opt_cfg: &SimConfig,
    pess_cfg: &SimConfig,
    runner: &dyn Fn(&SimConfig) -> SimResult,
    pess_ref: &SimResult,
    script: &DeliverySchedule,
) -> Option<ViolationRun> {
    let mut cfg = opt_cfg.clone();
    cfg.forced_order = Some(Arc::new(script.clone()));
    let opt = runner(&cfg);
    let realized = committed_schedule(&opt);
    if !feasible(script, &realized, &opt) {
        return None;
    }
    let verdict = check_theorem1(pess_ref, &opt, |sched| {
        let mut c = pess_cfg.clone();
        c.forced_order = Some(sched);
        runner(&c)
    });
    match verdict {
        Theorem1Verdict::Violation {
            replay,
            replay_result,
            ..
        } => Some(ViolationRun {
            opt,
            realized,
            replay,
            replay_result,
        }),
        _ => None,
    }
}

/// Shrink a violating script to a minimal forcing prefix (greedy tail
/// trimming per receiver, highest pid first, to a fixpoint — deterministic)
/// and package the forensics of the minimal run.
fn shrink_violation(
    opt_cfg: &SimConfig,
    pess_cfg: &SimConfig,
    runner: &dyn Fn(&SimConfig) -> SimResult,
    pess_ref: &SimResult,
    script: &DeliverySchedule,
) -> ExploreViolation {
    let mut shrink_tests = 0usize;
    let mut minimal = script.clone();
    let mut best = try_violation(opt_cfg, pess_cfg, runner, pess_ref, &minimal)
        .expect("caller verified the script violates");
    loop {
        let mut improved = false;
        let pids: Vec<ProcessId> = minimal.keys().rev().copied().collect();
        for p in pids {
            while minimal.get(&p).is_some_and(|v| !v.is_empty()) {
                let mut trial = minimal.clone();
                let v = trial.get_mut(&p).unwrap();
                v.pop();
                if v.is_empty() {
                    trial.remove(&p);
                }
                shrink_tests += 1;
                match try_violation(opt_cfg, pess_cfg, runner, pess_ref, &trial) {
                    Some(vr) => {
                        minimal = trial;
                        best = vr;
                        improved = true;
                    }
                    None => break,
                }
            }
        }
        if !improved {
            break;
        }
    }

    // Forensics of the minimal violating run.
    let first = first_divergence(&best.replay, &best.replay_result, &best.opt)
        .expect("violating replay has a first mismatch");
    let chain = happens_before_chain(&best.opt, &first);
    let shrunk = match jitter_params(&opt_cfg.latency) {
        Some((base, _, _)) => shrink_schedule(&best.opt.latency_draws, base, |ov| {
            let (opt_s, pess_s) = match (
                scripted_with(&opt_cfg.latency, ov),
                scripted_with(&pess_cfg.latency, ov),
            ) {
                (Some(a), Some(b)) => (a, b),
                _ => return false,
            };
            let mut o = opt_cfg.clone();
            o.latency = opt_s;
            let mut p = pess_cfg.clone();
            p.latency = pess_s;
            let p_ref = runner(&p);
            try_violation(&o, &p, runner, &p_ref, &minimal).is_some()
        }),
        None => None,
    };
    ExploreViolation {
        script: script.clone(),
        minimal_script: minimal,
        shrink_tests,
        schedule: best.realized,
        replay: best.replay,
        report: DivergenceReport {
            first,
            chain,
            shrunk,
            unused_overrides: best.opt.unused_overrides.clone(),
        },
    }
}

/// `(base, spread, seed)` of a jittered model; `None` for deterministic
/// models (nothing to delta-debug).
fn jitter_params(model: &LatencyModel) -> Option<(u64, u64, u64)> {
    match model {
        LatencyModel::Jitter { base, spread, seed }
        | LatencyModel::Scripted {
            base, spread, seed, ..
        } if *spread > 0 => Some((*base, *spread, *seed)),
        _ => None,
    }
}

/// Overlay ddmin overrides on a jittered model (existing script entries
/// lose to the ddmin clamp).
fn scripted_with(model: &LatencyModel, ov: &BTreeMap<DrawKey, u64>) -> Option<LatencyModel> {
    let (base, spread, seed) = jitter_params(model)?;
    let mut merged: BTreeMap<DrawKey, u64> = match model {
        LatencyModel::Scripted { overrides, .. } => (**overrides).clone(),
        _ => BTreeMap::new(),
    };
    merged.extend(ov.iter().map(|(k, v)| (*k, *v)));
    Some(LatencyModel::scripted(base, spread, seed, Arc::new(merged)))
}

/// Render a forcing script / schedule with process names.
pub fn render_schedule(sched: &DeliverySchedule, names: &BTreeMap<ProcessId, String>) -> String {
    let name = |p: ProcessId| names.get(&p).cloned().unwrap_or_else(|| p.to_string());
    if sched.is_empty() {
        return "(empty)".to_string();
    }
    sched
        .iter()
        .map(|(r, order)| {
            let senders: Vec<String> = order.iter().map(|s| name(*s)).collect();
            format!("{} ← [{}]", name(*r), senders.join(", "))
        })
        .collect::<Vec<_>>()
        .join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> ProcessId {
        ProcessId(n)
    }

    #[test]
    fn multinomial_counts_interleavings() {
        assert_eq!(multinomial([4usize, 4]) as u64, 70);
        assert_eq!(multinomial([2usize, 2]) as u64, 6);
        assert_eq!(multinomial([1usize]) as u64, 1);
        assert_eq!(multinomial(std::iter::empty::<usize>()) as u64, 1);
        // chain 4 links × 4 messages: 16!/(4!)^4
        assert_eq!(multinomial([4usize, 4, 4, 4]) as u64, 63_063_000);
    }

    #[test]
    fn naive_vs_per_receiver_factorisation() {
        // Two receivers, each merging two 2-message streams: globally
        // 8!/(2!^4) = 2520 interleavings, but only 6×6 = 36 distinct
        // per-receiver orders.
        let sched = DeliverySchedule::from([
            (pid(0), vec![pid(2), pid(3), pid(2), pid(3)]),
            (pid(1), vec![pid(2), pid(3), pid(2), pid(3)]),
        ]);
        assert_eq!(naive_interleavings(&sched) as u64, 2520);
        assert_eq!(per_receiver_orders(&sched) as u64, 36);
    }

    #[test]
    fn pin_script_freezes_lower_receivers_and_branches_one_position() {
        let realized = DeliverySchedule::from([
            (pid(0), vec![pid(2), pid(3)]),
            (pid(1), vec![pid(2), pid(2), pid(3)]),
        ]);
        let child = pin_script(&realized, pid(1), 1, pid(3));
        assert_eq!(child[&pid(0)], vec![pid(2), pid(3)]);
        assert_eq!(child[&pid(1)], vec![pid(2), pid(3)]);
        assert!(!child.contains_key(&pid(2)));
    }

    #[test]
    fn feasibility_rules() {
        use crate::engine::SimConfig;
        use crate::SimBuilder;
        // A tiny real run to get a well-formed SimResult shell.
        let r = SimBuilder::new(SimConfig::default()).build().run();
        let script = DeliverySchedule::from([(pid(0), vec![pid(1), pid(2)])]);
        // Realised order extends the pin: feasible.
        let realized = DeliverySchedule::from([(pid(0), vec![pid(1), pid(2), pid(1)])]);
        assert!(feasible(&script, &realized, &r));
        // Drifted at a pinned position: infeasible.
        let drifted = DeliverySchedule::from([(pid(0), vec![pid(2), pid(1)])]);
        assert!(!feasible(&script, &drifted, &r));
        // Shorter than the pin with a drained pool: a legitimate early
        // stop, feasible.
        let short = DeliverySchedule::from([(pid(0), vec![pid(1)])]);
        assert!(feasible(&script, &short, &r));
    }
}
