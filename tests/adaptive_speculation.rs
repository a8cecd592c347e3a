//! The adaptive speculation controller changes *scheduling*, never
//! *semantics*: whatever limits the per-site controllers pick, the
//! committed behavior must equal the pessimistic execution on the
//! simulator, stay merge-equivalent between the simulator and the
//! real-thread runtime, and the rt run's committed schedule must replay
//! exactly on the pessimistic simulator (Theorem 1). The contention sweep (low → high → low conflict
//! rate) drives the controller through its whole repertoire — deepen,
//! back-off, cooloff, probe — in one run.

use opcsp_core::speculation::MAX_LIMIT;
use opcsp_core::{CoreConfig, ShiftReason, SpeculationPolicy, TelemetryEvent, Value};
use opcsp_rt::{RtResult, RtWorld};
use opcsp_sim::{check_equivalence, check_theorem1, SimBuilder, SimConfig};
use opcsp_workloads::catalog::{self, place};
use opcsp_workloads::contention_sweep::{run_contention_sweep, Phase, SweepOpts};
use opcsp_workloads::streaming::CLIENT;
use std::time::Duration;

/// A sweep small enough for a wall-clock rt run but still covering all
/// three contention regimes.
fn small_sweep(policy: SpeculationPolicy) -> SweepOpts {
    SweepOpts {
        phases: vec![
            Phase {
                calls: 12,
                fail: false,
            },
            Phase {
                calls: 6,
                fail: true,
            },
            Phase {
                calls: 18,
                fail: false,
            },
        ],
        latency: 10,
        server_compute: 5,
        core: CoreConfig::default().with_speculation(policy),
    }
}

/// Theorem 1 on an rt run of the sweep: its committed receive schedule,
/// forced through the pessimistic sweep on the simulator, reproduces its
/// logs exactly.
fn assert_rt_replays(opts: &SweepOpts, rt: &RtResult) {
    let pessimistic = SweepOpts {
        core: CoreConfig::pessimistic(),
        ..opts.clone()
    };
    let reference = run_contention_sweep(pessimistic.clone()).result;
    let verdict = check_theorem1(&reference, rt, |sched| {
        let cfg = SimConfig {
            forced_order: Some(sched),
            ..catalog::sim_config(&pessimistic.core, opts.latency, 0, 0, None)
        };
        place(&pessimistic.roster(), SimBuilder::new(cfg))
            .build()
            .run()
    });
    assert!(verdict.holds(), "{verdict:?}");
}

/// Sim-side safety: under the adaptive policy the committed logs equal
/// the pessimistic execution, and the controller demonstrably acted
/// (shifts in the telemetry stream).
#[test]
fn adaptive_sweep_commits_the_pessimistic_behavior() {
    let adaptive = run_contention_sweep(small_sweep(SpeculationPolicy::Adaptive));
    let pess = run_contention_sweep(small_sweep(SpeculationPolicy::Pessimistic));
    assert!(adaptive.result.unresolved.is_empty());
    let rep = check_equivalence(&pess.result, &adaptive.result);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
    let shifts: u64 = adaptive
        .result
        .telemetry
        .lifecycle()
        .policy_shifts
        .values()
        .sum();
    assert!(
        shifts >= 2,
        "the failure burst must trigger back-off and the recovery a probe: {shifts}"
    );
}

/// The sim-vs-rt differential under `Adaptive`: each engine's controller
/// sees different latencies and makes its own limit decisions, yet the
/// committed per-process logs must stay merge-equivalent and the released
/// external outputs (the phase markers) identical in order.
#[test]
fn sim_and_rt_agree_on_committed_behavior_under_adaptive() {
    let opts = small_sweep(SpeculationPolicy::Adaptive);
    let sim = run_contention_sweep(opts.clone());
    assert!(sim.result.unresolved.is_empty());

    let cfg = opcsp_rt::RtConfig {
        core: opts.core.clone(),
        latency: Duration::from_millis(1),
        telemetry: true,
        ..opcsp_rt::RtConfig::default()
    };
    let rt = place(&opts.roster(), RtWorld::new(cfg)).run();
    assert!(!rt.timed_out, "rt sweep timed out");
    assert!(rt.panicked.is_empty(), "rt panics: {:?}", rt.panics);

    for (pid, sim_log) in &sim.result.logs {
        let rt_log = rt
            .logs
            .get(pid)
            .unwrap_or_else(|| panic!("rt has no log for {pid}"));
        assert!(
            opcsp_rt::merge_equiv(sim_log, rt_log),
            "{pid}: committed logs diverge\nsim: {sim_log:?}\nrt:  {rt_log:?}"
        );
    }

    let sim_ext: Vec<&Value> = sim
        .result
        .external
        .iter()
        .filter(|(_, p, _)| *p == CLIENT)
        .map(|(_, _, v)| v)
        .collect();
    let rt_ext: Vec<&Value> = rt
        .external
        .iter()
        .filter(|(p, _)| *p == CLIENT)
        .map(|(_, v)| v)
        .collect();
    assert_eq!(
        sim_ext, rt_ext,
        "released phase markers must match across engines"
    );
    assert_rt_replays(&opts, &rt);
}

/// Same differential under a static policy — the redesign must not have
/// disturbed the classic path.
#[test]
fn sim_and_rt_agree_under_static_policy() {
    let opts = small_sweep(SpeculationPolicy::Static { limit: 2 });
    let sim = run_contention_sweep(opts.clone());
    let cfg = opcsp_rt::RtConfig {
        core: opts.core.clone(),
        latency: Duration::from_millis(1),
        ..opcsp_rt::RtConfig::default()
    };
    let rt = place(&opts.roster(), RtWorld::new(cfg)).run();
    assert!(!rt.timed_out && rt.panicked.is_empty());
    for (pid, sim_log) in &sim.result.logs {
        assert!(
            opcsp_rt::merge_equiv(sim_log, &rt.logs[pid]),
            "{pid}: committed logs diverge under static policy"
        );
    }
    assert_rt_replays(&opts, &rt);
}

/// Adaptive never exceeds its ceiling, visible end to end: over the
/// whole sweep, every `PolicyShift` the run's telemetry records leaves the
/// site's limit at or below [`MAX_LIMIT`], and the clean phases do deepen.
#[test]
fn adaptive_max_limit_bounds_inflight_speculation_end_to_end() {
    let mut opts = small_sweep(SpeculationPolicy::Adaptive);
    opts.server_compute = 0;
    let out = run_contention_sweep(opts);
    assert!(out.result.unresolved.is_empty());
    let shifts: Vec<_> = out
        .result
        .telemetry
        .events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::PolicyShift { shift, .. } => Some(*shift),
            _ => None,
        })
        .collect();
    assert!(
        shifts.iter().any(|s| s.reason == ShiftReason::Deepen),
        "the clean phases must deepen some site: {shifts:?}"
    );
    for s in &shifts {
        assert!(
            s.to_limit <= MAX_LIMIT,
            "limit raised above {MAX_LIMIT}: {s:?}"
        );
    }
}
