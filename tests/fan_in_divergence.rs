//! Regression suite for the fan_in Theorem-1 divergence.
//!
//! History: `opcsp-run examples/csp/fan_in.csp --compare --jitter 80`
//! failed for most seeds (1 and 42 among them) with a wall of positional
//! mismatches at the Board process. Forensics showed the committed
//! optimistic behavior was a *legal* sequential behavior — the harness
//! was wrong on two counts, and the engine on one:
//!
//! 1. The legacy jitter sampler drew from one global RNG stream consumed
//!    in event order, so the pessimistic and optimistic runs sampled
//!    *different* latencies for the same logical message — the two runs
//!    executed on incomparable networks. Fixed: stateless per-link draws
//!    (`jitter_draw`) keyed by (seed, from, to, link_seq).
//! 2. Links were not FIFO, so optimistic streaming could invert same-link
//!    message order, causing rollback churn (the protocol absorbs it, at
//!    a price). Fixed: per-link arrival clamp for data messages.
//! 3. Strict positional comparison misread legal cross-sender merge order
//!    at the fan-in as a violation. Fixed: the `check_theorem1` replay
//!    oracle — extract the committed delivery schedule and replay it
//!    through the sequential engine; only a replay mismatch is a bug.
//!
//! The suite pins the fixed behavior, proves the oracle still has teeth
//! against a genuinely broken engine (`FaultInjection::PhantomLog`), and
//! pins the forensics report and shrinker determinism.

use opcsp_core::{CoreConfig, SpeculationPolicy};
use opcsp_lang::{parse_program, System};
use opcsp_sim::{
    check_theorem1, first_divergence, happens_before_chain, render_report, shrink_schedule,
    DivergenceReport, FaultInjection, LatencyModel, SimConfig, SimResult, Theorem1Verdict,
};
use std::collections::BTreeMap;
use std::sync::Arc;

const BASE: u64 = 50;
const SPREAD: u64 = 80;

fn compile_fan_in() -> System {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/csp/fan_in.csp"
    ))
    .unwrap();
    System::compile(&parse_program(&src).unwrap()).unwrap()
}

fn cfg(model: &LatencyModel, optimism: bool, fault: FaultInjection) -> SimConfig {
    SimConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency: model.clone(),
        fork_timeout: 10_000,
        fault,
        // The forensics reports read the runs' trace and provenance.
        record: true,
        ..SimConfig::default()
    }
}

/// Run the compare pipeline: pessimistic reference, optimistic run (with
/// the given fault), and the Theorem-1 verdict via the replay oracle.
fn verdict(
    sys: &System,
    model: &LatencyModel,
    fault: FaultInjection,
) -> (Theorem1Verdict, SimResult) {
    let pess = sys.run(cfg(model, false, FaultInjection::None));
    let opt = sys.run(cfg(model, true, fault));
    let v = check_theorem1(&pess, &opt, |sched| {
        let mut c = cfg(model, false, FaultInjection::None);
        c.forced_order = Some(sched);
        sys.run(c)
    });
    (v, opt)
}

#[test]
fn fan_in_jitter80_seed_1_and_42_regression() {
    // The two seeds from the original bug report. Pre-fix, both failed
    // the strict comparison AND would have failed any sound oracle run
    // on the incomparable-network sampler.
    let sys = compile_fan_in();
    for seed in [1, 42] {
        let model = LatencyModel::jitter(BASE, SPREAD, seed);
        let (v, opt) = verdict(&sys, &model, FaultInjection::None);
        assert!(v.holds(), "seed {seed}: Theorem 1 violated: {v:?}");
        assert!(opt.unresolved.is_empty(), "seed {seed}: unresolved guesses");
        assert!(!opt.truncated, "seed {seed}: truncated run");
    }
}

#[test]
fn fan_in_jitter80_sweep_holds() {
    // Pre-fix, 22 of 34 swept seeds failed. All must hold now; cross-
    // sender merge order may legally differ (EquivalentModuloMergeOrder).
    let sys = compile_fan_in();
    let mut merge_reordered = 0;
    for seed in 0..33 {
        let model = LatencyModel::jitter(BASE, SPREAD, seed);
        let (v, _) = verdict(&sys, &model, FaultInjection::None);
        match v {
            Theorem1Verdict::Identical => {}
            Theorem1Verdict::EquivalentModuloMergeOrder { .. } => merge_reordered += 1,
            Theorem1Verdict::Violation { ref replay, .. } => {
                panic!("seed {seed}: genuine divergence: {:#?}", replay.mismatches)
            }
        }
    }
    // The sweep must actually exercise the oracle: at jitter 80 some
    // seeds merge in a different legal order. A sweep where every seed
    // is strictly identical would pass vacuously.
    assert!(
        merge_reordered > 0,
        "no seed exercised the replay oracle — sweep is vacuous"
    );
}

#[test]
fn lifo_scramble_is_absorbed_by_the_protocol() {
    // Non-FIFO links + LIFO pooled picks commit receive orders only via
    // speculation the precedence machinery must serialize (§4: replies
    // carry the receiver's guard back to the sender; a join that finds
    // its own guess in the reply's guard time-faults and retries). The
    // committed behavior stays legal — the fault costs rollbacks, not
    // correctness.
    let sys = compile_fan_in();
    for seed in [1, 3, 7, 42] {
        let model = LatencyModel::jitter(BASE, SPREAD, seed);
        let (v, _) = verdict(&sys, &model, FaultInjection::LifoDelivery);
        assert!(v.holds(), "seed {seed}: LIFO scramble broke Theorem 1: {v:?}");
    }
}

#[test]
fn phantom_log_fault_fails_oracle_and_forensics_names_the_culprit() {
    // A genuinely broken engine — rollback leaks speculative observables
    // into the committed log — must be caught by the replay oracle, and
    // the forensics report must name the event, the process, and the
    // guess whose abort orphaned the leaked observable.
    let sys = compile_fan_in();
    let model = LatencyModel::jitter(BASE, SPREAD, 1);
    let (v, opt) = verdict(&sys, &model, FaultInjection::PhantomLog);
    let Theorem1Verdict::Violation {
        replay,
        replay_result,
        ..
    } = v
    else {
        panic!("phantom-log fault was not detected: {v:?}");
    };

    let first = first_divergence(&replay, &replay_result, &opt).expect("a first mismatch");
    let chain = happens_before_chain(&opt, &first);
    let names: BTreeMap<_, _> = sys.bindings.iter().map(|(n, p)| (*p, n.clone())).collect();
    let report = render_report(
        &DivergenceReport {
            first,
            chain,
            shrunk: None,
            unused_overrides: opt.unused_overrides.clone(),
        },
        &names,
    );
    // Names the process and the event index...
    assert!(report.contains("Board event #"), "no event/process: {report}");
    // ...carries commit provenance (guard set, incarnation)...
    assert!(report.contains("guard {"), "no guard provenance: {report}");
    assert!(report.contains("incarnation"), "no incarnation: {report}");
    // ...and names at least one guess with its resolution.
    assert!(
        report.contains("aborted") || report.contains("committed ("),
        "no guess resolution: {report}"
    );
    assert!(
        !report.contains("happens-before chain (optimistic run):\n\n"),
        "empty happens-before chain: {report}"
    );
}

#[test]
fn shrinker_is_deterministic_and_replay_reproduces_verdict() {
    // Same reproducer → identical minimal schedule, and replaying the
    // shrunk schedule through the full pipeline reproduces the verdict
    // (rendered byte-for-byte identically across repetitions).
    let sys = compile_fan_in();
    let seed = 1;
    let names: BTreeMap<_, _> = sys.bindings.iter().map(|(n, p)| (*p, n.clone())).collect();

    let run_pipeline = || {
        let model = LatencyModel::jitter(BASE, SPREAD, seed);
        let (v, opt) = verdict(&sys, &model, FaultInjection::PhantomLog);
        let Theorem1Verdict::Violation {
            replay,
            replay_result,
            ..
        } = v
        else {
            panic!("reproducer did not reproduce");
        };
        let diverges = |ov: &BTreeMap<_, _>| {
            let scripted = LatencyModel::scripted(BASE, SPREAD, seed, Arc::new(ov.clone()));
            let (v2, _) = verdict(&sys, &scripted, FaultInjection::PhantomLog);
            !v2.holds()
        };
        let shrunk = shrink_schedule(&opt.latency_draws, BASE, diverges)
            .expect("unshrunk reproducer reproduces");
        // Replay the minimal schedule: the verdict must still be a
        // violation.
        let scripted =
            LatencyModel::scripted(BASE, SPREAD, seed, Arc::new(shrunk.overrides.clone()));
        let (v3, opt3) = verdict(&sys, &scripted, FaultInjection::PhantomLog);
        let Theorem1Verdict::Violation {
            replay: replay3,
            replay_result: rr3,
            ..
        } = v3
        else {
            panic!("minimal schedule no longer reproduces");
        };
        let first = first_divergence(&replay3, &rr3, &opt3).expect("a first mismatch");
        let chain = happens_before_chain(&opt3, &first);
        let rendered = render_report(
            &DivergenceReport {
                first,
                chain,
                shrunk: Some(shrunk.clone()),
                unused_overrides: opt3.unused_overrides.clone(),
            },
            &names,
        );
        let _ = (replay, replay_result);
        (shrunk, rendered)
    };

    let (s1, r1) = run_pipeline();
    let (s2, r2) = run_pipeline();
    assert_eq!(s1, s2, "shrinker is not deterministic");
    assert_eq!(r1, r2, "replayed verdict is not byte-for-byte stable");
}

#[test]
fn shrinker_determinism_is_invariant_across_speculation() {
    // The ddmin shrinker must be a pure function of the world and seed —
    // the speculation policy (static limit vs the adaptive per-site
    // controller) changes *how* the protocol runs, so each configuration
    // may shrink to a different minimal schedule, but re-running the same
    // configuration must reproduce its schedule byte for byte. A
    // policy-dependent source of nondeterminism (iteration order, adaptive
    // controller history) would show up here as a flapping report.
    let sys = compile_fan_in();
    let seed = 1;

    let adaptive = || SpeculationPolicy::parse("adaptive").expect("adaptive parses");
    let cores = [
        ("static", CoreConfig::default()),
        (
            "adaptive",
            CoreConfig::default().with_speculation(adaptive()),
        ),
    ];

    for (label, core) in cores {
        let mk = |model: &LatencyModel, optimism: bool, fault: FaultInjection| SimConfig {
            core: if optimism {
                core.clone()
            } else {
                core.clone().with_speculation(SpeculationPolicy::Pessimistic)
            },
            latency: model.clone(),
            fork_timeout: 10_000,
            fault,
            ..SimConfig::default()
        };
        let verdict_of = |model: &LatencyModel| {
            let pess = sys.run(mk(model, false, FaultInjection::None));
            let opt = sys.run(mk(model, true, FaultInjection::PhantomLog));
            let v = check_theorem1(&pess, &opt, |sched| {
                let mut c = mk(model, false, FaultInjection::None);
                c.forced_order = Some(sched);
                sys.run(c)
            });
            (v, opt)
        };
        let shrink_once = || {
            let model = LatencyModel::jitter(BASE, SPREAD, seed);
            let (v, opt) = verdict_of(&model);
            let Theorem1Verdict::Violation { .. } = v else {
                panic!("{label}: phantom fault not detected");
            };
            let diverges = |ov: &BTreeMap<_, _>| {
                let scripted = LatencyModel::scripted(BASE, SPREAD, seed, Arc::new(ov.clone()));
                !verdict_of(&scripted).0.holds()
            };
            shrink_schedule(&opt.latency_draws, BASE, diverges)
                .unwrap_or_else(|| panic!("{label}: unshrunk reproducer reproduces"))
        };
        let a = shrink_once();
        let b = shrink_once();
        assert_eq!(a, b, "{label}: shrinker is not deterministic");
    }
}
