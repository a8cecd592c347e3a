//! Teeth, exhaustiveness and determinism for `sim::explore` — the bounded
//! systematic schedule explorer.
//!
//! The teeth fixture (`tests/fixtures/ordered_board.csp`) is a consumer
//! whose accept/reject decision is order-dependent: the default schedule
//! is clean, so random-seed sweeps can pass forever, and only exhausting
//! the partial-order-distinct delivery schedules reaches the order whose
//! rollback lets a phantom-log engine fault leak into the committed log.

use opcsp_core::{CoreConfig, ProcessId, SpeculationPolicy};
use opcsp_lang::{parse_program, System};
use opcsp_sim::{
    check_theorem1, explore, render_report, render_schedule, ExploreOpts, FaultInjection,
    LatencyModel, SimConfig,
};
use opcsp_workloads::catalog::{self, Spec};
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::fan_in::{consumer, FanInOpts};
use std::collections::{BTreeMap, BTreeSet};

fn compile_fixture(name: &str) -> System {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap();
    System::compile(&parse_program(&src).unwrap()).unwrap()
}

fn cfg(optimism: bool, fault: FaultInjection) -> SimConfig {
    SimConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency: LatencyModel::fixed(50),
        fork_timeout: 10_000,
        fault,
        ..SimConfig::default()
    }
}

#[test]
fn explorer_finds_order_dependent_phantom_by_exhaustion() {
    let sys = compile_fixture("ordered_board.csp");
    let opt_cfg = cfg(true, FaultInjection::PhantomLog);
    let pess_cfg = cfg(false, FaultInjection::None);

    // The default schedule is clean: a single compare run sees nothing,
    // which is exactly why this bug class needs exhaustion, not luck.
    let pess = sys.run(pess_cfg.clone());
    let opt = sys.run(opt_cfg.clone());
    let default_verdict = check_theorem1(&pess, &opt, |sched| {
        let mut c = pess_cfg.clone();
        c.forced_order = Some(sched);
        sys.run(c)
    });
    assert!(
        default_verdict.holds(),
        "fixture must be clean under the default schedule: {default_verdict:?}"
    );

    let out = explore(
        &opt_cfg,
        &pess_cfg,
        &|c| sys.run(c.clone()),
        &ExploreOpts {
            depth: 6,
            budget: 512,
        },
    );
    let v = out
        .violation
        .expect("bounded exhaustion must reach the violating order");
    assert!(
        out.stats.runs_executed > 1,
        "violation must be found by search, not the default run"
    );
    assert!(
        !v.minimal_script.is_empty(),
        "shrunk forcing script must pin at least one delivery"
    );
    assert!(
        v.minimal_script.values().map(Vec::len).sum::<usize>()
            <= v.script.values().map(Vec::len).sum::<usize>(),
        "shrinking must not grow the script"
    );
    assert!(!v.replay.mismatches.is_empty(), "violation carries mismatches");

    // The forensics render names the culprit process.
    let names: BTreeMap<_, _> = sys.bindings.iter().map(|(n, p)| (*p, n.clone())).collect();
    let report = render_report(&v.report, &names);
    assert!(report.contains("Board"), "report names the process: {report}");
    let script = render_schedule(&v.minimal_script, &names);
    assert!(script.contains("Board ←"), "script renders with names: {script}");
}

/// All distinct orderings of the multiset `items`.
fn multiset_perms(items: &[ProcessId]) -> BTreeSet<Vec<ProcessId>> {
    fn rec(pool: &mut Vec<ProcessId>, acc: &mut Vec<ProcessId>, out: &mut BTreeSet<Vec<ProcessId>>) {
        if pool.is_empty() {
            out.insert(acc.clone());
            return;
        }
        let choices: BTreeSet<ProcessId> = pool.iter().copied().collect();
        for c in choices {
            let i = pool.iter().position(|x| *x == c).unwrap();
            pool.remove(i);
            acc.push(c);
            rec(pool, acc, out);
            acc.pop();
            pool.insert(i, c);
        }
    }
    let mut out = BTreeSet::new();
    rec(&mut items.to_vec(), &mut Vec::new(), &mut out);
    out
}

#[test]
fn exploration_matches_brute_force_on_2x2_fan_in() {
    // Two producers × two posts each: the consumer's sender order is a
    // multiset permutation of [A, A, B, B] — exactly 6. The explorer must
    // find all of them and nothing else, with the oracle green on each.
    let w = FanInOpts {
        producers: 2,
        n: 2,
        ..FanInOpts::default()
    };
    let world = Spec::FanIn(w.clone());
    let opt_cfg = world.sim_config();
    let mut pess_cfg = opt_cfg.clone();
    pess_cfg.core.speculation = SpeculationPolicy::Pessimistic;
    let out = explore(
        &opt_cfg,
        &pess_cfg,
        &|c| catalog::run(&world, c),
        &ExploreOpts {
            depth: 8,
            budget: 256,
        },
    );
    assert!(out.violation.is_none(), "clean world must stay green");
    assert!(out.stats.complete, "bounded space must be exhausted");
    assert_eq!(out.stats.distinct_schedules, 6);
    assert_eq!(out.stats.distinct_schedules, out.schedules.len());
    assert!(out.stats.oracle_runs <= out.stats.distinct_schedules);

    let board = consumer(&w);
    let expected = multiset_perms(&[ProcessId(0), ProcessId(0), ProcessId(1), ProcessId(1)]);
    let got: BTreeSet<Vec<ProcessId>> = out
        .schedules
        .iter()
        .map(|s| s[&board].clone())
        .collect();
    assert_eq!(got, expected, "explored set must equal brute force");
}

#[test]
fn exploration_is_deterministic() {
    let w = FanInOpts {
        producers: 2,
        n: 2,
        ..FanInOpts::default()
    };
    let world = Spec::FanIn(w);
    let opt_cfg = world.sim_config();
    let mut pess_cfg = opt_cfg.clone();
    pess_cfg.core.speculation = SpeculationPolicy::Pessimistic;
    let opts = ExploreOpts {
        depth: 8,
        budget: 256,
    };
    let a = explore(&opt_cfg, &pess_cfg, &|c| catalog::run(&world, c), &opts);
    let b = explore(&opt_cfg, &pess_cfg, &|c| catalog::run(&world, c), &opts);
    assert_eq!(
        a.schedules, b.schedules,
        "same world + bounds must discover the same schedules in the same order"
    );
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
}

#[test]
fn chain_collapses_to_one_schedule() {
    // Every receiver in the pipeline has a single upstream sender, so the
    // per-receiver factorisation collapses the naive link-interleaving
    // space (16!/(4!)^4 = 63,063,000 at depth 3 × 4 items) to exactly one
    // schedule — the reduction E13 reports.
    let world = Spec::Chain(ChainOpts::default());
    let opt_cfg = world.sim_config();
    let mut pess_cfg = opt_cfg.clone();
    pess_cfg.core.speculation = SpeculationPolicy::Pessimistic;
    let out = explore(
        &opt_cfg,
        &pess_cfg,
        &|c| catalog::run(&world, c),
        &ExploreOpts {
            depth: 8,
            budget: 64,
        },
    );
    assert!(out.violation.is_none());
    assert!(out.stats.complete);
    assert_eq!(out.stats.distinct_schedules, 1);
    assert_eq!(out.stats.naive_interleavings as u64, 63_063_000);
    assert!(out.stats.reduction_factor() >= 10.0);
}

#[test]
fn kv_is_clean_on_every_schedule_within_depth_4() {
    // The flagship at its smallest: two clients guessing their log
    // positions at the sequencer, two replicas applying what it orders.
    // Debug builds cross-check every abort, receive choice and retirement
    // of every schedule against its full-scan reference.
    let world = Spec::parse("kv:replicas=2,clients=2,ops=2").unwrap();
    let opt_cfg = world.sim_config();
    let mut pess_cfg = opt_cfg.clone();
    pess_cfg.core.speculation = SpeculationPolicy::Pessimistic;
    let out = explore(
        &opt_cfg,
        &pess_cfg,
        &|c| catalog::run(&world, c),
        &ExploreOpts {
            depth: 4,
            budget: 4096,
        },
    );
    assert!(out.violation.is_none(), "kv must stay green");
    assert!(out.stats.complete, "bounded space must be exhausted");
    assert!(out.stats.distinct_schedules > 1, "{:?}", out.stats);
}
