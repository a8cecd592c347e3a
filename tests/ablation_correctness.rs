//! The §4.2.3 min-new-deps delivery choice and §4.2.5's targeted control
//! are *performance* choices: turning them off must never break
//! correctness, only cost more aborts/time — in every combination.

use opcsp_core::{CoreConfig, SpeculationPolicy};
use opcsp_sim::{check_conservation, check_equivalence};
use opcsp_workloads::streaming::{run_streaming, run_tally, StreamingOpts, TallyOpts};
use opcsp_workloads::update_write::{fig4_latency, run_update_write, UpdateWriteOpts};
use std::collections::BTreeSet;

fn all_core_configs() -> Vec<CoreConfig> {
    let mut out = Vec::new();
    for deliver in [true, false] {
        for targeted in [true, false] {
            out.push(CoreConfig {
                deliver_min_deps: deliver,
                targeted_control: targeted,
                speculation: SpeculationPolicy::default(),
            });
        }
    }
    out
}

#[test]
fn streaming_with_faults_correct_under_every_ablation_combo() {
    for (i, core) in all_core_configs().into_iter().enumerate() {
        let o = StreamingOpts {
            n: 10,
            latency: 40,
            fail_lines: BTreeSet::from([4]),
            core: core.clone(),
            ..Default::default()
        };
        let opt = run_streaming(o.clone());
        let pess = run_streaming(StreamingOpts {
            core: core.clone().with_speculation(SpeculationPolicy::Pessimistic),
            ..o
        });
        assert!(
            opt.unresolved.is_empty(),
            "combo {i} ({core:?}): unresolved {:?}",
            opt.unresolved
        );
        let rep = check_equivalence(&pess, &opt);
        assert!(
            rep.equivalent,
            "combo {i} ({core:?}): {:#?}",
            rep.mismatches
        );
        check_conservation(&opt).unwrap_or_else(|e| panic!("combo {i}: {e}"));
    }
}

#[test]
fn time_fault_scenario_correct_under_every_ablation_combo() {
    for (i, core) in all_core_configs().into_iter().enumerate() {
        let o = UpdateWriteOpts {
            latency: fig4_latency(50),
            core: core.clone(),
            ..UpdateWriteOpts::default()
        };
        let opt = run_update_write(o.clone());
        let pess = run_update_write(UpdateWriteOpts {
            core: core.clone().with_speculation(SpeculationPolicy::Pessimistic),
            ..o
        });
        assert!(
            opt.unresolved.is_empty(),
            "combo {i} ({core:?}): unresolved {:?}",
            opt.unresolved
        );
        let rep = check_equivalence(&pess, &opt);
        assert!(
            rep.equivalent,
            "combo {i} ({core:?}): {:#?}",
            rep.mismatches
        );
    }
}

#[test]
fn heavy_faults_with_all_optimizations_off() {
    let core = CoreConfig {
        deliver_min_deps: false,
        targeted_control: false,
        speculation: SpeculationPolicy::Static { limit: 2 },
    };
    for p in [300u32, 700] {
        let o = TallyOpts {
            n: 24,
            latency: 45,
            p_per_mille: p,
            core: core.clone(),
            ..TallyOpts::default()
        };
        let opt = run_tally(o.clone());
        let pess = run_tally(TallyOpts {
            core: core.clone().with_speculation(SpeculationPolicy::Pessimistic),
            ..o
        });
        assert!(opt.unresolved.is_empty(), "p={p}: {:?}", opt.unresolved);
        let rep = check_equivalence(&pess, &opt);
        assert!(rep.equivalent, "p={p}: {:#?}", rep.mismatches);
    }
}
