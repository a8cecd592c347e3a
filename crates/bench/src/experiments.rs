//! The experiment harness: one function per figure/experiment from
//! DESIGN.md's index. Each returns a [`Table`] (or rendered text for the
//! time-line figures) — the `figures` binary prints them; EXPERIMENTS.md
//! records them; tests assert on their shapes.

use crate::table::{ratio, Table};
use opcsp_core::{measure, CoreConfig, ProcessId, SpeculationPolicy};
use opcsp_lang::{parse_program, program_to_string, System};
use opcsp_sim::{check_equivalence, SimResult};
use opcsp_timewarp::{run_two_clients, Cancellation, TwoClientOpts};
use opcsp_workloads::catalog::{self, Spec};
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::contention::{run_contention, ContentionOpts};
use opcsp_workloads::fan_in::FanInOpts;
use opcsp_workloads::streaming::{PairsOpts, StreamingOpts, TallyOpts};
use opcsp_workloads::two_clients::{run_fig6, run_fig7};
use opcsp_workloads::update_write::{
    fig3_latency, fig4_latency, run_update_write, UpdateWriteOpts, X, Y, Z,
};
use std::collections::BTreeSet;

/// A world's optimistic run and its pessimistic twin's, on the simulator.
fn optimistic_and_twin(world: Spec) -> (SimResult, SimResult) {
    (world.simulate(), world.twin().simulate())
}

/// Figure 1: the source program and the transformation's output.
pub fn fig1() -> String {
    let src = r#"
        process X {
            parallelize guess ok = true {
                ok = call Y({item: 7, value: 42}) : "C1";   // S1: Update
            } then {
                if ok {
                    r = call Z("file-data") : "C3";          // S2: Write
                }
            }
        }
        process Y {
            while true { receive req; down = call Z(req) : "C2"; reply down; }
        }
        process Z {
            while true { receive req; compute 1; reply true; }
        }
    "#;
    let p = parse_program(src).expect("figure 1 parses");
    let sys = System::compile(&p).expect("figure 1 transforms");
    let mut out = String::new();
    out.push_str("## Figure 1 — the Update/Write program and its transformation\n\n");
    out.push_str("Transformed program (fork/join inserted by the compiler pass):\n\n```\n");
    out.push_str(&program_to_string(&sys.transformed.program));
    out.push_str("```\n\nFork sites:\n");
    for s in &sys.transformed.sites {
        out.push_str(&format!(
            "- {} fork@{}: passed variables {:?}, copy needed: {}\n",
            s.proc, s.site, s.passed, s.copy_needed
        ));
    }
    out
}

fn figure_run(title: &str, r: &SimResult, procs: &[ProcessId]) -> String {
    let mut out = format!("## {title}\n\n```\n");
    out.push_str(&r.trace.render_timeline(procs));
    out.push_str("```\n");
    out.push_str(&format!(
        "\ncompletion={}  forks={} commits={} aborts={} (value={}, time={}) rollbacks={} orphans={}\n",
        r.completion,
        r.stats().forks,
        r.stats().commits,
        r.stats().aborts,
        r.stats().value_faults,
        r.stats().time_faults,
        r.stats().rollbacks,
        r.stats().orphans,
    ));
    out
}

/// Figure 2: no call streaming (pessimistic).
pub fn fig2() -> String {
    let r = run_update_write(UpdateWriteOpts {
        core: CoreConfig::pessimistic(),
        latency: fig4_latency(50),
        ..UpdateWriteOpts::default()
    });
    figure_run("Figure 2 — no call streaming (sequential)", &r, &[X, Y, Z])
}

/// Figure 3: successful optimistic call streaming.
pub fn fig3() -> String {
    let r = run_update_write(UpdateWriteOpts {
        latency: fig3_latency(50),
        ..UpdateWriteOpts::default()
    });
    figure_run(
        "Figure 3 — successful optimistic call streaming",
        &r,
        &[X, Y, Z],
    )
}

/// Figure 4: time fault (C3 races C2 to Z) and recovery.
pub fn fig4() -> String {
    let r = run_update_write(UpdateWriteOpts {
        latency: fig4_latency(50),
        ..UpdateWriteOpts::default()
    });
    figure_run(
        "Figure 4 — aborted call streaming (time fault)",
        &r,
        &[X, Y, Z],
    )
}

/// Figure 5: value fault (Update fails), rollback and re-execution.
pub fn fig5() -> String {
    let r = run_update_write(UpdateWriteOpts {
        update_succeeds: false,
        latency: fig3_latency(50),
        ..UpdateWriteOpts::default()
    });
    figure_run(
        "Figure 5 — abort and sequential re-execution (value fault)",
        &r,
        &[X, Y, Z],
    )
}

/// Figure 6: two optimistic processes, PRECEDENCE chain commits.
pub fn fig6() -> String {
    use opcsp_workloads::two_clients::{W, X as FX, Y as FY, Z as FZ};
    let r = run_fig6(CoreConfig::default(), 40);
    figure_run(
        "Figure 6 — successful parallelization of two processes",
        &r,
        &[FX, FY, FZ, W],
    )
}

/// Figure 7: the cross-dependency cycle, mutual abort and recovery.
pub fn fig7() -> String {
    use opcsp_workloads::two_clients::{W, X as FX, Y as FY, Z as FZ};
    let r = run_fig7(CoreConfig::default(), 40);
    figure_run(
        "Figure 7 — aborted parallelization (cycle z1 → x1 → z1)",
        &r,
        &[FX, FY, FZ, W],
    )
}

/// E1: completion time vs one-way latency, streaming vs sequential.
pub fn e1_latency_sweep() -> Table {
    let mut t = Table::new(
        "E1 — call streaming vs RPC, one-way latency sweep (N=32 calls)",
        &[
            "latency d",
            "sequential",
            "streaming",
            "fork-after-send",
            "speedup",
        ],
    );
    for d in [1u64, 4, 16, 64, 256, 1024] {
        let s = StreamingOpts {
            n: 32,
            latency: d,
            ..Default::default()
        };
        let (o, p) = optimistic_and_twin(Spec::Stream(s.clone()));
        let fas = Spec::Stream(StreamingOpts {
            fork_after_send: true,
            ..s
        })
        .simulate();
        assert!(o.unresolved.is_empty() && fas.unresolved.is_empty());
        t.row(vec![
            d.to_string(),
            p.completion.to_string(),
            o.completion.to_string(),
            fas.completion.to_string(),
            ratio(p.completion, o.completion),
        ]);
    }
    t.note("Paper §1: streaming is 'extremely valuable when bandwidth is high but round-trip delays are long' — speedup grows with d toward N.");
    t
}

/// E2: completion time vs number of calls at fixed latency.
pub fn e2_n_sweep() -> Table {
    let mut t = Table::new(
        "E2 — pipelining N calls (d=100)",
        &[
            "N",
            "sequential",
            "streaming",
            "speedup",
            "seq/call",
            "stream/call",
        ],
    );
    for n in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
        let (o, p) = optimistic_and_twin(Spec::Stream(StreamingOpts {
            n,
            latency: 100,
            ..Default::default()
        }));
        assert!(o.unresolved.is_empty());
        t.row(vec![
            n.to_string(),
            p.completion.to_string(),
            o.completion.to_string(),
            ratio(p.completion, o.completion),
            (p.completion / n as u64).to_string(),
            (o.completion / n as u64).to_string(),
        ]);
    }
    t.note("Sequential ≈ 2·N·d; streaming ≈ 2d + N·ε — the per-call cost collapses. (Streaming completion includes the final COMMIT broadcast reaching the server, +d; at N=1 that overhead exceeds the saving, exactly the paper's 'performance gain provided the overhead is small relative to what is overlapped'.)");
    t
}

/// E3: the optimism trade-off — completion vs per-call failure rate.
pub fn e3_abort_sweep() -> Table {
    let mut t = Table::new(
        "E3 — abort-probability sweep (N=32, d=50): optimistic vs pessimistic",
        &[
            "p(fail)",
            "pessimistic",
            "optimistic",
            "speedup",
            "aborts",
            "rollbacks",
        ],
    );
    for p_mille in [0u32, 50, 100, 200, 400, 600, 800, 1000] {
        let (o, p) = optimistic_and_twin(Spec::Tally(TallyOpts {
            n: 32,
            latency: 50,
            p_per_mille: p_mille,
            ..Default::default()
        }));
        assert!(o.unresolved.is_empty(), "p={p_mille}: {:?}", o.unresolved);
        t.row(vec![
            format!("{:.2}", p_mille as f64 / 1000.0),
            p.completion.to_string(),
            o.completion.to_string(),
            ratio(p.completion, o.completion),
            o.stats().aborts.to_string(),
            o.stats().rollbacks.to_string(),
        ]);
    }
    t.note("§1: 'provided we usually guess right, we still obtain a performance improvement'; past the crossover the rollback cost wins.");
    t
}

/// E4: the liveness limit L — an adversarial always-failing stream.
pub fn e4_retry_limit() -> Table {
    let mut t = Table::new(
        "E4 — retry limit L under an always-failing guess (N=16, d=50)",
        &["L", "completion", "wasted forks", "aborts", "data msgs"],
    );
    for l in [0u32, 1, 2, 4, 8] {
        let o = Spec::Tally(TallyOpts {
            n: 16,
            latency: 50,
            p_per_mille: 1000, // every line fails: every guess is wrong
            core: CoreConfig::static_limit(l),
            ..Default::default()
        })
        .simulate();
        assert!(o.unresolved.is_empty());
        t.row(vec![
            l.to_string(),
            o.completion.to_string(),
            o.stats().forks.to_string(),
            o.stats().aborts.to_string(),
            o.stats().data_messages.to_string(),
        ]);
    }
    t.note("§3.3: L bounds how often the same fork site re-runs optimistically after aborting. With every guess wrong, completion equals the sequential time regardless (each line must wait its round trip); what L controls is the *wasted* speculative work — forks ≈ Σ_{i<L+1}(N−i) until the budget is spent, then pure pessimistic execution. Termination is guaranteed for every L.");
    t
}

/// E5: the §4.2.3 delivery optimization (min new dependencies) on/off.
///
/// The scenario engineers genuine pool contention: a warm-up client W
/// keeps Z busy long enough that both the speculative C3{x1} (arriving
/// first) and the clean C2 (arriving second) are queued when Z frees up.
/// With the optimization, Z picks C2 — the Figure 3 ordering, no fault;
/// in FIFO order it consumes C3 first — the Figure 4 time fault.
pub fn e5_delivery_ablation() -> Table {
    use opcsp_sim::{Effect, FnBehavior, Resume, SimBuilder, SimConfig};
    use opcsp_workloads::servers::{ForwardServer, Server};
    use opcsp_workloads::update_write::UpdateWriteClient;

    let mut t = Table::new(
        "E5 — message-delivery choice ablation (busy server, contended pool)",
        &[
            "min-deps delivery",
            "completion",
            "aborts",
            "time faults",
            "rollbacks",
            "orphans",
        ],
    );
    for on in [true, false] {
        let core = CoreConfig {
            deliver_min_deps: on,
            ..CoreConfig::default()
        };
        let latency = opcsp_sim::LatencyModel::per_link(50)
            .link(X, Z, 100) // C3 arrives ~101, while Z is busy
            .link(ProcessId(3), Z, 1) // warm-up call arrives immediately
            .build();
        let cfg = SimConfig {
            core,
            latency,
            ..SimConfig::default()
        };
        let mut b = SimBuilder::new(cfg);
        b.add_process(UpdateWriteClient); // X
        b.add_process(ForwardServer::new("Y(db)", Z, "C2")); // Y
        b.add_process(Server::new("Z(fs)", 120)); // Z: busy until ~122
        b.add_process(FnBehavior::new("W(warmup)", 0u8, |pc, resume| {
            match (*pc, resume) {
                (0, Resume::Start) => {
                    *pc = 1;
                    Effect::call(Z, opcsp_core::Value::Int(0), "Cw")
                }
                (1, Resume::Msg(_)) => Effect::Done,
                (_, r) => panic!("W: unexpected resume {r:?}"),
            }
        }));
        let r = b.build().run();
        assert!(r.unresolved.is_empty());
        t.row(vec![
            on.to_string(),
            r.completion.to_string(),
            r.stats().aborts.to_string(),
            r.stats().time_faults.to_string(),
            r.stats().rollbacks.to_string(),
            r.stats().orphans.to_string(),
        ]);
    }
    t.note("§4.2.3: 'the one for which |Newguards| is smallest should be chosen. This minimizes the chance that receiving the message will lead to an aborted computation.' The FIFO row pays a time fault, two rollbacks and the re-execution round trips.");
    t
}

/// E6: partial-order optimism vs Time Warp total order, skew sweep.
pub fn e6_timewarp() -> Table {
    let mut t = Table::new(
        "E6 — two independent clients, one server: OPCSP vs Time Warp under skew",
        &[
            "skew",
            "TW rollbacks",
            "TW undone",
            "TW anti-msgs",
            "TW anti (lazy)",
            "TW completion",
            "OPCSP rollbacks",
            "OPCSP completion",
        ],
    );
    for skew in [0u64, 50, 150, 300, 600] {
        let tw = run_two_clients(TwoClientOpts {
            n_per_client: 8,
            transit: 20,
            skew,
            ..TwoClientOpts::default()
        });
        let tw_lazy = run_two_clients(TwoClientOpts {
            n_per_client: 8,
            transit: 20,
            skew,
            cancellation: Cancellation::Lazy,
            ..TwoClientOpts::default()
        });
        let ours = run_contention(ContentionOpts {
            n_per_client: 8,
            latency: 20,
            skew,
        });
        assert!(ours.unresolved.is_empty());
        t.row(vec![
            skew.to_string(),
            tw.stats.rollbacks.to_string(),
            tw.stats.undone.to_string(),
            tw.stats.anti_messages.to_string(),
            tw_lazy.stats.anti_messages.to_string(),
            tw.completion.to_string(),
            ours.stats().rollbacks.to_string(),
            ours.completion.to_string(),
        ]);
    }
    t.note("§5: Time Warp's total order makes one client's stragglers roll back the other's causally unrelated work; the partial order never does (OPCSP rollbacks = 0 at every skew). Lazy cancellation rescues Time Warp here — the replayed server regenerates identical replies, so zero anti-messages — but the rollback/reprocessing work itself remains.");
    t.note("Completion columns are not directly comparable: the TW clients fire pre-timestamped events and never await replies, while the OPCSP clients make guarded calls and await the commit wave. The comparable quantity is wasted/redone work (columns 2–4 vs 6).");
    t
}

/// E8: what a guard tag costs on the wire, three ways (§4.1.2). Each row
/// runs the protocol once and sizes every data message's tag with
/// `compact::measure`: as a member-by-member list, as the runs a frame
/// carries, and in §4.1.2's compact form plus the incarnation-table rows a
/// receiver needs to expand it.
pub fn e8_guard_compaction() -> Table {
    let mut t = Table::new(
        "E8 — guard bytes on the wire: member list vs runs vs §4.1.2 compact + rows",
        &[
            "workload",
            "data msgs",
            "member-list bytes",
            "run bytes",
            "compact+rows bytes",
            "member-list / run",
        ],
    );
    let mut row = |label: String, r: SimResult, streaming: bool| {
        let (mut listed, mut runs, mut compact, mut msgs) = (0, 0, 0, 0u64);
        for ev in r.trace.iter() {
            if let opcsp_sim::TraceEvent::Send { guard, .. } = ev {
                let m = measure(guard);
                listed += m.member_list_bytes;
                runs += m.run_bytes;
                compact += m.compact_with_rows();
                msgs += 1;
            }
        }
        let stats = r.stats();
        assert_eq!(msgs, stats.data_messages, "E8 {label}: every send sized");
        assert_eq!(
            runs as u64, stats.guard_bytes,
            "E8 {label}: the runs are what the wire carried"
        );
        assert!(
            runs <= listed,
            "E8 {label}: runs cost more than the member list"
        );
        if streaming {
            assert_eq!(
                runs, compact,
                "E8 {label}: a stream's tag is one run, one span, no rows"
            );
        }
        t.row(vec![
            label,
            msgs.to_string(),
            listed.to_string(),
            runs.to_string(),
            compact.to_string(),
            format!("{:.1}x", listed as f64 / runs.max(1) as f64),
        ]);
    };
    for n in [4u32, 16, 32, 64, 256] {
        let r = Spec::Stream(StreamingOpts {
            n,
            latency: 50,
            ..Default::default()
        })
        .simulate_recorded();
        row(format!("stream N={n}"), r, true);
    }
    let tally = Spec::Tally(TallyOpts {
        n: 64,
        latency: 50,
        p_per_mille: 100,
        seed: 7,
        core: CoreConfig::default(),
    })
    .simulate_recorded();
    row("tally n=64 p=0.1".to_string(), tally, false);
    t.note("§4.1.2: 'only the most recent guess from each process needs to be maintained in the commit guard set'. A member list grows O(N²) over a stream; a frame carries the guard's runs, and a stream's tag {x1..xk} is one run — the same bytes as §4.1.2's one span per process, without the incarnation-table rows, acknowledgements and fallback a receiver needs to expand a span. Run bytes are what the engines count as `guard_bytes` (asserted per row).");
    t.note("The one shape where a span is smaller is a tag that spans k incarnations of one process: k runs against one span — but only for a receiver that already holds the process's table rows 1..=i (i the span's latest incarnation). Self-contained, as this column counts it, the span ships those rows, and on the tally row, whose rejected lines restart the client's incarnation, it costs more than twice the runs. No workload ships that shape compact: the compact codec was never a default and is gone (DESIGN.md §5c).");
    t
}

/// Bonus: chain-depth sweep (optimistic forwarding pipelines).
pub fn chain_depth() -> Table {
    let mut t = Table::new(
        "Chain — depth-k optimistic forwarding (n=8 items, d=40)",
        &[
            "depth",
            "sequential",
            "optimistic",
            "speedup",
            "forks",
            "aborts",
        ],
    );
    for depth in [1u32, 2, 4, 6, 8] {
        let (o, p) = optimistic_and_twin(Spec::Chain(ChainOpts {
            depth,
            n: 8,
            latency: 40,
            ..Default::default()
        }));
        assert!(o.unresolved.is_empty());
        t.row(vec![
            depth.to_string(),
            p.completion.to_string(),
            o.completion.to_string(),
            ratio(p.completion, o.completion),
            o.stats().forks.to_string(),
            o.stats().aborts.to_string(),
        ]);
    }
    t.note("Every hop acknowledges speculatively; absolute savings grow with depth while full-resolution speedup is commit-wave bound (→2x).");
    t
}

/// T1 summary: Theorem-1 equivalence spot checks across the scenarios.
pub fn t1_equivalence() -> Table {
    let mut t = Table::new(
        "T1 — Theorem 1 spot checks (committed traces vs pessimistic)",
        &["scenario", "faults injected", "equivalent"],
    );
    let cases: Vec<(&str, (SimResult, SimResult))> = vec![
        (
            "fig3 streaming ok",
            (
                run_update_write(UpdateWriteOpts::default()),
                run_update_write(UpdateWriteOpts {
                    core: CoreConfig::pessimistic(),
                    ..Default::default()
                }),
            ),
        ),
        (
            "fig4 time fault",
            (
                run_update_write(UpdateWriteOpts {
                    latency: fig4_latency(50),
                    ..Default::default()
                }),
                run_update_write(UpdateWriteOpts {
                    latency: fig4_latency(50),
                    core: CoreConfig::pessimistic(),
                    ..Default::default()
                }),
            ),
        ),
        (
            "streaming value faults",
            optimistic_and_twin(Spec::Stream(StreamingOpts {
                fail_lines: BTreeSet::from([3, 7]),
                ..Default::default()
            })),
        ),
        (
            "chain terminal failure",
            optimistic_and_twin(Spec::Chain(ChainOpts {
                fail_items: BTreeSet::from([1]),
                ..Default::default()
            })),
        ),
    ];
    for (name, (opt, pess)) in &cases {
        let rep = check_equivalence(pess, opt);
        let faults = opt.stats().value_faults + opt.stats().time_faults;
        t.row(vec![
            name.to_string(),
            faults.to_string(),
            if rep.equivalent {
                "yes".into()
            } else {
                format!("NO: {:?}", rep.mismatches)
            },
        ]);
    }
    t.note("Full randomized checking lives in tests/theorem1.rs (hundreds of seeded systems).");
    t
}

/// Guess-lifecycle telemetry (`core::telemetry`): fork→resolution
/// latency and rollback-depth histograms per workload, on both engines.
/// The histogram time *unit* is engine-specific — simulator rows are in
/// virtual-time ticks, runtime rows in microseconds — so compare shapes
/// and counts across rows, not raw latency magnitudes.
pub fn lifecycle_stats() -> Table {
    let mut t = Table::new(
        "Guess lifecycle — commit/abort verdicts, retries, wasted steps, \
         fork→resolve latency and rollback depth per engine",
        &[
            "engine / workload",
            "guesses",
            "committed",
            "aborted",
            "retries",
            "wasted steps",
            "fork→resolve latency",
            "rollback depth",
        ],
    );
    let mut row = |label: &str, rep: opcsp_core::LifecycleReport| {
        t.row(vec![
            label.to_string(),
            rep.guesses.len().to_string(),
            rep.committed_count().to_string(),
            rep.aborted_count().to_string(),
            rep.total_retries().to_string(),
            rep.wasted_steps.to_string(),
            rep.latency.render(),
            rep.rollback_depth.render(),
        ]);
    };
    let clean = Spec::Stream(StreamingOpts {
        n: 16,
        latency: 50,
        ..Default::default()
    })
    .simulate();
    row("sim streaming n=16 clean", clean.telemetry.lifecycle());
    let faulty = Spec::Stream(StreamingOpts {
        n: 16,
        latency: 50,
        fail_lines: BTreeSet::from([5]),
        ..Default::default()
    })
    .simulate();
    row("sim streaming n=16 fault@5", faulty.telemetry.lifecycle());
    let tally = Spec::Tally(TallyOpts {
        n: 12,
        latency: 30,
        p_per_mille: 300,
        seed: 7,
        core: CoreConfig::default(),
    })
    .simulate();
    row("sim tally n=12 p=0.3", tally.telemetry.lifecycle());
    let fan = Spec::FanIn(FanInOpts {
        producers: 4,
        n: 16,
        jitter: 40,
        ..Default::default()
    })
    .simulate();
    row("sim fan_in p=4 n=16 j=40", fan.telemetry.lifecycle());
    let chain = Spec::Chain(ChainOpts {
        depth: 4,
        n: 8,
        latency: 40,
        ..Default::default()
    })
    .simulate();
    row("sim chain d=4 n=8", chain.telemetry.lifecycle());
    let rt_cfg = opcsp_rt::RtConfig {
        latency: std::time::Duration::from_millis(1),
        telemetry: true,
        ..opcsp_rt::RtConfig::default()
    };
    let rt = Spec::Stream(StreamingOpts::default())
        .on(opcsp_rt::RtWorld::new(rt_cfg))
        .run();
    assert!(!rt.timed_out, "rt lifecycle probe timed out");
    row("rt streaming n=16 clean (µs)", rt.telemetry.lifecycle());
    t.note(
        "Latency is fork→resolution per guess; the unit is virtual ticks for sim rows and \
         microseconds for rt rows. Retries = aborted guesses per fork site (each forces one \
         optimistic re-execution, §3.3). Wasted steps = behavior steps discarded by rollbacks \
         and thread discards, attributed to the aborted guess that triggered them. Rollback \
         depth = checkpoint intervals popped per restore.",
    );
    t.note(
        "The clean sim and rt streaming rows must agree on every verdict column (guesses, \
         committed, aborted, retries, wasted steps) — tests/telemetry_differential.rs pins \
         this engine equivalence.",
    );
    t
}

/// Per-fork-site companion to [`lifecycle_stats`]: retry/success columns
/// for each (process, site), including the speculation controller's
/// decision count. The faulty tally row is the interesting one — site 1
/// accumulates aborts (retries) and, under an adaptive policy, shifts.
/// Success-rate cell for the per-site lifecycle table. A site that forked
/// but never resolved (the run ended mid-flight) has no rate — dividing by
/// the zero resolution count would render `NaN%`; emit a dash instead.
pub fn success_rate_cell(committed: u64, aborted: u64) -> String {
    let resolved = committed + aborted;
    if resolved == 0 {
        "—".into()
    } else {
        format!("{:.0}%", 100.0 * committed as f64 / resolved as f64)
    }
}

pub fn lifecycle_site_stats() -> Table {
    let mut t = Table::new(
        "Guess lifecycle per fork site — forks, verdicts, success rate, \
         retries and controller shifts",
        &[
            "workload / process @ site",
            "forks",
            "committed",
            "aborted",
            "success",
            "retries",
            "shifts",
            "wasted steps",
            "fork→resolve latency",
        ],
    );
    let mut rows = |label: &str, rep: opcsp_core::LifecycleReport| {
        for (key @ (pid, site), s) in rep.per_site() {
            t.row(vec![
                format!("{label} / P{} @ {site}", pid.0),
                s.forks.to_string(),
                s.committed.to_string(),
                s.aborted.to_string(),
                success_rate_cell(s.committed, s.aborted),
                rep.retries.get(&key).copied().unwrap_or(0).to_string(),
                s.policy_shifts.to_string(),
                s.wasted_steps.to_string(),
                s.latency.render(),
            ]);
        }
    };
    let clean = Spec::Stream(StreamingOpts {
        n: 16,
        latency: 50,
        ..Default::default()
    })
    .simulate();
    rows("sim streaming clean", clean.telemetry.lifecycle());
    let tally = Spec::Tally(TallyOpts {
        n: 12,
        latency: 30,
        p_per_mille: 300,
        seed: 7,
        core: CoreConfig::default(),
    })
    .simulate();
    rows("sim tally p=0.3 static:3", tally.telemetry.lifecycle());
    let adaptive = Spec::Tally(TallyOpts {
        n: 12,
        latency: 30,
        p_per_mille: 300,
        seed: 7,
        core: CoreConfig::adaptive(),
    })
    .simulate();
    rows("sim tally p=0.3 adaptive", adaptive.telemetry.lifecycle());
    t.note(
        "Success = committed / resolved at that site. Retries = aborted guesses (each forces \
         one §3.3 re-execution). Shifts = PolicyShift telemetry events — the adaptive \
         controller's limit changes (deepen / back-off / cooloff / probe); static policies \
         never shift.",
    );
    t
}

/// E12 — adaptive speculation vs the static retry limit L on the phased
/// contention sweep: 48 succeeding calls, then 16 that all fail, then 96
/// succeeding again, against a server whose per-call compute (30) dwarfs
/// the step cost, with one-way latency 10.
///
/// The committed phase timeline (external boundary markers) exposes both
/// failure modes of a fixed L: `pessimistic`/L=0 forfeits pipelining in
/// the low-contention phases, while every static L ≥ 1 burns its whole
/// budget during the failure burst and — with no commit left to reset the
/// site — runs the entire recovery phase pessimistically. The adaptive
/// controller collapses to cooloff a few aborts into phase B and probes
/// its way back to full depth a few calls into phase C.
pub fn e12_contention_sweep() -> Table {
    use opcsp_workloads::contention_sweep::{run_contention_sweep, SweepOpts};

    let base = SweepOpts::default();
    let candidates: Vec<(&str, SpeculationPolicy)> = vec![
        ("pessimistic", SpeculationPolicy::Pessimistic),
        ("static:1", SpeculationPolicy::Static { limit: 1 }),
        ("static:3", SpeculationPolicy::Static { limit: 3 }),
        ("static:8", SpeculationPolicy::Static { limit: 8 }),
        ("adaptive", SpeculationPolicy::Adaptive),
    ];

    // Oracle: the best static choice per phase, each phase run in
    // isolation (fresh controller state, so no cross-phase poisoning).
    let mut oracle = vec![0.0f64; base.phases.len()];
    for (_, p) in candidates.iter().filter(|(n, _)| *n != "adaptive") {
        for (k, ph) in base.phases.iter().enumerate() {
            let out = run_contention_sweep(SweepOpts {
                phases: vec![*ph],
                core: CoreConfig::default().with_speculation(*p),
                ..base.clone()
            });
            oracle[k] = oracle[k].max(out.phase_throughputs()[0]);
        }
    }

    let mut t = Table::new(
        "E12 — adaptive speculation vs static L on the contention sweep \
         (48 ok / 16 fail / 96 ok, d=10, server compute=30; committed \
         calls per kilotick per phase)",
        &[
            "policy",
            "lo A",
            "hi B",
            "lo C",
            "A vs oracle",
            "C vs oracle",
            "completion",
            "aborts",
            "shifts",
        ],
    );
    let mut measured: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, p) in &candidates {
        let out = run_contention_sweep(SweepOpts {
            core: CoreConfig::default().with_speculation(*p),
            ..base.clone()
        });
        assert!(
            out.result.unresolved.is_empty(),
            "{name}: unresolved {:?}",
            out.result.unresolved
        );
        let th = out.phase_throughputs();
        let shifts: u64 = out
            .result
            .telemetry
            .lifecycle()
            .policy_shifts
            .values()
            .sum();
        t.row(vec![
            name.to_string(),
            format!("{:.1}", th[0]),
            format!("{:.1}", th[1]),
            format!("{:.1}", th[2]),
            format!("{:.0}%", 100.0 * th[0] / oracle[0]),
            format!("{:.0}%", 100.0 * th[2] / oracle[2]),
            out.result.completion.to_string(),
            out.result.stats().aborts.to_string(),
            shifts.to_string(),
        ]);
        measured.push((name, th));
    }
    t.row(vec![
        "oracle (best static/phase)".into(),
        format!("{:.1}", oracle[0]),
        format!("{:.1}", oracle[1]),
        format!("{:.1}", oracle[2]),
        "100%".into(),
        "100%".into(),
        "—".into(),
        "—".into(),
        "—".into(),
    ]);

    // The claim, enforced: adaptive tracks the oracle at both
    // low-contention ends; every fixed choice loses ≥25% at one of them.
    for (name, th) in &measured {
        let ends = (th[0] / oracle[0], th[2] / oracle[2]);
        if *name == "adaptive" {
            assert!(
                ends.0 >= 0.9 && ends.1 >= 0.9,
                "adaptive must stay within 10% of the per-phase oracle at \
                 both ends: A={:.2} C={:.2}",
                ends.0,
                ends.1
            );
        } else {
            assert!(
                ends.0 <= 0.75 || ends.1 <= 0.75,
                "{name} should lose ≥25% at one end: A={:.2} C={:.2}",
                ends.0,
                ends.1
            );
        }
    }
    t.note(
        "Oracle = best static policy per phase, measured on that phase in isolation. \
         Every fixed policy loses at an end: pessimistic forfeits pipelining in A and C; \
         each static L ≥ 1 exhausts its budget during B's 16 consecutive faults and — \
         commits being the only thing that resets a site — stays pessimistic for all of C. \
         The adaptive controller's shifts column counts deepen/back-off/cooloff/probe \
         decisions (TelemetryEvent::PolicyShift).",
    );
    t
}

/// E13 — schedule-exploration reduction: for each small world, the size
/// of the naive FIFO-interleaving space a brute-force enumerator would
/// walk vs the partial-order-distinct schedules `sim::explore` actually
/// executes (deliveries at different receivers commute, so only
/// per-receiver sender orders are genuine choice points — DESIGN.md §14).
/// Exhaustiveness is cross-checked on the 2×2 fan-in, whose 6 distinct
/// orders are countable by hand.
pub fn e13_explore() -> Table {
    use opcsp_sim::{explore, ExploreOpts};

    let mut t = Table::new(
        "E13 — bounded schedule exploration (depth 8): naive interleavings \
         vs partial-order-distinct schedules executed",
        &[
            "workload",
            "deliveries",
            "naive",
            "explored",
            "reduction",
            "forced runs",
            "oracle replays",
            "exhaustive",
        ],
    );

    let run_one = |name: &str, world: Spec, t: &mut Table| -> opcsp_sim::ExploreOutcome {
        let opt_cfg = world.sim_config();
        let mut pess_cfg = opt_cfg.clone();
        pess_cfg.core.speculation = SpeculationPolicy::Pessimistic;
        let out = explore(
            &opt_cfg,
            &pess_cfg,
            &|c| catalog::run(&world, c),
            &ExploreOpts {
                depth: 8,
                budget: 4096,
            },
        );
        assert!(
            out.violation.is_none(),
            "{name}: clean world must explore green"
        );
        assert!(out.stats.complete, "{name}: bounded space not exhausted");
        let deliveries: usize = out.schedules[0].values().map(Vec::len).sum();
        t.row(vec![
            name.to_string(),
            deliveries.to_string(),
            format!("{:.3e}", out.stats.naive_interleavings),
            out.stats.distinct_schedules.to_string(),
            format!("{:.1}x", out.stats.reduction_factor()),
            out.stats.runs_executed.to_string(),
            out.stats.oracle_runs.to_string(),
            out.stats.complete.to_string(),
        ]);
        out
    };

    let s = StreamingOpts {
        n: 4,
        ..StreamingOpts::default()
    };
    run_one("streaming n=4", Spec::Stream(s), &mut t);

    // depth 3, n 4
    let chain_out = run_one("chain d=3 n=4", Spec::Chain(ChainOpts::default()), &mut t);
    // The headline reduction: every receiver has one upstream sender, so
    // the per-receiver factorisation collapses 16!/(4!)^4 links
    // interleavings to a single schedule.
    assert!(
        chain_out.stats.reduction_factor() >= 10.0,
        "chain must show ≥10× reduction while staying exhaustive: {:?}",
        chain_out.stats
    );

    let f22 = FanInOpts {
        producers: 2,
        n: 2,
        ..FanInOpts::default()
    };
    let out22 = run_one("fan_in 2×2", Spec::FanIn(f22), &mut t);
    // Exhaustiveness cross-check: the consumer's order is a multiset
    // permutation of [A, A, B, B] — exactly 4!/(2!·2!) = 6.
    assert_eq!(
        out22.stats.distinct_schedules, 6,
        "2×2 fan-in has exactly 6 distinct consumer orders"
    );

    let f23 = FanInOpts {
        producers: 2,
        n: 3,
        ..FanInOpts::default()
    };
    let out23 = run_one("fan_in 2×3", Spec::FanIn(f23), &mut t);
    assert_eq!(out23.stats.distinct_schedules, 20, "6!/(3!·3!) = 20");

    t.note(
        "naive = FIFO-respecting global interleavings of the baseline committed \
         schedule, (Σn_l)!/Πn_l! over links; explored = distinct per-receiver \
         sender orders executed, each Theorem-1-checked by the replay oracle. \
         Single-consumer fan-ins get no reduction (every order is observable); \
         pipelines collapse entirely. The 2×2 count is verified against brute \
         force in tests/explore.rs.",
    );
    t
}

/// E11 — executor scaling: committed-calls/sec vs worker count at 4096
/// processes (2048 independent client→server pairs, 4 calls each, zero
/// injected latency, optimism off — raw scheduling throughput, no wire
/// wait and no cross-pair protocol traffic). The thread-per-process
/// executor cannot host a world this wide; a 512-process threaded row
/// anchors the comparison. The last two rows run *optimistically*, at 512
/// and at 4096 processes: each pair is its own component of the declared
/// communication graph, so a COMMIT is one frame to the pair's server
/// (DESIGN.md §5a), and `retx/call` says on every row how much of the
/// traffic was the reliable layer repeating itself. DESIGN.md §11, §9.3.
pub fn scaling() -> Table {
    use std::time::{Duration, Instant};
    let mut t = Table::new(
        "E11 — sharded executor scaling (independent pairs, 4 calls each)",
        &["executor", "processes", "wall ms", "calls/sec", "speedup", "retx/call"],
    );
    let run = |procs: u32, ex: opcsp_rt::Executor, core: CoreConfig| -> (Duration, u64, u64) {
        let cfg = opcsp_rt::RtConfig {
            core,
            latency: Duration::ZERO,
            run_timeout: Duration::from_secs(120),
            executor: ex,
            ..opcsp_rt::RtConfig::default()
        };
        let pairs = PairsOpts {
            pairs: procs / 2,
            ..PairsOpts::default()
        };
        let w = Spec::Pairs(pairs).on(opcsp_rt::RtWorld::new(cfg));
        let t0 = Instant::now();
        let r = w.run();
        let wall = t0.elapsed();
        assert!(
            !r.timed_out && r.panicked.is_empty() && r.stragglers.is_empty(),
            "scaling run failed: {:?}",
            r.stats
        );
        (wall, u64::from(procs / 2) * 4, r.stats.retransmits)
    };
    let mut fmt_row = |label: String, procs: u32, run: (Duration, u64, u64), base: f64| {
        let (wall, calls, retx) = run;
        let rate = calls as f64 / wall.as_secs_f64();
        t.row(vec![
            label,
            procs.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{rate:.0}"),
            if base > 0.0 {
                format!("{:.2}x", rate / base)
            } else {
                "—".into()
            },
            format!("{:.2}", retx as f64 / calls as f64),
        ]);
        rate
    };
    let threaded = run(512, opcsp_rt::Executor::Threaded, CoreConfig::pessimistic());
    fmt_row("threaded".into(), 512, threaded, 0.0);
    let procs = 4096u32;
    let mut base = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let sharded = run(
            procs,
            opcsp_rt::Executor::Sharded { workers },
            CoreConfig::pessimistic(),
        );
        let rate = fmt_row(format!("sharded:{workers}"), procs, sharded, base);
        if workers == 1 {
            base = rate;
        }
    }
    for procs in [512, procs] {
        let optimistic = run(
            procs,
            opcsp_rt::Executor::Sharded { workers: 2 },
            CoreConfig::default(),
        );
        fmt_row("sharded:2 optimistic".into(), procs, optimistic, 0.0);
    }
    t.note(
        "Speedup is relative to sharded:1 at 4096 processes. Wall clock, so absolute \
         numbers vary by machine; the claim is the trend — committed-calls/sec grows \
         with the worker count because no link crosses a pair (nothing serializes). \
         retx/call is reliable-layer retransmissions per committed call on a wire that \
         loses nothing. The pessimistic rows never had any (two frames per call, acked \
         by the reply): the reliable layer is ruled out as the reason E11 is flat. The \
         optimistic rows send each COMMIT to the one process that can hold the guess, \
         the pair's server, because control goes to the sender's component of the \
         declared communication graph (DESIGN.md §5a). Broadcast to the world, the \
         512-process row sent 511 frames per COMMIT and committed 1 631 calls/s (628 ms, \
         1.39 retx/call), and the 4096-process row — 4 095 frames per COMMIT, 33 million \
         for the run, over 16 million reliable-link states — was never run.",
    );
    t
}

/// E14 — the replicated-KV flagship workload (optimistic parallel SMR):
/// committed-ops and rollback rate for optimistic vs pessimistic
/// sequencing across jitter levels and replica counts, plus wall-clock
/// rows on the real-thread runtime (threaded and sharded executors).
/// The cross-replica state-equality oracle (`check_replica_agreement`)
/// is asserted on every row — a run only makes the table if all replicas
/// committed identical stores and identical read streams.
pub fn e14_replicated_kv() -> Table {
    use opcsp_workloads::replicated_kv::{check_rt_agreement, check_sim_agreement, KvOpts};

    let base = KvOpts {
        clients: 4,
        ops_per_client: 12,
        ..KvOpts::default()
    };
    let policies: Vec<(&str, SpeculationPolicy)> = vec![
        ("optimistic", CoreConfig::default().speculation),
        ("pessimistic", SpeculationPolicy::Pessimistic),
    ];

    let mut t = Table::new(
        "E14 — replicated KV (optimistic parallel SMR): open-loop Zipf \
         load, guesses encode the optimistic delivery order; committed \
         ops per kilotick (sim) / per second (rt), rollbacks per \
         committed op",
        &[
            "engine", "policy", "R", "jitter", "ops", "throughput", "rollbacks/op", "aborts",
        ],
    );

    // Sim sweep: policy × jitter × replica count, SMR oracle on each run.
    let mut completion = std::collections::BTreeMap::new();
    let mut jittered_aborts = 0u64;
    for replicas in [2u32, 3] {
        for jitter in [0u64, 40] {
            for (name, policy) in &policies {
                let opts = KvOpts {
                    replicas,
                    jitter,
                    seed: 3,
                    core: CoreConfig::default().with_speculation(*policy),
                    ..base.clone()
                };
                let r = Spec::Kv(opts.clone()).simulate();
                let s = check_sim_agreement(&opts, &r)
                    .unwrap_or_else(|e| panic!("SMR oracle ({name} R={replicas} j={jitter}): {e}"));
                assert_eq!(s.applied, opts.total_ops() as i64);
                let st = r.stats();
                if *name == "pessimistic" {
                    assert_eq!(st.forks, 0, "pessimistic must not fork");
                    assert_eq!(st.rollbacks, 0, "pessimistic must not roll back");
                } else if jitter > 0 {
                    jittered_aborts += st.aborts;
                }
                let ops = opts.total_ops() as u64;
                t.row(vec![
                    "sim".into(),
                    name.to_string(),
                    replicas.to_string(),
                    jitter.to_string(),
                    ops.to_string(),
                    format!("{:.1}", ops as f64 / r.completion as f64 * 1000.0),
                    format!("{:.2}", st.rollbacks as f64 / ops as f64),
                    st.aborts.to_string(),
                ]);
                completion.insert((*name, replicas, jitter), r.completion);
            }
        }
    }
    // The paper's claim on the flagship: with spontaneous order intact
    // (no jitter), streaming the broadcasts beats waiting out the
    // sequencer round trip, at every replica count.
    for replicas in [2u32, 3] {
        assert!(
            completion[&("optimistic", replicas, 0)] < completion[&("pessimistic", replicas, 0)],
            "optimistic must beat pessimistic at R={replicas}, jitter 0"
        );
    }
    assert!(
        jittered_aborts > 0,
        "jitter should break spontaneous order somewhere in the sweep"
    );

    // Real-thread rows: same world, wall-clock committed throughput.
    for (engine, executor) in [
        ("rt-threaded", opcsp_rt::Executor::Threaded),
        ("rt-sharded:2", opcsp_rt::Executor::Sharded { workers: 2 }),
    ] {
        let opts = KvOpts {
            replicas: 3,
            seed: 3,
            ..base.clone()
        };
        let cfg = opcsp_rt::RtConfig {
            latency: std::time::Duration::from_millis(1),
            run_timeout: std::time::Duration::from_secs(60),
            executor,
            ..opcsp_rt::RtConfig::default()
        };
        let world = Spec::Kv(opts.clone()).on(opcsp_rt::RtWorld::new(cfg));
        let t0 = std::time::Instant::now();
        let r = world.run();
        let wall = t0.elapsed();
        let s = check_rt_agreement(&opts, &r)
            .unwrap_or_else(|e| panic!("SMR oracle ({engine}): {e}"));
        assert_eq!(s.applied, opts.total_ops() as i64);
        let ops = opts.total_ops() as u64;
        t.row(vec![
            engine.into(),
            "optimistic".into(),
            "3".into(),
            "—".into(),
            ops.to_string(),
            format!("{:.0}", ops as f64 / wall.as_secs_f64()),
            format!("{:.2}", r.stats.rollbacks as f64 / ops as f64),
            r.stats.aborts.to_string(),
        ]);
    }
    t.note(
        "Clients guess the sequencer's position assignment (first: own index; then last + C) \
         and broadcast Apply{pos, cmd} from the speculative right thread — a wrong guess is a \
         value fault whose abort retracts the broadcast and rolls the replicas back, exactly \
         optimistic SMR. Jitter perturbs arrival order at the sequencer, so it is the misguess \
         knob. Every row passed the cross-replica agreement oracle (identical stores, identical \
         read streams, full contiguous position range). rt throughput is wall-clock and \
         machine-dependent; sim throughput is virtual-time. Design in DESIGN.md §15; run it \
         yourself with `opcsp-run kv:`.",
    );
    t
}

/// E15: call-streaming depth on real threads. The same PutLine client and
/// server as the benchmark's `stream_rt` (rt threaded, 1 ms injected
/// latency, full guard tags), at 250 to 4000 calls: what one more call
/// costs as the pipeline gets deeper. Panics if a doubling of the depth
/// costs more than 2.5× (CI runs it for that).
pub fn e15_stream_depth() -> Table {
    use std::time::{Duration, Instant};
    let mut t = Table::new(
        "E15 — stream depth (rt threaded, 1 ms latency, n PutLine calls)",
        &["n", "wall ms", "µs per call", "vs previous row"],
    );
    let run = |n: u32| -> Duration {
        let cfg = opcsp_rt::RtConfig {
            latency: Duration::from_millis(1),
            // The first guesses stay open for most of a deep run.
            fork_timeout: Duration::from_secs(60),
            run_timeout: Duration::from_secs(120),
            ..opcsp_rt::RtConfig::default()
        };
        let stream = StreamingOpts {
            n,
            ..StreamingOpts::default()
        };
        let w = Spec::Stream(stream).on(opcsp_rt::RtWorld::new(cfg));
        let t0 = Instant::now();
        let r = w.run();
        let wall = t0.elapsed();
        assert!(
            !r.timed_out && r.panicked.is_empty() && r.stats.proto.aborts == 0,
            "stream depth run failed: {:?}",
            r.stats
        );
        assert_eq!(r.stats.proto.commits, u64::from(n));
        wall
    };
    let mut previous: Option<f64> = None;
    for n in [250u32, 500, 1000, 2000, 4000] {
        let mut walls = [(); 5].map(|()| run(n));
        walls.sort_unstable();
        let wall = walls[2].as_secs_f64();
        let ratio = previous.map(|p| wall / p);
        assert!(
            ratio.is_none_or(|r| r <= 2.5),
            "E15: {n} calls took {ratio:.2?}x the wall of {} — depth is not linear",
            n / 2
        );
        t.row(vec![
            n.to_string(),
            format!("{:.1}", wall * 1e3),
            format!("{:.0}", wall * 1e6 / f64::from(n)),
            ratio.map_or("—".into(), |r| format!("{r:.2}x")),
        ]);
        previous = Some(wall);
    }
    t.note(
        "Median wall of five runs per row; wall clock, so absolute numbers vary by \
         machine. Each row doubles n: a ratio of 2x is a constant cost per call, and \
         below it the fixed cost of a run (spawn, one 2 ms round trip, quiescence \
         polls) is still showing. A guard is a few runs of consecutive guesses read \
         through the commit history, so a return's 2 000-member tag is checked as one \
         run and a COMMIT visits no thread (DESIGN.md §5b, \"Guard representation\"); \
         the experiment itself fails if any doubling costs more than 2.5x.",
    );
    t
}

/// Every experiment table, in the order `figures` prints them.
pub fn all_tables() -> Vec<Table> {
    vec![
        e1_latency_sweep(),
        e2_n_sweep(),
        e3_abort_sweep(),
        e4_retry_limit(),
        e5_delivery_ablation(),
        e6_timewarp(),
        e8_guard_compaction(),
        chain_depth(),
        t1_equivalence(),
        lifecycle_stats(),
        lifecycle_site_stats(),
        e15_stream_depth(),
        e12_contention_sweep(),
        e13_explore(),
        e14_replicated_kv(),
        scaling(),
    ]
}

/// All rendered figures.
pub fn all_figures() -> Vec<String> {
    vec![fig1(), fig2(), fig3(), fig4(), fig5(), fig6(), fig7()]
}
