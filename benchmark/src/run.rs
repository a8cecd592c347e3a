//! One invocation: one workload, one seed, one measuring window, traced
//! or not. This is what `BENCHMARK.json`'s command runs; `all` spawns it
//! once per workload and mode so that CPU and peak RSS are per workload.

use crate::json::Json;
use crate::metrics::{median, percentile, quantile, Reading, END_TO_END, PER_LAYER};
use crate::probes;
use crate::timed::{LayerTotals, Recorder, Span};
use crate::worlds::{workloads, Engine, Policy, Rep, Workload};
use opcsp_core::ProtoStats;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Where the benchmark may write: traces, results, socket files.
pub const OUT_DIR: &str = "benchmark/out";

/// `setup_s` is the median of this many samples, each the mean of
/// `SETUPS_PER_SAMPLE` consecutive set-ups (the first of a process are cold).
const SETUP_SAMPLES: usize = 9;
const SETUPS_PER_SAMPLE: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// How many fresh child processes measure `peak_rss_mb`: allocation on
/// the single-threaded simulator repeats almost exactly, on rt it follows
/// the scheduling.
fn rss_reps(engine: Engine) -> usize {
    if engine == Engine::Sim {
        3
    } else {
        11
    }
}

/// What one invocation reports, before it becomes the result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, &'static str, Reading)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    /// With `detail` (`all` asks) every reading carries its reps' spread.
    pub fn to_json(&self, detail: bool) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, r)| (*name, r.to_json(unit, detail))),
                ),
            ),
        ])
    }
}

/// CPU time this process has used so far, all threads, exited ones too.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid and exclusively ours for the call; on 64-bit
    // Linux — the only platform `/proc/self/status` below exists on — that
    // struct is two 64-bit integers, as declared.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The pieces an invocation shares between its phases.
struct Session {
    w: Workload,
    smoke: bool,
    seed: u64,
    sock_path: String,
    /// Present on a traced invocation.
    rec: Option<Arc<Recorder>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Session {
    /// One rep: construct the world (outside the timed wall), run it, hold
    /// it to its oracle and — given a pessimistic `baseline` of the same
    /// inputs — to the cross-policy check. Its ops count as attempted, and
    /// all of them as failed unless every check passed. `wrapped` reps run
    /// with `Timed` behaviours and telemetry on. Returns the rep and the
    /// CPU time `run()` used.
    fn rep(
        &mut self,
        w: Workload,
        policy: Policy,
        wrapped: bool,
        baseline: Option<&Rep>,
    ) -> (Rep, f64) {
        let rec = self.rec.as_ref().filter(|_| wrapped);
        let built = w.build(self.seed, policy, rec, wrapped, &self.sock_path);
        let run_span = match (policy, wrapped) {
            (Policy::Pessimistic, _) => "bench.pessimistic_run",
            (Policy::Optimistic, true) => "bench.run",
            (Policy::Optimistic, false) => "bench.untraced_run",
        };
        let cpu0 = process_cpu_s();
        let ran = self.span(run_span, || w.execute(built));
        let cpu_s = process_cpu_s() - cpu0;
        let rep = self.span("bench.oracle", || {
            let mut rep = w.check(self.seed, policy, ran);
            if let Some(baseline) = baseline {
                rep.check_against(baseline);
            }
            rep
        });
        self.attempted += w.ops();
        if let Some(why) = &rep.failure {
            self.failed += w.ops();
            self.failures
                .push(format!("{} ({policy:?}): {why}", w.name));
        }
        (rep, cpu_s)
    }

    /// One optimistic rep in a fresh child of this executable, for that
    /// process's `VmHWM`. The high-water mark of a process that runs many
    /// reps is the maximum over them — an extreme value, 190–290 MB from run
    /// to run on `pairs_rt` — and it cannot be reset between reps; a process
    /// per rep gives independent peaks whose median is steady.
    fn rss_rep(&mut self) -> f64 {
        let w = self.w;
        let run = || -> Result<f64, String> {
            let seed = self.seed.to_string();
            let mut args = vec!["--rss-rep", "--workload", w.name, "--seed", &seed];
            if self.smoke {
                args.extend(["--scale", "smoke"]);
            }
            let line = spawn_self(&args)?;
            match line.get("failure").and_then(Json::as_str) {
                Some(why) => Err(why.to_string()),
                None => line
                    .get("peak_rss_mb")
                    .and_then(Json::as_f64)
                    .ok_or("no peak_rss_mb in the child's line".to_string()),
            }
        };
        self.attempted += w.ops();
        run().unwrap_or_else(|why| {
            self.failed += w.ops();
            self.failures.push(format!("{} (rss rep): {why}", w.name));
            0.0
        })
    }

    /// Record `f` as a top-level span when this invocation is traced.
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.rec {
            Some(rec) => rec.span(name, f),
            None => f(),
        }
    }

    /// One set-up: generate the inputs, construct the full-size world, and
    /// take a quarter-size warm-up run (socket bind and handshake included)
    /// through the oracle.
    fn setup(&mut self) -> f64 {
        let start = Instant::now();
        self.span("bench.setup", || {
            drop(
                self.w
                    .build(self.seed, Policy::Optimistic, None, false, &self.sock_path),
            )
        });
        self.rep(self.w.warmup(), Policy::Optimistic, false, None);
        start.elapsed().as_secs_f64()
    }
}

/// Run this executable again with `args`, wait for it, and parse the last
/// line of its stdout.
pub fn spawn_self(args: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().unwrap_or("")).map_err(|e| {
        format!(
            "{args:?} exited with {} and no result line ({e}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

fn find(workload: &str, smoke: bool) -> Result<Workload, String> {
    workloads(smoke)
        .into_iter()
        .find(|w| w.name == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))
}

fn elapsed_share(start: Instant, seconds: f64, share: f64) -> bool {
    start.elapsed().as_secs_f64() >= seconds * share
}

/// The body of an `--rss-rep` child: one un-wrapped optimistic rep held to
/// its own oracle, then this process's peak RSS, as one JSON line.
pub fn rss_rep(workload: &str, seed: u64, smoke: bool) -> Result<Json, String> {
    let w = find(workload, smoke)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let sock_path = format!("{OUT_DIR}/{}.sock", std::process::id());
    let built = w.build(seed, Policy::Optimistic, None, false, &sock_path);
    let rep = w.check(seed, Policy::Optimistic, w.execute(built));
    Ok(Json::obj([
        ("peak_rss_mb", Json::num(peak_rss_mb())),
        ("failure", rep.failure.map_or(Json::Null, Json::Str)),
    ]))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut s = Session {
        w: find(&args.workload, args.smoke)?,
        smoke: args.smoke,
        seed: args.seed,
        sock_path: format!("{OUT_DIR}/{}.sock", std::process::id()),
        rec: args.trace.then(Recorder::new),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let metrics = if args.trace {
        traced(&mut s, args.seconds)?
    } else {
        end_to_end(&mut s, args.seconds)
    };
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.failed,
        failures: s.failures,
        metrics,
    })
}

/// `--trace 0`: telemetry off, un-wrapped behaviours.
fn end_to_end(s: &mut Session, seconds: f64) -> Vec<(&'static str, &'static str, Reading)> {
    let w = s.w;
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| (0..SETUPS_PER_SAMPLE).map(|_| s.setup()).sum::<f64>() / SETUPS_PER_SAMPLE as f64)
        .collect();

    let window = Instant::now();
    // Virtual time is exact: one pessimistic sim rep is the baseline. On rt
    // the baseline is wall-clock and gets a fifth of the window; the memory
    // reps come last because their number is fixed, not their time.
    let optimistic_share = if w.engine() == Engine::Sim { 0.8 } else { 0.55 };
    let (baseline, _) = s.rep(w, Policy::Pessimistic, false, None);
    let mut pessimistic_walls = vec![baseline.wall_s];

    let mut walls = Vec::new();
    let mut cpu_s = 0.0;
    let mut committed = 0u64;
    let mut first: Option<(ProtoStats, Option<u64>)> = None;
    while walls.len() < 3 || !elapsed_share(window, seconds, optimistic_share) {
        let (rep, cpu) = s.rep(w, Policy::Optimistic, false, Some(&baseline));
        if rep.failure.is_none() {
            committed += w.ops();
        }
        if w.engine() == Engine::Sim {
            let this = (rep.proto, rep.vt_ticks);
            assert!(
                *first.get_or_insert(this) == this,
                "{}: sim counters differ between reps of one seed",
                w.name
            );
        }
        walls.push(rep.wall_s);
        cpu_s += cpu;
    }
    if w.engine() != Engine::Sim {
        while pessimistic_walls.len() < 3 || !elapsed_share(window, seconds, 0.75) {
            let (rep, _) = s.rep(w, Policy::Pessimistic, false, Some(&baseline));
            pessimistic_walls.push(rep.wall_s);
        }
    }
    let peak_rss: Vec<f64> = (0..rss_reps(w.engine())).map(|_| s.rss_rep()).collect();

    let ops = w.ops() as f64;
    let throughput: Vec<f64> = walls.iter().map(|wall| ops / wall).collect();
    let speedup = match (baseline.vt_ticks, first.and_then(|(_, vt)| vt)) {
        (Some(pess), Some(opt)) => Reading::once(pess as f64 / opt as f64),
        _ => {
            // The first decile, not the median: a pessimistic rep of
            // `kv_rt` or `pairs_rt` is 4–7 ms made of 1 ms polls and falls
            // into two modes a millisecond apart whose shares shift from
            // process to process (10–60 % slow), which moves the median by
            // 30 % and the fast mode by 1 %. Hundreds of reps are at hand;
            // on `stream_*` (three reps, latency-bound) it is the minimum.
            pessimistic_walls.sort_by(f64::total_cmp);
            let pess = quantile(&pessimistic_walls, 0.10);
            Reading::median_of(&walls.iter().map(|wall| pess / wall).collect::<Vec<_>>())
        }
    };
    let value = |name: &str| match name {
        "committed_ops_per_s" => Reading::median_of(&throughput),
        "speedup_vs_pessimistic" => speedup,
        "cpu_ms_per_op" => Reading::once(cpu_s * 1e3 / (committed.max(1)) as f64),
        "peak_rss_mb" => Reading::median_of(&peak_rss),
        "setup_s" => Reading::median_of(&setups),
        other => unreachable!("end-to-end metric `{other}` has no measurement"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, value(m.name)))
        .collect()
}

/// `--trace 1`: a few untraced reps for the counters and the overhead
/// base, then traced reps (wrapped behaviours, telemetry on), one
/// pessimistic rep, then the layer probes.
fn traced(
    s: &mut Session,
    seconds: f64,
) -> Result<Vec<(&'static str, &'static str, Reading)>, String> {
    let w = s.w;
    let rec = s.rec.clone().expect("a traced invocation has a recorder");
    s.setup();

    let window = Instant::now();
    let (baseline, _) = s.rep(w, Policy::Pessimistic, false, None);

    let mut untraced_walls = Vec::new();
    let mut counters = Vec::new();
    let mut last = None;
    while untraced_walls.len() < 2 || !elapsed_share(window, seconds, 0.35) {
        let (rep, _) = s.rep(w, Policy::Optimistic, false, Some(&baseline));
        untraced_walls.push(rep.wall_s);
        counters.push(rep.proto);
        last = Some(rep);
    }
    let plain = last.expect("at least two untraced reps ran");
    let counts_stable = counters.windows(2).all(|p| p[0] == p[1]);
    if w.engine() == Engine::Sim {
        assert!(
            counts_stable,
            "{}: sim counters differ between reps",
            w.name
        );
    }

    let mut traced_walls = Vec::new();
    let mut totals: Vec<LayerTotals> = Vec::new();
    let mut last = None;
    while traced_walls.is_empty() || !elapsed_share(window, seconds, 0.75) {
        rec.take_totals();
        let (rep, _) = s.rep(w, Policy::Optimistic, true, Some(&baseline));
        totals.push(rec.take_totals());
        traced_walls.push(rep.wall_s);
        last = Some(rep);
    }
    let traced = last.expect("at least one traced rep ran");

    let probe_values = probes::run_all(s.seed, &s.sock_path);
    write_trace(w.name, &rec.spans())?;

    let ops = w.ops() as f64;
    let p = &plain.proto;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let per_rep = |f: fn(&LayerTotals) -> f64| median(&totals.iter().map(f).collect::<Vec<_>>());
    let run_wall = median(&traced_walls);
    let step_s = per_rep(|t| t.step_ns as f64 * 1e-9);
    let clone_s = per_rep(|t| t.clone_ns as f64 * 1e-9);
    let residual = run_wall - step_s - clone_s;
    let lifecycle = traced.telemetry.lifecycle();
    let latencies: Vec<u64> = lifecycle
        .guesses
        .iter()
        .filter_map(|g| g.latency())
        .collect();
    let vt = plain.vt_ticks.unwrap_or(0);

    let value = |name: &str| -> f64 {
        match name {
            "core.process.forks" => p.forks as f64,
            "core.process.commits" => p.commits as f64,
            "core.process.aborts" => p.aborts as f64,
            "core.process.rollbacks" => p.rollbacks as f64,
            "core.process.discarded_threads" => p.discarded_threads as f64,
            "core.process.orphans" => p.orphans as f64,
            "core.process.commit_ratio" => ratio(p.commits, p.forks),
            "core.process.aborts_per_op" => p.aborts as f64 / ops,
            "core.process.rollbacks_per_op" => p.rollbacks as f64 / ops,
            "core.message.data_per_op" => p.data_messages as f64 / ops,
            "core.message.control_per_op" => p.control_messages as f64 / ops,
            "core.wire.guard_bytes_per_op" => p.guard_bytes as f64 / ops,
            "core.wire.table_bytes_per_op" => p.table_bytes as f64 / ops,
            "core.wire.full_fallbacks" => p.wire.full_fallbacks as f64,
            "core.guard.interner_hit_ratio" => {
                ratio(p.interner.hits, p.interner.hits + p.interner.misses)
            }
            "rt.net.retransmits" => plain.retransmits as f64,
            "rt.net.standalone_acks" => plain.standalone_acks as f64,
            "sim.engine.vt_completion_ticks" => vt as f64,
            "sim.engine.vt_ops_per_ktick" => ratio(w.ops() * 1000, vt),
            "rt.runtime.counts_stable" => counts_stable as u8 as f64,
            "bench.run_wall_s" => run_wall,
            "workloads.behavior.steps" => per_rep(|t| t.steps as f64),
            "workloads.behavior.step_self_s" => step_s,
            "sim.behavior.clones" => per_rep(|t| t.clones as f64),
            "sim.behavior.clone_self_s" => clone_s,
            "sim.behavior.clone_share" => clone_s / run_wall,
            "sim.engine.residual_s" if w.engine() == Engine::Sim => residual,
            "rt.runtime.residual_s" if w.engine() != Engine::Sim => residual,
            "sim.engine.residual_s" | "rt.runtime.residual_s" => 0.0,
            "core.telemetry.fork_commit_p50" => percentile(&latencies, 0.50) as f64,
            "core.telemetry.fork_commit_p99" => percentile(&latencies, 0.99) as f64,
            "core.telemetry.wasted_steps" => lifecycle.wasted_steps as f64,
            "core.telemetry.rollback_depth_max" => lifecycle.rollback_depth.max() as f64,
            "core.telemetry.traced_overhead_pct" => {
                (run_wall / median(&untraced_walls) - 1.0) * 100.0
            }
            probe => probe_values
                .iter()
                .find(|(n, _)| *n == probe)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| unreachable!("per-layer metric `{probe}` has no measurement")),
        }
    };
    Ok(PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, Reading::once(value(m.name))))
        .collect())
}

/// The traced-run format: every span the benchmark recorded, in memory
/// until now, as `{name, start_ns, end_ns, parent}` with `parent` an index
/// into the same list (null for the top-level `bench.*` spans).
fn write_trace(workload: &str, spans: &[Span]) -> Result<(), String> {
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|sp| {
                        Json::obj([
                            ("name", Json::str(sp.name)),
                            ("start_ns", Json::num(sp.start_ns as f64)),
                            ("end_ns", Json::num(sp.end_ns as f64)),
                            (
                                "parent",
                                sp.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{path}: {e}"))
}
