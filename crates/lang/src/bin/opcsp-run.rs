//! `opcsp-run` — run a mini-CSP program, or a catalogue world, under the
//! optimistic protocol, and hold every run to Theorem 1.
//!
//! ```text
//! opcsp-run program.csp [options]
//! opcsp-run <world>[:key=value,...] [options]
//!
//!   --pessimistic        run sequentially (the baseline semantics)
//!   --latency <d>        one-way network latency in ticks   [default 50]
//!   --jitter <spread>    add uniform jitter of up to <spread>
//!   --seed <n>           jitter seed; also seeds kv's commands and
//!                        tally's faults                     [default 1]
//!   --timeline           print the execution time-line (the run keeps
//!                        its event trace only with this or --forensics)
//!   --show-transform     (a .csp program) print the transformed program
//!                        and its fork sites
//!   --timeout <t>        fork timeout in ticks              [default 100000]
//!   --speculation <p>    pessimistic | static:N (the §3.3 retry limit L) |
//!                        adaptive (core::speculation)    [default static:3]
//!   --explore            bounded schedule exploration: every partial-order-
//!                        distinct delivery schedule within the bounds,
//!                        each Theorem-1-checked; exit 2 with a shrunk
//!                        forcing script on a violation
//!   --depth <k>          (with --explore) per-receiver branch bound [8]
//!   --budget <n>         (with --explore) max forced runs        [4096]
//!   --forensics          when a simulated run diverges, print the first
//!                        divergent event, its happens-before chain and,
//!                        under --jitter, a ddmin-shrunk latency schedule
//!   --inject-lifo        scramble optimistic delivery (LIFO pooled pick,
//!                        non-FIFO links); the protocol should absorb it
//!   --inject-phantom     skip observable-log truncation on rollback: a
//!                        genuine Theorem-1 violation the oracle must catch
//!   --rt                 run on real threads (ticks become ms); a run ends
//!                        when every process without an infinite loop ends
//!   --workers <N>        (with --rt) the sharded executor with N worker
//!                        threads (DESIGN.md §11), in every socket worker
//!   --chaos <spec>       (with --rt) network faults under the reliable
//!                        sublayer, e.g. drop=0.2,dup=0.1,reorder=3,seed=7
//!   --listen <addr>      (with --rt) bind tcp:host:port or uds:/path and
//!                        host the world on --sock-workers copies of this
//!                        binary, a contiguous pid range each (DESIGN.md §13)
//!   --connect <addr> --sock-worker <i>
//!                        (with --rt) worker mode, spawned by --listen
//!   --sock-workers <N>   worker-process count for --listen   [default 2]
//!   --trace-out <path>   write a Perfetto-loadable JSON trace of the guess
//!                        lifecycle, on either engine
//! ```
//!
//! A `.csp` file is parsed, transformed (§2) and compiled into a world
//! (`System::spec`); a catalogue spec (DESIGN.md §3a) names a built-in
//! one, each key left out keeping its default and counts bounded:
//!
//! ```text
//! stream:n=N                      one PutLine client, N calls
//! chain:depth=D,n=N               client → D optimistic forwarders → terminal
//! pairs:pairs=P,n=N               P independent client→server pairs
//! fan_in:producers=P,n=N          P producers into one consumer
//! tally:n=N,faults=F              N calls, F per mille rejected
//! kv:replicas=R,clients=C,ops=N,gap=G,keys=K,writes=W,zipf=S
//!                                 the replicated-KV flagship (DESIGN.md §15)
//! ```
//!
//! Either way the world is one `catalog::Spec`, and one runner drives it
//! on the simulator, on rt or under `--explore`. Every run, on every
//! engine, is held to `Spec::check`: its committed receive schedule,
//! replayed on the pessimistic simulator, must reproduce every process's
//! committed log and released outputs (Theorem 1; cross-sender merge order
//! at a fan-in is legal nondeterminism), and a catalogue world adds its own
//! checks. A flag the world or engine has no data for is refused by one
//! rule. Exit 1 on a bad argument or program (or an rt run that times out
//! or panics), 2 if a run fails its oracle (an engine bug).

use opcsp_core::{CoreConfig, ProcessId, SpeculationPolicy};
use opcsp_lang::{parse_program, program_to_string, System};
use opcsp_rt::{NetFaults, RtConfig, RtTransport, RtWorld};
use opcsp_sim::{
    explore, first_divergence, happens_before_chain, render_report, render_schedule,
    shrink_schedule, DivergenceReport, EquivReport, ExploreOpts, FaultInjection, Held,
    LatencyModel, SimConfig, SimResult,
};
use opcsp_workloads::catalog::{self, place, Refusal, Roster, Spec, WORLDS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

/// Print one line of the report on stdout. A reader that goes away
/// (`opcsp-run … | head -1`, a broken pipe) ends the report quietly
/// instead of panicking, and any other write error ends it with one line
/// on stderr; the exit code is still the verdict's.
fn say(line: std::fmt::Arguments) {
    use std::io::{ErrorKind, Write};
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
    static ENDED: AtomicBool = AtomicBool::new(false);
    if ENDED.load(Relaxed) {
        return;
    }
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        ENDED.store(true, Relaxed);
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("error: stdout: {e}; the report ends here");
        }
    }
}

macro_rules! say {
    ($($arg:tt)*) => {
        say(format_args!($($arg)*))
    };
}

struct Options {
    file: String,
    pessimistic: bool,
    latency: u64,
    jitter: u64,
    seed: u64,
    timeline: bool,
    show_transform: bool,
    timeout: u64,
    speculation: SpeculationPolicy,
    explore: bool,
    depth: Option<usize>,
    budget: Option<usize>,
    forensics: bool,
    inject_lifo: bool,
    inject_phantom: bool,
    rt: bool,
    workers: Option<usize>,
    chaos: Option<String>,
    trace_out: Option<String>,
    listen: Option<String>,
    connect: Option<String>,
    sock_worker: Option<usize>,
    sock_workers: usize,
}

impl Options {
    /// The one `CoreConfig` assembly point for both engines. `pessimistic`
    /// is the sequential baseline: `--pessimistic`, or `--explore`'s reference.
    fn core_config(&self, pessimistic: bool) -> CoreConfig {
        CoreConfig::default().with_speculation(if pessimistic {
            SpeculationPolicy::Pessimistic
        } else {
            self.speculation
        })
    }
}

/// A catalogue spec names a world; anything else is a `.csp` path.
fn is_catalogue(file: &str) -> bool {
    let world = file.split(':').next().unwrap_or_default();
    WORLDS.contains(&world) && !std::path::Path::new(file).exists()
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        file: String::new(),
        pessimistic: false,
        latency: 50,
        jitter: 0,
        seed: 1,
        timeline: false,
        show_transform: false,
        timeout: 100_000,
        speculation: SpeculationPolicy::default(),
        explore: false,
        depth: None,
        budget: None,
        forensics: false,
        inject_lifo: false,
        inject_phantom: false,
        rt: false,
        workers: None,
        chaos: None,
        trace_out: None,
        listen: None,
        connect: None,
        sock_worker: None,
        sock_workers: 2,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse()
                .map_err(|e| format!("{name}: {e}"))
        };
        match a.as_str() {
            "--pessimistic" => opts.pessimistic = true,
            "--compare" => {
                return Err("--compare is gone: every run is held to Theorem 1 (its \
                            committed schedule replayed on the pessimistic simulator); \
                            drop the flag"
                    .into())
            }
            "--timeline" => opts.timeline = true,
            "--show-transform" => opts.show_transform = true,
            "--explore" => opts.explore = true,
            "--depth" => opts.depth = Some(num("--depth")? as usize),
            "--budget" => {
                let b = num("--budget")? as usize;
                if b == 0 {
                    return Err("--budget must be >= 1".into());
                }
                opts.budget = Some(b);
            }
            "--forensics" => opts.forensics = true,
            "--inject-lifo" => opts.inject_lifo = true,
            "--inject-phantom" => opts.inject_phantom = true,
            "--rt" => opts.rt = true,
            "--chaos" => {
                opts.chaos = Some(args.next().ok_or("--chaos needs a spec")?);
            }
            "--trace-out" => {
                opts.trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            "--listen" => {
                opts.listen = Some(args.next().ok_or("--listen needs an address")?);
            }
            "--connect" => {
                opts.connect = Some(args.next().ok_or("--connect needs an address")?);
            }
            "--sock-worker" => opts.sock_worker = Some(num("--sock-worker")? as usize),
            "--sock-workers" => {
                let n = num("--sock-workers")? as usize;
                if n == 0 {
                    return Err("--sock-workers must be >= 1".into());
                }
                opts.sock_workers = n;
            }
            "--workers" => {
                let w = num("--workers")? as usize;
                if w == 0 {
                    return Err("--workers must be >= 1".into());
                }
                opts.workers = Some(w);
            }
            "--latency" => opts.latency = num("--latency")?,
            "--jitter" => opts.jitter = num("--jitter")?,
            "--seed" => opts.seed = num("--seed")?,
            "--timeout" => opts.timeout = num("--timeout")?,
            "--speculation" => {
                let spec = args.next().ok_or("--speculation needs a policy")?;
                opts.speculation = SpeculationPolicy::parse(&spec)
                    .map_err(|e| format!("--speculation: {e}"))?;
            }
            "--help" | "-h" => return Err("help".into()),
            f if !f.starts_with('-') && opts.file.is_empty() => opts.file = f.to_string(),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.file.is_empty() {
        return Err("no input file".into());
    }
    if opts.listen.is_some() && opts.connect.is_some() {
        return Err("--listen and --connect are mutually exclusive".into());
    }
    if (opts.listen.is_some() || opts.connect.is_some()) && !opts.rt {
        return Err("--listen/--connect require --rt (the simulator is single-process)".into());
    }
    if opts.chaos.is_some() && !opts.rt {
        return Err("--chaos requires --rt (the simulator injects faults via --jitter)".into());
    }
    if opts.workers.is_some() && !opts.rt {
        return Err("--workers requires --rt (the simulator has no executor pool)".into());
    }
    if opts.connect.is_some() && opts.sock_worker.is_none() {
        return Err(
            "--connect needs --sock-worker <i> (worker processes are normally \
             spawned by --listen, not by hand)"
                .into(),
        );
    }
    if opts.sock_worker.is_some() && opts.connect.is_none() {
        return Err("--sock-worker requires --connect".into());
    }
    if let Some(i) = opts.sock_worker {
        if i >= opts.sock_workers {
            return Err(format!(
                "--sock-worker {i} out of range (must be < --sock-workers {})",
                opts.sock_workers
            ));
        }
    }
    if opts.explore && opts.rt {
        return Err(
            "--explore runs bounded schedule exploration in the simulator; \
             it cannot steer real threads. Drop --rt (every rt run is \
             Theorem-1-checked on its own)"
                .into(),
        );
    }
    if opts.explore && opts.pessimistic {
        return Err(
            "--explore drives the optimistic engine against a pessimistic \
             reference it builds itself; drop --pessimistic"
                .into(),
        );
    }
    if (opts.depth.is_some() || opts.budget.is_some()) && !opts.explore {
        return Err("--depth/--budget bound --explore; add --explore".into());
    }
    match no_data(&opts) {
        Some(refused) => Err(refused),
        None => Ok(opts),
    }
}

/// The one rule for a flag that the world or the engine has no data for:
/// it is refused, not silently ignored, each in the same words.
fn no_data(opts: &Options) -> Option<String> {
    const RT: &str = "an rt run (it keeps no trace or provenance and injects no simulator fault)";
    const PESSIMISTIC: &str = "a pessimistic run (it never speculates)";
    const CATALOGUE: &str = "a catalogue world (only a .csp program is transformed)";
    let (rt, pess) = (opts.rt, opts.pessimistic);
    let (lifo, phantom) = (opts.inject_lifo, opts.inject_phantom);
    let transform = opts.show_transform && is_catalogue(&opts.file);
    [
        (transform, "--show-transform", CATALOGUE),
        (opts.forensics && rt, "--forensics", RT),
        (opts.timeline && rt, "--timeline", RT),
        (lifo && rt, "--inject-lifo", RT),
        (phantom && rt, "--inject-phantom", RT),
        (lifo && pess, "--inject-lifo", PESSIMISTIC),
        (phantom && pess, "--inject-phantom", PESSIMISTIC),
    ]
    .into_iter()
    .find(|(set, ..)| *set)
    .map(|(_, flag, run)| format!("{flag} has no data on {run}"))
}

fn usage() {
    eprintln!(
        "usage: opcsp-run <file.csp | world[:key=value,...]> [--pessimistic] [--latency d] \
         [--jitter s] [--seed n] [--timeline] [--show-transform] [--timeout t] \
         [--speculation pessimistic|static:N|adaptive] \
         [--explore [--depth k] [--budget n]] \
         [--forensics] [--inject-lifo] [--inject-phantom] \
         [--rt] [--workers N] [--chaos spec] [--trace-out path] \
         [--listen tcp:host:port|uds:/path] [--sock-workers N] \
         [--connect addr --sock-worker i]\n\
         worlds: stream:n=N | chain:depth=D,n=N | pairs:pairs=P,n=N | \
         fan_in:producers=P,n=N | tally:n=N,faults=F | \
         kv:replicas=R,clients=C,ops=N,gap=G,keys=K,writes=W,zipf=S"
    );
}

/// What every process still held at the end of the run, summed.
fn held_total(per_process: &BTreeMap<ProcessId, Held>) -> Held {
    let mut total = Held::default();
    per_process.values().for_each(|h| total.merge(h));
    total
}

fn summarize(label: &str, r: &SimResult) {
    let s = r.stats();
    say!(
        "{label}: completion={} forks={} commits={} aborts={} (value={}, time={}, \
         timeouts={}) rollbacks={} orphans={} msgs={} ctrl={}",
        r.completion,
        s.forks,
        s.commits,
        s.aborts,
        s.value_faults,
        s.time_faults,
        s.timeouts,
        s.rollbacks,
        s.orphans,
        s.data_messages,
        s.control_messages,
    );
    say!("  held: {}", held_total(&r.held));
    if !r.external.is_empty() {
        say!("outputs:");
        for (t, p, v) in &r.external {
            say!("  [{t:>6}] {p}: {v}");
        }
    }
    if !r.unresolved.is_empty() {
        say!("WARNING: unresolved guesses: {:?}", r.unresolved);
    }
    if r.truncated {
        say!("WARNING: run truncated by the event cap");
    }
}

fn summarize_rt(label: &str, names: &BTreeMap<ProcessId, String>, r: &opcsp_rt::RtResult) {
    let s = &r.stats;
    say!(
        "{label}: wall={:.1}ms forks={} commits={} aborts={} rollbacks={} orphans={} \
         msgs={} ctrl={} | net: drops={} dups={} retx={} dup-frames={} acks={} reorder-releases={}",
        r.wall.as_secs_f64() * 1e3,
        s.forks,
        s.commits,
        s.aborts,
        s.rollbacks,
        s.orphans,
        s.data_messages,
        s.control_messages,
        s.drops_injected,
        s.dups_injected,
        s.retransmits,
        s.dup_frames,
        s.acks,
        s.reorder_releases,
    );
    let (p, ms) = (&r.phases, |d: std::time::Duration| d.as_secs_f64() * 1e3);
    say!(
        "  phases: setup={:.1}ms clients={:.1}ms drain={:.1}ms collect={:.1}ms reap={:.1}ms",
        ms(p.setup),
        ms(p.clients),
        ms(p.drain),
        ms(p.collect),
        ms(p.reap),
    );
    say!("  held: {}", held_total(&r.held));
    if !r.external.is_empty() {
        say!("outputs:");
        for (p, v) in &r.external {
            let name = names.get(p).cloned().unwrap_or_else(|| p.to_string());
            say!("  {name}: {v}");
        }
    }
    if r.timed_out {
        say!("WARNING: run timed out before clients finished or the network drained");
    }
    for p in &r.panicked {
        let name = names.get(p).cloned().unwrap_or_else(|| p.to_string());
        say!(
            "WARNING: {name} panicked: {}",
            r.panics.get(p).map(String::as_str).unwrap_or("<unknown>")
        );
    }
    for p in &r.stragglers {
        let name = names.get(p).cloned().unwrap_or_else(|| p.to_string());
        say!("WARNING: {name} was still running at the join deadline (straggler)");
    }
}

/// Write a Perfetto/Chrome trace to `path`, reporting but not failing on
/// I/O errors — the run itself already succeeded.
fn write_trace(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => say!("trace written to {path}"),
        Err(e) => eprintln!("error: cannot write trace to {path}: {e}"),
    }
}

/// Re-spawn this binary `workers` times in `--connect` worker mode,
/// forwarding the original argv minus the parent-only flags (`--listen`,
/// `--sock-workers`, `--trace-out`) so every worker builds
/// the same world from the same file with the same protocol knobs.
fn spawn_sock_workers(addr: &str, workers: usize) -> Result<Vec<std::process::Child>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut forwarded: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" | "--sock-workers" | "--trace-out" => {
                args.next();
            }
            _ => forwarded.push(a),
        }
    }
    (0..workers)
        .map(|i| {
            std::process::Command::new(&exe)
                .args(&forwarded)
                .args(["--connect", addr, "--sock-worker", &i.to_string()])
                .args(["--sock-workers", &workers.to_string()])
                .stdout(std::process::Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn worker {i}: {e}"))
        })
        .collect()
}

/// Reap worker children with a bounded wait; a worker that outlives the
/// parent's own run by this much is wedged and gets killed.
fn reap_sock_workers(children: Vec<std::process::Child>) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut ok = true;
    for (i, mut child) in children.into_iter().enumerate() {
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                Ok(None) => {
                    eprintln!("warning: worker {i} still running at deadline; killing it");
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
                Err(e) => {
                    eprintln!("warning: cannot wait for worker {i}: {e}");
                    break None;
                }
            }
        };
        match status {
            Some(s) if s.success() => {}
            Some(s) => {
                eprintln!("warning: worker {i} exited with {s}");
                ok = false;
            }
            None => ok = false,
        }
    }
    ok
}

/// Parse `--chaos`, defaulting the fault seed to `--seed` when the spec
/// does not pin one.
fn parse_faults(opts: &Options) -> Result<NetFaults, String> {
    match &opts.chaos {
        Some(spec) => {
            let mut f = NetFaults::parse(spec)?;
            if !spec.contains("seed=") {
                f.seed = opts.seed;
            }
            Ok(f)
        }
        None => Ok(NetFaults::none()),
    }
}

/// The one rt launch, for every world and transport. With
/// `--connect` this process is a socket worker: it hosts its pid share,
/// stays quiet (the parent owns the merged result and all reporting) and
/// the `Err` is its exit code, by its own success only. Otherwise the world runs here
/// — in-process, or with `--listen` as the hub of `--sock-workers` copies
/// of this binary — and the result comes back with whether every worker
/// process exited cleanly. The verdict on it is the caller's.
fn launch_rt(
    opts: &Options,
    names: &BTreeMap<ProcessId, String>,
    roster: &Roster,
) -> Result<(opcsp_rt::RtResult, bool), ExitCode> {
    use opcsp_rt::{SockAddr, SockRole};
    let fail = |e: String| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    };
    let faults = parse_faults(opts).map_err(fail)?;
    let socket = |flag: &str, spec: &str, role: SockRole| -> Result<RtTransport, ExitCode> {
        let addr = SockAddr::parse(spec).map_err(|e| fail(format!("{flag} {spec}: {e}")))?;
        Ok(RtTransport::Socket { addr, role })
    };
    let run = |transport| {
        use std::time::Duration;
        let cfg = RtConfig {
            core: opts.core_config(opts.pessimistic),
            // Simulator ticks become milliseconds on real threads; a fork
            // timeout in simulated ticks would dwarf any real run, so cap it.
            latency: Duration::from_millis(opts.latency),
            fork_timeout: Duration::from_millis(opts.timeout).min(Duration::from_secs(10)),
            run_timeout: Duration::from_secs(30),
            faults: faults.clone(),
            telemetry: opts.trace_out.is_some(),
            transport,
            executor: match opts.workers {
                Some(workers) => opcsp_rt::Executor::Sharded { workers },
                None => RtConfig::default().executor,
            },
        };
        place(roster, RtWorld::new(cfg)).run()
    };

    if let Some(spec) = &opts.connect {
        let role = SockRole::Worker {
            index: opts.sock_worker.expect("validated at parse"),
            workers: opts.sock_workers,
        };
        let r = run(socket("--connect", spec, role)?);
        return Err(if r.timed_out {
            fail("socket worker timed out".into())
        } else {
            ExitCode::SUCCESS
        });
    }

    // Parent mode: spawn the worker processes first — they retry their
    // connect until our listener is up, so order is forgiving — then run
    // the coordinator, which blocks in accept until all workers arrive.
    let (transport, children) = match &opts.listen {
        Some(spec) => {
            let role = SockRole::Parent {
                workers: opts.sock_workers,
            };
            let transport = socket("--listen", spec, role)?;
            if opts.trace_out.is_some() {
                eprintln!(
                    "warning: --trace-out is ignored with --listen \
                     (telemetry events are not shipped over the socket)"
                );
            }
            let children = spawn_sock_workers(spec, opts.sock_workers).map_err(fail)?;
            (transport, children)
        }
        None => (RtTransport::InProc, Vec::new()),
    };
    let r = run(transport);
    let workers_ok = reap_sock_workers(children);
    if let (Some(path), None) = (&opts.trace_out, &opts.listen) {
        write_trace(path, &r.telemetry.to_perfetto_json(names));
    }
    Ok((r, workers_ok))
}

/// The simulator config from the flags: `optimism` off is the sequential
/// baseline, and only the optimistic run carries an injected fault. A run
/// keeps its trace and provenance only for `--timeline` or `--forensics`.
fn sim_config(opts: &Options, optimism: bool) -> SimConfig {
    let core = opts.core_config(!optimism);
    SimConfig {
        record: opts.timeline || opts.forensics,
        fault: match (optimism, opts.inject_phantom, opts.inject_lifo) {
            (true, true, _) => FaultInjection::PhantomLog,
            (true, false, true) => FaultInjection::LifoDelivery,
            _ => FaultInjection::None,
        },
        ..catalog::sim_config(
            &core,
            opts.latency,
            opts.jitter,
            opts.seed,
            Some(opts.timeout),
        )
    }
}

/// `--explore`: drive the optimistic simulator through every
/// partial-order-distinct delivery schedule of `spec` within the bounds,
/// each Theorem-1-checked against one pessimistic reference.
fn run_explore(opts: &Options, spec: &Spec) -> ExitCode {
    let names = spec.names();
    let eopts = ExploreOpts {
        depth: opts.depth.unwrap_or(8),
        budget: opts.budget.unwrap_or(4096),
    };
    let out = explore(
        &sim_config(opts, true),
        &sim_config(opts, false),
        &|c| catalog::run(spec, c),
        &eopts,
    );
    let s = &out.stats;
    say!(
        "explore: {} forced runs, {} distinct schedules \
         ({} duplicate, {} infeasible), {} oracle replays",
        s.runs_executed,
        s.distinct_schedules,
        s.duplicate_schedules,
        s.infeasible_scripts,
        s.oracle_runs,
    );
    say!(
        "reduction: {:.3e} naive FIFO interleavings → {} explored ({:.1}×{})",
        s.naive_interleavings,
        s.distinct_schedules,
        s.reduction_factor(),
        if s.complete {
            ", exhaustive within bounds"
        } else {
            ", bounds NOT exhausted"
        },
    );
    if s.unused_overrides > 0 {
        say!(
            "WARNING: {} scripted latency override(s) were never drawn — \
             the latency script drifted from the workload and tested nothing",
            s.unused_overrides
        );
    }
    match out.violation {
        None => {
            if s.complete {
                say!(
                    "Theorem 1: holds on every schedule within depth {} ✓",
                    eopts.depth
                );
            } else {
                say!(
                    "Theorem 1: holds on every explored schedule \
                     (budget {} exhausted before the space — raise --budget)",
                    eopts.budget
                );
            }
            ExitCode::SUCCESS
        }
        Some(v) => {
            eprintln!(
                "Theorem 1 DIVERGENCE (engine bug!): exploration found a \
                 delivery order no sequential execution reproduces"
            );
            eprintln!(
                "minimal forcing script ({} shrink runs): {}",
                v.shrink_tests,
                render_schedule(&v.minimal_script, &names)
            );
            eprintln!(
                "realised schedule: {}",
                render_schedule(&v.schedule, &names)
            );
            if opts.forensics {
                eprint!("{}", render_report(&v.report, &names));
            } else {
                eprint!("{}", v.replay.render(&names));
                eprintln!("(re-run with --forensics for a full report)");
            }
            ExitCode::from(2)
        }
    }
}

/// `--forensics` on `opt`, a simulated run of `spec` that failed Theorem 1:
/// its first divergent event against `replay` (the schedule replay that
/// `Spec::check` made, `report` its mismatches), that event's
/// happens-before chain and, under `--jitter`, a ddmin-shrunk latency
/// schedule that still fails the same replay.
fn forensics(
    opts: &Options,
    spec: &Spec,
    opt: &SimResult,
    report: &EquivReport,
    replay: &SimResult,
) -> DivergenceReport {
    let first =
        first_divergence(report, replay, opt).expect("a failed replay has a first mismatch");
    let chain = happens_before_chain(opt, &first);
    let shrunk = (opts.jitter > 0)
        .then(|| {
            shrink_schedule(&opt.latency_draws, opts.latency, |overrides| {
                let cfg = SimConfig {
                    latency: LatencyModel::scripted(
                        opts.latency,
                        opts.jitter,
                        opts.seed,
                        Arc::new(overrides.clone()),
                    ),
                    record: false,
                    ..sim_config(opts, !opts.pessimistic)
                };
                let verdict = spec.verdict(&catalog::run(spec, &cfg), false);
                verdict.is_err_and(|f| f.divergence.is_some())
            })
        })
        .flatten();
    DivergenceReport {
        first,
        chain,
        shrunk,
        unused_overrides: opt.unused_overrides.clone(),
    }
}

/// A refusal as one message: the reason and, when Theorem 1 failed, what
/// `explain` makes of the replay that showed it.
fn explained(
    verdict: Result<String, Refusal>,
    explain: impl FnOnce(&EquivReport, &SimResult) -> String,
) -> Result<String, String> {
    verdict.map_err(|f| match f.divergence {
        Some((report, replay)) => {
            format!("{}\n{}", f.reason, explain(&report, &replay).trim_end())
        }
        None => f.reason,
    })
}

/// The one runner: `spec` on the simulator or with `--rt`, held to
/// `Spec::check`, whatever the world and the engine.
fn run_spec(opts: &Options, spec: &Spec) -> ExitCode {
    let names = spec.names();
    let ops = spec.ops() as f64;
    let side = if opts.pessimistic {
        "pessimistic"
    } else {
        "optimistic"
    };
    let (checked, rate) = if opts.rt {
        let (r, workers_ok) = match launch_rt(opts, &names, &spec.roster()) {
            Ok(ran) => ran,
            Err(code) => return code,
        };
        summarize_rt(&format!("rt {side:<11}"), &names, &r);
        if r.timed_out || !r.panicked.is_empty() || !workers_ok {
            return ExitCode::FAILURE;
        }
        let rate = ops / r.wall.as_secs_f64().max(1e-9);
        (
            explained(spec.verdict(&r, false), |report, _| report.render(&names)),
            format!("[{rate:.0} committed ops/s wall]"),
        )
    } else {
        let r = catalog::run(spec, &sim_config(opts, !opts.pessimistic));
        if opts.timeline {
            let procs: Vec<ProcessId> = names.keys().copied().collect();
            say!("{}", r.trace.render_timeline(&procs));
        }
        summarize(side, &r);
        if let Some(path) = &opts.trace_out {
            write_trace(path, &r.telemetry.to_perfetto_json(&names));
        }
        let rate = ops / (r.completion.max(1) as f64 / 1000.0);
        let explain = |report: &EquivReport, replay: &SimResult| {
            if opts.forensics {
                render_report(&forensics(opts, spec, &r, report, replay), &names)
            } else {
                format!(
                    "{}(re-run with --forensics for a full report)",
                    report.render(&names)
                )
            }
        };
        (
            explained(spec.verdict(&r, opts.forensics), explain),
            format!("[{rate:.1} committed ops per kilotick]"),
        )
    };
    match checked {
        Ok(summary) if ops > 0.0 => say!("{summary} ✓ ({spec}) {rate}"),
        Ok(summary) => say!("{summary} ✓ ({spec})"),
        Err(e) => {
            eprintln!("ORACLE FAILURE on {spec} (engine bug!): {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// The world `opts.file` names: a catalogue spec (`--seed` also seeds what
/// the world itself draws), or a `.csp` program compiled into one.
fn world(opts: &Options) -> Result<Spec, String> {
    let file = &opts.file;
    if is_catalogue(file) {
        let mut spec = Spec::parse(file)?;
        match &mut spec {
            Spec::Kv(o) => o.seed = opts.seed,
            Spec::Tally(o) => o.seed = opts.seed,
            _ => {}
        }
        return Ok(spec);
    }
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let program = parse_program(&src).map_err(|e| format!("{file}: {e}"))?;
    let sys = System::compile(&program).map_err(|e| format!("{file}: transform error: {e}"))?;
    if opts.show_transform {
        say!("{}", program_to_string(&sys.transformed.program));
        for site in &sys.transformed.sites {
            say!(
                "// fork site {} in {}: passed {:?}, copy needed: {}",
                site.site,
                site.proc,
                site.passed,
                site.copy_needed
            );
        }
        say!("");
    }
    Ok(sys.spec(file))
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };
    match world(&opts) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Ok(spec) if opts.explore => run_explore(&opts, &spec),
        Ok(spec) => run_spec(&opts, &spec),
    }
}
