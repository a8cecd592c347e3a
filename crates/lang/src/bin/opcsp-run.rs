//! `opcsp-run` — execute a mini-CSP source file, or a catalogue world,
//! under the optimistic protocol.
//!
//! ```text
//! opcsp-run program.csp [options]
//! opcsp-run <world>[:key=value,...] [options]
//!
//!   --pessimistic        run sequentially (the baseline semantics)
//!   --compare            run both modes, check Theorem-1 equivalence
//!   --latency <d>        one-way network latency in ticks   [default 50]
//!   --jitter <spread>    add uniform jitter of up to <spread>
//!   --seed <n>           jitter seed                        [default 1]
//!   --timeline           print the execution time-line (the run keeps
//!                        its event trace; without this flag, or
//!                        --forensics, a simulated run builds none)
//!   --show-transform     print the transformed program and fork sites
//!   --timeout <t>        fork timeout in ticks              [default 100000]
//!   --speculation <p>    speculation policy: pessimistic | static:N (the
//!                        §3.3 retry limit L) | adaptive (the per-fork-site
//!                        controller, core::speculation)    [default static:3]
//!   --explore            bounded systematic schedule exploration: drive
//!                        the optimistic engine through every partial-
//!                        order-distinct delivery schedule (within the
//!                        bounds), Theorem-1-checking each against one
//!                        pessimistic reference — exhaustion instead of
//!                        seed luck. Exit 2 with a shrunk forcing script
//!                        on a violation. Subsumes --compare.
//!   --depth <k>          (with --explore) per-receiver branch-position
//!                        bound                               [default 8]
//!   --budget <n>         (with --explore) max forced runs [default 4096]
//!   --forensics          on a --compare/--explore divergence, print a
//!                        first-divergence report with a happens-before
//!                        chain and a ddmin-shrunk minimal latency
//!                        schedule (--compare's runs keep their trace and
//!                        commit provenance; --explore searches without
//!                        them and re-simulates the violation it reports
//!                        with them)
//!   --inject-lifo        deliberately scramble optimistic delivery (LIFO
//!                        pooled pick + non-FIFO links); the protocol's
//!                        precedence machinery should absorb this
//!   --inject-phantom     deliberately skip observable-log truncation on
//!                        rollback — a genuine Theorem-1 violation that
//!                        demos the forensics path
//!   --rt                 run on the real-thread runtime instead of the
//!                        simulator (latency/timeout ticks become ms);
//!                        processes without an infinite loop are the
//!                        clients whose completion ends the run
//!   --workers <N>        (with --rt) host the processes on the sharded
//!                        M:N executor with N worker threads instead of
//!                        thread-per-process (DESIGN.md §11); with
//!                        --listen every worker process runs its own
//!                        pool of N threads
//!   --chaos <spec>       (with --rt) inject network faults under the
//!                        reliable-delivery sublayer, e.g.
//!                        drop=0.2,dup=0.1,reorder=3,seed=7,part=0-1@0+80
//!   --listen <addr>      (with --rt) run cross-process: bind <addr>
//!                        (tcp:host:port or uds:/path), spawn
//!                        --sock-workers copies of this binary as worker
//!                        processes, and coordinate them over the socket
//!                        (DESIGN.md §13). Each worker hosts a contiguous
//!                        pid range under the same executor an in-process
//!                        run would use (--workers); frames cross as
//!                        binary Envelope frames. --compare replays the
//!                        socket run's committed schedule on the
//!                        pessimistic simulator.
//!   --connect <addr>     (with --rt) worker mode: connect to a parent at
//!                        <addr> and host this worker's pid share. Spawned
//!                        internally by --listen; needs --sock-worker <i>.
//!   --sock-worker <i>    (with --connect) this worker's index
//!   --sock-workers <N>   worker-process count for --listen   [default 2]
//!   --trace-out <path>   write a Chrome/Perfetto-loadable JSON trace of
//!                        the guess lifecycle (forks, resolutions,
//!                        rollbacks, commit waves, orphans); works with
//!                        both the simulator and --rt. With --compare the
//!                        optimistic run is traced.
//! ```
//!
//! Instead of a `.csp` file, a catalogue spec (`opcsp_workloads::catalog`,
//! DESIGN.md §3a) runs a built-in world. The grammar is
//! `name[:key=value,...]`; a key left out keeps its default:
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
//! A spec is bounded (counts ≥ 1, at most 100 000 processes, calls within
//! a `u32`); engine knobs come from the flags (`--seed` also seeds `kv`'s
//! commands and `tally`'s faults); `--rt`, `--workers`, `--chaos` and
//! `--listen` apply; and every run, on either engine, is held to the spec's
//! own oracle (`Spec::check`: the run's committed schedule replayed on the
//! pessimistic simulator, plus the world's own checks), so `--compare`,
//! `--explore`, `--show-transform` and `--inject-*` do not. E.g. `opcsp-run kv: --jitter 40`, `opcsp-run
//! pairs:pairs=64 --rt --workers 2`, `opcsp-run kv: --rt --listen
//! uds:/tmp/kv.sock`.
//!
//! `--compare` checks Theorem 1 with the replay oracle: the strict
//! same-seed comparison first, and on a positional difference it replays
//! the optimistic run's committed delivery schedule through the
//! sequential engine. Only a replay mismatch — behavior NO sequential
//! execution can produce — is a divergence; cross-sender merge order at a
//! fan-in is legal CSP nondeterminism.
//!
//! `--rt --compare` is the same check with the rt run — chaotic, sharded
//! or across a socket — as the optimistic side: the reference and the
//! replay run on the simulator, so the reliable sublayer must absorb every
//! drop/duplicate/reorder before the protocol sees it, or the replay
//! fails. Every process's committed log and its released externals, in
//! release order, are compared. No second rt run is made.
//!
//! Exit code 1 on parse/transform errors (or an `--rt` run that times
//! out or panics), 2 if `--compare` finds a Theorem-1 divergence or a
//! spec fails its oracle (either would be an engine bug worth reporting).

use opcsp_core::{CoreConfig, ProcessId, SpeculationPolicy};
use opcsp_lang::{parse_program, program_to_string, System};
use opcsp_rt::{NetFaults, RtConfig, RtTransport, RtWorld};
use opcsp_sim::{
    check_theorem1, explore, first_divergence, happens_before_chain, render_report,
    render_schedule, shrink_schedule, DivergenceReport, EquivReport, ExploreOpts, FaultInjection,
    Held, LatencyModel, SimConfig, SimResult, Theorem1Verdict,
};
use opcsp_workloads::catalog::{self, place, Roster, Spec, WORLDS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    file: String,
    pessimistic: bool,
    compare: bool,
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
    /// The one `CoreConfig` assembly point for both engines: the sim and
    /// rt paths must build the protocol core from the same knobs, or a new
    /// option silently applies to only one side of a `--compare`.
    /// `pessimistic` is the sequential baseline: `--pessimistic`, or the
    /// reference run a `--compare`/`--explore` builds for itself.
    fn core_config(&self, pessimistic: bool) -> CoreConfig {
        CoreConfig::default().with_speculation(if pessimistic {
            SpeculationPolicy::Pessimistic
        } else {
            self.speculation
        })
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        file: String::new(),
        pessimistic: false,
        compare: false,
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
            "--compare" => opts.compare = true,
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
    // Ineffective flag combinations are parse errors naming the supported
    // path — several of these used to be accepted and silently ignored.
    if opts.explore && opts.rt {
        return Err(
            "--explore runs bounded schedule exploration in the simulator; \
             it cannot steer real threads. Drop --rt (an rt run is \
             Theorem-1-checked with --rt --compare)"
                .into(),
        );
    }
    if opts.explore && opts.compare {
        return Err(
            "--explore subsumes --compare (every explored schedule is \
             Theorem-1-checked against the pessimistic reference); pass \
             one of the two"
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
    if opts.forensics && opts.rt {
        return Err(
            "--forensics mines the simulator's commit provenance, which \
             an rt run does not record. Drop --rt and use --compare or \
             --explore"
                .into(),
        );
    }
    if opts.forensics && !opts.compare && !opts.explore {
        return Err(
            "--forensics only fires on a Theorem-1 divergence; add \
             --compare or --explore"
                .into(),
        );
    }
    if (opts.inject_lifo || opts.inject_phantom) && opts.rt {
        return Err(
            "--inject-lifo/--inject-phantom are simulator fault \
             injections; --rt never consults them. Drop --rt to \
             demonstrate the fault (e.g. --compare --inject-phantom)"
                .into(),
        );
    }
    if (opts.inject_lifo || opts.inject_phantom) && opts.pessimistic && !opts.compare {
        return Err(
            "--inject-lifo/--inject-phantom only perturb the optimistic \
             engine; a --pessimistic run never speculates. Drop \
             --pessimistic or use --compare/--explore"
                .into(),
        );
    }
    Ok(opts)
}

fn usage() {
    eprintln!(
        "usage: opcsp-run <file.csp | world[:key=value,...]> [--pessimistic] [--compare] [--latency d] \
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
    println!(
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
    println!("  held: {}", held_total(&r.held));
    if !r.external.is_empty() {
        println!("outputs:");
        for (t, p, v) in &r.external {
            println!("  [{t:>6}] {p}: {v}");
        }
    }
    if !r.unresolved.is_empty() {
        println!("WARNING: unresolved guesses: {:?}", r.unresolved);
    }
    if r.truncated {
        println!("WARNING: run truncated by the event cap");
    }
}

fn summarize_rt(label: &str, names: &BTreeMap<ProcessId, String>, r: &opcsp_rt::RtResult) {
    let s = &r.stats;
    println!(
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
    println!(
        "  phases: setup={:.1}ms clients={:.1}ms drain={:.1}ms collect={:.1}ms reap={:.1}ms",
        ms(p.setup),
        ms(p.clients),
        ms(p.drain),
        ms(p.collect),
        ms(p.reap),
    );
    println!("  held: {}", held_total(&r.held));
    if !r.external.is_empty() {
        println!("outputs:");
        for (p, v) in &r.external {
            let name = names.get(p).cloned().unwrap_or_else(|| p.to_string());
            println!("  {name}: {v}");
        }
    }
    if r.timed_out {
        println!("WARNING: run timed out before clients finished or the network drained");
    }
    for p in &r.panicked {
        let name = names.get(p).cloned().unwrap_or_else(|| p.to_string());
        println!(
            "WARNING: {name} panicked: {}",
            r.panics.get(p).map(String::as_str).unwrap_or("<unknown>")
        );
    }
    for p in &r.stragglers {
        let name = names.get(p).cloned().unwrap_or_else(|| p.to_string());
        println!("WARNING: {name} was still running at the join deadline (straggler)");
    }
}

/// Write a Perfetto/Chrome trace to `path`, reporting but not failing on
/// I/O errors — the run itself already succeeded.
fn write_trace(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => println!("trace written to {path}"),
        Err(e) => eprintln!("error: cannot write trace to {path}: {e}"),
    }
}

/// Re-spawn this binary `workers` times in `--connect` worker mode,
/// forwarding the original argv minus the parent-only flags (`--listen`,
/// `--sock-workers`, `--compare`, `--trace-out`) so every worker builds
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
            "--compare" => {}
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

/// The one rt launch, for every world and transport: the `.csp` path and
/// the catalogue worlds derive the runtime from the same flags here. With
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

fn rt_label(opts: &Options) -> &'static str {
    if opts.pessimistic {
        "rt pessimistic"
    } else {
        "rt optimistic "
    }
}

/// Run on the real-thread runtime — in-process, chaotic, or with
/// `--listen`/`--connect` across process boundaries over a real socket
/// (DESIGN.md §13). With `--compare` the run is held to Theorem 1 the way
/// a simulator run is: its committed schedule is replayed on the
/// pessimistic simulator ([`check_theorem1`]).
fn run_rt(sys: &System, opts: &Options) -> ExitCode {
    let names: BTreeMap<ProcessId, String> =
        sys.bindings.iter().map(|(n, p)| (*p, n.clone())).collect();
    let (r, workers_ok) = match launch_rt(opts, &names, &sys.roster()) {
        Ok(ran) => ran,
        Err(code) => return code,
    };
    summarize_rt(rt_label(opts), &names, &r);
    if r.timed_out || !r.panicked.is_empty() || !workers_ok {
        return ExitCode::FAILURE;
    }
    if !opts.compare {
        return ExitCode::SUCCESS;
    }
    check_rt(sys, opts, &names, &r)
}

/// `--rt --compare`: Theorem 1 on the rt run `r` ([`check_theorem1`]) —
/// its committed logs and its released externals, per process.
fn check_rt(
    sys: &System,
    opts: &Options,
    names: &BTreeMap<ProcessId, String>,
    r: &opcsp_rt::RtResult,
) -> ExitCode {
    let pess = sys.run(sim_config(opts, false));
    let verdict = check_theorem1(&pess, r, |sched| {
        sys.run(SimConfig {
            forced_order: Some(sched),
            ..sim_config(opts, false)
        })
    });
    theorem1_exit(verdict, |replay, _| {
        eprint!("{}", replay.render(names));
    })
}

/// Print a Theorem-1 verdict and map it to the exit code; on a violation
/// `detail` reports the replay's mismatches and the replay run itself.
fn theorem1_exit(
    verdict: Theorem1Verdict,
    detail: impl FnOnce(&EquivReport, &SimResult),
) -> ExitCode {
    match verdict {
        Theorem1Verdict::Identical => {
            println!("Theorem 1: committed traces identical ✓");
            ExitCode::SUCCESS
        }
        Theorem1Verdict::EquivalentModuloMergeOrder { strict } => {
            println!(
                "Theorem 1: holds modulo legal fan-in merge order ✓ \
                 ({} positional difference(s) vs the same-seed reference; \
                 the committed delivery schedule replays to identical logs)",
                strict.mismatches.len()
            );
            ExitCode::SUCCESS
        }
        Theorem1Verdict::Violation {
            replay,
            replay_result,
            ..
        } => {
            eprintln!(
                "Theorem 1 DIVERGENCE (engine bug!): no sequential execution \
                 reproduces the optimistic committed logs"
            );
            detail(&replay, &replay_result);
            ExitCode::from(2)
        }
    }
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

/// A catalogue world on either engine, held to the spec's own oracle
/// (`catalog::Spec::check`): on every engine, the run's committed schedule
/// is replayed on the pessimistic simulator.
fn run_spec(opts: &Options) -> ExitCode {
    if opts.compare
        || opts.explore
        || opts.show_transform
        || opts.inject_lifo
        || opts.inject_phantom
    {
        eprintln!(
            "error: --compare/--explore/--show-transform/--inject-* drive the .csp \
             pipeline; a builtin world is held to its own oracle (its committed \
             schedule replayed on the pessimistic simulator) on every run"
        );
        return ExitCode::FAILURE;
    }
    let mut spec = match Spec::parse(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    // `--seed` also seeds what the world itself draws.
    match &mut spec {
        Spec::Kv(o) => o.seed = opts.seed,
        Spec::Tally(o) => o.seed = opts.seed,
        _ => {}
    }
    let roster = spec.roster();
    let names: BTreeMap<ProcessId, String> = (0..)
        .zip(&roster)
        .map(|(i, (b, _))| (ProcessId(i), format!("{}#{i}", b.name())))
        .collect();
    let (checked, rate) = if opts.rt {
        let (r, workers_ok) = match launch_rt(opts, &names, &roster) {
            Ok(ran) => ran,
            Err(code) => return code,
        };
        summarize_rt(rt_label(opts), &names, &r);
        if r.timed_out || !r.panicked.is_empty() || !workers_ok {
            return ExitCode::FAILURE;
        }
        let rate = spec.ops() as f64 / r.wall.as_secs_f64().max(1e-9);
        (spec.check(&r), format!("[{rate:.0} committed ops/s wall]"))
    } else {
        let r = catalog::run(&spec, &sim_config(opts, !opts.pessimistic));
        if opts.timeline {
            let procs: Vec<ProcessId> = (0..roster.len() as u32).map(ProcessId).collect();
            println!("{}", r.trace.render_timeline(&procs));
        }
        summarize(
            if opts.pessimistic {
                "pessimistic"
            } else {
                "optimistic"
            },
            &r,
        );
        if let Some(path) = &opts.trace_out {
            write_trace(path, &r.telemetry.to_perfetto_json(&names));
        }
        let rate = spec.ops() as f64 / (r.completion.max(1) as f64 / 1000.0);
        (
            spec.check(&r),
            format!("[{rate:.1} committed ops per kilotick]"),
        )
    };
    match checked {
        Ok(summary) => {
            println!("{summary} ✓ ({spec}) {rate}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ORACLE FAILURE on {spec} (engine bug!): {e}");
            ExitCode::from(2)
        }
    }
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
    // A catalogue spec names a world; anything else is a `.csp` path.
    let world = opts.file.split(':').next().unwrap_or_default();
    if WORLDS.contains(&world) && !std::path::Path::new(&opts.file).exists() {
        return run_spec(&opts);
    }
    let src = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let program = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let sys = match System::compile(&program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: transform error: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    if opts.show_transform {
        println!("{}", program_to_string(&sys.transformed.program));
        for site in &sys.transformed.sites {
            println!(
                "// fork site {} in {}: passed {:?}, copy needed: {}",
                site.site, site.proc, site.passed, site.copy_needed
            );
        }
        println!();
    }

    if opts.rt {
        return run_rt(&sys, &opts);
    }

    let cfg = |optimism: bool| sim_config(&opts, optimism);

    let procs: Vec<ProcessId> = (0..sys.transformed.program.procs.len() as u32)
        .map(ProcessId)
        .collect();
    let names: BTreeMap<ProcessId, String> =
        sys.bindings.iter().map(|(n, p)| (*p, n.clone())).collect();

    if opts.explore {
        let eopts = ExploreOpts {
            depth: opts.depth.unwrap_or(8),
            budget: opts.budget.unwrap_or(4096),
        };
        let out = explore(&cfg(true), &cfg(false), &|c| sys.run(c.clone()), &eopts);
        let s = &out.stats;
        println!(
            "explore: {} forced runs, {} distinct schedules \
             ({} duplicate, {} infeasible), {} oracle replays",
            s.runs_executed,
            s.distinct_schedules,
            s.duplicate_schedules,
            s.infeasible_scripts,
            s.oracle_runs,
        );
        println!(
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
            println!(
                "WARNING: {} scripted latency override(s) were never drawn — \
                 the latency script drifted from the workload and tested nothing",
                s.unused_overrides
            );
        }
        return match out.violation {
            None => {
                if s.complete {
                    println!(
                        "Theorem 1: holds on every schedule within depth {} ✓",
                        eopts.depth
                    );
                } else {
                    println!(
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
        };
    }

    if opts.compare {
        let pess = sys.run(cfg(false));
        let opt = sys.run(cfg(true));
        if opts.timeline {
            println!("{}", opt.trace.render_timeline(&procs));
        }
        summarize("pessimistic", &pess);
        summarize("optimistic ", &opt);
        if let Some(path) = &opts.trace_out {
            write_trace(path, &opt.telemetry.to_perfetto_json(&names));
        }
        println!(
            "speedup: {:.2}x",
            pess.completion as f64 / opt.completion.max(1) as f64
        );
        let verdict = check_theorem1(&pess, &opt, |sched| {
            let mut c = cfg(false);
            c.forced_order = Some(sched);
            sys.run(c)
        });
        theorem1_exit(verdict, |replay, replay_result| {
            if opts.forensics {
                let first = first_divergence(replay, replay_result, &opt)
                    .expect("non-equivalent report has a first mismatch");
                let chain = happens_before_chain(&opt, &first);
                let shrunk = if opts.jitter > 0 {
                    shrink_schedule(&opt.latency_draws, opts.latency, |ov| {
                        let scripted = LatencyModel::scripted(
                            opts.latency,
                            opts.jitter,
                            opts.seed,
                            Arc::new(ov.clone()),
                        );
                        let make_cfg = |optimism| SimConfig {
                            latency: scripted.clone(),
                            record: false,
                            ..cfg(optimism)
                        };
                        let p2 = sys.run(make_cfg(false));
                        let o2 = sys.run(make_cfg(true));
                        !check_theorem1(&p2, &o2, |sched| {
                            let mut c = make_cfg(false);
                            c.forced_order = Some(sched);
                            sys.run(c)
                        })
                        .holds()
                    })
                } else {
                    None
                };
                let report = DivergenceReport {
                    first,
                    chain,
                    shrunk,
                    unused_overrides: opt.unused_overrides.clone(),
                };
                eprint!("{}", render_report(&report, &names));
            } else {
                eprint!("{}", replay.render(&names));
                eprintln!("(re-run with --forensics for a full report)");
            }
        })
    } else {
        let r = sys.run(cfg(!opts.pessimistic));
        if opts.timeline {
            println!("{}", r.trace.render_timeline(&procs));
        }
        if let Some(path) = &opts.trace_out {
            write_trace(path, &r.telemetry.to_perfetto_json(&names));
        }
        summarize(
            if opts.pessimistic {
                "pessimistic"
            } else {
                "optimistic"
            },
            &r,
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--rt --compare` holds the rt run's released externals to Theorem 1
    /// as well as its logs: an output released twice is a divergence.
    #[test]
    fn rt_compare_rejects_an_external_released_twice() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/csp/putline.csp");
        let src = std::fs::read_to_string(path).unwrap();
        let sys = System::compile(&parse_program(&src).unwrap()).unwrap();
        let args = [path, "--rt", "--compare", "--latency", "2"];
        let opts = parse_args(args.map(String::from)).unwrap();
        let names = BTreeMap::new();
        let (mut r, _) = launch_rt(&opts, &names, &sys.roster()).unwrap();
        assert_eq!(check_rt(&sys, &opts, &names, &r), ExitCode::SUCCESS);
        let last = r.external.last().cloned().expect("putline releases outputs");
        r.external.push(last);
        assert_eq!(check_rt(&sys, &opts, &names, &r), ExitCode::from(2));
    }
}
