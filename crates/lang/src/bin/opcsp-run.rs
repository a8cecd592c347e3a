//! `opcsp-run` — execute a mini-CSP source file under the optimistic
//! protocol.
//!
//! ```text
//! opcsp-run program.csp [options]
//! opcsp-run kv:[key=value,...] [options]
//!
//!   --pessimistic        run sequentially (the baseline semantics)
//!   --compare            run both modes, check Theorem-1 equivalence
//!   --latency <d>        one-way network latency in ticks   [default 50]
//!   --jitter <spread>    add uniform jitter of up to <spread>
//!   --seed <n>           jitter seed                        [default 1]
//!   --timeline           print the execution time-line
//!   --show-transform     print the transformed program and fork sites
//!   --timeout <t>        fork timeout in ticks              [default 100000]
//!   --speculation <p>    speculation policy: pessimistic | static:N (the
//!                        §3.3 retry limit L) | adaptive[:target=0.7,min=0,
//!                        max=16,alpha=0.5,cooloff=4] — the adaptive form
//!                        runs the per-fork-site controller
//!                        (core::speculation)               [default static:3]
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
//!                        schedule
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
//!                        --compare both runs use the same executor, and
//!                        with --listen every worker process runs its
//!                        own pool of N threads
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
//!                        binary Envelope frames. --compare diffs the
//!                        socket run against an in-process fault-free
//!                        baseline.
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
//! Instead of a `.csp` file, the spec `kv:[key=value,...]` runs the
//! built-in replicated-KV world (`opcsp_workloads::replicated_kv`,
//! DESIGN.md §15): C clients stream Zipf-keyed commands through a
//! sequencer to R replicas, guessing their log positions optimistically.
//! Spec keys: `replicas`, `clients`, `ops` (per client), `gap`
//! (open-loop inter-arrival), `keys` (key-space size), `writes` (per
//! mille), `zipf` (skew exponent); an empty spec (`kv:`) takes the E14
//! defaults. Engine knobs come from the ordinary flags, and the run is
//! always checked against the cross-replica agreement oracle (identical
//! stores and read streams on every replica), so `--compare`/`--explore`
//! do not apply. Examples:
//!
//! ```text
//! opcsp-run kv: --jitter 40                  misguesses under jitter
//! opcsp-run kv:replicas=5,clients=8 --rt     real threads
//! opcsp-run kv: --rt --listen uds:/tmp/kv.sock   across OS processes
//! ```
//!
//! `--compare` checks Theorem 1 with the replay oracle: the strict
//! same-seed comparison first, and on a positional difference it replays
//! the optimistic run's committed delivery schedule through the
//! sequential engine. Only a replay mismatch — behavior NO sequential
//! execution can produce — is a divergence; cross-sender merge order at a
//! fan-in is legal CSP nondeterminism.
//!
//! `--rt --compare` is the chaos differential: the chaotic run's
//! committed logs must equal a fault-free run's — the reliable sublayer
//! must absorb every drop/duplicate/reorder before the protocol sees it.
//!
//! Exit code 1 on parse/transform errors (or an `--rt` run that times
//! out or panics), 2 if `--compare` finds a Theorem-1 divergence (which
//! would be an engine bug worth reporting).

use opcsp_core::{CoreConfig, ProcessId, SpeculationPolicy};
use opcsp_lang::{parse_program, program_to_string, System};
use opcsp_sim::{
    check_theorem1, explore, first_divergence, happens_before_chain, render_report,
    render_schedule, shrink_schedule, DivergenceReport, ExploreOpts, FaultInjection, LatencyModel,
    SimConfig, SimResult, Theorem1Verdict,
};
use opcsp_workloads::replicated_kv::{
    self, check_rt_agreement, check_sim_agreement, rt_kv_world, run_replicated_kv, KvOpts,
    KvSummary,
};
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

fn parse_args() -> Result<Options, String> {
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
    let mut args = std::env::args().skip(1);
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
             it cannot steer real threads. Drop --rt (the rt differential \
             is --rt --compare)"
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
            "--forensics reports on a simulator Theorem-1 divergence; the \
             rt chaos differential has no forensics pipeline. Drop --rt \
             and use --compare or --explore"
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
        "usage: opcsp-run <file.csp | kv:[replicas=R,clients=C,ops=N,gap=G,keys=K,\
         writes=W,zipf=S]> [--pessimistic] [--compare] [--latency d] \
         [--jitter s] [--seed n] [--timeline] [--show-transform] [--timeout t] \
         [--speculation pessimistic|static:N|adaptive[:k=v,..]] \
         [--explore [--depth k] [--budget n]] \
         [--forensics] [--inject-lifo] [--inject-phantom] \
         [--rt] [--workers N] [--chaos spec] [--trace-out path] \
         [--listen tcp:host:port|uds:/path] [--sock-workers N] \
         [--connect addr --sock-worker i]"
    );
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

// Merge-order log equivalence lives in `opcsp_rt::merge_equiv`, shared
// with the executor differential tests.

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
fn parse_faults(opts: &Options) -> Result<opcsp_rt::NetFaults, String> {
    match &opts.chaos {
        Some(spec) => {
            let mut f = opcsp_rt::NetFaults::parse(spec)?;
            if !spec.contains("seed=") {
                f.seed = opts.seed;
            }
            Ok(f)
        }
        None => Ok(opcsp_rt::NetFaults::none()),
    }
}

/// The one rt-config assembly point shared by the `.csp` path and the
/// `kv:` builtin — both must derive the runtime from the same flags.
fn rt_config(
    opts: &Options,
    faults: opcsp_rt::NetFaults,
    transport: opcsp_rt::RtTransport,
) -> opcsp_rt::RtConfig {
    use std::time::Duration;
    opcsp_rt::RtConfig {
        core: opts.core_config(opts.pessimistic),
        // Simulator ticks become milliseconds on real threads; a fork
        // timeout in simulated ticks would dwarf any real run, so cap it.
        latency: Duration::from_millis(opts.latency),
        fork_timeout: Duration::from_millis(opts.timeout).min(Duration::from_secs(10)),
        run_timeout: Duration::from_secs(30),
        faults,
        telemetry: opts.trace_out.is_some(),
        transport,
        executor: match opts.workers {
            Some(workers) => opcsp_rt::Executor::Sharded { workers },
            None => opcsp_rt::RtConfig::default().executor,
        },
        ..opcsp_rt::RtConfig::default()
    }
}

/// The one rt launch, for every world and transport. With `--connect`
/// this process is a socket worker: it hosts its pid share, stays quiet
/// (the parent owns the merged result and all reporting) and the `Err` is
/// its exit code, by its own success only. Otherwise the world runs here
/// — in-process, or with `--listen` as the hub of `--sock-workers` copies
/// of this binary — and the result comes back with whether every worker
/// process exited cleanly. The verdict on it is the caller's.
fn launch_rt(
    opts: &Options,
    names: &BTreeMap<ProcessId, String>,
    build: impl Fn(opcsp_rt::RtConfig) -> opcsp_rt::RtWorld,
) -> Result<(opcsp_rt::RtResult, bool), ExitCode> {
    use opcsp_rt::{RtTransport, SockAddr, SockRole};
    let fail = |e: String| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    };
    let faults = parse_faults(opts).map_err(fail)?;
    let socket = |flag: &str, spec: &str, role: SockRole| -> Result<RtTransport, ExitCode> {
        let addr = SockAddr::parse(spec).map_err(|e| fail(format!("{flag} {spec}: {e}")))?;
        Ok(RtTransport::Socket { addr, role })
    };

    if let Some(spec) = &opts.connect {
        let role = SockRole::Worker {
            index: opts.sock_worker.expect("validated at parse"),
            workers: opts.sock_workers,
        };
        let r = build(rt_config(opts, faults, socket("--connect", spec, role)?)).run();
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
    let r = build(rt_config(opts, faults, transport)).run();
    let workers_ok = reap_sock_workers(children);
    if let (Some(path), None) = (&opts.trace_out, &opts.listen) {
        write_trace(path, &r.telemetry.to_perfetto_json(names));
    }
    Ok((r, workers_ok))
}

/// Run on the real-thread runtime; with `--compare`, check the chaos
/// differential: the chaotic run's committed logs must equal a fault-free
/// run's. With `--listen`/`--connect` the run crosses process boundaries
/// over a real socket (DESIGN.md §13); the `--compare` baseline is then
/// an in-process fault-free run of the same world.
fn run_rt(sys: &System, opts: &Options) -> ExitCode {
    let names: BTreeMap<ProcessId, String> =
        sys.bindings.iter().map(|(n, p)| (*p, n.clone())).collect();
    let (chaotic, workers_ok) = match launch_rt(opts, &names, |cfg| sys.rt_world(cfg)) {
        Ok(ran) => ran,
        Err(code) => return code,
    };
    let multi_process = opts.listen.is_some();
    let failed = chaotic.timed_out || !chaotic.panicked.is_empty() || !workers_ok;
    if opts.compare {
        let baseline = sys
            .rt_world(rt_config(
                opts,
                opcsp_rt::NetFaults::none(),
                opcsp_rt::RtTransport::InProc,
            ))
            .run();
        // In multi-process mode the baseline is both fault-free *and*
        // in-process, so the differential checks the socket transport and
        // the chaos absorption in one diff.
        let (base_label, subject_label, diff_label) = if multi_process {
            ("in-process", "socket    ", "socket differential")
        } else {
            ("fault-free", "chaotic   ", "chaos differential")
        };
        summarize_rt(base_label, &names, &baseline);
        summarize_rt(subject_label, &names, &chaotic);
        let mut diverged = false;
        let mut merge_only = false;
        for (p, base_log) in &baseline.logs {
            let chaos_log = chaotic.logs.get(p);
            if chaos_log == Some(base_log) {
                continue;
            }
            if chaos_log.is_some_and(|l| opcsp_rt::merge_equiv(base_log, l)) {
                merge_only = true;
                continue;
            }
            let name = names.get(p).cloned().unwrap_or_else(|| p.to_string());
            eprintln!(
                "DIVERGENCE at {name}: committed log differs under chaos\n  \
                 fault-free: {base_log:?}\n  chaotic:    {chaos_log:?}"
            );
            diverged = true;
        }
        if baseline.external != chaotic.external {
            let multiset = |e: &[(ProcessId, opcsp_core::Value)]| -> Vec<String> {
                let mut v: Vec<String> = e.iter().map(|x| format!("{x:?}")).collect();
                v.sort();
                v
            };
            if multiset(&baseline.external) == multiset(&chaotic.external) {
                merge_only = true;
            } else {
                eprintln!(
                    "DIVERGENCE: released external outputs differ under chaos\n  \
                     fault-free: {:?}\n  chaotic:    {:?}",
                    baseline.external, chaotic.external
                );
                diverged = true;
            }
        }
        if diverged {
            eprintln!(
                "the reliable-delivery sublayer failed to absorb the injected faults \
                 (engine bug!)"
            );
            return ExitCode::from(2);
        }
        if merge_only {
            println!(
                "{diff_label}: holds modulo legal fan-in merge order ✓ \
                 (per-link FIFO projections identical; cross-sender \
                 interleaving differs, which is legal CSP nondeterminism)"
            );
        } else {
            println!("{diff_label}: committed logs identical ✓");
        }
        if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    } else {
        summarize_rt(
            if opts.pessimistic {
                "rt pessimistic"
            } else {
                "rt optimistic "
            },
            &names,
            &chaotic,
        );
        if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Parse the `kv:[key=value,...]` builtin-world spec. World-shape keys
/// live in the spec; engine knobs (latency, jitter, seed, timeout,
/// speculation, `--pessimistic`) come from the ordinary flags so a `kv:` run
/// composes with the rest of the CLI.
fn parse_kv_spec(spec: &str, opts: &Options) -> Result<KvOpts, String> {
    let mut kv = KvOpts {
        latency: opts.latency,
        jitter: opts.jitter,
        seed: opts.seed,
        fork_timeout: opts.timeout,
        core: opts.core_config(opts.pessimistic),
        ..KvOpts::default()
    };
    let body = spec.strip_prefix("kv:").expect("caller checked the prefix");
    for pair in body.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("kv spec: `{pair}` is not key=value"))?;
        let int = |field: &mut u32| -> Result<(), String> {
            *field = v.parse().map_err(|e| format!("kv spec {k}={v}: {e}"))?;
            Ok(())
        };
        match k {
            "replicas" => int(&mut kv.replicas)?,
            "clients" => int(&mut kv.clients)?,
            "ops" => int(&mut kv.ops_per_client)?,
            "keys" => int(&mut kv.keys)?,
            "writes" => int(&mut kv.write_per_mille)?,
            "gap" => kv.gap = v.parse().map_err(|e| format!("kv spec gap={v}: {e}"))?,
            "zipf" => kv.zipf_s = v.parse().map_err(|e| format!("kv spec zipf={v}: {e}"))?,
            other => {
                return Err(format!(
                    "kv spec: unknown key `{other}` (known: replicas, clients, ops, \
                     gap, keys, writes, zipf)"
                ))
            }
        }
    }
    if kv.replicas == 0 || kv.clients == 0 || kv.ops_per_client == 0 || kv.keys == 0 {
        return Err("kv spec: replicas, clients, ops and keys must all be >= 1".into());
    }
    if kv.write_per_mille > 1000 {
        return Err("kv spec: writes is per mille (0..=1000)".into());
    }
    Ok(kv)
}

fn kv_names(kv: &KvOpts) -> BTreeMap<ProcessId, String> {
    let mut names = BTreeMap::new();
    for j in 0..kv.clients {
        names.insert(ProcessId(j), format!("client{j}"));
    }
    names.insert(replicated_kv::sequencer(kv), "sequencer".to_string());
    for r in 0..kv.replicas {
        names.insert(replicated_kv::replica(kv, r), format!("R{r}"));
    }
    names
}

fn kv_verdict(label: &str, kv: &KvOpts, verdict: Result<KvSummary, String>) -> ExitCode {
    match verdict {
        Ok(s) => {
            println!(
                "SMR agreement: {} replicas each applied {} commands \
                 ({} committed reads), stores identical ✓ {label}",
                kv.replicas, s.applied, s.gets
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("SMR DIVERGENCE (engine bug!): {e}");
            ExitCode::from(2)
        }
    }
}

/// The `kv:` builtin on the real-thread runtime — same transport
/// plumbing as the `.csp` path (in-proc, chaos, sharded executor, or the
/// cross-process socket hub), but the pass/fail criterion is the SMR
/// agreement oracle instead of a log differential.
fn run_kv_rt(kv: &KvOpts, names: &BTreeMap<ProcessId, String>, opts: &Options) -> ExitCode {
    let (r, workers_ok) = match launch_rt(opts, names, |cfg| rt_kv_world(kv, cfg)) {
        Ok(ran) => ran,
        Err(code) => return code,
    };
    summarize_rt(
        if opts.pessimistic {
            "rt pessimistic"
        } else {
            "rt optimistic "
        },
        names,
        &r,
    );
    if r.timed_out || !r.panicked.is_empty() || !workers_ok {
        return ExitCode::FAILURE;
    }
    let rate = kv.total_ops() as f64 / r.wall.as_secs_f64().max(1e-9);
    kv_verdict(
        &format!("[{rate:.0} committed ops/s wall]"),
        kv,
        check_rt_agreement(kv, &r),
    )
}

/// Entry point for the `kv:` builtin world (both engines).
fn run_kv(opts: &Options) -> ExitCode {
    // The kv world checks its replication safety property on every run,
    // and its multi-client committed order is legal nondeterminism — the
    // `.csp` differential flags would check the wrong thing.
    if opts.compare || opts.explore {
        eprintln!(
            "error: the kv: builtin carries its own cross-replica agreement oracle, \
             checked on every run; --compare/--explore drive the .csp Theorem-1 \
             pipeline and its committed-log differential, which is not \
             schedule-independent for a multi-client kv world. Drop the flag \
             (the engine differentials live in tests/replicated_kv.rs)"
        );
        return ExitCode::FAILURE;
    }
    if opts.show_transform || opts.inject_lifo || opts.inject_phantom {
        eprintln!(
            "error: --show-transform/--inject-lifo/--inject-phantom apply to .csp \
             programs, not the kv: builtin world"
        );
        return ExitCode::FAILURE;
    }
    let kv = match parse_kv_spec(&opts.file, opts) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let names = kv_names(&kv);
    if opts.rt {
        return run_kv_rt(&kv, &names, opts);
    }
    if opts.chaos.is_some() {
        eprintln!("error: --chaos requires --rt (the simulator injects faults via --jitter)");
        return ExitCode::FAILURE;
    }
    if opts.workers.is_some() {
        eprintln!("error: --workers requires --rt (the simulator has no executor pool)");
        return ExitCode::FAILURE;
    }

    let r = run_replicated_kv(kv.clone());
    if opts.timeline {
        let procs: Vec<ProcessId> = (0..kv.clients + 1 + kv.replicas).map(ProcessId).collect();
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
    let rate = kv.total_ops() as f64 / (r.completion.max(1) as f64 / 1000.0);
    kv_verdict(
        &format!("[{rate:.1} committed ops per kilotick]"),
        &kv,
        check_sim_agreement(&kv, &r),
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };
    if opts.file.starts_with("kv:") {
        return run_kv(&opts);
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
    if opts.chaos.is_some() {
        eprintln!("error: --chaos requires --rt (the simulator injects faults via --jitter)");
        return ExitCode::FAILURE;
    }
    if opts.workers.is_some() {
        eprintln!("error: --workers requires --rt (the simulator has no executor pool)");
        return ExitCode::FAILURE;
    }

    let latency = if opts.jitter > 0 {
        LatencyModel::jitter(opts.latency, opts.jitter, opts.seed)
    } else {
        LatencyModel::fixed(opts.latency)
    };
    let make_cfg = |model: &LatencyModel, optimism: bool| SimConfig {
        core: opts.core_config(!optimism),
        latency: model.clone(),
        fork_timeout: opts.timeout,
        fault: match (optimism, opts.inject_phantom, opts.inject_lifo) {
            (true, true, _) => FaultInjection::PhantomLog,
            (true, false, true) => FaultInjection::LifoDelivery,
            _ => FaultInjection::None,
        },
        ..SimConfig::default()
    };
    let cfg = |optimism: bool| make_cfg(&latency, optimism);

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
            c.delivery_schedule = Some(sched);
            sys.run(c)
        });
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
                if opts.forensics {
                    let first = first_divergence(&replay, &replay_result, &opt)
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
                            let p2 = sys.run(make_cfg(&scripted, false));
                            let o2 = sys.run(make_cfg(&scripted, true));
                            !check_theorem1(&p2, &o2, |sched| {
                                let mut c = make_cfg(&scripted, false);
                                c.delivery_schedule = Some(sched);
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
                ExitCode::from(2)
            }
        }
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
