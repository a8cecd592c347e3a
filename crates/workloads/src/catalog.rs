//! One description of a world (DESIGN.md §3a).
//!
//! Every world is written once, as a [`Roster`]: the ordered
//! `(behaviour, is_client)` list that fixes its pid layout. [`place`] puts a
//! roster on any [`Host`] — a `SimBuilder`, an `RtWorld` under either
//! executor and transport, or a [`Split`] (a hub plus N worker runtimes on
//! threads of this process) — so the simulator, the runtime, the socket and
//! the pessimistic twin all run the same world.
//!
//! A [`Spec`] names one of six worlds in one grammar, `name[:key=value,…]`:
//! `stream`, `chain`, `pairs`, `fan_in`, `tally` and `kv`. It parses,
//! prints and bounds itself, and carries its oracle ([`Spec::check`]). The
//! keys are the world's shape; engine knobs (latency, jitter, seed, fork
//! time-out, speculation) stay in the opts, and `opcsp-run` sets them from
//! its ordinary flags. A compiled `.csp` program is a spec too
//! ([`Spec::Program`], built by `opcsp_lang::System::spec`), outside the
//! grammar: the transformed program is run and checked as every
//! hand-written world is.

use crate::chain::{ChainOpts, OptimisticForwarder};
use crate::fan_in::{consumer, FanInOpts};
use crate::replicated_kv::{
    check_replay, check_replica_agreement, kv_config, replica_pids, replica_streams, sequencer,
    zipf_cdf, KvClient, KvOpts, Replica, Sequencer,
};
use crate::servers::Server;
use crate::streaming::{
    line_fails, PairsOpts, PutLineClient, PutLineClientFas, StreamingOpts, TallyClient, TallyOpts,
    CLIENT, SERVER,
};
use opcsp_core::{CoreConfig, ProcessId, Value};
use opcsp_rt::{RtConfig, RtResult, RtTransport, RtWorld, SockAddr, SockRole};
use opcsp_sim::{
    check_schedule_replay, Behavior, EquivReport, LatencyModel, Observable, Outcome, SimBuilder,
    SimConfig, SimResult, VTime,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A world: its behaviours in pid order, each marked a client (a process
/// whose completion ends an rt run) or not. An entry is an `Arc`, so a
/// 100k-process world can share one template.
pub type Roster = Vec<(Arc<dyn Behavior>, bool)>;

/// Anything a roster is placed on, one process at a time, in pid order.
pub trait Host {
    fn add(&mut self, behavior: Arc<dyn Behavior>, client: bool);
}

impl Host for SimBuilder {
    fn add(&mut self, behavior: Arc<dyn Behavior>, _client: bool) {
        self.add_shared(behavior);
    }
}

impl Host for RtWorld {
    fn add(&mut self, behavior: Arc<dyn Behavior>, client: bool) {
        self.add_process_arc(behavior, client);
    }
}

impl Host for Split {
    fn add(&mut self, behavior: Arc<dyn Behavior>, client: bool) {
        for world in &mut self.worlds {
            world.add_process_arc(behavior.clone(), client);
        }
    }
}

/// Put `roster` on `host`, in pid order — the one placement every world
/// and every host goes through.
pub fn place<H: Host>(roster: &[(Arc<dyn Behavior>, bool)], mut host: H) -> H {
    for (behavior, client) in roster {
        host.add(behavior.clone(), *client);
    }
    host
}

/// Run `spec`'s world on the simulator under `cfg` (the schedule
/// explorer's runner: `|c| catalog::run(&world, c)`).
pub fn run(spec: &Spec, cfg: &SimConfig) -> SimResult {
    spec.on(SimBuilder::new(cfg.clone())).build().run()
}

/// The simulator config for a world's engine knobs — fixed latency, or
/// seeded jitter when `jitter > 0`; `None` keeps the default fork time-out.
pub fn sim_config(
    core: &CoreConfig,
    latency: u64,
    jitter: u64,
    seed: u64,
    fork_timeout: Option<VTime>,
) -> SimConfig {
    let base = SimConfig::default();
    SimConfig {
        core: core.clone(),
        latency: if jitter > 0 {
            LatencyModel::jitter(latency, jitter, seed)
        } else {
            LatencyModel::fixed(latency)
        },
        fork_timeout: fork_timeout.unwrap_or(base.fork_timeout),
        ..base
    }
}

/// A world split over a socket: a hub and N worker runtimes, each on a
/// thread of this process, meeting at one address. Every runtime holds the
/// whole roster; the socket layer hosts each pid on one worker.
pub struct Split {
    worlds: Vec<RtWorld>,
}

impl Split {
    pub fn new(cfg: &RtConfig, addr: SockAddr, workers: usize) -> Split {
        let world = |role| {
            let transport = RtTransport::Socket {
                addr: addr.clone(),
                role,
            };
            RtWorld::new(RtConfig {
                transport,
                ..cfg.clone()
            })
        };
        let hub = world(SockRole::Parent { workers });
        let worlds = std::iter::once(hub)
            .chain((0..workers).map(|index| world(SockRole::Worker { index, workers })))
            .collect();
        Split { worlds }
    }

    /// Run the hub, then every worker runtime, each on a thread of its own:
    /// the hub's (authoritative) result and the first worker failure. (The
    /// hub clears a stale UDS file before it binds and its own after.)
    pub fn run(self) -> (RtResult, Option<String>) {
        std::thread::scope(|s| {
            let mut runs = self.worlds.into_iter().map(|w| s.spawn(move || w.run()));
            let hub = runs.next().expect("a split has a hub");
            let workers: Vec<_> = runs.collect();
            let mut failure = None;
            for (i, w) in workers.into_iter().enumerate() {
                match w.join() {
                    Ok(r) if !r.timed_out => {}
                    Ok(_) => failure = Some(format!("worker runtime {i} timed out")),
                    Err(_) => failure = Some(format!("worker runtime {i} panicked")),
                }
            }
            let hub = hub
                .join()
                .expect("the hub reports failures, it does not panic");
            (hub, failure)
        })
    }
}

/// The worlds' names, as the grammar spells them.
pub const WORLDS: [&str; 6] = ["stream", "chain", "pairs", "fan_in", "tally", "kv"];
/// The most processes a spec may describe.
pub const MAX_PROCESSES: u64 = 100_000;
/// The largest `kv` key space (one Zipf weight per key is built up front).
pub const MAX_KEYS: u32 = 1 << 20;
/// The most `kv` client→replica links (each client holds every replica's
/// pid, built up front).
const MAX_LINKS: u64 = 1 << 20;
/// The longest a `kv` client may spend in its gaps, in ticks, so that
/// every virtual time of the run fits a `u64` with room to spare.
const MAX_GAP_TICKS: u64 = 1 << 48;
/// The pairs world's one-way latency on the simulator, in ticks (on rt the
/// latency is `RtConfig`'s).
const PAIRS_LATENCY: u64 = 20;

/// A compiled `.csp` program as a world: its roster, its processes' names,
/// a label (the source path) and the protocol config of its default run.
/// Two programs are the same world when their labels are.
#[derive(Clone)]
pub struct Program {
    pub roster: Roster,
    pub names: BTreeMap<ProcessId, String>,
    pub label: String,
    pub core: CoreConfig,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.label == other.label
    }
}

/// Why [`Spec::verdict`] refused a run: what failed and, when Theorem 1
/// failed, the schedule replay that showed it (its report against the run,
/// and the replay run itself).
#[derive(Debug)]
pub struct Refusal {
    pub reason: String,
    pub divergence: Option<(EquivReport, Box<SimResult>)>,
}

impl From<String> for Refusal {
    fn from(reason: String) -> Refusal {
        Refusal {
            reason,
            divergence: None,
        }
    }
}

/// A catalogue world, named and sized in the grammar `name[:key=value,…]`,
/// or a compiled program.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// `stream:n=N` — one PutLine client streaming N calls to a server.
    Stream(StreamingOpts),
    /// `chain:depth=D,n=N` — a client, D optimistic forwarders, a terminal.
    Chain(ChainOpts),
    /// `pairs:pairs=P,n=N` — P independent client→server pairs.
    Pairs(PairsOpts),
    /// `fan_in:producers=P,n=N` — P producers into one consumer.
    FanIn(FanInOpts),
    /// `tally:n=N,faults=F` — N calls, F per mille rejected, none fatal.
    Tally(TallyOpts),
    /// `kv:replicas=R,clients=C,ops=N,gap=G,keys=K,writes=W,zipf=S` — the
    /// replicated-KV flagship.
    Kv(KvOpts),
    /// A compiled `.csp` program (`opcsp_lang::System::spec`); not in the
    /// grammar, and printed as its label. Its twin is the pessimistic
    /// policy; it has no call script, so its oracle is Theorem 1 alone.
    Program(Program),
}

/// One key of a spec, with the bound it is held to.
enum Field<'a> {
    /// At least 1.
    Count(&'a mut u32),
    /// 0 to 1000.
    PerMille(&'a mut u32),
    Ticks(&'a mut u64),
    /// Finite and at least 0.
    Exponent(&'a mut f64),
}

fn set<T: FromStr>(field: &mut T, value: &str) -> Result<(), String>
where
    T::Err: fmt::Display,
{
    *field = value.parse().map_err(|e| format!("{e}"))?;
    Ok(())
}

impl Spec {
    /// Parse `name[:key=value,…]`; every key left out keeps its default.
    /// Bounded: every count is ≥ 1, a world has at most
    /// [`MAX_PROCESSES`] processes, and its calls fit in a `u32`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let (name, body) = text.split_once(':').unwrap_or((text, ""));
        let mut spec = match name {
            "stream" => Spec::Stream(StreamingOpts::default()),
            "chain" => Spec::Chain(ChainOpts::default()),
            "pairs" => Spec::Pairs(PairsOpts::default()),
            "fan_in" => Spec::FanIn(FanInOpts::default()),
            "tally" => Spec::Tally(TallyOpts::default()),
            "kv" => Spec::Kv(KvOpts::default()),
            _ => {
                return Err(format!(
                    "unknown world `{name}` (known: {})",
                    WORLDS.join(", ")
                ))
            }
        };
        for pair in body.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("{name}: `{pair}` is not key=value"))?;
            let mut fields = spec.fields();
            let known: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
            let Some((_, field)) = fields.iter_mut().find(|(k, _)| *k == key) else {
                return Err(format!(
                    "{name}: unknown key `{key}` (known: {})",
                    known.join(", ")
                ));
            };
            match field {
                Field::Count(x) | Field::PerMille(x) => set(*x, value),
                Field::Ticks(x) => set(*x, value),
                Field::Exponent(x) => set(*x, value),
            }
            .map_err(|e| format!("{name}: {key}={value}: {e}"))?;
        }
        spec.bounded()?;
        Ok(spec)
    }

    pub fn name(&self) -> &'static str {
        match self {
            Spec::Stream(_) => "stream",
            Spec::Chain(_) => "chain",
            Spec::Pairs(_) => "pairs",
            Spec::FanIn(_) => "fan_in",
            Spec::Tally(_) => "tally",
            Spec::Kv(_) => "kv",
            Spec::Program(_) => "program",
        }
    }

    fn fields(&mut self) -> Vec<(&'static str, Field<'_>)> {
        use Field::*;
        match self {
            Spec::Stream(o) => vec![("n", Count(&mut o.n))],
            Spec::Chain(o) => vec![("depth", Count(&mut o.depth)), ("n", Count(&mut o.n))],
            Spec::Pairs(o) => vec![("pairs", Count(&mut o.pairs)), ("n", Count(&mut o.n))],
            Spec::FanIn(o) => vec![
                ("producers", Count(&mut o.producers)),
                ("n", Count(&mut o.n)),
            ],
            Spec::Tally(o) => vec![
                ("n", Count(&mut o.n)),
                ("faults", PerMille(&mut o.p_per_mille)),
            ],
            Spec::Kv(o) => vec![
                ("replicas", Count(&mut o.replicas)),
                ("clients", Count(&mut o.clients)),
                ("ops", Count(&mut o.ops_per_client)),
                ("gap", Ticks(&mut o.gap)),
                ("keys", Count(&mut o.keys)),
                ("writes", PerMille(&mut o.write_per_mille)),
                ("zipf", Exponent(&mut o.zipf_s)),
            ],
            Spec::Program(_) => Vec::new(),
        }
    }

    fn bounded(&mut self) -> Result<(), String> {
        let name = self.name();
        for (key, field) in self.fields() {
            let broken = match field {
                Field::Count(x) if *x == 0 => "must be >= 1",
                Field::PerMille(x) if *x > 1000 => "is per mille (0..=1000)",
                Field::Exponent(x) if !(x.is_finite() && *x >= 0.0) => "must be finite and >= 0",
                _ => continue,
            };
            return Err(format!("{name}: {key} {broken}"));
        }
        let w = u64::from;
        let ((processes, pkeys), (calls, ckeys)) = match self {
            Spec::Stream(o) => ((2, "n"), (w(o.n), "n")),
            Spec::Tally(o) => ((2, "n"), (w(o.n), "n")),
            Spec::Chain(o) => ((w(o.depth) + 2, "depth"), (w(o.n), "n")),
            Spec::Pairs(o) => (
                (2 * w(o.pairs), "pairs"),
                (w(o.pairs) * w(o.n), "pairs and n"),
            ),
            Spec::FanIn(o) => (
                (w(o.producers) + 1, "producers"),
                (w(o.producers) * w(o.n), "producers and n"),
            ),
            Spec::Kv(o) if o.keys > MAX_KEYS => return Err(format!("kv: keys over {MAX_KEYS}")),
            Spec::Kv(o) if w(o.clients) * w(o.replicas) > MAX_LINKS => {
                return Err(format!(
                    "kv: clients and replicas make over {MAX_LINKS} links"
                ))
            }
            Spec::Kv(o) if o.gap.saturating_mul(w(o.ops_per_client)) > MAX_GAP_TICKS => {
                return Err(format!("kv: ops and gap make over {MAX_GAP_TICKS} ticks"))
            }
            Spec::Kv(o) => (
                (w(o.clients) + 1 + w(o.replicas), "clients and replicas"),
                (w(o.clients) * w(o.ops_per_client), "clients and ops"),
            ),
            Spec::Program(_) => return Ok(()),
        };
        if processes > MAX_PROCESSES {
            return Err(format!(
                "{name}: {pkeys} make {processes} processes (at most {MAX_PROCESSES})"
            ));
        }
        if calls > w(u32::MAX) {
            return Err(format!(
                "{name}: {ckeys} make {calls} calls (at most {})",
                u32::MAX
            ));
        }
        Ok(())
    }

    fn core_mut(&mut self) -> &mut CoreConfig {
        match self {
            Spec::Stream(o) => &mut o.core,
            Spec::Chain(o) => &mut o.core,
            Spec::Pairs(o) => &mut o.core,
            Spec::FanIn(o) => &mut o.core,
            Spec::Tally(o) => &mut o.core,
            Spec::Kv(o) => &mut o.core,
            Spec::Program(p) => &mut p.core,
        }
    }

    /// The pessimistic twin: the same world under
    /// `CoreConfig::pessimistic()`.
    pub fn twin(&self) -> Spec {
        let mut twin = self.clone();
        *twin.core_mut() = CoreConfig::pessimistic();
        twin
    }

    /// The simulator config the opts' engine knobs describe.
    pub fn sim_config(&self) -> SimConfig {
        match self {
            Spec::Stream(o) => sim_config(&o.core, o.latency, 0, 0, Some(o.fork_timeout)),
            Spec::Chain(o) => sim_config(&o.core, o.latency, 0, 0, None),
            Spec::Pairs(o) => sim_config(&o.core, PAIRS_LATENCY, 0, 0, None),
            Spec::FanIn(o) => {
                sim_config(&o.core, o.latency, o.jitter, o.seed, Some(o.fork_timeout))
            }
            Spec::Tally(o) => sim_config(&o.core, o.latency, 0, 0, None),
            Spec::Kv(o) => kv_config(o),
            Spec::Program(p) => SimConfig {
                core: p.core.clone(),
                ..SimConfig::default()
            },
        }
    }

    /// Run the world on the simulator under its own config.
    pub fn simulate(&self) -> SimResult {
        run(self, &self.sim_config())
    }

    /// [`Spec::simulate`] with the run's trace and provenance kept
    /// (`SimConfig::record`), for a reader of either.
    pub fn simulate_recorded(&self) -> SimResult {
        let cfg = SimConfig {
            record: true,
            ..self.sim_config()
        };
        run(self, &cfg)
    }

    /// Place the world on `host`.
    pub fn on<H: Host>(&self, host: H) -> H {
        place(&self.roster(), host)
    }

    /// The world, written once.
    pub fn roster(&self) -> Roster {
        fn rejecting(name: &str, compute: u64, fails: &BTreeSet<u32>) -> Arc<dyn Behavior> {
            let fails = fails.clone();
            Arc::new(Server::new(name, compute).with_reply(move |v| {
                let i = v.as_int().unwrap_or(-1);
                Value::Bool(i >= 0 && !fails.contains(&(i as u32)))
            }))
        }
        match self {
            Spec::Stream(o) => {
                let client: Arc<dyn Behavior> = if o.fork_after_send {
                    Arc::new(PutLineClientFas {
                        n: o.n,
                        server: SERVER,
                    })
                } else {
                    Arc::new(PutLineClient::new(o.n))
                };
                let server = rejecting("WindowManager", o.server_compute, &o.fail_lines);
                vec![(client, true), (server, false)]
            }
            Spec::Chain(o) => {
                let mut r: Roster = vec![(Arc::new(PutLineClient::to(o.n, ProcessId(1))), true)];
                for hop in 1..=o.depth {
                    let forwarder = OptimisticForwarder {
                        name: format!("Hop{hop}"),
                        downstream: ProcessId(hop + 1),
                        compute: 1,
                    };
                    r.push((Arc::new(forwarder), false));
                }
                r.push((rejecting("Terminal", 1, &o.fail_items), false));
                r
            }
            Spec::Pairs(o) => {
                let server: Arc<dyn Behavior> = Arc::new(Server::new("S", 0));
                let client = |k| Arc::new(PutLineClient::to(o.n, ProcessId(2 * k + 1)));
                (0..o.pairs)
                    .flat_map(|k| {
                        [
                            (client(k) as Arc<dyn Behavior>, true),
                            (server.clone(), false),
                        ]
                    })
                    .collect()
            }
            Spec::FanIn(o) => {
                let producer: Arc<dyn Behavior> = Arc::new(PutLineClient::to(o.n, consumer(o)));
                let mut r = vec![(producer, true); o.producers as usize];
                r.push((Arc::new(Server::new("Board", o.server_compute)), false));
                r
            }
            Spec::Tally(o) => {
                let client = TallyClient {
                    n: o.n,
                    server: SERVER,
                };
                let (p, seed) = (o.p_per_mille, o.seed);
                let server = Server::new("WindowManager", 1).with_reply(move |line| {
                    let i = line.as_int().unwrap_or(-1) as u32;
                    Value::Bool(!line_fails(seed, i, p))
                });
                vec![(Arc::new(client), true), (Arc::new(server), false)]
            }
            Spec::Kv(o) => {
                let cdf = zipf_cdf(o.keys, o.zipf_s);
                let mut r: Roster = (0..o.clients)
                    .map(|index| {
                        let client = KvClient {
                            index,
                            clients: o.clients,
                            n: o.ops_per_client,
                            gap: o.gap,
                            seq: sequencer(o),
                            replicas: replica_pids(o),
                            seed: o.seed,
                            write_per_mille: o.write_per_mille,
                            cdf: cdf.clone(),
                        };
                        (Arc::new(client) as Arc<dyn Behavior>, true)
                    })
                    .collect();
                let total = o.total_ops();
                r.push((
                    Arc::new(Sequencer {
                        total,
                        compute: o.seq_compute,
                    }),
                    false,
                ));
                for i in 0..o.replicas {
                    let replica = Replica::new(format!("R{i}"), total, o.replica_compute);
                    r.push((Arc::new(replica), false));
                }
                r
            }
            Spec::Program(p) => p.roster.clone(),
        }
    }

    /// Each process's name, by pid: a program's own, or a catalogue
    /// process's behaviour name and pid (`WindowManager#1`).
    pub fn names(&self) -> BTreeMap<ProcessId, String> {
        if let Spec::Program(p) = self {
            return p.names.clone();
        }
        (0..)
            .zip(self.roster())
            .map(|(i, (b, _))| (ProcessId(i), format!("{}#{i}", b.name())))
            .collect()
    }

    /// Every client's pid and the returns its script commits; a client
    /// stops at the first rejected call. Empty for `kv` and a program.
    fn calls(&self) -> Vec<(ProcessId, u32)> {
        let upto = |n: u32, fails: &BTreeSet<u32>| fails.range(..n).next().map_or(n, |f| f + 1);
        match self {
            Spec::Stream(o) => vec![(CLIENT, upto(o.n, &o.fail_lines))],
            Spec::Chain(o) => vec![(ProcessId(0), upto(o.n, &o.fail_items))],
            Spec::Tally(o) => vec![(CLIENT, o.n)],
            Spec::Pairs(o) => (0..o.pairs).map(|k| (ProcessId(2 * k), o.n)).collect(),
            Spec::FanIn(o) => (0..o.producers).map(|p| (ProcessId(p), o.n)).collect(),
            Spec::Kv(_) | Spec::Program(_) => Vec::new(),
        }
    }

    /// The calls the world commits in all (the numerator of a rate); 0 for
    /// a program, which has no call script.
    pub fn ops(&self) -> u64 {
        match self {
            Spec::Kv(o) => u64::from(o.total_ops()),
            _ => self.calls().iter().map(|(_, n)| u64::from(*n)).sum(),
        }
    }

    /// The spec's oracle on `run`, a run of this world on any engine —
    /// the simulator, rt under either executor, a socket split — which must
    /// have ended on its own ([`Outcome::ended`]). Theorem 1, exactly
    /// (`Spec::replays`, below). Then for `kv`: replica agreement and the
    /// sequencer-order replay (`replicated_kv::check_replay`); for a
    /// program, nothing more; for the others: every client committed the
    /// calls its script makes. A one-line summary, or what failed.
    pub fn check(&self, run: &impl Outcome) -> Result<String, String> {
        self.verdict(run, false).map_err(|r| r.reason)
    }

    /// [`Spec::check`], handing back on a Theorem-1 failure the replay that
    /// showed it, kept recorded ([`SimConfig::record`]) when `record` is
    /// set: what a forensics reader mines.
    pub fn verdict(&self, run: &impl Outcome, record: bool) -> Result<String, Refusal> {
        run.ended()?;
        self.replays(run, record)?;
        let summary = match self {
            Spec::Kv(o) => {
                let streams = replica_streams(o, run.external());
                let s = check_replica_agreement(o, &streams)?;
                check_replay(o, run.logs(), &streams)?;
                format!(
                    "SMR agreement: {} replicas each applied {} commands ({} committed reads), \
                     stores identical and equal to the sequencer-order replay",
                    o.replicas, s.applied, s.gets
                )
            }
            Spec::Program(p) => format!(
                "Theorem 1: {} process(es), every committed log and released output",
                p.roster.len()
            ),
            _ => {
                let calls = self.calls();
                for (pid, want) in &calls {
                    let got = run.logs().get(pid).map_or(0, |log| {
                        log.iter()
                            .filter(|o| matches!(o, Observable::Received { .. }))
                            .count()
                    });
                    if got != *want as usize {
                        return Err(format!("{pid} committed {got} of {want} calls").into());
                    }
                }
                format!("call log: {} client(s) committed every call", calls.len())
            }
        };
        Ok(format!(
            "{summary}; the committed schedule replays exactly on the pessimistic simulator"
        ))
    }

    /// Theorem 1 on `run` ([`check_schedule_replay`]): its committed receive
    /// schedule, forced through the pessimistic twin on the simulator
    /// ([`SimConfig::forced_order`]), reproduces every process's log and
    /// every process's released externals.
    fn replays(&self, run: &impl Outcome, record: bool) -> Result<(), Refusal> {
        let twin = self.twin();
        let (report, replay) = check_schedule_replay(run, |sched| {
            let cfg = SimConfig {
                forced_order: Some(sched),
                record,
                ..twin.sim_config()
            };
            self::run(&twin, &cfg)
        });
        replay
            .ended()
            .map_err(|e| format!("schedule replay: {e}"))?;
        match report.first() {
            None => Ok(()),
            Some(m) => Err(Refusal {
                reason: format!(
                    "no sequential execution reproduces the committed run \
                     ({} mismatch(es)); first: {m}",
                    report.mismatches.len()
                ),
                divergence: Some((report, Box::new(replay))),
            }),
        }
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Spec::Program(p) = self {
            return f.write_str(&p.label);
        }
        f.write_str(self.name())?;
        for (i, (key, field)) in self.clone().fields().into_iter().enumerate() {
            let sep = if i == 0 { ':' } else { ',' };
            match field {
                Field::Count(x) | Field::PerMille(x) => write!(f, "{sep}{key}={x}")?,
                Field::Ticks(x) => write!(f, "{sep}{key}={x}")?,
                Field::Exponent(x) => write!(f, "{sep}{key}={x}")?,
            }
        }
        Ok(())
    }
}
