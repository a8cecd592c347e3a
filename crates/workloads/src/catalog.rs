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
//! its ordinary flags.

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
use opcsp_rt::{
    compare_logs, LogDiff, RtConfig, RtResult, RtTransport, RtWorld, SockAddr, SockRole,
};
use opcsp_sim::{Behavior, LatencyModel, Observable, SimBuilder, SimConfig, SimResult, VTime};
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

/// A run that ended on its own: no time-out, no panic, no straggler.
pub fn clean(r: &RtResult) -> Result<(), String> {
    if r.timed_out {
        Err(format!("timed out ({:?})", r.stats))
    } else if !r.panicked.is_empty() {
        Err(format!("panics {:?}", r.panics))
    } else if !r.stragglers.is_empty() {
        Err(format!("stragglers {:?}", r.stragglers))
    } else {
        Ok(())
    }
}

/// A finished run on either engine, as an oracle reads it.
pub trait Outcome {
    /// `Err` unless the run ended on its own with every guess resolved.
    fn ended(&self) -> Result<(), String>;
    fn logs(&self) -> &BTreeMap<ProcessId, Vec<Observable>>;
    /// The released externals, in release order.
    fn external(&self) -> Vec<(ProcessId, Value)>;
}

impl Outcome for SimResult {
    fn ended(&self) -> Result<(), String> {
        if !self.unresolved.is_empty() {
            return Err(format!("unresolved guesses: {:?}", self.unresolved));
        }
        if self.truncated {
            return Err("run truncated (max_events)".into());
        }
        Ok(())
    }
    fn logs(&self) -> &BTreeMap<ProcessId, Vec<Observable>> {
        &self.logs
    }
    fn external(&self) -> Vec<(ProcessId, Value)> {
        self.external
            .iter()
            .map(|(_, p, v)| (*p, v.clone()))
            .collect()
    }
}

impl Outcome for RtResult {
    fn ended(&self) -> Result<(), String> {
        clean(self)
    }
    fn logs(&self) -> &BTreeMap<ProcessId, Vec<Observable>> {
        &self.logs
    }
    fn external(&self) -> Vec<(ProcessId, Value)> {
        self.external.clone()
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

/// A catalogue world, named and sized in the grammar `name[:key=value,…]`.
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
        }
    }

    /// Run the world on the simulator under its own config.
    pub fn simulate(&self) -> SimResult {
        run(self, &self.sim_config())
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
        }
    }

    /// Every client's pid and the returns its script commits; a client
    /// stops at the first rejected call. Empty for `kv`.
    fn calls(&self) -> Vec<(ProcessId, u32)> {
        let upto = |n: u32, fails: &BTreeSet<u32>| fails.range(..n).next().map_or(n, |f| f + 1);
        match self {
            Spec::Stream(o) => vec![(CLIENT, upto(o.n, &o.fail_lines))],
            Spec::Chain(o) => vec![(ProcessId(0), upto(o.n, &o.fail_items))],
            Spec::Tally(o) => vec![(CLIENT, o.n)],
            Spec::Pairs(o) => (0..o.pairs).map(|k| (ProcessId(2 * k), o.n)).collect(),
            Spec::FanIn(o) => (0..o.producers).map(|p| (ProcessId(p), o.n)).collect(),
            Spec::Kv(_) => Vec::new(),
        }
    }

    /// The calls the world commits in all (the numerator of a rate).
    pub fn ops(&self) -> u64 {
        match self {
            Spec::Kv(o) => u64::from(o.total_ops()),
            _ => self.calls().iter().map(|(_, n)| u64::from(*n)).sum(),
        }
    }

    /// The spec's oracle on `run`, against `twin`, the pessimistic run of
    /// the same world; both must have ended on their own ([`Outcome::ended`]).
    /// For `kv`: replica agreement and the sequencer-order replay
    /// (`replicated_kv::check_replay`) on both, and the same command, read
    /// and written-key counts. For the others: every client
    /// committed the calls its script makes, and the committed record is
    /// merge-equivalent to the twin's (Theorem 1). A one-line summary, or
    /// what failed.
    pub fn check<R: Outcome>(&self, run: &R, twin: &R) -> Result<String, String> {
        run.ended()?;
        twin.ended().map_err(|e| format!("pessimistic twin: {e}"))?;
        if let Spec::Kv(o) = self {
            let agree = |r: &R| {
                let streams = replica_streams(o, r.external());
                let summary = check_replica_agreement(o, &streams)?;
                check_replay(o, r.logs(), &streams)?;
                Ok::<_, String>(summary)
            };
            let s = agree(run)?;
            let t = agree(twin).map_err(|e| format!("pessimistic twin: {e}"))?;
            if (s.applied, s.gets) != (t.applied, t.gets) || !s.store.keys().eq(t.store.keys()) {
                return Err("command, read or written-key count differs from the twin's".into());
            }
            return Ok(format!(
                "SMR agreement: {} replicas each applied {} commands ({} committed reads), \
                 stores identical and equal to the sequencer-order replay",
                o.replicas, s.applied, s.gets
            ));
        }
        let calls = self.calls();
        for (pid, want) in &calls {
            let got = run.logs().get(pid).map_or(0, |log| {
                log.iter()
                    .filter(|o| matches!(o, Observable::Received { .. }))
                    .count()
            });
            if got != *want as usize {
                return Err(format!("{pid} committed {got} of {want} calls"));
            }
        }
        let diff = compare_logs(twin.logs(), &twin.external(), run.logs(), &run.external());
        let how = match diff {
            LogDiff::Identical => "identical to",
            LogDiff::MergeOnly => "merge-equivalent to",
            LogDiff::Diverged(e) => return Err(format!("diverged from the pessimistic twin: {e}")),
        };
        Ok(format!(
            "call log: {} client(s) committed every call, {how} the pessimistic twin",
            calls.len()
        ))
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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
