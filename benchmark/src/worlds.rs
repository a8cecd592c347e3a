//! The six workloads: what each world is, how one rep of it runs, and the
//! oracle every rep is held to. All worlds use the default `CoreConfig`
//! (`Static{3}`, `GuardCodec::Full`, broadcast control) — what a user
//! gets — and differ from their pessimistic baseline only in
//! `SpeculationPolicy`.

use crate::timed::{Recorder, Timed};
use opcsp_core::{CoreConfig, ProcessId, ProtoStats, Telemetry, Value};
use opcsp_rt::{
    merge_equiv, Executor, RtConfig, RtResult, RtTransport, RtWorld, SockAddr, SockRole,
};
use opcsp_sim::{splitmix64, Behavior, LatencyModel, Observable, SimBuilder, SimConfig, SimResult};
use opcsp_workloads::replicated_kv::{
    check_rt_agreement, check_sim_agreement, kv_config, replica_pids, sequencer, zipf_cdf,
    KvClient, KvOpts, KvSummary, Replica, Sequencer,
};
use opcsp_workloads::servers::Server;
use opcsp_workloads::streaming::{PutLineClient, TallyClient, CLIENT, SERVER};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which engine hosts the world; decides what `speedup_vs_pessimistic`
/// compares (virtual ticks on sim, wall on rt) and which counters repeat
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Sim,
    Rt,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Optimistic,
    Pessimistic,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `replicated_kv` on the simulator; `n` ops per client.
    KvSim,
    /// `TallyClient` → rejecting server on the simulator; `n` calls.
    TallySim,
    /// PutLine client → server on rt, threaded, 1 ms latency; `n` calls.
    StreamRt,
    /// `replicated_kv` on rt, one sharded worker, zero latency; `n` ops
    /// per client.
    KvRt,
    /// `n` independent client→server pairs on rt, two sharded workers.
    PairsRt,
    /// `StreamRt`'s world over a parent hub + 2 worker runtimes on a UDS.
    StreamSock,
}

/// One benchmark workload at a fixed size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    /// The one number that scales the world (see [`Kind`]).
    n: u32,
}

const KV_CLIENTS: u32 = 4;
const KV_REPLICAS: u32 = 3;
const KV_KEYS: u32 = 1024;
const TALLY_FAULTS_PER_MILLE: u32 = 20;
const PAIR_CALLS: u32 = 4;
const STREAM_LATENCY: Duration = Duration::from_millis(1);
const SOCK_WORKERS: usize = 2;

/// Every workload at its full size, or at roughly 1/20 of it (`smoke`).
pub fn workloads(smoke: bool) -> Vec<Workload> {
    [
        ("kv_sim", Kind::KvSim, 150, 8),
        ("tally_sim_faults", Kind::TallySim, 600, 50),
        ("stream_rt", Kind::StreamRt, 500, 25),
        ("kv_rt", Kind::KvRt, 40, 4),
        ("pairs_rt", Kind::PairsRt, 128, 8),
        ("stream_sock", Kind::StreamSock, 500, 25),
    ]
    .into_iter()
    .map(|(name, kind, full, small)| Workload {
        name,
        kind,
        n: if smoke { small } else { full },
    })
    .collect()
}

/// What one rep left behind for the cross-policy check.
enum Evidence {
    /// KV worlds: the committed store and read count.
    Kv(KvSummary),
    /// Call-streaming worlds: every client's committed log.
    ClientLogs(BTreeMap<ProcessId, Vec<Observable>>),
}

/// One oracle-checked run of a world.
pub struct Rep {
    /// Wall time of the engine's `run()` alone (world construction and the
    /// oracle are outside it).
    pub wall_s: f64,
    /// Virtual completion time (sim only).
    pub vt_ticks: Option<u64>,
    pub proto: ProtoStats,
    pub retransmits: u64,
    pub standalone_acks: u64,
    pub telemetry: Telemetry,
    evidence: Option<Evidence>,
    /// Why the rep's ops do not count as committed, if they do not.
    pub failure: Option<String>,
}

/// A constructed world, ready for its one `run()`.
pub enum Built {
    Sim(Box<opcsp_sim::World>),
    Rt(RtWorld),
    /// Parent world plus one world per worker runtime, meeting at `path`.
    Sock {
        parent: RtWorld,
        workers: Vec<RtWorld>,
        path: String,
    },
}

/// A finished, not yet checked run.
pub struct Ran {
    wall_s: f64,
    result: EngineResult,
    worker_failure: Option<String>,
}

enum EngineResult {
    Sim(SimResult),
    Rt(RtResult),
}

impl Workload {
    pub fn engine(&self) -> Engine {
        match self.kind {
            Kind::KvSim | Kind::TallySim => Engine::Sim,
            Kind::StreamRt | Kind::KvRt | Kind::PairsRt | Kind::StreamSock => Engine::Rt,
        }
    }

    /// The same world at a quarter of the size: a set-up's warm-up run.
    /// Large enough that the run's fixed cost — a few milliseconds made of
    /// 1 ms polls, which fall into modes a millisecond apart — is a small
    /// part of it.
    pub fn warmup(&self) -> Workload {
        Workload {
            n: (self.n / 4).max(1),
            ..*self
        }
    }

    /// Operations one rep attempts.
    pub fn ops(&self) -> u64 {
        let per_n = match self.kind {
            Kind::KvSim | Kind::KvRt => KV_CLIENTS,
            Kind::TallySim | Kind::StreamRt | Kind::StreamSock => 1,
            Kind::PairsRt => PAIR_CALLS,
        };
        (self.n * per_n) as u64
    }

    /// The stated size, for `BENCHMARK.json`'s `why` and the tables.
    pub fn size(&self) -> String {
        let n = self.n;
        match self.kind {
            Kind::KvSim => format!(
                "{KV_CLIENTS}x{n} ops, {KV_REPLICAS} replicas, {KV_KEYS} keys, Zipf 0.99, 50% writes, latency 50"
            ),
            Kind::TallySim => format!(
                "{n} calls, {}% rejected, latency 50",
                TALLY_FAULTS_PER_MILLE / 10
            ),
            Kind::StreamRt => format!("{n} PutLine calls, 1 ms latency, threaded"),
            Kind::StreamSock => format!(
                "{n} PutLine calls, 1 ms latency, hub + {SOCK_WORKERS} worker runtimes on a UDS"
            ),
            Kind::KvRt => format!(
                "{KV_CLIENTS}x{n} ops, {KV_REPLICAS} replicas, {KV_KEYS} keys, latency 0, 1 sharded worker"
            ),
            Kind::PairsRt => {
                format!("{n} pairs x {PAIR_CALLS} calls, latency 0, 2 sharded workers")
            }
        }
    }

    fn kv_opts(&self, seed: u64, policy: Policy) -> KvOpts {
        KvOpts {
            replicas: KV_REPLICAS,
            clients: KV_CLIENTS,
            ops_per_client: self.n,
            keys: KV_KEYS,
            seed,
            core: core_config(policy),
            ..KvOpts::default()
        }
    }

    fn rt_config(&self, policy: Policy, telemetry: bool, transport: RtTransport) -> RtConfig {
        let (latency, executor) = match self.kind {
            Kind::KvRt => (Duration::ZERO, Executor::Sharded { workers: 1 }),
            Kind::PairsRt => (Duration::ZERO, Executor::Sharded { workers: 2 }),
            _ => (STREAM_LATENCY, Executor::Threaded),
        };
        RtConfig {
            core: core_config(policy),
            latency,
            executor,
            // Deep pipelines keep early guesses open for most of a rep; a
            // fork timeout would turn a slow rep into an abort storm.
            fork_timeout: Duration::from_secs(30),
            run_timeout: Duration::from_secs(60),
            telemetry,
            transport,
            ..RtConfig::default()
        }
    }

    /// Generate the inputs from `seed` and construct the world. With a
    /// recorder, every registered behaviour is wrapped in [`Timed`].
    pub fn build(
        &self,
        seed: u64,
        policy: Policy,
        rec: Option<&Arc<Recorder>>,
        telemetry: bool,
        sock_path: &str,
    ) -> Built {
        let reg = |b: Arc<dyn Behavior>| match rec {
            Some(rec) => Timed::wrap(b, rec),
            None => b,
        };
        let rt_world =
            |transport: RtTransport| RtWorld::new(self.rt_config(policy, telemetry, transport));
        let stream_world = |transport: RtTransport| {
            let mut w = rt_world(transport);
            w.add_process_arc(reg(Arc::new(PutLineClient::new(self.n))), true);
            w.add_process_arc(reg(Arc::new(Server::new("WindowManager", 0))), false);
            w
        };
        match self.kind {
            Kind::KvSim => {
                let opts = self.kv_opts(seed, policy);
                let mut b = SimBuilder::new(kv_config(&opts));
                for behavior in kv_behaviors(&opts) {
                    b.add_shared(reg(behavior));
                }
                Built::Sim(Box::new(b.build()))
            }
            Kind::TallySim => {
                let mut b = SimBuilder::new(SimConfig {
                    core: core_config(policy),
                    latency: LatencyModel::fixed(50),
                    ..SimConfig::default()
                });
                b.add_shared(reg(Arc::new(TallyClient {
                    n: self.n,
                    server: SERVER,
                })));
                let rejected = fault_lines(seed, self.n);
                b.add_shared(reg(Arc::new(Server::new("WindowManager", 1).with_reply(
                    move |line| Value::Bool(!line.as_int().is_some_and(|i| rejected.contains(&i))),
                ))));
                Built::Sim(Box::new(b.build()))
            }
            Kind::KvRt => {
                let opts = self.kv_opts(seed, policy);
                let mut w = rt_world(RtTransport::InProc);
                for (i, behavior) in kv_behaviors(&opts).into_iter().enumerate() {
                    w.add_process_arc(reg(behavior), (i as u32) < opts.clients);
                }
                Built::Rt(w)
            }
            Kind::PairsRt => {
                let mut w = rt_world(RtTransport::InProc);
                let server = reg(Arc::new(Server::new("S", 0)));
                for k in 0..self.n {
                    let client = PutLineClient::to(PAIR_CALLS, ProcessId(2 * k + 1));
                    w.add_process_arc(reg(Arc::new(client)), true);
                    w.add_process_arc(server.clone(), false);
                }
                Built::Rt(w)
            }
            Kind::StreamRt => Built::Rt(stream_world(RtTransport::InProc)),
            Kind::StreamSock => {
                let addr = SockAddr::parse(&format!("uds:{sock_path}")).expect("uds path");
                let role = |role| RtTransport::Socket {
                    addr: addr.clone(),
                    role,
                };
                Built::Sock {
                    parent: stream_world(role(SockRole::Parent {
                        workers: SOCK_WORKERS,
                    })),
                    workers: (0..SOCK_WORKERS)
                        .map(|index| {
                            stream_world(role(SockRole::Worker {
                                index,
                                workers: SOCK_WORKERS,
                            }))
                        })
                        .collect(),
                    path: sock_path.to_string(),
                }
            }
        }
    }

    /// Run a constructed world once. The wall is that of the engine's
    /// `run()` alone.
    pub fn execute(&self, built: Built) -> Ran {
        let start = Instant::now();
        let (result, worker_failure) = match built {
            Built::Sim(world) => (EngineResult::Sim(world.run()), None),
            Built::Rt(world) => (EngineResult::Rt(world.run()), None),
            Built::Sock {
                parent,
                workers,
                path,
            } => {
                let (r, worker_failure) = run_over_socket(parent, workers, &path);
                (EngineResult::Rt(r), worker_failure)
            }
        };
        Ran {
            wall_s: start.elapsed().as_secs_f64(),
            result,
            worker_failure,
        }
    }

    /// Hold a finished run to the workload's oracle.
    pub fn check(&self, seed: u64, policy: Policy, ran: Ran) -> Rep {
        let (checked, rep) = match ran.result {
            EngineResult::Sim(r) => (
                self.oracle_sim(seed, policy, &r),
                Rep {
                    wall_s: ran.wall_s,
                    vt_ticks: Some(r.completion),
                    proto: r.stats().proto,
                    retransmits: 0,
                    standalone_acks: 0,
                    telemetry: r.telemetry,
                    evidence: None,
                    failure: None,
                },
            ),
            EngineResult::Rt(r) => (
                rt_ended_cleanly(&r, ran.worker_failure)
                    .and_then(|()| self.oracle_rt(seed, policy, &r)),
                Rep {
                    wall_s: ran.wall_s,
                    vt_ticks: None,
                    proto: r.stats.proto,
                    retransmits: r.stats.retransmits,
                    standalone_acks: r.stats.acks,
                    telemetry: r.telemetry,
                    evidence: None,
                    failure: None,
                },
            ),
        };
        match checked {
            Ok(evidence) => Rep {
                evidence: Some(evidence),
                ..rep
            },
            Err(failure) => Rep {
                failure: Some(failure),
                ..rep
            },
        }
    }

    fn oracle_sim(&self, seed: u64, policy: Policy, r: &SimResult) -> Result<Evidence, String> {
        if self.kind == Kind::KvSim {
            return check_sim_agreement(&self.kv_opts(seed, policy), r).map(Evidence::Kv);
        }
        if !r.unresolved.is_empty() {
            return Err(format!("unresolved guesses: {:?}", r.unresolved));
        }
        if r.truncated {
            return Err("run truncated (max_events)".into());
        }
        let log = call_log(&r.logs, CLIENT, self.n)?;
        let rejected = log
            .iter()
            .filter(|o| matches!(o, Observable::Received { payload, .. } if !payload.is_true()))
            .count();
        let expected = fault_lines(seed, self.n).len();
        if rejected != expected {
            return Err(format!(
                "client saw {rejected} rejected lines, the generated input has {expected}"
            ));
        }
        Ok(Evidence::ClientLogs(BTreeMap::from([(CLIENT, log)])))
    }

    fn oracle_rt(&self, seed: u64, policy: Policy, r: &RtResult) -> Result<Evidence, String> {
        match self.kind {
            Kind::KvRt => check_rt_agreement(&self.kv_opts(seed, policy), r).map(Evidence::Kv),
            Kind::PairsRt => (0..self.n)
                .map(|k| {
                    let pid = ProcessId(2 * k);
                    Ok((pid, call_log(&r.logs, pid, PAIR_CALLS)?))
                })
                .collect::<Result<_, String>>()
                .map(Evidence::ClientLogs),
            _ => Ok(Evidence::ClientLogs(BTreeMap::from([(
                CLIENT,
                call_log(&r.logs, CLIENT, self.n)?,
            )]))),
        }
    }
}

impl Rep {
    /// Theorem 1, as far as the committed record shows it: this rep
    /// committed what the pessimistic execution of the same inputs did.
    /// A mismatch marks this rep failed.
    pub fn check_against(&mut self, pessimistic: &Rep) {
        let verdict = match (&self.evidence, &pessimistic.evidence) {
            (Some(Evidence::Kv(a)), Some(Evidence::Kv(b))) => {
                // The sequencer's arrival order is legal CSP nondeterminism:
                // two correct runs may commit different values for a key,
                // never a different command count, read count or key set.
                if a.applied == b.applied && a.gets == b.gets && a.store.keys().eq(b.store.keys()) {
                    Ok(())
                } else {
                    Err("command, read or written-key count differs from the pessimistic run")
                }
            }
            (Some(Evidence::ClientLogs(a)), Some(Evidence::ClientLogs(b))) => {
                if a.len() == b.len()
                    && a.iter()
                        .all(|(p, log)| b.get(p).is_some_and(|base| merge_equiv(base, log)))
                {
                    Ok(())
                } else {
                    Err("client logs are not merge-equivalent to the pessimistic run's")
                }
            }
            (_, None) => Err("the pessimistic baseline failed its oracle"),
            // This rep already failed its own oracle; keep that reason.
            (None, _) => Ok(()),
            _ => Err("evidence kinds differ"),
        };
        if let Err(e) = verdict {
            self.failure.get_or_insert(e.to_string());
        }
    }
}

/// Run a socket world: the parent hub and every worker runtime on a thread
/// of their own — one per socket role, no others. Workers start once the
/// parent's listener exists, so no run pays the connect-retry sleep by
/// losing a race. Returns the parent's (authoritative) result and the
/// first worker failure, if any.
pub fn run_over_socket(
    parent: RtWorld,
    workers: Vec<RtWorld>,
    path: &str,
) -> (RtResult, Option<String>) {
    let _ = std::fs::remove_file(path);
    let out = std::thread::scope(|s| {
        let hub = s.spawn(move || parent.run());
        while !Path::new(path).exists() && !hub.is_finished() {
            std::thread::yield_now();
        }
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| s.spawn(move || w.run()))
            .collect();
        let mut failure = None;
        for (i, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(w) if w.timed_out => failure = Some(format!("worker runtime {i} timed out")),
                Ok(_) => {}
                Err(_) => failure = Some(format!("worker runtime {i} panicked")),
            }
        }
        let r = hub
            .join()
            .expect("the parent runtime reports failures, it does not panic");
        (r, failure)
    });
    let _ = std::fs::remove_file(path);
    out
}

fn core_config(policy: Policy) -> CoreConfig {
    match policy {
        Policy::Optimistic => CoreConfig::default(),
        Policy::Pessimistic => CoreConfig::pessimistic(),
    }
}

/// The lines the tally server rejects: one per block of 50 lines
/// (`TALLY_FAULTS_PER_MILLE`), within a tenth of a block of the block's
/// middle, at a seeded offset. Every seed injects the same number of faults
/// at nearly the same depth of the run, because what an abort costs grows
/// with how much has run before it: with independent per-line draws
/// (`streaming::line_fails`) throughput varied 1.8x from seed to seed, with
/// offsets drawn from the whole middle half of a block still 12 %.
fn fault_lines(seed: u64, calls: u32) -> BTreeSet<i64> {
    let block = 1000 / TALLY_FAULTS_PER_MILLE;
    let slack = (block / 10) as u64;
    (0..calls / block)
        .map(|k| {
            let offset = block / 2 + (splitmix64(seed ^ k as u64) % slack) as u32;
            (k * block + offset) as i64
        })
        .collect()
}

/// Clients, then the sequencer, then the replicas — the layout
/// `replicated_kv`'s oracle assumes.
fn kv_behaviors(opts: &KvOpts) -> Vec<Arc<dyn Behavior>> {
    let cdf = zipf_cdf(opts.keys, opts.zipf_s);
    let mut v: Vec<Arc<dyn Behavior>> = Vec::new();
    for index in 0..opts.clients {
        v.push(Arc::new(KvClient {
            index,
            clients: opts.clients,
            n: opts.ops_per_client,
            gap: opts.gap,
            seq: sequencer(opts),
            replicas: replica_pids(opts),
            seed: opts.seed,
            write_per_mille: opts.write_per_mille,
            cdf: cdf.clone(),
        }));
    }
    v.push(Arc::new(Sequencer {
        total: opts.total_ops(),
        compute: opts.seq_compute,
    }));
    for r in 0..opts.replicas {
        v.push(Arc::new(Replica::new(
            format!("R{r}"),
            opts.total_ops(),
            opts.replica_compute,
        )));
    }
    v
}

fn rt_ended_cleanly(r: &RtResult, worker_failure: Option<String>) -> Result<(), String> {
    if let Some(f) = worker_failure {
        return Err(f);
    }
    if r.timed_out {
        return Err("rt run timed out".to_string());
    }
    if !r.panicked.is_empty() {
        return Err(format!("rt panics: {:?}", r.panics));
    }
    if !r.stragglers.is_empty() {
        return Err(format!("stragglers: {:?}", r.stragglers));
    }
    Ok(())
}

/// A streaming client's committed log, which must hold exactly `calls`
/// returns.
fn call_log(
    logs: &BTreeMap<ProcessId, Vec<Observable>>,
    client: ProcessId,
    calls: u32,
) -> Result<Vec<Observable>, String> {
    let log = logs.get(&client).cloned().unwrap_or_default();
    let returns = log
        .iter()
        .filter(|o| matches!(o, Observable::Received { .. }))
        .count();
    if returns == calls as usize {
        Ok(log)
    } else {
        Err(format!("{client:?} committed {returns} of {calls} calls"))
    }
}
