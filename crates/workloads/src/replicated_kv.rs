//! Replicated KV — the flagship workload: optimistic parallel
//! state-machine replication (Marandi & Pedone, arXiv 1404.6721) built
//! from the paper's guess/rollback protocol.
//!
//! `R` replicas each hold an in-memory key→value store and apply a global
//! command log in position order. Commands are sequenced by a single
//! sequencer process; clients are an open-loop load generator with
//! configurable inter-arrival gap, Zipf key skew, and read/write mix.
//!
//! The optimistic delivery order is encoded as a *guess*: each client
//! issues its command to the sequencer with [`Effect::CallThenFork`],
//! guessing the position the sequencer will assign (first command: the
//! client's own index; afterwards: last position + client count — the
//! round-robin interleaving that spontaneous order produces under uniform
//! latency). The right thread immediately broadcasts `Apply{pos, cmd}` to
//! every replica under the guess's guard and paces the next arrival, so a
//! correct guess streams commands without waiting for the sequencer's
//! round trip. A wrong guess (jitter or chaos perturbed the arrival
//! order) is a value fault at the join: the speculative broadcast is
//! retracted through the existing abort machinery, replicas roll back any
//! state derived from it, and the sequential re-execution re-broadcasts
//! with the actual position — exactly optimistic SMR's "execute in the
//! optimistic order, roll back on misordering".
//!
//! The pessimistic baseline is the same world under
//! [`opcsp_core::SpeculationPolicy::Pessimistic`]: `CallThenFork` degrades to a
//! blocking call, so every client waits a full sequencer round trip per
//! command and no rollback ever happens.
//!
//! Safety oracle (the SMR property): committed replica stores are
//! identical, committed read results are identical sequences across
//! replicas, and every replica applied the full contiguous position range
//! — see [`check_replica_agreement`]. Replay oracle: the positions the
//! clients' committed logs say the sequencer assigned form a legal
//! sequencer order, and replaying the commands in it reproduces every
//! replica — see [`check_replay`]. Used by experiment E14, `Spec::check`
//! and the `tests/replicated_kv.rs` sim-vs-rt differentials.

use crate::catalog;
use opcsp_core::{CoreConfig, DataKind, ProcessId, Value};
use opcsp_sim::{
    reply_label, Behavior, BehaviorState, Effect, ObsKind, Observable, Outcome, Resume,
    SimConfig, SimResult, VTime,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Scenario parameters for the replicated-KV experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct KvOpts {
    /// Number of replicas (`R`).
    pub replicas: u32,
    /// Number of load-generating clients (`C`).
    pub clients: u32,
    /// Commands issued per client.
    pub ops_per_client: u32,
    /// Open-loop inter-arrival gap (virtual-time compute units between
    /// consecutive commands of one client).
    pub gap: u64,
    /// One-way network latency (base when jittered).
    pub latency: u64,
    /// Uniform jitter spread (0 = fixed latency). Jitter perturbs the
    /// arrival order at the sequencer — the misguess knob.
    pub jitter: u64,
    pub seed: u64,
    /// Key-space size for the generated commands.
    pub keys: u32,
    /// Zipf skew exponent `s` (0 = uniform; 0.99 = classic YCSB skew).
    pub zipf_s: f64,
    /// Writes per 1000 commands; the rest are reads.
    pub write_per_mille: u32,
    pub core: CoreConfig,
    pub fork_timeout: VTime,
    /// Sequencer compute per command (position assignment cost).
    pub seq_compute: u64,
    /// Replica compute per received Apply (state-machine apply cost).
    pub replica_compute: u64,
}

impl Default for KvOpts {
    fn default() -> Self {
        KvOpts {
            replicas: 3,
            clients: 4,
            ops_per_client: 8,
            gap: 20,
            latency: 50,
            jitter: 0,
            seed: 1,
            keys: 16,
            zipf_s: 0.99,
            write_per_mille: 500,
            core: CoreConfig::default(),
            fork_timeout: 100_000,
            seq_compute: 1,
            replica_compute: 1,
        }
    }
}

impl KvOpts {
    /// Total committed commands a complete run must apply on every replica.
    pub fn total_ops(&self) -> u32 {
        self.clients * self.ops_per_client
    }
}

/// Process layout: clients occupy `0..clients`, then the sequencer, then
/// the replicas.
pub fn sequencer(opts: &KvOpts) -> ProcessId {
    ProcessId(opts.clients)
}

pub fn replica_pids(opts: &KvOpts) -> Vec<ProcessId> {
    (0..opts.replicas)
        .map(|r| ProcessId(opts.clients + 1 + r))
        .collect()
}

// ---------------------------------------------------------------------
// Deterministic command generation (Zipf keys, read/write mix)
// ---------------------------------------------------------------------

/// One generated command: a read of `key`, or a write of `put` to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvCmd {
    pub key: u32,
    pub put: Option<i64>,
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Cumulative Zipf(s) distribution over `keys` ranks — precomputed once
/// per world so every draw is a binary search.
pub fn zipf_cdf(keys: u32, s: f64) -> Arc<Vec<f64>> {
    let keys = keys.max(1);
    let mut w: Vec<f64> = (1..=keys).map(|i| 1.0 / (i as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    for x in w.iter_mut() {
        acc += *x / total;
        *x = acc;
    }
    Arc::new(w)
}

/// The deterministic command a given `(client, op)` issues under `seed` —
/// a splitmix-style hash drives both the Zipf key draw and the
/// read/write decision, so every engine rebuilds the identical load.
pub fn kv_command(seed: u64, cdf: &[f64], write_per_mille: u32, client: u32, op: u32) -> KvCmd {
    let h = mix64(seed ^ (((client as u64) << 32) | (op as u64 + 1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    let key = (cdf.partition_point(|&c| c < u) as u32).min(cdf.len() as u32 - 1);
    let put = if mix64(h) % 1000 < write_per_mille as u64 {
        // A distinct, reproducible value per (client, op).
        Some(((client as i64) << 20) | (op as i64 + 1))
    } else {
        None
    };
    KvCmd { key, put }
}

// ---------------------------------------------------------------------
// Behaviors
// ---------------------------------------------------------------------

/// Open-loop client `index`: for each op, `CallThenFork` the sequencer
/// guessing the assigned position, broadcast `Apply{pos, cmd}` to every
/// replica from the speculative right thread, pace `gap`, repeat.
pub struct KvClient {
    pub index: u32,
    pub clients: u32,
    pub n: u32,
    pub gap: u64,
    pub seq: ProcessId,
    pub replicas: Vec<ProcessId>,
    pub seed: u64,
    pub write_per_mille: u32,
    pub cdf: Arc<Vec<f64>>,
}

#[derive(Clone)]
struct KvClState {
    op: u32,
    /// Position of the current op (guessed on the right thread, actual on
    /// the left/sequential path) — also feeds the next op's guess.
    pos: i64,
    bcast_next: usize,
    pc: KvClPc,
}

#[derive(Clone)]
enum KvClPc {
    Top,
    Await,
    Joining,
    Bcast,
    Pace,
    Finished,
}

impl KvClient {
    fn top(&self, st: &mut KvClState) -> Effect {
        if st.op < self.n {
            // First command: spontaneous order assigns client j position j.
            // Afterwards: one full round of C clients between our commands.
            let guess = if st.op == 0 {
                self.index as i64
            } else {
                st.pos + self.clients as i64
            };
            st.pc = KvClPc::Await;
            Effect::CallThenFork {
                to: self.seq,
                payload: Value::Int(st.op as i64),
                label: format!("C{}", st.op + 1),
                site: 1,
                guesses: vec![("pos".into(), Value::Int(guess))],
            }
        } else {
            st.pc = KvClPc::Finished;
            Effect::Done
        }
    }

    fn apply_payload(&self, st: &KvClState) -> Value {
        let cmd = kv_command(self.seed, &self.cdf, self.write_per_mille, self.index, st.op);
        Value::record([
            ("pos".to_string(), Value::Int(st.pos)),
            ("key".to_string(), Value::str(format!("k{}", cmd.key))),
            (
                "op".to_string(),
                Value::str(if cmd.put.is_some() { "put" } else { "get" }),
            ),
            ("val".to_string(), Value::Int(cmd.put.unwrap_or(0))),
        ])
    }

    /// Broadcast the current command to each replica in turn, then pace.
    fn bcast(&self, st: &mut KvClState) -> Effect {
        if st.bcast_next < self.replicas.len() {
            let to = self.replicas[st.bcast_next];
            st.bcast_next += 1;
            st.pc = KvClPc::Bcast;
            Effect::Send {
                to,
                payload: self.apply_payload(st),
                label: "A".into(),
            }
        } else {
            st.pc = KvClPc::Pace;
            Effect::Compute { cost: self.gap }
        }
    }
}

impl Behavior for KvClient {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(KvClState {
            op: 0,
            pos: 0,
            bcast_next: 0,
            pc: KvClPc::Top,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<KvClState>();
        match (&st.pc, resume) {
            (KvClPc::Top, Resume::Start) => self.top(st),
            // Right thread: adopt the guessed position and stream the
            // broadcast under its guard.
            (KvClPc::Await, Resume::ForkRight { guesses }) => {
                st.pos = guesses
                    .iter()
                    .find(|(k, _)| k == "pos")
                    .and_then(|(_, v)| v.as_int())
                    .unwrap_or(-1);
                st.bcast_next = 0;
                self.bcast(st)
            }
            // Left thread (or pessimistic): the sequencer's assignment.
            (KvClPc::Await, Resume::Msg(env)) => {
                let actual = env.payload.as_int().unwrap_or(-1);
                st.pos = actual;
                st.pc = KvClPc::Joining;
                Effect::JoinLeft {
                    actual: vec![("pos".into(), Value::Int(actual))],
                }
            }
            // Misguess (or baseline): re-broadcast with the actual position.
            (KvClPc::Joining, Resume::JoinSequential) => {
                st.bcast_next = 0;
                self.bcast(st)
            }
            (KvClPc::Bcast, Resume::Continue) => self.bcast(st),
            (KvClPc::Pace, Resume::Continue) => {
                st.op += 1;
                self.top(st)
            }
            (_, r) => panic!("KvClient{}: unexpected resume {r:?}", self.index),
        }
    }

    fn name(&self) -> &str {
        "KvClient"
    }

    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(self.replicas.iter().copied().chain([self.seq]).collect())
    }
}

/// The sequencer: assigns the next log position to each command call, in
/// arrival order. Its counter is ordinary speculative process state — a
/// retracted (orphaned) call rolls the assignment back with everything
/// else, so committed positions are exactly `0..total`.
pub struct Sequencer {
    pub total: u32,
    pub compute: u64,
}

#[derive(Clone)]
struct SeqState {
    next: i64,
    replied: u32,
    pc: SeqPc,
}

#[derive(Clone)]
enum SeqPc {
    Idle,
    Respond { label: String },
}

impl Behavior for Sequencer {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(SeqState {
            next: 0,
            replied: 0,
            pc: SeqPc::Idle,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<SeqState>();
        match (st.pc.clone(), resume) {
            (SeqPc::Idle, Resume::Start | Resume::Continue) => {
                if st.replied >= self.total {
                    Effect::Done
                } else {
                    Effect::Receive
                }
            }
            (SeqPc::Idle, Resume::Msg(env)) => match env.kind {
                DataKind::Call(_) => {
                    st.pc = SeqPc::Respond {
                        label: reply_label(&env.label),
                    };
                    Effect::Compute { cost: self.compute }
                }
                _ => Effect::Receive,
            },
            (SeqPc::Respond { label }, Resume::Continue) => {
                let pos = st.next;
                st.next += 1;
                st.replied += 1;
                st.pc = SeqPc::Idle;
                Effect::reply(Value::Int(pos), label)
            }
            (_, r) => panic!("Sequencer: unexpected resume {r:?}"),
        }
    }

    fn name(&self) -> &str {
        "Sequencer"
    }

    /// Only ever replies.
    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(Vec::new())
    }
}

/// A replica: applies `Apply{pos, cmd}` records to its store strictly in
/// position order, buffering out-of-order arrivals. Reads emit their
/// result as committed external output (`{pos, key, val}` — no replica
/// id, so cross-replica agreement is payload equality); after the final
/// position a `{store, applied}` digest is emitted. A speculative
/// misordered Apply may be consumed transiently — the message's guard
/// rolls the replica back when the guess aborts, so no panics or asserts
/// here may depend on speculative state.
pub struct Replica {
    pub name: String,
    pub total: u32,
    pub compute: u64,
}

impl Replica {
    pub fn new(name: impl Into<String>, total: u32, compute: u64) -> Self {
        Replica {
            name: name.into(),
            total,
            compute,
        }
    }
}

/// Chunks a replica's store is cut into, by key hash.
const STORE_CHUNKS: usize = 64;

/// A replica's key→value store: a fixed set of copy-on-write chunks keyed
/// by key hash. Cloning it — which every checkpoint of the replica's state
/// does — copies chunk pointers, not entries; a write copies the one chunk
/// it lands in, and only while a checkpoint still shares that chunk
/// (DESIGN.md §15).
#[derive(Clone)]
struct Store {
    chunks: [Arc<BTreeMap<String, i64>>; STORE_CHUNKS],
}

impl Store {
    fn new() -> Store {
        let empty = Arc::new(BTreeMap::new());
        Store {
            chunks: std::array::from_fn(|_| Arc::clone(&empty)),
        }
    }

    /// The chunk `key` lives in (FNV-1a over its bytes).
    fn chunk(key: &str) -> usize {
        let hash = key.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        (hash % STORE_CHUNKS as u64) as usize
    }

    /// Every entry, in key order (the digest's order).
    fn sorted(&self) -> BTreeMap<&str, i64> {
        let entries = self.chunks.iter().flat_map(|c| c.iter());
        entries.map(|(k, v)| (k.as_str(), *v)).collect()
    }
}

/// What [`apply`] needs of a store: the replica's chunked [`Store`], or the
/// replay oracle's plain map — an independent implementation of the same
/// state machine.
trait KvStore {
    fn get(&self, key: &str) -> Option<i64>;
    fn put(&mut self, key: String, val: i64);
}

impl KvStore for Store {
    fn get(&self, key: &str) -> Option<i64> {
        self.chunks[Store::chunk(key)].get(key).copied()
    }

    fn put(&mut self, key: String, val: i64) {
        Arc::make_mut(&mut self.chunks[Store::chunk(&key)]).insert(key, val);
    }
}

impl KvStore for BTreeMap<String, i64> {
    fn get(&self, key: &str) -> Option<i64> {
        BTreeMap::get(self, key).copied()
    }

    fn put(&mut self, key: String, val: i64) {
        self.insert(key, val);
    }
}

#[derive(Clone)]
struct RepState {
    store: Store,
    next_pos: i64,
    pending: BTreeMap<i64, Value>,
    emit: Vec<Value>,
    pc: RepPc,
}

#[derive(Clone)]
enum RepPc {
    Idle,
    Applying,
    Emitting,
}

impl Replica {
    /// Drain every in-order pending command into the store, queueing the
    /// externals it produces.
    fn drain(&self, st: &mut RepState) {
        while let Some(cmd) = st.pending.remove(&st.next_pos) {
            let key = cmd
                .field("key")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string();
            let is_put = cmd.field("op").and_then(|v| v.as_str()) == Some("put");
            let put = is_put.then(|| cmd.field("val").and_then(|v| v.as_int()).unwrap_or(0));
            if let Some(read) = apply(&mut st.store, st.next_pos, key, put) {
                st.emit.push(read);
            }
            st.next_pos += 1;
        }
        if st.next_pos == self.total as i64 {
            st.emit.push(digest(st.store.sorted(), st.next_pos));
            st.next_pos += 1; // emit the digest exactly once
        }
    }

    fn settle(&self, st: &mut RepState) -> Effect {
        if !st.emit.is_empty() {
            let v = st.emit.remove(0);
            st.pc = RepPc::Emitting;
            return Effect::External { payload: v };
        }
        if st.next_pos > self.total as i64 {
            Effect::Done
        } else {
            st.pc = RepPc::Idle;
            Effect::Receive
        }
    }
}

impl Behavior for Replica {
    fn init(&self) -> BehaviorState {
        BehaviorState::new(RepState {
            store: Store::new(),
            next_pos: 0,
            pending: BTreeMap::new(),
            emit: Vec::new(),
            pc: RepPc::Idle,
        })
    }

    fn step(&self, state: &mut BehaviorState, resume: Resume) -> Effect {
        let st = state.get_mut::<RepState>();
        match (st.pc.clone(), resume) {
            (RepPc::Idle, Resume::Start | Resume::Continue) => self.settle(st),
            (RepPc::Idle, Resume::Msg(env)) => {
                if let Some(pos) = env.payload.field("pos").and_then(|v| v.as_int()) {
                    // A stale or colliding position in a speculative line
                    // is tolerated — the abort machinery rewinds it.
                    if pos >= st.next_pos {
                        st.pending.insert(pos, env.payload);
                    }
                }
                st.pc = RepPc::Applying;
                Effect::Compute { cost: self.compute }
            }
            (RepPc::Applying, Resume::Continue) => {
                self.drain(st);
                self.settle(st)
            }
            (RepPc::Emitting, Resume::Continue) => self.settle(st),
            (_, r) => panic!("{}: unexpected resume {r:?}", self.name),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Only ever replies.
    fn peers(&self, _me: ProcessId) -> Option<Vec<ProcessId>> {
        Some(Vec::new())
    }
}

/// Apply the command at `pos` to `store`: a write of `put` to `key`, or a
/// read of it, whose committed external (`{pos, key, val}`) this returns.
fn apply(store: &mut impl KvStore, pos: i64, key: String, put: Option<i64>) -> Option<Value> {
    if let Some(val) = put {
        store.put(key, val);
        return None;
    }
    let val = store.get(&key).unwrap_or(0);
    Some(Value::record([
        ("pos".to_string(), Value::Int(pos)),
        ("key".to_string(), Value::str(key)),
        ("val".to_string(), Value::Int(val)),
    ]))
}

/// A replica's final external: the committed store, in key order, plus
/// the applied count.
fn digest<'a>(store: impl IntoIterator<Item = (&'a str, i64)>, applied: i64) -> Value {
    let store = store
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::Int(v)));
    Value::record([
        (
            "store".to_string(),
            Value::record(store.collect::<Vec<_>>()),
        ),
        ("applied".to_string(), Value::Int(applied)),
    ])
}

// ---------------------------------------------------------------------
// Engine config (the world itself is `catalog::Spec::Kv`'s roster)
// ---------------------------------------------------------------------

/// The engine config the scenario options describe (`Spec::Kv`'s
/// simulator config).
pub fn kv_config(opts: &KvOpts) -> SimConfig {
    catalog::sim_config(
        &opts.core,
        opts.latency,
        opts.jitter,
        opts.seed,
        Some(opts.fork_timeout),
    )
}

// ---------------------------------------------------------------------
// SMR safety oracle
// ---------------------------------------------------------------------

/// What a complete, agreeing run committed (taken from replica 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvSummary {
    /// Commands applied per replica (must equal `opts.total_ops()`).
    pub applied: i64,
    /// Committed read results, in log order.
    pub gets: usize,
    /// The committed store.
    pub store: BTreeMap<String, i64>,
}

/// Group committed external payloads by replica, preserving emission
/// order. Works for both engines: pass `(pid, payload)` pairs from
/// `SimResult::external` or `RtResult::external`.
pub fn replica_streams(
    opts: &KvOpts,
    externals: impl IntoIterator<Item = (ProcessId, Value)>,
) -> Vec<Vec<Value>> {
    let mut streams = vec![Vec::new(); opts.replicas as usize];
    let base = opts.clients + 1;
    for (pid, v) in externals {
        let idx = pid.0.wrapping_sub(base);
        if (idx as usize) < streams.len() {
            streams[idx as usize].push(v);
        }
    }
    streams
}

/// The SMR safety property: every replica committed the same read
/// results in the same order, applied the full contiguous position range,
/// and finished with an identical store. `Err` explains the first
/// divergence found.
pub fn check_replica_agreement(opts: &KvOpts, streams: &[Vec<Value>]) -> Result<KvSummary, String> {
    if streams.len() != opts.replicas as usize {
        return Err(format!(
            "expected {} replica streams, got {}",
            opts.replicas,
            streams.len()
        ));
    }
    let total = opts.total_ops() as i64;
    let mut summary: Option<KvSummary> = None;
    for (r, stream) in streams.iter().enumerate() {
        let Some((digest, gets)) = stream.split_last() else {
            return Err(format!("replica {r} committed no externals"));
        };
        let applied = digest.field("applied").and_then(|v| v.as_int()).unwrap_or(-1);
        if applied != total {
            return Err(format!(
                "replica {r} applied {applied} of {total} commands (digest {digest:?})"
            ));
        }
        let Some(Value::Record(fields)) = digest.field("store").cloned() else {
            return Err(format!("replica {r}: no store digest in {digest:?}"));
        };
        let store: BTreeMap<String, i64> = fields
            .iter()
            .map(|(k, v)| (k.clone(), v.as_int().unwrap_or(0)))
            .collect();
        // Reads must be strictly position-ordered within one replica.
        let mut last = -1i64;
        for g in gets {
            let pos = g.field("pos").and_then(|v| v.as_int()).unwrap_or(-1);
            if pos <= last {
                return Err(format!("replica {r}: read positions not increasing: {gets:?}"));
            }
            last = pos;
        }
        let this = KvSummary {
            applied,
            gets: gets.len(),
            store,
        };
        match &summary {
            None => summary = Some(this),
            Some(first) => {
                if first.store != this.store {
                    return Err(format!(
                        "stores diverge: replica 0 {:?} vs replica {r} {:?}",
                        first.store, this.store
                    ));
                }
                if streams[0][..streams[0].len() - 1] != stream[..stream.len() - 1] {
                    return Err(format!(
                        "read streams diverge between replica 0 and replica {r}"
                    ));
                }
            }
        }
    }
    summary.ok_or_else(|| "no replicas".to_string())
}

/// The replay oracle: the committed run is a legal sequencer order. Each
/// client's committed log yields the positions the sequencer assigned to
/// its calls, in op order; they must strictly increase, and together cover
/// `0..C·ops` exactly once. Replaying `kv_command(seed, client, op)` in
/// position order through a sequential map must then reproduce every
/// replica's committed reads and its final store. `Err` names the first
/// difference.
pub fn check_replay(
    opts: &KvOpts,
    logs: &BTreeMap<ProcessId, Vec<Observable>>,
    streams: &[Vec<Value>],
) -> Result<(), String> {
    let seq = sequencer(opts);
    let mut owner: Vec<Option<(u32, u32)>> = vec![None; opts.total_ops() as usize];
    for client in 0..opts.clients {
        let log = logs.get(&ProcessId(client)).map_or(&[][..], Vec::as_slice);
        let positions: Vec<i64> = log
            .iter()
            .filter_map(|o| match o {
                Observable::Received {
                    from,
                    kind: ObsKind::Return,
                    payload,
                } if *from == seq => Some(payload.as_int().unwrap_or(-1)),
                _ => None,
            })
            .collect();
        if positions.len() != opts.ops_per_client as usize {
            return Err(format!(
                "client {client} committed {} of {} positions",
                positions.len(),
                opts.ops_per_client
            ));
        }
        if positions.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!(
                "client {client}: positions not increasing: {positions:?}"
            ));
        }
        for (op, &pos) in positions.iter().enumerate() {
            let Some(slot) = usize::try_from(pos).ok().and_then(|p| owner.get_mut(p)) else {
                return Err(format!(
                    "client {client} op {op}: position {pos} out of range"
                ));
            };
            if let Some((c, o)) = slot.replace((client, op as u32)) {
                return Err(format!(
                    "position {pos} assigned twice: client {c} op {o} and client {client} op {op}"
                ));
            }
        }
    }
    // C·ops positions, none out of range, none twice: `owner` is full.
    let cdf = zipf_cdf(opts.keys, opts.zipf_s);
    let mut store: BTreeMap<String, i64> = BTreeMap::new();
    let mut want = Vec::new();
    for (pos, who) in owner.iter().enumerate() {
        let (client, op) = who.expect("every position is owned");
        let cmd = kv_command(opts.seed, &cdf, opts.write_per_mille, client, op);
        let key = format!("k{}", cmd.key);
        want.extend(apply(&mut store, pos as i64, key, cmd.put));
    }
    let entries = store.iter().map(|(k, v)| (k.as_str(), *v));
    want.push(digest(entries, owner.len() as i64));
    for (r, stream) in streams.iter().enumerate() {
        if let Some(i) = (0..want.len().max(stream.len())).find(|&i| want.get(i) != stream.get(i)) {
            return Err(format!(
                "replica {r} differs from the sequencer-order replay at external {i}: \
                 committed {:?}, replay {:?}",
                stream.get(i),
                want.get(i)
            ));
        }
    }
    Ok(())
}

/// Run the oracle over a simulator result.
pub fn check_sim_agreement(opts: &KvOpts, result: &SimResult) -> Result<KvSummary, String> {
    result.ended()?;
    check_replica_agreement(opts, &replica_streams(opts, result.external()))
}

/// Run the oracle over a real-thread runtime result.
pub fn check_rt_agreement(
    opts: &KvOpts,
    result: &opcsp_rt::RtResult,
) -> Result<KvSummary, String> {
    if result.timed_out {
        return Err("rt run timed out".into());
    }
    if !result.panicked.is_empty() {
        return Err(format!("rt panics: {:?}", result.panics));
    }
    let streams = replica_streams(opts, result.external.iter().cloned());
    check_replica_agreement(opts, &streams)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_commands_deterministic() {
        let cdf = zipf_cdf(16, 0.99);
        assert_eq!(cdf.len(), 16);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[15] - 1.0).abs() < 1e-9);
        let a = kv_command(7, &cdf, 500, 2, 5);
        let b = kv_command(7, &cdf, 500, 2, 5);
        assert_eq!(a, b);
        assert!(a.key < 16);
        // The skew is real: rank 0 dominates a uniform share.
        let hits = (0..1000)
            .filter(|&op| kv_command(7, &cdf, 0, 0, op).key == 0)
            .count();
        assert!(hits > 1000 / 16, "rank-0 hits {hits} not skewed");
    }
}
