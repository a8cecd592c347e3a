//! Two-layer transport for the real-thread runtime (DESIGN.md §9).
//!
//! The paper's protocol (§2, §4.1.5) assumes a reliable FIFO network and
//! tolerates everything above that line with incarnation numbers. The
//! in-process crossbeam channels used by the runtime give reliability for
//! free, so none of that tolerance was ever exercised. This module makes
//! the network assumption explicit and *earned*:
//!
//! - a **chaos layer** ([`NetFaults`]) sits on the wire: per-link drop
//!   probability, duplication, a reorder window, and one-shot partition
//!   windows, all seeded and deterministic via the same splitmix64 keying
//!   as `opcsp_sim::latency::jitter_draw`;
//! - a **reliable-delivery sublayer** ([`Transport`]) sits under the
//!   protocol: per-link sequence numbers on every data/control frame,
//!   cumulative acks piggybacked on reverse traffic (plus standalone acks
//!   on idle), retransmission, and receiver-side dedup + in-order release.
//!
//! The protocol core above therefore still sees the reliable FIFO network
//! it assumes, whatever the chaos layer does underneath.
//!
//! **When a frame is sent again** (DESIGN.md §9.3). A frame and its ack
//! routinely wait tens of milliseconds in a busy actor's queue, so a fixed
//! timeout per frame retransmits most of a lossless run. Instead each
//! directed link keeps one timer for its oldest unacked frame, set from
//! the link's own measured round trips ([`RttEstimator`], RFC 6298 shape:
//! `srtt + 4·rttvar`, Karn's rule, doubled per expiry until the next
//! sample) — per link, not per endpoint, because a process's first sample
//! is its own server's sub-millisecond reply and says nothing about the
//! 255 peers its COMMIT broadcast goes to. The timer is the last resort:
//!
//! - a receiver that has to buffer a frame out of order acks at once, and
//!   again every tick while the gap stays open; that ack repeats the one
//!   before it, and the sender answers a repeated standalone ack by
//!   resending the link's oldest frame, at most once per round trip;
//! - an expiry therefore means that nothing later got through: it resends
//!   the oldest frame alone, as a probe, and backs off. The frames that
//!   were out with it are presumed lost with it, and once the probe is
//!   acked each gets a round trip's grace instead of a full timeout —
//!   unless acks keep arriving, which is what an early expiry looks like.
//!
//! Standalone acks otherwise leave on ticks only, and [`Transport::tick`]
//! visits expired links only (a deadline-ordered index). There is one
//! path: in-process, chaos and socket traffic all run it.
//!
//! **The wire is a timestamp** (DESIGN.md §9.1). A frame with transit time
//! ahead of it leaves as [`Wire::At`], stamped with the instant it is due,
//! straight into the receiver's [`Mailbox`]. The actor that owns the
//! receiver holds it in a [`TimerQueue`] until then — the queue that also
//! holds the actor's fork timers and transport ticks — so no item crosses
//! a thread to wait. A frame for another OS process waits in its worker's
//! socket pump instead (`rt::sock`). Teardown needs no flush rule: a timer
//! dies with its actor, so a far-future fork timer can never fire early.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use opcsp_core::{Control, Envelope, ProcessId};
use opcsp_sim::latency::splitmix64;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Wire items
// ---------------------------------------------------------------------------

/// What travels on the simulated network or arrives in an actor inbox.
#[derive(Debug)]
pub enum Wire {
    /// A reliable-sublayer frame (data, control, or a standalone ack),
    /// deliverable at once.
    Frame(Frame),
    /// A frame still in transit until the instant it carries: the
    /// receiving actor holds it until then.
    At(Instant, Frame),
    /// Coordinator quiescence probe; the actor answers with
    /// `Report::Quiet` carrying this round number.
    Probe(u64),
    /// Final halt: the coordinator has established global quiescence (or
    /// given up); the actor reports and exits.
    Shutdown,
}

/// Protocol payload carried by a reliable frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    Data(Envelope),
    Ctrl(Control),
}

/// Address of a process inbox, independent of executor shape (DESIGN.md
/// §11): the threaded executor gives every actor a dedicated channel; the
/// sharded executor multiplexes a worker's whole shard over one channel
/// with the destination pid tagged on each item, so a scheduling round can
/// drain cross-shard traffic in one batch.
#[derive(Clone)]
pub enum Mailbox {
    /// Dedicated per-process channel (thread-per-process executor).
    Direct(Sender<Wire>),
    /// Shared shard channel; the worker demultiplexes by pid.
    Shard {
        pid: ProcessId,
        tx: Sender<(ProcessId, Wire)>,
    },
    /// The process lives in another OS process (`rt::sock`): frames go to
    /// the local socket-writer pump with the instant they are due; it holds
    /// each until then and ships it to the parent router. Only frames cross
    /// the wire — probes and shutdowns are always addressed to *local*
    /// actors by construction, so anything else is silently dropped.
    Remote(Sender<(Instant, Frame)>),
}

impl Mailbox {
    /// Deliver an item; `false` if the receiving executor already exited.
    pub fn send(&self, w: Wire) -> bool {
        match self {
            Mailbox::Direct(tx) => tx.send(w).is_ok(),
            Mailbox::Shard { pid, tx } => tx.send((*pid, w)).is_ok(),
            Mailbox::Remote(tx) => match w {
                Wire::Frame(f) => tx.send((Instant::now(), f)).is_ok(),
                Wire::At(at, f) => tx.send((at, f)).is_ok(),
                _ => true,
            },
        }
    }
}

/// One reliable-sublayer frame on the directed link `from → to`.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub from: ProcessId,
    pub to: ProcessId,
    /// Cumulative ack for the reverse link: the sender has released every
    /// frame with `seq < ack` from `to` to its protocol core.
    pub ack: u64,
    /// `Some((seq, payload))` for a sequenced message; `None` for a
    /// standalone ack.
    pub msg: Option<(u64, Payload)>,
}

// ---------------------------------------------------------------------------
// Chaos layer
// ---------------------------------------------------------------------------

/// A one-shot partition window: the directed link `from → to` drops every
/// frame between `start_ms` and `start_ms + duration_ms` after run start.
/// Retransmission recovers once the window closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    pub from: ProcessId,
    pub to: ProcessId,
    pub start_ms: u64,
    pub duration_ms: u64,
}

/// Seeded, deterministic network fault injection. Every decision is a
/// pure function of `(seed, from, to, transmission index)` through the
/// same splitmix64 finalizer as `latency::jitter_draw`, so a given seed
/// drops/duplicates/delays the same physical transmissions in every run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetFaults {
    pub seed: u64,
    /// Per-transmission drop probability in `[0, 1)`.
    pub drop: f64,
    /// Per-transmission duplication probability in `[0, 1)`.
    pub dup: f64,
    /// Reorder window: each transmission may be delayed by up to this many
    /// extra latency steps, scrambling inter-frame order on the link.
    pub reorder: u32,
    /// One-shot partition windows.
    pub partitions: Vec<Partition>,
}

const SALT_DROP: u64 = 0xD20B_0001;
const SALT_DUP: u64 = 0xD20B_0002;
const SALT_REORDER: u64 = 0xD20B_0003;
const SALT_DUP_REORDER: u64 = 0xD20B_0004;

impl NetFaults {
    /// A fault-free configuration (the chaos layer is pass-through).
    pub fn none() -> NetFaults {
        NetFaults::default()
    }

    pub fn is_active(&self) -> bool {
        self.drop > 0.0 || self.dup > 0.0 || self.reorder > 0 || !self.partitions.is_empty()
    }

    fn raw(&self, salt: u64, from: ProcessId, to: ProcessId, xmit: u64) -> u64 {
        let link = ((from.0 as u64) << 32) | to.0 as u64;
        splitmix64(splitmix64(self.seed ^ salt ^ link) ^ xmit.wrapping_mul(0xA5A5))
    }

    fn unit(&self, salt: u64, from: ProcessId, to: ProcessId, xmit: u64) -> f64 {
        self.raw(salt, from, to, xmit) as f64 / u64::MAX as f64
    }

    /// Is the `xmit`-th physical transmission on `from → to` dropped?
    pub fn drops(&self, from: ProcessId, to: ProcessId, xmit: u64) -> bool {
        self.drop > 0.0 && self.unit(SALT_DROP, from, to, xmit) < self.drop
    }

    /// Is the `xmit`-th physical transmission duplicated?
    pub fn duplicates(&self, from: ProcessId, to: ProcessId, xmit: u64) -> bool {
        self.dup > 0.0 && self.unit(SALT_DUP, from, to, xmit) < self.dup
    }

    /// Extra delay steps (uniform in `[0, reorder]`) for the transmission;
    /// `dup_copy` keys the duplicate's delay independently so the two
    /// copies usually land in different order.
    pub fn reorder_steps(&self, from: ProcessId, to: ProcessId, xmit: u64, dup_copy: bool) -> u32 {
        if self.reorder == 0 {
            return 0;
        }
        let salt = if dup_copy { SALT_DUP_REORDER } else { SALT_REORDER };
        (self.raw(salt, from, to, xmit) % (self.reorder as u64 + 1)) as u32
    }

    /// Is the link inside one of its partition windows `since` run start?
    pub fn partitioned(&self, from: ProcessId, to: ProcessId, since_start: Duration) -> bool {
        let ms = since_start.as_millis() as u64;
        self.partitions.iter().any(|p| {
            p.from == from && p.to == to && ms >= p.start_ms && ms < p.start_ms + p.duration_ms
        })
    }

    /// Parse a chaos spec: comma-separated `key=value` with keys `drop`,
    /// `dup` (probabilities), `reorder` (window), `seed`, and repeatable
    /// `part=FROM-TO@START+DURATION` windows in milliseconds, e.g.
    /// `drop=0.2,dup=0.1,reorder=3,seed=7,part=0-1@100+50`.
    pub fn parse(spec: &str) -> Result<NetFaults, String> {
        let mut f = NetFaults::default();
        for item in spec.split(',').filter(|s| !s.is_empty()) {
            let (k, v) = item
                .split_once('=')
                .ok_or_else(|| format!("chaos spec item `{item}` is not key=value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("chaos spec `{k}`: {e}");
            match k {
                "drop" => f.drop = v.parse().map_err(|e| bad(&e))?,
                "dup" => f.dup = v.parse().map_err(|e| bad(&e))?,
                "reorder" => f.reorder = v.parse().map_err(|e| bad(&e))?,
                "seed" => f.seed = v.parse().map_err(|e| bad(&e))?,
                "part" => {
                    let (link, window) = v
                        .split_once('@')
                        .ok_or_else(|| bad(&"expected FROM-TO@START+DURATION"))?;
                    let (from, to) = link
                        .split_once('-')
                        .ok_or_else(|| bad(&"expected FROM-TO@START+DURATION"))?;
                    let (start, dur) = window
                        .split_once('+')
                        .ok_or_else(|| bad(&"expected FROM-TO@START+DURATION"))?;
                    f.partitions.push(Partition {
                        from: ProcessId(from.parse().map_err(|e| bad(&e))?),
                        to: ProcessId(to.parse().map_err(|e| bad(&e))?),
                        start_ms: start.parse().map_err(|e| bad(&e))?,
                        duration_ms: dur.parse().map_err(|e| bad(&e))?,
                    });
                }
                other => return Err(format!("unknown chaos spec key `{other}`")),
            }
        }
        if !(0.0..1.0).contains(&f.drop) || !(0.0..1.0).contains(&f.dup) {
            return Err("chaos probabilities must be in [0, 1)".into());
        }
        Ok(f)
    }
}

// ---------------------------------------------------------------------------
// Reliable-delivery sublayer
// ---------------------------------------------------------------------------

/// Transport counters, merged into `RtStats` per actor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Transmissions the chaos layer dropped (incl. partition windows).
    pub drops_injected: u64,
    /// Transmissions the chaos layer duplicated.
    pub dups_injected: u64,
    /// Retransmissions of unacked frames.
    pub retransmits: u64,
    /// Standalone ack frames sent (piggybacked acks are free).
    pub acks: u64,
    /// Frames released to the protocol after waiting in the out-of-order
    /// buffer (i.e. the chaos layer genuinely reordered the link).
    pub reorder_releases: u64,
    /// Reliable messages originated (excluding retransmits and acks).
    pub frames_sent: u64,
    /// Frames released in order to the protocol core.
    pub frames_delivered: u64,
    /// Sequenced frames the receiver discarded as already released or
    /// already buffered. The sender cannot see these: `dup_frames −
    /// dups_injected` is the number of retransmissions that were not
    /// needed.
    pub dup_frames: u64,
}

impl NetStats {
    pub fn merge(&mut self, o: NetStats) {
        self.drops_injected += o.drops_injected;
        self.dups_injected += o.dups_injected;
        self.retransmits += o.retransmits;
        self.acks += o.acks;
        self.reorder_releases += o.reorder_releases;
        self.frames_sent += o.frames_sent;
        self.frames_delivered += o.frames_delivered;
        self.dup_frames += o.dup_frames;
    }
}

/// The lowest retransmission timeout at a given injected latency: two
/// round trips of the wire, and never under two maintenance ticks.
fn rto_floor(latency: Duration) -> Duration {
    (latency * 4).max(Duration::from_millis(8))
}

/// The highest timeout a measured round trip may set.
const RTO_CAP: Duration = Duration::from_secs(1);

/// How high a timeout may go with no measurement behind it, in RTO floors:
/// a link's timeout until its first round-trip sample, and the ceiling of
/// the backoff. Twice what an idle world's round trip can take (the wire
/// both ways plus a tick at each end is under two floors): under a lossy
/// wire a quiet link's lost frame waits this long, and again for every
/// copy that is lost as well. It is [`MIN_TICKS_TO_EXPIRY`] that keeps it
/// safe in a busy world, where a link's first frame is as likely as not
/// one of a broadcast's 255 and acked only after the receiver has worked
/// through everybody else's.
const BLIND_RTO_FLOORS: u32 = 4;

/// Ticks of its own that an endpoint lets pass after restarting a link's
/// timer before the timer may expire, whatever the clock says. A frame and
/// its ack wait in the receiver's inbox, for the receiver's tick
/// (standalone acks leave on ticks) and in the sender's inbox; an endpoint
/// too busy to tick is too busy to have seen the ack, and on a shared
/// worker its peers are as busy. Idle ticks are half an RTO floor apart,
/// so this binds only under load, where it stretches every timeout with
/// the scheduling round — without it any first-sample guess is right for
/// one world size only (16 floors and no such rule: 0.03 % of `pairs_rt`'s
/// frames retransmitted at 256 processes, 25 % at 512). Four ticks would
/// do if workers ran in step; they do not (at 512 processes on two
/// workers, four let two runs in five retransmit 4 % of their frames).
const MIN_TICKS_TO_EXPIRY: u32 = 6;

/// Exponential retransmit backoff: `rto << attempts`, capped. The shift
/// exponent is clamped *before* shifting — a link stuck behind a long
/// partition can accumulate hundreds of expiries, and an unclamped
/// `1 << attempts` overflows (a panic in debug builds) long before the cap
/// would have kicked in. Clamping at 16 is safe: the cap is ≤ 1 s and the
/// base RTO ≥ 8 ms, so every attempt past 7 doublings is already pinned at
/// the cap.
pub fn retransmit_backoff(rto: Duration, cap: Duration, attempts: u32) -> Duration {
    const SHIFT_CLAMP: u32 = 16;
    let factor = 1u32 << attempts.min(SHIFT_CLAMP);
    rto.saturating_mul(factor).min(cap).max(rto)
}

/// Retransmission-timeout estimator of one directed link (RFC 6298
/// shape). A value with no clock inside: the transport feeds it measured
/// round trips and timer expiries. Microseconds in `u32` because a world
/// has a link per ordered pair of processes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttEstimator {
    /// Smoothed round trip and its mean deviation; unset until `sampled`.
    srtt_us: u32,
    rttvar_us: u32,
    sampled: bool,
    /// Timer expiries since the last sample; the RTO is doubled that often.
    backoff: u8,
}

impl RttEstimator {
    /// A frame that was transmitted exactly once was acked `rtt` after it
    /// was sent. (Karn's rule is the caller's to keep: the ack of a
    /// retransmitted frame says nothing about which copy it answers.) A
    /// sample also ends the backoff.
    pub fn sample(&mut self, rtt: Duration) {
        let r = u32::try_from(rtt.as_micros()).unwrap_or(u32::MAX);
        if self.sampled {
            let dev = self.srtt_us.abs_diff(r) as u64;
            self.rttvar_us = ((3 * self.rttvar_us as u64 + dev) / 4) as u32;
            self.srtt_us = ((7 * self.srtt_us as u64 + r as u64) / 8) as u32;
        } else {
            self.srtt_us = r;
            self.rttvar_us = r / 2;
            self.sampled = true;
        }
        self.backoff = 0;
    }

    /// The link's timer expired: double the RTO until the next sample.
    pub fn on_expiry(&mut self) {
        self.backoff = self.backoff.saturating_add(1);
    }

    /// The smoothed round trip, once there is a sample.
    pub fn srtt(&self) -> Option<Duration> {
        self.sampled.then(|| Duration::from_micros(self.srtt_us as u64))
    }

    /// `srtt + 4·rttvar` clamped to `[floor, RTO_CAP]`, doubled per expiry
    /// since the last sample for as long as that stays under
    /// [`BLIND_RTO_FLOORS`] floors — which is also the timeout of a link
    /// with no sample yet.
    pub fn rto(&self, floor: Duration) -> Duration {
        let blind = floor * BLIND_RTO_FLOORS;
        let measured = self.srtt().map(|srtt| {
            (srtt + Duration::from_micros(4 * self.rttvar_us as u64).max(floor))
                .min(RTO_CAP.max(floor))
        });
        retransmit_backoff(measured.unwrap_or(blind), blind, self.backoff as u32)
    }
}

struct Unacked {
    seq: u64,
    body: Payload,
    /// When the latest copy went out.
    sent_at: Instant,
    /// Sent more than once: its ack is no round-trip sample (Karn).
    retransmitted: bool,
}

#[derive(Default)]
struct LinkTx {
    next_seq: u64,
    unacked: VecDeque<Unacked>,
    /// Physical transmission counter — the chaos draw key, advanced by
    /// every copy put on the wire (originals, retransmits, acks).
    xmit: u64,
    rtt: RttEstimator,
    /// The link's one retransmission timer: set while anything is
    /// unacked, restarted whenever an ack retires the oldest frame, and
    /// mirrored in [`Timers::index`].
    deadline: Option<Instant>,
    /// [`Timers::ticks`] when the timer was last restarted.
    armed_at_tick: u32,
    /// Frames below this were unacked when the timer last expired
    /// unanswered. An expiry means no later frame got through to reveal
    /// the loss, so they are presumed lost with the frame it probed.
    recover: u64,
}

impl LinkTx {
    /// The measured round trip, or the least it can be.
    fn round_trip(&self, floor: Duration) -> Duration {
        self.rtt.srtt().unwrap_or(floor)
    }

    /// How long the oldest unacked frame has before it is sent again. The
    /// RTO — except for a frame that was out at the last expiry and has
    /// not been resent since: the probe's ack stopped at it, so either it
    /// was lost with the probed frame (nothing more will come: resend
    /// after a round trip) or the expiry was early and acks of the
    /// originals are still arriving (each one restarts this).
    fn timeout(&self, floor: Duration) -> Duration {
        match self.unacked.front() {
            Some(head) if head.seq < self.recover && !head.retransmitted => self.round_trip(floor),
            _ => self.rtt.rto(floor),
        }
    }

    /// A copy of the oldest unacked frame for the wire, noted as sent
    /// again at `now`.
    fn resend_head(&mut self, now: Instant) -> (u64, Payload) {
        let head = self.unacked.front_mut().expect("only links with a frame out resend");
        head.retransmitted = true;
        head.sent_at = now;
        (head.seq, head.body.clone())
    }
}

/// An endpoint's link timers: every armed deadline, earliest first, so
/// that [`Transport::tick`] visits expired links only, and the tick count
/// the deadlines are gated on.
struct Timers {
    index: BTreeSet<(Instant, ProcessId)>,
    /// How often [`Transport::tick`] has run: the endpoint's own measure
    /// of how busy it is (see [`MIN_TICKS_TO_EXPIRY`]).
    ticks: u32,
    rto_floor: Duration,
}

impl Timers {
    /// Restart `link`'s timer from `now` — stop it if nothing is unacked.
    fn restart(&mut self, peer: ProcessId, link: &mut LinkTx, now: Instant) {
        if let Some(old) = link.deadline.take() {
            self.index.remove(&(old, peer));
        }
        if !link.unacked.is_empty() {
            let deadline = now + link.timeout(self.rto_floor);
            self.index.insert((deadline, peer));
            link.deadline = Some(deadline);
            link.armed_at_tick = self.ticks;
        }
    }
}

#[derive(Default)]
struct LinkRx {
    /// Everything below this has been released in order.
    next_expected: u64,
    /// Out-of-order holding buffer.
    ooo: BTreeMap<u64, Payload>,
}

/// Per-actor endpoint of the reliable-delivery sublayer. Owned by the
/// actor thread; every send goes straight into the peer's [`Mailbox`],
/// stamped with its due instant ([`Wire::At`]) when it has transit time
/// ahead of it, and every receive comes back through the actor's inbox.
pub struct Transport {
    me: ProcessId,
    faults: NetFaults,
    latency: Duration,
    start: Instant,
    net: Arc<Vec<Mailbox>>,
    tx: BTreeMap<ProcessId, LinkTx>,
    rx: BTreeMap<ProcessId, LinkRx>,
    timers: Timers,
    /// Frames awaiting an ack, across all links (the quiescence probe).
    unacked_total: u64,
    /// Links that have released or discarded a frame since their last
    /// transmission and so owe the peer an ack.
    acks_owed: BTreeSet<ProcessId>,
    pub stats: NetStats,
}

impl Transport {
    /// The endpoint of `me` in the world whose address book is `net`.
    pub fn open(
        me: ProcessId,
        faults: NetFaults,
        latency: Duration,
        start: Instant,
        net: Arc<Vec<Mailbox>>,
    ) -> Transport {
        Transport {
            me,
            faults,
            latency,
            start,
            net,
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            timers: Timers {
                index: BTreeSet::new(),
                ticks: 0,
                rto_floor: rto_floor(latency),
            },
            unacked_total: 0,
            acks_owed: BTreeSet::new(),
            stats: NetStats::default(),
        }
    }

    /// How often the owning actor runs [`Transport::tick`] while it
    /// [needs one](Transport::needs_tick): half the RTO floor.
    pub fn tick_interval(&self) -> Duration {
        (self.timers.rto_floor / 2).max(Duration::from_millis(2))
    }

    /// Does this endpoint need [`Transport::tick`]s? O(1); the actor arms
    /// its next tick only while this holds, so an idle actor among 10k
    /// costs its executor nothing. True while any frame is unacked, not
    /// only once a timer is due: the ticks in between are counted.
    pub fn needs_tick(&self) -> bool {
        !self.acks_owed.is_empty() || !self.timers.index.is_empty()
    }

    /// Send a payload reliably: assign the next link sequence number,
    /// buffer for retransmission, and put one copy on the (chaotic) wire.
    pub fn send(&mut self, to: ProcessId, body: Payload) {
        let now = Instant::now();
        let link = self.tx.entry(to).or_default();
        let seq = link.next_seq;
        link.next_seq += 1;
        link.unacked.push_back(Unacked {
            seq,
            body: body.clone(),
            sent_at: now,
            retransmitted: false,
        });
        if link.deadline.is_none() {
            self.timers.restart(to, link, now);
        }
        self.unacked_total += 1;
        self.stats.frames_sent += 1;
        self.transmit(to, Some((seq, body)));
    }

    /// Another copy of a frame the peer has not acked.
    fn retransmit(&mut self, to: ProcessId, frame: (u64, Payload)) {
        self.stats.retransmits += 1;
        self.transmit(to, Some(frame));
    }

    /// One physical transmission through the chaos layer.
    fn transmit(&mut self, to: ProcessId, msg: Option<(u64, Payload)>) {
        // Piggyback the cumulative ack for the reverse link.
        self.acks_owed.remove(&to);
        let ack = self.rx.get(&to).map_or(0, |r| r.next_expected);
        let xmit = {
            let l = self.tx.entry(to).or_default();
            let x = l.xmit;
            l.xmit += 1;
            x
        };
        if (!self.faults.partitions.is_empty()
            && self.faults.partitioned(self.me, to, self.start.elapsed()))
            || self.faults.drops(self.me, to, xmit)
        {
            // Lost on the wire; retransmission recovers.
            self.stats.drops_injected += 1;
            return;
        }
        let frame = Frame {
            from: self.me,
            to,
            ack,
            msg,
        };
        let step = self.latency.max(Duration::from_millis(1));
        let copy = self.faults.duplicates(self.me, to, xmit).then(|| frame.clone());
        let extra = self.faults.reorder_steps(self.me, to, xmit, false);
        self.put_on_wire(to, frame, self.latency + step * extra);
        if let Some(copy) = copy {
            self.stats.dups_injected += 1;
            let extra = self.faults.reorder_steps(self.me, to, xmit, true);
            self.put_on_wire(to, copy, self.latency + step * extra);
        }
    }

    /// Hand `frame` to the peer's mailbox, due `delay` from now. Per-link
    /// FIFO holds: a link's frames are all stamped by the one executor
    /// thread that owns the sender, so without reorder chaos their due
    /// instants never decrease and the receiver releases them in `(due,
    /// arrival)` order; with it, the reliable sublayer restores order.
    fn put_on_wire(&self, to: ProcessId, frame: Frame, delay: Duration) {
        let w = if delay.is_zero() {
            // Zero-latency fast path: nothing to hold.
            Wire::Frame(frame)
        } else {
            Wire::At(Instant::now() + delay, frame)
        };
        self.net[to.0 as usize].send(w);
    }

    /// Ingest a frame from the wire. Returns the payloads released *in
    /// per-link order* to the protocol core (possibly none: duplicates are
    /// suppressed, gaps are held back).
    pub fn on_frame(&mut self, f: Frame) -> Vec<Payload> {
        debug_assert_eq!(f.to, self.me, "misrouted frame");
        self.on_ack(f.from, f.ack, f.msg.is_none());
        let mut out = Vec::new();
        let Some((seq, body)) = f.msg else {
            return out;
        };
        let r = self.rx.entry(f.from).or_default();
        if seq < r.next_expected || r.ooo.contains_key(&seq) {
            // Duplicate (injected, or a retransmit racing its ack): owe a
            // fresh ack so the sender stops retransmitting.
            self.stats.dup_frames += 1;
            self.acks_owed.insert(f.from);
        } else if seq > r.next_expected {
            // A gap: an earlier frame is lost or late. Say so at once —
            // this ack repeats the previous one, which is how the sender
            // tells it from an ack that is merely slow, and repairs the
            // gap without waiting for its timer.
            r.ooo.insert(seq, body);
            self.send_ack(f.from);
            self.acks_owed.insert(f.from);
        } else {
            out.push(body);
            r.next_expected += 1;
            // Whatever waited in the buffer for this frame: a real reorder.
            while let Some(b) = r.ooo.remove(&r.next_expected) {
                r.next_expected += 1;
                out.push(b);
            }
            self.stats.reorder_releases += out.len() as u64 - 1;
            self.stats.frames_delivered += out.len() as u64;
            self.acks_owed.insert(f.from);
        }
        out
    }

    /// The cumulative ack of a frame from `from`: everything below `ack`
    /// is confirmed released, and the link's timer follows.
    fn on_ack(&mut self, from: ProcessId, ack: u64, standalone: bool) {
        let Some(l) = self.tx.get_mut(&from) else {
            return;
        };
        let Some(head) = l.unacked.front() else {
            return;
        };
        if head.seq < ack {
            let now = Instant::now();
            // Karn: the oldest frame retired gives the round trip, unless
            // it was sent twice — its ack does not say which copy it
            // answers. (Frames retired behind it may have waited for it.)
            if !head.retransmitted {
                l.rtt.sample(now.saturating_duration_since(head.sent_at));
            }
            while l.unacked.front().is_some_and(|u| u.seq < ack) {
                l.unacked.pop_front();
                self.unacked_total -= 1;
            }
            self.timers.restart(from, l, now);
        } else if standalone && head.seq == ack && l.unacked.len() > 1 {
            // A standalone ack that repeats the previous one while later
            // frames are out comes from a receiver buffering behind a gap
            // (one that is merely slow acks nothing twice). Resend the
            // head now — once per round trip, however many such acks the
            // frames behind the gap set off.
            let now = Instant::now();
            let waited = now.saturating_duration_since(head.sent_at);
            if !head.retransmitted || waited >= l.round_trip(self.timers.rto_floor) {
                let repair = l.resend_head(now);
                self.timers.restart(from, l, now);
                self.retransmit(from, repair);
            }
        }
    }

    /// The deadline of the link to `peer` has passed at `now`.
    fn on_expiry(&mut self, peer: ProcessId, now: Instant) {
        let l = self.tx.get_mut(&peer).expect("an armed timer has a link");
        if self.timers.ticks.wrapping_sub(l.armed_at_tick) < MIN_TICKS_TO_EXPIRY {
            return;
        }
        let head = l.unacked.front().expect("an armed timer has a frame");
        if head.retransmitted || head.seq >= l.recover {
            // The latest copy of the oldest frame went a whole RTO
            // unanswered, and nothing the peer received since revealed the
            // loss: tail loss, a partition or a dead peer. Probe with that
            // frame alone and back off.
            l.rtt.on_expiry();
            l.recover = l.next_seq;
        }
        let copy = l.resend_head(now);
        self.timers.restart(peer, l, now);
        self.retransmit(peer, copy);
    }

    /// Periodic maintenance: retransmit on the links whose timer has
    /// expired by `now`, and send standalone acks for links with no
    /// reverse traffic.
    pub fn tick(&mut self, now: Instant) {
        self.timers.ticks = self.timers.ticks.wrapping_add(1);
        let due: Vec<ProcessId> = self
            .timers
            .index
            .iter()
            .take_while(|(deadline, _)| *deadline <= now)
            .map(|(_, peer)| *peer)
            .collect();
        for peer in due {
            self.on_expiry(peer, now);
        }
        self.flush_acks();
    }

    /// Send standalone acks for every link that owes one.
    ///
    /// Called from ticks and probes only, on purpose. Flushing at every
    /// scheduling-round boundary as well was tried: it retired no
    /// retransmission (the link timers already sit above the ack delay),
    /// and it shortened the quiescence drain of few-millisecond
    /// pessimistic runs by one 1 ms poll, which reads as a 23 % *loss* of
    /// `speedup_vs_pessimistic` on the benchmark's `kv_rt` (DESIGN.md
    /// §9.3).
    pub fn flush_acks(&mut self) {
        for p in std::mem::take(&mut self.acks_owed) {
            self.send_ack(p);
            // A gap that is still open is acked again next tick: the
            // repair it asked for may have been lost too.
            if self.rx.get(&p).is_some_and(|r| !r.ooo.is_empty()) {
                self.acks_owed.insert(p);
            }
        }
    }

    fn send_ack(&mut self, to: ProcessId) {
        self.stats.acks += 1;
        self.transmit(to, None);
    }

    /// Quiescence probe triple: (messages originated, messages released,
    /// messages still unacked). The coordinator declares the network
    /// quiescent when every actor reports zero unacked and the counters
    /// are unchanged across two consecutive probe rounds.
    pub fn quiet_probe(&self) -> (u64, u64, u64) {
        debug_assert_eq!(
            self.unacked_total,
            self.tx.values().map(|l| l.unacked.len() as u64).sum::<u64>()
        );
        (
            self.stats.frames_sent,
            self.stats.frames_delivered,
            self.unacked_total,
        )
    }
}

// ---------------------------------------------------------------------------
// Timer queue (a frame's transit time, fork timers, ticks)
// ---------------------------------------------------------------------------

/// Items held until an instant: a min-heap on `(instant, seq)`, so items
/// due at the same instant come out in the order they went in. The one
/// way anything in `rt` waits for an instant (a frame in transit, a fork
/// timer, a transport tick).
pub struct TimerQueue<T> {
    heap: BinaryHeap<Held<T>>,
    seq: u64,
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        TimerQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> TimerQueue<T> {
    pub fn push(&mut self, at: Instant, item: T) {
        self.heap.push(Held(at, self.seq, item));
        self.seq += 1;
    }

    /// The earliest instant anything is held until.
    pub fn next_due(&self) -> Option<Instant> {
        self.heap.peek().map(|h| h.0)
    }

    /// The next item due by `now`, if any; never one due later.
    pub fn pop_due(&mut self, now: Instant) -> Option<T> {
        if self.next_due()? > now {
            return None;
        }
        self.pop_any()
    }

    /// The next item, due or not (a flush).
    pub fn pop_any(&mut self) -> Option<T> {
        self.heap.pop().map(|h| h.2)
    }
}

/// A held item, ordered *reversed* on `(instant, seq)` so that the max-heap
/// [`BinaryHeap`] pops the earliest first.
struct Held<T>(Instant, u64, T);

impl<T> PartialEq for Held<T> {
    fn eq(&self, o: &Self) -> bool {
        (self.0, self.1) == (o.0, o.1)
    }
}
impl<T> Eq for Held<T> {}
impl<T> PartialOrd for Held<T> {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl<T> Ord for Held<T> {
    fn cmp(&self, o: &Self) -> Ordering {
        (o.0, o.1).cmp(&(self.0, self.1))
    }
}

/// The next item on `rx`, waiting no later than `due` (forever if `None`):
/// how a thread that owns a [`TimerQueue`] waits on its inbox.
pub(crate) fn recv_until<T>(rx: &Receiver<T>, due: Option<Instant>) -> Result<T, RecvTimeoutError> {
    match due {
        Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    }
}

// ---------------------------------------------------------------------------
// Shims kept for benchmark/ (DESIGN.md §9): under crates/, only tests use them
// ---------------------------------------------------------------------------

/// A thread that hands each item to its channel once its delay is up; once
/// the `Delayer` is dropped, it hands over at once everything it still
/// holds and exits. The runtime's old wire, kept because
/// `benchmark/src/probes.rs` times it and passes one to `new`.
pub struct Delayer<T: Send + 'static> {
    tx: Sender<(Instant, Sender<T>, T)>,
}

impl<T: Send + 'static> Delayer<T> {
    pub fn spawn() -> Self {
        let (tx, rx) = unbounded::<(Instant, Sender<T>, T)>();
        std::thread::spawn(move || {
            let mut held = TimerQueue::default();
            loop {
                match recv_until(&rx, held.next_due()) {
                    Ok((at, to, item)) => held.push(at, (to, item)),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                while let Some((to, item)) = held.pop_due(Instant::now()) {
                    let _ = to.send(item);
                }
            }
            while let Some((to, item)) = held.pop_any() {
                let _ = to.send(item);
            }
        });
        Delayer { tx }
    }

    pub fn send_after(&self, delay: Duration, to: Sender<T>, item: T) {
        let _ = self.tx.send((Instant::now() + delay, to, item));
    }

    /// Drop the delayer (what it holds is handed over at once).
    pub fn shutdown(self) {}
}

impl Transport {
    /// [`Transport::open`], ignoring the delayer that used to be the wire.
    pub fn new(
        me: ProcessId,
        faults: NetFaults,
        latency: Duration,
        start: Instant,
        _wire: Arc<Delayer<Wire>>,
        net: Arc<Vec<Mailbox>>,
    ) -> Transport {
        Transport::open(me, faults, latency, start, net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opcsp_core::GuessId;

    /// Items due at one instant leave in the order they came, and
    /// `pop_due` never hands out an item before its instant.
    #[test]
    fn timer_queue_is_fifo_within_an_instant_and_never_early() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut q = TimerQueue::default();
        for (ms, item) in [(3, "c"), (1, "a"), (9, "e"), (3, "d"), (1, "b")] {
            q.push(at(ms), item);
        }
        let due_by = |q: &mut TimerQueue<_>, t| std::iter::from_fn(|| q.pop_due(t)).collect::<Vec<_>>();
        assert_eq!(due_by(&mut q, t0), Vec::<&str>::new());
        assert_eq!(due_by(&mut q, at(1)), ["a", "b"]);
        assert_eq!(due_by(&mut q, at(8)), ["c", "d"]);
        assert_eq!(q.next_due(), Some(at(9)));
        assert_eq!((q.pop_any(), q.pop_any()), (Some("e"), None));
    }

    // The `Delayer` shim, for as long as `benchmark/` keeps it.

    #[test]
    fn delivers_in_due_order_with_latency() {
        let delayer: Delayer<u32> = Delayer::spawn();
        let (tx, rx) = unbounded();
        let t0 = Instant::now();
        delayer.send_after(Duration::from_millis(30), tx.clone(), 2);
        delayer.send_after(Duration::from_millis(5), tx.clone(), 1);
        let first = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        let second = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((first, second), (1, 2));
        assert!(t0.elapsed() >= Duration::from_millis(30));
        delayer.shutdown();
    }

    #[test]
    fn shutdown_flushes_pending_data() {
        let delayer: Delayer<u32> = Delayer::spawn();
        let (tx, rx) = unbounded();
        delayer.send_after(Duration::from_secs(60), tx, 7);
        delayer.shutdown();
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 7);
    }

    #[test]
    fn zero_delay_is_immediate() {
        let delayer: Delayer<&'static str> = Delayer::spawn();
        let (tx, rx) = unbounded();
        delayer.send_after(Duration::ZERO, tx, "now");
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), "now");
    }

    #[test]
    fn chaos_draws_are_deterministic_and_seed_sensitive() {
        let f = NetFaults {
            seed: 7,
            drop: 0.3,
            dup: 0.2,
            reorder: 3,
            partitions: vec![],
        };
        let g = NetFaults { seed: 8, ..f.clone() };
        let (a, b) = (ProcessId(0), ProcessId(1));
        let fd: Vec<bool> = (0..64).map(|x| f.drops(a, b, x)).collect();
        assert_eq!(fd, (0..64).map(|x| f.drops(a, b, x)).collect::<Vec<_>>());
        assert_ne!(
            fd,
            (0..64).map(|x| g.drops(a, b, x)).collect::<Vec<_>>(),
            "different seeds must differ somewhere in 64 draws"
        );
        assert!(fd.iter().any(|d| *d), "drop=0.3 must fire within 64 draws");
        assert!((0..64).any(|x| f.duplicates(a, b, x)));
        assert!((0..64).all(|x| f.reorder_steps(a, b, x, false) <= 3));
        // Per-link independence: the reverse link draws differently.
        assert_ne!(fd, (0..64).map(|x| f.drops(b, a, x)).collect::<Vec<_>>());
    }

    #[test]
    fn partition_windows_are_one_shot_and_directional() {
        let f = NetFaults {
            partitions: vec![Partition {
                from: ProcessId(0),
                to: ProcessId(1),
                start_ms: 100,
                duration_ms: 50,
            }],
            ..NetFaults::default()
        };
        let ms = Duration::from_millis;
        assert!(!f.partitioned(ProcessId(0), ProcessId(1), ms(99)));
        assert!(f.partitioned(ProcessId(0), ProcessId(1), ms(100)));
        assert!(f.partitioned(ProcessId(0), ProcessId(1), ms(149)));
        assert!(!f.partitioned(ProcessId(0), ProcessId(1), ms(150)));
        assert!(!f.partitioned(ProcessId(1), ProcessId(0), ms(120)));
    }

    #[test]
    fn chaos_spec_parses() {
        let f = NetFaults::parse("drop=0.2,dup=0.1,reorder=3,seed=7,part=0-1@100+50").unwrap();
        assert_eq!(f.drop, 0.2);
        assert_eq!(f.dup, 0.1);
        assert_eq!(f.reorder, 3);
        assert_eq!(f.seed, 7);
        assert_eq!(
            f.partitions,
            vec![Partition {
                from: ProcessId(0),
                to: ProcessId(1),
                start_ms: 100,
                duration_ms: 50,
            }]
        );
        assert!(f.is_active());
        assert!(!NetFaults::none().is_active());
        assert!(NetFaults::parse("drop=1.5").is_err());
        assert!(NetFaults::parse("bogus=1").is_err());
        assert!(NetFaults::parse("part=0-1").is_err());
    }

    const A: ProcessId = ProcessId(0);
    const B: ProcessId = ProcessId(1);

    /// Two endpoints on direct mailboxes, and the test is the wire: what
    /// one sends sits in the other's inbox until the test hands it over
    /// (frames stamped [`Wire::At`] only once they are due), or loses it.
    struct Pair {
        a: Transport,
        b: Transport,
        inbox: [(Receiver<Wire>, TimerQueue<Frame>); 2],
    }

    fn pair(faults: NetFaults, latency: Duration) -> Pair {
        let (tx_a, rx_a) = unbounded::<Wire>();
        let (tx_b, rx_b) = unbounded::<Wire>();
        let net: Arc<Vec<Mailbox>> =
            Arc::new(vec![Mailbox::Direct(tx_a), Mailbox::Direct(tx_b)]);
        let start = Instant::now();
        let end = |me| Transport::open(me, faults.clone(), latency, start, net.clone());
        Pair {
            a: end(A),
            b: end(B),
            inbox: [rx_a, rx_b].map(|rx| (rx, TimerQueue::default())),
        }
    }

    /// The `i`-th message `A` sends: a payload that carries its own index.
    fn numbered(i: u32) -> Payload {
        Payload::Ctrl(Control::Commit(GuessId {
            process: A,
            incarnation: opcsp_core::Incarnation(0),
            index: i,
        }))
    }

    fn number(p: &Payload) -> u32 {
        match p {
            Payload::Ctrl(Control::Commit(g)) => g.index,
            other => panic!("unexpected payload {other:?}"),
        }
    }

    impl Pair {
        /// The frames that have arrived at `at` by now, in the order its
        /// actor would release them.
        fn arrived(&mut self, at: ProcessId) -> Vec<Frame> {
            let (rx, held) = &mut self.inbox[at.0 as usize];
            let now = Instant::now();
            for w in rx.try_iter() {
                match w {
                    Wire::Frame(f) => held.push(now, f),
                    Wire::At(due, f) => held.push(due, f),
                    other => panic!("only frames travel between transports, got {other:?}"),
                }
            }
            std::iter::from_fn(|| held.pop_due(now)).collect()
        }

        /// Deliver what has arrived at both ends, tick both, and give the
        /// wire a millisecond, until `b` has released `n` messages and `a`
        /// has everything acked. Returns what `b` released, in order.
        fn drive_until_delivered(&mut self, n: u64) -> Vec<u32> {
            let mut got = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.b.stats.frames_delivered < n || self.a.quiet_probe().2 > 0 {
                assert!(Instant::now() < deadline, "stuck: a {:?}, b {:?}", self.a.stats, self.b.stats);
                for f in self.arrived(B) {
                    got.extend(self.b.on_frame(f).iter().map(number));
                }
                for f in self.arrived(A) {
                    assert!(self.a.on_frame(f).is_empty(), "B sends nothing to release");
                }
                self.a.tick(Instant::now());
                self.b.tick(Instant::now());
                std::thread::sleep(Duration::from_millis(1));
            }
            got
        }
    }

    /// Transport pair on a lossy link: everything sent is released in
    /// order exactly once, with retransmits and dedup doing the work.
    #[test]
    fn transport_survives_drop_dup_reorder() {
        let faults = NetFaults {
            seed: 42,
            drop: 0.3,
            dup: 0.2,
            reorder: 4,
            partitions: vec![],
        };
        let mut p = pair(faults, Duration::from_millis(1));
        let n = 40;
        for i in 0..n {
            p.a.send(B, numbered(i));
        }
        let got = p.drive_until_delivered(n as u64);
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "in-order exactly-once release");
        assert!(p.a.stats.drops_injected > 0, "{:?}", p.a.stats);
        assert!(p.a.stats.dups_injected > 0, "{:?}", p.a.stats);
        assert!(p.a.stats.retransmits > 0, "{:?}", p.a.stats);
        assert!(p.b.stats.reorder_releases > 0, "{:?}", p.b.stats);
        assert!(p.b.stats.dup_frames > 0, "{:?}", p.b.stats);
    }

    /// Loss that later traffic reveals is repaired without the timer: the
    /// wire loses exactly the head of a 10-frame burst, the receiver acks
    /// every frame it has to buffer, the first such ack brings the head
    /// again, and the burst is released in order — one ack round trip,
    /// with no tick (so no timer) ever run.
    #[test]
    fn gap_is_repaired_by_the_acks_it_sets_off() {
        let t0 = Instant::now();
        let mut p = pair(NetFaults::none(), Duration::ZERO);
        for i in 0..10 {
            p.a.send(B, numbered(i));
        }
        let mut burst = p.arrived(B);
        assert_eq!(burst.len(), 10);
        burst.remove(0);
        for f in burst {
            assert!(p.b.on_frame(f).is_empty(), "nothing is released past a gap");
        }
        let gap_acks = p.arrived(A);
        assert_eq!(gap_acks.len(), 9, "one ack at once per frame buffered");
        for f in gap_acks {
            assert_eq!((f.ack, &f.msg), (0, &None), "an ordinary standalone ack");
            assert!(p.a.on_frame(f).is_empty());
        }
        let repair = p.arrived(B);
        assert_eq!(repair.len(), 1, "one repair per round trip, however many acks");
        assert_eq!(repair[0].msg.as_ref().map(|m| m.0), Some(0));
        assert_eq!(p.a.stats.retransmits, 1);
        let released: Vec<u32> = repair
            .into_iter()
            .flat_map(|f| p.b.on_frame(f))
            .map(|m| number(&m))
            .collect();
        assert_eq!(released, (0..10).collect::<Vec<_>>());
        assert_eq!(p.b.stats.reorder_releases, 9);
        assert_eq!(p.b.stats.dup_frames, 0);
        let link = &p.a.tx[&B];
        assert!(
            t0.elapsed() < link.rtt.rto(p.a.timers.rto_floor),
            "well inside the link's RTO"
        );

        // The ack that closes the gap retires a retransmitted head: no
        // round-trip sample (Karn), though nine fresh frames go with it.
        p.b.flush_acks();
        for f in p.arrived(A) {
            p.a.on_frame(f);
        }
        assert_eq!(p.a.quiet_probe(), (10, 0, 0));
        assert_eq!(p.a.tx[&B].rtt.srtt(), None);
        assert!(!p.a.needs_tick(), "timer stopped");
    }

    /// Loss that nothing reveals waits for the timer: a partition window
    /// eats the link's last (and only) frame, the link's conservative
    /// first RTO passes, the probe gets through. Its ack is no sample and
    /// does not end the backoff; the next frame's does both.
    #[test]
    fn tail_loss_is_repaired_by_the_timer() {
        let rto = rto_floor(Duration::ZERO) * BLIND_RTO_FLOORS;
        let faults = NetFaults {
            partitions: vec![Partition {
                from: A,
                to: B,
                start_ms: 0,
                duration_ms: rto.as_millis() as u64 / 2,
            }],
            ..NetFaults::default()
        };
        let t0 = Instant::now();
        let mut p = pair(faults, Duration::ZERO);
        p.a.send(B, numbered(0));
        assert_eq!(p.a.stats.drops_injected, 1, "eaten by the partition");
        assert_eq!(p.a.tx[&B].rtt.rto(p.a.timers.rto_floor), rto);

        assert_eq!(p.drive_until_delivered(1), vec![0]);
        assert!(t0.elapsed() >= rto, "only the timer could know");
        assert_eq!(p.a.stats.retransmits, 1, "{:?}", p.a.stats);
        assert_eq!(p.b.stats.acks, 1, "a tick-driven ack, no gap to report");
        let est = p.a.tx[&B].rtt;
        assert_eq!((est.srtt(), est.backoff), (None, 1));

        p.a.send(B, numbered(1));
        assert_eq!(p.drive_until_delivered(2), vec![1]);
        let est = p.a.tx[&B].rtt;
        assert!(est.srtt().is_some() && est.backoff == 0, "{est:?}");
        assert_eq!(p.a.stats.retransmits, 1);
    }

    /// The estimator alone: no sample, first sample, smoothing, and the
    /// granularity term that keeps a steady link's RTO a floor above its
    /// round trip.
    #[test]
    fn estimator_smooths_round_trips() {
        let ms = Duration::from_millis;
        let us = Duration::from_micros;
        let floor = ms(8);
        let mut e = RttEstimator::default();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.rto(floor), floor * BLIND_RTO_FLOORS, "conservative until measured");
        e.sample(ms(20));
        assert_eq!(e.srtt(), Some(ms(20)));
        assert_eq!(e.rto(floor), ms(20) + 4 * ms(10), "srtt = R, rttvar = R/2");
        e.sample(ms(28));
        assert_eq!(e.srtt(), Some(ms(21)), "7/8 old + 1/8 new");
        assert_eq!(e.rto(floor), ms(21) + 4 * us(9_500), "3/4 old + 1/4 |srtt - R|");
        for _ in 0..100 {
            e.sample(ms(20));
        }
        let steady = e.rto(floor);
        assert!(steady >= ms(20) + floor && steady < ms(21) + floor, "{steady:?}");
    }

    /// Doubling per expiry, up to the blind ceiling; kept until a fresh
    /// sample; never applied to a measured RTO already above the ceiling.
    #[test]
    fn estimator_backs_off_until_a_fresh_sample() {
        let ms = Duration::from_millis;
        let floor = ms(8);
        let ceiling = floor * BLIND_RTO_FLOORS;
        let mut e = RttEstimator::default();
        e.sample(ms(1));
        assert_eq!(e.rto(floor), ms(1) + floor);
        for doubled in [ms(18), ms(36), ms(72)] {
            e.on_expiry();
            assert_eq!(e.rto(floor), doubled.min(ceiling));
        }
        for _ in 0..1000 {
            e.on_expiry();
            assert_eq!(e.rto(floor), ceiling);
        }
        e.sample(ms(1));
        assert_eq!(e.rto(floor), ms(1) + floor, "a sample ends the backoff");

        let mut slow = RttEstimator::default();
        slow.sample(ms(100));
        assert_eq!(slow.rto(floor), ms(300));
        slow.on_expiry();
        assert_eq!(slow.rto(floor), ms(300), "already above the ceiling");

        let mut blind = RttEstimator::default();
        blind.on_expiry();
        assert_eq!(blind.rto(floor), ceiling);
    }

    #[test]
    fn estimator_clamps_to_floor_and_cap() {
        let floor = Duration::from_millis(8);
        let mut e = RttEstimator::default();
        e.sample(Duration::ZERO);
        assert_eq!(e.rto(floor), floor);
        e = RttEstimator::default();
        e.sample(Duration::from_secs(3600 * 24 * 365));
        assert_eq!(e.rto(floor), RTO_CAP);
        // A wire slower than the cap: the floor wins.
        let slow_floor = rto_floor(Duration::from_secs(1));
        assert_eq!(e.rto(slow_floor), slow_floor);
    }

    /// A frame stranded behind a long partition keeps retransmitting far
    /// past the point where doubling overflows an unclamped shift. Drive
    /// the backoff through 40+ retransmit attempts (and on past u32 shift
    /// width): every delay must stay within [rto, cap], be monotonically
    /// non-decreasing, and reach the cap — with no overflow panic in debug
    /// builds.
    #[test]
    fn backoff_survives_40_plus_retransmits() {
        let rto = Duration::from_millis(8);
        let cap = Duration::from_millis(500);
        let mut prev = Duration::ZERO;
        for attempts in 0..=100u32 {
            let d = retransmit_backoff(rto, cap, attempts);
            assert!(d >= rto && d <= cap, "attempt {attempts}: {d:?}");
            assert!(d >= prev, "attempt {attempts}: backoff regressed");
            prev = d;
        }
        assert_eq!(retransmit_backoff(rto, cap, 40), cap);
        assert_eq!(retransmit_backoff(rto, cap, u32::MAX), cap);
        // Degenerate configs stay sane too: cap below rto pins at rto.
        let tiny = retransmit_backoff(rto, Duration::from_millis(1), 50);
        assert_eq!(tiny, rto);
    }
}
