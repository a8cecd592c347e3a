//! Multi-process socket transport (DESIGN.md §13).
//!
//! [`RtTransport::Socket`] splits a world's pid space across separate OS
//! processes connected over TCP or a Unix-domain socket. This module is
//! the framing and the two roles' plumbing; it hosts no actor and
//! coordinates nothing itself.
//!
//! One process is the **parent** (hub): it binds the listener, validates
//! the worker handshake, builds the pid → connection routing table, starts
//! one reader per connection, and hands the run to the same
//! `runtime::coordinate` the in-proc runtime calls — as a `Hosts` whose
//! probe and shutdown are `SockMsg`s on the worker connections and whose
//! reap joins the readers. Each **worker** owns a contiguous pid range
//! and is `executor::spawn_world` on that tile — under whichever
//! [`RtConfig::executor`] says, exactly as in-proc — plus framing:
//! envelopes leaving the range are serialized with the binary frame codec
//! (`core::wire::encode_frame`) and shipped through the parent, the
//! parent's stream is demultiplexed into the local world.
//!
//! The reliable sublayer ([`crate::net::Transport`]) and the chaos layer
//! run *inside each actor*, unchanged: the socket only replaces the
//! in-memory channel hop between two actors' transports, so per-link
//! sequencing, acks, retransmission, and fault injection all carry over
//! — and with them the oracle: a socket run's committed schedule is
//! replayed on the pessimistic simulator like any other run's.
//!
//! Wire protocol: every message is `u32le len | version | tag | body`
//! (little-endian length excludes itself; same `FRAME_VERSION` and size
//! cap as envelope frames). Handshake: each worker connects and sends
//! `Hello{index, workers, n, lo, hi}` claiming the pid range `lo..hi`;
//! the parent verifies the ranges tile `0..n` exactly and broadcasts
//! `Start`; either side waits for the other with one backoff (`wait_for`),
//! never a fixed nap. The hop costs few syscalls (DESIGN.md §13.2): after
//! the handshake every connection is read through a `BufReader`, a
//! worker's pumps send all that is queued in one write, and the hub
//! decodes each message only to validate and route it, relaying a `Net`
//! message as the bytes it arrived as. Failure semantics: an actor that
//! panics is reported by its worker like any other (`Report::Panicked`);
//! a connection that reaches EOF without a prior `Bye` is a crashed worker
//! — every pid it owned that has not produced a final report is recorded
//! as panicked ("worker connection lost"). Malformed messages are treated
//! as connection loss, never a panic. Telemetry event streams are not
//! shipped over the socket (documented limitation): `RtResult::telemetry`
//! is empty under this transport.

use crate::core_poll::{FinalReport, Report};
use crate::executor::{spawn_world, WorldSpec};
use crate::net::{recv_until, Frame, Payload, TimerQueue};
use crate::runtime::{
    coordinate, join_budget, join_by, Hosts, RtConfig, RtResult, RtStats, RtWorld,
};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
#[cfg(test)]
use opcsp_core::Value;
use opcsp_core::{
    decode_control_frame, decode_frame, encode_control_frame, encode_frame, get_value,
    parse_frame_len, put_uvarint, put_value, seal_frame_len, FrameError, FrameReader, ProcessId,
    FRAME_VERSION,
};
use opcsp_sim::{ObsKind, Observable};
use std::collections::BTreeSet;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the world's processes physically live (DESIGN.md §13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtTransport {
    /// Every actor in this OS process, over in-memory channels (default).
    InProc,
    /// Pid space split across OS processes connected via `addr`.
    Socket { addr: SockAddr, role: SockRole },
}

/// A socket endpoint: TCP (`tcp:host:port`) or Unix-domain (`uds:/path`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockAddr {
    Tcp(String),
    #[cfg(unix)]
    Uds(PathBuf),
}

impl SockAddr {
    /// Parse an endpoint spec. Explicit prefixes `tcp:` / `uds:` always
    /// win; a bare spec containing a `:` and no `/` is taken as TCP
    /// (`host:port`), anything else as a Unix-socket path.
    pub fn parse(s: &str) -> Result<SockAddr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest.is_empty() {
                return Err("socket address: empty tcp endpoint".into());
            }
            return Ok(SockAddr::Tcp(rest.to_string()));
        }
        if let Some(rest) = s.strip_prefix("uds:") {
            return uds_addr(rest);
        }
        if s.is_empty() {
            return Err("socket address: empty endpoint".into());
        }
        if s.contains(':') && !s.contains('/') {
            Ok(SockAddr::Tcp(s.to_string()))
        } else {
            uds_addr(s)
        }
    }
}

#[cfg(unix)]
fn uds_addr(path: &str) -> Result<SockAddr, String> {
    if path.is_empty() {
        return Err("socket address: empty unix socket path".into());
    }
    Ok(SockAddr::Uds(PathBuf::from(path)))
}

#[cfg(not(unix))]
fn uds_addr(_path: &str) -> Result<SockAddr, String> {
    Err("socket address: unix sockets are not supported on this platform".into())
}

impl std::fmt::Display for SockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SockAddr::Tcp(a) => write!(f, "tcp:{a}"),
            #[cfg(unix)]
            SockAddr::Uds(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

/// Which side of the socket runtime this process plays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockRole {
    /// Bind, accept `workers` connections, coordinate, and route.
    Parent { workers: usize },
    /// Connect and host pid range `index*n/workers .. (index+1)*n/workers`.
    Worker { index: usize, workers: usize },
}

// ---------------------------------------------------------------------------
// Streams and listeners (TCP | UDS unified)
// ---------------------------------------------------------------------------

/// `$body` with `$s` bound to the socket inside `$sock`, a `$Kind`
/// ([`SockStream`] or [`SockListener`]: the same two variants).
macro_rules! on_socket {
    ($Kind:ident, $sock:expr, $s:ident => $body:expr) => {
        match $sock {
            $Kind::Tcp($s) => $body,
            #[cfg(unix)]
            $Kind::Uds($s) => $body,
        }
    };
}

enum SockStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl SockStream {
    fn connect(addr: &SockAddr) -> io::Result<SockStream> {
        match addr {
            SockAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(SockStream::Tcp(s))
            }
            #[cfg(unix)]
            SockAddr::Uds(p) => Ok(SockStream::Uds(UnixStream::connect(p)?)),
        }
    }

    fn try_clone(&self) -> io::Result<SockStream> {
        match self {
            SockStream::Tcp(s) => Ok(SockStream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            SockStream::Uds(s) => Ok(SockStream::Uds(s.try_clone()?)),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        on_socket!(SockStream, self, s => s.set_read_timeout(t))
    }

    fn shutdown(&self) {
        let _ = on_socket!(SockStream, self, s => s.shutdown(std::net::Shutdown::Both));
    }
}

impl Read for SockStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_socket!(SockStream, self, s => s.read(buf))
    }
}

impl Write for SockStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_socket!(SockStream, self, s => s.write(buf))
    }
    fn flush(&mut self) -> io::Result<()> {
        on_socket!(SockStream, self, s => s.flush())
    }
}

enum SockListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

impl SockListener {
    fn bind(addr: &SockAddr) -> io::Result<SockListener> {
        match addr {
            SockAddr::Tcp(a) => Ok(SockListener::Tcp(TcpListener::bind(a)?)),
            #[cfg(unix)]
            SockAddr::Uds(p) => {
                // A stale socket file from a previous run blocks the bind.
                let _ = std::fs::remove_file(p);
                Ok(SockListener::Uds(UnixListener::bind(p)?))
            }
        }
    }

    /// Accept one connection, waiting for it until `deadline`.
    fn accept_deadline(&self, deadline: Instant) -> io::Result<SockStream> {
        on_socket!(SockListener, self, l => l.set_nonblocking(true))?;
        let would_block = |e: &io::Error| e.kind() == io::ErrorKind::WouldBlock;
        let got = wait_for(deadline, would_block, || match self {
            SockListener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                SockStream::Tcp(s)
            }),
            #[cfg(unix)]
            SockListener::Uds(l) => l.accept().map(|(s, _)| SockStream::Uds(s)),
        });
        on_socket!(SockListener, self, l => l.set_nonblocking(false))?;
        let timed_out = "no worker connected before the deadline";
        let s = got.map_err(|e| match would_block(&e) {
            true => io::Error::new(io::ErrorKind::TimedOut, timed_out),
            false => e,
        })?;
        // The stream inherits the listener's nonblocking flag on some
        // platforms; force it off.
        on_socket!(SockStream, &s, s => s.set_nonblocking(false))?;
        Ok(s)
    }
}

/// The `k`-th nap between two tries at reaching a peer, `left` before the
/// deadline: 50 µs, doubling up to a 10 ms cap, never past the deadline.
fn nap(k: u32, left: Duration) -> Duration {
    Duration::from_micros(50 << k.min(8))
        .min(Duration::from_millis(10))
        .min(left)
}

/// The one way this module waits for a peer — a worker for the hub's
/// listener, the hub for a worker's connection: try `attempt` until it
/// succeeds or fails in a way `retry` does not accept, napping in between.
/// Once `deadline` has passed, the last error is the answer.
fn wait_for<T>(
    deadline: Instant,
    retry: impl Fn(&io::Error) -> bool,
    mut attempt: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut k = 0;
    loop {
        match attempt() {
            Err(e) if retry(&e) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(e);
                }
                std::thread::sleep(nap(k, left));
                k += 1;
            }
            done => return done,
        }
    }
}

// ---------------------------------------------------------------------------
// Socket message codec
// ---------------------------------------------------------------------------

/// Everything that crosses a parent↔worker connection.
#[derive(Debug, PartialEq)]
enum SockMsg {
    /// Worker → parent: claim pid range `lo..hi` of an `n`-process world.
    Hello {
        index: u64,
        workers: u64,
        n: u64,
        lo: u64,
        hi: u64,
    },
    /// Parent → workers: handshake complete, start the actors.
    Start,
    /// A reliable-sublayer frame in either direction (worker → parent →
    /// owning worker).
    Net(Frame),
    /// Parent → workers: quiescence probe round; fan out locally.
    Probe(u64),
    /// Parent → workers: halt, finalize, report.
    Shutdown,
    /// Worker → parent: a coordinator report from a local actor.
    Report(Report),
    /// Worker → parent: clean goodbye; EOF after this is not a crash.
    Bye,
}

const TAG_HELLO: u8 = 0;
const TAG_START: u8 = 1;
const TAG_NET: u8 = 2;
const TAG_PROBE: u8 = 3;
const TAG_SHUTDOWN: u8 = 4;
const TAG_REPORT: u8 = 5;
const TAG_BYE: u8 = 6;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut FrameReader<'_>) -> Result<String, FrameError> {
    let len = r.uv32("string length")? as usize;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8)
}

fn put_pid(buf: &mut Vec<u8>, p: ProcessId) {
    put_uvarint(buf, p.0 as u64);
}

fn get_pid(r: &mut FrameReader<'_>) -> Result<ProcessId, FrameError> {
    Ok(ProcessId(r.uv32("process id")?))
}

fn put_observable(buf: &mut Vec<u8>, o: &Observable) {
    let kind_byte = |k: &ObsKind| match k {
        ObsKind::Send => 0u8,
        ObsKind::Call => 1,
        ObsKind::Return => 2,
    };
    match o {
        Observable::Sent { to, kind, payload } => {
            buf.push(0);
            put_pid(buf, *to);
            buf.push(kind_byte(kind));
            put_value(buf, payload);
        }
        Observable::Received {
            from,
            kind,
            payload,
        } => {
            buf.push(1);
            put_pid(buf, *from);
            buf.push(kind_byte(kind));
            put_value(buf, payload);
        }
        Observable::Output { payload } => {
            buf.push(2);
            put_value(buf, payload);
        }
    }
}

fn get_observable(r: &mut FrameReader<'_>) -> Result<Observable, FrameError> {
    let get_kind = |r: &mut FrameReader<'_>| -> Result<ObsKind, FrameError> {
        match r.u8()? {
            0 => Ok(ObsKind::Send),
            1 => Ok(ObsKind::Call),
            2 => Ok(ObsKind::Return),
            tag => Err(FrameError::BadTag {
                what: "observable kind",
                tag,
            }),
        }
    };
    match r.u8()? {
        0 => Ok(Observable::Sent {
            to: get_pid(r)?,
            kind: get_kind(r)?,
            payload: get_value(r)?,
        }),
        1 => Ok(Observable::Received {
            from: get_pid(r)?,
            kind: get_kind(r)?,
            payload: get_value(r)?,
        }),
        2 => Ok(Observable::Output {
            payload: get_value(r)?,
        }),
        tag => Err(FrameError::BadTag {
            what: "observable",
            tag,
        }),
    }
}

/// The 17 counters of an [`RtStats`] in their wire order, one uvarint
/// each: the one list both directions of the codec read.
fn stats_fields(s: &mut RtStats) -> [&mut u64; 17] {
    let p = &mut s.proto;
    [
        &mut p.forks,
        &mut p.commits,
        &mut p.aborts,
        &mut p.rollbacks,
        &mut p.discarded_threads,
        &mut p.orphans,
        &mut p.data_messages,
        &mut p.control_messages,
        &mut p.guard_bytes,
        &mut s.drops_injected,
        &mut s.dups_injected,
        &mut s.retransmits,
        &mut s.acks,
        &mut s.reorder_releases,
        &mut s.frames_sent,
        &mut s.frames_delivered,
        &mut s.dup_frames,
    ]
}

/// Append one message, length prefix included, to `buf`.
fn encode_msg(buf: &mut Vec<u8>, m: &SockMsg) {
    let at = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, FRAME_VERSION]);
    match m {
        SockMsg::Hello {
            index,
            workers,
            n,
            lo,
            hi,
        } => {
            buf.push(TAG_HELLO);
            for v in [*index, *workers, *n, *lo, *hi] {
                put_uvarint(buf, v);
            }
        }
        SockMsg::Start => buf.push(TAG_START),
        SockMsg::Net(f) => {
            buf.push(TAG_NET);
            put_pid(buf, f.from);
            put_pid(buf, f.to);
            put_uvarint(buf, f.ack);
            match &f.msg {
                None => buf.push(0),
                Some((seq, payload)) => {
                    buf.push(1);
                    put_uvarint(buf, *seq);
                    // The payload rides as a complete nested envelope /
                    // control frame — the codec fuzzed in
                    // `core/tests/frame_codec.rs` is the codec on this
                    // wire.
                    match payload {
                        Payload::Data(e) => {
                            buf.push(0);
                            buf.extend_from_slice(&encode_frame(e));
                        }
                        Payload::Ctrl(c) => {
                            buf.push(1);
                            buf.extend_from_slice(&encode_control_frame(c));
                        }
                    }
                }
            }
        }
        SockMsg::Probe(round) => {
            buf.push(TAG_PROBE);
            put_uvarint(buf, *round);
        }
        SockMsg::Shutdown => buf.push(TAG_SHUTDOWN),
        SockMsg::Report(r) => {
            buf.push(TAG_REPORT);
            match r {
                Report::ClientDone(pid) => {
                    buf.push(0);
                    put_pid(buf, *pid);
                }
                Report::Quiet {
                    pid,
                    round,
                    sent,
                    delivered,
                    unacked,
                } => {
                    buf.push(1);
                    put_pid(buf, *pid);
                    for v in [*round, *sent, *delivered, *unacked] {
                        put_uvarint(buf, v);
                    }
                }
                Report::Panicked { pid, msg } => {
                    buf.push(2);
                    put_pid(buf, *pid);
                    put_str(buf, msg);
                }
                Report::Final(f) => {
                    buf.push(3);
                    put_pid(buf, f.pid);
                    for v in stats_fields(&mut f.stats.clone()) {
                        put_uvarint(buf, *v);
                    }
                    put_uvarint(buf, f.log.len() as u64);
                    for o in &f.log {
                        put_observable(buf, o);
                    }
                    put_uvarint(buf, f.external.len() as u64);
                    for v in &f.external {
                        put_value(buf, v);
                    }
                    // Telemetry events deliberately not shipped (module
                    // doc): `f.events` stays local to the worker.
                }
            }
        }
        SockMsg::Bye => buf.push(TAG_BYE),
    }
    seal_frame_len(&mut buf[at..]);
}

/// Decode one length-stripped message body (`version | tag | body`).
/// Untrusted input: every claimed count is bounds-checked against the
/// remaining bytes by the readers, so a hostile length never allocates.
fn decode_msg(body: &[u8]) -> Result<SockMsg, FrameError> {
    let mut r = FrameReader::new(body);
    let version = r.u8()?;
    if version != FRAME_VERSION {
        return Err(FrameError::UnknownVersion(version));
    }
    let tag = r.u8()?;
    let msg = match tag {
        TAG_HELLO => SockMsg::Hello {
            index: r.uv()?,
            workers: r.uv()?,
            n: r.uv()?,
            lo: r.uv()?,
            hi: r.uv()?,
        },
        TAG_START => SockMsg::Start,
        TAG_NET => {
            let from = get_pid(&mut r)?;
            let to = get_pid(&mut r)?;
            let ack = r.uv()?;
            let msg = match r.u8()? {
                0 => None,
                1 => {
                    let seq = r.uv()?;
                    let payload = match r.u8()? {
                        0 => {
                            let (e, used) = decode_frame(r.tail())?;
                            r.advance(used)?;
                            Payload::Data(e)
                        }
                        1 => {
                            let (c, used) = decode_control_frame(r.tail())?;
                            r.advance(used)?;
                            Payload::Ctrl(c)
                        }
                        tag => {
                            return Err(FrameError::BadTag {
                                what: "net payload",
                                tag,
                            })
                        }
                    };
                    Some((seq, payload))
                }
                tag => {
                    return Err(FrameError::BadTag {
                        what: "net msg flag",
                        tag,
                    })
                }
            };
            SockMsg::Net(Frame { from, to, ack, msg })
        }
        TAG_PROBE => SockMsg::Probe(r.uv()?),
        TAG_SHUTDOWN => SockMsg::Shutdown,
        TAG_REPORT => {
            let rtag = r.u8()?;
            let report = match rtag {
                0 => Report::ClientDone(get_pid(&mut r)?),
                1 => Report::Quiet {
                    pid: get_pid(&mut r)?,
                    round: r.uv()?,
                    sent: r.uv()?,
                    delivered: r.uv()?,
                    unacked: r.uv()?,
                },
                2 => Report::Panicked {
                    pid: get_pid(&mut r)?,
                    msg: get_str(&mut r)?,
                },
                3 => {
                    let pid = get_pid(&mut r)?;
                    let mut stats = RtStats::default();
                    for v in stats_fields(&mut stats) {
                        *v = r.uv()?;
                    }
                    let nlog = r.uv32("log length")? as usize;
                    let mut log = Vec::new();
                    for _ in 0..nlog {
                        log.push(get_observable(&mut r)?);
                    }
                    let next = r.uv32("external length")? as usize;
                    let mut external = Vec::new();
                    for _ in 0..next {
                        external.push(get_value(&mut r)?);
                    }
                    Report::Final(Box::new(FinalReport {
                        pid,
                        stats,
                        log,
                        external,
                        events: Vec::new(),
                    }))
                }
                tag => {
                    return Err(FrameError::BadTag {
                        what: "report",
                        tag,
                    })
                }
            };
            SockMsg::Report(report)
        }
        TAG_BYE => SockMsg::Bye,
        tag => {
            return Err(FrameError::BadTag {
                what: "socket message",
                tag,
            })
        }
    };
    if r.remaining() > 0 {
        return Err(FrameError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(msg)
}

/// Read one message, and nothing past it, leaving its bytes (length prefix
/// included) in `raw`. `Ok(None)` is a clean EOF *between* messages; EOF
/// mid-message and malformed bodies are errors (connection loss).
fn read_msg(stream: &mut impl Read, raw: &mut Vec<u8>) -> io::Result<Option<SockMsg>> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut len_bytes[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside a message header",
                ))
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // The 16 MiB cap and the zero-length rejection come from the shared
    // header parser — one policy for every length prefix on any wire.
    let len = parse_frame_len(len_bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    raw.clear();
    raw.extend_from_slice(&len_bytes);
    raw.resize(4 + len, 0);
    stream.read_exact(&mut raw[4..])?;
    decode_msg(&raw[4..])
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Whether `buf` begins with a whole message, so reading it cannot block.
fn holds_whole_msg(buf: &[u8]) -> bool {
    buf.len() >= 4 && buf.len() - 4 >= u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
}

fn write_msg(stream: &Writer, m: &SockMsg) -> io::Result<()> {
    let mut bytes = Vec::new();
    encode_msg(&mut bytes, m);
    write_bytes(stream, &bytes)
}

/// Write whole messages in one go, under the writer's lock: two threads'
/// batches to one connection never interleave.
fn write_bytes(stream: &Writer, bytes: &[u8]) -> io::Result<()> {
    let mut s = stream.lock().unwrap_or_else(|p| p.into_inner());
    s.write_all(bytes)?;
    s.flush()
}

/// Most bytes a worker pump gathers into one write, so memory stays bounded.
const MAX_BATCH: usize = 64 << 10;

/// Pid range owned by worker `index` of `workers`: contiguous tiles so
/// the parent can validate coverage of `0..n` by simple concatenation.
fn worker_range(index: usize, workers: usize, n: usize) -> (usize, usize) {
    (index * n / workers, (index + 1) * n / workers)
}

// ---------------------------------------------------------------------------
// Entry
// ---------------------------------------------------------------------------

/// Run a socket-transport world. Dispatched from [`RtWorld::run`].
pub(crate) fn run_socket(world: RtWorld, addr: SockAddr, role: SockRole) -> RtResult {
    match role {
        SockRole::Parent { workers } => run_parent(world, &addr, workers),
        SockRole::Worker { index, workers } => run_worker(world, &addr, index, workers),
    }
}

fn empty_result(start: Instant, timed_out: bool) -> RtResult {
    RtResult {
        wall: start.elapsed(),
        timed_out,
        ..RtResult::default()
    }
}

// ---------------------------------------------------------------------------
// Parent (hub)
// ---------------------------------------------------------------------------

/// Per-connection reader shared state the parent consults after the run.
#[derive(Default)]
struct ConnState {
    /// Pids whose `Final` or `Panicked` already crossed this connection —
    /// an EOF-without-`Bye` must not re-report those as crashed.
    reported: Mutex<BTreeSet<ProcessId>>,
    saw_bye: AtomicBool,
}

type Writer = Arc<Mutex<SockStream>>;

/// The hub as the coordinator sees it ([`Hosts`]): signals fan out as
/// messages on the worker connections (each worker fans them out to its
/// local actors), and what is left to join at the end is the connection
/// readers, which exit on `Bye` or EOF.
struct Hub {
    /// By worker index; `None` is a worker lost in the handshake.
    writers: Vec<Option<Writer>>,
    readers: Vec<(usize, JoinHandle<()>, Arc<ConnState>)>,
}

impl Hub {
    fn broadcast(&self, m: &SockMsg) {
        for wr in self.writers.iter().flatten() {
            // A broken connection is the reader's to report: it sees the
            // same EOF and attributes the pid range.
            let _ = write_msg(wr, m);
        }
    }
}

impl Hosts for Hub {
    fn probe(&self, round: u64) {
        self.broadcast(&SockMsg::Probe(round));
    }

    fn shutdown(&self) {
        self.broadcast(&SockMsg::Shutdown);
    }

    fn reap(self, deadline: Instant) {
        for (w, h, state) in self.readers {
            if !join_by(h, deadline) {
                // A wedged connection: its unreported pids are stragglers,
                // not crashes. Closing the socket lets the detached reader
                // exit.
                state.saw_bye.store(true, Ordering::Relaxed);
                if let Some(wr) = &self.writers[w] {
                    wr.lock().unwrap_or_else(|p| p.into_inner()).shutdown();
                }
            }
        }
    }
}

/// Accept `workers` connections and read each one's `Hello`, checking
/// that the claimed ranges tile `0..n` exactly — a version-skewed or
/// misnumbered worker is caught here, before any actor runs. A connection
/// that dies mid-handshake (EOF, I/O error, or garbage before a
/// well-formed Hello) is a crashed *worker*, not a lost world: its slot
/// stays `None`. A well-formed but *wrong* Hello is config/version skew:
/// every worker was launched from the same spec, so the whole world is
/// suspect and the result is `None`.
fn handshake(
    listener: &SockListener,
    workers: usize,
    n: usize,
    deadline: Instant,
) -> Option<Vec<Option<SockStream>>> {
    let mut conns: Vec<Option<SockStream>> = (0..workers).map(|_| None).collect();
    for _ in 0..workers {
        let mut s = match listener.accept_deadline(deadline) {
            Ok(s) => s,
            Err(e) => {
                // A worker died before it ever connected: stop waiting;
                // every still-unclaimed slot gets attributed.
                eprintln!("rt::sock parent: accept: {e}");
                break;
            }
        };
        // Unbuffered: what follows the Hello is the connection reader's.
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let hello = read_msg(&mut s, &mut Vec::new());
        let _ = s.set_read_timeout(None);
        match hello {
            Ok(Some(SockMsg::Hello {
                index,
                workers: w,
                n: wn,
                lo,
                hi,
            })) => {
                let idx = index as usize;
                let (want_lo, want_hi) = worker_range(idx, workers, n);
                let ok = w as usize == workers
                    && wn as usize == n
                    && idx < workers
                    && lo as usize == want_lo
                    && hi as usize == want_hi
                    && conns[idx.min(workers - 1)].is_none();
                if !ok {
                    eprintln!(
                        "rt::sock parent: bad hello (index {index}, workers {w}, n {wn}, \
                         range {lo}..{hi}; expected workers {workers}, n {n}, \
                         range {want_lo}..{want_hi})"
                    );
                    return None;
                }
                conns[idx] = Some(s);
            }
            other => {
                eprintln!(
                    "rt::sock parent: worker connection lost during handshake \
                     (expected hello, got {other:?})"
                );
            }
        }
    }
    Some(conns)
}

fn run_parent(world: RtWorld, addr: &SockAddr, workers: usize) -> RtResult {
    let n = world.behaviors.len();
    let clients = world.clients();
    // Telemetry stops at the socket (module doc): finals arrive without
    // their events, so the hub collects none.
    let cfg = RtConfig {
        telemetry: false,
        ..world.cfg
    };
    let start = Instant::now();
    let workers = workers.max(1).min(n.max(1));

    let listener = match SockListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("rt::sock parent: bind {addr}: {e}");
            return empty_result(start, true);
        }
    };
    let Some(conns) = handshake(&listener, workers, n, start + cfg.run_timeout) else {
        return empty_result(start, true);
    };

    // Split every live connection into a shared writer half and a reader
    // half *before* spawning any reader: a reader routes frames to
    // arbitrary sibling writers, so it must capture the complete table.
    // Dead slots stay `None` — frames routed to them are dropped (their
    // owners are dead).
    let mut writers: Vec<Option<Writer>> = Vec::with_capacity(workers);
    let mut reader_streams: Vec<Option<SockStream>> = Vec::with_capacity(workers);
    for (w, conn) in conns.into_iter().enumerate() {
        let halves = conn.and_then(|conn| match conn.try_clone() {
            Ok(r) => Some((Arc::new(Mutex::new(conn)), r)),
            Err(e) => {
                eprintln!("rt::sock parent: clone conn {w}: {e} (treating worker as lost)");
                None
            }
        });
        let (writer, reader) = halves.unzip();
        writers.push(writer);
        reader_streams.push(reader);
    }
    // Routing table: pid → owning connection, from the contiguous tiling.
    let owner: Vec<usize> = (0..workers)
        .flat_map(|w| {
            let (lo, hi) = worker_range(w, workers, n);
            std::iter::repeat_n(w, hi - lo)
        })
        .collect();
    let (report_tx, reports) = unbounded::<Report>();
    let mut readers = Vec::with_capacity(workers);
    for (w, reader) in reader_streams.into_iter().enumerate() {
        let (lo, hi) = worker_range(w, workers, n);
        let Some(reader) = reader else {
            for pid in lo..hi {
                let _ = report_tx.send(Report::Panicked {
                    pid: ProcessId(pid as u32),
                    msg: format!("worker connection {w} lost during handshake"),
                });
            }
            continue;
        };
        let state = Arc::new(ConnState::default());
        let conn = Conn {
            index: w,
            owner: owner.clone(),
            writers: writers.clone(),
            report: report_tx.clone(),
            state: state.clone(),
            pids: lo..hi,
        };
        let handle = std::thread::Builder::new()
            .name(format!("opcsp-sock-conn-{w}"))
            .spawn(move || parent_reader(reader, conn))
            .expect("spawn parent reader");
        readers.push((w, handle, state));
    }
    drop(report_tx);

    let hub = Hub { writers, readers };
    hub.broadcast(&SockMsg::Start);
    let result = coordinate(hub, reports, n, clients, &cfg, start);
    #[cfg(unix)]
    if let SockAddr::Uds(p) = addr {
        let _ = std::fs::remove_file(p);
    }
    result
}

/// What one parent-side connection reader works with.
struct Conn {
    index: usize,
    owner: Vec<usize>,
    writers: Vec<Option<Writer>>,
    report: Sender<Report>,
    state: Arc<ConnState>,
    /// The pid range this connection's worker claimed.
    pids: Range<usize>,
}

/// One parent-side connection reader: routes frames to owners, forwards
/// reports, and converts an EOF-without-Bye into synthetic panics for the
/// connection's unreported pids.
///
/// Every message is decoded, so a malformed one is this connection's loss
/// and never reaches a sibling (DESIGN.md §13.3). A valid `Net` message is
/// relayed as the bytes it arrived as, appended in stream order to its
/// destination's buffer; the buffers go out before any read that could
/// block and before a report is forwarded.
fn parent_reader(stream: SockStream, conn: Conn) {
    let reported = || {
        conn.state
            .reported
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    };
    let mut pending: Vec<Vec<u8>> = vec![Vec::new(); conn.writers.len()];
    let relay = |pending: &mut Vec<Vec<u8>>| {
        for (bytes, wr) in pending.iter_mut().zip(&conn.writers) {
            if let (false, Some(wr)) = (bytes.is_empty(), wr) {
                // A broken destination is its own reader's to report.
                let _ = write_bytes(wr, bytes);
            }
            bytes.clear();
        }
    };
    let mut stream = BufReader::new(stream);
    let mut raw = Vec::new();
    loop {
        if !holds_whole_msg(stream.buffer()) {
            relay(&mut pending);
        }
        match read_msg(&mut stream, &mut raw) {
            Ok(Some(SockMsg::Net(f))) => {
                // An out-of-range target, or one whose worker was lost
                // during the handshake (`None` writer, which `relay`
                // skips): drop, never panic.
                if let Some(&w) = conn.owner.get(f.to.0 as usize) {
                    pending[w].extend_from_slice(&raw);
                }
            }
            Ok(Some(SockMsg::Report(r))) => {
                relay(&mut pending);
                match &r {
                    Report::Final(f) => {
                        reported().insert(f.pid);
                    }
                    Report::Panicked { pid, .. } => {
                        reported().insert(*pid);
                    }
                    _ => {}
                }
                if conn.report.send(r).is_err() {
                    break;
                }
            }
            Ok(Some(SockMsg::Bye)) => {
                conn.state.saw_bye.store(true, Ordering::Relaxed);
                break;
            }
            Ok(Some(_)) => {} // Hello/Start/Probe/Shutdown: not parent-bound
            Ok(None) | Err(_) => break,
        }
    }
    relay(&mut pending);
    if !conn.state.saw_bye.load(Ordering::Relaxed) {
        // Worker crashed (or the link did): every owned pid that never
        // reported is gone with it.
        let reported = reported().clone();
        for pid in conn.pids.clone().map(|p| ProcessId(p as u32)) {
            if !reported.contains(&pid) {
                let _ = conn.report.send(Report::Panicked {
                    pid,
                    msg: format!("worker connection {} lost", conn.index),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// A worker's outbound half: everything `rx` yields goes to the hub as the
/// message `wrap` makes of it, once the instant `wrap` gives it has come.
/// A frame's transit time ends here, not at the receiver, because an
/// `Instant` means nothing in another OS process. What is due together
/// rides in one write, up to `MAX_BATCH` bytes. When every sender is gone
/// the pump writes all it still holds — the teardown flush — and exits; a
/// broken connection ends it at once.
fn pump<T: Send + 'static>(
    name: String,
    rx: Receiver<T>,
    writer: Writer,
    wrap: fn(T) -> (Instant, SockMsg),
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let mut held = TimerQueue::default();
            let mut batch = Vec::new();
            let mut open = true;
            while open {
                match recv_until(&rx, held.next_due()) {
                    Ok(item) => {
                        for (at, m) in std::iter::once(item).chain(rx.try_iter()).map(wrap) {
                            held.push(at, m);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => open = false,
                }
                let now = Instant::now();
                loop {
                    batch.clear();
                    while batch.len() < MAX_BATCH {
                        let next = if open {
                            held.pop_due(now)
                        } else {
                            held.pop_any()
                        };
                        let Some(m) = next else { break };
                        encode_msg(&mut batch, &m);
                    }
                    if batch.is_empty() {
                        break;
                    }
                    if write_bytes(&writer, &batch).is_err() {
                        return;
                    }
                }
            }
        })
        .expect("spawn socket pump")
}

/// A worker is [`spawn_world`] on its tile plus framing: handshake,
/// demultiplex the hub's stream into the local world, pump frames and
/// reports out, say `Bye`.
fn run_worker(world: RtWorld, addr: &SockAddr, index: usize, workers: usize) -> RtResult {
    let n = world.behaviors.len();
    let cfg = Arc::new(world.cfg);
    let start = Instant::now();
    let workers = workers.max(1).min(n.max(1));
    if index >= workers {
        // A worker index beyond the (pid-clamped) worker count owns no
        // pids; nothing to host.
        return empty_result(start, false);
    }
    let (lo, hi) = worker_range(index, workers, n);

    // The hub may not have bound yet when a spawned worker starts.
    let connect = || SockStream::connect(addr);
    let stream = match wait_for(Instant::now() + Duration::from_secs(10), |_| true, connect) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rt::sock worker {index}: connect {addr}: {e}");
            return empty_result(start, true);
        }
    };
    let writer: Writer = Arc::new(Mutex::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rt::sock worker {index}: clone: {e}");
            return empty_result(start, true);
        }
    }));
    if let Err(e) = write_msg(
        &writer,
        &SockMsg::Hello {
            index: index as u64,
            workers: workers as u64,
            n: n as u64,
            lo: lo as u64,
            hi: hi as u64,
        },
    ) {
        eprintln!("rt::sock worker {index}: hello: {e}");
        return empty_result(start, true);
    }

    // Handshake: wait for Start. A sibling that got its Start first may
    // already be sending; those frames wait until our actors exist. All
    // the hub sends is read through one buffer.
    let mut early: Vec<Frame> = Vec::new();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut stream = BufReader::new(stream);
    let mut raw = Vec::new();
    loop {
        match read_msg(&mut stream, &mut raw) {
            Ok(Some(SockMsg::Start)) => break,
            Ok(Some(SockMsg::Net(f))) => early.push(f),
            Ok(Some(SockMsg::Shutdown)) | Ok(None) => return empty_result(start, false),
            Ok(Some(_)) => {}
            Err(e) => {
                eprintln!("rt::sock worker {index}: handshake: {e}");
                return empty_result(start, true);
            }
        }
    }
    let _ = stream.get_ref().set_read_timeout(None);

    let (frames_tx, frames_rx) = unbounded::<(Instant, Frame)>();
    let (report_tx, report_rx) = unbounded::<Report>();
    let local = spawn_world(WorldSpec {
        behaviors: world.behaviors,
        is_client: world.is_client,
        cfg: cfg.clone(),
        report: report_tx,
        // Run start for latency/timer purposes is *this* worker's Start
        // receipt; absolute cross-worker timestamps are never compared.
        start: Instant::now(),
        local: lo..hi,
        // 2^48 ids per worker is unreachable in any real run.
        id_base: ((index + 1) as u64) << 48,
        remote: Some(frames_tx),
    });
    let pumps = [
        pump(
            format!("opcsp-sock-frames-{index}"),
            frames_rx,
            writer.clone(),
            |(at, f)| (at, SockMsg::Net(f)),
        ),
        pump(
            format!("opcsp-sock-reports-{index}"),
            report_rx,
            writer.clone(),
            |r| (Instant::now(), SockMsg::Report(r)),
        ),
    ];

    // Main loop: demultiplex parent traffic into the local world.
    early.into_iter().for_each(|f| local.deliver(f));
    loop {
        match read_msg(&mut stream, &mut raw) {
            Ok(Some(SockMsg::Net(f))) => local.deliver(f),
            Ok(Some(SockMsg::Probe(round))) => local.probe(round),
            Ok(Some(SockMsg::Shutdown)) | Ok(None) => break,
            Ok(Some(_)) => {}
            Err(e) => {
                eprintln!("rt::sock worker {index}: read: {e}");
                break;
            }
        }
    }

    // Teardown: halt and reap the local world — which flushes what it
    // still had to send into the pumps and hangs up on them — then say
    // goodbye. A wedged actor is detached; the parent records the
    // straggler.
    local.shutdown();
    let deadline = Instant::now() + join_budget(&cfg);
    local.reap(deadline);
    for p in pumps {
        join_by(p, deadline);
    }
    let _ = write_msg(&writer, &SockMsg::Bye);
    writer.lock().unwrap_or_else(|p| p.into_inner()).shutdown();

    // The authoritative RtResult is assembled by the parent; the worker
    // reports only whether its own machinery wound down cleanly.
    empty_result(start, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opcsp_core::{DataKind, Envelope, Guard, MsgId};

    fn envelope() -> Envelope {
        Envelope {
            id: MsgId(7),
            from: ProcessId(1),
            from_thread: 0,
            to: ProcessId(2),
            guard: Guard::empty(),
            table_acks: Vec::new(),
            kind: DataKind::Send,
            payload: Value::Str("hi".into()),
            label: "C1".into(),
            link_seq: 4,
        }
    }

    fn encoded(m: &SockMsg) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_msg(&mut bytes, m);
        bytes
    }

    fn roundtrip(m: &SockMsg) -> SockMsg {
        read_msg(&mut &encoded(m)[..], &mut Vec::new())
            .expect("decode")
            .expect("one whole message")
    }

    #[test]
    fn reports_roundtrip() {
        let mut stats = RtStats::default();
        stats.proto.forks = 5;
        stats.proto.guard_bytes = 11;
        stats.retransmits = 2;
        stats.dup_frames = 7;
        let fin = SockMsg::Report(Report::Final(Box::new(FinalReport {
            pid: ProcessId(4),
            stats,
            log: vec![
                Observable::Sent {
                    to: ProcessId(1),
                    kind: ObsKind::Call,
                    payload: Value::Int(-3),
                },
                Observable::Received {
                    from: ProcessId(1),
                    kind: ObsKind::Return,
                    payload: Value::Unit,
                },
                Observable::Output {
                    payload: Value::Str("out".into()),
                },
            ],
            external: vec![Value::Int(9), Value::Bool(true)],
            events: Vec::new(),
        })));
        match (roundtrip(&fin), fin) {
            (SockMsg::Report(Report::Final(a)), SockMsg::Report(Report::Final(b))) => {
                assert_eq!(a.pid, b.pid);
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.log, b.log);
                assert_eq!(a.external, b.external);
            }
            other => panic!("unexpected roundtrip shape: {other:?}"),
        }
        for m in [
            SockMsg::Report(Report::ClientDone(ProcessId(2))),
            SockMsg::Report(Report::Quiet {
                pid: ProcessId(1),
                round: 3,
                sent: 10,
                delivered: 9,
                unacked: 1,
            }),
            SockMsg::Report(Report::Panicked {
                pid: ProcessId(0),
                msg: "boom".into(),
            }),
        ] {
            assert_eq!(roundtrip(&m), m);
        }
    }

    /// A reader that hands out one byte per `read`.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn messages_roundtrip_alike_however_the_bytes_arrive() {
        let msgs = [
            SockMsg::Hello {
                index: 1,
                workers: 2,
                n: 17,
                lo: 8,
                hi: 17,
            },
            SockMsg::Start,
            SockMsg::Net(Frame {
                from: ProcessId(3),
                to: ProcessId(0),
                ack: 12,
                msg: None,
            }),
            SockMsg::Net(Frame {
                from: ProcessId(0),
                to: ProcessId(3),
                ack: 2,
                msg: Some((9, Payload::Data(envelope()))),
            }),
            SockMsg::Probe(41),
            SockMsg::Shutdown,
            SockMsg::Bye,
        ];
        let stream: Vec<u8> = msgs.iter().flat_map(encoded).collect();
        fn read_all(mut r: impl Read) -> Vec<(SockMsg, Vec<u8>)> {
            let mut raw = Vec::new();
            let mut out = Vec::new();
            while let Some(m) = read_msg(&mut r, &mut raw).expect("whole messages") {
                out.push((m, raw.clone()));
            }
            out
        }
        for (label, got) in [
            ("at once", read_all(&stream[..])),
            ("a byte a read", read_all(OneByte(&stream))),
            ("buffered", read_all(BufReader::new(OneByte(&stream)))),
        ] {
            assert_eq!(got.len(), msgs.len(), "{label}");
            for ((m, raw), want) in got.iter().zip(&msgs) {
                assert_eq!(m, want, "{label}");
                assert_eq!(raw, &encoded(want), "{label}: the bytes a hub relays");
            }
        }
        let first = encoded(&msgs[0]).len();
        for cut in 0..first + 8 {
            assert_eq!(holds_whole_msg(&stream[..cut]), cut >= first, "cut {cut}");
        }
    }

    #[test]
    fn naps_start_at_50us_never_shrink_cap_at_10ms_and_stop_at_the_deadline() {
        let naps: Vec<Duration> = (0..40).map(|k| nap(k, Duration::MAX)).collect();
        assert_eq!(naps[0], Duration::from_micros(50));
        assert!(naps.windows(2).all(|w| w[0] <= w[1]), "{naps:?}");
        assert_eq!(naps.iter().max(), Some(&Duration::from_millis(10)));
        let lefts = [0, 1, 50, 99, 6_399, 10_000, 25_000].map(Duration::from_micros);
        assert!((0..40).all(|k| lefts.iter().all(|&left| nap(k, left) <= left)));

        let refused = || Err::<(), _>(io::Error::from(io::ErrorKind::ConnectionRefused));
        let e = wait_for(Instant::now() + Duration::from_millis(5), |_| true, refused);
        assert_eq!(e.unwrap_err().kind(), io::ErrorKind::ConnectionRefused);
    }

    /// A frame for another OS process spends its transit time in the
    /// pump (the pump is generic in what it carries; probes stand in for
    /// frames here): nothing is written before it is due, and when the
    /// channel closes the pump writes everything it still holds.
    #[cfg(unix)]
    #[test]
    fn the_frame_pump_holds_each_frame_until_due_and_flushes_at_close() {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        let patience = Some(Duration::from_secs(5));
        theirs.set_read_timeout(patience).unwrap();
        let writer = Arc::new(Mutex::new(SockStream::Uds(ours)));
        let (tx, rx) = unbounded();
        let pumped = pump("pump".into(), rx, writer, |(at, n)| (at, SockMsg::Probe(n)));
        let t0 = Instant::now();
        let due = t0 + Duration::from_millis(30);
        tx.send((t0 + Duration::from_secs(60), 2)).unwrap();
        tx.send((due, 1)).unwrap();
        let (mut theirs, mut raw) = (BufReader::new(theirs), Vec::new());
        let mut next = || read_msg(&mut theirs, &mut raw).expect("written in time");
        assert_eq!(next(), Some(SockMsg::Probe(1)));
        assert!(Instant::now() >= due, "written before it was due");
        drop(tx);
        assert_eq!(next(), Some(SockMsg::Probe(2)), "held at close");
        pumped.join().unwrap();
    }

    #[test]
    fn truncated_and_garbage_messages_are_clean_errors() {
        let bytes = encoded(&SockMsg::Net(Frame {
            from: ProcessId(0),
            to: ProcessId(3),
            ack: 2,
            msg: Some((9, Payload::Data(envelope()))),
        }));
        let body = &bytes[4..];
        for cut in 0..body.len() {
            assert!(
                decode_msg(&body[..cut]).is_err(),
                "prefix of len {cut} must not decode"
            );
        }
        assert!(matches!(
            decode_msg(&[FRAME_VERSION, 250]),
            Err(FrameError::BadTag { .. })
        ));
        assert!(matches!(
            decode_msg(&[9, TAG_START]),
            Err(FrameError::UnknownVersion(9))
        ));
        let mut trailing = encoded(&SockMsg::Start)[4..].to_vec();
        trailing.push(0);
        assert!(matches!(
            decode_msg(&trailing),
            Err(FrameError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn addr_specs_parse() {
        assert_eq!(
            SockAddr::parse("tcp:127.0.0.1:7000").unwrap(),
            SockAddr::Tcp("127.0.0.1:7000".into())
        );
        assert_eq!(
            SockAddr::parse("127.0.0.1:7000").unwrap(),
            SockAddr::Tcp("127.0.0.1:7000".into())
        );
        #[cfg(unix)]
        {
            assert_eq!(
                SockAddr::parse("uds:/tmp/x.sock").unwrap(),
                SockAddr::Uds(PathBuf::from("/tmp/x.sock"))
            );
            assert_eq!(
                SockAddr::parse("/tmp/x.sock").unwrap(),
                SockAddr::Uds(PathBuf::from("/tmp/x.sock"))
            );
        }
        assert!(SockAddr::parse("").is_err());
        assert!(SockAddr::parse("tcp:").is_err());
    }

    #[test]
    fn worker_ranges_tile_the_pid_space() {
        for n in [1usize, 2, 3, 7, 10, 1000] {
            for workers in [1usize, 2, 3, 4, 7] {
                let mut next = 0;
                for w in 0..workers {
                    let (lo, hi) = worker_range(w, workers, n);
                    assert_eq!(lo, next, "n={n} workers={workers} w={w}");
                    next = hi;
                }
                assert_eq!(next, n);
            }
        }
    }
}
