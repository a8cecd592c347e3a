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
//! — and with them the chaos differential suite as the correctness
//! oracle for this transport.
//!
//! Wire protocol: every message is `u32le len | version | tag | body`
//! (little-endian length excludes itself; same `FRAME_VERSION` and size
//! cap as envelope frames). Handshake: each worker connects and sends
//! `Hello{index, workers, n, lo, hi}` claiming the pid range `lo..hi`;
//! the parent verifies the ranges tile `0..n` exactly and broadcasts
//! `Start`. Failure semantics: an actor that panics is reported by its
//! worker like any other (`Report::Panicked`); a connection that reaches
//! EOF without a prior `Bye` is a crashed worker — every pid it owned
//! that has not produced a final report is recorded as panicked ("worker
//! connection lost"). Malformed messages are treated as connection loss,
//! never a panic. Telemetry event streams are not shipped over the socket
//! (documented limitation): `RtResult::telemetry` is empty under this
//! transport.

use crate::core_poll::{FinalReport, Report};
use crate::executor::{spawn_world, WorldSpec};
use crate::net::{Frame, Payload};
use crate::runtime::{
    coordinate, join_budget, join_by, Hosts, RtConfig, RtResult, RtStats, RtWorld,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
#[cfg(test)]
use opcsp_core::Value;
use opcsp_core::{
    decode_control_frame, decode_frame, encode_control_frame, encode_frame, get_value,
    parse_frame_len, put_uvarint, put_value, seal_frame_len, FrameError, FrameReader, ProcessId,
    Telemetry, FRAME_VERSION,
};
use opcsp_sim::{ObsKind, Observable};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
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

    /// Connect with retry: the parent may not have bound yet when a
    /// spawned worker starts.
    fn connect_retry(addr: &SockAddr, budget: Duration) -> io::Result<SockStream> {
        let deadline = Instant::now() + budget;
        loop {
            match SockStream::connect(addr) {
                Ok(s) => return Ok(s),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
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
        match self {
            SockStream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            SockStream::Uds(s) => s.set_read_timeout(t),
        }
    }

    fn shutdown(&self) {
        match self {
            SockStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            SockStream::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for SockStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            SockStream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for SockStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            SockStream::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            SockStream::Uds(s) => s.flush(),
        }
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

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            SockListener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            SockListener::Uds(l) => l.set_nonblocking(nb),
        }
    }

    /// Accept one connection, polling until `deadline`.
    fn accept_deadline(&self, deadline: Instant) -> io::Result<SockStream> {
        self.set_nonblocking(true)?;
        loop {
            let got = match self {
                SockListener::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nodelay(true);
                    SockStream::Tcp(s)
                }),
                #[cfg(unix)]
                SockListener::Uds(l) => l.accept().map(|(s, _)| SockStream::Uds(s)),
            };
            match got {
                Ok(s) => {
                    self.set_nonblocking(false)?;
                    // The stream inherits the listener's nonblocking flag
                    // on some platforms; force it off.
                    match &s {
                        SockStream::Tcp(t) => t.set_nonblocking(false)?,
                        #[cfg(unix)]
                        SockStream::Uds(u) => u.set_nonblocking(false)?,
                    }
                    return Ok(s);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no worker connected before the deadline",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
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

/// The 21 counters of an [`RtStats`], as uvarints in a fixed order.
fn put_stats(buf: &mut Vec<u8>, s: &RtStats) {
    let fields = [
        s.proto.forks,
        s.proto.commits,
        s.proto.aborts,
        s.proto.rollbacks,
        s.proto.discarded_threads,
        s.proto.orphans,
        s.proto.data_messages,
        s.proto.control_messages,
        s.proto.guard_bytes,
        s.proto.interner.hits,
        s.proto.interner.misses,
        s.proto.interner.purged,
        s.proto.interner.live,
        s.drops_injected,
        s.dups_injected,
        s.retransmits,
        s.acks,
        s.reorder_releases,
        s.frames_sent,
        s.frames_delivered,
        s.dup_frames,
    ];
    for f in fields {
        put_uvarint(buf, f);
    }
}

fn get_stats(r: &mut FrameReader<'_>) -> Result<RtStats, FrameError> {
    let mut s = RtStats::default();
    let mut uv = || r.uv();
    s.proto.forks = uv()?;
    s.proto.commits = uv()?;
    s.proto.aborts = uv()?;
    s.proto.rollbacks = uv()?;
    s.proto.discarded_threads = uv()?;
    s.proto.orphans = uv()?;
    s.proto.data_messages = uv()?;
    s.proto.control_messages = uv()?;
    s.proto.guard_bytes = uv()?;
    s.proto.interner.hits = uv()?;
    s.proto.interner.misses = uv()?;
    s.proto.interner.purged = uv()?;
    s.proto.interner.live = uv()?;
    s.drops_injected = uv()?;
    s.dups_injected = uv()?;
    s.retransmits = uv()?;
    s.acks = uv()?;
    s.reorder_releases = uv()?;
    s.frames_sent = uv()?;
    s.frames_delivered = uv()?;
    s.dup_frames = uv()?;
    Ok(s)
}

fn encode_msg(m: &SockMsg) -> Vec<u8> {
    let mut buf = vec![0, 0, 0, 0, FRAME_VERSION];
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
                put_uvarint(&mut buf, v);
            }
        }
        SockMsg::Start => buf.push(TAG_START),
        SockMsg::Net(f) => {
            buf.push(TAG_NET);
            put_pid(&mut buf, f.from);
            put_pid(&mut buf, f.to);
            put_uvarint(&mut buf, f.ack);
            match &f.msg {
                None => buf.push(0),
                Some((seq, payload)) => {
                    buf.push(1);
                    put_uvarint(&mut buf, *seq);
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
            put_uvarint(&mut buf, *round);
        }
        SockMsg::Shutdown => buf.push(TAG_SHUTDOWN),
        SockMsg::Report(r) => {
            buf.push(TAG_REPORT);
            match r {
                Report::ClientDone(pid) => {
                    buf.push(0);
                    put_pid(&mut buf, *pid);
                }
                Report::Quiet {
                    pid,
                    round,
                    sent,
                    delivered,
                    unacked,
                } => {
                    buf.push(1);
                    put_pid(&mut buf, *pid);
                    for v in [*round, *sent, *delivered, *unacked] {
                        put_uvarint(&mut buf, v);
                    }
                }
                Report::Panicked { pid, msg } => {
                    buf.push(2);
                    put_pid(&mut buf, *pid);
                    put_str(&mut buf, msg);
                }
                Report::Final(f) => {
                    buf.push(3);
                    put_pid(&mut buf, f.pid);
                    put_stats(&mut buf, &f.stats);
                    put_uvarint(&mut buf, f.log.len() as u64);
                    for o in &f.log {
                        put_observable(&mut buf, o);
                    }
                    put_uvarint(&mut buf, f.external.len() as u64);
                    for v in &f.external {
                        put_value(&mut buf, v);
                    }
                    // Telemetry events deliberately not shipped (module
                    // doc): `f.events` stays local to the worker.
                }
            }
        }
        SockMsg::Bye => buf.push(TAG_BYE),
    }
    seal_frame_len(&mut buf);
    buf
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
                    let stats = get_stats(&mut r)?;
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

/// Read one message. `Ok(None)` is a clean EOF *between* messages; EOF
/// mid-message and malformed bodies are errors (connection loss).
fn read_msg(stream: &mut SockStream) -> io::Result<Option<SockMsg>> {
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
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    decode_msg(&body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn write_msg(stream: &Arc<Mutex<SockStream>>, m: &SockMsg) -> io::Result<()> {
    let bytes = encode_msg(m);
    let mut s = stream.lock().unwrap_or_else(|p| p.into_inner());
    s.write_all(&bytes)?;
    s.flush()
}

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
        stats: RtStats::default(),
        logs: BTreeMap::new(),
        external: Vec::new(),
        timed_out,
        panicked: Vec::new(),
        panics: BTreeMap::new(),
        stragglers: Vec::new(),
        telemetry: Telemetry::new(false),
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
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let hello = read_msg(&mut s);
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
fn parent_reader(mut stream: SockStream, conn: Conn) {
    let reported = || {
        conn.state
            .reported
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    };
    loop {
        match read_msg(&mut stream) {
            Ok(Some(SockMsg::Net(f))) => {
                // An out-of-range target, or one whose worker was lost
                // during the handshake (`None` writer): drop, never panic.
                let writer = conn
                    .owner
                    .get(f.to.0 as usize)
                    .and_then(|w| conn.writers[*w].as_ref());
                if let Some(wr) = writer {
                    let _ = write_msg(wr, &SockMsg::Net(f));
                }
            }
            Ok(Some(SockMsg::Report(r))) => {
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

/// A worker's outbound half: everything `rx` yields goes to the hub as
/// `wrap(item)`, until every sender is gone or the connection is.
fn pump<T: Send + 'static>(
    name: String,
    rx: Receiver<T>,
    writer: Writer,
    wrap: fn(T) -> SockMsg,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            while let Ok(item) = rx.recv() {
                if write_msg(&writer, &wrap(item)).is_err() {
                    break;
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

    let mut stream = match SockStream::connect_retry(addr, Duration::from_secs(10)) {
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
    // already be sending; those frames wait until our actors exist.
    let mut early: Vec<Frame> = Vec::new();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    loop {
        match read_msg(&mut stream) {
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
    let _ = stream.set_read_timeout(None);

    let (frames_tx, frames_rx) = unbounded::<Frame>();
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
            SockMsg::Net,
        ),
        pump(
            format!("opcsp-sock-reports-{index}"),
            report_rx,
            writer.clone(),
            SockMsg::Report,
        ),
    ];

    // Main loop: demultiplex parent traffic into the local world.
    early.into_iter().for_each(|f| local.deliver(f));
    loop {
        match read_msg(&mut stream) {
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

    fn roundtrip(m: &SockMsg) -> SockMsg {
        let bytes = encode_msg(m);
        let len = parse_frame_len(bytes[..4].try_into().unwrap()).expect("valid length prefix");
        assert_eq!(len, bytes.len() - 4, "length prefix covers the body");
        decode_msg(&bytes[4..]).expect("decode")
    }

    #[test]
    fn control_messages_roundtrip() {
        for m in [
            SockMsg::Hello {
                index: 1,
                workers: 2,
                n: 17,
                lo: 8,
                hi: 17,
            },
            SockMsg::Start,
            SockMsg::Probe(41),
            SockMsg::Shutdown,
            SockMsg::Bye,
        ] {
            assert_eq!(roundtrip(&m), m);
        }
    }

    #[test]
    fn net_frames_roundtrip() {
        let ack_only = SockMsg::Net(Frame {
            from: ProcessId(3),
            to: ProcessId(0),
            ack: 12,
            msg: None,
        });
        assert_eq!(roundtrip(&ack_only), ack_only);
        let data = SockMsg::Net(Frame {
            from: ProcessId(0),
            to: ProcessId(3),
            ack: 2,
            msg: Some((9, Payload::Data(envelope()))),
        });
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn reports_roundtrip() {
        let mut stats = RtStats::default();
        stats.proto.forks = 5;
        stats.proto.guard_bytes = 11;
        stats.proto.interner.hits = 3;
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

    #[test]
    fn truncated_and_garbage_messages_are_clean_errors() {
        let bytes = encode_msg(&SockMsg::Net(Frame {
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
        let mut trailing = encode_msg(&SockMsg::Start)[4..].to_vec();
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
