//! The wire layer: multiplexed remote attach over TCP (wire v4).
//!
//! [`WireServer`] fronts a [`DebugServer`]: it accepts TCP connections,
//! speaks the [`crate::proto`] handshake, and gives each connection
//! exactly **two** threads regardless of how many sessions it watches —
//! a **reader** that decodes [`ClientFrame`]s, answers session
//! directory / metrics queries, and forwards session-addressed commands
//! to the hosted sessions, and a single **streamer** that drains every
//! attached session's queue round-robin and writes event frames in
//! batches under the connection's write lock. The two share one list of
//! the connection's subscriptions: the reader adds a receiver on
//! `Attach` and removes it on `Detach`, the streamer sweeps it. A
//! dashboard watching a 64-session fleet therefore costs one socket and
//! two threads, not 64 of each.
//!
//! Backpressure is per *(connection, session)*: every attach owns a
//! bounded [`EventReceiver`], so one stalled attach fills its own queue
//! — consecutive `TraceDelta`s coalesce, then the oldest events drop
//! (announced in-stream by
//! [`EngineEvent::Lagged`][crate::EngineEvent::Lagged]) — while sibling
//! attaches on the same socket, and the scheduler pump itself, never
//! block. The streamer encodes into a reused per-connection buffer
//! (zero steady-state allocations) and flushes whole batches per
//! write-lock acquisition. Every server frame, reply or event, is
//! encoded by one function, `encode_server_frame`, which also swaps an
//! oversized frame for one that fits.
//!
//! No server-side wait runs on a clock. The accept thread blocks in
//! `accept`, and [`WireServer::shutdown`] wakes it with one loopback
//! connect, so a connection is served as soon as it is accepted. A
//! reader blocks in `read`, every write blocks until it is written,
//! and the streamer sleeps on its connection's wake flag, which every
//! queue push, sender drop, attach and close raises. A connection ends
//! by shutting its socket down — on client EOF, a refused handshake, a
//! protocol error, a failed write or server shutdown — which ends the
//! reader's read and any write in progress, so a client that stopped
//! reading delays only its own connection.
//!
//! An optional shared-secret token ([`crate::ServerConfig::auth_token`])
//! rides in the `Hello` frame and is compared in constant time.
//!
//! [`WireClient`] is the matching blocking client: it drives the
//! handshake, attaches to any number of sessions
//! ([`WireClient::attach_many`]), demultiplexes their merged event
//! stream ([`WireClient::next_event_from`]), polls the server's session
//! directory ([`WireClient::list_sessions`]), and interleaves commands
//! with event consumption on a single socket. One read step sorts every
//! incoming frame for every call: events are buffered, the awaited reply
//! is returned, and a reply to any other request — one whose caller
//! already timed out — is skipped, whatever its kind
//! (`ServerFrame::reply_to` decides, on both sides of the socket).

use crate::metrics::{
    ConnMetrics, MetricsRegistry, MetricsSnapshot, QuarantinedSession, SessionInfo,
};
use crate::proto::{
    decode_payload, encode_frame, encode_frame_into, ClientFrame, FrameDecoder, ServerFrame,
    SessionCommand,
};
use crate::queue::{EventReceiver, Notify};
use crate::server::{lock, DebugServer, Query, Reply, SessionId};
use crate::EngineEvent;
use crate::SessionSnapshot;
use gmdf::Mutation;
use gmdf_analyze::AnalysisReport;
use std::collections::BTreeSet;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client side only: [`WireClient`]'s read timeout, so its calls notice
/// their deadlines, and [`WireClient::wait_idle`]'s snapshot period.
/// The server never polls.
const POLL: Duration = Duration::from_millis(20);

/// How long the accept loop backs off after an accept error (say, the
/// process is out of file descriptors) rather than spinning — the one
/// timed sleep on the server side.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Bound on the loopback connect that wakes the accept loop on
/// shutdown.
const WAKE_WAIT: Duration = Duration::from_secs(1);

/// How long the server waits on a session's answer to a query before
/// reporting an error frame to the client.
const QUERY_WAIT: Duration = Duration::from_secs(30);

/// Default client-side wait for a command reply.
const REPLY_WAIT: Duration = Duration::from_secs(30);

/// Streamer batch cutoff: once a sweep has encoded this many bytes the
/// batch is flushed, so a burst on one session cannot hold the write
/// lock (and sibling replies) hostage indefinitely.
const MAX_BATCH_BYTES: usize = 256 * 1024;

/// A wire-layer failure, on either side of the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Socket-level failure (connect, read, write).
    Io(String),
    /// The peer violated the protocol (bad frame, unexpected reply).
    Protocol(String),
    /// The server reported an error frame.
    Remote(String),
    /// The peer speaks a different [`crate::proto::WIRE_VERSION`].
    VersionMismatch {
        /// Version spoken by this side.
        ours: u32,
        /// Version the peer announced.
        theirs: u32,
    },
    /// The connection closed before the operation completed.
    Closed,
    /// A blocking wait exceeded its deadline.
    Timeout,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(m) => write!(f, "wire i/o error: {m}"),
            WireError::Protocol(m) => write!(f, "wire protocol violation: {m}"),
            WireError::Remote(m) => write!(f, "server error: {m}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "wire version mismatch: ours {ours}, theirs {theirs}")
            }
            WireError::Closed => write!(f, "wire connection closed"),
            WireError::Timeout => write!(f, "timed out waiting on the wire"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// Constant-time byte-string equality for the handshake token: the
/// comparison touches every byte of both inputs regardless of where
/// they first differ, so response timing leaks neither a prefix match
/// nor the secret's length.
fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        diff |= (*a.get(i).unwrap_or(&0) ^ *b.get(i).unwrap_or(&0)) as usize;
    }
    diff == 0
}

/// A TCP front for a [`DebugServer`]: remote clients discover hosted
/// sessions, attach to any number of them, send [`SessionCommand`]s,
/// and stream [`EngineEvent`][crate::EngineEvent]s — all multiplexed
/// over one socket per client.
///
/// Dropping the server stops accepting, disconnects every client, and
/// joins all connection threads. The fronted [`DebugServer`] keeps
/// running (it is shared via [`Arc`]).
#[derive(Debug)]
pub struct WireServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Conns>,
}

/// The server's connections: each one's thread, and a weak handle on
/// its socket for shutdown to hang up. Weak, so a connection's socket
/// closes the moment its own threads let go of it.
type Conns = Mutex<Vec<(JoinHandle<()>, Weak<TcpStream>)>>;

impl WireServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `server`'s sessions.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn start(server: Arc<DebugServer>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Conns> = Arc::default();
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("gmdf-wire-accept".to_owned())
                .spawn(move || accept_loop(&listener, &server, &shutdown, &conns))
                .expect("spawn wire accept thread")
        };
        Ok(WireServer {
            local_addr,
            shutdown,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address — what clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, disconnects clients, joins every thread.
    /// Idempotent; also runs on drop.
    ///
    /// One loopback connect wakes the accept loop (an unspecified bind
    /// address is reached through loopback), and shutting each live
    /// socket down ends its connection's blocking read and any write
    /// in progress.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, WAKE_WAIT);
            let _ = handle.join();
        }
        let conns: Vec<_> = lock(&self.conns).drain(..).collect();
        for (_, socket) in &conns {
            if let Some(socket) = socket.upgrade() {
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
        for (handle, _) in conns {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections until shutdown: blocks in `accept`, and checks
/// the shutdown flag after every result, so the shutdown's loopback
/// connect ends it.
fn accept_loop(
    listener: &TcpListener,
    server: &Arc<DebugServer>,
    shutdown: &AtomicBool,
    conns: &Conns,
) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Reap finished connections so a long-lived server with churning
        // clients does not accumulate handles (finished threads are
        // safe to detach-drop).
        lock(conns).retain(|(handle, _)| !handle.is_finished());
        let stream = match accepted {
            Ok((stream, _peer)) => Arc::new(stream),
            Err(_) => {
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        let socket = Arc::downgrade(&stream);
        let server = Arc::clone(server);
        let conn = Arc::clone(&stream);
        let spawned = std::thread::Builder::new()
            .name("gmdf-wire-conn".to_owned())
            .spawn(move || serve_connection(conn, &server));
        match spawned {
            Ok(handle) => lock(conns).push((handle, socket)),
            // Thread exhaustion must not take down the accept loop (and
            // with it every future client): tell this peer why and drop
            // only its connection.
            Err(e) => {
                let refused = ServerFrame::Error {
                    seq: None,
                    message: format!("server cannot serve connection: {e}"),
                };
                let mut bytes = Vec::new();
                encode_server_frame(&refused, &mut String::new(), &mut bytes);
                let _ = (&*stream).write_all(&bytes);
            }
        }
    }
}

/// Outcome of one blocking frame read on the server side.
enum ReadOutcome {
    Frame(ClientFrame),
    /// Clean close, read error, or the socket shut down — stop serving.
    Stop,
    /// The peer sent bytes that do not decode; report and stop.
    Malformed(String),
}

/// The wire-telemetry handle one connection's reader and streamer
/// share: `None` when metrics are disabled (every record is one branch),
/// otherwise the global [`crate::metrics::WireMetrics`] counters plus
/// this connection's own [`ConnMetrics`] row. The row disappears from
/// snapshots when both of the connection's threads are done with it, so
/// the rows are also the live-connection count.
#[derive(Debug)]
struct Telemetry(Option<(Arc<MetricsRegistry>, Arc<ConnMetrics>)>);

impl Telemetry {
    fn acquire(registry: &Arc<MetricsRegistry>) -> Self {
        Telemetry(
            registry
                .enabled()
                .then(|| (Arc::clone(registry), registry.wire.register_connection())),
        )
    }

    fn frames_rx(&self) {
        if let Some((reg, conn)) = &self.0 {
            reg.wire.frames_rx.inc();
            conn.frames_rx.inc();
        }
    }

    fn bytes_rx(&self, n: u64) {
        if let Some((reg, conn)) = &self.0 {
            reg.wire.bytes_rx.add(n);
            conn.bytes_rx.add(n);
        }
    }

    fn frames_tx(&self, n: u64) {
        if let Some((reg, conn)) = &self.0 {
            reg.wire.frames_tx.add(n);
            conn.frames_tx.add(n);
        }
    }

    fn bytes_tx(&self, n: u64) {
        if let Some((reg, conn)) = &self.0 {
            reg.wire.bytes_tx.add(n);
            conn.bytes_tx.add(n);
        }
    }

    /// Events dropped by this connection's queues, observed as the
    /// streamer delivers their in-stream `Lagged` markers.
    fn lagged(&self, n: u64) {
        if let Some((_, conn)) = &self.0 {
            conn.lagged.add(n);
        }
    }

    fn attach_inc(&self) {
        if let Some((_, conn)) = &self.0 {
            conn.attached.inc();
        }
    }

    fn attach_dec(&self) {
        if let Some((_, conn)) = &self.0 {
            conn.attached.dec();
        }
    }
}

/// Reads the next client frame, blocking in `read` until bytes arrive.
/// EOF, a read error and the socket's shutdown all stop the reader.
/// Received bytes and decoded frames are counted into `tel`.
fn next_client_frame(
    mut stream: &TcpStream,
    decoder: &mut FrameDecoder,
    tel: &Telemetry,
) -> ReadOutcome {
    let mut chunk = [0u8; 4096];
    loop {
        match decoder.next_payload() {
            Ok(Some(payload)) => match decode_payload::<ClientFrame>(&payload) {
                Ok(frame) => {
                    tel.frames_rx();
                    return ReadOutcome::Frame(frame);
                }
                Err(e) => return ReadOutcome::Malformed(e),
            },
            Ok(None) => {}
            Err(e) => return ReadOutcome::Malformed(e),
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Stop,
            Ok(n) => {
                tel.bytes_rx(n as u64);
                decoder.feed(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Stop,
        }
    }
}

/// What one connection's reader and streamer share.
struct Conn {
    /// The socket. The server keeps only a weak handle on it, so it
    /// closes as soon as both threads are done with it.
    stream: Arc<TcpStream>,
    /// Keeps whole frames (and batches) atomic between the reader's
    /// replies and the streamer's batches.
    write_lock: Mutex<()>,
    /// One receiver per attached session: the reader adds and removes
    /// them, the streamer drains them.
    subs: Mutex<Vec<EventReceiver>>,
    /// The streamer's wake flag, shared by every attached queue.
    notify: Arc<Notify>,
    /// Set when the connection hangs up; the streamer then stops.
    closed: AtomicBool,
    tel: Telemetry,
}

impl Conn {
    /// Writes pre-encoded bytes carrying `frames` whole frames (a batch
    /// of one or many) under the write lock, and counts them once all
    /// are written. The write blocks while the peer's window is full,
    /// until a hang-up ends it; a failed write hangs the connection up.
    fn write(&self, bytes: &[u8], frames: u64) -> std::io::Result<()> {
        let _guard = lock(&self.write_lock);
        if let Err(e) = (&*self.stream).write_all(bytes) {
            self.hang_up();
            return Err(e);
        }
        self.tel.bytes_tx(bytes.len() as u64);
        self.tel.frames_tx(frames);
        Ok(())
    }

    /// Ends the connection: marks it closed, shuts its socket down —
    /// which ends the reader's blocking read and any write in progress —
    /// and wakes the streamer.
    fn hang_up(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.notify.notify();
    }
}

/// Appends `frame` to `out` as one length-prefixed frame, rendering the
/// JSON through the caller's `json` scratch buffer — the one encoder of
/// every server frame. A frame past [`crate::proto::MAX_FRAME_LEN`] is
/// replaced by one that fits: an event by an in-stream
/// [`EngineEvent::Lagged`] charging its payload, a reply by an `Error`
/// naming its request ([`ServerFrame::reply_to`]) — never a
/// desynchronized stream the peer can only abandon. Returns the events
/// the substitution dropped (0 when the frame fit or was no event).
fn encode_server_frame(frame: &ServerFrame, json: &mut String, out: &mut Vec<u8>) -> u64 {
    let Err(err) = encode_frame_into(frame, json, out) else {
        return 0;
    };
    let (substitute, dropped) = match frame {
        ServerFrame::Event { event } => {
            let dropped = match event {
                EngineEvent::TraceDelta { entries, .. } => entries.len() as u64,
                _ => 1,
            };
            let session = event.session();
            let event = EngineEvent::Lagged { session, dropped };
            (ServerFrame::Event { event }, dropped)
        }
        reply => {
            let seq = reply.reply_to();
            let message = format!("reply: {err}");
            (ServerFrame::Error { seq, message }, 0)
        }
    };
    encode_frame_into(&substitute, json, out).expect("a substitute frame fits");
    dropped
}

/// Serves one connection on its reader thread, which owns the socket
/// and shares it only with the connection's streamer.
fn serve_connection(stream: Arc<TcpStream>, server: &Arc<DebugServer>) {
    let _ = stream.set_nodelay(true);
    let conn = Arc::new(Conn {
        stream,
        write_lock: Mutex::new(()),
        subs: Mutex::default(),
        notify: Arc::default(),
        closed: AtomicBool::new(false),
        tel: Telemetry::acquire(server.metrics_registry()),
    });
    let mut decoder = FrameDecoder::new();

    // Replies and events share the socket: the reader writes replies
    // directly (no queuing latency) and ONE streamer thread drains every
    // attached session's queue, batching event frames; the write lock
    // keeps whole frames (and batches) atomic between the two.
    let reply = |frame: ServerFrame| {
        let mut bytes = Vec::new();
        encode_server_frame(&frame, &mut String::new(), &mut bytes);
        let _ = conn.write(&bytes, 1);
    };
    // A connection-level refusal: the peer is told why, then dropped.
    let refuse = |message: String| reply(ServerFrame::Error { seq: None, message });

    // Handshake: the first frame must be a version-matched Hello
    // carrying the shared secret, when the server requires one.
    match next_client_frame(&conn.stream, &mut decoder, &conn.tel) {
        ReadOutcome::Frame(ClientFrame::Hello { version, token }) => {
            if version != crate::proto::WIRE_VERSION {
                refuse(format!(
                    "wire version mismatch: server speaks {}, client sent {version}",
                    crate::proto::WIRE_VERSION
                ));
                return;
            }
            if let Some(required) = server.auth_token() {
                let presented = token.as_deref().unwrap_or("");
                if !ct_eq(required.as_bytes(), presented.as_bytes()) {
                    // One generic message for absent and wrong tokens
                    // alike — the reply must not narrate the secret.
                    refuse("authentication failed".to_owned());
                    return;
                }
            }
        }
        ReadOutcome::Frame(_) => {
            refuse("expected Hello as the first frame".to_owned());
            return;
        }
        ReadOutcome::Malformed(e) => {
            refuse(e);
            return;
        }
        ReadOutcome::Stop => return,
    }

    let streamer = std::thread::Builder::new()
        .name("gmdf-wire-streamer".to_owned())
        .spawn({
            let conn = Arc::clone(&conn);
            move || event_loop(&conn)
        });
    let streamer = match streamer {
        Ok(handle) => handle,
        // Degraded, not dead: without a streamer this connection cannot
        // honor its contract, so tell the peer and tear down this one
        // connection — never panic the accept path.
        Err(e) => {
            refuse(format!("server cannot stream events: {e}"));
            return;
        }
    };
    reply(ServerFrame::HelloAck {
        version: crate::proto::WIRE_VERSION,
        sessions: server.session_ids(),
        quarantined: server
            .quarantined_sessions()
            .iter()
            .map(|(id, reason)| QuarantinedSession {
                session: *id,
                reason: reason.clone(),
            })
            .collect(),
    });

    loop {
        if conn.closed.load(Ordering::SeqCst) {
            break;
        }
        match next_client_frame(&conn.stream, &mut decoder, &conn.tel) {
            ReadOutcome::Frame(ClientFrame::Hello { .. }) => {
                // A connection-level violation; per the protocol
                // contract a seq-less Error closes the connection.
                refuse("duplicate Hello".to_owned());
                break;
            }
            // Server-scope: answerable before (or without) an attach,
            // so a pure monitoring client never touches a session.
            ReadOutcome::Frame(ClientFrame::ListMetrics { seq }) => {
                reply(ServerFrame::Metrics {
                    seq,
                    snapshot: Box::new(server.metrics_snapshot()),
                });
            }
            ReadOutcome::Frame(ClientFrame::ListSessions { seq }) => {
                reply(ServerFrame::Sessions {
                    seq,
                    sessions: server.session_directory(),
                });
            }
            ReadOutcome::Frame(ClientFrame::Analyze { seq, session }) => {
                match server.analysis(session) {
                    Some(report) => reply(ServerFrame::Analysis {
                        seq,
                        report: Box::new((*report).clone()),
                    }),
                    None => reply(ServerFrame::Error {
                        seq: Some(seq),
                        message: format!("unknown session {session}"),
                    }),
                }
            }
            ReadOutcome::Frame(ClientFrame::Attach {
                seq,
                session,
                capacity,
            }) => match server.handle(session) {
                Some(handle) => {
                    // Subscribe *before* acking so no event between
                    // the ack and the subscription can be missed
                    // (the streamer may interleave an event ahead of
                    // the ack; the client buffers it).
                    let capacity = capacity.map(|c| c as usize);
                    let receiver = handle.subscribe_queue(capacity, Arc::clone(&conn.notify));
                    let mut list = lock(&conn.subs);
                    match list.iter_mut().find(|s| s.session() == session) {
                        // Re-attach: the replacement subscription takes
                        // over; dropping the old receiver unsubscribes
                        // it server-side.
                        Some(slot) => *slot = receiver,
                        None => {
                            list.push(receiver);
                            conn.tel.attach_inc();
                        }
                    }
                    drop(list);
                    conn.notify.notify();
                    reply(ServerFrame::Ack { seq });
                }
                None => reply(ServerFrame::Error {
                    seq: Some(seq),
                    message: format!("unknown session {session}"),
                }),
            },
            ReadOutcome::Frame(ClientFrame::Detach { seq, session }) => {
                // Idempotent: detaching a session that was never
                // attached (or already detached) still acks.
                let mut list = lock(&conn.subs);
                if let Some(pos) = list.iter().position(|s| s.session() == session) {
                    list.remove(pos);
                    conn.tel.attach_dec();
                }
                drop(list);
                reply(ServerFrame::Ack { seq });
            }
            ReadOutcome::Frame(ClientFrame::Command {
                seq,
                session,
                command,
            }) => {
                let Some(handle) = server.handle(session) else {
                    reply(ServerFrame::Error {
                        seq: Some(seq),
                        message: format!("unknown session {session}"),
                    });
                    continue;
                };
                let answer = match command {
                    SessionCommand::Mutate(mutation) => {
                        handle.send(mutation).map(|()| ServerFrame::Ack { seq })
                    }
                    SessionCommand::Query(query) => handle
                        .query(query, QUERY_WAIT)
                        .map(|reply| reply_frame(seq, reply)),
                };
                reply(answer.unwrap_or_else(|e| ServerFrame::Error {
                    seq: Some(seq),
                    message: e.to_string(),
                }));
            }
            ReadOutcome::Malformed(e) => {
                // Written before the hang-up, so the diagnostic still
                // reaches a live peer.
                refuse(e);
                break;
            }
            ReadOutcome::Stop => break,
        }
    }
    // The hang-up also ends a streamer write blocked on a peer that
    // stopped reading, and wakes an idle streamer.
    conn.hang_up();
    let _ = streamer.join();
}

/// The wire frame answering request `seq` with a query's reply.
fn reply_frame(seq: u64, reply: Reply) -> ServerFrame {
    match reply {
        Reply::Snapshot(snapshot) => ServerFrame::Snapshot { seq, snapshot },
        Reply::Trace(slice) => ServerFrame::Trace { seq, slice },
        Reply::Seek(report) => ServerFrame::Seek {
            seq,
            report: Box::new(report),
        },
    }
}

/// The per-connection event streamer — **one** thread no matter how
/// many sessions are attached. Each sweep drains the connection's
/// subscription list round-robin (one event per subscription per
/// round, so a chatty session cannot starve its siblings), encoding
/// frames back-to-back into a reused batch buffer; the whole batch goes
/// out under a single write-lock acquisition, after the list lock is
/// released — the reader adds and removes subscriptions in the same
/// list, and never waits on a socket write to do so. When a full sweep
/// finds nothing the streamer sleeps on the connection's [`Notify`]
/// flag, which every queue push and sender drop raises, and the reader
/// raises on attach and on hang-up. A failed write hangs the connection
/// up, which ends the reader's blocking read.
///
/// Buffer reuse is the point: the v3 streamer allocated a fresh
/// `String` (JSON) and a fresh `Vec` (length-prefixed bytes) per event
/// frame; here both scratch buffers and the batch buffer are warm after
/// the first frame, so steady-state encoding allocates only what the
/// serializer itself needs.
fn event_loop(conn: &Conn) {
    let tel = &conn.tel;
    let mut json = String::new();
    let mut batch: Vec<u8> = Vec::new();
    loop {
        if conn.closed.load(Ordering::SeqCst) {
            return;
        }
        // Sweep: round-robin over the subscriptions, one event each per
        // round, until a full round finds nothing or the batch is full.
        batch.clear();
        let mut frames = 0u64;
        let mut dead: Vec<SessionId> = Vec::new();
        let mut list = lock(&conn.subs);
        'sweep: loop {
            let mut progressed = false;
            for sub in list.iter() {
                match sub.try_recv() {
                    Ok(event) => {
                        progressed = true;
                        if let EngineEvent::Lagged { dropped, .. } = &event {
                            tel.lagged(*dropped);
                        }
                        let frame = ServerFrame::Event { event };
                        let dropped = encode_server_frame(&frame, &mut json, &mut batch);
                        if dropped > 0 {
                            tel.lagged(dropped);
                        }
                        frames += 1;
                        if batch.len() >= MAX_BATCH_BYTES {
                            break 'sweep;
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) => {}
                    // The session is gone (server released it) and its
                    // queue is drained; drop the subscription but keep
                    // serving the connection's other attaches.
                    Err(mpsc::TryRecvError::Disconnected) => dead.push(sub.session()),
                }
            }
            if !progressed {
                break;
            }
        }
        if !dead.is_empty() {
            list.retain(|s| {
                let alive = !dead.contains(&s.session());
                if !alive {
                    tel.attach_dec();
                }
                alive
            });
        }
        drop(list);
        if frames == 0 {
            conn.notify.wait(None);
        } else if conn.write(&batch, frames).is_err() {
            return;
        }
    }
}

/// A blocking client for [`WireServer`]: one socket, any number of
/// attached sessions, commands interleaved with the merged event
/// stream.
///
/// Events that arrive while the client waits for a command reply are
/// buffered and handed out by [`WireClient::next_event`] /
/// [`WireClient::next_event_from`] in arrival order. Only attached
/// sessions' events are handed out: a straggler of a detached session
/// is dropped. A reply whose caller already gave up (a timed-out call)
/// is skipped, whatever its kind, so it never answers a later call.
/// Every session-scoped call names its session explicitly; attach
/// first to stream events ([`WireClient::attach`],
/// [`WireClient::attach_many`]), while commands and queries work
/// without any attach.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    buffered: std::collections::VecDeque<crate::EngineEvent>,
    sessions: Vec<SessionId>,
    quarantined: Vec<QuarantinedSession>,
    /// The currently attached sessions; events from any other session
    /// (stragglers written around a detach) are never handed out.
    attached: BTreeSet<SessionId>,
    /// Request-id counter; replies echo it, so a stale reply left in
    /// flight by a timed-out call can never answer a later request.
    next_seq: u64,
}

impl WireClient {
    /// Connects and completes the hello/version handshake with no
    /// authentication token — see [`WireClient::connect_with_token`]
    /// for servers that require one.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on socket failure, [`WireError::Remote`] /
    /// [`WireError::VersionMismatch`] on a rejected handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_with_token(addr, None)
    }

    /// Connects and completes the hello/version handshake, presenting
    /// `token` when the server requires a shared secret
    /// ([`crate::ServerConfig::auth_token`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on socket failure, [`WireError::Remote`] on a
    /// rejected token (`"authentication failed"`),
    /// [`WireError::VersionMismatch`] on a version skew.
    pub fn connect_with_token(
        addr: impl ToSocketAddrs,
        token: Option<&str>,
    ) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        let mut client = WireClient {
            stream,
            decoder: FrameDecoder::new(),
            buffered: std::collections::VecDeque::new(),
            sessions: Vec::new(),
            quarantined: Vec::new(),
            attached: BTreeSet::new(),
            next_seq: 0,
        };
        client.write(&ClientFrame::Hello {
            version: crate::proto::WIRE_VERSION,
            token: token.map(str::to_owned),
        })?;
        match client.read_frame(REPLY_WAIT)? {
            ServerFrame::HelloAck {
                version,
                sessions,
                quarantined,
            } => {
                if version != crate::proto::WIRE_VERSION {
                    return Err(WireError::VersionMismatch {
                        ours: crate::proto::WIRE_VERSION,
                        theirs: version,
                    });
                }
                client.sessions = sessions;
                client.quarantined = quarantined;
                Ok(client)
            }
            ServerFrame::Error { message, .. } => Err(WireError::Remote(message)),
            other => Err(WireError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Sessions the server hosted at handshake time. For a live view,
    /// poll [`WireClient::list_sessions`].
    pub fn sessions(&self) -> &[SessionId] {
        &self.sessions
    }

    /// Sessions quarantined at handshake time (a durable restore
    /// failed), each with the server's restore-failure reason.
    pub fn quarantined(&self) -> &[QuarantinedSession] {
        &self.quarantined
    }

    /// Sessions this client is currently attached to.
    pub fn attached(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.attached.iter().copied()
    }

    /// Polls the server's live session directory: one row per hosted
    /// session (id, health state, clock, trace length), quarantined
    /// ids included. A *server-scope* call, valid without any attach —
    /// discover here, then [`WireClient::attach_many`] what you want
    /// to watch.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] when `timeout` elapses, transport or
    /// remote errors otherwise.
    pub fn list_sessions(&mut self, timeout: Duration) -> Result<Vec<SessionInfo>, WireError> {
        let seq = self.next_seq();
        self.write(&ClientFrame::ListSessions { seq })?;
        self.wait_reply(seq, timeout, "Sessions", |frame| match frame {
            ServerFrame::Sessions { sessions, .. } => Ok(sessions),
            other => Err(other),
        })
    }

    /// Fetches one session's cached static-analysis report
    /// (schedulability verdicts, route findings, model lint) — a
    /// *server-scope* call, valid without any attach. The server
    /// computed the report when the session registered, so this never
    /// waits on the session itself.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] for an unknown session,
    /// [`WireError::Timeout`] when `timeout` elapses, transport errors
    /// otherwise.
    pub fn analyze(
        &mut self,
        session: SessionId,
        timeout: Duration,
    ) -> Result<AnalysisReport, WireError> {
        let seq = self.next_seq();
        self.write(&ClientFrame::Analyze { seq, session })?;
        self.wait_reply(seq, timeout, "Analysis", |frame| match frame {
            ServerFrame::Analysis { report, .. } => Ok(*report),
            other => Err(other),
        })
    }

    /// Requests the server's fleet-wide telemetry snapshot — a
    /// *server-scope* call, valid without any attach.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] when `timeout` elapses, transport or
    /// remote errors otherwise.
    pub fn metrics(&mut self, timeout: Duration) -> Result<MetricsSnapshot, WireError> {
        let seq = self.next_seq();
        self.write(&ClientFrame::ListMetrics { seq })?;
        self.wait_reply(seq, timeout, "Metrics", |frame| match frame {
            ServerFrame::Metrics { snapshot, .. } => Ok(*snapshot),
            other => Err(other),
        })
    }

    /// Attaches to `session` with the server's default queue capacity;
    /// its event stream joins this connection's merged stream
    /// immediately after the acknowledgment. Attaching again replaces
    /// the server-side subscription (a fresh queue).
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] for an unknown session, transport errors
    /// otherwise.
    pub fn attach(&mut self, session: SessionId) -> Result<(), WireError> {
        self.attach_with_capacity(session, None)
    }

    /// Like [`WireClient::attach`] with an explicit per-(connection,
    /// session) queue capacity: `Some(0)` = unbounded (lossless),
    /// `Some(n)` = at most `n` queued events (coalesce, then drop
    /// oldest with an in-stream `Lagged`), `None` = the server default.
    ///
    /// # Errors
    ///
    /// See [`WireClient::attach`].
    pub fn attach_with_capacity(
        &mut self,
        session: SessionId,
        capacity: Option<u64>,
    ) -> Result<(), WireError> {
        self.attach_all(&[(session, capacity)])
    }

    /// Attaches to every session in `sessions`, pipelined: all `Attach`
    /// frames go out back-to-back, then the acknowledgments are awaited
    /// in order — one round-trip for the whole batch instead of one per
    /// session. Every reply is awaited even after a refusal, and every
    /// acknowledged session is attached, so the client streams exactly
    /// the sessions the server subscribed.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] with the first refusal (an unknown
    /// session), once every reply is in; transport errors otherwise.
    pub fn attach_many(&mut self, sessions: &[SessionId]) -> Result<(), WireError> {
        let attaches: Vec<_> = sessions.iter().map(|&session| (session, None)).collect();
        self.attach_all(&attaches)
    }

    /// The one attach path: pipelines one `Attach` per `(session,
    /// capacity)`, then awaits every reply, attaching each acknowledged
    /// session and keeping the first refusal to return at the end.
    fn attach_all(&mut self, attaches: &[(SessionId, Option<u64>)]) -> Result<(), WireError> {
        let mut seqs = Vec::with_capacity(attaches.len());
        for &(session, capacity) in attaches {
            let seq = self.next_seq();
            self.write(&ClientFrame::Attach {
                seq,
                session,
                capacity,
            })?;
            seqs.push((seq, session));
        }
        let mut refused = None;
        for (seq, session) in seqs {
            match self.wait_ack(seq) {
                Ok(()) => {
                    self.attached.insert(session);
                }
                Err(e @ WireError::Remote(_)) => {
                    refused.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }
        refused.map_or(Ok(()), Err)
    }

    /// Detaches from `session`: its events stop flowing (the server
    /// drops the subscription), and any of its events still buffered
    /// client-side are discarded — after this call,
    /// [`WireClient::next_event`] never hands out a straggler from the
    /// detached stream. Idempotent.
    ///
    /// # Errors
    ///
    /// Transport errors; detaching a never-attached session still acks.
    pub fn detach(&mut self, session: SessionId) -> Result<(), WireError> {
        let seq = self.next_seq();
        self.write(&ClientFrame::Detach { seq, session })?;
        self.wait_ack(seq)?;
        self.attached.remove(&session);
        self.buffered.retain(|event| event.session() != session);
        Ok(())
    }

    /// Sends one [`Mutation`] to `session` and waits for the
    /// acknowledgment — valid without an attach.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] when the server rejects the command,
    /// transport errors otherwise.
    pub fn send(&mut self, session: SessionId, mutation: Mutation) -> Result<(), WireError> {
        let seq = self.command(session, SessionCommand::Mutate(mutation))?;
        self.wait_ack(seq)
    }

    /// Writes one `Command` frame and returns its request id.
    fn command(&mut self, session: SessionId, command: SessionCommand) -> Result<u64, WireError> {
        let seq = self.next_seq();
        self.write(&ClientFrame::Command {
            seq,
            session,
            command,
        })?;
        Ok(seq)
    }

    /// Writes one query's `Command` frame and returns its request id.
    fn query(&mut self, session: SessionId, query: Query) -> Result<u64, WireError> {
        self.command(session, SessionCommand::Query(query))
    }

    /// Requests a snapshot of `session` (with the serialized trace when
    /// `include_trace`).
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] when `timeout` elapses, transport or
    /// remote errors otherwise.
    pub fn snapshot(
        &mut self,
        session: SessionId,
        include_trace: bool,
        timeout: Duration,
    ) -> Result<SessionSnapshot, WireError> {
        let seq = self.query(session, Query::Snapshot { include_trace })?;
        self.wait_reply(seq, timeout, "Snapshot", |frame| match frame {
            ServerFrame::Snapshot { snapshot, .. } => Ok(snapshot),
            other => Err(other),
        })
    }

    /// Requests `session`'s trace entries whose event time falls in
    /// `[t0_ns, t1_ns]` — one bounded page
    /// ([`crate::MAX_FETCH_ENTRIES`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] when `timeout` elapses, transport or
    /// remote errors otherwise.
    pub fn fetch_range(
        &mut self,
        session: SessionId,
        t0_ns: u64,
        t1_ns: u64,
        timeout: Duration,
    ) -> Result<crate::TraceSlice, WireError> {
        let seq = self.query(session, Query::FetchRange { t0_ns, t1_ns })?;
        self.wait_trace(seq, timeout)
    }

    /// Requests up to `limit` trace entries of `session` starting at
    /// sequence number `seq` (`0` = the server cap) — page history by
    /// advancing `seq` while [`crate::TraceSlice::complete`] is false.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] when `timeout` elapses, transport or
    /// remote errors otherwise.
    pub fn replay_from(
        &mut self,
        session: SessionId,
        seq: u64,
        limit: u64,
        timeout: Duration,
    ) -> Result<crate::TraceSlice, WireError> {
        let request = self.query(session, Query::ReplayFrom { seq, limit })?;
        self.wait_trace(request, timeout)
    }

    /// Seeks `session`'s history to target time `t_ns`: the server
    /// restores its nearest persisted checkpoint into a detached
    /// replica and replays forward — O(checkpoint interval), not
    /// O(trace length). With `include_trace` the report carries the
    /// replica's full serialized trace, byte-identical to an
    /// uninterrupted run's at the same instant.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] when `timeout` elapses, transport or
    /// remote errors (in-memory session, evicted history) otherwise.
    pub fn seek_to(
        &mut self,
        session: SessionId,
        t_ns: u64,
        include_trace: bool,
        timeout: Duration,
    ) -> Result<crate::SeekReport, WireError> {
        let query = Query::SeekTo {
            t_ns,
            include_trace,
        };
        let seq = self.query(session, query)?;
        self.wait_seek(seq, timeout)
    }

    /// Rewinds `session`'s history `entries` trace entries from the
    /// current end of the trace — the remote form of
    /// [`crate::SessionHandle::step_back`].
    ///
    /// # Errors
    ///
    /// Same as [`WireClient::seek_to`].
    pub fn step_back(
        &mut self,
        session: SessionId,
        entries: u64,
        include_trace: bool,
        timeout: Duration,
    ) -> Result<crate::SeekReport, WireError> {
        let query = Query::StepBack {
            entries,
            include_trace,
        };
        let seq = self.query(session, query)?;
        self.wait_seek(seq, timeout)
    }

    /// Requests the trace window `[t0_ns, t1_ns]` regenerated through
    /// checkpoint-restore + deterministic replay — one bounded
    /// [`crate::TraceSlice`] page, same contract as
    /// [`WireClient::fetch_range`], but served even when the live store
    /// evicted the window's segments.
    ///
    /// # Errors
    ///
    /// Same as [`WireClient::seek_to`].
    pub fn replay_window(
        &mut self,
        session: SessionId,
        t0_ns: u64,
        t1_ns: u64,
        timeout: Duration,
    ) -> Result<crate::TraceSlice, WireError> {
        let seq = self.query(session, Query::ReplayWindow { t0_ns, t1_ns })?;
        self.wait_trace(seq, timeout)
    }

    /// Waits for the [`ServerFrame::Seek`] reply answering `seq`.
    fn wait_seek(&mut self, seq: u64, timeout: Duration) -> Result<crate::SeekReport, WireError> {
        self.wait_reply(seq, timeout, "Seek", |frame| match frame {
            ServerFrame::Seek { report, .. } => Ok(*report),
            other => Err(other),
        })
    }

    /// Waits for the [`ServerFrame::Trace`] reply answering `seq`.
    fn wait_trace(&mut self, seq: u64, timeout: Duration) -> Result<crate::TraceSlice, WireError> {
        self.wait_reply(seq, timeout, "Trace", |frame| match frame {
            ServerFrame::Trace { slice, .. } => Ok(slice),
            other => Err(other),
        })
    }

    /// The shared reply wait: read steps until the reply to `seq`
    /// arrives, then `extract` takes it apart. A request-level `Error`
    /// answering `seq` is [`WireError::Remote`]; any other reply kind
    /// is a [`WireError::Protocol`] violation.
    fn wait_reply<T>(
        &mut self,
        seq: u64,
        timeout: Duration,
        what: &str,
        extract: impl FnOnce(ServerFrame) -> Result<T, ServerFrame>,
    ) -> Result<T, WireError> {
        let deadline = Instant::now() + timeout;
        let frame = loop {
            if let Some(frame) = self.read_step(Some(seq), deadline)? {
                break frame;
            }
        };
        match extract(frame) {
            Ok(reply) => Ok(reply),
            Err(ServerFrame::Error { message, .. }) => Err(WireError::Remote(message)),
            Err(other) => Err(WireError::Protocol(format!(
                "expected {what}, got {other:?}"
            ))),
        }
    }

    /// The one read step every call loops on: reads one frame and sorts
    /// it. An event joins the buffer and a reply to any request but
    /// `seq` is stale — its caller gave up — and is skipped (both
    /// `Ok(None)`); the reply to `seq` is returned. A connection-level
    /// `Error` is [`WireError::Remote`], anything else
    /// [`WireError::Protocol`].
    fn read_step(
        &mut self,
        seq: Option<u64>,
        deadline: Instant,
    ) -> Result<Option<ServerFrame>, WireError> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(WireError::Timeout);
        }
        let frame = self.read_frame(remaining)?;
        match frame.reply_to() {
            Some(answers) if Some(answers) == seq => Ok(Some(frame)),
            Some(_) => Ok(None),
            None => match frame {
                ServerFrame::Event { event } => {
                    self.buffered.push_back(event);
                    Ok(None)
                }
                ServerFrame::Error { message, .. } => Err(WireError::Remote(message)),
                other => Err(WireError::Protocol(format!("unexpected frame {other:?}"))),
            },
        }
    }

    /// The next event from **any** attached session (buffered ones
    /// first, in arrival order) — the merged multiplexed stream.
    /// Demultiplex with [`EngineEvent::session`][crate::EngineEvent],
    /// or use [`WireClient::next_event_from`] for one session's
    /// sub-stream.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] when `timeout` elapses first, transport
    /// or remote errors otherwise.
    pub fn next_event(&mut self, timeout: Duration) -> Result<crate::EngineEvent, WireError> {
        self.next_event_where(timeout, |_| true)
    }

    /// The next event on `session`'s sub-stream: the per-session demux
    /// over the merged stream. Other attached sessions' events read
    /// along the way stay buffered in arrival order for their own
    /// [`WireClient::next_event_from`] (or [`WireClient::next_event`])
    /// calls — draining one session never loses a sibling's events.
    /// A session that is not attached gets no events.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] when `timeout` elapses first, transport
    /// or remote errors otherwise.
    pub fn next_event_from(
        &mut self,
        session: SessionId,
        timeout: Duration,
    ) -> Result<crate::EngineEvent, WireError> {
        self.next_event_where(timeout, |of| of == session)
    }

    /// The first event of an attached session that `want` accepts. One
    /// walk over the buffer in arrival order: events of sessions that
    /// are not attached are dropped, events `want` declines stay, and
    /// each read step appends at the walk's end, so a merged-stream
    /// read costs O(1) per event. Attachment is checked here, when
    /// events are handed out, not when they are read: the server
    /// subscribes before it acknowledges an attach, so a session's
    /// first events may arrive ahead of the `Ack`.
    fn next_event_where(
        &mut self,
        timeout: Duration,
        want: impl Fn(SessionId) -> bool,
    ) -> Result<crate::EngineEvent, WireError> {
        let deadline = Instant::now() + timeout;
        let mut at = 0;
        loop {
            match self.buffered.get(at).map(crate::EngineEvent::session) {
                Some(session) if !self.attached.contains(&session) => {
                    self.buffered.remove(at);
                }
                Some(session) if want(session) => {
                    return Ok(self.buffered.remove(at).expect("index is in range"));
                }
                Some(_) => at += 1,
                None => {
                    self.read_step(None, deadline)?;
                }
            }
        }
    }

    /// Polls counter snapshots until `session` is idle (no run budget
    /// left after every previously sent command applied).
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] when `timeout` elapses first.
    pub fn wait_idle(&mut self, session: SessionId, timeout: Duration) -> Result<(), WireError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(WireError::Timeout);
            }
            // The snapshot round-trips through the mailbox, so once it
            // reports zero budget every earlier command was applied.
            let snapshot = self.snapshot(session, false, remaining)?;
            if snapshot.remaining_ns == 0 {
                return Ok(());
            }
            std::thread::sleep(POLL);
        }
    }

    /// Convenience: [`Mutation::RunFor`].
    ///
    /// # Errors
    ///
    /// See [`WireClient::send`].
    pub fn run_for(&mut self, session: SessionId, duration_ns: u64) -> Result<(), WireError> {
        self.send(session, Mutation::RunFor { duration_ns })
    }

    /// Convenience: [`Mutation::ScheduleSignal`].
    ///
    /// # Errors
    ///
    /// See [`WireClient::send`].
    pub fn schedule_signal(
        &mut self,
        session: SessionId,
        time_ns: u64,
        label: &str,
        value: gmdf_comdes::SignalValue,
    ) -> Result<(), WireError> {
        self.send(
            session,
            Mutation::ScheduleSignal {
                time_ns,
                label: label.to_owned(),
                value,
            },
        )
    }

    /// Convenience: [`Mutation::AddBreakpoint`].
    ///
    /// # Errors
    ///
    /// See [`WireClient::send`].
    pub fn add_breakpoint(
        &mut self,
        session: SessionId,
        matcher: gmdf_gdm::CommandMatcher,
        one_shot: bool,
    ) -> Result<(), WireError> {
        self.send(session, Mutation::AddBreakpoint { matcher, one_shot })
    }

    /// Convenience: [`Mutation::Step`].
    ///
    /// # Errors
    ///
    /// See [`WireClient::send`].
    pub fn step(&mut self, session: SessionId) -> Result<(), WireError> {
        self.send(session, Mutation::Step)
    }

    /// Convenience: [`Mutation::Resume`].
    ///
    /// # Errors
    ///
    /// See [`WireClient::send`].
    pub fn resume(&mut self, session: SessionId) -> Result<(), WireError> {
        self.send(session, Mutation::Resume)
    }

    /// Convenience: [`Mutation::ClearBreakpoints`].
    ///
    /// # Errors
    ///
    /// See [`WireClient::send`].
    pub fn clear_breakpoints(&mut self, session: SessionId) -> Result<(), WireError> {
        self.send(session, Mutation::ClearBreakpoints)
    }

    fn write(&mut self, frame: &ClientFrame) -> Result<(), WireError> {
        let bytes = encode_frame(frame).map_err(|e| WireError::Protocol(e.to_string()))?;
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    fn wait_ack(&mut self, seq: u64) -> Result<(), WireError> {
        self.wait_reply(seq, REPLY_WAIT, "Ack", |frame| match frame {
            ServerFrame::Ack { .. } => Ok(()),
            other => Err(other),
        })
    }

    /// Reads one server frame, waiting up to `timeout`.
    fn read_frame(&mut self, timeout: Duration) -> Result<ServerFrame, WireError> {
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; 4096];
        loop {
            match self.decoder.next_payload() {
                Ok(Some(payload)) => {
                    return decode_payload::<ServerFrame>(&payload).map_err(WireError::Protocol)
                }
                Ok(None) => {}
                Err(e) => return Err(WireError::Protocol(e)),
            }
            if Instant::now() >= deadline {
                return Err(WireError::Timeout);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(WireError::Closed),
                Ok(n) => self.decoder.feed(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ct_eq;

    #[test]
    fn ct_eq_matches_equality() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"secret", b"secret"));
        assert!(!ct_eq(b"secret", b"secres"));
        assert!(!ct_eq(b"secret", b"secret2"));
        assert!(!ct_eq(b"secret", b""));
        assert!(!ct_eq(b"", b"secret"));
    }
}
