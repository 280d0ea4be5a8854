//! The wire layer: multiplexed remote attach over TCP (wire v4).
//!
//! [`WireServer`] fronts a [`DebugServer`]: it accepts TCP connections,
//! speaks the [`crate::proto`] handshake, and gives each connection
//! exactly **two** threads regardless of how many sessions it watches —
//! a **reader** that decodes [`ClientFrame`]s, answers session
//! directory / metrics queries, and forwards session-addressed commands
//! to the hosted sessions, and a single **streamer** that drains every
//! attached session's queue round-robin and writes event frames in
//! batches under the connection's write lock. A dashboard watching a
//! 64-session fleet therefore costs one socket and two threads, not 64
//! of each.
//!
//! Backpressure is per *(connection, session)*: every attach owns a
//! bounded [`EventReceiver`], so one stalled attach fills its own queue
//! — consecutive `TraceDelta`s coalesce, then the oldest events drop
//! (announced in-stream by
//! [`EngineEvent::Lagged`][crate::EngineEvent::Lagged]) — while sibling
//! attaches on the same socket, and the scheduler pump itself, never
//! block. The streamer encodes into a reused per-connection buffer
//! (zero steady-state allocations) and flushes whole batches per
//! write-lock acquisition.
//!
//! An optional shared-secret token ([`crate::ServerConfig::auth_token`])
//! rides in the `Hello` frame and is compared in constant time.
//!
//! [`WireClient`] is the matching blocking client: it drives the
//! handshake, attaches to any number of sessions
//! ([`WireClient::attach_many`]), demultiplexes their merged event
//! stream ([`WireClient::next_event_from`]), polls the server's session
//! directory ([`WireClient::list_sessions`]), and interleaves commands
//! with event consumption on a single socket.

use crate::metrics::{
    ConnMetrics, Gauge, MetricsRegistry, MetricsSnapshot, QuarantinedSession, SessionInfo,
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
use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket poll granularity: read/write timeouts and shutdown-flag
/// re-check period. A backstop, not the event latency — frames flow as
/// fast as the socket carries them, and queue pushes wake the streamer
/// immediately through its [`Notify`] flag.
const POLL: Duration = Duration::from_millis(20);

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
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl WireServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `server`'s sessions.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn start(server: Arc<DebugServer>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
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
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let conns: Vec<JoinHandle<()>> = lock(&self.conns).drain(..).collect();
        for handle in conns {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    server: &Arc<DebugServer>,
    shutdown: &Arc<AtomicBool>,
    conns: &Mutex<Vec<JoinHandle<()>>>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        // Reap finished connections so a long-lived server with churning
        // clients does not accumulate handles (finished threads are
        // safe to detach-drop).
        lock(conns).retain(|handle| !handle.is_finished());
        match listener.accept() {
            Ok((stream, _peer)) => {
                let server = Arc::clone(server);
                let shutdown_flag = Arc::clone(shutdown);
                // Held aside so a failed spawn can still tell the peer
                // why (the spawn closure consumes the original).
                let reporter = stream.try_clone();
                let spawned = std::thread::Builder::new()
                    .name("gmdf-wire-conn".to_owned())
                    .spawn(move || serve_connection(stream, &server, &shutdown_flag));
                match spawned {
                    Ok(handle) => lock(conns).push(handle),
                    // Thread exhaustion must not take down the accept
                    // loop (and with it every future client): tell this
                    // peer why and drop only its connection.
                    Err(e) => {
                        if let Ok(mut reporter) = reporter {
                            let _ = reporter.set_write_timeout(Some(POLL));
                            let refused = ServerFrame::Error {
                                seq: None,
                                message: format!("server cannot serve connection: {e}"),
                            };
                            if let Ok(bytes) = encode_frame(&refused) {
                                let _ = reporter.write_all(&bytes);
                            }
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Outcome of one blocking frame read on the server side.
enum ReadOutcome {
    Frame(ClientFrame),
    /// Clean close, peer error, or server shutdown — stop serving.
    Stop,
    /// The peer sent bytes that do not decode; report and stop.
    Malformed(String),
}

/// The wire-telemetry handle one connection's reader and streamer
/// share: `None` when metrics are disabled (every record is one branch),
/// otherwise the global [`crate::metrics::WireMetrics`] counters plus
/// this connection's own [`ConnMetrics`] row. Cloned into the streamer
/// thread; the per-connection row disappears from snapshots when the
/// last clone drops.
#[derive(Debug, Clone)]
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

/// Reads the next client frame, polling the shutdown flag at [`POLL`]
/// granularity. The stream must have a read timeout installed. Received
/// bytes and decoded frames are counted into `tel`.
fn next_client_frame(
    mut stream: &TcpStream,
    decoder: &mut FrameDecoder,
    shutdown: &AtomicBool,
    closed: &AtomicBool,
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
        if shutdown.load(Ordering::SeqCst) || closed.load(Ordering::SeqCst) {
            return ReadOutcome::Stop;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Stop,
            Ok(n) => {
                tel.bytes_rx(n as u64);
                decoder.feed(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return ReadOutcome::Stop,
        }
    }
}

/// How long a write keeps retrying after the connection started
/// closing (`closed` set): long enough for a final diagnostic frame to
/// reach a live peer, short enough that a stalled one only delays —
/// never wedges — its own teardown.
const FLUSH_GRACE: Duration = Duration::from_millis(500);

/// Writes pre-encoded bytes carrying `frames` whole frames (a batch of
/// one or many), retrying on write timeouts while polling the shutdown
/// flag. Once `closed` is set the retries continue only for
/// [`FLUSH_GRACE`], so queued diagnostics still flush to a live peer
/// but a stalled one cannot hang the join.
fn write_bytes(
    mut stream: &TcpStream,
    bytes: &[u8],
    frames: u64,
    shutdown: &AtomicBool,
    closed: &AtomicBool,
    tel: &Telemetry,
) -> Result<(), ()> {
    let mut off = 0;
    let mut grace: Option<Instant> = None;
    while off < bytes.len() {
        if shutdown.load(Ordering::SeqCst) {
            return Err(());
        }
        if closed.load(Ordering::SeqCst) {
            let deadline = *grace.get_or_insert_with(|| Instant::now() + FLUSH_GRACE);
            if Instant::now() >= deadline {
                return Err(());
            }
        }
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                tel.bytes_tx(n as u64);
                off += n;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return Err(()),
        }
    }
    tel.frames_tx(frames);
    Ok(())
}

/// Encodes and writes one frame (see [`write_bytes`]). A frame too
/// large to encode fails the write — client frames are requests, and a
/// request the peer can never receive has no useful substitute.
fn write_frame<T: Serialize>(
    stream: &TcpStream,
    frame: &T,
    shutdown: &AtomicBool,
    closed: &AtomicBool,
    tel: &Telemetry,
) -> Result<(), ()> {
    let bytes = encode_frame(frame).map_err(|_| ())?;
    write_bytes(stream, &bytes, 1, shutdown, closed, tel)
}

/// The request id `frame` answers, if it is a reply.
fn frame_seq(frame: &ServerFrame) -> Option<u64> {
    match frame {
        ServerFrame::Ack { seq }
        | ServerFrame::Snapshot { seq, .. }
        | ServerFrame::Trace { seq, .. }
        | ServerFrame::Sessions { seq, .. }
        | ServerFrame::Metrics { seq, .. }
        | ServerFrame::Analysis { seq, .. }
        | ServerFrame::Seek { seq, .. } => Some(*seq),
        ServerFrame::Error { seq, .. } => *seq,
        ServerFrame::HelloAck { .. } | ServerFrame::Event { .. } => None,
    }
}

/// The fitting substitute for an oversized event frame: an in-stream
/// [`EngineEvent::Lagged`] charging the event's payload (visible data
/// loss, stream stays healthy and decodable).
fn lagged_substitute(event: &EngineEvent) -> ServerFrame {
    ServerFrame::Event {
        event: EngineEvent::Lagged {
            session: event.session(),
            dropped: match event {
                EngineEvent::TraceDelta { entries, .. } => entries.len() as u64,
                _ => 1,
            },
        },
    }
}

/// Like [`write_frame`], but substitutes a fitting frame when the
/// encoding exceeds [`crate::proto::MAX_FRAME_LEN`]: an oversized event
/// degrades to
/// an in-stream [`EngineEvent::Lagged`] (visible data loss, stream
/// stays healthy), an oversized reply to an `Error` naming the request
/// — never a desynchronized stream the peer can only abandon.
fn write_server_frame(
    stream: &TcpStream,
    frame: &ServerFrame,
    shutdown: &AtomicBool,
    closed: &AtomicBool,
    tel: &Telemetry,
) -> Result<(), ()> {
    let bytes = match encode_frame(frame) {
        Ok(bytes) => bytes,
        Err(err) => {
            let substitute = match frame {
                ServerFrame::Event { event } => lagged_substitute(event),
                other => ServerFrame::Error {
                    seq: frame_seq(other),
                    message: format!("reply: {err}"),
                },
            };
            encode_frame(&substitute).map_err(|_| ())?
        }
    };
    write_bytes(stream, &bytes, 1, shutdown, closed, tel)
}

/// Holds the wire layer's live-connection gauge up for one connection's
/// lifetime; the decrement rides the drop so every early return in
/// [`serve_connection`] is covered.
struct ConnectionGauge(Gauge);

impl ConnectionGauge {
    fn acquire(gauge: &Gauge) -> Self {
        gauge.inc();
        ConnectionGauge(gauge.clone())
    }
}

impl Drop for ConnectionGauge {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// What the reader hands the streamer: a new (or replacement)
/// subscription to drain, or a detach. Sent over an `mpsc` channel and
/// applied at the top of every streamer sweep; the reader raises the
/// streamer's [`Notify`] after each send so ops apply immediately, not
/// at the next poll tick.
enum StreamOp {
    /// Start draining this subscription. Replaces an existing
    /// subscription to the same session (re-attach).
    Attach(EventReceiver),
    /// Stop draining (and drop) the subscription to this session.
    Detach(SessionId),
}

fn serve_connection(stream: TcpStream, server: &Arc<DebugServer>, shutdown: &Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(POLL));
    let registry = Arc::clone(server.metrics_registry());
    let tel = Telemetry::acquire(&registry);
    let _connections = registry
        .enabled()
        .then(|| ConnectionGauge::acquire(&registry.wire.connections));
    let closed = Arc::new(AtomicBool::new(false));
    let mut decoder = FrameDecoder::new();

    // Handshake: the first frame must be a version-matched Hello
    // carrying the shared secret, when the server requires one.
    match next_client_frame(&stream, &mut decoder, shutdown, &closed, &tel) {
        ReadOutcome::Frame(ClientFrame::Hello { version, token }) => {
            if version != crate::proto::WIRE_VERSION {
                let _ = write_frame(
                    &stream,
                    &ServerFrame::Error {
                        seq: None,
                        message: format!(
                            "wire version mismatch: server speaks {}, client sent {version}",
                            crate::proto::WIRE_VERSION
                        ),
                    },
                    shutdown,
                    &closed,
                    &tel,
                );
                return;
            }
            if let Some(required) = server.auth_token() {
                let presented = token.as_deref().unwrap_or("");
                if !ct_eq(required.as_bytes(), presented.as_bytes()) {
                    // One generic message for absent and wrong tokens
                    // alike — the reply must not narrate the secret.
                    let _ = write_frame(
                        &stream,
                        &ServerFrame::Error {
                            seq: None,
                            message: "authentication failed".to_owned(),
                        },
                        shutdown,
                        &closed,
                        &tel,
                    );
                    return;
                }
            }
        }
        ReadOutcome::Frame(_) => {
            let _ = write_frame(
                &stream,
                &ServerFrame::Error {
                    seq: None,
                    message: "expected Hello as the first frame".to_owned(),
                },
                shutdown,
                &closed,
                &tel,
            );
            return;
        }
        ReadOutcome::Malformed(e) => {
            let _ = write_frame(
                &stream,
                &ServerFrame::Error {
                    seq: None,
                    message: e,
                },
                shutdown,
                &closed,
                &tel,
            );
            return;
        }
        ReadOutcome::Stop => return,
    }

    // Post-handshake, replies and events share the socket: the reader
    // writes command replies directly (no queuing latency) and ONE
    // streamer thread drains every attached session's queue, batching
    // event frames; a write lock keeps whole frames (and batches)
    // atomic between the two.
    let write_lock = Arc::new(Mutex::new(()));
    let notify = Arc::new(Notify::default());
    let (ops_tx, ops_rx) = mpsc::channel::<StreamOp>();
    let streamer = {
        let stream_clone = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let shutdown_flag = Arc::clone(shutdown);
        let closed_flag = Arc::clone(&closed);
        let lock_clone = Arc::clone(&write_lock);
        let notify_clone = Arc::clone(&notify);
        let tel_clone = tel.clone();
        let spawned = std::thread::Builder::new()
            .name("gmdf-wire-streamer".to_owned())
            .spawn(move || {
                event_loop(
                    &stream_clone,
                    &ops_rx,
                    &notify_clone,
                    &shutdown_flag,
                    &closed_flag,
                    &lock_clone,
                    &tel_clone,
                );
            });
        match spawned {
            Ok(handle) => handle,
            // Degraded, not dead: without a streamer this connection
            // cannot honor its contract, so tell the peer and tear down
            // this one connection — never panic the accept path.
            Err(e) => {
                let _ = write_frame(
                    &stream,
                    &ServerFrame::Error {
                        seq: None,
                        message: format!("server cannot stream events: {e}"),
                    },
                    shutdown,
                    &closed,
                    &tel,
                );
                return;
            }
        }
    };
    let reply = |frame: ServerFrame| {
        let _guard = lock(&write_lock);
        if write_server_frame(&stream, &frame, shutdown, &closed, &tel).is_err() {
            closed.store(true, Ordering::SeqCst);
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

    // Which sessions this connection currently streams — reader-side
    // bookkeeping for the attached gauge and detach idempotence; the
    // streamer owns the receivers themselves.
    let mut attached: BTreeSet<SessionId> = BTreeSet::new();
    loop {
        if closed.load(Ordering::SeqCst) {
            break;
        }
        match next_client_frame(&stream, &mut decoder, shutdown, &closed, &tel) {
            ReadOutcome::Frame(ClientFrame::Hello { .. }) => {
                // A connection-level violation; per the protocol
                // contract a seq-less Error closes the connection.
                reply(ServerFrame::Error {
                    seq: None,
                    message: "duplicate Hello".to_owned(),
                });
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
                    let receiver = handle
                        .subscribe_queue(capacity.map(|c| c as usize), Some(Arc::clone(&notify)));
                    let _ = ops_tx.send(StreamOp::Attach(receiver));
                    notify.notify();
                    reply(ServerFrame::Ack { seq });
                    if attached.insert(session) {
                        tel.attach_inc();
                    }
                }
                None => reply(ServerFrame::Error {
                    seq: Some(seq),
                    message: format!("unknown session {session}"),
                }),
            },
            ReadOutcome::Frame(ClientFrame::Detach { seq, session }) => {
                // Idempotent: detaching a session that was never
                // attached (or already detached) still acks.
                if attached.remove(&session) {
                    let _ = ops_tx.send(StreamOp::Detach(session));
                    notify.notify();
                    tel.attach_dec();
                }
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
                // Written before `closed` is set, so the diagnostic
                // still flushes to a live peer.
                reply(ServerFrame::Error {
                    seq: None,
                    message: e,
                });
                break;
            }
            ReadOutcome::Stop => break,
        }
    }
    closed.store(true, Ordering::SeqCst);
    notify.notify();
    drop(ops_tx);
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
/// many sessions are attached. Each sweep applies pending
/// attach/detach ops, then drains the subscriptions round-robin (one
/// event per subscription per round, so a chatty session cannot starve
/// its siblings), encoding frames back-to-back into a reused batch
/// buffer; the whole batch goes out under a single write-lock
/// acquisition. When a full sweep finds nothing the streamer sleeps on
/// the connection's [`Notify`] flag, which every queue push raises.
///
/// Buffer reuse is the point: the v3 streamer allocated a fresh
/// `String` (JSON) and a fresh `Vec` (length-prefixed bytes) per event
/// frame; here both scratch buffers and the batch buffer are warm after
/// the first frame, so steady-state encoding allocates only what the
/// serializer itself needs.
fn event_loop(
    stream: &TcpStream,
    ops: &mpsc::Receiver<StreamOp>,
    notify: &Notify,
    shutdown: &AtomicBool,
    closed: &AtomicBool,
    write_lock: &Mutex<()>,
    tel: &Telemetry,
) {
    let mut subs: Vec<EventReceiver> = Vec::new();
    let mut json = String::new();
    let mut batch: Vec<u8> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) || closed.load(Ordering::SeqCst) {
            return;
        }
        // Apply pending attach/detach ops. A disconnected ops channel
        // means the reader is gone; it sets `closed` before dropping
        // its sender, so the top-of-loop check exits next sweep.
        loop {
            match ops.try_recv() {
                Ok(StreamOp::Attach(receiver)) => {
                    let session = receiver.session();
                    match subs.iter_mut().find(|s| s.session() == session) {
                        // Re-attach: the replacement subscription takes
                        // over; dropping the old receiver unsubscribes
                        // it server-side.
                        Some(slot) => *slot = receiver,
                        None => subs.push(receiver),
                    }
                }
                Ok(StreamOp::Detach(session)) => subs.retain(|s| s.session() != session),
                Err(mpsc::TryRecvError::Empty | mpsc::TryRecvError::Disconnected) => break,
            }
        }
        // Sweep: round-robin over the subscriptions, one event each per
        // round, until a full round finds nothing or the batch is full.
        batch.clear();
        let mut frames = 0u64;
        let mut dead: Vec<SessionId> = Vec::new();
        'sweep: loop {
            let mut progressed = false;
            for sub in &subs {
                match sub.try_recv() {
                    Ok(event) => {
                        progressed = true;
                        if let EngineEvent::Lagged { dropped, .. } = &event {
                            tel.lagged(*dropped);
                        }
                        let frame = ServerFrame::Event { event };
                        if encode_frame_into(&frame, &mut json, &mut batch).is_err() {
                            let ServerFrame::Event { event } = &frame else {
                                unreachable!()
                            };
                            let substitute = lagged_substitute(event);
                            if let EngineEvent::Lagged { dropped, .. } = match &substitute {
                                ServerFrame::Event { event } => event,
                                _ => unreachable!(),
                            } {
                                tel.lagged(*dropped);
                            }
                            encode_frame_into(&substitute, &mut json, &mut batch)
                                .expect("Lagged substitute frame fits");
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
            subs.retain(|s| !dead.contains(&s.session()));
        }
        if frames > 0 {
            let guard = lock(write_lock);
            let ok = write_bytes(stream, &batch, frames, shutdown, closed, tel).is_ok();
            drop(guard);
            if !ok {
                closed.store(true, Ordering::SeqCst);
                return;
            }
        } else {
            notify.wait_timeout(POLL);
        }
    }
}

/// A blocking client for [`WireServer`]: one socket, any number of
/// attached sessions, commands interleaved with the merged event
/// stream.
///
/// Events that arrive while the client waits for a command reply are
/// buffered and handed out by [`WireClient::next_event`] /
/// [`WireClient::next_event_from`] in arrival order — nothing on the
/// stream is dropped client-side. Every session-scoped call names its
/// session explicitly; attach first to stream events
/// ([`WireClient::attach`], [`WireClient::attach_many`]), while
/// commands and queries work without any attach.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    buffered: std::collections::VecDeque<crate::EngineEvent>,
    sessions: Vec<SessionId>,
    quarantined: Vec<QuarantinedSession>,
    /// The currently attached sessions; events from any other session
    /// (stragglers written around a detach) are filtered out.
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
        self.wait_reply(seq, timeout, "Sessions", move |frame| match frame {
            ServerFrame::Sessions { seq: s, sessions } if s == seq => Ok(sessions),
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
        self.wait_reply(seq, timeout, "Analysis", move |frame| match frame {
            ServerFrame::Analysis { seq: s, report } if s == seq => Ok(*report),
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
        self.wait_reply(seq, timeout, "Metrics", move |frame| match frame {
            ServerFrame::Metrics { seq: s, snapshot } if s == seq => Ok(*snapshot),
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
        let seq = self.next_seq();
        self.write(&ClientFrame::Attach {
            seq,
            session,
            capacity,
        })?;
        self.wait_ack(seq)?;
        self.attached.insert(session);
        Ok(())
    }

    /// Attaches to every session in `sessions`, pipelined: all `Attach`
    /// frames go out back-to-back, then the acknowledgments are awaited
    /// in order — one round-trip for the whole batch instead of one per
    /// session. Sessions acked before the first failure stay attached.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] on the first unknown session, transport
    /// errors otherwise.
    pub fn attach_many(&mut self, sessions: &[SessionId]) -> Result<(), WireError> {
        let mut seqs = Vec::with_capacity(sessions.len());
        for &session in sessions {
            let seq = self.next_seq();
            self.write(&ClientFrame::Attach {
                seq,
                session,
                capacity: None,
            })?;
            seqs.push((seq, session));
        }
        for (seq, session) in seqs {
            self.wait_ack(seq)?;
            self.attached.insert(session);
        }
        Ok(())
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
        self.wait_reply(seq, timeout, "Snapshot", move |frame| match frame {
            ServerFrame::Snapshot { seq: s, snapshot } if s == seq => Ok(snapshot),
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
        self.wait_reply(seq, timeout, "Seek", move |frame| match frame {
            ServerFrame::Seek { seq: s, report } if s == seq => Ok(*report),
            other => Err(other),
        })
    }

    /// Waits for the [`ServerFrame::Trace`] reply answering `seq`.
    fn wait_trace(&mut self, seq: u64, timeout: Duration) -> Result<crate::TraceSlice, WireError> {
        self.wait_reply(seq, timeout, "Trace", move |frame| match frame {
            ServerFrame::Trace { seq: s, slice } if s == seq => Ok(slice),
            other => Err(other),
        })
    }

    /// The shared reply wait: reads frames until `extract` accepts one,
    /// buffering interleaved events, skipping stale replies left by
    /// earlier timed-out requests, and surfacing this request's (or the
    /// connection's) error.
    fn wait_reply<T>(
        &mut self,
        seq: u64,
        timeout: Duration,
        what: &str,
        extract: impl Fn(ServerFrame) -> Result<T, ServerFrame>,
    ) -> Result<T, WireError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(WireError::Timeout);
            }
            match extract(self.read_frame(remaining)?) {
                Ok(reply) => return Ok(reply),
                Err(ServerFrame::Event { event }) => self.buffered.push_back(event),
                Err(ServerFrame::Error { seq: Some(s), .. }) if s != seq => {} // stale
                Err(ServerFrame::Error { message, .. }) => return Err(WireError::Remote(message)),
                // Stale replies to requests whose caller already gave
                // up; this request's reply is still coming.
                Err(
                    ServerFrame::Ack { .. }
                    | ServerFrame::Snapshot { .. }
                    | ServerFrame::Trace { .. }
                    | ServerFrame::Sessions { .. }
                    | ServerFrame::Metrics { .. }
                    | ServerFrame::Seek { .. },
                ) => {}
                Err(other) => {
                    return Err(WireError::Protocol(format!(
                        "expected {what}, got {other:?}"
                    )))
                }
            }
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
        while let Some(event) = self.buffered.pop_front() {
            if self.wants(&event) {
                return Ok(event);
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(WireError::Timeout);
            }
            match self.read_frame(remaining)? {
                ServerFrame::Event { event } if self.wants(&event) => return Ok(event),
                // A straggler from a detached session, written around
                // the detach; not part of any current stream.
                ServerFrame::Event { .. } => {}
                // Stray replies from an earlier timed-out request (an
                // Ack, a Snapshot, a Trace page, or a request-level
                // Error that arrived after its caller gave up) are not
                // events; skip them instead of poisoning an otherwise
                // healthy connection.
                ServerFrame::Ack { .. }
                | ServerFrame::Snapshot { .. }
                | ServerFrame::Trace { .. }
                | ServerFrame::Sessions { .. }
                | ServerFrame::Metrics { .. }
                | ServerFrame::Seek { .. } => {}
                ServerFrame::Error { seq: Some(_), .. } => {}
                ServerFrame::Error { message, .. } => return Err(WireError::Remote(message)),
                other => {
                    return Err(WireError::Protocol(format!(
                        "expected Event, got {other:?}"
                    )))
                }
            }
        }
    }

    /// The next event on `session`'s sub-stream: the per-session demux
    /// over the merged stream. Other attached sessions' events read
    /// along the way stay buffered in arrival order for their own
    /// [`WireClient::next_event_from`] (or [`WireClient::next_event`])
    /// calls — draining one session never loses a sibling's events.
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
        if let Some(pos) = self
            .buffered
            .iter()
            .position(|event| event.session() == session)
        {
            return Ok(self.buffered.remove(pos).expect("position is in range"));
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(WireError::Timeout);
            }
            match self.read_frame(remaining)? {
                ServerFrame::Event { event } if event.session() == session => return Ok(event),
                ServerFrame::Event { event } if self.wants(&event) => {
                    self.buffered.push_back(event);
                }
                // A straggler from a detached session.
                ServerFrame::Event { .. } => {}
                ServerFrame::Ack { .. }
                | ServerFrame::Snapshot { .. }
                | ServerFrame::Trace { .. }
                | ServerFrame::Sessions { .. }
                | ServerFrame::Metrics { .. }
                | ServerFrame::Seek { .. } => {}
                ServerFrame::Error { seq: Some(_), .. } => {}
                ServerFrame::Error { message, .. } => return Err(WireError::Remote(message)),
                other => {
                    return Err(WireError::Protocol(format!(
                        "expected Event, got {other:?}"
                    )))
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

    fn write<T: Serialize>(&mut self, frame: &T) -> Result<(), WireError> {
        let bytes = encode_frame(frame).map_err(|e| WireError::Protocol(e.to_string()))?;
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// `true` if `event` belongs to a currently attached session's
    /// stream.
    fn wants(&self, event: &crate::EngineEvent) -> bool {
        self.attached.contains(&event.session())
    }

    fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    fn wait_ack(&mut self, seq: u64) -> Result<(), WireError> {
        self.wait_reply(seq, REPLY_WAIT, "Ack", move |frame| match frame {
            ServerFrame::Ack { seq: s } if s == seq => Ok(()),
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
