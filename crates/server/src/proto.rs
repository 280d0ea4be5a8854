//! Wire protocol: framing and envelopes for remote debug clients.
//!
//! The transport is deliberately minimal — a paper-faithful "Debugger
//! Communication Framework" a microcontroller-side stub could speak:
//!
//! * **Framing**: each message is `[u32 length, big-endian][payload]`,
//!   where the payload is the compact JSON serialization of one
//!   envelope ([`ClientFrame`] client→server, [`ServerFrame`]
//!   server→client). Frames longer than [`MAX_FRAME_LEN`] are rejected
//!   (a desynchronized or hostile peer must not drive allocation).
//! * **Handshake**: the client's first frame must be
//!   [`ClientFrame::Hello`] carrying [`WIRE_VERSION`] (and the shared
//!   secret when the server requires one); the server answers
//!   [`ServerFrame::HelloAck`] (listing attachable sessions) or
//!   [`ServerFrame::Error`] and closes. Versioning is strict equality —
//!   the vocabulary is re-negotiated per release, not field-patched.
//! * **Envelopes**: after the handshake, the connection is
//!   **multiplexed**: the client attaches to any number of sessions
//!   concurrently ([`ClientFrame::Attach`] / [`ClientFrame::Detach`]),
//!   addresses every [`SessionCommand`] — a [`Mutation`] or a
//!   [`Query`] — at an explicit session, and polls the live session
//!   directory ([`ClientFrame::ListSessions`] /
//!   [`ServerFrame::Sessions`]). The server interleaves command replies
//!   (`Ack` / `Snapshot` / `Trace` / `Seek` / `Error`) with the
//!   attached sessions' merged [`EngineEvent`] stream on the same
//!   socket; every event carries its session id, so frames demultiplex
//!   client-side without per-session sockets.
//!
//! The JSON encoding of every payload type is exactly the vendored
//! serde shim's derive format, so a wire round-trip of an event stream
//! is byte-identical to serializing the in-process broadcast
//! (`crates/server/tests/wire.rs` pins this down).

use crate::event::{EngineEvent, SeekReport, SessionSnapshot, TraceSlice};
use crate::metrics::{MetricsSnapshot, QuarantinedSession, SessionInfo};
use crate::server::{Query, SessionId};
use gmdf::Mutation;
use serde::{Content, DeError, Deserialize, Serialize};

/// Protocol revision spoken by this build. Strict equality is required
/// at handshake time. Version 2 added the history-paging pair
/// ([`Query::FetchRange`] / [`Query::ReplayFrom`])
/// and their [`ServerFrame::Trace`] reply. Version 3 added the
/// server-scope telemetry pair ([`ClientFrame::ListMetrics`] /
/// [`ServerFrame::Metrics`]) and the quarantine list in
/// [`ServerFrame::HelloAck`]. Version 4 multiplexed the connection:
/// concurrent attaches ([`ClientFrame::Attach`] grew a queue-capacity
/// override, [`ClientFrame::Detach`] appeared), session-addressed
/// commands ([`ClientFrame::Command`] carries a `session`), the live
/// directory pair ([`ClientFrame::ListSessions`] /
/// [`ServerFrame::Sessions`]), and the optional shared-secret `token`
/// in [`ClientFrame::Hello`]. Version 5 added static analysis: the
/// server-scope [`ClientFrame::Analyze`] / [`ServerFrame::Analysis`]
/// pair serving each session's cached
/// [`AnalysisReport`](gmdf_analyze::AnalysisReport), and the
/// `diagnostics: (errors, warnings)` summary on every [`SessionInfo`]
/// directory row. Version 6 added time travel: the
/// [`Query::SeekTo`] / [`Query::StepBack`] queries with their
/// [`ServerFrame::Seek`] reply, and [`Query::ReplayWindow`], answered —
/// like the other history reads — with [`ServerFrame::Trace`]. Within
/// version 6 the command vocabulary was split into data-only
/// [`Mutation`]s and [`Query`]s ([`SessionCommand`]) without changing a
/// byte on the wire.
pub const WIRE_VERSION: u32 = 6;

/// Upper bound on one frame's payload length (64 MiB) — large enough
/// for a full-trace snapshot of any realistic session, small enough
/// that a desynchronized length prefix cannot drive allocation.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// A message from a remote client to the wire server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientFrame {
    /// Handshake opener; must be the first frame on the connection.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u32,
        /// Shared-secret authentication token. Required (and compared
        /// in constant time) when the server was configured with
        /// [`crate::ServerConfig::auth_token`]; ignored otherwise.
        token: Option<String>,
    },
    /// Attach this connection to one hosted session: its event stream
    /// starts flowing, interleaved with every other attached session's.
    /// Re-attaching an already-attached session replaces its
    /// subscription (the stream restarts from now).
    Attach {
        /// Client-chosen request id, echoed in the reply — correlates
        /// replies with requests even after a client-side timeout left
        /// a stale reply in flight.
        seq: u64,
        /// The session to attach to (see
        /// [`ServerFrame::HelloAck::sessions`] or
        /// [`ServerFrame::Sessions`]).
        session: SessionId,
        /// Override for this attach's event-queue capacity (`Some(0)` =
        /// unbounded); `None` uses the server default
        /// ([`crate::ServerConfig::subscriber_capacity`]). Each attach
        /// gets its own (connection, session) bounded queue, so one
        /// lagging attach overflows alone.
        capacity: Option<u64>,
    },
    /// Detach one session from this connection: its event stream stops
    /// (frames already in flight may still arrive — clients filter
    /// stragglers). Idempotent; other attaches are untouched.
    Detach {
        /// Client-chosen request id, echoed in the reply.
        seq: u64,
        /// The session to detach.
        session: SessionId,
    },
    /// Post one command to a hosted session's mailbox. A [`Mutation`]
    /// is answered with [`ServerFrame::Ack`], a [`Query`] with its
    /// reply frame. Commands are session-addressed and need no prior
    /// attach.
    Command {
        /// Client-chosen request id, echoed in the reply.
        seq: u64,
        /// The session the command addresses.
        session: SessionId,
        /// The command to apply.
        command: SessionCommand,
    },
    /// Request the live session directory — one
    /// [`SessionInfo`] row per hosted (and quarantined) session.
    /// Server-scope: a discovery client can poll the fleet and choose
    /// what to attach without any prior attach. Answered with
    /// [`ServerFrame::Sessions`].
    ListSessions {
        /// Client-chosen request id, echoed in the reply.
        seq: u64,
    },
    /// Request the server's fleet-wide [`MetricsSnapshot`]. This is a
    /// *server-scope* request — it needs no attached session, so a
    /// monitoring client can poll telemetry right after the handshake.
    /// Answered with [`ServerFrame::Metrics`].
    ListMetrics {
        /// Client-chosen request id, echoed in the reply.
        seq: u64,
    },
    /// Request one session's cached static-analysis report
    /// (schedulability verdicts, route findings, model lint). The
    /// report is computed once when the session registers and served
    /// from cache, so this is cheap enough to poll. Server-scope (no
    /// prior attach needed); answered with [`ServerFrame::Analysis`],
    /// or [`ServerFrame::Error`] for an unknown session.
    Analyze {
        /// Client-chosen request id, echoed in the reply.
        seq: u64,
        /// The session whose report to fetch.
        session: SessionId,
    },
}

/// A message from the wire server to a remote client.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServerFrame {
    /// Successful handshake reply.
    HelloAck {
        /// The server's [`WIRE_VERSION`] (equal to the client's).
        version: u32,
        /// Sessions hosted at handshake time, attachable by id.
        sessions: Vec<SessionId>,
        /// Sessions quarantined at handshake time (failed a durable
        /// restore), each with its restore-failure reason. Not
        /// attachable; listed so a remote operator can see *why* a
        /// session is missing from `sessions`.
        quarantined: Vec<QuarantinedSession>,
    },
    /// A non-snapshot request was accepted (attach done, command in
    /// the mailbox).
    Ack {
        /// The request id this acknowledges.
        seq: u64,
    },
    /// A request failed (unknown session, bad command, shut-down
    /// server…), or — with no `seq` — the connection itself is in
    /// trouble (handshake rejection, malformed frame). Connection-level
    /// errors close the connection; request-level ones do not.
    Error {
        /// The failed request's id; `None` for connection-level errors.
        seq: Option<u64>,
        /// What went wrong.
        message: String,
    },
    /// Reply to a [`Query::Snapshot`] command.
    Snapshot {
        /// The request id this answers.
        seq: u64,
        /// The consistent point-in-time view.
        snapshot: SessionSnapshot,
    },
    /// Reply to a [`Query::FetchRange`], [`Query::ReplayFrom`] or
    /// [`Query::ReplayWindow`] command: one page of trace history.
    Trace {
        /// The request id this answers.
        seq: u64,
        /// The page (bounded; see [`TraceSlice::complete`]).
        slice: TraceSlice,
    },
    /// Reply to a [`ClientFrame::ListSessions`] request: the live
    /// session directory clients discover and attach against.
    Sessions {
        /// The request id this answers.
        seq: u64,
        /// One row per hosted session (quarantined ids included, marked
        /// by their [`crate::HealthState`]).
        sessions: Vec<SessionInfo>,
    },
    /// Reply to a [`ClientFrame::ListMetrics`] request: the fleet-wide
    /// telemetry snapshot.
    Metrics {
        /// The request id this answers.
        seq: u64,
        /// The point-in-time fleet view (boxed: it is by far the
        /// largest payload, and boxing keeps the frame enum small).
        snapshot: Box<MetricsSnapshot>,
    },
    /// Reply to a [`Query::SeekTo`] or [`Query::StepBack`] command:
    /// where the time-travel replica landed.
    Seek {
        /// The request id this answers.
        seq: u64,
        /// The seek outcome (boxed: the optional serialized trace makes
        /// this a large payload, and boxing keeps the frame enum small).
        report: Box<SeekReport>,
    },
    /// Reply to a [`ClientFrame::Analyze`] request: the session's
    /// cached static-analysis report.
    Analysis {
        /// The request id this answers.
        seq: u64,
        /// The full report (boxed: diagnostics-heavy reports dwarf the
        /// other variants, and boxing keeps the frame enum small).
        report: Box<gmdf_analyze::AnalysisReport>,
    },
    /// One event from an attached session's broadcast stream. The
    /// event carries its session id — a multiplexed connection's merged
    /// stream demultiplexes on it.
    Event {
        /// The broadcast event (including [`EngineEvent::Lagged`] when
        /// this (connection, session) queue fell behind).
        event: EngineEvent,
    },
}

impl ServerFrame {
    /// The request id this frame answers: `Some` for every reply,
    /// request-level [`ServerFrame::Error`]s included; `None` for an
    /// [`ServerFrame::Event`], the [`ServerFrame::HelloAck`] and a
    /// connection-level `Error`. Both sides of the socket sort frames by
    /// it — the server to name an oversized reply's request, the client
    /// to tell its awaited reply from a stale one. The match has no
    /// wildcard, so a new reply variant must say here what it answers.
    pub(crate) fn reply_to(&self) -> Option<u64> {
        match self {
            ServerFrame::Ack { seq }
            | ServerFrame::Snapshot { seq, .. }
            | ServerFrame::Trace { seq, .. }
            | ServerFrame::Sessions { seq, .. }
            | ServerFrame::Metrics { seq, .. }
            | ServerFrame::Seek { seq, .. }
            | ServerFrame::Analysis { seq, .. } => Some(*seq),
            ServerFrame::Error { seq, .. } => *seq,
            ServerFrame::HelloAck { .. } | ServerFrame::Event { .. } => None,
        }
    }
}

/// The payload of a [`ClientFrame::Command`]: a state change for the
/// session's mailbox, or a read answered with its own reply frame.
///
/// On the wire the variant name is not written: a command is exactly
/// its inner [`Mutation`] or [`Query`] (`{"RunFor":{"duration_ns":7}}`,
/// `"Step"`, `{"Snapshot":{"include_trace":false}}`), and the two
/// vocabularies share no variant name, so decoding is unambiguous.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionCommand {
    /// Applied to the session and acknowledged with [`ServerFrame::Ack`].
    Mutate(Mutation),
    /// Answered with [`ServerFrame::Snapshot`], [`ServerFrame::Trace`]
    /// or [`ServerFrame::Seek`].
    Query(Query),
}

impl Serialize for SessionCommand {
    fn to_content(&self) -> Content {
        match self {
            SessionCommand::Mutate(mutation) => mutation.to_content(),
            SessionCommand::Query(query) => query.to_content(),
        }
    }
}

impl Deserialize for SessionCommand {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Mutation::from_content(c)
            .map(SessionCommand::Mutate)
            .or_else(|as_mutation| {
                Query::from_content(c)
                    .map(SessionCommand::Query)
                    .map_err(|as_query| {
                        DeError::custom(format!(
                            "neither a mutation ({as_mutation}) nor a query ({as_query})"
                        ))
                    })
            })
    }
}

/// An envelope too large for the wire: its encoded payload exceeds
/// [`MAX_FRAME_LEN`], so writing it would either truncate the length
/// prefix or feed the peer a frame its decoder must reject. Carries the
/// offending payload length so senders can substitute a bounded notice
/// (see `encode_server_frame` in the wire layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// Encoded payload length that broke the limit.
    pub payload_len: usize,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit",
            self.payload_len
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Encodes one envelope as a length-prefixed frame, ready to write.
///
/// # Errors
///
/// Rejects envelopes whose payload exceeds [`MAX_FRAME_LEN`] — an
/// unchecked `as u32` cast here would silently truncate the length
/// prefix and desynchronize the stream for every later frame.
pub fn encode_frame<T: Serialize>(frame: &T) -> Result<Vec<u8>, FrameTooLarge> {
    let mut json = String::new();
    let mut out = Vec::new();
    encode_frame_into(frame, &mut json, &mut out)?;
    Ok(out)
}

/// The buffer-reuse form of [`encode_frame`]: appends one
/// length-prefixed frame to `out`, rendering the JSON through the
/// caller-owned `json` scratch buffer. A hot encode loop (the
/// per-connection streamer batching event frames) keeps both buffers
/// warm, so steady-state encoding allocates nothing — instead of one
/// fresh `String` plus one fresh `Vec` per frame.
///
/// `json` is cleared on entry; `out` is appended to (never truncated),
/// so successive frames batch into one write. On error `out` is left
/// exactly as it was.
///
/// # Errors
///
/// Rejects envelopes whose payload exceeds [`MAX_FRAME_LEN`], like
/// [`encode_frame`].
pub fn encode_frame_into<T: Serialize>(
    frame: &T,
    json: &mut String,
    out: &mut Vec<u8>,
) -> Result<(), FrameTooLarge> {
    json.clear();
    serde_json::write_to_string(frame, json);
    if json.len() > MAX_FRAME_LEN {
        return Err(FrameTooLarge {
            payload_len: json.len(),
        });
    }
    out.reserve(4 + json.len());
    out.extend_from_slice(&(json.len() as u32).to_be_bytes());
    out.extend_from_slice(json.as_bytes());
    Ok(())
}

/// Decodes one frame payload (the JSON bytes *after* the length
/// prefix) into an envelope.
///
/// # Errors
///
/// Returns a message for non-UTF-8 or shape-mismatched payloads.
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text =
        std::str::from_utf8(payload).map_err(|e| format!("frame payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Incremental frame deframer: feed it bytes in whatever chunks the
/// socket hands out (a frame may straddle any number of reads — same
/// contract as the UART decoder on the target side), take complete
/// payloads out as they materialize.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Takes the next complete frame payload, if one is buffered.
    ///
    /// # Errors
    ///
    /// Returns a message when the peer announces a frame longer than
    /// [`MAX_FRAME_LEN`] — the stream is desynchronized and the
    /// connection should be dropped.
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, String> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: a reply carrying a payload past
    /// [`MAX_FRAME_LEN`] must come back as [`FrameTooLarge`], not as a
    /// frame whose length prefix the decoder will reject (or, for
    /// payloads past `u32::MAX`, a silently truncated prefix that
    /// desynchronizes every later frame).
    #[test]
    fn oversized_envelope_is_an_error_not_a_bad_prefix() {
        let fits = ServerFrame::Error {
            seq: Some(1),
            message: "x".repeat(1024),
        };
        assert!(encode_frame(&fits).is_ok());

        let too_big = ServerFrame::Error {
            seq: Some(2),
            message: "x".repeat(MAX_FRAME_LEN + 1),
        };
        let err = encode_frame(&too_big).expect_err("must refuse to encode");
        assert!(err.payload_len > MAX_FRAME_LEN);
        let shown = err.to_string();
        assert!(shown.contains("exceeds"), "unhelpful error: {shown}");
    }

    /// The boundary itself is legal: a payload of exactly
    /// `MAX_FRAME_LEN` bytes round-trips through the decoder.
    #[test]
    fn frame_at_the_limit_round_trips() {
        // JSON overhead: {"type":"error","seq":3,"message":"..."} — pad
        // the message so the whole payload lands exactly on the limit.
        let probe = ServerFrame::Error {
            seq: Some(3),
            message: String::new(),
        };
        let overhead = serde_json::to_string(&probe).expect("serializes").len();
        let frame = ServerFrame::Error {
            seq: Some(3),
            message: "y".repeat(MAX_FRAME_LEN - overhead),
        };
        let bytes = encode_frame(&frame).expect("exactly at the limit encodes");
        assert_eq!(bytes.len(), 4 + MAX_FRAME_LEN);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        let payload = decoder
            .next_payload()
            .expect("length prefix is within bounds")
            .expect("complete");
        assert_eq!(payload.len(), MAX_FRAME_LEN);
    }
}
