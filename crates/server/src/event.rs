//! The server's broadcast vocabulary: what subscribers see.
//!
//! Every type here is serde-serializable: the wire layer
//! ([`crate::WireServer`] / [`crate::WireClient`]) ships these exact
//! structures as JSON frames, and the in-process broadcast hands them
//! out by value — one vocabulary, two transports.

use crate::server::SessionId;
use gmdf::RunReport;
use gmdf_engine::{EngineState, TraceEntry};
use serde::{Deserialize, Serialize};

/// One notification on a session's broadcast stream.
///
/// Events are emitted at scheduling-turn granularity (commands applied,
/// at most one slice pumped, deltas published) and carry everything a
/// viewer needs to stay current without polling: the incremental trace,
/// raised violations, breakpoint hits, and lifecycle edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineEvent {
    /// One scheduler slice finished on this session.
    SliceCompleted {
        /// The session that was pumped.
        session: SessionId,
        /// Target time after the slice.
        now_ns: u64,
        /// Feed outcome of the slice (events fed, violations, breaks).
        report: RunReport,
    },
    /// New trace entries since the previous delta, in sequence order.
    TraceDelta {
        /// The recording session.
        session: SessionId,
        /// The freshly recorded entries (dense `seq` on an unbounded or
        /// keeping-up subscription; a lagging bounded subscription may
        /// see gaps, each announced by a preceding [`Self::Lagged`]).
        entries: Vec<TraceEntry>,
    },
    /// An expectation violation was raised — a found bug.
    Violation {
        /// The violating session.
        session: SessionId,
        /// Trace sequence number of the violating command.
        seq: u64,
        /// Human-readable violation message.
        message: String,
    },
    /// A model-level breakpoint paused the session's engine. Published
    /// in the same turn as the [`EngineEvent::TraceDelta`] carrying the
    /// entry that hit, and never for an entry below where the stream
    /// starts: a subscriber that attaches to a restarted session is
    /// not told again of hits its history already holds.
    BreakpointHit {
        /// The paused session.
        session: SessionId,
        /// Trace sequence number of the command that hit.
        seq: u64,
        /// Model time of that command.
        time_ns: u64,
    },
    /// The session consumed its whole run budget and left the run queue.
    Idle {
        /// The now-idle session.
        session: SessionId,
        /// Target time at which it went idle.
        now_ns: u64,
    },
    /// The session failed; it is parked and will accept no more pumping.
    Error {
        /// The failed session.
        session: SessionId,
        /// What went wrong.
        message: String,
    },
    /// This subscriber fell behind a bounded queue and data was dropped
    /// — delivered in-stream, exactly where the loss happened. The run
    /// itself is unaffected; a snapshot still serves the full trace.
    Lagged {
        /// The session whose stream lost data.
        session: SessionId,
        /// Events dropped since the previous `Lagged` (a dropped
        /// `TraceDelta` counts one per trace entry it carried).
        dropped: u64,
    },
}

impl EngineEvent {
    /// The session this event concerns.
    pub fn session(&self) -> SessionId {
        match self {
            EngineEvent::SliceCompleted { session, .. }
            | EngineEvent::TraceDelta { session, .. }
            | EngineEvent::Violation { session, .. }
            | EngineEvent::BreakpointHit { session, .. }
            | EngineEvent::Idle { session, .. }
            | EngineEvent::Error { session, .. }
            | EngineEvent::Lagged { session, .. } => *session,
        }
    }
}

/// A bounded page of trace history — the reply to
/// [`Query::FetchRange`], [`Query::ReplayFrom`] and
/// [`Query::ReplayWindow`]. Remote clients page a long (possibly
/// disk-backed) trace through these instead of pulling the whole record
/// in one snapshot.
///
/// [`Query::FetchRange`]: crate::Query::FetchRange
/// [`Query::ReplayFrom`]: crate::Query::ReplayFrom
/// [`Query::ReplayWindow`]: crate::Query::ReplayWindow
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSlice {
    /// The session whose trace was read.
    pub session: SessionId,
    /// Sequence number of the first returned entry (the requested
    /// start when nothing was returned).
    pub first_seq: u64,
    /// The entries, in sequence order. Capped server-side
    /// ([`MAX_FETCH_ENTRIES`]) — while `complete` is false, continue
    /// with [`Query::ReplayFrom`] at
    /// `first_seq + entries.len()` until `end_seq`.
    ///
    /// [`MAX_FETCH_ENTRIES`]: crate::MAX_FETCH_ENTRIES
    /// [`Query::ReplayFrom`]: crate::Query::ReplayFrom
    pub entries: Vec<TraceEntry>,
    /// Exclusive upper bound of the *full* requested range: the
    /// window's last matching sequence + 1 for `FetchRange`, the trace
    /// length for `ReplayFrom`. This is the continuation limit — a
    /// truncated `FetchRange` page is resumed by sequence number, so
    /// the follow-up pages cannot overshoot the time window.
    pub end_seq: u64,
    /// `true` when this page reaches the end of the requested range
    /// (`first_seq + entries.len() >= end_seq`).
    pub complete: bool,
}

/// The reply to [`Query::SeekTo`] / [`Query::StepBack`]: where the
/// time-travel replica landed
/// and what it cost to get there. The live session is untouched by a
/// seek — the server restores the nearest persisted checkpoint into a
/// throwaway replica and deterministically replays it forward
/// O(checkpoint interval), instead of O(whole trace) from zero.
///
/// [`Query::SeekTo`]: crate::Query::SeekTo
/// [`Query::StepBack`]: crate::Query::StepBack
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeekReport {
    /// The session whose history was seeked.
    pub session: SessionId,
    /// The requested target instant, clamped to the live session's
    /// current time (history cannot be seeked into the future).
    pub target_ns: u64,
    /// The replica's clock after the seek (equals `target_ns`).
    pub now_ns: u64,
    /// Trace position (sequence number) of the restored checkpoint;
    /// `None` when no usable checkpoint preceded the target and the
    /// replica replayed from time zero instead.
    pub checkpoint_seq: Option<u64>,
    /// Target time of the restored checkpoint, when one was used.
    pub checkpoint_t_ns: Option<u64>,
    /// Journaled commands re-applied between the checkpoint and the
    /// target.
    pub replayed_commands: u64,
    /// Trace entries the replica regenerated on the way to the target.
    /// This is the seek's cost — bounded by the checkpoint interval,
    /// not by the trace length.
    pub replayed_entries: u64,
    /// The replica's trace length at the target instant (persisted
    /// prefix plus regenerated entries).
    pub trace_len: u64,
    /// The replica's engine control state at the target instant.
    pub engine_state: EngineState,
    /// The replica's full trace, serialized — byte-identical to the
    /// trace an uninterrupted run had at the same instant. `None`
    /// unless the seek asked for it (O(trace length) to build).
    pub trace_json: Option<String>,
}

/// A consistent point-in-time view of one hosted session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The snapshotted session.
    pub session: SessionId,
    /// Target simulation time.
    pub now_ns: u64,
    /// Engine control state (waiting / paused at a breakpoint).
    pub engine_state: EngineState,
    /// Commands queued in the engine while paused.
    pub pending: usize,
    /// Entries recorded in the execution trace.
    pub trace_len: usize,
    /// The full trace, serialized (byte-stable across identical runs).
    /// `None` for counter-only snapshots ([`SessionHandle::stats`]).
    ///
    /// [`SessionHandle::stats`]: crate::SessionHandle::stats
    pub trace_json: Option<String>,
    /// Total model events fed over the session's lifetime.
    pub events_fed: u64,
    /// Total expectation violations raised.
    pub violations: u64,
    /// Total breakpoint hits.
    pub breakpoint_hits: u64,
    /// Total events dropped by this session's bounded subscriber
    /// queues (cumulative, across all subscribers — including ones
    /// already gone). Without this, drop counts die inside the queue
    /// that suffered them and are visible only to the subscriber that
    /// lagged.
    pub lagged_drops: u64,
    /// Run budget not yet consumed, in nanoseconds.
    pub remaining_ns: u64,
}
