//! The debug server: session registry, shards, and the run-queue
//! scheduler.
//!
//! ## Architecture
//!
//! Sessions are **sharded**: each session is pinned to one worker thread
//! (`shard = id % workers`), so a given simulator is only ever pumped by
//! a single thread and needs no internal synchronization. Within a
//! shard, a FIFO run queue with re-enqueue implements round-robin: one
//! scheduling *turn* drains the session's command mailbox, pumps at most
//! one bounded time slice, publishes deltas to subscribers, and — if run
//! budget remains — puts the session back at the tail of the queue.
//!
//! The `queued` flag on each session cell keeps the queue duplicate-free
//! without a scan: whoever flips it `false → true` (a command sender or
//! the worker re-enqueueing) owns the push. The worker clears the flag
//! *before* draining the mailbox, so a command arriving mid-turn always
//! re-queues the session rather than being stranded.
//!
//! Lock order is `inner → mailbox` (the worker and `wait_idle` both
//! follow it; command senders touch only the mailbox), so the server
//! cannot deadlock on its own locks.
//!
//! No wait runs on a clock: each sleeps until the thing it waits for
//! wakes it. A worker sleeps until its shard's queue gets a session or
//! the server shuts down; `wait_idle` until a turn leaves its session
//! quiescent, the session fails, or the server shuts down; a query
//! until its reply comes or its reply channel is dropped; the compactor
//! until its next sweep is due or the server shuts down.

use crate::event::{EngineEvent, SeekReport, SessionSnapshot, TraceSlice};
use crate::metrics::{
    self, Counter, HealthState, MetricsRegistry, MetricsSnapshot, QuarantinedSession,
    SessionHealth, SessionInfo,
};
use crate::persist;
use crate::queue::{self, EventReceiver, EventSender};
use gmdf::{DebugSession, Mutation, SessionSpec};
use gmdf_analyze::AnalysisReport;
use gmdf_comdes::SignalValue;
use gmdf_engine::store::DEFAULT_SEGMENT_CAPACITY;
use gmdf_engine::{
    CheckpointMeta, Codec, DebuggerEngine, ExecutionTrace, MemStore, Retention, SegmentConfig,
    StoreError, TraceEntry,
};
use gmdf_gdm::CommandMatcher;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies one hosted session for the lifetime of its server.
pub type SessionId = u64;

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// a worker panic fails one session (see [`worker_loop`]), it must not
/// poison the whole server. Shared by the queue and wire modules, whose
/// locks follow the same policy.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the pump pool (minimum 1).
    pub workers: usize,
    /// Default per-turn time-slice budget, in target nanoseconds.
    pub slice_ns: u64,
    /// Default capacity of each subscriber's event queue. A slow
    /// subscriber overflowing it has consecutive `TraceDelta`s
    /// coalesced, then the oldest events dropped and announced by an
    /// in-stream [`EngineEvent::Lagged`] — the pump never blocks and
    /// never grows memory without bound on a stalled consumer.
    /// `0` = legacy unbounded queues (no loss, unbounded memory).
    pub subscriber_capacity: usize,
    /// Collect runtime metrics (pump timings, queue depths, store and
    /// wire I/O — see [`crate::metrics`]). On by default; recording is
    /// relaxed-atomic and stays within noise of an uninstrumented pump
    /// (the `metrics_overhead` bench gates this). `false` builds a
    /// [`MetricsRegistry::disabled`] registry and skips every
    /// recording site.
    pub metrics: bool,
    /// Shared-secret token wire clients must present in their `Hello`
    /// frame (compared in constant time). `None` = no authentication:
    /// any `Hello` (with or without a token) is accepted. Only the wire
    /// layer consults this; in-process handles are never gated.
    pub auth_token: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            slice_ns: 1_000_000,
            subscriber_capacity: 1024,
            metrics: true,
            auth_token: None,
        }
    }
}

/// Where (and how) a persistent server journals its durable sessions.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Root directory of the session registry
    /// (`<root>/sessions/<id>/…`). Created on demand.
    pub root: PathBuf,
    /// Entries per trace segment file
    /// ([`gmdf_engine::SegmentStore`] capacity).
    pub segment_capacity: usize,
    /// Compaction/retention policy applied to every durable session's
    /// trace store. Disabled by default (nothing is compressed or
    /// evicted — the pre-retention behavior).
    pub retention: Retention,
    /// How often the background compactor sweeps the durable sessions.
    /// Only consulted when `retention` is active.
    pub compact_interval: Duration,
    /// Full-state checkpoint cadence, in trace entries: after a pumped
    /// slice, a durable session whose trace grew by at least this many
    /// entries since the last checkpoint writes a new one
    /// (crash-safely, next to its journal). Checkpoints are what make
    /// [`Query::SeekTo`] / [`Query::StepBack`] /
    /// [`Query::ReplayWindow`] and server restarts O(interval) instead
    /// of O(whole trace). `0` disables checkpointing (seeks and
    /// restarts fall back to replay-from-zero).
    pub checkpoint_interval: u64,
}

/// Default [`PersistConfig::checkpoint_interval`]: frequent enough
/// that a seek replays at most a few thousand entries, rare enough
/// that checkpoint serialization stays far off the pump's hot path.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4096;

impl PersistConfig {
    /// Persistence rooted at `root` with the default segment capacity,
    /// the binary trace codec, and retention disabled.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        PersistConfig {
            root: root.into(),
            segment_capacity: DEFAULT_SEGMENT_CAPACITY,
            retention: Retention::default(),
            compact_interval: Duration::from_millis(250),
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
        }
    }

    /// Overrides the trace segment capacity (entries per segment).
    #[must_use]
    pub fn with_segment_capacity(mut self, capacity: usize) -> Self {
        self.segment_capacity = capacity.max(1);
        self
    }

    /// Sets the compaction/retention policy for durable-session traces.
    #[must_use]
    pub fn with_retention(mut self, retention: Retention) -> Self {
        self.retention = retention;
        self
    }

    /// Overrides how often the background compactor runs.
    #[must_use]
    pub fn with_compact_interval(mut self, interval: Duration) -> Self {
        self.compact_interval = interval.max(Duration::from_millis(1));
        self
    }

    /// Overrides the checkpoint cadence (trace entries between
    /// full-state checkpoints; `0` disables checkpointing).
    #[must_use]
    pub fn with_checkpoint_interval(mut self, entries: u64) -> Self {
        self.checkpoint_interval = entries;
        self
    }

    /// The store-level configuration this policy expands to. New
    /// durable sessions record in the binary codec; an existing session
    /// directory keeps the codec its `meta.json` records, so one written
    /// in the JSON codec still reopens.
    pub(crate) fn segment_config(&self) -> SegmentConfig {
        SegmentConfig {
            capacity: self.segment_capacity,
            codec: Codec::Binary,
            retention: self.retention,
        }
    }
}

/// Cap on the entries one [`Query::FetchRange`] /
/// [`Query::ReplayFrom`] reply carries. While
/// [`TraceSlice::complete`] is false, clients continue with
/// [`Query::ReplayFrom`] at `last().seq + 1` until
/// [`TraceSlice::end_seq`] — `FetchRange` itself has no sequence
/// parameter, so re-issuing it only returns the same first page.
pub const MAX_FETCH_ENTRIES: u64 = 4096;

/// Cap on the *encoded* payload one [`Query::FetchRange`] /
/// [`Query::ReplayFrom`] reply carries. An entry count alone
/// does not bound a page — 4096 entries of pathological width would
/// overflow the 64 MiB wire frame and reach the client as an error
/// instead of data — so the page is also cut at this many JSON bytes
/// (half the frame limit, leaving room for the envelope). A page always
/// carries at least one entry, so paging makes progress even past an
/// oversized record.
pub const MAX_FETCH_BYTES: u64 = 32 * 1024 * 1024;

/// A read posted to a session's mailbox: answered from a consistent
/// view of the session at its next scheduling turn, ordered after every
/// command posted before it. Queries never change the session and are
/// never journaled. [`SessionHandle`]'s blocking readers
/// ([`SessionHandle::snapshot`], [`SessionHandle::fetch_range`], …)
/// post these and wait for the answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// A consistent [`SessionSnapshot`] of the session.
    Snapshot {
        /// Also serialize the full trace (O(trace length); leave off
        /// for cheap counter polls).
        include_trace: bool,
    },
    /// The trace entries whose event time falls in `[t0_ns, t1_ns]` —
    /// located through the store's time index, so a narrow window over
    /// a long disk-backed trace reads only its own segments. Capped at
    /// [`MAX_FETCH_ENTRIES`] entries and [`MAX_FETCH_BYTES`] of encoded
    /// payload.
    FetchRange {
        /// Window start (inclusive), in target nanoseconds.
        t0_ns: u64,
        /// Window end (inclusive), in target nanoseconds.
        t1_ns: u64,
    },
    /// Up to `limit` trace entries starting at sequence number `seq` —
    /// how clients page history (including the persisted pre-restart
    /// prefix of a durable session) without holding the whole trace.
    ReplayFrom {
        /// First sequence number wanted.
        seq: u64,
        /// Page size; `0` means the server cap ([`MAX_FETCH_ENTRIES`]),
        /// larger values are clamped to it. The reply is additionally
        /// bounded by [`MAX_FETCH_BYTES`] of encoded payload.
        limit: u64,
    },
    /// A [`SeekReport`] for the session's state at target time `t_ns`
    /// (clamped to the live clock). The server restores the nearest
    /// persisted checkpoint at or before the target into a detached
    /// replica and deterministically replays it forward —
    /// O(checkpoint interval), not O(trace length). The live session is
    /// never touched. Requires a durable session; a seek failure is the
    /// request's error, never the session's.
    SeekTo {
        /// Target instant, in target nanoseconds.
        t_ns: u64,
        /// Also serialize the replica's full trace into
        /// [`SeekReport::trace_json`] (O(trace length) to build).
        include_trace: bool,
    },
    /// A [`SeekReport`] for the instant `entries` trace entries before
    /// the current end of the trace — "rewind N steps". Same
    /// checkpoint-restore machinery as [`Self::SeekTo`]; stepping below
    /// the trace's retention floor is an error.
    StepBack {
        /// How many trace entries to step back from the end.
        entries: u64,
        /// Also serialize the replica's full trace.
        include_trace: bool,
    },
    /// The trace entries whose event time falls in `[t0_ns, t1_ns]`,
    /// regenerated by checkpoint-restore + replay rather than read from
    /// the live store — so the window is available even on a session
    /// whose early segments were evicted, as long as a checkpoint
    /// precedes it. Paged exactly like [`Self::FetchRange`] (same caps,
    /// same [`TraceSlice`] contract).
    ReplayWindow {
        /// Window start (inclusive), in target nanoseconds.
        t0_ns: u64,
        /// Window end (inclusive), in target nanoseconds.
        t1_ns: u64,
    },
}

/// The answer to one [`Query`].
#[derive(Debug)]
pub(crate) enum Reply {
    /// Answers [`Query::Snapshot`].
    Snapshot(SessionSnapshot),
    /// Answers [`Query::FetchRange`], [`Query::ReplayFrom`] and
    /// [`Query::ReplayWindow`].
    Trace(TraceSlice),
    /// Answers [`Query::SeekTo`] and [`Query::StepBack`].
    Seek(SeekReport),
}

impl Reply {
    // Each query kind has exactly one reply kind (see `answer`), so a
    // mismatch below is a server bug, not a client error.

    fn into_snapshot(self) -> SessionSnapshot {
        match self {
            Reply::Snapshot(snapshot) => snapshot,
            other => unreachable!("a snapshot query was answered with {other:?}"),
        }
    }

    fn into_trace(self) -> TraceSlice {
        match self {
            Reply::Trace(slice) => slice,
            other => unreachable!("a trace query was answered with {other:?}"),
        }
    }

    fn into_seek(self) -> SeekReport {
        match self {
            Reply::Seek(report) => report,
            other => unreachable!("a seek query was answered with {other:?}"),
        }
    }
}

/// One mailbox item. A query's reply channel travels beside it, never
/// inside the public [`Query`] type. A seek failure comes back as the
/// `Err` message; a history read that fails fails the session and
/// drops the channel unanswered.
#[derive(Debug)]
enum Mail {
    Mutate(Mutation),
    Query(Query, mpsc::Sender<Result<Reply, String>>),
}

/// Server-side failure surfaced to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The server has shut down; the operation cannot complete.
    Shutdown,
    /// A blocking wait exceeded its deadline.
    Timeout,
    /// The session failed (simulator fault, bad stimulus…); the message
    /// is the underlying error.
    SessionFailed(String),
    /// Session persistence failed (registry I/O, corrupt journal,
    /// restore mismatch) or was requested on a non-persistent server.
    Persist(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Shutdown => write!(f, "debug server has shut down"),
            ServerError::Timeout => write!(f, "timed out waiting on the debug server"),
            ServerError::SessionFailed(m) => write!(f, "session failed: {m}"),
            ServerError::Persist(m) => write!(f, "session persistence failed: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Mutable per-session state, owned by whichever thread holds the lock.
/// The session's counters (events fed, violations, breakpoint hits)
/// are not copied here: the engine keeps them, and readers take them
/// from it.
#[derive(Debug)]
struct SessionInner {
    session: DebugSession,
    /// Run budget not yet consumed.
    remaining_ns: u64,
    /// First trace sequence number subscribers have not seen yet.
    trace_cursor: u64,
    subscribers: Vec<EventSender>,
    /// Set once the session fails; from then on it drops mutations and
    /// only answers queries.
    failed: Option<String>,
    /// The spec, journal and checkpoints of a durable session; `None`
    /// for an in-memory one.
    durable: Option<persist::Durable>,
    /// Cumulative events dropped by this session's bounded subscriber
    /// queues — each queue holds a clone, so drops survive the queue
    /// that suffered them. Always on (it feeds
    /// [`SessionSnapshot::lagged_drops`]), independent of the metrics
    /// registry.
    lagged: Counter,
    /// Wall-clock instant of the last pumped slice (metrics only).
    last_slice: Option<Instant>,
}

impl SessionInner {
    /// The state of a session that has just been handed to the server:
    /// no run budget, nothing published, no subscribers.
    fn new(session: DebugSession, durable: Option<persist::Durable>) -> Self {
        SessionInner {
            session,
            remaining_ns: 0,
            trace_cursor: 0,
            subscribers: Vec::new(),
            failed: None,
            durable,
            lagged: Counter::new(),
            last_slice: None,
        }
    }
}

/// Events the engine has been fed: those it processed plus those still
/// queued behind a pause.
fn events_fed(engine: &DebuggerEngine) -> u64 {
    engine.stats().events_processed + engine.pending() as u64
}

/// One hosted session: state + mailbox + scheduling flags.
#[derive(Debug)]
struct SessionCell {
    id: SessionId,
    shard: usize,
    inner: Mutex<SessionInner>,
    /// Paired with `inner`; notified whenever a turn leaves the session
    /// quiescent, whenever the session fails, and on shutdown.
    idle_cv: Condvar,
    mailbox: Mutex<VecDeque<Mail>>,
    /// `true` while the session sits in (or is being pushed onto) its
    /// shard's run queue.
    queued: AtomicBool,
    /// When the session registered with this server process (uptime
    /// base for health reporting).
    registered_at: Instant,
    /// Static analysis of the session's spec, run once at registration
    /// and cached for the session's lifetime (the spec never changes).
    /// Analysis failures degrade to a one-error report — a session is
    /// never refused over its diagnostics.
    analysis: Arc<AnalysisReport>,
}

impl SessionCell {
    /// The session's health, read under its state lock (`inner` is the
    /// caller's guard; lock order inner → mailbox): failed, else
    /// running while run budget, a run-queue slot or unapplied mail is
    /// outstanding, else parked.
    fn health(&self, inner: &SessionInner) -> HealthState {
        if inner.failed.is_some() {
            HealthState::Failed
        } else if inner.remaining_ns > 0
            || self.queued.load(Ordering::SeqCst)
            || !lock(&self.mailbox).is_empty()
        {
            HealthState::Running
        } else {
            HealthState::Parked
        }
    }
}

/// One worker's run queue.
#[derive(Debug)]
struct Shard {
    queue: Mutex<VecDeque<Arc<SessionCell>>>,
    cv: Condvar,
}

/// State shared between the server front and its workers.
#[derive(Debug)]
struct Shared {
    shards: Vec<Shard>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    /// Per-turn slice budget ([`ServerConfig::slice_ns`]).
    slice_ns: u64,
    default_subscriber_capacity: usize,
    /// The observability registry every layer records into (disabled =
    /// all recording sites skipped).
    metrics: Arc<MetricsRegistry>,
    /// Wire-handshake shared secret ([`ServerConfig::auth_token`]).
    auth_token: Option<String>,
}

impl Shared {
    /// Puts `cell` on its shard's run queue unless it is already there.
    /// Returns `false` if the server is (or just became) shut down, in
    /// which case the cell may never be scheduled again.
    fn enqueue(&self, cell: &Arc<SessionCell>) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if !cell.queued.swap(true, Ordering::SeqCst) {
            let shard = &self.shards[cell.shard];
            lock(&shard.queue).push_back(Arc::clone(cell));
            shard.cv.notify_one();
        }
        // Shutdown may have raced the push; workers exit without
        // draining their queues, so report it rather than claiming the
        // command will run.
        !self.shutdown.load(Ordering::SeqCst)
    }
}

/// A multi-session debug server over a fixed worker-thread pool.
///
/// Dropping the server shuts it down: workers are signalled, finish at
/// most one bounded slice each, and are joined. Hosted sessions are
/// dropped with it; outstanding [`SessionHandle`]s turn into
/// [`ServerError::Shutdown`] errors instead of hanging.
#[derive(Debug)]
pub struct DebugServer {
    shared: Arc<Shared>,
    sessions: Arc<Mutex<Vec<Arc<SessionCell>>>>,
    workers: Vec<JoinHandle<()>>,
    /// The background compaction sweep, when retention is active.
    compactor: Option<JoinHandle<()>>,
    /// Set on persistent servers: where durable sessions live.
    persist: Option<PersistConfig>,
    /// Persisted sessions that failed to restore, with the reason.
    quarantined: Vec<(SessionId, String)>,
}

impl DebugServer {
    /// Boots the worker pool and returns the (initially empty) server.
    pub fn start(config: ServerConfig) -> Self {
        Self::boot(config, None)
    }

    /// Boots a **persistent** server: durable sessions journal their
    /// spec, commands and trace under `persist.root`, and any sessions
    /// already persisted there are recreated — their traces recovered
    /// from disk, their newest checkpoint image that the recovered
    /// trace covers restored, the commands journaled after it
    /// deterministically replayed to the point the old process reached
    /// (the whole journal from time zero when no image is usable), and
    /// any outstanding run budget handed back to the scheduler.
    /// Restored sessions keep their ids; new ids continue above the
    /// highest restored one.
    ///
    /// A session that fails to restore (corrupt spec, tampered
    /// journal…) is **quarantined**, not fatal: its directory is left
    /// on disk untouched for inspection, its id is never reused, the
    /// failure is reported through
    /// [`DebugServer::quarantined_sessions`], and every other session
    /// boots normally — one damaged session must never brick the whole
    /// registry.
    ///
    /// # Errors
    ///
    /// [`ServerError::Persist`] is reserved for registry-level
    /// failures; per-session restore failures are quarantined instead.
    pub fn start_persistent(
        config: ServerConfig,
        persist: PersistConfig,
    ) -> Result<Self, ServerError> {
        let mut server = Self::boot(config, Some(persist.clone()));
        let ids = persist::persisted_ids(&persist.root);
        for id in ids {
            // Reserve the id either way: a fresh session must never be
            // created over a quarantined directory.
            server.shared.next_id.fetch_max(id + 1, Ordering::SeqCst);
            match persist::restore_session(&persist, id, &server.shared.metrics) {
                Ok(restored) => {
                    server.register(
                        id,
                        SessionInner {
                            remaining_ns: restored.remaining_ns,
                            trace_cursor: restored.trace_cursor,
                            ..SessionInner::new(restored.session, Some(restored.durable))
                        },
                    );
                }
                Err(message) => server.quarantined.push((id, message)),
            }
        }
        Ok(server)
    }

    /// Persisted sessions that failed to restore at the last
    /// [`DebugServer::start_persistent`], with the reason. Their
    /// directories are left on disk for inspection and their ids are
    /// not reused.
    pub fn quarantined_sessions(&self) -> &[(SessionId, String)] {
        &self.quarantined
    }

    fn boot(config: ServerConfig, persist: Option<PersistConfig>) -> Self {
        let workers = config.workers.max(1);
        let registry = if config.metrics {
            MetricsRegistry::new(workers)
        } else {
            MetricsRegistry::disabled()
        };
        let shared = Arc::new(Shared {
            shards: (0..workers)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            slice_ns: config.slice_ns.max(1),
            default_subscriber_capacity: config.subscriber_capacity,
            metrics: Arc::new(registry),
            auth_token: config.auth_token,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gmdf-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker thread")
            })
            .collect();
        let sessions: Arc<Mutex<Vec<Arc<SessionCell>>>> = Arc::new(Mutex::new(Vec::new()));
        // With retention active, a background sweep periodically gives
        // every session's trace store a maintenance turn (compress one
        // cold segment, evict while over budget). It runs outside the
        // pump path — a sweep takes each session's state lock briefly,
        // so the scheduler never stalls behind compression.
        let compactor = persist
            .as_ref()
            .filter(|p| p.retention.is_active())
            .map(|p| {
                let shared = Arc::clone(&shared);
                let sessions = Arc::clone(&sessions);
                let interval = p.compact_interval;
                std::thread::Builder::new()
                    .name("gmdf-compactor".to_owned())
                    .spawn(move || compactor_loop(&shared, &sessions, interval))
                    .expect("spawn compactor thread")
            });
        DebugServer {
            shared,
            sessions,
            workers: handles,
            compactor,
            persist,
            quarantined: Vec::new(),
        }
    }

    /// Takes ownership of `session` and registers it with the scheduler
    /// (idle until its first command). The session is pinned to the
    /// shard `id % workers`. The session is in-memory: its trace and
    /// command history die with the server — see
    /// [`DebugServer::add_durable_session`] for ones that survive a
    /// restart.
    pub fn add_session(&self, session: DebugSession) -> SessionHandle {
        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
        self.register(id, SessionInner::new(session, None))
    }

    /// Builds a **durable** session from `spec` and registers it. The
    /// spec is written to the session registry, every state-affecting
    /// command is journaled, and the trace records into a segmented
    /// on-disk store next to the journal — a server restarted over the
    /// same [`PersistConfig::root`] recreates the session and finishes
    /// its run ([`DebugServer::start_persistent`]).
    ///
    /// # Errors
    ///
    /// [`ServerError::Persist`] on a non-persistent server or registry
    /// I/O failure, [`ServerError::SessionFailed`] when the spec does
    /// not build. A failed add leaves no session directory behind, so a
    /// restart does not bring the session back.
    pub fn add_durable_session(&self, spec: &SessionSpec) -> Result<SessionHandle, ServerError> {
        let Some(persist) = &self.persist else {
            return Err(ServerError::Persist(
                "server was not started with persistence (use start_persistent)".to_owned(),
            ));
        };
        let mut session = spec
            .build()
            .map_err(|e| ServerError::SessionFailed(e.to_string()))?;
        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
        let (durable, store) =
            persist::create_session(persist, id, spec).map_err(ServerError::Persist)?;
        session.engine_mut().set_trace_store(Box::new(store));
        Ok(self.register(id, SessionInner::new(session, Some(durable))))
    }

    /// Registers a cell for the session state `inner` under `id`. A
    /// cell left with run budget is scheduled immediately.
    fn register(&self, id: SessionId, mut inner: SessionInner) -> SessionHandle {
        let shard = (id as usize) % self.shared.shards.len();
        let session = &inner.session;
        let analysis = Arc::new(session.analyze().unwrap_or_else(|e| {
            AnalysisReport::from_failure(&session.simulator().image().system, e.to_string())
        }));
        if self.shared.metrics.enabled() {
            inner
                .session
                .engine_mut()
                .set_trace_metrics(Some(Arc::clone(&self.shared.metrics.store)));
        }
        let resume = inner.remaining_ns > 0;
        let cell = Arc::new(SessionCell {
            id,
            shard,
            inner: Mutex::new(inner),
            idle_cv: Condvar::new(),
            mailbox: Mutex::new(VecDeque::new()),
            queued: AtomicBool::new(false),
            registered_at: Instant::now(),
            analysis,
        });
        lock(&self.sessions).push(Arc::clone(&cell));
        if resume {
            let _ = self.shared.enqueue(&cell);
        }
        SessionHandle {
            cell,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of hosted sessions.
    pub fn session_count(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// Ids of every hosted session, in registration order — what a
    /// remote client is offered at attach time.
    pub fn session_ids(&self) -> Vec<SessionId> {
        lock(&self.sessions).iter().map(|c| c.id).collect()
    }

    /// A fresh handle to hosted session `id`, or `None` for an unknown
    /// id. This is how late-joining clients (e.g. wire connections)
    /// attach to sessions added by someone else.
    pub fn handle(&self, id: SessionId) -> Option<SessionHandle> {
        lock(&self.sessions)
            .iter()
            .find(|cell| cell.id == id)
            .map(|cell| SessionHandle {
                cell: Arc::clone(cell),
                shared: Arc::clone(&self.shared),
            })
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The session directory a wire v4 `ListSessions` reply carries:
    /// one [`SessionInfo`] row per hosted session (registration order),
    /// followed by one per quarantined id (zeroed progress fields).
    /// Much cheaper than [`DebugServer::metrics_snapshot`] — each
    /// session's state lock is taken just long enough to read its
    /// health state, clock, and trace length.
    pub fn session_directory(&self) -> Vec<SessionInfo> {
        let cells: Vec<Arc<SessionCell>> = lock(&self.sessions).clone();
        let mut rows = Vec::with_capacity(cells.len() + self.quarantined.len());
        for cell in &cells {
            let inner = lock(&cell.inner);
            rows.push(SessionInfo {
                session: cell.id,
                state: cell.health(&inner),
                now_ns: inner.session.now_ns(),
                trace_len: inner.session.engine().trace().len() as u64,
                diagnostics: cell.analysis.diagnostic_counts(),
            });
        }
        for (id, _) in &self.quarantined {
            rows.push(SessionInfo {
                session: *id,
                state: HealthState::Quarantined,
                now_ns: 0,
                trace_len: 0,
                diagnostics: (0, 0),
            });
        }
        rows
    }

    /// The cached static-analysis report for session `id`, or `None`
    /// for an unknown id. Computed once at registration (the spec is
    /// immutable for the session's lifetime) — this never takes the
    /// session's state lock, so it is safe on the wire reader path.
    pub fn analysis(&self, id: SessionId) -> Option<Arc<AnalysisReport>> {
        lock(&self.sessions)
            .iter()
            .find(|cell| cell.id == id)
            .map(|cell| Arc::clone(&cell.analysis))
    }

    /// The wire-handshake shared secret, when one is configured.
    pub(crate) fn auth_token(&self) -> Option<&str> {
        self.shared.auth_token.as_deref()
    }

    /// The observability registry the server records into. Disabled
    /// (all-zero) when the server was built with
    /// [`ServerConfig::metrics`] = `false`.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The full observability read-out: fleet aggregates from the
    /// registry plus one health row per hosted session (briefly taking
    /// each session's state lock in turn — not a stop-the-world cut)
    /// and the quarantine list. Works — with zeroed registry-side
    /// counters — even when metrics are disabled; the session rows come
    /// from always-on per-session counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let registry = &self.shared.metrics;
        let mut fleet = metrics::fleet_skeleton(registry);
        let cells: Vec<Arc<SessionCell>> = lock(&self.sessions).clone();
        fleet.sessions = cells.len() as u64;
        let mut sessions = Vec::with_capacity(cells.len() + self.quarantined.len());
        for cell in &cells {
            let inner = lock(&cell.inner);
            let engine = inner.session.engine();
            let store_stats = engine.trace().store_stats();
            let (memo_hits, memo_misses) = inner.session.simulator().memo_stats();
            let fed = events_fed(engine);
            fleet.events_fed += fed;
            fleet.lagged_drops += inner.lagged.get();
            fleet.trace_segments += store_stats.segments;
            fleet.trace_disk_bytes += store_stats.disk_bytes;
            fleet.trace_compacted_segments += store_stats.compacted_segments;
            fleet.memo_hits += memo_hits;
            fleet.memo_misses += memo_misses;
            sessions.push(SessionHealth {
                session: cell.id,
                state: cell.health(&inner),
                detail: inner.failed.clone(),
                uptime_ms: cell.registered_at.elapsed().as_millis() as u64,
                last_slice_age_ms: inner.last_slice.map(|t| t.elapsed().as_millis() as u64),
                now_ns: inner.session.now_ns(),
                trace_len: engine.trace().len() as u64,
                trace_segments: store_stats.segments,
                trace_bytes: store_stats.disk_bytes,
                events_fed: fed,
                violations: engine.violations().len() as u64,
                breakpoint_hits: engine.stats().breakpoint_hits,
                lagged_drops: inner.lagged.get(),
                remaining_ns: inner.remaining_ns,
                subscribers: inner.subscribers.len() as u64,
                memo_hits,
                memo_misses,
            });
        }
        let quarantined: Vec<QuarantinedSession> = self
            .quarantined
            .iter()
            .map(|(id, reason)| QuarantinedSession {
                session: *id,
                reason: reason.clone(),
            })
            .collect();
        for q in &quarantined {
            sessions.push(SessionHealth {
                session: q.session,
                state: HealthState::Quarantined,
                detail: Some(q.reason.clone()),
                uptime_ms: 0,
                last_slice_age_ms: None,
                now_ns: 0,
                trace_len: 0,
                trace_segments: 0,
                trace_bytes: 0,
                events_fed: 0,
                violations: 0,
                breakpoint_hits: 0,
                lagged_drops: 0,
                remaining_ns: 0,
                subscribers: 0,
                memo_hits: 0,
                memo_misses: 0,
            });
        }
        MetricsSnapshot {
            fleet,
            sessions,
            quarantined,
        }
    }

    /// [`DebugServer::metrics_snapshot`] rendered in Prometheus text
    /// exposition format — scrape-ready (the `fleet_dashboard` example
    /// polls it over TCP).
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// Stops the scheduler: signals every worker, joins the pool, and
    /// releases all sessions. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            // Take the queue lock so a worker between its shutdown check
            // and its cv wait cannot miss the notification.
            let _guard = lock(&shard.queue);
            shard.cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.compactor.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        let registry = &self.shared.metrics;
        for cell in lock(&self.sessions).iter() {
            // No worker drains a mailbox again: drop what is left, so a
            // query still waiting sees its reply channel disconnect.
            let cleared = lock(&cell.mailbox).drain(..).count();
            if registry.enabled() {
                registry.mailbox_depth.sub(cleared as u64);
            }
            // Wake `wait_idle` callers under the lock they check in, so
            // none misses the shutdown.
            let _guard = lock(&cell.inner);
            cell.idle_cv.notify_all();
        }
    }
}

impl Drop for DebugServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client's handle to one hosted session. Cloneable; all clones
/// address the same session.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    cell: Arc<SessionCell>,
    shared: Arc<Shared>,
}

impl SessionHandle {
    /// The session's server-assigned id.
    pub fn id(&self) -> SessionId {
        self.cell.id
    }

    /// The session's cached static-analysis report (computed at
    /// registration; see [`DebugServer::analysis`]).
    pub fn analysis(&self) -> Arc<AnalysisReport> {
        Arc::clone(&self.cell.analysis)
    }

    /// Posts a [`Mutation`] to the session's mailbox and wakes its
    /// shard. It is applied, in arrival order, at the session's next
    /// scheduling turn.
    ///
    /// A failed session drops mutations: it neither journals nor
    /// applies them, and only answers queries. Its journal may end in a
    /// torn record, and a restart stops reading there, so anything
    /// journaled behind the tear would be lost while its effect (trace
    /// entries a `Resume` drained) survived.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn send(&self, mutation: Mutation) -> Result<(), ServerError> {
        self.post(Mail::Mutate(mutation))
    }

    fn post(&self, mail: Mail) -> Result<(), ServerError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::Shutdown);
        }
        // Gauge up *before* the push: a worker that drains the command
        // in the gap would decrement first (saturating at zero) and the
        // late increment would stick the gauge one high forever. The
        // inc-first order only ever over-counts transiently.
        if self.shared.metrics.enabled() {
            self.shared.metrics.mailbox_depth.inc();
        }
        lock(&self.cell.mailbox).push_back(mail);
        if self.shared.enqueue(&self.cell) {
            Ok(())
        } else {
            Err(ServerError::Shutdown)
        }
    }

    /// Round-trips one [`Query`] through the mailbox — so the answer is
    /// ordered after every command posted before it — and waits for
    /// the reply. A time-travel failure comes back as
    /// [`ServerError::Persist`]; a dropped reply as the session or
    /// server failure that caused it.
    ///
    /// The wait ends with the reply, or when its sender is dropped
    /// unanswered: by a turn that failed the session, or by
    /// [`DebugServer::shutdown`], which clears every mailbox.
    pub(crate) fn query(&self, query: Query, timeout: Duration) -> Result<Reply, ServerError> {
        let (tx, rx) = mpsc::channel();
        self.post(Mail::Query(query, tx))?;
        match rx.recv_timeout(timeout) {
            Ok(reply) => reply.map_err(ServerError::Persist),
            // A panicked turn unwinds the drained query too: report the
            // session failure, not a bogus server death.
            Err(mpsc::RecvTimeoutError::Disconnected) => match &lock(&self.cell.inner).failed {
                Some(msg) => Err(ServerError::SessionFailed(msg.clone())),
                None => Err(ServerError::Shutdown),
            },
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServerError::Timeout),
        }
    }

    /// Subscribes to the session's broadcast stream from this point on,
    /// with the server's default queue capacity
    /// ([`ServerConfig::subscriber_capacity`]). The queue never
    /// back-pressures the pump: a subscriber that falls behind a
    /// bounded queue loses data *visibly* ([`EngineEvent::Lagged`])
    /// instead of growing memory without bound. Drop the receiver to
    /// unsubscribe.
    pub fn subscribe(&self) -> EventReceiver {
        self.subscribe_queue(None, Arc::default())
    }

    /// Like [`SessionHandle::subscribe`] with an explicit queue
    /// capacity (`0` = unbounded, the legacy behaviour).
    pub fn subscribe_with_capacity(&self, capacity: usize) -> EventReceiver {
        self.subscribe_queue(Some(capacity), Arc::default())
    }

    /// Registers one subscriber queue (`None` capacity = the server's
    /// default) that raises `notify` on every push. An in-process
    /// receiver gets a flag of its own; the wire streamer passes one
    /// flag for every attach on its connection, so one thread can sleep
    /// on it while draining them all.
    pub(crate) fn subscribe_queue(
        &self,
        capacity: Option<usize>,
        notify: Arc<crate::queue::Notify>,
    ) -> EventReceiver {
        let capacity = capacity.unwrap_or(self.shared.default_subscriber_capacity);
        let mut inner = lock(&self.cell.inner);
        let depth = self
            .shared
            .metrics
            .enabled()
            .then(|| self.shared.metrics.subscriber_depth.clone());
        let (tx, rx) = queue::channel(self.cell.id, capacity, inner.lagged.clone(), depth, notify);
        inner.subscribers.push(tx);
        rx
    }

    /// Convenience: [`Mutation::RunFor`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn run_for(&self, duration_ns: u64) -> Result<(), ServerError> {
        self.send(Mutation::RunFor { duration_ns })
    }

    /// Convenience: [`Mutation::ScheduleSignal`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn schedule_signal(
        &self,
        time_ns: u64,
        label: &str,
        value: SignalValue,
    ) -> Result<(), ServerError> {
        self.send(Mutation::ScheduleSignal {
            time_ns,
            label: label.to_owned(),
            value,
        })
    }

    /// Convenience: [`Mutation::AddBreakpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn add_breakpoint(
        &self,
        matcher: CommandMatcher,
        one_shot: bool,
    ) -> Result<(), ServerError> {
        self.send(Mutation::AddBreakpoint { matcher, one_shot })
    }

    /// Convenience: [`Mutation::ClearBreakpoints`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn clear_breakpoints(&self) -> Result<(), ServerError> {
        self.send(Mutation::ClearBreakpoints)
    }

    /// Convenience: [`Mutation::Step`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn step(&self) -> Result<(), ServerError> {
        self.send(Mutation::Step)
    }

    /// Convenience: [`Mutation::Resume`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn resume(&self) -> Result<(), ServerError> {
        self.send(Mutation::Resume)
    }

    /// Round-trips a [`Query::Snapshot`] through the mailbox — the
    /// snapshot is therefore ordered after every command posted before
    /// it — including the serialized trace (O(trace length): the
    /// *whole* record is materialized, even from a disk-backed store;
    /// for long durable sessions page it with
    /// [`SessionHandle::replay_from`] instead).
    ///
    /// # Errors
    ///
    /// [`ServerError::Shutdown`] if the server stops first,
    /// [`ServerError::Timeout`] if `timeout` elapses.
    pub fn snapshot(&self, timeout: Duration) -> Result<SessionSnapshot, ServerError> {
        let query = Query::Snapshot {
            include_trace: true,
        };
        self.query(query, timeout).map(Reply::into_snapshot)
    }

    /// Like [`SessionHandle::snapshot`] but without serializing the
    /// trace (`trace_json` is `None`) — O(1), for counter polling.
    ///
    /// # Errors
    ///
    /// [`ServerError::Shutdown`] if the server stops first,
    /// [`ServerError::Timeout`] if `timeout` elapses.
    pub fn stats(&self, timeout: Duration) -> Result<SessionSnapshot, ServerError> {
        let query = Query::Snapshot {
            include_trace: false,
        };
        self.query(query, timeout).map(Reply::into_snapshot)
    }

    /// Fetches the trace entries whose event time falls in
    /// `[t0_ns, t1_ns]` (one page, capped at [`MAX_FETCH_ENTRIES`]).
    /// Round-trips through the mailbox like a snapshot, so it is
    /// ordered after every command posted before it.
    ///
    /// # Errors
    ///
    /// [`ServerError::Shutdown`] if the server stops first,
    /// [`ServerError::Timeout`] if `timeout` elapses.
    pub fn fetch_range(
        &self,
        t0_ns: u64,
        t1_ns: u64,
        timeout: Duration,
    ) -> Result<TraceSlice, ServerError> {
        self.query(Query::FetchRange { t0_ns, t1_ns }, timeout)
            .map(Reply::into_trace)
    }

    /// Fetches up to `limit` trace entries starting at sequence number
    /// `seq` (`0` = the server cap) — the paging read over a session's
    /// full history, including the persisted pre-restart prefix of a
    /// durable session.
    ///
    /// # Errors
    ///
    /// [`ServerError::Shutdown`] if the server stops first,
    /// [`ServerError::Timeout`] if `timeout` elapses.
    pub fn replay_from(
        &self,
        seq: u64,
        limit: u64,
        timeout: Duration,
    ) -> Result<TraceSlice, ServerError> {
        self.query(Query::ReplayFrom { seq, limit }, timeout)
            .map(Reply::into_trace)
    }

    /// Seeks the session's history to target time `t_ns` (clamped to
    /// the live clock): restores the nearest persisted checkpoint at or
    /// before the target into a detached replica and deterministically
    /// replays it forward — O(checkpoint interval), not O(trace
    /// length). The live session is untouched. With `include_trace` the
    /// report carries the replica's full serialized trace,
    /// byte-identical to an uninterrupted run's at the same instant.
    ///
    /// # Errors
    ///
    /// [`ServerError::Persist`] on an in-memory session or when the
    /// replica cannot be rebuilt, plus the usual
    /// [`ServerError::Shutdown`] / [`ServerError::Timeout`].
    pub fn seek_to(
        &self,
        t_ns: u64,
        include_trace: bool,
        timeout: Duration,
    ) -> Result<SeekReport, ServerError> {
        self.query(
            Query::SeekTo {
                t_ns,
                include_trace,
            },
            timeout,
        )
        .map(Reply::into_seek)
    }

    /// Rewinds the session's history `entries` trace entries from the
    /// current end of the trace — same machinery (and same errors) as
    /// [`SessionHandle::seek_to`]. Stepping below the trace's retention
    /// floor is an error.
    pub fn step_back(
        &self,
        entries: u64,
        include_trace: bool,
        timeout: Duration,
    ) -> Result<SeekReport, ServerError> {
        self.query(
            Query::StepBack {
                entries,
                include_trace,
            },
            timeout,
        )
        .map(Reply::into_seek)
    }

    /// Replays the trace window `[t0_ns, t1_ns]` through
    /// checkpoint-restore + deterministic re-execution and returns it
    /// as one [`TraceSlice`] page (same caps and continuation contract
    /// as [`SessionHandle::fetch_range`]). Works even when the live
    /// store has evicted the window's segments, as long as a checkpoint
    /// precedes it.
    ///
    /// # Errors
    ///
    /// Same as [`SessionHandle::seek_to`].
    pub fn replay_window(
        &self,
        t0_ns: u64,
        t1_ns: u64,
        timeout: Duration,
    ) -> Result<TraceSlice, ServerError> {
        self.query(Query::ReplayWindow { t0_ns, t1_ns }, timeout)
            .map(Reply::into_trace)
    }

    /// Blocks until the session is quiescent: no run budget left, empty
    /// mailbox, and not on its shard's run queue. The wait is woken by
    /// the turn that leaves the session quiescent, by every path that
    /// fails the session, and by [`DebugServer::shutdown`].
    ///
    /// # Errors
    ///
    /// [`ServerError::SessionFailed`] if the session failed,
    /// [`ServerError::Shutdown`] if the server stops first,
    /// [`ServerError::Timeout`] if `timeout` elapses.
    pub fn wait_idle(&self, timeout: Duration) -> Result<(), ServerError> {
        let deadline = Instant::now() + timeout;
        let mut inner = lock(&self.cell.inner);
        loop {
            if let Some(msg) = &inner.failed {
                return Err(ServerError::SessionFailed(msg.clone()));
            }
            if self.cell.health(&inner) == HealthState::Parked {
                return Ok(());
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(ServerError::Shutdown);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ServerError::Timeout);
            }
            inner = self
                .cell
                .idle_cv
                .wait_timeout(inner, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

/// One worker: pops sessions off its shard queue and gives each a turn.
/// An idle worker sleeps on its shard's condvar until `enqueue` pushes
/// a session or `shutdown` notifies. The push and the shutdown's notify
/// both happen under the queue lock that the worker checks in, so no
/// wake is lost.
fn worker_loop(shared: &Shared, shard_idx: usize) {
    let shard = &shared.shards[shard_idx];
    loop {
        let cell = {
            let mut queue = lock(&shard.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(cell) = queue.pop_front() {
                    break cell;
                }
                queue = shard
                    .cv
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Clear the flag *before* draining the mailbox: a command posted
        // after the drain re-queues the session instead of stranding.
        cell.queued.store(false, Ordering::SeqCst);
        // A panic inside one session's turn (decode bug, VM fault path,
        // user-visible assert) must not take the shard's worker down
        // with every sibling pinned to it: catch it, park the session
        // as failed, and keep serving the queue.
        let turn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_turn(shared, &cell);
        }));
        if turn.is_err() {
            let mut inner = lock(&cell.inner);
            fail(
                &mut inner,
                cell.id,
                "worker panicked during this session's turn",
            );
            drop(inner);
            cell.idle_cv.notify_all();
        }
    }
}

/// The retention sweep: every `interval`, give each live session's
/// trace store one maintenance turn (compress at most one cold segment,
/// evict oldest sealed segments while over the disk budget — see
/// [`gmdf_engine::TraceStore::maintain`]). Each turn holds that one
/// session's state lock; sessions are swept strictly one at a time so a
/// long compression never blocks more than one shard's pump. A
/// maintenance failure fails the session (its history can no longer be
/// trusted to be contiguous), never the server. Between sweeps the
/// thread is parked until the next one is due; `shutdown` unparks it.
fn compactor_loop(shared: &Shared, sessions: &Mutex<Vec<Arc<SessionCell>>>, interval: Duration) {
    loop {
        let parked_at = Instant::now();
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let left = interval.saturating_sub(parked_at.elapsed());
            if left.is_zero() {
                break;
            }
            std::thread::park_timeout(left);
        }
        let cells: Vec<Arc<SessionCell>> = lock(sessions).clone();
        for cell in cells {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let mut inner = lock(&cell.inner);
            if inner.failed.is_some() {
                continue;
            }
            if let Err(e) = inner.session.engine_mut().maintain_trace() {
                fail(
                    &mut inner,
                    cell.id,
                    &format!("trace maintenance failed: {e}"),
                );
                drop(inner);
                cell.idle_cv.notify_all();
            }
        }
    }
}

/// One scheduling turn: apply mailed commands, pump at most one slice,
/// publish deltas, and reschedule or park.
fn run_turn(shared: &Shared, cell: &Arc<SessionCell>) {
    let registry = &*shared.metrics;
    let observed = registry.enabled();
    let mut inner = lock(&cell.inner);
    // Drain the mailbox only while holding `inner` (lock order
    // inner → mailbox): `wait_idle` checks "mailbox empty" under the
    // same `inner` lock, so it can never observe the in-between state
    // where commands have left the mailbox but are not yet applied.
    let mail: Vec<Mail> = {
        let mut mailbox = lock(&cell.mailbox);
        mailbox.drain(..).collect()
    };
    if observed {
        registry.mailbox_depth.sub(mail.len() as u64);
    }
    for item in mail {
        match item {
            // See `SessionHandle::send`: a failed session drops mutations.
            Mail::Mutate(_) if inner.failed.is_some() => {}
            Mail::Mutate(mutation) => apply_mutation(&mut inner, cell.id, &mutation, registry),
            Mail::Query(query, reply) => answer(&mut inner, cell.id, query, &reply, registry),
        }
    }
    let mut pumped = false;
    if inner.failed.is_none() && inner.remaining_ns > 0 {
        let dt = shared.slice_ns.min(inner.remaining_ns);
        let slice_t0 = observed.then(Instant::now);
        match inner.session.run_for(dt) {
            Ok(report) => {
                inner.remaining_ns -= dt;
                if let Some(t0) = slice_t0 {
                    let shard = &registry.shards[cell.shard];
                    shard.slices.inc();
                    shard.slice_wall_ns.record(t0.elapsed().as_nanos() as u64);
                    shard.events_per_slice.record(report.events_fed as u64);
                    registry
                        .events_recent
                        .push(registry.now_ms(), report.events_fed as u64);
                    inner.last_slice = Some(Instant::now());
                }
                // Push the slice's trace appends out of the process
                // before telling anyone about them — a process crash
                // after the broadcast must not lose acknowledged
                // history. (Power-loss durability comes from the
                // fsynced command journal instead: a trace tail lost
                // with the OS is regenerated by deterministic replay
                // on restore.)
                if let Err(e) = inner.session.engine_mut().sync_trace() {
                    fail(&mut inner, cell.id, &format!("trace store failed: {e}"));
                } else {
                    // The trace is on disk; if the slice crossed a
                    // checkpoint boundary, persist a full-state image
                    // before acknowledging the slice (a checkpoint that
                    // claimed entries the trace store never synced
                    // would restore ahead of its own history).
                    maybe_checkpoint(&mut inner, cell.id, registry);
                    if inner.failed.is_none() {
                        let now_ns = inner.session.now_ns();
                        broadcast(
                            &mut inner,
                            EngineEvent::SliceCompleted {
                                session: cell.id,
                                now_ns,
                                report,
                            },
                        );
                        pumped = true;
                    }
                }
            }
            Err(e) => fail(&mut inner, cell.id, &e.to_string()),
        }
    }
    publish_deltas(&mut inner, cell.id);
    let idle_now = inner.remaining_ns == 0 || inner.failed.is_some();
    if pumped && idle_now {
        let now_ns = inner.session.now_ns();
        broadcast(
            &mut inner,
            EngineEvent::Idle {
                session: cell.id,
                now_ns,
            },
        );
    }
    drop(inner);
    let more_mail = !lock(&cell.mailbox).is_empty();
    if !idle_now || more_mail {
        let _ = shared.enqueue(cell); // on shutdown the turn just ends
    }
    if idle_now {
        cell.idle_cv.notify_all();
    }
}

/// Applies one mailed mutation to the session. Durable sessions journal
/// it — stamped with the target time at which it takes effect — so a
/// restarted server replays it at exactly the same instant.
///
/// The journal write comes first. `Step` and `Resume` drain queued
/// commands into the trace store as they apply, so applying first would
/// let a crash or a failed journal write leave trace entries on disk
/// for a mutation the journal never recorded. Journaling first leaves
/// the journal at worst ahead of the session, and replay regenerates
/// the effect. Only mutations the session accepts may enter the journal
/// (a rejected one in the replayable history would re-fail every later
/// restore), so the read-only `check` runs before the write. A journal
/// write failure fails the session with the mutation unapplied: its
/// durable history could no longer be trusted to match its state.
fn apply_mutation(
    inner: &mut SessionInner,
    id: SessionId,
    mutation: &Mutation,
    registry: &MetricsRegistry,
) {
    if let Err(e) = inner.session.check(mutation) {
        fail(inner, id, &e.to_string());
        return;
    }
    if let Some(durable) = inner.durable.as_mut() {
        // Timed here (not inside `Journal`) so the journal knows nothing
        // of metrics; the measurement includes the fsync — the dominant
        // cost on a durable session's command path.
        let t0 = registry.enabled().then(Instant::now);
        let result = durable.journal.append(inner.session.now_ns(), mutation);
        if let Some(t0) = t0 {
            registry.journal_appends.inc();
            registry
                .journal_append_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        if let Err(e) = result {
            fail(inner, id, &format!("command journal write failed: {e}"));
            return;
        }
    }
    match inner.session.apply(mutation) {
        Ok(granted_ns) => inner.remaining_ns = inner.remaining_ns.saturating_add(granted_ns),
        Err(e) => fail(inner, id, &e.to_string()),
    }
}

/// Answers one mailed query on `reply`. A live-history read the store
/// cannot serve (the outer `Err`) fails the session and drops `reply`
/// unanswered, so the waiting client observes the failure instead of a
/// silently truncated record. The time-travel trio runs entirely on a
/// detached replica: a seek failure (the inner `Err` — bad target,
/// evicted history, damaged checkpoint chain) is the *request's*
/// failure, sent back on `reply`; it never fails the live session.
fn answer(
    inner: &mut SessionInner,
    id: SessionId,
    query: Query,
    reply: &mpsc::Sender<Result<Reply, String>>,
    registry: &MetricsRegistry,
) {
    let trace = inner.session.engine().trace();
    let outcome: Result<Result<Reply, String>, StoreError> = match query {
        Query::Snapshot { include_trace } => {
            snapshot_of(inner, id, include_trace).map(|s| Ok(Reply::Snapshot(s)))
        }
        Query::FetchRange { t0_ns, t1_ns } => {
            read_window(trace, id, t0_ns, t1_ns).map(|page| Ok(Reply::Trace(page)))
        }
        Query::ReplayFrom { seq, limit } => {
            read_from(trace, id, seq, limit).map(|page| Ok(Reply::Trace(page)))
        }
        Query::SeekTo {
            t_ns,
            include_trace,
        } => {
            let target = t_ns.min(inner.session.now_ns());
            Ok(seek_to_target(inner, id, registry, target, include_trace).map(Reply::Seek))
        }
        Query::StepBack {
            entries,
            include_trace,
        } => Ok(step_back_target(inner, entries)
            .and_then(|target| seek_to_target(inner, id, registry, target, include_trace))
            .map(Reply::Seek)),
        Query::ReplayWindow { t0_ns, t1_ns } => {
            // The checkpoint must land *strictly before* the window so
            // every in-window entry (time >= t0) is regenerated by the
            // replica rather than assumed persisted: an entry the
            // checkpoint already covers has time <= checkpoint time
            // < t0 and therefore cannot be part of the window.
            let target = t1_ns.min(inner.session.now_ns());
            Ok(
                seek_replica(inner, registry, t0_ns, true, target).and_then(|replica| {
                    read_window(replica.session.engine().trace(), id, t0_ns, t1_ns)
                        .map(Reply::Trace)
                        .map_err(|e| format!("replica window read failed: {e}"))
                }),
            )
        }
    };
    match outcome {
        Ok(answer) => {
            let _ = reply.send(answer); // client may have given up
        }
        Err(e) => fail(inner, id, &format!("trace history read failed: {e}")),
    }
}

/// One page of the entries whose event time falls in `[t0_ns, t1_ns]`.
fn read_window(
    trace: &ExecutionTrace,
    id: SessionId,
    t0_ns: u64,
    t1_ns: u64,
) -> Result<TraceSlice, StoreError> {
    let (lo, hi) = trace.window_bounds(t0_ns, t1_ns)?;
    let end = hi.min(lo.saturating_add(MAX_FETCH_ENTRIES));
    Ok(trace_page(id, lo, hi, read_bounded(trace, lo, end)?))
}

/// One page of up to `limit` entries (`0` = the server cap) from
/// sequence number `seq`.
fn read_from(
    trace: &ExecutionTrace,
    id: SessionId,
    seq: u64,
    limit: u64,
) -> Result<TraceSlice, StoreError> {
    let len = trace.len() as u64;
    let cap = if limit == 0 {
        MAX_FETCH_ENTRIES
    } else {
        limit.min(MAX_FETCH_ENTRIES)
    };
    // Clamp the page's low edge to the eviction floor *before* sizing
    // it: history below the floor is gone by policy, and a window
    // computed from the raw `seq` would end below the floor — an empty,
    // incomplete page whose continuation point never advances.
    let lo = seq.max(trace.first_retained_seq());
    let end = len.min(lo.saturating_add(cap));
    Ok(trace_page(id, lo, len, read_bounded(trace, lo, end)?))
}

/// Packages one history page ending at `end_seq`. On a
/// retention-evicted store the page may start above `lo` (history below
/// the eviction floor is gone); `first_seq` reports where it actually
/// starts so clients resume from `last().seq + 1`, not from arithmetic
/// on the request.
fn trace_page(id: SessionId, lo: u64, end_seq: u64, entries: Vec<TraceEntry>) -> TraceSlice {
    let first = entries.first().map_or(lo, |e| e.seq);
    let next = entries.last().map_or(first, |e| e.seq + 1);
    TraceSlice {
        session: id,
        first_seq: first,
        complete: next >= end_seq,
        entries,
        end_seq,
    }
}

/// Persists a full-state checkpoint when the trace has grown by at
/// least one checkpoint interval since the last one. Runs on the pump
/// path right after `sync_trace`, so a checkpoint never references
/// trace entries that are not themselves on disk yet. A write failure
/// fails the session — a durable session whose checkpoint chain can no
/// longer advance would silently degrade every future seek.
fn maybe_checkpoint(inner: &mut SessionInner, id: SessionId, registry: &MetricsRegistry) {
    let Some(durable) = inner.durable.as_mut() else {
        return;
    };
    let Some(store) = durable.checkpoints.as_mut() else {
        return;
    };
    let trace = inner.session.engine().trace();
    let len = trace.len() as u64;
    let last = store.latest().map_or(0, |m| m.seq);
    // During post-restart catch-up the simulator's clock lags the
    // recovered store: an image taken now would pair a stale `t_ns`
    // with the full recovered length, and a seek restoring it would
    // regenerate (duplicate) the gap. Checkpoints resume once the
    // deterministic replay has re-reached the recovered length.
    if durable.checkpoint_interval == 0
        || trace.catching_up()
        || len.saturating_sub(last) < durable.checkpoint_interval
    {
        return;
    }
    let image = persist::ServerCheckpoint {
        journal_pos: durable.journal.records().len() as u64,
        session: inner.session.save_state(),
    };
    let payload = match serde_json::to_string(&image) {
        Ok(payload) => payload,
        Err(e) => {
            fail(inner, id, &format!("checkpoint serialization failed: {e}"));
            return;
        }
    };
    let t0 = registry.enabled().then(Instant::now);
    match store.save(len, image.session.t_ns(), payload.as_bytes()) {
        Ok(bytes) => {
            if let Some(t0) = t0 {
                registry.checkpoint_writes.inc();
                registry.checkpoint_bytes.add(bytes);
                registry
                    .checkpoint_write_ns
                    .record(t0.elapsed().as_nanos() as u64);
            }
            // Pin retention: segments at or above the oldest retained
            // checkpoint's position must survive eviction — a seek
            // restores that checkpoint and pages its forward window out
            // of the persisted prefix.
            if let Some(oldest) = store.oldest_seq() {
                inner.session.engine_mut().set_trace_retain_floor(oldest);
            }
        }
        Err(e) => fail(inner, id, &format!("checkpoint write failed: {e}")),
    }
}

/// A detached time-travel replica: an independent session rebuilt at
/// some past instant from checkpoint + journal replay. Its trace store
/// is a [`MemStore`] based at the checkpoint's trace length, holding
/// only the regenerated suffix with absolute sequence numbers. The
/// replica's breakpoint hits are never taken: it publishes nothing.
struct SeekReplica {
    session: DebugSession,
    /// Trace length at the restored checkpoint (0 when replaying from
    /// zero) — the replica's store starts here.
    base: u64,
    /// The checkpoint that was restored, if any.
    checkpoint: Option<CheckpointMeta>,
    /// Journaled commands re-applied on the way to the target.
    replayed_commands: u64,
}

/// Builds a replica of the session at `target_ns`: restores the newest
/// usable checkpoint whose time satisfies the horizon (`< horizon` when
/// `strictly_before`, else `<= horizon`), then deterministically
/// replays journal and pump up to the target. The pick is
/// [`persist::newest_image`], the one restart uses: a damaged image, or
/// one past the journal's valid end, falls back to the next older one;
/// with none usable the replica replays from time zero. The spec and
/// the journal records come from the session's in-memory
/// [`persist::Durable`]; the image is the only file read.
fn seek_replica(
    inner: &SessionInner,
    registry: &MetricsRegistry,
    horizon_ns: u64,
    strictly_before: bool,
    target_ns: u64,
) -> Result<SeekReplica, String> {
    let durable = inner.durable.as_ref().ok_or_else(|| {
        "time travel needs a durable session (in-memory sessions keep no checkpoints or journal)"
            .to_owned()
    })?;
    let records = durable.journal.records();
    let in_horizon = |m: &CheckpointMeta| {
        if strictly_before {
            m.t_ns < horizon_ns
        } else {
            m.t_ns <= horizon_ns
        }
    };
    let picked = durable
        .checkpoints
        .as_ref()
        .and_then(|store| persist::newest_image(store, records.len(), registry, in_horizon));
    let base = picked
        .as_ref()
        .map_or(0, |(_, image)| image.session.trace_len());
    let (mut session, replayed_commands) = persist::rebuild(
        &durable.spec,
        picked.as_ref().map(|(_, image)| image),
        Box::new(MemStore::new(base)),
        records,
        target_ns,
    )
    .map_err(|e| format!("replica {e}"))?;
    let now = session.now_ns();
    if target_ns > now {
        session
            .run_for(target_ns - now)
            .map_err(|e| format!("replica replay failed: {e}"))?;
    }
    Ok(SeekReplica {
        session,
        base,
        checkpoint: picked.map(|(meta, _)| meta),
        replayed_commands,
    })
}

/// Runs a full seek to `target_ns` and packages the result.
fn seek_to_target(
    inner: &SessionInner,
    id: SessionId,
    registry: &MetricsRegistry,
    target_ns: u64,
    include_trace: bool,
) -> Result<SeekReport, String> {
    let replica = seek_replica(inner, registry, target_ns, false, target_ns)?;
    let trace_len = replica.session.engine().trace().len() as u64;
    let trace_json = if include_trace {
        Some(replica_trace_json(inner, &replica)?)
    } else {
        None
    };
    Ok(SeekReport {
        session: id,
        target_ns,
        now_ns: replica.session.now_ns(),
        checkpoint_seq: replica.checkpoint.map(|m| m.seq),
        checkpoint_t_ns: replica.checkpoint.map(|m| m.t_ns),
        replayed_commands: replica.replayed_commands,
        replayed_entries: trace_len.saturating_sub(replica.base),
        trace_len,
        engine_state: replica.session.engine().state(),
        trace_json,
    })
}

/// Serializes the replica's full trace: the persisted prefix below the
/// checkpoint (read from the live store) plus the regenerated suffix —
/// byte-identical to the trace an uninterrupted run serialized at the
/// same instant.
fn replica_trace_json(inner: &SessionInner, replica: &SeekReplica) -> Result<String, String> {
    let mut combined: Vec<TraceEntry> = Vec::new();
    if replica.base > 0 {
        let live = inner.session.engine().trace();
        live.read_range_into(0, replica.base, &mut combined)
            .map_err(|e| format!("trace prefix read failed: {e}"))?;
        if combined.len() as u64 != replica.base {
            return Err(format!(
                "trace prefix below the checkpoint is incomplete ({} of {} entries retained) — \
                 retention evicted it; use ReplayWindow instead",
                combined.len(),
                replica.base
            ));
        }
    }
    combined.extend(replica.session.engine().trace().entries());
    Ok(ExecutionTrace::with_store(Box::new(MemStore::from_entries(combined))).to_json())
}

/// Resolves a [`Query::StepBack`] to the target instant: the
/// event time of the entry `entries` + 1 positions before the current
/// end of the trace (so the replica's trace ends `entries` entries
/// shorter). Stepping over the whole trace lands at time zero.
fn step_back_target(inner: &SessionInner, entries: u64) -> Result<u64, String> {
    let trace = inner.session.engine().trace();
    let len = trace.len() as u64;
    let keep = len.saturating_sub(entries);
    if keep == 0 {
        return Ok(0);
    }
    let pivot = keep - 1;
    if pivot < trace.first_retained_seq() {
        return Err(format!(
            "step-back target (trace entry {pivot}) is below the retention floor ({})",
            trace.first_retained_seq()
        ));
    }
    let mut page: Vec<TraceEntry> = Vec::new();
    trace
        .read_range_into(pivot, pivot + 1, &mut page)
        .map_err(|e| format!("trace read failed: {e}"))?;
    page.first()
        .map(|e| e.event.time_ns)
        .ok_or_else(|| format!("trace entry {pivot} could not be read back"))
}

/// Reads trace entries `[lo, end)` for one reply page, bounded by the
/// caller's entry cap (baked into `end`) *and* [`MAX_FETCH_BYTES`] of
/// encoded payload — see the constant for why both bounds exist. Reads
/// in store-page-sized chunks so a byte-capped request never pulls the
/// whole entry range off disk first. On a retention-evicted store the
/// result starts at the eviction floor when `lo` is below it.
fn read_bounded(
    trace: &gmdf_engine::ExecutionTrace,
    lo: u64,
    end: u64,
) -> Result<Vec<TraceEntry>, StoreError> {
    const CHUNK: u64 = 256;
    let mut entries: Vec<TraceEntry> = Vec::new();
    let mut budget = MAX_FETCH_BYTES;
    // Start at the eviction floor: chunks below it would come back
    // empty and end the loop before any retained entry was reached.
    let mut next = lo.max(trace.first_retained_seq());
    while next < end {
        let mut page = Vec::new();
        trace.read_range_into(next, end.min(next.saturating_add(CHUNK)), &mut page)?;
        if page.is_empty() {
            break; // nothing retained in the remaining range
        }
        for entry in page {
            let cost = serde_json::to_string(&entry).map_or(0, |s| s.len() as u64);
            // Always ship at least one entry so paging makes progress;
            // a single record past the frame limit is the wire layer's
            // terminal case, not ours.
            if !entries.is_empty() && cost > budget {
                return Ok(entries);
            }
            budget = budget.saturating_sub(cost);
            entries.push(entry);
        }
        // Continue after the last entry actually read — below an
        // eviction floor the store returns fewer than asked, starting
        // above `next`, and naive `next += CHUNK` would re-read.
        next = entries.last().expect("page was non-empty").seq + 1;
    }
    Ok(entries)
}

/// Builds a consistent snapshot under the state lock.
fn snapshot_of(
    inner: &SessionInner,
    id: SessionId,
    include_trace: bool,
) -> Result<SessionSnapshot, StoreError> {
    let engine = inner.session.engine();
    let trace_json = if include_trace {
        Some(engine.trace().try_to_json()?)
    } else {
        None
    };
    Ok(SessionSnapshot {
        session: id,
        now_ns: inner.session.now_ns(),
        engine_state: engine.state(),
        pending: engine.pending(),
        trace_len: engine.trace().len(),
        trace_json,
        events_fed: events_fed(engine),
        violations: engine.violations().len() as u64,
        breakpoint_hits: engine.stats().breakpoint_hits,
        lagged_drops: inner.lagged.get(),
        remaining_ns: inner.remaining_ns,
    })
}

/// Parks the session as failed and tells subscribers.
fn fail(inner: &mut SessionInner, id: SessionId, message: &str) {
    inner.failed = Some(message.to_owned());
    inner.remaining_ns = 0;
    broadcast(
        &mut *inner,
        EngineEvent::Error {
            session: id,
            message: message.to_owned(),
        },
    );
}

/// Publishes everything recorded since the last turn: breakpoint hits,
/// violation messages, and the trace delta. One rule decides what is
/// new to subscribers: an entry, and a hit on it, go out exactly when
/// its `seq` is at or above the cursor the turn started with. So a hit
/// goes out in the same turn as its entry's `TraceDelta`, and a hit on
/// an entry below the cursor — history a restart re-derives during
/// catch-up — is never announced. The engine's hits are taken and the
/// cursor advances every turn; the owned event payloads (the delta
/// read-back, message strings) are only built when someone is
/// subscribed.
fn publish_deltas(inner: &mut SessionInner, id: SessionId) {
    let has_subscribers = !inner.subscribers.is_empty();
    let cursor = inner.trace_cursor;
    let mut events = Vec::new();
    for (seq, time_ns) in inner.session.engine_mut().take_breakpoint_hits() {
        if has_subscribers && seq >= cursor {
            events.push(EngineEvent::BreakpointHit {
                session: id,
                seq,
                time_ns,
            });
        }
    }
    let trace_len = inner.session.engine().trace().len() as u64;
    let mut read_error: Option<StoreError> = None;
    if has_subscribers && trace_len > cursor {
        let mut delta: Vec<TraceEntry> = Vec::new();
        match inner
            .session
            .engine()
            .trace()
            .read_range_into(cursor, trace_len, &mut delta)
        {
            Ok(()) => {
                inner.trace_cursor = trace_len;
                for entry in &delta {
                    for message in &entry.violations {
                        events.push(EngineEvent::Violation {
                            session: id,
                            seq: entry.seq,
                            message: message.clone(),
                        });
                    }
                }
                if !delta.is_empty() {
                    events.push(EngineEvent::TraceDelta {
                        session: id,
                        entries: delta,
                    });
                }
            }
            // The cursor stays put; the session is failed below, after
            // the events gathered so far have gone out.
            Err(e) => read_error = Some(e),
        }
    } else {
        // Nobody is listening: skip the read-back, the history stays
        // addressable through `FetchRange`/`ReplayFrom`.
        inner.trace_cursor = trace_len;
    }
    for event in events {
        broadcast(inner, event);
    }
    if let Some(e) = read_error {
        // A delta the store cannot serve must not strand the stream's
        // tail: if the session simply parked, no further turn would run
        // until an external command arrived and subscribers would wait
        // on the missing entries forever. Failing the session makes
        // the loss visible (Error event, failed snapshots) instead.
        fail(inner, id, &format!("trace delta read failed: {e}"));
    }
}

/// Delivers `event` to every live subscriber, pruning dead ones. The
/// last recipient gets the event by move, so the common single-
/// subscriber case never deep-clones a `TraceDelta` payload. Pushes
/// never block: a full bounded queue coalesces or drops on the
/// subscriber's side (see [`crate::queue`]).
fn broadcast(inner: &mut SessionInner, event: EngineEvent) {
    let subscribers = &mut inner.subscribers;
    match subscribers.len() {
        0 => {}
        1 => {
            if !subscribers[0].push(event) {
                subscribers.clear();
            }
        }
        n => {
            let mut alive = vec![true; n];
            let mut any_dead = false;
            for (i, subscriber) in subscribers.iter().enumerate().take(n - 1) {
                if !subscriber.push(event.clone()) {
                    alive[i] = false;
                    any_dead = true;
                }
            }
            if !subscribers[n - 1].push(event) {
                alive[n - 1] = false;
                any_dead = true;
            }
            if any_dead {
                // Positional retain. Deliberately index-defensive: this
                // runs inside the broadcast lock, where a panic would
                // poison the session for every other subscriber, so a
                // length mismatch keeps the subscriber rather than
                // unwinding.
                let mut idx = 0;
                subscribers.retain(|_| {
                    let keep = alive.get(idx).copied().unwrap_or(true);
                    idx += 1;
                    keep
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_systems::{blinker_system, ring_system, spec_of, tmp_root};
    use crate::PersistConfig;
    use gmdf_engine::EngineState;
    use gmdf_gdm::EventKind;

    const WAIT: Duration = Duration::from_secs(120);

    /// A journal write that fails on a `Resume` of a paused durable
    /// session must leave nothing durable ahead of the journal: the
    /// session fails with the mutation unapplied, so a restart restores
    /// exactly the journaled history (still paused, no trace entries
    /// drained by the lost `Resume`) and then continues like an
    /// in-memory run of that history.
    #[test]
    fn failed_journal_write_leaves_nothing_ahead_of_the_journal() {
        let spec = spec_of(blinker_system("journal-fail", 0.0005, 500_000));
        let config = || ServerConfig {
            workers: 1,
            slice_ns: 500_000,
            ..ServerConfig::default()
        };
        // Pauses at a breakpoint with commands queued behind it.
        let journaled_history = |handle: &SessionHandle| {
            handle
                .add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true)
                .expect("send");
            handle.run_for(3_000_000).expect("send");
            handle.wait_idle(WAIT).expect("idle");
        };

        let reference = DebugServer::start(config());
        let ref_handle = reference.add_session(spec.build().expect("builds"));
        journaled_history(&ref_handle);
        let expected = ref_handle.snapshot(WAIT).expect("snapshot");
        assert_eq!(expected.engine_state, EngineState::Paused);
        assert!(expected.pending > 0, "the Resume has commands to drain");

        let root = tmp_root("journal-fail");
        let id = {
            let server = DebugServer::start_persistent(config(), PersistConfig::new(&root))
                .expect("persistent server boots");
            let handle = server.add_durable_session(&spec).expect("durable session");
            journaled_history(&handle);
            let journal = persist::session_dir(&root, handle.id()).join("journal.log");
            lock(&handle.cell.inner)
                .durable
                .as_mut()
                .expect("durable")
                .journal = persist::Journal::failing(&journal).expect("open journal");
            handle.resume().expect("send");
            match handle.wait_idle(WAIT) {
                Err(ServerError::SessionFailed(_)) => {}
                other => panic!("expected SessionFailed, got {other:?}"),
            }
            handle.id()
        };

        let server =
            DebugServer::start_persistent(config(), PersistConfig::new(&root)).expect("restart");
        let handle = server.handle(id).expect("restored handle");
        handle.wait_idle(WAIT).expect("idle");
        let restored = handle.snapshot(WAIT).expect("snapshot");
        assert_eq!(restored.trace_len, expected.trace_len);
        assert_eq!(restored.engine_state, expected.engine_state);
        assert_eq!(restored.pending, expected.pending);
        assert_eq!(restored.trace_json, expected.trace_json);

        for session in [&ref_handle, &handle] {
            session.resume().expect("send");
            session.run_for(3_000_000).expect("send");
            session.wait_idle(WAIT).expect("idle");
        }
        let continued = handle.snapshot(WAIT).expect("snapshot");
        assert_eq!(
            continued.trace_json,
            ref_handle.snapshot(WAIT).expect("snapshot").trace_json,
            "the restored session continues exactly like the reference"
        );
    }

    fn one_worker() -> ServerConfig {
        ServerConfig {
            workers: 1,
            slice_ns: 500_000,
            ..ServerConfig::default()
        }
    }

    /// A journal append that writes part of its record and then fails
    /// (a full disk) fails the session, and the session stays failed
    /// when space comes back: a later `Resume` is neither journaled
    /// behind the torn bytes nor applied. Otherwise it would drain the
    /// paused queue into the trace store while a restart, which stops
    /// reading the journal at the tear, restored the session paused
    /// with those commands still pending and a store already past them.
    #[test]
    fn failed_session_drops_mutations_behind_a_torn_journal_record() {
        let spec = spec_of(blinker_system("journal-torn", 0.0005, 500_000));
        let root = tmp_root("journal-torn");
        let (id, paused) = {
            let server = DebugServer::start_persistent(one_worker(), PersistConfig::new(&root))
                .expect("persistent server boots");
            let handle = server.add_durable_session(&spec).expect("durable session");
            handle
                .add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true)
                .expect("send");
            handle.run_for(3_000_000).expect("send");
            handle.wait_idle(WAIT).expect("idle");
            let paused = handle.snapshot(WAIT).expect("snapshot");
            assert_eq!(paused.engine_state, EngineState::Paused);
            assert!(paused.pending > 0, "the Resume has commands to drain");

            lock(&handle.cell.inner)
                .durable
                .as_mut()
                .expect("durable")
                .journal
                .tear_next_append(5);
            handle.resume().expect("send");
            match handle.wait_idle(WAIT) {
                Err(ServerError::SessionFailed(_)) => {}
                other => panic!("expected SessionFailed, got {other:?}"),
            }
            handle.resume().expect("send");
            let failed = handle
                .snapshot(WAIT)
                .expect("a failed session still answers queries");
            assert_eq!(failed.trace_len, paused.trace_len, "nothing drained");
            assert_eq!(failed.pending, paused.pending);
            assert_eq!(failed.trace_json, paused.trace_json);
            (handle.id(), paused)
        };

        let server = DebugServer::start_persistent(one_worker(), PersistConfig::new(&root))
            .expect("restart");
        let handle = server.handle(id).expect("restored handle");
        handle.wait_idle(WAIT).expect("idle");
        let restored = handle.snapshot(WAIT).expect("snapshot");
        assert_eq!(restored.engine_state, EngineState::Paused);
        assert_eq!(restored.pending, paused.pending);
        assert_eq!(restored.trace_len, paused.trace_len);
        assert_eq!(restored.trace_json, paused.trace_json);
        handle.resume().expect("send");
        handle.wait_idle(WAIT).expect("idle");
        let resumed = handle.stats(WAIT).expect("stats");
        assert_eq!(resumed.pending, 0);
        assert_eq!(resumed.trace_len, paused.trace_len + paused.pending);
    }

    /// A durable add that fails part-way leaves no session behind. With
    /// a plain file where the session's `checkpoints/` directory goes,
    /// the add fails; a restart then hosts no session and quarantines
    /// none, and the next add (same id, same directory) succeeds.
    #[test]
    fn failed_durable_add_leaves_no_session_behind() {
        let spec = spec_of(ring_system("failed-add", 3, 0.0008, 500_000));
        let root = tmp_root("failed-add");
        let config = PersistConfig::new(&root);
        let dir = persist::session_dir(&root, 0);
        std::fs::create_dir_all(&dir).expect("create session dir");
        std::fs::write(dir.join("checkpoints"), b"not a directory").expect("plain file");

        let server = DebugServer::start_persistent(one_worker(), config.clone()).expect("boots");
        match server.add_durable_session(&spec) {
            Err(ServerError::Persist(message)) => {
                assert!(message.contains("checkpoint store"), "{message}")
            }
            other => panic!("expected a persistence error, got {other:?}"),
        }
        drop(server);

        let server = DebugServer::start_persistent(one_worker(), config).expect("restarts");
        assert_eq!(server.session_ids(), Vec::<SessionId>::new());
        assert!(server.quarantined_sessions().is_empty());
        let handle = server
            .add_durable_session(&spec)
            .expect("the next add succeeds");
        assert_eq!(handle.id(), 0);
    }

    /// Shutdown drops the mail no worker will drain: the reply channel
    /// of a query left in a mailbox, never enqueued, disconnects at
    /// once instead of keeping its caller waiting.
    #[test]
    fn shutdown_releases_mail_no_worker_will_drain() {
        let mut server = DebugServer::start(one_worker());
        let session = spec_of(blinker_system("stranded", 0.0005, 500_000))
            .build()
            .expect("builds");
        let handle = server.add_session(session);
        let (tx, rx) = mpsc::channel();
        let query = Query::Snapshot {
            include_trace: false,
        };
        lock(&handle.cell.mailbox).push_back(Mail::Query(query, tx));
        server.shutdown();
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(3)),
            Err(mpsc::RecvTimeoutError::Disconnected)
        ));
    }

    /// A session that hit a breakpoint before the server took it starts
    /// publishing at its first entry, and the hit goes out with the
    /// entry it sits on: one rule decides both.
    #[test]
    fn a_hit_before_registration_goes_out_with_its_entry() {
        let mut session = spec_of(ring_system("early-hit", 3, 0.5, 500_000))
            .build()
            .expect("builds");
        session
            .engine_mut()
            .add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true);
        while session.engine().state() != EngineState::Paused {
            assert!(session.now_ns() < 1_000_000_000, "the breakpoint hits");
            session.run_for(500_000).expect("runs");
        }
        // A hit pauses the engine, so its entry is the newest one.
        let trace = session.engine().trace();
        let hit = trace.get(trace.len() as u64 - 1).expect("the hit's entry");

        let server = DebugServer::start(one_worker());
        let handle = server.add_session(session);
        let events = handle.subscribe();
        handle.run_for(1_000_000).expect("send");
        handle.wait_idle(WAIT).expect("idle");
        let mut hits = Vec::new();
        let mut delivered = Vec::new();
        for event in events.try_iter() {
            match event {
                EngineEvent::BreakpointHit { seq, time_ns, .. } => hits.push((seq, time_ns)),
                EngineEvent::TraceDelta { entries, .. } => {
                    delivered.extend(entries.iter().map(|e| e.seq));
                }
                _ => {}
            }
        }
        assert!(delivered.contains(&hit.seq), "the hit's entry is published");
        assert_eq!(hits, vec![(hit.seq, hit.event.time_ns)]);
    }

    /// A hosted session's record of its run is its trace store: the
    /// simulator under it keeps no event log while it is pumped, nor
    /// after a restart rebuilt it from time zero (no checkpoint images)
    /// and the pump re-ran the whole journaled budget in catch-up.
    #[test]
    fn hosted_sessions_keep_no_simulator_event_log() {
        let spec = spec_of(ring_system("no-sim-log", 3, 0.0008, 500_000));
        let root = tmp_root("no-sim-log");
        let persist = || PersistConfig::new(&root).with_checkpoint_interval(0);
        let sim_log_len =
            |handle: &SessionHandle| lock(&handle.cell.inner).session.simulator().events().len();
        let (id, before) = {
            let server = DebugServer::start_persistent(one_worker(), persist())
                .expect("persistent server boots");
            let handle = server.add_durable_session(&spec).expect("durable session");
            handle.run_for(30_000_000).expect("send");
            handle.wait_idle(WAIT).expect("idle");
            let before = handle.stats(WAIT).expect("stats");
            assert!(before.trace_len > 0, "the run records a trace");
            assert_eq!(sim_log_len(&handle), 0, "a pumped session logs nothing");
            (handle.id(), before)
        };
        let checkpoints = persist::session_dir(&root, id).join("checkpoints");
        let images = std::fs::read_dir(&checkpoints)
            .expect("checkpoint dir")
            .count();
        assert_eq!(images, 0, "the restart must replay from time zero");

        let server = DebugServer::start_persistent(one_worker(), persist()).expect("restart");
        let handle = server.handle(id).expect("restored handle");
        handle.wait_idle(WAIT).expect("idle");
        let after = handle.stats(WAIT).expect("stats");
        assert_eq!(
            (after.now_ns, after.trace_len),
            (before.now_ns, before.trace_len),
            "catch-up re-ran the whole budget"
        );
        assert_eq!(sim_log_len(&handle), 0, "a restored session logs nothing");
    }

    /// A seek rebuilds from the session's in-memory spec and journal
    /// records; only the checkpoint image comes from disk. With its
    /// `spec.json` overwritten and its `journal.log` emptied, a session
    /// still answers `SeekTo`, `StepBack` and `ReplayWindow` exactly
    /// like an undamaged twin that ran the same history.
    #[test]
    fn seeks_do_not_reread_the_session_files() {
        let spec = spec_of(ring_system("seek-files", 3, 0.0008, 500_000));
        let root = tmp_root("seek-files");
        let server = DebugServer::start_persistent(
            ServerConfig {
                workers: 2,
                ..one_worker()
            },
            PersistConfig::new(&root).with_checkpoint_interval(16),
        )
        .expect("persistent server boots");
        let damaged = server.add_durable_session(&spec).expect("durable session");
        let twin = server.add_durable_session(&spec).expect("durable session");
        for handle in [&damaged, &twin] {
            handle
                .schedule_signal(9_000_000, "state_sig", SignalValue::Int(5))
                .expect("send");
            handle
                .add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true)
                .expect("send");
            handle.run_for(12_000_000).expect("send");
            handle.wait_idle(WAIT).expect("idle");
            handle.step().expect("send");
            handle.resume().expect("send");
            handle.run_for(150_000_000).expect("send");
            handle.wait_idle(WAIT).expect("idle");
        }
        let live = twin.stats(WAIT).expect("stats");
        assert!(live.trace_len > 64, "several checkpoint intervals");

        let dir = persist::session_dir(&root, damaged.id());
        std::fs::write(dir.join("spec.json"), b"{ not a spec").expect("overwrite spec");
        std::fs::File::options()
            .write(true)
            .open(dir.join("journal.log"))
            .and_then(|f| f.set_len(0))
            .expect("truncate journal");

        let mid = live.now_ns / 2;
        let seek = |h: &SessionHandle| {
            let mut report = h.seek_to(mid, true, WAIT).expect("seek");
            report.session = 0;
            report
        };
        let step_back = |h: &SessionHandle| {
            let mut report = h.step_back(20, true, WAIT).expect("step back");
            report.session = 0;
            report
        };
        let window = |h: &SessionHandle| {
            let mut page = h.replay_window(mid / 2, mid, WAIT).expect("window");
            page.session = 0;
            page
        };
        let report = seek(&twin);
        assert!(report.checkpoint_seq.is_some(), "served from an image");
        assert_eq!(seek(&damaged), report);
        assert_eq!(step_back(&damaged), step_back(&twin));
        assert_eq!(window(&damaged), window(&twin));
    }
}
