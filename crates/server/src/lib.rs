//! # gmdf-server — the multi-session debug server
//!
//! The paper's debugger is a long-lived tool plug-in: it serves an
//! interactive UI while the target keeps running. This crate is the
//! server layer of the reproduction — a [`DebugServer`] owns many
//! [`gmdf::DebugSession`]s at once, shards them across a fixed pool of
//! worker threads, and pumps each underlying simulator in **bounded time
//! slices** under a round-robin run-queue scheduler, so one busy session
//! can never starve its siblings.
//!
//! Each hosted session exposes two asynchronous surfaces through its
//! [`SessionHandle`]:
//!
//! * a **command mailbox** — data-only [`Mutation`]s (schedule a
//!   signal, add/clear breakpoints, step, resume, run-for) and
//!   [`Query`]s (snapshot, history pages, time-travel seeks) queue
//!   without blocking and are handled in arrival order at the session's
//!   next scheduling turn, so a query's answer reflects every mutation
//!   posted before it. A durable session journals its mutations
//!   verbatim, and restart and seek replay them through the one
//!   [`gmdf::DebugSession::apply`];
//! * a **broadcast event stream** — every subscriber gets its own
//!   *bounded* [`EventReceiver`] of [`EngineEvent`]s (slice reports,
//!   incremental trace deltas, violations, breakpoint hits), drained at
//!   leisure without ever blocking the pump. A subscriber that falls
//!   behind has consecutive trace deltas coalesced, then the oldest
//!   events dropped — announced in-stream by [`EngineEvent::Lagged`] —
//!   so a stalled consumer costs bounded memory and zero pump latency
//!   ([`ServerConfig::subscriber_capacity`]; `0` restores the legacy
//!   unbounded queue).
//!
//! Remote frontends attach over TCP: [`WireServer`] fronts a
//! [`DebugServer`] with a length-prefixed, versioned JSON framing of
//! the same vocabulary ([`proto`]; a [`SessionCommand`] is either a
//! mutation or a query), and [`WireClient`] drives it — attach to a
//! session, send commands, stream events. The wire path
//! shares the broadcast backpressure policy, so a stalled socket can
//! never wedge the scheduler either.
//!
//! Determinism is the load-bearing invariant: a session pumped in server
//! slices on a contended worker pool records a trace **byte-identical**
//! to the same session run in one synchronous `run_for` — the scheduler
//! decides only *when* a session advances, never *what* it observes —
//! and an event stream replayed through the wire is byte-identical
//! (after JSON round-trip) to the in-process broadcast of the same run.
//! `crates/server/tests/determinism.rs` and
//! `crates/server/tests/wire.rs` pin this down.
//!
//! ```
//! use gmdf::{ChannelMode, Workflow};
//! use gmdf_codegen::CompileOptions;
//! use gmdf_comdes::{ActorBuilder, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port,
//!                   System, Timing, VAR_TIME_IN_STATE};
//! use gmdf_server::{DebugServer, ServerConfig};
//! use gmdf_target::SimConfig;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fsm = FsmBuilder::new()
//!     .output(Port::boolean("lamp"))
//!     .state("Off", |s| s.entry("lamp", Expr::Bool(false)))
//!     .state("On", |s| s.entry("lamp", Expr::Bool(true)))
//!     .transition("Off", "On", Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(0.002)))
//!     .transition("On", "Off", Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(0.002)))
//!     .build()?;
//! let net = NetworkBuilder::new()
//!     .output(Port::boolean("lamp"))
//!     .state_machine("ctl", fsm)
//!     .connect("ctl.lamp", "lamp")?
//!     .build()?;
//! let actor = ActorBuilder::new("Blinker", net)
//!     .output("lamp", "lamp")
//!     .timing(Timing::periodic(1_000_000, 0))
//!     .build()?;
//! let mut node = NodeSpec::new("ecu", 50_000_000);
//! node.actors.push(actor);
//! let session = Workflow::from_system(System::new("blink").with_node(node))?
//!     .default_abstraction()
//!     .default_commands()
//!     .connect(ChannelMode::Active, CompileOptions::default(), SimConfig::default())?;
//!
//! let server = DebugServer::start(ServerConfig::default());
//! let handle = server.add_session(session);
//! let events = handle.subscribe();
//! handle.run_for(10_000_000)?;                       // 10 ms of target time
//! handle.wait_idle(Duration::from_secs(10))?;
//! let snap = handle.snapshot(Duration::from_secs(10))?;
//! assert!(snap.trace_len > 0);
//! assert!(events.try_iter().count() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
pub mod metrics;
mod persist;
pub mod proto;
mod queue;
mod server;
mod wire;

/// The integration suites' test systems, shared with the unit tests.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_systems;

pub use event::{EngineEvent, SeekReport, SessionSnapshot, TraceSlice};
// The mutation vocabulary is defined next to the session it applies
// to; re-exported so wire clients need only `gmdf_server`.
pub use gmdf::Mutation;
// The static-analysis vocabulary wire clients consume (`Analyze` frame
// replies, `SessionInfo::diagnostics`): re-exported so remote tooling
// needs only `gmdf_server`.
pub use gmdf_analyze::{
    AnalysisError, AnalysisReport, Diagnostic, NodeReport, Pass, Severity, TaskReport, TaskVerdict,
};
pub use metrics::{
    FleetMetrics, HealthState, MetricsRegistry, MetricsSnapshot, QuarantinedSession, SessionHealth,
    SessionInfo, WireConnection,
};
pub use proto::SessionCommand;
pub use queue::{EventReceiver, TryIter, MAX_COALESCED_ENTRIES};
pub use server::{
    DebugServer, PersistConfig, Query, ServerConfig, ServerError, SessionHandle, SessionId,
    DEFAULT_CHECKPOINT_INTERVAL, MAX_FETCH_BYTES, MAX_FETCH_ENTRIES,
};
pub use wire::{WireClient, WireError, WireServer};
