//! Debug sessions: the assembled GMDF pipeline.
//!
//! A [`DebugSession`] wires all three parts of the framework together
//! (paper Fig. 2): the *user input* (a COMDES system and its generated
//! executable code), the *GDM* (derived by abstraction), and the *runtime
//! engine* — connected to the target simulator through the active RS-232
//! channel or the passive JTAG monitor.

use crate::channel::{ActiveChannel, PassiveChannel};
use gmdf_codegen::{compile_system, CompileError, CompileOptions, FrameDecoder, ProgramImage};
use gmdf_comdes::{ComdesError, Interpreter, SignalValue, System};
use gmdf_engine::{classify, BugClass, DebuggerEngine, Divergence, EngineCheckpoint};
use gmdf_gdm::{CommandMatcher, DebuggerModel, ModelEvent};
use gmdf_target::{JtagMonitor, JtagState, SimConfig, SimError, SimState, Simulator};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which command interface the session uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChannelMode {
    /// Instrumented code sends frames over RS-232.
    Active,
    /// JTAG polling of monitored variables; zero target overhead.
    Passive {
        /// Poll period in nanoseconds.
        poll_period_ns: u64,
        /// Probe TCK frequency in Hz.
        tck_hz: u64,
    },
}

/// Session construction/run failure.
#[derive(Debug)]
pub enum SessionError {
    /// The input model is invalid.
    Model(ComdesError),
    /// Code generation failed.
    Compile(CompileError),
    /// Target simulation failed.
    Sim(SimError),
    /// The trace's backing store failed (a disk-backed read/flush).
    Trace(gmdf_engine::StoreError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Model(e) => write!(f, "model error: {e}"),
            SessionError::Compile(e) => write!(f, "compile error: {e}"),
            SessionError::Sim(e) => write!(f, "simulation error: {e}"),
            SessionError::Trace(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ComdesError> for SessionError {
    fn from(e: ComdesError) -> Self {
        SessionError::Model(e)
    }
}

impl From<CompileError> for SessionError {
    fn from(e: CompileError) -> Self {
        SessionError::Compile(e)
    }
}

impl From<SimError> for SessionError {
    fn from(e: SimError) -> Self {
        SessionError::Sim(e)
    }
}

/// A model-level debug command that changes session state: the
/// stimulus, breakpoint, step, resume and run vocabulary a debugger
/// front end drives the runtime engine with.
///
/// Plain data, so a durable server journals it verbatim and replays
/// it through the same [`DebugSession::apply`] that applied it live.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mutation {
    /// Schedule an environment stimulus on the target.
    ScheduleSignal {
        /// Absolute target time of the write.
        time_ns: u64,
        /// Board label to write.
        label: String,
        /// Value to write.
        value: SignalValue,
    },
    /// Install a model-level breakpoint on the engine.
    AddBreakpoint {
        /// Events that trigger the pause.
        matcher: CommandMatcher,
        /// Remove after the first hit.
        one_shot: bool,
    },
    /// Remove all breakpoints.
    ClearBreakpoints,
    /// While paused: process exactly one queued engine command.
    Step,
    /// Resume the engine, draining queued commands until empty or the
    /// next breakpoint.
    Resume,
    /// Grant run budget: the target may advance `duration_ns` further.
    /// The session itself does not run; whoever pumps it spends the
    /// budget [`DebugSession::apply`] returns.
    RunFor {
        /// Additional target time to run, in nanoseconds.
        duration_ns: u64,
    },
}

/// Summary of one [`DebugSession::run_for`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunReport {
    /// Model events fed to the engine.
    pub events_fed: usize,
    /// Expectation violations raised in this window.
    pub violations: usize,
    /// `true` if a breakpoint paused the engine.
    pub breakpoint_hit: bool,
}

/// Full serializable state of a [`DebugSession`] at one instant — the
/// unit a checkpoint store persists for O(interval) time travel.
///
/// Captures the target platform ([`SimState`]), the channel's
/// mid-stream decode state (partial UART frames / JTAG change
/// detection), the engine's presentation state
/// ([`EngineCheckpoint`]), the stimulus schedule, and the trace length
/// at the instant. The execution trace itself is **not** inside the
/// checkpoint: it lives in its own (segmented) store, and a restored
/// session regenerates entries from `trace_len` onward by
/// deterministic replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    sim: SimState,
    engine: EngineCheckpoint,
    /// Per-node frame decoders in node order (active channel only).
    active: Option<Vec<FrameDecoder>>,
    passive: Option<JtagState>,
    stimuli: Vec<(u64, String, SignalValue)>,
    trace_len: u64,
}

impl SessionCheckpoint {
    /// Simulation time at which the checkpoint was taken.
    pub fn t_ns(&self) -> u64 {
        self.sim.now_ns()
    }

    /// Trace length (next sequence number) at the checkpoint instant.
    pub fn trace_len(&self) -> u64 {
        self.trace_len
    }
}

/// A live model-level debug session.
#[derive(Debug)]
pub struct DebugSession {
    system: System,
    sim: Simulator,
    engine: DebuggerEngine,
    active: Option<Vec<(String, ActiveChannel)>>,
    passive: Option<(JtagMonitor, PassiveChannel)>,
    stimuli: Vec<(u64, String, SignalValue)>,
    /// Reused UART drain buffer — the pump runs every slice, and a fresh
    /// allocation per node per slice is measurable at fleet scale.
    uart_buf: Vec<(u64, u8)>,
}

// Sessions migrate onto scheduler worker threads; keep the entire
// session graph `Send` (compile-time check, so a regression fails every
// build rather than only the server crate's).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DebugSession>()
};

impl DebugSession {
    /// Builds a session: compiles the system, boots the simulator, and
    /// connects the chosen channel.
    ///
    /// For the passive mode, every state and mode cell in the image is
    /// watched automatically (the "monitored variables" selection).
    ///
    /// # Errors
    ///
    /// Propagates model, compile and simulator errors.
    pub fn build(
        system: System,
        gdm: DebuggerModel,
        channel: ChannelMode,
        compile: CompileOptions,
        sim_config: SimConfig,
    ) -> Result<Self, SessionError> {
        let image: ProgramImage = compile_system(&system, &compile)?;
        let debug = image.debug.clone();
        let watch_suggestions = debug.watch_suggestions.clone();
        let sim = Simulator::new(image, sim_config)?;
        let engine = DebuggerEngine::new(gdm);
        let (active, passive) = match channel {
            ChannelMode::Active => {
                let chans = system
                    .nodes
                    .iter()
                    .map(|n| (n.name.clone(), ActiveChannel::new(debug.clone())))
                    .collect();
                (Some(chans), None)
            }
            ChannelMode::Passive {
                poll_period_ns,
                tck_hz,
            } => {
                let mut monitor = JtagMonitor::new(poll_period_ns, tck_hz);
                for (node, symbol) in &watch_suggestions {
                    if symbol.ends_with("#state") || symbol.ends_with("#last") {
                        monitor
                            .watch(&sim, node, symbol)
                            .map_err(SessionError::Sim)?;
                    }
                }
                (None, Some((monitor, PassiveChannel::new(&system))))
            }
        };
        Ok(DebugSession {
            system,
            sim,
            engine,
            active,
            passive,
            stimuli: Vec::new(),
            uart_buf: Vec::new(),
        })
    }

    /// The input system under debug.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The debugger engine (trace, violations, frames).
    pub fn engine(&self) -> &DebuggerEngine {
        &self.engine
    }

    /// Mutable engine access (breakpoints, stepping, expectations).
    pub fn engine_mut(&mut self) -> &mut DebuggerEngine {
        &mut self.engine
    }

    /// Replaces the execution trace's backend (e.g. with a segmented
    /// on-disk [`gmdf_engine::SegmentStore`]). Attaching a non-empty
    /// store puts the trace into deterministic catch-up mode — see
    /// [`gmdf_engine::ExecutionTrace`]'s type docs.
    pub fn set_trace_store(&mut self, store: Box<dyn gmdf_engine::TraceStore>) {
        self.engine.set_trace_store(store);
    }

    /// Replaces the trace's backend *without* catch-up: the store's
    /// current length becomes the next sequence number, and recording
    /// continues from there. This is how a time-travel replica resumes
    /// from a checkpoint — the entries before the checkpoint already
    /// live in the durable store and must not be regenerated.
    pub fn resume_trace_store(&mut self, store: Box<dyn gmdf_engine::TraceStore>) {
        self.engine.resume_trace_store(store);
    }

    /// Replaces the trace's backend with `next_seq` as the next
    /// sequence number — a restored [`SessionCheckpoint::trace_len`].
    /// Entries the store already holds from there on are re-derived by
    /// deterministic catch-up instead of duplicated; see
    /// [`gmdf_engine::DebuggerEngine::set_trace_store_at`].
    pub fn set_trace_store_at(&mut self, store: Box<dyn gmdf_engine::TraceStore>, next_seq: u64) {
        self.engine.set_trace_store_at(store, next_seq);
    }

    /// Captures the session's complete dynamic state — target, channel
    /// decode state, engine presentation state, stimulus schedule and
    /// trace position — as one serializable [`SessionCheckpoint`].
    pub fn save_state(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            sim: self.sim.save_state(),
            engine: self.engine.save_state(),
            active: self
                .active
                .as_ref()
                .map(|chans| chans.iter().map(|(_, c)| c.decoder_state()).collect()),
            passive: self.passive.as_ref().map(|(m, _)| m.save_state()),
            stimuli: self.stimuli.clone(),
            trace_len: self.engine.trace().len() as u64,
        }
    }

    /// Restores a [`SessionCheckpoint`] into this session, which must
    /// have been built from the same [`SessionSpec`](crate::SessionSpec)
    /// (same system, GDM, channel mode and configuration). After restore
    /// the session behaves bit-identically to the one the snapshot was
    /// taken from — same future events, same trace entries.
    ///
    /// The execution trace is **not** touched: pair this with
    /// [`DebugSession::resume_trace_store`] (or a fresh store) so the
    /// trace position matches [`SessionCheckpoint::trace_len`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadState`] (wrapped) when the snapshot does
    /// not structurally match this session — different channel mode,
    /// node count, or watch list.
    pub fn restore_state(&mut self, state: &SessionCheckpoint) -> Result<(), SessionError> {
        match (&self.active, &state.active) {
            (Some(chans), Some(decs)) if chans.len() == decs.len() => {}
            (None, None) => {}
            _ => {
                return Err(SessionError::Sim(SimError::BadState(
                    "checkpoint channel mode does not match session".into(),
                )))
            }
        }
        if self.passive.is_some() != state.passive.is_some() {
            return Err(SessionError::Sim(SimError::BadState(
                "checkpoint channel mode does not match session".into(),
            )));
        }
        self.sim.restore_state(&state.sim)?;
        self.engine.restore_state(&state.engine);
        if let (Some(chans), Some(decs)) = (&mut self.active, &state.active) {
            for ((_, chan), dec) in chans.iter_mut().zip(decs) {
                chan.restore_decoder(dec.clone());
            }
        }
        if let (Some((monitor, _)), Some(jtag)) = (&mut self.passive, &state.passive) {
            monitor.restore_state(jtag)?;
        }
        self.stimuli = state.stimuli.clone();
        self.uart_buf.clear();
        Ok(())
    }

    /// Flushes the trace's backing store, surfacing any sticky
    /// storage failure.
    ///
    /// # Errors
    ///
    /// Propagates the store failure.
    pub fn sync_trace(&mut self) -> Result<(), gmdf_engine::StoreError> {
        self.engine.sync_trace()
    }

    /// Runs one bounded unit of trace-store maintenance (segment
    /// compression / retention eviction). A no-op on stores without a
    /// retention policy — the debug server's compactor thread calls
    /// this off the pump path.
    ///
    /// # Errors
    ///
    /// Propagates the store failure.
    pub fn maintain_trace(
        &mut self,
    ) -> Result<gmdf_engine::MaintenanceReport, gmdf_engine::StoreError> {
        self.engine.maintain_trace()
    }

    /// Pins the trace store's retention floor so eviction never drops
    /// an entry at or past the oldest retained checkpoint's trace
    /// position — see
    /// [`gmdf_engine::TraceStore::set_retain_floor`].
    pub fn set_trace_retain_floor(&mut self, floor: u64) {
        self.engine.set_trace_retain_floor(floor);
    }

    /// The target simulator. A session's record of the run is its
    /// execution trace, so the simulator keeps no event log unless a
    /// caller turns it on with [`Simulator::record_events`].
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Runs the static analyzer (`gmdf-analyze`) over this session's
    /// system, compiled image and platform configuration — schedulability
    /// verdicts, route checks, and model lint in one
    /// [`AnalysisReport`](gmdf_analyze::AnalysisReport), without
    /// simulating anything.
    ///
    /// # Errors
    ///
    /// Returns [`gmdf_analyze::AnalysisError::Diverged`] when the
    /// response-time iteration cannot settle within its bounded budget.
    pub fn analyze(&self) -> Result<gmdf_analyze::AnalysisReport, gmdf_analyze::AnalysisError> {
        gmdf_analyze::analyze(&self.system, self.sim.image(), self.sim.config())
    }

    /// Mutable simulator access.
    pub fn simulator_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Schedules an environment (sensor) stimulus.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::UnknownLabel`].
    pub fn schedule_signal(
        &mut self,
        time_ns: u64,
        label: &str,
        value: SignalValue,
    ) -> Result<(), SessionError> {
        self.sim.schedule_signal(time_ns, label, value)?;
        self.stimuli.push((time_ns, label.to_owned(), value));
        Ok(())
    }

    /// Checks, without changing anything, whether
    /// [`DebugSession::apply`] would accept `mutation`: `apply` fails
    /// exactly when this does, so a caller can record the mutation
    /// durably between the two calls.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownLabel`] for a stimulus on a label the
    /// target does not have.
    pub fn check(&self, mutation: &Mutation) -> Result<(), SessionError> {
        if let Mutation::ScheduleSignal { label, .. } = mutation {
            self.sim.check_label(label)?;
        }
        Ok(())
    }

    /// Applies one [`Mutation`] and returns the run budget it grants,
    /// in nanoseconds: `duration_ns` for [`Mutation::RunFor`], zero for
    /// everything else.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`DebugSession::check`] does; the session is
    /// unchanged then.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<u64, SessionError> {
        match mutation {
            Mutation::ScheduleSignal {
                time_ns,
                label,
                value,
            } => self.schedule_signal(*time_ns, label, *value)?,
            Mutation::AddBreakpoint { matcher, one_shot } => {
                self.engine.add_breakpoint(matcher.clone(), *one_shot);
            }
            Mutation::ClearBreakpoints => self.engine.clear_breakpoints(),
            Mutation::Step => {
                self.engine.step();
            }
            Mutation::Resume => {
                self.engine.resume();
            }
            Mutation::RunFor { duration_ns } => return Ok(*duration_ns),
        }
        Ok(0)
    }

    /// Current target simulation time.
    pub fn now_ns(&self) -> u64 {
        self.sim.now_ns()
    }

    /// Runs the target for `duration_ns`: advances the target, then
    /// decodes the span's UART bytes (or JTAG watch hits) **in one
    /// batch** and feeds the resulting commands to the engine in time
    /// order.
    ///
    /// Slicing is exact — any partition of a horizon into shorter
    /// `run_for` calls feeds the engine the identical command sequence
    /// (and therefore records a byte-identical trace) as one call over
    /// the whole horizon. A frame whose bytes straddle a slice boundary
    /// is completed by the stateful decoder on the following slice, at
    /// the same timestamp it would have had in the one-shot run. This
    /// is what a multi-session scheduler pumps in bounded slices;
    /// `DebugSession` is `Send`, so sessions migrate freely onto worker
    /// threads.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_for(&mut self, duration_ns: u64) -> Result<RunReport, SessionError> {
        let t_end = self.sim.now_ns().saturating_add(duration_ns);
        let mut events: Vec<ModelEvent> = Vec::new();
        if let Some((monitor, translator)) = &mut self.passive {
            let hits = monitor.run_until(&mut self.sim, t_end)?;
            events.extend(hits.iter().map(|w| translator.translate(w)));
        } else {
            self.sim.run_until(t_end)?;
        }
        if let Some(channels) = &mut self.active {
            let mut buf = std::mem::take(&mut self.uart_buf);
            for (node, channel) in channels.iter_mut() {
                buf.clear();
                self.sim.uart_take_into(node, &mut buf)?;
                events.extend(channel.feed(&buf));
            }
            self.uart_buf = buf;
        }
        events.sort_by_key(|e| e.time_ns);
        let mut report = RunReport {
            events_fed: events.len(),
            ..RunReport::default()
        };
        for e in events {
            let outcome = self.engine.feed(e);
            report.violations += outcome.violations;
            report.breakpoint_hit |= outcome.hit_breakpoint;
        }
        Ok(report)
    }

    /// Produces the *reference* behaviour stream by executing the input
    /// model itself (reference interpreter) over the same stimuli and
    /// horizon, then classifies the session against it: divergence ⇒
    /// implementation error, agreement ⇒ design error.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors (never for validated systems) and
    /// trace-store read failures — a verdict over a silently truncated
    /// observed stream would be wrong, not conservative.
    pub fn classify_against_model(&self) -> Result<(BugClass, Option<Divergence>), SessionError> {
        let reference = self.reference_events()?;
        let observed: Vec<ModelEvent> = self
            .engine
            .trace()
            .try_entries()
            .map_err(SessionError::Trace)?
            .iter()
            .map(|e| e.event.clone())
            .collect();
        Ok(classify(&observed, &reference))
    }

    /// The reference interpreter's behaviour stream for this session's
    /// stimuli, up to the current simulation time.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn reference_events(&self) -> Result<Vec<ModelEvent>, SessionError> {
        let mut interp = Interpreter::new(&self.system)?;
        for (t, label, value) in &self.stimuli {
            interp.add_stimulus(*t, label, *value);
        }
        interp.run_until(self.sim.now_ns())?;
        let mut events = Vec::new();
        for rec in interp.records() {
            for be in &rec.events {
                events.push(crate::behavior_to_model_event(rec.release_ns, be));
            }
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{comdes_allowed_transitions, comdes_gdm_default};
    use gmdf_codegen::InstrumentOptions;
    use gmdf_comdes::{ActorBuilder, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, Timing};

    fn blinker_system() -> System {
        let fsm = FsmBuilder::new()
            .output(Port::boolean("lamp"))
            .state("Off", |s| s.entry("lamp", Expr::Bool(false)))
            .state("On", |s| s.entry("lamp", Expr::Bool(true)))
            .transition(
                "Off",
                "On",
                Expr::var(gmdf_comdes::VAR_TIME_IN_STATE).ge(Expr::Real(0.002)),
            )
            .transition(
                "On",
                "Off",
                Expr::var(gmdf_comdes::VAR_TIME_IN_STATE).ge(Expr::Real(0.002)),
            )
            .build()
            .unwrap();
        let net = NetworkBuilder::new()
            .output(Port::boolean("lamp"))
            .state_machine("ctl", fsm)
            .connect("ctl.lamp", "lamp")
            .unwrap()
            .build()
            .unwrap();
        let actor = ActorBuilder::new("Blinker", net)
            .output("lamp", "lamp")
            .timing(Timing::periodic(1_000_000, 0))
            .build()
            .unwrap();
        let mut node = NodeSpec::new("ecu", 50_000_000);
        node.actors.push(actor);
        System::new("blink").with_node(node)
    }

    fn build(channel: ChannelMode, faults: Vec<gmdf_codegen::Fault>) -> DebugSession {
        let system = blinker_system();
        let (_, model) = gmdf_comdes::export_system(&system).unwrap();
        let gdm = comdes_gdm_default(&model, "blinker");
        DebugSession::build(
            system,
            gdm,
            channel,
            CompileOptions {
                instrument: InstrumentOptions::behavior(),
                faults,
            },
            SimConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn active_session_animates_states() {
        let mut s = build(ChannelMode::Active, vec![]);
        let report = s.run_for(20_000_000).unwrap();
        assert!(report.events_fed >= 4, "{report:?}");
        // Some state element is highlighted.
        let highlighted = s.engine().visual().iter().any(|(_, v)| v.highlighted);
        assert!(highlighted);
        assert!(!s.engine().trace().is_empty());
    }

    #[test]
    fn passive_session_sees_the_same_behavior() {
        let mut s = build(
            ChannelMode::Passive {
                poll_period_ns: 200_000,
                tck_hz: 10_000_000,
            },
            vec![],
        );
        let report = s.run_for(20_000_000).unwrap();
        assert!(report.events_fed >= 4, "{report:?}");
        let entries = s.engine().trace().entries();
        let states: Vec<&str> = entries
            .iter()
            .filter_map(|e| e.event.to.as_deref())
            .collect();
        assert!(states.contains(&"On"));
        assert!(states.contains(&"Off"));
    }

    #[test]
    fn clean_run_is_faithful_to_model() {
        let mut s = build(ChannelMode::Active, vec![]);
        for e in comdes_allowed_transitions(s.system()).unwrap() {
            s.engine_mut().add_expectation(e);
        }
        let report = s.run_for(20_000_000).unwrap();
        assert_eq!(report.violations, 0);
        let (class, divergence) = s.classify_against_model().unwrap();
        assert_eq!(class, BugClass::DesignError); // faithful ⇒ any bug would be design
        assert!(divergence.is_none());
    }

    #[test]
    fn injected_fault_is_classified_as_implementation_error() {
        let mut s = build(
            ChannelMode::Active,
            vec![gmdf_codegen::Fault::SwapTransitionTargets {
                block_path: "Blinker/ctl".into(),
            }],
        );
        for e in comdes_allowed_transitions(s.system()).unwrap() {
            s.engine_mut().add_expectation(e);
        }
        s.run_for(20_000_000).unwrap();
        let (class, divergence) = s.classify_against_model().unwrap();
        assert_eq!(class, BugClass::ImplementationError);
        assert!(divergence.is_some());
    }

    #[test]
    fn breakpoints_pause_the_view() {
        let mut s = build(ChannelMode::Active, vec![]);
        s.engine_mut().add_breakpoint(
            gmdf_gdm::CommandMatcher::kind(gmdf_gdm::EventKind::StateEnter),
            false,
        );
        let report = s.run_for(20_000_000).unwrap();
        assert!(report.breakpoint_hit);
        assert!(s.engine().pending() > 0);
        // Step through one queued command.
        let before = s.engine().pending();
        s.engine_mut().step().unwrap();
        assert_eq!(s.engine().pending(), before - 1);
    }

    #[test]
    fn slice_pumping_records_an_identical_trace() {
        let mut one_shot = build(ChannelMode::Active, vec![]);
        one_shot.run_for(20_000_000).unwrap();
        let mut sliced = build(ChannelMode::Active, vec![]);
        // Ragged slice sizes, including ones far below the UART frame
        // transmission time, so frames straddle slice boundaries.
        let mut k = 0usize;
        while sliced.now_ns() < 20_000_000 {
            let dt = [70_001, 333, 1_250_000, 13][k % 4].min(20_000_000 - sliced.now_ns());
            sliced.run_for(dt).unwrap();
            k += 1;
        }
        assert_eq!(
            one_shot.engine().trace().to_json(),
            sliced.engine().trace().to_json()
        );
    }

    #[test]
    fn unknown_stimulus_label_rejected() {
        let mut s = build(ChannelMode::Active, vec![]);
        assert!(s
            .schedule_signal(0, "ghost", SignalValue::Real(0.0))
            .is_err());
    }
}
