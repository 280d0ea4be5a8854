//! The runtime debugger engine.
//!
//! "A runtime engine first takes a debug model as input and displays it
//! graphically. Next, the engine implemented as an event-driven state
//! machine, waits for commands sent by the target embedded code. Once an
//! event arrives, it performs corresponding actions (e.g. an animation)
//! and other graphical model debugger functionalities" (paper §II).
//!
//! The engine is normally **Waiting**; each command transits through
//! *Reacting* (bindings applied, trace recorded, expectations checked)
//! and back. A matched **model-level breakpoint** moves it to **Paused**:
//! further commands queue, and the user steps through them one at a time
//! ("model-level step-wise execution and breakpoint functionality").

use crate::expect::{Expectation, ExpectationMonitor, Violation};
use crate::trace::ExecutionTrace;
use gmdf_gdm::{
    render_ascii, render_gdm, render_svg, CommandMatcher, DebuggerModel, ModelEvent, ReactionSpec,
    VisualState,
};
use gmdf_render::Scene;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Engine control state (the Fig. 3 machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineState {
    /// Listening for commands, reacting immediately.
    Waiting,
    /// Stopped at a breakpoint; commands queue until stepped/resumed.
    Paused,
}

/// A model-level breakpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Breakpoint {
    /// Events that trigger the pause.
    pub matcher: CommandMatcher,
    /// Remove the breakpoint after the first hit.
    pub one_shot: bool,
}

/// Result of feeding one command.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeedOutcome {
    /// `true` if the command was processed (false = queued while paused).
    pub processed: bool,
    /// `true` if a breakpoint was hit by this command.
    pub hit_breakpoint: bool,
    /// Number of expectation violations this command raised.
    pub violations: usize,
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Commands processed (not counting queued ones).
    pub events_processed: u64,
    /// Reactions applied.
    pub reactions_applied: u64,
    /// Breakpoint hits.
    pub breakpoint_hits: u64,
}

/// The graphical model debugger engine.
#[derive(Debug)]
pub struct DebuggerEngine {
    gdm: DebuggerModel,
    visual: VisualState,
    state: EngineState,
    breakpoints: Vec<Breakpoint>,
    monitors: Vec<ExpectationMonitor>,
    violations: Vec<Violation>,
    queue: VecDeque<ModelEvent>,
    trace: ExecutionTrace,
    stats: EngineStats,
    /// `(seq, time_ns)` of each breakpoint hit not yet taken by
    /// [`DebuggerEngine::take_breakpoint_hits`].
    hits: Vec<(u64, u64)>,
}

impl DebuggerEngine {
    /// Creates an engine displaying `gdm`, in the waiting state.
    pub fn new(gdm: DebuggerModel) -> Self {
        DebuggerEngine {
            gdm,
            visual: VisualState::new(),
            state: EngineState::Waiting,
            breakpoints: Vec::new(),
            monitors: Vec::new(),
            violations: Vec::new(),
            queue: VecDeque::new(),
            trace: ExecutionTrace::new(),
            stats: EngineStats::default(),
            hits: Vec::new(),
        }
    }

    /// The debug model being animated.
    pub fn gdm(&self) -> &DebuggerModel {
        &self.gdm
    }

    /// Current control state.
    pub fn state(&self) -> EngineState {
        self.state
    }

    /// Current animation state.
    pub fn visual(&self) -> &VisualState {
        &self.visual
    }

    /// The recorded trace.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// [`DebuggerEngine::set_trace_store_at`] with `0`: a non-empty
    /// store puts the trace in deterministic catch-up mode from the
    /// first command, which is how a session restored from time zero
    /// replays to its saved point.
    pub fn set_trace_store(&mut self, store: Box<dyn crate::store::TraceStore>) {
        self.set_trace_store_at(store, 0);
    }

    /// Attaches a trace backend ([`crate::store::TraceStore`]), e.g. a
    /// segmented on-disk store for a trace that must survive the
    /// process, with `next_seq` as the sequence number of the next
    /// recorded command. Re-fed commands below the store's length are
    /// dropped as deterministic catch-up: `0` re-derives the whole
    /// stored run, the trace position of a restored [`EngineCheckpoint`]
    /// only the rest, and `store.len()` nothing. The metrics sink set by
    /// [`DebuggerEngine::set_trace_metrics`] stays attached. See
    /// [`ExecutionTrace::attach`].
    pub fn set_trace_store_at(&mut self, store: Box<dyn crate::store::TraceStore>, next_seq: u64) {
        self.trace.attach(store, next_seq);
    }

    /// Attaches (or detaches) a metrics sink on the trace: store appends
    /// and range reads are timed into it from now on, across later
    /// [`DebuggerEngine::set_trace_store_at`] calls.
    pub fn set_trace_metrics(
        &mut self,
        metrics: Option<std::sync::Arc<crate::metrics::StoreMetrics>>,
    ) {
        self.trace.set_metrics(metrics);
    }

    /// Flushes the trace's backing store and surfaces any sticky
    /// storage failure — the debug server calls this after every
    /// pumped slice so a disk problem fails the session visibly
    /// instead of silently shortening the record.
    ///
    /// # Errors
    ///
    /// Propagates the store failure.
    pub fn sync_trace(&mut self) -> Result<(), crate::store::StoreError> {
        self.trace.sync()
    }

    /// Runs one bounded unit of trace-store maintenance (segment
    /// compression / retention eviction) — what the debug server's
    /// compactor thread calls off the pump path. A no-op on stores
    /// without a retention policy.
    ///
    /// # Errors
    ///
    /// Propagates the store failure.
    pub fn maintain_trace(
        &mut self,
    ) -> Result<crate::store::MaintenanceReport, crate::store::StoreError> {
        self.trace.maintain()
    }

    /// Violations recorded so far — the found bugs.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of commands waiting while paused.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Takes the breakpoint hits recorded since the last take, in
    /// order, as `(seq, time_ns)` of the command that hit: `seq`
    /// addresses its entry in [`DebuggerEngine::trace`]. A hit pauses
    /// the engine and a paused engine only queues, so the list holds at
    /// most one hit more than the [`DebuggerEngine::resume`] calls
    /// since the last take; [`DebuggerEngine::step`] never adds one.
    /// The list is not part of [`EngineCheckpoint`], and
    /// [`DebuggerEngine::restore_state`] leaves it as it is.
    pub fn take_breakpoint_hits(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.hits)
    }

    /// Installs a model-level breakpoint.
    pub fn add_breakpoint(&mut self, matcher: CommandMatcher, one_shot: bool) {
        self.breakpoints.push(Breakpoint { matcher, one_shot });
    }

    /// Removes all breakpoints.
    pub fn clear_breakpoints(&mut self) {
        self.breakpoints.clear();
    }

    /// Installs an expectation monitor.
    pub fn add_expectation(&mut self, e: Expectation) {
        self.monitors.push(ExpectationMonitor::new(e));
    }

    /// Feeds one command from the target. While paused, commands queue
    /// (the embedded system keeps running; the *view* is frozen).
    pub fn feed(&mut self, event: ModelEvent) -> FeedOutcome {
        if self.state == EngineState::Paused {
            self.queue.push_back(event);
            return FeedOutcome::default();
        }
        self.process(event)
    }

    /// While paused: processes exactly one queued command ("step-wise
    /// execution"). Returns `None` if nothing is queued or not paused.
    pub fn step(&mut self) -> Option<FeedOutcome> {
        if self.state != EngineState::Paused {
            return None;
        }
        let event = self.queue.pop_front()?;
        // A step processes even if it would re-hit a breakpoint; the
        // engine stays paused either way.
        let outcome = self.process_inner(event, false);
        Some(outcome)
    }

    /// Resumes: drains the queue until empty or a breakpoint hits again,
    /// then returns to waiting if fully drained.
    pub fn resume(&mut self) -> Vec<FeedOutcome> {
        let mut outcomes = Vec::new();
        self.state = EngineState::Waiting;
        while let Some(event) = self.queue.pop_front() {
            let o = self.process_inner(event, true);
            let hit = o.hit_breakpoint;
            outcomes.push(o);
            if hit {
                return outcomes;
            }
        }
        outcomes
    }

    fn process(&mut self, event: ModelEvent) -> FeedOutcome {
        self.process_inner(event, true)
    }

    fn process_inner(&mut self, event: ModelEvent, honor_breakpoints: bool) -> FeedOutcome {
        let mut reactions = Vec::new();
        for binding in &self.gdm.bindings {
            if binding.matcher.matches(&event) {
                apply_reaction(&self.gdm, &mut self.visual, binding.reaction, &event);
                reactions.push(binding.reaction);
            }
        }
        let mut violation_msgs = Vec::new();
        for m in &mut self.monitors {
            if let Some(v) = m.check(&event) {
                violation_msgs.push(v.to_string());
                self.violations.push(v);
            }
        }
        let mut hit = false;
        if honor_breakpoints {
            let mut fired: Option<usize> = None;
            for (i, bp) in self.breakpoints.iter().enumerate() {
                if bp.matcher.matches(&event) {
                    fired = Some(i);
                    break;
                }
            }
            if let Some(i) = fired {
                hit = true;
                self.stats.breakpoint_hits += 1;
                self.state = EngineState::Paused;
                if self.breakpoints[i].one_shot {
                    self.breakpoints.remove(i);
                }
            }
        }
        self.stats.events_processed += 1;
        self.stats.reactions_applied += reactions.len() as u64;
        let violations = violation_msgs.len();
        let time_ns = event.time_ns;
        let seq = self.trace.record(event, reactions, violation_msgs);
        if hit {
            self.hits.push((seq, time_ns));
        }
        FeedOutcome {
            processed: true,
            hit_breakpoint: hit,
            violations,
        }
    }

    /// Captures the engine's dynamic state for a checkpoint: animation
    /// state, control state, breakpoints, expectation-monitor cursors,
    /// recorded violations, the paused-command queue and the counters.
    /// The debug model and the trace are not included — the model is
    /// configuration (rebuilt from the spec) and the trace has its own
    /// store.
    pub fn save_state(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            visual: self.visual.clone(),
            state: self.state,
            breakpoints: self.breakpoints.clone(),
            monitors: self.monitors.clone(),
            violations: self.violations.clone(),
            queue: self.queue.clone(),
            stats: self.stats,
        }
    }

    /// Restores a checkpointed engine state (see
    /// [`DebuggerEngine::save_state`]). The trace backend is untouched —
    /// pair with [`DebuggerEngine::set_trace_store_at`] at the image's
    /// trace position.
    pub fn restore_state(&mut self, state: &EngineCheckpoint) {
        self.visual = state.visual.clone();
        self.state = state.state;
        self.breakpoints = state.breakpoints.clone();
        self.monitors = state.monitors.clone();
        self.violations = state.violations.clone();
        self.queue = state.queue.clone();
        self.stats = state.stats;
    }

    /// Renders the current animation frame as a scene.
    pub fn frame(&self) -> Scene {
        render_gdm(&self.gdm, &self.visual)
    }

    /// Renders the current frame as SVG.
    pub fn frame_svg(&self) -> String {
        render_svg(&self.gdm, &self.visual)
    }

    /// Renders the current frame as ASCII art.
    pub fn frame_ascii(&self) -> String {
        render_ascii(&self.gdm, &self.visual)
    }
}

/// Serializable dynamic state of a [`DebuggerEngine`] — the
/// engine-side half of a session checkpoint. Captures everything that
/// influences future trace entries (paused queue, breakpoints, monitor
/// cursors) plus the presentation state, so a restored engine is
/// indistinguishable from one that never stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    visual: VisualState,
    state: EngineState,
    breakpoints: Vec<Breakpoint>,
    monitors: Vec<ExpectationMonitor>,
    violations: Vec<Violation>,
    queue: VecDeque<ModelEvent>,
    stats: EngineStats,
}

/// Applies one reaction to the animation state — shared by the live
/// engine and the replayer so replays look identical.
pub fn apply_reaction(
    gdm: &DebuggerModel,
    visual: &mut VisualState,
    reaction: ReactionSpec,
    event: &ModelEvent,
) {
    match reaction {
        ReactionSpec::HighlightTarget | ReactionSpec::HighlightSelf => {
            let target = if reaction == ReactionSpec::HighlightTarget {
                event.target_path().unwrap_or_else(|| event.path.clone())
            } else {
                event.path.clone()
            };
            if gdm.element(&target).is_none() {
                return;
            }
            visual.entry(target.clone()).or_default().highlighted = true;
            visual.get_mut(&target).expect("just inserted").dimmed = false;
            for sibling in gdm.siblings(&target) {
                let v = visual.entry(sibling.to_owned()).or_default();
                v.highlighted = false;
                v.dimmed = true;
            }
        }
        ReactionSpec::ShowValue => {
            if let Some(v) = event.value {
                if gdm.element(&event.path).is_some() {
                    visual.entry(event.path.clone()).or_default().value_text = Some(v.to_string());
                }
            }
        }
        ReactionSpec::Pulse => {
            if gdm.element(&event.path).is_some() {
                let e = visual.entry(event.path.clone()).or_default();
                e.pulses = e.pulses.saturating_add(1);
            }
        }
        ReactionSpec::RecordOnly => {}
    }
    // Touch the map so a visual exists for the event path even for
    // record-only events (keeps replay deterministic).
    let _ = visual.entry(event.path.clone()).or_default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdf_gdm::{default_bindings, EventKind, EventValue, GdmEdge, GdmElement, GdmPattern};
    use gmdf_render::Rect;

    fn sample_gdm() -> DebuggerModel {
        let mut m = DebuggerModel::new("demo");
        m.bindings = default_bindings();
        m.elements.push(GdmElement {
            path: "A".into(),
            label: "A".into(),
            metaclass: "Actor".into(),
            pattern: GdmPattern::Rectangle,
            parent: None,
            bounds: Rect::new(0.0, 0.0, 500.0, 300.0),
        });
        m.elements.push(GdmElement {
            path: "A/fsm".into(),
            label: "fsm".into(),
            metaclass: "StateMachineBlock".into(),
            pattern: GdmPattern::RoundedRectangle,
            parent: Some(0),
            bounds: Rect::new(20.0, 40.0, 440.0, 220.0),
        });
        for (i, s) in ["Idle", "Run", "Error"].iter().enumerate() {
            m.elements.push(GdmElement {
                path: format!("A/fsm/{s}"),
                label: (*s).into(),
                metaclass: "State".into(),
                pattern: GdmPattern::Circle,
                parent: Some(1),
                bounds: Rect::new(40.0 + 140.0 * i as f64, 80.0, 110.0, 46.0),
            });
        }
        m.edges.push(GdmEdge {
            from: "A/fsm/Idle".into(),
            to: "A/fsm/Run".into(),
            label: None,
            metaclass: "Transition".into(),
        });
        m
    }

    fn enter(t: u64, to: &str) -> ModelEvent {
        ModelEvent::new(t, EventKind::StateEnter, "A/fsm")
            .with_from("Idle")
            .with_to(to)
    }

    #[test]
    fn highlight_moves_with_state_entries() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.feed(enter(10, "Run"));
        assert!(e.visual()["A/fsm/Run"].highlighted);
        e.feed(enter(20, "Error"));
        assert!(e.visual()["A/fsm/Error"].highlighted);
        assert!(!e.visual()["A/fsm/Run"].highlighted);
        assert!(e.visual()["A/fsm/Run"].dimmed);
        assert_eq!(e.stats().events_processed, 2);
        assert_eq!(e.trace().len(), 2);
    }

    #[test]
    fn show_value_updates_label() {
        let mut gdm = sample_gdm();
        gdm.elements.push(GdmElement {
            path: "A/out/u".into(),
            label: "u".into(),
            metaclass: "SignalPort".into(),
            pattern: GdmPattern::Triangle,
            parent: Some(0),
            bounds: Rect::new(40.0, 200.0, 110.0, 46.0),
        });
        let mut e = DebuggerEngine::new(gdm);
        e.feed(
            ModelEvent::new(5, EventKind::SignalWrite, "A/out/u").with_value(EventValue::Real(2.5)),
        );
        assert_eq!(
            e.visual()["A/out/u"].value_text.as_deref(),
            Some("2.500000")
        );
        let svg = e.frame_svg();
        assert!(svg.contains("u = 2.5"));
    }

    #[test]
    fn breakpoint_pauses_and_queues() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_breakpoint(
            CommandMatcher::kind(EventKind::StateEnter).under("A/fsm"),
            false,
        );
        let o = e.feed(enter(1, "Run"));
        assert!(o.processed && o.hit_breakpoint);
        assert_eq!(e.state(), EngineState::Paused);
        // Further commands queue; the view is frozen on Run.
        let o2 = e.feed(enter(2, "Error"));
        assert!(!o2.processed);
        assert_eq!(e.pending(), 1);
        assert!(e.visual()["A/fsm/Run"].highlighted);
        // Error was dimmed as a sibling but NOT highlighted — the queued
        // command has not been applied.
        assert!(!e.visual()["A/fsm/Error"].highlighted);
    }

    #[test]
    fn step_processes_one_queued_command() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), false);
        e.feed(enter(1, "Run"));
        e.feed(enter(2, "Error"));
        e.feed(enter(3, "Idle"));
        assert_eq!(e.pending(), 2);
        let o = e.step().unwrap();
        assert!(o.processed);
        assert_eq!(e.pending(), 1);
        assert!(e.visual()["A/fsm/Error"].highlighted);
        assert_eq!(e.state(), EngineState::Paused); // stepping keeps it paused
    }

    #[test]
    fn resume_drains_until_next_breakpoint() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_breakpoint(
            CommandMatcher::kind(EventKind::StateEnter).under("A/fsm"),
            false,
        );
        e.feed(enter(1, "Run")); // pauses
        e.feed(enter(2, "Error"));
        e.feed(enter(3, "Idle"));
        let outcomes = e.resume();
        // First queued command re-hits the breakpoint immediately.
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].hit_breakpoint);
        assert_eq!(e.state(), EngineState::Paused);
        assert_eq!(e.pending(), 1);
        // Without breakpoints, resume drains fully.
        e.clear_breakpoints();
        let outcomes = e.resume();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(e.state(), EngineState::Waiting);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn one_shot_breakpoint_fires_once() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true);
        assert!(e.feed(enter(1, "Run")).hit_breakpoint);
        e.resume();
        assert!(!e.feed(enter(2, "Error")).hit_breakpoint);
        assert_eq!(e.stats().breakpoint_hits, 1);
    }

    #[test]
    fn expectations_record_violations() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_expectation(Expectation::AllowedTransitions {
            fsm_path: "A/fsm".into(),
            allowed: [("Idle".to_owned(), "Run".to_owned())]
                .into_iter()
                .collect(),
        });
        assert_eq!(e.feed(enter(1, "Run")).violations, 0);
        let o = e.feed(enter(2, "Error"));
        assert_eq!(o.violations, 1);
        assert_eq!(e.violations().len(), 1);
        assert!(e.trace().entries()[1].violations[0].contains("not in the model"));
    }

    #[test]
    fn frame_renders_current_animation() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.feed(enter(1, "Run"));
        let art = e.frame_ascii();
        assert!(art.contains("Run"));
        let scene = e.frame();
        assert!(scene.find("A/fsm/Run").is_some());
    }

    #[test]
    fn breakpoint_hits_are_kept_until_taken() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), false);
        e.feed(enter(1, "Run")); // processed, hits breakpoint
        e.feed(enter(2, "Error")); // queued while paused
        e.feed(enter(3, "Idle"));
        // Steps don't honor breakpoints, so stepping adds no hit.
        e.step().unwrap();
        // The resume re-hits on the next queued command.
        e.resume();
        assert_eq!(e.take_breakpoint_hits(), vec![(0, 1), (2, 3)]);
        assert_eq!(e.trace().get(2).unwrap().event.time_ns, 3);
        assert!(e.take_breakpoint_hits().is_empty());
    }

    #[test]
    fn a_metrics_sink_outlives_a_store_attach() {
        let metrics = std::sync::Arc::new(crate::metrics::StoreMetrics::default());
        let mut e = DebuggerEngine::new(sample_gdm());
        e.set_trace_metrics(Some(std::sync::Arc::clone(&metrics)));
        e.feed(enter(1, "Run"));
        let stored = e.trace().entries();
        e.set_trace_store_at(Box::new(crate::store::MemStore::from_entries(stored)), 1);
        e.feed(enter(2, "Error"));
        assert_eq!(e.trace().len(), 2);
        assert_eq!(
            metrics.appends.get(),
            2,
            "the append after the attach is timed"
        );
        assert_eq!(metrics.append_ns.count(), 2);
    }

    #[test]
    fn unknown_target_paths_are_tolerated() {
        let mut e = DebuggerEngine::new(sample_gdm());
        let o = e.feed(ModelEvent::new(1, EventKind::StateEnter, "Ghost/fsm").with_to("Nowhere"));
        assert!(o.processed);
        assert!(!e.visual().contains_key("Ghost/fsm/Nowhere"));
    }
}
