//! Serializable session specifications.
//!
//! A [`SessionSpec`] is everything needed to (re)build a
//! [`DebugSession`] from nothing: the input system, the derived debug
//! model, the channel mode, and the compile/simulator options. Because
//! the simulator and the code generator are fully deterministic, a spec
//! plus the journal of applied commands *is* the session — the debug
//! server persists exactly this pair to recreate hosted sessions after
//! a restart.

use crate::session::{ChannelMode, DebugSession, SessionError};
use gmdf_codegen::CompileOptions;
use gmdf_comdes::System;
use gmdf_gdm::DebuggerModel;
use gmdf_target::SimConfig;
use serde::{Deserialize, Serialize};

/// A complete, serializable recipe for one debug session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSpec {
    /// The COMDES input system (steps 1–2 of the workflow).
    pub system: System,
    /// The derived, laid-out debug model (steps 3–4).
    pub gdm: DebuggerModel,
    /// The command interface (step 5).
    pub channel: ChannelMode,
    /// Code-generation options (instrumentation, injected faults).
    pub compile: CompileOptions,
    /// Target simulator configuration.
    pub sim: SimConfig,
}

impl SessionSpec {
    /// Builds a fresh session from the spec — compiling the system,
    /// booting the simulator and connecting the channel, exactly like
    /// [`DebugSession::build`].
    ///
    /// # Errors
    ///
    /// Propagates model, compile and simulator errors.
    pub fn build(&self) -> Result<DebugSession, SessionError> {
        DebugSession::build(
            self.system.clone(),
            self.gdm.clone(),
            self.channel,
            self.compile.clone(),
            self.sim,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workflow;
    use gmdf_codegen::InstrumentOptions;
    use gmdf_comdes::{ActorBuilder, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, Timing};

    fn spec() -> SessionSpec {
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
        let system = System::new("blink").with_node(node);
        Workflow::from_system(system)
            .unwrap()
            .default_abstraction()
            .default_commands()
            .into_spec(
                ChannelMode::Active,
                CompileOptions {
                    instrument: InstrumentOptions::behavior(),
                    faults: vec![],
                },
                SimConfig::default(),
            )
    }

    #[test]
    fn spec_round_trips_and_rebuilds_identically() {
        let spec = spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: SessionSpec = serde_json::from_str(&json).unwrap();
        // Two sessions built from the round-tripped spec record
        // byte-identical traces — the determinism the debug server's
        // restore path rests on.
        let mut a = spec.build().unwrap();
        let mut b = back.build().unwrap();
        a.run_for(10_000_000).unwrap();
        b.run_for(10_000_000).unwrap();
        assert_eq!(a.engine().trace().to_json(), b.engine().trace().to_json());
        assert!(!a.engine().trace().is_empty());
    }

    /// A session's record of the run is its execution trace: the
    /// simulator it builds keeps no event log, neither while it runs
    /// nor after a checkpoint restore.
    #[test]
    fn built_sessions_keep_no_simulator_event_log() {
        let spec = spec();
        let mut session = spec.build().unwrap();
        session.run_for(10_000_000).unwrap();
        assert!(!session.engine().trace().is_empty());
        assert!(session.simulator().events().is_empty());

        let checkpoint = session.save_state();
        let mut restored = spec.build().unwrap();
        restored.restore_state(&checkpoint).unwrap();
        restored.run_for(10_000_000).unwrap();
        assert!(restored.now_ns() > checkpoint.t_ns());
        assert!(restored.simulator().events().is_empty());
    }
}
