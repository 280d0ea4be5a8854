//! # gmdf — the Graphical Model Debugger Framework
//!
//! Rust reproduction of *"Graphical Model Debugger Framework for Embedded
//! Systems"* (Zeng, Guo, Angelov — DATE 2010): debug embedded design
//! models **at runtime**, by executing generated code on the (simulated)
//! target while animating the model in the debugger.
//!
//! The facade ties the substrate crates together:
//!
//! | paper part | crate |
//! |---|---|
//! | MOF/EMF metamodeling | [`gmdf_metamodel`] |
//! | COMDES input language + reference interpreter | [`gmdf_comdes`] |
//! | model transformation / command interface | [`gmdf_codegen`] |
//! | embedded target (kernel, RS-232, JTAG) | [`gmdf_target`] |
//! | GDM + abstraction (Figs. 3–4) | [`gmdf_gdm`] |
//! | runtime engine, trace, replay | [`gmdf_engine`] |
//! | canvas + timing diagrams | `gmdf-render` |
//!
//! The [`Workflow`] type walks the five steps of paper Fig. 6 and ends in
//! a live [`DebugSession`]:
//!
//! ```
//! use gmdf::{ChannelMode, Workflow};
//! use gmdf_codegen::CompileOptions;
//! use gmdf_comdes::{ActorBuilder, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port,
//!                   System, Timing, VAR_TIME_IN_STATE};
//! use gmdf_target::SimConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Model a blinking lamp (steps 1–2 feed on a COMDES system).
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
//! let system = System::new("blink").with_node(node);
//!
//! // Steps 3–5: abstraction, command settings, GDM + channel.
//! let mut session = Workflow::from_system(system)?
//!     .default_abstraction()
//!     .default_commands()
//!     .connect(ChannelMode::Active, CompileOptions::default(), SimConfig::default())?;
//!
//! session.run_for(10_000_000)?;
//! assert!(session.engine().trace().len() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod presets;
mod session;
mod spec;
mod workflow;

pub use channel::{to_event_value, ActiveChannel, PassiveChannel};
pub use presets::{comdes_abstraction, comdes_allowed_transitions, comdes_gdm, comdes_gdm_default};
pub use session::{
    ChannelMode, DebugSession, Mutation, RunReport, SessionCheckpoint, SessionError,
};
pub use spec::SessionSpec;
pub use workflow::{Workflow, WorkflowConfigured, WorkflowMapped};

use gmdf_comdes::BehaviorEvent;
use gmdf_gdm::{EventKind, ModelEvent};

/// Converts a reference-interpreter behaviour event into the debugger's
/// event vocabulary (used to build reference streams for bug
/// classification).
pub fn behavior_to_model_event(time_ns: u64, be: &BehaviorEvent) -> ModelEvent {
    match be {
        BehaviorEvent::StateEnter {
            block_path,
            from,
            to,
        } => ModelEvent::new(time_ns, EventKind::StateEnter, block_path)
            .with_from(from)
            .with_to(to),
        BehaviorEvent::ModeSwitch {
            block_path,
            from,
            to,
        } => ModelEvent::new(time_ns, EventKind::ModeSwitch, block_path)
            .with_from(from)
            .with_to(to),
    }
}
