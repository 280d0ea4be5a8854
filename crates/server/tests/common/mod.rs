//! Shared builders for the server test suites: small COMDES systems,
//! fully wired debug sessions and their specs, and self-removing temp
//! directories for durable sessions.
// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use gmdf::{ChannelMode, DebugSession, SessionSpec, Workflow};
use gmdf_codegen::{CompileOptions, InstrumentOptions};
use gmdf_comdes::{
    ActorBuilder, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, System, Timing,
    VAR_TIME_IN_STATE,
};
use gmdf_target::SimConfig;
use std::ffi::OsStr;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A two-state blinker dwelling `dwell_s` seconds per state.
pub fn blinker_system(name: &str, dwell_s: f64, period_ns: u64) -> System {
    let fsm = FsmBuilder::new()
        .output(Port::boolean("lamp"))
        .state("Off", |s| s.entry("lamp", Expr::Bool(false)))
        .state("On", |s| s.entry("lamp", Expr::Bool(true)))
        .transition(
            "Off",
            "On",
            Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(dwell_s)),
        )
        .transition(
            "On",
            "Off",
            Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(dwell_s)),
        )
        .build()
        .expect("blinker fsm");
    let net = NetworkBuilder::new()
        .output(Port::boolean("lamp"))
        .state_machine("ctl", fsm)
        .connect("ctl.lamp", "lamp")
        .expect("endpoint")
        .build()
        .expect("blinker net");
    let actor = ActorBuilder::new("Blinker", net)
        .output("lamp", "lamp")
        .timing(Timing::periodic(period_ns, 0))
        .build()
        .expect("blinker actor");
    let mut node = NodeSpec::new("ecu", 50_000_000);
    node.actors.push(actor);
    System::new(name).with_node(node)
}

/// A ring state machine with `n_states` states — a noisier workload for
/// sibling sessions.
pub fn ring_system(name: &str, n_states: usize, dwell_s: f64, period_ns: u64) -> System {
    let mut fb = FsmBuilder::new().output(Port::int("s"));
    for i in 0..n_states {
        fb = fb.state(&format!("S{i}"), |st| st.entry("s", Expr::Int(i as i64)));
    }
    for i in 0..n_states {
        fb = fb.transition(
            &format!("S{i}"),
            &format!("S{}", (i + 1) % n_states),
            Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(dwell_s)),
        );
    }
    let fsm = fb.initial("S0").build().expect("ring fsm");
    let net = NetworkBuilder::new()
        .output(Port::int("s"))
        .state_machine("ring", fsm)
        .connect("ring.s", "s")
        .expect("endpoint")
        .build()
        .expect("ring net");
    let actor = ActorBuilder::new("Ring", net)
        .output("s", "state_sig")
        .timing(Timing::periodic(period_ns, 0))
        .build()
        .expect("ring actor");
    let mut node = NodeSpec::new("ecu", 50_000_000);
    node.actors.push(actor);
    System::new(name).with_node(node)
}

/// Wires `system` into an active-channel session with behavior-level
/// instrumentation — the standard subject for determinism checks.
pub fn active_session(system: System) -> DebugSession {
    Workflow::from_system(system)
        .expect("valid system")
        .default_abstraction()
        .default_commands()
        .connect(
            ChannelMode::Active,
            CompileOptions {
                instrument: InstrumentOptions::behavior(),
                faults: vec![],
            },
            SimConfig::default(),
        )
        .expect("session boots")
}

/// The spec of `system` as an active-channel session with
/// behavior-level instrumentation — what [`active_session`] builds, in
/// the form a durable session is registered from.
pub fn spec_of(system: System) -> SessionSpec {
    Workflow::from_system(system)
        .expect("valid system")
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

/// A directory path under the system temp dir, unique to this suite,
/// `tag`, process and call. The directory itself is created by whoever
/// writes to it. Dropping the guard removes it, also when the test
/// panics, so a failing run leaves nothing behind.
pub struct TempRoot(PathBuf);

/// A fresh [`TempRoot`] named `gmdf-<suite>-<tag>-<pid>-<n>-<nanos>`.
pub fn tmp_root(tag: &str) -> TempRoot {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    TempRoot(std::env::temp_dir().join(format!(
        "gmdf-{}-{tag}-{}-{n}-{nanos}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    )))
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Deref for TempRoot {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempRoot {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

/// Lets `&TempRoot` convert into a `PathBuf` (as in
/// `PersistConfig::new(&root)`), as `&PathBuf` does.
impl AsRef<OsStr> for TempRoot {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}
