//! Durable sessions: a debug server that survives its own restart.
//!
//! Run with `cargo run --example durable_session`.
//!
//! Boots a *persistent* `DebugServer`, hosts a durable blinker session
//! (spec + command journal + segmented on-disk trace under a registry
//! directory), pumps part of a run, then **drops the server mid-run**
//! — the simulated crash. A second server started over the same
//! registry recreates the session from its newest checkpoint image
//! (here the run is shorter than one checkpoint interval, so there is
//! none and the same code replays from t=0), deterministically replays
//! the commands journaled after it, finishes the outstanding run
//! budget, and serves the full trace — byte-identical to what an
//! uninterrupted run would have recorded. Historical entries are paged
//! from disk with `ReplayFrom`, the way a remote frontend backfills
//! after a restart.

use gmdf::{ChannelMode, SessionSpec, Workflow};
use gmdf_codegen::{CompileOptions, InstrumentOptions};
use gmdf_comdes::{
    ActorBuilder, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, System, Timing,
    VAR_TIME_IN_STATE,
};
use gmdf_server::{DebugServer, PersistConfig, ServerConfig, SessionId};
use gmdf_target::SimConfig;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

fn blinker(name: &str) -> Result<System, gmdf_comdes::ComdesError> {
    let fsm = FsmBuilder::new()
        .output(Port::boolean("lamp"))
        .state("Off", |s| s.entry("lamp", Expr::Bool(false)))
        .state("On", |s| s.entry("lamp", Expr::Bool(true)))
        .transition(
            "Off",
            "On",
            Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(0.002)),
        )
        .transition(
            "On",
            "Off",
            Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(0.002)),
        )
        .build()?;
    let net = NetworkBuilder::new()
        .output(Port::boolean("lamp"))
        .state_machine("ctl", fsm)
        .connect("ctl.lamp", "lamp")?
        .build()?;
    let actor = ActorBuilder::new("Blinker", net)
        .output("lamp", "lamp")
        .timing(Timing::periodic(1_000_000, 0))
        .build()?;
    let mut node = NodeSpec::new("ecu", 50_000_000);
    node.actors.push(actor);
    Ok(System::new(name).with_node(node))
}

fn spec() -> Result<SessionSpec, Box<dyn std::error::Error>> {
    Ok(Workflow::from_system(blinker("durable-blink")?)?
        .default_abstraction()
        .default_commands()
        .into_spec(
            ChannelMode::Active,
            CompileOptions {
                instrument: InstrumentOptions::behavior(),
                faults: vec![],
            },
            SimConfig::default(),
        ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("gmdf-durable-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();

    // -- first life: host a durable session, die mid-run -------------------
    let id: SessionId = {
        let server =
            DebugServer::start_persistent(ServerConfig::default(), PersistConfig::new(&root))?;
        let handle = server.add_durable_session(&spec()?)?;
        println!(
            "[life 1] durable session {} under {}",
            handle.id(),
            root.display()
        );

        handle.run_for(10_000_000)?; // 10 ms of target time
        handle.wait_idle(WAIT)?;
        let snap = handle.stats(WAIT)?;
        println!(
            "[life 1] pumped to {} ms, trace length {}",
            snap.now_ns / 1_000_000,
            snap.trace_len
        );

        // Grant 20 ms more — then drop the server with the budget
        // outstanding: the crash. The stats barrier round-trips the
        // mailbox behind the RunFor, so the journal holds the command
        // before the kill; the trace segments hold everything pumped
        // so far.
        handle.run_for(20_000_000)?;
        handle.stats(WAIT)?;
        println!("[life 1] killed mid-run with ~20 ms of budget outstanding");
        handle.id()
        // server dropped here
    };

    // -- second life: restart over the same registry ------------------------
    let server = DebugServer::start_persistent(ServerConfig::default(), PersistConfig::new(&root))?;
    println!("[life 2] restored sessions: {:?}", server.session_ids());
    let handle = server.handle(id).expect("session restored");
    handle.wait_idle(WAIT)?; // the scheduler finishes the journaled budget
    let snap = handle.snapshot(WAIT)?;
    println!(
        "[life 2] run complete at {} ms, trace length {}, violations {}",
        snap.now_ns / 1_000_000,
        snap.trace_len,
        snap.violations
    );
    assert_eq!(snap.now_ns, 30_000_000, "full 30 ms horizon finished");
    assert_eq!(snap.remaining_ns, 0);

    // Page the historical trace from disk, the way a re-attaching
    // frontend backfills its view.
    let mut entries = 0u64;
    let mut next = 0u64;
    let mut pages = 0u32;
    loop {
        let slice = handle.replay_from(next, 16, WAIT)?;
        entries += slice.entries.len() as u64;
        next += slice.entries.len() as u64;
        pages += 1;
        if slice.complete {
            break;
        }
    }
    println!("[life 2] backfilled {entries} entries in {pages} pages of ≤16");
    assert_eq!(entries as usize, snap.trace_len);

    drop(server);
    std::fs::remove_dir_all(&root).ok();
    println!("done: the restart is invisible in the record.");
    Ok(())
}
