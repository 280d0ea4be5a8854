//! Time travel: `SeekTo` / `StepBack` / `ReplayWindow` over a durable
//! session.
//!
//! Run with `cargo run --example time_travel`.
//!
//! Boots a persistent `DebugServer` that writes a full-state checkpoint
//! every 16 trace entries, hosts a durable blinker session, pumps part
//! of a run and **drops the server mid-run** — the simulated crash. The
//! second life restores the session from its newest checkpoint image,
//! finishes the outstanding budget, and then travels backwards through
//! the finished history:
//!
//! * `seek_to(t)` restores the nearest checkpoint at or before `t` and
//!   deterministically replays forward — O(checkpoint interval), not
//!   O(trace length);
//! * `step_back(k)` rewinds `k` trace entries the same way;
//! * `replay_window(t0, t1)` regenerates a time window even when the
//!   live store no longer holds it.
//!
//! The live session is never touched: every seek runs in a detached
//! replica, and the checkpoint is only an accelerator — the journal
//! stays the single source of truth.

use gmdf::{ChannelMode, SessionSpec, Workflow};
use gmdf_codegen::{CompileOptions, InstrumentOptions};
use gmdf_comdes::{
    ActorBuilder, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, System, Timing,
    VAR_TIME_IN_STATE,
};
use gmdf_engine::CheckpointStore;
use gmdf_server::{DebugServer, PersistConfig, ServerConfig, SessionId};
use gmdf_target::SimConfig;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

/// Checkpoint every 16 entries — small, so even this short demo run
/// writes several images and the seeks below genuinely restore one.
const CKPT_INTERVAL: u64 = 16;

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
    Ok(Workflow::from_system(blinker("time-travel-blink")?)?
        .default_abstraction()
        .default_commands()
        .into_spec(
            ChannelMode::Active,
            CompileOptions {
                instrument: InstrumentOptions::behavior(),
                faults: vec![],
            },
            // The default 115200-baud UART cannot carry this event rate;
            // a faster link keeps the node's TX queue (and therefore the
            // checkpoint images) small.
            SimConfig {
                uart_baud: 1_000_000,
                ..SimConfig::default()
            },
        ))
}

fn persist(root: &std::path::Path) -> PersistConfig {
    PersistConfig::new(root).with_checkpoint_interval(CKPT_INTERVAL)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("gmdf-time-travel-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();

    // -- first life: run, checkpoint, die mid-run ---------------------------
    let id: SessionId = {
        let server = DebugServer::start_persistent(ServerConfig::default(), persist(&root))?;
        let handle = server.add_durable_session(&spec()?)?;
        handle.run_for(250_000_000)?; // 250 ms of target time
        handle.wait_idle(WAIT)?;
        let snap = handle.stats(WAIT)?;
        println!(
            "[life 1] pumped to {} ms, trace length {} (checkpoint every {CKPT_INTERVAL} entries)",
            snap.now_ns / 1_000_000,
            snap.trace_len
        );
        // Grant more budget, then drop the server with it outstanding:
        // the crash. The stats barrier makes sure the journal holds the
        // command before the kill.
        handle.run_for(60_000_000)?;
        handle.stats(WAIT)?;
        println!("[life 1] killed mid-run with ~60 ms of budget outstanding");
        handle.id()
        // Server dropped here; registry + checkpoints stay on disk.
    };

    let ckpt_dir = root
        .join("sessions")
        .join(format!("{id:016}"))
        .join("checkpoints");
    let images = CheckpointStore::open(&ckpt_dir)?.len();
    println!(
        "[disk]   {images} checkpoint image(s) under {}",
        ckpt_dir.display()
    );
    assert!(images >= 2, "demo run should span several intervals");

    // -- second life: restore, finish, then travel backwards ----------------
    let server = DebugServer::start_persistent(ServerConfig::default(), persist(&root))?;
    let restores = server.metrics_snapshot().fleet.checkpoint_restores;
    println!("[life 2] restored from {restores} checkpoint image(s)");
    assert_eq!(restores, 1, "the restart should restore the newest image");
    let handle = server.handle(id).expect("session restored");
    handle.wait_idle(WAIT)?; // the outstanding 60 ms
    let snap = handle.snapshot(WAIT)?;
    println!(
        "[life 2] run complete at {} ms, trace length {}",
        snap.now_ns / 1_000_000,
        snap.trace_len
    );

    // Seek to the middle of the finished history.
    let seek = handle.seek_to(snap.now_ns / 2, false, WAIT)?;
    println!(
        "[seek]   t={} ms via checkpoint seq {:?} (t={:?} ms): replayed {} of {} entries",
        seek.target_ns / 1_000_000,
        seek.checkpoint_seq,
        seek.checkpoint_t_ns.map(|t| t / 1_000_000),
        seek.replayed_entries,
        seek.trace_len,
    );
    assert!(
        seek.checkpoint_seq.is_some(),
        "mid-trace seek restores an image"
    );
    assert!(
        seek.replayed_entries < seek.trace_len,
        "the whole point: replay O(interval), not O(trace)"
    );

    // Step back a handful of entries from the end.
    let back = handle.step_back(8, false, WAIT)?;
    println!(
        "[back]   8 entries back lands at t={} ms (trace length {})",
        back.target_ns / 1_000_000,
        back.trace_len
    );

    // Regenerate a window around the seek target and inspect it.
    let t0 = seek.target_ns.saturating_sub(5_000_000);
    let window = handle.replay_window(t0, seek.target_ns, WAIT)?;
    println!(
        "[window] [{}..{}] ms regenerated {} entries:",
        t0 / 1_000_000,
        seek.target_ns / 1_000_000,
        window.entries.len()
    );
    for entry in window.entries.iter().take(4) {
        let e = &entry.event;
        println!(
            "         #{:>4} {:>9} ns {:?} {}{}",
            entry.seq,
            e.time_ns,
            e.kind,
            e.path,
            e.to.as_deref()
                .map(|s| format!(" -> {s}"))
                .unwrap_or_default(),
        );
    }

    drop(server);
    std::fs::remove_dir_all(&root).ok();
    println!("done: stepping backwards costs one checkpoint interval, not the whole trace.");
    Ok(())
}
