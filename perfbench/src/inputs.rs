//! The generated inputs: session specs, all derived from
//! the workload seed. The program under test only ever sees these.

use crate::stats::Rng;
use gmdf::{ChannelMode, SessionSpec, Workflow};
use gmdf_codegen::{CompileOptions, InstrumentOptions};
use gmdf_comdes::System;
use gmdf_target::SimConfig;

/// The dense ring: a 3-state FSM stepping every 50 µs that changes
/// state about every 150 µs, on a 10 MBd debug link. About 6.7k trace
/// entries per target second with the link about 15 % busy, so the
/// UART never backs up. Its clock jitter (below the period) is seeded,
/// so each seed gives a different trace of the same density.
pub fn dense_ring_system() -> System {
    gmdf_bench::ring_system(3, 1e-4, 50_000)
}

pub fn dense_ring_sim(seed: u64) -> SimConfig {
    SimConfig {
        uart_baud: 10_000_000,
        clock_jitter_ns: 5_000,
        seed,
        ..SimConfig::default()
    }
}

/// Derives the debug model and freezes the session recipe — the
/// user-facing set-up path (model export, abstraction, GDM derivation).
pub fn spec(system: System, sim: SimConfig) -> Result<SessionSpec, String> {
    Ok(Workflow::from_system(system)
        .map_err(|e| e.to_string())?
        .default_abstraction()
        .default_commands()
        .into_spec(
            ChannelMode::Active,
            CompileOptions {
                instrument: InstrumentOptions::behavior(),
                faults: vec![],
            },
            sim,
        ))
}

/// Per-session jitter seeds, drawn from the workload seed.
pub fn session_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}
