//! # gmdf-target — the embedded target simulator
//!
//! The paper's runtime debugging loop needs a *target side*: generated
//! code executing on an embedded board that either actively "sends
//! specific commands (events) at particular points of execution" over
//! RS-232, or is observed passively through JTAG watchpoints with zero
//! target overhead (paper §II). This crate is that board, simulated
//! deterministically:
//!
//! * [`Simulator`] — a multi-node execution platform for the
//!   [`ProgramImage`](gmdf_codegen::ProgramImage)s produced by
//!   `gmdf_codegen`. Each node runs a periodic-task kernel in the
//!   *Distributed Timed Multitasking* style: task inputs are latched at
//!   release instants, task code executes under preemptive fixed-priority
//!   scheduling with cycle-accurate costs, and outputs are published at
//!   deadline instants (eliminating I/O jitter) or, optionally, at
//!   completion time ([`SimConfig::latch_outputs`]).
//! * An RS-232 **UART model** per node: `Emit` instructions woven in by
//!   the code generator become command [`Frame`](gmdf_codegen::Frame)s
//!   serialized at a configurable baud rate; [`Simulator::uart_take`]
//!   yields the timestamped byte stream the active channel decodes.
//! * [`JtagMonitor`] — an IEEE 1149.1-style watch unit that polls
//!   *monitored variables* (symbol-table cells) on a TAP clock budget and
//!   reports [`WatchEvent`]s, without adding a single target cycle.
//!
//! Everything is deterministic: the same image and [`SimConfig`] produce
//! the same byte stream, watch hits and (for a caller that turned it on
//! with [`Simulator::record_events`]) [`SimEvent`] log on every run —
//! the property replay-based debugging depends on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calendar;
mod config;
mod error;
mod event;
mod jtag;
mod memo;
mod sim;

pub use config::{DispatchMode, SimConfig};
pub use error::SimError;
pub use event::{SimEvent, WatchEvent};
pub use jtag::{JtagMonitor, JtagState};
pub use sim::{cycles_to_ns, SimState, Simulator};
