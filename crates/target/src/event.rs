//! Observable simulator events.

use gmdf_comdes::SignalValue;
use std::sync::Arc;

/// One entry of the simulator's event log — the platform-level record of
/// a run (kernel activity and signal-board traffic). Model-level command
/// traffic travels separately, over the UART byte stream or the JTAG
/// watch hits.
///
/// A simulator builds these only after
/// [`Simulator::record_events`](crate::Simulator::record_events) turned
/// its log on; with the log off (the default) no event is built at all.
///
/// Node, actor and publication-label names are interned `Arc<str>`s
/// shared with the simulator's boot-time name table: logging a release,
/// completion or publication costs reference-count bumps, not a
/// heap-allocated `String` per name. `Arc<str>` formats (`Debug` and
/// `Display`) exactly like `String`, so event-log comparisons are
/// unaffected.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// An environment stimulus was applied to the signal boards.
    Stimulus {
        /// Application time.
        time_ns: u64,
        /// Signal label written.
        label: String,
        /// Written value.
        value: SignalValue,
    },
    /// A task activation was released (inputs latched, step executed).
    Release {
        /// Release instant.
        time_ns: u64,
        /// Node name.
        node: Arc<str>,
        /// Actor task name.
        actor: Arc<str>,
    },
    /// A task activation finished consuming its CPU demand.
    Completion {
        /// Completion instant.
        time_ns: u64,
        /// Node name.
        node: Arc<str>,
        /// Actor task name.
        actor: Arc<str>,
        /// Completion minus release (the response time).
        response_ns: u64,
        /// Cycles the activation consumed.
        cycles: u64,
    },
    /// A task activation completed after its deadline.
    DeadlineMiss {
        /// Completion instant (when the miss became known).
        time_ns: u64,
        /// Node name.
        node: Arc<str>,
        /// Actor task name.
        actor: Arc<str>,
        /// How far past the deadline the activation ran.
        overrun_ns: u64,
    },
    /// An actor output was published to the signal boards.
    Publish {
        /// Publication instant: the deadline under output latching, the
        /// completion time otherwise.
        time_ns: u64,
        /// Producing node.
        node: Arc<str>,
        /// Producing actor.
        actor: Arc<str>,
        /// Signal label.
        label: Arc<str>,
        /// Published value.
        value: SignalValue,
    },
}

impl SimEvent {
    /// The event's timestamp.
    pub fn time_ns(&self) -> u64 {
        match self {
            SimEvent::Stimulus { time_ns, .. }
            | SimEvent::Release { time_ns, .. }
            | SimEvent::Completion { time_ns, .. }
            | SimEvent::DeadlineMiss { time_ns, .. }
            | SimEvent::Publish { time_ns, .. } => *time_ns,
        }
    }
}

/// A change of a watched cell, reported by the passive JTAG channel.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchEvent {
    /// Poll instant that observed the change.
    pub time_ns: u64,
    /// Node the cell lives on.
    pub node: String,
    /// Symbol-table name of the cell.
    pub symbol: String,
    /// The newly observed value.
    pub value: SignalValue,
}
