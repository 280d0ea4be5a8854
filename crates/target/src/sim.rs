//! The multi-node target simulator: periodic-task kernel, preemptive
//! fixed-priority CPUs, signal-board network, and per-node UART.
//!
//! ## Execution model
//!
//! The kernel follows Distributed Timed Multitasking:
//!
//! * at a task's **release** instant the kernel latches the task's inputs
//!   from the node's signal board and the task's step becomes ready;
//! * the step's *data effect* is computed atomically at release (the
//!   generated code touches only task-private cells, so this matches the
//!   reference interpreter bit for bit), while its *CPU demand* — the
//!   cycle count the VM reports — is scheduled on the node's processor
//!   under preemptive fixed-priority scheduling;
//! * command frames emitted by the code surface on the UART at the
//!   wall-clock instant their `Emit` instruction retires under that
//!   schedule;
//! * at the **deadline** instant the kernel publishes the latched outputs
//!   to the signal boards (or at completion time when
//!   [`SimConfig::latch_outputs`] is off).
//!
//! Simultaneous timeline events process in the interpreter's order —
//! stimuli, then network deliveries, then deadline publications, then
//! releases — each tie broken by node and task declaration order, which
//! makes every run bit-reproducible.
//!
//! ## Dispatch and the event calendar
//!
//! Finding "the earliest pending instant" is the hot loop's core
//! question. Two interchangeable answers exist
//! ([`SimConfig::dispatch`]):
//!
//! * [`DispatchMode::Calendar`] (default) — an indexed event calendar
//!   ([`crate::calendar`]): a priority queue over armed releases, queued
//!   deadline publications and projected CPU completions, plus a
//!   per-node runnable-job index. O(log n) per event.
//! * [`DispatchMode::LegacyScan`] — the original full rescan of every
//!   node and task. O(nodes × tasks) per event; kept as the reference
//!   oracle the property tests compare the calendar against.
//!
//! Independent of dispatch, [`SimConfig::memo_steps`] memoizes task-step
//! execution ([`crate::memo`]): a release whose VM-visible footprint
//! matches a previous activation replays the cached effect instead of
//! re-running the VM. Both knobs are bit-for-bit exact — they never
//! change the UART stream, any data cell, or the event log of a
//! simulator that records one.
//!
//! ## The event log
//!
//! A simulator keeps no [`SimEvent`] log until its caller turns one on
//! with [`Simulator::record_events`]. Nothing in the kernel reads the
//! log, and it grows by several events per task activation, so a debug
//! session, whose record of the run is its execution trace, never turns
//! it on. Recording changes nothing else: the UART stream and every data
//! cell are the same with the log on or off.

use crate::calendar::{Calendar, DueSet};
use crate::config::{DispatchMode, SimConfig};
use crate::error::SimError;
use crate::event::SimEvent;
use crate::memo::TaskMemo;
use gmdf_codegen::{vm, Frame, ProgramImage, Symbol};
use gmdf_comdes::SignalValue;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Converts a cycle count to nanoseconds on a `hz` clock (rounding up).
///
/// This is *the* conversion the kernel uses to project task completions,
/// exposed publicly so static analysis (`gmdf-analyze`) prices cycle
/// costs with the exact same rounding the simulator will exhibit.
pub fn cycles_to_ns(cycles: u64, hz: u64) -> u64 {
    ((u128::from(cycles) * 1_000_000_000).div_ceil(u128::from(hz))) as u64
}

/// Internal alias kept for the kernel's original vocabulary.
fn ns_of(cycles: u64, hz: u64) -> u64 {
    cycles_to_ns(cycles, hz)
}

/// How many whole cycles fit in `dt_ns` on a `hz` clock.
fn cycles_in(dt_ns: u64, hz: u64) -> u64 {
    (u128::from(dt_ns) * u128::from(hz) / 1_000_000_000) as u64
}

/// Deterministic per-release jitter: a split-mix hash of the seed and the
/// release coordinates, reduced to `[0, max]`.
fn jitter_ns(seed: u64, node: usize, task: usize, k: u64, max: u64) -> u64 {
    if max == 0 {
        return 0;
    }
    let mut x = seed
        ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (task as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ k.wrapping_mul(0x1656_67B1_9E37_79F9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x % (max + 1)
}

/// One released, not yet completed activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Job {
    seq: u64,
    release_ns: u64,
    deadline_ns: u64,
    total_cycles: u64,
    executed_cycles: u64,
    /// `(cycle offset, frame)` pairs still waiting to retire.
    emits: VecDeque<(u64, Frame)>,
    /// Raw publication-latch values captured when the step ran.
    pub_raw: Vec<u64>,
}

/// Output values of a completed activation awaiting its deadline instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PendingPub {
    deadline_ns: u64,
    seq: u64,
    pub_raw: Vec<u64>,
}

/// Per-task runtime state.
#[derive(Debug)]
struct TaskRt {
    next_release_idx: u64,
    next_release_ns: u64,
    next_seq: u64,
    /// Released activations, oldest first (FIFO within a task).
    jobs: VecDeque<Job>,
    /// Completed-on-time activations awaiting deadline publication,
    /// oldest deadline first.
    pending_pubs: VecDeque<PendingPub>,
    /// Step-execution cache (see [`crate::memo`]).
    memo: TaskMemo,
}

/// The serial debug link of one node.
#[derive(Debug)]
struct Uart {
    byte_ns: u64,
    busy_until_ns: u64,
    queue: VecDeque<(u64, u8)>,
}

impl Uart {
    /// Queues a frame's wire bytes starting no earlier than `t`.
    fn send_frame(&mut self, t: u64, frame: &Frame) {
        let mut at = self.busy_until_ns.max(t);
        for b in frame.encode() {
            at += self.byte_ns;
            self.queue.push_back((at, b));
        }
        self.busy_until_ns = at;
    }
}

/// The job currently occupying a node's CPU, anchored to the wall
/// instant it (re)gained the processor.
///
/// Anchoring is what makes execution independent of how finely callers
/// step `run_until`: a running job's completion instant is always
/// `start_ns + ns_of(remaining)`, never re-derived from rounded
/// per-window progress. Partial progress only materializes into
/// `executed_cycles` at preemption instants, which are schedule events,
/// not caller choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct RunAnchor {
    ti: usize,
    seq: u64,
    start_ns: u64,
    base_cycles: u64,
}

/// Per-node runtime state.
#[derive(Debug)]
struct NodeRt {
    data: Vec<u64>,
    tasks: Vec<TaskRt>,
    uart: Uart,
    cycles_executed: u64,
    anchor: Option<RunAnchor>,
    /// Runnable tasks ordered by the scheduler key (see
    /// [`crate::calendar::ReadyIndex`]). Mirrors "`tasks[ti].jobs` is
    /// non-empty", maintained at every job push/pop — in calendar mode
    /// only, so the legacy-scan oracle keeps the original cost profile.
    ready: crate::calendar::ReadyIndex,
    /// The last completion projection pushed to the calendar:
    /// `(task, job seq, finish instant)`. When a schedule change leaves
    /// the projection identical (a lower-priority release under a
    /// running job — the common case), the queued entry stays valid and
    /// no epoch bump or re-push happens.
    last_proj: Option<(usize, u64, u64)>,
}

/// One node's interned names: the node itself, one entry per task and
/// one per publication of each task (`labels[ti][pi]`), shared by
/// reference with every [`SimEvent`] that mentions them.
#[derive(Debug, Clone)]
struct NodeNames {
    node: Arc<str>,
    actors: Vec<Arc<str>>,
    labels: Vec<Vec<Arc<str>>>,
}

/// Broadcast subscribers of one publication: `(node, board address)`
/// pairs, excluding the producer.
type PubRoute = Vec<(usize, u32)>;

/// An in-flight labeled-signal broadcast.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Delivery {
    time_ns: u64,
    node_idx: usize,
    addr: u32,
    raw: u64,
}

/// A deterministic simulator of the distributed embedded platform
/// executing one [`ProgramImage`].
///
/// ```
/// use gmdf_codegen::{compile_system, CompileOptions};
/// use gmdf_comdes::{ActorBuilder, BasicOp, NetworkBuilder, NodeSpec, Port, SignalValue,
///                   System, Timing};
/// use gmdf_target::{SimConfig, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = NetworkBuilder::new()
///     .input(Port::real("x"))
///     .output(Port::real("y"))
///     .block("g", BasicOp::Gain { k: 2.0 })
///     .connect("x", "g.x")?
///     .connect("g.y", "y")?
///     .build()?;
/// let actor = ActorBuilder::new("Doubler", net)
///     .input("x", "in")
///     .output("y", "out")
///     .timing(Timing::periodic(1_000_000, 0))
///     .build()?;
/// let mut node = NodeSpec::new("ecu", 50_000_000);
/// node.actors.push(actor);
/// let system = System::new("demo").with_node(node);
///
/// let image = compile_system(&system, &CompileOptions::default())?;
/// let mut sim = Simulator::new(image, SimConfig::default())?;
/// sim.schedule_signal(0, "in", SignalValue::Real(21.0))?;
/// sim.run_until(2_000_000)?;
/// assert_eq!(sim.read_signal("ecu", "out")?, SignalValue::Real(42.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    image: ProgramImage,
    config: SimConfig,
    nodes: Vec<NodeRt>,
    /// Node name → index, built once at boot (`node_index` is on the
    /// `read_symbol`/`uart_take` hot paths).
    name_index: HashMap<String, usize>,
    /// Interned node, actor and publication-label names, built once at
    /// boot — a recorded event clones an `Arc`, never a `String`.
    names: Vec<NodeNames>,
    /// Precomputed broadcast routes: `pub_routes[ni][ti][pi]` lists the
    /// `(subscriber node, board address)` pairs carrying publication
    /// `pi` of task `(ni, ti)`. Built once at boot so `publish` — which
    /// runs for every completed activation — never scans all nodes or
    /// hashes a label string.
    pub_routes: Vec<Vec<Vec<PubRoute>>>,
    /// Sorted (stably) by time; `stim_pos` marks the applied prefix.
    stimuli: Vec<(u64, String, SignalValue)>,
    stim_pos: usize,
    /// In-flight broadcasts, sorted by (time, insertion order).
    deliveries: VecDeque<Delivery>,
    /// The event calendar ([`DispatchMode::Calendar`] only).
    calendar: Calendar,
    /// Per-node schedule epoch: bumped whenever the node's job set
    /// changes, invalidating that node's queued completion projections.
    epochs: Vec<u64>,
    /// Nodes whose schedule changed this iteration (calendar mode).
    dirty: Vec<usize>,
    dirty_flag: Vec<bool>,
    /// Reused per-instant due-event buffers (no allocation per event).
    due: DueSet,
    /// Released-but-uncompleted jobs per node — the CPU advance skips
    /// nodes at zero (an idle node has no emits to retire and no
    /// completions to book), so its cost tracks *busy* nodes, not fleet
    /// size. Kept contiguous (not inside `NodeRt`) for the scan.
    job_counts: Vec<u32>,
    /// Releases that replayed a memoized step (VM skipped) / ran the VM.
    memo_hits: u64,
    memo_misses: u64,
    /// The event log: `None` (nothing recorded, nothing built) until
    /// [`Simulator::record_events`] turns it on.
    events: Option<Vec<SimEvent>>,
    now_ns: u64,
}

impl Simulator {
    /// Boots the platform: allocates and initializes each node's data
    /// segment, seeds the kernels with first-release instants, and sizes
    /// the UARTs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for unusable configurations and
    /// [`SimError::BadImage`] for images violating platform invariants.
    pub fn new(image: ProgramImage, config: SimConfig) -> Result<Self, SimError> {
        if config.uart_baud == 0 {
            return Err(SimError::BadConfig("uart_baud must be nonzero".into()));
        }
        if config.step_budget == 0 {
            return Err(SimError::BadConfig("step_budget must be nonzero".into()));
        }
        let byte_ns = 10_000_000_000u64.div_ceil(config.uart_baud);
        let mut nodes = Vec::with_capacity(image.nodes.len());
        let mut calendar = Calendar::default();
        for (ni, node) in image.nodes.iter().enumerate() {
            if node.cpu_hz == 0 {
                return Err(SimError::BadImage(format!(
                    "node `{}` has a zero clock",
                    node.node
                )));
            }
            let mut data = vec![0u64; node.data_cells as usize];
            for &(addr, raw) in &node.data_init {
                let cell = data.get_mut(addr as usize).ok_or_else(|| {
                    SimError::BadImage(format!("init address {addr} outside node `{}`", node.node))
                })?;
                *cell = raw;
            }
            let mut tasks = Vec::with_capacity(node.tasks.len());
            for (ti, task) in node.tasks.iter().enumerate() {
                if task.period_ns == 0 {
                    return Err(SimError::BadImage(format!(
                        "task `{}` has a zero period",
                        task.actor
                    )));
                }
                // A tick at or above a task's period would quantize
                // several releases onto one instant, firing bursts of
                // same-nanosecond activations — reject rather than
                // invent catch-up semantics.
                if config.tick_ns >= task.period_ns && config.tick_ns != 0 {
                    return Err(SimError::BadConfig(format!(
                        "tick_ns ({}) must be below task `{}`'s period ({})",
                        config.tick_ns, task.actor, task.period_ns
                    )));
                }
                let mut rt = TaskRt {
                    next_release_idx: 0,
                    next_release_ns: 0,
                    next_seq: 0,
                    jobs: VecDeque::new(),
                    pending_pubs: VecDeque::new(),
                    memo: TaskMemo::new(&task.code),
                };
                rt.next_release_ns =
                    release_instant(&config, task.offset_ns, task.period_ns, 0, ni, ti);
                if config.dispatch == DispatchMode::Calendar {
                    calendar.push_release(rt.next_release_ns, ni, ti);
                }
                tasks.push(rt);
            }
            nodes.push(NodeRt {
                data,
                tasks,
                uart: Uart {
                    byte_ns,
                    busy_until_ns: 0,
                    queue: VecDeque::new(),
                },
                cycles_executed: 0,
                anchor: None,
                ready: crate::calendar::ReadyIndex::default(),
                last_proj: None,
            });
        }
        let name_index = image
            .nodes
            .iter()
            .enumerate()
            .map(|(ni, n)| (n.node.clone(), ni))
            .collect();
        let names = image
            .nodes
            .iter()
            .map(|n| NodeNames {
                node: Arc::from(n.node.as_str()),
                actors: n
                    .tasks
                    .iter()
                    .map(|t| Arc::from(t.actor.as_str()))
                    .collect(),
                labels: n
                    .tasks
                    .iter()
                    .map(|t| {
                        t.publications
                            .iter()
                            .map(|p| Arc::from(p.label.as_str()))
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        let pub_routes = image
            .nodes
            .iter()
            .enumerate()
            .map(|(ni, node)| {
                node.tasks
                    .iter()
                    .map(|task| {
                        task.publications
                            .iter()
                            .map(|p| {
                                image
                                    .nodes
                                    .iter()
                                    .enumerate()
                                    .filter(|&(oj, _)| oj != ni)
                                    .filter_map(|(oj, other)| {
                                        other.board.get(&p.label).map(|sym| (oj, sym.addr))
                                    })
                                    .collect()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let n = nodes.len();
        Ok(Simulator {
            image,
            config,
            nodes,
            name_index,
            names,
            pub_routes,
            stimuli: Vec::new(),
            stim_pos: 0,
            deliveries: VecDeque::new(),
            calendar,
            epochs: vec![0; n],
            dirty: Vec::new(),
            dirty_flag: vec![false; n],
            due: DueSet::default(),
            job_counts: vec![0; n],
            memo_hits: 0,
            memo_misses: 0,
            events: None,
            now_ns: 0,
        })
    }

    /// Current simulation time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The platform configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The deployed image.
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    /// The events recorded since [`Simulator::record_events`] turned the
    /// log on (or since the last [`Simulator::restore_state`]), in time
    /// order. Empty while the log is off, which is the default.
    pub fn events(&self) -> &[SimEvent] {
        self.events.as_deref().unwrap_or_default()
    }

    /// Turns the event log on from this instant: every later stimulus,
    /// release, completion, deadline miss and publication is appended to
    /// [`Simulator::events`]. Events before the call are not recovered,
    /// so a caller that wants the whole run opts in right after boot.
    /// Calling it again keeps the log recorded so far. There is no call
    /// to turn the log off; a simulator that records keeps recording,
    /// also across [`Simulator::restore_state`].
    pub fn record_events(&mut self) {
        self.events.get_or_insert_with(Vec::new);
    }

    /// Step-memoization counters: `(hits, misses)`. A *hit* is a task
    /// release that replayed a cached step without running the VM; a
    /// *miss* ran the VM (and cached the result). Both are zero with
    /// [`SimConfig::memo_steps`] off.
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// Total cycles the named node's CPU has executed — the target-side
    /// cost metric instrumentation overhead is measured in.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for unknown names.
    pub fn cycles_executed(&self, node: &str) -> Result<u64, SimError> {
        let ni = self.node_index(node)?;
        let mut total = self.nodes[ni].cycles_executed;
        // Include the anchored job's progress up to now (materialized
        // counters only update at schedule instants).
        if let Some(a) = self.nodes[ni].anchor {
            let hz = self.image.nodes[ni].cpu_hz;
            let job = self.nodes[ni].tasks[a.ti]
                .jobs
                .front()
                .expect("anchored job");
            let done =
                (a.base_cycles + cycles_in(self.now_ns - a.start_ns, hz)).min(job.total_cycles);
            total += done - job.executed_cycles;
        }
        Ok(total)
    }

    /// Schedules an environment (sensor) write of `label` at `time_ns`.
    /// A stimulus dated before [`Simulator::now_ns`] is dropped: it is
    /// neither applied nor kept in [`Simulator::stimuli`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownLabel`] if no node's board carries the
    /// label.
    pub fn schedule_signal(
        &mut self,
        time_ns: u64,
        label: &str,
        value: SignalValue,
    ) -> Result<(), SimError> {
        self.check_label(label)?;
        if time_ns < self.now_ns {
            return Ok(());
        }
        // Stable insert by time keeps same-instant stimuli in schedule
        // order, matching the interpreter.
        let at = self.stimuli[self.stim_pos..].partition_point(|(t, _, _)| *t <= time_ns)
            + self.stim_pos;
        self.stimuli.insert(at, (time_ns, label.to_owned(), value));
        Ok(())
    }

    /// The stimulus schedule: every stimulus [`Simulator::schedule_signal`]
    /// kept, applied or not, as `(time_ns, label, value)` in time order,
    /// same-instant stimuli in schedule order. It is the one stimulus
    /// list of a debug session, whose reference interpreter replays
    /// exactly this list.
    pub fn stimuli(&self) -> &[(u64, String, SignalValue)] {
        &self.stimuli
    }

    /// Checks that some node's board carries `label`, the one thing
    /// [`Simulator::schedule_signal`] can reject.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownLabel`] otherwise.
    pub fn check_label(&self, label: &str) -> Result<(), SimError> {
        if self.image.nodes.iter().any(|n| n.board.contains_key(label)) {
            Ok(())
        } else {
            Err(SimError::UnknownLabel(label.to_owned()))
        }
    }

    /// Reads a node's current copy of a labeled signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] / [`SimError::UnknownLabel`].
    pub fn read_signal(&self, node: &str, label: &str) -> Result<SignalValue, SimError> {
        let ni = self.node_index(node)?;
        let sym = self.image.nodes[ni]
            .board
            .get(label)
            .copied()
            .ok_or_else(|| SimError::UnknownLabel(label.to_owned()))?;
        Ok(SignalValue::from_raw(
            sym.ty,
            self.nodes[ni].data[sym.addr as usize],
        ))
    }

    /// Reads a symbol-table cell (what a JTAG probe scans out).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] / [`SimError::UnknownSymbol`].
    pub fn read_symbol(&self, node: &str, symbol: &str) -> Result<SignalValue, SimError> {
        let ni = self.node_index(node)?;
        let sym = self.resolve_symbol(ni, symbol)?;
        Ok(SignalValue::from_raw(
            sym.ty,
            self.nodes[ni].data[sym.addr as usize],
        ))
    }

    /// Drains the node's UART: `(timestamp, byte)` pairs whose
    /// transmission has finished by now, oldest first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for unknown names.
    pub fn uart_take(&mut self, node: &str) -> Result<Vec<(u64, u8)>, SimError> {
        let mut out = Vec::new();
        self.uart_take_into(node, &mut out)?;
        Ok(out)
    }

    /// Like [`Simulator::uart_take`], but **appends** the drained bytes
    /// to `out` instead of allocating — the reuse path for pumps that
    /// drain UARTs every slice. Returns the number of bytes appended.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for unknown names.
    pub fn uart_take_into(
        &mut self,
        node: &str,
        out: &mut Vec<(u64, u8)>,
    ) -> Result<usize, SimError> {
        let ni = self.node_index(node)?;
        let now = self.now_ns;
        let uart = &mut self.nodes[ni].uart;
        let ready = uart.queue.partition_point(|(t, _)| *t <= now);
        out.extend(uart.queue.drain(..ready));
        Ok(ready)
    }

    /// Advances the platform to `t_end_ns` (inclusive), executing every
    /// stimulus, release, completion, publication and delivery due.
    ///
    /// Calling this in increments is equivalent to one big run — the
    /// kernels track their own progress.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Vm`] if generated code faults.
    pub fn run_until(&mut self, t_end_ns: u64) -> Result<(), SimError> {
        if t_end_ns < self.now_ns {
            return Ok(());
        }
        match self.config.dispatch {
            DispatchMode::Calendar => self.run_until_calendar(t_end_ns),
            DispatchMode::LegacyScan => self.run_until_scan(t_end_ns),
        }
    }

    /// Advances the platform by one bounded time slice and returns the
    /// new simulation time — the resumable pumping primitive a scheduler
    /// uses to interleave many simulators on shared worker threads.
    ///
    /// Slicing is exact: any partition of a horizon into slices produces
    /// the same platform state, event log and UART stream as one
    /// [`Simulator::run_until`] over the whole horizon (running jobs stay
    /// anchored to the instant they gained the CPU, so completion times
    /// never depend on slice boundaries).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Vm`] if generated code faults.
    pub fn run_for_slice(&mut self, slice_ns: u64) -> Result<u64, SimError> {
        let t_end = self.now_ns.saturating_add(slice_ns);
        self.run_until(t_end)?;
        Ok(self.now_ns)
    }

    // -- internals ---------------------------------------------------------

    pub(crate) fn node_index(&self, node: &str) -> Result<usize, SimError> {
        self.name_index
            .get(node)
            .copied()
            .ok_or_else(|| SimError::UnknownNode(node.to_owned()))
    }

    pub(crate) fn resolve_symbol(&self, node_idx: usize, symbol: &str) -> Result<Symbol, SimError> {
        self.image.nodes[node_idx]
            .symbols
            .get(symbol)
            .ok_or_else(|| SimError::UnknownSymbol {
                node: self.image.nodes[node_idx].node.clone(),
                symbol: symbol.to_owned(),
            })
    }

    pub(crate) fn peek_raw(&self, node_idx: usize, addr: u32) -> u64 {
        self.nodes[node_idx].data[addr as usize]
    }

    /// The original dispatch loop: full rescan per event.
    fn run_until_scan(&mut self, t_end_ns: u64) -> Result<(), SimError> {
        while let Some(t_next) = self.next_timeline_instant_scan(t_end_ns) {
            self.advance_cpus(t_next);
            self.now_ns = t_next;
            self.apply_stimuli_at(t_next);
            self.apply_deliveries_at(t_next);
            self.apply_deadline_pubs_at(t_next);
            self.apply_releases_at(t_next)?;
        }
        self.advance_cpus(t_end_ns);
        self.now_ns = t_end_ns;
        Ok(())
    }

    /// The calendar dispatch loop: O(log n) peek per event, apply work
    /// proportional to what actually fires.
    fn run_until_calendar(&mut self, t_end_ns: u64) -> Result<(), SimError> {
        while let Some(t_next) = self.next_timeline_instant_calendar(t_end_ns) {
            self.advance_cpus(t_next);
            self.now_ns = t_next;
            let mut due = std::mem::take(&mut self.due);
            self.calendar.take_due(t_next, &mut due);
            self.apply_stimuli_at(t_next);
            self.apply_deliveries_at(t_next);
            for &(ni, ti) in &due.publishes {
                self.apply_deadline_pub(ni, ti, t_next);
            }
            for &(ni, ti) in &due.releases {
                debug_assert_eq!(self.nodes[ni].tasks[ti].next_release_ns, t_next);
                self.release(ni, ti, t_next)?;
            }
            self.due = due;
            self.flush_dirty();
        }
        self.advance_cpus(t_end_ns);
        self.now_ns = t_end_ns;
        Ok(())
    }

    /// Calendar-mode lookup of the earliest pending instant ≤ `t_end`:
    /// an O(1) peek at the (time-sorted) stimulus and delivery queues
    /// and an O(log n) heap peek for everything else.
    fn next_timeline_instant_calendar(&mut self, t_end: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut consider = |t: u64| {
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        };
        if let Some((t, _, _)) = self.stimuli.get(self.stim_pos) {
            consider(*t);
        }
        if let Some(d) = self.deliveries.front() {
            consider(d.time_ns);
        }
        if let Some(t) = self.calendar.peek_earliest(&self.epochs) {
            consider(t);
        }
        best.filter(|&t| t <= t_end)
    }

    /// The earliest discrete timeline instant ≤ `t_end` still pending, or
    /// the earliest CPU completion if it comes first (completions can
    /// schedule publications the timeline must then see). Full rescan —
    /// the [`DispatchMode::LegacyScan`] oracle.
    fn next_timeline_instant_scan(&self, t_end: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut consider = |t: u64| {
            if t <= t_end && best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        };
        if let Some((t, _, _)) = self.stimuli.get(self.stim_pos) {
            consider(*t);
        }
        if let Some(d) = self.deliveries.front() {
            consider(d.time_ns);
        }
        for (ni, node) in self.nodes.iter().enumerate() {
            for task in &node.tasks {
                consider(task.next_release_ns);
                if let Some(p) = task.pending_pubs.front() {
                    consider(p.deadline_ns);
                }
            }
            // The first completion on this node's CPU, were it to run
            // undisturbed from now (anchored jobs finish relative to the
            // instant they gained the CPU, not to `now`).
            if let Some((ti, _)) = self.pick_job_scan(ni) {
                consider(self.completion_of_pick(ni, ti));
            }
        }
        best
    }

    /// The projected completion instant of `(ni, ti)`'s front job, were
    /// it to hold the CPU undisturbed from now (anchored jobs finish
    /// relative to the instant they gained the CPU, not to `now`).
    fn completion_of_pick(&self, ni: usize, ti: usize) -> u64 {
        let job = self.nodes[ni].tasks[ti].jobs.front().expect("picked job");
        let hz = self.image.nodes[ni].cpu_hz;
        match self.nodes[ni].anchor {
            Some(a) if (a.ti, a.seq) == (ti, job.seq) => {
                a.start_ns + ns_of(job.total_cycles - a.base_cycles, hz)
            }
            _ => self.now_ns + ns_of(job.total_cycles - job.executed_cycles, hz),
        }
    }

    /// The highest-priority runnable job on `node_idx` per the active
    /// dispatch mode: `(task index, priority)`.
    fn pick_job(&self, node_idx: usize) -> Option<(usize, u8)> {
        match self.config.dispatch {
            DispatchMode::Calendar => self.pick_job_indexed(node_idx),
            DispatchMode::LegacyScan => self.pick_job_scan(node_idx),
        }
    }

    /// Indexed pick: the ready set's first entry. Cross-checked against
    /// the scan oracle in debug builds.
    fn pick_job_indexed(&self, node_idx: usize) -> Option<(usize, u8)> {
        let picked = self.nodes[node_idx].ready.first();
        debug_assert_eq!(
            picked,
            self.pick_job_scan(node_idx),
            "ready index diverged from the scan oracle on node {node_idx}"
        );
        picked
    }

    /// Scan pick: lower priority value wins, then earlier release, then
    /// declaration order. The [`DispatchMode::LegacyScan`] oracle.
    fn pick_job_scan(&self, node_idx: usize) -> Option<(usize, u8)> {
        let image = &self.image.nodes[node_idx];
        let mut best: Option<(usize, u8, u64)> = None;
        for (ti, rt) in self.nodes[node_idx].tasks.iter().enumerate() {
            let Some(front) = rt.jobs.front() else {
                continue;
            };
            let prio = image.tasks[ti].priority;
            let key = (prio, front.release_ns, ti);
            if best.is_none_or(|(bti, bp, br)| key < (bp, br, bti)) {
                best = Some((ti, prio, front.release_ns));
            }
        }
        best.map(|(ti, p, _)| (ti, p))
    }

    /// Marks `ni`'s schedule as changed this iteration (calendar mode):
    /// its queued completion projections will be invalidated and
    /// re-pushed by [`Simulator::flush_dirty`].
    fn mark_dirty(&mut self, ni: usize) {
        if self.config.dispatch == DispatchMode::Calendar && !self.dirty_flag[ni] {
            self.dirty_flag[ni] = true;
            self.dirty.push(ni);
        }
    }

    /// Re-projects the CPU completion of every dirty node. If the
    /// projection actually moved, the node's schedule epoch is bumped
    /// (lazily invalidating the stale calendar entry) and the new one
    /// pushed; an unchanged projection keeps its queued entry — the
    /// common case when a lower-priority release arrives under a
    /// running job, and what keeps heap churn off the hot path.
    fn flush_dirty(&mut self) {
        while let Some(ni) = self.dirty.pop() {
            self.dirty_flag[ni] = false;
            let proj = self.pick_job_indexed(ni).map(|(ti, _)| {
                let seq = self.nodes[ni].tasks[ti]
                    .jobs
                    .front()
                    .expect("picked job")
                    .seq;
                (ti, seq, self.completion_of_pick(ni, ti))
            });
            if proj == self.nodes[ni].last_proj {
                continue;
            }
            self.nodes[ni].last_proj = proj;
            self.epochs[ni] += 1;
            if let Some((_, _, fin)) = proj {
                self.calendar.push_completion(fin, ni, self.epochs[ni]);
            }
        }
    }

    /// Runs every node's CPU forward to `t_target`, retiring emits and
    /// completions due in `(now, t_target]`.
    fn advance_cpus(&mut self, t_target: u64) {
        for ni in 0..self.nodes.len() {
            if self.job_counts[ni] == 0 {
                debug_assert!(self.nodes[ni].anchor.is_none());
                continue;
            }
            let mut t = self.now_ns;
            loop {
                let Some((ti, _)) = self.pick_job(ni) else {
                    self.nodes[ni].anchor = None;
                    break;
                };
                let hz = self.image.nodes[ni].cpu_hz;
                let (seq, total, executed) = {
                    let job = self.nodes[ni].tasks[ti].jobs.front().expect("picked job");
                    (job.seq, job.total_cycles, job.executed_cycles)
                };
                // A different job won the CPU: the old one was preempted
                // at `t` (a schedule instant) — materialize its progress
                // before switching.
                if let Some(a) = self.nodes[ni].anchor {
                    if (a.ti, a.seq) != (ti, seq) {
                        self.materialize_preempted(ni, a, t);
                        self.nodes[ni].anchor = None;
                    }
                }
                let a = *self.nodes[ni].anchor.get_or_insert(RunAnchor {
                    ti,
                    seq,
                    start_ns: t,
                    base_cycles: executed,
                });
                let fin = a.start_ns + ns_of(total - a.base_cycles, hz);
                if fin <= t_target {
                    self.retire_emits(ni, ti, a.start_ns, a.base_cycles, total - a.base_cycles, hz);
                    self.nodes[ni].cycles_executed += total - executed;
                    let prio = self.image.nodes[ni].tasks[ti].priority;
                    self.job_counts[ni] -= 1;
                    let indexed = self.config.dispatch == DispatchMode::Calendar;
                    let nrt = &mut self.nodes[ni];
                    let job = nrt.tasks[ti].jobs.pop_front().expect("picked job");
                    // The ready index exists for calendar dispatch only;
                    // legacy-scan mode skips its upkeep so the oracle's
                    // cost profile stays that of the original code.
                    if indexed {
                        nrt.ready.remove(prio, job.release_ns, ti);
                        if let Some(front) = nrt.tasks[ti].jobs.front() {
                            nrt.ready.insert(prio, front.release_ns, ti);
                        }
                    }
                    nrt.anchor = None;
                    self.mark_dirty(ni);
                    self.complete_job(ni, ti, job, fin);
                    t = fin;
                } else {
                    // Still running at t_target: keep the anchor (so the
                    // completion instant never depends on how finely the
                    // caller steps) and surface the emits due by now.
                    let due = cycles_in(t_target - a.start_ns, hz);
                    self.retire_emits(ni, ti, a.start_ns, a.base_cycles, due, hz);
                    break;
                }
            }
        }
    }

    /// Books a preempted job's CPU progress as of the preemption
    /// instant `t`.
    fn materialize_preempted(&mut self, ni: usize, a: RunAnchor, t: u64) {
        let hz = self.image.nodes[ni].cpu_hz;
        let done = a.base_cycles + cycles_in(t - a.start_ns, hz);
        let nrt = &mut self.nodes[ni];
        let job = nrt.tasks[a.ti].jobs.front_mut().expect("anchored job");
        debug_assert_eq!(job.seq, a.seq);
        let done = done.min(job.total_cycles);
        nrt.cycles_executed += done - job.executed_cycles;
        job.executed_cycles = done;
    }

    /// Retires emits whose cycle offset falls inside the execution
    /// segment starting at wall time `seg_start` with `done` cycles
    /// already executed and `delta` more being executed now.
    fn retire_emits(
        &mut self,
        ni: usize,
        ti: usize,
        seg_start: u64,
        done: u64,
        delta: u64,
        hz: u64,
    ) {
        while let Some(&(off, _)) = self.nodes[ni].tasks[ti]
            .jobs
            .front()
            .and_then(|j| j.emits.front())
        {
            if off > done + delta {
                break;
            }
            let (_, frame) = self.nodes[ni].tasks[ti]
                .jobs
                .front_mut()
                .and_then(|j| j.emits.pop_front())
                .expect("emit present");
            let at = seg_start + ns_of(off.saturating_sub(done), hz);
            self.nodes[ni].uart.send_frame(at, &frame);
        }
    }

    /// Books a finished activation: logs completion (and a deadline miss
    /// when late) and routes its publication.
    fn complete_job(&mut self, ni: usize, ti: usize, job: Job, tc: u64) {
        if let Some(log) = &mut self.events {
            let (node, actor) = (&self.names[ni].node, &self.names[ni].actors[ti]);
            log.push(SimEvent::Completion {
                time_ns: tc,
                node: node.clone(),
                actor: actor.clone(),
                response_ns: tc - job.release_ns,
                cycles: job.total_cycles,
            });
            if tc > job.deadline_ns {
                log.push(SimEvent::DeadlineMiss {
                    time_ns: tc,
                    node: node.clone(),
                    actor: actor.clone(),
                    overrun_ns: tc - job.deadline_ns,
                });
            }
        }
        if tc > job.deadline_ns {
            // The deadline instant has passed: publish as late as reality.
            self.publish(ni, ti, &job.pub_raw, tc);
        } else if self.config.latch_outputs {
            if self.config.dispatch == DispatchMode::Calendar {
                self.calendar.push_publish(job.deadline_ns, ni, ti);
            }
            self.nodes[ni].tasks[ti].pending_pubs.push_back(PendingPub {
                deadline_ns: job.deadline_ns,
                seq: job.seq,
                pub_raw: job.pub_raw,
            });
        } else {
            self.publish(ni, ti, &job.pub_raw, tc);
        }
    }

    /// Writes `pub_raw` to the producing node's board, logs the
    /// publications, and broadcasts to every subscribed node's board
    /// over the routes precomputed at boot.
    fn publish(&mut self, ni: usize, ti: usize, pub_raw: &[u64], t: u64) {
        let Simulator {
            image,
            nodes,
            names,
            events,
            deliveries,
            config,
            pub_routes,
            ..
        } = self;
        let task = &image.nodes[ni].tasks[ti];
        for (pi, (p, &raw)) in task.publications.iter().zip(pub_raw.iter()).enumerate() {
            nodes[ni].data[p.board as usize] = raw;
            if let Some(log) = events {
                log.push(SimEvent::Publish {
                    time_ns: t,
                    node: names[ni].node.clone(),
                    actor: names[ni].actors[ti].clone(),
                    label: names[ni].labels[ti][pi].clone(),
                    value: SignalValue::from_raw(p.ty, raw),
                });
            }
            for &(oj, addr) in &pub_routes[ni][ti][pi] {
                if config.bus_latency_ns == 0 {
                    nodes[oj].data[addr as usize] = raw;
                } else {
                    deliveries.push_back(Delivery {
                        time_ns: t + config.bus_latency_ns,
                        node_idx: oj,
                        addr,
                        raw,
                    });
                }
            }
        }
    }

    fn apply_stimuli_at(&mut self, t: u64) {
        while let Some((st, label, value)) = self.stimuli.get(self.stim_pos) {
            if *st != t {
                break;
            }
            self.stim_pos += 1;
            for ni in 0..self.nodes.len() {
                if let Some(sym) = self.image.nodes[ni].board.get(label) {
                    self.nodes[ni].data[sym.addr as usize] = value.to_raw();
                }
            }
            if let Some(log) = &mut self.events {
                log.push(SimEvent::Stimulus {
                    time_ns: t,
                    label: label.clone(),
                    value: *value,
                });
            }
        }
    }

    fn apply_deliveries_at(&mut self, t: u64) {
        while let Some(d) = self.deliveries.front() {
            if d.time_ns != t {
                break;
            }
            let d = self.deliveries.pop_front().expect("front checked");
            self.nodes[d.node_idx].data[d.addr as usize] = d.raw;
        }
    }

    /// Publishes `(ni, ti)`'s queued outputs whose deadline is `t`
    /// (calendar mode — the due set names the tasks directly).
    fn apply_deadline_pub(&mut self, ni: usize, ti: usize, t: u64) {
        while let Some(p) = self.nodes[ni].tasks[ti].pending_pubs.front() {
            if p.deadline_ns != t {
                break;
            }
            let p = self.nodes[ni].tasks[ti]
                .pending_pubs
                .pop_front()
                .expect("front checked");
            debug_assert!(p.seq < self.nodes[ni].tasks[ti].next_seq);
            self.publish(ni, ti, &p.pub_raw, t);
        }
    }

    /// Scan-mode deadline publication: every task of every node is
    /// checked for queued outputs due at `t`.
    fn apply_deadline_pubs_at(&mut self, t: u64) {
        for ni in 0..self.nodes.len() {
            for ti in 0..self.nodes[ni].tasks.len() {
                self.apply_deadline_pub(ni, ti, t);
            }
        }
    }

    /// Scan-mode release sweep: every task of every node is checked for
    /// an armed release at `t`.
    fn apply_releases_at(&mut self, t: u64) -> Result<(), SimError> {
        for ni in 0..self.nodes.len() {
            for ti in 0..self.nodes[ni].tasks.len() {
                if self.nodes[ni].tasks[ti].next_release_ns != t {
                    continue;
                }
                self.release(ni, ti, t)?;
            }
        }
        Ok(())
    }

    /// One kernel release: latch inputs, execute the step (or replay its
    /// memoized effect), queue the CPU demand, and arm the next release.
    fn release(&mut self, ni: usize, ti: usize, t: u64) -> Result<(), SimError> {
        let Simulator {
            image,
            nodes,
            names,
            events,
            config,
            calendar,
            memo_hits,
            memo_misses,
            job_counts,
            ..
        } = self;
        let task = &image.nodes[ni].tasks[ti];
        let nrt = &mut nodes[ni];
        for latch in &task.input_latches {
            nrt.data[latch.to as usize] = nrt.data[latch.from as usize];
        }
        let vm_fault = |error| SimError::Vm {
            node: image.nodes[ni].node.clone(),
            actor: task.actor.clone(),
            error,
        };
        let result = if config.memo_steps {
            // Split-borrow the node: the memo lives next to the data
            // segment it probes.
            let NodeRt { data, tasks, .. } = nrt;
            match tasks[ti].memo.lookup_and_apply(data) {
                Some(cached) => {
                    *memo_hits += 1;
                    cached
                }
                None => {
                    let r = vm::run(&task.code, data, config.step_budget).map_err(&vm_fault)?;
                    *memo_misses += 1;
                    tasks[ti].memo.record(data, &r);
                    r
                }
            }
        } else {
            vm::run(&task.code, &mut nrt.data, config.step_budget).map_err(&vm_fault)?
        };
        let pub_raw: Vec<u64> = task
            .publications
            .iter()
            .map(|p| nrt.data[p.latch as usize])
            .collect();
        if let Some(log) = events {
            log.push(SimEvent::Release {
                time_ns: t,
                node: names[ni].node.clone(),
                actor: names[ni].actors[ti].clone(),
            });
        }
        let was_idle = nrt.tasks[ti].jobs.is_empty();
        let rt = &mut nrt.tasks[ti];
        let seq = rt.next_seq;
        rt.next_seq += 1;
        rt.jobs.push_back(Job {
            seq,
            release_ns: t,
            deadline_ns: t + task.deadline_ns,
            total_cycles: result.cycles.max(1),
            executed_cycles: 0,
            emits: result.emits.into_iter().collect(),
            pub_raw,
        });
        rt.next_release_idx += 1;
        rt.next_release_ns = release_instant(
            config,
            task.offset_ns,
            task.period_ns,
            rt.next_release_idx,
            ni,
            ti,
        );
        let next_release_ns = rt.next_release_ns;
        job_counts[ni] += 1;
        if config.dispatch == DispatchMode::Calendar {
            if was_idle {
                nrt.ready.insert(task.priority, t, ti);
            }
            calendar.push_release(next_release_ns, ni, ti);
        }
        self.mark_dirty(ni);
        Ok(())
    }
}

/// Per-task slice of a [`SimState`]: the kernel counters plus every
/// in-flight activation. The step-memo cache is *not* here — it is a
/// bit-exact pure cache, rebuilt empty on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TaskState {
    next_release_idx: u64,
    next_release_ns: u64,
    next_seq: u64,
    jobs: Vec<Job>,
    pending_pubs: Vec<PendingPub>,
}

/// Per-node slice of a [`SimState`]: data segment, task states, UART
/// transmit state and the CPU anchor. Derived structures (the ready
/// index and the completion projection) are rebuilt on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct NodeState {
    data: Vec<u64>,
    tasks: Vec<TaskState>,
    uart_busy_until_ns: u64,
    uart_queue: Vec<(u64, u8)>,
    cycles_executed: u64,
    anchor: Option<RunAnchor>,
}

/// A complete serializable snapshot of a [`Simulator`]'s dynamic state.
///
/// Captures everything a bit-exact resume needs: the clock, every node's
/// data segment, task/kernel counters, in-flight jobs and their pending
/// emits, undrained UART bytes, CPU anchors, the whole stimulus schedule
/// with its applied-prefix cursor, and in-flight network deliveries.
/// The applied prefix is kept although the kernel never reads it again:
/// a restored debug session's reference interpreter replays
/// [`Simulator::stimuli`] from time zero. Derived state — the event
/// calendar, the ready index, completion projections and the step-memo
/// cache — is deliberately absent and rebuilt by
/// [`Simulator::restore_state`].
///
/// Two things are intentionally **not** state:
///
/// * the [`Simulator::events`] log and whether it is on — an opt-in
///   observability log, never read back by the kernel. Restoring
///   empties the log of a simulator that records, which then appends
///   only post-restore events; one that does not record stays off;
/// * the memo-hit counters' future trajectory — the cache restarts cold,
///   so a restored run may report more misses than the uninterrupted one
///   while producing the identical event/UART stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimState {
    now_ns: u64,
    nodes: Vec<NodeState>,
    stimuli: Vec<(u64, String, SignalValue)>,
    stim_pos: u64,
    deliveries: Vec<Delivery>,
    memo_hits: u64,
    memo_misses: u64,
}

impl SimState {
    /// Simulation time at which this snapshot was captured.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }
}

impl Simulator {
    /// Captures the simulator's complete dynamic state (see [`SimState`]
    /// for what is included). The snapshot is independent of the live
    /// simulator: restoring it into a freshly booted twin and running on
    /// is bit-identical to never having stopped.
    pub fn save_state(&self) -> SimState {
        SimState {
            now_ns: self.now_ns,
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeState {
                    data: n.data.clone(),
                    tasks: n
                        .tasks
                        .iter()
                        .map(|t| TaskState {
                            next_release_idx: t.next_release_idx,
                            next_release_ns: t.next_release_ns,
                            next_seq: t.next_seq,
                            jobs: t.jobs.iter().cloned().collect(),
                            pending_pubs: t.pending_pubs.iter().cloned().collect(),
                        })
                        .collect(),
                    uart_busy_until_ns: n.uart.busy_until_ns,
                    uart_queue: n.uart.queue.iter().copied().collect(),
                    cycles_executed: n.cycles_executed,
                    anchor: n.anchor,
                })
                .collect(),
            stimuli: self.stimuli.clone(),
            stim_pos: self.stim_pos as u64,
            deliveries: self.deliveries.iter().cloned().collect(),
            memo_hits: self.memo_hits,
            memo_misses: self.memo_misses,
        }
    }

    /// Restores a [`SimState`] previously captured (from a simulator
    /// booted off the **same image and configuration**) into this one,
    /// rebuilding all derived structures: calendar entries for armed
    /// releases and queued deadline publications, the per-node ready
    /// index, job counts, and fresh (empty) step-memo caches. A recorded
    /// event log is cleared, and recording stays on — see [`SimState`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadState`] when the snapshot does not fit this
    /// simulator's image (node/task/data-segment shape mismatch, or an
    /// anchor pointing at a job that is not there).
    pub fn restore_state(&mut self, state: &SimState) -> Result<(), SimError> {
        if state.nodes.len() != self.nodes.len() {
            return Err(SimError::BadState(format!(
                "snapshot has {} node(s), image has {}",
                state.nodes.len(),
                self.nodes.len()
            )));
        }
        if state.stim_pos as usize > state.stimuli.len() {
            return Err(SimError::BadState(format!(
                "stimulus cursor {} beyond {} stimuli",
                state.stim_pos,
                state.stimuli.len()
            )));
        }
        for (ni, ns) in state.nodes.iter().enumerate() {
            let node = &self.image.nodes[ni];
            if ns.tasks.len() != node.tasks.len() {
                return Err(SimError::BadState(format!(
                    "snapshot node `{}` has {} task(s), image has {}",
                    node.node,
                    ns.tasks.len(),
                    node.tasks.len()
                )));
            }
            if ns.data.len() != self.nodes[ni].data.len() {
                return Err(SimError::BadState(format!(
                    "snapshot node `{}` has {} data cell(s), image has {}",
                    node.node,
                    ns.data.len(),
                    self.nodes[ni].data.len()
                )));
            }
            if let Some(a) = ns.anchor {
                let anchored = ns
                    .tasks
                    .get(a.ti)
                    .and_then(|t| t.jobs.first())
                    .is_some_and(|j| j.seq == a.seq);
                if !anchored {
                    return Err(SimError::BadState(format!(
                        "snapshot node `{}` anchors task {} job {} which is not released",
                        node.node, a.ti, a.seq
                    )));
                }
            }
        }

        let n = self.nodes.len();
        self.now_ns = state.now_ns;
        self.stimuli = state.stimuli.clone();
        self.stim_pos = state.stim_pos as usize;
        self.deliveries = state.deliveries.iter().cloned().collect();
        self.memo_hits = state.memo_hits;
        self.memo_misses = state.memo_misses;
        if let Some(log) = &mut self.events {
            log.clear();
        }
        self.calendar = Calendar::default();
        self.epochs = vec![0; n];
        self.dirty.clear();
        self.dirty_flag = vec![false; n];
        self.due = DueSet::default();

        let Simulator {
            image,
            config,
            nodes,
            calendar,
            job_counts,
            ..
        } = self;
        for (ni, ns) in state.nodes.iter().enumerate() {
            let nrt = &mut nodes[ni];
            nrt.data.copy_from_slice(&ns.data);
            nrt.uart.busy_until_ns = ns.uart_busy_until_ns;
            nrt.uart.queue = ns.uart_queue.iter().copied().collect();
            nrt.cycles_executed = ns.cycles_executed;
            nrt.anchor = ns.anchor;
            nrt.ready = crate::calendar::ReadyIndex::default();
            nrt.last_proj = None;
            let mut count: u32 = 0;
            for (ti, ts) in ns.tasks.iter().enumerate() {
                let task = &image.nodes[ni].tasks[ti];
                let rt = &mut nrt.tasks[ti];
                rt.next_release_idx = ts.next_release_idx;
                rt.next_release_ns = ts.next_release_ns;
                rt.next_seq = ts.next_seq;
                rt.jobs = ts.jobs.iter().cloned().collect();
                rt.pending_pubs = ts.pending_pubs.iter().cloned().collect();
                rt.memo = TaskMemo::new(&task.code);
                count += rt.jobs.len() as u32;
                if config.dispatch == DispatchMode::Calendar {
                    calendar.push_release(rt.next_release_ns, ni, ti);
                    for p in &rt.pending_pubs {
                        calendar.push_publish(p.deadline_ns, ni, ti);
                    }
                    if let Some(front) = rt.jobs.front() {
                        nrt.ready.insert(task.priority, front.release_ns, ti);
                    }
                }
            }
            job_counts[ni] = count;
        }
        // Re-project every node's CPU completion into the calendar.
        for ni in 0..n {
            self.mark_dirty(ni);
        }
        self.flush_dirty();
        Ok(())
    }
}

/// The (possibly jittered, tick-quantized) instant of release `k`.
fn release_instant(
    config: &SimConfig,
    offset_ns: u64,
    period_ns: u64,
    k: u64,
    node: usize,
    task: usize,
) -> u64 {
    let nominal = offset_ns + k * period_ns;
    // Jitter is capped so the release sequence stays strictly monotone,
    // which the determinism contract depends on. Tickless: j <= period-1
    // keeps jittered instants ordered. With a tick, quantization rounds
    // up by as much as tick-1, so the cap tightens to period - tick:
    // then q(n_k + j_k) <= n_k + period - 1 < n_{k+1} <= q(n_{k+1} +
    // j_{k+1}) — no two releases of a task can collapse onto one tick.
    let cap = if config.tick_ns == 0 {
        period_ns - 1
    } else {
        period_ns - config.tick_ns
    };
    let max_jitter = config.clock_jitter_ns.min(cap);
    let jittered = nominal + jitter_ns(config.seed, node, task, k, max_jitter);
    if config.tick_ns == 0 {
        jittered
    } else {
        jittered.div_ceil(config.tick_ns) * config.tick_ns
    }
}
