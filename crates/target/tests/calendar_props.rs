//! Calendar-vs-scan equivalence and memoization exactness.
//!
//! The PR 2 determinism contract says: same image + same config ⇒ the
//! same event log, byte stream, and trace, bit for bit, no matter how
//! the run is sliced. This suite extends that contract across the two
//! perf knobs introduced with the event calendar:
//!
//! * [`DispatchMode::Calendar`] vs [`DispatchMode::LegacyScan`] (the
//!   original full-rescan dispatcher, kept as the oracle), and
//! * [`SimConfig::memo_steps`] on vs off,
//!
//! over randomized multi-node images (FSMs, filters, cross-node
//! relays), jitter seeds, tick/latency models, and slice partitions.
//! In debug builds the indexed job picker additionally cross-checks
//! itself against the scan picker on every single pick, so any index
//! divergence fails these tests immediately even if the end state
//! happened to agree.

use gmdf_codegen::{compile_system, CompileOptions, InstrumentOptions};
use gmdf_comdes::{
    ActorBuilder, BasicOp, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, SignalValue, System,
    Timing, VAR_TIME_IN_STATE,
};
use gmdf_target::{DispatchMode, SimConfig, SimEvent, Simulator};
use proptest::prelude::*;

// -- randomized workload ----------------------------------------------------

/// What one generated actor does.
#[derive(Debug, Clone, Copy)]
enum ActorKind {
    /// Ring FSM dwelling per state — never quiescent (its time-in-state
    /// counter advances), exercising the memo *miss* path.
    Ring { states: usize },
    /// Low-pass filter over the global stimulus label `u` — quiescent
    /// whenever `u` and its internal state are stable.
    Filter,
    /// Gain stage consuming the most recent real-valued label produced
    /// by an earlier actor (possibly on another node — exercising
    /// broadcast deliveries), or `u` if there is none yet.
    Relay,
}

#[derive(Debug, Clone)]
struct ActorSpec {
    kind: ActorKind,
    period_ns: u64,
    offset_ns: u64,
    /// `true`: deadline = period / 2 (tight — provokes deadline misses
    /// and the late-publication path under load).
    tight_deadline: bool,
    priority: u8,
}

/// Builds a multi-node system from per-node actor specs. Every actor
/// publishes its own label; relays chain real-valued labels across
/// nodes so bus deliveries carry data the behaviour depends on.
fn build_system(nodes: &[Vec<ActorSpec>]) -> System {
    let mut system = System::new("prop_sys");
    let mut last_real_label: Option<String> = None;
    for (ni, actors) in nodes.iter().enumerate() {
        let mut node = NodeSpec::new(&format!("n{ni}"), 50_000_000);
        for (ai, spec) in actors.iter().enumerate() {
            let timing = Timing {
                period_ns: spec.period_ns,
                offset_ns: spec.offset_ns,
                deadline_ns: if spec.tight_deadline {
                    spec.period_ns / 2
                } else {
                    spec.period_ns
                },
                priority: spec.priority,
            };
            let out_label = format!("sig_{ni}_{ai}");
            let actor = match spec.kind {
                ActorKind::Ring { states } => {
                    let mut fb = FsmBuilder::new().output(Port::int("s"));
                    for i in 0..states {
                        fb = fb.state(&format!("S{i}"), |st| st.entry("s", Expr::Int(i as i64)));
                    }
                    for i in 0..states {
                        fb = fb.transition(
                            &format!("S{i}"),
                            &format!("S{}", (i + 1) % states),
                            Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(0.0015)),
                        );
                    }
                    let fsm = fb.initial("S0").build().unwrap();
                    let net = NetworkBuilder::new()
                        .output(Port::int("s"))
                        .state_machine("ring", fsm)
                        .connect("ring.s", "s")
                        .unwrap()
                        .build()
                        .unwrap();
                    ActorBuilder::new(&format!("Ring{ni}_{ai}"), net)
                        .output("s", &out_label)
                        .timing(timing)
                        .build()
                        .unwrap()
                }
                ActorKind::Filter => {
                    let net = NetworkBuilder::new()
                        .input(Port::real("x"))
                        .output(Port::real("y"))
                        .block("lp", BasicOp::LowPass { alpha: 0.5 })
                        .connect("x", "lp.x")
                        .unwrap()
                        .connect("lp.y", "y")
                        .unwrap()
                        .build()
                        .unwrap();
                    let actor = ActorBuilder::new(&format!("Filter{ni}_{ai}"), net)
                        .input("x", "u")
                        .output("y", &out_label)
                        .timing(timing)
                        .build()
                        .unwrap();
                    last_real_label = Some(out_label.clone());
                    actor
                }
                ActorKind::Relay => {
                    let src = last_real_label.clone().unwrap_or_else(|| "u".to_owned());
                    let net = NetworkBuilder::new()
                        .input(Port::real("x"))
                        .output(Port::real("y"))
                        .block("g", BasicOp::Gain { k: 1.5 })
                        .connect("x", "g.x")
                        .unwrap()
                        .connect("g.y", "y")
                        .unwrap()
                        .build()
                        .unwrap();
                    let actor = ActorBuilder::new(&format!("Relay{ni}_{ai}"), net)
                        .input("x", &src)
                        .output("y", &out_label)
                        .timing(timing)
                        .build()
                        .unwrap();
                    last_real_label = Some(out_label.clone());
                    actor
                }
            };
            node.actors.push(actor);
        }
        system = system.with_node(node);
    }
    system
}

fn arb_actor() -> impl Strategy<Value = ActorSpec> {
    (
        (0u8..3, 2usize..5, 0usize..4 /* period selector */),
        (0usize..3 /* offset selector */, any::<bool>(), 0u8..3),
    )
        .prop_map(|((kind, states, pi), (oi, tight_deadline, priority))| {
            let kind = match kind {
                0 => ActorKind::Ring { states },
                1 => ActorKind::Filter,
                _ => ActorKind::Relay,
            };
            ActorSpec {
                kind,
                period_ns: [500_000, 1_000_000, 1_250_000, 2_000_000][pi],
                offset_ns: [0, 137_000, 250_000][oi],
                tight_deadline,
                priority,
            }
        })
}

fn arb_nodes() -> impl Strategy<Value = Vec<Vec<ActorSpec>>> {
    proptest::collection::vec(proptest::collection::vec(arb_actor(), 1..4), 1..4)
}

/// Random platform knobs shared by all simulators of one case.
#[derive(Debug, Clone)]
struct PlatformSpec {
    seed: u64,
    clock_jitter_ns: u64,
    tick_ns: u64,
    bus_latency_ns: u64,
    latch_outputs: bool,
    instrument: u8,
}

fn arb_platform() -> impl Strategy<Value = PlatformSpec> {
    (
        any::<u64>(),
        prop_oneof![Just(0u64), Just(40_000u64)],
        prop_oneof![Just(0u64), Just(100_000u64)],
        prop_oneof![Just(0u64), Just(150_000u64)],
        any::<bool>(),
    )
        .prop_map(
            |(seed, clock_jitter_ns, tick_ns, bus_latency_ns, latch_outputs)| PlatformSpec {
                seed,
                clock_jitter_ns,
                tick_ns,
                bus_latency_ns,
                latch_outputs,
                instrument: (seed % 3) as u8,
            },
        )
}

fn config_of(p: &PlatformSpec, dispatch: DispatchMode, memo_steps: bool) -> SimConfig {
    SimConfig {
        latch_outputs: p.latch_outputs,
        bus_latency_ns: p.bus_latency_ns,
        uart_baud: 1_000_000,
        tick_ns: p.tick_ns,
        clock_jitter_ns: p.clock_jitter_ns,
        seed: p.seed,
        dispatch,
        memo_steps,
        ..SimConfig::default()
    }
}

const HORIZON_NS: u64 = 20_000_000;

/// Runs the image under `config`, either one-shot or over `slices`
/// (cycled until the horizon), and returns the observables the
/// determinism contract covers: the debug-formatted event log and each
/// node's timestamped UART bytes.
fn observe(
    system: &System,
    p: &PlatformSpec,
    config: SimConfig,
    slices: Option<&[u64]>,
) -> (String, Vec<Vec<(u64, u8)>>) {
    let instrument = match p.instrument {
        0 => InstrumentOptions::none(),
        1 => InstrumentOptions::behavior(),
        _ => InstrumentOptions::full(),
    };
    let image = compile_system(
        system,
        &CompileOptions {
            instrument,
            faults: vec![],
        },
    )
    .expect("compiles");
    let node_names: Vec<String> = image.nodes.iter().map(|n| n.node.clone()).collect();
    let mut sim = Simulator::new(image, config).expect("boots");
    sim.record_events();
    // Stimuli on `u`: a step profile every 3 ms, plus one mid-slice.
    for k in 0..7u64 {
        sim.schedule_signal(k * 3_000_000, "u", SignalValue::Real((k % 3) as f64))
            .ok(); // systems without a `u` consumer reject the label
    }
    match slices {
        None => sim.run_until(HORIZON_NS).expect("runs"),
        Some(slices) => {
            let mut k = 0usize;
            while sim.now_ns() < HORIZON_NS {
                let dt = slices[k % slices.len()].min(HORIZON_NS - sim.now_ns());
                sim.run_for_slice(dt).expect("runs");
                k += 1;
            }
        }
    }
    let bytes = node_names
        .iter()
        .map(|n| sim.uart_take(n).expect("known node"))
        .collect();
    assert!(!sim.events().is_empty(), "the run must record events");
    (format!("{:?}", sim.events()), bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tentpole equivalence: a calendar-dispatched, memoized,
    /// arbitrarily sliced run is observably identical to the legacy
    /// full-scan, unmemoized, one-shot run — over random images,
    /// jitter seeds, tick/latency models and slice partitions.
    #[test]
    fn calendar_memo_sliced_equals_scan_oneshot(
        nodes in arb_nodes(),
        platform in arb_platform(),
        slices in proptest::collection::vec(
            prop_oneof![
                Just(13u64),
                Just(333u64),
                Just(70_001u64),
                Just(1_250_000u64),
                Just(5_000_000u64),
            ],
            1..6,
        ),
    ) {
        let system = build_system(&nodes);
        let oracle = observe(
            &system,
            &platform,
            config_of(&platform, DispatchMode::LegacyScan, false),
            None,
        );
        let calendar_sliced = observe(
            &system,
            &platform,
            config_of(&platform, DispatchMode::Calendar, true),
            Some(&slices),
        );
        prop_assert_eq!(&oracle.0, &calendar_sliced.0, "event logs diverged");
        prop_assert_eq!(&oracle.1, &calendar_sliced.1, "UART streams diverged");
        // Memo off on the calendar path: isolates dispatch from caching.
        let calendar_plain = observe(
            &system,
            &platform,
            config_of(&platform, DispatchMode::Calendar, false),
            None,
        );
        prop_assert_eq!(&oracle.0, &calendar_plain.0);
        prop_assert_eq!(&oracle.1, &calendar_plain.1);
    }
}

// -- memoization ------------------------------------------------------------

/// A single-node stateless pipeline (`y = 2x`): quiescent whenever the
/// stimulus holds still, so the memo should absorb almost every release.
fn doubler_system() -> System {
    let net = NetworkBuilder::new()
        .input(Port::real("x"))
        .output(Port::real("y"))
        .block("g", BasicOp::Gain { k: 2.0 })
        .connect("x", "g.x")
        .unwrap()
        .connect("g.y", "y")
        .unwrap()
        .build()
        .unwrap();
    let actor = ActorBuilder::new("Doubler", net)
        .input("x", "in")
        .output("y", "out")
        .timing(Timing::periodic(1_000_000, 0))
        .build()
        .unwrap();
    let mut node = NodeSpec::new("ecu", 50_000_000);
    node.actors.push(actor);
    System::new("doubler").with_node(node)
}

fn boot(system: &System, config: SimConfig) -> Simulator {
    let image = compile_system(
        system,
        &CompileOptions {
            instrument: InstrumentOptions::full(),
            faults: vec![],
        },
    )
    .expect("compiles");
    let mut sim = Simulator::new(image, config).expect("boots");
    sim.record_events();
    sim
}

#[test]
fn memo_hits_skip_the_vm_without_changing_behaviour() {
    let system = doubler_system();
    let run = |memo_steps: bool| {
        let mut sim = boot(
            &system,
            SimConfig {
                memo_steps,
                ..SimConfig::default()
            },
        );
        sim.schedule_signal(0, "in", SignalValue::Real(3.0))
            .unwrap();
        // One input change mid-run: a new footprint, then quiescence again.
        sim.schedule_signal(10_500_000, "in", SignalValue::Real(7.0))
            .unwrap();
        sim.run_until(20_000_000).unwrap();
        let bytes = sim.uart_take("ecu").unwrap();
        let out = sim.read_signal("ecu", "out").unwrap();
        assert!(!sim.events().is_empty(), "the run must record events");
        (format!("{:?}", sim.events()), bytes, out, sim.memo_stats())
    };
    let (ev_on, bytes_on, out_on, (hits, misses)) = run(true);
    let (ev_off, bytes_off, out_off, (hits_off, misses_off)) = run(false);
    // The counter proves the VM was actually skipped…
    assert!(
        hits >= 15,
        "expected most releases to hit the cache: {hits}"
    );
    // Two misses per input plateau: the step that sees the new input,
    // and the next one (the output latch — part of the footprint — only
    // settles to the new value after that first step).
    assert_eq!(misses, 4, "two cold misses per distinct input plateau");
    assert_eq!((hits_off, misses_off), (0, 0), "memo off must not count");
    // …while every observable stays bit-identical.
    assert_eq!(ev_on, ev_off);
    assert_eq!(bytes_on, bytes_off);
    assert_eq!(out_on, out_off);
    assert_eq!(out_on, SignalValue::Real(14.0));
}

#[test]
fn cyclic_fsm_footprints_repeat_and_stay_exact() {
    // A dwelling ring FSM is never *quiescent* — its time-in-state cell
    // advances every activation — but its (state, dwell-ticks) space is
    // finite and cyclic: 3 states × 2 activations each. After one full
    // lap the footprints repeat, so the memo starts hitting, and the
    // memoized run must still match the unmemoized one exactly.
    let mut fb = FsmBuilder::new().output(Port::int("s"));
    for i in 0..3 {
        fb = fb.state(&format!("S{i}"), |st| st.entry("s", Expr::Int(i)));
    }
    for i in 0..3 {
        fb = fb.transition(
            &format!("S{i}"),
            &format!("S{}", (i + 1) % 3),
            Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(0.002)),
        );
    }
    let fsm = fb.initial("S0").build().unwrap();
    let net = NetworkBuilder::new()
        .output(Port::int("s"))
        .state_machine("ring", fsm)
        .connect("ring.s", "s")
        .unwrap()
        .build()
        .unwrap();
    let actor = ActorBuilder::new("Ring", net)
        .output("s", "state_sig")
        .timing(Timing::periodic(1_000_000, 0))
        .build()
        .unwrap();
    let mut node = NodeSpec::new("ecu", 50_000_000);
    node.actors.push(actor);
    let system = System::new("ring").with_node(node);

    let mut memoized = boot(&system, SimConfig::default());
    memoized.run_until(15_000_000).unwrap();
    let (hits, misses) = memoized.memo_stats();
    assert!(hits >= 6, "the second lap onwards should hit: {hits}");
    assert!(
        misses <= 9,
        "misses bounded by the warm-up lap, not the horizon: {misses}"
    );

    let mut plain = boot(
        &system,
        SimConfig {
            memo_steps: false,
            ..SimConfig::default()
        },
    );
    plain.run_until(15_000_000).unwrap();
    assert!(!plain.events().is_empty(), "the run must record events");
    assert_eq!(
        format!("{:?}", memoized.events()),
        format!("{:?}", plain.events())
    );
    assert_eq!(
        memoized.uart_take("ecu").unwrap(),
        plain.uart_take("ecu").unwrap()
    );
}

#[test]
fn uart_take_into_appends_and_matches_uart_take() {
    let system = doubler_system();
    let mut a = boot(&system, SimConfig::default());
    let mut b = boot(&system, SimConfig::default());
    for sim in [&mut a, &mut b] {
        sim.schedule_signal(0, "in", SignalValue::Real(1.0))
            .unwrap();
        sim.run_until(5_000_000).unwrap();
    }
    let taken = a.uart_take("ecu").unwrap();
    let mut buf = vec![(0u64, 0xEEu8)]; // pre-existing content survives
    let n = b.uart_take_into("ecu", &mut buf).unwrap();
    assert_eq!(n, taken.len());
    assert_eq!(buf[0], (0, 0xEE));
    assert_eq!(&buf[1..], &taken[..]);
    // The queue is drained: a second take yields nothing new.
    assert_eq!(b.uart_take_into("ecu", &mut buf).unwrap(), 0);
}

// -- calendar-specific edges ------------------------------------------------

#[test]
fn legacy_scan_knob_round_trips_through_config() {
    let system = doubler_system();
    let sim = boot(
        &system,
        SimConfig {
            dispatch: DispatchMode::LegacyScan,
            ..SimConfig::default()
        },
    );
    assert_eq!(sim.config().dispatch, DispatchMode::LegacyScan);
    assert_eq!(SimConfig::default().dispatch, DispatchMode::Calendar);
}

#[test]
fn deadline_miss_path_is_identical_across_dispatch_modes() {
    // Tight deadlines + a slow CPU force misses and late publication;
    // both dispatchers must tell the identical story.
    let net = NetworkBuilder::new()
        .input(Port::real("x"))
        .output(Port::real("y"))
        .block(
            "p",
            BasicOp::Pid {
                kp: 1.0,
                ki: 0.1,
                kd: 0.01,
                lo: -1e9,
                hi: 1e9,
            },
        )
        .connect("x", "p.sp")
        .unwrap()
        .connect("p.u", "y")
        .unwrap()
        .build()
        .unwrap();
    let actor = ActorBuilder::new("Pid", net)
        .input("x", "u")
        .output("y", "out")
        .timing(Timing {
            period_ns: 100_000,
            offset_ns: 0,
            deadline_ns: 10_000,
            priority: 0,
        })
        .build()
        .unwrap();
    let mut node = NodeSpec::new("slow", 1_000_000); // 1 MHz CPU
    node.actors.push(actor);
    let system = System::new("overload").with_node(node);

    let observe = |dispatch| {
        let mut sim = boot(
            &system,
            SimConfig {
                dispatch,
                ..SimConfig::default()
            },
        );
        sim.schedule_signal(0, "u", SignalValue::Real(5.0)).unwrap();
        sim.run_until(3_000_000).unwrap();
        assert!(
            sim.events()
                .iter()
                .any(|e| matches!(e, SimEvent::DeadlineMiss { .. })),
            "workload must actually overload the CPU"
        );
        (
            format!("{:?}", sim.events()),
            sim.uart_take("slow").unwrap(),
        )
    };
    assert_eq!(
        observe(DispatchMode::Calendar),
        observe(DispatchMode::LegacyScan)
    );
}
