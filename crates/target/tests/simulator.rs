//! Target-simulator contract tests: the UART byte stream decodes frame
//! for frame, the JTAG watch unit polls in order and coalesces, and the
//! whole platform is deterministic.

use gmdf_codegen::{compile_system, CommandKind, CompileOptions, FrameDecoder, InstrumentOptions};
use gmdf_comdes::{
    ActorBuilder, BasicOp, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, SignalValue, System,
    Timing, VAR_TIME_IN_STATE,
};
use gmdf_target::{JtagMonitor, SimConfig, SimEvent, Simulator};

/// A ring FSM dwelling `dwell_s` per state, as a one-node system.
fn ring_system(n_states: usize, dwell_s: f64, period_ns: u64) -> System {
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
        .timing(Timing::periodic(period_ns, 0))
        .build()
        .unwrap();
    let mut node = NodeSpec::new("ecu", 50_000_000);
    node.actors.push(actor);
    System::new("ring_sys").with_node(node)
}

fn boot(system: &System, instrument: InstrumentOptions, config: SimConfig) -> Simulator {
    let image = compile_system(
        system,
        &CompileOptions {
            instrument,
            faults: vec![],
        },
    )
    .expect("compiles");
    let mut sim = Simulator::new(image, config).expect("boots");
    sim.record_events();
    sim
}

#[test]
fn uart_frames_round_trip_through_the_decoder() {
    let system = ring_system(4, 0.002, 1_000_000);
    // A fast debug link so full instrumentation does not saturate it.
    let mut sim = boot(
        &system,
        InstrumentOptions::full(),
        SimConfig {
            uart_baud: 1_000_000,
            ..SimConfig::default()
        },
    );
    let debug = sim.image().debug.clone();
    sim.run_until(40_000_000).unwrap();

    let bytes = sim.uart_take("ecu").unwrap();
    assert!(!bytes.is_empty(), "instrumented code must emit frames");
    // Timestamps are monotonic and spaced at least one UART byte apart.
    let byte_ns = 10_000_000_000 / sim.config().uart_baud;
    for w in bytes.windows(2) {
        assert!(w[1].0 >= w[0].0 + byte_ns, "{w:?}");
    }

    // Every frame decodes cleanly and resolves in the event table.
    let raw: Vec<u8> = bytes.iter().map(|&(_, b)| b).collect();
    let mut dec = FrameDecoder::new();
    let frames = dec.feed(&raw);
    assert_eq!(dec.crc_errors, 0);
    assert_eq!(dec.discarded, 0);
    assert!(frames.len() >= 30, "task pairs + transitions over 40 ms");
    for f in &frames {
        assert!(
            debug.event(f.event).is_some(),
            "unknown event id {}",
            f.event
        );
    }
    // The behavioural subsequence is the ring walk S1, S2, S3, S0, …
    let entered: Vec<&str> = frames
        .iter()
        .filter_map(|f| {
            let spec = debug.event(f.event).unwrap();
            if spec.kind == CommandKind::StateEnter {
                spec.to.as_deref()
            } else {
                None
            }
        })
        .collect();
    assert!(entered.len() >= 8);
    for (i, s) in entered.iter().enumerate() {
        assert_eq!(*s, format!("S{}", (i + 1) % 4), "ring order at {i}");
    }
}

#[test]
fn uart_byte_stream_is_empty_without_instrumentation() {
    let system = ring_system(4, 0.002, 1_000_000);
    let mut sim = boot(&system, InstrumentOptions::none(), SimConfig::default());
    sim.run_until(20_000_000).unwrap();
    assert!(sim.uart_take("ecu").unwrap().is_empty());
}

#[test]
fn jtag_polls_in_registration_order_and_coalesces() {
    // The ring advances every 2 ms (1 ms dwell sampled at 1 ms periods
    // fires on the second step in each state); polling every 4 ms must
    // therefore skip exactly one state per poll.
    let system = ring_system(8, 0.001, 1_000_000);
    let mut sim = boot(&system, InstrumentOptions::none(), SimConfig::default());
    // Poll every 4 ms; registration order: ticks cell, then state cell.
    let mut monitor = JtagMonitor::new(4_000_000, 10_000_000);
    monitor.watch(&sim, "ecu", "Ring/ring#ticks").unwrap();
    monitor.watch(&sim, "ecu", "Ring/ring#state").unwrap();
    let hits = monitor.run_until(&mut sim, 12_000_000).unwrap();
    assert!(monitor.scan_ns_total > 0, "host pays scan time");
    assert!(sim.cycles_executed("ecu").unwrap() > 0);

    // Within one poll instant, events preserve registration order.
    for w in hits.windows(2) {
        if w[0].time_ns == w[1].time_ns {
            assert!(
                (w[0].symbol.as_str(), w[1].symbol.as_str())
                    == ("Ring/ring#ticks", "Ring/ring#state"),
                "per-poll ordering broke: {w:?}"
            );
        }
    }

    // Intermediate states coalesce away: each observed state jumps by 2
    // (mod 8) over its predecessor, never by the single step a
    // fast-enough poll would see.
    let states: Vec<i64> = hits
        .iter()
        .filter(|h| h.symbol == "Ring/ring#state")
        .map(|h| h.value.as_int().unwrap())
        .collect();
    assert!(states.len() >= 3);
    for w in states.windows(2) {
        let jump = (w[1] - w[0]).rem_euclid(8);
        assert_eq!(jump, 2, "coalesced polling must skip states: {states:?}");
    }
}

#[test]
fn same_image_and_config_replay_identically() {
    let system = ring_system(5, 0.0015, 1_000_000);
    let run = || {
        let mut sim = boot(
            &system,
            InstrumentOptions::behavior(),
            SimConfig {
                clock_jitter_ns: 40_000,
                ..SimConfig::default()
            },
        );
        sim.schedule_signal(0, "state_sig", SignalValue::Int(0))
            .unwrap();
        sim.run_until(30_000_000).unwrap();
        let bytes = sim.uart_take("ecu").unwrap();
        assert!(!sim.events().is_empty(), "the run must record events");
        (format!("{:?}", sim.events()), bytes)
    };
    let (events_a, bytes_a) = run();
    let (events_b, bytes_b) = run();
    assert_eq!(events_a, events_b, "event logs must be bit-identical");
    assert_eq!(bytes_a, bytes_b, "UART streams must be bit-identical");
}

#[test]
fn incremental_runs_match_one_big_run() {
    let system = ring_system(4, 0.002, 1_000_000);
    let mut a = boot(&system, InstrumentOptions::behavior(), SimConfig::default());
    a.run_until(25_000_000).unwrap();
    let mut b = boot(&system, InstrumentOptions::behavior(), SimConfig::default());
    for t in [1_000_000, 1_500_000, 9_999_999, 20_000_000, 25_000_000] {
        b.run_until(t).unwrap();
    }
    assert!(!a.events().is_empty(), "the run must record events");
    assert_eq!(format!("{:?}", a.events()), format!("{:?}", b.events()));
    assert_eq!(a.uart_take("ecu").unwrap(), b.uart_take("ecu").unwrap());
}

#[test]
fn slice_pumping_matches_one_big_run() {
    let system = ring_system(4, 0.002, 1_000_000);
    let mut a = boot(&system, InstrumentOptions::behavior(), SimConfig::default());
    a.run_until(25_000_000).unwrap();
    // Pump in deliberately ragged slices (prime-ish sizes, not divisors
    // of any period) up to the same horizon.
    let mut b = boot(&system, InstrumentOptions::behavior(), SimConfig::default());
    let mut k = 0usize;
    while b.now_ns() < 25_000_000 {
        let slice = [13_337, 991, 742_101, 1_000_003][k % 4].min(25_000_000 - b.now_ns());
        let now = b.run_for_slice(slice).unwrap();
        assert_eq!(now, b.now_ns());
        k += 1;
    }
    assert!(!a.events().is_empty(), "the run must record events");
    assert_eq!(format!("{:?}", a.events()), format!("{:?}", b.events()));
    assert_eq!(a.uart_take("ecu").unwrap(), b.uart_take("ecu").unwrap());
}

#[test]
fn latched_outputs_publish_exactly_at_deadlines() {
    let system = ring_system(4, 0.002, 1_000_000);
    let mut sim = boot(&system, InstrumentOptions::none(), SimConfig::default());
    sim.run_until(10_000_000).unwrap();
    let publishes: Vec<u64> = sim
        .events()
        .iter()
        .filter_map(|e| match e {
            SimEvent::Publish { time_ns, .. } => Some(*time_ns),
            _ => None,
        })
        .collect();
    assert!(publishes.len() >= 9);
    for (i, t) in publishes.iter().enumerate() {
        // Release k at k ms, deadline (= period) at (k+1) ms.
        assert_eq!(*t, (i as u64 + 1) * 1_000_000);
    }
}

#[test]
fn unlatched_outputs_publish_at_completion_before_the_deadline() {
    let system = ring_system(4, 0.002, 1_000_000);
    let mut sim = boot(
        &system,
        InstrumentOptions::none(),
        SimConfig {
            latch_outputs: false,
            ..SimConfig::default()
        },
    );
    sim.run_until(10_000_000).unwrap();
    let mut completions = Vec::new();
    let mut publishes = Vec::new();
    for e in sim.events() {
        match e {
            SimEvent::Completion { time_ns, .. } => completions.push(*time_ns),
            SimEvent::Publish { time_ns, .. } => publishes.push(*time_ns),
            _ => {}
        }
    }
    assert_eq!(completions, publishes, "publication rides completion");
    for (k, t) in publishes.iter().enumerate() {
        let release = k as u64 * 1_000_000;
        assert!(*t > release && *t < release + 1_000_000, "{t}");
    }
}

#[test]
fn bus_latency_delays_remote_boards_only() {
    // Producer on one node, consumer board copy on the other.
    let net = NetworkBuilder::new()
        .input(Port::real("x"))
        .output(Port::real("y"))
        .block("g", BasicOp::Gain { k: 3.0 })
        .connect("x", "g.x")
        .unwrap()
        .connect("g.y", "y")
        .unwrap()
        .build()
        .unwrap();
    let producer = ActorBuilder::new("Prod", net.clone())
        .input("x", "in")
        .output("y", "mid")
        .timing(Timing::periodic(1_000_000, 0))
        .build()
        .unwrap();
    let consumer = ActorBuilder::new("Cons", net)
        .input("x", "mid")
        .output("y", "out")
        .timing(Timing::periodic(1_000_000, 0))
        .build()
        .unwrap();
    let mut na = NodeSpec::new("a", 50_000_000);
    na.actors.push(producer);
    let mut nb = NodeSpec::new("b", 50_000_000);
    nb.actors.push(consumer);
    let system = System::new("pair").with_node(na).with_node(nb);

    let mut sim = boot(
        &system,
        InstrumentOptions::none(),
        SimConfig {
            bus_latency_ns: 300_000,
            ..SimConfig::default()
        },
    );
    sim.schedule_signal(0, "in", SignalValue::Real(2.0))
        .unwrap();
    // Producer publishes mid = 6 at t = 1 ms on its own board…
    sim.run_until(1_000_000).unwrap();
    assert_eq!(sim.read_signal("a", "mid").unwrap(), SignalValue::Real(6.0));
    assert_eq!(sim.read_signal("b", "mid").unwrap(), SignalValue::Real(0.0));
    // …and node b sees it only after the bus latency.
    sim.run_until(1_300_000).unwrap();
    assert_eq!(sim.read_signal("b", "mid").unwrap(), SignalValue::Real(6.0));
}

#[test]
fn overload_reports_deadline_misses_and_late_publication() {
    // 40 PID stages at 1 MHz: far more demand than one 1 ms period.
    let mut b = NetworkBuilder::new()
        .input(Port::real("x"))
        .output(Port::real("y"));
    let mut prev = "x".to_owned();
    for i in 0..40 {
        let name = format!("p{i}");
        b = b.block(
            &name,
            BasicOp::Pid {
                kp: 1.0,
                ki: 0.1,
                kd: 0.01,
                lo: -1e9,
                hi: 1e9,
            },
        );
        b = b.connect(&prev, &format!("{name}.sp")).unwrap();
        prev = format!("{name}.u");
    }
    let net = b.connect(&prev, "y").unwrap().build().unwrap();
    let actor = ActorBuilder::new("Heavy", net)
        .input("x", "in")
        .output("y", "out")
        .timing(Timing::periodic(1_000_000, 0))
        .build()
        .unwrap();
    let mut node = NodeSpec::new("ecu", 1_000_000);
    node.actors.push(actor);
    let system = System::new("overload").with_node(node);

    let mut sim = boot(&system, InstrumentOptions::none(), SimConfig::default());
    sim.run_until(8_000_000).unwrap();
    let misses = sim
        .events()
        .iter()
        .filter(|e| matches!(e, SimEvent::DeadlineMiss { .. }))
        .count();
    assert!(misses > 0, "an overloaded CPU must miss deadlines");
    // A late activation publishes when it completes, not at the deadline.
    let first_miss = sim
        .events()
        .iter()
        .find_map(|e| match e {
            SimEvent::DeadlineMiss {
                time_ns,
                overrun_ns,
                ..
            } => Some((*time_ns, *overrun_ns)),
            _ => None,
        })
        .unwrap();
    assert!(first_miss.1 > 0);
}

#[test]
fn unknown_names_are_rejected() {
    let system = ring_system(3, 0.002, 1_000_000);
    let mut sim = boot(&system, InstrumentOptions::none(), SimConfig::default());
    assert!(sim
        .schedule_signal(0, "ghost", SignalValue::Real(0.0))
        .is_err());
    assert!(sim.read_signal("ecu", "ghost").is_err());
    assert!(sim.read_signal("nope", "state_sig").is_err());
    assert!(sim.cycles_executed("nope").is_err());
    assert!(sim.uart_take("nope").is_err());
    let mut monitor = JtagMonitor::new(1_000_000, 10_000_000);
    assert!(monitor.watch(&sim, "ecu", "Ring/ring#ghost").is_err());
    assert!(monitor.watch(&sim, "nope", "Ring/ring#state").is_err());
}

#[test]
fn clock_jitter_moves_releases_but_stays_deterministic() {
    let system = ring_system(4, 0.002, 1_000_000);
    let jittered = SimConfig {
        clock_jitter_ns: 200_000,
        ..SimConfig::default()
    };
    let mut sim = boot(&system, InstrumentOptions::none(), jittered);
    sim.run_until(10_000_000).unwrap();
    let releases: Vec<u64> = sim
        .events()
        .iter()
        .filter_map(|e| match e {
            SimEvent::Release { time_ns, .. } => Some(*time_ns),
            _ => None,
        })
        .collect();
    assert!(releases.len() >= 9);
    // At least one release must actually be displaced from its nominal
    // k·period instant, and none may be early.
    let mut displaced = 0;
    for (k, t) in releases.iter().enumerate() {
        let nominal = k as u64 * 1_000_000;
        assert!(*t >= nominal && *t <= nominal + 200_000, "{t} vs {nominal}");
        if *t != nominal {
            displaced += 1;
        }
    }
    assert!(displaced > 0, "jitter model had no effect: {releases:?}");
}

#[test]
fn oversized_jitter_is_capped_and_time_stays_monotone() {
    // Jitter far above the 1 ms period: releases must still be capped
    // below one period apart from nominal and the event log must never
    // run backward.
    let system = ring_system(4, 0.002, 1_000_000);
    let mut sim = boot(
        &system,
        InstrumentOptions::none(),
        SimConfig {
            clock_jitter_ns: 50_000_000,
            ..SimConfig::default()
        },
    );
    sim.run_until(20_000_000).unwrap();
    let mut releases = Vec::new();
    let mut last_t = 0;
    for e in sim.events() {
        assert!(e.time_ns() >= last_t, "event log ran backward: {e:?}");
        last_t = last_t.max(e.time_ns());
        if let SimEvent::Release { time_ns, .. } = e {
            releases.push(*time_ns);
        }
    }
    assert!(releases.len() >= 19);
    for (k, t) in releases.iter().enumerate() {
        let nominal = k as u64 * 1_000_000;
        assert!(
            *t >= nominal && *t < nominal + 1_000_000,
            "{t} vs {nominal}"
        );
    }
}

#[test]
fn jtag_monitor_resyncs_after_direct_simulator_advance() {
    let system = ring_system(8, 0.001, 1_000_000);
    let mut sim = boot(&system, InstrumentOptions::none(), SimConfig::default());
    let mut monitor = JtagMonitor::new(2_000_000, 10_000_000);
    monitor.watch(&sim, "ecu", "Ring/ring#state").unwrap();
    monitor.run_until(&mut sim, 4_000_000).unwrap();
    // The caller advances the platform without the probe attached…
    sim.run_until(20_000_000).unwrap();
    // …and the next monitored window must stamp hits with poll instants
    // inside it, never with stale pre-advance times.
    let hits = monitor.run_until(&mut sim, 26_000_000).unwrap();
    assert!(!hits.is_empty());
    for h in &hits {
        assert!(h.time_ns >= 20_000_000, "stale poll timestamp: {h:?}");
        assert_eq!(h.time_ns % 2_000_000, 0);
    }
}

#[test]
fn sub_cycle_stepping_matches_one_big_run() {
    // On a 1 MHz node a cycle is 1000 ns. Stepping run_until in 999 ns
    // increments — below the cycle time — must produce exactly the same
    // completions as one big run: execution progress is anchored to the
    // schedule, not to caller stepping granularity.
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
    let actor = ActorBuilder::new("Ctl", net)
        .input("x", "in")
        .output("y", "out")
        .timing(Timing::periodic(1_000_000, 0))
        .build()
        .unwrap();
    let mut node = NodeSpec::new("ecu", 1_000_000);
    node.actors.push(actor);
    let system = System::new("slow").with_node(node);

    let mut big = boot(&system, InstrumentOptions::none(), SimConfig::default());
    big.run_until(5_000_000).unwrap();

    let mut fine = boot(&system, InstrumentOptions::none(), SimConfig::default());
    let mut t = 0;
    while t < 5_000_000 {
        t = (t + 999).min(5_000_000);
        fine.run_until(t).unwrap();
    }

    assert!(!big.events().is_empty(), "the run must record events");
    assert_eq!(
        format!("{:?}", big.events()),
        format!("{:?}", fine.events())
    );
    assert!(
        big.events()
            .iter()
            .any(|e| matches!(e, SimEvent::Completion { .. })),
        "the slow task must still complete"
    );
    assert_eq!(
        big.cycles_executed("ecu").unwrap(),
        fine.cycles_executed("ecu").unwrap()
    );
}

#[test]
fn tick_plus_jitter_never_collapses_two_releases() {
    // tick 4 µs + jitter up to 9.999 µs on a 10 µs period: without the
    // tightened jitter cap, quantization collapses consecutive jittered
    // releases onto one tick (e.g. k=80 and k=81 both at 812 µs with the
    // default seed), double-stepping the task. Releases must stay
    // strictly increasing per task.
    let system = ring_system(4, 0.00002, 10_000);
    let mut sim = boot(
        &system,
        InstrumentOptions::none(),
        SimConfig {
            tick_ns: 4_000,
            clock_jitter_ns: 9_999,
            ..SimConfig::default()
        },
    );
    sim.run_until(2_000_000).unwrap();
    let releases: Vec<u64> = sim
        .events()
        .iter()
        .filter_map(|e| match e {
            SimEvent::Release { time_ns, .. } => Some(*time_ns),
            _ => None,
        })
        .collect();
    assert!(releases.len() >= 190);
    for w in releases.windows(2) {
        assert!(w[0] < w[1], "same-instant double release at {w:?}");
    }
}

#[test]
fn tick_at_or_above_a_period_is_rejected() {
    let system = ring_system(3, 0.002, 1_000_000);
    let image = compile_system(&system, &CompileOptions::default()).unwrap();
    let err = Simulator::new(
        image,
        SimConfig {
            tick_ns: 1_000_000,
            ..SimConfig::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("tick_ns"), "{err}");
}

#[test]
fn tick_quantization_aligns_releases() {
    let system = ring_system(4, 0.002, 1_000_000);
    // 1 ms period with an offset-free task and a 300 µs tick: releases
    // land on lcm boundaries (multiples of 300 µs at or after nominal).
    let mut sim = boot(
        &system,
        InstrumentOptions::none(),
        SimConfig {
            tick_ns: 300_000,
            ..SimConfig::default()
        },
    );
    sim.run_until(10_000_000).unwrap();
    for e in sim.events() {
        if let SimEvent::Release { time_ns, .. } = e {
            assert_eq!(time_ns % 300_000, 0, "release off the kernel tick");
        }
    }
}

#[test]
fn the_event_log_is_kept_only_from_the_opt_in() {
    let system = ring_system(4, 0.002, 1_000_000);
    let image = compile_system(
        &system,
        &CompileOptions {
            instrument: InstrumentOptions::behavior(),
            faults: vec![],
        },
    )
    .expect("compiles");
    let mut quiet = Simulator::new(image.clone(), SimConfig::default()).expect("boots");
    let mut recording = Simulator::new(image, SimConfig::default()).expect("boots");
    for sim in [&mut quiet, &mut recording] {
        sim.run_until(10_000_000).unwrap();
        assert!(sim.events().is_empty(), "a fresh simulator keeps no log");
    }
    recording.record_events();
    for sim in [&mut quiet, &mut recording] {
        sim.run_until(20_000_000).unwrap();
    }
    assert!(
        quiet.events().is_empty(),
        "the log stays off without the opt-in"
    );
    let releases = recording
        .events()
        .iter()
        .filter(|e| matches!(e, SimEvent::Release { .. }))
        .count();
    assert_eq!(releases, 10, "one release per period after the opt-in");
    assert!(
        recording.events().iter().all(|e| e.time_ns() > 10_000_000),
        "nothing before the opt-in is recorded"
    );
    // Recording observes; it changes nothing the platform does.
    assert_eq!(
        quiet.uart_take("ecu").unwrap(),
        recording.uart_take("ecu").unwrap()
    );
    assert_eq!(
        quiet.read_signal("ecu", "state_sig").unwrap(),
        recording.read_signal("ecu", "state_sig").unwrap()
    );
}

#[test]
fn restore_empties_the_log_and_keeps_the_switch() {
    let system = ring_system(4, 0.002, 1_000_000);
    let mut whole = boot(&system, InstrumentOptions::none(), SimConfig::default());
    whole.run_until(20_000_000).unwrap();

    let mut sim = boot(&system, InstrumentOptions::none(), SimConfig::default());
    sim.run_until(10_000_000).unwrap();
    let state = sim.save_state();
    sim.run_until(20_000_000).unwrap();
    assert!(!sim.events().is_empty(), "the run must record events");
    sim.restore_state(&state).unwrap();
    assert!(sim.events().is_empty(), "restore empties the log");
    sim.run_until(20_000_000).unwrap();
    let after_restore: Vec<&SimEvent> = whole
        .events()
        .iter()
        .filter(|e| e.time_ns() > 10_000_000)
        .collect();
    assert!(!after_restore.is_empty());
    assert_eq!(
        format!("{:?}", sim.events()),
        format!("{after_restore:?}"),
        "a recording simulator keeps recording after restore"
    );

    // A simulator that never opted in stays quiet across a restore.
    let image = compile_system(
        &system,
        &CompileOptions {
            instrument: InstrumentOptions::none(),
            faults: vec![],
        },
    )
    .expect("compiles");
    let mut quiet = Simulator::new(image, SimConfig::default()).expect("boots");
    quiet.restore_state(&state).unwrap();
    quiet.run_until(20_000_000).unwrap();
    assert!(quiet.events().is_empty());
}
