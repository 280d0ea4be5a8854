//! Response-time requirements through the full debugging pipeline: the
//! `ResponseWithin` monitor over task-boundary commands, and deadline-miss
//! visibility.

use gmdf_suite::prelude::*;

fn loaded_system(blocks: usize, cpu_hz: u64) -> System {
    let mut b = NetworkBuilder::new()
        .input(Port::real("x"))
        .output(Port::real("y"));
    let mut prev = "x".to_owned();
    for i in 0..blocks {
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
    let actor = ActorBuilder::new("Ctl", net)
        .input("x", "in")
        .output("y", "out")
        .timing(Timing::periodic(1_000_000, 0))
        .build()
        .unwrap();
    let mut node = NodeSpec::new("ecu", cpu_hz);
    node.actors.push(actor);
    System::new("loaded").with_node(node)
}

fn session(system: System) -> DebugSession {
    Workflow::from_system(system)
        .unwrap()
        .default_abstraction()
        .default_commands()
        .connect(
            ChannelMode::Active,
            CompileOptions {
                instrument: InstrumentOptions::full(), // task boundaries on
                faults: vec![],
            },
            // Response times are measured from frame *delivery* instants,
            // so the debug link must be fast enough that wire time does
            // not dominate (at 115200 baud the fully-instrumented frame
            // stream saturates the line and the measurement reflects UART
            // queueing — itself a realistic observation-channel artifact).
            SimConfig {
                uart_baud: 10_000_000,
                ..SimConfig::default()
            },
        )
        .unwrap()
}

#[test]
fn fast_cpu_meets_the_response_budget() {
    let mut s = session(loaded_system(10, 50_000_000));
    s.engine_mut().add_expectation(Expectation::ResponseWithin {
        task_path: "Ctl".into(),
        max_ns: 500_000,
    });
    let report = s.run_for(20_000_000).unwrap();
    assert!(report.events_fed > 0);
    assert_eq!(report.violations, 0, "{:?}", s.engine().violations());
}

#[test]
fn slow_cpu_violates_the_response_budget() {
    // Same code, 1 MHz clock: each activation takes far longer.
    let mut s = session(loaded_system(10, 1_000_000));
    s.engine_mut().add_expectation(Expectation::ResponseWithin {
        task_path: "Ctl".into(),
        max_ns: 500_000,
    });
    let report = s.run_for(20_000_000).unwrap();
    assert!(
        report.violations > 0,
        "a 1 MHz CPU cannot finish within 0.5 ms: {:?}",
        s.engine().violations()
    );
    let v = &s.engine().violations()[0];
    assert!(v.expectation.contains("response-within"));
}

#[test]
fn deadline_misses_are_visible_in_simulator_events() {
    // Overload hard enough to blow the deadline entirely.
    let system = loaded_system(60, 1_000_000);
    let image = compile_system(
        &system,
        &CompileOptions {
            instrument: InstrumentOptions::none(),
            faults: vec![],
        },
    )
    .unwrap();
    let mut sim = Simulator::new(image, SimConfig::default()).unwrap();
    sim.record_events();
    sim.run_until(10_000_000).unwrap();
    let misses = sim
        .events()
        .iter()
        .filter(|e| matches!(e, SimEvent::DeadlineMiss { .. }))
        .count();
    assert!(misses > 0);
}

#[test]
fn response_time_scales_with_clock() {
    let max_response = |hz: u64| -> u64 {
        let system = loaded_system(10, hz);
        let image = compile_system(
            &system,
            &CompileOptions {
                instrument: InstrumentOptions::none(),
                faults: vec![],
            },
        )
        .unwrap();
        let mut sim = Simulator::new(image, SimConfig::default()).unwrap();
        sim.record_events();
        sim.run_until(10_000_000).unwrap();
        sim.events()
            .iter()
            .filter_map(|e| match e {
                SimEvent::Completion { response_ns, .. } => Some(*response_ns),
                _ => None,
            })
            .max()
            .expect("completions")
    };
    let slow = max_response(10_000_000);
    let fast = max_response(100_000_000);
    assert_eq!(
        slow,
        fast * 10,
        "pure-compute response scales inversely with clock"
    );
}
