//! Distributed multi-instance debugging over the passive JTAG channel.
//!
//! Three actors on three nodes — sensor filter, hysteresis controller,
//! valve driver — exchanging labeled state messages (paper §III). The
//! debugger watches the controller's state variable through IEEE 1149.1
//! TAP scans: **zero** target cycles, no code modification (paper §II's
//! passive solution). The example also measures the I/O jitter the
//! deadline-latching runtime eliminates.
//!
//! Run with `cargo run --example distributed_heating`.

use gmdf::{ChannelMode, Workflow};
use gmdf_codegen::{compile_system, CompileOptions, InstrumentOptions};
use gmdf_comdes::{
    ActorBuilder, BasicOp, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, SignalValue, System,
    Timing,
};
use gmdf_engine::timing_diagram;
use gmdf_target::{SimConfig, SimEvent, Simulator};

fn heating_system() -> Result<System, gmdf_comdes::ComdesError> {
    // Node 1: sensor conditioning (low-pass the raw reading).
    let sensor_net = NetworkBuilder::new()
        .input(Port::real("raw"))
        .output(Port::real("temp"))
        .block("lp", BasicOp::LowPass { alpha: 0.4 })
        .connect("raw", "lp.x")?
        .connect("lp.y", "temp")?
        .build()?;
    let sensor = ActorBuilder::new("Sensor", sensor_net)
        .input("raw", "raw_temp")
        .output("temp", "temp")
        .timing(Timing::periodic(50_000_000, 0))
        .build()?;

    // Node 2: hysteresis thermostat as an explicit state machine.
    let fsm = FsmBuilder::new()
        .input(Port::real("temp"))
        .output(Port::boolean("heat"))
        .state("Idle", |s| s.entry("heat", Expr::Bool(false)))
        .state("Heating", |s| s.entry("heat", Expr::Bool(true)))
        .transition("Idle", "Heating", Expr::var("temp").lt(Expr::Real(19.5)))
        .transition("Heating", "Idle", Expr::var("temp").gt(Expr::Real(21.0)))
        .initial("Idle")
        .build()?;
    let ctl_net = NetworkBuilder::new()
        .input(Port::real("temp"))
        .output(Port::boolean("heat"))
        .state_machine("thermostat", fsm)
        .connect("temp", "thermostat.temp")?
        .connect("thermostat.heat", "heat")?
        .build()?;
    let controller = ActorBuilder::new("Controller", ctl_net)
        .input("temp", "temp")
        .output("heat", "heat_cmd")
        .timing(Timing::periodic(100_000_000, 0))
        .build()?;

    // Node 3: valve driver (rate-limited actuation).
    let valve_net = NetworkBuilder::new()
        .input(Port::boolean("heat"))
        .output(Port::real("valve"))
        .block("sel", BasicOp::Select)
        .block("hi", BasicOp::Const(SignalValue::Real(100.0)))
        .block("lo", BasicOp::Const(SignalValue::Real(0.0)))
        .block(
            "slew",
            BasicOp::RateLimiter {
                max_rise: 200.0,
                max_fall: 200.0,
            },
        )
        .connect("heat", "sel.sel")?
        .connect("hi.y", "sel.a")?
        .connect("lo.y", "sel.b")?
        .connect("sel.y", "slew.x")?
        .connect("slew.y", "valve")?
        .build()?;
    let valve = ActorBuilder::new("Valve", valve_net)
        .input("heat", "heat_cmd")
        .output("valve", "valve_pos")
        .timing(Timing::periodic(50_000_000, 1))
        .build()?;

    let mut n1 = NodeSpec::new("sensor_node", 50_000_000);
    n1.actors.push(sensor);
    let mut n2 = NodeSpec::new("control_node", 50_000_000);
    n2.actors.push(controller);
    let mut n3 = NodeSpec::new("valve_node", 50_000_000);
    n3.actors.push(valve);
    Ok(System::new("heating")
        .with_node(n1)
        .with_node(n2)
        .with_node(n3))
}

/// A slow sinusoid-ish room temperature profile.
fn temperature_profile(session: &mut gmdf::DebugSession) -> Result<(), gmdf::SessionError> {
    for k in 0..120 {
        let t_ns = k * 100_000_000;
        let temp = 20.0 + 2.5 * ((k as f64) * 0.12).sin() - 0.8;
        session.schedule_signal(t_ns, "raw_temp", SignalValue::Real(temp))?;
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("GMDF distributed heating — 3 actors / 3 nodes, passive JTAG channel\n");

    let system = heating_system()?;
    let mut session = Workflow::from_system(system.clone())?
        .default_abstraction()
        .default_commands()
        .connect(
            // Passive: poll monitored variables every 5 ms over a 10 MHz TAP.
            ChannelMode::Passive {
                poll_period_ns: 5_000_000,
                tck_hz: 10_000_000,
            },
            CompileOptions {
                instrument: InstrumentOptions::none(), // no code modifications
                faults: vec![],
            },
            SimConfig {
                bus_latency_ns: 200_000,
                ..SimConfig::default()
            },
        )?;
    temperature_profile(&mut session)?;

    let report = session.run_for(12_000_000_000)?;
    println!(
        "passive run: {} watch-derived commands, 0 bytes of instrumentation traffic",
        report.events_fed
    );
    println!("\nthermostat activity (from JTAG watch hits):");
    for e in session.engine().trace().entries() {
        println!("  {}", e.event);
    }
    println!(
        "\nfinal animated model:\n{}",
        session.engine().frame_ascii()
    );
    println!(
        "{}",
        timing_diagram(session.engine().trace(), "Controller/thermostat").to_ascii(90)
    );

    // ---- Jitter measurement: deadline latching on vs off -----------------
    println!("I/O jitter of the Valve actor's publications:");
    let jitter_of = |latch: bool| -> Result<(usize, i64), Box<dyn std::error::Error>> {
        let image = compile_system(
            &system,
            &CompileOptions {
                instrument: InstrumentOptions::none(),
                faults: vec![],
            },
        )?;
        let mut sim = Simulator::new(
            image,
            SimConfig {
                latch_outputs: latch,
                ..SimConfig::default()
            },
        )?;
        sim.record_events();
        sim.schedule_signal(0, "raw_temp", SignalValue::Real(18.0))?;
        sim.run_until(5_000_000_000)?;
        let times: Vec<u64> = sim
            .events()
            .iter()
            .filter_map(|e| match e {
                SimEvent::Publish { time_ns, label, .. } if &**label == "valve_pos" => {
                    Some(*time_ns)
                }
                _ => None,
            })
            .collect();
        let intervals: Vec<i64> = times
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        let jitter = intervals.iter().max().unwrap_or(&0) - intervals.iter().min().unwrap_or(&0);
        Ok((times.len(), jitter))
    };
    let (n_latched, j_latched) = jitter_of(true)?;
    let (n_unlatched, j_unlatched) = jitter_of(false)?;
    println!("  timed multitasking (publish at deadline):   {n_latched} publications, jitter = {j_latched} ns");
    println!("  completion-time publication (no latching):  {n_unlatched} publications, jitter = {j_unlatched} ns");

    let out_dir = std::path::Path::new("target/gmdf-artifacts");
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join("heating-frame.svg"),
        session.engine().frame_svg(),
    )?;
    std::fs::write(
        out_dir.join("heating-timing.svg"),
        timing_diagram(session.engine().trace(), "Controller/thermostat").to_svg(),
    )?;
    println!("\nartifacts written to {}", out_dir.display());
    Ok(())
}
