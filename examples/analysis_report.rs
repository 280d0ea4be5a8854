//! Static analysis vs. simulation: predict, then verify.
//!
//! Run with `cargo run --example analysis_report`.
//!
//! Builds a three-node preset fleet whose schedulability is *designed*
//! to span all three verdicts:
//!
//! * `sensor` — fast CPU, light tasks: everything `Schedulable`;
//! * `ctrl`   — slow MCU where a high-priority guard task squeezes the
//!   controller past its deadline: `DeadlineRisk`;
//! * `logger` — more demand than CPU: `Overutilized` (a warning, never
//!   a refusal — debugging overloaded specs is the point of a debugger).
//!
//! The example prints the static report (`gmdf-analyze`, the same pass
//! the debug server runs at session registration), then boots the
//! cycle-accurate simulator, runs 200 ms of fleet time, and annotates
//! each prediction with what actually happened: which flagged risks
//! fired as real deadline misses, and whether every `Schedulable` WCRT
//! bound held.

use gmdf_analyze::{analyze, Severity, TaskVerdict};
use gmdf_codegen::{compile_system, CompileOptions, InstrumentOptions};
use gmdf_comdes::{
    ActorBuilder, BasicOp, ComdesError, NetworkBuilder, NodeSpec, Port, System, Timing,
};
use gmdf_target::{SimConfig, SimEvent, Simulator};
use std::collections::BTreeMap;

/// An actor whose step is a chain of `len` float blocks — a knob for
/// dialing in worst-case execution time precisely.
fn chain_actor(
    name: &str,
    len: usize,
    input: Option<&str>,
    output: &str,
    timing: Timing,
) -> Result<gmdf_comdes::Actor, ComdesError> {
    let mut net = NetworkBuilder::new().output(Port::real("y"));
    let mut prev = if input.is_some() {
        net = net.input(Port::real("x"));
        "x".to_owned()
    } else {
        net = net.block("src", BasicOp::Const(1.0.into()));
        "src.y".to_owned()
    };
    for i in 0..len {
        let op = match i % 3 {
            0 => BasicOp::Gain { k: 1.01 },
            1 => BasicOp::Offset { c: -0.005 },
            _ => BasicOp::Limit {
                lo: -100.0,
                hi: 100.0,
            },
        };
        let bname = format!("b{i}");
        net = net
            .block(&bname, op)
            .connect(&prev, &format!("{bname}.x"))?;
        prev = format!("{bname}.y");
    }
    net = net.connect(&prev, "y")?;
    let mut builder = ActorBuilder::new(name, net.build()?).output("y", output);
    if let Some(label) = input {
        builder = builder.input("x", label);
    }
    builder.timing(timing).build()
}

fn fleet() -> Result<System, ComdesError> {
    // Fast CPU, light work: comfortably schedulable.
    let mut sensor = NodeSpec::new("sensor", 50_000_000);
    sensor.actors.push(chain_actor(
        "Acquire",
        6,
        None,
        "temp",
        Timing::periodic(1_000_000, 0),
    )?);
    sensor.actors.push(chain_actor(
        "Smooth",
        8,
        Some("temp"),
        "temp_f",
        Timing::periodic(1_000_000, 1),
    )?);

    // Slow MCU: a high-priority guard interferes with the controller
    // enough that its worst-case response crosses the deadline.
    let mut ctrl = NodeSpec::new("ctrl", 1_000_000);
    ctrl.actors.push(chain_actor(
        "Guard",
        20,
        Some("temp_f"),
        "guard_ok",
        Timing::periodic(500_000, 0),
    )?);
    ctrl.actors.push(chain_actor(
        "Pid",
        33,
        Some("temp_f"),
        "heat",
        Timing {
            period_ns: 2_000_000,
            offset_ns: 0,
            deadline_ns: 800_000,
            priority: 1,
        },
    )?);

    // More demand than CPU: utilization past 100 %.
    let mut logger = NodeSpec::new("logger", 1_000_000);
    logger.actors.push(chain_actor(
        "Audit",
        45,
        Some("heat"),
        "audit_ok",
        Timing::periodic(1_000_000, 0),
    )?);
    logger.actors.push(chain_actor(
        "Flush",
        45,
        Some("guard_ok"),
        "flush_ok",
        Timing::periodic(1_000_000, 1),
    )?);

    Ok(System::new("thermal_fleet")
        .with_node(sensor)
        .with_node(ctrl)
        .with_node(logger))
}

fn verdict_cell(v: &TaskVerdict) -> String {
    match v {
        TaskVerdict::Schedulable { wcrt_ns } => format!("schedulable (wcrt {wcrt_ns} ns)"),
        TaskVerdict::DeadlineRisk { bound_ns } => format!("DEADLINE RISK (bound {bound_ns} ns)"),
        TaskVerdict::Overutilized => "OVERUTILIZED".to_owned(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = fleet()?;
    let image = compile_system(
        &system,
        &CompileOptions {
            instrument: InstrumentOptions::behavior(),
            faults: vec![],
        },
    )?;
    let config = SimConfig::default();

    // ---- Static analysis (what the server runs at add_session) ------
    let report = analyze(&system, &image, &config)?;
    println!("== Static analysis: {} ==", report.system);
    for node in &report.nodes {
        println!(
            "\nnode `{}` @ {} MHz — utilization {:.1} %{}{}",
            node.node,
            node.cpu_hz / 1_000_000,
            node.utilization_ppm as f64 / 10_000.0,
            if node.overutilized {
                " (OVERUTILIZED)"
            } else {
                ""
            },
            match node.hyperperiod_ns {
                Some(h) => format!(", hyperperiod {} us", h / 1_000),
                None => String::new(),
            },
        );
        println!(
            "  {:<8} {:>10} {:>10} {:>4} {:>9} {:>9}  verdict",
            "task", "period", "deadline", "prio", "wcet", "jitter"
        );
        for t in &node.tasks {
            println!(
                "  {:<8} {:>10} {:>10} {:>4} {:>9} {:>9}  {}",
                t.actor,
                t.period_ns,
                t.deadline_ns,
                t.priority,
                t.wcet_ns,
                t.release_jitter_ns,
                verdict_cell(&t.verdict),
            );
        }
    }

    let (errors, warnings) = report.diagnostic_counts();
    println!("\n== Diagnostics ({errors} errors, {warnings} warnings) ==");
    for d in &report.diagnostics {
        let tag = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warn ",
            Severity::Info => "info ",
        };
        println!("  [{tag}] {d}");
    }

    // ---- Simulation: does reality agree? ----------------------------
    const HORIZON_NS: u64 = 200_000_000;
    let mut sim = Simulator::new(image, config)?;
    sim.record_events();
    sim.run_until(HORIZON_NS)?;

    let mut max_response: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut misses: BTreeMap<(String, String), u64> = BTreeMap::new();
    for ev in sim.events() {
        match ev {
            SimEvent::Completion {
                node,
                actor,
                response_ns,
                ..
            } => {
                let r = max_response
                    .entry((node.to_string(), actor.to_string()))
                    .or_default();
                *r = (*r).max(*response_ns);
            }
            SimEvent::DeadlineMiss { node, actor, .. } => {
                *misses
                    .entry((node.to_string(), actor.to_string()))
                    .or_default() += 1;
            }
            _ => {}
        }
    }

    println!(
        "\n== Verdicts vs. {} ms of simulation ==",
        HORIZON_NS / 1_000_000
    );
    let mut sound = true;
    let mut fired = 0usize;
    let mut flagged = 0usize;
    for node in &report.nodes {
        for t in &node.tasks {
            let key = (node.node.clone(), t.actor.clone());
            let observed = max_response.get(&key).copied().unwrap_or(0);
            let missed = misses.get(&key).copied().unwrap_or(0);
            let note = match &t.verdict {
                TaskVerdict::Schedulable { wcrt_ns } => {
                    let held = missed == 0 && observed <= *wcrt_ns;
                    sound &= held;
                    if held {
                        format!("clean as predicted (max response {observed} ns <= bound)")
                    } else {
                        format!("BOUND VIOLATED (max response {observed} ns, {missed} misses)")
                    }
                }
                TaskVerdict::DeadlineRisk { .. } | TaskVerdict::Overutilized => {
                    flagged += 1;
                    if missed > 0 {
                        fired += 1;
                        format!("risk FIRED: {missed} deadline misses (max response {observed} ns)")
                    } else {
                        "flagged, no miss within this horizon (bound is worst-case)".to_owned()
                    }
                }
            };
            println!("  {}/{:<8} {}", node.node, t.actor, note);
        }
    }
    println!(
        "\n{fired}/{flagged} flagged risks produced real deadline misses; \
         every schedulable WCRT bound {}",
        if sound {
            "held"
        } else {
            "was violated (analysis bug!)"
        }
    );
    assert!(
        sound,
        "soundness violated: a Schedulable task missed its bound"
    );
    assert!(fired > 0, "expected at least one flagged risk to fire");
    Ok(())
}
