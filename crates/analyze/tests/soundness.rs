//! RTA-vs-simulator soundness: the analyzer's promise, checked against
//! the ground truth.
//!
//! The contract (ISSUE 9): for any spec where the analyzer reports every
//! task `Schedulable`, the simulated run must produce **zero deadline
//! violations**, and the predicted WCRT must upper-bound **every
//! observed response time** — under zero jitter and under the widened
//! jitter/tick models alike. Deadline misses the simulator does produce
//! must land on tasks the analyzer flagged (`DeadlineRisk` /
//! `Overutilized`): risk verdicts are true positives, never the other
//! way around.
//!
//! Random workloads reuse the calendar-props generator shape (ring FSMs,
//! filters, cross-node relays over random periods, offsets, deadlines,
//! priorities); unit fixtures pin the textbook cases — harmonic vs
//! non-harmonic period sets, utilization > 1, adversarial periods that
//! diverge the fixpoint, and hyperperiod overflow.

use gmdf_analyze::{analyze, AnalysisError, TaskVerdict};
use gmdf_codegen::{
    compile_system, CompileOptions, DebugInfo, Instr, InstrumentOptions, NodeImage, ProgramImage,
    SymbolTable, TaskImage,
};
use gmdf_comdes::{
    ActorBuilder, BasicOp, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, SignalValue, System,
    Timing, VAR_TIME_IN_STATE,
};
use gmdf_target::{SimConfig, SimEvent, Simulator};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const HORIZON_NS: u64 = 20_000_000;

// -- randomized workload (calendar_props shape) -----------------------------

#[derive(Debug, Clone, Copy)]
enum ActorKind {
    Ring { states: usize },
    Filter,
    Relay,
}

#[derive(Debug, Clone)]
struct ActorSpec {
    kind: ActorKind,
    period_ns: u64,
    offset_ns: u64,
    tight_deadline: bool,
    priority: u8,
}

fn build_system(nodes: &[Vec<ActorSpec>]) -> System {
    let mut system = System::new("soundness_sys");
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
        (0u8..3, 2usize..5, 0usize..4),
        (0usize..3, any::<bool>(), 0u8..3),
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

/// Analyzes and simulates the same compiled image under `config`, then
/// checks the soundness contract on the outcome.
fn check_soundness(system: &System, config: SimConfig, instrument: InstrumentOptions) {
    let image = compile_system(
        system,
        &CompileOptions {
            instrument,
            faults: vec![],
        },
    )
    .expect("compiles");
    let report = analyze(system, &image, &config).expect("analysis settles");

    let mut sim = Simulator::new(image, config).expect("boots");
    sim.record_events();
    for k in 0..7u64 {
        sim.schedule_signal(k * 3_000_000, "u", SignalValue::Real((k % 3) as f64))
            .ok();
    }
    sim.run_until(HORIZON_NS).expect("runs");

    // Observed ground truth, per (node, actor).
    let mut max_response: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut missed: BTreeSet<(String, String)> = BTreeSet::new();
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
                    .or_insert(0);
                *r = (*r).max(*response_ns);
            }
            SimEvent::DeadlineMiss { node, actor, .. } => {
                missed.insert((node.to_string(), actor.to_string()));
            }
            _ => {}
        }
    }
    assert!(
        !max_response.is_empty(),
        "the run must record completions before a clean run can vouch for anything"
    );

    for node in &report.nodes {
        for task in &node.tasks {
            let key = (node.node.clone(), task.actor.clone());
            if let TaskVerdict::Schedulable { wcrt_ns } = task.verdict {
                // Schedulable ⇒ the simulator may not miss…
                assert!(
                    !missed.contains(&key),
                    "{}/{} declared Schedulable (wcrt {} ns) but missed its deadline",
                    node.node,
                    task.actor,
                    wcrt_ns
                );
                // …and every observed response is within the bound.
                if let Some(&observed) = max_response.get(&key) {
                    assert!(
                        observed <= wcrt_ns,
                        "{}/{}: observed response {} ns > predicted WCRT {} ns",
                        node.node,
                        task.actor,
                        observed,
                        wcrt_ns
                    );
                }
            }
        }
    }
    // Every miss is a true positive of some flagged task.
    for (node, actor) in &missed {
        let task = report.task(node, actor).expect("missed task is reported");
        assert!(
            !task.verdict.is_schedulable(),
            "{node}/{actor} missed but was not flagged"
        );
    }
    // And the headline form: all-Schedulable ⇒ a clean run.
    if report.all_schedulable() {
        assert!(missed.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Zero-jitter, tickless: the pure RTA contract.
    #[test]
    fn rta_is_sound_under_zero_jitter(
        nodes in arb_nodes(),
        latch_outputs in any::<bool>(),
        bus_latency_ns in prop_oneof![Just(0u64), Just(150_000u64)],
        instrument in 0u8..3,
    ) {
        let system = build_system(&nodes);
        let config = SimConfig {
            latch_outputs,
            bus_latency_ns,
            uart_baud: 1_000_000,
            ..SimConfig::default()
        };
        let instrument = match instrument {
            0 => InstrumentOptions::none(),
            1 => InstrumentOptions::behavior(),
            _ => InstrumentOptions::full(),
        };
        check_soundness(&system, config, instrument);
    }

    /// Jitter and tick knobs on: the *widened* bounds must still hold —
    /// releases displaced by capped jitter plus tick quantization never
    /// push a Schedulable task past its predicted WCRT.
    #[test]
    fn rta_is_sound_under_jitter_and_tick(
        nodes in arb_nodes(),
        seed in any::<u64>(),
        clock_jitter_ns in prop_oneof![Just(0u64), Just(40_000u64), Just(90_000u64)],
        tick_ns in prop_oneof![Just(0u64), Just(100_000u64)],
        latch_outputs in any::<bool>(),
    ) {
        let system = build_system(&nodes);
        let config = SimConfig {
            latch_outputs,
            uart_baud: 1_000_000,
            tick_ns,
            clock_jitter_ns,
            seed,
            ..SimConfig::default()
        };
        check_soundness(&system, config, InstrumentOptions::behavior());
    }
}

// -- textbook fixtures ------------------------------------------------------

/// A task whose step costs exactly `cycles` (PushI padding + Halt).
fn fixture_task(
    actor: &str,
    period_ns: u64,
    deadline_ns: u64,
    priority: u8,
    cycles: u64,
) -> TaskImage {
    assert!(cycles >= 1);
    let mut code = vec![Instr::PushI(0); (cycles - 1) as usize];
    code.push(Instr::Halt);
    TaskImage {
        actor: actor.into(),
        code,
        period_ns,
        offset_ns: 0,
        deadline_ns,
        priority,
        input_latches: vec![],
        publications: vec![],
        start_event: None,
        end_event: None,
        wcet: 0,
    }
}

fn fixture_image(cpu_hz: u64, tasks: Vec<TaskImage>) -> ProgramImage {
    ProgramImage {
        system: "fixture".into(),
        nodes: vec![NodeImage {
            node: "n0".into(),
            cpu_hz,
            data_cells: 0,
            data_init: vec![],
            tasks,
            board: BTreeMap::new(),
            subscriptions: vec![],
            symbols: SymbolTable::new(),
        }],
        debug: DebugInfo::default(),
    }
}

fn fixture_analyze(image: &ProgramImage) -> Result<gmdf_analyze::AnalysisReport, AnalysisError> {
    analyze(&System::new("fixture"), image, &SimConfig::default())
}

/// Harmonic periods at 95 % utilization: everything fits, with exact
/// pinned WCRTs (1 MHz CPU ⇒ 1 cycle = 1 µs; interference instances are
/// widened by one cycle for preemption rounding).
#[test]
fn harmonic_set_at_95_percent_is_schedulable() {
    let image = fixture_image(
        1_000_000,
        vec![
            fixture_task("A", 1_000_000, 1_000_000, 0, 500),
            fixture_task("B", 2_000_000, 2_000_000, 1, 500),
            fixture_task("C", 4_000_000, 4_000_000, 2, 800),
        ],
    );
    let report = fixture_analyze(&image).expect("settles");
    assert!(report.all_schedulable(), "report: {report:?}");
    let node = &report.nodes[0];
    assert_eq!(node.utilization_ppm, 950_000);
    assert!(!node.overutilized);
    assert_eq!(node.hyperperiod_ns, Some(4_000_000));
    let wcrt = |a: &str| match report.task("n0", a).unwrap().verdict {
        TaskVerdict::Schedulable { wcrt_ns } => wcrt_ns,
        other => panic!("{a}: {other:?}"),
    };
    assert_eq!(wcrt("A"), 500_000);
    assert_eq!(wcrt("B"), 1_502_000);
    assert_eq!(wcrt("C"), 3_806_000);
}

/// Same ~96 % utilization but non-harmonic periods: the lowest-priority
/// task no longer fits — the classic harmonic-vs-non-harmonic contrast.
#[test]
fn non_harmonic_set_at_96_percent_is_at_risk() {
    let image = fixture_image(
        1_000_000,
        vec![
            fixture_task("A", 1_000_000, 1_000_000, 0, 500),
            fixture_task("B", 1_400_000, 1_400_000, 1, 400),
            fixture_task("C", 2_000_000, 2_000_000, 2, 350),
        ],
    );
    let report = fixture_analyze(&image).expect("settles");
    let node = &report.nodes[0];
    assert!(!node.overutilized, "U ≈ 0.96 < 1");
    assert!(report.task("n0", "A").unwrap().verdict.is_schedulable());
    assert!(report.task("n0", "B").unwrap().verdict.is_schedulable());
    match report.task("n0", "C").unwrap().verdict {
        TaskVerdict::DeadlineRisk { bound_ns } => assert!(bound_ns > 2_000_000),
        other => panic!("expected DeadlineRisk, got {other:?}"),
    }
    let (_, warnings) = report.diagnostic_counts();
    assert!(warnings >= 1, "the risk must surface as a warning");
}

/// Utilization over 1: the high-priority task still fits, the rest is
/// `Overutilized` — and everything is warnings, never a refusal.
#[test]
fn overutilized_node_is_flagged_not_refused() {
    let image = fixture_image(
        1_000_000,
        vec![
            fixture_task("A", 1_000_000, 1_000_000, 0, 600),
            fixture_task("B", 1_000_000, 1_000_000, 1, 600),
        ],
    );
    let report = fixture_analyze(&image).expect("settles");
    let node = &report.nodes[0];
    assert!(node.overutilized);
    assert!(node.utilization_ppm > 1_000_000);
    assert!(report.task("n0", "A").unwrap().verdict.is_schedulable());
    assert_eq!(
        report.task("n0", "B").unwrap().verdict,
        TaskVerdict::Overutilized
    );
    let (errors, warnings) = report.diagnostic_counts();
    assert_eq!(errors, 0, "overutilization is advisory");
    assert!(warnings >= 2, "task + node warnings expected");
}

/// Adversarial period ratio: utilization a hair under 1 with a huge
/// deadline makes the fixpoint crawl through thousands of iterations —
/// the bounded budget turns that into an explicit `Diverged` error
/// instead of a near-endless spin.
#[test]
fn adversarial_periods_diverge_explicitly() {
    // 1 GHz ⇒ 1 cycle = 1 ns. hp task: C+slack = 9 999 ns of each
    // 10 000 ns period ⇒ 1 − U = 1e-4; the victim adds 5 000 ns more, so
    // the fixpoint sits ~5e7 ns away, one ceil boundary per iteration.
    let image = fixture_image(
        1_000_000_000,
        vec![
            fixture_task("hp", 10_000, 10_000, 0, 9_998),
            fixture_task("victim", 1_000_000_000_000, 1_000_000_000_000, 1, 5_000),
        ],
    );
    match fixture_analyze(&image) {
        Err(AnalysisError::Diverged {
            node,
            actor,
            iterations,
        }) => {
            assert_eq!((node.as_str(), actor.as_str()), ("n0", "victim"));
            assert_eq!(iterations, gmdf_analyze::MAX_RTA_ITERATIONS);
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
}

/// Pairwise-coprime periods near 2⁶³: the hyperperiod overflows u128 and
/// must come back as `None`, with the rest of the report intact.
#[test]
fn hyperperiod_overflow_is_survived() {
    let p1 = 1u64 << 63;
    let p2 = (1u64 << 63) - 1;
    let p3 = (1u64 << 63) - 3;
    let image = fixture_image(
        1_000_000_000,
        vec![
            fixture_task("A", p1, p1, 0, 2),
            fixture_task("B", p2, p2, 1, 2),
            fixture_task("C", p3, p3, 2, 2),
        ],
    );
    let report = fixture_analyze(&image).expect("settles");
    let node = &report.nodes[0];
    assert_eq!(node.hyperperiod_ns, None);
    assert!(!node.overutilized);
    assert!(report.all_schedulable());
}
