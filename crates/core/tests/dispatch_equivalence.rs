//! Session-level determinism across the simulator's perf knobs.
//!
//! The acceptance bar for the event calendar and the step memo is not
//! "events look similar" — it is a byte-identical
//! `ExecutionTrace::to_json` for every combination of dispatch mode,
//! memoization, and slice partition. This suite checks that at the
//! `DebugSession` level, where UART decode, engine dispatch and trace
//! recording all sit downstream of the simulator and would amplify any
//! divergence.

use gmdf::{comdes_gdm_default, ChannelMode, DebugSession};
use gmdf_codegen::{CompileOptions, InstrumentOptions};
use gmdf_comdes::{
    export_system, ActorBuilder, BasicOp, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port,
    SignalValue, System, Timing, VAR_TIME_IN_STATE,
};
use gmdf_target::{DispatchMode, SimConfig};

const HORIZON_NS: u64 = 24_000_000;

/// Two nodes: a dwelling FSM on one, a filter consuming a stimulus on
/// the other — crossing signals so the session exercises broadcast
/// deliveries alongside the UART path.
fn two_node_system() -> System {
    let mut fb = FsmBuilder::new().output(Port::int("s"));
    for i in 0..4 {
        fb = fb.state(&format!("S{i}"), |st| st.entry("s", Expr::Int(i)));
    }
    for i in 0..4 {
        fb = fb.transition(
            &format!("S{i}"),
            &format!("S{}", (i + 1) % 4),
            Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(0.002)),
        );
    }
    let fsm = fb.initial("S0").build().unwrap();
    let ring_net = NetworkBuilder::new()
        .output(Port::int("s"))
        .state_machine("ring", fsm)
        .connect("ring.s", "s")
        .unwrap()
        .build()
        .unwrap();
    let ring = ActorBuilder::new("Ring", ring_net)
        .output("s", "state_sig")
        .timing(Timing::periodic(1_000_000, 0))
        .build()
        .unwrap();

    let filt_net = NetworkBuilder::new()
        .input(Port::real("x"))
        .output(Port::real("y"))
        .block("lp", BasicOp::LowPass { alpha: 0.5 })
        .connect("x", "lp.x")
        .unwrap()
        .connect("lp.y", "y")
        .unwrap()
        .build()
        .unwrap();
    let filt = ActorBuilder::new("Filter", filt_net)
        .input("x", "u")
        .output("y", "flt")
        .timing(Timing::periodic(1_500_000, 1))
        .build()
        .unwrap();

    let mut n0 = NodeSpec::new("fsm_node", 50_000_000);
    n0.actors.push(ring);
    let mut n1 = NodeSpec::new("dsp_node", 50_000_000);
    n1.actors.push(filt);
    System::new("two_node").with_node(n0).with_node(n1)
}

fn session_with(config: SimConfig) -> DebugSession {
    let system = two_node_system();
    let (_, model) = export_system(&system).unwrap();
    let gdm = comdes_gdm_default(&model, "two_node");
    let mut session = DebugSession::build(
        system,
        gdm,
        ChannelMode::Active,
        CompileOptions {
            instrument: InstrumentOptions::behavior(),
            faults: vec![],
        },
        config,
    )
    .unwrap();
    for k in 0..5u64 {
        session
            .schedule_signal(k * 4_000_000, "u", SignalValue::Real((k % 2) as f64 + 0.5))
            .unwrap();
    }
    session
}

/// Trace JSON after running the whole horizon under `config`, either in
/// one shot or chopped into the given slice sizes (cycled).
fn trace_json(config: SimConfig, slices: Option<&[u64]>) -> String {
    let mut session = session_with(config);
    match slices {
        None => {
            session.run_for(HORIZON_NS).unwrap();
        }
        Some(slices) => {
            let mut k = 0usize;
            while session.now_ns() < HORIZON_NS {
                let dt = slices[k % slices.len()].min(HORIZON_NS - session.now_ns());
                session.run_for(dt).unwrap();
                k += 1;
            }
        }
    }
    session.engine().trace().to_json()
}

fn config(dispatch: DispatchMode, memo_steps: bool) -> SimConfig {
    SimConfig {
        bus_latency_ns: 200_000,
        clock_jitter_ns: 30_000,
        dispatch,
        memo_steps,
        ..SimConfig::default()
    }
}

#[test]
fn trace_json_is_identical_across_dispatch_and_memo_matrix() {
    let reference = trace_json(config(DispatchMode::LegacyScan, false), None);
    assert!(
        reference.contains("StateEnter"),
        "the workload must actually produce trace entries"
    );
    for dispatch in [DispatchMode::Calendar, DispatchMode::LegacyScan] {
        for memo in [false, true] {
            let json = trace_json(config(dispatch, memo), None);
            assert_eq!(
                json, reference,
                "one-shot run diverged for {dispatch:?}, memo={memo}"
            );
        }
    }
}

#[test]
fn trace_json_is_identical_across_random_slice_partitions() {
    let reference = trace_json(config(DispatchMode::LegacyScan, false), None);
    // A seeded LCG stands in for a proptest dependency: 12 random ragged
    // partitions, each including slices far below a UART frame time.
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    const MENU: [u64; 6] = [17, 333, 4_099, 70_001, 1_250_000, 6_000_000];
    for round in 0..12 {
        let len = (next() % 5 + 1) as usize;
        let slices: Vec<u64> = (0..len).map(|_| MENU[(next() % 6) as usize]).collect();
        let json = trace_json(config(DispatchMode::Calendar, true), Some(&slices));
        assert_eq!(
            json, reference,
            "sliced calendar+memo run diverged (round {round}, slices {slices:?})"
        );
    }
}
