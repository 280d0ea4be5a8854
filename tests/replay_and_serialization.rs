//! Replay determinism and cross-crate serialization round trips,
//! including property-based tests over generated models.

use gmdf::{ChannelMode, Workflow};
use gmdf_codegen::{CompileOptions, InstrumentOptions};
use gmdf_comdes::{
    ActorBuilder, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, System, Timing,
    VAR_TIME_IN_STATE,
};
use gmdf_engine::{timing_diagram, Replayer};
use gmdf_gdm::DebuggerModel;
use gmdf_metamodel::{model_from_json, model_to_json};
use gmdf_target::SimConfig;
use proptest::prelude::*;

fn ring_system(n_states: usize, dwell_ms: u64) -> System {
    let mut fb = FsmBuilder::new().output(Port::int("s"));
    for i in 0..n_states {
        fb = fb.state(&format!("S{i}"), |st| st.entry("s", Expr::Int(0)));
    }
    for i in 0..n_states {
        fb = fb.transition(
            &format!("S{i}"),
            &format!("S{}", (i + 1) % n_states),
            Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(dwell_ms as f64 / 1e3)),
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
    System::new("ring_sys").with_node(node)
}

fn debugged_session(system: System) -> gmdf::DebugSession {
    let mut s = Workflow::from_system(system)
        .unwrap()
        .default_abstraction()
        .default_commands()
        .connect(
            ChannelMode::Active,
            CompileOptions {
                instrument: InstrumentOptions::behavior(),
                faults: vec![],
            },
            SimConfig::default(),
        )
        .unwrap();
    s.run_for(100_000_000).unwrap();
    s
}

#[test]
fn replay_reconstructs_the_live_animation_exactly() {
    let s = debugged_session(ring_system(4, 5));
    let gdm = s.engine().gdm().clone();
    let trace = s.engine().trace().clone();
    assert!(trace.len() >= 10, "need a substantial trace");

    let mut replay = Replayer::new(&gdm, &trace);
    while replay.step_forward().is_some() {}
    assert_eq!(replay.visual(), s.engine().visual());
    // Frames identical too.
    assert_eq!(replay.frame_svg(), s.engine().frame_svg());
}

#[test]
fn replay_through_saved_trace_file() {
    let s = debugged_session(ring_system(3, 7));
    let gdm_json = s.engine().gdm().to_json();
    let trace_json = s.engine().trace().to_json();

    // A later session loads both files and replays.
    let gdm = DebuggerModel::from_json(&gdm_json).unwrap();
    let trace = gmdf_engine::ExecutionTrace::from_json(&trace_json).unwrap();
    let mut replay = Replayer::new(&gdm, &trace);
    replay.play_to_time(50_000_000);
    let mid_frame = replay.frame_ascii();
    assert!(mid_frame.contains("S"), "{mid_frame}");

    // Seeking back and forward is deterministic.
    let mut a = Replayer::new(&gdm, &trace);
    a.seek(trace.len() as u64);
    let mut b = Replayer::new(&gdm, &trace);
    while b.step_forward().is_some() {}
    assert_eq!(a.visual(), b.visual());
}

#[test]
fn timing_diagram_covers_every_state_in_the_ring() {
    let s = debugged_session(ring_system(5, 4));
    let d = timing_diagram(s.engine().trace(), "ring");
    let lane = d.lanes.iter().find(|l| l.name == "Ring/ring").unwrap();
    let labels: std::collections::BTreeSet<&str> =
        lane.segments.iter().map(|s| s.label.as_str()).collect();
    assert!(
        labels.len() >= 5,
        "all ring states should appear: {labels:?}"
    );
    // Segments tile the window without overlap.
    for w in lane.segments.windows(2) {
        assert!(w[0].to_ns <= w[1].from_ns);
    }
}

#[test]
fn comdes_export_round_trips_through_json() {
    let system = ring_system(3, 5);
    let (mm, model) = gmdf_comdes::export_system(&system).unwrap();
    let json = model_to_json(&model).unwrap();
    let back = model_from_json(mm, &json).unwrap();
    assert_eq!(back.len(), model.len());
    // The round-tripped model still validates and still derives the same
    // debug model (modulo object identity).
    let report = gmdf_metamodel::validate(&back);
    assert!(report.is_conformant(), "{report}");
    let gdm_a = gmdf::comdes_gdm_default(&model, "x");
    let gdm_b = gmdf::comdes_gdm_default(&back, "x");
    assert_eq!(gdm_a.elements.len(), gdm_b.elements.len());
    assert_eq!(gdm_a.edges.len(), gdm_b.edges.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any ring FSM system: full pipeline runs, behaviour matches the
    /// reference interpreter, replay is lossless.
    #[test]
    fn pipeline_holds_for_generated_ring_systems(
        n_states in 2usize..6,
        dwell_ms in 2u64..12,
    ) {
        let s = debugged_session(ring_system(n_states, dwell_ms));
        // Matches interpreter.
        let reference = s.reference_events().unwrap();
        let observed: Vec<_> = s
            .engine()
            .trace()
            .entries()
            .iter()
            .map(|e| e.event.clone())
            .collect();
        prop_assert!(gmdf_engine::compare_behavior(&observed, &reference).is_none());
        // Replay lossless.
        let gdm = s.engine().gdm().clone();
        let trace = s.engine().trace().clone();
        let mut replay = Replayer::new(&gdm, &trace);
        while replay.step_forward().is_some() {}
        prop_assert_eq!(replay.visual(), s.engine().visual());
    }

    /// GDM JSON round trip is the identity for derived models.
    #[test]
    fn gdm_json_round_trip(n_states in 2usize..7) {
        let wf = Workflow::from_system(ring_system(n_states, 5)).unwrap();
        let gdm = wf.default_abstraction().default_commands().gdm().clone();
        let back = DebuggerModel::from_json(&gdm.to_json()).unwrap();
        prop_assert_eq!(gdm, back);
    }

    /// A full-state checkpoint taken mid-run is lossless: a fresh
    /// session restored from its **JSON round-tripped** image and run
    /// on records exactly the entries the uninterrupted run recorded
    /// past the cut — and the stitched full trace is byte-identical —
    /// over random ring images, cut points, slice partitions, and with
    /// a stimulus still pending (and a breakpoint installed) at the
    /// cut. This is the property O(interval) time travel leans on.
    #[test]
    fn checkpoint_restore_then_run_is_byte_identical(
        n_states in 2usize..6,
        dwell_ms in 1u64..6,
        cut_ns in 3_000_000u64..45_000_000,
        slice in prop_oneof![Just(333_333u64), Just(1_000_000u64), Just(7_777_777u64)],
    ) {
        use gmdf_comdes::SignalValue;
        use gmdf_engine::{ExecutionTrace, MemStore, OffsetMemStore};

        let horizon = 50_000_000u64;
        let build = || {
            Workflow::from_system(ring_system(n_states, dwell_ms))
                .unwrap()
                .default_abstraction()
                .default_commands()
                .connect(
                    ChannelMode::Active,
                    CompileOptions {
                        instrument: InstrumentOptions::behavior(),
                        faults: vec![],
                    },
                    SimConfig::default(),
                )
                .unwrap()
        };

        // Uninterrupted reference, pumped to the cut in ragged slices,
        // with state the checkpoint must capture beyond the simulator:
        // a stimulus scheduled past the cut and a live breakpoint.
        let mut reference = build();
        reference
            .schedule_signal(horizon - 2_000_000, "state_sig", SignalValue::Int(7))
            .unwrap();
        reference
            .engine_mut()
            .add_breakpoint(gmdf_gdm::CommandMatcher::kind(
                gmdf_gdm::EventKind::StateEnter,
            ), false);
        reference.engine_mut().resume();
        while reference.now_ns() < cut_ns {
            reference.run_for(slice.min(cut_ns - reference.now_ns())).unwrap();
            reference.engine_mut().resume();
        }
        let image = reference.save_state();
        let round_tripped: gmdf::SessionCheckpoint =
            serde_json::from_str(&serde_json::to_string(&image).unwrap()).unwrap();
        while reference.now_ns() < horizon {
            reference.run_for(slice.min(horizon - reference.now_ns())).unwrap();
            reference.engine_mut().resume();
        }
        let full_entries = reference.engine().trace().entries();
        let full_json = reference.engine().trace().to_json();

        // Restore into a fresh identical session; its store holds only
        // the regenerated suffix, at absolute sequence numbers.
        let base = round_tripped.trace_len();
        let mut replica = build();
        replica.restore_state(&round_tripped).unwrap();
        replica.resume_trace_store(Box::new(OffsetMemStore::new(base)));
        prop_assert_eq!(replica.now_ns(), cut_ns, "clock restored");
        while replica.now_ns() < horizon {
            replica.run_for(slice.min(horizon - replica.now_ns())).unwrap();
            replica.engine_mut().resume();
        }
        prop_assert_eq!(replica.now_ns(), reference.now_ns());

        let suffix = replica.engine().trace().entries();
        prop_assert_eq!(
            &suffix[..],
            &full_entries[base as usize..],
            "restore-then-run must regenerate exactly the post-cut entries"
        );
        let mut stitched = full_entries[..base as usize].to_vec();
        stitched.extend(suffix);
        prop_assert_eq!(
            ExecutionTrace::with_store(Box::new(MemStore::from_entries(stitched))).to_json(),
            full_json,
            "stitched trace must be byte-identical to the uninterrupted run"
        );
    }
}
