//! Property tests for the server's two fragile seams:
//!
//! * **slice boundaries vs UART framing** — batched per-slice decode
//!   must never split a frame incorrectly: any chunking of the byte
//!   stream, and any random partition of the run horizon, yields the
//!   same `ModelEvent` sequence / trace as the unsliced run;
//! * **mailbox interleavings** — any command sequence settles without
//!   deadlock, and the broadcast stream neither drops nor duplicates
//!   trace entries.

mod common;

use common::{active_session, blinker_system};
use gmdf::ActiveChannel;
use gmdf_codegen::{CommandKind, DebugInfo, EventSpec, Frame};
use gmdf_comdes::SignalValue;
use gmdf_gdm::{CommandMatcher, EventKind};
use gmdf_server::{DebugServer, EngineEvent, Mutation, ServerConfig};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

/// Debug info with a handful of realistic event specs for ids 0..=2.
fn debug_info() -> DebugInfo {
    let mut d = DebugInfo::default();
    d.register(EventSpec {
        kind: CommandKind::StateEnter,
        path: "A/fsm".into(),
        from: Some("Idle".into()),
        to: Some("Run".into()),
        label: None,
        value_type: None,
    });
    d.register(EventSpec {
        kind: CommandKind::SignalWrite,
        path: "A/out/u".into(),
        from: None,
        to: None,
        label: Some("u".into()),
        value_type: Some(gmdf_comdes::SignalType::Real),
    });
    d.register(EventSpec {
        kind: CommandKind::TaskEnd,
        path: "A".into(),
        from: None,
        to: None,
        label: None,
        value_type: None,
    });
    d
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (0u16..3, proptest::collection::vec(any::<u64>(), 0..2))
        .prop_map(|(event, args)| Frame::new(event, args))
}

/// One-shot reference trace for the slicing property (computed once;
/// every case compares against the same bytes).
fn reference_trace() -> &'static String {
    static REF: OnceLock<String> = OnceLock::new();
    REF.get_or_init(|| {
        let mut session = active_session(blinker_system("prop", 0.002, 1_000_000));
        session.run_for(12_000_000).unwrap();
        session.engine().trace().to_json()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched decode (bytes grouped into arbitrary chunks, as the
    /// server does per slice) produces the same model-event sequence as
    /// feeding the decoder one byte at a time — frames that straddle
    /// chunk boundaries are completed, not split.
    #[test]
    fn batched_uart_decode_equals_per_byte_decode(
        frames in proptest::collection::vec(arb_frame(), 0..10),
        chunk_sizes in proptest::collection::vec(1usize..23, 1..32),
    ) {
        // Timestamped wire: one nanosecond per byte, like a slow UART.
        let mut wire: Vec<(u64, u8)> = Vec::new();
        for f in &frames {
            for b in f.encode() {
                wire.push((wire.len() as u64, b));
            }
        }
        let mut batched = ActiveChannel::new(debug_info());
        let mut got_batched = Vec::new();
        let mut pos = 0;
        let mut k = 0;
        while pos < wire.len() {
            let n = chunk_sizes[k % chunk_sizes.len()].min(wire.len() - pos);
            got_batched.extend(batched.feed(&wire[pos..pos + n]));
            pos += n;
            k += 1;
        }
        let mut per_byte = ActiveChannel::new(debug_info());
        let mut got_single = Vec::new();
        for b in &wire {
            got_single.extend(per_byte.feed(std::slice::from_ref(b)));
        }
        prop_assert_eq!(got_batched, got_single);
        prop_assert_eq!(batched.crc_errors(), per_byte.crc_errors());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random partitions of the run horizon into slices never change
    /// the recorded trace: every slice schedule reproduces the one-shot
    /// run byte for byte.
    #[test]
    fn random_slice_partitions_preserve_the_trace(
        slices in proptest::collection::vec(1_000u64..3_000_000, 4..40),
    ) {
        let mut session = active_session(blinker_system("prop", 0.002, 1_000_000));
        let mut k = 0usize;
        while session.now_ns() < 12_000_000 {
            let dt = slices[k % slices.len()].min(12_000_000 - session.now_ns());
            session.run_for(dt).unwrap();
            k += 1;
        }
        prop_assert_eq!(&session.engine().trace().to_json(), reference_trace());
    }
}

/// The command alphabet for mailbox interleavings (durations kept small
/// so each case stays fast).
fn arb_command() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (1u64..2_000_000).prop_map(|duration_ns| Mutation::RunFor { duration_ns }),
        Just(Mutation::AddBreakpoint {
            matcher: CommandMatcher::kind(EventKind::StateEnter),
            one_shot: false,
        }),
        Just(Mutation::AddBreakpoint {
            matcher: CommandMatcher::kind(EventKind::StateEnter),
            one_shot: true,
        }),
        Just(Mutation::ClearBreakpoints),
        Just(Mutation::Step),
        Just(Mutation::Resume),
        (0u64..10_000_000).prop_map(|t| Mutation::ScheduleSignal {
            time_ns: t,
            label: "lamp".into(),
            value: SignalValue::Bool(true),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of mailbox commands settles (no deadlock: the
    /// final wait_idle succeeds) and the broadcast stream carries every
    /// trace entry exactly once, in order.
    #[test]
    fn mailbox_interleavings_never_deadlock_or_drop_events(
        script in proptest::collection::vec(arb_command(), 1..24),
        workers in 1usize..5,
    ) {
        let server = DebugServer::start(ServerConfig {
            workers,
            slice_ns: 400_000,
            ..ServerConfig::default()
        });
        let handle = server.add_session(active_session(blinker_system("prop", 0.002, 1_000_000)));
        let events = handle.subscribe();
        // A snapshot request sprinkled mid-script must also be serviced.
        // It blocks on its own thread, so the rest of the script lands
        // in the mailbox behind it.
        let mid = script.len() / 2;
        let mid_snapshot = std::thread::scope(|scope| {
            let mut query = None;
            for (i, command) in script.into_iter().enumerate() {
                if i == mid {
                    query = Some(scope.spawn(|| handle.stats(WAIT)));
                }
                handle.send(command).unwrap();
            }
            query.map(|query| query.join().expect("stats thread"))
        });
        // Settle: no breakpoints left, engine drained, budget consumed.
        handle.clear_breakpoints().unwrap();
        handle.resume().unwrap();
        handle.wait_idle(WAIT).unwrap();
        let snapshot = handle.stats(WAIT).unwrap();
        prop_assert_eq!(snapshot.remaining_ns, 0);
        prop_assert_eq!(snapshot.pending, 0);
        // The mid-script snapshot arrived.
        prop_assert!(matches!(mid_snapshot, Some(Ok(_))));
        // Broadcast deltas: dense seq, no drops, no duplicates.
        let mut expected_seq = 0u64;
        for event in events.try_iter() {
            if let EngineEvent::TraceDelta { entries, .. } = event {
                for entry in entries {
                    prop_assert_eq!(entry.seq, expected_seq);
                    expected_seq += 1;
                }
            }
        }
        prop_assert_eq!(expected_seq as usize, snapshot.trace_len);
    }
}
