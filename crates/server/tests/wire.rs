//! The wire layer's contracts:
//!
//! * **codec** — every v4 `ClientFrame`/`ServerFrame` variant
//!   (session-tagged envelope, directory frames, auth'd `Hello`)
//!   round-trips through encode → arbitrary chunking → decode (the
//!   per-byte-vs-batched UART pattern, applied to the TCP framing);
//! * **fidelity** — a remote client driving a session over localhost
//!   TCP receives an event stream byte-identical (after JSON
//!   round-trip) to an in-process subscriber of the same run, and the
//!   snapshot trace matches byte for byte;
//! * **multiplexing** — one socket attaches many sessions
//!   (`attach_many`, which attaches every session the server
//!   acknowledged even when another is refused), demultiplexes the
//!   merged stream per session, survives detach/re-attach with
//!   straggler filtering, and a 200-client fan-out over a 32-session
//!   fleet on a single listener stays byte-identical per attach with
//!   two server threads per connection;
//! * **stale replies** — a reply left in flight by a timed-out call,
//!   whatever its kind, never answers a later call;
//! * **backpressure** — a deliberately stalled client (or one stalled
//!   attach among healthy siblings on the same socket) overflows its
//!   own bounded queue (coalesce, then drop + `Lagged`), while the
//!   scheduler pump finishes on time and the recorded trace is
//!   unaffected;
//! * **auth** — a server with a shared-secret token refuses absent and
//!   wrong tokens with one generic message and accepts the right one;
//! * **connect and teardown** — a connection is served as soon as it is
//!   accepted, a refused handshake hangs up at once, and a server bound
//!   to the unspecified address shuts down promptly.

mod common;

use common::{active_session, blinker_system};
use gmdf_comdes::SignalValue;
use gmdf_gdm::{CommandMatcher, EventKind};
use gmdf_server::proto::{
    decode_payload, encode_frame, ClientFrame, FrameDecoder, ServerFrame, WIRE_VERSION,
};
use gmdf_server::{
    DebugServer, EngineEvent, HealthState, MetricsSnapshot, Mutation, Query, ServerConfig,
    SessionCommand, SessionInfo, WireClient, WireError, WireServer,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(60);
const HORIZON_NS: u64 = 20_000_000;

fn wired_server(config: ServerConfig) -> (Arc<DebugServer>, WireServer) {
    let server = Arc::new(DebugServer::start(config));
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    (server, wire)
}

/// JSON text of a value — the form the wire carries, so byte-identity
/// checks (server frames, event streams, reports) compare it rather
/// than the decoded values. Client frames are compared by value.
fn json_of<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// Drains an in-process subscriber up to and including the first event
/// `last` accepts: the stream's known last event. A stream that does
/// not deliver it within `WAIT` fails the test.
fn drain_local_until(
    sub: &gmdf_server::EventReceiver,
    last: impl Fn(&EngineEvent) -> bool,
) -> Vec<EngineEvent> {
    let deadline = Instant::now() + WAIT;
    let mut events = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match sub.recv_timeout(left) {
            Ok(event) => {
                let done = last(&event);
                events.push(event);
                if done {
                    return events;
                }
            }
            Err(e) => panic!(
                "stream ended after {} events without its last one: {e}",
                events.len()
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Codec properties
// ---------------------------------------------------------------------------

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0u64..u64::MAX / 2, any::<bool>()).prop_map(|(t, b)| Mutation::ScheduleSignal {
            time_ns: t,
            label: format!("sig{}", t % 7),
            value: if b {
                SignalValue::Bool(t % 2 == 0)
            } else {
                SignalValue::Real(t as f64 * 0.125)
            },
        }),
        any::<bool>().prop_map(|one_shot| Mutation::AddBreakpoint {
            matcher: CommandMatcher::kind(EventKind::StateEnter).under("A/fsm"),
            one_shot,
        }),
        Just(Mutation::ClearBreakpoints),
        Just(Mutation::Step),
        Just(Mutation::Resume),
        (1u64..u64::MAX / 2).prop_map(|duration_ns| Mutation::RunFor { duration_ns }),
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    prop_oneof![
        any::<bool>().prop_map(|include_trace| Query::Snapshot { include_trace }),
        (any::<u64>(), any::<u64>()).prop_map(|(t0_ns, t1_ns)| Query::FetchRange { t0_ns, t1_ns }),
        (any::<u64>(), 0u64..8192).prop_map(|(seq, limit)| Query::ReplayFrom { seq, limit }),
        (any::<u64>(), any::<bool>()).prop_map(|(t_ns, include_trace)| Query::SeekTo {
            t_ns,
            include_trace,
        }),
        (any::<u64>(), any::<bool>()).prop_map(|(entries, include_trace)| Query::StepBack {
            entries,
            include_trace,
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(t0_ns, t1_ns)| Query::ReplayWindow { t0_ns, t1_ns }),
    ]
}

fn arb_command() -> impl Strategy<Value = SessionCommand> {
    prop_oneof![
        arb_mutation().prop_map(SessionCommand::Mutate),
        arb_query().prop_map(SessionCommand::Query),
    ]
}

fn arb_client_frame() -> impl Strategy<Value = ClientFrame> {
    prop_oneof![
        (any::<u32>(), proptest::option::of("[ -~]{0,24}"))
            .prop_map(|(version, token)| ClientFrame::Hello { version, token }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(seq, session, capacity)| ClientFrame::Attach {
                seq,
                session,
                capacity,
            }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, session)| ClientFrame::Detach { seq, session }),
        any::<u64>().prop_map(|seq| ClientFrame::ListSessions { seq }),
        any::<u64>().prop_map(|seq| ClientFrame::ListMetrics { seq }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, session)| ClientFrame::Analyze { seq, session }),
        (any::<u64>(), any::<u64>(), arb_command()).prop_map(|(seq, session, command)| {
            ClientFrame::Command {
                seq,
                session,
                command,
            }
        }),
    ]
}

fn arb_event() -> impl Strategy<Value = EngineEvent> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(session, now_ns)| EngineEvent::SliceCompleted {
            session,
            now_ns,
            report: gmdf::RunReport {
                events_fed: (session % 100) as usize,
                violations: (now_ns % 3) as usize,
                breakpoint_hit: session % 2 == 0,
            },
        }),
        (any::<u64>(), 0u64..5).prop_map(|(session, n)| EngineEvent::TraceDelta {
            session,
            entries: (0..n)
                .map(|seq| gmdf_engine::TraceEntry {
                    seq,
                    event: gmdf_gdm::ModelEvent::new(seq * 17, EventKind::StateEnter, "A/fsm")
                        .with_to("Run"),
                    reactions: vec![],
                    violations: if seq % 2 == 0 {
                        vec![format!("violation {seq}")]
                    } else {
                        vec![]
                    },
                })
                .collect(),
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(session, seq)| EngineEvent::Violation {
            session,
            seq,
            message: format!("out of range at {seq}"),
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(session, seq, time_ns)| {
            EngineEvent::BreakpointHit {
                session,
                seq,
                time_ns,
            }
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(session, now_ns)| EngineEvent::Idle { session, now_ns }),
        any::<u64>().prop_map(|session| EngineEvent::Error {
            session,
            message: "boom \"quoted\"\nline".to_owned(),
        }),
        (any::<u64>(), 1u64..u64::MAX)
            .prop_map(|(session, dropped)| EngineEvent::Lagged { session, dropped }),
    ]
}

fn engine_state(paused: bool) -> gmdf_engine::EngineState {
    if paused {
        gmdf_engine::EngineState::Paused
    } else {
        gmdf_engine::EngineState::Waiting
    }
}

/// A real fleet snapshot (one idle session) as the base of generated
/// `Metrics` frames — built once, far too wide to write out by hand.
fn idle_metrics() -> &'static MetricsSnapshot {
    static SNAPSHOT: OnceLock<MetricsSnapshot> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let server = DebugServer::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        server.add_session(active_session(blinker_system("metrics", 0.002, 1_000_000)));
        server.metrics_snapshot()
    })
}

fn arb_server_frame() -> impl Strategy<Value = ServerFrame> {
    prop_oneof![
        (any::<u32>(), proptest::collection::vec(any::<u64>(), 0..5)).prop_map(
            |(version, sessions)| ServerFrame::HelloAck {
                version,
                sessions,
                quarantined: vec![gmdf_server::QuarantinedSession {
                    session: 9,
                    reason: "journal truncated".to_owned(),
                }],
            }
        ),
        any::<u64>().prop_map(|seq| ServerFrame::Ack { seq }),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..5)
        )
            .prop_map(|(seq, rows)| ServerFrame::Sessions {
                seq,
                sessions: rows
                    .into_iter()
                    .map(|(session, now_ns, trace_len)| SessionInfo {
                        session,
                        state: match session % 3 {
                            0 => HealthState::Running,
                            1 => HealthState::Parked,
                            _ => HealthState::Failed,
                        },
                        now_ns,
                        trace_len,
                        diagnostics: (session % 2, trace_len % 5),
                    })
                    .collect(),
            }),
        (any::<u64>(), any::<u64>(), 0u64..3).prop_map(|(seq, wcrt, n)| {
            ServerFrame::Analysis {
                seq,
                report: Box::new(gmdf_server::AnalysisReport {
                    system: "sys".to_owned(),
                    nodes: vec![gmdf_server::NodeReport {
                        node: "n0".to_owned(),
                        cpu_hz: 50_000_000,
                        utilization_ppm: wcrt % 2_000_000,
                        overutilized: wcrt % 2 == 0,
                        hyperperiod_ns: if wcrt % 3 == 0 {
                            None
                        } else {
                            Some(u128::from(wcrt) << 64)
                        },
                        tasks: (0..n)
                            .map(|i| gmdf_server::TaskReport {
                                actor: format!("A{i}"),
                                period_ns: 1_000_000 + i,
                                deadline_ns: 1_000_000,
                                priority: (i % 4) as u8,
                                wcet_cycles: wcrt % 10_000,
                                wcet_ns: wcrt % 500_000,
                                release_jitter_ns: i * 13,
                                verdict: match i % 3 {
                                    0 => gmdf_server::TaskVerdict::Schedulable { wcrt_ns: wcrt },
                                    1 => gmdf_server::TaskVerdict::DeadlineRisk { bound_ns: wcrt },
                                    _ => gmdf_server::TaskVerdict::Overutilized,
                                },
                            })
                            .collect(),
                    }],
                    diagnostics: (0..n)
                        .map(|i| gmdf_server::Diagnostic {
                            severity: match i % 3 {
                                0 => gmdf_server::Severity::Info,
                                1 => gmdf_server::Severity::Warning,
                                _ => gmdf_server::Severity::Error,
                            },
                            location: format!("n0/A{i}"),
                            message: format!("finding {i} \"quoted\""),
                            pass: match i % 3 {
                                0 => gmdf_server::Pass::Lint,
                                1 => gmdf_server::Pass::Schedulability,
                                _ => gmdf_server::Pass::Routes,
                            },
                        })
                        .collect(),
                }),
            }
        }),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(seq, n, paused)| {
            ServerFrame::Snapshot {
                seq,
                snapshot: gmdf_server::SessionSnapshot {
                    session: seq % 64,
                    now_ns: n,
                    engine_state: engine_state(paused),
                    pending: (n % 9) as usize,
                    trace_len: (n % 1000) as usize,
                    trace_json: paused.then(|| "[{\"seq\":0}]".to_owned()),
                    events_fed: n / 3,
                    violations: n % 5,
                    breakpoint_hits: n % 7,
                    lagged_drops: n % 11,
                    remaining_ns: n / 2,
                },
            }
        }),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(seq, t, from_checkpoint)| {
            ServerFrame::Seek {
                seq,
                report: Box::new(gmdf_server::SeekReport {
                    session: seq % 64,
                    target_ns: t,
                    now_ns: t,
                    checkpoint_seq: from_checkpoint.then_some(t % 4096),
                    checkpoint_t_ns: from_checkpoint.then_some(t / 2),
                    replayed_commands: t % 13,
                    replayed_entries: t % 4096,
                    trace_len: t % 100_000,
                    engine_state: engine_state(from_checkpoint),
                    trace_json: (!from_checkpoint).then(|| "[]".to_owned()),
                }),
            }
        }),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(seq, n, quarantined)| {
            let mut snapshot = idle_metrics().clone();
            snapshot.fleet.events_fed = n;
            snapshot.fleet.recent_events_per_sec = (n % 1000) as f64 * 0.5;
            if quarantined {
                snapshot.quarantined.push(gmdf_server::QuarantinedSession {
                    session: n % 64,
                    reason: "corrupt spec.json: \"quoted\"".to_owned(),
                });
            }
            ServerFrame::Metrics {
                seq,
                snapshot: Box::new(snapshot),
            }
        }),
        proptest::option::of(any::<u64>()).prop_map(|seq| ServerFrame::Error {
            seq,
            message: "unknown session 9".to_owned(),
        }),
        arb_event().prop_map(|event| ServerFrame::Event { event }),
        (any::<u64>(), any::<u64>(), 0u64..4, any::<bool>()).prop_map(
            |(seq, session, n, complete)| ServerFrame::Trace {
                seq,
                slice: gmdf_server::TraceSlice {
                    session,
                    first_seq: seq,
                    entries: (0..n)
                        .map(|i| gmdf_engine::TraceEntry {
                            seq: seq + i,
                            event: gmdf_gdm::ModelEvent::new(
                                i * 31,
                                EventKind::SignalWrite,
                                "A/out/u",
                            ),
                            reactions: vec![],
                            violations: vec![],
                        })
                        .collect(),
                    end_seq: seq.saturating_add(n),
                    complete,
                },
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Client frames survive encode → arbitrary re-chunking → decode:
    /// the deframer completes frames that straddle any read boundary,
    /// and every decoded frame equals the one sent.
    #[test]
    fn client_frames_roundtrip_over_any_chunking(
        frames in proptest::collection::vec(arb_client_frame(), 1..8),
        chunk_sizes in proptest::collection::vec(1usize..37, 1..16),
    ) {
        let mut wire = Vec::new();
        for frame in &frames {
            wire.extend_from_slice(&encode_frame(frame).unwrap());
        }
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let (mut pos, mut k) = (0, 0);
        while pos < wire.len() {
            let n = chunk_sizes[k % chunk_sizes.len()].min(wire.len() - pos);
            decoder.feed(&wire[pos..pos + n]);
            while let Some(payload) = decoder.next_payload().unwrap() {
                got.push(decode_payload::<ClientFrame>(&payload).unwrap());
            }
            pos += n;
            k += 1;
        }
        prop_assert_eq!(decoder.buffered(), 0);
        prop_assert_eq!(got, frames);
    }

    /// Server frames — including every `EngineEvent` variant — survive
    /// the same treatment.
    #[test]
    fn server_frames_roundtrip_over_any_chunking(
        frames in proptest::collection::vec(arb_server_frame(), 1..8),
        chunk_sizes in proptest::collection::vec(1usize..53, 1..16),
    ) {
        let mut wire = Vec::new();
        for frame in &frames {
            wire.extend_from_slice(&encode_frame(frame).unwrap());
        }
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let (mut pos, mut k) = (0, 0);
        while pos < wire.len() {
            let n = chunk_sizes[k % chunk_sizes.len()].min(wire.len() - pos);
            decoder.feed(&wire[pos..pos + n]);
            while let Some(payload) = decoder.next_payload().unwrap() {
                got.push(decode_payload::<ServerFrame>(&payload).unwrap());
            }
            pos += n;
            k += 1;
        }
        prop_assert_eq!(got.len(), frames.len());
        for (sent, received) in frames.iter().zip(&got) {
            prop_assert_eq!(json_of(sent), json_of(received));
        }
    }
}

/// The literal v6 JSON of every command variant inside a `Command`
/// envelope, in the order `command_frames_match_the_golden_bytes` sends
/// them through `WireClient` (seq 1..=12, session 0). Clients built
/// against v6 depend on these bytes; a change here is a protocol break.
const GOLDEN_COMMAND_FRAMES: [&str; 12] = [
    r#"{"Command":{"seq":1,"session":0,"command":{"ScheduleSignal":{"time_ns":500000,"label":"lamp","value":{"Real":0.25}}}}}"#,
    r#"{"Command":{"seq":2,"session":0,"command":{"AddBreakpoint":{"matcher":{"kind":"StateEnter","path_prefix":"A/fsm"},"one_shot":true}}}}"#,
    r#"{"Command":{"seq":3,"session":0,"command":"ClearBreakpoints"}}"#,
    r#"{"Command":{"seq":4,"session":0,"command":"Step"}}"#,
    r#"{"Command":{"seq":5,"session":0,"command":"Resume"}}"#,
    r#"{"Command":{"seq":6,"session":0,"command":{"RunFor":{"duration_ns":7}}}}"#,
    r#"{"Command":{"seq":7,"session":0,"command":{"Snapshot":{"include_trace":true}}}}"#,
    r#"{"Command":{"seq":8,"session":0,"command":{"FetchRange":{"t0_ns":10,"t1_ns":20}}}}"#,
    r#"{"Command":{"seq":9,"session":0,"command":{"ReplayFrom":{"seq":30,"limit":40}}}}"#,
    r#"{"Command":{"seq":10,"session":0,"command":{"SeekTo":{"t_ns":50,"include_trace":false}}}}"#,
    r#"{"Command":{"seq":11,"session":0,"command":{"StepBack":{"entries":60,"include_trace":true}}}}"#,
    r#"{"Command":{"seq":12,"session":0,"command":{"ReplayWindow":{"t0_ns":70,"t1_ns":80}}}}"#,
];

/// Golden bytes, both directions: each literal decodes and re-encodes
/// to itself, and `WireClient`'s public command methods put exactly
/// these payloads on the socket (captured by a bare listener that
/// answers every command with a request-level error).
#[test]
fn command_frames_match_the_golden_bytes() {
    for golden in GOLDEN_COMMAND_FRAMES {
        let frame: ClientFrame = decode_payload(golden.as_bytes()).expect("golden frame decodes");
        assert_eq!(json_of(&frame), golden);
    }

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let capture = std::thread::spawn(move || {
        let (mut raw, _) = listener.accept().expect("accept");
        let mut decoder = FrameDecoder::new();
        let mut chunk = [0u8; 4096];
        let mut next_payload = |raw: &mut std::net::TcpStream| loop {
            if let Some(payload) = decoder.next_payload().expect("frame") {
                break String::from_utf8(payload).expect("UTF-8 payload");
            }
            let n = raw.read(&mut chunk).expect("read");
            assert!(n > 0, "client hung up early");
            decoder.feed(&chunk[..n]);
        };
        next_payload(&mut raw); // Hello
        let ack = ServerFrame::HelloAck {
            version: WIRE_VERSION,
            sessions: vec![0],
            quarantined: vec![],
        };
        raw.write_all(&encode_frame(&ack).expect("encodes"))
            .expect("hello ack");
        let mut captured = Vec::new();
        for _ in 0..GOLDEN_COMMAND_FRAMES.len() {
            let payload = next_payload(&mut raw);
            let Ok(ClientFrame::Command { seq, .. }) = decode_payload(payload.as_bytes()) else {
                panic!("expected a Command frame, got {payload}");
            };
            let refusal = ServerFrame::Error {
                seq: Some(seq),
                message: "captured".to_owned(),
            };
            raw.write_all(&encode_frame(&refusal).expect("encodes"))
                .expect("reply");
            captured.push(payload);
        }
        captured
    });

    let mut client = WireClient::connect(addr).expect("handshake");
    let refused = |result: Result<(), WireError>| {
        assert_eq!(result, Err(WireError::Remote("captured".to_owned())));
    };
    refused(client.schedule_signal(0, 500_000, "lamp", SignalValue::Real(0.25)));
    refused(client.add_breakpoint(
        0,
        CommandMatcher::kind(EventKind::StateEnter).under("A/fsm"),
        true,
    ));
    refused(client.clear_breakpoints(0));
    refused(client.step(0));
    refused(client.resume(0));
    refused(client.run_for(0, 7));
    refused(client.snapshot(0, true, WAIT).map(drop));
    refused(client.fetch_range(0, 10, 20, WAIT).map(drop));
    refused(client.replay_from(0, 30, 40, WAIT).map(drop));
    refused(client.seek_to(0, 50, false, WAIT).map(drop));
    refused(client.step_back(0, 60, true, WAIT).map(drop));
    refused(client.replay_window(0, 70, 80, WAIT).map(drop));
    let captured = capture.join().expect("capture thread");
    assert_eq!(captured, GOLDEN_COMMAND_FRAMES);
}

/// Every complete `C:`/`S:` transcript line in the README is a real
/// frame: it decodes, re-encodes byte for byte, and every handshake in
/// it speaks the current `WIRE_VERSION`. Only lines elided with `...`
/// are skipped.
#[test]
fn readme_transcripts_are_golden_frames() {
    let readme = include_str!("../../../README.md");
    let mut checked = 0;
    for line in readme.lines() {
        let (from_client, payload) = match line.split_once(": ") {
            Some(("C", payload)) => (true, payload),
            Some(("S", payload)) => (false, payload),
            _ => continue,
        };
        if payload.contains("...") {
            continue;
        }
        let (reencoded, version) = if from_client {
            let frame: ClientFrame = decode_payload(payload.as_bytes())
                .unwrap_or_else(|e| panic!("README frame does not decode ({e}): {line}"));
            let version = match &frame {
                ClientFrame::Hello { version, .. } => Some(*version),
                _ => None,
            };
            (json_of(&frame), version)
        } else {
            let frame: ServerFrame = decode_payload(payload.as_bytes())
                .unwrap_or_else(|e| panic!("README frame does not decode ({e}): {line}"));
            let version = match &frame {
                ServerFrame::HelloAck { version, .. } => Some(*version),
                _ => None,
            };
            (json_of(&frame), version)
        };
        assert_eq!(reencoded, payload, "README frame is not canonical");
        if let Some(version) = version {
            assert_eq!(version, WIRE_VERSION, "stale handshake: {line}");
        }
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} README frames were checked");
}

#[test]
fn oversized_frame_length_is_rejected() {
    let mut decoder = FrameDecoder::new();
    decoder.feed(&u32::MAX.to_be_bytes());
    assert!(decoder.next_payload().is_err());
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

#[test]
fn handshake_lists_hosted_sessions() {
    let (server, wire) = wired_server(ServerConfig::default());
    let a = server.add_session(active_session(blinker_system("hs_a", 0.002, 1_000_000)));
    let b = server.add_session(active_session(blinker_system("hs_b", 0.002, 1_000_000)));
    let client = WireClient::connect(wire.local_addr()).expect("handshake");
    assert_eq!(client.sessions(), &[a.id(), b.id()]);
}

#[test]
fn version_mismatch_is_rejected() {
    let (_server, wire) = wired_server(ServerConfig::default());
    // A raw socket speaking a future protocol revision.
    let mut raw = std::net::TcpStream::connect(wire.local_addr()).expect("connect");
    raw.write_all(
        &encode_frame(&ClientFrame::Hello {
            version: WIRE_VERSION + 1,
            token: None,
        })
        .expect("encodes"),
    )
    .expect("send hello");
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 1024];
    let reply = loop {
        if let Some(payload) = decoder.next_payload().expect("frame") {
            break decode_payload::<ServerFrame>(&payload).expect("decodes");
        }
        let n = raw.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed without replying");
        decoder.feed(&chunk[..n]);
    };
    let ServerFrame::Error { message, .. } = reply else {
        panic!("expected an error frame, got {reply:?}");
    };
    assert!(message.contains("version"), "unexpected message: {message}");
}

/// A connection is served as soon as it is accepted: back-to-back
/// connects each finish their handshake without waiting on a clock.
#[test]
fn connects_are_served_without_a_poll_delay() {
    let (_server, wire) = wired_server(ServerConfig::default());
    let mut took: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let client = WireClient::connect(wire.local_addr()).expect("handshake");
            let elapsed = t0.elapsed();
            drop(client);
            elapsed
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect took {median:?}"
    );
}

/// A refused handshake ends in a hang-up: after the `Error` frame the
/// peer reads EOF at once, because nothing outlives the connection's
/// own threads to hold its socket open.
#[test]
fn refused_handshakes_hang_up() {
    let (_server, wire) = wired_server(ServerConfig::default());
    let mut raw = std::net::TcpStream::connect(wire.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    raw.write_all(
        &encode_frame(&ClientFrame::Hello {
            version: WIRE_VERSION + 1,
            token: None,
        })
        .expect("encodes"),
    )
    .expect("send hello");
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes)
        .expect("the server hangs up within 2 s");
    let mut decoder = FrameDecoder::new();
    decoder.feed(&bytes);
    let payload = decoder
        .next_payload()
        .expect("frame")
        .expect("an error frame before EOF");
    let reply = decode_payload::<ServerFrame>(&payload).expect("decodes");
    assert!(
        matches!(reply, ServerFrame::Error { seq: None, .. }),
        "expected a connection-level error, got {reply:?}"
    );
    assert!(decoder.next_payload().expect("frame").is_none());
}

/// Shutdown wakes the accept loop through loopback also when the
/// listener is bound to the unspecified address.
#[test]
fn a_server_bound_to_an_unspecified_address_shuts_down() {
    let server = Arc::new(DebugServer::start(ServerConfig::default()));
    let wire = WireServer::start(Arc::clone(&server), "0.0.0.0:0").expect("bind");
    let (done, dropped) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(wire);
        let _ = done.send(());
    });
    dropped
        .recv_timeout(Duration::from_secs(1))
        .expect("the wire server shuts down within 1 s");
    dropper.join().expect("the drop does not panic");
}

/// v4 commands are session-addressed, so no attach is required before a
/// command — but the addressed session must exist, and so must an
/// attach target. Detaching a never-attached session is idempotent.
#[test]
fn unknown_sessions_are_refused_and_detach_is_idempotent() {
    let (_server, wire) = wired_server(ServerConfig::default());
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    match client.run_for(99, 1_000) {
        Err(WireError::Remote(m)) => assert!(m.contains("unknown session"), "message: {m}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
    match client.attach(99) {
        Err(WireError::Remote(m)) => assert!(m.contains("unknown session"), "message: {m}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
    // Detach acks even for sessions that were never attached (or do
    // not exist): the post-state "not attached" already holds.
    client.detach(99).expect("detach is idempotent");
}

/// Wire v5 `Analyze`: a remote client's report is identical to the
/// in-process cached one, the directory rows carry its
/// `(errors, warnings)` summary, and unknown sessions get a remote
/// error, all without any attach.
#[test]
fn analyze_round_trips_and_directory_carries_diagnostics() {
    let (server, wire) = wired_server(ServerConfig::default());
    let handle = server.add_session(active_session(blinker_system("ana", 0.002, 1_000_000)));
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");

    let remote = client.analyze(handle.id(), WAIT).expect("analysis reply");
    let local = handle.analysis();
    assert_eq!(json_of(&remote), json_of(&*local));
    // The default blinker preset is lightly loaded: verdicts must all
    // be Schedulable and nothing may be refused.
    assert!(remote.all_schedulable(), "report: {remote:?}");

    let rows = client.list_sessions(WAIT).expect("directory");
    let row = rows
        .iter()
        .find(|r| r.session == handle.id())
        .expect("session row");
    assert_eq!(row.diagnostics, local.diagnostic_counts());

    match client.analyze(99, WAIT) {
        Err(WireError::Remote(m)) => assert!(m.contains("unknown session"), "message: {m}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
}

/// Every reply kind, left in flight by a call that gave up at once,
/// is skipped by the calls after it: the next `snapshot` gets its own
/// reply, and the next `next_event` gets an event — never a
/// `Protocol` error over someone else's answer. The `seek_to` on an
/// in-memory session leaves a request-level `Error` in flight.
#[test]
fn a_stale_reply_never_answers_a_later_call() {
    let (server, wire) = wired_server(ServerConfig::default());
    let handle = server.add_session(active_session(blinker_system("stale", 0.002, 1_000_000)));
    let id = handle.id();
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    client.attach(id).expect("attach");
    let give_up_at_once = |client: &mut WireClient| {
        let now = Duration::ZERO;
        let outcomes = [
            ("analyze", client.analyze(id, now).map(drop)),
            ("list_sessions", client.list_sessions(now).map(drop)),
            ("metrics", client.metrics(now).map(drop)),
            ("snapshot", client.snapshot(id, true, now).map(drop)),
            (
                "fetch_range",
                client.fetch_range(id, 0, u64::MAX, now).map(drop),
            ),
            ("replay_from", client.replay_from(id, 0, 0, now).map(drop)),
            ("seek_to", client.seek_to(id, 0, false, now).map(drop)),
        ];
        for (call, outcome) in outcomes {
            assert_eq!(
                outcome,
                Err(WireError::Timeout),
                "{call} with a zero timeout"
            );
        }
    };

    // A later call reads past every stale reply to its own.
    give_up_at_once(&mut client);
    let snap = client.snapshot(id, false, WAIT).expect("a later snapshot");
    assert_eq!(snap.trace_len, 0, "nothing ran yet");

    // So does a later event read: the session runs in-process, so the
    // stale replies reach `next_event` itself, ahead of or among the
    // events.
    give_up_at_once(&mut client);
    handle.run_for(2_000_000).expect("run");
    match client.next_event(WAIT) {
        Ok(event) => assert_eq!(event.session(), id),
        Err(e) => panic!("a later next_event failed: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Fidelity: the acceptance scenario
// ---------------------------------------------------------------------------

/// A remote client attaches, schedules a signal, sets a breakpoint,
/// runs, resumes — and its event stream (BreakpointHit, TraceDelta,
/// everything) is byte-identical, after the JSON round-trip, to an
/// in-process subscriber of the very same run. So is the final trace.
#[test]
fn wire_stream_is_byte_identical_to_in_process_broadcast() {
    let (server, wire) = wired_server(ServerConfig {
        workers: 2,
        slice_ns: 333_333,
        ..ServerConfig::default()
    });
    let handle = server.add_session(active_session(blinker_system("fid", 0.002, 1_000_000)));
    let local = handle.subscribe();
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    client.attach(handle.id()).expect("attach");

    // Drive the whole scenario over the wire.
    client
        .schedule_signal(handle.id(), 500_000, "lamp", SignalValue::Bool(true))
        .expect("signal");
    client
        .add_breakpoint(
            handle.id(),
            CommandMatcher::kind(EventKind::StateEnter),
            true,
        )
        .expect("breakpoint");
    client.run_for(handle.id(), HORIZON_NS).expect("run");
    client.wait_idle(handle.id(), WAIT).expect("idle");
    client.resume(handle.id()).expect("resume");
    client.wait_idle(handle.id(), WAIT).expect("drained");

    // In-process ground truth, from this run's own broadcast. The
    // resume drains the paused queue into the trace without a run, so
    // no `Idle` follows: the stream ends with the delta that reaches
    // the trace length of a snapshot answered after the drain (the
    // delta is published moments after the snapshot that ended
    // wait_idle, in the same turn).
    let final_len = handle.stats(WAIT).expect("local stats").trace_len as u64;
    let local_events = drain_local_until(&local, |event| {
        matches!(event, EngineEvent::TraceDelta { entries, .. }
            if entries.last().is_some_and(|e| e.seq + 1 == final_len))
    });
    assert!(
        local_events
            .iter()
            .any(|e| matches!(e, EngineEvent::BreakpointHit { .. })),
        "scenario must hit the breakpoint"
    );
    assert!(
        local_events
            .iter()
            .any(|e| matches!(e, EngineEvent::TraceDelta { .. })),
        "scenario must stream trace deltas"
    );

    // The wire must deliver exactly the same stream: read event-for-
    // event (a generous per-event timeout, robust to load), then prove
    // nothing extra follows.
    let mut wire_events = Vec::new();
    while wire_events.len() < local_events.len() {
        match client.next_event(WAIT) {
            Ok(event) => wire_events.push(event),
            Err(e) => panic!(
                "wire stream ended after {} of {} events: {e}",
                wire_events.len(),
                local_events.len()
            ),
        }
    }
    if let Ok(extra) = client.next_event(Duration::from_millis(300)) {
        panic!("wire stream carries an extra event: {extra:?}");
    }
    assert_eq!(
        json_of(&local_events),
        json_of(&wire_events),
        "wire stream diverged from the in-process broadcast"
    );

    // The snapshot trace also survives the wire byte for byte.
    let remote_snap = client
        .snapshot(handle.id(), true, WAIT)
        .expect("remote snapshot");
    let local_snap = handle.snapshot(WAIT).expect("local snapshot");
    assert_eq!(remote_snap.trace_json, local_snap.trace_json);
    assert_eq!(remote_snap.trace_len, local_snap.trace_len);
    assert!(remote_snap.breakpoint_hits >= 1);
}

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

/// An in-process subscriber with a tiny bounded queue: the queue never
/// exceeds its capacity, loss is announced by `Lagged`, surviving
/// deltas stay ordered, and the recorded trace is untouched.
#[test]
fn bounded_subscriber_overflow_is_visible_and_bounded() {
    let reference = {
        let mut session = active_session(blinker_system("bp", 0.002, 1_000_000));
        session.run_for(HORIZON_NS).unwrap();
        session.engine().trace().to_json()
    };
    let server = DebugServer::start(ServerConfig {
        workers: 1,
        slice_ns: 250_000,
        ..ServerConfig::default()
    });
    let handle = server.add_session(active_session(blinker_system("bp", 0.002, 1_000_000)));
    let capacity = 4;
    let sub = handle.subscribe_with_capacity(capacity);
    handle.run_for(HORIZON_NS).unwrap();
    // Stalled consumer: never drains while the run is live, but keeps
    // checking that the queue respects its bound.
    loop {
        assert!(sub.len() <= capacity, "queue exceeded its capacity");
        match handle.wait_idle(Duration::from_millis(1)) {
            Ok(()) => break,
            Err(gmdf_server::ServerError::Timeout) => continue,
            Err(e) => panic!("wait_idle failed: {e}"),
        }
    }
    let events: Vec<EngineEvent> = sub.try_iter().collect();
    assert!(events.len() <= capacity + 1, "drain exceeded capacity");
    let lagged: u64 = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::Lagged { dropped, .. } => Some(*dropped),
            _ => None,
        })
        .sum();
    assert!(lagged > 0, "a stalled subscriber must be told it lagged");
    // Surviving trace entries arrive in order (gaps only at the loss).
    let mut last_seq = None;
    for event in &events {
        if let EngineEvent::TraceDelta { entries, .. } = event {
            for entry in entries {
                assert!(last_seq.is_none_or(|s| entry.seq > s), "reordered delta");
                last_seq = Some(entry.seq);
            }
        }
    }
    // The run itself is untouched: byte-identical trace.
    let snapshot = handle.snapshot(WAIT).unwrap();
    assert_eq!(snapshot.trace_json.as_deref(), Some(reference.as_str()));
}

/// A wire client that attaches and then never reads: its socket stalls,
/// its queue overflows — and the scheduler still finishes the horizon
/// at full cadence with a byte-identical trace. When the client finally
/// drains, it finds a `Lagged` marker in-stream.
#[test]
fn stalled_wire_client_never_wedges_the_pump() {
    let reference = {
        let mut session = active_session(blinker_system("stall", 0.002, 1_000_000));
        session.run_for(HORIZON_NS).unwrap();
        session.engine().trace().to_json()
    };
    let (server, wire) = wired_server(ServerConfig {
        workers: 1,
        slice_ns: 250_000,
        // Tiny queues so the stall bites long before TCP buffers could
        // mask it.
        subscriber_capacity: 2,
        ..ServerConfig::default()
    });
    let handle = server.add_session(active_session(blinker_system("stall", 0.002, 1_000_000)));
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    client.attach(handle.id()).expect("attach");
    // Stall: from here on the client reads nothing while the server
    // pumps 80 slices' worth of events at it.
    let t0 = Instant::now();
    handle.run_for(HORIZON_NS).unwrap();
    handle.wait_idle(WAIT).expect("pump must not be wedged");
    let pumped_in = t0.elapsed();
    assert!(
        pumped_in < WAIT,
        "wait_idle returned but took implausibly long: {pumped_in:?}"
    );
    let snapshot = handle.snapshot(WAIT).unwrap();
    assert_eq!(
        snapshot.trace_json.as_deref(),
        Some(reference.as_str()),
        "a stalled subscriber must not change the run"
    );
    // The client wakes up and finds the loss marker in its stream.
    let deadline = Instant::now() + WAIT;
    let mut saw_lagged = false;
    while Instant::now() < deadline {
        match client.next_event(Duration::from_millis(200)) {
            Ok(EngineEvent::Lagged { dropped, .. }) => {
                assert!(dropped > 0);
                saw_lagged = true;
                break;
            }
            Ok(_) => {}
            // Keep waiting out the overall deadline: a loaded machine
            // may open >200 ms gaps mid-stream.
            Err(WireError::Timeout) => {}
            Err(e) => panic!("stream error: {e}"),
        }
    }
    assert!(saw_lagged, "the stalled client was never told it lagged");
}

/// Concurrent wire clients on different sessions do not interfere:
/// each stream reassembles its own session's dense trace.
#[test]
fn two_wire_clients_stream_independent_sessions() {
    let (server, wire) = wired_server(ServerConfig {
        workers: 2,
        slice_ns: 500_000,
        ..ServerConfig::default()
    });
    let h1 = server.add_session(active_session(blinker_system("w1", 0.002, 1_000_000)));
    let h2 = server.add_session(active_session(blinker_system("w2", 0.003, 1_000_000)));
    let mut c1 = WireClient::connect(wire.local_addr()).expect("c1");
    let mut c2 = WireClient::connect(wire.local_addr()).expect("c2");
    c1.attach(h1.id()).expect("attach 1");
    c2.attach(h2.id()).expect("attach 2");
    c1.run_for(h1.id(), HORIZON_NS).expect("run 1");
    c2.run_for(h2.id(), HORIZON_NS).expect("run 2");
    c1.wait_idle(h1.id(), WAIT).expect("idle 1");
    c2.wait_idle(h2.id(), WAIT).expect("idle 2");
    for (client, handle) in [(&mut c1, &h1), (&mut c2, &h2)] {
        // The snapshot tells us how many trace entries the stream must
        // deliver; read until they all arrived (generous per-event
        // timeout — a fixed silence window is flaky under load).
        let snap = client.snapshot(handle.id(), false, WAIT).expect("snapshot");
        let mut seqs = Vec::new();
        while seqs.len() < snap.trace_len {
            match client.next_event(WAIT) {
                Ok(event) => {
                    assert_eq!(event.session(), handle.id(), "cross-session event leak");
                    if let EngineEvent::TraceDelta { entries, .. } = event {
                        seqs.extend(entries.iter().map(|e| e.seq));
                    }
                }
                Err(e) => panic!(
                    "stream ended after {} of {} entries: {e}",
                    seqs.len(),
                    snap.trace_len
                ),
            }
        }
        let expected: Vec<u64> = (0..snap.trace_len as u64).collect();
        assert_eq!(seqs, expected, "stream must carry the dense trace");
    }
}

/// A client that attaches mid-run must not lose post-subscription
/// events — including any the streamer writes ahead of the attach Ack.
/// Received deltas must be gapless from the first seen entry through
/// the end of the recorded trace.
#[test]
fn late_join_stream_is_gapless_from_the_subscription_point() {
    let (server, wire) = wired_server(ServerConfig {
        workers: 2,
        slice_ns: 250_000,
        ..ServerConfig::default()
    });
    let handle = server.add_session(active_session(blinker_system("late", 0.002, 1_000_000)));
    handle.run_for(10 * HORIZON_NS).unwrap();
    // Attach while the run is (very likely) still in flight.
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    client.attach(handle.id()).expect("attach");
    client.wait_idle(handle.id(), WAIT).expect("idle");
    // The attach can land after the run's last turn, and the stream
    // then carries nothing. One more run after the attach always
    // streams entries, and its `Idle` is the stream's last event.
    client.run_for(handle.id(), HORIZON_NS).expect("run");
    client.wait_idle(handle.id(), WAIT).expect("idle");
    let snap = client.snapshot(handle.id(), false, WAIT).expect("snapshot");
    let mut seqs: Vec<u64> = Vec::new();
    loop {
        match client.next_event(WAIT) {
            Ok(EngineEvent::TraceDelta { entries, .. }) => {
                seqs.extend(entries.iter().map(|e| e.seq));
            }
            Ok(EngineEvent::Idle { now_ns, .. }) if now_ns == snap.now_ns => break,
            Ok(_) => {}
            Err(e) => panic!(
                "stream ended after {} entries without its final Idle: {e}",
                seqs.len()
            ),
        }
    }
    assert!(!seqs.is_empty(), "the run after the attach streams entries");
    if let (Some(&first), Some(&last)) = (seqs.first(), seqs.last()) {
        let expected: Vec<u64> = (first..=last).collect();
        assert_eq!(seqs, expected, "late-join stream has gaps or reordering");
        assert_eq!(
            last as usize + 1,
            snap.trace_len,
            "late-join stream must run through the end of the trace"
        );
    }
}

/// A duplicate Hello is a connection-level violation: the server
/// answers a seq-less Error and closes, as the protocol contract says.
#[test]
fn duplicate_hello_closes_the_connection() {
    let (_server, wire) = wired_server(ServerConfig::default());
    let mut raw = std::net::TcpStream::connect(wire.local_addr()).expect("connect");
    raw.write_all(
        &encode_frame(&ClientFrame::Hello {
            version: WIRE_VERSION,
            token: None,
        })
        .expect("encodes"),
    )
    .expect("hello");
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 4096];
    let mut read_frame = |raw: &mut std::net::TcpStream, decoder: &mut FrameDecoder| loop {
        if let Some(payload) = decoder.next_payload().expect("frame") {
            break Some(decode_payload::<ServerFrame>(&payload).expect("decodes"));
        }
        match raw.read(&mut chunk) {
            Ok(0) => break None,
            Ok(n) => decoder.feed(&chunk[..n]),
            Err(e) => panic!("read failed: {e}"),
        }
    };
    assert!(matches!(
        read_frame(&mut raw, &mut decoder),
        Some(ServerFrame::HelloAck { .. })
    ));
    raw.write_all(
        &encode_frame(&ClientFrame::Hello {
            version: WIRE_VERSION,
            token: None,
        })
        .expect("encodes"),
    )
    .expect("duplicate hello");
    assert!(matches!(
        read_frame(&mut raw, &mut decoder),
        Some(ServerFrame::Error { seq: None, .. })
    ));
    // The server hangs up; the stream drains to EOF.
    assert!(read_frame(&mut raw, &mut decoder).is_none());
}

// ---------------------------------------------------------------------------
// Multiplexing: many sessions per socket
// ---------------------------------------------------------------------------

/// Drains an in-process subscriber of a run that ended by budget, up to
/// and including the session's `Idle`: the last event such a run
/// publishes.
fn drain_local(sub: &gmdf_server::EventReceiver) -> Vec<EngineEvent> {
    drain_local_until(sub, |event| matches!(event, EngineEvent::Idle { .. }))
}

/// One socket, two sessions: `attach_many` multiplexes both streams
/// over the connection, `next_event_from` demultiplexes them without
/// disturbing the sibling's buffered events, each demuxed stream is
/// byte-identical to an in-process subscriber of the same run, detach
/// filters out stragglers already buffered client-side, and a
/// re-attach starts a fresh subscription on the same socket.
#[test]
fn multi_attach_demux_is_byte_identical_and_filters_stragglers() {
    let (server, wire) = wired_server(ServerConfig {
        workers: 2,
        slice_ns: 500_000,
        subscriber_capacity: 0, // unbounded: nothing may lag
        ..ServerConfig::default()
    });
    let a = server.add_session(active_session(blinker_system("mux_a", 0.002, 1_000_000)));
    let b = server.add_session(active_session(blinker_system("mux_b", 0.003, 1_000_000)));
    let local_a = a.subscribe_with_capacity(0);
    let local_b = b.subscribe_with_capacity(0);
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    client.attach_many(&[a.id(), b.id()]).expect("attach both");
    assert_eq!(client.attached().collect::<Vec<_>>(), vec![a.id(), b.id()]);

    // The live session directory lists both hosted sessions.
    let directory = client.list_sessions(WAIT).expect("directory");
    let listed: Vec<_> = directory.iter().map(|row| row.session).collect();
    assert!(listed.contains(&a.id()) && listed.contains(&b.id()));

    // Drive both sessions over the one socket.
    client.run_for(a.id(), HORIZON_NS).expect("run a");
    client.run_for(b.id(), HORIZON_NS).expect("run b");
    client.wait_idle(a.id(), WAIT).expect("idle a");
    client.wait_idle(b.id(), WAIT).expect("idle b");

    let reference_a = drain_local(&local_a);
    let reference_b = drain_local(&local_b);
    assert!(!reference_a.is_empty() && !reference_b.is_empty());

    // Demux a first: b's interleaved events must stay buffered.
    let mut wire_a = Vec::new();
    while wire_a.len() < reference_a.len() {
        match client.next_event_from(a.id(), WAIT) {
            Ok(event) => wire_a.push(event),
            Err(e) => panic!(
                "stream a ended after {} of {} events: {e}",
                wire_a.len(),
                reference_a.len()
            ),
        }
    }
    assert_eq!(
        json_of(&reference_a),
        json_of(&wire_a),
        "demuxed stream a diverged from the in-process broadcast"
    );
    // Then b, from the client-side buffer (plus any still in flight).
    let mut wire_b = Vec::new();
    while wire_b.len() < reference_b.len() {
        match client.next_event_from(b.id(), WAIT) {
            Ok(event) => wire_b.push(event),
            Err(e) => panic!(
                "stream b ended after {} of {} events: {e}",
                wire_b.len(),
                reference_b.len()
            ),
        }
    }
    assert_eq!(
        json_of(&reference_b),
        json_of(&wire_b),
        "demuxed stream b diverged from the in-process broadcast"
    );

    // Straggler filter: run b again, then detach it before reading.
    // The detach purges b's buffered stragglers client-side, and the
    // merged stream never surfaces a b event again.
    client.run_for(b.id(), HORIZON_NS).expect("run b again");
    client.wait_idle(b.id(), WAIT).expect("idle b again");
    client.detach(b.id()).expect("detach b");
    assert_eq!(client.attached().collect::<Vec<_>>(), vec![a.id()]);
    match client.next_event(Duration::from_millis(300)) {
        Err(WireError::Timeout) => {}
        Ok(event) => panic!("detached stream leaked an event: {event:?}"),
        Err(e) => panic!("stream error: {e}"),
    }

    // Re-attach on the same socket: a fresh subscription streams b's
    // next run.
    client.attach(b.id()).expect("re-attach b");
    client.run_for(b.id(), HORIZON_NS).expect("run b third");
    client.wait_idle(b.id(), WAIT).expect("idle b third");
    let deadline = Instant::now() + WAIT;
    let mut fresh = 0usize;
    while Instant::now() < deadline {
        match client.next_event_from(b.id(), Duration::from_millis(200)) {
            Ok(_) => {
                fresh += 1;
                break;
            }
            Err(WireError::Timeout) => {}
            Err(e) => panic!("stream error: {e}"),
        }
    }
    assert!(fresh > 0, "re-attached session streamed nothing");
}

/// `attach_many` awaits every reply even after a refusal: the
/// sessions the server acknowledged — before and after the refused
/// one — are attached client-side too, so their streams are handed
/// out rather than dropped as stragglers.
#[test]
fn attach_many_attaches_every_acknowledged_session() {
    let (server, wire) = wired_server(ServerConfig::default());
    let a = server.add_session(active_session(blinker_system("many_a", 0.002, 1_000_000)));
    let b = server.add_session(active_session(blinker_system("many_b", 0.002, 1_000_000)));
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    match client.attach_many(&[a.id(), 99, b.id()]) {
        Err(WireError::Remote(m)) => assert_eq!(m, "unknown session 99"),
        other => panic!("expected the refusal of session 99, got {other:?}"),
    }
    assert_eq!(client.attached().collect::<Vec<_>>(), vec![a.id(), b.id()]);

    // b, attached after the refusal, streams. A short timeout: a
    // client that dropped b's events fails fast.
    client.run_for(b.id(), 2_000_000).expect("run b");
    match client.next_event(Duration::from_secs(5)) {
        Ok(event) => assert_eq!(event.session(), b.id()),
        Err(e) => panic!("b's stream was not handed out: {e}"),
    }
}

/// One stalled attach among healthy siblings on the same socket: the
/// tiny-capacity attach overflows *its own* queue (announced by
/// `Lagged`), while the sibling attach on the very same connection
/// stays byte-identical to an in-process subscriber of the same run.
#[test]
fn stalled_attach_lags_alone_while_sibling_stays_byte_identical() {
    let (server, wire) = wired_server(ServerConfig {
        workers: 1,
        slice_ns: 250_000,
        ..ServerConfig::default()
    });
    let x = server.add_session(active_session(blinker_system("slow", 0.002, 1_000_000)));
    let y = server.add_session(active_session(blinker_system("fast", 0.002, 1_000_000)));
    let local_y = y.subscribe_with_capacity(0);
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    // Same socket, opposite fates: x on a two-slot queue, y unbounded.
    client
        .attach_with_capacity(x.id(), Some(2))
        .expect("attach x");
    client
        .attach_with_capacity(y.id(), Some(0))
        .expect("attach y");

    // Stall: the client reads nothing while the pump throws hundreds
    // of slices' worth of events at the shared socket. x's volume is
    // 10x so its two-slot queue must overflow once TCP backs up.
    x.run_for(10 * HORIZON_NS).unwrap();
    y.run_for(HORIZON_NS).unwrap();
    x.wait_idle(WAIT).expect("pump x must not be wedged");
    y.wait_idle(WAIT).expect("pump y must not be wedged");
    let reference_y = drain_local(&local_y);
    assert!(!reference_y.is_empty());

    // y's stream survives intact despite the sibling's overflow.
    let mut wire_y = Vec::new();
    while wire_y.len() < reference_y.len() {
        match client.next_event_from(y.id(), WAIT) {
            Ok(event) => wire_y.push(event),
            Err(e) => panic!(
                "sibling stream ended after {} of {} events: {e}",
                wire_y.len(),
                reference_y.len()
            ),
        }
    }
    assert_eq!(
        json_of(&reference_y),
        json_of(&wire_y),
        "healthy sibling diverged from the in-process broadcast"
    );

    // x's stream carries the loss marker for its own queue.
    let deadline = Instant::now() + WAIT;
    let mut saw_lagged = false;
    while Instant::now() < deadline && !saw_lagged {
        match client.next_event_from(x.id(), Duration::from_millis(200)) {
            Ok(EngineEvent::Lagged { dropped, .. }) => {
                assert!(dropped > 0);
                saw_lagged = true;
            }
            Ok(_) => {}
            Err(WireError::Timeout) => break,
            Err(e) => panic!("stream error: {e}"),
        }
    }
    assert!(saw_lagged, "the stalled attach was never told it lagged");
}

/// Threads of this process, per the kernel (`/proc/self/status`).
/// `None` off Linux — the soak then skips its thread-count assertion.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// The fan-out soak the wire v4 refactor gates on: 200 concurrent
/// clients on ONE listener, each multiplexing four attaches over a
/// 32-session fleet — 800 attached streams served by two threads per
/// connection (reader + streamer), not two per watched session. Every
/// stream must be byte-identical to an in-process subscriber of the
/// same run.
#[test]
fn fanout_soak_two_hundred_clients_multiplex_a_fleet() {
    const CLIENTS: usize = 200;
    const FLEET: usize = 32;
    const ATTACHES_PER_CLIENT: usize = 4;
    const SOAK_HORIZON_NS: u64 = 2_000_000;

    let (server, wire) = wired_server(ServerConfig {
        workers: 4,
        slice_ns: 500_000,
        subscriber_capacity: 0, // unbounded: byte-identical, no Lagged
        ..ServerConfig::default()
    });
    let handles: Vec<_> = (0..FLEET)
        .map(|i| {
            server.add_session(active_session(blinker_system(
                &format!("fan{i}"),
                0.002,
                1_000_000,
            )))
        })
        .collect();
    let locals: Vec<_> = handles
        .iter()
        .map(|handle| handle.subscribe_with_capacity(0))
        .collect();

    let threads_before = thread_count();
    let mut clients: Vec<(WireClient, Vec<usize>)> = (0..CLIENTS)
        .map(|c| {
            let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
            // Four consecutive fleet slots, striped so every session is
            // watched by many clients.
            let picks: Vec<usize> = (0..ATTACHES_PER_CLIENT)
                .map(|k| (c * ATTACHES_PER_CLIENT + k) % FLEET)
                .collect();
            let ids: Vec<_> = picks.iter().map(|&i| handles[i].id()).collect();
            client.attach_many(&ids).expect("attach_many");
            (client, picks)
        })
        .collect();
    if let (Some(before), Some(after)) = (threads_before, thread_count()) {
        let grown = after.saturating_sub(before);
        assert!(
            grown <= 2 * CLIENTS + 8,
            "{grown} new threads for {CLIENTS} connections — more than two per connection"
        );
    }

    // One short burst per session, then every one of the 800 attached
    // streams must replay its sessions exactly.
    for handle in &handles {
        handle.run_for(SOAK_HORIZON_NS).unwrap();
    }
    for handle in &handles {
        handle.wait_idle(WAIT).unwrap();
    }
    let references: Vec<Vec<EngineEvent>> = locals.iter().map(drain_local).collect();
    let reference_json: Vec<String> = references.iter().map(json_of).collect();
    for (client, picks) in &mut clients {
        for &i in picks.iter() {
            let mut got = Vec::new();
            while got.len() < references[i].len() {
                match client.next_event_from(handles[i].id(), WAIT) {
                    Ok(event) => got.push(event),
                    Err(e) => panic!(
                        "fan-out stream died after {} of {} events: {e}",
                        got.len(),
                        references[i].len()
                    ),
                }
            }
            assert_eq!(
                json_of(&got),
                reference_json[i],
                "fan-out stream diverged from the in-process broadcast"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Authentication
// ---------------------------------------------------------------------------

/// A server with a shared-secret token refuses absent and wrong tokens
/// with one generic message (no oracle for the secret), and completes
/// the handshake — and a full drive of a session — for the right one.
#[test]
fn auth_token_gates_the_handshake() {
    let (server, wire) = wired_server(ServerConfig {
        auth_token: Some("correct horse battery".to_owned()),
        ..ServerConfig::default()
    });
    let handle = server.add_session(active_session(blinker_system("auth", 0.002, 1_000_000)));
    for bad in [None, Some("wrong"), Some("correct horse batterY")] {
        match WireClient::connect_with_token(wire.local_addr(), bad) {
            Err(WireError::Remote(m)) => assert_eq!(m, "authentication failed"),
            other => panic!("expected a refusal for {bad:?}, got {other:?}"),
        }
    }
    let mut client =
        WireClient::connect_with_token(wire.local_addr(), Some("correct horse battery"))
            .expect("authenticated handshake");
    client.attach(handle.id()).expect("attach");
    client.run_for(handle.id(), HORIZON_NS).expect("run");
    client.wait_idle(handle.id(), WAIT).expect("idle");
    let snap = client.snapshot(handle.id(), false, WAIT).expect("snapshot");
    assert!(snap.trace_len > 0);
}

/// A server with no configured token accepts a token-less Hello and
/// ignores any token a client volunteers.
#[test]
fn unauthenticated_server_ignores_tokens() {
    let (_server, wire) = wired_server(ServerConfig::default());
    WireClient::connect(wire.local_addr()).expect("token-less handshake");
    WireClient::connect_with_token(wire.local_addr(), Some("ignored"))
        .expect("volunteered token is ignored");
}
