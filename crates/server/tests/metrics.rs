//! Ground-truth tests for the fleet observability layer.
//!
//! Metrics are only worth shipping if they are *true*: every counter in
//! a [`MetricsSnapshot`] must equal a quantity independently recoverable
//! from the run itself. These suites pin that down:
//!
//! * a property test runs random system images under random slice
//!   partitions, some paused by a one-shot breakpoint, and checks each
//!   session's counters against the trace and its stream (events fed ==
//!   entries recorded + commands pending, violations == per-entry sum,
//!   breakpoint hits == `BreakpointHit` events received, store appends
//!   == entries appended);
//! * a wire test fetches the snapshot over TCP and asserts it equals
//!   the in-process read-out **exactly** (after stripping wall-clock
//!   fields, which cannot be equal across two instants);
//! * a quarantine test corrupts a durable session and checks the
//!   restore failure surfaces over the wire, reason included;
//! * a lag test checks cumulative subscriber drops reach both the
//!   [`SessionSnapshot`] and the metrics row, and agree.
//!
//! [`MetricsSnapshot`]: gmdf_server::MetricsSnapshot
//! [`SessionSnapshot`]: gmdf_server::SessionSnapshot

mod common;

use common::{active_session, blinker_system, ring_system, spec_of, tmp_root};
use gmdf_engine::TraceEntry;
use gmdf_gdm::{CommandMatcher, EventKind};
use gmdf_server::{
    DebugServer, EngineEvent, HealthState, PersistConfig, ServerConfig, SessionHandle, WireClient,
    WireServer,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

/// Pages the whole trace out through the replay API — the independent
/// record the counters are checked against.
fn full_trace(handle: &SessionHandle) -> Vec<TraceEntry> {
    let mut out = Vec::new();
    let mut from = 0u64;
    loop {
        let page = handle.replay_from(from, 0, WAIT).expect("replay page");
        from = page.first_seq + page.entries.len() as u64;
        let complete = page.complete;
        out.extend(page.entries);
        if complete {
            break;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the image and however the horizon is partitioned into
    /// run budgets, the snapshot's counters equal the quantities
    /// recoverable from the recorded trace itself and from a lossless
    /// subscriber's stream. With `breakpoint` set, each session pauses
    /// at its first state entry and ends with the later commands
    /// pending, fed but not yet in the trace.
    #[test]
    fn counters_match_trace_ground_truth(
        workers in 1usize..4,
        slice_ns in 200_000u64..2_000_000,
        ring_states in 2usize..6,
        splits in proptest::collection::vec(500_000u64..6_000_000, 2..10),
        breakpoint in any::<bool>(),
    ) {
        let server = DebugServer::start(ServerConfig {
            workers,
            slice_ns,
            ..ServerConfig::default()
        });
        let blinker =
            server.add_session(active_session(blinker_system("mx-blink", 0.002, 1_000_000)));
        let ring = server.add_session(active_session(ring_system(
            "mx-ring",
            ring_states,
            0.001,
            500_000,
        )));
        let streams = [
            blinker.subscribe_with_capacity(0),
            ring.subscribe_with_capacity(0),
        ];
        if breakpoint {
            for handle in [&blinker, &ring] {
                handle
                    .add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true)
                    .unwrap();
            }
        }
        for dt in &splits {
            blinker.run_for(*dt).unwrap();
            ring.run_for(*dt).unwrap();
        }
        blinker.wait_idle(WAIT).unwrap();
        ring.wait_idle(WAIT).unwrap();
        let hits = streams.map(|stream| {
            stream
                .try_iter()
                .filter(|event| matches!(event, EngineEvent::BreakpointHit { .. }))
                .count() as u64
        });

        // Snapshot first: the replay reads below bump the store's read
        // counters, and the append counters must already be settled.
        let snapshot = server.metrics_snapshot();
        prop_assert_eq!(snapshot.fleet.sessions, 2);
        prop_assert_eq!(snapshot.fleet.workers, workers as u64);
        let mut total_entries = 0u64;
        let mut total_fed = 0u64;
        for (handle, hits) in [&blinker, &ring].into_iter().zip(hits) {
            let row = snapshot
                .sessions
                .iter()
                .find(|s| s.session == handle.id())
                .expect("session row");
            let trace = full_trace(handle);
            let pending = handle.stats(WAIT).unwrap().pending as u64;
            prop_assert_eq!(pending > 0, breakpoint, "paused exactly when broken into");
            // Every fed model event records exactly one trace entry,
            // once it is no longer queued behind a pause.
            prop_assert_eq!(row.events_fed, trace.len() as u64 + pending);
            prop_assert_eq!(row.trace_len, trace.len() as u64);
            prop_assert_eq!(row.breakpoint_hits, hits);
            prop_assert_eq!(hits, u64::from(breakpoint), "one-shot");
            // The violation counter equals the per-entry sum.
            let violations: u64 = trace.iter().map(|e| e.violations.len() as u64).sum();
            prop_assert_eq!(row.violations, violations);
            prop_assert_eq!(row.state, HealthState::Parked);
            prop_assert_eq!(row.remaining_ns, 0);
            total_entries += trace.len() as u64;
            total_fed += row.events_fed;
        }
        prop_assert_eq!(snapshot.fleet.events_fed, total_fed);
        // One store append per recorded entry, fleet-wide.
        prop_assert_eq!(snapshot.fleet.store_appends, total_entries);
        prop_assert_eq!(snapshot.fleet.store_append_ns.count, total_entries);
        // Shard breakdowns sum to the merged fleet totals.
        let shard_slices: u64 = snapshot.fleet.shards.iter().map(|s| s.slices).sum();
        prop_assert_eq!(snapshot.fleet.slices, shard_slices);
        prop_assert_eq!(snapshot.fleet.slice_wall_ns.count, shard_slices);
        prop_assert_eq!(snapshot.fleet.events_per_slice.count, shard_slices);
        prop_assert_eq!(snapshot.fleet.events_per_slice.sum, total_fed);
        // Idle fleet: nothing queued anywhere.
        prop_assert_eq!(snapshot.fleet.mailbox_depth, 0);
        prop_assert_eq!(snapshot.fleet.subscriber_depth, 0);
        prop_assert_eq!(snapshot.fleet.lagged_drops, 0);
    }
}

/// The acceptance check for wire-exported telemetry: a remote client's
/// [`WireClient::metrics`] equals the in-process
/// [`DebugServer::metrics_snapshot`] *exactly* once wall-clock fields
/// are stripped. The only other exclusion is the tx byte/frame pair:
/// the `Metrics` reply is written *after* the remote snapshot is built,
/// so its own bytes can only ever appear in the later local read-out.
#[test]
fn wire_snapshot_matches_in_process_exactly() {
    let server = Arc::new(DebugServer::start(ServerConfig {
        workers: 2,
        slice_ns: 500_000,
        ..ServerConfig::default()
    }));
    let a = server.add_session(active_session(blinker_system("wx-blink", 0.002, 1_000_000)));
    let b = server.add_session(active_session(ring_system("wx-ring", 4, 0.001, 500_000)));
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("wire server");
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");

    a.run_for(20_000_000).unwrap();
    b.run_for(20_000_000).unwrap();
    a.wait_idle(WAIT).unwrap();
    b.wait_idle(WAIT).unwrap();

    let mut remote = client.metrics(WAIT).expect("remote snapshot");
    let mut local = server.metrics_snapshot();
    remote.strip_wall_clock();
    local.strip_wall_clock();
    remote.fleet.wire_frames_tx = 0;
    remote.fleet.wire_bytes_tx = 0;
    local.fleet.wire_frames_tx = 0;
    local.fleet.wire_bytes_tx = 0;
    // Same story for the per-connection rows: the Metrics reply itself
    // bumps this connection's tx counters between the two snapshots.
    for conn in remote
        .fleet
        .wire_conns
        .iter_mut()
        .chain(local.fleet.wire_conns.iter_mut())
    {
        conn.frames_tx = 0;
        conn.bytes_tx = 0;
    }
    assert_eq!(remote, local);
    // And the counters are non-trivial — this was a live fleet.
    assert!(remote.fleet.events_fed > 0);
    assert!(remote.fleet.slices > 0);
    assert_eq!(remote.fleet.wire_connections, 1);
    assert!(remote.fleet.wire_frames_rx > 0);
    // The per-connection row for this one live client exists, carries
    // its received traffic, and reaches the Prometheus exposition.
    assert_eq!(remote.fleet.wire_conns.len(), 1);
    assert!(remote.fleet.wire_conns[0].frames_rx > 0);
    let text = server.metrics_text();
    assert!(
        text.contains("gmdf_wire_conn_frames_rx{connection="),
        "per-connection rows missing from the exposition"
    );
}

/// A durable session that fails to restore is reported over the wire —
/// in the handshake, in the telemetry snapshot, and as a `Quarantined`
/// health row — with the server's restore-failure reason attached.
#[test]
fn quarantined_sessions_surface_over_the_wire() {
    let root = tmp_root("wire-quarantine");
    let spec = spec_of(blinker_system("wq-blink", 0.001, 1_000_000));
    let config = ServerConfig {
        workers: 2,
        slice_ns: 500_000,
        ..ServerConfig::default()
    };
    let (good, bad) = {
        let server = DebugServer::start_persistent(config.clone(), PersistConfig::new(&root))
            .expect("persistent server boots");
        let a = server.add_durable_session(&spec).expect("a");
        let b = server.add_durable_session(&spec).expect("b");
        a.run_for(2_000_000).expect("send");
        b.run_for(2_000_000).expect("send");
        a.wait_idle(WAIT).expect("idle");
        b.wait_idle(WAIT).expect("idle");
        (a.id(), b.id())
    };
    let spec_path = root
        .join("sessions")
        .join(format!("{bad:016}"))
        .join("spec.json");
    std::fs::write(&spec_path, b"{ not json").expect("corrupt spec");

    let server = Arc::new(
        DebugServer::start_persistent(config, PersistConfig::new(&root)).expect("restart"),
    );
    // The survivor gets its journaled run budget back and re-runs it
    // (no checkpoint image lies within its 2 ms); let it settle before
    // asserting its row is `Parked`.
    server
        .handle(good)
        .expect("the survivor is hosted")
        .wait_idle(WAIT)
        .expect("the survivor settles");
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("wire server");
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");

    // The handshake names the survivors and the casualties.
    assert_eq!(client.sessions(), &[good]);
    let quarantined = client.quarantined().to_vec();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].session, bad);
    assert!(
        !quarantined[0].reason.is_empty(),
        "the restore-failure reason must travel with the id"
    );

    // The telemetry snapshot agrees, and health rows mark the state.
    let snapshot = client.metrics(WAIT).expect("remote snapshot");
    assert_eq!(snapshot.quarantined, quarantined);
    assert_eq!(snapshot.fleet.sessions, 1, "quarantined ids are not hosted");
    assert!(snapshot.sessions.iter().any(|s| s.session == bad
        && s.state == HealthState::Quarantined
        && s.detail.as_deref() == Some(quarantined[0].reason.as_str())));
    assert!(snapshot
        .sessions
        .iter()
        .any(|s| s.session == good && s.state == HealthState::Parked));

    drop(client);
    drop(wire);
    drop(server);
}

/// Cumulative subscriber drops reach the counter-only session snapshot
/// and the metrics row, and the two agree — a lagging viewer's losses
/// no longer die inside the queue that suffered them.
#[test]
fn lagged_drops_reach_snapshot_and_metrics() {
    let server = DebugServer::start(ServerConfig {
        workers: 1,
        slice_ns: 250_000,
        subscriber_capacity: 2,
        ..ServerConfig::default()
    });
    let handle = server.add_session(active_session(blinker_system("lag", 0.002, 1_000_000)));
    // Never drained: with a 2-slot queue and 40 ms of 250 µs slices,
    // this subscriber must overflow.
    let stalled = handle.subscribe();
    handle.run_for(40_000_000).unwrap();
    handle.wait_idle(WAIT).unwrap();

    let snapshot = handle.stats(WAIT).expect("stats");
    assert!(
        snapshot.lagged_drops > 0,
        "a stalled 2-slot subscriber must drop"
    );
    let metrics = server.metrics_snapshot();
    let row = metrics
        .sessions
        .iter()
        .find(|s| s.session == handle.id())
        .expect("session row");
    assert_eq!(row.lagged_drops, snapshot.lagged_drops);
    assert_eq!(metrics.fleet.lagged_drops, snapshot.lagged_drops);
    drop(stalled);
}

/// `ServerConfig { metrics: false }` skips every registry-side record,
/// yet the snapshot still reports true per-session counters — the
/// always-on session state is independent of the observability layer.
#[test]
fn disabled_registry_still_reports_session_truth() {
    let server = DebugServer::start(ServerConfig {
        workers: 1,
        slice_ns: 500_000,
        metrics: false,
        ..ServerConfig::default()
    });
    let handle = server.add_session(active_session(blinker_system("off", 0.002, 1_000_000)));
    handle.run_for(10_000_000).unwrap();
    handle.wait_idle(WAIT).unwrap();

    let snapshot = server.metrics_snapshot();
    // Registry-side counters never recorded…
    assert_eq!(snapshot.fleet.slices, 0);
    assert_eq!(snapshot.fleet.store_appends, 0);
    assert_eq!(snapshot.fleet.slice_wall_ns.count, 0);
    // …but the session rows still carry the truth.
    let row = snapshot
        .sessions
        .iter()
        .find(|s| s.session == handle.id())
        .expect("session row");
    assert!(row.events_fed > 0);
    assert_eq!(row.trace_len, row.events_fed);
    assert_eq!(row.state, HealthState::Parked);
    assert_eq!(snapshot.fleet.events_fed, row.events_fed);
}
