//! Durable sessions: restart round-trips, disk-backed history paging,
//! and backend equivalence under the scheduler.
//!
//! The headline property: a persistent server stopped **mid-run** and
//! restarted over the same registry finishes the run with an
//! `ExecutionTrace::to_json` and a subscriber-visible entry stream
//! **byte-identical** to an uninterrupted in-memory run of the same
//! command history — the restart is unobservable in the record. A
//! restart restores the newest checkpoint image the recovered trace
//! store covers; it must equal both the uninterrupted run and a
//! restart of the same registry with its checkpoints deleted.

mod common;

use common::{blinker_system, ring_system, spec_of, tmp_root};
use gmdf_engine::{CheckpointStore, Retention, SegmentStore, TraceEntry};
use gmdf_gdm::{CommandMatcher, EventKind};
use gmdf_server::{
    DebugServer, EngineEvent, EventReceiver, PersistConfig, ServerConfig, ServerError,
    SessionHandle, WireClient, WireServer, DEFAULT_CHECKPOINT_INTERVAL,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        slice_ns: 500_000,
        ..ServerConfig::default()
    }
}

/// Drains every `TraceDelta` entry currently buffered on `events`.
fn drain_delta_entries(events: &EventReceiver, out: &mut Vec<TraceEntry>) {
    for event in events.try_iter() {
        if let EngineEvent::TraceDelta { entries, .. } = event {
            out.extend(entries);
        }
    }
}

/// The scripted command history both the reference and the durable run
/// execute. `wait_idle` barriers pin every command's application
/// instant, so the two runs are commanded identically.
fn drive_history(handle: &SessionHandle) {
    handle.run_for(3_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    handle
        .add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true)
        .expect("send");
    handle.run_for(3_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    handle.step().expect("send");
    handle.resume().expect("send");
    handle.wait_idle(WAIT).expect("idle");
}

/// Copies a registry directory tree, so two restarts can start from
/// the same on-disk state.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("read registry") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy file");
        }
    }
}

/// The checkpoint directory of one durable session.
fn checkpoint_dir(root: &Path, id: u64) -> PathBuf {
    root.join("sessions")
        .join(format!("{id:016}"))
        .join("checkpoints")
}

/// Trace positions of the checkpoint images on disk, ascending, as the
/// store's index lists them.
fn checkpoint_seqs(root: &Path, id: u64) -> Vec<u64> {
    CheckpointStore::open(checkpoint_dir(root, id))
        .expect("checkpoint dir opens")
        .metas()
        .iter()
        .map(|m| m.seq)
        .collect()
}

/// A history shaped like the time-travel suite's: a stimulus, a
/// one-shot breakpoint hit that leaves the engine paused with commands
/// queued behind it, then step, resume and clear. The ring system's
/// `state_sig` output is the stimulus label.
fn drive_paused_history(handle: &SessionHandle) {
    handle.run_for(6_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    handle
        .schedule_signal(9_000_000, "state_sig", gmdf_comdes::SignalValue::Int(5))
        .expect("send");
    handle
        .add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true)
        .expect("send");
    handle.run_for(6_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    handle.step().expect("send");
    handle.resume().expect("send");
    handle.run_for(9_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    handle.clear_breakpoints().expect("send");
}

/// The full entry stream of a restarted session: what subscribers saw
/// before the kill, plus the history from there on paged out of the
/// store with `ReplayFrom` (pages of 7, so the paging loops).
fn stream_after_restart(handle: &SessionHandle, pre_kill: &[TraceEntry]) -> String {
    let mut stream = pre_kill.to_vec();
    loop {
        let next = stream.len() as u64;
        let slice = handle.replay_from(next, 7, WAIT).expect("replay page");
        assert_eq!(slice.first_seq, next);
        let done = slice.complete;
        stream.extend(slice.entries);
        if done {
            break;
        }
    }
    serde_json::to_string(&stream).expect("json")
}

/// Stop a persistent server mid-run, restart it over the same registry,
/// and prove the finished trace and the subscriber-visible entry stream
/// are byte-identical to an uninterrupted in-memory run.
#[test]
fn restart_mid_run_is_unobservable_in_the_record() {
    let system = || blinker_system("persist-blinker", 0.0005, 500_000);

    // Reference: uninterrupted, in-memory, same command history.
    let reference = DebugServer::start(server_config());
    let ref_handle = reference.add_session(spec_of(system()).build().expect("builds"));
    let ref_events = ref_handle.subscribe();
    drive_history(&ref_handle);
    ref_handle.run_for(10_000_000).expect("send");
    ref_handle.wait_idle(WAIT).expect("idle");
    let ref_snapshot = ref_handle.snapshot(WAIT).expect("snapshot");
    let mut ref_stream = Vec::new();
    drain_delta_entries(&ref_events, &mut ref_stream);
    drop(reference);

    // Durable run: same history, but the server dies mid-way through
    // the final run budget.
    let root = tmp_root("restart");
    let (session_id, mut pre_stream) = {
        let server = DebugServer::start_persistent(server_config(), PersistConfig::new(&root))
            .expect("persistent server boots");
        let handle = server
            .add_durable_session(&spec_of(system()))
            .expect("durable session");
        let events = handle.subscribe();
        drive_history(&handle);
        handle.run_for(10_000_000).expect("send");
        // Barrier on the mailbox (stats round-trips behind the RunFor)
        // so the command is *accepted* — applied and journaled —
        // before the kill; the drop below must interrupt the run, not
        // outrace the command. No idle wait: budget stays outstanding.
        handle.stats(WAIT).expect("stats");
        // Drop the server with run budget outstanding — the "kill
        // mid-run". (Workers stop after at most one more slice.)
        let mut pre = Vec::new();
        drain_delta_entries(&events, &mut pre);
        (handle.id(), pre)
        // server dropped here
    };

    // Restart over the same registry: the session is recreated, its
    // history replayed, and the outstanding budget finished.
    let server =
        DebugServer::start_persistent(server_config(), PersistConfig::new(&root)).expect("restart");
    assert_eq!(server.session_ids(), vec![session_id], "id preserved");
    let handle = server.handle(session_id).expect("restored handle");
    handle.wait_idle(WAIT).expect("restored run finishes");
    let snapshot = handle.snapshot(WAIT).expect("snapshot");

    // The record is byte-identical to the uninterrupted run.
    assert_eq!(
        snapshot.trace_json, ref_snapshot.trace_json,
        "restarted trace must be byte-identical to the uninterrupted run"
    );
    assert_eq!(snapshot.trace_len, ref_snapshot.trace_len);
    assert_eq!(snapshot.now_ns, ref_snapshot.now_ns);
    assert_eq!(snapshot.engine_state, ref_snapshot.engine_state);
    assert_eq!(snapshot.events_fed, ref_snapshot.events_fed);
    assert_eq!(snapshot.violations, ref_snapshot.violations);
    assert_eq!(snapshot.breakpoint_hits, ref_snapshot.breakpoint_hits);
    assert!(snapshot.trace_len > 0, "the run actually recorded");

    // Stream equivalence: what subscribers saw before the kill, plus
    // the historical backfill served from disk, is the uninterrupted
    // stream. (Pages of 7 force multiple ReplayFrom round trips.)
    let seen = pre_stream.len() as u64;
    let mut next = seen;
    loop {
        let slice = handle.replay_from(next, 7, WAIT).expect("replay page");
        assert_eq!(slice.first_seq, next);
        next += slice.entries.len() as u64;
        pre_stream.extend(slice.entries);
        if slice.complete {
            break;
        }
    }
    let as_json = |entries: &[TraceEntry]| serde_json::to_string(&entries.to_vec()).expect("json");
    assert_eq!(
        as_json(&pre_stream),
        as_json(&ref_stream),
        "pre-kill stream + disk backfill must equal the uninterrupted stream"
    );

    // The delta stream entries are the trace itself.
    assert_eq!(pre_stream.len(), snapshot.trace_len);
    drop(server);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A durable session's disk-backed `window`/`entries_since` answers
    /// are identical to an in-memory session of the same run — over
    /// random ring images, segment capacities, slice partitions and
    /// query points.
    #[test]
    fn disk_backed_session_queries_equal_memory(
        n_states in 2usize..5,
        capacity in 1usize..9,
        slices in proptest::collection::vec(
            prop_oneof![Just(333u64), Just(70_001u64), Just(1_250_000u64), Just(5_000_000u64)],
            1..5,
        ),
        cursors in proptest::collection::vec(0u64..200, 1..5),
    ) {
        let system = |name: &str| ring_system(name, n_states, 0.0008, 500_000);
        let horizon = 12_000_000u64;

        // In-memory run, one-shot.
        let mut mem = spec_of(system("ring-mem")).build().expect("builds");
        mem.run_for(horizon).expect("runs");

        // Disk-backed run, pumped in a ragged slice partition.
        let root = tmp_root("equiv");
        let mut disk = spec_of(system("ring-mem")).build().expect("builds");
        disk.engine_mut().set_trace_store(Box::new(
            SegmentStore::open(root.join("trace"), capacity).expect("store"),
        ));
        let mut k = 0usize;
        while disk.now_ns() < horizon {
            let dt = slices[k % slices.len()].min(horizon - disk.now_ns());
            disk.run_for(dt).expect("slice");
            k += 1;
        }
        disk.engine_mut().sync_trace().expect("sync");

        let mem_trace = mem.engine().trace();
        let disk_trace = disk.engine().trace();
        prop_assert_eq!(mem_trace.to_json(), disk_trace.to_json(), "whole-trace identity");
        for &cursor in &cursors {
            prop_assert_eq!(
                mem_trace.entries_since(cursor),
                disk_trace.entries_since(cursor),
                "entries_since({})", cursor
            );
        }
        let (t0, t1) = mem_trace.time_range().unwrap_or((0, 1));
        let mid = t0 + (t1 - t0) / 2;
        for (a, b) in [(t0, t1), (t0, mid), (mid, t1), (mid, mid), (t1 + 1, u64::MAX), (0, t0)] {
            prop_assert_eq!(
                mem_trace.window_bounds(a, b).expect("mem window_bounds"),
                disk_trace.window_bounds(a, b).expect("disk window_bounds"),
                "window_bounds({}, {})", a, b
            );
            let mem_win: Vec<TraceEntry> = mem_trace.window(a, b).collect();
            let disk_win: Vec<TraceEntry> = disk_trace.window(a, b).collect();
            prop_assert_eq!(mem_win, disk_win, "window({}, {})", a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The restart oracle: a session killed with run budget outstanding
    /// and restarted from its newest checkpoint equals both an
    /// uninterrupted in-memory run and a restart of the same registry
    /// with `checkpoints/` deleted (the from-zero replay) — trace,
    /// clock, engine state, paused queue, counters and the entry stream
    /// — right after the restart and again after one more `run_for`.
    /// The restore counter proves the restart really took an image.
    #[test]
    fn checkpointed_restart_equals_uninterrupted_and_from_zero_runs(
        interval in 1u64..=8,
        kill_ns in prop_oneof![Just(4_000_000u64), Just(15_000_000u64)],
        paused_at_kill in any::<bool>(),
    ) {
        const MORE_NS: u64 = 5_000_000;
        let system = || ring_system("ckpt-restart", 3, 0.0008, 500_000);
        // The history, ending in the run the kill interrupts; with
        // `paused_at_kill` that run hits a breakpoint and queues.
        let history = |handle: &SessionHandle| {
            drive_paused_history(handle);
            if paused_at_kill {
                handle
                    .add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true)
                    .expect("send");
            }
            handle.run_for(kill_ns).expect("send");
        };

        let reference = DebugServer::start(server_config());
        let ref_handle = reference.add_session(spec_of(system()).build().expect("builds"));
        let ref_events = ref_handle.subscribe();
        history(&ref_handle);
        ref_handle.wait_idle(WAIT).expect("idle");
        let mut ref_stream = Vec::new();
        let expected = ref_handle.snapshot(WAIT).expect("snapshot");
        drain_delta_entries(&ref_events, &mut ref_stream);
        let expected_stream = serde_json::to_string(&ref_stream).expect("json");
        ref_handle.run_for(MORE_NS).expect("send");
        ref_handle.wait_idle(WAIT).expect("idle");
        let expected_more = ref_handle.snapshot(WAIT).expect("snapshot");
        drain_delta_entries(&ref_events, &mut ref_stream);
        let expected_more_stream = serde_json::to_string(&ref_stream).expect("json");
        drop(reference);

        let root = tmp_root("ckpt-restart");
        let persist = |root: &Path| PersistConfig::new(root).with_checkpoint_interval(interval);
        let (id, pre_kill) = {
            let server = DebugServer::start_persistent(server_config(), persist(&root))
                .expect("boots");
            let handle = server
                .add_durable_session(&spec_of(system()))
                .expect("durable session");
            let events = handle.subscribe();
            history(&handle);
            // Barrier: the last RunFor is applied and journaled, its
            // budget still outstanding when the server is dropped.
            handle.stats(WAIT).expect("stats");
            let mut pre = Vec::new();
            drain_delta_entries(&events, &mut pre);
            (handle.id(), pre)
        };
        prop_assert!(!checkpoint_seqs(&root, id).is_empty(), "the history wrote images");
        let zero_root = tmp_root("ckpt-restart-zero");
        copy_dir(&root, &zero_root);
        std::fs::remove_dir_all(checkpoint_dir(&zero_root, id)).expect("delete checkpoints");

        for (root, restores) in [(&root, 1), (&zero_root, 0)] {
            let server = DebugServer::start_persistent(server_config(), persist(root))
                .expect("restart");
            prop_assert_eq!(
                server.metrics_snapshot().fleet.checkpoint_restores,
                restores,
                "checkpoint restores right after the restart"
            );
            let handle = server.handle(id).expect("restored handle");
            handle.wait_idle(WAIT).expect("restored run finishes");
            // The whole snapshot: trace, clock, engine state, paused
            // queue and counters (ids match, lag and budget are zero).
            prop_assert_eq!(handle.snapshot(WAIT).expect("snapshot"), expected.clone());
            prop_assert_eq!(stream_after_restart(&handle, &pre_kill), expected_stream.clone());

            handle.run_for(MORE_NS).expect("send");
            handle.wait_idle(WAIT).expect("idle");
            prop_assert_eq!(handle.snapshot(WAIT).expect("snapshot"), expected_more.clone());
            prop_assert_eq!(
                stream_after_restart(&handle, &pre_kill),
                expected_more_stream.clone()
            );
            drop(server);
        }
    }
}

/// Trace segments are not fsynced but checkpoint images are, so after
/// a power loss the newest image can be ahead of the recovered trace
/// store. A restart must not restore such an image — the entries
/// between the store's end and the image would never be written. With
/// the store cut below the newest image it takes an older one, and the
/// record stays byte-identical to an uninterrupted run.
#[test]
fn restart_skips_an_image_ahead_of_a_lost_trace_tail() {
    const CAPACITY: u64 = 4;
    const INTERVAL: u64 = 8;
    let system = || ring_system("lost-tail", 3, 0.0008, 500_000);

    // Long enough for several images.
    let history = |handle: &SessionHandle| {
        drive_paused_history(handle);
        handle.run_for(40_000_000).expect("send");
        handle.wait_idle(WAIT).expect("idle");
    };

    let reference = DebugServer::start(server_config());
    let ref_handle = reference.add_session(spec_of(system()).build().expect("builds"));
    history(&ref_handle);
    let expected = ref_handle.snapshot(WAIT).expect("snapshot");
    drop(reference);

    let root = tmp_root("lost-tail");
    let persist = || {
        PersistConfig::new(&root)
            .with_segment_capacity(CAPACITY as usize)
            .with_checkpoint_interval(INTERVAL)
    };
    let id = {
        let server = DebugServer::start_persistent(server_config(), persist()).expect("boots");
        let handle = server
            .add_durable_session(&spec_of(system()))
            .expect("durable session");
        history(&handle);
        handle.id()
    };

    // Lose the trace tail: delete every segment from the one holding
    // the entry just below the newest image on.
    let seqs = checkpoint_seqs(&root, id);
    assert!(seqs.len() >= 2, "need an older image: {seqs:?}");
    let newest = *seqs.last().expect("newest image");
    let kept_segments = (newest - 1) / CAPACITY;
    let trace_dir = root
        .join("sessions")
        .join(format!("{id:016}"))
        .join("trace");
    for entry in std::fs::read_dir(&trace_dir).expect("trace dir") {
        let path = entry.expect("dir entry").path();
        let index = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("seg-"))
            .and_then(|n| n.split('.').next())
            .and_then(|n| n.parse::<u64>().ok());
        if index.is_some_and(|i| i >= kept_segments) {
            std::fs::remove_file(&path).expect("cut the trace");
        }
    }
    let recovered = kept_segments * CAPACITY;
    assert!(
        recovered < newest,
        "the store is cut below the newest image"
    );
    assert!(
        seqs.iter().any(|&seq| seq <= recovered),
        "an older image is still covered by the store: {seqs:?}, {recovered} entries"
    );

    let server = DebugServer::start_persistent(server_config(), persist()).expect("restart");
    assert_eq!(
        server.metrics_snapshot().fleet.checkpoint_restores,
        1,
        "restart restores the older image"
    );
    let handle = server.handle(id).expect("restored handle");
    handle.wait_idle(WAIT).expect("lost tail regenerated");
    assert_eq!(handle.snapshot(WAIT).expect("snapshot"), expected);
    drop(server);
}

/// A restart re-derives the entries its store already holds, and a
/// breakpoint hit on one of them is history, not news. A session paused
/// by a one-shot breakpoint on its first entry is restarted five times
/// (no checkpoints, so each restart re-runs it from zero): a subscriber
/// attached right after each `start_persistent` hears no
/// `BreakpointHit` and no event for an entry below the restored trace
/// length.
#[test]
fn restart_does_not_reannounce_a_history_hit() {
    let root = tmp_root("history-hit");
    let config = || ServerConfig {
        workers: 1,
        ..server_config()
    };
    let persist = || PersistConfig::new(&root).with_checkpoint_interval(0);
    let (id, stored) = {
        let server = DebugServer::start_persistent(config(), persist()).expect("boots");
        let handle = server
            .add_durable_session(&spec_of(ring_system("history-hit", 3, 0.5, 500_000)))
            .expect("durable session");
        let events = handle.subscribe();
        handle
            .add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true)
            .expect("send");
        handle.run_for(800_000_000).expect("send");
        handle.wait_idle(WAIT).expect("idle");
        let hits: Vec<u64> = events
            .try_iter()
            .filter_map(|event| match event {
                EngineEvent::BreakpointHit { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(hits, vec![0], "the first life pauses on its first entry");
        let stats = handle.stats(WAIT).expect("stats");
        (handle.id(), stats.trace_len as u64)
    };
    for restart in 1..=5 {
        let server = DebugServer::start_persistent(config(), persist()).expect("restart");
        let handle = server.handle(id).expect("restored handle");
        let events = handle.subscribe();
        handle.wait_idle(WAIT).expect("catch-up finishes");
        let stats = handle.stats(WAIT).expect("stats");
        assert_eq!(stats.trace_len as u64, stored, "still paused");
        for event in events.try_iter() {
            let history = match &event {
                EngineEvent::BreakpointHit { .. } => true,
                EngineEvent::Violation { seq, .. } => *seq < stored,
                EngineEvent::TraceDelta { entries, .. } => entries.iter().any(|e| e.seq < stored),
                _ => false,
            };
            assert!(!history, "restart {restart} re-announced {event:?}");
        }
    }
}

/// `FetchRange` and `ReplayFrom` page history correctly — in-process
/// and over the wire, against both live and restored sessions.
#[test]
fn history_paging_in_process_and_over_wire() {
    let server = std::sync::Arc::new(DebugServer::start(server_config()));
    let handle = server.add_session(
        spec_of(ring_system("page-ring", 3, 0.0008, 500_000))
            .build()
            .expect("builds"),
    );
    handle.run_for(50_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    let snapshot = handle.snapshot(WAIT).expect("snapshot");
    let full: Vec<TraceEntry> =
        gmdf_engine::ExecutionTrace::from_json(&snapshot.trace_json.expect("trace"))
            .expect("parses")
            .entries();
    assert!(
        full.len() > 10,
        "need a non-trivial trace, got {}",
        full.len()
    );

    // ReplayFrom pages concatenate to the full trace.
    let mut paged = Vec::new();
    let mut next = 0u64;
    loop {
        let slice = handle.replay_from(next, 4, WAIT).expect("page");
        assert!(slice.entries.len() <= 4);
        assert_eq!(slice.end_seq, full.len() as u64);
        next += slice.entries.len() as u64;
        let done = slice.complete;
        paged.extend(slice.entries);
        if done {
            break;
        }
    }
    assert_eq!(paged, full);

    // FetchRange equals the in-memory window on a mid-run time span.
    let t_mid = full[full.len() / 2].event.time_ns;
    let t_end = full[full.len() - 1].event.time_ns;
    let in_window: Vec<TraceEntry> = full
        .iter()
        .filter(|e| e.event.time_ns >= t_mid && e.event.time_ns <= t_end)
        .cloned()
        .collect();
    let slice = handle.fetch_range(t_mid, t_end, WAIT).expect("fetch");
    assert!(slice.complete);
    assert_eq!(slice.entries, in_window);
    assert_eq!(slice.first_seq, in_window[0].seq);
    // end_seq is the continuation limit: the window's exclusive upper
    // bound by sequence number (a truncated page resumes via
    // ReplayFrom(first_seq + entries.len()) until end_seq).
    assert_eq!(slice.end_seq, in_window[in_window.len() - 1].seq + 1);

    // The same pair over TCP: byte-identical after the JSON round trip.
    let wire = WireServer::start(std::sync::Arc::clone(&server), "127.0.0.1:0").expect("bind");
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    client.attach(handle.id()).expect("attach");
    let remote = client
        .fetch_range(handle.id(), t_mid, t_end, WAIT)
        .expect("remote fetch");
    assert_eq!(
        serde_json::to_string(&remote).expect("json"),
        serde_json::to_string(&slice).expect("json")
    );
    let mut remote_paged = Vec::new();
    let mut next = 0u64;
    loop {
        let slice = client
            .replay_from(handle.id(), next, 5, WAIT)
            .expect("remote page");
        next += slice.entries.len() as u64;
        let done = slice.complete;
        remote_paged.extend(slice.entries);
        if done {
            break;
        }
    }
    assert_eq!(remote_paged, full);

    // An empty window is a clean, complete, empty page.
    let empty = handle
        .fetch_range(t_end + 1, u64::MAX, WAIT)
        .expect("fetch");
    assert!(empty.complete);
    assert!(empty.entries.is_empty());
}

/// Restored servers keep persisted ids and allocate fresh ones above
/// them; durable sessions on a non-persistent server are rejected.
#[test]
fn registry_ids_and_misuse() {
    let root = tmp_root("ids");
    let spec = spec_of(blinker_system("ids-blinker", 0.001, 1_000_000));
    {
        let server = DebugServer::start_persistent(server_config(), PersistConfig::new(&root))
            .expect("boots");
        let a = server.add_durable_session(&spec).expect("a");
        let b = server.add_durable_session(&spec).expect("b");
        assert_eq!((a.id(), b.id()), (0, 1));
        a.run_for(2_000_000).expect("send");
        b.run_for(1_000_000).expect("send");
        a.wait_idle(WAIT).expect("idle");
        b.wait_idle(WAIT).expect("idle");
    }
    let server = DebugServer::start_persistent(server_config(), PersistConfig::new(&root))
        .expect("restarts");
    assert_eq!(server.session_ids(), vec![0, 1]);
    let c = server.add_durable_session(&spec).expect("c");
    assert_eq!(c.id(), 2, "fresh ids continue above restored ones");
    // Mixed registries restore all durable sessions; in-memory siblings
    // simply do not come back.
    let transient = server.add_session(spec.build().expect("builds"));
    assert_eq!(transient.id(), 3);
    drop(server);

    let plain = DebugServer::start(server_config());
    match plain.add_durable_session(&spec) {
        Err(ServerError::Persist(_)) => {}
        other => panic!("expected Persist error, got {other:?}"),
    }
}

/// A client-triggerable command failure (a stimulus with an unknown
/// label) must never enter the journal: the session fails *live*, but
/// a restart over the same registry still restores it — the rejected
/// command is not part of the replayable history, so the registry is
/// never bricked by one bad client call.
#[test]
fn rejected_stimulus_does_not_brick_the_registry() {
    let root = tmp_root("bad-stimulus");
    let spec = spec_of(blinker_system("bad-stim-blinker", 0.001, 1_000_000));
    let id = {
        let server = DebugServer::start_persistent(server_config(), PersistConfig::new(&root))
            .expect("boots");
        let handle = server.add_durable_session(&spec).expect("durable");
        handle.run_for(2_000_000).expect("send");
        handle.wait_idle(WAIT).expect("idle");
        // A stimulus on a label that does not exist fails the session.
        handle
            .schedule_signal(
                3_000_000,
                "no-such-label",
                gmdf_comdes::SignalValue::Real(1.0),
            )
            .expect("send accepts; the failure surfaces at apply time");
        match handle.wait_idle(WAIT) {
            Err(ServerError::SessionFailed(_)) => {}
            other => panic!("expected SessionFailed, got {other:?}"),
        }
        handle.id()
    };

    // The restart must succeed and restore the session to its last
    // good state — nothing quarantined, nothing bricked.
    let server = DebugServer::start_persistent(server_config(), PersistConfig::new(&root))
        .expect("restart survives a rejected command");
    assert!(
        server.quarantined_sessions().is_empty(),
        "rejected commands are not journaled, so restore cannot re-fail: {:?}",
        server.quarantined_sessions()
    );
    let handle = server.handle(id).expect("restored");
    // The restored session is healthy and keeps working.
    handle.run_for(1_000_000).expect("send");
    handle.wait_idle(WAIT).expect("restored session still runs");
    drop(server);
}

/// One damaged session directory quarantines that session only: the
/// restarted server boots, restores every healthy sibling, reports the
/// failure, and never reuses the quarantined id.
#[test]
fn damaged_session_is_quarantined_not_fatal() {
    let root = tmp_root("quarantine");
    let spec = spec_of(blinker_system("quarantine-blinker", 0.001, 1_000_000));
    let (good, bad) = {
        let server = DebugServer::start_persistent(server_config(), PersistConfig::new(&root))
            .expect("boots");
        let a = server.add_durable_session(&spec).expect("a");
        let b = server.add_durable_session(&spec).expect("b");
        a.run_for(2_000_000).expect("send");
        b.run_for(2_000_000).expect("send");
        a.wait_idle(WAIT).expect("idle");
        b.wait_idle(WAIT).expect("idle");
        (a.id(), b.id())
    };
    // Corrupt the second session's spec beyond repair.
    let spec_path = root
        .join("sessions")
        .join(format!("{bad:016}"))
        .join("spec.json");
    std::fs::write(&spec_path, b"{ not json").expect("corrupt spec");

    let server = DebugServer::start_persistent(server_config(), PersistConfig::new(&root))
        .expect("one damaged session must not brick the registry");
    assert_eq!(server.session_ids(), vec![good], "healthy sibling restored");
    let quarantined = server.quarantined_sessions();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].0, bad);
    assert!(
        spec_path.exists(),
        "the quarantined directory is kept for inspection"
    );
    // The quarantined id is reserved: fresh sessions continue above it.
    let fresh = server.add_durable_session(&spec).expect("fresh");
    assert!(fresh.id() > bad, "quarantined ids are never reused");
    drop(server);
}

/// A torn journal tail (a command cut mid-append by a kill) is dropped
/// on restart; the session still restores and keeps serving.
#[test]
fn torn_journal_tail_is_recovered() {
    let root = tmp_root("torn-journal");
    let spec = spec_of(blinker_system("torn-blinker", 0.001, 1_000_000));
    let id = {
        let server = DebugServer::start_persistent(server_config(), PersistConfig::new(&root))
            .expect("boots");
        let handle = server.add_durable_session(&spec).expect("durable");
        handle.run_for(3_000_000).expect("send");
        handle.wait_idle(WAIT).expect("idle");
        handle.id()
    };
    // Damage the journal: append garbage, then also cut into the last
    // record's bytes.
    let journal = root
        .join("sessions")
        .join(format!("{id:016}"))
        .join("journal.log");
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    bytes.truncate(bytes.len() - 2);
    bytes.extend_from_slice(&[0xde, 0xad]);
    std::fs::write(&journal, &bytes).expect("write");

    let server = DebugServer::start_persistent(server_config(), PersistConfig::new(&root))
        .expect("restart survives a torn journal");
    let handle = server.handle(id).expect("restored");
    // The torn RunFor was dropped, so the restored session is idle with
    // whatever prefix survived; it still accepts new work.
    handle.run_for(1_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    let snapshot = handle.stats(WAIT).expect("stats");
    assert_eq!(snapshot.remaining_ns, 0);
    drop(server);
}

/// Retention soak: a durable session driven far past its disk budget,
/// with checkpoint images at the default interval, keeps a bounded
/// on-disk footprint — the compactor thread compresses sealed segments
/// and evicts the oldest ones, past the images — while `ReplayFrom`
/// transparently pages the retained history across the compressed cold
/// tier and the hot tail, and a restart over a registry evicted past
/// its newest image restores a session that serves the same history.
#[test]
fn retention_budget_bounds_disk_while_replay_spans_tiers() {
    // At most about 250 entries, compressed: under half an image
    // interval, so a run stopped three quarters into an interval has
    // evicted past its newest image however the sweeps fell.
    const BUDGET: u64 = 4 * 1024;
    const CHUNK_NS: u64 = 25_000_000;
    let root = tmp_root("retention");
    let persist = || {
        PersistConfig::new(&root)
            .with_segment_capacity(16)
            .with_retention(Retention {
                compress_after: Some(1),
                max_disk_bytes: Some(BUDGET),
            })
    };
    let system = || ring_system("retain-ring", 3, 0.0008, 500_000);
    let server = DebugServer::start_persistent(server_config(), persist()).expect("boots");
    let handle = server
        .add_durable_session(&spec_of(system()))
        .expect("durable");
    let id = handle.id();

    // Drive in fixed chunks until the run has recorded several budgets'
    // worth of history and spans four checkpoint intervals and three
    // quarters of a fifth, counting the chunks so a reference run can
    // repeat the exact same command schedule.
    let mut chunks = 0usize;
    loop {
        handle.run_for(CHUNK_NS).expect("send");
        handle.wait_idle(WAIT).expect("idle");
        chunks += 1;
        let len = handle.stats(WAIT).expect("stats").trace_len as u64;
        if len >= 4 * DEFAULT_CHECKPOINT_INTERVAL + 3 * DEFAULT_CHECKPOINT_INTERVAL / 4 {
            break;
        }
        assert!(
            chunks < 256,
            "ring system too quiet: {len} entries after {chunks} chunks"
        );
    }

    // Let the compactor settle: disk within the budget *and* a
    // compressed cold tier present among the retained segments. (During
    // the run eviction consumes the oldest — compressed — segments; once
    // appends stop, the next sweep drains: it re-compresses the retained
    // tail and evicts until the footprint is within the budget itself,
    // after which no sweep evicts again, so the floor below is final.)
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let fleet = server.metrics_snapshot().fleet;
        if fleet.trace_disk_bytes <= BUDGET && fleet.trace_compacted_segments > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "store never settled: {} disk bytes, {} compressed segments",
            fleet.trace_disk_bytes,
            fleet.trace_compacted_segments
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // A snapshot reads the fleet counters before it takes each session's
    // lock for the store's stats, so the one that saw the store settle
    // may predate the counters of the sweep it waited behind: read them
    // afresh.
    let fleet = server.metrics_snapshot().fleet;
    assert!(
        fleet.store_compactions > 0,
        "compactor never compressed a segment"
    );
    assert!(
        fleet.store_evicted_segments > 0,
        "the budget never forced an eviction"
    );
    assert!(fleet.store_reclaimed_bytes > 0, "nothing was reclaimed");
    assert!(
        fleet.checkpoint_writes > 0,
        "no checkpoint image was written"
    );

    // Reference: the same image under the same command schedule, fully
    // in memory — determinism makes its trace the ground truth for what
    // the retained suffix must contain.
    let reference = DebugServer::start(server_config());
    let ref_handle = reference.add_session(spec_of(system()).build().expect("builds"));
    for _ in 0..chunks {
        ref_handle.run_for(CHUNK_NS).expect("send");
        ref_handle.wait_idle(WAIT).expect("idle");
    }
    let ref_snapshot = ref_handle.snapshot(WAIT).expect("snapshot");
    let full: Vec<TraceEntry> =
        gmdf_engine::ExecutionTrace::from_json(&ref_snapshot.trace_json.expect("trace"))
            .expect("parses")
            .entries();
    drop(reference);

    // ReplayFrom(0) pages the retained history: the first page starts
    // at the eviction floor (not at 0), pages stay contiguous across
    // the cold/hot tier seam, and the concatenation is byte-identical
    // to the reference suffix.
    let pages = |handle: &SessionHandle| {
        let mut paged = Vec::new();
        let mut next = 0u64;
        let mut floor = None;
        loop {
            let slice = handle.replay_from(next, 7, WAIT).expect("page");
            match floor {
                None => floor = Some(slice.first_seq),
                Some(_) => assert_eq!(slice.first_seq, next, "pages must stay contiguous"),
            }
            assert_eq!(slice.end_seq, full.len() as u64);
            next = slice.entries.last().map_or(slice.first_seq, |e| e.seq + 1);
            let done = slice.complete;
            paged.extend(slice.entries);
            if done {
                break;
            }
        }
        (floor.expect("at least one page"), paged)
    };
    let (floor, paged) = pages(&handle);
    assert!(floor > 0, "eviction should have moved the replay floor");
    assert!(
        (floor as usize) < full.len(),
        "something must remain retained"
    );
    assert_eq!(
        serde_json::to_string(&paged).expect("json"),
        serde_json::to_string(&full[floor as usize..]).expect("json"),
        "retained suffix must match the in-memory reference"
    );

    // A restart over the compacted registry, evicted past its newest
    // image, restores from that image and serves the same retained
    // history.
    drop(server);
    let newest = CheckpointStore::open(checkpoint_dir(&root, id))
        .expect("image log opens")
        .latest()
        .expect("images written")
        .seq;
    assert!(
        newest < floor,
        "eviction must pass the newest image: image {newest}, floor {floor}"
    );
    let server = DebugServer::start_persistent(server_config(), persist()).expect("restart");
    assert!(server.quarantined_sessions().is_empty());
    assert_eq!(
        server.metrics_snapshot().fleet.checkpoint_restores,
        1,
        "the restart restores the newest image"
    );
    let handle = server.handle(id).expect("restored");
    handle.wait_idle(WAIT).expect("restored catch-up finishes");
    let (floor_after, paged_after) = pages(&handle);
    assert_eq!(floor_after, floor, "restart must not move the floor");
    assert_eq!(
        serde_json::to_string(&paged_after).expect("json"),
        serde_json::to_string(&paged).expect("json"),
        "restart must not change the retained history"
    );
    drop(server);
}

/// The compactor drains: each sweep repeats a session's maintenance
/// while it reports progress, so one sweep compresses every segment
/// sealed before it rather than one segment per session.
#[test]
fn compactor_sweep_drains_every_sealed_segment() {
    const CAPACITY: u64 = 16;
    let root = tmp_root("drain");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root)
            .with_segment_capacity(CAPACITY as usize)
            .with_retention(Retention {
                compress_after: Some(0),
                max_disk_bytes: None,
            }),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(ring_system("drain-ring", 3, 0.0001, 100_000)))
        .expect("durable");
    handle.run_for(2_000_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    let sealed = handle.stats(WAIT).expect("stats").trace_len as u64 / CAPACITY;
    assert!(sealed >= 100, "the run sealed only {sealed} segments");

    // The compactor sweeps every 250 ms: within four sweeps of the run's
    // end, every sealed segment is in the cold tier.
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    loop {
        let compacted = server.metrics_snapshot().fleet.trace_compacted_segments;
        if compacted == sealed {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{compacted} of {sealed} sealed segments compressed 1 s after the run"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(server);
}
