//! Checkpointed time travel: `SeekTo` / `StepBack` / `ReplayWindow`
//! over a durable session.
//!
//! The headline property: a seek served from the nearest persisted
//! checkpoint plus O(interval) deterministic replay produces a trace
//! **byte-identical** to replaying the whole journal from zero — the
//! checkpoint is an accelerator, never an oracle. The suite also pins
//! the crash story (a checkpoint torn at an arbitrary byte falls back
//! to an older image or to zero), retention (eviction passes the
//! checkpoint images, and seeks and windows reach the evicted history
//! through them), the wire round trip, and the checkpoint metrics.

mod common;

use common::{ring_system, spec_of, tmp_root};
use gmdf_comdes::SignalValue;
use gmdf_engine::{CheckpointMeta, CheckpointStore, ExecutionTrace, Retention, TraceEntry};
use gmdf_gdm::{CommandMatcher, EventKind};
use gmdf_server::{
    DebugServer, PersistConfig, ServerConfig, SessionHandle, WireClient, WireServer,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// Checkpoint every 32 trace entries — small enough that a ~30 ms ring
/// run writes several images, so seeks genuinely restore rather than
/// replay from zero.
const INTERVAL: u64 = 32;

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        slice_ns: 500_000,
        ..ServerConfig::default()
    }
}

fn tt_system(name: &str) -> gmdf_comdes::System {
    ring_system(name, 3, 0.0008, 500_000)
}

/// Drives a history that exercises every journaled command class the
/// seek replay must reproduce: scheduled stimuli, breakpoints (hit and
/// cleared), step, resume and plain run budget. `wait_idle` barriers
/// pin each command's application instant so reruns are identical.
fn drive_history(handle: &SessionHandle) {
    handle.run_for(6_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    handle
        .schedule_signal(9_000_000, "state_sig", SignalValue::Int(5))
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
    // Then pump until the trace spans several checkpoint intervals, so
    // seeks genuinely restore instead of degenerating to from-zero.
    let mut chunks = 0usize;
    while (handle.stats(WAIT).expect("stats").trace_len as u64) < 5 * INTERVAL {
        handle.run_for(25_000_000).expect("send");
        handle.wait_idle(WAIT).expect("idle");
        chunks += 1;
        assert!(chunks < 64, "ring too quiet after {chunks} chunks");
    }
}

/// The directory of one durable session's checkpoints.
fn checkpoint_dir(root: &std::path::Path, id: u64) -> PathBuf {
    root.join("sessions")
        .join(format!("{id:016}"))
        .join("checkpoints")
}

/// The checkpoint images on disk, ascending by seq, as the store's
/// index lists them.
fn checkpoint_files(dir: &std::path::Path) -> Vec<CheckpointMeta> {
    CheckpointStore::open(dir)
        .expect("checkpoint dir opens")
        .metas()
        .to_vec()
}

/// A seek to the live instant is served from a checkpoint (restoring
/// and replaying only the O(interval) tail) and its serialized trace is
/// byte-identical to the live session's own snapshot.
#[test]
fn seek_to_now_matches_the_live_snapshot_byte_for_byte() {
    let root = tmp_root("seek-now");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-now")))
        .expect("durable");
    drive_history(&handle);

    let snapshot = handle.snapshot(WAIT).expect("snapshot");
    assert!(
        snapshot.trace_len as u64 > 2 * INTERVAL,
        "need several checkpoint intervals, got {} entries",
        snapshot.trace_len
    );
    let report = handle.seek_to(snapshot.now_ns, true, WAIT).expect("seek");
    assert_eq!(report.target_ns, snapshot.now_ns);
    assert_eq!(report.now_ns, snapshot.now_ns);
    assert!(
        report.checkpoint_seq.is_some(),
        "a long trace must seek via a checkpoint"
    );
    assert!(
        report.replayed_entries < report.trace_len,
        "checkpoint restore must shortcut the replay: regenerated {} of {}",
        report.replayed_entries,
        report.trace_len
    );
    assert_eq!(report.trace_len as usize, snapshot.trace_len);
    assert_eq!(
        report.trace_json.expect("trace requested"),
        snapshot.trace_json.expect("trace requested"),
        "seek trace must be byte-identical to the live snapshot"
    );
    drop(server);
}

/// The acceptance property: seeks served from checkpoints are
/// byte-identical to the same seeks replayed from zero. The registry is
/// probed at several instants, then its checkpoints are deleted and the
/// server restarted with checkpointing disabled — every probe must
/// reproduce the exact same trace the checkpointed seek produced.
#[test]
fn checkpointed_seek_is_byte_identical_to_replay_from_zero() {
    let root = tmp_root("vs-zero");
    let (id, probes) = {
        let server = DebugServer::start_persistent(
            server_config(),
            PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
        )
        .expect("boots");
        let handle = server
            .add_durable_session(&spec_of(tt_system("tt-zero")))
            .expect("durable");
        drive_history(&handle);
        let now = handle.stats(WAIT).expect("stats").now_ns;
        let mut probes = Vec::new();
        let mut via_checkpoint = 0;
        for t in [now / 4, now / 2, now - now / 4, now] {
            let report = handle.seek_to(t, true, WAIT).expect("seek");
            via_checkpoint += u32::from(report.checkpoint_seq.is_some());
            probes.push((t, report.trace_json.expect("trace requested")));
        }
        assert!(
            via_checkpoint >= 2,
            "late probes must be served from checkpoints, got {via_checkpoint}/4"
        );
        (handle.id(), probes)
        // Server dropped here, registry left on disk.
    };
    std::fs::remove_dir_all(checkpoint_dir(&root, id)).expect("delete checkpoints");

    // Restart without checkpoints: the journal alone is the truth.
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root).with_checkpoint_interval(0),
    )
    .expect("restart");
    let handle = server.handle(id).expect("restored");
    handle.wait_idle(WAIT).expect("catch-up");
    for (t, via_checkpoint) in &probes {
        let report = handle.seek_to(*t, true, WAIT).expect("seek from zero");
        assert_eq!(
            report.checkpoint_seq, None,
            "checkpoints were deleted, this must be a from-zero replay"
        );
        assert_eq!(
            report.trace_json.as_deref(),
            Some(via_checkpoint.as_str()),
            "checkpointed seek to {t} ns must equal replay-from-zero"
        );
    }
    drop(server);
}

/// `StepBack { entries: k }` rewinds to the instant of the entry `k`
/// places before the end of the trace, and is the same replica a
/// `SeekTo` of that instant builds.
#[test]
fn step_back_lands_on_the_pivot_entrys_instant() {
    let root = tmp_root("step-back");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-step")))
        .expect("durable");
    drive_history(&handle);

    let snapshot = handle.snapshot(WAIT).expect("snapshot");
    let entries = ExecutionTrace::from_json(&snapshot.trace_json.expect("trace"))
        .expect("parses")
        .entries();
    let len = entries.len();
    for k in [1usize, 7, len / 2] {
        let report = handle.step_back(k as u64, true, WAIT).expect("step back");
        let pivot = &entries[len - k - 1];
        assert_eq!(
            report.target_ns, pivot.event.time_ns,
            "stepping back {k} entries must land on the pivot's instant"
        );
        let same = handle.seek_to(report.target_ns, true, WAIT).expect("seek");
        assert_eq!(
            report.trace_json, same.trace_json,
            "StepBack and SeekTo at the same instant must agree"
        );
    }
    // Rewinding the whole trace lands at t = 0.
    let zero = handle.step_back(len as u64, false, WAIT).expect("rewind");
    assert_eq!(zero.target_ns, 0);
    drop(server);
}

/// `ReplayWindow` regenerates exactly what `FetchRange` pages out of
/// the live store — in-process and across the wire (which also pins the
/// v6 serde arms for the whole seek vocabulary).
#[test]
fn replay_window_matches_fetch_range_in_process_and_over_the_wire() {
    let root = tmp_root("window");
    let server = Arc::new(
        DebugServer::start_persistent(
            server_config(),
            PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
        )
        .expect("boots"),
    );
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-window")))
        .expect("durable");
    drive_history(&handle);

    let now = handle.stats(WAIT).expect("stats").now_ns;
    let (t0, t1) = (now / 4, now / 2);
    let fetched = handle.fetch_range(t0, t1, WAIT).expect("fetch");
    assert!(!fetched.entries.is_empty(), "window must not be empty");
    let replayed = handle.replay_window(t0, t1, WAIT).expect("replay window");
    assert_eq!(
        serde_json::to_string(&replayed).expect("json"),
        serde_json::to_string(&fetched).expect("json"),
        "a regenerated window must be byte-identical to the paged one"
    );

    // The same vocabulary over TCP: replies survive the JSON framing.
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("bind");
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    let id = handle.id();
    let remote = client
        .replay_window(id, t0, t1, WAIT)
        .expect("remote window");
    assert_eq!(
        serde_json::to_string(&remote).expect("json"),
        serde_json::to_string(&fetched).expect("json")
    );
    let local_seek = handle.seek_to(now, true, WAIT).expect("seek");
    let remote_seek = client.seek_to(id, now, true, WAIT).expect("remote seek");
    assert_eq!(remote_seek.trace_json, local_seek.trace_json);
    assert_eq!(remote_seek.checkpoint_seq, local_seek.checkpoint_seq);
    let local_back = handle.step_back(5, true, WAIT).expect("step back");
    let remote_back = client.step_back(id, 5, true, WAIT).expect("remote back");
    assert_eq!(remote_back.target_ns, local_back.target_ns);
    assert_eq!(remote_back.trace_json, local_back.trace_json);
    drop(client);
    drop(wire);
    drop(server);
}

/// The crash story: the image log's newest frame cut at an **arbitrary
/// byte** (a kill mid-write, disk damage…) is cut from the log on the
/// next open, counted as one checkpoint skip, and the seek falls back
/// to an older image — or all the way to a from-zero replay — still
/// producing the byte-identical trace.
#[test]
fn torn_checkpoint_falls_back_to_an_older_image() {
    let root = tmp_root("torn");
    let persist = || PersistConfig::new(&root).with_checkpoint_interval(INTERVAL);
    let (id, now, reference) = {
        let server = DebugServer::start_persistent(server_config(), persist()).expect("boots");
        let handle = server
            .add_durable_session(&spec_of(tt_system("tt-torn")))
            .expect("durable");
        drive_history(&handle);
        let snapshot = handle.snapshot(WAIT).expect("snapshot");
        (
            handle.id(),
            snapshot.now_ns,
            snapshot.trace_json.expect("trace"),
        )
    };
    let dir = checkpoint_dir(&root, id);
    let files = checkpoint_files(&dir);
    assert!(files.len() >= 2, "need a fallback image: {files:?}");
    let newest = *files.last().expect("newest");
    let log_path = dir.join("images.log");
    let log = std::fs::read(&log_path).expect("read the image log");
    let start = log.len() - newest.bytes as usize;
    let intact = &log[start..];

    for cut in [3usize, intact.len() / 3, intact.len() - 1] {
        // Tear the newest image's frame at `cut` bytes.
        std::fs::write(&log_path, &log[..start + cut]).expect("tear");

        let server = DebugServer::start_persistent(server_config(), persist()).expect("restart");
        assert_eq!(
            server.metrics_snapshot().fleet.checkpoint_skips,
            1,
            "the cut counts one skip (cut at {cut} bytes)"
        );
        let handle = server.handle(id).expect("restored");
        handle.wait_idle(WAIT).expect("catch-up");
        let report = handle.seek_to(now, true, WAIT).expect("seek");
        assert_ne!(
            report.checkpoint_seq,
            Some(newest.seq),
            "the torn image must not serve the seek (cut at {cut} bytes)"
        );
        assert_eq!(
            report.trace_json.as_deref(),
            Some(reference.as_str()),
            "fallback must still be byte-identical (cut at {cut} bytes)"
        );
        drop(server);
        assert_eq!(
            std::fs::read(&log_path).expect("read the image log")[..start],
            log[..start],
            "the whole frames before the cut are kept (cut at {cut} bytes)"
        );
        assert!(
            !checkpoint_files(&dir).contains(&newest),
            "the damaged frame must be cut on open (cut at {cut} bytes)"
        );
    }
}

/// Retention does not pin itself to checkpoints: under a disk budget
/// eviction passes the oldest image and the trace footprint settles
/// within the budget. The evicted history stays reachable through the
/// images: a seek below the first retained entry restores one, and a
/// window below it regenerates byte-identical to an in-memory run.
#[test]
fn eviction_passes_the_oldest_checkpoint() {
    const BUDGET: u64 = 8 * 1024;
    // The budget bounds what a sweep leaves; the hot tail plus the
    // segments sealed since the last sweep ride on top.
    const SLACK: u64 = 8 * 1024;
    const CHUNK_NS: u64 = 25_000_000;
    let root = tmp_root("evict");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root)
            .with_segment_capacity(16)
            .with_retention(Retention {
                compress_after: Some(1),
                max_disk_bytes: Some(BUDGET),
            })
            .with_checkpoint_interval(48),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-evict")))
        .expect("durable");
    let mut chunks = 0usize;
    loop {
        handle.run_for(CHUNK_NS).expect("send");
        handle.wait_idle(WAIT).expect("idle");
        chunks += 1;
        if handle.stats(WAIT).expect("stats").trace_len >= 2_000 {
            break;
        }
        assert!(chunks < 256, "ring too quiet after {chunks} chunks");
    }
    // Wait for the sweeps to bring the footprint within the budget.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let fleet = server.metrics_snapshot().fleet;
        if fleet.store_evicted_segments > 0 && fleet.trace_disk_bytes <= BUDGET + SLACK {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "store never settled: {} disk bytes, {} segments evicted",
            fleet.trace_disk_bytes,
            fleet.store_evicted_segments
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let oldest_ck = checkpoint_files(&checkpoint_dir(&root, handle.id()))
        .first()
        .expect("checkpoints written")
        .seq;
    let floor = handle.replay_from(0, 7, WAIT).expect("page").first_seq;
    assert!(
        floor > oldest_ck,
        "eviction must pass the oldest checkpoint: floor {floor}, checkpoint {oldest_ck}"
    );

    // Reference: the same command schedule, fully in memory.
    let reference = DebugServer::start(server_config());
    let ref_handle = reference.add_session(spec_of(tt_system("tt-evict")).build().expect("builds"));
    for _ in 0..chunks {
        ref_handle.run_for(CHUNK_NS).expect("send");
        ref_handle.wait_idle(WAIT).expect("idle");
    }
    let full: Vec<TraceEntry> = ExecutionTrace::from_json(
        &ref_handle
            .snapshot(WAIT)
            .expect("snapshot")
            .trace_json
            .expect("trace"),
    )
    .expect("parses")
    .entries();

    // A seek below the first retained entry restores an image.
    let below = full[floor as usize / 2].event.time_ns;
    let report = handle
        .seek_to(below, false, WAIT)
        .expect("seek below the floor");
    let restored = report.checkpoint_seq.expect("the seek restores an image");
    assert!(
        restored < floor,
        "image {restored} lies below the floor {floor}"
    );
    assert!(report.replayed_entries < report.trace_len);

    // A window below the first retained entry regenerates the very
    // entries an uninterrupted in-memory run recorded.
    let (t0, t1) = (
        full[floor as usize / 4].event.time_ns,
        full[floor as usize / 2].event.time_ns,
    );
    let window = handle
        .replay_window(t0, t1, WAIT)
        .expect("pre-floor window");
    let expected = ref_handle
        .fetch_range(t0, t1, WAIT)
        .expect("reference window");
    assert!(!expected.entries.is_empty(), "the window must not be empty");
    assert!(expected.entries.last().expect("non-empty").seq < floor);
    assert_eq!(
        serde_json::to_string(&window.entries).expect("json"),
        serde_json::to_string(&expected.entries).expect("json"),
        "a window below the floor must be byte-identical to the in-memory run's"
    );
    drop(reference);
    drop(server);
}

/// Checkpoint activity is measured: writes, payload bytes and restores
/// count up in the fleet snapshot consistently with the trace length
/// and the on-disk registry, the latency histograms tally one sample
/// per operation, and everything reaches the Prometheus exposition.
#[test]
fn checkpoint_metrics_flow_through_registry_and_prometheus() {
    let root = tmp_root("metrics");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-metrics")))
        .expect("durable");
    drive_history(&handle);
    let stats = handle.stats(WAIT).expect("stats");
    for t in [stats.now_ns / 2, stats.now_ns] {
        handle.seek_to(t, false, WAIT).expect("seek");
    }

    let fleet = server.metrics_snapshot().fleet;
    assert!(fleet.checkpoint_writes > 0, "no checkpoints written");
    assert!(
        fleet.checkpoint_writes <= stats.trace_len as u64 / INTERVAL,
        "at most one write per interval of entries: {} writes for {} entries",
        fleet.checkpoint_writes,
        stats.trace_len
    );
    assert!(
        fleet.checkpoint_bytes > fleet.checkpoint_writes,
        "payloads are non-trivial"
    );
    assert!(
        fleet.checkpoint_restores >= 1,
        "checkpointed seeks must count restores"
    );
    assert_eq!(fleet.checkpoint_write_ns.count, fleet.checkpoint_writes);
    assert_eq!(fleet.checkpoint_restore_ns.count, fleet.checkpoint_restores);
    // One on-disk image per counted write (nothing prunes them yet).
    let files = checkpoint_files(&checkpoint_dir(&root, handle.id()));
    assert_eq!(files.len() as u64, fleet.checkpoint_writes);

    let text = server.metrics_text();
    for needle in [
        "gmdf_checkpoint_writes_total",
        "gmdf_checkpoint_bytes",
        "gmdf_checkpoint_restores_total",
        "gmdf_checkpoint_write_ns",
        "gmdf_checkpoint_restore_ns",
    ] {
        assert!(text.contains(needle), "{needle} missing from exposition");
    }
    drop(server);
}
