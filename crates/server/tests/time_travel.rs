//! Checkpointed time travel: `SeekTo` / `StepBack` / `ReplayWindow`
//! over a durable session.
//!
//! The headline property: a seek served from the nearest persisted
//! checkpoint plus O(interval) deterministic replay produces a trace
//! **byte-identical** to replaying the whole journal from zero — the
//! checkpoint is an accelerator, never an oracle. The suite also pins
//! the crash story (a checkpoint torn at an arbitrary byte falls back
//! to an older image or to zero), the retention clamp (eviction never
//! outruns the oldest retained checkpoint), the wire round trip, and
//! the checkpoint metrics.

mod common;

use common::{ring_system, spec_of, tmp_root};
use gmdf_comdes::SignalValue;
use gmdf_engine::{ExecutionTrace, Retention};
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

/// Lists `(seq, path)` of the `.ck` files on disk, ascending by seq.
fn checkpoint_files(dir: &std::path::Path) -> Vec<(u64, PathBuf)> {
    let mut out: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            let seq: u64 = name
                .strip_prefix("ckpt-")?
                .strip_suffix(".ck")?
                .split('-')
                .next()?
                .parse()
                .ok()?;
            Some((seq, e.path()))
        })
        .collect();
    out.sort();
    out
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

/// The crash story: a checkpoint file cut at an **arbitrary byte** (a
/// kill mid-write, disk damage…) is discarded on the next open and the
/// seek falls back to an older image — or all the way to a from-zero
/// replay — still producing the byte-identical trace. Stale `.tmp`
/// spool files are swept too.
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
    let (newest_seq, newest_path) = files.last().expect("newest").clone();
    let intact = std::fs::read(&newest_path).expect("read newest");

    for cut in [3usize, intact.len() / 3, intact.len() - 1] {
        // Tear the newest checkpoint at `cut` bytes, and leave a stale
        // spool file behind as an interrupted write would.
        std::fs::write(&newest_path, &intact[..cut]).expect("tear");
        let stale = newest_path.with_extension("ck.tmp");
        std::fs::write(&stale, b"half-written").expect("spool");

        let server = DebugServer::start_persistent(server_config(), persist()).expect("restart");
        let handle = server.handle(id).expect("restored");
        handle.wait_idle(WAIT).expect("catch-up");
        let report = handle.seek_to(now, true, WAIT).expect("seek");
        assert_ne!(
            report.checkpoint_seq,
            Some(newest_seq),
            "the torn image must not serve the seek (cut at {cut} bytes)"
        );
        assert_eq!(
            report.trace_json.as_deref(),
            Some(reference.as_str()),
            "fallback must still be byte-identical (cut at {cut} bytes)"
        );
        drop(server);
        assert!(
            !newest_path.exists(),
            "the damaged file must be swept on open"
        );
        assert!(!stale.exists(), "stale .tmp spool must be swept on open");
    }
}

/// The retention clamp: under disk-budget eviction pressure the replay
/// floor never passes the oldest retained checkpoint's sequence — a
/// seek can always restore that checkpoint and page forward out of
/// still-retained segments — and history older than the floor stays
/// reachable through `ReplayWindow` regeneration.
#[test]
fn eviction_never_outruns_the_oldest_checkpoint() {
    const BUDGET: u64 = 8 * 1024;
    const CHUNK_NS: u64 = 25_000_000;
    let root = tmp_root("clamp");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root)
            .with_segment_capacity(16)
            .with_retention(Retention {
                compress_after: Some(1),
                max_disk_bytes: Some(BUDGET),
            })
            .with_compact_interval(Duration::from_millis(5))
            .with_checkpoint_interval(48),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-clamp")))
        .expect("durable");
    let mut chunks = 0usize;
    loop {
        handle.run_for(CHUNK_NS).expect("send");
        handle.wait_idle(WAIT).expect("idle");
        chunks += 1;
        if handle.stats(WAIT).expect("stats").trace_len >= 600 {
            break;
        }
        assert!(chunks < 64, "ring too quiet after {chunks} chunks");
    }
    // Wait for the budget to actually force evictions.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if server.metrics_snapshot().fleet.store_evicted_segments > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the budget never forced an eviction"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let oldest_ck = checkpoint_files(&checkpoint_dir(&root, handle.id()))
        .first()
        .expect("checkpoints written")
        .0;
    let floor = handle.replay_from(0, 7, WAIT).expect("page").first_seq;
    assert!(floor > 0, "eviction should have moved the replay floor");
    assert!(
        floor <= oldest_ck,
        "eviction passed the oldest checkpoint: floor {floor} > checkpoint {oldest_ck}"
    );

    // A seek pinned just past the oldest checkpoint restores *that*
    // image and replays O(interval), even under eviction pressure.
    let stats = handle.stats(WAIT).expect("stats");
    let report = handle.seek_to(stats.now_ns / 2, false, WAIT).expect("seek");
    assert!(report.checkpoint_seq.is_some());
    assert!(report.replayed_entries < report.trace_len);
    // And a window that predates the floor regenerates from scratch.
    let window = handle
        .replay_window(0, stats.now_ns / 8, WAIT)
        .expect("pre-floor window");
    assert!(
        window.entries.first().map_or(0, |e| e.seq) < floor,
        "the regenerated window must reach below the eviction floor"
    );
    assert!(window
        .entries
        .iter()
        .all(|e| e.event.time_ns <= stats.now_ns / 8));
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
