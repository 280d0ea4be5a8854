//! `recovery`: the cold paths, and the per-entry path on reopened
//! stores. One cycle writes a registry of four durable dense-ring
//! sessions in 150 closed-loop `RunFor(50 ms)` chunks each (about 200k
//! entries, 150 journal records and a dozen checkpoints per session),
//! restarts the server over it, and resumes the restored sessions for
//! 10 s more target time in 200 ms chunks; after every resumed chunk one
//! seek, one regenerated window and one stored read go over the wire to
//! the now idle sessions, spread over the history written before the
//! restart. Cycles repeat on fresh registries until the run's time is
//! used.
//!
//! Loads journal replay, checkpoint load and parse, `SessionSpec::build`
//! and segment reads (the restart and the probes), and the pump side of
//! the per-entry path on reopened stores: decode, engine feed, binary
//! append and per-slice sync, checkpoint imaging, publish (the resumed
//! chunks). The sessions stream to in-process subscriptions: the wire
//! half of the per-entry path is `firehose`'s, and through the wire the
//! pump, the streamer's JSON encode and the client's decode form a
//! pipeline of about 1.25 cores on the 2-vCPU host, which lost 20-30 %
//! of its speed beside a one-core CPU hog; the pump alone did not.

use crate::harness::{
    ms, round_local, server_config, spread, Collected, Identity, Live, RunCfg, Stream, WAIT,
    WINDOW_NS,
};
use crate::inputs;
use crate::spans::Recorder;
use crate::stats::{peak_rss_mb, trace_hash, Rng, TraceHash};
use gmdf_engine::TraceEntry;
use gmdf_server::{DebugServer, EventReceiver, PersistConfig, SessionHandle, SessionId};
use std::time::Instant;

const SESSIONS: usize = 4;
const CHUNK_NS: u64 = 50_000_000;
const CHUNKS: u64 = 150;
/// The resumed run: 10 s more target time per session in 200 ms chunks
/// (fewer journal fsyncs per entry than the 50 ms chunks, so the shared
/// disk's fsync latency moves the stream metrics less).
const RESUME_CHUNK_NS: u64 = 200_000_000;
const RESUME_CHUNKS: u64 = 50;

pub fn run(cfg: &RunCfg, rec: &mut Recorder) -> Result<Collected, String> {
    let mut c = Collected::default();
    let seeds = inputs::session_seeds(cfg.seed, SESSIONS);
    let mut rng = Rng::new(cfg.seed ^ 0x5EE4);
    let run_start = Instant::now();
    let mut full = TraceHash::default();
    let mut k = 0;
    while k == 0 || run_start.elapsed().as_secs_f64() < cfg.seconds {
        cycle(cfg, k, &seeds, rng.unit(), &mut c, &mut full, rec)?;
        if k == 0 {
            // After a fixed amount of work, as on `firehose`.
            c.peak_rss_mb = peak_rss_mb();
        }
        k += 1;
    }

    // The reference: session 0's spec run in-process in one call,
    // outside the timed phase and after the memory reading, against
    // everything the first cycle received for that session, before and
    // after the restart.
    let mut reference = inputs::spec(
        inputs::dense_ring_system(),
        inputs::dense_ring_sim(seeds[0]),
    )?
    .build()
    .map_err(|e| format!("reference build: {e}"))?;
    reference
        .run_for(CHUNKS * CHUNK_NS + RESUME_CHUNKS * RESUME_CHUNK_NS)
        .map_err(|e| format!("reference run: {e}"))?;
    let expected = trace_hash(&reference.engine().trace().entries());
    c.check(full == expected, || {
        "session 0: received trace differs from the in-process reference".to_owned()
    });
    Ok(c)
}

/// Write, restart, resume and probe one registry. The first cycle
/// hashes everything it receives for session 0 into `full` and keeps
/// the written part for the decomposition.
#[allow(clippy::too_many_arguments)]
fn cycle(
    cfg: &RunCfg,
    k: usize,
    seeds: &[u64],
    offset: f64,
    c: &mut Collected,
    full: &mut TraceHash,
    rec: &mut Recorder,
) -> Result<(), String> {
    let persist = PersistConfig::new(cfg.dir.join(format!("registry-{k}")));
    let horizon = CHUNKS * CHUNK_NS;
    let base = k as u64 * 1_000;

    // Write the registry, streaming it as it is recorded.
    let server = DebugServer::start_persistent(server_config(), persist.clone())
        .map_err(|e| format!("server start: {e}"))?;
    let t_reg = Instant::now();
    let mut handles: Vec<SessionHandle> = Vec::new();
    for &seed in seeds {
        let spec = inputs::spec(inputs::dense_ring_system(), inputs::dense_ring_sim(seed))?;
        let handle = server
            .add_durable_session(&spec)
            .map_err(|e| format!("durable session: {e}"))?;
        handles.push(handle);
    }
    let t_registered = Instant::now();
    rec.record("server.register", base, t_reg, t_registered);
    c.register_ms.push(ms(t_registered - t_reg));
    let ids: Vec<SessionId> = handles.iter().map(SessionHandle::id).collect();
    let subs: Vec<EventReceiver> = handles.iter().map(SessionHandle::subscribe).collect();
    let mut written = Stream::new(&ids, Instant::now());
    for &id in &ids {
        written.keep_times(id);
    }
    if k == 0 {
        written.keep_entries(ids[0]);
    }
    for chunk in 0..CHUNKS {
        let until = (chunk + 1) * CHUNK_NS;
        let req = base + chunk;
        round_local(
            &handles,
            &subs,
            &mut written,
            (CHUNK_NS, until),
            c,
            rec,
            req,
        )?;
    }
    for e in std::mem::take(&mut written.errors) {
        c.fail(e);
    }
    let mut before = Vec::new();
    for handle in &handles {
        let id = handle.id();
        let stats = handle.stats(WAIT).map_err(|e| format!("stats {id}: {e}"))?;
        c.check(stats.now_ns == horizon, || {
            format!("session {id} stopped at {} ns", stats.now_ns)
        });
        c.check_stream(id, &written.sessions[&id], stats.trace_len as u64);
        before.push((id, stats.trace_len, stats.now_ns));
    }
    if k == 0 {
        c.snapshots.push(server.metrics_snapshot());
    }
    drop((subs, handles));
    drop(server);

    // Restart over the registry until every restored session is idle.
    let t0 = Instant::now();
    let server = DebugServer::start_persistent(server_config(), persist)
        .map_err(|e| format!("restart: {e}"))?;
    let t1 = Instant::now();
    rec.record("server.start_persistent", base, t0, t1);
    for &(id, _, _) in &before {
        match server.handle(id) {
            Some(handle) => {
                if let Err(e) = handle.wait_idle(WAIT) {
                    c.fail(format!("restored session {id}: {e}"));
                }
            }
            None => c.fail(format!("session {id} not restored")),
        }
    }
    let t2 = Instant::now();
    rec.record("server.catch_up", base, t1, t2);
    c.setup_s.push((t2 - t0).as_secs_f64());
    c.restore_ms.push(ms(t1 - t0));
    c.catchup_ms.push(ms(t2 - t1));
    c.check(server.quarantined_sessions().is_empty(), || {
        format!("quarantined: {:?}", server.quarantined_sessions())
    });
    c.restart_replayed
        .push(server.metrics_snapshot().fleet.events_fed as f64);
    for &(id, len, now) in &before {
        let stats = server.handle(id).map(|h| h.stats(WAIT));
        let ok = matches!(&stats, Some(Ok(s)) if s.trace_len == len && s.now_ns == now);
        c.check(ok, || {
            format!("session {id} restored as {stats:?}, was ({len}, {now})")
        });
    }

    // The restored sessions resume; between chunks the idle history is
    // probed over the wire.
    let live = Live::start(server, rec, base)?;
    let (mut client, connect_ms) = live.connect(rec, base)?;
    c.connect_ms.push(connect_ms);
    let handles: Vec<SessionHandle> = ids
        .iter()
        .map(|&id| live.server.handle(id).ok_or("session vanished"))
        .collect::<Result<_, _>>()?;
    let subs: Vec<EventReceiver> = handles.iter().map(SessionHandle::subscribe).collect();
    let mut resumed = Stream::new(&ids, Instant::now());
    for &(id, len, _) in &before {
        resumed.expect_from(id, len as u64);
    }
    if k == 0 {
        resumed.keep_entries(ids[0]);
    }
    for chunk in 0..RESUME_CHUNKS {
        let until = horizon + (chunk + 1) * RESUME_CHUNK_NS;
        let req = base + CHUNKS + chunk;
        let wall = round_local(
            &handles,
            &subs,
            &mut resumed,
            (RESUME_CHUNK_NS, until),
            c,
            rec,
            req,
        )?;
        c.drive_s += wall.as_secs_f64();
        let s = chunk as usize % ids.len();
        let t = spread(offset, chunk, 1_000_000, horizon - WINDOW_NS);
        let times = written.sessions[&ids[s]]
            .times
            .as_deref()
            .unwrap_or_default();
        c.probe(&mut client, ids[s], times, t, req, rec);
    }
    c.take_stream(&mut resumed);
    for handle in &handles {
        let id = handle.id();
        let stats = handle.stats(WAIT).map_err(|e| format!("stats {id}: {e}"))?;
        c.check(
            stats.now_ns == horizon + RESUME_CHUNKS * RESUME_CHUNK_NS,
            || format!("resumed session {id} stopped at {} ns", stats.now_ns),
        );
        c.check_stream(id, &resumed.sessions[&id], stats.trace_len as u64);
    }
    if k == 0 {
        c.snapshots.push(live.server.metrics_snapshot());
        let entries = take_entries(&mut written, ids[0]);
        full.update(&entries);
        full.update(&take_entries(&mut resumed, ids[0]));
        c.identity = Some(Identity {
            spec: inputs::spec(
                inputs::dense_ring_system(),
                inputs::dense_ring_sim(seeds[0]),
            )?,
            horizon_ns: horizon,
            entries,
        });
    }
    Ok(())
}

fn take_entries(stream: &mut Stream, id: SessionId) -> Vec<TraceEntry> {
    stream
        .sessions
        .get_mut(&id)
        .and_then(|s| s.entries.take())
        .unwrap_or_default()
}
