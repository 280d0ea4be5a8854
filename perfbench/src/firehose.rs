//! `firehose`: one engineer runs a chatty target and time-travels on it.
//! Closed loop over two durable dense-ring sessions: grant both 200 ms
//! of target time, read the stream until both report `Idle`, repeat to
//! a 20 s horizon. Every other round a second user, on a connection of
//! their own, steps session 1 back 2 000 entries while the round is
//! pumping; after every round one seek, one regenerated window and one
//! stored read go to the idle sessions, spread over the history so far.
//! Horizons repeat on fresh registries until the run's time is used.
//!
//! Set-up is reopening the engineer's saved sessions: each horizon
//! first records 2 s of both sessions on a fresh server (untimed), then
//! restarts the server over that registry until both are idle and
//! attaches (timed, three times; the last one is driven on). Registering
//! a brand-new durable session is a handful of fsyncs of new files,
//! which on a shared disk took 3 to 20 ms from one minute to the next;
//! the restart's replay is work the server does.
//!
//! Loads the per-entry path: decode, engine feed, binary append and
//! per-slice sync, checkpoint imaging, publish, JSON wire encode and
//! client decode. The simulator runs one task per session. The
//! step-backs run on the pump worker both sessions share, so they show
//! in lag p99.

use crate::harness::{
    ms, round, server_config, spread, Collected, Identity, Live, RunCfg, Stream, WAIT, WINDOW_NS,
};
use crate::inputs;
use crate::spans::Recorder;
use crate::stats::{peak_rss_mb, trace_hash, Rng, TraceHash};
use gmdf_server::{DebugServer, PersistConfig, SeekReport, SessionId, WireClient};
use std::sync::mpsc;
use std::time::Instant;

const ROUND_NS: u64 = 200_000_000;
const HORIZON_NS: u64 = 20_000_000_000;
/// Rounds recorded before the set-up, untimed.
const SAVED_ROUNDS: u64 = 10;
/// Restarts per horizon; each is a set-up sample.
const RESTARTS: usize = 3;
/// Rounds between step-backs.
const TRAVEL_EVERY: u64 = 2;
const STEP_BACK: u64 = 2_000;

/// Records the saved sessions: a fresh server with two durable
/// sessions, driven for [`SAVED_ROUNDS`] rounds while a client keeps
/// everything they stream.
fn save(
    cfg: &RunCfg,
    persist: &PersistConfig,
    req: u64,
    c: &mut Collected,
    rec: &mut Recorder,
) -> Result<(Vec<SessionId>, Stream), String> {
    let server = DebugServer::start_persistent(server_config(), persist.clone())
        .map_err(|e| format!("server start: {e}"))?;
    let spec = inputs::spec(
        inputs::dense_ring_system(),
        inputs::dense_ring_sim(cfg.seed),
    )?;
    let t_reg = Instant::now();
    let mut ids = Vec::new();
    for _ in 0..2 {
        let handle = server
            .add_durable_session(&spec)
            .map_err(|e| format!("durable session: {e}"))?;
        ids.push(handle.id());
    }
    let t_registered = Instant::now();
    rec.record("server.register", req, t_reg, t_registered);
    c.register_ms.push(ms(t_registered - t_reg));
    let live = Live::start(server, rec, req)?;
    let (mut client, _) = live.connect(rec, req)?;
    client
        .attach_many(&ids)
        .map_err(|e| format!("attach: {e}"))?;
    let mut stream = Stream::new(&ids, Instant::now());
    for &id in &ids {
        stream.keep_entries(id);
        stream.keep_times(id);
    }
    for r in 0..SAVED_ROUNDS {
        let until = (r + 1) * ROUND_NS;
        round(
            &mut client,
            &mut stream,
            &ids,
            (ROUND_NS, until),
            || {},
            c,
            rec,
            req,
        )?;
    }
    Ok((ids, stream))
}

/// The set-up: restarts the server over the saved registry until every
/// session is idle where it was saved, then attaches a client (TCP
/// connect excluded: the accept loop polls every 20 ms).
fn reopen(
    persist: &PersistConfig,
    ids: &[SessionId],
    saved_ns: u64,
    req: u64,
    c: &mut Collected,
    rec: &mut Recorder,
) -> Result<(Live, WireClient), String> {
    let t0 = Instant::now();
    let server = DebugServer::start_persistent(server_config(), persist.clone())
        .map_err(|e| format!("restart: {e}"))?;
    let t1 = Instant::now();
    rec.record("server.start_persistent", req, t0, t1);
    for &id in ids {
        let handle = server
            .handle(id)
            .ok_or(format!("session {id} not restored"))?;
        handle
            .wait_idle(WAIT)
            .map_err(|e| format!("restored session {id}: {e}"))?;
        let stats = handle.stats(WAIT).map_err(|e| format!("stats {id}: {e}"))?;
        c.check(stats.now_ns == saved_ns, || {
            format!("session {id} restored at {} of {saved_ns} ns", stats.now_ns)
        });
    }
    let t2 = Instant::now();
    rec.record("server.catch_up", req, t1, t2);
    c.restart_replayed
        .push(server.metrics_snapshot().fleet.events_fed as f64);
    let live = Live::start(server, rec, req)?;
    let (mut client, connect_ms) = live.connect(rec, req)?;
    let t_attach = Instant::now();
    client
        .attach_many(ids)
        .map_err(|e| format!("attach: {e}"))?;
    let t_ready = Instant::now();
    rec.record("client.attach", req, t_attach, t_ready);
    c.setup_s
        .push((t_ready - t0).as_secs_f64() - connect_ms / 1e3);
    c.restore_ms.push(ms(t1 - t0));
    c.catchup_ms.push(ms(t2 - t1));
    c.attach_ms.push(ms(t_ready - t_attach));
    c.connect_ms.push(connect_ms);
    Ok((live, client))
}

/// A step-back the second user sent: start, end and the reply.
type Travel = (Instant, Instant, Result<SeekReport, String>);

pub fn run(cfg: &RunCfg, rec: &mut Recorder) -> Result<Collected, String> {
    let mut c = Collected::default();
    let mut rng = Rng::new(cfg.seed ^ 0xF14E);
    let phase = rng.range(0, TRAVEL_EVERY);
    let run_start = Instant::now();
    let mut hashes: Vec<TraceHash> = Vec::new();
    let mut k = 0;
    while k == 0 || run_start.elapsed().as_secs_f64() < cfg.seconds {
        hashes.extend(horizon(cfg, k, phase, rng.unit(), &mut c, rec)?);
        if k == 0 {
            // After a fixed amount of work: each later server's threads
            // keep freed memory in arenas of their own, so the mark would
            // follow how many horizons the run had time for.
            c.peak_rss_mb = peak_rss_mb();
        }
        k += 1;
    }

    // The reference: the same spec run in-process in one call, outside
    // the timed phase and after the memory reading.
    let mut reference = inputs::spec(
        inputs::dense_ring_system(),
        inputs::dense_ring_sim(cfg.seed),
    )?
    .build()
    .map_err(|e| format!("reference build: {e}"))?;
    reference
        .run_for(HORIZON_NS)
        .map_err(|e| format!("reference run: {e}"))?;
    let expected = trace_hash(&reference.engine().trace().entries());
    for (i, hash) in hashes.into_iter().enumerate() {
        c.check(hash == expected, || {
            format!(
                "horizon {}, session {}: received trace differs from the in-process reference",
                i / 2,
                i % 2
            )
        });
    }
    Ok(c)
}

/// One horizon on a fresh registry: save, reopen, drive the rounds with
/// the step-backs and the probes, check what came back. Returns the
/// hash of each session's received trace.
fn horizon(
    cfg: &RunCfg,
    k: usize,
    phase: u64,
    offset: f64,
    c: &mut Collected,
    rec: &mut Recorder,
) -> Result<Vec<TraceHash>, String> {
    let persist = PersistConfig::new(cfg.dir.join(format!("firehose-{k}")));
    let rounds = HORIZON_NS / ROUND_NS;
    let base = k as u64 * rounds;
    let (ids, saved) = save(cfg, &persist, base, c, rec)?;
    let saved_ns = SAVED_ROUNDS * ROUND_NS;
    for r in 1..RESTARTS {
        drop(reopen(&persist, &ids, saved_ns, base + r as u64, c, rec)?);
    }
    let (live, mut client) = reopen(&persist, &ids, saved_ns, base, c, rec)?;
    let (traveller, _) = live.connect(rec, base)?;
    let travelled = ids[1];
    let (mut stream, errors) = Stream::resume(saved, Instant::now());
    for e in errors {
        c.fail(e);
    }

    let mut travel_rec = rec.fork();
    let mut travels: Vec<Travel> = Vec::new();
    std::thread::scope(|s| -> Result<(), String> {
        let (trigger, triggered) = mpsc::channel::<u64>();
        let (reply, replies) = mpsc::channel::<Travel>();
        let travel_rec = &mut travel_rec;
        s.spawn(move || {
            let mut client = traveller;
            for req in triggered {
                let t0 = Instant::now();
                let report = client
                    .step_back(travelled, STEP_BACK, false, WAIT)
                    .map_err(|e| format!("step_back: {e}"));
                let t1 = Instant::now();
                travel_rec.record("client.step_back", req, t0, t1);
                if reply.send((t0, t1, report)).is_err() {
                    break;
                }
            }
        });
        for r in SAVED_ROUNDS..rounds {
            let req = base + r;
            let travel = r % TRAVEL_EVERY == phase;
            let until = (r + 1) * ROUND_NS;
            let on_sent = || {
                if travel {
                    let _ = trigger.send(req);
                }
            };
            let wall = rec.span("client.round", req, |rec| {
                round(
                    &mut client,
                    &mut stream,
                    &ids,
                    (ROUND_NS, until),
                    on_sent,
                    c,
                    rec,
                    req,
                )
            })?;
            c.drive_s += wall.as_secs_f64();
            if travel {
                travels.push(replies.recv().map_err(|_| "step-back thread ended")?);
            }
            // The history so far, on the idle sessions in turn.
            let id = ids[r as usize % ids.len()];
            let t = spread(offset, r, 1_000_000, until - WINDOW_NS);
            let times = stream.sessions[&id].times.as_deref().unwrap_or_default();
            c.probe(&mut client, id, times, t, req, rec);
        }
        Ok(())
    })?;
    rec.absorb(travel_rec);

    c.take_stream(&mut stream);
    for &id in &ids {
        let handle = live.server.handle(id).ok_or("session vanished")?;
        let stats = handle.stats(WAIT).map_err(|e| format!("stats {id}: {e}"))?;
        c.check(stats.now_ns == HORIZON_NS, || {
            format!("session {id} stopped at {} ns", stats.now_ns)
        });
        c.check_stream(id, &stream.sessions[&id], stats.trace_len as u64);
    }
    let times = stream.sessions[&travelled]
        .times
        .as_deref()
        .unwrap_or_default();
    for (t0, t1, report) in travels {
        match report {
            Ok(report) => {
                c.step_back_ms.push(ms(t1 - t0));
                c.check_step_back(times, &report);
            }
            Err(e) => c.fail(e),
        }
    }
    if k == 0 {
        c.snapshots.push(live.server.metrics_snapshot());
    }
    drop(client);
    drop(live);

    let mut hashes = Vec::new();
    for &id in &ids {
        let entries = stream
            .sessions
            .get_mut(&id)
            .and_then(|s| s.entries.take())
            .unwrap_or_default();
        hashes.push(trace_hash(&entries));
        if k == 0 && id == ids[0] {
            c.identity = Some(Identity {
                spec: inputs::spec(
                    inputs::dense_ring_system(),
                    inputs::dense_ring_sim(cfg.seed),
                )?,
                horizon_ns: HORIZON_NS,
                entries,
            });
        }
    }
    Ok(hashes)
}
