//! The traced run's single-threaded decomposition: one session's inputs
//! fed layer by layer through the public API, each call timed as its
//! own span.
//!
//! Set-up: GDM derivation → compile → simulator boot → analysis. Per
//! 1 ms slice, as the server pumps: `Simulator::run_until` →
//! `uart_take_into` → `ActiveChannel::feed` → `DebuggerEngine::feed`
//! (its store wrapped in a timing [`TraceStore`]) → `ExecutionTrace`
//! sync → checkpoint every 4 096 entries (`save_state` + `serde_json` +
//! `CheckpointStore::save`) → delta read-back → `proto::encode_frame_into`
//! → `FrameDecoder` + `decode_payload`. Then seeks: checkpoint load and
//! parse → `SessionSpec::build` + `restore_state` → replay.
//!
//! The checkpoint image here is the benchmark's own struct, not the
//! server's on-disk format. The decoded trace must be byte-identical to
//! what the server streamed for the same session.

use crate::harness::Identity;
use crate::spans::Recorder;
use crate::stats::{median, trace_hash};
use gmdf::{ActiveChannel, RunReport, Workflow};
use gmdf_codegen::{compile_system, FrameDecoder as UartDecoder};
use gmdf_engine::store::DEFAULT_SEGMENT_CAPACITY;
use gmdf_engine::{
    CheckpointStore, Codec, DebuggerEngine, EngineCheckpoint, OffsetMemStore, Retention,
    SegmentConfig, SegmentStore, StoreError, StoreStats, TraceEntry, TraceStore,
};
use gmdf_gdm::ModelEvent;
use gmdf_server::proto::{decode_payload, encode_frame_into, FrameDecoder, ServerFrame};
use gmdf_server::{EngineEvent, DEFAULT_CHECKPOINT_INTERVAL};
use gmdf_target::{SimState, Simulator};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SLICE_NS: u64 = 1_000_000;
const SETUP_REPEATS: u64 = 5;
/// Unattributed time (loop bookkeeping between spans) allowed before
/// the decomposition counts as not reconciling with its wall time.
pub const TOLERANCE_PCT: f64 = 10.0;

/// Forwards to the real store, accumulating the time spent appending.
#[derive(Debug)]
struct TimedStore {
    inner: Box<dyn TraceStore>,
    append_ns: Arc<AtomicU64>,
}

impl TraceStore for TimedStore {
    fn append(&mut self, entry: TraceEntry) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let r = self.inner.append(entry);
        self.append_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn read_into(&self, from: u64, to: u64, out: &mut Vec<TraceEntry>) -> Result<(), StoreError> {
        self.inner.read_into(from, to, out)
    }
    fn window_bounds(&self, t0: u64, t1: u64) -> Result<(u64, u64), StoreError> {
        self.inner.window_bounds(t0, t1)
    }
    fn time_range(&self) -> Option<(u64, u64)> {
        self.inner.time_range()
    }
    fn sync(&mut self) -> Result<(), StoreError> {
        self.inner.sync()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// The benchmark's checkpoint image.
#[derive(Debug, Serialize, Deserialize)]
struct Image {
    trace_len: u64,
    sim: SimState,
    engine: EngineCheckpoint,
    decoders: Vec<UartDecoder>,
}

#[derive(Debug)]
pub struct Decomposition {
    pub rec: Recorder,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Checks made: decoded trace vs server stream, replica vs original.
    pub checks: Vec<(bool, String)>,
}

/// Which crate each span's self time belongs to.
fn crate_of(name: &str) -> &'static str {
    match name.split('.').next() {
        Some("gdm") => "layer.gdm_ms",
        Some("codegen") => "layer.codegen_ms",
        Some("target") => "layer.target_ms",
        Some("analyze") => "layer.analyze_ms",
        Some("core") => "layer.core_ms",
        Some("engine") => "layer.engine_ms",
        Some("server" | "client") => "layer.server_ms",
        _ => "layer.unattributed_ms",
    }
}

/// Runs the target to `t_end` and decodes every node's UART in node
/// order, returning the slice's events in time order — what
/// `DebugSession::run_for` feeds its engine.
fn drain(
    sim: &mut Simulator,
    channels: &mut [(String, ActiveChannel)],
    bufs: &mut [Vec<(u64, u8)>],
    t_end: u64,
) -> Result<Vec<ModelEvent>, String> {
    sim.run_until(t_end).map_err(|e| e.to_string())?;
    let mut events: Vec<ModelEvent> = Vec::new();
    for ((node, channel), buf) in channels.iter_mut().zip(bufs.iter_mut()) {
        buf.clear();
        sim.uart_take_into(node, buf).map_err(|e| e.to_string())?;
        events.extend(channel.feed(buf));
    }
    events.sort_by_key(|e| e.time_ns);
    Ok(events)
}

pub fn decompose(id: &Identity, dir: &Path) -> Result<Decomposition, String> {
    let mut rec = Recorder::new(true, Instant::now());
    let mut checks = Vec::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let spec = &id.spec;
    let append_ns = Arc::new(AtomicU64::new(0));
    type Replica = (u64, (u64, Vec<TraceEntry>));
    // Freeing a simulator (its event log runs to tens of MB) is nobody's
    // layer work: what the root span would drop is parked here and
    // dropped after it closes.
    let mut parked_setups = Vec::new();
    let mut parked_run = None;
    let result = rec.span(
        "decompose",
        0,
        |rec| -> Result<(Vec<TraceEntry>, Vec<Replica>), String> {
            // Set-up steps are short and run once per session, so each is
            // repeated and reported as the median.
            let mut setup = None;
            for rep in 0..SETUP_REPEATS {
                let configured = rec.span("gdm.derive", rep, |_| {
                    Workflow::from_system(spec.system.clone())
                        .map(|w| w.default_abstraction().default_commands())
                        .map_err(|e| e.to_string())
                })?;
                let image = rec.span("codegen.compile", rep, |_| {
                    compile_system(&spec.system, &spec.compile).map_err(|e| e.to_string())
                })?;
                let debug = image.debug.clone();
                let sim = rec.span("target.boot", rep, |_| {
                    Simulator::new(image, spec.sim).map_err(|e| e.to_string())
                })?;
                rec.span("analyze.report", rep, |_| {
                    gmdf_analyze::analyze(&spec.system, sim.image(), sim.config())
                        .map_err(|e| e.to_string())
                })?;
                parked_setups.extend(setup.replace((configured, debug, sim)));
            }
            let (configured, debug, mut sim) = setup.expect("at least one set-up");
            let mut engine = DebuggerEngine::new(configured.gdm().clone());
            let mut channels: Vec<(String, ActiveChannel)> = spec
                .system
                .nodes
                .iter()
                .map(|n| (n.name.clone(), ActiveChannel::new(debug.clone())))
                .collect();
            let mut bufs: Vec<Vec<(u64, u8)>> = vec![Vec::new(); channels.len()];
            let config = SegmentConfig {
                capacity: DEFAULT_SEGMENT_CAPACITY,
                codec: Codec::Binary,
                retention: Retention::default(),
            };
            let store =
                SegmentStore::open_with(dir.join("trace"), config).map_err(|e| e.to_string())?;
            engine.set_trace_store(Box::new(TimedStore {
                inner: Box::new(store),
                append_ns: Arc::clone(&append_ns),
            }));
            let mut checkpoints =
                CheckpointStore::open(dir.join("checkpoints")).map_err(|e| e.to_string())?;

            let mut last_checkpoint: u64 = 0;
            let mut cursor: u64 = 0;
            let mut json = String::new();
            let mut wire: Vec<u8> = Vec::new();
            let mut wire_bytes: usize = 0;
            let mut client = FrameDecoder::new();
            let mut decoded: Vec<TraceEntry> = Vec::new();
            let mut slice: u64 = 0;
            while sim.now_ns() < id.horizon_ns {
                let req = slice;
                let t_end = (sim.now_ns() + SLICE_NS).min(id.horizon_ns);
                rec.span("target.run", req, |_| {
                    sim.run_until(t_end).map_err(|e| e.to_string())
                })?;
                rec.span("target.uart", req, |_| -> Result<(), String> {
                    for ((node, _), buf) in channels.iter().zip(bufs.iter_mut()) {
                        buf.clear();
                        sim.uart_take_into(node, buf).map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })?;
                let events = rec.span("core.decode", req, |_| {
                    let mut events: Vec<ModelEvent> = Vec::new();
                    for ((_, channel), buf) in channels.iter_mut().zip(&bufs) {
                        events.extend(channel.feed(buf));
                    }
                    events.sort_by_key(|e| e.time_ns);
                    events
                });
                let fed = events.len();
                rec.span("engine.feed", req, |rec| {
                    let before = append_ns.load(Ordering::Relaxed);
                    for e in events {
                        engine.feed(e);
                    }
                    let spent = append_ns.load(Ordering::Relaxed) - before;
                    rec.aggregate("engine.store.append", req, spent);
                });
                rec.span("engine.store.sync", req, |_| engine.sync_trace())
                    .map_err(|e| e.to_string())?;
                let len = engine.trace().len() as u64;
                if len - last_checkpoint >= DEFAULT_CHECKPOINT_INTERVAL {
                    let image = rec.span("engine.checkpoint.save_state", req, |_| Image {
                        trace_len: len,
                        sim: sim.save_state(),
                        engine: engine.save_state(),
                        decoders: channels.iter().map(|(_, c)| c.decoder_state()).collect(),
                    });
                    let payload = rec.span("engine.checkpoint.serialize", req, |_| {
                        serde_json::to_string(&image).map_err(|e| e.to_string())
                    })?;
                    rec.span("engine.checkpoint.write", req, |_| {
                        checkpoints.save(len, image.sim.now_ns(), payload.as_bytes())
                    })
                    .map_err(|e| e.to_string())?;
                    last_checkpoint = len;
                }
                let mut delta: Vec<TraceEntry> = Vec::new();
                if len > cursor {
                    rec.span("engine.store.read", req, |_| {
                        engine.trace().read_range_into(cursor, len, &mut delta)
                    })
                    .map_err(|e| e.to_string())?;
                    cursor = len;
                }
                let now_ns = sim.now_ns();
                rec.span("server.proto.encode", req, |_| -> Result<(), String> {
                    let report = RunReport {
                        events_fed: fed,
                        ..RunReport::default()
                    };
                    let mut frames = vec![EngineEvent::SliceCompleted {
                        session: 0,
                        now_ns,
                        report,
                    }];
                    if !delta.is_empty() {
                        frames.push(EngineEvent::TraceDelta {
                            session: 0,
                            entries: delta,
                        });
                    }
                    for event in frames {
                        encode_frame_into(&ServerFrame::Event { event }, &mut json, &mut wire)
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })?;
                wire_bytes += wire.len();
                rec.span("client.decode", req, |_| -> Result<(), String> {
                    client.feed(&wire);
                    wire.clear();
                    while let Some(payload) = client.next_payload()? {
                        if let ServerFrame::Event {
                            event: EngineEvent::TraceDelta { entries, .. },
                        } = decode_payload::<ServerFrame>(&payload)?
                        {
                            decoded.extend(entries);
                        }
                    }
                    Ok(())
                })?;
                slice += 1;
            }

            m.insert("engine.entries", engine.trace().len() as f64);
            m.insert(
                "server.wire.bytes_per_entry",
                wire_bytes as f64 / engine.trace().len().max(1) as f64,
            );
            m.insert(
                "core.crc_errors",
                channels.iter().map(|(_, c)| c.crc_errors()).sum::<u64>() as f64,
            );
            m.insert("target.sim_events", sim.events().len() as f64);

            let mut replicas = Vec::new();
            for (j, quarter) in [1u64, 2, 3].into_iter().enumerate() {
                let target = id.horizon_ns / 4 * quarter;
                let req = 1_000_000 + j as u64;
                let replica = rec.span("server.seek", req, |rec| {
                    seek(rec, req, spec, &checkpoints, target)
                })?;
                replicas.push((target, replica));
            }
            parked_run = Some((sim, engine, channels, checkpoints));
            Ok((decoded, replicas))
        },
    );
    // Checked outside the spans: comparing is the benchmark's work, not
    // a layer's.
    let (decoded, replicas) = result?;
    drop((parked_setups, parked_run));
    checks.push((
        trace_hash(&decoded) == trace_hash(&id.entries),
        format!(
            "decomposed trace ({} entries) differs from the server's stream ({} entries)",
            decoded.len(),
            id.entries.len()
        ),
    ));
    for (target, (base, regenerated)) in replicas {
        let (lo, hi) = (base as usize, base as usize + regenerated.len());
        let ok = hi <= decoded.len() && decoded[lo..hi] == regenerated[..];
        checks.push((
            ok,
            format!("decomposed seek to {target} diverged from the recorded trace"),
        ));
    }

    let by_name = rec.self_ms_by_name();
    let wall = rec.durations_ms("decompose")[0];
    let own = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    for (metric, span) in [
        ("gdm.derive_ms", "gdm.derive"),
        ("codegen.compile_ms", "codegen.compile"),
        ("target.boot_ms", "target.boot"),
        ("analyze.report_ms", "analyze.report"),
    ] {
        m.insert(metric, median(&rec.durations_ms(span)));
    }
    for (metric, spans) in [
        ("target.run_ms", &["target.run", "target.uart"][..]),
        ("core.decode_ms", &["core.decode"]),
        ("engine.feed_ms", &["engine.feed"]),
        ("engine.store.append_ms", &["engine.store.append"]),
        ("engine.store.sync_ms", &["engine.store.sync"]),
        ("server.proto.encode_ms", &["server.proto.encode"]),
        ("client.decode_ms", &["client.decode"]),
    ] {
        m.insert(metric, spans.iter().map(|s| own(s)).sum());
    }
    m.insert(
        "server.seek.rebuild_ms",
        median(&rec.durations_ms("server.seek.rebuild")),
    );
    for layer in [
        "layer.gdm_ms",
        "layer.codegen_ms",
        "layer.target_ms",
        "layer.analyze_ms",
        "layer.core_ms",
        "layer.engine_ms",
        "layer.server_ms",
        "layer.unattributed_ms",
    ] {
        m.insert(layer, 0.0);
    }
    for (name, own_ms) in &by_name {
        // `SessionSpec::build` is the core crate's façade over compile
        // and boot; the root span's own time is loop bookkeeping.
        let layer = match *name {
            "server.seek.rebuild" => "layer.core_ms",
            "decompose" => "layer.unattributed_ms",
            other => crate_of(other),
        };
        *m.entry(layer).or_default() += own_ms;
    }
    let unattributed = own("decompose");
    m.insert("trace.decompose_ms", wall);
    m.insert("trace.unattributed_pct", unattributed / wall * 100.0);
    checks.push((
        unattributed / wall * 100.0 <= TOLERANCE_PCT,
        format!(
            "layer self-times leave {unattributed:.1} of {wall:.1} ms unattributed (> {TOLERANCE_PCT} %)"
        ),
    ));
    Ok(Decomposition {
        rec,
        metrics: m,
        checks,
    })
}

/// Rebuilds the session at `target` from the newest checkpoint at or
/// before it (or from zero) and replays forward. Returns where the
/// replica's trace starts and the entries it regenerated.
fn seek(
    rec: &mut Recorder,
    req: u64,
    spec: &gmdf::SessionSpec,
    store: &CheckpointStore,
    target: u64,
) -> Result<(u64, Vec<TraceEntry>), String> {
    let meta = store
        .metas()
        .iter()
        .rev()
        .find(|m| m.t_ns <= target)
        .copied();
    let image = match meta {
        Some(meta) => {
            let bytes = rec
                .span("engine.checkpoint.load", req, |_| store.load(&meta))
                .map_err(|e| e.to_string())?;
            let image: Image = rec.span("engine.checkpoint.parse", req, |_| {
                let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
                serde_json::from_str(&text).map_err(|e| e.to_string())
            })?;
            Some(image)
        }
        None => None,
    };
    let mut replica = rec.span("server.seek.rebuild", req, |_| {
        spec.build().map_err(|e| e.to_string())
    })?;
    let debug = replica.simulator().image().debug.clone();
    let mut channels: Vec<(String, ActiveChannel)> = spec
        .system
        .nodes
        .iter()
        .map(|n| (n.name.clone(), ActiveChannel::new(debug.clone())))
        .collect();
    let base = image.as_ref().map_or(0, |i| i.trace_len);
    rec.span(
        "engine.checkpoint.restore",
        req,
        |_| -> Result<(), String> {
            if let Some(image) = &image {
                replica
                    .simulator_mut()
                    .restore_state(&image.sim)
                    .map_err(|e| e.to_string())?;
                replica.engine_mut().restore_state(&image.engine);
                for ((_, channel), decoder) in channels.iter_mut().zip(&image.decoders) {
                    channel.restore_decoder(decoder.clone());
                }
            }
            replica.resume_trace_store(Box::new(OffsetMemStore::new(base)));
            Ok(())
        },
    )?;
    let mut bufs: Vec<Vec<(u64, u8)>> = vec![Vec::new(); channels.len()];
    rec.span("server.seek.replay", req, |_| -> Result<(), String> {
        while replica.now_ns() < target {
            let t_end = (replica.now_ns() + SLICE_NS).min(target);
            let events = drain(replica.simulator_mut(), &mut channels, &mut bufs, t_end)?;
            for e in events {
                replica.engine_mut().feed(e);
            }
        }
        Ok(())
    })?;
    Ok((base, replica.engine().trace().entries()))
}
