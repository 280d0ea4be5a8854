//! What every workload shares: the run's settings, the collected
//! measurements, the receiving client's bookkeeping, and the output
//! checks.

use crate::spans::Recorder;
use gmdf::SessionSpec;
use gmdf_engine::TraceEntry;
use gmdf_server::{
    DebugServer, EngineEvent, EventReceiver, MetricsSnapshot, SeekReport, ServerConfig,
    SessionHandle, SessionId, TraceSlice, WireClient, WireServer,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on any single blocking call; a run that hits it has
/// failed, it is never part of a measurement.
pub const WAIT: Duration = Duration::from_secs(60);

/// Width of every `ReplayWindow` / `FetchRange` request.
pub const WINDOW_NS: u64 = 5_000_000;

/// Lags are grouped into windows of this many milliseconds of due time;
/// the lag tail is the typical window's p99.
pub const LAG_WINDOW_MS: u128 = 250;

/// How long an in-process drain blocks on one subscription before it
/// looks at the others again.
const POLL: Duration = Duration::from_micros(500);

/// One pump worker: with the benchmark's own threads, the default four
/// workers would oversubscribe a 2-core host and make every latency
/// depend on the OS scheduler.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    /// Working directory of this run, removed when the run ends.
    pub dir: PathBuf,
}

/// The durable session the traced run's single-threaded decomposition
/// replays; its trace must come out byte-identical to what the client
/// received.
#[derive(Debug, Clone)]
pub struct Identity {
    pub spec: SessionSpec,
    pub horizon_ns: u64,
    /// What the client received for this session.
    pub entries: Vec<TraceEntry>,
}

/// Everything one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Collected {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub delivered: u64,
    pub drive_s: f64,
    /// Entry lags, grouped by the window of the drive their command was
    /// due in ([`LAG_WINDOW_MS`]).
    pub lag_windows: Vec<Vec<u64>>,
    pub seek_ms: Vec<f64>,
    pub window_ms: Vec<f64>,
    pub fetch_ms: Vec<f64>,
    /// Step-backs sent while the server was pumping (`firehose`).
    pub step_back_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub register_ms: Vec<f64>,
    pub attach_ms: Vec<f64>,
    pub connect_ms: Vec<f64>,
    pub wait_ms: f64,
    pub restore_ms: Vec<f64>,
    pub catchup_ms: Vec<f64>,
    pub restart_replayed: Vec<f64>,
    pub seek_replayed: Vec<f64>,
    pub seek_from_zero: u64,
    /// Telemetry of the servers that did the measured work, read when
    /// each was done.
    pub snapshots: Vec<MetricsSnapshot>,
    pub identity: Option<Identity>,
}

impl Collected {
    /// Counts one checked operation; a mismatch is a failed operation,
    /// never a panic.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts an operation that returned an error.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// Books a measured stream: its entries and their lags count towards
    /// the stream metrics, its errors as failed operations.
    pub fn take_stream(&mut self, stream: &mut Stream) {
        self.delivered += stream.delivered;
        self.lag_windows.append(&mut stream.lag_windows);
        for e in std::mem::take(&mut stream.errors) {
            self.fail(e);
        }
    }

    /// Checks a session's received stream against its recorded trace:
    /// every entry arrived, in order, with no gap.
    pub fn check_stream(&mut self, id: SessionId, stream: &SessionStream, trace_len: u64) {
        self.attempted += trace_len.saturating_sub(stream.from);
        let missing = trace_len.abs_diff(stream.next_seq) + stream.gaps;
        self.failed += missing;
        if missing > 0 && self.failures.len() < 20 {
            self.failures.push(format!(
                "session {id}: received {} entries with {} gaps, trace holds {trace_len}",
                stream.next_seq, stream.gaps
            ));
        }
    }

    /// Checks a `SeekTo(t)` report: the replica stands at `t` and holds
    /// exactly the entries recorded at or before `t`.
    pub fn check_seek(&mut self, times: &[u64], t: u64, report: &SeekReport) {
        let ok = seek_ok(times, t, report);
        self.check(ok, || format!("seek to {t}: wrong report {report:?}"));
        self.note_seek(report);
    }

    /// Checks a `StepBack` report: the replica stops on an entry of the
    /// live trace and holds exactly the entries up to it.
    pub fn check_step_back(&mut self, times: &[u64], report: &SeekReport) {
        let ok = step_back_ok(times, report);
        self.check(ok, || format!("step-back: wrong report {report:?}"));
        self.note_seek(report);
    }

    fn note_seek(&mut self, report: &SeekReport) {
        self.seek_replayed.push(report.replayed_entries as f64);
        self.seek_from_zero += u64::from(report.checkpoint_seq.is_none());
    }

    /// Checks that a regenerated window equals the stored one.
    pub fn check_window(&mut self, window: &TraceSlice, fetch: &TraceSlice) {
        let ok = window == fetch && window.complete && !window.entries.is_empty();
        self.check(ok, || {
            format!(
                "window [{}..{}) differs from fetch [{}..{})",
                window.first_seq, window.end_seq, fetch.first_seq, fetch.end_seq
            )
        });
    }

    /// One seek, one regenerated window and one stored read of the same
    /// window starting at `t`, on an otherwise idle session. `times` are
    /// the session's entry times, for checking the seek.
    pub fn probe(
        &mut self,
        client: &mut WireClient,
        id: SessionId,
        times: &[u64],
        t: u64,
        req: u64,
        rec: &mut Recorder,
    ) {
        let t0 = Instant::now();
        let seek = client.seek_to(id, t, false, WAIT);
        let t1 = Instant::now();
        rec.record("client.seek_to", req, t0, t1);
        match seek {
            Ok(report) => {
                self.seek_ms.push(ms(t1 - t0));
                self.check_seek(times, t, &report);
            }
            Err(e) => self.fail(format!("seek_to {t}: {e}")),
        }
        let t0 = Instant::now();
        let window = client.replay_window(id, t, t + WINDOW_NS, WAIT);
        let t1 = Instant::now();
        rec.record("client.replay_window", req, t0, t1);
        let fetch = client.fetch_range(id, t, t + WINDOW_NS, WAIT);
        let t2 = Instant::now();
        rec.record("client.fetch_range", req, t1, t2);
        match (window, fetch) {
            (Ok(window), Ok(fetch)) => {
                self.window_ms.push(ms(t1 - t0));
                self.fetch_ms.push(ms(t2 - t1));
                self.check_window(&window, &fetch);
            }
            (w, f) => self.fail(format!("window/fetch at {t}: {:?} {:?}", w.err(), f.err())),
        }
    }
}

/// The `k`-th probe instant in `[lo, hi)`: the fractional part of
/// `offset + k·φ` (a low-discrepancy sequence) scaled onto the range.
/// Successive probes spread evenly over the history however long it is
/// when they are sent, so they sample every distance from the preceding
/// checkpoint alike and the median of a run's seeks repeats from run to
/// run; independent random targets would not.
pub fn spread(offset: f64, k: u64, lo: u64, hi: u64) -> u64 {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let f = (offset + k as f64 * PHI).fract();
    lo + (f * hi.saturating_sub(lo) as f64) as u64
}

/// One closed-loop round over `client`: grants every session in `ids`
/// `chunk_ns` more target time, calls `on_sent`, then reads the stream
/// until all of them are idle at `until_ns`. Each entry's lag counts
/// from the send. Returns the round's wall time, send to the last
/// `Idle`.
#[allow(clippy::too_many_arguments)]
pub fn round(
    client: &mut WireClient,
    stream: &mut Stream,
    ids: &[SessionId],
    (chunk_ns, until_ns): (u64, u64),
    on_sent: impl FnOnce(),
    c: &mut Collected,
    rec: &mut Recorder,
    req: u64,
) -> Result<Duration, String> {
    let sent = Instant::now();
    for &id in ids {
        let t0 = Instant::now();
        let r = client.run_for(id, chunk_ns);
        rec.record("client.run_for", req, t0, Instant::now());
        c.attempted += 1;
        if let Err(e) = r {
            c.fail(format!("run_for {id}: {e}"));
        }
    }
    on_sent();
    let waited = stream.drain_until_idle(client, ids, until_ns, rec, req, |_| sent)?;
    c.wait_ms += ms(waited);
    Ok(sent.elapsed())
}

/// [`round`] in-process: grants through `handles` and reads their
/// subscriptions `subs`, with no wire in between.
pub fn round_local(
    handles: &[SessionHandle],
    subs: &[EventReceiver],
    stream: &mut Stream,
    (chunk_ns, until_ns): (u64, u64),
    c: &mut Collected,
    rec: &mut Recorder,
    req: u64,
) -> Result<Duration, String> {
    let sent = Instant::now();
    for handle in handles {
        let t0 = Instant::now();
        let r = handle.run_for(chunk_ns);
        rec.record("server.run_for", req, t0, Instant::now());
        c.attempted += 1;
        if let Err(e) = r {
            c.fail(format!("run_for {}: {e}", handle.id()));
        }
    }
    let t0 = Instant::now();
    stream.drain_local(subs, until_ns, |_| sent)?;
    let t1 = Instant::now();
    rec.record("server.drain", req, t0, t1);
    c.wait_ms += ms(t1 - t0);
    Ok(sent.elapsed())
}

pub fn seek_ok(times: &[u64], t: u64, report: &SeekReport) -> bool {
    report.now_ns == t
        && report.target_ns == t
        && report.trace_len == times.partition_point(|&x| x <= t) as u64
}

pub fn step_back_ok(times: &[u64], report: &SeekReport) -> bool {
    let n = report.trace_len as usize;
    // Stepping back over the whole trace lands at time zero.
    let pivot_ok = match n {
        0 => report.target_ns == 0,
        _ => times.get(n - 1) == Some(&report.target_ns),
    };
    pivot_ok
        && report.now_ns == report.target_ns
        && times.partition_point(|&x| x <= report.target_ns) == n
}

/// The receiving client's view of one session's stream.
#[derive(Debug, Default)]
pub struct SessionStream {
    /// Sequence number the stream starts at.
    pub from: u64,
    /// Next sequence number expected (= entries received in order).
    pub next_seq: u64,
    /// Deltas that did not continue where the previous one ended.
    pub gaps: u64,
    /// Target time of the last `Idle` event.
    pub idle_ns: Option<u64>,
    /// The session reported an `Error` event.
    pub failed: bool,
    /// Event times in sequence order, kept for sessions whose seeks are
    /// checked.
    pub times: Option<Vec<u64>>,
    /// The entries themselves, kept for sessions whose content is
    /// checked.
    pub entries: Option<Vec<TraceEntry>>,
}

/// Receiver-side bookkeeping of a multiplexed event stream.
#[derive(Debug)]
pub struct Stream {
    pub sessions: BTreeMap<SessionId, SessionStream>,
    /// When the drive started; lags are grouped by the window (since
    /// then) their command was due in.
    start: Instant,
    pub lag_windows: Vec<Vec<u64>>,
    pub delivered: u64,
    pub errors: Vec<String>,
}

impl Stream {
    pub fn new(ids: &[SessionId], start: Instant) -> Self {
        Stream {
            sessions: ids
                .iter()
                .map(|&id| (id, SessionStream::default()))
                .collect(),
            start,
            lag_windows: Vec::new(),
            delivered: 0,
            errors: Vec::new(),
        }
    }

    /// A fresh measured stream over the sessions of `prev`: what they
    /// received so far (entries, times, gaps) carries over, the stream
    /// metrics start from zero. Returns `prev`'s errors too.
    pub fn resume(prev: Stream, start: Instant) -> (Self, Vec<String>) {
        let mut stream = Stream::new(&[], start);
        stream.sessions = prev.sessions;
        (stream, prev.errors)
    }

    /// The stream of `id` continues a trace already `seq` entries long.
    pub fn expect_from(&mut self, id: SessionId, seq: u64) {
        if let Some(s) = self.sessions.get_mut(&id) {
            s.from = seq;
            s.next_seq = seq;
        }
    }

    pub fn keep_times(&mut self, id: SessionId) {
        if let Some(s) = self.sessions.get_mut(&id) {
            s.times = Some(Vec::new());
        }
    }

    pub fn keep_entries(&mut self, id: SessionId) {
        if let Some(s) = self.sessions.get_mut(&id) {
            s.entries = Some(Vec::new());
        }
    }

    /// Books one event received at `arrival`. `due` maps an entry's
    /// target time to the wall instant the command producing it was
    /// due, so each entry's lag includes any lateness of the sender.
    pub fn on_event(&mut self, event: EngineEvent, arrival: Instant, due: impl Fn(u64) -> Instant) {
        match event {
            EngineEvent::TraceDelta { session, entries } => {
                self.delivered += entries.len() as u64;
                for e in &entries {
                    let due = due(e.event.time_ns);
                    let window = (due.saturating_duration_since(self.start).as_millis()
                        / LAG_WINDOW_MS) as usize;
                    if self.lag_windows.len() <= window {
                        self.lag_windows.resize_with(window + 1, Vec::new);
                    }
                    let lag = arrival.saturating_duration_since(due);
                    self.lag_windows[window].push(lag.as_nanos() as u64);
                }
                let Some(s) = self.sessions.get_mut(&session) else {
                    self.errors
                        .push(format!("entries from unknown session {session}"));
                    return;
                };
                if entries.first().map(|e| e.seq) != Some(s.next_seq) {
                    s.gaps += 1;
                }
                if let Some(last) = entries.last() {
                    s.next_seq = last.seq + 1;
                }
                if let Some(times) = &mut s.times {
                    times.extend(entries.iter().map(|e| e.event.time_ns));
                }
                if let Some(kept) = &mut s.entries {
                    kept.extend(entries);
                }
            }
            EngineEvent::Idle { session, now_ns } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.idle_ns = Some(now_ns);
                }
            }
            EngineEvent::Lagged { session, dropped } => {
                self.errors
                    .push(format!("session {session}: {dropped} events dropped"));
            }
            EngineEvent::Error { session, message } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.failed = true;
                }
                self.errors.push(format!("session {session}: {message}"));
            }
            EngineEvent::SliceCompleted { .. }
            | EngineEvent::Violation { .. }
            | EngineEvent::BreakpointHit { .. } => {}
        }
    }

    /// `id` reported `Idle` at `horizon_ns`, or failed: a failed session
    /// never goes idle, and its failure is counted by the caller's
    /// checks, not waited out.
    fn done(&self, id: SessionId, horizon_ns: u64) -> bool {
        self.sessions
            .get(&id)
            .is_some_and(|s| s.failed || s.idle_ns == Some(horizon_ns))
    }

    /// Reads events until every session in `ids` is [done](Self::done)
    /// at `horizon_ns`. Returns the time spent blocked in the client.
    pub fn drain_until_idle(
        &mut self,
        client: &mut WireClient,
        ids: &[SessionId],
        horizon_ns: u64,
        rec: &mut Recorder,
        req: u64,
        due: impl Fn(u64) -> Instant,
    ) -> Result<Duration, String> {
        let mut waited = Duration::ZERO;
        while !ids.iter().all(|&id| self.done(id, horizon_ns)) {
            let t0 = Instant::now();
            let event = client
                .next_event(WAIT)
                .map_err(|e| format!("event stream: {e}"))?;
            let t1 = Instant::now();
            rec.record("client.next_event", req, t0, t1);
            waited += t1 - t0;
            self.on_event(event, t1, &due);
        }
        Ok(waited)
    }

    /// [`Stream::drain_until_idle`] over in-process subscriptions, one
    /// per session.
    pub fn drain_local(
        &mut self,
        subs: &[EventReceiver],
        horizon_ns: u64,
        due: impl Fn(u64) -> Instant,
    ) -> Result<(), String> {
        let mut last = Instant::now();
        loop {
            for sub in subs {
                while let Ok(event) = sub.try_recv() {
                    last = Instant::now();
                    self.on_event(event, last, &due);
                }
            }
            let Some(sub) = subs
                .iter()
                .find(|sub| !self.done(sub.session(), horizon_ns))
            else {
                return Ok(());
            };
            match sub.recv_timeout(POLL) {
                Ok(event) => {
                    last = Instant::now();
                    self.on_event(event, last, &due);
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) if last.elapsed() < WAIT => {}
                Err(e) => return Err(format!("session {}: event stream: {e}", sub.session())),
            }
        }
    }
}

/// A running server with its TCP front. Dropping it stops the wire
/// first (joining its threads), then the server.
#[derive(Debug)]
pub struct Live {
    pub wire: WireServer,
    pub server: Arc<DebugServer>,
}

impl Live {
    pub fn start(server: DebugServer, rec: &mut Recorder, req: u64) -> Result<Self, String> {
        let server = Arc::new(server);
        let t0 = Instant::now();
        let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0")
            .map_err(|e| format!("wire bind: {e}"))?;
        rec.record("server.wire.start", req, t0, Instant::now());
        Ok(Live { wire, server })
    }

    /// Connects a client; the accept loop polls, so this is kept out of
    /// every set-up measurement and reported on its own.
    pub fn connect(&self, rec: &mut Recorder, req: u64) -> Result<(WireClient, f64), String> {
        let t0 = Instant::now();
        let client =
            WireClient::connect(self.wire.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let t1 = Instant::now();
        rec.record("client.connect", req, t0, t1);
        Ok((client, (t1 - t0).as_secs_f64() * 1e3))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdf_engine::EngineState;
    use gmdf_gdm::{EventKind, ModelEvent};

    fn entry(seq: u64, time_ns: u64) -> TraceEntry {
        TraceEntry {
            seq,
            event: ModelEvent::new(time_ns, EventKind::StateEnter, "Ring/ring"),
            reactions: vec![],
            violations: vec![],
        }
    }

    fn report(target_ns: u64, now_ns: u64, trace_len: u64) -> SeekReport {
        SeekReport {
            session: 0,
            target_ns,
            now_ns,
            checkpoint_seq: None,
            checkpoint_t_ns: None,
            replayed_commands: 0,
            replayed_entries: trace_len,
            trace_len,
            engine_state: EngineState::Waiting,
            trace_json: None,
        }
    }

    fn deliver(stream: &mut Stream, entries: Vec<TraceEntry>) {
        let now = stream.start;
        stream.on_event(
            EngineEvent::TraceDelta {
                session: 0,
                entries,
            },
            now,
            |_| now,
        );
    }

    #[test]
    fn complete_stream_passes() {
        let mut stream = Stream::new(&[0], Instant::now());
        deliver(&mut stream, (0..3).map(|i| entry(i, i * 10)).collect());
        deliver(&mut stream, (3..5).map(|i| entry(i, i * 10)).collect());
        let mut c = Collected::default();
        c.check_stream(0, &stream.sessions[&0], 5);
        assert_eq!((c.attempted, c.failed), (5, 0));
    }

    #[test]
    fn stream_missing_one_entry_fails() {
        let mut stream = Stream::new(&[0], Instant::now());
        deliver(&mut stream, (0..3).map(|i| entry(i, i * 10)).collect());
        deliver(&mut stream, (4..6).map(|i| entry(i, i * 10)).collect());
        let mut c = Collected::default();
        c.check_stream(0, &stream.sessions[&0], 6);
        assert!(c.failed > 0);
        // A stream cut short fails too.
        let mut short = Stream::new(&[0], Instant::now());
        deliver(&mut short, (0..5).map(|i| entry(i, i * 10)).collect());
        let mut c = Collected::default();
        c.check_stream(0, &short.sessions[&0], 6);
        assert_eq!(c.failed, 1);
    }

    #[test]
    fn seek_reports_are_checked() {
        let times = [10, 20, 30, 40];
        let mut c = Collected::default();
        c.check_seek(&times, 25, &report(25, 25, 2));
        assert_eq!(c.failed, 0);
        // Wrong length, wrong clock: both fail.
        c.check_seek(&times, 25, &report(25, 25, 3));
        c.check_seek(&times, 25, &report(25, 24, 2));
        assert_eq!(c.failed, 2);
        assert_eq!(c.attempted, 3);
    }

    #[test]
    fn step_back_reports_are_checked() {
        let times = [10, 20, 30, 40];
        let mut c = Collected::default();
        c.check_step_back(&times, &report(30, 30, 3));
        assert_eq!(c.failed, 0);
        // A pivot that is not an entry's time, or a wrong length, fails.
        c.check_step_back(&times, &report(31, 31, 3));
        c.check_step_back(&times, &report(30, 30, 2));
        assert_eq!(c.failed, 2);
    }
}
