//! Durable sessions: the on-disk session registry and command journal.
//!
//! A persistent [`DebugServer`](crate::DebugServer) keeps, for every
//! durable session, everything needed to recreate it after a process
//! restart:
//!
//! ```text
//! <root>/sessions/<id>/
//!   spec.json      the SessionSpec (system, GDM, channel, options)
//!   journal.log    length-prefixed records of every applied
//!                  mutation, stamped with the target time at which
//!                  it was applied
//!   trace/         the session's segmented trace store
//!     meta.json
//!     seg-*.log    hot segments (JSON or binary records, per meta)
//!     seg-*.lgz    cold segments, compressed by the retention sweep
//!   checkpoints/   periodic full-state images (ckpt-<seq>-<t_ns>.ck),
//!                  each with the journal position it was taken at
//! ```
//!
//! Restore leans entirely on determinism: the simulator, the code
//! generator and slice pumping are all bit-exact, so *spec + journal*
//! is the session, and a checkpoint image under `checkpoints/` is a
//! shortcut into it. In memory, a hosted durable session holds all of
//! this as one [`Durable`] value: the spec, the [`Journal`] with its
//! records, and the checkpoint store. `spec.json` and `journal.log` are
//! read once, when [`restore_session`] recreates the session; after
//! that the journal is only appended to.
//!
//! Restart and time-travel seeks rebuild a session the same way:
//! [`newest_image`] picks the newest usable checkpoint (each caller
//! says which images it can use), and [`rebuild`] restores it, attaches
//! a trace store at the image's trace position, and [`replay`]s the
//! journal after the image's position — each mutation re-applied at the
//! exact target time it originally took effect, with the simulator
//! pumped up to that instant in between. With no usable image the same
//! code replays from time zero. A seek takes the spec and the records
//! from the [`Durable`] value; the only file it reads is the image.
//!
//! [`restore_session`] restarts from the newest image the recovered
//! trace store covers, so a restart costs one checkpoint interval of
//! replay, not the session's age. Entries the store already holds are
//! dropped instead of duplicated while the replay re-derives them
//! (deterministic catch-up, see [`gmdf_engine::ExecutionTrace`]).
//! Whatever run budget the journal grants beyond the restore point is
//! handed back to the scheduler, which finishes the run as if the
//! restart never happened. Publication resumes at the restored trace
//! length, so breakpoint hits the replay and the catch-up re-derive
//! are history and are not announced again.

use crate::metrics::MetricsRegistry;
use crate::PersistConfig;
use gmdf::{DebugSession, Mutation, SessionSpec};
use gmdf_engine::store::{encode_record, read_records, write_atomic, SegmentStore};
use gmdf_engine::{CheckpointMeta, CheckpointStore, TraceStore};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One journaled mutation: what was applied, and the target time the
/// session had reached when it was applied.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct JournalRecord {
    /// Target simulation time at application.
    pub at_ns: u64,
    /// The applied mutation.
    pub command: Mutation,
}

/// The append-only command journal of one durable session, and the
/// records it holds. It owns the file format (`[u32 len BE][JSON
/// record]` frames, see [`encode_record`]) and its crash recovery: a
/// record cut mid-append was never acknowledged, so
/// [`Journal::open`] drops it. [`Journal::records`] is the replayable
/// history that restart and seeks rebuild from.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
    records: Vec<JournalRecord>,
    /// Test hook: the next append writes only this many bytes of its
    /// record and then fails, as a full disk would.
    #[cfg(test)]
    tear_next: Option<usize>,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` for appending.
    /// Reads its whole, decodable records and truncates the file after
    /// them, so a torn tail record is gone before anything is appended
    /// behind it.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be opened, read or
    /// truncated.
    pub fn open(path: &Path) -> Result<Self, String> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal: {e}"))?;
        let (records, valid_len) =
            read_records::<JournalRecord>(path).map_err(|e| format!("cannot read journal: {e}"))?;
        let file_len = file.metadata().map_err(|e| e.to_string())?.len();
        if valid_len < file_len {
            file.set_len(valid_len).map_err(|e| e.to_string())?;
        }
        Ok(Journal {
            file,
            records,
            #[cfg(test)]
            tear_next: None,
        })
    }

    /// The valid records, oldest first: those read at open plus every
    /// successful append since.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Appends one record and fsyncs it — mutations are rare and each
    /// must survive a crash (including an OS crash or power loss) that
    /// happens right after it was accepted. The record joins
    /// [`Journal::records`] only once it is on disk.
    pub fn append(&mut self, at_ns: u64, mutation: &Mutation) -> std::io::Result<()> {
        let record = JournalRecord {
            at_ns,
            command: mutation.clone(),
        };
        let bytes = encode_record(&record).map_err(|e| std::io::Error::other(e.to_string()))?;
        #[cfg(test)]
        if let Some(keep) = self.tear_next.take() {
            self.file.write_all(&bytes[..keep.min(bytes.len())])?;
            return Err(std::io::Error::other("no space left on device (injected)"));
        }
        self.file.write_all(&bytes)?;
        self.file.sync_data()?;
        self.records.push(record);
        Ok(())
    }

    /// The journal at `path` over a read-only handle, so every append
    /// fails — for testing how the server handles a journal write error.
    #[cfg(test)]
    pub fn failing(path: &Path) -> std::io::Result<Self> {
        let journal = Journal::open(path).map_err(std::io::Error::other)?;
        Ok(Journal {
            file: File::open(path)?,
            ..journal
        })
    }

    /// Makes the next append write only `keep` bytes of its record and
    /// fail; later appends succeed (a full disk that gets space back).
    #[cfg(test)]
    pub fn tear_next_append(&mut self, keep: usize) {
        self.tear_next = Some(keep);
    }
}

/// Everything durable about one hosted session, held in memory: the
/// spec it was built from, its journal and journaled records, and its
/// checkpoint images. A hosted session is durable exactly when it owns
/// one; restart builds it from the session directory and seeks rebuild
/// from it.
#[derive(Debug)]
pub(crate) struct Durable {
    /// The spec the session (and every replica of it) is built from.
    pub spec: SessionSpec,
    /// The command journal; its length is the position a checkpoint
    /// records as its [`ServerCheckpoint::journal_pos`].
    pub journal: Journal,
    /// The session's checkpoint images; `None` when the directory could
    /// not be opened at restore, which leaves the session
    /// checkpoint-less (restored, and seeking, from time zero). Its
    /// newest image marks where the next checkpoint interval starts.
    pub checkpoints: Option<CheckpointStore>,
    /// Trace entries between checkpoints; `0` disables checkpointing.
    pub checkpoint_interval: u64,
}

/// Directory of one session's persisted state.
pub(crate) fn session_dir(root: &Path, id: u64) -> PathBuf {
    root.join("sessions").join(format!("{id:016}"))
}

/// The payload of one on-disk checkpoint: the session's full serialized
/// state plus the journal position it corresponds to. A seek restores
/// the state and re-applies only `journal[journal_pos..]` — the target
/// time alone cannot disambiguate several commands journaled at the
/// same instant, so the position is persisted alongside the state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ServerCheckpoint {
    /// Journal records already applied when the checkpoint was taken.
    pub journal_pos: u64,
    /// The session's full state (simulator, engine, channels).
    pub session: gmdf::SessionCheckpoint,
}

/// Creates a fresh durable-session directory: opens the journal, the
/// trace store and the checkpoint store, then writes the spec
/// atomically. Returns the session's durable record and its (empty)
/// trace store.
///
/// `spec.json` goes last because it is what makes [`persisted_ids`]
/// list the directory, and a failed step removes the directory: a
/// session whose creation failed never comes back at a restart.
pub(crate) fn create_session(
    config: &PersistConfig,
    id: u64,
    spec: &SessionSpec,
) -> Result<(Durable, SegmentStore), String> {
    let dir = session_dir(&config.root, id);
    let created = (|| -> Result<(Durable, SegmentStore), String> {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let journal = Journal::open(&dir.join("journal.log"))?;
        let store = SegmentStore::open_with(dir.join("trace"), config.segment_config())
            .map_err(|e| e.to_string())?;
        let checkpoints = CheckpointStore::open(dir.join("checkpoints"))
            .map_err(|e| format!("cannot open checkpoint store: {e}"))?;
        // Atomic: a spec torn by a power loss would quarantine the
        // session forever even though its journal survived.
        let spec_json = serde_json::to_string_pretty(spec).expect("spec serializes");
        write_atomic(&dir.join("spec.json"), spec_json.as_bytes()).map_err(|e| e.to_string())?;
        let durable = Durable {
            spec: spec.clone(),
            journal,
            checkpoints: Some(checkpoints),
            checkpoint_interval: config.checkpoint_interval,
        };
        Ok((durable, store))
    })();
    if created.is_err() {
        // Best effort: without spec.json a leftover is ignored anyway.
        let _ = std::fs::remove_dir_all(&dir);
    }
    created
}

/// Session ids persisted under `root`, in ascending order.
pub(crate) fn persisted_ids(root: &Path) -> Vec<u64> {
    let mut ids = Vec::new();
    let sessions = root.join("sessions");
    let Ok(dir) = std::fs::read_dir(&sessions) else {
        return ids;
    };
    for entry in dir.flatten() {
        if let Ok(id) = entry.file_name().to_string_lossy().parse::<u64>() {
            if entry.path().join("spec.json").exists() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    ids
}

/// Deterministic replay, shared by restart and seek: pumps `session` to
/// each record's application instant and applies its mutation there,
/// stopping before the first record stamped after `until_ns` (restart
/// replays the whole journal; a seek stops at its target). Run budget
/// is never spent here — the caller decides how far to run. Returns
/// the number of records applied.
///
/// # Errors
///
/// Returns a message when a pump or a mutation fails (it cannot for a
/// journal written by this code, barring on-disk tampering).
pub(crate) fn replay(
    session: &mut DebugSession,
    records: &[JournalRecord],
    until_ns: u64,
) -> Result<u64, String> {
    let mut applied = 0;
    for record in records {
        if record.at_ns > until_ns {
            break;
        }
        let now = session.now_ns();
        if record.at_ns > now {
            session
                .run_for(record.at_ns - now)
                .map_err(|e| format!("replay pump failed: {e}"))?;
        }
        session
            .apply(&record.command)
            .map_err(|e| format!("replaying {:?} failed: {e}", record.command))?;
        applied += 1;
    }
    Ok(applied)
}

/// The newest checkpoint image in `store` that both restart and seek
/// can restore from: its meta satisfies the caller's `accept`, it loads
/// and parses, and its journal position lies within the `journal_len`
/// valid journal records. An image that fails any of these is skipped
/// for the next older one — a damaged file, or one taken after journal
/// records that did not survive (replaying from it would silently miss
/// their commands). `None` means replay from time zero: strictly
/// slower, never wrong. A hit counts one checkpoint restore, timed
/// over its load and parse.
pub(crate) fn newest_image(
    store: &CheckpointStore,
    journal_len: usize,
    registry: &MetricsRegistry,
    accept: impl Fn(&CheckpointMeta) -> bool,
) -> Option<(CheckpointMeta, ServerCheckpoint)> {
    for meta in store.metas().iter().rev().filter(|m| accept(m)) {
        let t0 = registry.enabled().then(Instant::now);
        let Ok(payload) = store.load(meta) else {
            continue;
        };
        let Ok(text) = String::from_utf8(payload) else {
            continue;
        };
        let Ok(image) = serde_json::from_str::<ServerCheckpoint>(&text) else {
            continue;
        };
        if image.journal_pos > journal_len as u64 {
            continue;
        }
        if let Some(t0) = t0 {
            registry.checkpoint_restores.inc();
            registry
                .checkpoint_restore_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        return Some((*meta, image));
    }
    None
}

/// Rebuilds a session from `spec`: restores `image` (or starts at time
/// zero without one), attaches `store` with the image's trace length as
/// the next sequence number, and [`replay`]s the records after the
/// image's journal position up to `until_ns`. Returns the session and
/// the number of records replayed.
///
/// # Errors
///
/// Returns a message when the spec does not build, the image does not
/// fit the spec, or the replay fails.
pub(crate) fn rebuild(
    spec: &SessionSpec,
    image: Option<&ServerCheckpoint>,
    store: Box<dyn TraceStore>,
    records: &[JournalRecord],
    until_ns: u64,
) -> Result<(DebugSession, u64), String> {
    let mut session = spec.build().map_err(|e| format!("rebuild failed: {e}"))?;
    let (next_seq, journal_pos) = match image {
        Some(image) => {
            session
                .restore_state(&image.session)
                .map_err(|e| format!("checkpoint restore failed: {e}"))?;
            (image.session.trace_len(), image.journal_pos)
        }
        None => (0, 0),
    };
    session.engine_mut().set_trace_store_at(store, next_seq);
    let suffix = records.get(journal_pos as usize..).ok_or_else(|| {
        format!(
            "checkpoint journal position {journal_pos} is past the journal's {} records",
            records.len()
        )
    })?;
    let replayed = replay(&mut session, suffix, until_ns)?;
    Ok((session, replayed))
}

/// A session rebuilt from its persisted state, ready to hand to the
/// scheduler. Its engine may hold breakpoint hits from the replay, and
/// records more while the pump re-derives the rest of the stored
/// trace; all of them sit below `trace_cursor`, so none is announced.
#[derive(Debug)]
pub(crate) struct RestoredSession {
    pub session: DebugSession,
    pub durable: Durable,
    /// Run budget granted by the whole journal but not yet consumed —
    /// the scheduler finishes it. The records before the restored
    /// image's position are not replayed, but their budget counts.
    pub remaining_ns: u64,
    /// Where delta publication resumes: the trace length once the
    /// journal is replayed, at least the recovered store's. Everything
    /// before it, breakpoint hits included, is history, served via
    /// `FetchRange`/`ReplayFrom`.
    pub trace_cursor: u64,
}

/// Rebuilds one durable session from `<root>/sessions/<id>`: from the
/// newest checkpoint image the recovered trace store covers, else from
/// time zero (see the module docs for the replay semantics).
///
/// Only images at or below the recovered store's length qualify. Trace
/// segments are not fsynced but images are, so after a power loss the
/// newest image can be ahead of the store; restoring it would leave the
/// entries in between unwritten.
///
/// # Errors
///
/// Returns a message when the spec, trace store or journal is
/// unreadable, or the deterministic replay fails (it cannot for state
/// persisted by this code, barring on-disk tampering).
pub(crate) fn restore_session(
    config: &PersistConfig,
    id: u64,
    registry: &MetricsRegistry,
) -> Result<RestoredSession, String> {
    let dir = session_dir(&config.root, id);
    let spec: SessionSpec = std::fs::read_to_string(dir.join("spec.json"))
        .map_err(|e| format!("session {id}: cannot read spec.json: {e}"))
        .and_then(|text| {
            serde_json::from_str(&text).map_err(|e| format!("session {id}: corrupt spec.json: {e}"))
        })?;

    // The store's own meta.json codec wins over the binary default, so
    // a session directory written in the JSON codec still reopens.
    let store = SegmentStore::open_with(dir.join("trace"), config.segment_config())
        .map_err(|e| format!("session {id}: trace recovery failed: {e}"))?;
    let journal =
        Journal::open(&dir.join("journal.log")).map_err(|e| format!("session {id}: {e}"))?;

    // A checkpoint store that fails to open degrades the session to
    // checkpoint-less rather than quarantining it — checkpoints are
    // derived state, the journal is the truth.
    let checkpoints = CheckpointStore::open(dir.join("checkpoints")).ok();
    let stored = store.len();
    let records = journal.records();
    let image = checkpoints
        .as_ref()
        .and_then(|cs| newest_image(cs, records.len(), registry, |m| m.seq <= stored))
        .map(|(_, image)| image);
    let (mut session, _) = rebuild(&spec, image.as_ref(), Box::new(store), records, u64::MAX)
        .map_err(|e| format!("session {id}: {e}"))?;
    // Segments still referenced by the oldest retained checkpoint must
    // outlive retention eviction: a seek replays forward from that
    // checkpoint and pages its window out of the persisted prefix.
    if let Some(oldest) = checkpoints.as_ref().and_then(CheckpointStore::oldest_seq) {
        session.engine_mut().set_trace_retain_floor(oldest);
    }

    let granted_ns = records
        .iter()
        .filter_map(|r| match r.command {
            Mutation::RunFor { duration_ns } => Some(duration_ns),
            _ => None,
        })
        .fold(0u64, u64::saturating_add);
    Ok(RestoredSession {
        remaining_ns: granted_ns.saturating_sub(session.now_ns()),
        trace_cursor: session.engine().trace().len() as u64,
        session,
        durable: Durable {
            spec,
            journal,
            checkpoints,
            checkpoint_interval: config.checkpoint_interval,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_systems::{blinker_system, spec_of, tmp_root};

    /// The literal JSON of one journal record per journaled command.
    /// Journals already on disk hold exactly these bytes, so a change
    /// here strands every durable session written before it.
    const GOLDEN_RECORDS: [&str; 6] = [
        r#"{"at_ns":0,"command":{"ScheduleSignal":{"time_ns":500000,"label":"lamp","value":{"Bool":true}}}}"#,
        r#"{"at_ns":1000,"command":{"AddBreakpoint":{"matcher":{"kind":"StateEnter","path_prefix":null},"one_shot":false}}}"#,
        r#"{"at_ns":2000,"command":"ClearBreakpoints"}"#,
        r#"{"at_ns":3000,"command":"Step"}"#,
        r#"{"at_ns":4000,"command":"Resume"}"#,
        r#"{"at_ns":5000,"command":{"RunFor":{"duration_ns":7}}}"#,
    ];

    /// Golden bytes, both directions: each literal decodes and
    /// re-encodes to itself, `Journal::append` writes exactly the
    /// length-prefixed literals, and `Journal::open` reads them back.
    #[test]
    fn journal_records_match_the_golden_bytes() {
        let dir = tmp_root("journal-golden");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let mut journal = Journal::open(&dir.join("journal.log")).expect("open journal");
        let mut expected = Vec::new();
        for golden in GOLDEN_RECORDS {
            let record: JournalRecord =
                serde_json::from_str(golden).expect("golden record decodes");
            assert_eq!(serde_json::to_string(&record).expect("serializes"), golden);
            journal
                .append(record.at_ns, &record.command)
                .expect("append");
            expected.extend_from_slice(&(golden.len() as u32).to_be_bytes());
            expected.extend_from_slice(golden.as_bytes());
        }
        let on_disk = std::fs::read(dir.join("journal.log")).expect("read journal file");
        assert_eq!(on_disk, expected);
        let read_back: Vec<String> = Journal::open(&dir.join("journal.log"))
            .expect("read journal")
            .records()
            .iter()
            .map(|record| serde_json::to_string(record).expect("serializes"))
            .collect();
        assert_eq!(read_back, GOLDEN_RECORDS);
    }

    /// An image whose journal position lies past the valid journal (a
    /// `journal.log` cut at a record boundary lost the commands it
    /// covers) is skipped like a damaged one: the picker returns the
    /// next older image, and counts only that restore.
    #[test]
    fn picker_skips_an_image_past_the_journal_end() {
        let mut session = spec_of(blinker_system("picker", 0.0005, 500_000))
            .build()
            .expect("builds");
        let dir = tmp_root("picker");
        let mut store = CheckpointStore::open(&dir).expect("open checkpoint store");
        let records = 2usize;
        for journal_pos in [1, records as u64 + 1] {
            session.run_for(2_000_000).expect("runs");
            let image = ServerCheckpoint {
                journal_pos,
                session: session.save_state(),
            };
            let payload = serde_json::to_string(&image).expect("serializes");
            store
                .save(
                    image.session.trace_len(),
                    image.session.t_ns(),
                    payload.as_bytes(),
                )
                .expect("save");
        }

        let registry = MetricsRegistry::new(1);
        let (meta, image) =
            newest_image(&store, records, &registry, |_| true).expect("the older image");
        assert_eq!(meta, store.metas()[0]);
        assert_eq!(image.journal_pos, 1);
        assert_eq!(registry.checkpoint_restores.get(), 1);
        // One more surviving record and the newest image serves again.
        let (meta, _) =
            newest_image(&store, records + 1, &registry, |_| true).expect("the newest image");
        assert_eq!(Some(meta), store.latest());
    }
}
