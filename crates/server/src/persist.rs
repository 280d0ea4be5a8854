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
//! ```
//!
//! Restore leans entirely on determinism: the simulator, the code
//! generator and slice pumping are all bit-exact, so *spec + journal*
//! is the session. [`restore_session`] rebuilds the session from its
//! spec, reattaches the recovered trace store, and [`replay`]s the
//! journal: each mutation is re-applied at the exact target time it
//! originally took effect, with the simulator pumped up to that instant
//! in between (time-travel seeks replay through the same function). The
//! store's already-persisted prefix makes the trace drop re-generated
//! entries instead of duplicating them (deterministic catch-up, see
//! [`gmdf_engine::ExecutionTrace`]). Whatever run budget the journal
//! grants beyond the restore point is handed back to the scheduler,
//! which finishes the run as if the restart never happened.

use gmdf::{DebugSession, Mutation, SessionSpec};
use gmdf_engine::store::{encode_record, read_records, SegmentConfig, SegmentStore};
use gmdf_engine::EngineNotice;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

/// One journaled mutation: what was applied, and the target time the
/// session had reached when it was applied.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct JournalRecord {
    /// Target simulation time at application.
    pub at_ns: u64,
    /// The applied mutation.
    pub command: Mutation,
}

/// Append-only command journal for one durable session.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` for appending.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal { file })
    }

    /// Appends one record and fsyncs it — mutations are rare and each
    /// must survive a crash (including an OS crash or power loss) that
    /// happens right after it was accepted.
    pub fn append(&mut self, at_ns: u64, mutation: &Mutation) -> std::io::Result<()> {
        let record = encode_record(&JournalRecord {
            at_ns,
            command: mutation.clone(),
        })
        .map_err(|e| std::io::Error::other(e.to_string()))?;
        self.file.write_all(&record)?;
        self.file.sync_data()
    }

    /// A journal over a read-only handle of `path`, so every append
    /// fails — for testing how the server handles a journal write error.
    #[cfg(test)]
    pub fn failing(path: &Path) -> std::io::Result<Self> {
        Ok(Journal {
            file: File::open(path)?,
        })
    }
}

/// Directory of one session's persisted state.
pub(crate) fn session_dir(root: &Path, id: u64) -> PathBuf {
    root.join("sessions").join(format!("{id:016}"))
}

/// Directory of one durable session's periodic full-state checkpoints
/// (`ckpt-<seq>-<t_ns>.ck` files — see
/// [`gmdf_engine::CheckpointStore`]).
pub(crate) fn checkpoint_dir(root: &Path, id: u64) -> PathBuf {
    session_dir(root, id).join("checkpoints")
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

/// Loads and parses one session directory's `spec.json`.
pub(crate) fn load_spec(dir: &Path) -> Result<SessionSpec, String> {
    let spec_text = std::fs::read_to_string(dir.join("spec.json"))
        .map_err(|e| format!("cannot read spec.json: {e}"))?;
    serde_json::from_str(&spec_text).map_err(|e| format!("corrupt spec.json: {e}"))
}

/// Reads the valid prefix of one session directory's journal. A torn
/// tail record is ignored (not truncated — that is
/// [`restore_session`]'s job; seeks are read-only observers).
pub(crate) fn read_journal(dir: &Path) -> Result<Vec<JournalRecord>, String> {
    let path = dir.join("journal.log");
    if !path.exists() {
        return Ok(Vec::new());
    }
    let (records, _valid_len) =
        read_records::<JournalRecord>(&path).map_err(|e| format!("cannot read journal: {e}"))?;
    Ok(records)
}

/// Creates a fresh durable-session directory: writes the spec
/// (atomically) and returns the opened journal and trace store.
pub(crate) fn create_session_dir(
    root: &Path,
    id: u64,
    spec: &SessionSpec,
    store_config: SegmentConfig,
) -> Result<(Journal, SegmentStore), String> {
    let dir = session_dir(root, id);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let spec_json = serde_json::to_string_pretty(spec).expect("spec serializes");
    // Write-fsync-rename: without the fsync the rename can land before
    // the data on power loss, leaving an empty spec that would
    // quarantine the session forever even though its journal survived.
    let tmp = dir.join("spec.json.tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| e.to_string())?;
        f.write_all(spec_json.as_bytes())
            .map_err(|e| e.to_string())?;
        f.sync_data().map_err(|e| e.to_string())?;
    }
    std::fs::rename(&tmp, dir.join("spec.json")).map_err(|e| e.to_string())?;
    let journal = Journal::open(&dir.join("journal.log")).map_err(|e| e.to_string())?;
    let store =
        SegmentStore::open_with(dir.join("trace"), store_config).map_err(|e| e.to_string())?;
    Ok((journal, store))
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

/// What one [`replay`] re-applied.
#[derive(Debug, Default)]
pub(crate) struct Replayed {
    /// Journal records applied.
    pub records: u64,
    /// Run budget those records granted, in total.
    pub budget_ns: u64,
    /// Model events fed by the pumps between records.
    pub events_fed: u64,
}

/// Deterministic replay, shared by restart and seek: pumps `session` to
/// each record's application instant and applies its mutation there,
/// stopping before the first record stamped after `until_ns` (restart
/// replays the whole journal; a seek stops at its target). Run budget
/// is only tallied, never spent — the caller decides how far to run.
///
/// # Errors
///
/// Returns a message when a pump or a mutation fails (it cannot for a
/// journal written by this code, barring on-disk tampering).
pub(crate) fn replay(
    session: &mut DebugSession,
    records: &[JournalRecord],
    until_ns: u64,
) -> Result<Replayed, String> {
    let mut replayed = Replayed::default();
    for record in records {
        if record.at_ns > until_ns {
            break;
        }
        let now = session.now_ns();
        if record.at_ns > now {
            let report = session
                .run_for(record.at_ns - now)
                .map_err(|e| format!("replay pump failed: {e}"))?;
            replayed.events_fed += report.events_fed as u64;
        }
        let granted_ns = session
            .apply(&record.command)
            .map_err(|e| format!("replaying {:?} failed: {e}", record.command))?;
        replayed.budget_ns = replayed.budget_ns.saturating_add(granted_ns);
        replayed.records += 1;
    }
    Ok(replayed)
}

/// A session rebuilt from its persisted state, ready to hand to the
/// scheduler.
#[derive(Debug)]
pub(crate) struct RestoredSession {
    pub session: DebugSession,
    pub notices: mpsc::Receiver<EngineNotice>,
    pub journal: Journal,
    /// Run budget granted by the journal but not yet consumed — the
    /// scheduler finishes it.
    pub remaining_ns: u64,
    /// Counters reconstructed from the replayed history, so snapshots
    /// after a restart report the same totals as an uninterrupted run.
    pub events_fed: u64,
    pub violations: u64,
    pub breakpoint_hits: u64,
    /// Where delta publication resumes (everything before is history,
    /// served via `FetchRange`/`ReplayFrom`).
    pub trace_cursor: u64,
    /// Records in the (torn-tail-truncated) journal — the position new
    /// checkpoints record as their [`ServerCheckpoint::journal_pos`].
    pub journal_len: u64,
}

/// Rebuilds one durable session from `<root>/sessions/<id>` (see the
/// module docs for the replay semantics).
///
/// # Errors
///
/// Returns a message when the spec is unreadable or the deterministic
/// replay fails (it cannot for state persisted by this code, barring
/// on-disk tampering).
pub(crate) fn restore_session(
    root: &Path,
    id: u64,
    store_config: SegmentConfig,
) -> Result<RestoredSession, String> {
    let dir = session_dir(root, id);
    let spec = load_spec(&dir).map_err(|e| format!("session {id}: {e}"))?;
    let mut session = spec
        .build()
        .map_err(|e| format!("session {id}: rebuild failed: {e}"))?;
    let notices = session.engine_mut().subscribe();

    // Reattach the recovered trace. Its surviving prefix arms the
    // deterministic catch-up: re-generated entries below the recovered
    // length are dropped, not duplicated. The store's own meta.json
    // codec wins over the configured one, so a fleet reconfigured to a
    // new codec still reopens old session directories correctly.
    let store = SegmentStore::open_with(dir.join("trace"), store_config)
        .map_err(|e| format!("session {id}: trace recovery failed: {e}"))?;
    session.set_trace_store(Box::new(store));

    // Recover the journal, truncating any torn tail record (a command
    // cut mid-append was never acknowledged; dropping it is correct).
    let journal_path = dir.join("journal.log");
    let mut records: Vec<JournalRecord> = Vec::new();
    if journal_path.exists() {
        let (recovered, valid_len) = read_records::<JournalRecord>(&journal_path)
            .map_err(|e| format!("session {id}: cannot read journal: {e}"))?;
        let file_len = std::fs::metadata(&journal_path)
            .map_err(|e| e.to_string())?
            .len();
        if valid_len < file_len {
            let f = OpenOptions::new()
                .write(true)
                .open(&journal_path)
                .map_err(|e| e.to_string())?;
            f.set_len(valid_len).map_err(|e| e.to_string())?;
        }
        records = recovered;
    }

    let replayed =
        replay(&mut session, &records, u64::MAX).map_err(|e| format!("session {id}: {e}"))?;
    let remaining_ns = replayed.budget_ns.saturating_sub(session.now_ns());

    // Reconstruct the counters from the replayed prefix; the scheduler
    // continues them over the remaining budget.
    let mut violations: u64 = 0;
    let mut breakpoint_hits: u64 = 0;
    while let Ok(notice) = notices.try_recv() {
        violations += notice.violations as u64;
        if notice.hit_breakpoint {
            breakpoint_hits += 1;
        }
    }
    let trace_cursor = session.engine().trace().len() as u64;
    let journal = Journal::open(&journal_path).map_err(|e| e.to_string())?;
    Ok(RestoredSession {
        session,
        notices,
        journal,
        remaining_ns,
        events_fed: replayed.events_fed,
        violations,
        breakpoint_hits,
        trace_cursor,
        journal_len: replayed.records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// length-prefixed literals, and `read_journal` reads them back.
    #[test]
    fn journal_records_match_the_golden_bytes() {
        let dir = std::env::temp_dir().join(format!("gmdf-journal-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        let read_back: Vec<String> = read_journal(&dir)
            .expect("read journal")
            .iter()
            .map(|record| serde_json::to_string(record).expect("serializes"))
            .collect();
        assert_eq!(read_back, GOLDEN_RECORDS);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
