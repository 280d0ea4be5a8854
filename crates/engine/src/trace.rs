//! Execution trace recording.
//!
//! "GDM animation will trace model-level behavior and always make a record
//! of the execution trace" (paper §II). Every processed command is
//! appended to an [`ExecutionTrace`] together with the reactions it
//! triggered and any expectation violations it raised; the trace feeds
//! the replay function and the timing diagram.
//!
//! Where the record lives is pluggable: an [`ExecutionTrace`] fronts any
//! [`TraceStore`] — the in-memory [`MemStore`](crate::store::MemStore)
//! by default, or the segmented on-disk
//! [`SegmentStore`](crate::store::SegmentStore) for traces that must
//! outlive the process and stop costing O(whole run) memory. Reads go
//! through sequence/time indexes (`entries_since`, `window`), so callers
//! page the history instead of holding all of it.

use crate::metrics::StoreMetrics;
use crate::store::{MaintenanceReport, MemStore, StoreError, StoreStats, TraceStore};
use gmdf_gdm::{ModelEvent, ReactionSpec};
use serde::{content_get, Content, DeError, Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// One recorded command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Monotonic sequence number.
    pub seq: u64,
    /// The command.
    pub event: ModelEvent,
    /// Reactions the engine applied.
    pub reactions: Vec<ReactionSpec>,
    /// Expectation violations raised by this command.
    pub violations: Vec<String>,
}

/// How many entries a paged read ([`ExecutionTrace::window`],
/// [`ExecutionTrace::for_each`], the [`crate::Replayer`]) fetches per
/// store round-trip.
pub(crate) const PAGE: u64 = 256;

/// The recorded execution trace, fronting a pluggable [`TraceStore`].
///
/// # Deterministic catch-up
///
/// A trace attached to a non-empty store (a restored session) is in
/// *catch-up* mode: the owner re-executes the run deterministically
/// from the start, and every recorded command whose sequence number is
/// already stored is dropped instead of re-appended — the store holds
/// the identical entry. Once the re-execution passes the stored prefix,
/// appends resume normally. This is what lets a restarted debug server
/// resume a session mid-run against its persisted trace.
#[derive(Debug)]
pub struct ExecutionTrace {
    store: Box<dyn TraceStore>,
    /// Sequence number the next recorded command gets. Below the store
    /// length during deterministic catch-up.
    next_seq: u64,
    /// First storage failure, sticky. Appends after it are dropped; the
    /// owner checks [`ExecutionTrace::error`] (the debug server fails
    /// the session).
    error: Option<String>,
    /// Store I/O metrics sink, when the embedder turned observability
    /// on. `None` costs nothing on the hot paths.
    metrics: Option<Arc<StoreMetrics>>,
}

impl Default for ExecutionTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for ExecutionTrace {
    /// Cloning materializes the entries into an in-memory store — a
    /// snapshot copy, detached from any disk backend.
    fn clone(&self) -> Self {
        ExecutionTrace {
            store: Box::new(MemStore::from_entries(self.entries())),
            next_seq: self.next_seq,
            error: self.error.clone(),
            metrics: None,
        }
    }
}

impl PartialEq for ExecutionTrace {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.entries() == other.entries()
    }
}

// The serialized form is exactly the old derive format —
// `{"entries": [...]}` — so traces saved before the store refactor
// still load, and `to_json` stays byte-identical across backends.
impl Serialize for ExecutionTrace {
    fn to_content(&self) -> Content {
        Content::Map(vec![(
            Content::Str("entries".to_owned()),
            Content::Seq(self.entries().iter().map(Serialize::to_content).collect()),
        )])
    }
}

impl Deserialize for ExecutionTrace {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let fields = c
            .as_map()
            .ok_or_else(|| DeError::custom("expected map for ExecutionTrace"))?;
        let entries: Vec<TraceEntry> = Deserialize::from_content(
            content_get(fields, "entries").ok_or_else(|| DeError::missing("entries"))?,
        )?;
        let next_seq = entries.len() as u64;
        Ok(ExecutionTrace {
            store: Box::new(MemStore::from_entries(entries)),
            next_seq,
            error: None,
            metrics: None,
        })
    }
}

impl ExecutionTrace {
    /// Creates an empty in-memory trace.
    pub fn new() -> Self {
        ExecutionTrace {
            store: Box::new(MemStore::default()),
            next_seq: 0,
            error: None,
            metrics: None,
        }
    }

    /// Creates a trace over `store`. A non-empty store puts the trace
    /// in deterministic catch-up mode (see the type docs).
    pub fn with_store(store: Box<dyn TraceStore>) -> Self {
        let mut trace = Self::new();
        trace.attach(store, 0);
        trace
    }

    /// Attaches `store` as the backend, in place: the next recorded
    /// command gets sequence number `next_seq`. Commands re-recorded
    /// below `store.len()` are dropped as deterministic catch-up (see
    /// the type docs), so only `[next_seq, store.len())` is re-derived
    /// before appends resume:
    ///
    /// * `0` re-derives the whole stored run (a restart from time
    ///   zero);
    /// * a restored checkpoint's trace position re-derives only the
    ///   rest;
    /// * `store.len()` re-derives nothing and appends right away (a
    ///   time-travel replica whose store holds the prefix).
    ///
    /// The metrics sink stays attached, and the sticky error of the
    /// previous backend is cleared. Entries recorded into the previous
    /// backend are not migrated. `next_seq` must not exceed
    /// `store.len()`: the trace would skip the sequence numbers in
    /// between.
    pub fn attach(&mut self, store: Box<dyn TraceStore>, next_seq: u64) {
        debug_assert!(
            next_seq <= store.len(),
            "next seq {next_seq} past the store's {} entries",
            store.len()
        );
        self.store = store;
        self.next_seq = next_seq;
        self.error = None;
    }

    /// Attaches a metrics sink: store appends and range reads are timed
    /// into it from now on. Pass the same `Arc` to every trace whose
    /// I/O should aggregate into one fleet-wide read-out.
    pub fn set_metrics(&mut self, metrics: Option<Arc<StoreMetrics>>) {
        self.metrics = metrics;
    }

    /// Storage footprint of the backing store (segment count, on-disk
    /// bytes) — zeros for memory-resident backends.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Sequence number of the oldest entry still readable — `0` unless
    /// the backing store evicted old segments under a retention budget.
    /// Count-based iteration (replay, `for_each`) starts here, never
    /// at 0 blindly.
    pub fn first_retained_seq(&self) -> u64 {
        self.store.first_retained_seq()
    }

    /// Runs one bounded unit of store maintenance (segment compression
    /// / retention eviction) — see [`TraceStore::maintain`]. Timed into
    /// the metrics sink like every other store I/O when one is
    /// attached.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn maintain(&mut self) -> Result<MaintenanceReport, StoreError> {
        if let Some(m) = &self.metrics {
            let t0 = Instant::now();
            let report = self.store.maintain();
            m.maintain_ns.record(t0.elapsed().as_nanos() as u64);
            if let Ok(r) = &report {
                m.compactions.add(r.compacted_segments);
                m.evicted_segments.add(r.dropped_segments);
                m.reclaimed_bytes.add(r.reclaimed_bytes);
            }
            report
        } else {
            self.store.maintain()
        }
    }

    /// Appends an entry, assigning its sequence number. During
    /// deterministic catch-up the entry is already stored and is
    /// dropped instead of duplicated.
    pub fn record(
        &mut self,
        event: ModelEvent,
        reactions: Vec<ReactionSpec>,
        violations: Vec<String>,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if seq < self.store.len() {
            return seq; // catch-up: identical entry already persisted
        }
        if self.error.is_none() {
            let entry = TraceEntry {
                seq,
                event,
                reactions,
                violations,
            };
            let result = if let Some(m) = &self.metrics {
                let t0 = Instant::now();
                let result = self.store.append(entry);
                m.append_ns.record(t0.elapsed().as_nanos() as u64);
                m.appends.inc();
                result
            } else {
                self.store.append(entry)
            };
            if let Err(e) = result {
                self.error = Some(e.to_string());
            }
        }
        seq
    }

    /// All entries, in sequence order, materialized into a `Vec`.
    ///
    /// This reads the *whole* trace — O(len) time and memory on any
    /// backend. Prefer [`ExecutionTrace::entries_since`],
    /// [`ExecutionTrace::window`] or [`ExecutionTrace::for_each`] on
    /// traces that can be long. A store read failure truncates the
    /// result (this serves infallible surfaces — `Clone`, `PartialEq`);
    /// callers that must not confuse a failing disk with a short trace
    /// use [`ExecutionTrace::try_entries`].
    pub fn entries(&self) -> Vec<TraceEntry> {
        let mut out = Vec::with_capacity(self.len());
        let _ = self.store.read_into(0, u64::MAX, &mut out);
        out
    }

    /// Like [`ExecutionTrace::entries`], but a store read failure is an
    /// error instead of a silently truncated record.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn try_entries(&self) -> Result<Vec<TraceEntry>, StoreError> {
        let mut out = Vec::with_capacity(self.len());
        self.store.read_into(0, u64::MAX, &mut out)?;
        Ok(out)
    }

    /// The full entry slice without copying, when the backend is
    /// memory-resident.
    pub fn as_slice(&self) -> Option<&[TraceEntry]> {
        self.store.as_slice()
    }

    /// The entry with sequence number `seq`.
    pub fn get(&self, seq: u64) -> Option<TraceEntry> {
        let mut out = Vec::with_capacity(1);
        self.store.read_into(seq, seq + 1, &mut out).ok()?;
        out.pop()
    }

    /// Entries recorded at or after sequence number `seq` — the
    /// incremental delta a subscriber that has already seen `[0, seq)`
    /// still has to consume. Sequence numbers are dense, so `seq` is
    /// also the index of the first returned entry.
    pub fn entries_since(&self, seq: u64) -> Vec<TraceEntry> {
        let mut out = Vec::new();
        let _ = self.store.read_into(seq, u64::MAX, &mut out);
        out
    }

    /// Appends the entries with sequence numbers in `[from, to)`
    /// (clamped) onto `out` — the paged read underlying everything
    /// else, exposed for callers that reuse buffers.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures; `out` may hold a partial read. A
    /// success means the whole clamped range was appended.
    pub fn read_range_into(
        &self,
        from: u64,
        to: u64,
        out: &mut Vec<TraceEntry>,
    ) -> Result<(), StoreError> {
        if let Some(m) = &self.metrics {
            let t0 = Instant::now();
            let result = self.store.read_into(from, to, out);
            m.read_ns.record(t0.elapsed().as_nanos() as u64);
            m.reads.inc();
            result
        } else {
            self.store.read_into(from, to, out)
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.store.len() as usize
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Time range covered, if nonempty.
    pub fn time_range(&self) -> Option<(u64, u64)> {
        self.store.time_range()
    }

    /// The half-open sequence range of entries whose event time falls
    /// in `[t0_ns, t1_ns]` — resolved via the store's time index
    /// (binary search, not a scan).
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures from reading boundary segments.
    pub fn window_bounds(&self, t0_ns: u64, t1_ns: u64) -> Result<(u64, u64), StoreError> {
        self.store.window_bounds(t0_ns, t1_ns)
    }

    /// Entries whose event time falls in `[t0, t1]`. The boundaries are
    /// located by binary search (entries are time-ordered); the hits
    /// are then streamed in pages, so a narrow window over a long
    /// disk-backed trace reads only its own segments.
    ///
    /// A store read failure ends the iteration early (possibly before
    /// the first entry); callers that must distinguish an empty window
    /// from a failing disk use [`ExecutionTrace::window_bounds`] +
    /// [`ExecutionTrace::read_range_into`] directly.
    pub fn window(&self, t0_ns: u64, t1_ns: u64) -> impl Iterator<Item = TraceEntry> + '_ {
        let (lo, hi) = self.window_bounds(t0_ns, t1_ns).unwrap_or((0, 0));
        PagedIter {
            trace: self,
            next: lo,
            end: hi,
            page: Vec::new().into_iter(),
        }
    }

    /// Calls `f` on every entry in sequence order, reading in pages —
    /// full-trace iteration without materializing the whole run.
    pub fn for_each<F: FnMut(&TraceEntry)>(&self, mut f: F) {
        if let Some(slice) = self.store.as_slice() {
            for e in slice {
                f(e);
            }
            return;
        }
        let mut page = Vec::new();
        let mut next = self.store.first_retained_seq();
        let len = self.store.len();
        while next < len {
            page.clear();
            let _ = self.store.read_into(next, next + PAGE, &mut page);
            if page.is_empty() {
                break;
            }
            next += page.len() as u64;
            for e in &page {
                f(e);
            }
        }
    }

    /// Flushes buffered appends to the backing store and surfaces any
    /// sticky storage failure.
    ///
    /// # Errors
    ///
    /// The first storage failure, or the flush failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(e) = &self.error {
            return Err(StoreError::new(e.clone()));
        }
        self.store.sync()
    }

    /// The first storage failure, if any (sticky).
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// `true` while a restored trace is still re-executing its stored
    /// prefix (see the type docs).
    pub fn catching_up(&self) -> bool {
        self.next_seq < self.store.len()
    }

    /// Serializes to pretty JSON. A store read failure truncates the
    /// output (see [`ExecutionTrace::entries`]); use
    /// [`ExecutionTrace::try_to_json`] where that must be an error.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serializes")
    }

    /// Like [`ExecutionTrace::to_json`] (byte-identical output), but a
    /// store read failure is an error instead of a silently truncated
    /// record — what the debug server serves snapshots through.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn try_to_json(&self) -> Result<String, StoreError> {
        let entries = self.try_entries()?;
        let snapshot = ExecutionTrace {
            next_seq: entries.len() as u64,
            store: Box::new(MemStore::from_entries(entries)),
            error: None,
            metrics: None,
        };
        Ok(snapshot.to_json())
    }

    /// Parses a saved trace (into an in-memory backend).
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error message.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// Paged iterator over a sequence range of a trace.
struct PagedIter<'a> {
    trace: &'a ExecutionTrace,
    next: u64,
    end: u64,
    page: std::vec::IntoIter<TraceEntry>,
}

impl Iterator for PagedIter<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        loop {
            if let Some(e) = self.page.next() {
                return Some(e);
            }
            if self.next >= self.end {
                return None;
            }
            let mut page = Vec::new();
            if self
                .trace
                .read_range_into(self.next, (self.next + PAGE).min(self.end), &mut page)
                .is_err()
            {
                return None; // read failure ends the iteration (see `window`)
            }
            if page.is_empty() {
                return None;
            }
            self.next += page.len() as u64;
            self.page = page.into_iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdf_gdm::EventKind;

    fn sample() -> ExecutionTrace {
        let mut t = ExecutionTrace::new();
        t.record(
            ModelEvent::new(100, EventKind::StateEnter, "A/fsm").with_to("Run"),
            vec![ReactionSpec::HighlightTarget],
            vec![],
        );
        t.record(
            ModelEvent::new(250, EventKind::SignalWrite, "A/out/u"),
            vec![ReactionSpec::ShowValue],
            vec!["signal out of range".into()],
        );
        t
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries()[0].seq, 0);
        assert_eq!(t.entries()[1].seq, 1);
        assert_eq!(t.time_range(), Some((100, 250)));
    }

    #[test]
    fn window_filters_by_time() {
        let t = sample();
        assert_eq!(t.window(0, 150).count(), 1);
        assert_eq!(t.window(0, 300).count(), 2);
        assert_eq!(t.window(300, 400).count(), 0);
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let back = ExecutionTrace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
        assert!(ExecutionTrace::from_json("nope").is_err());
    }

    #[test]
    fn empty_trace() {
        let t = ExecutionTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.time_range(), None);
    }

    #[test]
    fn window_on_empty_trace_is_empty() {
        let t = ExecutionTrace::new();
        assert_eq!(t.window(0, u64::MAX).count(), 0);
        assert_eq!(t.window(0, 0).count(), 0);
    }

    #[test]
    fn window_ends_are_inclusive() {
        let t = sample(); // entries at t = 100 and t = 250
                          // Both boundary instants are inside the window.
        assert_eq!(t.window(100, 250).count(), 2);
        // A degenerate window [t, t] still sees the entry at t.
        assert_eq!(t.window(100, 100).count(), 1);
        assert_eq!(t.window(250, 250).count(), 1);
        // One past either boundary excludes the entry.
        assert_eq!(t.window(101, 249).count(), 0);
        assert_eq!(t.window(0, 99).count(), 0);
        assert_eq!(t.window(251, u64::MAX).count(), 0);
        // An inverted window matches nothing.
        assert_eq!(t.window(250, 100).count(), 0);
    }

    #[test]
    fn time_range_boundaries() {
        let t = sample();
        // Range is (first entry, last entry), both inclusive instants.
        assert_eq!(t.time_range(), Some((100, 250)));
        // A single-entry trace has a degenerate range.
        let mut one = ExecutionTrace::new();
        one.record(
            ModelEvent::new(42, EventKind::StateEnter, "A/fsm"),
            vec![],
            vec![],
        );
        assert_eq!(one.time_range(), Some((42, 42)));
        assert_eq!(one.window(42, 42).count(), 1);
    }

    #[test]
    fn entries_since_returns_the_delta() {
        let t = sample();
        assert_eq!(t.entries_since(0).len(), 2);
        assert_eq!(t.entries_since(1).len(), 1);
        assert_eq!(t.entries_since(1)[0].seq, 1);
        assert_eq!(t.entries_since(2).len(), 0);
        // Cursors past the end are tolerated (subscriber saw everything).
        assert_eq!(t.entries_since(99).len(), 0);
    }

    #[test]
    fn catch_up_drops_already_stored_records() {
        // Persist two entries, then re-record them (the deterministic
        // re-execution) plus one new command.
        let stored = sample();
        let trace_entries = stored.entries();
        let store = crate::store::MemStore::from_entries(trace_entries.clone());
        let mut t = ExecutionTrace::with_store(Box::new(store));
        assert!(t.catching_up());
        assert_eq!(t.len(), 2);
        let s0 = t.record(
            trace_entries[0].event.clone(),
            trace_entries[0].reactions.clone(),
            vec![],
        );
        assert_eq!(s0, 0);
        assert_eq!(t.len(), 2, "catch-up records are dropped, not duplicated");
        let s1 = t.record(trace_entries[1].event.clone(), vec![], vec![]);
        assert_eq!(s1, 1);
        assert!(!t.catching_up());
        let s2 = t.record(
            ModelEvent::new(300, EventKind::StateEnter, "A/fsm").with_to("Idle"),
            vec![],
            vec![],
        );
        assert_eq!(s2, 2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(2).unwrap().event.time_ns, 300);
    }

    #[test]
    fn catch_up_from_a_checkpoint_position_covers_only_the_rest() {
        // A checkpoint at seq 1 over a store holding two entries: only
        // entry 1 is re-derived, then appends resume at 2.
        let trace_entries = sample().entries();
        let store = crate::store::MemStore::from_entries(trace_entries.clone());
        let mut t = ExecutionTrace::new();
        t.attach(Box::new(store), 1);
        assert!(t.catching_up());
        let s1 = t.record(trace_entries[1].event.clone(), vec![], vec![]);
        assert_eq!(s1, 1);
        assert_eq!(t.len(), 2, "the stored entry is not duplicated");
        assert!(!t.catching_up());
        let s2 = t.record(
            ModelEvent::new(300, EventKind::StateEnter, "A/fsm").with_to("Idle"),
            vec![],
            vec![],
        );
        assert_eq!(s2, 2);
        assert_eq!(t.entries()[..2], trace_entries[..]);
    }

    #[test]
    fn clone_detaches_into_memory() {
        let t = sample();
        let c = t.clone();
        assert_eq!(t, c);
        assert_eq!(t.to_json(), c.to_json());
    }

    #[test]
    fn for_each_visits_every_entry_in_order() {
        let t = sample();
        let mut seen = Vec::new();
        t.for_each(|e| seen.push(e.seq));
        assert_eq!(seen, vec![0, 1]);
    }
}
