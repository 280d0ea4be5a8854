//! Crash-recovery and backend-equivalence properties of the trace
//! stores.
//!
//! The load-bearing claims:
//!
//! * **Kill-anywhere recovery** — a writer killed at an *arbitrary byte
//!   offset* mid-segment leaves a store that reopens without panicking
//!   to a valid *prefix* of the original trace: every record fully
//!   flushed before the cut survives, nothing after the cut leaks
//!   through, and appending continues seamlessly after recovery.
//! * **Same cut as the full decoder** — a byte flipped inside a sealed
//!   segment, with later segments behind it, truncates the store exactly
//!   where walking the files with the full decoder would.
//! * **Backend equivalence** — `entries_since`, `window`,
//!   `window_bounds`, `get` and `to_json` agree byte-for-byte between
//!   the in-memory store and the segmented disk store over random
//!   traces, segment capacities and query points.
//! * **Ranged reads equal the full decode** — a sealed segment is read
//!   in place, decoding only the entries a read returns, yet every
//!   `read_into` range and `window_bounds` answer equals the in-memory
//!   store's, on both codecs, across the hot and cold tiers, with times
//!   that repeat across segment seams. A sealed file damaged after the
//!   open (cut short, or one frame's seq changed) fails every read and
//!   bound that touches it, never shortening a page.

use gmdf_engine::store::{
    encode_record, read_entries, Codec, MemStore, Retention, SegmentConfig, SegmentStore,
    TraceStore,
};
use gmdf_engine::{ExecutionTrace, TraceEntry};
use gmdf_gdm::{EventKind, EventValue, ModelEvent, ReactionSpec};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique scratch directory (no tempfile crate offline) —
/// pid + atomic counter; no wall clock, which can collide under
/// parallel test runs and needs a fallible `expect`.
fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gmdf-recovery-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The two record codecs, drawn as a proptest parameter so every
/// recovery/equivalence property holds for both.
fn arb_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![Just(Codec::Json), Just(Codec::Binary)]
}

/// One synthetic entry; times grow with `seq` (the engine's invariant).
fn entry(seq: u64, dt: u64, kind: u8) -> TraceEntry {
    let time_ns = seq * 1_000 + dt;
    let event = match kind % 3 {
        0 => ModelEvent::new(time_ns, EventKind::StateEnter, "node/actor/fsm").with_to("Run"),
        1 => ModelEvent::new(time_ns, EventKind::SignalWrite, "node/actor/out")
            .with_value(EventValue::Real(dt as f64 * 0.5)),
        _ => ModelEvent::new(time_ns, EventKind::TaskStart, "node/actor"),
    };
    TraceEntry {
        seq,
        event,
        reactions: if kind.is_multiple_of(2) {
            vec![ReactionSpec::HighlightTarget]
        } else {
            vec![]
        },
        violations: if kind == 5 {
            vec!["synthetic violation".to_owned()]
        } else {
            vec![]
        },
    }
}

fn build_entries(shape: &[(u64, u8)]) -> Vec<TraceEntry> {
    shape
        .iter()
        .enumerate()
        .map(|(i, &(dt, kind))| entry(i as u64, dt % 1_000, kind))
        .collect()
}

/// Writes `entries` into a fresh segment store and flushes it.
fn write_store(dir: &PathBuf, config: SegmentConfig, entries: &[TraceEntry]) -> SegmentStore {
    let mut store = SegmentStore::open_with(dir, config).expect("open");
    for e in entries {
        store.append(e.clone()).expect("append");
    }
    store.sync().expect("sync");
    store
}

/// A store config with `capacity` and `codec`, retention off.
fn config(capacity: usize, codec: Codec) -> SegmentConfig {
    SegmentConfig {
        capacity,
        codec,
        ..SegmentConfig::default()
    }
}

/// All segment files of `dir` in order, with their byte lengths.
fn segment_files(dir: &PathBuf) -> Vec<(PathBuf, u64)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("readdir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("seg-"))
        })
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let len = std::fs::metadata(&p).expect("stat").len();
            (p, len)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kill the writer at an arbitrary byte offset into the on-disk
    /// log: recovery yields exactly the records wholly flushed before
    /// the cut — a valid prefix, no panic, and appends keep working.
    #[test]
    fn kill_at_arbitrary_offset_recovers_valid_prefix(
        shape in proptest::collection::vec((0u64..1_000, 0u8..6), 1..60),
        capacity in 1usize..9,
        cut_fraction in 0.0f64..1.0,
        codec in arb_codec(),
    ) {
        let entries = build_entries(&shape);
        let dir = tmp_dir("kill");
        write_store(&dir, config(capacity, codec), &entries);

        // Choose a kill point: a global byte offset into the ordered
        // concatenation of segment files. Everything after it is
        // discarded — the bytes a killed writer never flushed.
        let files = segment_files(&dir);
        let total: u64 = files.iter().map(|(_, len)| len).sum();
        let cut = (total as f64 * cut_fraction) as u64;
        let mut consumed = 0u64;
        let mut survivors = 0usize; // whole records before the cut
        for (path, len) in &files {
            if consumed + len <= cut {
                // File fully before the cut: count its records.
                let bytes = std::fs::read(path).expect("read");
                survivors += count_whole_records(&bytes, bytes.len() as u64);
                consumed += len;
            } else {
                let keep = cut.saturating_sub(consumed);
                let bytes = std::fs::read(path).expect("read");
                survivors += count_whole_records(&bytes, keep);
                std::fs::write(path, &bytes[..keep as usize]).expect("truncate");
                consumed += len;
                // Later files would not exist yet in a real kill.
                let later: Vec<_> = files
                    .iter()
                    .filter(|(p, _)| p > path)
                    .map(|(p, _)| p.clone())
                    .collect();
                for p in later {
                    std::fs::remove_file(p).expect("rm");
                }
                break;
            }
        }

        let mut recovered =
            SegmentStore::open_with(&dir, config(capacity, codec)).expect("recovery must not fail");
        prop_assert_eq!(recovered.len(), survivors as u64, "exact valid prefix");
        let mut read_back = Vec::new();
        recovered.read_into(0, u64::MAX, &mut read_back).expect("read");
        prop_assert_eq!(&read_back[..], &entries[..survivors], "prefix is byte-faithful");

        // Appends continue after recovery, densely numbered.
        let next = recovered.len();
        recovered.append(entry(next, 500, 1)).expect("append after recovery");
        recovered.sync().expect("sync");
        prop_assert_eq!(recovered.len(), next + 1);
        let reopened = SegmentStore::open_with(&dir, config(capacity, codec)).expect("reopen");
        prop_assert_eq!(reopened.len(), next + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The disk store answers every query identically to the in-memory
    /// store over random traces, capacities, cursors and windows —
    /// including after a close/reopen cycle.
    #[test]
    fn disk_store_equals_memory_store(
        shape in proptest::collection::vec((0u64..1_000, 0u8..6), 0..80),
        capacity in 1usize..11,
        cursors in proptest::collection::vec(0u64..100, 1..6),
        windows in proptest::collection::vec((0u64..90_000, 0u64..90_000), 1..6),
        codec in arb_codec(),
    ) {
        let entries = build_entries(&shape);
        let dir = tmp_dir("equiv");
        write_store(&dir, config(capacity, codec), &entries);
        // Reopen to also exercise the recovery path on a clean store.
        let disk = SegmentStore::open_with(&dir, config(capacity, codec)).expect("reopen");
        let mem = MemStore::from_entries(entries.clone());

        prop_assert_eq!(disk.len(), mem.len());
        prop_assert_eq!(disk.time_range(), mem.time_range());
        for &cursor in &cursors {
            let mut from_disk = Vec::new();
            disk.read_into(cursor, u64::MAX, &mut from_disk).expect("read");
            let mut from_mem = Vec::new();
            mem.read_into(cursor, u64::MAX, &mut from_mem).expect("read");
            prop_assert_eq!(from_disk, from_mem, "entries_since({})", cursor);
        }
        for &(a, b) in &windows {
            prop_assert_eq!(
                disk.window_bounds(a, b).expect("disk window_bounds"),
                mem.window_bounds(a, b).expect("mem window_bounds"),
                "window_bounds({}, {})", a, b
            );
        }
        // Full-trace serialization is byte-identical across backends.
        let disk_trace = ExecutionTrace::with_store(Box::new(disk));
        let mem_trace = ExecutionTrace::with_store(Box::new(mem));
        prop_assert_eq!(disk_trace.to_json(), mem_trace.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    // Many cases: only a flip that keeps its frame decodable (a bit in
    // a value, a string or a seq field) tests more than framing.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// XOR one byte of one segment file of a binary store with several
    /// sealed segments: the reopened store holds exactly what walking
    /// the files in order with the full decoder yields, cut at the first
    /// undecodable frame or sequence break, and appends continue there.
    #[test]
    fn flipped_byte_in_a_segment_cuts_where_the_full_decoder_would(
        shape in proptest::collection::vec((0u64..1_000, 0u8..6), 30..90),
        capacity in 2usize..9,
        file_pick in 0.0f64..1.0,
        byte_pick in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let entries = build_entries(&shape);
        let dir = tmp_dir("flip");
        write_store(&dir, config(capacity, Codec::Binary), &entries);
        let files = segment_files(&dir);
        prop_assert!(files.len() >= 3, "several sealed segments");
        let (path, len) = &files[((files.len() as f64 * file_pick) as usize).min(files.len() - 1)];
        let at = ((*len as f64 * byte_pick) as usize).min(*len as usize - 1);
        let mut bytes = std::fs::read(path).expect("read");
        bytes[at] ^= mask;
        std::fs::write(path, &bytes).expect("write");

        // The oracle: full decodes of each file in order, up to
        // `capacity` entries each, ending at the first file that does
        // not continue the sequence for a whole segment.
        let mut expected: Vec<TraceEntry> = Vec::new();
        for (path, _) in &files {
            let (decoded, _) = read_entries(path, Codec::Binary).expect("decode");
            let before = expected.len();
            for e in decoded.into_iter().take(capacity) {
                if e.seq != expected.len() as u64 {
                    break;
                }
                expected.push(e);
            }
            if expected.len() - before < capacity {
                break;
            }
        }

        let mut recovered =
            SegmentStore::open_with(&dir, config(capacity, Codec::Binary)).expect("recovery");
        prop_assert_eq!(recovered.len(), expected.len() as u64);
        let mut read_back = Vec::new();
        recovered.read_into(0, u64::MAX, &mut read_back).expect("read");
        prop_assert_eq!(&read_back, &expected);

        let appended = entry(expected.len() as u64, 500, 1);
        recovered.append(appended.clone()).expect("append after recovery");
        recovered.sync().expect("sync");
        expected.push(appended);
        let reopened =
            SegmentStore::open_with(&dir, config(capacity, Codec::Binary)).expect("reopen");
        let mut read_back = Vec::new();
        reopened.read_into(0, u64::MAX, &mut read_back).expect("read");
        prop_assert_eq!(&read_back, &expected);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Entries whose times repeat: each step advances the clock by 0, 1 or
/// 2 µs, so runs of equal times fall inside segments and across their
/// seams.
fn entries_with_repeats(shape: &[(u64, u8)]) -> Vec<TraceEntry> {
    let mut time_ns = 0;
    shape
        .iter()
        .enumerate()
        .map(|(i, &(step, kind))| {
            time_ns += step * 1_000;
            let mut e = entry(i as u64, 0, kind);
            e.event.time_ns = time_ns;
            e
        })
        .collect()
}

/// The byte offset of every frame in one segment file.
fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 0usize;
    while at + 4 <= bytes.len() {
        offsets.push(at);
        at += 4 + u32::from_be_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    }
    offsets
}

/// Flips the low bit of the frame's seq, which moves it by one and
/// keeps the frame decodable: the first varint byte of a binary
/// payload, or the last digit of a JSON payload's `"seq":N`.
fn flip_seq(bytes: &mut [u8], frame: usize, codec: Codec) {
    let payload = frame + 4;
    let at = match codec {
        Codec::Binary => payload,
        Codec::Json => {
            let key = b"\"seq\":";
            let start = payload
                + bytes[payload..]
                    .windows(key.len())
                    .position(|w| w == key)
                    .expect("a JSON entry has a seq")
                + key.len();
            start
                + bytes[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count()
                - 1
        }
    };
    bytes[at] ^= 1;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reads that decode only what they return still equal the full
    /// decode: every `read_into` range (past the end included) and every
    /// `window_bounds` answer matches the in-memory store's, on both
    /// codecs, hot or compressed, before or after a reopen.
    #[test]
    fn ranged_reads_equal_the_full_decode(
        shape in proptest::collection::vec((0u64..3, 0u8..6), 30..90),
        capacity in 2usize..9,
        codec in arb_codec(),
        compress_after in prop_oneof![Just(None), Just(Some(0usize)), Just(Some(2usize))],
        reopen in any::<bool>(),
        reads in proptest::collection::vec((0u64..100, 0u64..100), 1..12),
        windows in proptest::collection::vec((0u64..400, 0u64..400), 1..12),
    ) {
        let entries = entries_with_repeats(&shape);
        let dir = tmp_dir("ranged");
        let config = SegmentConfig {
            retention: Retention {
                compress_after,
                max_disk_bytes: None,
            },
            ..config(capacity, codec)
        };
        let mut disk = write_store(&dir, config, &entries);
        while disk.maintain().expect("maintain").did_work() {}
        if reopen {
            drop(disk);
            disk = SegmentStore::open_with(&dir, config).expect("reopen");
        }
        let mem = MemStore::from_entries(entries.clone());

        for &(a, b) in reads.iter().chain([&(0, u64::MAX)]) {
            let (lo, hi) = (a.min(b), a.max(b));
            let mut from_disk = Vec::new();
            disk.read_into(lo, hi, &mut from_disk).expect("disk read");
            let mut from_mem = Vec::new();
            mem.read_into(lo, hi, &mut from_mem).expect("mem read");
            prop_assert_eq!(from_disk, from_mem, "read_into({}, {})", lo, hi);
        }
        // Half-microsecond steps land both on entry times (often a run
        // of equal ones) and between them.
        for &(a, b) in &windows {
            let (t0, t1) = (a * 500, b * 500);
            prop_assert_eq!(
                disk.window_bounds(t0, t1).expect("disk window_bounds"),
                mem.window_bounds(t0, t1).expect("mem window_bounds"),
                "window_bounds({}, {})", t0, t1
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sealed file damaged after the open — cut short (hot or
    /// compressed), or one frame's seq moved by one — no longer holds
    /// its indexed entries: every read and every bound that walks that
    /// segment is an error, never a shorter page, while reads and
    /// bounds that stay in other segments still answer like the
    /// in-memory store.
    #[test]
    fn a_damaged_sealed_segment_fails_every_read_that_touches_it(
        shape in proptest::collection::vec((0u64..3, 0u8..6), 30..90),
        capacity in 2usize..9,
        codec in arb_codec(),
        flip in any::<bool>(),
        compressed in any::<bool>(),
        segment_pick in 0.0f64..1.0,
        damage_pick in 0.0f64..1.0,
        reads in proptest::collection::vec((0u64..100, 0u64..100), 1..12),
        windows in proptest::collection::vec((0u64..400, 0u64..400), 1..12),
    ) {
        let entries = entries_with_repeats(&shape);
        let n = entries.len() as u64;
        let cap = capacity as u64;
        let dir = tmp_dir("damaged");
        // Only a hot file has frames to flip; a cut may hit either tier.
        let compressed = compressed && !flip;
        let config = SegmentConfig {
            retention: Retention {
                compress_after: compressed.then_some(0),
                max_disk_bytes: None,
            },
            ..config(capacity, codec)
        };
        let mut disk = write_store(&dir, config, &entries);
        while disk.maintain().expect("maintain").did_work() {}
        let mem = MemStore::from_entries(entries.clone());

        let sealed = n / cap;
        let damaged = ((sealed as f64 * segment_pick) as u64).min(sealed - 1);
        let (path, _) = &segment_files(&dir)[damaged as usize];
        let mut bytes = std::fs::read(path).expect("read");
        if flip {
            let frames = frame_offsets(&bytes);
            let frame = frames[((frames.len() as f64 * damage_pick) as usize).min(frames.len() - 1)];
            flip_seq(&mut bytes, frame, codec);
        } else {
            bytes.truncate(((bytes.len() as f64 * damage_pick) as usize).min(bytes.len() - 1));
        }
        std::fs::write(path, &bytes).expect("damage");
        let in_damaged = |seq: u64| seq / cap == damaged;

        // Every segment read whole, then the random ranges.
        let whole: Vec<(u64, u64)> = (0..n.div_ceil(cap)).map(|s| (s * cap, s * cap + cap)).collect();
        for &(a, b) in whole.iter().chain(&reads) {
            let (lo, hi) = (a.min(b), a.max(b));
            let mut from_disk = Vec::new();
            let result = disk.read_into(lo, hi, &mut from_disk);
            if (lo..hi.min(n)).any(in_damaged) {
                prop_assert!(result.is_err(), "read_into({}, {}) touches segment {}", lo, hi, damaged);
            } else {
                result.expect("a read of undamaged segments");
                let mut from_mem = Vec::new();
                mem.read_into(lo, hi, &mut from_mem).expect("mem read");
                prop_assert_eq!(from_disk, from_mem, "read_into({}, {})", lo, hi);
            }
        }
        // A bound walks the segment that holds it: `lo` the first entry
        // at or after t0, `hi` the last at or before t1.
        let times: Vec<u64> = entries.iter().map(|e| e.event.time_ns).collect();
        for &(a, b) in &windows {
            let (t0, t1) = (a * 500, b * 500);
            let expected = mem.window_bounds(t0, t1).expect("mem window_bounds");
            let lo = times.partition_point(|&t| t < t0) as u64;
            let hi = times.partition_point(|&t| t <= t1) as u64;
            let lo_hit = lo < n && in_damaged(lo);
            let hi_hit = hi > 0 && in_damaged(hi - 1);
            match disk.window_bounds(t0, t1) {
                Err(_) => prop_assert!(
                    lo_hit || hi_hit,
                    "window_bounds({}, {}) failed without touching segment {}", t0, t1, damaged
                ),
                Ok(bounds) => {
                    prop_assert!(
                        t0 > t1 || lo >= hi || !(lo_hit || hi_hit),
                        "window_bounds({}, {}) answered past damaged segment {}", t0, t1, damaged
                    );
                    prop_assert_eq!(bounds, expected, "window_bounds({}, {})", t0, t1);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Number of whole framed records in the first `limit` bytes.
fn count_whole_records(bytes: &[u8], limit: u64) -> usize {
    let limit = (limit as usize).min(bytes.len());
    let mut offset = 0usize;
    let mut count = 0usize;
    while limit - offset >= 4 {
        let len = u32::from_be_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]) as usize;
        if limit - offset - 4 < len {
            break;
        }
        offset += 4 + len;
        count += 1;
    }
    count
}

/// Deterministic catch-up across a real store: a re-execution over a
/// recovered prefix does not duplicate persisted entries and extends
/// the log past it.
#[test]
fn catch_up_resumes_over_recovered_prefix() {
    let dir = tmp_dir("catchup");
    let entries = build_entries(
        &(0..20)
            .map(|i| (i * 37 % 1000, (i % 6) as u8))
            .collect::<Vec<_>>(),
    );
    write_store(&dir, config(4, Codec::Binary), &entries[..12]);

    // A restored trace re-executes the full run; the first 12 records
    // are dropped (already persisted), the rest append.
    let store = SegmentStore::open(&dir, 4).expect("open");
    assert_eq!(store.len(), 12);
    let mut trace = ExecutionTrace::with_store(Box::new(store));
    assert!(trace.catching_up());
    for e in &entries {
        trace.record(e.event.clone(), e.reactions.clone(), e.violations.clone());
    }
    assert!(!trace.catching_up());
    assert_eq!(trace.len(), entries.len());
    trace.sync().expect("sync");

    // The persisted log now holds the whole run, byte-faithfully.
    let reopened = SegmentStore::open(&dir, 4).expect("reopen");
    let mut all = Vec::new();
    reopened.read_into(0, u64::MAX, &mut all).expect("read");
    assert_eq!(all, entries);
    std::fs::remove_dir_all(&dir).ok();
}

/// `encode_record` framing is what the recovery scanner expects — a
/// sanity pin for the shared format.
#[test]
fn record_framing_round_trips() {
    let e = entry(0, 123, 1);
    let bytes = encode_record(&e).expect("fits in a frame");
    let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    assert_eq!(len + 4, bytes.len());
    let json = std::str::from_utf8(&bytes[4..]).expect("utf8");
    let back: TraceEntry = serde_json::from_str(json).expect("parses");
    assert_eq!(back, e);
}
