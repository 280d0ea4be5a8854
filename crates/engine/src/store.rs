//! Pluggable trace storage: in-memory and segmented on-disk stores.
//!
//! The paper promises that GDM animation "always make\[s\] a record of the
//! execution trace"; for long runs that record must not cost O(whole
//! run) memory or die with the process. [`TraceStore`] abstracts where
//! [`TraceEntry`]s live; [`MemStore`] is the classic `Vec` (the
//! default), and [`SegmentStore`] is an append-only, segmented on-disk
//! log:
//!
//! ```text
//! <dir>/
//!   meta.json          {"version":1,"capacity":N,"codec":…}  (written once)
//!   seg-00000000.lgz   N entries, LZ-compressed     (cold tier)
//!   seg-00000001.log   N length-prefixed entries    (sealed)
//!   seg-00000002.log   < N entries                  (active tail)
//! ```
//!
//! Every record is `[u32 len, big-endian][payload]` — the same framing
//! the wire protocol and the session journal use — where the payload is
//! either compact JSON ([`Codec::Json`], the debug/interop format) or
//! the varint binary form ([`Codec::Binary`], see [`encode_entry`]);
//! the choice is fixed per store in `meta.json`. Each segment holds a
//! fixed number of entries, so a sequence number maps to its segment by
//! division; an in-memory per-segment index of `(first_seq, last_seq,
//! t0_ns, t1_ns)` makes `entries_since`, `window` and replay seek
//! O(log segments + hit) instead of O(whole run). The active segment is
//! additionally cached in memory, so the hot path (the scheduler
//! publishing the latest delta) never touches disk.
//!
//! **Compaction tiers**: under a [`Retention`] policy,
//! [`TraceStore::maintain`] moves sealed segments into an LZ-compressed
//! `.lgz` cold tier and, past a disk budget, evicts the oldest sealed
//! segments entirely. Reads (`read_into`, `window_bounds`, paging)
//! span all tiers transparently; [`TraceStore::first_retained_seq`]
//! reports the eviction floor while [`TraceStore::len`] keeps counting
//! every appended entry, so dense numbering and deterministic catch-up
//! survive retention.
//!
//! **Crash safety**: opening a store re-scans the segment files once; a
//! torn tail (a record cut mid-write, a corrupt length, an unparsable
//! payload) truncates the file at the last whole record and drops any
//! later segment — recovery always yields a valid *prefix* of the
//! original trace, never a gap or a panic
//! (`crates/engine/tests/store_recovery.rs` proves this for kills at
//! arbitrary byte offsets).

use crate::trace::TraceEntry;
use gmdf_gdm::{EventKind, EventValue, ModelEvent, ReactionSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// A trace storage failure (I/O, corrupt metadata…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError(String);

impl StoreError {
    /// Wraps a message.
    pub fn new(message: impl Into<String>) -> Self {
        StoreError(message.into())
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace store error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError(e.to_string())
    }
}

/// Storage footprint of a [`TraceStore`] — what the observability layer
/// reports per session and sums fleet-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Segment files backing the store (0 for memory-resident stores).
    pub segments: u64,
    /// Bytes of encoded records on disk (0 for memory-resident stores).
    pub disk_bytes: u64,
    /// Sealed segments currently held in the compressed cold tier.
    pub compacted_segments: u64,
}

/// Where recorded [`TraceEntry`]s live.
///
/// Contract shared by every implementation:
///
/// * entries are append-only and densely numbered — the `n`-th appended
///   entry has `seq == n`;
/// * event times are nondecreasing in sequence order (the engine feeds
///   commands in time order), which is what lets [`TraceStore::window_bounds`]
///   binary-search instead of scan;
/// * reads never block appends made by the same owner (single-writer).
pub trait TraceStore: Send + fmt::Debug {
    /// Appends one entry. `entry.seq` must equal [`TraceStore::len`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (in-memory stores never fail).
    fn append(&mut self, entry: TraceEntry) -> Result<(), StoreError>;

    /// Number of stored entries.
    fn len(&self) -> u64;

    /// `true` when nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the entries with `seq` in `[from_seq, to_seq)` (clamped
    /// to the stored range) onto `out`, in sequence order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn read_into(
        &self,
        from_seq: u64,
        to_seq: u64,
        out: &mut Vec<TraceEntry>,
    ) -> Result<(), StoreError>;

    /// The half-open sequence range `[lo, hi)` of entries whose event
    /// time falls in `[t0_ns, t1_ns]`. Empty windows (including
    /// inverted inputs) return `lo == hi`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from reading boundary segments — a
    /// failing disk must surface as an error, never masquerade as an
    /// empty window.
    fn window_bounds(&self, t0_ns: u64, t1_ns: u64) -> Result<(u64, u64), StoreError>;

    /// `(first, last)` event time, if nonempty.
    fn time_range(&self) -> Option<(u64, u64)>;

    /// Flushes buffered appends out of the process (no-op in memory).
    /// This guarantees durability against a *process* crash. Disk
    /// stores deliberately do not fsync the append path (it is the hot
    /// path), so an OS crash or power loss may drop the most recent
    /// entries; owners that need stronger guarantees pair the store
    /// with an fsynced command journal and regenerate the lost tail by
    /// deterministic replay (`gmdf-server`'s durable sessions do).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn sync(&mut self) -> Result<(), StoreError>;

    /// Fast path: the full entry slice, when the store is memory-backed.
    /// Disk-backed stores return `None` and are read via
    /// [`TraceStore::read_into`].
    fn as_slice(&self) -> Option<&[TraceEntry]> {
        None
    }

    /// Storage footprint (segment count, on-disk bytes). Memory-backed
    /// stores keep the all-zero default.
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    /// Sequence number of the oldest entry still readable. `0` unless a
    /// retention budget has evicted old segments; reads below it are
    /// clamped up to it. [`TraceStore::len`] keeps counting *all*
    /// appended entries, so dense sequence numbering (and deterministic
    /// catch-up) survives eviction.
    fn first_retained_seq(&self) -> u64 {
        0
    }

    /// Runs one bounded unit of background maintenance (compress at
    /// most one sealed segment, then enforce the retention budget).
    /// Owners call this off the append hot path — the debug server's
    /// compactor thread does — and repeat while it reports progress.
    /// The default (memory stores, stores without retention) is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn maintain(&mut self) -> Result<MaintenanceReport, StoreError> {
        Ok(MaintenanceReport::default())
    }

    /// Forbids retention from evicting any entry with `seq >= floor`.
    ///
    /// Time travel anchors on checkpoints: a seek restores the nearest
    /// checkpoint at or before the target and replays forward, and the
    /// full-trace view stitches the persisted prefix below the restore
    /// point onto the regenerated tail. Evicting a segment newer than
    /// the **oldest retained checkpoint** would tear a hole in every
    /// such stitch, so the checkpoint owner pins the floor here after
    /// each checkpoint write. `u64::MAX` (the initial value) disables
    /// the clamp — a store without checkpoints retains the original
    /// budget-only behavior. The default implementation (memory stores,
    /// stores without retention) ignores the floor: they never evict.
    fn set_retain_floor(&mut self, _floor: u64) {}
}

/// What [`TraceStore::maintain`] accomplished in one call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Sealed segments moved to the compressed cold tier.
    pub compacted_segments: u64,
    /// Disk bytes freed (compression savings + evicted files).
    pub reclaimed_bytes: u64,
    /// Whole segments evicted by the retention budget.
    pub dropped_segments: u64,
    /// Entries inside those evicted segments.
    pub dropped_entries: u64,
}

impl MaintenanceReport {
    /// `true` when the call changed anything — callers loop while this
    /// holds to drain pending maintenance.
    pub fn did_work(&self) -> bool {
        *self != MaintenanceReport::default()
    }
}

/// Retention policy for a [`SegmentStore`]: when sealed segments move
/// to the compressed cold tier, and how much disk the store may hold.
/// The default keeps everything uncompressed forever (the pre-retention
/// behavior).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retention {
    /// Compress sealed segments older than this many newest sealed
    /// segments (`Some(0)` = compress every sealed segment as soon as
    /// it seals). `None` disables compression.
    pub compress_after: Option<usize>,
    /// Evict oldest sealed segments while the store's on-disk footprint
    /// exceeds this many bytes. `None` disables eviction. The active
    /// tail is never evicted.
    pub max_disk_bytes: Option<u64>,
}

impl Retention {
    /// `true` when any policy knob is set (maintenance can do work).
    pub fn is_active(&self) -> bool {
        self.compress_after.is_some() || self.max_disk_bytes.is_some()
    }
}

// ---------------------------------------------------------------------------
// Shared record framing
// ---------------------------------------------------------------------------

/// Validates a record payload length against the `u32` framing field.
///
/// Every framed stream in the system (trace segments, session journals,
/// the wire protocol) prefixes payloads with a big-endian `u32` length;
/// a payload over `u32::MAX` would silently truncate the prefix and
/// desynchronize the stream, so it must be rejected *before* writing.
///
/// # Errors
///
/// When `len` does not fit the 4-byte prefix.
pub fn frame_len(len: usize) -> Result<[u8; 4], StoreError> {
    u32::try_from(len)
        .map(u32::to_be_bytes)
        .map_err(|_| StoreError::new(format!("record of {len} bytes exceeds the u32 frame limit")))
}

/// Encodes one serializable record as `[u32 len BE][compact JSON]` —
/// the framing shared by trace segments, session journals and the wire
/// protocol.
///
/// # Errors
///
/// Rejects payloads whose length does not fit the `u32` prefix (see
/// [`frame_len`]) instead of truncating it.
pub fn encode_record<T: Serialize>(value: &T) -> Result<Vec<u8>, StoreError> {
    let json = serde_json::to_string(value).expect("record serializes");
    let mut out = Vec::with_capacity(4 + json.len());
    out.extend_from_slice(&frame_len(json.len())?);
    out.extend_from_slice(json.as_bytes());
    Ok(out)
}

/// Reads every *whole, decodable* record from `path`, stopping at the
/// first torn or corrupt one. Returns the decoded records and the byte
/// length of the valid prefix — everything past it is damage from an
/// interrupted write and safe to truncate.
///
/// # Errors
///
/// Propagates I/O failures (a missing file is an error; corruption is
/// not — it just shortens the valid prefix).
pub fn read_records<T: Deserialize>(path: &Path) -> Result<(Vec<T>, u64), StoreError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let (records, offset) = scan_frames(&bytes, decode_json::<T>);
    Ok((records, offset))
}

/// Walks `[u32 len BE][payload]` frames from the front of `bytes`,
/// decoding each payload with `decode`, and stops at the first torn or
/// undecodable one. Returns the decoded values and the byte length of
/// the valid prefix.
fn scan_frames<T>(bytes: &[u8], mut decode: impl FnMut(&[u8]) -> Option<T>) -> (Vec<T>, u64) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= 4 {
        let len = u32::from_be_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]) as usize;
        if len == 0 || bytes.len() - offset - 4 < len {
            break; // torn or nonsense length: end of the valid prefix
        }
        let Some(value) = decode(&bytes[offset + 4..offset + 4 + len]) else {
            break;
        };
        records.push(value);
        offset += 4 + len;
    }
    (records, offset as u64)
}

fn decode_json<T: Deserialize>(payload: &[u8]) -> Option<T> {
    let text = std::str::from_utf8(payload).ok()?;
    serde_json::from_str::<T>(text).ok()
}

/// Truncates `path` to `len` bytes — recovery discarding a torn tail.
fn truncate_file(path: &Path, len: u64) -> Result<(), StoreError> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    Ok(())
}

/// Replaces `path` with `bytes` crash-safely: writes the sibling
/// `<file>.tmp`, fsyncs its data, then renames it over `path`. A kill or
/// power loss at any point leaves either the old file or the whole new
/// one (without the fsync the rename could land before the data), plus
/// at worst a `.tmp` leftover; segment and checkpoint stores delete
/// theirs when they open.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Record codecs
// ---------------------------------------------------------------------------

/// How [`TraceEntry`] payloads are encoded inside a segment's frames.
///
/// `Json` is the debug/interop codec (human-greppable segments, and the
/// oracle the property suite checks `Binary` against); `Binary` is the
/// compact varint codec for production stores. The choice is recorded
/// in the store's `meta.json`, so mixed-codec session directories open
/// cleanly — each store decodes with the codec it was written with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Codec {
    /// Compact JSON payloads (the v1 on-disk format).
    #[default]
    Json,
    /// Fixed-width header + varint fields (see [`encode_entry`]).
    Binary,
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        let chunk = u64::from(b & 0x7f);
        if shift == 63 && chunk > 1 {
            return None; // bits past the 64th: not a value we encode
        }
        v |= chunk << shift;
        if b & 0x80 == 0 {
            // Reject non-canonical trailing zero continuation bytes so
            // every value has exactly one encoding.
            if b == 0 && shift != 0 {
                return None;
            }
            return Some(v);
        }
    }
    None // > 10 bytes: not a varint we ever write
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn kind_to_u8(kind: EventKind) -> u8 {
    match kind {
        EventKind::TaskStart => 0,
        EventKind::TaskEnd => 1,
        EventKind::StateEnter => 2,
        EventKind::ModeSwitch => 3,
        EventKind::SignalWrite => 4,
        EventKind::WatchChange => 5,
    }
}

fn kind_from_u8(b: u8) -> Option<EventKind> {
    Some(match b {
        0 => EventKind::TaskStart,
        1 => EventKind::TaskEnd,
        2 => EventKind::StateEnter,
        3 => EventKind::ModeSwitch,
        4 => EventKind::SignalWrite,
        5 => EventKind::WatchChange,
        _ => return None,
    })
}

fn reaction_to_u8(r: ReactionSpec) -> u8 {
    match r {
        ReactionSpec::HighlightTarget => 0,
        ReactionSpec::HighlightSelf => 1,
        ReactionSpec::ShowValue => 2,
        ReactionSpec::Pulse => 3,
        ReactionSpec::RecordOnly => 4,
    }
}

fn reaction_from_u8(b: u8) -> Option<ReactionSpec> {
    Some(match b {
        0 => ReactionSpec::HighlightTarget,
        1 => ReactionSpec::HighlightSelf,
        2 => ReactionSpec::ShowValue,
        3 => ReactionSpec::Pulse,
        4 => ReactionSpec::RecordOnly,
        _ => return None,
    })
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = read_varint(bytes, pos)? as usize;
    let end = pos.checked_add(len)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    Some(std::str::from_utf8(slice).ok()?.to_owned())
}

/// Binary payload for one [`TraceEntry`]:
///
/// ```text
/// varint seq · varint time_ns · u8 kind · u8 flags ·
/// str path · [str from] · [str to] · [value] ·
/// varint n_reactions · n × u8 · varint n_violations · n × str
/// ```
///
/// where `str` is `varint len + UTF-8 bytes`, `flags` packs
/// `bit0 = from present`, `bit1 = to present`, `bits2-3 = value tag`
/// (0 none, 1 bool, 2 int, 3 real), and `value` is one byte for bools,
/// a zigzag varint for ints, or 8 little-endian `f64` bits for reals.
fn encode_entry_binary(entry: &TraceEntry) -> Vec<u8> {
    let e = &entry.event;
    let mut out = Vec::with_capacity(24 + e.path.len());
    push_varint(&mut out, entry.seq);
    push_varint(&mut out, e.time_ns);
    out.push(kind_to_u8(e.kind));
    let value_tag = match e.value {
        None => 0u8,
        Some(EventValue::Bool(_)) => 1,
        Some(EventValue::Int(_)) => 2,
        Some(EventValue::Real(_)) => 3,
    };
    let flags = u8::from(e.from.is_some()) | (u8::from(e.to.is_some()) << 1) | (value_tag << 2);
    out.push(flags);
    push_str(&mut out, &e.path);
    if let Some(from) = &e.from {
        push_str(&mut out, from);
    }
    if let Some(to) = &e.to {
        push_str(&mut out, to);
    }
    match e.value {
        None => {}
        Some(EventValue::Bool(b)) => out.push(u8::from(b)),
        Some(EventValue::Int(i)) => push_varint(&mut out, zigzag(i)),
        Some(EventValue::Real(r)) => out.extend_from_slice(&r.to_bits().to_le_bytes()),
    }
    push_varint(&mut out, entry.reactions.len() as u64);
    for &r in &entry.reactions {
        out.push(reaction_to_u8(r));
    }
    push_varint(&mut out, entry.violations.len() as u64);
    for v in &entry.violations {
        push_str(&mut out, v);
    }
    out
}

/// Strict inverse of [`encode_entry_binary`]: any unknown tag, bad
/// UTF-8, truncation or trailing byte is a decode failure (`None`), so
/// damage shortens the valid prefix exactly like a corrupt JSON record.
fn decode_entry_binary(bytes: &[u8]) -> Option<TraceEntry> {
    let mut pos = 0usize;
    let seq = read_varint(bytes, &mut pos)?;
    let time_ns = read_varint(bytes, &mut pos)?;
    let kind = kind_from_u8(*bytes.get(pos)?)?;
    pos += 1;
    let flags = *bytes.get(pos)?;
    pos += 1;
    if flags & 0xf0 != 0 {
        return None;
    }
    let path = read_str(bytes, &mut pos)?;
    let from = if flags & 1 != 0 {
        Some(read_str(bytes, &mut pos)?)
    } else {
        None
    };
    let to = if flags & 2 != 0 {
        Some(read_str(bytes, &mut pos)?)
    } else {
        None
    };
    let value = match (flags >> 2) & 3 {
        0 => None,
        1 => {
            let b = *bytes.get(pos)?;
            pos += 1;
            if b > 1 {
                return None;
            }
            Some(EventValue::Bool(b == 1))
        }
        2 => Some(EventValue::Int(unzigzag(read_varint(bytes, &mut pos)?))),
        _ => {
            let raw = bytes.get(pos..pos + 8)?;
            pos += 8;
            Some(EventValue::Real(f64::from_bits(u64::from_le_bytes(
                raw.try_into().ok()?,
            ))))
        }
    };
    let n_reactions = read_varint(bytes, &mut pos)? as usize;
    if n_reactions > bytes.len().saturating_sub(pos) {
        return None;
    }
    let mut reactions = Vec::with_capacity(n_reactions);
    for _ in 0..n_reactions {
        reactions.push(reaction_from_u8(*bytes.get(pos)?)?);
        pos += 1;
    }
    let n_violations = read_varint(bytes, &mut pos)? as usize;
    if n_violations > bytes.len().saturating_sub(pos) {
        return None;
    }
    let mut violations = Vec::with_capacity(n_violations);
    for _ in 0..n_violations {
        violations.push(read_str(bytes, &mut pos)?);
    }
    if pos != bytes.len() {
        return None; // trailing bytes = damage
    }
    Some(TraceEntry {
        seq,
        event: ModelEvent {
            time_ns,
            kind,
            path,
            from,
            to,
            value,
        },
        reactions,
        violations,
    })
}

/// Encodes one trace entry as a `[u32 len BE][payload]` frame in the
/// given codec — the segment-file append unit.
///
/// # Errors
///
/// Rejects payloads that overflow the `u32` length prefix.
pub fn encode_entry(entry: &TraceEntry, codec: Codec) -> Result<Vec<u8>, StoreError> {
    match codec {
        Codec::Json => encode_record(entry),
        Codec::Binary => {
            let payload = encode_entry_binary(entry);
            let mut out = Vec::with_capacity(4 + payload.len());
            out.extend_from_slice(&frame_len(payload.len())?);
            out.extend_from_slice(&payload);
            Ok(out)
        }
    }
}

fn decode_entry(payload: &[u8], codec: Codec) -> Option<TraceEntry> {
    match codec {
        Codec::Json => decode_json::<TraceEntry>(payload),
        Codec::Binary => decode_entry_binary(payload),
    }
}

/// Reads every whole, decodable entry frame from `path` in `codec`,
/// stopping at the first torn or corrupt one (see [`read_records`]).
///
/// # Errors
///
/// Propagates I/O failures; corruption just shortens the valid prefix.
pub fn read_entries(path: &Path, codec: Codec) -> Result<(Vec<TraceEntry>, u64), StoreError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(scan_frames(&bytes, |payload| decode_entry(payload, codec)))
}

// ---------------------------------------------------------------------------
// Segment compression (the cold tier)
// ---------------------------------------------------------------------------

/// Compressed-segment file magic (`seg-XXXXXXXX.lgz` header).
const LGZ_MAGIC: [u8; 4] = *b"GLZ1";

fn hash3(bytes: &[u8]) -> usize {
    let v = u32::from(bytes[0]) | (u32::from(bytes[1]) << 8) | (u32::from(bytes[2]) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> 19) as usize & 0x1fff
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    for chunk in lits.chunks(127) {
        out.push(chunk.len() as u8);
        out.extend_from_slice(chunk);
    }
}

/// Dependency-free LZ77 with a one-slot hash table (LZRW-style): the
/// token stream is `control byte` + operands, where a control byte with
/// the high bit clear is a literal run of 1–127 bytes, and with the high
/// bit set a back-reference of length 3–130 (`(ctl & 0x7f) + 3`)
/// followed by a 16-bit little-endian distance (1–65535). Overlapping
/// matches are allowed (run-length compression falls out for free).
/// Framed JSON/binary trace records are highly repetitive (paths and
/// structure repeat every record), so sealed segments shrink several-fold.
fn lz_compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    let mut table = [0usize; 0x2000]; // position + 1 of each 3-byte hash
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i < raw.len() {
        let mut match_len = 0usize;
        let mut match_off = 0usize;
        if i + 3 <= raw.len() {
            let h = hash3(&raw[i..]);
            let cand = table[h];
            table[h] = i + 1;
            if cand > 0 {
                let c = cand - 1;
                let off = i - c;
                if off > 0 && off <= 0xffff {
                    let max = (raw.len() - i).min(130);
                    let mut l = 0usize;
                    while l < max && raw[c + l] == raw[i + l] {
                        l += 1;
                    }
                    if l >= 3 {
                        match_len = l;
                        match_off = off;
                    }
                }
            }
        }
        if match_len >= 3 {
            flush_literals(&mut out, &raw[lit_start..i]);
            out.push(0x80 | (match_len - 3) as u8);
            out.extend_from_slice(&(match_off as u16).to_le_bytes());
            i += match_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, &raw[lit_start..]);
    out
}

/// Inverse of [`lz_compress`]; `None` on any malformed token or when
/// the output does not come out to exactly `raw_len` bytes.
fn lz_decompress(data: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0usize;
    while i < data.len() {
        let ctl = data[i];
        i += 1;
        if ctl & 0x80 == 0 {
            let n = ctl as usize;
            if n == 0 || i + n > data.len() {
                return None;
            }
            out.extend_from_slice(&data[i..i + n]);
            i += n;
        } else {
            let len = (ctl & 0x7f) as usize + 3;
            let off = u16::from_le_bytes([*data.get(i)?, *data.get(i + 1)?]) as usize;
            i += 2;
            if off == 0 || off > out.len() {
                return None;
            }
            let start = out.len() - off;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
        if out.len() > raw_len {
            return None;
        }
    }
    (out.len() == raw_len).then_some(out)
}

/// Packs a raw segment byte stream into the `.lgz` on-disk form:
/// `GLZ1` magic, `u64 LE` raw length, LZ token stream.
fn pack_segment(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + raw.len() / 2);
    out.extend_from_slice(&LGZ_MAGIC);
    out.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    out.extend_from_slice(&lz_compress(raw));
    out
}

/// Unpacks a `.lgz` file image back to the raw segment bytes; `None`
/// when the header or token stream is damaged.
fn unpack_segment(data: &[u8]) -> Option<Vec<u8>> {
    if data.len() < 12 || data[..4] != LGZ_MAGIC {
        return None;
    }
    let raw_len = u64::from_le_bytes(data[4..12].try_into().ok()?);
    lz_decompress(&data[12..], usize::try_from(raw_len).ok()?)
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// The classic in-memory trace store: a `Vec` of entries. Fast,
/// unbounded, gone when the process exits — the default backend.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    entries: Vec<TraceEntry>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store pre-filled with `entries` (used when deserializing a
    /// saved trace).
    pub fn from_entries(entries: Vec<TraceEntry>) -> Self {
        MemStore { entries }
    }
}

impl TraceStore for MemStore {
    fn append(&mut self, entry: TraceEntry) -> Result<(), StoreError> {
        debug_assert_eq!(entry.seq, self.entries.len() as u64);
        self.entries.push(entry);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    fn read_into(
        &self,
        from_seq: u64,
        to_seq: u64,
        out: &mut Vec<TraceEntry>,
    ) -> Result<(), StoreError> {
        let n = self.entries.len();
        let from = (from_seq as usize).min(n);
        let to = (to_seq as usize).min(n);
        if from < to {
            out.extend_from_slice(&self.entries[from..to]);
        }
        Ok(())
    }

    fn window_bounds(&self, t0_ns: u64, t1_ns: u64) -> Result<(u64, u64), StoreError> {
        if t0_ns > t1_ns {
            return Ok((0, 0));
        }
        // Entries are time-ordered, so both boundaries binary-search.
        let lo = self.entries.partition_point(|e| e.event.time_ns < t0_ns);
        let hi = self.entries.partition_point(|e| e.event.time_ns <= t1_ns);
        if lo >= hi {
            Ok((0, 0))
        } else {
            Ok((lo as u64, hi as u64))
        }
    }

    fn time_range(&self) -> Option<(u64, u64)> {
        let first = self.entries.first()?.event.time_ns;
        let last = self.entries.last()?.event.time_ns;
        Some((first, last))
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn as_slice(&self) -> Option<&[TraceEntry]> {
        Some(&self.entries)
    }
}

// ---------------------------------------------------------------------------
// OffsetMemStore
// ---------------------------------------------------------------------------

/// An in-memory trace store whose first entry has sequence number
/// `base` instead of 0 — the backend a time-travel replica records
/// into.
///
/// A replica restored from a checkpoint taken at trace length `base`
/// regenerates entries `base, base+1, …` by deterministic replay; the
/// entries below `base` already live in the durable store and are
/// *not* re-recorded. [`TraceStore::len`] reports `base + stored`,
/// [`TraceStore::first_retained_seq`] reports `base`, and reads below
/// `base` clamp up to it, so the replica's trace numbering lines up
/// exactly with the original run's.
#[derive(Debug, Clone)]
pub struct OffsetMemStore {
    base: u64,
    entries: Vec<TraceEntry>,
}

impl OffsetMemStore {
    /// An empty store whose next append must carry `seq == base`.
    pub fn new(base: u64) -> Self {
        OffsetMemStore {
            base,
            entries: Vec::new(),
        }
    }
}

impl TraceStore for OffsetMemStore {
    fn append(&mut self, entry: TraceEntry) -> Result<(), StoreError> {
        debug_assert_eq!(entry.seq, self.len());
        self.entries.push(entry);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    fn read_into(
        &self,
        from_seq: u64,
        to_seq: u64,
        out: &mut Vec<TraceEntry>,
    ) -> Result<(), StoreError> {
        let n = self.entries.len();
        let from = (from_seq.max(self.base) - self.base).min(n as u64) as usize;
        let to = (to_seq.max(self.base) - self.base).min(n as u64) as usize;
        if from < to {
            out.extend_from_slice(&self.entries[from..to]);
        }
        Ok(())
    }

    fn window_bounds(&self, t0_ns: u64, t1_ns: u64) -> Result<(u64, u64), StoreError> {
        if t0_ns > t1_ns {
            return Ok((0, 0));
        }
        let lo = self.entries.partition_point(|e| e.event.time_ns < t0_ns);
        let hi = self.entries.partition_point(|e| e.event.time_ns <= t1_ns);
        if lo >= hi {
            Ok((0, 0))
        } else {
            Ok((self.base + lo as u64, self.base + hi as u64))
        }
    }

    fn time_range(&self) -> Option<(u64, u64)> {
        let first = self.entries.first()?.event.time_ns;
        let last = self.entries.last()?.event.time_ns;
        Some((first, last))
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn as_slice(&self) -> Option<&[TraceEntry]> {
        Some(&self.entries)
    }

    fn first_retained_seq(&self) -> u64 {
        self.base
    }
}

// ---------------------------------------------------------------------------
// SegmentStore
// ---------------------------------------------------------------------------

/// Default entries per segment for disk-backed traces.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 256;

/// Persisted store metadata (`meta.json`). `codec` was added after v1
/// shipped; metas without it are JSON stores (the only codec that
/// existed), which is exactly what `#[serde(default)]` yields.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreMeta {
    version: u32,
    capacity: usize,
    #[serde(default)]
    codec: Codec,
}

/// Everything [`SegmentStore::open_with`] needs to create or attach a
/// store: segment capacity, payload codec, and retention policy. The
/// codec applies to *new* stores — an existing store keeps the codec
/// recorded in its `meta.json`. Retention is a runtime policy and may
/// differ per boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Entries per segment file.
    pub capacity: usize,
    /// Payload codec for newly created stores.
    pub codec: Codec,
    /// Compression/eviction policy (default: keep everything).
    pub retention: Retention,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            capacity: DEFAULT_SEGMENT_CAPACITY,
            codec: Codec::default(),
            retention: Retention::default(),
        }
    }
}

/// Index entry for one sealed (full) segment still on disk.
#[derive(Debug, Clone, Copy)]
struct SegmentMeta {
    first_seq: u64,
    last_seq: u64,
    t0_ns: u64,
    t1_ns: u64,
    /// On-disk size of the segment file (raw frames, or the whole
    /// `.lgz` image once compressed).
    bytes: u64,
    /// `true` once [`TraceStore::maintain`] moved it to the `.lgz`
    /// cold tier.
    compressed: bool,
}

impl SegmentMeta {
    fn entry_count(&self) -> u64 {
        self.last_seq - self.first_seq + 1
    }
}

/// Append-only, segmented on-disk trace store (see the module docs for
/// layout, indexing and crash-safety).
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    capacity: usize,
    codec: Codec,
    retention: Retention,
    /// Index over retained sealed segments, ascending by sequence.
    /// Eviction removes from the front; the first element's
    /// `first_seq` is the retention floor.
    sealed: Vec<SegmentMeta>,
    /// The active segment's entries, cached in memory (≤ `capacity`).
    tail: Vec<TraceEntry>,
    /// Sequence number of the first tail entry — also the total number
    /// of entries ever sealed (including evicted ones), which keeps
    /// [`TraceStore::len`] counting the full appended history.
    tail_first: u64,
    /// Bytes of valid encoded records in the active segment file.
    tail_bytes: u64,
    /// Writer on the active segment file; opened lazily.
    writer: Option<BufWriter<File>>,
    /// Eviction clamp (see [`TraceStore::set_retain_floor`]): entries
    /// with `seq >= retain_floor` must stay readable. `u64::MAX` = no
    /// clamp.
    retain_floor: u64,
}

impl SegmentStore {
    /// Opens (or creates) the store at `dir`, recovering from any torn
    /// tail left by an interrupted writer. `capacity` (entries per
    /// segment) is used when creating a fresh store; an existing store
    /// keeps the capacity recorded in its `meta.json`.
    ///
    /// Opening costs one sequential scan of the segment files (that is
    /// the recovery validation); queries afterwards are indexed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and rejects unreadable metadata.
    pub fn open(dir: impl AsRef<Path>, capacity: usize) -> Result<Self, StoreError> {
        Self::open_with(
            dir,
            SegmentConfig {
                capacity,
                ..SegmentConfig::default()
            },
        )
    }

    /// [`SegmentStore::open`] with an explicit codec and retention
    /// policy. A fresh store records `config.codec` in its `meta.json`;
    /// an existing store keeps the codec it was written with (the
    /// config's codec is ignored), so mixed-codec session directories
    /// open cleanly. Retention applies from this open onward.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and rejects unreadable metadata.
    pub fn open_with(dir: impl AsRef<Path>, config: SegmentConfig) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let meta_path = dir.join("meta.json");
        let (capacity, codec) = if meta_path.exists() {
            let text = std::fs::read_to_string(&meta_path)?;
            let meta: StoreMeta = serde_json::from_str(&text)
                .map_err(|e| StoreError::new(format!("corrupt meta.json: {e}")))?;
            if meta.version != 1 {
                return Err(StoreError::new(format!(
                    "unsupported store version {}",
                    meta.version
                )));
            }
            (meta.capacity.max(1), meta.codec)
        } else {
            let capacity = config.capacity.max(1);
            let meta = StoreMeta {
                version: 1,
                capacity,
                codec: config.codec,
            };
            // Atomic so a kill (or power loss) mid-write cannot leave a
            // half-written meta masquerading as the real one.
            let json = serde_json::to_string(&meta).expect("meta serializes");
            write_atomic(&meta_path, json.as_bytes())?;
            (capacity, config.codec)
        };

        let mut store = SegmentStore {
            dir,
            capacity,
            codec,
            retention: config.retention,
            sealed: Vec::new(),
            tail: Vec::new(),
            tail_first: 0,
            tail_bytes: 0,
            writer: None,
            retain_floor: u64::MAX,
        };
        store.recover()?;
        Ok(store)
    }

    /// Entries per segment.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The payload codec this store was created with.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Number of segment files currently backing the store (sealed +
    /// active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.tail.is_empty())
    }

    fn disk_bytes(&self) -> u64 {
        self.sealed.iter().map(|m| m.bytes).sum::<u64>() + self.tail_bytes
    }

    fn segment_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("seg-{index:08}.log"))
    }

    fn compressed_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("seg-{index:08}.lgz"))
    }

    fn segment_index(&self, first_seq: u64) -> usize {
        (first_seq as usize) / self.capacity
    }

    /// Lists the segment files on disk as `(index, has_log, has_lgz)`,
    /// ascending, deleting stale `.tmp` leftovers from an interrupted
    /// compaction on the way.
    fn scan_dir(&self) -> Result<Vec<(usize, bool, bool)>, StoreError> {
        let mut present = std::collections::BTreeMap::<usize, (bool, bool)>::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                std::fs::remove_file(entry.path())?;
                continue;
            }
            let (stem, compressed) = if let Some(s) = name.strip_suffix(".log") {
                (s, false)
            } else if let Some(s) = name.strip_suffix(".lgz") {
                (s, true)
            } else {
                continue;
            };
            let Some(idx) = stem
                .strip_prefix("seg-")
                .and_then(|d| d.parse::<usize>().ok())
            else {
                continue;
            };
            let slot = present.entry(idx).or_insert((false, false));
            if compressed {
                slot.1 = true;
            } else {
                slot.0 = true;
            }
        }
        Ok(present.iter().map(|(&i, &(l, z))| (i, l, z)).collect())
    }

    /// Scans the segment files in order, rebuilding the index and
    /// truncating at the first sign of a torn write. Everything after
    /// the damage point (later records, later segments) is removed, so
    /// the surviving store is a valid *suffix-free prefix* of the
    /// retained trace. The scan starts at the lowest index present —
    /// eviction deletes oldest segments, so a store need not start at
    /// segment 0.
    fn recover(&mut self) -> Result<(), StoreError> {
        let mut files = self.scan_dir()?;
        let Some(&(first_idx, ..)) = files.first() else {
            return Ok(()); // brand-new store
        };
        // Contiguity: appends create segments in order and eviction
        // deletes oldest-first, so a gap can only mean stale files from
        // a damaged history — drop everything at and after it.
        if let Some(gap) = files
            .iter()
            .enumerate()
            .position(|(i, &(idx, ..))| idx != first_idx + i)
        {
            for &(idx, has_log, has_lgz) in &files[gap..] {
                if has_log {
                    std::fs::remove_file(self.segment_path(idx))?;
                }
                if has_lgz {
                    std::fs::remove_file(self.compressed_path(idx))?;
                }
            }
            files.truncate(gap);
        }
        self.tail_first = (first_idx * self.capacity) as u64;
        for &(idx, has_log, has_lgz) in &files {
            let expected_first = (idx * self.capacity) as u64;
            if has_lgz {
                // A valid .lgz is the newer truth: compaction removes
                // the .log only after the .lgz rename lands.
                let lgz_path = self.compressed_path(idx);
                let data = std::fs::read(&lgz_path)?;
                let entries = unpack_segment(&data)
                    .map(|raw| scan_frames(&raw, |p| decode_entry(p, self.codec)).0)
                    .filter(|entries| {
                        entries.len() == self.capacity
                            && entries
                                .iter()
                                .enumerate()
                                .all(|(i, e)| e.seq == expected_first + i as u64)
                    });
                if let Some(entries) = entries {
                    if has_log {
                        std::fs::remove_file(self.segment_path(idx))?;
                    }
                    self.sealed.push(SegmentMeta {
                        first_seq: expected_first,
                        last_seq: expected_first + entries.len() as u64 - 1,
                        t0_ns: entries.first().expect("full").event.time_ns,
                        t1_ns: entries.last().expect("full").event.time_ns,
                        bytes: data.len() as u64,
                        compressed: true,
                    });
                    self.tail_first = expected_first + self.capacity as u64;
                    continue;
                }
                // Damaged cold segment: fall back to the raw .log when
                // it survived (crash before the remove); otherwise the
                // valid history ends here.
                std::fs::remove_file(&lgz_path)?;
                if !has_log {
                    self.drop_segments_after(idx)?;
                    self.tail_first = expected_first;
                    return Ok(());
                }
            }
            let path = self.segment_path(idx);
            let (entries, valid_len) = read_entries(&path, self.codec)?;
            // Entries must continue the dense sequence; a mismatch means
            // the file was damaged beyond framing (e.g. bytes flipped in
            // a seq field) — cut there.
            let mut good = 0usize;
            for (i, e) in entries.iter().enumerate() {
                if i >= self.capacity || e.seq != expected_first + i as u64 {
                    break;
                }
                good += 1;
            }
            let (entries, bytes) = if good < entries.len() {
                let mut truncated = entries;
                truncated.truncate(good);
                // Re-measure the valid byte prefix for the kept records.
                let mut kept = 0u64;
                for e in &truncated {
                    kept += encode_entry(e, self.codec)?.len() as u64;
                }
                truncate_file(&path, kept)?;
                (truncated, kept)
            } else {
                let file_len = std::fs::metadata(&path)?.len();
                if valid_len < file_len {
                    truncate_file(&path, valid_len)?;
                }
                (entries, valid_len)
            };
            if entries.is_empty() {
                // Nothing usable in this segment: delete it and stop.
                std::fs::remove_file(&path)?;
                self.drop_segments_after(idx)?;
                self.tail_first = expected_first;
                return Ok(());
            }
            if entries.len() < self.capacity {
                // Short segment: it becomes the active tail; later
                // segments (if any survived a bizarre crash) are stale.
                self.drop_segments_after(idx)?;
                self.tail_first = expected_first;
                self.tail_bytes = bytes;
                self.tail = entries;
                return Ok(());
            }
            self.sealed.push(SegmentMeta {
                first_seq: expected_first,
                last_seq: expected_first + entries.len() as u64 - 1,
                t0_ns: entries.first().expect("nonempty").event.time_ns,
                t1_ns: entries.last().expect("nonempty").event.time_ns,
                bytes,
                compressed: false,
            });
            self.tail_first = expected_first + self.capacity as u64;
        }
        Ok(())
    }

    /// Deletes every segment file (plain or compressed) after `index`.
    fn drop_segments_after(&self, index: usize) -> Result<(), StoreError> {
        let mut i = index + 1;
        loop {
            let mut any = false;
            let log = self.segment_path(i);
            if log.exists() {
                std::fs::remove_file(&log)?;
                any = true;
            }
            let lgz = self.compressed_path(i);
            if lgz.exists() {
                std::fs::remove_file(&lgz)?;
                any = true;
            }
            if !any {
                return Ok(());
            }
            i += 1;
        }
    }

    /// The retained sealed segment containing `seq`. Callers guarantee
    /// `first_retained_seq() <= seq < tail_first`.
    fn sealed_containing(&self, seq: u64) -> &SegmentMeta {
        let pos = self.sealed.partition_point(|m| m.last_seq < seq);
        &self.sealed[pos]
    }

    /// Reads one retained sealed segment's entries from disk, from
    /// whichever tier (raw `.log` or compressed `.lgz`) holds it.
    fn load_sealed(&self, meta: &SegmentMeta) -> Result<Vec<TraceEntry>, StoreError> {
        let idx = self.segment_index(meta.first_seq);
        let entries = if meta.compressed {
            let data = std::fs::read(self.compressed_path(idx))?;
            let raw = unpack_segment(&data)
                .ok_or_else(|| StoreError::new(format!("compressed segment {idx} is damaged")))?;
            scan_frames(&raw, |p| decode_entry(p, self.codec)).0
        } else {
            read_entries(&self.segment_path(idx), self.codec)?.0
        };
        if entries.len() as u64 != meta.entry_count() {
            return Err(StoreError::new(format!(
                "segment {idx} decoded {} of {} entries",
                entries.len(),
                meta.entry_count()
            )));
        }
        Ok(entries)
    }

    fn active_writer(&mut self) -> Result<&mut BufWriter<File>, StoreError> {
        if self.writer.is_none() {
            let path = self.segment_path(self.segment_index(self.tail_first));
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            self.writer = Some(BufWriter::new(file));
        }
        Ok(self.writer.as_mut().expect("just installed"))
    }
}

impl TraceStore for SegmentStore {
    fn append(&mut self, entry: TraceEntry) -> Result<(), StoreError> {
        debug_assert_eq!(entry.seq, self.len());
        let record = encode_entry(&entry, self.codec)?;
        self.active_writer()?.write_all(&record)?;
        self.tail_bytes += record.len() as u64;
        self.tail.push(entry);
        if self.tail.len() >= self.capacity {
            // Seal: flush, index, and start the next segment fresh.
            // Deliberately no fsync — appends are the hot path, and
            // owners that need power-loss durability journal commands
            // (fsynced) and regenerate lost trace bytes by
            // deterministic replay; see `TraceStore::sync`.
            if let Some(mut w) = self.writer.take() {
                w.flush()?;
            }
            self.sealed.push(SegmentMeta {
                first_seq: self.tail_first,
                last_seq: self.tail_first + self.tail.len() as u64 - 1,
                t0_ns: self.tail.first().expect("full").event.time_ns,
                t1_ns: self.tail.last().expect("full").event.time_ns,
                bytes: self.tail_bytes,
                compressed: false,
            });
            self.tail_first += self.tail.len() as u64;
            self.tail.clear();
            self.tail_bytes = 0;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.tail_first + self.tail.len() as u64
    }

    fn read_into(
        &self,
        from_seq: u64,
        to_seq: u64,
        out: &mut Vec<TraceEntry>,
    ) -> Result<(), StoreError> {
        let len = self.len();
        // Reads below the retention floor are clamped up to it — the
        // evicted history is gone by policy, not by failure.
        let from = from_seq.max(self.first_retained_seq()).min(len);
        let to = to_seq.min(len);
        if from >= to {
            return Ok(());
        }
        let mut seq = from;
        // Sealed segments: one file read per touched segment.
        while seq < to && seq < self.tail_first {
            let meta = *self.sealed_containing(seq);
            let entries = self.load_sealed(&meta)?;
            let lo = (seq - meta.first_seq) as usize;
            let hi = ((to.min(meta.last_seq + 1)) - meta.first_seq) as usize;
            out.extend_from_slice(&entries[lo..hi.min(entries.len())]);
            seq = meta.first_seq + hi as u64;
        }
        // Active tail: served from the in-memory cache.
        if seq < to {
            let lo = (seq - self.tail_first) as usize;
            let hi = (to - self.tail_first) as usize;
            out.extend_from_slice(&self.tail[lo..hi]);
        }
        Ok(())
    }

    fn window_bounds(&self, t0_ns: u64, t1_ns: u64) -> Result<(u64, u64), StoreError> {
        if t0_ns > t1_ns || self.len() == self.first_retained_seq() {
            return Ok((0, 0));
        }
        let tail_first = self.tail_first;
        // `lo`: first seq with time >= t0. Binary-search the sealed
        // index, then partition inside the one boundary segment.
        let lo = {
            let seg = self.sealed.partition_point(|m| m.t1_ns < t0_ns);
            if seg < self.sealed.len() {
                let entries = self.load_sealed(&self.sealed[seg])?;
                self.sealed[seg].first_seq
                    + entries.partition_point(|e| e.event.time_ns < t0_ns) as u64
            } else {
                tail_first + self.tail.partition_point(|e| e.event.time_ns < t0_ns) as u64
            }
        };
        // `hi`: one past the last seq with time <= t1.
        let hi = {
            let after_tail = !self.tail.is_empty()
                && self.tail.first().expect("nonempty").event.time_ns <= t1_ns;
            if after_tail {
                tail_first + self.tail.partition_point(|e| e.event.time_ns <= t1_ns) as u64
            } else {
                let seg = self.sealed.partition_point(|m| m.t0_ns <= t1_ns);
                if seg == 0 {
                    return Ok((0, 0));
                }
                let entries = self.load_sealed(&self.sealed[seg - 1])?;
                self.sealed[seg - 1].first_seq
                    + entries.partition_point(|e| e.event.time_ns <= t1_ns) as u64
            }
        };
        if lo >= hi {
            Ok((0, 0))
        } else {
            Ok((lo, hi))
        }
    }

    fn time_range(&self) -> Option<(u64, u64)> {
        let first = if let Some(m) = self.sealed.first() {
            m.t0_ns
        } else {
            self.tail.first()?.event.time_ns
        };
        let last = if let Some(e) = self.tail.last() {
            e.event.time_ns
        } else {
            self.sealed.last()?.t1_ns
        };
        Some((first, last))
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(w) = self.writer.as_mut() {
            w.flush()?;
        }
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            segments: self.segment_count() as u64,
            disk_bytes: self.disk_bytes(),
            compacted_segments: self.sealed.iter().filter(|m| m.compressed).count() as u64,
        }
    }

    fn first_retained_seq(&self) -> u64 {
        self.sealed
            .first()
            .map(|m| m.first_seq)
            .unwrap_or(self.tail_first)
    }

    /// One bounded maintenance step: move the oldest eligible sealed
    /// segment to the compressed cold tier (crash-safe: write `.tmp`,
    /// fsync, rename to `.lgz`, then remove the `.log` — recovery
    /// prefers whichever image validates), then evict oldest sealed
    /// segments while the store is over its disk budget.
    fn maintain(&mut self) -> Result<MaintenanceReport, StoreError> {
        let mut report = MaintenanceReport::default();
        if let Some(keep) = self.retention.compress_after {
            let eligible = self.sealed.len().saturating_sub(keep);
            if let Some(pos) = self.sealed[..eligible].iter().position(|m| !m.compressed) {
                let meta = self.sealed[pos];
                let idx = self.segment_index(meta.first_seq);
                let raw = std::fs::read(self.segment_path(idx))?;
                let packed = pack_segment(&raw);
                write_atomic(&self.compressed_path(idx), &packed)?;
                std::fs::remove_file(self.segment_path(idx))?;
                report.compacted_segments = 1;
                report.reclaimed_bytes += meta.bytes.saturating_sub(packed.len() as u64);
                self.sealed[pos].bytes = packed.len() as u64;
                self.sealed[pos].compressed = true;
            }
        }
        if let Some(budget) = self.retention.max_disk_bytes {
            // The clamp wins over the budget: a segment holding any
            // entry at or past the retain floor (the oldest retained
            // checkpoint's trace position) is never evicted, even if
            // the store stays over budget as a result.
            while self.disk_bytes() > budget
                && self
                    .sealed
                    .first()
                    .is_some_and(|m| m.last_seq < self.retain_floor)
            {
                let meta = self.sealed.remove(0);
                let idx = self.segment_index(meta.first_seq);
                let path = if meta.compressed {
                    self.compressed_path(idx)
                } else {
                    self.segment_path(idx)
                };
                std::fs::remove_file(&path)?;
                report.dropped_segments += 1;
                report.dropped_entries += meta.entry_count();
                report.reclaimed_bytes += meta.bytes;
            }
        }
        Ok(report)
    }

    fn set_retain_floor(&mut self, floor: u64) {
        self.retain_floor = floor;
    }
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

/// Checkpoint-file magic: the first 4 bytes of every `.ck` file.
const CKPT_MAGIC: [u8; 4] = *b"GCP1";

/// Codec tag byte after the magic. Only JSON exists today; the tag is
/// in the file (not a sidecar) so future codecs can coexist in one
/// directory, exactly like segment stores record theirs in `meta.json`.
const CKPT_CODEC_JSON: u8 = 0;

/// Index entry for one retained checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Trace length (next sequence number) at the checkpoint instant.
    pub seq: u64,
    /// Simulation time of the checkpoint instant.
    pub t_ns: u64,
    /// On-disk size of the checkpoint file.
    pub bytes: u64,
}

/// A directory of full-state checkpoints keyed by `(seq, t_ns)` — the
/// anchor points O(interval) time travel restores and replays from.
///
/// Layout: one file per checkpoint,
/// `ckpt-<seq:016>-<t_ns:020>.ck`, holding `GCP1` magic, a codec tag
/// byte, and one `[u32 len BE][payload]` frame (the same framing as
/// segments, journals and the wire). The payload is opaque to the
/// store — the debug server puts a serialized session checkpoint
/// there.
///
/// **Crash safety**: writes go to a `.tmp` sibling, fsync, then rename
/// — a kill at any byte leaves either the previous directory contents
/// (the `.tmp` is deleted on the next open) or the complete new file.
/// Opening validates every file's magic, tag and frame length and
/// deletes damaged ones, so a seek never anchors on a torn checkpoint:
/// it falls back to the previous one (or to replay from zero).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Ascending by `seq` (and by `t_ns` — simulation time and trace
    /// length grow together).
    metas: Vec<CheckpointMeta>,
}

impl CheckpointStore {
    /// Opens (or creates) the checkpoint directory, deleting stale
    /// `.tmp` leftovers and damaged files on the way.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut metas = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                std::fs::remove_file(entry.path())?;
                continue;
            }
            let Some((seq, t_ns)) = parse_checkpoint_name(name) else {
                continue;
            };
            let bytes = std::fs::read(entry.path())?;
            if validate_checkpoint(&bytes).is_none() {
                // A torn or corrupt checkpoint must never anchor a
                // seek — remove it so the index only holds usable ones.
                std::fs::remove_file(entry.path())?;
                continue;
            }
            metas.push(CheckpointMeta {
                seq,
                t_ns,
                bytes: bytes.len() as u64,
            });
        }
        metas.sort_by_key(|m| (m.seq, m.t_ns));
        Ok(CheckpointStore { dir, metas })
    }

    /// Retained checkpoints, ascending by sequence.
    pub fn metas(&self) -> &[CheckpointMeta] {
        &self.metas
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// `true` when no checkpoint is retained.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Trace position of the oldest retained checkpoint — what the
    /// trace store's retain floor is pinned to.
    pub fn oldest_seq(&self) -> Option<u64> {
        self.metas.first().map(|m| m.seq)
    }

    /// The newest retained checkpoint.
    pub fn latest(&self) -> Option<CheckpointMeta> {
        self.metas.last().copied()
    }

    fn path_for(&self, seq: u64, t_ns: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:016}-{t_ns:020}.ck"))
    }

    /// Persists one checkpoint payload under `(seq, t_ns)` crash-safely
    /// ([`write_atomic`]). Returns the file size written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and rejects payloads over the `u32`
    /// frame limit.
    pub fn save(&mut self, seq: u64, t_ns: u64, payload: &[u8]) -> Result<u64, StoreError> {
        let mut image = Vec::with_capacity(9 + payload.len());
        image.extend_from_slice(&CKPT_MAGIC);
        image.push(CKPT_CODEC_JSON);
        image.extend_from_slice(&frame_len(payload.len())?);
        image.extend_from_slice(payload);
        write_atomic(&self.path_for(seq, t_ns), &image)?;
        match self
            .metas
            .iter()
            .position(|m| m.seq == seq && m.t_ns == t_ns)
        {
            Some(i) => self.metas[i].bytes = image.len() as u64,
            None => {
                self.metas.push(CheckpointMeta {
                    seq,
                    t_ns,
                    bytes: image.len() as u64,
                });
                self.metas.sort_by_key(|m| (m.seq, m.t_ns));
            }
        }
        Ok(image.len() as u64)
    }

    /// Loads and validates the checkpoint at `(meta.seq, meta.t_ns)`,
    /// returning its payload bytes.
    ///
    /// # Errors
    ///
    /// I/O failures, and validation failures (bad magic, unknown codec
    /// tag, torn frame) — callers fall back to an older checkpoint.
    pub fn load(&self, meta: &CheckpointMeta) -> Result<Vec<u8>, StoreError> {
        let bytes = std::fs::read(self.path_for(meta.seq, meta.t_ns))?;
        validate_checkpoint(&bytes)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| {
                StoreError::new(format!(
                    "checkpoint at seq {} (t={} ns) is damaged",
                    meta.seq, meta.t_ns
                ))
            })
    }
}

/// Parses `ckpt-<seq:016>-<t_ns:020>.ck` back into `(seq, t_ns)`.
fn parse_checkpoint_name(name: &str) -> Option<(u64, u64)> {
    let stem = name.strip_prefix("ckpt-")?.strip_suffix(".ck")?;
    let (seq, t_ns) = stem.split_once('-')?;
    Some((seq.parse().ok()?, t_ns.parse().ok()?))
}

/// Checks a checkpoint file image (magic, codec tag, exact frame
/// length) and returns the payload slice when whole.
fn validate_checkpoint(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < 9 || bytes[..4] != CKPT_MAGIC || bytes[4] != CKPT_CODEC_JSON {
        return None;
    }
    let len = u32::from_be_bytes(bytes[5..9].try_into().ok()?) as usize;
    let payload = &bytes[9..];
    (payload.len() == len).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdf_gdm::{EventKind, ModelEvent};

    fn entry(seq: u64, t: u64) -> TraceEntry {
        TraceEntry {
            seq,
            event: ModelEvent::new(t, EventKind::StateEnter, "A/fsm").with_to("Run"),
            reactions: vec![],
            violations: vec![],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        // A per-process atomic counter, not the wall clock: parallel
        // tests can land in the same nanosecond and collide.
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("gmdf-store-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn segment_store_round_trips_across_reopen() {
        let dir = tmp_dir("roundtrip");
        {
            let mut s = SegmentStore::open(&dir, 4).unwrap();
            for i in 0..11 {
                s.append(entry(i, 100 * (i + 1))).unwrap();
            }
            s.sync().unwrap();
            assert_eq!(s.len(), 11);
            assert_eq!(s.segment_count(), 3);
        }
        let s = SegmentStore::open(&dir, 999).unwrap(); // capacity from meta, not arg
        assert_eq!(s.capacity(), 4);
        assert_eq!(s.len(), 11);
        let mut all = Vec::new();
        s.read_into(0, u64::MAX, &mut all).unwrap();
        assert_eq!(all.len(), 11);
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.event.time_ns, 100 * (i as u64 + 1));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn window_bounds_match_memory_semantics() {
        let dir = tmp_dir("window");
        let mut mem = MemStore::new();
        let mut disk = SegmentStore::open(&dir, 3).unwrap();
        for i in 0..10 {
            let e = entry(i, 50 * i); // times 0,50,...,450
            mem.append(e.clone()).unwrap();
            disk.append(e).unwrap();
        }
        for (t0, t1) in [
            (0, 450),
            (0, 0),
            (49, 51),
            (50, 100),
            (451, 900),
            (200, 100),
            (125, 275),
            (450, 450),
        ] {
            assert_eq!(
                mem.window_bounds(t0, t1).unwrap(),
                disk.window_bounds(t0, t1).unwrap(),
                "window [{t0},{t1}]"
            );
        }
        assert_eq!(mem.time_range(), disk.time_range());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        {
            let mut s = SegmentStore::open(&dir, 4).unwrap();
            for i in 0..6 {
                s.append(entry(i, 10 * i)).unwrap();
            }
            s.sync().unwrap();
        }
        // Cut the active segment mid-record.
        let tail_path = dir.join("seg-00000001.log");
        let bytes = std::fs::read(&tail_path).unwrap();
        std::fs::write(&tail_path, &bytes[..bytes.len() - 3]).unwrap();
        let mut s = SegmentStore::open(&dir, 4).unwrap();
        assert_eq!(s.len(), 5, "torn record dropped, prefix kept");
        // The store keeps appending correctly after recovery.
        s.append(entry(5, 50)).unwrap();
        s.sync().unwrap();
        let mut all = Vec::new();
        s.read_into(0, u64::MAX, &mut all).unwrap();
        assert_eq!(all.len(), 6);
        assert!(all.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_payload_truncates_from_damage_point() {
        let dir = tmp_dir("corrupt");
        {
            let mut s = SegmentStore::open(&dir, 8).unwrap();
            for i in 0..5 {
                s.append(entry(i, 10 * i)).unwrap();
            }
            s.sync().unwrap();
        }
        let path = dir.join("seg-00000000.log");
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the third record's JSON payload.
        let rec = encode_record(&entry(0, 0)).unwrap().len();
        bytes[2 * rec + 10] = b'\xff';
        std::fs::write(&path, &bytes).unwrap();
        let s = SegmentStore::open(&dir, 8).unwrap();
        assert_eq!(s.len(), 2, "valid prefix before the corrupt record");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_track_segments_and_bytes_across_reopen() {
        let dir = tmp_dir("stats");
        let expected: u64 = (0..6)
            .map(|i| encode_record(&entry(i, 10 * i)).unwrap().len() as u64)
            .sum();
        {
            let mut s = SegmentStore::open(&dir, 4).unwrap();
            assert_eq!(s.stats(), StoreStats::default());
            for i in 0..6 {
                s.append(entry(i, 10 * i)).unwrap();
            }
            s.sync().unwrap();
            assert_eq!(
                s.stats(),
                StoreStats {
                    segments: 2,
                    disk_bytes: expected,
                    compacted_segments: 0
                }
            );
        }
        // Recovery re-seeds the byte count from the files themselves.
        let s = SegmentStore::open(&dir, 4).unwrap();
        assert_eq!(
            s.stats(),
            StoreStats {
                segments: 2,
                disk_bytes: expected,
                compacted_segments: 0
            }
        );
        assert_eq!(MemStore::new().stats(), StoreStats::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_queries() {
        let dir = tmp_dir("empty");
        let s = SegmentStore::open(&dir, 4).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.window_bounds(0, u64::MAX).unwrap(), (0, 0));
        assert_eq!(s.time_range(), None);
        let mut out = Vec::new();
        s.read_into(0, 10, &mut out).unwrap();
        assert!(out.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A payload over `u32::MAX` must be rejected, not length-truncated
    /// into a desynchronized stream. The bound check is a pure function
    /// of the length, so it is testable without a 4 GiB allocation.
    #[test]
    fn oversized_record_is_an_error_not_a_truncated_prefix() {
        assert_eq!(frame_len(0).unwrap(), [0, 0, 0, 0]);
        assert_eq!(
            frame_len(u32::MAX as usize).unwrap(),
            u32::MAX.to_be_bytes()
        );
        let err = frame_len(u32::MAX as usize + 1).unwrap_err();
        assert!(err.to_string().contains("exceeds the u32 frame limit"));
        // And the record encoder routes through the same check.
        assert!(encode_record(&entry(0, 0)).is_ok());
    }

    fn fancy_entries() -> Vec<TraceEntry> {
        let mk = |seq: u64, event: ModelEvent| TraceEntry {
            seq,
            event,
            reactions: vec![],
            violations: vec![],
        };
        vec![
            mk(0, ModelEvent::new(0, EventKind::TaskStart, "")),
            TraceEntry {
                seq: 1,
                event: ModelEvent::new(7, EventKind::StateEnter, "Héà/fsm☂")
                    .with_from("Idle")
                    .with_to("Run"),
                reactions: vec![ReactionSpec::HighlightTarget, ReactionSpec::Pulse],
                violations: vec!["deadline μ missed".into(), String::new()],
            },
            mk(
                2,
                ModelEvent::new(u64::MAX, EventKind::SignalWrite, "A/out")
                    .with_value(EventValue::Real(-0.0)),
            ),
            mk(
                3,
                ModelEvent::new(9, EventKind::WatchChange, "A/w")
                    .with_value(EventValue::Int(i64::MIN)),
            ),
            mk(
                4,
                ModelEvent::new(10, EventKind::ModeSwitch, "A/m")
                    .with_value(EventValue::Bool(true)),
            ),
            mk(
                5,
                ModelEvent::new(11, EventKind::TaskEnd, "A/t")
                    .with_value(EventValue::Real(f64::NAN)),
            ),
        ]
    }

    #[test]
    fn binary_codec_round_trips_every_field_shape() {
        for e in fancy_entries() {
            let payload = encode_entry_binary(&e);
            let back = decode_entry_binary(&payload).expect("decodes");
            // NaN != NaN, so compare through the JSON image.
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(&e).unwrap(),
                "entry {}",
                e.seq
            );
            // And the framed form round-trips through the frame scanner.
            let framed = encode_entry(&e, Codec::Binary).unwrap();
            let (decoded, len) = scan_frames(&framed, decode_entry_binary);
            assert_eq!(len as usize, framed.len());
            assert_eq!(decoded.len(), 1);
        }
    }

    #[test]
    fn binary_codec_rejects_damage() {
        let good = encode_entry_binary(&fancy_entries()[1]);
        // Truncation at every prefix length fails (never panics).
        for cut in 0..good.len() {
            assert!(decode_entry_binary(&good[..cut]).is_none(), "cut {cut}");
        }
        // A trailing byte is damage too.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_entry_binary(&long).is_none());
        // Unknown kind and flag bits are rejected.
        let mut bad_kind = good.clone();
        bad_kind[2] = 6;
        assert!(decode_entry_binary(&bad_kind).is_none());
        let mut bad_flags = good;
        bad_flags[3] |= 0x10;
        assert!(decode_entry_binary(&bad_flags).is_none());
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        for i in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
        // A non-canonical zero continuation byte is rejected.
        assert_eq!(read_varint(&[0x80, 0x00], &mut 0), None);
    }

    #[test]
    fn lz_round_trips_and_rejects_damage() {
        let repetitive: Vec<u8> = (0..4096u32)
            .flat_map(|i| format!("path/A/fsm-{};", i % 7).into_bytes())
            .collect();
        let packed = pack_segment(&repetitive);
        assert!(
            packed.len() < repetitive.len() / 2,
            "repetitive input compresses: {} -> {}",
            repetitive.len(),
            packed.len()
        );
        assert_eq!(unpack_segment(&packed).unwrap(), repetitive);
        // Incompressible and empty inputs still round-trip.
        let noise: Vec<u8> = (0..997u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        assert_eq!(unpack_segment(&pack_segment(&noise)).unwrap(), noise);
        assert_eq!(
            unpack_segment(&pack_segment(&[])).unwrap(),
            Vec::<u8>::new()
        );
        // Damage: bad magic, truncation, garbage tokens.
        assert_eq!(unpack_segment(b"nope"), None);
        assert_eq!(unpack_segment(&packed[..packed.len() - 1]), None);
        let mut bad = packed.clone();
        bad[12] = 0; // literal run of 0 is malformed
        assert_eq!(unpack_segment(&bad), None);
    }

    #[test]
    fn binary_store_round_trips_and_meta_codec_wins() {
        let dir = tmp_dir("binary");
        {
            let mut s = SegmentStore::open_with(
                &dir,
                SegmentConfig {
                    capacity: 4,
                    codec: Codec::Binary,
                    ..SegmentConfig::default()
                },
            )
            .unwrap();
            assert_eq!(s.codec(), Codec::Binary);
            for i in 0..11 {
                s.append(entry(i, 100 * (i + 1))).unwrap();
            }
            s.sync().unwrap();
        }
        // Reopen with a *JSON* config: the meta's codec wins, and every
        // entry decodes.
        let s = SegmentStore::open(&dir, 999).unwrap();
        assert_eq!(s.codec(), Codec::Binary);
        assert_eq!(s.capacity(), 4);
        let mut all = Vec::new();
        s.read_into(0, u64::MAX, &mut all).unwrap();
        assert_eq!(all.len(), 11);
        assert!(all.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maintain_compresses_and_reads_span_tiers() {
        let dir = tmp_dir("compact");
        let config = SegmentConfig {
            capacity: 4,
            codec: Codec::Binary,
            retention: Retention {
                compress_after: Some(1),
                max_disk_bytes: None,
            },
        };
        let mut s = SegmentStore::open_with(&dir, config).unwrap();
        let mut mem = MemStore::new();
        for i in 0..19 {
            let e = entry(i, 10 * i);
            s.append(e.clone()).unwrap();
            mem.append(e).unwrap();
        }
        s.sync().unwrap();
        // Drain maintenance: all but the newest sealed segment compress.
        let mut compacted = 0;
        loop {
            let report = s.maintain().unwrap();
            if !report.did_work() {
                break;
            }
            compacted += report.compacted_segments;
        }
        assert_eq!(compacted, 3, "4 sealed segments, newest kept raw");
        assert_eq!(s.stats().compacted_segments, 3);
        assert_eq!(s.first_retained_seq(), 0, "nothing evicted");
        // Reads and windows span compressed + raw + tail tiers and
        // still equal memory semantics.
        let mut disk_all = Vec::new();
        s.read_into(0, u64::MAX, &mut disk_all).unwrap();
        let mut mem_all = Vec::new();
        mem.read_into(0, u64::MAX, &mut mem_all).unwrap();
        assert_eq!(disk_all, mem_all);
        for (t0, t1) in [(0, 180), (35, 95), (0, u64::MAX), (70, 70)] {
            assert_eq!(
                s.window_bounds(t0, t1).unwrap(),
                mem.window_bounds(t0, t1).unwrap(),
                "window [{t0},{t1}]"
            );
        }
        // Reopen: the compressed tier recovers, and appends continue.
        drop(s);
        let mut s = SegmentStore::open_with(&dir, config).unwrap();
        assert_eq!(s.stats().compacted_segments, 3);
        assert_eq!(s.len(), 19);
        s.append(entry(19, 190)).unwrap();
        s.sync().unwrap();
        let mut again = Vec::new();
        s.read_into(0, u64::MAX, &mut again).unwrap();
        assert_eq!(again.len(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_budget_evicts_oldest_but_len_survives() {
        let dir = tmp_dir("evict");
        let config = SegmentConfig {
            capacity: 4,
            codec: Codec::Json,
            retention: Retention {
                compress_after: Some(0),
                max_disk_bytes: Some(600),
            },
        };
        let mut s = SegmentStore::open_with(&dir, config).unwrap();
        for i in 0..26 {
            s.append(entry(i, 10 * i)).unwrap();
        }
        s.sync().unwrap();
        let mut dropped = 0;
        loop {
            let report = s.maintain().unwrap();
            if !report.did_work() {
                break;
            }
            dropped += report.dropped_entries;
        }
        assert!(dropped > 0, "budget forces eviction");
        assert!(
            s.stats().disk_bytes <= 600,
            "disk stays under budget, got {}",
            s.stats().disk_bytes
        );
        assert_eq!(s.len(), 26, "len counts evicted history");
        let floor = s.first_retained_seq();
        assert!(
            floor > 0 && floor.is_multiple_of(4),
            "floor {floor} on a seal edge"
        );
        // Reads below the floor clamp up to it; reads above work.
        let mut out = Vec::new();
        s.read_into(0, u64::MAX, &mut out).unwrap();
        assert_eq!(out.first().unwrap().seq, floor);
        assert_eq!(out.last().unwrap().seq, 25);
        // The eviction floor survives reopen, and appends continue.
        drop(s);
        let mut s = SegmentStore::open_with(&dir, config).unwrap();
        assert_eq!(s.len(), 26);
        assert_eq!(s.first_retained_seq(), floor);
        s.append(entry(26, 260)).unwrap();
        s.sync().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_compressed_segment_truncates_history_there() {
        let dir = tmp_dir("lgz-damage");
        let config = SegmentConfig {
            capacity: 4,
            codec: Codec::Binary,
            retention: Retention {
                compress_after: Some(0),
                max_disk_bytes: None,
            },
        };
        {
            let mut s = SegmentStore::open_with(&dir, config).unwrap();
            for i in 0..10 {
                s.append(entry(i, 10 * i)).unwrap();
            }
            s.sync().unwrap();
            while s.maintain().unwrap().did_work() {}
            assert_eq!(s.stats().compacted_segments, 2);
        }
        // Corrupt the second compressed segment's token stream.
        let path = dir.join("seg-00000001.lgz");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 2;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let s = SegmentStore::open_with(&dir, config).unwrap();
        // Segment 0 survives; the damaged segment and the tail after it
        // are gone — recovery yields a valid prefix.
        assert_eq!(s.len(), 4);
        let mut out = Vec::new();
        s.read_into(0, u64::MAX, &mut out).unwrap();
        assert!(out.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_compaction_recovers_from_either_image() {
        let dir = tmp_dir("lgz-crash");
        let config = SegmentConfig {
            capacity: 4,
            codec: Codec::Json,
            retention: Retention {
                compress_after: Some(0),
                max_disk_bytes: None,
            },
        };
        {
            let mut s = SegmentStore::open_with(&dir, config).unwrap();
            for i in 0..6 {
                s.append(entry(i, 10 * i)).unwrap();
            }
            s.sync().unwrap();
            while s.maintain().unwrap().did_work() {}
        }
        // Simulate a crash between the .lgz rename and the .log remove:
        // both images exist. Recovery keeps the compressed one.
        let lgz = std::fs::read(dir.join("seg-00000000.lgz")).unwrap();
        let raw = unpack_segment(&lgz).unwrap();
        std::fs::write(dir.join("seg-00000000.log"), &raw).unwrap();
        let s = SegmentStore::open_with(&dir, config).unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.stats().compacted_segments, 1);
        assert!(!dir.join("seg-00000000.log").exists(), "stale log removed");
        // Now the other interleaving: .lgz damaged, .log intact.
        std::fs::write(dir.join("seg-00000000.log"), &raw).unwrap();
        std::fs::write(dir.join("seg-00000000.lgz"), b"GLZ1garbage").unwrap();
        let s = SegmentStore::open_with(&dir, config).unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.stats().compacted_segments, 0, "fell back to the log");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retain_floor_clamps_eviction() {
        let dir = tmp_dir("floor");
        let config = SegmentConfig {
            capacity: 4,
            codec: Codec::Json,
            retention: Retention {
                compress_after: Some(0),
                max_disk_bytes: Some(600),
            },
        };
        let mut s = SegmentStore::open_with(&dir, config).unwrap();
        for i in 0..26 {
            s.append(entry(i, 10 * i)).unwrap();
        }
        s.sync().unwrap();
        // An "oldest checkpoint" at seq 4: segment 1 (seqs 4..8) and
        // everything after it must survive, however tight the budget.
        s.set_retain_floor(4);
        while s.maintain().unwrap().did_work() {}
        assert_eq!(
            s.first_retained_seq(),
            4,
            "only the pre-floor segment was evictable"
        );
        let mut out = Vec::new();
        s.read_into(0, u64::MAX, &mut out).unwrap();
        assert_eq!(out.first().unwrap().seq, 4);
        assert_eq!(out.last().unwrap().seq, 25);
        // Raising the floor releases older segments to the budget again.
        s.set_retain_floor(12);
        while s.maintain().unwrap().did_work() {}
        assert!(s.first_retained_seq() > 4);
        assert!(s.first_retained_seq() <= 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn offset_store_lines_up_with_absolute_numbering() {
        let mut s = OffsetMemStore::new(100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.first_retained_seq(), 100);
        assert!(s.is_empty() || s.len() == 100); // no entries yet
        for i in 100..110 {
            s.append(entry(i, 10 * i)).unwrap();
        }
        assert_eq!(s.len(), 110);
        // Reads below the base clamp up to it.
        let mut out = Vec::new();
        s.read_into(0, u64::MAX, &mut out).unwrap();
        assert_eq!(out.first().unwrap().seq, 100);
        assert_eq!(out.len(), 10);
        out.clear();
        s.read_into(104, 107, &mut out).unwrap();
        assert_eq!(
            out.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![104, 105, 106]
        );
        // Windows report absolute bounds.
        assert_eq!(s.window_bounds(1030, 1050).unwrap(), (103, 106));
        assert_eq!(s.time_range(), Some((1000, 1090)));
        assert_eq!(s.as_slice().unwrap().len(), 10);
    }

    #[test]
    fn checkpoint_store_round_trips_and_indexes() {
        let dir = tmp_dir("ckpt");
        let mut c = CheckpointStore::open(&dir).unwrap();
        assert!(c.is_empty());
        for (seq, t) in [(10u64, 1000u64), (20, 2000), (30, 3000)] {
            let payload = format!("{{\"seq\":{seq}}}");
            let written = c.save(seq, t, payload.as_bytes()).unwrap();
            assert_eq!(written, 9 + payload.len() as u64);
        }
        assert_eq!(c.oldest_seq(), Some(10));
        assert_eq!(c.latest().unwrap().seq, 30);
        // Payloads round-trip, and the index survives reopen.
        let c2 = CheckpointStore::open(&dir).unwrap();
        assert_eq!(c2.metas(), c.metas());
        let meta = c2.metas()[1];
        assert_eq!(c2.load(&meta).unwrap(), b"{\"seq\":20}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous() {
        let dir = tmp_dir("ckpt-torn");
        {
            let mut c = CheckpointStore::open(&dir).unwrap();
            c.save(10, 1000, b"good-old").unwrap();
            c.save(20, 2000, b"good-new").unwrap();
        }
        let newest = dir.join(format!("ckpt-{:016}-{:020}.ck", 20u64, 2000u64));
        let image = std::fs::read(&newest).unwrap();
        // A kill at *any* byte during the write sequence leaves either
        // a partial .tmp (ignored and deleted) or a complete renamed
        // file — simulate both damage shapes and the fallback.
        for cut in 0..image.len() {
            std::fs::write(dir.join("ckpt-next.ck.tmp"), &image[..cut]).unwrap();
            let c = CheckpointStore::open(&dir).unwrap();
            assert_eq!(c.len(), 2, "tmp leftovers never enter the index");
            assert!(!dir.join("ckpt-next.ck.tmp").exists(), "tmp deleted");
        }
        // Paranoia: even a torn *renamed* file (not producible by the
        // tmp+fsync+rename sequence, but disks lie) is dropped, and the
        // previous checkpoint anchors the seek.
        std::fs::write(&newest, &image[..image.len() - 3]).unwrap();
        let c = CheckpointStore::open(&dir).unwrap();
        assert_eq!(c.len(), 1);
        let meta = c.latest().unwrap();
        assert_eq!(meta.seq, 10);
        assert_eq!(c.load(&meta).unwrap(), b"good-old");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_codec_session_dirs_open_cleanly() {
        let root = tmp_dir("mixed");
        for (name, codec) in [("a", Codec::Json), ("b", Codec::Binary)] {
            let mut s = SegmentStore::open_with(
                root.join(name),
                SegmentConfig {
                    capacity: 3,
                    codec,
                    ..SegmentConfig::default()
                },
            )
            .unwrap();
            for i in 0..5 {
                s.append(entry(i, i)).unwrap();
            }
            s.sync().unwrap();
        }
        // Reopen both with the *same* default config: each store uses
        // its own recorded codec.
        for (name, codec) in [("a", Codec::Json), ("b", Codec::Binary)] {
            let s = SegmentStore::open(root.join(name), DEFAULT_SEGMENT_CAPACITY).unwrap();
            assert_eq!(s.codec(), codec, "store {name}");
            assert_eq!(s.len(), 5, "store {name}");
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
