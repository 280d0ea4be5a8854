//! Trace-store costs: append throughput and window seeks, in-memory vs
//! the segmented on-disk store.
//!
//! The measurements:
//!
//! * `trace_store/append_mem_batch` / `append_disk_batch` /
//!   `append_disk_binary` — recording a 4096-entry batch through
//!   `ExecutionTrace` into the in-memory backend and the segmented-disk
//!   backend under each record codec (the disk lines include the
//!   per-batch store creation and flush — the full durability bill);
//! * `trace_store/window_mem` / `window_cold_disk` /
//!   `window_cold_disk_binary` / `cold_window_compacted` — a narrow
//!   `window` query (~64 entries) against a long prebuilt trace: the
//!   in-memory store answers from its `Vec`; the disk stores (JSON, and
//!   binary, the codec every durable session records in) from their
//!   per-segment index plus one in-place walk of each segment the query
//!   touches, decoding only the entries it returns; and the compacted
//!   binary store additionally decompresses those segments from the
//!   `.lgz` cold tier;
//! * `trace_store/reopen_disk_binary` — opening an existing binary store
//!   of `trace_len()` entries, the trace store's share of a durable
//!   session's restart: every segment file is read and every frame
//!   checked, sealed segments in place and only the active one decoded;
//! * comparison row `window_indexed_vs_linear` — the indexed
//!   (`partition_point`) window against the pre-refactor full scan on
//!   the same in-memory trace, measured on the narrow-window shape the
//!   refactor targets;
//! * comparison row `append_disk_binary_vs_json` — the same durable
//!   batch under the binary record codec against the JSON codec: the
//!   serialization share of the durability bill.
//! * `trace_store/replay_from_zero` / `seek_to_time` — time travel to
//!   the end of a long deterministic run: re-executing the whole
//!   session from t = 0 versus restoring the nearest persisted
//!   full-state checkpoint (at `DEFAULT_CHECKPOINT_INTERVAL`, the
//!   `PersistConfig::checkpoint_interval` default) and replaying only
//!   the O(interval) tail; comparison row `seek_vs_replay_from_zero`.
//!
//! Persists `BENCH_trace.json` at the repo root — regenerate with
//! `cargo bench -p gmdf-bench --bench trace_store`. With
//! `GMDF_BENCH_QUICK=1` it writes `BENCH_trace.quick.json` (smaller
//! trace, same shape), the CI baseline.

use criterion::{criterion_group, Criterion};
use gmdf_bench::report::{repo_root, report_from, write_report, Comparison};
use gmdf_engine::store::{Codec, MemStore, Retention, SegmentConfig, SegmentStore, TraceStore};
use gmdf_engine::{ExecutionTrace, TraceEntry};
use gmdf_gdm::{EventKind, EventValue, ModelEvent, ReactionSpec};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Entries per append batch (one bench iteration).
const BATCH: u64 = 4096;

/// Segment capacity of the disk store under test.
const SEGMENT: usize = 256;

fn trace_len() -> u64 {
    if criterion::quick_mode() {
        20_000
    } else {
        100_000
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    // A per-process atomic counter, not the wall clock: concurrent
    // bench processes can land in the same nanosecond and collide, and
    // a pre-epoch clock would panic the `expect`.
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gmdf-bench-{tag}-{}-{n}", std::process::id()))
}

/// A fresh durable trace over a segment store with `codec`.
fn disk_trace(dir: &PathBuf, codec: Codec) -> ExecutionTrace {
    let config = SegmentConfig {
        capacity: SEGMENT,
        codec,
        ..SegmentConfig::default()
    };
    ExecutionTrace::with_store(Box::new(
        SegmentStore::open_with(dir, config).expect("segment store"),
    ))
}

/// One synthetic entry; times advance 1 µs per seq (a busy trace).
fn event(seq: u64) -> ModelEvent {
    let time_ns = seq * 1_000;
    match seq % 3 {
        0 => ModelEvent::new(time_ns, EventKind::StateEnter, "node/actor/fsm").with_to("Run"),
        1 => ModelEvent::new(time_ns, EventKind::SignalWrite, "node/actor/out")
            .with_value(EventValue::Real(seq as f64 * 0.5)),
        _ => ModelEvent::new(time_ns, EventKind::TaskStart, "node/actor"),
    }
}

fn record_batch(trace: &mut ExecutionTrace, n: u64) {
    for seq in 0..n {
        trace.record(event(seq), vec![ReactionSpec::HighlightTarget], vec![]);
    }
}

/// Builds the long reference trace once, on both backends.
fn prebuilt(dir: &PathBuf) -> (ExecutionTrace, ExecutionTrace) {
    let n = trace_len();
    let mut mem = ExecutionTrace::new();
    record_batch(&mut mem, n);
    let mut disk = ExecutionTrace::with_store(Box::new(
        SegmentStore::open(dir, SEGMENT).expect("segment store"),
    ));
    record_batch(&mut disk, n);
    disk.sync().expect("flush");
    (mem, disk)
}

/// The pre-refactor `window`: a linear scan over every entry.
fn window_linear(entries: &[TraceEntry], t0_ns: u64, t1_ns: u64) -> usize {
    entries
        .iter()
        .filter(|e| e.event.time_ns >= t0_ns && e.event.time_ns <= t1_ns)
        .count()
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_store");

    group.bench_function("append_mem_batch", |b| {
        b.iter(|| {
            let mut trace = ExecutionTrace::new();
            record_batch(&mut trace, BATCH);
            black_box(trace.len())
        })
    });

    let append_dir = tmp_dir("append");
    group.bench_function("append_disk_batch", |b| {
        b.iter(|| {
            std::fs::remove_dir_all(&append_dir).ok();
            let mut trace = disk_trace(&append_dir, Codec::Json);
            record_batch(&mut trace, BATCH);
            trace.sync().expect("flush");
            black_box(trace.len())
        })
    });
    std::fs::remove_dir_all(&append_dir).ok();

    let binary_dir = tmp_dir("append-bin");
    group.bench_function("append_disk_binary", |b| {
        b.iter(|| {
            std::fs::remove_dir_all(&binary_dir).ok();
            let mut trace = disk_trace(&binary_dir, Codec::Binary);
            record_batch(&mut trace, BATCH);
            trace.sync().expect("flush");
            black_box(trace.len())
        })
    });
    std::fs::remove_dir_all(&binary_dir).ok();

    // A restart's open of a long binary store (its meta.json codec and
    // capacity win over `open`'s argument).
    let reopen_dir = tmp_dir("reopen");
    {
        let mut trace = disk_trace(&reopen_dir, Codec::Binary);
        record_batch(&mut trace, trace_len());
        trace.sync().expect("flush");
    }
    group.bench_function("reopen_disk_binary", |b| {
        b.iter(|| {
            let store = SegmentStore::open(&reopen_dir, SEGMENT).expect("reopen");
            black_box(store.len())
        })
    });
    std::fs::remove_dir_all(&reopen_dir).ok();

    // Narrow-window seeks against the long trace: ~64 entries out of
    // the middle, the replay/timing-diagram access pattern.
    let window_dir = tmp_dir("window");
    let (mem, disk) = prebuilt(&window_dir);
    let mid = trace_len() / 2 * 1_000;
    let (t0, t1) = (mid, mid + 64_000);
    group.bench_function("window_mem", |b| {
        b.iter(|| black_box(mem.window(black_box(t0), black_box(t1)).count()))
    });
    group.bench_function("window_cold_disk", |b| {
        b.iter(|| black_box(disk.window(black_box(t0), black_box(t1)).count()))
    });

    // The same window over a binary store: the sealed read every
    // durable session makes.
    let binary_window_dir = tmp_dir("window-bin");
    let mut binary = disk_trace(&binary_window_dir, Codec::Binary);
    record_batch(&mut binary, trace_len());
    binary.sync().expect("flush");
    group.bench_function("window_cold_disk_binary", |b| {
        b.iter(|| black_box(binary.window(black_box(t0), black_box(t1)).count()))
    });

    // The same narrow window against a fully compacted store: every
    // sealed segment lives on the `.lgz` cold tier, so the seek pays
    // per-segment decompression on top of the index walk.
    let compact_dir = tmp_dir("compacted");
    let mut compacted = {
        let config = SegmentConfig {
            capacity: SEGMENT,
            codec: Codec::Binary,
            retention: Retention {
                compress_after: Some(1),
                max_disk_bytes: None,
            },
        };
        ExecutionTrace::with_store(Box::new(
            SegmentStore::open_with(&compact_dir, config).expect("segment store"),
        ))
    };
    record_batch(&mut compacted, trace_len());
    compacted.sync().expect("flush");
    while compacted.maintain().expect("maintain").did_work() {}
    group.bench_function("cold_window_compacted", |b| {
        b.iter(|| black_box(compacted.window(black_box(t0), black_box(t1)).count()))
    });
    group.finish();
    std::fs::remove_dir_all(&window_dir).ok();
    std::fs::remove_dir_all(&binary_window_dir).ok();
    std::fs::remove_dir_all(&compact_dir).ok();
}

/// Checkpoint cadence for the time-travel rows — the durable-session
/// default (`PersistConfig::checkpoint_interval`).
const CKPT_INTERVAL: u64 = gmdf_server::DEFAULT_CHECKPOINT_INTERVAL;

/// A busy ring session for the time-travel rows: one trace entry every
/// ~100 µs of target time, so `trace_len()` entries span seconds of
/// deterministic re-execution.
fn seek_session() -> gmdf::DebugSession {
    use gmdf_comdes::{
        ActorBuilder, Expr, FsmBuilder, NetworkBuilder, NodeSpec, Port, System, Timing,
        VAR_TIME_IN_STATE,
    };
    let mut fb = FsmBuilder::new().output(Port::int("s"));
    for i in 0..3 {
        fb = fb.state(&format!("S{i}"), |st| st.entry("s", Expr::Int(i)));
    }
    for i in 0..3u64 {
        fb = fb.transition(
            &format!("S{i}"),
            &format!("S{}", (i + 1) % 3),
            Expr::var(VAR_TIME_IN_STATE).ge(Expr::Real(1e-4)),
        );
    }
    let fsm = fb.initial("S0").build().expect("ring fsm");
    let net = NetworkBuilder::new()
        .output(Port::int("s"))
        .state_machine("ring", fsm)
        .connect("ring.s", "s")
        .expect("endpoint")
        .build()
        .expect("ring net");
    let actor = ActorBuilder::new("Ring", net)
        .output("s", "state_sig")
        .timing(Timing::periodic(50_000, 0))
        .build()
        .expect("ring actor");
    let mut node = NodeSpec::new("ecu", 50_000_000);
    node.actors.push(actor);
    gmdf::Workflow::from_system(System::new("seek_ring").with_node(node))
        .expect("valid system")
        .default_abstraction()
        .default_commands()
        .connect(
            gmdf::ChannelMode::Active,
            gmdf_codegen::CompileOptions {
                instrument: gmdf_codegen::InstrumentOptions::behavior(),
                faults: vec![],
            },
            // A fast debug link: at the default 115200 baud the UART
            // cannot sustain this event rate, so the backlog (part of
            // the checkpoint image) would grow with the trace and the
            // seek would degenerate to O(n) image parsing.
            gmdf_target::SimConfig {
                uart_baud: 10_000_000,
                ..gmdf_target::SimConfig::default()
            },
        )
        .expect("session boots")
}

/// Time travel to the end of a long run: full deterministic re-execution
/// from t = 0 versus nearest-checkpoint restore (JSON image parse +
/// state restore, as the durable-session seek path pays it) plus an
/// O(interval) replay of the tail.
fn bench_time_travel(c: &mut Criterion) {
    let n = trace_len();
    // The reference run, imaged every `CKPT_INTERVAL` entries the same
    // way the durable-session pump does (checked at slice boundaries).
    let mut reference = seek_session();
    let mut images: Vec<(u64, String)> = Vec::new();
    let mut last = 0u64;
    while (reference.engine().trace().len() as u64) < n {
        reference.run_for(10_000_000).expect("reference run");
        let len = reference.engine().trace().len() as u64;
        if len.saturating_sub(last) >= CKPT_INTERVAL {
            let image = reference.save_state();
            images.push((image.t_ns(), serde_json::to_string(&image).expect("image")));
            last = len;
        }
    }
    let target_ns = reference.now_ns();
    let (ckpt_t_ns, payload) = images.last().expect("checkpoints written").clone();
    drop(reference);

    let mut group = c.benchmark_group("trace_store");
    group.bench_function("replay_from_zero", |b| {
        b.iter(|| {
            let mut session = seek_session();
            session.run_for(target_ns).expect("replay");
            black_box(session.engine().trace().len())
        })
    });
    group.bench_function("seek_to_time", |b| {
        b.iter(|| {
            let image: gmdf::SessionCheckpoint =
                serde_json::from_str(&payload).expect("image parses");
            let mut session = seek_session();
            session.restore_state(&image).expect("restore");
            session.resume_trace_store(Box::new(MemStore::new(image.trace_len())));
            session.run_for(target_ns - ckpt_t_ns).expect("replay tail");
            black_box(session.engine().trace().len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_store, bench_time_travel);

/// The satellite comparison: indexed window vs the old linear scan, on
/// the in-memory backend (identical data, identical answer).
fn window_comparison() -> Comparison {
    let n = trace_len();
    let mut store = MemStore::default();
    for seq in 0..n {
        store
            .append(TraceEntry {
                seq,
                event: event(seq),
                reactions: vec![],
                violations: vec![],
            })
            .expect("append");
    }
    let entries = store.as_slice().expect("memory-backed").to_vec();
    let trace = ExecutionTrace::with_store(Box::new(store));
    let mid = n / 2 * 1_000;
    let (t0, t1) = (mid, mid + 64_000);
    let reps = if criterion::quick_mode() { 200 } else { 1_000 };

    let start = Instant::now();
    let mut hits_linear = 0usize;
    for _ in 0..reps {
        hits_linear = black_box(window_linear(&entries, black_box(t0), black_box(t1)));
    }
    let baseline_ns = start.elapsed().as_nanos() as f64 / reps as f64;

    let start = Instant::now();
    let mut hits_indexed = 0usize;
    for _ in 0..reps {
        hits_indexed = black_box(trace.window(black_box(t0), black_box(t1)).count());
    }
    let optimized_ns = start.elapsed().as_nanos() as f64 / reps as f64;

    assert_eq!(hits_linear, hits_indexed, "both windows must agree");
    let speedup = baseline_ns / optimized_ns;
    eprintln!(
        "[trace_store] window over {n} entries: linear {:.1} us, indexed {:.2} us ({speedup:.0}x)",
        baseline_ns / 1e3,
        optimized_ns / 1e3,
    );
    Comparison {
        name: "window_indexed_vs_linear".to_owned(),
        baseline_ns,
        optimized_ns,
        speedup,
    }
}

/// The codec comparison: the same durable 4096-entry batch (store
/// creation + appends + flush) under the binary record codec against
/// the JSON codec. Derived from the criterion-timed medians of the
/// `append_disk_batch` / `append_disk_binary` rows rather than
/// re-measured — re-running the pair back-to-back makes whichever
/// codec goes second pay the first one's dirty-page writeback.
fn codec_comparison(results: &[criterion::BenchResult]) -> Comparison {
    let median_of = |name: &str| -> f64 {
        results
            .iter()
            .find(|r| r.name == format!("trace_store/{name}"))
            .unwrap_or_else(|| panic!("bench row `{name}` was measured"))
            .median_ns
    };
    let baseline_ns = median_of("append_disk_batch");
    let optimized_ns = median_of("append_disk_binary");
    let speedup = baseline_ns / optimized_ns;
    eprintln!(
        "[trace_store] durable {BATCH}-entry batch: json {:.2} ms, binary {:.2} ms ({speedup:.1}x)",
        baseline_ns / 1e6,
        optimized_ns / 1e6,
    );
    Comparison {
        name: "append_disk_binary_vs_json".to_owned(),
        baseline_ns,
        optimized_ns,
        speedup,
    }
}

/// The tentpole comparison: time travel to the end of the long run via
/// nearest-checkpoint restore against full re-execution from t = 0.
/// Derived from the criterion-timed medians of the `replay_from_zero` /
/// `seek_to_time` rows.
fn seek_comparison(results: &[criterion::BenchResult]) -> Comparison {
    let median_of = |name: &str| -> f64 {
        results
            .iter()
            .find(|r| r.name == format!("trace_store/{name}"))
            .unwrap_or_else(|| panic!("bench row `{name}` was measured"))
            .median_ns
    };
    let baseline_ns = median_of("replay_from_zero");
    let optimized_ns = median_of("seek_to_time");
    let speedup = baseline_ns / optimized_ns;
    eprintln!(
        "[trace_store] seek over {} entries at {CKPT_INTERVAL}-entry checkpoints: \
         from-zero {:.1} ms, checkpointed {:.1} ms ({speedup:.0}x)",
        trace_len(),
        baseline_ns / 1e6,
        optimized_ns / 1e6,
    );
    Comparison {
        name: "seek_vs_replay_from_zero".to_owned(),
        baseline_ns,
        optimized_ns,
        speedup,
    }
}

fn main() {
    benches();
    let comparison = window_comparison();
    let results = criterion::take_results();
    let comparisons = vec![
        comparison,
        codec_comparison(&results),
        seek_comparison(&results),
    ];
    let report = report_from("trace_store", results, comparisons);
    let name = if criterion::quick_mode() {
        "BENCH_trace.quick.json"
    } else {
        "BENCH_trace.json"
    };
    write_report(&repo_root().join(name), &report);
}
