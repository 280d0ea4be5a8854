//! Turns what a pass collected into the named metrics `BENCHMARK.json`
//! declares: end-to-end metrics for the untraced run, per-layer metrics
//! for the traced run.

use crate::decompose::Decomposition;
use crate::harness::Collected;
use crate::stats::{median, percentile_ms};
use gmdf_server::metrics::HistogramSnapshot;
use gmdf_server::MetricsSnapshot;

/// `(name, value, unit, sample count)`.
pub type Metric = (&'static str, f64, &'static str, usize);

/// Fewest samples a window needs for its p99 to have ten samples
/// beyond it.
const MIN_WINDOW: usize = 1_000;

/// The lag tail: p99 within each 250 ms window of the drive, averaged
/// over the run's windows with the highest and the lowest tenth left
/// out. One stalled moment (a host hiccup, a slow fsync) moves a
/// run-wide p99 a long way, and a median over windows jumps between the
/// host's fast and slow spells; the trimmed mean does neither.
fn typical_p99_ms(windows: &[Vec<u64>]) -> f64 {
    let mut full: Vec<&Vec<u64>> = windows.iter().filter(|w| w.len() >= MIN_WINDOW).collect();
    if full.is_empty() {
        full = windows.iter().filter(|w| !w.is_empty()).collect();
    }
    let mut p99s: Vec<f64> = full
        .into_iter()
        .map(|w| percentile_ms(&mut w.clone(), 99.0))
        .collect();
    p99s.sort_by(f64::total_cmp);
    let cut = p99s.len() / 10;
    let kept = &p99s[cut..p99s.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

pub fn end_to_end(c: &Collected) -> Vec<Metric> {
    let mut lags: Vec<u64> = c.lag_windows.concat();
    let n_lags = lags.len();
    let entries_per_s = if c.drive_s > 0.0 {
        c.delivered as f64 / c.drive_s
    } else {
        0.0
    };
    vec![
        ("setup_s", median(&c.setup_s), "s", c.setup_s.len()),
        (
            "entries_per_s",
            entries_per_s,
            "entries/s",
            c.delivered as usize,
        ),
        ("lag_p50_ms", percentile_ms(&mut lags, 50.0), "ms", n_lags),
        ("lag_p99_ms", typical_p99_ms(&c.lag_windows), "ms", n_lags),
        ("seek_p50_ms", median(&c.seek_ms), "ms", c.seek_ms.len()),
        (
            "window_p50_ms",
            median(&c.window_ms),
            "ms",
            c.window_ms.len(),
        ),
        ("fetch_p50_ms", median(&c.fetch_ms), "ms", c.fetch_ms.len()),
        ("peak_rss_mb", c.peak_rss_mb, "MiB", 1),
    ]
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The histogram with the most samples across `snaps`.
fn busiest(
    snaps: &[MetricsSnapshot],
    pick: impl Fn(&MetricsSnapshot) -> &HistogramSnapshot,
) -> HistogramSnapshot {
    snaps
        .iter()
        .map(&pick)
        .max_by_key(|h| h.count)
        .cloned()
        .unwrap_or_default()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of the traced pass: the server's own telemetry,
/// the client-side spans, the decomposition, and the tracing overhead
/// against the untraced pass of the same invocation.
pub fn per_layer(
    base: &Collected,
    traced: &Collected,
    d: &Decomposition,
    spans: usize,
) -> Vec<Metric> {
    let snaps = &traced.snapshots;
    let sum = |f: &dyn Fn(&MetricsSnapshot) -> u64| snaps.iter().map(f).sum::<u64>() as f64;
    let memo_hits = sum(&|s| s.fleet.memo_hits);
    let memo_all = memo_hits + sum(&|s| s.fleet.memo_misses);
    let slice = busiest(snaps, |s| &s.fleet.slice_wall_ns);
    let per_slice = busiest(snaps, |s| &s.fleet.events_per_slice);
    let (disk_bytes, disk_entries) = snaps
        .first()
        .map(|s| {
            s.sessions
                .iter()
                .filter(|h| h.trace_bytes > 0)
                .fold((0u64, 0u64), |(b, n), h| {
                    (b + h.trace_bytes, n + h.trace_len)
                })
        })
        .unwrap_or_default();
    let reads = busiest(snaps, |s| &s.fleet.store_read_ns);
    let seek_replayed = ratio(
        traced.seek_replayed.iter().sum(),
        traced.seek_replayed.len() as f64,
    );
    let dm = |name: &str| d.metrics.get(name).copied().unwrap_or(0.0);

    let mut out: Vec<Metric> = vec![
        ("gdm.derive_ms", dm("gdm.derive_ms"), "ms", 1),
        ("codegen.compile_ms", dm("codegen.compile_ms"), "ms", 1),
        ("target.boot_ms", dm("target.boot_ms"), "ms", 1),
        ("analyze.report_ms", dm("analyze.report_ms"), "ms", 1),
        (
            "server.register_ms",
            median(&traced.register_ms),
            "ms",
            traced.register_ms.len(),
        ),
        (
            "server.wire.attach_ms",
            median(&traced.attach_ms),
            "ms",
            traced.attach_ms.len(),
        ),
        (
            "server.wire.connect_ms",
            median(&traced.connect_ms),
            "ms",
            traced.connect_ms.len(),
        ),
        ("target.run_ms", dm("target.run_ms"), "ms", 1),
        (
            "target.memo_hit_ratio",
            ratio(memo_hits, memo_all),
            "ratio",
            memo_all as usize,
        ),
        (
            "server.slice_p50_ms",
            ns_to_ms(slice.p50),
            "ms",
            slice.count as usize,
        ),
        (
            "server.slice_p99_ms",
            ns_to_ms(slice.p99),
            "ms",
            slice.count as usize,
        ),
        ("server.slices", sum(&|s| s.fleet.slices), "count", 1),
        (
            "server.events_per_slice",
            per_slice.mean(),
            "events",
            per_slice.count as usize,
        ),
        ("core.decode_ms", dm("core.decode_ms"), "ms", 1),
        ("core.crc_errors", dm("core.crc_errors"), "count", 1),
        ("engine.feed_ms", dm("engine.feed_ms"), "ms", 1),
        ("engine.entries", dm("engine.entries"), "count", 1),
        (
            "engine.store.append_ms",
            dm("engine.store.append_ms"),
            "ms",
            1,
        ),
        ("engine.store.sync_ms", dm("engine.store.sync_ms"), "ms", 1),
        (
            "engine.store.bytes_per_entry",
            ratio(disk_bytes as f64, disk_entries as f64),
            "B",
            disk_entries as usize,
        ),
        (
            "engine.store.read_ms",
            ns_to_ms(reads.sum) / reads.count.max(1) as f64,
            "ms",
            reads.count as usize,
        ),
        (
            "engine.checkpoint.write_ms",
            ns_to_ms(busiest(snaps, |s| &s.fleet.checkpoint_write_ns).p50),
            "ms",
            1,
        ),
        (
            "engine.checkpoint.bytes",
            ratio(
                sum(&|s| s.fleet.checkpoint_bytes),
                sum(&|s| s.fleet.checkpoint_writes),
            ),
            "B",
            1,
        ),
        (
            "engine.checkpoint.restore_ms",
            ns_to_ms(busiest(snaps, |s| &s.fleet.checkpoint_restore_ns).p50),
            "ms",
            1,
        ),
        (
            "server.persist.journal_append_ms",
            ns_to_ms(busiest(snaps, |s| &s.fleet.journal_append_ns).p50),
            "ms",
            1,
        ),
        (
            "server.proto.encode_ms",
            dm("server.proto.encode_ms"),
            "ms",
            1,
        ),
        (
            "server.wire.bytes_per_entry",
            dm("server.wire.bytes_per_entry"),
            "B",
            1,
        ),
        (
            "server.queue.lagged_drops",
            sum(&|s| s.fleet.lagged_drops),
            "count",
            1,
        ),
        ("client.decode_ms", dm("client.decode_ms"), "ms", 1),
        ("client.wait_ms", traced.wait_ms, "ms", 1),
        (
            "client.step_back_ms",
            median(&traced.step_back_ms),
            "ms",
            traced.step_back_ms.len(),
        ),
        (
            "server.seek.rebuild_ms",
            dm("server.seek.rebuild_ms"),
            "ms",
            1,
        ),
        (
            "server.seek.replayed_entries",
            seek_replayed,
            "entries",
            traced.seek_replayed.len(),
        ),
        (
            "server.seek.from_zero",
            traced.seek_from_zero as f64,
            "count",
            traced.seek_replayed.len(),
        ),
        (
            "server.persist.restore_ms",
            median(&traced.restore_ms),
            "ms",
            traced.restore_ms.len(),
        ),
        (
            "server.catchup_ms",
            median(&traced.catchup_ms),
            "ms",
            traced.catchup_ms.len(),
        ),
        (
            "server.persist.replayed_entries",
            median(&traced.restart_replayed),
            "entries",
            traced.restart_replayed.len(),
        ),
        ("target.sim_events", dm("target.sim_events"), "count", 1),
    ];
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
        out.push((layer, dm(layer), "ms", 1));
    }
    out.push(("trace.decompose_ms", dm("trace.decompose_ms"), "ms", 1));
    out.push((
        "trace.unattributed_pct",
        dm("trace.unattributed_pct"),
        "%",
        1,
    ));
    out.push(("trace.spans", spans as f64, "count", 1));
    for ((name, b, _, _), (_, t, _, _)) in end_to_end(base).into_iter().zip(end_to_end(traced)) {
        out.push((overhead_name(name), ratio(t - b, b) * 100.0, "%", 1));
    }
    out
}

fn overhead_name(metric: &str) -> &'static str {
    match metric {
        "setup_s" => "overhead.setup_s_pct",
        "entries_per_s" => "overhead.entries_per_s_pct",
        "lag_p50_ms" => "overhead.lag_p50_ms_pct",
        "lag_p99_ms" => "overhead.lag_p99_ms_pct",
        "seek_p50_ms" => "overhead.seek_p50_ms_pct",
        "window_p50_ms" => "overhead.window_p50_ms_pct",
        "fetch_p50_ms" => "overhead.fetch_p50_ms_pct",
        _ => "overhead.peak_rss_mb_pct",
    }
}

/// The result line: one JSON object, every value finite.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_well_formed() {
        let line = json_line(
            true,
            3,
            0,
            &[("a_ms", 1.5, "ms", 2), ("b", f64::NAN, "count", 0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
