//! In-memory span recorder for the traced run.
//!
//! Each span has a name, start, end, parent and request id (one id per
//! tick, chunk, seek, window or fetch). Spans stay in memory and are
//! written out once, at exit. A disabled recorder records nothing, so
//! the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    pub req: u64,
}

#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans of this thread, innermost last.
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Recorder {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's time base.
    pub fn fork(&self) -> Self {
        Recorder::new(self.on, self.epoch)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished call measured by the caller, as a child of
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.stack.last().copied(),
                req,
            };
            self.spans.push(span);
        }
    }

    /// Runs `f` inside a span; spans recorded by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records `total_ns` of work that happened in many short calls
    /// inside the innermost open span as one child span placed at that
    /// span's start, so the parent's self time excludes it. Used for
    /// per-entry store calls, which would otherwise mean one span per
    /// trace entry.
    pub fn aggregate(&mut self, name: &'static str, req: u64, total_ns: u64) {
        if let (true, Some(&parent)) = (self.on, self.stack.last()) {
            let start_ns = self.spans[parent].start_ns;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + total_ns,
                parent: Some(parent),
                req,
            });
        }
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the time its
    /// children cover. Children of one span never overlap (they run on
    /// the span's own thread, one after another).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one CSV row.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,req,name,start_ns,end_ns,self_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{i},{parent},{},{},{},{},{own}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.span("outer", 1, |rec| {
            rec.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            // Work done in many short calls, booked as one child.
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.aggregate("agg", 1, 1_000_000);
        });
        let by_name = rec.self_ms_by_name();
        let total: f64 = rec.durations_ms("outer")[0];
        let sum: f64 = by_name.values().sum();
        assert!((sum - total).abs() < 1e-6, "{sum} vs {total}");
        assert!(by_name["inner"] >= 5.0);
        assert_eq!(by_name["agg"], 1.0);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        let t = Instant::now();
        rec.record("x", 0, t, t);
        assert_eq!(rec.span("y", 0, |_| 3), 3);
        assert_eq!(rec.len(), 0);
    }
}
