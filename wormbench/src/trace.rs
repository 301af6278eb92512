//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent span, request id). Names are
//! `layer.operation`; the layer is the part before the first dot. Spans
//! are kept in memory while the workload runs, written out as JSON lines
//! at the end, and folded into per-layer self time: a span's duration
//! minus the part of it that its child spans cover.
//!
//! A disabled tracer records nothing; [`Tracer::span`] then costs one
//! branch, so the untraced run measures the program alone.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::{object, Json};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder shared by every thread of one workload pass.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Parent id of a root span.
pub const ROOT: u64 = 0;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id (0 when disabled, so children of an unrecorded
    /// span stay unrecorded too).
    pub fn new_id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a span whose start and end were stamped by the caller —
    /// used where a span starts on one thread and ends on another.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Run `f` inside a span named `name`; `f` gets the span's id to pass
    /// to its children.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.new_id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, 0, start, Instant::now());
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// Self time per layer, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span lock");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter() {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            *out.entry(layer(s.name)).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span lock").iter() {
            let line = object([
                ("id", Json::UInt(s.id)),
                ("parent", Json::UInt(s.parent)),
                ("name", Json::Str(s.name.into())),
                ("request", Json::UInt(s.request)),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
            ]);
            let line = serde_json::to_string(&line).expect("JSON values serialize");
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut kids = vec![(10, 30), (20, 40), (50, 60), (90, 200)];
        assert_eq!(covered_ns(&mut kids, 0, 100), 20 + 10 + 10 + 10);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let e = t.epoch;
        let at = |ns| e + std::time::Duration::from_nanos(ns);
        t.record(1, "bench.pass", ROOT, 0, at(0), at(1000));
        t.record(2, "experiments.fig1", 1, 0, at(100), at(400));
        t.record(3, "experiments.fig2", 1, 0, at(400), at(900));
        let s = t.self_seconds();
        assert!((s["bench"] - 200e-9).abs() < 1e-15);
        assert!((s["experiments"] - 800e-9).abs() < 1e-15);
    }
}
