//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (name, start, end, parent, op id) and kept in
//! memory until the run ends. A layer's self time is its span minus the
//! spans of its children; the op-level `replay` root's self time is the
//! explicit `unattributed` remainder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op this span belongs to; `None` for the once-per-run layer
    /// probe.
    pub op: Option<usize>,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Work units the span covered (points, samples, Gray steps, calls).
    pub units: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The recorder: a span list, the open-span stack, and side tallies for
/// ratios measured at the same boundaries.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// The op new spans belong to (`None` while probing).
    pub op: Option<usize>,
    /// Named sums (kernel seconds, cone slots, accepted moves, ...).
    pub tally: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
            tally: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name` covering `units` work units.
    pub fn span<T>(&mut self, name: &'static str, units: f64, f: impl FnOnce(&mut Self) -> T) -> T {
        let ix = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            start,
            end: start,
            parent: self.stack.last().copied(),
            units,
        });
        self.stack.push(ix);
        let out = f(self);
        self.stack.pop();
        self.spans[ix].end = self.now();
        out
    }

    /// Adds `v` to the tally `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.tally.entry(key).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.tally.get(key).copied().unwrap_or(0.0)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.secs();
            }
        }
        out
    }

    /// The root span of span `ix`.
    fn root_of(&self, mut ix: usize) -> usize {
        while let Some(p) = self.spans[ix].parent {
            ix = p;
        }
        ix
    }

    /// Per-call (or per-unit) mean seconds of spans named `name`. Spans of
    /// the op replays win over the layer probe's: the probe only fills in
    /// layers the workload's own ops never call.
    pub fn mean_secs(&self, name: &str) -> Option<f64> {
        let pick = |op_level: bool| {
            let (secs, units) = self
                .spans
                .iter()
                .filter(|s| s.name == name && s.op.is_some() == op_level)
                .fold((0.0, 0.0), |(a, u), s| (a + s.secs(), u + s.units));
            (units > 0.0).then(|| secs / units)
        };
        pick(true).or_else(|| pick(false))
    }

    /// Sum of the durations of spans named `name` under the `replay` root
    /// of `op`.
    pub fn replay_secs(&self, op: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.op == Some(op) && s.name == name && {
                    let r = self.root_of(*i);
                    self.spans[r].name == "replay"
                }
            })
            .map(|(_, s)| s.secs())
            .sum()
    }

    /// The per-layer self-time table over every `replay` tree: total self
    /// seconds per layer name plus the `unattributed` remainder (the roots'
    /// own self time), sorted by descending share.
    pub fn layer_table(&self) -> (Vec<(String, f64)>, f64) {
        let selfs = self.self_times();
        let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            let r = self.root_of(i);
            if self.spans[r].name != "replay" {
                continue;
            }
            if i == r {
                total += s.secs();
                *by_name.entry("unattributed").or_insert(0.0) += selfs[i];
            } else {
                *by_name.entry(s.name).or_insert(0.0) += selfs[i];
            }
        }
        let mut rows: Vec<(String, f64)> = by_name
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        (rows, total)
    }

    /// Every `replay` root: `(op, duration, unattributed self time)`.
    pub fn replay_roots(&self) -> Vec<(usize, f64, f64)> {
        let selfs = self.self_times();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "replay" && s.parent.is_none())
            .filter_map(|(i, s)| Some((s.op?, s.secs(), selfs[i])))
            .collect()
    }

    /// The span log: one JSON object per line.
    pub fn span_log(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{op},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"units\":{}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                s.units
            );
        }
        out
    }
}
