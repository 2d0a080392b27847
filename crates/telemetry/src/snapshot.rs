//! Point-in-time telemetry snapshots and their two exporters: a
//! human-readable tree report and an appendable single-line JSONL record.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// One bucket of a snapshotted histogram: every observation in
/// `low..=high`, `count` of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Smallest value this bucket admits.
    pub low: u64,
    /// Largest value this bucket admits (inclusive).
    pub high: u64,
    /// Observations that landed in `low..=high`.
    pub count: u64,
}

/// A snapshotted histogram (span latencies in nanoseconds, or sizes in the
/// unit the recording site chose — bytes unless the path says otherwise).
///
/// `count` is derived from the bucket occupancies at read time, so
/// `count == buckets.iter().map(|b| b.count).sum()` holds for every
/// snapshot, even one taken mid-flight.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// The `/`-separated metric path this histogram was recorded under.
    pub path: String,
    /// Total observations across all buckets.
    pub count: u64,
    /// Sum of raw observed values (wrapping on overflow).
    pub sum: u64,
    /// Occupied buckets only, in value order.
    pub buckets: Vec<Bucket>,
}

impl HistogramStats {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower-bound estimate of the `q`-quantile (`0.0..=1.0`) from the
    /// bucket boundaries; exact to the histogram's 12.5% resolution.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.low;
            }
        }
        self.buckets.last().map_or(0, |b| b.low)
    }
}

/// A monotone counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterStats {
    /// The `/`-separated metric path this counter was recorded under.
    pub path: String,
    /// The counter's value at snapshot time.
    pub value: u64,
}

/// Everything the global recorder has accumulated, read at one point in
/// time. Paths within each family are sorted and unique.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Span latency histograms, values in nanoseconds.
    pub spans: Vec<HistogramStats>,
    /// Monotone counters.
    pub counters: Vec<CounterStats>,
    /// Size/value histograms.
    pub sizes: Vec<HistogramStats>,
}

impl Snapshot {
    /// The span-latency histogram recorded under exactly `path`, if any.
    pub fn span(&self, path: &str) -> Option<&HistogramStats> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// The counter value recorded under exactly `path`, if any.
    pub fn counter(&self, path: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.path == path)
            .map(|c| c.value)
    }

    /// The size histogram recorded under exactly `path`, if any.
    pub fn size(&self, path: &str) -> Option<&HistogramStats> {
        self.sizes.iter().find(|s| s.path == path)
    }

    /// Total span observations whose path starts with `prefix` (segment
    /// aligned: `"compile"` matches `compile/order` but not `compiler/x`).
    pub fn span_count_under(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| path_has_prefix(&s.path, prefix))
            .map(|s| s.count)
            .sum()
    }

    /// Sum of counters whose path starts with `prefix` (segment aligned).
    pub fn counter_total_under(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| path_has_prefix(&c.path, prefix))
            .map(|c| c.value)
            .sum()
    }

    /// True if any span, counter, or size under `prefix` recorded data.
    pub fn has_data_under(&self, prefix: &str) -> bool {
        self.span_count_under(prefix) > 0
            || self.counter_total_under(prefix) > 0
            || self
                .sizes
                .iter()
                .any(|s| path_has_prefix(&s.path, prefix) && s.count > 0)
    }

    /// Renders the snapshot as an indented tree keyed by `/`-separated
    /// path segments, with one metric line per leaf.
    pub fn render_tree(&self) -> String {
        #[derive(Default)]
        struct Node {
            children: BTreeMap<String, Node>,
            line: Option<String>,
        }
        fn insert(root: &mut Node, path: &str, line: String) {
            let mut node = root;
            for seg in path.split('/') {
                node = node.children.entry(seg.to_string()).or_default();
            }
            node.line = Some(line);
        }
        let mut root = Node::default();
        for s in &self.spans {
            insert(
                &mut root,
                &s.path,
                format!(
                    "span     n={:<8} total {:<10} mean {:<10} p50 {:<10} p99 {}",
                    s.count,
                    fmt_nanos(s.sum),
                    fmt_nanos(s.mean() as u64),
                    fmt_nanos(s.quantile(0.50)),
                    fmt_nanos(s.quantile(0.99)),
                ),
            );
        }
        for c in &self.counters {
            insert(&mut root, &c.path, format!("counter  {}", c.value));
        }
        for s in &self.sizes {
            insert(
                &mut root,
                &s.path,
                format!(
                    "size     n={:<8} sum {:<12} mean {:<12} p99 {}",
                    s.count,
                    s.sum,
                    s.mean() as u64,
                    s.quantile(0.99),
                ),
            );
        }
        fn render(node: &Node, name: &str, depth: usize, out: &mut String) {
            if depth > 0 {
                let pad = "  ".repeat(depth - 1);
                match &node.line {
                    Some(line) => {
                        out.push_str(&format!(
                            "{pad}{name:<width$} {line}\n",
                            width = 24usize.saturating_sub(pad.len())
                        ));
                    }
                    None => out.push_str(&format!("{pad}{name}\n")),
                }
            }
            for (child_name, child) in &node.children {
                render(child, child_name, depth + 1, out);
            }
        }
        let mut out = String::from("telemetry snapshot\n");
        render(&root, "", 0, &mut out);
        // Lane-occupancy footer: the batched kernels hold weights in
        // lane-blocked planes, so a batch of `k` lanes pads its last block
        // with `remainder_lanes` dead lanes that still burn SIMD work.
        // `width / (width + remainder)` is the fraction of each blocked
        // sweep that computed a live lane.
        let width = self.counter("kernel/batch/width").unwrap_or(0);
        let rem = self.counter("kernel/batch/remainder_lanes").unwrap_or(0);
        if width > 0 {
            let occupancy = 100.0 * width as f64 / (width + rem) as f64;
            out.push_str(&format!(
                "lane occupancy {occupancy:.1}% ({width} live lanes, {rem} dead remainder lanes)\n"
            ));
        }
        out
    }

    /// Serializes the snapshot as one JSON object on one line, so
    /// snapshots append to a JSONL file as a trajectory.
    pub fn to_json_line(&self) -> String {
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut s = format!("{{\"telemetry\":1,\"unix_time\":{unix_time},\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"path\":\"{}\",\"count\":{},\"total_nanos\":{},\"p50_nanos\":{},\"p99_nanos\":{}}}",
                escape(&sp.path),
                sp.count,
                sp.sum,
                sp.quantile(0.50),
                sp.quantile(0.99),
            ));
        }
        s.push_str("],\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"path\":\"{}\",\"value\":{}}}",
                escape(&c.path),
                c.value
            ));
        }
        s.push_str("],\"sizes\":[");
        for (i, sz) in self.sizes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"path\":\"{}\",\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{}}}",
                escape(&sz.path),
                sz.count,
                sz.sum,
                sz.quantile(0.50),
                sz.quantile(0.99),
            ));
        }
        s.push_str("]}");
        s
    }

    /// Appends [`Self::to_json_line`] plus a newline to `path`, creating
    /// the file if needed.
    pub fn append_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json_line())
    }
}

/// Segment-aligned prefix test: `compile` covers `compile` and
/// `compile/order/mincut` but not `compiler`.
pub fn path_has_prefix(path: &str, prefix: &str) -> bool {
    path == prefix
        || (path.len() > prefix.len()
            && path.starts_with(prefix)
            && path.as_bytes()[prefix.len()] == b'/')
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a nanosecond quantity with an adaptive unit.
pub fn fmt_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}us", n / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(path: &str, buckets: Vec<(u64, u64, u64)>) -> HistogramStats {
        let count = buckets.iter().map(|&(_, _, n)| n).sum();
        let sum = buckets.iter().map(|&(lo, _, n)| lo * n).sum();
        HistogramStats {
            path: path.to_string(),
            count,
            sum,
            buckets: buckets
                .into_iter()
                .map(|(low, high, count)| Bucket { low, high, count })
                .collect(),
        }
    }

    #[test]
    fn prefix_matching_is_segment_aligned() {
        assert!(path_has_prefix("compile/order/mincut", "compile"));
        assert!(path_has_prefix("compile", "compile"));
        assert!(!path_has_prefix("compiler/x", "compile"));
        assert!(!path_has_prefix("compile", "compile/order"));
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = hist("t", vec![(0, 3, 50), (4, 7, 40), (8, 9, 10)]);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.51), 4);
        assert_eq!(h.quantile(0.99), 8);
        assert_eq!(h.quantile(1.0), 8);
    }

    #[test]
    fn json_line_is_one_line_and_balanced() {
        let snap = Snapshot {
            spans: vec![hist("a/b", vec![(4, 7, 2)])],
            counters: vec![CounterStats {
                path: "c".into(),
                value: 9,
            }],
            sizes: vec![],
        };
        let line = snap.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"telemetry\":1,"));
        assert!(line.ends_with("]}"));
        assert!(line.contains("\"path\":\"a/b\""));
        assert!(line.contains("\"value\":9"));
    }

    #[test]
    fn tree_render_groups_by_segment() {
        let snap = Snapshot {
            spans: vec![hist("cache/rehydrate/read", vec![(4, 7, 1)])],
            counters: vec![CounterStats {
                path: "cache/hit".into(),
                value: 3,
            }],
            sizes: vec![],
        };
        let tree = snap.render_tree();
        let cache_lines: Vec<&str> = tree.lines().filter(|l| l.contains("cache")).collect();
        assert_eq!(
            cache_lines.len(),
            1,
            "cache appears once as a group:\n{tree}"
        );
        assert!(tree.contains("hit"));
        assert!(tree.contains("rehydrate"));
        assert!(
            !tree.contains("lane occupancy"),
            "no occupancy note without batch counters:\n{tree}"
        );
    }

    #[test]
    fn tree_render_notes_lane_occupancy_from_batch_counters() {
        let snap = Snapshot {
            spans: vec![],
            counters: vec![
                CounterStats {
                    path: "kernel/batch/width".into(),
                    value: 21,
                },
                CounterStats {
                    path: "kernel/batch/remainder_lanes".into(),
                    value: 3,
                },
            ],
            sizes: vec![],
        };
        let tree = snap.render_tree();
        // 21 live of 24 swept lanes = 87.5%.
        assert!(
            tree.contains("lane occupancy 87.5% (21 live lanes, 3 dead remainder lanes)"),
            "occupancy footer missing or wrong:\n{tree}"
        );
    }
}
