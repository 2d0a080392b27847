//! `qkc-telemetry` — zero-dependency, std-only instrumentation for the QKC
//! stack: hierarchical span timers, monotone counters, and log-linear
//! latency/size histograms behind a [`Recorder`] trait with a global
//! in-process registry.
//!
//! # The overhead contract
//!
//! Telemetry is **disabled by default**, and while disabled every
//! instrumentation site costs exactly one relaxed atomic load — no clock
//! read, no lock, no allocation, and no change to any computed result.
//! Enabling it ([`set_enabled`]) turns the same sites into real
//! measurements: spans read the monotonic clock twice and record into an
//! atomic histogram; counters and sizes do one or two relaxed
//! `fetch_add`s behind a short registry lookup. Nothing on either path
//! touches the numerical code, so results stay byte-identical with
//! telemetry on or off (`tests/telemetry.rs` asserts this across thread
//! counts and batch widths, and that a disabled engine records nothing).
//!
//! # Phase paths
//!
//! Sites identify themselves with static `/`-separated paths, grouped by
//! subsystem: `compile/order`, `cache/rehydrate/read`,
//! `sweep/worker/chunk`, `gradient/scan`, `planner/chosen/kc`. Paths are
//! `&'static str` so the disabled path allocates nothing and the registry
//! can key on pointer-stable names.
//!
//! # Example
//!
//! ```
//! qkc_telemetry::set_enabled(true);
//! {
//!     let _span = qkc_telemetry::span("demo/work");
//!     qkc_telemetry::count("demo/items", 3);
//! }
//! let snap = qkc_telemetry::snapshot();
//! assert_eq!(snap.counter("demo/items"), Some(3));
//! assert_eq!(snap.span("demo/work").unwrap().count, 1);
//! qkc_telemetry::set_enabled(false);
//! qkc_telemetry::reset();
//! ```

#![forbid(unsafe_code)]

mod histogram;
mod snapshot;

pub use histogram::{bucket_high, bucket_index, bucket_low, Histogram, NUM_BUCKETS, SUB_BUCKETS};
pub use snapshot::{fmt_nanos, path_has_prefix, Bucket, CounterStats, HistogramStats, Snapshot};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The global on/off switch. Relaxed is sufficient: the flag only gates
/// *whether* to measure, never the correctness of what is measured.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when instrumentation sites should record. One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide; returns the previous state.
/// Also honored at startup by anything calling [`init_from_env`].
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

/// Enables telemetry if the `QKC_TELEMETRY` environment variable is set to
/// anything other than `0` or the empty string. Returns the resulting state.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("QKC_TELEMETRY") {
        if !v.is_empty() && v != "0" {
            set_enabled(true);
        }
    }
    enabled()
}

/// The sink interface: spans, counters, and size histograms keyed by
/// static paths. The global registry implements it; tests can substitute
/// their own to capture records directly.
pub trait Recorder: Send + Sync {
    /// Records one span completion of `nanos` under `path`.
    fn record_span_nanos(&self, path: &'static str, nanos: u64);
    /// Adds `delta` to the monotone counter at `path`.
    fn add_counter(&self, path: &'static str, delta: u64);
    /// Records one size/value observation under `path`.
    fn record_size(&self, path: &'static str, value: u64);
    /// Reads everything recorded so far.
    fn snapshot(&self) -> Snapshot;
    /// Zeroes all metrics (for tests and benches).
    fn reset(&self);
}

/// The in-process metric store: three path-keyed families, each behind its
/// own short-held mutex that guards only the name→metric map — the metrics
/// themselves are atomic, so recording after the first lookup never blocks
/// a concurrent reader or writer of a different path.
#[derive(Default)]
pub struct Registry {
    spans: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    sizes: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry with no metrics recorded.
    pub fn new() -> Self {
        Self::default()
    }

    fn span_hist(&self, path: &'static str) -> Arc<Histogram> {
        debug_assert!(path_is_well_formed(path), "bad span path: {path:?}");
        Arc::clone(
            self.spans
                .lock()
                .unwrap()
                .entry(path)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    fn size_hist(&self, path: &'static str) -> Arc<Histogram> {
        debug_assert!(path_is_well_formed(path), "bad size path: {path:?}");
        Arc::clone(
            self.sizes
                .lock()
                .unwrap()
                .entry(path)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    fn counter_cell(&self, path: &'static str) -> Arc<AtomicU64> {
        debug_assert!(path_is_well_formed(path), "bad counter path: {path:?}");
        Arc::clone(
            self.counters
                .lock()
                .unwrap()
                .entry(path)
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }
}

impl Recorder for Registry {
    fn record_span_nanos(&self, path: &'static str, nanos: u64) {
        self.span_hist(path).record(nanos);
    }

    fn add_counter(&self, path: &'static str, delta: u64) {
        self.counter_cell(path).fetch_add(delta, Ordering::Relaxed);
    }

    fn record_size(&self, path: &'static str, value: u64) {
        self.size_hist(path).record(value);
    }

    fn snapshot(&self) -> Snapshot {
        let read_family = |m: &Mutex<BTreeMap<&'static str, Arc<Histogram>>>| {
            let hists: Vec<(&'static str, Arc<Histogram>)> = m
                .lock()
                .unwrap()
                .iter()
                .map(|(&p, h)| (p, Arc::clone(h)))
                .collect();
            hists
                .into_iter()
                .map(|(path, h)| {
                    let (raw, count, sum) = h.read();
                    HistogramStats {
                        path: path.to_string(),
                        count,
                        sum,
                        buckets: raw
                            .into_iter()
                            .map(|(low, high, count)| Bucket { low, high, count })
                            .collect(),
                    }
                })
                .collect::<Vec<_>>()
        };
        let counters = {
            let cells: Vec<(&'static str, Arc<AtomicU64>)> = self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(&p, c)| (p, Arc::clone(c)))
                .collect();
            cells
                .into_iter()
                .map(|(path, c)| CounterStats {
                    path: path.to_string(),
                    value: c.load(Ordering::Relaxed),
                })
                .collect()
        };
        Snapshot {
            spans: read_family(&self.spans),
            counters,
            sizes: read_family(&self.sizes),
        }
    }

    fn reset(&self) {
        for h in self.spans.lock().unwrap().values() {
            h.reset();
        }
        for c in self.counters.lock().unwrap().values() {
            c.store(0, Ordering::Relaxed);
        }
        for h in self.sizes.lock().unwrap().values() {
            h.reset();
        }
    }
}

/// The process-wide registry every free function below records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// An RAII span timer. When telemetry is disabled the guard is inert: no
/// clock read on entry, a `None` check on drop. Drop it (or let it fall
/// out of scope) to record the elapsed time under its path.
#[must_use = "a span records on drop; binding it to _ discards the measurement immediately"]
pub struct SpanGuard {
    path: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// An inert guard that records nothing (used on the disabled path).
    pub fn inert(path: &'static str) -> Self {
        Self { path, start: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            global().record_span_nanos(self.path, nanos);
        }
    }
}

/// Starts a span at `path`. One relaxed load when disabled.
#[inline]
pub fn span(path: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard {
            path,
            start: Some(Instant::now()),
        }
    } else {
        SpanGuard::inert(path)
    }
}

/// Records an externally measured duration as one span completion at
/// `path` — for sites that already time themselves (e.g. the compile
/// pipeline, which persists its phase times into `PipelineMetrics`).
#[inline]
pub fn record_span_secs(path: &'static str, secs: f64) {
    if enabled() {
        let nanos = if secs <= 0.0 { 0.0 } else { secs * 1e9 };
        global().record_span_nanos(path, nanos as u64);
    }
}

/// Adds `delta` to the counter at `path`. One relaxed load when disabled.
#[inline]
pub fn count(path: &'static str, delta: u64) {
    if enabled() {
        global().add_counter(path, delta);
    }
}

/// Records a size/value observation at `path`. One relaxed load when
/// disabled.
#[inline]
pub fn record_size(path: &'static str, value: u64) {
    if enabled() {
        global().record_size(path, value);
    }
}

/// Snapshots the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Zeroes every metric in the global registry.
pub fn reset() {
    global().reset();
}

/// A well-formed path is non-empty `/`-separated segments with no leading,
/// trailing, or doubled slash.
pub fn path_is_well_formed(path: &str) -> bool {
    !path.is_empty() && path.split('/').all(|seg| !seg.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global enable flag is process-wide; serialize tests that flip it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let _s = span("test/disabled/span");
            count("test/disabled/counter", 5);
            record_size("test/disabled/size", 100);
            record_span_secs("test/disabled/secs", 1.0);
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test/disabled/counter"), None);
        assert!(snap.span("test/disabled/span").is_none());
        assert!(snap.size("test/disabled/size").is_none());
    }

    #[test]
    fn enabled_sites_record_and_reset_clears() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _s = span("test/enabled/span");
            count("test/enabled/counter", 2);
            count("test/enabled/counter", 3);
            record_size("test/enabled/size", 4096);
            record_span_secs("test/enabled/secs", 0.001);
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("test/enabled/counter"), Some(5));
        let sp = snap.span("test/enabled/span").expect("span recorded");
        assert_eq!(sp.count, 1);
        let secs = snap.span("test/enabled/secs").expect("secs recorded");
        // 1ms recorded via record_span_secs lands within histogram error.
        assert!(
            (secs.mean() - 1e6).abs() / 1e6 < 0.2,
            "mean {}",
            secs.mean()
        );
        assert_eq!(snap.size("test/enabled/size").unwrap().count, 1);
        reset();
        let clean = snapshot();
        assert_eq!(clean.counter("test/enabled/counter"), Some(0));
        assert_eq!(clean.span("test/enabled/span").unwrap().count, 0);
    }

    #[test]
    fn concurrent_recording_keeps_totals_consistent() {
        let _g = lock();
        set_enabled(true);
        reset();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for i in 0..1000u64 {
                        count("test/concurrent/counter", 1);
                        record_size("test/concurrent/size", i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("test/concurrent/counter"), Some(4000));
        let sz = snap.size("test/concurrent/size").unwrap();
        assert_eq!(sz.count, 4000);
        assert_eq!(
            sz.count,
            sz.buckets.iter().map(|b| b.count).sum::<u64>(),
            "derived count must equal the bucket sum"
        );
        reset();
    }

    #[test]
    fn path_well_formedness() {
        assert!(path_is_well_formed("a"));
        assert!(path_is_well_formed("a/b/c"));
        assert!(!path_is_well_formed(""));
        assert!(!path_is_well_formed("/a"));
        assert!(!path_is_well_formed("a/"));
        assert!(!path_is_well_formed("a//b"));
    }

    #[test]
    fn init_from_env_respects_zero() {
        let _g = lock();
        set_enabled(false);
        std::env::set_var("QKC_TELEMETRY", "0");
        assert!(!init_from_env());
        std::env::set_var("QKC_TELEMETRY", "1");
        assert!(init_from_env());
        set_enabled(false);
        std::env::remove_var("QKC_TELEMETRY");
    }
}
