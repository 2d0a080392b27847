//! The closed-loop harness shared by every workload: set-up, warm-up, the
//! timed phase, oracle checks, and the traced replay.
//!
//! Closed loop: one client starts its next op only when the previous one
//! returned, the way an optimizer waits on each step. Every run does a
//! fixed number of ops derived from `--seconds`, so runs of one seed do
//! identical counted work. End-to-end runs give the engine one worker
//! thread: on a small shared host an op split across every vCPU waits for
//! its slowest worker, so one unrelated busy thread stretches the whole op
//! (a 2-thread sweep on 2 vCPUs took 1.8× as long beside a busy loop; a
//! 1-thread sweep did not move). The traced run measures the fan-out on
//! its own, as `engine.sweep.parallel_eff`.

use crate::replay::DUPLICATE_SPANS;
use crate::trace::Tracer;
use crate::util::{median, nproc, secs, tail, vm_hwm_kib};
use qkc_engine::{CacheStats, Engine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One benchmark workload: its inputs are built from the seed before any
/// timer starts; the harness only hands it op indices.
pub trait Workload: Sync {
    /// The engine state ops run against.
    type Runner: Send + Sync;
    /// One op's result.
    type Out: Send;

    /// Work units one op completes (sweep points, gradients, samples or
    /// structure queries).
    fn units(&self, op: usize) -> u64;
    /// Builds the engine state for `threads` workers (timed as set-up).
    /// `dir` is a fresh run-private directory for spill files.
    fn runner(&self, threads: usize, dir: &Path) -> Result<Self::Runner, String>;
    /// The engine under a runner.
    fn engine<'a>(&self, r: &'a Self::Runner) -> &'a Engine;
    /// Runs op `op` through the public engine API.
    fn run_op(&self, r: &Self::Runner, op: usize) -> Result<Self::Out, String>;
    /// The op's exact work counts (one line) and result checksum.
    fn summary(&self, op: usize, out: &Self::Out) -> (String, u64);
    /// Checks the op against the workload's oracle.
    fn check(&self, r: &Self::Runner, op: usize, out: &Self::Out) -> Result<(), String>;
    /// Exact counts of the one structure every op queries, compiled by the
    /// set-up op (see [`crate::replay::structure_counts`]). Workloads that
    /// compile per op print their counts per op instead.
    fn compiled(&self, _r: &Self::Runner) -> Option<String> {
        None
    }
    /// Replays op `op` at one thread through each layer's public calls
    /// (opening the op's `replay` span itself), given the result the
    /// 1-thread runner `r1` produced.
    fn replay(
        &self,
        tr: &mut Tracer,
        r1: &Self::Runner,
        op: usize,
        out: &Self::Out,
    ) -> Result<(), String>;
    /// The once-per-run layer probe (see [`crate::replay::probe`]).
    fn probe(&self, tr: &mut Tracer, r1: &Self::Runner) -> Result<(), String>;
}

/// How much counted work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Timed set-up rounds, after one untimed warm-up round.
    pub setup_rounds: usize,
    /// Ops run before timing starts.
    pub warmup: usize,
    /// Timed ops.
    pub ops: usize,
}

impl Plan {
    /// Ops the workload must have inputs for.
    pub fn total_ops(&self, traced: bool) -> usize {
        1 + self.warmup
            + if traced {
                2 * self.traced_ops()
            } else {
                self.ops
            }
    }

    /// Ops of each traced-run phase.
    pub fn traced_ops(&self) -> usize {
        (self.ops / 6).clamp(3, 16)
    }
}

/// Run-private scratch directories, removed when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<usize>,
}

impl Scratch {
    pub fn new(root: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Self {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh empty directory.
    pub fn dir(&self) -> Result<PathBuf, String> {
        let k = self.next.get();
        self.next.set(k + 1);
        let dir = self.root.join(format!("spill-{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Attempted / failed op tallies and the printed per-op lines.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Accounts one op: a returned error, a caught panic or a failed
    /// oracle check all count as a failed op. Returns the checksum.
    fn account<W: Workload>(
        &mut self,
        w: &W,
        r: &W::Runner,
        phase: &str,
        op: usize,
        out: &Result<W::Out, String>,
    ) -> Option<u64> {
        self.attempted += 1;
        match out {
            Err(e) => {
                self.failed += 1;
                println!("op {op} {phase} FAILED: {e}");
                None
            }
            Ok(o) => {
                let (counts, sum) = w.summary(op, o);
                println!("op {op} {phase} {counts} sum={sum:016x}");
                if let Err(e) = w.check(r, op, o) {
                    self.failed += 1;
                    println!("op {op} {phase} FAILED oracle: {e}");
                }
                Some(sum)
            }
        }
    }
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// A finished run: what the last output line reports.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Timed ops are cut into this many windows of consecutive ops, and
/// `rate_per_s` is the median window rate: a stall on a shared host that
/// covers a few windows does not move it.
pub const RATE_WINDOWS: usize = 9;

/// The untraced run: end-to-end metrics, at one worker thread.
pub fn untraced<W: Workload>(w: &W, plan: &Plan, scratch: &Scratch) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    // Round 0 is a discarded warm-up: a fresh process pays for growing its
    // heap in whichever round comes first.
    for round in 0..=plan.setup_rounds {
        let dir = scratch.dir()?;
        let t = Instant::now();
        let runner = w.runner(1, &dir)?;
        let out = guarded(|| w.run_op(&runner, 0));
        if round > 0 {
            setup_s.push(secs(t));
        }
        tally.account(w, &runner, "setup", 0, &out);
        kept = Some(runner);
    }
    let r = kept.ok_or("no set-up round ran")?;
    if let Some(counts) = w.compiled(&r) {
        println!("# compiled structure {counts}");
    }
    for op in 1..=plan.warmup {
        let out = guarded(|| w.run_op(&r, op));
        tally.account(w, &r, "warmup", op, &out);
    }
    let first = plan.warmup + 1;
    let mut lat = Vec::with_capacity(plan.ops);
    let mut outs = Vec::with_capacity(plan.ops);
    let started = Instant::now();
    for op in first..first + plan.ops {
        let t = Instant::now();
        let out = guarded(|| w.run_op(&r, op));
        lat.push(secs(t));
        outs.push(out);
    }
    let wall = secs(started);
    let units: u64 = (first..first + plan.ops).map(|op| w.units(op)).sum();
    let windows: Vec<f64> = (0..RATE_WINDOWS)
        .map(|k| {
            let (a, b) = (
                k * plan.ops / RATE_WINDOWS,
                (k + 1) * plan.ops / RATE_WINDOWS,
            );
            let units: u64 = (first + a..first + b).map(|op| w.units(op)).sum();
            units as f64 / lat[a..b].iter().sum::<f64>()
        })
        .collect();
    let mut run_sum = crate::util::Fnv::default();
    for (i, out) in outs.iter().enumerate() {
        if let Some(sum) = tally.account(w, &r, "timed", first + i, out) {
            run_sum.u64(sum);
        }
    }
    let lat_ms: Vec<f64> = lat.iter().map(|s| s * 1e3).collect();
    let rate = median(&windows);
    let p50 = median(&lat_ms);
    let setup = median(&setup_s);
    println!(
        "# op_ms all={:?}",
        lat_ms.iter().map(|v| v.round() as i64).collect::<Vec<_>>()
    );
    println!(
        "# timed ops={} units={units} wall_s={wall:.4} run_sum={:016x}",
        plan.ops,
        run_sum.finish()
    );
    println!(
        "# rate_per_s windows={:?} whole_run={:.3}",
        windows.iter().map(|v| v.round() as i64).collect::<Vec<_>>(),
        units as f64 / wall
    );
    match tail(&lat_ms) {
        Some((pct, v)) => println!(
            "# op_ms p{pct:.1}={v:.3} (10 ops beyond it, n={})",
            lat.len()
        ),
        None => println!("# op_ms tail: fewer than 11 ops"),
    }
    println!(
        "# setup_s samples={} values={:?}",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    print_rss();
    Ok(Report {
        tally,
        metrics: vec![
            ("rate_per_s", rate, "1/s"),
            ("op_ms_p50", p50, "ms"),
            ("setup_s", setup, "s"),
        ],
    })
}

fn print_rss() {
    match vm_hwm_kib() {
        Some(kib) => println!("# peak_rss VmHWM={kib} kB"),
        None => println!("# peak_rss unavailable"),
    }
}

/// The traced run: per-layer metrics. Every op runs through the engine at
/// nproc threads and at one thread, then replays at one thread through
/// the layers' public calls.
pub fn traced<W: Workload>(
    w: &W,
    plan: &Plan,
    scratch: &Scratch,
    out_stem: &Path,
    header: &str,
) -> Result<Report, String> {
    let cpus = nproc();
    let k = plan.traced_ops();
    let mut tally = Tally::default();
    let mut tr = Tracer::new();

    let r_n = w.runner(cpus, &scratch.dir()?)?;
    let out = guarded(|| w.run_op(&r_n, 0));
    tally.account(w, &r_n, "setup", 0, &out);
    for op in 1..=plan.warmup {
        let out = guarded(|| w.run_op(&r_n, op));
        tally.account(w, &r_n, "warmup", op, &out);
    }
    // Untraced baseline at nproc threads.
    let first = plan.warmup + 1;
    let mut lat_u = Vec::new();
    for op in first..first + k {
        let t = Instant::now();
        let out = guarded(|| w.run_op(&r_n, op));
        lat_u.push(secs(t));
        tally.account(w, &r_n, "untraced", op, &out);
    }
    // The 1-thread runner joins the op stream one op early, untimed.
    let r_1 = w.runner(1, &scratch.dir()?)?;
    let out = guarded(|| w.run_op(&r_1, first + k - 1));
    tally.account(w, &r_1, "setup1", first + k - 1, &out);

    let (mut lat_t, mut lat_1, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for op in first + k..first + 2 * k {
        tr.op = Some(op);
        let units = w.units(op) as f64;
        let out_n = tr.span("engine.op", units, |_| guarded(|| w.run_op(&r_n, op)));
        lat_t.push(crate::replay::last_secs(&tr, "engine.op"));
        let out_1 = tr.span("engine.op1", units, |_| guarded(|| w.run_op(&r_1, op)));
        lat_1.push(crate::replay::last_secs(&tr, "engine.op1"));
        let sum_n = tally.account(w, &r_n, "traced", op, &out_n);
        let sum_1 = tally.account(w, &r_1, "traced1", op, &out_1);
        if sum_n != sum_1 {
            tally.failed += 1;
            println!("op {op} FAILED: results differ between {cpus} threads and 1 thread");
        }
        let Ok(o) = &out_1 else { continue };
        if let Err(e) = guarded(|| w.replay(&mut tr, &r_1, op, o)) {
            tally.failed += 1;
            println!("op {op} FAILED replay: {e}");
            continue;
        }
        let replay = tr.replay_secs(op, "replay");
        let dup: f64 = DUPLICATE_SPANS.iter().map(|n| tr.replay_secs(op, n)).sum();
        overhead.push(1.0 - (replay - dup) / crate::replay::last_secs(&tr, "engine.op1"));
    }
    tr.op = None;
    if let Err(e) = guarded(|| w.probe(&mut tr, &r_1)) {
        tally.failed += 1;
        println!("probe FAILED: {e}");
    }

    let stats = w.engine(&r_n).cache().stats();
    let eff = median(&lat_1) / (cpus as f64 * median(&lat_u));
    let trace_overhead = median(&lat_t) / median(&lat_u) - 1.0;
    let metrics = layer_metrics(&tr, &stats, eff, median(&overhead), trace_overhead)?;
    let table = render_table(&tr, &lat_1, &overhead, eff, trace_overhead);
    print!("{table}");
    print_rss();
    // Both files open with the run's seed and host fingerprint.
    let run_line = format!("{{\"run\":\"{}\"}}\n", header.replace('"', "\\\""));
    std::fs::write(
        out_stem.with_extension("spans.jsonl"),
        run_line + &tr.span_log(),
    )
    .and_then(|()| {
        std::fs::write(
            out_stem.with_extension("layers.txt"),
            format!("{header}\n{table}"),
        )
    })
    .map_err(|e| format!("writing the trace: {e}"))?;
    println!(
        "# trace written to {}.{{spans.jsonl,layers.txt}}",
        out_stem.display()
    );
    Ok(Report { tally, metrics })
}

/// The self-time table of the op replays, with the drill-down ratios.
fn render_table(tr: &Tracer, lat_1: &[f64], overhead: &[f64], eff: f64, trace_ovh: f64) -> String {
    use std::fmt::Write as _;
    let (rows, total) = tr.layer_table();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# layer self time over {} replayed ops (1 thread); engine op p50 {:.3} ms",
        lat_1.len(),
        median(lat_1) * 1e3
    );
    for (name, secs) in &rows {
        let _ = writeln!(
            s,
            "#   {name:<28} {:>10.3} ms {:>6.1}%",
            secs * 1e3,
            100.0 * secs / total
        );
    }
    let dominant = rows
        .iter()
        .find(|(n, _)| n != "unattributed")
        .map_or("none", |(n, _)| n.as_str());
    let _ = writeln!(s, "#   dominant layer: {dominant}");
    for (op, secs, unattributed) in tr.replay_roots() {
        let _ = writeln!(
            s,
            "#   op {op}: replay {:.3} ms, unattributed {:.3} ms ({:.2}%)",
            secs * 1e3,
            unattributed * 1e3,
            100.0 * unattributed / secs
        );
    }
    let _ = writeln!(
        s,
        "# engine.overhead_frac {:.4}  engine.sweep.parallel_eff {eff:.4}  trace.overhead_frac {trace_ovh:.4}",
        median(overhead)
    );
    s
}

/// Per-layer metrics timed by spans: (metric, span name, scale, unit). Each
/// is the span's mean seconds per unit, scaled.
#[rustfmt::skip]
const SPAN_METRICS: [(&str, &str, f64, &str); 20] = [
    ("engine.plan_us",              "engine.plan",              1e6, "us"),
    ("engine.cache.hit_us",         "engine.cache.hit",         1e6, "us"),
    ("core.expectations_ms",        "core.expectations",        1e3, "ms"),
    ("core.bind_us",                "core.bind",                1e6, "us"),
    ("core.bind_tangents_us",       "core.bind_tangents",       1e6, "us"),
    ("core.gradient_ms",            "core.gradient",            1e3, "ms"),
    ("core.sampler_warmup_ms",      "core.sampler_warmup",      1e3, "ms"),
    ("core.sample_us",              "core.sample",              1e6, "us"),
    ("core.compile_s",              "core.compile",             1.0, "s"),
    ("core.artifact.encode_ms",     "core.artifact.encode",     1e3, "ms"),
    ("core.artifact.decode_ms",     "core.artifact.decode",     1e3, "ms"),
    ("knowledge.order_ms",          "knowledge.order",          1e3, "ms"),
    ("knowledge.compile_ms",        "knowledge.compile",        1e3, "ms"),
    ("knowledge.postprocess_ms",    "knowledge.postprocess",    1e3, "ms"),
    ("knowledge.lower_ms",          "knowledge.lower",          1e3, "ms"),
    ("cnf.encode_ms",               "cnf.encode",               1e3, "ms"),
    ("cnf.simplify_ms",             "cnf.simplify",             1e3, "ms"),
    ("bayesnet.build_ms",           "bayesnet.build",           1e3, "ms"),
    ("bayesnet.weights_us",         "bayesnet.weights",         1e6, "us"),
    ("bayesnet.tangent_weights_us", "bayesnet.tangent_weights", 1e6, "us"),
];

/// Per-layer metrics that are ratios of two tallies: (metric, numerator,
/// denominator, scale, unit).
#[rustfmt::skip]
const RATIO_METRICS: [(&str, &str, &str, f64, &str); 10] = [
    ("core.artifact.bytes",              "artifact.bytes",         "artifact.n",        1.0, "bytes"),
    ("knowledge.kernel.full_us",         "kernel.full_s",          "kernel.full_n",     1e6, "us"),
    ("knowledge.kernel.delta_us",        "kernel.delta_s",         "kernel.delta_n",    1e6, "us"),
    ("knowledge.kernel.dirty_frac",      "kernel.cone_slots",      "kernel.tape_slots", 1.0, "frac"),
    ("knowledge.kernel.bytes_per_point", "kernel.bytes_per_point", "kernel.points",     1.0, "bytes"),
    ("knowledge.ddnnf.decisions",        "structure.decisions",    "structure.n",       1.0, "count"),
    ("knowledge.ddnnf.cache_hits",       "structure.cache_hits",   "structure.n",       1.0, "count"),
    ("knowledge.tape.ops",               "structure.tape_ops",     "structure.n",       1.0, "count"),
    ("knowledge.tape.bytes",             "structure.tape_bytes",   "structure.n",       1.0, "bytes"),
    ("cnf.clauses",                      "structure.clauses",      "structure.n",       1.0, "count"),
];

/// Every per-layer metric, from the spans, the tallies and the engine's
/// cache counters.
fn layer_metrics(
    tr: &Tracer,
    stats: &CacheStats,
    eff: f64,
    engine_overhead: f64,
    trace_overhead: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let ratio = |num: &str, den: &str| {
        let d = tr.get(den);
        if d > 0.0 {
            Ok(tr.get(num) / d)
        } else {
            Err(format!("no `{den}` tally was recorded"))
        }
    };
    let accept = if tr.get("gibbs.n") > 0.0 {
        ratio("gibbs.accept", "gibbs.n")?
    } else {
        tr.get("gibbs.probe_accept")
    };
    let kernel_s = tr.get("kernel.full_s") + tr.get("kernel.delta_s");
    let mut out = vec![
        ("engine.overhead_frac", engine_overhead, "frac"),
        ("engine.sweep.parallel_eff", eff, "frac"),
        ("engine.cache.misses", stats.misses as f64, "count"),
        ("engine.cache.spill_hits", stats.spill_hits as f64, "count"),
        ("engine.cache.evictions", stats.evictions as f64, "count"),
        (
            "engine.cache.resident_bytes",
            stats.resident_bytes as f64,
            "bytes",
        ),
        (
            "core.enum_frac",
            1.0 - kernel_s / tr.get("enum.expect_s"),
            "frac",
        ),
        ("knowledge.gibbs.accept_ratio", accept, "frac"),
        ("trace.overhead_frac", trace_overhead, "frac"),
    ];
    for (metric, name, scale, unit) in SPAN_METRICS {
        let secs = tr
            .mean_secs(name)
            .ok_or(format!("no `{name}` span was recorded"))?;
        out.push((metric, secs * scale, unit));
    }
    for (metric, num, den, scale, unit) in RATIO_METRICS {
        out.push((metric, ratio(num, den)? * scale, unit));
    }
    Ok(out)
}
