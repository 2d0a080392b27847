//! End-to-end and per-layer benchmark of the QKC engine on four closed-loop
//! variational workloads.
//!
//! ```text
//! cargo run --release --manifest-path vqbench/Cargo.toml -- \
//!     --workload <qaoa-sweep|maqaoa-grad|noisy-vqe-sample|compile-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (`rate_per_s`, `op_ms_p50`,
//! `setup_s`); `--trace 1` replays ops layer by layer and reports the
//! per-layer metrics, writing the span log and the self-time table under
//! `.vqbench_out/`. Every op is checked against an independent oracle, and
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Telemetry is forced off.
//! See `vqbench/README.md` for the workloads, metrics and predictions.

#![forbid(unsafe_code)]

mod compile_churn;
mod harness;
mod maqaoa_grad;
mod noisy_vqe;
mod qaoa_sweep;
mod replay;
mod trace;
mod util;

use harness::{Plan, Report, Scratch, Workload};
use std::path::{Path, PathBuf};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The fixed op count of a run: `--seconds` times the workload's nominal
/// op rate, four fifths of its one-thread rate on the reference host
/// (2-vCPU Xeon VM) so that set-up and oracle checks fit in the rest. The
/// counted work depends on the arguments only, never on how fast a run
/// happens to be.
/// Set-up rounds are sized to about two seconds of set-up per run, so a
/// short set-up gets more samples behind its median.
fn plan(ops_per_s: f64, seconds: f64, warmup: usize, setup_rounds: usize) -> Plan {
    Plan {
        setup_rounds,
        warmup,
        ops: ((seconds * ops_per_s).round() as usize).max(harness::RATE_WINDOWS),
    }
}

fn run<W: Workload>(
    w: &W,
    plan: &Plan,
    args: &Args,
    scratch: &Scratch,
    header: &str,
) -> Result<Report, String> {
    if args.trace {
        let stem = out_dir().join(format!("{}-seed{}", args.workload, args.seed));
        harness::traced(w, plan, scratch, &stem, header)
    } else {
        harness::untraced(w, plan, scratch)
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(".vqbench_out")
}

fn dispatch(args: &Args, scratch: &Scratch, header: &str) -> Result<Report, String> {
    let (s, t) = (args.seed, args.trace);
    match args.workload.as_str() {
        "qaoa-sweep" => {
            let p = plan(3.6, args.seconds, 1, 3);
            run(
                &qaoa_sweep::QaoaSweep::new(s, p.total_ops(t)),
                &p,
                args,
                scratch,
                header,
            )
        }
        "maqaoa-grad" => {
            let p = plan(4.3, args.seconds, 2, 3);
            run(
                &maqaoa_grad::MaQaoaGrad::new(s, p.total_ops(t)),
                &p,
                args,
                scratch,
                header,
            )
        }
        "noisy-vqe-sample" => {
            let p = plan(1.7, args.seconds, 1, 2);
            // The trajectory oracle is costly: one seeded timed op per run.
            let deep = if t {
                Vec::new()
            } else {
                vec![p.warmup + 1 + util::Rng::new(s, 9).below(p.ops)]
            };
            run(
                &noisy_vqe::NoisyVqe::new(s, p.total_ops(t), deep),
                &p,
                args,
                scratch,
                header,
            )
        }
        "compile-churn" => {
            let p = plan(13.0, args.seconds, 2, 10);
            run(
                &compile_churn::Churn::new(s, p.total_ops(t)),
                &p,
                args,
                scratch,
                header,
            )
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// nproc, CPU model, rustc, git revision and a hash of the sources built.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut h = util::Fnv::default();
    for root in ["crates", "vqbench/src"] {
        hash_tree(Path::new(root), &mut h);
    }
    format!(
        "nproc={} cpu=\"{cpu}\" rustc=\"{rustc}\" git={} src={:016x}",
        util::nproc(),
        git_rev().unwrap_or_else(|| "none".into()),
        h.finish()
    )
}

/// The checked-out revision, read from `.git` without running git.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })?
            .trim()
            .to_string(),
    };
    Some(rev.chars().take(12).collect())
}

/// Hashes every `.rs` and `.toml` file under `dir`, in path order.
fn hash_tree(dir: &Path, h: &mut util::Fnv) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            hash_tree(&p, h);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            if let Ok(bytes) = std::fs::read(&p) {
                h.bytes(p.to_string_lossy().as_bytes());
                h.bytes(&bytes);
            }
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vqbench: {e}");
            std::process::exit(2);
        }
    };
    qkc_engine::telemetry::set_enabled(false);
    let header = format!(
        "# vqbench workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fingerprint()
    );
    println!("{header}");
    let result = Scratch::new(out_dir().join(format!("run-{}", std::process::id())))
        .and_then(|scratch| dispatch(&args, &scratch, &header));
    match result {
        Ok(report) if report.metrics.iter().all(|m| m.1.is_finite()) => {
            println!("{}", json(&report))
        }
        Ok(report) => {
            eprintln!("vqbench: a metric is not finite: {:?}", report.metrics);
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("vqbench: {e}");
            std::process::exit(1);
        }
    }
}
