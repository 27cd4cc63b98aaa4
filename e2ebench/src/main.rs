//! End-to-end benchmark of the RLCut pipeline.
//!
//! ```text
//! e2ebench --workload <static-lj|sharded-tw|durable-serve-lj> --seed <n>
//!          --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Inputs are generated from the seed before any clock starts. Every layer
//! is timed from outside, around the benchmark's own calls into that
//! layer's public functions. Human-readable results go to stderr; the last
//! line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `NOTES.md` for what each workload and metric means.

mod inputs;
mod outcome;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use outcome::{Outcome, E2E_METRICS, LAYER_METRICS};

/// Threads any workload may use: the benchmark host's CPU count.
pub const MAX_THREADS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "e2ebench: workload {} seed {} seconds {} trace {} host_cpus {host_cpus} threads<={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        MAX_THREADS.min(host_cpus),
    );
    trace::set_enabled(args.trace);
    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "static-lj" => workloads::static_lj::run(&args),
        "sharded-tw" => workloads::sharded_tw::run(&args),
        "durable-serve-lj" => workloads::durable_serve::run(&args),
        other => {
            eprintln!("e2ebench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let wall = started.elapsed().as_secs_f64();

    out.set("bench.timer_overhead_ns", trace::timer_overhead_ns());
    out.set("peak_rss_mb", geograph::peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64);
    if args.trace {
        finish_trace(&args, &mut out, wall);
    }
    out.print_human();
    println!("{}", out.result_json(if args.trace { LAYER_METRICS } else { E2E_METRICS }));
    ExitCode::SUCCESS
}

/// Summarizes the recorded spans into per-layer self times and writes the
/// spans out as JSON lines.
fn finish_trace(args: &Args, out: &mut Outcome, wall: f64) {
    let (spans, counts) = trace::drain();
    let summary = trace::summarize(&spans);
    eprintln!("  {:<32} {:>7} {:>12} {:>12}", "span", "calls", "total_s", "self_s");
    for s in &summary {
        eprintln!(
            "  {:<32} {:>7} {:>12.6} {:>12.6}",
            s.name,
            s.calls,
            s.total_ns as f64 * 1e-9,
            s.self_ns as f64 * 1e-9
        );
    }
    for layer in ["geograph", "geopart", "rlcut", "geodur", "geoserve", "geoengine"] {
        let key = outcome::self_metric(layer);
        out.set(key, trace::layer_self_s(&summary, layer));
    }
    // Tracing cost: measured per-span recording cost times spans recorded,
    // as a share of the run's wall time.
    let overhead = trace::span_cost_ns() * spans.len() as f64 * 1e-9;
    out.set("bench.spans", spans.len() as f64);
    out.set("bench.trace_overhead_frac", overhead / wall);
    let path = args.work_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.work_dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(&spans, &counts)));
    match written {
        Ok(()) => eprintln!("  spans written to {}", path.display()),
        Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
    }
}
