//! `htdbench`: the end-to-end and per-layer benchmark of golden-free Trojan
//! detection, driven through the library's public API.
//!
//! ```text
//! cargo run --release --offline --manifest-path htdbench/Cargo.toml -- \
//!     --workload detect --seed 1 --seconds 45 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`.  See `htdbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

mod clock;
mod detect;
mod layers;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::layers::{EXACT_COUNTERS, SCHEDULE_COUNTERS};
use crate::stats::{gmean, median, quantile};
use crate::trace::Trace;

const WORKLOADS: &[&str] = &["detect", "serve-mix"];

/// A run sets its workload up this many times and reports the median
/// set-up time; the first set-up is the one measured.
const SETUPS: usize = 3;

/// The fewest operations an untraced run must complete.  Designs take
/// turns, so every design then has samples beyond its `latency_ms_p90`,
/// and at least 10 lie beyond them in all.
const MIN_OPERATIONS: usize = 100;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Timings of one completed operation: it answered, rightly or not.
pub struct Latencies {
    /// Index into the workload's design list.
    pub design: usize,
    pub latency_ms: f64,
    pub first_frame_ms: f64,
}

/// What one run (its set-ups plus one measured window) measured.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    samples: Vec<Latencies>,
    notes: Vec<String>,
    /// Median over the [`SETUPS`] set-ups.
    pub setup_s: f64,
    pub window_s: f64,
    pub cpu_ms: f64,
    /// High-water RSS of the process when the measured window ended.
    pub peak_rss_mb: f64,
    pub layers: Vec<Metric>,
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn complete(&mut self, sample: Latencies) {
        self.samples.push(sample);
    }

    /// Counts the current operation as failed: a wrong answer, an error, a
    /// refusal or a counter that did not repeat.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    pub fn note(&mut self, why: String) {
        self.notes.push(why);
    }

    /// Closes the measured window that began at `start_s` with process CPU
    /// time `cpu_start_ms`: its length, CPU time and the memory high-water
    /// mark, read before any post-window checking.
    pub fn end_window(&mut self, start_s: f64, cpu_start_ms: f64) -> Result<(), String> {
        self.window_s = clock::now_s() - start_s;
        self.cpu_ms = clock::process_cpu_ms()? - cpu_start_ms;
        self.peak_rss_mb = clock::peak_rss_mb()?;
        Ok(())
    }
}

/// Times one set-up.
pub fn timed_setup<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = clock::now_s();
    let value = setup()?;
    Ok((value, clock::now_s() - start))
}

/// The median set-up time over [`SETUPS`] set-ups: the one timed at
/// `first_s` plus repeats, each dropped as soon as it is timed.  A run
/// repeats its set-up after the measured window, so the repeats touch
/// neither the window nor its memory high-water mark.
pub fn setup_median<T>(
    first_s: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut times = vec![first_s];
    while times.len() < SETUPS {
        times.push(timed_setup(&mut setup)?.1);
    }
    Ok(median(&times).unwrap_or(first_s))
}

/// The end-to-end metrics of a run.  The latencies are taken over the
/// window's completed operations, per design, and combined over the
/// designs by their geometric mean: a quantile pooled over a mixed design
/// set jumps between the designs' clusters.
fn end_to_end(out: &Outcome, designs: usize) -> Result<Vec<Metric>, String> {
    let flows = out.samples.len();
    if flows < MIN_OPERATIONS {
        return Err(format!(
            "the window completed {flows} operations, fewer than the {MIN_OPERATIONS} \
             latency_ms_p90 needs; pass more --seconds"
        ));
    }
    let per_design: Vec<Vec<f64>> = (0..designs)
        .map(|d| {
            out.samples
                .iter()
                .filter(|s| s.design == d)
                .map(|s| s.latency_ms)
                .collect()
        })
        .collect();
    let over_designs = |q: f64| {
        let per: Vec<f64> = per_design
            .iter()
            .filter_map(|mine| quantile(mine, q))
            .collect();
        gmean(&per).unwrap_or(0.0)
    };
    let first: Vec<f64> = out.samples.iter().map(|s| s.first_frame_ms).collect();
    let m = Metric::new;
    Ok(vec![
        m("flows_per_s", flows as f64 / out.window_s, "1/s"),
        m("latency_ms_gmean", over_designs(0.5), "ms"),
        m("latency_ms_p90", over_designs(0.9), "ms"),
        m("first_frame_ms_p50", median(&first).unwrap_or(0.0), "ms"),
        m("cpu_ms_per_flow", out.cpu_ms / flows as f64, "ms"),
        m("peak_rss_mb", out.peak_rss_mb, "MiB"),
        m("setup_s", out.setup_s, "s"),
    ])
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 45.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, got {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, got {value:?}"))?;
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The commit of the checkout the benchmark was built from, when it is a git
/// work tree (read from `.git` directly; the benchmark runs no programs).
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(git.join(reference)) {
        return id.trim().to_owned();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn design_count(workload: &str) -> usize {
    match workload {
        "detect" => detect::DESIGNS.len(),
        _ => serve::served_set().len(),
    }
}

/// Runs the workload: set-up, one measured window, the repeated set-ups.
fn run_workload(args: &Args) -> Result<Outcome, String> {
    let (seed, seconds, traced) = (args.seed, args.seconds, args.traced);
    match args.workload.as_str() {
        "detect" => detect::run(seed, seconds, traced),
        _ => serve::run(seed, seconds, traced),
    }
}

/// What a whole run reports.
struct Report {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: Vec<Metric>,
}

/// The traced run: spans written out at the end, per-layer metrics.
fn traced_run(args: &Args, tags: &str) -> Result<Report, String> {
    let mut outcome = run_workload(args)?;
    if let Some(trace) = outcome.trace.take() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        trace
            .write_tsv(&path, tags)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans: {} written to {}", trace.len(), path.display());
    }
    Ok(Report {
        attempted: outcome.attempted,
        failed: outcome.failed,
        notes: outcome.notes,
        metrics: outcome.layers,
    })
}

/// The untraced run: end-to-end metrics.
fn untraced_run(args: &Args) -> Result<Report, String> {
    let outcome = run_workload(args)?;
    let metrics = end_to_end(&outcome, design_count(&args.workload))?;
    println!(
        "window: {} flows in {:.3} s",
        outcome.samples.len(),
        outcome.window_s
    );
    Ok(Report {
        attempted: outcome.attempted,
        failed: outcome.failed,
        notes: outcome.notes,
        metrics,
    })
}

fn print_report(report: &Report, traced: bool) {
    let Report {
        attempted,
        failed,
        metrics,
        ..
    } = report;
    println!(
        "operations: attempted {attempted}, failed {failed}, failed_frac {}",
        *failed as f64 / (*attempted).max(1) as f64
    );
    for m in metrics {
        let kind = if !traced {
            ""
        } else if EXACT_COUNTERS.contains(&m.name) {
            "  exact"
        } else if SCHEDULE_COUNTERS.contains(&m.name) {
            "  schedule-dependent"
        } else {
            ""
        };
        println!("  {:<30} {:>18.6} {}{kind}", m.name, m.value, m.unit);
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        *failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("htdbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let tags = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        commit()
    );
    println!("htdbench {tags}");
    let report = if args.traced {
        traced_run(&args, &tags)
    } else {
        untraced_run(&args)
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("htdbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in report.notes.iter().take(20) {
        eprintln!("htdbench: {note}");
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("htdbench: metric {} is not finite", m.name);
        return ExitCode::FAILURE;
    }
    print_report(&report, args.traced);
    ExitCode::SUCCESS
}
