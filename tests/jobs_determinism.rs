//! Determinism suite for the flow-graph executor: a flow run must produce
//! the same `DetectionReport` — verdicts, counterexamples, coverage *and*
//! work counters — for every worker count and with level pipelining on or
//! off.
//!
//! The guarantee comes from the execution model: every per-signal
//! sub-property is solved on a fork of its generation's frozen snapshot, the
//! master mutation stream is a pure function of the (ascending) prepare
//! order, results merge in node order (first counterexample wins), and only
//! the consumed prefix of tasks contributes statistics.  Wall-clock
//! durations are the only nondeterministic fields, so reports are compared
//! after [`DetectionReport::normalized`] zeroes them.
//!
//! The matrix runs with oversubscription enabled so multi-worker schedules
//! are exercised even on single-core hosts.

use std::num::NonZeroUsize;

use golden_free_htd::detect::{DetectionReport, DetectorConfig, PropertyScheduler, SessionBuilder};
use golden_free_htd::trusthub::registry::Benchmark;

fn run_with(benchmark: Benchmark, jobs: usize, pipeline: bool) -> DetectionReport {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    let scheduler = PropertyScheduler::new(NonZeroUsize::new(jobs).expect("positive jobs"))
        .with_level_pipelining(pipeline)
        .with_oversubscription(true);
    SessionBuilder::new(design)
        .config(config)
        .scheduler(scheduler)
        .build()
        .expect("session builder accepts the design")
        .run()
        .expect("flow completes")
}

fn assert_schedule_invariant(benchmark: Benchmark) {
    let baseline = run_with(benchmark, 1, true).normalized();
    for (jobs, pipeline) in [(1, false), (2, true), (2, false), (4, true), (4, false)] {
        let variant = run_with(benchmark, jobs, pipeline).normalized();
        assert_eq!(
            baseline,
            variant,
            "{}: --jobs 1 and --jobs {jobs} (pipeline: {pipeline}) reports differ",
            benchmark.name()
        );
        // Belt and braces: the rendered reports must be byte-identical too
        // (the Debug form covers every field, including counterexamples).
        assert_eq!(
            format!("{baseline:?}"),
            format!("{variant:?}"),
            "{}: rendered reports differ at --jobs {jobs} (pipeline: {pipeline})",
            benchmark.name()
        );
    }
}

/// Every bundled benchmark — the 28 infected Table-I rows, the HT-free
/// references and the UART case study — must report identically across the
/// whole schedule matrix: 1, 2 and 4 worker shards, level pipelining on and
/// off.
#[test]
fn all_bundled_benchmarks_report_identically_for_any_schedule() {
    for benchmark in Benchmark::all() {
        assert_schedule_invariant(benchmark);
    }
}

/// Repeated runs with the same schedule are also bit-stable (no hidden
/// dependence on thread scheduling or hash-map iteration order).
#[test]
fn repeated_runs_are_bit_stable() {
    for benchmark in [
        Benchmark::AesT1600,
        Benchmark::BasicRsaT200,
        Benchmark::Rs232HtFree,
    ] {
        let first = run_with(benchmark, 4, true).normalized();
        let second = run_with(benchmark, 4, true).normalized();
        assert_eq!(first, second, "{}: unstable report", benchmark.name());
    }
}
