//! Equivalence suite for the portfolio backend: racing the builtin CDCL
//! solver against the IPASIR shim (`crates/ipasir-shim`, built as
//! `libipasir_htd.so`) must leave detection *reports* untouched while the
//! race telemetry shows real work happened.
//!
//! Under the default `deterministic-cex` policy the contract is strict:
//! SAT models come only from the primary member (member 0), racers may
//! accelerate UNSAT answers only, so a portfolio whose primary is the
//! builtin solver reports **byte-identically** to the builtin solver alone
//! — on every bundled benchmark, across the whole `--jobs` ×
//! level-pipelining schedule matrix.  As in the IPASIR suite, the
//! backend-*bookkeeping* counters (solver-internal work, per-check clause
//! tallies) are scrubbed before comparison: a race doubles fork traffic
//! and the cancel/latency counters are timing-dependent by nature.
//!
//! Under the opt-in `fastest-cex` policy the winner's model is taken
//! as-is, so the guarantee weakens to *normalized equivalence with models
//! scrubbed*: same verdict, same detecting property, same fanout levels,
//! same property traces — but counterexample contents may legitimately be
//! whichever member answered first.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use golden_free_htd::detect::{
    BackendChoice, DetectionOutcome, DetectionReport, DetectorConfig, PropertyScheduler,
    RacePolicy, SessionBuilder,
};
use golden_free_htd::ipc::{CheckOutcome, Counterexample};
use golden_free_htd::sat::SolverStats;
use golden_free_htd::trusthub::registry::Benchmark;

/// Locates the shim cdylib built by cargo (`HTD_IPASIR_LIB` overrides, for
/// CI legs that test a release build).  The root package has a
/// dev-dependency on `ipasir-shim`, so any `cargo test` invocation that
/// compiled this suite has also produced the shared object.
fn shim_library() -> PathBuf {
    // htd-lint: allow(strict-env): an opaque filesystem path consumed verbatim; there is nothing to parse strictly
    if let Ok(path) = std::env::var("HTD_IPASIR_LIB") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("test binary has a path");
    // target/<profile>/deps/<test-binary> → target/<profile>
    let deps = exe.parent().expect("deps dir");
    let profile = deps.parent().expect("profile dir");
    for dir in [profile, deps] {
        let candidate = dir.join("libipasir_htd.so");
        if candidate.exists() {
            return candidate;
        }
    }
    panic!(
        "libipasir_htd.so not found next to {} — build it with `cargo build -p ipasir-shim` \
         (or point HTD_IPASIR_LIB at it)",
        exe.display()
    );
}

/// The racing pair under test everywhere below: builtin primary, shim racer.
fn racing_pair(policy: RacePolicy) -> BackendChoice {
    BackendChoice::portfolio(
        vec![
            BackendChoice::Builtin,
            BackendChoice::ipasir(shim_library()),
        ],
        policy,
    )
}

fn run_with(
    benchmark: Benchmark,
    backend: BackendChoice,
    jobs: usize,
    pipeline: bool,
) -> DetectionReport {
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
        .backend(backend)
        .scheduler(scheduler)
        .build()
        .expect("session builder accepts the design")
        .run()
        .expect("flow completes")
}

/// Normalizes a report for cross-backend comparison, exactly as the IPASIR
/// equivalence suite does: wall-clocks zeroed, solver-internal work
/// counters and per-check clause tallies scrubbed.  For a portfolio this
/// additionally covers the race telemetry (`race_*` lives in
/// `SolverStats`) — cancels and cancel latency depend on which member won
/// each timing race, which is exactly the non-determinism the
/// deterministic-cex policy keeps *out* of everything else in the report.
fn scrubbed(report: &DetectionReport) -> DetectionReport {
    let mut report = report.normalized();
    report.solver_totals = SolverStats::default();
    for trace in &mut report.properties {
        trace.report.stats.solver = SolverStats::default();
        trace.report.stats.cnf_clauses = 0;
    }
    report
}

/// The fastest-cex comparison: [`scrubbed`] plus counterexample *models*
/// blanked — the failing property name is kept (it identifies *what* was
/// detected), but frames, diffing signals, starting states and input
/// sequences may come from whichever member won the race.
fn models_scrubbed(report: &DetectionReport) -> DetectionReport {
    fn blank(cex: &mut Counterexample) {
        cex.frame = 0;
        cex.diffs.clear();
        cex.starting_state.clear();
        cex.inputs.clear();
    }
    let mut report = scrubbed(report);
    if let DetectionOutcome::PropertyFailed { counterexample, .. } = &mut report.outcome {
        blank(counterexample);
    }
    for trace in &mut report.properties {
        if let CheckOutcome::Fails(cex) = &mut trace.report.outcome {
            blank(cex);
        }
    }
    report
}

/// The headline acceptance test: under deterministic-cex, a portfolio
/// whose primary is the builtin solver reports byte-identically to the
/// builtin solver alone on every bundled benchmark, for every schedule in
/// the `--jobs {1,2,4}` × pipelining matrix.
#[test]
fn deterministic_cex_portfolios_report_identically_to_the_primary() {
    for benchmark in Benchmark::all() {
        let baseline = scrubbed(&run_with(benchmark, BackendChoice::Builtin, 1, true));
        for (jobs, pipeline) in [
            (1, true),
            (1, false),
            (2, true),
            (2, false),
            (4, true),
            (4, false),
        ] {
            let racing = racing_pair(RacePolicy::DeterministicCex);
            let portfolio = scrubbed(&run_with(benchmark, racing, jobs, pipeline));
            assert_eq!(
                baseline,
                portfolio,
                "{}: builtin and portfolio reports differ at --jobs {jobs} (pipeline: {pipeline})",
                benchmark.name()
            );
            // Belt and braces: the rendered form covers every field.
            assert_eq!(
                format!("{baseline:?}"),
                format!("{portfolio:?}"),
                "{}: rendered reports differ at --jobs {jobs} (pipeline: {pipeline})",
                benchmark.name()
            );
        }
    }
}

/// Under fastest-cex the winner's model is kept, so the reports must agree
/// once models are blanked: same verdict, same detecting property, same
/// fanout levels, same trace structure and resolution counts.
#[test]
fn fastest_cex_matches_the_primary_with_models_scrubbed() {
    for benchmark in [
        Benchmark::AesT100,
        Benchmark::Rs232T2400,
        Benchmark::Rs232HtFree,
        Benchmark::BasicRsaT200,
    ] {
        let baseline = models_scrubbed(&run_with(benchmark, BackendChoice::Builtin, 2, true));
        let racing = racing_pair(RacePolicy::FastestCex);
        let report = run_with(benchmark, racing, 2, true);
        // Whatever model won the race, the flow must have accepted a *real*
        // counterexample: the session re-verifies models before reporting.
        if let DetectionOutcome::PropertyFailed { counterexample, .. } = &report.outcome {
            assert!(
                !counterexample.diff_names().is_empty(),
                "{}: a detection carries at least one diverging signal",
                benchmark.name()
            );
        }
        assert_eq!(
            baseline,
            models_scrubbed(&report),
            "{}: fastest-cex portfolio diverges from builtin beyond the models",
            benchmark.name()
        );
    }
}

/// Race telemetry surfaces in `solver_totals`: a portfolio run counts its
/// races, a single-backend run keeps every race counter at zero (so v5
/// trajectory consumers see an all-zero column, not a missing one).
#[test]
fn race_counters_surface_in_solver_totals() {
    let racing = racing_pair(RacePolicy::DeterministicCex);
    let report = run_with(Benchmark::Rs232T2400, racing, 2, true);
    let totals = &report.solver_totals;
    assert!(totals.race_solves > 0, "the portfolio raced its queries");
    assert!(
        totals.race_wins <= totals.race_solves,
        "racer wins ({}) cannot exceed races ({})",
        totals.race_wins,
        totals.race_solves
    );
    if totals.race_cancels == 0 {
        assert_eq!(
            totals.race_cancel_latency_us, 0,
            "cancel latency is only accrued by cancels"
        );
    }

    let solo = run_with(Benchmark::Rs232T2400, BackendChoice::Builtin, 2, true);
    assert_eq!(solo.solver_totals.race_solves, 0);
    assert_eq!(solo.solver_totals.race_wins, 0);
    assert_eq!(solo.solver_totals.race_cancels, 0);
    assert_eq!(solo.solver_totals.race_wasted_conflicts, 0);
    assert_eq!(solo.solver_totals.race_cancel_latency_us, 0);
}

/// `detect --backend portfolio:…` wiring end to end: the CLI spec string
/// parses to the same choice the API builds, runs the flow, and reports
/// identically to the builtin backend under the default policy.
#[test]
fn detection_session_runs_on_the_portfolio_by_choice_string() {
    let library = shim_library();
    let spec = format!("portfolio:builtin,ipasir:{}", library.display());
    let choice: BackendChoice = spec.parse().expect("CLI syntax parses");
    assert_eq!(choice, racing_pair(RacePolicy::DeterministicCex));
    let report = run_with(Benchmark::AesT100, choice, 2, true);
    let builtin = run_with(Benchmark::AesT100, BackendChoice::Builtin, 2, true);
    assert_eq!(scrubbed(&report), scrubbed(&builtin));
    assert!(report.solver_totals.race_solves > 0);
    // The work counters are the *primary's* (so deterministic-cex totals
    // mirror a solo run); the racer's cost shows up only in `race_*`.
    assert!(report.solver_totals.fork_count > 0);
    assert!(report.solver_totals.bytes_cloned > 0);
}
