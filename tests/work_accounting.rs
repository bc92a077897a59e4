//! Per-property work counters: how much a flow lowers, and how the rounds of
//! a spurious-counterexample resolution are accounted.

use golden_free_htd::detect::{DetectedBy, DetectionReport, DetectorConfig, SessionBuilder};
use golden_free_htd::sat::SolverStats;
use golden_free_htd::trusthub::registry::{Benchmark, ExpectedDetection};

fn run(benchmark: Benchmark) -> DetectionReport {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    SessionBuilder::new(design)
        .config(config)
        .build()
        .expect("detector accepts the design")
        .run()
        .expect("flow completes")
}

fn matches_expected(expected: ExpectedDetection, detected: Option<DetectedBy>) -> bool {
    match expected {
        ExpectedDetection::Secure => detected.is_none(),
        ExpectedDetection::InitProperty => detected == Some(DetectedBy::InitProperty),
        ExpectedDetection::FanoutProperty(k) => detected == Some(DetectedBy::FanoutProperty(k)),
        ExpectedDetection::AnyFanoutProperty => {
            matches!(detected, Some(DetectedBy::FanoutProperty(_)))
        }
        ExpectedDetection::CoverageCheck => detected == Some(DetectedBy::CoverageCheck),
    }
}

/// These infected AES designs prove an output or wire whose cone reads a few
/// registers of the whole datapath.  Binding every register's next state
/// for it built 195,889–381,176 AIG nodes per flow; binding only the
/// registers the proof reads builds 294–6,117.
#[test]
fn infected_aes_flows_lower_only_the_next_states_their_proofs_read() {
    for benchmark in [
        Benchmark::AesT400,
        Benchmark::AesT1600,
        Benchmark::AesT1700,
        Benchmark::AesT2500,
        Benchmark::AesT2700,
    ] {
        let info = benchmark.info();
        let report = run(benchmark);
        assert!(
            matches_expected(info.expected, report.outcome.detected_by()),
            "{}: expected {:?}, flow reported {:?}",
            info.name,
            info.expected,
            report.outcome.detected_by()
        );
        let built: usize = report
            .properties
            .iter()
            .map(|p| p.report.stats.aig_nodes)
            .sum();
        assert!(built <= 20_000, "{}: {built} AIG nodes built", info.name);
    }
}

/// A spurious counterexample discards its round's report, but not its work:
/// the kept report carries every round, so per-property solver stats sum to
/// the flow's totals.
#[test]
fn per_property_solver_stats_sum_to_the_flow_totals() {
    let mut resolved_somewhere = false;
    for benchmark in Benchmark::all() {
        let report = run(benchmark);
        resolved_somewhere |= report.spurious_resolved > 0;
        let mut summed = SolverStats::default();
        for trace in &report.properties {
            summed.accumulate(&trace.report.stats.solver);
        }
        assert_eq!(summed, report.solver_totals, "{}", benchmark.name());
    }
    assert!(
        resolved_somewhere,
        "some benchmark resolves a spurious counterexample"
    );
}
