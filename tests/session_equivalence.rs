//! Equivalence suite for the session path: a `DetectionSession` (one
//! bit-blast, one live solver, the flow executor) must reach the same
//! verdicts as an independent re-encode oracle on every bundled benchmark,
//! while performing exactly one bit-blast per flow run.
//!
//! The oracle walks the same planned `FlowGraph` but checks every property,
//! and every spurious-counterexample re-verification, with the one-shot
//! `PropertyChecker`, which rebuilds the AIG, the CNF and the solver from
//! scratch each time.  It shares nothing with the executor beyond the graph
//! planning and the diagnosis.

use golden_free_htd::detect::diagnosis::{benign_fanin_of, diagnose};
use golden_free_htd::detect::{
    DetectedBy, DetectionOutcome, DetectionReport, DetectorConfig, FlowGraph, SessionBuilder,
};
use golden_free_htd::ipc::{CheckOutcome, PropertyChecker};
use golden_free_htd::rtl::SignalId;
use golden_free_htd::trusthub::registry::Benchmark;

/// What the re-encode oracle concluded.
struct Oracle {
    outcome: DetectionOutcome,
    fanout_levels: Vec<Vec<String>>,
    properties_checked: usize,
}

fn oracle_run(benchmark: Benchmark) -> Oracle {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    let d = design.design();
    let names = |signals: &[SignalId]| -> Vec<String> {
        signals
            .iter()
            .map(|&s| d.signal_name(s).to_string())
            .collect()
    };
    let checker = PropertyChecker::with_options(&design, config.checker);
    let mut graph = FlowGraph::plan(&design, &config).expect("the flow applies");
    let mut fanout_levels = Vec::new();
    let mut level = 0;
    while graph
        .ensure_level(&design, level)
        .expect("within the flow budget")
    {
        let node = graph.level_node(level);
        fanout_levels.push(names(&node.signals));
        let mut property = node.property.clone().expect("level nodes carry properties");
        let mut rounds = 0;
        while let CheckOutcome::Fails(counterexample) = checker.check(&property).outcome {
            if !diagnose(
                &design,
                &counterexample,
                &property.assume_equal,
                &config.benign_state,
            )
            .is_spurious()
            {
                let detected_by = match level {
                    0 => DetectedBy::InitProperty,
                    k => DetectedBy::FanoutProperty(k),
                };
                return Oracle {
                    outcome: DetectionOutcome::PropertyFailed {
                        detected_by,
                        counterexample,
                    },
                    fanout_levels,
                    properties_checked: level + 1,
                };
            }
            rounds += 1;
            assert!(
                rounds <= config.max_resolution_iterations,
                "{}: resolution limit",
                property.name
            );
            let waived = benign_fanin_of(
                &design,
                &property.prove_equal,
                &property.assume_equal,
                &config.benign_state,
            );
            property = property.with_extra_assumptions(&waived);
        }
        level += 1;
    }
    let (_, _, uncovered) = graph.finish_coverage(&design).expect("coverage runs");
    Oracle {
        outcome: if uncovered.is_empty() {
            DetectionOutcome::Secure
        } else {
            DetectionOutcome::UncoveredSignals {
                signals: names(&uncovered),
            }
        },
        fanout_levels,
        properties_checked: level,
    }
}

fn session_run(benchmark: Benchmark) -> (DetectionReport, u64) {
    let design = benchmark.build().expect("benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    let mut session = SessionBuilder::new(design)
        .config(config)
        .build()
        .expect("session builder accepts the design");
    let report = session.run().expect("session flow completes");
    (report, session.session_stats().bit_blasts)
}

fn diff_set(outcome: &DetectionOutcome) -> Option<Vec<String>> {
    match outcome {
        DetectionOutcome::PropertyFailed { counterexample, .. } => {
            let mut names: Vec<String> = counterexample
                .diff_names()
                .iter()
                .map(ToString::to_string)
                .collect();
            names.sort();
            Some(names)
        }
        _ => None,
    }
}

fn assert_equivalent(benchmark: Benchmark) {
    let oracle = oracle_run(benchmark);
    let (session, bit_blasts) = session_run(benchmark);
    let name = benchmark.name();

    assert_eq!(
        bit_blasts, 1,
        "{name}: the session must bit-blast exactly once"
    );
    assert_eq!(
        oracle.outcome.is_secure(),
        session.outcome.is_secure(),
        "{name}: verdict mismatch\noracle: {:?}\nsession: {session}",
        oracle.outcome
    );
    assert_eq!(
        oracle.outcome.detected_by(),
        session.outcome.detected_by(),
        "{name}: detection mechanism mismatch"
    );
    assert_eq!(
        oracle.properties_checked,
        session.properties_checked(),
        "{name}: different number of properties checked"
    );
    assert_eq!(
        oracle.fanout_levels, session.fanout_levels,
        "{name}: structural levels must be identical"
    );
    // The diverging signals of the failing property.  Both paths stop at the
    // same property, but the solver is free to return different models — a
    // counterexample may flip one payload signal or several at once — so the
    // reported sets are compared up to overlap, not equality.
    match (diff_set(&oracle.outcome), diff_set(&session.outcome)) {
        (None, None) => {}
        (Some(oracle_diffs), Some(session_diffs)) => {
            assert!(
                !oracle_diffs.is_empty(),
                "{name}: oracle counterexample has no diffs"
            );
            assert!(
                !session_diffs.is_empty(),
                "{name}: session counterexample has no diffs"
            );
            assert!(
                oracle_diffs.iter().any(|s| session_diffs.contains(s)),
                "{name}: counterexamples point at disjoint divergences \
                 (oracle: {oracle_diffs:?}, session: {session_diffs:?})"
            );
        }
        (oracle_diffs, session_diffs) => panic!(
            "{name}: one path found a counterexample and the other did not \
             (oracle: {oracle_diffs:?}, session: {session_diffs:?})"
        ),
    }
    if let (
        DetectionOutcome::UncoveredSignals {
            signals: oracle_signals,
        },
        DetectionOutcome::UncoveredSignals {
            signals: session_signals,
        },
    ) = (&oracle.outcome, &session.outcome)
    {
        assert_eq!(
            oracle_signals, session_signals,
            "{name}: uncovered-signal mismatch"
        );
    }
}

#[test]
fn table1_benchmarks_agree_between_session_and_legacy_paths() {
    for benchmark in Benchmark::table1() {
        assert_equivalent(benchmark);
    }
}

#[test]
fn ht_free_and_case_study_benchmarks_agree_between_paths() {
    for benchmark in [
        Benchmark::AesHtFree,
        Benchmark::BasicRsaHtFree,
        Benchmark::Rs232HtFree,
        Benchmark::Rs232T2400,
    ] {
        assert_equivalent(benchmark);
    }
}

#[test]
fn session_path_reuses_its_encoding_across_properties() {
    // On a clean design the session proves N properties; re-running the same
    // session must not re-encode anything (the AIG is already mirrored).
    let design = Benchmark::Rs232HtFree.build().expect("benchmark builds");
    let mut session = SessionBuilder::new(design).build().expect("session builds");
    session.run().expect("first run completes");
    let stats_first = session.session_stats();
    session.run().expect("second run completes");
    let stats_second = session.session_stats();
    assert_eq!(stats_first.bit_blasts, 1);
    assert_eq!(stats_second.bit_blasts, 1);
    assert_eq!(
        stats_first.nodes_encoded, stats_second.nodes_encoded,
        "a repeated run must not grow the encoding"
    );
    assert!(stats_second.properties_checked > stats_first.properties_checked);
}
