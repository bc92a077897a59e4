//! Calls into the library layers that both workload families share: one
//! timed detection session (`core`), the replay of its flow through the
//! `ipc` stages, and the per-layer tally of the traced run.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;

use htd_core::diagnosis::{benign_fanin_of, diagnose};
use htd_core::{
    BackendChoice, DetectedBy, DetectionReport, DetectionSession, DetectorConfig, FlowEvent,
    FlowGraph, SessionBuilder,
};
use htd_ipc::{CheckOutcome, IntervalProperty, MiterSession, PropertyReport};
use htd_rtl::ValidatedDesign;
use htd_trusthub::registry::ExpectedDetection;

use crate::clock::now_ns;
use crate::stats::median;
use crate::trace::Trace;
use crate::Metric;

/// Worker count of every flow: the size of the 2-vCPU box the benchmark is
/// sized for.
pub const JOBS: usize = 2;

/// One detection session, built and run with timestamps taken around the
/// public calls and inside the event observer.
pub struct SessionRun {
    pub result: Result<DetectionReport, String>,
    pub session: Option<DetectionSession>,
    pub start_ns: u64,
    pub built_ns: u64,
    pub end_ns: u64,
    /// Arrival of the first flow event (`None` if the flow emitted none).
    pub first_event_ns: Option<u64>,
    /// Per level: `LevelStarted` time and the time of that level's verdict
    /// event (its proof, or the counterexample that ends the flow).
    pub levels: Vec<(u64, Option<u64>)>,
}

impl SessionRun {
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// `SessionBuilder::build` + `run` at [`JOBS`] workers — what `htd detect`
/// does for one design.
pub fn run_session(design: ValidatedDesign, config: &DetectorConfig) -> SessionRun {
    let jobs = NonZeroUsize::new(JOBS).expect("JOBS is positive");
    let start_ns = now_ns();
    let built = SessionBuilder::new(design)
        .config(config.clone())
        .jobs(jobs)
        .build();
    let built_ns = now_ns();
    let mut run = SessionRun {
        result: Err(String::new()),
        session: None,
        start_ns,
        built_ns,
        end_ns: built_ns,
        first_event_ns: None,
        levels: Vec::new(),
    };
    let mut session = match built {
        Ok(session) => session,
        Err(e) => {
            run.result = Err(format!("session build failed: {e}"));
            return run;
        }
    };
    let mut first = None;
    let mut levels: Vec<(u64, Option<u64>)> = Vec::new();
    let result = session.run_with_observer(&mut |event| {
        let now = now_ns();
        first.get_or_insert(now);
        match event {
            FlowEvent::LevelStarted { .. } => levels.push((now, None)),
            FlowEvent::PropertyProved { .. }
            | FlowEvent::CounterexampleFound {
                spurious: false, ..
            } => {
                if let Some(level) = levels.last_mut() {
                    level.1 = Some(now);
                }
            }
            _ => {}
        }
    });
    run.end_ns = now_ns();
    run.first_event_ns = first;
    run.levels = levels;
    run.result = result.map_err(|e| format!("flow failed: {e}"));
    run.session = Some(session);
    run
}

/// Whether a flow's verdict is the registry's expected detection.
pub fn matches_expected(expected: ExpectedDetection, detected: Option<DetectedBy>) -> bool {
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

/// Counters of one traced operation, by per-layer metric name.
pub type OpCounts = BTreeMap<&'static str, u64>;

/// Counters that must repeat exactly for a design, whatever the schedule.
/// Every other counter (snapshot forks, pipelined prepares, cross-level
/// solves, cache and coalescing counts) depends on the schedule.
pub const EXACT_COUNTERS: &[&str] = &[
    "rtl.dump_bytes",
    "ipc.aig_nodes_built",
    "ipc.nodes_encoded",
    "ipc.cnf_vars_encoded",
    "ipc.cnf_clauses",
    "sat.conflicts",
    "sat.propagations",
    "sat.bytes_cloned",
    "core.parallel_tasks",
    "core.structurally_proved",
];

/// Counters that depend on the schedule the run happened to take, or on
/// the daemon's traffic, and so may differ between runs of one seed.
pub const SCHEDULE_COUNTERS: &[&str] = &[
    "core.snapshot_forks",
    "core.snapshot_bytes_cloned",
    "core.pipelined_prepares",
    "core.cross_level_solves",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.cache_evicted_entries",
    "serve.coalesced",
    "serve.overloaded",
    "serve.hit_ratio",
];

/// Records the `core` and `sat` view of one finished session: spans from
/// the run's timestamps and the report's schedule-invariant counters plus
/// the session's schedule counters.
pub fn trace_session(
    trace: &mut Trace,
    op: u64,
    parent: usize,
    run: &SessionRun,
    report: &DetectionReport,
    counts: &mut OpCounts,
) {
    trace.record("core.build", op, Some(parent), run.start_ns, run.built_ns);
    let run_span = trace.record("core.run", op, Some(parent), run.built_ns, run.end_ns);
    for &(start, end) in &run.levels {
        trace.record(
            "core.level",
            op,
            Some(run_span),
            start,
            end.unwrap_or(run.end_ns),
        );
    }
    let solver = &report.solver_totals;
    counts.insert("sat.conflicts", solver.conflicts);
    counts.insert("sat.propagations", solver.propagations);
    counts.insert("sat.decisions", solver.decisions);
    counts.insert("sat.fork_count", solver.fork_count);
    counts.insert("sat.bytes_cloned", solver.bytes_cloned);
    if let Some(session) = &run.session {
        let stats = session.session_stats();
        let pipeline = session.pipeline_stats();
        counts.insert("sat.queries", stats.queries);
        counts.insert("core.parallel_tasks", stats.parallel_tasks);
        counts.insert("core.structurally_proved", stats.structurally_proved);
        counts.insert("core.snapshot_forks", stats.snapshot_forks);
        counts.insert("core.snapshot_bytes_cloned", stats.snapshot_bytes_cloned);
        counts.insert("core.pipelined_prepares", pipeline.pipelined_prepares);
        counts.insert("core.cross_level_solves", pipeline.cross_level_solves);
    }
    counts.insert("core.levels", run.levels.len() as u64);
}

/// What the `ipc` replay of a flow concluded and counted.
#[derive(Debug, PartialEq, Eq)]
pub struct Replay {
    pub detected: Option<DetectedBy>,
    pub properties_checked: usize,
    pub spurious_resolved: usize,
}

/// Replays Algorithm 1 through the `ipc` stages on a fresh miter:
/// `MiterSession::prepare_level(freeze = false)` → `solve_task_inline` per
/// task in id order until one ends the level → `merge_level`, retrying a
/// spurious counterexample with `IntervalProperty::with_extra_assumptions`
/// over the waived benign fan-in, exactly like the flow does.
pub fn replay(
    design: &ValidatedDesign,
    config: &DetectorConfig,
    trace: &mut Trace,
    op: u64,
    parent: usize,
    counts: &mut OpCounts,
) -> Result<Replay, String> {
    let root = trace.open("ipc.replay", op, Some(parent));
    let new = trace.open("ipc.session_new", op, Some(root));
    let backend = BackendChoice::Builtin
        .instantiate()
        .map_err(|e| e.to_string())?;
    let mut miter = MiterSession::with_options(design, config.checker, backend);
    trace.close(new);
    let mut graph = FlowGraph::plan(design, config).map_err(|e| e.to_string())?;
    let mut detected = None;
    let mut properties_checked = 0;
    let mut spurious_resolved = 0;
    let mut level = 0;
    let mut propagations = 0u64;
    'levels: while graph
        .ensure_level(design, level)
        .map_err(|e| e.to_string())?
    {
        let mut property = graph
            .level_node(level)
            .property
            .clone()
            .ok_or("level node without a property")?;
        properties_checked += 1;
        let mut rounds = 0;
        loop {
            let report = check_property(&mut miter, design, &property, trace, op, root)?;
            *counts.entry("ipc.aig_nodes_built").or_default() += report.stats.aig_nodes as u64;
            *counts.entry("ipc.cnf_vars_encoded").or_default() += report.stats.cnf_vars as u64;
            *counts.entry("ipc.cnf_clauses").or_default() += report.stats.cnf_clauses as u64;
            propagations += report.stats.solver.propagations;
            let CheckOutcome::Fails(cex) = &report.outcome else {
                break;
            };
            let spurious =
                diagnose(design, cex, &property.assume_equal, &config.benign_state).is_spurious();
            if !spurious {
                detected = Some(if level == 0 {
                    DetectedBy::InitProperty
                } else {
                    DetectedBy::FanoutProperty(level)
                });
                spurious_resolved += rounds;
                break 'levels;
            }
            if rounds >= config.max_resolution_iterations {
                return Err(format!("{}: resolution limit reached", property.name));
            }
            rounds += 1;
            let waived = benign_fanin_of(
                design,
                &property.prove_equal,
                &property.assume_equal,
                &config.benign_state,
            );
            property = property.with_extra_assumptions(&waived);
        }
        spurious_resolved += rounds;
        level += 1;
    }
    if detected.is_none() {
        let (_, _, uncovered) = graph.finish_coverage(design).map_err(|e| e.to_string())?;
        if !uncovered.is_empty() {
            detected = Some(DetectedBy::CoverageCheck);
        }
    }
    counts.insert("ipc.nodes_encoded", miter.stats().nodes_encoded);
    counts.insert("replay.propagations", propagations);
    trace.close(root);
    Ok(Replay {
        detected,
        properties_checked,
        spurious_resolved,
    })
}

fn check_property(
    miter: &mut MiterSession,
    design: &ValidatedDesign,
    property: &IntervalProperty,
    trace: &mut Trace,
    op: u64,
    parent: usize,
) -> Result<PropertyReport, String> {
    let span = trace.open("ipc.prepare", op, Some(parent));
    let prepared = miter.prepare_level(design, property, false);
    trace.close(span);
    let doomed = Arc::new(AtomicUsize::new(usize::MAX));
    let cancelled = Arc::new(AtomicBool::new(false));
    let tasks = prepared.num_tasks();
    let mut outcomes = Vec::with_capacity(tasks);
    for index in 0..tasks {
        let span = trace.open("sat.solve", op, Some(parent));
        let outcome = miter.solve_task_inline(&prepared, index, &doomed, &cancelled);
        trace.close(span);
        let ends = outcome.ends_level();
        outcomes.push(Some(outcome));
        if ends {
            break;
        }
    }
    outcomes.resize_with(tasks, || None);
    let span = trace.open("ipc.merge", op, Some(parent));
    let report = miter.merge_level(design, &prepared, outcomes);
    trace.close(span);
    report.map_err(|e| e.to_string())
}

/// Checks a replay against the session it shadows; `None` when they agree.
pub fn replay_disagreement(replay: &Replay, report: &DetectionReport) -> Option<String> {
    let session = Replay {
        detected: report.outcome.detected_by(),
        properties_checked: report.properties_checked(),
        spurious_resolved: report.spurious_resolved,
    };
    (*replay != session).then(|| format!("replay {replay:?} != session {session:?}"))
}

/// Per-design counter samples of the traced run.
#[derive(Default)]
struct DesignCounts {
    first: OpCounts,
    samples: BTreeMap<&'static str, Vec<u64>>,
}

/// The traced run's accumulated per-layer counters.
#[derive(Default)]
pub struct Tally {
    ops: u64,
    per_design: BTreeMap<String, DesignCounts>,
    /// Per-op sums of every counter.
    sums: BTreeMap<&'static str, f64>,
    /// Designs whose replay could not reproduce the session.
    pub replay_missing: BTreeSet<String>,
}

impl Tally {
    /// Adds one operation's counters.  Returns a description of the first
    /// exact counter that differs from the design's earlier operations.
    pub fn add(&mut self, design: &str, counts: OpCounts) -> Option<String> {
        self.ops += 1;
        for (&name, &value) in &counts {
            *self.sums.entry(name).or_default() += value as f64;
        }
        self.add_design_counts(design, counts)
    }

    /// Adds a design's counters without counting an operation: the
    /// per-design samples and the exact-counter check only.
    pub fn add_design_counts(&mut self, design: &str, counts: OpCounts) -> Option<String> {
        let entry = self.per_design.entry(design.to_owned()).or_default();
        let mut mismatch = None;
        for &name in EXACT_COUNTERS {
            let Some(&now) = counts.get(name) else {
                continue;
            };
            match entry.first.get(name) {
                None => {
                    entry.first.insert(name, now);
                }
                Some(&was) if was != now && mismatch.is_none() => {
                    mismatch = Some(format!(
                        "{design}: exact counter {name} changed from {was} to {now}"
                    ));
                }
                Some(_) => {}
            }
        }
        for (name, value) in counts {
            entry.samples.entry(name).or_default().push(value);
        }
        mismatch
    }

    /// Adds to a per-op sum that is not a per-design counter.
    pub fn add_sum(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// A counter over the workload's design set: the sum over its distinct
    /// designs of each design's median per-operation value.  Unlike a
    /// window total, this does not depend on how many operations fit in
    /// the run, so exact counters repeat exactly between runs.
    pub fn design_set_total(&self, name: &str) -> f64 {
        self.per_design
            .values()
            .filter_map(|d| d.samples.get(name))
            .filter_map(|s| median(&s.iter().map(|&v| v as f64).collect::<Vec<_>>()))
            .fold(0.0, |total, v| total + v)
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The per-layer metrics, in the order `BENCHMARK.json` lists them.
    /// A layer the workload never calls reports 0.
    pub fn metrics(&self, trace: &Trace, window_s: f64, serve_stats: &ServeStats) -> Vec<Metric> {
        let self_ns = trace.self_ns();
        let ops = self.ops.max(1) as f64;
        let ms_per_op = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / ops;
        let total = |name: &str| self.design_set_total(name);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let level_ms = ratio(
            self_ns.get("core.level").copied().unwrap_or(0) as f64 / 1e6,
            self.sum("core.levels"),
        );
        let solve_s = self_ns.get("sat.solve").copied().unwrap_or(0) as f64 / 1e9;
        let prepare_ns = self_ns.get("ipc.prepare").copied().unwrap_or(0) as f64;
        let m = Metric::new;
        vec![
            m("rtl.dump_ms", ms_per_op("rtl.dump"), "ms"),
            m("rtl.dump_bytes", total("rtl.dump_bytes"), "bytes"),
            m("rtl.parse_ms", ms_per_op("rtl.parse"), "ms"),
            m("rtl.fanout_levels_ms", ms_per_op("rtl.fanout_levels"), "ms"),
            m("ipc.prepare_ms", ms_per_op("ipc.prepare"), "ms"),
            m("ipc.merge_ms", ms_per_op("ipc.merge"), "ms"),
            m("ipc.aig_nodes_built", total("ipc.aig_nodes_built"), "count"),
            m(
                "ipc.cnf_vars_encoded",
                total("ipc.cnf_vars_encoded"),
                "count",
            ),
            m("ipc.cnf_clauses", total("ipc.cnf_clauses"), "count"),
            m(
                "ipc.encoded_per_built",
                ratio(total("ipc.nodes_encoded"), total("ipc.aig_nodes_built")),
                "ratio",
            ),
            m(
                "ipc.ns_per_aig_node",
                ratio(prepare_ns, self.sum("ipc.aig_nodes_built")),
                "ns",
            ),
            m(
                "ipc.replay_missing",
                self.replay_missing.len() as f64,
                "count",
            ),
            m("sat.solve_ms", ms_per_op("sat.solve"), "ms"),
            m("sat.queries", total("sat.queries"), "count"),
            m("sat.conflicts", total("sat.conflicts"), "count"),
            m("sat.propagations", total("sat.propagations"), "count"),
            m("sat.decisions", total("sat.decisions"), "count"),
            m(
                "sat.propagations_per_s",
                ratio(self.sum("replay.propagations"), solve_s),
                "1/s",
            ),
            m("sat.fork_count", total("sat.fork_count"), "count"),
            m("sat.bytes_cloned", total("sat.bytes_cloned"), "bytes"),
            m("core.build_ms", ms_per_op("core.build"), "ms"),
            m("core.run_ms", ms_per_op("core.run"), "ms"),
            m("core.level_span_ms", level_ms, "ms"),
            m("core.parallel_tasks", total("core.parallel_tasks"), "count"),
            m(
                "core.structurally_proved",
                total("core.structurally_proved"),
                "count",
            ),
            m("core.snapshot_forks", total("core.snapshot_forks"), "count"),
            m(
                "core.snapshot_bytes_cloned",
                total("core.snapshot_bytes_cloned"),
                "bytes",
            ),
            m(
                "core.pipelined_prepares",
                total("core.pipelined_prepares"),
                "count",
            ),
            m(
                "core.cross_level_solves",
                total("core.cross_level_solves"),
                "count",
            ),
            m(
                "serve.request_bytes",
                self.sum("serve.request_bytes") / ops,
                "bytes",
            ),
            m("serve.json_parse_ms", ms_per_op("serve.json_parse"), "ms"),
            m("serve.accept_ms", ms_per_op("serve.accept"), "ms"),
            m("serve.queue_ms", ms_per_op("serve.queue"), "ms"),
            m("serve.run_ms", self.sum("serve.run_ms") / ops, "ms"),
            m("serve.tail_ms", ms_per_op("serve.tail"), "ms"),
            m("serve.cache_hits", serve_stats.cache_hits, "count"),
            m("serve.cache_misses", serve_stats.cache_misses, "count"),
            m(
                "serve.cache_evicted_entries",
                serve_stats.cache_evicted_entries,
                "count",
            ),
            m("serve.coalesced", serve_stats.coalesced, "count"),
            m("serve.overloaded", serve_stats.overloaded, "count"),
            m(
                "serve.hit_ratio",
                ratio(
                    serve_stats.cache_hits,
                    serve_stats.cache_hits + serve_stats.cache_misses,
                ),
                "ratio",
            ),
            m("trace.flows_per_s", ratio(self.ops as f64, window_s), "1/s"),
        ]
    }
}

/// Daemon counters of the measured window: the change in `GET /stats`
/// across it, plus the client-side refusal count (all zero for the detect
/// workloads).
#[derive(Debug, Default)]
pub struct ServeStats {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_evicted_entries: f64,
    pub coalesced: f64,
    pub overloaded: f64,
}
