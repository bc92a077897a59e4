//! The detect workloads: one closed-loop client running `htd detect`'s flow
//! (`SessionBuilder::build` + `run` at two workers) round-robin over a fixed
//! design set in a seeded order.

use htd_core::DetectorConfig;
use htd_rtl::structural::fanout_levels;
use htd_rtl::ValidatedDesign;
use htd_trusthub::registry::{Benchmark, ExpectedDetection};

use crate::clock::{now_ns, now_s, process_cpu_ms};
use crate::layers::{
    matches_expected, replay, replay_disagreement, run_session, trace_session, OpCounts,
    ServeStats, Tally,
};
use crate::stats::SeedRng;
use crate::trace::Trace;
use crate::{setup_median, timed_setup, Latencies, Outcome};

/// The `detect` workload's designs: eight infected designs whose time goes
/// to lowering and encoding rather than search, and BasicRSA (HT-free), the
/// one search-bound design.
pub const DESIGNS: &[Benchmark] = &[
    Benchmark::AesT400,
    Benchmark::AesT1600,
    Benchmark::AesT1700,
    Benchmark::AesT2500,
    Benchmark::AesT2700,
    Benchmark::BasicRsaT200,
    Benchmark::BasicRsaT300,
    Benchmark::BasicRsaT400,
    Benchmark::BasicRsaHtFree,
];

struct DetectDesign {
    name: &'static str,
    expected: ExpectedDetection,
    design: ValidatedDesign,
    config: DetectorConfig,
}

/// Builds the designs with their benign-state waivers and runs one warm-up
/// flow per design.  The verdicts are checked in the measured window, where
/// a wrong one counts as a failed operation.
fn setup() -> Result<Vec<DetectDesign>, String> {
    let mut designs = Vec::with_capacity(DESIGNS.len());
    for &bench in DESIGNS {
        let info = bench.info();
        let design = bench
            .build()
            .map_err(|e| format!("{}: design does not build: {e}", info.name))?;
        let config = DetectorConfig {
            benign_state: bench.benign_state(&design),
            ..DetectorConfig::default()
        };
        designs.push(DetectDesign {
            name: info.name,
            expected: info.expected,
            design,
            config,
        });
    }
    for d in &designs {
        run_session(d.design.clone(), &d.config).result?;
    }
    Ok(designs)
}

/// One run: set-up, a closed loop of flows for `seconds`, then the
/// repeated set-ups.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut order: Vec<usize> = (0..DESIGNS.len()).collect();
    SeedRng::new(seed).shuffle(&mut order);
    let mut out = Outcome::default();
    let (designs, first_setup_s) = timed_setup(setup)?;
    let mut tally = Tally::default();
    let mut trace = Trace::default();
    let cpu_start = process_cpu_ms()?;
    let start = now_s();
    let mut op = 0u64;
    while now_s() < start + seconds {
        let index = order[op as usize % order.len()];
        op += 1;
        let traced = traced.then_some((&mut tally, &mut trace));
        flow_op(&designs[index], index, op, &mut out, traced);
    }
    out.end_window(start, cpu_start)?;
    out.setup_s = setup_median(first_setup_s, setup)?;
    if traced {
        out.layers = tally.metrics(&trace, out.window_s, &ServeStats::default());
        out.trace = Some(trace);
    }
    Ok(out)
}

/// One flow, checked against the expected detection; with a tally, also
/// its traced layer drives.
fn flow_op(
    d: &DetectDesign,
    index: usize,
    op: u64,
    out: &mut Outcome,
    traced: Option<(&mut Tally, &mut Trace)>,
) {
    out.attempt();
    let root_start = now_ns();
    let run = run_session(d.design.clone(), &d.config);
    let report = match &run.result {
        Ok(report) => report,
        Err(e) => {
            out.fail(format!("{}: {e}", d.name));
            return;
        }
    };
    // A flow that answered is a completed flow; a wrong answer also fails.
    out.complete(Latencies {
        design: index,
        latency_ms: run.latency_ms(),
        first_frame_ms: run
            .first_event_ns
            .map_or(run.latency_ms(), |t| (t - run.start_ns) as f64 / 1e6),
    });
    let detected = report.outcome.detected_by();
    if !matches_expected(d.expected, detected.clone()) {
        out.fail(format!(
            "{}: flow reported {detected:?}, expected {:?}",
            d.name, d.expected
        ));
        return;
    }
    let Some((tally, trace)) = traced else {
        return;
    };
    let root = trace.record("op", op, None, root_start, root_start);
    let mut counts = OpCounts::new();
    trace_session(trace, op, root, &run, report, &mut counts);
    let span = trace.open("rtl.fanout_levels", op, Some(root));
    std::hint::black_box(fanout_levels(&d.design));
    trace.close(span);
    let why = match replay(&d.design, &d.config, trace, op, root, &mut counts) {
        Ok(r) => replay_disagreement(&r, report),
        Err(e) => Some(e),
    };
    if let Some(why) = why {
        out.note(format!("{}: ipc replay missing: {why}", d.name));
        counts.retain(|name, _| !name.starts_with("ipc."));
        tally.replay_missing.insert(d.name.to_owned());
    }
    trace.close(root);
    if let Some(mismatch) = tally.add(d.name, counts) {
        out.fail(mismatch);
    }
}
