//! Behavioural suite for the flow-graph executor: cross-level pipelining
//! actually happens (not just in theory), and the clause-GC thresholds are
//! configurable and fire.

use std::num::NonZeroUsize;

use golden_free_htd::detect::{DetectorConfig, PipelineStats, PropertyScheduler, SessionBuilder};
use golden_free_htd::ipc::CheckerOptions;
use golden_free_htd::rtl::{Design, ValidatedDesign};
use golden_free_htd::trusthub::registry::Benchmark;

fn scheduler(jobs: usize, pipeline: bool) -> PropertyScheduler {
    PropertyScheduler::new(NonZeroUsize::new(jobs).unwrap())
        .with_level_pipelining(pipeline)
        .with_oversubscription(true)
}

fn run_benchmark(benchmark: Benchmark, jobs: usize, pipeline: bool) -> PipelineStats {
    let design = benchmark.build().unwrap();
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        ..DetectorConfig::default()
    };
    let mut session = SessionBuilder::new(design)
        .config(config)
        .scheduler(scheduler(jobs, pipeline))
        .build()
        .unwrap();
    session.run().unwrap();
    session.pipeline_stats()
}

/// A two-deep chain of *hard* sub-properties: each level's prove obligation
/// is an 8-bit multiplier-commutativity miter (`s*t ^ t*s` must be proven
/// zero), which costs the solver tens of milliseconds — long enough that the
/// next level's task reliably starts while the previous one is still
/// solving.
fn mult_pipeline(bits: u32) -> ValidatedDesign {
    let mut d = Design::new("mult_pipeline");
    let input = d.add_input("in", bits).unwrap();
    let s = d.add_register("s", bits, 0).unwrap();
    let t = d.add_register("t", bits, 0).unwrap();
    let r1 = d.add_register("r1", bits, 0).unwrap();
    let r2 = d.add_register("r2", bits, 0).unwrap();
    let w = d.add_register("w", bits, 0).unwrap();
    d.set_register_next(s, d.signal(input)).unwrap();
    d.set_register_next(t, d.signal(input)).unwrap();
    d.set_register_next(w, d.signal(w)).unwrap();
    // Level 2: r1 <= (s*t) ^ (t*s) ^ in — equal iff multiplication commutes.
    let st = d.mul(d.signal(s), d.signal(t)).unwrap();
    let ts = d.mul(d.signal(t), d.signal(s)).unwrap();
    let comm1 = d.xor(st, ts).unwrap();
    let r1_next = d.xor(comm1, d.signal(input)).unwrap();
    d.set_register_next(r1, r1_next).unwrap();
    // Level 3: r2 <= (w*r1) ^ (r1*w), with w never assumed equal, so the
    // commutativity obligation recurs one level later.
    let wr = d.mul(d.signal(w), d.signal(r1)).unwrap();
    let rw = d.mul(d.signal(r1), d.signal(w)).unwrap();
    let comm2 = d.xor(wr, rw).unwrap();
    d.set_register_next(r2, comm2).unwrap();
    d.add_output("out", d.signal(r2)).unwrap();
    d.validated().unwrap()
}

/// The acceptance property of the flow-graph refactor: on bundled
/// benchmarks, sub-properties of two different levels are in flight
/// concurrently under `--jobs 2` — either a later level's tasks solving
/// while an earlier level's are unfinished (`cross_level_solves`) or the
/// master encoding a level while another level's forks solve
/// (`pipelined_prepares`).
///
/// On a host with a single hardware thread the coordinator can never win
/// the wake-up race against sub-millisecond solver tasks (workers drain the
/// whole level within one scheduler quantum), so the assertion only runs
/// with two or more hardware threads; `cross_level_tasks_solve_concurrently`
/// below covers single-core hosts with tasks long enough to straddle
/// quanta.
#[test]
fn bundled_benchmarks_pipeline_levels_under_two_jobs() {
    if PropertyScheduler::available_parallelism().get() < 2 {
        eprintln!(
            "skipping bundled-overlap assertion: single hardware thread \
             (see cross_level_tasks_solve_concurrently for the 1-core demonstration)"
        );
        return;
    }
    let candidates = [
        Benchmark::Rs232T2400,
        Benchmark::Rs232HtFree,
        Benchmark::BasicRsaHtFree,
        Benchmark::BasicRsaT200,
    ];
    for _ in 0..20 {
        for benchmark in candidates {
            let stats = run_benchmark(benchmark, 2, true);
            if stats.pipelined_prepares > 0 || stats.cross_level_solves > 0 {
                assert!(stats.tasks_dispatched > 0);
                return;
            }
        }
    }
    panic!("no bundled benchmark ever overlapped two levels under --jobs 2");
}

/// With pipelining disabled, speculative prepares are gated behind the
/// previous level's merge, so the encode/solve overlap counter stays zero.
/// (Resolution rounds still force-prepare the remaining levels — that is a
/// determinism requirement, not speculation.)
#[test]
fn disabling_pipelining_serialises_level_prepares() {
    let stats = run_benchmark(Benchmark::BasicRsaHtFree, 2, false);
    assert_eq!(stats.pipelined_prepares, 0);
}

/// True cross-level solve concurrency: with two workers and two consecutive
/// levels of hard sub-properties, a task of level `k + 1` starts while level
/// `k`'s task is still solving.
#[test]
fn cross_level_tasks_solve_concurrently() {
    let mut best = PipelineStats::default();
    for _ in 0..5 {
        let mut session = SessionBuilder::new(mult_pipeline(5))
            .scheduler(scheduler(2, true))
            .build()
            .unwrap();
        session.run().unwrap();
        let stats = session.pipeline_stats();
        if stats.cross_level_solves > 0 {
            return;
        }
        best = stats;
    }
    panic!("no cross-level solve overlap observed in 5 attempts (best schedule: {best:?})");
}

/// The pipelined schedule of the hard two-level design reports byte-identically
/// to the single-worker schedule.
#[test]
fn hard_pipeline_reports_are_schedule_invariant() {
    let run = |jobs: usize, pipeline: bool| {
        SessionBuilder::new(mult_pipeline(4))
            .scheduler(scheduler(jobs, pipeline))
            .build()
            .unwrap()
            .run()
            .unwrap()
            .normalized()
    };
    let baseline = run(1, true);
    assert_eq!(baseline, run(2, true));
    assert_eq!(baseline, run(2, false));
}

/// The arena fork cost model surfaces at every level of the stack: the
/// deterministic report counts one fork per consumed solve task (with its
/// byte cost), the session counts the master-side snapshot clones, and the
/// pipeline stats mirror them per generation.
#[test]
fn fork_cost_model_reaches_reports_and_pipeline_stats() {
    let mut session = SessionBuilder::new(mult_pipeline(4))
        .scheduler(scheduler(2, true))
        .build()
        .unwrap();
    let report = session.run().unwrap();
    let totals = report.solver_totals;
    let session_stats = session.session_stats();
    // Every level holds on this design, so every dispatched task is
    // consumed: the schedule-invariant report records exactly one fork per
    // task, each costing real bytes.
    assert_eq!(totals.fork_count, session_stats.parallel_tasks);
    assert!(totals.fork_count > 0);
    assert!(totals.bytes_cloned > 0);
    // The master froze at least one multi-task generation behind a snapshot
    // clone, and the scheduler accounted its bytes.
    let pipeline = session.pipeline_stats();
    assert_eq!(pipeline.snapshot_forks, session_stats.snapshot_forks);
    assert_eq!(
        pipeline.snapshot_bytes_cloned,
        session_stats.snapshot_bytes_cloned
    );
    assert!(session_stats.snapshot_forks > 0);
    assert!(session_stats.snapshot_bytes_cloned > 0);
}

/// Clause-GC thresholds are configurable: with the thresholds floored, the
/// master compacts before forking snapshots, and the GC counters reach the
/// report.  AES-T1600 is an infected AES flow: its init property fails, and
/// the end-of-flow hygiene retires the failing generation's activation
/// literals, leaving dead miter clauses for the compactor.
#[test]
fn lowered_gc_thresholds_fire_on_an_infected_aes_flow() {
    let design = Benchmark::AesT1600.build().unwrap();
    let config = DetectorConfig {
        benign_state: Benchmark::AesT1600.benign_state(&design),
        checker: CheckerOptions {
            gc_dead_pct: 0,
            gc_min_clauses: 1,
            ..CheckerOptions::default()
        },
        ..DetectorConfig::default()
    };
    let mut session = SessionBuilder::new(design)
        .config(config)
        .jobs(NonZeroUsize::new(2).unwrap())
        .build()
        .unwrap();
    session.run().unwrap();
    let backend = session.backend_stats();
    assert!(
        backend.solver.gc_runs > 0,
        "GC never fired with floored thresholds: {:?}",
        backend.solver
    );
}
