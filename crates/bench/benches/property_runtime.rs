//! Experiment E3: per-property proof runtime, and the incremental-session
//! ablation.
//!
//! Sec. VI of the paper reports 1–3 s and <1 GB per property on a commercial
//! property checker.  This benchmark measures two things on our engine:
//!
//! * `property_runtime`: the runtime of individual interval properties — the
//!   init property, a shallow, a middle and the deepest fanout property of
//!   the clean AES, and the failing fanout property 21 of the AES-T2500
//!   Trojan.  Per-property times for the *session* path come from the
//!   streaming `FlowEvent` API, so the flow is not instrumented or re-run.
//! * `flow_encode_ablation`: the flow's properties re-encoded one by one
//!   (one fresh AIG + CNF + solver per check, in flow order up to the first
//!   genuine failure, spurious counterexamples resolved as the flow resolves
//!   them) against the incremental `DetectionSession` path (one bit-blast,
//!   one live solver) — the headline speedup of the session API.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use htd_bench::{
    check_property, flow_properties, prepared_benchmark, reencode_flow, run_detection,
    session_property_timings,
};
use htd_trusthub::registry::Benchmark;

fn property_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("property_runtime");
    group.sample_size(10);

    let (clean_aes, _) = prepared_benchmark(Benchmark::AesHtFree);
    let clean_properties = flow_properties(&clean_aes);
    let picks = [0usize, 1, 10, clean_properties.len() - 1];
    for index in picks {
        let property = &clean_properties[index];
        group.bench_with_input(
            BenchmarkId::new("aes_ht_free", &property.name),
            property,
            |b, property| b.iter(|| check_property(&clean_aes, property, true)),
        );
    }

    let (infected, _) = prepared_benchmark(Benchmark::AesT2500);
    let infected_properties = flow_properties(&infected);
    let failing = infected_properties.last().expect("AES has fanout levels");
    group.bench_with_input(
        BenchmarkId::new("aes_t2500", &failing.name),
        failing,
        |b, property| b.iter(|| check_property(&infected, property, true)),
    );

    group.finish();
}

/// Per-property re-encode vs. the incremental session, end to end.
fn flow_encode_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_encode_ablation");
    group.sample_size(10);

    for benchmark in [
        Benchmark::AesHtFree,
        Benchmark::AesT2500,
        Benchmark::BasicRsaHtFree,
    ] {
        let (design, config) = prepared_benchmark(benchmark);
        let input = (design, config);
        group.bench_with_input(
            BenchmarkId::new("reencode_per_property", benchmark.name()),
            &input,
            |b, (design, config)| b.iter(|| reencode_flow(design, config)),
        );
        group.bench_with_input(
            BenchmarkId::new("incremental_session", benchmark.name()),
            &input,
            |b, (design, config)| b.iter(|| run_detection(design, config)),
        );
    }
    group.finish();
}

/// Per-property timing of one session run, harvested from `FlowEvent`s.
fn session_property_breakdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_property_breakdown");
    group.sample_size(10);

    let (clean_aes, config) = prepared_benchmark(Benchmark::AesHtFree);
    // One un-timed pass prints the per-property breakdown the events carry;
    // the benchmark then times the full observed run.
    for (property, duration) in session_property_timings(&clean_aes, &config) {
        println!(
            "  event-timed {property:<24} {:>9.3} ms",
            duration.as_secs_f64() * 1e3
        );
    }
    group.bench_with_input(
        BenchmarkId::from_parameter("aes_ht_free"),
        &(clean_aes, config),
        |b, (design, config)| b.iter(|| session_property_timings(design, config)),
    );
    group.finish();
}

criterion_group!(
    benches,
    property_runtime,
    flow_encode_ablation,
    session_property_breakdown
);
criterion_main!(benches);
