//! The `serve-mix` workload: an in-process daemon on loopback with two
//! closed-loop clients submitting canonical netlists through
//! `htd_serve::client::submit`.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::Mutex;

use htd_core::{DetectedBy, DetectionReport, DetectorConfig};
use htd_rtl::netlist;
use htd_rtl::structural::fanout_levels;
use htd_serve::{client, ClientError, Json, ServeOptions, Server};
use htd_trusthub::registry::{BaseDesign, Benchmark, ExpectedDetection};

use crate::clock::{now_ns, now_s, process_cpu_ms};
use crate::detect;
use crate::layers::{
    matches_expected, replay, replay_disagreement, run_session, trace_session, OpCounts,
    ServeStats, Tally, JOBS,
};
use crate::stats::{median, SeedRng};
use crate::trace::Trace;
use crate::{setup_median, timed_setup, Latencies, Outcome};

/// Concurrent closed-loop clients (one per core of the 2-vCPU box).
const CLIENTS: usize = 2;
/// One submission in every block of this many, at a seeded place in the
/// block, is a renamed variant: a fresh `design` line, so a cache miss and
/// an insert.  The share (20%) is chosen, not taken from recorded traffic:
/// it puts 80 to 100 misses (and the evictions they cause) in a 45-second
/// run while repeats stay the majority (see `README.md`).  A fixed count
/// per block, rather than a coin per submission, keeps the number of
/// misses, and so the cache's memory, the same from seed to seed.
const MISS_EVERY: u64 = 5;

/// The designs that can be served today: every registry design except the
/// BasicRSA family (its canonical netlist cannot be dumped in reasonable
/// time or memory) and the lowering-bound AES designs of `detect`.
pub fn served_set() -> Vec<Benchmark> {
    Benchmark::all()
        .into_iter()
        .filter(|b| b.info().base != BaseDesign::BasicRsa && !detect::DESIGNS.contains(b))
        .collect()
}

struct ServedDesign {
    name: &'static str,
    expected: ExpectedDetection,
    /// AES flows need no benign-state waiver, so the daemon's verdict must
    /// be the registry's; RS232 is checked for byte identity only.
    check_expected: bool,
    netlist: String,
}

impl ServedDesign {
    /// The netlist of submission `(design, variant)`.
    fn netlist_for(&self, variant: Option<u64>, seed: u64) -> Cow<'_, str> {
        match variant {
            None => Cow::Borrowed(&self.netlist),
            Some(k) => {
                let (first, rest) = self.netlist.split_once('\n').unwrap_or((&self.netlist, ""));
                Cow::Owned(format!("{first}_s{seed}v{k}\n{rest}"))
            }
        }
    }
}

/// The seeded submission sequence shared by the clients: cycles through a
/// seeded permutation of the designs, and turns one submission in every
/// [`MISS_EVERY`] into a fresh variant.
struct Sequence {
    rng: SeedRng,
    order: Vec<usize>,
    pos: usize,
    sent: u64,
    /// The place of the variant in the current block.
    miss_slot: u64,
    variants: u64,
}

impl Sequence {
    fn new(seed: u64, designs: usize) -> Sequence {
        let mut rng = SeedRng::new(seed);
        let mut order: Vec<usize> = (0..designs).collect();
        rng.shuffle(&mut order);
        Sequence {
            rng,
            order,
            pos: 0,
            sent: 0,
            miss_slot: 0,
            variants: 0,
        }
    }

    fn next(&mut self) -> (usize, Option<u64>) {
        if self.pos == self.order.len() {
            self.pos = 0;
            let Sequence { rng, order, .. } = self;
            rng.shuffle(order);
        }
        let design = self.order[self.pos];
        self.pos += 1;
        if self.sent.is_multiple_of(MISS_EVERY) {
            self.miss_slot = self.rng.next_u64() % MISS_EVERY;
        }
        let variant = (self.sent % MISS_EVERY == self.miss_slot).then(|| {
            self.variants += 1;
            self.variants
        });
        self.sent += 1;
        (design, variant)
    }
}

fn start_server() -> Result<Server, String> {
    Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: NonZeroUsize::new(JOBS).expect("JOBS is positive"),
        ..ServeOptions::default()
    })
    .map_err(|e| format!("server does not start: {e}"))
}

/// Builds and dumps the designs, starts the daemon and submits every design
/// once from the clients, which fills the snapshot cache.
fn setup(set: &[Benchmark]) -> Result<(Server, Vec<ServedDesign>), String> {
    let mut designs = Vec::with_capacity(set.len());
    for &bench in set {
        let info = bench.info();
        let design = bench
            .build()
            .map_err(|e| format!("{}: design does not build: {e}", info.name))?;
        designs.push(ServedDesign {
            name: info.name,
            expected: info.expected,
            check_expected: info.base == BaseDesign::Aes,
            netlist: netlist::dump(&design),
        });
    }
    let server = start_server()?;
    let addr = server.addr().to_string();
    let next = Mutex::new(0usize);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    loop {
                        let index = {
                            let mut next = next.lock().expect("no client panicked");
                            *next += 1;
                            *next - 1
                        };
                        let Some(d) = designs.get(index) else {
                            return Ok(());
                        };
                        client::submit(&addr, &d.netlist, &mut |_| {})
                            .map_err(|e| format!("{}: warm-up submission failed: {e}", d.name))?;
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("warm-up client does not panic"))
    })?;
    Ok((server, designs))
}

/// One served job as the client saw it.
struct Job {
    design: usize,
    variant: Option<u64>,
    result: Result<String, ClientError>,
    start_ns: u64,
    accepted_ns: Option<u64>,
    first_flow_ns: Option<u64>,
    stats_ns: Option<u64>,
    report_ns: Option<u64>,
    end_ns: u64,
    run_ms: Option<f64>,
    /// The traced run's verification failure for this job.
    traced_error: Option<String>,
}

fn submit(addr: &str, design: usize, variant: Option<u64>, netlist: &str) -> Job {
    let start_ns = now_ns();
    let mut job = Job {
        design,
        variant,
        result: Ok(String::new()),
        start_ns,
        accepted_ns: None,
        first_flow_ns: None,
        stats_ns: None,
        report_ns: None,
        end_ns: start_ns,
        run_ms: None,
        traced_error: None,
    };
    let result = client::submit(addr, netlist, &mut |line| {
        let now = now_ns();
        let event = line
            .strip_prefix("{\"event\":\"")
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("");
        match event {
            "accepted" => job.accepted_ns = Some(now),
            "stats" => job.stats_ns = Some(now),
            "report" => job.report_ns = Some(now),
            "level_started" | "property_proved" | "counterexample" | "resolution_round"
            | "coverage" => {
                job.first_flow_ns.get_or_insert(now);
            }
            _ => {}
        }
    });
    job.end_ns = now_ns();
    job.result = result.map(|submission| {
        job.run_ms = submission
            .stats
            .as_ref()
            .and_then(|s| match s.get("wall_secs") {
                Some(Json::Num(secs)) => Some(secs * 1e3),
                _ => None,
            });
        submission.report_text
    });
    job
}

/// The local reference for a served netlist: the daemon's configuration run
/// through a local session, rendered like the `report` frame.
struct Reference {
    text: String,
    detected: Option<DetectedBy>,
}

impl Reference {
    fn of(report: &DetectionReport) -> Reference {
        Reference {
            text: format!("{}\n", report.normalized()),
            detected: report.outcome.detected_by(),
        }
    }
}

fn reference(netlist_text: &str) -> Result<Reference, String> {
    let design = netlist::parse(netlist_text).map_err(|e| format!("netlist rejected: {e}"))?;
    let report = run_session(design, &DetectorConfig::default()).result?;
    Ok(Reference::of(&report))
}

/// Compares one served report with the local reference.
fn verdict_error(d: &ServedDesign, served: &str, local: &Reference) -> Option<String> {
    if served != local.text {
        return Some(format!(
            "{}: served report differs from the local one",
            d.name
        ));
    }
    (d.check_expected && !matches_expected(d.expected, local.detected.clone())).then(|| {
        format!(
            "{}: served verdict {:?}, expected {:?}",
            d.name, local.detected, d.expected
        )
    })
}

/// The traced layer drives for one submitted netlist: the admission work
/// the daemon does (`Json::parse` of the body, `netlist::parse`, the
/// re-dump, fan-out levels) and the flow itself, called standalone from the
/// client thread, plus the `ipc` replay.  Returns the local reference and,
/// when the replay could not reproduce the flow, why.
fn trace_layers(
    trace: &mut Trace,
    op: u64,
    root: usize,
    netlist_text: &str,
    counts: &mut OpCounts,
) -> Result<(Reference, Option<String>), String> {
    let body = Json::obj([("netlist", Json::str(netlist_text))]).to_string();
    counts.insert("serve.request_bytes", body.len() as u64);
    let span = trace.open("serve.json_parse", op, Some(root));
    let parsed = Json::parse(&body);
    trace.close(span);
    parsed.map_err(|e| format!("request body does not parse: {e}"))?;
    let span = trace.open("rtl.parse", op, Some(root));
    let design = netlist::parse(netlist_text);
    trace.close(span);
    let design = design.map_err(|e| format!("netlist rejected: {e}"))?;
    let span = trace.open("rtl.dump", op, Some(root));
    let dump = netlist::dump(&design);
    trace.close(span);
    counts.insert("rtl.dump_bytes", dump.len() as u64);
    let span = trace.open("rtl.fanout_levels", op, Some(root));
    std::hint::black_box(fanout_levels(&design));
    trace.close(span);
    let config = DetectorConfig::default();
    let run = run_session(design.clone(), &config);
    let report = run.result.as_ref().map_err(Clone::clone)?;
    trace_session(trace, op, root, &run, report, counts);
    let why = match replay(&design, &config, trace, op, root, counts) {
        Ok(r) => replay_disagreement(&r, report),
        Err(e) => Some(e),
    };
    if why.is_some() {
        counts.retain(|n, _| !n.starts_with("ipc."));
    }
    Ok((Reference::of(report), why))
}

/// One run: set-up, the clients' closed loops for `seconds`, the repeated
/// set-ups, then the verification of every served report.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let set = served_set();
    let mut out = Outcome::default();
    let ((server, designs), first_setup_s) = timed_setup(|| setup(&set))?;
    let addr = server.addr().to_string();
    let shared = Mutex::new((Tally::default(), Vec::<String>::new()));
    if traced {
        count_designs(&designs, &shared)?;
    }
    let stats_before = cache_counters(&addr)?;
    let sequence = Mutex::new(Sequence::new(seed, designs.len()));
    let op_ids = Mutex::new(0u64);
    let cpu_start = process_cpu_ms()?;
    let start = now_s();
    let deadline = start + seconds;
    let logs: Vec<(Vec<Job>, Trace)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut jobs = Vec::new();
                    let mut trace = Trace::default();
                    while now_s() < deadline {
                        let (index, variant) = sequence.lock().expect("no client panicked").next();
                        let d = &designs[index];
                        let text = d.netlist_for(variant, seed);
                        let mut job = submit(&addr, index, variant, &text);
                        if traced {
                            let op = {
                                let mut ids = op_ids.lock().expect("no client panicked");
                                *ids += 1;
                                *ids
                            };
                            job.traced_error = trace_job(&mut trace, &shared, op, d, &job, &text);
                        }
                        jobs.push(job);
                    }
                    (jobs, trace)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client does not panic"))
            .collect()
    });
    out.end_window(start, cpu_start)?;
    let stats_after = cache_counters(&addr)?;
    Server::stop(server);
    out.setup_s = setup_median(first_setup_s, || setup(&set))?;
    let mut serve_stats = ServeStats {
        cache_hits: stats_after[0] - stats_before[0],
        cache_misses: stats_after[1] - stats_before[1],
        cache_evicted_entries: stats_after[2] - stats_before[2],
        coalesced: stats_after[3] - stats_before[3],
        overloaded: 0.0,
    };

    // Verify every served report: traced jobs were compared as they
    // finished; the others against one local reference per distinct
    // netlist, computed after the window so it costs the daemon nothing.
    let mut references: BTreeMap<(usize, Option<u64>), Result<Reference, String>> = BTreeMap::new();
    let mut trace = Trace::default();
    // Latencies of repeated netlists and of renamed variants, apart.
    let mut split_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (jobs, client_trace) in logs {
        trace.absorb(client_trace);
        for job in &jobs {
            out.attempt();
            let d = &designs[job.design];
            let served = match &job.result {
                Ok(text) => text,
                Err(e) => {
                    if matches!(e, ClientError::Server { code, .. } if code == "overloaded") {
                        serve_stats.overloaded += 1.0;
                    }
                    out.fail(format!("{}: submission failed: {e}", d.name));
                    continue;
                }
            };
            let error = if traced {
                job.traced_error.clone()
            } else {
                match references
                    .entry((job.design, job.variant))
                    .or_insert_with(|| reference(&d.netlist_for(job.variant, seed)))
                {
                    Ok(local) => verdict_error(d, served, local),
                    Err(e) => Some(format!("{}: local reference failed: {e}", d.name)),
                }
            };
            // A job that answered is a completed flow; a wrong answer also
            // fails.
            let end = job.report_ns.unwrap_or(job.end_ns);
            let latency_ms = (end - job.start_ns) as f64 / 1e6;
            split_ms[usize::from(job.variant.is_some())].push(latency_ms);
            out.complete(Latencies {
                design: job.design,
                latency_ms,
                first_frame_ms: (job.accepted_ns.unwrap_or(end) - job.start_ns) as f64 / 1e6,
            });
            if let Some(error) = error {
                out.fail(error);
            }
        }
    }
    let [repeats, variants] = split_ms.map(|ms| (ms.len(), median(&ms).unwrap_or(0.0)));
    println!(
        "cache: {} hits, {} misses, {} evicted entries, {} coalesced; median latency: \
         repeats {:.1} ms ({} jobs), variants {:.1} ms ({} jobs)",
        serve_stats.cache_hits,
        serve_stats.cache_misses,
        serve_stats.cache_evicted_entries,
        serve_stats.coalesced,
        repeats.1,
        repeats.0,
        variants.1,
        variants.0,
    );
    let (tally, notes) = shared.into_inner().expect("no client panicked");
    for note in notes {
        out.note(note);
    }
    if traced {
        out.layers = tally.metrics(&trace, out.window_s, &serve_stats);
        out.trace = Some(trace);
    }
    Ok(out)
}

/// Takes every exact counter of the traced run once per design, before any
/// window, so design-set totals never depend on which designs a window
/// happened to reach.
fn count_designs(
    designs: &[ServedDesign],
    shared: &Mutex<(Tally, Vec<String>)>,
) -> Result<(), String> {
    let mut shared = shared.lock().expect("no client panicked");
    let (tally, notes) = &mut *shared;
    for d in designs {
        let mut scratch = Trace::default();
        let root = scratch.open("op", 0, None);
        let mut counts = OpCounts::new();
        let (_, missing) = trace_layers(&mut scratch, 0, root, &d.netlist, &mut counts)?;
        if let Some(why) = missing {
            notes.push(format!("{}: ipc replay missing: {why}", d.name));
            tally.replay_missing.insert(d.name.to_owned());
        }
        if let Some(mismatch) = tally.add_design_counts(d.name, counts) {
            return Err(mismatch);
        }
    }
    Ok(())
}

/// The daemon's cache hits, misses, evicted entries and coalesced jobs so
/// far, from `GET /stats`.
fn cache_counters(addr: &str) -> Result<[f64; 4], String> {
    let stats = client::stats(addr).map_err(|e| format!("GET /stats failed: {e}"))?;
    let cache = stats.get("cache");
    let read = |doc: Option<&Json>, key: &str| {
        doc.and_then(|d| d.get(key))
            .and_then(Json::as_u64)
            .map(|n| n as f64)
            .ok_or_else(|| format!("GET /stats has no {key}"))
    };
    Ok([
        read(cache, "hits")?,
        read(cache, "misses")?,
        read(cache, "evicted_entries")?,
        read(Some(&stats), "coalesced")?,
    ])
}

/// Records one traced job: frame-arrival spans of the served request, then
/// the standalone layer drives, whose local report must match the served
/// one byte for byte.  Returns the job's verification failure, if any.
fn trace_job(
    trace: &mut Trace,
    shared: &Mutex<(Tally, Vec<String>)>,
    op: u64,
    d: &ServedDesign,
    job: &Job,
    text: &str,
) -> Option<String> {
    let root = trace.record("op", op, None, job.start_ns, job.start_ns);
    let request = trace.record("serve.request", op, Some(root), job.start_ns, job.end_ns);
    let accepted = job.accepted_ns.unwrap_or(job.end_ns);
    let first_flow = job.first_flow_ns.unwrap_or(accepted);
    let stats = job.stats_ns.unwrap_or(job.end_ns);
    trace.record("serve.accept", op, Some(request), job.start_ns, accepted);
    trace.record("serve.queue", op, Some(request), accepted, first_flow);
    trace.record("serve.flow", op, Some(request), first_flow, stats);
    trace.record("serve.tail", op, Some(request), stats, job.end_ns);
    let Ok(served) = &job.result else {
        trace.close(root);
        return None;
    };
    let mut counts = OpCounts::new();
    let (error, missing) = match trace_layers(trace, op, root, text, &mut counts) {
        Ok((local, missing)) => (verdict_error(d, served, &local), missing),
        Err(e) => (
            Some(format!("{}: traced layer drive failed: {e}", d.name)),
            None,
        ),
    };
    trace.close(root);
    if job.variant.is_some() {
        // A variant's dump carries its longer name; the design's byte count
        // is the canonical one.
        counts.remove("rtl.dump_bytes");
    }
    let mut shared = shared.lock().expect("no client panicked");
    let (tally, notes) = &mut *shared;
    if let Some(why) = missing {
        notes.push(format!("{}: ipc replay missing: {why}", d.name));
        tally.replay_missing.insert(d.name.to_owned());
    }
    tally.add_sum("serve.run_ms", job.run_ms.unwrap_or(0.0));
    let mismatch = tally.add(d.name, counts);
    error.or(mismatch)
}
