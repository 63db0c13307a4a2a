//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up several times (the median is `setup_s`), then
//! runs rounds of samples — every rung once per round, in an order
//! shuffled from the seed — until `--seconds` have passed. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! also runs the layer rungs, records spans and reports the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object. Run from the repository root.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use omprt::{spin, Topology};
use perfbench::ladder::{Ladder, Rung};
use perfbench::spans::{layer_self_seconds, Spans};
use perfbench::stats::{median, shuffle, tail, SplitMix64};
use perfbench::work::{Bench, Sample, Workload, EPCC_PASSES, FLOOD, NPB_PASSES, STEAL, THREADS};
use workloads::epcc::EpccConfig;

/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds run even when `--seconds` is already spent.
const MIN_ROUNDS: usize = 3;
/// Seconds a sample may take before it counts as hung (samples take well
/// under one second).
const HANG_S: u64 = 20;
const USAGE: &str =
    "usage: perfbench --workload <epcc-dense|npb-sparse|mz-fleet> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value and its tail percentile, when it is a
    /// median of per-sample values.
    spread: Option<(usize, Option<(u32, f64)>)>,
    /// Whether the workload exercises what the metric measures.
    applies: bool,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    /// The median of per-sample values.
    fn median(&mut self, name: &str, unit: &'static str, xs: &[f64]) {
        self.0.push(Metric {
            name: name.to_string(),
            value: median(xs),
            unit,
            spread: Some((xs.len(), tail(xs))),
            applies: !xs.is_empty(),
        });
    }

    /// A derived value; `None` when the workload does not exercise it
    /// (reported as 0 and marked n/a).
    fn value(&mut self, name: &str, unit: &'static str, value: Option<f64>) {
        self.0.push(Metric {
            name: name.to_string(),
            value: value.unwrap_or(0.0),
            unit,
            spread: None,
            applies: value.is_some(),
        });
    }

    fn print(&self) {
        for m in &self.0 {
            let mut line = format!("{:<34} {:>14.6e} {:<6}", m.name, m.value, m.unit);
            if !m.applies {
                line.push_str(" n/a on this workload");
            } else if let Some((n, tail)) = m.spread {
                let _ = write!(line, " median, n={n}");
                if let Some((pct, v)) = tail {
                    let _ = write!(line, ", p{pct}={v:.6e}");
                }
            }
            println!("{line}");
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Per-sample values of `f` over the samples of `rung`.
fn over(samples: &[Sample], rung: Rung, f: impl Fn(&Sample) -> Option<f64>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.rung == rung)
        .filter_map(f)
        .collect()
}

fn fingerprint(args: &Args) -> String {
    let topo = Topology::current();
    let source = match std::env::var("OMP_ORA_TOPOLOGY") {
        Ok(spec) => format!("OMP_ORA_TOPOLOGY={spec}"),
        Err(_) => "probed".to_string(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} topology={}x{}x{} ({source}) \
         spin_short={} spin_long={} rustc=\"{}\"",
        args.workload.key(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        topo.packages(),
        topo.cores_per_package(),
        topo.smt_per_core(),
        spin::short_budget(),
        spin::long_budget(),
        env!("PERFBENCH_RUSTC"),
    )
}

/// Operations attempted and failed. An operation is a sample (its
/// output checks) or a trace record a streaming rung attempted. A sample
/// fails when a check fails or it hangs; a record fails when the ring
/// drops it.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Samples that failed an output check.
    broken: u64,
    /// Samples that did not finish within [`HANG_S`].
    hangs: u64,
    failures: Vec<String>,
}

impl Tally {
    fn sample(&mut self, s: &Sample) {
        self.attempted += 1;
        if !s.failures.is_empty() {
            self.failed += 1;
            self.broken += 1;
            let rung = s.rung.key();
            self.failures
                .extend(s.failures.iter().map(|f| format!("{rung}: {f}")));
        }
        for t in s.ranks.iter().filter_map(|d| d.trace.as_ref()) {
            self.attempted += t.observed;
            self.failed += t.dropped;
        }
    }

    fn hang(&mut self, rung: Rung) {
        self.attempted += 1;
        self.failed += 1;
        self.hangs += 1;
        self.failures.push(format!(
            "{}: sample did not finish within {HANG_S} s; its runtime was abandoned",
            rung.key()
        ));
    }
}

/// A thread that owns one set-up bench and runs its samples, so the
/// main thread can give up on a sample that hangs inside the runtime.
struct Runner {
    jobs: mpsc::Sender<(Rung, bool, bool)>,
    results: mpsc::Receiver<Result<Option<Sample>, String>>,
    thread: JoinHandle<()>,
}

impl Runner {
    /// Set a bench up on a new thread; returns once it is ready.
    fn start(
        workload: Workload,
        seed: u64,
        work_dir: &Path,
        spans: &Arc<Spans>,
    ) -> Result<Runner, String> {
        let (jobs, job_rx) = mpsc::channel::<(Rung, bool, bool)>();
        let (result_tx, results) = mpsc::channel();
        let spans = Arc::clone(spans);
        let work_dir = work_dir.to_path_buf();
        let thread = std::thread::spawn(move || {
            let off = Spans::new(false);
            let mut bench = match Bench::setup(workload, seed, &work_dir) {
                Ok(bench) => bench,
                Err(e) => {
                    let _ = result_tx.send(Err(e));
                    return;
                }
            };
            let _ = result_tx.send(Ok(None));
            for (rung, tee, record) in job_rx {
                let recorder = if record { &*spans } else { &off };
                let result = bench.sample(rung, recorder, tee).map(Some);
                if result_tx.send(result).is_err() {
                    break;
                }
            }
            bench.clean();
        });
        let runner = Runner {
            jobs,
            results,
            thread,
        };
        match runner.results.recv_timeout(Duration::from_secs(HANG_S)) {
            Ok(Ok(None)) => Ok(runner),
            Ok(Err(e)) => Err(e),
            _ => Err("set-up did not finish".into()),
        }
    }

    /// Run one sample; `None` when it did not finish within [`HANG_S`].
    fn sample(&self, rung: Rung, tee: bool, record: bool) -> Result<Option<Sample>, String> {
        self.jobs
            .send((rung, tee, record))
            .map_err(|_| "sample thread ended early")?;
        match self.results.recv_timeout(Duration::from_secs(HANG_S)) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err("sample thread panicked".into()),
        }
    }

    /// Close the job queue and join the thread.
    fn finish(self) {
        drop(self.jobs);
        let _ = self.thread.join();
    }

    /// Leave a hung thread behind: it cannot be joined, and it ends when
    /// the process exits.
    fn abandon(self) {
        drop(self.thread);
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let root = Path::new("perfbench");
    if !root.join("Cargo.toml").is_file() {
        return Err("run from the repository root".into());
    }
    let work_dir = root.join("work");
    let out_dir = root.join("out");
    for dir in [&work_dir, &out_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let stamp = fingerprint(args);
    println!("# perfbench {stamp}");

    let spans = Arc::new(Spans::new(args.trace));
    let fleet = args.workload == Workload::MzFleet;
    let rungs = Rung::ladder(args.trace, fleet);
    let mut tally = Tally::default();
    let mut sample_id = 0u64;
    let start_runner = || Runner::start(args.workload, args.seed, &work_dir, &spans);

    // Set up several times; keep the last. Each set-up warms every rung
    // once (bare work first, so first-fork effects stay out of the
    // expectations the later samples are checked against). On mz-fleet
    // the trace warm-up also checks the fleet export against an offline
    // merge of teed rank traces. A set-up that hangs is redone.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut runner: Option<Runner> = None;
    while setup_s.len() < SETUPS {
        if let Some(old) = runner.take() {
            old.finish();
        }
        let start = if setup_s.is_empty() && tally.hangs == 0 {
            started
        } else {
            Instant::now()
        };
        let r = start_runner()?;
        let first = [Rung::Absent, Rung::Trace];
        let rest = rungs.iter().copied().filter(|r| !first.contains(r));
        let mut hung = false;
        for rung in first.into_iter().chain(rest) {
            sample_id += 1;
            spans.set_sample(sample_id, rung.key());
            match r.sample(rung, rung == Rung::Trace, true)? {
                Some(s) => tally.sample(&s),
                None => {
                    tally.hang(rung);
                    hung = true;
                    break;
                }
            }
        }
        if hung {
            r.abandon();
            continue;
        }
        setup_s.push(start.elapsed().as_secs_f64());
        runner = Some(r);
    }
    let mut runner = runner.expect("at least one set-up");

    // Rounds until the deadline. A round in which a sample hangs is
    // dropped whole, so every rung keeps one sample per kept round, and
    // the run goes on with a fresh set-up.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let mut times: BTreeMap<Rung, Vec<f64>> = BTreeMap::new();
    let mut round = 0u64;
    while round < MIN_ROUNDS as u64 || Instant::now() < deadline {
        let mut order = rungs.clone();
        shuffle(&mut order, &mut SplitMix64::new(args.seed, round));
        let mut kept = Vec::with_capacity(order.len());
        for rung in order {
            sample_id += 1;
            spans.set_sample(sample_id, rung.key());
            match runner.sample(rung, false, rung != Rung::Untraced)? {
                Some(s) => {
                    tally.sample(&s);
                    kept.push(s);
                }
                None => {
                    tally.hang(rung);
                    break;
                }
            }
        }
        round += 1;
        if kept.len() < rungs.len() {
            std::mem::replace(&mut runner, start_runner()?).abandon();
            for rung in [Rung::Absent, Rung::Trace] {
                match runner.sample(rung, false, false)? {
                    Some(s) => tally.sample(&s),
                    None => return Err(format!("{} hung right after a restart", rung.key())),
                }
            }
            continue;
        }
        for s in kept {
            times.entry(s.rung).or_default().push(s.seconds);
            samples.push(s);
        }
    }
    runner.finish();
    let Tally {
        attempted,
        failed,
        broken,
        hangs,
        failures,
    } = tally;

    let events = median(&over(&samples, Rung::Trace, |s| Some(s.events as f64)));
    let ladder = Ladder::new(times, events);

    let mut e2e = Metrics::default();
    e2e.median("setup_s", "s", &setup_s);
    for rung in [
        Rung::Absent,
        Rung::Paused,
        Rung::State,
        Rung::Trace,
        Rung::Governed,
    ] {
        e2e.median(&format!("run_s.{}", rung.key()), "s", ladder.samples(rung));
    }
    e2e.median(
        "report_s",
        "s",
        &over(&samples, Rung::Trace, |s| s.report_s),
    );
    e2e.median(
        "trace_bytes_per_event",
        "B",
        &over(&samples, Rung::Trace, |s| {
            let bytes: u64 = s
                .ranks
                .iter()
                .filter_map(|d| d.trace.as_ref())
                .map(|t| t.bytes)
                .sum();
            Some(bytes as f64 / s.events as f64)
        }),
    );
    let (observed, dropped) = samples
        .iter()
        .filter(|s| matches!(s.rung, Rung::Trace | Rung::Governed))
        .flat_map(|s| s.ranks.iter().filter_map(|d| d.trace.as_ref()))
        .fold((0u64, 0u64), |(o, d), t| (o + t.observed, d + t.dropped));
    let loss = dropped as f64 / observed.max(1) as f64;

    println!(
        "## end to end ({} rounds, rung order shuffled from seed {})",
        ladder.rounds(),
        args.seed
    );
    e2e.print();
    println!(
        "{:<34} {loss:>14.6e} frac   dropped {dropped} of {observed} records",
        "trace_loss_frac"
    );
    println!(
        "failed operations: {failed} of {attempted} ({:.3e}); samples failing an output check: \
         {broken}; samples that hung: {hangs}",
        failed as f64 / attempted.max(1) as f64
    );
    for f in failures.iter().take(20) {
        println!("  FAILED {f}");
    }
    print_ladder_checks(&ladder, fleet);

    let mut report = format!("{{\"fingerprint\": \"{}\", ", stamp.replace('"', "'"));
    let metrics = if args.trace {
        let layers = per_layer(&samples, &ladder, args.workload, untraced_overhead(&ladder));
        println!("## per layer (traced run)");
        layers.print();
        let spans_path = out_dir.join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.key(),
            args.seed
        ));
        write(&spans_path, &spans.to_json_lines())?;
        println!(
            "## layer self time, s per sample (spans in {})",
            spans_path.display()
        );
        let recorded = spans.snapshot();
        let mut ids: Vec<u64> = recorded.iter().map(|s| s.sample).collect();
        ids.sort_unstable();
        ids.dedup();
        let per_sample = ids.len().max(1) as f64;
        for (layer, secs) in layer_self_seconds(&recorded) {
            println!("{layer:<12} {:>12.6e}", secs / per_sample);
        }
        layers
    } else {
        e2e
    };
    let per_round: Vec<String> = rungs
        .iter()
        .map(|r| format!("\"{}\": {:?}", r.key(), ladder.samples(*r)))
        .collect();
    let _ = write!(
        report,
        "\"seconds_per_sample\": {{{}}}, \"metrics\": {}}}",
        per_round.join(", "),
        metrics.json()
    );
    let result_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.key(),
        args.seed,
        u8::from(args.trace)
    ));
    write(&result_path, &report)?;
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        broken == 0,
        metrics.json()
    );
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Traced `absent` over untraced `absent`, minus one: what recording
/// spans costs.
fn untraced_overhead(ladder: &Ladder) -> Option<f64> {
    Some(ladder.run_s(Rung::Absent)? / ladder.run_s(Rung::Untraced)? - 1.0)
}

fn print_ladder_checks(ladder: &Ladder, fleet: bool) {
    if let Some(r) = ladder.reconcile() {
        println!(
            "ladder: gate + dispatch + ring{} = {:.2} ns/event vs trace - absent = {:.2} ns/event; \
             A/A floor {:.2} ns/event: {}",
            if fleet { " + wire" } else { "" },
            r.rows_ns,
            r.delta_ns,
            r.floor_ns,
            if r.holds() { "reconciles" } else { "does NOT reconcile" }
        );
    }
    if let (Some(mem), Some(rows), Some(r)) = (ladder.mem_ns(), ladder.rows(), ladder.reconcile()) {
        println!(
            "fleet: trace.mem {:.2} + wire {:.2} = {:.2} ns/event vs trace - absent {:.2}",
            mem,
            rows.wire,
            mem + rows.wire,
            r.delta_ns
        );
    }
    if let Some(ok) = ladder.paused_within_aa() {
        println!(
            "paused/absent {:.4} vs aa/absent {:.4} ± {:.4}: {}",
            ladder.overhead(Rung::Paused).unwrap_or(0.0),
            ladder.overhead(Rung::Aa).unwrap_or(0.0),
            ladder.aa_spread(),
            if ok {
                "within the A/A spread"
            } else {
                "OUTSIDE the A/A spread"
            }
        );
    }
}

fn per_layer(
    samples: &[Sample],
    ladder: &Ladder,
    workload: Workload,
    tracing_overhead: Option<f64>,
) -> Metrics {
    let mut m = Metrics::default();
    let piece = |name: &str, per: f64| {
        over(samples, Rung::Absent, |s| {
            s.pieces.get(name).map(|t| t / per)
        })
    };
    let mz = workload == Workload::MzFleet;
    let instances = (EPCC_PASSES * EpccConfig::meter_quick().inner_reps) as f64;
    let flood_tasks = (THREADS * FLOOD.0 * FLOOD.1 * EPCC_PASSES) as f64;
    let steal_tasks = (STEAL.0 * STEAL.1 * EPCC_PASSES) as f64;
    let us = 1e-6;
    m.median(
        "omprt.parallel_us",
        "us",
        &piece("omprt.parallel", instances * us),
    );
    m.median(
        "omprt.barrier_us",
        "us",
        &piece("omprt.barrier", instances * us),
    );
    m.median(
        "omprt.reduction_us",
        "us",
        &piece("omprt.reduction", instances * us),
    );
    m.median(
        "omprt.task_us",
        "us",
        &piece("omprt.task", flood_tasks * us),
    );
    m.median(
        "omprt.steal_task_us",
        "us",
        &piece("omprt.steal_task", steal_tasks * us),
    );
    let health = |f: fn(&perfbench::rungs::Detached) -> u64| {
        over(samples, Rung::Absent, |s| {
            Some(s.ranks.iter().map(f).sum::<u64>() as f64)
        })
    };
    m.median("omprt.tasks_stolen", "count", &health(|d| d.tasks_stolen));
    m.median(
        "omprt.taskwait_parks",
        "count",
        &health(|d| d.taskwait_parks),
    );
    m.median(
        "omprt.wait_frac",
        "frac",
        &over(samples, Rung::State, Bench::wait_frac),
    );
    for (kernel, name) in [
        ("cg", "workloads.cg"),
        ("mg", "workloads.mg"),
        ("ft", "workloads.ft"),
        ("ep", "workloads.ep"),
    ] {
        m.median(
            &format!("workloads.{kernel}_s"),
            "s",
            &piece(name, NPB_PASSES as f64),
        );
    }
    m.median("workloads.mz_rank_s", "s", &piece("workloads.mz_rank", 1.0));

    let rows = ladder.rows();
    m.value("core.gate_ns_per_event", "ns", rows.map(|r| r.gate));
    m.value("core.dispatch_ns_per_event", "ns", rows.map(|r| r.dispatch));
    m.median(
        "core.request_ns",
        "ns",
        &over(samples, Rung::State, |s| s.request_ns),
    );
    let governor = |f: fn(&perfbench::rungs::GovernorDelta) -> f64| {
        over(samples, Rung::Governed, |s| {
            Some(
                s.ranks
                    .iter()
                    .filter_map(|d| d.governor.as_ref())
                    .map(f)
                    .sum(),
            )
        })
    };
    let sampled = governor(|g| g.sampled as f64);
    let observed = governor(|g| g.observed as f64);
    let frac: Vec<f64> = sampled
        .iter()
        .zip(&observed)
        .map(|(s, o)| s / o.max(1.0))
        .collect();
    m.median("core.governor.sampled_frac", "frac", &frac);
    m.median(
        "core.governor.retunes",
        "count",
        &governor(|g| g.retunes as f64),
    );
    m.value("collector.state_ns_per_event", "ns", rows.map(|r| r.state));
    for rung in [Rung::Paused, Rung::State, Rung::Trace, Rung::Governed] {
        m.value(
            &format!("collector.overhead.{}", rung.key()),
            "ratio",
            ladder.overhead(rung),
        );
    }

    m.value("trace.ring_ns_per_event", "ns", rows.map(|r| r.ring));
    let traced = |f: fn(&perfbench::rungs::TraceOutcome) -> f64| {
        over(samples, Rung::Trace, |s| {
            Some(s.ranks.iter().filter_map(|d| d.trace.as_ref()).map(f).sum())
        })
    };
    let events = traced(|t| t.observed as f64);
    m.median("trace.events", "count", &events);
    let dropped = traced(|t| t.dropped as f64);
    m.median("trace.dropped", "count", &dropped);
    m.median(
        "trace.drain_heartbeats",
        "count",
        &traced(|t| t.heartbeats as f64),
    );
    let loss: Vec<f64> = dropped
        .iter()
        .zip(&events)
        .map(|(d, e)| d / e.max(1.0))
        .collect();
    m.median("trace.loss_frac", "frac", &loss);
    m.median("trace.finish_s", "s", &traced(|t| t.finish_s));
    // On mz-fleet the trace rung's decode happens in the daemon; the
    // read side is timed on the trace.mem rung's multi-rank merge.
    let reader = if mz { Rung::TraceMem } else { Rung::Trace };
    let per_record = |f: fn(&Sample) -> Option<f64>| {
        over(samples, reader, |s| {
            Some(f(s)? / s.analyzed.max(1) as f64 * 1e9)
        })
    };
    m.median(
        "trace.decode_ns_per_event",
        "ns",
        &per_record(|s| s.decode_s),
    );
    m.median(
        "trace.analyze_ns_per_event",
        "ns",
        &per_record(|s| s.analyze_s),
    );

    m.value(
        "fleet.wire_ns_per_event",
        "ns",
        rows.filter(|_| mz).map(|r| r.wire),
    );
    let fleet = |f: fn(&perfbench::work::FleetOutcome, &Sample) -> f64| {
        over(samples, Rung::Trace, |s| Some(f(s.fleet.as_ref()?, s)))
    };
    m.median("fleet.connect_s", "s", &fleet(|f, _| f.connect_s));
    m.median("fleet.fin_s", "s", &fleet(|f, _| f.fin_s));
    m.median(
        "fleet.daemon_finish_s",
        "s",
        &fleet(|f, _| f.daemon_finish_s),
    );
    m.median(
        "fleet.export_ns_per_event",
        "ns",
        &fleet(|f, s| f.export_s / s.analyzed.max(1) as f64 * 1e9),
    );
    m.median("fleet.epochs", "count", &fleet(|f, _| f.epochs as f64));
    m.median("fleet.late_events", "count", &fleet(|f, _| f.late as f64));

    m.value("bench.aa_ratio", "ratio", ladder.overhead(Rung::Aa));
    m.value("bench.tracing_overhead", "frac", tracing_overhead);
    m
}
