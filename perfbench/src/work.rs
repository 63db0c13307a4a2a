//! The three workloads and the sample: a fixed amount of workload work
//! under one rung, with the output checks that fail it.
//!
//! Why each workload exists:
//!
//! * `epcc-dense` — a 2-thread team runs EPCC `parallel`, `barrier` and
//!   `reduction` at meter sizing plus the tasks spawn-flood and
//!   producer-steal shapes, about 2 M events/s. The event layers (core
//!   dispatch, collector state queries, trace ring, drain, decode and
//!   analyze) and the runtime's sync and tasking paths do nearly all the
//!   work; the kernels do none.
//! * `npb-sparse` — a 2-thread team runs NPB CG, MG, FT and EP at class
//!   W, about 0.33 M events/s. Kernels and worksharing dominate, so an
//!   event-layer optimisation should show no change here, and a fixed
//!   per-event regression cannot hide behind sync cost.
//! * `mz-fleet` — two in-process BT-MZ class-W ranks, each with its own
//!   1-thread runtime, stream over their own Unix sockets into one
//!   in-process daemon, followed by the store export and `analyze`. The
//!   only workload that exercises the fleet wire, daemon and store, and
//!   the one that uses the trace layer from the read side (a multi-rank
//!   merge).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use collector::{clock, RuntimeHandle};
use omprt::OpenMp;
use ora_core::{Request, ThreadState};
use ora_fleet::sink::DEFAULT_WINDOW;
use ora_fleet::{Daemon, DaemonConfig, Endpoint, FleetListener, FleetReport, SocketSink};
use ora_trace::analyze::{analyze, timeline_bytes, AnalyzeConfig};
use ora_trace::{merge_ranks, TraceReader};
use workloads::epcc::{self, Directive, EpccConfig};
use workloads::mz::MzBenchmark;
use workloads::npb::{NpbClass, NpbKernel};

use crate::ladder::Rung;
use crate::rungs::{Attached, Detached};
use crate::spans::Spans;
use crate::stats::mix;

/// Team size of the single-process workloads (the host's `nproc`).
pub const THREADS: usize = 2;
/// Passes of the EPCC + tasks pieces per `epcc-dense` sample.
pub const EPCC_PASSES: usize = 12;
/// Passes of the four NPB kernels per `npb-sparse` sample.
pub const NPB_PASSES: usize = 8;
/// BT-MZ ranks in `mz-fleet`.
pub const MZ_RANKS: usize = 2;
/// Spawn-flood shape: tasks per thread per episode, episodes per pass.
pub const FLOOD: (usize, usize) = (64, 12);
/// Producer-steal shape: tasks the master spawns per episode, episodes.
pub const STEAL: (usize, usize) = (192, 8);
/// Idle time before and after every rung's timed work, the same for
/// every rung, so no rung inherits another's wake-up or wind-down.
pub const SETTLE: Duration = Duration::from_millis(3);
/// Relative checksum tolerance, as in `NpbKernel::verify`.
const REL_TOL: f64 = 1e-9;
/// EPCC directives of `epcc-dense`, with their piece names.
const EPCC_PIECES: [(Directive, &str); 3] = [
    (Directive::Parallel, "omprt.parallel"),
    (Directive::Barrier, "omprt.barrier"),
    (Directive::Reduction, "omprt.reduction"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Event-dense EPCC + tasking on a 2-thread team.
    EpccDense,
    /// Kernel-dominated NPB on a 2-thread team.
    NpbSparse,
    /// Two BT-MZ ranks streaming to an in-process fleet daemon.
    MzFleet,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::EpccDense, Workload::NpbSparse, Workload::MzFleet];

    /// Command-line name.
    pub const fn key(self) -> &'static str {
        match self {
            Workload::EpccDense => "epcc-dense",
            Workload::NpbSparse => "npb-sparse",
            Workload::MzFleet => "mz-fleet",
        }
    }

    /// Parse a [`key`](Self::key).
    pub fn parse(key: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.key() == key)
    }
}

/// One runtime (one rank) and its collector handle.
struct Rank {
    rt: OpenMp,
    handle: RuntimeHandle,
}

/// What the fleet side of a streamed sample reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetOutcome {
    /// Seconds to connect every rank's sink.
    pub connect_s: f64,
    /// Seconds of every rank's FIN handshake.
    pub fin_s: f64,
    /// Seconds `Daemon::finish` took.
    pub daemon_finish_s: f64,
    /// Seconds `FleetStore::export` took.
    pub export_s: f64,
    /// Chunk epochs the daemon accepted, all lanes.
    pub epochs: u64,
    /// Records that settled below the watermark.
    pub late: u64,
}

/// One sample: the rung, its timed work, and what the checks found.
pub struct Sample {
    /// The rung the work ran under.
    pub rung: Rung,
    /// Seconds of the timed work.
    pub seconds: f64,
    /// Seconds per piece of work, summed over the sample's passes.
    pub pieces: BTreeMap<&'static str, f64>,
    /// What the rung observed on each rank.
    pub ranks: Vec<Detached>,
    /// Events whose callbacks ran, all ranks.
    pub events: u64,
    /// Seconds from the end of the traced work to an analysis report.
    pub report_s: Option<f64>,
    /// Seconds to decode the trace into a timeline.
    pub decode_s: Option<f64>,
    /// Seconds `analyze` took.
    pub analyze_s: Option<f64>,
    /// Records the analysis read.
    pub analyzed: u64,
    /// Fleet accounting, for streamed samples.
    pub fleet: Option<FleetOutcome>,
    /// ns per `QueryState` round trip (state rung, traced run).
    pub request_ns: Option<f64>,
    /// Check failures; empty when the sample passed.
    pub failures: Vec<String>,
}

/// A set-up workload, ready to run samples.
pub struct Bench {
    workload: Workload,
    seed: u64,
    ranks: Vec<Rank>,
    epcc: EpccConfig,
    kernels: Vec<NpbKernel>,
    npb_reference: Vec<f64>,
    mz: MzBenchmark,
    mz_reference: Vec<f64>,
    flood_sum: u64,
    steal_sum: u64,
    regions: Option<Vec<u64>>,
    fixed_events: Option<Vec<u64>>,
    work_dir: PathBuf,
}

/// The seeded payload of task `i` in episode `ep`.
fn task_value(seed: u64, ep: usize, i: usize) -> u64 {
    // Mixing the seed first keeps seeds from merely permuting the set.
    mix(mix(seed) ^ (((ep as u64) << 32) | i as u64))
}

/// Closed form of a task shape's sum: `spawners` threads each adding
/// every `(episode, task)` value once.
pub fn task_sum(seed: u64, spawners: u64, (tasks, episodes): (usize, usize)) -> u64 {
    let mut sum = 0u64;
    for ep in 0..episodes {
        for i in 0..tasks {
            sum = sum.wrapping_add(task_value(seed, ep, i));
        }
    }
    sum.wrapping_mul(spawners)
}

/// Every thread spawns its own tied tasks each episode, then taskwaits.
fn spawn_flood(rt: &OpenMp, seed: u64) -> u64 {
    let sum = AtomicU64::new(0);
    let (tasks, episodes) = FLOOD;
    rt.parallel(|ctx| {
        for ep in 0..episodes {
            for i in 0..tasks {
                let v = task_value(seed, ep, i);
                let sum = &sum;
                // SAFETY: `sum` outlives the region, and the taskwait
                // below retires every task before the next episode.
                unsafe {
                    ctx.task_borrowed(move || {
                        sum.fetch_add(v, Ordering::Relaxed);
                    });
                }
            }
            ctx.taskwait();
        }
    });
    sum.into_inner()
}

/// Only the master spawns (untied, so the team can steal); a barrier
/// publishes the batch before the whole team taskwaits, and a second
/// barrier closes the episode.
///
/// The closing barrier is there because the runtime's taskwait waits
/// for the whole team's tasks, not only the caller's children: without
/// it, a thread still in episode `ep`'s taskwait also waits for the
/// batch the master spawns for `ep + 1`, while the master waits for that
/// thread at the next publishing barrier. The team then deadlocks with
/// both threads parked (at once with tied tasks, now and then with
/// untied ones), as `workloads::meterwork`'s producer-steal unit does.
fn producer_steal(rt: &OpenMp, seed: u64) -> u64 {
    let sum = AtomicU64::new(0);
    let (tasks, episodes) = STEAL;
    rt.parallel(|ctx| {
        for ep in 0..episodes {
            if ctx.is_master() {
                for i in 0..tasks {
                    let v = task_value(seed, ep, i);
                    let sum = &sum;
                    // SAFETY: as in `spawn_flood`; the taskwait below
                    // retires the batch on every thread's path.
                    unsafe {
                        ctx.task_borrowed_untied(move || {
                            sum.fetch_add(v, Ordering::Relaxed);
                        });
                    }
                }
            }
            ctx.barrier();
            ctx.taskwait();
            ctx.barrier();
        }
    });
    sum.into_inner()
}

fn relative_error(got: f64, want: f64) -> f64 {
    ((got - want) / want.abs().max(1e-30)).abs()
}

/// An in-process fleet daemon serving one sample's ranks.
struct FleetRun {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<(FleetReport, f64, std::io::Result<()>)>>,
}

impl FleetRun {
    fn start(socket: &Path, ranks: usize) -> Result<FleetRun, String> {
        let endpoint = Endpoint::Unix(socket.to_path_buf());
        let listener =
            FleetListener::bind(&endpoint).map_err(|e| format!("bind {endpoint}: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut daemon = Daemon::new(DaemonConfig::default());
                let served = daemon.run_listener(&listener, &stop, Some(ranks as u64));
                let start = Instant::now();
                let report = daemon.finish();
                (report, start.elapsed().as_secs_f64(), served)
            })
        };
        Ok(FleetRun {
            endpoint,
            stop,
            thread: Some(thread),
        })
    }

    fn connect(&self, rank: usize, tee: Option<PathBuf>) -> Result<SocketSink, String> {
        let sink = SocketSink::connect(
            &self.endpoint,
            rank as u64,
            clock::TICKS_PER_SEC,
            DEFAULT_WINDOW,
        )
        .map_err(|e| format!("connect rank {rank}: {e}"))?;
        match tee {
            Some(path) => sink
                .tee(&path)
                .map_err(|e| format!("tee {}: {e}", path.display())),
            None => Ok(sink),
        }
    }

    /// Wait for every lane to finish and take the daemon's report.
    fn finish(mut self) -> Result<(FleetReport, f64), String> {
        let thread = self.thread.take().expect("daemon joined once");
        let (report, seconds, served) = thread.join().map_err(|_| "daemon thread panicked")?;
        served.map_err(|e| format!("listener: {e}"))?;
        Ok((report, seconds))
    }
}

impl Drop for FleetRun {
    fn drop(&mut self) {
        // Only on an error path: stop accepting and join the daemon.
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::Release);
            let _ = thread.join();
        }
    }
}

/// Timed `QueryState` round trips from the master thread.
fn request_probe(handle: &RuntimeHandle, spans: &Spans) -> f64 {
    const PROBES: u32 = 2_000;
    let _span = spans.span("core.request");
    let start = Instant::now();
    for _ in 0..PROBES {
        let _ = std::hint::black_box(handle.request_one(Request::QueryState));
    }
    start.elapsed().as_nanos() as f64 / f64::from(PROBES)
}

impl Bench {
    /// Build the workload's runtimes and reference results. The caller
    /// warms every rung up before timing.
    pub fn setup(workload: Workload, seed: u64, work_dir: &Path) -> Result<Bench, String> {
        let (count, threads) = match workload {
            Workload::MzFleet => (MZ_RANKS, 1),
            _ => (1, THREADS),
        };
        let ranks = (0..count)
            .map(|_| {
                let rt = OpenMp::with_threads(threads);
                let handle = RuntimeHandle::discover_named(rt.symbol_name())
                    .ok_or("runtime symbol not discoverable")?;
                Ok(Rank { rt, handle })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let kernels = match workload {
            Workload::NpbSparse => vec![
                NpbKernel::cg(),
                NpbKernel::mg(),
                NpbKernel::ft(),
                NpbKernel::ep(),
            ],
            _ => Vec::new(),
        };
        // Single-thread references every checksum must match.
        let serial = OpenMp::with_threads(1);
        let npb_reference = kernels
            .iter()
            .map(|k| k.run(&serial, NpbClass::W))
            .collect();
        let mz = MzBenchmark::bt_mz();
        let mz_reference = match workload {
            Workload::MzFleet => (0..MZ_RANKS)
                .map(|i| mz.run_rank(&serial, i, MZ_RANKS, NpbClass::W).checksum)
                .collect(),
            _ => Vec::new(),
        };
        Ok(Bench {
            workload,
            seed,
            ranks,
            epcc: EpccConfig::meter_quick(),
            kernels,
            npb_reference,
            mz,
            mz_reference,
            flood_sum: task_sum(seed, THREADS as u64, FLOOD),
            steal_sum: task_sum(seed, 1, STEAL),
            regions: None,
            fixed_events: None,
            work_dir: work_dir.to_path_buf(),
        })
    }

    /// Upper bound on the taskwait events one sample can fire: two per
    /// taskwait call, and every thread calls one per task episode plus
    /// one in each task region's closing implicit barrier.
    fn taskwait_bound(&self) -> u64 {
        match self.workload {
            Workload::EpccDense => (2 * THREADS * (FLOOD.1 + STEAL.1 + 2) * EPCC_PASSES) as u64,
            _ => 0,
        }
    }

    fn socket_path(&self) -> PathBuf {
        self.work_dir
            .join(format!("fleet-{}.sock", std::process::id()))
    }

    fn tee_path(&self, rank: usize) -> PathBuf {
        self.work_dir
            .join(format!("rank{rank}-{}.oratrace", std::process::id()))
    }

    /// Remove the socket and tee files this bench left behind.
    pub fn clean(&self) {
        let _ = std::fs::remove_file(self.socket_path());
        for rank in 0..self.ranks.len() {
            let _ = std::fs::remove_file(self.tee_path(rank));
        }
    }

    /// The sample's timed work. Returns per-piece seconds and check
    /// failures.
    fn work(&self, spans: &Spans) -> (BTreeMap<&'static str, f64>, Vec<String>) {
        let mut pieces = BTreeMap::new();
        let mut failures = Vec::new();
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
            let _span = spans.span(name);
            let start = Instant::now();
            f();
            *pieces.entry(name).or_insert(0.0) += start.elapsed().as_secs_f64();
        };
        match self.workload {
            Workload::EpccDense => {
                let rt = &self.ranks[0].rt;
                for _ in 0..EPCC_PASSES {
                    for (directive, name) in EPCC_PIECES {
                        timed(name, &mut || epcc::iterate(rt, directive, &self.epcc));
                    }
                    let mut flood = 0;
                    timed("omprt.task", &mut || flood = spawn_flood(rt, self.seed));
                    let mut steal = 0;
                    timed("omprt.steal_task", &mut || {
                        steal = producer_steal(rt, self.seed)
                    });
                    if flood != self.flood_sum {
                        failures.push(format!("spawn-flood sum {flood} != {}", self.flood_sum));
                    }
                    if steal != self.steal_sum {
                        failures.push(format!("producer-steal sum {steal} != {}", self.steal_sum));
                    }
                }
                (pieces, failures)
            }
            Workload::NpbSparse => {
                let rt = &self.ranks[0].rt;
                const NAMES: [&str; 4] = [
                    "workloads.cg",
                    "workloads.mg",
                    "workloads.ft",
                    "workloads.ep",
                ];
                for _ in 0..NPB_PASSES {
                    for ((kernel, reference), name) in
                        self.kernels.iter().zip(&self.npb_reference).zip(NAMES)
                    {
                        let mut got = 0.0;
                        timed(name, &mut || got = kernel.run(rt, NpbClass::W));
                        let rel = relative_error(got, *reference);
                        if rel >= REL_TOL {
                            failures.push(format!(
                                "{} checksum {got} vs reference {reference} (rel {rel:e})",
                                kernel.name
                            ));
                        }
                    }
                }
                (pieces, failures)
            }
            Workload::MzFleet => {
                let _span = spans.span("workloads.mz_ranks");
                let mz = &self.mz;
                let results: Vec<(f64, u64, f64)> = std::thread::scope(|scope| {
                    let running: Vec<_> = self
                        .ranks
                        .iter()
                        .enumerate()
                        .map(|(i, rank)| {
                            scope.spawn(move || {
                                let start = Instant::now();
                                let r = mz.run_rank(&rank.rt, i, MZ_RANKS, NpbClass::W);
                                (start.elapsed().as_secs_f64(), r.calls, r.checksum)
                            })
                        })
                        .collect();
                    running
                        .into_iter()
                        .map(|h| h.join().expect("rank thread panicked"))
                        .collect()
                });
                let want_calls = mz.per_rank_calls(MZ_RANKS, NpbClass::W);
                for (i, (_, calls, checksum)) in results.iter().enumerate() {
                    if *calls != want_calls[i] {
                        failures.push(format!(
                            "rank {i}: {calls} zone steps, want {}",
                            want_calls[i]
                        ));
                    }
                    let reference = self.mz_reference[i];
                    let rel = relative_error(*checksum, reference);
                    if rel >= REL_TOL {
                        failures.push(format!("rank {i} checksum {checksum} vs {reference}"));
                    }
                }
                let rank_s: Vec<f64> = results.iter().map(|r| r.0).collect();
                pieces.insert(
                    "workloads.mz_rank",
                    rank_s.iter().sum::<f64>() / rank_s.len() as f64,
                );
                (pieces, failures)
            }
        }
    }

    /// Run one sample under `rung`. `tee` additionally writes each
    /// rank's streamed trace to a file and checks the fleet export
    /// against an offline merge of those files (untimed). An `Err` means
    /// a layer refused an operation outright and the run cannot go on.
    pub fn sample(&mut self, rung: Rung, spans: &Spans, tee: bool) -> Result<Sample, String> {
        let _sample = spans.span("bench.sample");
        let streamed =
            self.workload == Workload::MzFleet && matches!(rung, Rung::Trace | Rung::Governed);
        let fleet = if streamed {
            Some(FleetRun::start(&self.socket_path(), self.ranks.len())?)
        } else {
            None
        };
        let mut outcome = FleetOutcome::default();
        let mut attached = Vec::with_capacity(self.ranks.len());
        for (i, rank) in self.ranks.iter().enumerate() {
            let sink = match &fleet {
                Some(f) => {
                    let _span = spans.span("fleet.connect");
                    let start = Instant::now();
                    let sink = f.connect(i, tee.then(|| self.tee_path(i)))?;
                    outcome.connect_s += start.elapsed().as_secs_f64();
                    Some(sink)
                }
                None => None,
            };
            attached.push(Attached::attach(rung, &rank.handle, sink, spans)?);
        }
        let regions_before: Vec<u64> = self.ranks.iter().map(|r| r.rt.region_calls()).collect();

        {
            let _span = spans.span("bench.settle");
            std::thread::sleep(SETTLE);
        }
        let start = Instant::now();
        let (pieces, mut failures) = self.work(spans);
        let seconds = start.elapsed().as_secs_f64();
        {
            let _span = spans.span("bench.settle");
            std::thread::sleep(SETTLE);
        }

        let regions: Vec<u64> = self
            .ranks
            .iter()
            .zip(&regions_before)
            .map(|(r, before)| r.rt.region_calls() - before)
            .collect();
        let request_ns = (spans.enabled() && rung == Rung::State)
            .then(|| request_probe(&self.ranks[0].handle, spans));

        let report_start = Instant::now();
        let mut ranks = Vec::with_capacity(attached.len());
        for a in attached {
            ranks.push(a.detach(spans)?);
        }
        let mut sample = Sample {
            rung,
            seconds,
            pieces,
            events: ranks.iter().map(|d| d.events).sum(),
            ranks,
            report_s: None,
            decode_s: None,
            analyze_s: None,
            analyzed: 0,
            fleet: None,
            request_ns,
            failures: Vec::new(),
        };
        let reports = matches!(rung, Rung::Trace | Rung::TraceMem);
        if let Some(fleet) = fleet {
            self.close_fleet(
                fleet,
                &mut sample,
                &mut outcome,
                reports,
                tee,
                spans,
                &mut failures,
            )?;
            sample.fleet = Some(outcome);
        } else if reports {
            self.decode_and_analyze(&mut sample, spans)?;
        }
        if reports {
            sample.report_s = Some(report_start.elapsed().as_secs_f64());
        }
        for (rank, d) in self.ranks.iter().zip(&mut sample.ranks) {
            d.release(&rank.handle);
            if let Some(trace) = &mut d.trace {
                trace.memory = None;
            }
        }
        self.check(&sample, &regions, &mut failures);
        sample.failures = failures;
        Ok(sample)
    }

    /// Decode the memory traces (merging ranks) and analyze them.
    fn decode_and_analyze(&self, sample: &mut Sample, spans: &Spans) -> Result<(), String> {
        let start = Instant::now();
        let timeline = {
            let _span = spans.span("trace.decode");
            let readers = sample
                .ranks
                .iter_mut()
                .map(|d| {
                    let bytes = d
                        .trace
                        .as_mut()
                        .and_then(|t| t.memory.take())
                        .ok_or("streaming rung without a memory trace")?;
                    TraceReader::from_bytes(bytes).map_err(|e| format!("decode: {e}"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            merge_ranks(&readers).map_err(|e| format!("merge: {e}"))?
        };
        sample.decode_s = Some(start.elapsed().as_secs_f64());
        let start = Instant::now();
        {
            let _span = spans.span("trace.analyze");
            std::hint::black_box(analyze(&timeline, &AnalyzeConfig::default()));
        }
        sample.analyze_s = Some(start.elapsed().as_secs_f64());
        sample.analyzed = timeline.len() as u64;
        Ok(())
    }

    /// FIN every rank, collect the daemon's report, and (for the trace
    /// rung) export and analyze the merged timeline.
    #[allow(clippy::too_many_arguments)]
    fn close_fleet(
        &self,
        fleet: FleetRun,
        sample: &mut Sample,
        outcome: &mut FleetOutcome,
        reports: bool,
        tee: bool,
        spans: &Spans,
        failures: &mut Vec<String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        {
            let _span = spans.span("fleet.fin");
            for (i, d) in sample.ranks.iter_mut().enumerate() {
                let trace = d.trace.as_mut().ok_or("streamed rung without a trace")?;
                let sink = trace
                    .socket
                    .take()
                    .ok_or("streamed rung without a socket")?;
                let fin = sink
                    .finish(trace.observed, trace.drained, trace.dropped)
                    .map_err(|e| format!("rank {i} FIN: {e}"))?;
                if fin.stored != trace.drained {
                    failures.push(format!(
                        "rank {i}: daemon stored {} of {} drained",
                        fin.stored, trace.drained
                    ));
                }
            }
        }
        outcome.fin_s = start.elapsed().as_secs_f64();
        let (report, daemon_finish_s) = {
            let _span = spans.span("fleet.daemon_finish");
            fleet.finish()?
        };
        outcome.daemon_finish_s = daemon_finish_s;
        outcome.epochs = report.lanes.iter().map(|l| l.epochs).sum();
        outcome.late = report.store.late_events();
        if !report.reconciled()
            || report.lanes.len() != self.ranks.len()
            || !report.rejected.is_empty()
        {
            failures.push(format!(
                "fleet report does not reconcile: {:?}",
                report.lanes
            ));
        }
        if !reports {
            return Ok(());
        }
        let start = Instant::now();
        let export = {
            let _span = spans.span("fleet.export");
            report.store.export()
        };
        outcome.export_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        {
            let _span = spans.span("trace.analyze");
            std::hint::black_box(analyze(report.store.records(), &AnalyzeConfig::default()));
        }
        sample.analyze_s = Some(start.elapsed().as_secs_f64());
        sample.analyzed = report.store.len() as u64;
        if tee {
            let _span = spans.span("bench.check_export");
            let readers = (0..self.ranks.len())
                .map(|i| TraceReader::open(self.tee_path(i)).map_err(|e| format!("tee {i}: {e}")))
                .collect::<Result<Vec<_>, String>>()?;
            let offline = merge_ranks(&readers).map_err(|e| format!("offline merge: {e}"))?;
            if timeline_bytes(&offline) != export {
                failures
                    .push("fleet export differs from the offline merge of the teed traces".into());
            }
        }
        Ok(())
    }

    /// The output checks that do not depend on the work's results.
    fn check(&mut self, sample: &Sample, regions: &[u64], failures: &mut Vec<String>) {
        let rung = sample.rung;
        let expected = self.regions.get_or_insert_with(|| regions.to_vec());
        if regions != expected.as_slice() {
            failures.push(format!(
                "{}: region calls {regions:?}, want {expected:?}",
                rung.key()
            ));
        }
        let bound = self.taskwait_bound();
        for (i, d) in sample.ranks.iter().enumerate() {
            if let Some(t) = &d.trace {
                if t.observed != t.drained + t.dropped {
                    failures.push(format!(
                        "rank {i}: observed {} != drained {} + dropped {}",
                        t.observed, t.drained, t.dropped
                    ));
                }
                if t.observed != d.events {
                    failures.push(format!(
                        "rank {i}: tracer saw {} events, runtime {}",
                        t.observed, d.events
                    ));
                }
            }
            if let Some(g) = d.governor {
                if g.observed != g.sampled + g.skipped {
                    failures.push(format!(
                        "rank {i}: governor observed {} != sampled {} + skipped {}",
                        g.observed, g.sampled, g.skipped
                    ));
                }
            }
            match rung {
                Rung::Absent | Rung::Aa | Rung::Untraced | Rung::Paused => {
                    if d.events != 0 || d.paused_events.unwrap_or(0) != 0 {
                        failures.push(format!(
                            "rank {i}: {} fired {} callbacks",
                            rung.key(),
                            d.events
                        ));
                    }
                }
                Rung::Dispatch | Rung::Trace | Rung::TraceMem => {
                    let taskwaits = d.taskwait_events.unwrap_or(0);
                    let fixed = d.events.saturating_sub(taskwaits);
                    let want = self
                        .fixed_events
                        .get_or_insert_with(|| vec![0; regions.len()]);
                    if want[i] == 0 {
                        want[i] = fixed;
                    } else if want[i] != fixed {
                        failures.push(format!(
                            "rank {i}: {} events ({} taskwait), want {} + taskwaits",
                            d.events, taskwaits, want[i]
                        ));
                    }
                }
                Rung::State => {
                    if let Some(want) = self.fixed_events.as_ref().map(|v| v[i]) {
                        if d.events < want || d.events > want + bound {
                            failures.push(format!(
                                "rank {i}: state rung saw {} events, want {want}",
                                d.events
                            ));
                        }
                    }
                }
                Rung::Governed => {}
            }
        }
    }

    /// Share of state time spent waiting in barriers and taskwaits.
    pub fn wait_frac(sample: &Sample) -> Option<f64> {
        let mut wait = 0.0;
        let mut total = 0.0;
        for d in &sample.ranks {
            let profile = d.state.as_ref()?;
            wait += profile.total_secs(ThreadState::ImplicitBarrier)
                + profile.total_secs(ThreadState::ExplicitBarrier)
                + profile.total_secs(ThreadState::TaskWait);
            total += profile.threads.iter().map(|t| t.total()).sum::<f64>();
        }
        (total > 0.0).then(|| wait / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_closed_form_matches_a_real_run() {
        let rt = OpenMp::with_threads(THREADS);
        assert_eq!(spawn_flood(&rt, 11), task_sum(11, THREADS as u64, FLOOD));
        assert_eq!(producer_steal(&rt, 11), task_sum(11, 1, STEAL));
        assert_ne!(
            task_sum(11, 1, STEAL),
            task_sum(12, 1, STEAL),
            "seeded inputs"
        );
    }

    #[test]
    fn workload_keys_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.key()), Some(w));
        }
        assert_eq!(Workload::parse("sync"), None);
    }
}
