//! # paper — the paper's §V experiments through one harness
//!
//! `omp_prof paper <experiment> [--scale smoke|quick|paper]` renders
//! every table and figure of the evaluation from [`EXPERIMENTS`]. Every
//! timed cell runs its arms — bare, the profiler in full or
//! callbacks-only mode, or one NPB-MZ run per [`CollectMode`] — through
//! the meter's interleaved loop ([`interleave`]) and reports each arm's
//! [`analyze`] median, so load drift on a shared host lands on every arm
//! of a cell alike instead of on whichever arm ran in the slow window.
//! The count tables are checks too: a Table I/II count that differs
//! from the paper, or a measured count that differs from the structural
//! one, is a [`PaperError`].

use collector::{clock, report, Mode, Profiler, ProfilerConfig, RuntimeHandle, StreamingTracer};
use omprt::{OpenMp, Schedule};
use ora_trace::{MemorySink, TraceConfig};
use workloads::epcc::{self, EpccConfig, ALL_DIRECTIVES};
use workloads::mz::{TABLE_II, TABLE_II_PROCS};
use workloads::npb::TABLE_I;
use workloads::schedbench::{self, SchedConfig};
use workloads::{arraybench, CollectMode, MzBenchmark, NpbClass, NpbKernel};

use crate::meter::{analyze, interleave, StatPolicy};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-long, paper-shaped run (class B-sim structure).
    Paper,
    /// Seconds-long run preserving the structure (class W / reduced reps).
    Quick,
    /// Sub-second smoke run (class S).
    Smoke,
}

impl Scale {
    /// The accepted `--scale` values.
    pub const KEYS: &'static str = "smoke|quick|paper";

    /// Parse a `--scale` value; anything but the three keys is `None`.
    pub fn parse(key: &str) -> Option<Scale> {
        match key {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The NPB class for this scale.
    pub fn npb_class(self) -> NpbClass {
        match self {
            Scale::Paper => NpbClass::Bsim,
            Scale::Quick => NpbClass::W,
            Scale::Smoke => NpbClass::S,
        }
    }

    /// Discarded and timed rounds of every timed cell.
    pub fn rounds(self) -> (usize, usize) {
        match self {
            Scale::Paper | Scale::Quick => (1, 5),
            Scale::Smoke => (0, 1),
        }
    }
}

/// Why an experiment could not produce its table (a count mismatch or
/// a collector that failed to attach).
pub type PaperError = String;

/// One table or figure of the paper's evaluation.
pub struct Experiment {
    /// The `omp_prof paper` key.
    pub name: &'static str,
    /// What it reproduces.
    pub reproduces: &'static str,
    /// Run it and render the report.
    pub run: fn(Scale) -> Result<String, PaperError>,
}

/// Every experiment, in `omp_prof paper all` order.
pub static EXPERIMENTS: [Experiment; 7] = [
    Experiment {
        name: "table1",
        reproduces: "Table I: NPB3.2-OMP regions, calls measured via fork events",
        run: |scale| table1(scale, &TABLE_I),
    },
    Experiment {
        name: "table2",
        reproduces: "Table II: per-process region calls of the NPB3.2-MZ hybrids",
        run: |scale| table2(scale, &TABLE_II),
    },
    Experiment {
        name: "fig4",
        reproduces: "Fig. 4: EPCC directive overhead %, per thread count",
        run: fig4,
    },
    Experiment {
        name: "fig5",
        reproduces: "Fig. 5: NPB3.2-OMP overhead %, 1/2/4/8 threads",
        run: fig5,
    },
    Experiment {
        name: "fig6",
        reproduces: "Fig. 6: NPB3.2-MZ overhead %, 1x8/2x4/4x2/8x1",
        run: fig6,
    },
    Experiment {
        name: "breakdown",
        reproduces: "§V-B: measurement/storage vs callbacks/communication split",
        run: breakdown,
    },
    Experiment {
        name: "epcc",
        reproduces: "EPCC sync/sched/array bench absolute overheads under Fig. 4",
        run: epcc_tables,
    },
];

/// The experiment called `name`.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// A caveat line when thread counts exceed hardware threads.
fn oversubscription_note(max_threads: usize) -> Option<String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (max_threads > cores).then(|| {
        format!(
            "note: up to {max_threads} threads on {cores} hardware thread(s); \
             absolute times are oversubscribed, overhead ratios remain meaningful"
        )
    })
}

/// Format an overhead percentage the way the paper's figures do (values
/// below 1% are listed as zero).
fn fmt_pct(pct: f64) -> String {
    if pct < 1.0 {
        "0".to_string()
    } else {
        format!("{pct:.1}")
    }
}

/// Percentage increase of `collected` over `base` (0 for a zero base).
fn overhead_pct(base: f64, collected: f64) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    (collected - base) / base * 100.0
}

/// The §V-B breakdown of one workload's collection overhead: the same
/// run bare, with empty callbacks, and with the full profiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Seconds with no collection.
    pub base_secs: f64,
    /// Seconds with callbacks registered but recording nothing.
    pub callbacks_secs: f64,
    /// Seconds with full measurement and storage.
    pub full_secs: f64,
}

impl Breakdown {
    /// From the medians of [`BREAKDOWN_ARMS`] (or the matching
    /// [`CollectMode`]s), in that order.
    pub fn from_medians(m: &[f64]) -> Breakdown {
        Breakdown {
            base_secs: m[0],
            callbacks_secs: m[1],
            full_secs: m[2],
        }
    }

    /// Total overhead in seconds.
    pub fn total_overhead(&self) -> f64 {
        (self.full_secs - self.base_secs).max(0.0)
    }

    /// Fraction of the overhead attributable to performance
    /// measurement/storage (the paper reports 81.22% for LU-HP and 99.35%
    /// for SP-MZ).
    pub fn measurement_fraction(&self) -> f64 {
        let total = self.total_overhead();
        if total <= 0.0 {
            return 0.0;
        }
        ((self.full_secs - self.callbacks_secs).max(0.0) / total).min(1.0)
    }

    /// Fraction attributable to runtime↔collector communication
    /// (callbacks and event dispatch).
    pub fn communication_fraction(&self) -> f64 {
        let total = self.total_overhead();
        if total <= 0.0 {
            return 0.0;
        }
        1.0 - self.measurement_fraction()
    }
}

/// The arms of an overhead cell: bare, then the full profiler.
pub const OVERHEAD_ARMS: [Option<Mode>; 2] = [None, Some(Mode::Full)];

/// The arms of a §V-B cell: bare, callbacks only, full profiler.
pub const BREAKDOWN_ARMS: [Option<Mode>; 3] = [None, Some(Mode::CallbacksOnly), Some(Mode::Full)];

const MZ_OVERHEAD_MODES: [CollectMode; 2] = [CollectMode::Off, CollectMode::Profile];
const MZ_BREAKDOWN_MODES: [CollectMode; 3] = [
    CollectMode::Off,
    CollectMode::CallbacksOnly,
    CollectMode::Profile,
];

fn median_of(samples: impl Iterator<Item = f64>) -> f64 {
    analyze(&samples.collect::<Vec<_>>(), &StatPolicy::default()).median
}

/// One cell: `arms` arms through the interleaved loop at `scale`'s
/// rounds, each arm's median.
fn medians(
    scale: Scale,
    arms: usize,
    sample: impl FnMut(usize) -> Result<f64, PaperError>,
) -> Result<Vec<f64>, PaperError> {
    let (warmup, reps) = scale.rounds();
    let samples = interleave(warmup, reps, arms, sample)?;
    Ok(samples
        .iter()
        .map(|s| median_of(s.iter().copied()))
        .collect())
}

/// One cell on `rt`: `sample` under each of `arms` (bare, or a profiler
/// in that mode attached for the one sample), each arm's median.
fn profiled_medians(
    scale: Scale,
    rt: &OpenMp,
    arms: &[Option<Mode>],
    mut sample: impl FnMut() -> f64,
) -> Result<Vec<f64>, PaperError> {
    rt.parallel(|_| {}); // warm the worker pool outside every arm
    let handle = RuntimeHandle::discover_named(rt.symbol_name())
        .ok_or_else(|| "runtime symbol not discoverable".to_string())?;
    medians(scale, arms.len(), |arm| {
        let Some(mode) = arms[arm] else {
            return Ok(sample());
        };
        let config = ProfilerConfig {
            mode,
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(handle.clone(), config)
            .map_err(|e| format!("attach profiler: {e}"))?;
        let value = sample();
        profiler.finish();
        Ok(value)
    })
}

/// Medians, in seconds per run, of `kernel` at `class` on `rt` under
/// each of `arms`.
pub fn kernel_medians(
    scale: Scale,
    rt: &OpenMp,
    arms: &[Option<Mode>],
    kernel: &NpbKernel,
    class: NpbClass,
) -> Result<Vec<f64>, PaperError> {
    profiled_medians(scale, rt, arms, || {
        let (_, ticks) = clock::time(|| std::hint::black_box(kernel.run(rt, class)));
        clock::to_secs(ticks)
    })
}

/// Medians, in seconds per run, of `bench` at `procs × threads` under
/// each of `modes`.
fn mz_medians(
    scale: Scale,
    bench: &MzBenchmark,
    (procs, threads): (usize, usize),
    modes: &[CollectMode],
) -> Result<Vec<f64>, PaperError> {
    let class = scale.npb_class();
    medians(scale, modes.len(), |arm| {
        Ok(bench.run(procs, threads, class, modes[arm]).wall_secs)
    })
}

fn smoke_or<T>(scale: Scale, smoke: T, other: T) -> T {
    if scale == Scale::Smoke {
        smoke
    } else {
        other
    }
}

/// A titled grid: one row per `rows` entry (named in the first of
/// `cols`), `cell(row, col)` rendering the value under each further
/// column; then `footer`.
fn grid(
    title: &str,
    config: String,
    max_threads: usize,
    rows: Vec<String>,
    cols: Vec<String>,
    mut cell: impl FnMut(usize, usize) -> Result<String, PaperError>,
    footer: &str,
) -> Result<String, PaperError> {
    let mut out = format!("{title}\n{config}\n");
    if let Some(note) = oversubscription_note(max_threads) {
        out += &format!("{note}\n");
    }
    let mut body = Vec::new();
    for (r, name) in rows.into_iter().enumerate() {
        let mut row = vec![name];
        for c in 0..cols.len() - 1 {
            row.push(cell(r, c)?);
        }
        body.push(row);
    }
    let headers: Vec<&str> = cols.iter().map(String::as_str).collect();
    Ok(format!(
        "{out}\n{}\n{footer}\n",
        report::table(&headers, body)
    ))
}

fn pct_cell(m: Vec<f64>) -> String {
    fmt_pct(overhead_pct(m[0], m[1]).max(0.0))
}

fn columns(first: &str, values: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(first.to_string()).chain(values).collect()
}

/// Table I: the structure checked against `paper`, the call counts
/// measured through a streaming tracer's fork events.
fn table1(scale: Scale, paper: &[(&str, usize, u64)]) -> Result<String, PaperError> {
    let class = scale.npb_class();
    let kernels = NpbKernel::all();
    if kernels.len() != paper.len() {
        return Err("Table I: row count differs from the kernels".to_string());
    }
    let mut rows = Vec::new();
    for (kernel, &(name, regions, calls)) in kernels.iter().zip(paper) {
        let ours = (
            kernel.name,
            kernel.region_count(),
            kernel.region_calls(NpbClass::Bsim),
        );
        if ours != (name, regions, calls) {
            return Err(format!(
                "Table I: paper {:?}, ours {ours:?}",
                (name, regions, calls)
            ));
        }
        let rt = OpenMp::with_threads(2);
        let handle = RuntimeHandle::discover_named(rt.symbol_name())
            .ok_or_else(|| "runtime symbol not discoverable".to_string())?;
        // Only the counters matter here: a small ring set per kernel.
        let config = TraceConfig::with_total_capacity(1024);
        let tracer = StreamingTracer::attach(handle, config, MemorySink::new())
            .map_err(|e| format!("attach tracer: {e}"))?;
        kernel.run(&rt, class);
        let measured = tracer.region_calls();
        tracer.finish().map_err(|e| format!("finish tracer: {e}"))?;
        if measured != kernel.region_calls(class) {
            return Err(format!(
                "{name}: {measured} fork events, {} region calls at {class:?}",
                kernel.region_calls(class)
            ));
        }
        let mut row = columns(name, [regions, ours.1].map(|n| n.to_string()));
        row.extend([calls, ours.2, measured].map(|n| n.to_string()));
        rows.push(row);
    }
    let headers = [
        "benchmark",
        "# regions (paper)",
        "# regions (ours)",
        "# calls (paper, B)",
        "# calls (ours, B-sim)",
        "# calls (measured via ORA forks)",
    ];
    Ok(format!(
        "Table I — parallel regions per NPB3.2-OMP benchmark\n\
         measured class: {class:?} (call counts scale; structure is invariant)\n\n{}\n\
         every measured count equals the kernel's structural count at the chosen class\n",
        report::table(&headers, rows)
    ))
}

/// Table II: per-process calls checked against `paper`, then a
/// verification run whose join samples must equal the calls.
fn table2(scale: Scale, paper: &[(&str, [u64; 4])]) -> Result<String, PaperError> {
    let benches = MzBenchmark::all();
    if benches.len() != paper.len() {
        return Err("Table II: row count differs from the benchmarks".to_string());
    }
    let mut rows = Vec::new();
    for (bench, &(name, cols)) in benches.iter().zip(paper) {
        let ours = TABLE_II_PROCS.map(|p| bench.table2_calls(p));
        if (bench.name, ours) != (name, cols) {
            return Err(format!(
                "Table II: paper {name} {cols:?}, ours {} {ours:?}",
                bench.name
            ));
        }
        rows.push(columns(name, ours.map(|c| c.to_string())));
    }
    let headers = columns(
        "benchmark",
        TABLE_II_PROCS.map(|p| format!("{p} X {}", 8 / p)),
    );
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let class = scale.npb_class();
    let mut out = format!(
        "Table II — parallel-region calls per process (process x thread)\n\n{}\n\
         all twelve entries equal the paper's Table II exactly\n\n\
         verification run at class {class:?} (2 ranks x 2 threads):\n",
        report::table(&headers, rows)
    );
    // Every zone-step region call is observed as a join sample by the
    // per-rank profilers.
    for bench in &benches {
        let result = bench.run(2, 2, class, CollectMode::Profile);
        let expected: u64 = result.per_rank_calls.iter().sum();
        out += &format!(
            "  {:6}  expected calls {:>8}  measured join samples {:>8}  wall {:.3}s\n",
            bench.name, expected, result.join_samples, result.wall_secs
        );
        if result.join_samples != expected {
            return Err(format!("{}: join samples differ", bench.name));
        }
    }
    Ok(out)
}

/// EPCC sizing per round (at quick scale the rounds are the outer
/// repetitions).
fn epcc_config(scale: Scale) -> EpccConfig {
    match scale {
        Scale::Paper => EpccConfig::paper_scale(),
        Scale::Quick => EpccConfig {
            outer_reps: 1,
            inner_reps: 200,
            delay_len: 256,
        },
        Scale::Smoke => EpccConfig {
            outer_reps: 2,
            inner_reps: 16,
            delay_len: 64,
        },
    }
}

/// Fig. 4: the raw per-instance EPCC directive time, bare vs profiled.
fn fig4(scale: Scale) -> Result<String, PaperError> {
    let cfg = epcc_config(scale);
    let threads = smoke_or(scale, vec![2, 4], vec![4, 8, 16, 32]);
    grid(
        "Figure 4 — EPCC syncbench: % increase in directive overhead with ORA collection",
        format!(
            "config: outer={} inner={} delay={} ({} directive instances/measurement)",
            cfg.outer_reps,
            cfg.inner_reps,
            cfg.delay_len,
            cfg.outer_reps * cfg.inner_reps
        ),
        threads[threads.len() - 1],
        ALL_DIRECTIVES.map(|d| d.name().to_string()).to_vec(),
        columns("directive", threads.iter().map(|t| format!("{t} thr (%)"))),
        |r, c| {
            let rt = OpenMp::with_threads(threads[c]);
            let m = profiled_medians(scale, &rt, &OVERHEAD_ARMS, || {
                epcc::measure(&rt, ALL_DIRECTIVES[r], &cfg).raw_mean
            })?;
            Ok(pct_cell(m))
        },
        "paper shape: heavily-used directives (parallel, parallel-for, reduction) \
         sit around ~5%; rarely-used directives under 5%; lock/atomic are \
         noisy outliers because their base times are tiny",
    )
}

/// Fig. 5: NPB kernel wall time, bare vs profiled.
fn fig5(scale: Scale) -> Result<String, PaperError> {
    let class = scale.npb_class();
    let threads = smoke_or(scale, vec![1, 2], vec![1, 2, 4, 8]);
    let kernels = NpbKernel::all();
    grid(
        "Figure 5 — NPB3.2-OMP: % overhead of ORA data collection",
        format!("class: {class:?}"),
        threads[threads.len() - 1],
        kernels.iter().map(|k| k.name.to_string()).collect(),
        columns("benchmark", threads.iter().map(|t| format!("{t} thr (%)"))),
        |r, c| {
            let rt = OpenMp::with_threads(threads[c]);
            let m = kernel_medians(scale, &rt, &OVERHEAD_ARMS, &kernels[r], class)?;
            Ok(pct_cell(m))
        },
        "paper shape: LU-HP highest (≈6% on 8 threads, ~300k region calls); \
         most others below 5%; EP ≈ 0 (3 region calls)",
    )
}

/// Fig. 6: NPB-MZ wall time with every rank bare vs profiled.
fn fig6(scale: Scale) -> Result<String, PaperError> {
    let paper = TABLE_II_PROCS.map(|p| (p, 8 / p));
    let decomps = smoke_or(scale, vec![(1, 2), (2, 1)], paper.to_vec());
    let benches = MzBenchmark::all();
    grid(
        "Figure 6 — NPB3.2-MZ-MPI: % overhead of ORA data collection",
        format!("class: {:?}", scale.npb_class()),
        decomps.iter().map(|(p, t)| p * t).max().unwrap_or(1),
        benches.iter().map(|b| b.name.to_string()).collect(),
        columns(
            "benchmark",
            decomps.iter().map(|(p, t)| format!("{p} x {t} (%)")),
        ),
        |r, c| {
            let m = mz_medians(scale, &benches[r], decomps[c], &MZ_OVERHEAD_MODES)?;
            Ok(pct_cell(m))
        },
        "paper shape: SP-MZ highest at 1 x 8 (~16%, >400k region calls), \
         ~8% at 2 x 4; BT-MZ/LU-MZ lower; overhead tracks per-process call count",
    )
}

/// §V-B: the paper's two worst cases (LU-HP on 4 threads, SP-MZ at
/// 1 process × 4 threads) bare, with empty callbacks and with full
/// measurement.
fn breakdown(scale: Scale) -> Result<String, PaperError> {
    let class = scale.npb_class();
    let rt = OpenMp::with_threads(4);
    let lu_hp = kernel_medians(scale, &rt, &BREAKDOWN_ARMS, &NpbKernel::lu_hp(), class)?;
    let sp_mz = mz_medians(scale, &MzBenchmark::sp_mz(), (1, 4), &MZ_BREAKDOWN_MODES)?;
    let rows = [("LU-HP (4 threads)", lu_hp), ("SP-MZ (1 x 4)", sp_mz)].map(|(name, m)| {
        let b = Breakdown::from_medians(&m);
        let secs = [b.base_secs, b.callbacks_secs, b.full_secs].map(|s| format!("{s:.3}"));
        let split = [b.measurement_fraction(), b.communication_fraction()];
        let mut row = columns(name, secs);
        row.extend(split.map(|f| format!("{:.2}%", f * 100.0)));
        row
    });
    let headers = [
        "benchmark",
        "base (s)",
        "callbacks only (s)",
        "full (s)",
        "measurement/storage",
        "callbacks/comm",
    ];
    Ok(format!(
        "§V-B — overhead attribution: measurement/storage vs callbacks/communication\n\
         class: {class:?}\n\n{}\n\
         paper: LU-HP 81.22% measurement/storage; SP-MZ 99.35% — \"efforts for \
         reducing overheads should focus on optimizing the measurement/storage phases\"\n",
        report::table(&headers, rows)
    ))
}

/// The EPCC suite's own output: absolute per-directive overheads, then
/// the schedbench and arraybench sweeps (one sweep per round, each
/// point's median).
fn epcc_tables(scale: Scale) -> Result<String, PaperError> {
    let cfg = epcc_config(scale);
    let threads = smoke_or(scale, vec![2], vec![1, 2, 4, 8]);
    let mut out = grid(
        "EPCC syncbench — directive overhead (us per instance)",
        format!(
            "outer={} inner={} delay={}",
            cfg.outer_reps, cfg.inner_reps, cfg.delay_len
        ),
        1,
        ALL_DIRECTIVES.map(|d| d.name().to_string()).to_vec(),
        columns("directive", threads.iter().map(|t| format!("{t} thr (us)"))),
        |r, c| {
            let rt = OpenMp::with_threads(threads[c]);
            let m = profiled_medians(scale, &rt, &[None], || {
                epcc::measure(&rt, ALL_DIRECTIVES[r], &cfg).mean
            })?;
            Ok(format!("{:.2}", m[0] * 1e6))
        },
        "",
    )?;

    let (warmup, reps) = scale.rounds();
    let rt = OpenMp::with_threads(2);
    rt.parallel(|_| {});
    let sched_cfg = match scale {
        Scale::Smoke => SchedConfig {
            loop_iters: 128,
            reps: 2,
            delay_len: 16,
        },
        _ => SchedConfig::default(),
    };
    let max_chunk = smoke_or(scale, 4, 64);
    let sweeps = interleave(warmup, reps, 1, |_| {
        Ok::<_, PaperError>(schedbench::sweep(&rt, max_chunk, &sched_cfg))
    })?;
    let rows = sweeps[0][0].iter().enumerate().map(|(i, p)| {
        let name = match p.schedule {
            Schedule::StaticEven => "static".to_string(),
            Schedule::StaticChunk(c) => format!("static,{c}"),
            Schedule::Dynamic(c) => format!("dynamic,{c}"),
            Schedule::Guided(c) => format!("guided,{c}"),
        };
        let overhead = median_of(sweeps[0].iter().map(|s| s[i].overhead_per_iter));
        let raw = median_of(sweeps[0].iter().map(|s| s[i].raw_per_iter));
        vec![
            name,
            format!("{:.4}", overhead * 1e6),
            format!("{:.4}", raw * 1e6),
        ]
    });
    out += &format!(
        "EPCC schedbench — scheduling overhead (us per iteration), 2 threads\n{}\n\
         expected shape: dynamic,1 most expensive (a claim per iteration); \
         overhead falls as chunk size grows; guided between dynamic and static\n",
        report::table(&["schedule", "overhead/iter (us)", "raw/iter (us)"], rows)
    );

    let array_cfg = arraybench::ArrayConfig {
        inner_reps: smoke_or(scale, 8, 32),
    };
    let max_size = smoke_or(scale, 81, 59_049);
    let sweeps = interleave(warmup, reps, 1, |_| {
        Ok::<_, PaperError>(arraybench::sweep(&rt, max_size, &array_cfg))
    })?;
    let rows = sweeps[0][0].iter().enumerate().map(|(i, p)| {
        let overhead = median_of(sweeps[0].iter().map(|s| s[i].overhead_per_region));
        let cells = [p.size.to_string(), format!("{:.3}", overhead * 1e6)];
        columns(p.clause.name(), cells)
    });
    out += &format!(
        "\nEPCC arraybench — data-clause overhead (us per region), 2 threads\n{}\n\
         expected shape: PRIVATE flat (no copy); FIRSTPRIVATE and COPYPRIVATE \
         grow with array size (copy-in / broadcast cost)\n",
        report::table(&["clause", "size", "overhead/region (us)"], rows)
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_maps_to_classes() {
        assert_eq!(Scale::Paper.npb_class(), NpbClass::Bsim);
        assert_eq!(Scale::Quick.npb_class(), NpbClass::W);
        assert_eq!(Scale::Smoke.npb_class(), NpbClass::S);
    }

    #[test]
    fn pct_formatting_zeroes_sub_one() {
        assert_eq!(fmt_pct(0.4), "0");
        assert_eq!(fmt_pct(5.23), "5.2");
        assert_eq!(fmt_pct(16.0), "16.0");
    }

    #[test]
    fn oversubscription_note_triggers_above_core_count() {
        assert!(oversubscription_note(100_000).is_some());
    }

    #[test]
    fn overhead_pct_arithmetic() {
        assert!((overhead_pct(2.0, 2.1) - 5.0).abs() < 1e-9);
        assert_eq!(fmt_pct(overhead_pct(2.0, 2.01)), "0");
        assert_eq!(overhead_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn breakdown_fractions_are_sane() {
        let b = Breakdown::from_medians(&[1.0, 1.02, 1.10]);
        let m = b.measurement_fraction();
        let c = b.communication_fraction();
        assert!((m + c - 1.0).abs() < 1e-9);
        assert!(m > c, "measurement should dominate in this example");
        assert!((b.total_overhead() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn breakdown_handles_zero_overhead() {
        let b = Breakdown::from_medians(&[1.0, 1.0, 1.0]);
        assert_eq!(b.measurement_fraction(), 0.0);
        assert_eq!(b.communication_fraction(), 0.0);
    }

    #[test]
    fn table_mismatches_are_errors() {
        let mut t1 = TABLE_I;
        t1[6].2 += 1; // LU-HP calls
        let e = table1(Scale::Smoke, &t1).unwrap_err();
        assert!(e.contains("LU-HP"), "{e}");
        assert!(
            table1(Scale::Smoke, &TABLE_I[..7]).is_err(),
            "a missing row"
        );

        let mut t2 = TABLE_II;
        t2[2].1[0] -= 1; // SP-MZ at 1 process
        let e = table2(Scale::Smoke, &t2).unwrap_err();
        assert!(e.contains("SP-MZ"), "{e}");
        assert!(
            table2(Scale::Smoke, &TABLE_II[..2]).is_err(),
            "a missing row"
        );
    }
}
