//! `omp_prof` — a psrun-style command-line front end: run a built-in
//! workload under a chosen ORA collector tool and print its report.
//!
//! ```text
//! omp_prof --workload cg --tool profile   --threads 4 --class s
//! omp_prof --workload lu-hp --tool trace  --threads 2
//! omp_prof --workload bt --tool states
//! omp_prof --workload sp --tool selective
//! omp_prof --workload epcc --tool profile
//! ```
//!
//! The `trace` subcommand exposes the `ora-trace` streaming pipeline:
//! record a workload's full event stream to a binary trace file, then
//! query it offline — no re-run needed:
//!
//! ```text
//! omp_prof trace record --workload epcc --threads 2 --out run.oratrace
//! omp_prof trace report --in run.oratrace
//! omp_prof trace report --in run.oratrace --thread 1 --head 20
//! omp_prof trace report --in run.oratrace --region 3 --from-us 100 --to-us 900
//! ```
//!
//! The `bench` subcommand is the `ora-meter` front end: measure every
//! meter workload under the five collector configurations and emit
//! versioned `BENCH_<suite>.json` documents, or gate a new run against a
//! baseline:
//!
//! ```text
//! omp_prof bench run --quick --out-dir results
//! omp_prof bench run --full --suite npb
//! omp_prof bench compare results/baselines/BENCH_epcc.json BENCH_epcc.json --threshold 10
//! ```
//!
//! `bench compare` exits 0 when the gate passes, 1 on a regression, and
//! 2 on unusable input (parse errors, mismatched documents).
//!
//! The `health` and `suite` subcommands are the fault-isolation harness:
//! `health` runs a short diagnostic workload — optionally with injected
//! collector faults — and reports the runtime's `OMP_REQ_HEALTH`
//! counters plus the trace drainer's supervision state; `suite` runs
//! every built-in workload under a streaming tracer and verifies that
//! results stay correct even while the collector is failing:
//!
//! ```text
//! omp_prof health
//! omp_prof health --inject-panic-cb --kill-drainer --policy block
//! omp_prof suite --threads 4 --inject-panic-cb --kill-drainer --policy block
//! ```
//!
//! `health` exits 0 when no faults were recorded and 3 when faults were
//! caught and isolated (the application still completed — that is the
//! point). `suite` exits 0 as long as every workload completes with
//! correct results, faults or not.
//!
//! The `fuzz` subcommand is the oracle-differential scenario fuzzer
//! (`ora-fuzz`): generate seeded region programs, execute each under
//! every collector rung, and diff results, thread states, health
//! counters and trace accounting against a sequential oracle. Failing
//! seeds are minimized and written out as replayable case files:
//!
//! ```text
//! omp_prof fuzz --seeds 200                   # sweep seeds 0..200
//! omp_prof fuzz --seeds 50 --start 1000       # sweep seeds 1000..1050
//! omp_prof fuzz --case tests/fuzz_cases/claimer_tail_small_trip.case
//! omp_prof fuzz --cases tests/fuzz_cases      # replay the curated suite
//! omp_prof fuzz --seeds 500 --out fuzz-out    # persist failing cases
//! omp_prof fuzz --seeds 50 --rungs governed   # sweep one rung only
//! ```
//!
//! `fuzz` exits 0 when every scenario matched the oracle on every rung,
//! 1 when any mismatch was found, and 2 on unusable input.
//!
//! The `serve` and `fleet` subcommands are the multi-process (hybrid
//! MPI+OpenMP) profiling front end (`ora-fleet`): `serve` runs the
//! trace-aggregation daemon standalone; `fleet` spawns N child rank
//! processes each streaming an NPB-MZ rank's trace into an in-process
//! daemon, then reports the merged fleet profile and proves the online
//! merge byte-identical to the offline `merge_ranks` of the ranks' teed
//! trace files:
//!
//! ```text
//! omp_prof serve --endpoint unix:/tmp/fleet.sock --ranks 4
//! omp_prof fleet --ranks 8 --threads 2 --workload lu-mz
//! omp_prof fleet --ranks 4 --kill-rank 2          # crash injection
//! omp_prof fleet --ranks 4 --slow-us 200          # slow-consumer injection
//! ```
//!
//! `fleet` exits 0 when the export matched the offline merge and every
//! surviving lane's drop/ACK accounting reconciled, 1 otherwise.
//! (`fleet-rank` is the hidden per-child entry point `fleet` spawns.)
//!
//! The `paper` subcommand reproduces the paper's tables and figures
//! (see `ora_bench::paper`); every timed cell is the median of
//! interleaved rounds of its arms:
//!
//! ```text
//! omp_prof paper table1 --scale smoke
//! omp_prof paper fig5                         # --scale quick is the default
//! omp_prof paper all --scale paper
//! ```
//!
//! `paper` exits 0 when every experiment ran, 1 when a count check
//! failed (a Table I/II count differing from the paper or from the
//! measured run), and 2 on an unknown experiment or `--scale` value.
//! Every subcommand exits 2 on a malformed flag value.
//!
//! `trace report` also accepts multiple per-rank traces — `--rank FILE`
//! repeated, or `--ranks-dir DIR` for every `*.oratrace` in a directory
//! — and prints the merged `(tick, gtid, seq, rank)` timeline.

use std::sync::Arc;

use collector::{
    report, Profiler, RuntimeHandle, SelectivePolicy, SelectiveProfiler, StateTimer, StreamError,
    StreamingTracer,
};
use omprt::OpenMp;
use ora_core::event::Event;
use ora_trace::{
    DropPolicy, FaultMode, FaultSink, FileSink, MemorySink, TraceConfig, TraceError, TraceEvent,
    TraceReader, TraceSink,
};
use workloads::epcc::{self, EpccConfig};
use workloads::{NpbClass, NpbKernel};

/// The value following flag `name`, if the flag is given.
fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn arg(name: &str, default: &str) -> String {
    flag(name).unwrap_or_else(|| default.to_string())
}

/// Report a malformed flag value and exit 2: a typo must not silently
/// run with the default.
fn bad_flag(name: &str, value: &str, expected: &str) -> ! {
    eprintln!("invalid value '{value}' for {name} — expected {expected}");
    std::process::exit(2);
}

/// `value` of flag `name` parsed as `T` (exit 2 if it does not parse).
fn parse_value<T: std::str::FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| bad_flag(name, value, std::any::type_name::<T>()))
}

/// Flag `name` parsed as `T`, or `default` when the flag is absent.
fn parsed<T: std::str::FromStr>(name: &str, default: T) -> T {
    flag(name).map_or(default, |v| parse_value(name, &v))
}

fn run_workload(rt: &OpenMp, workload: &str, class: NpbClass) {
    match workload {
        "epcc" => {
            let cfg = EpccConfig {
                outer_reps: 2,
                inner_reps: 64,
                delay_len: 64,
            };
            for (d, stat) in epcc::run_all(rt, &cfg) {
                println!(
                    "  epcc {:<12} overhead/instance {:>9.3} us",
                    d.name(),
                    stat.mean * 1e6
                );
            }
        }
        name => {
            let kernel = NpbKernel::all()
                .into_iter()
                .find(|k| k.name.eq_ignore_ascii_case(name))
                .unwrap_or_else(|| {
                    eprintln!("unknown workload '{name}' — use bt|ep|sp|mg|ft|cg|lu-hp|lu|epcc");
                    std::process::exit(2);
                });
            println!(
                "running {} (class {:?}: {} regions, {} region calls)",
                kernel.name,
                class,
                kernel.region_count(),
                kernel.region_calls(class)
            );
            let checksum = kernel.run(rt, class);
            println!("checksum: {checksum:.6}");
            if std::env::args().any(|a| a == "--verify") {
                match kernel.verify(rt.num_threads(), class) {
                    workloads::npb::Verification::Successful { rel_error } => {
                        println!("verification: SUCCESSFUL (rel err {rel_error:.2e})")
                    }
                    workloads::npb::Verification::Failed { expected, got } => {
                        println!("verification: FAILED (expected {expected}, got {got})")
                    }
                    workloads::npb::Verification::NotApplicable => {
                        println!("verification: N/A (partition-dependent kernel)")
                    }
                }
            }
        }
    }
}

/// `trace record`: run a workload with a streaming tracer writing the
/// full event stream to a binary trace file.
fn trace_record() {
    let workload = arg("--workload", "epcc");
    let threads: usize = parsed("--threads", 2);
    let class = npb_class();
    let out = arg("--out", "run.oratrace");
    let policy = drop_policy();
    let config = TraceConfig {
        policy,
        ..TraceConfig::default()
    };

    let rt = OpenMp::with_threads(threads);
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");
    let sink = FileSink::create(&out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        std::process::exit(1);
    });
    let tracer = StreamingTracer::attach(handle, config, sink).expect("attach tracer");
    run_workload(&rt, &workload, class);
    // Workers fire trailing end-of-barrier events asynchronously.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let region_calls = tracer.region_calls();
    let (sink, stats) = tracer.finish().expect("finish trace");
    drop(sink.into_file().expect("flush trace file"));
    let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!("trace written: {out}");
    println!(
        "  region calls {} | records {} | dropped {} | chunks {} | {} bytes ({:.1} B/record)",
        region_calls,
        stats.drained(),
        stats.dropped(),
        stats.chunks,
        size,
        size as f64 / stats.drained().max(1) as f64,
    );
    // Under `--policy block` the contract is losslessness: the producer
    // stalls rather than drops. Drops still being reported means the
    // pipeline was misconfigured (e.g. drainer stopped before the rings
    // emptied) — the trace silently lies, so the exit code must not.
    if policy == DropPolicy::Block && stats.dropped() > 0 {
        eprintln!(
            "error: {} record(s) dropped under --policy block; the trace is incomplete",
            stats.dropped()
        );
        std::process::exit(1);
    }
}

/// `trace analyze`: replay a recorded trace and report detrimental
/// task-parallel patterns (starvation windows, serialized spawn,
/// barrier convoys) with tick-ranged evidence. Accepts a single trace
/// (`--in`), per-rank traces (`--rank`/`--ranks-dir`, merged first),
/// or a fleet timeline export (`--timeline`).
fn trace_analyze() {
    use ora_trace::analyze::{self, AnalyzeConfig};

    let mut cfg = AnalyzeConfig::default();
    cfg.min_tasks = parsed("--min-tasks", cfg.min_tasks);
    cfg.starvation_frac = parsed("--starvation-frac", cfg.starvation_frac);
    cfg.dominance_frac = parsed("--dominance-frac", cfg.dominance_frac);

    let argv: Vec<String> = std::env::args().collect();
    let mut rank_files: Vec<String> = argv
        .windows(2)
        .filter(|w| w[0] == "--rank")
        .map(|w| w[1].clone())
        .collect();
    let ranks_dir = arg("--ranks-dir", "");
    if !ranks_dir.is_empty() {
        let mut paths: Vec<_> = std::fs::read_dir(&ranks_dir)
            .unwrap_or_else(|e| {
                eprintln!("cannot read {ranks_dir}: {e}");
                std::process::exit(1);
            })
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("oratrace"))
            .collect();
        paths.sort();
        rank_files.extend(paths.iter().map(|p| p.display().to_string()));
    }

    let timeline = arg("--timeline", "");
    let report = if !timeline.is_empty() {
        let bytes = std::fs::read(&timeline).unwrap_or_else(|e| {
            eprintln!("cannot read {timeline}: {e}");
            std::process::exit(1);
        });
        let events = analyze::decode_timeline(&bytes).unwrap_or_else(|e| {
            eprintln!("{timeline} is not a fleet timeline export: {e}");
            std::process::exit(1);
        });
        println!(
            "analyzing fleet timeline {timeline} ({} records)",
            events.len()
        );
        analyze::analyze(&events, &cfg)
    } else if !rank_files.is_empty() {
        let readers: Vec<TraceReader> = rank_files
            .iter()
            .map(|f| {
                TraceReader::open(f).unwrap_or_else(|e| {
                    eprintln!("cannot read {f}: {e}");
                    std::process::exit(1);
                })
            })
            .collect();
        let merged = ora_trace::merge_ranks(&readers).unwrap_or_else(|e| {
            eprintln!("merge failed: {e}");
            std::process::exit(1);
        });
        println!(
            "analyzing {} rank trace(s) ({} merged records)",
            rank_files.len(),
            merged.len()
        );
        analyze::analyze(&merged, &cfg)
    } else {
        let input = arg("--in", "run.oratrace");
        let reader = TraceReader::open(&input).unwrap_or_else(|e| {
            eprintln!("cannot read {input}: {e}");
            std::process::exit(1);
        });
        println!("analyzing {input} ({} records)", reader.record_count());
        analyze::analyze_reader(&reader, &cfg).unwrap_or_else(|e| {
            eprintln!("trace is damaged: {e}");
            std::process::exit(1);
        })
    };
    print!("{}", report.render());
    // Findings are an analysis outcome, not an error — but scripts want
    // to gate on them, so surface "patterns found" as exit 4.
    if !report.findings.is_empty() {
        std::process::exit(4);
    }
}

/// `bench run`: the `ora-meter` measurement loop (see `ora_bench::meter`).
fn bench_run() {
    use ora_bench::meter::{runner, RunnerConfig};
    use workloads::meterwork::MeterSuite;

    let has = |name: &str| std::env::args().any(|a| a == name);
    let mut cfg = if has("--full") {
        RunnerConfig::full()
    } else {
        // --quick is the default.
        RunnerConfig::quick()
    };
    cfg.threads = parsed("--threads", cfg.threads);
    cfg.reps = parsed("--reps", cfg.reps);
    let out_dir = arg("--out-dir", ".");
    let suites: Vec<MeterSuite> = match arg("--suite", "all").as_str() {
        "all" => vec![
            MeterSuite::Epcc,
            MeterSuite::Npb,
            MeterSuite::Sync,
            MeterSuite::Dispatch,
            MeterSuite::Tasks,
            MeterSuite::Topo,
        ],
        key => match MeterSuite::from_key(key) {
            Some(s) => vec![s],
            None => {
                eprintln!("unknown suite '{key}' — use epcc|npb|sync|dispatch|tasks|topo|all");
                std::process::exit(2);
            }
        },
    };

    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| {
        eprintln!("cannot create {out_dir}: {e}");
        std::process::exit(2);
    });

    for suite in suites {
        println!(
            "ora-meter: suite {} at scale {} ({} thread(s), {} warmup + {} rep(s))",
            suite.key(),
            cfg.scale.key(),
            cfg.threads,
            cfg.warmup,
            cfg.reps
        );
        let doc = runner::run_suite_with_progress(suite, &cfg, |line| println!("{line}"))
            .unwrap_or_else(|e| {
                eprintln!("meter run failed: {e}");
                std::process::exit(2);
            });
        let path = format!("{out_dir}/BENCH_{}.json", suite.key());
        std::fs::write(&path, doc.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
        if let Some(sc) = &doc.sync_config {
            println!(
                "  sync config: {} barrier, spin budget {}/{} (short/long)",
                sc.barrier, sc.spin_budget_short, sc.spin_budget_long
            );
        }
        for w in &doc.workloads {
            let ratios: Vec<String> = w
                .configs
                .iter()
                .filter(|c| c.config != "absent")
                .map(|c| format!("{} {:.2}x", c.config, c.overhead_ratio))
                .collect();
            println!("  {:<14} overhead: {}", w.name, ratios.join(" | "));
        }
    }
}

/// `paper <experiment>`: reproduce one table or figure, or all of them.
fn paper_run() {
    use ora_bench::paper::{experiment, Scale, EXPERIMENTS};

    let which = std::env::args().nth(2).unwrap_or_default();
    let selected: Vec<_> = if which == "all" {
        EXPERIMENTS.iter().collect()
    } else if let Some(e) = experiment(&which) {
        vec![e]
    } else {
        eprintln!(
            "unknown experiment '{which}' — usage: omp_prof paper <experiment> [--scale {}]",
            Scale::KEYS
        );
        for e in &EXPERIMENTS {
            eprintln!("  {:<10} {}", e.name, e.reproduces);
        }
        eprintln!("  {:<10} every experiment above, in order", "all");
        std::process::exit(2);
    };
    let scale = match flag("--scale") {
        None => Scale::Quick,
        Some(v) => Scale::parse(&v).unwrap_or_else(|| bad_flag("--scale", &v, Scale::KEYS)),
    };

    let mut failed = 0;
    for e in selected {
        match (e.run)(scale) {
            Ok(text) => println!("{text}"),
            Err(err) => {
                eprintln!("paper {}: {err}", e.name);
                failed += 1;
            }
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

/// `bench compare`: gate a new run against a baseline document.
fn bench_compare() {
    use ora_bench::meter::{compare, BenchDoc};

    // Positional args after `bench compare`, skipping flag pairs.
    let argv: Vec<String> = std::env::args().collect();
    let positional: Vec<&String> = argv[3..]
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || !argv[3 + i - 1].starts_with("--")))
        .map(|(_, a)| a)
        .collect();
    let [old_path, new_path] = positional.as_slice() else {
        eprintln!("usage: omp_prof bench compare <old.json> <new.json> [--threshold 10]");
        std::process::exit(2);
    };
    let threshold: f64 = parsed("--threshold", 10.0);

    let load = |path: &str| -> BenchDoc {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        BenchDoc::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    let report = compare::compare(&old, &new, threshold).unwrap_or_else(|e| {
        eprintln!("cannot compare {old_path} vs {new_path}: {e}");
        std::process::exit(2);
    });
    print!("{}", report.render(threshold));
    if !report.passed() {
        std::process::exit(1);
    }
}

/// `trace report --rank a.oratrace --rank b.oratrace` (or
/// `--ranks-dir DIR`): print the merged `(tick, gtid, seq, rank)`
/// timeline across per-rank trace files.
fn trace_report_ranks(files: &[String]) {
    let head: usize = parsed("--head", 30);
    let micros = |ticks: u64| collector::clock::to_micros(ticks);
    let readers: Vec<TraceReader> = files
        .iter()
        .map(|f| {
            TraceReader::open(f).unwrap_or_else(|e| {
                eprintln!("cannot read {f}: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    println!("merged fleet timeline over {} rank trace(s):", files.len());
    for (rank, (file, reader)) in files.iter().zip(&readers).enumerate() {
        println!(
            "  rank {rank}: {file} — {} records, {} dropped",
            reader.record_count(),
            reader.dropped()
        );
    }
    let merged = ora_trace::merge_ranks(&readers).unwrap_or_else(|e| {
        eprintln!("merge failed: {e}");
        std::process::exit(1);
    });
    println!("  merged: {} records\n", merged.len());

    let mut counts: std::collections::BTreeMap<&str, u64> = Default::default();
    for e in &merged {
        *counts.entry(e.record.event.name()).or_insert(0) += 1;
    }
    println!(
        "{}",
        report::table(
            &["event", "count"],
            counts
                .iter()
                .map(|(name, n)| vec![name.to_string(), n.to_string()]),
        )
    );
    println!("first {} records:", head.min(merged.len()));
    for e in merged.iter().take(head) {
        println!(
            "{:>12.3} us  rank {:<2} t{:<3} {:<34} region={} wait={}",
            micros(e.record.tick),
            e.rank,
            e.record.gtid,
            e.record.event.name(),
            e.record.region_id,
            e.record.wait_id
        );
    }
}

/// `trace report`: query a recorded binary trace offline.
fn trace_report() {
    // Multi-rank mode: `--rank FILE` repeated and/or `--ranks-dir DIR`.
    let argv: Vec<String> = std::env::args().collect();
    let mut rank_files: Vec<String> = argv
        .windows(2)
        .filter(|w| w[0] == "--rank")
        .map(|w| w[1].clone())
        .collect();
    let ranks_dir = arg("--ranks-dir", "");
    if !ranks_dir.is_empty() {
        let mut paths: Vec<_> = std::fs::read_dir(&ranks_dir)
            .unwrap_or_else(|e| {
                eprintln!("cannot read {ranks_dir}: {e}");
                std::process::exit(1);
            })
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("oratrace"))
            .collect();
        paths.sort();
        rank_files.extend(paths.iter().map(|p| p.display().to_string()));
    }
    if !rank_files.is_empty() {
        return trace_report_ranks(&rank_files);
    }

    let input = arg("--in", "run.oratrace");
    let head: usize = parsed("--head", 30);
    let reader = TraceReader::open(&input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        std::process::exit(1);
    });

    let micros = |ticks: u64| collector::clock::to_micros(ticks);
    let has = |name: &str| std::env::args().any(|a| a == name);
    let records: Vec<TraceEvent> = if has("--thread") {
        let gtid: usize = parsed("--thread", 0);
        reader.for_thread(gtid)
    } else if has("--region") {
        let region: u64 = parsed("--region", 0);
        reader.for_region(region)
    } else if has("--from-us") || has("--to-us") {
        let lo = (parsed("--from-us", 0.0) * 1e3) as u64;
        let hi = (parsed("--to-us", f64::MAX).min(u64::MAX as f64 * 1e-3) * 1e3) as u64;
        reader.time_range(lo, hi)
    } else {
        reader.records()
    }
    .unwrap_or_else(|e| {
        eprintln!("trace is damaged: {e}");
        std::process::exit(1);
    });

    let footer = reader.footer();
    println!("trace: {input}");
    println!(
        "  persisted {} records in {} chunks | dropped {} | lanes {}",
        reader.record_count(),
        footer.chunks.len(),
        reader.dropped(),
        footer.lanes.len(),
    );
    if reader.dropped() > 0 {
        let lossy = footer.lanes.iter().filter(|l| l.dropped() > 0).count();
        println!("  loss detail: {lossy} lane(s) dropped records (see footer counters)");
    }
    println!("  query matched {} records\n", records.len());

    // Governor decision records (if the trace was captured under the
    // governed rung): the sampling-rate timeline, oldest first.
    let timeline = reader.governor_timeline().unwrap_or_default();
    if !timeline.is_empty() {
        println!(
            "governor sampling-rate timeline ({} decision(s)):",
            timeline.len()
        );
        for s in &timeline {
            println!(
                "{:>12.3} us  {:<34} period 2^{} -> 2^{} (overhead {:.2}% of budget window)",
                micros(s.tick),
                s.event.name(),
                s.old_shift,
                s.new_shift,
                s.overhead_ppm as f64 / 10_000.0
            );
        }
        println!();
    }

    print_records(&records, head);
}

/// Print the per-event count table, then the first `head` records.
fn print_records(records: &[TraceEvent], head: usize) {
    let mut counts: std::collections::BTreeMap<&str, u64> = Default::default();
    for r in records {
        *counts.entry(r.event.name()).or_insert(0) += 1;
    }
    println!(
        "{}",
        report::table(
            &["event", "count"],
            counts
                .iter()
                .map(|(name, n)| vec![name.to_string(), n.to_string()]),
        )
    );
    println!("first {} records:", head.min(records.len()));
    for r in records.iter().take(head) {
        println!(
            "{:>12.3} us  t{:<3} {:<34} region={} wait={}",
            collector::clock::to_micros(r.tick),
            r.gtid,
            r.event.name(),
            r.region_id,
            r.wait_id
        );
    }
}

/// Silence the default panic hook for *injected* faults only, so fault
/// harness runs don't spew backtraces for panics that are the test.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
        if msg.is_some_and(|m| m.contains("injected")) {
            return;
        }
        prev(info);
    }));
}

/// `--policy` (default `newest`).
fn drop_policy() -> DropPolicy {
    match flag("--policy").as_deref() {
        None | Some("newest") => DropPolicy::Newest,
        Some("oldest") => DropPolicy::Oldest,
        Some("block") => DropPolicy::Block,
        Some(v) => bad_flag("--policy", v, "newest|oldest|block"),
    }
}

/// Shared fault-harness setup: attach a streaming tracer (with a
/// drainer-killing sink when requested) and optionally register a
/// permanently-panicking callback over the tracer's barrier slot.
fn attach_fault_harness(
    rt: &OpenMp,
    policy: DropPolicy,
    inject_panic_cb: bool,
    kill_drainer: bool,
) -> (RuntimeHandle, StreamingTracer<Box<dyn TraceSink>>) {
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");
    let sink: Box<dyn TraceSink> = if kill_drainer {
        // Budget covers exactly the 8-byte header `Recorder::start`
        // writes on the caller thread; the drainer's first chunk flush
        // then panics, killing it mid-recording.
        Box::new(FaultSink::new(8, FaultMode::Panic))
    } else {
        Box::new(MemorySink::new())
    };
    let config = TraceConfig {
        policy,
        ..TraceConfig::default()
    };
    let tracer = StreamingTracer::attach(handle.clone(), config, sink).expect("attach tracer");
    if inject_panic_cb {
        // Replaces the tracer's callback in the single per-event slot —
        // every implicit-barrier begin now panics until quarantined.
        handle
            .register(
                Event::ThreadBeginImplicitBarrier,
                Arc::new(|_| panic!("injected callback panic")),
            )
            .expect("inject panicking callback");
    }
    (handle, tracer)
}

/// `health`: run a short diagnostic workload (with optional injected
/// collector faults) and report the runtime's fault-isolation counters.
fn health() {
    let has = |name: &str| std::env::args().any(|a| a == name);
    let workload = arg("--workload", "epcc");
    let threads: usize = parsed("--threads", 2);
    let class = npb_class();
    let inject = has("--inject-panic-cb");
    let kill = has("--kill-drainer");
    let policy = drop_policy();
    if inject || kill {
        quiet_injected_panics();
    }

    let rt = OpenMp::with_threads(threads);
    rt.set_quarantine_threshold(parsed("--quarantine", 3));
    let (handle, tracer) = attach_fault_harness(&rt, policy, inject, kill);
    run_workload(&rt, &workload, class);
    // Workers fire trailing end-of-barrier events asynchronously.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let drainer = tracer.health();
    let finish = tracer.finish();
    let api = handle.query_health().expect("OMP_REQ_HEALTH");

    println!("\n=== runtime health (OMP_REQ_HEALTH) ===");
    println!(
        "{}",
        report::table(
            &["counter", "value"],
            [
                ("callback panics caught", api.callback_panics),
                ("callbacks quarantined", api.callbacks_quarantined),
                ("out-of-sequence requests", api.sequence_errors),
                ("requests served", api.requests),
                ("events sampled (governor)", api.events_sampled),
                ("events skipped (governor)", api.events_skipped),
                ("tasks stolen (scheduler)", api.tasks_stolen),
                ("task deque overflows", api.task_overflows),
                ("taskwait parks", api.taskwait_parks),
            ]
            .iter()
            .map(|(k, v)| vec![k.to_string(), v.to_string()]),
        )
    );

    println!("=== trace drainer ===");
    println!(
        "  alive {} | degraded {} | heartbeats {} | drained {}",
        drainer.alive, drainer.degraded, drainer.heartbeats, drainer.drained
    );
    if let Some(err) = &drainer.error {
        println!("  failure: {err}");
    }
    match finish {
        Ok((_sink, stats)) => println!(
            "  finish: clean ({} records drained, {} dropped)",
            stats.drained(),
            stats.dropped()
        ),
        Err(StreamError::Trace(TraceError::DrainerFailed {
            reason,
            drained,
            dropped,
        })) => {
            println!("  finish: DEGRADED — {reason} ({drained} records drained, {dropped} dropped)")
        }
        Err(e) => {
            eprintln!("  finish failed unexpectedly: {e}");
            std::process::exit(1);
        }
    }

    let faulted = api.faulted() || drainer.degraded;
    println!(
        "\nverdict: {}",
        if faulted {
            "FAULTED — collector faults were caught and isolated; the application completed"
        } else {
            "HEALTHY"
        }
    );
    std::process::exit(if faulted { 3 } else { 0 });
}

/// `suite`: every built-in workload under a streaming tracer, verifying
/// that application results stay correct even with injected collector
/// faults. Exit 0 iff every workload completes with correct results.
fn suite_run() {
    let has = |name: &str| std::env::args().any(|a| a == name);
    let threads: usize = parsed("--threads", 2);
    let class = npb_class();
    let quarantine: u64 = parsed("--quarantine", 3);
    let inject = has("--inject-panic-cb");
    let kill = has("--kill-drainer");
    let policy = drop_policy();
    if inject || kill {
        quiet_injected_panics();
    }
    println!(
        "fault-isolation suite: {} thread(s), policy {:?}, inject-panic-cb {}, kill-drainer {}",
        threads, policy, inject, kill
    );

    let mut rows = Vec::new();
    let mut all_ok = true;
    let workloads: Vec<String> = std::iter::once("epcc".to_string())
        .chain(NpbKernel::all().into_iter().map(|k| k.name.to_string()))
        .collect();
    for name in &workloads {
        let rt = OpenMp::with_threads(threads);
        rt.set_quarantine_threshold(quarantine);
        let (handle, tracer) = attach_fault_harness(&rt, policy, inject, kill);

        let result = if name == "epcc" {
            let cfg = EpccConfig {
                outer_reps: 2,
                inner_reps: 64,
                delay_len: 64,
            };
            let directives = epcc::run_all(&rt, &cfg).len();
            format!("ok ({directives} directives)")
        } else {
            let kernel = NpbKernel::all()
                .into_iter()
                .find(|k| k.name == name)
                .expect("known kernel");
            kernel.run(&rt, class);
            match kernel.verify(rt.num_threads(), class) {
                workloads::npb::Verification::Successful { .. } => "ok (verified)".to_string(),
                workloads::npb::Verification::NotApplicable => "ok".to_string(),
                workloads::npb::Verification::Failed { expected, got } => {
                    all_ok = false;
                    format!("FAILED (expected {expected}, got {got})")
                }
            }
        };
        std::thread::sleep(std::time::Duration::from_millis(50));

        let degraded = tracer.is_degraded();
        let (drained, dropped) = match tracer.finish() {
            Ok((_sink, stats)) => (stats.drained(), stats.dropped()),
            Err(StreamError::Trace(TraceError::DrainerFailed {
                drained, dropped, ..
            })) => (drained, dropped),
            Err(e) => {
                eprintln!("{name}: trace finish failed unexpectedly: {e}");
                all_ok = false;
                (0, 0)
            }
        };
        let api = handle.query_health().expect("OMP_REQ_HEALTH");
        rows.push(vec![
            name.clone(),
            result,
            drained.to_string(),
            dropped.to_string(),
            degraded.to_string(),
            api.callback_panics.to_string(),
            api.callbacks_quarantined.to_string(),
        ]);
    }

    println!(
        "\n{}",
        report::table(
            &[
                "workload",
                "result",
                "drained",
                "dropped",
                "degraded",
                "cb panics",
                "quarantined",
            ],
            rows.into_iter(),
        )
    );
    if all_ok {
        println!(
            "all {} workloads completed with correct results",
            workloads.len()
        );
    } else {
        eprintln!("FAILURE: at least one workload produced wrong results");
        std::process::exit(1);
    }
}

/// `omp_prof fuzz` — drive the oracle-differential fuzzer. Three input
/// modes, combinable: `--seeds N` (generate seeds `start..start+N`),
/// `--case FILE` (replay one case file), `--cases DIR` (replay every
/// `*.case` in a directory). `--rungs KEYS` restricts the sweep to a
/// comma-separated rung subset (default `all`) — e.g.
/// `--rungs governed` for a nightly governor soak. With `--out DIR`,
/// each failing scenario is written as `<name>.case` alongside a
/// greedily minimized `<name>.min.case` for triage.
fn fuzz_run() {
    use collector::modes::CollectionConfig;
    use ora_fuzz::{check_scenario_rungs, fails_with_retries_on, minimize, Scenario};

    let seeds: u64 = parsed("--seeds", 0);
    let start: u64 = parsed("--start", 0);
    let case = arg("--case", "");
    let cases_dir = arg("--cases", "");
    let out_dir = arg("--out", "");
    let rungs_arg = arg("--rungs", "all");
    let rungs: Vec<CollectionConfig> = if rungs_arg == "all" {
        CollectionConfig::ALL.to_vec()
    } else {
        rungs_arg
            .split(',')
            .map(|k| {
                CollectionConfig::from_key(k.trim()).unwrap_or_else(|| {
                    eprintln!(
                        "unknown rung '{}' — use absent|paused|state|trace|governed (or all)",
                        k.trim()
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    };
    if seeds == 0 && case.is_empty() && cases_dir.is_empty() {
        eprintln!("nothing to do — pass --seeds N, --case FILE, or --cases DIR");
        std::process::exit(2);
    }

    // Assemble the work list: (name, scenario).
    let mut work: Vec<(String, Scenario)> = Vec::new();
    let mut load = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
        let scenario = Scenario::parse(&text).unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(2);
        });
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("case")
            .to_string();
        work.push((name, scenario));
    };
    if !case.is_empty() {
        load(std::path::Path::new(&case));
    }
    if !cases_dir.is_empty() {
        let mut paths: Vec<_> = std::fs::read_dir(&cases_dir)
            .unwrap_or_else(|e| {
                eprintln!("cannot read {cases_dir}: {e}");
                std::process::exit(2);
            })
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("case"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            eprintln!("{cases_dir} contains no .case files");
            std::process::exit(2);
        }
        for p in &paths {
            load(p);
        }
    }
    for seed in start..start + seeds {
        work.push((format!("seed_{seed}"), ora_fuzz::generate(seed)));
    }

    let mut failures = 0usize;
    let total = work.len();
    for (i, (name, scenario)) in work.iter().enumerate() {
        let mismatches = check_scenario_rungs(scenario, &rungs);
        if mismatches.is_empty() {
            println!("[{:>4}/{total}] {name}: ok", i + 1);
            continue;
        }
        failures += 1;
        println!(
            "[{:>4}/{total}] {name}: FAILED ({} mismatch(es))",
            i + 1,
            mismatches.len()
        );
        for m in &mismatches {
            println!("    {m}");
        }
        if !out_dir.is_empty() {
            std::fs::create_dir_all(&out_dir).expect("create --out dir");
            let path = std::path::Path::new(&out_dir).join(format!("{name}.case"));
            std::fs::write(&path, scenario.to_case_file()).expect("write case");
            println!("    wrote {}", path.display());
            let min = minimize(scenario, |s| fails_with_retries_on(s, &rungs, 3));
            let min_path = std::path::Path::new(&out_dir).join(format!("{name}.min.case"));
            std::fs::write(&min_path, min.to_case_file()).expect("write minimized case");
            println!("    wrote {} (minimized)", min_path.display());
        }
    }

    if failures == 0 {
        let swept: Vec<&str> = rungs.iter().map(|r| r.key()).collect();
        println!(
            "fuzz: all {total} scenario(s) matched the oracle on rung(s): {}",
            swept.join(", ")
        );
    } else {
        eprintln!("fuzz: {failures}/{total} scenario(s) FAILED");
        std::process::exit(1);
    }
}

/// Render a fleet daemon's per-lane accounting and merged store.
fn render_fleet_report(rep: &ora_fleet::FleetReport) {
    println!("\n=== fleet lanes ===");
    println!(
        "{}",
        report::table(
            &[
                "rank",
                "records",
                "epochs",
                "ring drops",
                "reconciled",
                "status"
            ],
            rep.lanes.iter().map(|l| {
                let status = if let Some(why) = &l.quarantined {
                    format!("DEGRADED — {why}")
                } else if l.finished {
                    "ok (FIN)".to_string()
                } else {
                    "no FIN".to_string()
                };
                vec![
                    l.rank.to_string(),
                    l.records.to_string(),
                    l.epochs.to_string(),
                    l.footer.map_or("-".to_string(), |(_, d)| d.to_string()),
                    l.reconciled().to_string(),
                    status,
                ]
            }),
        )
    );
    for why in &rep.rejected {
        println!("  rejected connection: {why}");
    }
    println!(
        "merged store: {} records | {} settled late (below watermark)",
        rep.store.len(),
        rep.store.late_events()
    );
    let mut counts: std::collections::BTreeMap<&str, u64> = Default::default();
    for e in rep.store.records() {
        *counts.entry(e.record.event.name()).or_insert(0) += 1;
    }
    println!(
        "{}",
        report::table(
            &["event", "count"],
            counts
                .iter()
                .map(|(name, n)| vec![name.to_string(), n.to_string()]),
        )
    );
}

/// `serve`: run the trace-aggregation daemon standalone until the given
/// number of ranks have come and gone, then report.
fn fleet_serve() {
    let endpoint = ora_fleet::Endpoint::parse(&arg("--endpoint", "fleet.sock"));
    let ranks: u64 = parsed("--ranks", 1);
    let slow = std::time::Duration::from_micros(parsed("--slow-us", 0));
    println!("ora-fleet daemon on {endpoint}, serving {ranks} rank(s)");
    match ora_bench::fleet_driver::serve(&endpoint, ranks, slow) {
        Ok(report) => {
            render_fleet_report(&report);
            std::process::exit(if report.reconciled() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}

/// `fleet`: spawn N child rank processes streaming an NPB-MZ workload
/// into an in-process daemon; report the merged fleet profile and
/// verify the online merge against the offline one.
fn fleet_run() {
    use ora_bench::fleet_driver::{run_fleet, FleetConfig};
    let ranks: usize = parsed("--ranks", 2);
    let default_dir = std::env::temp_dir()
        .join(format!("ora_fleet_{}", std::process::id()))
        .display()
        .to_string();
    let endpoint = arg("--endpoint", "");
    let cfg = FleetConfig {
        ranks,
        threads: parsed("--threads", 2),
        workload: arg("--workload", "lu-mz"),
        class: npb_class(),
        endpoint: (!endpoint.is_empty()).then_some(endpoint),
        out_dir: arg("--out-dir", &default_dir).into(),
        kill_rank: flag("--kill-rank").map(|v| parse_value("--kill-rank", &v)),
        slow: std::time::Duration::from_micros(parsed("--slow-us", 0)),
        window: parsed("--window", 8),
    };
    println!(
        "fleet: {} × {} ({} rank processes × {} threads), class {:?}, traces in {}",
        cfg.workload,
        cfg.ranks,
        cfg.ranks,
        cfg.threads,
        cfg.class,
        cfg.out_dir.display()
    );
    if let Some(k) = cfg.kill_rank {
        println!("  crash injection: rank {k} dies mid-stream");
    }
    if !cfg.slow.is_zero() {
        println!("  slow-consumer injection: {:?} per chunk ACK", cfg.slow);
    }
    match run_fleet(&cfg) {
        Ok((report, identical)) => {
            render_fleet_report(&report);
            println!(
                "export byte-identical to offline merge_ranks: {}",
                if identical { "yes" } else { "NO" }
            );
            // Every surviving lane must FIN cleanly with reconciled
            // accounting; a killed lane must be degraded, not finished.
            let survivors_ok = report
                .lanes
                .iter()
                .filter(|l| cfg.kill_rank != Some(l.rank as usize))
                .all(|l| l.finished && l.quarantined.is_none() && l.reconciled());
            let killed_ok = cfg
                .kill_rank
                .is_none_or(|k| report.lane(k as u64).is_none_or(|l| !l.finished));
            if survivors_ok && killed_ok && identical {
                println!("fleet: ok");
            } else {
                eprintln!(
                    "fleet: FAILED (survivors ok: {survivors_ok}, killed lane degraded: {killed_ok}, export identical: {identical})"
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fleet: {e}");
            std::process::exit(1);
        }
    }
}

/// Hidden per-child entry point `fleet` spawns: stream one rank.
fn fleet_rank_child() {
    let rank: usize = parsed("--rank", 0);
    let endpoint = ora_fleet::Endpoint::parse(&arg("--endpoint", "fleet.sock"));
    let trace_out = arg("--trace-out", "rank.oratrace");
    let die_early = std::env::args().any(|a| a == "--die-early");
    if let Err(e) = ora_bench::fleet_driver::run_rank_child(
        &endpoint,
        rank,
        parsed("--ranks", 1),
        parsed("--threads", 2),
        &arg("--workload", "lu-mz"),
        npb_class(),
        std::path::Path::new(&trace_out),
        parsed("--window", 8),
        die_early,
    ) {
        eprintln!("fleet-rank {rank}: {e}");
        std::process::exit(1);
    }
}

/// `--class` (default `s`).
fn npb_class() -> NpbClass {
    match flag("--class").as_deref() {
        None | Some("s" | "S") => NpbClass::S,
        Some("w" | "W") => NpbClass::W,
        Some("b" | "B") => NpbClass::Bsim,
        Some(v) => bad_flag("--class", v, "s|w|b"),
    }
}

fn main() {
    // Subcommand style: `omp_prof trace record ...` / `omp_prof bench run ...`
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("trace") {
        match argv.get(2).map(String::as_str) {
            Some("record") => return trace_record(),
            Some("report") => return trace_report(),
            Some("analyze") => return trace_analyze(),
            other => {
                eprintln!(
                    "unknown trace subcommand {other:?} — use `trace record`, `trace report`, or `trace analyze`"
                );
                std::process::exit(2);
            }
        }
    }
    if argv.get(1).map(String::as_str) == Some("health") {
        return health();
    }
    if argv.get(1).map(String::as_str) == Some("suite") {
        return suite_run();
    }
    if argv.get(1).map(String::as_str) == Some("fuzz") {
        return fuzz_run();
    }
    if argv.get(1).map(String::as_str) == Some("serve") {
        return fleet_serve();
    }
    if argv.get(1).map(String::as_str) == Some("fleet") {
        return fleet_run();
    }
    if argv.get(1).map(String::as_str) == Some("fleet-rank") {
        return fleet_rank_child();
    }
    if argv.get(1).map(String::as_str) == Some("paper") {
        return paper_run();
    }
    if argv.get(1).map(String::as_str) == Some("bench") {
        match argv.get(2).map(String::as_str) {
            Some("run") => return bench_run(),
            Some("compare") => return bench_compare(),
            other => {
                eprintln!(
                    "unknown bench subcommand {other:?} — use `bench run` or `bench compare`"
                );
                std::process::exit(2);
            }
        }
    }

    let workload = arg("--workload", "cg");
    let tool = arg("--tool", "profile");
    let threads: usize = parsed("--threads", 2);
    let class = npb_class();

    let rt = OpenMp::with_threads(threads);
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");

    match tool.as_str() {
        "profile" => {
            let p = Profiler::attach_default(handle).unwrap();
            run_workload(&rt, &workload, class);
            let profile = p.finish();
            println!("\n{}", profile.render());
        }
        "trace" => {
            let config = TraceConfig::with_total_capacity(1_000_000);
            let t = StreamingTracer::attach(handle, config, MemorySink::new()).unwrap();
            run_workload(&rt, &workload, class);
            std::thread::sleep(std::time::Duration::from_millis(100));
            let (sink, _) = t.finish().expect("memory sink cannot fail");
            let trace = TraceReader::from_bytes(sink.into_bytes()).expect("self-encoded trace");
            let records = trace.records().expect("self-encoded trace decodes");
            println!();
            print_records(&records, 30);
            if std::env::args().any(|a| a == "--csv") {
                println!("tick,gtid,event,region_id,wait_id");
                for r in &records {
                    println!(
                        "{},{},{},{},{}",
                        r.tick, r.gtid, r.event as u32, r.region_id, r.wait_id
                    );
                }
            }
        }
        "states" => {
            let t = StateTimer::attach(handle).unwrap();
            run_workload(&rt, &workload, class);
            std::thread::sleep(std::time::Duration::from_millis(100));
            let profile = t.finish();
            println!("\n{}", profile.render());
        }
        "suite" => {
            let t =
                collector::ToolSuite::attach(handle, collector::SuiteConfig::default()).unwrap();
            run_workload(&rt, &workload, class);
            std::thread::sleep(std::time::Duration::from_millis(100));
            println!("\n{}", t.finish().render());
        }
        "selective" => {
            let p = SelectiveProfiler::attach(handle, SelectivePolicy::default()).unwrap();
            run_workload(&rt, &workload, class);
            let r = p.finish();
            println!(
                "\njoins {} | sampled {} | skipped small {} | deduped {} | savings {:.1}%",
                r.joins,
                r.sampled,
                r.skipped_small,
                r.skipped_dedup,
                r.savings() * 100.0
            );
            println!("\ncall tree:\n{}", r.call_tree.render());
        }
        other => {
            eprintln!("unknown tool '{other}' — use profile|trace|states|selective|suite");
            std::process::exit(2);
        }
    }
}
