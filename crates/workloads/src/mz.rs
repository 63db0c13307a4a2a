//! Synthetic NPB3.2-MZ-MPI hybrids (BT-MZ, LU-MZ, SP-MZ).
//!
//! The multi-zone benchmarks decompose the mesh into zones distributed
//! over MPI processes; within each process, OpenMP parallelizes each
//! zone's solve. We substitute MPI with `ProcSim`: each rank is an OS
//! thread owning its *own* OpenMP runtime instance, with boundary exchange
//! over channels. Zone-steps are distributed over ranks as evenly as
//! possible, so the per-process parallel-region call counts reproduce the
//! paper's Table II exactly, including its halving pattern:
//!
//! | Benchmark | 1×8     | 2×4     | 4×2     | 8×1    |
//! |-----------|---------|---------|---------|--------|
//! | BT-MZ     | 167 616 | 83 808  | 41 904  | 20 952 |
//! | LU-MZ     | 40 353  | 20 177  | 10 089  | 5 045  |
//! | SP-MZ     | 436 672 | 218 336 | 109 168 | 54 584 |
//!
//! (LU-MZ's totals are not divisible by the process counts; the table's
//! values are the *maximum* per rank, i.e. ceiling division — which an
//! even zone-step distribution produces naturally.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use collector::{clock, Profiler, RuntimeHandle};
use omprt::{OpenMp, ParCtx, RegionHandle, SourceFunction};

use crate::npb::NpbClass;
use crate::util::SharedVec;

/// A multi-zone benchmark definition.
#[derive(Debug, Clone)]
pub struct MzBenchmark {
    /// Benchmark name as in Table II.
    pub name: &'static str,
    /// Total parallel-region calls across all ranks at class B-sim (the
    /// 1-process column of Table II).
    pub total_calls_b: u64,
    /// Zones in the decomposition.
    pub zones: usize,
    region: RegionHandle,
    /// When true, each zone step drains a master-spawned tied-task
    /// flood instead of a worksharing loop — a deliberately detrimental
    /// shape (serialized spawn + starved teammates) for exercising
    /// `trace analyze` end-to-end on fleet traces.
    serialized_tasks: bool,
}

/// Whether ranks attach collectors during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectMode {
    /// No collection — the baseline.
    Off,
    /// Each rank attaches the full profiler to its own runtime.
    Profile,
    /// Each rank attaches callbacks that record nothing (the §V-B
    /// communication-only component).
    CallbacksOnly,
}

/// Result of a single rank's standalone zone-step run.
#[derive(Debug, Clone, Copy)]
pub struct MzRankResult {
    /// Zone-step region calls this rank executed.
    pub calls: u64,
    /// Serial sum of the rank's solution array (dead-code guard).
    pub checksum: f64,
}

/// Result of one multi-zone run.
#[derive(Debug)]
pub struct MzRunResult {
    /// Wall-clock seconds for the whole P×T run.
    pub wall_secs: f64,
    /// Region calls each rank made (decreasing by at most 1 across ranks).
    pub per_rank_calls: Vec<u64>,
    /// Total join samples collected (0 when collection is off).
    pub join_samples: u64,
    /// Sum of all ranks' boundary-exchange token (guards against dead
    /// code elimination and checks the ring actually circulated).
    pub exchange_checksum: f64,
}

fn mz_region(name: &str) -> RegionHandle {
    let func = SourceFunction::new(format!("{}_zone_solver", name), "mz.rs", 1);
    func.region("zone_step", 20)
}

/// Tied tasks the master floods per serialized zone step. Comfortably
/// above `AnalyzeConfig::min_tasks` (16) so the planted pattern clears
/// the analyzer's evidence floor.
const SERIALIZED_SPAWNS: usize = 24;

/// One zone step's worth of relaxation on `u`, in one of two shapes:
/// the honest worksharing loop, or the planted detrimental one where
/// the master serializes everything through tied tasks while the rest
/// of the team waits (spawns happen before the barrier, so teammates'
/// `taskwait` windows span the whole flood).
fn zone_step(ctx: &ParCtx<'_>, u: &SharedVec, hi: i64, boundary: f64, serialized: bool) {
    if serialized {
        if ctx.thread_num() == 0 {
            for t in 0..SERIALIZED_SPAWNS {
                let i = t % (hi as usize + 1);
                // SAFETY: tied tasks drain inside this region (at the
                // taskwait below), while `u` and `boundary` are live;
                // each task touches its own index, so the writes race
                // with nothing.
                unsafe {
                    ctx.task_borrowed(move || {
                        u.set(i, 0.75 * u.get(i) + 0.25 * (i as f64 * 1e-3 + boundary));
                    });
                }
            }
        }
        ctx.barrier();
        ctx.taskwait();
    } else {
        ctx.for_each(0, hi, |i| unsafe {
            let i = i as usize;
            u.set(i, 0.75 * u.get(i) + 0.25 * (i as f64 * 1e-3 + boundary));
        });
    }
}

impl MzBenchmark {
    /// BT-MZ: 167 616 total zone-step region calls, 64 zones.
    pub fn bt_mz() -> MzBenchmark {
        MzBenchmark {
            name: "BT-MZ",
            total_calls_b: 167_616,
            zones: 64,
            region: mz_region("bt_mz"),
            serialized_tasks: false,
        }
    }

    /// LU-MZ: 40 353 total zone-step region calls, 16 zones.
    pub fn lu_mz() -> MzBenchmark {
        MzBenchmark {
            name: "LU-MZ",
            total_calls_b: 40_353,
            zones: 16,
            region: mz_region("lu_mz"),
            serialized_tasks: false,
        }
    }

    /// SP-MZ: 436 672 total zone-step region calls, 64 zones.
    pub fn sp_mz() -> MzBenchmark {
        MzBenchmark {
            name: "SP-MZ",
            total_calls_b: 436_672,
            zones: 64,
            region: mz_region("sp_mz"),
            serialized_tasks: false,
        }
    }

    /// TASKS-MZ: a deliberately detrimental variant where the master
    /// serializes every zone step through a tied-task flood while the
    /// rest of the team sits in taskwait. Not part of Table II — it
    /// exists so `fleet` runs produce traces in which `trace analyze`
    /// must flag serialized-spawn and starvation patterns.
    pub fn tasks_mz() -> MzBenchmark {
        MzBenchmark {
            name: "TASKS-MZ",
            total_calls_b: 4_000,
            zones: 16,
            region: mz_region("tasks_mz"),
            serialized_tasks: true,
        }
    }

    /// The three hybrids, in Table II order.
    pub fn all() -> Vec<MzBenchmark> {
        vec![Self::bt_mz(), Self::lu_mz(), Self::sp_mz()]
    }

    /// Zone-step calls per rank at `class`: even distribution with the
    /// remainder going to the lowest ranks.
    pub fn per_rank_calls(&self, procs: usize, class: NpbClass) -> Vec<u64> {
        let total = match class {
            NpbClass::Bsim => self.total_calls_b,
            NpbClass::W => self.total_calls_b / 20,
            NpbClass::S => self.total_calls_b / 200,
        };
        let procs = procs.max(1) as u64;
        let base = total / procs;
        let extra = total % procs;
        (0..procs).map(|r| base + u64::from(r < extra)).collect()
    }

    /// The Table II entry for `procs` processes: the maximum per-rank call
    /// count at class B-sim.
    pub fn table2_calls(&self, procs: usize) -> u64 {
        *self
            .per_rank_calls(procs, NpbClass::Bsim)
            .iter()
            .max()
            .unwrap()
    }

    /// Run exactly one rank's share of the zone-step calls on `rt`,
    /// standalone — no boundary-exchange ring. This is the per-process
    /// entry point for multi-process (fleet) runs, where each rank is a
    /// separate OS process and its caller owns the runtime so a
    /// collector can be attached before the solve starts. The boundary
    /// term stays fixed at the rank index; region-call counts still
    /// reproduce Table II's per-rank column exactly.
    pub fn run_rank(
        &self,
        rt: &OpenMp,
        rank: usize,
        procs: usize,
        class: NpbClass,
    ) -> MzRankResult {
        let rank_calls = self
            .per_rank_calls(procs, class)
            .get(rank)
            .copied()
            .unwrap_or(0);
        let n = class.array_len().max(32);
        let u = SharedVec::zeros(n);
        let hi = n as i64 - 1;
        let boundary = rank as f64;
        for _ in 0..rank_calls {
            rt.parallel_region(&self.region, |ctx| {
                zone_step(ctx, &u, hi, boundary, self.serialized_tasks);
            });
        }
        MzRankResult {
            calls: rank_calls,
            checksum: u.sum(),
        }
    }

    /// Run the benchmark with `procs` simulated ranks × `threads` OpenMP
    /// threads each.
    pub fn run(
        &self,
        procs: usize,
        threads: usize,
        class: NpbClass,
        collect: CollectMode,
    ) -> MzRunResult {
        let calls = self.per_rank_calls(procs, class);
        // Zone solves carry enough work per region call that collection
        // overhead lands in the paper's range rather than being dominated
        // by fork/join cost.
        let n = class.array_len();
        // Boundary-exchange rounds must be IDENTICAL across ranks or the
        // ring deadlocks: with uneven per-rank call counts, deriving the
        // exchange cadence from each rank's own count can give one rank an
        // extra round whose recv() never completes. Fix the round count
        // globally and let each rank space its rounds over its own calls.
        let min_calls = calls.iter().copied().min().unwrap_or(0);
        let rounds = (self.zones as u64).min(min_calls);

        // Boundary-exchange ring: rank r sends to (r+1) % P.
        let mut senders = Vec::with_capacity(procs);
        let mut receivers = Vec::with_capacity(procs);
        for _ in 0..procs {
            let (tx, rx) = std::sync::mpsc::channel::<f64>();
            senders.push(tx);
            receivers.push(Some(rx));
        }

        let join_samples = Arc::new(AtomicU64::new(0));
        let exchange = Arc::new(AtomicU64::new(0f64.to_bits()));
        let region = self.region.clone();
        let serialized = self.serialized_tasks;

        let (_, wall_ticks) = clock::time(|| {
            std::thread::scope(|scope| {
                for (rank, &rank_calls) in calls.iter().enumerate() {
                    let to_next = senders[(rank + 1) % procs].clone();
                    let from_prev = receivers[rank].take().expect("rx taken once");
                    let join_samples = join_samples.clone();
                    let exchange = exchange.clone();
                    let region = region.clone();
                    scope.spawn(move || {
                        let rt = OpenMp::with_threads(threads);
                        let profiler = match collect {
                            CollectMode::Off => None,
                            CollectMode::Profile => {
                                let h = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
                                Some(Profiler::attach_default(h).unwrap())
                            }
                            CollectMode::CallbacksOnly => {
                                let h = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
                                Some(
                                    Profiler::attach(
                                        h,
                                        collector::ProfilerConfig {
                                            mode: collector::Mode::CallbacksOnly,
                                            ..Default::default()
                                        },
                                    )
                                    .unwrap(),
                                )
                            }
                        };

                        let u = SharedVec::zeros(n.max(32));
                        let hi = n.max(32) as i64 - 1;
                        let mut boundary = rank as f64;
                        let mut done_rounds = 0u64;

                        for call in 0..rank_calls {
                            rt.parallel_region(&region, |ctx| {
                                zone_step(ctx, &u, hi, boundary, serialized);
                            });
                            // MPI_Sendrecv stand-in around the ring: every
                            // rank performs exactly `rounds` exchanges,
                            // spaced evenly over its own call count, so the
                            // ring cannot deadlock on uneven splits.
                            while procs > 1
                                && done_rounds < rounds
                                && (call + 1) * rounds >= (done_rounds + 1) * rank_calls
                            {
                                let _ = to_next.send(boundary + 1.0);
                                if let Ok(v) = from_prev.recv() {
                                    boundary = 0.5 * (boundary + v);
                                }
                                done_rounds += 1;
                            }
                        }
                        // A rank with zero calls still owes its rounds.
                        while procs > 1 && done_rounds < rounds {
                            let _ = to_next.send(boundary + 1.0);
                            if let Ok(v) = from_prev.recv() {
                                boundary = 0.5 * (boundary + v);
                            }
                            done_rounds += 1;
                        }
                        // Drain stragglers (unbounded channels never block,
                        // but be tidy).
                        while from_prev.try_recv().is_ok() {}

                        let cur = f64::from_bits(exchange.load(Ordering::Relaxed));
                        exchange.store((cur + boundary).to_bits(), Ordering::Relaxed);
                        if let Some(p) = profiler {
                            let profile = p.finish();
                            join_samples.fetch_add(profile.join_samples, Ordering::Relaxed);
                        }
                    });
                }
            });
        });

        MzRunResult {
            wall_secs: clock::to_secs(wall_ticks),
            per_rank_calls: calls,
            join_samples: join_samples.load(Ordering::Relaxed),
            exchange_checksum: f64::from_bits(exchange.load(Ordering::Relaxed)),
        }
    }
}

/// Table II of the paper: per NPB3.2-MZ benchmark, in
/// [`MzBenchmark::all`] order, its name and the parallel-region calls
/// per process at each of [`TABLE_II_PROCS`] processes.
pub const TABLE_II: [(&str, [u64; 4]); 3] = [
    ("BT-MZ", [167_616, 83_808, 41_904, 20_952]),
    ("LU-MZ", [40_353, 20_177, 10_089, 5_045]),
    ("SP-MZ", [436_672, 218_336, 109_168, 54_584]),
];

/// The process counts of Table II's columns (1×8, 2×4, 4×2, 8×1).
pub const TABLE_II_PROCS: [usize; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_rank_calls_reproduce_table_2_exactly() {
        for (bench, &(name, cols)) in MzBenchmark::all().iter().zip(TABLE_II.iter()) {
            assert_eq!(bench.name, name);
            for (procs, expected) in TABLE_II_PROCS.into_iter().zip(cols) {
                assert_eq!(
                    bench.table2_calls(procs),
                    expected,
                    "{name} at {procs} procs"
                );
            }
        }
    }

    #[test]
    fn per_rank_distribution_is_balanced_and_complete() {
        let lu = MzBenchmark::lu_mz();
        for procs in [1, 2, 3, 4, 8] {
            let calls = lu.per_rank_calls(procs, NpbClass::Bsim);
            assert_eq!(calls.len(), procs);
            assert_eq!(calls.iter().sum::<u64>(), lu.total_calls_b);
            let max = calls.iter().max().unwrap();
            let min = calls.iter().min().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn mz_run_executes_all_rank_calls() {
        let bench = MzBenchmark::lu_mz();
        let result = bench.run(2, 2, NpbClass::S, CollectMode::Off);
        assert_eq!(result.per_rank_calls.len(), 2);
        assert_eq!(
            result.per_rank_calls.iter().sum::<u64>(),
            bench.total_calls_b / 200
        );
        assert!(result.wall_secs > 0.0);
        assert_eq!(result.join_samples, 0);
        assert!(result.exchange_checksum.is_finite());
    }

    #[test]
    fn mz_run_with_profiling_collects_per_rank() {
        let bench = MzBenchmark::lu_mz();
        let result = bench.run(2, 2, NpbClass::S, CollectMode::Profile);
        let total: u64 = result.per_rank_calls.iter().sum();
        assert_eq!(result.join_samples, total, "one join sample per region");
    }

    #[test]
    fn uneven_rank_splits_do_not_deadlock_the_exchange_ring() {
        // Regression: SP-MZ at 8 procs splits 21833 calls as [2730, 2729×7]
        // (W class); deriving exchange cadence per-rank gave rank 0 one
        // more recv() than its peers ever send — a guaranteed hang.
        let bench = MzBenchmark::sp_mz();
        let calls = bench.per_rank_calls(8, NpbClass::W);
        assert!(calls.iter().any(|&c| c != calls[0]), "needs uneven split");
        let result = bench.run(8, 1, NpbClass::W, CollectMode::Off);
        assert_eq!(result.per_rank_calls.iter().sum::<u64>(), 21_833);
        assert!(result.exchange_checksum.is_finite());
    }

    #[test]
    fn run_rank_executes_exactly_its_table_share() {
        let bench = MzBenchmark::lu_mz();
        let expected = bench.per_rank_calls(4, NpbClass::S);
        let mut total = 0;
        for (rank, &want) in expected.iter().enumerate() {
            let rt = OpenMp::with_threads(2);
            let result = bench.run_rank(&rt, rank, 4, NpbClass::S);
            assert_eq!(result.calls, want);
            assert!(result.checksum.is_finite());
            total += result.calls;
        }
        assert_eq!(total, bench.total_calls_b / 200);
        // An out-of-range rank does no work rather than panicking.
        let rt = OpenMp::with_threads(1);
        assert_eq!(bench.run_rank(&rt, 9, 4, NpbClass::S).calls, 0);
    }

    #[test]
    fn tasks_mz_serialized_steps_complete_via_the_task_path() {
        let bench = MzBenchmark::tasks_mz();
        assert!(bench.serialized_tasks);
        let rt = OpenMp::with_threads(4);
        let result = bench.run_rank(&rt, 0, 1, NpbClass::S);
        assert_eq!(result.calls, bench.total_calls_b / 200);
        assert!(result.checksum.is_finite());
        assert!(result.checksum > 0.0, "tied-task flood must touch u");
        // Every task is tied to the master, so nothing is stealable.
        assert_eq!(rt.health().tasks_stolen, 0);
    }

    #[test]
    fn callbacks_only_mode_collects_no_samples() {
        let bench = MzBenchmark::lu_mz();
        let result = bench.run(2, 1, NpbClass::S, CollectMode::CallbacksOnly);
        assert_eq!(result.join_samples, 0);
    }
}
