//! Deterministic, repetition-shaped workload units for `ora-meter`.
//!
//! The overhead meter (in `crates/bench`) needs two things from a
//! workload that the figure harnesses never did:
//!
//! 1. **An iteration hook** — a call that performs *exactly one*
//!    repetition of work, so the meter can time repetitions individually
//!    and build per-repetition statistics (median, MAD, bootstrap CI)
//!    instead of one best-of number.
//! 2. **Deterministic work sizing** — a repetition must perform the same
//!    work every time and across processes, so `BENCH_*.json` files from
//!    different runs of the same scale are comparable and a committed
//!    baseline stays meaningful.
//!
//! [`MeterWorkload`] packages both: construction fixes the sizing
//! (per [`MeterScale`]) and [`MeterWorkload::run_rep`] is the hook.
//! Only deterministic NPB kernels are included ([`crate::npb::NpbKernel::is_deterministic`]);
//! LU-HP's partition-dependent wavefronts would make the checksum — and
//! worse, the work distribution — depend on scheduling.

use omprt::{Config, OpenMp, Schedule};

use crate::epcc::{self, Directive, EpccConfig};
use crate::npb::{NpbClass, NpbKernel};

/// Work sizing for meter runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeterScale {
    /// Seconds-long total: CI smoke runs and PR gating.
    Quick,
    /// Minutes-long total: refreshing committed baselines.
    Full,
}

impl MeterScale {
    /// Stable key recorded in the `BENCH_*.json` schema.
    pub const fn key(self) -> &'static str {
        match self {
            MeterScale::Quick => "quick",
            MeterScale::Full => "full",
        }
    }

    /// Parse a [`key`](Self::key) back.
    pub fn from_key(key: &str) -> Option<MeterScale> {
        match key {
            "quick" => Some(MeterScale::Quick),
            "full" => Some(MeterScale::Full),
            _ => None,
        }
    }
}

/// Which benchmark family a workload belongs to (one `BENCH_<suite>.json`
/// file per suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeterSuite {
    /// EPCC syncbench directives.
    Epcc,
    /// Synthetic NPB kernels.
    Npb,
    /// Synchronization-core microbenchmarks: fork/join latency and
    /// barrier episode latency, the hot paths the runtime's parking and
    /// padding work targets.
    Sync,
    /// Dispatch-path microbenchmarks: event-dense synchronization storms
    /// sized to maximize monitored-dispatch frequency, so the ladder's
    /// per-rung slowdown isolates the cost of event dispatch itself —
    /// and the governed rung's adherence to its overhead budget.
    Dispatch,
    /// Explicit-task microbenchmarks: spawn/execute throughput of the
    /// team task pool, both the every-thread-spawns shape (contention on
    /// the submission path) and the single-producer shape (distribution
    /// of work to otherwise-idle threads).
    Tasks,
    /// Topology-aware scheduling microbenchmarks: a nested-fork storm
    /// served by leased pool workers and a dynamic-schedule claim probe.
    /// Run with `OMP_ORA_TOPOLOGY` injected so the lease order is
    /// identical on every host.
    Topo,
}

impl MeterSuite {
    /// Stable key (`epcc` / `npb` / `sync` / `dispatch` / `tasks` /
    /// `topo`), also the `BENCH_<key>.json` stem.
    pub const fn key(self) -> &'static str {
        match self {
            MeterSuite::Epcc => "epcc",
            MeterSuite::Npb => "npb",
            MeterSuite::Sync => "sync",
            MeterSuite::Dispatch => "dispatch",
            MeterSuite::Tasks => "tasks",
            MeterSuite::Topo => "topo",
        }
    }

    /// Parse a [`key`](Self::key) back.
    pub fn from_key(key: &str) -> Option<MeterSuite> {
        match key {
            "epcc" => Some(MeterSuite::Epcc),
            "npb" => Some(MeterSuite::Npb),
            "sync" => Some(MeterSuite::Sync),
            "dispatch" => Some(MeterSuite::Dispatch),
            "tasks" => Some(MeterSuite::Tasks),
            "topo" => Some(MeterSuite::Topo),
            _ => None,
        }
    }
}

/// Which synchronization hot path a [`MeterSuite::Sync`] workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncKind {
    /// Empty parallel regions: publish → wake team → run nothing → join
    /// barrier. Isolates fork/join latency.
    ForkJoin,
    /// One region running a storm of explicit barriers: isolates barrier
    /// episode latency under full team contention.
    BarrierStorm,
}

/// Which task-pool hot path a [`MeterSuite::Tasks`] workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskShape {
    /// Every thread spawns its own batch of tasks each episode, then
    /// taskwaits. Maximizes submission-path contention: a single shared
    /// queue serializes every spawn, per-thread deques do not.
    SpawnFlood,
    /// Only the master spawns; a barrier makes the batch visible before
    /// the whole team taskwaits and drains it. Measures distribution of
    /// one producer's work across otherwise-idle consumers.
    ProducerSteal,
}

enum WorkUnit {
    Epcc {
        directive: Directive,
        cfg: EpccConfig,
    },
    Npb {
        kernel: NpbKernel,
        class: NpbClass,
        // Kernel invocations per repetition: a single small-class pass is
        // sub-millisecond, too little signal for between-run stability.
        passes: usize,
    },
    Sync {
        kind: SyncKind,
        // Directive instances (regions or barrier episodes) per
        // repetition; sized so one repetition is comfortably above timer
        // resolution.
        inner: usize,
    },
    Tasks {
        shape: TaskShape,
        // Tasks per spawner per episode.
        tasks: usize,
        // Spawn/taskwait episodes per repetition.
        episodes: usize,
    },
    NestedFork {
        // Sub-team width of each nested fork.
        width: usize,
        // Nested forks (by the outer master) per repetition.
        forks: usize,
    },
    DynamicClaim {
        // Loop trip count per episode.
        iters: i64,
        // Dynamic-schedule chunk size (small, so claims dominate).
        chunk: usize,
        // Loop episodes per repetition.
        episodes: usize,
    },
}

/// Cheap deterministic per-task payload: enough arithmetic that the task
/// body cannot be elided, little enough that spawn/dispatch dominates.
#[inline]
fn task_mix(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
}

/// One deterministic workload unit exposed to the meter.
pub struct MeterWorkload {
    name: String,
    suite: MeterSuite,
    unit: WorkUnit,
    /// Runtime configuration this workload must run under; `None` means
    /// the runner's default (its `threads` setting, default everything
    /// else). The topo and sync suites pin team sizes and nesting per
    /// workload.
    config: Option<Config>,
}

impl MeterWorkload {
    /// Workload name as recorded in the schema (e.g. `parallel`, `cg`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The suite this workload reports under.
    pub fn suite(&self) -> MeterSuite {
        self.suite
    }

    /// The runtime configuration override, if this workload pins one.
    pub fn runtime_config(&self) -> Option<&Config> {
        self.config.as_ref()
    }

    /// Directive instances (EPCC) or parallel-region calls (NPB) one
    /// repetition performs — the denominator for per-unit costs, and a
    /// self-check that two runs really did the same work.
    pub fn work_units(&self) -> u64 {
        match &self.unit {
            WorkUnit::Epcc { cfg, .. } => cfg.inner_reps as u64,
            WorkUnit::Npb {
                kernel,
                class,
                passes,
            } => kernel.region_calls(*class) * *passes as u64,
            WorkUnit::Sync { inner, .. } => *inner as u64,
            WorkUnit::Tasks {
                tasks, episodes, ..
            } => (*tasks * *episodes) as u64,
            WorkUnit::NestedFork { forks, .. } => *forks as u64,
            WorkUnit::DynamicClaim { episodes, .. } => *episodes as u64,
        }
    }

    /// The iteration hook: perform exactly one repetition on `rt`.
    /// Returns a checksum so the optimizer cannot elide the work (0.0 for
    /// EPCC, whose delay loops are `black_box`ed internally).
    pub fn run_rep(&self, rt: &OpenMp) -> f64 {
        match &self.unit {
            WorkUnit::Epcc { directive, cfg } => {
                epcc::iterate(rt, *directive, cfg);
                0.0
            }
            WorkUnit::Npb {
                kernel,
                class,
                passes,
            } => (0..*passes)
                .map(|_| kernel.run(rt, *class))
                .last()
                .unwrap_or(0.0),
            WorkUnit::Sync { kind, inner } => {
                match kind {
                    SyncKind::ForkJoin => {
                        for _ in 0..*inner {
                            rt.parallel(|_| {});
                        }
                    }
                    SyncKind::BarrierStorm => {
                        let episodes = *inner;
                        rt.parallel(|ctx| {
                            for _ in 0..episodes {
                                ctx.barrier();
                            }
                        });
                    }
                }
                0.0
            }
            WorkUnit::Tasks {
                shape,
                tasks,
                episodes,
            } => {
                use std::sync::atomic::{AtomicU64, Ordering};
                let sum = AtomicU64::new(0);
                let (shape, tasks, episodes) = (*shape, *tasks, *episodes);
                rt.parallel(|ctx| {
                    for ep in 0..episodes {
                        let spawner = match shape {
                            TaskShape::SpawnFlood => true,
                            TaskShape::ProducerSteal => ctx.is_master(),
                        };
                        if spawner {
                            for i in 0..tasks {
                                let v = ((ep as u64) << 32) | i as u64;
                                let sum = &sum;
                                // SAFETY: `sum` outlives the region; the
                                // episode taskwait below (and the region-end
                                // drain) retire every task before it drops.
                                // Spawn-flood keeps tasks tied (pure
                                // own-deque push/pop throughput); the
                                // producer shape needs untied tasks so the
                                // team can actually steal from the master.
                                unsafe {
                                    match shape {
                                        TaskShape::SpawnFlood => {
                                            ctx.task_borrowed(move || {
                                                sum.fetch_add(task_mix(v), Ordering::Relaxed);
                                            });
                                        }
                                        TaskShape::ProducerSteal => {
                                            ctx.task_borrowed_untied(move || {
                                                sum.fetch_add(task_mix(v), Ordering::Relaxed);
                                            });
                                        }
                                    }
                                }
                            }
                        }
                        if shape == TaskShape::ProducerSteal {
                            // Make the batch visible to the whole team
                            // before anyone decides the pool is quiescent.
                            ctx.barrier();
                        }
                        ctx.taskwait();
                        if shape == TaskShape::ProducerSteal {
                            // Close the episode: taskwait waits for the
                            // whole team's tasks, so a thread still in
                            // this taskwait would also wait for the batch
                            // the master spawns for the next episode —
                            // while the master waits for that thread at
                            // the next publishing barrier. Deadlock.
                            ctx.barrier();
                        }
                    }
                });
                sum.load(Ordering::Relaxed) as f64
            }
            WorkUnit::NestedFork { width, forks } => {
                let (width, forks) = (*width, *forks);
                rt.parallel(|ctx| {
                    if ctx.is_master() {
                        for _ in 0..forks {
                            rt.parallel_n(width, |_| {});
                        }
                    }
                });
                0.0
            }
            WorkUnit::DynamicClaim {
                iters,
                chunk,
                episodes,
            } => {
                use std::sync::atomic::{AtomicU64, Ordering};
                let sum = AtomicU64::new(0);
                let (iters, chunk, episodes) = (*iters, *chunk, *episodes);
                rt.parallel(|ctx| {
                    for _ in 0..episodes {
                        // Accumulate locally; one shared add per episode so
                        // the measured cost is claiming, not the checksum.
                        let mut local = 0u64;
                        ctx.for_schedule(Schedule::Dynamic(chunk), 0, iters - 1, 1, |i| {
                            local = local.wrapping_add(task_mix(i as u64));
                        });
                        sum.fetch_add(local, Ordering::Relaxed);
                        ctx.barrier();
                    }
                });
                sum.load(Ordering::Relaxed) as f64
            }
        }
    }
}

/// The EPCC directives the meter tracks: the heavily-used ones the paper
/// highlights (parallel, parallel-for, reduction) plus barrier, the
/// dominant synchronization cost.
pub const METER_DIRECTIVES: [Directive; 4] = [
    Directive::Parallel,
    Directive::ParallelFor,
    Directive::Barrier,
    Directive::Reduction,
];

/// Build the meter's workload set for `suite` at `scale`. The returned
/// sizing is deterministic: two processes constructing the same
/// `(suite, scale)` perform identical work per repetition.
pub fn meter_workloads(suite: MeterSuite, scale: MeterScale) -> Vec<MeterWorkload> {
    match suite {
        MeterSuite::Epcc => {
            let cfg = match scale {
                MeterScale::Quick => EpccConfig::meter_quick(),
                MeterScale::Full => EpccConfig::meter_full(),
            };
            METER_DIRECTIVES
                .iter()
                .map(|&directive| MeterWorkload {
                    name: directive.name().to_lowercase().replace(' ', "-"),
                    suite: MeterSuite::Epcc,
                    unit: WorkUnit::Epcc {
                        directive,
                        cfg: cfg.clone(),
                    },
                    config: None,
                })
                .collect()
        }
        MeterSuite::Sync => {
            // Oversubscribed team sizes (32- and 64-thread teams on a
            // far smaller host): the fork wake fan-out and barrier
            // parking paths only show their scaling behaviour when
            // threads heavily outnumber cores.
            let (forks, episodes) = match scale {
                MeterScale::Quick => (30, 60),
                MeterScale::Full => (150, 300),
            };
            vec![
                MeterWorkload {
                    name: "forkjoin-32".to_string(),
                    suite: MeterSuite::Sync,
                    unit: WorkUnit::Sync {
                        kind: SyncKind::ForkJoin,
                        inner: forks,
                    },
                    config: Some(Config::with_threads(32)),
                },
                MeterWorkload {
                    name: "barrier-storm-64".to_string(),
                    suite: MeterSuite::Sync,
                    unit: WorkUnit::Sync {
                        kind: SyncKind::BarrierStorm,
                        inner: episodes,
                    },
                    config: Some(Config::with_threads(64)),
                },
            ]
        }
        MeterSuite::Topo => {
            // Nested fork: a 2-thread outer team whose master repeatedly
            // forks a 16-wide sub-team from leased pool workers.
            // Claimer probe: a 16-thread dynamic(2) loop whose chunks are
            // claimed through the schedule layer's batched claimer.
            let forks = match scale {
                MeterScale::Quick => 25,
                MeterScale::Full => 120,
            };
            let (claim_iters, claim_eps) = match scale {
                MeterScale::Quick => (4096, 40),
                MeterScale::Full => (4096, 200),
            };
            vec![
                MeterWorkload {
                    name: "nested-pooled-16".to_string(),
                    suite: MeterSuite::Topo,
                    unit: WorkUnit::NestedFork { width: 16, forks },
                    config: Some(Config {
                        num_threads: 2,
                        nested: true,
                        ..Config::default()
                    }),
                },
                MeterWorkload {
                    name: "dynamic-claim-16".to_string(),
                    suite: MeterSuite::Topo,
                    unit: WorkUnit::DynamicClaim {
                        iters: claim_iters,
                        chunk: 2,
                        episodes: claim_eps,
                    },
                    config: Some(Config::with_threads(16)),
                },
            ]
        }
        MeterSuite::Dispatch => {
            // Event-dense shapes: a barrier storm fires two explicit-
            // barrier events per thread per episode (the densest stream
            // the runtime produces), and a fork flood fires the full
            // fork/join + implicit-barrier cycle per region. Sized larger
            // than the sync suite so per-event dispatch cost dominates
            // the synchronization cost being dispatched about.
            // Sized so one repetition spans several governor calibration
            // windows (the governed rung retunes at 0.1 ms granularity):
            // the governor must have room to measure, plan, and settle
            // within a single attachment.
            let (forks, episodes) = match scale {
                MeterScale::Quick => (700, 2400),
                MeterScale::Full => (3000, 10000),
            };
            vec![
                MeterWorkload {
                    name: "fork-flood".to_string(),
                    suite: MeterSuite::Dispatch,
                    unit: WorkUnit::Sync {
                        kind: SyncKind::ForkJoin,
                        inner: forks,
                    },
                    config: None,
                },
                MeterWorkload {
                    name: "barrier-storm".to_string(),
                    suite: MeterSuite::Dispatch,
                    unit: WorkUnit::Sync {
                        kind: SyncKind::BarrierStorm,
                        inner: episodes,
                    },
                    config: None,
                },
            ]
        }
        MeterSuite::Tasks => {
            // Task-per-spawner counts sized so one repetition retires a
            // few thousand tasks (spawn cost dominates the trivial task
            // bodies) while staying comfortably under a second even on
            // the serialized single-queue pool.
            let (tasks, flood_eps, steal_eps) = match scale {
                MeterScale::Quick => (64, 12, 8),
                MeterScale::Full => (64, 60, 40),
            };
            vec![
                MeterWorkload {
                    name: "spawn-flood".to_string(),
                    suite: MeterSuite::Tasks,
                    unit: WorkUnit::Tasks {
                        shape: TaskShape::SpawnFlood,
                        tasks,
                        episodes: flood_eps,
                    },
                    config: None,
                },
                MeterWorkload {
                    name: "producer-steal".to_string(),
                    suite: MeterSuite::Tasks,
                    unit: WorkUnit::Tasks {
                        shape: TaskShape::ProducerSteal,
                        tasks: tasks * 3,
                        episodes: steal_eps,
                    },
                    config: None,
                },
            ]
        }
        MeterSuite::Npb => {
            let (kernels, class, passes) = match scale {
                MeterScale::Quick => (vec![NpbKernel::cg(), NpbKernel::ep()], NpbClass::S, 10),
                MeterScale::Full => (
                    vec![NpbKernel::cg(), NpbKernel::ep(), NpbKernel::ft()],
                    NpbClass::W,
                    4,
                ),
            };
            kernels
                .into_iter()
                .map(|kernel| MeterWorkload {
                    name: kernel.name.to_lowercase(),
                    suite: MeterSuite::Npb,
                    unit: WorkUnit::Npb {
                        kernel,
                        class,
                        passes,
                    },
                    config: None,
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        for s in [MeterScale::Quick, MeterScale::Full] {
            assert_eq!(MeterScale::from_key(s.key()), Some(s));
        }
        for s in [
            MeterSuite::Epcc,
            MeterSuite::Npb,
            MeterSuite::Sync,
            MeterSuite::Dispatch,
            MeterSuite::Tasks,
            MeterSuite::Topo,
        ] {
            assert_eq!(MeterSuite::from_key(s.key()), Some(s));
        }
        assert_eq!(MeterScale::from_key("paper"), None);
        assert_eq!(MeterSuite::from_key("mz"), None);
    }

    #[test]
    fn quick_workload_set_is_stable() {
        let epcc = meter_workloads(MeterSuite::Epcc, MeterScale::Quick);
        let names: Vec<&str> = epcc.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["parallel", "parallel-for", "barrier", "reduction"]);
        let npb = meter_workloads(MeterSuite::Npb, MeterScale::Quick);
        let names: Vec<&str> = npb.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["cg", "ep"]);
        let sync = meter_workloads(MeterSuite::Sync, MeterScale::Quick);
        let names: Vec<&str> = sync.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["forkjoin-32", "barrier-storm-64"]);
        let dispatch = meter_workloads(MeterSuite::Dispatch, MeterScale::Quick);
        let names: Vec<&str> = dispatch.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["fork-flood", "barrier-storm"]);
        let tasks = meter_workloads(MeterSuite::Tasks, MeterScale::Quick);
        let names: Vec<&str> = tasks.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["spawn-flood", "producer-steal"]);
        let topo = meter_workloads(MeterSuite::Topo, MeterScale::Quick);
        let names: Vec<&str> = topo.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["nested-pooled-16", "dynamic-claim-16"]);
    }

    #[test]
    fn sync_and_topo_workloads_pin_their_runtime_configs() {
        for w in meter_workloads(MeterSuite::Sync, MeterScale::Quick) {
            let c = w.runtime_config().expect("sync pins oversubscription");
            assert!(c.num_threads >= 32, "{} is not oversubscribed", w.name());
        }
        let topo = meter_workloads(MeterSuite::Topo, MeterScale::Quick);
        let cfg = |name: &str| {
            topo.iter()
                .find(|w| w.name() == name)
                .and_then(|w| w.runtime_config())
                .unwrap_or_else(|| panic!("{name} must pin a config"))
        };
        assert!(cfg("nested-pooled-16").nested);
        assert_eq!(cfg("nested-pooled-16").num_threads, 2);
        assert_eq!(cfg("dynamic-claim-16").num_threads, 16);
    }

    /// The claimer probe's checksum covers every loop iteration exactly
    /// once per episode.
    #[test]
    fn dynamic_claim_rep_covers_every_iteration() {
        let topo = meter_workloads(MeterSuite::Topo, MeterScale::Quick);
        let w = topo
            .iter()
            .find(|w| w.name() == "dynamic-claim-16")
            .expect("claimer probe in topo suite");
        let rt = OpenMp::with_config(w.runtime_config().expect("pinned").clone());
        let per_episode: u64 = (0..4096u64)
            .map(task_mix)
            .fold(0u64, |a, b| a.wrapping_add(b));
        let expect = (0..w.work_units()).fold(0u64, |a, _| a.wrapping_add(per_episode));
        // The rep returns the checksum through f64; compare after the
        // same (deterministic) u64 → f64 conversion.
        assert_eq!(w.run_rep(&rt).to_bits(), (expect as f64).to_bits());
    }

    #[test]
    fn nested_fork_rep_runs_on_a_nested_runtime() {
        let topo = meter_workloads(MeterSuite::Topo, MeterScale::Quick);
        let w = &topo[0];
        let rt = OpenMp::with_config(w.runtime_config().expect("pinned").clone());
        let before = rt.region_calls();
        let _ = w.run_rep(&rt);
        // One outer region + `forks` nested regions per repetition.
        assert_eq!(rt.region_calls() - before, w.work_units() + 1);
    }

    #[test]
    fn task_reps_run_and_checksum() {
        let rt = OpenMp::with_threads(2);
        for w in meter_workloads(MeterSuite::Tasks, MeterScale::Quick) {
            assert!(w.work_units() > 0);
            let a = w.run_rep(&rt);
            let b = w.run_rep(&rt);
            assert!(a != 0.0, "{} retired no tasks", w.name());
            assert_eq!(a.to_bits(), b.to_bits(), "{} checksum drifted", w.name());
        }
    }

    #[test]
    fn sync_reps_run_and_count_work() {
        let rt = OpenMp::with_threads(2);
        for w in meter_workloads(MeterSuite::Sync, MeterScale::Quick) {
            assert!(w.work_units() > 0);
            let before = rt.region_calls();
            let _ = w.run_rep(&rt);
            assert!(rt.region_calls() > before, "{} forked no region", w.name());
        }
    }

    #[test]
    fn npb_meter_kernels_are_deterministic_only() {
        for scale in [MeterScale::Quick, MeterScale::Full] {
            for w in meter_workloads(MeterSuite::Npb, scale) {
                assert_ne!(w.name(), "lu-hp", "partition-dependent kernel in meter set");
            }
        }
    }

    #[test]
    fn work_units_are_deterministic_across_constructions() {
        let a: Vec<u64> = meter_workloads(MeterSuite::Npb, MeterScale::Quick)
            .iter()
            .map(|w| w.work_units())
            .collect();
        let b: Vec<u64> = meter_workloads(MeterSuite::Npb, MeterScale::Quick)
            .iter()
            .map(|w| w.work_units())
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&u| u > 0));
    }

    #[test]
    fn npb_rep_checksum_is_reproducible() {
        let rt = OpenMp::with_threads(2);
        let w = &meter_workloads(MeterSuite::Npb, MeterScale::Quick)[0];
        let a = w.run_rep(&rt);
        let b = w.run_rep(&rt);
        assert_eq!(a.to_bits(), b.to_bits(), "deterministic kernel drifted");
    }

    #[test]
    fn epcc_rep_runs() {
        let rt = OpenMp::with_threads(2);
        for w in meter_workloads(MeterSuite::Epcc, MeterScale::Quick) {
            let _ = w.run_rep(&rt);
        }
    }
}
