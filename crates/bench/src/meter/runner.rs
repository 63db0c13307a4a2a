//! The measurement loop: workloads × collector configurations → document.
//!
//! For each workload of a suite the runner walks the
//! collector-intrusiveness ladder ([`CollectionConfig::ALL`])
//! **interleaved**: every repetition attaches each rung in turn, times
//! one repetition under it with the same monotonic clock the collectors
//! sample, and detaches. Interleaving matters on a shared machine —
//! low-frequency load drift (another process waking up mid-run) then
//! lands on every configuration roughly equally and cancels out of
//! the overhead *ratios*, instead of biasing whichever configuration
//! happened to run in the slow window. The first `warmup` rounds are
//! discarded; the rest feed the [`stats`](super::stats) pipeline.
//! Overhead ratios are computed against the `absent` rung *of the same
//! run*, with conservative interval bounds (config CI low over absent CI
//! high, and vice versa), so a ratio's interval never understates the
//! uncertainty of its two inputs.

use collector::modes::CollectionConfig;
use collector::{clock, RuntimeHandle};
use omprt::OpenMp;
use workloads::meterwork::{meter_workloads, MeterScale, MeterSuite, MeterWorkload};

use super::schema::{BenchDoc, ConfigResult, SyncConfig, WorkloadResult};
use super::stats::{analyze, SampleStats, StatPolicy};

/// Unit string stamped into every document this runner produces.
pub const UNIT: &str = "seconds/rep";

/// Everything that parameterizes one meter run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Work sizing.
    pub scale: MeterScale,
    /// OpenMP thread count.
    pub threads: usize,
    /// Discarded repetitions per configuration.
    pub warmup: usize,
    /// Timed repetitions per configuration.
    pub reps: usize,
    /// Statistics policy (rejection, bootstrap, seed).
    pub policy: StatPolicy,
}

impl RunnerConfig {
    /// CI-sized run: seconds in total, enough repetitions for a CI that
    /// means something.
    pub fn quick() -> RunnerConfig {
        RunnerConfig {
            scale: MeterScale::Quick,
            threads: 2,
            warmup: 2,
            reps: 11,
            policy: StatPolicy::default(),
        }
    }

    /// Baseline-refresh run: more repetitions, bigger work sizes.
    pub fn full() -> RunnerConfig {
        RunnerConfig {
            scale: MeterScale::Full,
            threads: 2,
            warmup: 2,
            reps: 15,
            policy: StatPolicy::default(),
        }
    }
}

/// Why a run failed (attachment errors surface; timing cannot fail).
pub type RunError = collector::tracer::StreamError;

/// Run `suite` and produce its bench document.
pub fn run_suite(suite: MeterSuite, cfg: &RunnerConfig) -> Result<BenchDoc, RunError> {
    run_suite_with_progress(suite, cfg, |_| {})
}

/// [`run_suite`] with a progress callback (one line per finished cell).
pub fn run_suite_with_progress(
    suite: MeterSuite,
    cfg: &RunnerConfig,
    mut progress: impl FnMut(&str),
) -> Result<BenchDoc, RunError> {
    let mut results = Vec::new();
    for workload in meter_workloads(suite, cfg.scale) {
        results.push(run_workload(&workload, cfg, &mut progress)?);
    }
    Ok(BenchDoc {
        suite: suite.key().to_string(),
        scale: cfg.scale.key().to_string(),
        threads: cfg.threads,
        warmup: cfg.warmup,
        target_reps: cfg.reps,
        unit: UNIT.to_string(),
        sync_config: Some(sync_config()),
        workloads: results,
    })
}

/// The synchronization configuration the measured runtime actually used:
/// the runtime's one barrier algorithm plus the host-adaptive spin
/// budgets. Stamped into every document so a baseline produced under one
/// spin policy is distinguishable from a run under another.
fn sync_config() -> SyncConfig {
    SyncConfig {
        barrier: "central".to_string(),
        spin_budget_short: u64::from(omprt::spin::short_budget()),
        spin_budget_long: u64::from(omprt::spin::long_budget()),
    }
}

fn run_workload(
    workload: &MeterWorkload,
    cfg: &RunnerConfig,
    progress: &mut impl FnMut(&str),
) -> Result<WorkloadResult, RunError> {
    // Workloads that pin a runtime configuration (team size, barrier
    // algorithm, nesting mode — the sync and topo suites) get exactly
    // that; everything else runs on the runner's default-threads runtime.
    let rt = match workload.runtime_config() {
        Some(c) => OpenMp::with_config(c.clone()),
        None => OpenMp::with_threads(cfg.threads),
    };
    rt.parallel(|_| {}); // warm the worker pool once, outside any config
    let handle = RuntimeHandle::discover_named(rt.symbol_name())
        .ok_or(RunError::Ora(ora_core::OraError::Error))?;

    let rounds = cfg.warmup + cfg.reps.max(1);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); CollectionConfig::ALL.len()];
    for round in 0..rounds {
        for (slot, config) in CollectionConfig::ALL.into_iter().enumerate() {
            let active = config.attach(&handle)?;
            let (_, ticks) = clock::time(|| std::hint::black_box(workload.run_rep(&rt)));
            // Workers fire trailing end-of-barrier events asynchronously;
            // give them a beat before tearing the attachment down.
            if config != CollectionConfig::Absent {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            active.finish()?;
            if round >= cfg.warmup {
                samples[slot].push(clock::to_secs(ticks));
            }
        }
    }

    let mut per_config: Vec<(CollectionConfig, SampleStats)> = Vec::new();
    for (slot, config) in CollectionConfig::ALL.into_iter().enumerate() {
        let stats = analyze(&samples[slot], &cfg.policy);
        progress(&format!(
            "  {:<14} {:<7} median {:>9.3} ms over {} rep(s) ({} rejected)",
            workload.name(),
            config.key(),
            stats.median * 1e3,
            stats.reps,
            stats.rejected
        ));
        per_config.push((config, stats));
    }

    let absent = per_config
        .iter()
        .find(|(c, _)| *c == CollectionConfig::Absent)
        .map(|(_, s)| *s)
        .expect("ladder always contains the absent rung");

    let configs = per_config
        .into_iter()
        .map(|(config, stats)| {
            let (ratio, lo, hi) = if config == CollectionConfig::Absent {
                (1.0, 1.0, 1.0)
            } else if absent.median > 0.0 && absent.ci_lo > 0.0 {
                (
                    stats.median / absent.median,
                    stats.ci_lo / absent.ci_hi,
                    stats.ci_hi / absent.ci_lo,
                )
            } else {
                (1.0, 1.0, 1.0)
            };
            ConfigResult {
                config: config.key().to_string(),
                stats,
                overhead_ratio: ratio,
                ratio_ci_lo: lo,
                ratio_ci_hi: hi,
            }
        })
        .collect();

    Ok(WorkloadResult {
        name: workload.name().to_string(),
        work_units: workload.work_units(),
        configs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-but-real end-to-end run: every cell present, ratios sane,
    /// document round-trips.
    #[test]
    fn npb_suite_runs_end_to_end_and_round_trips() {
        let cfg = RunnerConfig {
            reps: 3,
            warmup: 0,
            ..RunnerConfig::quick()
        };
        let doc = run_suite(MeterSuite::Npb, &cfg).unwrap();
        assert_eq!(doc.suite, "npb");
        assert_eq!(doc.workloads.len(), 2);
        for w in &doc.workloads {
            assert_eq!(w.configs.len(), CollectionConfig::ALL.len());
            let absent = w.config("absent").unwrap();
            assert_eq!(absent.overhead_ratio, 1.0);
            assert!(absent.stats.median > 0.0, "{}: zero median", w.name);
            for c in &w.configs {
                assert!(c.stats.reps >= 1);
                assert!(c.stats.ci_lo <= c.stats.median && c.stats.median <= c.stats.ci_hi);
                assert!(c.overhead_ratio > 0.0);
                assert!(c.ratio_ci_lo <= c.ratio_ci_hi);
            }
        }
        let sc = doc.sync_config.as_ref().expect("runner stamps the config");
        assert_eq!(sc.barrier, "central");
        let parsed = BenchDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(parsed, doc);
    }
}
