//! # ora-meter — statistically rigorous overhead measurement
//!
//! The paper's headline result is the *measured cost* of ORA collection
//! (§V: EPCC syncbench and NPB overheads). This subsystem turns that
//! experiment into an enforced invariant of the codebase:
//!
//! * [`runner`] runs each workload under the five-rung
//!   collector-intrusiveness ladder (absent / registered-paused /
//!   state-queries / streaming-trace / governed, [`collector::modes`])
//!   with per-repetition timing, through the one interleaved loop
//!   ([`interleave`]) that also times every `omp_prof paper` cell;
//! * [`stats`] makes the numbers defensible — warmup discard happens in
//!   the runner, then MAD outlier rejection with a minimum-repetition
//!   rule and a seeded 95% bootstrap CI of the median;
//! * [`schema`] serializes results as versioned, self-describing
//!   `BENCH_<suite>.json` documents (hand-rolled JSON both ways — the
//!   workspace stays hermetic);
//! * [`compare`] gates regressions: a cell fails only when its overhead
//!   ratio moved past the threshold *and* the confidence intervals are
//!   disjoint.
//!
//! Front end: `omp_prof bench run|compare` (see `src/bin/omp_prof.rs`);
//! CI wiring: the `perf-smoke` job in `.github/workflows/ci.yml` against
//! the committed baselines in `results/baselines/`.

pub mod compare;
pub mod runner;
pub mod schema;
pub mod stats;

pub use compare::{compare, CompareError, CompareReport, Regression, Shift};
pub use runner::{interleave, run_suite, run_suite_with_progress, RunnerConfig, UNIT};
pub use schema::{
    BenchDoc, ConfigResult, SchemaError, SyncConfig, WorkloadResult, SCHEMA_NAME, SCHEMA_VERSION,
};
pub use stats::{
    analyze, bootstrap_ci_median, mad, median, reject_outliers, SampleStats, StatPolicy,
};
