//! # ora-bench — the `omp_prof` front end and its harnesses
//!
//! [`paper`] reproduces every table and figure of the paper's §V
//! through one subcommand, `omp_prof paper <experiment> [--scale
//! smoke|quick|paper]` (default `quick`):
//!
//! | experiment  | reproduces | notes |
//! |-------------|------------|-------|
//! | `table1`    | Table I    | parallel-region counts, measured via fork events |
//! | `table2`    | Table II   | per-process region calls, computed + measured |
//! | `fig4`      | Fig. 4     | EPCC directive overhead %, per thread count |
//! | `fig5`      | Fig. 5     | NPB3.2-OMP overhead %, 1/2/4/8 threads |
//! | `fig6`      | Fig. 6     | NPB3.2-MZ overhead %, 1×8/2×4/4×2/8×1 |
//! | `breakdown` | §V-B       | measurement vs communication overhead split |
//! | `epcc`      | EPCC       | absolute syncbench/schedbench/arraybench overheads |
//! | `all`       | all seven  | in this order; exit 1 if any count check fails |
//!
//! The [`meter`] module measures every meter workload under the
//! collector ladder (`omp_prof bench run`), emits versioned
//! `BENCH_<suite>.json` documents and gates regressions over them
//! (`omp_prof bench compare`). Both harnesses time through the same
//! interleaved loop, [`meter::interleave`], and report
//! [`meter::analyze`] medians.
//! Micro-benches (`cargo bench -p ora-bench --features bench`) cover the
//! micro costs the paper argues about: event-dispatch fast path,
//! always-on state stores, callstack capture, wire protocol, and the
//! barrier/schedule ablations. They run on the dependency-free
//! [`microbench`] harness and are gated behind the off-by-default
//! `bench` feature so default builds stay hermetic.

#![warn(missing_docs)]

pub mod fleet_driver;
pub mod meter;
pub mod microbench;
pub mod paper;
