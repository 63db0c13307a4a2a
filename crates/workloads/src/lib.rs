//! # workloads — the paper's evaluation workloads
//!
//! Everything the paper's §V runs, reimplemented against `omprt` (the
//! experiments themselves are timed and rendered by `omp_prof paper`):
//!
//! * [`epcc`] — the EPCC synchronization microbenchmarks with their
//!   reference/test overhead methodology (Fig. 4);
//! * [`npb`] — synthetic NPB3.2-OMP kernels whose parallel-region
//!   structure matches Table I exactly (Fig. 5);
//! * [`mz`] — synthetic NPB3.2-MZ-MPI hybrids over a rank simulation,
//!   reproducing Table II's per-process call counts (Fig. 6);
//! * [`schedbench`] — the EPCC scheduling-overhead sweep (chunk-size
//!   ablation for static/dynamic/guided schedules);
//! * [`arraybench`] — the EPCC data-clause sweep (private / firstprivate /
//!   copyprivate cost by array size);
//! * [`meterwork`] — deterministic, repetition-shaped workload units for
//!   the `ora-meter` overhead experiment (iteration hooks + fixed
//!   work sizing per scale);
//! * [`util`] — shared-array plumbing for the kernels.

#![warn(missing_docs)]

pub mod arraybench;
pub mod epcc;
pub mod meterwork;
pub mod mz;
pub mod npb;
pub mod schedbench;
pub mod util;

pub use epcc::{Directive, EpccConfig, ALL_DIRECTIVES};
pub use meterwork::{meter_workloads, MeterScale, MeterSuite, MeterWorkload, METER_DIRECTIVES};
pub use mz::{CollectMode, MzBenchmark, MzRunResult};
pub use npb::{NpbClass, NpbKernel, RegionSpec, WorkKind};
