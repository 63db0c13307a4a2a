//! Synthetic NAS Parallel Benchmarks (NPB3.2-OMP analogues).
//!
//! The paper's Fig. 5 overheads are driven by one variable the paper
//! itself identifies: "a higher number of parallel region calls will
//! result in more overheads". Table I publishes the structure — number of
//! distinct parallel regions and total region calls per benchmark — so
//! these synthetic kernels reproduce *exactly those counts* at class
//! B-sim, with representative per-region compute (stencils, line solves,
//! sparse matvec, wavefront sweeps) standing in for the original physics.
//!
//! | Benchmark | regions | region calls |
//! |-----------|---------|--------------|
//! | BT        | 11      | 1 014        |
//! | EP        | 3       | 3            |
//! | SP        | 14      | 3 618        |
//! | MG        | 10      | 1 281        |
//! | FT        | 9       | 112          |
//! | CG        | 15      | 2 212        |
//! | LU-HP     | 16      | 298 959      |
//! | LU        | 9       | 518          |

use std::sync::atomic::{AtomicU64, Ordering};

use omprt::{OpenMp, RegionHandle, SourceFunction};

use crate::util::SharedVec;

/// Problem classes: `Bsim` keeps Table I's exact call counts; `S` and `W`
/// scale them down for fast tests while preserving the region structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NpbClass {
    /// Tiny: call counts divided by 200 (ceil). For unit tests.
    S,
    /// Workstation: call counts divided by 20 (ceil).
    W,
    /// The paper's Class B structure: exact Table I call counts.
    Bsim,
}

impl NpbClass {
    fn call_divisor(self) -> u64 {
        match self {
            NpbClass::S => 200,
            NpbClass::W => 20,
            NpbClass::Bsim => 1,
        }
    }

    /// Base array length for per-region compute. Sized so that a typical
    /// region's work dominates the fork/join cost (as in the original
    /// Class B), keeping collection overheads in the paper's few-percent
    /// range for all benchmarks except the region-call-heavy LU-HP.
    pub fn array_len(self) -> usize {
        match self {
            NpbClass::S => 1_024,
            NpbClass::W => 8_192,
            NpbClass::Bsim => 16_384,
        }
    }
}

/// What a region's body computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Fill with an analytic expression (initialization regions).
    Init,
    /// Three-point stencil relaxation (MG/BT/SP right-hand sides).
    Stencil,
    /// Row-wise dependent forward/backward sweeps (BT/SP/LU line solves).
    LineSolve,
    /// `u += alpha * v` (solution updates).
    Axpy,
    /// Sum-of-squares reduction into the checksum (norms, verification).
    Norm,
    /// Per-element pseudo-random Gaussian-pair counting (EP).
    Random,
    /// Small trigonometric transform (FT butterflies).
    Dft,
    /// Fixed-bandwidth sparse matrix-vector product (CG).
    SparseMv,
    /// Short dependent chains per chunk (LU-HP hyperplane slices).
    Wavefront,
}

/// One parallel region of a kernel: identity + call count + body.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Region name (the outlined symbol's tag).
    pub tag: &'static str,
    /// Calls at class B-sim (Table I).
    pub calls_b: u64,
    /// Body kind.
    pub work: WorkKind,
    /// Fraction of the class array length this region touches per call
    /// (LU-HP hyperplane slices are small; norms span everything).
    pub size_factor: f64,
}

impl RegionSpec {
    const fn new(tag: &'static str, calls_b: u64, work: WorkKind, size_factor: f64) -> Self {
        RegionSpec {
            tag,
            calls_b,
            work,
            size_factor,
        }
    }

    /// Calls at `class`.
    pub fn calls(&self, class: NpbClass) -> u64 {
        self.calls_b.div_ceil(class.call_divisor())
    }
}

/// Outcome of a kernel's self-verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verification {
    /// The multithreaded checksum matched the single-thread reference.
    Successful {
        /// Relative error against the reference.
        rel_error: f64,
    },
    /// The checksums diverged beyond tolerance.
    Failed {
        /// Reference (1-thread) checksum.
        expected: f64,
        /// Measured checksum.
        got: f64,
    },
    /// The kernel's result is partition-dependent by construction (LU-HP's
    /// hyperplane chains), so cross-thread-count comparison is undefined.
    NotApplicable,
}

/// A synthetic NPB kernel.
pub struct NpbKernel {
    /// Benchmark name as in Table I.
    pub name: &'static str,
    specs: Vec<RegionSpec>,
    handles: Vec<RegionHandle>,
}

impl NpbKernel {
    fn build(name: &'static str, specs: Vec<RegionSpec>) -> NpbKernel {
        let func = SourceFunction::new(format!("{}_main", name.to_lowercase()), "npb.rs", 1);
        let handles = specs
            .iter()
            .enumerate()
            .map(|(i, s)| func.region(s.tag, 10 + i as u32))
            .collect();
        NpbKernel {
            name,
            specs,
            handles,
        }
    }

    /// BT: block tridiagonal solver — 11 regions, 1 014 calls.
    pub fn bt() -> NpbKernel {
        Self::build(
            "BT",
            vec![
                RegionSpec::new("init_u", 1, WorkKind::Init, 1.0),
                RegionSpec::new("init_rhs", 1, WorkKind::Init, 1.0),
                RegionSpec::new("exact_rhs", 1, WorkKind::Stencil, 1.0),
                RegionSpec::new("compute_rhs", 201, WorkKind::Stencil, 1.0),
                RegionSpec::new("x_solve", 201, WorkKind::LineSolve, 1.0),
                RegionSpec::new("y_solve", 201, WorkKind::LineSolve, 1.0),
                RegionSpec::new("z_solve", 201, WorkKind::LineSolve, 1.0),
                RegionSpec::new("add", 66, WorkKind::Axpy, 1.0),
                RegionSpec::new("exact_sol", 47, WorkKind::Init, 0.5),
                RegionSpec::new("error_norm", 47, WorkKind::Norm, 1.0),
                RegionSpec::new("rhs_norm", 47, WorkKind::Norm, 1.0),
            ],
        )
    }

    /// EP: embarrassingly parallel — 3 regions, 3 calls.
    pub fn ep() -> NpbKernel {
        Self::build(
            "EP",
            vec![
                RegionSpec::new("init", 1, WorkKind::Init, 1.0),
                RegionSpec::new("gauss_pairs", 1, WorkKind::Random, 16.0),
                RegionSpec::new("verify", 1, WorkKind::Norm, 1.0),
            ],
        )
    }

    /// SP: scalar pentadiagonal solver — 14 regions, 3 618 calls.
    pub fn sp() -> NpbKernel {
        Self::build(
            "SP",
            vec![
                RegionSpec::new("init_u", 1, WorkKind::Init, 1.0),
                RegionSpec::new("exact_rhs", 1, WorkKind::Stencil, 1.0),
                RegionSpec::new("init_ws", 1, WorkKind::Init, 1.0),
                RegionSpec::new("compute_rhs", 400, WorkKind::Stencil, 1.0),
                RegionSpec::new("txinvr", 400, WorkKind::Axpy, 1.0),
                RegionSpec::new("x_solve", 400, WorkKind::LineSolve, 1.0),
                RegionSpec::new("ninvr", 400, WorkKind::Axpy, 1.0),
                RegionSpec::new("y_solve", 400, WorkKind::LineSolve, 1.0),
                RegionSpec::new("pinvr", 400, WorkKind::Axpy, 1.0),
                RegionSpec::new("z_solve", 400, WorkKind::LineSolve, 1.0),
                RegionSpec::new("tzetar", 400, WorkKind::Axpy, 1.0),
                RegionSpec::new("add", 200, WorkKind::Axpy, 1.0),
                RegionSpec::new("rhs_norm", 200, WorkKind::Norm, 1.0),
                RegionSpec::new("final_verify", 15, WorkKind::Norm, 1.0),
            ],
        )
    }

    /// MG: multigrid — 10 regions, 1 281 calls.
    pub fn mg() -> NpbKernel {
        Self::build(
            "MG",
            vec![
                RegionSpec::new("zero_u", 1, WorkKind::Init, 1.0),
                RegionSpec::new("gen_v", 1, WorkKind::Init, 1.0),
                RegionSpec::new("psinv", 250, WorkKind::Stencil, 1.0),
                RegionSpec::new("resid", 250, WorkKind::Stencil, 1.0),
                RegionSpec::new("rprj3", 250, WorkKind::Stencil, 0.5),
                RegionSpec::new("interp", 250, WorkKind::Stencil, 0.5),
                RegionSpec::new("norm2u3", 90, WorkKind::Norm, 1.0),
                RegionSpec::new("comm3", 90, WorkKind::Axpy, 0.25),
                RegionSpec::new("zero3", 90, WorkKind::Init, 0.5),
                RegionSpec::new("final_norm", 9, WorkKind::Norm, 1.0),
            ],
        )
    }

    /// FT: 3-D FFT PDE — 9 regions, 112 calls.
    pub fn ft() -> NpbKernel {
        Self::build(
            "FT",
            vec![
                RegionSpec::new("compute_indexmap", 1, WorkKind::Init, 1.0),
                RegionSpec::new("initial_conditions", 1, WorkKind::Random, 1.0),
                RegionSpec::new("fft_init", 1, WorkKind::Init, 1.0),
                RegionSpec::new("evolve", 20, WorkKind::Axpy, 1.0),
                RegionSpec::new("cffts1", 20, WorkKind::Dft, 1.0),
                RegionSpec::new("cffts2", 20, WorkKind::Dft, 1.0),
                RegionSpec::new("cffts3", 20, WorkKind::Dft, 1.0),
                RegionSpec::new("checksum", 20, WorkKind::Norm, 1.0),
                RegionSpec::new("verify", 9, WorkKind::Norm, 0.5),
            ],
        )
    }

    /// CG: conjugate gradient — 15 regions, 2 212 calls.
    pub fn cg() -> NpbKernel {
        Self::build(
            "CG",
            vec![
                RegionSpec::new("makea", 1, WorkKind::Init, 1.0),
                RegionSpec::new("init_x", 1, WorkKind::Init, 1.0),
                RegionSpec::new("matvec_q", 200, WorkKind::SparseMv, 1.0),
                RegionSpec::new("dot_pq", 200, WorkKind::Norm, 1.0),
                RegionSpec::new("axpy_z", 200, WorkKind::Axpy, 1.0),
                RegionSpec::new("axpy_r", 200, WorkKind::Axpy, 1.0),
                RegionSpec::new("dot_rr", 200, WorkKind::Norm, 1.0),
                RegionSpec::new("beta_p", 200, WorkKind::Axpy, 1.0),
                RegionSpec::new("matvec_r", 200, WorkKind::SparseMv, 1.0),
                RegionSpec::new("norm_tmp1", 200, WorkKind::Norm, 1.0),
                RegionSpec::new("norm_tmp2", 200, WorkKind::Norm, 1.0),
                RegionSpec::new("scale_z", 200, WorkKind::Axpy, 1.0),
                RegionSpec::new("norm_resid", 70, WorkKind::Norm, 1.0),
                RegionSpec::new("scale_x", 70, WorkKind::Axpy, 1.0),
                RegionSpec::new("dot_xz", 70, WorkKind::Norm, 1.0),
            ],
        )
    }

    /// LU-HP: LU with hyperplane wavefronts — 16 regions, 298 959 calls.
    /// The hyperplane formulation turns every wavefront slice into its own
    /// (tiny) parallel region, which is why it has by far the most region
    /// calls and the highest collection overhead in the paper.
    pub fn lu_hp() -> NpbKernel {
        let mut specs = vec![
            RegionSpec::new("init_u", 1, WorkKind::Init, 1.0),
            RegionSpec::new("init_rhs", 1, WorkKind::Init, 1.0),
        ];
        const HP_TAGS: [&str; 13] = [
            "jacld_hp1",
            "blts_hp1",
            "jacld_hp2",
            "blts_hp2",
            "jacu_hp1",
            "buts_hp1",
            "jacu_hp2",
            "buts_hp2",
            "rhs_hp1",
            "rhs_hp2",
            "rhs_hp3",
            "rhs_hp4",
            "add_hp",
        ];
        for tag in HP_TAGS {
            specs.push(RegionSpec::new(tag, 22_996, WorkKind::Wavefront, 0.03125));
        }
        specs.push(RegionSpec::new("final_norm", 9, WorkKind::Norm, 1.0));
        Self::build("LU-HP", specs)
    }

    /// LU: LU with the pipelined formulation — 9 regions, 518 calls.
    pub fn lu() -> NpbKernel {
        Self::build(
            "LU",
            vec![
                RegionSpec::new("init_u", 1, WorkKind::Init, 1.0),
                RegionSpec::new("init_rhs", 1, WorkKind::Init, 1.0),
                RegionSpec::new("jacld_blts", 85, WorkKind::LineSolve, 1.0),
                RegionSpec::new("jacu_buts", 85, WorkKind::LineSolve, 1.0),
                RegionSpec::new("rhs", 85, WorkKind::Stencil, 1.0),
                RegionSpec::new("rhs_x", 85, WorkKind::Stencil, 1.0),
                RegionSpec::new("rhs_y", 85, WorkKind::Stencil, 1.0),
                RegionSpec::new("add", 85, WorkKind::Axpy, 1.0),
                RegionSpec::new("norms", 6, WorkKind::Norm, 1.0),
            ],
        )
    }

    /// All eight NPB3.2-OMP kernels, in Table I order.
    pub fn all() -> Vec<NpbKernel> {
        vec![
            Self::bt(),
            Self::ep(),
            Self::sp(),
            Self::mg(),
            Self::ft(),
            Self::cg(),
            Self::lu_hp(),
            Self::lu(),
        ]
    }

    /// Number of distinct parallel regions (Table I column 2).
    pub fn region_count(&self) -> usize {
        self.specs.len()
    }

    /// Total region calls at `class` (Table I column 3 at `Bsim`).
    pub fn region_calls(&self, class: NpbClass) -> u64 {
        self.specs.iter().map(|s| s.calls(class)).sum()
    }

    /// The region specs (for reports).
    pub fn specs(&self) -> &[RegionSpec] {
        &self.specs
    }

    /// Whether this kernel's checksum is invariant across thread counts.
    /// True for every kernel whose reductions sum the same values in any
    /// partition; false for LU-HP, whose wavefront chains are carried
    /// per-thread.
    pub fn is_deterministic(&self) -> bool {
        self.name != "LU-HP"
    }

    /// NPB-style self-verification: run at `threads` threads and compare
    /// the checksum against a fresh single-thread reference run.
    pub fn verify(&self, threads: usize, class: NpbClass) -> Verification {
        if !self.is_deterministic() {
            return Verification::NotApplicable;
        }
        let reference = {
            let rt = OpenMp::with_threads(1);
            self.run(&rt, class)
        };
        let got = {
            let rt = OpenMp::with_threads(threads);
            self.run(&rt, class)
        };
        let scale = reference.abs().max(1e-30);
        let rel_error = ((got - reference) / scale).abs();
        if rel_error < 1e-9 {
            Verification::Successful { rel_error }
        } else {
            Verification::Failed {
                expected: reference,
                got,
            }
        }
    }

    /// Execute the kernel on `rt` at `class`; returns a checksum (so the
    /// work cannot be optimized away) — deterministic for a given
    /// (class, thread count is irrelevant to the sums used).
    pub fn run(&self, rt: &OpenMp, class: NpbClass) -> f64 {
        let base_n = class.array_len();
        let max_n = self
            .specs
            .iter()
            .map(|s| (base_n as f64 * s.size_factor) as usize)
            .max()
            .unwrap_or(base_n)
            .max(base_n);
        let u = SharedVec::zeros(max_n);
        let v = SharedVec::zeros(max_n);
        let checksum = AtomicU64::new(0f64.to_bits());

        for (spec, handle) in self.specs.iter().zip(&self.handles) {
            let n = ((base_n as f64 * spec.size_factor) as usize).max(32);
            for call in 0..spec.calls(class) {
                run_region(rt, handle, spec.work, &u, &v, n, call, &checksum);
            }
        }
        f64::from_bits(checksum.load(Ordering::Relaxed))
    }
}

#[allow(clippy::too_many_arguments)]
fn run_region(
    rt: &OpenMp,
    handle: &RegionHandle,
    work: WorkKind,
    u: &SharedVec,
    v: &SharedVec,
    n: usize,
    call: u64,
    checksum: &AtomicU64,
) {
    let hi = n as i64 - 1;
    match work {
        WorkKind::Init => rt.parallel_region(handle, |ctx| {
            ctx.for_each(0, hi, |i| unsafe {
                let x = i as f64 + call as f64 * 0.5;
                u.set(i as usize, (x * 1e-3).sin() + 1.0);
            });
        }),
        WorkKind::Stencil => rt.parallel_region(handle, |ctx| {
            ctx.for_each(0, hi, |i| unsafe {
                let i = i as usize;
                let left = u.get(i.saturating_sub(1));
                let right = u.get((i + 1).min(n - 1));
                v.set(i, 0.25 * (left + 2.0 * u.get(i) + right));
            });
            ctx.implicit_barrier();
            ctx.for_each(0, hi, |i| unsafe {
                u.set(i as usize, v.get(i as usize));
            });
        }),
        WorkKind::LineSolve => rt.parallel_region(handle, |ctx| {
            // Rows of 32 elements: dependencies within a row, rows shared.
            let rows = (n / 32).max(1) as i64;
            ctx.for_each(0, rows - 1, |row| unsafe {
                let base = row as usize * 32;
                let mut acc = u.get(base);
                for k in 1..32.min(n - base) {
                    acc = 0.5 * acc + u.get(base + k);
                    u.set(base + k, acc);
                }
            });
        }),
        WorkKind::Axpy => rt.parallel_region(handle, |ctx| {
            ctx.for_each(0, hi, |i| unsafe {
                let i = i as usize;
                u.set(i, u.get(i) + 0.5 * v.get(i));
            });
        }),
        WorkKind::Norm => {
            let acc = AtomicU64::new(0f64.to_bits());
            rt.parallel_region(handle, |ctx| {
                let mut local = 0.0;
                ctx.for_each(0, hi, |i| unsafe {
                    let x = u.get(i as usize);
                    local += x * x;
                });
                ctx.reduction(|| {
                    let cur = f64::from_bits(acc.load(Ordering::Relaxed));
                    acc.store((cur + local).to_bits(), Ordering::Relaxed);
                });
            });
            let norm = f64::from_bits(acc.load(Ordering::Relaxed));
            let cur = f64::from_bits(checksum.load(Ordering::Relaxed));
            checksum.store((cur + norm.sqrt() * 1e-6).to_bits(), Ordering::Relaxed);
        }
        WorkKind::Random => {
            // EP: count pseudo-random points in the unit circle.
            let hits = AtomicU64::new(0);
            rt.parallel_region(handle, |ctx| {
                let mut local = 0u64;
                ctx.for_each(0, hi, |i| {
                    let mut s = (i as u64 + 1)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(call);
                    s ^= s >> 33;
                    let x = (s & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
                    s = s.wrapping_mul(0x2545F4914F6CDD1D);
                    let y = (s >> 32) as f64 / u32::MAX as f64;
                    if x * x + y * y <= 1.0 {
                        local += 1;
                    }
                });
                ctx.atomic_update(&hits, |h| h + local);
            });
            let cur = f64::from_bits(checksum.load(Ordering::Relaxed));
            checksum.store(
                (cur + hits.load(Ordering::Relaxed) as f64 * 1e-9).to_bits(),
                Ordering::Relaxed,
            );
        }
        WorkKind::Dft => rt.parallel_region(handle, |ctx| {
            ctx.for_each(0, hi, |i| unsafe {
                let i = i as usize;
                let x = u.get(i);
                let tw = (i as f64 * 0.01).sin();
                v.set(i, x * tw + u.get((i + n / 2) % n) * (1.0 - tw));
            });
            ctx.implicit_barrier();
            ctx.for_each(0, hi, |i| unsafe {
                u.set(i as usize, v.get(i as usize));
            });
        }),
        WorkKind::SparseMv => rt.parallel_region(handle, |ctx| {
            ctx.for_each(0, hi, |i| unsafe {
                let i = i as usize;
                let mut acc = 0.0;
                for j in 0..4usize {
                    acc += u.get((i * 7 + j * 13) % n) * 0.25;
                }
                v.set(i, acc);
            });
        }),
        WorkKind::Wavefront => rt.parallel_region(handle, |ctx| {
            // Hyperplane slice: a dependent chain carried through the
            // thread's own iterations (cross-thread dependencies are what
            // the per-hyperplane *regions* express, not in-region reads).
            let mut prev = 1.0f64;
            ctx.for_each(0, hi, |i| unsafe {
                let i = i as usize;
                let x = 0.99 * u.get(i) + 0.01 * prev;
                u.set(i, x);
                prev = x;
            });
        }),
    }
}

/// Table I of the paper: per NPB3.2-OMP benchmark, in [`NpbKernel::all`]
/// order, its name, number of parallel regions and region calls at
/// class B.
pub const TABLE_I: [(&str, usize, u64); 8] = [
    ("BT", 11, 1_014),
    ("EP", 3, 3),
    ("SP", 14, 3_618),
    ("MG", 10, 1_281),
    ("FT", 9, 112),
    ("CG", 15, 2_212),
    ("LU-HP", 16, 298_959),
    ("LU", 9, 518),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_structure_matches_table_1_exactly() {
        for (kernel, &(name, regions, calls)) in NpbKernel::all().iter().zip(TABLE_I.iter()) {
            assert_eq!(kernel.name, name);
            assert_eq!(kernel.region_count(), regions, "{name} region count");
            assert_eq!(
                kernel.region_calls(NpbClass::Bsim),
                calls,
                "{name} region calls"
            );
        }
    }

    #[test]
    fn class_scaling_preserves_structure() {
        for kernel in NpbKernel::all() {
            let b = kernel.region_calls(NpbClass::Bsim);
            let w = kernel.region_calls(NpbClass::W);
            let s = kernel.region_calls(NpbClass::S);
            assert!(s <= w && w <= b, "{}", kernel.name);
            assert!(s >= kernel.region_count() as u64, "every region runs");
            assert_eq!(kernel.region_count(), kernel.specs().len());
        }
    }

    #[test]
    fn ep_runs_and_checksums() {
        let rt = OpenMp::with_threads(2);
        let k = NpbKernel::ep();
        let c1 = k.run(&rt, NpbClass::S);
        assert!(c1.is_finite() && c1 > 0.0);
    }

    #[test]
    fn kernels_run_at_class_s_with_fork_counts_matching_structure() {
        let rt = OpenMp::with_threads(2);
        for kernel in [NpbKernel::bt(), NpbKernel::cg(), NpbKernel::ft()] {
            let before = rt.region_calls();
            let sum = kernel.run(&rt, NpbClass::S);
            assert!(sum.is_finite(), "{}", kernel.name);
            let forked = rt.region_calls() - before;
            assert_eq!(forked, kernel.region_calls(NpbClass::S), "{}", kernel.name);
        }
    }

    #[test]
    fn verification_succeeds_for_deterministic_kernels() {
        for kernel in [NpbKernel::ep(), NpbKernel::cg(), NpbKernel::mg()] {
            match kernel.verify(3, NpbClass::S) {
                Verification::Successful { rel_error } => {
                    assert!(rel_error < 1e-9, "{}: {rel_error}", kernel.name)
                }
                other => panic!("{}: {other:?}", kernel.name),
            }
        }
    }

    #[test]
    fn lu_hp_verification_is_not_applicable() {
        assert_eq!(
            NpbKernel::lu_hp().verify(2, NpbClass::S),
            Verification::NotApplicable
        );
        assert!(!NpbKernel::lu_hp().is_deterministic());
        assert!(NpbKernel::bt().is_deterministic());
    }

    #[test]
    fn checksums_are_deterministic_across_thread_counts() {
        // Norm and Random reductions are order-insensitive sums of the
        // same values, so 1-thread and 4-thread runs agree closely.
        let k = NpbKernel::ft();
        let rt1 = OpenMp::with_threads(1);
        let rt4 = OpenMp::with_threads(4);
        let a = k.run(&rt1, NpbClass::S);
        let b = k.run(&rt4, NpbClass::S);
        let rel = ((a - b) / a.max(1e-12)).abs();
        assert!(rel < 1e-6, "a={a} b={b}");
    }
}
