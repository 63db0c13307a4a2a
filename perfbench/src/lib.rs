//! The repository benchmark: the ORA collector ladder timed end to end
//! on three workloads and split across the crates an event crosses.
//! See `README.md` beside this crate for the metrics and how to read a
//! traced run.

pub mod ladder;
pub mod rungs;
pub mod spans;
pub mod stats;
pub mod work;
