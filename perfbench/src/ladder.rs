//! The collector ladder and its arithmetic.
//!
//! Each rung adds collection machinery on top of the one below it; one
//! sample is a fixed amount of workload work under one rung, and every
//! round runs each rung once, in a seeded random order. From the
//! per-round sample times this module derives:
//!
//! * `run_s.<rung>` — median seconds per sample;
//! * `collector.overhead.<rung>` — median over rounds of rung / `absent`
//!   in the same round (the paper's Fig. 4/5 ratios);
//! * the layer rows, in ns per event: gate `(paused - absent)`, dispatch
//!   `(dispatch - absent)`, state `(state - dispatch)`, ring
//!   `(trace.mem - dispatch)` and wire `(trace - trace.mem)`; where there
//!   is no separate `trace.mem` rung the `trace` rung writes to memory
//!   and the wire row is zero;
//! * the A/A floor: the interquartile range of the paired differences
//!   `aa - absent`, the spread of a delta that should be zero.

use std::collections::BTreeMap;

use crate::stats::{iqr, median};

/// One rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// Nothing attached.
    Absent,
    /// A second `absent`: the A/A control.
    Aa,
    /// `absent` with span recording off (traced run only): the
    /// reference for the tracing overhead.
    Untraced,
    /// Callbacks registered, event generation paused.
    Paused,
    /// Started, a no-op callback on every event (traced run only).
    Dispatch,
    /// Started, a state query on every event.
    State,
    /// The fleet ranks traced into memory instead of a socket (mz-fleet
    /// traced run only).
    TraceMem,
    /// Streaming trace with the default trace configuration.
    Trace,
    /// `trace` with the library-default overhead governor armed.
    Governed,
}

impl Rung {
    /// Name used in metric keys.
    pub const fn key(self) -> &'static str {
        match self {
            Rung::Absent => "absent",
            Rung::Aa => "aa",
            Rung::Untraced => "untraced",
            Rung::Paused => "paused",
            Rung::Dispatch => "dispatch",
            Rung::State => "state",
            Rung::TraceMem => "trace.mem",
            Rung::Trace => "trace",
            Rung::Governed => "governed",
        }
    }

    /// The rungs one run measures. The traced run adds the layer rungs.
    pub fn ladder(traced: bool, fleet: bool) -> Vec<Rung> {
        let mut rungs = vec![
            Rung::Absent,
            Rung::Aa,
            Rung::Paused,
            Rung::State,
            Rung::Trace,
            Rung::Governed,
        ];
        if traced {
            rungs.extend([Rung::Untraced, Rung::Dispatch]);
            if fleet {
                rungs.push(Rung::TraceMem);
            }
        }
        rungs
    }
}

/// Ladder arithmetic over one run's per-round sample times.
#[derive(Debug, Clone)]
pub struct Ladder {
    times: BTreeMap<Rung, Vec<f64>>,
    /// Events one sample fires (the ns-per-event denominator).
    events: f64,
}

/// The per-layer rows, in ns per event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rows {
    /// `(paused - absent) / events`.
    pub gate: f64,
    /// `(dispatch - absent) / events`.
    pub dispatch: f64,
    /// `(state - dispatch) / events`.
    pub state: f64,
    /// `(trace.mem - dispatch) / events`.
    pub ring: f64,
    /// `(trace - trace.mem) / events`; 0 without a `trace.mem` rung.
    pub wire: f64,
}

/// How the layer rows add up against the end-to-end trace delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    /// `gate + dispatch + ring + wire`, ns per event.
    pub rows_ns: f64,
    /// `(trace - absent) / events`, ns per event.
    pub delta_ns: f64,
    /// The A/A floor, ns per event.
    pub floor_ns: f64,
}

impl Reconciliation {
    /// Whether the rows sum to the delta within the A/A floor.
    pub fn holds(&self) -> bool {
        (self.rows_ns - self.delta_ns).abs() <= self.floor_ns
    }
}

impl Ladder {
    /// `times[rung][round]` is the seconds of the sample `rung` ran in
    /// `round`; every rung has one entry per round.
    pub fn new(times: BTreeMap<Rung, Vec<f64>>, events: f64) -> Ladder {
        Ladder { times, events }
    }

    /// Samples per rung.
    pub fn rounds(&self) -> usize {
        self.times.values().map(Vec::len).min().unwrap_or(0)
    }

    /// Per-round seconds of `rung`.
    pub fn samples(&self, rung: Rung) -> &[f64] {
        self.times.get(&rung).map_or(&[], Vec::as_slice)
    }

    /// Median seconds per sample of `rung`.
    pub fn run_s(&self, rung: Rung) -> Option<f64> {
        let xs = self.times.get(&rung)?;
        (!xs.is_empty()).then(|| median(xs))
    }

    fn ratios(&self, rung: Rung, base: Rung) -> Vec<f64> {
        self.samples(rung)
            .iter()
            .zip(self.samples(base))
            .map(|(x, b)| x / b)
            .collect()
    }

    /// Median over rounds of `rung / absent` in the same round.
    pub fn overhead(&self, rung: Rung) -> Option<f64> {
        let r = self.ratios(rung, Rung::Absent);
        (!r.is_empty()).then(|| median(&r))
    }

    /// Interquartile range of the per-round `aa / absent` ratios.
    pub fn aa_spread(&self) -> f64 {
        iqr(&self.ratios(Rung::Aa, Rung::Absent))
    }

    /// The A/A floor in seconds: IQR of the paired `aa - absent`.
    pub fn aa_floor_s(&self) -> f64 {
        let diffs: Vec<f64> = self
            .samples(Rung::Aa)
            .iter()
            .zip(self.samples(Rung::Absent))
            .map(|(a, b)| a - b)
            .collect();
        iqr(&diffs)
    }

    fn per_event(&self, hi: Rung, lo: Rung) -> Option<f64> {
        Some((self.run_s(hi)? - self.run_s(lo)?) / self.events * 1e9)
    }

    /// The layer rows, when the run measured the layer rungs.
    pub fn rows(&self) -> Option<Rows> {
        let mem = if self.times.contains_key(&Rung::TraceMem) {
            Rung::TraceMem
        } else {
            Rung::Trace
        };
        Some(Rows {
            gate: self.per_event(Rung::Paused, Rung::Absent)?,
            dispatch: self.per_event(Rung::Dispatch, Rung::Absent)?,
            state: self.per_event(Rung::State, Rung::Dispatch)?,
            ring: self.per_event(mem, Rung::Dispatch)?,
            wire: if mem == Rung::TraceMem {
                self.per_event(Rung::Trace, Rung::TraceMem)?
            } else {
                0.0
            },
        })
    }

    /// `(trace.mem - absent) / events`: the memory-sink part of the
    /// fleet delta, which with the wire row makes up `trace - absent`.
    pub fn mem_ns(&self) -> Option<f64> {
        self.per_event(Rung::TraceMem, Rung::Absent)
    }

    /// The layer rows against the end-to-end trace delta.
    pub fn reconcile(&self) -> Option<Reconciliation> {
        let rows = self.rows()?;
        Some(Reconciliation {
            rows_ns: rows.gate + rows.dispatch + rows.ring + rows.wire,
            delta_ns: self.per_event(Rung::Trace, Rung::Absent)?,
            floor_ns: self.aa_floor_s() / self.events * 1e9,
        })
    }

    /// Whether `paused` sits within the A/A spread of `absent`: a dormant
    /// collector may not read faster (or slower) than the noise allows.
    pub fn paused_within_aa(&self) -> Option<bool> {
        let paused = self.overhead(Rung::Paused)?;
        let aa = self.overhead(Rung::Aa)?;
        Some((paused - 1.0).abs() <= (aa - 1.0).abs() + self.aa_spread())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(rows: &[(Rung, &[f64])], events: f64) -> Ladder {
        Ladder::new(
            rows.iter().map(|(r, xs)| (*r, xs.to_vec())).collect(),
            events,
        )
    }

    /// Synthetic samples: absent 1.0 s, paused 1.001 s and so on, over
    /// 1e6 events, so every row is a whole number of ns/event.
    fn synthetic(with_mem: bool) -> Ladder {
        let mut rows: Vec<(Rung, &[f64])> = vec![
            (Rung::Absent, &[1.0, 1.0, 1.0]),
            (Rung::Aa, &[1.0, 1.0, 1.0]),
            (Rung::Paused, &[1.001, 1.001, 1.001]),
            (Rung::Dispatch, &[1.004, 1.004, 1.004]),
            (Rung::State, &[1.044, 1.044, 1.044]),
            (Rung::Trace, &[1.030, 1.030, 1.030]),
            (Rung::Governed, &[1.010, 1.010, 1.010]),
        ];
        if with_mem {
            rows.push((Rung::TraceMem, &[1.020, 1.020, 1.020]));
        }
        ladder(&rows, 1e6)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn rows_are_rung_differences_per_event() {
        let rows = synthetic(false).rows().expect("layer rungs present");
        assert!(close(rows.gate, 1.0), "{rows:?}");
        assert!(close(rows.dispatch, 4.0), "{rows:?}");
        assert!(close(rows.state, 40.0), "{rows:?}");
        assert!(close(rows.ring, 26.0), "{rows:?}");
        assert_eq!(rows.wire, 0.0);
    }

    #[test]
    fn fleet_rows_split_the_trace_delta_exactly() {
        let l = synthetic(true);
        let rows = l.rows().unwrap();
        assert!(close(rows.ring, 16.0), "{rows:?}");
        assert!(close(rows.wire, 10.0), "{rows:?}");
        // trace.mem row + wire row == (trace - absent) / events, exactly.
        let delta = l.reconcile().unwrap().delta_ns;
        assert!(close(l.mem_ns().unwrap() + rows.wire, delta));
        assert!(close(delta, 30.0));
    }

    #[test]
    fn reconciliation_residual_is_the_gate_row() {
        // gate + dispatch + ring = (trace - absent) + (paused - absent):
        // the rows add up to the delta exactly when paused costs nothing.
        let r = synthetic(false).reconcile().unwrap();
        assert!(close(r.rows_ns - r.delta_ns, 1.0), "{r:?}");
        assert_eq!(r.floor_ns, 0.0);
        assert!(!r.holds(), "a 1 ns residual exceeds a zero floor");
        let noisy = ladder(
            &[
                (Rung::Absent, &[1.0, 1.0, 1.0, 1.0]),
                (Rung::Aa, &[0.996, 0.998, 1.002, 1.004]),
                (Rung::Paused, &[1.001; 4]),
                (Rung::Dispatch, &[1.004; 4]),
                (Rung::State, &[1.044; 4]),
                (Rung::Trace, &[1.030; 4]),
            ],
            1e6,
        );
        let r = noisy.reconcile().unwrap();
        // IQR of (-4, -2, 2, 4) ms is 5 ms = 5 ns/event ≥ 1.
        assert!(close(r.floor_ns, 5.0), "{r:?}");
        assert!(r.holds());
    }

    #[test]
    fn overhead_is_the_median_of_same_round_ratios() {
        let l = ladder(
            &[
                (Rung::Absent, &[1.0, 2.0, 4.0]),
                (Rung::Aa, &[1.0, 2.0, 4.0]),
                (Rung::Trace, &[1.5, 2.0, 6.0]),
                (Rung::Paused, &[1.0, 2.2, 4.0]),
            ],
            10.0,
        );
        // Ratios 1.5, 1.0, 1.5: the median pairs samples by round, so a
        // slow round does not leak into the ratio.
        assert_eq!(l.overhead(Rung::Trace), Some(1.5));
        assert_eq!(l.run_s(Rung::Trace), Some(2.0));
        assert_eq!(l.overhead(Rung::Aa), Some(1.0));
        assert_eq!(l.aa_spread(), 0.0);
        assert_eq!(l.paused_within_aa(), Some(true));
        assert_eq!(l.rounds(), 3);
        assert_eq!(l.rows(), None, "no dispatch rung in an untraced run");
    }

    #[test]
    fn paused_faster_than_noise_allows_is_flagged() {
        let l = ladder(
            &[
                (Rung::Absent, &[1.0; 4]),
                (Rung::Aa, &[0.99, 1.0, 1.0, 1.01]),
                (Rung::Paused, &[0.8; 4]),
            ],
            1.0,
        );
        assert_eq!(l.paused_within_aa(), Some(false));
    }

    #[test]
    fn ladders_list_layer_rungs_only_when_traced() {
        assert_eq!(Rung::ladder(false, false).len(), 6);
        assert!(!Rung::ladder(false, true).contains(&Rung::TraceMem));
        assert!(Rung::ladder(true, false).contains(&Rung::Dispatch));
        assert!(!Rung::ladder(true, false).contains(&Rung::TraceMem));
        assert!(Rung::ladder(true, true).contains(&Rung::TraceMem));
    }
}
