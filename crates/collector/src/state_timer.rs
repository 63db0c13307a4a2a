//! Per-thread time-in-state accounting.
//!
//! The introduction's motivation for thread states is telling "when a
//! thread performs a fork/join operation and goes from a serial state to
//! another state (i.e. parallel overhead state or parallel work state)".
//! This collector turns the state machinery into a profile: it registers
//! for every event the runtime supports, and at each event (which runs on
//! the firing thread) issues an `OMP_REQ_STATE` query, attributing the
//! time since the thread's previous event to the previously observed
//! state. The result is a per-thread breakdown of work / overhead /
//! barrier / wait / idle time — the classic OpenMP efficiency report.

use std::sync::Arc;

use ora_core::registry::EventData;
use ora_core::request::{OraResult, Request};
use ora_core::state::{ThreadState, ALL_STATES, STATE_COUNT};

use crate::discovery::RuntimeHandle;
use crate::lanes::{self, Events, StateTimes};
use crate::report;

/// An attached state-time profiler.
pub struct StateTimer {
    handle: RuntimeHandle,
    times: Arc<StateTimes>,
}

impl StateTimer {
    /// Attach: send `Start` and register a sampling callback on every
    /// supported event.
    pub fn attach(handle: RuntimeHandle) -> OraResult<StateTimer> {
        let times = Arc::new(StateTimes::default());
        let (t, h) = (times.clone(), handle.clone());
        lanes::attach(
            &handle,
            Events::Supported,
            Arc::new(move |d: &EventData| t.query(&h, d.gtid)),
        )?;
        Ok(StateTimer { handle, times })
    }

    /// Stop collection and produce the per-thread state-time profile.
    pub fn finish(self) -> StateProfile {
        let _ = self.handle.request_one(Request::Stop);
        self.times.profile()
    }
}

/// One thread's accumulated seconds per state.
#[derive(Debug, Clone)]
pub struct ThreadStateTimes {
    /// Thread ID.
    pub gtid: usize,
    /// Seconds attributed to each state, indexed by [`ThreadState::index`].
    pub secs_per_state: [f64; STATE_COUNT],
}

impl ThreadStateTimes {
    /// Seconds the thread spent in `state`.
    pub fn secs(&self, state: ThreadState) -> f64 {
        self.secs_per_state[state.index()]
    }

    /// Total attributed seconds.
    pub fn total(&self) -> f64 {
        self.secs_per_state.iter().sum()
    }

    /// Fraction of attributed time spent productively (work or serial).
    pub fn efficiency(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        (self.secs(ThreadState::Working) + self.secs(ThreadState::Serial)) / total
    }
}

/// The assembled per-thread state-time report.
#[derive(Debug, Clone)]
pub struct StateProfile {
    /// Threads that produced at least one sample.
    pub threads: Vec<ThreadStateTimes>,
    /// Callbacks the timer ran, across threads.
    pub events: u64,
}

impl StateProfile {
    /// Total seconds across threads spent in `state`.
    pub fn total_secs(&self, state: ThreadState) -> f64 {
        self.threads.iter().map(|t| t.secs(state)).sum()
    }

    /// Render the profile as a text table (non-zero states only).
    pub fn render(&self) -> String {
        let active_states: Vec<ThreadState> = ALL_STATES
            .iter()
            .copied()
            .filter(|s| self.total_secs(*s) > 0.0)
            .collect();
        let mut headers = vec!["thread".to_string()];
        headers.extend(active_states.iter().map(|s| s.name().to_string()));
        headers.push("efficiency".to_string());
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        report::table(
            &header_refs,
            self.threads.iter().map(|t| {
                let mut row = vec![t.gtid.to_string()];
                row.extend(active_states.iter().map(|s| format!("{:.6}", t.secs(*s))));
                row.push(format!("{:.1}%", t.efficiency() * 100.0));
                row
            }),
        )
    }
}
