//! The collector core every tool is built on.
//!
//! ORA gives each event one callback slot (paper §IV-C), so a tool is a
//! single attachment: [`attach`] sends `Start` and registers one
//! callback, and that callback feeds the lanes below. The standalone
//! collectors feed one lane each; [`ToolSuite`] feeds several from one
//! callback.
//!
//! [`ToolSuite`]: crate::suite::ToolSuite

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::event::{Event, ALL_EVENTS, EVENT_COUNT};
use ora_core::registry::{Callback, EventData};
use ora_core::request::{OraError, OraResult, Request, Response};
use ora_core::state::{ThreadState, STATE_COUNT};
use ora_core::sync::{Mutex, MutexGuard};
use ora_trace::{RawRecord, RingSet};

use crate::clock;
use crate::discovery::RuntimeHandle;
use crate::profiler::{RegionProfile, ThreadProfile};
use crate::state_timer::{StateProfile, ThreadStateTimes};

/// Highest thread ID the per-thread accumulators cover.
pub const MAX_THREADS: usize = 256;

/// Which events an attachment registers.
#[derive(Debug, Clone, Copy)]
pub enum Events<'a> {
    /// Every event the runtime supports, planned from the capabilities
    /// bitmap (one round trip instead of per-event probing).
    Supported,
    /// Exactly these events.
    Only(&'a [Event]),
}

/// Send `Start`, then register `callback` for every event in `events`.
/// Registrations the runtime rejects as unsupported are skipped (the
/// paper's runtime rejects atomic-wait events, for instance); any other
/// failure aborts the attach.
pub fn attach(handle: &RuntimeHandle, events: Events<'_>, callback: Callback) -> OraResult<()> {
    handle.request_one(Request::Start)?;
    let planned = match events {
        Events::Only(list) => list.to_vec(),
        Events::Supported => handle
            .request_one(Request::QueryCapabilities)
            .ok()
            .and_then(|resp| resp.supported_events())
            .unwrap_or_else(|| ALL_EVENTS.to_vec()),
    };
    for event in planned {
        match handle.register(event, callback.clone()) {
            Ok(_) | Err(OraError::UnsupportedEvent) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[derive(Default, Clone, Copy)]
struct RegionAccum {
    calls: u64,
    total_ticks: u64,
    min_ticks: u64,
    max_ticks: u64,
}

/// Fork→join timing per parallel region.
#[derive(Default)]
pub struct RegionTimer {
    /// Fork tick per in-flight region (master-only writers).
    fork_tick: Mutex<HashMap<u64, u64>>,
    regions: Mutex<HashMap<u64, RegionAccum>>,
}

impl RegionTimer {
    /// A region forked at `now`.
    pub fn fork(&self, region_id: u64, now: u64) {
        self.fork_tick.lock().insert(region_id, now);
    }

    /// The fork→`now` ticks of an in-flight region, forgetting its fork
    /// (0 if the fork was not seen). Does not accumulate.
    pub fn close(&self, region_id: u64, now: u64) -> u64 {
        let start = self.fork_tick.lock().remove(&region_id);
        start.map(|t| now.saturating_sub(t)).unwrap_or(0)
    }

    /// A region joined at `now`: accumulate and return its duration.
    pub fn join(&self, region_id: u64, now: u64) -> u64 {
        let dur = self.close(region_id, now);
        let mut regions = self.regions.lock();
        let acc = regions.entry(region_id).or_default();
        acc.calls += 1;
        acc.total_ticks += dur;
        acc.min_ticks = if acc.calls == 1 {
            dur
        } else {
            acc.min_ticks.min(dur)
        };
        acc.max_ticks = acc.max_ticks.max(dur);
        dur
    }

    /// Per-region statistics, sorted by region ID.
    pub fn profiles(&self) -> Vec<RegionProfile> {
        let mut regions: Vec<RegionProfile> = self
            .regions
            .lock()
            .iter()
            .map(|(&region_id, acc)| RegionProfile {
                region_id,
                calls: acc.calls,
                total_secs: clock::to_secs(acc.total_ticks),
                mean_secs: clock::to_secs(acc.total_ticks) / acc.calls.max(1) as f64,
                min_secs: clock::to_secs(acc.min_ticks),
                max_secs: clock::to_secs(acc.max_ticks),
            })
            .collect();
        regions.sort_by_key(|r| r.region_id);
        regions
    }
}

/// One locked slot per thread ID below [`MAX_THREADS`]; the firing
/// thread locks only its own.
struct PerThread<T>(Vec<Mutex<T>>);

impl<T: Default> Default for PerThread<T> {
    fn default() -> Self {
        PerThread((0..MAX_THREADS).map(|_| Mutex::default()).collect())
    }
}

impl<T> PerThread<T> {
    fn get(&self, gtid: usize) -> Option<MutexGuard<'_, T>> {
        self.0.get(gtid).map(Mutex::lock)
    }

    fn locked(&self) -> impl Iterator<Item = (usize, MutexGuard<'_, T>)> {
        self.0.iter().map(Mutex::lock).enumerate()
    }
}

#[derive(Default)]
struct BarrierSlot {
    begin_tick: u64,
    ticks: u64,
    count: u64,
}

/// Per-thread implicit-barrier time.
#[derive(Default)]
pub struct BarrierTimes(PerThread<BarrierSlot>);

impl BarrierTimes {
    /// Thread `gtid` entered an implicit barrier at `now`.
    pub fn begin(&self, gtid: usize, now: u64) {
        if let Some(mut slot) = self.0.get(gtid) {
            slot.begin_tick = now;
        }
    }

    /// Thread `gtid` left an implicit barrier at `now`.
    pub fn end(&self, gtid: usize, now: u64) {
        let Some(mut slot) = self.0.get(gtid) else {
            return;
        };
        if slot.begin_tick != 0 {
            slot.ticks += now.saturating_sub(slot.begin_tick);
            slot.count += 1;
            slot.begin_tick = 0;
        }
    }

    /// Per-thread barrier statistics (threads that hit barriers only).
    pub fn profiles(&self) -> Vec<ThreadProfile> {
        self.0
            .locked()
            .filter(|(_, slot)| slot.count > 0)
            .map(|(gtid, slot)| ThreadProfile {
                gtid,
                ibar_secs: clock::to_secs(slot.ticks),
                ibar_count: slot.count,
            })
            .collect()
    }
}

#[derive(Default)]
struct StateSlot {
    events: u64,
    last_tick: u64,
    last_state: Option<ThreadState>,
    per_state: [u64; STATE_COUNT],
}

/// Per-thread time-in-state: each sample attributes the time since the
/// thread's previous sample to the state that previous sample observed.
#[derive(Default)]
pub struct StateTimes(PerThread<StateSlot>);

impl StateTimes {
    /// One callback on thread `gtid` at `now`, which observed `state`
    /// (`None` when the state query failed: the callback is counted but
    /// attributes nothing). The count lives in the slot the sample
    /// already locks, so counting adds no shared atomic.
    pub fn sample(&self, gtid: usize, now: u64, state: Option<ThreadState>) {
        let Some(mut slot) = self.0.get(gtid) else {
            return;
        };
        slot.events += 1;
        let Some(state) = state else {
            return;
        };
        if let Some(prev) = slot.last_state {
            slot.per_state[prev.index()] += now.saturating_sub(slot.last_tick);
        }
        slot.last_tick = now;
        slot.last_state = Some(state);
    }

    /// Query the calling thread's state over the byte protocol (the
    /// callback runs on the firing thread `gtid`) and sample it.
    #[inline]
    pub fn query(&self, handle: &RuntimeHandle, gtid: usize) {
        let state = match handle.request_one(Request::QueryState) {
            Ok(Response::State { state, .. }) => Some(state),
            _ => None,
        };
        self.sample(gtid, clock::ticks(), state);
    }

    /// The per-thread state-time profile (threads with a sample only)
    /// plus the callbacks counted across threads.
    pub fn profile(&self) -> StateProfile {
        let mut profile = StateProfile {
            threads: Vec::new(),
            events: 0,
        };
        for (gtid, slot) in self.0.locked() {
            profile.events += slot.events;
            if slot.last_state.is_some() {
                profile.threads.push(ThreadStateTimes {
                    gtid,
                    secs_per_state: std::array::from_fn(|i| clock::to_secs(slot.per_state[i])),
                });
            }
        }
        profile
    }
}

/// Per-event counters plus one ring record per event.
pub struct TraceLane {
    rings: Arc<RingSet>,
    counts: [AtomicU64; EVENT_COUNT],
}

impl TraceLane {
    /// A lane recording into `rings`.
    pub fn new(rings: Arc<RingSet>) -> TraceLane {
        TraceLane {
            rings,
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Count `d` and record it at the current tick: one relaxed add and
    /// one ring reserve/commit, no lock and no allocation.
    #[inline]
    pub fn record(&self, d: &EventData) {
        self.counts[d.event.index()].fetch_add(1, Ordering::Relaxed);
        self.rings.record(RawRecord {
            tick: clock::ticks(),
            seq: 0, // assigned by the ring
            event: d.event as u32,
            gtid: d.gtid as u32,
            region_id: d.region_id,
            wait_id: d.wait_id,
        });
    }

    /// Occurrences of `event` so far (counted even when the record
    /// itself was dropped by backpressure).
    pub fn count(&self, event: Event) -> u64 {
        self.counts[event.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_timer_accumulates_calls_min_and_max() {
        let t = RegionTimer::default();
        t.fork(1, 100);
        assert_eq!(t.join(1, 130), 30);
        t.fork(1, 200);
        assert_eq!(t.join(1, 210), 10);
        // A join without its fork counts a zero-length call.
        assert_eq!(t.join(2, 500), 0);
        // `close` forgets the fork without accumulating.
        t.fork(3, 10);
        assert_eq!(t.close(3, 15), 5);
        let p = t.profiles();
        assert_eq!(p.len(), 2);
        assert_eq!((p[0].region_id, p[0].calls), (1, 2));
        assert_eq!(p[0].min_secs, clock::to_secs(10));
        assert_eq!(p[0].max_secs, clock::to_secs(30));
        assert_eq!(p[0].total_secs, clock::to_secs(40));
        assert_eq!((p[1].region_id, p[1].calls), (2, 1));
    }

    #[test]
    fn barrier_times_pair_begin_with_end_per_thread() {
        let b = BarrierTimes::default();
        b.begin(0, 10);
        b.begin(1, 12);
        b.end(0, 15);
        b.end(1, 20);
        // An end without a begin is ignored; out-of-range threads too.
        b.end(0, 99);
        b.begin(MAX_THREADS, 1);
        b.end(MAX_THREADS, 2);
        let p = b.profiles();
        assert_eq!(p.len(), 2);
        assert_eq!((p[0].gtid, p[0].ibar_count), (0, 1));
        assert_eq!(p[0].ibar_secs, clock::to_secs(5));
        assert_eq!(p[1].ibar_secs, clock::to_secs(8));
    }

    #[test]
    fn state_times_attribute_to_the_previous_state_and_count_callbacks() {
        let s = StateTimes::default();
        s.sample(0, 100, Some(ThreadState::Serial));
        s.sample(0, 150, Some(ThreadState::Working));
        s.sample(0, 175, None);
        s.sample(0, 180, Some(ThreadState::Serial));
        let p = s.profile();
        assert_eq!(p.events, 4);
        assert_eq!(p.threads.len(), 1);
        assert_eq!(p.threads[0].secs(ThreadState::Serial), clock::to_secs(50));
        assert_eq!(p.threads[0].secs(ThreadState::Working), clock::to_secs(30));
    }
}
