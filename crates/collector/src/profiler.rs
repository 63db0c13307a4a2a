//! The prototype performance measurement tool of the paper's §V.
//!
//! On attach it "initiates a start request and registers for the fork,
//! join, and implicit barrier events. The callback routine that is invoked
//! each time a registered event occurs at runtime stores a sample of a
//! hardware-based time counter. Furthermore, to estimate the potential
//! overheads from callstack retrieval, the tool also records the current
//! implementation-model callstack for each join event."
//!
//! [`Mode::CallbacksOnly`] keeps the callbacks registered but empty, which
//! is how the §V-B breakdown separates the cost of runtime↔collector
//! communication (event dispatch + callback invocation) from the cost of
//! performance measurement and storage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::sync::Mutex;

use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::{ApiHealth, OraResult, Request};
use psx::unwind::Backtrace;

use crate::clock;
use crate::discovery::RuntimeHandle;
use crate::lanes::{self, BarrierTimes, Events, RegionTimer};
use crate::report;

/// What the registered callbacks do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Sample the time counter and store measurements (the full tool).
    #[default]
    Full,
    /// Callbacks fire but record nothing — isolates the communication
    /// component of the overhead (paper §V-B).
    CallbacksOnly,
}

/// Profiler configuration.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Callback behaviour.
    pub mode: Mode,
    /// Record the implementation-model callstack at each join event.
    pub capture_callstacks: bool,
    /// Register for implicit-barrier events and accumulate per-thread
    /// barrier time.
    pub track_barriers: bool,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            mode: Mode::Full,
            capture_callstacks: true,
            track_barriers: true,
        }
    }
}

/// The profiler's per-event lane: region timing, implicit-barrier time
/// and join callstacks. [`ToolSuite`](crate::ToolSuite) runs the same
/// lane from its multiplexed callback.
pub(crate) struct ProfileLane {
    mode: Mode,
    capture_callstacks: bool,
    regions: RegionTimer,
    barriers: BarrierTimes,
    /// (duration ticks, implementation callstack) per join.
    stacks: Mutex<Vec<(u64, Backtrace)>>,
    events: AtomicU64,
}

impl ProfileLane {
    pub(crate) fn new(config: &ProfilerConfig) -> ProfileLane {
        ProfileLane {
            mode: config.mode,
            capture_callstacks: config.capture_callstacks,
            regions: RegionTimer::default(),
            barriers: BarrierTimes::default(),
            stacks: Mutex::new(Vec::new()),
            events: AtomicU64::new(0),
        }
    }

    pub(crate) fn on_event(&self, d: &EventData) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if self.mode == Mode::CallbacksOnly {
            return;
        }
        let now = clock::ticks();
        match d.event {
            Event::Fork => self.regions.fork(d.region_id, now),
            Event::Join => {
                let dur = self.regions.join(d.region_id, now);
                if self.capture_callstacks {
                    let bt = psx::capture();
                    self.stacks.lock().push((dur, bt));
                }
            }
            Event::ThreadBeginImplicitBarrier => self.barriers.begin(d.gtid, now),
            Event::ThreadEndImplicitBarrier => self.barriers.end(d.gtid, now),
            _ => {}
        }
    }

    /// Assemble the offline profile ("reconstructing the callstack to
    /// provide a user view of the program is done offline after the
    /// application finishes", paper §IV).
    pub(crate) fn profile(&self, api_health: ApiHealth) -> Profile {
        let (call_tree, join_samples) = call_tree(&self.stacks.lock());
        Profile {
            regions: self.regions.profiles(),
            threads: self.barriers.profiles(),
            call_tree,
            events_observed: self.events.load(Ordering::Relaxed),
            join_samples,
            api_health,
        }
    }
}

/// Offline user-model reconstruction of `(duration ticks, callstack)`
/// samples into a call tree weighted by duration.
pub(crate) fn call_tree(stacks: &[(u64, Backtrace)]) -> (psx::CallTree, u64) {
    let table = psx::SymbolTable::global();
    let mut tree = psx::CallTree::new();
    for (dur, bt) in stacks {
        tree.add(&psx::reconstruct(bt, table), clock::to_secs(*dur));
    }
    (tree, stacks.len() as u64)
}

/// An attached profiler. Dropping it without [`Profiler::finish`] leaves
/// the runtime collecting into a dead buffer; always call `finish`.
pub struct Profiler {
    handle: RuntimeHandle,
    lane: Arc<ProfileLane>,
}

impl Profiler {
    /// Attach to a runtime: send `Start` and register the fork/join (and
    /// optionally implicit-barrier) callbacks.
    pub fn attach(handle: RuntimeHandle, config: ProfilerConfig) -> OraResult<Profiler> {
        let lane = Arc::new(ProfileLane::new(&config));
        let events: &[Event] = if config.track_barriers {
            &[
                Event::Fork,
                Event::Join,
                Event::ThreadBeginImplicitBarrier,
                Event::ThreadEndImplicitBarrier,
            ]
        } else {
            &[Event::Fork, Event::Join]
        };
        let cb = lane.clone();
        lanes::attach(
            &handle,
            Events::Only(events),
            Arc::new(move |d: &EventData| cb.on_event(d)),
        )?;
        Ok(Profiler { handle, lane })
    }

    /// Attach with the default configuration (the paper's tool).
    pub fn attach_default(handle: RuntimeHandle) -> OraResult<Profiler> {
        Self::attach(handle, ProfilerConfig::default())
    }

    /// Suspend event generation (`OMP_REQ_PAUSE`).
    pub fn pause(&self) -> OraResult<()> {
        self.handle.request_one(Request::Pause).map(|_| ())
    }

    /// Resume event generation.
    pub fn resume(&self) -> OraResult<()> {
        self.handle.request_one(Request::Resume).map(|_| ())
    }

    /// Events observed so far.
    pub fn events_observed(&self) -> u64 {
        self.lane.events.load(Ordering::Relaxed)
    }

    /// Stop collection and assemble the offline profile.
    pub fn finish(self) -> Profile {
        let _ = self.handle.request_one(Request::Stop);
        // Health counters are lifetime totals and the query is answerable
        // in every phase, so post-Stop is fine.
        self.lane
            .profile(self.handle.query_health().unwrap_or_default())
    }
}

/// Aggregated statistics of one parallel region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionProfile {
    /// The runtime-assigned region ID.
    pub region_id: u64,
    /// Times the region was entered. With unique IDs per fork this is 1;
    /// it exists for collectors that key regions by callsite.
    pub calls: u64,
    /// Total fork→join wall time.
    pub total_secs: f64,
    /// Mean fork→join wall time.
    pub mean_secs: f64,
    /// Fastest instance.
    pub min_secs: f64,
    /// Slowest instance.
    pub max_secs: f64,
}

/// Per-thread implicit-barrier time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadProfile {
    /// Thread ID.
    pub gtid: usize,
    /// Total time in implicit barriers.
    pub ibar_secs: f64,
    /// Barrier episodes observed.
    pub ibar_count: u64,
}

/// The offline profile produced by [`Profiler::finish`].
pub struct Profile {
    /// Per-region statistics, sorted by region ID.
    pub regions: Vec<RegionProfile>,
    /// Per-thread barrier statistics (threads that hit barriers only).
    pub threads: Vec<ThreadProfile>,
    /// User-model call tree built from the join-event callstacks, weighted
    /// by region duration.
    pub call_tree: psx::CallTree,
    /// Total events the callbacks observed.
    pub events_observed: u64,
    /// Join callstack samples recorded.
    pub join_samples: u64,
    /// The runtime's fault-isolation counters at finish time
    /// (`OMP_REQ_HEALTH`): callback panics caught, callbacks
    /// quarantined, sequence errors.
    pub api_health: ApiHealth,
}

impl Profile {
    /// Number of parallel regions profiled.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total fork→join time across all regions.
    pub fn total_region_secs(&self) -> f64 {
        self.regions.iter().map(|r| r.total_secs).sum()
    }

    /// Render the profile as text tables plus the user-model call tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&report::table(
            &[
                "region", "calls", "total(s)", "mean(us)", "min(us)", "max(us)",
            ],
            self.regions.iter().map(|r| {
                vec![
                    r.region_id.to_string(),
                    r.calls.to_string(),
                    format!("{:.6}", r.total_secs),
                    format!("{:.2}", r.mean_secs * 1e6),
                    format!("{:.2}", r.min_secs * 1e6),
                    format!("{:.2}", r.max_secs * 1e6),
                ]
            }),
        ));
        if !self.threads.is_empty() {
            out.push('\n');
            out.push_str(&report::table(
                &["thread", "ibar(s)", "ibar episodes"],
                self.threads.iter().map(|t| {
                    vec![
                        t.gtid.to_string(),
                        format!("{:.6}", t.ibar_secs),
                        t.ibar_count.to_string(),
                    ]
                }),
            ));
        }
        if self.join_samples > 0 {
            out.push_str("\nuser-model call tree (inclusive seconds):\n");
            out.push_str(&self.call_tree.render());
        }
        if self.api_health.faulted() {
            out.push_str(&format!(
                "\nFAULTS: {} callback panic(s) caught, {} callback(s) quarantined \
                 (profile may be partial; see `omp_prof health`)\n",
                self.api_health.callback_panics, self.api_health.callbacks_quarantined
            ));
        }
        out
    }
}
