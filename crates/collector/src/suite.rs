//! One attachment, every report.
//!
//! ORA gives each event a single callback slot shared by all threads
//! (paper §IV-C), so two tools attached to the same runtime would clobber
//! each other's registrations. Real tools therefore multiplex: register
//! once, fan the stream out internally. [`ToolSuite`] is that multiplexer
//! — a single registration pass that simultaneously produces the
//! profiler's region/barrier report, the tracer's record stream, and the
//! state-timer's per-thread accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ora_core::registry::EventData;
use ora_core::request::{OraError, OraResult, Request};
use ora_trace::analyze::{analyze_reader, AnalyzeConfig};
use ora_trace::{MemorySink, Recorder, TraceConfig, TraceReader};

use crate::discovery::RuntimeHandle;
use crate::lanes::{self, Events, StateTimes, TraceLane};
use crate::profiler::{Profile, ProfileLane, ProfilerConfig};
use crate::state_timer::StateProfile;

/// Which reports the suite assembles.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Produce the profiler report (region timings, barrier times, join
    /// callstacks).
    pub profile: bool,
    /// Keep a trace of at most about this many records (None = no
    /// trace); past it records are dropped and counted.
    pub trace_capacity: Option<usize>,
    /// Produce per-thread time-in-state accounting.
    pub state_times: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            profile: true,
            trace_capacity: Some(65_536),
            state_times: true,
        }
    }
}

/// The lanes one callback fans out to.
struct SuiteState {
    handle: RuntimeHandle,
    profile: Option<ProfileLane>,
    trace: Option<TraceLane>,
    states: Option<StateTimes>,
    events: AtomicU64,
}

impl SuiteState {
    fn on_event(&self, d: &EventData) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = &self.trace {
            trace.record(d);
        }
        if let Some(profile) = &self.profile {
            profile.on_event(d);
        }
        if let Some(states) = &self.states {
            states.query(&self.handle, d.gtid);
        }
    }
}

/// The multiplexing tool.
pub struct ToolSuite {
    handle: RuntimeHandle,
    state: Arc<SuiteState>,
    recorder: Option<Recorder<MemorySink>>,
}

impl ToolSuite {
    /// Attach with `cfg`: one `Start`, one registration pass over every
    /// supported event.
    pub fn attach(handle: RuntimeHandle, cfg: SuiteConfig) -> OraResult<ToolSuite> {
        let recorder = cfg.trace_capacity.map(|cap| {
            Recorder::start(TraceConfig::with_total_capacity(cap), MemorySink::new())
                .expect("memory sink cannot fail")
        });
        let state = Arc::new(SuiteState {
            handle: handle.clone(),
            profile: cfg
                .profile
                .then(|| ProfileLane::new(&ProfilerConfig::default())),
            trace: recorder.as_ref().map(|r| TraceLane::new(r.rings())),
            states: cfg.state_times.then(StateTimes::default),
            events: AtomicU64::new(0),
        });
        let s = state.clone();
        lanes::attach(
            &handle,
            Events::Supported,
            Arc::new(move |d: &EventData| s.on_event(d)),
        )?;
        Ok(ToolSuite {
            handle,
            state,
            recorder,
        })
    }

    /// Events observed so far.
    pub fn events_observed(&self) -> u64 {
        self.state.events.load(Ordering::Relaxed)
    }

    /// Stop collection and assemble every configured report.
    pub fn finish(self) -> SuiteReport {
        let _ = self.handle.request_one(Request::Stop);
        let api_health = self.handle.query_health().unwrap_or_default();
        let s = self.state;
        let trace = self.recorder.map(|recorder| {
            let (sink, _) = recorder.finish().expect("memory sink cannot fail");
            TraceReader::from_bytes(sink.into_bytes()).expect("self-encoded trace decodes")
        });
        SuiteReport {
            profile: s.profile.as_ref().map(|p| p.profile(api_health)),
            trace,
            state_times: s.states.as_ref().map(StateTimes::profile),
        }
    }
}

/// Everything one attachment produced.
pub struct SuiteReport {
    /// Region/barrier/call-tree profile (if configured).
    pub profile: Option<Profile>,
    /// Event trace, decoded in `(tick, gtid, seq)` order (if configured).
    pub trace: Option<TraceReader>,
    /// Per-thread state times (if configured).
    pub state_times: Option<StateProfile>,
}

impl SuiteReport {
    /// Render all configured reports as one text document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(p) = &self.profile {
            out.push_str("=== profile ===\n");
            out.push_str(&p.render());
        }
        if let Some(s) = &self.state_times {
            out.push_str("\n=== state times ===\n");
            out.push_str(&s.render());
        }
        if let Some(t) = &self.trace {
            out.push_str(&format!(
                "\n=== trace === ({} records, {} dropped)\n",
                t.record_count(),
                t.dropped()
            ));
            match analyze_reader(t, &AnalyzeConfig::default()) {
                Ok(analysis) => out.push_str(&analysis.render()),
                Err(e) => out.push_str(&format!("trace does not decode: {e}\n")),
            }
        }
        out
    }
}

/// Attaching two tools to one runtime clobbers registrations — make the
/// failure mode visible for documentation purposes.
pub fn second_attachment_would_clobber(handle: &RuntimeHandle) -> OraResult<()> {
    // A second Start on an already-started API is the canonical signal.
    match handle.request_one(Request::Start) {
        Err(OraError::OutOfSequence) => Ok(()),
        Ok(_) => Err(OraError::Error),
        Err(e) => Err(e),
    }
}
