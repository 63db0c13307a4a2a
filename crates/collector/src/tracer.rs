//! Full event tracing — a thin adapter over the `ora-trace` pipeline.
//!
//! The optional ORA events exist "to support tracing"; [`StreamingTracer`]
//! registers for every event the runtime supports and records timestamped
//! records into `ora-trace`'s per-thread lock-free rings (one
//! reserve/commit pair per event — no mutex, no allocation on the hot
//! path). A background drainer epoch-flushes the rings into the binary
//! trace format and streams it into any [`TraceSink`]: a
//! [`ora_trace::FileSink`] for `omp_prof trace record`, a
//! [`ora_trace::MemorySink`] for tools that read the trace back through
//! [`ora_trace::TraceReader`] (merged stably by `(tick, gtid, seq)`).
//! The tracer also keeps per-event counters — which is how
//! `omp_prof paper table1` measures the parallel-region call counts of
//! the paper's Table I (one fork event per region call).

use std::sync::Arc;

use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::{OraError, Request};
use ora_trace::{
    pack_governor_decision, DrainerHealth, RawRecord, Recorder, RecordingStats, TraceConfig,
    TraceError, TraceSink, GOVERNOR_EVENT_CODE,
};

use crate::discovery::RuntimeHandle;
use crate::lanes::{self, Events, TraceLane};

/// Why a streaming tracer could not attach or finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The ORA handshake or registration failed.
    Ora(OraError),
    /// The trace pipeline failed (I/O, encoding).
    Trace(TraceError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Ora(e) => write!(f, "collector API error: {e:?}"),
            StreamError::Trace(e) => write!(f, "trace pipeline error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<OraError> for StreamError {
    fn from(e: OraError) -> Self {
        StreamError::Ora(e)
    }
}

impl From<TraceError> for StreamError {
    fn from(e: TraceError) -> Self {
        StreamError::Trace(e)
    }
}

/// A tracer streaming encoded chunks into an arbitrary [`TraceSink`].
pub struct StreamingTracer<S: TraceSink + 'static> {
    handle: RuntimeHandle,
    lane: Arc<TraceLane>,
    recorder: Recorder<S>,
}

impl<S: TraceSink + 'static> StreamingTracer<S> {
    /// Attach to a runtime, start collection, and register every event
    /// the runtime supports (unsupported registrations are skipped — the
    /// paper's runtime rejects atomic-wait events, for instance).
    /// Events stream into `sink` via the `ora-trace` drainer under
    /// `config`.
    pub fn attach(
        handle: RuntimeHandle,
        config: TraceConfig,
        sink: S,
    ) -> Result<StreamingTracer<S>, StreamError> {
        let recorder = Recorder::start(config, sink)?;
        let lane = Arc::new(TraceLane::new(recorder.rings()));
        let cb = lane.clone();
        lanes::attach(
            &handle,
            Events::Supported,
            Arc::new(move |d: &EventData| cb.record(d)),
        )?;
        Ok(StreamingTracer {
            handle,
            lane,
            recorder,
        })
    }

    /// Occurrences of `event` so far (counted even when the record
    /// itself was dropped by backpressure).
    pub fn count(&self, event: Event) -> u64 {
        self.lane.count(event)
    }

    /// Parallel-region calls observed (fork events).
    pub fn region_calls(&self) -> u64 {
        self.count(Event::Fork)
    }

    /// The runtime handle this tracer is attached through.
    pub fn handle(&self) -> &RuntimeHandle {
        &self.handle
    }

    /// Append the governor's sampling-rate decisions to the trace as
    /// metadata records (event code [`GOVERNOR_EVENT_CODE`]). Call
    /// before [`finish`](Self::finish) so the final drain persists
    /// them; readers drop these records from event streams and surface
    /// them through `TraceReader::governor_timeline`.
    pub fn record_governor_decisions(&self, decisions: &[ora_core::governor::GovernorDecision]) {
        let rings = self.recorder.rings();
        for d in decisions {
            rings.record(RawRecord {
                tick: d.tick,
                seq: 0, // assigned by the ring
                event: GOVERNOR_EVENT_CODE,
                gtid: 0,
                region_id: u64::from(d.event as u32),
                wait_id: pack_governor_decision(d.old_shift, d.new_shift, d.overhead_ppm),
            });
        }
    }

    /// Stop collection, drain everything in flight, write the footer,
    /// and hand back the sink plus the recording's loss accounting.
    pub fn finish(self) -> Result<(S, RecordingStats), StreamError> {
        let _ = self.handle.request_one(Request::Stop);
        Ok(self.recorder.finish()?)
    }

    /// Snapshot of the background drainer's supervision state.
    pub fn health(&self) -> DrainerHealth {
        self.recorder.health()
    }

    /// Whether the drainer has died (panic or sink failure) and the
    /// recording is running in degraded mode — events still count, but
    /// new records are dropped instead of persisted.
    pub fn is_degraded(&self) -> bool {
        self.recorder.is_degraded()
    }
}
