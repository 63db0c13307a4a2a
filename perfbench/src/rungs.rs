//! The rungs, built from the collector crate's public API.
//!
//! One [`Attached`] is one rung on one runtime (one rank). It is attached
//! before a sample's timed work and detached after it; detaching returns
//! what the rung observed so the sample can check it.

use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use collector::state_timer::StateProfile;
use collector::{ActiveCollection, CollectionConfig, RuntimeHandle, StateTimer, StreamingTracer};
use ora_core::governor::{GovernorConfig, GovernorStatus};
use ora_core::{ApiHealth, CallbackToken, Event, Request, ALL_EVENTS};
use ora_fleet::SocketSink;
use ora_trace::{MemorySink, TraceConfig, TraceSink};

use crate::ladder::Rung;
use crate::spans::Spans;

/// A sink wrapper that counts the encoded bytes passing through it.
pub struct Counted<S> {
    inner: S,
    bytes: u64,
}

impl<S> Counted<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Counted<S> {
        Counted { inner, bytes: 0 }
    }
}

impl<S: TraceSink> TraceSink for Counted<S> {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes += bytes.len() as u64;
        self.inner.write_all(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

enum Kind {
    Nothing,
    Paused(ActiveCollection),
    Dispatch(Arc<AtomicU64>),
    State(StateTimer),
    Memory(Box<StreamingTracer<MemorySink>>),
    Socket(Box<StreamingTracer<Counted<SocketSink>>>),
}

/// One rung attached to one runtime.
pub struct Attached {
    handle: RuntimeHandle,
    governed: bool,
    first_token: u64,
    health: ApiHealth,
    governor: GovernorStatus,
    kind: Kind,
}

/// What a streaming rung recorded.
pub struct TraceOutcome {
    /// Events the tracer's callbacks observed.
    pub observed: u64,
    /// Records persisted.
    pub drained: u64,
    /// Records lost to ring backpressure.
    pub dropped: u64,
    /// Drainer sweeps completed.
    pub heartbeats: u64,
    /// Encoded trace bytes.
    pub bytes: u64,
    /// Seconds the tracer's `finish` (stop, final drain, footer) took.
    pub finish_s: f64,
    /// The encoded trace, for a memory sink.
    pub memory: Option<Vec<u8>>,
    /// The still-open fleet connection, for a socket sink.
    pub socket: Option<SocketSink>,
}

/// Governor counter deltas over one sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct GovernorDelta {
    /// Events that reached admission.
    pub observed: u64,
    /// Events whose callbacks ran.
    pub sampled: u64,
    /// Events sampled out.
    pub skipped: u64,
    /// Completed retunes.
    pub retunes: u64,
}

/// What one rung observed on one runtime over one sample.
pub struct Detached {
    /// `events_sampled` delta of the runtime's health counters: events
    /// whose callbacks ran.
    pub events: u64,
    /// Taskwait begin/end events, where the rung can count them. A
    /// taskwait fires events only when it has tasks to wait for, so
    /// this part of the count varies between identical samples.
    pub taskwait_events: Option<u64>,
    /// Tasks executed by a thread other than their spawner.
    pub tasks_stolen: u64,
    /// Times a thread parked in a taskwait.
    pub taskwait_parks: u64,
    /// Events a paused collector observed (must be 0).
    pub paused_events: Option<u64>,
    /// The state rung's per-thread state times.
    pub state: Option<StateProfile>,
    /// The streaming rungs' recording.
    pub trace: Option<TraceOutcome>,
    /// The governed rung's counters.
    pub governor: Option<GovernorDelta>,
    /// Callback tokens interned while the rung was attached; see
    /// [`Detached::release`].
    interned: Range<u64>,
}

impl Detached {
    /// Forget the callbacks the rung interned. The collectors never
    /// forget them, and each streaming callback holds its recording's
    /// rings (about 50 MB at the default configuration), so without this
    /// memory grows by that much per sample. Freeing the rings takes
    /// milliseconds, so the sample does it after timing its report:
    /// `omp_prof`, which exits instead, never pays it.
    pub fn release(&self, handle: &RuntimeHandle) {
        for id in self.interned.clone() {
            handle.forget_callback(CallbackToken(id));
        }
    }
}

/// The id the next interned callback will get. Interning and forgetting
/// a probe callback reads the runtime's token counter.
fn next_token(handle: &RuntimeHandle) -> u64 {
    let probe = handle.intern_callback(Arc::new(|_| {}));
    handle.forget_callback(probe);
    probe.0 + 1
}

fn err(what: &str, e: impl std::fmt::Debug) -> String {
    format!("{what}: {e:?}")
}

impl Attached {
    /// Attach `rung` to the runtime behind `handle`. Streaming rungs write
    /// to `socket` when given, else to memory.
    pub fn attach(
        rung: Rung,
        handle: &RuntimeHandle,
        socket: Option<SocketSink>,
        spans: &Spans,
    ) -> Result<Attached, String> {
        let _span = spans.span(match rung {
            Rung::Dispatch => "core.attach",
            _ => "collector.attach",
        });
        let first_token = next_token(handle);
        let health = handle.query_health().map_err(|e| err("health", e))?;
        let governor = handle.query_governor().map_err(|e| err("governor", e))?;
        let kind = match rung {
            Rung::Absent | Rung::Aa | Rung::Untraced => Kind::Nothing,
            Rung::Paused => Kind::Paused(
                CollectionConfig::RegisteredPaused
                    .attach(handle)
                    .map_err(|e| err("attach paused", e))?,
            ),
            Rung::Dispatch => Kind::Dispatch(attach_dispatch(handle)?),
            Rung::State => {
                Kind::State(StateTimer::attach(handle.clone()).map_err(|e| err("attach state", e))?)
            }
            Rung::Trace | Rung::TraceMem | Rung::Governed => match socket {
                Some(sink) => Kind::Socket(Box::new(
                    StreamingTracer::attach(
                        handle.clone(),
                        TraceConfig::default(),
                        Counted::new(sink),
                    )
                    .map_err(|e| err("attach trace", e))?,
                )),
                None => Kind::Memory(Box::new(
                    StreamingTracer::attach(
                        handle.clone(),
                        TraceConfig::default(),
                        MemorySink::new(),
                    )
                    .map_err(|e| err("attach trace", e))?,
                )),
            },
        };
        let governed = rung == Rung::Governed;
        if governed {
            // After registration, as `omp_prof` does: installation
            // calibrates against the final registration state.
            handle.install_governor(GovernorConfig::default());
        }
        Ok(Attached {
            handle: handle.clone(),
            governed,
            first_token,
            health,
            governor,
            kind,
        })
    }

    /// Detach after the sample's work (and settle) and report what the
    /// rung observed.
    pub fn detach(self, spans: &Spans) -> Result<Detached, String> {
        let _span = spans.span("collector.detach");
        let handle = self.handle.clone();
        let governor = if self.governed {
            let now = handle.query_governor().map_err(|e| err("governor", e))?;
            Some(GovernorDelta {
                observed: now.events_observed - self.governor.events_observed,
                sampled: now.events_sampled - self.governor.events_sampled,
                skipped: now.events_skipped - self.governor.events_skipped,
                retunes: now.retunes - self.governor.retunes,
            })
        } else {
            None
        };
        let mut out = Detached {
            events: 0,
            taskwait_events: None,
            tasks_stolen: 0,
            taskwait_parks: 0,
            paused_events: None,
            state: None,
            trace: None,
            governor,
            interned: 0..0,
        };
        match self.kind {
            Kind::Nothing => {}
            Kind::Paused(active) => {
                let summary = active.finish().map_err(|e| err("finish paused", e))?;
                out.paused_events = Some(summary.events_observed);
            }
            Kind::Dispatch(taskwaits) => {
                handle
                    .request_one(Request::Stop)
                    .map_err(|e| err("stop", e))?;
                out.taskwait_events = Some(taskwaits.load(Ordering::Relaxed));
            }
            Kind::State(timer) => out.state = Some(timer.finish()),
            Kind::Memory(tracer) => {
                let (trace, taskwaits) = finish_trace(*tracer, spans, |sink| {
                    (sink.bytes().len() as u64, Some(sink.into_bytes()), None)
                })?;
                out.trace = Some(trace);
                out.taskwait_events = taskwaits;
            }
            Kind::Socket(tracer) => {
                let (trace, taskwaits) =
                    finish_trace(*tracer, spans, |sink| (sink.bytes, None, Some(sink.inner)))?;
                out.trace = Some(trace);
                out.taskwait_events = taskwaits;
            }
        }
        if self.governed {
            handle.uninstall_governor();
        }
        out.interned = self.first_token..next_token(&handle);
        let health = handle.query_health().map_err(|e| err("health", e))?;
        out.events = health.events_sampled - self.health.events_sampled;
        out.tasks_stolen = health.tasks_stolen - self.health.tasks_stolen;
        out.taskwait_parks = health.taskwait_parks - self.health.taskwait_parks;
        Ok(out)
    }
}

/// START plus a callback on every supported event. The callbacks do
/// nothing, except on the two taskwait events, where they count, so the
/// sample's fixed event count can be told apart from the varying one.
fn attach_dispatch(handle: &RuntimeHandle) -> Result<Arc<AtomicU64>, String> {
    handle
        .request_one(Request::Start)
        .map_err(|e| err("start", e))?;
    let supported = handle
        .request_one(Request::QueryCapabilities)
        .ok()
        .and_then(|r| r.supported_events())
        .unwrap_or_else(|| ALL_EVENTS.to_vec());
    let taskwaits = Arc::new(AtomicU64::new(0));
    for event in supported {
        let result = if matches!(event, Event::TaskWaitBegin | Event::TaskWaitEnd) {
            let counter = Arc::clone(&taskwaits);
            handle.register(
                event,
                Arc::new(move |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }),
            )
        } else {
            handle.register(event, Arc::new(|_| {}))
        };
        if let Err(e) = result {
            if e != ora_core::OraError::UnsupportedEvent {
                return Err(err("register", e));
            }
        }
    }
    Ok(taskwaits)
}

/// Stop a streaming rung: stop events, count what the callbacks saw,
/// then drain. `open` splits the finished sink into
/// `(bytes, memory trace, socket)`.
fn finish_trace<S: TraceSink + 'static>(
    tracer: StreamingTracer<S>,
    spans: &Spans,
    open: impl FnOnce(S) -> (u64, Option<Vec<u8>>, Option<SocketSink>),
) -> Result<(TraceOutcome, Option<u64>), String> {
    // Stop first, so no callback runs between the count and the drain.
    tracer
        .handle()
        .request_one(Request::Stop)
        .map_err(|e| err("stop", e))?;
    let observed: u64 = ALL_EVENTS.iter().map(|e| tracer.count(*e)).sum();
    let taskwaits = tracer.count(Event::TaskWaitBegin) + tracer.count(Event::TaskWaitEnd);
    let heartbeats = tracer.health().heartbeats;
    let start = Instant::now();
    let finished = {
        let _span = spans.span("trace.finish");
        tracer.finish()
    };
    let (sink, stats) = finished.map_err(|e| err("finish trace", e))?;
    let finish_s = start.elapsed().as_secs_f64();
    let (bytes, memory, socket) = open(sink);
    Ok((
        TraceOutcome {
            observed,
            drained: stats.drained(),
            dropped: stats.dropped(),
            heartbeats,
            bytes,
            finish_s,
            memory,
            socket,
        },
        Some(taskwaits),
    ))
}
