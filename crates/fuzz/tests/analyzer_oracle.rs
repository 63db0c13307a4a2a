//! Analyzer-oracle checks: traces with a *planted* detrimental task
//! pattern must be flagged by `ora_trace::analyze`, and traces from
//! healthy task shapes must come back clean. This pins the analyzer's
//! thresholds against the real runtime's event stream; a property that
//! depends on how the host schedules threads is pinned on a synthetic
//! timeline with exact ticks instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use collector::discovery::RuntimeHandle;
use collector::modes::CollectionConfig;
use omprt::OpenMp;
use ora_core::event::Event;
use ora_fuzz::{run_under, Op, Scenario, SchedSpec};
use ora_trace::analyze::{analyze, AnalyzeConfig, PatternKind};
use ora_trace::{merge_ranks, RankedEvent, TraceEvent, TraceReader};

/// Run the planted-pattern region program under the streaming tracer
/// and return the merged single-rank timeline.
fn traced_events(body: impl Fn(&omprt::ParCtx<'_>) + Sync) -> Vec<ora_trace::RankedEvent> {
    let rt = OpenMp::with_threads(4);
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");
    let active = CollectionConfig::StreamingTrace
        .attach(&handle)
        .expect("attach tracer");
    rt.parallel(&body);
    drop(rt);
    let (_, trace) = active.finish_with_trace().expect("finish trace");
    let reader = TraceReader::from_bytes(trace.expect("trace bytes")).expect("decode");
    merge_ranks(&[reader]).expect("merge")
}

/// Like [`traced_events`] but with real nesting enabled and the runtime
/// handle passed to the body, so region programs can fork sub-teams.
fn traced_events_nested(
    threads: usize,
    body: impl Fn(&OpenMp, &omprt::ParCtx<'_>) + Sync,
) -> Vec<ora_trace::RankedEvent> {
    let rt = OpenMp::with_config(omprt::Config {
        num_threads: threads,
        nested: true,
        ..omprt::Config::default()
    });
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");
    let active = CollectionConfig::StreamingTrace
        .attach(&handle)
        .expect("attach tracer");
    rt.parallel(|ctx| body(&rt, ctx));
    drop(rt);
    let (_, trace) = active.finish_with_trace().expect("finish trace");
    let reader = TraceReader::from_bytes(trace.expect("trace bytes")).expect("decode");
    merge_ranks(&[reader]).expect("merge")
}

/// An explicit-barrier episode: region, `(gtid, tick, wait id)`
/// arrivals, release tick.
type Episode = (u64, Vec<(usize, u64, u64)>, u64);

/// `episodes` as rank-0 records: each arrival begins the barrier and
/// ends it at the release tick (`seq` follows the tick).
fn barrier_records(episodes: &[Episode]) -> Vec<RankedEvent> {
    let mut out = Vec::new();
    for (region_id, arrivals, release) in episodes {
        let (region_id, release) = (*region_id, *release);
        for &(gtid, begin, wait_id) in arrivals {
            for (tick, event) in [
                (begin, Event::ThreadBeginExplicitBarrier),
                (release, Event::ThreadEndExplicitBarrier),
            ] {
                let record = TraceEvent {
                    tick,
                    gtid,
                    seq: tick,
                    event,
                    region_id,
                    wait_id,
                };
                out.push(RankedEvent { rank: 0, record });
            }
        }
    }
    out.sort_by_key(|e| (e.record.tick, e.record.gtid));
    out
}

#[test]
fn nested_inner_barriers_do_not_pollute_outer_convoy_attribution() {
    // The master (gtid 0) of a 3-thread outer team forks a 2-wide inner
    // team (with gtid 3) that runs two barriers before each of 12 outer
    // barriers. The inner barriers advance the master's wait-id counter,
    // so its outer arrivals carry wait IDs out of lockstep with its
    // teammates — the shape that used to scatter real episodes into
    // phantom ones and blame an innocent teammate. Nesting-aware
    // clustering must pin the convoy on the master (the genuine laggard:
    // everyone else waits out its inner excursion) and must not flag the
    // short-lived inner regions at all. Exact ticks keep this independent
    // of how the host schedules a live run (see the live twin below).
    const OUTER: u64 = 1;
    let mut episodes = Vec::new();
    for ep in 0..12u64 {
        let (t, inner, w) = (10_000 * (ep + 1), 100 + ep, 2 * ep);
        episodes.push((inner, vec![(0, t + 10, w + 1), (3, t + 12, 1)], t + 20));
        episodes.push((inner, vec![(0, t + 420, w + 2), (3, t + 25, 2)], t + 430));
        let outer = vec![(0, t + 500, w + 2), (1, t + 5, ep), (2, t + 7, ep)];
        episodes.push((OUTER, outer, t + 505));
    }
    let events = barrier_records(&episodes);

    let report = analyze(&events, &AnalyzeConfig::default());
    let convoys: Vec<_> = report.of_kind(PatternKind::BarrierConvoy).collect();
    assert_eq!(
        convoys.len(),
        1,
        "the master-led outer convoy must be detected, once:\n{}",
        report.render()
    );
    assert!(
        convoys.iter().all(|f| f.gtid == 0 && f.region_id == OUTER),
        "inner-team barriers were misattributed:\n{}",
        report.render()
    );
    assert_eq!(report.findings.len(), 1, "{}", report.render());
}

#[test]
fn nested_inner_barrier_live_trace_has_the_planted_shape() {
    // The live twin of the synthetic timeline above: the real runtime
    // records exactly the planted structure, and no finding can name an
    // inner region (each has 3 barrier episodes, below the convoy
    // floor). Whether the outer convoy clears its waste threshold
    // depends on how the host schedules the threads, so it is pinned on
    // the synthetic timeline instead.
    let events = traced_events_nested(3, |rt, ctx| {
        for _ in 0..12 {
            if ctx.is_master() {
                rt.parallel_n(2, |inner| {
                    inner.barrier();
                    std::thread::sleep(Duration::from_micros(400));
                    inner.barrier();
                });
            }
            ctx.barrier();
        }
    });

    let report = analyze(&events, &AnalyzeConfig::default());
    assert_eq!(report.events_scanned, 256, "{}", report.render());
    assert_eq!(report.regions_scanned, 13, "1 outer + 12 inner regions");
    let outer = events
        .iter()
        .find(|e| e.record.event == Event::Fork)
        .expect("the outer fork comes first")
        .record
        .region_id;
    assert!(
        report.findings.iter().all(|f| f.region_id == outer),
        "a finding names an inner region:\n{}",
        report.render()
    );
}

#[test]
fn planted_serialized_flood_is_flagged_as_serialized_and_starved() {
    // The deliberately detrimental shape: the master floods tied tasks
    // (nobody else may run them) while its three teammates sit in
    // taskwait. Tasks carry real duration so the teammates' wait
    // windows reliably overlap the flood.
    let sum = AtomicU64::new(0);
    let events = traced_events(|ctx| {
        if ctx.thread_num() == 0 {
            for i in 0..24u64 {
                ctx.task(move || std::thread::sleep(Duration::from_micros(300 + i)));
            }
        }
        ctx.barrier();
        ctx.taskwait();
        sum.fetch_add(1, Ordering::Relaxed);
    });

    let report = analyze(&events, &AnalyzeConfig::default());
    assert!(
        report.of_kind(PatternKind::SerializedSpawn).count() >= 1,
        "serialized spawn not flagged:\n{}",
        report.render()
    );
    assert!(
        report.of_kind(PatternKind::Starvation).count() >= 1,
        "starvation not flagged:\n{}",
        report.render()
    );
    // The evidence must point at the master as the serializer and at a
    // non-master thread as starved.
    assert!(report
        .of_kind(PatternKind::SerializedSpawn)
        .all(|f| f.gtid == 0));
    assert!(report.of_kind(PatternKind::Starvation).all(|f| f.gtid != 0));
}

#[test]
fn balanced_task_flood_trace_stays_clean() {
    // Every thread spawns and drains its own share: no starvation, no
    // dominant spawner. Run through the fuzz harness so this is the
    // same trace shape the differential sweep produces.
    let scenario = Scenario {
        threads: 4,
        nested: false,
        schedule: SchedSpec::StaticEven,
        ops: vec![
            Op::TaskFlood {
                count: 32,
                untied: false,
            },
            Op::Barrier,
            Op::TaskFlood {
                count: 24,
                untied: false,
            },
        ],
    };
    let outcome = run_under(&scenario, CollectionConfig::StreamingTrace).expect("run");
    let reader = TraceReader::from_bytes(outcome.trace.expect("trace bytes")).expect("decode");
    let events = merge_ranks(&[reader]).expect("merge");

    let report = analyze(&events, &AnalyzeConfig::default());
    assert!(
        report.findings.is_empty(),
        "balanced flood misflagged:\n{}",
        report.render()
    );
}

#[test]
fn taskless_worksharing_trace_stays_clean() {
    // No task events at all: the analyzer must not invent findings
    // from plain worksharing and barriers.
    let scenario = Scenario {
        threads: 4,
        nested: false,
        schedule: SchedSpec::Dynamic(2),
        ops: vec![
            Op::For {
                sched: SchedSpec::Dynamic(2),
                count: 200,
            },
            Op::Barrier,
            Op::ReduceSum { count: 100 },
        ],
    };
    let outcome = run_under(&scenario, CollectionConfig::StreamingTrace).expect("run");
    let reader = TraceReader::from_bytes(outcome.trace.expect("trace bytes")).expect("decode");
    let events = merge_ranks(&[reader]).expect("merge");

    let report = analyze(&events, &AnalyzeConfig::default());
    assert!(
        report.findings.is_empty(),
        "worksharing misflagged:\n{}",
        report.render()
    );
}
