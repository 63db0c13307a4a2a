//! The diff surface: everything the collector rungs must agree on.
//!
//! For one scenario the harness computes the sequential oracle, runs
//! the program under every [`CollectionConfig`] rung, and checks:
//!
//! 1. **Computed results** — per-op values equal the oracle on every
//!    rung (collectors must never perturb the application);
//! 2. **Final thread states** — the post-run probe region fields a
//!    full team and the runtime's fault counters are clean;
//! 3. **Rung invariants** — `Absent`/`RegisteredPaused` observe zero
//!    events, the started rungs observe work;
//! 4. **Trace accounting** (streaming rung) — callback counts, drain
//!    and drop counters, footer, per-thread and per-region partitions,
//!    event pairing, and multi-rank merge determinism all reconcile.
//!    The `governed` rung adds the sampling reconciliation: the
//!    governor's `observed == sampled + skipped` invariant, callbacks
//!    ran exactly for the sampled events, decision records round-trip
//!    through the trace, and sampling never breaks begin/end pairing.
//! 5. **Socket replay** (`socket` rung) — the streaming rung's trace
//!    bytes are re-framed into the producer's sink-write units and
//!    streamed through a loopback `ora-fleet` aggregator daemon; the
//!    daemon's merged store must match the offline merge byte for byte
//!    and its lane accounting must reconcile with the in-process chain.

use collector::modes::CollectionConfig;
use ora_core::event::Event;
use ora_trace::{merge_ranks, TraceEvent, TraceReader};

use crate::exec::{run_under, RunOutcome};
use crate::oracle;
use crate::scenario::Scenario;

/// One failed check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The rung key (`absent`/`paused`/`state`/`trace`/`governed`/
    /// `socket`) or `harness`.
    pub rung: &'static str,
    /// What disagreed.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rung, self.detail)
    }
}

/// Run `scenario` under every rung and collect every disagreement with
/// the oracle. Empty means the scenario passed.
pub fn check_scenario(scenario: &Scenario) -> Vec<Mismatch> {
    check_scenario_rungs(scenario, &CollectionConfig::ALL)
}

/// [`check_scenario`] restricted to a subset of rungs (the CLI's
/// `fuzz --rungs` flag — e.g. the nightly governed-only sweep).
pub fn check_scenario_rungs(scenario: &Scenario, rungs: &[CollectionConfig]) -> Vec<Mismatch> {
    let expected = oracle::expected(scenario);
    let mut mismatches = Vec::new();
    for &rung in rungs {
        let key = rung.key();
        match run_under(scenario, rung) {
            Ok(outcome) => {
                diff_outcome(scenario, &expected, rung, &outcome, &mut mismatches);
            }
            Err(e) => mismatches.push(Mismatch {
                rung: key,
                detail: format!("execution failed: {e}"),
            }),
        }
    }
    mismatches
}

fn diff_outcome(
    scenario: &Scenario,
    expected: &[i64],
    rung: CollectionConfig,
    outcome: &RunOutcome,
    out: &mut Vec<Mismatch>,
) {
    let key = rung.key();
    let mut push = |detail: String| out.push(Mismatch { rung: key, detail });

    // 1. Computed results, op by op.
    for (k, (got, want)) in outcome.results.iter().zip(expected).enumerate() {
        if got != want {
            push(format!(
                "op {k} ({:?}): computed {got}, oracle {want}",
                scenario.ops[k]
            ));
        }
    }

    // 2. Final thread states: full team in the probe region, clean
    //    fault counters.
    if outcome.post_threads != scenario.threads {
        push(format!(
            "post-run probe saw {} thread(s), expected {}",
            outcome.post_threads, scenario.threads
        ));
    }
    if outcome.health.faulted() {
        push(format!(
            "ApiHealth faulted: {} panic(s), {} quarantined, {} sequence error(s)",
            outcome.health.callback_panics,
            outcome.health.callbacks_quarantined,
            outcome.health.sequence_errors
        ));
    }

    // 3. Rung invariants.
    let s = &outcome.summary;
    match rung {
        CollectionConfig::Absent | CollectionConfig::RegisteredPaused => {
            if s.events_observed != 0 {
                push(format!(
                    "{} rung observed {} event(s); must be 0",
                    key, s.events_observed
                ));
            }
        }
        CollectionConfig::StateQueries => {
            if s.events_observed == 0 {
                push("state rung observed no events".into());
            }
        }
        CollectionConfig::StreamingTrace => {
            if s.degraded {
                push("trace pipeline degraded".into());
            }
            if s.events_observed == 0 {
                push("trace rung observed no events".into());
            }
            if s.events_observed != s.records_drained + s.records_dropped {
                push(format!(
                    "event accounting: observed {} != drained {} + dropped {}",
                    s.events_observed, s.records_drained, s.records_dropped
                ));
            }
            match &outcome.trace {
                Some(bytes) => diff_trace(scenario, outcome, bytes, &mut push),
                None => push("trace rung returned no trace bytes".into()),
            }
        }
        CollectionConfig::Governed => {
            if s.degraded {
                push("governed trace pipeline degraded".into());
            }
            if s.events_observed == 0 {
                push("governed rung observed no events".into());
            }
            // Sampling reconciliation, from the quiescent status
            // snapshot: every monitored event was either sampled or
            // skipped, and callbacks ran exactly for the sampled ones.
            match &outcome.governor {
                None => push("governed rung captured no governor status".into()),
                Some(g) => {
                    if g.enabled != 1 {
                        push("governor was not armed on the governed rung".into());
                    }
                    if !g.reconciles() {
                        push(format!(
                            "governor accounting: observed {} != sampled {} + skipped {}",
                            g.events_observed, g.events_sampled, g.events_skipped
                        ));
                    }
                    if g.events_sampled != s.events_observed {
                        push(format!(
                            "governor sampled {} event(s) but callbacks observed {}",
                            g.events_sampled, s.events_observed
                        ));
                    }
                    if s.events_sampled != g.events_sampled || s.events_skipped != g.events_skipped
                    {
                        push(format!(
                            "summary sampling ({}/{}) disagrees with status ({}/{})",
                            s.events_sampled, s.events_skipped, g.events_sampled, g.events_skipped
                        ));
                    }
                }
            }
            // Record accounting: one record per sampled event plus the
            // decision log, nothing more.
            if s.events_observed + s.governor_records != s.records_drained + s.records_dropped {
                push(format!(
                    "governed accounting: observed {} + decisions {} != drained {} + dropped {}",
                    s.events_observed, s.governor_records, s.records_drained, s.records_dropped
                ));
            }
            match &outcome.trace {
                Some(bytes) => diff_governed_trace(scenario, outcome, bytes, &mut push),
                None => push("governed rung returned no trace bytes".into()),
            }
        }
    }

    // 5. Socket replay: stream the recorded bytes through a loopback
    //    aggregator daemon and diff its merged store (reported under
    //    its own `socket` rung key).
    if rung == CollectionConfig::StreamingTrace {
        if let Some(bytes) = &outcome.trace {
            diff_socket(outcome, bytes, out);
        }
    }
}

/// Reconcile the governed rung's persisted trace: the decision log
/// round-trips through the reader's governor timeline, decision records
/// stay out of the event stream, and — whatever sampling rates the
/// governor settled on — begin/end pairing survives intact (the fate
/// stack guarantees an end is sampled iff its begin was).
fn diff_governed_trace(
    scenario: &Scenario,
    outcome: &RunOutcome,
    bytes: &[u8],
    push: &mut impl FnMut(String),
) {
    let s = &outcome.summary;
    let reader = match TraceReader::from_bytes(bytes.to_vec()) {
        Ok(r) => r,
        Err(e) => return push(format!("governed trace does not decode: {e}")),
    };
    if reader.record_count() != s.records_drained {
        push(format!(
            "footer drained {} != summary drained {}",
            reader.record_count(),
            s.records_drained
        ));
    }
    if reader.dropped() != s.records_dropped {
        push(format!(
            "footer dropped {} != summary dropped {}",
            reader.dropped(),
            s.records_dropped
        ));
    }
    match reader.governor_timeline() {
        Ok(timeline) => {
            if timeline.len() as u64 != s.governor_records {
                push(format!(
                    "governor timeline has {} decision(s), summary persisted {}",
                    timeline.len(),
                    s.governor_records
                ));
            }
        }
        Err(e) => push(format!("governor timeline does not decode: {e}")),
    }
    let records = match reader.records() {
        Ok(r) => r,
        Err(e) => return push(format!("governed trace records do not decode: {e}")),
    };
    if records.len() as u64 + s.governor_records != s.records_drained {
        push(format!(
            "decoded {} event record(s) + {} decision(s) != drained {}",
            records.len(),
            s.governor_records,
            s.records_drained
        ));
    }

    // Pairing survives sampling: checkable when nothing was lost to
    // backpressure and no pause window could swallow one side.
    if s.records_dropped == 0 && scenario.gates() == 0 {
        for detail in pairing_mismatches(&records) {
            push(format!("sampling broke pairing: {detail}"));
        }
    }
}

/// The begin/end interval events whose pairing the differ checks.
const PAIRED_BEGINS: [Event; 9] = [
    Event::ThreadBeginImplicitBarrier,
    Event::ThreadBeginExplicitBarrier,
    Event::ThreadBeginLockWait,
    Event::ThreadBeginCriticalWait,
    Event::ThreadBeginOrderedWait,
    Event::ThreadBeginMaster,
    Event::ThreadBeginSingle,
    Event::TaskBegin,
    Event::TaskWaitBegin,
];

/// Event pairing over a complete trace: forks balance joins, loop
/// begins balance loop ends, and every begin/end interval pairs up per
/// thread. One message per broken check; empty means paired.
pub fn pairing_mismatches(records: &[TraceEvent]) -> Vec<String> {
    let count = |event: Event| records.iter().filter(|r| r.event == event).count();
    let mut out = Vec::new();
    for (begin, end, name) in [
        (Event::Fork, Event::Join, ("fork", "join")),
        (Event::LoopBegin, Event::LoopEnd, ("loop begin", "loop end")),
    ] {
        let (b, e) = (count(begin), count(end));
        if b != e {
            out.push(format!("{} count {b} != {} count {e}", name.0, name.1));
        }
    }
    for begin in PAIRED_BEGINS {
        let unmatched = unmatched_begins(records, begin);
        if unmatched != 0 {
            out.push(format!("{unmatched} unmatched {begin:?} interval(s)"));
        }
    }
    out
}

/// Begin/end pairing of one interval event pair on each thread: the
/// begins left open at the end plus the ends that had no open begin.
pub fn unmatched_begins(records: &[TraceEvent], begin: Event) -> u64 {
    let end = begin.pair().expect("paired event");
    let mut depth: std::collections::HashMap<usize, u64> = Default::default();
    let mut orphan_ends = 0u64;
    for r in records {
        let d = depth.entry(r.gtid).or_insert(0);
        if r.event == begin {
            *d += 1;
        } else if r.event == end {
            if *d > 0 {
                *d -= 1;
            } else {
                orphan_ends += 1;
            }
        }
    }
    depth.values().sum::<u64>() + orphan_ends
}

/// Split a trace file back into the units the recorder's sink was
/// handed — the 8-byte header, each encoded chunk, the footer tail —
/// which is exactly what a `SocketSink` producer frames, one per epoch.
fn split_sink_units(bytes: &[u8]) -> Result<Vec<&[u8]>, String> {
    use ora_trace::format::TAG_CHUNK;
    if bytes.len() < 8 {
        return Err(format!(
            "trace is {} byte(s), shorter than a header",
            bytes.len()
        ));
    }
    let mut units = vec![&bytes[..8]];
    let mut pos = 8usize;
    while pos < bytes.len() && bytes[pos] == TAG_CHUNK {
        let start = pos;
        ora_trace::format::decode_chunk(bytes, &mut pos)
            .map_err(|e| format!("chunk at byte {start}: {e}"))?;
        units.push(&bytes[start..pos]);
    }
    if pos >= bytes.len() {
        return Err("trace has no footer tail".into());
    }
    units.push(&bytes[pos..]);
    Ok(units)
}

/// The socket rung: replay the trace through a loopback daemon and
/// check that online aggregation agrees with everything the in-process
/// chain established — stored records, drop accounting, and a merged
/// timeline byte-identical to the offline merge.
fn diff_socket(outcome: &RunOutcome, bytes: &[u8], out: &mut Vec<Mismatch>) {
    use ora_fleet::{timeline_bytes, Daemon, DaemonConfig, SocketSink};
    use ora_trace::TraceSink;

    let mut push = |detail: String| {
        out.push(Mismatch {
            rung: "socket",
            detail,
        })
    };
    let s = &outcome.summary;
    let units = match split_sink_units(bytes) {
        Ok(u) => u,
        Err(e) => return push(format!("cannot re-frame trace: {e}")),
    };
    let (client, server) = match ora_fleet::loopback() {
        Ok(pair) => pair,
        Err(e) => return push(format!("loopback transport failed: {e}")),
    };
    let mut daemon = Daemon::new(DaemonConfig::default());
    daemon.spawn_conn(server);
    let mut sink = match SocketSink::start(client, 0, 1_000_000_000, 4) {
        Ok(sink) => sink,
        Err(e) => return push(format!("HELLO failed: {e}")),
    };
    for unit in &units {
        if let Err(e) = sink.write_all(unit) {
            return push(format!("streaming a sink unit failed: {e}"));
        }
    }
    let fin = match sink.finish(
        s.records_drained + s.records_dropped,
        s.records_drained,
        s.records_dropped,
    ) {
        Ok(fin) => fin,
        Err(e) => return push(format!("FIN handshake failed: {e}")),
    };
    let report = daemon.finish();

    if fin.stored != s.records_drained {
        push(format!(
            "daemon stored {} record(s), drained {}",
            fin.stored, s.records_drained
        ));
    }
    let Some(lane) = report.lane(0) else {
        return push("daemon reports no lane for rank 0".into());
    };
    if !lane.finished || lane.quarantined.is_some() {
        push(format!(
            "lane did not finish cleanly: finished {}, quarantined {:?}",
            lane.finished, lane.quarantined
        ));
    }
    if !lane.reconciled() {
        push(format!(
            "lane accounting does not reconcile: fin {:?}, records {}, footer {:?}",
            lane.fin, lane.records, lane.footer
        ));
    }
    if lane.epochs != units.len() as u64 {
        push(format!(
            "daemon accepted {} epoch(s), streamed {}",
            lane.epochs,
            units.len()
        ));
    }

    // The online merge must equal the offline one, byte for byte.
    let offline = TraceReader::from_bytes(bytes.to_vec()).and_then(|reader| merge_ranks(&[reader]));
    match offline {
        Ok(events) => {
            if report.store.export() != timeline_bytes(&events) {
                push(format!(
                    "daemon export ({} record(s)) differs from offline merge ({} record(s))",
                    report.store.len(),
                    events.len()
                ));
            }
        }
        Err(e) => push(format!("offline merge failed: {e}")),
    }
}

/// Reconcile the persisted trace against the summary: footer counters,
/// per-thread and per-region partitions, event pairing, rank-merge
/// determinism.
fn diff_trace(
    scenario: &Scenario,
    outcome: &RunOutcome,
    bytes: &[u8],
    push: &mut impl FnMut(String),
) {
    let s = &outcome.summary;
    let reader = match TraceReader::from_bytes(bytes.to_vec()) {
        Ok(r) => r,
        Err(e) => return push(format!("trace does not decode: {e}")),
    };
    if reader.record_count() != s.records_drained {
        push(format!(
            "footer drained {} != summary drained {}",
            reader.record_count(),
            s.records_drained
        ));
    }
    if reader.dropped() != s.records_dropped {
        push(format!(
            "footer dropped {} != summary dropped {}",
            reader.dropped(),
            s.records_dropped
        ));
    }
    let records = match reader.records() {
        Ok(r) => r,
        Err(e) => return push(format!("trace records do not decode: {e}")),
    };
    if records.len() as u64 != s.records_drained {
        push(format!(
            "decoded {} record(s) != drained {}",
            records.len(),
            s.records_drained
        ));
    }

    // Per-thread partition: each thread's filtered view must be exactly
    // the thread's slice of the full merge, and together they must
    // partition it.
    let mut gtids: Vec<usize> = records.iter().map(|r| r.gtid).collect();
    gtids.sort_unstable();
    gtids.dedup();
    let mut per_thread_total = 0usize;
    for &g in &gtids {
        match reader.for_thread(g) {
            Ok(view) => {
                let want: Vec<_> = records.iter().copied().filter(|r| r.gtid == g).collect();
                if view != want {
                    push(format!("for_thread({g}) disagrees with the merged records"));
                }
                per_thread_total += view.len();
            }
            Err(e) => push(format!("for_thread({g}) failed: {e}")),
        }
    }
    if per_thread_total != records.len() {
        push(format!(
            "per-thread partitions cover {} of {} record(s)",
            per_thread_total,
            records.len()
        ));
    }

    // Per-region partition, same contract.
    let mut regions: Vec<u64> = records.iter().map(|r| r.region_id).collect();
    regions.sort_unstable();
    regions.dedup();
    let mut per_region_total = 0usize;
    for &rid in &regions {
        match reader.for_region(rid) {
            Ok(view) => {
                let want: Vec<_> = records
                    .iter()
                    .copied()
                    .filter(|r| r.region_id == rid)
                    .collect();
                if view != want {
                    push(format!(
                        "for_region({rid}) disagrees with the merged records"
                    ));
                }
                per_region_total += view.len();
            }
            Err(e) => push(format!("for_region({rid}) failed: {e}")),
        }
    }
    if per_region_total != records.len() {
        push(format!(
            "per-region partitions cover {} of {} record(s)",
            per_region_total,
            records.len()
        ));
    }

    // Event pairing: only checkable when nothing was lost and no pause
    // window could swallow one side of a pair.
    if s.records_dropped == 0 && scenario.gates() == 0 {
        for detail in pairing_mismatches(&records) {
            push(detail);
        }
    }

    // Multi-rank merge determinism: merging the trace with itself must
    // be stable and keyed `(tick, gtid, seq, rank)` — the rank strictly
    // last. (This is the fuzzer-level regression for the merge_ranks
    // tie-break bug.)
    let two = |bytes: &[u8]| -> Result<Vec<TraceReader>, ora_trace::TraceError> {
        Ok(vec![
            TraceReader::from_bytes(bytes.to_vec())?,
            TraceReader::from_bytes(bytes.to_vec())?,
        ])
    };
    match (two(bytes), two(bytes)) {
        (Ok(a), Ok(b)) => match (merge_ranks(&a), merge_ranks(&b)) {
            (Ok(m1), Ok(m2)) => {
                if m1 != m2 {
                    push("rank merge is not deterministic".into());
                }
                for w in m1.windows(2) {
                    let ka = (
                        w[0].record.tick,
                        w[0].record.gtid,
                        w[0].record.seq,
                        w[0].rank,
                    );
                    let kb = (
                        w[1].record.tick,
                        w[1].record.gtid,
                        w[1].record.seq,
                        w[1].rank,
                    );
                    if ka > kb {
                        push(format!(
                            "rank merge key order violated: {ka:?} precedes {kb:?}"
                        ));
                        break;
                    }
                }
            }
            (Err(e), _) | (_, Err(e)) => push(format!("rank merge failed: {e}")),
        },
        (Err(e), _) | (_, Err(e)) => push(format!("trace re-open failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ora_core::testutil::XorShift64;

    fn ev(tick: u64, gtid: usize, event: Event) -> TraceEvent {
        TraceEvent {
            tick,
            gtid,
            seq: tick,
            event,
            region_id: 1,
            wait_id: 0,
        }
    }

    /// A trace made of perfectly nested begin/end pairs per thread has
    /// zero unmatched begins.
    #[test]
    fn balanced_pairs_have_no_unmatched_begins() {
        let mut rng = XorShift64::new(0x7ace_0003);
        for _case in 0..256 {
            let threads = rng.range_usize(1, 4);
            let pairs_per_thread = rng.range_usize(0, 10);
            let mut records = Vec::new();
            let mut tick = 0u64;
            for gtid in 0..threads {
                for _ in 0..pairs_per_thread {
                    records.push(ev(tick, gtid, Event::ThreadBeginImplicitBarrier));
                    records.push(ev(tick + 1, gtid, Event::ThreadEndImplicitBarrier));
                    tick += 2;
                }
            }
            assert_eq!(
                unmatched_begins(&records, Event::ThreadBeginImplicitBarrier),
                0
            );
            assert!(pairing_mismatches(&records).is_empty());
        }
    }

    #[test]
    fn dangling_begin_counts_once() {
        let records = [
            ev(1, 0, Event::ThreadBeginLockWait),
            ev(2, 0, Event::ThreadEndLockWait),
            ev(3, 1, Event::ThreadBeginLockWait),
        ];
        assert_eq!(unmatched_begins(&records, Event::ThreadBeginLockWait), 1);
        assert_eq!(
            pairing_mismatches(&records),
            ["1 unmatched ThreadBeginLockWait interval(s)"]
        );
    }

    #[test]
    fn orphan_end_counts_once() {
        // The end on thread 1 has no begin on its own thread, even though
        // thread 0 has one open.
        let records = [
            ev(1, 0, Event::ThreadBeginCriticalWait),
            ev(2, 1, Event::ThreadEndCriticalWait),
            ev(3, 0, Event::ThreadEndCriticalWait),
        ];
        assert_eq!(
            unmatched_begins(&records, Event::ThreadBeginCriticalWait),
            1
        );
    }

    #[test]
    fn unbalanced_fork_and_loop_counts_are_reported() {
        let records = [
            ev(1, 0, Event::Fork),
            ev(2, 0, Event::LoopBegin),
            ev(3, 0, Event::LoopEnd),
            ev(4, 0, Event::LoopEnd),
        ];
        assert_eq!(
            pairing_mismatches(&records),
            [
                "fork count 1 != join count 0",
                "loop begin count 1 != loop end count 2"
            ]
        );
    }
}
