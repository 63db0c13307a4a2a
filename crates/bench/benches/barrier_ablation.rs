//! Barrier costs: the central barrier's solo and contended episode
//! latency, and the cost of the ORA events added to the
//! implicit/explicit barrier runtime calls (the events are two of the
//! three the paper's tool registers).

use omprt::{Barrier, OpenMp};
use ora_bench::microbench::Criterion;
use ora_bench::{criterion_group, criterion_main};
use ora_core::event::Event;
use ora_core::request::Request;
use std::sync::Arc;

fn bench_barrier_episodes(c: &mut Criterion) {
    let mut g = c.benchmark_group("barrier_solo");
    g.sample_size(20);

    // Single-thread episode cost: the arithmetic of arrival/release
    // without contention (contended behaviour is covered by the runtime
    // benches below).
    g.bench_function("solo_episode", |b| {
        let barrier = Barrier::new(1);
        b.iter(|| barrier.wait(0));
    });
    g.finish();

    let mut g = c.benchmark_group("runtime_barrier");
    g.sample_size(10);
    {
        let rt = OpenMp::with_threads(2);
        rt.parallel(|_| {});
        g.bench_function("explicit_barrier_region", |b| {
            b.iter(|| {
                rt.parallel(|ctx| {
                    for _ in 0..8 {
                        ctx.barrier();
                    }
                })
            });
        });
    }
    g.finish();

    // Contended episodes at 8 threads — the acceptance case for the
    // parking/padding work: every episode crosses arrival, release,
    // counter reset, and (oversubscribed) the park/unpark edge. 16
    // episodes per region amortize the fork/join cost so the number is
    // dominated by barrier latency.
    let mut g = c.benchmark_group("barrier_contended_8thr");
    g.sample_size(10);
    {
        let rt = OpenMp::with_threads(8);
        rt.parallel(|_| {});
        g.bench_function("episodes_x16", |b| {
            b.iter(|| {
                rt.parallel(|ctx| {
                    for _ in 0..16 {
                        ctx.barrier();
                    }
                })
            });
        });
    }
    g.finish();
}

fn bench_barrier_event_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("barrier_event_cost");
    g.sample_size(10);

    // Barriers with no collector attached.
    {
        let rt = OpenMp::with_threads(2);
        rt.parallel(|_| {});
        g.bench_function("no_collector", |b| {
            b.iter(|| {
                rt.parallel(|ctx| {
                    for _ in 0..8 {
                        ctx.barrier();
                    }
                })
            });
        });
    }

    // Barriers with EBAR events registered into an empty callback.
    {
        let rt = OpenMp::with_threads(2);
        rt.parallel(|_| {});
        let api = rt.collector_api();
        api.handle_request(Request::Start).unwrap();
        api.register_callback(Event::ThreadBeginExplicitBarrier, Arc::new(|_| {}))
            .unwrap();
        api.register_callback(Event::ThreadEndExplicitBarrier, Arc::new(|_| {}))
            .unwrap();
        g.bench_function("ebar_events_registered", |b| {
            b.iter(|| {
                rt.parallel(|ctx| {
                    for _ in 0..8 {
                        ctx.barrier();
                    }
                })
            });
        });
    }

    g.finish();
}

criterion_group!(benches, bench_barrier_episodes, bench_barrier_event_cost);
criterion_main!(benches);
