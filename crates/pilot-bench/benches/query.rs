//! Read-plane microbenchmarks: the four QP-1 query paths isolated from the
//! write storm, plus the materializer's fold rate. These are the
//! measurements behind `BENCH_query.json` and the acceptance floor
//! "projection dashboard ≥ 10× the lock-path dashboard".
//!
//! `dashboard` compares the pre-read-plane aggregate (full
//! `status_snapshot()` clone under the registry lock, folded per query)
//! against `QueryService::dashboard()` (atomic snapshot load, aggregates
//! precomputed by the materializer). `point` compares single-unit lookups on
//! both paths. `fold` measures raw events-per-second through
//! `QueryTables::apply`, the materializer's inner loop. `publish` measures
//! one publication interval — 40 row updates folded and published — on
//! tables of 1 k / 10 k / 100 k rows: what grows with the table is one
//! pointer copy per 64 rows, because a snapshot shares every chunk of rows
//! the interval did not touch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pilot_bench::experiments::qp::PublishCycle;
use pilot_core::describe::{PilotDescription, UnitDescription};
use pilot_core::events::ProjEvent;
use pilot_core::ids::{PilotId, UnitId};
use pilot_core::scheduler::FirstFitScheduler;
use pilot_core::state::UnitState;
use pilot_core::thread::{kernel_fn, TaskOutput, ThreadPilotService};
use pilot_query::{
    publish_events, BrokerSink, Materializer, QueryService, QueryTables, ShardedMaterializer,
};
use pilot_sim::SimDuration;
use pilot_streaming::{Broker, Retention};
use std::hint::black_box;
use std::sync::Arc;

/// A service + drained projection with `units` terminal units.
fn populated(units: usize) -> (ThreadPilotService, QueryService, Vec<UnitId>) {
    let broker = Arc::new(Broker::new());
    let sink = BrokerSink::create(Arc::clone(&broker), "bench.proj", 4).unwrap();
    let svc = ThreadPilotService::with_sink(Box::new(FirstFitScheduler), sink);
    let p = svc.submit_pilot(PilotDescription::new(4, SimDuration::MAX));
    assert!(svc.wait_pilot_active(p));
    let ids: Vec<UnitId> = (0..units)
        .map(|_| {
            svc.submit_unit(
                UnitDescription::new(1),
                kernel_fn(|_| Ok(TaskOutput::of(0u64))),
            )
        })
        .collect();
    for &u in &ids {
        svc.wait_unit(u).unwrap();
    }
    let mut m = Materializer::bootstrap(Arc::clone(&broker), "bench.proj").unwrap();
    m.catch_up().unwrap();
    (svc, m.service(), ids)
}

fn bench_dashboard(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_dashboard");
    group.sample_size(20);
    for units in [500usize, 2000] {
        let (svc, qs, _ids) = populated(units);
        group.bench_with_input(BenchmarkId::new("lock_path", units), &units, |b, _| {
            b.iter(|| {
                let snap = svc.status_snapshot();
                let done = snap
                    .units
                    .iter()
                    .filter(|(_, s, _)| *s == UnitState::Done)
                    .count();
                black_box(done + snap.open_units)
            });
        });
        group.bench_with_input(BenchmarkId::new("projection", units), &units, |b, _| {
            b.iter(|| {
                let d = qs.dashboard();
                black_box(d.units_in(UnitState::Done) + d.open_units())
            });
        });
        svc.shutdown();
    }
    group.finish();
}

fn bench_point_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_point");
    group.sample_size(20);
    let units = 2000usize;
    let (svc, qs, ids) = populated(units);
    group.bench_function("lock_path", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % ids.len();
            black_box(svc.unit_state(ids[i]))
        });
    });
    group.bench_function("projection", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % ids.len();
            black_box(qs.unit_state(ids[i]))
        });
    });
    group.bench_function("projection_utilization", |b| {
        b.iter(|| black_box(qs.pilot_utilization(PilotId(0))));
    });
    svc.shutdown();
    group.finish();
}

const FOLD_EVENTS: u64 = 4096;

fn bench_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_fold");
    group.sample_size(20);
    group.throughput(Throughput::Elements(FOLD_EVENTS));
    // A realistic event mix: 4 lifecycle events + 1 metric per unit.
    let events: Vec<ProjEvent> = (0..FOLD_EVENTS / 5)
        .flat_map(|u| {
            let unit = UnitId(u);
            let pilot = Some(PilotId(u % 8));
            [
                ProjEvent::Unit {
                    unit,
                    state: UnitState::Pending,
                    pilot: None,
                    t_s: u as f64,
                },
                ProjEvent::Unit {
                    unit,
                    state: UnitState::Assigned,
                    pilot,
                    t_s: u as f64 + 0.1,
                },
                ProjEvent::Unit {
                    unit,
                    state: UnitState::Running,
                    pilot,
                    t_s: u as f64 + 0.2,
                },
                ProjEvent::Unit {
                    unit,
                    state: UnitState::Done,
                    pilot,
                    t_s: u as f64 + 0.9,
                },
                ProjEvent::UnitMetric {
                    unit,
                    wait_s: 0.1,
                    exec_s: 0.7,
                    t_s: u as f64 + 0.9,
                },
            ]
        })
        .collect();
    group.bench_function("apply", |b| {
        b.iter(|| {
            let mut t = QueryTables::new(4);
            for e in &events {
                t.apply(e);
            }
            black_box(t.digest())
        });
    });
    // The full pipeline: fetch -> decode -> apply from a freshly produced
    // topic (encode+produce happen in the setup half, outside the timing).
    group.bench_function("materialize_from_topic", |b| {
        b.iter_with_setup(
            || {
                let broker = Arc::new(Broker::new());
                broker.create_topic("fold", 4, usize::MAX / 2).unwrap();
                broker
                    .produce_batch(
                        "fold",
                        events.iter().map(|e| (Some(e.key()), Arc::new(e.encode()))),
                    )
                    .unwrap();
                broker
            },
            |broker| {
                let mut m = Materializer::bootstrap(Arc::clone(&broker), "fold").unwrap();
                m.catch_up().unwrap();
                black_box(m.tables().events_applied)
            },
        );
    });
    group.finish();
}

/// Projection churn over `units` entities, `rounds` state+metric updates
/// each — the workload whose final table is `units` rows however long the
/// history is.
fn churn(units: u64, rounds: u64) -> Vec<ProjEvent> {
    let mut evs = Vec::with_capacity((rounds * units * 2) as usize);
    for r in 0..rounds {
        for u in 0..units {
            evs.push(ProjEvent::Unit {
                unit: UnitId(u),
                state: if r % 2 == 0 {
                    UnitState::Running
                } else {
                    UnitState::Done
                },
                pilot: Some(PilotId(u % 4)),
                t_s: r as f64,
            });
            evs.push(ProjEvent::UnitMetric {
                unit: UnitId(u),
                wait_s: 0.1,
                exec_s: 0.5,
                t_s: r as f64,
            });
        }
    }
    evs
}

/// One publication interval against the table size: 40 updates to scattered
/// existing rows, fetched, folded and published. The staging half (the
/// producer's append) is outside the timing.
fn bench_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_publish");
    group.sample_size(50);
    for rows in [1_000u64, 10_000, 100_000] {
        let cycle = std::cell::RefCell::new(PublishCycle::new(rows).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter_with_setup(
                || cycle.borrow_mut().stage(),
                |()| black_box(cycle.borrow_mut().fold_and_publish().unwrap()),
            );
        });
    }
    group.finish();
}

/// Sharded fold scaling: drain one pre-produced topic with 1/2/4 fold
/// workers over disjoint partition groups, `publish_every` 16. Publication
/// is cheap at any shard count, so what this measures is what the host's
/// cores give N fold threads — expect ~1× on one core, never less.
fn bench_shard_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_shard_fold");
    group.sample_size(10);
    let events = churn(4096, 3);
    group.throughput(Throughput::Elements(events.len() as u64));
    let broker = Arc::new(Broker::new());
    broker
        .create_topic("shard.fold", 4, usize::MAX / 2)
        .unwrap();
    for chunk in events.chunks(512) {
        publish_events(&broker, "shard.fold", chunk).unwrap();
    }
    for shards in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("catch_up", shards), &shards, |b, &n| {
            b.iter_with_setup(
                || {
                    let mut sm =
                        ShardedMaterializer::bootstrap(Arc::clone(&broker), "shard.fold", n)
                            .unwrap();
                    sm.set_publish_every(16);
                    sm
                },
                |mut sm| {
                    std::thread::scope(|s| {
                        for m in sm.shards_mut().iter_mut() {
                            s.spawn(move || m.catch_up().unwrap());
                        }
                    });
                    black_box(sm.events_applied())
                },
            );
        });
    }
    group.finish();
}

/// Bootstrap cost, full history vs compacted topic, at a 32× event-to-entity
/// ratio: the compacted replay is bounded by live entities, not history.
fn bench_bootstrap(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_bootstrap");
    group.sample_size(10);
    let events = churn(256, 16); // 8192 events, 256 live units
    let broker = Arc::new(Broker::new());
    broker.create_topic("boot.full", 4, usize::MAX / 2).unwrap();
    broker
        .create_topic_with("boot.compact", 4, Retention::Compact { trigger: 128 })
        .unwrap();
    for chunk in events.chunks(512) {
        publish_events(&broker, "boot.full", chunk).unwrap();
        publish_events(&broker, "boot.compact", chunk).unwrap();
    }
    for topic in ["boot.full", "boot.compact"] {
        group.bench_with_input(BenchmarkId::new("catch_up", topic), &topic, |b, t| {
            b.iter(|| {
                let mut m = Materializer::bootstrap(Arc::clone(&broker), t).unwrap();
                m.catch_up().unwrap();
                black_box(m.tables().events_applied)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dashboard,
    bench_point_reads,
    bench_fold,
    bench_publish,
    bench_shard_fold,
    bench_bootstrap
);
criterion_main!(benches);
