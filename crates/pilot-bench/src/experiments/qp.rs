//! QP-1: read-plane QPS — materialized projections vs lock-path reads under
//! a full write storm, with staleness percentiles and an exactly-once
//! restart drill.
//!
//! The service runs with a `BrokerSink` wired to a projection topic; a
//! `Materializer` folds the topic on its own thread and publishes snapshots;
//! reader threads then measure four paths while a feeder keeps the write
//! side saturated (ST-1-style sustained submissions):
//!
//! - `dash_lock_qps` — the dashboard computed the pre-read-plane way: a
//!   `status_snapshot()` (one global lock acquisition + full clone) folded
//!   into counts, per query.
//! - `dash_proj_qps` — the same numbers from `QueryService::dashboard()`:
//!   one atomic snapshot load, all aggregates precomputed.
//! - `point_lock_qps` / `point_proj_qps` — single-unit state lookups via
//!   the registry mutex vs the projection snapshot.
//!
//! Floors asserted per run: projections ≥ 10× the lock path on the
//! dashboard query, p99 staleness (event append → applied) under 1 s, and
//! the restart drill — resume from the last *published* snapshot after the
//! run — rebuilds tables bit-identical to a from-scratch fold (0 lost, 0
//! duplicated events).

use super::common;
use pilot_core::describe::{PilotDescription, UnitDescription};
use pilot_core::events::ProjEvent;
use pilot_core::scheduler::FirstFitScheduler;
use pilot_core::state::{PilotState, UnitState};
use pilot_core::thread::{kernel_fn, TaskOutput, ThreadPilotService};
use pilot_core::{PilotId, UnitId, WallClock};
use pilot_miniapp::{ExperimentSpec, Factor, ResultTable};
use pilot_query::{publish_events, BrokerSink, Materializer, ShardedMaterializer, StalenessWindow};
use pilot_sim::SimDuration;
use pilot_streaming::{Broker, BrokerError, Retention};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Run `f` in `readers` threads for `dur_s` seconds; returns aggregate QPS.
/// The closure gets a per-thread scratch counter (rotating read index /
/// sink for observed values, kept live via `black_box`).
fn qps<F: Fn(&mut u64) + Sync>(readers: usize, dur_s: f64, f: &F) -> f64 {
    let total = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..readers {
            s.spawn(|| {
                let clock = WallClock::start();
                let mut scratch = 0u64;
                let mut iters = 0u64;
                while clock.elapsed().as_secs_f64() < dur_s {
                    f(&mut scratch);
                    iters += 1;
                }
                std::hint::black_box(scratch);
                total.fetch_add(iters, Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed) as f64 / dur_s
}

/// QP-1: projection read plane vs lock-path reads under sustained writes.
pub fn run_qp1(quick: bool) -> String {
    let seed_units: usize = if quick { 300 } else { 1500 };
    let phase_s: f64 = if quick { 0.12 } else { 0.4 };
    let spec = ExperimentSpec::new(
        "QP-1 read plane: projection vs lock-path QPS under write load",
        vec![Factor::new("readers", &[1.0, 2.0, 4.0])],
        if quick { 1 } else { 3 },
        0x5150,
    );
    let mut table = ResultTable::new(&spec.name);
    let mut dash_ratios = Vec::new();

    for trial in spec.trials() {
        let readers = trial.param_usize("readers");
        let broker = Arc::new(Broker::new());
        let topic = format!("qp-{}-{}", trial.config_key(), trial.rep);
        let sink = BrokerSink::create(Arc::clone(&broker), &topic, 4)
            // lint: allow(panic, reason = "the topic name embeds the trial key and rep, so it is fresh on a fresh broker")
            .expect("fresh topic per trial");
        let svc = ThreadPilotService::with_sink(Box::new(FirstFitScheduler), sink);
        let p = svc.submit_pilot(PilotDescription::new(4, SimDuration::MAX).labeled("qp"));
        assert!(svc.wait_pilot_active(p), "pilot must activate");

        // Seed a populated registry/projection: point reads and dashboard
        // folds must scan something representative, not an empty table.
        let ids: Vec<UnitId> = (0..seed_units)
            .map(|_| {
                svc.submit_unit(
                    UnitDescription::new(1).tagged("qp-seed"),
                    kernel_fn(|_| Ok(TaskOutput::of(0u64))),
                )
            })
            .collect();
        for &u in &ids {
            // lint: allow(panic, reason = "unit ids come from submit_unit on this same service")
            svc.wait_unit(u).expect("unit issued by this service");
        }

        let mut m = Materializer::bootstrap(Arc::clone(&broker), &topic)
            // lint: allow(panic, reason = "the topic was created by BrokerSink::create above")
            .expect("projection topic exists");
        m.catch_up()
            // lint: allow(panic, reason = "broker and topic are alive for the whole trial")
            .expect("seed drain");
        let qs = m.service();

        let stop_writes = AtomicBool::new(false);
        let stop_mat = AtomicBool::new(false);
        let writes = AtomicU64::new(0);
        let mut dash_lock = 0.0;
        let mut dash_proj = 0.0;
        let mut point_lock = 0.0;
        let mut point_proj = 0.0;

        let m = std::thread::scope(|s| {
            let stop_mat_ref = &stop_mat;
            let materializer = s.spawn(move || {
                let mut m = m;
                m.run_until_stopped(stop_mat_ref);
                m
            });
            // ST-1-style write storm: sustained unit submissions through the
            // sink-wired service for the whole measurement window.
            let feeder = s.spawn(|| {
                while !stop_writes.load(Ordering::Acquire) {
                    for _ in 0..16 {
                        svc.submit_unit(
                            UnitDescription::new(1).tagged("qp-load"),
                            kernel_fn(|_| Ok(TaskOutput::of(1u64))),
                        );
                        writes.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });

            dash_lock = qps(readers, phase_s, &|scratch: &mut u64| {
                // The pre-read-plane dashboard: full snapshot under the
                // registry lock, then fold.
                let snap = svc.status_snapshot();
                let done = snap
                    .units
                    .iter()
                    .filter(|(_, s, _)| *s == UnitState::Done)
                    .count() as u64;
                *scratch = scratch.wrapping_add(done + snap.open_units as u64);
            });
            dash_proj = qps(readers, phase_s, &|scratch: &mut u64| {
                let d = qs.dashboard();
                *scratch = scratch.wrapping_add(d.units_in(UnitState::Done) + d.open_units());
            });
            point_lock = qps(readers, phase_s, &|scratch: &mut u64| {
                let id = ids[*scratch as usize % ids.len()];
                *scratch = scratch.wrapping_add(1);
                if svc.unit_state(id) == Some(UnitState::Done) {
                    *scratch = scratch.wrapping_add(1);
                }
            });
            point_proj = qps(readers, phase_s, &|scratch: &mut u64| {
                let id = ids[*scratch as usize % ids.len()];
                *scratch = scratch.wrapping_add(1);
                if qs.unit_state(id) == Some(UnitState::Done) {
                    *scratch = scratch.wrapping_add(1);
                }
            });

            stop_writes.store(true, Ordering::Release);
            // lint: allow(panic, reason = "the feeder thread only submits units and cannot panic")
            feeder.join().expect("feeder thread");
            stop_mat.store(true, Ordering::Release);
            broker.wake_all(); // wake the parked materializer immediately
                               // lint: allow(panic, reason = "run_until_stopped returns after the stop flag is set")
            materializer.join().expect("materializer thread")
        });

        // Staleness over the storm: event append -> applied-to-projection.
        let stale_p50_ms = qs.staleness(0.5).unwrap_or(0.0) * 1e3;
        let stale_p99_ms = qs.staleness(0.99).unwrap_or(0.0) * 1e3;
        assert!(
            stale_p99_ms < 1_000.0,
            "p99 staleness must stay bounded under load, got {stale_p99_ms:.1} ms"
        );

        // Shutdown cancels the backlog (more events), then the restart
        // drill: resume from the last *published* snapshot and drain; a
        // from-scratch fold of the full topic must agree bit-for-bit.
        svc.shutdown();
        let mut m = m;
        m.catch_up()
            // lint: allow(panic, reason = "broker and topic are alive for the whole trial")
            .expect("final drain");
        let published = qs.snapshot();
        let mut resumed = Materializer::resume(Arc::clone(&broker), &topic, &published)
            // lint: allow(panic, reason = "the topic still exists; resume only fails on a missing topic")
            .expect("resume from published snapshot");
        resumed
            .catch_up()
            // lint: allow(panic, reason = "broker and topic are alive for the whole trial")
            .expect("resumed drain");
        let mut fresh = Materializer::bootstrap(Arc::clone(&broker), &topic)
            // lint: allow(panic, reason = "the topic still exists")
            .expect("bootstrap from offset 0");
        fresh
            .catch_up()
            // lint: allow(panic, reason = "broker and topic are alive for the whole trial")
            .expect("fresh drain");
        assert_eq!(
            resumed.tables().events_applied,
            fresh.tables().events_applied,
            "restart must lose and duplicate nothing"
        );
        assert_eq!(
            resumed.tables().digest(),
            fresh.tables().digest(),
            "resumed projection must be bit-identical to a from-scratch fold"
        );
        assert_eq!(resumed.events_lost(), 0);

        let dash_ratio = dash_proj / dash_lock.max(1e-9);
        dash_ratios.push(dash_ratio);
        table.push(
            trial,
            vec![
                ("dash_lock_qps".into(), dash_lock),
                ("dash_proj_qps".into(), dash_proj),
                ("point_lock_qps".into(), point_lock),
                ("point_proj_qps".into(), point_proj),
                ("stale_p50_ms".into(), stale_p50_ms),
                ("stale_p99_ms".into(), stale_p99_ms),
                (
                    "writes_s".into(),
                    writes.load(Ordering::Relaxed) as f64 / (4.0 * phase_s),
                ),
            ],
        );
    }

    let mean_ratio = dash_ratios.iter().sum::<f64>() / dash_ratios.len().max(1) as f64;
    assert!(
        mean_ratio >= 10.0,
        "projections must sustain >= 10x the lock-path dashboard QPS, got {mean_ratio:.1}x"
    );

    let mut out = table.to_markdown();
    out.push_str(&format!(
        "\nprojection dashboard over lock-path dashboard: {mean_ratio:.0}× (floor 10×)\n\
         restart drill: resume-from-snapshot == from-scratch fold (digest + event count) on every trial\n"
    ));
    common::emit(out)
}

/// Synthetic projection churn: every round flaps every pilot's capacity and
/// transitions + meters every unit, so event volume is `rounds ×` the live
/// entity count while the final table stays `units + pilots` rows.
fn churn_events(units: u64, pilots: u64, rounds: u64) -> Vec<ProjEvent> {
    let pilots = pilots.max(1);
    let mut evs = Vec::with_capacity((rounds * (units + pilots) * 2) as usize);
    for r in 0..rounds {
        let t = r as f64;
        for p in 0..pilots {
            evs.push(ProjEvent::Pilot {
                pilot: PilotId(p),
                state: PilotState::Active,
                t_s: t,
            });
            evs.push(ProjEvent::PilotCapacity {
                pilot: PilotId(p),
                free_cores: (r % 8) as u32,
                total_cores: 8,
                t_s: t,
            });
        }
        for u in 0..units {
            let state = match (u + r) % 3 {
                0 => UnitState::Pending,
                1 => UnitState::Running,
                _ => UnitState::Done,
            };
            evs.push(ProjEvent::Unit {
                unit: UnitId(u),
                state,
                pilot: Some(PilotId(u % pilots)),
                t_s: t,
            });
            evs.push(ProjEvent::UnitMetric {
                unit: UnitId(u),
                wait_s: (r + 1) as f64 * 0.5,
                exec_s: (r + 1) as f64,
                t_s: t,
            });
        }
    }
    evs
}

/// Append `evs` to `topic` in moderately sized batches (so compacted topics
/// compact *during* the stream, as a live producer would drive them).
fn produce_chunked(broker: &Broker, topic: &str, evs: &[ProjEvent]) {
    for chunk in evs.chunks(512) {
        publish_events(broker, topic, chunk)
            // lint: allow(panic, reason = "the topic was created by this experiment on a fresh broker")
            .expect("append churn chunk");
    }
}

/// Time one sharded fold of the whole topic: one worker thread per shard,
/// each draining its own partition group. Returns `(wall_s, merged tables)`.
fn timed_shard_fold(
    broker: &Arc<Broker>,
    topic: &str,
    shards: usize,
    publish_every: u64,
) -> (f64, pilot_query::QueryTables) {
    let mut sm = ShardedMaterializer::bootstrap(Arc::clone(broker), topic, shards)
        // lint: allow(panic, reason = "the topic was created by this experiment on a fresh broker")
        .expect("bootstrap shard set");
    sm.set_publish_every(publish_every);
    let clock = WallClock::start();
    std::thread::scope(|s| {
        for m in sm.shards_mut().iter_mut() {
            s.spawn(move || {
                m.catch_up()
                    // lint: allow(panic, reason = "broker and topic are alive for the whole fold")
                    .expect("shard drain");
            });
        }
    });
    let wall = clock.elapsed().as_secs_f64();
    (wall, sm.service().merged())
}

/// One publication interval on a table of `rows` folded units, split so a
/// timer can wrap just the read plane's share: [`stage`](Self::stage) appends
/// 40 updates to distinct, scattered existing units (the producer's half);
/// [`fold_and_publish`](Self::fold_and_publish) fetches, folds and publishes
/// them. The `query` bench's `query_publish/*` group and `bench_guard` time
/// the same cycle through this one fixture.
pub struct PublishCycle {
    broker: Arc<Broker>,
    m: Materializer,
    rows: u64,
    round: u64,
}

impl PublishCycle {
    /// Updates per publication interval.
    const UPDATES: u64 = 40;

    /// A drained, published materializer holding `rows` units.
    pub fn new(rows: u64) -> Result<Self, BrokerError> {
        let broker = Arc::new(Broker::new());
        broker.create_topic("publish.cycle", 4, usize::MAX / 2)?;
        let seed: Vec<ProjEvent> = (0..rows)
            .map(|u| ProjEvent::Unit {
                unit: UnitId(u),
                state: UnitState::Pending,
                pilot: None,
                t_s: 0.0,
            })
            .collect();
        produce_chunked(&broker, "publish.cycle", &seed);
        let mut m = Materializer::bootstrap(Arc::clone(&broker), "publish.cycle")?;
        m.catch_up()?;
        // Publication is the caller's call, not the fold's.
        m.set_publish_every(u64::MAX);
        Ok(PublishCycle {
            broker,
            m,
            rows: rows.max(1),
            round: 0,
        })
    }

    /// Append the next interval's updates to the topic.
    pub fn stage(&mut self) {
        self.round += 1;
        let updates: Vec<ProjEvent> = (0..Self::UPDATES)
            .map(|i| ProjEvent::Unit {
                unit: UnitId((self.round * Self::UPDATES + i).wrapping_mul(7919) % self.rows),
                state: if self.round.is_multiple_of(2) {
                    UnitState::Running
                } else {
                    UnitState::Done
                },
                pilot: Some(PilotId(i % 4)),
                t_s: self.round as f64,
            })
            .collect();
        produce_chunked(&self.broker, "publish.cycle", &updates);
    }

    /// Fold what [`stage`](Self::stage) appended and publish it. Returns the
    /// published version (one per call).
    pub fn fold_and_publish(&mut self) -> Result<u64, BrokerError> {
        self.m.poll_apply(512)?;
        self.m.publish();
        Ok(self.m.tables().version)
    }
}

/// Four-shard fold throughput (events/s, `publish_every` 16, 66 k-event topic)
/// committed in EXPERIMENTS.md before snapshots shared structure, when each
/// publication cloned its shard's whole table and one shard read 101 k. The
/// floor one shard must clear now.
const PRE_SHARING_FOUR_SHARD_EVENTS_S: f64 = 452_000.0;

/// QP-2: read-plane scaling — fold throughput vs shard count, compacted vs
/// full-history bootstrap, and delta-push latency vs poll staleness.
///
/// Floors asserted per run. Fold throughput: a publication costs what the
/// fold touched, not what the table holds, so one shard alone must clear the
/// figure four shards were needed for while every publication cloned the
/// table ([`PRE_SHARING_FOUR_SHARD_EVENTS_S`], full run only — the quick run
/// is also a debug-build test); sharding must never cost (4 shards ≥ 0.8× one
/// shard, whatever the host); and 4 shards ≥ 2× one shard (1.4× quick) where
/// the host has the four cores that is a statement about — skipped, and said
/// so, anywhere else. Every merged digest
/// bit-identical to the unsharded fold; compacted bootstrap ≥ 5× faster at a
/// 100× event-to-entity ratio with `applied + superseded` accounting for
/// every appended event; delta-push p99 latency bounded under 1 s.
pub fn run_qp2(quick: bool) -> String {
    let mut out = String::new();

    // ---- Part A: fold throughput vs shard count -------------------------
    let units: u64 = if quick { 4_000 } else { 10_000 };
    let fold_rounds: u64 = 3;
    let publish_every: u64 = if quick { 8 } else { 16 };
    let evs = churn_events(units, 8, fold_rounds);
    let total = evs.len() as f64;
    let broker = Arc::new(Broker::new());
    let _ = BrokerSink::create(Arc::clone(&broker), "qp2.fold", 4)
        // lint: allow(panic, reason = "fresh broker, fresh topic")
        .expect("fold topic");
    produce_chunked(&broker, "qp2.fold", &evs);

    // Unsharded reference fold: the digest every merged shard set must hit.
    let mut reference = Materializer::bootstrap(Arc::clone(&broker), "qp2.fold")
        // lint: allow(panic, reason = "the topic was created above")
        .expect("reference bootstrap");
    reference.set_publish_every(publish_every);
    reference
        .catch_up()
        // lint: allow(panic, reason = "broker and topic are alive for the whole run")
        .expect("reference drain");
    let want_digest = reference.tables().digest();

    let spec = ExperimentSpec::new(
        "QP-2a fold throughput vs shard count",
        vec![Factor::new("shards", &[1.0, 2.0, 4.0])],
        1,
        0x5152,
    );
    let mut table = ResultTable::new(&spec.name);
    let mut tp_by_shards = Vec::new();
    for trial in spec.trials() {
        let shards = trial.param_usize("shards");
        // Best of two folds: the second run damps allocator warm-up noise.
        let mut wall = f64::MAX;
        let mut merged = None;
        for _ in 0..2 {
            let (w, m) = timed_shard_fold(&broker, "qp2.fold", shards, publish_every);
            if w < wall {
                wall = w;
            }
            merged = Some(m);
        }
        // lint: allow(panic, reason = "the loop above always runs and sets merged")
        let merged = merged.expect("two folds ran");
        assert_eq!(
            merged.digest(),
            want_digest,
            "merged {shards}-shard digest must be bit-identical to the single fold"
        );
        let events_s = total / wall.max(1e-9);
        tp_by_shards.push((shards, events_s));
        table.push(
            trial,
            vec![
                ("wall_ms".into(), wall * 1e3),
                ("events_per_s".into(), events_s),
            ],
        );
    }
    let tp1 = tp_by_shards
        .iter()
        .find(|(s, _)| *s == 1)
        .map(|(_, t)| *t)
        .unwrap_or(f64::MAX);
    let tp4 = tp_by_shards
        .iter()
        .find(|(s, _)| *s == 4)
        .map(|(_, t)| *t)
        .unwrap_or(0.0);
    let scaling = tp4 / tp1.max(1e-9);
    if !quick {
        assert!(
            tp1 >= PRE_SHARING_FOUR_SHARD_EVENTS_S,
            "one shard must fold >= {PRE_SHARING_FOUR_SHARD_EVENTS_S} events/s at publish_every {publish_every}, got {tp1:.0}: is a publication walking the table again?"
        );
    }
    assert!(
        scaling >= 0.8,
        "sharding must never cost: 4-shard fold at {scaling:.2}x single-shard throughput"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = if quick { 1.4 } else { 2.0 };
    let parallel_floor = if cores >= 4 {
        assert!(
            scaling >= floor,
            "4-shard fold must be >= {floor}x single-shard throughput on {cores} cores, got {scaling:.2}x"
        );
        format!("floor {floor}× on {cores} cores")
    } else {
        format!("{floor}× parallel-scaling floor SKIPPED: available_parallelism {cores} < 4")
    };
    out.push_str(&table.to_markdown());
    out.push_str(&format!(
        "4-shard over 1-shard fold throughput: {scaling:.1}× ({parallel_floor}; never-costs floor 0.8×); every merged digest == unsharded fold digest\n"
    ));

    // ---- Part B: bootstrap cost, compacted vs full history --------------
    let live: u64 = if quick { 200 } else { 1_000 };
    let trigger = if quick { 64 } else { 512 };
    out.push_str("\n| ratio | events | full_ms | compact_ms | speedup | superseded |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for ratio in [10u64, 100] {
        let evs = churn_events(live, 4, (ratio / 2).max(1));
        let broker = Arc::new(Broker::new());
        let _ = BrokerSink::create(Arc::clone(&broker), "qp2.full", 4)
            // lint: allow(panic, reason = "fresh broker, fresh topic")
            .expect("full topic");
        broker
            .create_topic_with("qp2.compact", 4, Retention::Compact { trigger })
            // lint: allow(panic, reason = "fresh broker, fresh topic")
            .expect("compact topic");
        produce_chunked(&broker, "qp2.full", &evs);
        produce_chunked(&broker, "qp2.compact", &evs);

        let boot = |topic: &str| {
            let mut best = f64::MAX;
            let mut m = None;
            for _ in 0..2 {
                let clock = WallClock::start();
                let mut mat = Materializer::bootstrap(Arc::clone(&broker), topic)
                    // lint: allow(panic, reason = "the topic was created above")
                    .expect("bootstrap");
                mat.catch_up()
                    // lint: allow(panic, reason = "broker and topic are alive for the whole run")
                    .expect("bootstrap drain");
                best = best.min(clock.elapsed().as_secs_f64());
                m = Some(mat);
            }
            // lint: allow(panic, reason = "the loop above always runs and sets m")
            (best, m.expect("two bootstraps ran"))
        };
        let (t_full, mf) = boot("qp2.full");
        let (t_comp, mc) = boot("qp2.compact");
        assert_eq!(
            mf.tables().data_digest(),
            mc.tables().data_digest(),
            "compacted bootstrap must reconstruct the full-history rows exactly"
        );
        assert_eq!(
            mc.tables().events_applied + mc.events_superseded(),
            evs.len() as u64,
            "superseded + applied must account for every appended event"
        );
        assert_eq!(mc.events_lost(), 0, "compaction supersedes, never loses");
        let speedup = t_full / t_comp.max(1e-9);
        if ratio == 100 {
            assert!(
                speedup >= 5.0,
                "compacted bootstrap must be >= 5x faster at a 100x event-to-entity ratio, got {speedup:.1}x"
            );
        }
        out.push_str(&format!(
            "| {ratio}× | {} | {:.2} | {:.2} | {speedup:.1}× | {} |\n",
            evs.len(),
            t_full * 1e3,
            t_comp * 1e3,
            mc.events_superseded(),
        ));
    }
    out.push_str(
        "compacted bootstrap floor: >= 5× at 100× event-to-entity ratio; data digests identical\n",
    );

    // ---- Part C: delta push latency vs poll staleness -------------------
    let phase_s: f64 = if quick { 0.15 } else { 0.5 };
    let ring_cap = 128usize;
    let broker = Arc::new(Broker::new());
    let _ = BrokerSink::create(Arc::clone(&broker), "qp2.delta", 4)
        // lint: allow(panic, reason = "fresh broker, fresh topic")
        .expect("delta topic");
    let mut sm = ShardedMaterializer::bootstrap(Arc::clone(&broker), "qp2.delta", 2)
        // lint: allow(panic, reason = "the topic was created above")
        .expect("delta shard set");
    sm.set_publish_every(4);
    sm.set_staleness_capacity(ring_cap);
    let service = sm.service();
    let sub = service.subscribe();

    let stop = AtomicBool::new(false);
    let feeding = AtomicBool::new(true);
    let fed = AtomicU64::new(0);
    let mut push_lat = StalenessWindow::new(8192);
    let mut batches = 0u64;
    let mut delta_entities = 0u64;
    let mut shards_seen = [false; 2];
    std::thread::scope(|s| {
        let (stop_ref, feeding_ref) = (&stop, &feeding);
        let fold = s.spawn(move || {
            let mut sm = sm;
            sm.run_until_stopped(stop_ref);
            sm
        });
        let broker_ref = &broker;
        let fed_ref = &fed;
        let feeder = s.spawn(move || {
            let clock = WallClock::start();
            let mut tick = 0u64;
            while clock.elapsed().as_secs_f64() < phase_s {
                let evs = churn_events(64, 4, 1);
                fed_ref.fetch_add(evs.len() as u64, Ordering::Relaxed);
                produce_chunked(broker_ref, "qp2.delta", &evs);
                tick += 1;
                if tick.is_multiple_of(4) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            feeding_ref.store(false, Ordering::Release);
        });
        // Consume pushes while the feeder runs, then drain the tail.
        loop {
            match sub.next_timeout(Duration::from_millis(20)) {
                Some(b) => {
                    batches += 1;
                    delta_entities += b.len() as u64;
                    if b.shard < shards_seen.len() {
                        shards_seen[b.shard] = true;
                    }
                    if let Some(enq) = b.newest_enqueued_s {
                        push_lat.record((broker.now_s() - enq).max(0.0));
                    }
                }
                None if !feeding.load(Ordering::Acquire) => break,
                None => {}
            }
        }
        // lint: allow(panic, reason = "the feeder thread only appends events and cannot panic")
        feeder.join().expect("feeder thread");
        stop.store(true, Ordering::Release);
        broker.wake_all();
        // lint: allow(panic, reason = "run_until_stopped returns after the stop flag is set")
        let _ = fold.join().expect("fold threads");
    });

    let push_p50_ms = push_lat.percentile(0.5).unwrap_or(0.0) * 1e3;
    let push_p99_ms = push_lat.percentile(0.99).unwrap_or(0.0) * 1e3;
    let fold_p50_ms = service.staleness(0.5).unwrap_or(0.0) * 1e3;
    let fold_p99_ms = service.staleness(0.99).unwrap_or(0.0) * 1e3;
    assert!(
        push_p99_ms < 1_000.0,
        "p99 delta-push latency must stay bounded, got {push_p99_ms:.1} ms"
    );
    assert!(batches > 0 && delta_entities > 0, "the feed must push data");
    assert!(
        shards_seen.iter().all(|&s| s),
        "every shard's fold must reach the one merged subscription"
    );
    // Staleness-ring accounting: held never exceeds the configured capacity
    // per shard, and never exceeds the lifetime sample count.
    let held = service.staleness_held();
    let samples = service.staleness_samples();
    assert!(held > 0 && held <= ring_cap * 2, "ring capacity respected");
    assert!(
        held as u64 <= samples,
        "held samples are a suffix of lifetime samples"
    );
    out.push_str(&format!(
        "\ndelta push (subscribe): p50 {push_p50_ms:.2} ms, p99 {push_p99_ms:.2} ms over {batches} batches / {delta_entities} entity upserts\n\
         poll-path floor (fold staleness, before any poll interval): p50 {fold_p50_ms:.2} ms, p99 {fold_p99_ms:.2} ms\n\
         staleness ring: {held} held / {samples} lifetime samples (cap {ring_cap} per shard)\n\
         events fed: {}\n",
        fed.load(Ordering::Relaxed)
    ));
    common::emit(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn qp1_quick_holds_speedup_staleness_and_restart_floors() {
        // The floors are asserted inside run_qp1; surviving the call in
        // quick mode is the regression check CI runs.
        let _alone = super::common::timing_floor_guard();
        let report = super::run_qp1(true);
        assert!(report.contains("dash_proj_qps"));
        assert!(report.contains("stale_p99_ms"));
    }

    #[test]
    fn qp2_quick_holds_scaling_compaction_and_push_floors() {
        // Shard-scaling, compacted-bootstrap, digest-identity, and push
        // latency floors are asserted inside run_qp2; surviving the call in
        // quick mode is the regression check CI runs.
        let _alone = super::common::timing_floor_guard();
        let report = super::run_qp2(true);
        assert!(report.contains("events_per_s"));
        assert!(report.contains("compact_ms"));
        assert!(report.contains("delta push"));
    }
}
