//! The control plane and the read plane stood up as one machine, shared by
//! `unit_journey` and `ensemble_burst`:
//!
//! `ThreadPilotService::with_sink` (first-fit, one 2-core pilot) → `BrokerSink`
//! on a WAL-backed `Broker::open` (4 partitions) → `ShardedMaterializer`
//! (2 shards) → `ShardedQueryService::subscribe`.

use crate::harness::{timed, wal_config, Clock, Plan, WARMUP_OPS};
use crate::trace::{
    traced_fold, FoldStats, SchedProbe, SinkProbe, TimedScheduler, TimedSink, PUBLISH_EVERY,
};
use pilot_core::describe::{PilotDescription, UnitDescription};
use pilot_core::events::ProjEvent;
use pilot_core::scheduler::{FirstFitScheduler, Scheduler};
use pilot_core::state::UnitState;
use pilot_core::thread::{kernel_fn, ServiceReport, TaskOutput, ThreadPilotService, WorkKernel};
use pilot_core::{EventSink, UnitId};
use pilot_query::{BrokerSink, DeltaSubscription, ShardedMaterializer};
use pilot_sim::SimDuration;
use pilot_streaming::Broker;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub const TOPIC: &str = "proj.events";
pub const PARTITIONS: usize = 4;
pub const SHARDS: usize = 2;
pub const PILOT_CORES: u32 = 2;
/// Ids of the units of a stack's pre-folded history start here, far above any
/// the service issues.
const HISTORY_BASE: u64 = 1 << 40;
/// A unit not visible this long after the last one was due counts as failed.
const VISIBLE_TIMEOUT_S: f64 = 60.0;

/// One unit as the harness saw it, all stamps on the harness clock.
#[derive(Clone, Copy, Debug)]
pub struct UnitSample {
    pub id: u64,
    /// When the schedule wanted it submitted.
    pub due_s: f64,
    /// When `submit_unit` was called, and how long the call took.
    pub submit_s: f64,
    pub submit_call_s: f64,
    /// When a delta batch first showed it `Done` (`None`: never seen).
    pub visible_s: Option<f64>,
}

/// What the subscriber saw of the delta feed during a section.
#[derive(Clone, Debug, Default)]
pub struct DeltaStats {
    pub batches: u64,
    pub rows: u64,
    /// `emitted_s − newest_enqueued_s` per batch (broker timebase), ms.
    pub push_ms: Vec<f64>,
}

pub struct Probes {
    pub sched: Arc<SchedProbe>,
    pub sink: Arc<SinkProbe>,
}

pub struct Stack {
    clock: Clock,
    broker: Arc<Broker>,
    sink: Arc<BrokerSink>,
    svc: ThreadPilotService,
    sub: DeltaSubscription,
    stop: Arc<AtomicBool>,
    fold: JoinHandle<(ShardedMaterializer, FoldStats)>,
    kernel: Arc<dyn WorkKernel>,
    /// Highest unit id issued so far; later sections ignore ids up to it.
    floor: u64,
    pub probes: Option<Probes>,
    /// Harness time at which the service's own clock reads zero.
    pub svc_epoch_s: f64,
    /// Everything `start` did, warm-up included.
    pub setup_s: f64,
    /// Units the warm-up pass pushed through (probes start counting after).
    warmup_units: u64,
}

/// What is left after `Stack::stop`.
pub struct Stopped {
    pub report: ServiceReport,
    pub fold: FoldStats,
    pub folds: ShardedMaterializer,
    pub sink_dropped: u64,
    /// `merged().data_digest()` of the live read plane, fully drained.
    pub digest: u64,
    pub probes: Option<Probes>,
    /// Units bound after the warm-up pass.
    pub binds: u64,
}

impl Stack {
    /// Open the broker on `wal`, start service, pilot, fold threads and the
    /// subscription, then push the warm-up pass through the whole path.
    /// `history` finished units are in the log and folded into the tables
    /// before anything else happens: a service that has been up for a while.
    pub fn start(wal: &Path, clock: Clock, plan: &Plan, history: u64) -> Stack {
        let traced = plan.traced;
        let warmup = plan.scaled(WARMUP_OPS, 50);
        let (setup_s, mut stack) = timed(|| {
            let broker = Arc::new(Broker::open(wal_config(wal)).expect("open WAL broker"));
            let sink = BrokerSink::create(Arc::clone(&broker), TOPIC, PARTITIONS)
                .expect("create projection topic");
            let probes = traced.then(|| Probes {
                sched: Arc::default(),
                sink: Arc::default(),
            });
            let (scheduler, event_sink): (Box<dyn Scheduler>, Arc<dyn EventSink>) = match &probes {
                Some(p) => (
                    Box::new(TimedScheduler::new(Arc::clone(&p.sched))),
                    TimedSink::new(Arc::clone(&sink), Arc::clone(&p.sink), clock),
                ),
                None => (Box::new(FirstFitScheduler), Arc::clone(&sink) as _),
            };
            let svc_epoch_s = clock.now();
            let svc = ThreadPilotService::with_sink(scheduler, event_sink);
            let pilot = svc.submit_pilot(
                PilotDescription::new(PILOT_CORES, SimDuration::MAX).labeled("bench"),
            );
            assert!(svc.wait_pilot_active(pilot), "pilot must activate");

            let past: Vec<ProjEvent> = (0..history)
                .map(|i| ProjEvent::Unit {
                    unit: UnitId(HISTORY_BASE + i),
                    state: UnitState::Done,
                    pilot: None,
                    t_s: 0.0,
                })
                .collect();
            for chunk in past.chunks(512) {
                sink.emit_batch(chunk);
            }
            let mut folds = ShardedMaterializer::bootstrap(Arc::clone(&broker), TOPIC, SHARDS)
                .expect("bootstrap shard set");
            // Bulk load: one publication at the end, not one table clone per
            // 64 events of history.
            folds.set_publish_every(u64::MAX);
            folds.catch_up().expect("fold the history");
            folds.set_publish_every(PUBLISH_EVERY);
            // Subscribe after the history (its rows are nobody's news) and
            // before the folds start, so no batch of the section is missed.
            let sub = folds.service().subscribe();
            let stop = Arc::new(AtomicBool::new(false));
            let fold = {
                let (broker, stop) = (Arc::clone(&broker), Arc::clone(&stop));
                std::thread::spawn(move || {
                    if !traced {
                        folds.run_until_stopped(&stop);
                        return (folds, FoldStats::default());
                    }
                    let mut total = FoldStats::default();
                    std::thread::scope(|s| {
                        let workers: Vec<_> = folds
                            .shards_mut()
                            .iter_mut()
                            .map(|m| s.spawn(|| traced_fold(m, &broker, &stop, clock)))
                            .collect();
                        for w in workers {
                            total.absorb(w.join().expect("fold shard"));
                        }
                    });
                    (folds, total)
                })
            };
            Stack {
                clock,
                broker,
                sink,
                svc,
                sub,
                stop,
                fold,
                kernel: kernel_fn(|_| Ok(TaskOutput::none())),
                floor: 0,
                probes,
                svc_epoch_s,
                setup_s: 0.0,
                warmup_units: 0,
            }
        });
        let (warm_s, (warm, _)) = timed(|| stack.run_units(&vec![0.0; warmup as usize]));
        assert!(
            warm.iter().all(|u| u.visible_s.is_some()),
            "warm-up units must become visible"
        );
        if let Some(p) = &stack.probes {
            p.sched.reset();
            p.sink.reset();
        }
        stack.warmup_units = warmup;
        stack.setup_s = setup_s + warm_s;
        stack
    }

    /// Submit one no-op unit per entry of `dues` (seconds after the section
    /// starts; ascending) from a generator thread while a watcher thread
    /// stamps each unit when a delta batch first shows it `Done`.
    pub fn run_units(&mut self, dues: &[f64]) -> (Vec<UnitSample>, DeltaStats) {
        let (clock, floor) = (self.clock, self.floor);
        let (svc, kernel, sub) = (&self.svc, &self.kernel, &mut self.sub);
        let t_start = clock.now();
        let deadline = t_start + dues.last().copied().unwrap_or(0.0) + VISIBLE_TIMEOUT_S;
        let (mut samples, visible, delta) = std::thread::scope(|s| {
            let watcher = s.spawn(move || {
                let mut visible: HashMap<u64, f64> = HashMap::with_capacity(dues.len());
                let mut delta = DeltaStats::default();
                while visible.len() < dues.len() && clock.now() < deadline {
                    let Some(batch) = sub.next_timeout(Duration::from_millis(20)) else {
                        continue;
                    };
                    let now = clock.now();
                    delta.batches += 1;
                    delta.rows += batch.len() as u64;
                    if let Some(enq) = batch.newest_enqueued_s {
                        delta.push_ms.push((batch.emitted_s - enq) * 1e3);
                    }
                    for (id, row) in &batch.units {
                        if (floor + 1..HISTORY_BASE).contains(id) && row.state == UnitState::Done {
                            visible.entry(*id).or_insert(now);
                        }
                    }
                }
                (visible, delta)
            });
            let generator = s.spawn(move || {
                dues.iter()
                    .map(|&due| {
                        let due_s = t_start + due;
                        clock.sleep_until(due_s);
                        let submit_s = clock.now();
                        let id = svc.submit_unit(UnitDescription::new(1), Arc::clone(kernel));
                        UnitSample {
                            id: id.0,
                            due_s,
                            submit_s,
                            submit_call_s: clock.now() - submit_s,
                            visible_s: None,
                        }
                    })
                    .collect::<Vec<_>>()
            });
            let samples = generator.join().expect("generator thread");
            let (visible, delta) = watcher.join().expect("watcher thread");
            (samples, visible, delta)
        });
        for u in &mut samples {
            u.visible_s = visible.get(&u.id).copied();
            self.floor = self.floor.max(u.id);
        }
        (samples, delta)
    }

    /// Shut the service down, stop the folds after a final drain, and hand
    /// back everything they recorded. The WAL tree stays for recovery drills.
    pub fn stop(self) -> Stopped {
        let report = self.svc.shutdown();
        self.stop.store(true, Ordering::Release);
        self.broker.wake_all();
        let (folds, fold) = self.fold.join().expect("fold thread");
        Stopped {
            binds: report.bind.binds.saturating_sub(self.warmup_units),
            report,
            fold,
            digest: folds.service().merged().data_digest(),
            folds,
            sink_dropped: self.sink.dropped(),
            probes: self.probes,
        }
    }
}

/// One cold restart of the stateful layers from a WAL tree.
pub struct Recovery {
    pub total_s: f64,
    pub wal_open_s: f64,
    pub wal_records: u64,
    pub bootstrap_s: f64,
    pub digest: u64,
    pub events_lost: u64,
}

/// Reopen the broker from its WAL, bootstrap a fresh shard set from offset 0
/// and drain it: the from-scratch fold every live digest is checked against.
pub fn recover(wal: &Path) -> Recovery {
    let (wal_open_s, broker) =
        timed(|| Arc::new(Broker::open(wal_config(wal)).expect("reopen WAL broker")));
    let (bootstrap_s, folds) = timed(|| {
        let mut folds = ShardedMaterializer::bootstrap(Arc::clone(&broker), TOPIC, SHARDS)
            .expect("bootstrap after restart");
        folds.set_publish_every(PUBLISH_EVERY);
        folds.catch_up().expect("drain after restart");
        folds
    });
    let (digest_s, digest) = timed(|| folds.service().merged().data_digest());
    Recovery {
        total_s: wal_open_s + bootstrap_s + digest_s,
        wal_open_s,
        wal_records: broker.recovery_info().records,
        bootstrap_s,
        digest,
        events_lost: folds.events_lost(),
    }
}
