//! `read_storm` — the read plane used the other way from `unit_journey`:
//! snapshot reads beside writes. One reader thread runs a closed loop of
//! point reads and dashboards against a pre-folded table while one write-side
//! thread publishes `ProjEvent`s open-loop through `BrokerSink` and folds them
//! with a plain one-shard `Materializer`. No subscribers, so the delta path
//! is off; recovery is `Materializer::resume`, not `bootstrap`. The broker is
//! in memory: the read plane is the stateful layer here, and a writer thread
//! that appends to a WAL on the checkout's disk is itself late whenever an
//! append stalls (probed on ext4: 85 ms about every 5 s).

use crate::harness::{timed, Clock, Outcome, Plan, Round, WARMUP_OPS};
use crate::stats::median;
use crate::trace::{FoldStats, SinkProbe, Span, TimedSink, PUBLISH_EVERY};
use pilot_core::events::{EventSink, ProjEvent};
use pilot_core::state::{PilotState, UnitState};
use pilot_core::{PilotId, UnitId};
use pilot_query::{BrokerSink, Materializer, QueryService, QueryTables};
use pilot_sim::SimRng;
use pilot_streaming::Broker;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const TOPIC: &str = "proj.events";
const PARTITIONS: usize = 4;
/// Units folded before the clock starts: the table every read scans.
pub const PREFOLD_UNITS: u64 = 20_000;
/// The writer publishes one batch in every `BATCH_EVERY_S` slot (10 000
/// events per second): `BATCH_UPDATES` state changes on existing units and
/// `BATCH_NEW` new units, the first of which is the sentinel the reader
/// watches for. One fold and publish of a batch takes about 0.6 ms on the
/// 20 000-row table; with 2.5 ms slots one batch in a hundred still found its
/// predecessor unfinished and the writer's p99 lateness sat at 0.8 ms, just
/// under the limit. More than one new unit per batch grows the table, and
/// with it that cost, by half over a run.
pub const BATCH_EVERY_S: f64 = 0.004;
pub const BATCH_UPDATES: u64 = 39;
pub const BATCH_NEW: u64 = 1;
/// One read in this many is a dashboard, the rest are point reads.
const DASHBOARD_ONE_IN: u64 = 20;
const READ_OPS: usize = 1 << 16;
const SENTINEL_TIMEOUT_S: f64 = 30.0;
const PILOT: PilotId = PilotId(1);

/// The pilot and the four events of each pre-folded unit.
fn prefold_events(units: u64) -> Vec<ProjEvent> {
    let mut evs = vec![
        ProjEvent::Pilot {
            pilot: PILOT,
            state: PilotState::Active,
            t_s: 0.0,
        },
        ProjEvent::PilotCapacity {
            pilot: PILOT,
            free_cores: 2,
            total_cores: 2,
            t_s: 0.0,
        },
    ];
    for u in 1..=units {
        for state in [UnitState::Pending, UnitState::Running, UnitState::Done] {
            evs.push(ProjEvent::Unit {
                unit: UnitId(u),
                state,
                pilot: Some(PILOT),
                t_s: 0.0,
            });
        }
        evs.push(ProjEvent::UnitMetric {
            unit: UnitId(u),
            wait_s: 0.001,
            exec_s: 0.002,
            t_s: 0.0,
        });
    }
    evs
}

fn sentinel(prefold: u64, batch: u64) -> UnitId {
    UnitId(prefold + 1 + batch * BATCH_NEW)
}

/// Batch `k` of the write storm, a function of the seed alone.
pub fn storm_batch(seed: u64, prefold: u64, k: u64) -> Vec<ProjEvent> {
    let mut rng = SimRng::new(seed).stream(k);
    let t_s = k as f64 * BATCH_EVERY_S;
    let states = [UnitState::Pending, UnitState::Running, UnitState::Done];
    let mut evs: Vec<ProjEvent> = (0..BATCH_NEW)
        .map(|i| ProjEvent::Unit {
            unit: UnitId(sentinel(prefold, k).0 + i),
            state: UnitState::Pending,
            pilot: None,
            t_s,
        })
        .collect();
    evs.extend((0..BATCH_UPDATES).map(|_| ProjEvent::Unit {
        unit: UnitId(1 + rng.below(prefold)),
        state: *rng.pick(&states),
        pilot: Some(PILOT),
        t_s,
    }));
    evs
}

/// When each batch is due, seconds after the section starts: one per
/// `BATCH_EVERY_S` slot, placed in the first half of its slot by the seed. A
/// fixed period locks phase with the kernel's timer tick, and a run's p99 then
/// depends on which phase it drew (probed: 1.0 or 1.6 ms). Half a slot always
/// separates two batches, more than one takes to fold, so the jitter itself
/// makes no batch late.
pub fn batch_dues(seed: u64, batches: u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed ^ 0x4455_4553);
    (0..batches)
        .map(|k| (k as f64 + 0.5 * rng.f64()) * BATCH_EVERY_S)
        .collect()
}

/// The reader's seeded operation sequence: a unit id to look up, or 0 for a
/// dashboard read.
pub fn read_ops(seed: u64, prefold: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed ^ 0x5245_4144);
    (0..READ_OPS)
        .map(|_| {
            if rng.below(DASHBOARD_ONE_IN) == 0 {
                0
            } else {
                1 + rng.below(prefold)
            }
        })
        .collect()
}

/// The storm runs in sections of about this length, each on a broker and a
/// pre-folded table of its own: how a table lands in memory is drawn once per
/// set-up (two runs of one long section: 9.6 M and 10.7 M reads/s, each
/// steady to 2 % from window to window), so a run draws several times and
/// averages.
const SECTION_S: f64 = 5.0;
/// A section is cut into windows of this many batches (1 s); each window is
/// one round. One more window runs ahead of them and is not counted: in a
/// section's first second the kernel is still placing the two threads and the
/// reader's caches are cold (probed on 2-s windows: first window 6 M reads/s
/// and a p90 of 3.8 ms, against 10 M and 0.7 ms in every later one).
const WINDOW_BATCHES: u64 = 250;

/// What the reader thread brings back, per window of the timed section.
struct Reads {
    /// Reads finished in each window.
    per_window: Vec<u64>,
    /// Point reads on pre-folded ids that came back `None`, per window.
    missing: Vec<u64>,
    /// Due time → first visible of each sentinel seen, ms, in batch order.
    visible_ms: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn read_loop(
    qs: &QueryService,
    clock: Clock,
    ops: &[u64],
    t_start: f64,
    windows: usize,
    window_s: f64,
    prefold: u64,
    dues: &[f64],
) -> Reads {
    let batches = dues.len() as u64;
    let t_end = t_start + windows as f64 * window_s;
    let mut r = Reads {
        per_window: vec![0; windows],
        missing: vec![0; windows],
        visible_ms: Vec::with_capacity(batches as usize),
    };
    let mut next = 0u64;
    let mut at = 0usize;
    loop {
        let now = clock.now();
        if now >= t_end && (next == batches || now > t_end + SENTINEL_TIMEOUT_S) {
            return r;
        }
        if now >= t_start && now < t_end {
            let w = (((now - t_start) / window_s) as usize).min(windows - 1);
            for &op in &ops[at..at + 256] {
                if op == 0 {
                    black_box(qs.dashboard());
                } else if qs.unit_state(UnitId(op)).is_none() {
                    r.missing[w] += 1;
                }
            }
            at = (at + 256) % ops.len();
            r.per_window[w] += 256;
        }
        while next < batches && qs.unit_state(sentinel(prefold, next)).is_some() {
            r.visible_ms
                .push((clock.now() - (t_start + dues[next as usize])) * 1e3);
            next += 1;
        }
    }
}

struct Storm {
    broker: Arc<Broker>,
    sink: Arc<BrokerSink>,
    m: Materializer,
}

/// Start the broker, pre-fold the table, and warm the read path.
fn set_up(prefold: u64, ops: &[u64], scale: u64) -> Storm {
    let broker = Arc::new(Broker::new());
    let sink = BrokerSink::create(Arc::clone(&broker), TOPIC, PARTITIONS).expect("create topic");
    for chunk in prefold_events(prefold).chunks(512) {
        sink.emit_batch(chunk);
    }
    let mut m = Materializer::bootstrap(Arc::clone(&broker), TOPIC).expect("bootstrap");
    // Bulk load: one publication at the end, not one table clone per 64
    // events of history.
    m.set_publish_every(u64::MAX);
    m.catch_up().expect("pre-fold");
    m.set_publish_every(PUBLISH_EVERY);
    let qs = m.service();
    for &op in &ops[..(WARMUP_OPS / scale).max(256) as usize] {
        if op == 0 {
            black_box(qs.dashboard());
        } else {
            assert!(
                qs.unit_state(UnitId(op)).is_some(),
                "pre-folded unit {op} must read"
            );
        }
    }
    Storm { broker, sink, m }
}

pub fn run(plan: &Plan) -> Outcome {
    let clock = Clock::start();
    let mut out = Outcome::default();
    let sections = (plan.seconds / SECTION_S).floor().max(1.0) as u64;
    let per_window = plan.scaled(WINDOW_BATCHES, 50) as usize;
    let window_s = per_window as f64 * BATCH_EVERY_S;
    // The lead-in window and the counted ones.
    let windows = 1 + (plan.seconds / sections as f64 / window_s).ceil().max(1.0) as usize;
    for k in 0..sections {
        let seed = plan.seed ^ (k << 32);
        section(
            plan,
            clock,
            seed,
            (windows, per_window),
            &mut out,
            k + 1 == sections,
        );
    }
    out
}

/// One section: a fresh broker and pre-folded table, the storm beside the
/// reads, the oracles, one resume. The last section of a traced run also
/// reports the per-layer numbers.
fn section(
    plan: &Plan,
    clock: Clock,
    seed: u64,
    (windows, per_window): (usize, usize),
    out: &mut Outcome,
    last: bool,
) {
    let prefold = plan.scaled(PREFOLD_UNITS, 1_000);
    let ops = read_ops(seed, prefold);
    let window_s = per_window as f64 * BATCH_EVERY_S;
    let section_s = windows as f64 * window_s;
    let batches = (windows * per_window) as u64;
    let dues = batch_dues(seed, batches);
    let storm: Vec<Vec<ProjEvent>> = (0..batches)
        .map(|k| storm_batch(seed, prefold, k))
        .collect();

    let (setup_s, ready) = timed(|| set_up(prefold, &ops, plan.scale));
    out.setup_s.push(setup_s);
    let Storm {
        broker,
        sink,
        mut m,
    } = ready;
    let qs = m.service();
    let probe = plan.traced.then(Arc::<SinkProbe>::default);
    let writer_sink: Arc<dyn EventSink> = match &probe {
        Some(p) => TimedSink::new(Arc::clone(&sink), Arc::clone(p), clock),
        None => Arc::clone(&sink) as _,
    };

    // The lead-in gives the kernel time to put the two threads on a core
    // each (probed: with 50 ms the first window of one run in five started
    // with both on one core).
    let t_start = clock.now() + 0.25;
    let (reads, late_ms, fold, mid_snapshot) = std::thread::scope(|s| {
        let (storm, ops, qs, dues) = (&storm, &ops, &qs, &dues);
        let (traced, m) = (plan.traced, &mut m);
        // The write side is one thread: append a batch, fold it, publish.
        // With the fold on a thread of its own, three busy threads share two
        // cores, and which two share one is the scheduler's choice per run —
        // the writer then ran late in every window of one run in six.
        let write_side = s.spawn(move || {
            let mut fold = FoldStats::default();
            let late_ms = storm
                .iter()
                .enumerate()
                .map(|(k, batch)| {
                    let due = t_start + dues[k];
                    clock.wait_until(due);
                    let late = clock.now() - due;
                    writer_sink.emit_batch(batch);
                    let t0 = clock.now();
                    fold.events_applied += m.catch_up().expect("fold the batch");
                    let t1 = clock.now();
                    fold.busy_s += t1 - t0;
                    if traced {
                        fold.poll_spans.push((t0, t1));
                    }
                    late * 1e3
                })
                .collect::<Vec<f64>>();
            (late_ms, fold)
        });
        let reader =
            s.spawn(move || read_loop(qs, clock, ops, t_start, windows, window_s, prefold, dues));
        // The restart point: whatever was last published half-way through.
        clock.sleep_until(t_start + section_s / 2.0);
        let mid_snapshot = qs.snapshot();
        let (late_ms, fold) = write_side.join().expect("write-side thread");
        (
            reader.join().expect("reader thread"),
            late_ms,
            fold,
            mid_snapshot,
        )
    });

    // One round per window after the lead-in: its reads, the sentinels that
    // were due in it, and how late the writer ran in it. The lead-in's
    // operations are checked, not timed.
    out.check(reads.visible_ms.len() as u64 == batches, || {
        format!(
            "{} of {batches} sentinels became visible",
            reads.visible_ms.len()
        )
    });
    out.check(reads.missing[0] == 0, || {
        format!(
            "{} lead-in reads of pre-folded units came back empty",
            reads.missing[0]
        )
    });
    for w in 1..windows {
        let in_window = |v: &[f64]| {
            v.iter()
                .skip(w * per_window)
                .take(per_window)
                .copied()
                .collect::<Vec<f64>>()
        };
        let latency_ms = in_window(&reads.visible_ms);
        out.rounds.push(Round {
            ops: reads.per_window[w],
            failed: reads.missing[w] + (per_window - latency_ms.len()) as u64,
            completed: reads.per_window[w] - reads.missing[w],
            seconds: window_s,
            latency_ms,
            gen_late_ms: in_window(&late_ms),
        });
    }
    let root = out.spans.len();
    out.spans.push(Span {
        name: "read_section",
        start_s: t_start,
        end_s: t_start + section_s,
        parent: None,
        unit: None,
    });

    // Oracle: the live fold equals a single-threaded apply of the same events.
    let mut reference = QueryTables::new(PARTITIONS);
    for ev in prefold_events(prefold).iter().chain(storm.iter().flatten()) {
        reference.apply(ev);
    }
    let live = m.tables().data_digest();
    out.check(live == reference.data_digest(), || {
        format!(
            "live tables {live:#x} != reference apply {:#x}",
            reference.data_digest()
        )
    });
    out.check(sink.dropped() == 0 && m.events_lost() == 0, || {
        format!(
            "sink dropped {}, fold lost {}",
            sink.dropped(),
            m.events_lost()
        )
    });

    // The section's two cold restarts: a fresh materializer resumes from the
    // mid-section snapshot and catches up the second half of the storm.
    let want = m.tables().digest();
    let mut resume_s = 0.0;
    for _ in 0..if plan.reference { 1 } else { 2 } {
        let (s, resumed) = timed(|| {
            let mut r = Materializer::resume(Arc::clone(&broker), TOPIC, &mid_snapshot)
                .expect("resume from snapshot");
            r.set_publish_every(PUBLISH_EVERY);
            r.catch_up().expect("catch up after resume");
            r
        });
        resume_s = s;
        out.recover_s.push(s);
        out.check(
            resumed.tables().digest() == want && resumed.events_lost() == 0,
            || format!("resumed fold did not come back to the live fold {want:#x}"),
        );
    }

    if let Some(probe) = probe.filter(|_| last) {
        let calls = probe.calls();
        out.layer("query.sink.emit_calls", calls as f64);
        out.layer(
            "query.sink.events_per_call",
            probe.events() as f64 / calls.max(1) as f64,
        );
        out.layer("query.sink.emit_busy_s", probe.busy_s());
        out.layer("query.sink.dropped", sink.dropped() as f64);
        out.layer("query.materializer.fold_busy_s", fold.busy_s);
        out.layer(
            "query.materializer.idle_s",
            section_s - fold.busy_s - probe.busy_s(),
        );
        out.layer(
            "query.materializer.events_applied",
            fold.events_applied as f64,
        );
        out.layer("query.materializer.publishes", m.tables().version as f64);
        out.layer("query.materializer.lag_max", fold.lag_max as f64);
        out.layer("query.materializer.events_lost", m.events_lost() as f64);
        out.layer("query.materializer.bootstrap_s", resume_s);

        // Read cost on the quiescent final tables, in batches of 1 000.
        let ns_per_read = |read: &dyn Fn(u64)| {
            let batches: Vec<f64> = (0..50)
                .map(|b| {
                    let t0 = Instant::now();
                    for i in 0..1_000 {
                        read(1 + (b * 1_000 + i) % prefold);
                    }
                    t0.elapsed().as_nanos() as f64 / 1_000.0
                })
                .collect();
            median(&batches)
        };
        out.layer(
            "query.service.point_read_ns",
            ns_per_read(&|id| {
                black_box(qs.unit_state(UnitId(id)));
            }),
        );
        out.layer(
            "query.service.dashboard_read_ns",
            ns_per_read(&|_| {
                black_box(qs.dashboard());
            }),
        );
        out.spans.extend(
            probe
                .take_call_spans()
                .into_iter()
                .map(|c| ("sink.emit_batch", c))
                .chain(
                    fold.poll_spans
                        .iter()
                        .map(|&c| ("materializer.poll_apply", c)),
                )
                .map(|(name, (start_s, end_s))| Span {
                    name,
                    start_s,
                    end_s,
                    parent: Some(root),
                    unit: None,
                }),
        );
    }
}
