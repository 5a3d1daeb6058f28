//! `unit_journey` (open loop) and `ensemble_burst` (closed) — the same stack
//! driven two ways: a few sections, each on a fresh stack that already holds
//! a history, and many bursts on a fresh, empty stack each.

use crate::harness::{Clock, Outcome, Plan, Round, WalDir};
use crate::stack::{recover, DeltaStats, Recovery, Stack, Stopped, UnitSample};
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::{DoneStamp, Span};
use pilot_core::state::UnitState;
use pilot_sim::SimRng;
use std::collections::HashMap;

/// Offered rate of the open loop, units per second.
pub const JOURNEY_RATE_PER_S: f64 = 2_000.0;
/// The open loop runs in sections of about this length, each on a stack of
/// its own. Two runs of one long section on one stack differed by more than
/// the two halves of either (where the kernel puts the stack's seven threads
/// on two cores, and how its tables land in memory, is drawn once per stack),
/// so a run draws several times and averages.
pub const JOURNEY_SECTION_S: f64 = 4.0;
/// Finished units already in the log and the tables when a section starts.
/// `publish` clones the whole table, so what a unit's journey costs depends
/// on the rows already there: on an empty stack the window medians climbed
/// from 0.55 ms to 1.3 ms over 30 000 units. With a history the section
/// measures a service that has been up for a while, at 10 000-18 000 rows,
/// and the clone is 0.37 of the journey's 0.86 ms from the first unit on.
/// More history makes the same point louder but loads the two fold threads
/// further (busy 46 % of the time here, 67 % at 20 000, 78 % at 30 000), and
/// a layer close to saturation multiplies whatever the host does to it.
pub const JOURNEY_HISTORY_UNITS: u64 = 10_000;
/// A section is cut into windows of this length by due time; each window is
/// one round.
pub const JOURNEY_WINDOW_S: f64 = 1.0;
/// A unit visible later than this after it was due misses the limit and does
/// not count towards throughput. An open loop completes what it is offered,
/// so its throughput can only be goodput under a limit, and under a loose one
/// it echoes the offered rate. This one sits at the healthy p99 of a window
/// (about 2 ms on the 10 000-18 000-row tables of a section), so that one
/// unit in a hundred already misses it and any slowdown of the body or the
/// tail shows.
pub const JOURNEY_LIMIT_MS: f64 = 2.0;
/// Units per burst. `binding::queue_pass` re-offers the whole backlog on
/// every pass, so a burst's throughput falls with its size (probed: 16 k/s at
/// 2 000 units, 8.8 k/s at 5 000, 3 k/s at 10 000). At this size that cost
/// dominates — the burst is bound by the manager thread's CPU, not by hand-offs
/// between the stack's seven threads, which follow the host's mood — and a
/// run still holds some thirty bursts.
pub const BURST_UNITS: u64 = 5_000;

/// An open loop's due times, seconds after its section starts: one unit per
/// `1/rate` slot, placed uniformly inside its slot by the seed.
pub fn schedule(seed: u64, seconds: f64, rate_per_s: f64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    let n = (seconds * rate_per_s).round() as u64;
    (0..n)
        .map(|i| (i as f64 + rng.f64()) / rate_per_s)
        .collect()
}

/// A fresh stack on a WAL tree of its own, holding `history` finished units,
/// warmed up.
fn start(plan: &Plan, clock: Clock, out: &mut Outcome, history: u64) -> (WalDir, Stack) {
    let wal = WalDir::create(&format!("stack-{}", out.setup_s.len())).expect("WAL dir");
    let stack = Stack::start(wal.path(), clock, plan, history);
    out.setup_s.push(stack.setup_s);
    (wal, stack)
}

/// A stack that ran `samples`, stopped, the oracles on the live stack
/// checked. The WAL tree stays for the cold restarts.
struct Section {
    wal: WalDir,
    samples: Vec<UnitSample>,
    delta: DeltaStats,
    stopped: Stopped,
    svc_epoch_s: f64,
}

fn finish(
    out: &mut Outcome,
    (wal, stack): (WalDir, Stack),
    (samples, delta): (Vec<UnitSample>, DeltaStats),
) -> Section {
    let svc_epoch_s = stack.svc_epoch_s;
    let stopped = stack.stop();
    check_live(out, &stopped, samples.len());
    Section {
        wal,
        samples,
        delta,
        stopped,
        svc_epoch_s,
    }
}

/// One cold restart from a section's WAL tree, back to the digest its live
/// read plane ended on.
fn restart(out: &mut Outcome, s: &Section) -> Recovery {
    let recovery = recover(s.wal.path());
    out.recover_s.push(recovery.total_s);
    out.check(
        recovery.digest == s.stopped.digest && recovery.events_lost == 0,
        || {
            format!(
                "from-scratch bootstrap digest {:#x} (lost {}) != live digest {:#x}",
                recovery.digest, recovery.events_lost, s.stopped.digest
            )
        },
    );
    recovery
}

pub fn unit_journey(plan: &Plan) -> Outcome {
    let clock = Clock::start();
    let mut out = Outcome::default();
    let sections = (plan.seconds / JOURNEY_SECTION_S).floor().max(1.0) as usize;
    let section_s = plan.seconds / sections as f64;
    let window_s = JOURNEY_WINDOW_S.min(section_s);
    let windows = (section_s / window_s).ceil() as usize;
    let history = plan.scaled(JOURNEY_HISTORY_UNITS, 500);
    let mut last = None;
    for k in 0..sections as u64 {
        // Drop the previous stack before the next one is built.
        drop(last.take());
        let dues = schedule(
            plan.seed ^ (k << 32),
            windows as f64 * window_s,
            JOURNEY_RATE_PER_S,
        );
        let mut stack = start(plan, clock, &mut out, history);
        let t_start = clock.now();
        let ran = stack.1.run_units(&dues);
        let first = out.rounds.len();
        out.rounds.resize_with(first + windows, || Round {
            seconds: window_s,
            ..Round::default()
        });
        for u in &ran.0 {
            let w = (((u.due_s - t_start) / window_s) as usize).min(windows - 1);
            let round = &mut out.rounds[first + w];
            round.ops += 1;
            round.gen_late_ms.push((u.submit_s - u.due_s) * 1e3);
            let Some(visible_s) = u.visible_s else {
                round.failed += 1;
                continue;
            };
            let latency_ms = (visible_s - u.due_s) * 1e3;
            round.latency_ms.push(latency_ms);
            round.completed += u64::from(latency_ms <= JOURNEY_LIMIT_MS);
        }
        let s = finish(&mut out, stack, ran);
        // Two cold restarts per section, so set-ups, rounds and restarts are
        // all spread over the run alike (unless only the primary metric is
        // wanted).
        if !plan.reference {
            restart(&mut out, &s);
        }
        let recovery = restart(&mut out, &s);
        last = Some((s, recovery));
    }
    if plan.traced {
        let (s, recovery) = last.expect("at least one section");
        layers(&mut out, s, recovery);
    }
    out
}

pub fn ensemble_burst(plan: &Plan) -> Outcome {
    let clock = Clock::start();
    let mut out = Outcome::default();
    let burst = vec![0.0; plan.scaled(BURST_UNITS, 100) as usize];
    let mut measured_s = 0.0;
    let mut last = None;
    while measured_s < plan.seconds {
        // Drop the previous stack before the next one is built.
        drop(last.take());
        let mut stack = start(plan, clock, &mut out, 0);
        let t_start = clock.now();
        let ran = stack.1.run_units(&burst);
        let latency_ms: Vec<f64> = ran
            .0
            .iter()
            .filter_map(|u| u.visible_s.map(|v| (v - u.submit_s) * 1e3))
            .collect();
        let t_end = ran
            .0
            .iter()
            .filter_map(|u| u.visible_s)
            .fold(t_start, f64::max);
        measured_s += t_end - t_start;
        out.rounds.push(Round {
            ops: ran.0.len() as u64,
            failed: (ran.0.len() - latency_ms.len()) as u64,
            completed: latency_ms.len() as u64,
            seconds: t_end - t_start,
            latency_ms,
            gen_late_ms: Vec::new(),
        });
        let s = finish(&mut out, stack, ran);
        // One cold restart per burst, so the samples are spread over the run
        // like every other metric's.
        let recovery = restart(&mut out, &s);
        last = Some((s, recovery));
    }
    if plan.traced {
        let (s, recovery) = last.expect("at least one round");
        layers(&mut out, s, recovery);
    }
    out
}

/// Oracles on the stopped stack itself: every unit the service accepted
/// (warm-up included) ended `Done`, and nothing was dropped or trimmed.
fn check_live(out: &mut Outcome, stopped: &Stopped, timed_units: usize) {
    let done = stopped
        .report
        .units
        .iter()
        .filter(|u| u.state == UnitState::Done)
        .count();
    let total = stopped.report.units.len();
    out.check(done == total && total >= timed_units, || {
        format!("{done} of {total} submitted units ended Done (timed section had {timed_units})")
    });
    out.check(stopped.sink_dropped == 0, || {
        format!("sink dropped {} events", stopped.sink_dropped)
    });
    out.check(stopped.folds.events_lost() == 0, || {
        format!("live fold lost {} events", stopped.folds.events_lost())
    });
}

/// Per-layer metrics and spans of one traced section.
fn layers(out: &mut Outcome, last: Section, recovery: Recovery) {
    let Section {
        wal,
        samples,
        delta,
        stopped,
        svc_epoch_s,
    } = last;
    out.check(stopped.fold.error.is_none(), || {
        format!("traced fold loop ended early: {:?}", stopped.fold.error)
    });
    let probes = stopped.probes.as_ref().expect("traced run has probes");
    let first_id = samples.iter().map(|u| u.id).min().unwrap_or(0);
    let times: HashMap<u64, _> = stopped
        .report
        .units
        .iter()
        .filter(|u| u.unit.0 >= first_id && u.state == UnitState::Done)
        .map(|u| (u.unit.0, u.times))
        .collect();
    let ms_p50 = |f: &dyn Fn(&pilot_core::UnitTimes) -> Option<f64>| {
        median(
            &times
                .values()
                .filter_map(f)
                .map(|s| s * 1e3)
                .collect::<Vec<_>>(),
        )
    };

    out.layer("core.binding.passes", probes.sched.passes() as f64);
    out.layer(
        "core.binding.offered_per_bind",
        probes.sched.offered() as f64 / stopped.binds.max(1) as f64,
    );
    out.layer("core.binding.select_busy_s", probes.sched.select_busy_s());
    out.layer(
        "core.thread.submit_call_us_p50",
        median(
            &samples
                .iter()
                .map(|u| u.submit_call_s * 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    out.layer("core.thread.wait_ms_p50", ms_p50(&|t| t.wait()));
    out.layer("core.thread.dispatch_ms_p50", ms_p50(&|t| t.staging()));
    out.layer("core.thread.exec_ms_p50", ms_p50(&|t| t.execution()));

    let calls = probes.sink.calls();
    out.layer("query.sink.emit_calls", calls as f64);
    out.layer(
        "query.sink.events_per_call",
        probes.sink.events() as f64 / calls.max(1) as f64,
    );
    out.layer("query.sink.emit_busy_s", probes.sink.busy_s());
    out.layer("query.sink.dropped", stopped.sink_dropped as f64);

    out.layer("streaming.wal.bytes", wal.bytes() as f64);
    out.layer("streaming.wal.recover_s", recovery.wal_open_s);
    out.layer("streaming.wal.recover_records", recovery.wal_records as f64);

    out.layer("query.materializer.fold_busy_s", stopped.fold.busy_s);
    out.layer("query.materializer.idle_s", stopped.fold.idle_s);
    out.layer(
        "query.materializer.events_applied",
        stopped.folds.events_applied() as f64,
    );
    out.layer(
        "query.materializer.publishes",
        stopped
            .folds
            .shards()
            .iter()
            .map(|m| m.tables().version)
            .sum::<u64>() as f64,
    );
    out.layer("query.materializer.lag_max", stopped.fold.lag_max as f64);
    out.layer(
        "query.materializer.events_lost",
        stopped.folds.events_lost() as f64,
    );
    out.layer("query.materializer.bootstrap_s", recovery.bootstrap_s);

    out.layer("query.delta.batches", delta.batches as f64);
    out.layer(
        "query.delta.rows_per_batch",
        delta.rows as f64 / delta.batches.max(1) as f64,
    );
    out.layer("query.delta.push_ms_p50", median(&delta.push_ms));

    // The journey, stage by stage. Boundaries: due and submit (harness
    // stamps); accepted and finished (the service's own stamps, moved onto
    // the harness clock by the service's start time — the manager restamps
    // `submitted` when it takes the unit off its channel, so that stamp is
    // the acceptance); emitted (harness stamp as the Done event's batch left
    // the sink); visible.
    let done: HashMap<u64, DoneStamp> = probes
        .sink
        .take_done()
        .into_iter()
        .map(|d| (d.unit, d))
        .collect();
    const STAGES: [&str; 5] = [
        "gen_late",
        "submit_to_accept",
        "control",
        "finished_to_emit",
        "emit_to_visible",
    ];
    let mut rows: [Vec<f64>; 6] = Default::default();
    for u in &samples {
        let (Some(visible), Some(d), Some(t)) = (u.visible_s, done.get(&u.id), times.get(&u.id))
        else {
            continue;
        };
        let edges = [
            u.due_s,
            u.submit_s,
            svc_epoch_s + t.submitted,
            svc_epoch_s + d.finished_svc_s,
            d.emitted_s,
            visible,
        ];
        let root = out.spans.len();
        let span = |name, start_s, end_s, parent| Span {
            name,
            start_s,
            end_s,
            parent,
            unit: Some(u.id),
        };
        out.spans.push(span("journey", u.due_s, visible, None));
        for (i, name) in STAGES.into_iter().enumerate() {
            rows[i].push(edges[i + 1] - edges[i]);
            out.spans
                .push(span(name, edges[i], edges[i + 1], Some(root)));
        }
        rows[5].push(visible - u.due_s);
    }
    for (name, calls) in [
        ("sink.emit_batch", probes.sink.take_call_spans()),
        ("materializer.poll_apply", stopped.fold.poll_spans.clone()),
    ] {
        out.spans
            .extend(calls.into_iter().map(|(start_s, end_s)| Span {
                name,
                start_s,
                end_s,
                parent: None,
                unit: None,
            }));
    }
    // Emit→visible early and late in the round: publish clones the whole
    // table, so the last quarter pays for every row the first three added.
    let q = rows[4].len() / 4;
    let quarter_p50_ms = |r: &[f64]| percentile(&sorted(r.to_vec()), 0.5) * 1e3;
    out.layer("query.visible_ms_p50.q1", quarter_p50_ms(&rows[4][..q]));
    out.layer(
        "query.visible_ms_p50.q4",
        quarter_p50_ms(&rows[4][rows[4].len() - q..]),
    );

    let [gen_late, accept, control, to_emit, to_visible, total] = rows.map(|r| mean(&r) * 1e3);
    let sum = gen_late + accept + control + to_emit + to_visible;
    out.layer("journey.gen_late_ms", gen_late);
    out.layer("journey.submit_to_accept_ms", accept);
    out.layer("journey.control_ms", control);
    out.layer("journey.finished_to_emit_ms", to_emit);
    out.layer("journey.emit_to_visible_ms", to_visible);
    out.layer("journey.total_ms", total);
    out.layer("journey.rows_over_total", sum / total);
    out.check((sum / total - 1.0).abs() <= 0.05, || {
        format!("journey rows sum to {sum:.4} ms, end-to-end mean is {total:.4} ms")
    });
}
