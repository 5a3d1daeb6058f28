//! Read-plane regression guard: re-measures the three load-bearing query-path
//! costs — the projection dashboard read, the materializer fold-apply, and
//! one publication interval on a 10 000-row table — and fails (exit 1) if any
//! regressed more than 2× against the committed `BENCH_query.json` baseline.
//!
//! The criterion shim prints plain text, so the guard does not parse bench
//! output; it re-times the same workloads directly (best-of-N to damp CI
//! noise) and compares against the baseline file parsed with the miniapp's
//! own JSON reader. 2× is deliberately loose: it catches accidental
//! algorithmic regressions (a lock on the read path, an O(n) fold step going
//! O(n²), a publication that copies the table again: ~12× at 10 000 rows)
//! without tripping on shared-runner jitter.
//!
//! Usage: `query_guard [path/to/BENCH_query.json]`

use pilot_bench::experiments::qp::PublishCycle;
use pilot_core::describe::{PilotDescription, UnitDescription};
use pilot_core::events::ProjEvent;
use pilot_core::ids::{PilotId, UnitId};
use pilot_core::scheduler::FirstFitScheduler;
use pilot_core::state::UnitState;
use pilot_core::thread::{kernel_fn, TaskOutput, ThreadPilotService};
use pilot_core::WallClock;
use pilot_miniapp::json;
use pilot_query::{BrokerSink, Materializer, QueryTables};
use pilot_sim::SimDuration;
use pilot_streaming::{Broker, BrokerError};
use std::hint::black_box;
use std::sync::Arc;

/// Baseline µs/iter for `id` from the committed bench file.
fn baseline_us(doc: &json::Value, id: &str) -> Option<f64> {
    doc.get("results")?.as_arr()?.iter().find_map(|r| {
        if r.get("id")?.as_str()? == id {
            r.get("us_per_iter")?.as_f64()
        } else {
            None
        }
    })
}

/// Best-of-`rounds` time for `iters` runs of `f`, in µs per iteration.
fn time_us(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..rounds {
        let clock = WallClock::start();
        for _ in 0..iters {
            f();
        }
        best = best.min(clock.elapsed().as_secs_f64());
    }
    best * 1e6 / iters as f64
}

/// Best-of-5 µs per publication interval (40 updates folded + `publish()`)
/// on a `rows`-row table; staging the updates is outside the timing.
fn publish_cycle_us(rows: u64) -> Result<f64, BrokerError> {
    let mut cycle = PublishCycle::new(rows)?;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let mut busy_s = 0.0;
        for _ in 0..50 {
            cycle.stage();
            let clock = WallClock::start();
            black_box(cycle.fold_and_publish()?);
            busy_s += clock.elapsed().as_secs_f64();
        }
        best = best.min(busy_s * 1e6 / 50.0);
    }
    Ok(best)
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| format!("{}/../../BENCH_query.json", env!("CARGO_MANIFEST_DIR")));
    let raw = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("query_guard: cannot read baseline {path}: {e}");
            std::process::exit(2);
        }
    };
    let doc = match json::parse(&raw) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("query_guard: cannot parse baseline {path}: {e:?}");
            std::process::exit(2);
        }
    };

    // --- dashboard read: the committed projection/2000 workload -----------
    let units = 2000usize;
    let broker = Arc::new(Broker::new());
    let sink = BrokerSink::create(Arc::clone(&broker), "guard.proj", 4)
        // lint: allow(panic, reason = "fresh broker, fresh topic")
        .expect("projection topic");
    let svc = ThreadPilotService::with_sink(Box::new(FirstFitScheduler), sink);
    let p = svc.submit_pilot(PilotDescription::new(4, SimDuration::MAX));
    assert!(svc.wait_pilot_active(p), "pilot must activate");
    for _ in 0..units {
        let u = svc.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|_| Ok(TaskOutput::of(0u64))),
        );
        // lint: allow(panic, reason = "unit ids come from submit_unit on this same service")
        svc.wait_unit(u).expect("unit issued by this service");
    }
    let mut m = Materializer::bootstrap(Arc::clone(&broker), "guard.proj")
        // lint: allow(panic, reason = "the topic was created above")
        .expect("bootstrap");
    m.catch_up()
        // lint: allow(panic, reason = "broker and topic are alive for the whole run")
        .expect("seed drain");
    let qs = m.service();
    let dash_us = time_us(5, 20_000, || {
        let d = qs.dashboard();
        black_box(d.units_in(UnitState::Done) + d.open_units());
    });
    svc.shutdown();

    // --- fold apply: the committed query_fold/apply workload --------------
    let events: Vec<ProjEvent> = (0..4096u64 / 5)
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
    let fold_us = time_us(5, 20, || {
        let mut t = QueryTables::new(4);
        for e in &events {
            t.apply(e);
        }
        black_box(t.digest());
    });

    // --- publish: the committed query_publish/10000 workload --------------
    let publish_us = match publish_cycle_us(10_000) {
        Ok(us) => us,
        Err(e) => {
            eprintln!("query_guard: publish cycle failed: {e:?}");
            std::process::exit(2);
        }
    };

    let checks = [
        ("query_dashboard/projection/2000", dash_us),
        ("query_fold/apply", fold_us),
        ("query_publish/10000", publish_us),
    ];
    let mut failed = false;
    for (id, measured) in checks {
        match baseline_us(&doc, id) {
            Some(base) => {
                let ratio = measured / base.max(1e-9);
                let verdict = if ratio > 2.0 { "REGRESSED" } else { "ok" };
                println!(
                    "query_guard: {id}: measured {measured:.3} µs vs baseline {base:.3} µs ({ratio:.2}x) {verdict}"
                );
                if ratio > 2.0 {
                    failed = true;
                }
            }
            None => {
                eprintln!("query_guard: baseline {path} has no entry for {id}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("query_guard: read-plane performance regressed >2x against {path}");
        std::process::exit(1);
    }
    println!("query_guard: read plane within 2x of committed baselines");
}
