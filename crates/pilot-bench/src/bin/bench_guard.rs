//! Regression guard over the committed bench ledgers: re-measures the three
//! load-bearing read-plane costs — the projection dashboard read, the
//! materializer fold-apply, and one publication interval on a 10 000-row
//! table — against `BENCH_query.json`, and the two durable data-plane costs
//! — a 256-record batch into a 4-partition WAL-backed broker and recovery of
//! a 64 Ki-record WAL — against `BENCH_streaming.json`. It fails (exit 1) if
//! any regressed more than 2×.
//!
//! The criterion shim prints plain text, so the guard does not parse bench
//! output; it re-times the same workloads directly (best-of-N to damp CI
//! noise) and compares against the baseline files parsed with the miniapp's
//! own JSON reader. 2× is deliberately loose: it catches accidental
//! algorithmic regressions (a lock on the read path, an O(n) fold step going
//! O(n²), a publication that copies the table again: ~12× at 10 000 rows; a
//! bytewise checksum again: ~2.3× on the durable batch) without tripping on
//! shared-runner jitter.
//!
//! Usage: `bench_guard [path/to/BENCH_query.json [path/to/BENCH_streaming.json]]`

use pilot_bench::experiments::qp::PublishCycle;
use pilot_bench::experiments::st::WalStream;
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

/// The committed bench file at `path`, parsed; exits 2 if it cannot be read.
fn load(path: &str) -> json::Value {
    let raw = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_guard: cannot read baseline {path}: {e}");
            std::process::exit(2);
        }
    };
    match json::parse(&raw) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_guard: cannot parse baseline {path}: {e:?}");
            std::process::exit(2);
        }
    }
}

/// The value in `r`, or exit 2 naming the workload that failed to run.
fn or_exit<T>(what: &str, r: Result<T, BrokerError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("bench_guard: {what} failed: {e:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let query_path = args
        .next()
        .unwrap_or_else(|| format!("{root}/BENCH_query.json"));
    let streaming_path = args
        .next()
        .unwrap_or_else(|| format!("{root}/BENCH_streaming.json"));
    let query_doc = load(&query_path);
    let streaming_doc = load(&streaming_path);

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
    let publish_us = or_exit("publish cycle", publish_cycle_us(10_000));

    // --- durable produce: the committed stream_produce_wal/batch256/4 -----
    let wal = or_exit("WAL broker", WalStream::new(4));
    let produce_us = time_us(5, 4, || or_exit("WAL produce", wal.produce(4096, 256)));
    drop(wal);

    // --- recovery: the committed stream_recover_wal/4 ---------------------
    let wal = or_exit("WAL broker", WalStream::new(4));
    or_exit("WAL produce", wal.produce(65_536, 256));
    let recover_us = time_us(5, 1, || {
        if or_exit("WAL recovery", wal.recover()) != 65_536 {
            eprintln!("bench_guard: WAL recovery lost records");
            std::process::exit(2);
        }
    });

    let checks = [
        (
            &query_doc,
            &query_path,
            "query_dashboard/projection/2000",
            dash_us,
        ),
        (&query_doc, &query_path, "query_fold/apply", fold_us),
        (&query_doc, &query_path, "query_publish/10000", publish_us),
        (
            &streaming_doc,
            &streaming_path,
            "stream_produce_wal/batch256/4",
            produce_us,
        ),
        (
            &streaming_doc,
            &streaming_path,
            "stream_recover_wal/4",
            recover_us,
        ),
    ];
    let mut failed = false;
    for (doc, path, id, measured) in checks {
        match baseline_us(doc, id) {
            Some(base) => {
                let ratio = measured / base.max(1e-9);
                let verdict = if ratio > 2.0 { "REGRESSED" } else { "ok" };
                println!(
                    "bench_guard: {id}: measured {measured:.3} µs vs baseline {base:.3} µs ({ratio:.2}x) {verdict}"
                );
                if ratio > 2.0 {
                    failed = true;
                }
            }
            None => {
                eprintln!("bench_guard: baseline {path} has no entry for {id}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("bench_guard: performance regressed >2x against the committed baselines");
        std::process::exit(1);
    }
    println!("bench_guard: read and durable data planes within 2x of committed baselines");
}
