//! The thread backend's manager is one event loop: idle, it parks on its
//! inbox; its timers live in a queue it fires itself, not in one sleeping
//! thread per timer. Both are probed from outside through `/proc/self/task`,
//! with no hook in library code. One `#[test]`, so no other service shares
//! the process and every `pilot-manager` thread counted belongs to it.
#![cfg(target_os = "linux")]

use pilot_core::retry::RetryPolicy;
use pilot_core::scheduler::FirstFitScheduler;
use pilot_core::thread::{kernel_fn, TaskError, TaskOutput, ThreadPilotService};
use pilot_core::{PilotDescription, UnitDescription, UnitState};
use pilot_sim::SimDuration;
use std::fs;
use std::time::{Duration, Instant};

/// `(tid, name)` of every thread in this process.
fn threads() -> Vec<(String, String)> {
    fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|entry| {
            let tid = entry.ok()?.file_name().into_string().ok()?;
            let comm = fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            Some((tid, comm.trim_end().to_string()))
        })
        .collect()
}

/// Thread ids of every thread named `pilot-manager`. Threads spawned without
/// a name inherit their spawner's, so a manager's helper threads count too.
fn manager_threads() -> Vec<String> {
    threads()
        .into_iter()
        .filter_map(|(tid, name)| (name == "pilot-manager").then_some(tid))
        .collect()
}

/// Wait, with a bound, until `n` threads carry a name starting with
/// `prefix`. A spawned thread sets its own name once it runs; until then it
/// shows its spawner's, so a pilot worker the manager just spawned reads as a
/// second `pilot-manager`.
fn wait_named(prefix: &str, n: usize) {
    let t0 = Instant::now();
    while threads()
        .iter()
        .filter(|(_, name)| name.starts_with(prefix))
        .count()
        < n
    {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{n} threads named {prefix}* never appeared: {:?}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// How many times the thread has blocked and been woken so far.
fn voluntary_switches(tid: &str) -> u64 {
    fs::read_to_string(format!("/proc/self/task/{tid}/status"))
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

#[test]
fn manager_parks_when_idle_and_arms_timers_without_threads() {
    let s = ThreadPilotService::new(Box::new(FirstFitScheduler));
    let p = s.submit_pilot(PilotDescription::new(1, SimDuration::MAX));
    assert!(s.wait_pilot_active(p));
    wait_named(&format!("{p}-w"), 1);
    let mgr = manager_threads();
    assert_eq!(mgr.len(), 1, "one service, one manager thread: {mgr:?}");

    // (a) Idle with one active pilot and no timer armed, the manager blocks
    // in `recv` and nothing wakes it. A polling wait wakes it every few
    // hundred microseconds (758 times in 200 ms before this design).
    std::thread::sleep(Duration::from_millis(20));
    let before = voluntary_switches(&mgr[0]);
    std::thread::sleep(Duration::from_millis(200));
    let woken = voluntary_switches(&mgr[0]) - before;
    assert!(woken <= 5, "idle manager was woken {woken} times in 200 ms");

    // (b) Every unit arms a 600-s deadline timer when it starts. A thread
    // per timer would still be asleep, named `pilot-manager`, after the
    // units finish (201 manager threads before this design).
    for _ in 0..200 {
        s.submit_unit(
            UnitDescription::new(1).with_deadline(600.0),
            kernel_fn(|_| Ok(TaskOutput::none())),
        );
    }
    s.wait_all_units();
    assert_eq!(manager_threads().len(), 1, "timers must not own threads");
    assert_eq!(s.shutdown().done_unit_times().len(), 200);

    // (c) Shutdown does not wait for armed timers: a 1-hour walltime, a
    // 1-hour deadline on a running unit and a 1-hour backoff.
    let s = ThreadPilotService::new(Box::new(FirstFitScheduler));
    let p = s.submit_pilot(PilotDescription::new(2, SimDuration::from_secs_f64(3600.0)));
    assert!(s.wait_pilot_active(p));
    let backoff = s.submit_unit(
        UnitDescription::new(1).with_retry(RetryPolicy::fixed(2, 3600.0)),
        kernel_fn(|_| Err(TaskError("first attempt".into()))),
    );
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let running = s.submit_unit(
        UnitDescription::new(1).with_deadline(3600.0),
        kernel_fn(move |_| {
            let _ = started_tx.send(());
            std::thread::sleep(Duration::from_millis(100));
            Ok(TaskOutput::none())
        }),
    );
    started_rx.recv().unwrap();
    let waited = Instant::now();
    while s.unit_state(backoff) != Some(UnitState::Failed) {
        assert!(waited.elapsed() < Duration::from_secs(10), "no backoff");
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    let report = s.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
    let state = |id| report.units.iter().find(|u| u.unit == id).unwrap().state;
    assert_eq!(state(running), UnitState::Done, "running units drain");
    assert_eq!(state(backoff), UnitState::Canceled, "backoffs cancel");
}
