//! The pilot agent: a worker-thread pool executing assigned units.
//!
//! One agent per active pilot. Workers pull assignments from a shared
//! channel (crossbeam MPMC), stamp start/finish times against the service's
//! epoch, catch kernel panics, and report into the manager's one inbox as
//! `Msg::Started` / `Msg::Finished` / `Msg::Skipped` — the same channel that
//! carries API calls, so the manager blocks on nothing else.

use super::kernel::{TaskCtx, TaskError, WorkKernel};
use super::service::Msg;
use crate::ids::{PilotId, UnitId};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit handed to the agent for execution.
pub(super) struct Assignment {
    pub unit: UnitId,
    /// Attempt generation at bind time. Echoed in every report so the
    /// manager can drop reports from attempts it already abandoned
    /// (deadline expiry, pilot crash, retry).
    pub gen: u64,
    pub cores: u32,
    pub kernel: Arc<dyn WorkKernel>,
    /// Set by the manager if the unit was canceled after binding; the worker
    /// skips execution when it observes the flag.
    pub cancel_flag: Arc<AtomicBool>,
}

enum Cmd {
    Run(Assignment),
    Stop,
}

/// Worker pool bound to one pilot.
pub(super) struct Agent {
    tx: Sender<Cmd>,
    workers: Vec<JoinHandle<()>>,
    cores: u32,
}

impl Agent {
    /// Spawn `cores` workers reporting into `inbox` with timestamps relative
    /// to `epoch`.
    pub fn new(pilot: PilotId, cores: u32, epoch: Instant, inbox: Sender<Msg>) -> Self {
        let (tx, rx) = unbounded::<Cmd>();
        let workers = (0..cores.max(1))
            .map(|i| {
                let (rx, inbox) = (rx.clone(), inbox.clone());
                std::thread::Builder::new()
                    .name(format!("{pilot}-w{i}"))
                    .spawn(move || work(pilot, epoch, rx, inbox))
                    // lint: allow(panic, reason = "thread spawn fails only on OS resource exhaustion; a pilot without its workers cannot honor its core count")
                    .expect("spawn agent worker")
            })
            .collect();
        Agent { tx, workers, cores }
    }

    /// Queue a unit for execution.
    pub fn submit(&self, a: Assignment) {
        // Send can only fail if all workers exited (after stop); assignments
        // at that point were already drained back by the manager.
        let _ = self.tx.send(Cmd::Run(a));
    }

    /// Stop workers after they drain already-queued assignments.
    pub fn stop(&self) {
        for _ in 0..self.cores.max(1) {
            let _ = self.tx.send(Cmd::Stop);
        }
    }

    /// Join all workers (after `stop`). The manager tears down with
    /// [`detach`](Self::detach) instead; joining is for tests that need the
    /// workers provably drained.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn join(self) {
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Drop the worker handles without joining. The manager uses this
    /// instead of `join` so a kernel that ignores its deadline (or a worker
    /// stranded by a crashed pilot) cannot wedge teardown; idle workers
    /// still exit on their queued `Stop` commands.
    pub fn detach(self) {
        drop(self.workers);
    }
}

/// One worker: run assignments until `Stop`, reporting each into the inbox.
fn work(pilot: PilotId, epoch: Instant, rx: Receiver<Cmd>, inbox: Sender<Msg>) {
    let now = || epoch.elapsed().as_secs_f64();
    while let Ok(Cmd::Run(a)) = rx.recv() {
        let (unit, gen, t) = (a.unit, a.gen, now());
        if a.cancel_flag.load(Ordering::Acquire) {
            let _ = inbox.send(Msg::Skipped { unit, gen, t });
            continue;
        }
        let _ = inbox.send(Msg::Started { unit, gen, t });
        let ctx = TaskCtx {
            unit,
            pilot,
            cores: a.cores,
        };
        let result = catch_unwind(AssertUnwindSafe(|| a.kernel.run(&ctx))).unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "kernel panicked".to_string());
            Err(TaskError(format!("panic: {msg}")))
        });
        let _ = inbox.send(Msg::Finished {
            unit,
            gen,
            t: now(),
            result,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::kernel::{kernel_fn, TaskOutput};
    use crossbeam::channel::unbounded;

    fn mk_agent(cores: u32) -> (Agent, Receiver<Msg>) {
        let (tx, rx) = unbounded();
        let agent = Agent::new(PilotId(1), cores, Instant::now(), tx);
        (agent, rx)
    }

    fn assignment(unit: u64, kernel: Arc<dyn WorkKernel>) -> Assignment {
        Assignment {
            unit: UnitId(unit),
            gen: 0,
            cores: 1,
            kernel,
            cancel_flag: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn executes_and_reports_in_order_per_unit() {
        let (agent, rx) = mk_agent(1);
        agent.submit(assignment(1, kernel_fn(|_| Ok(TaskOutput::of(42u32)))));
        let started = rx.recv().unwrap();
        assert!(matches!(
            started,
            Msg::Started {
                unit: UnitId(1),
                ..
            }
        ));
        let finished = rx.recv().unwrap();
        match finished {
            Msg::Finished { unit, result, .. } => {
                assert_eq!(unit, UnitId(1));
                assert_eq!(result.unwrap().downcast::<u32>().ok(), Some(42));
            }
            _ => panic!("expected Finished"),
        }
        agent.stop();
        agent.join();
    }

    #[test]
    fn panicking_kernel_reports_failure_and_worker_survives() {
        let (agent, rx) = mk_agent(1);
        agent.submit(assignment(1, kernel_fn(|_| panic!("kaboom"))));
        agent.submit(assignment(2, kernel_fn(|_| Ok(TaskOutput::none()))));
        let mut failed = false;
        let mut second_ok = false;
        for _ in 0..4 {
            match rx.recv().unwrap() {
                Msg::Finished { unit, result, .. } => {
                    if unit == UnitId(1) {
                        let err = result.unwrap_err();
                        assert!(err.0.contains("kaboom"), "{err}");
                        failed = true;
                    } else {
                        assert!(result.is_ok());
                        second_ok = true;
                    }
                }
                Msg::Started { .. } => {}
                _ => panic!("nothing canceled"),
            }
        }
        assert!(failed && second_ok);
        agent.stop();
        agent.join();
    }

    #[test]
    fn cancel_flag_skips_execution() {
        let (agent, rx) = mk_agent(1);
        let flag = Arc::new(AtomicBool::new(true));
        agent.submit(Assignment {
            unit: UnitId(9),
            gen: 0,
            cores: 1,
            kernel: kernel_fn(|_| Ok(TaskOutput::of(1u8))),
            cancel_flag: flag,
        });
        match rx.recv().unwrap() {
            Msg::Skipped { unit, .. } => assert_eq!(unit, UnitId(9)),
            _ => panic!("expected Skipped"),
        }
        agent.stop();
        agent.join();
    }

    #[test]
    fn stop_drains_queued_work_first() {
        let (agent, rx) = mk_agent(1);
        for i in 0..5 {
            agent.submit(assignment(i, kernel_fn(|_| Ok(TaskOutput::none()))));
        }
        agent.stop();
        let finished = rx
            .iter()
            .filter(|r| matches!(r, Msg::Finished { .. }))
            .count();
        assert_eq!(finished, 5, "FIFO channel drains Run before Stop");
        agent.join();
    }

    #[test]
    fn multicore_agent_runs_units_concurrently() {
        let (agent, rx) = mk_agent(4);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        for i in 0..4 {
            let b = Arc::clone(&barrier);
            agent.submit(assignment(
                i,
                kernel_fn(move |_| {
                    // Deadlocks unless all four run at once.
                    b.wait();
                    Ok(TaskOutput::none())
                }),
            ));
        }
        let mut finished = 0;
        while finished < 4 {
            if let Msg::Finished { result, .. } = rx.recv().unwrap() {
                assert!(result.is_ok());
                finished += 1;
            }
        }
        agent.stop();
        agent.join();
    }
}
