//! The threaded Pilot-API service: pilot manager + unit manager + late-binding
//! scheduler as one event-loop thread, with blocking handles for applications.

use super::agent::{Agent, Assignment};
use super::kernel::{TaskError, TaskOutput, WorkKernel};
use crate::binding::BindStats;
use crate::describe::{PilotDescription, UnitDescription};
use crate::events::{EventSink, ProjEvent};
use crate::ids::{IdGen, PilotId, UnitId};
use crate::ledger::{Ledger, Retry};
use crate::metrics::{PilotTimes, UnitRecord, UnitTimes};
use crate::retry::{FaultPlan, ReliabilityStats};
use crate::scheduler::Scheduler;
use crate::state::{PilotState, UnitState};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use pilot_infra::types::SiteId;
use pilot_sim::{SimDuration, SimRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Result of waiting on a unit.
#[derive(Debug)]
pub struct UnitOutcome {
    /// Terminal state reached.
    pub state: UnitState,
    /// Timestamps.
    pub times: UnitTimes,
    /// Kernel result, if it ran. Taken on first wait.
    pub output: Option<Result<TaskOutput, TaskError>>,
}

/// Snapshot of a finished (or shut-down) service run.
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-unit records.
    pub units: Vec<UnitRecord>,
    /// Per-pilot: id, label, site, terminal state, timestamps.
    pub pilots: Vec<(PilotId, String, SiteId, PilotState, PilotTimes)>,
    /// Reliability counters (attempts, requeues, wasted work, recovery).
    pub reliability: ReliabilityStats,
    /// Late-binding hot-path counters (passes, snapshot builds, binds).
    pub bind: BindStats,
}

impl ServiceReport {
    /// Timing records of all units that reached `Done`.
    pub fn done_unit_times(&self) -> Vec<UnitTimes> {
        self.units
            .iter()
            .filter(|u| u.state == UnitState::Done)
            .map(|u| u.times)
            .collect()
    }
}

/// A consistent point-in-time view of the whole registry, cloned under one
/// lock hold. This is the strongest read the lock path can offer — and the
/// QP-1 baseline the projection read plane is measured against: every call
/// still serializes against the manager's write path.
#[derive(Clone, Debug)]
pub struct StatusSnapshot {
    /// Every pilot: id, state, site.
    pub pilots: Vec<(PilotId, PilotState, SiteId)>,
    /// Every unit: id, state, bound pilot (if any).
    pub units: Vec<(UnitId, UnitState, Option<PilotId>)>,
    /// Units not yet terminal.
    pub open_units: usize,
}

/// The manager's one inbox: API calls, agent reports and — through the
/// timer queue — its own timers all arrive as a `Msg`.
pub(super) enum Msg {
    SubmitPilot {
        id: PilotId,
        desc: PilotDescription,
        site: SiteId,
    },
    PilotUp(PilotId),
    PilotExpired(PilotId),
    /// A unit, stamped `submitted` on the caller's thread: its wait
    /// includes the time the message sat in the inbox.
    SubmitUnit {
        id: UnitId,
        desc: UnitDescription,
        kernel: Arc<dyn WorkKernel>,
        submitted: f64,
    },
    CancelPilot(PilotId),
    CancelUnit(UnitId),
    /// Deadline timer fired for the given attempt generation.
    UnitDeadline(UnitId, u64),
    /// Backoff elapsed: a failed unit re-enters the late-binding queue.
    RetryRelease(UnitId, u64),
    /// Injected pilot crash from the fault plan.
    PilotCrash(PilotId),
    Shutdown,
    /// Agent report: attempt `gen` of `unit` started at `t`.
    Started {
        unit: UnitId,
        gen: u64,
        t: f64,
    },
    /// Agent report: attempt `gen` of `unit` returned at `t`.
    Finished {
        unit: UnitId,
        gen: u64,
        t: f64,
        result: Result<TaskOutput, TaskError>,
    },
    /// Agent report: `unit` was canceled after binding and never ran.
    Skipped {
        unit: UnitId,
        gen: u64,
        t: f64,
    },
}

/// The manager's timers: one due-ordered queue that the event loop fires
/// itself — the DES driver's `out.after`, on the wall clock. The sequence
/// number keeps timers with equal due times in arming order.
#[derive(Default)]
struct Timers {
    queue: BTreeMap<(Instant, u64), Msg>,
    seq: u64,
}

impl Timers {
    /// Arm `msg` to fire `delay_s` seconds from now; returns when. A delay
    /// no `Instant` can represent never fires.
    fn after(&mut self, delay_s: f64, msg: Msg) -> Option<Instant> {
        let delay = Duration::try_from_secs_f64(delay_s.max(0.0)).ok()?;
        let due = Instant::now().checked_add(delay)?;
        self.seq += 1;
        self.queue.insert((due, self.seq), msg);
        Some(due)
    }

    /// When the earliest armed timer is due.
    fn next_due(&self) -> Option<Instant> {
        self.queue.keys().next().map(|&(due, _)| due)
    }

    /// Take the earliest timer if it is due by now.
    fn pop_due(&mut self) -> Option<Msg> {
        let first = self.queue.first_entry()?;
        (first.key().0 <= Instant::now()).then(|| first.remove())
    }
}

#[derive(Clone, Debug)]
struct PilotPublic {
    state: PilotState,
    times: PilotTimes,
    site: SiteId,
    label: String,
}

struct UnitPublic {
    state: UnitState,
    times: UnitTimes,
    pilot: Option<PilotId>,
    tag: String,
    output: Option<Result<TaskOutput, TaskError>>,
}

#[derive(Default)]
struct RegInner {
    pilots: HashMap<PilotId, PilotPublic>,
    units: HashMap<UnitId, UnitPublic>,
    open_units: usize,
    /// Written by the manager loop when it exits; read by `shutdown`.
    rel: ReliabilityStats,
    /// Written by the manager loop when it exits; read by `shutdown`.
    bind: BindStats,
}

struct Registry {
    inner: Mutex<RegInner>,
    cv: Condvar,
}

impl Registry {
    fn update<R>(&self, f: impl FnOnce(&mut RegInner) -> R) -> R {
        let mut g = self.inner.lock();
        let r = f(&mut g);
        drop(g);
        self.cv.notify_all();
        r
    }
}

/// The thread driver's part of a unit.
struct UnitRt {
    kernel: Arc<dyn WorkKernel>,
    cancel_flag: Arc<AtomicBool>,
    /// Fault plan verdict for the current attempt, drawn at bind time: a
    /// doomed attempt runs to completion but its result is replaced with an
    /// injected fault (a kernel cannot be aborted mid-run on real threads).
    doomed: bool,
    /// The final attempt's result, until the registry publishes it.
    output: Option<Result<TaskOutput, TaskError>>,
}

/// The thread driver's part of a pilot.
struct PilotRt {
    agent: Option<Agent>,
    /// Where a drain ends: `Done` on walltime expiry, `Canceled` on request.
    drain_to: PilotState,
}

/// Real-execution Pilot-API service. See the [module docs](super).
pub struct ThreadPilotService {
    tx: Sender<Msg>,
    registry: Arc<Registry>,
    manager: Option<JoinHandle<()>>,
    ids: IdGen,
    epoch: Instant,
}

impl ThreadPilotService {
    /// Start a service with the given late-binding scheduler.
    pub fn new(scheduler: Box<dyn Scheduler>) -> Self {
        Self::with_faults(scheduler, FaultPlan::none(), 0)
    }

    /// Start a service that exports read-plane events ([`ProjEvent`]) to
    /// `sink`. The manager emits one `emit_batch` call per drained message
    /// batch, so the write path pays a single batched hand-off regardless of
    /// how many transitions the batch contained.
    pub fn with_sink(scheduler: Box<dyn Scheduler>, sink: Arc<dyn EventSink>) -> Self {
        Self::build(scheduler, FaultPlan::none(), 0, Some(sink))
    }

    /// Start a service with a deterministic fault-injection plan. All fault
    /// draws come from RNG streams derived from `seed`, so the injected
    /// schedule replays identically (execution timings remain wall-clock).
    pub fn with_faults(scheduler: Box<dyn Scheduler>, faults: FaultPlan, seed: u64) -> Self {
        Self::build(scheduler, faults, seed, None)
    }

    /// Fault plan + event sink (see [`with_sink`](Self::with_sink)).
    pub fn with_faults_and_sink(
        scheduler: Box<dyn Scheduler>,
        faults: FaultPlan,
        seed: u64,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        Self::build(scheduler, faults, seed, Some(sink))
    }

    fn build(
        scheduler: Box<dyn Scheduler>,
        faults: FaultPlan,
        seed: u64,
        sink: Option<Arc<dyn EventSink>>,
    ) -> Self {
        let (tx, rx) = unbounded::<Msg>();
        let registry = Arc::new(Registry {
            inner: Mutex::new(RegInner::default()),
            cv: Condvar::new(),
        });
        let epoch = Instant::now();
        let mgr_registry = Arc::clone(&registry);
        let inbox = tx.clone();
        let manager = std::thread::Builder::new()
            .name("pilot-manager".into())
            .spawn(move || {
                Mgr {
                    ledger: Ledger::new(scheduler, SimRng::new(seed), faults),
                    registry: mgr_registry,
                    epoch,
                    inbox,
                    timers: Timers::default(),
                    sched_dirty: false,
                    sink,
                }
                .run(rx)
            })
            // lint: allow(panic, reason = "thread spawn fails only on OS resource exhaustion at service construction; no caller can proceed without a manager")
            .expect("spawn pilot manager");
        ThreadPilotService {
            tx,
            registry,
            manager: Some(manager),
            ids: IdGen::new(),
            epoch,
        }
    }

    /// Submit a pilot on the default site (0).
    pub fn submit_pilot(&self, desc: PilotDescription) -> PilotId {
        self.submit_pilot_at(desc, SiteId(0))
    }

    /// Submit a pilot "on" a named site (sites are labels for data-locality
    /// scheduling in the threaded backend — all execution is local).
    pub fn submit_pilot_at(&self, desc: PilotDescription, site: SiteId) -> PilotId {
        let id = self.ids.pilot();
        // Register a placeholder synchronously so waits on this id observe
        // "known, pending" rather than "unknown" before the manager catches
        // up (wait_pilot_active returns false for genuinely unknown ids).
        let now = self.epoch.elapsed().as_secs_f64();
        let label = desc.label.clone();
        self.registry.update(|r| {
            r.pilots.entry(id).or_insert(PilotPublic {
                state: PilotState::New,
                times: PilotTimes {
                    submitted: now,
                    ..Default::default()
                },
                site,
                label,
            });
        });
        let _ = self.tx.send(Msg::SubmitPilot { id, desc, site });
        id
    }

    /// Submit a compute unit with a kernel.
    pub fn submit_unit(&self, desc: UnitDescription, kernel: Arc<dyn WorkKernel>) -> UnitId {
        let id = self.ids.unit();
        // Count the unit as open *here*, on the caller thread, so a
        // wait_all_units() racing ahead of the manager loop cannot observe
        // zero open units before this submission is processed. The
        // placeholder entry likewise makes wait_unit block on the unit
        // instead of reporting it unknown.
        let now = self.epoch.elapsed().as_secs_f64();
        let tag = desc.tag.clone();
        self.registry.update(|r| {
            r.open_units += 1;
            r.units.entry(id).or_insert(UnitPublic {
                state: UnitState::New,
                times: UnitTimes {
                    submitted: now,
                    ..Default::default()
                },
                pilot: None,
                tag,
                output: None,
            });
        });
        let _ = self.tx.send(Msg::SubmitUnit {
            id,
            desc,
            kernel,
            submitted: now,
        });
        id
    }

    /// Request a graceful pilot teardown (drains assigned units).
    pub fn cancel_pilot(&self, id: PilotId) {
        let _ = self.tx.send(Msg::CancelPilot(id));
    }

    /// Cancel a unit. Pending units cancel immediately; assigned ones are
    /// skipped by the agent; running ones complete (cooperative semantics).
    pub fn cancel_unit(&self, id: UnitId) {
        let _ = self.tx.send(Msg::CancelUnit(id));
    }

    /// Current state of a pilot.
    pub fn pilot_state(&self, id: PilotId) -> Option<PilotState> {
        self.registry.inner.lock().pilots.get(&id).map(|p| p.state)
    }

    /// Current state of a unit.
    pub fn unit_state(&self, id: UnitId) -> Option<UnitState> {
        self.registry.inner.lock().units.get(&id).map(|u| u.state)
    }

    /// A consistent snapshot of every pilot and unit, taken under a single
    /// lock acquisition — unlike calling [`pilot_state`](Self::pilot_state) /
    /// [`unit_state`](Self::unit_state) in a loop, no transition can land
    /// between two entries of the result. Still a lock-path read: it blocks
    /// the manager for the duration of the clone (QP-1's baseline column).
    pub fn status_snapshot(&self) -> StatusSnapshot {
        let g = self.registry.inner.lock();
        let mut pilots: Vec<(PilotId, PilotState, SiteId)> = g
            .pilots
            .iter()
            .map(|(&id, p)| (id, p.state, p.site))
            .collect();
        let mut units: Vec<(UnitId, UnitState, Option<PilotId>)> = g
            .units
            .iter()
            .map(|(&id, u)| (id, u.state, u.pilot))
            .collect();
        let open_units = g.open_units;
        drop(g);
        pilots.sort_unstable_by_key(|(id, _, _)| id.0);
        units.sort_unstable_by_key(|(id, _, _)| id.0);
        StatusSnapshot {
            pilots,
            units,
            open_units,
        }
    }

    /// Block until the pilot leaves `Pending`; true iff it became `Active`.
    /// Returns `false` immediately for ids this service never issued —
    /// waiting on an unknown pilot no longer blocks forever.
    pub fn wait_pilot_active(&self, id: PilotId) -> bool {
        let mut g = self.registry.inner.lock();
        loop {
            match g.pilots.get(&id).map(|p| p.state) {
                Some(PilotState::Active) => return true,
                Some(s) if s.is_terminal() => return false,
                None => return false,
                _ => self.registry.cv.wait(&mut g),
            }
        }
    }

    /// Block until the unit is terminal; returns its outcome (output is
    /// *taken* — a second wait returns `output: None`). Returns `None`
    /// immediately for ids this service never issued — waiting on an
    /// unknown unit no longer blocks forever.
    pub fn wait_unit(&self, id: UnitId) -> Option<UnitOutcome> {
        let mut g = self.registry.inner.lock();
        loop {
            match g.units.get_mut(&id) {
                None => return None,
                // `Failed` without a finish time is a retry in backoff, not
                // a terminal outcome — keep waiting.
                Some(u) if u.state.is_terminal() && u.times.finished.is_some() => {
                    return Some(UnitOutcome {
                        state: u.state,
                        times: u.times,
                        output: u.output.take(),
                    });
                }
                _ => self.registry.cv.wait(&mut g),
            }
        }
    }

    /// Block until every submitted unit is terminal.
    pub fn wait_all_units(&self) {
        let mut g = self.registry.inner.lock();
        while g.open_units > 0 {
            self.registry.cv.wait(&mut g);
        }
    }

    /// Like [`wait_all_units`](Self::wait_all_units) with a timeout;
    /// true iff everything finished.
    pub fn wait_all_units_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.registry.inner.lock();
        while g.open_units > 0 {
            if self.registry.cv.wait_until(&mut g, deadline).timed_out() {
                return g.open_units == 0;
            }
        }
        true
    }

    /// Drain and stop: cancels pending units, drains assigned ones, tears
    /// down agents, and returns the run report.
    pub fn shutdown(mut self) -> ServiceReport {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(h) = self.manager.take() {
            let _ = h.join();
        }
        let mut g = self.registry.inner.lock();
        let units = g
            .units
            .iter_mut()
            .map(|(&unit, u)| UnitRecord {
                unit,
                pilot: u.pilot,
                times: u.times,
                state: u.state,
                tag: u.tag.clone(),
            })
            .collect();
        let pilots = g
            .pilots
            .iter()
            .map(|(&id, p)| (id, p.label.clone(), p.site, p.state, p.times))
            .collect();
        ServiceReport {
            units,
            pilots,
            reliability: g.rel.clone(),
            bind: g.bind,
        }
    }
}

impl Drop for ThreadPilotService {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(h) = self.manager.take() {
            let _ = h.join();
        }
    }
}

/// The Pilot-Manager: one event loop over one inbox and one timer queue,
/// with no helper threads (see [`run`](Self::run)), driving the shared
/// [`Ledger`] on the wall clock.
struct Mgr {
    ledger: Ledger<UnitRt, PilotRt>,
    registry: Arc<Registry>,
    epoch: Instant,
    /// A sender into the manager's own inbox, cloned into every agent.
    inbox: Sender<Msg>,
    timers: Timers,
    /// Set by any capacity or queue change; the run loop executes one
    /// batched binding pass per message batch instead of one per event.
    sched_dirty: bool,
    /// Read-plane export: the ledger's events, handed to the sink with one
    /// `emit_batch` call per loop iteration (`None` disables emission).
    sink: Option<Arc<dyn EventSink>>,
}

impl Mgr {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Publish what the ledger recorded since the last flush: one
    /// `emit_batch` to the sink, then one registry update — the state and
    /// times of every unit and pilot an event names, a finished unit's
    /// output — and one wakeup of the blocked waits. Called once per loop
    /// iteration, so the write path pays one batched hand-off however many
    /// transitions the batch produced.
    fn flush(&mut self) {
        let Some(mut events) = self.ledger.events.0.take_if(|e| !e.is_empty()) else {
            return;
        };
        if let Some(sink) = &self.sink {
            sink.emit_batch(&events);
        }
        let units = &mut self.ledger.units;
        let pilots = &self.ledger.pilots;
        self.registry.update(|r| {
            for ev in &events {
                match *ev {
                    ProjEvent::Unit { unit, pilot, .. } => {
                        let (Some(u), Some(up)) = (units.get_mut(&unit), r.units.get_mut(&unit))
                        else {
                            continue;
                        };
                        UnitState::publish(&mut up.state, u.state);
                        // The row keeps the last pilot the unit was bound
                        // to, as the read plane's fold does.
                        up.pilot = pilot.or(up.pilot);
                        if up.times.finished.is_none() && u.times.finished.is_some() {
                            r.open_units -= 1;
                            up.output = u.x.output.take();
                        }
                        up.times = u.times;
                    }
                    ProjEvent::Pilot { pilot, .. } => {
                        if let (Some(p), Some(pp)) = (pilots.get(&pilot), r.pilots.get_mut(&pilot))
                        {
                            PilotState::publish(&mut pp.state, p.state);
                            pp.times = p.times;
                        }
                    }
                    _ => {}
                }
            }
        });
        events.clear();
        self.ledger.events.0 = Some(events);
    }

    /// The event loop. It blocks in one place: on the inbox, until a message
    /// arrives or — when a timer is armed — until the earliest one is due.
    /// Each iteration then drains the inbox, fires every timer due by now
    /// (including ones armed while firing, so a zero-delay backoff lands
    /// before the pass), runs one binding pass, ends the pilots whose drain
    /// completed, and flushes once. A busy inbox can delay a timer by one
    /// iteration, never more.
    fn run(mut self, rx: Receiver<Msg>) {
        loop {
            // `self.inbox` is a live sender, so the inbox never disconnects.
            let first = match self.timers.next_due() {
                Some(due) => rx
                    .recv_timeout(due.saturating_duration_since(Instant::now()))
                    .ok(),
                None => rx.recv().ok(),
            };
            if let Some(m) = first {
                self.on_msg(m);
            }
            // Drain everything already queued so one binding pass covers the
            // whole batch of capacity changes (dirty-flag wakeup) instead of
            // running once per event.
            while let Ok(m) = rx.try_recv() {
                self.on_msg(m);
            }
            while let Some(m) = self.timers.pop_due() {
                self.on_msg(m);
            }
            if self.sched_dirty {
                self.sched_dirty = false;
                self.bind_and_dispatch();
            }
            self.end_drained();
            self.flush();
            if self.ledger.closed && self.ledger.pilots.values().all(|p| p.bound == 0) {
                break;
            }
        }
        // Tear down agents. Detach instead of join: a kernel that ignored
        // its deadline may still occupy a worker, and joining it would wedge
        // shutdown — the drain gate above already guaranteed no accounted
        // work remains. Armed timers are dropped with `self`.
        let pids: Vec<PilotId> = self.ledger.pilots.keys().copied().collect();
        for pid in pids {
            self.stop_agent(pid);
        }
        // Publish the reliability and binding counters for the final report.
        let (rel, bind) = (self.ledger.rel.clone(), self.ledger.bind);
        self.registry.update(|r| {
            r.rel = rel;
            r.bind = bind;
        });
    }

    fn on_msg(&mut self, msg: Msg) {
        match msg {
            Msg::SubmitPilot { id, desc, site } => self.submit_pilot(id, desc, site),
            Msg::PilotUp(id) => self.pilot_up(id),
            Msg::PilotExpired(id) => self.teardown_pilot(id, PilotState::Done),
            Msg::SubmitUnit {
                id,
                desc,
                kernel,
                submitted,
            } => {
                let x = UnitRt {
                    kernel,
                    cancel_flag: Arc::default(),
                    doomed: false,
                    output: None,
                };
                self.ledger.add_unit(id, desc, x);
                self.ledger.submit(id, submitted);
                self.sched_dirty = true;
            }
            Msg::CancelPilot(id) => self.teardown_pilot(id, PilotState::Canceled),
            Msg::CancelUnit(id) => self.cancel_unit(id),
            Msg::UnitDeadline(id, gen) => {
                // The kernel keeps its worker until it returns; its report
                // is then dropped as stale.
                if self.ledger.is_current(id, gen, UnitState::Running) {
                    self.ledger.rel.deadline_expirations += 1;
                    let retry = self.ledger.fail_attempt(id, self.now());
                    self.after_failure(id, retry, "deadline exceeded");
                }
            }
            Msg::RetryRelease(id, gen) => {
                if self.ledger.release(id, gen, self.now()) {
                    self.sched_dirty = true;
                }
            }
            Msg::PilotCrash(id) => self.crash_pilot(id),
            Msg::Shutdown => self.begin_shutdown(),
            Msg::Started { unit, gen, t } => {
                let started = self.ledger.start(unit, gen, t);
                if let Some(d) = started.and_then(|u| u.desc.deadline_s) {
                    self.timers.after(d, Msg::UnitDeadline(unit, gen));
                }
            }
            Msg::Finished {
                unit,
                gen,
                t,
                result,
            } => self.unit_finished(unit, gen, t, result),
            Msg::Skipped { unit, gen, t } => {
                if self.ledger.finish(unit, gen, UnitState::Canceled, t) {
                    self.sched_dirty = true;
                }
            }
        }
    }

    fn submit_pilot(&mut self, id: PilotId, desc: PilotDescription, site: SiteId) {
        let walltime_s = (desc.walltime != SimDuration::MAX).then(|| desc.walltime.as_secs_f64());
        let x = PilotRt {
            agent: None,
            drain_to: PilotState::Done,
        };
        self.ledger
            .add_pilot(id, site, desc.cores.max(1), walltime_s, x);
        self.ledger.submit_pilot(id, self.now());
        if desc.startup_delay_s > 0.0 {
            self.timers.after(desc.startup_delay_s, Msg::PilotUp(id));
        } else {
            self.pilot_up(id);
        }
    }

    fn pilot_up(&mut self, id: PilotId) {
        let Some(p) = self.ledger.pilots.get(&id) else {
            return;
        };
        if p.state != PilotState::Pending {
            return; // canceled before startup
        }
        let (cores, walltime_s) = (p.capacity, p.walltime_s);
        self.ledger.capacity_up(id, cores, self.now());
        let agent = Agent::new(id, cores, self.epoch, self.inbox.clone());
        if let Some(p) = self.ledger.pilots.get_mut(&id) {
            p.x.agent = Some(agent);
        }
        if let Some(w) = walltime_s {
            self.timers.after(w, Msg::PilotExpired(id));
        }
        // The injected crash clock lands on the wall clock, so when it fires
        // jitters; which pilots crash, and after how long, does not.
        if let Some(ttf) = self.ledger.crash_after_s(id) {
            self.timers.after(ttf, Msg::PilotCrash(id));
        }
        self.sched_dirty = true;
    }

    /// One late-binding pass; each bind's attempt draws its fault verdict
    /// and goes to the pilot's agent.
    fn bind_and_dispatch(&mut self) {
        let now = self.now();
        self.ledger.bind_pass(now, |b| {
            let Some(agent) = b.pilot.x.agent.as_ref() else {
                debug_assert!(false, "bind: active pilot has no agent");
                return;
            };
            let u = b.unit;
            u.x.doomed = b.faults.unit_fault(b.rng, b.uid, u.attempts).is_some();
            agent.submit(Assignment {
                unit: b.uid,
                gen: u.generation,
                cores: u.desc.cores,
                kernel: Arc::clone(&u.x.kernel),
                cancel_flag: Arc::clone(&u.x.cancel_flag),
            });
        });
    }

    /// Agent report: the attempt returned. An injected fault replaces the
    /// result of a doomed attempt.
    fn unit_finished(
        &mut self,
        uid: UnitId,
        gen: u64,
        t: f64,
        result: Result<TaskOutput, TaskError>,
    ) {
        let Some(u) = self
            .ledger
            .units
            .get_mut(&uid)
            .filter(|u| u.generation == gen && u.state == UnitState::Running)
        else {
            return; // attempt already abandoned
        };
        match result {
            Ok(_) if u.x.doomed => {
                self.ledger.rel.injected_unit_faults += 1;
                let retry = self.ledger.fail_attempt(uid, t);
                self.after_failure(uid, retry, "injected fault");
            }
            Ok(_) => {
                u.x.output = Some(result);
                self.ledger.finish(uid, gen, UnitState::Done, t);
                self.sched_dirty = true;
            }
            Err(e) => {
                let retry = self.ledger.fail_attempt(uid, t);
                self.after_failure(uid, retry, &e.0);
            }
        }
    }

    /// After a failed attempt: arm the granted retry's backoff, or keep the
    /// error as the output of a unit that failed for good.
    fn after_failure(&mut self, uid: UnitId, retry: Option<Retry>, error: &str) {
        match retry {
            Some(r) => {
                self.timers.after(r.after_s, Msg::RetryRelease(uid, r.gen));
            }
            None => {
                if let Some(u) = self.ledger.units.get_mut(&uid) {
                    u.x.output = Some(Err(TaskError(error.to_string())));
                }
            }
        }
        self.sched_dirty = true;
    }

    /// Injected pilot crash: the pilot is lost immediately. Running units
    /// lose their attempt (retry budget applies); assigned-but-not-started
    /// units re-enter the queue for free.
    fn crash_pilot(&mut self, pid: PilotId) {
        let now = self.now();
        if !self.ledger.crash(pid, now) {
            return;
        }
        self.stop_agent(pid);
        for (uid, retry) in self.ledger.sweep(pid, now) {
            self.after_failure(uid, retry, "pilot crash");
        }
        self.sched_dirty = true;
    }

    fn stop_agent(&mut self, pid: PilotId) {
        if let Some(agent) = self
            .ledger
            .pilots
            .get_mut(&pid)
            .and_then(|p| p.x.agent.take())
        {
            agent.stop();
            // Detach, don't join: a deadline-abandoned kernel may still hold
            // a worker even though the pilot's accounting is clear.
            agent.detach();
        }
    }

    /// Walltime expiry or cancellation: a pilot that never started ends
    /// now; an active one stops accepting units and drains.
    fn teardown_pilot(&mut self, pid: PilotId, to: PilotState) {
        let now = self.now();
        let Some(p) = self.ledger.pilots.get_mut(&pid) else {
            return;
        };
        match p.state {
            PilotState::Pending => {
                self.ledger.end_pilot(pid, to, now);
            }
            PilotState::Active => {
                p.accepting = false;
                p.x.drain_to = to;
            }
            _ => {}
        }
    }

    /// End every draining pilot that has nothing bound any more.
    fn end_drained(&mut self) {
        let drained: Vec<(PilotId, PilotState)> = self
            .ledger
            .pilots
            .iter()
            .filter(|(_, p)| p.state == PilotState::Active && !p.accepting && p.bound == 0)
            .map(|(&id, p)| (id, p.x.drain_to))
            .collect();
        for (pid, to) in drained {
            self.ledger.end_pilot(pid, to, self.now());
            self.stop_agent(pid);
        }
    }

    fn cancel_unit(&mut self, uid: UnitId) {
        let Some(u) = self.ledger.units.get(&uid) else {
            return;
        };
        if u.state == UnitState::Assigned {
            // The agent will observe the flag and skip.
            u.x.cancel_flag.store(true, Ordering::Release);
        } else {
            // Queued or in a backoff; running or terminal: cooperative
            // semantics, no-op.
            self.ledger.cancel(uid, self.now());
        }
    }

    /// Cancel everything still waiting for a pilot, including units in a
    /// retry backoff (their timers fire into a closed generation), and drain
    /// every pilot.
    fn begin_shutdown(&mut self) {
        self.ledger.close(self.now());
        let pids: Vec<PilotId> = self.ledger.pilots.keys().copied().collect();
        for pid in pids {
            self.teardown_pilot(pid, PilotState::Done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use crate::scheduler::{FirstFitScheduler, LoadBalanceScheduler};
    use crate::thread::kernel::{kernel_fn, SyntheticKernel, TaskOutput};

    fn svc() -> ThreadPilotService {
        ThreadPilotService::new(Box::new(FirstFitScheduler))
    }

    fn forever() -> SimDuration {
        SimDuration::MAX
    }

    #[test]
    fn submit_run_wait_roundtrip() {
        let s = svc();
        let p = s.submit_pilot(PilotDescription::new(2, forever()));
        assert!(s.wait_pilot_active(p));
        let u = s.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|ctx| Ok(TaskOutput::of(ctx.cores + 41))),
        );
        let out = s.wait_unit(u).unwrap();
        assert_eq!(out.state, UnitState::Done);
        assert_eq!(
            out.output.unwrap().unwrap().downcast::<u32>().ok(),
            Some(42)
        );
        assert!(out.times.turnaround().unwrap() >= 0.0);
        let report = s.shutdown();
        assert_eq!(report.units.len(), 1);
        assert_eq!(report.pilots.len(), 1);
        assert_eq!(report.done_unit_times().len(), 1);
    }

    #[test]
    fn late_binding_unit_waits_for_pilot() {
        let s = svc();
        // Unit submitted first; no pilot yet.
        let u = s.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|_| Ok(TaskOutput::none())),
        );
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(s.unit_state(u), Some(UnitState::Pending));
        // Pilot arrives; unit binds and completes.
        let _p = s.submit_pilot(PilotDescription::new(1, forever()));
        let out = s.wait_unit(u).unwrap();
        assert_eq!(out.state, UnitState::Done);
        assert!(
            out.times.wait().unwrap() >= 0.025,
            "wait should include the pilot-less gap"
        );
    }

    #[test]
    fn startup_delay_shows_in_pilot_times() {
        let s = svc();
        let p = s.submit_pilot(PilotDescription::new(1, forever()).with_startup_delay(0.08));
        assert!(s.wait_pilot_active(p));
        let report = s.shutdown();
        let (_, _, _, _, times) = &report.pilots[0];
        assert!(times.startup_overhead().unwrap() >= 0.08);
    }

    #[test]
    fn failing_kernel_marks_unit_failed() {
        let s = svc();
        s.submit_pilot(PilotDescription::new(1, forever()));
        let u = s.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|_| Err(TaskError("deliberate".into()))),
        );
        let out = s.wait_unit(u).unwrap();
        assert_eq!(out.state, UnitState::Failed);
        assert_eq!(out.output.unwrap().unwrap_err().0, "deliberate");
    }

    #[test]
    fn panicking_kernel_marks_unit_failed_and_pilot_survives() {
        let s = svc();
        s.submit_pilot(PilotDescription::new(1, forever()));
        let bad = s.submit_unit(UnitDescription::new(1), kernel_fn(|_| panic!("chaos")));
        let out = s.wait_unit(bad).unwrap();
        assert_eq!(out.state, UnitState::Failed);
        // Pilot still works.
        let good = s.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|_| Ok(TaskOutput::of(1u8))),
        );
        assert_eq!(s.wait_unit(good).unwrap().state, UnitState::Done);
    }

    #[test]
    fn capacity_is_respected() {
        // 2-core pilot, four 1-core units that each hold a token: at most 2
        // may overlap.
        use std::sync::atomic::AtomicU32;
        let s = svc();
        s.submit_pilot(PilotDescription::new(2, forever()));
        let live = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let mk = |live: Arc<AtomicU32>, peak: Arc<AtomicU32>| {
            kernel_fn(move |_| {
                let n = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(n, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(40));
                live.fetch_sub(1, Ordering::SeqCst);
                Ok(TaskOutput::none())
            })
        };
        let units: Vec<UnitId> = (0..4)
            .map(|_| {
                s.submit_unit(
                    UnitDescription::new(1),
                    mk(Arc::clone(&live), Arc::clone(&peak)),
                )
            })
            .collect();
        for u in units {
            assert_eq!(s.wait_unit(u).unwrap().state, UnitState::Done);
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "over-committed");
        assert_eq!(peak.load(Ordering::SeqCst), 2, "should use both cores");
    }

    #[test]
    fn multicore_unit_reserves_cores() {
        let s = svc();
        s.submit_pilot(PilotDescription::new(2, forever()));
        // A 2-core unit blocks a 1-core unit from overlapping.
        let t0 = Instant::now();
        let wide = s.submit_unit(
            UnitDescription::new(2),
            Arc::new(SyntheticKernel::new(0.05)),
        );
        let narrow = s.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|_| Ok(TaskOutput::none())),
        );
        s.wait_unit(wide);
        let out = s.wait_unit(narrow).unwrap();
        assert!(
            out.times.started.unwrap() >= 0.05 - 0.005,
            "narrow unit must wait for the wide one, started at {:?} (t0 {:?})",
            out.times.started,
            t0.elapsed()
        );
    }

    #[test]
    fn cancel_pending_unit() {
        let s = svc();
        // No pilot: unit stays pending.
        let u = s.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|_| Ok(TaskOutput::none())),
        );
        std::thread::sleep(Duration::from_millis(20));
        s.cancel_unit(u);
        let out = s.wait_unit(u).unwrap();
        assert_eq!(out.state, UnitState::Canceled);
        assert!(out.output.is_none());
    }

    #[test]
    fn pilot_walltime_expiry_drains() {
        let s = svc();
        let p = s.submit_pilot(PilotDescription::new(1, SimDuration::from_millis(80)));
        assert!(s.wait_pilot_active(p));
        let u = s.submit_unit(
            UnitDescription::new(1),
            Arc::new(SyntheticKernel::new(0.02)),
        );
        assert_eq!(s.wait_unit(u).unwrap().state, UnitState::Done);
        // After expiry the pilot is Done and accepts nothing.
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(s.pilot_state(p), Some(PilotState::Done));
        let orphan = s.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|_| Ok(TaskOutput::none())),
        );
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(s.unit_state(orphan), Some(UnitState::Pending));
        s.cancel_unit(orphan);
    }

    #[test]
    fn cancel_pilot_before_startup() {
        let s = svc();
        let p = s.submit_pilot(PilotDescription::new(1, forever()).with_startup_delay(5.0));
        s.cancel_pilot(p);
        assert!(!s.wait_pilot_active(p));
        assert_eq!(s.pilot_state(p), Some(PilotState::Canceled));
    }

    #[test]
    fn load_balance_spreads_units_across_pilots() {
        let s = ThreadPilotService::new(Box::new(LoadBalanceScheduler));
        let p1 = s.submit_pilot(PilotDescription::new(2, forever()));
        let p2 = s.submit_pilot(PilotDescription::new(2, forever()));
        s.wait_pilot_active(p1);
        s.wait_pilot_active(p2);
        let units: Vec<UnitId> = (0..4)
            .map(|_| {
                s.submit_unit(
                    UnitDescription::new(1),
                    Arc::new(SyntheticKernel::new(0.05)),
                )
            })
            .collect();
        for u in &units {
            s.wait_unit(*u);
        }
        let report = s.shutdown();
        let on_p1 = report.units.iter().filter(|u| u.pilot == Some(p1)).count();
        let on_p2 = report.units.iter().filter(|u| u.pilot == Some(p2)).count();
        assert_eq!(on_p1, 2);
        assert_eq!(on_p2, 2);
    }

    #[test]
    fn priority_orders_pending_queue() {
        let s = svc();
        // 1-core pilot ⇒ strictly serial execution; submit while busy.
        s.submit_pilot(PilotDescription::new(1, forever()));
        let blocker = s.submit_unit(
            UnitDescription::new(1),
            Arc::new(SyntheticKernel::new(0.08)),
        );
        std::thread::sleep(Duration::from_millis(20)); // let it start
        let low = s.submit_unit(
            UnitDescription::new(1).with_priority(1).tagged("low"),
            kernel_fn(|_| Ok(TaskOutput::none())),
        );
        let high = s.submit_unit(
            UnitDescription::new(1).with_priority(10).tagged("high"),
            kernel_fn(|_| Ok(TaskOutput::none())),
        );
        s.wait_unit(blocker);
        let high_out = s.wait_unit(high).unwrap();
        let low_out = s.wait_unit(low).unwrap();
        assert!(
            high_out.times.started.unwrap() <= low_out.times.started.unwrap(),
            "high priority must run first"
        );
        s.shutdown();
    }

    #[test]
    fn wait_all_units_and_timeout() {
        let s = svc();
        s.submit_pilot(PilotDescription::new(4, forever()));
        for _ in 0..8 {
            s.submit_unit(
                UnitDescription::new(1),
                Arc::new(SyntheticKernel::new(0.01)),
            );
        }
        assert!(s.wait_all_units_timeout(Duration::from_secs(10)));
        s.wait_all_units(); // immediate
    }

    #[test]
    fn shutdown_cancels_pending_units() {
        let s = svc();
        // No pilots: everything stays pending and must be canceled on shutdown.
        for _ in 0..3 {
            s.submit_unit(
                UnitDescription::new(1),
                kernel_fn(|_| Ok(TaskOutput::none())),
            );
        }
        let report = s.shutdown();
        assert_eq!(report.units.len(), 3);
        assert!(report.units.iter().all(|u| u.state == UnitState::Canceled));
    }

    #[test]
    fn waiting_on_unknown_ids_returns_immediately() {
        let s = svc();
        assert!(s.wait_unit(UnitId(9999)).is_none());
        assert!(!s.wait_pilot_active(PilotId(9999)));
    }

    #[test]
    fn retry_policy_recovers_transient_kernel_failure() {
        use std::sync::atomic::AtomicU32;
        let s = svc();
        s.submit_pilot(PilotDescription::new(1, forever()));
        let tries = Arc::new(AtomicU32::new(0));
        let t = Arc::clone(&tries);
        let u = s.submit_unit(
            UnitDescription::new(1).with_retry(RetryPolicy::fixed(4, 0.01)),
            kernel_fn(move |_| {
                if t.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(TaskError("transient".into()))
                } else {
                    Ok(TaskOutput::of(7u8))
                }
            }),
        );
        let out = s.wait_unit(u).unwrap();
        assert_eq!(out.state, UnitState::Done);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        let report = s.shutdown();
        assert_eq!(report.reliability.attempts, 3);
        assert_eq!(report.reliability.requeues, 2);
        assert_eq!(report.reliability.exhausted_units, 0);
        assert!(
            report.reliability.recoveries >= 1,
            "rebinds count as recoveries"
        );
    }

    #[test]
    fn retry_backoff_is_visible_as_nonterminal_failed() {
        use std::sync::atomic::AtomicU32;
        let s = svc();
        s.submit_pilot(PilotDescription::new(1, forever()));
        let tries = Arc::new(AtomicU32::new(0));
        let t = Arc::clone(&tries);
        let u = s.submit_unit(
            UnitDescription::new(1).with_retry(RetryPolicy::fixed(2, 0.25)),
            kernel_fn(move |_| {
                if t.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(TaskError("first attempt".into()))
                } else {
                    Ok(TaskOutput::none())
                }
            }),
        );
        // During the 250 ms backoff the unit shows Failed but wait_unit must
        // keep blocking (no finish time yet).
        let mut saw_backoff = false;
        for _ in 0..100 {
            if s.unit_state(u) == Some(UnitState::Failed) {
                saw_backoff = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(saw_backoff, "backoff window should be observable");
        assert_eq!(s.wait_unit(u).unwrap().state, UnitState::Done);
    }

    #[test]
    fn exhausted_retry_budget_is_terminal_failed() {
        let s = svc();
        s.submit_pilot(PilotDescription::new(1, forever()));
        let u = s.submit_unit(
            UnitDescription::new(1).with_retry(RetryPolicy::fixed(2, 0.005)),
            kernel_fn(|_| Err(TaskError("always".into()))),
        );
        let out = s.wait_unit(u).unwrap();
        assert_eq!(out.state, UnitState::Failed);
        let report = s.shutdown();
        assert_eq!(report.reliability.attempts, 2);
        assert_eq!(report.reliability.requeues, 1);
        assert_eq!(report.reliability.exhausted_units, 1);
    }

    #[test]
    fn deadline_expiry_fails_the_attempt() {
        let s = svc();
        s.submit_pilot(PilotDescription::new(1, forever()));
        let u = s.submit_unit(
            UnitDescription::new(1).with_deadline(0.05),
            Arc::new(SyntheticKernel::new(0.5)),
        );
        let out = s.wait_unit(u).unwrap();
        assert_eq!(out.state, UnitState::Failed);
        let err = out.output.unwrap().unwrap_err();
        assert!(err.0.contains("deadline"), "{err}");
        let report = s.shutdown();
        assert_eq!(report.reliability.deadline_expirations, 1);
        assert!(report.reliability.wasted_work_s > 0.0);
    }

    #[test]
    fn pilot_crash_fails_running_units_and_frees_the_queue() {
        let s = ThreadPilotService::with_faults(
            Box::new(FirstFitScheduler),
            FaultPlan::none().with_pilot_crashes(0.02),
            3,
        );
        // With seed 3 every pilot's crash clock runs out 1–30 ms after it
        // activates, so whether a unit is still assigned or already running
        // when its pilot crashes is thread timing: an assigned unit goes back
        // to `Pending`, and with no pilot left a plain wait never returns.
        // Each phase therefore offers fresh pilots, a bounded number of
        // times, until every unit is terminal.
        let offer_pilots = |s: &ThreadPilotService| {
            (0..20).any(|_| {
                s.submit_pilot(PilotDescription::new(1, forever()));
                s.wait_all_units_timeout(Duration::from_millis(500))
            })
        };
        // Holds its core far past any crash clock: only a crash ends it.
        let victim = s.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|_| {
                std::thread::sleep(Duration::from_secs(5));
                Ok(TaskOutput::none())
            }),
        );
        assert!(offer_pilots(&s), "the victim never ran into a crash");
        let out = s.wait_unit(victim).unwrap();
        assert_eq!(out.state, UnitState::Failed);
        assert!(out.output.unwrap().unwrap_err().0.contains("pilot crash"));
        // Fresh pilots keep the service usable: a unit with a retry budget
        // completes on a later pilot.
        let next = s.submit_unit(
            UnitDescription::new(1).with_retry(RetryPolicy::fixed(5, 0.005)),
            kernel_fn(|_| Ok(TaskOutput::of(1u8))),
        );
        assert!(offer_pilots(&s), "no replacement pilot completed the unit");
        assert_eq!(s.wait_unit(next).unwrap().state, UnitState::Done);
        let report = s.shutdown();
        let pilot_of = |id| report.units.iter().find(|u| u.unit == id).unwrap().pilot;
        let crashed = pilot_of(victim).unwrap();
        let end = report.pilots.iter().find(|p| p.0 == crashed).unwrap().3;
        assert_eq!(end, PilotState::Failed);
        assert!(pilot_of(next).is_some_and(|p| p != crashed));
        assert!(report.reliability.pilot_crashes >= 1);
        assert!(
            report.reliability.wasted_work_s > 0.0,
            "victim's run was wasted"
        );
    }

    #[test]
    fn blacklist_quarantines_repeatedly_failing_pilot() {
        let s = ThreadPilotService::with_faults(
            Box::new(FirstFitScheduler),
            FaultPlan::none().with_unit_failures(1.0).with_blacklist(2),
            11,
        );
        let p = s.submit_pilot(PilotDescription::new(1, forever()));
        assert!(s.wait_pilot_active(p));
        for _ in 0..2 {
            let u = s.submit_unit(
                UnitDescription::new(1),
                kernel_fn(|_| Ok(TaskOutput::none())),
            );
            assert_eq!(s.wait_unit(u).unwrap().state, UnitState::Failed);
        }
        // Two consecutive injected failures blacklisted the pilot: new units
        // can no longer bind to it.
        let stuck = s.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|_| Ok(TaskOutput::none())),
        );
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(s.unit_state(stuck), Some(UnitState::Pending));
        s.cancel_unit(stuck);
        let report = s.shutdown();
        assert_eq!(report.reliability.blacklisted_pilots, 1);
        assert_eq!(report.reliability.injected_unit_faults, 2);
    }

    #[test]
    fn bind_stats_build_one_snapshot_per_pass() {
        let s = svc();
        s.submit_pilot(PilotDescription::new(4, forever()));
        for _ in 0..6 {
            s.submit_unit(
                UnitDescription::new(1),
                kernel_fn(|_| Ok(TaskOutput::none())),
            );
        }
        s.wait_all_units();
        let report = s.shutdown();
        assert_eq!(report.bind.binds, 6);
        assert!(report.bind.passes >= 1);
        assert_eq!(
            report.bind.snapshot_builds, report.bind.passes,
            "batched pass builds exactly one snapshot vector per pass"
        );
        assert!(report.bind.candidate_comparisons >= 6);
    }

    #[test]
    fn bind_cost_tracks_binds_not_backlog() {
        // 2 000 no-op units against one 2-core pilot: nearly every pass runs
        // with a deep backlog and at most two cores free. A pass that
        // re-offered the backlog would spend ~1 000 comparisons per bind.
        let s = svc();
        s.submit_pilot(PilotDescription::new(2, forever()));
        for _ in 0..2000 {
            s.submit_unit(
                UnitDescription::new(1),
                kernel_fn(|_| Ok(TaskOutput::none())),
            );
        }
        s.wait_all_units();
        let report = s.shutdown();
        assert_eq!(report.bind.binds, 2000);
        let pilots = 1;
        assert!(
            report.bind.candidate_comparisons <= 4 * report.bind.binds * pilots,
            "{} comparisons for {} binds: the pass is walking the backlog",
            report.bind.candidate_comparisons,
            report.bind.binds
        );
    }

    #[test]
    fn overhead_breakdown_from_report() {
        let s = svc();
        s.submit_pilot(PilotDescription::new(4, forever()));
        for _ in 0..10 {
            s.submit_unit(
                UnitDescription::new(1),
                Arc::new(SyntheticKernel::new(0.005)),
            );
        }
        s.wait_all_units();
        let report = s.shutdown();
        let times = report.done_unit_times();
        let b = crate::metrics::overhead_breakdown(times.iter());
        assert_eq!(b.execution.n, 10);
        assert!(b.execution.mean >= 0.005);
        assert!(b.overhead.mean < 0.5, "middleware overhead should be small");
    }
}
