//! The Pilot-Manager's ledger: the units and pilots of one run, and every
//! decision about them that does not depend on how the run is driven.
//!
//! Three control-plane drivers keep their units and pilots here: the thread
//! service ([`crate::thread`], wall-clock seconds since service start), the
//! DES backend ([`crate::sim`], virtual seconds), and each shard of a fabric
//! host daemon ([`crate::fabric`], ticks; its events are off, because the
//! fabric's controller records them). It is sans-I/O: every operation takes
//! `now` in the driver's timebase, writes the state and its [`ProjEvent`]
//! once, and hands back what the driver must arm (a retry's backoff) or do
//! (a bind's dispatch). Drivers keep only what really differs — agents and
//! wall-clock timers, adaptors, staging and `Outbox` timers, a dispatch's
//! run ticks and attempt — in a payload (`Unit::x`, `Pilot::x`) that rides
//! in the same map entry.
//!
//! Nothing here branches on which driver calls it; differences are data. A
//! `Pending` pilot is offered to the binding pass with 0 free cores on both
//! backends: the DES pilot's `capacity` is 0 until its adaptor reports
//! capacity, the thread pilot's is its core count from submission.
//!
//! Event order, per operation: a bind records the pilot's capacity before
//! the unit's `Assigned`; a failed attempt records `Failed` before the
//! capacity it released; a finish records `Done`, then `UnitMetric`, then
//! capacity.

// lint: deterministic — this module must stay replayable: no wall-clock reads

use crate::binding::{self, BindStats, PendingQueue};
use crate::describe::UnitDescription;
use crate::events::ProjEvent;
use crate::ids::{PilotId, UnitId};
use crate::metrics::{PilotTimes, UnitTimes};
use crate::retry::{streams, FailureTracker, FaultPlan, ReliabilityStats};
use crate::scheduler::{PilotSnapshot, Scheduler};
use crate::state::{PilotState, UnitState};
use pilot_infra::types::SiteId;
use pilot_sim::SimRng;
use std::collections::HashMap;

/// One unit: what every driver keeps, plus the driver's own `x`.
pub(crate) struct Unit<X> {
    pub(crate) desc: UnitDescription,
    pub(crate) state: UnitState,
    /// The pilot the current attempt is bound to.
    pub(crate) pilot: Option<PilotId>,
    pub(crate) times: UnitTimes,
    /// Bumped whenever the current attempt is abandoned (failure, rebind,
    /// withdrawn retry); timers and reports of an older generation are stale.
    pub(crate) generation: u64,
    /// Failed attempts so far, charged against `desc.retry`.
    pub(crate) attempts: u32,
    /// When the last failed attempt happened; the next bind completes a
    /// recovery.
    failed_at: Option<f64>,
    pub(crate) x: X,
}

/// One pilot: what every driver keeps, plus the driver's own `x`.
pub(crate) struct Pilot<X> {
    pub(crate) site: SiteId,
    pub(crate) state: PilotState,
    pub(crate) times: PilotTimes,
    /// Cores delivered.
    pub(crate) capacity: u32,
    /// Cores reserved by bound units.
    used: u32,
    /// Units bound to it (assigned, staging or running).
    pub(crate) bound: usize,
    /// Offered to the binding pass; cleared when a drain begins.
    pub(crate) accepting: bool,
    /// Requested walltime, `None` when unbounded.
    pub(crate) walltime_s: Option<f64>,
    /// When the walltime runs out; set on activation.
    expires_at: Option<f64>,
    pub(crate) x: X,
}

impl<X> Pilot<X> {
    /// Cores delivered and not reserved.
    pub(crate) fn free_cores(&self) -> u32 {
        self.capacity.saturating_sub(self.used)
    }
}

/// A retry the ledger granted: the driver calls [`Ledger::release`] with
/// `gen` once `after_s` seconds have passed.
pub(crate) struct Retry {
    pub(crate) gen: u64,
    pub(crate) after_s: f64,
}

/// A placement the binding pass just committed (the unit is `Assigned`),
/// handed to the driver for its side of the bind.
pub(crate) struct Bind<'a, U, P> {
    pub(crate) uid: UnitId,
    pub(crate) unit: &'a mut Unit<U>,
    pub(crate) pilot: &'a Pilot<P>,
    pub(crate) rng: &'a SimRng,
    pub(crate) faults: &'a FaultPlan,
    events: &'a mut Events,
    now: f64,
}

impl<U, P> Bind<'_, U, P> {
    /// The unit begins staging its inputs.
    pub(crate) fn stage(&mut self) {
        self.events
            .unit(self.now, self.uid, self.unit, UnitState::Staging);
    }
}

/// The transitions as [`ProjEvent`]s, in the order they happen; `None` once
/// recording is switched off. A field of its own so a transition can be
/// recorded while the unit or pilot it moves is borrowed.
pub(crate) struct Events(pub(crate) Option<Vec<ProjEvent>>);

impl Events {
    /// The one emit path: the on/off switch is checked here only.
    fn push(&mut self, ev: ProjEvent) {
        if let Some(events) = &mut self.0 {
            events.push(ev);
        }
    }

    /// Advance a unit to `next` and record it, on the unit's current pilot.
    fn unit<X>(&mut self, t_s: f64, unit: UnitId, u: &mut Unit<X>, next: UnitState) {
        UnitState::advance(&mut u.state, next);
        self.push(ProjEvent::Unit {
            unit,
            state: next,
            pilot: u.pilot,
            t_s,
        });
    }

    /// Advance a pilot to `next`, stamp when it got there, and record it.
    fn pilot<X>(&mut self, t_s: f64, pilot: PilotId, p: &mut Pilot<X>, next: PilotState) {
        PilotState::advance(&mut p.state, next);
        if next == PilotState::Active {
            p.times.active = Some(t_s);
        } else if next.is_terminal() {
            p.times.finished = Some(t_s);
        }
        self.push(ProjEvent::Pilot {
            pilot,
            state: next,
            t_s,
        });
    }

    /// Record a pilot's current capacity and free cores.
    fn capacity<X>(&mut self, t_s: f64, pilot: PilotId, p: &Pilot<X>) {
        self.push(ProjEvent::PilotCapacity {
            pilot,
            free_cores: p.free_cores(),
            total_cores: p.capacity,
            t_s,
        });
    }
}

/// Units with driver payload `U` and pilots with driver payload `P`, the
/// late-binding queue, and the run's reliability and binding accounting.
pub(crate) struct Ledger<U, P> {
    pub(crate) units: HashMap<UnitId, Unit<U>>,
    pub(crate) pilots: HashMap<PilotId, Pilot<P>>,
    pending: PendingQueue,
    pub(crate) scheduler: Box<dyn Scheduler>,
    /// The run's RNG; every draw forks a keyed stream from it.
    pub(crate) rng: SimRng,
    pub(crate) faults: FaultPlan,
    tracker: FailureTracker,
    pub(crate) rel: ReliabilityStats,
    pub(crate) bind: BindStats,
    pub(crate) events: Events,
    /// Once set, no retry is granted and every new unit is refused.
    pub(crate) closed: bool,
}

impl<U, P> Ledger<U, P> {
    pub(crate) fn new(scheduler: Box<dyn Scheduler>, rng: SimRng, faults: FaultPlan) -> Self {
        Ledger {
            units: HashMap::new(),
            pilots: HashMap::new(),
            pending: PendingQueue::default(),
            scheduler,
            rng,
            faults,
            tracker: FailureTracker::new(faults.blacklist_after),
            rel: ReliabilityStats::default(),
            bind: BindStats::default(),
            events: Events(Some(Vec::new())),
            closed: false,
        }
    }

    /// Replace the fault plan (and the blacklist threshold it carries).
    pub(crate) fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
        self.tracker = FailureTracker::new(faults.blacklist_after);
    }

    /// Entries in the late-binding queue, stale ones included.
    pub(crate) fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Register a unit; it stays `New` until [`submit`](Self::submit).
    pub(crate) fn add_unit(&mut self, id: UnitId, desc: UnitDescription, x: U) {
        let unit = Unit {
            desc,
            state: UnitState::New,
            pilot: None,
            times: UnitTimes::default(),
            generation: 0,
            attempts: 0,
            failed_at: None,
            x,
        };
        self.units.insert(id, unit);
    }

    /// The unit was submitted at `now`: it enters the late-binding queue, or
    /// is refused (`Canceled`) once the ledger is closed.
    pub(crate) fn submit(&mut self, id: UnitId, now: f64) {
        let Some(u) = self.units.get_mut(&id) else {
            return;
        };
        u.times.submitted = now;
        if self.closed {
            u.times.finished = Some(now);
            self.events.unit(now, id, u, UnitState::Canceled);
            return;
        }
        self.events.unit(now, id, u, UnitState::Pending);
        self.pending.push(id, u.desc.priority, u.desc.cores);
    }

    /// Register a pilot with `capacity` cores; it is `Pending` from here on
    /// and recorded as such at [`submit_pilot`](Self::submit_pilot).
    pub(crate) fn add_pilot(
        &mut self,
        id: PilotId,
        site: SiteId,
        capacity: u32,
        walltime_s: Option<f64>,
        x: P,
    ) {
        let pilot = Pilot {
            site,
            state: PilotState::Pending,
            times: PilotTimes::default(),
            capacity,
            used: 0,
            bound: 0,
            accepting: true,
            walltime_s,
            expires_at: None,
            x,
        };
        self.pilots.insert(id, pilot);
    }

    /// The pilot was submitted at `now`.
    pub(crate) fn submit_pilot(&mut self, id: PilotId, now: f64) {
        if let Some(p) = self.pilots.get_mut(&id) {
            p.times.submitted = now;
            self.events.push(ProjEvent::Pilot {
                pilot: id,
                state: PilotState::Pending,
                t_s: now,
            });
        }
    }

    /// The pilot has `total` cores from `now`. A `Pending` pilot becomes
    /// `Active` (the return value) and its walltime starts running.
    pub(crate) fn capacity_up(&mut self, id: PilotId, total: u32, now: f64) -> bool {
        let Some(p) = self.pilots.get_mut(&id) else {
            return false;
        };
        p.capacity = total;
        let activated = p.state == PilotState::Pending;
        if activated {
            p.expires_at = p.walltime_s.map(|w| now + w);
            self.events.pilot(now, id, p, PilotState::Active);
        }
        self.events.capacity(now, id, p);
        activated
    }

    /// When the injected crash clock of a pilot that just activated runs
    /// out: one exponential draw from a stream keyed by the pilot id, so the
    /// same seed schedules the same crashes.
    pub(crate) fn crash_after_s(&self, id: PilotId) -> Option<f64> {
        let mtbf = self.faults.pilot_crash_mtbf_s?;
        let mut rng = self
            .rng
            .stream(streams::keyed(streams::PILOT_CRASH, id.0, 0));
        Some(rng.exponential(mtbf))
    }

    /// The pilot shrank to `total` cores at `now`. Work on the lost cores is
    /// lost: the most recently started units are rebound until the rest
    /// fits.
    pub(crate) fn capacity_down(&mut self, id: PilotId, total: u32, now: f64) {
        let Some(p) = self.pilots.get_mut(&id) else {
            return;
        };
        p.capacity = total;
        if p.used > total {
            let mut victims: Vec<(f64, UnitId)> = self
                .bound_to(id)
                .into_iter()
                .map(|(uid, _)| (self.units[&uid].times.started.unwrap_or(f64::MAX), uid))
                .collect();
            // Stable: equal start times keep `bound_to`'s id order.
            victims.sort_by(|a, b| b.0.total_cmp(&a.0));
            for (_, uid) in victims {
                if self.pilots.get(&id).is_none_or(|p| p.used <= total) {
                    break;
                }
                self.rebind(uid, now);
            }
        }
        if let Some(p) = self.pilots.get(&id) {
            self.events.capacity(now, id, p);
        }
    }

    /// One late-binding pass at `now`: build the pilot snapshots once, let
    /// [`binding::queue_pass`] place pending units on them, and commit each
    /// placement before `then` does the driver's side of it.
    pub(crate) fn bind_pass(&mut self, now: f64, mut then: impl FnMut(Bind<'_, U, P>)) {
        if self.pending.is_empty() {
            return;
        }
        // Pending pilots are offered with 0 free cores, so delay-scheduling
        // policies (data-aware) can wait for capacity already on its way
        // instead of binding remotely.
        let tracker = &self.tracker;
        let mut snapshots: Vec<PilotSnapshot> = self
            .pilots
            .iter()
            .filter(|(id, p)| {
                let offered = match p.state {
                    PilotState::Pending => true,
                    PilotState::Active => p.accepting && p.capacity > 0,
                    _ => false,
                };
                offered && !tracker.is_blacklisted(**id)
            })
            .map(|(&id, p)| PilotSnapshot {
                pilot: id,
                site: p.site,
                total_cores: p.capacity,
                free_cores: match p.state {
                    PilotState::Pending => 0,
                    _ => p.free_cores(),
                },
                bound_units: p.bound,
                remaining_walltime_s: p.expires_at.map_or(f64::INFINITY, |e| e - now),
            })
            .collect();
        if snapshots.is_empty() {
            return;
        }
        // Schedulers see pilots in id order (hash order is not
        // deterministic), so identical seeds replay identically.
        snapshots.sort_by_key(|s| s.pilot.0);
        let units = &self.units;
        let outcome = binding::queue_pass(
            self.scheduler.as_mut(),
            &mut snapshots,
            &mut self.pending,
            |uid| {
                units
                    .get(&uid)
                    .filter(|u| u.state == UnitState::Pending)
                    .map(|u| &u.desc)
            },
        );
        self.bind
            .note_pass(snapshots.len(), outcome.offered, outcome.binds.len() as u64);
        for (uid, pid) in outcome.binds {
            if let Some(bind) = self.commit(uid, pid, now) {
                then(bind);
            }
        }
    }

    /// Commit one placement: reserve the cores, bind the unit (`Assigned`),
    /// and close the recovery a failed attempt opened.
    fn commit(&mut self, uid: UnitId, pid: PilotId, now: f64) -> Option<Bind<'_, U, P>> {
        // The pass only places live pending units on offered pilots; if a
        // lookup ever misses, skipping the bind keeps the driver alive (the
        // unit stays pending).
        let (Some(u), Some(p)) = (self.units.get_mut(&uid), self.pilots.get_mut(&pid)) else {
            debug_assert!(false, "bind of {uid} to {pid}: entry vanished");
            return None;
        };
        assert!(
            p.free_cores() >= u.desc.cores,
            "scheduler over-committed pilot {pid}"
        );
        p.used += u.desc.cores;
        p.bound += 1;
        self.events.capacity(now, pid, p);
        u.pilot = Some(pid);
        self.events.unit(now, uid, u, UnitState::Assigned);
        u.times.bound = Some(now);
        if let Some(f) = u.failed_at.take() {
            self.rel.recovery_s += now - f;
            self.rel.recoveries += 1;
        }
        Some(Bind {
            uid,
            unit: u,
            pilot: p,
            rng: &self.rng,
            faults: &self.faults,
            events: &mut self.events,
            now,
        })
    }

    /// Whether `gen` is still the current attempt of `uid`, in `state`.
    pub(crate) fn is_current(&self, uid: UnitId, gen: u64, state: UnitState) -> bool {
        self.units
            .get(&uid)
            .is_some_and(|u| u.generation == gen && u.state == state)
    }

    /// Attempt `gen` of a bound unit starts running at `now`; returns the
    /// unit, or `None` if the attempt was abandoned.
    pub(crate) fn start(&mut self, uid: UnitId, gen: u64, now: f64) -> Option<&Unit<U>> {
        let u = self.units.get_mut(&uid).filter(|u| {
            u.generation == gen && matches!(u.state, UnitState::Assigned | UnitState::Staging)
        })?;
        self.events.unit(now, uid, u, UnitState::Running);
        u.times.started = Some(now);
        self.rel.attempts += 1;
        Some(u)
    }

    /// Attempt `gen` of a bound unit ends in `state` at `now`: `Done` (with
    /// its `UnitMetric`: wait is submit → bind, execution start → finish),
    /// or `Canceled` before it ran. Its cores go back to the pilot. False if
    /// the attempt was abandoned.
    pub(crate) fn finish(&mut self, uid: UnitId, gen: u64, state: UnitState, now: f64) -> bool {
        let Some(u) = self
            .units
            .get_mut(&uid)
            .filter(|u| u.generation == gen && u.state.can_transition_to(state))
        else {
            return false;
        };
        self.events.unit(now, uid, u, state);
        u.times.finished = Some(now);
        if state == UnitState::Done {
            self.events.push(ProjEvent::UnitMetric {
                unit: uid,
                wait_s: u.times.wait().unwrap_or(0.0),
                exec_s: u.times.execution().unwrap_or(0.0),
                t_s: now,
            });
        }
        let (pilot, cores) = (u.pilot, u.desc.cores);
        if let Some(pid) = pilot {
            self.release_cores(pid, cores, now);
            if state == UnitState::Done {
                self.tracker.record_success(pid);
            }
        }
        true
    }

    /// Give a unit's cores back to its pilot and record the capacity.
    fn release_cores(&mut self, pid: PilotId, cores: u32, now: f64) {
        if let Some(p) = self.pilots.get_mut(&pid) {
            p.used = p.used.saturating_sub(cores);
            p.bound = p.bound.saturating_sub(1);
            self.events.capacity(now, pid, p);
        }
    }

    /// An execution or staging attempt failed at `now`: the work it did is
    /// wasted, its cores go back, the pilot's failure streak grows, and the
    /// retry budget is charged. Returns the retry granted, or `None` when
    /// the unit failed for good.
    pub(crate) fn fail_attempt(&mut self, uid: UnitId, now: f64) -> Option<Retry> {
        let u = self.units.get_mut(&uid)?;
        if let Some(s) = u.times.started {
            self.rel.wasted_work_s += now - s;
        }
        u.generation += 1;
        u.attempts += 1;
        self.events.unit(now, uid, u, UnitState::Failed);
        let pilot = u.pilot.take();
        u.times.bound = None;
        u.times.started = None;
        let (cores, retry, attempts, gen) = (u.desc.cores, u.desc.retry, u.attempts, u.generation);
        if let Some(pid) = pilot {
            self.release_cores(pid, cores, now);
            if self.tracker.record_failure(pid) {
                self.rel.blacklisted_pilots += 1;
            }
        }
        let after_s = if self.closed {
            None
        } else {
            retry.retry_after_s(attempts, &self.rng, uid)
        };
        let u = self.units.get_mut(&uid)?;
        let Some(after_s) = after_s else {
            u.times.finished = Some(now);
            self.rel.exhausted_units += 1;
            return None;
        };
        u.failed_at = Some(now);
        self.rel.requeues += 1;
        Some(Retry { gen, after_s })
    }

    /// The backoff of retry `gen` ran out: the retry edge `Failed →
    /// Pending`, back into the queue. False if the retry was withdrawn.
    pub(crate) fn release(&mut self, uid: UnitId, gen: u64, now: f64) -> bool {
        let Some(u) = self.units.get_mut(&uid).filter(|u| {
            u.generation == gen && u.state == UnitState::Failed && u.times.finished.is_none()
        }) else {
            return false;
        };
        self.events.unit(now, uid, u, UnitState::Pending);
        self.pending.push(uid, u.desc.priority, u.desc.cores);
        true
    }

    /// The planned rebind: the unit's resource went away, not the unit, so
    /// the retry budget is not charged. A running attempt dies with its
    /// resource; there is no `Running → Pending` edge, so it passes through
    /// `Failed`.
    fn rebind(&mut self, uid: UnitId, now: f64) {
        let Some(u) = self.units.get_mut(&uid) else {
            debug_assert!(false, "rebind of unknown unit {uid}");
            return;
        };
        if u.state == UnitState::Running {
            self.events.unit(now, uid, u, UnitState::Failed);
        }
        let pilot = u.pilot.take();
        self.events.unit(now, uid, u, UnitState::Pending);
        u.generation += 1;
        u.times.bound = None;
        u.times.started = None;
        self.pending.push(uid, u.desc.priority, u.desc.cores);
        self.rel.rebinds += 1;
        let cores = u.desc.cores;
        if let Some(p) = pilot.and_then(|pid| self.pilots.get_mut(&pid)) {
            p.used = p.used.saturating_sub(cores);
            p.bound = p.bound.saturating_sub(1);
        }
    }

    /// Units bound to `pid`, with their states, in id order so replays
    /// accumulate float sums identically.
    fn bound_to(&self, pid: PilotId) -> Vec<(UnitId, UnitState)> {
        let mut bound: Vec<(UnitId, UnitState)> = self
            .units
            .iter()
            .filter(|(_, u)| {
                u.pilot == Some(pid) && !u.state.is_terminal() && u.state != UnitState::Pending
            })
            .map(|(&id, u)| (id, u.state))
            .collect();
        bound.sort_by_key(|(id, _)| id.0);
        bound
    }

    /// The pilot ends in `state` at `now` (one that never activated ends
    /// `Canceled`: `Pending → Done` is not an edge). Its capacity goes to 0
    /// and every unit still bound to it is rebound. False if it had already
    /// ended.
    pub(crate) fn end_pilot(&mut self, pid: PilotId, state: PilotState, now: f64) -> bool {
        let Some(p) = self.pilots.get_mut(&pid).filter(|p| !p.state.is_terminal()) else {
            return false;
        };
        let state = if p.state.can_transition_to(state) {
            state
        } else {
            PilotState::Canceled
        };
        p.capacity = 0;
        self.events.pilot(now, pid, p, state);
        for (uid, _) in self.bound_to(pid) {
            self.rebind(uid, now);
        }
        if let Some(p) = self.pilots.get_mut(&pid) {
            p.used = 0;
            p.bound = 0;
            self.events.capacity(now, pid, p);
        }
        true
    }

    /// An injected crash takes an `Active` pilot down at `now`: `Failed`,
    /// nothing left on it. False if it was not active. The units that were
    /// on it are dealt with by [`sweep`](Self::sweep).
    pub(crate) fn crash(&mut self, pid: PilotId, now: f64) -> bool {
        let Some(p) = self
            .pilots
            .get_mut(&pid)
            .filter(|p| p.state == PilotState::Active)
        else {
            return false;
        };
        self.events.pilot(now, pid, p, PilotState::Failed);
        p.capacity = 0;
        p.used = 0;
        p.bound = 0;
        self.events.capacity(now, pid, p);
        self.rel.pilot_crashes += 1;
        true
    }

    /// After a crash of `pid`: units that were running lose their attempt
    /// ([`fail_attempt`](Self::fail_attempt)), the others rebind for free.
    /// Returns each failed unit with the retry it was granted, in id order.
    pub(crate) fn sweep(&mut self, pid: PilotId, now: f64) -> Vec<(UnitId, Option<Retry>)> {
        let mut failed = Vec::new();
        for (uid, state) in self.bound_to(pid) {
            if state == UnitState::Running {
                failed.push((uid, self.fail_attempt(uid, now)));
            } else {
                self.rebind(uid, now);
            }
        }
        failed
    }

    /// Cancel a unit that holds no pilot at `now`: queued (its queue entry
    /// goes stale and is skipped when drawn) or waiting out a backoff (the
    /// retry is withdrawn; there is no `Failed → Canceled` edge, so it
    /// re-enters `Pending` first). False if the unit is bound or terminal.
    pub(crate) fn cancel(&mut self, uid: UnitId, now: f64) -> bool {
        let Some(u) = self.units.get_mut(&uid) else {
            return false;
        };
        match u.state {
            UnitState::Pending => {}
            UnitState::Failed if u.times.finished.is_none() => {
                u.generation += 1;
                UnitState::advance(&mut u.state, UnitState::Pending);
            }
            _ => return false,
        }
        u.times.finished = Some(now);
        self.events.unit(now, uid, u, UnitState::Canceled);
        true
    }

    /// From `now` on, refuse new units and retries, and cancel every unit
    /// still waiting for a pilot (queued or in a backoff).
    pub(crate) fn close(&mut self, now: f64) {
        self.closed = true;
        let mut backoff: Vec<UnitId> = self
            .units
            .iter()
            .filter(|(_, u)| u.state == UnitState::Failed && u.times.finished.is_none())
            .map(|(&id, _)| id)
            .collect();
        backoff.sort_by_key(|id| id.0);
        for uid in self.pending.drain().into_iter().chain(backoff) {
            self.cancel(uid, now);
        }
    }
}
