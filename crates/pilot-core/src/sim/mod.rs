//! Virtual-time backend: the full pilot system — adaptors, late-binding
//! scheduler, data staging, adaptive policies — as one deterministic
//! discrete-event machine.
//!
//! Pilots are placeholder jobs on `pilot-saga` adaptors (HPC/HTC/cloud/YARN);
//! capacity arrives and leaves through the adaptors' uniform alphabet. Units
//! carry duration *models* instead of kernels; staging cost comes from the
//! site-to-site [`NetworkModel`]. Everything is reproducible from a seed,
//! which is what lets the experiment harness sweep hundreds of configurations
//! (EXP PJ-1/PJ-4/IO-1/DY-1) in milliseconds.

use crate::binding::{self, BindStats, PendingQueue};
use crate::describe::{PilotDescription, UnitDescription};
use crate::events::ProjEvent;
use crate::ids::{IdGen, PilotId, UnitId};
use crate::metrics::{self, PilotTimes, UnitRecord, UnitTimes};
use crate::retry::{streams, FailureTracker, FaultPlan, ReliabilityStats};
use crate::scheduler::{PilotSnapshot, Scheduler};
use crate::state::{PilotState, UnitState};
use pilot_infra::component::{Component, Effects};
use pilot_infra::network::NetworkModel;
use pilot_infra::types::{JobId, JobOutcome, SiteId};
use pilot_saga::{JobDescription, ResourceAdaptor, SagaIn, SagaOut};
use pilot_sim::{Dist, Executor, Machine, Outbox, SimDuration, SimRng, SimTime};
use std::collections::HashMap;

/// Rule for runtime scale-out (the paper's R3 dynamism requirement, \[63\]):
/// when the pending-unit backlog exceeds a threshold, submit an extra pilot
/// on a designated (typically cloud) site.
#[derive(Clone, Debug)]
pub struct ScaleOutPolicy {
    /// How often to evaluate the rule.
    pub check_every: SimDuration,
    /// Backlog size that triggers scale-out.
    pub queue_threshold: usize,
    /// Site to scale out onto.
    pub burst_site: SiteId,
    /// Pilot to submit when triggered.
    pub pilot: PilotDescription,
    /// Maximum number of extra pilots.
    pub max_extra: u32,
}

/// Record of one pilot in a finished simulation.
#[derive(Clone, Debug)]
pub struct SimPilotRecord {
    /// Pilot id.
    pub pilot: PilotId,
    /// Site it was submitted to.
    pub site: SiteId,
    /// Label from the description.
    pub label: String,
    /// Terminal (or last) state.
    pub state: PilotState,
    /// Timestamps (virtual seconds).
    pub times: PilotTimes,
}

/// Results of a simulated run.
#[derive(Debug)]
pub struct SimReport {
    /// Per-unit records.
    pub units: Vec<UnitRecord>,
    /// Per-pilot records.
    pub pilots: Vec<SimPilotRecord>,
    /// Every unit and pilot transition, in order, as the read plane's
    /// events (empty when emission was switched off).
    pub events: Vec<ProjEvent>,
    /// Virtual time when the run stopped.
    pub end_time: SimTime,
    /// Reliability counters (attempts, requeues, wasted work, recovery).
    pub reliability: ReliabilityStats,
    /// Late-binding hot-path counters (passes, snapshot builds, binds).
    pub bind: BindStats,
}

impl SimReport {
    /// Timing rows of all units that reached `Done`.
    pub fn done_unit_times(&self) -> Vec<UnitTimes> {
        self.units
            .iter()
            .filter(|u| u.state == UnitState::Done)
            .map(|u| u.times)
            .collect()
    }

    /// Makespan over done units (first submit → last finish), seconds.
    pub fn makespan(&self) -> f64 {
        let times = self.done_unit_times();
        metrics::makespan(times.iter())
    }

    /// Done-unit throughput, units/second.
    pub fn throughput(&self) -> f64 {
        let times = self.done_unit_times();
        metrics::throughput(times.iter())
    }

    /// Count of units in a given terminal state.
    pub fn count(&self, state: UnitState) -> usize {
        self.units.iter().filter(|u| u.state == state).count()
    }

    /// Mean pilot startup overhead (submission → first capacity), seconds.
    pub fn mean_pilot_startup(&self) -> f64 {
        let xs: Vec<f64> = self
            .pilots
            .iter()
            .filter_map(|p| p.times.startup_overhead())
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }
}

/// Why an execution attempt was aborted (carried in `Ev::UnitFail`).
#[derive(Clone, Copy, Debug)]
enum FailKind {
    /// Injected kernel fault from the fault plan.
    Fault,
    /// The unit's deadline expired mid-execution.
    Deadline,
}

enum Ev {
    Saga {
        site: usize,
        ev: SagaIn,
    },
    SubmitPilot(PilotId),
    SubmitUnit(UnitId),
    CancelPilot(PilotId),
    UnitStaged(UnitId, u64),
    UnitFinish(UnitId, u64),
    /// A running attempt fails (generation-guarded like `UnitFinish`).
    UnitFail(UnitId, u64, FailKind),
    /// A stage-in attempt fails transiently.
    StagingFail(UnitId, u64),
    /// Backoff elapsed: a failed unit re-enters the late-binding queue.
    RetryRelease(UnitId, u64),
    /// Injected pilot crash from the fault plan.
    PilotCrash(PilotId),
    /// Dirty-flag wakeup: run one batched late-binding pass covering every
    /// capacity change posted at this instant.
    BindPass,
    PolicyTick,
}

struct SimPilotRt {
    site: usize,
    desc: PilotDescription,
    state: PilotState,
    /// Cores currently delivered by the adaptor.
    capacity: u32,
    /// Cores reserved by bound units.
    used: u32,
    job: JobId,
    times: PilotTimes,
}

struct SimUnitRt {
    desc: UnitDescription,
    duration: Dist,
    state: UnitState,
    pilot: Option<PilotId>,
    times: UnitTimes,
    generation: u64,
    attempts: u32,
    /// When the last failed attempt happened; consumed at the next bind to
    /// measure time-to-recovery.
    failed_at: Option<f64>,
}

/// The machine's transitions as [`ProjEvent`]s, in the order they happen;
/// `None` once emission is switched off. A field of its own so a transition
/// can be recorded while the unit or pilot it moves is borrowed.
struct Events(Option<Vec<ProjEvent>>);

impl Events {
    /// The one emit path: the on/off switch is checked here only.
    fn push(&mut self, ev: ProjEvent) {
        if let Some(events) = &mut self.0 {
            events.push(ev);
        }
    }

    /// Advance a unit to `next` and record it, on the unit's current pilot.
    fn unit(&mut self, now: SimTime, unit: UnitId, u: &mut SimUnitRt, next: UnitState) {
        UnitState::advance(&mut u.state, next);
        self.push(ProjEvent::Unit {
            unit,
            state: next,
            pilot: u.pilot,
            t_s: now.as_secs_f64(),
        });
    }

    /// Advance a pilot to `next` and record it.
    fn pilot(&mut self, now: SimTime, pilot: PilotId, p: &mut SimPilotRt, next: PilotState) {
        PilotState::advance(&mut p.state, next);
        self.push(ProjEvent::Pilot {
            pilot,
            state: next,
            t_s: now.as_secs_f64(),
        });
    }

    /// Record a pilot's current `capacity` and `used`.
    fn capacity(&mut self, now: SimTime, pilot: PilotId, p: &SimPilotRt) {
        self.push(ProjEvent::PilotCapacity {
            pilot,
            free_cores: p.capacity.saturating_sub(p.used),
            total_cores: p.capacity,
            t_s: now.as_secs_f64(),
        });
    }
}

struct SystemMachine {
    adaptors: Vec<ResourceAdaptor>,
    scheduler: Box<dyn Scheduler>,
    network: NetworkModel,
    rng: SimRng,
    pilots: HashMap<PilotId, SimPilotRt>,
    units: HashMap<UnitId, SimUnitRt>,
    pending: PendingQueue,
    /// A `BindPass` event is already queued for the current instant.
    sched_dirty: bool,
    job_owner: HashMap<(usize, JobId), PilotId>,
    next_job: u64,
    policy: Option<ScaleOutPolicy>,
    policy_extra_submitted: u32,
    events: Events,
    faults: FaultPlan,
    tracker: FailureTracker,
    rel: ReliabilityStats,
    stats: BindStats,
}

impl SystemMachine {
    fn now_s(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    fn feed_adaptor(&mut self, now: SimTime, site: usize, ev: SagaIn, out: &mut Outbox<Ev>) {
        let mut fx = Effects::new(now);
        self.adaptors[site].handle(now, ev, &mut fx);
        for (t, e) in fx.later {
            out.at(t, Ev::Saga { site, ev: e });
        }
        for o in fx.out {
            self.on_saga_out(now, site, o, out);
        }
    }

    fn on_saga_out(&mut self, now: SimTime, site: usize, o: SagaOut, out: &mut Outbox<Ev>) {
        match o {
            SagaOut::Queued { .. } => {}
            SagaOut::CapacityUp { job, total, .. } => {
                let Some(&pid) = self.job_owner.get(&(site, job)) else {
                    return;
                };
                let Some(p) = self.pilots.get_mut(&pid) else {
                    debug_assert!(false, "job_owner points at missing pilot {pid}");
                    return;
                };
                p.capacity = total;
                if p.state == PilotState::Pending {
                    p.times.active = Some(Self::now_s(now));
                    self.events.pilot(now, pid, p, PilotState::Active);
                    // Arm the injected crash clock for this pilot: one
                    // exponential draw from a stream keyed by pilot id, so
                    // replays with the same seed crash at the same instants.
                    if let Some(mtbf) = self.faults.pilot_crash_mtbf_s {
                        let mut r = self
                            .rng
                            .stream(streams::keyed(streams::PILOT_CRASH, pid.0, 0));
                        let ttf = r.exponential(mtbf);
                        out.after(SimDuration::from_secs_f64(ttf), Ev::PilotCrash(pid));
                    }
                }
                self.events.capacity(now, pid, p);
                self.schedule(out);
            }
            SagaOut::CapacityDown { job, total, .. } => {
                let Some(&pid) = self.job_owner.get(&(site, job)) else {
                    return;
                };
                let Some(p) = self.pilots.get_mut(&pid) else {
                    debug_assert!(false, "job_owner points at missing pilot {pid}");
                    return;
                };
                p.capacity = total;
                self.reclaim_overcommit(now, pid);
            }
            SagaOut::Done { job, outcome } => {
                let Some(&pid) = self.job_owner.get(&(site, job)) else {
                    return;
                };
                let Some(p) = self.pilots.get_mut(&pid) else {
                    debug_assert!(false, "job_owner points at missing pilot {pid}");
                    return;
                };
                if p.state.is_terminal() {
                    return;
                }
                let target = match outcome {
                    JobOutcome::Completed | JobOutcome::WalltimeExceeded => PilotState::Done,
                    JobOutcome::Canceled => PilotState::Canceled,
                    JobOutcome::Failed | JobOutcome::Rejected => PilotState::Failed,
                };
                // A pilot whose job ends before it ever activated did no
                // work: it ends `Canceled` (`Pending -> Done` is not an edge
                // in the P* machine).
                let target = if p.state.can_transition_to(target) {
                    target
                } else {
                    PilotState::Canceled
                };
                p.capacity = 0;
                p.times.finished = Some(Self::now_s(now));
                self.events.pilot(now, pid, p, target);
                self.requeue_bound_units(now, pid);
                self.schedule(out);
            }
        }
    }

    /// After capacity loss, requeue the most recently started units until the
    /// pilot fits its remaining capacity (work on lost slots is lost), then
    /// record the pilot's new capacity.
    fn reclaim_overcommit(&mut self, now: SimTime, pid: PilotId) {
        let p = &self.pilots[&pid];
        let (mut used, capacity) = (p.used, p.capacity);
        if used > capacity {
            let mut victims: Vec<(f64, UnitId)> = self
                .units
                .iter()
                .filter(|(_, u)| {
                    u.pilot == Some(pid) && !u.state.is_terminal() && u.state != UnitState::Pending
                })
                .map(|(&id, u)| (u.times.started.unwrap_or(f64::MAX), id))
                .collect();
            victims.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
            for (_, uid) in victims {
                if used <= capacity {
                    break;
                }
                used -= self.requeue_unit(now, uid);
            }
        }
        if let Some(p) = self.pilots.get_mut(&pid) {
            p.used = used;
            self.events.capacity(now, pid, p);
        }
    }

    /// Requeue every non-terminal unit bound to a dead pilot.
    fn requeue_bound_units(&mut self, now: SimTime, pid: PilotId) {
        let mut bound: Vec<UnitId> = self
            .units
            .iter()
            .filter(|(_, u)| {
                u.pilot == Some(pid) && !u.state.is_terminal() && u.state != UnitState::Pending
            })
            .map(|(&id, _)| id)
            .collect();
        // HashMap iteration order is nondeterministic; process in id order so
        // replays accumulate float metrics identically.
        bound.sort_by_key(|u| u.0);
        for uid in bound {
            self.requeue_unit(now, uid);
        }
        if let Some(p) = self.pilots.get_mut(&pid) {
            p.used = 0;
            self.events.capacity(now, pid, p);
        }
    }

    /// Move a unit back to Pending; returns the cores it released.
    ///
    /// This is the *planned* rebinding path (walltime expiry, capacity
    /// reclaim): the resource went away, the unit did not fail, so the retry
    /// budget is not charged.
    fn requeue_unit(&mut self, now: SimTime, uid: UnitId) -> u32 {
        let Some(u) = self.units.get_mut(&uid) else {
            debug_assert!(false, "requeue of unknown unit {uid}");
            return 0;
        };
        if u.state == UnitState::Running {
            // The in-flight attempt dies with its resource; the machine has
            // no `Running -> Pending` edge, so the planned rebind routes
            // through `Failed`. The retry budget is deliberately not charged.
            self.events.unit(now, uid, u, UnitState::Failed);
        }
        u.pilot = None;
        self.events.unit(now, uid, u, UnitState::Pending);
        u.generation += 1;
        u.times.bound = None;
        u.times.started = None;
        self.pending.push(uid, u.desc.priority, u.desc.cores);
        self.rel.rebinds += 1;
        u.desc.cores
    }

    /// One execution/staging attempt failed. Charges the retry budget and
    /// either re-enters the late-binding queue (after backoff) or fails the
    /// unit terminally once the budget is exhausted.
    fn fail_attempt(&mut self, now: SimTime, uid: UnitId, out: &mut Outbox<Ev>) {
        let now_s = Self::now_s(now);
        let (pid, cores, retry, attempts) = {
            let Some(u) = self.units.get_mut(&uid) else {
                debug_assert!(false, "failed attempt for unknown unit {uid}");
                return;
            };
            if let Some(s) = u.times.started {
                self.rel.wasted_work_s += now_s - s;
            }
            u.generation += 1;
            u.attempts += 1;
            self.events.unit(now, uid, u, UnitState::Failed);
            (u.pilot, u.desc.cores, u.desc.retry, u.attempts)
        };
        if let Some(pid) = pid {
            if let Some(p) = self.pilots.get_mut(&pid) {
                p.used = p.used.saturating_sub(cores);
                self.events.capacity(now, pid, p);
            }
            if self.tracker.record_failure(pid) {
                self.rel.blacklisted_pilots += 1;
            }
        }
        let Some(u) = self.units.get_mut(&uid) else {
            return;
        };
        u.pilot = None;
        u.times.bound = None;
        u.times.started = None;
        if retry.allows_retry(attempts) {
            self.rel.requeues += 1;
            u.failed_at = Some(now_s);
            let mut jitter =
                self.rng
                    .stream(streams::keyed(streams::BACKOFF_JITTER, uid.0, attempts));
            let delay = retry.delay_s(attempts, &mut jitter);
            let gen = u.generation;
            out.after(
                SimDuration::from_secs_f64(delay),
                Ev::RetryRelease(uid, gen),
            );
        } else {
            u.times.finished = Some(now_s);
            self.rel.exhausted_units += 1;
        }
        // Either way cores were released; other pending units may now fit.
        self.schedule(out);
    }

    /// Request a late-binding pass. Posts one `BindPass` event for the
    /// current instant; every capacity change arriving before it fires is
    /// covered by the same pass (dirty-flag wakeup).
    fn schedule(&mut self, out: &mut Outbox<Ev>) {
        if !self.sched_dirty {
            self.sched_dirty = true;
            out.immediately(Ev::BindPass);
        }
    }

    /// One late-binding pass: build the pilot snapshots once, offer — in
    /// priority order — the pending units whose core demand fits some
    /// snapshot, and apply capacity deltas to the in-memory snapshots after
    /// each bind. Units that fit nowhere are not touched, so the pass costs
    /// what it binds, not what is queued; placements match the old
    /// rebuild-per-bind loop (see `crate::binding`).
    fn bind_pass(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        if self.pending.is_empty() {
            return;
        }
        // Full *and still-pending* pilots stay visible (with zero free
        // cores): delay-scheduling policies must be able to decide
        // "wait for that pilot" over "go remote now".
        let mut snapshots: Vec<PilotSnapshot> = self
            .pilots
            .iter()
            .filter(|(id, p)| {
                ((p.state == PilotState::Active && p.capacity > 0)
                    || p.state == PilotState::Pending)
                    && !self.tracker.is_blacklisted(**id)
            })
            .map(|(&id, p)| PilotSnapshot {
                pilot: id,
                site: SiteId(p.site as u16),
                total_cores: p.capacity,
                free_cores: p.capacity.saturating_sub(p.used),
                bound_units: 0,
                remaining_walltime_s: p
                    .times
                    .active
                    .map(|a| a + p.desc.walltime.as_secs_f64() - Self::now_s(now))
                    .unwrap_or(0.0),
            })
            .collect();
        if snapshots.is_empty() {
            return;
        }
        // HashMap iteration order is not deterministic; schedulers see
        // pilots in id order so identical seeds replay identically.
        snapshots.sort_by_key(|s| s.pilot.0);
        // Shared with the thread backend and the fabric host daemons:
        // placements are decided by `binding::queue_pass` and committed
        // afterwards (the unit table stays borrowed shared during the scan).
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
        self.stats
            .note_pass(snapshots.len(), outcome.offered, outcome.binds.len() as u64);
        for (uid, pid) in outcome.binds {
            self.bind(now, uid, pid, out);
        }
    }

    fn bind(&mut self, now: SimTime, uid: UnitId, pid: PilotId, out: &mut Outbox<Ev>) {
        let site;
        {
            // The bind pass only offers live pending units to live pilots;
            // skipping a phantom bind keeps the event loop alive (the unit
            // stays pending for the next pass).
            let Some(p) = self.pilots.get_mut(&pid) else {
                debug_assert!(false, "bind: scheduler returned dead pilot {pid}");
                return;
            };
            site = p.site;
            let Some(u) = self.units.get_mut(&uid) else {
                debug_assert!(false, "bind: pending unit {uid} vanished");
                return;
            };
            assert!(
                p.capacity - p.used >= u.desc.cores,
                "scheduler over-committed pilot {pid}"
            );
            p.used += u.desc.cores;
            self.events.capacity(now, pid, p);
            // Sim units pass through `Assigned` instantaneously: binding and
            // stage-in begin at the same virtual instant.
            u.pilot = Some(pid);
            self.events.unit(now, uid, u, UnitState::Assigned);
            self.events.unit(now, uid, u, UnitState::Staging);
            u.times.bound = Some(Self::now_s(now));
            // A rebind after a failure completes a recovery.
            if let Some(f) = u.failed_at.take() {
                self.rel.recovery_s += Self::now_s(now) - f;
                self.rel.recoveries += 1;
            }
        }
        // Stage-in: sequentially transfer every non-local input from its
        // first replica site (conservative; parallel staging would take the
        // max instead).
        let u = &self.units[&uid];
        let dst = SiteId(site as u16);
        let mut staging = SimDuration::ZERO;
        for input in &u.desc.inputs {
            if !input.is_local_to(dst) {
                let src = input.sites.first().copied().unwrap_or(dst);
                staging += self.network.base_transfer_time(input.size_bytes, src, dst);
            }
        }
        let gen = u.generation;
        // Transient stage-in fault: the transfer runs (and pays its time)
        // but fails at the end, charging one attempt.
        let mut fault_rng =
            self.rng
                .stream(streams::keyed(streams::STAGING_FAULT, uid.0, u.attempts));
        if self.faults.staging_failure_p > 0.0 && fault_rng.bool(self.faults.staging_failure_p) {
            out.after(staging, Ev::StagingFail(uid, gen));
        } else {
            out.after(staging, Ev::UnitStaged(uid, gen));
        }
    }

    fn fresh_job(&mut self) -> JobId {
        let j = JobId(self.next_job);
        self.next_job += 1;
        j
    }
}

impl Machine for SystemMachine {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, out: &mut Outbox<Ev>) {
        match event {
            Ev::Saga { site, ev } => self.feed_adaptor(now, site, ev, out),
            Ev::SubmitPilot(pid) => {
                let (site, job, desc) = {
                    let Some(p) = self.pilots.get_mut(&pid) else {
                        debug_assert!(false, "submit event for unknown pilot {pid}");
                        return;
                    };
                    p.times.submitted = Self::now_s(now);
                    (p.site, p.job, p.desc.clone())
                };
                // Not an `advance`: the pilot has been `Pending` since it was
                // registered, and this is when it is submitted.
                self.events.push(ProjEvent::Pilot {
                    pilot: pid,
                    state: PilotState::Pending,
                    t_s: Self::now_s(now),
                });
                self.feed_adaptor(
                    now,
                    site,
                    SagaIn::Submit {
                        job,
                        desc: JobDescription::placeholder(desc.cores, desc.walltime),
                    },
                    out,
                );
            }
            Ev::SubmitUnit(uid) => {
                let Some(u) = self.units.get_mut(&uid) else {
                    debug_assert!(false, "submit event for unknown unit {uid}");
                    return;
                };
                self.events.unit(now, uid, u, UnitState::Pending);
                u.times.submitted = Self::now_s(now);
                self.pending.push(uid, u.desc.priority, u.desc.cores);
                self.schedule(out);
            }
            Ev::CancelPilot(pid) => {
                let Some(p) = self.pilots.get(&pid) else {
                    return;
                };
                let (site, job) = (p.site, p.job);
                self.feed_adaptor(now, site, SagaIn::Cancel(job), out);
            }
            Ev::UnitStaged(uid, gen) => {
                let Some(u) = self.units.get_mut(&uid) else {
                    return;
                };
                if u.generation != gen || u.state != UnitState::Staging {
                    return;
                }
                self.events.unit(now, uid, u, UnitState::Running);
                u.times.started = Some(Self::now_s(now));
                // Sample duration deterministically per (unit, attempt).
                let mut dur_rng = self.rng.stream(uid.0 ^ (u.attempts as u64) << 48);
                let dur = u.duration.sample(&mut dur_rng).max(0.0);
                self.rel.attempts += 1;
                // The attempt's outcome is decided up front: the earliest of
                // injected kernel fault, deadline expiry, and normal finish.
                let mut fault_rng =
                    self.rng
                        .stream(streams::keyed(streams::UNIT_FAULT, uid.0, u.attempts));
                let fault_at = (self.faults.unit_failure_p > 0.0
                    && fault_rng.bool(self.faults.unit_failure_p))
                .then(|| dur * fault_rng.f64());
                let deadline_at = u.desc.deadline_s.filter(|d| *d < dur);
                match (fault_at, deadline_at) {
                    (Some(f), d) if d.is_none_or(|d| f <= d) => {
                        out.after(
                            SimDuration::from_secs_f64(f),
                            Ev::UnitFail(uid, gen, FailKind::Fault),
                        );
                    }
                    (_, Some(d)) => {
                        out.after(
                            SimDuration::from_secs_f64(d),
                            Ev::UnitFail(uid, gen, FailKind::Deadline),
                        );
                    }
                    _ => {
                        out.after(SimDuration::from_secs_f64(dur), Ev::UnitFinish(uid, gen));
                    }
                }
            }
            Ev::UnitFinish(uid, gen) => {
                let Some(u) = self.units.get_mut(&uid) else {
                    return;
                };
                if u.generation != gen || u.state != UnitState::Running {
                    return;
                }
                self.events.unit(now, uid, u, UnitState::Done);
                u.times.finished = Some(Self::now_s(now));
                self.events.push(ProjEvent::UnitMetric {
                    unit: uid,
                    wait_s: u.times.wait().unwrap_or(0.0),
                    exec_s: u.times.execution().unwrap_or(0.0),
                    t_s: Self::now_s(now),
                });
                let Some(pid) = u.pilot else {
                    debug_assert!(false, "running unit {uid} has no pilot");
                    return;
                };
                let cores = u.desc.cores;
                if let Some(p) = self.pilots.get_mut(&pid) {
                    p.used = p.used.saturating_sub(cores);
                    self.events.capacity(now, pid, p);
                }
                self.tracker.record_success(pid);
                self.schedule(out);
            }
            Ev::UnitFail(uid, gen, kind) => {
                let Some(u) = self.units.get(&uid) else {
                    return;
                };
                if u.generation != gen || u.state != UnitState::Running {
                    return;
                }
                match kind {
                    FailKind::Fault => self.rel.injected_unit_faults += 1,
                    FailKind::Deadline => self.rel.deadline_expirations += 1,
                }
                self.fail_attempt(now, uid, out);
            }
            Ev::StagingFail(uid, gen) => {
                let Some(u) = self.units.get(&uid) else {
                    return;
                };
                if u.generation != gen || u.state != UnitState::Staging {
                    return;
                }
                self.rel.injected_staging_faults += 1;
                self.fail_attempt(now, uid, out);
            }
            Ev::RetryRelease(uid, gen) => {
                let Some(u) = self.units.get_mut(&uid) else {
                    return;
                };
                if u.generation != gen || u.state != UnitState::Failed {
                    return;
                }
                // The retry edge: Failed → Pending, back into late binding.
                self.events.unit(now, uid, u, UnitState::Pending);
                self.pending.push(uid, u.desc.priority, u.desc.cores);
                self.schedule(out);
            }
            Ev::PilotCrash(pid) => {
                let Some(p) = self.pilots.get_mut(&pid) else {
                    return;
                };
                if p.state != PilotState::Active {
                    return;
                }
                self.events.pilot(now, pid, p, PilotState::Failed);
                p.capacity = 0;
                p.used = 0;
                self.events.capacity(now, pid, p);
                p.times.finished = Some(Self::now_s(now));
                let (site, job) = (p.site, p.job);
                self.rel.pilot_crashes += 1;
                // Release the placeholder job on the infrastructure.
                self.feed_adaptor(now, site, SagaIn::Cancel(job), out);
                // Units that were executing lose their attempt (retry budget
                // applies); units not yet running rebind for free. Sorted by
                // id: HashMap order is nondeterministic and float metrics
                // must accumulate identically across replays.
                let mut bound: Vec<(UnitId, UnitState)> = self
                    .units
                    .iter()
                    .filter(|(_, u)| {
                        u.pilot == Some(pid)
                            && !u.state.is_terminal()
                            && u.state != UnitState::Pending
                    })
                    .map(|(&id, u)| (id, u.state))
                    .collect();
                bound.sort_by_key(|(u, _)| u.0);
                for (uid, state) in bound {
                    if state == UnitState::Running {
                        self.fail_attempt(now, uid, out);
                    } else {
                        self.requeue_unit(now, uid);
                    }
                }
                self.schedule(out);
            }
            Ev::BindPass => {
                self.sched_dirty = false;
                self.bind_pass(now, out);
            }
            Ev::PolicyTick => {
                let Some(policy) = self.policy.clone() else {
                    return;
                };
                if self.pending.len() > policy.queue_threshold
                    && self.policy_extra_submitted < policy.max_extra
                {
                    self.policy_extra_submitted += 1;
                    let pid = PilotId(u64::MAX - u64::from(self.policy_extra_submitted));
                    let job = self.fresh_job();
                    let site = policy.burst_site.0 as usize;
                    self.pilots.insert(
                        pid,
                        SimPilotRt {
                            site,
                            desc: policy.pilot.clone(),
                            state: PilotState::Pending,
                            capacity: 0,
                            used: 0,
                            job,
                            times: PilotTimes {
                                submitted: Self::now_s(now),
                                ..Default::default()
                            },
                        },
                    );
                    self.job_owner.insert((site, job), pid);
                    out.immediately(Ev::SubmitPilot(pid));
                }
                out.after(policy.check_every, Ev::PolicyTick);
            }
        }
    }
}

/// Builder/driver for simulated pilot-system runs.
pub struct SimPilotSystem {
    exec: Executor<SystemMachine>,
    ids: IdGen,
}

impl SimPilotSystem {
    /// New system with the given seed and a first-fit scheduler.
    pub fn new(seed: u64) -> Self {
        let machine = SystemMachine {
            adaptors: Vec::new(),
            scheduler: Box::new(crate::scheduler::FirstFitScheduler),
            network: NetworkModel::new(&[]),
            rng: SimRng::new(seed),
            pilots: HashMap::new(),
            units: HashMap::new(),
            pending: PendingQueue::default(),
            sched_dirty: false,
            job_owner: HashMap::new(),
            next_job: 1,
            policy: None,
            policy_extra_submitted: 0,
            events: Events(Some(Vec::new())),
            faults: FaultPlan::none(),
            tracker: FailureTracker::new(None),
            rel: ReliabilityStats::default(),
            stats: BindStats::default(),
        };
        SimPilotSystem {
            exec: Executor::new(machine),
            ids: IdGen::new(),
        }
    }

    /// Register an infrastructure; returns the site id schedulers will see.
    /// The adaptor's background processes (batch arrivals, match cycles) are
    /// primed automatically.
    pub fn add_resource(&mut self, adaptor: ResourceAdaptor) -> SiteId {
        let site = self.exec.machine().adaptors.len();
        for (t, ev) in adaptor.initial_inputs() {
            self.exec.schedule_at(t, Ev::Saga { site, ev });
        }
        let m = self.exec.machine_mut();
        m.adaptors.push(adaptor);
        // Keep the network's site table in step with adaptor indices.
        let names: Vec<String> = (0..m.adaptors.len()).map(|i| format!("site-{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        // Custom networks are set after all resources are added, via
        // `set_network`.
        m.network = NetworkModel::new(&name_refs);
        SiteId(site as u16)
    }

    /// Replace the late-binding scheduler.
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.exec.machine_mut().scheduler = scheduler;
    }

    /// Replace the network model (after all resources are added).
    pub fn set_network(&mut self, network: NetworkModel) {
        self.exec.machine_mut().network = network;
    }

    /// Install an adaptive scale-out policy.
    pub fn set_scale_out(&mut self, policy: ScaleOutPolicy) {
        let every = policy.check_every;
        self.exec.machine_mut().policy = Some(policy);
        self.exec.schedule_at(SimTime::ZERO + every, Ev::PolicyTick);
    }

    /// Switch event emission off (large sweeps): the report's `events`
    /// stay empty.
    pub fn disable_trace(&mut self) {
        self.exec.machine_mut().events = Events(None);
    }

    /// Install a deterministic fault-injection plan. All fault draws come
    /// from RNG streams derived from the run seed, so replays are
    /// byte-identical.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let m = self.exec.machine_mut();
        m.faults = plan;
        m.tracker = FailureTracker::new(plan.blacklist_after);
    }

    /// Submit a pilot at virtual time `at`.
    pub fn submit_pilot(&mut self, at: SimTime, site: SiteId, desc: PilotDescription) -> PilotId {
        let pid = self.ids.pilot();
        let m = self.exec.machine_mut();
        let job = m.fresh_job();
        assert!((site.0 as usize) < m.adaptors.len(), "unknown site {site}");
        m.pilots.insert(
            pid,
            SimPilotRt {
                site: site.0 as usize,
                desc,
                state: PilotState::Pending,
                capacity: 0,
                used: 0,
                job,
                times: PilotTimes::default(),
            },
        );
        m.job_owner.insert((site.0 as usize, job), pid);
        self.exec.schedule_at(at, Ev::SubmitPilot(pid));
        pid
    }

    /// Submit a unit at virtual time `at` with a sampled duration model.
    pub fn submit_unit(&mut self, at: SimTime, desc: UnitDescription, duration: Dist) -> UnitId {
        let uid = self.ids.unit();
        self.exec.machine_mut().units.insert(
            uid,
            SimUnitRt {
                desc,
                duration,
                state: UnitState::New,
                pilot: None,
                times: UnitTimes::default(),
                generation: 0,
                attempts: 0,
                failed_at: None,
            },
        );
        self.exec.schedule_at(at, Ev::SubmitUnit(uid));
        uid
    }

    /// Submit a unit with a fixed duration in seconds.
    pub fn submit_unit_fixed(
        &mut self,
        at: SimTime,
        desc: UnitDescription,
        duration_s: f64,
    ) -> UnitId {
        self.submit_unit(at, desc, Dist::constant(duration_s))
    }

    /// Schedule a pilot cancellation.
    pub fn cancel_pilot(&mut self, at: SimTime, pilot: PilotId) {
        self.exec.schedule_at(at, Ev::CancelPilot(pilot));
    }

    /// Run until quiescence or `until`, whichever first; consume into a report.
    pub fn run(mut self, until: SimTime) -> SimReport {
        self.exec.run_until(until);
        let end_time = self.exec.now();
        let m = self.exec.into_machine();
        let mut units: Vec<UnitRecord> = m
            .units
            .iter()
            .map(|(&unit, u)| UnitRecord {
                unit,
                pilot: u.pilot,
                times: u.times,
                state: u.state,
                tag: u.desc.tag.clone(),
            })
            .collect();
        units.sort_by_key(|u| u.unit.0);
        let mut pilots: Vec<SimPilotRecord> = m
            .pilots
            .iter()
            .map(|(&pilot, p)| SimPilotRecord {
                pilot,
                site: SiteId(p.site as u16),
                label: p.desc.label.clone(),
                state: p.state,
                times: p.times,
            })
            .collect();
        pilots.sort_by_key(|p| p.pilot.0);
        SimReport {
            units,
            pilots,
            events: m.events.0.unwrap_or_default(),
            end_time,
            reliability: m.rel,
            bind: m.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::DataLocation;
    use crate::scheduler::DataAwareScheduler;
    use pilot_infra::cloud::{CloudConfig, CloudProvider};
    use pilot_infra::hpc::{BackgroundLoad, HpcCluster, HpcConfig};
    use pilot_infra::htc::{HtcConfig, HtcPool};

    fn quiet_hpc(cores: u32) -> ResourceAdaptor {
        ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet("hpc", cores)))
    }

    #[test]
    fn pilot_runs_units_in_virtual_time() {
        let mut sys = SimPilotSystem::new(1);
        let site = sys.add_resource(quiet_hpc(16));
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(8, SimDuration::from_hours(1)).labeled("p"),
        );
        for _ in 0..16 {
            sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 30.0);
        }
        let report = sys.run(SimTime::from_hours(2));
        assert_eq!(report.count(UnitState::Done), 16);
        // 16 units × 30 s on 8 cores = two waves ≈ 60 s + 1 s dispatch.
        let mk = report.makespan();
        assert!((60.0..70.0).contains(&mk), "makespan {mk}");
        assert_eq!(report.pilots.len(), 1);
        assert!(report.pilots[0].times.startup_overhead().unwrap() >= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sys = SimPilotSystem::new(seed);
            let site = sys.add_resource(quiet_hpc(32));
            sys.submit_pilot(
                SimTime::ZERO,
                site,
                PilotDescription::new(16, SimDuration::from_hours(4)),
            );
            for i in 0..40 {
                sys.submit_unit(
                    SimTime::from_secs(i),
                    UnitDescription::new(1),
                    Dist::exponential(25.0),
                );
            }
            let r = sys.run(SimTime::from_hours(8));
            (r.makespan(), r.throughput(), r.events)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds, different durations");
    }

    #[test]
    fn unit_waits_until_pilot_capacity_arrives() {
        let mut sys = SimPilotSystem::new(2);
        let site = sys.add_resource(quiet_hpc(8));
        sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 10.0);
        sys.submit_pilot(
            SimTime::from_secs(100),
            site,
            PilotDescription::new(4, SimDuration::from_hours(1)),
        );
        let report = sys.run(SimTime::from_hours(2));
        let u = &report.units[0];
        assert_eq!(u.state, UnitState::Done);
        assert!(u.times.wait().unwrap() >= 100.0, "late binding wait");
    }

    #[test]
    fn pilot_walltime_expiry_requeues_running_units() {
        let mut sys = SimPilotSystem::new(3);
        let site = sys.add_resource(quiet_hpc(8));
        // Short pilot; long unit cannot finish inside it.
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(4, SimDuration::from_secs(50)),
        );
        // Second pilot arrives later and rescues the unit.
        sys.submit_pilot(
            SimTime::from_secs(200),
            site,
            PilotDescription::new(4, SimDuration::from_hours(1)),
        );
        let u = sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 120.0);
        let report = sys.run(SimTime::from_hours(2));
        // A requeue of a running unit is `Running -> Failed -> Pending`.
        let states: Vec<UnitState> = report
            .events
            .iter()
            .filter_map(|e| match *e {
                ProjEvent::Unit { unit, state, .. } if unit == u => Some(state),
                _ => None,
            })
            .collect();
        assert!(
            states
                .windows(3)
                .any(|w| w == [UnitState::Running, UnitState::Failed, UnitState::Pending]),
            "unit must be requeued when pilot 1 expires: {states:?}"
        );
        assert_eq!(report.reliability.rebinds, 1);
        let rec = report.units.iter().find(|r| r.unit == u).unwrap();
        assert_eq!(rec.state, UnitState::Done);
        // It finished on the second pilot, well after 200 s.
        assert!(rec.times.finished.unwrap() >= 320.0);
    }

    #[test]
    fn htc_incremental_capacity_feeds_scheduler() {
        let mut sys = SimPilotSystem::new(4);
        let site = sys.add_resource(ResourceAdaptor::htc(HtcPool::new(HtcConfig::reliable(
            "osg", 8,
        ))));
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(8, SimDuration::from_hours(2)),
        );
        for _ in 0..16 {
            sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 60.0);
        }
        let report = sys.run(SimTime::from_hours(4));
        assert_eq!(report.count(UnitState::Done), 16);
        // Glide-in startup: first capacity near the 30 s match cycle.
        let startup = report.pilots[0].times.startup_overhead().unwrap();
        assert!((30.0..45.0).contains(&startup), "startup {startup}");
    }

    #[test]
    fn cloud_pilot_costs_money_and_boots_fast() {
        let mut sys = SimPilotSystem::new(5);
        let site = sys.add_resource(ResourceAdaptor::cloud(CloudProvider::new(
            CloudConfig::generic("aws", 512),
        )));
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(64, SimDuration::from_hours(1)),
        );
        for _ in 0..32 {
            sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 120.0);
        }
        let report = sys.run(SimTime::from_hours(3));
        assert_eq!(report.count(UnitState::Done), 32);
        let startup = report.pilots[0].times.startup_overhead().unwrap();
        assert!(
            (45.0..=90.0).contains(&startup),
            "boot window, got {startup}"
        );
    }

    #[test]
    fn data_aware_scheduler_places_units_at_data() {
        let mut sys = SimPilotSystem::new(6);
        let a = sys.add_resource(quiet_hpc(16));
        let b = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
            "hpc-b", 16,
        ))));
        sys.set_scheduler(Box::new(DataAwareScheduler::default()));
        sys.submit_pilot(
            SimTime::ZERO,
            a,
            PilotDescription::new(8, SimDuration::from_hours(1)),
        );
        sys.submit_pilot(
            SimTime::ZERO,
            b,
            PilotDescription::new(8, SimDuration::from_hours(1)),
        );
        // All data lives at site b.
        for _ in 0..8 {
            sys.submit_unit_fixed(
                SimTime::from_secs(10),
                UnitDescription::new(1).with_inputs(vec![DataLocation::new(500_000_000, vec![b])]),
                20.0,
            );
        }
        let report = sys.run(SimTime::from_hours(1));
        assert_eq!(report.count(UnitState::Done), 8);
        let b_pilot = report.pilots.iter().find(|p| p.site == b).unwrap().pilot;
        assert!(
            report.units.iter().all(|u| u.pilot == Some(b_pilot)),
            "all units should land at the data"
        );
        // No staging cost at the local site.
        for u in &report.units {
            assert!(u.times.staging().unwrap() < 0.1);
        }
    }

    #[test]
    fn remote_data_pays_staging_time() {
        let mut sys = SimPilotSystem::new(7);
        let a = sys.add_resource(quiet_hpc(16));
        let b_site = SiteId(1); // no pilot there; data is remote
        sys.submit_pilot(
            SimTime::ZERO,
            a,
            PilotDescription::new(8, SimDuration::from_hours(1)),
        );
        let _ = b_site;
        sys.submit_unit_fixed(
            SimTime::ZERO,
            UnitDescription::new(1)
                .with_inputs(vec![DataLocation::new(1_000_000_000, vec![SiteId(1)])]),
            10.0,
        );
        let report = sys.run(SimTime::from_hours(1));
        let u = &report.units[0];
        assert_eq!(u.state, UnitState::Done);
        // 1 GB over the 100 MB/s WAN default ≈ 10 s staging.
        let staging = u.times.staging().unwrap();
        assert!((9.0..12.0).contains(&staging), "staging {staging}");
    }

    #[test]
    fn scale_out_policy_adds_cloud_pilot_under_backlog() {
        let mut sys = SimPilotSystem::new(8);
        let hpc = sys.add_resource(quiet_hpc(8));
        let cloud = sys.add_resource(ResourceAdaptor::cloud(CloudProvider::new(
            CloudConfig::generic("burst", 256),
        )));
        sys.submit_pilot(
            SimTime::ZERO,
            hpc,
            PilotDescription::new(4, SimDuration::from_hours(4)),
        );
        sys.set_scale_out(ScaleOutPolicy {
            check_every: SimDuration::from_secs(60),
            queue_threshold: 10,
            burst_site: cloud,
            pilot: PilotDescription::new(64, SimDuration::from_hours(2)).labeled("burst"),
            max_extra: 1,
        });
        for _ in 0..100 {
            sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 120.0);
        }
        let report = sys.run(SimTime::from_hours(6));
        assert_eq!(report.count(UnitState::Done), 100);
        // One pilot is submitted at a policy check, after the start.
        let late: Vec<PilotId> = report
            .events
            .iter()
            .filter_map(|e| match *e {
                ProjEvent::Pilot {
                    pilot,
                    state: PilotState::Pending,
                    t_s,
                } if t_s > 0.0 => Some(pilot),
                _ => None,
            })
            .collect();
        assert_eq!(late.len(), 1, "scale-out submits one pilot: {late:?}");
        assert_eq!(report.pilots.len(), 2, "policy must add one pilot");
        let burst = report.pilots.iter().find(|p| p.label == "burst").unwrap();
        assert_eq!(burst.pilot, late[0]);
        assert_eq!(burst.site, cloud);
        // With 64 extra cores the backlog drains far faster than 100×120/4 s.
        assert!(report.makespan() < 1500.0, "makespan {}", report.makespan());
    }

    #[test]
    fn queue_contention_delays_pilot_startup() {
        let bg = BackgroundLoad::at_utilization(
            0.85,
            64,
            Dist::constant(16.0),
            Dist::exponential(1200.0),
        );
        let busy = HpcCluster::new(HpcConfig::quiet("busy", 64).with_background(bg));
        let mut sys = SimPilotSystem::new(9);
        let site = sys.add_resource(ResourceAdaptor::hpc(busy));
        sys.submit_pilot(
            SimTime::from_secs(8000),
            site,
            PilotDescription::new(32, SimDuration::from_hours(2)),
        );
        sys.submit_unit_fixed(SimTime::from_secs(8000), UnitDescription::new(1), 10.0);
        let report = sys.run(SimTime::from_hours(24));
        let startup = report.pilots[0].times.startup_overhead();
        assert!(
            startup.map(|s| s > 10.0).unwrap_or(false),
            "busy queue should delay the pilot, got {startup:?}"
        );
    }

    #[test]
    fn injected_unit_faults_retry_to_completion() {
        let mut sys = SimPilotSystem::new(11);
        let site = sys.add_resource(quiet_hpc(16));
        sys.set_fault_plan(FaultPlan::none().with_unit_failures(0.4));
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(8, SimDuration::from_hours(4)),
        );
        for _ in 0..24 {
            sys.submit_unit_fixed(
                SimTime::ZERO,
                UnitDescription::new(1).with_retry(crate::retry::RetryPolicy::fixed(10, 1.0)),
                20.0,
            );
        }
        let report = sys.run(SimTime::from_hours(8));
        assert_eq!(
            report.count(UnitState::Done),
            24,
            "retries recover all units"
        );
        let rel = &report.reliability;
        assert!(rel.injected_unit_faults > 0, "p=0.4 must inject faults");
        assert_eq!(
            rel.requeues, rel.injected_unit_faults,
            "every fault retried"
        );
        assert!(rel.wasted_work_s > 0.0, "partial attempts waste work");
        assert!(
            rel.recoveries > 0 && rel.mean_recovery_s() >= 1.0,
            "backoff bounds recovery"
        );
    }

    #[test]
    fn fail_fast_units_fail_terminally_under_faults() {
        let mut sys = SimPilotSystem::new(12);
        let site = sys.add_resource(quiet_hpc(16));
        sys.set_fault_plan(FaultPlan::none().with_unit_failures(0.5));
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(8, SimDuration::from_hours(4)),
        );
        for _ in 0..24 {
            // Default policy: one attempt, no retry.
            sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 20.0);
        }
        let report = sys.run(SimTime::from_hours(8));
        let failed = report.count(UnitState::Failed);
        assert!(failed > 0, "fail-fast must surface failures");
        assert_eq!(report.count(UnitState::Done) + failed, 24);
        assert_eq!(report.reliability.exhausted_units, failed as u64);
        assert_eq!(report.reliability.requeues, 0);
    }

    #[test]
    fn pilot_crash_recovers_by_late_rebinding() {
        let mut sys = SimPilotSystem::new(13);
        let site = sys.add_resource(quiet_hpc(32));
        // Crash roughly once a minute; a stream of replacement pilots keeps
        // capacity coming.
        sys.set_fault_plan(FaultPlan::none().with_pilot_crashes(60.0));
        for i in 0..6 {
            sys.submit_pilot(
                SimTime::from_secs(i * 120),
                site,
                PilotDescription::new(8, SimDuration::from_hours(2)),
            );
        }
        for _ in 0..16 {
            sys.submit_unit_fixed(
                SimTime::ZERO,
                UnitDescription::new(1).with_retry(crate::retry::RetryPolicy::fixed(20, 0.5)),
                30.0,
            );
        }
        let report = sys.run(SimTime::from_hours(4));
        assert!(
            report.reliability.pilot_crashes > 0,
            "MTBF 60 s must crash pilots"
        );
        assert_eq!(
            report.count(UnitState::Done),
            16,
            "rebinding rescues all units"
        );
    }

    #[test]
    fn deadline_cuts_off_slow_units() {
        let mut sys = SimPilotSystem::new(14);
        let site = sys.add_resource(quiet_hpc(8));
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(4, SimDuration::from_hours(1)),
        );
        // 100 s unit with a 10 s deadline and no retry: fails at t≈start+10.
        let u = sys.submit_unit_fixed(
            SimTime::ZERO,
            UnitDescription::new(1).with_deadline(10.0),
            100.0,
        );
        let report = sys.run(SimTime::from_hours(1));
        let rec = report.units.iter().find(|r| r.unit == u).unwrap();
        assert_eq!(rec.state, UnitState::Failed);
        assert_eq!(report.reliability.deadline_expirations, 1);
        assert!((report.reliability.wasted_work_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_failures_blacklist_the_pilot() {
        let mut sys = SimPilotSystem::new(15);
        let site = sys.add_resource(quiet_hpc(16));
        sys.set_fault_plan(FaultPlan::none().with_unit_failures(1.0).with_blacklist(3));
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(8, SimDuration::from_hours(1)),
        );
        for _ in 0..8 {
            sys.submit_unit_fixed(
                SimTime::ZERO,
                UnitDescription::new(1).with_retry(crate::retry::RetryPolicy::fixed(4, 0.1)),
                5.0,
            );
        }
        let report = sys.run(SimTime::from_hours(1));
        // After its third failure the pilot takes no more units, though
        // released retries keep coming back to `Pending`.
        let unit_events = || {
            report.events.iter().filter_map(|e| match *e {
                ProjEvent::Unit { state, t_s, .. } => Some((state, t_s)),
                _ => None,
            })
        };
        let third_failure = unit_events()
            .filter(|(s, _)| *s == UnitState::Failed)
            .nth(2)
            .map(|(_, t)| t)
            .unwrap();
        let after = |state| {
            unit_events()
                .filter(|&(s, t)| s == state && t > third_failure)
                .count()
        };
        assert_eq!(after(UnitState::Assigned), 0, "a blacklisted pilot binds");
        assert!(after(UnitState::Pending) > 0);
        assert_eq!(report.reliability.blacklisted_pilots, 1);
        // Every unit fails with p=1 and the only pilot is blacklisted, so no
        // unit can complete.
        assert_eq!(report.count(UnitState::Done), 0);
    }

    /// Unit faults, pilot crashes and staging faults at once, on a fixed seed.
    fn fault_replay_run() -> SimReport {
        let mut sys = SimPilotSystem::new(77);
        let site = sys.add_resource(quiet_hpc(32));
        sys.set_fault_plan(
            FaultPlan::none()
                .with_unit_failures(0.3)
                .with_pilot_crashes(300.0)
                .with_staging_failures(0.1),
        );
        for i in 0..4 {
            sys.submit_pilot(
                SimTime::from_secs(i * 60),
                site,
                PilotDescription::new(8, SimDuration::from_hours(2)),
            );
        }
        for i in 0..32 {
            sys.submit_unit(
                SimTime::from_secs(i),
                UnitDescription::new(1).with_retry(
                    crate::retry::RetryPolicy::exponential(6, 0.5, 2.0, 30.0).with_jitter(0.3),
                ),
                Dist::exponential(40.0),
            );
        }
        sys.run(SimTime::from_hours(6))
    }

    /// FNV-1a over a run's outcome: every unit's state, pilot and times, the
    /// reliability counters and the binding counters (floats by their bits).
    fn outcome_digest(r: &SimReport) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |w: u64| {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
        for u in &r.units {
            mix(u.unit.0);
            mix(u64::from(crate::events::unit_state_code(u.state)));
            mix(u.pilot.map_or(u64::MAX, |p| p.0));
            mix(u.times.submitted.to_bits());
            mix(opt(u.times.bound));
            mix(opt(u.times.started));
            mix(opt(u.times.finished));
        }
        let ReliabilityStats {
            attempts,
            requeues,
            rebinds,
            injected_unit_faults,
            injected_staging_faults,
            pilot_crashes,
            exhausted_units,
            deadline_expirations,
            blacklisted_pilots,
            wasted_work_s,
            recovery_s,
            recoveries,
            broker_node_kills,
            leader_failovers,
            fenced_appends,
        } = r.reliability;
        for w in [
            attempts,
            requeues,
            rebinds,
            injected_unit_faults,
            injected_staging_faults,
            pilot_crashes,
            exhausted_units,
            deadline_expirations,
            blacklisted_pilots,
            wasted_work_s.to_bits(),
            recovery_s.to_bits(),
            recoveries,
            broker_node_kills,
            leader_failovers,
            fenced_appends,
        ] {
            mix(w);
        }
        let BindStats {
            passes,
            snapshot_builds,
            candidate_comparisons,
            binds,
            max_binds_per_pass,
        } = r.bind;
        for w in [
            passes,
            snapshot_builds,
            candidate_comparisons,
            binds,
            max_binds_per_pass,
        ] {
            mix(w);
        }
        h
    }

    #[test]
    fn fault_injection_outcome_is_pinned() {
        // Recording the transitions as events must not move a single
        // draw, bind or timestamp of the run.
        assert_eq!(outcome_digest(&fault_replay_run()), 0x86b8_5a43_9b75_136d);
    }

    #[test]
    fn fault_injection_replays_byte_identically() {
        let (a, b) = (fault_replay_run(), fault_replay_run());
        assert!(a.events == b.events, "identical transitions");
        assert_eq!(a.reliability, b.reliability, "identical fault schedule");
        for (ua, ub) in a.units.iter().zip(b.units.iter()) {
            assert_eq!(ua.unit, ub.unit);
            assert_eq!(ua.state, ub.state);
            assert_eq!(ua.times, ub.times, "unit {} times differ", ua.unit);
        }
    }

    #[test]
    fn backfill_estimateless_units_avoid_expiring_pilots() {
        // Regression: estimate-less units used to be backfilled onto the
        // pilot *closest to expiry*, where the pilot's walltime routinely
        // killed them mid-run and requeued the work. They must prefer the
        // pilot with the most remaining walltime instead.
        let mut sys = SimPilotSystem::new(21);
        let site = sys.add_resource(quiet_hpc(16));
        sys.set_scheduler(Box::new(crate::scheduler::BackfillScheduler::default()));
        // One pilot about to expire, one with hours of headroom.
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(4, SimDuration::from_secs(60)),
        );
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(4, SimDuration::from_hours(4)),
        );
        // 100 s units without runtime estimates: landing on the expiring
        // pilot guarantees a walltime kill at t=60.
        for _ in 0..4 {
            sys.submit_unit_fixed(SimTime::from_secs(5), UnitDescription::new(1), 100.0);
        }
        let report = sys.run(SimTime::from_hours(8));
        assert_eq!(report.count(UnitState::Done), 4);
        assert_eq!(
            report.reliability.rebinds, 0,
            "no estimate-less unit may be killed at pilot walltime"
        );
        assert_eq!(
            report.bind.snapshot_builds, report.bind.passes,
            "batched pass builds one snapshot per pass"
        );
    }

    #[test]
    fn data_aware_starved_unit_falls_back_and_completes() {
        // Regression: delay scheduling starved a unit forever when its only
        // data-local pilot stayed permanently full. With the bounded wait it
        // must go remote after `max_wait_passes` refused passes.
        let mut sys = SimPilotSystem::new(23);
        let a = sys.add_resource(quiet_hpc(16));
        let b = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
            "hpc-b", 16,
        ))));
        sys.set_scheduler(Box::new(DataAwareScheduler::with_max_wait(3)));
        // The only pilot at the data site has one core…
        sys.submit_pilot(
            SimTime::ZERO,
            b,
            PilotDescription::new(1, SimDuration::from_hours(4)),
        );
        let remote = sys.submit_pilot(
            SimTime::ZERO,
            a,
            PilotDescription::new(4, SimDuration::from_hours(4)),
        );
        // …and a blocker occupies it for the whole run.
        sys.submit_unit_fixed(
            SimTime::from_secs(5),
            UnitDescription::new(1).with_inputs(vec![DataLocation::new(500_000_000, vec![b])]),
            100_000.0,
        );
        // The victim's data also lives at b, behind the blocker.
        let victim = sys.submit_unit_fixed(
            SimTime::from_secs(6),
            UnitDescription::new(1).with_inputs(vec![DataLocation::new(500_000_000, vec![b])]),
            10.0,
        );
        // Background churn on site a drives the binding passes that charge
        // the victim's wait budget.
        for _ in 0..8 {
            sys.submit_unit_fixed(SimTime::from_secs(7), UnitDescription::new(1), 3.0);
        }
        let report = sys.run(SimTime::from_secs(600));
        let rec = report.units.iter().find(|r| r.unit == victim).unwrap();
        assert_eq!(rec.state, UnitState::Done, "bounded wait must not starve");
        assert_eq!(
            rec.pilot,
            Some(remote),
            "after the wait budget the victim goes remote"
        );
        assert_eq!(report.count(UnitState::Done), 9, "victim + background");
    }

    #[test]
    fn multicore_units_pack_within_capacity() {
        let mut sys = SimPilotSystem::new(10);
        let site = sys.add_resource(quiet_hpc(16));
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(8, SimDuration::from_hours(1)),
        );
        // Two 4-core units fit together; the third waits.
        for _ in 0..3 {
            sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(4), 100.0);
        }
        let report = sys.run(SimTime::from_hours(1));
        assert_eq!(report.count(UnitState::Done), 3);
        let mut starts: Vec<f64> = report
            .units
            .iter()
            .map(|u| u.times.started.unwrap())
            .collect();
        starts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(starts[1] - starts[0] < 1.0, "first two run together");
        assert!(starts[2] - starts[0] >= 100.0, "third waits for a slot");
    }
}
