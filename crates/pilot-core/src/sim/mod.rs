//! Virtual-time backend: the full pilot system — adaptors, late-binding
//! scheduler, data staging, adaptive policies — as one deterministic
//! discrete-event machine.
//!
//! Pilots are placeholder jobs on `pilot-saga` adaptors (HPC/HTC/cloud/YARN);
//! capacity arrives and leaves through the adaptors' uniform alphabet. Units
//! carry duration *models* instead of kernels; staging cost comes from the
//! site-to-site [`NetworkModel`]. Units and pilots live in the ledger the
//! thread service drives too (`crate::ledger`): binding, retries, rebinds,
//! crash sweeps and the read-plane events are its operations, and this
//! driver adds the adaptors, staging, sampling, the scale-out policy and
//! the timers. Everything is reproducible from a seed,
//! which is what lets the experiment harness sweep hundreds of configurations
//! (EXP PJ-1/PJ-4/IO-1/DY-1) in milliseconds.

use crate::binding::BindStats;
use crate::describe::{PilotDescription, UnitDescription};
use crate::events::ProjEvent;
use crate::ids::{IdGen, PilotId, UnitId};
use crate::ledger::{Events, Ledger, Retry};
use crate::metrics::{self, PilotTimes, UnitRecord, UnitTimes};
use crate::retry::{streams, FaultPlan, ReliabilityStats};
use crate::scheduler::Scheduler;
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

/// The DES driver's part of a pilot: its description and placeholder job.
struct SimPilot {
    desc: PilotDescription,
    job: JobId,
}

struct SystemMachine {
    adaptors: Vec<ResourceAdaptor>,
    network: NetworkModel,
    /// Units (with their duration models) and pilots.
    ledger: Ledger<Dist, SimPilot>,
    /// A `BindPass` event is already queued for the current instant.
    sched_dirty: bool,
    job_owner: HashMap<(usize, JobId), PilotId>,
    next_job: u64,
    policy: Option<ScaleOutPolicy>,
    policy_extra_submitted: u32,
}

impl SystemMachine {
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
        let t = now.as_secs_f64();
        let job = match o {
            SagaOut::Queued { .. } => return,
            SagaOut::CapacityUp { job, .. }
            | SagaOut::CapacityDown { job, .. }
            | SagaOut::Done { job, .. } => job,
        };
        let Some(&pid) = self.job_owner.get(&(site, job)) else {
            return;
        };
        match o {
            SagaOut::CapacityUp { total, .. } => {
                if self.ledger.capacity_up(pid, total, t) {
                    if let Some(ttf) = self.ledger.crash_after_s(pid) {
                        out.after(SimDuration::from_secs_f64(ttf), Ev::PilotCrash(pid));
                    }
                }
                self.schedule(out);
            }
            SagaOut::CapacityDown { total, .. } => {
                // The units it rebinds may fit elsewhere right now.
                self.ledger.capacity_down(pid, total, t);
                self.schedule(out);
            }
            SagaOut::Done { outcome, .. } => {
                let state = match outcome {
                    JobOutcome::Completed | JobOutcome::WalltimeExceeded => PilotState::Done,
                    JobOutcome::Canceled => PilotState::Canceled,
                    JobOutcome::Failed | JobOutcome::Rejected => PilotState::Failed,
                };
                if self.ledger.end_pilot(pid, state, t) {
                    self.schedule(out);
                }
            }
            SagaOut::Queued { .. } => {}
        }
    }

    /// After a failed attempt: arm the granted retry's backoff, then a pass
    /// (the cores it held are free either way).
    fn arm_retry(&mut self, uid: UnitId, retry: Option<Retry>, out: &mut Outbox<Ev>) {
        if let Some(r) = retry {
            out.after(
                SimDuration::from_secs_f64(r.after_s),
                Ev::RetryRelease(uid, r.gen),
            );
        }
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

    /// One late-binding pass; each bound unit passes through `Assigned` and
    /// starts staging at the same instant. Stage-in transfers every
    /// non-local input from its first replica site, one after the other
    /// (conservative; parallel staging would take the max instead).
    fn bind_and_stage(&mut self, t: f64, out: &mut Outbox<Ev>) {
        let network = &self.network;
        self.ledger.bind_pass(t, |mut b| {
            b.stage();
            let (uid, u, dst) = (b.uid, &*b.unit, b.pilot.site);
            let mut staging = SimDuration::ZERO;
            for input in &u.desc.inputs {
                if !input.is_local_to(dst) {
                    let src = input.sites.first().copied().unwrap_or(dst);
                    staging += network.base_transfer_time(input.size_bytes, src, dst);
                }
            }
            // Transient stage-in fault: the transfer runs (and pays its
            // time) but fails at the end, charging one attempt.
            let fault_p = b.faults.staging_failure_p;
            let mut fault_rng =
                b.rng
                    .stream(streams::keyed(streams::STAGING_FAULT, uid.0, u.attempts));
            let ev = if fault_p > 0.0 && fault_rng.bool(fault_p) {
                Ev::StagingFail(uid, u.generation)
            } else {
                Ev::UnitStaged(uid, u.generation)
            };
            out.after(staging, ev);
        });
    }

    fn add_pilot(&mut self, pid: PilotId, site: SiteId, desc: PilotDescription) {
        let job = JobId(self.next_job);
        self.next_job += 1;
        self.job_owner.insert((usize::from(site.0), job), pid);
        let walltime_s = Some(desc.walltime.as_secs_f64());
        self.ledger
            .add_pilot(pid, site, 0, walltime_s, SimPilot { desc, job });
    }
}

impl Machine for SystemMachine {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, out: &mut Outbox<Ev>) {
        let t = now.as_secs_f64();
        match event {
            Ev::Saga { site, ev } => self.feed_adaptor(now, site, ev, out),
            Ev::SubmitPilot(pid) => {
                let Some(p) = self.ledger.pilots.get(&pid) else {
                    debug_assert!(false, "submit event for unknown pilot {pid}");
                    return;
                };
                let (site, job) = (usize::from(p.site.0), p.x.job);
                let desc = JobDescription::placeholder(p.x.desc.cores, p.x.desc.walltime);
                self.ledger.submit_pilot(pid, t);
                self.feed_adaptor(now, site, SagaIn::Submit { job, desc }, out);
            }
            Ev::SubmitUnit(uid) => {
                self.ledger.submit(uid, t);
                self.schedule(out);
            }
            Ev::CancelPilot(pid) => {
                let Some(p) = self.ledger.pilots.get(&pid) else {
                    return;
                };
                let (site, job) = (usize::from(p.site.0), p.x.job);
                self.feed_adaptor(now, site, SagaIn::Cancel(job), out);
            }
            Ev::UnitStaged(uid, gen) => {
                // Copies, so the started unit can stay borrowed: the run's
                // RNG only forks streams, and a copy forks the same ones.
                let (rng, faults) = (self.ledger.rng.clone(), self.ledger.faults);
                let Some(u) = self.ledger.start(uid, gen, t) else {
                    return;
                };
                // Sample duration deterministically per (unit, attempt).
                let mut dur_rng = rng.stream(uid.0 ^ (u.attempts as u64) << 48);
                let dur = u.x.sample(&mut dur_rng).max(0.0);
                // The attempt's outcome is decided up front: the earliest of
                // injected kernel fault, deadline expiry, and normal finish.
                let fault_at = faults
                    .unit_fault(&rng, uid, u.attempts)
                    .map(|mut r| dur * r.f64());
                let deadline_at = u.desc.deadline_s.filter(|d| *d < dur);
                let (after, ev) = match (fault_at, deadline_at) {
                    (Some(f), d) if d.is_none_or(|d| f <= d) => {
                        (f, Ev::UnitFail(uid, gen, FailKind::Fault))
                    }
                    (_, Some(d)) => (d, Ev::UnitFail(uid, gen, FailKind::Deadline)),
                    _ => (dur, Ev::UnitFinish(uid, gen)),
                };
                out.after(SimDuration::from_secs_f64(after), ev);
            }
            Ev::UnitFinish(uid, gen) => {
                if self.ledger.finish(uid, gen, UnitState::Done, t) {
                    self.schedule(out);
                }
            }
            Ev::UnitFail(uid, gen, kind) => {
                if !self.ledger.is_current(uid, gen, UnitState::Running) {
                    return;
                }
                match kind {
                    FailKind::Fault => self.ledger.rel.injected_unit_faults += 1,
                    FailKind::Deadline => self.ledger.rel.deadline_expirations += 1,
                }
                let retry = self.ledger.fail_attempt(uid, t);
                self.arm_retry(uid, retry, out);
            }
            Ev::StagingFail(uid, gen) => {
                if self.ledger.is_current(uid, gen, UnitState::Staging) {
                    self.ledger.rel.injected_staging_faults += 1;
                    let retry = self.ledger.fail_attempt(uid, t);
                    self.arm_retry(uid, retry, out);
                }
            }
            Ev::RetryRelease(uid, gen) => {
                if self.ledger.release(uid, gen, t) {
                    self.schedule(out);
                }
            }
            Ev::PilotCrash(pid) => {
                if !self.ledger.crash(pid, t) {
                    return;
                }
                // Release the placeholder job on the infrastructure.
                if let Some(p) = self.ledger.pilots.get(&pid) {
                    let (site, job) = (usize::from(p.site.0), p.x.job);
                    self.feed_adaptor(now, site, SagaIn::Cancel(job), out);
                }
                for (uid, retry) in self.ledger.sweep(pid, t) {
                    self.arm_retry(uid, retry, out);
                }
                self.schedule(out);
            }
            Ev::BindPass => {
                self.sched_dirty = false;
                self.bind_and_stage(t, out);
            }
            Ev::PolicyTick => {
                let Some(policy) = self.policy.clone() else {
                    return;
                };
                if self.ledger.backlog() > policy.queue_threshold
                    && self.policy_extra_submitted < policy.max_extra
                {
                    self.policy_extra_submitted += 1;
                    let pid = PilotId(u64::MAX - u64::from(self.policy_extra_submitted));
                    self.add_pilot(pid, policy.burst_site, policy.pilot);
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
            network: NetworkModel::new(&[]),
            ledger: Ledger::new(
                Box::new(crate::scheduler::FirstFitScheduler),
                SimRng::new(seed),
                FaultPlan::none(),
            ),
            sched_dirty: false,
            job_owner: HashMap::new(),
            next_job: 1,
            policy: None,
            policy_extra_submitted: 0,
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
        self.exec.machine_mut().ledger.scheduler = scheduler;
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
        self.exec.machine_mut().ledger.events = Events(None);
    }

    /// Install a deterministic fault-injection plan. All fault draws come
    /// from RNG streams derived from the run seed, so replays are
    /// byte-identical.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.exec.machine_mut().ledger.set_faults(plan);
    }

    /// Submit a pilot at virtual time `at`.
    pub fn submit_pilot(&mut self, at: SimTime, site: SiteId, desc: PilotDescription) -> PilotId {
        let pid = self.ids.pilot();
        let m = self.exec.machine_mut();
        assert!((site.0 as usize) < m.adaptors.len(), "unknown site {site}");
        m.add_pilot(pid, site, desc);
        self.exec.schedule_at(at, Ev::SubmitPilot(pid));
        pid
    }

    /// Submit a unit at virtual time `at` with a sampled duration model.
    pub fn submit_unit(&mut self, at: SimTime, desc: UnitDescription, duration: Dist) -> UnitId {
        let uid = self.ids.unit();
        self.exec.machine_mut().ledger.add_unit(uid, desc, duration);
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
        let l = self.exec.into_machine().ledger;
        let mut units: Vec<UnitRecord> = l
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
        let mut pilots: Vec<SimPilotRecord> = l
            .pilots
            .iter()
            .map(|(&pilot, p)| SimPilotRecord {
                pilot,
                site: p.site,
                label: p.x.desc.label.clone(),
                state: p.state,
                times: p.times,
            })
            .collect();
        pilots.sort_by_key(|p| p.pilot.0);
        SimReport {
            units,
            pilots,
            events: l.events.0.unwrap_or_default(),
            end_time,
            reliability: l.rel,
            bind: l.bind,
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
