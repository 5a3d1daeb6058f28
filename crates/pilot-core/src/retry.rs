//! Reliability primitives shared by both execution backends.
//!
//! Data-intensive workloads run long enough that failure is the common case,
//! not the exception: pilots are preempted or crash mid-walltime, kernels hit
//! transient errors, stage-in flakes. The pilot abstraction absorbs these
//! below the application API — a failed attempt re-enters the late-binding
//! queue (`Failed → Pending`) and the scheduler rebinds it onto a healthy
//! pilot, with backoff between attempts and blacklisting of repeat offenders.
//!
//! Everything here is pure data + deterministic arithmetic so both the
//! threaded and the simulated backend share identical semantics:
//!
//! - [`RetryPolicy`] / [`Backoff`] — per-unit retry budget and delay schedule
//!   (seeded jitter through [`SimRng`], so replays are bit-identical).
//! - [`FaultPlan`] — deterministic fault injection knobs (pilot crash MTBF,
//!   kernel failure probability, transient stage-in failures).
//! - [`FailureTracker`] — consecutive-failure streaks per pilot, driving
//!   blacklist decisions.
//! - [`ReliabilityStats`] — attempts, requeues, wasted work, recovery times,
//!   exported into Mini-App reports by both backends.

// lint: deterministic — this module must stay replayable: no wall-clock reads

use crate::ids::{PilotId, UnitId};
use pilot_sim::SimRng;
use std::collections::{HashMap, HashSet};

/// Delay schedule between retry attempts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Backoff {
    /// The same delay before every retry.
    Fixed {
        /// Delay in seconds.
        delay_s: f64,
    },
    /// Geometric growth: `base_s * factor^(failures-1)`, clamped to `cap_s`.
    Exponential {
        /// Delay before the first retry, seconds.
        base_s: f64,
        /// Growth factor per failure (clamped ≥ 1).
        factor: f64,
        /// Upper bound on the delay, seconds.
        cap_s: f64,
    },
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::Fixed { delay_s: 0.0 }
    }
}

/// Per-unit retry budget and backoff, attached to a `UnitDescription`.
///
/// `max_attempts` counts *total* attempts including the first, so the default
/// of 1 means fail-fast (no retry), matching the pre-reliability behavior.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total execution attempts allowed (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
    /// Multiplicative jitter fraction in `[0, 1]`: the delay is scaled by a
    /// uniform draw from `[1, 1 + jitter)`. Zero disables jitter.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// Fail-fast: one attempt, no retry.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Backoff::default(),
            jitter: 0.0,
        }
    }

    /// Retry with a fixed delay between attempts.
    #[must_use]
    pub fn fixed(max_attempts: u32, delay_s: f64) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: Backoff::Fixed {
                delay_s: delay_s.max(0.0),
            },
            jitter: 0.0,
        }
    }

    /// Retry with exponential backoff capped at `cap_s`.
    #[must_use]
    pub fn exponential(max_attempts: u32, base_s: f64, factor: f64, cap_s: f64) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: Backoff::Exponential {
                base_s: base_s.max(0.0),
                factor: factor.max(1.0),
                cap_s: cap_s.max(0.0),
            },
            jitter: 0.0,
        }
    }

    /// Enable jitter (fraction clamped to `[0, 1]`).
    #[must_use]
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// Whether another attempt may be made after `attempts_done` attempts
    /// have already failed.
    pub fn allows_retry(&self, attempts_done: u32) -> bool {
        attempts_done < self.max_attempts
    }

    /// Jitter-free delay before the retry following the `failures`-th failure
    /// (1-based). The schedule is monotonically non-decreasing in `failures`
    /// and bounded by the cap for exponential backoff.
    pub fn base_delay_s(&self, failures: u32) -> f64 {
        let failures = failures.max(1);
        match self.backoff {
            Backoff::Fixed { delay_s } => delay_s.max(0.0),
            Backoff::Exponential {
                base_s,
                factor,
                cap_s,
            } => {
                let base_s = base_s.max(0.0);
                let factor = factor.max(1.0);
                let mut d = base_s;
                // Iterative growth with early cap-out: avoids powf overflow
                // for large failure counts and keeps the result exact for
                // small ones.
                for _ in 1..failures {
                    if d >= cap_s {
                        break;
                    }
                    d *= factor;
                }
                d.min(cap_s)
            }
        }
    }

    /// Delay with seeded jitter applied. Deterministic given the RNG state:
    /// replaying the same seed reproduces the same schedule.
    pub fn delay_s(&self, failures: u32, rng: &mut SimRng) -> f64 {
        let base = self.base_delay_s(failures);
        if self.jitter <= 0.0 {
            return base;
        }
        base * (1.0 + self.jitter * rng.f64())
    }

    /// The one retry decision: after `attempts` failed attempts of `unit`,
    /// the backoff before the next one, or `None` once the budget is spent.
    /// Jitter comes from the run's `rng`, forked per unit and attempt on the
    /// [`streams::BACKOFF_JITTER`] stream, so replays draw the same delays.
    pub fn retry_after_s(&self, attempts: u32, rng: &SimRng, unit: UnitId) -> Option<f64> {
        if !self.allows_retry(attempts) {
            return None;
        }
        let mut jitter = rng.stream(streams::keyed(streams::BACKOFF_JITTER, unit.0, attempts));
        Some(self.delay_s(attempts, &mut jitter))
    }
}

/// Deterministic fault-injection plan, applied by a backend to every pilot
/// and unit it manages. All draws come from RNG streams derived from the
/// run seed, so a replay with the same seed injects the same faults at the
/// same points.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Mean time between pilot crashes, seconds (exponentially distributed
    /// per pilot activation). `None` disables pilot crashes.
    pub pilot_crash_mtbf_s: Option<f64>,
    /// Probability that a given execution attempt fails partway through.
    pub unit_failure_p: f64,
    /// Probability that a given stage-in attempt fails transiently.
    pub staging_failure_p: f64,
    /// Blacklist a pilot after this many *consecutive* unit failures on it.
    /// `None` disables blacklisting.
    pub blacklist_after: Option<u32>,
    /// Mean time between broker-node kills, seconds (exponentially
    /// distributed per node, drawn from the [`streams::BROKER_KILL`]
    /// stream). `None` disables data-plane node kills. Consumed by the
    /// replicated-broker layer: the kill schedule is derived once from the
    /// run seed, so replays kill the same nodes at the same times.
    pub broker_node_mtbf_s: Option<f64>,
    /// Mean time between host-daemon (manager) kills, seconds
    /// (exponentially distributed per daemon, drawn from the
    /// [`streams::DAEMON_KILL`] stream). `None` disables control-plane
    /// daemon kills. Consumed by the fabric: the kill schedule is derived
    /// once from the run seed, so replays kill the same daemons at the same
    /// logical times — the manager-crash analog of broker-node kills.
    pub host_daemon_mtbf_s: Option<f64>,
}

impl FaultPlan {
    /// No injected faults (the default).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Crash pilots with the given mean time between failures (seconds).
    #[must_use]
    pub fn with_pilot_crashes(mut self, mtbf_s: f64) -> Self {
        self.pilot_crash_mtbf_s = (mtbf_s > 0.0).then_some(mtbf_s);
        self
    }

    /// Fail execution attempts with probability `p`.
    #[must_use]
    pub fn with_unit_failures(mut self, p: f64) -> Self {
        self.unit_failure_p = p.clamp(0.0, 1.0);
        self
    }

    /// Fail stage-in attempts with probability `p`.
    #[must_use]
    pub fn with_staging_failures(mut self, p: f64) -> Self {
        self.staging_failure_p = p.clamp(0.0, 1.0);
        self
    }

    /// Blacklist pilots after `n` consecutive failures.
    #[must_use]
    pub fn with_blacklist(mut self, n: u32) -> Self {
        self.blacklist_after = (n > 0).then_some(n);
        self
    }

    /// Kill broker nodes with the given mean time between kills (seconds).
    #[must_use]
    pub fn with_broker_node_kills(mut self, mtbf_s: f64) -> Self {
        self.broker_node_mtbf_s = (mtbf_s > 0.0).then_some(mtbf_s);
        self
    }

    /// Kill host daemons with the given mean time between kills (seconds).
    #[must_use]
    pub fn with_daemon_kills(mut self, mtbf_s: f64) -> Self {
        self.host_daemon_mtbf_s = (mtbf_s > 0.0).then_some(mtbf_s);
        self
    }

    /// The verdict on attempt `attempt` of `unit`: when the plan dooms it
    /// to a kernel fault, its keyed stream, positioned after the draw.
    pub(crate) fn unit_fault(&self, rng: &SimRng, unit: UnitId, attempt: u32) -> Option<SimRng> {
        let p = self.unit_failure_p;
        let mut draw = rng.stream(streams::keyed(streams::UNIT_FAULT, unit.0, attempt));
        (p > 0.0 && draw.bool(p)).then_some(draw)
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.pilot_crash_mtbf_s.is_some()
            || self.unit_failure_p > 0.0
            || self.staging_failure_p > 0.0
            || self.broker_node_mtbf_s.is_some()
            || self.host_daemon_mtbf_s.is_some()
    }
}

/// RNG stream ids reserved by the reliability layer, so both backends draw
/// fault decisions from the same namespaces and never collide with workload
/// streams (which key off raw unit ids).
pub mod streams {
    /// Stream for pilot crash times; xor with the pilot id.
    pub const PILOT_CRASH: u64 = 0x5256_0000_0000_0001;
    /// Stream for per-attempt kernel fault draws; xor with unit id/attempt.
    pub const UNIT_FAULT: u64 = 0x5256_0000_0000_0002;
    /// Stream for per-attempt stage-in fault draws.
    pub const STAGING_FAULT: u64 = 0x5256_0000_0000_0003;
    /// Stream for backoff jitter draws.
    pub const BACKOFF_JITTER: u64 = 0x5256_0000_0000_0004;
    /// Stream for broker-node kill times; xor with the node index.
    pub const BROKER_KILL: u64 = 0x5256_0000_0000_0005;
    /// Stream for host-daemon kill times; xor with the daemon index.
    pub const DAEMON_KILL: u64 = 0x5256_0000_0000_0006;
    /// Stream for random-scheduler placement picks; xor with the unit id.
    pub const SCHED_PICK: u64 = 0x5256_0000_0000_0007;

    /// Derive the per-entity, per-attempt sub-id mixed into a stream.
    pub fn keyed(stream: u64, entity: u64, attempt: u32) -> u64 {
        stream ^ entity.rotate_left(16) ^ ((attempt as u64) << 48)
    }
}

/// Tracks consecutive unit failures per pilot and decides blacklisting.
///
/// A success on a pilot resets its streak; once the streak reaches the
/// threshold, the pilot is blacklisted and the scheduler stops offering it
/// capacity (its snapshot is filtered out).
#[derive(Clone, Debug, Default)]
pub struct FailureTracker {
    threshold: Option<u32>,
    streaks: HashMap<PilotId, u32>,
    blacklisted: HashSet<PilotId>,
}

impl FailureTracker {
    /// A tracker blacklisting after `threshold` consecutive failures
    /// (`None` disables blacklisting; failures are still counted).
    pub fn new(threshold: Option<u32>) -> Self {
        FailureTracker {
            threshold,
            streaks: HashMap::new(),
            blacklisted: HashSet::new(),
        }
    }

    /// Record a unit failure attributed to `pilot`. Returns `true` when this
    /// failure newly blacklists the pilot.
    pub fn record_failure(&mut self, pilot: PilotId) -> bool {
        let streak = self.streaks.entry(pilot).or_insert(0);
        *streak += 1;
        match self.threshold {
            Some(t) if *streak >= t && !self.blacklisted.contains(&pilot) => {
                self.blacklisted.insert(pilot);
                true
            }
            _ => false,
        }
    }

    /// Record a unit success on `pilot`, resetting its streak.
    pub fn record_success(&mut self, pilot: PilotId) {
        self.streaks.insert(pilot, 0);
    }

    /// Whether `pilot` is blacklisted.
    pub fn is_blacklisted(&self, pilot: PilotId) -> bool {
        self.blacklisted.contains(&pilot)
    }

    /// Number of blacklisted pilots.
    pub fn blacklisted_count(&self) -> u64 {
        self.blacklisted.len() as u64
    }

    /// Current failure streak for `pilot`.
    pub fn streak(&self, pilot: PilotId) -> u32 {
        self.streaks.get(&pilot).copied().unwrap_or(0)
    }
}

/// Reliability counters collected over one run, identical across backends.
#[derive(Clone, Debug, Default, PartialEq)]
#[must_use]
pub struct ReliabilityStats {
    /// Execution attempts started (first tries + retries).
    pub attempts: u64,
    /// `Failed → Pending` requeues (retries granted by a policy).
    pub requeues: u64,
    /// `Assigned/Staging → Pending` rebinds after a pilot was lost before
    /// the unit started (no work lost, not charged against the retry budget).
    pub rebinds: u64,
    /// Kernel faults injected by the fault plan.
    pub injected_unit_faults: u64,
    /// Stage-in faults injected by the fault plan.
    pub injected_staging_faults: u64,
    /// Pilot crashes injected by the fault plan.
    pub pilot_crashes: u64,
    /// Units that failed terminally after exhausting their retry budget.
    pub exhausted_units: u64,
    /// Units that missed their deadline (each expiry counted once).
    pub deadline_expirations: u64,
    /// Pilots blacklisted for repeated failures.
    pub blacklisted_pilots: u64,
    /// Execution seconds spent on attempts that did not complete.
    pub wasted_work_s: f64,
    /// Total failure → next-bind recovery time, seconds.
    pub recovery_s: f64,
    /// Number of completed recoveries (failure followed by a rebind).
    pub recoveries: u64,
    /// Broker nodes killed by the fault plan (data plane).
    pub broker_node_kills: u64,
    /// Partition leaderships promoted to a follower after a node kill.
    pub leader_failovers: u64,
    /// Appends rejected because they carried a stale leadership epoch.
    pub fenced_appends: u64,
}

impl ReliabilityStats {
    /// Mean time-to-recovery over completed recoveries, seconds.
    pub fn mean_recovery_s(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_s / self.recoveries as f64
        }
    }

    /// Flatten into `(name, value)` metric pairs for Mini-App report rows.
    pub fn as_metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("attempts".into(), self.attempts as f64),
            ("requeues".into(), self.requeues as f64),
            ("rebinds".into(), self.rebinds as f64),
            (
                "injected_unit_faults".into(),
                self.injected_unit_faults as f64,
            ),
            (
                "injected_staging_faults".into(),
                self.injected_staging_faults as f64,
            ),
            ("pilot_crashes".into(), self.pilot_crashes as f64),
            ("exhausted_units".into(), self.exhausted_units as f64),
            (
                "deadline_expirations".into(),
                self.deadline_expirations as f64,
            ),
            ("blacklisted_pilots".into(), self.blacklisted_pilots as f64),
            ("wasted_work_s".into(), self.wasted_work_s),
            ("mean_recovery_s".into(), self.mean_recovery_s()),
            ("broker_node_kills".into(), self.broker_node_kills as f64),
            ("leader_failovers".into(), self.leader_failovers as f64),
            ("fenced_appends".into(), self.fenced_appends as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_fail_fast() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert!(!p.allows_retry(1));
        assert_eq!(p.base_delay_s(1), 0.0);
    }

    #[test]
    fn fixed_backoff_is_constant() {
        let p = RetryPolicy::fixed(4, 2.5);
        assert!(p.allows_retry(3));
        assert!(!p.allows_retry(4));
        for f in 1..10 {
            assert_eq!(p.base_delay_s(f), 2.5);
        }
    }

    #[test]
    fn exponential_backoff_grows_and_caps() {
        let p = RetryPolicy::exponential(8, 1.0, 2.0, 10.0);
        assert_eq!(p.base_delay_s(1), 1.0);
        assert_eq!(p.base_delay_s(2), 2.0);
        assert_eq!(p.base_delay_s(3), 4.0);
        assert_eq!(p.base_delay_s(4), 8.0);
        assert_eq!(p.base_delay_s(5), 10.0);
        assert_eq!(p.base_delay_s(64), 10.0, "large counts stay capped");
    }

    #[test]
    fn jittered_delay_is_deterministic_per_seed() {
        let p = RetryPolicy::exponential(5, 1.0, 2.0, 60.0).with_jitter(0.5);
        let mut a = SimRng::new(99).stream(streams::BACKOFF_JITTER);
        let mut b = SimRng::new(99).stream(streams::BACKOFF_JITTER);
        for f in 1..5 {
            let da = p.delay_s(f, &mut a);
            let db = p.delay_s(f, &mut b);
            assert_eq!(da, db);
            let base = p.base_delay_s(f);
            assert!(
                da >= base && da < base * 1.5 + 1e-9,
                "delay {da} base {base}"
            );
        }
    }

    #[test]
    fn fault_plan_builders_clamp() {
        let f = FaultPlan::none()
            .with_unit_failures(2.0)
            .with_staging_failures(-1.0)
            .with_pilot_crashes(0.0)
            .with_blacklist(0)
            .with_broker_node_kills(0.0)
            .with_daemon_kills(-5.0);
        assert_eq!(f.unit_failure_p, 1.0);
        assert_eq!(f.staging_failure_p, 0.0);
        assert_eq!(f.pilot_crash_mtbf_s, None);
        assert_eq!(f.blacklist_after, None);
        assert_eq!(f.broker_node_mtbf_s, None);
        assert_eq!(f.host_daemon_mtbf_s, None);
        assert!(f.is_active());
        assert!(!FaultPlan::none().is_active());
        // Broker-node kills alone make a plan active (data-plane faults).
        let k = FaultPlan::none().with_broker_node_kills(30.0);
        assert_eq!(k.broker_node_mtbf_s, Some(30.0));
        assert!(k.is_active());
        // Daemon kills alone make a plan active (control-plane faults).
        let d = FaultPlan::none().with_daemon_kills(45.0);
        assert_eq!(d.host_daemon_mtbf_s, Some(45.0));
        assert!(d.is_active());
    }

    #[test]
    fn failure_tracker_blacklists_on_streak() {
        let mut t = FailureTracker::new(Some(3));
        let p = PilotId(7);
        assert!(!t.record_failure(p));
        assert!(!t.record_failure(p));
        t.record_success(p); // resets the streak
        assert!(!t.record_failure(p));
        assert!(!t.record_failure(p));
        assert!(t.record_failure(p), "third consecutive failure blacklists");
        assert!(t.is_blacklisted(p));
        assert!(!t.record_failure(p), "already blacklisted, not 'newly'");
        assert_eq!(t.blacklisted_count(), 1);
    }

    #[test]
    fn failure_tracker_disabled_never_blacklists() {
        let mut t = FailureTracker::new(None);
        for _ in 0..100 {
            assert!(!t.record_failure(PilotId(1)));
        }
        assert!(!t.is_blacklisted(PilotId(1)));
        assert_eq!(t.streak(PilotId(1)), 100);
    }

    #[test]
    fn stats_metrics_cover_all_counters() {
        let s = ReliabilityStats {
            attempts: 5,
            requeues: 2,
            recovery_s: 6.0,
            recoveries: 2,
            ..Default::default()
        };
        let m = s.as_metrics();
        assert!(m.iter().any(|(k, v)| k == "attempts" && *v == 5.0));
        assert!(m.iter().any(|(k, v)| k == "mean_recovery_s" && *v == 3.0));
    }
}
