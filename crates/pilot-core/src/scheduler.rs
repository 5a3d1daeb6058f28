//! Late-binding schedulers: decide which pilot a pending compute unit binds
//! to, given a snapshot of current pilot capacity.
//!
//! Schedulers are pure decision functions over snapshots, shared by both
//! execution backends — the ablation experiment (EXP AB-1) swaps them while
//! holding everything else fixed. A scheduler returning `None` leaves the
//! unit pending; the manager retries on every capacity change.

// lint: deterministic — this module must stay replayable: no wall-clock reads

use crate::describe::UnitDescription;
use crate::ids::{PilotId, UnitId};
use crate::retry::streams;
use pilot_infra::types::SiteId;
use pilot_sim::SimRng;
use std::collections::{HashMap, HashSet};

/// Point-in-time view of one pilot, as the unit manager sees it.
#[derive(Clone, Debug)]
pub struct PilotSnapshot {
    /// Which pilot.
    pub pilot: PilotId,
    /// Site the pilot's resources live on.
    pub site: SiteId,
    /// Cores the pilot currently holds.
    pub total_cores: u32,
    /// Cores not reserved by running/assigned units.
    pub free_cores: u32,
    /// Units currently bound (assigned/staging/running) to this pilot.
    pub bound_units: usize,
    /// Seconds of walltime remaining before the pilot expires.
    pub remaining_walltime_s: f64,
}

impl PilotSnapshot {
    fn fits(&self, cores: u32) -> bool {
        self.free_cores >= cores
    }
}

/// A unit asking to be bound.
#[derive(Clone, Debug)]
pub struct UnitRequest<'a> {
    /// Which unit.
    pub unit: UnitId,
    /// Its description (cores, inputs, estimate, priority).
    pub desc: &'a UnitDescription,
}

/// Late-binding placement policy.
pub trait Scheduler: Send {
    /// Pick a pilot for `unit`, or `None` to keep it pending.
    ///
    /// `pilots` contains only *active* pilots; the scheduler must return one
    /// with enough free cores (the manager asserts this).
    ///
    /// `select` is called only for a unit that fits on at least one
    /// snapshot: a pass in which it fits nowhere is not a scheduling
    /// opportunity, and the binding pass does not offer it (see
    /// [`crate::binding::queue_pass`]). A policy that counts refusals — a
    /// wait budget, an aging rule — therefore counts passes in which it
    /// *chose* to wait, never passes in which nothing had room.
    fn select(&mut self, unit: &UnitRequest<'_>, pilots: &[PilotSnapshot]) -> Option<PilotId>;

    /// Called once at the start of every binding pass, before any `select`.
    /// Stateful policies that count *passes* (not calls — the reference
    /// per-unit pass re-offers refused units within one pass) hook this;
    /// the default is a no-op.
    fn begin_pass(&mut self) {}

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Bind to the first active pilot with room (stable order ⇒ packs early
/// pilots first). The baseline policy.
#[derive(Default, Debug, Clone)]
pub struct FirstFitScheduler;

impl Scheduler for FirstFitScheduler {
    fn select(&mut self, unit: &UnitRequest<'_>, pilots: &[PilotSnapshot]) -> Option<PilotId> {
        pilots
            .iter()
            .find(|p| p.fits(unit.desc.cores))
            .map(|p| p.pilot)
    }
    fn name(&self) -> &'static str {
        "first-fit"
    }
}

/// Rotate across pilots with room, ignoring load (spreads units evenly by
/// count, not by size).
///
/// The rotation anchor is the *identity* of the last-chosen pilot, not an
/// index into the pilot slice: slice membership changes between calls (pilots
/// join, die, get blacklisted), and a stored index would silently point at a
/// different pilot after churn, skewing the rotation.
#[derive(Default, Debug, Clone)]
pub struct RoundRobinScheduler {
    last: Option<PilotId>,
}

impl Scheduler for RoundRobinScheduler {
    fn select(&mut self, unit: &UnitRequest<'_>, pilots: &[PilotSnapshot]) -> Option<PilotId> {
        if pilots.is_empty() {
            return None;
        }
        let n = pilots.len();
        let start = match self.last {
            None => 0,
            Some(last) => match pilots.iter().position(|p| p.pilot == last) {
                Some(i) => (i + 1) % n,
                // The anchor left the set: resume at the pilot with the next
                // id above it (wrapping to the smallest) so the rotation
                // continues instead of restarting.
                None => pilots
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.pilot.0 > last.0)
                    .min_by_key(|(_, p)| p.pilot.0)
                    .or_else(|| pilots.iter().enumerate().min_by_key(|(_, p)| p.pilot.0))
                    .map(|(i, _)| i)
                    .unwrap_or(0),
            },
        };
        for i in 0..n {
            let p = &pilots[(start + i) % n];
            if p.fits(unit.desc.cores) {
                self.last = Some(p.pilot);
                return Some(p.pilot);
            }
        }
        None
    }
    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Bind to the pilot with the most free cores (least-loaded), tie-broken by
/// fewer bound units.
#[derive(Default, Debug, Clone)]
pub struct LoadBalanceScheduler;

impl Scheduler for LoadBalanceScheduler {
    fn select(&mut self, unit: &UnitRequest<'_>, pilots: &[PilotSnapshot]) -> Option<PilotId> {
        pilots
            .iter()
            .filter(|p| p.fits(unit.desc.cores))
            .max_by(|a, b| {
                (a.free_cores, std::cmp::Reverse(a.bound_units))
                    .cmp(&(b.free_cores, std::cmp::Reverse(b.bound_units)))
            })
            .map(|p| p.pilot)
    }
    fn name(&self) -> &'static str {
        "load-balance"
    }
}

/// Prefer the pilot whose site already holds the most input bytes; transfer
/// cost dominates short tasks, so locality beats load for data-intensive
/// workloads (EXP PD-1).
///
/// Implements *delay scheduling*: when some pilot's site holds (part of) the
/// unit's inputs but every such pilot is currently full, the unit stays
/// pending rather than being staged to a remote site — the local slot it is
/// waiting for frees up within one task duration. Units whose data is at no
/// pilot's site fall back to the least-loaded feasible pilot.
///
/// The wait is *bounded*: a unit refused `max_wait_passes` consecutive
/// binding passes stops insisting on locality and falls back to the
/// least-loaded feasible pilot. Without the bound, a unit whose only
/// data-local pilot is permanently full (or stuck pending) starves forever —
/// exactly the regime pilot churn and fault injection produce.
///
/// The budget is spent only on passes in which the unit *could* have gone
/// remote and waited instead (the [`Scheduler::select`] contract: a unit
/// that fits nowhere is not offered). Under a saturated burst — one pass per
/// completion, every pilot full — the budget therefore survives until a
/// core actually frees up, and delay scheduling keeps working under load
/// instead of switching itself off after `max_wait_passes` completions
/// anywhere.
#[derive(Debug, Clone)]
pub struct DataAwareScheduler {
    /// Passes a unit declines a remote pilot with room, waiting for a local
    /// slot, before it goes remote. Passes in which the unit fits on no pilot
    /// at all are not offered to `select` and do not count.
    pub max_wait_passes: u32,
    /// Refused-pass count per still-waiting unit (cleared on bind).
    deferrals: HashMap<UnitId, u32>,
    /// Units already charged a deferral in the current pass: the reference
    /// per-unit pass re-offers refused units within one pass, and those
    /// re-offers must not burn extra wait budget.
    deferred_this_pass: HashSet<UnitId>,
}

impl Default for DataAwareScheduler {
    fn default() -> Self {
        DataAwareScheduler {
            max_wait_passes: 16,
            deferrals: HashMap::new(),
            deferred_this_pass: HashSet::new(),
        }
    }
}

impl DataAwareScheduler {
    /// Delay scheduling bounded at `max_wait_passes` refused passes.
    pub fn with_max_wait(max_wait_passes: u32) -> Self {
        DataAwareScheduler {
            max_wait_passes,
            ..Default::default()
        }
    }
}

impl Scheduler for DataAwareScheduler {
    fn select(&mut self, unit: &UnitRequest<'_>, pilots: &[PilotSnapshot]) -> Option<PilotId> {
        let total = unit.desc.input_bytes();
        if total > 0 {
            let local_bytes = |p: &PilotSnapshot| total - unit.desc.remote_bytes(p.site);
            // Refusals already charged this pass don't count against the
            // budget a second time within the same pass.
            let charged = u32::from(self.deferred_this_pass.contains(&unit.unit));
            let waited = self
                .deferrals
                .get(&unit.unit)
                .copied()
                .unwrap_or(0)
                .saturating_sub(charged);
            // Does *any* active pilot (even a full one) sit at the data —
            // and is this unit still within its wait budget?
            if waited < self.max_wait_passes && pilots.iter().any(|p| local_bytes(p) > 0) {
                // Then bind only to a local pilot with room — or wait.
                let choice = pilots
                    .iter()
                    .filter(|p| p.fits(unit.desc.cores) && local_bytes(p) > 0)
                    .max_by_key(|p| (local_bytes(p), p.free_cores as u64))
                    .map(|p| p.pilot);
                if choice.is_some() {
                    self.deferrals.remove(&unit.unit);
                    self.deferred_this_pass.remove(&unit.unit);
                } else if self.deferred_this_pass.insert(unit.unit) {
                    *self.deferrals.entry(unit.unit).or_insert(0) += 1;
                }
                return choice;
            }
        }
        // No data, data lives nowhere near any pilot, or the unit exhausted
        // its wait budget: balance load.
        let choice = pilots
            .iter()
            .filter(|p| p.fits(unit.desc.cores))
            .max_by_key(|p| p.free_cores)
            .map(|p| p.pilot);
        if choice.is_some() {
            self.deferrals.remove(&unit.unit);
            self.deferred_this_pass.remove(&unit.unit);
        }
        choice
    }
    fn begin_pass(&mut self) {
        self.deferred_this_pass.clear();
    }
    fn name(&self) -> &'static str {
        "data-aware"
    }
}

/// Walltime-aware binding: only bind a unit to a pilot whose remaining
/// walltime covers the unit's estimated duration (with a safety factor), so
/// work is never started that the pilot cannot finish.
///
/// Units *with* an estimate prefer the feasible pilot closest to expiry
/// (classic backfill: use up ending resources first). Units *without* an
/// estimate bind to the pilot with the **most** remaining walltime — parking
/// unknown-length work on an expiring pilot routinely gets it killed at pilot
/// walltime and requeued as wasted work.
#[derive(Debug, Clone)]
pub struct BackfillScheduler {
    /// Multiplier on the estimate when checking remaining walltime.
    pub safety_factor: f64,
}

impl Default for BackfillScheduler {
    fn default() -> Self {
        BackfillScheduler { safety_factor: 1.2 }
    }
}

impl Scheduler for BackfillScheduler {
    fn select(&mut self, unit: &UnitRequest<'_>, pilots: &[PilotSnapshot]) -> Option<PilotId> {
        let needed = unit.desc.est_duration_s.map(|d| d * self.safety_factor);
        let feasible = pilots.iter().filter(|p| p.fits(unit.desc.cores));
        let by_walltime = |a: &&PilotSnapshot, b: &&PilotSnapshot| {
            a.remaining_walltime_s.total_cmp(&b.remaining_walltime_s)
        };
        match needed {
            // Covered estimate: backfill the pilot closest to expiry.
            Some(n) => feasible
                .filter(|p| p.remaining_walltime_s >= n)
                .min_by(by_walltime),
            // No estimate: maximize headroom instead of risking a
            // walltime kill.
            None => feasible.max_by(by_walltime),
        }
        .map(|p| p.pilot)
    }
    fn name(&self) -> &'static str {
        "backfill"
    }
}

/// Uniformly random feasible pilot — the control arm for scheduler ablations.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: SimRng,
}

impl RandomScheduler {
    /// Seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SimRng::new(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn select(&mut self, unit: &UnitRequest<'_>, pilots: &[PilotSnapshot]) -> Option<PilotId> {
        let feasible: Vec<&PilotSnapshot> =
            pilots.iter().filter(|p| p.fits(unit.desc.cores)).collect();
        if feasible.is_empty() {
            None
        } else {
            // Keyed off the unit so the pick survives offer reordering: a
            // draw on the root RNG would couple every placement to the
            // global draw order.
            let pick = self
                .rng
                .stream(streams::keyed(streams::SCHED_PICK, unit.unit.0, 0))
                .below_usize(feasible.len());
            Some(feasible[pick].pilot)
        }
    }
    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::DataLocation;

    fn snap(id: u64, site: u16, total: u32, free: u32, bound: usize, rem: f64) -> PilotSnapshot {
        PilotSnapshot {
            pilot: PilotId(id),
            site: SiteId(site),
            total_cores: total,
            free_cores: free,
            bound_units: bound,
            remaining_walltime_s: rem,
        }
    }

    fn req(desc: &UnitDescription) -> UnitRequest<'_> {
        UnitRequest {
            unit: UnitId(1),
            desc,
        }
    }

    #[test]
    fn first_fit_prefers_earlier_pilot() {
        let mut s = FirstFitScheduler;
        let pilots = [snap(1, 0, 8, 2, 1, 100.0), snap(2, 0, 8, 8, 0, 100.0)];
        let d = UnitDescription::new(2);
        assert_eq!(s.select(&req(&d), &pilots), Some(PilotId(1)));
        let d4 = UnitDescription::new(4);
        assert_eq!(s.select(&req(&d4), &pilots), Some(PilotId(2)));
        let d9 = UnitDescription::new(9);
        assert_eq!(s.select(&req(&d9), &pilots), None);
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = RoundRobinScheduler::default();
        let pilots = [
            snap(1, 0, 8, 8, 0, 100.0),
            snap(2, 0, 8, 8, 0, 100.0),
            snap(3, 0, 8, 8, 0, 100.0),
        ];
        let d = UnitDescription::new(1);
        let picks: Vec<_> = (0..6)
            .map(|_| s.select(&req(&d), &pilots).unwrap().0)
            .collect();
        assert_eq!(picks, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn round_robin_survives_pilot_churn() {
        // Regression: the old implementation kept a slice *index*, so when
        // membership changed between calls the cursor pointed at a different
        // pilot and the rotation repeated or skipped pilots.
        let mut s = RoundRobinScheduler::default();
        let d = UnitDescription::new(1);
        let all = [
            snap(1, 0, 8, 8, 0, 100.0),
            snap(2, 0, 8, 8, 0, 100.0),
            snap(3, 0, 8, 8, 0, 100.0),
        ];
        assert_eq!(s.select(&req(&d), &all), Some(PilotId(1)));
        assert_eq!(s.select(&req(&d), &all), Some(PilotId(2)));
        // Pilot 1 dies: rotation must continue at 3, not revisit 2 (the old
        // cursor=2 pointed past the end of the shrunken slice, wrapping to 2).
        let without_1 = [all[1].clone(), all[2].clone()];
        assert_eq!(s.select(&req(&d), &without_1), Some(PilotId(3)));
        // Last-chosen pilot 3 also dies: resume after its id → wrap to 2.
        let only_2 = [all[1].clone()];
        assert_eq!(s.select(&req(&d), &only_2), Some(PilotId(2)));
        // A new pilot joins mid-rotation: next in id order after 2 is 3... 4.
        let with_4 = [all[1].clone(), all[2].clone(), snap(4, 0, 8, 8, 0, 100.0)];
        assert_eq!(s.select(&req(&d), &with_4), Some(PilotId(3)));
        assert_eq!(s.select(&req(&d), &with_4), Some(PilotId(4)));
        assert_eq!(s.select(&req(&d), &with_4), Some(PilotId(2)));
    }

    #[test]
    fn round_robin_skips_full_pilot() {
        let mut s = RoundRobinScheduler::default();
        let pilots = [snap(1, 0, 8, 0, 8, 100.0), snap(2, 0, 8, 4, 0, 100.0)];
        let d = UnitDescription::new(1);
        assert_eq!(s.select(&req(&d), &pilots), Some(PilotId(2)));
        assert_eq!(s.select(&req(&d), &pilots), Some(PilotId(2)));
    }

    #[test]
    fn load_balance_picks_most_free() {
        let mut s = LoadBalanceScheduler;
        let pilots = [
            snap(1, 0, 8, 3, 5, 100.0),
            snap(2, 0, 16, 10, 2, 100.0),
            snap(3, 0, 8, 10, 1, 100.0),
        ];
        let d = UnitDescription::new(1);
        // 2 and 3 tie on free cores; 3 has fewer bound units.
        assert_eq!(s.select(&req(&d), &pilots), Some(PilotId(3)));
    }

    #[test]
    fn data_aware_follows_bytes() {
        let mut s = DataAwareScheduler::default();
        let pilots = [snap(1, 0, 8, 4, 0, 100.0), snap(2, 1, 8, 8, 0, 100.0)];
        // 1 GB at site 0, 1 MB at site 1.
        let d = UnitDescription::new(1).with_inputs(vec![
            DataLocation::new(1_000_000_000, vec![SiteId(0)]),
            DataLocation::new(1_000_000, vec![SiteId(1)]),
        ]);
        assert_eq!(s.select(&req(&d), &pilots), Some(PilotId(1)));
        // With no inputs it degrades to most-free-cores.
        let d0 = UnitDescription::new(1);
        assert_eq!(s.select(&req(&d0), &pilots), Some(PilotId(2)));
    }

    #[test]
    fn data_aware_wait_is_bounded() {
        // Regression: delay scheduling starved forever when the only
        // data-local pilot was permanently full. After `max_wait_passes`
        // refused passes the unit must fall back to the least-loaded pilot.
        let mut s = DataAwareScheduler::with_max_wait(3);
        // Pilot 1 sits at the data but is full; pilot 2 is remote and free.
        let pilots = [snap(1, 0, 8, 0, 8, 100.0), snap(2, 1, 8, 8, 0, 100.0)];
        let d = UnitDescription::new(1)
            .with_inputs(vec![DataLocation::new(1_000_000, vec![SiteId(0)])]);
        for pass in 0..3 {
            s.begin_pass();
            assert_eq!(s.select(&req(&d), &pilots), None, "pass {pass} waits");
            // Re-offers within the same pass don't burn extra wait budget.
            assert_eq!(s.select(&req(&d), &pilots), None);
        }
        s.begin_pass();
        assert_eq!(
            s.select(&req(&d), &pilots),
            Some(PilotId(2)),
            "budget exhausted: go remote rather than starve"
        );
        // A successful bind clears the unit's wait state: a fresh unit with
        // the same id waits again from zero.
        s.begin_pass();
        assert_eq!(s.select(&req(&d), &pilots), None);
    }

    #[test]
    fn backfill_respects_remaining_walltime() {
        let mut s = BackfillScheduler::default();
        let pilots = [snap(1, 0, 8, 8, 0, 30.0), snap(2, 0, 8, 8, 0, 500.0)];
        // 60 s estimate × 1.2 = 72 s needed: only pilot 2 qualifies.
        let d = UnitDescription::new(1).with_estimate(60.0);
        assert_eq!(s.select(&req(&d), &pilots), Some(PilotId(2)));
        // 10 s estimate: both qualify; prefer the expiring one.
        let d_short = UnitDescription::new(1).with_estimate(10.0);
        assert_eq!(s.select(&req(&d_short), &pilots), Some(PilotId(1)));
        // No estimate: prefer the pilot with the most headroom, not the one
        // about to kill the unit at walltime.
        let d_unknown = UnitDescription::new(1);
        assert_eq!(s.select(&req(&d_unknown), &pilots), Some(PilotId(2)));
        // Nothing has enough walltime.
        let d_long = UnitDescription::new(1).with_estimate(1000.0);
        assert_eq!(s.select(&req(&d_long), &pilots), None);
    }

    #[test]
    fn random_is_feasible_and_deterministic_per_seed() {
        let pilots = [
            snap(1, 0, 8, 0, 8, 100.0), // full
            snap(2, 0, 8, 8, 0, 100.0),
            snap(3, 0, 8, 8, 0, 100.0),
        ];
        let d = UnitDescription::new(4);
        let picks = |seed| {
            let mut s = RandomScheduler::new(seed);
            (0..20u64)
                .map(|u| {
                    let r = UnitRequest {
                        unit: UnitId(u),
                        desc: &d,
                    };
                    s.select(&r, &pilots).unwrap().0
                })
                .collect::<Vec<_>>()
        };
        let a = picks(7);
        assert_eq!(a, picks(7));
        assert!(a.iter().all(|&p| p == 2 || p == 3), "never the full pilot");
        assert!(
            a.contains(&2) && a.contains(&3),
            "spread across units: {a:?}"
        );
        // The pick is keyed off the unit, not the call order: re-offering the
        // same unit later lands on the same pilot.
        let mut s = RandomScheduler::new(7);
        let first = s.select(&req(&d), &pilots);
        for _ in 0..5 {
            s.select(
                &UnitRequest {
                    unit: UnitId(99),
                    desc: &d,
                },
                &pilots,
            );
        }
        assert_eq!(s.select(&req(&d), &pilots), first);
    }

    #[test]
    fn empty_pilot_list_keeps_unit_pending() {
        let d = UnitDescription::new(1);
        assert_eq!(FirstFitScheduler.select(&req(&d), &[]), None);
        assert_eq!(RoundRobinScheduler::default().select(&req(&d), &[]), None);
        assert_eq!(LoadBalanceScheduler.select(&req(&d), &[]), None);
        assert_eq!(DataAwareScheduler::default().select(&req(&d), &[]), None);
        assert_eq!(BackfillScheduler::default().select(&req(&d), &[]), None);
        assert_eq!(RandomScheduler::new(1).select(&req(&d), &[]), None);
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(FirstFitScheduler.name(), "first-fit");
        assert_eq!(RoundRobinScheduler::default().name(), "round-robin");
        assert_eq!(LoadBalanceScheduler.name(), "load-balance");
        assert_eq!(DataAwareScheduler::default().name(), "data-aware");
        assert_eq!(BackfillScheduler::default().name(), "backfill");
        assert_eq!(RandomScheduler::new(0).name(), "random");
    }
}
