//! Property test for the late-binding pass: the production pass
//! (`queue_pass` over the capacity-indexed `PendingQueue`, also reached
//! through the `batched_pass` adaptor) must produce placements **identical**
//! to the original rebuild-per-bind pass for every scheduler, over arbitrary
//! pilot sets and pending workloads — mixed core demands, mixed priorities,
//! stale queue entries and a duplicate entry included.
//!
//! The equivalence holds because binding only shrinks free capacity within a
//! pass, refusals are state-independent for every shipped scheduler (a unit
//! refused once per pass stays refused for the rest of it), and a unit that
//! fits on no snapshot can only be refused — so never offering it changes
//! nothing but the cost.

use pilot_core::binding::{
    batched_pass, per_unit_pass, queue_pass, BindStats, PendingQueue, PendingUnit,
};
use pilot_core::describe::{DataLocation, UnitDescription};
use pilot_core::ids::{PilotId, UnitId};
use pilot_core::scheduler::{
    BackfillScheduler, DataAwareScheduler, FirstFitScheduler, LoadBalanceScheduler, PilotSnapshot,
    RandomScheduler, RoundRobinScheduler, Scheduler, UnitRequest,
};
use pilot_infra::types::SiteId;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Fresh scheduler instance per pass implementation; `seed` only matters for
/// `random`.
fn scheduler(kind: usize, seed: u64) -> Box<dyn Scheduler> {
    match kind {
        0 => Box::new(FirstFitScheduler),
        1 => Box::new(RoundRobinScheduler::default()),
        2 => Box::new(LoadBalanceScheduler),
        3 => Box::new(DataAwareScheduler::default()),
        4 => Box::new(BackfillScheduler::default()),
        _ => Box::new(RandomScheduler::new(seed)),
    }
}

/// Checks the `Scheduler::select` contract from the scheduler's side: every
/// unit it is offered fits on at least one snapshot. Counts offers and
/// refusals so the pass's cost can be asserted in calls, not in time.
struct Contract {
    inner: Box<dyn Scheduler>,
    offers: u64,
    refusals: u64,
}

impl Scheduler for Contract {
    fn select(&mut self, unit: &UnitRequest<'_>, pilots: &[PilotSnapshot]) -> Option<PilotId> {
        assert!(
            pilots.iter().any(|p| p.free_cores >= unit.desc.cores),
            "unit {} ({} cores) offered although it fits nowhere",
            unit.unit,
            unit.desc.cores
        );
        self.offers += 1;
        let choice = self.inner.select(unit, pilots);
        self.refusals += u64::from(choice.is_none());
        choice
    }
    fn begin_pass(&mut self) {
        self.inner.begin_pass();
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Same placements from the spec, the adaptor and the production pass —
    /// over two consecutive passes on one queue — at a cost of one `select`
    /// per bind or policy refusal.
    #[test]
    fn queue_pass_matches_per_unit_pass(
        kind in 0usize..6,
        seed in 0u64..1_000_000,
        // (total_cores, used_cores, site, bound_units, remaining_walltime_s)
        pilots in prop::collection::vec((1u32..33, 0u32..33, 0u16..3, 0usize..5, 10u64..5000), 0..20),
        // (log2 cores, priority, est_duration_s, input (bytes, site), stale when 0)
        units in prop::collection::vec(
            (0u32..4, -5i32..6, prop::option::of(5u64..600), prop::option::of((1u64..2_000_000_000, 0u16..3)), 0u8..5),
            0..60
        ),
        duplicate in 0usize..60,
    ) {
        let snapshots: Vec<PilotSnapshot> = pilots
            .iter()
            .enumerate()
            .map(|(i, &(total, used, site, bound, rem))| PilotSnapshot {
                pilot: PilotId(i as u64 + 1),
                site: SiteId(site),
                total_cores: total,
                free_cores: total.saturating_sub(used),
                bound_units: bound,
                remaining_walltime_s: rem as f64,
            })
            .collect();
        // Every generated unit has a queue entry; only the live ones are
        // still `Pending` (the rest model cancellations awaiting lazy
        // deletion), and one entry is queued twice.
        let mut queue = PendingQueue::default();
        let mut live: Vec<PendingUnit> = Vec::new();
        for (i, &(log_cores, priority, est, input, stale)) in units.iter().enumerate() {
            let mut d = UnitDescription::new(1 << log_cores).with_priority(priority);
            if let Some(e) = est {
                d = d.with_estimate(e as f64);
            }
            if let Some((bytes, site)) = input {
                d = d.with_inputs(vec![DataLocation::new(bytes, vec![SiteId(site)])]);
            }
            let id = UnitId(i as u64 + 1);
            queue.push(id, d.priority, d.cores);
            if i == duplicate {
                queue.push(id, d.priority, d.cores);
            }
            if stale != 0 {
                live.push(PendingUnit { unit: id, desc: d });
            }
        }
        let descs: HashMap<UnitId, &UnitDescription> =
            live.iter().map(|u| (u.unit, &u.desc)).collect();

        // The adaptor is the production pass over a queue of the slice.
        let mut ref_stats = BindStats::default();
        let mut new_stats = BindStats::default();
        let reference = per_unit_pass(&mut *scheduler(kind, seed), &snapshots, &live, &mut ref_stats);
        let batched = batched_pass(&mut *scheduler(kind, seed), &snapshots, &live, &mut new_stats);
        prop_assert_eq!(&reference, &batched, "adaptor diverged (kind {})", kind);
        prop_assert_eq!(new_stats.snapshot_builds, 1, "one build per pass");
        prop_assert_eq!(
            ref_stats.snapshot_builds,
            ref_stats.binds + 1,
            "reference pass rebuilds once per bind"
        );
        prop_assert_eq!(new_stats.binds, batched.len() as u64);

        // Two consecutive passes on one queue and one scheduler instance per
        // side, every pilot back at its starting capacity for the second.
        let mut spec = scheduler(kind, seed);
        let mut prod = Contract { inner: scheduler(kind, seed), offers: 0, refusals: 0 };
        let mut bound: HashSet<UnitId> = HashSet::new();
        for pass in 0..2 {
            let pending: Vec<PendingUnit> =
                live.iter().filter(|u| !bound.contains(&u.unit)).cloned().collect();
            let reference = per_unit_pass(&mut *spec, &snapshots, &pending, &mut ref_stats);
            let mut snaps = snapshots.clone();
            let (offers, refusals) = (prod.offers, prod.refusals);
            let out = queue_pass(&mut prod, &mut snaps, &mut queue, |uid| {
                descs.get(&uid).copied().filter(|_| !bound.contains(&uid))
            });
            prop_assert_eq!(&reference, &out.binds, "pass {} diverged (kind {})", pass, kind);
            prop_assert_eq!(out.offered, prod.offers - offers, "offered counts select calls");
            prop_assert_eq!(
                out.offered,
                out.binds.len() as u64 + (prod.refusals - refusals),
                "cost is binds + policy refusals, not backlog"
            );

            // Every placement respects capacity: bound cores per pilot never
            // exceed what was free at pass start.
            let mut committed: HashMap<PilotId, u32> = HashMap::new();
            for &(uid, pid) in &out.binds {
                *committed.entry(pid).or_insert(0) += descs[&uid].cores;
            }
            for (pid, cores) in committed {
                let free = snapshots.iter().find(|p| p.pilot == pid).unwrap().free_cores;
                prop_assert!(cores <= free, "pilot {} over-committed: {} > {}", pid, cores, free);
            }
            bound.extend(out.binds.iter().map(|&(uid, _)| uid));
        }

        // Whatever was refused or never offered is still queued, in global
        // priority-then-FIFO order (stale entries and the duplicate may
        // linger in classes the passes never drew from).
        let mut expected: Vec<&PendingUnit> =
            live.iter().filter(|u| !bound.contains(&u.unit)).collect();
        expected.sort_by_key(|u| (std::cmp::Reverse(u.desc.priority), u.unit.0));
        let mut queued: Vec<UnitId> = queue
            .drain()
            .into_iter()
            .filter(|uid| descs.contains_key(uid) && !bound.contains(uid))
            .collect();
        queued.dedup();
        prop_assert_eq!(queued, expected.iter().map(|u| u.unit).collect::<Vec<_>>());
    }
}
