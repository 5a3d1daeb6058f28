//! The late-binding pass shared by every execution driver (thread service,
//! DES backend, fabric host daemons — all through `crate::ledger`), and
//! the capacity-indexed queue it draws from.
//!
//! The unit manager re-matches pending compute units against pilot capacity
//! on every capacity change (the P\* late-binding contract), so the cost of
//! one pass bounds bind throughput under load. One pass costs
//! `O((binds + policy refusals) × pilots)`, independent of the backlog:
//!
//! - snapshots are built **once per pass**; after each successful bind the
//!   capacity delta ([`apply_bind_delta`]) is applied to the in-memory
//!   snapshots instead of rebuilding,
//! - pending units live in a [`PendingQueue`] indexed by core demand — one
//!   priority-then-FIFO heap per distinct `cores` value,
//! - [`queue_pass`] draws, in global priority-then-FIFO order, only from the
//!   classes whose demand fits the largest `free_cores` over the snapshots.
//!   That bound is re-evaluated after every bind (it only shrinks) and the
//!   pass stops when no class fits, so a unit that fits nowhere is never
//!   popped, looked up, offered or re-queued: a pass over any backlog against
//!   full pilots offers nothing, and a small unit queued behind large ones
//!   still backfills the one free core,
//! - [`BindStats`] counts passes, snapshot builds, candidate comparisons and
//!   binds, and is surfaced in every driver's report.
//!
//! Schedulers stay pure decision functions over snapshots (the AB-1 ablation
//! contract) and must return a pilot with `free_cores >= cores`
//! ([`apply_bind_delta`] asserts it), so a unit above the bound could only
//! ever have been refused; and binding only shrinks free capacity, so a unit
//! refused earlier in a pass cannot become bindable later in the same pass.
//! Skipping the first kind and offering the rest exactly once therefore
//! yields placements identical to the original rebuild-per-bind loop, which
//! [`per_unit_pass`] keeps alive as the executable specification the
//! equivalence proptest and the `bind` bench baseline run against.

// lint: deterministic — this module must stay replayable: no wall-clock reads

use crate::describe::UnitDescription;
use crate::ids::{PilotId, UnitId};
use crate::scheduler::{PilotSnapshot, Scheduler, UnitRequest};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

/// Counters for the late-binding hot path. One pass = one wakeup of the
/// binding loop with at least one pending unit and one visible pilot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct BindStats {
    /// Binding passes run.
    pub passes: u64,
    /// Pilot-snapshot vectors built. [`queue_pass`] callers build exactly one
    /// per pass; the per-unit pass rebuilt once per bind (plus the initial
    /// one).
    pub snapshot_builds: u64,
    /// Unit×pilot candidates offered to the scheduler: one `select` call
    /// (which scans at most the full snapshot slice) per unit *actually
    /// offered*. Units whose core demand fits no snapshot are never offered
    /// and do not count, so this stays within
    /// `(binds + policy refusals) × pilots` however deep the backlog is.
    pub candidate_comparisons: u64,
    /// Successful binds.
    pub binds: u64,
    /// Largest number of binds committed by a single pass.
    pub max_binds_per_pass: u64,
}

impl BindStats {
    /// Fold one finished pass into the totals.
    pub fn note_pass(&mut self, snapshot_len: usize, offered: u64, binds: u64) {
        self.passes += 1;
        self.snapshot_builds += 1;
        self.candidate_comparisons += offered * snapshot_len as u64;
        self.binds += binds;
        self.max_binds_per_pass = self.max_binds_per_pass.max(binds);
    }

    /// Fold another driver's totals into these.
    pub fn absorb(&mut self, other: &BindStats) {
        self.passes += other.passes;
        self.snapshot_builds += other.snapshot_builds;
        self.candidate_comparisons += other.candidate_comparisons;
        self.binds += other.binds;
        self.max_binds_per_pass = self.max_binds_per_pass.max(other.max_binds_per_pass);
    }

    /// Mean binds per pass (0 when no pass ran).
    pub fn binds_per_pass(&self) -> f64 {
        if self.passes == 0 {
            0.0
        } else {
            self.binds as f64 / self.passes as f64
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PendEntry {
    priority: i32,
    id: UnitId,
}

impl Ord for PendEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then FIFO (smaller id first).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.id.0.cmp(&self.id.0))
    }
}

impl PartialOrd for PendEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Priority queue of pending units, indexed by core demand: higher
/// [`UnitDescription::priority`] binds earlier, ties break FIFO by unit id.
///
/// Units are kept in one heap per distinct `cores` value (a *class*), so the
/// binding pass can draw the globally next unit among only those classes
/// that fit the capacity currently free, without touching the rest of the
/// backlog. Classes sit in an ordered map: which class wins a draw never
/// depends on hash order, so passes replay.
///
/// Entries are not removed on unit cancellation; callers skip stale entries
/// at pop time by checking the unit's live state (lazy deletion). A stale
/// entry in a class that does not currently fit stays queued — and counted
/// by [`len`](Self::len) — until its class is next drawn from.
#[derive(Debug, Default)]
pub struct PendingQueue {
    /// Core demand → its `(priority, FIFO)` heap. A drained class keeps its
    /// (empty) heap: demands recur, and a draw skips empty heaps for free.
    classes: BTreeMap<u32, BinaryHeap<PendEntry>>,
}

impl PendingQueue {
    /// Enqueue a unit that needs `cores` cores at the given priority.
    pub fn push(&mut self, id: UnitId, priority: i32, cores: u32) {
        self.classes
            .entry(cores)
            .or_default()
            .push(PendEntry { priority, id });
    }

    /// Highest-priority unit, or `None` when empty. May return units that
    /// have since left the pending state — callers must validate.
    pub fn pop(&mut self) -> Option<UnitId> {
        self.pop_fitting(u32::MAX)
    }

    /// Highest-priority unit among the classes needing at most `max_cores`
    /// cores, or `None` when no such unit is queued. Costs one heap pop plus
    /// a peek per class in range, whatever the other classes hold.
    fn pop_fitting(&mut self, max_cores: u32) -> Option<UnitId> {
        // An equal (priority, id) in two classes can only be a duplicate
        // entry; the smaller demand wins so the draw stays deterministic.
        let (_, Reverse(cores)) = self
            .classes
            .range(..=max_cores)
            .filter_map(|(&cores, heap)| Some((*heap.peek()?, Reverse(cores))))
            .max()?;
        self.classes.get_mut(&cores)?.pop().map(|e| e.id)
    }

    /// Entries in the queue, over all classes (including stale ones awaiting
    /// lazy deletion).
    pub fn len(&self) -> usize {
        self.classes.values().map(BinaryHeap::len).sum()
    }

    /// Whether no entries remain in any class.
    pub fn is_empty(&self) -> bool {
        self.classes.values().all(BinaryHeap::is_empty)
    }

    /// Drain every entry of every class, in global priority-then-FIFO order.
    pub fn drain(&mut self) -> Vec<UnitId> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(id) = self.pop() {
            out.push(id);
        }
        out
    }
}

/// Decrement a pilot's snapshot capacity after a successful bind, in place of
/// a full snapshot rebuild. Panics if the scheduler returned a pilot that is
/// not in the snapshot set or lacks the cores (the manager's over-commit
/// guard).
pub fn apply_bind_delta(snapshots: &mut [PilotSnapshot], pilot: PilotId, cores: u32) {
    let p = snapshots
        .iter_mut()
        .find(|p| p.pilot == pilot)
        // lint: allow(panic, reason = "documented contract: a scheduler naming a pilot outside its snapshot set is a scheduler bug, exercised by a should_panic test")
        .expect("scheduler returned a pilot outside the snapshot set");
    assert!(
        p.free_cores >= cores,
        "scheduler over-committed pilot {pilot}"
    );
    p.free_cores -= cores;
    p.bound_units += 1;
}

/// Largest `free_cores` over the snapshots: a unit needing more fits nowhere.
fn max_free(snapshots: &[PilotSnapshot]) -> u32 {
    snapshots.iter().map(|p| p.free_cores).max().unwrap_or(0)
}

/// What one [`queue_pass`] decided: the committed placements (in bind
/// order) plus how many live units were offered to the scheduler. The caller
/// folds this into [`BindStats`] via [`BindStats::note_pass`] and then
/// commits each bind against its own runtime tables.
#[derive(Debug, Default)]
#[must_use]
pub struct QueuePassOutcome {
    /// `(unit, pilot)` placements the scheduler committed, in bind order.
    pub binds: Vec<(UnitId, PilotId)>,
    /// Live pending units offered to the scheduler: every one of them was
    /// either bound or refused by policy. Stale entries skipped by lazy
    /// deletion and units that fit no snapshot are not counted.
    pub offered: u64,
}

/// The late-binding pass shared by the thread backend, the sim backend, and
/// the fabric host daemons. Draw pending units in priority-then-FIFO order
/// from the [`PendingQueue`] classes that fit the largest `free_cores` over
/// `snapshots`; skip stale entries (lazy deletion — `lookup` returns `None`
/// for units that have left `Pending`); offer each live unit to the
/// scheduler; after a bind, apply the capacity delta to `snapshots` in place
/// and lower the bound; stop when no queued class fits; re-queue the units
/// the scheduler refused. Units that fit no snapshot are left untouched in
/// the queue, so the pass costs `O(binds + policy refusals)` draws, not
/// `O(backlog)`.
///
/// The caller must hand in a deterministically ordered snapshot vector (all
/// drivers sort by pilot id), push every unit under its own
/// `desc.priority` / `desc.cores`, and commit the returned binds against its
/// own unit/pilot tables afterwards; commits are deferred so the borrow of
/// the unit table inside `lookup` stays shared. A unit that somehow has two
/// live queue entries is offered only once per pass (the second entry is
/// dropped as stale).
pub fn queue_pass<'u>(
    scheduler: &mut dyn Scheduler,
    snapshots: &mut [PilotSnapshot],
    pending: &mut PendingQueue,
    mut lookup: impl FnMut(UnitId) -> Option<&'u UnitDescription>,
) -> QueuePassOutcome {
    scheduler.begin_pass();
    let mut out = QueuePassOutcome::default();
    let mut bound = max_free(snapshots);
    // Deferred commits mean `lookup` cannot observe what this pass already
    // did with a unit; membership only, never iterated.
    let mut offered: HashSet<UnitId> = HashSet::new();
    let mut refused: Vec<(UnitId, &UnitDescription)> = Vec::new();
    while let Some(uid) = pending.pop_fitting(bound) {
        // Lazy deletion: `lookup` returns `None` for entries whose unit has
        // left `Pending` (canceled, bound through a retry race, vanished).
        let Some(desc) = lookup(uid) else {
            continue;
        };
        if !offered.insert(uid) {
            continue;
        }
        out.offered += 1;
        let req = UnitRequest { unit: uid, desc };
        match scheduler.select(&req, snapshots) {
            Some(pid) => {
                apply_bind_delta(snapshots, pid, desc.cores);
                out.binds.push((uid, pid));
                bound = max_free(snapshots);
            }
            None => refused.push((uid, desc)),
        }
    }
    for (uid, desc) in refused {
        pending.push(uid, desc.priority, desc.cores);
    }
    out
}

/// A pending unit in pure-pass form (tests, benches, experiments).
#[derive(Clone, Debug)]
pub struct PendingUnit {
    /// Which unit.
    pub unit: UnitId,
    /// Its description.
    pub desc: UnitDescription,
}

/// The original rebuild-per-bind pass, retained as the executable
/// specification: scan pending units in priority order, bind the first one
/// the scheduler accepts, rebuild every pilot snapshot, restart the scan.
/// Returns the committed `(unit, pilot)` placements in bind order.
///
/// It predates the capacity index and still offers units that fit on no
/// snapshot; every scheduler refuses those, so the placements of one pass
/// are what [`queue_pass`] commits without ever offering them.
pub fn per_unit_pass(
    scheduler: &mut dyn Scheduler,
    pilots: &[PilotSnapshot],
    pending: &[PendingUnit],
    stats: &mut BindStats,
) -> Vec<(UnitId, PilotId)> {
    let mut order: Vec<&PendingUnit> = pending.iter().collect();
    order.sort_by_key(|u| (Reverse(u.desc.priority), u.unit.0));
    let mut binds: Vec<(UnitId, PilotId)> = Vec::new();
    stats.passes += 1;
    scheduler.begin_pass();
    loop {
        // Rebuild the full snapshot vector, replaying every committed bind —
        // exactly what the managers did against their live pilot tables.
        let mut snapshots = pilots.to_vec();
        stats.snapshot_builds += 1;
        for &(uid, pid) in &binds {
            let cores = pending
                .iter()
                .find(|u| u.unit == uid)
                // lint: allow(panic, reason = "binds only ever contains units drawn from the pending slice two lines up")
                .expect("bound unit came from pending")
                .desc
                .cores;
            apply_bind_delta(&mut snapshots, pid, cores);
        }
        if snapshots.is_empty() {
            break;
        }
        let mut bound = None;
        for (i, u) in order.iter().enumerate() {
            stats.candidate_comparisons += snapshots.len() as u64;
            let req = UnitRequest {
                unit: u.unit,
                desc: &u.desc,
            };
            if let Some(pid) = scheduler.select(&req, &snapshots) {
                bound = Some((i, u.unit, pid));
                break;
            }
        }
        let Some((i, uid, pid)) = bound else {
            break;
        };
        order.remove(i);
        binds.push((uid, pid));
        stats.binds += 1;
    }
    stats.max_binds_per_pass = stats.max_binds_per_pass.max(binds.len() as u64);
    binds
}

/// [`queue_pass`] in pure-pass form, for the equivalence proptest, the `bind`
/// bench and SC-1: queue the slice, run the one production pass over a copy
/// of `pilots`, fold it into `stats`. Returns the committed `(unit, pilot)`
/// placements in bind order — byte-identical to [`per_unit_pass`] for every
/// scheduler.
pub fn batched_pass(
    scheduler: &mut dyn Scheduler,
    pilots: &[PilotSnapshot],
    pending: &[PendingUnit],
    stats: &mut BindStats,
) -> Vec<(UnitId, PilotId)> {
    let mut snapshots = pilots.to_vec();
    let mut queue = PendingQueue::default();
    let mut descs: HashMap<UnitId, &UnitDescription> = HashMap::with_capacity(pending.len());
    for u in pending {
        queue.push(u.unit, u.desc.priority, u.desc.cores);
        descs.insert(u.unit, &u.desc);
    }
    let out = queue_pass(scheduler, &mut snapshots, &mut queue, |uid| {
        descs.get(&uid).copied()
    });
    stats.note_pass(snapshots.len(), out.offered, out.binds.len() as u64);
    out.binds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{BackfillScheduler, FirstFitScheduler, LoadBalanceScheduler};
    use pilot_infra::types::SiteId;

    fn snap(id: u64, free: u32) -> PilotSnapshot {
        PilotSnapshot {
            pilot: PilotId(id),
            site: SiteId(0),
            total_cores: 8,
            free_cores: free,
            bound_units: 0,
            remaining_walltime_s: 1000.0,
        }
    }

    fn unit(id: u64, cores: u32, priority: i32) -> PendingUnit {
        PendingUnit {
            unit: UnitId(id),
            desc: UnitDescription::new(cores).with_priority(priority),
        }
    }

    /// Queue `units` and run one production pass over them.
    fn pass(
        scheduler: &mut dyn Scheduler,
        snapshots: &mut [PilotSnapshot],
        queue: &mut PendingQueue,
        units: &[PendingUnit],
    ) -> QueuePassOutcome {
        queue_pass(scheduler, snapshots, queue, |uid| {
            units.iter().find(|u| u.unit == uid).map(|u| &u.desc)
        })
    }

    fn queue_of(units: &[PendingUnit]) -> PendingQueue {
        let mut q = PendingQueue::default();
        for u in units {
            q.push(u.unit, u.desc.priority, u.desc.cores);
        }
        q
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let mut q = PendingQueue::default();
        q.push(UnitId(3), 0, 1);
        q.push(UnitId(1), 0, 1);
        q.push(UnitId(2), 5, 1);
        q.push(UnitId(4), -1, 1);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some(UnitId(2)));
        assert_eq!(q.pop(), Some(UnitId(1)));
        assert_eq!(q.pop(), Some(UnitId(3)));
        assert_eq!(q.pop(), Some(UnitId(4)));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_len_and_drain_span_all_classes_in_global_order() {
        // `begin_shutdown` drains the queue and the sim autoscaler reads its
        // length: both must see every class, in one priority-then-FIFO order.
        let mut q = PendingQueue::default();
        assert!(q.is_empty());
        for (id, prio, cores) in [(1u64, 0, 4), (2, 9, 1), (3, 4, 8), (4, 0, 1), (5, 9, 2)] {
            q.push(UnitId(id), prio, cores);
        }
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        assert_eq!(
            q.drain(),
            vec![UnitId(2), UnitId(5), UnitId(3), UnitId(1), UnitId(4)],
            "drain ignores class boundaries"
        );
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        // A drained class is reusable.
        q.push(UnitId(6), 0, 4);
        assert_eq!((q.len(), q.pop()), (1, Some(UnitId(6))));
    }

    #[test]
    fn pop_fitting_draws_only_from_classes_within_the_bound() {
        let mut q = PendingQueue::default();
        q.push(UnitId(1), 9, 4);
        q.push(UnitId(2), 0, 1);
        q.push(UnitId(3), 5, 2);
        assert_eq!(q.pop_fitting(0), None);
        assert_eq!(q.pop_fitting(2), Some(UnitId(3)), "best of classes 1 and 2");
        assert_eq!(q.pop_fitting(2), Some(UnitId(2)));
        assert_eq!(q.pop_fitting(2), None, "the 4-core unit is not touched");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_fitting(4), Some(UnitId(1)));
    }

    #[test]
    fn pass_over_full_pilots_offers_nothing_whatever_the_backlog() {
        let units: Vec<PendingUnit> = (0..10_000)
            .map(|i| unit(i, 1 + (i % 3) as u32, 0))
            .collect();
        let mut queue = queue_of(&units);
        let mut snaps: Vec<PilotSnapshot> = (1..=32).map(|i| snap(i, 0)).collect();
        let mut lookups = 0u64;
        let out = queue_pass(&mut FirstFitScheduler, &mut snaps, &mut queue, |uid| {
            lookups += 1;
            units.get(uid.0 as usize).map(|u| &u.desc)
        });
        assert_eq!((out.offered, out.binds.len(), lookups), (0, 0, 0));
        assert_eq!(queue.len(), 10_000, "nothing popped, nothing re-pushed");
    }

    #[test]
    fn small_unit_backfills_past_queued_large_units() {
        // Three 4-core units queued ahead (higher priority) of two 1-core
        // units, one core free: the first 1-core unit binds, and it is the
        // only unit the pass touches.
        let units = [
            unit(1, 4, 5),
            unit(2, 4, 5),
            unit(3, 4, 5),
            unit(4, 1, 0),
            unit(5, 1, 0),
        ];
        let mut queue = queue_of(&units);
        let mut snaps = vec![snap(1, 0), snap(2, 1)];
        let out = pass(&mut FirstFitScheduler, &mut snaps, &mut queue, &units);
        assert_eq!(out.binds, vec![(UnitId(4), PilotId(2))]);
        assert_eq!(out.offered, 1, "the bound dropped to 0 after the bind");
        assert_eq!(
            queue.drain(),
            vec![UnitId(1), UnitId(2), UnitId(3), UnitId(5)],
            "everything else is still queued, in order"
        );
    }

    #[test]
    fn bound_shrinks_within_a_pass() {
        // 4 + 2 cores free. The 4-core unit binds first; after that only the
        // 2-core class fits, and the second 4-core unit is never offered.
        let units = [unit(1, 4, 0), unit(2, 4, 0), unit(3, 2, 0), unit(4, 2, 0)];
        let mut queue = queue_of(&units);
        let mut snaps = vec![snap(1, 4), snap(2, 2)];
        let out = pass(&mut FirstFitScheduler, &mut snaps, &mut queue, &units);
        assert_eq!(
            out.binds,
            vec![(UnitId(1), PilotId(1)), (UnitId(3), PilotId(2))]
        );
        assert_eq!(out.offered, 2);
        assert_eq!(queue.drain(), vec![UnitId(2), UnitId(4)]);
    }

    #[test]
    fn duplicate_entry_is_offered_once_per_pass() {
        // Both units are queued twice. Unit 1 binds; unit 2 fits but its
        // estimate outlives the pilot, so backfill refuses it. Deferred
        // commits mean `lookup` still reports both as pending throughout.
        let mut long = unit(2, 1, 0);
        long.desc = long.desc.with_estimate(1e6);
        let units = [unit(1, 1, 0), long];
        let mut queue = queue_of(&units);
        queue.push(UnitId(1), 0, 1);
        queue.push(UnitId(2), 0, 1);
        let mut snaps = vec![snap(1, 8)];
        let out = pass(
            &mut BackfillScheduler::default(),
            &mut snaps,
            &mut queue,
            &units,
        );
        assert_eq!(out.binds, vec![(UnitId(1), PilotId(1))], "bound once");
        assert_eq!(out.offered, 2, "each unit offered once");
        assert_eq!(queue.drain(), vec![UnitId(2)], "and re-queued once");
    }

    #[test]
    fn stale_entries_are_dropped_and_refusals_requeued_in_order() {
        let units = [unit(1, 2, 0), unit(3, 2, 0), unit(4, 2, 7)];
        let mut queue = queue_of(&units);
        queue.push(UnitId(2), 9, 2); // no such live unit: lazily deleted
        let mut snaps = vec![snap(1, 3)];
        let out = pass(&mut FirstFitScheduler, &mut snaps, &mut queue, &units);
        assert_eq!(out.binds, vec![(UnitId(4), PilotId(1))]);
        assert_eq!(
            out.offered, 1,
            "one core left: the 2-core class no longer fits"
        );
        assert_eq!(queue.drain(), vec![UnitId(1), UnitId(3)]);
    }

    #[test]
    fn batched_pass_builds_one_snapshot_regardless_of_binds() {
        let pilots = [snap(1, 8), snap(2, 8)];
        let pending: Vec<PendingUnit> = (0..10).map(|i| unit(i, 1, 0)).collect();
        let mut stats = BindStats::default();
        let binds = batched_pass(&mut FirstFitScheduler, &pilots, &pending, &mut stats);
        assert_eq!(binds.len(), 10);
        assert_eq!(stats.snapshot_builds, 1, "one build per pass, not per bind");
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.binds, 10);
        assert_eq!(stats.max_binds_per_pass, 10);
        assert_eq!(stats.candidate_comparisons, 20, "10 units × 2 pilots");
        assert!((stats.binds_per_pass() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn per_unit_pass_rebuilds_once_per_bind() {
        let pilots = [snap(1, 8), snap(2, 8)];
        let pending: Vec<PendingUnit> = (0..10).map(|i| unit(i, 1, 0)).collect();
        let mut stats = BindStats::default();
        let binds = per_unit_pass(&mut FirstFitScheduler, &pilots, &pending, &mut stats);
        assert_eq!(binds.len(), 10);
        assert_eq!(stats.snapshot_builds, 11, "initial build + one per bind");
    }

    #[test]
    fn passes_agree_and_respect_capacity() {
        // 2 pilots × 3 free cores, five 2-core units: only two can bind.
        let pilots = [snap(1, 3), snap(2, 3)];
        let pending: Vec<PendingUnit> = (0..5).map(|i| unit(i, 2, 0)).collect();
        let mut s1 = BindStats::default();
        let mut s2 = BindStats::default();
        let a = per_unit_pass(&mut LoadBalanceScheduler, &pilots, &pending, &mut s1);
        let b = batched_pass(&mut LoadBalanceScheduler, &pilots, &pending, &mut s2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(s2.snapshot_builds, 1);
        assert_eq!(s1.snapshot_builds, 3);
    }

    #[test]
    #[should_panic(expected = "over-committed")]
    fn delta_guards_against_overcommit() {
        let mut snaps = vec![snap(1, 1)];
        apply_bind_delta(&mut snaps, PilotId(1), 2);
    }

    #[test]
    fn delta_decrements_and_counts() {
        let mut snaps = vec![snap(1, 5), snap(2, 5)];
        apply_bind_delta(&mut snaps, PilotId(2), 3);
        assert_eq!(snaps[1].free_cores, 2);
        assert_eq!(snaps[1].bound_units, 1);
        assert_eq!(snaps[0].free_cores, 5);
    }
}
