//! SC experiments: scheduler/binding hot-path scaling. SC-1 sweeps
//! pending-queue depth x pilot count and compares the original
//! rebuild-per-bind pass against the pass every driver now runs, then shows
//! that a pass against saturated pilots costs what it binds, not what is
//! queued. The fixtures are shared with the `bind` bench.

use super::common;
use pilot_core::binding::{
    batched_pass, per_unit_pass, queue_pass, BindStats, PendingQueue, PendingUnit, QueuePassOutcome,
};
use pilot_core::describe::{DataLocation, UnitDescription};
use pilot_core::ids::{PilotId, UnitId};
use pilot_core::scheduler::{LoadBalanceScheduler, PilotSnapshot};
use pilot_core::WallClock;
use pilot_infra::types::SiteId;

/// `n` idle 32-core pilots over four sites.
pub fn pilots(n: usize) -> Vec<PilotSnapshot> {
    (0..n)
        .map(|i| PilotSnapshot {
            pilot: PilotId(i as u64 + 1),
            site: SiteId((i % 4) as u16),
            total_cores: 32,
            free_cores: 32,
            bound_units: 0,
            remaining_walltime_s: 3600.0 - i as f64,
        })
        .collect()
}

/// `n` 1-core units with mixed priorities and one site-local input each.
pub fn pending(n: usize) -> Vec<PendingUnit> {
    (0..n)
        .map(|i| PendingUnit {
            unit: UnitId(i as u64 + 1),
            desc: UnitDescription::new(1)
                .with_priority((i % 7) as i32 - 3)
                .with_inputs(vec![DataLocation::new(
                    1_000_000,
                    vec![SiteId((i % 4) as u16)],
                )]),
        })
        .collect()
}

/// Time `reps` repetitions of one pass, returning (binds/sec, stats of one pass).
fn measure(
    reps: u32,
    snaps: &[PilotSnapshot],
    pend: &[PendingUnit],
    batched: bool,
) -> (f64, BindStats) {
    let mut stats = BindStats::default();
    let start = WallClock::start();
    let mut binds = 0u64;
    for _ in 0..reps {
        stats = BindStats::default();
        let placed = if batched {
            batched_pass(&mut LoadBalanceScheduler, snaps, pend, &mut stats)
        } else {
            per_unit_pass(&mut LoadBalanceScheduler, snaps, pend, &mut stats)
        };
        binds += placed.len() as u64;
    }
    let secs = start.elapsed_s().max(1e-9);
    (binds as f64 / secs, stats)
}

/// The regime a burst spends its life in: `depth` units queued against
/// full pilots, with `free` cores — one completion's worth — back on one of
/// them.
pub struct SaturatedPass {
    pilots: Vec<PilotSnapshot>,
    units: Vec<PendingUnit>,
    queue: PendingQueue,
}

impl SaturatedPass {
    /// `depth` pending units, `n_pilots` full pilots, `free` cores free.
    pub fn new(depth: usize, n_pilots: usize, free: u32) -> Self {
        let mut pilots = pilots(n_pilots);
        for p in &mut pilots {
            p.free_cores = 0;
        }
        pilots[n_pilots / 2].free_cores = free;
        let units = pending(depth);
        let mut queue = PendingQueue::default();
        for u in &units {
            queue.push(u.unit, u.desc.priority, u.desc.cores);
        }
        SaturatedPass {
            pilots,
            units,
            queue,
        }
    }

    /// One production pass over a fresh copy of the snapshots (what every
    /// driver builds per pass). Whatever it binds is queued again, so every
    /// call sees the same backlog.
    pub fn step(&mut self) -> QueuePassOutcome {
        let units = &self.units;
        let desc = |uid: UnitId| &units[uid.0 as usize - 1].desc;
        let mut snaps = self.pilots.clone();
        let out = queue_pass(
            &mut LoadBalanceScheduler,
            &mut snaps,
            &mut self.queue,
            |uid| Some(desc(uid)),
        );
        for &(uid, _) in &out.binds {
            self.queue.push(uid, desc(uid).priority, desc(uid).cores);
        }
        out
    }
}

/// SC-1: late-binding pass throughput, pending depth x pilot count.
/// The batched pass builds one snapshot vector per pass instead of one per
/// bind; at 1k pending units x 32 pilots that is a >=5x reduction in rebuilds
/// (in practice ~1000x) and a corresponding binds/sec jump. The second table
/// is the saturated regime: the pass offers exactly what one completion's
/// worth of capacity can take — nothing at all when every pilot is full —
/// whatever the backlog.
pub fn run_sc1(quick: bool) -> String {
    let depths: &[usize] = if quick { &[64, 256] } else { &[64, 256, 1024] };
    let pilot_counts: &[usize] = &[8, 32];
    let reps = if quick { 3 } else { 10 };
    let mut out = String::from(
        "### SC-1 late-binding pass: rebuild-per-bind vs batched (32-core pilots)\n\n\
         | pending | pilots | old binds/s | new binds/s | speedup | old rebuilds | new rebuilds |\n\
         |---|---|---|---|---|---|---|\n",
    );
    let mut worst_rebuild_ratio = f64::INFINITY;
    for &n_pilots in pilot_counts {
        for &depth in depths {
            let snaps = pilots(n_pilots);
            let pend = pending(depth);
            let (old_rate, old_stats) = measure(reps, &snaps, &pend, false);
            let (new_rate, new_stats) = measure(reps, &snaps, &pend, true);
            assert_eq!(
                old_stats.binds, new_stats.binds,
                "passes diverged at {depth}x{n_pilots}"
            );
            let ratio = old_stats.snapshot_builds as f64 / new_stats.snapshot_builds as f64;
            worst_rebuild_ratio = worst_rebuild_ratio.min(ratio);
            out.push_str(&format!(
                "| {depth} | {n_pilots} | {old_rate:.0} | {new_rate:.0} | {:.0}x | {} | {} |\n",
                new_rate / old_rate.max(1e-9),
                old_stats.snapshot_builds,
                new_stats.snapshot_builds,
            ));
        }
    }
    out.push_str(&format!(
        "\n(worst-case rebuild reduction {worst_rebuild_ratio:.0}x; acceptance floor is 5x)\n"
    ));
    assert!(
        worst_rebuild_ratio >= 5.0,
        "batched pass must cut snapshot rebuilds at least 5x (got {worst_rebuild_ratio:.1}x)"
    );

    out.push_str(
        "\n#### saturated pass: one completion's worth of capacity vs the backlog (32 full pilots)\n\n\
         | pending | free cores | offered | binds | us/pass |\n\
         |---|---|---|---|---|\n",
    );
    let backlogs: &[usize] = if quick { &[1000] } else { &[1000, 10_000] };
    let sat_reps = if quick { 100 } else { 1000 };
    for &depth in backlogs {
        for free in [1u32, 0] {
            let mut sat = SaturatedPass::new(depth, 32, free);
            let first = sat.step();
            assert_eq!(
                (first.offered, first.binds.len()),
                (u64::from(free), free as usize),
                "a pass offers what has room, not the backlog ({depth} pending, {free} free)"
            );
            let start = WallClock::start();
            for _ in 0..sat_reps {
                let _ = std::hint::black_box(sat.step());
            }
            out.push_str(&format!(
                "| {depth} | {} | {} | {} | {:.2} |\n",
                if free == 0 {
                    "0 (all full)".into()
                } else {
                    free.to_string()
                },
                first.offered,
                first.binds.len(),
                start.elapsed_s() * 1e6 / f64::from(sat_reps),
            ));
        }
    }
    common::emit(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc1_quick_holds_rebuild_floor() {
        let report = run_sc1(true);
        assert!(report.contains("SC-1"));
        assert!(report.contains("acceptance floor"));
        assert!(report.contains("| 1000 | 0 (all full) | 0 | 0 |"));
    }
}
