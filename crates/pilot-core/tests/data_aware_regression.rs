//! Regression tests for EXP PD-1: when pilots exist at every data site, the
//! data-aware scheduler must *wait* for a local slot (delay scheduling)
//! instead of binding units remotely — including during the window where
//! pilots are still pending, and under a saturated burst where every pilot
//! stays full for many passes.

use pilot_core::binding::{queue_pass, PendingQueue};
use pilot_core::describe::{DataLocation, PilotDescription, UnitDescription};
use pilot_core::ids::{PilotId, UnitId};
use pilot_core::scheduler::{DataAwareScheduler, PilotSnapshot};
use pilot_core::sim::SimPilotSystem;
use pilot_infra::hpc::{HpcCluster, HpcConfig};
use pilot_infra::types::SiteId;
use pilot_saga::ResourceAdaptor;
use pilot_sim::{SimDuration, SimTime};

#[test]
fn data_aware_delay_scheduling_avoids_remote_staging() {
    let mut sys = SimPilotSystem::new(0xAD1);
    let a = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
        "a", 64,
    ))));
    let b = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
        "b", 64,
    ))));
    sys.set_scheduler(Box::new(DataAwareScheduler::default()));
    for site in [a, b] {
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(16, SimDuration::from_hours(12)),
        );
    }
    for i in 0..40 {
        let home = if i % 2 == 0 { a } else { b };
        sys.submit_unit_fixed(
            SimTime::ZERO,
            UnitDescription::new(1).with_inputs(vec![DataLocation::new(500_000_000, vec![home])]),
            60.0,
        );
    }
    let report = sys.run(SimTime::from_hours(48));
    let stagings: Vec<f64> = report
        .units
        .iter()
        .filter_map(|u| u.times.staging())
        .collect();
    let mean = stagings.iter().sum::<f64>() / stagings.len() as f64;
    assert!(mean < 0.5, "mean staging {mean}");
}

/// Regression: the wait budget used to burn on every pass in which the
/// data-local pilot was full — including passes where *every* pilot was
/// full. Under a saturated burst (one pass per completion) the budget was
/// gone after `max_wait_passes` completions anywhere, and the unit went
/// remote at the first free core. A pass in which the unit fits nowhere is
/// not a scheduling opportunity: it is not offered, hence not charged.
#[test]
fn wait_budget_survives_passes_in_which_nothing_has_room() {
    let snaps = |local_free, remote_free| {
        [(1u64, 0u16, local_free), (2, 1, remote_free)].map(|(id, site, free)| PilotSnapshot {
            pilot: PilotId(id),
            site: SiteId(site),
            total_cores: 8,
            free_cores: free,
            bound_units: 0,
            remaining_walltime_s: 1000.0,
        })
    };
    let desc =
        UnitDescription::new(1).with_inputs(vec![DataLocation::new(1_000_000, vec![SiteId(0)])]);
    let mut sched = DataAwareScheduler::with_max_wait(3);
    let mut queue = PendingQueue::default();
    queue.push(UnitId(1), desc.priority, desc.cores);

    for pass in 0..10 {
        let out = queue_pass(&mut sched, &mut snaps(0, 0), &mut queue, |_| Some(&desc));
        assert_eq!((out.offered, out.binds.len()), (0, 0), "pass {pass}");
    }
    // Both sites free up at once, the remote one more generously: a unit
    // whose budget had burned would balance load and go remote.
    let out = queue_pass(&mut sched, &mut snaps(1, 4), &mut queue, |_| Some(&desc));
    assert_eq!(out.binds, vec![(UnitId(1), PilotId(1))], "binds local");
}
