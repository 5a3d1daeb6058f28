//! End-to-end integration of the simulated backend: whole-system determinism,
//! cross-infrastructure runs, failure recovery, and adaptive policies.

mod common;

use pilot_abstraction::core::describe::{PilotDescription, UnitDescription};
use pilot_abstraction::core::events::ProjEvent;
use pilot_abstraction::core::sim::{ScaleOutPolicy, SimPilotSystem};
use pilot_abstraction::core::state::UnitState;
use pilot_abstraction::infra::cloud::{CloudConfig, CloudProvider};
use pilot_abstraction::infra::hpc::{BackgroundLoad, HpcCluster, HpcConfig};
use pilot_abstraction::infra::htc::{HtcConfig, HtcPool};
use pilot_abstraction::saga::ResourceAdaptor;
use pilot_abstraction::sim::{Dist, SimDuration, SimTime};
use std::collections::HashMap;

fn full_system(seed: u64) -> SimPilotSystem {
    let mut sys = SimPilotSystem::new(seed);
    let bg =
        BackgroundLoad::at_utilization(0.6, 64, Dist::uniform(2.0, 16.0), Dist::exponential(900.0));
    let hpc = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(
        HpcConfig::quiet("hpc", 64).with_background(bg),
    )));
    let htc = sys.add_resource(ResourceAdaptor::htc(HtcPool::new(
        HtcConfig::reliable("osg", 32).with_failures(3600.0),
    )));
    let cloud = sys.add_resource(ResourceAdaptor::cloud(CloudProvider::new(
        CloudConfig::generic("aws", 128),
    )));
    sys.submit_pilot(
        SimTime::ZERO,
        hpc,
        PilotDescription::new(16, SimDuration::from_hours(6)),
    );
    sys.submit_pilot(
        SimTime::ZERO,
        htc,
        PilotDescription::new(16, SimDuration::from_hours(6)),
    );
    sys.submit_pilot(
        SimTime::ZERO,
        cloud,
        PilotDescription::new(32, SimDuration::from_hours(6)),
    );
    for i in 0..120 {
        sys.submit_unit(
            SimTime::from_secs(i * 5),
            UnitDescription::new(1),
            Dist::exponential(120.0),
        );
    }
    sys
}

#[test]
fn whole_system_run_is_deterministic() {
    let digest = |seed| {
        let report = full_system(seed).run(SimTime::from_hours(24));
        common::assert_fold_matches(&report);
        let mut acc = Vec::new();
        for u in &report.units {
            acc.push(format!(
                "{:?}:{:?}:{:?}:{:?}",
                u.unit, u.state, u.pilot, u.times.finished
            ));
        }
        (acc, report.events)
    };
    assert_eq!(digest(1), digest(1));
    assert_ne!(digest(1).0, digest(2).0);
    for (seed, pinned) in [(1, 0x5415_7585_0391_d4beu64), (2, 0xbadd_b4c4_6f6c_f40d)] {
        common::assert_digest(&full_system(seed).run(SimTime::from_hours(24)), pinned);
    }
}

#[test]
fn mixed_infrastructure_completes_everything() {
    let report = full_system(7).run(SimTime::from_hours(24));
    common::assert_fold_matches(&report);
    common::assert_digest(&report, 0x0e75_79ea_2389_6982);
    assert_eq!(report.count(UnitState::Done), 120);
    // All three pilots contributed.
    let mut used: Vec<_> = report.units.iter().filter_map(|u| u.pilot).collect();
    used.sort();
    used.dedup();
    assert!(used.len() >= 2, "work should spread over pilots: {used:?}");
    // Causal timestamps, virtual time.
    for u in &report.units {
        let t = u.times;
        assert!(t.submitted <= t.bound.unwrap());
        assert!(t.bound.unwrap() <= t.started.unwrap());
        assert!(t.started.unwrap() <= t.finished.unwrap());
    }
}

#[test]
fn htc_slot_failures_do_not_lose_units() {
    let mut sys = SimPilotSystem::new(11);
    let htc = sys.add_resource(ResourceAdaptor::htc(HtcPool::new(
        HtcConfig::reliable("flaky", 16).with_failures(600.0),
    )));
    sys.submit_pilot(
        SimTime::ZERO,
        htc,
        PilotDescription::new(16, SimDuration::from_hours(12)),
    );
    for _ in 0..60 {
        sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 400.0);
    }
    let report = sys.run(SimTime::from_hours(48));
    common::assert_fold_matches(&report);
    common::assert_digest(&report, 0x3a47_4c9f_3e59_aadf);
    assert_eq!(
        report.count(UnitState::Done),
        60,
        "every unit must finish despite failures"
    );
    // Failures actually happened: a unit went back to `Pending`, or a
    // pilot's capacity fell.
    let mut total = HashMap::new();
    let capacity_drops = report
        .events
        .iter()
        .filter(|ev| match ev {
            ProjEvent::PilotCapacity {
                pilot, total_cores, ..
            } => total
                .insert(*pilot, *total_cores)
                .is_some_and(|before| *total_cores < before),
            _ => false,
        })
        .count();
    assert!(
        common::requeues(&report.events) > 0 || capacity_drops > 0,
        "expected at least one failure event at MTBF 600s with 400s tasks"
    );
}

#[test]
fn a_capacity_drop_rebinds_onto_free_cores_at_once() {
    // Eight long units fill a flaky HTC glide-in (the lower pilot id, so
    // first-fit prefers it) while a cloud pilot holds 32 free cores. With
    // no unit faults and walltimes past the last finish, every re-entry
    // into `Pending` is a capacity drop's rebind, and the cloud pilot can
    // take it: the unit's next `Assigned` is at the drop's instant.
    let mut sys = SimPilotSystem::new(5);
    let htc = sys.add_resource(ResourceAdaptor::htc(HtcPool::new(
        HtcConfig::reliable("flaky", 8).with_failures(900.0),
    )));
    let cloud = sys.add_resource(ResourceAdaptor::cloud(CloudProvider::new(
        CloudConfig::generic("aws", 64),
    )));
    let walltime = SimDuration::from_hours(12);
    sys.submit_pilot(SimTime::ZERO, htc, PilotDescription::new(8, walltime));
    sys.submit_pilot(SimTime::ZERO, cloud, PilotDescription::new(32, walltime));
    for _ in 0..8 {
        sys.submit_unit_fixed(SimTime::from_secs(1_800), UnitDescription::new(1), 3_000.0);
    }
    let report = sys.run(SimTime::from_hours(24));
    common::assert_fold_matches(&report);
    assert_eq!(report.count(UnitState::Done), 8);

    let mut drops = Vec::new();
    let mut total = HashMap::new();
    for ev in &report.events {
        if let ProjEvent::PilotCapacity {
            pilot,
            total_cores,
            t_s,
            ..
        } = ev
        {
            if total
                .insert(*pilot, *total_cores)
                .is_some_and(|before| *total_cores < before)
            {
                drops.push(*t_s);
            }
        }
    }
    let mut pending = HashMap::new();
    let mut rebinds = 0;
    for (i, ev) in report.events.iter().enumerate() {
        let ProjEvent::Unit {
            unit,
            state: UnitState::Pending,
            t_s,
            ..
        } = ev
        else {
            continue;
        };
        if pending.insert(*unit, *t_s).is_none() {
            continue;
        }
        rebinds += 1;
        assert!(
            drops.contains(t_s),
            "unit {unit} rebound at {t_s} s, no drop"
        );
        let next = report.events[i..].iter().find_map(|ev| match ev {
            ProjEvent::Unit {
                unit: u,
                state: UnitState::Assigned,
                t_s,
                ..
            } if u == unit => Some(*t_s),
            _ => None,
        });
        assert_eq!(
            next,
            Some(*t_s),
            "unit {unit}, rebound at {t_s} s, waited for its next bind"
        );
    }
    assert!(rebinds > 0, "no capacity drop rebound a unit");
}

#[test]
fn scale_out_policy_is_bounded() {
    let mut sys = SimPilotSystem::new(13);
    let hpc = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
        "h", 64,
    ))));
    let cloud = sys.add_resource(ResourceAdaptor::cloud(CloudProvider::new(
        CloudConfig::generic("c", 1024),
    )));
    sys.submit_pilot(
        SimTime::ZERO,
        hpc,
        PilotDescription::new(8, SimDuration::from_hours(24)),
    );
    sys.set_scale_out(ScaleOutPolicy {
        check_every: SimDuration::from_secs(30),
        queue_threshold: 5,
        burst_site: cloud,
        pilot: PilotDescription::new(32, SimDuration::from_hours(4)).labeled("burst"),
        max_extra: 3,
    });
    for _ in 0..500 {
        sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 200.0);
    }
    let report = sys.run(SimTime::from_hours(48));
    common::assert_fold_matches(&report);
    common::assert_digest(&report, 0x4f36_ca6c_50fe_1aa7);
    assert_eq!(report.count(UnitState::Done), 500);
    let bursts = report.pilots.iter().filter(|p| p.label == "burst").count();
    assert_eq!(bursts, 3, "policy must respect max_extra");
}

#[test]
fn cancel_pilot_mid_run_requeues_to_survivor() {
    let mut sys = SimPilotSystem::new(17);
    let site = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
        "h", 64,
    ))));
    let doomed = sys.submit_pilot(
        SimTime::ZERO,
        site,
        PilotDescription::new(8, SimDuration::from_hours(12)).labeled("doomed"),
    );
    sys.submit_pilot(
        SimTime::from_secs(500),
        site,
        PilotDescription::new(8, SimDuration::from_hours(12)).labeled("survivor"),
    );
    for _ in 0..16 {
        sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 600.0);
    }
    sys.cancel_pilot(SimTime::from_secs(300), doomed);
    let report = sys.run(SimTime::from_hours(12));
    common::assert_fold_matches(&report);
    common::assert_digest(&report, 0xc406_b781_6adc_55cc);
    assert_eq!(report.count(UnitState::Done), 16);
    let survivor = report
        .pilots
        .iter()
        .find(|p| p.label == "survivor")
        .unwrap()
        .pilot;
    // Everything finished on the survivor (doomed died before any 600 s task
    // could complete).
    assert!(report.units.iter().all(|u| u.pilot == Some(survivor)));
}

#[test]
fn virtual_time_is_decoupled_from_wall_time() {
    // A week of simulated activity must run in well under a second of CPU.
    let t0 = std::time::Instant::now();
    let mut sys = SimPilotSystem::new(23);
    sys.disable_trace();
    let site = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
        "h", 128,
    ))));
    sys.submit_pilot(
        SimTime::ZERO,
        site,
        PilotDescription::new(64, SimDuration::from_hours(200)),
    );
    for i in 0..2000 {
        sys.submit_unit(
            SimTime::from_secs(i * 60),
            UnitDescription::new(1),
            Dist::exponential(1800.0),
        );
    }
    let report = sys.run(SimTime::from_hours(24 * 7));
    assert!(report.events.is_empty(), "emission was switched off");
    common::assert_digest(&report, 0x7eca_438f_afe0_53c0);
    assert_eq!(report.count(UnitState::Done), 2000);
    assert!(report.makespan() > 100_000.0, "covers days of virtual time");
    assert!(
        t0.elapsed().as_secs_f64() < 10.0,
        "simulation too slow: {:?}",
        t0.elapsed()
    );
}
