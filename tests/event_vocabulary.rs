//! One event vocabulary across the three control planes. The same 64
//! fault-free one-core units run on the DES backend, on the control-plane
//! fabric and on the thread service; each backend's `ProjEvent` stream,
//! folded through the read plane's tables, lands on the same result.

mod common;

use pilot_abstraction::core::describe::{PilotDescription, UnitDescription};
use pilot_abstraction::core::events::{EventSink, ProjEvent};
use pilot_abstraction::core::fabric::{Fabric, FabricConfig};
use pilot_abstraction::core::scheduler::FirstFitScheduler;
use pilot_abstraction::core::sim::SimPilotSystem;
use pilot_abstraction::core::state::UnitState;
use pilot_abstraction::core::thread::{kernel_fn, TaskOutput, ThreadPilotService};
use pilot_abstraction::infra::hpc::{HpcCluster, HpcConfig};
use pilot_abstraction::saga::ResourceAdaptor;
use pilot_abstraction::sim::{SimDuration, SimTime};
use std::sync::{Arc, Mutex};

const UNITS: usize = 64;

/// Keeps every batch the thread service hands it, in order.
#[derive(Default)]
struct VecSink(Mutex<Vec<ProjEvent>>);

impl EventSink for VecSink {
    fn emit_batch(&self, events: &[ProjEvent]) {
        self.0.lock().unwrap().extend_from_slice(events);
    }
}

fn sim_events() -> Vec<ProjEvent> {
    let mut sys = SimPilotSystem::new(5);
    let site = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
        "hpc", 32,
    ))));
    sys.submit_pilot(
        SimTime::ZERO,
        site,
        PilotDescription::new(8, SimDuration::from_hours(4)),
    );
    for _ in 0..UNITS {
        sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 30.0);
    }
    let report = sys.run(SimTime::from_hours(8));
    common::assert_fold_matches(&report);
    common::assert_digest(&report, 0x481b_4094_8f84_d94a);
    report.events
}

/// The fabric's events. Its `UnitMetric.wait_s` is still a constant 0
/// (`fabric/controller.rs`, `ToController::UnitDone`) and its report keeps
/// no per-unit times, so only the counts below are compared for it.
fn fabric_events() -> Vec<ProjEvent> {
    let units = (0..UNITS).map(|_| (UnitDescription::new(1), 3)).collect();
    Fabric::run(&FabricConfig::default(), units).events
}

/// The thread service's events, checked against its own report: the
/// folded wait and execution sums match the done units' timestamps.
fn thread_events() -> Vec<ProjEvent> {
    let sink = Arc::new(VecSink::default());
    let svc = ThreadPilotService::with_sink(Box::new(FirstFitScheduler), sink.clone());
    let p = svc.submit_pilot(PilotDescription::new(4, SimDuration::MAX));
    assert!(svc.wait_pilot_active(p));
    for _ in 0..UNITS {
        svc.submit_unit(
            UnitDescription::new(1),
            kernel_fn(|_| Ok(TaskOutput::none())),
        );
    }
    svc.wait_all_units();
    let report = svc.shutdown();
    let events = sink.0.lock().unwrap().clone();
    common::assert_metric_sums(&common::fold(&events), &report.done_unit_times());
    events
}

#[test]
fn all_three_backends_fold_to_the_same_result() {
    for (backend, events) in [
        ("sim", sim_events()),
        ("fabric", fabric_events()),
        ("thread", thread_events()),
    ] {
        let tables = common::fold(&events);
        let dash = tables.dashboard();
        let count = |s| dash.units_in(s);
        assert_eq!(count(UnitState::Pending), 0, "{backend}: pending");
        assert_eq!(count(UnitState::Running), 0, "{backend}: running");
        assert_eq!(count(UnitState::Failed), 0, "{backend}: failed");
        assert_eq!(count(UnitState::Done), UNITS as u64, "{backend}: done");
        assert_eq!(dash.exec_count, UNITS as u64, "{backend}: metrics");
        assert_eq!(common::requeues(&events), 0, "{backend}: requeues");
    }
}
