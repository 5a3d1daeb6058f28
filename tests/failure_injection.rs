//! Failure-injection integration tests: panicking kernels, dying pilots,
//! unreliable infrastructure, corrupt payloads — the system must degrade
//! without losing accounting invariants.

mod common;

use pilot_abstraction::apps::lightsource::reconstruct;
use pilot_abstraction::core::describe::{PilotDescription, UnitDescription};
use pilot_abstraction::core::retry::{FaultPlan, RetryPolicy};
use pilot_abstraction::core::scheduler::FirstFitScheduler;
use pilot_abstraction::core::sim::SimPilotSystem;
use pilot_abstraction::core::state::UnitState;
use pilot_abstraction::core::thread::{kernel_fn, TaskError, TaskOutput, ThreadPilotService};
use pilot_abstraction::infra::hpc::{HpcCluster, HpcConfig};
use pilot_abstraction::infra::htc::{HtcConfig, HtcPool};
use pilot_abstraction::saga::ResourceAdaptor;
use pilot_abstraction::sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

#[test]
fn a_storm_of_panics_leaves_the_service_consistent() {
    let svc = ThreadPilotService::new(Box::new(FirstFitScheduler));
    let p = svc.submit_pilot(PilotDescription::new(2, SimDuration::MAX));
    assert!(svc.wait_pilot_active(p));
    let units: Vec<_> = (0..20)
        .map(|i| {
            svc.submit_unit(
                UnitDescription::new(1),
                kernel_fn(move |_| {
                    if i % 3 == 0 {
                        panic!("task {i} exploded");
                    }
                    Ok(TaskOutput::of(i))
                }),
            )
        })
        .collect();
    let mut done = 0;
    let mut failed = 0;
    for u in units {
        match svc.wait_unit(u).unwrap().state {
            UnitState::Done => done += 1,
            UnitState::Failed => failed += 1,
            s => panic!("unexpected state {s}"),
        }
    }
    assert_eq!(failed, 7); // i = 0,3,6,9,12,15,18
    assert_eq!(done, 13);
    // The pilot survived and still works.
    let after = svc.submit_unit(
        UnitDescription::new(1),
        kernel_fn(|_| Ok(TaskOutput::none())),
    );
    assert_eq!(svc.wait_unit(after).unwrap().state, UnitState::Done);
    svc.shutdown();
}

#[test]
fn kernel_errors_carry_their_messages() {
    let svc = ThreadPilotService::new(Box::new(FirstFitScheduler));
    let p = svc.submit_pilot(PilotDescription::new(1, SimDuration::MAX));
    assert!(svc.wait_pilot_active(p));
    let u = svc.submit_unit(
        UnitDescription::new(1),
        kernel_fn(|_| Err(TaskError("input checksum mismatch".into()))),
    );
    let out = svc.wait_unit(u).unwrap();
    assert_eq!(out.state, UnitState::Failed);
    let err = out.output.unwrap().unwrap_err();
    assert!(err.0.contains("checksum"));
    svc.shutdown();
}

#[test]
fn retry_wrapper_pattern_recovers_flaky_kernels() {
    // Applications implement retries *above* the API: resubmit on failure.
    let svc = ThreadPilotService::new(Box::new(FirstFitScheduler));
    let p = svc.submit_pilot(PilotDescription::new(2, SimDuration::MAX));
    assert!(svc.wait_pilot_active(p));
    let attempts = Arc::new(AtomicU32::new(0));
    let flaky = |attempts: Arc<AtomicU32>| {
        kernel_fn(move |_| {
            // Fails twice, then succeeds.
            if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(TaskError("transient".into()))
            } else {
                Ok(TaskOutput::of(99u8))
            }
        })
    };
    let mut result = None;
    for _ in 0..5 {
        let u = svc.submit_unit(UnitDescription::new(1), flaky(Arc::clone(&attempts)));
        let out = svc.wait_unit(u).unwrap();
        if out.state == UnitState::Done {
            result = out
                .output
                .unwrap()
                .ok()
                .and_then(|o| o.downcast::<u8>().ok());
            break;
        }
    }
    assert_eq!(result, Some(99));
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
    svc.shutdown();
}

#[test]
fn sim_pilot_walltime_cascade_never_strands_units() {
    // Pilots with staggered, short walltimes die under the workload; a
    // long-lived one eventually finishes everything.
    let mut sys = SimPilotSystem::new(31);
    let site = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
        "h", 64,
    ))));
    for i in 0..3 {
        sys.submit_pilot(
            SimTime::from_secs(i * 50),
            site,
            PilotDescription::new(8, SimDuration::from_secs(400)),
        );
    }
    sys.submit_pilot(
        SimTime::from_secs(1000),
        site,
        PilotDescription::new(8, SimDuration::from_hours(10)).labeled("stable"),
    );
    for _ in 0..40 {
        sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 300.0);
    }
    let report = sys.run(SimTime::from_hours(10));
    common::assert_fold_matches(&report);
    common::assert_digest(&report, 0x8553_0b01_ff8b_02ea);
    assert_eq!(report.count(UnitState::Done), 40);
    assert_eq!(report.count(UnitState::Failed), 0);
    assert_eq!(report.count(UnitState::Canceled), 0);
}

#[test]
fn very_unreliable_htc_still_converges() {
    // MTBF shorter than the task duration: most attempts die; requeue +
    // retry still drains the workload (it just takes many attempts).
    let mut sys = SimPilotSystem::new(37);
    let site = sys.add_resource(ResourceAdaptor::htc(HtcPool::new(
        HtcConfig::reliable("chaos", 24).with_failures(500.0),
    )));
    sys.submit_pilot(
        SimTime::ZERO,
        site,
        PilotDescription::new(24, SimDuration::from_hours(48)),
    );
    for _ in 0..30 {
        sys.submit_unit_fixed(SimTime::ZERO, UnitDescription::new(1), 350.0);
    }
    let report = sys.run(SimTime::from_hours(48));
    common::assert_fold_matches(&report);
    common::assert_digest(&report, 0x1ee7_3499_63bf_6fb0);
    assert_eq!(report.count(UnitState::Done), 30);
    let requeues = common::requeues(&report.events);
    assert!(requeues > 0, "expected churn under MTBF 500s / 350s tasks");
}

#[test]
fn corrupt_stream_payloads_are_rejected_not_fatal() {
    assert!(reconstruct(b"garbage", 10.0).is_none());
    assert!(reconstruct(&[], 10.0).is_none());
    // Truncated header.
    assert!(reconstruct(&[0, 0, 0], 10.0).is_none());
    // Length field lies about the payload.
    let mut lying = Vec::new();
    lying.extend_from_slice(&100u32.to_le_bytes());
    lying.extend_from_slice(&100u32.to_le_bytes());
    lying.extend_from_slice(&[0u8; 16]);
    assert!(reconstruct(&lying, 10.0).is_none());
}

#[test]
fn injected_pilot_crashes_recover_with_retry_and_replay_byte_identically() {
    // The acceptance scenario for the reliability layer: a crash-ridden run
    // with a retry policy completes every unit, the same seed replays the
    // fault schedule byte-for-byte, and the identical workload with retries
    // disabled loses units.
    let run = |retry: RetryPolicy| {
        let mut sys = SimPilotSystem::new(0xC4A5);
        sys.set_fault_plan(FaultPlan::none().with_pilot_crashes(600.0));
        let site = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
            "h", 64,
        ))));
        // Staggered pilots: the crash schedule thins the early ones, the
        // late ones supply re-binding capacity.
        for k in 0..8u64 {
            sys.submit_pilot(
                SimTime::from_secs(k * 240),
                site,
                PilotDescription::new(8, SimDuration::from_hours(12)),
            );
        }
        for i in 0..32u64 {
            sys.submit_unit_fixed(
                SimTime::from_secs(i * 5),
                UnitDescription::new(1).with_retry(retry),
                240.0,
            );
        }
        let report = sys.run(SimTime::from_hours(24));
        common::assert_fold_matches(&report);
        report
    };

    let a = run(RetryPolicy::fixed(6, 5.0));
    common::assert_digest(&a, 0x2336_8619_bbed_9b0d);
    assert!(
        a.reliability.pilot_crashes > 0,
        "crashes must actually fire"
    );
    assert_eq!(a.count(UnitState::Done), 32, "retry completes every unit");
    assert_eq!(a.count(UnitState::Failed), 0);

    // Byte-identical replay under the same seed.
    let b = run(RetryPolicy::fixed(6, 5.0));
    assert!(a.events == b.events, "identical transitions");
    assert_eq!(a.reliability, b.reliability);
    for (ua, ub) in a.units.iter().zip(b.units.iter()) {
        assert_eq!(ua.unit, ub.unit);
        assert_eq!(ua.state, ub.state);
        assert_eq!(ua.times, ub.times, "unit {} times differ", ua.unit);
    }

    // Same workload, retries disabled: the crash schedule is identical
    // (per-pilot RNG streams) but failed attempts are terminal.
    let c = run(RetryPolicy::none());
    common::assert_digest(&c, 0x5df6_009a_5f67_c149);
    assert_eq!(c.reliability.pilot_crashes, a.reliability.pilot_crashes);
    assert!(
        c.count(UnitState::Failed) > 0,
        "fail-fast must lose units the retry run recovered"
    );
    assert_eq!(c.reliability.requeues, 0);
}

#[test]
fn thread_backend_fault_plan_retries_injected_kernel_faults() {
    // The threaded backend shares the fault plan: injected kernel faults
    // fail attempts, the retry policy re-binds them, and the workload still
    // drains. Timings are wall-clock but the draw schedule is seeded.
    let svc = ThreadPilotService::with_faults(
        Box::new(FirstFitScheduler),
        FaultPlan::none().with_unit_failures(0.4),
        7,
    );
    let p = svc.submit_pilot(PilotDescription::new(4, SimDuration::MAX));
    assert!(svc.wait_pilot_active(p));
    let units: Vec<_> = (0..12)
        .map(|i| {
            svc.submit_unit(
                UnitDescription::new(1).with_retry(RetryPolicy::fixed(8, 0.005)),
                kernel_fn(move |_| Ok(TaskOutput::of(i))),
            )
        })
        .collect();
    for u in units {
        assert_eq!(svc.wait_unit(u).unwrap().state, UnitState::Done);
    }
    let report = svc.shutdown();
    assert!(
        report.reliability.injected_unit_faults > 0,
        "p=0.4 over 12 units should inject at least one fault"
    );
    assert_eq!(
        report.reliability.requeues, report.reliability.injected_unit_faults,
        "every injected fault is retried"
    );
}
