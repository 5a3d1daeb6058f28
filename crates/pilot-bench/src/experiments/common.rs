//! Shared builders for experiment setups.

use pilot_core::describe::PilotDescription;
use pilot_core::scheduler::Scheduler;
use pilot_core::thread::ThreadPilotService;
use pilot_infra::cloud::{CloudConfig, CloudProvider};
use pilot_infra::hpc::{BackgroundLoad, HpcCluster, HpcConfig};
use pilot_infra::htc::{HtcConfig, HtcPool};
use pilot_infra::yarn::{YarnCluster, YarnConfig};
use pilot_saga::ResourceAdaptor;
use pilot_sim::{Dist, SimDuration};

/// Held by the quick-mode tests that assert timing floors (ST-1, QP-1, QP-2).
/// `cargo test` runs one binary's tests on parallel threads; a throughput
/// model or a ratio fitted while another experiment's threads take the cores
/// in bursts measures the neighbour, not the code.
#[cfg(test)]
pub(crate) fn timing_floor_guard() -> std::sync::MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A floor that failed in one test says nothing about the next one.
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A threaded service with one active pilot of `cores`.
pub fn thread_service(cores: u32, scheduler: Box<dyn Scheduler>) -> ThreadPilotService {
    let svc = ThreadPilotService::new(scheduler);
    let p = svc.submit_pilot(PilotDescription::new(cores, SimDuration::MAX).labeled("exp"));
    assert!(svc.wait_pilot_active(p), "pilot must activate");
    svc
}

/// A quiet HPC adaptor.
pub fn quiet_hpc(name: &str, cores: u32) -> ResourceAdaptor {
    ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(name, cores)))
}

/// An HPC adaptor with background load at the given utilization.
pub fn busy_hpc(name: &str, cores: u32, utilization: f64, seed: u64) -> ResourceAdaptor {
    let bg = BackgroundLoad::at_utilization(
        utilization,
        cores,
        Dist::uniform(4.0, 32.0),
        Dist::exponential(1800.0),
    );
    let mut cfg = HpcConfig::quiet(name, cores).with_background(bg);
    cfg.seed = seed;
    ResourceAdaptor::hpc(HpcCluster::new(cfg))
}

/// A reliable HTC pool adaptor.
pub fn htc_pool(name: &str, slots: u32) -> ResourceAdaptor {
    ResourceAdaptor::htc(HtcPool::new(HtcConfig::reliable(name, slots)))
}

/// A generic cloud adaptor.
pub fn cloud(name: &str, capacity: u32) -> ResourceAdaptor {
    ResourceAdaptor::cloud(CloudProvider::new(CloudConfig::generic(name, capacity)))
}

/// A YARN adaptor.
pub fn yarn(name: &str, vcores: u32) -> ResourceAdaptor {
    ResourceAdaptor::yarn(YarnCluster::new(YarnConfig::new(name, vcores)))
}

/// Print and return.
pub fn emit(report: String) -> String {
    println!("{report}");
    report
}
