//! Property-based tests over the control-plane fabric's rebalance
//! invariants: under arbitrary daemon-kill schedules (crashes and stalls,
//! any ticks, any victims) and arbitrary shard counts, every unit still
//! completes exactly once, the shard-assignment log never hands the same
//! `(shard, epoch)` to two owners, and the whole run replays bit-identically
//! from its seed. Fixed scenarios, FB-1's quick run among them, pin the
//! whole report to a digest.

// The DES digest helpers are unused here: only the fold applies.
#[allow(dead_code)]
mod common;

use pilot_abstraction::core::describe::UnitDescription;
use pilot_abstraction::core::fabric::{
    DaemonKillSchedule, Fabric, FabricConfig, FabricReport, KillMode, ScheduledKill,
};
use pilot_abstraction::core::retry::{FaultPlan, RetryPolicy};
use pilot_abstraction::core::state::UnitState;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn units(n: u64, run_ticks: u64) -> Vec<(UnitDescription, u64)> {
    (0..n)
        .map(|_| (UnitDescription::new(1), run_ticks))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rebalance_is_exactly_once_with_unique_shard_epochs(
        n_daemons in 2usize..6,
        n_shards in 1u32..12,
        n_units in 40u64..200,
        run_ticks in 2u64..12,
        seed in 0u64..1_000,
        raw_kills in prop::collection::vec((1u64..300, 0u64..8, 0u64..2), 0..4),
        unit_fault_p in 0.0f64..0.15,
    ) {
        let kills: Vec<ScheduledKill> = raw_kills
            .iter()
            .map(|&(tick, victim, mode)| ScheduledKill {
                tick,
                daemon: (victim as usize) % n_daemons,
                mode: if mode == 0 { KillMode::Crash } else { KillMode::Stall },
            })
            .collect();
        let config = FabricConfig {
            n_daemons,
            n_shards,
            pilots_per_shard: 2,
            cores_per_pilot: 4,
            seed,
            kills,
            faults: FaultPlan::none().with_unit_failures(unit_fault_p),
            // A generous budget: the property is exactly-once bookkeeping,
            // not whether a hostile fault rate can exhaust retries.
            retry: RetryPolicy::fixed(10, 0.01),
            ..FabricConfig::default()
        };

        let report = Fabric::run(&config, units(n_units, run_ticks));

        // Every unit reaches exactly one terminal state; nothing is lost to
        // a dead manager and nothing completes twice behind a stale epoch.
        prop_assert_eq!(report.lost, 0, "lost units: {:?}", &report);
        prop_assert_eq!(report.duplicates, 0, "duplicate completions: {:?}", &report);
        prop_assert_eq!(
            report.completed + report.exhausted,
            report.total_units,
            "terminal-state accounting broke: {:?}",
            &report
        );

        // The event stream says what the counters say, exactly once: no
        // fenced report of a deposed daemon ever reaches it.
        let tables = common::fold(&report.events);
        let dash = tables.dashboard();
        prop_assert_eq!(dash.units_in(UnitState::Done), report.completed);
        prop_assert_eq!(dash.units_in(UnitState::Failed), report.exhausted);
        prop_assert_eq!(dash.exec_count, report.completed);
        prop_assert_eq!(dash.units_by_state.iter().sum::<u64>(), report.total_units);
        // Every re-entry into `Pending` is a granted retry or a free
        // re-dispatch.
        prop_assert_eq!(
            common::requeues(&report.events) as u64,
            report.retries_charged - report.exhausted + report.free_redispatches
        );

        // The assignment log is an exclusive-ownership history: no two
        // daemons ever own the same shard at the same epoch, and each
        // shard's epochs strictly increase.
        let mut seen: HashSet<(u32, u64)> = HashSet::new();
        let mut last_epoch: HashMap<u32, u64> = HashMap::new();
        for a in &report.assignment_log {
            prop_assert!(
                seen.insert((a.shard, a.epoch)),
                "(shard {}, epoch {}) assigned twice",
                a.shard,
                a.epoch
            );
            if let Some(&prev) = last_epoch.get(&a.shard) {
                prop_assert!(
                    a.epoch > prev,
                    "shard {} epoch went {} -> {}",
                    a.shard,
                    prev,
                    a.epoch
                );
            }
            last_epoch.insert(a.shard, a.epoch);
        }

        // Every kill the driver applied on a live fabric is either survived
        // (declared + rebalanced) or irrelevant (landed after completion) —
        // but a declared death always moved the dead daemon's shards.
        for ev in &report.rebalances {
            prop_assert!(ev.declared_tick >= ev.last_heartbeat_tick);
        }

        // Determinism: the identical config replays the identical run,
        // kill schedule, fault draws, fencing counters and all.
        let replay = Fabric::run(&config, units(n_units, run_ticks));
        prop_assert_eq!(
            format!("{:?}", &report),
            format!("{:?}", &replay),
            "replay diverged"
        );
    }
}

/// FNV-1a over every event's encoding, then over the report's `Debug` form
/// (every counter, the kill, rebalance and assignment logs; floats in their
/// shortest exact form).
fn fabric_digest(report: &FabricReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ev in &report.events {
        mix(&ev.encode());
    }
    mix(format!("{report:?}").as_bytes());
    h
}

/// FB-1's quick configuration (`pilot-bench` `experiments/fb.rs`): a daemon
/// drawn from the `DAEMON_KILL` stream stalls mid-run.
fn fb1_quick() -> FabricReport {
    let (n_daemons, n_shards, pilots_per_shard, cores_per_pilot) = (4, 8, 4, 8);
    let (n_units, run_ticks, seed) = (2_000u64, 20u64, 0x4b30);
    let mut config = FabricConfig {
        n_daemons,
        n_shards,
        pilots_per_shard,
        cores_per_pilot,
        tick_s: 0.01,
        heartbeat_every: 5,
        lapse_ticks: 15,
        max_ticks: 1_000_000,
        seed,
        faults: FaultPlan::none().with_daemon_kills(600.0),
        retry: RetryPolicy::fixed(4, 0.05),
        ..FabricConfig::default()
    };
    let schedule = DaemonKillSchedule::from_plan(&config.faults, seed, n_daemons, config.tick_s);
    let victim = schedule
        .ticks
        .iter()
        .enumerate()
        .filter_map(|(d, t)| t.map(|tick| (tick, d)))
        .min()
        .map_or(0, |(_, d)| d);
    let total_cores = u64::from(n_shards * pilots_per_shard * cores_per_pilot);
    let kill_tick = (n_units.div_ceil(total_cores) * run_ticks / 2).max(1);
    config.faults = FaultPlan::none();
    config.kills = vec![ScheduledKill {
        tick: kill_tick,
        daemon: victim,
        mode: KillMode::Stall,
    }];
    Fabric::run(&config, units(n_units, run_ticks))
}

#[test]
fn fixed_scenarios_are_pinned() {
    let faulty = FabricConfig {
        seed: 7,
        faults: FaultPlan::none().with_unit_failures(0.1),
        // Jittered backoff: every retry draws from the BACKOFF_JITTER stream.
        retry: RetryPolicy::exponential(6, 0.01, 2.0, 0.5).with_jitter(0.5),
        ..FabricConfig::default()
    };
    let killed = FabricConfig {
        n_daemons: 4,
        n_shards: 6,
        kills: vec![
            ScheduledKill {
                tick: 20,
                daemon: 1,
                mode: KillMode::Crash,
            },
            ScheduledKill {
                tick: 45,
                daemon: 2,
                mode: KillMode::Stall,
            },
        ],
        ..faulty.clone()
    };
    let runs = [
        (
            "default",
            Fabric::run(&FabricConfig::default(), units(150, 4)),
            0xf1bf_7c58_0839_b2deu64,
        ),
        (
            "faulty",
            Fabric::run(&faulty, units(300, 6)),
            0x1b76_a113_0edd_9d25,
        ),
        (
            "killed",
            Fabric::run(&killed, units(300, 6)),
            0xd1a6_d5bf_ad14_b040,
        ),
        ("fb1-quick", fb1_quick(), 0xcb0c_4b3c_7557_48f2),
    ];
    for (name, report, pinned) in runs {
        assert_eq!(report.lost, 0, "{name}: lost units");
        assert!(
            name == "default" || report.retries_charged > 0,
            "{name}: no retry was charged"
        );
        let got = fabric_digest(&report);
        assert_eq!(
            got, pinned,
            "{name}: digest {got:#018x}, pinned {pinned:#018x}"
        );
    }
}
