//! Control-plane fabric: a sharded controller / host-daemon split.
//!
//! Both execution backends run a single pilot-manager in one process — the
//! whole system dies with it and the scheduler caps out at one machine. The
//! fabric is the distributed pilot-manager the P\* model calls for: a
//! controller owning placement and epoch-fenced shard assignment, plus N
//! host daemons each running shards of pilots and units, exchanging
//! heartbeats over process-local channels. Each shard a daemon runs is one
//! `crate::ledger::Ledger` — the units, pilots and late-binding pass the
//! thread service and the DES backend drive — with its events off: the
//! controller records the fabric's events. When a daemon's heartbeats
//! lapse the controller declares it dead, moves its shards under
//! a bumped assignment epoch, and re-drives in-flight units with RB-1
//! semantics extended to manager crashes; stale owners keep reporting and
//! every such report is fenced — counted, never applied.
//!
//! The whole fabric is stepped on logical ticks from a single thread
//! ([`Fabric::run`]): daemons in index order, then the controller. Daemon
//! kills come from the [`crate::retry::FaultPlan`]'s `host_daemon_mtbf_s`
//! through the reserved [`crate::retry::streams::DAEMON_KILL`] stream
//! ([`DaemonKillSchedule`]), or from an explicit [`ScheduledKill`] list —
//! either way replays kill the same daemons at the same ticks, exactly like
//! RB-2's broker kills.

// lint: deterministic — this module must stay replayable: no wall-clock reads

mod controller;
mod daemon;
mod transport;

pub use controller::{RebalanceEvent, ShardAssignment};
pub use daemon::KillMode;

use controller::Controller;
use daemon::HostDaemon;

use pilot_sim::SimRng;

use crate::binding::BindStats;
use crate::describe::UnitDescription;
use crate::ids::UnitId;
use crate::retry::{streams, FaultPlan, RetryPolicy};
use crate::scheduler::{FirstFitScheduler, Scheduler};

/// A unit as the fabric dispatches it: description plus the synthetic
/// execution model (ticks of pilot occupancy) and the attempt number this
/// dispatch represents (keys the deterministic fault draw).
#[derive(Clone, Debug)]
struct FabricUnit {
    /// Unit id (assigned by the controller at submission).
    id: UnitId,
    /// Cores, priority, retry policy.
    desc: UnitDescription,
    /// Ticks the unit occupies its cores once bound.
    run_ticks: u64,
    /// Zero-based attempt number (retry budget charged so far).
    attempt: u32,
}

/// A daemon kill injected at a fixed tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledKill {
    /// Tick the kill lands on.
    pub tick: u64,
    /// Victim daemon index.
    pub daemon: usize,
    /// Crash (hard halt) or Stall (zombie without heartbeats).
    pub mode: KillMode,
}

/// Deterministic daemon-kill times derived from a [`FaultPlan`], mirroring
/// the replicated broker's `KillSchedule`: daemon `i`'s kill tick is an
/// exponential draw with the plan's `host_daemon_mtbf_s` from the reserved
/// [`streams::DAEMON_KILL`] stream. Same plan, same seed, same kills.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DaemonKillSchedule {
    /// Kill tick per daemon (`None` = never killed).
    pub ticks: Vec<Option<u64>>,
}

impl DaemonKillSchedule {
    /// Draw the schedule for `daemons` daemons at `tick_s` seconds per tick.
    pub fn from_plan(plan: &FaultPlan, seed: u64, daemons: usize, tick_s: f64) -> Self {
        let ticks = (0..daemons)
            .map(|i| {
                plan.host_daemon_mtbf_s.map(|mtbf| {
                    let mut rng =
                        SimRng::new(seed).stream(streams::keyed(streams::DAEMON_KILL, i as u64, 0));
                    let t_s = rng.exponential(mtbf);
                    ((t_s / tick_s).ceil() as u64).max(1)
                })
            })
            .collect();
        DaemonKillSchedule { ticks }
    }

    /// The schedule as explicit kills, all using `mode`.
    pub fn scheduled(&self, mode: KillMode) -> Vec<ScheduledKill> {
        self.ticks
            .iter()
            .enumerate()
            .filter_map(|(daemon, t)| t.map(|tick| ScheduledKill { tick, daemon, mode }))
            .collect()
    }
}

/// Fabric topology and policy knobs.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Host daemons (simulated nodes running shards).
    pub n_daemons: usize,
    /// Shards, assigned round-robin at bootstrap.
    pub n_shards: u32,
    /// Pilots per shard.
    pub pilots_per_shard: u32,
    /// Cores per pilot.
    pub cores_per_pilot: u32,
    /// Seconds of virtual time per tick (converts retry backoff to ticks).
    pub tick_s: f64,
    /// Daemons heartbeat every this many ticks.
    pub heartbeat_every: u64,
    /// Heartbeat silence beyond this many ticks declares a daemon dead.
    pub lapse_ticks: u64,
    /// Hard stop for the tick loop.
    pub max_ticks: u64,
    /// Run seed: drives kill schedules, fault draws and backoff jitter.
    pub seed: u64,
    /// Injected faults (unit failures, daemon kills).
    pub faults: FaultPlan,
    /// Retry budget for units whose description carries none.
    pub retry: RetryPolicy,
    /// Per-shard scheduler factory.
    pub scheduler: fn() -> Box<dyn Scheduler>,
    /// Explicit kills, applied in addition to any plan-derived schedule.
    pub kills: Vec<ScheduledKill>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            n_daemons: 4,
            n_shards: 8,
            pilots_per_shard: 4,
            cores_per_pilot: 8,
            tick_s: 0.01,
            heartbeat_every: 5,
            lapse_ticks: 15,
            max_ticks: 100_000,
            seed: 42,
            faults: FaultPlan::none(),
            retry: RetryPolicy::fixed(4, 0.05),
            scheduler: || Box::new(FirstFitScheduler),
            kills: Vec::new(),
        }
    }
}

/// What a fabric run produced.
#[derive(Clone, Debug)]
pub struct FabricReport {
    /// Ticks actually executed.
    pub ticks: u64,
    /// Units submitted.
    pub total_units: u64,
    /// Units completed (exactly-once count).
    pub completed: u64,
    /// Duplicate completions accepted — exactly-once means 0.
    pub duplicates: u64,
    /// Units that ran out of retry budget.
    pub exhausted: u64,
    /// Units in no terminal state when the run ended.
    pub lost: u64,
    /// Stale-epoch `UnitStarted` reports fenced (zombie post-failover
    /// binds).
    pub fenced_binds: u64,
    /// Other stale-epoch reports fenced.
    pub fenced_reports: u64,
    /// Retry attempts charged.
    pub retries_charged: u64,
    /// Free re-dispatches of not-yet-started units after a manager death.
    pub free_redispatches: u64,
    /// Daemons declared dead by heartbeat lapse.
    pub daemons_declared_dead: u64,
    /// Kills applied, as `(tick, daemon)`.
    pub kills_applied: Vec<(u64, usize)>,
    /// Kills skipped to keep at least one daemon alive.
    pub kills_skipped: u64,
    /// Rebalance events with latency breakdowns.
    pub rebalances: Vec<RebalanceEvent>,
    /// Append-only shard-assignment log.
    pub assignment_log: Vec<ShardAssignment>,
    /// Late-binding counters summed over all daemons (stale ones included).
    pub bind_stats: BindStats,
    /// Highest assignment epoch issued.
    pub max_epoch: u64,
    /// Read-plane event ledger (every ledger transition with virtual
    /// timestamps). The fabric itself is deterministic and never touches a
    /// broker; publish this after the run with one batched append
    /// (`pilot_query::publish_events`) to serve fabric dashboards from
    /// projections.
    pub events: Vec<crate::events::ProjEvent>,
}

impl FabricReport {
    /// 0 lost, 0 duplicated — the FB-1 acceptance predicate.
    pub fn exactly_once(&self) -> bool {
        self.lost == 0
            && self.duplicates == 0
            && self.completed + self.exhausted == self.total_units
    }

    /// Worst declared-to-first-bind rebalance latency in ticks (`None` when
    /// no rebalance completed a post-failover bind).
    pub fn max_rebalance_latency_ticks(&self) -> Option<u64> {
        self.rebalances
            .iter()
            .filter_map(|r| {
                r.first_bind_new_epoch_tick
                    .map(|t| t.saturating_sub(r.last_heartbeat_tick))
            })
            .max()
    }
}

/// The single-threaded deterministic driver: bootstraps the topology, steps
/// daemons then controller each tick, applies the kill schedule, and stops
/// when every unit is terminal (or `max_ticks` hits).
pub struct Fabric;

impl Fabric {
    /// Run `units` (description + run-ticks pairs) through the fabric
    /// described by `config`.
    pub fn run(config: &FabricConfig, units: Vec<(UnitDescription, u64)>) -> FabricReport {
        let links = transport::links(config.n_daemons);
        let mut controller = Controller::new(config);
        let mut daemons: Vec<HostDaemon> = (0..config.n_daemons)
            .map(|i| HostDaemon::new(i, config))
            .collect();
        let total_units = units.len() as u64;
        for (desc, run_ticks) in units {
            controller.submit(desc, run_ticks);
        }
        controller.bootstrap(&links.to_daemons);

        let mut kills = config.kills.clone();
        kills.extend(
            DaemonKillSchedule::from_plan(
                &config.faults,
                config.seed,
                config.n_daemons,
                config.tick_s,
            )
            .scheduled(KillMode::Crash),
        );
        kills.sort_by_key(|k| (k.tick, k.daemon));
        let mut kills_applied: Vec<(u64, usize)> = Vec::new();
        let mut kills_skipped = 0u64;
        let mut next_kill = 0usize;

        let mut ticks = 0;
        for tick in 0..config.max_ticks {
            ticks = tick + 1;
            while next_kill < kills.len() && kills[next_kill].tick <= tick {
                let k = kills[next_kill];
                next_kill += 1;
                let unkilled = daemons.iter().filter(|d| d.killed().is_none()).count();
                let fresh = daemons
                    .get(k.daemon)
                    .map(|d| d.killed().is_none())
                    .unwrap_or(false);
                // Keep at least one daemon standing so runs terminate; the
                // rebalance proptest relies on this survivor guarantee.
                if fresh && unkilled <= 1 {
                    kills_skipped += 1;
                    continue;
                }
                if let Some(d) = daemons.get_mut(k.daemon) {
                    if fresh {
                        kills_applied.push((tick, k.daemon));
                    }
                    d.kill(k.mode);
                }
            }
            for (i, d) in daemons.iter_mut().enumerate() {
                d.step(tick, &links.daemon_inboxes[i], &links.to_controller);
            }
            controller.step(tick, &links.controller_inbox, &links.to_daemons);
            if controller.done() {
                break;
            }
        }

        let mut bind_stats = BindStats::default();
        for d in &daemons {
            bind_stats.absorb(&d.bind_stats());
        }
        let stats = controller.stats;
        FabricReport {
            ticks,
            total_units,
            completed: stats.completed,
            duplicates: stats.duplicates,
            exhausted: stats.exhausted,
            lost: controller.lost(),
            fenced_binds: stats.fenced_binds,
            fenced_reports: stats.fenced_reports,
            retries_charged: stats.retries_charged,
            free_redispatches: stats.free_redispatches,
            daemons_declared_dead: stats.daemons_declared_dead,
            kills_applied,
            kills_skipped,
            rebalances: controller.rebalances.clone(),
            assignment_log: controller.assignment_log.clone(),
            events: std::mem::take(&mut controller.events),
            bind_stats,
            max_epoch: controller.max_epoch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(n: u64, cores: u32, run_ticks: u64) -> Vec<(UnitDescription, u64)> {
        (0..n)
            .map(|_| (UnitDescription::new(cores), run_ticks))
            .collect()
    }

    #[test]
    fn healthy_fabric_completes_everything() {
        let config = FabricConfig::default();
        let report = Fabric::run(&config, units(200, 1, 5));
        assert!(report.exactly_once(), "{report:?}");
        assert_eq!(report.completed, 200);
        assert_eq!(report.exhausted, 0);
        assert_eq!(report.fenced_binds, 0);
        assert_eq!(report.daemons_declared_dead, 0);
        assert_eq!(report.max_epoch, 1, "no rebalance, no epoch bumps");
        assert_eq!(
            report.assignment_log.len(),
            config.n_shards as usize,
            "bootstrap assigns each shard once"
        );
        assert!(report.bind_stats.binds >= 200);
    }

    #[test]
    fn crash_kill_rebalances_and_completes_exactly_once() {
        let config = FabricConfig {
            kills: vec![ScheduledKill {
                tick: 10,
                daemon: 1,
                mode: KillMode::Crash,
            }],
            ..FabricConfig::default()
        };
        let report = Fabric::run(&config, units(400, 1, 8));
        assert!(report.exactly_once(), "{report:?}");
        assert_eq!(report.daemons_declared_dead, 1);
        assert_eq!(report.rebalances.len(), 1);
        let ev = report.rebalances[0];
        assert_eq!(ev.daemon, 1);
        assert_eq!(ev.shards_moved, 2, "daemon 1 owned 2 of 8 shards");
        assert!(ev.declared_tick > 10, "death declared after the kill");
        assert!(
            ev.first_bind_new_epoch_tick.is_some(),
            "work resumed under the bumped epoch"
        );
        assert!(report.max_epoch >= 2);
        // Epochs strictly increase per shard; (shard, epoch) never repeats.
        let mut seen = std::collections::HashSet::new();
        for a in &report.assignment_log {
            assert!(seen.insert((a.shard, a.epoch)), "duplicate (shard, epoch)");
        }
    }

    #[test]
    fn stalled_daemon_is_fenced_not_applied() {
        let config = FabricConfig {
            kills: vec![ScheduledKill {
                tick: 10,
                daemon: 0,
                mode: KillMode::Stall,
            }],
            ..FabricConfig::default()
        };
        // Long units: the zombie's work is still in flight when the lapse is
        // declared, so its completions and rebinds land post-failover with a
        // stale epoch.
        let report = Fabric::run(&config, units(400, 1, 30));
        assert!(report.exactly_once(), "{report:?}");
        assert_eq!(report.daemons_declared_dead, 1);
        assert!(
            report.fenced_binds + report.fenced_reports > 0,
            "the zombie kept reporting and every report was fenced: {report:?}"
        );
        assert_eq!(report.duplicates, 0, "fencing is what keeps exactly-once");
    }

    #[test]
    fn kill_schedule_is_deterministic_and_replayable() {
        let plan = FaultPlan::none().with_daemon_kills(30.0);
        let a = DaemonKillSchedule::from_plan(&plan, 7, 4, 0.01);
        let b = DaemonKillSchedule::from_plan(&plan, 7, 4, 0.01);
        assert_eq!(a, b, "same plan + seed = same kills");
        let c = DaemonKillSchedule::from_plan(&plan, 8, 4, 0.01);
        assert_ne!(a, c, "different seed moves the kills");
        let none = DaemonKillSchedule::from_plan(&FaultPlan::none(), 7, 4, 0.01);
        assert!(none.ticks.iter().all(Option::is_none));
    }

    #[test]
    fn fabric_replays_identically() {
        let config = FabricConfig {
            faults: FaultPlan::none()
                .with_unit_failures(0.05)
                .with_daemon_kills(2.0),
            ..FabricConfig::default()
        };
        let a = Fabric::run(&config, units(300, 1, 6));
        let b = Fabric::run(&config, units(300, 1, 6));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "replay must be exact");
        assert!(a.exactly_once(), "{a:?}");
    }

    #[test]
    fn unit_faults_charge_retries_but_still_complete() {
        let config = FabricConfig {
            faults: FaultPlan::none().with_unit_failures(0.2),
            retry: RetryPolicy::fixed(6, 0.02),
            ..FabricConfig::default()
        };
        let report = Fabric::run(&config, units(300, 1, 4));
        assert!(report.retries_charged > 0, "20% fault rate must charge");
        assert!(report.exactly_once(), "{report:?}");
    }

    #[test]
    fn survivor_guarantee_skips_last_kill() {
        let config = FabricConfig {
            n_daemons: 2,
            kills: vec![
                ScheduledKill {
                    tick: 5,
                    daemon: 0,
                    mode: KillMode::Crash,
                },
                ScheduledKill {
                    tick: 6,
                    daemon: 1,
                    mode: KillMode::Crash,
                },
            ],
            ..FabricConfig::default()
        };
        let report = Fabric::run(&config, units(100, 1, 5));
        assert_eq!(report.kills_applied, vec![(5, 0)]);
        assert_eq!(report.kills_skipped, 1, "last daemon is never killed");
        assert!(report.exactly_once(), "{report:?}");
    }
}
