//! A host daemon: runs a shard (or several) of pilots and units behind the
//! node abstraction, late-binding locally with the shared
//! [`crate::binding::queue_pass`] and reporting everything it does to the
//! controller tagged with the `(shard, epoch)` it believes it owns.
//!
//! The daemon is deliberately trusting: it never learns it has been deposed
//! (a real partitioned process wouldn't either). Fencing happens entirely at
//! the controller, which is what makes the [`KillMode::Stall`] zombie safe —
//! the stalled daemon keeps binding and completing units, and every one of
//! those reports arrives with a stale epoch and is counted, never applied.

// lint: deterministic — this module must stay replayable: no wall-clock reads

use std::collections::{BTreeMap, HashMap};

use crossbeam::channel::{Receiver, Sender};
use pilot_infra::types::SiteId;
use pilot_sim::SimRng;

use crate::binding::{self, BindStats, PendingQueue};
use crate::ids::{PilotId, UnitId};
use crate::retry::streams;
use crate::scheduler::{PilotSnapshot, Scheduler};

use super::transport::{ShardCapacity, ToController, ToDaemon};
use super::{FabricConfig, FabricUnit};

/// How a daemon dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillMode {
    /// Hard halt: the daemon stops processing entirely — no receives, no
    /// work, no sends. Models a machine loss.
    Crash,
    /// Zombie: the daemon stops receiving and stops heartbeating but keeps
    /// executing what it already has and keeps reporting. Models an
    /// asymmetric partition / wedged heartbeat thread; exercises the
    /// controller's epoch fence.
    Stall,
}

struct PilotRt {
    id: PilotId,
    total: u32,
    free: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UnitPhase {
    Pending,
    Running { done_tick: u64 },
}

struct UnitRt {
    unit: FabricUnit,
    phase: UnitPhase,
    pilot: Option<PilotId>,
}

struct ShardRt {
    epoch: u64,
    pilots: Vec<PilotRt>,
    pending: PendingQueue,
    units: HashMap<UnitId, UnitRt>,
    scheduler: Box<dyn Scheduler>,
}

/// One host daemon. Drive it with [`HostDaemon::step`] once per tick,
/// before the controller.
pub struct HostDaemon {
    index: usize,
    heartbeat_every: u64,
    unit_failure_p: f64,
    scheduler_factory: fn() -> Box<dyn Scheduler>,
    shards: BTreeMap<u32, ShardRt>,
    kill: Option<KillMode>,
    rng: SimRng,
    /// Late-binding counters for this daemon's shards.
    pub bind_stats: BindStats,
}

impl HostDaemon {
    /// Daemon `index` configured from `config`.
    pub fn new(index: usize, config: &FabricConfig) -> HostDaemon {
        HostDaemon {
            index,
            heartbeat_every: config.heartbeat_every.max(1),
            unit_failure_p: config.faults.unit_failure_p,
            scheduler_factory: config.scheduler,
            shards: BTreeMap::new(),
            kill: None,
            rng: SimRng::new(config.seed),
            bind_stats: BindStats::default(),
        }
    }

    /// Inject a kill. `Crash` halts the daemon; `Stall` turns it into a
    /// zombie that keeps working without heartbeats.
    pub fn kill(&mut self, mode: KillMode) {
        // A stall does not resurrect a crashed daemon (and vice versa the
        // harder mode wins).
        if self.kill != Some(KillMode::Crash) {
            self.kill = Some(mode);
        }
    }

    /// Whether a kill has been injected.
    pub fn killed(&self) -> Option<KillMode> {
        self.kill
    }

    /// One daemon turn: receive (unless killed), finish due units, run one
    /// late-binding pass per shard, heartbeat (unless killed).
    pub fn step(&mut self, tick: u64, inbox: &Receiver<ToDaemon>, out: &Sender<ToController>) {
        if self.kill == Some(KillMode::Crash) {
            return;
        }
        if self.kill.is_none() {
            self.drain_inbox(inbox);
        }
        self.finish_due(tick, out);
        self.bind_pass(tick, out);
        if self.kill.is_none() && tick.is_multiple_of(self.heartbeat_every) {
            let shards: Vec<ShardCapacity> = self
                .shards
                .iter()
                .map(|(&shard, s)| ShardCapacity {
                    shard,
                    epoch: s.epoch,
                    free_cores: s.pilots.iter().map(|p| p.free).sum(),
                    queued_units: s
                        .units
                        .values()
                        .filter(|u| u.phase == UnitPhase::Pending)
                        .count() as u64,
                })
                .collect();
            let _ = out.send(ToController::Heartbeat {
                daemon: self.index,
                tick,
                shards,
            });
        }
    }

    fn drain_inbox(&mut self, inbox: &Receiver<ToDaemon>) {
        while let Ok(msg) = inbox.try_recv() {
            match msg {
                ToDaemon::AssignShard {
                    shard,
                    epoch,
                    pilots,
                } => {
                    // Epochs only move forward; an older assignment for a
                    // shard we already run at a newer epoch is dropped.
                    if self.shards.get(&shard).map(|s| s.epoch >= epoch) == Some(true) {
                        continue;
                    }
                    let rt = ShardRt {
                        epoch,
                        pilots: pilots
                            .iter()
                            .map(|&(id, cores)| PilotRt {
                                id,
                                total: cores,
                                free: cores,
                            })
                            .collect(),
                        pending: PendingQueue::default(),
                        units: HashMap::new(),
                        scheduler: (self.scheduler_factory)(),
                    };
                    self.shards.insert(shard, rt);
                }
                ToDaemon::Dispatch { shard, epoch, unit } => {
                    let Some(s) = self.shards.get_mut(&shard) else {
                        continue;
                    };
                    if s.epoch != epoch {
                        continue;
                    }
                    let (id, priority, cores) = (unit.id, unit.desc.priority, unit.desc.cores);
                    s.units.insert(
                        id,
                        UnitRt {
                            unit,
                            phase: UnitPhase::Pending,
                            pilot: None,
                        },
                    );
                    s.pending.push(id, priority, cores);
                }
            }
        }
    }

    fn finish_due(&mut self, tick: u64, out: &Sender<ToController>) {
        let daemon = self.index;
        let p_fail = self.unit_failure_p;
        for (&shard, s) in self.shards.iter_mut() {
            // Collect due units sorted by id: HashMap order is
            // nondeterministic and the report stream must replay.
            let mut due: Vec<UnitId> = s
                .units
                .iter()
                .filter(|(_, u)| matches!(u.phase, UnitPhase::Running { done_tick } if done_tick <= tick))
                .map(|(&id, _)| id)
                .collect();
            due.sort_by_key(|u| u.0);
            for id in due {
                let Some(u) = s.units.remove(&id) else {
                    continue;
                };
                if let Some(pid) = u.pilot {
                    if let Some(p) = s.pilots.iter_mut().find(|p| p.id == pid) {
                        p.free = (p.free + u.unit.desc.cores).min(p.total);
                    }
                }
                // The fault draw is keyed by (unit, attempt), so whichever
                // daemon runs a given attempt draws the same outcome —
                // rebalances don't perturb the fault sequence.
                let failed = p_fail > 0.0
                    && self
                        .rng
                        .stream(streams::keyed(streams::UNIT_FAULT, id.0, u.unit.attempt))
                        .bool(p_fail);
                let msg = if failed {
                    ToController::UnitFailed {
                        daemon,
                        shard,
                        epoch: s.epoch,
                        unit: id,
                        tick,
                    }
                } else {
                    ToController::UnitDone {
                        daemon,
                        shard,
                        epoch: s.epoch,
                        unit: id,
                        tick,
                    }
                };
                let _ = out.send(msg);
            }
        }
    }

    fn bind_pass(&mut self, tick: u64, out: &Sender<ToController>) {
        let daemon = self.index;
        for (&shard, s) in self.shards.iter_mut() {
            if s.pending.is_empty() || s.pilots.is_empty() {
                continue;
            }
            // Snapshots sorted by pilot id (construction order) — the
            // deterministic-order contract queue_pass requires.
            let mut snapshots: Vec<PilotSnapshot> = s
                .pilots
                .iter()
                .map(|p| PilotSnapshot {
                    pilot: p.id,
                    site: SiteId(shard as u16),
                    total_cores: p.total,
                    free_cores: p.free,
                    bound_units: 0,
                    remaining_walltime_s: f64::INFINITY,
                })
                .collect();
            let units = &s.units;
            let outcome = binding::queue_pass(
                s.scheduler.as_mut(),
                &mut snapshots,
                &mut s.pending,
                |uid| {
                    units
                        .get(&uid)
                        .filter(|u| u.phase == UnitPhase::Pending)
                        .map(|u| &u.unit.desc)
                },
            );
            self.bind_stats
                .note_pass(snapshots.len(), outcome.offered, outcome.binds.len() as u64);
            for (uid, pid) in outcome.binds {
                let Some(u) = s.units.get_mut(&uid) else {
                    continue;
                };
                let run = u.unit.run_ticks.max(1);
                u.phase = UnitPhase::Running {
                    done_tick: tick + run,
                };
                u.pilot = Some(pid);
                if let Some(p) = s.pilots.iter_mut().find(|p| p.id == pid) {
                    p.free = p.free.saturating_sub(u.unit.desc.cores);
                }
                let _ = out.send(ToController::UnitStarted {
                    daemon,
                    shard,
                    epoch: s.epoch,
                    unit: uid,
                    pilot: pid,
                    tick,
                });
            }
        }
    }
}
