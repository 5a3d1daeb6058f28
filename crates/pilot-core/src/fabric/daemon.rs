//! A host daemon: runs a shard (or several) of pilots and units behind the
//! node abstraction and reports everything it does to the controller tagged
//! with the `(shard, epoch)` it believes it owns.
//!
//! Each shard is one [`Ledger`] — the same units, pilots, late-binding pass
//! and core accounting the thread service and the DES backend drive — with
//! event recording off: the controller is the fabric's only event writer.
//! The daemon keeps only what is its own: the shard's epoch, the run ticks
//! and attempt a dispatch carries (the ledger's unit payload), and its
//! running units ordered by `(done_tick, unit)`. An assignment adds the
//! shard's pilots at full capacity; a dispatch adds and submits a unit; a
//! pass binds and starts units; a due unit draws its injected fault,
//! finishes `Done` or `Failed`, and leaves the ledger. Retry is the
//! controller's: a failed attempt comes back as a fresh dispatch with the
//! next attempt number.
//!
//! The daemon is deliberately trusting: it never learns it has been deposed
//! (a real partitioned process wouldn't either). Fencing happens entirely at
//! the controller, which is what makes the [`KillMode::Stall`] zombie safe —
//! the stalled daemon keeps binding and completing units, and every one of
//! those reports arrives with a stale epoch and is counted, never applied.

// lint: deterministic — this module must stay replayable: no wall-clock reads

use std::collections::{BTreeMap, BTreeSet};

use crossbeam::channel::{Receiver, Sender};
use pilot_infra::types::SiteId;
use pilot_sim::SimRng;

use crate::binding::BindStats;
use crate::ids::UnitId;
use crate::ledger::{Events, Ledger};
use crate::retry::FaultPlan;
use crate::scheduler::Scheduler;
use crate::state::UnitState;

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

/// The ledger's unit payload: what a dispatch carries besides the
/// description.
struct Attempt {
    run_ticks: u64,
    /// Zero-based attempt number; keys the unit's fault draw.
    attempt: u32,
}

/// One shard this daemon runs; its ledger keeps time in ticks.
struct Shard {
    epoch: u64,
    ledger: Ledger<Attempt, ()>,
    /// Running units by `(done_tick, unit)`.
    running: BTreeSet<(u64, UnitId)>,
}

/// One host daemon. Drive it with [`HostDaemon::step`] once per tick,
/// before the controller.
pub(crate) struct HostDaemon {
    index: usize,
    heartbeat_every: u64,
    faults: FaultPlan,
    scheduler_factory: fn() -> Box<dyn Scheduler>,
    rng: SimRng,
    shards: BTreeMap<u32, Shard>,
    kill: Option<KillMode>,
}

impl HostDaemon {
    /// Daemon `index` configured from `config`.
    pub(crate) fn new(index: usize, config: &FabricConfig) -> HostDaemon {
        HostDaemon {
            index,
            heartbeat_every: config.heartbeat_every.max(1),
            faults: config.faults,
            scheduler_factory: config.scheduler,
            rng: SimRng::new(config.seed),
            shards: BTreeMap::new(),
            kill: None,
        }
    }

    /// Inject a kill. `Crash` halts the daemon; `Stall` turns it into a
    /// zombie that keeps working without heartbeats.
    pub(crate) fn kill(&mut self, mode: KillMode) {
        // A stall does not resurrect a crashed daemon (and vice versa the
        // harder mode wins).
        if self.kill != Some(KillMode::Crash) {
            self.kill = Some(mode);
        }
    }

    /// Whether a kill has been injected.
    pub(crate) fn killed(&self) -> Option<KillMode> {
        self.kill
    }

    /// Late-binding counters summed over this daemon's shards.
    pub(crate) fn bind_stats(&self) -> BindStats {
        let mut total = BindStats::default();
        for s in self.shards.values() {
            total.absorb(&s.ledger.bind);
        }
        total
    }

    /// One daemon turn: receive (unless killed), finish due units, run one
    /// late-binding pass per shard, heartbeat (unless killed).
    pub(crate) fn step(
        &mut self,
        tick: u64,
        inbox: &Receiver<ToDaemon>,
        out: &Sender<ToController>,
    ) {
        if self.kill == Some(KillMode::Crash) {
            return;
        }
        if self.kill.is_none() {
            self.drain_inbox(tick, inbox);
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
                    free_cores: s.ledger.pilots.values().map(|p| p.free_cores()).sum(),
                    queued_units: s.ledger.backlog() as u64,
                })
                .collect();
            let _ = out.send(ToController::Heartbeat {
                daemon: self.index,
                tick,
                shards,
            });
        }
    }

    fn drain_inbox(&mut self, tick: u64, inbox: &Receiver<ToDaemon>) {
        let now = tick as f64;
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
                    let mut ledger =
                        Ledger::new((self.scheduler_factory)(), self.rng.clone(), self.faults);
                    ledger.events = Events(None);
                    for (id, cores) in pilots {
                        ledger.add_pilot(id, SiteId(shard as u16), 0, None, ());
                        ledger.capacity_up(id, cores, now);
                    }
                    let running = BTreeSet::new();
                    self.shards.insert(
                        shard,
                        Shard {
                            epoch,
                            ledger,
                            running,
                        },
                    );
                }
                ToDaemon::Dispatch { shard, epoch, unit } => {
                    let Some(s) = self.shards.get_mut(&shard).filter(|s| s.epoch == epoch) else {
                        continue;
                    };
                    let FabricUnit {
                        id,
                        desc,
                        run_ticks,
                        attempt,
                    } = unit;
                    s.ledger.add_unit(id, desc, Attempt { run_ticks, attempt });
                    s.ledger.submit(id, now);
                }
            }
        }
    }

    fn finish_due(&mut self, tick: u64, out: &Sender<ToController>) {
        for (&shard, s) in self.shards.iter_mut() {
            while let Some(&(done_tick, id)) = s.running.first() {
                if done_tick > tick {
                    break;
                }
                s.running.pop_first();
                let Some(u) = s.ledger.units.get(&id) else {
                    continue;
                };
                // The fault draw is keyed by (unit, attempt), so whichever
                // daemon runs a given attempt draws the same outcome —
                // rebalances don't perturb the fault sequence.
                let gen = u.generation;
                let fault = s.ledger.faults.unit_fault(&s.ledger.rng, id, u.x.attempt);
                let (daemon, epoch) = (self.index, s.epoch);
                let (state, msg) = if fault.is_some() {
                    let msg = ToController::UnitFailed {
                        daemon,
                        shard,
                        epoch,
                        unit: id,
                        tick,
                    };
                    (UnitState::Failed, msg)
                } else {
                    let msg = ToController::UnitDone {
                        daemon,
                        shard,
                        epoch,
                        unit: id,
                        tick,
                    };
                    (UnitState::Done, msg)
                };
                s.ledger.finish(id, gen, state, tick as f64);
                // The controller keeps every unit; a finished one has nothing
                // left to do here, and a retry arrives as a fresh dispatch.
                s.ledger.units.remove(&id);
                let _ = out.send(msg);
            }
        }
    }

    fn bind_pass(&mut self, tick: u64, out: &Sender<ToController>) {
        let now = tick as f64;
        for (&shard, s) in self.shards.iter_mut() {
            let mut bound = Vec::new();
            s.ledger
                .bind_pass(now, |b| bound.push((b.uid, b.unit.generation)));
            for (uid, gen) in bound {
                let Some(u) = s.ledger.start(uid, gen, now) else {
                    continue;
                };
                let (Some(pilot), run_ticks) = (u.pilot, u.x.run_ticks.max(1)) else {
                    continue;
                };
                s.running.insert((tick + run_ticks, uid));
                let _ = out.send(ToController::UnitStarted {
                    daemon: self.index,
                    shard,
                    epoch: s.epoch,
                    unit: uid,
                    pilot,
                    tick,
                });
            }
        }
    }
}
