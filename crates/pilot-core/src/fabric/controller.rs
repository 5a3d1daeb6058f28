//! The fabric controller: owns placement, epoch-fenced shard assignment, the
//! exactly-once unit ledger, and heartbeat-lapse failure detection.
//!
//! The controller never runs units itself. It routes each unit to a shard
//! using an aggregate capacity view (latest heartbeat per shard, decremented
//! optimistically between heartbeats), and the owning daemon late-binds it
//! locally — SC-1's batched pass, per shard. When a daemon's heartbeats
//! lapse, the controller declares it dead, moves its shards to the live
//! daemon with the fewest shards under a bumped assignment epoch, and
//! re-drives the affected units with RB-1 semantics extended to manager
//! crashes: units that had *started* on the dead daemon are charged a retry
//! attempt (with backoff), units merely dispatched re-route for free.
//!
//! The daemons keep their shards in `crate::ledger`; the controller does
//! not, because routing is not binding. It dispatches on an optimistic view
//! even when no shard has room and records `Assigned` with no pilot, while
//! the ledger's pass offers only units that fit, reserves their cores and
//! records the capacity first. On the ledger, the controller would make it
//! branch on its caller or change every fabric event.
//!
//! Lock order: none — the controller is single-threaded and owns all of its
//! state; daemons only ever talk to it through the transport channels.

// lint: deterministic — this module must stay replayable: no wall-clock reads

use std::collections::{BinaryHeap, HashMap};

use crossbeam::channel::{Receiver, Sender};
use pilot_sim::SimRng;

use crate::describe::UnitDescription;
use crate::events::ProjEvent;
use crate::ids::{PilotId, UnitId};
use crate::retry::RetryPolicy;
use crate::state::UnitState;

use super::transport::{ToController, ToDaemon};
use super::{FabricConfig, FabricUnit};

/// One row of the shard-assignment log: `daemon` took `shard` at `epoch` on
/// `tick`. The log is append-only; the rebalance proptest checks that no two
/// rows share a `(shard, epoch)` pair and that epochs per shard strictly
/// increase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Which shard.
    pub shard: u32,
    /// Assignment epoch.
    pub epoch: u64,
    /// Owning daemon.
    pub daemon: usize,
    /// Tick the assignment was made.
    pub tick: u64,
}

/// One heartbeat-lapse rebalance, with the latency breakdown FB-1 measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalanceEvent {
    /// Daemon declared dead.
    pub daemon: usize,
    /// Last tick a heartbeat from it was accepted.
    pub last_heartbeat_tick: u64,
    /// Tick the lapse was declared and shards were reassigned.
    pub declared_tick: u64,
    /// Shards moved to new owners.
    pub shards_moved: u32,
    /// Started units charged a retry attempt (RB-1 manager-crash path).
    pub units_requeued: u64,
    /// Dispatched-but-unstarted units re-routed for free.
    pub units_redispatched: u64,
    /// First tick a unit bound under one of the bumped epochs — the
    /// end-to-end rebalance latency is `first_bind_new_epoch_tick -
    /// last_heartbeat_tick`.
    pub first_bind_new_epoch_tick: Option<u64>,
}

/// Fencing and exactly-once counters kept by the controller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ControllerStats {
    /// Unit completions accepted (first completion per unit).
    pub completed: u64,
    /// Completions for already-done units accepted at the current epoch.
    /// Exactly-once means this stays 0.
    pub duplicates: u64,
    /// Units whose retry budget ran out.
    pub exhausted: u64,
    /// `UnitStarted` reports fenced for carrying a stale epoch (the zombie
    /// daemon's post-failover binds land here — counted, never applied).
    pub fenced_binds: u64,
    /// `UnitDone`/`UnitFailed`/heartbeat-capacity reports fenced for
    /// carrying a stale epoch.
    pub fenced_reports: u64,
    /// Retry attempts charged (kernel faults + manager crashes).
    pub retries_charged: u64,
    /// Free re-dispatches (unit had not started when its manager died).
    pub free_redispatches: u64,
    /// Daemons declared dead by heartbeat lapse.
    pub daemons_declared_dead: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LedgerState {
    /// Waiting at the controller for routing.
    Queued,
    /// Sent to a shard owner, not yet bound.
    Dispatched { shard: u32, epoch: u64 },
    /// Bound and executing on a pilot.
    Started { shard: u32, epoch: u64 },
    /// Completed exactly once.
    Done,
    /// Retry budget exhausted.
    Exhausted,
}

struct LedgerEntry {
    desc: UnitDescription,
    run_ticks: u64,
    state: LedgerState,
    /// Attempts charged against the retry budget (kernel faults + manager
    /// crashes while running).
    failures: u32,
}

#[derive(Clone, Copy, Debug, Default)]
struct CapView {
    free_cores: u32,
    queued_units: u64,
}

/// The controller. Drive it with [`Controller::step`] once per tick, after
/// the daemons have stepped.
pub(crate) struct Controller {
    lapse_ticks: u64,
    tick_s: f64,
    default_retry: RetryPolicy,
    /// Current owner per shard: `(daemon, epoch)`, `None` when orphaned
    /// (every daemon dead).
    owners: Vec<Option<(usize, u64)>>,
    /// Highest epoch ever issued per shard (epochs never regress, even
    /// across orphan gaps).
    epochs: Vec<u64>,
    /// Pilot set per shard, fixed at bootstrap.
    shard_pilots: Vec<Vec<(PilotId, u32)>>,
    cap_view: Vec<CapView>,
    alive: Vec<bool>,
    last_hb: Vec<u64>,
    /// The unit ledger, indexed by the dense unit id.
    units: Vec<LedgerEntry>,
    /// Units waiting to be routed, FIFO.
    route_queue: Vec<UnitId>,
    /// Backoff timers: `(due_tick, unit)` min-heap.
    retry_at: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    rng: SimRng,
    /// Assignment log, append-only.
    pub assignment_log: Vec<ShardAssignment>,
    /// Rebalance events, in declaration order.
    pub rebalances: Vec<RebalanceEvent>,
    /// `(shard, epoch)` pairs created by rebalance `i`, watched for the
    /// first post-failover bind.
    rebalance_watch: HashMap<(u32, u64), usize>,
    /// Counters.
    pub stats: ControllerStats,
    /// Read-plane event ledger: every ledger transition, in order, with
    /// virtual timestamps (`tick * tick_s`). The fabric is a deterministic
    /// module, so it cannot talk to a broker sink directly — the driver
    /// publishes this ledger after the run (`FabricReport::events`,
    /// `pilot_query::publish_events`), keeping replay determinism intact.
    pub events: Vec<ProjEvent>,
}

impl Controller {
    /// A controller for `config`, with shards unassigned until
    /// [`Controller::bootstrap`].
    pub fn new(config: &FabricConfig) -> Controller {
        let shards = config.n_shards as usize;
        let mut shard_pilots = Vec::with_capacity(shards);
        for s in 0..config.n_shards {
            let pilots: Vec<(PilotId, u32)> = (0..config.pilots_per_shard)
                .map(|j| {
                    (
                        PilotId((u64::from(s) << 32) | u64::from(j)),
                        config.cores_per_pilot,
                    )
                })
                .collect();
            shard_pilots.push(pilots);
        }
        Controller {
            lapse_ticks: config.lapse_ticks,
            tick_s: config.tick_s,
            default_retry: config.retry,
            owners: vec![None; shards],
            epochs: vec![0; shards],
            shard_pilots,
            cap_view: vec![CapView::default(); shards],
            alive: vec![true; config.n_daemons],
            last_hb: vec![0; config.n_daemons],
            units: Vec::new(),
            route_queue: Vec::new(),
            retry_at: BinaryHeap::new(),
            rng: SimRng::new(config.seed),
            assignment_log: Vec::new(),
            rebalances: Vec::new(),
            rebalance_watch: HashMap::new(),
            stats: ControllerStats::default(),
            events: Vec::new(),
        }
    }

    /// Record `unit` entering `state` on `tick`, in the read-plane event
    /// timebase.
    fn record(&mut self, unit: UnitId, state: UnitState, pilot: Option<PilotId>, tick: u64) {
        self.events.push(ProjEvent::Unit {
            unit,
            state,
            pilot,
            t_s: tick as f64 * self.tick_s,
        });
    }

    /// Register a unit for routing. Returns its id.
    pub fn submit(&mut self, desc: UnitDescription, run_ticks: u64) -> UnitId {
        let id = UnitId(self.units.len() as u64);
        self.units.push(LedgerEntry {
            desc,
            run_ticks,
            state: LedgerState::Queued,
            failures: 0,
        });
        self.route_queue.push(id);
        // Submission happens before the tick loop starts: tick 0.
        self.record(id, UnitState::Pending, None, 0);
        id
    }

    /// Assign every shard round-robin across the daemons at epoch 1 and
    /// announce the assignments. Call once, before the first tick.
    pub fn bootstrap(&mut self, to_daemons: &[Sender<ToDaemon>]) {
        for shard in 0..self.owners.len() {
            let daemon = shard % to_daemons.len();
            self.install_owner(shard as u32, daemon, 0, to_daemons);
        }
    }

    fn install_owner(
        &mut self,
        shard: u32,
        daemon: usize,
        tick: u64,
        to_daemons: &[Sender<ToDaemon>],
    ) {
        let s = shard as usize;
        self.epochs[s] += 1;
        let epoch = self.epochs[s];
        self.owners[s] = Some((daemon, epoch));
        // Fresh owner restarts the shard's pilots at full capacity with an
        // empty queue; the ledger re-drives whatever was in flight.
        self.cap_view[s] = CapView {
            free_cores: self.shard_pilots[s].iter().map(|&(_, c)| c).sum(),
            queued_units: 0,
        };
        self.assignment_log.push(ShardAssignment {
            shard,
            epoch,
            daemon,
            tick,
        });
        if let Some(tx) = to_daemons.get(daemon) {
            let _ = tx.send(ToDaemon::AssignShard {
                shard,
                epoch,
                pilots: self.shard_pilots[s].clone(),
            });
        }
    }

    /// Whether every submitted unit reached a terminal state.
    pub fn done(&self) -> bool {
        self.lost() == 0
    }

    /// Units neither completed nor exhausted (non-zero only when the run hit
    /// its tick budget or every daemon died).
    pub fn lost(&self) -> u64 {
        self.units.len() as u64 - self.stats.completed - self.stats.exhausted
    }

    /// Highest assignment epoch issued across all shards.
    pub fn max_epoch(&self) -> u64 {
        self.epochs.iter().copied().max().unwrap_or(0)
    }

    /// One controller turn: drain the inbox, detect lapses and rebalance,
    /// release due retries, route queued units.
    pub fn step(
        &mut self,
        tick: u64,
        inbox: &Receiver<ToController>,
        to_daemons: &[Sender<ToDaemon>],
    ) {
        self.drain_inbox(tick, inbox);
        self.detect_lapses(tick, to_daemons);
        self.release_retries(tick);
        self.route_queued(tick, to_daemons);
    }

    fn drain_inbox(&mut self, _tick: u64, inbox: &Receiver<ToController>) {
        while let Ok(msg) = inbox.try_recv() {
            match msg {
                ToController::Heartbeat {
                    daemon,
                    tick,
                    shards,
                } => {
                    if !self.alive.get(daemon).copied().unwrap_or(false) {
                        // A declared-dead daemon never rejoins in this PR;
                        // its late heartbeats are fenced like any stale
                        // report.
                        self.stats.fenced_reports += 1;
                        continue;
                    }
                    if let Some(hb) = self.last_hb.get_mut(daemon) {
                        *hb = tick;
                    }
                    for sc in shards {
                        let s = sc.shard as usize;
                        if self.owners.get(s).copied().flatten() == Some((daemon, sc.epoch)) {
                            self.cap_view[s] = CapView {
                                free_cores: sc.free_cores,
                                queued_units: sc.queued_units,
                            };
                        } else {
                            self.stats.fenced_reports += 1;
                        }
                    }
                }
                ToController::UnitStarted {
                    daemon,
                    shard,
                    epoch,
                    unit,
                    pilot,
                    tick,
                } => {
                    let current =
                        self.owners.get(shard as usize).copied().flatten() == Some((daemon, epoch));
                    if !current {
                        self.stats.fenced_binds += 1;
                        continue;
                    }
                    if let Some(watch) = self.rebalance_watch.get(&(shard, epoch)).copied() {
                        if let Some(ev) = self.rebalances.get_mut(watch) {
                            if ev.first_bind_new_epoch_tick.is_none() {
                                ev.first_bind_new_epoch_tick = Some(tick);
                            }
                        }
                    }
                    if let Some(e) = self.units.get_mut(unit.0 as usize) {
                        if e.state == (LedgerState::Dispatched { shard, epoch }) {
                            e.state = LedgerState::Started { shard, epoch };
                            let cores = e.desc.cores;
                            let view = &mut self.cap_view[shard as usize];
                            view.free_cores = view.free_cores.saturating_sub(cores);
                            view.queued_units = view.queued_units.saturating_sub(1);
                            self.record(unit, UnitState::Running, Some(pilot), tick);
                        }
                    }
                }
                ToController::UnitDone {
                    daemon,
                    shard,
                    epoch,
                    unit,
                    tick,
                } => {
                    let current =
                        self.owners.get(shard as usize).copied().flatten() == Some((daemon, epoch));
                    if !current {
                        self.stats.fenced_reports += 1;
                        continue;
                    }
                    if let Some(e) = self.units.get_mut(unit.0 as usize) {
                        match e.state {
                            LedgerState::Done => self.stats.duplicates += 1,
                            LedgerState::Exhausted => self.stats.duplicates += 1,
                            _ => {
                                e.state = LedgerState::Done;
                                self.stats.completed += 1;
                                self.cap_view[shard as usize].free_cores += e.desc.cores;
                                let exec_s = e.run_ticks as f64 * self.tick_s;
                                self.record(unit, UnitState::Done, None, tick);
                                self.events.push(ProjEvent::UnitMetric {
                                    unit,
                                    wait_s: 0.0,
                                    exec_s,
                                    t_s: tick as f64 * self.tick_s,
                                });
                            }
                        }
                    }
                }
                ToController::UnitFailed {
                    daemon,
                    shard,
                    epoch,
                    unit,
                    tick,
                } => {
                    let current =
                        self.owners.get(shard as usize).copied().flatten() == Some((daemon, epoch));
                    if !current {
                        self.stats.fenced_reports += 1;
                        continue;
                    }
                    if let Some(view) = self.cap_view.get_mut(shard as usize) {
                        if let Some(e) = self.units.get(unit.0 as usize) {
                            view.free_cores += e.desc.cores;
                        }
                    }
                    self.charge_failure(tick, unit);
                }
            }
        }
    }

    /// Charge one retry attempt to `unit`; either schedule the retry after
    /// backoff or mark the unit exhausted.
    fn charge_failure(&mut self, tick: u64, unit: UnitId) {
        let Some(e) = self.units.get_mut(unit.0 as usize) else {
            return;
        };
        if matches!(e.state, LedgerState::Done | LedgerState::Exhausted) {
            return;
        }
        e.failures += 1;
        self.stats.retries_charged += 1;
        let policy = effective_retry(&e.desc, &self.default_retry);
        let retry = policy.retry_after_s(e.failures, &self.rng, unit);
        e.state = if retry.is_some() {
            LedgerState::Queued
        } else {
            LedgerState::Exhausted
        };
        self.record(unit, UnitState::Failed, None, tick);
        if let Some(delay_s) = retry {
            let ticks = ((delay_s / self.tick_s).ceil() as u64).max(1);
            self.retry_at
                .push(std::cmp::Reverse((tick.saturating_add(ticks), unit.0)));
            // Retry granted: the unit conceptually re-enters the queue.
            self.record(unit, UnitState::Pending, None, tick);
        } else {
            self.stats.exhausted += 1;
        }
    }

    fn detect_lapses(&mut self, tick: u64, to_daemons: &[Sender<ToDaemon>]) {
        for daemon in 0..self.alive.len() {
            if !self.alive[daemon] || tick.saturating_sub(self.last_hb[daemon]) <= self.lapse_ticks
            {
                continue;
            }
            self.alive[daemon] = false;
            self.stats.daemons_declared_dead += 1;
            let last_heartbeat_tick = self.last_hb[daemon];
            // Move every shard the dead daemon owned to the live daemon with
            // the fewest shards (ties: lowest index).
            let moved: Vec<u32> = (0..self.owners.len() as u32)
                .filter(|&s| matches!(self.owners[s as usize], Some((d, _)) if d == daemon))
                .collect();
            let mut event = RebalanceEvent {
                daemon,
                last_heartbeat_tick,
                declared_tick: tick,
                shards_moved: 0,
                units_requeued: 0,
                units_redispatched: 0,
                first_bind_new_epoch_tick: None,
            };
            let event_ix = self.rebalances.len();
            for &shard in &moved {
                match self.pick_owner() {
                    Some(new_owner) => {
                        self.install_owner(shard, new_owner, tick, to_daemons);
                        event.shards_moved += 1;
                        self.rebalance_watch
                            .insert((shard, self.epochs[shard as usize]), event_ix);
                    }
                    None => {
                        // Every daemon is dead: orphan the shard. Units stay
                        // queued; the run ends with them counted as lost.
                        self.owners[shard as usize] = None;
                        self.cap_view[shard as usize] = CapView::default();
                    }
                }
            }
            // Re-drive in-flight units on the moved shards: RB-1 extended to
            // manager crashes, in submission (id) order so replays charge
            // identically.
            for i in 0..self.units.len() {
                let unit = UnitId(i as u64);
                let e = &mut self.units[i];
                match e.state {
                    LedgerState::Dispatched { shard, .. } if moved.contains(&shard) => {
                        // Never bound: free re-route, no attempt charged.
                        e.state = LedgerState::Queued;
                        self.route_queue.push(unit);
                        self.stats.free_redispatches += 1;
                        event.units_redispatched += 1;
                        self.record(unit, UnitState::Pending, None, tick);
                    }
                    LedgerState::Started { shard, .. } if moved.contains(&shard) => {
                        // Was executing when its manager died: the attempt
                        // is lost, retry budget applies.
                        self.charge_failure(tick, unit);
                        event.units_requeued += 1;
                    }
                    _ => {}
                }
            }
            self.rebalances.push(event);
        }
    }

    fn release_retries(&mut self, tick: u64) {
        while let Some(&std::cmp::Reverse((due, uid))) = self.retry_at.peek() {
            if due > tick {
                break;
            }
            self.retry_at.pop();
            let unit = UnitId(uid);
            if matches!(
                self.units.get(unit.0 as usize).map(|e| e.state),
                Some(LedgerState::Queued)
            ) {
                self.route_queue.push(unit);
            }
        }
    }

    fn route_queued(&mut self, tick: u64, to_daemons: &[Sender<ToDaemon>]) {
        if self.route_queue.is_empty() {
            return;
        }
        let queue = std::mem::take(&mut self.route_queue);
        for unit in queue {
            let Some(e) = self.units.get(unit.0 as usize) else {
                continue;
            };
            if e.state != LedgerState::Queued {
                continue;
            }
            // Aggregate capacity view: pick the live shard with the most
            // spare room after its queue drains (ties: lowest shard id).
            let mut best: Option<(i64, u32, usize, u64)> = None;
            for s in 0..self.owners.len() {
                let Some((daemon, epoch)) = self.owners[s] else {
                    continue;
                };
                if !self.alive.get(daemon).copied().unwrap_or(false) {
                    continue;
                }
                let view = self.cap_view[s];
                let score = i64::from(view.free_cores)
                    - view.queued_units as i64 * i64::from(e.desc.cores.max(1));
                if best.map(|(b, ..)| score > b).unwrap_or(true) {
                    best = Some((score, s as u32, daemon, epoch));
                }
            }
            let Some((_, shard, daemon, epoch)) = best else {
                // No live owner anywhere: put the unit back and stop; a
                // later rebalance (or the end of the run) resolves it.
                self.route_queue.push(unit);
                continue;
            };
            let (desc, run_ticks, failures) = {
                let Some(e) = self.units.get_mut(unit.0 as usize) else {
                    continue;
                };
                e.state = LedgerState::Dispatched { shard, epoch };
                (e.desc.clone(), e.run_ticks, e.failures)
            };
            // Dispatched maps to `Assigned` in the P* machine; the concrete
            // pilot is chosen by the shard owner's local binding pass.
            self.record(unit, UnitState::Assigned, None, tick);
            self.cap_view[shard as usize].queued_units += 1;
            if let Some(tx) = to_daemons.get(daemon) {
                let _ = tx.send(ToDaemon::Dispatch {
                    shard,
                    epoch,
                    unit: FabricUnit {
                        id: unit,
                        desc,
                        run_ticks,
                        attempt: failures,
                    },
                });
            }
        }
    }
}

/// The unit's own policy when it carries a real retry budget; the fabric
/// default when it is the fail-fast default (`max_attempts == 1`).
fn effective_retry<'a>(desc: &'a UnitDescription, default: &'a RetryPolicy) -> &'a RetryPolicy {
    if desc.retry.max_attempts > 1 {
        &desc.retry
    } else {
        default
    }
}

impl Controller {
    /// Pick the live daemon owning the fewest shards (ties: lowest index).
    fn pick_owner(&self) -> Option<usize> {
        let mut counts = vec![0usize; self.alive.len()];
        for owner in self.owners.iter().flatten() {
            if let Some(c) = counts.get_mut(owner.0) {
                *c += 1;
            }
        }
        (0..self.alive.len())
            .filter(|&d| self.alive[d])
            .min_by_key(|&d| (counts[d], d))
    }
}
