//! Sharded materialization: N fold workers over disjoint partition groups.
//!
//! A [`ShardPlan`] assigns every partition of the projection topic to
//! exactly one shard (`p % shards`). Each shard is an ordinary
//! [`Materializer`] restricted to its partition group: it folds into its own
//! [`crate::QueryTables`], publishes through its own snapshot cell, and
//! restarts exactly-once from its own continuity token — the global token is
//! therefore a *per-shard offset vector*, and any combination of per-shard
//! snapshots is a valid restart point.
//!
//! The merge layer ([`ShardedQueryService`]) composes shard snapshots into
//! the global view. Correctness rests on two facts: keyed routing puts every
//! event of one entity in one partition (so shard tables are disjoint and
//! per-entity rows are identical to a single fold's), and every dashboard
//! aggregate is order-independent (bucket counts, integer-ns sums, the exact
//! capacity-pool invariant) — so summing per-shard dashboards reproduces the
//! single-fold dashboard bit-for-bit. `tests/proptest_restart.rs` checks the
//! digest equality under arbitrary interleavings, shard counts, publish
//! cadences, and kill schedules.
//!
//! Why shard a fold that is already cheap? Parallelism and blast radius:
//! N workers fold disjoint partition groups on N cores, and one shard's crash
//! rewinds only that shard to its own last publication. It is *not* needed to
//! make publication affordable — a snapshot shares every chunk of rows its
//! fold has not written since the last one (see [`crate::QueryTables`]), so a
//! publication costs the rows touched whatever the table size, at one shard
//! as at N.

use crate::delta::DeltaSubscription;
use crate::materializer::Materializer;
use crate::service::QueryService;
use crate::tables::{ContinuityToken, Dashboard, PilotRow, QueryTables, UnitRow};
use pilot_core::ids::{PilotId, UnitId};
use pilot_streaming::{key_partition, Broker, BrokerError};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Static assignment of a topic's partitions to fold shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    partitions: usize,
    shards: usize,
}

impl ShardPlan {
    /// A plan folding `partitions` partitions with `shards` workers
    /// (clamped to `1..=partitions`).
    pub fn new(partitions: usize, shards: usize) -> Self {
        let partitions = partitions.max(1);
        ShardPlan {
            partitions,
            shards: shards.clamp(1, partitions),
        }
    }

    /// Number of fold shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of topic partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The shard owning partition `p`.
    pub fn shard_of_partition(&self, p: usize) -> usize {
        p % self.shards
    }

    /// The shard owning entity `key` — routing key → partition (the
    /// broker's own hash) → owning shard. Point reads use this to ask
    /// exactly one shard.
    pub fn shard_of_key(&self, key: u64) -> usize {
        self.shard_of_partition(key_partition(key, self.partitions))
    }

    /// The partition group shard `s` owns (disjoint across shards, covers
    /// every partition).
    pub fn owned(&self, s: usize) -> Vec<usize> {
        (0..self.partitions)
            .filter(|p| self.shard_of_partition(*p) == s)
            .collect()
    }

    /// `partition_owner` vector for [`QueryTables::merge`]: element `p` is
    /// the shard owning partition `p`.
    pub fn owners(&self) -> Vec<usize> {
        (0..self.partitions)
            .map(|p| self.shard_of_partition(p))
            .collect()
    }
}

/// N fold workers over one projection topic, one per disjoint partition
/// group. Construct with [`bootstrap`](Self::bootstrap) or
/// [`resume`](Self::resume), drive with [`catch_up`](Self::catch_up) (inline)
/// or [`run_until_stopped`](Self::run_until_stopped) (one thread per shard),
/// and read through [`service`](Self::service).
pub struct ShardedMaterializer {
    plan: ShardPlan,
    shards: Vec<Materializer>,
}

impl ShardedMaterializer {
    /// Fresh shard set at offset 0 of every partition.
    pub fn bootstrap(broker: Arc<Broker>, topic: &str, shards: usize) -> Result<Self, BrokerError> {
        let plan = ShardPlan::new(broker.partitions(topic)?, shards);
        let shards = (0..plan.shards())
            .map(|s| Materializer::bootstrap_shard(Arc::clone(&broker), topic, plan.owned(s), s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedMaterializer { plan, shards })
    }

    /// Resume each shard exactly-once from its own published snapshot
    /// (`snapshots[s]` is shard `s`'s last publication; pass an empty
    /// `QueryTables` for a shard that never published). Shards restart
    /// independently: one shard's crash never rewinds another's fold.
    pub fn resume(
        broker: Arc<Broker>,
        topic: &str,
        snapshots: &[Arc<QueryTables>],
    ) -> Result<Self, BrokerError> {
        let plan = ShardPlan::new(broker.partitions(topic)?, snapshots.len().max(1));
        let empty = QueryTables::new(plan.partitions());
        let shards = (0..plan.shards())
            .map(|s| {
                let snap: &QueryTables = snapshots.get(s).map(|a| a.as_ref()).unwrap_or(&empty);
                Materializer::resume_shard(Arc::clone(&broker), topic, snap, plan.owned(s), s)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedMaterializer { plan, shards })
    }

    /// The partition→shard assignment.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The per-shard materializers (for per-shard counters and tokens).
    pub fn shards(&self) -> &[Materializer] {
        &self.shards
    }

    /// Mutable access to the per-shard materializers (for driving shards
    /// individually — partial polls, per-shard kill/resume drills).
    pub fn shards_mut(&mut self) -> &mut [Materializer] {
        &mut self.shards
    }

    /// Set every shard's publication batch size.
    pub fn set_publish_every(&mut self, n: u64) {
        for m in &mut self.shards {
            m.set_publish_every(n);
        }
    }

    /// Resize every shard's staleness ring.
    pub fn set_staleness_capacity(&mut self, cap: usize) {
        for m in &mut self.shards {
            m.set_staleness_capacity(cap);
        }
    }

    /// Drain every shard to the log tail sequentially and publish. Returns
    /// total events applied.
    pub fn catch_up(&mut self) -> Result<u64, BrokerError> {
        let mut total = 0;
        for m in &mut self.shards {
            total += m.catch_up()?;
        }
        Ok(total)
    }

    /// Run one fold worker thread per shard until `stop` is set (each worker
    /// drains and publishes before exiting). This is the parallel fold: each
    /// worker owns its partition group exclusively, so workers never contend
    /// on tables — only on the broker's per-partition locks, which the plan
    /// keeps disjoint too.
    pub fn run_until_stopped(&mut self, stop: &AtomicBool) {
        std::thread::scope(|scope| {
            for m in &mut self.shards {
                scope.spawn(|| m.run_until_stopped(stop));
            }
        });
    }

    /// Sum of per-shard retained-record lag.
    pub fn lag(&self) -> Result<u64, BrokerError> {
        self.shards.iter().map(|m| m.lag()).sum()
    }

    /// Sum of per-shard events lost to retention trimming.
    pub fn events_lost(&self) -> u64 {
        self.shards.iter().map(|m| m.events_lost()).sum()
    }

    /// Sum of per-shard events superseded by compaction.
    pub fn events_superseded(&self) -> u64 {
        self.shards.iter().map(|m| m.events_superseded()).sum()
    }

    /// Total events applied across shards (working tables).
    pub fn events_applied(&self) -> u64 {
        self.shards.iter().map(|m| m.tables().events_applied).sum()
    }

    /// The merged read handle over every shard's snapshots.
    pub fn service(&self) -> ShardedQueryService {
        ShardedQueryService {
            plan: self.plan.clone(),
            shards: self.shards.iter().map(|m| m.service()).collect(),
        }
    }
}

/// Read handle over a shard set: point reads route to the owning shard's
/// snapshot (one atomic load, exactly like the unsharded service); global
/// reads compose per-shard snapshots through order-independent aggregates.
///
/// Consistency: each per-shard answer is a consistent point-in-time view of
/// that shard's partitions. A composed answer (dashboard, [`merged`]) mixes
/// per-shard versions — each entity is internally consistent, but two
/// entities on different shards may be observed at slightly different fold
/// positions. After the folds quiesce (drained, published), the composition
/// is exact: [`merged`] then hashes bit-identically to a single-shard fold.
///
/// [`merged`]: Self::merged
#[derive(Clone)]
pub struct ShardedQueryService {
    plan: ShardPlan,
    shards: Vec<QueryService>,
}

impl ShardedQueryService {
    /// The partition→shard assignment.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Per-shard read handles, indexed by shard.
    pub fn shard_services(&self) -> &[QueryService] {
        &self.shards
    }

    /// The shard service owning entity `key`.
    fn owner(&self, key: u64) -> &QueryService {
        &self.shards[self.plan.shard_of_key(key) % self.shards.len()]
    }

    /// Point read: the unit's current state (routed to the owning shard).
    pub fn unit_state(&self, id: UnitId) -> Option<pilot_core::state::UnitState> {
        self.owner(id.0).unit_state(id)
    }

    /// Point read: the unit's full row.
    pub fn unit(&self, id: UnitId) -> Option<UnitRow> {
        self.owner(id.0).unit(id)
    }

    /// Point read: the pilot's full row.
    pub fn pilot(&self, id: PilotId) -> Option<PilotRow> {
        self.owner(id.0).pilot(id)
    }

    /// Point read: one pilot's core utilization in `[0, 1]`.
    pub fn pilot_utilization(&self, id: PilotId) -> Option<f64> {
        self.owner(id.0).pilot_utilization(id)
    }

    /// The global dashboard: per-shard dashboards summed. Every field is an
    /// order-independent aggregate over disjoint entity sets, so this equals
    /// the single-fold dashboard once the shards quiesce.
    pub fn dashboard(&self) -> Dashboard {
        let mut d = Dashboard::default();
        for s in &self.shards {
            d.absorb(&s.dashboard());
        }
        d
    }

    /// The full merged table set (all shards' snapshots composed via
    /// [`QueryTables::merge`]). Heavier than [`dashboard`](Self::dashboard)
    /// — it copies every row into one table — so reserve it for digest checks and
    /// full exports; routed point reads and the summed dashboard cover the
    /// common queries without it.
    pub fn merged(&self) -> QueryTables {
        let snaps: Vec<Arc<QueryTables>> = self.shards.iter().map(|s| s.snapshot()).collect();
        let refs: Vec<&QueryTables> = snaps.iter().map(|a| a.as_ref()).collect();
        QueryTables::merge(&refs, &self.plan.owners())
    }

    /// Per-shard continuity tokens: the global restart point is this whole
    /// vector (shard `s` resumes from `tokens()[s]`).
    pub fn tokens(&self) -> Vec<ContinuityToken> {
        self.shards.iter().map(|s| s.token()).collect()
    }

    /// Per-shard snapshots (the restart inputs for
    /// [`ShardedMaterializer::resume`]).
    pub fn shard_snapshots(&self) -> Vec<Arc<QueryTables>> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// Sum of per-shard publication counters (monotone across the set).
    pub fn version(&self) -> u64 {
        self.shards.iter().map(|s| s.version()).sum()
    }

    /// Staleness percentile across all shards' windows, by merging their
    /// held samples (seconds, append→applied).
    pub fn staleness(&self, q: f64) -> Option<f64> {
        // Each shard's percentile alone would under-weight busy shards; a
        // cheap merge over per-shard percentiles is not exact. Instead take
        // the max of per-shard percentiles as a conservative bound for p≥.5
        // style queries — exactness matters less than never under-reporting.
        self.shards
            .iter()
            .filter_map(|s| s.staleness(q))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Lifetime staleness samples across shards.
    pub fn staleness_samples(&self) -> u64 {
        self.shards.iter().map(|s| s.staleness_samples()).sum()
    }

    /// Held staleness samples across shards.
    pub fn staleness_held(&self) -> usize {
        self.shards.iter().map(|s| s.staleness_held()).sum()
    }

    /// Subscribe to every shard's delta feed through one subscription:
    /// batches from all shards arrive on one channel, tagged with their
    /// shard index and per-shard version. The same idempotent-upsert
    /// consumption pattern applies: subscribe, snapshot each shard, apply.
    pub fn subscribe(&self) -> DeltaSubscription {
        let (tx, rx) = std::sync::mpsc::channel();
        for s in &self.shards {
            s.hub().attach(tx.clone());
        }
        drop(tx);
        DeltaSubscription::from_receiver(rx)
    }
}

impl std::fmt::Debug for ShardedQueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedQueryService")
            .field("shards", &self.shards.len())
            .field("partitions", &self.plan.partitions())
            .field("version", &self.version())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::BrokerSink;
    use pilot_core::events::{EventSink, ProjEvent};
    use pilot_core::state::{PilotState, UnitState};

    fn lifecycle_events(units: u64, pilots: u64) -> Vec<ProjEvent> {
        let mut evs = Vec::new();
        for p in 0..pilots {
            evs.push(ProjEvent::Pilot {
                pilot: PilotId(p),
                state: PilotState::Active,
                t_s: 0.1,
            });
            evs.push(ProjEvent::PilotCapacity {
                pilot: PilotId(p),
                free_cores: 8,
                total_cores: 8,
                t_s: 0.1,
            });
        }
        for u in 0..units {
            let pilot = Some(PilotId(u % pilots));
            evs.push(ProjEvent::Unit {
                unit: UnitId(u),
                state: UnitState::Pending,
                pilot: None,
                t_s: 0.2,
            });
            evs.push(ProjEvent::Unit {
                unit: UnitId(u),
                state: UnitState::Running,
                pilot,
                t_s: 0.3,
            });
            evs.push(ProjEvent::Unit {
                unit: UnitId(u),
                state: UnitState::Done,
                pilot,
                t_s: 0.4,
            });
            evs.push(ProjEvent::UnitMetric {
                unit: UnitId(u),
                wait_s: 0.1,
                exec_s: 0.2,
                t_s: 0.4,
            });
        }
        evs
    }

    fn seeded(partitions: usize) -> (Arc<Broker>, Vec<ProjEvent>) {
        let broker = Arc::new(Broker::new());
        let sink = BrokerSink::create(Arc::clone(&broker), "proj", partitions).expect("sink");
        let evs = lifecycle_events(60, 3);
        sink.emit_batch(&evs);
        (broker, evs)
    }

    #[test]
    fn plan_covers_every_partition_disjointly() {
        for (parts, shards) in [(1, 1), (4, 2), (5, 3), (8, 4), (3, 9)] {
            let plan = ShardPlan::new(parts, shards);
            assert!(plan.shards() <= parts, "shards clamp to partitions");
            let mut seen = vec![false; parts];
            for s in 0..plan.shards() {
                for p in plan.owned(s) {
                    assert!(!seen[p], "partition {p} owned twice");
                    seen[p] = true;
                    assert_eq!(plan.shard_of_partition(p), s);
                }
            }
            assert!(seen.iter().all(|&x| x), "every partition owned");
            assert_eq!(plan.owners().len(), parts);
        }
        // Key routing agrees with the broker's hash.
        let plan = ShardPlan::new(8, 4);
        for k in 0..100u64 {
            assert_eq!(
                plan.shard_of_key(k),
                plan.shard_of_partition(key_partition(k, 8))
            );
        }
    }

    #[test]
    fn sharded_fold_merges_bit_identical_to_single() {
        let (broker, evs) = seeded(8);
        // Reference: single fold over all partitions.
        let mut single = Materializer::bootstrap(Arc::clone(&broker), "proj").expect("single");
        single.catch_up().expect("single drain");
        let want = single.tables().digest();

        for shards in [1usize, 2, 3, 4] {
            let mut sm =
                ShardedMaterializer::bootstrap(Arc::clone(&broker), "proj", shards).expect("shard");
            let n = sm.catch_up().expect("drain");
            assert_eq!(n as usize, evs.len(), "{shards} shards fold everything");
            assert_eq!(sm.lag().expect("lag"), 0);
            let merged = sm.service().merged();
            assert_eq!(merged.digest(), want, "merge at {shards} shards");
            assert_eq!(merged.events_applied, evs.len() as u64);
        }
    }

    #[test]
    fn point_reads_route_to_owning_shard() {
        let (broker, _evs) = seeded(4);
        let mut sm = ShardedMaterializer::bootstrap(Arc::clone(&broker), "proj", 3).expect("shard");
        sm.catch_up().expect("drain");
        let qs = sm.service();
        for u in 0..60u64 {
            assert_eq!(
                qs.unit_state(UnitId(u)),
                Some(UnitState::Done),
                "unit {u} readable through routed point read"
            );
            assert!(qs.unit(UnitId(u)).expect("row").has_metric);
        }
        for p in 0..3u64 {
            assert_eq!(qs.pilot(PilotId(p)).expect("row").state, PilotState::Active);
            assert_eq!(qs.pilot_utilization(PilotId(p)), Some(0.0));
        }
        let d = qs.dashboard();
        assert_eq!(d.units_in(UnitState::Done), 60);
        assert_eq!(d.exec_count, 60);
        assert_eq!(d.total_cores, 24);
    }

    #[test]
    fn shard_threads_fold_in_parallel() {
        let (broker, evs) = seeded(8);
        let mut single = Materializer::bootstrap(Arc::clone(&broker), "proj").expect("single");
        single.catch_up().expect("single drain");
        let want = single.tables().digest();

        let mut sm = ShardedMaterializer::bootstrap(Arc::clone(&broker), "proj", 4).expect("shard");
        let stop = AtomicBool::new(false);
        let qs = sm.service();
        std::thread::scope(|scope| {
            let (sm, stop) = (&mut sm, &stop);
            let h = scope.spawn(move || sm.run_until_stopped(stop));
            // Wait until the folds drain, then stop the workers.
            loop {
                let applied: u64 = qs.tokens().iter().map(|t| t.events_applied).sum();
                if applied >= evs.len() as u64 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
            broker.wake_all();
            h.join().expect("workers join");
        });
        assert_eq!(sm.service().merged().digest(), want);
    }

    #[test]
    fn sharded_resume_is_exactly_once_per_shard() {
        let (broker, evs) = seeded(8);
        let mut single = Materializer::bootstrap(Arc::clone(&broker), "proj").expect("single");
        single.catch_up().expect("single drain");
        let want = single.tables().digest();

        // Fold a prefix with sparse publication, "crash", resume from the
        // per-shard published snapshots.
        let mut a = ShardedMaterializer::bootstrap(Arc::clone(&broker), "proj", 3).expect("shard");
        a.set_publish_every(7);
        for m in a.shards_mut() {
            for _ in 0..3 {
                m.poll_apply(5).expect("partial poll");
            }
        }
        let snapshots = a.service().shard_snapshots();
        let published: u64 = snapshots.iter().map(|s| s.events_applied).sum();
        assert!(
            published < evs.len() as u64,
            "crash must lose real progress for this test to bite"
        );
        drop(a);

        let mut b =
            ShardedMaterializer::resume(Arc::clone(&broker), "proj", &snapshots).expect("resume");
        b.catch_up().expect("resumed drain");
        assert_eq!(b.events_applied(), evs.len() as u64, "no loss, no dup");
        assert_eq!(b.service().merged().digest(), want);
    }

    #[test]
    fn sharded_subscription_carries_all_shards() {
        let (broker, _evs) = seeded(4);
        let mut sm = ShardedMaterializer::bootstrap(Arc::clone(&broker), "proj", 2).expect("shard");
        let qs = sm.service();
        let sub = qs.subscribe();
        sm.catch_up().expect("drain");
        let batches = sub.drain();
        assert!(!batches.is_empty());
        let mut shards_seen: Vec<usize> = batches.iter().map(|b| b.shard).collect();
        shards_seen.sort_unstable();
        shards_seen.dedup();
        assert_eq!(shards_seen, vec![0, 1], "both shards push deltas");
        // Applying all deltas as upserts reconstructs every entity row.
        let merged = qs.merged();
        let mut units: std::collections::BTreeMap<u64, UnitRow> = Default::default();
        for b in &batches {
            for (id, row) in &b.units {
                units.insert(*id, *row);
            }
        }
        assert_eq!(units.len(), merged.unit_count());
        for (id, row) in merged.units() {
            assert_eq!(units.get(&id.0), Some(row), "unit {} row matches", id.0);
        }
    }
}
