//! The materializer: folds projection topics into [`QueryTables`] and
//! publishes immutable snapshots.
//!
//! One materializer owns one projection topic. It fetches each partition from
//! the position recorded in its tables' continuity token, decodes and applies
//! every event, and periodically publishes the whole table set through a
//! [`SnapshotCell`] — so the read side is an immutable `Arc` swap away from
//! the fold, never a lock acquisition inside it.
//!
//! ## Continuity + exactly-once restart
//!
//! The fold position (`offsets`, one next-fetch offset per partition) lives
//! *inside* [`QueryTables`] and is published atomically with the data it
//! describes. A restarted materializer therefore resumes with
//! [`Materializer::resume`] from the last *published* snapshot: every event
//! below the snapshot's watermark is already folded in (never re-applied),
//! every event at or above it is still in the log (keyed partitioning gives
//! per-entity total order, the broker log gives per-partition total order),
//! so the rebuilt projection is bit-identical to an unkilled run — the
//! property `tests/proptest_restart.rs` checks with [`QueryTables::digest`].
//!
//! ## Staleness
//!
//! For every applied event the materializer records `broker.now_s() -
//! message.enqueued_s`: the read plane's end-to-end lag from producer append
//! to projection visibility. [`StalenessWindow`] keeps a bounded ring of
//! recent samples; QP-1 reports its p50/p99.

use crate::delta::{DeltaBatch, DeltaHub};
use crate::snap::SnapshotCell;
use crate::tables::{ContinuityToken, QueryTables};
use parking_lot::Mutex;
use pilot_core::events::ProjEvent;
use pilot_core::ids::{PilotId, UnitId};
use pilot_streaming::{Broker, BrokerError, Retention};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bounded ring of recent staleness samples (seconds) with percentile
/// queries. Single writer (the materializer); readers take the mutex only
/// for percentile queries, never on the snapshot read path.
#[derive(Clone, Debug)]
pub struct StalenessWindow {
    buf: Vec<f64>,
    next: usize,
    len: usize,
    total: u64,
}

impl StalenessWindow {
    /// A window keeping the most recent `cap` samples.
    pub fn new(cap: usize) -> Self {
        StalenessWindow {
            buf: vec![0.0; cap.max(1)],
            next: 0,
            len: 0,
            total: 0,
        }
    }

    /// Record one staleness sample.
    pub fn record(&mut self, v: f64) {
        let cap = self.buf.len();
        self.buf[self.next] = v;
        self.next = (self.next + 1) % cap;
        self.len = (self.len + 1).min(cap);
        self.total += 1;
    }

    /// Samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Samples recorded over the window's lifetime.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Maximum samples the ring can hold.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Resize the ring to hold `cap` samples, keeping the most recent
    /// `min(len, cap)` already-held samples (and the lifetime total).
    /// Experiments size this to their event volume so percentiles cover the
    /// whole run instead of silently reflecting the last 4096 events.
    pub fn set_capacity(&mut self, cap: usize) {
        let cap = cap.max(1);
        let keep = self.len.min(cap);
        let mut recent = Vec::with_capacity(keep);
        let old_cap = self.buf.len();
        for i in 0..keep {
            // Walk backwards from the most recently written slot.
            let idx = (self.next + old_cap - 1 - i) % old_cap;
            recent.push(self.buf[idx]);
        }
        recent.reverse();
        self.buf = vec![0.0; cap];
        self.buf[..keep].copy_from_slice(&recent);
        self.next = keep % cap;
        self.len = keep;
    }

    /// Percentile (nearest-rank) over the held samples; `q` in `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let mut v: Vec<f64> = self.buf[..self.len].to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((q.clamp(0.0, 1.0) * self.len as f64).ceil() as usize).clamp(1, self.len);
        Some(v[rank - 1])
    }
}

/// Folds one projection topic into query tables and publishes snapshots.
pub struct Materializer {
    broker: Arc<Broker>,
    topic: String,
    tables: QueryTables,
    cell: Arc<SnapshotCell<QueryTables>>,
    stale: Arc<Mutex<StalenessWindow>>,
    /// Partitions this materializer folds. The whole topic for a standalone
    /// materializer; a disjoint partition group when it serves as one shard
    /// of a `ShardedMaterializer`.
    owned: Vec<usize>,
    /// Shard index within a shard set (0 for a standalone materializer);
    /// labels published delta batches.
    shard: usize,
    /// Whether the topic compacts (latest record per key): offset gaps are
    /// then *superseded* records, not lost ones.
    compacted: bool,
    /// Publish after this many applied events (and always when a drain runs
    /// dry). A publication costs what the fold touched since the last one
    /// (see [`QueryTables`]), so larger values only coalesce writes to the
    /// same rows and save the per-publication constant; 1 publishes every
    /// event.
    publish_every: u64,
    /// Events applied since the last publication.
    pending: u64,
    /// Events skipped because retention trimmed them before we fetched.
    events_lost: u64,
    /// Events skipped because compaction superseded them with a newer record
    /// of the same key — expected on compacted topics, and *not* data loss:
    /// the retained record carries the entity's latest state.
    events_superseded: u64,
    /// Payloads that failed to decode as `ProjEvent` (foreign traffic).
    decode_errors: u64,
    /// Delta fan-out. Batches are built only while the hub has subscribers.
    hub: Arc<DeltaHub>,
    /// Ids the fold touched since the last publication, in fold order with
    /// repeats — recorded whether or not anyone listens yet, so a subscriber
    /// attaching mid-interval still gets the interval's rows.
    dirty_units: Vec<u64>,
    dirty_pilots: Vec<u64>,
    /// Newest event enqueue timestamp folded since the last publish.
    newest_enqueued_s: Option<f64>,
}

impl Materializer {
    /// Start a fresh materializer at offset 0 of every partition of `topic`.
    pub fn bootstrap(broker: Arc<Broker>, topic: &str) -> Result<Self, BrokerError> {
        let partitions = broker.partitions(topic)?;
        let owned = (0..partitions).collect();
        Self::from_tables(broker, topic, QueryTables::new(partitions), owned, 0)
    }

    /// Start a fresh materializer owning only `owned` partitions of `topic`,
    /// folding as shard `shard` of a shard set. Offsets of un-owned
    /// partitions stay 0 and their events are never fetched.
    pub fn bootstrap_shard(
        broker: Arc<Broker>,
        topic: &str,
        owned: Vec<usize>,
        shard: usize,
    ) -> Result<Self, BrokerError> {
        let partitions = broker.partitions(topic)?;
        Self::from_tables(broker, topic, QueryTables::new(partitions), owned, shard)
    }

    /// Resume from a previously *published* snapshot: the tables carry their
    /// own continuity token, so the fold restarts at the exact watermark the
    /// snapshot corresponds to — events below it are never re-applied,
    /// events at/above it are fetched again. Exactly-once, no coordination.
    pub fn resume(
        broker: Arc<Broker>,
        topic: &str,
        snapshot: &QueryTables,
    ) -> Result<Self, BrokerError> {
        let partitions = broker.partitions(topic)?;
        let owned = (0..partitions).collect();
        Self::resume_shard_inner(broker, topic, snapshot, owned, 0)
    }

    /// [`Materializer::resume`] for one shard of a shard set: the snapshot's
    /// continuity token is a per-shard offset vector (authoritative only for
    /// `owned` partitions), so each shard restarts exactly-once from its own
    /// last published snapshot, independently of its peers.
    pub fn resume_shard(
        broker: Arc<Broker>,
        topic: &str,
        snapshot: &QueryTables,
        owned: Vec<usize>,
        shard: usize,
    ) -> Result<Self, BrokerError> {
        Self::resume_shard_inner(broker, topic, snapshot, owned, shard)
    }

    fn resume_shard_inner(
        broker: Arc<Broker>,
        topic: &str,
        snapshot: &QueryTables,
        owned: Vec<usize>,
        shard: usize,
    ) -> Result<Self, BrokerError> {
        let partitions = broker.partitions(topic)?;
        let mut tables = snapshot.clone();
        // A snapshot from before a partition-count change cannot be resumed
        // positionally; treat extra/missing partitions as fresh.
        tables.offsets.resize(partitions, 0);
        Self::from_tables(broker, topic, tables, owned, shard)
    }

    fn from_tables(
        broker: Arc<Broker>,
        topic: &str,
        tables: QueryTables,
        mut owned: Vec<usize>,
        shard: usize,
    ) -> Result<Self, BrokerError> {
        let partitions = tables.offsets.len();
        owned.retain(|&p| p < partitions);
        let compacted = matches!(broker.retention(topic)?, Retention::Compact { .. });
        let cell = Arc::new(SnapshotCell::new(tables.clone()));
        Ok(Materializer {
            broker,
            topic: topic.to_string(),
            tables,
            cell,
            stale: Arc::new(Mutex::new(StalenessWindow::new(4096))),
            owned,
            shard,
            compacted,
            publish_every: 64,
            pending: 0,
            events_lost: 0,
            events_superseded: 0,
            decode_errors: 0,
            hub: Arc::new(DeltaHub::new()),
            dirty_units: Vec::new(),
            dirty_pilots: Vec::new(),
            newest_enqueued_s: None,
        })
    }

    /// Set the publication batch size (events applied between snapshot
    /// publications). The drain paths still force a publish when they go
    /// idle, so readers converge to the log tail regardless.
    pub fn set_publish_every(&mut self, n: u64) {
        self.publish_every = n.max(1);
    }

    /// Resize the staleness ring (keeping the most recent samples). Size it
    /// to the expected event volume when percentiles must cover a whole
    /// experiment phase rather than the last 4096 events.
    pub fn set_staleness_capacity(&mut self, cap: usize) {
        self.stale.lock().set_capacity(cap);
    }

    /// A read handle served entirely from this materializer's snapshots.
    pub fn service(&self) -> crate::service::QueryService {
        crate::service::QueryService::new(
            Arc::clone(&self.cell),
            Arc::clone(&self.stale),
            Arc::clone(&self.hub),
        )
    }

    /// Partitions this materializer folds (the whole topic unless it is one
    /// shard of a shard set).
    pub fn owned_partitions(&self) -> &[usize] {
        &self.owned
    }

    /// Shard index within a shard set (0 standalone).
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The continuity token of the *working* tables (≥ the published one).
    pub fn token(&self) -> ContinuityToken {
        self.tables.token()
    }

    /// Working tables (not necessarily published yet).
    pub fn tables(&self) -> &QueryTables {
        &self.tables
    }

    /// Events lost to retention trimming before this materializer fetched
    /// them (0 when the topic's retention outlives the consumer, which is
    /// how projection topics should be provisioned).
    pub fn events_lost(&self) -> u64 {
        self.events_lost
    }

    /// Events superseded by compaction before this materializer fetched
    /// them: a newer record of the same key replaced each one, so the fold
    /// still lands on every entity's latest state. Counted separately from
    /// [`events_lost`](Self::events_lost) — superseded is bounded bootstrap
    /// work avoided, lost is history the projection will never see.
    pub fn events_superseded(&self) -> u64 {
        self.events_superseded
    }

    /// Payloads on the topic that were not decodable projection events.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Publish the working tables now (bumps `version`). If delta
    /// subscribers are attached, also emit one coalesced [`DeltaBatch`]:
    /// the latest row of every entity the fold touched since the previous
    /// publish.
    pub fn publish(&mut self) {
        self.tables.version += 1;
        self.cell.store(self.tables.clone());
        self.pending = 0;
        if self.hub.has_subscribers()
            && !(self.dirty_units.is_empty() && self.dirty_pilots.is_empty())
        {
            for ids in [&mut self.dirty_units, &mut self.dirty_pilots] {
                ids.sort_unstable();
                ids.dedup();
            }
            let units: Vec<(u64, crate::tables::UnitRow)> = self
                .dirty_units
                .iter()
                .filter_map(|&id| self.tables.unit(UnitId(id)).map(|r| (id, *r)))
                .collect();
            let pilots: Vec<(u64, crate::tables::PilotRow)> = self
                .dirty_pilots
                .iter()
                .filter_map(|&id| self.tables.pilot(PilotId(id)).map(|r| (id, *r)))
                .collect();
            self.hub.publish(Arc::new(DeltaBatch {
                shard: self.shard,
                version: self.tables.version,
                emitted_s: self.broker.now_s(),
                newest_enqueued_s: self.newest_enqueued_s,
                dashboard: *self.tables.dashboard(),
                units,
                pilots,
                token: self.tables.token(),
            }));
        }
        self.dirty_units.clear();
        self.dirty_pilots.clear();
        self.newest_enqueued_s = None;
    }

    /// Fetch-and-fold one round: up to `max_per_partition` events from each
    /// owned partition, applied in partition order. Returns the number of
    /// events applied. Publishes whenever `publish_every` applied events
    /// have accumulated.
    pub fn poll_apply(&mut self, max_per_partition: usize) -> Result<usize, BrokerError> {
        let mut applied = 0usize;
        let now = self.broker.now_s();
        for i in 0..self.owned.len() {
            let p = self.owned[i];
            // Retention gap: if trimming outran us, jump to the first
            // surviving offset and count what was lost — the projection is
            // then an under-approximation and says so, instead of stalling.
            let start = self.broker.start_offset(&self.topic, p)?;
            if start > self.tables.offsets[p] {
                self.events_lost += start - self.tables.offsets[p];
                self.tables.offsets[p] = start;
            }
            let msgs =
                self.broker
                    .fetch(&self.topic, p, self.tables.offsets[p], max_per_partition)?;
            if msgs.is_empty() {
                continue;
            }
            // `publish_every` is an event-count cadence contract, honored
            // even inside one large fetch: the fetched slice is folded in
            // sub-slices capped at the events remaining until the next
            // publication, so readers and delta subscribers see the same
            // cadence whether events trickle in or arrive as a backlog.
            let mut idx = 0usize;
            while idx < msgs.len() {
                let room = self.publish_every.saturating_sub(self.pending).max(1) as usize;
                let end = (idx + room).min(msgs.len());
                let mut stale = self.stale.lock();
                for m in &msgs[idx..end] {
                    // Sparse offsets: a gap below a fetched record is records
                    // that existed but are retained no longer. On a compacted
                    // topic they were superseded by newer records of the same
                    // keys (the fold still sees every entity's latest state);
                    // on a count-retained topic a mid-poll trim lost them.
                    let gap = m.offset.saturating_sub(self.tables.offsets[p]);
                    if gap > 0 {
                        if self.compacted {
                            self.events_superseded += gap;
                        } else {
                            self.events_lost += gap;
                        }
                    }
                    match ProjEvent::decode(&m.payload) {
                        Ok(ev) => {
                            self.tables.apply(&ev);
                            match ev {
                                ProjEvent::Pilot { pilot, .. }
                                | ProjEvent::PilotCapacity { pilot, .. } => {
                                    self.dirty_pilots.push(pilot.0);
                                }
                                ProjEvent::Unit { unit, .. }
                                | ProjEvent::UnitMetric { unit, .. } => {
                                    self.dirty_units.push(unit.0);
                                }
                            }
                            self.newest_enqueued_s = Some(match self.newest_enqueued_s {
                                Some(prev) => prev.max(m.enqueued_s),
                                None => m.enqueued_s,
                            });
                            stale.record((now - m.enqueued_s).max(0.0));
                            applied += 1;
                            self.pending += 1;
                        }
                        Err(_) => self.decode_errors += 1,
                    }
                    self.tables.offsets[p] = m.offset + 1;
                }
                drop(stale);
                idx = end;
                if self.pending >= self.publish_every {
                    self.publish();
                }
            }
        }
        Ok(applied)
    }

    /// Records still retained ahead of the fold position, over owned
    /// partitions. Counting *retained* records (not high-watermark
    /// arithmetic) keeps lag honest on compacted topics, where superseded
    /// records between the fold position and the watermark will never be
    /// fetched.
    pub fn lag(&self) -> Result<u64, BrokerError> {
        let counts = self
            .broker
            .retained_counts(&self.topic, &self.tables.offsets)?;
        Ok(self.owned.iter().filter_map(|&p| counts.get(p)).sum())
    }

    /// Drain to the current log tail, then publish anything pending.
    /// Returns the number of events applied.
    pub fn catch_up(&mut self) -> Result<u64, BrokerError> {
        let mut total = 0u64;
        loop {
            let n = self.poll_apply(512)?;
            total += n as u64;
            if n == 0 && self.lag()? == 0 {
                break;
            }
        }
        if self.pending > 0 {
            self.publish();
        }
        Ok(total)
    }

    /// Serve as a long-running materializer thread: fold new events as they
    /// arrive, park on the broker's data signal when idle, exit when `stop`
    /// is set (after a final drain + publish) or the broker closes.
    pub fn run_until_stopped(&mut self, stop: &AtomicBool) {
        loop {
            let seen = self.broker.data_seq();
            match self.poll_apply(512) {
                Ok(0) => {
                    if self.pending > 0 {
                        self.publish();
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    self.broker.wait_for_data(seen, Duration::from_millis(5));
                }
                Ok(_) => {}
                Err(_) => break, // topic/broker gone: nothing left to fold
            }
        }
        let _ = self.catch_up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::BrokerSink;
    use pilot_core::events::EventSink;
    use pilot_core::ids::{PilotId, UnitId};
    use pilot_core::state::{PilotState, UnitState};

    fn setup(partitions: usize) -> (Arc<Broker>, Arc<BrokerSink>) {
        let broker = Arc::new(Broker::new());
        let sink =
            BrokerSink::create(Arc::clone(&broker), "proj", partitions).expect("create sink");
        (broker, sink)
    }

    fn sample_events() -> Vec<ProjEvent> {
        let mut evs = Vec::new();
        evs.push(ProjEvent::Pilot {
            pilot: PilotId(1),
            state: PilotState::Pending,
            t_s: 0.0,
        });
        evs.push(ProjEvent::Pilot {
            pilot: PilotId(1),
            state: PilotState::Active,
            t_s: 0.1,
        });
        evs.push(ProjEvent::PilotCapacity {
            pilot: PilotId(1),
            free_cores: 4,
            total_cores: 4,
            t_s: 0.1,
        });
        for u in 0..20u64 {
            evs.push(ProjEvent::Unit {
                unit: UnitId(u),
                state: UnitState::Pending,
                pilot: None,
                t_s: 0.2,
            });
            evs.push(ProjEvent::Unit {
                unit: UnitId(u),
                state: UnitState::Assigned,
                pilot: Some(PilotId(1)),
                t_s: 0.3,
            });
            evs.push(ProjEvent::Unit {
                unit: UnitId(u),
                state: UnitState::Running,
                pilot: Some(PilotId(1)),
                t_s: 0.4,
            });
            evs.push(ProjEvent::Unit {
                unit: UnitId(u),
                state: UnitState::Done,
                pilot: Some(PilotId(1)),
                t_s: 0.5,
            });
            evs.push(ProjEvent::UnitMetric {
                unit: UnitId(u),
                wait_s: 0.1,
                exec_s: 0.1,
                t_s: 0.5,
            });
        }
        evs
    }

    #[test]
    fn catch_up_folds_everything_and_publishes() {
        let (broker, sink) = setup(4);
        let evs = sample_events();
        sink.emit_batch(&evs);
        let mut m = Materializer::bootstrap(Arc::clone(&broker), "proj").expect("bootstrap");
        let n = m.catch_up().expect("catch up");
        assert_eq!(n as usize, evs.len());
        assert_eq!(m.lag().expect("lag"), 0);
        let qs = m.service();
        let snap = qs.snapshot();
        assert_eq!(snap.events_applied, evs.len() as u64);
        assert_eq!(snap.dashboard().units_in(UnitState::Done), 20);
        assert_eq!(snap.dashboard().exec_count, 20);
        assert_eq!(snap.unit_count(), 20);
        assert_eq!(snap.unit(UnitId(7)).map(|r| r.state), Some(UnitState::Done));
        assert_eq!(
            snap.pilot(PilotId(1)).map(|r| r.state),
            Some(PilotState::Active)
        );
        assert!(qs.version() >= 1);
        assert_eq!(m.events_lost(), 0);
        assert_eq!(m.decode_errors(), 0);
    }

    #[test]
    fn incremental_polls_converge_to_the_tail() {
        let (broker, sink) = setup(2);
        let evs = sample_events();
        sink.emit_batch(&evs[..40]);
        let mut m = Materializer::bootstrap(Arc::clone(&broker), "proj").expect("bootstrap");
        m.set_publish_every(1);
        m.catch_up().expect("first drain");
        let v1 = m.service().version();
        sink.emit_batch(&evs[40..]);
        m.catch_up().expect("second drain");
        let qs = m.service();
        assert!(qs.version() > v1, "new events force a new publication");
        assert_eq!(qs.snapshot().events_applied, evs.len() as u64);
    }

    #[test]
    fn resume_from_published_snapshot_is_exactly_once() {
        let (broker, sink) = setup(3);
        let evs = sample_events();
        // Unkilled reference run.
        sink.emit_batch(&evs);
        let mut whole = Materializer::bootstrap(Arc::clone(&broker), "proj").expect("bootstrap");
        whole.catch_up().expect("reference drain");
        let want = whole.tables().digest();

        // Killed run: fold a prefix, publish sparsely, "crash", resume from
        // the last published snapshot (which trails the working tables).
        let mut a = Materializer::bootstrap(Arc::clone(&broker), "proj").expect("bootstrap");
        a.set_publish_every(10);
        for _ in 0..4 {
            a.poll_apply(3).expect("partial poll");
        }
        // Freeze publication, then fold a little further: the working tables
        // now strictly lead the last published snapshot — the crash loses
        // real progress and resume must re-fetch it.
        a.set_publish_every(1_000_000);
        a.poll_apply(3).expect("unpublished poll");
        let published = a.service().snapshot();
        assert!(
            published.events_applied < a.tables().events_applied,
            "sparse publication must trail the working fold for this test to bite"
        );
        drop(a); // crash: working tables lost, only the snapshot survives

        let mut b = Materializer::resume(Arc::clone(&broker), "proj", &published).expect("resume");
        b.catch_up().expect("resumed drain");
        assert_eq!(
            b.tables().events_applied,
            evs.len() as u64,
            "no loss, no dup"
        );
        assert_eq!(b.tables().digest(), want, "bit-identical rebuild");
    }

    #[test]
    fn subscriber_attaching_mid_interval_misses_no_row() {
        // The delta contract: subscribe, then read a snapshot, then apply
        // every batch. Rows folded after the last publication but before the
        // subscriber attached are in no snapshot it can read yet — they must
        // come in the next batch.
        let (broker, sink) = setup(2);
        let unit = |u: u64| ProjEvent::Unit {
            unit: UnitId(u),
            state: UnitState::Pending,
            pilot: None,
            t_s: u as f64,
        };
        let mut m = Materializer::bootstrap(Arc::clone(&broker), "proj").expect("bootstrap");
        m.set_publish_every(1_000);
        sink.emit_batch(&(0..10).map(unit).collect::<Vec<_>>());
        assert_eq!(m.poll_apply(512).expect("poll"), 10);
        let qs = m.service();
        assert_eq!(qs.snapshot().unit_count(), 0, "folded, not yet published");

        let sub = qs.subscribe();
        let snapshot = qs.snapshot();
        sink.emit_batch(&(10..15).map(unit).collect::<Vec<_>>());
        m.catch_up().expect("drain");

        let mut rows: std::collections::BTreeMap<u64, crate::tables::UnitRow> =
            snapshot.units().map(|(id, r)| (id.0, *r)).collect();
        for batch in sub.drain() {
            rows.extend(batch.units.iter().copied());
        }
        let want: Vec<_> = m.tables().units().map(|(id, r)| (id.0, *r)).collect();
        assert_eq!(want.len(), 15);
        assert_eq!(rows.into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn retention_gap_is_counted_not_fatal() {
        let broker = Arc::new(Broker::new());
        broker.create_topic("proj", 1, 8).expect("create topic");
        let sink = BrokerSink::new(Arc::clone(&broker), "proj");
        let mut m = Materializer::bootstrap(Arc::clone(&broker), "proj").expect("bootstrap");
        // 30 events into a retention-8 partition: ≥22 are trimmed before
        // the materializer ever fetches.
        let evs: Vec<ProjEvent> = (0..30u64)
            .map(|u| ProjEvent::Unit {
                unit: UnitId(u),
                state: UnitState::Pending,
                pilot: None,
                t_s: u as f64,
            })
            .collect();
        sink.emit_batch(&evs);
        m.catch_up().expect("drain");
        assert_eq!(m.events_lost() + m.tables().events_applied, 30);
        assert!(m.events_lost() >= 22);
        assert_eq!(m.lag().expect("lag"), 0);
    }

    #[test]
    fn foreign_payloads_count_as_decode_errors() {
        let broker = Arc::new(Broker::new());
        broker.create_topic("proj", 1, 1024).expect("create topic");
        broker
            .produce("proj", Some(1), Arc::new(vec![0xFF, 0xEE]))
            .expect("produce garbage");
        let mut m = Materializer::bootstrap(Arc::clone(&broker), "proj").expect("bootstrap");
        m.catch_up().expect("drain");
        assert_eq!(m.decode_errors(), 1);
        assert_eq!(m.tables().events_applied, 0);
        assert_eq!(m.lag().expect("lag"), 0, "bad payloads still advance");
    }

    #[test]
    fn staleness_window_percentiles() {
        let mut w = StalenessWindow::new(8);
        assert_eq!(w.percentile(0.5), None);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            w.record(v);
        }
        assert_eq!(w.percentile(0.5), Some(3.0));
        assert_eq!(w.percentile(1.0), Some(5.0));
        assert_eq!(w.percentile(0.0), Some(1.0));
        // Overflow keeps only the most recent 8.
        for v in 10..20 {
            w.record(v as f64);
        }
        assert_eq!(w.len(), 8);
        assert_eq!(w.total(), 15);
        assert_eq!(w.percentile(1.0), Some(19.0));
        assert_eq!(w.percentile(0.0), Some(12.0));
    }
}
