//! In-process log broker: topics of partitioned, offset-addressed logs with
//! consumer groups.
//!
//! Concurrency design: one `parking_lot::Mutex` per partition log (producers
//! to different partitions never contend), an `RwLock` on topic/group
//! metadata (read-mostly), per-(group, partition) offset cells. This is the
//! shape that lets the produce/consume criterion benchmarks scale with
//! partition count — the same knob the paper's streaming evaluation sweeps.
//!
//! ## The batched data plane
//!
//! The hot paths come in two flavors each:
//!
//! * **Produce.** [`Broker::produce`] appends one record: one topic-map read,
//!   one round-robin (or key hash) decision, one partition-lock acquire, one
//!   timestamp read. [`Broker::produce_batch`] amortizes all of that over a
//!   batch — the timestamp is read once, the round-robin cursor is advanced
//!   under one lock, and each *touched partition* is locked exactly once no
//!   matter how many records land in it. On a durable broker it is also
//!   written once per WAL segment touched (see [`crate::wal`], "Batches").
//! * **Consume.** [`Broker::poll`] is the stateless path: it re-derives the
//!   consumer's assignment and allocates a fresh `Vec` on every call.
//!   [`Broker::poll_into`] takes a [`Subscription`] handle that caches the
//!   assignment under the group's rebalance epoch (refreshed only when
//!   membership changes) and appends into a caller-owned buffer — zero
//!   allocations and exactly two group-lock acquires per poll at steady
//!   state.
//!
//! ## Durability
//!
//! A broker opened with [`Broker::open`] writes every append through a
//! per-partition write-ahead log ([`crate::wal`]) *before* the in-memory
//! update, persists topic creations in a meta log and committed group
//! offsets in an offsets log, and on reopen replays all three: partitions
//! come back prefix-consistent (truncated at the first torn/corrupt
//! record), committed offsets are clamped to each partition's recovered
//! high watermark, and `poll_into` consumers resume exactly where the
//! crashed broker left them. [`Broker::new`] keeps the original pure
//! in-memory behavior — no WAL, no recovery.
//!
//! Retention comes in two flavors ([`Retention`]): count-based trimming
//! (oldest records dropped past a bound; advances the partition's
//! *start offset*, and trimming past a group's committed position is
//! surfaced as `records_lost`, never skipped silently) and log compaction
//! (latest value per key survives; offsets go sparse, superseded records
//! are *not* counted as lost — the retained record for each key is the
//! contract).
//!
//! ## Wakeups
//!
//! Every append bumps a broker-wide sequence number and notifies a condvar.
//! Consumers park in [`Broker::wait_for_data`] with a bounded timeout instead
//! of busy-polling; producers that finish call [`Broker::wake_all`] so parked
//! consumers re-check their exit conditions immediately. [`Broker::close`]
//! rides the same protocol: it bumps the sequence and wakes everyone, so a
//! consumer parked on a broker that just died observes the closure instead of
//! hanging. The wakeup lock is a *leaf* lock: it is only ever acquired with
//! no other broker lock held, and the condvar is notified after its guard is
//! dropped (workspace rule R4).

use crate::wal::{self, RecoveryInfo, RetentionCode, SegmentedLog, WalConfig, WalError};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An unappended record: optional partitioning key plus payload. The item
/// type of [`Broker::produce_batch`].
pub type Record = (Option<u64>, Arc<Vec<u8>>);

/// One record in a partition log.
#[derive(Clone, Debug)]
pub struct Message {
    /// Offset within its partition (dense under count retention; sparse
    /// under compaction, where superseded offsets disappear).
    pub offset: u64,
    /// Seconds since broker start when the record was appended.
    pub enqueued_s: f64,
    /// Optional partitioning key.
    pub key: Option<u64>,
    /// Payload bytes (shared, zero-copy to consumers).
    pub payload: Arc<Vec<u8>>,
}

/// Per-partition retention policy of a topic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Retention {
    /// Keep at most this many records; oldest are trimmed beyond it and the
    /// partition's start offset advances (a group still parked before it
    /// records the gap as `records_lost`).
    Count(usize),
    /// Log compaction: whenever the retained count reaches the (adaptive)
    /// threshold seeded by `trigger`, only the latest record per key
    /// survives. Offsets are preserved (the log goes sparse); superseded
    /// records are not data loss. Unkeyed produces are rejected with
    /// [`BrokerError::KeyRequired`].
    Compact {
        /// Floor for the compaction threshold (records retained before a
        /// compaction pass is considered).
        trigger: usize,
    },
}

/// Broker errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BrokerError {
    /// Topic does not exist.
    UnknownTopic(String),
    /// Topic already exists.
    TopicExists(String),
    /// Consumer is not a member of the group.
    UnknownConsumer,
    /// Group does not exist.
    UnknownGroup(String),
    /// Partition index out of range for the topic.
    UnknownPartition {
        /// Topic the partition was looked up in.
        topic: String,
        /// The out-of-range index.
        partition: usize,
    },
    /// A commit named an offset past the partition's next offset — the
    /// records it claims to have consumed do not exist.
    OffsetBeyondEnd {
        /// Topic of the partition.
        topic: String,
        /// Partition index.
        partition: usize,
        /// The rejected offset.
        offset: u64,
        /// The partition's next offset at validation time.
        next_offset: u64,
    },
    /// A compacted topic was produced to without a key (compaction retains
    /// the latest record *per key*; an unkeyed record has no identity).
    KeyRequired(String),
    /// The broker was closed (node killed / shut down); appends are
    /// rejected. Reads still drain whatever is in memory.
    BrokerClosed,
    /// An append carried a stale leadership epoch — a newer leader was
    /// elected for the partition and the old one is fenced off.
    FencedEpoch {
        /// Topic of the partition.
        topic: String,
        /// Partition index.
        partition: usize,
        /// The stale epoch the append carried.
        epoch: u64,
        /// The current leadership epoch.
        current: u64,
    },
    /// `join_group` named a topic different from the one the group already
    /// consumes (the group's offset vector is sized to its topic's partition
    /// count, so silently reusing the group would corrupt accounting).
    GroupTopicMismatch {
        /// The group that was joined.
        group: String,
        /// The topic the group already consumes.
        existing: String,
        /// The mismatching topic the join requested.
        requested: String,
    },
    /// Every node of a replicated cluster is dead — there is nothing to
    /// append to, read from, or promote.
    NoAliveReplica,
    /// A cluster operation named a node index the cluster does not have.
    UnknownNode {
        /// The out-of-range index.
        node: usize,
        /// The cluster's node count.
        nodes: usize,
    },
    /// The operation requires an alive node but the named node is dead
    /// (e.g. a double kill).
    NodeDead(usize),
    /// The operation requires a dead node but the named node is alive
    /// (e.g. restarting a node that was never killed).
    NodeAlive(usize),
    /// A write-ahead-log operation failed.
    Wal(WalError),
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::UnknownTopic(t) => write!(f, "unknown topic '{t}'"),
            BrokerError::TopicExists(t) => write!(f, "topic '{t}' exists"),
            BrokerError::UnknownConsumer => write!(f, "unknown consumer in group"),
            BrokerError::UnknownGroup(g) => write!(f, "unknown group '{g}'"),
            BrokerError::UnknownPartition { topic, partition } => {
                write!(f, "topic '{topic}' has no partition {partition}")
            }
            BrokerError::OffsetBeyondEnd {
                topic,
                partition,
                offset,
                next_offset,
            } => write!(
                f,
                "commit offset {offset} beyond end {next_offset} of '{topic}'/{partition}"
            ),
            BrokerError::KeyRequired(t) => {
                write!(f, "compacted topic '{t}' requires keyed records")
            }
            BrokerError::BrokerClosed => write!(f, "broker is closed"),
            BrokerError::FencedEpoch {
                topic,
                partition,
                epoch,
                current,
            } => write!(
                f,
                "append to '{topic}'/{partition} fenced: epoch {epoch} < current {current}"
            ),
            BrokerError::GroupTopicMismatch {
                group,
                existing,
                requested,
            } => write!(
                f,
                "group '{group}' consumes topic '{existing}', not '{requested}'"
            ),
            BrokerError::NoAliveReplica => write!(f, "no alive replica in cluster"),
            BrokerError::UnknownNode { node, nodes } => {
                write!(f, "node {node} out of range for {nodes}-node cluster")
            }
            BrokerError::NodeDead(n) => write!(f, "node {n} is dead"),
            BrokerError::NodeAlive(n) => write!(f, "node {n} is alive"),
            BrokerError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BrokerError {}

impl From<WalError> for BrokerError {
    fn from(e: WalError) -> Self {
        BrokerError::Wal(e)
    }
}

struct PartitionLog {
    /// Retained records; `VecDeque` keeps retention trimming O(1) per
    /// message (front pops) instead of O(n) front drains.
    records: VecDeque<Message>,
    /// Lowest offset *not* trimmed by count-based retention. Offsets below
    /// it are gone for capacity reasons — a group committed before it lost
    /// data. Compaction never advances it (superseded ≠ lost).
    start_offset: u64,
    /// Offset the next append receives. Explicit (not derived from `records`
    /// length) because compaction leaves sparse logs.
    next_offset: u64,
    /// Adaptive compaction threshold: compact when the retained count
    /// reaches it, then reset to `max(trigger, 2 * retained)` so a log of
    /// mostly-distinct keys isn't rescanned on every append.
    compact_at: usize,
    /// Durable backing, when the broker was opened with a [`WalConfig`].
    /// Lives inside the partition mutex so WAL order == log order.
    wal: Option<SegmentedLog>,
}

impl PartitionLog {
    fn fresh(retention: &Retention, wal: Option<SegmentedLog>) -> PartitionLog {
        PartitionLog {
            records: VecDeque::new(),
            start_offset: 0,
            next_offset: 0,
            compact_at: match retention {
                Retention::Count(_) => usize::MAX,
                Retention::Compact { trigger } => (*trigger).max(2),
            },
            wal,
        }
    }

    /// Index of the first retained record with `offset >= from` (binary
    /// search — compaction makes offsets sparse, so arithmetic won't do).
    fn position(&self, from: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.records.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.records[mid].offset < from {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Append messages with ascending offsets: the WAL first (one write per
    /// segment touched), then memory, applying retention per record. A
    /// failed write leaves memory holding exactly the records the earlier
    /// writes put in the file.
    fn append_batch(
        &mut self,
        msgs: impl Iterator<Item = Message> + Clone,
        retention: &Retention,
    ) -> Result<(), WalError> {
        let written = match self.wal.as_mut() {
            Some(w) => w.append_batch(msgs.clone(), |m, buf| {
                wal::encode_message_into(buf, m.offset, m.key, m.enqueued_s, &m.payload)
            }),
            None => Ok(()),
        };
        let applied = written.as_ref().err().map_or(usize::MAX, |(n, _)| *n);
        for m in msgs.take(applied) {
            self.next_offset = m.offset + 1;
            self.records.push_back(m);
            self.apply_retention(retention);
        }
        written.map_err(|(_, e)| e)
    }

    /// Append `records` at the next offsets, all stamped `enqueued_s`.
    /// Returns the first record's offset. Only the WAL pass clones the
    /// iterator, so an in-memory log moves the records without copying.
    fn append_records<R>(
        &mut self,
        records: R,
        enqueued_s: f64,
        retention: &Retention,
    ) -> Result<u64, WalError>
    where
        R: IntoIterator<Item = Record>,
        R::IntoIter: Clone,
    {
        let base = self.next_offset;
        let msgs = records
            .into_iter()
            .zip(base..)
            .map(move |((key, payload), offset)| Message {
                offset,
                enqueued_s,
                key,
                payload,
            });
        self.append_batch(msgs, retention)?;
        Ok(base)
    }

    /// Apply one retention step after an append (or one replayed record).
    fn apply_retention(&mut self, retention: &Retention) {
        match retention {
            Retention::Count(n) => {
                while self.records.len() > (*n).max(1) {
                    if let Some(m) = self.records.pop_front() {
                        self.start_offset = m.offset + 1;
                    }
                }
            }
            Retention::Compact { trigger } => {
                if self.records.len() >= self.compact_at {
                    self.compact();
                    self.compact_at = (self.records.len() * 2).max((*trigger).max(2));
                }
            }
        }
    }

    /// Keep only the latest record per key, preserving offsets.
    fn compact(&mut self) {
        let mut latest: HashSet<u64> = HashSet::with_capacity(self.records.len());
        let mut keep: Vec<bool> = vec![false; self.records.len()];
        for (i, m) in self.records.iter().enumerate().rev() {
            match m.key {
                // Unkeyed records can only predate a retention switch; they
                // have no identity to supersede, so they survive compaction.
                None => keep[i] = true,
                Some(k) => {
                    if latest.insert(k) {
                        keep[i] = true;
                    }
                }
            }
        }
        let mut i = 0;
        self.records.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }
}

struct Topic {
    partitions: Vec<Mutex<PartitionLog>>,
    round_robin: Mutex<usize>,
    retention: Retention,
}

struct Group {
    /// Members in join order.
    members: Vec<String>,
    /// Committed next-read offset per partition.
    offsets: Vec<u64>,
    topic: String,
    /// Bumped on every membership change; [`Subscription`]s cache their
    /// assignment against it and refresh only when it moves.
    epoch: u64,
    /// Records trimmed by count-based retention before the group consumed
    /// them (offset committed past the gap; loss surfaced, never silent).
    records_lost: u64,
}

impl Group {
    /// Partitions assigned to `consumer` (even split, join order).
    fn assigned_for(&self, consumer: &str) -> Result<Vec<usize>, BrokerError> {
        let me = self
            .members
            .iter()
            .position(|m| m == consumer)
            .ok_or(BrokerError::UnknownConsumer)?;
        let n = self.offsets.len();
        Ok((0..n).filter(|p| p % self.members.len() == me).collect())
    }
}

/// Snapshot of a consumer group's accounting (see [`Broker::group_stats`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupStats {
    /// Topic the group consumes.
    pub topic: String,
    /// Member count.
    pub members: usize,
    /// Rebalance epoch.
    pub epoch: u64,
    /// Committed next-read offset per partition.
    pub offsets: Vec<u64>,
    /// Sum of committed offsets.
    pub committed: u64,
    /// Records trimmed by count-based retention before this group consumed
    /// them — each one was skipped by bumping the committed offset to the
    /// partition's start offset, and counted here instead of hidden.
    pub records_lost: u64,
    /// Per-partition lag: the number of *retained* records the group has
    /// not consumed ([`Broker::retained_counts`] at the committed offsets,
    /// taken *after* the group guard is released, so lag can be momentarily
    /// stale but never negative). On compacted topics this clamps lag at the
    /// earliest retained offset: records superseded by compaction are not
    /// backlog — the group will never fetch them — so they are not counted.
    pub lag: Vec<u64>,
}

impl GroupStats {
    /// Total records behind across all partitions.
    pub fn total_lag(&self) -> u64 {
        self.lag.iter().sum()
    }
}

/// A consumer's cached view of its group: assignment (under the group's
/// rebalance epoch), the topic handle, and reusable scratch buffers. Create
/// with [`Broker::subscribe`], poll with [`Broker::poll_into`].
///
/// The handle makes the steady-state poll path allocation-free: assignment
/// is only re-derived when the group epoch moves (a member joined), and
/// offsets/commits go through scratch vectors whose capacity is retained
/// across polls.
pub struct Subscription {
    group: String,
    consumer: String,
    topic_name: String,
    topic: Arc<Topic>,
    /// Group epoch the cached assignment was computed at (0 = never).
    epoch: u64,
    assigned: Vec<usize>,
    /// Scratch: next-read offset per assigned partition, refilled each poll.
    starts: Vec<u64>,
    /// Scratch: (partition, new offset, partition start offset) for the
    /// current poll. The start offset rides along so the commit step can
    /// account records trimmed out from under the group.
    commits: Vec<(usize, u64, u64)>,
}

impl Subscription {
    /// Group this subscription polls through.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// Consumer name within the group.
    pub fn consumer(&self) -> &str {
        &self.consumer
    }

    /// Cached partition assignment (refreshed lazily on poll after a
    /// rebalance; empty before the first poll).
    pub fn assignment(&self) -> &[usize] {
        &self.assigned
    }

    /// `(partition, committed offset)` pairs from the most recent
    /// [`Broker::poll_into`] — what that poll advanced the group to. Lets a
    /// replication layer forward commits to follower nodes.
    pub fn last_commits(&self) -> Vec<(usize, u64)> {
        self.commits.iter().map(|&(p, off, _)| (p, off)).collect()
    }
}

/// Durable state shared by the broker's non-partition logs.
struct WalState {
    cfg: WalConfig,
    /// Topic-creation log. Locked *after* `topics.write` (create path only).
    meta: Mutex<SegmentedLog>,
    /// Committed-offsets log. Leaf lock: appended with no other broker lock
    /// held (max-merge replay makes append order irrelevant).
    offsets: Mutex<SegmentedLog>,
}

/// The broker. Shareable across threads (`Arc<Broker>`).
pub struct Broker {
    epoch: Instant,
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    groups: RwLock<HashMap<String, Mutex<Group>>>,
    /// Append sequence number: bumped on every produce so consumers can park
    /// until data arrives instead of busy-polling. Leaf lock — never held
    /// while acquiring any other broker lock.
    wakeup_seq: Mutex<u64>,
    wakeup: Condvar,
    /// Set by [`Broker::close`]; appends rejected, parked waiters woken.
    closed: AtomicBool,
    wal: Option<WalState>,
    /// What recovery found when this broker was [`Broker::open`]ed.
    recovery: RecoveryInfo,
}

impl Default for Broker {
    fn default() -> Self {
        Self::new()
    }
}

impl Broker {
    /// A broker with no topics and no durability (pure in-memory).
    pub fn new() -> Self {
        Broker {
            epoch: Instant::now(),
            topics: RwLock::new(HashMap::new()),
            groups: RwLock::new(HashMap::new()),
            wakeup_seq: Mutex::new(0),
            wakeup: Condvar::new(),
            closed: AtomicBool::new(false),
            wal: None,
            recovery: RecoveryInfo::default(),
        }
    }

    /// Open a durable broker rooted at `cfg.dir`, replaying whatever a
    /// previous incarnation left there: the meta log rebuilds topics, each
    /// partition log is replayed (truncating at the first torn or corrupt
    /// record — recovery is prefix-consistent), retention/compaction is
    /// re-applied deterministically, and committed group offsets are
    /// restored, clamped to each partition's recovered high watermark.
    /// Groups come back with their offsets but no members: consumers must
    /// re-join, then resume exactly where the crashed broker committed them.
    pub fn open(cfg: WalConfig) -> Result<Broker, BrokerError> {
        let mut recovery = RecoveryInfo::default();
        let mut metas = Vec::new();
        let (meta, info) =
            SegmentedLog::open_with(cfg.dir.join("meta"), cfg.segment_bytes, cfg.fsync, |rec| {
                metas.push(wal::decode_topic_meta(rec)?);
                Ok(())
            })?;
        recovery.absorb(&info);
        let mut topics: HashMap<String, Arc<Topic>> = HashMap::new();
        for (name, partitions, code) in metas {
            let retention = match code {
                RetentionCode::Count(n) => Retention::Count(n as usize),
                RetentionCode::Compact(n) => Retention::Compact {
                    trigger: n as usize,
                },
            };
            let mut parts = Vec::with_capacity(partitions as usize);
            for p in 0..partitions as usize {
                let (log, info) =
                    Self::open_partition(&partition_dir(&cfg.dir, &name, p), &cfg, &retention)?;
                recovery.absorb(&info);
                parts.push(Mutex::new(log));
            }
            topics.insert(
                name,
                Arc::new(Topic {
                    partitions: parts,
                    round_robin: Mutex::new(0),
                    retention,
                }),
            );
        }
        let mut groups: HashMap<String, Mutex<Group>> = HashMap::new();
        let (offsets, info) = SegmentedLog::open_with(
            cfg.dir.join("offsets"),
            cfg.segment_bytes,
            cfg.fsync,
            |rec| {
                let (group, topic, partition, offset) = wal::decode_commit(rec)?;
                // A commit for a topic (or partition) the truncated meta log
                // no longer knows is dropped: offsets are meaningless without
                // the log they index into.
                let Some(t) = topics.get(&topic) else {
                    return Ok(());
                };
                if partition as usize >= t.partitions.len() {
                    return Ok(());
                }
                let g = groups.entry(group).or_insert_with(|| {
                    Mutex::new(Group {
                        members: Vec::new(),
                        offsets: vec![0; t.partitions.len()],
                        topic: topic.clone(),
                        epoch: 1,
                        records_lost: 0,
                    })
                });
                let g = g.get_mut();
                if g.topic == topic {
                    let cell = &mut g.offsets[partition as usize];
                    *cell = (*cell).max(offset);
                }
                Ok(())
            },
        )?;
        recovery.absorb(&info);
        // The offsets log can run ahead of a truncated partition log (the
        // commit record survived, the data's tail did not). Clamp: a group
        // must not resume past the recovered high watermark.
        for g in groups.values_mut() {
            let g = g.get_mut();
            if let Some(t) = topics.get(&g.topic) {
                for (p, off) in g.offsets.iter_mut().enumerate() {
                    let hw = t.partitions[p].lock().next_offset;
                    *off = (*off).min(hw);
                }
            }
        }
        Ok(Broker {
            epoch: Instant::now(),
            topics: RwLock::new(topics),
            groups: RwLock::new(groups),
            wakeup_seq: Mutex::new(0),
            wakeup: Condvar::new(),
            closed: AtomicBool::new(false),
            wal: Some(WalState {
                cfg,
                meta: Mutex::new(meta),
                offsets: Mutex::new(offsets),
            }),
            recovery,
        })
    }

    fn open_partition(
        dir: &Path,
        cfg: &WalConfig,
        retention: &Retention,
    ) -> Result<(PartitionLog, RecoveryInfo), BrokerError> {
        let mut log = PartitionLog::fresh(retention, None);
        let (wal_log, info) = SegmentedLog::open_with(dir, cfg.segment_bytes, cfg.fsync, |rec| {
            let (offset, key, enqueued_s, payload) = wal::decode_message(rec)?;
            log.records.push_back(Message {
                offset,
                enqueued_s,
                key,
                payload: Arc::new(payload),
            });
            log.next_offset = offset + 1;
            // Re-applying retention per replayed record reproduces the live
            // brokers's trim/compaction decisions record for record, so the
            // recovered in-memory state matches the crashed one's.
            log.apply_retention(retention);
            Ok(())
        })?;
        log.wal = Some(wal_log);
        Ok((log, info))
    }

    /// What recovery found when this broker was [`Broker::open`]ed (all
    /// zeros for in-memory brokers and clean starts).
    pub fn recovery_info(&self) -> &RecoveryInfo {
        &self.recovery
    }

    /// True when the broker was opened with a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Close the broker: appends are rejected from here on
    /// ([`BrokerError::BrokerClosed`]), reads still drain, and every
    /// consumer parked in [`Broker::wait_for_data`] is woken so it can
    /// observe the closure instead of hanging.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.note_append();
    }

    /// True once [`Broker::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Seconds since broker start (the latency clock).
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Create a topic with `partitions` partitions and count-based retention
    /// (oldest records trimmed beyond the bound).
    pub fn create_topic(
        &self,
        name: &str,
        partitions: usize,
        retention: usize,
    ) -> Result<(), BrokerError> {
        self.create_topic_with(name, partitions, Retention::Count(retention.max(1)))
    }

    /// Create a topic with an explicit [`Retention`] policy.
    pub fn create_topic_with(
        &self,
        name: &str,
        partitions: usize,
        retention: Retention,
    ) -> Result<(), BrokerError> {
        if self.is_closed() {
            return Err(BrokerError::BrokerClosed);
        }
        if let Some(w) = &self.wal {
            // Topic names become directory components under the WAL root.
            let ok = !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
                && name != "."
                && name != "..";
            if !ok {
                return Err(BrokerError::Wal(WalError {
                    op: "create-topic",
                    path: w.cfg.dir.display().to_string(),
                    detail: format!("topic name '{name}' is not filesystem-safe"),
                }));
            }
        }
        let mut topics = self.topics.write();
        if topics.contains_key(name) {
            return Err(BrokerError::TopicExists(name.to_string()));
        }
        let n = partitions.max(1);
        let mut parts = Vec::with_capacity(n);
        for p in 0..n {
            let wal_log = match &self.wal {
                Some(w) => {
                    let (log, _) = SegmentedLog::open_with(
                        partition_dir(&w.cfg.dir, name, p),
                        w.cfg.segment_bytes,
                        w.cfg.fsync,
                        |_| Ok(()),
                    )?;
                    Some(log)
                }
                None => None,
            };
            parts.push(Mutex::new(PartitionLog::fresh(&retention, wal_log)));
        }
        if let Some(w) = &self.wal {
            let code = match retention {
                Retention::Count(c) => RetentionCode::Count(c as u64),
                Retention::Compact { trigger } => RetentionCode::Compact(trigger as u64),
            };
            w.meta
                .lock()
                .append(&wal::encode_topic_meta(name, n as u32, code))?;
        }
        topics.insert(
            name.to_string(),
            Arc::new(Topic {
                partitions: parts,
                round_robin: Mutex::new(0),
                retention,
            }),
        );
        Ok(())
    }

    /// Number of partitions of a topic.
    pub fn partitions(&self, topic: &str) -> Result<usize, BrokerError> {
        Ok(self.topic(topic)?.partitions.len())
    }

    /// Retention policy of a topic.
    pub fn retention(&self, topic: &str) -> Result<Retention, BrokerError> {
        Ok(self.topic(topic)?.retention)
    }

    fn topic(&self, name: &str) -> Result<Arc<Topic>, BrokerError> {
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| BrokerError::UnknownTopic(name.to_string()))
    }

    /// [`Broker::topic`], checked to have `partition`.
    fn topic_partition(&self, name: &str, partition: usize) -> Result<Arc<Topic>, BrokerError> {
        let t = self.topic(name)?;
        if partition >= t.partitions.len() {
            return Err(BrokerError::UnknownPartition {
                topic: name.to_string(),
                partition,
            });
        }
        Ok(t)
    }

    /// Bump the append sequence and wake parked consumers. The guard is
    /// dropped before `notify_all` (R4: no guard across a wake).
    fn note_append(&self) {
        let mut seq = self.wakeup_seq.lock();
        *seq = seq.wrapping_add(1);
        drop(seq);
        self.wakeup.notify_all();
    }

    /// Current append sequence number. Sample it *before* a poll; if the
    /// poll comes back empty, pass the sample to [`Broker::wait_for_data`] —
    /// an append between the sample and the wait then returns immediately
    /// instead of being missed.
    pub fn data_seq(&self) -> u64 {
        *self.wakeup_seq.lock()
    }

    /// Park until the append sequence moves past `seen` or `timeout`
    /// elapses; returns the current sequence. The wait loops across
    /// spurious wakeups, re-arming with the *remaining* timeout each round,
    /// so a spuriously-notified waiter parks again instead of returning
    /// early and spinning hot inside its intended park window. Missed
    /// wakeups are not possible, provided `seen` was sampled before the
    /// empty poll that led here. A [`Broker::close`] also bumps the
    /// sequence, so waiters observe broker death through the same protocol
    /// as data arrival.
    pub fn wait_for_data(&self, seen: u64, timeout: Duration) -> u64 {
        let start = Instant::now();
        let mut seq = self.wakeup_seq.lock();
        while *seq == seen {
            let Some(remaining) = timeout.checked_sub(start.elapsed()) else {
                break;
            };
            if remaining.is_zero() {
                break;
            }
            let _ = self.wakeup.wait_for(&mut seq, remaining);
        }
        *seq
    }

    /// Test hook: notify parked waiters *without* bumping the append
    /// sequence — a manufactured spurious wakeup. Real condvars produce
    /// these on their own; the hook makes them deterministic to test.
    #[cfg(test)]
    pub(crate) fn spurious_wake(&self) {
        self.wakeup.notify_all();
    }

    /// Wake every parked consumer without appending data (e.g. after the
    /// last producer finishes, so consumers re-check their exit condition
    /// immediately instead of riding out their park timeout).
    pub fn wake_all(&self) {
        self.note_append();
    }

    /// Append a record. Keyed records hash to a fixed partition (per-key
    /// order); unkeyed ones round-robin starting at partition 0. Returns
    /// (partition, offset).
    pub fn produce(
        &self,
        topic: &str,
        key: Option<u64>,
        payload: Arc<Vec<u8>>,
    ) -> Result<(usize, u64), BrokerError> {
        if self.is_closed() {
            return Err(BrokerError::BrokerClosed);
        }
        let t = self.topic(topic)?;
        if matches!(t.retention, Retention::Compact { .. }) && key.is_none() {
            return Err(BrokerError::KeyRequired(topic.to_string()));
        }
        let n = t.partitions.len();
        let p = match key {
            Some(k) => Self::key_partition(k, n),
            None => {
                let mut rr = t.round_robin.lock();
                let p = *rr % n;
                *rr = (p + 1) % n;
                p
            }
        };
        let now = self.now_s();
        let offset = t.partitions[p]
            .lock()
            .append_records([(key, payload)], now, &t.retention)?;
        self.note_append();
        Ok((p, offset))
    }

    pub(crate) fn key_partition(key: u64, partitions: usize) -> usize {
        key_partition(key, partitions)
    }

    /// Append a batch of `(key, payload)` records in one shot: one timestamp
    /// read for the whole batch, one round-robin cursor advance under one
    /// lock, and one lock acquire per *touched partition* regardless of how
    /// many records land there. Record order is preserved within each
    /// partition, and the round-robin cursor is shared with
    /// [`Broker::produce`], so mixing the two APIs keeps the spread even.
    /// Returns the number of records appended.
    pub fn produce_batch(
        &self,
        topic: &str,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<u64, BrokerError> {
        if self.is_closed() {
            return Err(BrokerError::BrokerClosed);
        }
        let t = self.topic(topic)?;
        let compacted = matches!(t.retention, Retention::Compact { .. });
        let n = t.partitions.len();
        let now = self.now_s(); // one timestamp read per batch
        let mut buckets: Vec<Vec<Record>> = (0..n).map(|_| Vec::new()).collect();
        let mut total = 0u64;
        {
            // The round-robin cursor is locked at most once per batch, and
            // only if the batch contains unkeyed records. Nothing has been
            // appended yet, so a KeyRequired reject leaves the log untouched.
            let mut rr = None;
            for (key, payload) in records {
                let p = match key {
                    Some(k) => Self::key_partition(k, n),
                    None => {
                        if compacted {
                            return Err(BrokerError::KeyRequired(topic.to_string()));
                        }
                        let cursor = rr.get_or_insert_with(|| t.round_robin.lock());
                        let p = **cursor % n;
                        **cursor = (p + 1) % n;
                        p
                    }
                };
                buckets[p].push((key, payload));
                total += 1;
            }
        }
        if total == 0 {
            return Ok(0);
        }
        for (part, bucket) in t.partitions.iter().zip(buckets) {
            if !bucket.is_empty() {
                part.lock().append_records(bucket, now, &t.retention)?; // one acquire
            }
        }
        self.note_append();
        Ok(total)
    }

    /// Append a batch of `(partition, key, payload)` records in one shot —
    /// the *routed* sibling of [`Broker::produce_batch`], for producers that
    /// decouple routing from record identity. Compacted projection topics
    /// need exactly that split: records are routed by *entity* (so one
    /// entity's events keep per-partition total order) but keyed by a
    /// kind-aware *compaction identity*, so latest-per-key compaction keeps
    /// the newest record of each (entity, kind) instead of letting one kind
    /// supersede another. Costs match `produce_batch`: one timestamp read
    /// and one lock acquire per touched partition. The whole batch is
    /// validated (partition bounds, keys present on compacted topics) before
    /// anything is appended. Returns the number of records appended.
    pub fn produce_batch_routed(
        &self,
        topic: &str,
        records: impl IntoIterator<Item = (usize, Option<u64>, Arc<Vec<u8>>)>,
    ) -> Result<u64, BrokerError> {
        if self.is_closed() {
            return Err(BrokerError::BrokerClosed);
        }
        let t = self.topic(topic)?;
        let compacted = matches!(t.retention, Retention::Compact { .. });
        let n = t.partitions.len();
        let now = self.now_s(); // one timestamp read per batch
        let mut buckets: Vec<Vec<Record>> = (0..n).map(|_| Vec::new()).collect();
        let mut total = 0u64;
        for (p, key, payload) in records {
            if p >= n {
                return Err(BrokerError::UnknownPartition {
                    topic: topic.to_string(),
                    partition: p,
                });
            }
            if compacted && key.is_none() {
                return Err(BrokerError::KeyRequired(topic.to_string()));
            }
            buckets[p].push((key, payload));
            total += 1;
        }
        if total == 0 {
            return Ok(0);
        }
        for (part, bucket) in t.partitions.iter().zip(buckets) {
            if !bucket.is_empty() {
                part.lock().append_records(bucket, now, &t.retention)?; // one acquire
            }
        }
        self.note_append();
        Ok(total)
    }

    /// Append records to one *explicit* partition with an explicit
    /// timestamp. The replication layer uses this to apply the same batch to
    /// every node: identical inputs yield identical offsets, timestamps, and
    /// WAL bytes on each replica. Returns the base offset of the first
    /// appended record.
    pub(crate) fn append_at(
        &self,
        topic: &str,
        partition: usize,
        enqueued_s: f64,
        records: &[Record],
    ) -> Result<u64, BrokerError> {
        if self.is_closed() {
            return Err(BrokerError::BrokerClosed);
        }
        let t = self.topic_partition(topic, partition)?;
        let mut log = t.partitions[partition].lock();
        let base = log.append_records(records.iter().cloned(), enqueued_s, &t.retention)?;
        drop(log);
        self.note_append();
        Ok(base)
    }

    /// Append already-sequenced messages (offset + timestamp preserved) to a
    /// partition, skipping any the log already has. The replication layer's
    /// catch-up path: a restarted node replays its own WAL prefix, then pulls
    /// the missing suffix from a live replica through this.
    pub(crate) fn append_messages(
        &self,
        topic: &str,
        partition: usize,
        msgs: &[Message],
    ) -> Result<(), BrokerError> {
        if self.is_closed() {
            return Err(BrokerError::BrokerClosed);
        }
        let t = self.topic_partition(topic, partition)?;
        let mut log = t.partitions[partition].lock();
        // Offsets ascend, so the ones already recovered locally are a prefix.
        let fresh = msgs.partition_point(|m| m.offset < log.next_offset);
        log.append_batch(msgs[fresh..].iter().cloned(), &t.retention)?;
        drop(log);
        self.note_append();
        Ok(())
    }

    /// Read up to `max` records from one partition starting at `from`,
    /// without any group bookkeeping.
    pub fn fetch(
        &self,
        topic: &str,
        partition: usize,
        from: u64,
        max: usize,
    ) -> Result<Vec<Message>, BrokerError> {
        let t = self.topic_partition(topic, partition)?;
        let mut out = Vec::new();
        Self::fetch_into(&t, partition, from, max, &mut out);
        Ok(out)
    }

    /// Append up to `max` records from one partition into `buf`; returns the
    /// count appended and the partition's start offset (first offset not
    /// count-trimmed — callers compare it to their committed position to
    /// detect records lost to retention).
    fn fetch_into(
        t: &Topic,
        partition: usize,
        from: u64,
        max: usize,
        buf: &mut Vec<Message>,
    ) -> (usize, u64) {
        let log = t.partitions[partition].lock();
        // Binary-search the start: compaction leaves sparse offsets, so
        // arithmetic indexing from `base` no longer applies.
        let idx = log.position(from);
        let before = buf.len();
        buf.extend(log.records.range(idx..).take(max).cloned());
        (buf.len() - before, log.start_offset)
    }

    /// Next offset to be written in a partition (= count of appended records
    /// when nothing was trimmed).
    pub fn high_watermark(&self, topic: &str, partition: usize) -> Result<u64, BrokerError> {
        let t = self.topic_partition(topic, partition)?;
        let hw = t.partitions[partition].lock().next_offset;
        Ok(hw)
    }

    /// High watermark (next offset to be written) for *every* partition of
    /// `topic`, in partition order — one call instead of a per-partition
    /// loop, and no group join required. This is how projections and
    /// dashboards compute consumer lag cheaply: each partition's mutex is
    /// held only long enough to read one counter.
    pub fn high_watermarks(&self, topic: &str) -> Result<Vec<u64>, BrokerError> {
        let t = self.topic(topic)?;
        Ok(t.partitions.iter().map(|p| p.lock().next_offset).collect())
    }

    /// First offset not trimmed by count-based retention in a partition.
    pub fn start_offset(&self, topic: &str, partition: usize) -> Result<u64, BrokerError> {
        let t = self.topic_partition(topic, partition)?;
        let start = t.partitions[partition].lock().start_offset;
        Ok(start)
    }

    /// Offset of the earliest *retained* record per partition (the
    /// partition's next offset when nothing is retained). Differs from
    /// [`Broker::start_offset`] on compacted topics: compaction supersedes
    /// records without advancing the start offset (superseded is not lost),
    /// so the earliest retained offset — the true lower bound on what a
    /// bootstrap replays — can sit far above it.
    pub fn earliest_offsets(&self, topic: &str) -> Result<Vec<u64>, BrokerError> {
        let t = self.topic(topic)?;
        Ok(t.partitions
            .iter()
            .map(|p| {
                let log = p.lock();
                log.records
                    .front()
                    .map(|m| m.offset)
                    .unwrap_or(log.next_offset)
            })
            .collect())
    }

    /// Number of *retained* records at or after `from` in one partition.
    /// This is the honest backlog of a consumer committed at `from`: records
    /// compacted away (superseded by a newer record of the same key) or
    /// count-trimmed are not work the consumer will ever fetch, so they are
    /// not counted — equivalently, lag is clamped at the earliest retained
    /// offset and can never go negative on a sparse log.
    pub fn retained_after(
        &self,
        topic: &str,
        partition: usize,
        from: u64,
    ) -> Result<u64, BrokerError> {
        let t = self.topic_partition(topic, partition)?;
        let log = t.partitions[partition].lock();
        Ok((log.records.len() - log.position(from)) as u64)
    }

    /// [`Broker::retained_after`] for every partition at once: `from[p]` is
    /// the consumer's committed offset in partition `p` (missing entries
    /// default to 0). Each partition's mutex is held only long enough for
    /// one binary search.
    pub fn retained_counts(&self, topic: &str, from: &[u64]) -> Result<Vec<u64>, BrokerError> {
        let t = self.topic(topic)?;
        Ok(t.partitions
            .iter()
            .enumerate()
            .map(|(p, part)| {
                let log = part.lock();
                let committed = from.get(p).copied().unwrap_or(0);
                (log.records.len() - log.position(committed)) as u64
            })
            .collect())
    }

    /// Join a consumer group on `topic`; partition assignments rebalance to
    /// an even split in member join order. Joining an existing group with a
    /// different topic is an error ([`BrokerError::GroupTopicMismatch`]) —
    /// the group's offset vector is sized to its topic's partition count.
    pub fn join_group(&self, group: &str, topic: &str, consumer: &str) -> Result<(), BrokerError> {
        let n = self.partitions(topic)?;
        let mut groups = self.groups.write();
        let g = groups.entry(group.to_string()).or_insert_with(|| {
            Mutex::new(Group {
                members: Vec::new(),
                offsets: vec![0; n],
                topic: topic.to_string(),
                epoch: 1,
                records_lost: 0,
            })
        });
        let mut g = g.lock();
        if g.topic != topic {
            return Err(BrokerError::GroupTopicMismatch {
                group: group.to_string(),
                existing: g.topic.clone(),
                requested: topic.to_string(),
            });
        }
        if !g.members.iter().any(|m| m == consumer) {
            g.members.push(consumer.to_string());
            g.epoch += 1;
        }
        Ok(())
    }

    /// Partitions currently assigned to `consumer` (even split, join order).
    pub fn assignment(&self, group: &str, consumer: &str) -> Result<Vec<usize>, BrokerError> {
        let groups = self.groups.read();
        let g = groups
            .get(group)
            .ok_or(BrokerError::UnknownConsumer)?
            .lock();
        g.assigned_for(consumer)
    }

    /// Build a [`Subscription`] for a consumer that already joined `group`.
    /// The handle caches the topic and (lazily, on first poll) the partition
    /// assignment, making [`Broker::poll_into`] allocation-free at steady
    /// state.
    pub fn subscribe(&self, group: &str, consumer: &str) -> Result<Subscription, BrokerError> {
        let topic_name = {
            let groups = self.groups.read();
            let g = groups
                .get(group)
                .ok_or(BrokerError::UnknownConsumer)?
                .lock();
            if !g.members.iter().any(|m| m == consumer) {
                return Err(BrokerError::UnknownConsumer);
            }
            g.topic.clone()
        };
        let topic = self.topic(&topic_name)?;
        Ok(Subscription {
            group: group.to_string(),
            consumer: consumer.to_string(),
            topic_name,
            topic,
            epoch: 0, // group epochs start at 1 ⇒ first poll refreshes
            assigned: Vec::new(),
            starts: Vec::new(),
            commits: Vec::new(),
        })
    }

    /// Poll up to `max` records across the subscription's assigned
    /// partitions into `buf` (cleared first; capacity is reused), advancing
    /// the group offsets past what is returned. Returns the record count.
    ///
    /// When count-based retention has trimmed past the group's committed
    /// position, the offset is bumped to the partition's start offset and the
    /// gap is added to the group's `records_lost` — consumption resumes at
    /// the oldest retained record instead of silently pretending nothing
    /// happened.
    ///
    /// Steady-state cost: two group-lock acquires (read offsets, commit) and
    /// one partition-lock acquire per assigned partition with data — the
    /// assignment is cached under the group's rebalance epoch and only
    /// re-derived after a membership change, and no `Vec` is allocated.
    pub fn poll_into(
        &self,
        sub: &mut Subscription,
        max: usize,
        buf: &mut Vec<Message>,
    ) -> Result<usize, BrokerError> {
        buf.clear();
        sub.starts.clear();
        sub.commits.clear();
        {
            let groups = self.groups.read();
            let g = groups
                .get(&sub.group)
                .ok_or(BrokerError::UnknownConsumer)?
                .lock();
            if g.epoch != sub.epoch {
                let me = g
                    .members
                    .iter()
                    .position(|m| m == &sub.consumer)
                    .ok_or(BrokerError::UnknownConsumer)?;
                sub.assigned.clear();
                sub.assigned
                    .extend((0..g.offsets.len()).filter(|p| p % g.members.len() == me));
                sub.epoch = g.epoch;
            }
            sub.starts
                .extend(sub.assigned.iter().map(|&p| g.offsets[p]));
        }
        for (i, &p) in sub.assigned.iter().enumerate() {
            if buf.len() >= max {
                break;
            }
            let (got, start_offset) =
                Self::fetch_into(&sub.topic, p, sub.starts[i], max - buf.len(), buf);
            if got > 0 {
                if let Some(last) = buf.last() {
                    sub.commits.push((p, last.offset + 1, start_offset));
                }
            } else if start_offset > sub.starts[i] {
                // Nothing retained at or past our position, yet the start
                // offset moved beyond it: everything up to the start offset
                // was trimmed. Commit the bump so the loss is accounted once.
                sub.commits.push((p, start_offset, start_offset));
            }
        }
        if !sub.commits.is_empty() {
            self.merge_commits(&sub.group, &sub.commits)?;
            self.log_commits(&sub.group, &sub.topic_name, &sub.commits)?;
        }
        Ok(buf.len())
    }

    /// Max-merge a poll's commits into the group, accounting retention loss:
    /// any gap between the group's committed position and the partition's
    /// start offset is data the group never saw.
    fn merge_commits(&self, group: &str, commits: &[(usize, u64, u64)]) -> Result<(), BrokerError> {
        let groups = self.groups.read();
        let mut g = groups
            .get(group)
            .ok_or(BrokerError::UnknownConsumer)?
            .lock();
        for &(p, off, start_offset) in commits {
            if start_offset > g.offsets[p] {
                g.records_lost += start_offset - g.offsets[p];
            }
            g.offsets[p] = g.offsets[p].max(off);
        }
        Ok(())
    }

    /// Persist `(partition, offset, _)` commits to the offsets WAL in one
    /// write (no-op without one). Called with no other broker lock held;
    /// replay max-merges, so append interleaving across threads is harmless.
    fn log_commits(
        &self,
        group: &str,
        topic: &str,
        commits: &[(usize, u64, u64)],
    ) -> Result<(), BrokerError> {
        if let Some(w) = &self.wal {
            w.offsets
                .lock()
                .append_batch(commits, |&(p, off, _), buf| {
                    buf.extend_from_slice(&wal::encode_commit(group, topic, p as u32, off));
                })
                .map_err(|(_, e)| e)?;
        }
        Ok(())
    }

    /// Explicitly commit a group's next-read offset for one partition
    /// (monotone: an offset at or below the current commit is a no-op, not a
    /// rewind). Validates its target: the partition must belong to the
    /// group's topic and the offset must not lie beyond the partition's next
    /// offset — records that were never appended cannot have been consumed.
    pub fn commit(&self, group: &str, partition: usize, offset: u64) -> Result<(), BrokerError> {
        let topic_name = {
            let groups = self.groups.read();
            let g = groups
                .get(group)
                .ok_or_else(|| BrokerError::UnknownGroup(group.to_string()))?
                .lock();
            if partition >= g.offsets.len() {
                return Err(BrokerError::UnknownPartition {
                    topic: g.topic.clone(),
                    partition,
                });
            }
            g.topic.clone()
        };
        // The group lock is dropped before the partition lock is taken (no
        // nesting); the watermark only grows, so a stale sample can only
        // reject — never accept — an out-of-range offset.
        let hw = self.high_watermark(&topic_name, partition)?;
        if offset > hw {
            return Err(BrokerError::OffsetBeyondEnd {
                topic: topic_name,
                partition,
                offset,
                next_offset: hw,
            });
        }
        {
            let groups = self.groups.read();
            let mut g = groups
                .get(group)
                .ok_or_else(|| BrokerError::UnknownGroup(group.to_string()))?
                .lock();
            if partition >= g.offsets.len() {
                return Err(BrokerError::UnknownPartition {
                    topic: g.topic.clone(),
                    partition,
                });
            }
            g.offsets[partition] = g.offsets[partition].max(offset);
        }
        self.log_commits(group, &topic_name, &[(partition, offset, 0)])
    }

    /// Poll up to `max` records across the consumer's assigned partitions;
    /// advances (commits) the group offsets past what is returned. Stateless
    /// convenience path — allocates per call and re-derives the assignment;
    /// hot loops should hold a [`Subscription`] and use
    /// [`Broker::poll_into`].
    pub fn poll(
        &self,
        group: &str,
        consumer: &str,
        max: usize,
    ) -> Result<Vec<Message>, BrokerError> {
        // One lock acquire for assignment + topic + starting offsets.
        let (topic_name, starts): (String, Vec<(usize, u64)>) = {
            let groups = self.groups.read();
            let g = groups
                .get(group)
                .ok_or(BrokerError::UnknownConsumer)?
                .lock();
            let assigned = g.assigned_for(consumer)?;
            (
                g.topic.clone(),
                assigned.iter().map(|&p| (p, g.offsets[p])).collect(),
            )
        };
        let t = self.topic(&topic_name)?;
        let mut out = Vec::new();
        let mut commits: Vec<(usize, u64, u64)> = Vec::new();
        for (p, from) in starts {
            if out.len() >= max {
                break;
            }
            let (got, start_offset) = Self::fetch_into(&t, p, from, max - out.len(), &mut out);
            if got > 0 {
                if let Some(last) = out.last() {
                    commits.push((p, last.offset + 1, start_offset));
                }
            } else if start_offset > from {
                commits.push((p, start_offset, start_offset));
            }
        }
        if !commits.is_empty() {
            self.merge_commits(group, &commits)?;
            self.log_commits(group, &topic_name, &commits)?;
        }
        Ok(out)
    }

    /// Sum of committed offsets of a group (= records consumed, when nothing
    /// was trimmed before consumption).
    pub fn group_consumed(&self, group: &str) -> u64 {
        self.groups
            .read()
            .get(group)
            .map(|g| g.lock().offsets.iter().sum())
            .unwrap_or(0)
    }

    /// Snapshot of a group's accounting: committed offsets, membership,
    /// rebalance epoch, records lost to retention, and per-partition lag.
    pub fn group_stats(&self, group: &str) -> Result<GroupStats, BrokerError> {
        let mut stats = {
            let groups = self.groups.read();
            let g = groups
                .get(group)
                .ok_or_else(|| BrokerError::UnknownGroup(group.to_string()))?
                .lock();
            GroupStats {
                topic: g.topic.clone(),
                members: g.members.len(),
                epoch: g.epoch,
                committed: g.offsets.iter().sum(),
                offsets: g.offsets.clone(),
                records_lost: g.records_lost,
                lag: Vec::new(),
            }
        };
        // Lag needs the partition locks; take them only after the group
        // guard is dropped (no nested group→partition locking). Counting
        // retained records (not high-watermark arithmetic) keeps lag honest
        // on sparse compacted logs: superseded records are never backlog.
        stats.lag = self.retained_counts(&stats.topic, &stats.offsets)?;
        Ok(stats)
    }

    /// Names of all groups (sorted, for deterministic iteration).
    pub fn group_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.groups.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Names of all topics (sorted, for deterministic iteration).
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.topics.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// The broker's keyed-partitioning function: which partition of `partitions`
/// a record keyed `key` lands in. Public so layers *above* the broker (shard
/// planners, routed producers) can co-locate their routing with the broker's
/// without re-implementing the hash.
pub fn key_partition(key: u64, partitions: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % partitions
}

fn partition_dir(root: &Path, topic: &str, partition: usize) -> PathBuf {
    root.join("topics").join(topic).join(partition.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{FsyncPolicy, TempDir};

    fn payload(b: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![b; 8])
    }

    #[test]
    fn create_and_duplicate_topic() {
        let b = Broker::new();
        b.create_topic("t", 4, 1000).unwrap();
        assert_eq!(b.partitions("t").unwrap(), 4);
        assert_eq!(
            b.create_topic("t", 2, 10),
            Err(BrokerError::TopicExists("t".into()))
        );
        assert_eq!(
            b.partitions("nope"),
            Err(BrokerError::UnknownTopic("nope".into()))
        );
    }

    #[test]
    fn offsets_are_dense_and_ordered_per_partition() {
        let b = Broker::new();
        b.create_topic("t", 1, 1000).unwrap();
        for i in 0..10 {
            let (p, off) = b.produce("t", None, payload(i)).unwrap();
            assert_eq!(p, 0);
            assert_eq!(off, i as u64);
        }
        let msgs = b.fetch("t", 0, 0, 100).unwrap();
        assert_eq!(msgs.len(), 10);
        assert!(msgs.windows(2).all(|w| w[0].offset + 1 == w[1].offset));
        assert!(msgs.windows(2).all(|w| w[0].enqueued_s <= w[1].enqueued_s));
    }

    #[test]
    fn keyed_records_stay_in_one_partition() {
        let b = Broker::new();
        b.create_topic("t", 8, 1000).unwrap();
        let parts: Vec<usize> = (0..20)
            .map(|_| b.produce("t", Some(42), payload(0)).unwrap().0)
            .collect();
        assert!(parts.iter().all(|&p| p == parts[0]));
        // Different keys spread.
        let spread: std::collections::HashSet<usize> = (0..100)
            .map(|k| b.produce("t", Some(k), payload(0)).unwrap().0)
            .collect();
        assert!(spread.len() > 3, "keys should hash across partitions");
    }

    #[test]
    fn unkeyed_round_robin_starts_at_zero_and_spreads() {
        let b = Broker::new();
        b.create_topic("t", 4, 1000).unwrap();
        let (first, _) = b.produce("t", None, payload(0)).unwrap();
        assert_eq!(first, 0, "first unkeyed record lands on partition 0");
        let mut counts = [1u32, 0, 0, 0];
        for _ in 0..39 {
            let (p, _) = b.produce("t", None, payload(0)).unwrap();
            counts[p] += 1;
        }
        assert_eq!(counts, [10, 10, 10, 10]);
    }

    #[test]
    fn round_robin_cursor_is_shared_between_produce_and_batch() {
        let b = Broker::new();
        b.create_topic("t", 4, 1000).unwrap();
        // 3 singles land on 0, 1, 2; a batch of 5 continues 3, 0, 1, 2, 3.
        for _ in 0..3 {
            b.produce("t", None, payload(0)).unwrap();
        }
        let n = b
            .produce_batch("t", (0..5).map(|_| (None, payload(1))))
            .unwrap();
        assert_eq!(n, 5);
        let hw: Vec<u64> = (0..4).map(|p| b.high_watermark("t", p).unwrap()).collect();
        assert_eq!(hw, vec![2, 2, 2, 2]);
    }

    #[test]
    fn produce_batch_appends_in_order_with_one_timestamp() {
        let b = Broker::new();
        b.create_topic("t", 2, 1000).unwrap();
        let n = b
            .produce_batch("t", (0..10u8).map(|i| (Some(7), payload(i))))
            .unwrap();
        assert_eq!(n, 10);
        // All keyed to the same partition, dense offsets, payload order kept.
        let part = Broker::key_partition(7, 2);
        let msgs = b.fetch("t", part, 0, 100).unwrap();
        assert_eq!(msgs.len(), 10);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(m.offset, i as u64);
            assert_eq!(m.payload[0], i as u8);
        }
        // One timestamp read for the whole batch.
        assert!(msgs.windows(2).all(|w| w[0].enqueued_s == w[1].enqueued_s));
        assert_eq!(b.produce_batch("t", std::iter::empty()).unwrap(), 0);
        assert_eq!(
            b.produce_batch("nope", std::iter::empty()),
            Err(BrokerError::UnknownTopic("nope".into()))
        );
    }

    #[test]
    fn produce_batch_respects_retention() {
        let b = Broker::new();
        b.create_topic("t", 1, 5).unwrap();
        b.produce_batch("t", (0..12u8).map(|i| (None, payload(i))))
            .unwrap();
        let msgs = b.fetch("t", 0, 0, 100).unwrap();
        assert_eq!(msgs.len(), 5);
        assert_eq!(msgs[0].offset, 7, "oldest retained offset");
        assert_eq!(b.high_watermark("t", 0).unwrap(), 12);
    }

    #[test]
    fn retention_trims_oldest() {
        let b = Broker::new();
        b.create_topic("t", 1, 5).unwrap();
        for i in 0..12u8 {
            b.produce("t", None, payload(i)).unwrap();
        }
        let msgs = b.fetch("t", 0, 0, 100).unwrap();
        assert_eq!(msgs.len(), 5);
        assert_eq!(msgs[0].offset, 7, "oldest retained offset");
        assert_eq!(b.high_watermark("t", 0).unwrap(), 12);
        assert_eq!(b.start_offset("t", 0).unwrap(), 7);
    }

    #[test]
    fn consumer_group_assignment_is_balanced() {
        let b = Broker::new();
        b.create_topic("t", 6, 1000).unwrap();
        b.join_group("g", "t", "c0").unwrap();
        b.join_group("g", "t", "c1").unwrap();
        b.join_group("g", "t", "c2").unwrap();
        let a0 = b.assignment("g", "c0").unwrap();
        let a1 = b.assignment("g", "c1").unwrap();
        let a2 = b.assignment("g", "c2").unwrap();
        assert_eq!(a0, vec![0, 3]);
        assert_eq!(a1, vec![1, 4]);
        assert_eq!(a2, vec![2, 5]);
        assert_eq!(
            b.assignment("g", "ghost"),
            Err(BrokerError::UnknownConsumer)
        );
    }

    #[test]
    fn join_group_rejects_topic_mismatch() {
        let b = Broker::new();
        b.create_topic("t1", 4, 1000).unwrap();
        b.create_topic("t2", 2, 1000).unwrap();
        b.join_group("g", "t1", "c0").unwrap();
        assert_eq!(
            b.join_group("g", "t2", "c1"),
            Err(BrokerError::GroupTopicMismatch {
                group: "g".into(),
                existing: "t1".into(),
                requested: "t2".into(),
            })
        );
        // The failed join must not have touched membership.
        assert_eq!(b.assignment("g", "c0").unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(b.assignment("g", "c1"), Err(BrokerError::UnknownConsumer));
        // Re-joining with the right topic still works.
        b.join_group("g", "t1", "c1").unwrap();
        assert_eq!(b.assignment("g", "c1").unwrap(), vec![1, 3]);
    }

    #[test]
    fn poll_advances_offsets_without_redelivery() {
        let b = Broker::new();
        b.create_topic("t", 2, 1000).unwrap();
        b.join_group("g", "t", "c").unwrap();
        for i in 0..10u8 {
            b.produce("t", None, payload(i)).unwrap();
        }
        let first = b.poll("g", "c", 100).unwrap();
        assert_eq!(first.len(), 10);
        let again = b.poll("g", "c", 100).unwrap();
        assert!(again.is_empty(), "no redelivery after commit");
        assert_eq!(b.group_consumed("g"), 10);
    }

    #[test]
    fn poll_respects_max() {
        let b = Broker::new();
        b.create_topic("t", 1, 1000).unwrap();
        b.join_group("g", "t", "c").unwrap();
        for i in 0..10u8 {
            b.produce("t", None, payload(i)).unwrap();
        }
        let batch = b.poll("g", "c", 3).unwrap();
        assert_eq!(batch.len(), 3);
        let rest = b.poll("g", "c", 100).unwrap();
        assert_eq!(rest.len(), 7);
    }

    #[test]
    fn poll_into_reuses_buffer_and_commits() {
        let b = Broker::new();
        b.create_topic("t", 4, 1000).unwrap();
        b.join_group("g", "t", "c").unwrap();
        let mut sub = b.subscribe("g", "c").unwrap();
        let mut buf = Vec::new();
        assert_eq!(b.poll_into(&mut sub, 64, &mut buf).unwrap(), 0);
        assert_eq!(sub.assignment(), &[0, 1, 2, 3]);
        b.produce_batch("t", (0..10u8).map(|i| (None, payload(i))))
            .unwrap();
        assert_eq!(b.poll_into(&mut sub, 3, &mut buf).unwrap(), 3);
        assert_eq!(buf.len(), 3);
        let cap = buf.capacity();
        assert_eq!(b.poll_into(&mut sub, 64, &mut buf).unwrap(), 7);
        assert!(buf.capacity() >= cap, "buffer capacity is retained");
        assert_eq!(b.poll_into(&mut sub, 64, &mut buf).unwrap(), 0);
        assert_eq!(b.group_consumed("g"), 10, "poll_into commits offsets");
    }

    #[test]
    fn poll_and_poll_into_share_commits() {
        let b = Broker::new();
        b.create_topic("t", 2, 1000).unwrap();
        b.join_group("g", "t", "c").unwrap();
        let mut sub = b.subscribe("g", "c").unwrap();
        let mut buf = Vec::new();
        for i in 0..10u8 {
            b.produce("t", None, payload(i)).unwrap();
        }
        let first = b.poll_into(&mut sub, 6, &mut buf).unwrap();
        let rest = b.poll("g", "c", 100).unwrap();
        assert_eq!(
            first + rest.len(),
            10,
            "no loss, no redelivery across paths"
        );
    }

    #[test]
    fn subscription_refreshes_after_rebalance() {
        let b = Broker::new();
        b.create_topic("t", 4, 1000).unwrap();
        b.join_group("g", "t", "c0").unwrap();
        let mut sub = b.subscribe("g", "c0").unwrap();
        let mut buf = Vec::new();
        b.poll_into(&mut sub, 1, &mut buf).unwrap();
        assert_eq!(sub.assignment(), &[0, 1, 2, 3]);
        b.join_group("g", "t", "c1").unwrap();
        b.poll_into(&mut sub, 1, &mut buf).unwrap();
        assert_eq!(sub.assignment(), &[0, 2], "epoch bump shrinks assignment");
        // Disjoint with the new member; the whole stream is still covered.
        let mut sub1 = b.subscribe("g", "c1").unwrap();
        b.poll_into(&mut sub1, 1, &mut buf).unwrap();
        assert_eq!(sub1.assignment(), &[1, 3]);
    }

    #[test]
    fn subscribe_requires_membership() {
        let b = Broker::new();
        b.create_topic("t", 2, 1000).unwrap();
        b.join_group("g", "t", "c").unwrap();
        assert!(b.subscribe("g", "c").is_ok());
        assert!(matches!(
            b.subscribe("g", "ghost"),
            Err(BrokerError::UnknownConsumer)
        ));
        assert!(matches!(
            b.subscribe("nope", "c"),
            Err(BrokerError::UnknownConsumer)
        ));
    }

    #[test]
    fn two_groups_consume_independently() {
        let b = Broker::new();
        b.create_topic("t", 1, 1000).unwrap();
        b.join_group("g1", "t", "c").unwrap();
        b.join_group("g2", "t", "c").unwrap();
        for i in 0..5u8 {
            b.produce("t", None, payload(i)).unwrap();
        }
        assert_eq!(b.poll("g1", "c", 100).unwrap().len(), 5);
        assert_eq!(b.poll("g2", "c", 100).unwrap().len(), 5);
    }

    #[test]
    fn wait_for_data_wakes_on_produce() {
        let b = Arc::new(Broker::new());
        b.create_topic("t", 1, 1000).unwrap();
        let seen = b.data_seq();
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait_for_data(seen, Duration::from_secs(10)))
        };
        // Give the waiter a moment to park, then append.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        b.produce("t", None, payload(0)).unwrap();
        let got = waiter.join().unwrap();
        assert_ne!(got, seen, "append must advance the sequence");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "wakeup, not timeout, must end the wait"
        );
    }

    #[test]
    fn wait_for_data_returns_immediately_when_stale() {
        let b = Broker::new();
        b.create_topic("t", 1, 1000).unwrap();
        let seen = b.data_seq();
        b.produce("t", None, payload(0)).unwrap();
        let t0 = Instant::now();
        let got = b.wait_for_data(seen, Duration::from_secs(10));
        assert_ne!(got, seen);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "stale seen returns fast"
        );
    }

    #[test]
    fn spurious_wakeups_do_not_burn_the_timeout_budget() {
        // A waiter hammered with spurious notifications (sequence unchanged)
        // must ride out its full park window instead of returning early:
        // the pre-fix single wait_for turned every spurious wake into a hot
        // loop iteration in the consumer above it.
        let b = Arc::new(Broker::new());
        let seen = b.data_seq();
        let timeout = Duration::from_millis(300);
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let got = b.wait_for_data(seen, timeout);
                (got, t0.elapsed())
            })
        };
        // Spurious wakes well inside the park window.
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(20));
            b.spurious_wake();
        }
        let (got, waited) = waiter.join().unwrap();
        assert_eq!(got, seen, "no append happened; the sequence must not move");
        assert!(
            waited >= Duration::from_millis(250),
            "spurious wakeups burned the timeout budget: waited only {waited:?}"
        );
    }

    #[test]
    fn spuriously_woken_waiter_still_sees_a_real_append() {
        // The re-armed wait must stay correct: a real append after a burst
        // of spurious wakes still ends the wait promptly.
        let b = Arc::new(Broker::new());
        b.create_topic("t", 1, 1000).unwrap();
        let seen = b.data_seq();
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait_for_data(seen, Duration::from_secs(10)))
        };
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(10));
            b.spurious_wake();
        }
        let t0 = Instant::now();
        b.produce("t", None, payload(0)).unwrap();
        let got = waiter.join().unwrap();
        assert_ne!(got, seen, "append must advance the sequence");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the real wakeup, not the timeout, must end the wait"
        );
    }

    #[test]
    fn wake_all_releases_parked_waiters() {
        let b = Arc::new(Broker::new());
        let seen = b.data_seq();
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait_for_data(seen, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(20));
        b.wake_all();
        let t0 = Instant::now();
        waiter.join().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn close_rejects_appends_wakes_waiters_and_keeps_reads() {
        let b = Arc::new(Broker::new());
        b.create_topic("t", 1, 1000).unwrap();
        b.join_group("g", "t", "c").unwrap();
        b.produce("t", None, payload(1)).unwrap();
        let seen = b.data_seq();
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait_for_data(seen, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        b.close();
        waiter.join().unwrap(); // close must unpark, not time out
        assert!(b.is_closed());
        assert_eq!(
            b.produce("t", None, payload(2)),
            Err(BrokerError::BrokerClosed)
        );
        assert_eq!(
            b.produce_batch("t", (0..3).map(|_| (None, payload(2)))),
            Err(BrokerError::BrokerClosed)
        );
        assert_eq!(b.create_topic("t2", 1, 10), Err(BrokerError::BrokerClosed));
        // Reads still drain what is in memory.
        assert_eq!(b.poll("g", "c", 100).unwrap().len(), 1);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let b = Arc::new(Broker::new());
        b.create_topic("t", 4, 1_000_000).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    if i % 2 == 0 {
                        for _ in 0..500 {
                            b.produce("t", None, payload(1)).unwrap();
                        }
                    } else {
                        // Batched producers interleave with per-message ones.
                        for _ in 0..(500 / 50) {
                            b.produce_batch("t", (0..50).map(|_| (None, payload(1))))
                                .unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..4).map(|p| b.high_watermark("t", p).unwrap()).sum();
        assert_eq!(total, 4000);
    }

    #[test]
    fn concurrent_group_consumers_partition_the_stream() {
        let b = Arc::new(Broker::new());
        b.create_topic("t", 4, 1_000_000).unwrap();
        for i in 0..1000u64 {
            b.produce("t", Some(i), payload(0)).unwrap();
        }
        b.join_group("g", "t", "c0").unwrap();
        b.join_group("g", "t", "c1").unwrap();
        let consume = |name: &'static str, b: Arc<Broker>| {
            std::thread::spawn(move || {
                let mut sub = b.subscribe("g", name).unwrap();
                let mut buf = Vec::new();
                let mut got = 0u64;
                loop {
                    let n = b.poll_into(&mut sub, 64, &mut buf).unwrap();
                    if n == 0 {
                        break;
                    }
                    got += n as u64;
                }
                got
            })
        };
        let h0 = consume("c0", Arc::clone(&b));
        let h1 = consume("c1", Arc::clone(&b));
        let total = h0.join().unwrap() + h1.join().unwrap();
        assert_eq!(total, 1000, "exactly-once across group members");
    }

    // ----- durability, compaction, loss accounting, commit validation -----

    #[test]
    fn retention_trim_past_commit_is_counted_not_silent() {
        let b = Broker::new();
        b.create_topic("t", 1, 5).unwrap();
        b.join_group("g", "t", "c").unwrap();
        // Consume the first 2 of 4 records, then overrun retention so the
        // log trims far past the group's committed position.
        b.produce_batch("t", (0..4u8).map(|i| (None, payload(i))))
            .unwrap();
        let first = b.poll("g", "c", 2).unwrap();
        assert_eq!(first.len(), 2);
        b.produce_batch("t", (0..20u8).map(|i| (None, payload(i))))
            .unwrap();
        // Offsets 2..19 were trimmed (start offset 19); committed was 2.
        let start = b.start_offset("t", 0).unwrap();
        assert_eq!(start, 19);
        let rest = b.poll("g", "c", 100).unwrap();
        assert_eq!(rest.len(), 5, "resumes at the oldest retained record");
        assert_eq!(rest[0].offset, start);
        let stats = b.group_stats("g").unwrap();
        assert_eq!(stats.records_lost, start - 2, "trimmed gap surfaced");
        assert_eq!(stats.committed, 24, "offset bumped past the gap");
        // A second poll accounts nothing new.
        assert!(b.poll("g", "c", 100).unwrap().is_empty());
        assert_eq!(b.group_stats("g").unwrap().records_lost, start - 2);
    }

    #[test]
    fn poll_into_counts_trim_loss_like_poll() {
        let b = Broker::new();
        b.create_topic("t", 1, 2).unwrap();
        b.join_group("g", "t", "c").unwrap();
        // Consume everything appended so far (no loss yet)...
        b.produce_batch("t", (0..2u8).map(|i| (None, payload(i))))
            .unwrap();
        assert_eq!(b.poll("g", "c", 100).unwrap().len(), 2);
        assert_eq!(b.group_stats("g").unwrap().records_lost, 0);
        // ...then trim past the committed position and consume survivors
        // through the subscription path: loss = commit-to-start gap.
        let mut sub = b.subscribe("g", "c").unwrap();
        let mut buf = Vec::new();
        b.produce_batch("t", (0..6u8).map(|i| (None, payload(i))))
            .unwrap();
        assert_eq!(b.poll_into(&mut sub, 100, &mut buf).unwrap(), 2);
        let stats = b.group_stats("g").unwrap();
        assert_eq!(stats.records_lost, 4, "offsets 2..6 trimmed unconsumed");
        assert_eq!(stats.committed, 8);
    }

    #[test]
    fn compacted_topic_keeps_latest_per_key() {
        let b = Broker::new();
        b.create_topic_with("kv", 1, Retention::Compact { trigger: 4 })
            .unwrap();
        // 3 keys, many updates: only each key's latest survives compaction.
        for round in 0..10u64 {
            for k in 0..3u64 {
                b.produce("kv", Some(k), Arc::new(vec![round as u8; 4]))
                    .unwrap();
            }
        }
        let msgs = b.fetch("kv", 0, 0, 1000).unwrap();
        let mut latest: HashMap<u64, (u64, u8)> = HashMap::new();
        for m in &msgs {
            let k = m.key.unwrap();
            let e = latest.entry(k).or_insert((m.offset, m.payload[0]));
            if m.offset > e.0 {
                *e = (m.offset, m.payload[0]);
            }
        }
        assert_eq!(latest.len(), 3, "every key survives");
        for (_, (_, v)) in latest {
            assert_eq!(v, 9, "the retained record is each key's latest");
        }
        assert!(
            msgs.len() < 30,
            "compaction removed superseded records, kept {}",
            msgs.len()
        );
        // Offsets stay sparse-but-ordered and the watermark is untouched.
        assert!(msgs.windows(2).all(|w| w[0].offset < w[1].offset));
        assert_eq!(b.high_watermark("kv", 0).unwrap(), 30);
        assert_eq!(b.start_offset("kv", 0).unwrap(), 0, "compaction ≠ trim");
    }

    #[test]
    fn compacted_topic_rejects_unkeyed_records() {
        let b = Broker::new();
        b.create_topic_with("kv", 2, Retention::Compact { trigger: 8 })
            .unwrap();
        assert_eq!(
            b.produce("kv", None, payload(0)),
            Err(BrokerError::KeyRequired("kv".into()))
        );
        let before: u64 = (0..2).map(|p| b.high_watermark("kv", p).unwrap()).sum();
        assert_eq!(
            b.produce_batch("kv", [(Some(1), payload(0)), (None, payload(1))]),
            Err(BrokerError::KeyRequired("kv".into()))
        );
        let after: u64 = (0..2).map(|p| b.high_watermark("kv", p).unwrap()).sum();
        assert_eq!(before, after, "rejected batch appends nothing");
    }

    #[test]
    fn compacted_poll_skips_superseded_without_counting_loss() {
        let b = Broker::new();
        b.create_topic_with("kv", 1, Retention::Compact { trigger: 2 })
            .unwrap();
        b.join_group("g", "kv", "c").unwrap();
        for i in 0..20u64 {
            b.produce("kv", Some(i % 2), payload(i as u8)).unwrap();
        }
        let got = b.poll("g", "c", 100).unwrap();
        assert!(!got.is_empty());
        let stats = b.group_stats("g").unwrap();
        assert_eq!(stats.records_lost, 0, "superseded records are not loss");
    }

    #[test]
    fn compacted_lag_counts_retained_not_superseded() {
        let b = Broker::new();
        b.create_topic_with("kv", 1, Retention::Compact { trigger: 2 })
            .unwrap();
        b.join_group("g", "kv", "c").unwrap();
        // 2 live keys churned 50 rounds: the watermark is 100, but only a
        // handful of retained records exist. Honest lag counts those, not
        // the 90+ compacted-away updates the group will never fetch.
        for i in 0..100u64 {
            b.produce("kv", Some(i % 2), payload(i as u8)).unwrap();
        }
        let stats = b.group_stats("g").unwrap();
        let retained = b.retained_after("kv", 0, 0).unwrap();
        assert_eq!(stats.total_lag(), retained);
        assert!(
            stats.total_lag() < 100,
            "lag {} must not count compacted-away records",
            stats.total_lag()
        );
        // Drain; lag reaches 0 even though committed < high watermark.
        while !b.poll("g", "c", 64).unwrap().is_empty() {}
        let stats = b.group_stats("g").unwrap();
        assert_eq!(stats.total_lag(), 0);
        assert!(stats.committed <= b.high_watermark("kv", 0).unwrap());
        // Count-trimmed topics clamp the same way: commit far behind the
        // trim point and lag still only counts retained records.
        let b2 = Broker::new();
        b2.create_topic("t", 1, 10).unwrap();
        b2.join_group("g", "t", "c").unwrap();
        for i in 0..50u8 {
            b2.produce("t", None, payload(i)).unwrap();
        }
        let stats = b2.group_stats("g").unwrap();
        assert_eq!(stats.total_lag(), 10, "clamped at earliest retained");
    }

    #[test]
    fn earliest_offsets_track_retained_not_start() {
        let b = Broker::new();
        b.create_topic_with("kv", 2, Retention::Compact { trigger: 2 })
            .unwrap();
        assert_eq!(b.earliest_offsets("kv").unwrap(), vec![0, 0], "empty");
        for i in 0..40u64 {
            b.produce("kv", Some(i % 2), payload(i as u8)).unwrap();
        }
        let earliest = b.earliest_offsets("kv").unwrap();
        let hw = b.high_watermarks("kv").unwrap();
        let start: Vec<u64> = (0..2).map(|p| b.start_offset("kv", p).unwrap()).collect();
        for p in 0..2 {
            if hw[p] == 0 {
                continue; // both keys may hash to one partition
            }
            assert_eq!(start[p], 0, "compaction never advances start_offset");
            assert!(
                earliest[p] > start[p],
                "p{p}: earliest retained {} should sit above start {}",
                earliest[p],
                start[p]
            );
            assert!(earliest[p] < hw[p]);
        }
        assert_eq!(
            b.earliest_offsets("nope"),
            Err(BrokerError::UnknownTopic("nope".into()))
        );
    }

    #[test]
    fn produce_batch_routed_routes_and_validates() {
        let b = Broker::new();
        b.create_topic_with("kv", 4, Retention::Compact { trigger: 64 })
            .unwrap();
        // Routing is explicit: identity keys do NOT decide placement.
        let n = b
            .produce_batch_routed(
                "kv",
                (0..12u64).map(|i| (1usize, Some(i), payload(i as u8))),
            )
            .unwrap();
        assert_eq!(n, 12);
        let hw = b.high_watermarks("kv").unwrap();
        assert_eq!(hw, vec![0, 12, 0, 0], "all records on the routed partition");
        // Whole-batch validation: nothing lands if any record is bad.
        assert_eq!(
            b.produce_batch_routed("kv", [(9usize, Some(1), payload(0))]),
            Err(BrokerError::UnknownPartition {
                topic: "kv".into(),
                partition: 9,
            })
        );
        assert_eq!(
            b.produce_batch_routed("kv", [(0usize, Some(1), payload(0)), (1, None, payload(1))]),
            Err(BrokerError::KeyRequired("kv".into()))
        );
        assert_eq!(b.high_watermarks("kv").unwrap(), vec![0, 12, 0, 0]);
        // Compaction keys on the record key even though routing ignored it:
        // churning key 3 supersedes only key 3's earlier records, and every
        // other key's latest record survives.
        for _ in 0..200 {
            b.produce_batch_routed("kv", [(1usize, Some(3), payload(7))])
                .unwrap();
        }
        let msgs = b.fetch("kv", 1, 0, 1000).unwrap();
        assert!(
            msgs.len() < 100,
            "retained {} of 212 appends — compaction must shed superseded",
            msgs.len()
        );
        for k in 0..12u64 {
            assert!(
                msgs.iter().any(|m| m.key == Some(k)),
                "latest record of key {k} must survive compaction"
            );
        }
        assert_eq!(b.produce_batch_routed("kv", []).unwrap(), 0);
    }

    #[test]
    fn commit_validates_partition_and_offset() {
        let b = Broker::new();
        b.create_topic("t", 2, 1000).unwrap();
        b.join_group("g", "t", "c").unwrap();
        b.produce_batch("t", (0..6u8).map(|i| (None, payload(i))))
            .unwrap();
        // Valid commit inside the log.
        b.commit("g", 0, 2).unwrap();
        assert_eq!(b.group_stats("g").unwrap().offsets[0], 2);
        // Commit at exactly the high watermark is allowed (fully consumed).
        let hw = b.high_watermark("t", 1).unwrap();
        b.commit("g", 1, hw).unwrap();
        // Beyond the watermark: rejected, not stored.
        assert_eq!(
            b.commit("g", 0, 99),
            Err(BrokerError::OffsetBeyondEnd {
                topic: "t".into(),
                partition: 0,
                offset: 99,
                next_offset: 3,
            })
        );
        assert_eq!(b.group_stats("g").unwrap().offsets[0], 2);
        // Partition outside the group's topic: rejected.
        assert_eq!(
            b.commit("g", 2, 0),
            Err(BrokerError::UnknownPartition {
                topic: "t".into(),
                partition: 2,
            })
        );
        // Unknown group: rejected.
        assert_eq!(
            b.commit("nope", 0, 0),
            Err(BrokerError::UnknownGroup("nope".into()))
        );
        // Commits are monotone: a lower offset is a no-op, not a rewind.
        b.commit("g", 0, 1).unwrap();
        assert_eq!(b.group_stats("g").unwrap().offsets[0], 2);
    }

    #[test]
    fn durable_broker_recovers_topics_records_and_offsets() {
        let tmp = TempDir::new("broker-recover").unwrap();
        let cfg = WalConfig::new(tmp.path()).with_fsync(FsyncPolicy::Never);
        {
            let b = Broker::open(cfg.clone()).unwrap();
            b.create_topic("t", 2, 1000).unwrap();
            b.join_group("g", "t", "c").unwrap();
            b.produce_batch("t", (0..10u64).map(|i| (Some(i), payload(i as u8))))
                .unwrap();
            let consumed = b.poll("g", "c", 4).unwrap();
            assert_eq!(consumed.len(), 4);
            // Drop without any shutdown ceremony: the WAL is the truth.
        }
        let b = Broker::open(cfg).unwrap();
        assert!(b.is_durable());
        assert_eq!(b.topic_names(), vec!["t".to_string()]);
        assert_eq!(b.partitions("t").unwrap(), 2);
        let total: u64 = (0..2).map(|p| b.high_watermark("t", p).unwrap()).sum();
        assert_eq!(total, 10, "all records replayed");
        assert!(b.recovery_info().records >= 10);
        // The group resumes where it was committed: exactly the 6 unread
        // records come back, none of the 4 already-consumed ones.
        b.join_group("g", "t", "c").unwrap();
        let rest = b.poll("g", "c", 100).unwrap();
        assert_eq!(rest.len(), 6, "resume from committed offsets");
        let stats = b.group_stats("g").unwrap();
        assert_eq!(stats.committed, 10);
        assert_eq!(stats.records_lost, 0);
    }

    #[test]
    fn durable_broker_replays_compaction_deterministically() {
        let tmp = TempDir::new("broker-compact").unwrap();
        let cfg = WalConfig::new(tmp.path()).with_fsync(FsyncPolicy::Never);
        let before: Vec<(u64, u64)>;
        {
            let b = Broker::open(cfg.clone()).unwrap();
            b.create_topic_with("kv", 1, Retention::Compact { trigger: 4 })
                .unwrap();
            for i in 0..40u64 {
                b.produce("kv", Some(i % 5), payload(i as u8)).unwrap();
            }
            before = b
                .fetch("kv", 0, 0, 1000)
                .unwrap()
                .iter()
                .map(|m| (m.offset, m.key.unwrap_or(0)))
                .collect();
        }
        let b = Broker::open(cfg).unwrap();
        assert_eq!(
            b.retention("kv").unwrap(),
            Retention::Compact { trigger: 4 }
        );
        let after: Vec<(u64, u64)> = b
            .fetch("kv", 0, 0, 1000)
            .unwrap()
            .iter()
            .map(|m| (m.offset, m.key.unwrap_or(0)))
            .collect();
        assert_eq!(before, after, "replay reproduces compaction exactly");
        assert_eq!(b.high_watermark("kv", 0).unwrap(), 40);
    }

    #[test]
    fn recovered_offsets_are_clamped_to_truncated_logs() {
        let tmp = TempDir::new("broker-clamp").unwrap();
        let cfg = WalConfig::new(tmp.path()).with_fsync(FsyncPolicy::Never);
        {
            let b = Broker::open(cfg.clone()).unwrap();
            b.create_topic("t", 1, 1000).unwrap();
            b.join_group("g", "t", "c").unwrap();
            b.produce_batch("t", (0..8u8).map(|i| (None, payload(i))))
                .unwrap();
            assert_eq!(b.poll("g", "c", 100).unwrap().len(), 8);
        }
        // Tear the last frame of the partition WAL mid-record. The offsets
        // log still says "committed 8" — recovery must reconcile the two.
        let pdir = partition_dir(tmp.path(), "t", 0);
        let seg = std::fs::read_dir(&pdir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some())
            .unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let b = Broker::open(cfg).unwrap();
        let hw = b.high_watermark("t", 0).unwrap();
        assert!(hw < 8, "tail truncated, hw {hw}");
        let stats = b.group_stats("g").unwrap();
        assert_eq!(
            stats.offsets[0], hw,
            "committed offset clamped to the recovered watermark"
        );
        assert!(b.recovery_info().truncated_bytes > 0);
    }

    #[test]
    fn durable_topic_names_must_be_filesystem_safe() {
        let tmp = TempDir::new("broker-names").unwrap();
        let b = Broker::open(WalConfig::new(tmp.path())).unwrap();
        assert!(b.create_topic("ok-topic_1.x", 1, 10).is_ok());
        for bad in ["", "a/b", "..", "a b"] {
            assert!(
                matches!(b.create_topic(bad, 1, 10), Err(BrokerError::Wal(_))),
                "name {bad:?} must be rejected"
            );
        }
        // In-memory brokers keep accepting arbitrary names.
        let mem = Broker::new();
        assert!(mem.create_topic("a/b", 1, 10).is_ok());
    }

    #[test]
    fn high_watermarks_cover_every_partition() {
        let b = Broker::new();
        b.create_topic("t", 3, 1000).unwrap();
        assert_eq!(b.high_watermarks("t").unwrap(), vec![0, 0, 0]);
        // Unkeyed records round-robin starting at partition 0: four appends
        // leave an uneven [2, 1, 1] spread.
        for i in 0..4 {
            b.produce("t", None, payload(i)).unwrap();
        }
        assert_eq!(b.high_watermarks("t").unwrap(), vec![2, 1, 1]);
        for (p, hw) in b.high_watermarks("t").unwrap().into_iter().enumerate() {
            assert_eq!(hw, b.high_watermark("t", p).unwrap());
        }
        assert!(b.high_watermarks("missing").is_err());
    }

    #[test]
    fn group_stats_reports_per_partition_lag() {
        let b = Broker::new();
        b.create_topic("t", 2, 1000).unwrap();
        b.join_group("g", "t", "c0").unwrap();
        for i in 0..8 {
            b.produce("t", None, payload(i)).unwrap();
        }
        let stats = b.group_stats("g").unwrap();
        assert_eq!(stats.lag, vec![4, 4], "nothing consumed yet");
        assert_eq!(stats.total_lag(), 8);
        // Consume everything; lag collapses to zero.
        let mut sub = b.subscribe("g", "c0").unwrap();
        let mut buf = Vec::new();
        while b.poll_into(&mut sub, 64, &mut buf).unwrap() > 0 {}
        let stats = b.group_stats("g").unwrap();
        assert_eq!(stats.lag, vec![0, 0]);
        // New production reopens the gap on exactly one partition.
        b.produce("t", None, payload(9)).unwrap();
        assert_eq!(b.group_stats("g").unwrap().total_lag(), 1);
    }
}
