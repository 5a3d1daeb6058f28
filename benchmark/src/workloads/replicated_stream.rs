//! `replicated_stream` — the data plane alone: one producer thread and one
//! consumer thread push 256-byte records through a 3-node `ReplicatedBroker`,
//! the node leading partition 0 is killed mid-stream and restarted after it.
//! The control and read planes do nothing here.

use crate::harness::{timed, wal_config, Clock, Fnv, Outcome, Plan, Round, WalDir, WARMUP_OPS};
use crate::stats::{median, percentile, sorted};
use crate::trace::Span;
use pilot_sim::SimRng;
use pilot_streaming::wal::SegmentedLog;
use pilot_streaming::{
    Broker, BrokerError, ClusterSub, Message, Record, ReplicatedBroker, Retention, Subscription,
    WalConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NODES: usize = 3;
pub const PARTITIONS: usize = 4;
pub const RECORD_BYTES: usize = 256;
pub const BATCH: u64 = 256;
pub const RETENTION: usize = 100_000;
/// Records per round. A run holds several rounds, each on a fresh cluster.
pub const ROUND_RECORDS: u64 = 200_000;
/// The producer stays at most this many records ahead of the consumer: one
/// client with a bounded number of requests in flight, which is what makes
/// the loop closed and the latency a property of the broker, not of how far
/// an unchecked producer happened to run ahead.
pub const WINDOW: u64 = 16 * BATCH;
const TOPIC: &str = "stream";
const GROUP: &str = "bench";
const CONSUMER: &str = "c0";
const DRAIN_TIMEOUT_S: f64 = 60.0;

/// The slice of the two brokers' near-identical APIs the stream needs, so the
/// same loop drives the replicated cluster and the single-broker baseline.
trait StreamLog: Sync {
    type Sub: Send;
    fn produce(&self, records: Vec<Record>) -> Result<u64, BrokerError>;
    fn poll(&self, sub: &mut Self::Sub, buf: &mut Vec<Message>) -> Result<usize, BrokerError>;
    fn seq(&self) -> u64;
    fn wait(&self, seen: u64);
    fn lag(&self) -> u64;
    /// Called once when the producer reaches the middle of the stream.
    fn midpoint(&self) {}
}

const PARK: Duration = Duration::from_millis(5);

impl StreamLog for ReplicatedBroker {
    type Sub = ClusterSub;
    fn produce(&self, records: Vec<Record>) -> Result<u64, BrokerError> {
        self.produce_batch(TOPIC, records)
    }
    fn poll(&self, sub: &mut ClusterSub, buf: &mut Vec<Message>) -> Result<usize, BrokerError> {
        self.poll_into(sub, BATCH as usize, buf)
    }
    fn seq(&self) -> u64 {
        self.data_seq()
    }
    fn wait(&self, seen: u64) {
        self.wait_for_data(seen, PARK);
    }
    fn lag(&self) -> u64 {
        self.group_stats(GROUP).map_or(0, |g| g.total_lag())
    }
    /// Kill the node that leads partition 0 — also the node consumers read
    /// from, so the consumer fails over too — and show its lease is fenced.
    fn midpoint(&self) {
        let stale = self.lease(TOPIC, 0).expect("lease of partition 0");
        self.kill_node(stale.node)
            .expect("kill the leader of partition 0");
        let fenced = self.append_with_lease(&stale, &[(None, Arc::new(vec![0u8; 16]))]);
        assert!(
            matches!(fenced, Err(BrokerError::FencedEpoch { .. })),
            "a deposed leader's append must be fenced, got {fenced:?}"
        );
    }
}

impl StreamLog for Broker {
    type Sub = Subscription;
    fn produce(&self, records: Vec<Record>) -> Result<u64, BrokerError> {
        self.produce_batch(TOPIC, records)
    }
    fn poll(&self, sub: &mut Subscription, buf: &mut Vec<Message>) -> Result<usize, BrokerError> {
        self.poll_into(sub, BATCH as usize, buf)
    }
    fn seq(&self) -> u64 {
        self.data_seq()
    }
    fn wait(&self, seen: u64) {
        self.wait_for_data(seen, PARK);
    }
    fn lag(&self) -> u64 {
        self.group_stats(GROUP).map_or(0, |g| g.total_lag())
    }
}

/// A record: sequence number, harness-clock stamp, then the seeded filler.
fn encode(template: &[u8], seq: u64, stamp_s: f64) -> Arc<Vec<u8>> {
    let mut b = template.to_vec();
    b[..8].copy_from_slice(&seq.to_le_bytes());
    b[8..16].copy_from_slice(&stamp_s.to_bits().to_le_bytes());
    Arc::new(b)
}

fn decode(payload: &[u8]) -> (u64, f64) {
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    (word(0), f64::from_bits(word(8)))
}

/// The seeded 256-byte record body every record of a run carries.
pub fn template(seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    (0..RECORD_BYTES).map(|_| rng.next_u64() as u8).collect()
}

#[derive(Default)]
struct StreamStats {
    wall_s: f64,
    latency_ms: Vec<f64>,
    lost: u64,
    duplicated: u64,
    produce_busy_s: f64,
    poll_busy_s: f64,
    poll_wait_s: f64,
    lag_max: u64,
}

/// One stream to push through a log.
#[derive(Clone, Copy)]
struct Job<'a> {
    clock: Clock,
    template: &'a [u8],
    /// Sequence number of the first record, and how many follow.
    first_seq: u64,
    count: u64,
    /// Fire [`StreamLog::midpoint`] half-way.
    with_midpoint: bool,
    /// Time every call into the log.
    traced: bool,
}

/// Push a job's records through `log` with one producer and one consumer
/// thread.
fn stream<L: StreamLog>(log: &L, sub: &mut L::Sub, job: Job<'_>) -> StreamStats {
    let Job {
        clock,
        template,
        first_seq,
        count,
        with_midpoint,
        traced,
    } = job;
    let consumed = AtomicU64::new(0);
    let t_start = clock.now();
    let deadline = t_start + DRAIN_TIMEOUT_S;
    let mut st = StreamStats::default();
    std::thread::scope(|s| {
        let consumed = &consumed;
        let consumer = s.spawn(move || {
            let mut seen = vec![0u8; count as usize];
            let mut buf = Vec::with_capacity(BATCH as usize);
            let (mut latency_ms, mut polls) = (Vec::with_capacity(count as usize), 0u64);
            let (mut poll_busy_s, mut poll_wait_s, mut lag_max) = (0.0, 0.0, 0u64);
            let mut got = 0u64;
            while got < count && clock.now() < deadline {
                polls += 1;
                if traced && polls.is_multiple_of(64) {
                    lag_max = lag_max.max(log.lag());
                }
                let seq = log.seq();
                let t0 = traced.then(Instant::now);
                let n = log.poll(sub, &mut buf).expect("a replica is always alive");
                if let Some(t0) = t0 {
                    poll_busy_s += t0.elapsed().as_secs_f64();
                }
                if n == 0 {
                    let t0 = traced.then(Instant::now);
                    log.wait(seq);
                    if let Some(t0) = t0 {
                        poll_wait_s += t0.elapsed().as_secs_f64();
                    }
                    continue;
                }
                let now = clock.now();
                for m in &buf {
                    let (seq, stamp_s) = decode(&m.payload);
                    latency_ms.push((now - stamp_s) * 1e3);
                    if let Some(slot) = seen.get_mut(seq.wrapping_sub(first_seq) as usize) {
                        *slot = slot.saturating_add(1);
                    }
                }
                got += n as u64;
                consumed.store(got, Ordering::Release);
            }
            let lost = seen.iter().filter(|&&c| c == 0).count() as u64;
            let duplicated = seen.iter().map(|&c| u64::from(c.saturating_sub(1))).sum();
            (
                clock.now(),
                latency_ms,
                lost,
                duplicated,
                poll_busy_s,
                poll_wait_s,
                lag_max,
            )
        });
        let producer = s.spawn(move || {
            let mut produce_busy_s = 0.0;
            let mut fired = !with_midpoint;
            for start in (0..count).step_by(BATCH as usize) {
                while start.saturating_sub(consumed.load(Ordering::Acquire)) >= WINDOW
                    && clock.now() < deadline
                {
                    std::thread::yield_now();
                }
                if !fired && start >= count / 2 {
                    log.midpoint();
                    fired = true;
                }
                let stamp_s = clock.now();
                let records: Vec<Record> = (start..count.min(start + BATCH))
                    .map(|i| (None, encode(template, first_seq + i, stamp_s)))
                    .collect();
                let t0 = traced.then(Instant::now);
                log.produce(records).expect("a replica is always alive");
                if let Some(t0) = t0 {
                    produce_busy_s += t0.elapsed().as_secs_f64();
                }
            }
            produce_busy_s
        });
        st.produce_busy_s = producer.join().expect("producer thread");
        let (t_end, latency_ms, lost, duplicated, poll_busy_s, poll_wait_s, lag_max) =
            consumer.join().expect("consumer thread");
        st.wall_s = t_end - t_start;
        st.latency_ms = latency_ms;
        (st.lost, st.duplicated) = (lost, duplicated);
        (st.poll_busy_s, st.poll_wait_s, st.lag_max) = (poll_busy_s, poll_wait_s, lag_max);
    });
    st
}

fn node_configs(dirs: &[WalDir]) -> Vec<WalConfig> {
    dirs.iter().map(|d| wal_config(d.path())).collect()
}

/// Every node's retained records and the group's committed offsets, hashed:
/// the state a cold restart has to come back to.
fn cluster_digest(cluster: &ReplicatedBroker) -> u64 {
    let mut h = Fnv::new();
    for node in 0..cluster.nodes() {
        let broker = cluster.node_broker(node).expect("node index in range");
        for p in 0..PARTITIONS {
            for m in broker
                .fetch(TOPIC, p, 0, usize::MAX)
                .expect("partition exists")
            {
                h.mix(m.offset);
                h.mix(decode(&m.payload).0);
            }
        }
        for off in broker.group_stats(GROUP).expect("group exists").offsets {
            h.mix(off);
        }
    }
    h.0
}

/// `(offset, sequence number)` of every retained record of one node.
fn node_image(cluster: &ReplicatedBroker, node: usize) -> Vec<(u64, u64)> {
    let broker = cluster.node_broker(node).expect("node index in range");
    (0..PARTITIONS)
        .flat_map(|p| {
            broker
                .fetch(TOPIC, p, 0, usize::MAX)
                .expect("partition exists")
        })
        .map(|m| (m.offset, decode(&m.payload).0))
        .collect()
}

/// The recovery drill repeats its cold restart at least this often, goes on
/// until it has lasted `DRILL_MIN_S` (at 1/20 scale a restart takes 30 ms and
/// needs more repeats than a 600 ms one before its average is steady), and
/// stops at the cap.
const RECOVER_REPEATS: usize = 5;
const DRILL_MIN_S: f64 = 1.0;
const DRILL_MAX_REPEATS: usize = 15;

/// Run `restart` — which returns how long the restart took and what it found
/// — as a recovery drill, and return every repeat's pair.
fn drill<T>(plan: &Plan, mut restart: impl FnMut() -> (f64, T)) -> Vec<(f64, T)> {
    let (mut found, mut total_s) = (Vec::new(), 0.0);
    loop {
        let (s, r) = restart();
        total_s += s;
        found.push((s, r));
        let enough = found.len() >= RECOVER_REPEATS && total_s >= DRILL_MIN_S;
        if plan.reference || enough || found.len() >= DRILL_MAX_REPEATS {
            return found;
        }
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let clock = Clock::start();
    let mut out = Outcome::default();
    let template = template(plan.seed);
    let records = plan.scaled(ROUND_RECORDS, 4 * BATCH);
    // Warm-up: a full producer window, so every partition log, the consumer's
    // scratch buffers and the replication path have all been through a cycle.
    let warmup = (WARMUP_OPS.max(WINDOW) / plan.scale).max(BATCH);
    let job = |first_seq, count, with_midpoint, traced| Job {
        clock,
        template: &template,
        first_seq,
        count,
        with_midpoint,
        traced,
    };
    let (mut measured_s, mut restart_s, mut layer_stats) =
        (0.0, Vec::new(), StreamStats::default());
    let mut last = None;
    while measured_s < plan.seconds {
        // Free the previous round's cluster before building the next one.
        drop(last.take());
        let round = out.setup_s.len();
        let dirs: Vec<WalDir> = (0..NODES)
            .map(|i| WalDir::create(&format!("stream-{round}-n{i}")).expect("WAL dir"))
            .collect();
        let (setup_s, (cluster, mut sub)) = timed(|| {
            let cluster = ReplicatedBroker::open(&node_configs(&dirs)).expect("open cluster");
            cluster
                .create_topic(TOPIC, PARTITIONS, Retention::Count(RETENTION))
                .expect("fresh topic");
            cluster
                .join_group(GROUP, TOPIC, CONSUMER)
                .expect("join group");
            let mut sub = cluster.subscribe(GROUP, CONSUMER).expect("subscribe");
            let warm = stream(&cluster, &mut sub, job(0, warmup, false, false));
            assert_eq!(
                warm.lost + warm.duplicated,
                0,
                "warm-up must be exactly-once"
            );
            (cluster, sub)
        });
        out.setup_s.push(setup_s);

        let t0 = clock.now();
        let mut st = stream(&cluster, &mut sub, job(warmup, records, true, plan.traced));
        out.spans.push(Span {
            name: "stream_round",
            start_s: t0,
            end_s: t0 + st.wall_s,
            parent: None,
            unit: None,
        });
        out.rounds.push(Round {
            ops: records,
            failed: st.lost + st.duplicated,
            completed: records - st.lost,
            seconds: st.wall_s,
            latency_ms: std::mem::take(&mut st.latency_ms),
            gen_late_ms: Vec::new(),
        });

        // Bring the victim back and hold it against a survivor.
        let victim = (0..NODES)
            .find(|n| !cluster.alive_nodes().contains(n))
            .expect("one node was killed mid-stream");
        let (s, info) = timed(|| cluster.restart_node(victim));
        info.expect("victim restarts");
        restart_s.push(s);
        measured_s += st.wall_s + s;
        let survivor = (victim + 1) % NODES;
        out.check(
            node_image(&cluster, victim) == node_image(&cluster, survivor),
            || format!("restarted node {victim} diverged from survivor {survivor}"),
        );
        layer_stats = st;
        last = Some((dirs, cluster, sub));
    }

    // Recovery drill on the last round's WAL trees: drop the cluster, open
    // the same three trees, re-join, and drain to the high watermark.
    let (dirs, cluster, sub) = last.expect("at least one round");
    let want = cluster_digest(&cluster);
    let stats = cluster.stats();
    // The stopped cluster stays in memory through the drill, so the process's
    // peak is always "one stopped cluster plus one restarted" rather than
    // whatever the allocator happened to hand back between rounds.
    drop(sub);
    let cfgs = node_configs(&dirs);
    let restarts = drill(plan, || {
        let (s, (cluster, redelivered)) = timed(|| {
            let cluster = ReplicatedBroker::open(&cfgs).expect("reopen cluster");
            cluster
                .join_group(GROUP, TOPIC, CONSUMER)
                .expect("re-join group");
            let mut sub = cluster.subscribe(GROUP, CONSUMER).expect("re-subscribe");
            let (mut buf, mut redelivered) = (Vec::new(), 0usize);
            loop {
                let n = cluster
                    .poll_into(&mut sub, BATCH as usize, &mut buf)
                    .expect("poll after restart");
                redelivered += n;
                if n == 0 && cluster.group_stats(GROUP).map_or(0, |g| g.total_lag()) == 0 {
                    break;
                }
            }
            (cluster, redelivered)
        });
        (s, (cluster_digest(&cluster), redelivered))
    });
    for (s, (got, redelivered)) in restarts {
        out.recover_s.push(s);
        out.check(got == want && redelivered == 0, || {
            format!(
                "restart came back to digest {got:#x}, want {want:#x}; \
                 {redelivered} records were delivered again"
            )
        });
    }

    if plan.traced {
        let base = job(0, records, false, false);
        layers(&mut out, base, &dirs, &layer_stats, &restart_s, stats);
    }
    out
}

/// Side phases and per-layer numbers of a traced run. `base` is the round's
/// stream without the kill, for the single-broker baseline.
fn layers(
    out: &mut Outcome,
    base: Job<'_>,
    dirs: &[WalDir],
    st: &StreamStats,
    restart_s: &[f64],
    stats: pilot_streaming::ClusterStats,
) {
    out.layer("streaming.broker.produce_busy_s", st.produce_busy_s);
    out.layer("streaming.broker.poll_busy_s", st.poll_busy_s);
    out.layer("streaming.broker.poll_wait_s", st.poll_wait_s);
    out.layer("streaming.broker.lag_max", st.lag_max as f64);
    out.layer("streaming.replica.failovers", stats.leader_failovers as f64);
    out.layer(
        "streaming.replica.fenced_appends",
        stats.fenced_appends as f64,
    );
    out.layer("streaming.replica.restart_node_s", median(restart_s));
    out.layer(
        "streaming.wal.bytes",
        dirs.iter().map(WalDir::bytes).sum::<u64>() as f64,
    );

    // One node's WAL tree reopened on its own.
    let (open_s, node) = timed(|| Broker::open(wal_config(dirs[0].path())));
    out.layer("streaming.wal.recover_s", open_s);
    out.layer(
        "streaming.wal.recover_records",
        node.expect("reopen node 0").recovery_info().records as f64,
    );

    // The same records appended to a bare segmented log: the WAL's own cost,
    // without partitions, replication or consumers.
    let bare = WalDir::create("stream-bare").expect("WAL dir");
    let cfg = wal_config(bare.path());
    let (mut log, _, _) =
        SegmentedLog::open(bare.path(), cfg.segment_bytes, cfg.fsync).expect("open bare log");
    let payload = encode(base.template, 0, 0.0);
    let mut append_us = Vec::with_capacity(base.count as usize / 16);
    for i in 0..base.count {
        if i % 16 == 0 {
            let t0 = Instant::now();
            log.append(&payload).expect("append to bare log");
            append_us.push(t0.elapsed().as_secs_f64() * 1e6);
        } else {
            log.append(&payload).expect("append to bare log");
        }
    }
    out.layer(
        "streaming.wal.append_us_p50",
        percentile(&sorted(append_us), 0.5),
    );

    // The same stream on one durable broker: what replication costs.
    let single_dir = WalDir::create("stream-single").expect("WAL dir");
    let single = Broker::open(wal_config(single_dir.path())).expect("open single broker");
    single
        .create_topic_with(TOPIC, PARTITIONS, Retention::Count(RETENTION))
        .expect("fresh topic");
    single
        .join_group(GROUP, TOPIC, CONSUMER)
        .expect("join group");
    let mut sub = single.subscribe(GROUP, CONSUMER).expect("subscribe");
    let single_s = stream(&single, &mut sub, base).wall_s;
    out.layer("streaming.replica.cost_ratio", st.wall_s / single_s);
}
