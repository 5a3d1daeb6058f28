//! Integration tests of the durable broker across full restart cycles:
//! produce / consume / reopen chains, exactly-once resume over generations,
//! compaction across restarts, fsync policies, failed segment rolls,
//! records that checksum but do not decode, and batched appends writing the
//! same bytes as per-record ones.

use pilot_streaming::wal::{crc32, SegmentedLog, TempDir};
use pilot_streaming::{Broker, BrokerError, FsyncPolicy, Retention, WalConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

fn payload(gen: u64, i: u64) -> Arc<Vec<u8>> {
    let mut b = Vec::with_capacity(16);
    b.extend_from_slice(&gen.to_le_bytes());
    b.extend_from_slice(&i.to_le_bytes());
    Arc::new(b)
}

fn decode(p: &[u8]) -> (u64, u64) {
    let mut g = [0u8; 8];
    let mut i = [0u8; 8];
    g.copy_from_slice(&p[..8]);
    i.copy_from_slice(&p[8..16]);
    (u64::from_le_bytes(g), u64::from_le_bytes(i))
}

/// Three broker generations over one WAL directory: each produces a batch,
/// consumes part of it, and "crashes" (drops). Every record is delivered
/// exactly once across the whole chain — committed offsets persist, replay
/// resumes precisely where the previous generation stopped.
#[test]
fn exactly_once_across_three_restart_generations() {
    let dir = TempDir::new("gen-chain").unwrap();
    let cfg = WalConfig::new(dir.path())
        .with_segment_bytes(4096)
        .with_fsync(FsyncPolicy::EveryN(8));
    let mut seen: Vec<(u64, u64)> = Vec::new();

    for gen in 0..3u64 {
        let broker = Broker::open(cfg.clone()).unwrap();
        if gen == 0 {
            broker
                .create_topic_with("t", 3, Retention::Count(1_000_000))
                .unwrap();
        }
        broker.join_group("g", "t", "c0").unwrap();
        broker
            .produce_batch("t", (0..200u64).map(|i| (Some(i % 17), payload(gen, i))))
            .unwrap();
        // Consume only part of what exists, then crash.
        let mut sub = broker.subscribe("g", "c0").unwrap();
        let mut buf = Vec::new();
        let mut got = 0;
        while got < 120 {
            let n = broker.poll_into(&mut sub, 30, &mut buf).unwrap();
            assert!(n > 0, "backlog must not run dry mid-generation");
            seen.extend(buf.iter().map(|m| decode(&m.payload)));
            got += n;
        }
        drop(sub);
        drop(broker);
    }

    // Final generation drains everything left behind by the partial reads.
    let broker = Broker::open(cfg).unwrap();
    broker.join_group("g", "t", "c0").unwrap();
    let mut sub = broker.subscribe("g", "c0").unwrap();
    let mut buf = Vec::new();
    loop {
        let n = broker.poll_into(&mut sub, usize::MAX, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        seen.extend(buf.iter().map(|m| decode(&m.payload)));
    }
    assert_eq!(seen.len(), 600, "no loss, no redelivery across the chain");
    let unique: HashSet<(u64, u64)> = seen.iter().copied().collect();
    assert_eq!(unique.len(), 600);
    for gen in 0..3u64 {
        for i in 0..200u64 {
            assert!(unique.contains(&(gen, i)), "missing ({gen}, {i})");
        }
    }
    assert_eq!(broker.group_stats("g").unwrap().committed, 600);
}

/// A compacted topic keeps only the latest record per key through a restart,
/// and keeps compacting correctly when appends continue on the recovered log.
#[test]
fn compacted_topic_survives_restart_and_keeps_compacting() {
    let dir = TempDir::new("compact-restart").unwrap();
    let cfg = WalConfig::new(dir.path()).with_fsync(FsyncPolicy::Never);
    {
        let broker = Broker::open(cfg.clone()).unwrap();
        broker
            .create_topic_with("kv", 1, Retention::Compact { trigger: 8 })
            .unwrap();
        // 10 keys, 30 writes each; only the last write per key must matter.
        for round in 0..30u64 {
            broker
                .produce_batch("kv", (0..10u64).map(|k| (Some(k), payload(round, k))))
                .unwrap();
        }
    }
    let broker = Broker::open(cfg).unwrap();
    let recovered = broker.fetch("kv", 0, 0, usize::MAX).unwrap();
    // Compaction is threshold-driven, so a few pre-compaction survivors are
    // legal; what must hold is that every key's *latest* write is present
    // and the log stayed near the compaction floor instead of holding all
    // 300 appends.
    let mut latest: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for m in &recovered {
        let (round, k) = decode(&m.payload);
        assert_eq!(Some(k), m.key);
        let e = latest.entry(k).or_insert(0);
        *e = (*e).max(round);
    }
    assert_eq!(latest.len(), 10, "all keys represented");
    for (k, round) in &latest {
        assert_eq!(*round, 29, "key {k} lost its latest write");
    }
    assert!(
        recovered.len() < 40,
        "recovered log holds ~latest-per-key, not history, len {}",
        recovered.len()
    );
    // The recovered log continues to compact: overwrite every key again.
    for round in 30..60u64 {
        broker
            .produce_batch("kv", (0..10u64).map(|k| (Some(k), payload(round, k))))
            .unwrap();
    }
    let after = broker.fetch("kv", 0, 0, usize::MAX).unwrap();
    let live: Vec<_> = after
        .iter()
        .filter(|m| decode(&m.payload).0 == 59)
        .collect();
    assert_eq!(live.len(), 10, "latest round fully retained");
    assert!(
        after.len() < 40,
        "compaction kept running post-restart, len {}",
        after.len()
    );
}

/// Restarting with fsync `Always` and with `Never` both recover cleanly (the
/// policies trade durability window for speed, not correctness on a clean
/// shutdown), and the recovery info reports an untorn log.
#[test]
fn fsync_policies_recover_clean_logs() {
    for (label, fsync) in [
        ("always", FsyncPolicy::Always),
        ("never", FsyncPolicy::Never),
        ("every", FsyncPolicy::EveryN(3)),
    ] {
        let dir = TempDir::new(&format!("fsync-{label}")).unwrap();
        let cfg = WalConfig::new(dir.path()).with_fsync(fsync);
        {
            let broker = Broker::open(cfg.clone()).unwrap();
            broker
                .create_topic_with("t", 2, Retention::Count(10_000))
                .unwrap();
            broker
                .produce_batch("t", (0..50u64).map(|i| (None, payload(0, i))))
                .unwrap();
        }
        let broker = Broker::open(cfg).unwrap();
        let info = broker.recovery_info();
        assert_eq!(info.truncated_bytes, 0, "{label}: clean log, nothing torn");
        assert_eq!(info.dropped_segments, 0, "{label}");
        let total: u64 = (0..2).map(|p| broker.high_watermark("t", p).unwrap()).sum();
        assert_eq!(total, 50, "{label}: all records recovered");
    }
}

/// Count-based retention state (trimmed prefix) survives restart: the
/// recovered partition starts where the live one did, and a group that was
/// parked before the trim still sees its loss counted after recovery.
#[test]
fn retention_trim_and_loss_accounting_survive_restart() {
    let dir = TempDir::new("trim-restart").unwrap();
    let cfg = WalConfig::new(dir.path()).with_fsync(FsyncPolicy::Never);
    {
        let broker = Broker::open(cfg.clone()).unwrap();
        broker
            .create_topic_with("t", 1, Retention::Count(5))
            .unwrap();
        broker.join_group("g", "t", "c0").unwrap();
        // 40 records through a 5-record window: start offset is 35 live...
        broker
            .produce_batch("t", (0..40u64).map(|i| (None, payload(0, i))))
            .unwrap();
        assert_eq!(broker.start_offset("t", 0).unwrap(), 35);
    }
    // ...and still 35 after replay re-applies the same retention decisions.
    let broker = Broker::open(cfg).unwrap();
    assert_eq!(broker.start_offset("t", 0).unwrap(), 35);
    assert_eq!(broker.high_watermark("t", 0).unwrap(), 40);
    broker.join_group("g", "t", "c0").unwrap();
    let mut sub = broker.subscribe("g", "c0").unwrap();
    let mut buf = Vec::new();
    let n = broker.poll_into(&mut sub, usize::MAX, &mut buf).unwrap();
    assert_eq!(n, 5, "only the retained window is deliverable");
    let stats = broker.group_stats("g").unwrap();
    assert_eq!(
        stats.records_lost, 35,
        "the trimmed gap is counted, not hidden"
    );
    assert_eq!(stats.committed, 40);
}

/// A segment roll that fails mid-batch returns the error, and memory holds
/// exactly the prefix the WAL holds: the live high watermark equals the
/// record count a reopen recovers.
#[test]
fn failed_roll_mid_batch_leaves_memory_equal_to_the_wal_prefix() {
    let dir = TempDir::new("failed-roll").unwrap();
    let cfg = WalConfig::new(dir.path())
        .with_segment_bytes(4096)
        .with_fsync(FsyncPolicy::Never);
    let broker = Broker::open(cfg.clone()).unwrap();
    broker
        .create_topic_with("t", 1, Retention::Count(1_000_000))
        .unwrap();
    // Squat on the partition's next segment name: `create_new` fails even
    // when run as root.
    std::fs::write(dir.path().join("topics/t/0/seg-0000000001.log"), b"").unwrap();
    // 64 frames of 225 B: the 4 KiB segment is full after the 19th.
    let records = (0..64u8).map(|i| (None, Arc::new(vec![i; 200])));
    assert!(
        broker.produce_batch("t", records).is_err(),
        "the batch straddles the failed roll"
    );
    let live = broker.high_watermark("t", 0).unwrap();
    assert!(live > 0 && live < 64, "a strict prefix was applied: {live}");
    drop(broker);
    let broker = Broker::open(cfg).unwrap();
    assert_eq!(
        broker.high_watermark("t", 0).unwrap(),
        live,
        "memory == WAL prefix"
    );
}

/// A partition record whose checksum passes but which does not decode (a
/// format mismatch, not corruption) fails the open with the decoder's
/// `WalError` instead of being truncated away: the file keeps every byte.
#[test]
fn a_checksummed_record_that_does_not_decode_fails_the_open_untruncated() {
    let dir = TempDir::new("undecodable").unwrap();
    let cfg = WalConfig::new(dir.path()).with_fsync(FsyncPolicy::Never);
    {
        let broker = Broker::open(cfg.clone()).unwrap();
        broker
            .create_topic_with("t", 1, Retention::Count(1_000))
            .unwrap();
        broker
            .produce_batch("t", (0..5u64).map(|i| (None, payload(0, i))))
            .unwrap();
    }
    // offset 5, key flag 2 (neither 0 nor 1), enqueued_s, payload.
    let mut rec = 5u64.to_le_bytes().to_vec();
    rec.push(2);
    rec.extend_from_slice(&0f64.to_bits().to_le_bytes());
    rec.extend_from_slice(b"payload");
    let seg = dir.path().join("topics/t/0/seg-0000000000.log");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&(rec.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&rec).to_le_bytes());
    bytes.extend_from_slice(&rec);
    std::fs::write(&seg, &bytes).unwrap();

    let err = match Broker::open(cfg) {
        Err(BrokerError::Wal(e)) => e,
        Err(other) => panic!("expected a WAL decode error, got {other:?}"),
        Ok(_) => panic!("an undecodable record must fail the open"),
    };
    assert_eq!((err.op, err.detail.as_str()), ("decode", "bad key flag"));
    assert_eq!(std::fs::read(&seg).unwrap(), bytes, "the file is untouched");
}

/// Every segment file of a log directory: `(name, bytes)`, sorted by name.
fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Appending a payload sequence in arbitrary batch splits writes the
    /// same segment files, byte for byte, as one append per record — which
    /// in turn match the documented framing and roll rule — under every
    /// fsync policy, with 4 KiB segments so batches straddle rolls. Both
    /// logs recover the same records.
    #[test]
    fn batched_appends_write_the_bytes_of_per_record_appends(
        sizes in proptest::collection::vec(0usize..700, 1..80),
        splits in proptest::collection::vec(1usize..40, 1..20),
        policy in 0u32..3,
        every in 1u32..6,
    ) {
        let fsync = match policy {
            0 => FsyncPolicy::Never,
            1 => FsyncPolicy::EveryN(every),
            _ => FsyncPolicy::Always,
        };
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        // The per-record layout, derived from the framing and roll rule alone.
        let mut expected: Vec<Vec<u8>> = vec![Vec::new()];
        for p in &payloads {
            if expected.last().unwrap().len() >= 4096 {
                expected.push(Vec::new());
            }
            let seg = expected.last_mut().unwrap();
            seg.extend_from_slice(&(p.len() as u32).to_le_bytes());
            seg.extend_from_slice(&crc32(p).to_le_bytes());
            seg.extend_from_slice(p);
        }
        let expected: Vec<(String, Vec<u8>)> = expected
            .into_iter()
            .enumerate()
            .map(|(i, bytes)| (format!("seg-{i:010}.log"), bytes))
            .collect();

        let single = TempDir::new("bytes-single").unwrap();
        let batched = TempDir::new("bytes-batched").unwrap();
        {
            let (mut log, _, _) = SegmentedLog::open(single.path(), 4096, fsync).unwrap();
            for p in &payloads {
                log.append(p).unwrap();
            }
            let (mut log, _, _) = SegmentedLog::open(batched.path(), 4096, fsync).unwrap();
            let mut rest = &payloads[..];
            for &k in splits.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(k.min(rest.len()));
                log.append_batch(batch, |p, buf| buf.extend_from_slice(p)).unwrap();
                rest = tail;
            }
        }
        let single_files = segment_files(single.path());
        prop_assert_eq!(&single_files, &expected, "per-record layout");
        prop_assert_eq!(&segment_files(batched.path()), &single_files, "batched layout");
        let (_, a, _) = SegmentedLog::open(single.path(), 4096, fsync).unwrap();
        let (_, b, _) = SegmentedLog::open(batched.path(), 4096, fsync).unwrap();
        prop_assert_eq!(&a, &payloads);
        prop_assert_eq!(&b, &payloads);
    }
}
