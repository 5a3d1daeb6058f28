//! Write-syscall budget of the durable append paths: a batch costs one WAL
//! write per partition segment touched, per node — not one per record.
//!
//! The count is the process's `syscw` from `/proc/self/io`, read around
//! each call, so the library carries no counting hook. The file holds one
//! test, so no other test thread writes while a call is measured.
#![cfg(target_os = "linux")]

use pilot_streaming::wal::TempDir;
use pilot_streaming::{Broker, FsyncPolicy, ReplicatedBroker, Retention, WalConfig};
use std::sync::Arc;

/// Write syscalls issued by this process while `f` runs.
fn writes_during(f: impl FnOnce()) -> u64 {
    let syscw = || -> u64 {
        let io = std::fs::read_to_string("/proc/self/io").unwrap();
        let line = io.lines().find_map(|l| l.strip_prefix("syscw:")).unwrap();
        line.trim().parse().unwrap()
    };
    let before = syscw();
    f();
    syscw() - before
}

#[test]
fn a_batch_costs_one_wal_write_per_touched_partition_per_node() {
    const BATCH: u64 = 256;
    let payload = Arc::new(vec![7u8; 64]);
    let unkeyed = || (0..BATCH).map(|_| (None, Arc::clone(&payload)));
    let routed = || (0..BATCH).map(|i| ((i % 4) as usize, None, Arc::clone(&payload)));

    let dir = TempDir::new("wal-writes").unwrap();
    let cfg = WalConfig::new(dir.path()).with_fsync(FsyncPolicy::Never);
    let broker = Broker::open(cfg).unwrap();
    broker
        .create_topic_with("t", 4, Retention::Count(1_000_000))
        .unwrap();
    broker.produce_batch("t", unkeyed()).unwrap(); // warm-up

    let n = writes_during(|| {
        broker.produce_batch("t", unkeyed()).unwrap();
    });
    assert!(
        n <= 4,
        "produce_batch of {BATCH} into 4 partitions: {n} writes"
    );
    let n = writes_during(|| {
        broker.produce_batch_routed("t", routed()).unwrap();
    });
    assert!(
        n <= 4,
        "produce_batch_routed of {BATCH} into 4 partitions: {n} writes"
    );
    let n = writes_during(|| {
        broker.produce("t", None, Arc::clone(&payload)).unwrap();
    });
    assert_eq!(n, 1, "a single produce is one write");

    let nodes: Vec<TempDir> = (0..3)
        .map(|i| TempDir::new(&format!("wal-writes-node{i}")).unwrap())
        .collect();
    let cfgs: Vec<WalConfig> = nodes
        .iter()
        .map(|d| WalConfig::new(d.path()).with_fsync(FsyncPolicy::Never))
        .collect();
    let cluster = ReplicatedBroker::open(&cfgs).unwrap();
    cluster
        .create_topic("t", 4, Retention::Count(1_000_000))
        .unwrap();
    cluster.produce_batch("t", unkeyed()).unwrap(); // warm-up
    let n = writes_during(|| {
        cluster.produce_batch("t", unkeyed()).unwrap();
    });
    assert!(
        n <= 12,
        "replicated batch of {BATCH}, 4 partitions x 3 nodes: {n} writes"
    );
}
