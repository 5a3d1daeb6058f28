//! Streaming data-plane benchmarks: per-message vs batched produce across
//! partition counts, in memory and through the write-ahead log, recovery of
//! a WAL-backed broker, and the allocating `poll` vs the buffer-reusing
//! `poll_into` consume path. These
//! are the measurements behind `BENCH_streaming.json` and the acceptance
//! floor "batched produce ≥ 3× per-message at batch = 64".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pilot_bench::experiments::st::WalStream;
use pilot_streaming::Broker;
use std::hint::black_box;
use std::sync::Arc;

/// Messages moved per iteration — large enough that the shim's per-iteration
/// mean is dominated by broker work, and one number divides evenly by every
/// batch size swept.
const MSGS: u64 = 4096;

fn bench_produce_per_message_vs_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_produce");
    group.sample_size(20);
    group.throughput(Throughput::Elements(MSGS));
    for partitions in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("per_message", partitions),
            &partitions,
            |b, &p| {
                let broker = Broker::new();
                broker.create_topic("t", p, 1_000_000).unwrap();
                let payload = Arc::new(vec![7u8; 256]);
                b.iter(|| {
                    for _ in 0..MSGS {
                        black_box(broker.produce("t", None, Arc::clone(&payload)).unwrap());
                    }
                });
            },
        );
        for batch in [16u64, 64, 256] {
            group.bench_with_input(
                BenchmarkId::new(format!("batch{batch}"), partitions),
                &partitions,
                |b, &p| {
                    let broker = Broker::new();
                    broker.create_topic("t", p, 1_000_000).unwrap();
                    let payload = Arc::new(vec![7u8; 256]);
                    b.iter(|| {
                        for _ in 0..MSGS / batch {
                            black_box(
                                broker
                                    .produce_batch(
                                        "t",
                                        (0..batch).map(|_| (None, Arc::clone(&payload))),
                                    )
                                    .unwrap(),
                            );
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

/// The same produce paths on a WAL-backed broker (temp directory, fsync
/// off, 4 partitions): a batch is one WAL write per partition touched, a
/// per-message produce one write per message.
fn bench_produce_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_produce_wal");
    group.sample_size(20);
    group.throughput(Throughput::Elements(MSGS));
    let partitions = 4usize;
    for batch in [1u64, 64, 256] {
        let id = match batch {
            1 => "per_message".to_string(),
            n => format!("batch{n}"),
        };
        group.bench_with_input(BenchmarkId::new(id, partitions), &partitions, |b, &p| {
            let wal = WalStream::new(p).unwrap();
            b.iter(|| wal.produce(MSGS, batch).unwrap());
        });
    }
    group.finish();
}

/// Records in the log `stream_recover_wal` replays: 64 Ki × 256 B, 16 MiB of
/// payload over 4 partitions.
const RECOVER_MSGS: u64 = 65_536;

/// `Broker::open` over a 4-partition WAL of [`RECOVER_MSGS`] records (temp
/// directory, fsync off): read, checksum, decode and re-apply retention to
/// every record, then drop the broker.
fn bench_recover_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_recover_wal");
    group.sample_size(10);
    group.throughput(Throughput::Elements(RECOVER_MSGS));
    let partitions = 4usize;
    group.bench_with_input(
        BenchmarkId::from_parameter(partitions),
        &partitions,
        |b, &p| {
            let wal = WalStream::new(p).unwrap();
            wal.produce(RECOVER_MSGS, 256).unwrap();
            b.iter(|| assert_eq!(wal.recover().unwrap(), RECOVER_MSGS));
        },
    );
    group.finish();
}

fn bench_poll_vs_poll_into(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_poll");
    group.sample_size(20);
    group.throughput(Throughput::Elements(MSGS));

    // Allocating path: fresh Vecs + assignment re-derivation every call.
    group.bench_function("poll_alloc", |b| {
        let broker = Broker::new();
        broker.create_topic("t", 4, usize::MAX / 2).unwrap();
        broker.join_group("g", "t", "c").unwrap();
        let payload = Arc::new(vec![7u8; 256]);
        b.iter_with_setup(
            || {
                broker
                    .produce_batch("t", (0..MSGS).map(|_| (None, Arc::clone(&payload))))
                    .unwrap();
            },
            |_| {
                let mut drained = 0u64;
                while drained < MSGS {
                    drained += broker.poll("g", "c", 64).unwrap().len() as u64;
                }
                black_box(drained)
            },
        );
    });

    // Buffer-reusing path: cached assignment, caller-owned buffer.
    group.bench_function("poll_into_reuse", |b| {
        let broker = Broker::new();
        broker.create_topic("t", 4, usize::MAX / 2).unwrap();
        broker.join_group("g", "t", "c").unwrap();
        let mut sub = broker.subscribe("g", "c").unwrap();
        let mut buf = Vec::with_capacity(64);
        let payload = Arc::new(vec![7u8; 256]);
        b.iter_with_setup(
            || {
                broker
                    .produce_batch("t", (0..MSGS).map(|_| (None, Arc::clone(&payload))))
                    .unwrap();
            },
            |_| {
                let mut drained = 0u64;
                while drained < MSGS {
                    drained += broker.poll_into(&mut sub, 64, &mut buf).unwrap() as u64;
                }
                black_box(drained)
            },
        );
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_produce_per_message_vs_batched,
    bench_produce_wal,
    bench_recover_wal,
    bench_poll_vs_poll_into
);
criterion_main!(benches);
