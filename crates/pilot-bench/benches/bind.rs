//! Micro-benchmark: one late-binding pass over a deep pending queue.
//!
//! `bind_pass` compares the original rebuild-per-bind loop (`per_unit_pass`,
//! kept as the executable specification) against the production pass
//! (`batched_pass`, an adaptor over `queue_pass`: one snapshot build,
//! in-place capacity deltas) with every pilot idle. `saturated_pass` runs
//! `queue_pass` itself where a burst spends its life: full pilots, a deep
//! backlog, one core coming free per pass. The managers wake the pass on
//! every capacity change, so its cost bounds middleware bind throughput (EXP
//! SC-1 sweeps the same axes and shares these fixtures).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pilot_bench::experiments::sc::{pending, pilots, SaturatedPass};
use pilot_core::binding::{batched_pass, per_unit_pass, BindStats};
use pilot_core::scheduler::LoadBalanceScheduler;
use std::hint::black_box;

fn bench_bind(c: &mut Criterion) {
    let mut group = c.benchmark_group("bind_pass");
    group.sample_size(10);
    for &(n_units, n_pilots) in &[(100usize, 8usize), (1000, 32)] {
        let snaps = pilots(n_pilots);
        let pend = pending(n_units);
        let label = format!("{n_units}u_{n_pilots}p");
        group.bench_with_input(
            BenchmarkId::new("per_unit", &label),
            &(&snaps, &pend),
            |b, (snaps, pend)| {
                b.iter(|| {
                    let mut stats = BindStats::default();
                    black_box(per_unit_pass(
                        &mut LoadBalanceScheduler,
                        snaps,
                        pend,
                        &mut stats,
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batched", &label),
            &(&snaps, &pend),
            |b, (snaps, pend)| {
                b.iter(|| {
                    let mut stats = BindStats::default();
                    black_box(batched_pass(
                        &mut LoadBalanceScheduler,
                        snaps,
                        pend,
                        &mut stats,
                    ))
                })
            },
        );
    }
    group.finish();
}

/// The regime a burst lives in: one completion's worth of capacity (or none)
/// against a deep backlog on 32 full pilots. The pass must cost what it
/// binds; the parent commit's pass re-offered the whole backlog here. One
/// iteration is 100 passes — a single one is too short to time.
fn bench_saturated(c: &mut Criterion) {
    let mut group = c.benchmark_group("saturated_pass");
    group.sample_size(50);
    for &(depth, free) in &[(1000usize, 1u32), (10_000, 1), (10_000, 0)] {
        let mut sat = SaturatedPass::new(depth, 32, free);
        group.bench_function(format!("{depth}u_32p_{free}free_x100"), |b| {
            b.iter(|| {
                for _ in 0..100 {
                    black_box(sat.step().binds.len());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bind, bench_saturated);
criterion_main!(benches);
