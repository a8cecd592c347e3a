//! E7: wall-clock throughput on real threads — call streaming vs
//! synchronous RPC with injected latency. Few samples (each run includes
//! genuine milliseconds of injected latency).
//!
//! ISSUE-6 scaling sweep: process count (8..4096) × executor mode on the
//! independent-pairs workload (no shared consumer, so the worker pool —
//! not one serializing actor — is the bottleneck). The thread-per-process
//! executor is capped at 512 processes; the sharded executor carries the
//! 4096-process points. Reported as committed-calls/sec by the
//! `figures scaling` table (EXPERIMENTS.md E11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use opcsp_core::CoreConfig;
use opcsp_rt::{Executor, RtConfig, RtWorld};
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::streaming::{PairsOpts, StreamingOpts};
use std::time::Duration;

fn run_once(n: u32, optimism: bool, latency_ms: u64) -> opcsp_rt::RtResult {
    let cfg = RtConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency: Duration::from_millis(latency_ms),
        fork_timeout: Duration::from_secs(2),
        run_timeout: Duration::from_secs(20),
        ..RtConfig::default()
    };
    let stream = StreamingOpts {
        n,
        ..StreamingOpts::default()
    };
    let r = Spec::Stream(stream).on(RtWorld::new(cfg)).run();
    assert!(!r.timed_out);
    r
}

fn bench_rt(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_rt_wall_clock");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for mode in [true, false] {
        let name = if mode { "streaming" } else { "rpc" };
        g.bench_with_input(BenchmarkId::new(name, 8), &mode, |b, &mode| {
            b.iter(|| run_once(8, mode, 2))
        });
    }
    g.finish();
}

/// One scaling run: `procs/2` independent pairs, 4 calls each, zero
/// injected latency (the executor, not the wire, is under test).
fn run_pairs(procs: u32, executor: Executor) -> opcsp_rt::RtResult {
    let cfg = RtConfig {
        core: CoreConfig::pessimistic(),
        latency: Duration::ZERO,
        run_timeout: Duration::from_secs(60),
        executor,
        ..RtConfig::default()
    };
    let pairs = PairsOpts {
        pairs: procs / 2,
        ..PairsOpts::default()
    };
    let r = Spec::Pairs(pairs).on(RtWorld::new(cfg)).run();
    assert!(!r.timed_out && r.panicked.is_empty() && r.stragglers.is_empty());
    r
}

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt_executor_scaling");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(10));
    for procs in [8u32, 64, 512, 4096] {
        if procs <= 512 {
            g.bench_with_input(BenchmarkId::new("threaded", procs), &procs, |b, &p| {
                b.iter(|| run_pairs(p, Executor::Threaded))
            });
        }
        for workers in [2usize, 4, 8] {
            g.bench_with_input(
                BenchmarkId::new(format!("sharded{workers}"), procs),
                &procs,
                |b, &p| b.iter(|| run_pairs(p, Executor::Sharded { workers })),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_rt, bench_scaling);
criterion_main!(benches);
