//! Simulation-engine benchmarks for the streaming workloads (E1/E2
//! machinery): how fast the simulator executes optimistic vs pessimistic
//! runs, and how cost scales with stream length and chain depth.

use opcsp_core::CoreConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::chain::ChainOpts;
use opcsp_workloads::streaming::{StreamingOpts, TallyOpts};

fn bench_streaming(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_streaming");
    for n in [16u32, 64, 256] {
        g.bench_with_input(BenchmarkId::new("optimistic", n), &n, |b, &n| {
            b.iter(|| {
                Spec::Stream(StreamingOpts {
                    n,
                    latency: 50,
                    ..Default::default()
                })
                .simulate()
            })
        });
        g.bench_with_input(BenchmarkId::new("pessimistic", n), &n, |b, &n| {
            b.iter(|| {
                Spec::Stream(StreamingOpts {
                    n,
                    latency: 50,
                    core: CoreConfig::pessimistic(),
                    ..Default::default()
                })
                .simulate()
            })
        });
    }
    g.finish();
}

fn bench_faulty_streaming(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_streaming_faults");
    for p in [0u32, 100, 400] {
        g.bench_with_input(BenchmarkId::new("p_per_mille", p), &p, |b, &p| {
            b.iter(|| {
                Spec::Tally(TallyOpts {
                    n: 32,
                    latency: 50,
                    p_per_mille: p,
                    ..Default::default()
                })
                .simulate()
            })
        });
    }
    g.finish();
}

fn bench_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_chain");
    for depth in [2u32, 6] {
        g.bench_with_input(BenchmarkId::new("depth", depth), &depth, |b, &depth| {
            b.iter(|| {
                Spec::Chain(ChainOpts {
                    depth,
                    n: 8,
                    latency: 40,
                    ..Default::default()
                })
                .simulate()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_streaming,
    bench_faulty_streaming,
    bench_chain
);
criterion_main!(benches);
