//! E6 as a benchmark: the cost of Time Warp's total order vs OPCSP's
//! partial order on the two-client contention workload, across skews.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use opcsp_timewarp::{run_two_clients, TwoClientOpts};
use opcsp_workloads::contention::{run_contention, ContentionOpts};

fn bench_timewarp(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_two_clients");
    for skew in [0u64, 300] {
        g.bench_with_input(BenchmarkId::new("timewarp", skew), &skew, |b, &skew| {
            b.iter(|| {
                run_two_clients(TwoClientOpts {
                    n_per_client: 8,
                    transit: 20,
                    skew,
                    ..TwoClientOpts::default()
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("opcsp", skew), &skew, |b, &skew| {
            b.iter(|| {
                run_contention(ContentionOpts {
                    n_per_client: 8,
                    latency: 20,
                    skew,
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_timewarp);
criterion_main!(benches);
