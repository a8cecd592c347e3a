//! Micro-benchmarks for the guard representation (runs of consecutive
//! guesses): clone, union and difference (`new_runs`) across guard sizes
//! 0–64 spread over seven processes — a many-run guard — and,
//! beside the 32-guess cases, a 512-deep single-process guard, which is
//! one run: clone, union and front removal there cost what they cost for a
//! single guess.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opcsp_core::{Guard, GuessId, ProcessId};

const SIZES: &[u32] = &[0, 1, 2, 4, 8, 16, 32, 64];

fn guard_of(n: u32) -> Guard {
    (0..n).map(|i| GuessId::first(ProcessId(i % 7), i)).collect()
}

/// A guard overlapping `guard_of(n)` on half its elements.
fn half_overlap(n: u32) -> Guard {
    (n / 2..n + n / 2)
        .map(|i| GuessId::first(ProcessId(i % 7), i))
        .collect()
}

/// The guard of the 512th thread of a call stream: x1..x512.
fn deep() -> Guard {
    (1..=512).map(|i| GuessId::first(ProcessId(0), i)).collect()
}

fn bench_clone(c: &mut Criterion) {
    let mut g = c.benchmark_group("guard_ops/clone");
    for &n in SIZES {
        let guard = guard_of(n);
        g.bench_with_input(BenchmarkId::new("clone", n), &guard, |b, guard| {
            b.iter(|| black_box(guard.clone()))
        });
    }
    let guard = deep();
    g.bench_function("clone/deep512", |b| b.iter(|| black_box(guard.clone())));
    g.finish();
}

/// Commit-order removal: the oldest guess leaves the guard.
fn bench_remove_front(c: &mut Criterion) {
    let mut g = c.benchmark_group("guard_ops/remove_front");
    for (name, guard) in [("32", guard_of(32)), ("deep512", deep())] {
        let first = guard.iter().next().expect("non-empty");
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut left = guard.clone();
                assert!(left.remove(first));
                black_box(left)
            })
        });
    }
    g.finish();
}

fn bench_union(c: &mut Criterion) {
    let mut g = c.benchmark_group("guard_ops/union");
    for &n in SIZES {
        let base = guard_of(n);
        let other = half_overlap(n);
        g.bench_with_input(BenchmarkId::new("union", n), &(base, other), |b, (base, other)| {
            b.iter(|| {
                let mut u = base.clone();
                u.union_with(other);
                black_box(u)
            })
        });
        // Unioning into an empty guard adopts shared storage — O(1).
        let src = guard_of(n);
        g.bench_with_input(BenchmarkId::new("union_into_empty", n), &src, |b, src| {
            b.iter(|| {
                let mut u = Guard::empty();
                u.union_with(src);
                black_box(u)
            })
        });
    }
    // The next call's tag into the server's guard: x1..x512 ∪ x1..x513.
    let (base, other) = (
        deep(),
        (1..=513).map(|i| GuessId::first(ProcessId(0), i)).collect(),
    );
    g.bench_function("union/deep512", |b| {
        b.iter(|| {
            let mut u = base.clone();
            u.union_with(&other);
            black_box(u)
        })
    });
    g.finish();
}

fn bench_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("guard_ops/diff");
    for &n in SIZES {
        let mine = guard_of(n);
        let incoming = half_overlap(n);
        g.bench_with_input(
            BenchmarkId::new("new_runs", n),
            &(mine, incoming),
            |b, (mine, incoming)| b.iter(|| black_box(mine.new_runs(incoming).count())),
        );
        let mine2 = guard_of(n);
        let incoming2 = half_overlap(n);
        g.bench_with_input(
            BenchmarkId::new("new_guard_count", n),
            &(mine2, incoming2),
            |b, (mine, incoming)| b.iter(|| black_box(mine.new_guard_count(incoming))),
        );
    }
    g.finish();
}

/// Structural proof for the acceptance criterion: cloning a guard of many
/// runs (8 guesses of 7 processes) is O(1) — it shares storage, it does
/// not copy.
fn bench_clone_is_shared(c: &mut Criterion) {
    let guard = guard_of(8);
    let copy = guard.clone();
    assert!(
        guard.shares_storage_with(&copy),
        "clone of an 8-guess guard must share storage"
    );
    c.bench_function("guard_ops/clone_shared_proof/8", |b| {
        b.iter(|| {
            let c = guard.clone();
            debug_assert!(c.shares_storage_with(&guard));
            black_box(c)
        })
    });
}

criterion_group!(
    benches,
    bench_clone,
    bench_remove_front,
    bench_union,
    bench_diff,
    bench_clone_is_shared
);
criterion_main!(benches);
