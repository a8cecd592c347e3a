//! Cost per committed op must not grow with the length of the run.
//!
//! The optimistic `kv` world pays speculation bookkeeping on every
//! delivery, commit and checkpoint; that bookkeeping must cost what a
//! message adds and what a commit settles, not the speculative backlog
//! behind it (DESIGN.md §5b, "A delivery costs its runs"). This guard
//! counts heap allocations per committed op — a deterministic stand-in for
//! the work done, unlike wall time — at 150 and at 600 ops per client, and
//! fails if quadrupling the run more than adds 30 % per op.
//!
//! The counting allocator counts per thread, so tests running in parallel
//! on other threads do not pollute a measurement; the simulator runs the
//! whole world on the calling thread. `cargo test --release --test
//! run_length -- --nocapture` prints the table.

use opcsp_workloads::catalog::Spec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds each contract the caller relies on; counting only
// touches a thread-local `Cell`, which never allocates (const-initialised).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations (and reallocations) per committed op of one simulated run
/// of `spec`, which must pass its oracle.
fn allocs_per_op(spec: &str) -> f64 {
    let spec = Spec::parse(spec).expect("spec parses");
    let before = allocations();
    let run = spec.simulate();
    let used = allocations() - before;
    spec.check(&run).expect("the run passes its oracle");
    used as f64 / spec.ops() as f64
}

/// Most a 4× longer run may cost per op, relative to the shorter one.
const GROWTH_BOUND: f64 = 1.3;

#[test]
fn kv_allocations_per_op_are_flat_in_run_length() {
    let mut table = Vec::new();
    for keys in [1024, 16] {
        let [short, long] = [150, 600]
            .map(|ops| allocs_per_op(&format!("kv:replicas=3,clients=4,ops={ops},keys={keys}")));
        table.push((keys, short, long));
    }
    println!("allocations per committed op, kv:replicas=3,clients=4");
    println!(
        "{:>6} {:>10} {:>10} {:>7}",
        "keys", "ops=150", "ops=600", "ratio"
    );
    for &(keys, short, long) in &table {
        println!(
            "{keys:>6} {short:>10.0} {long:>10.0} {:>6.2}x",
            long / short
        );
    }
    for (keys, short, long) in table {
        assert!(
            long <= GROWTH_BOUND * short,
            "keys={keys}: {long:.0} allocations per op at 600 ops/client against \
             {short:.0} at 150 ({:.2}x > {GROWTH_BOUND}x): per-op bookkeeping grows \
             with the speculative backlog",
            long / short
        );
    }
}
