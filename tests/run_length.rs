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
//!
//! Two wall-time guards join it (DESIGN.md §5b, "An abort costs the runs
//! it dooms"): aborting the root of a 4× deeper fork chain, and simulating
//! a 4× longer call stream and checking it, must cost well under 16× —
//! what a cost quadratic in the backlog reads. They are release-only: debug builds
//! check every abort and every delivery choice against member-wise
//! references that are quadratic by design.
//!
//! And two memory guards (DESIGN.md §5b, "Nothing settled stays"): what the
//! drivers still hold at quiescence — threads, checkpoints, consumed
//! messages, own-guess records, guessed values — is the same small count
//! after a run twice or four times as long; and the optimistic `kv` world's
//! peak live heap (the counting allocator also tracks live bytes) stays
//! within a bound of its pessimistic twin's. The second is release-only
//! too: debug builds keep reference copies for their cross-checks.
//!
//! And one more, release-only (DESIGN.md §5b, "A run keeps what its reader
//! asks for"): a run that keeps no trace, provenance or resolutions — the
//! default — peaks well below the same run recorded (`SimConfig::record`).

use opcsp_core::{CoreConfig, ProcessCore, ProcessId};
use opcsp_sim::{Held, SimConfig};
use opcsp_workloads::catalog::{self, Spec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Held by every test here: the wall-time guards must not share the
/// machine with the others, and the allocation counts are per thread
/// anyway.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    // A guard that failed poisons the lock; the next test still runs.
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread and not yet freed, and their
    /// high-water mark (a thread that frees what another allocated can
    /// take it below zero; the simulator runs on one thread).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn grow(bytes: usize, by: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by * bytes as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds each contract the caller relies on; counting only
// touches a thread-local `Cell`, which never allocates (const-initialised).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size(), 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        grow(new_size, 1);
        grow(layout.size(), -1);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(layout.size(), -1);
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
    let _alone = one_at_a_time();
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

/// The least of `reps` walls of each of `short` and `long`, taken in
/// turn, so that both see the machine in the same states.
fn min_walls(
    reps: usize,
    mut short: impl FnMut() -> Duration,
    mut long: impl FnMut() -> Duration,
) -> [Duration; 2] {
    let mut best = [Duration::MAX; 2];
    for _ in 0..reps {
        best[0] = best[0].min(short());
        best[1] = best[1].min(long());
    }
    best
}

/// Wall of `ProcessCore::on_abort` of the root of a right-branching chain
/// of `depth` forks (call streaming's shape: each right thread forks the
/// next), which dooms every guess and discards every right thread.
fn chain_abort(depth: u32) -> Duration {
    let mut core = ProcessCore::new(ProcessId(0), CoreConfig::default());
    let root = core.fork(0, 1).guess;
    for t in 1..depth {
        core.fork(t, 1);
    }
    let start = Instant::now();
    let effects = core.on_abort(root);
    let wall = start.elapsed();
    assert_eq!(effects.own_aborted.len(), depth as usize);
    assert_eq!(effects.discard_threads.len(), depth as usize);
    wall
}

/// Wall of one simulated run of `spec` and of its oracle, the replay of
/// its committed schedule on the pessimistic simulator: what `opcsp-run
/// <spec>` does.
fn simulate_and_check(spec: &str) -> Duration {
    let spec = Spec::parse(spec).expect("spec parses");
    let start = Instant::now();
    let run = spec.simulate();
    spec.check(&run).expect("the run passes its oracle");
    start.elapsed()
}

/// Most a 4× larger input may cost, as a multiple of the smaller one's
/// wall, for the two wall-time guards: linear reads 4×, `n log n` about
/// 5× (the stream's records are never retired, and every map of them
/// deepens), quadratic 16×.
const GROWTH_4X_BOUND: f64 = 8.0;

fn ratio_guard(what: &str, bound: f64, [short, long]: [Duration; 2]) {
    let ratio = long.as_secs_f64() / short.as_secs_f64();
    println!("{what}: {short:?} -> {long:?} ({ratio:.1}x, bound {bound}x)");
    assert!(
        ratio <= bound,
        "{what}: {long:?} against {short:?} ({ratio:.1}x > {bound}x): the cost grows faster \
         than the backlog"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-time guard: release builds only")]
fn an_abort_costs_the_chain_it_dooms_not_its_square() {
    let _alone = one_at_a_time();
    let walls = min_walls(7, || chain_abort(128), || chain_abort(512));
    ratio_guard(
        "abort of a 128 / 512-deep fork chain",
        GROWTH_4X_BOUND,
        walls,
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-time guard: release builds only")]
fn a_simulated_stream_costs_its_calls_not_their_square() {
    let _alone = one_at_a_time();
    let run = |n: u32| move || simulate_and_check(&format!("stream:n={n}"));
    let walls = min_walls(5, run(1000), run(4000));
    ratio_guard(
        "simulating and checking stream:n=1000 / 4000",
        GROWTH_4X_BOUND,
        walls,
    );
}

/// What every process of one simulated run of `spec` still holds at
/// quiescence, summed.
fn held_at_quiescence(spec: &str) -> Held {
    let run = Spec::parse(spec).expect("spec parses").simulate();
    let mut total = Held::default();
    run.held.values().for_each(|h| total.merge(h));
    total
}

/// Most of any one kind of record a world may hold at quiescence: its
/// servers' threads, still blocked at their receives, and nothing else.
const HELD_BOUND: u64 = 8;

#[test]
fn what_a_run_leaves_held_does_not_grow_with_its_length() {
    let _alone = one_at_a_time();
    for [short, long] in [
        [
            "kv:replicas=3,clients=4,ops=150,keys=1024",
            "kv:replicas=3,clients=4,ops=300,keys=1024",
        ],
        ["stream:n=1000", "stream:n=4000"],
    ] {
        let (a, b) = (held_at_quiescence(short), held_at_quiescence(long));
        println!("held at quiescence: {short}: {a}; {long}: {b}");
        assert_eq!(a, b, "{long} holds more than {short} at quiescence");
        let counts = [a.threads, a.checkpoints, a.consumed, a.own, a.guesses];
        assert!(
            counts.iter().all(|&n| n <= HELD_BOUND),
            "{short} holds {a} at quiescence: settled records were kept"
        );
    }
}

/// The peak live heap of one simulated run of `spec` under `cfg`, in
/// bytes above what was live before it.
fn peak_live_bytes(spec: &Spec, cfg: &SimConfig) -> i64 {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let run = catalog::run(spec, cfg);
    let peak = PEAK.with(Cell::get) - before;
    drop(run);
    peak
}

/// Most the optimistic `kv` world's peak live heap may be, as a multiple of
/// its pessimistic twin's.
const TWIN_HEAP_BOUND: f64 = 1.84;

#[test]
#[cfg_attr(debug_assertions, ignore = "memory guard: release builds only")]
fn kv_peak_heap_stays_near_its_pessimistic_twins() {
    let _alone = one_at_a_time();
    let spec = Spec::parse("kv:replicas=3,clients=4,ops=150,keys=1024").expect("spec parses");
    let optimistic = peak_live_bytes(&spec, &spec.sim_config());
    let twin = spec.twin();
    let pessimistic = peak_live_bytes(&twin, &twin.sim_config());
    let ratio = optimistic as f64 / pessimistic as f64;
    println!(
        "peak live heap, {spec}: optimistic {:.2} MB, pessimistic twin {:.2} MB ({ratio:.2}x, \
         bound {TWIN_HEAP_BOUND}x)",
        optimistic as f64 / 1e6,
        pessimistic as f64 / 1e6,
    );
    assert!(
        ratio <= TWIN_HEAP_BOUND,
        "{spec}: optimistic peak live heap {ratio:.2}x its pessimistic twin's \
         (bound {TWIN_HEAP_BOUND}x): speculation keeps what it has settled"
    );
}

/// Most a default run, which keeps no record, may peak at, as a multiple
/// of the same run recorded.
const LEAN_HEAP_BOUND: f64 = 0.8;

#[test]
#[cfg_attr(debug_assertions, ignore = "memory guard: release builds only")]
fn a_run_that_records_nothing_peaks_well_below_the_same_run_recorded() {
    let _alone = one_at_a_time();
    for spec in [
        "kv:replicas=3,clients=4,ops=150,keys=1024",
        "tally:n=600,faults=20",
    ] {
        let spec = Spec::parse(spec).expect("spec parses");
        let lean = peak_live_bytes(&spec, &spec.sim_config());
        let recorded = SimConfig {
            record: true,
            ..spec.sim_config()
        };
        let recorded = peak_live_bytes(&spec, &recorded);
        let ratio = lean as f64 / recorded as f64;
        println!(
            "peak live heap, {spec}: lean {:.2} MB, recorded {:.2} MB ({ratio:.2}x, bound \
             {LEAN_HEAP_BOUND}x)",
            lean as f64 / 1e6,
            recorded as f64 / 1e6,
        );
        assert!(
            ratio <= LEAN_HEAP_BOUND,
            "{spec}: a run that keeps no record peaks at {ratio:.2}x the recorded run's heap \
             (bound {LEAN_HEAP_BOUND}x): it keeps what only a reader of the record needs"
        );
    }
}
