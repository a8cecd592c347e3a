//! The experiment harness's own regression tests: every table regenerates
//! with the qualitative *shape* the paper claims — monotone speedups,
//! crossovers, ablation deltas — so EXPERIMENTS.md can never silently rot.

use opcsp_bench::experiments as ex;

fn col_f64(t: &opcsp_bench::Table, col: &str) -> Vec<f64> {
    (0..t.rows.len())
        .map(|r| {
            t.cell_f64(r, col)
                .unwrap_or_else(|| panic!("{}: row {r} col {col}", t.title))
        })
        .collect()
}

#[test]
fn e1_speedup_grows_with_latency() {
    let t = ex::e1_latency_sweep();
    assert_eq!(t.rows.len(), 6);
    let speedups = col_f64(&t, "speedup");
    for w in speedups.windows(2) {
        assert!(
            w[1] >= w[0] * 0.95,
            "speedup must grow with latency: {speedups:?}"
        );
    }
    assert!(*speedups.last().unwrap() > 15.0, "{speedups:?}");
}

#[test]
fn e2_streaming_per_call_cost_collapses() {
    let t = ex::e2_n_sweep();
    let per_call = col_f64(&t, "stream/call");
    assert!(
        per_call.first().unwrap() / per_call.last().unwrap() > 20.0,
        "per-call cost must collapse: {per_call:?}"
    );
    let seq = col_f64(&t, "seq/call");
    let spread =
        seq.iter().cloned().fold(f64::MIN, f64::max) - seq.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread <= 2.0, "sequential per-call cost is flat: {seq:?}");
}

#[test]
fn e3_has_the_crossover_shape() {
    let t = ex::e3_abort_sweep();
    let speedups = col_f64(&t, "speedup");
    assert!(speedups[0] > 10.0, "p=0 must fly: {speedups:?}");
    assert!(
        *speedups.last().unwrap() <= 1.05,
        "p=1 must degrade to ~sequential: {speedups:?}"
    );
    // Monotone non-increasing within tolerance.
    for w in speedups.windows(2) {
        assert!(w[1] <= w[0] * 1.05, "{speedups:?}");
    }
}

#[test]
fn e5_delivery_rule_prevents_the_fault() {
    let t = ex::e5_delivery_ablation();
    assert_eq!(t.cell(0, "min-deps delivery"), Some("true"));
    assert_eq!(t.cell(0, "time faults"), Some("0"));
    assert_ne!(t.cell(1, "time faults"), Some("0"));
    let on = t.cell_f64(0, "completion").unwrap();
    let off = t.cell_f64(1, "completion").unwrap();
    assert!(off > on, "the fault costs time: {on} vs {off}");
}

#[test]
fn e8_reduction_grows_with_stream_length() {
    let t = ex::e8_guard_compaction();
    let listed = col_f64(&t, "member-list bytes");
    let runs = col_f64(&t, "run bytes");
    let compact = col_f64(&t, "compact+rows bytes");
    let streams: Vec<usize> = (0..t.rows.len())
        .filter(|&r| {
            t.cell(r, "workload")
                .is_some_and(|w| w.starts_with("stream"))
        })
        .collect();
    assert_eq!(streams.len(), 5);
    let ratios: Vec<f64> = streams.iter().map(|&r| listed[r] / runs[r]).collect();
    for w in ratios.windows(2) {
        assert!(
            w[1] > w[0],
            "the member list's excess must grow: {ratios:?}"
        );
    }
    // The headline claim: ≥5x fewer guard bytes than a member list at
    // streaming depth 32, and exactly §4.1.2's compact bytes on a stream.
    assert_eq!(t.cell(streams[2], "workload"), Some("stream N=32"));
    assert!(ratios[2] >= 5.0, "{ratios:?}");
    for &r in &streams {
        assert_eq!(runs[r], compact[r], "row {r}");
    }
    for r in 0..t.rows.len() {
        assert!(runs[r] <= listed[r], "row {r}: {} > {}", runs[r], listed[r]);
    }
}

#[test]
fn e10_is_outcome_invariant() {
    let t = ex::e10_checkpoint_policy();
    let completions = col_f64(&t, "completion");
    assert!(
        completions.windows(2).all(|w| w[0] == w[1]),
        "checkpoint policy must not change outcomes: {completions:?}"
    );
    let snapshots = col_f64(&t, "snapshots");
    assert!(
        snapshots.windows(2).all(|w| w[1] <= w[0]),
        "snapshots fall with K: {snapshots:?}"
    );
}

#[test]
fn t1_reports_all_equivalent() {
    let t = ex::t1_equivalence();
    for r in 0..t.rows.len() {
        assert_eq!(
            t.cell(r, "equivalent"),
            Some("yes"),
            "row {r} of {}",
            t.title
        );
    }
}

#[test]
fn tables_serialize_to_json() {
    let t = ex::e5_delivery_ablation();
    let j = t.to_json();
    assert!(j.contains("\"title\""));
    assert!(j.contains("min-deps delivery"));
    let back = opcsp_bench::Table::from_json(&j).unwrap();
    assert_eq!(back, t);
}
