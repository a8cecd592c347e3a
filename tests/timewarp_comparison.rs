//! Experiment E6 (§5): partial-order optimism (this paper) vs total-order
//! optimism (Time Warp) on the identical two-client/one-server workload.
//!
//! The claim: Time Warp must impose a global total order, so wall-clock
//! skew on one client turns its requests into stragglers that roll back
//! the *other* client's causally unrelated work. The paper's protocol
//! orders only what communication orders — the skewed run simply
//! interleaves differently, with zero rollbacks.

use opcsp_timewarp::{run_two_clients, TwoClientOpts};
use opcsp_workloads::contention::{run_contention, server_requests, ContentionOpts};

#[test]
fn timewarp_rolls_back_unrelated_work_under_skew() {
    let tw = run_two_clients(TwoClientOpts {
        n_per_client: 8,
        transit: 20,
        skew: 300,
        ..TwoClientOpts::default()
    });
    assert!(tw.stats.rollbacks > 0);
    assert!(tw.stats.undone > 0);
    // Wasted work: reprocessing beyond the 16 requests (+ replies).
    assert!(tw.stats.processed as u32 > 16);
}

#[test]
fn opcsp_has_zero_rollbacks_under_the_same_skew() {
    let r = run_contention(ContentionOpts {
        n_per_client: 8,
        latency: 20,
        skew: 300,
    });
    assert!(r.unresolved.is_empty());
    assert_eq!(
        r.stats().rollbacks,
        0,
        "causally unrelated clients never conflict"
    );
    assert_eq!(r.stats().aborts, 0);
    // All 16 requests served exactly once.
    assert_eq!(server_requests(&r).len(), 16);
}

#[test]
fn opcsp_interleaving_depends_on_arrival_but_is_always_legal() {
    // Unlike Time Warp, the server's service order follows arrival: with
    // skew, client B's requests come first. Both interleavings are legal
    // partial-order linearizations (§6: "any serializable ordering is
    // legal" is *concurrency control*; here each client's own order is
    // what must be — and is — preserved).
    let no_skew = server_requests(&run_contention(ContentionOpts::default()));
    let skewed = server_requests(&run_contention(ContentionOpts {
        skew: 300,
        ..ContentionOpts::default()
    }));
    assert_eq!(no_skew.len(), skewed.len());
    // Per-client subsequences are identical in both runs.
    for client in [
        opcsp_workloads::contention::CLIENT_A,
        opcsp_workloads::contention::CLIENT_B,
    ] {
        let a: Vec<_> = no_skew.iter().filter(|(f, _)| *f == client).collect();
        let b: Vec<_> = skewed.iter().filter(|(f, _)| *f == client).collect();
        assert_eq!(a, b, "client {client}'s own order must be preserved");
    }
    // But the interleavings differ (B overtakes A under skew).
    assert_ne!(no_skew, skewed, "skew should change the legal interleaving");
}

#[test]
fn wasted_work_comparison_grows_with_skew() {
    // The E6 series: Time Warp's wasted work grows with skew; OPCSP's is
    // identically zero.
    let mut tw_prev = 0u64;
    for skew in [0u64, 150, 400] {
        let tw = run_two_clients(TwoClientOpts {
            n_per_client: 8,
            transit: 20,
            skew,
            ..TwoClientOpts::default()
        });
        assert!(tw.stats.undone >= tw_prev, "skew {skew}");
        tw_prev = tw.stats.undone;

        let ours = run_contention(ContentionOpts {
            n_per_client: 8,
            latency: 20,
            skew,
        });
        assert_eq!(ours.stats().rollbacks, 0, "skew {skew}");
    }
    assert!(tw_prev > 0);
}
