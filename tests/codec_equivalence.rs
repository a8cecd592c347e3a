//! Differential testing of the §4.1.2 compact wire codec: randomized
//! workloads run with compact guard tags must produce partial traces
//! (committed observable logs + released externals) identical to the same
//! run with full-set tags — and both must match the pessimistic baseline
//! (Theorem 1). The full-set mode is the oracle; the compact mode is the
//! production encoding.

use opcsp_core::{CoreConfig, GuardCodec, ProcessId};
use opcsp_sim::{check_conservation, check_equivalence, SimResult};
use opcsp_workloads::streaming::{run_streaming, run_tally, StreamingOpts, TallyOpts};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn externals(r: &SimResult) -> Vec<(ProcessId, opcsp_core::Value)> {
    r.external.iter().map(|(_, p, v)| (*p, v.clone())).collect()
}

fn core(optimism: bool) -> CoreConfig {
    if optimism {
        CoreConfig::default()
    } else {
        CoreConfig::pessimistic()
    }
}

/// Both optimistic codecs against each other and the pessimistic baseline.
fn assert_codec_equivalence(label: &str, run: impl Fn(bool, GuardCodec) -> SimResult) {
    let pess = run(false, GuardCodec::Full);
    let full = run(true, GuardCodec::Full);
    let compact = run(true, GuardCodec::Compact);
    for (opt, codec) in [(&full, "full"), (&compact, "compact")] {
        assert!(
            opt.unresolved.is_empty(),
            "{label} [{codec}]: unresolved {:?}",
            opt.unresolved
        );
        let rep = check_equivalence(&pess, opt);
        assert!(
            rep.equivalent,
            "{label} [{codec}]: divergence {:#?}",
            rep.mismatches
        );
        check_conservation(opt).unwrap_or_else(|e| panic!("{label} [{codec}]: {e}"));
        assert_eq!(
            externals(&pess),
            externals(opt),
            "{label} [{codec}]: external divergence"
        );
    }
    // The two optimistic runs are deterministic simulations of the same
    // system: their committed logs must agree with each other too.
    let rep = check_equivalence(&full, &compact);
    assert!(
        rep.equivalent,
        "{label}: full vs compact divergence {:#?}",
        rep.mismatches
    );
}

proptest! {
    /// Streaming clients (the §4.2.1 call-streaming shape that compaction
    /// targets) with random depth, latency, and server-rejected lines.
    #[test]
    fn compact_codec_matches_full_on_streaming(
        n in 4u32..20,
        latency in 5u64..80,
        fails in proptest::collection::btree_set(1u32..16, 0..3),
        targeted in any::<bool>(),
    ) {
        let fail_lines: BTreeSet<u32> = fails.into_iter().filter(|f| *f < n).collect();
        assert_codec_equivalence("streaming", |optimism, codec| {
            run_streaming(StreamingOpts {
                n,
                latency,
                fail_lines: fail_lines.clone(),
                core: CoreConfig {
                    codec,
                    targeted_control: targeted,
                    ..core(optimism)
                },
                ..StreamingOpts::default()
            })
        });
    }

    /// Fan-in tally workload with a random fault rate — exercises
    /// multi-incarnation guards, table-row shipping and the orphan path.
    #[test]
    fn compact_codec_matches_full_on_tally(
        n in 4u32..20,
        latency in 5u64..80,
        p_per_mille in 0u32..600,
        seed in 0u64..64,
    ) {
        assert_codec_equivalence("tally", |optimism, codec| {
            run_tally(TallyOpts {
                n,
                latency,
                p_per_mille,
                seed,
                core: CoreConfig {
                    codec,
                    ..core(optimism)
                },
            })
        });
    }
}

/// Fault-free streaming is the compaction sweet spot: every data message
/// must actually ship compact, and guard bytes must shrink substantially
/// against the full-set run (the E8 claim, asserted here so a codec
/// regression fails fast rather than only skewing the figures).
#[test]
fn streaming_compact_codec_engages_and_shrinks_guard_bytes() {
    let run = |codec| {
        run_streaming(StreamingOpts {
            n: 32,
            latency: 40,
            core: CoreConfig {
                codec,
                ..CoreConfig::default()
            },
            ..StreamingOpts::default()
        })
    };
    let full = run(GuardCodec::Full);
    let compact = run(GuardCodec::Compact);
    let rep = check_equivalence(&full, &compact);
    assert!(rep.equivalent, "{:#?}", rep.mismatches);
    let stats = compact.stats();
    assert!(
        stats.wire.compact_sends > 0,
        "compaction never engaged: {:?}",
        stats.wire
    );
    assert_eq!(
        stats.wire.full_fallbacks, 0,
        "fault-free streaming must never fall back: {:?}",
        stats.wire
    );
    let full_bytes = full.stats().guard_bytes;
    let compact_bytes = stats.guard_bytes + stats.table_bytes;
    assert!(
        compact_bytes * 5 <= full_bytes,
        "expected ≥5x guard-byte reduction: full={full_bytes} compact={compact_bytes}"
    );
}
