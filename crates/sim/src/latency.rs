//! Network latency models for the deterministic simulator.
//!
//! The paper's setting is a distributed system where "communication delays
//! are long relative to the speed of computation" (§1). Latency is the
//! independent variable of experiments E1/E2 and the *cause* of time faults
//! (Figure 4 requires X's call to reach Z before Y's). Models are seeded
//! and deterministic.
//!
//! # Draw addressing (forensics)
//!
//! Jittered latency is a *stateless* function of `(seed, from, to, k)`
//! where `k` counts data transmissions on the directed link `from → to`.
//! That gives every draw a stable address (a [`DrawKey`]): the k-th
//! message on a link samples the same latency in every run that reaches
//! it — the pessimistic baseline and the optimistic run see the *same
//! network*, a reproducer can be replayed, and the schedule shrinker can
//! override individual draws ([`LatencyModel::Scripted`]) while leaving
//! the rest of the schedule untouched.

use opcsp_core::ProcessId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Stable address of one latency draw: the `k`-th data transmission on the
/// directed link `from → to` (0-based).
pub type DrawKey = (ProcessId, ProcessId, u32);

/// Deterministic one-way message latency between processes.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Same latency on every link.
    Fixed(u64),
    /// Per-link overrides with a default — used to script Figure 4's
    /// arrival reordering.
    PerLink {
        default: u64,
        links: BTreeMap<(ProcessId, ProcessId), u64>,
    },
    /// Uniform jitter in `[base, base + spread]`: a pure function of
    /// `(seed, from, to, k)` — see the module docs.
    Jitter { base: u64, spread: u64, seed: u64 },
    /// [`LatencyModel::Jitter`] with per-draw overrides: any draw whose
    /// [`DrawKey`] appears in `overrides` uses the scripted value instead
    /// of the hash. The shrinker's replay vehicle.
    Scripted {
        base: u64,
        spread: u64,
        seed: u64,
        overrides: Arc<BTreeMap<DrawKey, u64>>,
    },
}

impl LatencyModel {
    pub fn fixed(d: u64) -> LatencyModel {
        LatencyModel::Fixed(d)
    }

    pub fn per_link(default: u64) -> PerLinkBuilder {
        PerLinkBuilder {
            default,
            links: BTreeMap::new(),
        }
    }

    pub fn jitter(base: u64, spread: u64, seed: u64) -> LatencyModel {
        LatencyModel::Jitter { base, spread, seed }
    }

    pub fn scripted(
        base: u64,
        spread: u64,
        seed: u64,
        overrides: Arc<BTreeMap<DrawKey, u64>>,
    ) -> LatencyModel {
        LatencyModel::Scripted {
            base,
            spread,
            seed,
            overrides,
        }
    }

    /// Build the sampler used by one simulation run.
    pub fn sampler(&self) -> LatencySampler {
        match self {
            LatencyModel::Fixed(d) => LatencySampler::Fixed(*d),
            LatencyModel::PerLink { default, links } => LatencySampler::PerLink {
                default: *default,
                links: links.clone(),
            },
            LatencyModel::Jitter { base, spread, seed } => LatencySampler::Jitter {
                base: *base,
                spread: *spread,
                seed: *seed,
                overrides: None,
                counters: BTreeMap::new(),
                draws: Vec::new(),
            },
            LatencyModel::Scripted {
                base,
                spread,
                seed,
                overrides,
            } => LatencySampler::Jitter {
                base: *base,
                spread: *spread,
                seed: *seed,
                overrides: Some(overrides.clone()),
                counters: BTreeMap::new(),
                draws: Vec::new(),
            },
        }
    }
}

/// Builder for per-link latency tables.
#[derive(Debug, Clone)]
pub struct PerLinkBuilder {
    default: u64,
    links: BTreeMap<(ProcessId, ProcessId), u64>,
}

impl PerLinkBuilder {
    /// One-directional link latency override.
    pub fn link(mut self, from: ProcessId, to: ProcessId, d: u64) -> Self {
        self.links.insert((from, to), d);
        self
    }

    pub fn build(self) -> LatencyModel {
        LatencyModel::PerLink {
            default: self.default,
            links: self.links,
        }
    }
}

/// SplitMix64 finalizer — a cheap, well-mixed stateless hash. Public
/// because the runtime's chaos layer (`opcsp_rt::net::NetFaults`) keys
/// its deterministic fault draws exactly the way [`jitter_draw`] keys
/// latency draws.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The pure draw function behind [`LatencyModel::Jitter`]: uniform in
/// `[base, base + spread]`, addressed by `(seed, from, to, k)`.
pub fn jitter_draw(seed: u64, base: u64, spread: u64, key: DrawKey) -> u64 {
    if spread == 0 {
        return base;
    }
    let (from, to, k) = key;
    let h = splitmix64(
        splitmix64(seed ^ ((from.0 as u64) << 32 | to.0 as u64)) ^ (k as u64).wrapping_mul(0xA5A5),
    );
    base + h % (spread + 1)
}

/// Stateful sampler for one run. The jitter variant advances per-link
/// transmission counters (and records every draw for forensics).
#[derive(Debug)]
pub enum LatencySampler {
    Fixed(u64),
    PerLink {
        default: u64,
        links: BTreeMap<(ProcessId, ProcessId), u64>,
    },
    Jitter {
        base: u64,
        spread: u64,
        seed: u64,
        overrides: Option<Arc<BTreeMap<DrawKey, u64>>>,
        counters: BTreeMap<(ProcessId, ProcessId), u32>,
        draws: Vec<(DrawKey, u64)>,
    },
}

impl LatencySampler {
    pub fn sample(&mut self, from: ProcessId, to: ProcessId) -> u64 {
        match self {
            LatencySampler::Fixed(d) => *d,
            LatencySampler::PerLink { default, links } => {
                links.get(&(from, to)).copied().unwrap_or(*default)
            }
            LatencySampler::Jitter {
                base,
                spread,
                seed,
                overrides,
                counters,
                draws,
            } => {
                let k = counters.entry((from, to)).or_insert(0);
                let key = (from, to, *k);
                *k += 1;
                let d = overrides
                    .as_ref()
                    .and_then(|o| o.get(&key).copied())
                    .unwrap_or_else(|| jitter_draw(*seed, *base, *spread, key));
                draws.push((key, d));
                d
            }
        }
    }

    /// The next [`DrawKey`] a send on `from → to` would be assigned
    /// (jitter variants only) — lets the engine stamp envelopes with their
    /// link transmission index before sampling.
    pub fn next_key(&self, from: ProcessId, to: ProcessId) -> Option<DrawKey> {
        match self {
            LatencySampler::Jitter { counters, .. } => {
                Some((from, to, counters.get(&(from, to)).copied().unwrap_or(0)))
            }
            _ => None,
        }
    }

    /// Every draw made so far, in sample order (jitter variants; empty for
    /// deterministic-by-construction models).
    pub fn draws(&self) -> &[(DrawKey, u64)] {
        match self {
            LatencySampler::Jitter { draws, .. } => draws,
            _ => &[],
        }
    }

    /// Supplied [`LatencyModel::Scripted`] overrides whose key was never
    /// drawn so far: a scripted schedule that drifted from the workload's
    /// actual transmissions, silently overriding nothing. Callers surface
    /// these instead of letting a stale script quietly test nothing.
    pub fn unused_overrides(&self) -> Vec<DrawKey> {
        match self {
            LatencySampler::Jitter {
                overrides: Some(ov),
                draws,
                ..
            } => {
                let drawn: std::collections::BTreeSet<DrawKey> =
                    draws.iter().map(|(k, _)| *k).collect();
                ov.keys().filter(|k| !drawn.contains(*k)).copied().collect()
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let mut s = LatencyModel::fixed(7).sampler();
        assert_eq!(s.sample(ProcessId(0), ProcessId(1)), 7);
        assert_eq!(s.sample(ProcessId(1), ProcessId(0)), 7);
    }

    #[test]
    fn per_link_overrides_are_directional() {
        let m = LatencyModel::per_link(10)
            .link(ProcessId(0), ProcessId(2), 1)
            .build();
        let mut s = m.sampler();
        assert_eq!(s.sample(ProcessId(0), ProcessId(2)), 1);
        assert_eq!(s.sample(ProcessId(2), ProcessId(0)), 10);
        assert_eq!(s.sample(ProcessId(1), ProcessId(2)), 10);
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let m = LatencyModel::jitter(5, 10, 42);
        let mut a = m.sampler();
        let mut b = m.sampler();
        for _ in 0..100 {
            let va = a.sample(ProcessId(0), ProcessId(1));
            let vb = b.sample(ProcessId(0), ProcessId(1));
            assert_eq!(va, vb, "same seed must give same sequence");
            assert!((5..=15).contains(&va));
        }
    }

    #[test]
    fn jitter_zero_spread_degenerates_to_fixed() {
        let mut s = LatencyModel::jitter(4, 0, 1).sampler();
        assert_eq!(s.sample(ProcessId(0), ProcessId(1)), 4);
    }

    #[test]
    fn jitter_draws_are_per_link_addressed_not_order_dependent() {
        // Sampling links in different global orders must not change any
        // link's sequence — the root-cause fix for the fan_in divergence.
        let m = LatencyModel::jitter(50, 80, 1);
        let (a, b) = (ProcessId(0), ProcessId(1));
        let (c, d) = (ProcessId(2), ProcessId(3));
        let mut s1 = m.sampler();
        let ab0 = s1.sample(a, b);
        let cd0 = s1.sample(c, d);
        let ab1 = s1.sample(a, b);
        let mut s2 = m.sampler();
        // Interleave differently: cd first, then ab twice.
        assert_eq!(s2.sample(c, d), cd0);
        assert_eq!(s2.sample(a, b), ab0);
        assert_eq!(s2.sample(a, b), ab1);
    }

    #[test]
    fn scripted_overrides_take_precedence_and_are_recorded() {
        let key = (ProcessId(0), ProcessId(1), 1);
        let overrides = Arc::new(BTreeMap::from([(key, 999u64)]));
        let m = LatencyModel::scripted(5, 10, 42, overrides);
        let mut s = m.sampler();
        let plain = LatencyModel::jitter(5, 10, 42);
        let mut p = plain.sampler();
        assert_eq!(
            s.sample(ProcessId(0), ProcessId(1)),
            p.sample(ProcessId(0), ProcessId(1)),
            "draw 0 is not overridden"
        );
        assert_eq!(s.sample(ProcessId(0), ProcessId(1)), 999);
        assert_eq!(s.draws().len(), 2);
        assert_eq!(s.draws()[1], (key, 999));
    }

    #[test]
    fn unused_overrides_reports_never_drawn_keys() {
        let drawn = (ProcessId(0), ProcessId(1), 0);
        let stale = (ProcessId(7), ProcessId(8), 3);
        let overrides = Arc::new(BTreeMap::from([(drawn, 77u64), (stale, 99u64)]));
        let mut s = LatencyModel::scripted(5, 10, 42, overrides).sampler();
        assert_eq!(
            s.unused_overrides(),
            vec![drawn, stale],
            "nothing drawn yet: every override is unused"
        );
        assert_eq!(s.sample(ProcessId(0), ProcessId(1)), 77);
        assert_eq!(s.unused_overrides(), vec![stale]);
        // Plain jitter (no script) never reports unused overrides.
        assert!(LatencyModel::jitter(5, 10, 42)
            .sampler()
            .unused_overrides()
            .is_empty());
    }

    #[test]
    fn next_key_tracks_link_counters() {
        let m = LatencyModel::jitter(5, 10, 42);
        let mut s = m.sampler();
        assert_eq!(
            s.next_key(ProcessId(0), ProcessId(1)),
            Some((ProcessId(0), ProcessId(1), 0))
        );
        s.sample(ProcessId(0), ProcessId(1));
        assert_eq!(
            s.next_key(ProcessId(0), ProcessId(1)),
            Some((ProcessId(0), ProcessId(1), 1))
        );
        assert_eq!(s.next_key(ProcessId(1), ProcessId(0)), Some((ProcessId(1), ProcessId(0), 0)));
        assert_eq!(LatencyModel::fixed(1).sampler().next_key(ProcessId(0), ProcessId(1)), None);
    }
}
