//! The metric catalogue — the one place a metric's name, unit, direction
//! and bound are spelled. `BENCHMARK.json` is generated from it
//! (`describe`), `tests/smoke.rs` holds the two to each other, and
//! `compare` reads the bounds from here.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `base` is `new` worse (negative: better)?
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (base - new) / base.abs(),
            Better::Lower => (new - base) / base.abs(),
        }
    }
}

/// A metric a user of the system would see. `bound` is the share of the
/// parent's median by which it may worsen before a change is a regression.
/// One bound serves all six workloads, so each is set by the noisiest
/// reading of any of them: about three times the widest quartile spread
/// that ten runs on ten seeds showed on the 2-core box (README, "Noise").
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "committed_ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "speedup_vs_pessimistic",
        unit: "x",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A number of one layer. What each should move, on which workload, is
/// in the README's "Per-layer metrics" tables; no bound applies.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // (a) Counters, read from `SimResult::stats()` / `RtResult::stats` of
    // untraced reps.
    layer("core.process.forks", "count", Lower),
    layer("core.process.commits", "count", Higher),
    layer("core.process.aborts", "count", Lower),
    layer("core.process.rollbacks", "count", Lower),
    layer("core.process.discarded_threads", "count", Lower),
    layer("core.process.orphans", "count", Lower),
    layer("core.process.commit_ratio", "ratio", Higher),
    layer("core.process.aborts_per_op", "1/op", Lower),
    layer("core.process.rollbacks_per_op", "1/op", Lower),
    layer("core.message.data_per_op", "1/op", Lower),
    layer("core.message.control_per_op", "1/op", Lower),
    layer("core.wire.guard_bytes_per_op", "bytes/op", Lower),
    layer("core.wire.table_bytes_per_op", "bytes/op", Lower),
    layer("core.wire.full_fallbacks", "count", Lower),
    layer("core.guard.interner_hit_ratio", "ratio", Higher),
    layer("rt.net.retransmits", "count", Lower),
    layer("rt.net.standalone_acks", "count", Lower),
    layer("sim.engine.vt_completion_ticks", "ticks", Lower),
    layer("sim.engine.vt_ops_per_ktick", "ops/ktick", Higher),
    layer("rt.runtime.counts_stable", "bool", Higher),
    // (b) Measured by the `Timed` wrappers and the engines' telemetry
    // during the traced reps.
    layer("bench.run_wall_s", "s", Lower),
    layer("workloads.behavior.steps", "count", Lower),
    layer("workloads.behavior.step_self_s", "s", Lower),
    layer("sim.behavior.clones", "count", Lower),
    layer("sim.behavior.clone_self_s", "s", Lower),
    layer("sim.behavior.clone_share", "ratio", Lower),
    layer("sim.engine.residual_s", "s", Lower),
    layer("rt.runtime.residual_s", "s", Lower),
    layer("core.telemetry.fork_commit_p50", "us_or_ticks", Lower),
    layer("core.telemetry.fork_commit_p99", "us_or_ticks", Lower),
    layer("core.telemetry.wasted_steps", "count", Lower),
    layer("core.telemetry.rollback_depth_max", "count", Lower),
    layer("core.telemetry.traced_overhead_pct", "%", Lower),
    // (c) Probes: a fixed-input timing loop around public calls into one
    // layer.
    layer("core.guard.union32_ns", "ns", Lower),
    layer("core.guard.clone32_ns", "ns", Lower),
    layer("core.guard.intern_hit32_ns", "ns", Lower),
    layer("core.compact.compress_expand32_ns", "ns", Lower),
    layer("core.process.fork_join_commit_ns", "ns", Lower),
    layer("core.process.deliver_new_dep_ns", "ns", Lower),
    layer("core.process.abort_cascade32_us", "us", Lower),
    layer("core.cdg.add_edge_cycle_ns", "ns", Lower),
    layer("core.wire.encode_frame_ns", "ns", Lower),
    layer("core.wire.decode_frame_ns", "ns", Lower),
    layer("core.wire.frame_bytes", "bytes", Lower),
    layer("rt.net.transport_roundtrip_ns", "ns", Lower),
    layer("rt.net.delayer_hop_us", "us", Lower),
    layer("rt.runtime.empty_world_threaded_ms", "ms", Lower),
    layer("rt.runtime.empty_world_sharded_ms", "ms", Lower),
    layer("rt.sock.empty_world_uds_ms", "ms", Lower),
    layer("lang.parser.parse_transform_us", "us", Lower),
    layer("lang.interp.putline_sim_ms", "ms", Lower),
];

/// A measured value with the spread of the reps behind it.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// First and third quartile of the reps.
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Reading {
    /// A number measured once per invocation (a count, a peak, a total).
    pub fn once(value: f64) -> Reading {
        Reading::median_of(&[value])
    }

    /// The median of per-rep samples, with their range and quartiles.
    pub fn median_of(samples: &[f64]) -> Reading {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Reading {
            value: median(&v),
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            n: v.len(),
        }
    }

    /// Quartile spread as a share of the median — the measure the
    /// benchmark contract applies across runs, here across reps.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    pub fn to_json(&self, unit: &str, detail: bool) -> Json {
        let mut fields = vec![("value", Json::num(self.value)), ("unit", Json::str(unit))];
        if detail {
            fields.push(("min", Json::num(self.min)));
            fields.push(("q1", Json::num(self.q1)));
            fields.push(("q3", Json::num(self.q3)));
            fields.push(("max", Json::num(self.max)));
            fields.push(("n", Json::num(self.n as f64)));
        }
        Json::obj(fields)
    }

    pub fn from_json(v: &Json) -> Option<Reading> {
        let value = v.get("value")?.as_f64()?;
        let field = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(value);
        Some(Reading {
            value,
            min: field("min"),
            max: field("max"),
            q1: field("q1"),
            q3: field("q3"),
            n: v.get("n").and_then(Json::as_f64).unwrap_or(1.0) as usize,
        })
    }
}

/// Quantile of sorted samples by linear interpolation at `p * (n + 1)`,
/// as Python's `statistics.quantiles` places it (clamped to the extremes).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let upper = sorted[lo.min(n - 1)];
    sorted[lo - 1] + (upper - sorted[lo - 1]) * frac
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of raw samples (`p` in 0..=1).
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = Reading::median_of(&v);
        assert_eq!((r.q1, r.value, r.q3), (2.75, 5.5, 8.25));
        assert_eq!((r.min, r.max, r.n), (1.0, 10.0, 10));
        assert!((r.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let r = Reading::median_of(&[3.0, 1.0, 2.0]);
        assert_eq!((r.q1, r.value, r.q3), (1.0, 2.0, 3.0));
        assert_eq!(Reading::once(7.0).spread(), 0.0);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.10).abs() < 1e-12);
        assert_eq!(percentile(&[5, 1, 9, 3], 0.5), 3);
        assert_eq!(percentile(&[5, 1, 9, 3], 0.99), 9);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
