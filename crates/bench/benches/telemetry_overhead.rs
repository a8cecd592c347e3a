//! Telemetry-overhead gate: the lifecycle recorder must be free when
//! disabled. `RtConfig::telemetry` defaults to off, and every record
//! path in the runtime is guarded by `Telemetry::enabled()`, so the
//! disabled runs here (the default configuration — what `guard_ops` and
//! `rt_throughput` measure) should sit within noise of a build without
//! the telemetry layer at all; the enabled runs price the event stream.
//!
//! A structural check (`disabled_recorder_stores_nothing`) pins the
//! stronger property the ≤5 % budget rests on: a disabled sink records
//! zero events and allocates nothing per event, so its cost is one
//! branch per hook.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opcsp_core::{Telemetry, TelemetryEvent};
use opcsp_rt::{RtConfig, RtWorld};
use opcsp_workloads::catalog::Spec;
use opcsp_workloads::streaming::StreamingOpts;
use std::time::Duration;

fn run_once(n: u32, telemetry: bool) -> opcsp_rt::RtResult {
    let cfg = RtConfig {
        latency: Duration::from_millis(1),
        fork_timeout: Duration::from_secs(2),
        run_timeout: Duration::from_secs(20),
        telemetry,
        ..RtConfig::default()
    };
    let stream = StreamingOpts {
        n,
        ..StreamingOpts::default()
    };
    let r = Spec::Stream(stream).on(RtWorld::new(cfg)).run();
    assert!(!r.timed_out);
    r
}

fn bench_telemetry(c: &mut Criterion) {
    // The disabled recorder must be inert — not just cheap. If this
    // fails, the benchmark below is measuring the wrong thing.
    let off = run_once(8, false);
    assert!(
        off.telemetry.events.is_empty(),
        "disabled telemetry sink recorded {} events",
        off.telemetry.events.len()
    );
    let on = run_once(8, true);
    assert!(
        !on.telemetry.events.is_empty(),
        "enabled telemetry sink recorded nothing"
    );

    let mut g = c.benchmark_group("telemetry_overhead_rt");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for enabled in [false, true] {
        let name = if enabled { "enabled" } else { "disabled" };
        g.bench_with_input(BenchmarkId::new(name, 8), &enabled, |b, &enabled| {
            b.iter(|| run_once(8, enabled))
        });
    }
    g.finish();

    // The per-hook cost in isolation: a disabled sink's record() is one
    // branch; an enabled sink's is a Vec push.
    let mut g = c.benchmark_group("telemetry_record_micro");
    for enabled in [false, true] {
        let name = if enabled { "enabled" } else { "disabled" };
        g.bench_function(BenchmarkId::new(name, 0), |b| {
            let mut tele = Telemetry::new(enabled);
            b.iter(|| {
                tele.record(black_box(TelemetryEvent::WaveStart {
                    t: 1,
                    guess: opcsp_core::GuessId::first(opcsp_core::ProcessId(0), 1),
                }));
            });
            black_box(&tele);
        });
    }
    g.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
