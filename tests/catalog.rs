//! The world catalogue (`opcsp_workloads::catalog`): one grammar that
//! prints what it parses and refuses what it cannot run, and one roster
//! per world that passes its own oracle on every host — the simulator, rt
//! threaded, rt `sharded:2` and a UDS split (a hub plus two worker
//! runtimes). The oracle replays each run's committed schedule on the
//! pessimistic simulator, and it has teeth: a consumer log with two
//! receives swapped, or one receive duplicated, fails it.

use opcsp_core::CoreConfig;
use opcsp_rt::{Executor, RtConfig, RtWorld, SockAddr};
use opcsp_sim::Observable;
use opcsp_workloads::catalog::{Spec, Split, MAX_PROCESSES, WORLDS};
use proptest::prelude::*;
use std::time::Duration;

/// Every world at smoke size.
const SMOKE: [&str; 6] = [
    "stream:n=8",
    "chain:depth=2,n=4",
    "pairs:pairs=4,n=4",
    "fan_in:producers=3,n=3",
    "tally:n=40,faults=100",
    "kv:replicas=2,clients=2,ops=4",
];

/// A world's keys, read off its printed default.
fn keys(world: &str) -> Vec<String> {
    let printed = Spec::parse(world).expect("a bare name parses").to_string();
    let body = printed.split_once(':').map_or("", |(_, b)| b);
    body.split(',')
        .map(|kv| kv.split_once('=').expect("key=value").0.to_string())
        .collect()
}

#[test]
fn every_world_prints_what_it_parses() {
    for world in WORLDS {
        let default = Spec::parse(world).unwrap();
        assert_eq!(Spec::parse(&default.to_string()), Ok(default.clone()));
        assert_eq!(Spec::parse(&format!("{world}:")), Ok(default.clone()));
        // Every key moved off its default, one at a time.
        for key in keys(world) {
            let spec = Spec::parse(&format!("{world}:{key}=7")).unwrap();
            assert_ne!(spec, default, "{world}:{key}=7");
            assert_eq!(Spec::parse(&spec.to_string()), Ok(spec), "{world}:{key}");
        }
    }
    for text in SMOKE {
        let spec = Spec::parse(text).unwrap();
        assert_eq!(Spec::parse(&spec.to_string()), Ok(spec), "{text}");
    }
}

#[test]
fn oversized_and_malformed_specs_are_errors_naming_the_key() {
    for (text, named) in [
        ("kv:clients=65536,ops=65536", "clients and ops"),
        ("kv:replicas=4294967295", "clients and replicas"),
        ("fan_in:producers=100000", "producers"),
        ("pairs:pairs=50001", "pairs"),
        ("chain:depth=99999", "depth"),
        ("kv:ops=0", "ops"),
        ("stream:n=0", "n"),
        ("tally:faults=1001", "faults"),
        ("kv:zipf=NaN", "zipf"),
        ("kv:zipf=-1", "zipf"),
        ("kv:keys=4294967295", "keys"),
        ("kv:gap=-1", "gap"),
        ("kv:gap=18446744073709551615", "ops and gap"),
        ("kv:clients=50000,replicas=49999", "clients and replicas"),
        ("kv:bogus=1", "bogus"),
        ("stream:n", "`n`"),
        ("ring:n=3", "ring"),
    ] {
        let e = Spec::parse(text).expect_err(text);
        assert!(e.contains(named), "{text}: {e}");
    }
    // The widest worlds the bound admits still parse.
    assert!(Spec::parse(&format!("fan_in:producers={}", MAX_PROCESSES - 1)).is_ok());
    assert!(Spec::parse("stream:n=4294967295").is_ok());
}

/// Number text of every shape: unsigned, signed, and floats from any bit
/// pattern (NaN and the infinities included) or in exponent form.
fn number(kind: u8, bits: u64, int: i64) -> String {
    match kind % 4 {
        0 => bits.to_string(),
        1 => int.to_string(),
        2 => f64::from_bits(bits).to_string(),
        _ => format!("{int}.{}e{}", bits % 1000, int % 400),
    }
}

proptest! {
    #[test]
    fn parse_never_panics_on_any_text(text in "[a-z_:=,.0-9eE+\\-]{0,40}") {
        if let Ok(spec) = Spec::parse(&text) {
            prop_assert_eq!(Spec::parse(&spec.to_string()), Ok(spec));
        }
    }

    #[test]
    fn parse_never_panics_on_any_number_for_any_key(
        world in 0usize..6,
        key in 0usize..7,
        kind in 0u8..4,
        bits in any::<u64>(),
        int in any::<i64>(),
    ) {
        let world = WORLDS[world];
        let keys = keys(world);
        let text = format!("{world}:{}={}", keys[key % keys.len()], number(kind, bits, int));
        if let Ok(spec) = Spec::parse(&text) {
            prop_assert_eq!(Spec::parse(&spec.to_string()), Ok(spec));
        }
    }
}

fn rt_config(core: CoreConfig, executor: Executor) -> RtConfig {
    RtConfig {
        core,
        latency: Duration::from_millis(1),
        fork_timeout: Duration::from_secs(5),
        run_timeout: Duration::from_secs(30),
        executor,
        ..RtConfig::default()
    }
}

/// Every world at smoke size on every host, each run held to the spec's
/// oracle: its committed schedule replayed on the pessimistic simulator.
#[test]
fn every_world_passes_its_oracle_on_every_host() {
    for text in SMOKE {
        let spec = Spec::parse(text).unwrap();
        let verdict = |host: &str, v: Result<String, String>| {
            v.unwrap_or_else(|e| panic!("{text} on {host}: {e}"));
        };

        verdict("sim", spec.check(&spec.simulate()));

        for (host, executor) in [
            ("rt threaded", Executor::Threaded),
            ("rt sharded:2", Executor::Sharded { workers: 2 }),
        ] {
            let run = spec
                .on(RtWorld::new(rt_config(CoreConfig::default(), executor)))
                .run();
            verdict(host, spec.check(&run));
        }

        let path = std::env::temp_dir().join(format!(
            "opcsp-catalog-{}-{}.sock",
            std::process::id(),
            spec.name()
        ));
        let addr = SockAddr::parse(&format!("uds:{}", path.display())).unwrap();
        let cfg = rt_config(CoreConfig::default(), Executor::Threaded);
        let (hub, worker_failure) = spec.on(Split::new(&cfg, addr, 2)).run();
        assert_eq!(worker_failure, None, "{text}");
        verdict("uds x2", spec.check(&hub));
    }
}

/// The oracle's teeth. An rt run of a fan-in, then two forged copies of
/// its consumer's log: two adjacent committed receives from different
/// senders swapped (its sends left where they are), and one committed
/// receive duplicated (what a dedup failure under chaos would leave).
/// Per-link FIFO order and every send are intact in the first, so a
/// merge-order comparison accepts it; no sequential execution produces
/// either, so the replay rejects both.
#[test]
fn the_oracle_rejects_a_swapped_or_duplicated_receive() {
    let spec = Spec::parse("fan_in:producers=3,n=3").unwrap();
    let mut run = spec
        .on(RtWorld::new(rt_config(CoreConfig::default(), Executor::Threaded)))
        .run();
    spec.check(&run).expect("the genuine run passes");
    let Spec::FanIn(o) = &spec else {
        unreachable!()
    };
    let consumer = opcsp_workloads::fan_in::consumer(o);
    let genuine = run.logs[&consumer].clone();
    let receives: Vec<(usize, _)> = genuine
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match o {
            Observable::Received { from, .. } => Some((i, *from)),
            _ => None,
        })
        .collect();
    let (a, b) = receives
        .windows(2)
        .find(|w| w[0].1 != w[1].1)
        .map(|w| (w[0].0, w[1].0))
        .expect("three producers interleave somewhere");

    let mut swapped = genuine.clone();
    swapped.swap(a, b);
    assert!(
        opcsp_rt::merge_equiv(&genuine, &swapped),
        "the swap keeps every per-link projection"
    );
    run.logs.insert(consumer, swapped);
    let e = spec.check(&run).expect_err("swapped receives");
    assert!(e.contains("no sequential execution"), "{e}");

    let mut duplicated = genuine.clone();
    duplicated.insert(a + 1, genuine[a].clone());
    run.logs.insert(consumer, duplicated);
    let e = spec.check(&run).expect_err("duplicated receive");
    assert!(e.contains("no sequential execution"), "{e}");
}

/// The teeth on the released outputs: they travel apart from the logs,
/// so an output released twice leaves every log intact, and only the
/// per-process comparison of the externals sees it.
#[test]
fn the_oracle_rejects_an_output_released_twice() {
    let spec = Spec::parse("kv:replicas=2,clients=2,ops=4").unwrap();
    let mut run = spec
        .on(RtWorld::new(rt_config(CoreConfig::default(), Executor::Threaded)))
        .run();
    spec.check(&run).expect("the genuine run passes");
    let last = run.external.last().cloned().expect("the replicas release");
    run.external.push(last);
    let e = spec.check(&run).expect_err("an output released twice");
    assert!(e.contains("no sequential execution") && e.contains("release #"), "{e}");
}
