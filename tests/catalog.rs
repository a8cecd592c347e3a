//! The world catalogue (`opcsp_workloads::catalog`): one grammar that
//! prints what it parses and refuses what it cannot run, and one roster
//! per world that passes its own oracle on every host — the simulator, rt
//! threaded, rt `sharded:2` and a UDS split (a hub plus two worker
//! runtimes) — against its pessimistic twin.

use opcsp_core::CoreConfig;
use opcsp_rt::{Executor, RtConfig, RtWorld, SockAddr};
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
/// oracle against the pessimistic twin on the same engine.
#[test]
fn every_world_passes_its_oracle_on_every_host() {
    for text in SMOKE {
        let spec = Spec::parse(text).unwrap();
        let verdict = |host: &str, v: Result<String, String>| {
            v.unwrap_or_else(|e| panic!("{text} on {host}: {e}"));
        };

        verdict("sim", spec.check(&spec.simulate(), &spec.twin().simulate()));

        let rt = |core, executor| spec.on(RtWorld::new(rt_config(core, executor))).run();
        let rt_twin = rt(CoreConfig::pessimistic(), Executor::Threaded);
        for (host, executor) in [
            ("rt threaded", Executor::Threaded),
            ("rt sharded:2", Executor::Sharded { workers: 2 }),
        ] {
            let run = rt(CoreConfig::default(), executor);
            verdict(host, spec.check(&run, &rt_twin));
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
        verdict("uds x2", spec.check(&hub, &rt_twin));
    }
}
