//! CLI argument handling for `opcsp-run`, exercised end to end against
//! the built binary: the `--speculation` grammar and the error paths.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_opcsp-run"))
        .args(args)
        .output()
        .expect("spawn opcsp-run")
}

fn putline() -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    format!("{root}/../../examples/csp/putline.csp")
}

fn ordered_board() -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    format!("{root}/../../tests/fixtures/ordered_board.csp")
}

#[test]
fn bad_speculation_specs_are_rejected_with_a_parse_error() {
    for bad in [
        "static",
        "static:banana",
        "adaptive:target=1.5",
        "adaptive:alpha=0",
        "adaptive:min=9,max=2",
        "optimistic",
        "adaptive:unknown=1",
        "adaptive:max=8",
    ] {
        let out = run(&[&putline(), "--speculation", bad]);
        assert!(
            !out.status.success(),
            "spec {bad:?} must be rejected (status {:?})",
            out.status
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--speculation"),
            "spec {bad:?}: stderr should name the flag: {err}"
        );
        // The controller's tuning is constants, not a CLI grammar.
        if bad.starts_with("adaptive:") {
            assert!(err.contains("adaptive takes no arguments"), "{err}");
        }
    }
}

#[test]
fn missing_speculation_value_is_rejected() {
    let out = run(&[&putline(), "--speculation"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--speculation needs a policy"), "{err}");
}

#[test]
fn valid_speculation_specs_run_the_program() {
    for good in ["pessimistic", "static:2", "adaptive"] {
        let out = run(&[&putline(), "--speculation", good, "--latency", "5"]);
        assert!(
            out.status.success(),
            "spec {good:?} should run: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_options_are_rejected() {
    // `--retry-limit L` is spelled `--speculation static:L`.
    for flag in ["--retry-limit", "--bogus"] {
        let out = run(&[&putline(), flag, "2"]);
        assert!(!out.status.success(), "{flag} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option {flag}")), "{err}");
    }
}

#[test]
fn ineffective_flag_combos_are_parse_errors_naming_the_supported_path() {
    // These combinations used to be accepted with the extra flag silently
    // ignored (--forensics --rt being the reported one). Each must now
    // fail fast and point at a combination that works.
    for (args, expect) in [
        (vec!["--forensics"], "--compare or --explore"),
        (vec!["--forensics", "--rt"], "--compare or --explore"),
        (vec!["--forensics", "--pessimistic"], "--compare or --explore"),
        (vec!["--depth", "3"], "--explore"),
        (vec!["--budget", "10"], "--explore"),
        (vec!["--inject-phantom", "--rt"], "simulator fault"),
        (vec!["--inject-lifo", "--rt"], "simulator fault"),
        (vec!["--inject-phantom", "--pessimistic"], "never speculates"),
        (vec!["--explore", "--rt"], "simulator"),
        (vec!["--explore", "--compare"], "subsumes --compare"),
        (vec!["--explore", "--pessimistic"], "pessimistic reference"),
    ] {
        let mut full = vec![putline()];
        full.extend(args.iter().map(|s| s.to_string()));
        let full: Vec<&str> = full.iter().map(String::as_str).collect();
        let out = run(&full);
        assert!(
            !out.status.success(),
            "{args:?} must be rejected (status {:?})",
            out.status
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(expect),
            "{args:?}: stderr should name the supported path ({expect:?}): {err}"
        );
    }
}

#[test]
fn oversized_builtin_specs_are_parse_errors_naming_the_keys() {
    // The op total and the first gap used to overflow (a panic, exit 101),
    // and a 4-billion-replica world used to start building.
    for (spec, keys) in [
        ("kv:clients=65536,ops=65536", "clients and ops"),
        ("kv:replicas=4294967295", "clients and replicas"),
        ("kv:gap=18446744073709551615", "ops and gap"),
    ] {
        let out = run(&[spec]);
        assert_eq!(out.status.code(), Some(1), "{spec}: {:?}", out.status);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(keys),
            "{spec}: stderr should name {keys:?}: {err}"
        );
    }
}

#[test]
fn explore_is_green_on_a_clean_world_and_exits_2_on_a_phantom() {
    let ok = run(&[&putline(), "--explore", "--latency", "5"]);
    assert!(
        ok.status.success(),
        "clean world must explore green: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(stdout.contains("explore:"), "reduction stats missing: {stdout}");
    assert!(stdout.contains("Theorem 1"), "verdict missing: {stdout}");

    // The teeth fixture: clean under the default schedule, so only
    // exploration reaches the violating order.
    let bad = run(&[&ordered_board(), "--explore", "--inject-phantom", "--forensics"]);
    assert_eq!(
        bad.status.code(),
        Some(2),
        "phantom must exit 2: {}",
        String::from_utf8_lossy(&bad.stderr)
    );
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(
        err.contains("minimal forcing script"),
        "shrunk script missing: {err}"
    );
    assert!(
        err.contains("divergence forensics"),
        "forensics report missing: {err}"
    );
}
