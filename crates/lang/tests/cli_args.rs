//! CLI argument handling for `opcsp-run`, exercised end to end against
//! the built binary: the `--speculation` grammar, the error paths and the
//! exit code of the one oracle every run is held to.

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
    // fail fast: a flag the world or engine has no data for is refused by
    // one rule, in one shape.
    let rt = "has no data on an rt run";
    for (args, expect) in [
        (vec!["--forensics", "--rt"], rt),
        (vec!["--timeline", "--rt"], rt),
        (vec!["--inject-phantom", "--rt"], rt),
        (vec!["--inject-lifo", "--rt"], rt),
        (
            vec!["--inject-phantom", "--pessimistic"],
            "never speculates",
        ),
        (vec!["--depth", "3"], "--explore"),
        (vec!["--budget", "10"], "--explore"),
        (vec!["--explore", "--rt"], "simulator"),
        (vec!["--explore", "--pessimistic"], "pessimistic reference"),
        (vec!["--compare"], "--compare is gone"),
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
    for args in [
        &["stream:n=4", "--show-transform"][..],
        &["stream:n=4", "--rt", "--timeline"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("has no data on"), "{args:?}: {err}");
    }
}

/// Every run is held to Theorem 1 with no flag asked for: a phantom log
/// (an observable the rollback failed to truncate) exits 2 on a `.csp`
/// program and on a catalogue world alike. (`tally` rolls back; `stream`
/// rejects no line, so a phantom there has nothing to leave behind.)
#[test]
fn a_phantom_exits_2_on_every_world() {
    for world in [putline().as_str(), "tally:n=60,faults=50"] {
        let out = run(&[world, "--inject-phantom"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{world}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("no sequential execution reproduces"), "{err}");
        let ok = run(&[world]);
        assert!(ok.status.success(), "{world} without the fault must pass");
    }
}

/// A reader that closes the pipe after one line (`opcsp-run … | head -1`)
/// is a quiet end, not a panic: the exit code is still the verdict's. The
/// time-line is longer than a pipe buffer, so the runner is still writing
/// when the pipe closes.
#[test]
fn a_closed_stdout_is_a_quiet_end() {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_opcsp-run"))
        .args(["stream:n=200", "--timeline"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn opcsp-run");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(!first.is_empty());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
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
