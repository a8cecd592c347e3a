//! True multi-process socket runs of `opcsp-run --rt --listen` (DESIGN.md
//! §13): the parent binds a Unix-domain (or TCP) socket, re-spawns itself
//! as worker processes, and the merged committed logs must pass Theorem 1
//! — their committed schedule replayed on the pessimistic simulator, as on
//! every run — with chaos injected on the socket path. This is the one
//! test layer where frames genuinely cross
//! OS process boundaries (the rt-crate tests in
//! `crates/rt/tests/rt_sock.rs` run parent and workers as threads).

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_opcsp-run"))
        .args(args)
        .output()
        .expect("spawn opcsp-run")
}

fn example(name: &str) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    format!("{root}/../../examples/csp/{name}.csp")
}

fn fresh_uds(tag: &str) -> String {
    let p = std::env::temp_dir().join(format!("opcsp-cli-sock-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    format!("uds:{}", p.display())
}

/// `--listen` with chaos: spawned worker processes host the
/// world, and the socket run must replay on the pessimistic simulator
/// (exit 2 would mean a divergence — an engine bug).
#[test]
fn multi_process_uds_chaos_differential_holds() {
    let addr = fresh_uds("putline");
    let out = run(&[
        &example("putline"),
        "--rt",
        "--latency",
        "2",
        "--chaos",
        "drop=0.15,dup=0.1,reorder=3,seed=7",
        "--listen",
        &addr,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "multi-process run failed ({:?})\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("Theorem 1:"),
        "expected the Theorem-1 verdict:\n{stdout}"
    );
    assert!(
        stdout.contains("✓"),
        "expected a passing differential:\n{stdout}"
    );
}

/// A fan-in over three worker processes, each hosting its share on a
/// two-thread pool (`--workers` is forwarded to the re-spawned workers):
/// cross-sender merge order may legally differ from the simulator's
/// same-seed reference, but the committed schedule must still replay.
#[test]
fn multi_process_three_workers_fan_in_holds() {
    let addr = fresh_uds("fanin");
    let out = run(&[
        &example("fan_in"),
        "--rt",
        "--latency",
        "2",
        "--chaos",
        "drop=0.1,dup=0.1,seed=3",
        "--listen",
        &addr,
        "--sock-workers",
        "3",
        "--workers",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "3-worker fan-in run failed ({:?})\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("Theorem 1:"),
        "expected the Theorem-1 verdict:\n{stdout}"
    );
}

/// A plain `--listen` run merges the workers' outputs into the parent's
/// summary.
#[test]
fn multi_process_plain_run_reports_outputs() {
    let addr = fresh_uds("plain");
    let out = run(&[
        &example("putline"),
        "--rt",
        "--latency",
        "2",
        "--listen",
        &addr,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "plain --listen run failed ({:?})\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("outputs:"),
        "worker-hosted outputs should reach the parent summary:\n{stdout}"
    );
}

#[test]
fn socket_flags_are_validated() {
    let file = example("putline");
    // (args, expected stderr fragment)
    let cases: &[(&[&str], &str)] = &[
        (&[&file, "--listen", "uds:/tmp/x.sock"], "--rt"),
        (
            &[&file, "--rt", "--listen", "uds:/tmp/x.sock", "--connect", "uds:/tmp/x.sock"],
            "mutually exclusive",
        ),
        (
            &[&file, "--rt", "--connect", "uds:/tmp/x.sock"],
            "--sock-worker",
        ),
        (&[&file, "--rt", "--sock-worker", "0"], "--connect"),
        (
            &[&file, "--rt", "--connect", "uds:/tmp/x.sock", "--sock-worker", "5"],
            "out of range",
        ),
        (&[&file, "--rt", "--listen", "uds:/tmp/x.sock", "--sock-workers", "0"], ">= 1"),
    ];
    for (args, frag) in cases {
        let out = run(args);
        assert!(
            !out.status.success(),
            "{args:?} must be rejected (status {:?})",
            out.status
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(frag),
            "{args:?}: stderr should mention {frag:?}:\n{err}"
        );
    }
}
