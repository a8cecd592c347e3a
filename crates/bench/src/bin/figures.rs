//! Regenerate the paper's figures and the experiment tables.
//!
//! Usage:
//!   figures                         — everything
//!   figures fig3 e1 t1              — selected items
//!   figures --json e14              — JSON to stdout instead of markdown
//!   figures --artifact-dir out e14  — also write machine-readable
//!                                     `BENCH_*.json` files for the
//!                                     perf-tracking tables (e11/e12/e14)
//!
//! Items: fig1..fig7, e1, e2, e3, e4, e5, e6, e8, e12, e13, e14, e15,
//! chain, t1, lifecycle (overall + per-site), scaling.

use opcsp_bench::experiments as ex;

type FigureFn = fn() -> String;
type TableFn = fn() -> opcsp_bench::Table;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let artifact_dir = args
        .iter()
        .position(|a| a == "--artifact-dir")
        .map(|i| {
            if i + 1 >= args.len() {
                eprintln!("--artifact-dir requires a directory argument");
                std::process::exit(2);
            }
            let dir = args[i + 1].clone();
            args.drain(i..=i + 1);
            dir
        });
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    let figures: &[(&str, FigureFn)] = &[
        ("fig1", ex::fig1),
        ("fig2", ex::fig2),
        ("fig3", ex::fig3),
        ("fig4", ex::fig4),
        ("fig5", ex::fig5),
        ("fig6", ex::fig6),
        ("fig7", ex::fig7),
    ];
    for (name, f) in figures {
        if want(name) {
            println!("{}", f());
        }
    }
    let tables: &[(&str, TableFn)] = &[
        ("e1", ex::e1_latency_sweep),
        ("e2", ex::e2_n_sweep),
        ("e3", ex::e3_abort_sweep),
        ("e4", ex::e4_retry_limit),
        ("e5", ex::e5_delivery_ablation),
        ("e6", ex::e6_timewarp),
        ("e8", ex::e8_guard_compaction),
        ("chain", ex::chain_depth),
        ("t1", ex::t1_equivalence),
        ("lifecycle", ex::lifecycle_stats),
        ("lifecycle", ex::lifecycle_site_stats),
        // Wall-clock on a 2-core box: ahead of the tables that leave a large
        // heap behind (after E14 the same runs take 1.4x as long).
        ("e15", ex::e15_stream_depth),
        ("e12", ex::e12_contention_sweep),
        ("e13", ex::e13_explore),
        ("e14", ex::e14_replicated_kv),
        ("scaling", ex::scaling),
    ];
    // The perf-trajectory tables tracked as per-PR artifacts. `scaling`
    // is E11 in DESIGN.md's index, hence the artifact name.
    let artifact_name = |item: &str| match item {
        "scaling" => Some("BENCH_E11.json"),
        "e12" => Some("BENCH_E12.json"),
        "e14" => Some("BENCH_E14.json"),
        _ => None,
    };
    for (name, f) in tables {
        if want(name) {
            let t = f();
            if json {
                println!("{}", t.to_json());
            } else {
                println!("{t}");
            }
            if let (Some(dir), Some(file)) = (&artifact_dir, artifact_name(name)) {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("--artifact-dir {dir}: {e}");
                    std::process::exit(1);
                }
                let path = std::path::Path::new(dir).join(file);
                if let Err(e) = std::fs::write(&path, t.to_json()) {
                    eprintln!("write {}: {e}", path.display());
                    std::process::exit(1);
                }
                eprintln!("wrote {}", path.display());
            }
        }
    }
}
