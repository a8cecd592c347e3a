//! The whole pipeline on a program written as *source text*: parse,
//! analyze, transform (§2's "transparent program transformation"), pretty
//! -print the compiler's output, then execute under the full protocol —
//! both pessimistically and optimistically — and verify Theorem 1.
//!
//! ```sh
//! cargo run --example interpreter
//! ```

use opcsp_core::{CoreConfig, ProcessId};
use opcsp_lang::{parse_program, program_to_string, System};
use opcsp_sim::{check_equivalence, LatencyModel, SimConfig};

const SOURCE: &str = r#"
    // A client that streams 6 lines to a logging service, then prints a
    // summary. Each call is speculated with `parallelize`.
    process Client {
        let i = 0;
        let go = true;
        while go && i < 6 {
            parallelize guess ok = true {
                ok = call Log(i) : "C";
            } then {
                go = ok;
                i = i + 1;
            }
        }
        output i;
    }

    // The service accepts lines shorter than 100 (here: everything).
    process Log {
        while true {
            receive line;
            compute 2;
            reply line < 100;
        }
    }
"#;

fn main() {
    let program = parse_program(SOURCE).expect("parse");
    let sys = System::compile(&program).expect("transform");

    println!("== Transformation output (fork/join inserted by the pass) ==\n");
    println!("{}", program_to_string(&sys.transformed.program));
    for site in &sys.transformed.sites {
        println!(
            "fork site {} in {}: passed {:?}, copy needed: {}",
            site.site, site.proc, site.passed, site.copy_needed
        );
    }

    let cfg = |optimism| SimConfig {
        core: if optimism {
            CoreConfig::default()
        } else {
            CoreConfig::pessimistic()
        },
        latency: LatencyModel::fixed(80),
        ..SimConfig::default()
    };
    let pess = sys.run(cfg(false));
    let opt = sys.run(cfg(true));

    println!("\n== Optimistic timeline ==\n");
    println!(
        "{}",
        opt.trace.render_timeline(&[ProcessId(0), ProcessId(1)])
    );

    println!(
        "sequential: {} ticks   optimistic: {} ticks   speedup {:.1}x",
        pess.completion,
        opt.completion,
        pess.completion as f64 / opt.completion as f64
    );
    println!(
        "external outputs (released after commit): {:?}",
        opt.external
            .iter()
            .map(|(_, _, v)| v.to_string())
            .collect::<Vec<_>>()
    );
    let rep = check_equivalence(&pess, &opt);
    println!(
        "Theorem 1 equivalence: {}",
        if rep.equivalent { "holds" } else { "VIOLATED" }
    );
}
