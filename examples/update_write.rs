//! The paper's running example end to end: Figures 2 through 5.
//!
//! Process X performs `OK = Update(...)` against the database server Y
//! (which writes through to the filesystem server Z) and then, if OK,
//! calls `Write` on Z directly. The optimistic transformation forks at
//! the S1/S2 boundary, guessing `OK = true`.
//!
//! ```sh
//! cargo run --example update_write
//! ```

use opcsp_core::CoreConfig;
use opcsp_workloads::update_write::{
    fig3_latency, fig4_latency, run_update_write, UpdateWriteOpts, X, Y, Z,
};

fn show(title: &str, r: &opcsp_sim::SimResult) {
    println!("==================================================================");
    println!("{title}\n");
    println!("{}", r.trace.render_timeline(&[X, Y, Z]));
    println!(
        "completion={}  forks={} commits={} value-faults={} time-faults={} rollbacks={} orphans={}\n",
        r.completion,
        r.stats().forks,
        r.stats().commits,
        r.stats().value_faults,
        r.stats().time_faults,
        r.stats().rollbacks,
        r.stats().orphans,
    );
}

fn main() {
    let d = 50;

    // Figure 2: the pessimistic baseline — six strictly serial hops.
    let fig2 = run_update_write(UpdateWriteOpts {
        core: CoreConfig::pessimistic(),
        latency: fig4_latency(d),
        ..UpdateWriteOpts::default()
    });
    show("Figure 2 — no call streaming (sequential execution)", &fig2);

    // Figure 3: successful streaming. The slow X→Z link means the
    // speculative Write arrives after Y's write-through — no conflict.
    let fig3 = run_update_write(UpdateWriteOpts {
        latency: fig3_latency(d),
        ..UpdateWriteOpts::default()
    });
    show("Figure 3 — successful optimistic call streaming", &fig3);
    println!(
        ">>> overlap win: {} vs {} ticks ({:.2}x)\n",
        fig3.completion,
        fig2.completion,
        fig2.completion as f64 / fig3.completion as f64
    );

    // Figure 4: symmetric latency — X's speculative C3 beats Y's C2 to Z.
    // The contaminated replies close the happens-before cycle {x1}→{x1};
    // x1 aborts, Z and Y roll back, and the Write re-executes cleanly.
    let fig4 = run_update_write(UpdateWriteOpts {
        latency: fig4_latency(d),
        ..UpdateWriteOpts::default()
    });
    show(
        "Figure 4 — time fault: C3 races C2 to Z, detected and recovered",
        &fig4,
    );

    // Figure 5: the Update fails — a value fault at the join. The
    // speculative Write at Z is rolled back and never committed.
    let fig5 = run_update_write(UpdateWriteOpts {
        update_succeeds: false,
        latency: fig3_latency(d),
        ..UpdateWriteOpts::default()
    });
    show(
        "Figure 5 — value fault: Update returned false; Write undone",
        &fig5,
    );
}
