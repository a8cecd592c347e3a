//! The whole-suite commands: `all` (every workload, each in a fresh child
//! process, into `benchmark/out/results.json`), `compare` (two result
//! sets held to the catalogue's bounds) and `describe` (the catalogue as
//! `BENCHMARK.json`).

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, Reading, END_TO_END, PER_LAYER};
use crate::run::{spawn_self, OUT_DIR};
use crate::worlds::workloads;

/// How long one `BENCHMARK.json` run measures.
pub const RUN_SECONDS: u32 = 15;

/// Why each workload exists, one line each (`BENCHMARK.json`'s `why`).
fn why(name: &str) -> &'static str {
    match name {
        "kv_sim" => "flagship commit path, 0 aborts: store-sized checkpoint clones, growing guards; checkpoint, guard and history work must show here",
        "tally_sim_faults" => "the sim layers used the other way: abort cascade, rollback, re-fork on tiny state; an abort-path change moves it, a clone speed-up must not",
        "stream_rt" => "the paper's call streaming in wall-clock: deep pipeline, 0 aborts; rt::core_poll, rt::net reliable layer, Delayer",
        "kv_rt" => "flagship under real contention; one worker and zero latency make the abort storm repeat exactly: the pure cost of speculation",
        "pairs_rt" => "many processes, almost no work each: run-queue, per-process fixed cost, control broadcast to every process, memory",
        "stream_sock" => "stream_rt's world split over a socket: adds only core::wire frames and two rt::sock hub hops",
        other => unreachable!("workload `{other}` has no rationale"),
    }
}

/// `BENCHMARK.json`, from the catalogue.
pub fn describe() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads(false)
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(w.name)),
                            ("why", Json::str(format!("{}: {}", w.size(), why(w.name)))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub struct AllArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Where the result set goes.
    pub out: String,
}

/// Run one invocation in a fresh child of this executable and parse its
/// result line.
fn child(workload: &str, args: &AllArgs, trace: bool) -> Result<Json, String> {
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let mut argv = vec!["--workload", workload, "--detail", "--seed", &seed];
    argv.extend([
        "--seconds",
        &seconds,
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.smoke {
        argv.extend(["--scale", "smoke"]);
    }
    spawn_self(&argv)
}

/// Every workload, untraced then traced, each in its own process. Prints
/// every metric by name with its unit and writes the result set. Returns
/// whether every run was correct.
pub fn all(args: &AllArgs) -> Result<bool, String> {
    let mut correct = true;
    let mut results = Vec::new();
    for w in workloads(args.smoke) {
        let e2e = child(w.name, args, false)?;
        let layers = child(w.name, args, true)?;
        let count = |k: &str| {
            e2e.get(k).and_then(Json::as_f64).unwrap_or(0.0)
                + layers.get(k).and_then(Json::as_f64).unwrap_or(0.0)
        };
        let ok = [&e2e, &layers]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        correct &= ok;
        println!("== {} ({})", w.name, w.size());
        for (section, doc) in [("end_to_end", &e2e), ("per_layer", &layers)] {
            for (name, v) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let r = Reading::from_json(v).ok_or(format!("{name}: not a reading"))?;
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                let spread = if r.n > 1 {
                    format!("  [{:.6} .. {:.6}, n={}]", r.min, r.max, r.n)
                } else {
                    String::new()
                };
                println!(
                    "  {section:<10} {name:<40} {:>16.6} {unit}{spread}",
                    r.value
                );
            }
        }
        println!(
            "  failed_ops_share {} / {} {}",
            count("failed"),
            count("attempted"),
            if ok { "" } else { "<-- FAILED" }
        );
        results.push((
            w.name,
            Json::obj([
                ("correct", Json::Bool(ok)),
                ("attempted", Json::num(count("attempted"))),
                ("failed", Json::num(count("failed"))),
                (
                    "end_to_end",
                    e2e.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    layers.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        (
            "scale",
            Json::str(if args.smoke { "smoke" } else { "full" }),
        ),
        (
            "nproc",
            Json::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", Json::obj(results)),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(&args.out, doc.pretty()).map_err(|e| format!("{}: {e}", args.out))?;
    println!("wrote {}", args.out);
    Ok(correct)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regression,
    /// The reps' spread is wider than the bound: the data cannot tell.
    Unresolved,
}

/// Hold `new` to `base` under `bound`. Where either side's quartile spread
/// across its reps is wider than the bound the pair is unresolved, unless
/// every rep of `new` reads better than every rep of `base`.
pub fn judge(m: &EndToEnd, base: Reading, new: Reading) -> Verdict {
    if base.spread().max(new.spread()) > m.bound {
        let all_better = match m.better {
            Better::Higher => new.min > base.max,
            Better::Lower => new.max < base.min,
        };
        return if all_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    if m.better.worsening(base.value, new.value) <= m.bound {
        Verdict::Pass
    } else {
        Verdict::Regression
    }
}

/// Print, per (workload, end-to-end metric), both medians, the relative
/// difference, the bound and the verdict. Returns whether nothing
/// regressed and nothing failed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut clean = true;
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (workload, wa) in a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or(format!("{a_path}: no workloads"))?
    {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<18} missing from {b_path}");
            clean = false;
            continue;
        };
        for m in END_TO_END {
            let reading = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Reading::from_json)
            };
            let (Some(ra), Some(rb)) = (reading(wa), reading(wb)) else {
                println!("{workload:<18} {:<24} missing", m.name);
                clean = false;
                continue;
            };
            let verdict = judge(m, ra, rb);
            clean &= verdict != Verdict::Regression;
            println!(
                "{workload:<18} {:<24} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
                m.name,
                ra.value,
                rb.value,
                m.better.worsening(ra.value, rb.value) * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
        for (side, w) in [(a_path, wa), (b_path, wb)] {
            let failed = w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let attempted = w.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            if failed > 0.0 {
                println!(
                    "{workload:<18} failed_ops_share {failed} / {attempted} in {side}: FAILED"
                );
                clean = false;
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_per_s() -> &'static EndToEnd {
        &END_TO_END[0]
    }

    #[test]
    fn judge_applies_the_bound_in_the_metric_s_direction() {
        let m = ops_per_s();
        assert_eq!((m.name, m.bound), ("committed_ops_per_s", 0.25));
        let base = Reading::median_of(&[99.0, 100.0, 101.0]);
        let near = Reading::median_of(&[79.0, 80.0, 81.0]);
        let far = Reading::median_of(&[69.0, 70.0, 71.0]);
        assert_eq!(judge(m, base, near), Verdict::Pass);
        assert_eq!(judge(m, base, far), Verdict::Regression);
        assert_eq!(judge(m, far, base), Verdict::Pass);
    }

    #[test]
    fn judge_is_unresolved_when_the_reps_spread_wider_than_the_bound() {
        let m = ops_per_s();
        let noisy = Reading::median_of(&[60.0, 100.0, 140.0]);
        let worse = Reading::median_of(&[69.0, 70.0, 71.0]);
        assert_eq!(judge(m, noisy, worse), Verdict::Unresolved);
        // ... unless every rep of the change beats every rep of the parent.
        let better = Reading::median_of(&[150.0, 151.0, 152.0]);
        assert_eq!(judge(m, noisy, better), Verdict::Pass);
    }

    #[test]
    fn every_workload_has_a_rationale_that_fits_the_contract() {
        for w in describe()
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
        {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200, "{} chars: {why}", why.len());
        }
    }
}
