//! Command line of the repository benchmark (see `README.md` beside
//! `Cargo.toml`). Run from the repository root — `run.sh` does.

use opcsp_benchmark::run::{self, Args, OUT_DIR};
use opcsp_benchmark::suite::{self, AllArgs, RUN_SECONDS};
use std::process::ExitCode;

const USAGE: &str = "usage:
  --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale smoke] [--detail]
      one workload in this process; the last stdout line is the result
  all [--seed <n>] [--seconds <s>] [--scale smoke] [--out <results.json>]
      every workload, each in a fresh child process
  compare <A.json> <B.json>
      two result sets against the end-to-end bounds
  describe
      print BENCHMARK.json from the metric catalogue";

/// `--flag value` pairs after the subcommand; rejects anything else.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<(Flags, Vec<String>), String> {
        let mut pairs = Vec::new();
        let mut on = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                on.push(a.clone());
            } else if a.starts_with("--") {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                pairs.push((a.clone(), v.clone()));
            } else {
                return Err(format!("unexpected argument `{a}`"));
            }
        }
        Ok((Flags(pairs), on))
    }

    fn take<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.0.iter().position(|(k, _)| k == flag) {
            None => Ok(None),
            Some(i) => {
                let (_, v) = self.0.remove(i);
                v.parse()
                    .map(Some)
                    .map_err(|_| format!("{flag}: bad value `{v}`"))
            }
        }
    }

    fn smoke(&mut self) -> Result<bool, String> {
        match self.take::<String>("--scale")?.as_deref() {
            None | Some("full") => Ok(false),
            Some("smoke") => Ok(true),
            Some(other) => Err(format!("--scale: `{other}` is neither full nor smoke")),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some((k, _)) => Err(format!("unknown flag `{k}`")),
        }
    }
}

fn positive_seconds(s: Option<f64>) -> Result<f64, String> {
    match s {
        Some(s) if !(s > 0.0 && s <= 60.0) => Err("--seconds must be in (0, 60]".to_string()),
        Some(s) => Ok(s),
        None => Ok(RUN_SECONDS as f64),
    }
}

fn one_workload(args: &[String]) -> Result<bool, String> {
    let (mut flags, on) = Flags::parse(args, &["--detail", "--rss-rep"])?;
    let on = |switch: &str| on.iter().any(|f| f == switch);
    if on("--rss-rep") {
        // Internal: the child a run spawns to read one rep's peak RSS.
        let workload: String = flags.take("--workload")?.ok_or("--workload is required")?;
        let seed = flags.take("--seed")?.ok_or("--seed is required")?;
        let smoke = flags.smoke()?;
        flags.done()?;
        println!("{}", run::rss_rep(&workload, seed, smoke)?);
        return Ok(true);
    }
    let args = Args {
        workload: flags.take("--workload")?.ok_or("--workload is required")?,
        seed: flags.take("--seed")?.ok_or("--seed is required")?,
        seconds: positive_seconds(flags.take("--seconds")?)?,
        trace: match flags.take::<u8>("--trace")?.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
        },
        smoke: flags.smoke()?,
    };
    flags.done()?;
    let outcome = run::run(&args)?;
    for (name, unit, r) in &outcome.metrics {
        eprintln!("{name:<40} {:>16.6} {unit}", r.value);
    }
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    println!("{}", outcome.to_json(on("--detail")));
    Ok(outcome.correct())
}

fn all(args: &[String]) -> Result<bool, String> {
    let (mut flags, _) = Flags::parse(args, &[])?;
    let smoke = flags.smoke()?;
    let args = AllArgs {
        seed: flags.take("--seed")?.unwrap_or(3),
        seconds: match flags.take("--seconds")? {
            None if smoke => 0.3,
            s => positive_seconds(s)?,
        },
        smoke,
        out: flags
            .take("--out")?
            .unwrap_or(format!("{OUT_DIR}/results.json")),
    };
    flags.done()?;
    suite::all(&args)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(a, b),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("describe") if args.len() == 1 => {
            print!("{}", suite::describe().pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => one_workload(args),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // Ran to the end, but an oracle failed or a metric regressed.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
