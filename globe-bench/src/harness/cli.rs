//! Command line: `globe-bench [--workload NAME] [--seed N] [--seconds S]
//! [--trace 0|1] [--tiny] [--out PATH]` and `globe-bench --compare A B`.

use std::path::PathBuf;
use std::process::ExitCode;

use super::compare;
use super::report::{self, RunResult};
use super::spec::{self, MetricDef};
use super::workloads::Scale;

const USAGE: &str = "\
usage: globe-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--out PATH]
       globe-bench --compare A.jsonl B.jsonl

  --workload NAME   one of the five workloads (default: all, in order)
  --seed N          seeds the load generator only (default 1)
  --seconds S       keep starting fresh-runtime repeats for S seconds, at
                    least three; metrics are medians over repeats (default 20)
  --trace 0|1       0: end-to-end metrics, recorder off (default)
                    1: per-layer metrics - a traced repeat plus isolated probes
  --tiny            self-test scale: a few hundred operations, one repeat
  --out PATH        also append each run, machine-tagged, to PATH (JSON Lines)
  --compare A B     compare two --out files metric by metric; exits 1 on a
                    regression or a higher share of failed operations";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        tiny: false,
        out: None,
        compare: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !spec::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; the workloads are {}",
                        spec::WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 600".to_string());
                }
                args.seconds = seconds;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--tiny" => args.tiny = true,
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                let a = PathBuf::from(value("two paths")?);
                let b = PathBuf::from(it.next().ok_or("--compare needs two paths")?);
                args.compare = Some((a, b));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn print_table(workload: &str, result: &RunResult, defs: &[MetricDef]) {
    println!("# {workload}: medians over {} repeat(s)", result.repeats);
    for def in defs {
        match result.metrics.get(def.name) {
            Some(value) => println!("{:<34} {:>16.4} {}", def.name, value, def.unit),
            None => {
                let why = result
                    .absent
                    .iter()
                    .find(|(name, _)| *name == def.name)
                    .map_or("not measured", |(_, why)| why);
                println!("{:<34} {:>16} ({why})", def.name, "absent");
            }
        }
    }
}

/// Runs the command line; the process exit code is the return value.
pub fn main(argv: Vec<String>) -> ExitCode {
    let args = match parse(argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("globe-bench: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare(a, b) {
            Ok((table, regressed)) => {
                print!("{table}");
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(msg) => {
                eprintln!("globe-bench: {msg}");
                ExitCode::from(2)
            }
        };
    }

    let scale = if args.tiny {
        Scale::tiny()
    } else {
        Scale::full()
    };
    let defs = if args.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let workloads: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => spec::WORKLOADS.to_vec(),
    };
    for workload in workloads {
        let run = if args.trace {
            report::per_layer(workload, &scale, args.seed)
        } else {
            report::end_to_end(workload, &scale, args.seed, args.seconds)
        };
        let result = match run {
            Ok(result) => result,
            Err(msg) => {
                // A failed check fails the command, with no result line.
                eprintln!("globe-bench: {workload}: {msg}");
                return ExitCode::FAILURE;
            }
        };
        print_table(workload, &result, defs);
        if let Some(path) = &args.out {
            if let Err(e) =
                report::append(path, workload, args.seed, args.trace, &scale, &result, defs)
            {
                eprintln!("globe-bench: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!("{}", result.to_json(defs));
    }
    ExitCode::SUCCESS
}
