//! Command line of the WideLeak benchmark.
//!
//! ```text
//! wideleak-benchmark --workload <play|stream|attack|campaign> --seed <n> \
//!     [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Prints one `label`/`metric` line per value with its unit, then the
//! result as one JSON object on the last line. Exits 1 when any
//! operation failed its check, 2 on a usage or set-up error (no result
//! printed).

use std::process::ExitCode;

use wideleak_benchmark::{run, RunConfig, WorkloadKind};

const USAGE: &str = "usage: wideleak-benchmark --workload <play|stream|attack|campaign> \
                     --seed <n> [--seconds <n>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadKind::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("outside (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = cfg.workload.name();
    println!(
        "# wideleak benchmark: workload={workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    for line in report.lines(workload) {
        println!("{line}");
    }
    match report.json() {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("benchmark {workload}: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cfg = parse(&args("--workload attack --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(cfg.workload, WorkloadKind::Attack);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 20.0, true));
        let cfg = parse(&args("--seed 1 --workload play")).unwrap();
        assert_eq!((cfg.seconds, cfg.trace), (10.0, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for line in [
            "--seed 1",
            "--workload play",
            "--workload replay --seed 1",
            "--workload play --seed -1",
            "--workload play --seed 1 --trace 2",
            "--workload play --seed 1 --seconds 0",
            "--workload play --seed 1 --verbose",
            "--workload play --seed",
        ] {
            assert!(parse(&args(line)).is_err(), "{line}");
        }
    }
}
