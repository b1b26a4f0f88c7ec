//! The command line.
//!
//! ```text
//! benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1 | --traced]
//!               [--scale X] [--out F]
//! benchmark calibrate [--runs N] [--seconds T] [--scale X]
//! benchmark manifest
//! ```
//!
//! `run` with `--workload` is what the driver calls: it ends with one JSON
//! line holding `correct`, `attempted`, `failed` and `metrics`. Without
//! `--workload` it runs all seven, one child process each, and ends with
//! one such line per workload. Either way it exits non-zero if any
//! correctness gate failed.

use crate::calibrate;
use crate::env::Environment;
use crate::metrics::{self, RUN_SECONDS};
use crate::run::{self, Request};
use crate::workloads::{Workload, DEFAULT_SEED};
use std::process::ExitCode;

/// Parsed flags of `run`, `child` and `calibrate`.
#[derive(Debug, Clone, PartialEq)]
pub struct Flags {
    /// `--workload`: one workload, or all when absent.
    pub workload: Option<Workload>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--scale`.
    pub scale: f64,
    /// `--trace 1` or `--traced`.
    pub traced: bool,
    /// `--out`.
    pub out: Option<String>,
    /// `--runs` (calibrate).
    pub runs: usize,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: f64::from(RUN_SECONDS),
            scale: 1.0,
            traced: false,
            out: None,
            runs: 5,
        }
    }
}

/// Parse `--flag value` pairs.
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            flags.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => {
                flags.workload =
                    Some(Workload::from_name(value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => flags.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                flags.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(flags.seconds > 0.0 && flags.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--scale" => {
                flags.scale = value.parse().map_err(|_| bad("a number"))?;
                if !(flags.scale > 0.0 && flags.scale <= 4.0) {
                    return Err(bad("between 0 and 4"));
                }
            }
            "--trace" => {
                flags.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--out" => flags.out = Some(value.clone()),
            "--runs" => {
                flags.runs = value.parse().map_err(|_| bad("a whole number"))?;
                if !(2..=50).contains(&flags.runs) {
                    return Err(bad("between 2 and 50"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

impl Flags {
    /// The request for `workload` under these flags.
    pub fn request(&self, workload: Workload) -> Request {
        Request {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            scale: self.scale,
            traced: self.traced,
        }
    }
}

fn run(flags: &Flags) -> Result<bool, String> {
    let env = Environment::capture(&run::repo_dir());
    println!(
        "environment: nproc {}, loadavg {:.2}, commit {}{}, seed {}",
        env.nproc,
        env.loadavg_1m,
        env.commit,
        if env.dirty { " (dirty)" } else { "" },
        flags.seed
    );
    let workloads = flags
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let mut runs = Vec::new();
    for w in workloads {
        let request = flags.request(w);
        let outcome = run::spawn(&request)?;
        print!("{}", run::render(&request, &outcome));
        runs.push((request, outcome));
    }
    if let Some(path) = &flags.out {
        std::fs::write(path, run::record_json(&env, &runs))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    // The result lines come last: the driver reads the final line.
    for (request, outcome) in &runs {
        println!("{}", run::result_line(request, outcome));
    }
    Ok(runs.iter().all(|(_, o)| o.correct()))
}

/// Entry point of the `benchmark` binary.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: benchmark run|calibrate|manifest [flags]");
        return ExitCode::from(2);
    };
    let outcome = parse_flags(rest).and_then(|flags| match command.as_str() {
        "run" => run(&flags),
        "child" => {
            let workload = flags.workload.ok_or("child needs --workload")?;
            let outcome = run::child(&flags.request(workload));
            print!("{}", run::facts(&outcome));
            Ok(true)
        }
        "calibrate" => calibrate::calibrate(&flags),
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_flags_parse() {
        let f = parse_flags(&args(
            "--workload socket_solo --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.workload, Some(Workload::SocketSolo));
        assert_eq!((f.seed, f.seconds, f.traced), (7, 12.0, true));
        assert!(parse_flags(&args("--traced")).unwrap().traced);
        assert_eq!(parse_flags(&[]).unwrap(), Flags::default());
    }

    #[test]
    fn bad_flags_are_refused_with_the_reason() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--scale 9",
            "--runs 1",
            "--frobnicate 1",
            "--seed",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad}");
        }
    }
}
