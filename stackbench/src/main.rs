//! `stack`: the repository's benchmark. One process measures one workload
//! of the GANC serving stack from outside — by timing calls into public
//! functions — verifies every served list against an in-run reference, and
//! prints every metric by name. See `README.md` beside `Cargo.toml`.

mod affinity;
mod check;
mod gen;
mod ladder;
mod report;
mod round;
mod run;
mod spans;
mod stacks;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage: stack --workload <embed_miss|http_hot|router_mixed|offline_psvd> \
[--seed <u64>] [--seconds <s>] [--trace <0|1>] [--spans <file>] [--out <file>] \
[--smoke] [--check] [--wrong-reference] | stack --describe";

/// `--seed` when none is given (the seed the repository's other benches
/// generate their dataset with).
const DEFAULT_SEED: u64 = 18;
/// `--seconds` when none is given; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = report::RUN_SECONDS as f64;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<PathBuf>,
    pub out: Option<PathBuf>,
    pub smoke: bool,
    pub check: bool,
    pub wrong_reference: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans: None,
        out: None,
        smoke: false,
        check: false,
        wrong_reference: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--wrong-reference" => args.wrong_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Run one workload in this process and print its result. Returns whether
/// every answer was correct.
fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    if let (true, Some(out)) = (args.smoke, &args.out) {
        report::refuse_smoke_overwrite(out)?;
    }
    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        wrong_reference: args.wrong_reference,
    };
    let result = if args.trace {
        ladder::run(&opts, args.spans.as_deref())?
    } else {
        run::run(&opts)?
    };
    if let Some(out) = &args.out {
        result.write(out)?;
    }
    result.print();
    Ok(result.correct())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--describe") {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| match args.workload {
        Some(workload) if args.check => check::run(&args, workload),
        Some(workload) => run_one(&args, workload),
        // The smoke suite: every workload, one after the other.
        None if args.smoke && !args.check && args.out.is_none() => {
            let mut all = true;
            for workload in Workload::ALL {
                all &= run_one(&args, workload)?;
            }
            Ok(all)
        }
        None => Err(USAGE.to_string()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("stack: {message}");
            ExitCode::from(2)
        }
    }
}
