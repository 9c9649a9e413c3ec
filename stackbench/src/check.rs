//! `--check`: does the benchmark agree with itself? One workload is run as
//! two sets of three runs (seeds s, s+1, s+2 in both), each run its own OS
//! process; per end-to-end metric the two medians, their gap, the spread
//! inside each set and the bound are printed, and a gap above **half** the
//! bound fails the check. Then two traced runs of seed s must agree
//! bit-for-bit on every exact count.

use crate::ladder::PER_LAYER;
use crate::report::END_TO_END;
use crate::stats::{median, range_share};
use crate::workload::Workload;
use crate::Args;
use std::process::{Command, Stdio};
use tinyjson::Value;

const RUNS_PER_SET: u64 = 3;

/// Run this binary once in a child process; return its result line.
fn child(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("run with seed {seed} failed:\n{stdout}"));
    }
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let v = tinyjson::from_str(last).map_err(|e| format!("result line: {e}"))?;
    if v["correct"].as_bool() != Some(true) || v["failed"].as_u64() != Some(0) {
        return Err(format!("run with seed {seed} was not correct: {last}"));
    }
    Ok(v)
}

fn metric(run: &Value, name: &str) -> Result<f64, String> {
    run["metrics"][name]["value"]
        .as_f64()
        .ok_or_else(|| format!("run did not report {name}"))
}

pub fn run(args: &Args, workload: Workload) -> Result<bool, String> {
    let mut sets: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
    for (k, set) in sets.iter_mut().enumerate() {
        for j in 0..RUNS_PER_SET {
            let seed = args.seed + j;
            println!("check: set {} run {} (seed {seed})", k + 1, j + 1);
            set.push(child(workload, seed, args.seconds, false)?);
        }
    }
    let mut ok = true;
    println!(
        "check: {} — two sets of {RUNS_PER_SET} runs, {}s each",
        workload.name(),
        args.seconds
    );
    println!(
        "  {:<22} {:>14} {:>14} {:>8} {:>9} {:>9} {:>7}",
        "metric", "median 1", "median 2", "gap", "spread 1", "spread 2", "bound"
    );
    for def in &END_TO_END {
        let values = |set: &Vec<Value>| -> Result<Vec<f64>, String> {
            set.iter().map(|run| metric(run, def.name)).collect()
        };
        let (a, b) = (values(&sets[0])?, values(&sets[1])?);
        let (ma, mb) = (median(&a), median(&b));
        let gap = (mb - ma).abs() / ma.abs().max(f64::MIN_POSITIVE);
        let within = gap <= def.bound / 2.0;
        ok &= within;
        println!(
            "  {:<22} {:>14.6} {:>14.6} {:>7.2}% {:>8.2}% {:>8.2}% {:>6.1}%{}",
            def.name,
            ma,
            mb,
            gap * 100.0,
            range_share(&a) * 100.0,
            range_share(&b) * 100.0,
            def.bound * 100.0,
            if within {
                ""
            } else {
                "  GAP ABOVE HALF THE BOUND"
            }
        );
    }

    // Determinism: the same seed gives the same served lists, so coverage
    // and Gini agree run for run across the sets; and two traced runs
    // agree on every exact count.
    for name in ["coverage_at_n", "gini_at_n"] {
        for (a, b) in sets[0].iter().zip(&sets[1]) {
            let (a, b) = (metric(a, name)?, metric(b, name)?);
            if a.to_bits() != b.to_bits() {
                println!("  {name}: {a} in set 1, {b} in set 2 for the same seed  NOT EXACT");
                ok = false;
            }
        }
    }
    println!("check: two traced runs (seed {})", args.seed);
    let traced = [
        child(workload, args.seed, args.seconds, true)?,
        child(workload, args.seed, args.seconds, true)?,
    ];
    for layer in PER_LAYER.iter().filter(|l| l.exact) {
        let (a, b) = (
            metric(&traced[0], layer.name)?,
            metric(&traced[1], layer.name)?,
        );
        let same = a.to_bits() == b.to_bits();
        ok &= same;
        println!(
            "  {:<30} {:>18} {:>18}{}",
            layer.name,
            a,
            b,
            if same { "" } else { "  NOT EXACT" }
        );
    }
    println!("check: {}", if ok { "PASSED" } else { "FAILED" });
    Ok(ok)
}
