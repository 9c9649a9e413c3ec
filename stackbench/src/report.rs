//! Metric names, units and bounds (the same table `BENCHMARK.json` holds),
//! and how a run's result is printed and written.

use crate::round::{PhaseCount, PHASES};
use crate::stats::OverRounds;
use std::path::Path;
use tinyjson::Value;

/// An end-to-end metric: what a user of the system would see. `bound` is
/// the share of the parent's median it may worsen by before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("recommend_rps", "1/s", true, 0.25),
    e2e("recommend_p50_us", "us", false, 0.25),
    e2e("recommend_hit_us", "us", false, 0.25),
    e2e("ingest_p50_us", "us", false, 0.25),
    e2e("batch_users_per_s", "users/s", true, 0.25),
    e2e("refit_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.10),
    e2e("coverage_at_n", "fraction", true, 0.01),
    e2e("gini_at_n", "gini", false, 0.01),
];

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 24;

/// `BENCHMARK.json`, rendered from the tables the benchmark itself reports
/// by (`--describe`); a unit test holds the committed file to it.
pub fn benchmark_json() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out += &format!(
        "  \"command\": [{}],\n",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "stackbench/Cargo.toml",
            "--",
        ])
    );
    out += "  \"paths\": [\"stackbench\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let workloads: Vec<String> = crate::workload::Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out += &workloads.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    out += &e2e.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let layers: Vec<String> = crate::ladder::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    out += &layers.join(",\n");
    out += "\n  ]\n}\n";
    out
}

/// One reported metric: its value, and how the rounds it was reduced from
/// were spread.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub rounds: OverRounds,
    /// The statistic round by round, in round order (`--out` keeps them, so
    /// a different reduction can be tried without measuring again).
    pub per_round: Vec<f64>,
}

impl Metric {
    /// A statistic measured once per round: the value is the best round's
    /// ([`crate::stats::over_rounds`]).
    pub fn over_rounds(
        name: impl Into<String>,
        unit: &'static str,
        per_round: &[f64],
        higher_is_better: bool,
    ) -> Metric {
        let rounds = crate::stats::over_rounds(per_round, higher_is_better);
        Metric {
            name: name.into(),
            unit,
            value: rounds.best,
            rounds,
            per_round: per_round.to_vec(),
        }
    }

    /// A metric with one value per run (a count, a byte size, peak RSS).
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::over_rounds(name, unit, &[value], false)
    }
}

/// A smoke run never replaces a full run's `--out` file: numbers copied out
/// of that file must be real. Checked before the run, not after it.
pub fn refuse_smoke_overwrite(path: &Path) -> Result<(), String> {
    let Ok(old) = std::fs::read_to_string(path) else {
        return Ok(());
    };
    let was_smoke = tinyjson::from_str(&old)
        .ok()
        .and_then(|v| v["smoke"].as_bool());
    if was_smoke == Some(true) {
        Ok(())
    } else {
        Err(format!(
            "{} holds a full (non-smoke) result; a smoke run will not overwrite it",
            path.display()
        ))
    }
}

/// Everything one run of one workload reports.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub smoke: bool,
    pub traced: bool,
    pub rounds: usize,
    /// `None` while every answer matched the reference.
    pub failure: Option<String>,
    pub counts: [PhaseCount; 5],
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    pub metrics: Vec<Metric>,
    /// Measured and printed, but held to no bound and not in the result
    /// line (an untraced run's `recommend_p99_us`).
    pub unbounded: Vec<Metric>,
}

impl RunResult {
    /// A result with nothing measured yet.
    pub fn start(workload: &'static str, seed: u64, smoke: bool, traced: bool) -> RunResult {
        RunResult {
            workload,
            seed,
            smoke,
            traced,
            rounds: 0,
            failure: None,
            counts: [PhaseCount::default(); 5],
            metrics: Vec::new(),
            unbounded: Vec::new(),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.counts.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.counts.iter().map(|c| c.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.failure.is_none() && self.failed() == 0
    }

    /// The table a person reads, then the one-line JSON object the driver
    /// reads as the last line of standard output.
    pub fn print(&self) {
        println!(
            "stack: workload {} seed {} rounds {}{}{}",
            self.workload,
            self.seed,
            self.rounds,
            if self.traced { " traced" } else { "" },
            if self.smoke { " SMOKE" } else { "" },
        );
        println!(
            "  {:<36} {:>8} {:>16} {:>16} {:>16}",
            "metric", "unit", "value (best)", "median", "worst"
        );
        for (m, note) in self
            .metrics
            .iter()
            .map(|m| (m, ""))
            .chain(self.unbounded.iter().map(|m| (m, "  (no bound)")))
        {
            println!(
                "  {:<36} {:>8} {:>16.6} {:>16.6} {:>16.6}{note}",
                m.name, m.unit, m.value, m.rounds.median, m.rounds.worst
            );
        }
        for (phase, c) in PHASES.iter().zip(&self.counts) {
            println!(
                "  {phase}: ops_attempted {} ops_failed {}",
                c.attempted, c.failed
            );
        }
        if let Some(failure) = &self.failure {
            println!("  FAILED: {failure}");
        }
        println!("{}", tinyjson::to_string(&self.contract_json()));
    }

    fn metrics_json(metrics: &[Metric], with_range: bool) -> Value {
        let mut json = tinyjson::obj! {};
        for m in metrics {
            let mut entry = tinyjson::obj! { "value" => m.value, "unit" => m.unit };
            if with_range {
                entry.insert("median", Value::from(m.rounds.median));
                entry.insert("worst", Value::from(m.rounds.worst));
                entry.insert("rounds", Value::from(m.per_round.clone()));
            }
            json.insert(m.name.clone(), entry);
        }
        json
    }

    /// Exactly the keys the benchmark contract names.
    fn contract_json(&self) -> Value {
        tinyjson::obj! {
            "correct" => self.correct(),
            "attempted" => self.attempted().max(1),
            "failed" => self.failed(),
            "metrics" => Self::metrics_json(&self.metrics, false),
        }
    }

    /// Write the result to `path` (`--out`).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut v = self.contract_json();
        v.insert("metrics", Self::metrics_json(&self.metrics, true));
        v.insert("unbounded", Self::metrics_json(&self.unbounded, true));
        v.insert("workload", Value::from(self.workload));
        v.insert("seed", Value::from(self.seed));
        v.insert("smoke", Value::from(self.smoke));
        v.insert("traced", Value::from(self.traced));
        v.insert("rounds", Value::from(self.rounds));
        std::fs::write(path, tinyjson::to_string(&v) + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(smoke: bool) -> RunResult {
        let mut r = RunResult::start("embed_miss", 18, smoke, false);
        r.counts = [PhaseCount {
            attempted: 2,
            failed: 0,
        }; 5];
        r.metrics.push(Metric::single("setup_s", "s", 0.25));
        r
    }

    #[test]
    fn smoke_output_never_replaces_a_full_result() {
        let dir = std::env::temp_dir().join(format!("stack-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        refuse_smoke_overwrite(&path).unwrap();
        result(true).write(&path).unwrap();
        refuse_smoke_overwrite(&path).unwrap();
        result(false).write(&path).unwrap();
        assert!(refuse_smoke_overwrite(&path).is_err());
        let v = tinyjson::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v["smoke"].as_bool(), Some(false));
        assert_eq!(v["attempted"].as_u64(), Some(10));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_failed_op_makes_the_run_incorrect() {
        let mut r = result(false);
        assert!(r.correct());
        r.counts[3].failed = 1;
        assert!(!r.correct());
        assert_eq!(r.failed(), 1);
    }

    #[test]
    fn the_committed_benchmark_json_is_the_described_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(committed, benchmark_json(), "regenerate with --describe");
        // And it is the shape the contract asks for.
        let v = tinyjson::from_str(&committed).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(v["workloads"].as_array().unwrap().len(), 4);
        for w in v["workloads"].as_array().unwrap() {
            assert!(w["why"].as_str().unwrap().len() <= 200);
        }
        let setup = &v["end_to_end"][0];
        assert_eq!(setup["name"].as_str(), Some("setup_s"));
        assert_eq!(setup["unit"].as_str(), Some("s"));
        assert_eq!(setup["better"].as_str(), Some("lower"));
        for m in v["end_to_end"].as_array().unwrap() {
            let bound = m["bound"].as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
