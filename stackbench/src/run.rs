//! An untraced run: record the reference once, then rounds — each one
//! setting the whole stack up again from scratch — until `--seconds` have
//! been measured; report each statistic's best round.

use crate::affinity::Cpus;
use crate::report::{Metric, RunResult, END_TO_END};
use crate::round::{run_round, Expected, Failure, Judge, PhaseCount, RoundTimes};
use crate::spans::SpanLog;
use crate::stacks::{self, Answer, Single, Stack};
use crate::stats::percentile;
use crate::workload::{refitter, Fixture, Script, Workload, TOP_N};
use ganc_dataset::ItemId;
use ganc_metrics::topn::TopN;
use ganc_serve::{ModelBundle, SaveLoad};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A run reduces over rounds: never fewer than this many.
pub const MIN_ROUNDS: usize = 3;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub wrong_reference: bool,
}

/// A directory of this process's own for the files stacks open, inside the
/// build directory (so inside the checkout, and ignored by git).
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
        let dir = base.join(format!("stack-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// A fresh, empty sub-directory.
    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A workload's inputs and its reference answers, prepared once per run.
pub struct Prepared {
    pub fixture: Fixture,
    pub script: Script,
    pub expected: Expected,
    /// Users whose lists OSLG's sequential phase precomputed (served from
    /// a table, not computed: the ladder leaves them out).
    pub precomputed_users: Vec<u32>,
    pub coverage_at_n: f64,
    pub gini_at_n: f64,
}

/// Generate the inputs and run the round once on the reference: an
/// unsharded, un-instrumented in-process `ServingEngine` over the same
/// artifact, refitted by the same fitter. Nothing here is timed.
pub fn prepare(opts: &Options) -> Result<Prepared, String> {
    let (workload, seed) = (opts.workload, opts.seed);
    let fixture = Fixture::generate(workload);
    let plan = if opts.smoke {
        workload.plan().smoke()
    } else {
        workload.plan()
    };
    let (n_users, n_items) = (fixture.train.n_users(), fixture.train.n_items());
    let script = Script::generate(&plan, seed, n_users, &fixture.incoming);

    let bytes = fixture.fit_artifact(fixture.train.clone());
    let bundle = ModelBundle::from_bytes(&bytes).map_err(|e| format!("decode artifact: {e}"))?;
    let precomputed_users = bundle.seed_lists.iter().map(|(u, _)| u.0).collect();
    let fixed_theta = (workload == Workload::RouterMixed).then(|| Arc::clone(&bundle.theta));
    let mut reference = Single::new(bundle, refitter(workload.model(), fixed_theta), false);
    let first = reference.recommend(script.first_user)?;
    let mut expected = Expected::default();
    run_round(
        &mut reference,
        first,
        &script,
        workload.chunked(),
        &mut Judge::Record(&mut expected),
        None,
    )
    .map_err(|f| format!("reference failed in {}: {}", f.phase, f.detail))?;

    let lists: Vec<Vec<ItemId>> = expected
        .first_batch
        .clone()
        .map(|k| expected.list(k).iter().map(|&i| ItemId(i)).collect())
        .collect();
    assert_eq!(lists.len(), n_users as usize, "one batch list per user");
    let topn = TopN::new(TOP_N, lists);
    if opts.wrong_reference {
        expected.corrupt();
    }
    Ok(Prepared {
        precomputed_users,
        coverage_at_n: ganc_metrics::coverage::coverage(&topn, n_items),
        gini_at_n: ganc_metrics::coverage::gini(&topn, n_items),
        fixture,
        script,
        expected,
    })
}

/// Set the workload's stack up from scratch — base-model fit, θ estimate,
/// bundle fit, encode, decode, stack construction, first answer — and
/// return it with that answer and the seconds it all took.
pub fn set_up(
    prepared: &Prepared,
    scratch: &Path,
) -> Result<(Box<dyn Stack>, Answer, f64), String> {
    // `ModelBundle::fit` consumes its train set; the copy is the
    // benchmark's cost, not the program's.
    let train = prepared.fixture.train.clone();
    let t0 = Instant::now();
    let bytes = prepared.fixture.fit_artifact(train);
    let bundle = ModelBundle::from_bytes(&bytes).map_err(|e| format!("decode artifact: {e}"))?;
    let mut stack = stacks::build(prepared.fixture.workload, bundle, scratch)?;
    let first = stack.recommend(prepared.script.first_user)?;
    Ok((stack, first, t0.elapsed().as_secs_f64()))
}

/// One measured round: set-up, then the phases, verified.
pub fn measured_round(
    prepared: &Prepared,
    scratch: &Path,
    spans: Option<&mut SpanLog>,
) -> Result<(f64, RoundTimes), Failure> {
    let (mut stack, first, setup_s) = set_up(prepared, scratch).map_err(|detail| Failure {
        phase: "setup",
        detail,
        counts: [PhaseCount::default(); 5],
    })?;
    let times = run_round(
        stack.as_mut(),
        first,
        &prepared.script,
        prepared.fixture.workload.chunked(),
        &mut Judge::Verify {
            expected: &prepared.expected,
            next: 0,
        },
        spans,
    )?;
    Ok((setup_s, times))
}

/// Put every thread of the process on one CPU for the rest of the run (see
/// [`crate::affinity`]); where the platform refuses, say so and go on
/// unpinned. Returns the handle the traced run releases its explicitly
/// parallel probes with.
pub fn pin_to_one_cpu() -> Option<Cpus> {
    match Cpus::detect().and_then(|cpus| cpus.pin(true).map(|()| cpus)) {
        Ok(cpus) => {
            println!(
                "stack: every thread on cpu {} ({} allowed)",
                cpus.pinned_cpu, cpus.count
            );
            Some(cpus)
        }
        Err(e) => {
            println!("stack: CPU affinity unavailable ({e}); the run is unpinned");
            None
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The statistics one round is reduced to, by metric name.
pub const ROUND_STATISTICS: [&str; 8] = [
    "setup_s",
    "recommend_rps",
    "recommend_p50_us",
    "recommend_p99_us",
    "recommend_hit_us",
    "ingest_p50_us",
    "batch_users_per_s",
    "refit_ms",
];

/// One round's statistics, in [`ROUND_STATISTICS`] order.
pub fn round_statistics(setup_s: f64, mut t: RoundTimes) -> [f64; 8] {
    let serve_ops = t.counts[0].attempted as f64;
    [
        setup_s,
        serve_ops / t.serve_wall_s,
        percentile(&mut t.rec_ns, 50.0) / 1e3,
        percentile(&mut t.rec_ns, 99.0) / 1e3,
        percentile(&mut t.hit_ns, 50.0) / 1e3,
        percentile(&mut t.ingest_ns, 50.0) / 1e3,
        t.batch_users as f64 / t.batch_s,
        t.refit_ms,
    ]
}

pub fn run(opts: &Options) -> Result<RunResult, String> {
    let prepared = prepare(opts)?;
    let scratch = Scratch::create()?;
    pin_to_one_cpu();
    let mut result = RunResult::start(opts.workload.name(), opts.seed, opts.smoke, false);
    let mut per_round: Vec<[f64; 8]> = Vec::new();
    let min_rounds = if opts.smoke { 1 } else { MIN_ROUNDS };
    // Read after the first round, when the process has been through one
    // whole life of the stack (set-up to refit). Later rounds only add the
    // allocator's creep, which differs from launch to launch (±1 % after
    // round one, ±6 % after round three), and how many follow depends on
    // the clock.
    let mut peak_rss = None;
    let started = Instant::now();
    while per_round.len() < min_rounds
        || (!opts.smoke && started.elapsed().as_secs_f64() < opts.seconds)
    {
        let dir = scratch.sub(&format!("round-{}", per_round.len()))?;
        match measured_round(&prepared, &dir, None) {
            Ok((setup_s, times)) => {
                add_counts(&mut result.counts, &times.counts);
                per_round.push(round_statistics(setup_s, times));
                peak_rss.get_or_insert_with(peak_rss_mb);
            }
            Err(failure) => {
                add_counts(&mut result.counts, &failure.counts);
                result.failure = Some(format!("{}: {}", failure.phase, failure.detail));
                break;
            }
        }
    }
    result.rounds = per_round.len();
    if let Some(peak_rss) = peak_rss {
        let over_rounds = |name: &str, unit, higher| {
            let k = ROUND_STATISTICS
                .iter()
                .position(|n| *n == name)
                .expect("a per-round statistic");
            let values: Vec<f64> = per_round.iter().map(|r| r[k]).collect();
            Metric::over_rounds(name, unit, &values, higher)
        };
        for def in &END_TO_END {
            result.metrics.push(match def.name {
                "peak_rss_mb" => Metric::single(def.name, def.unit, peak_rss),
                "coverage_at_n" => Metric::single(def.name, def.unit, prepared.coverage_at_n),
                "gini_at_n" => Metric::single(def.name, def.unit, prepared.gini_at_n),
                name => over_rounds(name, def.unit, def.higher_is_better),
            });
        }
        // Measured, printed, not bounded: see README ("p99").
        result
            .unbounded
            .push(over_rounds("recommend_p99_us", "us", false));
    }
    Ok(result)
}

pub fn add_counts(total: &mut [PhaseCount; 5], round: &[PhaseCount; 5]) {
    for (t, r) in total.iter_mut().zip(round) {
        t.attempted += r.attempted;
        t.failed += r.failed;
    }
}
