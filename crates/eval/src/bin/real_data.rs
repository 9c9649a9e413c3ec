//! Run the GANC pipeline on a **real** ratings file (MovieLens `u.data`,
//! `ratings.dat`, or CSV) instead of the synthetic stand-ins.
//!
//! ```text
//! cargo run --release -p ganc-eval --bin real_data -- \
//!     --path /data/ml-100k/u.data [--kappa 0.5] [--tau 5] [--n 5] \
//!     [--scale-max 5] [--sample 500] [--seed 7]
//! ```
//!
//! Prints a Table IV-style comparison of the base RSVD ranking against
//! GANC(RSVD, θ^G, Dyn) and GANC(Pop, θ^G, Dyn).

use ganc_core::{build_topn, AccuracyMode, FitConfig};
use ganc_dataset::dataset::RatingScale;
use ganc_dataset::io::{filter_min_ratings, load_path};
use ganc_metrics::{evaluate_topn, EvalContext, TopN};
use ganc_preference::GeneralizedConfig;
use ganc_recommender::pop::MostPopular;
use ganc_recommender::rsvd::{Rsvd, RsvdConfig};
use ganc_recommender::topn::generate_topn_lists;
use std::path::PathBuf;

struct Args {
    path: PathBuf,
    kappa: f64,
    tau: u32,
    n: usize,
    scale_max: f32,
    sample: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        path: PathBuf::new(),
        kappa: 0.5,
        tau: 5,
        n: 5,
        scale_max: 5.0,
        sample: 500,
        seed: 7,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    let usage = || -> ! {
        eprintln!(
            "usage: real_data --path FILE [--kappa F] [--tau N] [--n N] [--scale-max F] [--sample N] [--seed N]"
        );
        std::process::exit(2)
    };
    while k < argv.len() {
        macro_rules! next {
            () => {{
                k += 1;
                argv.get(k).unwrap_or_else(|| usage())
            }};
        }
        match argv[k].as_str() {
            "--path" => args.path = PathBuf::from(next!()),
            "--kappa" => args.kappa = next!().parse().unwrap_or_else(|_| usage()),
            "--tau" => args.tau = next!().parse().unwrap_or_else(|_| usage()),
            "--n" => args.n = next!().parse().unwrap_or_else(|_| usage()),
            "--scale-max" => args.scale_max = next!().parse().unwrap_or_else(|_| usage()),
            "--sample" => args.sample = next!().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = next!().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        k += 1;
    }
    if args.path.as_os_str().is_empty() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let scale = RatingScale {
        min: if args.scale_max > 5.0 { 0.0 } else { 0.5 },
        max: args.scale_max,
        step: 0.5,
    };
    let (raw, _maps) = match load_path(&args.path, scale) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("failed to load {}: {e}", args.path.display());
            std::process::exit(1);
        }
    };
    let filtered = filter_min_ratings(&raw, args.tau).expect("filter");
    let data = if args.scale_max > 5.0 {
        filtered.mapped_to_one_five()
    } else {
        filtered
    };
    println!(
        "loaded {}: {} users, {} items, {} ratings (d = {:.2}%)",
        args.path.display(),
        data.n_users(),
        data.n_items(),
        data.n_ratings(),
        data.density_percent()
    );
    let split = data.split_per_user(args.kappa, args.seed).expect("split");
    let train = &split.train;
    let ctx = EvalContext::new(train, &split.test);
    let theta = GeneralizedConfig::default().estimate(train);

    let rsvd = Rsvd::train(train, RsvdConfig::default());
    println!("RSVD test RMSE: {:.4}", rsvd.rmse(&split.test));
    let pop = MostPopular::fit(train);

    let mut rows: Vec<(String, TopN)> = vec![
        (
            "RSVD".into(),
            TopN::new(args.n, generate_topn_lists(&rsvd, train, args.n, 4)),
        ),
        (
            "Pop".into(),
            TopN::new(args.n, generate_topn_lists(&pop, train, args.n, 4)),
        ),
    ];
    let fit = FitConfig {
        sample_size: args.sample,
        seed: args.seed,
        ..FitConfig::new(args.n)
    };
    let ganc_rsvd = build_topn(&rsvd, &theta, train, &fit, 4);
    rows.push(("GANC(RSVD, θG, Dyn)".into(), TopN::new(args.n, ganc_rsvd)));
    let fit = FitConfig {
        accuracy_mode: AccuracyMode::TopNIndicator,
        ..fit
    };
    let ganc_pop = build_topn(&pop, &theta, train, &fit, 4);
    rows.push(("GANC(Pop, θG, Dyn)".into(), TopN::new(args.n, ganc_pop)));

    println!(
        "\n{:<22} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model",
        format!("F@{}", args.n),
        "SRec",
        "LTAcc",
        "Cov",
        "Gini"
    );
    for (name, topn) in &rows {
        let m = evaluate_topn(topn, &ctx);
        println!(
            "{name:<22} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
            m.f_measure, m.strat_recall, m.lt_accuracy, m.coverage, m.gini
        );
    }
}
