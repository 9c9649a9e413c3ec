//! Preference audit (§II): estimate every long-tail preference model for a
//! user population, compare their distributions (Figure 2), and inspect a
//! few individual users to see *why* the generalized θ^G disagrees with
//! the simple measures.
//!
//! Run with: `cargo run --release --example preference_audit`

use ganc::dataset::stats::LongTail;
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::UserId;
use ganc::preference::kde::Kde;
use ganc::preference::simple::{histogram, theta_activity, theta_normalized};
use ganc::preference::tfidf::theta_tfidf;
use ganc::preference::GeneralizedConfig;

fn describe(label: &str, theta: &[f64]) {
    let n = theta.len() as f64;
    let mean = theta.iter().sum::<f64>() / n;
    let std = (theta.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n).sqrt();
    let bars = histogram(theta, 20);
    let peak = *bars.iter().max().unwrap() as f64;
    let spark: String = bars
        .iter()
        .map(|&c| {
            const LEVELS: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
            LEVELS[((c as f64 / peak) * 7.0).round() as usize]
        })
        .collect();
    println!("{label:<4} mean {mean:.3}  std {std:.3}  [0 {spark} 1]");
}

fn main() {
    let data = DatasetProfile::medium().generate(77);
    let split = data.split_per_user(0.5, 5).unwrap();
    let train = &split.train;
    let popularity = train.item_popularity();
    let lt = LongTail::from_popularity(&popularity, LongTail::PARETO);
    println!(
        "{} users, {} items, long tail = {:.1}% of rated items\n",
        train.n_users(),
        train.n_items(),
        lt.percent_of(&popularity)
    );

    let ta = theta_activity(train);
    let tn = theta_normalized(train, &lt);
    let tt = theta_tfidf(train);
    let result = GeneralizedConfig::default().run(train);
    println!(
        "θ^G optimization: {} iterations, final Δ {:.2e}\n",
        result.iterations, result.final_delta
    );
    let tg = &result.theta;

    println!("distribution audit (Figure 2 shape):");
    describe("θA", &ta);
    describe("θN", &tn);
    describe("θT", &tt);
    describe("θG", tg);

    // KDE over θ^G — what OSLG samples users from.
    let kde = Kde::fit(tg);
    println!(
        "\nKDE(θ^G): bandwidth {:.4}, density at mean {:.2}",
        kde.bandwidth(),
        kde.pdf(tg.iter().sum::<f64>() / tg.len() as f64)
    );

    // Spot-check users where the models disagree the most.
    let mut disagree: Vec<(u32, f64)> = (0..train.n_users())
        .map(|u| (u, (tn[u as usize] - tg[u as usize]).abs()))
        .collect();
    disagree.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nlargest θN vs θG disagreements:");
    println!(
        "{:>6} {:>9} {:>7} {:>7} {:>7} {:>7}",
        "user", "#ratings", "θA", "θN", "θT", "θG"
    );
    for &(u, _) in disagree.iter().take(5) {
        println!(
            "{:>6} {:>9} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            u,
            train.user_degree(UserId(u)),
            ta[u as usize],
            tn[u as usize],
            tt[u as usize],
            tg[u as usize],
        );
    }
    println!(
        "\nθN only counts tail items; θG also weighs how *informative* each item is\n\
         (Eq. II.5-II.6), so users whose tail items are universally-liked mediocrities\n\
         move toward the population mean."
    );
}
