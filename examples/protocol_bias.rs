//! Protocol bias demo (Appendix C): the same models, the same data, the
//! same metrics — and an order-of-magnitude accuracy swing caused purely by
//! **which items are ranked at test time**.
//!
//! The rated-test-items protocol only ranks the handful of items each user
//! happened to rate in the test set, so even *random* suggestions look
//! accurate; the all-unrated protocol ranks the entire unseen catalog, the
//! task a production system actually faces.
//!
//! Run with: `cargo run --release --example protocol_bias`

use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::UserId;
use ganc::metrics::{evaluate_topn, EvalContext, RankingProtocol, TopN};
use ganc::recommender::pop::MostPopular;
use ganc::recommender::random::RandomRec;
use ganc::recommender::rsvd::{Rsvd, RsvdConfig};
use ganc::recommender::topn::{select_top_n, train_item_mask};
use ganc::recommender::Recommender;

const N: usize = 5;

fn topn_under(
    rec: &dyn Recommender,
    split: &ganc::dataset::TrainTest,
    protocol: RankingProtocol,
) -> TopN {
    let train = &split.train;
    let mask = train_item_mask(train);
    let mut scores = vec![0.0f64; train.n_items() as usize];
    let mut cands: Vec<u32> = Vec::new();
    let lists = (0..train.n_users())
        .map(|u| {
            let u = UserId(u);
            rec.score_items(u, &mut scores);
            protocol.candidates(train, &split.test, &mask, u, &mut cands);
            select_top_n(&scores, cands.iter().copied(), N)
        })
        .collect();
    TopN::new(N, lists)
}

fn main() {
    let data = DatasetProfile::medium().generate(3);
    let split = data.split_per_user(0.5, 1).unwrap();
    let ctx = EvalContext::new(&split.train, &split.test);

    let rand = RandomRec::new(99);
    let pop = MostPopular::fit(&split.train);
    let rsvd = Rsvd::train(
        &split.train,
        RsvdConfig {
            factors: 16,
            epochs: 15,
            ..RsvdConfig::default()
        },
    );
    let models: Vec<&dyn Recommender> = vec![&rand, &pop, &rsvd];

    for protocol in [RankingProtocol::AllUnrated, RankingProtocol::RatedTestItems] {
        println!("\nprotocol: {}", protocol.label());
        println!(
            "{:<6} {:>12} {:>9} {:>9} {:>9}",
            "model", "Precision@5", "F@5", "Cov@5", "LTAcc@5"
        );
        for rec in &models {
            let topn = topn_under(*rec, &split, protocol);
            let m = evaluate_topn(&topn, &ctx);
            println!(
                "{:<6} {:>12.4} {:>9.4} {:>9.4} {:>9.4}",
                rec.name(),
                m.precision,
                m.f_measure,
                m.coverage,
                m.lt_accuracy
            );
        }
    }

    let rand_all = evaluate_topn(
        &topn_under(&rand, &split, RankingProtocol::AllUnrated),
        &ctx,
    );
    let rand_rated = evaluate_topn(
        &topn_under(&rand, &split, RankingProtocol::RatedTestItems),
        &ctx,
    );
    println!(
        "\nRandom suggestions scored {:.4} precision under rated-test-items vs {:.4}\n\
         under all-unrated — a {:.0}× inflation from the protocol alone. This is why\n\
         the paper (following Steck) evaluates with the all-unrated protocol.",
        rand_rated.precision,
        rand_all.precision,
        rand_rated.precision / rand_all.precision.max(1e-6)
    );
}
