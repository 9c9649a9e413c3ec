//! Integration tests of the OSLG optimizer's approximation behaviour and
//! the personalization semantics of θ (Algorithm 1, §III-C).

use ganc::core::accuracy::{AccuracyScorer, NormalizedScores};
use ganc::core::oslg::{assignment_order_objective, oslg_topn, OslgConfig, UserOrdering};
use ganc::core::{build_topn, FitConfig};
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::UserId;
use ganc::preference::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;

fn setup() -> (ganc::dataset::TrainTest, Vec<f64>, MostPopular) {
    let data = DatasetProfile::small().generate(55);
    let split = data.split_per_user(0.5, 2).unwrap();
    let theta = GeneralizedConfig::default().estimate(&split.train);
    let pop = MostPopular::fit(&split.train);
    (split, theta, pop)
}

#[test]
fn oslg_objective_tracks_full_locally_greedy_across_sample_sizes() {
    let (split, theta, pop) = setup();
    let train = &split.train;
    let arec = NormalizedScores::new(&pop);
    let n_users = train.n_users() as usize;
    let theta_order: Vec<UserId> = {
        let mut o: Vec<UserId> = (0..n_users as u32).map(UserId).collect();
        o.sort_by(|a, b| theta[a.idx()].partial_cmp(&theta[b.idx()]).unwrap());
        o
    };
    let objective = |sample: usize| -> f64 {
        let lists = oslg_topn(
            &arec,
            &theta,
            train,
            &OslgConfig {
                sample_size: sample,
                ..OslgConfig::new(5)
            },
        );
        assignment_order_objective(&lists, &theta_order, &theta, &arec, train.n_items())
    };
    let full = objective(n_users);
    for frac in [2, 4, 8] {
        let approx = objective(n_users / frac);
        assert!(
            approx > 0.75 * full,
            "S=|U|/{frac}: objective {approx:.1} vs full {full:.1}"
        );
    }
}

#[test]
fn personalization_sends_tail_items_to_tail_seeking_users() {
    let (split, _, pop) = setup();
    let train = &split.train;
    // Hand-crafted θ: first half of users are popularity seekers (θ=0.05),
    // second half are explorers (θ=0.95).
    let n_users = train.n_users() as usize;
    let theta: Vec<f64> = (0..n_users)
        .map(|u| if u < n_users / 2 { 0.05 } else { 0.95 })
        .collect();
    let fit = FitConfig {
        sample_size: n_users,
        seed: 3,
        ..FitConfig::new(5)
    };
    let lists = build_topn(&pop, &theta, train, &fit, 4);
    let popularity = train.item_popularity();
    let mean_pop_of = |range: std::ops::Range<usize>| -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for u in range {
            for item in &lists[u] {
                sum += popularity[item.idx()] as f64;
                count += 1;
            }
        }
        sum / count.max(1) as f64
    };
    let seekers = mean_pop_of(0..n_users / 2);
    let explorers = mean_pop_of(n_users / 2..n_users);
    assert!(
        seekers > 1.5 * explorers,
        "popularity seekers got mean pop {seekers:.1}, explorers {explorers:.1}"
    );
}

#[test]
fn snapshots_discount_already_recommended_items_for_later_users() {
    // With the increasing-θ order, the last (most tail-seeking) user's
    // coverage scores must reflect everything assigned before: their list
    // should avoid the globally most-recommended items.
    let (split, theta, pop) = setup();
    let train = &split.train;
    let n_users = train.n_users() as usize;
    let fit = FitConfig {
        sample_size: n_users,
        seed: 7,
        ..FitConfig::new(5)
    };
    let lists = build_topn(&pop, &theta, train, &fit, 4);
    // recommendation frequency across all users
    let mut freq = vec![0u32; train.n_items() as usize];
    for l in &lists {
        for i in l {
            freq[i.idx()] += 1;
        }
    }
    let max_freq = *freq.iter().max().unwrap();
    // The most tail-preferring user:
    let tailest = (0..n_users)
        .max_by(|&a, &b| theta[a].partial_cmp(&theta[b]).unwrap())
        .unwrap();
    for item in &lists[tailest] {
        assert!(
            freq[item.idx()] < max_freq.max(2),
            "tail-seeker received a saturated item (freq {})",
            freq[item.idx()]
        );
    }
}

#[test]
fn ordering_ablation_both_produce_valid_collections() {
    let (split, theta, pop) = setup();
    let train = &split.train;
    let arec = NormalizedScores::new(&pop);
    for ordering in [UserOrdering::IncreasingTheta, UserOrdering::Arbitrary] {
        let lists = oslg_topn(
            &arec,
            &theta,
            train,
            &OslgConfig {
                sample_size: 60,
                ordering,
                ..OslgConfig::new(5)
            },
        );
        assert_eq!(lists.len(), train.n_users() as usize);
        assert!(lists.iter().all(|l| l.len() == 5));
    }
}

#[test]
fn accuracy_scorer_names_flow_through() {
    let (split, _, pop) = setup();
    let arec = NormalizedScores::new(&pop);
    assert_eq!(arec.name(), "Pop");
    let _ = &split;
}
