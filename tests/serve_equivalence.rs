//! The acceptance property of the serving subsystem: a single-user query
//! served from a fitted [`ModelBundle`] equals the batch [`build_topn`]
//! output for that user, both built from one [`FitConfig`] —
//! tolerance-exact, for every coverage kind, including Dyn's coupled
//! optimizer (sampled users serve their sequential-phase lists; everyone
//! else runs the same nearest-snapshot query the batch parallel phase
//! runs).

use ganc::core::{build_topn, AccuracyMode, CoverageKind};
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{Interactions, UserId};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::recommender::rsvd::{Rsvd, RsvdConfig};
use ganc::serve::{EngineConfig, FitConfig, FittedModel, ModelBundle, ServingEngine};

const N: usize = 5;
const SAMPLE: usize = 25;

fn fixture() -> (Interactions, Vec<f64>) {
    let data = DatasetProfile::small().generate(321);
    let split = data.split_per_user(0.5, 5).unwrap();
    let theta = GeneralizedConfig::default().estimate(&split.train);
    (split.train, theta)
}

fn check_equivalence(model: FittedModel, kind: CoverageKind, mode: AccuracyMode) {
    let (train, theta) = fixture();
    let cfg = FitConfig {
        coverage: kind,
        accuracy_mode: mode,
        sample_size: SAMPLE,
        ..FitConfig::new(N)
    };

    let batch = build_topn(&model.bind(&train), &theta, &train, &cfg, 4);
    let bundle = ModelBundle::fit(model, theta, train.clone(), &cfg);
    let engine = ServingEngine::new(bundle, EngineConfig::default());

    for u in 0..train.n_users() {
        let served = engine.recommend(UserId(u)).unwrap();
        assert_eq!(
            served.as_slice(),
            batch[u as usize].as_slice(),
            "{kind:?}/{mode:?}: user {u} served list diverges from batch"
        );
    }
}

#[test]
fn single_user_queries_match_batch_static() {
    let (train, _) = fixture();
    check_equivalence(
        FittedModel::Pop(MostPopular::fit(&train)),
        CoverageKind::Static,
        AccuracyMode::Normalized,
    );
}

#[test]
fn single_user_queries_match_batch_random() {
    let (train, _) = fixture();
    check_equivalence(
        FittedModel::Pop(MostPopular::fit(&train)),
        CoverageKind::Random,
        AccuracyMode::Normalized,
    );
}

#[test]
fn single_user_queries_match_batch_dynamic() {
    let (train, _) = fixture();
    check_equivalence(
        FittedModel::Pop(MostPopular::fit(&train)),
        CoverageKind::Dynamic,
        AccuracyMode::Normalized,
    );
}

#[test]
fn single_user_queries_match_batch_dynamic_indicator_mode() {
    let (train, _) = fixture();
    check_equivalence(
        FittedModel::Pop(MostPopular::fit(&train)),
        CoverageKind::Dynamic,
        AccuracyMode::TopNIndicator,
    );
}

#[test]
fn single_user_queries_match_batch_dynamic_personalized_model() {
    let (train, _) = fixture();
    let rsvd = Rsvd::train(
        &train,
        RsvdConfig {
            factors: 8,
            epochs: 5,
            ..RsvdConfig::default()
        },
    );
    check_equivalence(
        FittedModel::Rsvd(rsvd),
        CoverageKind::Dynamic,
        AccuracyMode::Normalized,
    );
}

/// Batched serving must agree with the batch optimizer too (same property
/// through the multi-threaded path).
#[test]
fn batched_serving_matches_batch_output() {
    let (train, theta) = fixture();
    let pop = MostPopular::fit(&train);
    let cfg = FitConfig {
        sample_size: SAMPLE,
        ..FitConfig::new(N)
    };
    let batch = build_topn(&pop, &theta, &train, &cfg, 4);
    let bundle = ModelBundle::fit(FittedModel::Pop(pop), theta, train.clone(), &cfg);
    let engine = ServingEngine::new(bundle, EngineConfig::default());
    let users: Vec<UserId> = (0..train.n_users()).map(UserId).collect();
    let answers = engine.recommend_batch(&users);
    for (u, got) in users.iter().zip(answers) {
        assert_eq!(
            got.unwrap().as_slice(),
            batch[u.idx()].as_slice(),
            "user {u:?}"
        );
    }
}
