//! Artifact round-trip properties: for every base recommender and both
//! stateful coverage kinds, save → load must reproduce the exact top-N
//! output of the original fitted state (a pinned draw of the deployment
//! oracle, `tests/deployment_oracle.rs`), components round-trip alone, and
//! damaged artifacts are refused.

mod oracle;

use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::Interactions;
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::recommender::psvd::Psvd;
use ganc::recommender::rankmf::{RankMf, RankMfConfig};
use ganc::recommender::rsvd::{Rsvd, RsvdConfig};
use ganc::serve::{FitConfig, FittedModel, ModelBundle, SaveLoad};
use oracle::{check, one_batch, Base, Dynamic, Normalized, Setup, Static, Tiny};

const DATA_SEEDS: [u64; 3] = [11, 47, 2026];

fn fixture(seed: u64) -> (Interactions, Vec<f64>) {
    let data = DatasetProfile::tiny().generate(seed);
    let split = data.split_per_user(0.5, seed ^ 0xA5).unwrap();
    let theta = GeneralizedConfig::default().estimate(&split.train);
    (split.train, theta)
}

fn fit_every_model(train: &Interactions) -> Vec<FittedModel> {
    let small_mf = RsvdConfig {
        factors: 8,
        epochs: 4,
        ..RsvdConfig::default()
    };
    let small_rank = RankMfConfig {
        factors: 8,
        epochs: 3,
        ..RankMfConfig::default()
    };
    vec![
        FittedModel::Pop(MostPopular::fit(train)),
        FittedModel::Rsvd(Rsvd::train(train, small_mf)),
        FittedModel::Psvd(Psvd::train(train, 8, 3)),
        FittedModel::RankMf(RankMf::train(train, small_rank)),
    ]
}

/// save → load → identical top-N for every recommender × coverage kind ×
/// dataset seed: the deployment oracle's reloaded bundle equals the saved
/// one and answers a batch of every user as the engine over the original.
#[test]
fn loaded_bundles_serve_identical_lists() {
    for seed in DATA_SEEDS {
        for base in Base::ALL {
            for coverage in [Static, Dynamic] {
                let setup = Setup::of(Tiny(seed), base, coverage, Normalized);
                check(setup, vec![one_batch(&setup)]);
            }
        }
    }
}

/// The component artifacts themselves round-trip exactly (models and θ
/// vectors saved standalone, not just inside bundles).
#[test]
fn standalone_components_round_trip() {
    let (train, theta) = fixture(99);
    let restored_theta = Vec::<f64>::from_bytes(&theta.to_bytes().unwrap()).unwrap();
    assert_eq!(restored_theta, theta);

    let restored_train = Interactions::from_bytes(&train.to_bytes().unwrap()).unwrap();
    assert_eq!(restored_train, train);

    for model in fit_every_model(&train) {
        let restored = FittedModel::from_bytes(&model.to_bytes().unwrap()).unwrap();
        assert_eq!(restored, model);
    }
}

/// Corrupted artifacts are rejected, never misread.
#[test]
fn corrupt_artifacts_are_rejected() {
    let (train, theta) = fixture(7);
    let bundle = ModelBundle::fit(
        FittedModel::Pop(MostPopular::fit(&train)),
        theta,
        train,
        &FitConfig {
            sample_size: 10,
            ..FitConfig::new(5)
        },
    );
    let bytes = bundle.to_bytes().unwrap();
    // Truncations at assorted depths must error, not panic or misparse.
    for cut in [0, 3, 5, 6, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            ModelBundle::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
    // Magic and version damage.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(ModelBundle::from_bytes(&bad).is_err());
    let mut bad = bytes.clone();
    bad[4] = bad[4].wrapping_add(1);
    assert!(ModelBundle::from_bytes(&bad).is_err());
}
