//! Artifact format compatibility: the v2 envelope round-trips for every
//! coverage kind, and every other format version — the retired v1
//! included — is refused by the version gate instead of misread.

use ganc::core::coverage::CoverageKind;
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::Interactions;
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::serve::{FitConfig, FittedModel, ModelBundle, PersistError, SaveLoad, FORMAT_VERSION};

fn fixture() -> (Interactions, Vec<f64>) {
    let data = DatasetProfile::small().generate(64);
    let split = data.split_per_user(0.5, 6).unwrap();
    let theta = GeneralizedConfig::default().estimate(&split.train);
    (split.train, theta)
}

fn fit(train: &Interactions, theta: &[f64], kind: CoverageKind) -> ModelBundle {
    let cfg = FitConfig {
        coverage: kind,
        sample_size: 20,
        ..FitConfig::new(5)
    };
    ModelBundle::fit(
        FittedModel::Pop(MostPopular::fit(train)),
        theta.to_vec(),
        train.clone(),
        &cfg,
    )
}

#[test]
fn v2_bundles_round_trip_for_every_coverage_kind() {
    let (train, theta) = fixture();
    for kind in [
        CoverageKind::Random,
        CoverageKind::Static,
        CoverageKind::Dynamic,
    ] {
        let bundle = fit(&train, &theta, kind);
        let bytes = bundle.to_bytes().unwrap();
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FORMAT_VERSION);
        let restored = ModelBundle::from_bytes(&bytes).unwrap();
        assert_eq!(restored, bundle, "{kind:?}");
    }
}

#[test]
fn unsupported_versions_still_rejected() {
    let (train, theta) = fixture();
    let bundle = fit(&train, &theta, CoverageKind::Static);
    let mut bytes = bundle.to_bytes().unwrap();
    for found in [FORMAT_VERSION + 1, 1, 0] {
        bytes[4..6].copy_from_slice(&found.to_le_bytes());
        match ModelBundle::from_bytes(&bytes).map(|_| ()) {
            Err(PersistError::VersionMismatch { found: f, expected }) => {
                assert_eq!((f, expected), (found, FORMAT_VERSION));
            }
            other => panic!("v{found} header: expected VersionMismatch, got {other:?}"),
        }
    }
}
