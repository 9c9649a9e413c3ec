//! Artifact format compatibility: the v4 envelope round-trips for every
//! coverage kind, every other format version — the retired v1, v2 and v3
//! included — is refused by the version gate instead of misread, a model
//! variant tag naming no model (the retired tags 1 and 2 included) is
//! refused, and a factor model whose shapes disagree (with each other or
//! with the train set), a Pop score vector sized for another catalogue, a
//! θ vector not one per train user or holding a θ outside [0, 1]
//! (NaN included), a list size of zero, a seed list naming a user outside
//! the train set, an item outside the catalogue or more than `n` items, or
//! a `Stat` score vector or `Dyn` snapshot store sized for another
//! catalogue, or a train matrix whose offsets fall, is refused at decode
//! instead of panicking or misranking later in the serving path.

use ganc::core::coverage::CoverageKind;
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::recommender::psvd::Psvd;
use ganc::recommender::rankmf::{RankMf, RankMfConfig};
use ganc::recommender::rsvd::{Rsvd, RsvdConfig};
use ganc::serve::{
    CoverageState, FitConfig, FittedModel, ModelBundle, PersistError, SaveLoad, FORMAT_VERSION,
};

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
fn v4_bundles_round_trip_for_every_coverage_kind() {
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
    // v3 carried the train set's item-major transpose too; v2 stored item
    // factors `n_items × k`, which read now would be scored as `k × n_items`.
    for found in [FORMAT_VERSION + 1, 3, 2, 1, 0] {
        bytes[4..6].copy_from_slice(&found.to_le_bytes());
        match ModelBundle::from_bytes(&bytes).map(|_| ()) {
            Err(PersistError::VersionMismatch { found: f, expected }) => {
                assert_eq!((f, expected), (found, FORMAT_VERSION));
            }
            other => panic!("v{found} header: expected VersionMismatch, got {other:?}"),
        }
    }
}

const K: usize = 4;

fn tiny_train() -> Interactions {
    DatasetProfile::tiny().generate(3).interactions()
}

/// Offset of the one occurrence of `needle` in `bytes`.
fn find_once(bytes: &[u8], needle: &[u8]) -> usize {
    let mut at = bytes.windows(needle.len()).enumerate();
    let found = at.find(|(_, w)| *w == needle).expect("needle present").0;
    assert!(at.all(|(_, w)| w != needle), "ambiguous needle");
    found
}

/// Offset of the one `rows, cols, rows·cols` matrix header in `bytes`.
fn matrix_header(bytes: &[u8], rows: usize, cols: usize) -> usize {
    let header: Vec<u8> = [rows, cols, rows * cols]
        .iter()
        .flat_map(|&v| (v as u64).to_le_bytes())
        .collect();
    find_once(bytes, &header)
}

/// Hand-edit a `rows × cols` matrix into a `cols × rows` one: the buffer
/// still fits, so only a shape check can tell.
fn transpose_header(bytes: &[u8], rows: usize, cols: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = matrix_header(bytes, rows, cols);
    out[at..at + 8].copy_from_slice(&(cols as u64).to_le_bytes());
    out[at + 8..at + 16].copy_from_slice(&(rows as u64).to_le_bytes());
    out
}

/// Hand-edit the `len`-long `f64` vector that ends at byte `end` to drop
/// its last value.
fn drop_last(bytes: &[u8], end: usize, len: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let len_at = end - 8 * len - 8;
    out[len_at..len_at + 8].copy_from_slice(&(len as u64 - 1).to_le_bytes());
    out.drain(end - 8..end);
    out
}

/// The untouched bytes decode; every edit is `Err`, not a panic.
fn assert_refused(model: FittedModel, edits: impl Fn(&[u8]) -> Vec<(&'static str, Vec<u8>)>) {
    let bytes = model.to_bytes().unwrap();
    assert_eq!(FittedModel::from_bytes(&bytes).unwrap(), model);
    for (what, edited) in edits(&bytes) {
        match FittedModel::from_bytes(&edited) {
            Err(PersistError::Codec(_)) => {}
            Err(e) => panic!("{what}: expected a codec error, got {e}"),
            Ok(_) => panic!("{what}: decoded a model the scoring kernel would index out of bounds"),
        }
    }
}

#[test]
fn psvd_with_disagreeing_factor_shapes_is_refused_at_decode() {
    let train = tiny_train();
    let (users, items) = (train.n_users() as usize, train.n_items() as usize);
    let model = Psvd::train(&train, K, 1);
    assert_eq!(model.rank(), K);
    assert_refused(FittedModel::Psvd(model), |b| {
        vec![
            ("item factors n_items × k", transpose_header(b, K, items)),
            ("user factors k × n_users", transpose_header(b, users, K)),
        ]
    });
}

#[test]
fn rsvd_with_disagreeing_factor_or_bias_shapes_is_refused_at_decode() {
    let train = tiny_train();
    let (users, items) = (train.n_users() as usize, train.n_items() as usize);
    let cfg = RsvdConfig {
        factors: K,
        epochs: 1,
        ..RsvdConfig::default()
    };
    let model = Rsvd::train(&train, cfg);
    // `user_bias` then `item_bias` sit right before the user factors.
    assert_refused(FittedModel::Rsvd(model), |b| {
        let p_at = matrix_header(b, users, K);
        let item_bias_end = p_at;
        let user_bias_end = p_at - 8 * items - 8;
        vec![
            ("item factors n_items × k", transpose_header(b, K, items)),
            ("user factors k × n_users", transpose_header(b, users, K)),
            ("item_bias one short", drop_last(b, item_bias_end, items)),
            ("user_bias one short", drop_last(b, user_bias_end, users)),
        ]
    });
}

#[test]
fn rankmf_with_disagreeing_factor_shapes_is_refused_at_decode() {
    let train = tiny_train();
    let (users, items) = (train.n_users() as usize, train.n_items() as usize);
    let cfg = RankMfConfig {
        factors: K,
        epochs: 1,
        ..RankMfConfig::default()
    };
    assert_refused(FittedModel::RankMf(RankMf::train(&train, cfg)), |b| {
        vec![
            ("item factors n_items × k", transpose_header(b, K, items)),
            ("user factors k × n_users", transpose_header(b, users, K)),
        ]
    });
}

#[test]
fn a_bundle_whose_factor_model_fits_another_catalogue_is_refused_at_decode() {
    let (train, theta) = fixture();
    let other = tiny_train();
    assert_ne!(other.n_items(), train.n_items());
    let cfg = FitConfig {
        coverage: CoverageKind::Random,
        ..FitConfig::new(5)
    };
    let fitting = FittedModel::Psvd(Psvd::train(&train, K, 1));
    let bundle = ModelBundle::fit(fitting, theta.clone(), train.clone(), &cfg);
    assert_eq!(
        ModelBundle::from_bytes(&bundle.to_bytes().unwrap()).unwrap(),
        bundle
    );

    let foreign = FittedModel::Psvd(Psvd::train(&other, K, 1));
    let bytes = ModelBundle::fit(foreign, theta.clone(), train.clone(), &cfg)
        .to_bytes()
        .unwrap();
    assert_bundle_refused(&bytes, "a foreign catalogue's factor model");

    // Pop scores by copying its vector into a catalogue-sized buffer; Stat
    // coverage is the other kind that fits without scoring.
    for kind in [CoverageKind::Random, CoverageKind::Static] {
        let cfg = FitConfig {
            coverage: kind,
            ..FitConfig::new(5)
        };
        let foreign = FittedModel::Pop(MostPopular::fit(&other));
        let bytes = ModelBundle::fit(foreign, theta.clone(), train.clone(), &cfg)
            .to_bytes()
            .unwrap();
        assert_bundle_refused(&bytes, &format!("a foreign catalogue's Pop, {kind:?}"));
    }
}

#[test]
fn a_model_variant_tag_naming_no_model_is_refused_at_decode() {
    let (train, theta) = fixture();
    let bytes = fit(&train, &theta, CoverageKind::Static)
        .to_bytes()
        .unwrap();
    // The model's variant tag follows θ; Pop's is 0.
    let at = theta_at(&bytes, &theta) + 8 + 8 * theta.len();
    assert_eq!(bytes[at..at + 4], 0u32.to_le_bytes());
    for tag in [1u32, 2, 6] {
        let mut edited = bytes.clone();
        edited[at..at + 4].copy_from_slice(&tag.to_le_bytes());
        assert_bundle_refused(&edited, &format!("model variant tag {tag}"));
    }
}

/// A bundle's bytes that decode to a bundle the serving path would index
/// out of bounds are a codec error, not a panic.
fn assert_bundle_refused(bytes: &[u8], what: &str) {
    match ModelBundle::from_bytes(bytes) {
        Err(PersistError::Codec(_)) => {}
        Err(e) => panic!("{what}: expected a codec error, got {e}"),
        Ok(_) => panic!("{what}: decoded a bundle the serving path would index out of bounds"),
    }
}

/// Offset of θ's length prefix: θ is the one `n_users`-long f64 vector
/// starting with θ(0).
fn theta_at(bytes: &[u8], theta: &[f64]) -> usize {
    let head = [(theta.len() as u64).to_le_bytes(), theta[0].to_le_bytes()].concat();
    find_once(bytes, &head)
}

#[test]
fn a_theta_vector_not_one_per_train_user_is_refused_at_decode() {
    let (train, theta) = fixture();
    let bytes = fit(&train, &theta, CoverageKind::Static)
        .to_bytes()
        .unwrap();
    let end = theta_at(&bytes, &theta) + 8 + 8 * theta.len();
    assert_bundle_refused(&drop_last(&bytes, end, theta.len()), "θ one short");
}

/// A bundle's bytes with θ(0) hand-edited to `value`.
fn with_first_theta(value: f64) -> Vec<u8> {
    let (train, theta) = fixture();
    let mut bytes = fit(&train, &theta, CoverageKind::Static)
        .to_bytes()
        .unwrap();
    let at = theta_at(&bytes, &theta) + 8;
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    bytes
}

#[test]
fn a_theta_above_one_is_refused_at_decode() {
    let edge = ModelBundle::from_bytes(&with_first_theta(1.0)).unwrap();
    assert_eq!(edge.theta[0], 1.0, "the edit lands on θ(0); 1 is in range");
    assert_bundle_refused(&with_first_theta(1.5), "θ(0) = 1.5");
}

#[test]
fn a_nan_theta_is_refused_at_decode() {
    assert_bundle_refused(&with_first_theta(f64::NAN), "θ(0) = NaN");
}

#[test]
fn a_zero_list_size_is_refused_at_decode() {
    let (train, theta) = fixture();
    let bundle = fit(&train, &theta, CoverageKind::Random);
    let mut bytes = bundle.to_bytes().unwrap();
    // The model name, then `n`.
    let name = bundle.model_name.as_bytes();
    let len = (name.len() as u64).to_le_bytes();
    let head = [&len[..], name, &(bundle.n as u64).to_le_bytes()].concat();
    let at = find_once(&bytes, &head) + 8 + name.len();
    bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
    assert_bundle_refused(&bytes, "n = 0");
}

#[test]
fn a_seed_list_naming_a_user_outside_the_train_set_is_refused_at_decode() {
    let (train, theta) = fixture();
    let bundle = fit(&train, &theta, CoverageKind::Dynamic);
    let bytes = bundle.to_bytes().unwrap();
    // The seed lists' length, then the first entry's user and list length.
    let (user, list) = &bundle.seed_lists[0];
    let head = [
        &(bundle.seed_lists.len() as u64).to_le_bytes()[..],
        &user.0.to_le_bytes(),
        &(list.len() as u64).to_le_bytes(),
    ]
    .concat();
    let at = find_once(&bytes, &head) + 8;
    let mut edited = bytes.clone();
    edited[at..at + 4].copy_from_slice(&train.n_users().to_le_bytes());
    assert_bundle_refused(&edited, "a seed list for user n_users");
}

#[test]
fn a_seed_list_outside_the_catalogue_or_longer_than_n_is_refused_at_decode() {
    let (train, theta) = fixture();
    let bundle = fit(&train, &theta, CoverageKind::Dynamic);
    assert!(bundle.seed_lists.iter().all(|(_, l)| l.len() <= bundle.n));
    let bytes = bundle.to_bytes().unwrap();
    assert_eq!(ModelBundle::from_bytes(&bytes).unwrap(), bundle);

    let mut foreign_item = bundle.clone();
    foreign_item.seed_lists[0].1[0] = ItemId(train.n_items());
    assert_bundle_refused(
        &foreign_item.to_bytes().unwrap(),
        "a seed list naming item n_items",
    );

    let mut too_long = bundle.clone();
    let list = &mut too_long.seed_lists[0].1;
    let unlisted = (0..train.n_items())
        .map(ItemId)
        .find(|i| !list.contains(i))
        .unwrap();
    list.push(unlisted);
    assert_bundle_refused(&too_long.to_bytes().unwrap(), "a seed list of n + 1 items");
}

/// `bundle` with its coverage state swapped for the same kind's state
/// fitted on another catalogue.
fn with_foreign_coverage(kind: CoverageKind) -> (ModelBundle, ModelBundle) {
    let (train, theta) = fixture();
    let other = tiny_train();
    assert_ne!(other.n_items(), train.n_items());
    let other_theta = GeneralizedConfig::default().estimate(&other);
    let bundle = fit(&train, &theta, kind);
    let mut foreign = bundle.clone();
    foreign.coverage = fit(&other, &other_theta, kind).coverage;
    (bundle, foreign)
}

#[test]
fn a_stat_score_vector_for_another_catalogue_is_refused_at_decode() {
    let (bundle, foreign) = with_foreign_coverage(CoverageKind::Static);
    let restored = ModelBundle::from_bytes(&bundle.to_bytes().unwrap()).unwrap();
    assert_eq!(restored, bundle);
    match &foreign.coverage {
        CoverageState::Static(stat) => {
            assert_ne!(stat.scores().len(), bundle.n_items() as usize);
        }
        other => panic!("expected Stat coverage, got {:?}", other.kind()),
    }
    assert_bundle_refused(
        &foreign.to_bytes().unwrap(),
        "a Stat score vector for another catalogue",
    );
}

#[test]
fn a_dyn_snapshot_store_for_another_catalogue_is_refused_at_decode() {
    let (bundle, foreign) = with_foreign_coverage(CoverageKind::Dynamic);
    let restored = ModelBundle::from_bytes(&bundle.to_bytes().unwrap()).unwrap();
    assert_eq!(restored, bundle);
    match &foreign.coverage {
        CoverageState::Dynamic(snaps) => {
            assert!(!snaps.is_empty());
            assert_ne!(snaps.n_items(), bundle.n_items() as usize);
        }
        other => panic!("expected Dyn coverage, got {:?}", other.kind()),
    }
    assert_bundle_refused(
        &foreign.to_bytes().unwrap(),
        "a Dyn snapshot store for another catalogue",
    );
}

#[test]
fn a_train_matrix_with_falling_offsets_is_refused_at_decode() {
    let (train, theta) = fixture();
    let bytes = fit(&train, &theta, CoverageKind::Static)
        .to_bytes()
        .unwrap();
    // The train set closes the bundle: its dimensions, then the user-major
    // offsets' length and first three offsets.
    let (d0, d1) = (
        train.user_degree(UserId(0)) as u32,
        train.user_degree(UserId(1)) as u32,
    );
    let head = [
        &train.n_users().to_le_bytes()[..],
        &train.n_items().to_le_bytes(),
        &(train.n_users() as u64 + 1).to_le_bytes(),
        &0u32.to_le_bytes(),
        &d0.to_le_bytes(),
        &(d0 + d1).to_le_bytes(),
    ]
    .concat();
    let at = find_once(&bytes, &head) + 4 + 4 + 8 + 4;
    let mut edited = bytes.clone();
    // User 0's row now ends after user 1's.
    edited[at..at + 4].copy_from_slice(&(d0 + d1 + 1).to_le_bytes());
    assert_bundle_refused(&edited, "a train offset above the next one");
}
