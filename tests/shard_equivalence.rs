//! The sharding acceptance property: a [`ShardedEngine`] — users
//! partitioned into θ bands, each shard holding only its band's snapshot
//! sub-range — produces **byte-identical** top-N output to a single
//! [`ServingEngine`] over the same bundle, and to the batch OSLG optimizer,
//! for random datasets, every coverage kind, shard counts S ∈ {1, 2, 4, 7},
//! uneven explicit band cuts (including duplicate cuts that leave bands
//! empty), and after online ingestion — and the encodings of band
//! membership (the [`BandMap`] both cross-band layers place users with,
//! `shard_of`, and `slice_theta_band`'s θ filter) agree.

use ganc::core::query::{band_bounds, shard_of};
use ganc::core::{build_topn, AccuracyMode, CoverageKind};
use ganc::dataset::dataset::{DatasetBuilder, RatingScale};
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::serve::{
    BandMap, EngineConfig, FitConfig, FittedModel, ModelBundle, ServeError, ServingEngine,
    ShardConfig, ShardPlan, ShardedEngine,
};
use proptest::prelude::*;

const N_USERS: u32 = 12;
const N_ITEMS: u32 = 26;
const N: usize = 5;
const SAMPLE: usize = 10;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

const ALL_KINDS: [CoverageKind; 3] = [
    CoverageKind::Random,
    CoverageKind::Static,
    CoverageKind::Dynamic,
];

/// Random small rating matrices over a fixed catalog (items may go
/// unrated, exercising the train-mask exclusion).
fn arb_train() -> impl Strategy<Value = Interactions> {
    proptest::collection::vec((0u32..N_USERS, 0u32..N_ITEMS, 1u32..=5), 10..140).prop_map(
        |triples| {
            let mut b = DatasetBuilder::new("shard", RatingScale::stars_1_5());
            for (u, i, r) in triples {
                b.push(UserId(u), ItemId(i), r as f32).unwrap();
            }
            let d = b.build().unwrap();
            Interactions::from_ratings(N_USERS, N_ITEMS, d.ratings())
        },
    )
}

/// Per-user θ drawn from a coarse grid, so duplicate θ values are common
/// and quantile cuts frequently land exactly on a duplicated θ.
fn arb_theta() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u32..=8, (N_USERS as usize)..(N_USERS as usize + 1))
        .prop_map(|grid| grid.into_iter().map(|k| k as f64 / 8.0).collect())
}

fn fit_cfg(kind: CoverageKind) -> FitConfig {
    FitConfig {
        coverage: kind,
        sample_size: SAMPLE,
        ..FitConfig::new(N)
    }
}

/// Sharded == unsharded == batch OSLG, then (sharded == unsharded) again
/// after both engines ingest the same interaction stream.
fn check_kind(
    train: &Interactions,
    theta: &[f64],
    kind: CoverageKind,
    ingests: &[(u32, u32)],
    plans: &[ShardPlan],
) {
    let users: Vec<UserId> = (0..N_USERS).map(UserId).collect();
    let cfg = fit_cfg(kind);
    let batch = build_topn(&MostPopular::fit(train), theta, train, &cfg, 4);
    let bundle = ModelBundle::fit(
        FittedModel::Pop(MostPopular::fit(train)),
        theta.to_vec(),
        train.clone(),
        &cfg,
    );
    let single = ServingEngine::new(bundle.clone(), EngineConfig::default());
    for u in &users {
        assert_eq!(
            single.recommend(*u).unwrap().as_slice(),
            batch[u.idx()].as_slice(),
            "{kind:?}: unsharded engine diverges from batch for {u:?}"
        );
    }

    let sharded: Vec<ShardedEngine> = plans
        .iter()
        .map(|plan| {
            ShardedEngine::new(
                bundle.clone(),
                ShardConfig {
                    plan: plan.clone(),
                    engine: EngineConfig::default(),
                },
            )
        })
        .collect();
    for (engine, plan) in sharded.iter().zip(plans) {
        // Single-request path against the batch reference.
        for u in &users {
            assert_eq!(
                engine.recommend(*u).unwrap().as_slice(),
                batch[u.idx()].as_slice(),
                "{kind:?}/{plan:?}: sharded single request diverges for {u:?}"
            );
        }
        // Batch path, split across shards.
        engine.flush_cache();
        let (answers, generation) = engine.recommend_batch_traced(&users);
        assert_eq!(generation, 0);
        for (u, got) in users.iter().zip(&answers) {
            assert_eq!(
                got.as_ref().unwrap().as_slice(),
                batch[u.idx()].as_slice(),
                "{kind:?}/{plan:?}: sharded batch diverges for {u:?}"
            );
        }
    }

    // Ingest the same stream everywhere; sharded must track unsharded
    // exactly (the batch optimizer has no ingest path to compare against).
    for &(u, i) in ingests {
        let (u, i) = (UserId(u % N_USERS), ItemId(i % N_ITEMS));
        single.ingest(u, i, 4.0).unwrap();
        for engine in &sharded {
            engine.ingest(u, i, 4.0).unwrap();
        }
    }
    if !ingests.is_empty() {
        single.flush_cache();
        for (engine, plan) in sharded.iter().zip(plans) {
            engine.flush_cache();
            for u in &users {
                assert_eq!(
                    engine.recommend(*u).unwrap(),
                    single.recommend(*u).unwrap(),
                    "{kind:?}/{plan:?}: sharded diverges after ingestion for {u:?}"
                );
            }
        }
    }
}

fn all_plans() -> Vec<ShardPlan> {
    let mut plans: Vec<ShardPlan> = SHARD_COUNTS
        .iter()
        .map(|&s| ShardPlan::Quantile(s))
        .collect();
    // Uneven hand cuts: a sliver band, a duplicate cut (empty band), and a
    // cut exactly on a θ-grid value duplicates can land on.
    plans.push(ShardPlan::Explicit(vec![0.03, 0.5, 0.5, 0.875]));
    plans
}

proptest! {
    /// The headline property: for random data, random (duplicate-heavy) θ,
    /// every coverage kind, S ∈ {1,2,4,7} and uneven explicit cuts, the
    /// sharded engine is byte-identical to the unsharded engine and the
    /// batch optimizer — before and after a random ingest stream.
    #[test]
    fn sharded_equals_unsharded_equals_batch(
        train in arb_train(),
        theta in arb_theta(),
        ingests in proptest::collection::vec((0u32..N_USERS, 0u32..N_ITEMS), 0..5),
    ) {
        for kind in ALL_KINDS {
            check_kind(&train, &theta, kind, &ingests, &all_plans());
        }
    }
}

proptest! {
    /// One placement, four encodings that must agree: for random θ
    /// populations on a coarse grid (duplicated θs, θs exactly on a cut,
    /// zero users) under random cut sets (none — a single band —, duplicated
    /// cuts leaving bands empty), every user's band under the map is
    /// `shard_of` of their θ, each band's `band_bounds` interval holds
    /// exactly its users under `slice_theta_band`'s `lo <= θ < hi` filter,
    /// the per-band counts sum to the population, a θ override lands on
    /// `shard_of` of that θ, and a split keeps request order and answers an
    /// unknown user in its own slot.
    #[test]
    fn band_membership_encodings_agree(
        grid in proptest::collection::vec(0u32..=8, 0..40),
        cut_grid in proptest::collection::vec(0u32..=16, 0..6),
        override_k in 0u32..=8,
        requests in proptest::collection::vec(0u32..48, 0..30),
    ) {
        let theta: Vec<f64> = grid.iter().map(|&k| k as f64 / 8.0).collect();
        let mut cuts: Vec<f64> = cut_grid.iter().map(|&k| k as f64 / 16.0).collect();
        cuts.sort_by(f64::total_cmp);
        let map = BandMap::new(&theta, cuts.clone());
        prop_assert_eq!(map.n_users() as usize, theta.len());
        prop_assert_eq!(map.bands(), cuts.len() + 1);
        for (u, &t) in theta.iter().enumerate() {
            prop_assert_eq!(map.band(UserId(u as u32), None), Ok(shard_of(&cuts, t)));
        }
        let mut placed = 0;
        for j in 0..map.bands() {
            let (lo, hi) = band_bounds(&cuts, j);
            let sliced: Vec<usize> = (0..theta.len())
                .filter(|&u| theta[u] >= lo && theta[u] < hi)
                .collect();
            let banded: Vec<usize> = (0..theta.len())
                .filter(|&u| map.band(UserId(u as u32), None) == Ok(j))
                .collect();
            prop_assert_eq!(&sliced, &banded, "band {}", j);
            prop_assert_eq!(map.users(j), banded.len());
            placed += map.users(j);
        }
        prop_assert_eq!(placed, theta.len());

        let t = override_k as f64 / 8.0;
        let users: Vec<UserId> = requests.iter().map(|&u| UserId(u)).collect();
        for user in &users {
            let expect = if user.idx() < theta.len() {
                Ok(shard_of(&cuts, t))
            } else {
                Err(ServeError::UnknownUser(*user))
            };
            prop_assert_eq!(map.band(*user, Some(t)), expect);
        }
        for theta_override in [None, Some(t)] {
            let (per_band, slots) = map.split(&users, theta_override);
            prop_assert_eq!(per_band.len(), map.bands());
            prop_assert_eq!(slots.len(), users.len());
            let mut seen = vec![false; users.len()];
            for (j, positions) in per_band.iter().enumerate() {
                prop_assert!(positions.windows(2).all(|w| w[0] < w[1]), "request order");
                for &k in positions {
                    prop_assert_eq!(map.band(users[k], theta_override), Ok(j));
                    prop_assert!(slots[k].is_none());
                    seen[k] = true;
                }
            }
            for (k, user) in users.iter().enumerate() {
                if !seen[k] {
                    prop_assert_eq!(&slots[k], &Some(Err(ServeError::UnknownUser(*user))));
                }
            }
        }
    }
}

/// A realistic skewed dataset with KDE-estimated θ (the serving fixture the
/// other acceptance suites use), all shard counts, Dyn coverage.
#[test]
fn sharded_matches_batch_on_skewed_profile() {
    let data = ganc::dataset::synth::DatasetProfile::small().generate(321);
    let split = data.split_per_user(0.5, 5).unwrap();
    let train = split.train;
    let theta = GeneralizedConfig::default().estimate(&train);
    let cfg = FitConfig {
        sample_size: 25,
        ..fit_cfg(CoverageKind::Dynamic)
    };
    let batch = build_topn(&MostPopular::fit(&train), &theta, &train, &cfg, 4);
    let bundle = ModelBundle::fit(
        FittedModel::Pop(MostPopular::fit(&train)),
        theta,
        train.clone(),
        &cfg,
    );
    for shards in SHARD_COUNTS {
        let engine = ShardedEngine::new(bundle.clone(), ShardConfig::quantile(shards));
        let users: Vec<UserId> = (0..train.n_users()).map(UserId).collect();
        let answers = engine.recommend_batch_traced(&users).0;
        for (u, got) in users.iter().zip(answers) {
            assert_eq!(
                got.unwrap().as_slice(),
                batch[u.idx()].as_slice(),
                "S={shards} user {u:?}"
            );
        }
    }
}

/// TopN-indicator accuracy adaptation through the sharded path.
#[test]
fn sharded_matches_batch_in_indicator_mode() {
    let data = ganc::dataset::synth::DatasetProfile::small().generate(99);
    let split = data.split_per_user(0.5, 3).unwrap();
    let train = split.train;
    let theta = GeneralizedConfig::default().estimate(&train);
    let cfg = FitConfig {
        accuracy_mode: AccuracyMode::TopNIndicator,
        sample_size: 20,
        ..fit_cfg(CoverageKind::Dynamic)
    };
    let batch = build_topn(&MostPopular::fit(&train), &theta, &train, &cfg, 4);
    let bundle = ModelBundle::fit(
        FittedModel::Pop(MostPopular::fit(&train)),
        theta,
        train.clone(),
        &cfg,
    );
    let engine = ShardedEngine::new(bundle, ShardConfig::quantile(4));
    for u in 0..train.n_users() {
        assert_eq!(
            engine.recommend(UserId(u)).unwrap().as_slice(),
            batch[u as usize].as_slice(),
            "user {u}"
        );
    }
}

/// Band metadata sanity on the skewed profile: every user lands in exactly
/// one band, bands tile the θ axis, and Dyn shards hold strict snapshot
/// sub-ranges (the O(band) state the sharding exists for).
#[test]
fn shard_layout_tiles_theta_axis() {
    let data = ganc::dataset::synth::DatasetProfile::small().generate(7);
    let split = data.split_per_user(0.5, 2).unwrap();
    let train = split.train;
    let theta = GeneralizedConfig::default().estimate(&train);
    let cfg = FitConfig {
        sample_size: 40,
        ..fit_cfg(CoverageKind::Dynamic)
    };
    let bundle = ModelBundle::fit(
        FittedModel::Pop(MostPopular::fit(&train)),
        theta,
        train.clone(),
        &cfg,
    );
    let engine = ShardedEngine::new(bundle, ShardConfig::quantile(5));
    let info = engine.shard_info();
    assert_eq!(info.len(), 5);
    assert_eq!(info[0].theta_lo, f64::NEG_INFINITY);
    assert_eq!(info.last().unwrap().theta_hi, f64::INFINITY);
    for w in info.windows(2) {
        assert_eq!(w[0].theta_hi, w[1].theta_lo, "bands must tile");
    }
    assert_eq!(
        info.iter().map(|i| i.users).sum::<usize>(),
        train.n_users() as usize
    );
    assert!(
        info.iter().any(|i| i.snapshots < 40),
        "at least one shard must hold a strict snapshot sub-range"
    );
}
