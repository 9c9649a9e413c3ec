//! The sharding acceptance property: a [`ShardedEngine`] — users
//! partitioned into θ bands, each shard holding only its band's snapshot
//! sub-range — produces **byte-identical** top-N output to a single
//! engine over the same bundle, and to the batch OSLG optimizer, for
//! every coverage kind, shard counts 1–4, uneven explicit band cuts
//! (including a duplicate cut that leaves a band empty), and after online
//! ingestion (pinned draws of the deployment oracle,
//! `tests/deployment_oracle.rs`, which generates the rest) — and the
//! encodings of band membership (the [`BandMap`] both cross-band layers
//! place users with, `shard_of`, and `slice_theta_band`'s θ filter) agree.

mod oracle;

use ganc::core::query::{band_bounds, shard_of};
use ganc::dataset::UserId;
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::serve::{
    BandMap, FitConfig, FittedModel, ModelBundle, ServeError, ShardConfig, ShardedEngine,
};
use oracle::*;
use proptest::prelude::*;

/// Generated data with duplicate-heavy θ on a 1/8 grid: every user, a
/// batch, an ingest stream (one of them resent, one of an unknown item),
/// every user again — for every coverage kind.
#[test]
fn sharded_equals_unsharded_equals_batch() {
    for seed in 0..4 {
        for coverage in [Random, Static, Dynamic] {
            let setup = Setup::of(Grid(seed), Pop, coverage, Normalized);
            let mut steps = every_user(&setup);
            steps.push(one_batch(&setup));
            steps.extend([
                Ingest(Some(1), 0, 3, 4),
                Ingest(None, 5, 3, 4),
                Ingest(Some(2), 11, 25, 2),
                Ingest(Some(1), 0, 3, 4),
                Ingest(None, 7, 26, 4),
            ]);
            steps.extend(every_user(&setup));
            check(setup, steps);
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

/// A realistic skewed dataset with KDE-estimated θ, Dyn coverage: one
/// batch of every user through every shard count.
#[test]
fn sharded_matches_batch_on_skewed_profile() {
    let setup = Setup::of(Small(321), Pop, Dynamic, Normalized);
    check(setup, vec![one_batch(&setup)]);
}

/// TopN-indicator accuracy adaptation through the sharded path.
#[test]
fn sharded_matches_batch_in_indicator_mode() {
    let setup = Setup::of(Tiny(99), Pop, Dynamic, TopNIndicator);
    check(setup, every_user(&setup));
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
        ..FitConfig::new(5)
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
