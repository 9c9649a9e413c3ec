//! The persisted unit of serving: every fitted component a GANC
//! configuration needs to answer top-N requests, in one artifact.
//!
//! A [`ModelBundle`] freezes the output of the *fit* phase — the base
//! recommender, the per-user θ estimates, the coverage state (for `Dyn`,
//! the OSLG sequential phase's frequency snapshots plus the sampled users'
//! precomputed lists), and the train interactions that define candidate
//! pools. Loading a bundle is sufficient to serve any user without
//! re-running the batch optimizer.

use ganc_core::accuracy::{make_scorer, AccuracyMode};
use ganc_core::coverage::{CoverageKind, CoverageSnapshots, RandCoverage, StatCoverage};
use ganc_core::oslg::oslg_seed_phase;
use ganc_core::query::CoverageProvider;
use ganc_core::FitConfig;
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_recommender::item_avg::ItemAvg;
use ganc_recommender::knn::{ItemKnn, ItemKnnRecommender};
use ganc_recommender::pop::MostPopular;
use ganc_recommender::psvd::Psvd;
use ganc_recommender::rankmf::RankMf;
use ganc_recommender::rsvd::Rsvd;
use ganc_recommender::Recommender;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::HashMap;
use std::sync::Arc;

/// An owned, serializable fitted base recommender.
///
/// The one model whose scoring needs the train set at request time
/// (item-kNN) is bound to it lazily by [`FittedModel::bind`].
#[derive(Debug, Clone, PartialEq)]
pub enum FittedModel {
    /// Most-popular (§III-A's non-personalized accuracy champion).
    Pop(MostPopular),
    /// Damped item-average ratings.
    ItemAvg(ItemAvg),
    /// Item-based kNN.
    ItemKnn(ItemKnn),
    /// Regularized SVD (SGD matrix factorization).
    Rsvd(Rsvd),
    /// PureSVD via randomized truncated SVD.
    Psvd(Psvd),
    /// Pairwise ranking MF.
    RankMf(RankMf),
}

/// A [`FittedModel`] bound to train interactions, usable as a
/// [`Recommender`] for scoring.
pub enum BoundModel<'a> {
    /// Models that score from their own state alone.
    Owned(&'a dyn Recommender),
    /// Item-kNN, which reads the user's train row at request time.
    Knn(ItemKnnRecommender<'a>),
}

impl Recommender for BoundModel<'_> {
    fn name(&self) -> String {
        match self {
            BoundModel::Owned(m) => m.name(),
            BoundModel::Knn(m) => m.name(),
        }
    }

    fn score_items(&self, user: UserId, out: &mut [f64]) {
        match self {
            BoundModel::Owned(m) => m.score_items(user, out),
            BoundModel::Knn(m) => m.score_items(user, out),
        }
    }

    fn predicts_ratings(&self) -> bool {
        match self {
            BoundModel::Owned(m) => m.predicts_ratings(),
            BoundModel::Knn(m) => m.predicts_ratings(),
        }
    }

    fn scores_are_user_independent(&self) -> bool {
        match self {
            BoundModel::Owned(m) => m.scores_are_user_independent(),
            BoundModel::Knn(m) => m.scores_are_user_independent(),
        }
    }
}

impl FittedModel {
    /// Bind to the train set for scoring.
    pub fn bind<'a>(&'a self, train: &'a Interactions) -> BoundModel<'a> {
        match self {
            FittedModel::Pop(m) => BoundModel::Owned(m),
            FittedModel::ItemAvg(m) => BoundModel::Owned(m),
            FittedModel::ItemKnn(m) => BoundModel::Knn(ItemKnnRecommender::new(m, train)),
            FittedModel::Rsvd(m) => BoundModel::Owned(m),
            FittedModel::Psvd(m) => BoundModel::Owned(m),
            FittedModel::RankMf(m) => BoundModel::Owned(m),
        }
    }

    /// For the three factor models, the `(n_users, n_items)` their factor
    /// matrices are shaped for, or which part disagrees; `None` for the
    /// models without factors.
    fn factor_shape(&self) -> Option<Result<(usize, usize), &'static str>> {
        match self {
            FittedModel::Rsvd(m) => Some(m.shape()),
            FittedModel::Psvd(m) => Some(m.shape()),
            FittedModel::RankMf(m) => Some(m.shape()),
            FittedModel::Pop(_) | FittedModel::ItemAvg(_) | FittedModel::ItemKnn(_) => None,
        }
    }

    fn variant_index(&self) -> u32 {
        match self {
            FittedModel::Pop(_) => 0,
            FittedModel::ItemAvg(_) => 1,
            FittedModel::ItemKnn(_) => 2,
            FittedModel::Rsvd(_) => 3,
            FittedModel::Psvd(_) => 4,
            FittedModel::RankMf(_) => 5,
        }
    }
}

// The vendor serde derive handles unit enums only; data-carrying enums are
// implemented by hand (variant tag + payload).
impl Serialize for FittedModel {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.put_variant(self.variant_index())?;
        match self {
            FittedModel::Pop(m) => m.serialize(s),
            FittedModel::ItemAvg(m) => m.serialize(s),
            FittedModel::ItemKnn(m) => m.serialize(s),
            FittedModel::Rsvd(m) => m.serialize(s),
            FittedModel::Psvd(m) => m.serialize(s),
            FittedModel::RankMf(m) => m.serialize(s),
        }
    }
}

impl<'de> Deserialize<'de> for FittedModel {
    fn deserialize<D: Deserializer<'de>>(d: &mut D) -> Result<Self, D::Error> {
        let model = match d.get_variant()? {
            0 => FittedModel::Pop(MostPopular::deserialize(d)?),
            1 => FittedModel::ItemAvg(ItemAvg::deserialize(d)?),
            2 => FittedModel::ItemKnn(ItemKnn::deserialize(d)?),
            3 => FittedModel::Rsvd(Rsvd::deserialize(d)?),
            4 => FittedModel::Psvd(Psvd::deserialize(d)?),
            5 => FittedModel::RankMf(RankMf::deserialize(d)?),
            _ => return Err(d.invalid("FittedModel variant")),
        };
        // The scoring kernel indexes the factor matrices by their shapes:
        // a model whose parts disagree is refused here, not panicked on there.
        if let Some(Err(what)) = model.factor_shape() {
            return Err(d.invalid(what));
        }
        Ok(model)
    }
}

/// The coverage recommender's serving-time state.
#[derive(Debug, Clone, PartialEq)]
pub enum CoverageState {
    /// `Rand`: the per-run seed (scores are hashed on demand).
    Random(RandCoverage),
    /// `Stat`: precomputed inverse-popularity scores.
    Static(StatCoverage),
    /// `Dyn`: the OSLG sequential phase's θ-sorted frequency snapshots.
    Dynamic(CoverageSnapshots),
}

impl CoverageState {
    /// Which paper coverage recommender this state serves.
    pub fn kind(&self) -> CoverageKind {
        match self {
            CoverageState::Random(_) => CoverageKind::Random,
            CoverageState::Static(_) => CoverageKind::Static,
            CoverageState::Dynamic(_) => CoverageKind::Dynamic,
        }
    }

    /// The read-only provider single-user queries score against.
    pub fn provider(&self) -> &dyn CoverageProvider {
        match self {
            CoverageState::Random(r) => r,
            CoverageState::Static(s) => s,
            CoverageState::Dynamic(snaps) => snaps,
        }
    }
}

impl Serialize for CoverageState {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        match self {
            CoverageState::Random(r) => {
                s.put_variant(0)?;
                r.serialize(s)
            }
            CoverageState::Static(st) => {
                s.put_variant(1)?;
                st.serialize(s)
            }
            CoverageState::Dynamic(snaps) => {
                s.put_variant(2)?;
                snaps.serialize(s)
            }
        }
    }
}

impl<'de> Deserialize<'de> for CoverageState {
    fn deserialize<D: Deserializer<'de>>(d: &mut D) -> Result<Self, D::Error> {
        Ok(match d.get_variant()? {
            0 => CoverageState::Random(RandCoverage::deserialize(d)?),
            1 => CoverageState::Static(StatCoverage::deserialize(d)?),
            2 => CoverageState::Dynamic(CoverageSnapshots::deserialize(d)?),
            _ => return Err(d.invalid("CoverageState variant")),
        })
    }
}

/// Everything needed to serve GANC top-N requests, frozen at fit time.
///
/// Persist with [`crate::SaveLoad`] (format v3: `Dyn` coverage snapshots
/// travel as `O(|I| + S·N)` sparse deltas instead of `S` dense count
/// vectors, factor models' item factors as `k × n_items`); serve with
/// [`crate::engine::ServingEngine`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ModelBundle {
    /// Display name of the base model (e.g. `"Pop"`, `"PSVD100"`).
    pub model_name: String,
    /// List size `N` requests are answered with.
    pub n: usize,
    /// Accuracy adaptation mode.
    pub accuracy_mode: AccuracyMode,
    /// Per-user long-tail preference θ, indexed by user id. Behind `Arc` so
    /// θ-band slices ([`ModelBundle::slice_theta_band`]) share one
    /// allocation instead of cloning `O(|U|)` per shard; `Arc` is
    /// transparent on the wire, so the artifact format is unchanged.
    pub theta: Arc<Vec<f64>>,
    /// The fitted base recommender, shared across θ-band slices. Ingestion
    /// paths that mutate the model (the Pop bump) copy-on-write through
    /// [`Arc::make_mut`], so a shard's ingest never leaks into its
    /// siblings.
    pub model: Arc<FittedModel>,
    /// Serving-time coverage state.
    pub coverage: CoverageState,
    /// For Dyn coverage: the sequential phase's assignments (last draw per
    /// user, sorted by user id). Served verbatim so bundle output matches
    /// batch output for sampled users too. Empty for Rand/Stat.
    pub seed_lists: Vec<(UserId, Vec<ItemId>)>,
    /// The train interactions: candidate pools (`I^R \ I_u^R`) and the
    /// per-user rows kNN scoring reads. Shared across θ-band slices — the
    /// train set is the largest replicated component, and nothing mutates
    /// it after fit.
    pub train: Arc<Interactions>,
}

// Field by field as the derive would, then the checks the serving path
// relies on: lists of at least one item, a factor model shaped for this
// train set, θ holding one value in [0, 1] per train user (the range every
// estimator produces; NaN is outside it), every seed list naming a train
// user and at most `n` catalogue items (it is served verbatim), and a
// `Stat` score vector or `Dyn` snapshot store sized for this catalogue
// (the fused selection indexes it by item id).
impl<'de> Deserialize<'de> for ModelBundle {
    fn deserialize<D: Deserializer<'de>>(d: &mut D) -> Result<Self, D::Error> {
        let bundle = ModelBundle {
            model_name: Deserialize::deserialize(d)?,
            n: Deserialize::deserialize(d)?,
            accuracy_mode: Deserialize::deserialize(d)?,
            theta: Deserialize::deserialize(d)?,
            model: Deserialize::deserialize(d)?,
            coverage: Deserialize::deserialize(d)?,
            seed_lists: Deserialize::deserialize(d)?,
            train: Deserialize::deserialize(d)?,
        };
        if bundle.n == 0 {
            return Err(d.invalid("list size n ≥ 1"));
        }
        let served = (bundle.n_users() as usize, bundle.n_items() as usize);
        if matches!(bundle.model.factor_shape(), Some(Ok(shape)) if shape != served) {
            return Err(d.invalid("factor model shape for this train set"));
        }
        if bundle.theta.len() != served.0 {
            return Err(d.invalid("one θ per train user"));
        }
        if !bundle.theta.iter().all(|t| (0.0..=1.0).contains(t)) {
            return Err(d.invalid("θ in [0, 1]"));
        }
        for (u, list) in &bundle.seed_lists {
            if u.idx() >= served.0 {
                return Err(d.invalid("seed list user in the train set"));
            }
            if list.len() > bundle.n {
                return Err(d.invalid("seed list of at most n items"));
            }
            if list.iter().any(|i| i.idx() >= served.1) {
                return Err(d.invalid("seed list item in the catalogue"));
            }
        }
        let coverage_items = match &bundle.coverage {
            CoverageState::Random(_) => served.1,
            CoverageState::Static(stat) => stat.scores().len(),
            CoverageState::Dynamic(snaps) => snaps.n_items(),
        };
        if coverage_items != served.1 {
            return Err(d.invalid("coverage state sized for this catalogue"));
        }
        Ok(bundle)
    }
}

impl ModelBundle {
    /// Fit a bundle: for Dyn coverage this runs OSLG's *sequential* phase
    /// only (Algorithm 1, lines 2–10) and freezes its snapshots; Rand and
    /// Stat need no optimization at all.
    pub fn fit(
        model: FittedModel,
        theta: Vec<f64>,
        train: Interactions,
        cfg: &FitConfig,
    ) -> ModelBundle {
        assert_eq!(
            theta.len(),
            train.n_users() as usize,
            "one θ per user required"
        );
        let (coverage, seed_lists) = match cfg.coverage {
            CoverageKind::Random => (
                CoverageState::Random(RandCoverage::new(cfg.seed)),
                Vec::new(),
            ),
            CoverageKind::Static => (CoverageState::Static(StatCoverage::fit(&train)), Vec::new()),
            CoverageKind::Dynamic => {
                let bound = model.bind(&train);
                let scorer = make_scorer(&bound, cfg.accuracy_mode, &train, cfg.n);
                let seed = oslg_seed_phase(scorer.as_ref(), &theta, &train, &cfg.oslg(1));
                // Batch output keeps the final draw per sampled user.
                let mut last: HashMap<u32, Vec<ItemId>> = HashMap::new();
                for (u, list) in seed.assignments {
                    last.insert(u.0, list);
                }
                let mut lists: Vec<(UserId, Vec<ItemId>)> =
                    last.into_iter().map(|(u, l)| (UserId(u), l)).collect();
                lists.sort_by_key(|(u, _)| u.0);
                (CoverageState::Dynamic(seed.snapshots), lists)
            }
        };
        let model_name = model.bind(&train).name();
        ModelBundle {
            model_name,
            n: cfg.n,
            accuracy_mode: cfg.accuracy_mode,
            theta: Arc::new(theta),
            model: Arc::new(model),
            coverage,
            seed_lists,
            train: Arc::new(train),
        }
    }

    /// The artifact a θ-band shard serves: everything this bundle has,
    /// except that `Dyn` coverage keeps only the snapshot sub-range any
    /// θ ∈ `[lo, hi)` can resolve to (see
    /// [`CoverageSnapshots::slice_band`]) and the precomputed seed lists
    /// keep only the sampled users whose θ falls in the band. Use
    /// `lo = f64::NEG_INFINITY` / `hi = f64::INFINITY` for the open ends of
    /// the first and last band.
    ///
    /// Serving an in-band user from the slice is byte-identical to serving
    /// them from the full bundle: the snapshot sub-range provably resolves
    /// nearest-θ the same way, and every other component is unchanged. The
    /// train set, base model, and θ vector travel with each shard by
    /// `Arc` — an in-process [`crate::ShardedEngine`] holds them *once*
    /// regardless of shard count — while the state that was `O(S·|I|)` and
    /// is now `O(band)` per shard is the snapshot store.
    pub fn slice_theta_band(&self, lo: f64, hi: f64) -> ModelBundle {
        let coverage = match &self.coverage {
            CoverageState::Dynamic(snaps) => CoverageState::Dynamic(snaps.slice_band(lo, hi)),
            other => other.clone(),
        };
        let seed_lists = self
            .seed_lists
            .iter()
            .filter(|(u, _)| {
                let t = self.theta[u.idx()];
                t >= lo && t < hi
            })
            .cloned()
            .collect();
        ModelBundle {
            model_name: self.model_name.clone(),
            n: self.n,
            accuracy_mode: self.accuracy_mode,
            theta: Arc::clone(&self.theta),
            model: Arc::clone(&self.model),
            coverage,
            seed_lists,
            train: Arc::clone(&self.train),
        }
    }

    /// Number of users this bundle can serve.
    pub fn n_users(&self) -> u32 {
        self.train.n_users()
    }

    /// Catalog size.
    pub fn n_items(&self) -> u32 {
        self.train.n_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saveload::SaveLoad;
    use ganc_dataset::synth::DatasetProfile;
    use ganc_preference::GeneralizedConfig;

    fn small_fixture() -> (Interactions, Vec<f64>) {
        let data = DatasetProfile::tiny().generate(8);
        let split = data.split_per_user(0.5, 3).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        (split.train, theta)
    }

    #[test]
    fn bundle_round_trips_through_bytes() {
        let (train, theta) = small_fixture();
        let pop = MostPopular::fit(&train);
        let cfg = FitConfig {
            sample_size: 10,
            ..FitConfig::new(5)
        };
        let bundle = ModelBundle::fit(FittedModel::Pop(pop), theta, train, &cfg);
        let bytes = bundle.to_bytes().unwrap();
        let restored = ModelBundle::from_bytes(&bytes).unwrap();
        assert_eq!(restored, bundle);
        assert_eq!(restored.model_name, "Pop");
        assert!(!restored.seed_lists.is_empty());
    }

    #[test]
    fn every_coverage_kind_fits() {
        let (train, theta) = small_fixture();
        for kind in [
            CoverageKind::Random,
            CoverageKind::Static,
            CoverageKind::Dynamic,
        ] {
            let pop = MostPopular::fit(&train);
            let cfg = FitConfig {
                coverage: kind,
                sample_size: 10,
                ..FitConfig::new(5)
            };
            let bundle =
                ModelBundle::fit(FittedModel::Pop(pop), theta.clone(), train.clone(), &cfg);
            assert_eq!(bundle.coverage.kind(), kind);
            let restored = ModelBundle::from_bytes(&bundle.to_bytes().unwrap()).unwrap();
            assert_eq!(restored, bundle);
        }
    }

    #[test]
    fn seed_lists_sorted_and_unique() {
        let (train, theta) = small_fixture();
        let pop = MostPopular::fit(&train);
        let cfg = FitConfig {
            sample_size: 30,
            ..FitConfig::new(5)
        };
        let bundle = ModelBundle::fit(FittedModel::Pop(pop), theta, train, &cfg);
        let ids: Vec<u32> = bundle.seed_lists.iter().map(|(u, _)| u.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "seed lists must be sorted and deduplicated");
    }
}
